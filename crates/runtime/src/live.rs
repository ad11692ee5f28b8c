//! Live, externally-fed sources for **resident** topologies.
//!
//! A standing materialized view keeps its topology up after the initial
//! load: each source relation is backed by a [`LiveQueue`] of
//! [`LiveItem`]s — whole rounds, epoch watermarks and checkpoint barriers —
//! pushed by an external writer (the session's `append`/`retract` path),
//! and by a [`LiveSpout`] that reads them in place from inside the worker
//! pool. When the queue is empty the spout reports [`SpoutPoll::Idle`] and
//! its task parks — no Eos, no busy loop — until the writer wakes it
//! through a [`crate::executor::TaskWaker`]. Closing the queue (`DROP
//! MATERIALIZED VIEW`) turns the next poll into [`SpoutPoll::Eos`], which
//! triggers the normal flush/punctuate shutdown cascade of the whole
//! topology.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use squall_common::Value;

use crate::topology::{Source, Spout, SpoutPoll};

/// One item of a [`LiveQueue`]: a round — every selected row of a
/// [`Source`], with its weight and epoch — or a punctuation its spout
/// reports as it is.
pub enum LiveItem {
    Round(Arc<Source>, i64, u64),
    Watermark(u64),
    Barrier(u64),
}

#[derive(Default)]
struct LiveState {
    queue: VecDeque<LiveItem>,
    closed: bool,
}

/// An unbounded MPSC queue feeding one resident spout task. Writers push
/// rounds and epoch watermarks; the owning [`LiveSpout`] drains them in
/// order. Unboundedness is deliberate: the producer is the user's
/// `append()` call, and backpressure is applied further downstream by the
/// topology's inbox capacities (the spout task parks when its targets are
/// over capacity, leaving items queued here).
#[derive(Default)]
pub struct LiveQueue {
    inner: Mutex<LiveState>,
}

impl LiveQueue {
    /// Queue one item. Pushes to a closed queue are dropped silently (the
    /// view is shutting down; the topology will never poll them).
    pub fn push(&self, item: LiveItem) {
        let mut inner = self.inner.lock().expect("live queue poisoned");
        if !inner.closed {
            inner.queue.push_back(item);
        }
    }

    /// Close the queue: the spout's next empty poll returns Eos and the
    /// resident topology begins its normal shutdown cascade. Items already
    /// queued are still delivered first.
    pub fn close(&self) {
        self.inner.lock().expect("live queue poisoned").closed = true;
    }

    fn pop(&self) -> Result<LiveItem, SpoutPoll<'static>> {
        let mut inner = self.inner.lock().expect("live queue poisoned");
        let dry = if inner.closed { SpoutPoll::Eos } else { SpoutPoll::Idle };
        inner.queue.pop_front().ok_or(dry)
    }
}

/// The spout half of a [`LiveQueue`]: ships each row of a round borrowed,
/// `[mult, epoch]` appended, and pops the next item only once the round is
/// done, so no watermark or barrier overtakes a row of its round. Ends
/// only once the queue has been closed *and* drained.
pub struct LiveSpout {
    queue: Arc<LiveQueue>,
    /// The round being read, its next row, its weight and epoch.
    round: (Arc<Source>, usize, i64, u64),
    /// Where a kept row is gathered, and where it ships from, tag appended.
    buf: (Vec<Value>, Vec<Value>),
}

impl LiveSpout {
    /// A spout draining `queue`.
    pub fn new(queue: Arc<LiveQueue>) -> LiveSpout {
        let round = (Arc::new(Source::from(Vec::new())), 0, 0, 0);
        LiveSpout { queue, round, buf: Default::default() }
    }
}

impl Spout for LiveSpout {
    fn poll(&mut self) -> SpoutPoll<'_> {
        while self.round.1 == self.round.0.len() {
            self.round = match self.queue.pop() {
                Ok(LiveItem::Round(rows, mult, epoch)) => (rows, 0, mult, epoch),
                Ok(LiveItem::Watermark(epoch)) => return SpoutPoll::Watermark(epoch),
                Ok(LiveItem::Barrier(epoch)) => return SpoutPoll::Barrier(epoch),
                Err(dry) => return dry,
            };
        }
        let ((rows, k, mult, epoch), (kept, row)) = (&mut self.round, &mut self.buf);
        row.clear();
        row.extend_from_slice(rows.row(*k, kept));
        row.extend([Value::Int(*mult), Value::Int(*epoch as i64)]);
        *k += 1;
        SpoutPoll::Row(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Bolt, OutputCollector, TopologyBuilder};
    use crate::{Grouping, NodeId};
    use squall_common::{tuple, Chunk, Result, Tuple};

    fn round(rows: Vec<Tuple>, mult: i64, epoch: u64) -> LiveItem {
        LiveItem::Round(Arc::new(rows.into()), mult, epoch)
    }

    fn is_row(poll: SpoutPoll<'_>, want: Tuple) -> bool {
        matches!(poll, SpoutPoll::Row(row) if row == want.values())
    }

    #[test]
    fn pops_in_order_and_idles_when_dry() {
        let q = Arc::new(LiveQueue::default());
        q.push(round(vec![tuple![1], tuple![2]], -1, 7));
        q.push(round(Vec::new(), 1, 7));
        q.push(LiveItem::Watermark(7));
        let mut s = LiveSpout::new(Arc::clone(&q));
        assert!(is_row(s.poll(), tuple![1, -1, 7]));
        assert!(is_row(s.poll(), tuple![2, -1, 7]));
        assert!(matches!(s.poll(), SpoutPoll::Watermark(7)), "an empty round ships nothing");
        assert!(matches!(s.poll(), SpoutPoll::Idle));
        q.push(round(vec![tuple![3]], 1, 8));
        assert!(is_row(s.poll(), tuple![3, 1, 8]));
        q.close();
        assert!(matches!(s.poll(), SpoutPoll::Eos));
    }

    #[test]
    fn close_delivers_queued_items_first() {
        let q = Arc::new(LiveQueue::default());
        q.push(round(vec![tuple![1]], 1, 1));
        q.close();
        q.push(round(vec![tuple![2]], 1, 1)); // dropped: queue already closed
        let mut s = LiveSpout::new(Arc::clone(&q));
        assert!(is_row(s.poll(), tuple![1, 1, 1]));
        assert!(matches!(s.poll(), SpoutPoll::Eos));
    }

    /// What reaches the sink, in arrival order.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Row(Tuple),
        Watermark(u64),
        Barrier(u64),
    }

    struct Record(Arc<Mutex<Vec<Seen>>>);

    impl Bolt for Record {
        fn execute_chunk(
            &mut self,
            _: NodeId,
            chunk: &Chunk,
            _: &mut OutputCollector,
        ) -> Result<()> {
            self.0.lock().unwrap().extend(chunk.rows().map(Seen::Row));
            Ok(())
        }

        fn watermark(
            &mut self,
            _: NodeId,
            _: usize,
            ts: u64,
            _: &mut OutputCollector,
        ) -> Result<()> {
            self.0.lock().unwrap().push(Seen::Watermark(ts));
            Ok(())
        }

        fn barrier(&mut self, epoch: u64, _: &mut OutputCollector) -> Result<()> {
            self.0.lock().unwrap().push(Seen::Barrier(epoch));
            Ok(())
        }
    }

    /// A round far longer than a one-message inbox: the spout task parks on
    /// backpressure mid-round again and again, and each time resumes where
    /// it stopped. Every kept row arrives once, in order, as
    /// `row ⊕ [mult, epoch]`, all of them before the epoch's watermark and
    /// that before its barrier.
    #[test]
    fn a_round_survives_mid_round_parks() {
        // Every other row of 12 000, in reverse, each cut to column 1 and
        // its one derived value.
        let data: Vec<Tuple> = (0..12_000).map(|i| tuple![i, i * 10]).collect();
        let ids: Vec<usize> = (0..12_000).step_by(2).rev().collect();
        let derived = ids.iter().map(|&i| Value::Int(-(i as i64))).collect();
        let source = Source::select(Arc::new(data), Some(ids), Some(vec![1, 2]), derived);
        let source = Arc::new(source);

        let q = Arc::new(LiveQueue::default());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut b = TopologyBuilder::new().channel_capacity(1).batch_size(1).worker_threads(1);
        let spout_queue = Arc::clone(&q);
        let src =
            b.add_spout("live", 1, move |_| Box::new(LiveSpout::new(Arc::clone(&spout_queue))));
        let record = Arc::clone(&seen);
        let sink = b.add_bolt("record", 1, move |_| Box::new(Record(Arc::clone(&record))));
        b.connect(src, sink, Grouping::Global);
        let handle = b.build().unwrap().launch();
        q.push(LiveItem::Round(Arc::clone(&source), -1, 5));
        q.push(LiveItem::Watermark(5));
        q.push(LiveItem::Barrier(5));
        q.close();
        handle.waker().wake(0);
        let outcome = handle.finish();
        assert!(outcome.error.is_none(), "{:?}", outcome.error);
        assert!(outcome.metrics.scheduler.blocked > 0, "the spout never parked on its sink");

        let mut buf = Vec::new();
        let mut want: Vec<Seen> = (0..source.len())
            .map(|k| {
                let mut row = source.row(k, &mut buf).to_vec();
                row.extend([Value::Int(-1), Value::Int(5)]);
                Seen::Row(row.into())
            })
            .collect();
        assert_eq!(want.len(), 6_000);
        assert_eq!(want[0], Seen::Row(tuple![119_980, -11_998, -1, 5]));
        want.extend([Seen::Watermark(5), Seen::Barrier(5)]);
        assert!(*seen.lock().unwrap() == want, "the sink saw another sequence");
    }
}
