//! Live, externally-fed sources for **resident** topologies.
//!
//! A standing materialized view keeps its topology up after the initial
//! load: each source relation is backed by a [`LiveQueue`] that an
//! external writer (the session's `append`/`retract` path) pushes
//! [`LiveItem`]s into, and a [`LiveSpout`] that drains the queue from
//! inside the worker pool. When the queue is empty the spout reports
//! [`SpoutPoll::Idle`] and its task parks — no Eos, no busy loop — until
//! the writer wakes it through a [`crate::executor::TaskWaker`]. Closing
//! the queue (`DROP MATERIALIZED VIEW`) turns the next poll into
//! [`SpoutPoll::Eos`], which triggers the normal flush/punctuate shutdown
//! cascade of the whole topology.

use std::collections::VecDeque;
use std::sync::Mutex;

use squall_common::Tuple;

use crate::topology::{Spout, SpoutPoll};

/// One item queued on a live source.
#[derive(Debug, Clone)]
pub enum LiveItem {
    /// A data delta: the tuple already carries its trailing
    /// multiplicity/epoch bookkeeping columns (the live data plane is
    /// payload-agnostic).
    Delta(Tuple),
    /// An epoch watermark to broadcast downstream after the deltas that
    /// precede it in the queue.
    Watermark(u64),
    /// A checkpoint barrier to broadcast downstream after the epoch
    /// watermark it seals (see [`crate::message::Message::Barrier`]).
    Barrier(u64),
}

struct LiveState {
    queue: VecDeque<LiveItem>,
    closed: bool,
}

/// An unbounded MPSC queue feeding one resident spout task. Writers push
/// deltas and epoch watermarks; the owning [`LiveSpout`] drains them in
/// order. Unboundedness is deliberate: the producer is the user's
/// `append()` call, and backpressure is applied further downstream by the
/// topology's inbox capacities (the spout task parks when its targets are
/// over capacity, leaving items queued here).
pub struct LiveQueue {
    inner: Mutex<LiveState>,
}

impl Default for LiveQueue {
    fn default() -> Self {
        LiveQueue::new()
    }
}

impl LiveQueue {
    /// A fresh, open, empty queue.
    pub fn new() -> LiveQueue {
        LiveQueue { inner: Mutex::new(LiveState { queue: VecDeque::new(), closed: false }) }
    }

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

    /// Items currently queued (diagnostics).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("live queue poisoned").queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn pop(&self) -> SpoutPoll {
        let mut inner = self.inner.lock().expect("live queue poisoned");
        match inner.queue.pop_front() {
            Some(LiveItem::Delta(t)) => SpoutPoll::Tuple(t),
            Some(LiveItem::Watermark(ts)) => SpoutPoll::Watermark(ts),
            Some(LiveItem::Barrier(epoch)) => SpoutPoll::Barrier(epoch),
            None if inner.closed => SpoutPoll::Eos,
            None => SpoutPoll::Idle,
        }
    }
}

/// The spout half of a [`LiveQueue`]: drains the queue, parking idle when
/// it runs dry and ending only once the queue has been closed *and*
/// drained.
pub struct LiveSpout {
    queue: std::sync::Arc<LiveQueue>,
}

impl LiveSpout {
    /// A spout draining `queue`.
    pub fn new(queue: std::sync::Arc<LiveQueue>) -> LiveSpout {
        LiveSpout { queue }
    }
}

impl Spout for LiveSpout {
    fn poll(&mut self) -> SpoutPoll {
        self.queue.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::tuple;

    #[test]
    fn pops_in_order_and_idles_when_dry() {
        let q = std::sync::Arc::new(LiveQueue::new());
        q.push(LiveItem::Delta(tuple![1]));
        q.push(LiveItem::Watermark(7));
        let mut s = LiveSpout::new(std::sync::Arc::clone(&q));
        assert!(matches!(s.poll(), SpoutPoll::Tuple(_)));
        assert!(matches!(s.poll(), SpoutPoll::Watermark(7)));
        assert!(matches!(s.poll(), SpoutPoll::Idle));
        q.push(LiveItem::Delta(tuple![2]));
        assert!(matches!(s.poll(), SpoutPoll::Tuple(_)));
        q.close();
        assert!(matches!(s.poll(), SpoutPoll::Eos));
    }

    #[test]
    fn close_delivers_queued_items_first() {
        let q = std::sync::Arc::new(LiveQueue::new());
        q.push(LiveItem::Delta(tuple![1]));
        q.close();
        q.push(LiveItem::Delta(tuple![2])); // dropped: queue already closed
        let mut s = LiveSpout::new(std::sync::Arc::clone(&q));
        assert!(matches!(s.poll(), SpoutPoll::Tuple(_)));
        assert!(matches!(s.poll(), SpoutPoll::Eos));
    }
}
