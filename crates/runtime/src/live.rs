//! Live, externally-fed sources for **resident** topologies.
//!
//! A standing materialized view keeps its topology up after the initial
//! load: each source relation is backed by a [`LiveQueue`], which holds the
//! very [`SpoutPoll`] items its spout will report, pushed by an external
//! writer (the session's `append`/`retract` path) — `Tuple` deltas (the
//! tuple already carries its trailing multiplicity/epoch bookkeeping
//! columns; the live data plane is payload-agnostic), epoch `Watermark`s
//! and checkpoint `Barrier`s — and by a [`LiveSpout`] that drains the queue
//! from inside the worker pool. When the queue is empty the spout reports
//! [`SpoutPoll::Idle`] and its task parks — no Eos, no busy loop — until
//! the writer wakes it through a [`crate::executor::TaskWaker`]. Closing
//! the queue (`DROP MATERIALIZED VIEW`) turns the next poll into
//! [`SpoutPoll::Eos`], which triggers the normal flush/punctuate shutdown
//! cascade of the whole topology.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::topology::{Spout, SpoutPoll};

struct LiveState {
    queue: VecDeque<SpoutPoll<'static>>,
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
    pub fn push(&self, item: SpoutPoll<'static>) {
        self.push_all([item]);
    }

    /// Queue a round of items, in order, under one lock.
    pub fn push_all(&self, items: impl IntoIterator<Item = SpoutPoll<'static>>) {
        let mut inner = self.inner.lock().expect("live queue poisoned");
        if !inner.closed {
            inner.queue.extend(items);
        }
    }

    /// Close the queue: the spout's next empty poll returns Eos and the
    /// resident topology begins its normal shutdown cascade. Items already
    /// queued are still delivered first.
    pub fn close(&self) {
        self.inner.lock().expect("live queue poisoned").closed = true;
    }

    fn pop(&self) -> SpoutPoll<'static> {
        let mut inner = self.inner.lock().expect("live queue poisoned");
        let dry = if inner.closed { SpoutPoll::Eos } else { SpoutPoll::Idle };
        inner.queue.pop_front().unwrap_or(dry)
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
    fn poll(&mut self) -> SpoutPoll<'_> {
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
        q.push(SpoutPoll::Tuple(tuple![1]));
        q.push(SpoutPoll::Watermark(7));
        let mut s = LiveSpout::new(std::sync::Arc::clone(&q));
        assert!(matches!(s.poll(), SpoutPoll::Tuple(_)));
        assert!(matches!(s.poll(), SpoutPoll::Watermark(7)));
        assert!(matches!(s.poll(), SpoutPoll::Idle));
        q.push(SpoutPoll::Tuple(tuple![2]));
        assert!(matches!(s.poll(), SpoutPoll::Tuple(_)));
        q.close();
        assert!(matches!(s.poll(), SpoutPoll::Eos));
    }

    #[test]
    fn close_delivers_queued_items_first() {
        let q = std::sync::Arc::new(LiveQueue::new());
        q.push(SpoutPoll::Tuple(tuple![1]));
        q.close();
        q.push(SpoutPoll::Tuple(tuple![2])); // dropped: queue already closed
        let mut s = LiveSpout::new(std::sync::Arc::clone(&q));
        assert!(matches!(s.poll(), SpoutPoll::Tuple(_)));
        assert!(matches!(s.poll(), SpoutPoll::Eos));
    }
}
