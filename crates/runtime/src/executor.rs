//! Pooled cooperative execution of a topology.
//!
//! Each task (the paper's "machine") is a *pollable state machine* — a
//! `TaskCell` holding its inbox, its operator state (spout or bolt) and
//! its scatter buffers — scheduled cooperatively onto a **fixed pool of
//! worker threads**. Workers pull runnable task ids from their own deque
//! first, then from a shared injector, then *steal* from the other
//! workers' deques, so `machines ≫ cores` oversubscription costs queue
//! entries rather than OS threads: a topology with hundreds of tasks runs
//! on `worker_threads` threads, period.
//!
//! The shared-nothing model is preserved exactly: a task's operator state
//! is owned by its cell and only ever touched by the single worker that
//! holds the cell's poll lock (the task state machine guarantees at most
//! one worker polls a task at a time), and tasks communicate only through
//! their inboxes.
//!
//! ## Data plane
//! Messages are **batched**: emitters scatter routed tuples into
//! per-target buffers and flush one [`Message::Batch`] per `batch_size`
//! tuples (or on punctuation). Routing stays per-tuple — the same
//! `(sender_task, seq, tuple)` determinism as before, so loads are
//! independent of the batch size — but the queue/scheduling cost is paid
//! once per batch. There is *no* batch barrier: a batch ships the moment
//! it fills, keeping the pipeline latency argument of §8.1 intact.
//!
//! ## Backpressure by yielding
//! There is one queue on the data plane, `GateQueue`: a bolt task's
//! inbox holds [`Message`]s, a peer link's egress queue (see
//! [`crate::transport`]) holds frames, and both gate their producers the
//! same way. The capacity is soft and measured in items. A sender whose
//! flush pushes a queue over capacity does not block its worker thread: it
//! registers itself on that queue's waiter list and *parks* (returns
//! control to the scheduler). When the consumer drains the queue back to
//! capacity it wakes the registered senders. A parked task consumes no
//! worker; the pool keeps running everything else.
//!
//! ## Scheduling states
//! Every task carries one atomic state: `Idle` (parked, not queued),
//! `Queued` (in some run queue), `Running`, `Notified` (woken *while*
//! running — repoll after the current poll) and `Done`. Wakeups are a
//! single CAS; the `Running → Idle` transition re-checks for a concurrent
//! `Notified` so wakeups are never lost.
//!
//! ## Termination
//! Sources are bounded streams; when a spout is exhausted it flushes its
//! buffers and punctuates all downstream tasks with `Eos`. A bolt task
//! finishes once it has received one `Eos` from every upstream task, then
//! runs `Bolt::finish` and punctuates its own downstreams. The topology is
//! a DAG, so this terminates; when the last task completes, the workers
//! exit.
//!
//! ## Failures
//! A task that returns an error (e.g. [`SquallError::MemoryOverflow`] when
//! a skewed Hash-Hypercube machine exceeds its budget, §7.3) records the
//! error, raises a global abort flag and keeps *draining* its input so
//! upstream tasks can terminate. Spouts stop producing when they observe
//! the flag. The run returns the partial outputs, the metrics accumulated
//! so far and the error — exactly what the paper's "extrapolate from
//! tuples processed before running out of memory" methodology needs. A
//! panicking operator is caught at the poll boundary, reported as a
//! runtime error, and its task still punctuates downstream so nothing
//! hangs.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use squall_common::{SquallError, Tuple};

use crate::message::{Message, NodeId};
use crate::metrics::{MetricsRegistry, MetricsSnapshot, SchedCounters};
use crate::topology::{EdgeOut, NodeKind, OutputCollector, Spout, SpoutPoll, Topology};
use crate::transport::{
    spawn_cluster, ClusterLinks, ClusterRun, ClusterWiring, LocalTransport, Placement,
    TcpTransport, Transport,
};

/// Index of a task in the pool (dense over all `(node, task)` pairs).
/// Under a cluster placement the id space is global: every peer numbers
/// the same topology identically and hosts only its assigned slice.
pub type TaskId = usize;

/// Tuples a task may process/emit per poll before it must yield. Scaled
/// with the batch size so one poll amortizes a few flushes, clamped so
/// neither tiny nor huge batches destroy fairness or throughput.
fn poll_budget(batch_size: usize) -> usize {
    (batch_size * 8).clamp(256, 16_384)
}

// ---------------------------------------------------------------------
// Task state machine
// ---------------------------------------------------------------------

const IDLE: u8 = 0; // parked; needs a notify to run again
const QUEUED: u8 = 1; // sitting in a run queue
const RUNNING: u8 = 2; // a worker is polling it
const NOTIFIED: u8 = 3; // running, and woken meanwhile → repoll
const DONE: u8 = 4; // finished; never runs again

/// What a poll of a task concluded.
enum Poll {
    /// Budget exhausted but still runnable — requeue immediately.
    Yield,
    /// Nothing to do until woken (inbox empty, or registered on a full
    /// downstream inbox) — park.
    Park,
    /// The task completed (Eos propagated) — never poll again.
    Done,
}

// ---------------------------------------------------------------------
// The gate queue: bounded-by-yield MPSC
// ---------------------------------------------------------------------

struct GateInner<T> {
    queue: VecDeque<T>,
    /// Sender tasks parked until this queue drains back to capacity.
    waiting_senders: Vec<TaskId>,
    /// The consumer is blocked in [`GateQueue::pop_wait`] (so `push` only
    /// pays for a condvar wakeup when somebody is listening).
    consumer_waiting: bool,
    /// The consumer died without draining (operator panic): the capacity
    /// gate is permanently open so senders can never park on a queue
    /// nobody will ever pop.
    closed: bool,
}

/// The one queue of the data plane (module docs, "Backpressure by
/// yielding"). Pushes never block, so punctuation and abort-draining can
/// always make progress. The single consumer either polls
/// ([`GateQueue::pop`], a task) or blocks with a timeout
/// ([`GateQueue::pop_wait`], a pump thread).
pub(crate) struct GateQueue<T> {
    inner: Mutex<GateInner<T>>,
    cv: Condvar,
    /// Items currently queued (mirror of `queue.len()` for lock-free gate
    /// checks by senders).
    len: AtomicUsize,
    capacity: usize,
}

/// A task's input queue.
pub(crate) type Inbox = GateQueue<Message>;

impl<T> GateQueue<T> {
    pub(crate) fn new(capacity: usize) -> GateQueue<T> {
        assert!(capacity > 0);
        GateQueue {
            inner: Mutex::new(GateInner {
                queue: VecDeque::new(),
                waiting_senders: Vec::new(),
                consumer_waiting: false,
                closed: false,
            }),
            cv: Condvar::new(),
            len: AtomicUsize::new(0),
            capacity,
        }
    }

    /// Queue an item; returns the new depth. Never blocks.
    pub(crate) fn push(&self, item: T) -> usize {
        let mut inner = self.inner.lock().expect("gate queue poisoned");
        inner.queue.push_back(item);
        let depth = inner.queue.len();
        self.len.store(depth, Ordering::Release);
        if inner.consumer_waiting {
            self.cv.notify_one();
        }
        depth
    }

    /// True when the queue is over its soft capacity (senders should park).
    pub(crate) fn over_capacity(&self) -> bool {
        self.len.load(Ordering::Acquire) > self.capacity
    }

    /// Register `sender` to be woken when this queue drains, *if* it is
    /// still over capacity (checked under the lock so a concurrent drain
    /// cannot strand the sender). Returns whether it registered. A closed
    /// queue never registers anyone.
    pub(crate) fn register_waiter(&self, sender: TaskId) -> bool {
        let mut inner = self.inner.lock().expect("gate queue poisoned");
        if inner.closed || inner.queue.len() <= self.capacity {
            return false;
        }
        if !inner.waiting_senders.contains(&sender) {
            inner.waiting_senders.push(sender);
        }
        true
    }

    /// Permanently open the capacity gate (the consumer died without
    /// draining) and hand back every parked sender for the caller to wake.
    pub(crate) fn close(&self) -> Vec<TaskId> {
        let mut inner = self.inner.lock().expect("gate queue poisoned");
        inner.closed = true;
        std::mem::take(&mut inner.waiting_senders)
    }

    /// Dequeue one item without waiting. When the pop brings the depth
    /// back to capacity, the parked senders are drained into `wake` for
    /// the caller to notify (outside the lock).
    pub(crate) fn pop(&self, wake: &mut Vec<TaskId>) -> Option<T> {
        self.pop_wait(Duration::ZERO, wake)
    }

    /// [`GateQueue::pop`], waiting up to `timeout` for an item to arrive.
    pub(crate) fn pop_wait(&self, timeout: Duration, wake: &mut Vec<TaskId>) -> Option<T> {
        let mut inner = self.inner.lock().expect("gate queue poisoned");
        if inner.queue.is_empty() && !timeout.is_zero() {
            inner.consumer_waiting = true;
            inner = self.cv.wait_timeout(inner, timeout).expect("gate queue poisoned").0;
            inner.consumer_waiting = false;
        }
        let item = inner.queue.pop_front()?;
        let depth = inner.queue.len();
        self.len.store(depth, Ordering::Release);
        if depth <= self.capacity && !inner.waiting_senders.is_empty() {
            wake.append(&mut inner.waiting_senders);
        }
        Some(item)
    }
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

std::thread_local! {
    /// The pool-local index of the current worker thread, if this thread
    /// is one. Wakeups issued from a worker land on its own deque (cache
    /// locality); wakeups from outside go to the shared injector. A worker
    /// thread only ever schedules tasks of its own pool, so a plain
    /// thread-local is unambiguous.
    static WORKER_INDEX: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The scheduler core shared by workers, task cells and output collectors.
/// Deliberately does *not* own the task cells (collectors hold an
/// `Arc<Sched>`, cells hold collectors — owning the cells here would cycle
/// the `Arc`s and leak every run).
pub(crate) struct Sched {
    states: Vec<AtomicU8>,
    injector: Mutex<VecDeque<TaskId>>,
    /// One local run queue per worker; owners pop the front, thieves pop
    /// the back.
    deques: Vec<Mutex<VecDeque<TaskId>>>,
    /// Tasks not yet `Done`; workers exit when this reaches zero.
    remaining: AtomicUsize,
    /// Workers currently parked on `idle_cv`.
    sleepers: AtomicUsize,
    idle_mx: Mutex<()>,
    idle_cv: Condvar,
    counters: Arc<SchedCounters>,
}

impl Sched {
    /// `local` is the set of task ids this process hosts: they start
    /// queued; everything else is born `Done` (it lives on another peer —
    /// a stray wakeup for it is a no-op).
    pub(crate) fn new(
        n_tasks: usize,
        n_workers: usize,
        counters: Arc<SchedCounters>,
        local: &[TaskId],
    ) -> Sched {
        let states: Vec<AtomicU8> = (0..n_tasks).map(|_| AtomicU8::new(DONE)).collect();
        for &t in local {
            states[t].store(QUEUED, Ordering::Relaxed);
        }
        Sched {
            states,
            injector: Mutex::new(local.iter().copied().collect()),
            deques: (0..n_workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            remaining: AtomicUsize::new(local.len()),
            sleepers: AtomicUsize::new(0),
            idle_mx: Mutex::new(()),
            idle_cv: Condvar::new(),
            counters,
        }
    }

    /// Wake a task: queue it if parked, or flag a repoll if it is being
    /// polled right now. Idempotent and lock-free in the common case.
    pub(crate) fn notify(&self, task: TaskId) {
        loop {
            match self.states[task].load(Ordering::Acquire) {
                IDLE => {
                    if self.states[task]
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.push_runnable(task);
                        return;
                    }
                }
                RUNNING => {
                    if self.states[task]
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                QUEUED | NOTIFIED | DONE => return,
                other => unreachable!("task state {other}"),
            }
        }
    }

    fn push_runnable(&self, task: TaskId) {
        match WORKER_INDEX.with(|w| w.get()) {
            Some(me) if me < self.deques.len() => {
                self.deques[me].lock().expect("deque poisoned").push_back(task);
            }
            _ => self.injector.lock().expect("injector poisoned").push_back(task),
        }
        // SeqCst pairs with `park`'s registration: either this load sees
        // the sleeper, or the sleeper's re-check sees the task just queued.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.idle_mx.lock().expect("idle mutex poisoned");
            self.idle_cv.notify_one();
        }
    }

    /// Idle worker `me` sleeps until a wakeup (the eventcount pattern):
    /// register as a sleeper first, then re-check the queues under
    /// `idle_mx`, and only then wait — so a task pushed after the caller
    /// found nothing is either seen here or signalled to the wait. The wait
    /// is timed all the same: a backstop that costs a tick, never a hang.
    fn park(&self, me: usize) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let guard = self.idle_mx.lock().expect("idle mutex poisoned");
        let queued = !self.deques[me].lock().expect("deque poisoned").is_empty()
            || !self.injector.lock().expect("injector poisoned").is_empty();
        if !queued && !self.all_done() {
            let _ = self
                .idle_cv
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("idle cv poisoned");
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Next runnable task for worker `me`: own deque front → injector →
    /// steal the back of a sibling's deque.
    fn next_task(&self, me: usize) -> Option<TaskId> {
        if let Some(t) = self.deques[me].lock().expect("deque poisoned").pop_front() {
            return Some(t);
        }
        if let Some(t) = self.injector.lock().expect("injector poisoned").pop_front() {
            return Some(t);
        }
        for off in 1..self.deques.len() {
            let victim = (me + off) % self.deques.len();
            if let Ok(mut dq) = self.deques[victim].try_lock() {
                if let Some(t) = dq.pop_back() {
                    self.counters.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
            }
        }
        None
    }

    fn all_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Record an observed inbox depth (messages) for the queue-pressure
    /// metric. Every send calls this, so only a new high writes the shared
    /// cache line.
    pub(crate) fn record_depth(&self, depth: usize) {
        let max = &self.counters.max_queue_depth;
        if depth as u64 > max.load(Ordering::Relaxed) {
            max.fetch_max(depth as u64, Ordering::Relaxed);
        }
    }

    /// Record one backpressure park (a poll ended on a full downstream).
    pub(crate) fn record_blocked(&self) {
        self.counters.blocked.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Task cells
// ---------------------------------------------------------------------

/// The operator half of a task cell.
enum OperatorState {
    Spout(Box<dyn Spout>),
    Bolt(BoltState),
}

struct BoltState {
    bolt: Box<dyn crate::topology::Bolt>,
    inbox: Arc<Inbox>,
    expected_eos: usize,
    eos_seen: usize,
    /// Checkpoint barriers seen per epoch; a bolt *aligns* on an epoch
    /// once it has one barrier per upstream task (the same count as
    /// `expected_eos`), then snapshots and forwards it.
    barriers: BTreeMap<u64, usize>,
    /// The bolt errored; keep draining, stop executing.
    failed: bool,
}

/// One topology task as a pollable state machine: operator state, inbox
/// (bolts), scatter-buffered output, and its cooperative budget.
pub(crate) struct TaskCell {
    id: TaskId,
    op: OperatorState,
    out: OutputCollector,
    budget: usize,
    shared: Arc<Shared>,
}

impl TaskCell {
    /// Run until budget exhaustion, inbox exhaustion, a full downstream,
    /// or completion. Invoked by exactly one worker at a time.
    fn poll(&mut self, sched: &Sched) -> Poll {
        // A task woken after parking on a full downstream re-checks its
        // gates first: if any are still full it re-registers and parks
        // again (the wake may have been for one of several full targets).
        if self.out.park_if_gated(self.id) {
            return Poll::Park;
        }
        match &mut self.op {
            OperatorState::Spout(spout) => {
                Self::poll_spout(spout, &mut self.out, self.id, self.budget, &self.shared)
            }
            OperatorState::Bolt(b) => {
                Self::poll_bolt(b, &mut self.out, self.id, self.budget, &self.shared, sched)
            }
        }
    }

    fn poll_spout(
        spout: &mut Box<dyn Spout>,
        out: &mut OutputCollector,
        id: TaskId,
        budget: usize,
        shared: &Shared,
    ) -> Poll {
        let mut produced = 0usize;
        loop {
            if shared.abort.load(Ordering::Relaxed) {
                out.flush_and_punctuate();
                return Poll::Done;
            }
            match spout.poll() {
                SpoutPoll::Row(row) => out.emit_row(row),
                SpoutPoll::Watermark(ts) => out.emit_watermark(ts),
                SpoutPoll::Barrier(epoch) => out.emit_barrier(epoch),
                SpoutPoll::Idle => {
                    // Resident source with nothing pending: ship any
                    // half-full batches so no delta waits on a sleeping
                    // task, then park until a writer wakes us. (If the
                    // flush overfilled a downstream, also register on its
                    // waiter list — parking is correct either way.)
                    out.flush_all(None);
                    let _ = out.park_if_gated(id);
                    return Poll::Park;
                }
                SpoutPoll::Eos => {
                    out.flush_and_punctuate();
                    return Poll::Done;
                }
            }
            produced += 1;
            if out.park_if_gated(id) {
                return Poll::Park;
            }
            if produced >= budget {
                return Poll::Yield;
            }
        }
    }

    fn poll_bolt(
        b: &mut BoltState,
        out: &mut OutputCollector,
        id: TaskId,
        budget: usize,
        shared: &Shared,
        sched: &Sched,
    ) -> Poll {
        let mut processed = 0usize;
        let mut wake = Vec::new();
        loop {
            let msg = b.inbox.pop(&mut wake);
            for w in wake.drain(..) {
                sched.notify(w);
            }
            let Some(msg) = msg else {
                // With all punctuation in, the stream is complete (the
                // inbox is a single FIFO, so every data message preceded
                // the final Eos).
                if b.eos_seen >= b.expected_eos {
                    Self::finish_bolt(b, out, shared);
                    return Poll::Done;
                }
                return Poll::Park; // woken by the next push
            };
            // A failed or aborted task drains and discards, so upstreams
            // still terminate.
            let live = !b.failed && !shared.abort.load(Ordering::Relaxed);
            let mut result = Ok(());
            match msg {
                Message::Batch { origin, chunk } => {
                    out.counters().received.fetch_add(chunk.n_rows() as u64, Ordering::Relaxed);
                    processed += chunk.n_rows();
                    if live {
                        result = b.bolt.execute_chunk(origin, &chunk, out);
                    }
                }
                Message::Watermark { origin, from_task, ts } => {
                    processed += 1;
                    if live {
                        result = b.bolt.watermark(origin, from_task, ts, out);
                    }
                }
                Message::Barrier { epoch } => {
                    processed += 1;
                    let seen = b.barriers.entry(epoch).or_insert(0);
                    *seen += 1;
                    if *seen >= b.expected_eos {
                        // Aligned: one barrier per upstream task is in, so
                        // every delta of an epoch ≤ `epoch` has arrived.
                        b.barriers.remove(&epoch);
                        if live {
                            result = b.bolt.barrier(epoch, out);
                        }
                        shared.epoch.fetch_max(epoch, Ordering::Relaxed);
                    }
                }
                Message::Eos => {
                    b.eos_seen += 1;
                    continue; // the last one leaves the inbox empty: finished above
                }
            }
            if let Err(e) = result {
                shared.raise(e);
                b.failed = true;
            }
            if out.park_if_gated(id) {
                return Poll::Park;
            }
            if processed >= budget {
                return Poll::Yield;
            }
        }
    }

    /// Poison cleanup after an operator panic: this task will never poll
    /// again, so its inbox (if any) must stop gating senders — otherwise
    /// an upstream parked on it would wait forever. Returns the senders to
    /// wake.
    fn poison(&mut self) -> Vec<TaskId> {
        match &self.op {
            OperatorState::Spout(_) => Vec::new(),
            OperatorState::Bolt(b) => b.inbox.close(),
        }
    }

    fn finish_bolt(b: &mut BoltState, out: &mut OutputCollector, shared: &Shared) {
        if !b.failed && !shared.abort.load(Ordering::Relaxed) {
            if let Err(e) = b.bolt.finish(out) {
                shared.raise(e);
            }
        }
        out.flush_and_punctuate();
    }
}

// ---------------------------------------------------------------------
// Run bookkeeping
// ---------------------------------------------------------------------

pub(crate) struct Shared {
    pub(crate) abort: AtomicBool,
    /// Highest checkpoint epoch any local bolt has aligned on. Heartbeat
    /// frames advertise this so a coordinator learning of a peer's death
    /// knows the last epoch it was seen alive at.
    pub(crate) epoch: AtomicU64,
    error: Mutex<Option<SquallError>>,
    finished_at: Mutex<Option<Instant>>,
}

impl Shared {
    pub(crate) fn new() -> Shared {
        Shared {
            abort: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            error: Mutex::new(None),
            finished_at: Mutex::new(None),
        }
    }

    pub(crate) fn raise(&self, e: SquallError) {
        let mut slot = self.error.lock().expect("error slot poisoned");
        if slot.is_none() {
            *slot = Some(e);
        }
        self.abort.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    pub(crate) fn error_clone(&self) -> Option<SquallError> {
        self.error.lock().expect("error slot poisoned").clone()
    }
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct RunOutcome {
    /// Tuples emitted by sink nodes, tagged with the emitting node.
    pub outputs: Vec<(NodeId, Tuple)>,
    /// Frozen per-task counters.
    pub metrics: MetricsSnapshot,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// First error raised by any task, if the run aborted.
    pub error: Option<SquallError>,
}

impl RunOutcome {
    /// Output tuples without node tags (single-sink convenience). Clones;
    /// prefer [`RunOutcome::into_tuples`] when the outcome is no longer
    /// needed.
    pub fn tuples(&self) -> Vec<Tuple> {
        self.outputs.iter().map(|(_, t)| t.clone()).collect()
    }

    /// Consume the outcome into its output tuples, without cloning.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.outputs.into_iter().map(|(_, t)| t).collect()
    }
}

/// A topology that has been launched but not yet joined: the worker pool
/// is running and sink emissions can be consumed *while it runs* via
/// [`RunHandle::recv`]. [`RunHandle::finish`] waits for completion;
/// dropping the handle instead aborts the run and then waits, so an
/// abandoned handle never leaks running workers. The sink channel is
/// unbounded, so an unconsumed handle never deadlocks the pool.
pub struct RunHandle {
    sink_rx: Receiver<(NodeId, Tuple)>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<MetricsRegistry>,
    shared: Arc<Shared>,
    sched: Arc<Sched>,
    start: Instant,
}

/// A cheap, clonable handle that can wake parked tasks of a launched
/// topology from *outside* the worker pool. This is how resident
/// topologies (standing materialized views) are driven: a writer pushes
/// deltas into a spout's live queue, then wakes that spout task so it
/// polls again. Waking a running, queued or finished task is a no-op.
#[derive(Clone)]
pub struct TaskWaker {
    sched: Arc<Sched>,
}

impl TaskWaker {
    /// Wake task `id` (dense over `(node, task)` pairs, same numbering as
    /// the topology layout). Idempotent.
    pub fn wake(&self, id: TaskId) {
        self.sched.notify(id);
    }
}

impl RunHandle {
    /// Next sink emission, blocking until one arrives; `None` once every
    /// sink task has finished. This is the streaming face of the runtime.
    pub fn recv(&mut self) -> Option<(NodeId, Tuple)> {
        self.sink_rx.recv().ok()
    }

    /// Number of OS threads executing the topology (the worker pool size —
    /// *not* the task count).
    #[cfg(test)]
    fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Abort the run: spouts stop at their next poll, in-flight tuples are
    /// drained and discarded. Already-produced sink output remains
    /// readable.
    pub fn abort(&self) {
        self.shared.abort.store(true, Ordering::SeqCst);
    }

    /// A clonable waker for this run's tasks (see [`TaskWaker`]).
    pub fn waker(&self) -> TaskWaker {
        TaskWaker { sched: Arc::clone(&self.sched) }
    }

    /// Has any task raised an error (or has the run been aborted)?
    pub fn is_aborted(&self) -> bool {
        self.shared.is_aborted()
    }

    /// The first error raised by any task so far, if any. Unlike
    /// [`RunHandle::finish`] this does not consume the handle — resident
    /// topologies use it to surface failures while staying up.
    pub fn error(&self) -> Option<SquallError> {
        self.shared.error_clone()
    }

    /// A live snapshot of the per-task counters (the run keeps going).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Wait for all tasks, collecting any unconsumed sink output, and
    /// report metrics, timing and the first error (if any).
    pub fn finish(mut self) -> RunOutcome {
        let mut outputs = Vec::new();
        while let Some(item) = self.recv() {
            outputs.push(item);
        }
        for h in self.workers.drain(..) {
            // Worker bodies catch operator panics; a panicking worker is
            // an executor bug but must still not hang the caller.
            if h.join().is_err() {
                self.shared.raise(SquallError::Runtime("worker panicked".into()));
            }
        }
        // Engine wall-clock: until the last task completed, not until the
        // consumer finished draining the sink.
        let finished = self
            .shared
            .finished_at
            .lock()
            .expect("finish stamp poisoned")
            .take()
            .unwrap_or_else(Instant::now);
        let elapsed = finished.duration_since(self.start);
        // Cloned, not taken: a cluster link's send pump may not have shipped
        // the abort yet, and must ship this typed error, not an untyped one.
        let error = self.shared.error_clone();
        RunOutcome { outputs, metrics: self.registry.snapshot(), elapsed, error }
    }
}

impl Drop for RunHandle {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // finished via finish
        }
        self.abort();
        while self.sink_rx.recv().is_ok() {}
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Launch
// ---------------------------------------------------------------------

/// The worker pool's view of the run: scheduler + the task cells it polls.
/// Workers own an `Arc<Pool>`; cells are dropped the moment their task
/// completes, which is also what closes the sink channel (each cell's
/// collector holds a sink sender clone).
struct Pool {
    sched: Arc<Sched>,
    cells: Vec<Mutex<Option<TaskCell>>>,
}

impl Topology {
    /// Execute the topology to completion and collect sink output, metrics
    /// and timing: [`Topology::launch`], then [`RunHandle::finish`].
    pub fn run(self) -> RunOutcome {
        self.launch().finish()
    }

    /// Start the worker pool and return a [`RunHandle`] that streams the
    /// sink output as it is produced. Spawns exactly
    /// `min(worker_threads, total tasks)` OS threads regardless of the
    /// topology's task count.
    pub fn launch(self) -> RunHandle {
        self.launch_parts(None).0
    }

    /// Launch this process's slice of a **distributed** topology: only the
    /// tasks the [`Placement`] assigns to `links.me` are hosted on the
    /// local worker pool; edges whose target lives on another peer are
    /// bridged through the [`crate::transport::TcpTransport`] over the
    /// established `links`. Finish the [`RunHandle`] first (joining the
    /// local pool), then the [`ClusterRun`] (draining and closing the
    /// links, collecting remote metrics).
    pub fn launch_cluster(
        self,
        placement: Placement,
        links: ClusterLinks,
    ) -> (RunHandle, ClusterRun) {
        let (handle, cluster) = self.launch_parts(Some((placement, links)));
        (handle, cluster.expect("cluster launch yields a ClusterRun"))
    }

    fn launch_parts(
        self,
        cluster: Option<(Placement, ClusterLinks)>,
    ) -> (RunHandle, Option<ClusterRun>) {
        let n_nodes = self.nodes.len();
        let names: Vec<String> = self.nodes.iter().map(|n| n.name.clone()).collect();
        let parallelism: Vec<usize> = self.nodes.iter().map(|n| n.parallelism).collect();
        let registry = Arc::new(MetricsRegistry::new(names, &parallelism));
        let total_tasks: usize = parallelism.iter().sum();
        let me = cluster.as_ref().map_or(0, |(_, links)| links.me);
        let peer_of = cluster.as_ref().map(|(p, _)| p.peer_of_task.clone());
        let is_local = |id: TaskId| peer_of.as_ref().is_none_or(|peers| peers[id] == me);
        let local_ids: Vec<TaskId> = (0..total_tasks).filter(|&t| is_local(t)).collect();
        let n_workers = self
            .worker_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
            .clamp(1, local_ids.len().max(1));
        registry.sched().workers.store(n_workers as u64, Ordering::Relaxed);
        let batch_size = self.batch_size.max(1);
        let budget = poll_budget(batch_size);

        let shared = Arc::new(Shared::new());

        // Dense task ids: tasks of node 0, then node 1, …
        let mut first_task: Vec<TaskId> = Vec::with_capacity(n_nodes);
        {
            let mut off = 0;
            for &p in &parallelism {
                first_task.push(off);
                off += p;
            }
        }

        // One inbox per *local* bolt task, dense over the global id space.
        let mut inboxes: Vec<Option<Arc<Inbox>>> = Vec::with_capacity(total_tasks);
        for (node_id, node) in self.nodes.iter().enumerate() {
            for task in 0..node.parallelism {
                let id = first_task[node_id] + task;
                inboxes.push(match node.kind {
                    NodeKind::Bolt(_) if is_local(id) => {
                        Some(Arc::new(Inbox::new(self.channel_capacity)))
                    }
                    _ => None,
                });
            }
        }

        let (sink_tx, sink_rx) = channel::<(NodeId, Tuple)>();

        // Expected EOS per node = total upstream tasks — a *global* count:
        // remote upstreams punctuate over the wire, so termination counts
        // are identical to a single-process run.
        let expected_eos: Vec<usize> = (0..n_nodes)
            .map(|i| self.edges.iter().filter(|e| e.to == i).map(|e| parallelism[e.from]).sum())
            .collect();

        let sched = Arc::new(Sched::new(total_tasks, n_workers, registry.sched(), &local_ids));
        if local_ids.is_empty() {
            // Nothing to run here (more peers than tasks): the pool is
            // born finished.
            *shared.finished_at.lock().expect("finish stamp poisoned") = Some(Instant::now());
        }

        // The transport: in-process inbox pushes, or the TCP data plane
        // bridging remote edges.
        let (tcp, cluster_run): (Option<Arc<TcpTransport>>, Option<ClusterRun>) = match cluster {
            None => (None, None),
            Some((placement, links)) => {
                // Per peer: the punctuation its tasks owe our local tasks
                // (used to fail fast, not hang, if that peer crashes).
                let n_peers = placement.n_peers;
                let mut eos_owed: Vec<Vec<(TaskId, usize)>> = vec![Vec::new(); n_peers];
                for e in &self.edges {
                    let mut senders_per_peer = vec![0usize; n_peers];
                    for t in 0..parallelism[e.from] {
                        let peers = peer_of.as_ref().expect("cluster placement");
                        senders_per_peer[peers[first_task[e.from] + t]] += 1;
                    }
                    for t in 0..parallelism[e.to] {
                        let id = first_task[e.to] + t;
                        if !is_local(id) {
                            continue;
                        }
                        for (p, &cnt) in senders_per_peer.iter().enumerate() {
                            if p != me && cnt > 0 {
                                eos_owed[p].push((id, cnt));
                            }
                        }
                    }
                }
                let wiring = ClusterWiring {
                    inboxes: inboxes.clone(),
                    sched: Arc::clone(&sched),
                    shared: Arc::clone(&shared),
                    sink_tx: sink_tx.clone(),
                    channel_capacity: self.channel_capacity,
                    eos_owed,
                };
                let (transport, run) = spawn_cluster(links, &placement, wiring);
                (Some(transport), Some(run))
            }
        };
        let transport: Arc<dyn Transport> = match &tcp {
            None => Arc::new(LocalTransport::new(inboxes.clone(), Arc::clone(&sched))),
            Some(tcp) => Arc::clone(tcp) as Arc<dyn Transport>,
        };

        let start = Instant::now();
        let mut cells: Vec<Mutex<Option<TaskCell>>> = Vec::with_capacity(total_tasks);
        for (node_id, node) in self.nodes.into_iter().enumerate() {
            for task in 0..node.parallelism {
                let id = first_task[node_id] + task;
                if !is_local(id) {
                    cells.push(Mutex::new(None));
                    continue;
                }
                // A remote peer hosting several targets of an edge gets one
                // fan-out buffer, decided here once: in-process there is none.
                let edges: Vec<EdgeOut> = self
                    .edges
                    .iter()
                    .filter(|e| e.from == node_id)
                    .map(|e| {
                        let (first, n) = (first_task[e.to], parallelism[e.to]);
                        let fanouts =
                            tcp.as_ref().map_or_else(Vec::new, |t| t.fanouts(node_id, first, n));
                        EdgeOut::new(e.grouping.clone(), first, n, fanouts)
                    })
                    .collect();
                let counters = registry.task(node_id, task);
                let out = OutputCollector::new(
                    node_id,
                    task,
                    edges,
                    sink_tx.clone(),
                    counters,
                    batch_size,
                    Arc::clone(&sched),
                    Arc::clone(&transport),
                );
                let op = match &node.kind {
                    NodeKind::Spout(factory) => OperatorState::Spout(factory(task)),
                    NodeKind::Bolt(factory) => OperatorState::Bolt(BoltState {
                        bolt: factory(task),
                        inbox: Arc::clone(inboxes[id].as_ref().expect("bolt inbox")),
                        expected_eos: expected_eos[node_id],
                        eos_seen: 0,
                        barriers: BTreeMap::new(),
                        failed: false,
                    }),
                };
                cells.push(Mutex::new(Some(TaskCell {
                    id,
                    op,
                    out,
                    budget,
                    shared: Arc::clone(&shared),
                })));
            }
        }
        drop(sink_tx); // cells (and coordinator recv pumps) hold the rest

        let pool = Arc::new(Pool { sched: Arc::clone(&sched), cells });
        let workers = (0..n_workers)
            .map(|w| {
                let pool = Arc::clone(&pool);
                let shared = Arc::clone(&shared);
                let counters = registry.sched();
                std::thread::Builder::new()
                    .name(format!("squall-worker-{w}"))
                    .spawn(move || worker_loop(w, &pool, &shared, &counters))
                    .expect("spawn worker")
            })
            .collect();

        (RunHandle { sink_rx, workers, registry, shared, sched, start }, cluster_run)
    }
}

fn worker_loop(me: usize, pool: &Pool, shared: &Shared, counters: &SchedCounters) {
    WORKER_INDEX.with(|w| w.set(Some(me)));
    let sched = &*pool.sched;
    loop {
        match sched.next_task(me) {
            Some(task) => run_task(task, pool, shared, counters),
            None if sched.all_done() => break,
            None => sched.park(me),
        }
    }
    WORKER_INDEX.with(|w| w.set(None));
}

fn run_task(task: TaskId, pool: &Pool, shared: &Shared, counters: &SchedCounters) {
    let sched = &*pool.sched;
    sched.states[task].store(RUNNING, Ordering::Release);
    let mut slot = pool.cells[task].lock().expect("task cell poisoned");
    let Some(cell) = slot.as_mut() else {
        // Stale queue entry for a completed task (cannot happen through
        // the state machine, but harmless).
        sched.states[task].store(DONE, Ordering::Release);
        return;
    };
    let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cell.poll(sched)));
    let outcome = match polled {
        Ok(p) => p,
        Err(_) => {
            // Operator panic: report, abort the run, unblock any senders
            // parked on this task's now-dead inbox, and still punctuate
            // downstream so consumers terminate.
            shared.raise(SquallError::Runtime("task panicked".into()));
            for sender in cell.poison() {
                sched.notify(sender);
            }
            cell.out.flush_and_punctuate();
            Poll::Done
        }
    };
    match outcome {
        Poll::Done => {
            *slot = None; // drops operator state + the sink sender clone
            drop(slot);
            sched.states[task].store(DONE, Ordering::Release);
            if sched.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                *shared.finished_at.lock().expect("finish stamp poisoned") = Some(Instant::now());
                let _g = sched.idle_mx.lock().expect("idle mutex poisoned");
                sched.idle_cv.notify_all();
            }
        }
        Poll::Yield => {
            drop(slot);
            counters.yields.fetch_add(1, Ordering::Relaxed);
            sched.states[task].store(QUEUED, Ordering::Release);
            sched.push_runnable(task);
        }
        Poll::Park => {
            drop(slot);
            // Try RUNNING → IDLE; if someone notified us mid-poll the
            // state is NOTIFIED and we must repoll instead (the wakeup
            // condition may already hold).
            if sched.states[task]
                .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                sched.states[task].store(QUEUED, Ordering::Release);
                sched.push_runnable(task);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::Grouping;
    use crate::topology::{FnBolt, TopologyBuilder};
    use squall_common::{tuple, Chunk, Result, Value};

    impl<T> GateQueue<T> {
        /// Is the consumer blocked in [`GateQueue::pop_wait`]?
        pub(crate) fn consumer_waiting(&self) -> bool {
            self.inner.lock().unwrap().consumer_waiting
        }
    }

    /// A spout over an iterator, emitting each tuple as a borrowed row.
    struct RowSpout<I>(I, Option<Tuple>);

    impl<I: Iterator<Item = Tuple> + Send> Spout for RowSpout<I> {
        fn poll(&mut self) -> SpoutPoll<'_> {
            self.1 = self.0.next();
            self.1.as_deref().map_or(SpoutPoll::Eos, SpoutPoll::Row)
        }
    }

    fn int_spout(lo: i64, hi: i64) -> impl Fn(usize) -> Box<dyn crate::topology::Spout> {
        move |_task| Box::new(RowSpout((lo..hi).map(|i| tuple![i]), None))
    }

    /// The lost wakeup: a push that lands after a worker's last empty
    /// `next_task` but before it registers as a sleeper signals nobody.
    /// Here the task is queued and nothing will ever signal; `park`'s
    /// re-check must see it instead of sleeping out its tick.
    #[test]
    fn park_sees_a_task_queued_before_it_registered() {
        let sched = Sched::new(1, 1, Arc::new(SchedCounters::default()), &[0]);
        let start = Instant::now();
        for _ in 0..200 {
            sched.park(0);
        }
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_millis(100), "200 parks took {elapsed:?}");
    }

    /// One step of a gate-queue schedule.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push,
        Pop,
        PopWait,
        Register(TaskId),
        Close,
    }

    /// Drive a `GateQueue` and a `VecDeque` model through `ops`, checking
    /// after every step that the queue is FIFO, that a sender registers
    /// only while the queue is over capacity and open, and that every
    /// registered sender is handed back exactly once — by the pop that
    /// brings the depth back to capacity, or by `close` — never stranded.
    fn check_gate_queue(capacity: usize, ops: impl IntoIterator<Item = Op>) {
        let q = GateQueue::new(capacity);
        let mut model = VecDeque::new();
        let (mut parked, mut closed, mut next) = (Vec::new(), false, 0u64);
        for op in ops {
            // What the step hands back, and what the model says it should.
            let (mut woken, mut expected) = (Vec::new(), Vec::new());
            match op {
                Op::Push => {
                    model.push_back(next);
                    assert_eq!(q.push(next), model.len());
                    next += 1;
                }
                Op::Pop | Op::PopWait => {
                    let got = match op {
                        Op::Pop => q.pop(&mut woken),
                        _ => q.pop_wait(Duration::from_micros(50), &mut woken),
                    };
                    assert_eq!(got, model.pop_front());
                    if got.is_some() && model.len() <= capacity {
                        expected = std::mem::take(&mut parked);
                    }
                }
                Op::Register(sender) => {
                    let over = !closed && model.len() > capacity;
                    assert_eq!(q.register_waiter(sender), over, "{op:?} at depth {}", model.len());
                    if over && !parked.contains(&sender) {
                        parked.push(sender);
                    }
                }
                Op::Close => {
                    closed = true;
                    woken = q.close();
                    expected = std::mem::take(&mut parked);
                }
            }
            assert_eq!(woken, expected, "{op:?} at depth {}", model.len());
            assert!(
                parked.is_empty() || (model.len() > capacity && !closed),
                "stranded {parked:?}"
            );
            assert_eq!(q.over_capacity(), model.len() > capacity);
        }
    }

    #[test]
    fn gate_queue_matches_model_on_seeded_schedules() {
        // The egress-queue script: overfill, park a sender, the pop back to
        // capacity releases it, and below capacity registration declines.
        use Op::*;
        check_gate_queue(2, [Push, Push, Push, Register(7), PopWait, Register(7)]);
        for seed in 0..200u64 {
            let mut rng = squall_common::SplitMix64::new(seed);
            let capacity = 1 + rng.next_below(4);
            // Bias towards pushes early and pops late so schedules cross the
            // capacity line in both directions; close at most once, late.
            let ops: Vec<Op> = (0..300)
                .map(|i| match rng.next_below(20) {
                    0..=7 if i < 150 => Push,
                    0..=4 => Push,
                    5..=11 => Pop,
                    12 => PopWait,
                    13 if i > 250 && seed % 3 == 0 => Close,
                    _ => Register(rng.next_below(5)),
                })
                .collect();
            check_gate_queue(capacity, ops);
        }
    }

    #[test]
    fn gate_queue_push_wakes_a_waiting_consumer() {
        let q = Arc::new(GateQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_wait(Duration::from_secs(30), &mut Vec::new()))
        };
        // Push only once the consumer is blocked (it raises the flag under
        // the lock its wait then releases), so the wakeup is what is tested.
        while !q.inner.lock().unwrap().consumer_waiting {
            std::thread::yield_now();
        }
        let start = Instant::now();
        q.push(5u64);
        assert_eq!(consumer.join().unwrap(), Some(5));
        assert!(start.elapsed() < Duration::from_secs(10), "push did not wake the consumer");
    }

    #[test]
    fn single_spout_single_bolt_pipeline() {
        let mut b = TopologyBuilder::new();
        let src = b.add_spout("src", 1, int_spout(0, 100));
        let double = b.add_bolt("double", 1, |_| {
            Box::new(FnBolt(|_o, t: Tuple, out: &mut OutputCollector| {
                let v = t.get(0).as_int()?;
                out.emit(tuple![v * 2]);
                Ok(())
            }))
        });
        b.connect(src, double, Grouping::Shuffle);
        let outcome = b.build().unwrap().run();
        assert!(outcome.error.is_none());
        let mut vals: Vec<i64> =
            outcome.outputs.iter().map(|(_, t)| t.get(0).as_int().unwrap()).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        // Metrics: bolt received all 100.
        assert_eq!(outcome.metrics.node(1).total_received(), 100);
        assert_eq!(outcome.metrics.node(0).total_emitted(), 100);
    }

    #[test]
    fn emit_row_routes_like_emit_and_splits_ragged_arity() {
        // `mid` emits rows of alternating arity through `emit_row`, so every
        // arity switch flushes the scatter buffer: twenty one-row chunks.
        // The sink node hands each row to the output by `emit` and again by
        // `emit_row`, which must deliver the same tuple.
        type Shapes = Arc<std::sync::Mutex<Vec<(usize, usize)>>>;
        struct Echo(Shapes);
        impl crate::Bolt for Echo {
            fn execute_chunk(
                &mut self,
                _origin: NodeId,
                chunk: &Chunk,
                out: &mut OutputCollector,
            ) -> Result<()> {
                self.0.lock().unwrap().push((chunk.n_rows(), chunk.n_cols()));
                for row in chunk.iter() {
                    out.emit(row.into());
                    out.emit_row(row);
                }
                Ok(())
            }
        }
        let shapes = Shapes::default();
        let mut b = TopologyBuilder::new();
        let src = b.add_spout("src", 1, int_spout(0, 20));
        let mid = b.add_bolt("mid", 1, |_| {
            Box::new(FnBolt(|_o, t: Tuple, out: &mut OutputCollector| {
                match t.get(0).as_int()? % 2 {
                    0 => out.emit_row(t.values()),
                    _ => out.emit_row(&[t.get(0).clone(), Value::str("odd")]),
                }
                Ok(())
            }))
        });
        let echo = Arc::clone(&shapes);
        let sink = b.add_bolt("sink", 1, move |_| Box::new(Echo(Arc::clone(&echo))));
        b.connect(src, mid, Grouping::Global);
        b.connect(mid, sink, Grouping::Global);
        let outcome = b.build().unwrap().run();
        assert!(outcome.error.is_none());
        let expected: Vec<Tuple> = (0..20)
            .flat_map(|v| {
                let t = if v % 2 == 0 { tuple![v] } else { tuple![v, "odd"] };
                [t.clone(), t]
            })
            .collect();
        assert_eq!(outcome.into_tuples(), expected);
        let alternating: Vec<(usize, usize)> = (0..20).map(|v| (1, 1 + v % 2)).collect();
        assert_eq!(*shapes.lock().unwrap(), alternating);
    }

    #[test]
    fn parallel_bolt_with_fields_grouping_partitions_by_key() {
        let mut b = TopologyBuilder::new();
        let src = b.add_spout("src", 2, |task| {
            let lo = task as i64 * 500;
            Box::new(RowSpout((lo..lo + 500).map(|i| tuple![i % 10, i]), None))
        });
        // Each task counts tuples per key; with Fields([0]) all tuples of a
        // key land on one task.
        let count = b.add_bolt("count", 4, |_| {
            let mut seen: Vec<(Value, i64)> = Vec::new();
            Box::new(FnBolt(move |_o, t: Tuple, out: &mut OutputCollector| {
                let k = t.get(0).clone();
                match seen.iter_mut().find(|(key, _)| *key == k) {
                    Some((_, c)) => *c += 1,
                    None => seen.push((k.clone(), 1)),
                }
                // On the 100th tuple of a key, report.
                if seen.iter().find(|(key, _)| *key == k).unwrap().1 == 100 {
                    out.emit(tuple![k.as_int()?, 100]);
                }
                Ok(())
            }))
        });
        b.connect(src, count, Grouping::Fields(vec![0]));
        let outcome = b.build().unwrap().run();
        assert!(outcome.error.is_none());
        // All 10 keys hit their 100-count exactly once.
        assert_eq!(outcome.outputs.len(), 10);
        assert_eq!(outcome.metrics.node(1).total_received(), 1000);
    }

    #[test]
    fn all_grouping_replicates_to_every_task() {
        let mut b = TopologyBuilder::new();
        let src = b.add_spout("src", 1, int_spout(0, 50));
        let sink = b.add_bolt("sink", 3, |_| {
            Box::new(FnBolt(|_o, t: Tuple, out: &mut OutputCollector| {
                out.emit(t);
                Ok(())
            }))
        });
        b.connect(src, sink, Grouping::All);
        let outcome = b.build().unwrap().run();
        assert_eq!(outcome.outputs.len(), 150);
        let m = outcome.metrics.node(1);
        assert_eq!(m.received, vec![50, 50, 50]);
        // Replication factor = 150 received / 50 produced upstream = 3.
        assert!((outcome.metrics.replication_factor(1, &[0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_spouts_into_one_joiner_distinguished_by_origin() {
        let mut b = TopologyBuilder::new();
        let left = b.add_spout("left", 1, int_spout(0, 10));
        let right = b.add_spout("right", 1, int_spout(100, 110));
        let merge = b.add_bolt("merge", 1, move |_| {
            Box::new(FnBolt(move |origin, t: Tuple, out: &mut OutputCollector| {
                out.emit(tuple![origin as i64, t.get(0).as_int()?]);
                Ok(())
            }))
        });
        b.connect(left, merge, Grouping::Global);
        b.connect(right, merge, Grouping::Global);
        let outcome = b.build().unwrap().run();
        let lefts = outcome.outputs.iter().filter(|(_, t)| t.get(0) == &Value::Int(0)).count();
        let rights = outcome.outputs.iter().filter(|(_, t)| t.get(0) == &Value::Int(1)).count();
        assert_eq!((lefts, rights), (10, 10));
    }

    #[test]
    fn finish_runs_after_all_eos() {
        let mut b = TopologyBuilder::new();
        let src = b.add_spout("src", 3, int_spout(0, 30));
        struct Summer {
            sum: i64,
        }
        impl crate::topology::Bolt for Summer {
            fn execute_chunk(
                &mut self,
                _o: NodeId,
                chunk: &Chunk,
                _out: &mut OutputCollector,
            ) -> Result<()> {
                for t in chunk.rows() {
                    self.sum += t.get(0).as_int()?;
                }
                Ok(())
            }
            fn finish(&mut self, out: &mut OutputCollector) -> Result<()> {
                out.emit(tuple![self.sum]);
                Ok(())
            }
        }
        let agg = b.add_bolt("agg", 1, |_| Box::new(Summer { sum: 0 }));
        b.connect(src, agg, Grouping::Global);
        let outcome = b.build().unwrap().run();
        assert_eq!(outcome.outputs.len(), 1);
        // Each of 3 spout tasks emits 0..30 → 3 * (0+..+29) = 3*435.
        assert_eq!(outcome.outputs[0].1.get(0).as_int().unwrap(), 3 * 435);
    }

    #[test]
    fn multi_stage_pipeline() {
        let mut b = TopologyBuilder::new();
        let src = b.add_spout("src", 2, int_spout(0, 100));
        let stage1 = b.add_bolt("inc", 2, |_| {
            Box::new(FnBolt(|_o, t: Tuple, out: &mut OutputCollector| {
                out.emit(tuple![t.get(0).as_int()? + 1]);
                Ok(())
            }))
        });
        let stage2 = b.add_bolt("filter", 3, |_| {
            Box::new(FnBolt(|_o, t: Tuple, out: &mut OutputCollector| {
                if t.get(0).as_int()? % 2 == 0 {
                    out.emit(t);
                }
                Ok(())
            }))
        });
        b.connect(src, stage1, Grouping::Shuffle);
        b.connect(stage1, stage2, Grouping::Shuffle);
        let outcome = b.build().unwrap().run();
        assert!(outcome.error.is_none());
        // 2 spout tasks × values 1..=100, evens only → 50 each.
        assert_eq!(outcome.outputs.len(), 100);
    }

    #[test]
    fn error_aborts_run_and_reports() {
        let mut b = TopologyBuilder::new();
        let src = b.add_spout("src", 1, int_spout(0, 1_000_000));
        let bomb = b.add_bolt("bomb", 1, |_| {
            let mut n = 0;
            Box::new(FnBolt(move |_o, _t: Tuple, _out: &mut OutputCollector| {
                n += 1;
                if n > 100 {
                    Err(SquallError::MemoryOverflow { machine: 0, stored: n, budget: 100 })
                } else {
                    Ok(())
                }
            }))
        });
        b.connect(src, bomb, Grouping::Shuffle);
        let outcome = b.build().unwrap().run();
        assert!(matches!(outcome.error, Some(SquallError::MemoryOverflow { .. })));
        // The spout observed the abort and stopped long before 1M tuples.
        assert!(outcome.metrics.node(0).total_emitted() < 1_000_000);
    }

    #[test]
    fn panic_in_bolt_is_reported_not_hung() {
        let mut b = TopologyBuilder::new();
        let src = b.add_spout("src", 1, int_spout(0, 10));
        let bad = b.add_bolt("bad", 1, |_| {
            Box::new(FnBolt(|_o, _t: Tuple, _out: &mut OutputCollector| -> Result<()> {
                panic!("operator bug")
            }))
        });
        b.connect(src, bad, Grouping::Shuffle);
        let outcome = b.build().unwrap().run();
        assert!(matches!(outcome.error, Some(SquallError::Runtime(_))));
    }

    #[test]
    fn panic_with_parked_upstream_still_terminates() {
        // capacity 1 + batch 1 + one worker: the spout deterministically
        // parks on the bolt's full inbox before the bolt panics. The
        // panic path must close the dead inbox and wake the spout, or the
        // run hangs forever.
        let mut b = TopologyBuilder::new().channel_capacity(1).batch_size(1).worker_threads(1);
        let src = b.add_spout("src", 1, int_spout(0, 100_000));
        let bad = b.add_bolt("bad", 1, |_| {
            Box::new(FnBolt(|_o, _t: Tuple, _out: &mut OutputCollector| -> Result<()> {
                panic!("operator bug")
            }))
        });
        b.connect(src, bad, Grouping::Shuffle);
        let outcome = b.build().unwrap().run();
        assert!(matches!(outcome.error, Some(SquallError::Runtime(_))));
        assert!(outcome.metrics.node(0).total_emitted() < 100_000, "spout observed the abort");
    }

    #[test]
    fn builder_rejects_cycles_and_bad_edges() {
        let mut b = TopologyBuilder::new();
        let s = b.add_spout("s", 1, int_spout(0, 1));
        let x = b.add_bolt("x", 1, |_| {
            Box::new(FnBolt(|_o, _t: Tuple, _out: &mut OutputCollector| Ok(())))
        });
        let y = b.add_bolt("y", 1, |_| {
            Box::new(FnBolt(|_o, _t: Tuple, _out: &mut OutputCollector| Ok(())))
        });
        b.connect(s, x, Grouping::Shuffle);
        b.connect(x, y, Grouping::Shuffle);
        b.connect(y, x, Grouping::Shuffle); // cycle
        assert!(b.build().is_err());

        let mut b2 = TopologyBuilder::new();
        let s2 = b2.add_spout("s", 1, int_spout(0, 1));
        let x2 = b2.add_bolt("x", 1, |_| {
            Box::new(FnBolt(|_o, _t: Tuple, _out: &mut OutputCollector| Ok(())))
        });
        b2.connect(x2, s2, Grouping::Shuffle); // into a spout
        assert!(b2.build().is_err());

        let mut b3 = TopologyBuilder::new();
        let _s3 = b3.add_spout("s", 1, int_spout(0, 1));
        let _orphan = b3.add_bolt("o", 1, |_| {
            Box::new(FnBolt(|_o, _t: Tuple, _out: &mut OutputCollector| Ok(())))
        });
        assert!(b3.build().is_err(), "bolt without input is invalid");
    }

    #[test]
    fn elapsed_excludes_consumer_drain_time() {
        let mut b = TopologyBuilder::new();
        let src = b.add_spout("src", 1, int_spout(0, 100));
        let echo = b.add_bolt("echo", 1, |_| {
            Box::new(FnBolt(|_o, t: Tuple, out: &mut OutputCollector| {
                out.emit(t);
                Ok(())
            }))
        });
        b.connect(src, echo, Grouping::Shuffle);
        let mut handle = b.build().unwrap().launch();
        assert!(handle.recv().is_some());
        // A slow streaming consumer must not inflate the engine metric.
        std::thread::sleep(std::time::Duration::from_millis(300));
        let outcome = handle.finish();
        assert!(outcome.error.is_none());
        assert!(
            outcome.elapsed < std::time::Duration::from_millis(250),
            "elapsed {:?} includes consumer think-time",
            outcome.elapsed
        );
    }

    #[test]
    fn backpressure_small_capacity_still_completes() {
        let mut b = TopologyBuilder::new().channel_capacity(2).batch_size(8);
        let src = b.add_spout("src", 4, int_spout(0, 1000));
        let slow = b.add_bolt("slow", 1, |_| {
            Box::new(FnBolt(|_o, t: Tuple, out: &mut OutputCollector| {
                out.emit(t);
                Ok(())
            }))
        });
        b.connect(src, slow, Grouping::Global);
        let outcome = b.build().unwrap().run();
        assert_eq!(outcome.outputs.len(), 4000);
        // The tiny inbox must actually have exercised the yield path.
        assert!(outcome.metrics.scheduler.max_queue_depth >= 2);
    }

    #[test]
    fn sources_and_sinks_identified() {
        let mut b = TopologyBuilder::new();
        let s = b.add_spout("s", 1, int_spout(0, 1));
        let x = b.add_bolt("x", 1, |_| {
            Box::new(FnBolt(|_o, _t: Tuple, _out: &mut OutputCollector| Ok(())))
        });
        b.connect(s, x, Grouping::Shuffle);
        let t = b.build().unwrap();
        assert_eq!(t.sources(), vec![0]);
        assert_eq!(t.sinks(), vec![1]);
        assert_eq!(t.node_name(0), "s");
        assert_eq!(t.parallelism(1), 1);
    }

    #[test]
    fn oversubscribed_pool_runs_many_tasks_on_two_workers() {
        // 64 bolt tasks + 4 spout tasks on a 2-thread pool: correctness
        // must not depend on tasks ≤ cores.
        let mut b = TopologyBuilder::new().worker_threads(2);
        let src = b.add_spout("src", 4, |task| {
            let lo = task as i64 * 1000;
            Box::new(RowSpout((lo..lo + 1000).map(|i| tuple![i]), None))
        });
        let fan = b.add_bolt("fan", 64, |_| {
            Box::new(FnBolt(|_o, t: Tuple, out: &mut OutputCollector| {
                out.emit(t);
                Ok(())
            }))
        });
        b.connect(src, fan, Grouping::Fields(vec![0]));
        let handle = b.build().unwrap().launch();
        assert_eq!(handle.worker_count(), 2, "pool size is the thread bound");
        let outcome = handle.finish();
        assert!(outcome.error.is_none());
        let mut vals: Vec<i64> =
            outcome.outputs.iter().map(|(_, t)| t.get(0).as_int().unwrap()).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..4000).collect::<Vec<_>>());
        assert_eq!(outcome.metrics.scheduler.workers, 2);
    }

    #[test]
    fn batch_size_one_and_large_agree() {
        let run_with = |batch: usize| -> Vec<i64> {
            let mut b = TopologyBuilder::new().batch_size(batch);
            let src = b.add_spout("src", 2, |task| {
                let lo = task as i64 * 200;
                Box::new(RowSpout((lo..lo + 200).map(|i| tuple![i % 13, i]), None))
            });
            let key = b.add_bolt("key", 4, |_| {
                Box::new(FnBolt(|_o, t: Tuple, out: &mut OutputCollector| {
                    out.emit(t);
                    Ok(())
                }))
            });
            b.connect(src, key, Grouping::Fields(vec![0]));
            let outcome = b.build().unwrap().run();
            assert!(outcome.error.is_none());
            // Loads must be batch-size independent (per-tuple routing).
            assert_eq!(outcome.metrics.node(1).total_received(), 400);
            let mut v: Vec<i64> =
                outcome.outputs.iter().map(|(_, t)| t.get(1).as_int().unwrap()).collect();
            v.sort_unstable();
            v
        };
        let a = run_with(1);
        let b = run_with(64);
        let c = run_with(4096);
        assert_eq!(a, b);
        assert_eq!(b, c);

        // The two ways to write a bolt — against `execute_chunk`, or as an
        // `FnBolt` row closure — observe the same `(origin, row)` sequence
        // at every batch size. Interleaving across the two senders is
        // scheduling; per-origin order is the contract.
        struct ChunkTap;
        impl crate::topology::Bolt for ChunkTap {
            fn execute_chunk(
                &mut self,
                origin: NodeId,
                chunk: &Chunk,
                out: &mut OutputCollector,
            ) -> Result<()> {
                for t in chunk.rows() {
                    out.emit(tuple![origin as i64, t.get(0).as_int()?]);
                }
                Ok(())
            }
        }
        let observe = |batch: usize, chunked: bool| -> [Vec<i64>; 2] {
            let mut b = TopologyBuilder::new().batch_size(batch);
            let left = b.add_spout("left", 1, int_spout(0, 150));
            let right = b.add_spout("right", 1, int_spout(1000, 1150));
            let tap = b.add_bolt("tap", 1, move |_| -> Box<dyn crate::topology::Bolt> {
                if chunked {
                    Box::new(ChunkTap)
                } else {
                    Box::new(FnBolt(|origin, t: Tuple, out: &mut OutputCollector| {
                        out.emit(tuple![origin as i64, t.get(0).as_int()?]);
                        Ok(())
                    }))
                }
            });
            b.connect(left, tap, Grouping::Global);
            b.connect(right, tap, Grouping::Global);
            let outcome = b.build().unwrap().run();
            assert!(outcome.error.is_none(), "{:?}", outcome.error);
            [left, right].map(|origin| {
                outcome
                    .outputs
                    .iter()
                    .filter(|(_, t)| t.get(0) == &Value::Int(origin as i64))
                    .map(|(_, t)| t.get(1).as_int().unwrap())
                    .collect()
            })
        };
        let want = observe(1, false);
        assert_eq!(want, [(0..150).collect::<Vec<_>>(), (1000..1150).collect()]);
        for (batch, chunked) in [(1, true), (64, false), (64, true)] {
            assert_eq!(observe(batch, chunked), want, "batch {batch}, chunked {chunked}");
        }
    }

    #[test]
    fn watermarks_are_ordered_after_prior_data_and_broadcast() {
        // mid emits a watermark after every tuple; down asserts that when
        // watermark W arrives, every tuple with value < W has already been
        // seen (the flush-before-watermark contract), on every task of a
        // Fields-partitioned downstream (watermarks broadcast).
        let mut b = TopologyBuilder::new().batch_size(16);
        let src = b.add_spout("src", 1, int_spout(0, 300));
        let mid = b.add_bolt("mid", 1, |_| {
            Box::new(FnBolt(|_o, t: Tuple, out: &mut OutputCollector| {
                let v = t.get(0).as_int()? as u64;
                out.emit(t);
                out.emit_watermark(v);
                Ok(())
            }))
        });
        struct Check {
            highest_data: i64,
            watermarks: Vec<u64>,
        }
        impl crate::topology::Bolt for Check {
            fn execute_chunk(
                &mut self,
                _o: NodeId,
                chunk: &Chunk,
                _out: &mut OutputCollector,
            ) -> Result<()> {
                for t in chunk.rows() {
                    let v = t.get(0).as_int()?;
                    // The watermark contract: no tuple below an already-seen
                    // watermark may arrive after it.
                    if let Some(&w) = self.watermarks.last() {
                        if (v as u64) < w {
                            return Err(SquallError::Runtime(format!("late tuple {v} after {w}")));
                        }
                    }
                    self.highest_data = self.highest_data.max(v);
                }
                Ok(())
            }
            fn watermark(
                &mut self,
                origin: NodeId,
                from_task: usize,
                ts: u64,
                _out: &mut OutputCollector,
            ) -> Result<()> {
                if (origin, from_task) != (1, 0) {
                    return Err(SquallError::Runtime("wrong watermark origin".into()));
                }
                if let Some(&last) = self.watermarks.last() {
                    if ts < last {
                        return Err(SquallError::Runtime("watermark regressed".into()));
                    }
                }
                // Every tuple this task owns with value ≤ ts must have
                // arrived before the watermark (Fields grouping: this
                // task's share are values ≡ task (mod 3), but checking
                // the max suffices: data for *this* sender is FIFO).
                if self.highest_data >= 0 && (self.highest_data as u64) > ts {
                    return Err(SquallError::Runtime(format!(
                        "data {} overtook watermark {ts}",
                        self.highest_data
                    )));
                }
                self.watermarks.push(ts);
                Ok(())
            }
            fn finish(&mut self, out: &mut OutputCollector) -> Result<()> {
                out.emit(tuple![self.watermarks.len() as i64]);
                Ok(())
            }
        }
        let down =
            b.add_bolt("down", 3, |_| Box::new(Check { highest_data: -1, watermarks: vec![] }));
        b.connect(src, mid, Grouping::Global);
        b.connect(mid, down, Grouping::Fields(vec![0]));
        let outcome = b.build().unwrap().run();
        assert!(outcome.error.is_none(), "{:?}", outcome.error);
        // Watermarks are broadcast: every one of the 3 tasks saw all 300.
        for (_, t) in &outcome.outputs {
            assert_eq!(t.get(0).as_int().unwrap(), 300);
        }
        assert_eq!(outcome.outputs.len(), 3);
    }

    #[test]
    fn per_sender_order_is_preserved_through_batching() {
        // The windowed event-time contract: each relation's tuples arrive
        // at every downstream task in emission order.
        let mut b = TopologyBuilder::new().batch_size(7);
        let src = b.add_spout("src", 1, int_spout(0, 500));
        let check = b.add_bolt("check", 1, |_| {
            let mut last = -1i64;
            Box::new(FnBolt(move |_o, t: Tuple, out: &mut OutputCollector| {
                let v = t.get(0).as_int()?;
                if v <= last {
                    return Err(SquallError::Runtime(format!("order violated: {v} after {last}")));
                }
                last = v;
                out.emit(t);
                Ok(())
            }))
        });
        b.connect(src, check, Grouping::Global);
        let outcome = b.build().unwrap().run();
        assert!(outcome.error.is_none(), "{:?}", outcome.error);
        assert_eq!(outcome.outputs.len(), 500);
    }
}
