//! Topology construction: spouts, bolts, edges, validation — plus the
//! [`OutputCollector`], the batching emission interface handed to tasks.

use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;

use squall_common::{Chunk, Result, SquallError, Tuple, Value};

use crate::executor::{Sched, TaskId};
use crate::grouping::Grouping;
use crate::message::{Message, NodeId};
use crate::metrics::TaskCounters;
use crate::transport::{PeerFanout, Transport};

/// What a spout produced on one poll. Bounded sources only ever report
/// [`SpoutPoll::Row`] and [`SpoutPoll::Eos`]; *resident* sources —
/// standing materialized views, read from a [`crate::LiveQueue`] —
/// additionally use [`SpoutPoll::Idle`] to park without terminating and
/// [`SpoutPoll::Watermark`] / [`SpoutPoll::Barrier`] to punctuate epochs.
pub enum SpoutPoll<'a> {
    /// One row to emit downstream, borrowed from the spout: no [`Tuple`]
    /// is built to ship it.
    Row(&'a [Value]),
    /// Broadcast a watermark to every downstream task (epoch / event-time
    /// frontier punctuation).
    Watermark(u64),
    /// Broadcast a checkpoint barrier sealing `epoch` to every downstream
    /// task (see [`crate::message::Message::Barrier`]).
    Barrier(u64),
    /// Nothing available *right now*, but the stream is not over: the task
    /// parks until an external writer wakes it (see
    /// [`crate::executor::TaskWaker`]).
    Idle,
    /// The stream has ended; the task flushes, punctuates and finishes.
    Eos,
}

/// A data source. Each task of a spout node owns one `Spout` instance and
/// the executor polls it until it reports [`SpoutPoll::Eos`] or the run is
/// aborted.
pub trait Spout: Send {
    /// Poll the source once — the only way tuples enter a topology.
    fn poll(&mut self) -> SpoutPoll<'_>;
}

/// A computation node. Each task owns one `Bolt` instance.
pub trait Bolt: Send {
    /// Process one batch of input rows — the only way data reaches a
    /// bolt. `origin` is the upstream node that emitted the
    /// batch (joiners dispatch on it to tell their relations apart); every
    /// row of a chunk shares it. Emissions and errors must follow the
    /// chunk's row order, so results do not depend on how the data plane
    /// happened to batch the stream. Operators read each row in place
    /// ([`Chunk::iter`]); [`FnBolt`] hands a row closure a [`Tuple`] of
    /// each.
    fn execute_chunk(
        &mut self,
        origin: NodeId,
        chunk: &Chunk,
        out: &mut OutputCollector,
    ) -> Result<()>;

    /// Called once after every upstream task has signalled end-of-stream;
    /// used by blocking-at-the-end operators (final aggregation emission).
    fn finish(&mut self, out: &mut OutputCollector) -> Result<()> {
        let _ = out;
        Ok(())
    }

    /// Process one event-time watermark from upstream task `from_task` of
    /// node `origin` (see [`crate::message::Message::Watermark`]): every
    /// later tuple from that task carries event time ≥ `ts`. The default
    /// ignores watermarks — only operators with per-window state (the
    /// windowed aggregation bolt) need them.
    fn watermark(
        &mut self,
        origin: NodeId,
        from_task: usize,
        ts: u64,
        out: &mut OutputCollector,
    ) -> Result<()> {
        let _ = (origin, from_task, ts, out);
        Ok(())
    }

    /// Called once per checkpoint epoch, at the instant barriers for
    /// `epoch` have *aligned* — one received from every upstream task, so
    /// every delta of an epoch ≤ `epoch` has arrived, possibly with some of
    /// later epochs (see [`crate::message::Message::Barrier`]). Snapshot-capable
    /// operators serialize their state here before forwarding; the default
    /// is stateless and just forwards the barrier downstream.
    fn barrier(&mut self, epoch: u64, out: &mut OutputCollector) -> Result<()> {
        out.emit_barrier(epoch);
        Ok(())
    }
}

/// One relation's rows as its spout reads them, in place: the shared
/// table, the ids of the rows a pushed-down filter keeps (in emission
/// order), the columns kept of each row ⊕ its derived values, and those
/// derived values. Building one copies no row.
#[derive(Debug, Clone)]
pub struct Source {
    data: Arc<Vec<Tuple>>,
    /// The selected rows in emission order; `None` = every row, in order.
    ids: Option<Vec<usize>>,
    /// Kept columns of `row ⊕ derived`; `None` = the whole row.
    cols: Option<Vec<usize>>,
    /// `width` derived values per selected row, in selection order.
    derived: Vec<Value>,
    width: usize,
}

impl From<Vec<Tuple>> for Source {
    fn from(rows: Vec<Tuple>) -> Source {
        Source::select(Arc::new(rows), None, None, Vec::new())
    }
}

impl Source {
    /// Rows `ids` of `data` (all when `None`), each cut to columns `cols`
    /// of the row followed by its derived values (whole when `None`);
    /// `derived` holds the same number of values for every selected row.
    pub fn select(
        data: Arc<Vec<Tuple>>,
        ids: Option<Vec<usize>>,
        cols: Option<Vec<usize>>,
        derived: Vec<Value>,
    ) -> Source {
        let n = ids.as_ref().map_or(data.len(), Vec::len);
        let width = derived.len().checked_div(n).unwrap_or(0);
        Source { data, ids, cols, derived, width }
    }

    /// Cut every selected row further, to columns `cols` of its kept ones.
    pub fn narrow(&mut self, cols: &[usize]) {
        self.cols = Some(match &self.cols {
            Some(kept) => cols.iter().map(|&c| kept[c]).collect(),
            None => cols.to_vec(),
        });
    }

    /// Selected rows.
    pub fn len(&self) -> usize {
        self.ids.as_ref().map_or(self.data.len(), Vec::len)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn id(&self, k: usize) -> usize {
        self.ids.as_ref().map_or(k, |ids| ids[k])
    }

    /// Column `c` (of the kept ones) of selected row `k`.
    pub fn value(&self, k: usize, c: usize) -> &Value {
        let c = self.cols.as_ref().map_or(c, |cols| cols[c]);
        let row = &self.data[self.id(k)];
        row.values().get(c).unwrap_or_else(|| &self.derived[k * self.width + c - row.arity()])
    }

    /// Selected row `k` as it ships: the stored row itself when whole,
    /// else its kept columns gathered into `buf`.
    pub fn row<'a>(&'a self, k: usize, buf: &'a mut Vec<Value>) -> &'a [Value] {
        let Some(cols) = &self.cols else { return &self.data[self.id(k)] };
        buf.clear();
        buf.extend((0..cols.len()).map(|c| self.value(k, c).clone()));
        buf
    }

    /// Every selected row as a tuple (a whole row shares the stored one).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        let mut buf = Vec::new();
        let tuple = |k| match self.cols {
            None => self.data[self.id(k)].clone(),
            Some(_) => self.row(k, &mut buf).into(),
        };
        (0..self.len()).map(tuple).collect()
    }

    /// Put the selected rows in event-time order (see
    /// [`sort_by_event_time`]) by permuting their ids, kept column `ts_col`
    /// the key.
    pub fn sort_by_event_time(&mut self, ts_col: usize) -> Result<()> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        event_time_order(&mut order, |&k| self.value(k, ts_col).as_int(), ts_col)?;
        let w = self.width;
        self.derived = order.iter().flat_map(|&k| &self.derived[k * w..][..w]).cloned().collect();
        self.ids = Some(order.iter().map(|&k| self.id(k)).collect());
        Ok(())
    }
}

/// A spout over a shared [`Source`]: task `start` of `stride` emits its
/// selected rows `start, start+stride, …`, each borrowed — the standard way
/// to split one in-memory relation across several spout tasks.
pub struct IterSpoutVec {
    source: Arc<Source>,
    pos: usize,
    stride: usize,
    /// Where a projected row is gathered.
    buf: Vec<Value>,
}

impl IterSpoutVec {
    /// Every row of `data`, whole.
    pub fn strided(data: Arc<Vec<Tuple>>, start: usize, stride: usize) -> IterSpoutVec {
        IterSpoutVec::over(Arc::new(Source::select(data, None, None, Vec::new())), start, stride)
    }

    pub fn over(source: Arc<Source>, start: usize, stride: usize) -> IterSpoutVec {
        assert!(stride > 0);
        IterSpoutVec { source, pos: start, stride, buf: Vec::new() }
    }
}

impl Spout for IterSpoutVec {
    fn poll(&mut self) -> SpoutPoll<'_> {
        if self.pos >= self.source.len() {
            return SpoutPoll::Eos;
        }
        self.pos += self.stride;
        SpoutPoll::Row(self.source.row(self.pos - self.stride, &mut self.buf))
    }
}

/// Order a relation's tuples by an event-time column, ascending (stable),
/// validating that every timestamp is a non-negative Int.
///
/// Windowed topologies rely on each spout emitting its relation in
/// event-time order: per-sender channel FIFO then guarantees every
/// downstream task sees each relation's tuples with non-decreasing
/// timestamps, which is what the watermark-based window join needs to
/// evict state safely.
pub fn sort_by_event_time(data: &mut [Tuple], ts_col: usize) -> Result<()> {
    event_time_order(data, |t| t.get(ts_col).as_int(), ts_col)
}

/// Stable-sort `items` by the event time `ts` reads off each, every one
/// checked to be a non-negative Int first.
fn event_time_order<T>(
    items: &mut [T],
    ts: impl Fn(&T) -> Result<i64>,
    ts_col: usize,
) -> Result<()> {
    for t in items.iter() {
        let v = ts(t)?;
        if v < 0 {
            return Err(SquallError::Runtime(format!(
                "negative event-time timestamp {v} (column {ts_col})"
            )));
        }
    }
    items.sort_by_key(|t| ts(t).expect("validated above"));
    Ok(())
}

/// A bolt defined by a per-row closure (handy in tests and examples) — the
/// one row adapter: it copies each row of the chunk into a [`Tuple`] and
/// hands it to the closure, stopping at the first error.
pub struct FnBolt<F>(pub F);

impl<F> Bolt for FnBolt<F>
where
    F: FnMut(NodeId, Tuple, &mut OutputCollector) -> Result<()> + Send,
{
    fn execute_chunk(
        &mut self,
        origin: NodeId,
        chunk: &Chunk,
        out: &mut OutputCollector,
    ) -> Result<()> {
        chunk.rows().try_for_each(|tuple| (self.0)(origin, tuple, out))
    }
}

pub(crate) type SpoutFactory = Box<dyn Fn(usize) -> Box<dyn Spout> + Send>;
pub(crate) type BoltFactory = Box<dyn Fn(usize) -> Box<dyn Bolt> + Send>;

pub(crate) enum NodeKind {
    Spout(SpoutFactory),
    Bolt(BoltFactory),
}

pub(crate) struct NodeDef {
    pub name: String,
    pub parallelism: usize,
    pub kind: NodeKind,
}

#[derive(Clone)]
pub(crate) struct Edge {
    pub from: NodeId,
    pub to: NodeId,
    pub grouping: Grouping,
}

/// Incrementally builds a [`Topology`] (the Squall-to-Storm translator of
/// Figure 1 targets exactly this interface).
pub struct TopologyBuilder {
    pub(crate) nodes: Vec<NodeDef>,
    pub(crate) edges: Vec<Edge>,
    /// Bound on each task's input queue, in *messages* (batches). A sender
    /// whose flush overfills a downstream inbox parks until the consumer
    /// drains it — backpressure by yielding, not by blocking a thread.
    pub(crate) channel_capacity: usize,
    pub(crate) worker_threads: Option<usize>,
    pub(crate) batch_size: usize,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        TopologyBuilder::new()
    }
}

/// Default tuples per [`Message::Batch`] (see [`TopologyBuilder::batch_size`]).
/// Each batch has a fixed cost: buffers allocated on one worker and freed
/// on another, the inbox lock, the depth counter, a wake-up. 256 rows pay
/// it a quarter as often as 64, while the join's work per row is the same.
pub const DEFAULT_BATCH_SIZE: usize = 256;

impl TopologyBuilder {
    pub fn new() -> TopologyBuilder {
        TopologyBuilder {
            nodes: Vec::new(),
            edges: Vec::new(),
            channel_capacity: 1024,
            worker_threads: None,
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }

    /// Shrink the inbox bound so a test can force backpressure.
    #[cfg(test)]
    pub(crate) fn channel_capacity(mut self, cap: usize) -> TopologyBuilder {
        assert!(cap > 0);
        self.channel_capacity = cap;
        self
    }

    /// Size of the worker pool executing the topology's tasks. Defaults to
    /// the machine's available parallelism; always clamped to the task
    /// count. Task counts far above this are fine — that is the point of
    /// the cooperative executor.
    pub fn worker_threads(mut self, n: usize) -> TopologyBuilder {
        assert!(n > 0, "worker pool needs at least one thread");
        self.worker_threads = Some(n);
        self
    }

    /// Tuples accumulated per scatter buffer before a [`Message::Batch`]
    /// ships (default [`DEFAULT_BATCH_SIZE`]). `1` reproduces per-tuple
    /// messaging. Routing is per-tuple either way, so results and loads do
    /// not depend on this knob — only throughput does.
    pub fn batch_size(mut self, n: usize) -> TopologyBuilder {
        assert!(n > 0, "batch size must be positive");
        self.batch_size = n;
        self
    }

    /// Add a spout node; `factory(task_index)` builds each task's source.
    pub fn add_spout<F>(
        &mut self,
        name: impl Into<String>,
        parallelism: usize,
        factory: F,
    ) -> NodeId
    where
        F: Fn(usize) -> Box<dyn Spout> + Send + 'static,
    {
        assert!(parallelism > 0, "parallelism must be positive");
        self.nodes.push(NodeDef {
            name: name.into(),
            parallelism,
            kind: NodeKind::Spout(Box::new(factory)),
        });
        self.nodes.len() - 1
    }

    /// Add a bolt node; `factory(task_index)` builds each task's operator.
    pub fn add_bolt<F>(&mut self, name: impl Into<String>, parallelism: usize, factory: F) -> NodeId
    where
        F: Fn(usize) -> Box<dyn Bolt> + Send + 'static,
    {
        assert!(parallelism > 0, "parallelism must be positive");
        self.nodes.push(NodeDef {
            name: name.into(),
            parallelism,
            kind: NodeKind::Bolt(Box::new(factory)),
        });
        self.nodes.len() - 1
    }

    /// Connect `from → to` with a grouping.
    pub fn connect(&mut self, from: NodeId, to: NodeId, grouping: Grouping) {
        self.edges.push(Edge { from, to, grouping });
    }

    /// Validate and freeze.
    pub fn build(self) -> Result<Topology> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(SquallError::InvalidPlan("empty topology".into()));
        }
        for e in &self.edges {
            if e.from >= n || e.to >= n {
                return Err(SquallError::InvalidPlan(format!(
                    "edge {} -> {} references missing node",
                    e.from, e.to
                )));
            }
            if matches!(self.nodes[e.to].kind, NodeKind::Spout(_)) {
                return Err(SquallError::InvalidPlan("spouts cannot have inputs".into()));
            }
            let dup = self.edges.iter().filter(|o| o.from == e.from && o.to == e.to).count();
            if dup > 1 {
                return Err(SquallError::InvalidPlan(format!(
                    "duplicate edge {} -> {}",
                    e.from, e.to
                )));
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if matches!(node.kind, NodeKind::Bolt(_)) && !self.edges.iter().any(|e| e.to == i) {
                return Err(SquallError::InvalidPlan(format!(
                    "bolt '{}' has no input edge",
                    node.name
                )));
            }
        }
        // DAG check: Kahn's algorithm.
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.to] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut visited = 0;
        while let Some(u) = queue.pop() {
            visited += 1;
            for e in self.edges.iter().filter(|e| e.from == u) {
                indeg[e.to] -= 1;
                if indeg[e.to] == 0 {
                    queue.push(e.to);
                }
            }
        }
        if visited != n {
            return Err(SquallError::InvalidPlan("topology contains a cycle".into()));
        }
        Ok(Topology {
            nodes: self.nodes,
            edges: self.edges,
            channel_capacity: self.channel_capacity,
            worker_threads: self.worker_threads,
            batch_size: self.batch_size,
        })
    }
}

/// A validated, runnable topology. See [`crate::executor`] for execution.
pub struct Topology {
    pub(crate) nodes: Vec<NodeDef>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) channel_capacity: usize,
    pub(crate) worker_threads: Option<usize>,
    pub(crate) batch_size: usize,
}

impl Topology {
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id].name
    }

    pub fn parallelism(&self, id: NodeId) -> usize {
        self.nodes[id].parallelism
    }

    /// Nodes with no outgoing edges — their emissions become the query
    /// output.
    pub fn sinks(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).filter(|&i| !self.edges.iter().any(|e| e.from == i)).collect()
    }

    /// Nodes with no incoming edges (the spouts).
    pub fn sources(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).filter(|&i| !self.edges.iter().any(|e| e.to == i)).collect()
    }

    /// Is node `id` a spout (data source)?
    pub fn is_spout(&self, id: NodeId) -> bool {
        matches!(self.nodes[id].kind, NodeKind::Spout(_))
    }

    /// `(names, parallelism, is_spout)` per node — the shape
    /// [`crate::transport::plan_placement`] consumes.
    pub fn layout(&self) -> (Vec<String>, Vec<usize>, Vec<bool>) {
        let names = self.nodes.iter().map(|n| n.name.clone()).collect();
        let parallelism = self.nodes.iter().map(|n| n.parallelism).collect();
        let spouts = self.nodes.iter().map(|n| matches!(n.kind, NodeKind::Spout(_))).collect();
        (names, parallelism, spouts)
    }
}

/// One receiving task of an outgoing edge, with its scatter buffer: rows
/// routed to this target are pushed into a [`Chunk`] and ship as one
/// [`Message::Batch`] when `batch_size` rows are reached (or on
/// punctuation, or when a row the chunk does not accept arrives — ragged
/// streams split into uniform chunks, which cannot change results because
/// routing happened per row before buffering). Delivery goes through the
/// run's [`Transport`] — the emitter neither knows nor cares whether the
/// target task lives in this process. A target one of the edge's
/// [`PeerFanout`]s ships for leaves its buffer empty.
pub(crate) struct EdgeTarget {
    task: TaskId,
    buffer: Chunk,
    /// Index of the edge's fan-out this target's rows go through.
    fanout: Option<usize>,
}

/// One outgoing edge of a running task.
pub(crate) struct EdgeOut {
    grouping: Grouping,
    seq: u64,
    targets: Vec<EdgeTarget>,
    /// Empty in-process, and for a peer hosting one target of the edge.
    fanouts: Vec<PeerFanout>,
}

impl EdgeOut {
    /// An edge into tasks `first..first + n`, whose targets in a fan-out's
    /// run ship through it.
    pub(crate) fn new(
        grouping: Grouping,
        first: TaskId,
        n: usize,
        fanouts: Vec<PeerFanout>,
    ) -> EdgeOut {
        let mut targets: Vec<EdgeTarget> = (first..first + n)
            .map(|task| EdgeTarget { task, buffer: Chunk::empty(), fanout: None })
            .collect();
        for (f, fan) in fanouts.iter().enumerate() {
            let run = fan.tasks();
            targets[run.start - first..run.end - first].iter_mut().for_each(|t| t.fanout = Some(f));
        }
        EdgeOut { grouping, seq: 0, targets, fanouts }
    }
}

/// The emission interface handed to spout/bolt tasks.
///
/// `emit` / `emit_row` route a row over every outgoing edge according to
/// that edge's grouping into per-target scatter buffers; buffers flush as
/// batched messages on size (and on end-of-stream). For sink nodes (no
/// outgoing edges) the row is delivered to the run's output channel
/// instead.
pub struct OutputCollector {
    node: NodeId,
    task: usize,
    edges: Vec<EdgeOut>,
    sink: Sender<(NodeId, Tuple)>,
    counters: Arc<TaskCounters>,
    scratch: Vec<usize>,
    batch_size: usize,
    sched: Arc<Sched>,
    transport: Arc<dyn Transport>,
    /// Set when a flush pushed some target's delivery path over capacity;
    /// the owning task checks it after each emit and parks if still true.
    gated: bool,
}

/// Ship a target's scatter buffer as one batch. Stands alone (not a
/// method) so per-edge iteration can split borrows.
fn flush_target(
    node: NodeId,
    target: &mut EdgeTarget,
    transport: &dyn Transport,
    gated: &mut bool,
) {
    if target.buffer.is_empty() {
        return;
    }
    let chunk = target.buffer.finish();
    transport.send(target.task, Message::Batch { origin: node, chunk });
    if transport.congested(target.task) {
        *gated = true;
    }
}

impl OutputCollector {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        node: NodeId,
        task: usize,
        edges: Vec<EdgeOut>,
        sink: Sender<(NodeId, Tuple)>,
        counters: Arc<TaskCounters>,
        batch_size: usize,
        sched: Arc<Sched>,
        transport: Arc<dyn Transport>,
    ) -> OutputCollector {
        OutputCollector {
            node,
            task,
            edges,
            sink,
            counters,
            scratch: Vec::with_capacity(8),
            batch_size,
            sched,
            transport,
            gated: false,
        }
    }

    /// Emit one tuple downstream (or to the query output for sinks).
    pub fn emit(&mut self, tuple: Tuple) {
        if !self.edges.is_empty() {
            return self.emit_row(&tuple);
        }
        // A sink node. The output channel is unbounded; ignore disconnects
        // (the caller may have stopped listening after an abort).
        self.counters.emitted.fetch_add(1, Ordering::Relaxed);
        let _ = self.sink.send((self.node, tuple));
    }

    /// Emit one borrowed row: routed straight into the scatter buffers, so
    /// only a sink node, which hands its output over whole, builds a
    /// [`Tuple`] of it.
    pub fn emit_row(&mut self, row: &[Value]) {
        self.emit_folded(row, 1)
    }

    /// [`OutputCollector::emit_row`] for a row that stands for `folded`
    /// rows — a partial aggregate of that many results: routed once and
    /// counted as `folded` emitted rows, so a component's emitted count
    /// stays the number of rows its logic produced.
    pub fn emit_folded(&mut self, row: &[Value], folded: u64) {
        self.counters.emitted.fetch_add(folded, Ordering::Relaxed);
        if self.edges.is_empty() {
            let _ = self.sink.send((self.node, row.into()));
            return;
        }
        let task = self.task;
        let batch_size = self.batch_size;
        let mut sent = 0u64;
        for edge in &mut self.edges {
            let seq = edge.seq;
            edge.grouping.route(task, seq, row, edge.targets.len(), &mut self.scratch);
            edge.seq += 1;
            sent += self.scratch.len() as u64;
            for &t in &self.scratch {
                let target = &mut edge.targets[t];
                if let Some(f) = target.fanout {
                    edge.fanouts[f].push(seq, target.task, row, &mut self.gated);
                    continue;
                }
                if !target.buffer.accepts(row) {
                    flush_target(self.node, target, &*self.transport, &mut self.gated);
                }
                target.buffer.push(row);
                if target.buffer.n_rows() >= batch_size {
                    flush_target(self.node, target, &*self.transport, &mut self.gated);
                }
            }
            for fan in &mut edge.fanouts {
                fan.flush_full(batch_size, &mut self.gated);
            }
        }
        self.counters.sent.fetch_add(sent, Ordering::Relaxed);
    }

    /// Broadcast an event-time watermark to *every* downstream task of
    /// every outgoing edge (groupings do not apply: progress is a promise
    /// about all future emissions, so every consumer needs it). Each
    /// target's scatter buffer is flushed first, which keeps the
    /// data-before-watermark order that windowed aggregation relies on.
    /// No-op on sink nodes (no outgoing edges) — the query output channel
    /// carries rows only.
    pub fn emit_watermark(&mut self, ts: u64) {
        self.flush_all(Some(Message::Watermark { origin: self.node, from_task: self.task, ts }));
    }

    /// Broadcast a checkpoint barrier to *every* downstream task of every
    /// outgoing edge, exactly like [`OutputCollector::emit_watermark`]:
    /// scatter buffers flush first, so the barrier follows all of this
    /// task's earlier data (the FIFO ordering that makes alignment exact).
    pub fn emit_barrier(&mut self, epoch: u64) {
        self.flush_all(Some(Message::Barrier { epoch }));
    }

    /// The one flush-then-send loop: ship every fan-out and every target's
    /// scatter buffer and, behind them, each target's copy of `punctuation`
    /// if there is one (a link is FIFO, so it lands after the data). With
    /// `None` it only flushes — resident spouts do that before parking idle,
    /// so no delta sits in a half-full batch while the task sleeps.
    pub(crate) fn flush_all(&mut self, punctuation: Option<Message>) {
        for edge in &mut self.edges {
            for fan in &mut edge.fanouts {
                fan.flush(&mut self.gated);
            }
            for target in &mut edge.targets {
                flush_target(self.node, target, &*self.transport, &mut self.gated);
                if let Some(msg) = &punctuation {
                    self.transport.send(target.task, msg.clone());
                }
            }
        }
    }

    /// Flush every scatter buffer and punctuate every downstream task with
    /// one `Eos`. Punctuation ignores capacity — termination must always
    /// make progress.
    pub(crate) fn flush_and_punctuate(&mut self) {
        self.flush_all(Some(Message::Eos));
        self.gated = false;
    }

    /// If the last flush overfilled a downstream delivery path *and* it is
    /// still over capacity, register `id` on every such path's waiter list
    /// and report `true` (the task must park). Registration double-checks
    /// under the path's lock, so a consumer that drained in between simply
    /// lets the task continue.
    pub(crate) fn park_if_gated(&mut self, id: TaskId) -> bool {
        if !self.gated {
            return false;
        }
        let mut blocked = false;
        for edge in &self.edges {
            for target in &edge.targets {
                if self.transport.congested(target.task)
                    && self.transport.register_waiter(target.task, id)
                {
                    blocked = true;
                }
            }
        }
        self.gated = blocked;
        if blocked {
            self.sched.record_blocked();
        }
        blocked
    }

    pub(crate) fn counters(&self) -> &Arc<TaskCounters> {
        &self.counters
    }

    /// The executing task's index (the paper's "machine" id within the
    /// component).
    pub fn task_index(&self) -> usize {
        self.task
    }
}
