//! The view-maintenance subsystem: **resident** topologies behind
//! `CREATE MATERIALIZED VIEW`.
//!
//! A standing view reuses the whole distributed data plane — spouts,
//! partitioning-scheme groupings, the DBToaster delta join — but never
//! reaches end-of-stream: its spouts drain [`LiveQueue`]s that the
//! session's `append()`/`retract()` path keeps feeding after launch.
//!
//! ## The delta plane
//!
//! Every tuple in a standing topology carries two trailing Int columns,
//! `[cols…, multiplicity, epoch]`:
//!
//! * **multiplicity** — Z-set-style signed weight (+1 insert, −1
//!   retract, |m|>1 for collapsed duplicates). The join applies it with
//!   [`DBToasterJoin::delta`], whose output weights are the exact signed
//!   change of the join result multiset.
//! * **epoch** — which `append()`/`retract()` round produced the delta.
//!   The initial load is epoch 1; every later round bumps the counter,
//!   pushes its deltas to the owning relations' queues and an epoch
//!   watermark to *all* queues.
//!
//! Trailing columns are invisible to routing: the partitioning scheme's
//! groupings only read join-key columns, which sit below the original
//! arity. Join tasks strip the bookkeeping columns, apply the signed
//! delta, and re-emit each result as `[result…, weight, epoch]`.
//!
//! ## Quiesce / snapshot protocol
//!
//! Epoch watermarks flow spout → join → sink. A join task forwards the
//! *minimum* epoch across its source frontiers, so when the sink's
//! minimum over all join tasks reaches `n`, every delta of every epoch
//! ≤ `n` has arrived (per-sender FIFO ordering; results are flushed
//! before their watermark). The sink buffers deltas per epoch and
//! applies whole epochs in order — robust to cross-task skew, since a
//! fast task's epoch-`n+1` deltas never contaminate epoch `n`. Applying
//! an epoch nets the changes into the shared row multiset, publishes a
//! [`ChangeBatch`] to subscribers and advances the applied-epoch
//! counter; `snapshot()` blocks until the applied epoch catches up with
//! the last issued one — read-your-writes for every acked append.
//!
//! `DROP MATERIALIZED VIEW` closes the queues; the spouts report Eos on
//! their next poll and the ordinary flush/punctuate shutdown cascade
//! tears the topology down — locally and across cluster workers alike.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use squall_common::codec::{self, Reader};
use squall_common::{Chunk, FxHashMap, FxHashSet, Result, SquallError, Tuple, Value};
use squall_expr::{AggFunc, MultiJoinSpec, ScalarExpr};
use squall_join::{
    AggSpec, DBToasterJoin, GroupByAggregator, LocalJoin, Snapshot, WindowJoin, WindowSpec,
};
use squall_partition::optimizer::build_scheme;
use squall_runtime::{
    Bolt, ClusterRun, Grouping, LiveItem, LiveQueue, LiveSpout, NodeId, OutputCollector, RunHandle,
    TaskWaker, Topology, TopologyBuilder,
};

use crate::checkpoint::{
    CheckpointStore, RestoreState, SnapshotBlobMsg, JOIN_BLOB_FULL, JOIN_BLOB_WINDOWED, ROLE_JOIN,
    ROLE_SINK,
};
use crate::cluster::ClusterSpec;
use crate::driver::{validate_plan, JoinReport, MaintenanceStats, MultiwayConfig};
use crate::operators::event_time;

/// How long a synchronous checkpoint round waits for all blobs before
/// proceeding with a partial checkpoint (recovery then falls back to the
/// last complete one, or completes this one from peer replicas).
const CHECKPOINT_DEADLINE: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------

/// Windowed-aggregate shape of a standing view: the window spec plus the
/// constituent event-time columns in join-output coordinates (what the
/// sink reads to expand a join result into its windows).
#[derive(Debug, Clone)]
pub struct ViewWindow {
    pub spec: WindowSpec,
    pub ts_cols: Vec<usize>,
}

/// Everything the view sink needs to turn signed join deltas into
/// materialized view rows. Built by the planner
/// (`PhysicalQuery::prepare_standing` at the plan layer).
#[derive(Debug, Clone)]
pub struct ViewPlan {
    /// Aggregate mode: group-by columns over the sink's input rows
    /// (join-output coordinates; windowed mode prepends
    /// `window_start`/`window_end`, so these are `[0, 1, orig+2…]`).
    pub group_cols: Vec<usize>,
    /// Aggregate columns, input expressions in sink-input coordinates.
    pub aggs: Vec<AggSpec>,
    /// Aggregate view (`true`) or plain projected multiset (`false`).
    pub is_aggregate: bool,
    /// HAVING over the raw aggregate row (group keys ++ aggregates,
    /// hidden ones included).
    pub having: Option<ScalarExpr>,
    /// Output projection in SELECT order: over the raw aggregate row in
    /// aggregate mode, over the join-output row otherwise.
    pub finalize: Vec<ScalarExpr>,
    /// SQL semantics: a global aggregate over zero rows is one row.
    pub emit_empty_agg: bool,
    /// Per-window aggregation (`None` = full-history).
    pub windowed: Option<ViewWindow>,
}

/// One applied epoch's net effect on the view, as signed row changes.
#[derive(Debug, Clone)]
pub struct ChangeBatch {
    /// The epoch whose application produced these changes.
    pub epoch: u64,
    /// Net `(row, ±count)` changes (zero-weight entries elided).
    pub changes: Vec<(Tuple, i64)>,
}

// ---------------------------------------------------------------------
// Shared view state (session-facing)
// ---------------------------------------------------------------------

#[derive(Default)]
struct Counters {
    appends: AtomicU64,
    retractions: AtomicU64,
    deltas_in: AtomicU64,
    epochs_applied: AtomicU64,
    rows_changed: AtomicU64,
    snapshots: AtomicU64,
    checkpoints: AtomicU64,
    recoveries: AtomicU64,
    replayed_epochs: AtomicU64,
}

struct ViewState {
    /// Highest fully applied epoch.
    applied: u64,
    /// The materialized view content as a row multiset.
    rows: FxHashMap<Tuple, i64>,
    subscribers: Vec<Sender<ChangeBatch>>,
}

/// The coordinator-side face of one resident view: the sink bolt applies
/// epochs into it; the session reads snapshots and subscribes to the
/// change stream out of it.
pub struct ViewShared {
    state: Mutex<ViewState>,
    cv: Condvar,
    counters: Counters,
    /// Set while a recovery tears the old run down: the dying sink's
    /// `finish` must not flush partially-received epochs into the rows.
    recovering: AtomicBool,
}

impl Default for ViewShared {
    fn default() -> Self {
        ViewShared::new()
    }
}

impl ViewShared {
    pub fn new() -> ViewShared {
        ViewShared {
            state: Mutex::new(ViewState {
                applied: 0,
                rows: FxHashMap::default(),
                subscribers: Vec::new(),
            }),
            cv: Condvar::new(),
            counters: Counters::default(),
            recovering: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ViewState> {
        self.state.lock().expect("view state poisoned")
    }

    /// Highest fully applied epoch (0 before the initial load lands).
    pub fn applied_epoch(&self) -> u64 {
        self.lock().applied
    }

    /// Subscribe to the view's change stream: one [`ChangeBatch`] per
    /// epoch that actually changed rows, in epoch order.
    pub fn subscribe(&self) -> Receiver<ChangeBatch> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.lock().subscribers.push(tx);
        rx
    }

    /// Apply one epoch's net changes, publish to subscribers and advance
    /// the applied-epoch watermark. Called by the sink bolt only.
    ///
    /// Exactly-once: an epoch at or below the applied watermark is a
    /// post-recovery *replay* — already in the rows and already published —
    /// so it is dropped here (returns `false`). The shared state persists
    /// across recoveries, which makes this the natural dedup point.
    fn publish(&self, epoch: u64, changes: Vec<(Tuple, i64)>) -> bool {
        let mut st = self.lock();
        if epoch <= st.applied {
            drop(st);
            self.cv.notify_all();
            return false;
        }
        for (row, m) in &changes {
            use std::collections::hash_map::Entry;
            match st.rows.entry(row.clone()) {
                Entry::Occupied(mut o) => {
                    *o.get_mut() += m;
                    if *o.get() == 0 {
                        o.remove();
                    }
                }
                Entry::Vacant(v) => {
                    if *m != 0 {
                        v.insert(*m);
                    }
                }
            }
        }
        self.counters.rows_changed.fetch_add(changes.len() as u64, Ordering::Relaxed);
        if !changes.is_empty() {
            let batch = ChangeBatch { epoch, changes };
            st.subscribers.retain(|s| s.send(batch.clone()).is_ok());
        }
        st.applied = st.applied.max(epoch);
        drop(st);
        self.cv.notify_all();
        true
    }

    /// Block until `epoch` is fully applied, then return the view rows
    /// (multiplicities expanded, unsorted). `probe` is polled while
    /// waiting so a dead topology surfaces its error instead of a
    /// timeout.
    pub fn snapshot_rows(
        &self,
        epoch: u64,
        timeout: Duration,
        probe: impl Fn() -> Option<SquallError>,
    ) -> Result<Vec<Tuple>> {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        while st.applied < epoch {
            if let Some(e) = probe() {
                return Err(e);
            }
            if Instant::now() >= deadline {
                return Err(SquallError::Runtime(format!(
                    "view snapshot timed out waiting for epoch {epoch} (applied {})",
                    st.applied
                )));
            }
            let (guard, _) =
                self.cv.wait_timeout(st, Duration::from_millis(25)).expect("view state poisoned");
            st = guard;
        }
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::new();
        for (row, &m) in &st.rows {
            for _ in 0..m.max(0) {
                out.push(row.clone());
            }
        }
        Ok(out)
    }

    /// Current maintenance counters.
    pub fn stats(&self) -> MaintenanceStats {
        MaintenanceStats {
            appends: self.counters.appends.load(Ordering::Relaxed),
            retractions: self.counters.retractions.load(Ordering::Relaxed),
            deltas_in: self.counters.deltas_in.load(Ordering::Relaxed),
            epochs_applied: self.counters.epochs_applied.load(Ordering::Relaxed),
            rows_changed: self.counters.rows_changed.load(Ordering::Relaxed),
            snapshots: self.counters.snapshots.load(Ordering::Relaxed),
            checkpoints: self.counters.checkpoints.load(Ordering::Relaxed),
            recoveries: self.counters.recoveries.load(Ordering::Relaxed),
            replayed_epochs: self.counters.replayed_epochs.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// The delta join bolt
// ---------------------------------------------------------------------

enum StandingJoin {
    /// Full-history: DBToaster's delta processing with signed weights.
    Full(DBToasterJoin),
    /// Windowed event-time join; insertions only (windowed standing
    /// views are append-only).
    Windowed { join: WindowJoin<DBToasterJoin>, ts_cols: Vec<usize> },
}

/// One join task of a resident topology: strips the trailing
/// `[multiplicity, epoch]` columns, applies the signed delta to its
/// local join state, re-emits each result with the triggering epoch, and
/// forwards the minimum source-epoch watermark downstream.
pub struct ViewJoinBolt {
    origin_to_rel: FxHashMap<NodeId, usize>,
    join: StandingJoin,
    /// Latest epoch watermark per source spout node.
    frontiers: FxHashMap<NodeId, u64>,
    n_sources: usize,
    /// Last minimum forwarded to the sink.
    forwarded: u64,
    machine: usize,
    budget: Option<usize>,
    wbuf: Vec<(Tuple, i64)>,
    /// Checkpoint blob channel (local on the coordinator; forwarded as
    /// `SnapshotBlob` frames by the worker). `None` = checkpoints off.
    blob_tx: Option<Sender<SnapshotBlobMsg>>,
}

impl ViewJoinBolt {
    fn new(
        machine: usize,
        origin_to_rel: FxHashMap<NodeId, usize>,
        join: StandingJoin,
        n_sources: usize,
        budget: Option<usize>,
        blob_tx: Option<Sender<SnapshotBlobMsg>>,
    ) -> ViewJoinBolt {
        ViewJoinBolt {
            origin_to_rel,
            join,
            frontiers: FxHashMap::default(),
            n_sources,
            forwarded: 0,
            machine,
            budget,
            wbuf: Vec::new(),
            blob_tx,
        }
    }

    /// Rebuild join state from a checkpoint blob (tag byte + the wrapped
    /// operator's [`Snapshot`] bytes).
    fn restore(&mut self, blob: &[u8]) -> Result<()> {
        let mut r = Reader::new(blob);
        let tag = r.u8()?;
        match (&mut self.join, tag) {
            (StandingJoin::Full(j), JOIN_BLOB_FULL) => j.restore_state(&mut r)?,
            (StandingJoin::Windowed { join, .. }, JOIN_BLOB_WINDOWED) => {
                join.restore_state(&mut r)?
            }
            _ => return Err(SquallError::Codec("join checkpoint blob tag mismatch".into())),
        }
        r.finish()
    }
}

/// Split a delta-plane tuple into `(payload, multiplicity, epoch)`.
fn split_delta(tuple: &Tuple) -> Result<(Tuple, i64, i64)> {
    let n = tuple.arity();
    if n < 2 {
        return Err(SquallError::Runtime(format!(
            "delta-plane tuple too narrow ({n} columns; needs payload + mult + epoch)"
        )));
    }
    let mult = tuple.get(n - 2).as_int()?;
    let epoch = tuple.get(n - 1).as_int()?;
    Ok((Tuple::new(tuple.values()[..n - 2].to_vec()), mult, epoch))
}

impl ViewJoinBolt {
    /// Apply one signed delta of relation `rel` and emit its results.
    fn step(&mut self, rel: usize, tuple: &Tuple, out: &mut OutputCollector) -> Result<()> {
        let (base, mult, epoch) = split_delta(tuple)?;
        self.wbuf.clear();
        match &mut self.join {
            StandingJoin::Full(j) => j.delta(rel, &base, mult, &mut self.wbuf),
            StandingJoin::Windowed { join, ts_cols } => {
                if mult != 1 {
                    return Err(SquallError::Runtime(format!(
                        "windowed standing views are append-only (got a weight-{mult} delta)"
                    )));
                }
                let ts =
                    event_time(base.get(ts_cols[rel]).as_int()?, "on a windowed standing view")?;
                join.insert_weighted(rel, ts, &base, &mut self.wbuf);
            }
        }
        for (t, m) in self.wbuf.drain(..) {
            let mut v = t.values().to_vec();
            v.push(Value::Int(m));
            v.push(Value::Int(epoch));
            out.emit(Tuple::new(v));
        }
        if let Some(budget) = self.budget {
            let stored = match &self.join {
                StandingJoin::Full(j) => j.stored(),
                StandingJoin::Windowed { join, .. } => join.inner().stored(),
            };
            if stored > budget {
                return Err(SquallError::MemoryOverflow { machine: self.machine, stored, budget });
            }
        }
        Ok(())
    }
}

impl Bolt for ViewJoinBolt {
    fn execute_chunk(
        &mut self,
        origin: NodeId,
        chunk: &Chunk,
        out: &mut OutputCollector,
    ) -> Result<()> {
        let rel = *self
            .origin_to_rel
            .get(&origin)
            .ok_or_else(|| SquallError::Runtime(format!("unknown origin node {origin}")))?;
        chunk.rows().try_for_each(|tuple| self.step(rel, &tuple, out))
    }

    fn watermark(
        &mut self,
        origin: NodeId,
        _from_task: usize,
        ts: u64,
        out: &mut OutputCollector,
    ) -> Result<()> {
        let slot = self.frontiers.entry(origin).or_insert(0);
        *slot = (*slot).max(ts);
        if self.frontiers.len() < self.n_sources {
            return Ok(());
        }
        let w = self.frontiers.values().copied().min().unwrap_or(0);
        if w > self.forwarded {
            self.forwarded = w;
            out.emit_watermark(w);
        }
        Ok(())
    }

    /// Barrier alignment: snapshot this task's join state, ship the blob
    /// toward the coordinator's checkpoint store, and forward the barrier
    /// downstream. Alignment guarantees the state covers exactly the
    /// epochs up to the barrier's (no later input exists during a
    /// synchronous checkpoint round).
    fn barrier(&mut self, epoch: u64, out: &mut OutputCollector) -> Result<()> {
        if let Some(tx) = &self.blob_tx {
            let mut buf = Vec::new();
            match &self.join {
                StandingJoin::Full(j) => {
                    buf.push(JOIN_BLOB_FULL);
                    j.snapshot_state(&mut buf);
                }
                StandingJoin::Windowed { join, .. } => {
                    buf.push(JOIN_BLOB_WINDOWED);
                    join.snapshot_state(&mut buf);
                }
            }
            let _ = tx.send((ROLE_JOIN, self.machine, epoch, buf));
        }
        out.emit_barrier(epoch);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The view sink bolt
// ---------------------------------------------------------------------

enum SinkState {
    /// Plain projected multiset: nothing to keep locally, changes are
    /// netted per epoch and applied straight into the shared rows.
    Plain,
    /// Aggregate view: group-by state plus the currently published
    /// finalized row per group key.
    Agg {
        agg: GroupByAggregator,
        published: FxHashMap<Vec<Value>, Tuple>,
        /// Epoch 1 must evaluate the global-aggregate empty row even if
        /// the initial load is empty.
        primed: bool,
    },
}

/// The single sink task of a resident topology: buffers signed join
/// deltas per epoch, applies whole epochs once the minimum join-task
/// watermark releases them, and publishes the netted changes into the
/// [`ViewShared`] state.
pub struct ViewSinkBolt {
    plan: Arc<ViewPlan>,
    shared: Arc<ViewShared>,
    /// Deltas awaiting their epoch's release, in epoch order.
    pending: BTreeMap<u64, Vec<(Tuple, i64)>>,
    /// Latest watermark per upstream join task.
    frontiers: FxHashMap<(NodeId, usize), u64>,
    n_upstream: usize,
    applied: u64,
    state: SinkState,
    blob_tx: Option<Sender<SnapshotBlobMsg>>,
}

impl ViewSinkBolt {
    fn new(
        plan: Arc<ViewPlan>,
        shared: Arc<ViewShared>,
        n_upstream: usize,
        blob_tx: Option<Sender<SnapshotBlobMsg>>,
    ) -> ViewSinkBolt {
        let state = if plan.is_aggregate {
            SinkState::Agg {
                agg: GroupByAggregator::new(plan.group_cols.clone(), plan.aggs.clone()),
                published: FxHashMap::default(),
                primed: false,
            }
        } else {
            SinkState::Plain
        };
        ViewSinkBolt {
            plan,
            shared,
            pending: BTreeMap::new(),
            frontiers: FxHashMap::default(),
            n_upstream,
            applied: 0,
            state,
            blob_tx,
        }
    }

    /// Rebuild sink state from a checkpoint blob and resume at the
    /// checkpoint's epoch: replayed epochs at or below it are rejected by
    /// the late-delta gate, and re-derived epochs above it are recomputed
    /// deterministically (then deduplicated in [`ViewShared::publish`]).
    fn restore(&mut self, epoch: u64, blob: &[u8]) -> Result<()> {
        let mut r = Reader::new(blob);
        let kind = r.u8()?;
        match (&mut self.state, kind) {
            (SinkState::Plain, 0) => {}
            (SinkState::Agg { agg, published, primed }, 1) => {
                agg.restore_state(&mut r)?;
                published.clear();
                let n = r.len()?;
                for _ in 0..n {
                    let key = codec::get_tuple(&mut r)?.values().to_vec();
                    let row = codec::get_tuple(&mut r)?;
                    published.insert(key, row);
                }
                *primed = r.bool()?;
            }
            _ => return Err(SquallError::Codec("sink checkpoint blob kind mismatch".into())),
        }
        r.finish()?;
        self.applied = epoch;
        Ok(())
    }

    /// HAVING-gate and project one raw aggregate row into its published
    /// form; `None` when HAVING filters it.
    fn finalize_agg_row(plan: &ViewPlan, raw: &Tuple, synthetic: bool) -> Result<Option<Tuple>> {
        if let Some(h) = &plan.having {
            let pass = match h.eval_bool(raw) {
                Ok(p) => p,
                // SQL's unknown-is-false over the synthetic NULL row; a
                // predicate error over a *real* row is a real error.
                Err(_) if synthetic => false,
                Err(e) => return Err(e),
            };
            if !pass {
                return Ok(None);
            }
        }
        let mut values = Vec::with_capacity(plan.finalize.len());
        for e in &plan.finalize {
            values.push(e.eval(raw)?);
        }
        Ok(Some(Tuple::new(values)))
    }

    /// The windows a join result belongs to, as `(start, end)` pairs
    /// (mirrors the per-window aggregation bolt).
    fn windows_of(w: &ViewWindow, row: &Tuple) -> Result<Vec<(u64, u64)>> {
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &c in &w.ts_cols {
            let v = event_time(row.get(c).as_int()?, "in view sink input")?;
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Ok(match w.spec {
            WindowSpec::Tumbling { width } => {
                let start = hi / width * width;
                vec![(start, start + width - 1)]
            }
            WindowSpec::Sliding { size } => {
                (hi.saturating_sub(size)..=lo).map(|s| (s, s + size)).collect()
            }
            WindowSpec::FullHistory => {
                return Err(SquallError::Runtime(
                    "full-history window on a windowed view sink".into(),
                ))
            }
        })
    }

    /// Apply one epoch's deltas, returning the net row changes.
    fn apply_epoch(&mut self, deltas: Vec<(Tuple, i64)>) -> Result<Vec<(Tuple, i64)>> {
        let plan = Arc::clone(&self.plan);
        let mut net: FxHashMap<Tuple, i64> = FxHashMap::default();
        match &mut self.state {
            SinkState::Plain => {
                for (base, m) in &deltas {
                    let mut values = Vec::with_capacity(plan.finalize.len());
                    for e in &plan.finalize {
                        values.push(e.eval(base)?);
                    }
                    *net.entry(Tuple::new(values)).or_insert(0) += m;
                }
            }
            SinkState::Agg { agg, published, primed } => {
                let mut touched: FxHashSet<Vec<Value>> = FxHashSet::default();
                if !*primed {
                    *primed = true;
                    if plan.emit_empty_agg {
                        touched.insert(Vec::new());
                    }
                }
                for (base, m) in &deltas {
                    let inputs: Vec<Tuple> = match &plan.windowed {
                        None => vec![base.clone()],
                        Some(w) => Self::windows_of(w, base)?
                            .into_iter()
                            .map(|(s, e)| {
                                let mut v = Vec::with_capacity(base.arity() + 2);
                                v.push(Value::Int(s as i64));
                                v.push(Value::Int(e as i64));
                                v.extend(base.values().iter().cloned());
                                Tuple::new(v)
                            })
                            .collect(),
                    };
                    for input in &inputs {
                        touched.insert(input.key(&plan.group_cols));
                        if *m >= 0 {
                            for _ in 0..*m {
                                agg.update(input)?;
                            }
                        } else {
                            for _ in 0..-*m {
                                agg.retract(input)?;
                            }
                        }
                    }
                }
                for key in touched {
                    let (new, synthetic) = match agg.group(&key) {
                        Some(raw) => (Self::finalize_agg_row(&plan, &raw, false)?, false),
                        None if plan.emit_empty_agg && key.is_empty() => {
                            // A global aggregate with no rows still shows
                            // one row: COUNT = 0, NULL sums/averages.
                            let raw = Tuple::new(
                                plan.aggs
                                    .iter()
                                    .map(|a| match a.func {
                                        AggFunc::Count => Value::Int(0),
                                        _ => Value::Null,
                                    })
                                    .collect(),
                            );
                            (Self::finalize_agg_row(&plan, &raw, true)?, true)
                        }
                        None => (None, false),
                    };
                    let _ = synthetic;
                    let old = published.get(&key).cloned();
                    if old == new {
                        continue;
                    }
                    if let Some(o) = old {
                        *net.entry(o).or_insert(0) -= 1;
                    }
                    match new {
                        Some(n) => {
                            *net.entry(n.clone()).or_insert(0) += 1;
                            published.insert(key, n);
                        }
                        None => {
                            published.remove(&key);
                        }
                    }
                }
            }
        }
        Ok(net.into_iter().filter(|(_, m)| *m != 0).collect())
    }

    /// Apply and publish every pending epoch ≤ `w`, then advance the
    /// applied watermark to `w` itself (epochs with no deltas still
    /// unblock snapshot waiters).
    fn apply_through(&mut self, w: u64) -> Result<()> {
        while let Some((&epoch, _)) = self.pending.first_key_value() {
            if epoch > w {
                break;
            }
            let deltas = self.pending.remove(&epoch).expect("first key present");
            let changes = self.apply_epoch(deltas)?;
            let counter = if self.shared.publish(epoch, changes) {
                &self.shared.counters.epochs_applied
            } else {
                &self.shared.counters.replayed_epochs
            };
            counter.fetch_add(1, Ordering::Relaxed);
            self.applied = epoch;
        }
        if self.applied < w {
            self.applied = w;
            self.shared.publish(w, Vec::new());
        }
        Ok(())
    }
}

impl Bolt for ViewSinkBolt {
    fn execute_chunk(
        &mut self,
        _origin: NodeId,
        chunk: &Chunk,
        _out: &mut OutputCollector,
    ) -> Result<()> {
        for tuple in chunk.rows() {
            let (base, mult, epoch) = split_delta(&tuple)?;
            let epoch = epoch as u64;
            if epoch <= self.applied {
                return Err(SquallError::Runtime(format!(
                    "late delta for already-applied epoch {epoch} (applied {})",
                    self.applied
                )));
            }
            self.shared.counters.deltas_in.fetch_add(1, Ordering::Relaxed);
            self.pending.entry(epoch).or_default().push((base, mult));
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
        let slot = self.frontiers.entry((origin, from_task)).or_insert(0);
        *slot = (*slot).max(ts);
        if self.frontiers.len() < self.n_upstream {
            return Ok(());
        }
        let w = self.frontiers.values().copied().min().unwrap_or(0);
        self.apply_through(w)
    }

    fn finish(&mut self, _out: &mut OutputCollector) -> Result<()> {
        // During a recovery teardown the pending buffer may hold *partial*
        // epochs (the lost worker's deltas never arrived): flushing them
        // would corrupt the rows the restarted topology re-derives.
        if self.shared.recovering.load(Ordering::SeqCst) {
            return Ok(());
        }
        // DROP: every queue is closed and drained, so everything pending
        // is final; the u64::MAX advance unblocks any waiter racing the
        // shutdown.
        self.apply_through(u64::MAX)
    }

    /// Barrier alignment: per-sender FIFO means every delta and watermark
    /// of the barrier's epoch already arrived, so `applied` equals the
    /// barrier epoch and the state is exactly the view through it.
    fn barrier(&mut self, epoch: u64, _out: &mut OutputCollector) -> Result<()> {
        debug_assert_eq!(self.applied, epoch, "sink aligned before applying the epoch");
        if let Some(tx) = &self.blob_tx {
            let mut buf = Vec::new();
            match &self.state {
                SinkState::Plain => buf.push(0u8),
                SinkState::Agg { agg, published, primed } => {
                    buf.push(1u8);
                    agg.snapshot_state(&mut buf);
                    let mut keys: Vec<&Vec<Value>> = published.keys().collect();
                    keys.sort();
                    codec::put_u32(&mut buf, keys.len() as u32);
                    for key in keys {
                        codec::put_tuple(&mut buf, &Tuple::new(key.clone()));
                        codec::put_tuple(&mut buf, &published[key]);
                    }
                    codec::put_bool(&mut buf, *primed);
                }
            }
            let _ = tx.send((ROLE_SINK, 0, epoch, buf));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Assembly & launch
// ---------------------------------------------------------------------

/// Append the `[multiplicity, epoch]` bookkeeping columns to a payload
/// row.
fn tag_delta(row: &Tuple, mult: i64, epoch: u64) -> Tuple {
    let mut v = row.values().to_vec();
    v.push(Value::Int(mult));
    v.push(Value::Int(epoch as i64));
    Tuple::new(v)
}

/// Build the resident topology for one standing view: live-queue spouts
/// (preloaded with the initial data as epoch-1 deltas), the delta join,
/// and the single view sink. `coordinator` carries the view plan and
/// shared state on the coordinator; workers pass `None` — their spout
/// and sink factories are never invoked (spouts and parallelism-1 bolts
/// are pinned to peer 0 by `plan_placement`).
///
/// `restore` rebuilds every operator from a checkpoint instead of
/// starting empty (the epoch-1 preload is then suppressed — recovery
/// replays buffered rounds with their original epochs). `blob_tx` is
/// where operators ship their checkpoint blobs at barrier alignment.
pub fn assemble_standing(
    spec: &MultiJoinSpec,
    data: Vec<Vec<Tuple>>,
    cfg: &MultiwayConfig,
    coordinator: Option<(Arc<ViewPlan>, Arc<ViewShared>)>,
    restore: Option<Arc<RestoreState>>,
    blob_tx: Option<Sender<SnapshotBlobMsg>>,
) -> Result<(Topology, Vec<Arc<LiveQueue>>, StandingLayout)> {
    validate_plan(spec, data.len(), cfg)?;
    let mut b = TopologyBuilder::new().batch_size(cfg.batch_size.max(1));
    if let Some(workers) = cfg.worker_threads {
        b = b.worker_threads(workers);
    }

    // One live queue + one spout task per relation, preloaded with the
    // initial load as epoch-1 deltas and the epoch-1 watermark.
    let mut queues = Vec::with_capacity(spec.n_relations());
    let mut source_nodes = Vec::with_capacity(spec.n_relations());
    for (rel, tuples) in data.into_iter().enumerate() {
        let queue = Arc::new(LiveQueue::new());
        if restore.is_none() {
            for t in &tuples {
                queue.push(LiveItem::Delta(tag_delta(t, 1, 1)));
            }
            queue.push(LiveItem::Watermark(1));
        }
        let q = Arc::clone(&queue);
        let node = b.add_spout(format!("src-{}", spec.relations[rel].name), 1, move |_task| {
            Box::new(LiveSpout::new(Arc::clone(&q)))
        });
        queues.push(queue);
        source_nodes.push(node);
    }

    // The delta join. A single relation needs no partitioning scheme:
    // DBToaster's n=1 delta emission is the identity, so one task with a
    // global grouping suffices.
    let n_rel = spec.n_relations();
    let machines = if n_rel == 1 { 1 } else { cfg.machines.max(1) };
    let origin_map: FxHashMap<usize, usize> =
        source_nodes.iter().enumerate().map(|(rel, &node)| (node, rel)).collect();
    let origin_map = Arc::new(origin_map);
    let spec_arc = Arc::new(spec.clone());
    let window = cfg.window.clone();
    let budget = cfg.budget;
    let (scheme, scheme_description) = if n_rel == 1 {
        (None, "single-relation identity".to_string())
    } else {
        let s = Arc::new(build_scheme(cfg.scheme, spec, machines, cfg.seed)?);
        let d = s.describe();
        (Some(s), d)
    };
    let join_restore = restore.clone();
    let join_blob_tx = blob_tx.clone();
    let join_node = b.add_bolt("join", machines, move |task| {
        let origin_to_rel: FxHashMap<usize, usize> =
            origin_map.iter().map(|(&k, &v)| (k, v)).collect();
        let inner = DBToasterJoin::new(&spec_arc);
        let join = match &window {
            Some(w) => {
                let arities: Vec<usize> =
                    spec_arc.relations.iter().map(|r| r.schema.arity()).collect();
                StandingJoin::Windowed {
                    join: WindowJoin::event_time(inner, w.spec, &arities, &w.ts_cols),
                    ts_cols: w.ts_cols.clone(),
                }
            }
            None => StandingJoin::Full(inner),
        };
        let mut bolt =
            ViewJoinBolt::new(task, origin_to_rel, join, n_rel, budget, join_blob_tx.clone());
        if let Some(rs) = &join_restore {
            if let Some(blob) = rs.join.get(&task) {
                // Blobs are self-produced (and byte-checked by recovery):
                // failing to parse one is a bug, not an input error.
                bolt.restore(blob).expect("restore self-produced join checkpoint blob");
            }
        }
        Box::new(bolt)
    });
    for (rel, &src) in source_nodes.iter().enumerate() {
        let grouping = match &scheme {
            Some(s) => Grouping::Custom(Arc::new(s.grouping_for(rel))),
            None => Grouping::Global,
        };
        b.connect(src, join_node, grouping);
    }

    // The view sink: one task, pinned to the coordinator.
    let sink_restore = restore;
    let sink_node = b.add_bolt("view", 1, move |_task| match &coordinator {
        Some((plan, shared)) => {
            let mut bolt =
                ViewSinkBolt::new(Arc::clone(plan), Arc::clone(shared), machines, blob_tx.clone());
            if let Some(rs) = &sink_restore {
                if let Some(blob) = &rs.sink {
                    bolt.restore(rs.epoch, blob)
                        .expect("restore self-produced sink checkpoint blob");
                }
            }
            Box::new(bolt)
        }
        None => unreachable!(
            "view sink runs at parallelism 1, which plan_placement pins to the coordinator"
        ),
    });
    b.connect(join_node, sink_node, Grouping::Global);

    Ok((
        b.build()?,
        queues,
        StandingLayout { source_nodes, join_node, join_tasks: machines, scheme_description },
    ))
}

/// Node ids (and the chosen scheme) of an assembled standing topology —
/// what the shutdown report is computed over.
pub struct StandingLayout {
    pub source_nodes: Vec<NodeId>,
    pub join_node: NodeId,
    /// Join-task (machine) count — how many join blobs a checkpoint needs.
    pub join_tasks: usize,
    pub scheme_description: String,
}

/// Launch a resident topology for one standing view, locally or across
/// the session's cluster. The returned handle feeds deltas, serves
/// snapshots and tears the view down on drop of the view (via
/// [`StandingHandle::shutdown`]).
pub fn launch_standing(
    spec: &MultiJoinSpec,
    data: Vec<Vec<Tuple>>,
    cfg: &MultiwayConfig,
    plan: ViewPlan,
    shared: Arc<ViewShared>,
) -> Result<StandingHandle> {
    debug_assert!(cfg.standing, "launch_standing needs cfg.standing");
    let input_count: u64 = data.iter().map(|d| d.len() as u64).sum();
    let plan = Arc::new(plan);
    // Recovery replays the initial load from scratch when no checkpoint
    // completed yet, so clustered runs keep a copy.
    let initial_data = if cfg.cluster.is_some() { data.clone() } else { Vec::new() };
    let (blob_tx, blob_rx) = std::sync::mpsc::channel();
    let blob_tx = (cfg.checkpoint_interval > 0).then_some(blob_tx);
    let (topology, queues, layout) = assemble_standing(
        spec,
        data,
        cfg,
        Some((Arc::clone(&plan), Arc::clone(&shared))),
        None,
        blob_tx.clone(),
    )?;
    let (handle, cluster) =
        crate::cluster::launch(topology, spec, cfg, blob_tx.clone(), None, None)?;
    let waker = handle.waker();
    let store = CheckpointStore::new(layout.join_tasks);
    Ok(StandingHandle {
        queues,
        shared,
        waker,
        handle: Some(handle),
        cluster,
        layout,
        input_count,
        issued: 1,
        start: Instant::now(),
        spec: spec.clone(),
        cfg: cfg.clone(),
        plan,
        initial_data,
        replay: Vec::new(),
        store,
        blob_rx: blob_tx.is_some().then_some(blob_rx),
    })
}

/// One signed delta round for [`StandingHandle::apply`]: the relation
/// index, the (already source-transformed) payload rows, and the weight
/// (+1 append, −1 retract).
pub type DeltaRound = (usize, Vec<Tuple>, i64);

/// The coordinator-side handle of one resident view topology.
pub struct StandingHandle {
    queues: Vec<Arc<LiveQueue>>,
    shared: Arc<ViewShared>,
    waker: TaskWaker,
    /// `None` only transiently, inside [`StandingHandle::recover`].
    handle: Option<RunHandle>,
    cluster: Option<ClusterRun>,
    layout: StandingLayout,
    input_count: u64,
    /// Latest issued epoch (initial load = 1).
    issued: u64,
    start: Instant,
    /// What recovery needs to re-assemble the topology.
    spec: MultiJoinSpec,
    cfg: MultiwayConfig,
    plan: Arc<ViewPlan>,
    /// Clustered runs only: the initial load, replayed when no checkpoint
    /// completed before a failure.
    initial_data: Vec<Vec<Tuple>>,
    /// Rounds issued since the last complete checkpoint, with their
    /// epochs — the replay log of recovery.
    replay: Vec<(u64, Vec<DeltaRound>)>,
    store: CheckpointStore,
    blob_rx: Option<Receiver<SnapshotBlobMsg>>,
}

impl StandingHandle {
    /// The view's shared state (snapshots, subscriptions, counters).
    pub fn shared(&self) -> &Arc<ViewShared> {
        &self.shared
    }

    /// Latest issued epoch.
    pub fn issued_epoch(&self) -> u64 {
        self.issued
    }

    /// Number of source relations.
    pub fn n_relations(&self) -> usize {
        self.queues.len()
    }

    /// The partitioning scheme the resident join runs under.
    pub fn scheme_description(&self) -> &str {
        &self.layout.scheme_description
    }

    /// Feed one round of signed deltas as a new epoch: payload rows go
    /// to their relations' queues, the epoch watermark to *every* queue,
    /// and the (parked) spout tasks are woken. Returns the issued epoch;
    /// a subsequent [`StandingHandle::snapshot`] observes it.
    pub fn apply(&mut self, rounds: Vec<DeltaRound>) -> Result<u64> {
        let epoch = self.issued + 1;
        // Clustered runs log every round until a checkpoint covers it —
        // the replay input of recovery.
        if self.cluster.is_some() && self.cfg.checkpoint_interval > 0 {
            self.replay.push((epoch, rounds.clone()));
        }
        let mut retracts = false;
        for (rel, rows, mult) in rounds {
            if rel >= self.queues.len() {
                return Err(SquallError::Runtime(format!("relation {rel} out of range")));
            }
            if mult < 0 {
                retracts = true;
            }
            for row in rows {
                self.queues[rel].push(LiveItem::Delta(tag_delta(&row, mult, epoch)));
            }
        }
        for q in &self.queues {
            q.push(LiveItem::Watermark(epoch));
        }
        self.issued = epoch;
        if retracts {
            self.shared.counters.retractions.fetch_add(1, Ordering::Relaxed);
        } else {
            self.shared.counters.appends.fetch_add(1, Ordering::Relaxed);
        }
        // Spouts are the first nodes added: their task ids are 0..n.
        for t in 0..self.queues.len() {
            self.waker.wake(t);
        }
        if self.cfg.checkpoint_interval > 0 && epoch.is_multiple_of(self.cfg.checkpoint_interval) {
            self.checkpoint(epoch);
        }
        Ok(epoch)
    }

    /// One synchronous checkpoint round: inject an aligned barrier behind
    /// epoch `epoch`'s watermark and block until every operator's blob
    /// lands (or a generous deadline passes — the checkpoint then stays
    /// partial and recovery falls back, possibly via §5 peer
    /// reconstruction). Blocking keeps barriers trivially aligned: no
    /// epoch-`e+1` delta exists anywhere while the epoch-`e` snapshot is
    /// taken, so operator state is exactly the view through `e`.
    fn checkpoint(&mut self, epoch: u64) {
        let Some(rx) = self.blob_rx.as_ref() else { return };
        for q in &self.queues {
            q.push(LiveItem::Barrier(epoch));
        }
        for t in 0..self.queues.len() {
            self.waker.wake(t);
        }
        let deadline = Instant::now() + CHECKPOINT_DEADLINE;
        while !self.store.is_complete(epoch) {
            if Instant::now() >= deadline {
                break;
            }
            if self.handle.as_ref().and_then(|h| h.error()).is_some() {
                break; // dead topology: the error surfaces via error()
            }
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(msg) => self.store.insert(msg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        if self.store.is_complete(epoch) {
            self.shared.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
            self.store.trim_below(epoch);
            self.replay.retain(|(e, _)| *e > epoch);
        }
    }

    /// A consistent snapshot of the view rows (multiplicities expanded,
    /// unsorted): waits until every issued epoch is applied —
    /// read-your-writes for every acked append/retract.
    pub fn snapshot(&self, timeout: Duration) -> Result<Vec<Tuple>> {
        self.shared.snapshot_rows(self.issued, timeout, || self.error())
    }

    /// Subscribe to the change stream.
    pub fn subscribe(&self) -> Receiver<ChangeBatch> {
        self.shared.subscribe()
    }

    /// The error that aborted the resident run, if any — a lost cluster
    /// peer surfaces here as [`SquallError::WorkerLost`].
    pub fn error(&self) -> Option<SquallError> {
        self.handle.as_ref().and_then(|h| h.error())
    }

    /// Restart the view on `cluster` after a failure (typically a
    /// [`SquallError::WorkerLost`] from [`StandingHandle::error`]): tear
    /// the dead run down, restore every operator from the freshest usable
    /// checkpoint — completing a partial one from §5 peer replicas when
    /// the scheme replicates — and replay the rounds issued since, with
    /// their original epochs. The shared view state (rows, subscribers,
    /// applied watermark) persists across the restart, and replayed
    /// epochs dedup against it: subscribers see every change exactly
    /// once.
    pub fn recover(&mut self, cluster: ClusterSpec) -> Result<()> {
        if self.cfg.cluster.is_none() {
            return Err(SquallError::Runtime(
                "recover() applies to clustered standing views".into(),
            ));
        }
        // Tear the dead run down. The sink must not flush partial epochs
        // into the shared rows while the cascade drains.
        self.shared.recovering.store(true, Ordering::SeqCst);
        for q in &self.queues {
            q.close();
        }
        for t in 0..self.queues.len() {
            self.waker.wake(t);
        }
        if let Some(handle) = self.handle.take() {
            let _ = crate::cluster::finish(handle, self.cluster.take());
        }
        if let Some(rx) = self.blob_rx.as_ref() {
            // Blobs that arrived after the last checkpoint wait (e.g. a
            // straggler completing a previously-partial epoch).
            while let Ok(msg) = rx.try_recv() {
                self.store.insert(msg);
            }
        }
        self.shared.recovering.store(false, Ordering::SeqCst);

        // Prefer the newest checkpoint, completing a partial one from the
        // surviving replicas when the partitioning makes that sound (§5).
        let n_rel = self.spec.n_relations();
        if n_rel > 1 {
            if let Ok(scheme) =
                build_scheme(self.cfg.scheme, &self.spec, self.layout.join_tasks, self.cfg.seed)
            {
                self.store.reconstruct_newest(&scheme, n_rel);
            }
        }
        let restore =
            self.store.latest_complete().and_then(|e| self.store.restore_state(e)).map(Arc::new);
        let resume = restore.as_ref().map(|r| r.epoch).unwrap_or(0);

        // Relaunch on the new cluster, restored; no checkpoint yet means
        // replaying everything from the initial load.
        self.cfg.cluster = Some(cluster);
        let data =
            if restore.is_some() { vec![Vec::new(); n_rel] } else { self.initial_data.clone() };
        let (tx, rx) = std::sync::mpsc::channel();
        let blob_tx = (self.cfg.checkpoint_interval > 0).then_some(tx);
        let (topology, queues, layout) = assemble_standing(
            &self.spec,
            data,
            &self.cfg,
            Some((Arc::clone(&self.plan), Arc::clone(&self.shared))),
            restore.clone(),
            blob_tx.clone(),
        )?;
        let (handle, run) = crate::cluster::launch(
            topology,
            &self.spec,
            &self.cfg,
            blob_tx.clone(),
            restore.as_deref(),
            Some(resume),
        )?;
        self.waker = handle.waker();
        self.handle = Some(handle);
        self.cluster = run;
        self.queues = queues;
        self.layout = layout;
        self.blob_rx = blob_tx.is_some().then_some(rx);
        self.shared.counters.recoveries.fetch_add(1, Ordering::Relaxed);

        // Replay every round after the restored checkpoint with its
        // original epoch and watermark; no barriers — the rounds stay in
        // the log until a fresh checkpoint covers them.
        self.replay.retain(|(e, _)| *e > resume);
        for (epoch, rounds) in &self.replay {
            for (rel, rows, mult) in rounds {
                for row in rows {
                    self.queues[*rel].push(LiveItem::Delta(tag_delta(row, *mult, *epoch)));
                }
            }
            for q in &self.queues {
                q.push(LiveItem::Watermark(*epoch));
            }
        }
        for t in 0..self.queues.len() {
            self.waker.wake(t);
        }
        Ok(())
    }

    /// Close every source queue and drain the shutdown cascade,
    /// returning the view's final lifetime report (loads, maintenance
    /// counters, wire traffic under a cluster).
    pub fn shutdown(self) -> JoinReport {
        let StandingHandle {
            queues,
            shared,
            waker,
            handle,
            cluster,
            layout,
            input_count,
            start,
            ..
        } = self;
        let handle = handle.expect("handle present outside recover()");
        for q in &queues {
            q.close();
        }
        for t in 0..queues.len() {
            waker.wake(t);
        }
        let (outcome, transport) = crate::cluster::finish(handle, cluster);
        let metrics = &outcome.metrics;
        let join_metrics = metrics.node(layout.join_node);
        let loads = join_metrics.received.clone();
        JoinReport {
            results: Vec::new(),
            result_count: join_metrics.total_emitted(),
            input_count,
            input_counts: Vec::new(),
            loads,
            replication_factor: metrics.replication_factor(layout.join_node, &layout.source_nodes),
            skew_degree: metrics.node(layout.join_node).skew_degree(),
            network_factor: 0.0,
            elapsed: start.elapsed(),
            scheme_description: layout.scheme_description,
            scheduler: outcome.metrics.scheduler.clone(),
            error: outcome.error,
            transport,
            maintenance: Some(shared.stats()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::{tuple, DataType, Schema};
    use squall_expr::{JoinAtom, RelationDef};
    use squall_partition::optimizer::SchemeKind;

    use crate::driver::LocalJoinKind;

    fn pair_spec() -> MultiJoinSpec {
        let s = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
        MultiJoinSpec::new(
            vec![RelationDef::new("R", s.clone(), 10), RelationDef::new("S", s, 10)],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap()
    }

    fn plain_plan(arity: usize) -> ViewPlan {
        ViewPlan {
            group_cols: vec![],
            aggs: vec![],
            is_aggregate: false,
            having: None,
            finalize: (0..arity).map(ScalarExpr::col).collect(),
            emit_empty_agg: false,
            windowed: None,
        }
    }

    fn standing_cfg() -> MultiwayConfig {
        let mut cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2);
        cfg.standing = true;
        cfg
    }

    #[test]
    fn resident_join_view_applies_appends_and_retractions() {
        let spec = pair_spec();
        let data = vec![vec![tuple![1, 10]], vec![tuple![1, 100]]];
        let shared = Arc::new(ViewShared::new());
        let mut h =
            launch_standing(&spec, data, &standing_cfg(), plain_plan(4), Arc::clone(&shared))
                .unwrap();
        let mut rows = h.snapshot(Duration::from_secs(5)).unwrap();
        rows.sort();
        assert_eq!(rows, vec![tuple![1, 10, 1, 100]]);

        // Append a matching S row: one new join result.
        h.apply(vec![(1, vec![tuple![1, 200]], 1)]).unwrap();
        let mut rows = h.snapshot(Duration::from_secs(5)).unwrap();
        rows.sort();
        assert_eq!(rows, vec![tuple![1, 10, 1, 100], tuple![1, 10, 1, 200]]);

        // Retract the original R row: both results vanish.
        h.apply(vec![(0, vec![tuple![1, 10]], -1)]).unwrap();
        assert!(h.snapshot(Duration::from_secs(5)).unwrap().is_empty());

        let report = h.shutdown();
        assert!(report.error.is_none(), "{:?}", report.error);
        let m = report.maintenance.expect("standing run reports maintenance");
        assert_eq!(m.appends, 1);
        assert_eq!(m.retractions, 1);
        assert_eq!(m.epochs_applied, 3);
        assert!(m.snapshots >= 3);
    }

    #[test]
    fn aggregate_view_diffs_published_groups() {
        let spec = pair_spec();
        // COUNT(*) GROUP BY R.a over the join; finalize = (key, count).
        let plan = ViewPlan {
            group_cols: vec![0],
            aggs: vec![AggSpec::count()],
            is_aggregate: true,
            having: None,
            finalize: vec![ScalarExpr::col(0), ScalarExpr::col(1)],
            emit_empty_agg: false,
            windowed: None,
        };
        let data = vec![vec![tuple![1, 10], tuple![2, 20]], vec![tuple![1, 100]]];
        let shared = Arc::new(ViewShared::new());
        // Subscribe before launch so the epoch-1 batch is observed too.
        let rx = shared.subscribe();
        let mut h =
            launch_standing(&spec, data, &standing_cfg(), plan, Arc::clone(&shared)).unwrap();
        assert_eq!(h.snapshot(Duration::from_secs(5)).unwrap(), vec![tuple![1, 1]]);

        h.apply(vec![(1, vec![tuple![2, 200], tuple![1, 101]], 1)]).unwrap();
        let mut rows = h.snapshot(Duration::from_secs(5)).unwrap();
        rows.sort();
        assert_eq!(rows, vec![tuple![1, 2], tuple![2, 1]]);

        // Change stream: epoch 1 (+[1,1]) then epoch 2 (−[1,1] +[1,2] +[2,1]).
        let b1 = rx.recv().unwrap();
        assert_eq!(b1.epoch, 1);
        assert_eq!(b1.changes, vec![(tuple![1, 1], 1)]);
        let b2 = rx.recv().unwrap();
        assert_eq!(b2.epoch, 2);
        let mut ch = b2.changes.clone();
        ch.sort();
        assert_eq!(ch, vec![(tuple![1, 1], -1), (tuple![1, 2], 1), (tuple![2, 1], 1)]);

        let report = h.shutdown();
        assert!(report.error.is_none(), "{:?}", report.error);
    }

    #[test]
    fn resident_view_survives_appends_over_loopback_tcp() {
        use crate::cluster::{serve_job, ClusterSpec};
        use std::net::TcpListener;

        let mut addrs = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..2 {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            addrs.push(listener.local_addr().unwrap().to_string());
            workers.push(std::thread::spawn(move || serve_job(&listener).unwrap()));
        }

        let spec = pair_spec();
        let data = vec![vec![tuple![1, 10]], vec![tuple![1, 100]]];
        let mut cfg = standing_cfg();
        cfg.cluster = Some(ClusterSpec::new(addrs));
        let shared = Arc::new(ViewShared::new());
        let mut h = launch_standing(&spec, data, &cfg, plain_plan(4), Arc::clone(&shared)).unwrap();
        assert_eq!(h.snapshot(Duration::from_secs(10)).unwrap(), vec![tuple![1, 10, 1, 100]]);
        h.apply(vec![(1, vec![tuple![1, 200]], 1)]).unwrap();
        h.apply(vec![(0, vec![tuple![1, 10]], -1)]).unwrap();
        h.apply(vec![(0, vec![tuple![2, 20]], 1), (1, vec![tuple![2, 300]], 1)]).unwrap();
        let mut rows = h.snapshot(Duration::from_secs(10)).unwrap();
        rows.sort();
        assert_eq!(rows, vec![tuple![2, 20, 2, 300]]);
        let report = h.shutdown();
        assert!(report.error.is_none(), "{:?}", report.error);
        assert!(report.transport.is_some(), "ran over the wire");
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn single_relation_view_is_supported() {
        let s = Schema::of(&[("a", DataType::Int)]);
        let spec = MultiJoinSpec::new(vec![RelationDef::new("R", s, 4)], vec![]).unwrap();
        let shared = Arc::new(ViewShared::new());
        let mut h = launch_standing(
            &spec,
            vec![vec![tuple![1], tuple![2]]],
            &standing_cfg(),
            plain_plan(1),
            Arc::clone(&shared),
        )
        .unwrap();
        h.apply(vec![(0, vec![tuple![3]], 1)]).unwrap();
        h.apply(vec![(0, vec![tuple![2]], -1)]).unwrap();
        let mut rows = h.snapshot(Duration::from_secs(5)).unwrap();
        rows.sort();
        assert_eq!(rows, vec![tuple![1], tuple![3]]);
        assert!(h.shutdown().error.is_none());
    }
}
