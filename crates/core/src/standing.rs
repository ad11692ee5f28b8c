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
//!   [`squall_join::DBToasterJoin::delta`], whose output weights are the
//!   exact signed change of the join result multiset.
//! * **epoch** — which `append()`/`retract()` round produced the delta.
//!   The topology launches empty and the initial load is round 1, fed like
//!   any other; every later round bumps the counter. A round is queued
//!   whole, one item per relation it touches, and an epoch watermark goes
//!   to *all* queues; each spout appends the two columns as it reads the
//!   round's rows in place.
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
//! ## Recovery
//!
//! A clustered view keeps every round no complete checkpoint covers in its
//! replay log, round 1 included; with checkpoints off that is every round,
//! as many rows as the catalog holds. [`StandingHandle::recover`] restores
//! every operator from one restore state ([`CheckpointStore::restart`]: a
//! §5 re-route, a complete checkpoint, or nothing) and replays the log
//! after it.
//!
//! `DROP MATERIALIZED VIEW` closes the queues; the spouts report Eos on
//! their next poll and the ordinary flush/punctuate shutdown cascade
//! tears the topology down — locally and across cluster workers alike.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use squall_common::codec::{self, Reader};
use squall_common::{Chunk, FxHashMap, Result, SquallError, Tuple, Value};
use squall_expr::MultiJoinSpec;
use squall_join::{GroupByAggregator, Snapshot, WindowSpec};
use squall_partition::optimizer::build_scheme;
use squall_runtime::transport::SnapshotBlobMsg;
use squall_runtime::{
    Bolt, ClusterRun, Grouping, LiveItem, LiveQueue, LiveSpout, NodeId, OutputCollector, RunHandle,
    RunOutcome, Source, Spout, TaskWaker, Topology, TransportStats,
};

use crate::checkpoint::{
    check_join_blob, CheckpointStore, DeltaLog, RestoreState, JOIN_BLOB_FULL, ROLE_JOIN, ROLE_SINK,
};
use crate::cluster::ClusterSpec;
use crate::driver::{
    summarize, wire_join_stage, JoinReport, MaintenanceStats, MultiwayConfig, RunContext,
};
use crate::operators::{result_windows, window_key, Finalizer, Frontier, JoinState, TaskJoin};

/// How long a synchronous checkpoint round waits for all blobs before
/// proceeding with a partial checkpoint (recovery then falls back to the
/// last complete one, or completes this one from peer replicas).
const CHECKPOINT_DEADLINE: Duration = Duration::from_secs(30);

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
    checkpoint_bytes: AtomicU64,
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
    fn snapshot_rows(
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
        let mut out = Vec::with_capacity(st.rows.values().map(|&m| m.max(0) as usize).sum());
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
            checkpoint_bytes: self.counters.checkpoint_bytes.load(Ordering::Relaxed),
            recoveries: self.counters.recoveries.load(Ordering::Relaxed),
            replayed_epochs: self.counters.replayed_epochs.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// The delta join bolt
// ---------------------------------------------------------------------

/// One join task of a resident topology: strips the trailing
/// `[multiplicity, epoch]` columns, applies the signed delta to its
/// local join state, re-emits each result with the triggering epoch, and
/// forwards the minimum source-epoch watermark downstream.
/// A run of deltas held for its turn: its relation, its payload rows back to
/// back, and their weights.
type HeldRun = (usize, Vec<Value>, Vec<i64>);

struct ViewJoinBolt {
    /// Full-history: DBToaster's delta processing with signed weights.
    /// Windowed: insertions only (windowed standing views are append-only).
    join: TaskJoin,
    /// The minimum epoch watermark across the source spouts.
    frontier: Frontier,
    /// Last minimum forwarded to the sink.
    forwarded: u64,
    /// Runs of deltas that arrived ahead of their turn, by epoch. A result
    /// delta carries its arrival's epoch, so a run of epoch `e` may join
    /// only state through epoch `e`: it waits until every source has
    /// promised `e - 1`. Spouts are separate tasks, so one relation's
    /// later round can overtake another's earlier one.
    held: BTreeMap<u64, Vec<HeldRun>>,
    /// One result delta with its `[multiplicity, epoch]` columns, reused
    /// from delta to delta.
    tagged: Vec<Value>,
    /// The payloads and weights of one run of a chunk's deltas that share
    /// an epoch, reused from run to run.
    rows: Vec<Value>,
    mults: Vec<i64>,
    /// The rows a windowed run evicts, logged negated, held until the
    /// run's own rows are logged; reused from run to run.
    gone: DeltaLog,
    /// Checkpoint blob channel (local on the coordinator; forwarded as
    /// `SnapshotBlob` frames by the worker). `None` = checkpoints off.
    blob_tx: Option<Sender<SnapshotBlobMsg>>,
    /// With checkpoints on: the signed base rows applied since the last
    /// barrier — the next checkpoint blob. A windowed task logs each
    /// arrival as +1 and each row its window evicts as −1.
    log: DeltaLog,
}

impl ViewJoinBolt {
    /// `since` is the epoch the task's state starts at: its restore epoch,
    /// or 0.
    fn new(
        join: TaskJoin,
        n_sources: usize,
        blob_tx: Option<Sender<SnapshotBlobMsg>>,
        since: u64,
    ) -> ViewJoinBolt {
        ViewJoinBolt {
            join,
            frontier: Frontier::new(n_sources),
            forwarded: since,
            held: BTreeMap::new(),
            tagged: Vec::new(),
            rows: Vec::new(),
            mults: Vec::new(),
            gone: DeltaLog::new(n_sources, since),
            blob_tx,
            log: DeltaLog::new(n_sources, since),
        }
    }

    /// Rebuild join state from a [`JOIN_BLOB_FULL`] checkpoint blob.
    fn restore(&mut self, blob: &[u8]) -> Result<()> {
        let mut r = Reader::new(blob);
        if r.u8()? != JOIN_BLOB_FULL {
            return Err(SquallError::Codec("not a full join checkpoint blob".into()));
        }
        match &mut self.join.state {
            JoinState::Full(j) => j.restore_state(&mut r)?,
            JoinState::Windowed { join, .. } => join.restore_state(&mut r)?,
        }
        r.finish()
    }

    /// Apply the signed deltas of a chunk of relation `rel`, each row its
    /// payload followed by `[multiplicity, epoch]`, handing each of their
    /// result deltas to `emit` as a row tagged with its delta's epoch. Each
    /// run of rows that share an epoch is copied into reused buffers and
    /// applied as one batch if its epoch is at most `turn`, or held until
    /// its turn comes (see `held`). A chunk of another width applies
    /// nothing and is a typed error.
    fn apply_in_turn(
        &mut self,
        rel: usize,
        chunk: &Chunk,
        turn: u64,
        emit: &mut dyn FnMut(&[Value]),
    ) -> Result<()> {
        self.join.check_width(rel, chunk, 2)?;
        let arity = chunk.n_cols() - 2;
        let epoch_of = |i: usize| chunk.row(i)[arity + 1].as_int();
        let mut next = 0;
        while next < chunk.n_rows() {
            let epoch = epoch_of(next)?;
            self.rows.clear();
            self.mults.clear();
            while next < chunk.n_rows() && epoch_of(next)? == epoch {
                let (payload, tags) = chunk.row(next).split_at(arity);
                self.rows.extend_from_slice(payload);
                self.mults.push(tags[0].as_int()?);
                next += 1;
            }
            if epoch as u64 > turn {
                let run = (rel, std::mem::take(&mut self.rows), std::mem::take(&mut self.mults));
                self.held.entry(epoch as u64).or_default().push(run);
            } else {
                self.apply_run(rel, epoch, emit)?;
            }
        }
        Ok(())
    }

    /// Apply the held runs of epochs through `epoch`, in epoch order.
    fn release(&mut self, epoch: u64, emit: &mut dyn FnMut(&[Value])) -> Result<()> {
        while let Some(turn) = self.held.first_entry().filter(|turn| *turn.key() <= epoch) {
            let epoch = *turn.key() as i64;
            for (rel, rows, mults) in turn.remove() {
                (self.rows, self.mults) = (rows, mults);
                self.apply_run(rel, epoch, emit)?;
            }
        }
        Ok(())
    }

    /// Apply the run of relation `rel` in the reused buffers, all of epoch
    /// `epoch`, in one call: under full history to the delta body with
    /// per-row weights, under a window to its insert, which cuts the run
    /// between eviction boundaries itself. The rows a windowed run evicts
    /// are logged negated with its epoch, after the run's own rows: an
    /// eviction may take a row of the same run, and the store's fold drops
    /// a row's −1 that lands before its +1. The §7.3 budget is checked
    /// once per run.
    fn apply_run(&mut self, rel: usize, epoch: i64, emit: &mut dyn FnMut(&[Value])) -> Result<()> {
        let logged = self.blob_tx.is_some();
        let arity = self.rows.len() / self.mults.len().max(1); // one arity per run
        let rows = (0..self.mults.len()).map(|k| &self.rows[k * arity..][..arity]);
        // Each non-zero result delta goes out as its row with
        // `[multiplicity, epoch]` appended, assembled in one reused buffer.
        let buf = &mut self.tagged;
        let mut tagged = |row: &[Value], mult: i64| {
            if mult != 0 {
                buf.clear();
                buf.extend_from_slice(row);
                buf.extend([Value::Int(mult), Value::Int(epoch)]);
                emit(buf);
            }
        };
        match &mut self.join.state {
            JoinState::Full(j) => {
                j.delta_into(rel, &self.rows, &self.mults, Some(&mut tagged));
                if logged {
                    for (row, &mult) in rows.zip(&self.mults) {
                        self.log.push(rel, row, mult, epoch as u64);
                    }
                }
            }
            JoinState::Windowed { .. } => {
                if let Some(&mult) = self.mults.iter().find(|&&m| m != 1) {
                    return Err(SquallError::Runtime(format!(
                        "windowed standing views are append-only (got a weight-{mult} delta)"
                    )));
                }
                let gone = &mut self.gone;
                self.join.insert_into(rel, &self.rows, &mut tagged, |r, row, m| {
                    if logged {
                        gone.push(r, row, -m, epoch as u64);
                    }
                })?;
                if logged {
                    rows.for_each(|row| self.log.push(rel, row, 1, epoch as u64));
                    self.log.append(gone);
                }
            }
        }
        self.join.check_budget()?;
        Ok(())
    }

    /// Ship this task's checkpoint blob for barrier `epoch` toward the
    /// coordinator's store: its logged rows of epochs up to the barrier's.
    fn ship(&mut self, epoch: u64) {
        let Some(tx) = &self.blob_tx else { return };
        let _ = tx.send((ROLE_JOIN, self.join.machine, epoch, self.log.seal(epoch)));
    }
}

impl Bolt for ViewJoinBolt {
    fn execute_chunk(
        &mut self,
        origin: NodeId,
        chunk: &Chunk,
        out: &mut OutputCollector,
    ) -> Result<()> {
        let rel = self.join.rel_of(origin)?;
        let turn = self.forwarded.saturating_add(1);
        self.apply_in_turn(rel, chunk, turn, &mut |row| out.emit_row(row))
    }

    fn watermark(
        &mut self,
        origin: NodeId,
        from_task: usize,
        ts: u64,
        out: &mut OutputCollector,
    ) -> Result<()> {
        if let Some(w) =
            self.frontier.advance(origin, from_task, ts).filter(|w| *w > self.forwarded)
        {
            self.forwarded = w;
            self.release(w.saturating_add(1), &mut |row| out.emit_row(row))?;
            out.emit_watermark(w);
        }
        Ok(())
    }

    /// End of stream: every source has finished, so every held run's turn
    /// has come.
    fn finish(&mut self, out: &mut OutputCollector) -> Result<()> {
        self.release(u64::MAX, &mut |row| out.emit_row(row))
    }

    /// Barrier alignment: ship this task's checkpoint blob and forward the
    /// barrier downstream. Alignment means every delta of an epoch up to
    /// the barrier's has arrived — and, from a source whose barrier came
    /// early, maybe some of later epochs; the delta blob is filtered by
    /// epoch, so it is exact either way.
    fn barrier(&mut self, epoch: u64, out: &mut OutputCollector) -> Result<()> {
        self.ship(epoch);
        out.emit_barrier(epoch);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The view sink bolt
// ---------------------------------------------------------------------

/// An aggregate view's sink state: the query's own
/// [`crate::driver::AggPlan`], folded under each window's `(start, end)`
/// key prefix when windowed — the integral of every applied epoch — and
/// the row each group shows.
struct AggSink {
    agg: GroupByAggregator,
    /// Whether an epoch was applied: before the first, nothing is
    /// published, and the first evaluates the global-aggregate empty row
    /// even if its input is empty.
    primed: bool,
    /// Each group's row as last published (absent: none), and the last
    /// epoch that touched the group. An epoch diffs each group it touches
    /// against this row; only a restore derives it from `agg`.
    shown: FxHashMap<Vec<Value>, (Option<Tuple>, u64)>,
    /// The keys of the groups the applying epoch touched, back to back
    /// (every key of a view is of one width), and how many there are.
    touched: Vec<Value>,
    n_touched: usize,
    /// One group's raw aggregate row, reused from group to group.
    raw: Vec<Value>,
}

impl AggSink {
    fn new(agg: GroupByAggregator) -> AggSink {
        AggSink {
            agg,
            primed: false,
            shown: FxHashMap::default(),
            touched: Vec::new(),
            n_touched: 0,
            raw: Vec::new(),
        }
    }

    /// The row the view shows for group `key` of `agg`: its finalized
    /// aggregate, or for a global aggregate with no rows the empty row.
    fn group_row(
        fin: &Finalizer,
        agg: &GroupByAggregator,
        key: &[Value],
        raw: &mut Vec<Value>,
    ) -> Result<Option<Tuple>> {
        if agg.group_into(key, raw) {
            fin.row(raw)
        } else if key.is_empty() {
            fin.empty_row()
        } else {
            Ok(None)
        }
    }

    /// List group `key` as touched by `epoch`, once.
    fn touch(&mut self, key: &[Value], epoch: u64) {
        match self.shown.get_mut(key) {
            Some((_, at)) if *at == epoch => return,
            Some((_, at)) => *at = epoch,
            None => {
                self.shown.insert(key.to_vec(), (None, epoch));
            }
        }
        self.touched.extend_from_slice(key);
        self.n_touched += 1;
    }

    /// End an epoch: net each touched group's row against the one it
    /// showed into `net`, and show the new one.
    fn diff(&mut self, fin: &Finalizer, net: &mut FxHashMap<Tuple, i64>) -> Result<()> {
        let AggSink { agg, shown, touched, n_touched, raw, .. } = self;
        let width = touched.len() / (*n_touched).max(1);
        for i in 0..std::mem::take(n_touched) {
            let key = &touched[i * width..][..width];
            let new = Self::group_row(fin, agg, key, raw)?;
            let old = match &new {
                Some(row) => shown.get_mut(key).and_then(|(was, _)| was.replace(row.clone())),
                None => shown.remove(key).and_then(|(was, _)| was),
            };
            if old != new {
                for (row, m) in old.map(|o| (o, -1)).into_iter().chain(new.map(|n| (n, 1))) {
                    *net.entry(row).or_insert(0) += m;
                }
            }
        }
        touched.clear();
        Ok(())
    }

    /// Derive every group's shown row from the aggregate state, as a
    /// restore must.
    fn reshow(&mut self, fin: &Finalizer) -> Result<()> {
        let AggSink { agg, primed, shown, raw, .. } = self;
        shown.clear();
        let global = primed.then(Vec::new);
        for key in agg.keys().map(<[Value]>::to_vec).chain(global) {
            if let Some(row) = Self::group_row(fin, agg, &key, raw)? {
                shown.insert(key, (Some(row), 0));
            }
        }
        Ok(())
    }
}

/// One epoch's deltas, back to back: delta `i`'s payload is
/// `vals[i * arity..][..arity]`, its weight `mults[i]`.
#[derive(Default)]
struct Deltas {
    vals: Vec<Value>,
    mults: Vec<i64>,
}

/// The single sink task of a resident topology: buffers signed join
/// deltas per epoch, applies whole epochs once the minimum join-task
/// watermark releases them, and publishes the netted changes into the
/// [`ViewShared`] state.
struct ViewSinkBolt {
    finalizer: Arc<Finalizer>,
    shared: Arc<ViewShared>,
    /// Deltas awaiting their epoch's release, in epoch order.
    pending: BTreeMap<u64, Deltas>,
    /// Applied epochs' buffers, kept for their capacity.
    spare: Vec<Deltas>,
    /// The minimum epoch watermark across the upstream join tasks.
    frontier: Frontier,
    applied: u64,
    /// An aggregate view's state; `None` for a plain projected multiset,
    /// which keeps nothing: its changes are netted per epoch and applied
    /// straight into the shared rows.
    agg: Option<AggSink>,
    /// An aggregate view's group-by columns and, windowed, its window and
    /// each relation's event-time column, all in join-output coordinates.
    group_cols: Vec<usize>,
    window: Option<(WindowSpec, Vec<usize>)>,
    /// The touched key `(start, end, group…)` of one delta and window.
    key: Vec<Value>,
    /// The join output's arity, every delta's payload width.
    arity: usize,
    /// One chunk's `(multiplicity, epoch)` tags, checked before any row
    /// is queued; reused from chunk to chunk.
    tags: Vec<(i64, u64)>,
    /// One epoch's net row changes, reused from epoch to epoch.
    net: FxHashMap<Tuple, i64>,
    blob_tx: Option<Sender<SnapshotBlobMsg>>,
}

impl ViewSinkBolt {
    fn new(
        spec: &MultiJoinSpec,
        cfg: &MultiwayConfig,
        finalizer: Arc<Finalizer>,
        shared: Arc<ViewShared>,
        n_upstream: usize,
        blob_tx: Option<Sender<SnapshotBlobMsg>>,
    ) -> ViewSinkBolt {
        let (agg, group_cols, window) = match &cfg.agg {
            Some(a) => {
                let agg = GroupByAggregator::new(a.group_cols.clone(), a.aggs.clone());
                let window = cfg.window.as_ref().map(|w| {
                    let arities: Vec<usize> =
                        spec.relations.iter().map(|r| r.schema.arity()).collect();
                    (w.spec, squall_join::output_ts_cols(&arities, &w.ts_cols))
                });
                (Some(AggSink::new(agg)), a.group_cols.clone(), window)
            }
            None => (None, Vec::new(), None),
        };
        ViewSinkBolt {
            finalizer,
            shared,
            pending: BTreeMap::new(),
            spare: Vec::new(),
            frontier: Frontier::new(n_upstream),
            applied: 0,
            agg,
            group_cols,
            window,
            key: Vec::new(),
            arity: spec.relations.iter().map(|r| r.schema.arity()).sum(),
            tags: Vec::new(),
            net: FxHashMap::default(),
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
        match (&mut self.agg, kind) {
            (None, 0) => {}
            (Some(sink), 1) => {
                sink.agg.restore_state(&mut r)?;
                sink.primed = r.bool()?;
                sink.reshow(&self.finalizer)?;
            }
            _ => return Err(SquallError::Codec("sink checkpoint blob kind mismatch".into())),
        }
        r.finish()?;
        self.applied = epoch;
        Ok(())
    }

    /// The checkpoint blob [`ViewSinkBolt::restore`] reads: the kind byte,
    /// then an aggregate view's group-by state and `primed`.
    fn blob(&self) -> Vec<u8> {
        match &self.agg {
            None => vec![0],
            Some(sink) => {
                let mut buf = vec![1];
                sink.agg.snapshot_state(&mut buf);
                codec::put_bool(&mut buf, sink.primed);
                buf
            }
        }
    }

    /// Apply epoch `epoch`'s deltas, returning the net row changes. An
    /// aggregate view folds each delta once per window it lies in (once
    /// under full history), under the window's `(start, end)` key prefix,
    /// then diffs each group it touched against the row the group showed:
    /// one tuple per changed group.
    fn apply_epoch(&mut self, epoch: u64, deltas: &Deltas) -> Result<Vec<(Tuple, i64)>> {
        let ViewSinkBolt { finalizer: fin, agg, group_cols, window, key, arity, net, .. } = self;
        let rows = (0..deltas.mults.len()).map(|i| &deltas.vals[i * *arity..][..*arity]);
        match agg {
            None => {
                for (base, m) in rows.zip(&deltas.mults) {
                    if let Some(row) = fin.row(base)? {
                        *net.entry(row).or_insert(0) += m;
                    }
                }
            }
            Some(sink) => {
                if !sink.primed && fin.empty.is_some() {
                    sink.touch(&[], epoch);
                }
                for (base, &m) in rows.zip(&deltas.mults) {
                    let starts = match window {
                        Some((spec, ts_cols)) => {
                            result_windows(*spec, ts_cols, base, "in view sink input")?
                        }
                        None => 0..=0,
                    };
                    for start in starts {
                        key.clear();
                        if let Some((spec, _)) = window {
                            key.extend(window_key(*spec, start));
                        }
                        let lead = key.len();
                        key.extend(group_cols.iter().map(|&c| base[c].clone()));
                        sink.touch(key, epoch);
                        sink.agg.fold_row_under(&key[..lead], base, m)?;
                    }
                }
                sink.primed = true;
                sink.diff(fin, net)?;
            }
        }
        Ok(net.drain().filter(|(_, m)| *m != 0).collect())
    }

    /// Apply and publish every pending epoch ≤ `w`, then advance the
    /// applied watermark to `w` itself (epochs with no deltas still
    /// unblock snapshot waiters, and the first primes an aggregate view,
    /// so a global aggregate over an empty join shows its empty row).
    fn apply_through(&mut self, w: u64) -> Result<()> {
        while let Some(first) = self.pending.first_entry().filter(|e| *e.key() <= w) {
            let (epoch, mut deltas) = first.remove_entry();
            let changes = self.apply_epoch(epoch, &deltas)?;
            deltas.vals.clear();
            deltas.mults.clear();
            self.spare.push(deltas);
            let counter = if self.shared.publish(epoch, changes) {
                &self.shared.counters.epochs_applied
            } else {
                &self.shared.counters.replayed_epochs
            };
            counter.fetch_add(1, Ordering::Relaxed);
            self.applied = epoch;
        }
        if self.applied < w {
            let changes = self.apply_epoch(w, &Deltas::default())?;
            self.applied = w;
            self.shared.publish(w, changes);
        }
        Ok(())
    }

    /// Queue a chunk of deltas under their epochs. A worker's chunk comes
    /// off the wire, so its shape is checked whole first: a payload as wide
    /// as a join result (or the fold would read past it), `Int` weights and
    /// epochs, and no epoch already applied. A chunk that fails queues
    /// nothing.
    fn queue_chunk(&mut self, chunk: &Chunk) -> Result<()> {
        let (n, arity) = (chunk.n_cols(), self.arity);
        if n != arity + 2 {
            return Err(SquallError::Runtime(format!(
                "view delta of {n} columns, not {arity} + 2"
            )));
        }
        self.tags.clear();
        for row in chunk.iter() {
            let (mult, epoch) = (row[arity].as_int()?, row[arity + 1].as_int()? as u64);
            if epoch <= self.applied {
                return Err(SquallError::Runtime(format!(
                    "late delta for already-applied epoch {epoch} (applied {})",
                    self.applied
                )));
            }
            self.tags.push((mult, epoch));
        }
        // Each run of rows that share an epoch joins that epoch's buffers.
        let (tagged, mut i) = (&self.tags, 0);
        while let Some(&(_, epoch)) = tagged.get(i) {
            let spare = &mut self.spare;
            let deltas =
                self.pending.entry(epoch).or_insert_with(|| spare.pop().unwrap_or_default());
            while let Some(&(mult, _)) = tagged.get(i).filter(|t| t.1 == epoch) {
                deltas.vals.extend_from_slice(&chunk.row(i)[..arity]);
                deltas.mults.push(mult);
                i += 1;
            }
        }
        self.shared.counters.deltas_in.fetch_add(chunk.n_rows() as u64, Ordering::Relaxed);
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
        self.queue_chunk(chunk)
    }

    fn watermark(
        &mut self,
        origin: NodeId,
        from_task: usize,
        ts: u64,
        _out: &mut OutputCollector,
    ) -> Result<()> {
        let Some(w) = self.frontier.advance(origin, from_task, ts) else {
            return Ok(());
        };
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

    /// Barrier alignment: each join task sends `Watermark(e)` before
    /// `Barrier(e)`, and the sink forwards nothing, so at alignment
    /// `applied` equals the barrier epoch and the state is exactly the view
    /// through it. Anything else would file a blob for the wrong epoch.
    fn barrier(&mut self, epoch: u64, _out: &mut OutputCollector) -> Result<()> {
        if self.applied != epoch {
            return Err(SquallError::Runtime(format!(
                "view sink aligned on the epoch-{epoch} barrier with epoch {} applied",
                self.applied
            )));
        }
        if let Some(tx) = &self.blob_tx {
            let _ = tx.send((ROLE_SINK, 0, epoch, self.blob()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Assembly & launch
// ---------------------------------------------------------------------

/// Build the resident topology for one standing view: the shared join
/// stage ([`wire_join_stage`]) over empty live-queue spouts and the delta
/// join, then the single view sink. `coordinator` carries the finalizer and
/// shared state on the coordinator; workers pass `None` — their spout and
/// sink factories are never invoked (spouts and parallelism-1 bolts are
/// pinned to peer 0 by `plan_placement`).
///
/// `restore` rebuilds every operator from a checkpoint instead of
/// starting empty. `blob_tx` is where operators ship their checkpoint blobs
/// at barrier alignment.
pub(crate) fn assemble_standing(
    spec: &MultiJoinSpec,
    cfg: &MultiwayConfig,
    coordinator: Option<(Arc<Finalizer>, Arc<ViewShared>)>,
    restore: Option<Arc<RestoreState>>,
    blob_tx: Option<Sender<SnapshotBlobMsg>>,
) -> Result<(Topology, Vec<Arc<LiveQueue>>, RunContext)> {
    let n_rel = spec.n_relations();
    if let Some(rs) = &restore {
        // Restore blobs reach a worker inside a `Job` frame: check them all
        // before a bolt factory builds an operator from one.
        let arities: Vec<usize> = spec.relations.iter().map(|r| r.schema.arity()).collect();
        let ts_cols = cfg.window.as_ref().map(|w| w.ts_cols.as_slice());
        for blob in rs.join.values() {
            check_join_blob(blob, &arities, ts_cols)?;
        }
    }
    let mut queues = Vec::with_capacity(n_rel);
    let join_restore = restore.clone();
    let join_blob_tx = blob_tx.clone();
    let (mut b, ctx) = wire_join_stage(
        spec,
        vec![Vec::new().into(); n_rel],
        cfg,
        // One live queue + one spout task per relation; every round, the
        // initial load included, arrives through the queue.
        |_rel, _source| {
            let queue = Arc::new(LiveQueue::default());
            queues.push(Arc::clone(&queue));
            Box::new(move |_task| -> Box<dyn Spout> {
                Box::new(LiveSpout::new(Arc::clone(&queue)))
            })
        },
        move |join| {
            let task = join.machine;
            let since = join_restore.as_ref().map_or(0, |rs| rs.epoch);
            let mut bolt = ViewJoinBolt::new(join, n_rel, join_blob_tx.clone(), since);
            if let Some(blob) = join_restore.as_ref().and_then(|rs| rs.join.get(&task)) {
                bolt.restore(blob).expect("join restore blobs are checked before assembly");
            }
            Box::new(bolt)
        },
    )?;

    // The view sink: one task, pinned to the coordinator, built and
    // restored here, after the plan checks that make it buildable.
    let mut sink = None;
    if let Some((fin, shared)) = coordinator {
        let mut bolt = ViewSinkBolt::new(spec, cfg, fin, shared, ctx.join_tasks, blob_tx);
        if let Some(rs) = &restore {
            if let Some(blob) = &rs.sink {
                bolt.restore(rs.epoch, blob)?;
            }
        }
        sink = Some(bolt);
    }
    let sink = std::cell::Cell::new(sink);
    let sink_node = b.add_bolt("view", 1, move |_task| -> Box<dyn Bolt> {
        Box::new(sink.take().expect(
            "view sink runs at parallelism 1, which plan_placement pins to the coordinator",
        ))
    });
    b.connect(ctx.join_node, sink_node, Grouping::Global);

    Ok((b.build()?, queues, ctx))
}

/// A launched resident topology: what [`launch_standing`] starts and
/// [`StandingHandle::recover`] replaces wholesale.
struct Resident {
    queues: Vec<Arc<LiveQueue>>,
    waker: TaskWaker,
    /// `None` only transiently, inside [`StandingHandle::recover`].
    handle: Option<RunHandle>,
    cluster: Option<ClusterRun>,
    /// Node ids and the chosen scheme — what the shutdown report is
    /// computed over.
    layout: RunContext,
    blob_rx: Option<Receiver<SnapshotBlobMsg>>,
}

impl Resident {
    /// Assemble and launch an empty topology, locally or across `cfg`'s
    /// cluster. A recovery relaunch passes the checkpoint to rebuild
    /// operators from (`restore`).
    fn boot(
        spec: &MultiJoinSpec,
        cfg: &MultiwayConfig,
        coordinator: (Arc<Finalizer>, Arc<ViewShared>),
        restore: Option<Arc<RestoreState>>,
    ) -> Result<Resident> {
        let (tx, rx) = std::sync::mpsc::channel();
        let blob_tx = (cfg.checkpoint_interval > 0).then_some(tx);
        let (topology, queues, layout) =
            assemble_standing(spec, cfg, Some(coordinator), restore.clone(), blob_tx.clone())?;
        let (handle, cluster) =
            crate::cluster::launch(topology, spec, cfg, blob_tx.clone(), restore.as_deref())?;
        Ok(Resident {
            queues,
            waker: handle.waker(),
            handle: Some(handle),
            cluster,
            layout,
            blob_rx: blob_tx.is_some().then_some(rx),
        })
    }

    /// Wake the (parked) spout tasks — the first nodes added, so their
    /// task ids are `0..n`.
    fn wake_sources(&self) {
        for t in 0..self.queues.len() {
            self.waker.wake(t);
        }
    }

    /// Feed one epoch: each round to its relation's queue, the epoch
    /// watermark to *every* queue.
    fn feed(&self, epoch: u64, rounds: &[DeltaRound]) {
        for (rel, rows, mult) in rounds {
            self.queues[*rel].push(LiveItem::Round(Arc::clone(rows), *mult, epoch));
        }
        for q in &self.queues {
            q.push(LiveItem::Watermark(epoch));
        }
        self.wake_sources();
    }

    /// Close every source queue and drain the shutdown cascade.
    fn drain(&mut self) -> Option<(RunOutcome, Option<TransportStats>)> {
        for q in &self.queues {
            q.close();
        }
        self.wake_sources();
        let handle = self.handle.take()?;
        Some(crate::cluster::finish(handle, self.cluster.take()))
    }
}

/// Launch a resident topology for one standing view, locally or across
/// the session's cluster, and feed it `data`, the initial load, as epoch 1.
/// The returned handle feeds deltas, serves snapshots and tears the view
/// down on drop of the view (via [`StandingHandle::shutdown`]).
pub fn launch_standing(
    spec: &MultiJoinSpec,
    data: Vec<impl Into<Source>>,
    cfg: &MultiwayConfig,
    finalizer: Finalizer,
    shared: Arc<ViewShared>,
) -> Result<StandingHandle> {
    debug_assert!(cfg.standing, "launch_standing needs cfg.standing");
    if data.len() != spec.n_relations() {
        return Err(SquallError::InvalidPlan(format!(
            "{} relations but {} data streams",
            spec.n_relations(),
            data.len()
        )));
    }
    let finalizer = Arc::new(finalizer);
    let mut run = Resident::boot(spec, cfg, (Arc::clone(&finalizer), Arc::clone(&shared)), None)?;
    let load: Vec<DeltaRound> =
        data.into_iter().enumerate().map(|(rel, rows)| (rel, Arc::new(rows.into()), 1)).collect();
    run.layout.input_counts = load.iter().map(|(_, rows, _)| rows.len() as u64).collect();
    run.feed(1, &load);
    let store = Arc::new(StoreSlot::new(CheckpointStore::new(run.layout.join_tasks)));
    let filer = Filer::spawn(&mut run, &store, &shared);
    Ok(StandingHandle {
        replay: if run.cluster.is_some() { vec![(1, load)] } else { Vec::new() },
        run,
        shared,
        issued: 1,
        start: Instant::now(),
        spec: spec.clone(),
        cfg: cfg.clone(),
        finalizer,
        store,
        filer,
    })
}

/// The coordinator's checkpoint store, and the newest complete epoch in
/// it, published apart so the writer never waits for a fold.
struct StoreSlot {
    store: Mutex<CheckpointStore>,
    complete: Mutex<u64>,
    filed: Condvar,
}

impl StoreSlot {
    fn new(store: CheckpointStore) -> StoreSlot {
        StoreSlot { store: Mutex::new(store), complete: Mutex::new(0), filed: Condvar::new() }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CheckpointStore> {
        self.store.lock().expect("checkpoint store poisoned")
    }

    fn complete(&self) -> std::sync::MutexGuard<'_, u64> {
        self.complete.lock().expect("checkpoint store poisoned")
    }

    /// File one blob, counting its bytes; when that completes an epoch,
    /// wake the writer, then fold the epoch.
    fn file(&self, shared: &ViewShared, msg: SnapshotBlobMsg) {
        shared.counters.checkpoint_bytes.fetch_add(msg.3.len() as u64, Ordering::Relaxed);
        let mut store = self.lock();
        store.insert(msg);
        if let Some(epoch) = store.latest_complete().filter(|&e| e > *self.complete()) {
            *self.complete() = epoch;
            self.filed.notify_all();
            store.trim_below(epoch);
        }
    }
}

/// The thread that files one run's checkpoint blobs. Parsing and folding a
/// round's blobs must not be the writer's CPU time: a writer thread that
/// computes between epochs is woken later when its next snapshot is ready
/// (on a 2-core host that added ≈ 0.1 ms to the median `view3.append`
/// epoch). The writer waits for the epoch to complete, not for the fold.
struct Filer {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl Filer {
    /// Take `run`'s blob channel (none with checkpoints off) and file what
    /// arrives on it into `store`.
    fn spawn(
        run: &mut Resident,
        store: &Arc<StoreSlot>,
        shared: &Arc<ViewShared>,
    ) -> Option<Filer> {
        let rx = run.blob_rx.take()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (flag, store, shared) = (Arc::clone(&stop), Arc::clone(store), Arc::clone(shared));
        let thread = std::thread::Builder::new()
            .name("squall-checkpoint-filer".into())
            .spawn(move || loop {
                match rx.recv_timeout(Duration::from_millis(20)) {
                    Ok(msg) => store.file(&shared, msg),
                    Err(RecvTimeoutError::Timeout) if !flag.load(Ordering::SeqCst) => {}
                    // Stopped or disconnected: file what is still queued.
                    Err(_) => return rx.try_iter().for_each(|msg| store.file(&shared, msg)),
                }
            })
            .expect("spawn checkpoint filer");
        Some(Filer { stop, thread })
    }

    /// Stop once every blob already sent is filed.
    fn finish(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
    }
}

/// One signed delta round for [`StandingHandle::apply`]: the relation
/// index, the (already source-transformed) payload rows as the scan selects
/// them in place — shared by the queue and the replay log — and the weight
/// (+1 append, −1 retract).
pub type DeltaRound = (usize, Arc<Source>, i64);

/// The coordinator-side handle of one resident view topology.
pub struct StandingHandle {
    run: Resident,
    shared: Arc<ViewShared>,
    /// Latest issued epoch (initial load = 1).
    issued: u64,
    start: Instant,
    /// What recovery needs to re-assemble the topology.
    spec: MultiJoinSpec,
    cfg: MultiwayConfig,
    finalizer: Arc<Finalizer>,
    /// Clustered runs only: the rounds issued since the last complete
    /// checkpoint, the initial load (epoch 1) included, with their epochs —
    /// the replay log of recovery. With checkpoints off it holds every
    /// round.
    replay: Vec<(u64, Vec<DeltaRound>)>,
    store: Arc<StoreSlot>,
    /// Files the current run's blobs into `store`; `None` with checkpoints
    /// off.
    filer: Option<Filer>,
}

impl StandingHandle {
    /// Latest issued epoch.
    pub fn issued_epoch(&self) -> u64 {
        self.issued
    }

    /// Number of source relations.
    pub fn n_relations(&self) -> usize {
        self.run.queues.len()
    }

    /// The partitioning scheme the resident join runs under.
    pub fn scheme_description(&self) -> &str {
        &self.run.layout.scheme_description
    }

    /// Feed one round of signed deltas as a new epoch: each relation's
    /// rows go to its queue, the epoch watermark to *every* queue,
    /// and the (parked) spout tasks are woken. Returns the issued epoch;
    /// a subsequent [`StandingHandle::snapshot`] observes it.
    pub fn apply(&mut self, rounds: Vec<DeltaRound>) -> Result<u64> {
        let epoch = self.issued + 1;
        if let Some((rel, ..)) = rounds.iter().find(|(rel, ..)| *rel >= self.run.queues.len()) {
            return Err(SquallError::Runtime(format!("relation {rel} out of range")));
        }
        self.run.feed(epoch, &rounds);
        self.issued = epoch;
        let counters = &self.shared.counters;
        let round = if rounds.iter().any(|(_, _, mult)| *mult < 0) {
            &counters.retractions
        } else {
            &counters.appends
        };
        round.fetch_add(1, Ordering::Relaxed);
        // Clustered runs log every round until a checkpoint covers it —
        // the replay input of recovery.
        if self.run.cluster.is_some() {
            self.replay.push((epoch, rounds));
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
    /// epoch-`e+1` delta exists anywhere while the epoch-`e` blobs are
    /// taken.
    fn checkpoint(&mut self, epoch: u64) {
        let Some(filer) = &self.filer else { return };
        for q in &self.run.queues {
            q.push(LiveItem::Barrier(epoch));
        }
        self.run.wake_sources();
        let deadline = Instant::now() + CHECKPOINT_DEADLINE;
        let mut complete = self.store.complete();
        while *complete < epoch {
            if Instant::now() >= deadline || filer.thread.is_finished() {
                break;
            }
            if self.run.handle.as_ref().and_then(|h| h.error()).is_some() {
                break; // dead topology: the error surfaces via error()
            }
            let wait = self.store.filed.wait_timeout(complete, Duration::from_millis(20));
            complete = wait.expect("checkpoint store poisoned").0;
        }
        let done = *complete >= epoch;
        drop(complete);
        if done {
            self.shared.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
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
        self.run.handle.as_ref().and_then(|h| h.error())
    }

    /// Restart the view on `cluster` after a failure (typically a
    /// [`SquallError::WorkerLost`] from [`StandingHandle::error`]): tear
    /// the dead run down, restore every operator from one restore state —
    /// the newest checkpoint re-routed from the surviving tasks' state
    /// (§5), else the newest complete one, else nothing — and replay the
    /// rounds of the log after it, with their original epochs. The shared
    /// view state (rows, subscribers, applied watermark) persists across
    /// the restart, and replayed epochs dedup against it: subscribers see
    /// every change exactly once.
    pub fn recover(&mut self, cluster: ClusterSpec) -> Result<()> {
        if self.cfg.cluster.is_none() {
            return Err(SquallError::Runtime(
                "recover() applies to clustered standing views".into(),
            ));
        }
        // Tear the dead run down. The sink must not flush partial epochs
        // into the shared rows while the cascade drains.
        self.shared.recovering.store(true, Ordering::SeqCst);
        self.run.drain();
        // Blobs that arrived after the last checkpoint are filed too (e.g.
        // a straggler completing a previously-partial epoch).
        if let Some(filer) = self.filer.take() {
            filer.finish();
        }
        self.shared.recovering.store(false, Ordering::SeqCst);

        // Re-route only a full-history view: each replica of a windowed
        // view evicts on its own machine's watermark, so replicas of one
        // row need not agree.
        let (spec, cfg) = (&self.spec, &self.cfg);
        let scheme = (spec.n_relations() > 1 && cfg.window.is_none())
            .then(|| build_scheme(cfg.scheme, spec, self.run.layout.join_tasks, cfg.seed).ok())
            .flatten();
        let restore = self.store.lock().restart(scheme.as_ref());
        let resume = restore.as_ref().map_or(0, |r| r.epoch);
        *self.store.complete() = resume;

        // Relaunch on the new cluster, restored, then replay every round
        // after the restore state with its original epoch and watermark; no
        // barriers — the rounds stay in the log until a fresh checkpoint
        // covers them.
        self.cfg.cluster = Some(cluster);
        let coordinator = (Arc::clone(&self.finalizer), Arc::clone(&self.shared));
        let input_counts = std::mem::take(&mut self.run.layout.input_counts);
        self.run = Resident::boot(&self.spec, &self.cfg, coordinator, restore.map(Arc::new))?;
        self.run.layout.input_counts = input_counts;
        self.filer = Filer::spawn(&mut self.run, &self.store, &self.shared);
        self.shared.counters.recoveries.fetch_add(1, Ordering::Relaxed);
        self.replay.retain(|(e, _)| *e > resume);
        for (epoch, rounds) in &self.replay {
            self.run.feed(*epoch, rounds);
        }
        Ok(())
    }

    /// Close every source queue and drain the shutdown cascade,
    /// returning the view's final lifetime report (loads, maintenance
    /// counters, wire traffic under a cluster).
    pub fn shutdown(mut self) -> JoinReport {
        let (outcome, transport) = self.run.drain().expect("handle present outside recover()");
        if let Some(filer) = self.filer.take() {
            filer.finish();
        }
        let mut report = summarize(self.run.layout, outcome, transport);
        report.elapsed = self.start.elapsed();
        report.maintenance = Some(self.shared.stats());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::{tuple, DataType, Schema};
    use squall_expr::{JoinAtom, RelationDef, ScalarExpr};
    use squall_join::{AggSpec, DBToasterJoin};
    use squall_partition::optimizer::SchemeKind;

    use crate::driver::{AggPlan, LocalJoinKind, WindowPlan};

    impl ViewJoinBolt {
        /// Apply every run of the chunk now, whatever its epoch.
        fn apply(
            &mut self,
            rel: usize,
            chunk: &Chunk,
            emit: &mut dyn FnMut(&[Value]),
        ) -> Result<()> {
            self.apply_in_turn(rel, chunk, u64::MAX, emit)
        }
    }

    fn pair_spec() -> MultiJoinSpec {
        let s = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
        MultiJoinSpec::new(
            vec![RelationDef::new("R", s.clone(), 10), RelationDef::new("S", s, 10)],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap()
    }

    /// A finalizer projecting the engine row's first `arity` columns.
    fn project(arity: usize) -> Finalizer {
        Finalizer { having: None, project: (0..arity).map(ScalarExpr::col).collect(), empty: None }
    }

    fn standing_cfg() -> MultiwayConfig {
        let mut cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2);
        cfg.standing = true;
        cfg
    }

    /// `standing_cfg` aggregating `aggs` per `group_cols` in its view sink.
    fn agg_cfg(group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> MultiwayConfig {
        standing_cfg().with_agg(AggPlan { group_cols, aggs, parallelism: 1 })
    }

    /// `row ⊕ [1, epoch]` as a one-row chunk, the way a live spout ships it.
    fn delta(row: Tuple, epoch: u64) -> Chunk {
        let tag = [Value::Int(1), Value::Int(epoch as i64)];
        Chunk::from_tuples(&[[&row[..], &tag].concat().into()])
    }

    #[test]
    fn a_delta_ahead_of_its_turn_waits_for_the_earlier_epochs() {
        // R's epoch-2 row overtakes S's epoch-1 row (their spouts are
        // separate tasks). Their result is epoch 2's: the R row waits until
        // every source has promised epoch 1, then joins the S row.
        const R: usize = 0;
        const S: usize = 1;
        let join = TaskJoin {
            state: JoinState::Full(DBToasterJoin::new(&pair_spec())),
            origin_to_rel: FxHashMap::default(),
            machine: 0,
            budget: None,
        };
        let mut bolt = ViewJoinBolt::new(join, 2, None, 0);
        let mut out: Vec<Tuple> = Vec::new();
        let turn = bolt.forwarded + 1;
        bolt.apply_in_turn(R, &delta(tuple![1, 10], 2), turn, &mut |t| out.push(t.into())).unwrap();
        bolt.apply_in_turn(S, &delta(tuple![1, 100], 1), turn, &mut |t| out.push(t.into()))
            .unwrap();
        assert!(out.is_empty(), "nothing joins before epoch 1 is promised: {out:?}");
        bolt.release(2, &mut |t| out.push(t.into())).unwrap();
        assert_eq!(out, vec![tuple![1, 10, 1, 100, 1, 2]]);
    }

    #[test]
    fn delta_blob_leaves_a_later_epochs_row_to_the_next_barrier() {
        // R's barrier(16) arrives, then R's epoch-17 delta, then S's
        // barrier(16): the task aligns holding a row of epoch 17, which blob
        // 16 must leave out and blob 32 must carry.
        const R: usize = 0;
        const S: usize = 1;
        let spec = pair_spec();
        let join = TaskJoin {
            state: JoinState::Full(DBToasterJoin::new(&spec)),
            origin_to_rel: FxHashMap::default(),
            machine: 0,
            budget: None,
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let mut bolt = ViewJoinBolt::new(join, 2, Some(tx), 0);
        let discard = &mut |_: &[Value]| {};
        bolt.apply(R, &delta(tuple![1, 10], 16), discard).unwrap();
        bolt.apply(S, &delta(tuple![1, 100], 16), discard).unwrap();
        bolt.apply(R, &delta(tuple![2, 20], 17), discard).unwrap();
        bolt.ship(16);
        bolt.ship(32);
        let blobs: Vec<SnapshotBlobMsg> = rx.try_iter().collect();
        let rows = |blob: &[u8]| {
            let mut r = Reader::new(blob);
            assert_eq!(r.u8().unwrap(), crate::checkpoint::JOIN_BLOB_DELTA);
            let since = r.u64().unwrap();
            let mut rels: Vec<Vec<(Tuple, i64)>> = Vec::new();
            rels.restore_state(&mut r).unwrap();
            (since, rels)
        };
        assert_eq!(
            rows(&blobs[0].3),
            (0, vec![vec![(tuple![1, 10], 1)], vec![(tuple![1, 100], 1)]]),
            "blob 16 holds epoch 16 only"
        );
        assert_eq!(rows(&blobs[1].3), (16, vec![vec![(tuple![2, 20], 1)], vec![]]));

        // Folded, the two blobs are the task's own state.
        let mut store = CheckpointStore::new(1);
        for (epoch, (role, task, _, blob)) in [16, 32].into_iter().zip(blobs) {
            store.insert((role, task, epoch, blob));
            store.insert((ROLE_SINK, 0, epoch, vec![0]));
        }
        let JoinState::Full(j) = &bolt.join.state else { unreachable!("built full") };
        let mut own = vec![JOIN_BLOB_FULL];
        j.snapshot_state(&mut own);
        assert_eq!(store.restore_state(32).unwrap().join[&0], own);
    }

    #[test]
    fn a_windowed_tasks_blobs_are_a_delta_chain() {
        // A windowed task logs each arrival as +1 and each row its window
        // evicts as −1: a lost blob is a gap like any other task's, and a
        // whole chain folds to the task's own snapshot, which restores a
        // task that evicts and joins as the original does.
        const R: usize = 0;
        const S: usize = 1;
        let (tx, rx) = std::sync::mpsc::channel();
        let mut bolt = ViewJoinBolt::new(windowed(), 2, Some(tx), 0);
        let rounds = [
            vec![(R, tuple![1, 1]), (S, tuple![1, 2])],
            // S@13 lifts the watermark to 12: bucket [0, 10) closes.
            vec![(R, tuple![1, 12]), (S, tuple![1, 13])],
            vec![(R, tuple![2, 14])],
        ];
        for (epoch, round) in (1..).zip(rounds) {
            for (rel, row) in round {
                bolt.apply(rel, &delta(row, epoch), &mut |_| {}).unwrap();
            }
            bolt.ship(epoch);
        }
        let blobs: Vec<SnapshotBlobMsg> = rx.try_iter().collect();
        let sealed = |bolt: &ViewJoinBolt| {
            let JoinState::Windowed { join, .. } = &bolt.join.state else {
                unreachable!("built windowed")
            };
            let mut own = vec![JOIN_BLOB_FULL];
            join.snapshot_state(&mut own);
            own
        };

        let mut store = CheckpointStore::new(1);
        for (epoch, blob) in [(1, &blobs[0]), (3, &blobs[2])] {
            store.insert((ROLE_JOIN, 0, epoch, blob.3.clone()));
            store.insert((ROLE_SINK, 0, epoch, vec![0]));
        }
        assert_eq!(store.latest_complete(), Some(1), "blob 2 is lost: epoch 3 is a gap");

        let mut store = CheckpointStore::new(1);
        for (epoch, blob) in (1..).zip(&blobs) {
            store.insert((ROLE_JOIN, 0, epoch, blob.3.clone()));
            store.insert((ROLE_SINK, 0, epoch, vec![0]));
        }
        let restored_blob = store.restore_state(3).unwrap().join[&0].clone();
        assert_eq!(restored_blob, sealed(&bolt));
        let mut restored = ViewJoinBolt::new(windowed(), 2, None, 3);
        restored.restore(&restored_blob).unwrap();
        // S@25 and R@26 close bucket [10, 20) and join in [20, 30).
        for (rel, row) in [(S, tuple![1, 25]), (R, tuple![1, 26]), (S, tuple![2, 27])] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            bolt.apply(rel, &delta(row.clone(), 4), &mut |t| a.push(Tuple::from(t))).unwrap();
            restored.apply(rel, &delta(row, 4), &mut |t| b.push(Tuple::from(t))).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(sealed(&restored), sealed(&bolt));
    }

    /// A windowed join task over `pair_spec`, tumbling by 10 on `b`.
    fn windowed() -> TaskJoin {
        TaskJoin {
            state: JoinState::Windowed {
                join: squall_join::WindowJoin::event_time(
                    DBToasterJoin::new(&pair_spec()),
                    WindowSpec::Tumbling { width: 10 },
                    &[2, 2],
                    &[1, 1],
                ),
                stamps: Vec::new(),
            },
            origin_to_rel: FxHashMap::default(),
            machine: 0,
            budget: None,
        }
    }

    #[test]
    fn a_run_that_evicts_its_own_row_logs_it_in_then_out() {
        // S@100 is far ahead, so R@15 closes bucket [0, 10) and evicts
        // R@5, which arrived in the same run. The store's fold drops a −1
        // with nothing to take from: the +1 must be logged first, or the
        // checkpoint would hold R@5 forever.
        let (tx, rx) = std::sync::mpsc::channel();
        let mut bolt = ViewJoinBolt::new(windowed(), 2, Some(tx), 0);
        bolt.apply(1, &delta(tuple![1, 100], 1), &mut |_| {}).unwrap();
        let rows = [tuple![1, 5, 1, 1], tuple![1, 15, 1, 1]];
        bolt.apply(0, &Chunk::from_tuples(&rows), &mut |_| {}).unwrap();
        bolt.ship(1);
        let mut store = CheckpointStore::new(1);
        for (role, task, epoch, blob) in rx.try_iter() {
            store.insert((role, task, epoch, blob));
            store.insert((ROLE_SINK, 0, epoch, vec![0]));
        }
        let JoinState::Windowed { join, .. } = &bolt.join.state else {
            unreachable!("built windowed")
        };
        let mut own = vec![JOIN_BLOB_FULL];
        join.snapshot_state(&mut own);
        assert_eq!(store.restore_state(1).unwrap().join[&0], own);
    }

    #[test]
    fn a_malformed_windowed_chunk_is_a_typed_error_and_inserts_nothing() {
        // A 4-row chunk of R deltas whose row 2 carries a negative, NULL or
        // Float timestamp, or a weight other than 1: an error, and neither
        // the window nor the checkpoint log takes any row of it.
        use squall_join::LocalJoin;
        let deltas = |rows: &[(Value, i64)]| {
            let tagged: Vec<Tuple> =
                (1..).zip(rows).map(|(k, (ts, w))| tuple![k, ts.clone(), *w, 1]).collect();
            Chunk::from_tuples(&tagged)
        };
        let good = deltas(&[(Value::Int(1), 1), (Value::Int(2), 1)]);
        let held = |bolt: &ViewJoinBolt| match &bolt.join.state {
            JoinState::Windowed { join, .. } => (join.inner().stored(), join.live_tuples()),
            JoinState::Full(_) => unreachable!("built windowed"),
        };
        let bad =
            [(Value::Int(-1), 1), (Value::Null, 1), (Value::Float(4.0), 1), (Value::Int(4), 2)];
        for (ts, w) in bad {
            let (tx, rx) = std::sync::mpsc::channel();
            let (mut bolt, mut twin) = (
                ViewJoinBolt::new(windowed(), 2, Some(tx.clone()), 0),
                ViewJoinBolt::new(windowed(), 2, Some(tx), 0),
            );
            for b in [&mut bolt, &mut twin] {
                b.apply(0, &good, &mut |_| {}).unwrap();
            }
            let chunk = deltas(&[
                (Value::Int(3), 1),
                (Value::Int(3), 1),
                (ts.clone(), w),
                (Value::Int(5), 1),
            ]);
            let applied = bolt.apply(0, &chunk, &mut |_| {});
            assert!(applied.is_err(), "{ts:?} weighing {w}");
            assert_eq!(held(&bolt), (2, 2), "{ts:?} weighing {w}");
            bolt.ship(1);
            twin.ship(1);
            let blobs: Vec<SnapshotBlobMsg> = rx.try_iter().collect();
            assert_eq!(blobs[0].3, blobs[1].3, "{ts:?} weighing {w}: the logged rows");
        }
    }

    #[test]
    fn a_delta_chunk_of_the_wrong_width_is_a_typed_error_and_applies_nothing() {
        // R(a, b) deltas tagged `[1, 1]`: three payload columns, or one,
        // instead of two. Neither may reach the join state, windowed or not.
        use squall_join::LocalJoin;
        let full = || {
            let state = JoinState::Full(DBToasterJoin::new(&pair_spec()));
            TaskJoin { state, origin_to_rel: FxHashMap::default(), machine: 0, budget: None }
        };
        let stored = |bolt: &ViewJoinBolt| match &bolt.join.state {
            JoinState::Windowed { join, .. } => join.inner().stored(),
            JoinState::Full(join) => join.stored(),
        };
        for forged in [tuple![1, 2, 3, 1, 1], tuple![1, 1, 1]] {
            for join in [full(), windowed()] {
                let mut bolt = ViewJoinBolt::new(join, 2, None, 0);
                let chunk = Chunk::from_tuples(&[forged.clone(), forged.clone()]);
                let applied = bolt.apply(0, &chunk, &mut |_| panic!("no result may come of it"));
                assert!(
                    matches!(&applied, Err(SquallError::Runtime(m)) if m.contains("2 + 2 wide")),
                    "{forged:?}: {applied:?}"
                );
                assert_eq!(stored(&bolt), 0, "{forged:?}");
            }
        }
    }

    /// What a view sink is built from: the join spec, the standing
    /// configuration and the finalizer.
    type SinkPlan = (MultiJoinSpec, MultiwayConfig, Finalizer);

    /// One relation `R(k, ts)`, the input of the sink-only tests.
    fn keyed_spec() -> MultiJoinSpec {
        let s = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
        MultiJoinSpec::new(vec![RelationDef::new("R", s, 10)], vec![]).unwrap()
    }

    /// An aggregate view over `R(k, ts)`: `aggs` per key `k`, per window of
    /// `window` on `ts` too when given, projecting the whole raw row.
    fn keyed_view(aggs: Vec<AggSpec>, window: Option<WindowSpec>) -> SinkPlan {
        let arity = 2 * usize::from(window.is_some()) + 1 + aggs.len();
        let mut cfg = agg_cfg(vec![0], aggs);
        cfg.window = window.map(|spec| WindowPlan { spec, ts_cols: vec![1] });
        (keyed_spec(), cfg, project(arity))
    }

    /// A global `COUNT(*)`, which shows its zero-rows row.
    fn global_count_view() -> SinkPlan {
        let finalizer = Finalizer { empty: Some(tuple![0]), ..project(1) };
        (keyed_spec(), agg_cfg(vec![], vec![AggSpec::count()]), finalizer)
    }

    fn sink_of((spec, cfg, finalizer): &SinkPlan, shared: &Arc<ViewShared>) -> ViewSinkBolt {
        ViewSinkBolt::new(spec, cfg, Arc::new(finalizer.clone()), Arc::clone(shared), 1, None)
    }

    /// Apply `deltas` as the sink's next epoch, `epoch`.
    fn apply(sink: &mut ViewSinkBolt, epoch: u64, deltas: &[(Tuple, i64)]) {
        let queued = sink.pending.entry(epoch).or_default();
        for (row, m) in deltas {
            queued.vals.extend_from_slice(row);
            queued.mults.push(*m);
        }
        sink.apply_through(epoch).unwrap();
    }

    /// Feed two sinks the same signed epochs and, after epoch `rebuild`,
    /// replace the second by a sink restored from the first's barrier blob:
    /// both must publish the same change batches to the end.
    fn twin_sinks_publish_alike(plan: SinkPlan, epochs: &[Vec<(Tuple, i64)>], rebuild: u64) {
        let (a_shared, b_shared) = (Arc::new(ViewShared::new()), Arc::new(ViewShared::new()));
        let (a_rx, b_rx) = (a_shared.subscribe(), b_shared.subscribe());
        let (mut a, mut b) = (sink_of(&plan, &a_shared), sink_of(&plan, &b_shared));
        for (epoch, deltas) in (1..).zip(epochs) {
            apply(&mut a, epoch, deltas);
            apply(&mut b, epoch, deltas);
            if epoch == rebuild {
                b = sink_of(&plan, &b_shared);
                b.restore(epoch, &a.blob()).unwrap();
            }
        }
        let batches = |rx: Receiver<ChangeBatch>| -> Vec<(u64, Vec<(Tuple, i64)>)> {
            rx.try_iter().map(|batch| (batch.epoch, batch.changes)).collect()
        };
        let (a, b) = (batches(a_rx), batches(b_rx));
        assert!(a.iter().any(|(epoch, _)| *epoch > rebuild), "{a:?}");
        assert_eq!(a, b);
    }

    #[test]
    fn a_sink_rebuilt_from_its_blob_publishes_what_the_original_does() {
        use squall_expr::BinOp;
        let count = |k: i64, m| (tuple![k, 0], m);

        // COUNT(*) GROUP BY k HAVING COUNT(*) > 1: group 1 is dropped at
        // the rebuild, with its aggregate still held, and re-admitted after.
        let mut having = keyed_view(vec![AggSpec::count()], None);
        having.2.having = Some(ScalarExpr::bin(BinOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(1)));
        let epochs = [
            vec![count(1, 1), count(1, 1), count(2, 1)],
            vec![count(1, -1)],
            vec![count(2, 1)],
            vec![count(1, 1)],
            vec![count(2, -2)],
            vec![count(1, 1), count(3, 2)],
        ];
        twin_sinks_publish_alike(having, &epochs, 3);

        // A global COUNT(*): an empty first epoch shows the empty row, and so
        // does an input that becomes empty after the rebuild.
        let epochs = [
            vec![],
            vec![count(1, 1), count(2, 1)],
            vec![count(1, -1), count(2, -1)],
            vec![count(3, 1)],
        ];
        twin_sinks_publish_alike(global_count_view(), &epochs, 1);
        twin_sinks_publish_alike(global_count_view(), &epochs, 2);

        // COUNT(*) per window and key over rows `(k, ts)`: tumbling windows
        // of 10, and sliding windows of 3, where one delta folds into up to
        // four windows and deltas a few apart share some.
        let epochs = [
            vec![(tuple![1, 3], 1), (tuple![1, 5], 1), (tuple![2, 12], 1)],
            vec![(tuple![1, 14], 1)],
            vec![(tuple![2, 15], 1), (tuple![1, 25], 1)],
            vec![(tuple![1, 27], 1), (tuple![1, 3], -1)],
        ];
        for window in [WindowSpec::Tumbling { width: 10 }, WindowSpec::Sliding { size: 3 }] {
            twin_sinks_publish_alike(keyed_view(vec![AggSpec::count()], Some(window)), &epochs, 2);
        }
    }

    /// The sink blob's bytes, pinned: a checkpoint an older build took must
    /// restore in this one.
    #[test]
    fn sink_blobs_match_golden_bytes() {
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let epochs = [
            vec![(tuple![1, 3], 1), (tuple![1, 5], 1), (tuple![2, 12], 1)],
            vec![(tuple![1, 14], 1), (tuple![2, 12], -1)],
            vec![(tuple![3, 25], 2)],
        ];
        let count_sum = || vec![AggSpec::count(), AggSpec::sum_col(1)];
        let cases = [
            (
                "group by",
                keyed_view(count_sum(), None),
                concat!(
                    "0102000000010000000101000000000000000200000003000000000000000000",
                    "0000000000000000000000000000010300000000000000160000000000000000",
                    "0000000000000001010000000103000000000000000200000002000000000000",
                    "0000000000000000000000000000000000010200000000000000320000000000",
                    "000000000000000000000101"
                ),
            ),
            (
                "global count",
                global_count_view(),
                concat!(
                    "0101000000000000000100000005000000000000000000000000000000000000",
                    "00000000000101"
                ),
            ),
            (
                "tumbling",
                keyed_view(count_sum(), Some(WindowSpec::Tumbling { width: 10 })),
                concat!(
                    "0103000000030000000100000000000000000109000000000000000101000000",
                    "0000000002000000020000000000000000000000000000000000000000000000",
                    "010200000000000000080000000000000000000000000000000103000000010a",
                    "0000000000000001130000000000000001010000000000000002000000010000",
                    "0000000000000000000000000000000000000000000101000000000000000e00",
                    "00000000000000000000000000000103000000011400000000000000011d0000",
                    "0000000000010300000000000000020000000200000000000000000000000000",
                    "0000000000000000000001020000000000000032000000000000000000000000",
                    "0000000101"
                ),
            ),
        ];
        for (what, plan, golden) in cases {
            let shared = Arc::new(ViewShared::new());
            let mut sink = sink_of(&plan, &shared);
            for (epoch, deltas) in (1..).zip(&epochs) {
                apply(&mut sink, epoch, deltas);
            }
            assert_eq!(hex(&sink.blob()), golden, "{what}");
        }
    }

    #[test]
    fn a_delta_narrower_or_wider_than_a_join_result_is_a_typed_error() {
        // A worker's delta chunk comes off the wire into the sink task, so
        // its payload width is checked against the join output's (here 2).
        let tumbling = Some(WindowSpec::Tumbling { width: 10 });
        for (case, plan, delta) in [
            ("no ts column", keyed_view(vec![AggSpec::count()], tumbling), tuple![3, 1, 1]),
            ("empty payload", keyed_view(vec![AggSpec::count()], None), tuple![1, 1]),
            ("payload too wide", keyed_view(vec![AggSpec::count()], None), tuple![3, 4, 5, 1, 1]),
        ] {
            let shared = Arc::new(ViewShared::new());
            let mut b = squall_runtime::TopologyBuilder::new();
            let rows = Arc::new(vec![delta]);
            let src = b.add_spout("deltas", 1, move |_| {
                Box::new(squall_runtime::IterSpoutVec::strided(Arc::clone(&rows), 0, 1))
            });
            let sink = b.add_bolt("sink", 1, move |_| Box::new(sink_of(&plan, &shared)));
            b.connect(src, sink, Grouping::Global);
            let error = b.build().unwrap().run().error;
            assert!(
                matches!(&error, Some(SquallError::Runtime(m)) if m.contains("view delta")),
                "{case}: {error:?}"
            );
        }
    }

    #[test]
    fn a_delta_chunk_with_a_bad_tag_queues_none_of_its_rows() {
        // Row 0 is a good delta of epoch `at`; row 1 carries a `Float`
        // epoch, a `Float` weight or an epoch already applied. The chunk is
        // refused whole, typed: once epoch `at` is released, row 0 shows
        // nowhere.
        let at = 2;
        for (case, bad) in [
            ("Float epoch", tuple![8, 2, 1, 2.0]),
            ("Float weight", tuple![8, 2, 1.0, 2]),
            ("late epoch", tuple![8, 2, 1, 1]),
        ] {
            let shared = Arc::new(ViewShared::new());
            let mut sink = sink_of(&keyed_view(vec![AggSpec::count()], None), &shared);
            sink.apply_through(1).unwrap();
            let rx = shared.subscribe();
            let chunk = Chunk::from_tuples(&[tuple![7, 1, 1, at], bad]);
            let err = sink.queue_chunk(&chunk).unwrap_err();
            assert!(
                matches!(err, SquallError::TypeMismatch { .. } | SquallError::Runtime(_)),
                "{case}: {err}"
            );
            sink.apply_through(at as u64).unwrap();
            assert!(rx.try_iter().all(|batch| batch.changes.is_empty()), "{case}");
            let rows = shared.snapshot_rows(at as u64, Duration::ZERO, || None).unwrap();
            assert!(rows.is_empty(), "{case}: {rows:?}");
        }
    }

    #[test]
    fn resident_join_view_applies_appends_and_retractions() {
        let spec = pair_spec();
        let data = vec![vec![tuple![1, 10]], vec![tuple![1, 100]]];
        let shared = Arc::new(ViewShared::new());
        let mut h =
            launch_standing(&spec, data, &standing_cfg(), project(4), Arc::clone(&shared)).unwrap();
        let mut rows = h.snapshot(Duration::from_secs(5)).unwrap();
        rows.sort();
        assert_eq!(rows, vec![tuple![1, 10, 1, 100]]);

        // Append a matching S row: one new join result.
        h.apply(vec![(1, Arc::new(vec![tuple![1, 200]].into()), 1)]).unwrap();
        let mut rows = h.snapshot(Duration::from_secs(5)).unwrap();
        rows.sort();
        assert_eq!(rows, vec![tuple![1, 10, 1, 100], tuple![1, 10, 1, 200]]);

        // Retract the original R row: both results vanish.
        h.apply(vec![(0, Arc::new(vec![tuple![1, 10]].into()), -1)]).unwrap();
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
        let cfg = agg_cfg(vec![0], vec![AggSpec::count()]);
        let data = vec![vec![tuple![1, 10], tuple![2, 20]], vec![tuple![1, 100]]];
        let shared = Arc::new(ViewShared::new());
        // Subscribe before launch so the epoch-1 batch is observed too.
        let rx = shared.subscribe();
        let mut h = launch_standing(&spec, data, &cfg, project(2), Arc::clone(&shared)).unwrap();
        assert_eq!(h.snapshot(Duration::from_secs(5)).unwrap(), vec![tuple![1, 1]]);

        h.apply(vec![(1, Arc::new(vec![tuple![2, 200], tuple![1, 101]].into()), 1)]).unwrap();
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
        let mut h = launch_standing(&spec, data, &cfg, project(4), Arc::clone(&shared)).unwrap();
        assert_eq!(h.snapshot(Duration::from_secs(10)).unwrap(), vec![tuple![1, 10, 1, 100]]);
        h.apply(vec![(1, Arc::new(vec![tuple![1, 200]].into()), 1)]).unwrap();
        h.apply(vec![(0, Arc::new(vec![tuple![1, 10]].into()), -1)]).unwrap();
        h.apply(vec![
            (0, Arc::new(vec![tuple![2, 20]].into()), 1),
            (1, Arc::new(vec![tuple![2, 300]].into()), 1),
        ])
        .unwrap();
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
            project(1),
            Arc::clone(&shared),
        )
        .unwrap();
        h.apply(vec![(0, Arc::new(vec![tuple![3]].into()), 1)]).unwrap();
        h.apply(vec![(0, Arc::new(vec![tuple![2]].into()), -1)]).unwrap();
        let mut rows = h.snapshot(Duration::from_secs(5)).unwrap();
        rows.sort();
        assert_eq!(rows, vec![tuple![1], tuple![3]]);
        assert!(h.shutdown().error.is_none());
    }
}
