//! Physical operators: the bolts Squall installs into topologies.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use squall_common::array::Array;
use squall_common::{Chunk, FxHashMap, Result, SquallError, Tuple, Value};
use squall_expr::ScalarExpr;
use squall_join::{
    AggSpec, DBToasterJoin, GroupByAggregator, LocalJoin, RowSink, WindowJoin, WindowSpec,
};
use squall_runtime::{Bolt, NodeId, OutputCollector};

/// An event-time column value as a timestamp. A negative one is a typed
/// error at every operator that reads event time (`at` names which): cast
/// to `u64` it would wrap past every watermark and evict live state.
pub(crate) fn event_time(ts: i64, at: &str) -> Result<u64> {
    u64::try_from(ts)
        .map_err(|_| SquallError::Runtime(format!("negative event-time timestamp {ts} {at}")))
}

/// The extrema `(lo, hi)` of a join result's constituent timestamps, read
/// from its event-time columns `ts_cols`.
pub(crate) fn event_time_range(row: &[Value], ts_cols: &[usize], at: &str) -> Result<(u64, u64)> {
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for &c in ts_cols {
        let ts = event_time(row[c].as_int()?, at)?;
        lo = lo.min(ts);
        hi = hi.max(ts);
    }
    Ok((lo, hi))
}

/// How an engine row — a join result, or a raw aggregate row (group keys ++
/// every aggregate, hidden HAVING-only ones included) — becomes a row of
/// the query's answer: the HAVING gate, the SELECT projection and SQL's
/// "a global aggregate over zero rows is one row". The one-shot result
/// stream and the standing view sink both finalize through this one
/// definition.
#[derive(Debug, Clone)]
pub struct Finalizer {
    /// HAVING over the raw aggregate row; `None` on non-aggregate queries.
    pub having: Option<ScalarExpr>,
    /// The SELECT list, in order, over the engine row.
    pub project: Vec<ScalarExpr>,
    /// The raw aggregate row that answers for zero input rows (`COUNT` = 0,
    /// `NULL` sums and averages): a full-history global aggregate's only.
    pub empty: Option<Tuple>,
}

impl Finalizer {
    /// HAVING-gate and project one engine row; `None` when HAVING drops it.
    pub fn row(&self, raw: &[Value]) -> Result<Option<Tuple>> {
        if let Some(h) = &self.having {
            if !h.eval_bool(raw)? {
                return Ok(None);
            }
        }
        self.select(raw).map(Some)
    }

    /// The SELECT list over `raw`, built in one allocation: the list's
    /// length is known, so the tuple is collected in place, and the first
    /// error, if any, is returned instead.
    fn select(&self, raw: &[Value]) -> Result<Tuple> {
        let mut failed = None;
        let row = (self.project.iter())
            .map(|e| {
                e.eval(raw).unwrap_or_else(|e| {
                    failed.get_or_insert(e);
                    Value::Null
                })
            })
            .collect();
        failed.map_or(Ok(row), Err)
    }

    /// The row answering for zero input rows, when this query has one
    /// ([`Finalizer::empty`]) and HAVING keeps it. A HAVING predicate that
    /// errors over it drops it — SQL's unknown-is-false; a *projection*
    /// error over it is a real error, exactly like one over a produced row.
    pub fn empty_row(&self) -> Result<Option<Tuple>> {
        let Some(raw) = &self.empty else { return Ok(None) };
        match &self.having {
            Some(h) if !h.eval_bool(raw).unwrap_or(false) => Ok(None),
            _ => self.select(raw).map(Some),
        }
    }
}

/// The watermark frontier of an operator with several upstream tasks: the
/// highest promise per task, the minimum across tasks, and silence until
/// every task has promised something — before that no minimum means
/// anything. Event-time watermarks, window-start boundaries and standing
/// epochs all advance through it, keyed by `(upstream node, task)`.
pub(crate) struct Frontier {
    per_task: FxHashMap<(NodeId, usize), u64>,
    n_upstream: usize,
}

impl Frontier {
    pub(crate) fn new(n_upstream: usize) -> Frontier {
        Frontier { per_task: FxHashMap::default(), n_upstream }
    }

    /// Record upstream task `(origin, task)`'s promise `ts` (a lower one
    /// than it already made is ignored) and return the frontier: the
    /// minimum over all upstream tasks, `None` while any is yet to promise.
    pub(crate) fn advance(&mut self, origin: NodeId, task: usize, ts: u64) -> Option<u64> {
        let slot = self.per_task.entry((origin, task)).or_insert(0);
        *slot = (*slot).max(ts);
        if self.per_task.len() < self.n_upstream {
            return None;
        }
        self.per_task.values().copied().min()
    }
}

/// Full-history or event-time-windowed local join state.
pub(crate) enum JoinState {
    Full(DBToasterJoin),
    /// Behind the event-time window, with the timestamps of the batch being
    /// inserted, reused from batch to batch.
    Windowed {
        join: WindowJoin<DBToasterJoin>,
        stamps: Vec<u64>,
    },
}

/// What every join task holds, whichever plane it serves — the one-shot
/// [`JoinBolt`] or the standing view's delta join, each over a
/// [`DBToasterJoin`] of either view set: the local join state (full-history
/// or windowed), the event-time read in front of a windowed insert, the
/// upstream-node → relation lookup, and the §7.3 per-machine budget check.
/// What the planes do *around* an insert (result counts and event-time
/// watermarks vs delta tags, epochs and checkpoint barriers) stays in their
/// bolts.
pub(crate) struct TaskJoin {
    pub(crate) state: JoinState,
    /// Maps the upstream node that emitted a tuple to its relation index.
    pub(crate) origin_to_rel: FxHashMap<NodeId, usize>,
    /// The join task (machine) index.
    pub(crate) machine: usize,
    /// Per-machine stored-tuple budget (the §7.3 memory-overflow
    /// experiments); `None` = unlimited. A task checks it once per batch,
    /// so an overflow is detected at chunk granularity.
    pub(crate) budget: Option<usize>,
}

impl TaskJoin {
    /// The relation fed by upstream node `origin` (once per chunk: every
    /// tuple of a batch shares its origin node).
    pub(crate) fn rel_of(&self, origin: NodeId) -> Result<usize> {
        self.origin_to_rel
            .get(&origin)
            .copied()
            .ok_or_else(|| SquallError::Runtime(format!("unknown origin node {origin}")))
    }

    /// Insert the `rows` of `rel`, back to back, pushing the (in-window)
    /// results into `out`; a windowed join hands each row the batch evicts
    /// to `evicted` as `(rel, row, multiplicity)`. A windowed batch is read
    /// for its event times first: a row without a valid one is a typed
    /// error, and then no row of the batch is inserted.
    pub(crate) fn insert_into(
        &mut self,
        rel: usize,
        rows: &[Value],
        out: &mut dyn RowSink,
        evicted: impl FnMut(usize, &[Value], i64),
    ) -> Result<()> {
        match &mut self.state {
            JoinState::Full(join) => join.insert_into(rel, rows, out),
            JoinState::Windowed { join, stamps } => {
                let (arity, col) = join.row_shape(rel);
                stamps.clear();
                for row in rows.chunks_exact(arity) {
                    stamps.push(event_time(row[col].as_int()?, "in windowed join input")?);
                }
                join.insert_into(rel, stamps, rows, out, evicted)
            }
        }
        Ok(())
    }

    /// The windowed join's event-time watermark; `None` under full history
    /// or before every relation has been seen.
    pub(crate) fn watermark(&self) -> Option<u64> {
        match &self.state {
            JoinState::Full(_) => None,
            JoinState::Windowed { join, .. } => join.watermark(),
        }
    }

    /// Fail with [`SquallError::MemoryOverflow`] once the stored tuples
    /// exceed the budget.
    pub(crate) fn check_budget(&self) -> Result<()> {
        let Some(budget) = self.budget else { return Ok(()) };
        let stored = match &self.state {
            JoinState::Full(join) => join.stored(),
            JoinState::Windowed { join, .. } => join.inner().stored(),
        };
        if stored > budget {
            return Err(SquallError::MemoryOverflow { machine: self.machine, stored, budget });
        }
        Ok(())
    }
}

/// The distributed join task: one local join, a [`DBToasterJoin`] over
/// either view set, per machine (task), fed by the partitioning scheme's
/// groupings. With a hypercube grouping and every connected subset's view
/// inside, this is the HyLD operator of §3.4.
pub struct JoinBolt {
    join: TaskJoin,
    /// The rows of the chunk being inserted, reused from chunk to chunk.
    rows: Vec<Value>,
    /// The first phase of an aggregate downstream, which results fold into
    /// instead of being emitted; `None` without one.
    partials: Option<Partials>,
}

impl JoinBolt {
    pub(crate) fn over(join: TaskJoin) -> JoinBolt {
        JoinBolt { join, rows: Vec::new(), partials: None }
    }

    /// A full-history join bolt.
    pub fn new(
        machine: usize,
        origin_to_rel: FxHashMap<NodeId, usize>,
        join: DBToasterJoin,
    ) -> JoinBolt {
        let state = JoinState::Full(join);
        JoinBolt::over(TaskJoin { state, origin_to_rel, machine, budget: None })
    }

    /// A windowed join bolt under *event-time* semantics: `ts_cols[rel]`
    /// names the timestamp column and `arities[rel]` the tuple width of
    /// each relation (both in the bolt's input coordinates). State is
    /// evicted by the cross-relation watermark and every emitted result is
    /// filtered by the window predicate over its constituent timestamps,
    /// so the produced rows are a pure function of the timestamped inputs
    /// no matter how the relations interleave.
    pub fn new_windowed(
        machine: usize,
        origin_to_rel: FxHashMap<NodeId, usize>,
        join: DBToasterJoin,
        spec: WindowSpec,
        ts_cols: Vec<usize>,
        arities: &[usize],
    ) -> JoinBolt {
        let join = WindowJoin::event_time(join, spec, arities, &ts_cols);
        let state = JoinState::Windowed { join, stamps: Vec::new() };
        JoinBolt::over(TaskJoin { state, origin_to_rel, machine, budget: None })
    }

    /// Run the first phase of an aggregate in this task ([`WindowedAggBolt`]
    /// runs the second): fold each result, with its weight, into a partial
    /// aggregate instead of emitting it, and ship one row per key — see
    /// [`GroupByAggregator::drain_partials`] — once the key is final.
    ///
    /// Under full history (`window` is `None`) the key is the result's
    /// group, and every key ships at end-of-stream.
    ///
    /// Under a window `(spec, ts_cols)` — the event-time columns in
    /// join-output coordinates; windowed bolts only — the key is the
    /// result's window-start range ([`WindowSpec::window_starts`]) and
    /// group, and the row `(first, last, group…, accumulators…)`. Whenever
    /// the task's event-time watermark `w` has moved a window length past
    /// the last one forwarded, every partial whose first window start lies
    /// below `close_boundary(w)` ships, and then `w` itself; at
    /// end-of-stream all of them, then `u64::MAX`. A shipped key is final:
    /// every later result has a constituent at or past `w`, so its first
    /// window start is at least `close_boundary(w)`. Nor is a shipped row
    /// ever late: a shard closes below the minimum watermark across the
    /// join tasks, which is at most this task's.
    pub fn with_aggregate(
        mut self,
        window: Option<(WindowSpec, Vec<usize>)>,
        group_cols: Vec<usize>,
        aggs: Vec<AggSpec>,
    ) -> JoinBolt {
        assert!(
            window.is_none() || matches!(self.join.state, JoinState::Windowed { .. }),
            "a windowed aggregate needs event-time windows"
        );
        let granule = match window {
            Some((WindowSpec::Tumbling { width }, _)) => width,
            Some((WindowSpec::Sliding { size }, _)) => size,
            _ => 1,
        };
        self.partials = Some(Partials {
            window,
            agg: GroupByAggregator::new(group_cols, aggs),
            granule: granule.max(1),
            next_wm: 0,
        });
        self
    }

    /// Process the arrivals in `self.rows`, whose relation is already
    /// resolved.
    fn step(&mut self, rel: usize, out: &mut OutputCollector) -> Result<()> {
        // Partials fold a result once with its weight, so aggregated
        // DBToaster views never materialize hot-key outputs (§3.3);
        // otherwise a row is emitted per unit.
        let (mut partials, mut failed) = (self.partials.as_mut(), None);
        let mut sink = |row: &[Value], mult: i64| match partials.as_mut() {
            Some(p) if mult > 0 && failed.is_none() => failed = p.fold(row, mult).err(),
            Some(_) => {}
            None => (0..mult).for_each(|_| out.emit_row(row)),
        };
        self.join.insert_into(rel, &self.rows, &mut sink, |_, _, _| {})?;
        if let Some(e) = failed {
            return Err(e);
        }
        // Only a windowed join has a watermark; the granule batches the
        // promises, so buffers are not flushed on every arrival.
        if let (Some(p), Some(w)) = (&mut self.partials, self.join.watermark()) {
            if let Some((spec, _)) = p.window.as_ref().filter(|_| w >= p.next_wm) {
                let boundary = spec.close_boundary(w);
                p.flush_below(boundary, out);
                out.emit_watermark(w);
                p.next_wm = w.saturating_add(p.granule);
            }
        }
        self.join.check_budget()
    }
}

impl Bolt for JoinBolt {
    fn execute_chunk(
        &mut self,
        origin: NodeId,
        chunk: &Chunk,
        out: &mut OutputCollector,
    ) -> Result<()> {
        let rel = self.join.rel_of(origin)?;
        // The join takes the chunk whole — a window cuts it into runs
        // between eviction boundaries itself. A zero-column chunk's rows
        // would flatten to nothing (a zero-arity batch is one row), so they
        // go one by one.
        self.rows.clear();
        if chunk.n_cols() == 0 {
            return (0..chunk.n_rows()).try_for_each(|_| self.step(rel, out));
        }
        for i in 0..chunk.n_rows() {
            self.rows.extend(chunk.columns().iter().map(|c| c.value(i)));
        }
        self.step(rel, out)
    }

    fn finish(&mut self, out: &mut OutputCollector) -> Result<()> {
        if let Some(p) = &mut self.partials {
            // This task will never emit again: ship every partial, then
            // release downstream windows unconditionally (a task that saw
            // no data for some relation never advanced its watermark —
            // without this, windowed aggregation could only close windows
            // at its own finish).
            p.flush_below(u64::MAX, out);
            if p.window.is_some() {
                out.emit_watermark(u64::MAX);
            }
        }
        Ok(())
    }
}

/// The first phase of an aggregate, inside one join task: partial
/// aggregates keyed by the result's group, and under a window by
/// `(first, last, group…)`, the result's window-start range and its group.
/// Keying by the range rather than by window serves both window shapes
/// with one path: under tumbling windows the range is one window, so a
/// task ships at most one partial per (window, group); under sliding
/// windows a result lies in up to `size + 1` windows, so per-window
/// partials could outnumber the results, while per-range ones never do.
/// All keys share one aggregator, so a new range costs one hash entry, as
/// a new group does.
struct Partials {
    /// The window and each relation's event-time column in join-output
    /// coordinates; `None` under full history.
    window: Option<(WindowSpec, Vec<usize>)>,
    agg: GroupByAggregator,
    /// Forward the watermark once it has moved this far (one window
    /// length) past the last forward.
    granule: u64,
    /// Next watermark value at which a forward is due.
    next_wm: u64,
}

impl Partials {
    /// Fold `weight` copies of one (in-window) result in.
    fn fold(&mut self, row: &[Value], weight: i64) -> Result<()> {
        let Some((spec, ts_cols)) = &self.window else {
            return self.agg.fold_row(row, weight);
        };
        let (lo, hi) = event_time_range(row, ts_cols, "in aggregate input")?;
        let range = spec.window_starts(lo, hi)?;
        // Both bounds fit an `Int`: `first ≤ lo`, and `window_starts`
        // checks `last`'s window end.
        let range = [Value::Int(*range.start() as i64), Value::Int(*range.end() as i64)];
        self.agg.fold_row_under(&range, row, weight)
    }

    /// Ship every partial whose first window start lies below `boundary`
    /// (under full history: every partial), each row counted as the join
    /// results it folds.
    fn flush_below(&mut self, boundary: u64, out: &mut OutputCollector) {
        let windowed = self.window.is_some();
        self.agg.drain_partials(
            |key| !windowed || matches!(key[0], Value::Int(first) if (first as u64) < boundary),
            |row, folded| out.emit_folded(row, folded),
        );
    }
}

/// The aggregation shard. Per window, it is the windowed mode of the
/// aggregation component (§2 "window semantics for its operators" — the
/// window applied to the *aggregate*, not just the join).
///
/// State is keyed by `(window_start, group key)`: each join result counts
/// in every window it belongs to —
///
/// * **tumbling `width`** — exactly one window, `[k·width, (k+1)·width)`
///   where `k = ⌊ts/width⌋` (the window predicate upstream guarantees all
///   constituent timestamps share the bucket);
/// * **sliding `size`** — every window `[s, s+size]` (inclusive, matching
///   the join's `max − min ≤ size` predicate) that contains *all*
///   constituent timestamps: `s ∈ [max−size, min]`, one window per time
///   unit, so adjacent windows overlap.
///
/// The aggregate runs in **two phases** — the paper's aggregated views,
/// computed on the machine that runs the join (§3.3). Each join task folds
/// its results into partial aggregates per (window-start range, group) and
/// ships one row per key once its watermark makes the key final
/// ([`JoinBolt::with_aggregate`]); a hypercube sends each result to
/// exactly one join task, so the partials add up to the answer (DBSP's
/// linearity of aggregation). This bolt's face is the second phase: it
/// merges each partial `(first, last, group…, accumulators…)` into the
/// windows `first..=last`. [`WindowedAggBolt::insert_chunk`] keeps the
/// one-phase kernel over raw join results.
///
/// A window is **closed** — its rows finalized and emitted, its state
/// dropped — once the minimum watermark across every upstream join task
/// guarantees no further result can fall into it (tumbling: watermark
/// reached the next bucket; sliding: `start < watermark − size`). Closed
/// windows are emitted in ascending `window_start` order, each row shaped
/// `(window_start, window_end, group…, agg…)` with both bounds inclusive,
/// and the remaining windows flush — still in order — at end-of-stream.
///
/// Under [`WindowSpec::FullHistory`] the bolt is the second phase of a
/// full-history aggregate: full history is the one window, start 0, that
/// closes only at end-of-stream (its `close_boundary` is 0, so a watermark
/// closes and forwards nothing). Partial rows `(group…, accumulators…)`
/// merge into it without a `(first, last)` lead, and its rows are
/// `(group…, agg…)`, without a `(start, end)` prefix.
///
/// The bolt runs **group-hash sharded**: a `Fields` grouping on the
/// partial rows' group columns routes every partial of a group to one task, so each shard holds
/// `(window_start, group)` state for its groups only and closes windows
/// against its own copy of the cross-task join watermark (watermarks
/// broadcast, so every shard sees every join task's frontier). After
/// closing below a boundary the shard forwards that boundary downstream —
/// the promise "all my future rows have `window_start ≥ boundary`" that
/// [`WindowMergeBolt`] turns back into the global window-order contract.
pub struct WindowedAggBolt {
    spec: WindowSpec,
    /// Positions of each relation's event-time column in the join-output
    /// row (results are concatenated in relation order).
    ts_cols: Vec<usize>,
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    /// Open windows by start, each with its own group-by state.
    windows: BTreeMap<u64, GroupByAggregator>,
    /// The minimum event-time watermark across the upstream join tasks.
    frontier: Frontier,
    /// Every window with `start` below this has been emitted; a data row
    /// for such a window would violate the watermark contract.
    closed_before: u64,
    /// Highest window-start boundary forwarded downstream (to the merge
    /// sink); forwards are suppressed until the boundary advances.
    forwarded: u64,
    /// Scratch for closed-window rows between close and emit.
    drain: Vec<Tuple>,
    /// Scratch for one partial row.
    partial: Vec<Value>,
}

impl WindowedAggBolt {
    /// `ts_cols`: the event-time columns in join-output coordinates (none
    /// under full history); `n_upstream`: the join component's parallelism.
    pub fn new(
        spec: WindowSpec,
        ts_cols: Vec<usize>,
        group_cols: Vec<usize>,
        aggs: Vec<AggSpec>,
        n_upstream: usize,
    ) -> WindowedAggBolt {
        let full_history = matches!(spec, WindowSpec::FullHistory);
        assert!(full_history || !ts_cols.is_empty(), "event-time columns required");
        assert!(n_upstream > 0);
        WindowedAggBolt {
            spec,
            ts_cols,
            group_cols,
            aggs,
            windows: BTreeMap::new(),
            frontier: Frontier::new(n_upstream),
            closed_before: 0,
            forwarded: 0,
            drain: Vec::new(),
            partial: Vec::new(),
        }
    }

    /// Close every window with `start < boundary` into `rows`, in window
    /// order — the collector-free face of the close path, shared by the
    /// runtime wrapper below and by benchmarks driving the bare kernel.
    pub fn close_into(&mut self, boundary: u64, rows: &mut Vec<Tuple>) {
        while let Some(entry) = self.windows.first_entry() {
            if *entry.key() >= boundary {
                break;
            }
            let (start, agg) = entry.remove_entry();
            if matches!(self.spec, WindowSpec::FullHistory) {
                rows.extend(agg.snapshot());
                continue;
            }
            let end = self.spec.end_of(start);
            for row in agg.snapshot() {
                let mut values = Vec::with_capacity(2 + row.arity());
                values.push(Value::Int(start as i64));
                values.push(Value::Int(end as i64));
                values.extend(row.values().iter().cloned());
                rows.push(Tuple::new(values));
            }
        }
        self.closed_before = self.closed_before.max(boundary);
    }

    /// Open windows.
    #[cfg(test)]
    fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// The window starts a result with constituent-timestamp extrema
    /// `[lo, hi]` folds into ([`WindowSpec::window_starts`]), with the
    /// late-data check.
    fn fold_range(&self, lo: u64, hi: u64) -> Result<std::ops::RangeInclusive<u64>> {
        let range = self.spec.window_starts(lo, hi)?;
        self.check_open(*range.start())?;
        Ok(range)
    }

    /// Data for the windows from `first` on must not arrive once window
    /// `first` has closed.
    fn check_open(&self, first: u64) -> Result<()> {
        if first < self.closed_before {
            return Err(SquallError::Runtime(format!(
                "late join result for closed window {first} (closed below {})",
                self.closed_before
            )));
        }
        Ok(())
    }

    /// Fold one join result row into every window it belongs to, the
    /// obvious way — the reference [`WindowedAggBolt::insert_chunk`] is
    /// tested against.
    #[cfg(test)]
    fn insert_row(&mut self, tuple: &Tuple) -> Result<()> {
        let (lo, hi) = event_time_range(tuple, &self.ts_cols, "in aggregate input")?;
        for start in self.fold_range(lo, hi)? {
            self.windows
                .entry(start)
                .or_insert_with(|| {
                    GroupByAggregator::new(self.group_cols.clone(), self.aggs.clone())
                })
                .update(tuple)?;
        }
        Ok(())
    }

    /// Fold one columnar chunk of join results in without materializing a
    /// single per-row [`Tuple`]: window bounds run over the timestamp
    /// columns (straight over the i64 slice when fully-valid Int),
    /// aggregate input expressions evaluate once per chunk, and each row
    /// folds into its windows from the resulting arrays via
    /// [`GroupByAggregator::accumulate`].
    pub fn insert_chunk(&mut self, chunk: &Chunk) -> Result<()> {
        let rows = chunk.n_rows();
        if rows == 0 {
            return Ok(());
        }
        let mut lo = vec![u64::MAX; rows];
        let mut hi = vec![0u64; rows];
        for &c in &self.ts_cols {
            let col = chunk.column(c);
            let plain = col.as_i64().filter(|a| a.validity().is_none()).map(|a| a.values());
            for i in 0..rows {
                let v = match plain {
                    Some(vals) => vals[i],
                    None => col.value(i).as_int()?,
                };
                let v = event_time(v, "in aggregate input")?;
                lo[i] = lo[i].min(v);
                hi[i] = hi[i].max(v);
            }
        }
        // Aggregate inputs, column-at-a-time, once per chunk.
        let mut inputs: Vec<Option<Array>> = Vec::with_capacity(self.aggs.len());
        for a in &self.aggs {
            inputs.push(match &a.input {
                Some(e) => Some(e.eval_chunk(chunk)?),
                None => None,
            });
        }
        let mut key: Vec<Value> = Vec::with_capacity(self.group_cols.len());
        let mut vals: Vec<Option<Value>> = Vec::with_capacity(self.aggs.len());
        for i in 0..rows {
            let range = self.fold_range(lo[i], hi[i])?;
            key.clear();
            for &c in &self.group_cols {
                key.push(chunk.column(c).value(i));
            }
            vals.clear();
            for a in &inputs {
                vals.push(a.as_ref().map(|arr| arr.value(i)));
            }
            for start in range {
                self.windows
                    .entry(start)
                    .or_insert_with(|| {
                        GroupByAggregator::new(self.group_cols.clone(), self.aggs.clone())
                    })
                    .accumulate(&key, &vals)?;
            }
        }
        Ok(())
    }

    /// The second phase: merge a chunk of the join tasks' partial rows
    /// `(first, last, group…, accumulators…)` into the windows
    /// `first..=last` — under full history `(group…, accumulators…)` into
    /// window 0.
    fn merge_partials(&mut self, chunk: &Chunk) -> Result<()> {
        let mut row = std::mem::take(&mut self.partial);
        for i in 0..chunk.n_rows() {
            chunk.row_into(i, &mut row);
            let (range, lead) = match self.spec {
                WindowSpec::FullHistory => (0..=0, 0),
                _ => (self.partial_range(&row)?, 2),
            };
            // Open the missing windows, then walk the range once: a sliding
            // partial spans up to `size + 1` windows, mostly open already.
            let span = (range.end() - range.start() + 1) as usize;
            if self.windows.range(range.clone()).count() != span {
                for start in range.clone() {
                    self.windows.entry(start).or_insert_with(|| {
                        GroupByAggregator::new(self.group_cols.clone(), self.aggs.clone())
                    });
                }
            }
            for agg in self.windows.range_mut(range).map(|(_, agg)| agg) {
                agg.merge_partial(&row[lead..])?;
            }
        }
        self.partial = row;
        Ok(())
    }

    /// The windows a partial row merges into: a range some result's
    /// [`WindowSpec::window_starts`] can be — the row may come off the
    /// wire, so any other is a typed error — none of them closed.
    fn partial_range(&self, row: &[Value]) -> Result<std::ops::RangeInclusive<u64>> {
        let bound = |i: usize| match row.get(i) {
            Some(v) => event_time(v.as_int()?, "in a partial aggregate"),
            None => Err(SquallError::Runtime("a partial aggregate without its windows".into())),
        };
        let (first, last) = (bound(0)?, bound(1)?);
        let shaped = match self.spec {
            WindowSpec::Tumbling { width } => first == last && first % width == 0,
            WindowSpec::Sliding { size } => first <= last && last - first <= size,
            WindowSpec::FullHistory => false,
        };
        if !shaped {
            return Err(SquallError::Runtime(format!(
                "no join result folds into the windows {first}..={last}"
            )));
        }
        // The last window's end must fit the `Int` it is reported as.
        self.spec.window_starts(last, last)?;
        self.check_open(first)?;
        Ok(first..=last)
    }
}

impl Bolt for WindowedAggBolt {
    fn execute_chunk(
        &mut self,
        _origin: NodeId,
        chunk: &Chunk,
        _out: &mut OutputCollector,
    ) -> Result<()> {
        self.merge_partials(chunk)
    }

    fn watermark(
        &mut self,
        origin: NodeId,
        from_task: usize,
        ts: u64,
        out: &mut OutputCollector,
    ) -> Result<()> {
        let Some(w) = self.frontier.advance(origin, from_task, ts) else {
            return Ok(()); // some upstream task has made no promise yet
        };
        // Any future result carries max-constituent-ts ≥ w, so its
        // earliest window start is bounded below; everything under that
        // bound is final.
        let boundary = self.spec.close_boundary(w);
        let mut rows = std::mem::take(&mut self.drain);
        self.close_into(boundary, &mut rows);
        for t in rows.drain(..) {
            out.emit(t);
        }
        self.drain = rows;
        // Forward the shard's window-start frontier so the merge sink can
        // release: the rows above were emitted first (and buffers flush
        // ahead of watermarks), so per-sender FIFO keeps every released
        // prefix final. Idle shards forward too — with no data for a
        // group-hash shard, the merge would otherwise wait for it until
        // end-of-stream.
        if boundary > self.forwarded {
            out.emit_watermark(boundary);
            self.forwarded = boundary;
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut OutputCollector) -> Result<()> {
        // All inputs done: every remaining window is final.
        let mut rows = std::mem::take(&mut self.drain);
        self.close_into(u64::MAX, &mut rows);
        for t in rows.drain(..) {
            out.emit(t);
        }
        self.drain = rows;
        Ok(())
    }
}

/// Coordinator-side ordered merge of group-hash-sharded windowed
/// aggregation: restores the global window-order contract that the
/// single-task plane provided for free.
///
/// Every shard of [`WindowedAggBolt`] emits its closed windows in
/// ascending `window_start` order and forwards a window-start boundary
/// watermark after each close ("all my future rows have
/// `window_start ≥ boundary`"). The merge buffers incoming rows in a
/// binary min-heap keyed on `(window_start, row)` and releases rows only
/// while `window_start` is below the **minimum** boundary across all
/// shards — by then every row of those windows has arrived (per-sender
/// FIFO puts a shard's rows ahead of its promise), so the released prefix
/// is final and globally ordered.
///
/// Ordering within a window: rows are `(window_start, window_end,
/// group…, agg…)` and group keys are disjoint across shards (group-hash
/// routing), so heap order — lexicographic over the row — coincides with
/// the sorted-by-group-key order a single aggregation task emits.
/// The merged stream is therefore **byte-identical** to the 1-task plane.
pub struct WindowMergeBolt {
    /// Min-heap of buffered rows keyed on `(window_start, row)`.
    heap: BinaryHeap<Reverse<(u64, Tuple)>>,
    /// The minimum window-start boundary across the upstream shards.
    frontier: Frontier,
    /// Every row below this window start has been released; a later
    /// arrival below it would violate the shard's boundary promise.
    released_below: u64,
    /// Scratch for released rows between release and emit.
    drain: Vec<Tuple>,
}

impl WindowMergeBolt {
    /// `n_upstream` is the windowed-aggregation shard count.
    pub fn new(n_upstream: usize) -> WindowMergeBolt {
        assert!(n_upstream > 0);
        WindowMergeBolt {
            heap: BinaryHeap::new(),
            frontier: Frontier::new(n_upstream),
            released_below: 0,
            drain: Vec::new(),
        }
    }

    /// Buffer one shard row (`window_start` in column 0).
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        let no_window = || SquallError::Runtime("a shard row without its window".into());
        let start = tuple.values().first().ok_or_else(no_window)?.as_int()?;
        if start < 0 {
            return Err(SquallError::Runtime(format!(
                "negative window start {start} at the merge sink"
            )));
        }
        let start = start as u64;
        if start < self.released_below {
            return Err(SquallError::Runtime(format!(
                "late shard row for window {start} (released below {})",
                self.released_below
            )));
        }
        self.heap.push(Reverse((start, tuple)));
        Ok(())
    }

    /// Release every buffered row with `window_start < boundary` into
    /// `rows`, in `(window_start, row)` order.
    pub fn release_below(&mut self, boundary: u64, rows: &mut Vec<Tuple>) {
        while let Some(Reverse((start, _))) = self.heap.peek() {
            if *start >= boundary {
                break;
            }
            let Reverse((_, t)) = self.heap.pop().expect("peeked");
            rows.push(t);
        }
        self.released_below = self.released_below.max(boundary);
    }

    /// Buffered (not yet released) rows — testing / introspection.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }
}

impl Bolt for WindowMergeBolt {
    fn execute_chunk(
        &mut self,
        _origin: NodeId,
        chunk: &Chunk,
        _out: &mut OutputCollector,
    ) -> Result<()> {
        chunk.rows().try_for_each(|tuple| self.push(tuple))
    }

    fn watermark(
        &mut self,
        origin: NodeId,
        from_task: usize,
        ts: u64,
        out: &mut OutputCollector,
    ) -> Result<()> {
        let Some(boundary) = self.frontier.advance(origin, from_task, ts) else {
            return Ok(()); // some shard has made no promise yet
        };
        let mut rows = std::mem::take(&mut self.drain);
        self.release_below(boundary, &mut rows);
        for t in rows.drain(..) {
            out.emit(t);
        }
        self.drain = rows;
        Ok(())
    }

    fn finish(&mut self, out: &mut OutputCollector) -> Result<()> {
        // Every shard has flushed and punctuated: drain the heap.
        let mut rows = std::mem::take(&mut self.drain);
        self.release_below(u64::MAX, &mut rows);
        for t in rows.drain(..) {
            out.emit(t);
        }
        self.drain = rows;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    use squall_common::tuple;
    use squall_expr::{BinOp, ScalarExpr};
    use squall_runtime::{Grouping, Spout, SpoutPoll, TopologyBuilder};

    fn windowed_bolt(spec: WindowSpec) -> WindowedAggBolt {
        // Join-output rows (k, ts_a, ts_b): group on k, COUNT + SUM(2·ts_a).
        WindowedAggBolt::new(
            spec,
            vec![1, 2],
            vec![0],
            vec![
                AggSpec::count(),
                AggSpec::sum(ScalarExpr::bin(BinOp::Mul, ScalarExpr::lit(2), ScalarExpr::col(1))),
            ],
            1,
        )
    }

    fn windowed_rows(n: i64, spread: u64) -> Vec<Tuple> {
        (0..n).map(|i| tuple![i % 3, i, i + (i as u64 % spread) as i64]).collect()
    }

    #[test]
    fn columnar_insert_kernel_matches_row_path() {
        // insert_chunk must leave byte-identical state to per-row
        // insert_row — same windows, same groups, same accumulators.
        for spec in [WindowSpec::Tumbling { width: 64 }, WindowSpec::Sliding { size: 5 }] {
            let spread = match spec {
                WindowSpec::Tumbling { .. } => 1, // same bucket per row
                _ => 4,
            };
            let rows = windowed_rows(200, spread);
            let mut by_row = windowed_bolt(spec);
            let mut by_chunk = windowed_bolt(spec);
            for t in &rows {
                by_row.insert_row(t).unwrap();
            }
            for batch in rows.chunks(64) {
                by_chunk.insert_chunk(&Chunk::from_tuples(batch)).unwrap();
            }
            assert_eq!(by_row.open_windows(), by_chunk.open_windows());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            by_row.close_into(u64::MAX, &mut a);
            by_chunk.close_into(u64::MAX, &mut b);
            assert!(!a.is_empty());
            assert_eq!(a, b, "{spec:?}");
        }
    }

    #[test]
    fn malformed_partials_are_typed_errors() {
        // A partial row may come off the wire. For `windowed_bolt` it is
        // (first, last, k, count, int SUM, other SUM); every other shape
        // is a typed error, and a well-formed row merges.
        let merge = |spec: WindowSpec, closed: u64, row: Tuple| {
            let mut bolt = windowed_bolt(spec);
            bolt.close_into(closed, &mut Vec::new());
            bolt.merge_partials(&Chunk::from_tuples(&[row]))
        };
        let (tumbling, sliding) =
            (WindowSpec::Tumbling { width: 64 }, WindowSpec::Sliding { size: 5 });
        let near_max = i64::MAX - 2;
        for (case, spec, closed, row) in [
            ("misaligned tumbling first", tumbling, 0, tuple![3, 3, 1, 1, 6, Value::Null]),
            ("tumbling last ≠ first", tumbling, 0, tuple![0, 64, 1, 1, 6, Value::Null]),
            ("sliding range past size", sliding, 0, tuple![0, 6, 1, 1, 6, Value::Null]),
            ("sliding last < first", sliding, 0, tuple![4, 3, 1, 1, 6, Value::Null]),
            (
                "window end past Int",
                sliding,
                0,
                tuple![near_max - 1, near_max, 1, 1, 6, Value::Null],
            ),
            ("negative first", sliding, 0, tuple![-1, 0, 1, 1, 6, Value::Null]),
            ("first window closed", sliding, 10, tuple![3, 8, 1, 1, 6, Value::Null]),
            ("accumulators too narrow", sliding, 0, tuple![0, 0, 1, 1, 6]),
            ("accumulators too wide", sliding, 0, tuple![0, 0, 1, 1, 6, Value::Null, 0]),
            ("non-Int count", sliding, 0, tuple![0, 0, 1, 1.5, 6, Value::Null]),
            ("non-Int int_sum", sliding, 0, tuple![0, 0, 1, 1, 6.5, Value::Null]),
            ("Str float sum", sliding, 0, tuple![0, 0, 1, 1, 6, "x"]),
        ] {
            let got = merge(spec, closed, row);
            assert!(matches!(got, Err(SquallError::Runtime(_))), "{case}: {got:?}");
        }
        assert!(merge(sliding, 10, tuple![10, 12, 1, 1, 6, Value::Null]).is_ok());
        assert!(merge(tumbling, 64, tuple![64, 64, 1, 2, 6, 0.5]).is_ok());
        // The full-history shard of the same aggregate reads the row
        // without its windows: (k, count, int SUM, other SUM).
        let merge = |row: Tuple| {
            let mut bolt = windowed_bolt(WindowSpec::FullHistory);
            bolt.merge_partials(&Chunk::from_tuples(&[row]))
        };
        for (case, row) in [
            ("short row", tuple![1, 1, 6]),
            ("non-Int count", tuple![1, 1.5, 6, Value::Null]),
            ("non-Int int_sum", tuple![1, 1, 6.5, Value::Null]),
        ] {
            let got = merge(row);
            assert!(matches!(got, Err(SquallError::Runtime(_))), "{case}: {got:?}");
        }
        assert!(merge(tuple![1, 2, 6, 0.5]).is_ok());
    }

    /// A spout replaying a script: `Some(row)` emits the row, `None` a
    /// watermark at `u64::MAX`.
    struct Script(std::vec::IntoIter<Option<Tuple>>, Option<Tuple>);

    impl Spout for Script {
        fn poll(&mut self) -> SpoutPoll<'_> {
            match self.0.next() {
                Some(Some(row)) => SpoutPoll::Row(self.1.insert(row)),
                Some(None) => SpoutPoll::Watermark(u64::MAX),
                None => SpoutPoll::Eos,
            }
        }
    }

    /// A sink recording what reaches it the same way.
    struct Probe(Arc<Mutex<Vec<Option<Tuple>>>>);

    impl Bolt for Probe {
        fn execute_chunk(
            &mut self,
            _: NodeId,
            chunk: &Chunk,
            _: &mut OutputCollector,
        ) -> Result<()> {
            self.0.lock().unwrap().extend(chunk.rows().map(Some));
            Ok(())
        }

        fn watermark(
            &mut self,
            _: NodeId,
            _: usize,
            _: u64,
            _: &mut OutputCollector,
        ) -> Result<()> {
            self.0.lock().unwrap().push(None);
            Ok(())
        }
    }

    #[test]
    fn full_history_shard_closes_only_at_finish() {
        // Full history is the one window that closes at end-of-stream: a
        // stray watermark between two partials of one group closes nothing
        // and forwards nothing, so the group finishes as one row, without a
        // `(start, end)` prefix.
        let script = vec![Some(tuple![1, 1, 2, Value::Null]), None, Some(tuple![1, 2, 6, 0.5])];
        let seen = Arc::new(Mutex::new(Vec::new()));
        let probe_seen = Arc::clone(&seen);
        let mut b = TopologyBuilder::new();
        let src =
            b.add_spout("partials", 1, move |_| Box::new(Script(script.clone().into_iter(), None)));
        let agg = b.add_bolt("agg", 1, |_| Box::new(windowed_bolt(WindowSpec::FullHistory)));
        let probe = b.add_bolt("probe", 1, move |_| Box::new(Probe(Arc::clone(&probe_seen))));
        b.connect(src, agg, Grouping::Global);
        b.connect(agg, probe, Grouping::Global);
        let error = b.build().unwrap().run().error;
        assert!(error.is_none(), "{error:?}");
        assert_eq!(*seen.lock().unwrap(), vec![Some(tuple![1, 3, 8.5])]);
    }

    #[test]
    fn window_merge_releases_in_order_and_rejects_late_rows() {
        let mut m = WindowMergeBolt::new(2);
        // Two shards' window-ordered streams, interleaved out of global
        // order: shard A has windows 0 and 10, shard B windows 5 and 10.
        m.push(tuple![10, 19, 2, 7]).unwrap();
        m.push(tuple![0, 9, 1, 3]).unwrap();
        m.push(tuple![5, 14, 4, 1]).unwrap();
        m.push(tuple![10, 19, 1, 2]).unwrap();
        let mut out = Vec::new();
        m.release_below(10, &mut out);
        assert_eq!(out, vec![tuple![0, 9, 1, 3], tuple![5, 14, 4, 1]]);
        assert_eq!(m.pending(), 2);
        // A row below the released boundary violates the shard promise.
        assert!(m.push(tuple![4, 13, 9, 9]).is_err());
        // So does a row without its window, which may come off the wire.
        assert!(matches!(m.push(Tuple::new(Vec::new())), Err(SquallError::Runtime(_))));
        m.release_below(u64::MAX, &mut out);
        assert_eq!(
            out[2..],
            [tuple![10, 19, 1, 2], tuple![10, 19, 2, 7]],
            "equal starts order by the remaining row columns (disjoint group keys)"
        );
    }

    /// A task's stored and live tuples before and after each chunk.
    type Seen = Arc<Mutex<Vec<[(usize, usize); 2]>>>;

    /// A windowed join bolt, recording what it holds around each chunk it
    /// executes.
    struct Held(JoinBolt, Seen);

    impl Held {
        fn held(&self) -> (usize, usize) {
            match &self.0.join.state {
                JoinState::Windowed { join, .. } => (join.inner().stored(), join.live_tuples()),
                JoinState::Full(_) => unreachable!("built windowed"),
            }
        }
    }

    impl Bolt for Held {
        fn execute_chunk(
            &mut self,
            origin: NodeId,
            chunk: &Chunk,
            out: &mut OutputCollector,
        ) -> Result<()> {
            let before = self.held();
            let done = self.0.execute_chunk(origin, chunk, out);
            self.1.lock().unwrap().push([before, self.held()]);
            done
        }
    }

    #[test]
    fn a_malformed_windowed_chunk_is_a_typed_error_and_inserts_nothing() {
        // Two 4-row chunks of R (k, ts): the second holds a timestamp that
        // is negative, NULL or a Float at row 2. Its rows 0 and 1 are fine,
        // yet none of the chunk may enter the window.
        use squall_common::{DataType, Schema};
        use squall_expr::{JoinAtom, MultiJoinSpec, RelationDef};
        let schema = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
        let spec = MultiJoinSpec::new(
            vec![RelationDef::new("R", schema.clone(), 0), RelationDef::new("S", schema, 0)],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap();
        for bad in [Value::Int(-1), Value::Null, Value::Float(6.0)] {
            let mut script: Vec<Option<Tuple>> = (0..6).map(|i| Some(tuple![i % 2, i])).collect();
            script.insert(6, Some(Tuple::new(vec![Value::Int(1), bad.clone()])));
            script.push(Some(tuple![1, 7]));
            let seen = Arc::new(Mutex::new(Vec::new()));
            let held = Arc::clone(&seen);
            let mut b = TopologyBuilder::new().batch_size(4);
            let src =
                b.add_spout("R", 1, move |_| Box::new(Script(script.clone().into_iter(), None)));
            let spec = spec.clone();
            let join = b.add_bolt("join", 1, move |machine| {
                let origin_to_rel = [(src, 0)].into_iter().collect();
                let local = DBToasterJoin::new(&spec);
                let tumbling = WindowSpec::Tumbling { width: 10 };
                let bolt = JoinBolt::new_windowed(
                    machine,
                    origin_to_rel,
                    local,
                    tumbling,
                    vec![1, 1],
                    &[2, 2],
                );
                Box::new(Held(bolt, Arc::clone(&held)))
            });
            b.connect(src, join, Grouping::Global);
            let error = b.build().unwrap().run().error;
            assert!(
                matches!(error, Some(SquallError::Runtime(_) | SquallError::TypeMismatch { .. })),
                "{bad:?}: {error:?}"
            );
            let seen = seen.lock().unwrap();
            assert_eq!(seen[0], [(0, 0), (4, 4)], "{bad:?}: the first chunk enters whole");
            assert_eq!(seen[1], [(4, 4), (4, 4)], "{bad:?}: the second not at all");
        }
    }
}
