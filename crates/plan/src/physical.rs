//! The optimizer and executor: logical query block → physical multi-way
//! join plan → topology run.
//!
//! Implements the §2 optimizer behaviours on real structures:
//! selection pushdown, derived-column creation for expression join
//! predicates (the paper's `2·R.B < S.C` becomes a derived column compared
//! to `S.C`), output-scheme pruning (only downstream-needed columns are
//! shipped), sample-based skew detection (§3.4) and scheme selection.

use std::sync::Arc;

use squall_common::{DataType, Field, Result, Schema, SquallError, Tuple, Value};
use squall_core::cluster::ClusterSpec;
use squall_core::driver::{
    run_multiway_stream, AggPlan, JoinReport, LocalJoinKind, MultiwayConfig, MultiwayStream,
    WindowPlan,
};
use squall_core::operators::Finalizer;
use squall_core::standing::{DeltaRound, ViewPlan, ViewWindow};
use squall_expr::join_cond::CmpOp;
use squall_expr::{AggFunc, JoinAtom, MultiJoinSpec, RelationDef, ScalarExpr};
use squall_join::{AggSpec, WindowSpec};
use squall_partition::optimizer::SchemeKind;
use squall_partition::SkewEstimate;

use crate::catalog::Catalog;
use crate::logical::{Expr, Query, WindowKind};
use crate::optimizer::{OptimizerDecision, OptimizerMode};

/// Execution knobs.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Join component parallelism (the number of "machines").
    pub machines: usize,
    /// Force a scheme; `None` = Hybrid-Hypercube (it subsumes the others,
    /// §3.1).
    pub scheme: Option<SchemeKind>,
    pub local: LocalJoinKind,
    pub seed: u64,
    pub agg_parallelism: usize,
    /// Tolerated hash-over-random load ratio before an attribute is marked
    /// skewed (§3.4 chooser).
    pub skew_slack: f64,
    /// Worker pool size executing the topology (`None` = the host's
    /// available parallelism). Decoupled from `machines`: the cooperative
    /// executor runs any number of machines on this many OS threads.
    pub worker_threads: Option<usize>,
    /// Tuples per data-plane batch (1 = per-tuple messaging). Throughput
    /// knob only: routing stays per-tuple, so results and per-machine
    /// loads do not depend on it.
    pub batch_size: usize,
    /// Split every query's topology across these worker processes over
    /// TCP (`None` = single process). Results and per-machine loads are
    /// placement-independent.
    pub cluster: Option<ClusterSpec>,
    /// Checkpoint a standing view's operator state every this many
    /// epochs (`0` disables). One-shot queries ignore it.
    pub checkpoint_interval: u64,
    /// Declare a cluster peer lost after this much heartbeat silence, in
    /// milliseconds (`0` disables failure detection). Standing only.
    pub heartbeat_timeout_ms: u64,
    /// Cost-based plan search ([`crate::optimizer`]): join ordering and
    /// scheme selection. `Off` preserves the written FROM order and the
    /// config/default scheme — the pre-optimizer planner. Results are
    /// identical in every mode; only performance differs.
    pub optimizer: OptimizerMode,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            machines: 4,
            scheme: None,
            local: LocalJoinKind::DBToaster,
            seed: 42,
            agg_parallelism: 2,
            skew_slack: 0.5,
            worker_threads: None,
            batch_size: squall_runtime::DEFAULT_BATCH_SIZE,
            cluster: None,
            checkpoint_interval: 16,
            heartbeat_timeout_ms: 2000,
            optimizer: OptimizerMode::default(),
        }
    }
}

/// A query's answer: one handle serving both access patterns.
///
/// * **Materialized** — [`ResultSet::rows`] waits for completion and
///   returns every row, sorted for determinism. This is what
///   [`PhysicalQuery::execute`] produces.
/// * **Streaming** — `ResultSet` is an [`Iterator`] over result rows;
///   with [`PhysicalQuery::execute_stream`] the rows are yielded *while
///   the topology runs*, in production order, without buffering them.
///
/// [`ResultSet::report`] exposes the run's [`JoinReport`]; on a streaming
/// result it first waits for the run to finish. In both modes
/// [`ResultSet::rows`] returns the rows the iterator has *not yet
/// yielded*, without consuming them — a peek at the remainder.
///
/// Error contract: materialized execution returns `Err` when the run
/// fails. A *streaming* run that fails mid-way simply ends the iterator
/// early — check [`ResultSet::error`] (or `report()?.error`) after
/// exhaustion before trusting the rows as complete.
///
/// ```
/// use squall_common::{tuple, DataType, Schema};
/// use squall_plan::physical::{execute_query, ExecConfig};
/// use squall_plan::{col, Catalog, Query};
///
/// let mut catalog = Catalog::new();
/// catalog.register(
///     "R",
///     Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
///     vec![tuple![1, 10], tuple![2, 20]],
/// ).unwrap();
/// catalog.register(
///     "S",
///     Schema::of(&[("a", DataType::Int), ("c", DataType::Int)]),
///     vec![tuple![2, 7]],
/// ).unwrap();
/// let q = Query::from_tables([("R", "R"), ("S", "S")])
///     .filter(col("R.a").eq(col("S.a")))
///     .select([col("R.b"), col("S.c")]);
/// let mut rs = execute_query(&q, &catalog, &ExecConfig::default()).unwrap();
/// assert_eq!(rs.schema().arity(), 2);
/// assert_eq!(rs.rows(), vec![tuple![20, 7]]);
/// assert!(rs.report().is_some(), "every query's run reports metrics");
/// ```
pub struct ResultSet {
    schema: Schema,
    inner: ResultsInner,
    report: Option<JoinReport>,
    /// Opaque token held while this result is backed by a live run;
    /// released the moment the stream materializes (or on drop). The
    /// session layer uses it to refuse catalog mutations under a running
    /// query.
    guard: Option<Box<dyn std::any::Any + Send>>,
}

impl std::fmt::Debug for ResultSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match &self.inner {
            ResultsInner::Rows { rows, cursor } => format!("{} rows (cursor {cursor})", rows.len()),
            ResultsInner::Stream(_) => "streaming".to_string(),
        };
        f.debug_struct("ResultSet").field("schema", &self.schema).field("mode", &mode).finish()
    }
}

enum ResultsInner {
    Rows { rows: Vec<Tuple>, cursor: usize },
    // Boxed: the stream (topology handle + finalizer) dwarfs the row
    // variant, and every ResultSet ends its life as `Rows`.
    Stream(Box<QueryStream>),
}

impl ResultSet {
    /// A result set over already-materialized rows — how view-lifecycle
    /// statements (which have no topology run of their own to stream)
    /// return snapshots and shutdown reports through the same API as
    /// queries.
    pub fn materialized(schema: Schema, rows: Vec<Tuple>, report: Option<JoinReport>) -> ResultSet {
        ResultSet { schema, inner: ResultsInner::Rows { rows, cursor: 0 }, report, guard: None }
    }

    fn streaming(schema: Schema, stream: QueryStream) -> ResultSet {
        ResultSet {
            schema,
            inner: ResultsInner::Stream(Box::new(stream)),
            report: None,
            guard: None,
        }
    }

    /// Attach a token to be dropped when this result stops being a live
    /// run (stream exhaustion, materialization, or drop). No-op on an
    /// already-materialized result.
    pub fn attach_guard(&mut self, guard: Box<dyn std::any::Any + Send>) {
        if self.is_streaming() {
            self.guard = Some(guard);
        }
    }

    /// Output column names, in SELECT order.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All result rows not yet yielded by the iterator, sorted. On a
    /// streaming result this drains the run to completion first.
    pub fn rows(&mut self) -> &[Tuple] {
        self.materialize();
        match &self.inner {
            ResultsInner::Rows { rows, cursor } => &rows[*cursor..],
            ResultsInner::Stream(_) => unreachable!("materialized above"),
        }
    }

    /// The run report (§6 monitoring quantities). On a streaming result
    /// this waits for the run to finish. `None` only on a view-lifecycle
    /// result built without one ([`ResultSet::materialized`]).
    pub fn report(&mut self) -> Option<&JoinReport> {
        self.materialize();
        self.report.as_ref()
    }

    /// The failure that ended a streaming run early, if any (waits for the
    /// run to finish first). Materialized execution surfaces the same
    /// failures as `Err` from [`PhysicalQuery::execute`] instead.
    pub fn error(&mut self) -> Option<&SquallError> {
        self.materialize();
        self.report.as_ref().and_then(|r| r.error.as_ref())
    }

    /// Is this result still backed by a live run (true) or a materialized
    /// row buffer (false)?
    pub fn is_streaming(&self) -> bool {
        matches!(self.inner, ResultsInner::Stream(_))
    }

    fn materialize(&mut self) {
        if let Some(mut rows) = self.drain_stream() {
            rows.sort();
            self.inner = ResultsInner::Rows { rows, cursor: 0 };
        }
    }

    /// Run a live stream to completion: its rows come back in production
    /// order, its report lands in `self.report` and the result becomes an
    /// (empty, until the caller stores the rows) materialized one. `None`
    /// when there was no live stream.
    fn drain_stream(&mut self) -> Option<Vec<Tuple>> {
        let ResultsInner::Stream(stream) = &mut self.inner else { return None };
        let rows = stream.by_ref().collect();
        self.report = stream.report.take();
        self.inner = ResultsInner::Rows { rows: Vec::new(), cursor: 0 };
        self.guard = None; // the run is over; release the catalog
        Some(rows)
    }
}

/// Streaming access: yields each result row exactly once. In streaming
/// mode rows arrive in production order while the topology runs; in
/// materialized mode this walks the sorted row buffer.
impl Iterator for ResultSet {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        match &mut self.inner {
            ResultsInner::Rows { rows, cursor } => {
                let row = rows.get(*cursor)?.clone();
                *cursor += 1;
                Some(row)
            }
            ResultsInner::Stream(stream) => stream.next().or_else(|| {
                // Exhausted: collect the report and stop being a live run.
                self.drain_stream();
                None
            }),
        }
    }
}

/// Live result stream: the run's sink output, filtered by HAVING and
/// projected into SELECT order tuple by tuple.
struct QueryStream {
    inner: Option<MultiwayStream>,
    finalizer: Finalizer,
    /// Engine rows seen (pre-HAVING): the synthetic empty-aggregate row
    /// only applies when the aggregation itself produced nothing, not
    /// when HAVING filtered everything out.
    saw_rows: bool,
    report: Option<JoinReport>,
}

impl Iterator for QueryStream {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        loop {
            match self.inner.as_mut()?.next() {
                Some(row) => {
                    self.saw_rows = true;
                    match self.finalizer.row(&row) {
                        Ok(None) => continue,
                        Ok(Some(t)) => return Some(t),
                        Err(e) => {
                            // A row-processing error poisons the run: abort
                            // it and surface the error through the report.
                            let mut report = self.inner.take().expect("stream present").cancel();
                            report.error.get_or_insert(e);
                            self.report = Some(report);
                            return None;
                        }
                    }
                }
                None => {
                    let mut report = self.inner.take().expect("stream present").finish();
                    let mut last = None;
                    if report.error.is_none() && !self.saw_rows {
                        match self.finalizer.empty_row() {
                            Ok(row) => last = row,
                            // Run already complete; record the projection
                            // error on its report.
                            Err(e) => report.error = Some(e),
                        }
                    }
                    self.report = Some(report);
                    return last;
                }
            }
        }
    }
}

/// One resolved, optimized source.
#[derive(Debug, Clone)]
struct PhysTable {
    name: String,
    alias: String,
    /// Pushed-down predicate over the *original* table schema.
    filter: Option<ScalarExpr>,
    /// Derived columns appended after the original columns (expression
    /// join predicates), over the original schema.
    derived: Vec<ScalarExpr>,
    /// Columns kept (into original ⊕ derived coordinates), sorted.
    kept: Vec<usize>,
    /// The projected, qualified schema fed to the join.
    schema: Schema,
    /// Qualified names over the *pre-pruning* original ⊕ derived
    /// coordinate space — how plan validation names a column that an atom
    /// references but pruning removed.
    orig_columns: Vec<String>,
}

/// An unresolved join atom: `(table, column)` pairs compared by `CmpOp`,
/// where a column id past the table's arity addresses a derived column.
type RawAtom = ((usize, usize), CmpOp, (usize, usize));

/// Everything needed to launch a query as a resident materialized view:
/// the join spec and prepared initial load, the (standing-flagged)
/// topology configuration, and the view-maintenance plan the sink runs.
/// Produced by [`PhysicalQuery::prepare_standing`], consumed by
/// [`squall_core::standing::launch_standing`].
pub struct StandingPlan {
    pub spec: MultiJoinSpec,
    pub data: Vec<Vec<Tuple>>,
    pub mcfg: MultiwayConfig,
    pub view: ViewPlan,
}

/// Resolved window semantics: the shape plus each relation's event-time
/// column in its post-pruning (join input) coordinates.
#[derive(Debug, Clone)]
struct PhysWindow {
    spec: WindowSpec,
    ts_cols: Vec<usize>,
    /// Relations whose window column is the stream's declared event-time
    /// column: their data is already validated and event-time-ordered at
    /// registration, so a run skips the per-run sort.
    presorted: Vec<bool>,
}

/// An optimized query ready to run.
#[derive(Debug)]
pub struct PhysicalQuery {
    tables: Vec<PhysTable>,
    atoms: Vec<JoinAtom>,
    /// Group-by columns in join-output coordinates.
    group_cols: Vec<usize>,
    /// HAVING, the SELECT list and the aggregate columns (inputs in
    /// join-output coordinates) — over the raw aggregate row (group keys ++
    /// aggregates, hidden ones included) of an aggregate query, over the
    /// join output otherwise. Carried by a one-shot query's result stream,
    /// embedded in a standing view's [`ViewPlan`].
    finalizer: Finalizer,
    out_schema: Schema,
    is_aggregate: bool,
    /// Window + aggregation: results are per-window rows with
    /// `window_start` / `window_end` output columns prepended.
    windowed_agg: bool,
    window: Option<PhysWindow>,
    /// ORDER BY keys as `(output column, descending)` pairs.
    order_by: Vec<(usize, bool)>,
    limit: Option<usize>,
    /// What the cost-based optimizer decided for this plan, when it ran —
    /// feeds scheme selection at launch and the explain table.
    decision: Option<OptimizerDecision>,
}

impl PhysicalQuery {
    /// Resolve and optimize a logical block.
    pub fn plan(q: &Query, catalog: &Catalog) -> Result<PhysicalQuery> {
        if q.tables.is_empty() {
            return Err(SquallError::InvalidPlan("FROM clause is empty".into()));
        }
        if q.select.is_empty() {
            return Err(SquallError::InvalidPlan("SELECT list is empty".into()));
        }
        // Qualified schemas and global offsets over the ORIGINAL columns.
        let mut schemas: Vec<Schema> = Vec::new();
        for (tname, alias) in &q.tables {
            schemas.push(catalog.get(tname)?.schema.qualified(alias));
        }
        let mut offsets = Vec::with_capacity(schemas.len());
        {
            let mut off = 0;
            for s in &schemas {
                offsets.push(off);
                off += s.arity();
            }
        }
        // Name resolution: "alias.col" exact, bare "col" if unique.
        let resolve = |name: &str| -> Result<(usize, usize)> {
            let mut hit = None;
            for (ti, s) in schemas.iter().enumerate() {
                for ci in 0..s.arity() {
                    let f = &s.field(ci).name;
                    let matches =
                        f == name || (!name.contains('.') && f.split('.').nth(1) == Some(name));
                    if matches {
                        if hit.is_some() {
                            return Err(SquallError::InvalidPlan(format!(
                                "ambiguous column {name}"
                            )));
                        }
                        hit = Some((ti, ci));
                    }
                }
            }
            hit.ok_or_else(|| SquallError::UnknownColumn(name.to_string()))
        };
        // Expr → ScalarExpr over (table, col) global coordinates; rejects
        // aggregates.
        fn to_scalar(
            e: &Expr,
            resolve: &dyn Fn(&str) -> Result<(usize, usize)>,
            offsets: &[usize],
        ) -> Result<ScalarExpr> {
            Ok(match e {
                Expr::Col(n) => {
                    let (t, c) = resolve(n)?;
                    ScalarExpr::Column(offsets[t] + c)
                }
                Expr::Lit(v) => ScalarExpr::Literal(v.clone()),
                Expr::Bin { op, lhs, rhs } => ScalarExpr::Bin {
                    op: *op,
                    lhs: Box::new(to_scalar(lhs, resolve, offsets)?),
                    rhs: Box::new(to_scalar(rhs, resolve, offsets)?),
                },
                Expr::Not(x) => ScalarExpr::Not(Box::new(to_scalar(x, resolve, offsets)?)),
                Expr::Agg { .. } => {
                    return Err(SquallError::InvalidPlan(
                        "aggregate calls are only allowed in SELECT".into(),
                    ))
                }
            })
        }
        let resolve_fn = |n: &str| resolve(n);

        // Tables of a resolved global expression.
        let tables_of = |e: &ScalarExpr| -> Vec<usize> {
            let mut cols = vec![];
            e.referenced_columns(&mut cols);
            let mut ts: Vec<usize> = cols
                .into_iter()
                .map(|g| offsets.iter().rposition(|&o| o <= g).expect("offset"))
                .collect();
            ts.sort_unstable();
            ts.dedup();
            ts
        };

        // Classify WHERE conjuncts.
        let mut pushed: Vec<Vec<ScalarExpr>> = vec![Vec::new(); q.tables.len()];
        let mut derived: Vec<Vec<ScalarExpr>> = vec![Vec::new(); q.tables.len()];
        // Raw atoms as (table, original-or-derived col id) pairs; derived
        // ids are original_arity + k.
        let mut raw_atoms: Vec<RawAtom> = Vec::new();
        for f in &q.filters {
            let g = to_scalar(f, &resolve_fn, &offsets)?;
            let touched = tables_of(&g);
            match touched.len() {
                0 => {
                    return Err(SquallError::InvalidPlan(format!(
                        "constant predicate not supported: {f:?}"
                    )))
                }
                1 => {
                    let t = touched[0];
                    // Remap to table-local coordinates.
                    let local = g.remap_columns(&|gc| gc - offsets[t]);
                    pushed[t].push(local);
                }
                2 => {
                    // Must be `sideA op sideB` with each side on one table.
                    let (op, lhs, rhs) = match &g {
                        ScalarExpr::Bin { op, lhs, rhs } if op.is_comparison() => {
                            (*op, lhs.as_ref().clone(), rhs.as_ref().clone())
                        }
                        _ => {
                            return Err(SquallError::InvalidPlan(format!(
                                "unsupported join predicate shape: {f:?}"
                            )))
                        }
                    };
                    let (lt, rt) = (tables_of(&lhs), tables_of(&rhs));
                    if lt.len() != 1 || rt.len() != 1 || lt == rt {
                        return Err(SquallError::InvalidPlan(format!(
                            "join predicate must compare two tables: {f:?}"
                        )));
                    }
                    let (lt, rt) = (lt[0], rt[0]);
                    // Plain column or derived expression per side.
                    let mut side_col = |t: usize, e: ScalarExpr| -> usize {
                        match e {
                            ScalarExpr::Column(g) => g - offsets[t],
                            other => {
                                let local = other.remap_columns(&|gc| gc - offsets[t]);
                                derived[t].push(local);
                                schemas[t].arity() + derived[t].len() - 1
                            }
                        }
                    };
                    let lcol = side_col(lt, lhs);
                    let rcol = side_col(rt, rhs);
                    let cmp = CmpOp::from_binop(op).expect("comparison checked");
                    raw_atoms.push(((lt, lcol), cmp, (rt, rcol)));
                }
                _ => {
                    return Err(SquallError::InvalidPlan(format!(
                        "predicates over 3+ tables are not supported: {f:?}"
                    )))
                }
            }
        }

        // Window semantics: resolve the shape and each relation's
        // event-time column (original coordinates) — explicit `ON col`
        // first, then the stream's declared event-time column.
        let window_globals: Option<(WindowSpec, Vec<usize>, Vec<bool>)> = match &q.window {
            None => None,
            Some(w) => {
                if q.tables.len() < 2 {
                    return Err(SquallError::InvalidPlan(
                        "window semantics apply to stream joins; a single-relation \
                         windowed query has no join state to expire"
                            .into(),
                    ));
                }
                let spec = match w.kind {
                    WindowKind::Tumbling { width: 0 } => {
                        return Err(SquallError::InvalidPlan("tumbling width must be > 0".into()))
                    }
                    WindowKind::Sliding { size: 0 } => {
                        return Err(SquallError::InvalidPlan("sliding size must be > 0".into()))
                    }
                    WindowKind::Tumbling { width } => WindowSpec::Tumbling { width },
                    WindowKind::Sliding { size } => WindowSpec::Sliding { size },
                };
                let mut ts_globals = Vec::with_capacity(q.tables.len());
                let mut presorted = Vec::with_capacity(q.tables.len());
                for (t, (tname, alias)) in q.tables.iter().enumerate() {
                    let c = match &w.time_col {
                        Some(name) if name.contains('.') => {
                            return Err(SquallError::InvalidPlan(format!(
                                "WINDOW ... ON takes an unqualified column name \
                                 present in every relation, got {name}"
                            )))
                        }
                        Some(name) => {
                            schemas[t].index_of(&format!("{alias}.{name}")).map_err(|_| {
                                SquallError::UnknownColumn(format!(
                                    "{alias}.{name} (window event-time column)"
                                ))
                            })?
                        }
                        None => catalog.get(tname)?.event_time_col().ok_or_else(|| {
                            SquallError::InvalidPlan(format!(
                                "{tname} is not a stream: register it with register_stream \
                                 or name the event-time column with WINDOW ... ON <col>"
                            ))
                        })?,
                    };
                    if schemas[t].field(c).data_type != DataType::Int {
                        return Err(SquallError::InvalidPlan(format!(
                            "window event-time column {} must be Int, is {}",
                            schemas[t].field(c).name,
                            schemas[t].field(c).data_type
                        )));
                    }
                    ts_globals.push(offsets[t] + c);
                    presorted.push(catalog.get(tname)?.event_time_col() == Some(c));
                }
                Some((spec, ts_globals, presorted))
            }
        };

        // Aggregation shape.
        let has_group = !q.group_by.is_empty();
        let has_agg_items = q.select.iter().any(|(e, _)| e.has_agg());
        let is_aggregate = has_group || has_agg_items;
        let group_globals: Vec<usize> = q
            .group_by
            .iter()
            .map(|e| match e {
                Expr::Col(n) => {
                    let (t, c) = resolve(n)?;
                    Ok(offsets[t] + c)
                }
                _ => Err(SquallError::InvalidPlan("GROUP BY supports plain columns".into())),
            })
            .collect::<Result<_>>()?;

        // Needed original columns per table: atoms + select + group by.
        let mut needed: Vec<Vec<usize>> = vec![Vec::new(); q.tables.len()];
        let need_global = |g: usize, needed: &mut Vec<Vec<usize>>| {
            let t = offsets.iter().rposition(|&o| o <= g).expect("offset");
            let c = g - offsets[t];
            if !needed[t].contains(&c) {
                needed[t].push(c);
            }
        };
        for ((lt, lc), _, (rt, rc)) in &raw_atoms {
            if *lc < schemas[*lt].arity() {
                need_global(offsets[*lt] + lc, &mut needed);
            }
            if *rc < schemas[*rt].arity() {
                need_global(offsets[*rt] + rc, &mut needed);
            }
        }
        let mut select_scalars: Vec<Option<ScalarExpr>> = Vec::new();
        for (e, _) in &q.select {
            if e.has_agg() {
                // Aggregate arguments are evaluated at the aggregation
                // stage over the join output — their columns must survive
                // the output-scheme pruning.
                let mut names = vec![];
                e.columns(&mut names);
                for n in &names {
                    let (t, c) = resolve(n)?;
                    need_global(offsets[t] + c, &mut needed);
                }
                select_scalars.push(None);
            } else {
                let g = to_scalar(e, &resolve_fn, &offsets)?;
                let mut cols = vec![];
                g.referenced_columns(&mut cols);
                for c in cols {
                    need_global(c, &mut needed);
                }
                select_scalars.push(Some(g));
            }
        }
        for &g in &group_globals {
            need_global(g, &mut needed);
        }
        for e in &q.having {
            // HAVING aggregate arguments are evaluated over the join
            // output too — their columns must survive pruning even when
            // no SELECT item mentions them.
            let mut names = vec![];
            e.columns(&mut names);
            for n in &names {
                let (t, c) = resolve(n)?;
                need_global(offsets[t] + c, &mut needed);
            }
        }
        if let Some((_, ts_globals, _)) = &window_globals {
            // Event-time columns must survive output-scheme pruning: the
            // window join reads them from the shipped tuples and the
            // emitted results.
            for &g in ts_globals {
                need_global(g, &mut needed);
            }
        }
        // Derived columns referenced cols are needed only at the source —
        // they are computed there, not shipped as inputs.

        // Build physical tables: kept = needed originals (sorted) +
        // derived (always kept).
        let mut tables = Vec::with_capacity(q.tables.len());
        for (t, (tname, alias)) in q.tables.iter().enumerate() {
            let mut kept = needed[t].clone();
            kept.sort_unstable();
            // A relation contributing no columns still needs one column to
            // exist as a stream; keep column 0.
            if kept.is_empty() && derived[t].is_empty() {
                kept.push(0);
            }
            let orig_arity = schemas[t].arity();
            let mut fields: Vec<Field> =
                kept.iter().map(|&c| schemas[t].field(c).clone()).collect();
            for (k, _) in derived[t].iter().enumerate() {
                fields.push(Field::new(format!("{alias}.$expr{k}"), DataType::Int));
            }
            let mut all_kept = kept.clone();
            for k in 0..derived[t].len() {
                all_kept.push(orig_arity + k);
            }
            let filter = pushed[t].iter().cloned().reduce(ScalarExpr::and);
            let orig_columns: Vec<String> = (0..orig_arity)
                .map(|c| schemas[t].field(c).name.clone())
                .chain((0..derived[t].len()).map(|k| format!("{alias}.$expr{k}")))
                .collect();
            tables.push(PhysTable {
                name: tname.clone(),
                alias: alias.clone(),
                filter,
                derived: derived[t].clone(),
                kept: all_kept,
                schema: Schema::new(fields),
                orig_columns,
            });
        }
        // Old (table, col-with-derived) → new join-output coordinates.
        let mut new_offsets = Vec::with_capacity(tables.len());
        {
            let mut off = 0;
            for t in &tables {
                new_offsets.push(off);
                off += t.schema.arity();
            }
        }
        let new_local = |t: usize, c: usize| -> usize {
            tables[t].kept.iter().position(|&k| k == c).expect("kept column")
        };
        // Atom columns must have survived output-scheme pruning; a miss
        // is reported as a typed error naming the pruned column rather
        // than a panic or a downstream hash mismatch.
        let checked_local = |t: usize, c: usize| -> Result<usize> {
            tables[t].kept.iter().position(|&k| k == c).ok_or_else(|| {
                SquallError::PrunedColumnReference {
                    relation: tables[t].alias.clone(),
                    column: tables[t]
                        .orig_columns
                        .get(c)
                        .cloned()
                        .unwrap_or_else(|| format!("#{c}")),
                }
            })
        };
        let atoms: Vec<JoinAtom> = raw_atoms
            .iter()
            .map(|&((lt, lc), op, (rt, rc))| {
                Ok(JoinAtom {
                    left_rel: lt,
                    left_col: checked_local(lt, lc)?,
                    op,
                    right_rel: rt,
                    right_col: checked_local(rt, rc)?,
                })
            })
            .collect::<Result<_>>()?;
        let remap_global = |g: usize| -> usize {
            let t = offsets.iter().rposition(|&o| o <= g).expect("offset");
            new_offsets[t] + new_local(t, g - offsets[t])
        };
        let group_cols: Vec<usize> = group_globals.iter().map(|&g| remap_global(g)).collect();
        let window = window_globals.map(|(spec, ts_globals, presorted)| PhysWindow {
            spec,
            // Each relation's event-time column, local to its pruned
            // (join-input) schema.
            ts_cols: ts_globals
                .iter()
                .enumerate()
                .map(|(t, &g)| new_local(t, g - offsets[t]))
                .collect(),
            presorted,
        });

        // An expression over the aggregate row (group keys ++ aggregates),
        // for SELECT items and HAVING alike: a bare column must be a GROUP
        // BY key; an aggregate call is its column of the row — an equal
        // aggregate already in `aggs`, else a new one appended (from HAVING
        // alone that makes a *hidden* column: computed and filtered on,
        // never projected). `join_scalar` lowers an aggregate-free
        // expression to join-output coordinates.
        fn agg_row_scalar(
            e: &Expr,
            join_scalar: &dyn Fn(&Expr) -> Result<ScalarExpr>,
            group_cols: &[usize],
            aggs: &mut Vec<AggSpec>,
        ) -> Result<ScalarExpr> {
            Ok(match e {
                Expr::Agg { func, arg } => {
                    let arg = arg.as_deref().map(join_scalar).transpose()?;
                    let input = match (func, arg) {
                        (AggFunc::Count, _) => None, // COUNT ignores its argument
                        (_, Some(a)) => Some(a),
                        (f, None) => {
                            return Err(SquallError::InvalidPlan(format!("{f} needs an argument")))
                        }
                    };
                    let idx = match aggs.iter().position(|s| s.func == *func && s.input == input) {
                        Some(i) => i,
                        None => {
                            aggs.push(AggSpec { func: *func, input });
                            aggs.len() - 1
                        }
                    };
                    ScalarExpr::Column(group_cols.len() + idx)
                }
                Expr::Col(n) => {
                    let c = join_scalar(e)?;
                    let pos = group_cols.iter().position(|&g| ScalarExpr::Column(g) == c);
                    ScalarExpr::Column(pos.ok_or_else(|| {
                        SquallError::InvalidPlan(format!(
                            "column {n} must appear in GROUP BY (or inside an aggregate)"
                        ))
                    })?)
                }
                Expr::Lit(v) => ScalarExpr::Literal(v.clone()),
                Expr::Bin { op, lhs, rhs } => ScalarExpr::Bin {
                    op: *op,
                    lhs: Box::new(agg_row_scalar(lhs, join_scalar, group_cols, aggs)?),
                    rhs: Box::new(agg_row_scalar(rhs, join_scalar, group_cols, aggs)?),
                },
                Expr::Not(x) => {
                    ScalarExpr::Not(Box::new(agg_row_scalar(x, join_scalar, group_cols, aggs)?))
                }
            })
        }
        let join_scalar = |e: &Expr| -> Result<ScalarExpr> {
            Ok(to_scalar(e, &resolve_fn, &offsets)?.remap_columns(&remap_global))
        };

        // SELECT items → aggregate specs / final projection.
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut final_items = Vec::with_capacity(q.select.len());
        let mut out_fields = Vec::with_capacity(q.select.len());
        for ((e, name), scalar) in q.select.iter().zip(&select_scalars) {
            let out_name = name.clone().unwrap_or_else(|| display_name(e));
            let dtype = DataType::Float; // nominal; results carry real types
            out_fields.push(Field::new(out_name, dtype));
            final_items.push(if !is_aggregate {
                let g = scalar.as_ref().expect("non-aggregate item resolved");
                g.remap_columns(&remap_global)
            } else if matches!(e, Expr::Agg { .. } | Expr::Col(_)) {
                agg_row_scalar(e, &join_scalar, &group_cols, &mut aggs)?
            } else {
                return Err(SquallError::InvalidPlan(
                    "aggregate queries select columns or aggregates".into(),
                ));
            });
        }
        let mut having: Option<ScalarExpr> = None;
        if !q.having.is_empty() {
            if !is_aggregate {
                return Err(SquallError::InvalidPlan(
                    "HAVING requires aggregation (GROUP BY or aggregate SELECT items)".into(),
                ));
            }
            for e in &q.having {
                let s = agg_row_scalar(e, &join_scalar, &group_cols, &mut aggs)?;
                having = Some(match having {
                    None => s,
                    Some(prev) => ScalarExpr::and(prev, s),
                });
            }
        }

        if is_aggregate && aggs.is_empty() {
            return Err(SquallError::InvalidPlan(
                "GROUP BY without aggregates is not supported".into(),
            ));
        }

        // Windowed aggregation: the engine emits per-window rows shaped
        // (window_start, window_end, group…, agg…), so two output columns
        // are prepended and every aggregate-row index — SELECT items and
        // the HAVING predicate, which then filters per-window groups —
        // shifts by two.
        let windowed_agg = is_aggregate && window.is_some();
        if windowed_agg {
            final_items = [0, 1]
                .into_iter()
                .map(ScalarExpr::col)
                .chain(final_items.iter().map(|e| e.remap_columns(&|c| c + 2)))
                .collect();
            out_fields.insert(0, Field::new("window_end", DataType::Int));
            out_fields.insert(0, Field::new("window_start", DataType::Int));
            having = having.map(|h| h.remap_columns(&|c| c + 2));
        }

        // ORDER BY keys name *output* columns: a SELECT alias or the
        // item's display name.
        let mut order_by = Vec::with_capacity(q.order_by.len());
        for key in &q.order_by {
            let mut hits = out_fields.iter().enumerate().filter(|(_, f)| f.name == key.column);
            let idx = match (hits.next(), hits.next()) {
                (Some((i, _)), None) => i,
                (Some(_), Some(_)) => {
                    return Err(SquallError::InvalidPlan(format!(
                        "ambiguous ORDER BY column {}",
                        key.column
                    )))
                }
                (None, _) => {
                    return Err(SquallError::UnknownColumn(format!(
                        "{} (ORDER BY names an output column: a SELECT alias or item)",
                        key.column
                    )))
                }
            };
            order_by.push((idx, key.desc));
        }

        Ok(PhysicalQuery {
            tables,
            atoms,
            // A per-window global aggregate over zero rows has no windows,
            // hence no rows — the synthetic COUNT=0 row is a full-history
            // artifact.
            finalizer: Finalizer {
                having,
                project: final_items,
                aggs,
                emit_empty: is_aggregate && group_cols.is_empty() && !windowed_agg,
            },
            group_cols,
            out_schema: Schema::new(out_fields),
            is_aggregate,
            windowed_agg,
            window,
            order_by,
            limit: q.limit.map(|n| n as usize),
            decision: None,
        })
    }

    /// Apply a table's pushed filter, derived columns and projection.
    fn prepare_table(&self, t: usize, data: &[Tuple]) -> Result<Vec<Tuple>> {
        let pt = &self.tables[t];
        let mut out = Vec::with_capacity(data.len());
        for tuple in data {
            if let Some(f) = &pt.filter {
                if !f.eval_bool(tuple)? {
                    continue;
                }
            }
            let orig_arity = tuple.arity();
            let mut extended: Option<Vec<Value>> = None;
            if !pt.derived.is_empty() {
                let mut v = tuple.values().to_vec();
                for d in &pt.derived {
                    v.push(d.eval(tuple)?);
                }
                extended = Some(v);
            }
            let values: Vec<Value> = pt
                .kept
                .iter()
                .map(|&c| match &extended {
                    Some(v) => v[c].clone(),
                    None => {
                        debug_assert!(c < orig_arity);
                        tuple.get(c).clone()
                    }
                })
                .collect();
            out.push(Tuple::new(values));
        }
        Ok(out)
    }

    /// The materialized-result ordering contract: ORDER BY keys in
    /// sequence (descending keys reversed), every tie — and the
    /// no-ORDER-BY case — broken by whole-row ascending order so results
    /// stay deterministic; then LIMIT truncates.
    fn finalize_order(&self, rows: &mut Vec<Tuple>) {
        if self.order_by.is_empty() {
            rows.sort();
        } else {
            let keys = &self.order_by;
            rows.sort_by(|a, b| {
                for &(c, desc) in keys {
                    let ord = a.get(c).cmp(b.get(c));
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                a.cmp(b)
            });
        }
        if let Some(n) = self.limit {
            rows.truncate(n);
        }
    }

    /// The one relay of session-level knobs (and this plan's window) into a
    /// topology configuration, for the one-shot and the standing plane
    /// alike — a knob relayed here reaches both.
    fn multiway_config(&self, scheme: SchemeKind, cfg: &ExecConfig) -> MultiwayConfig {
        let mut mcfg = MultiwayConfig::new(scheme, cfg.local, cfg.machines);
        mcfg.seed = cfg.seed;
        mcfg.worker_threads = cfg.worker_threads;
        mcfg.batch_size = cfg.batch_size.max(1);
        mcfg.cluster = cfg.cluster.clone();
        mcfg.checkpoint_interval = cfg.checkpoint_interval;
        mcfg.heartbeat_timeout_ms = cfg.heartbeat_timeout_ms;
        if let Some(w) = &self.window {
            mcfg = mcfg.with_window(WindowPlan { spec: w.spec, ts_cols: w.ts_cols.clone() });
        }
        mcfg
    }

    /// Every source's current contents after its pushed-down work
    /// (filter, derive, project — the co-located source components of §2),
    /// behind the atom check both planes start with.
    fn load_sources(&self, catalog: &Catalog) -> Result<Vec<Vec<Tuple>>> {
        self.validate_atoms()?;
        let mut data = Vec::with_capacity(self.tables.len());
        for (t, pt) in self.tables.iter().enumerate() {
            let raw = Arc::clone(&catalog.get(&pt.name)?.data);
            data.push(self.prepare_table(t, &raw)?);
        }
        Ok(data)
    }

    /// The join spec over the prepared inputs: one [`RelationDef`] per
    /// source, sized by its rows, and a connected join graph. `skew` =
    /// `(machines, slack)` adds the post-selection, sample-based skew
    /// detection per join-key occurrence (§3.4) that the random-routing
    /// schemes act on.
    fn join_spec(&self, data: &[Vec<Tuple>], skew: Option<(usize, f64)>) -> Result<MultiJoinSpec> {
        let mut rels: Vec<RelationDef> = self
            .tables
            .iter()
            .zip(data)
            .map(|(pt, d)| RelationDef::new(pt.alias.clone(), pt.schema.clone(), d.len() as u64))
            .collect();
        if let Some((machines, slack)) = skew {
            for a in &self.atoms {
                for &(t, c) in &[(a.left_rel, a.left_col), (a.right_rel, a.right_col)] {
                    let sample: Vec<Value> =
                        data[t].iter().take(20_000).map(|row| row.get(c).clone()).collect();
                    let est = SkewEstimate::from_sample(sample.iter());
                    if est.is_skewed(machines, slack) {
                        let name = rels[t].schema.field(c).name.clone();
                        rels[t].schema.set_skewed(&name)?;
                    }
                }
            }
        }
        let spec = MultiJoinSpec::new(rels, self.atoms.clone())?;
        if !spec.is_connected() {
            return Err(SquallError::InvalidPlan(
                "join graph is disconnected (Cartesian products unsupported)".into(),
            ));
        }
        Ok(spec)
    }

    /// Plan this query as a **standing view**: the same source-side work
    /// and scheme selection as [`PhysicalQuery::execute`], but producing a
    /// resident-topology configuration plus the [`ViewPlan`] the
    /// view-maintenance sink runs — instead of a one-shot run.
    ///
    /// Standing restrictions, rejected with typed errors: ORDER BY and
    /// LIMIT have no incremental meaning (a view is an unordered
    /// multiset; order when you read it), and a *windowed* view must
    /// window every relation on its stream's declared event-time column —
    /// that is the only column whose appends the catalog keeps monotonic,
    /// which the window join's eviction contract depends on.
    pub fn prepare_standing(&self, catalog: &Catalog, cfg: &ExecConfig) -> Result<StandingPlan> {
        if !self.order_by.is_empty() || self.limit.is_some() {
            return Err(SquallError::InvalidPlan(
                "ORDER BY / LIMIT are not supported in a materialized view \
                 (views are unordered; order when querying the view)"
                    .into(),
            ));
        }
        if let Some(w) = &self.window {
            if let Some(t) = w.presorted.iter().position(|p| !p) {
                return Err(SquallError::InvalidPlan(format!(
                    "windowed standing views must window on each stream's declared \
                     event-time column, but {} windows on an undeclared column",
                    self.tables[t].alias
                )));
            }
        }
        // Source-side work over the initial contents. Unlike the one-shot
        // path, NO skew sampling and NO random routing: a retraction's
        // delta must land on the exact machine holding the matching
        // insert, so every tuple's route has to be a pure function of its
        // content. The random escape hatch for skewed keys (§3.4) trades
        // that determinism for balance, which would strand +1/−1 pairs on
        // different machines and corrupt the maintained state — standing
        // views always route by key hash.
        let data = self.load_sources(catalog)?;
        let spec = self.join_spec(&data, None)?;
        let mut mcfg = self.multiway_config(SchemeKind::Hash, cfg);
        mcfg.standing = true;
        // No `mcfg.agg`: in a standing topology the view sink aggregates,
        // diffing published rows per epoch.

        let view = self.view_plan(&spec);
        Ok(StandingPlan { spec, data, mcfg, view })
    }

    /// The sink half of [`PhysicalQuery::prepare_standing`]: how signed
    /// join deltas become view rows.
    fn view_plan(&self, spec: &MultiJoinSpec) -> ViewPlan {
        let mut plan = ViewPlan {
            group_cols: self.group_cols.clone(),
            finalizer: self.finalizer.clone(),
            windowed: None,
        };
        if self.windowed_agg {
            // The sink's input rows are (window_start, window_end, join
            // output…): group keys and aggregate inputs shift by the two
            // prepended window columns — HAVING and the SELECT items were
            // already shifted at plan time.
            plan.group_cols =
                [0, 1].into_iter().chain(self.group_cols.iter().map(|c| c + 2)).collect();
            for a in &mut plan.finalizer.aggs {
                a.input = a.input.as_ref().map(|e| e.remap_columns(&|c| c + 2));
            }
            let w = self.window.as_ref().expect("windowed_agg implies a window");
            let arities: Vec<usize> = spec.relations.iter().map(|r| r.schema.arity()).collect();
            plan.windowed = Some(ViewWindow {
                spec: w.spec,
                ts_cols: squall_join::output_ts_cols(&arities, &w.ts_cols),
            });
        }
        plan
    }

    /// What a signed batch of `source`'s rows is to a resident view of
    /// this query: per alias of the source in the FROM clause (a self-join
    /// has several), `(relation, rows after that alias's pushed-down
    /// filter, derived columns and projection, mult)` — the view's join
    /// sees post-pushdown rows. Aliases whose filter keeps no row are left
    /// out. Pure: the session runs it before it commits the batch.
    pub fn delta_rounds(&self, source: &str, rows: &[Tuple], mult: i64) -> Result<Vec<DeltaRound>> {
        let mut rounds = Vec::new();
        for t in (0..self.tables.len()).filter(|&t| self.tables[t].name == source) {
            let transformed = self.prepare_table(t, rows)?;
            if !transformed.is_empty() {
                rounds.push((t, transformed, mult));
            }
        }
        Ok(rounds)
    }

    /// Execute against the catalog, materializing every row: the result
    /// stream of [`PhysicalQuery::execute_stream`] drained, then ORDER BY
    /// (ties and the unordered case broken by whole-row order) and LIMIT.
    /// A run or row-finalization failure anywhere in the stream is `Err`.
    pub fn execute(&self, catalog: &Catalog, cfg: &ExecConfig) -> Result<ResultSet> {
        let mut rs = self.stream_unordered(catalog, cfg)?;
        if let Some(mut rows) = rs.drain_stream() {
            if let Some(e) = rs.error() {
                return Err(e.clone());
            }
            self.finalize_order(&mut rows);
            rs.inner = ResultsInner::Rows { rows, cursor: 0 };
        }
        Ok(rs)
    }

    /// Execute against the catalog, streaming result rows while the
    /// topology runs. The returned [`ResultSet`] yields rows in production
    /// order through its [`Iterator`] impl without buffering them;
    /// [`ResultSet::report`] becomes available once the stream is
    /// exhausted. A run that fails mid-way ends the stream early —
    /// check [`ResultSet::error`] after exhaustion. Queries with an
    /// ORDER BY or LIMIT come back materialized — a total order needs
    /// every row first.
    pub fn execute_stream(&self, catalog: &Catalog, cfg: &ExecConfig) -> Result<ResultSet> {
        if !self.order_by.is_empty() || self.limit.is_some() {
            return self.execute(catalog, cfg);
        }
        self.stream_unordered(catalog, cfg)
    }

    /// The one execution path, one relation or six: source-side work,
    /// statistics, scheme/config selection, then launch the topology and
    /// hand back its live, HAVING-filtered, SELECT-projected stream in
    /// production order (ORDER BY / LIMIT not yet applied).
    fn stream_unordered(&self, catalog: &Catalog, cfg: &ExecConfig) -> Result<ResultSet> {
        let mut data = self.load_sources(catalog)?;
        if let Some(w) = &self.window {
            // Windowed topologies require spouts that emit in event-time
            // order (the watermark-eviction contract). Streams windowed on
            // their declared column were sorted and validated once at
            // registration (selection/projection preserve order); only
            // explicit `ON` over other columns pays a per-run sort.
            for (t, d) in data.iter_mut().enumerate() {
                if !w.presorted[t] {
                    squall_runtime::sort_by_event_time(d, w.ts_cols[t])?;
                }
            }
        }
        let spec = self.join_spec(&data, Some((cfg.machines, cfg.skew_slack)))?;

        // Scheme & parallelism selection: an explicit config scheme wins,
        // then the optimizer's cost-based choice, then the Hybrid default
        // (it subsumes the others, §3.1).
        let scheme = cfg
            .scheme
            .or_else(|| self.decision.as_ref().and_then(|d| d.scheme_kind()))
            .unwrap_or(SchemeKind::Hybrid);
        let mut mcfg = self.multiway_config(scheme, cfg);
        if self.is_aggregate {
            mcfg = mcfg.with_agg(AggPlan {
                group_cols: self.group_cols.clone(),
                aggs: self.finalizer.aggs.clone(),
                parallelism: cfg.agg_parallelism.max(1),
            });
        }
        let stream = QueryStream {
            inner: Some(run_multiway_stream(&spec, data, &mcfg)?),
            finalizer: self.finalizer.clone(),
            saw_rows: false,
            report: None,
        };
        Ok(ResultSet::streaming(self.out_schema.clone(), stream))
    }

    /// Human-readable plan description (the EXPLAIN of the demo UI).
    pub fn explain(&self) -> String {
        let mut s = String::new();
        for t in &self.tables {
            s.push_str(&format!(
                "source {} as {}: keep {:?}{}{}\n",
                t.name,
                t.alias,
                t.kept,
                t.filter.as_ref().map(|f| format!(", filter {f}")).unwrap_or_default(),
                if t.derived.is_empty() {
                    String::new()
                } else {
                    format!(", derive {} expr(s)", t.derived.len())
                },
            ));
        }
        s.push_str(&format!("join atoms: {:?}\n", self.atoms));
        if let Some(w) = &self.window {
            s.push_str(&format!("window: {:?} on ts cols {:?}\n", w.spec, w.ts_cols));
        }
        if self.is_aggregate {
            s.push_str(&format!(
                "aggregate: group by {:?}, {} agg(s){}\n",
                self.group_cols,
                self.finalizer.aggs.len(),
                if self.windowed_agg {
                    " — per window (window_start, window_end prepended), \
                     group-hash sharded + ordered window merge"
                } else {
                    ""
                }
            ));
        }
        if let Some(h) = &self.finalizer.having {
            s.push_str(&format!("having: {h}\n"));
        }
        if !self.order_by.is_empty() || self.limit.is_some() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|&(c, desc)| {
                    format!("{}{}", self.out_schema.field(c).name, if desc { " DESC" } else { "" })
                })
                .collect();
            s.push_str(&format!(
                "order/limit: [{}]{}\n",
                keys.join(", "),
                self.limit.map(|n| format!(", limit {n}")).unwrap_or_default()
            ));
        }
        s
    }

    pub fn output_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// The topology layout this plan executes as under `cfg` —
    /// `(names, parallelism, is_spout)` per node, mirroring the driver's
    /// assembly: one spout per relation, the join component (one identity
    /// task when there is a single relation and so nothing to partition),
    /// and the aggregation component if present. This is what task→peer placement
    /// ([`squall_runtime::plan_placement`]) is computed over when the
    /// session runs on a cluster.
    pub fn node_layout(&self, cfg: &ExecConfig) -> (Vec<String>, Vec<usize>, Vec<bool>) {
        let mut names: Vec<String> =
            self.tables.iter().map(|t| format!("src-{}", t.alias)).collect();
        let mut parallelism = vec![1usize; self.tables.len()];
        let mut is_spout = vec![true; self.tables.len()];
        names.push("join".into());
        parallelism.push(if self.tables.len() == 1 { 1 } else { cfg.machines.max(1) });
        is_spout.push(false);
        if self.is_aggregate {
            names.push("agg".into());
            // Both modes shard by group hash across agg_parallelism tasks;
            // per-window aggregation adds a single ordered merge sink that
            // restores the window-order contract behind the shards.
            parallelism.push(cfg.agg_parallelism.max(1));
            is_spout.push(false);
            if self.windowed_agg {
                names.push("agg-merge".into());
                parallelism.push(1);
                is_spout.push(false);
            }
        }
        (names, parallelism, is_spout)
    }

    /// Number of FROM relations (in current plan order).
    pub fn n_relations(&self) -> usize {
        self.tables.len()
    }

    /// The join atoms over current relation indices and pruned-local
    /// column coordinates.
    pub fn join_atoms(&self) -> &[JoinAtom] {
        &self.atoms
    }

    /// Relation `t`'s alias (current plan order).
    pub fn alias(&self, t: usize) -> &str {
        &self.tables[t].alias
    }

    /// Relation `t`'s catalog source name (current plan order).
    pub fn source_name(&self, t: usize) -> &str {
        &self.tables[t].name
    }

    /// Relation `t`'s pruned join-input schema.
    pub fn relation_schema(&self, t: usize) -> &Schema {
        &self.tables[t].schema
    }

    /// Map relation `t`'s pruned-local column back to its *source table*
    /// column index — `None` for derived columns, which no catalog
    /// statistics describe.
    pub(crate) fn source_column(&self, t: usize, local: usize) -> Option<usize> {
        let pt = &self.tables[t];
        let orig_arity = pt.orig_columns.len() - pt.derived.len();
        let c = *pt.kept.get(local)?;
        (c < orig_arity).then_some(c)
    }

    /// Estimated post-filter cardinality of relation `t`: the catalog row
    /// count scaled by the pushed filter's selectivity measured over a
    /// bounded prefix sample (2 000 rows).
    pub(crate) fn estimated_base_rows(&self, t: usize, catalog: &Catalog) -> Result<f64> {
        let pt = &self.tables[t];
        let n = catalog.get(&pt.name)?.data.len();
        let Some(f) = &pt.filter else {
            return Ok(n as f64);
        };
        let sample = n.min(2_000);
        if sample == 0 {
            return Ok(0.0);
        }
        let mut pass = 0usize;
        for tuple in catalog.get(&pt.name)?.data.iter().take(sample) {
            // An erroring predicate row counts as filtered, mirroring
            // execution where it fails the run — estimation stays total.
            if f.eval_bool(tuple).unwrap_or(false) {
                pass += 1;
            }
        }
        Ok(n as f64 * pass as f64 / sample as f64)
    }

    /// Every join atom must address a column inside its relation's pruned
    /// join-input schema. Violations get the typed
    /// [`SquallError::PrunedColumnReference`], naming the column —
    /// checked on every execution and re-checked after a join-order
    /// rewrite.
    fn validate_atoms(&self) -> Result<()> {
        for a in &self.atoms {
            for &(t, c) in &[(a.left_rel, a.left_col), (a.right_rel, a.right_col)] {
                let pt = self.tables.get(t).ok_or_else(|| {
                    SquallError::InvalidPlan(format!("join atom references relation #{t}"))
                })?;
                if c >= pt.schema.arity() {
                    return Err(SquallError::PrunedColumnReference {
                        relation: pt.alias.clone(),
                        column: pt.orig_columns.get(c).cloned().unwrap_or_else(|| format!("#{c}")),
                    });
                }
            }
        }
        Ok(())
    }

    /// Rewrite the plan to execute its relations in `order` (indices into
    /// the current order), remapping every join-output coordinate —
    /// group-by columns, aggregate inputs, projection expressions, atom
    /// relation ids and per-relation window metadata — so results are
    /// byte-identical to the original order. HAVING, ORDER BY and
    /// aggregate-row indices address post-aggregation rows, whose layout
    /// the relation order does not affect.
    pub fn apply_order(&mut self, order: &[usize]) -> Result<()> {
        let n = self.tables.len();
        {
            let mut seen = vec![false; n];
            if order.len() != n
                || order.iter().any(|&t| t >= n || std::mem::replace(&mut seen[t], true))
            {
                return Err(SquallError::InvalidPlan(format!(
                    "join order {order:?} is not a permutation of 0..{n}"
                )));
            }
        }
        if order.iter().enumerate().all(|(i, &t)| i == t) {
            return Ok(());
        }
        // Old join-output offsets and the old→new placement.
        let mut old_off = Vec::with_capacity(n);
        {
            let mut off = 0;
            for t in &self.tables {
                old_off.push(off);
                off += t.schema.arity();
            }
        }
        let mut inv = vec![0usize; n];
        for (new_t, &old_t) in order.iter().enumerate() {
            inv[old_t] = new_t;
        }
        let mut new_off_by_old = vec![0usize; n];
        {
            let mut off = 0;
            for &old_t in order {
                new_off_by_old[old_t] = off;
                off += self.tables[old_t].schema.arity();
            }
        }
        let remap = |g: usize| -> usize {
            let t = old_off.iter().rposition(|&o| o <= g).expect("offset");
            new_off_by_old[t] + (g - old_off[t])
        };
        self.tables = order.iter().map(|&t| self.tables[t].clone()).collect();
        for a in &mut self.atoms {
            a.left_rel = inv[a.left_rel];
            a.right_rel = inv[a.right_rel];
        }
        for g in &mut self.group_cols {
            *g = remap(*g);
        }
        for a in &mut self.finalizer.aggs {
            a.input = a.input.as_ref().map(|e| e.remap_columns(&remap));
        }
        if !self.is_aggregate {
            for e in &mut self.finalizer.project {
                *e = e.remap_columns(&remap);
            }
        }
        if let Some(w) = &mut self.window {
            w.ts_cols = order.iter().map(|&t| w.ts_cols[t]).collect();
            w.presorted = order.iter().map(|&t| w.presorted[t]).collect();
        }
        self.validate_atoms()
    }

    /// Record the optimizer's decision on this plan (scheme selection in
    /// [`PhysicalQuery::execute`] and the explain table read it).
    pub fn set_decision(&mut self, d: OptimizerDecision) {
        self.decision = Some(d);
    }

    /// The optimizer decision, when [`crate::optimizer::optimize`] ran.
    pub fn decision(&self) -> Option<&OptimizerDecision> {
        self.decision.as_ref()
    }

    /// [`PhysicalQuery::explain`] plus the optimizer block: the chosen
    /// join order with its estimated-vs-actual cardinality table (actuals
    /// from a finished run's [`JoinReport`] task counters, dashed when
    /// `report` is `None`) and the per-scheme cost candidates.
    pub fn explain_with_actuals(&self, report: Option<&JoinReport>) -> String {
        let mut s = self.explain();
        if let Some(d) = &self.decision {
            s.push_str(&d.render(report));
        }
        s
    }
}

fn display_name(e: &Expr) -> String {
    match e {
        Expr::Col(n) => n.clone(),
        Expr::Agg { func, arg } => match arg {
            Some(a) => format!("{func}({})", display_name(a)),
            None => format!("{func}(*)"),
        },
        Expr::Lit(v) => v.to_string(),
        Expr::Bin { op, lhs, rhs } => {
            format!("({} {op} {})", display_name(lhs), display_name(rhs))
        }
        Expr::Not(x) => format!("NOT {}", display_name(x)),
    }
}

/// Plan + execute in one call, materializing every row. Runs the
/// cost-based optimizer ([`crate::optimizer::optimize`]) between the two
/// unless [`ExecConfig::optimizer`] is `Off`.
pub fn execute_query(q: &Query, catalog: &Catalog, cfg: &ExecConfig) -> Result<ResultSet> {
    let mut plan = PhysicalQuery::plan(q, catalog)?;
    crate::optimizer::optimize(&mut plan, catalog, cfg)?;
    plan.execute(catalog, cfg)
}

/// Plan + execute in one call, streaming rows while the topology runs.
/// Optimized the same way as [`execute_query`].
pub fn execute_query_stream(q: &Query, catalog: &Catalog, cfg: &ExecConfig) -> Result<ResultSet> {
    let mut plan = PhysicalQuery::plan(q, catalog)?;
    crate::optimizer::optimize(&mut plan, catalog, cfg)?;
    plan.execute_stream(catalog, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{agg, col, lit};
    use squall_common::tuple;
    use squall_expr::BinOp;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "R",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![tuple![1, 10], tuple![2, 20], tuple![3, 30], tuple![2, 25]],
        )
        .unwrap();
        c.register(
            "S",
            Schema::of(&[("a", DataType::Int), ("c", DataType::Int)]),
            vec![tuple![2, 100], tuple![3, 200], tuple![4, 300], tuple![2, 150]],
        )
        .unwrap();
        c.register(
            "T",
            Schema::of(&[("c", DataType::Int), ("d", DataType::Int)]),
            vec![tuple![100, 7], tuple![200, 8], tuple![999, 9]],
        )
        .unwrap();
        c
    }

    /// Unsorted event streams: the planner must order spout input by
    /// event time itself.
    fn stream_catalog() -> Catalog {
        let schema = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
        let mut c = Catalog::new();
        c.register_stream(
            "A",
            schema.clone(),
            vec![tuple![1, 50], tuple![1, 0], tuple![2, 20]],
            "ts",
        )
        .unwrap();
        c.register_stream("B", schema, vec![tuple![2, 25], tuple![1, 8], tuple![1, 49]], "ts")
            .unwrap();
        c
    }

    #[test]
    fn spj_two_way() {
        // SELECT R.b, S.c FROM R, S WHERE R.a = S.a AND R.b > 15.
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")).and(col("R.b").gt(lit(15))))
            .select([col("R.b"), col("S.c")]);
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        // R rows with b>15: (2,20),(3,30),(2,25); joins: 2→(100,150), 3→200.
        assert_eq!(
            res.rows(),
            vec![
                tuple![20, 100],
                tuple![20, 150],
                tuple![25, 100],
                tuple![25, 150],
                tuple![30, 200]
            ]
        );
        assert!(res.report().is_some());
    }

    #[test]
    fn three_way_chain_with_count() {
        // SELECT T.d, COUNT(*) FROM R,S,T WHERE R.a=S.a AND S.c=T.c
        // GROUP BY T.d.
        let q = Query::from_tables([("R", "R"), ("S", "S"), ("T", "T")])
            .filter(col("R.a").eq(col("S.a")))
            .filter(col("S.c").eq(col("T.c")))
            .group_by([col("T.d")])
            .select([col("T.d"), agg(AggFunc::Count, None)]);
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        // Joins: R.a=2 (2 rows) × S(2,100),(2,150) ; R.a=3 × S(3,200).
        // T: c=100→d7, c=200→d8. Count d=7: R{2,2}×S(2,100) = 2; d=8:
        // R{3}×S(3,200) = 1.
        assert_eq!(res.rows(), vec![tuple![7, 2], tuple![8, 1]]);
    }

    #[test]
    fn aggregate_without_group_by() {
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .select([agg(AggFunc::Count, None), agg(AggFunc::Sum, Some(col("S.c")))]);
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        // Matches: (2,*)x2 rows R × 2 rows S = 4, (3,*) 1×1 = 1 → 5 rows;
        // sum of S.c over matches: 2-rows contribute (100+150)*2, 3-row 200.
        assert_eq!(res.rows(), vec![tuple![5, 700]]);
    }

    #[test]
    fn expression_join_predicate_derives_column() {
        // SELECT COUNT(*) FROM R, S WHERE 2 * R.a = S.a  → derived column
        // on R (the paper's 2·R.B < S.C shape).
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(lit(2).bin(BinOp::Mul, col("R.a")).eq(col("S.a")))
            .select([agg(AggFunc::Count, None)]);
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        // 2*R.a ∈ {2,4,6,4}; S.a ∈ {2,3,4,2}: matches 2→2 (a=1, two S rows),
        // 4→4 (two R rows a=2 × one S row) = 2+2 = 4.
        assert_eq!(res.rows(), vec![tuple![4]]);
    }

    #[test]
    fn single_table_query_runs_as_a_one_relation_topology() {
        let q = Query::from_tables([("R", "R")])
            .filter(col("R.b").gt(lit(15)))
            .group_by([col("R.a")])
            .select([col("R.a"), agg(AggFunc::Count, None)]);
        for local in [LocalJoinKind::DBToaster, LocalJoinKind::Traditional] {
            let cfg = ExecConfig { local, ..ExecConfig::default() };
            let mut res = execute_query(&q, &catalog(), &cfg).unwrap();
            assert_eq!(res.rows(), vec![tuple![2, 2], tuple![3, 1]], "{local}");
            let report = res.report().expect("a single table runs as a topology too");
            assert_eq!(report.input_count, 3, "{local}: R's rows after b > 15");
            assert_eq!(report.loads, vec![3], "{local}: one identity join task");
        }
    }

    #[test]
    fn single_table_global_aggregate_over_zero_rows_is_one_row() {
        // The filter passes nothing: no engine row reaches the sink, so the
        // synthetic COUNT = 0 / NULL-sum row must appear — exactly once,
        // however many aggregate tasks sat idle.
        let q = Query::from_tables([("R", "R")])
            .filter(col("R.b").gt(lit(1000)))
            .select([agg(AggFunc::Count, None), agg(AggFunc::Sum, Some(col("R.b")))]);
        for agg_parallelism in [1, 3] {
            let cfg = ExecConfig { agg_parallelism, ..ExecConfig::default() };
            let mut res = execute_query(&q, &catalog(), &cfg).unwrap();
            assert_eq!(res.rows(), vec![Tuple::new(vec![Value::Int(0), Value::Null])]);
            assert_eq!(res.report().expect("report").input_count, 0);
            let streamed: Vec<Tuple> =
                execute_query_stream(&q, &catalog(), &cfg).unwrap().collect();
            assert_eq!(streamed.len(), 1, "streaming yields the synthetic row once");
        }
    }

    #[test]
    fn bare_column_names_resolve_when_unique() {
        let q = Query::from_tables([("R", "R"), ("T", "T")])
            .filter(col("b").eq(col("d"))) // R.b and T.d are unique names
            .select([agg(AggFunc::Count, None)]);
        // No matches (b ∈ {10..30}, d ∈ {7,8,9}) but it must plan fine.
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        assert_eq!(res.rows(), vec![tuple![0i64]]);
    }

    #[test]
    fn ambiguous_and_unknown_columns_rejected() {
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("a").eq(lit(1)))
            .select([col("R.b")]);
        assert!(matches!(PhysicalQuery::plan(&q, &catalog()), Err(SquallError::InvalidPlan(_))));
        let q2 = Query::from_tables([("R", "R")]).select([col("R.zzz")]);
        assert!(matches!(PhysicalQuery::plan(&q2, &catalog()), Err(SquallError::UnknownColumn(_))));
    }

    #[test]
    fn non_grouped_column_rejected() {
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .group_by([col("R.a")])
            .select([col("R.b"), agg(AggFunc::Count, None)]);
        assert!(PhysicalQuery::plan(&q, &catalog()).is_err());
    }

    #[test]
    fn disconnected_join_rejected() {
        let q = Query::from_tables([("R", "R"), ("T", "T")]).select([col("R.a")]);
        let p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        assert!(p.execute(&catalog(), &ExecConfig::default()).is_err());
    }

    #[test]
    fn explain_mentions_pushdown() {
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")).and(col("R.b").gt(lit(15))))
            .select([col("S.c")]);
        let p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        let e = p.explain();
        assert!(e.contains("filter"), "{e}");
        assert!(e.contains("join atoms"), "{e}");
    }

    #[test]
    fn windowed_join_matches_timestamp_oracle() {
        use crate::logical::Window;
        // SELECT A.k, A.ts, B.ts FROM A, B WHERE A.k = B.k WINDOW SLIDING 10.
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::sliding(10))
            .select([col("A.k"), col("A.ts"), col("B.ts")]);
        let mut res = execute_query(&q, &stream_catalog(), &ExecConfig::default()).unwrap();
        // Key + |Δts| ≤ 10 pairs: (1@0,1@8), (1@50,1@49); (2@20,2@25).
        assert_eq!(res.rows(), vec![tuple![1, 0, 8], tuple![1, 50, 49], tuple![2, 20, 25]]);
    }

    #[test]
    fn windowed_plan_keeps_event_time_columns() {
        use crate::logical::Window;
        // Neither ts column is selected or joined on — the window alone
        // must keep them alive through output-scheme pruning.
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::tumbling(10))
            .select([agg(AggFunc::Count, None)]);
        let p = PhysicalQuery::plan(&q, &stream_catalog()).unwrap();
        assert_eq!(p.tables[0].kept, vec![0, 1]);
        assert_eq!(p.tables[1].kept, vec![0, 1]);
        assert!(p.explain().contains("window"));
        // Tumbling width 10: (1@0,1@8) share bucket 0; (2@20,2@25) share
        // bucket 2; (1@50,1@49) split across buckets 5 and 4. With an
        // aggregate under a window the count is *per window*, with the
        // window bounds prepended to the output row.
        let mut res = p.execute(&stream_catalog(), &ExecConfig::default()).unwrap();
        assert_eq!(res.rows(), vec![tuple![0, 9, 1], tuple![20, 29, 1]]);
        assert_eq!(res.schema().field(0).name, "window_start");
        assert_eq!(res.schema().field(1).name, "window_end");
    }

    #[test]
    fn windowed_group_by_emits_per_window_rows() {
        use crate::logical::Window;
        // SELECT A.k, COUNT(*) … WINDOW TUMBLING 10 GROUP BY A.k.
        // In-window pairs: (1@0,1@8) → bucket 0; (2@20,2@25) → bucket 2.
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::tumbling(10))
            .group_by([col("A.k")])
            .select([col("A.k"), agg(AggFunc::Count, None)]);
        let p = PhysicalQuery::plan(&q, &stream_catalog()).unwrap();
        assert!(p.explain().contains("per window"), "{}", p.explain());
        let mut res = p.execute(&stream_catalog(), &ExecConfig::default()).unwrap();
        assert_eq!(res.rows(), vec![tuple![0, 9, 1, 1], tuple![20, 29, 2, 1]]);
        // The streaming path yields the same rows, in window order.
        let streamed: Vec<Tuple> =
            p.execute_stream(&stream_catalog(), &ExecConfig::default()).unwrap().collect();
        assert_eq!(streamed, vec![tuple![0, 9, 1, 1], tuple![20, 29, 2, 1]]);
    }

    #[test]
    fn windowed_sliding_aggregate_overlaps_windows() {
        use crate::logical::Window;
        // Sliding size 10: a pair spanning [lo, hi] lands in every window
        // [s, s+10] containing both, i.e. s ∈ [hi−10 (clamped to 0), lo].
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::sliding(10))
            .group_by([col("A.k")])
            .select([col("A.k"), agg(AggFunc::Count, None)]);
        let mut res = execute_query(&q, &stream_catalog(), &ExecConfig::default()).unwrap();
        let starts: Vec<i64> = res
            .rows()
            .iter()
            .filter(|t| t.get(2) == &Value::Int(1))
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        // Pair (1@0,1@8): start 0 only (negative starts clamp). Pair
        // (1@50,1@49): starts 40..=49 — ten overlapping windows.
        let expected: Vec<i64> = std::iter::once(0).chain(40..=49).collect();
        assert_eq!(starts, expected);
    }

    #[test]
    fn having_filters_per_window_groups() {
        use crate::logical::Window;
        // HAVING COUNT(*) > 1 over per-window groups: only sliding windows
        // containing ≥ 2 pairs survive. With size 30, pairs (1@0,1@8) and
        // (2@20,2@25) co-occupy windows [s, s+30] with s ∈ [0, max(0,..)]…
        // concretely both pairs fit when s ≤ 0 and s+30 ≥ 25 → s = 0 only
        // for groups — but the groups differ (k=1 vs k=2), so COUNT per
        // (window, group) stays 1 and everything is filtered.
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::sliding(30))
            .group_by([col("A.k")])
            .select([col("A.k"), agg(AggFunc::Count, None)])
            .having(agg(AggFunc::Count, None).gt(lit(1)));
        let mut res = execute_query(&q, &stream_catalog(), &ExecConfig::default()).unwrap();
        assert!(res.rows().is_empty(), "{:?}", res.rows());
        // Global per-window count with sliding 60: all five |Δ| ≤ 60
        // pairs fit window 0; windows 1..=8 still hold the three pairs
        // not anchored at ts 0; from s = 9 the count drops to 2 and
        // HAVING > 2 cuts the stream off.
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::sliding(60))
            .select([agg(AggFunc::Count, None)])
            .having(agg(AggFunc::Count, None).gt(lit(2)));
        let mut res = execute_query(&q, &stream_catalog(), &ExecConfig::default()).unwrap();
        let mut expected = vec![tuple![0, 60, 5]];
        expected.extend((1..=8).map(|s| tuple![s, s + 60, 3]));
        assert_eq!(res.rows(), expected);
    }

    #[test]
    fn windowed_global_aggregate_with_no_windows_yields_no_rows() {
        use crate::logical::Window;
        // No join matches at all → no windows → no synthetic COUNT=0 row
        // (that row is a full-history artifact).
        let schema = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
        let mut c = Catalog::new();
        c.register_stream("A", schema.clone(), vec![tuple![1, 0]], "ts").unwrap();
        c.register_stream("B", schema, vec![tuple![2, 1]], "ts").unwrap();
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::tumbling(10))
            .select([agg(AggFunc::Count, None)]);
        let mut res = execute_query(&q, &c, &ExecConfig::default()).unwrap();
        assert!(res.rows().is_empty());
    }

    #[test]
    fn windowed_aggregate_order_by_window_columns() {
        use crate::logical::Window;
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::tumbling(10))
            .group_by([col("A.k")])
            .select([col("A.k"), agg(AggFunc::Count, None)])
            .order_by("window_start", true)
            .limit(1);
        let mut res = execute_query(&q, &stream_catalog(), &ExecConfig::default()).unwrap();
        assert_eq!(res.rows(), vec![tuple![20, 29, 2, 1]], "latest window first");
    }

    #[test]
    fn window_plan_errors() {
        use crate::logical::Window;
        let c = stream_catalog();
        // Single-relation windowed query.
        let q = Query::from_tables([("A", "A")]).window(Window::sliding(5)).select([col("A.k")]);
        assert!(PhysicalQuery::plan(&q, &c).is_err());
        // Zero-width windows.
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::tumbling(0))
            .select([col("A.k")]);
        assert!(PhysicalQuery::plan(&q, &c).is_err());
        // ON column missing from a relation.
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::sliding(5).on("nope"))
            .select([col("A.k")]);
        assert!(matches!(PhysicalQuery::plan(&q, &c), Err(SquallError::UnknownColumn(_))));
        // Plain tables without ON: no declared event time.
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .window(Window::sliding(5))
            .select([col("R.b")]);
        assert!(matches!(PhysicalQuery::plan(&q, &catalog()), Err(SquallError::InvalidPlan(_))));
    }

    #[test]
    fn having_filters_groups_on_visible_and_hidden_aggregates() {
        // Groups over R⋈S on a: a=2 → 2 R-rows × 2 S-rows = 4; a=3 → 1.
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .group_by([col("R.a")])
            .select([col("R.a"), agg(AggFunc::Count, None)])
            .having(agg(AggFunc::Count, None).gt(lit(1)));
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        assert_eq!(res.rows(), vec![tuple![2, 4]]);

        // The aggregate may be absent from SELECT: it becomes a hidden
        // column (and satisfies the aggregate requirement of GROUP BY).
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .group_by([col("R.a")])
            .select([col("R.a")])
            .having(agg(AggFunc::Sum, Some(col("S.c"))).gt(lit(300)));
        let p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        assert!(p.explain().contains("having:"), "{}", p.explain());
        let mut res = p.execute(&catalog(), &ExecConfig::default()).unwrap();
        // SUM(S.c): a=2 → (100+150)·2 = 500 > 300; a=3 → 200.
        assert_eq!(res.rows(), vec![tuple![2]]);
    }

    #[test]
    fn having_group_columns_on_a_single_table() {
        let q = Query::from_tables([("R", "R")])
            .group_by([col("R.a")])
            .select([col("R.a"), agg(AggFunc::Count, None)])
            .having(col("R.a").gt(lit(1)).and(agg(AggFunc::Count, None).gt(lit(1))));
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        // R.a groups: 1→1, 2→2, 3→1; a>1 AND count>1 keeps only (2, 2).
        assert_eq!(res.rows(), vec![tuple![2, 2]]);
        assert_eq!(res.report().expect("report").input_count, 4, "all of R, unfiltered");
    }

    #[test]
    fn having_on_empty_global_aggregate_gates_the_synthetic_row() {
        // No join matches (b ∈ {10..30} vs d ∈ {7,8,9}).
        let base = Query::from_tables([("R", "R"), ("T", "T")])
            .filter(col("R.b").eq(col("T.d")))
            .select([agg(AggFunc::Count, None)]);
        let q = base.clone().having(agg(AggFunc::Count, None).gt(lit(0)));
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        assert!(res.rows().is_empty(), "COUNT = 0 fails HAVING > 0");
        let q = base.having(agg(AggFunc::Count, None).eq(lit(0)));
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        assert_eq!(res.rows(), vec![tuple![0i64]], "COUNT = 0 passes HAVING = 0");
    }

    #[test]
    fn having_errors_are_typed() {
        // Non-aggregate query.
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .select([col("R.b")])
            .having(col("R.b").gt(lit(1)));
        assert!(matches!(PhysicalQuery::plan(&q, &catalog()), Err(SquallError::InvalidPlan(_))));
        // Plain column outside GROUP BY.
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .group_by([col("R.a")])
            .select([col("R.a"), agg(AggFunc::Count, None)])
            .having(col("R.b").gt(lit(1)));
        assert!(matches!(PhysicalQuery::plan(&q, &catalog()), Err(SquallError::InvalidPlan(_))));
        // SUM without an argument inside HAVING.
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .group_by([col("R.a")])
            .select([col("R.a"), agg(AggFunc::Count, None)])
            .having(agg(AggFunc::Sum, None).gt(lit(1)));
        assert!(PhysicalQuery::plan(&q, &catalog()).is_err());
    }

    #[test]
    fn having_prunes_keep_hidden_aggregate_inputs_alive() {
        // S.c appears only inside the HAVING aggregate — it must survive
        // output-scheme pruning.
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .group_by([col("R.a")])
            .select([col("R.a")])
            .having(agg(AggFunc::Sum, Some(col("S.c"))).gt(lit(0)));
        let p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        assert_eq!(p.tables[1].kept, vec![0, 1], "S.c shipped for the hidden SUM");
    }

    #[test]
    fn order_by_and_limit_shape_results() {
        // SELECT R.b, S.c FROM R, S WHERE R.a = S.a ORDER BY R.b DESC LIMIT 3.
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .select([col("R.b"), col("S.c")])
            .order_by("R.b", true)
            .limit(3);
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        // Full result desc by R.b (ties → whole-row asc):
        // [30,200], [25,100], [25,150], [20,100], [20,150] → first 3.
        assert_eq!(res.rows(), vec![tuple![30, 200], tuple![25, 100], tuple![25, 150]]);
        let p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        assert!(p.explain().contains("order/limit"), "{}", p.explain());
    }

    #[test]
    fn order_by_aggregate_alias() {
        // Heaviest groups first: ORDER BY n DESC on a named COUNT(*).
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .group_by([col("R.a")])
            .select_as([(col("R.a"), "k"), (agg(AggFunc::Count, None), "n")])
            .order_by("n", true)
            .limit(1);
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        // Groups: a=2 → 2 R-rows × 2 S-rows = 4; a=3 → 1. Top-1 is (2, 4).
        assert_eq!(res.rows(), vec![tuple![2, 4]]);
    }

    #[test]
    fn order_by_and_limit_apply_to_a_single_table_query() {
        let q = Query::from_tables([("R", "R")])
            .select([col("R.a"), col("R.b")])
            .order_by("R.b", true)
            .limit(2);
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        assert_eq!(res.rows(), vec![tuple![3, 30], tuple![2, 25]]);
        assert_eq!(res.report().expect("report").input_count, 4);
        let q0 = Query::from_tables([("R", "R")]).select([col("R.a")]).limit(0);
        let mut res = execute_query(&q0, &catalog(), &ExecConfig::default()).unwrap();
        assert!(res.rows().is_empty(), "LIMIT 0 yields no rows");
        assert_eq!(res.report().expect("report").input_count, 4);
    }

    #[test]
    fn single_table_queries_really_stream() {
        let q = Query::from_tables([("R", "R")]).select([col("R.b")]);
        let p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        let mut res = p.execute_stream(&catalog(), &ExecConfig::default()).unwrap();
        assert!(res.is_streaming(), "a live run, not a materialized buffer");
        let mut rows: Vec<Tuple> = res.by_ref().collect();
        rows.sort();
        assert_eq!(rows, vec![tuple![10], tuple![20], tuple![25], tuple![30]]);
        assert_eq!(res.report().expect("report after exhaustion").result_count, 4);
    }

    #[test]
    fn ordered_queries_stream_as_materialized_results() {
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .select([col("R.b")])
            .order_by("R.b", false)
            .limit(2);
        let p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        let mut res = p.execute_stream(&catalog(), &ExecConfig::default()).unwrap();
        assert!(!res.is_streaming(), "a total order needs every row first");
        assert_eq!(res.rows(), vec![tuple![20], tuple![20]]);
    }

    #[test]
    fn order_by_unknown_or_ambiguous_rejected() {
        let q = Query::from_tables([("R", "R")]).select([col("R.a")]).order_by("zzz", false);
        assert!(matches!(PhysicalQuery::plan(&q, &catalog()), Err(SquallError::UnknownColumn(_))));
        let q = Query::from_tables([("R", "R")])
            .select([col("R.a"), col("R.a")])
            .order_by("R.a", false);
        assert!(matches!(PhysicalQuery::plan(&q, &catalog()), Err(SquallError::InvalidPlan(_))));
    }

    #[test]
    fn output_scheme_prunes_columns() {
        // Only R.a (join key) and S.c (selected) are needed; R.b unused.
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .select([col("S.c")]);
        let p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        assert_eq!(p.tables[0].kept, vec![0], "R ships only the join key");
        assert_eq!(p.tables[1].kept, vec![0, 1]);
    }

    #[test]
    fn pruned_column_reference_is_typed_and_named() {
        // R.b is pruned (only the join key R.a survives). Manufacture a
        // plan whose atom still addresses the pruned coordinate — the
        // state a buggy rewrite would leave behind — and every execution
        // surface must reject it with the typed error naming R.b.
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .select([col("S.c")]);
        let mut p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        p.atoms[0].left_col = 1; // past R's pruned arity of 1
        let err = p.execute(&catalog(), &ExecConfig::default()).unwrap_err();
        match &err {
            SquallError::PrunedColumnReference { relation, column } => {
                assert_eq!(relation, "R");
                assert_eq!(column, "R.b");
            }
            other => panic!("expected PrunedColumnReference, got {other:?}"),
        }
        assert!(err.to_string().contains("R.b"), "message names the column: {err}");
        assert!(matches!(
            p.prepare_standing(&catalog(), &ExecConfig::default()),
            Err(SquallError::PrunedColumnReference { .. })
        ));
    }

    #[test]
    fn mid_stream_failures_are_err_materialized_and_error_streaming() {
        // Every distributed answer is the drained stream, so a failure
        // inside it — wherever it is raised — has one face per call:
        // `Err` from `execute`, `ResultSet::error()` from the live stream.
        let join = |q: Query| q.filter(col("R.a").eq(col("S.a")));
        // A SELECT item addressing a column past the join output: the
        // finalizer fails on the first row it projects.
        let spj = join(Query::from_tables([("R", "R"), ("S", "S")])).select([col("S.c")]);
        let mut finalizer_fails = PhysicalQuery::plan(&spj, &catalog()).unwrap();
        finalizer_fails.finalizer.project[0] = ScalarExpr::col(99);
        // An aggregate input addressing such a column: the aggregation
        // bolt fails mid-run, inside the topology.
        let grouped = join(Query::from_tables([("R", "R"), ("S", "S")]))
            .group_by([col("R.a")])
            .select([col("R.a"), agg(AggFunc::Sum, Some(col("S.c")))]);
        let mut operator_fails = PhysicalQuery::plan(&grouped, &catalog()).unwrap();
        operator_fails.finalizer.aggs[0].input = Some(ScalarExpr::col(99));

        for (what, p) in [("finalizer", finalizer_fails), ("operator", operator_fails)] {
            let err = p.execute(&catalog(), &ExecConfig::default()).expect_err(what);
            let mut rs = p.execute_stream(&catalog(), &ExecConfig::default()).unwrap();
            assert!(rs.is_streaming(), "{what}");
            assert_eq!(rs.by_ref().count(), 0, "{what}: no row survives the failure");
            assert_eq!(rs.error(), Some(&err), "{what}");
        }
    }

    #[test]
    fn apply_order_is_result_invariant() {
        // The 3-way chain from `three_way_chain_with_count`, executed
        // under every relation order, must give byte-identical rows.
        let q = Query::from_tables([("R", "R"), ("S", "S"), ("T", "T")])
            .filter(col("R.a").eq(col("S.a")))
            .filter(col("S.c").eq(col("T.c")))
            .group_by([col("T.d")])
            .select([col("T.d"), agg(AggFunc::Count, None)]);
        let cat = catalog();
        let cfg =
            ExecConfig { optimizer: crate::optimizer::OptimizerMode::Off, ..ExecConfig::default() };
        let expected = vec![tuple![7, 2], tuple![8, 1]];
        for order in crate::optimizer::enumerate_orders(
            3,
            PhysicalQuery::plan(&q, &cat).unwrap().join_atoms(),
            usize::MAX,
        ) {
            let mut p = PhysicalQuery::plan(&q, &cat).unwrap();
            p.apply_order(&order).unwrap();
            let mut res = p.execute(&cat, &cfg).unwrap();
            assert_eq!(res.rows(), expected, "order {order:?}");
        }
    }

    #[test]
    fn apply_order_rejects_non_permutations() {
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .select([col("S.c")]);
        let mut p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        assert!(p.apply_order(&[0]).is_err());
        assert!(p.apply_order(&[0, 0]).is_err());
        assert!(p.apply_order(&[0, 2]).is_err());
        assert!(p.apply_order(&[1, 0]).is_ok());
    }

    #[test]
    fn optimizer_modes_agree_on_results() {
        let q = Query::from_tables([("R", "R"), ("S", "S"), ("T", "T")])
            .filter(col("R.a").eq(col("S.a")))
            .filter(col("S.c").eq(col("T.c")))
            .select([col("R.b"), col("T.d")]);
        let cat = catalog();
        let mut expected = None;
        for mode in [
            crate::optimizer::OptimizerMode::Off,
            crate::optimizer::OptimizerMode::On,
            crate::optimizer::OptimizerMode::Exhaustive,
        ] {
            let cfg = ExecConfig { optimizer: mode, ..ExecConfig::default() };
            let mut res = execute_query(&q, &cat, &cfg).unwrap();
            let rows = res.rows().to_vec();
            match &expected {
                None => expected = Some(rows),
                Some(e) => assert_eq!(&rows, e, "mode {mode}"),
            }
        }
    }

    #[test]
    fn explain_with_actuals_prints_estimate_table() {
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .select([col("R.b"), col("S.c")]);
        let cat = catalog();
        let cfg = ExecConfig::default();
        let mut p = PhysicalQuery::plan(&q, &cat).unwrap();
        crate::optimizer::optimize(&mut p, &cat, &cfg).unwrap();
        let d = p.decision().expect("optimizer ran");
        assert_eq!(d.steps.len(), 2);
        let dry = p.explain_with_actuals(None);
        assert!(dry.contains("est rows"), "{dry}");
        assert!(dry.contains('—'), "actuals dashed before the run: {dry}");
        let mut res = p.execute(&cat, &cfg).unwrap();
        res.rows();
        let report = res.report().expect("distributed run has a report");
        let counts = report.input_counts.clone();
        let wet = p.explain_with_actuals(Some(report));
        assert!(wet.contains("actual rows"), "{wet}");
        assert!(!counts.is_empty(), "driver counts per-relation input");
        for c in &counts {
            assert!(wet.contains(&c.to_string()), "actual {c} rendered: {wet}");
        }
    }
}
