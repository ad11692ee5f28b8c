//! A query's answer: the handle over a launched run's live, finalized row
//! stream, or over rows already materialized.

use squall_common::{Schema, SquallError, Tuple};
use squall_core::driver::{JoinReport, MultiwayStream};
use squall_core::operators::Finalizer;

/// A query's answer: one handle serving both access patterns.
///
/// * **Materialized** — [`ResultSet::rows`] waits for completion and
///   returns every row, sorted for determinism. This is what
///   [`PhysicalQuery::execute`](crate::PhysicalQuery::execute) produces.
/// * **Streaming** — `ResultSet` is an [`Iterator`] over result rows;
///   with [`PhysicalQuery::execute_stream`](crate::PhysicalQuery::execute_stream)
///   the rows are yielded *while the topology runs*, in production order,
///   without buffering them.
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
    Stream(Box<LiveRun>),
}

/// A launched run whose sink rows are filtered by HAVING and projected into
/// SELECT order one by one as they arrive.
struct LiveRun {
    run: MultiwayStream,
    finalizer: Finalizer,
    /// Engine rows seen (pre-HAVING): the synthetic empty-aggregate row
    /// only applies when the aggregation itself produced nothing, not
    /// when HAVING filtered everything out.
    saw_rows: bool,
}

impl ResultSet {
    /// A result set over already-materialized rows — how view-lifecycle
    /// statements (which have no topology run of their own to stream)
    /// return snapshots and shutdown reports through the same API as
    /// queries.
    pub fn materialized(schema: Schema, rows: Vec<Tuple>, report: Option<JoinReport>) -> ResultSet {
        ResultSet { schema, inner: ResultsInner::Rows { rows, cursor: 0 }, report, guard: None }
    }

    /// A live result over a launched run, finalized row by row.
    pub(crate) fn streaming(
        schema: Schema,
        run: MultiwayStream,
        finalizer: Finalizer,
    ) -> ResultSet {
        let live = LiveRun { run, finalizer, saw_rows: false };
        ResultSet { schema, inner: ResultsInner::Stream(Box::new(live)), report: None, guard: None }
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
            // `materialize` leaves no live stream.
            ResultsInner::Stream(_) => &[],
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
    /// failures as `Err` from
    /// [`PhysicalQuery::execute`](crate::PhysicalQuery::execute) instead.
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
        self.materialize_by(|rows| rows.sort());
    }

    /// Run a live stream to completion and keep its rows not yet yielded,
    /// in the order `order` leaves them. A no-op on a materialized result.
    pub(crate) fn materialize_by(&mut self, order: impl FnOnce(&mut Vec<Tuple>)) {
        if self.is_streaming() {
            let mut rows = self.by_ref().collect();
            order(&mut rows);
            self.inner = ResultsInner::Rows { rows, cursor: 0 };
        }
    }

    /// End the live run — `cancel`led by a row that failed to finalize,
    /// else finished — keeping its report; the result stops being live.
    /// Returns the synthetic zero-rows row of a global aggregate, if due.
    fn end_run(&mut self, failed: Option<SquallError>) -> Option<Tuple> {
        let done = ResultsInner::Rows { rows: Vec::new(), cursor: 0 };
        let ResultsInner::Stream(live) = std::mem::replace(&mut self.inner, done) else {
            return None;
        };
        self.guard = None; // the run is over; release the catalog
        let mut report = match failed {
            Some(_) => live.run.cancel(),
            None => live.run.finish(),
        };
        let mut last = None;
        if let Some(e) = failed {
            report.error.get_or_insert(e);
        } else if report.error.is_none() && !live.saw_rows {
            // The run is complete: a projection error goes on its report.
            match live.finalizer.empty_row() {
                Ok(row) => last = row,
                Err(e) => report.error = Some(e),
            }
        }
        self.report = Some(report);
        last
    }
}

/// Streaming access: yields each result row exactly once. In streaming
/// mode rows arrive in production order while the topology runs; in
/// materialized mode this walks the sorted row buffer.
impl Iterator for ResultSet {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        loop {
            let live = match &mut self.inner {
                ResultsInner::Rows { rows, cursor } => {
                    let row = rows.get(*cursor)?.clone();
                    *cursor += 1;
                    return Some(row);
                }
                ResultsInner::Stream(live) => live,
            };
            let Some(row) = live.run.next() else { return self.end_run(None) };
            live.saw_rows = true;
            match live.finalizer.row(&row) {
                Ok(None) => continue,
                Ok(Some(t)) => return Some(t),
                // A row-processing error poisons the run: abort it and
                // surface the error through the report.
                Err(e) => return self.end_run(Some(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use squall_common::{tuple, Tuple};
    use squall_expr::{AggFunc, ScalarExpr};

    use crate::logical::{agg, col};
    use crate::physical::{ExecConfig, PhysicalQuery};
    use crate::tests::catalog;
    use crate::Query;

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
    fn mid_stream_failures_are_err_materialized_and_error_streaming() {
        // Every distributed answer is the drained stream, so a failure
        // inside it — wherever it is raised — has one face per call:
        // `Err` from `execute`, `ResultSet::error()` from the live stream.
        let join = |q: Query| q.filter(col("R.a").eq(col("S.a")));
        // A SELECT item addressing a column past the join output: the
        // finalizer fails on the first row it projects.
        let spj = join(Query::from_tables([("R", "R"), ("S", "S")])).select([col("S.c")]);
        let mut finalizer_fails = PhysicalQuery::plan(&spj, &catalog()).unwrap();
        finalizer_fails.finalize.project[0] = ScalarExpr::col(99);
        // An aggregate input the fold cannot sum (a column past the join
        // output is a plan error since the plan check reads aggregate
        // inputs): the aggregation fails mid-run, inside the topology.
        let grouped = join(Query::from_tables([("R", "R"), ("S", "S")]))
            .group_by([col("R.a")])
            .select([col("R.a"), agg(AggFunc::Sum, Some(col("S.c")))]);
        let mut operator_fails = PhysicalQuery::plan(&grouped, &catalog()).unwrap();
        operator_fails.aggregate.as_mut().unwrap().aggs[0].input = Some(ScalarExpr::lit("x"));

        for (what, p) in [("finalizer", finalizer_fails), ("operator", operator_fails)] {
            let err = p.execute(&catalog(), &ExecConfig::default()).expect_err(what);
            let mut rs = p.execute_stream(&catalog(), &ExecConfig::default()).unwrap();
            assert!(rs.is_streaming(), "{what}");
            assert_eq!(rs.by_ref().count(), 0, "{what}: no row survives the failure");
            assert_eq!(rs.error(), Some(&err), "{what}");
        }
    }
}
