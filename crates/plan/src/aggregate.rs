//! The aggregate node: GROUP BY keys and aggregates over the join output,
//! sharded by group hash. Windowed, it emits `(window_start, window_end,
//! group…, agg…)` rows behind an ordered merge — a mode, not a node.

use squall_common::{DataType, Field, Result, SquallError};
use squall_core::driver::AggPlan;
use squall_expr::{AggFunc, ScalarExpr};
use squall_join::AggSpec;

use crate::logical::{Expr, Query};
use crate::physical::{ExecConfig, Node, Scope};

#[derive(Debug, Clone)]
pub(crate) struct Aggregate {
    /// GROUP BY columns in join-output coordinates.
    pub(crate) group_cols: Vec<usize>,
    /// Every distinct call of SELECT and HAVING (hidden HAVING-only ones
    /// included), inputs in join-output coordinates.
    pub(crate) aggs: Vec<AggSpec>,
    pub(crate) windowed: bool,
}

/// The projection and HAVING over an aggregate's rows.
pub(crate) type AggOutput = (Vec<ScalarExpr>, Option<ScalarExpr>);

impl Aggregate {
    /// Lower GROUP BY, SELECT and HAVING over the join output `joined`.
    pub(crate) fn lower(
        q: &Query,
        joined: &Scope,
        windowed: bool,
    ) -> Result<(Aggregate, AggOutput)> {
        let group_cols = q
            .group_by
            .iter()
            .map(|e| match e {
                Expr::Col(n) => joined.resolve(n),
                _ => Err(SquallError::InvalidPlan("GROUP BY supports plain columns".into())),
            })
            .collect::<Result<Vec<usize>>>()?;
        let mut agg = Aggregate { group_cols, aggs: Vec::new(), windowed };
        let mut project: Vec<ScalarExpr> = agg.bounds().map(ScalarExpr::col).collect();
        for (e, _) in &q.select {
            if !matches!(e, Expr::Agg { .. } | Expr::Col(_)) {
                return Err(SquallError::InvalidPlan(
                    "aggregate queries select columns or aggregates".into(),
                ));
            }
            project.push(agg.row_scalar(e, joined)?);
        }
        let mut having: Option<ScalarExpr> = None;
        for e in &q.having {
            let s = agg.row_scalar(e, joined)?;
            having = Some(match having {
                None => s,
                Some(prev) => ScalarExpr::and(prev, s),
            });
        }
        if agg.aggs.is_empty() {
            return Err(SquallError::InvalidPlan(
                "GROUP BY without aggregates is not supported".into(),
            ));
        }
        Ok((agg, (project, having)))
    }

    /// A SELECT item or HAVING clause over the rows this node emits: a
    /// bare column must be a GROUP BY key; an aggregate call is its column
    /// — an equal one already in `aggs`, else a new one appended (from
    /// HAVING alone, a *hidden* column: filtered on, never projected).
    fn row_scalar(&mut self, e: &Expr, joined: &Scope) -> Result<ScalarExpr> {
        let keys = &self.group_cols;
        let aggs = &mut self.aggs;
        let row = e.lower(
            &mut |n| {
                let c = joined.resolve(n)?;
                let key = keys.iter().position(|&g| g == c).ok_or_else(|| {
                    SquallError::InvalidPlan(format!(
                        "column {n} must appear in GROUP BY (or inside an aggregate)"
                    ))
                })?;
                Ok(ScalarExpr::col(key))
            },
            &mut |func, arg| {
                let input = match (func, arg.map(|a| joined.scalar(a)).transpose()?) {
                    (AggFunc::Count, _) => None, // COUNT ignores its argument
                    (_, Some(a)) => Some(a),
                    (f, None) => {
                        return Err(SquallError::InvalidPlan(format!("{f} needs an argument")))
                    }
                };
                let idx = aggs.iter().position(|s| s.func == func && s.input == input);
                let idx = idx.unwrap_or_else(|| {
                    aggs.push(AggSpec { func, input });
                    aggs.len() - 1
                });
                Ok(ScalarExpr::col(keys.len() + idx))
            },
        )?;
        Ok(row.remap_columns(&|c| self.shift(c)))
    }

    /// Column `c` of the rows this node emits, behind the window bounds a
    /// windowed aggregate prepends. Only the output shifts: the aggregate
    /// reads its inputs in join-output coordinates in both planes.
    fn shift(&self, c: usize) -> usize {
        if self.windowed {
            c + 2
        } else {
            c
        }
    }

    /// The prepended window-bound columns (none without a window).
    fn bounds(&self) -> std::ops::Range<usize> {
        0..self.shift(0)
    }

    /// The answer's columns: `select` behind the window bounds.
    pub(crate) fn output_fields(&self, mut select: Vec<Field>) -> Vec<Field> {
        if self.windowed {
            let bounds = ["window_start", "window_end"].map(|n| Field::new(n, DataType::Int));
            select.splice(0..0, bounds);
        }
        select
    }

    /// The aggregation stage, on `parallelism` group-hash shards: the
    /// one-shot topology's, or a standing view's one sink task's.
    pub(crate) fn agg_plan(&self, parallelism: usize) -> AggPlan {
        AggPlan { group_cols: self.group_cols.clone(), aggs: self.aggs.clone(), parallelism }
    }

    /// Follow a relation reorder: `remap` moves a join-output column.
    pub(crate) fn apply_order(&mut self, remap: &dyn Fn(usize) -> usize) {
        for g in &mut self.group_cols {
            *g = remap(*g);
        }
        for a in &mut self.aggs {
            a.input = a.input.as_ref().map(|e| e.remap_columns(remap));
        }
    }

    /// The group-hash shards (and, per window, the merge sink restoring
    /// window order) and the explain line; `columns` names the join output.
    pub(crate) fn node(&self, cfg: &ExecConfig, columns: &[&str]) -> Node {
        let shards = cfg.agg_parallelism.max(1);
        let keys: Vec<&str> = self.group_cols.iter().map(|&c| columns[c]).collect();
        let mut line =
            format!("agg ×{shards}: group by [{}], {} agg(s)", keys.join(", "), self.aggs.len());
        let mut entries = vec![("agg".to_string(), shards, false)];
        if self.windowed {
            line.push_str(
                " — per window (window_start, window_end prepended), \
                 group-hash sharded + ordered window merge into agg-merge ×1",
            );
            entries.push(("agg-merge".into(), 1, false));
        }
        Node { entries, lines: vec![line] }
    }
}

#[cfg(test)]
mod tests {
    use squall_common::{tuple, DataType, Schema, Tuple, Value};
    use squall_expr::AggFunc;

    use crate::logical::{agg, col, lit};
    use crate::physical::{execute_query, execute_query_stream, ExecConfig, PhysicalQuery};
    use crate::tests::{catalog, stream_catalog};
    use crate::{Catalog, Query};

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
    fn non_grouped_column_rejected() {
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .group_by([col("R.a")])
            .select([col("R.b"), agg(AggFunc::Count, None)]);
        assert!(PhysicalQuery::plan(&q, &catalog()).is_err());
    }

    #[test]
    fn windowed_group_by_emits_a_row_per_window() {
        use crate::logical::Window;
        // SELECT A.k, COUNT(*) … WINDOW TUMBLING 10 GROUP BY A.k.
        // In-window pairs: (1@0,1@8) → bucket 0; (2@20,2@25) → bucket 2.
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::tumbling(10))
            .group_by([col("A.k")])
            .select([col("A.k"), agg(AggFunc::Count, None)]);
        let p = PhysicalQuery::plan(&q, &stream_catalog()).unwrap();
        assert!(
            p.explain(&ExecConfig::default(), None).contains("per window"),
            "{}",
            p.explain(&ExecConfig::default(), None)
        );
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
        assert!(
            p.explain(&ExecConfig::default(), None).contains("having:"),
            "{}",
            p.explain(&ExecConfig::default(), None)
        );
        let mut res = p.execute(&catalog(), &ExecConfig::default()).unwrap();
        // SUM(S.c): a=2 → (100+150)·2 = 500 > 300; a=3 → 200.
        assert_eq!(res.rows(), vec![tuple![2]]);
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
}
