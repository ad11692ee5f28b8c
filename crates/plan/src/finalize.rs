//! The finalize node: HAVING, the projection, ORDER BY and LIMIT — run on
//! the result stream (or in a view's sink), not as a component of its own.

use squall_common::{DataType, Field, Result, Schema, SquallError, Tuple, Value};
use squall_core::operators::Finalizer;
use squall_expr::{AggFunc, ScalarExpr};

use crate::aggregate::{AggOutput, Aggregate};
use crate::logical::{Expr, Query};
use crate::physical::{Node, Scope};

#[derive(Debug, Clone)]
pub(crate) struct Finalize {
    /// HAVING over the aggregate's rows; `None` without one.
    pub(crate) having: Option<ScalarExpr>,
    /// The SELECT list over the aggregate's rows, or the join output.
    pub(crate) project: Vec<ScalarExpr>,
    pub(crate) schema: Schema,
    /// ORDER BY keys as `(output column, descending)` pairs.
    pub(crate) order_by: Vec<(usize, bool)>,
    pub(crate) limit: Option<usize>,
}

impl Finalize {
    /// Lower the answer over the aggregate's output, else over the join
    /// output `joined`. ORDER BY names output columns (alias or item).
    pub(crate) fn lower(
        q: &Query,
        aggregate: Option<(&Aggregate, AggOutput)>,
        joined: &Scope,
    ) -> Result<Finalize> {
        // Nominal types: results carry their real ones.
        let select = q
            .select
            .iter()
            .map(|(e, name)| {
                Field::new(name.clone().unwrap_or_else(|| display_name(e)), DataType::Float)
            })
            .collect();
        let (project, having, fields) = match aggregate {
            Some((agg, (project, having))) => (project, having, agg.output_fields(select)),
            None if !q.having.is_empty() => {
                return Err(SquallError::InvalidPlan(
                    "HAVING requires aggregation (GROUP BY or aggregate SELECT items)".into(),
                ))
            }
            None => {
                let project =
                    q.select.iter().map(|(e, _)| joined.scalar(e)).collect::<Result<_>>()?;
                (project, None, select)
            }
        };
        let mut order_by = Vec::with_capacity(q.order_by.len());
        for key in &q.order_by {
            let mut hits = fields.iter().enumerate().filter(|(_, f)| f.name == key.column);
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
        Ok(Finalize {
            having,
            project,
            schema: Schema::new(fields),
            order_by,
            limit: q.limit.map(|n| n as usize),
        })
    }

    /// The engine-side finalizer, with a full-history global aggregate's
    /// raw zero-rows row: `COUNT` = 0, `NULL` sums and averages. A
    /// per-window global aggregate over zero rows has no windows, hence no
    /// rows.
    pub(crate) fn finalizer(&self, aggregate: Option<&Aggregate>) -> Finalizer {
        let global = aggregate.filter(|a| a.group_cols.is_empty() && !a.windowed);
        let empty = global.map(|a| {
            let zero = |func| if func == AggFunc::Count { Value::Int(0) } else { Value::Null };
            Tuple::new(a.aggs.iter().map(|s| zero(s.func)).collect::<Vec<_>>())
        });
        Finalizer { having: self.having.clone(), project: self.project.clone(), empty }
    }

    /// Does the answer need every row first (ORDER BY or LIMIT)?
    pub(crate) fn is_ordered(&self) -> bool {
        !self.order_by.is_empty() || self.limit.is_some()
    }

    /// The materialized-result ordering contract: ORDER BY keys in
    /// sequence (descending keys reversed), every tie — and the
    /// no-ORDER-BY case — broken by whole-row ascending order so results
    /// stay deterministic; then LIMIT truncates.
    pub(crate) fn order(&self, rows: &mut Vec<Tuple>) {
        if self.order_by.is_empty() {
            rows.sort();
        } else {
            rows.sort_by(|a, b| {
                for &(c, desc) in &self.order_by {
                    let ord = a.get(c).cmp(b.get(c));
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord.is_ne() {
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

    /// Follow a relation reorder (projection over the join output).
    pub(crate) fn apply_order(&mut self, remap: &dyn Fn(usize) -> usize) {
        for e in &mut self.project {
            *e = e.remap_columns(remap);
        }
    }

    /// The explain line; the finalizer has no topology component.
    pub(crate) fn node(&self) -> Node {
        let name = |c: usize| self.schema.field(c).name.as_str();
        let select: Vec<&str> = (0..self.schema.arity()).map(name).collect();
        let mut line = format!("finalize: select [{}]", select.join(", "));
        if let Some(h) = &self.having {
            line.push_str(&format!(", having: {h}"));
        }
        if self.is_ordered() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|&(c, desc)| format!("{}{}", name(c), if desc { " DESC" } else { "" }))
                .collect();
            line.push_str(&format!(", order/limit: [{}]", keys.join(", ")));
            if let Some(n) = self.limit {
                line.push_str(&format!(", limit {n}"));
            }
        }
        Node { entries: Vec::new(), lines: vec![line] }
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

#[cfg(test)]
mod tests {
    use squall_common::{tuple, SquallError};
    use squall_expr::AggFunc;

    use crate::logical::{agg, col, lit};
    use crate::physical::{execute_query, ExecConfig, PhysicalQuery};
    use crate::tests::{catalog, stream_catalog};
    use crate::Query;

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
        assert!(
            p.explain(&ExecConfig::default(), None).contains("order/limit"),
            "{}",
            p.explain(&ExecConfig::default(), None)
        );
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
}
