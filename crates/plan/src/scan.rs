//! The scan node: a FROM relation's source component (§2) — pushed-down
//! selection, derived columns for expression join predicates (`2·R.B <
//! S.C` compares a derived column to `S.C`) and output-scheme pruning.
//! Its *original ⊕ derived* columns are the table's, then one per derived
//! expression; [`Scan::local`] is the one way into the pruned ones.

use squall_common::{DataType, Field, Result, Schema, SquallError, Tuple};
use squall_expr::ScalarExpr;
use squall_partition::ColumnStats;

use crate::catalog::Catalog;
use crate::physical::Node;

/// One resolved, optimized source.
#[derive(Debug, Clone)]
pub(crate) struct Scan {
    pub(crate) name: String,
    pub(crate) alias: String,
    /// Pushed-down predicate over the *original* table schema.
    pub(crate) filter: Option<ScalarExpr>,
    /// Derived columns appended after the original columns, over the
    /// original schema.
    pub(crate) derived: Vec<ScalarExpr>,
    /// Columns kept: the needed original ones sorted, then every derived.
    pub(crate) kept: Vec<usize>,
    /// The projected, qualified schema fed to the join.
    pub(crate) schema: Schema,
    /// Qualified names of every original ⊕ derived column, pruned or not.
    columns: Vec<String>,
}

impl Scan {
    /// Lower FROM relation `name AS alias` (qualified `schema`).
    pub(crate) fn lower(
        (name, alias): &(String, String),
        schema: &Schema,
        pushed: Vec<ScalarExpr>,
        derived: Vec<ScalarExpr>,
        mut needed: Vec<usize>,
    ) -> Scan {
        needed.sort_unstable();
        needed.dedup();
        // A relation contributing no columns still needs one column to
        // exist as a stream; keep column 0.
        if needed.is_empty() && derived.is_empty() {
            needed.push(0);
        }
        let arity = schema.arity();
        let columns: Vec<String> = (0..arity)
            .map(|c| schema.field(c).name.clone())
            .chain((0..derived.len()).map(|k| format!("{alias}.$expr{k}")))
            .collect();
        let kept: Vec<usize> = needed.into_iter().chain(arity..columns.len()).collect();
        let fields = kept
            .iter()
            .map(|&c| {
                if c < arity {
                    schema.field(c).clone()
                } else {
                    Field::new(&columns[c], DataType::Int)
                }
            })
            .collect();
        Scan {
            name: name.clone(),
            alias: alias.clone(),
            filter: pushed.into_iter().reduce(ScalarExpr::and),
            derived,
            kept,
            schema: Schema::new(fields),
            columns,
        }
    }

    /// Column `c` among the pruned (join-input) columns, or the typed error
    /// naming the column pruning removed.
    pub(crate) fn local(&self, c: usize) -> Result<usize> {
        self.kept.iter().position(|&k| k == c).ok_or_else(|| SquallError::PrunedColumnReference {
            relation: self.alias.clone(),
            column: self.column_name(c),
        })
    }

    /// Column `c`'s qualified name.
    pub(crate) fn column_name(&self, c: usize) -> String {
        self.columns.get(c).cloned().unwrap_or_else(|| format!("#{c}"))
    }

    /// The ANALYZE statistics of pruned column `local` — `None` for a
    /// derived column, which no statistics describe, or an unanalyzed table.
    pub(crate) fn column_stats<'c>(
        &self,
        catalog: &'c Catalog,
        local: usize,
    ) -> Option<&'c ColumnStats> {
        let source = |&&c: &&usize| c < self.columns.len() - self.derived.len();
        catalog.stats(&self.name)?.column(*self.kept.get(local).filter(source)?)
    }

    /// Apply the pushed filter, derived columns and projection.
    pub(crate) fn prepare(&self, data: &[Tuple]) -> Result<Vec<Tuple>> {
        // Keeping every original column and deriving none: the row as is.
        let whole = self.derived.is_empty() && self.kept.len() == self.columns.len();
        let mut out = Vec::with_capacity(data.len());
        for tuple in data {
            if let Some(f) = &self.filter {
                if !f.eval_bool(tuple)? {
                    continue;
                }
            }
            if whole {
                out.push(tuple.clone());
                continue;
            }
            let arity = tuple.arity();
            let derived = self.derived.iter().map(|d| d.eval(tuple)).collect::<Result<Vec<_>>>()?;
            let value = |c: usize| if c < arity { tuple.get(c) } else { &derived[c - arity] };
            out.push(self.kept.iter().map(|&c| value(c).clone()).collect());
        }
        Ok(out)
    }

    /// Estimated post-filter rows: the row count scaled by the filter's
    /// selectivity over a bounded prefix sample (2 000 rows).
    pub(crate) fn estimated_rows(&self, catalog: &Catalog) -> Result<f64> {
        let data = &catalog.get(&self.name)?.data;
        let n = data.len();
        let Some(f) = &self.filter else {
            return Ok(n as f64);
        };
        let sample = n.min(2_000);
        if sample == 0 {
            return Ok(0.0);
        }
        // An erroring predicate row counts as filtered, mirroring execution
        // where it fails the run — estimation stays total.
        let pass = data.iter().take(sample).filter(|t| f.eval_bool(t).unwrap_or(false)).count();
        Ok(n as f64 * pass as f64 / sample as f64)
    }

    /// The scan's spout in the topology and its explain line.
    pub(crate) fn node(&self) -> Node {
        let name = format!("src-{}", self.alias);
        let keep: Vec<&str> = self.schema.fields().iter().map(|f| f.name.as_str()).collect();
        let mut line =
            format!("{name} ×1: {} as {}, keep [{}]", self.name, self.alias, keep.join(", "));
        if let Some(f) = &self.filter {
            line.push_str(&format!(", filter {f}"));
        }
        if !self.derived.is_empty() {
            line.push_str(&format!(", derive {} expr(s)", self.derived.len()));
        }
        Node { entries: vec![(name, 1, true)], lines: vec![line] }
    }
}

#[cfg(test)]
mod tests {
    use squall_common::{tuple, SquallError};
    use squall_expr::{AggFunc, BinOp};

    use crate::logical::{agg, col, lit};
    use crate::physical::{execute_query, ExecConfig, PhysicalQuery};
    use crate::tests::catalog;
    use crate::Query;

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
    fn explain_mentions_pushdown() {
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")).and(col("R.b").gt(lit(15))))
            .select([col("S.c")]);
        let p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        let e = p.explain(&ExecConfig::default(), None);
        assert!(e.contains("filter"), "{e}");
        assert!(e.contains("join atoms"), "{e}");
    }

    #[test]
    fn output_scheme_prunes_columns() {
        // Only R.a (join key) and S.c (selected) are needed; R.b unused.
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .select([col("S.c")]);
        let p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        assert_eq!(p.scans[0].kept, vec![0], "R ships only the join key");
        assert_eq!(p.scans[1].kept, vec![0, 1]);
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
        assert_eq!(p.scans[1].kept, vec![0, 1], "S.c shipped for the hidden SUM");
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
        p.join.atoms[0].left_col = 1; // R.b, pruned from R's scan
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
}
