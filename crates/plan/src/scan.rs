//! The scan node: a FROM relation's source component (§2) — pushed-down
//! selection, derived columns for expression join predicates (`2·R.B <
//! S.C` compares a derived column to `S.C`) and output-scheme pruning.
//! Its *original ⊕ derived* columns are the table's, then one per derived
//! expression; [`Scan::local`] is the one way into the pruned ones.

use std::sync::Arc;

use squall_common::{Array, ArrayBuilder, DataType, Field, Result, Schema, SquallError, Tuple};
use squall_expr::ScalarExpr;
use squall_partition::ColumnStats;
use squall_runtime::Source;

use crate::catalog::Catalog;
use crate::physical::Node;

/// Rows per block the pushed filter is evaluated over.
const BLOCK: usize = 1024;

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

    /// The relation as its spout reads it, in place: the rows of `data` the
    /// pushed filter keeps, their kept columns and their derived values,
    /// found in one pass that copies no row. The filter runs
    /// column-at-a-time over blocks of the columns it reads; a block whose
    /// outcome is not a NULL-free Int mask, or that fails, is redone row by
    /// row, so every row's outcome and the first error are the
    /// row-at-a-time ones.
    pub(crate) fn source(&self, data: &Arc<Vec<Tuple>>) -> Result<Source> {
        let whole = self.derived.is_empty() && self.kept.len() == self.columns.len();
        let cols = (!whole).then(|| self.kept.clone());
        let mut derived = Vec::new();
        let mut derive = |row: &Tuple| -> Result<()> {
            for d in &self.derived {
                derived.push(d.eval(row)?);
            }
            Ok(())
        };
        let Some(filter) = &self.filter else {
            data.iter().try_for_each(&mut derive)?;
            return Ok(Source::select(Arc::clone(data), None, cols, derived));
        };
        let mut refs = Vec::new();
        filter.referenced_columns(&mut refs);
        #[allow(clippy::expect_used)] // the remap asks only for the filter's own columns
        let slot = |c: usize| refs.iter().position(|&r| r == c).expect("a column the filter reads");
        let block_filter = filter.remap_columns(&slot);
        let mut columns: Vec<ArrayBuilder> = refs.iter().map(|_| ArrayBuilder::new()).collect();
        let mut ids = Vec::new();
        for start in (0..data.len()).step_by(BLOCK) {
            let block = &data[start..data.len().min(start + BLOCK)];
            let mask = match block.iter().all(|row| refs.iter().all(|&c| c < row.arity())) {
                true => {
                    for row in block {
                        columns.iter_mut().zip(&refs).for_each(|(b, &c)| b.push(&row[c]));
                    }
                    let cols: Vec<Array> = columns.iter_mut().map(ArrayBuilder::finish).collect();
                    block_filter.eval_chunk(&cols, block.len())
                }
                false => Ok(Array::Null(0)),
            };
            let mask = match &mask {
                Ok(Array::Int(m)) if m.validity().is_none() => Some(m.values()),
                _ => None,
            };
            for (i, row) in block.iter().enumerate() {
                if mask.map_or_else(|| filter.eval_bool(row), |m| Ok(m[i] != 0))? {
                    derive(row)?;
                    ids.push(start + i);
                }
            }
        }
        Ok(Source::select(Arc::clone(data), Some(ids), cols, derived))
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
    use std::sync::Arc;

    use squall_common::{tuple, DataType, Result, Schema, SplitMix64, SquallError, Tuple, Value};
    use squall_expr::{AggFunc, BinOp, ScalarExpr};

    use super::Scan;

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

    /// What a scan's source must equal: filter → derive → project, one row
    /// at a time, stopping at the first error.
    fn naive(scan: &Scan, data: &[Tuple]) -> Result<Vec<Tuple>> {
        let mut out = Vec::new();
        for row in data {
            if let Some(f) = &scan.filter {
                if !f.eval_bool(row)? {
                    continue;
                }
            }
            let derived = scan.derived.iter().map(|d| d.eval(row)).collect::<Result<Vec<_>>>()?;
            let value = |c: usize| row.values().get(c).unwrap_or_else(|| &derived[c - row.arity()]);
            out.push(scan.kept.iter().map(|&c| value(c).clone()).collect());
        }
        Ok(out)
    }

    /// A random expression over `X(a, b, c, d)`: Int, Float, NULL and Str
    /// operands, so some rows compare Int with Float, some divide by zero to
    /// NULL and some do arithmetic on a string, which is an error.
    fn expr(rng: &mut SplitMix64, depth: usize) -> ScalarExpr {
        const OPS: [BinOp; 13] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::And,
            BinOp::Or,
        ];
        match rng.next_below(if depth == 0 { 2 } else { 6 }) {
            0 => ScalarExpr::col(rng.next_below(4)),
            1 => ScalarExpr::lit(
                [Value::Int(rng.next_range(-2, 8)), Value::Float(2.0), Value::Null]
                    [rng.next_below(3)]
                .clone(),
            ),
            2 => ScalarExpr::Not(Box::new(expr(rng, depth - 1))),
            _ => {
                let op = OPS[rng.next_below(OPS.len())];
                ScalarExpr::bin(op, expr(rng, depth - 1), expr(rng, depth - 1))
            }
        }
    }

    /// `X(a, b, c, d)`: `a` a small Int; `b` Int or an equal Float; `c` Int,
    /// Float or NULL, sometimes 0; `d` an Int, rarely a string. Enough rows
    /// to cross a filter block now and then.
    fn table(rng: &mut SplitMix64) -> Vec<Tuple> {
        (0..rng.next_below(2_600))
            .map(|_| {
                let b = rng.next_range(0, 9);
                let b = if rng.next_below(4) == 0 { Value::Float(b as f64) } else { Value::Int(b) };
                let c = match rng.next_below(5) {
                    0 => Value::Null,
                    1 => Value::Float(rng.next_f64() * 4.0),
                    _ => Value::Int(rng.next_range(0, 3)),
                };
                let d = match rng.next_below(400) {
                    0 => Value::str("x"),
                    _ => Value::Int(rng.next_range(-1, 50)),
                };
                Tuple::new(vec![Value::Int(rng.next_range(0, 9)), b, c, d])
            })
            .collect()
    }

    /// A source is the naive filter → derive → project over the same rows:
    /// the same rows, values and Value variants, or the same first error —
    /// and sorting it by event time matches sorting the naive rows.
    #[test]
    fn sources_match_the_row_at_a_time_scan() {
        let cols = ["a", "b", "c", "d"].map(|n| (n, DataType::Int));
        let schema = Schema::of(&cols).qualified("X");
        let (mut errors, mut kept) = (0, 0);
        for seed in 0..if cfg!(debug_assertions) { 300 } else { 3_000 } {
            let mut rng = SplitMix64::new(seed);
            let pushed = (0..rng.next_below(3)).map(|_| expr(&mut rng, 3)).collect();
            let derived = (0..rng.next_below(3)).map(|_| expr(&mut rng, 2)).collect();
            let needed = (0..4).filter(|_| rng.next_below(2) == 0).collect();
            let scan = Scan::lower(&("X".into(), "X".into()), &schema, pushed, derived, needed);
            let data = table(&mut rng);
            let source = scan.source(&Arc::new(data.clone()));
            let what = format!("seed {seed}: {scan:?}");
            match (naive(&scan, &data), &source) {
                (Ok(rows), Ok(src)) => {
                    assert_eq!(src.to_tuples(), rows, "{what}");
                    let same = |a: &Tuple, b: &Tuple| {
                        a.values()
                            .iter()
                            .zip(b.values())
                            .all(|(x, y)| format!("{x:?}") == format!("{y:?}"))
                    };
                    assert!(src.to_tuples().iter().zip(&rows).all(|(a, b)| same(a, b)), "{what}");
                    kept += rows.len();
                    // A window on a column other than the declared one.
                    let ts = rng.next_below(scan.kept.len());
                    let (mut sorted, mut src) = (rows, src.clone());
                    let (want, got) = (
                        squall_runtime::sort_by_event_time(&mut sorted, ts),
                        src.sort_by_event_time(ts),
                    );
                    assert_eq!(format!("{want:?}"), format!("{got:?}"), "{what}: sort by {ts}");
                    assert_eq!(src.to_tuples(), sorted, "{what}: sorted by {ts}");
                }
                (Err(want), Err(got)) => {
                    assert_eq!(format!("{want:?}"), format!("{got:?}"), "{what}");
                    errors += 1;
                }
                (want, got) => panic!("{what}: {want:?} vs {:?}", got.as_ref().map(|s| s.len())),
            }
        }
        assert!(errors > 10 && kept > 10_000, "{errors} erroring scans, {kept} rows kept");
    }
}
