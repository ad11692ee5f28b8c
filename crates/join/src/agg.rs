//! Aggregation operators: SUM, COUNT, AVG with GROUP BY (§2: "we currently
//! support sum, count and average aggregates").
//!
//! Squall's aggregates are *online*: every input updates the group state
//! and the operator can emit the refreshed row immediately (full-history
//! incremental view maintenance). All three aggregates are also
//! *subtractable*, which the sliding-window variants exploit.

use squall_common::array::Array;
use squall_common::codec::{self, Reader};
use squall_common::{Chunk, FxHashMap, Result, Tuple, Value};
use squall_expr::{AggFunc, ScalarExpr};

use crate::Snapshot;

/// One aggregate column: the function plus its input expression (COUNT
/// needs none).
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    pub input: Option<ScalarExpr>,
}

squall_common::wire_struct! { AggSpec { func, input } }

impl AggSpec {
    pub fn count() -> AggSpec {
        AggSpec { func: AggFunc::Count, input: None }
    }

    pub fn sum(expr: ScalarExpr) -> AggSpec {
        AggSpec { func: AggFunc::Sum, input: Some(expr) }
    }

    pub fn avg(expr: ScalarExpr) -> AggSpec {
        AggSpec { func: AggFunc::Avg, input: Some(expr) }
    }

    pub fn sum_col(col: usize) -> AggSpec {
        AggSpec::sum(ScalarExpr::col(col))
    }
}

/// Accumulated state of one aggregate within one group.
#[derive(Debug, Clone, Default)]
struct AggState {
    count: i64,
    int_sum: i64,
    float_sum: f64,
    all_int: bool,
}

impl AggState {
    fn new() -> AggState {
        AggState { count: 0, int_sum: 0, float_sum: 0.0, all_int: true }
    }

    fn add(&mut self, v: &Value, sign: i64) -> Result<()> {
        self.count += sign;
        match v {
            Value::Int(i) => self.int_sum += sign * i,
            _ => {
                self.all_int = false;
                self.float_sum += sign as f64 * v.as_float()?;
            }
        }
        Ok(())
    }

    fn sum_value(&self) -> Value {
        if self.all_int {
            Value::Int(self.int_sum)
        } else {
            Value::Float(self.int_sum as f64 + self.float_sum)
        }
    }

    fn value(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => self.sum_value(),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float((self.int_sum as f64 + self.float_sum) / self.count as f64)
                }
            }
        }
    }
}

/// Hash GROUP BY with online updates.
#[derive(Debug)]
pub struct GroupByAggregator {
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    groups: FxHashMap<Vec<Value>, Vec<AggState>>,
}

impl GroupByAggregator {
    /// `group_cols` may be empty (a single global group).
    pub fn new(group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> GroupByAggregator {
        assert!(!aggs.is_empty(), "at least one aggregate");
        GroupByAggregator { group_cols, aggs, groups: FxHashMap::default() }
    }

    /// Fold one tuple in and return the group's refreshed output row
    /// (group key columns followed by aggregate values) — the online
    /// emission of incremental view maintenance.
    pub fn update(&mut self, tuple: &Tuple) -> Result<Tuple> {
        self.apply(tuple, 1)
    }

    /// Retract one tuple (sliding windows).
    pub fn retract(&mut self, tuple: &Tuple) -> Result<Tuple> {
        self.apply(tuple, -1)
    }

    /// Fold a whole columnar chunk in. Aggregate input expressions are
    /// evaluated column-at-a-time over the chunk; only the group-key
    /// lookup and accumulator bump happen per row (the state boundary).
    ///
    /// `on_row`, when given, receives each group's refreshed output row in
    /// input order — exactly what per-row [`GroupByAggregator::update`]
    /// returns (online emission). Pass `None` for final-mode aggregation
    /// to skip building output rows entirely, which per-row updates cannot
    /// avoid.
    pub fn update_chunk(
        &mut self,
        chunk: &Chunk,
        mut on_row: Option<&mut dyn FnMut(Tuple)>,
    ) -> Result<()> {
        let mut inputs: Vec<Option<Array>> = Vec::with_capacity(self.aggs.len());
        for a in &self.aggs {
            inputs.push(match &a.input {
                Some(e) => Some(e.eval_chunk(chunk)?),
                None => None,
            });
        }
        for i in 0..chunk.n_rows() {
            let key: Vec<Value> =
                self.group_cols.iter().map(|&c| chunk.column(c).value(i)).collect();
            let states = self
                .groups
                .entry(key.clone())
                .or_insert_with(|| vec![AggState::new(); self.aggs.len()]);
            for (st, (a, input)) in states.iter_mut().zip(self.aggs.iter().zip(&inputs)) {
                match a.func {
                    AggFunc::Count => st.count += 1,
                    _ => st.add(&input.as_ref().expect("sum/avg need an input").value(i), 1)?,
                }
            }
            // Insertions never empty a group, so no empty-group sweep here
            // (unlike `apply` with sign = -1).
            if let Some(emit) = on_row.as_mut() {
                let mut row = key;
                for (st, a) in states.iter().zip(&self.aggs) {
                    row.push(st.value(a.func));
                }
                emit(Tuple::new(row));
            }
        }
        Ok(())
    }

    /// Fold one row in from *precomputed* values — the group key and one
    /// input value per aggregate (`None` for COUNT) — without building an
    /// output row. This is the columnar windowed-insert kernel: the caller
    /// evaluates agg inputs and key columns column-at-a-time over a chunk
    /// and folds each row into (possibly several) window states, so no
    /// per-row [`Tuple`] and no expression re-evaluation per window.
    pub fn accumulate(&mut self, key: &[Value], inputs: &[Option<Value>]) -> Result<()> {
        debug_assert_eq!(key.len(), self.group_cols.len());
        debug_assert_eq!(inputs.len(), self.aggs.len());
        // Borrow-first: the owned key Vec is only allocated on the first
        // row of a new group.
        let states = match self.groups.get_mut(key) {
            Some(s) => s,
            None => self
                .groups
                .entry(key.to_vec())
                .or_insert_with(|| vec![AggState::new(); self.aggs.len()]),
        };
        for (st, (a, input)) in states.iter_mut().zip(self.aggs.iter().zip(inputs)) {
            match a.func {
                AggFunc::Count => st.count += 1,
                _ => st.add(input.as_ref().expect("sum/avg need an input"), 1)?,
            }
        }
        Ok(())
    }

    fn apply(&mut self, tuple: &Tuple, sign: i64) -> Result<Tuple> {
        let key = tuple.key(&self.group_cols);
        // Evaluate inputs before borrowing the state mutably.
        let mut inputs = Vec::with_capacity(self.aggs.len());
        for a in &self.aggs {
            inputs.push(match &a.input {
                Some(e) => Some(e.eval(tuple)?),
                None => None,
            });
        }
        let states = self
            .groups
            .entry(key.clone())
            .or_insert_with(|| vec![AggState::new(); self.aggs.len()]);
        for (st, (a, input)) in states.iter_mut().zip(self.aggs.iter().zip(&inputs)) {
            match a.func {
                AggFunc::Count => st.count += sign,
                _ => st.add(input.as_ref().expect("sum/avg need an input"), sign)?,
            }
        }
        let mut row = key;
        for (st, a) in states.iter().zip(&self.aggs) {
            row.push(st.value(a.func));
        }
        // Drop empty groups so retraction-heavy windows don't leak.
        if states[0].count == 0 && states.iter().all(|s| s.count == 0) {
            let key2 = tuple.key(&self.group_cols);
            self.groups.remove(&key2);
        }
        Ok(Tuple::new(row))
    }

    /// Current value of one group.
    pub fn group(&self, key: &[Value]) -> Option<Tuple> {
        self.groups.get(key).map(|states| {
            let mut row: Vec<Value> = key.to_vec();
            for (st, a) in states.iter().zip(&self.aggs) {
                row.push(st.value(a.func));
            }
            Tuple::new(row)
        })
    }

    /// Snapshot all groups (deterministic order: sorted by key).
    pub fn snapshot(&self) -> Vec<Tuple> {
        let mut keys: Vec<&Vec<Value>> = self.groups.keys().collect();
        keys.sort();
        keys.into_iter().map(|k| self.group(k).expect("key exists")).collect()
    }

    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }
}

impl Snapshot for GroupByAggregator {
    /// Raw accumulators per group: AVG is not invertible from published
    /// rows, so the state ships as-is. Groups are sorted by key so equal
    /// state means equal bytes.
    fn snapshot_state(&self, buf: &mut Vec<u8>) {
        let mut keys: Vec<&Vec<Value>> = self.groups.keys().collect();
        keys.sort();
        codec::put_u32(buf, keys.len() as u32);
        for key in keys {
            codec::put_tuple(buf, &Tuple::new(key.clone()));
            let states = &self.groups[key];
            codec::put_u32(buf, states.len() as u32);
            for st in states {
                codec::put_i64(buf, st.count);
                codec::put_i64(buf, st.int_sum);
                codec::put_f64(buf, st.float_sum);
                codec::put_bool(buf, st.all_int);
            }
        }
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        self.groups.clear();
        let n_groups = r.len()?;
        for _ in 0..n_groups {
            let key = codec::get_tuple(r)?.values().to_vec();
            let n_states = r.len()?;
            let mut states = Vec::with_capacity(n_states);
            for _ in 0..n_states {
                states.push(AggState {
                    count: r.i64()?,
                    int_sum: r.i64()?,
                    float_sum: r.f64()?,
                    all_int: r.bool()?,
                });
            }
            self.groups.insert(key, states);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::tuple;
    use squall_expr::BinOp;

    #[test]
    fn global_count_and_sum() {
        let mut agg = GroupByAggregator::new(vec![], vec![AggSpec::count(), AggSpec::sum_col(0)]);
        agg.update(&tuple![10]).unwrap();
        let row = agg.update(&tuple![5]).unwrap();
        assert_eq!(row, tuple![2, 15]);
    }

    #[test]
    fn group_by_key() {
        let mut agg = GroupByAggregator::new(vec![0], vec![AggSpec::sum_col(1)]);
        agg.update(&tuple!["a", 1]).unwrap();
        agg.update(&tuple!["b", 10]).unwrap();
        let row = agg.update(&tuple!["a", 2]).unwrap();
        assert_eq!(row, tuple!["a", 3]);
        let snap = agg.snapshot();
        assert_eq!(snap, vec![tuple!["a", 3], tuple!["b", 10]]);
        assert_eq!(agg.n_groups(), 2);
    }

    #[test]
    fn avg_mixes_ints_and_floats() {
        let mut agg = GroupByAggregator::new(vec![], vec![AggSpec::avg(ScalarExpr::col(0))]);
        agg.update(&tuple![1]).unwrap();
        agg.update(&tuple![2.0]).unwrap();
        let row = agg.update(&tuple![3]).unwrap();
        assert_eq!(row, tuple![2.0]);
    }

    #[test]
    fn sum_of_expression() {
        // SUM(2 * col1) — aggregates take expressions, not just columns
        // (TPC-H revenue-style aggregates).
        let e = ScalarExpr::bin(BinOp::Mul, ScalarExpr::lit(2), ScalarExpr::col(1));
        let mut agg = GroupByAggregator::new(vec![0], vec![AggSpec::sum(e)]);
        agg.update(&tuple![1, 10]).unwrap();
        let row = agg.update(&tuple![1, 5]).unwrap();
        assert_eq!(row, tuple![1, 30]);
    }

    #[test]
    fn retraction_inverts_and_drops_empty_groups() {
        let mut agg = GroupByAggregator::new(vec![0], vec![AggSpec::count(), AggSpec::sum_col(1)]);
        agg.update(&tuple![7, 100]).unwrap();
        agg.update(&tuple![7, 50]).unwrap();
        let row = agg.retract(&tuple![7, 100]).unwrap();
        assert_eq!(row, tuple![7, 1, 50]);
        agg.retract(&tuple![7, 50]).unwrap();
        assert_eq!(agg.n_groups(), 0, "empty groups must not leak");
    }

    #[test]
    fn integer_sums_stay_integer() {
        let mut agg = GroupByAggregator::new(vec![], vec![AggSpec::sum_col(0)]);
        for i in 0..100i64 {
            agg.update(&tuple![i]).unwrap();
        }
        assert_eq!(agg.snapshot()[0], tuple![4950]);
    }

    #[test]
    fn accumulate_matches_update() {
        // The precomputed-inputs kernel must leave identical state to the
        // per-row update path (snapshot is byte-comparable: sorted keys).
        let specs = || {
            vec![
                AggSpec::count(),
                AggSpec::sum(ScalarExpr::bin(BinOp::Mul, ScalarExpr::lit(2), ScalarExpr::col(1))),
                AggSpec::avg(ScalarExpr::col(1)),
            ]
        };
        let mut by_update = GroupByAggregator::new(vec![0], specs());
        let mut by_accumulate = GroupByAggregator::new(vec![0], specs());
        for (k, v) in [(1i64, 10i64), (2, 20), (1, 5), (3, 7), (2, 1)] {
            let t = tuple![k, v];
            by_update.update(&t).unwrap();
            let key = [Value::Int(k)];
            let inputs = [None, Some(Value::Int(2 * v)), Some(Value::Int(v))];
            by_accumulate.accumulate(&key, &inputs).unwrap();
        }
        assert_eq!(by_update.snapshot(), by_accumulate.snapshot());
    }

    #[test]
    fn avg_of_empty_group_is_null_after_retractions() {
        let mut agg = GroupByAggregator::new(vec![], vec![AggSpec::avg(ScalarExpr::col(0))]);
        agg.update(&tuple![4]).unwrap();
        let row = agg.retract(&tuple![4]).unwrap();
        assert_eq!(row, tuple![Value::Null]);
    }
}
