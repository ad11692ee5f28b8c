//! Aggregation operators: SUM, COUNT, AVG with GROUP BY (§2: "we currently
//! support sum, count and average aggregates").
//!
//! Squall's aggregates are *online*: every input updates the group state
//! and the operator can emit the refreshed row immediately (full-history
//! incremental view maintenance). All three aggregates are also
//! *subtractable*, which the sliding-window variants exploit, and
//! *mergeable*: a group's raw accumulators ship as a partial row
//! ([`GroupByAggregator::drain_partials`]) that another aggregator folds in
//! ([`GroupByAggregator::merge_partial`]), so an aggregate can be computed
//! where its inputs are produced and summed downstream (DBSP's linearity of
//! aggregation). `Int` arithmetic is checked: a count or sum that leaves
//! `i64` is a typed error, never a wrapped value.

use squall_common::array::Array;
use squall_common::codec::{self, Reader, Wire};
use squall_common::{Chunk, FxHashMap, Result, SquallError, Tuple, Value};
use squall_expr::{AggFunc, ScalarExpr};

use crate::Snapshot;

fn overflow() -> SquallError {
    SquallError::Runtime("integer overflow in a COUNT / SUM / AVG aggregate".into())
}

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

    /// Fold `weight` copies of one input in (`None`: COUNT reads none).
    fn add(&mut self, v: Option<&Value>, weight: i64) -> Result<()> {
        self.count = self.count.checked_add(weight).ok_or_else(overflow)?;
        match v {
            None => {}
            Some(Value::Int(i)) => {
                let delta = i.checked_mul(weight).ok_or_else(overflow)?;
                self.int_sum = self.int_sum.checked_add(delta).ok_or_else(overflow)?;
            }
            Some(v) => {
                self.all_int = false;
                self.float_sum += weight as f64 * v.as_float()?;
            }
        }
        Ok(())
    }

    /// Fold another accumulator of the same aggregate in.
    fn merge(&mut self, other: &AggState) -> Result<()> {
        self.count = self.count.checked_add(other.count).ok_or_else(overflow)?;
        self.int_sum = self.int_sum.checked_add(other.int_sum).ok_or_else(overflow)?;
        self.float_sum += other.float_sum;
        self.all_int &= other.all_int;
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

type Groups = FxHashMap<Vec<Value>, Vec<AggState>>;

/// Hash GROUP BY with online updates.
#[derive(Debug)]
pub struct GroupByAggregator {
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    groups: Groups,
    /// One row's group key and aggregate inputs, reused from row to row so
    /// that folding into an existing group allocates nothing.
    key: Vec<Value>,
    inputs: Vec<Option<Value>>,
    /// The key and states of each group [`GroupByAggregator::drain_partials`]
    /// shipped, kept for their capacity: a new group takes a pair from here
    /// before it allocates.
    spare: Spare,
}

type Spare = Vec<(Vec<Value>, Vec<AggState>)>;

impl GroupByAggregator {
    /// `group_cols` may be empty (a single global group).
    pub fn new(group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> GroupByAggregator {
        assert!(!aggs.is_empty(), "at least one aggregate");
        GroupByAggregator {
            group_cols,
            aggs,
            groups: FxHashMap::default(),
            key: Vec::new(),
            inputs: Vec::new(),
            spare: Vec::new(),
        }
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

    /// Fold `weight` copies of one borrowed row in (a negative weight
    /// retracts them); a group the fold empties is dropped. The row's key
    /// and inputs go through reused scratch, so only a new group allocates.
    pub fn fold_row(&mut self, row: &[Value], weight: i64) -> Result<()> {
        self.fold_row_under(&[], row, weight)
    }

    /// [`GroupByAggregator::fold_row`] into the group `prefix ++ group key`:
    /// one aggregator keeps many sets of groups apart — a join task's
    /// partials per window-start range — at the cost of one hash entry per
    /// key, not one aggregator per set.
    pub fn fold_row_under(&mut self, prefix: &[Value], row: &[Value], weight: i64) -> Result<()> {
        let GroupByAggregator { group_cols, aggs, groups, key, inputs, spare } = self;
        key.clear();
        key.extend_from_slice(prefix);
        key.extend(group_cols.iter().map(|&c| row[c].clone()));
        inputs.clear();
        for a in aggs.iter() {
            inputs.push(a.input.as_ref().map(|e| e.eval(row)).transpose()?);
        }
        Self::fold(groups, spare, aggs, key, inputs, weight)
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
            inputs.push(a.input.as_ref().map(|e| e.eval_chunk(chunk)).transpose()?);
        }
        let (mut key, mut vals) = (std::mem::take(&mut self.key), std::mem::take(&mut self.inputs));
        for i in 0..chunk.n_rows() {
            key.clear();
            key.extend(self.group_cols.iter().map(|&c| chunk.column(c).value(i)));
            vals.clear();
            vals.extend(inputs.iter().map(|a| a.as_ref().map(|arr| arr.value(i))));
            Self::fold(&mut self.groups, &mut self.spare, &self.aggs, &key, &vals, 1)?;
            if let Some(emit) = on_row.as_mut() {
                emit(self.current_row(&key));
            }
        }
        (self.key, self.inputs) = (key, vals);
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
        Self::fold(&mut self.groups, &mut self.spare, &self.aggs, key, inputs, 1)
    }

    /// The one fold: `weight` copies of a row, given as its group key and
    /// one input per aggregate, into its group. Borrow-first, so the owned
    /// key is only built for a new group, from `spare` when it has one; a
    /// group whose counts all reach zero is dropped, so retraction-heavy
    /// windows don't leak.
    fn fold(
        groups: &mut Groups,
        spare: &mut Spare,
        aggs: &[AggSpec],
        key: &[Value],
        inputs: &[Option<Value>],
        weight: i64,
    ) -> Result<()> {
        let states = match groups.get_mut(key) {
            Some(s) => s,
            None => {
                let (mut owned, mut states) = spare.pop().unwrap_or_default();
                owned.clear();
                owned.extend_from_slice(key);
                states.clear();
                states.resize(aggs.len(), AggState::new());
                groups.entry(owned).or_insert(states)
            }
        };
        for (st, (a, input)) in states.iter_mut().zip(aggs.iter().zip(inputs)) {
            let v = match (a.func, input) {
                (AggFunc::Count, _) => None,
                (_, Some(v)) => Some(v),
                (func, None) => {
                    return Err(SquallError::InvalidPlan(format!("{func:?} needs an input")))
                }
            };
            st.add(v, weight)?;
        }
        if states.iter().all(|s| s.count == 0) {
            groups.remove(key);
        }
        Ok(())
    }

    fn apply(&mut self, tuple: &Tuple, sign: i64) -> Result<Tuple> {
        self.fold_row(tuple, sign)?;
        Ok(self.current_row(&self.key))
    }

    /// `key`'s output row; a group that does not exist (or a retraction
    /// emptied) reads as fresh — `COUNT` 0, `NULL` averages.
    fn current_row(&self, key: &[Value]) -> Tuple {
        let fresh;
        let states = match self.groups.get(key) {
            Some(states) => states,
            None => {
                fresh = vec![AggState::new(); self.aggs.len()];
                &fresh
            }
        };
        let mut row = key.to_vec();
        row.extend(states.iter().zip(&self.aggs).map(|(st, a)| st.value(a.func)));
        Tuple::new(row)
    }

    /// Read group `key`'s output row into `row` (cleared first), the way
    /// [`GroupByAggregator::update`] returns it; `false`, with `row` left
    /// empty, when there is no such group.
    pub fn group_into(&self, key: &[Value], row: &mut Vec<Value>) -> bool {
        row.clear();
        let Some(states) = self.groups.get(key) else { return false };
        row.extend_from_slice(key);
        row.extend(states.iter().zip(&self.aggs).map(|(st, a)| st.value(a.func)));
        true
    }

    /// Snapshot all groups (deterministic order: sorted by key).
    pub fn snapshot(&self) -> Vec<Tuple> {
        let mut keys: Vec<&Vec<Value>> = self.groups.keys().collect();
        keys.sort();
        keys.into_iter().map(|k| self.current_row(k)).collect()
    }

    /// Every group's key, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = &[Value]> {
        self.groups.keys().map(Vec::as_slice)
    }

    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Remove every group whose key passes `take` and hand it to `emit` as
    /// a partial row, with the number of rows the group folded. A partial
    /// row is the key (a [`GroupByAggregator::fold_row_under`] prefix
    /// included), the group's row count — every aggregate counts the same
    /// rows — and for each SUM / AVG its raw sums: the `Int` inputs' sum and
    /// the other inputs' sum, `NULL` while there were none. These are the
    /// fields [`Snapshot`] writes; finished values would not do, as AVG
    /// merges only from its sum and count.
    pub fn drain_partials(
        &mut self,
        mut take: impl FnMut(&[Value]) -> bool,
        mut emit: impl FnMut(&[Value], u64),
    ) {
        let GroupByAggregator { aggs, groups, key: row, spare, .. } = self;
        for (key, states) in groups.extract_if(|key, _| take(key)) {
            row.clear();
            row.extend_from_slice(&key);
            row.push(Value::Int(states[0].count));
            for (st, a) in states.iter().zip(aggs.iter()) {
                if a.func != AggFunc::Count {
                    let other = if st.all_int { Value::Null } else { Value::Float(st.float_sum) };
                    row.extend([Value::Int(st.int_sum), other]);
                }
            }
            emit(row, states[0].count.max(0) as u64);
            spare.push((key, states));
        }
    }

    /// Merge one partial row — a [`GroupByAggregator::drain_partials`] row
    /// without its prefix — into its group, with the same checked `Int`
    /// arithmetic as a fold. A row of another shape is a typed error (it
    /// may come off the wire).
    pub fn merge_partial(&mut self, row: &[Value]) -> Result<()> {
        let g = self.group_cols.len();
        let width = g + 1 + 2 * self.aggs.iter().filter(|a| a.func != AggFunc::Count).count();
        if row.len() != width {
            return Err(SquallError::Runtime(format!(
                "a partial aggregate row of {} columns, not {width}",
                row.len()
            )));
        }
        let typed = |e: SquallError| SquallError::Runtime(e.to_string());
        let (key, count) = (&row[..g], row[g].as_int().map_err(typed)?);
        let mut sums = row[g + 1..].chunks_exact(2);
        let states = match self.groups.get_mut(key) {
            Some(s) => s,
            None => self
                .groups
                .entry(key.to_vec())
                .or_insert_with(|| vec![AggState::new(); self.aggs.len()]),
        };
        for (st, a) in states.iter_mut().zip(&self.aggs) {
            let mut part = AggState { count, ..AggState::new() };
            if let Some([int_sum, other]) =
                (a.func != AggFunc::Count).then(|| sums.next()).flatten()
            {
                part.int_sum = int_sum.as_int().map_err(typed)?;
                if *other != Value::Null {
                    (part.float_sum, part.all_int) = (other.as_float().map_err(typed)?, false);
                }
            }
            st.merge(&part)?;
        }
        Ok(())
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
            Value::put_run(key, buf);
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

    #[test]
    fn merged_partials_equal_one_fold_of_every_row() {
        // Rows split over three aggregators with weights, shipped as
        // partials and merged, must equal one aggregator that folded them
        // all: COUNT, an Int SUM, a Float SUM and an AVG over mixed inputs.
        let specs = || {
            vec![
                AggSpec::count(),
                AggSpec::sum_col(1),
                AggSpec::sum(ScalarExpr::bin(BinOp::Mul, ScalarExpr::lit(0.5), ScalarExpr::col(1))),
                AggSpec::avg(ScalarExpr::col(1)),
            ]
        };
        let rows = [(1, tuple![1, 4], 2), (2, tuple![2, 7], 1), (0, tuple![1, 1.5], 3)];
        let mut whole = GroupByAggregator::new(vec![0], specs());
        let mut merged = GroupByAggregator::new(vec![0], specs());
        let mut parts: Vec<GroupByAggregator> =
            (0..3).map(|_| GroupByAggregator::new(vec![0], specs())).collect();
        for (part, row, weight) in &rows {
            whole.fold_row(row, *weight).unwrap();
            parts[*part].fold_row_under(&[Value::Int(-1)], row, *weight).unwrap();
        }
        let mut shipped = 0;
        for part in &mut parts {
            part.drain_partials(
                |key| key[1] == Value::Int(1),
                |partial, folded| {
                    assert_eq!(partial[0], Value::Int(-1), "the prefix is kept");
                    shipped += folded;
                    merged.merge_partial(&partial[1..]).unwrap();
                },
            );
        }
        assert_eq!(shipped, 5, "each partial counts the rows it folded");
        assert_eq!(parts.iter().map(|p| p.n_groups()).sum::<usize>(), 1, "group 2 stays");
        parts[2]
            .drain_partials(|_| true, |partial, _| merged.merge_partial(&partial[1..]).unwrap());
        assert_eq!(merged.snapshot(), whole.snapshot());
        assert_eq!(merged.snapshot()[0], tuple![1, 5, 12.5, 6.25, 2.5]);
        assert!(merged.merge_partial(&[Value::Int(1)]).is_err(), "a mis-shaped partial");
    }

    #[test]
    fn int_overflow_is_a_typed_error() {
        let overflowed =
            |r: Result<()>| matches!(r, Err(SquallError::Runtime(m)) if m.contains("overflow"));
        let sum = || GroupByAggregator::new(vec![], vec![AggSpec::sum_col(0)]);
        let mut agg = sum();
        agg.fold_row(&[Value::Int(i64::MAX)], 1).unwrap();
        assert!(overflowed(agg.fold_row(&[Value::Int(1)], 1)), "a sum past i64::MAX");
        assert!(overflowed(sum().fold_row(&[Value::Int(i64::MAX)], 2)), "weight × value");
        assert!(overflowed(sum().fold_row(&[Value::Int(i64::MIN)], -1)), "−1 × i64::MIN");
        // Merging two partials that each fit.
        let mut merged = sum();
        merged.merge_partial(&[Value::Int(1), Value::Int(1), Value::Null]).unwrap();
        let mut max = sum();
        max.fold_row(&[Value::Int(i64::MAX)], 1).unwrap();
        max.drain_partials(|_| true, |row, _| assert!(overflowed(merged.merge_partial(row))));
        let chunk = Chunk::from_tuples(&[tuple![i64::MAX], tuple![1]]);
        assert!(overflowed(sum().update_chunk(&chunk, None)), "the columnar path");
    }
}
