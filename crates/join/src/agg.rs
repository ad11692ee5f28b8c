//! Aggregation operators: SUM, COUNT, AVG with GROUP BY (§2: "we currently
//! support sum, count and average aggregates").
//!
//! A [`GroupByAggregator`] folds rows into groups, each with a signed
//! weight: the aggregates are *subtractable*, so a retraction is a fold of
//! weight −1 and a group whose counts all reach zero goes. They are also
//! *mergeable*: a group's raw accumulators ship as a partial row
//! ([`GroupByAggregator::drain_partials`]) that another aggregator folds in
//! ([`GroupByAggregator::merge_partial`]), so an aggregate can be computed
//! where its inputs are produced and summed downstream (DBSP's linearity of
//! aggregation). A fold and a merge may file their group under a key
//! prefix, so one aggregator keeps many sets of groups apart — every window
//! of a windowed aggregate — and a sorted drain
//! ([`GroupByAggregator::drain_rows`]) hands out the finished rows of the
//! sets that are done, in key order. `Int` arithmetic is checked: a count
//! or sum that leaves `i64` is a typed error, never a wrapped value.
//!
//! The groups live in one flat table, stored the way [`crate::views::View`]
//! stores rows: the keys back to back in one slab, each group's
//! accumulators back to back in a second, a free list of emptied slots and
//! a posting table from key hash to slot. A fold first checks the slot the
//! last fold took (the results of one arrival often share their group),
//! else hashes the key straight from the prefix and the row's group
//! columns and checks it against the slot in place; each aggregate's input
//! is compiled once, at
//! [`GroupByAggregator::new`]: COUNT reads nothing and a bare column is
//! read by reference, so folding a row builds no key and no input value,
//! and once the slabs have grown, a new group allocates nothing either.

use squall_common::codec::{self, Reader, Wire};
use squall_common::{Chunk, Result, SquallError, Tuple, Value};
use squall_expr::{AggFunc, ScalarExpr};

use crate::views::{key_hash, Filed, Postings};
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

/// Where one aggregate reads its input from a row, compiled from its
/// [`AggSpec`] once.
#[derive(Debug)]
enum Input {
    /// COUNT reads nothing.
    Nothing,
    /// A bare column, read in place.
    Column(usize),
    /// Any other expression, evaluated per row.
    Expr(ScalarExpr),
    /// A SUM or AVG with no input: a typed error at the first fold.
    Missing(AggFunc),
}

impl Input {
    fn compile(spec: &AggSpec) -> Input {
        match (spec.func, &spec.input) {
            (AggFunc::Count, _) => Input::Nothing,
            (_, Some(ScalarExpr::Column(c))) => Input::Column(*c),
            (_, Some(e)) => Input::Expr(e.clone()),
            (func, None) => Input::Missing(func),
        }
    }
}

fn needs_input(func: AggFunc) -> SquallError {
    SquallError::InvalidPlan(format!("{func:?} needs an input"))
}

/// The group table: slot `id`'s key is `keys[id * width..][..width]` and
/// its accumulators `states[id * n_aggs..][..n_aggs]`, one per aggregate.
#[derive(Debug, Default)]
struct Groups {
    /// Values per key, fixed by the first key filed into a table with no
    /// slots.
    width: usize,
    n_aggs: usize,
    keys: Vec<Value>,
    states: Vec<AggState>,
    /// Whether slot `id` holds a group; an empty one is listed in `free`,
    /// and its stale key is under no posting.
    live: Vec<bool>,
    free: Vec<u32>,
    /// Key hash → the slots filed under it.
    postings: Postings,
    /// The slot [`Groups::slot`] returned last, checked before the
    /// postings: the results of one arrival often share their group.
    last: usize,
}

impl Groups {
    fn key(&self, id: usize) -> &[Value] {
        &self.keys[id * self.width..][..self.width]
    }

    fn states(&self, id: usize) -> &[AggState] {
        &self.states[id * self.n_aggs..][..self.n_aggs]
    }

    fn states_mut(&mut self, id: usize) -> &mut [AggState] {
        &mut self.states[id * self.n_aggs..][..self.n_aggs]
    }

    /// The groups' slots, in slab order.
    fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.live.len()).filter(|&id| self.live[id])
    }

    /// The slots of the groups whose key passes `take`, by key.
    fn sorted(&self, mut take: impl FnMut(&[Value]) -> bool) -> Vec<usize> {
        let mut ids: Vec<usize> = self.ids().filter(|&id| take(self.key(id))).collect();
        ids.sort_unstable_by(|&a, &b| self.key(a).cmp(self.key(b)));
        ids
    }

    /// The slot of group `key`, if there is one.
    fn find(&self, key: &[Value]) -> Option<usize> {
        let ids = self.postings.get(key_hash(key.iter()));
        ids.iter().map(|&id| id as usize).find(|&id| self.key(id) == key)
    }

    /// The slot of group `prefix ++ tail`, filed with fresh accumulators —
    /// into an emptied slot when there is one — if new.
    fn slot<'a>(
        &mut self,
        prefix: &'a [Value],
        tail: impl ExactSizeIterator<Item = &'a Value> + Clone,
    ) -> Result<usize> {
        let (lead, len) = (prefix.len(), prefix.len() + tail.len());
        let key = || prefix.iter().chain(tail.clone());
        if self.live.is_empty() {
            self.width = len;
        } else if len != self.width {
            return Err(SquallError::Runtime(format!(
                "a group key of {len} values in a table of {}-value keys",
                self.width
            )));
        }
        let (keys, width) = (&self.keys, self.width);
        let is_key = |id: usize| {
            let (head, rest) = keys[id * width..][..width].split_at(lead);
            head == prefix && rest.iter().eq(tail.clone())
        };
        if self.live.get(self.last) == Some(&true) && is_key(self.last) {
            return Ok(self.last);
        }
        let new = match self.free.last() {
            Some(&id) => id,
            None => u32::try_from(self.live.len())
                .map_err(|_| SquallError::Runtime("a group table of 2^32 groups".into()))?,
        };
        // With a new id to file, a lookup that matches nothing files it.
        let is_key = |id: u32| is_key(id as usize);
        if let Filed::Found(id) = self.postings.find_or_file(key_hash(key()), is_key, Some(new)) {
            self.last = id as usize;
            return Ok(self.last);
        }
        let id = new as usize;
        self.last = id;
        if self.free.pop().is_some() {
            for (at, v) in self.keys[id * width..][..width].iter_mut().zip(key()) {
                at.clone_from(v);
            }
            self.states_mut(id).fill(AggState::new());
            self.live[id] = true;
        } else {
            self.keys.extend(key().cloned());
            self.states.resize(self.states.len() + self.n_aggs, AggState::new());
            self.live.push(true);
        }
        Ok(id)
    }

    /// Empty slot `id`.
    fn release(&mut self, id: usize) {
        let hash = key_hash(self.key(id).iter());
        self.postings.remove(hash, id as u32);
        self.live[id] = false;
        self.free.push(id as u32);
    }

    /// Empty slot `id` if a fold has taken every count in it to zero, so
    /// that retraction-heavy windows don't leak.
    fn settle(&mut self, id: usize) {
        if self.states(id).iter().all(|s| s.count == 0) {
            self.release(id);
        }
    }
}

/// Hash GROUP BY over signed folds and merged partials.
#[derive(Debug)]
pub struct GroupByAggregator {
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    /// Each aggregate's input, compiled from `aggs`.
    inputs: Vec<Input>,
    /// The fewest columns a folded row may have: one past the last group
    /// column or bare input column.
    reads: usize,
    groups: Groups,
    /// One partial or finished row, reused from group to group by
    /// [`GroupByAggregator::drain_partials`] and
    /// [`GroupByAggregator::drain_rows`].
    row: Vec<Value>,
}

impl GroupByAggregator {
    /// `group_cols` may be empty (a single global group).
    pub fn new(group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> GroupByAggregator {
        assert!(!aggs.is_empty(), "at least one aggregate");
        let inputs: Vec<Input> = aggs.iter().map(Input::compile).collect();
        let columns = inputs.iter().filter_map(|i| match i {
            Input::Column(c) => Some(c),
            _ => None,
        });
        let reads = group_cols.iter().chain(columns).map(|c| c + 1).max().unwrap_or(0);
        let groups = Groups { n_aggs: aggs.len(), ..Groups::default() };
        GroupByAggregator { group_cols, aggs, inputs, reads, groups, row: Vec::new() }
    }

    /// Fold `weight` copies of one borrowed row in (a negative weight
    /// retracts them); a group the fold empties is dropped. The key and
    /// the inputs are read from the row in place, so only a new group
    /// allocates, and only while the table grows.
    pub fn fold_row(&mut self, row: &[Value], weight: i64) -> Result<()> {
        self.fold_row_under(&[], row, weight)
    }

    /// [`GroupByAggregator::fold_row`] into the group `prefix ++ group key`:
    /// one aggregator keeps many sets of groups apart — a join task's
    /// partials per window-start range, a shard's or a view's groups per
    /// window — at the cost of one slot per key, not one aggregator per
    /// set. Every key of one aggregator is of one width.
    pub fn fold_row_under(&mut self, prefix: &[Value], row: &[Value], weight: i64) -> Result<()> {
        if row.len() < self.reads {
            return Err(SquallError::InvalidPlan(format!(
                "column {} out of range for arity {}",
                self.reads - 1,
                row.len()
            )));
        }
        let GroupByAggregator { group_cols, inputs, groups, .. } = self;
        let id = groups.slot(prefix, group_cols.iter().map(|&c| &row[c]))?;
        let folded =
            groups.states_mut(id).iter_mut().zip(inputs.iter()).try_for_each(|(st, input)| {
                match input {
                    Input::Nothing => st.add(None, weight),
                    Input::Column(c) => st.add(Some(&row[*c]), weight),
                    Input::Expr(e) => st.add(Some(&e.eval(row)?), weight),
                    Input::Missing(func) => Err(needs_input(*func)),
                }
            });
        groups.settle(id);
        folded
    }

    /// Fold a whole chunk in, each row once, read in place, through
    /// [`GroupByAggregator::fold_row`].
    ///
    /// `on_row`, when given, receives each row's group as it stands after
    /// the fold — the row's group columns followed by the aggregate values,
    /// a group the fold emptied reading as fresh (`COUNT` 0, `NULL`
    /// averages) — in input order: the online emission of incremental view
    /// maintenance. Pass `None` to build no output rows.
    pub fn update_chunk(
        &mut self,
        chunk: &Chunk,
        mut on_row: Option<&mut dyn FnMut(Tuple)>,
    ) -> Result<()> {
        for row in chunk.iter() {
            self.fold_row(row, 1)?;
            if let Some(emit) = on_row.as_mut() {
                let mut out: Vec<Value> = self.group_cols.iter().map(|&c| row[c].clone()).collect();
                match self.groups.find(&out) {
                    Some(id) => self.values_into(id, &mut out),
                    None => out.extend(self.aggs.iter().map(|a| AggState::new().value(a.func))),
                }
                emit(Tuple::new(out));
            }
        }
        Ok(())
    }

    /// Append slot `id`'s aggregate values to `row`.
    fn values_into(&self, id: usize, row: &mut Vec<Value>) {
        row.extend(self.groups.states(id).iter().zip(&self.aggs).map(|(st, a)| st.value(a.func)));
    }

    /// Read group `key`'s output row — the key followed by the aggregate
    /// values — into `row` (cleared first); `false`, with `row` left empty,
    /// when there is no such group.
    pub fn group_into(&self, key: &[Value], row: &mut Vec<Value>) -> bool {
        row.clear();
        let Some(id) = self.groups.find(key) else { return false };
        row.extend_from_slice(key);
        self.values_into(id, row);
        true
    }

    /// Snapshot all groups (deterministic order: sorted by key).
    pub fn snapshot(&self) -> Vec<Tuple> {
        let rows = self.groups.sorted(|_| true).into_iter().map(|id| {
            let mut row = self.groups.key(id).to_vec();
            self.values_into(id, &mut row);
            Tuple::new(row)
        });
        rows.collect()
    }

    /// Every group's key, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = &[Value]> {
        self.groups.ids().map(|id| self.groups.key(id))
    }

    pub fn n_groups(&self) -> usize {
        self.groups.live.len() - self.groups.free.len()
    }

    /// Remove every group whose key passes `take` and hand `emit` its
    /// finished row — the key, a prefix included, then the aggregate
    /// values — in key order: a window-prefixed table's closed windows
    /// come out window by window, each window's groups sorted. The emptied
    /// slots are retaken by later groups.
    pub fn drain_rows(
        &mut self,
        take: impl FnMut(&[Value]) -> bool,
        mut emit: impl FnMut(&[Value]),
    ) {
        let mut row = std::mem::take(&mut self.row);
        for id in self.groups.sorted(take) {
            row.clear();
            row.extend_from_slice(self.groups.key(id));
            self.values_into(id, &mut row);
            emit(&row);
            self.groups.release(id);
        }
        self.row = row;
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
        let GroupByAggregator { aggs, groups, row, .. } = self;
        for id in 0..groups.live.len() {
            if !groups.live[id] || !take(groups.key(id)) {
                continue;
            }
            let states = groups.states(id);
            row.clear();
            row.extend_from_slice(groups.key(id));
            row.push(Value::Int(states[0].count));
            for (st, a) in states.iter().zip(aggs.iter()) {
                if a.func != AggFunc::Count {
                    let other = if st.all_int { Value::Null } else { Value::Float(st.float_sum) };
                    row.extend([Value::Int(st.int_sum), other]);
                }
            }
            emit(row, states[0].count.max(0) as u64);
            groups.release(id);
        }
    }

    /// Merge one partial row — a [`GroupByAggregator::drain_partials`] row
    /// without its prefix — into its group under `prefix`, as
    /// [`GroupByAggregator::fold_row_under`] files a fold, with the same
    /// checked `Int` arithmetic as a fold; a merged group is kept even at
    /// count zero. A row of another shape is a typed error (it may come
    /// off the wire).
    pub fn merge_partial(&mut self, prefix: &[Value], row: &[Value]) -> Result<()> {
        let g = self.group_cols.len();
        let width = g + 1 + 2 * self.aggs.iter().filter(|a| a.func != AggFunc::Count).count();
        if row.len() != width {
            return Err(SquallError::Runtime(format!(
                "a partial aggregate row of {} columns, not {width}",
                row.len()
            )));
        }
        let typed = |e: SquallError| SquallError::Runtime(e.to_string());
        let count = row[g].as_int().map_err(typed)?;
        let mut sums = row[g + 1..].chunks_exact(2);
        let id = self.groups.slot(prefix, row[..g].iter())?;
        for (st, a) in self.groups.states_mut(id).iter_mut().zip(&self.aggs) {
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
        let ids = self.groups.sorted(|_| true);
        codec::put_u32(buf, ids.len() as u32);
        for id in ids {
            Value::put_run(self.groups.key(id), buf);
            let states = self.groups.states(id);
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
        self.groups = Groups { n_aggs: self.aggs.len(), ..Groups::default() };
        let n_groups = r.len()?;
        for _ in 0..n_groups {
            let key = Value::get_run(r)?;
            let n_states = r.len()?;
            if n_states != self.aggs.len() {
                return Err(SquallError::Runtime(format!(
                    "a snapshot group of {n_states} aggregates, not {}",
                    self.aggs.len()
                )));
            }
            let id = self.groups.slot(&[], key.iter())?;
            for st in self.groups.states_mut(id) {
                *st = AggState {
                    count: r.i64()?,
                    int_sum: r.i64()?,
                    float_sum: r.f64()?,
                    all_int: r.bool()?,
                };
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::ALL_KEYS_COLLIDE;
    use squall_common::{tuple, SplitMix64};
    use squall_expr::BinOp;
    use std::collections::BTreeMap;

    /// Group `key`'s output row, which must exist.
    fn group(agg: &GroupByAggregator, key: &[Value]) -> Tuple {
        let mut row = Vec::new();
        assert!(agg.group_into(key, &mut row), "no group {key:?}");
        Tuple::new(row)
    }

    #[test]
    fn global_count_and_sum() {
        let mut agg = GroupByAggregator::new(vec![], vec![AggSpec::count(), AggSpec::sum_col(0)]);
        agg.fold_row(&tuple![10], 1).unwrap();
        agg.fold_row(&tuple![5], 1).unwrap();
        assert_eq!(group(&agg, &[]), tuple![2, 15]);
    }

    #[test]
    fn group_by_key() {
        let mut agg = GroupByAggregator::new(vec![0], vec![AggSpec::sum_col(1)]);
        agg.fold_row(&tuple!["a", 1], 1).unwrap();
        agg.fold_row(&tuple!["b", 10], 1).unwrap();
        agg.fold_row(&tuple!["a", 2], 1).unwrap();
        assert_eq!(group(&agg, &[Value::str("a")]), tuple!["a", 3]);
        let snap = agg.snapshot();
        assert_eq!(snap, vec![tuple!["a", 3], tuple!["b", 10]]);
        assert_eq!(agg.n_groups(), 2);
    }

    #[test]
    fn avg_mixes_ints_and_floats() {
        let mut agg = GroupByAggregator::new(vec![], vec![AggSpec::avg(ScalarExpr::col(0))]);
        agg.fold_row(&tuple![1], 1).unwrap();
        agg.fold_row(&tuple![2.0], 1).unwrap();
        agg.fold_row(&tuple![3], 1).unwrap();
        assert_eq!(group(&agg, &[]), tuple![2.0]);
    }

    #[test]
    fn sum_of_expression() {
        // SUM(2 * col1) — aggregates take expressions, not just columns
        // (TPC-H revenue-style aggregates).
        let e = ScalarExpr::bin(BinOp::Mul, ScalarExpr::lit(2), ScalarExpr::col(1));
        let mut agg = GroupByAggregator::new(vec![0], vec![AggSpec::sum(e)]);
        agg.fold_row(&tuple![1, 10], 1).unwrap();
        agg.fold_row(&tuple![1, 5], 1).unwrap();
        assert_eq!(group(&agg, &[Value::Int(1)]), tuple![1, 30]);
    }

    #[test]
    fn retraction_inverts_and_drops_empty_groups() {
        let mut agg = GroupByAggregator::new(vec![0], vec![AggSpec::count(), AggSpec::sum_col(1)]);
        agg.fold_row(&tuple![7, 100], 1).unwrap();
        agg.fold_row(&tuple![7, 50], 1).unwrap();
        agg.fold_row(&tuple![7, 100], -1).unwrap();
        assert_eq!(group(&agg, &[Value::Int(7)]), tuple![7, 1, 50]);
        agg.fold_row(&tuple![7, 50], -1).unwrap();
        assert_eq!(agg.n_groups(), 0, "empty groups must not leak");
    }

    #[test]
    fn integer_sums_stay_integer() {
        let mut agg = GroupByAggregator::new(vec![], vec![AggSpec::sum_col(0)]);
        for i in 0..100i64 {
            agg.fold_row(&tuple![i], 1).unwrap();
        }
        assert_eq!(agg.snapshot()[0], tuple![4950]);
    }

    #[test]
    fn avg_of_empty_group_is_null_after_retractions() {
        let mut agg = GroupByAggregator::new(vec![], vec![AggSpec::avg(ScalarExpr::col(0))]);
        agg.fold_row(&tuple![4], 1).unwrap();
        agg.fold_row(&tuple![4], -1).unwrap();
        assert!(!agg.group_into(&[], &mut Vec::new()), "the emptied group is gone");
        // A chunk's fold that empties its group emits the group as fresh.
        agg.fold_row(&tuple![4], -1).unwrap();
        let mut rows = Vec::new();
        agg.update_chunk(&Chunk::from_tuples(&[tuple![4]]), Some(&mut |r| rows.push(r))).unwrap();
        assert_eq!(rows, vec![tuple![Value::Null]]);
        assert_eq!(agg.n_groups(), 0);
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
        // The merges file under the prefix the partials carry.
        let rows = [(1, tuple![1, 4], 2), (2, tuple![2, 7], 1), (0, tuple![1, 1.5], 3)];
        let mut whole = GroupByAggregator::new(vec![0], specs());
        let mut merged = GroupByAggregator::new(vec![0], specs());
        let mut parts: Vec<GroupByAggregator> =
            (0..3).map(|_| GroupByAggregator::new(vec![0], specs())).collect();
        for (part, row, weight) in &rows {
            whole.fold_row_under(&[Value::Int(-1)], row, *weight).unwrap();
            parts[*part].fold_row_under(&[Value::Int(-1)], row, *weight).unwrap();
        }
        let mut shipped = 0;
        for part in &mut parts {
            part.drain_partials(
                |key| key[1] == Value::Int(1),
                |partial, folded| {
                    assert_eq!(partial[0], Value::Int(-1), "the prefix is kept");
                    shipped += folded;
                    merged.merge_partial(&partial[..1], &partial[1..]).unwrap();
                },
            );
        }
        assert_eq!(shipped, 5, "each partial counts the rows it folded");
        assert_eq!(parts.iter().map(|p| p.n_groups()).sum::<usize>(), 1, "group 2 stays");
        parts[2].drain_partials(
            |_| true,
            |partial, _| merged.merge_partial(&partial[..1], &partial[1..]).unwrap(),
        );
        assert_eq!(merged.snapshot(), whole.snapshot());
        assert_eq!(merged.snapshot()[0], tuple![-1, 1, 5, 12.5, 6.25, 2.5]);
        assert!(merged.merge_partial(&[], &[Value::Int(1)]).is_err(), "a mis-shaped partial");
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
        merged.merge_partial(&[], &[Value::Int(1), Value::Int(1), Value::Null]).unwrap();
        let mut max = sum();
        max.fold_row(&[Value::Int(i64::MAX)], 1).unwrap();
        max.drain_partials(|_| true, |row, _| assert!(overflowed(merged.merge_partial(&[], row))));
        let chunk = Chunk::from_tuples(&[tuple![i64::MAX], tuple![1]]);
        assert!(overflowed(sum().update_chunk(&chunk, None)), "the chunk path");
    }

    /// One key value of the model check's domain: every kind a key may
    /// hold, with `Int(1)` and `Float(1.0)` equal values, so one key.
    fn key_cell(i: usize) -> Value {
        [Value::Null, Value::Int(1), Value::Float(1.0), Value::str("k"), Value::Float(2.5)][i % 5]
            .clone()
    }

    /// COUNT, a bare-column SUM and AVG, and a SUM of an expression, over
    /// rows `(g0, g1, v)` grouped by `(g0, g1)`.
    fn model_specs() -> Vec<AggSpec> {
        let twice = ScalarExpr::bin(BinOp::Mul, ScalarExpr::lit(2), ScalarExpr::col(2));
        vec![
            AggSpec::count(),
            AggSpec::sum_col(2),
            AggSpec::avg(ScalarExpr::col(2)),
            AggSpec::sum(twice),
        ]
    }

    /// A group table and the `BTreeMap` it must agree with.
    struct Modeled {
        agg: GroupByAggregator,
        model: BTreeMap<Vec<Value>, Vec<AggState>>,
    }

    impl Modeled {
        fn new() -> Modeled {
            Modeled {
                agg: GroupByAggregator::new(vec![0, 1], model_specs()),
                model: BTreeMap::new(),
            }
        }

        /// The model's `fold_row_under`: a group whose counts reach zero
        /// goes.
        fn fold(&mut self, prefix: &[Value], row: &[Value], weight: i64) {
            self.agg.fold_row_under(prefix, row, weight).unwrap();
            let key: Vec<Value> = prefix.iter().chain(&row[..2]).cloned().collect();
            let states = self.model.entry(key.clone()).or_insert_with(|| vec![AggState::new(); 4]);
            let doubled = Value::Float(2.0 * row[2].as_float().unwrap());
            let doubled = if let Value::Int(v) = row[2] { Value::Int(2 * v) } else { doubled };
            for (st, input) in
                states.iter_mut().zip([None, Some(&row[2]), Some(&row[2]), Some(&doubled)])
            {
                st.add(input, weight).unwrap();
            }
            if states.iter().all(|s| s.count == 0) {
                self.model.remove(&key);
            }
        }

        /// The model's `merge_partial`: a group is kept even at count zero.
        fn merge(&mut self, key: &[Value], parts: &[AggState]) {
            let states = self.model.entry(key.to_vec()).or_insert_with(|| vec![AggState::new(); 4]);
            for (st, part) in states.iter_mut().zip(parts) {
                st.merge(part).unwrap();
            }
        }

        /// Every face of the table against the model.
        fn check(&self, at: &str) {
            let (agg, model) = (&self.agg, &self.model);
            assert_eq!(agg.n_groups(), model.len(), "{at}: n_groups");
            let mut keys: Vec<Vec<Value>> = agg.keys().map(<[Value]>::to_vec).collect();
            keys.sort();
            assert_eq!(keys, model.keys().cloned().collect::<Vec<_>>(), "{at}: keys");
            let rows: Vec<Tuple> = model
                .iter()
                .map(|(key, states)| model_row(key, states, &agg.aggs).into())
                .collect();
            assert_eq!(agg.snapshot(), rows, "{at}: snapshot");
            let mut row = Vec::new();
            for expected in &rows {
                let key = &expected[..expected.arity() - 4];
                assert!(agg.group_into(key, &mut row), "{at}: group_into {key:?}");
                assert_eq!(row, expected.values(), "{at}: group_into");
            }
            let mut bytes = Vec::new();
            codec::put_u32(&mut bytes, model.len() as u32);
            for (key, states) in model {
                Value::put_run(key, &mut bytes);
                codec::put_u32(&mut bytes, states.len() as u32);
                for st in states {
                    codec::put_i64(&mut bytes, st.count);
                    codec::put_i64(&mut bytes, st.int_sum);
                    codec::put_f64(&mut bytes, st.float_sum);
                    codec::put_bool(&mut bytes, st.all_int);
                }
            }
            let mut blob = Vec::new();
            agg.snapshot_state(&mut blob);
            assert_eq!(blob, bytes, "{at}: blob bytes");
        }
    }

    /// Prints the seed of a group-table case that panics anywhere, so it
    /// replays with `check_group_table_seed(seed)`.
    struct Replay(u64);

    impl Drop for Replay {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("group table model check failed at seed {}", self.0);
            }
        }
    }

    /// The finished row of a model group: its key, then its values.
    fn model_row(key: &[Value], states: &[AggState], aggs: &[AggSpec]) -> Vec<Value> {
        let values = states.iter().zip(aggs).map(|(st, a)| st.value(a.func));
        key.iter().cloned().chain(values).collect()
    }

    /// One seed of the group-table model check: random folds into an
    /// upstream table under a prefix of `0` or `2` values, partials drained
    /// from it under random predicates and merged, under a prefix of `0` or
    /// `2` values of its own, into a downstream table (which folds rows and
    /// merges made-up partials of its own too), sorted drains of either
    /// table's finished rows, and snapshot → restore round trips, each table
    /// checked against its model after every step.
    fn check_group_table_seed(seed: u64) {
        let _replay = Replay(seed);
        let mut rng = SplitMix64::new(seed);
        ALL_KEYS_COLLIDE.with(|c| c.set(rng.next_below(2) == 1));
        let (lead, down_lead) = (2 * rng.next_below(2), 2 * rng.next_below(2));
        let (mut up, mut down) = (Modeled::new(), Modeled::new());
        for step in 0..rng.next_range(1, 120) {
            let at = format!("seed {seed}, step {step}");
            let cell = |rng: &mut SplitMix64, n: usize| key_cell(rng.next_below(n));
            let prefix: Vec<Value> = (0..lead).map(|_| cell(&mut rng, 2)).collect();
            let down_prefix: Vec<Value> = (0..down_lead).map(|_| cell(&mut rng, 2)).collect();
            let key = [cell(&mut rng, 4), cell(&mut rng, 4)];
            let v = match rng.next_below(3) {
                0 => Value::Float(rng.next_range(-4, 4) as f64 + 0.5),
                _ => Value::Int(rng.next_range(-5, 5)),
            };
            let weight = rng.next_range(1, 3) * if rng.next_below(2) == 0 { 1 } else { -1 };
            let row = [key[0].clone(), key[1].clone(), v];
            // A predicate on a key: its column `col` is (or is not) `probe`.
            let (col, probe, is) = (
                rng.next_below(lead.max(down_lead) + 2),
                cell(&mut rng, 5),
                rng.next_below(2) == 0,
            );
            let take = |key: &[Value]| (key.get(col) == Some(&probe)) == is;
            match rng.next_below(9) {
                0..=2 => up.fold(&prefix, &row, weight),
                3 => down.fold(&down_prefix, &row, weight),
                4 | 5 => {
                    // Drain the upstream groups `take` passes, merging each
                    // partial downstream.
                    let mut drained: BTreeMap<Vec<Value>, Vec<AggState>> =
                        up.model.extract_if(.., |key, _| take(key)).collect();
                    let gone: Vec<Vec<Value>> = drained.keys().cloned().collect();
                    // The downstream model merges in the order the table
                    // ships: the first partial of a group files its key,
                    // and `Int(1)` and `Float(1.0)` are one key.
                    up.agg.drain_partials(take, |partial, folded| {
                        let key = &partial[..lead + 2];
                        let states = drained.remove(key).expect("a drained group ships once");
                        let mut expected = key.to_vec();
                        expected.push(Value::Int(states[0].count));
                        for st in &states[1..] {
                            let other =
                                if st.all_int { Value::Null } else { Value::Float(st.float_sum) };
                            expected.extend([Value::Int(st.int_sum), other]);
                        }
                        assert_eq!(
                            (partial, folded),
                            (&expected[..], states[0].count.max(0) as u64)
                        );
                        down.agg.merge_partial(&down_prefix, &partial[lead..]).unwrap();
                        let down_key = [&down_prefix[..], &partial[lead..lead + 2]].concat();
                        down.merge(&down_key, &states);
                    });
                    assert!(drained.is_empty(), "{at}: groups left undrained");
                    let mut row = Vec::new();
                    assert!(!gone.iter().any(|key| up.agg.group_into(key, &mut row)), "{at}");
                }
                6 => {
                    // A partial of any count, zero included, and any sums.
                    let count = rng.next_range(-2, 2);
                    let mut partial = key.to_vec();
                    partial.push(Value::Int(count));
                    let mut parts = vec![AggState { count, ..AggState::new() }];
                    for _ in 1..4 {
                        let int_sum = rng.next_range(-9, 9);
                        let float =
                            (rng.next_below(2) == 0).then(|| rng.next_range(-4, 4) as f64 + 0.5);
                        partial
                            .extend([Value::Int(int_sum), float.map_or(Value::Null, Value::Float)]);
                        let (float_sum, all_int) = (float.unwrap_or(0.0), float.is_none());
                        parts.push(AggState { count, int_sum, float_sum, all_int });
                    }
                    down.agg.merge_partial(&down_prefix, &partial).unwrap();
                    down.merge(&[&down_prefix[..], &key[..]].concat(), &parts);
                }
                7 => {
                    // Drain the finished rows of the groups `take` passes,
                    // from either table: the model's, in key order.
                    let table = if rng.next_below(2) == 0 { &mut up } else { &mut down };
                    let drained: Vec<(Vec<Value>, Vec<AggState>)> =
                        table.model.extract_if(.., |key, _| take(key)).collect();
                    let expected: Vec<Vec<Value>> = (drained.iter())
                        .map(|(key, states)| model_row(key, states, &table.agg.aggs))
                        .collect();
                    let mut rows = Vec::new();
                    table.agg.drain_rows(take, |row| rows.push(row.to_vec()));
                    assert_eq!(rows, expected, "{at}: drained rows");
                    let mut row = Vec::new();
                    assert!(
                        !drained.iter().any(|(key, _)| table.agg.group_into(key, &mut row)),
                        "{at}: a drained group is left"
                    );
                }
                _ => {
                    for table in [&mut up, &mut down] {
                        let mut blob = Vec::new();
                        table.agg.snapshot_state(&mut blob);
                        let mut restored = GroupByAggregator::new(vec![0, 1], model_specs());
                        restored.restore_state(&mut Reader::new(&blob)).unwrap();
                        table.agg = restored;
                    }
                }
            }
            up.check(&format!("{at}, upstream"));
            down.check(&format!("{at}, downstream"));
        }
        ALL_KEYS_COLLIDE.with(|c| c.set(false));
    }

    #[test]
    fn group_table_model() {
        // More seeds in a release build (CI's "group table model check").
        for seed in 0..if cfg!(debug_assertions) { 300 } else { 5_000 } {
            check_group_table_seed(seed);
        }
    }
}
