//! Counted materialized views with hash indexes — the storage layer shared
//! by both local join algorithms.
//!
//! A view holds the (multiset) result of joining one subset of the input
//! relations; tuples carry multiplicities so duplicate inputs and window
//! deletions (negative deltas) are exact.
//!
//! Every distinct row is stored **once**, in a slab slot named by a `u32`
//! row id. The slab is one flat, arity-strided `Vec<Value>` — row `id` is
//! `vals[id * width..][..width]` — beside a `Vec<i64>` of multiplicities,
//! so storing a row copies its values in and allocates nothing per row
//! (rows arrive and leave as borrowed `&[Value]`). Each hash index — one
//! per distinct probe-key column set, plus the identity index over all
//! columns that answers "is this row stored?" — is a posting table: key
//! hash → the ids of the rows under it. The hash is folded straight from
//! the key columns (no key is ever built), and because unequal keys may
//! share a hash, every probe checks the key against the slab row. A
//! probe's matches come out in posting order, a pure function of the
//! update sequence. Probes with no equi columns scan the slab.
//!
//! An update looks its row up in the identity postings once: one map entry
//! both finds a stored equal row (whose multiplicity it moves) and, when
//! there is none, files the new row's slot — beside any unequal rows that
//! share the hash. Only the other indexes hash and file the row again.

use std::collections::hash_map::{Entry, OccupiedEntry};
use std::hash::{Hash, Hasher};

use squall_common::hash::FxHasher;
use squall_common::{FxHashMap, Value};

/// Names one stored row of one [`View`]. Stable until that row's
/// multiplicity reaches zero; the slot is then reused.
pub(crate) type RowId = u32;

/// A multiset of rows with optional hash indexes.
#[derive(Debug, Clone)]
pub struct View {
    /// Relations whose concatenation forms this view's rows (sorted).
    pub members: Vec<usize>,
    /// Column offset of each member inside a row.
    pub offsets: Vec<usize>,
    /// Columns per row.
    width: usize,
    /// The slab: row `id`'s values at `vals[id * width..][..width]`.
    vals: Vec<Value>,
    /// Row `id`'s multiplicity — always positive for a stored row; 0 marks
    /// a free slot (listed in `free`), whose stale values nothing indexes.
    mults: Vec<i64>,
    free: Vec<RowId>,
    /// `indexes[0]` is the identity index (all columns, in order).
    indexes: Vec<Index>,
    /// Σ multiplicities (stored tuple count).
    count: i64,
}

/// One hash index: key hash → ids of the rows whose `cols` have that hash.
#[derive(Debug, Clone)]
struct Index {
    cols: Vec<usize>,
    postings: Postings,
}

/// A posting table: hash → the ids filed under it. Unequal keys may share
/// a hash, so a reader checks each id it gets against what it names. The
/// indexes of a [`View`] are posting tables over row ids; the catalog
/// keeps one over a table's stored positions.
#[derive(Debug, Clone, Default)]
pub struct Postings {
    /// 16-byte entries: on a near-unique key domain the whole index.
    map: FxHashMap<u64, Ids>,
    /// The lists [`Ids::Many`] points into.
    lists: Vec<Vec<u32>>,
    /// Lists no hash uses any more, kept for their capacity.
    spare: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
enum Ids {
    One(u32),
    /// Once a second row shares the hash: the position of their list in
    /// `Postings::lists`.
    Many(u32),
}

/// What [`Postings::find_or_file`] did.
enum Filed {
    /// An id already filed matched.
    Found(u32),
    /// None matched, and the new id is filed.
    New(u32),
    /// None matched, and there was no new id to file.
    Absent,
}

impl Postings {
    /// The ids filed under `hash`.
    pub fn get(&self, hash: u64) -> &[u32] {
        match self.map.get(&hash) {
            None => &[],
            Some(Ids::One(id)) => std::slice::from_ref(id),
            Some(&Ids::Many(list)) => &self.lists[list as usize],
        }
    }

    /// File `id` under `hash`.
    pub fn insert(&mut self, hash: u64, id: u32) {
        match self.map.entry(hash) {
            Entry::Vacant(e) => {
                e.insert(Ids::One(id));
            }
            Entry::Occupied(e) => Self::file_beside(&mut self.lists, &mut self.spare, e, id),
        }
    }

    /// With one map lookup: the id under `hash` that `is_match` accepts,
    /// or else `new` (if any) filed under `hash`.
    fn find_or_file(
        &mut self,
        hash: u64,
        is_match: impl Fn(u32) -> bool,
        new: Option<u32>,
    ) -> Filed {
        match self.map.entry(hash) {
            Entry::Vacant(e) => match new {
                Some(id) => {
                    e.insert(Ids::One(id));
                    Filed::New(id)
                }
                None => Filed::Absent,
            },
            Entry::Occupied(e) => {
                let ids = match e.get() {
                    Ids::One(id) => std::slice::from_ref(id),
                    &Ids::Many(list) => &self.lists[list as usize],
                };
                if let Some(&id) = ids.iter().find(|&&id| is_match(id)) {
                    return Filed::Found(id);
                }
                let Some(id) = new else { return Filed::Absent };
                Self::file_beside(&mut self.lists, &mut self.spare, e, id);
                Filed::New(id)
            }
        }
    }

    /// File `id` beside the ids `e` already holds.
    fn file_beside(
        lists: &mut Vec<Vec<u32>>,
        spare: &mut Vec<u32>,
        mut e: OccupiedEntry<'_, u64, Ids>,
        id: u32,
    ) {
        match *e.get() {
            Ids::Many(list) => lists[list as usize].push(id),
            Ids::One(first) => {
                let list = spare.pop().unwrap_or_else(|| {
                    lists.push(Vec::new());
                    (lists.len() - 1) as u32
                });
                lists[list as usize].extend([first, id]);
                e.insert(Ids::Many(list));
            }
        }
    }

    /// Swap `id` (listed under `hash` exactly once) out of its posting.
    #[allow(clippy::expect_used)] // a stored row is listed under its key hash
    pub fn remove(&mut self, hash: u64, id: u32) {
        let Entry::Occupied(e) = self.map.entry(hash) else {
            unreachable!("a stored row is listed under its key hash");
        };
        if let Ids::Many(list) = *e.get() {
            let ids = &mut self.lists[list as usize];
            let at = ids.iter().position(|&i| i == id).expect("a stored row is listed");
            ids.swap_remove(at);
            if !ids.is_empty() {
                return;
            }
            self.spare.push(list);
        }
        e.remove();
    }
}

#[cfg(test)]
pub(crate) use tests::ALL_KEYS_COLLIDE;

/// Fold key values exactly as hashing them one after the other through
/// [`FxHasher`] does.
pub fn key_hash<'k>(key: impl Iterator<Item = &'k Value>) -> u64 {
    #[cfg(test)]
    if ALL_KEYS_COLLIDE.with(std::cell::Cell::get) {
        return 0;
    }
    let mut h = FxHasher::default();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// The rows of one index whose key columns equal a probe key; see
/// [`View::probe_ids`].
pub(crate) struct ProbeIds<'a, K> {
    view: &'a View,
    cols: &'a [usize],
    candidates: std::slice::Iter<'a, RowId>,
    key: K,
}

impl<'k, K: Iterator<Item = &'k Value> + Clone> Iterator for ProbeIds<'_, K> {
    type Item = RowId;

    fn next(&mut self) -> Option<RowId> {
        let (view, cols, key) = (self.view, self.cols, &self.key);
        self.candidates.by_ref().copied().find(|&id| {
            let row = view.slot(id);
            cols.iter().map(|&c| &row[c]).eq(key.clone())
        })
    }
}

impl View {
    /// An empty view over the given member relations (with arities taken
    /// from `arities[rel]`).
    pub fn new(members: Vec<usize>, arities: &[usize]) -> View {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members must be sorted");
        let mut offsets = Vec::with_capacity(members.len());
        let mut off = 0;
        for &m in &members {
            offsets.push(off);
            off += arities[m];
        }
        let identity = Index { cols: (0..off).collect(), postings: Postings::default() };
        View {
            members,
            offsets,
            width: off,
            vals: Vec::new(),
            mults: Vec::new(),
            free: Vec::new(),
            indexes: vec![identity],
            count: 0,
        }
    }

    /// Column offset of member relation `rel` within rows of this view.
    #[allow(clippy::expect_used)] // plans ask only for a view's own members
    pub fn offset_of(&self, rel: usize) -> usize {
        let i = self.members.iter().position(|&m| m == rel).expect("rel is a member");
        self.offsets[i]
    }

    /// Ensure an index on the given columns exists; returns its id.
    pub fn ensure_index(&mut self, cols: Vec<usize>) -> usize {
        if let Some(i) = self.indexes.iter().position(|ix| ix.cols == cols) {
            return i;
        }
        debug_assert!(self.mults.is_empty(), "indexes are created before data arrives");
        self.indexes.push(Index { cols, postings: Postings::default() });
        self.indexes.len() - 1
    }

    /// The values in slot `id`, live or free.
    #[inline]
    fn slot(&self, id: RowId) -> &[Value] {
        &self.vals[id as usize * self.width..][..self.width]
    }

    /// Slot of the stored row equal to `row`, whose all-column hash is
    /// `hash`.
    fn find(&self, row: &[Value], hash: u64) -> Option<RowId> {
        let ids = self.indexes[0].postings.get(hash);
        ids.iter().copied().find(|&id| self.slot(id) == row)
    }

    /// Apply a delta: multiplicity `mult` (±) for `row`. A retraction
    /// takes away at most what is stored, and a multiplicity stops at
    /// `i64::MAX` rather than wrapping. A new row's values are copied
    /// into the slab — into a freed slot when there is one.
    pub fn update(&mut self, row: &[Value], mult: i64) {
        debug_assert_eq!(row.len(), self.width, "row width");
        if mult == 0 {
            return;
        }
        let hash = key_hash(row.iter());
        // The identity hash is in hand; every other index folds its own.
        let hash_of = |ix: &Index, i: usize| match i {
            0 => hash,
            _ => key_hash(ix.cols.iter().map(|&c| &row[c])),
        };
        // The slot a new row would take, filed in the same identity lookup
        // that searches for the row.
        #[allow(clippy::expect_used)] // row ids are u32: 2^32 distinct rows is past any budget
        let new = (mult > 0).then(|| match self.free.last() {
            Some(&id) => id,
            None => RowId::try_from(self.mults.len())
                .expect("a view holds fewer than 2^32 distinct rows"),
        });
        let (vals, width) = (&self.vals, self.width);
        let is_row = |id: RowId| &vals[id as usize * width..][..width] == row;
        match self.indexes[0].postings.find_or_file(hash, is_row, new) {
            Filed::Found(id) => {
                let stored = &mut self.mults[id as usize];
                let applied = mult.max(-*stored);
                *stored = stored.saturating_add(applied);
                self.count = self.count.saturating_add(applied);
                if *stored == 0 {
                    self.free.push(id);
                    for (i, ix) in self.indexes.iter_mut().enumerate() {
                        ix.postings.remove(hash_of(ix, i), id);
                    }
                }
            }
            Filed::New(id) => {
                if self.free.pop().is_some() {
                    let at = id as usize * self.width;
                    self.vals[at..at + self.width].clone_from_slice(row);
                    self.mults[id as usize] = mult;
                } else {
                    self.vals.extend_from_slice(row);
                    self.mults.push(mult);
                }
                self.count = self.count.saturating_add(mult);
                for (i, ix) in self.indexes.iter_mut().enumerate().skip(1) {
                    ix.postings.insert(hash_of(ix, i), id);
                }
            }
            Filed::Absent => {} // retracting a row that is not stored changes nothing
        }
    }

    /// The posting table of index `index_id`: a key hash with no posting
    /// there has no match, while one with a posting may still have none.
    pub(crate) fn postings(&self, index_id: usize) -> &Postings {
        &self.indexes[index_id].postings
    }

    /// Ids of the rows whose `index_id` columns equal `key`, in posting
    /// order. The key is borrowed: nothing is built to probe.
    pub(crate) fn probe_ids<'a, 'k, K>(
        &'a self,
        index_id: usize,
        key: K,
    ) -> ProbeIds<'a, K::IntoIter>
    where
        K: IntoIterator<Item = &'k Value>,
        K::IntoIter: Clone,
    {
        let ix = &self.indexes[index_id];
        let key = key.into_iter();
        ProbeIds {
            view: self,
            cols: &ix.cols,
            candidates: ix.postings.get(key_hash(key.clone())).iter(),
            key,
        }
    }

    /// Probe by index id and key; yields `(row, multiplicity)`.
    pub fn probe<'a, 'k, K>(
        &'a self,
        index_id: usize,
        key: K,
    ) -> impl Iterator<Item = (&'a [Value], i64)>
    where
        K: IntoIterator<Item = &'k Value>,
        K::IntoIter: Clone,
    {
        self.probe_ids(index_id, key).map(|id| self.row(id))
    }

    /// Ids of all stored rows, in slab order (used when no equi atoms
    /// connect the probing relation).
    pub(crate) fn scan_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        (0..self.mults.len()).filter(|&i| self.mults[i] != 0).map(|i| i as RowId)
    }

    /// Full scan; yields `(row, multiplicity)`.
    pub fn scan(&self) -> impl Iterator<Item = (&[Value], i64)> {
        self.scan_ids().map(|id| self.row(id))
    }

    /// The stored row behind an id a probe or scan of this view yielded.
    #[inline]
    pub(crate) fn row(&self, id: RowId) -> (&[Value], i64) {
        let mult = self.mults[id as usize];
        debug_assert!(mult > 0, "postings list live rows only");
        (self.slot(id), mult)
    }

    /// Multiplicity of one row.
    pub fn multiplicity(&self, row: &[Value]) -> i64 {
        let id = self.find(row, key_hash(row.iter()));
        id.map_or(0, |id| self.mults[id as usize])
    }

    /// Σ multiplicities.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Distinct stored rows.
    #[cfg(test)]
    fn distinct_rows(&self) -> usize {
        self.mults.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use squall_common::{tuple, Tuple};
    use std::cell::Cell;
    use std::collections::BTreeMap;

    thread_local! {
        /// Degenerate hash for the calling test thread: every key hashes to 0.
        pub(crate) static ALL_KEYS_COLLIDE: Cell<bool> = const { Cell::new(false) };
    }

    #[test]
    fn insert_probe_by_index() {
        let mut v = View::new(vec![0], &[2]);
        let ix = v.ensure_index(vec![0]);
        v.update(&tuple![1, 10], 1);
        v.update(&tuple![1, 20], 1);
        v.update(&tuple![2, 30], 1);
        let hits: Vec<_> = v.probe(ix, &[Value::Int(1)]).collect();
        assert_eq!(hits.len(), 2);
        assert!(v.probe(ix, &[Value::Int(9)]).next().is_none());
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn multiplicities_accumulate_and_cancel() {
        let mut v = View::new(vec![0], &[1]);
        let ix = v.ensure_index(vec![0]);
        v.update(&tuple![5], 1);
        v.update(&tuple![5], 1);
        assert_eq!(v.multiplicity(&tuple![5]), 2);
        assert_eq!(v.len(), 2);
        v.update(&tuple![5], -1);
        assert_eq!(v.multiplicity(&tuple![5]), 1);
        let hits: Vec<_> = v.probe(ix, &[Value::Int(5)]).collect();
        assert_eq!(hits, vec![(&[Value::Int(5)][..], 1)]);
        v.update(&tuple![5], -1);
        assert!(v.is_empty());
        assert!(v.probe(ix, &[Value::Int(5)]).next().is_none());
    }

    #[test]
    fn composite_index_keys() {
        let mut v = View::new(vec![1], &[0, 3]);
        let ix = v.ensure_index(vec![0, 2]);
        v.update(&tuple![1, 2, 3], 1);
        v.update(&tuple![1, 9, 3], 1);
        v.update(&tuple![1, 2, 4], 1);
        let hits: Vec<_> = v.probe(ix, &[Value::Int(1), Value::Int(3)]).collect();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn offsets_for_multi_member_views() {
        let v = View::new(vec![0, 2, 3], &[2, 5, 3, 1]);
        assert_eq!(v.offset_of(0), 0);
        assert_eq!(v.offset_of(2), 2);
        assert_eq!(v.offset_of(3), 5);
    }

    #[test]
    fn scan_lists_everything() {
        let mut v = View::new(vec![0], &[1]);
        v.update(&tuple![1], 2);
        v.update(&tuple![2], 1);
        let total: i64 = v.scan().map(|(_, m)| m).sum();
        assert_eq!(total, 3);
        assert_eq!(v.distinct_rows(), 2);
    }

    #[test]
    fn over_retraction_does_not_drift_the_count() {
        let mut v = View::new(vec![0], &[1]);
        v.update(&tuple![1], -1); // not stored
        v.update(&tuple![2], 1);
        assert_eq!((v.len(), v.is_empty(), v.distinct_rows()), (1, false, 1));
        v.update(&tuple![2], -5); // takes away the one stored copy, no more
        assert_eq!((v.len(), v.is_empty(), v.distinct_rows()), (0, true, 0));
        v.update(&tuple![3], 2);
        assert_eq!(v.len(), 2);
    }

    /// Sorted `(row, multiplicity)` pairs: the multiset an iterator yields.
    fn multiset<'a>(rows: impl Iterator<Item = (&'a [Value], i64)>) -> Vec<(Tuple, i64)> {
        let mut rows: Vec<(Tuple, i64)> = rows.map(|(t, m)| (Tuple::from(t), m)).collect();
        rows.sort();
        rows
    }

    #[test]
    fn a_freed_slot_reused_by_another_row_answers_for_that_row_only() {
        for collide in [false, true] {
            ALL_KEYS_COLLIDE.with(|c| c.set(collide));
            let mut v = View::new(vec![0], &[2]);
            let ix = v.ensure_index(vec![0]);
            v.update(&tuple!["a", 1], 1);
            v.update(&tuple![2, 2.5], 1);
            v.update(&tuple!["a", 1], -1); // frees the first slot ...
            v.update(&tuple![Value::Null, "b"], 2); // ... which this row takes
            assert_eq!((v.len(), v.distinct_rows()), (3, 2));
            assert!(v.probe(ix, &[Value::str("a")]).next().is_none(), "a stale row answered");
            assert_eq!(v.multiplicity(&tuple!["a", 1]), 0);
            let nulls = multiset(v.probe(ix, &[Value::Null]));
            assert_eq!(nulls, vec![(tuple![Value::Null, "b"], 2)]);
            assert_eq!(
                multiset(v.scan()),
                vec![(tuple![Value::Null, "b"], 2), (tuple![2, 2.5], 1)]
            );
            ALL_KEYS_COLLIDE.with(|c| c.set(false));
        }
    }

    /// One column value of the model's domain: every `Value` kind, with
    /// `Int(1)` and `Float(1.0)` — equal values, so one key to a view.
    fn cell(i: usize) -> Value {
        match i % 6 {
            0 => Value::Null,
            1 => Value::Int(1),
            2 => Value::Float(1.0),
            3 => Value::Float(2.5),
            4 => Value::str("k"),
            _ => Value::Int(7),
        }
    }

    /// Row `r` of the model's 24-row domain at `width` columns.
    fn domain_row(r: usize, width: usize) -> Tuple {
        (0..width).map(|c| cell((r >> c) + c)).collect()
    }

    /// Random signed updates of `width`-column rows drawn from a 24-row
    /// domain — small enough that duplicates, retractions to zero and
    /// re-inserts of *other* rows into freed slots all happen — checked
    /// after every step against a `BTreeMap` model (whose keys compare as
    /// values do, like the view's).
    fn check_against_model(width: usize, steps: &[(usize, i64)]) {
        let mut view = View::new(vec![0], &[width]);
        let indexes = [vec![0], vec![width - 1], vec![width - 1, 0]]
            .map(|cols| (view.ensure_index(cols.clone()), cols));
        let mut model: BTreeMap<Tuple, i64> = BTreeMap::new();
        for &(r, mult) in steps {
            let t = domain_row(r, width);
            view.update(&t, mult);
            let m = model.entry(t.clone()).or_insert(0);
            *m = (*m + mult).max(0);
            if *m == 0 {
                model.remove(&t);
            }

            assert_eq!(view.len() as i64, model.values().sum::<i64>());
            assert_eq!(view.is_empty(), model.is_empty());
            assert_eq!(view.distinct_rows(), model.len());
            assert_eq!(view.multiplicity(&t), model.get(&t).copied().unwrap_or(0));
            let all: Vec<(Tuple, i64)> = model.iter().map(|(t, &m)| (t.clone(), m)).collect();
            assert_eq!(multiset(view.scan()), all);
            assert_eq!(multiset(view.scan_ids().map(|id| view.row(id))), all);
            for (ix, cols) in &indexes {
                for probe in [t.clone(), domain_row(r + 1, width), domain_row(r + 7, width)] {
                    let key = probe.key(cols);
                    let expected: Vec<(Tuple, i64)> =
                        all.iter().filter(|(row, _)| row.key(cols) == key).cloned().collect();
                    assert_eq!(multiset(view.probe(*ix, &key)), expected, "index {cols:?}");
                }
            }
        }
    }

    proptest! {
        // More cases in a release build (CI's "view model check" step).
        #![proptest_config(ProptestConfig {
            cases: if cfg!(debug_assertions) { 200 } else { 5_000 },
            ..ProptestConfig::default()
        })]

        #[test]
        fn view_agrees_with_btreemap_model(
            steps in proptest::collection::vec(0usize..(24 * 5), 1..120),
            width in 1usize..5,
            collide in 0u8..2,
        ) {
            // With the degenerate hash every key shares one posting, and
            // nothing observable may change: probes filter by key equality,
            // the hash only narrows the candidates.
            ALL_KEYS_COLLIDE.with(|c| c.set(collide == 1));
            let steps: Vec<(usize, i64)> =
                steps.iter().map(|&s| (s % 24, (s / 24) as i64 - 2)).collect();
            check_against_model(width, &steps);
            ALL_KEYS_COLLIDE.with(|c| c.set(false));
        }
    }
}
