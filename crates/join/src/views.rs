//! Counted materialized views with hash indexes — the storage layer shared
//! by both local join algorithms.
//!
//! A view holds the (multiset) result of joining one subset of the input
//! relations; tuples carry multiplicities so duplicate inputs and window
//! deletions (negative deltas) are exact.
//!
//! Every distinct row is stored **once**, in a slab slot named by a `u32`
//! row id. Each hash index — one per distinct probe-key column set, plus
//! the identity index over all columns that answers "is this row stored?" —
//! is a posting table: key hash → the ids of the rows under it. The hash is
//! folded straight from the key columns (no key is ever built), and because
//! unequal keys may share a hash, every probe checks the key against the
//! slab row. A probe's matches come out in posting order, a pure function
//! of the update sequence. Probes with no equi columns scan the slab.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use squall_common::hash::FxHasher;
use squall_common::{FxHashMap, Tuple, Value};

/// Names one stored row of one [`View`]. Stable until that row's
/// multiplicity reaches zero; the slot is then reused.
pub(crate) type RowId = u32;

/// A multiset of tuples with optional hash indexes.
#[derive(Debug)]
pub struct View {
    /// Relations whose concatenation forms this view's rows (sorted).
    pub members: Vec<usize>,
    /// Column offset of each member inside a row.
    pub offsets: Vec<usize>,
    /// The slab: `None` slots are listed in `free`.
    rows: Vec<Option<Row>>,
    free: Vec<RowId>,
    /// `indexes[0]` is the identity index (all columns, in order).
    indexes: Vec<Index>,
    /// Σ multiplicities (stored tuple count).
    count: i64,
}

#[derive(Debug)]
struct Row {
    tuple: Tuple,
    /// Always positive: a row retracted to zero leaves the slab.
    mult: i64,
}

/// One hash index: key hash → ids of the rows whose `cols` have that hash.
#[derive(Debug)]
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
            Entry::Occupied(mut e) => match *e.get() {
                Ids::Many(list) => self.lists[list as usize].push(id),
                Ids::One(first) => {
                    let list = self.spare.pop().unwrap_or_else(|| {
                        self.lists.push(Vec::new());
                        (self.lists.len() - 1) as u32
                    });
                    self.lists[list as usize].extend([first, id]);
                    e.insert(Ids::Many(list));
                }
            },
        }
    }

    /// Swap `id` (listed under `hash` exactly once) out of its posting.
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

/// Fold key values exactly as hashing them one after the other through
/// [`FxHasher`] does.
pub fn key_hash<'k>(key: impl Iterator<Item = &'k Value>) -> u64 {
    #[cfg(test)]
    if tests::ALL_KEYS_COLLIDE.with(std::cell::Cell::get) {
        return 0;
    }
    let mut h = FxHasher::default();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

fn live(rows: &[Option<Row>], id: RowId) -> &Row {
    rows[id as usize].as_ref().expect("postings list live rows only")
}

/// The rows of one index whose key columns equal a probe key; see
/// [`View::probe_ids`].
pub(crate) struct ProbeIds<'a, K> {
    rows: &'a [Option<Row>],
    cols: &'a [usize],
    candidates: std::slice::Iter<'a, RowId>,
    key: K,
}

impl<'k, K: Iterator<Item = &'k Value> + Clone> Iterator for ProbeIds<'_, K> {
    type Item = RowId;

    fn next(&mut self) -> Option<RowId> {
        let (rows, cols, key) = (self.rows, self.cols, &self.key);
        self.candidates.by_ref().copied().find(|&id| {
            let tuple = &live(rows, id).tuple;
            cols.iter().map(|&c| tuple.get(c)).eq(key.clone())
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
            rows: Vec::new(),
            free: Vec::new(),
            indexes: vec![identity],
            count: 0,
        }
    }

    /// Column offset of member relation `rel` within rows of this view.
    pub fn offset_of(&self, rel: usize) -> usize {
        let i = self.members.iter().position(|&m| m == rel).expect("rel is a member");
        self.offsets[i]
    }

    /// Ensure an index on the given columns exists; returns its id.
    pub fn ensure_index(&mut self, cols: Vec<usize>) -> usize {
        if let Some(i) = self.indexes.iter().position(|ix| ix.cols == cols) {
            return i;
        }
        debug_assert!(self.rows.is_empty(), "indexes are created before data arrives");
        self.indexes.push(Index { cols, postings: Postings::default() });
        self.indexes.len() - 1
    }

    /// Slot of the stored row equal to `tuple`, whose all-column hash is
    /// `hash`.
    fn find(&self, tuple: &Tuple, hash: u64) -> Option<RowId> {
        let ids = self.indexes[0].postings.get(hash);
        ids.iter().copied().find(|&id| live(&self.rows, id).tuple == *tuple)
    }

    /// Apply a delta: multiplicity `mult` (±) for `tuple`. A retraction
    /// takes away at most what is stored.
    pub fn update(&mut self, tuple: &Tuple, mult: i64) {
        if mult == 0 {
            return;
        }
        let hash = key_hash(tuple.values().iter());
        // The identity hash is in hand; every other index folds its own.
        let hash_of = |ix: &Index, i: usize| match i {
            0 => hash,
            _ => key_hash(ix.cols.iter().map(|&c| tuple.get(c))),
        };
        match self.find(tuple, hash) {
            Some(id) => {
                let row = self.rows[id as usize].as_mut().expect("postings list live rows only");
                let applied = mult.max(-row.mult);
                row.mult += applied;
                self.count += applied;
                if row.mult == 0 {
                    self.rows[id as usize] = None;
                    self.free.push(id);
                    for (i, ix) in self.indexes.iter_mut().enumerate() {
                        ix.postings.remove(hash_of(ix, i), id);
                    }
                }
            }
            None if mult > 0 => {
                let id = self.free.pop().unwrap_or_else(|| {
                    self.rows.push(None);
                    RowId::try_from(self.rows.len() - 1)
                        .expect("a view holds fewer than 2^32 distinct rows")
                });
                self.rows[id as usize] = Some(Row { tuple: tuple.clone(), mult });
                self.count += mult;
                for (i, ix) in self.indexes.iter_mut().enumerate() {
                    ix.postings.insert(hash_of(ix, i), id);
                }
            }
            None => {} // retracting a row that is not stored changes nothing
        }
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
            rows: &self.rows,
            cols: &ix.cols,
            candidates: ix.postings.get(key_hash(key.clone())).iter(),
            key,
        }
    }

    /// Probe by index id and key; yields `(tuple, multiplicity)`.
    pub fn probe<'a, 'k, K>(
        &'a self,
        index_id: usize,
        key: K,
    ) -> impl Iterator<Item = (&'a Tuple, i64)>
    where
        K: IntoIterator<Item = &'k Value>,
        K::IntoIter: Clone,
    {
        self.probe_ids(index_id, key).map(|id| self.row(id))
    }

    /// Ids of all stored rows, in slab order (used when no equi atoms
    /// connect the probing relation).
    pub(crate) fn scan_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        (0..self.rows.len()).filter(|&i| self.rows[i].is_some()).map(|i| i as RowId)
    }

    /// Full scan; yields `(tuple, multiplicity)`.
    pub fn scan(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.rows.iter().flatten().map(|r| (&r.tuple, r.mult))
    }

    /// The stored row behind an id a probe or scan of this view yielded.
    pub(crate) fn row(&self, id: RowId) -> (&Tuple, i64) {
        let row = live(&self.rows, id);
        (&row.tuple, row.mult)
    }

    /// Multiplicity of one tuple.
    pub fn multiplicity(&self, tuple: &Tuple) -> i64 {
        let id = self.find(tuple, key_hash(tuple.values().iter()));
        id.map_or(0, |id| live(&self.rows, id).mult)
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
        self.rows.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use squall_common::tuple;
    use std::cell::Cell;
    use std::collections::BTreeMap;

    thread_local! {
        /// Degenerate hash for the calling test thread: every key hashes to 0.
        pub(super) static ALL_KEYS_COLLIDE: Cell<bool> = const { Cell::new(false) };
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
        assert_eq!(hits, vec![(&tuple![5], 1)]);
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
    fn multiset<'a>(rows: impl Iterator<Item = (&'a Tuple, i64)>) -> Vec<(Tuple, i64)> {
        let mut rows: Vec<(Tuple, i64)> = rows.map(|(t, m)| (t.clone(), m)).collect();
        rows.sort();
        rows
    }

    /// Random signed updates over a 4 × 3 × 2 row domain — small enough
    /// that duplicates, retractions to zero and re-inserts into freed slots
    /// all happen — checked after every step against a `BTreeMap` model.
    fn check_against_model(steps: &[(i64, i64, i64, i64)]) {
        let mut view = View::new(vec![0], &[3]);
        let indexes =
            [vec![0], vec![1], vec![0, 2]].map(|cols| (view.ensure_index(cols.clone()), cols));
        let mut model: BTreeMap<Tuple, i64> = BTreeMap::new();
        for &(a, b, c, mult) in steps {
            let t = tuple![a, b, c];
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
                for probe in [&t, &tuple![a + 1, b, c], &tuple![a, b + 1, c + 1]] {
                    let key = probe.key(cols);
                    let expected: Vec<(Tuple, i64)> =
                        all.iter().filter(|(row, _)| row.key(cols) == key).cloned().collect();
                    assert_eq!(multiset(view.probe(*ix, &key)), expected, "index {cols:?}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn view_agrees_with_btreemap_model(
            steps in proptest::collection::vec(0u32..(4 * 3 * 2 * 5), 1..80),
            collide in 0u8..2,
        ) {
            // With the degenerate hash every key shares one posting, and
            // nothing observable may change: probes filter by key equality,
            // the hash only narrows the candidates.
            ALL_KEYS_COLLIDE.with(|c| c.set(collide == 1));
            let steps: Vec<(i64, i64, i64, i64)> = steps
                .iter()
                .map(|&s| ((s % 4) as i64, (s / 4 % 3) as i64, (s / 12 % 2) as i64, (s / 24) as i64 - 2))
                .collect();
            check_against_model(&steps);
            ALL_KEYS_COLLIDE.with(|c| c.set(false));
        }
    }
}
