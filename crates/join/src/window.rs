//! Window semantics on top of the full-history engine (§2).
//!
//! "Squall provides both full-history and window semantics for its
//! operators. It implements typical stream primitives, such as tumbling and
//! sliding windows, by adding the window expiration logic on top of the
//! full-history engine." — [`WindowJoin`] wraps any [`LocalJoin`], keeps
//! each relation's live rows in one flat buffer beside their timestamps and
//! multiplicities, and removes expired state. Results reach the caller's
//! [`RowSink`] through the window predicate, as borrowed rows.
//!
//! Semantics are **event-time**: each relation's tuples *carry* their
//! timestamp as a column, per-relation arrival is timestamp-ordered, but
//! relations may interleave arbitrarily (independent spouts). Eviction is
//! driven by the *watermark* (the minimum of the per-relation timestamp
//! frontiers), so a tuple is only dropped once no future arrival can fall
//! in its window, and each emitted result is filtered by the window
//! predicate over its constituent timestamps. The produced result set is
//! therefore a pure function of the timestamped inputs — deterministic
//! under any cross-relation interleaving:
//! * sliding `size`: `max(ts) − min(ts) ≤ size`;
//! * tumbling `width`: all constituents in the same bucket `⌊ts/width⌋`
//!   (so a tuple with timestamp exactly `k·width` opens window `k` and
//!   never joins window `k−1` state).

use squall_common::codec::Reader;
use squall_common::{Result, SquallError, Tuple, Value};

use crate::{LocalJoin, RowSink, Snapshot};

/// Window shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Keep everything (incremental view maintenance).
    FullHistory,
    /// Non-overlapping windows of `width` time units: tuples join only
    /// within the same bucket `⌊ts/width⌋`.
    Tumbling { width: u64 },
    /// Keep tuples whose timestamp is within `size` of the newest input.
    Sliding { size: u64 },
}

squall_common::wire_tags! { WindowSpec { 0 => FullHistory, 1 => Tumbling { width }, 2 => Sliding { size } } }

/// The window geometry, in one place: the join's result predicate and
/// eviction, the per-window aggregate's fold and close, and the standing
/// view sink's window expansion all call these. Tumbling windows are
/// `[k·width, (k+1)·width)`, sliding windows `[s, s+size]` for every
/// integer start `s ≥ 0`. A zero `width`/`size` is rejected when the plan
/// is validated, before any of this runs.
impl WindowSpec {
    /// Do timestamps with extrema `[lo, hi]` share a window? Sliding:
    /// `hi − lo ≤ size`; tumbling: same bucket `⌊ts/width⌋`.
    #[inline]
    pub fn contains(self, lo: u64, hi: u64) -> bool {
        match self {
            WindowSpec::FullHistory => true,
            WindowSpec::Sliding { size } => hi - lo <= size,
            WindowSpec::Tumbling { width } => lo / width == hi / width,
        }
    }

    /// The starts of every window a result with constituent-timestamp
    /// extrema `[lo, hi]` (already [`WindowSpec::contains`]-checked) folds
    /// into: the one bucket under tumbling, `max(hi − size, 0) ..= lo`
    /// under sliding. A typed error when the last window's inclusive end
    /// would not fit the `Int` it is reported as.
    #[inline]
    pub fn window_starts(self, lo: u64, hi: u64) -> Result<std::ops::RangeInclusive<u64>> {
        debug_assert!(self.contains(lo, hi), "join window predicate violated");
        let (first, last, extent) = match self {
            WindowSpec::Tumbling { width } => {
                let start = hi / width * width;
                (start, start, width - 1)
            }
            WindowSpec::Sliding { size } => (hi.saturating_sub(size), lo, size),
            WindowSpec::FullHistory => {
                return Err(SquallError::Runtime("a full-history join has no windows".into()))
            }
        };
        match last.checked_add(extent) {
            Some(end) if end <= i64::MAX as u64 => Ok(first..=last),
            _ => Err(SquallError::Runtime(format!(
                "window [{last}, {last} + {extent}] ends past the largest Int"
            ))),
        }
    }

    /// Inclusive end of the window starting at `start` (a start
    /// [`WindowSpec::window_starts`] produced, so the sum fits).
    #[inline]
    pub fn end_of(self, start: u64) -> u64 {
        match self {
            WindowSpec::Tumbling { width } => start + width - 1,
            WindowSpec::Sliding { size } => start + size,
            WindowSpec::FullHistory => u64::MAX,
        }
    }

    /// What a watermark `w` (every future timestamp is `≥ w`) makes final:
    /// stored tuples with a timestamp below the returned boundary can meet
    /// no future arrival, and windows starting below it can gain no
    /// further result. Tumbling: the start of `w`'s bucket; sliding:
    /// `w − size`, clamped at 0.
    #[inline]
    pub fn close_boundary(self, watermark: u64) -> u64 {
        match self {
            WindowSpec::FullHistory => 0,
            WindowSpec::Tumbling { width } => watermark / width * width,
            WindowSpec::Sliding { size } => watermark.saturating_sub(size),
        }
    }
}

/// Positions of each relation's event-time column within a join *output*
/// row. Results concatenate relations in order, so relation `rel`'s
/// timestamp lands at `arities[..rel].sum() + ts_cols[rel]`. Shared by
/// the event-time [`WindowJoin`] (window predicate over emitted results)
/// and the per-window aggregation bolt downstream of it — one mapping,
/// so the two can never drift.
pub fn output_ts_cols(arities: &[usize], ts_cols: &[usize]) -> Vec<usize> {
    assert_eq!(arities.len(), ts_cols.len(), "one ts column per relation");
    let mut out = Vec::with_capacity(arities.len());
    let mut off = 0;
    for (a, &c) in arities.iter().zip(ts_cols) {
        assert!(c < *a, "ts column {c} out of range for arity {a}");
        out.push(off + c);
        off += a;
    }
    out
}

/// One relation's live arrivals, oldest first: live row `i` is
/// `vals[i * arity..][..arity]`, and `meta[i]` its timestamp and
/// multiplicity. Rows before `head` are evicted; their slots are reclaimed
/// once they are at least half of the buffer.
struct Live {
    arity: usize,
    vals: Vec<Value>,
    meta: Vec<(u64, i64)>,
    head: usize,
}

impl Live {
    fn push(&mut self, ts: u64, row: &[Value], mult: i64) {
        self.vals.extend_from_slice(row);
        self.meta.push((ts, mult));
    }

    /// Hand every live row older than `boundary` to `evict`, oldest first,
    /// and drop it.
    fn evict_below(&mut self, boundary: u64, mut evict: impl FnMut(&[Value], i64)) {
        while let Some(&(_, m)) = self.meta.get(self.head).filter(|(ts, _)| *ts < boundary) {
            evict(&self.vals[self.head * self.arity..][..self.arity], m);
            self.head += 1;
        }
        if self.head > 0 && 2 * self.head >= self.meta.len() {
            self.meta.drain(..self.head);
            self.vals.drain(..self.head * self.arity);
            self.head = 0;
        }
    }
}

/// A windowed local join: any full-history [`LocalJoin`] plus expiration.
pub struct WindowJoin<J: LocalJoin> {
    inner: J,
    spec: WindowSpec,
    /// Per-relation arrivals still in the window (timestamps are
    /// non-decreasing per relation, as produced by event-time-ordered
    /// spouts and the runtime's ordered channels).
    live: Vec<Live>,
    /// Each relation's timestamp column within its own rows.
    ts_cols: Vec<usize>,
    /// The timestamp position of each relation in the join *output* row
    /// (results are concatenated in relation order).
    out_ts_cols: Vec<usize>,
    /// Newest timestamp seen per relation.
    frontier: Vec<Option<u64>>,
}

impl<J: LocalJoin> WindowJoin<J> {
    /// `arities[rel]` is each relation's tuple width and `ts_cols[rel]`
    /// the timestamp column *within* that relation; both the inserted
    /// tuples and the emitted results must carry Int, non-negative
    /// timestamps there (the planner validates this before execution).
    pub fn event_time(
        inner: J,
        spec: WindowSpec,
        arities: &[usize],
        ts_cols: &[usize],
    ) -> WindowJoin<J> {
        let live = |&arity| Live { arity, vals: Vec::new(), meta: Vec::new(), head: 0 };
        WindowJoin {
            inner,
            spec,
            live: arities.iter().map(live).collect(),
            ts_cols: ts_cols.to_vec(),
            out_ts_cols: output_ts_cols(arities, ts_cols),
            frontier: vec![None; arities.len()],
        }
    }

    /// Insert a row stamped `ts`: expired state is evicted first — each
    /// evicted row goes to `evicted` as `(rel, row, multiplicity)` — and
    /// results are filtered by the window predicate, so `out` receives
    /// exactly the in-window joins.
    pub fn insert_into(
        &mut self,
        rel: usize,
        ts: u64,
        row: &[Value],
        out: &mut dyn RowSink,
        evicted: impl FnMut(usize, &[Value], i64),
    ) {
        self.expire(rel, ts, evicted);
        self.live[rel].push(ts, row, 1);
        let (spec, out_ts_cols) = (self.spec, &self.out_ts_cols);
        self.inner.insert_into(rel, row, &mut |result: &[Value], mult| {
            if in_window(spec, out_ts_cols, result) {
                out.push(result, mult);
            }
        });
    }

    /// [`WindowJoin::insert_into`], each result expanded into tuples.
    pub fn insert(&mut self, rel: usize, ts: u64, row: &[Value], out: &mut Vec<Tuple>) {
        self.insert_into(rel, ts, row, out, |_, _, _| {})
    }

    /// [`WindowJoin::insert_into`] as `(tuple, multiplicity)` pairs, with
    /// one `evicted(rel, row)` call per evicted copy: O(multiplicity), so
    /// the engine evicts through `insert_into`.
    pub fn insert_weighted(
        &mut self,
        rel: usize,
        ts: u64,
        row: &[Value],
        out: &mut Vec<(Tuple, i64)>,
        mut evicted: impl FnMut(usize, &[Value]),
    ) {
        self.insert_into(rel, ts, row, out, |r, row, m| (0..m).for_each(|_| evicted(r, row)))
    }

    /// Advance relation `rel`'s frontier to `now` and evict by the
    /// watermark — only rows no *future* arrival (which must carry
    /// ts ≥ watermark) can co-window with — handing each to `evicted`.
    fn expire(&mut self, rel: usize, now: u64, mut evicted: impl FnMut(usize, &[Value], i64)) {
        if matches!(self.spec, WindowSpec::FullHistory) {
            return;
        }
        self.frontier[rel] = Some(self.frontier[rel].map_or(now, |f| f.max(now)));
        let Some(watermark) = self.watermark() else {
            return; // some relation unseen: no safe eviction yet
        };
        let boundary = self.spec.close_boundary(watermark);
        let inner = &mut self.inner;
        for (r, live) in self.live.iter_mut().enumerate() {
            live.evict_below(boundary, |row, m| {
                inner.remove(r, row, m);
                evicted(r, row, m);
            });
        }
    }

    /// The event-time watermark: the minimum of the per-relation timestamp
    /// frontiers, i.e. the largest `w` such that every future arrival is
    /// guaranteed to carry a timestamp ≥ `w`. `None` until every relation
    /// has been seen (no promise can be made yet).
    pub fn watermark(&self) -> Option<u64> {
        self.frontier.iter().copied().try_fold(u64::MAX, |m, f| f.map(|f| m.min(f)))
    }

    /// Tuples currently held in the window (all relations).
    pub fn live_tuples(&self) -> usize {
        self.live.iter().flat_map(|l| &l.meta[l.head..]).map(|&(_, m)| m as usize).sum()
    }

    pub fn inner(&self) -> &J {
        &self.inner
    }
}

/// The full-history join blob of the live rows: they *are* the inner join's
/// base state, so a windowed task's checkpoint chain is the signed rows it
/// inserted (+1) and evicted (−1), like any other task's.
impl<J: LocalJoin + Snapshot> Snapshot for WindowJoin<J> {
    fn snapshot_state(&self, buf: &mut Vec<u8>) {
        self.inner.snapshot_state(buf);
    }

    /// Restore the inner join from the blob, and rebuild each relation's
    /// buffer in timestamp order — one entry per distinct row, carrying its
    /// multiplicity — and its frontier as its newest live timestamp. That
    /// frontier is exact: eviction never takes a relation's newest arrival,
    /// whose timestamp is at least the watermark, which is at least the
    /// close boundary.
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        let mut rels: Vec<Vec<(Tuple, i64)>> = Vec::new();
        rels.restore_state(&mut r.clone())?;
        if rels.len() != self.live.len() {
            return Err(SquallError::Codec("windowed join blob: wrong relation count".into()));
        }
        for (rel, rows) in rels.iter().enumerate() {
            let mut timed = Vec::with_capacity(rows.len());
            for (t, m) in rows {
                let ts = match t.values().get(self.ts_cols[rel]) {
                    Some(&Value::Int(ts)) if ts >= 0 => ts as u64,
                    _ => return Err(SquallError::Codec("windowed join row: no event time".into())),
                };
                if t.arity() != self.live[rel].arity || *m <= 0 {
                    return Err(SquallError::Codec("windowed join row does not fit".into()));
                }
                timed.push((ts, t, *m));
            }
            timed.sort_by_key(|(ts, ..)| *ts);
            for (ts, t, m) in timed {
                self.live[rel].push(ts, t, m);
                self.frontier[rel] = Some(ts);
            }
        }
        self.inner.restore_state(r)
    }
}

/// The window predicate over a result row's constituent timestamps.
fn in_window(spec: WindowSpec, out_ts_cols: &[usize], result: &[Value]) -> bool {
    if matches!(spec, WindowSpec::FullHistory) {
        return true;
    }
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for &c in out_ts_cols {
        let v = result[c].as_int().expect("window timestamp column must be Int (validated at plan)")
            as u64;
        lo = lo.min(v);
        hi = hi.max(v);
    }
    spec.contains(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbtoaster::DBToasterJoin;
    use crate::traditional::TraditionalJoin;
    use squall_common::{tuple, DataType, Schema};
    use squall_expr::{JoinAtom, MultiJoinSpec, RelationDef};

    /// Two-way spec where each side is (key, ts).
    fn two_way_ts() -> MultiJoinSpec {
        let s = Schema::of(&[("a", DataType::Int), ("ts", DataType::Int)]);
        MultiJoinSpec::new(
            vec![RelationDef::new("R", s.clone(), 0), RelationDef::new("S", s, 0)],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap()
    }

    #[test]
    fn event_time_sliding_filters_out_of_window_results() {
        let spec = two_way_ts();
        let mut w = WindowJoin::event_time(
            DBToasterJoin::new(&spec),
            WindowSpec::Sliding { size: 30 },
            &[2, 2],
            &[1, 1],
        );
        let mut out = Vec::new();
        // R runs far ahead of S (cross-relation skew).
        w.insert(0, 100, &tuple![1, 100], &mut out);
        // S@50: R@100 is still live (watermark 50) but |100−50| > 30.
        w.insert(1, 50, &tuple![1, 50], &mut out);
        assert!(out.is_empty(), "out-of-window pair leaked through");
        // S@80 pairs with R@100: |100−80| ≤ 30.
        w.insert(1, 80, &tuple![1, 80], &mut out);
        assert_eq!(out, vec![tuple![1, 100, 1, 80]]);
    }

    #[test]
    fn event_time_watermark_keeps_late_partners_alive() {
        // Under the old eager eviction, R@100 arriving first would evict
        // R@60; the watermark must keep it for the late S@55.
        let spec = two_way_ts();
        let mut w = WindowJoin::event_time(
            TraditionalJoin::new(&spec),
            WindowSpec::Sliding { size: 30 },
            &[2, 2],
            &[1, 1],
        );
        let mut out = Vec::new();
        w.insert(0, 60, &tuple![7, 60], &mut out);
        w.insert(0, 100, &tuple![7, 100], &mut out);
        w.insert(1, 55, &tuple![7, 55], &mut out);
        assert_eq!(out, vec![tuple![7, 60, 7, 55]], "in-window pair was lost to eager eviction");
    }

    #[test]
    fn event_time_tumbling_boundary() {
        let spec = two_way_ts();
        let mut w = WindowJoin::event_time(
            DBToasterJoin::new(&spec),
            WindowSpec::Tumbling { width: 10 },
            &[2, 2],
            &[1, 1],
        );
        let mut out = Vec::new();
        w.insert(0, 9, &tuple![1, 9], &mut out); // window 0
        w.insert(1, 10, &tuple![1, 10], &mut out); // window 1: no join
        assert!(out.is_empty());
        w.insert(0, 10, &tuple![1, 10], &mut out); // window 1: joins S@10
        assert_eq!(out, vec![tuple![1, 10, 1, 10]]);
    }

    #[test]
    fn event_time_results_are_interleaving_invariant() {
        // The same timestamped inputs under two different cross-relation
        // interleavings (per-relation order preserved) produce the same
        // result multiset.
        let spec = two_way_ts();
        let size = 12u64;
        let mut rng = squall_common::SplitMix64::new(3);
        let mut rels: Vec<Vec<(u64, Tuple)>> = vec![Vec::new(), Vec::new()];
        for rel in rels.iter_mut() {
            let mut ts = 0u64;
            for _ in 0..60 {
                ts += rng.next_below(5) as u64;
                rel.push((ts, tuple![rng.next_range(0, 4), ts as i64]));
            }
        }
        let run = |order: &[usize]| -> Vec<Tuple> {
            let mut w = WindowJoin::event_time(
                TraditionalJoin::new(&spec),
                WindowSpec::Sliding { size },
                &[2, 2],
                &[1, 1],
            );
            let mut pos = [0usize; 2];
            let mut out = Vec::new();
            for &rel in order {
                let (ts, t) = &rels[rel][pos[rel]];
                pos[rel] += 1;
                w.insert(rel, *ts, t, &mut out);
            }
            out.sort();
            out
        };
        // Interleaving A: strict alternation. B: R in two big bursts.
        let alternating: Vec<usize> = (0..120).map(|i| i % 2).collect();
        let mut bursty: Vec<usize> = vec![0; 40];
        bursty.extend(vec![1; 60]);
        bursty.extend(vec![0; 20]);
        let a = run(&alternating);
        let b = run(&bursty);
        assert_eq!(a, b, "window results depended on cross-relation interleaving");
        // And they match the pure timestamp oracle.
        let mut oracle = Vec::new();
        for (tr, r) in &rels[0] {
            for (ts, s) in &rels[1] {
                if r.get(0) == s.get(0) && tr.abs_diff(*ts) <= size {
                    let mut v = r.values().to_vec();
                    v.extend_from_slice(s.values());
                    oracle.push(Tuple::new(v));
                }
            }
        }
        oracle.sort();
        assert_eq!(a, oracle);
    }

    #[test]
    fn event_time_state_stays_bounded() {
        let spec = two_way_ts();
        let mut w = WindowJoin::event_time(
            DBToasterJoin::new(&spec),
            WindowSpec::Sliding { size: 5 },
            &[2, 2],
            &[1, 1],
        );
        let mut out = Vec::new();
        for ts in 0..1000u64 {
            let rel = (ts % 2) as usize;
            w.insert(rel, ts, &tuple![(ts % 7) as i64, ts as i64], &mut out);
        }
        assert!(w.live_tuples() <= 10, "live {} should be ≈ window size", w.live_tuples());
        assert!(w.inner().stored() <= 20, "inner state must stay bounded");
    }

    #[test]
    fn restore_and_eviction_cost_o1_in_multiplicity() {
        // A restore blob carries each row once with its multiplicity; a
        // 2^40 there must neither be replayed copy by copy on restore nor
        // evicted copy by copy later.
        let m = 1i64 << 40;
        let mut blob = Vec::new();
        vec![vec![(tuple![1, 5], m)], vec![]].snapshot_state(&mut blob);
        let started = std::time::Instant::now();
        let spec = WindowSpec::Tumbling { width: 10 };
        let mut w =
            WindowJoin::event_time(DBToasterJoin::new(&two_way_ts()), spec, &[2, 2], &[1, 1]);
        let mut r = Reader::new(&blob);
        w.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!((w.inner().stored(), w.live_tuples()), (m as usize, m as usize));
        // S@100 then R@100 lift the watermark past bucket [0, 10).
        let (mut out, mut evicted) = (Vec::<Tuple>::new(), Vec::new());
        for (rel, row) in [(1, tuple![2, 100]), (0, tuple![3, 100])] {
            w.insert_into(rel, 100, &row, &mut out, |r, row, m| {
                evicted.push((r, Tuple::from(row), m))
            });
        }
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(evicted, vec![(0, tuple![1, 5], m)]);
        assert_eq!((w.inner().stored(), w.live_tuples()), (2, 2), "the two arrivals only");
        assert!(out.is_empty());
    }

    #[test]
    fn window_geometry_table() {
        let t = WindowSpec::Tumbling { width: 10 };
        let s = WindowSpec::Sliding { size: 4 };
        // (spec, lo, hi) → do they share a window, and if so which starts.
        let cases = [
            (t, 10, 19, Some((10, 10))),    // exactly k·width opens window k …
            (t, 9, 10, None::<(u64, u64)>), // … and never joins window k−1
            (t, 0, 9, Some((0, 0))),
            (s, 6, 8, Some((4, 6))), // overlap: every start in [hi−size, lo]
            (s, 7, 7, Some((3, 7))),
            (s, 1, 3, Some((0, 1))), // clamped at start 0
            (s, 2, 6, Some((2, 2))), // hi − lo = size: exactly one window
            (s, 2, 7, None),
        ];
        for (spec, lo, hi, windows) in cases {
            assert_eq!(spec.contains(lo, hi), windows.is_some(), "{spec:?} [{lo}, {hi}]");
            if let Some((first, last)) = windows {
                assert_eq!(
                    spec.window_starts(lo, hi).unwrap(),
                    first..=last,
                    "{spec:?} [{lo}, {hi}]"
                );
            }
        }
        assert_eq!((t.end_of(10), s.end_of(3)), (19, 7), "inclusive ends");
        // Close boundary: a watermark inside bucket 2 closes buckets 0 and 1;
        // sliding closes starts below w − size, nothing while w < size.
        assert_eq!((t.close_boundary(29), t.close_boundary(30)), (20, 30));
        assert_eq!((s.close_boundary(9), s.close_boundary(3)), (5, 0));
        assert_eq!(WindowSpec::FullHistory.close_boundary(u64::MAX), 0, "nothing ever closes");
        // An inclusive end past the largest Int is a typed error, not a wrap.
        let top = i64::MAX as u64;
        assert!(s.window_starts(top - 4, top - 4).is_ok());
        assert!(s.window_starts(top - 3, top - 3).is_err());
        assert!(WindowSpec::Tumbling { width: u64::MAX }.window_starts(0, 5).is_err());
        assert!(WindowSpec::FullHistory.window_starts(0, 5).is_err());
    }
}
