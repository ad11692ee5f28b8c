//! Window semantics on top of the full-history engine (§2).
//!
//! "Squall provides both full-history and window semantics for its
//! operators. It implements typical stream primitives, such as tumbling and
//! sliding windows, by adding the window expiration logic on top of the
//! full-history engine." — [`WindowJoin`] wraps any [`LocalJoin`], keeps
//! each relation's live rows in one flat buffer beside their timestamps and
//! multiplicities, and removes expired state. It takes runs, not rows: a
//! batch of one relation is cut where its arrivals move the eviction
//! boundary, each run enters the inner join as one batch, and each evicted
//! run leaves it in one [`LocalJoin::remove`]. Results reach the caller's
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
/// `vals[i * arity..][..arity]`, stamped `ts[i]` with multiplicity
/// `mults[i]`. Rows before `head` are evicted; their slots are reclaimed
/// once they are at least half of the buffer.
struct Live {
    arity: usize,
    vals: Vec<Value>,
    ts: Vec<u64>,
    mults: Vec<i64>,
    head: usize,
}

impl Live {
    /// Append `rows`, back to back and stamped `ts`, each with weight `mult`.
    fn push(&mut self, ts: &[u64], rows: &[Value], mult: i64) {
        self.vals.extend_from_slice(rows);
        self.ts.extend_from_slice(ts);
        self.mults.resize(self.ts.len(), mult);
    }

    /// Hand the live rows older than `boundary` at the head — one range,
    /// back to back, with their multiplicities — to `evict`, and drop them.
    fn evict_below(&mut self, boundary: u64, evict: impl FnOnce(&[Value], &[i64])) {
        let (from, arity) = (self.head, self.arity);
        self.head += self.ts[from..].iter().take_while(|&&ts| ts < boundary).count();
        if self.head > from {
            evict(&self.vals[from * arity..self.head * arity], &self.mults[from..self.head]);
        }
        if self.head > 0 && 2 * self.head >= self.ts.len() {
            self.ts.drain(..self.head);
            self.mults.drain(..self.head);
            self.vals.drain(..self.head * arity);
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
        let live =
            |&arity| Live { arity, vals: Vec::new(), ts: Vec::new(), mults: Vec::new(), head: 0 };
        WindowJoin {
            inner,
            spec,
            live: arities.iter().map(live).collect(),
            ts_cols: ts_cols.to_vec(),
            out_ts_cols: output_ts_cols(arities, ts_cols),
            frontier: vec![None; arities.len()],
        }
    }

    /// Insert the `rows` of relation `rel`, back to back, stamped `ts` (one
    /// per row, in event-time order), cut into runs where an arrival moves
    /// the close boundary. Each run evicts once — every evicted row goes to
    /// `evicted` as `(rel, row, multiplicity)`, oldest first, and a
    /// relation's evicted rows leave the inner join in one `remove` — then
    /// enters it as one batch, its results reaching `out` through the
    /// window predicate.
    /// That is the row-at-a-time insert exactly: inside a run no arrival
    /// evicts, as every row's timestamp is at least the boundary.
    pub fn insert_into(
        &mut self,
        rel: usize,
        ts: &[u64],
        rows: &[Value],
        out: &mut dyn RowSink,
        mut evicted: impl FnMut(usize, &[Value], i64),
    ) {
        let arity = self.live[rel].arity;
        debug_assert_eq!(rows.len(), ts.len() * arity, "one timestamp per {arity}-wide row");
        // The watermark's other side: the oldest frontier of the other
        // relations; nothing closes while one of them is unseen.
        let others = (self.frontier.iter().enumerate())
            .filter(|&(r, _)| r != rel)
            .try_fold(u64::MAX, |m, (_, f)| f.map(|f| m.min(f)));
        let spec = self.spec;
        let boundary = |frontier: u64| others.map_or(0, |o| spec.close_boundary(o.min(frontier)));
        let mut start = 0;
        while start < ts.len() {
            let mut frontier = self.frontier[rel].map_or(ts[start], |f| f.max(ts[start]));
            let b = boundary(frontier);
            // A row below the boundary (out of event-time order) also ends
            // its run: the next arrival would evict it.
            let mut end = start + 1;
            while end < ts.len() && ts[end - 1] >= b && boundary(frontier.max(ts[end])) == b {
                frontier = frontier.max(ts[end]);
                end += 1;
            }
            self.frontier[rel] = Some(frontier);
            let inner = &mut self.inner;
            for (r, live) in self.live.iter_mut().enumerate() {
                let arity = live.arity;
                live.evict_below(b, |rows, mults| {
                    inner.remove(r, rows, mults);
                    for (row, &m) in rows.chunks_exact(arity).zip(mults) {
                        evicted(r, row, m);
                    }
                });
            }
            let run = &rows[start * arity..end * arity];
            self.live[rel].push(&ts[start..end], run, 1);
            let out_ts_cols = &self.out_ts_cols;
            self.inner.insert_into(rel, run, &mut |result: &[Value], mult| {
                if in_window(spec, out_ts_cols, result) {
                    out.push(result, mult);
                }
            });
            start = end;
        }
    }

    /// [`WindowJoin::insert_into`] of one row, each result expanded into
    /// tuples.
    pub fn insert(&mut self, rel: usize, ts: u64, row: &[Value], out: &mut Vec<Tuple>) {
        self.insert_into(rel, &[ts], row, out, |_, _, _| {})
    }

    /// [`WindowJoin::insert_into`] of one row as `(tuple, multiplicity)`
    /// pairs, with one `evicted(rel, row)` call per evicted copy:
    /// O(multiplicity), so the engine evicts through `insert_into`.
    pub fn insert_weighted(
        &mut self,
        rel: usize,
        ts: u64,
        row: &[Value],
        out: &mut Vec<(Tuple, i64)>,
        mut evicted: impl FnMut(usize, &[Value]),
    ) {
        self.insert_into(rel, &[ts], row, out, |r, row, m| (0..m).for_each(|_| evicted(r, row)))
    }

    /// Relation `rel`'s row width and the column of its event time.
    pub fn row_shape(&self, rel: usize) -> (usize, usize) {
        (self.live[rel].arity, self.ts_cols[rel])
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
        self.live.iter().flat_map(|l| &l.mults[l.head..]).map(|&m| m as usize).sum()
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
                self.live[rel].push(&[ts], t, m);
                self.frontier[rel] = Some(ts);
            }
        }
        self.inner.restore_state(r)
    }
}

/// The window predicate over a result row's constituent timestamps. A
/// result with a timestamp that is not an `Int` lies in no window (callers
/// validate event time before it reaches the join).
fn in_window(spec: WindowSpec, out_ts_cols: &[usize], result: &[Value]) -> bool {
    if matches!(spec, WindowSpec::FullHistory) {
        return true;
    }
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for &c in out_ts_cols {
        let Value::Int(v) = result[c] else { return false };
        lo = lo.min(v as u64);
        hi = hi.max(v as u64);
    }
    spec.contains(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbtoaster::{DBToasterJoin, TraditionalJoin};
    use squall_common::{tuple, DataType, Schema, SplitMix64};
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
            w.insert_into(rel, &[100], &row, &mut out, |r, row, m| {
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

    /// An `n`-way chain of `(key, ts)` relations on the key.
    fn chain_ts(n: usize) -> MultiJoinSpec {
        let schema = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
        MultiJoinSpec::new(
            (0..n).map(|r| RelationDef::new(format!("R{r}"), schema.clone(), 0)).collect(),
            (1..n).map(|r| JoinAtom::eq(r - 1, 0, r, 0)).collect(),
        )
        .unwrap()
    }

    /// What a window join did with one batch: its results in order with
    /// their weights, and its evictions in order.
    type Fed = (Vec<(Tuple, i64)>, Vec<(usize, Tuple, i64)>);

    fn feed<J: LocalJoin>(w: &mut WindowJoin<J>, rel: usize, ts: &[u64], rows: &[Value]) -> Fed {
        let (mut results, mut evicted) = (Vec::new(), Vec::new());
        let mut sink = |row: &[Value], m| results.push((Tuple::from(row), m));
        w.insert_into(rel, ts, rows, &mut sink, |r, row, m| evicted.push((r, row.into(), m)));
        (results, evicted)
    }

    /// Feed `chunks` — `(relation, timestamps, rows back to back)` — to
    /// `batched` a chunk per call and to `single` a row per call. After
    /// every chunk both must have produced the same results and evictions
    /// in the same order, and hold the same live rows, inner state,
    /// watermark and `snap` bytes — those of the live rows, when there are
    /// any.
    fn check_batches<J: LocalJoin>(
        what: &str,
        (mut batched, mut single): (WindowJoin<J>, WindowJoin<J>),
        chunks: &[(usize, Vec<u64>, Vec<Value>)],
        snap: impl Fn(&WindowJoin<J>) -> Vec<u8>,
    ) {
        for (c, (rel, ts, rows)) in chunks.iter().enumerate() {
            let a = feed(&mut batched, *rel, ts, rows);
            let mut b: Fed = (Vec::new(), Vec::new());
            for (k, row) in rows.chunks(2).enumerate() {
                let (results, evicted) = feed(&mut single, *rel, &ts[k..=k], row);
                b.0.extend(results);
                b.1.extend(evicted);
            }
            let what = format!("{what}, chunk {c} ({} rows of relation {rel})", ts.len());
            assert_eq!(a.0, b.0, "{what}: results");
            assert_eq!(a.1, b.1, "{what}: evictions");
            assert_eq!(batched.live_tuples(), single.live_tuples(), "{what}: live");
            assert_eq!(batched.inner().stored(), single.inner().stored(), "{what}: stored");
            assert_eq!(batched.watermark(), single.watermark(), "{what}: watermark");
            let held = snap(&batched);
            assert_eq!(held, snap(&single), "{what}: snapshot bytes");
            assert!(held.is_empty() || held == live_blob(&batched), "{what}: inner rows not live");
        }
    }

    /// The join blob of a window's live rows, which the inner join's base
    /// state must equal.
    fn live_blob<J: LocalJoin>(w: &WindowJoin<J>) -> Vec<u8> {
        let rels: Vec<Vec<(Tuple, i64)>> = (w.live.iter())
            .map(|l| {
                let mut rows = std::collections::BTreeMap::<Tuple, i64>::new();
                for (row, &m) in l.vals[l.head * l.arity..].chunks(l.arity).zip(&l.mults[l.head..])
                {
                    *rows.entry(row.into()).or_default() += m;
                }
                rows.into_iter().collect()
            })
            .collect();
        let mut buf = Vec::new();
        rels.snapshot_state(&mut buf);
        buf
    }

    /// One seed of the window batch model: a 2- or 3-way chain through a
    /// tumbling or sliding window of width 1–16, over DBToaster or
    /// Traditional. Each relation's timestamps never decrease, from a
    /// random start and at a random pace, so relations drift apart; the
    /// input arrives as chunks of 1–300 rows of one relation at a time,
    /// whole to one join and row by row to its twin. One case in four
    /// starts both from a restored blob whose rows weigh 2–5 (DBToaster
    /// only: Traditional keeps no snapshot), so evictions remove several
    /// copies of a row at once.
    fn check_window_batches_equal_rows(seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let collide = rng.next_below(2) == 1;
        crate::views::ALL_KEYS_COLLIDE.with(|c| c.set(collide));
        let n = rng.next_range(2, 3) as usize;
        let width = rng.next_range(1, 16) as u64;
        let window = match rng.next_below(2) {
            0 => WindowSpec::Tumbling { width },
            _ => WindowSpec::Sliding { size: width },
        };
        let restored = rng.next_below(4) == 0;
        let traditional = !restored && rng.next_below(2) == 0;
        let spec = chain_ts(n);
        let key = |rng: &mut SplitMix64| rng.next_range(0, 5);
        // Restored rows: distinct timestamps below each relation's start.
        let mut blob_rels = Vec::new();
        let mut clock = Vec::new();
        for _ in 0..n {
            let start = rng.next_range(0, 40) as u64;
            let held = if restored { rng.next_below(start as usize + 1).min(6) } else { 0 };
            blob_rels.push(
                (0..held as i64)
                    .map(|ts| (tuple![key(&mut rng), ts], rng.next_range(2, 5)))
                    .collect::<Vec<_>>(),
            );
            clock.push(start);
        }
        // A colliding hash makes every probe of a 3-way join's pair views
        // a scan: fewer rows keep those seeds as fast as the rest.
        let most = if collide && n == 3 { 80 } else { 300 };
        let mut left: Vec<usize> = (0..n).map(|_| rng.next_range(1, most) as usize).collect();
        let mut chunks = Vec::new();
        loop {
            let open: Vec<usize> = (0..n).filter(|&r| left[r] > 0).collect();
            let Some(&rel) = open.get(rng.next_below(open.len().max(1))) else { break };
            let len = (rng.next_range(1, 300) as usize).min(left[rel]);
            left[rel] -= len;
            let (mut ts, mut rows) = (Vec::new(), Vec::new());
            for _ in 0..len {
                clock[rel] += match rng.next_below(8) {
                    0 => rng.next_range(0, 3 * width as i64) as u64,
                    _ => rng.next_range(0, 2) as u64,
                };
                ts.push(clock[rel]);
                rows.extend([Value::Int(key(&mut rng)), Value::Int(clock[rel] as i64)]);
            }
            chunks.push((rel, ts, rows));
        }
        let (arities, ts_cols) = (vec![2; n], vec![1; n]);
        let what = format!(
            "seed {seed} (colliding hash: {collide}, {n}-way {window:?}, traditional: \
             {traditional}, restored: {restored})"
        );
        if traditional {
            let mk =
                || WindowJoin::event_time(TraditionalJoin::new(&spec), window, &arities, &ts_cols);
            check_batches(&what, (mk(), mk()), &chunks, |_| Vec::new());
        } else {
            let mut blob = Vec::new();
            blob_rels.snapshot_state(&mut blob);
            let mk = || {
                let mut w =
                    WindowJoin::event_time(DBToasterJoin::new(&spec), window, &arities, &ts_cols);
                if restored {
                    w.restore_state(&mut Reader::new(&blob)).unwrap();
                }
                w
            };
            let snap = |w: &WindowJoin<DBToasterJoin>| {
                let mut buf = Vec::new();
                w.snapshot_state(&mut buf);
                buf
            };
            check_batches(&what, (mk(), mk()), &chunks, snap);
        }
        crate::views::ALL_KEYS_COLLIDE.with(|c| c.set(false));
    }

    #[test]
    fn window_batch_model() {
        // More seeds in a release build (CI's "window batch model check").
        for seed in 0..if cfg!(debug_assertions) { 200 } else { 5_000 } {
            check_window_batches_equal_rows(seed);
        }
    }

    /// A local join that counts the calls made to it.
    struct Counted<J> {
        inner: J,
        inserts: usize,
        removes: usize,
    }

    impl<J: LocalJoin> LocalJoin for Counted<J> {
        fn insert_into(&mut self, rel: usize, rows: &[Value], out: &mut dyn RowSink) {
            self.inserts += 1;
            self.inner.insert_into(rel, rows, out)
        }

        fn remove(&mut self, rel: usize, rows: &[Value], mults: &[i64]) {
            self.removes += 1;
            self.inner.remove(rel, rows, mults)
        }

        fn stored(&self) -> usize {
            self.inner.stored()
        }
    }

    #[test]
    fn a_chunk_costs_one_inner_call_per_run_and_one_remove_per_evicted_run() {
        // Two relations of 4 096 rows, four per time unit, through a
        // tumbling window of width 64 in alternating 256-row chunks. Row
        // by row the inner join took one insert per row and one remove per
        // evicted row; a chunk takes one insert per run between boundary
        // crossings, and each crossing one remove per relation.
        const ROWS: usize = 4_096;
        let window = WindowSpec::Tumbling { width: 64 };
        let inner = Counted { inner: DBToasterJoin::new(&two_way_ts()), inserts: 0, removes: 0 };
        let mut w = WindowJoin::event_time(inner, window, &[2, 2], &[1, 1]);
        let (mut chunks, mut crossings, mut evicted) = (0, 0, 0);
        let (mut frontier, mut boundary) = ([None::<u64>; 2], None);
        for start in (0..ROWS).step_by(256) {
            for rel in 0..2 {
                let ts: Vec<u64> = (start..start + 256).map(|i| (i / 4) as u64).collect();
                let rows: Vec<Value> = ts
                    .iter()
                    .flat_map(|&t| [Value::Int(t as i64 % 5), Value::Int(t as i64)])
                    .collect();
                // The close boundary row by row, as the model of a crossing.
                for &t in &ts {
                    frontier[rel] = Some(t);
                    let wm = frontier[0].zip(frontier[1]).map(|(a, b)| a.min(b));
                    let b = wm.map(|wm| window.close_boundary(wm));
                    crossings += usize::from(boundary.is_some() && b != boundary);
                    boundary = b;
                }
                w.insert_into(rel, &ts, &rows, &mut |_: &[Value], _| {}, |_, _, _| evicted += 1);
                chunks += 1;
            }
        }
        let inner = &w.inner().inner;
        let (inserts, removes) = (w.inner().inserts, w.inner().removes);
        println!(
            "{} rows in {chunks} chunks, {crossings} boundary crossings: {inserts} inner inserts \
             and {removes} removes (row by row: {} and {evicted})",
            2 * ROWS,
            2 * ROWS,
        );
        assert!(evicted > 0 && inner.stored() > 0);
        assert!(inserts <= chunks + crossings, "{inserts} inserts");
        assert!(removes <= crossings * 2, "{removes} removes");
    }
}
