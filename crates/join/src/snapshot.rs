//! Checkpointable operator state.
//!
//! The checkpoint subsystem snapshots every stateful operator at barrier
//! alignment and restores it on recovery. [`Snapshot`] is the one contract
//! both sides share: `snapshot_state` must be **deterministic** (two
//! operators holding equal logical state serialize byte-identically —
//! hash-map iteration order is sorted away), because recovery correctness
//! is verified by comparing post-recovery snapshots against a no-failure
//! run.
//!
//! Operators serialize the *minimal* state others can't rederive:
//!
//! * [`crate::DBToasterJoin`] writes only its **base** (singleton-view)
//!   tuples; restore replays them through the delta path, rebuilding every
//!   intermediate view — higher-order views are a pure function of the
//!   bases.
//! * [`crate::WindowJoin`] writes its wrapped join's blob: the live window
//!   rows *are* that join's base state. Restore rebuilds the buffers in
//!   timestamp order and each frontier as the newest live timestamp.
//! * [`crate::GroupByAggregator`] writes its raw accumulators — AVG is not
//!   invertible from the published rows, so group state ships as-is.

use squall_common::codec::{self, Reader};
use squall_common::{Result, Tuple};

/// Serialize/restore an operator's state for checkpointing.
///
/// `restore_state` is always called on a **freshly constructed** operator
/// (same spec, empty state); implementations may rely on that rather than
/// clearing first.
pub trait Snapshot {
    /// Append this operator's state to `buf`, deterministically: equal
    /// logical state ⇒ equal bytes, regardless of arrival order.
    fn snapshot_state(&self, buf: &mut Vec<u8>);

    /// Rebuild state from a reader positioned at bytes written by
    /// [`Snapshot::snapshot_state`] on an operator of the same shape.
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()>;
}

/// The full-history join blob — per relation, its signed base rows:
/// `u32 n_rels · (u32 n · (tuple, i64 multiplicity)*)*`, each relation's
/// rows written in tuple order so equal state means equal bytes. What a
/// [`crate::DBToasterJoin`] snapshot is, and what the checkpoint store
/// reads and rewrites when it rebuilds a lost task's blob from its peers.
impl Snapshot for Vec<Vec<(Tuple, i64)>> {
    fn snapshot_state(&self, buf: &mut Vec<u8>) {
        codec::put_u32(buf, self.len() as u32);
        for rows in self {
            let mut sorted: Vec<&(Tuple, i64)> = rows.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            codec::put_u32(buf, sorted.len() as u32);
            for (t, m) in sorted {
                codec::put_tuple(buf, t);
                codec::put_i64(buf, *m);
            }
        }
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        let n_rels = r.len()?;
        self.reserve(n_rels);
        for _ in 0..n_rels {
            let n = r.len()?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let t = codec::get_tuple(r)?;
                rows.push((t, r.i64()?));
            }
            self.push(rows);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::window::WindowSpec;
    use crate::{DBToasterJoin, GroupByAggregator, LocalJoin, WindowJoin};
    use squall_common::{tuple, DataType, Schema, SplitMix64, Tuple};
    use squall_expr::{JoinAtom, MultiJoinSpec, RelationDef};

    fn chain3() -> MultiJoinSpec {
        let mk = |n: &str| {
            RelationDef::new(n, Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]), 0)
        };
        MultiJoinSpec::new(
            vec![mk("R"), mk("S"), mk("T")],
            vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)],
        )
        .unwrap()
    }

    fn snap(s: &impl Snapshot) -> Vec<u8> {
        let mut buf = Vec::new();
        s.snapshot_state(&mut buf);
        buf
    }

    fn restore<S: Snapshot>(s: &mut S, bytes: &[u8]) {
        let mut r = Reader::new(bytes);
        s.restore_state(&mut r).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn dbtoaster_roundtrips_and_keeps_behaviour() {
        let spec = chain3();
        let mut j = DBToasterJoin::new(&spec);
        let mut rng = SplitMix64::new(7);
        let mut discard = Vec::new();
        let mut inserted: Vec<(usize, Tuple)> = Vec::new();
        for _ in 0..80 {
            let rel = rng.next_below(3);
            let t = tuple![rng.next_range(0, 5), rng.next_range(0, 5)];
            inserted.push((rel, t.clone()));
            j.delta(rel, &t, 1, &mut discard);
            discard.clear();
        }
        // A few retractions so signed multiplicities are exercised.
        for i in [3usize, 10, 25] {
            let (rel, t) = inserted[i].clone();
            j.delta(rel, &t, -1, &mut discard);
            discard.clear();
        }
        let bytes = snap(&j);
        let mut restored = DBToasterJoin::new(&spec);
        restore(&mut restored, &bytes);
        // Byte-identical re-snapshot (the recovery acceptance criterion).
        assert_eq!(snap(&restored), bytes);
        // And identical behaviour on the next delta.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        j.delta(1, &tuple![2, 3], 1, &mut a);
        restored.delta(1, &tuple![2, 3], 1, &mut b);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(j.stored(), restored.stored());
    }

    #[test]
    fn dbtoaster_bytes_follow_state_not_history() {
        // Interleaved inserts and removes: duplicates come and go and
        // freed view slots are refilled, so the views' internal order is
        // far from arrival order. The blob must not show it.
        let spec = chain3();
        let mut j = DBToasterJoin::new(&spec);
        let mut rng = SplitMix64::new(23);
        let mut live: Vec<(usize, Tuple)> = Vec::new();
        let mut discard = Vec::new();
        for step in 0..300 {
            if step % 3 == 2 {
                let (rel, t) = live.swap_remove(rng.next_below(live.len()));
                j.remove(rel, &t, &[1]);
            } else {
                let rel = rng.next_below(3);
                let t = tuple![rng.next_range(0, 4), rng.next_range(0, 4)];
                j.insert(rel, &t, &mut discard);
                live.push((rel, t));
            }
        }
        let bytes = snap(&j);
        // The same rows, inserted once each in sorted order ...
        live.sort();
        let mut fresh = DBToasterJoin::new(&spec);
        for (rel, t) in &live {
            fresh.insert(*rel, t, &mut discard);
        }
        assert_eq!(snap(&fresh), bytes);
        assert_eq!(fresh.stored(), j.stored());
        // ... and the same blob restored.
        let mut restored = DBToasterJoin::new(&spec);
        restore(&mut restored, &bytes);
        assert_eq!(snap(&restored), bytes);
        assert_eq!(restored.stored(), j.stored());
    }

    #[test]
    fn empty_dbtoaster_roundtrips() {
        let spec = chain3();
        let j = DBToasterJoin::new(&spec);
        let bytes = snap(&j);
        let mut restored = DBToasterJoin::new(&spec);
        restore(&mut restored, &bytes);
        assert_eq!(snap(&restored), bytes);
        assert_eq!(restored.stored(), 0);
    }

    #[test]
    fn window_join_roundtrips_live_buffers() {
        let s = Schema::of(&[("a", DataType::Int), ("ts", DataType::Int)]);
        let spec = MultiJoinSpec::new(
            vec![RelationDef::new("R", s.clone(), 0), RelationDef::new("S", s, 0)],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap();
        // Sliding, and tumbling snapshotted mid-window (ts 39 sits inside
        // bucket [32, 48)): the blob carries the live rows only, so the
        // restored join must find its bucket and frontiers from those alone.
        for wspec in [WindowSpec::Sliding { size: 10 }, WindowSpec::Tumbling { width: 16 }] {
            let mk = || WindowJoin::event_time(DBToasterJoin::new(&spec), wspec, &[2, 2], &[1, 1]);
            let arrival = |ts: u64| ((ts % 2) as usize, tuple![(ts % 3) as i64, ts as i64]);
            let mut w = mk();
            let mut discard = Vec::new();
            for ts in 0..40u64 {
                let (rel, t) = arrival(ts);
                w.insert_weighted(rel, ts, &t, &mut discard, |_, _| {});
                discard.clear();
            }
            let bytes = snap(&w);
            let mut restored = mk();
            restore(&mut restored, &bytes);
            assert_eq!(snap(&restored), bytes, "{wspec:?}");
            assert_eq!(w.live_tuples(), restored.live_tuples(), "{wspec:?}");
            // Same results for every later arrival, through the rest of the
            // window and across the next boundary (probes the rebuilt inner
            // state and the restored frontiers/eviction alike).
            for ts in 40..60u64 {
                let (rel, t) = arrival(ts);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                w.insert_weighted(rel, ts, &t, &mut a, |_, _| {});
                restored.insert_weighted(rel, ts, &t, &mut b, |_, _| {});
                a.sort();
                b.sort();
                assert_eq!(a, b, "{wspec:?} at ts {ts}");
                assert_eq!(w.inner().stored(), restored.inner().stored(), "{wspec:?} at ts {ts}");
            }
            assert_eq!(snap(&restored), snap(&w), "{wspec:?}");
        }
    }

    #[test]
    fn aggregator_roundtrips_avg_state() {
        let mk = || {
            GroupByAggregator::new(
                vec![0],
                vec![
                    AggSpec::count(),
                    AggSpec::sum_col(1),
                    AggSpec::avg(squall_expr::ScalarExpr::col(1)),
                ],
            )
        };
        let mut agg = mk();
        let mut rng = SplitMix64::new(11);
        for _ in 0..50 {
            agg.update(&tuple![rng.next_range(0, 4), rng.next_range(0, 100)]).unwrap();
        }
        agg.retract(&tuple![1, 5]).unwrap();
        let bytes = snap(&agg);
        let mut restored = mk();
        restore(&mut restored, &bytes);
        assert_eq!(snap(&restored), bytes);
        assert_eq!(agg.snapshot(), restored.snapshot());
        // Continued updates agree (AVG needs the raw sums, not the rows).
        let a = agg.update(&tuple![2, 7]).unwrap();
        let b = restored.update(&tuple![2, 7]).unwrap();
        assert_eq!(a, b);
    }
}
