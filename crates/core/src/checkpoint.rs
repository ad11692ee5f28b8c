//! Checkpoint storage and §5 peer-replica reconstruction.
//!
//! The standing-view checkpoint protocol (see [`crate::standing`]) flows an
//! aligned barrier through the data plane every
//! [`checkpoint_interval`](crate::MultiwayConfig::checkpoint_interval)
//! epochs; at alignment every stateful operator serializes its state (the
//! [`squall_join::Snapshot`] contract) and ships the blob to the
//! coordinator. This module is the coordinator side: the
//! [`CheckpointStore`] collects blobs per epoch, knows when a checkpoint is
//! *complete* (every join task plus the view sink reported), and hands a
//! [`RestoreState`] to recovery.
//!
//! It also implements the paper's §5 observation as a store feature: "if
//! the partitioning scheme replicates tuples, a failed node can recover its
//! state from some of its peers rather than from a disk checkpoint".
//! When the newest checkpoint is missing exactly the blobs of a lost
//! worker, [`CheckpointStore::reconstruct_newest`] rebuilds them from the
//! surviving replicas' blobs — provided the scheme's replication makes that
//! sound — instead of falling back to an older complete checkpoint.

use std::collections::BTreeMap;

use squall_common::codec::Reader;
use squall_common::{FxHashMap, Result, SplitMix64, Tuple};
use squall_join::Snapshot;
use squall_partition::hypercube::DimRole;
use squall_partition::HypercubeScheme;

/// Blob role byte: a join bolt's state.
pub const ROLE_JOIN: u8 = 0;
/// Blob role byte: the view sink's state.
pub const ROLE_SINK: u8 = 1;

/// Join-blob tag byte: full-history join (base relations only — the format
/// peer reconstruction understands).
pub const JOIN_BLOB_FULL: u8 = 0;
/// Join-blob tag byte: windowed join (opaque buffers; restorable but not
/// peer-reconstructable).
pub const JOIN_BLOB_WINDOWED: u8 = 1;

/// One snapshot blob in flight from an operator to the coordinator:
/// `(role, task, epoch, payload)`.
pub type SnapshotBlobMsg = (u8, usize, u64, Vec<u8>);

/// The blobs collected for one checkpoint epoch.
#[derive(Debug, Default, Clone)]
struct EpochBlobs {
    /// Join-task id → serialized join state (tag byte + snapshot bytes).
    join: FxHashMap<usize, Vec<u8>>,
    /// The view sink's serialized state.
    sink: Option<Vec<u8>>,
}

/// Everything needed to restart a standing view from a checkpoint.
#[derive(Debug, Default, Clone)]
pub struct RestoreState {
    /// The checkpoint's epoch: operators resume holding state *through*
    /// this epoch, and the sink dedups replays at it.
    pub epoch: u64,
    /// Join-task id → blob, for every join task.
    pub join: FxHashMap<usize, Vec<u8>>,
    /// The view sink's blob.
    pub sink: Option<Vec<u8>>,
}

/// Coordinator-side store of checkpoint blobs, newest epochs last.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    epochs: BTreeMap<u64, EpochBlobs>,
    n_join_tasks: usize,
}

impl CheckpointStore {
    /// A store expecting `n_join_tasks` join blobs (plus one sink blob) per
    /// complete checkpoint.
    pub fn new(n_join_tasks: usize) -> CheckpointStore {
        CheckpointStore { epochs: BTreeMap::new(), n_join_tasks }
    }

    /// File one blob. Unknown roles are ignored (forward compatibility);
    /// re-sent blobs overwrite.
    pub fn insert(&mut self, (role, task, epoch, payload): SnapshotBlobMsg) {
        let slot = self.epochs.entry(epoch).or_default();
        match role {
            ROLE_JOIN => {
                slot.join.insert(task, payload);
            }
            ROLE_SINK => slot.sink = Some(payload),
            _ => {}
        }
    }

    /// Whether every expected blob for `epoch` arrived.
    pub fn is_complete(&self, epoch: u64) -> bool {
        self.epochs
            .get(&epoch)
            .is_some_and(|b| b.sink.is_some() && b.join.len() >= self.n_join_tasks)
    }

    /// The newest epoch with a complete blob set.
    pub fn latest_complete(&self) -> Option<u64> {
        self.epochs.keys().rev().copied().find(|&e| self.is_complete(e))
    }

    /// The newest epoch any blob arrived for (complete or not).
    pub fn newest(&self) -> Option<u64> {
        self.epochs.keys().next_back().copied()
    }

    /// Assemble the restore state of a complete checkpoint.
    pub fn restore_state(&self, epoch: u64) -> Option<RestoreState> {
        if !self.is_complete(epoch) {
            return None;
        }
        let blobs = self.epochs.get(&epoch)?;
        Some(RestoreState { epoch, join: blobs.join.clone(), sink: blobs.sink.clone() })
    }

    /// Drop every checkpoint older than `keep_from` (bounded storage: once
    /// a newer checkpoint completes, older ones are never restored).
    pub fn trim_below(&mut self, keep_from: u64) {
        self.epochs = self.epochs.split_off(&keep_from);
    }

    /// §5 peer-replica reconstruction: complete the newest (partial)
    /// checkpoint from surviving replicas' blobs, without falling back to
    /// an older epoch. Returns the completed epoch when reconstruction was
    /// sound and succeeded.
    ///
    /// Soundness requires that routing is reproducible (no
    /// [`DimRole::Random`] axes — standing views pin the Hash scheme, which
    /// guarantees this), every present join blob is a full-history blob,
    /// the sink blob arrived (the sink lives on the coordinator), and every
    /// *replica group* (machines agreeing on all non-Spread coordinates)
    /// that lost a member kept at least one member with a blob — otherwise
    /// some tuples are unrecoverable from peers and an older complete
    /// checkpoint must be used instead.
    pub fn reconstruct_newest(&mut self, scheme: &HypercubeScheme, n_rels: usize) -> Option<u64> {
        let epoch = self.newest()?;
        if self.is_complete(epoch) {
            return Some(epoch);
        }
        let blobs = self.epochs.get(&epoch)?;
        blobs.sink.as_ref()?;
        if scheme.roles.iter().flatten().any(|r| matches!(r, DimRole::Random)) {
            return None; // routing not reproducible offline
        }
        if blobs.join.values().any(|b| b.first() != Some(&JOIN_BLOB_FULL)) {
            return None; // windowed blobs are opaque to peers
        }
        let routed = scheme.machines();
        let missing: Vec<usize> =
            (0..self.n_join_tasks).filter(|t| !blobs.join.contains_key(t)).collect();
        for rel in 0..n_rels {
            if !replica_groups_covered(scheme, rel, &missing, &blobs.join) {
                return None;
            }
        }

        // Union the surviving stores and re-derive every tuple's placement
        // with the scheme's (deterministic) routing.
        let mut stored: FxHashMap<(usize, Tuple), i64> = FxHashMap::default();
        for (&task, blob) in &blobs.join {
            if task >= routed {
                continue;
            }
            let rels = parse_full_blob(blob).ok()?;
            for (rel, rows) in rels.into_iter().enumerate() {
                for (tuple, mult) in rows {
                    stored.entry((rel, tuple)).or_insert(mult);
                }
            }
        }
        let mut tracker = PlacementTracker::default();
        let mut rng = SplitMix64::new(0);
        let mut out = Vec::new();
        for (rel, tuple) in stored.keys() {
            scheme.route(*rel, tuple, &mut rng, &mut out);
            tracker.record(*rel, tuple, &out);
        }

        let mut rebuilt: Vec<(usize, Vec<u8>)> = Vec::new();
        for &task in &missing {
            let mut rows: Vec<Vec<(Tuple, i64)>> = vec![Vec::new(); n_rels];
            if task < routed {
                let plan = tracker.plan_recovery(task);
                if !plan.unrecoverable.is_empty() {
                    return None;
                }
                for r in plan.recovered {
                    let mult = *stored.get(&(r.rel, r.tuple.clone()))?;
                    rows[r.rel].push((r.tuple, mult));
                }
            }
            // Byte-identical to what the lost join task itself would have
            // produced: the tag, then the same base-rows snapshot.
            let mut blob = vec![JOIN_BLOB_FULL];
            rows.snapshot_state(&mut blob);
            rebuilt.push((task, blob));
        }
        let slot = self.epochs.get_mut(&epoch)?;
        for (task, blob) in rebuilt {
            slot.join.insert(task, blob);
        }
        Some(epoch)
    }
}

// ---------------------------------------------------------------------
// §5 peer-recovery planning
// ---------------------------------------------------------------------

/// Where one lost tuple can be re-fetched from.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RecoveredTuple {
    rel: usize,
    tuple: Tuple,
    /// A peer machine holding a replica.
    from_peer: usize,
}

/// The outcome of planning recovery for one failed machine. §5: "if a
/// machine with coordinates {1,1,1} fails, we can recover its state from
/// any machine {1,*,*} (for R), {*,1,*} (for S) and {*,*,1} (for T)."
#[derive(Debug, Default)]
struct RecoveryPlan {
    /// Tuples recoverable from peers, with a chosen donor each.
    recovered: Vec<RecoveredTuple>,
    /// Tuples stored only on the failed machine (peer recovery
    /// impossible; an older complete checkpoint is needed — the §5
    /// trade-off).
    unrecoverable: Vec<(usize, Tuple)>,
}

/// Where every routed tuple lives, exactly as the scheme placed it.
#[derive(Debug, Default)]
struct PlacementTracker {
    /// `(rel, tuple)` → machines holding a replica.
    placements: FxHashMap<(usize, Tuple), Vec<usize>>,
}

impl PlacementTracker {
    /// Record one routing decision (the target list a scheme produced).
    fn record(&mut self, rel: usize, tuple: &Tuple, machines: &[usize]) {
        self.placements.entry((rel, tuple.clone())).or_default().extend_from_slice(machines);
    }

    /// Plan recovery of `failed`: every lost tuple is sourced from the
    /// lowest-numbered surviving replica.
    fn plan_recovery(&self, failed: usize) -> RecoveryPlan {
        let mut plan = RecoveryPlan::default();
        for ((rel, tuple), machines) in &self.placements {
            if !machines.contains(&failed) {
                continue;
            }
            match machines.iter().copied().filter(|&m| m != failed).min() {
                Some(peer) => plan.recovered.push(RecoveredTuple {
                    rel: *rel,
                    tuple: tuple.clone(),
                    from_peer: peer,
                }),
                None => plan.unrecoverable.push((*rel, tuple.clone())),
            }
        }
        plan.recovered.sort_by(|a, b| (a.rel, &a.tuple).cmp(&(b.rel, &b.tuple)));
        plan.unrecoverable.sort();
        plan
    }
}

/// True when, for `rel`, every replica group containing a missing task also
/// contains a surviving task with a blob. A replica group is the set of
/// machines agreeing on every non-Spread coordinate — exactly the replica
/// set of the tuples routed there (Spread axes replicate across all their
/// coordinates, §5).
fn replica_groups_covered(
    scheme: &HypercubeScheme,
    rel: usize,
    missing: &[usize],
    present: &FxHashMap<usize, Vec<u8>>,
) -> bool {
    let routed = scheme.machines();
    let group_of = |m: usize| -> Vec<usize> {
        coords(scheme, m)
            .into_iter()
            .zip(&scheme.roles[rel])
            .filter(|(_, role)| !matches!(role, DimRole::Spread))
            .map(|(c, _)| c)
            .collect()
    };
    let mut lost_groups: Vec<Vec<usize>> =
        missing.iter().filter(|&&m| m < routed).map(|&m| group_of(m)).collect();
    lost_groups.sort();
    lost_groups.dedup();
    if lost_groups.is_empty() {
        return true;
    }
    let covered: std::collections::HashSet<Vec<usize>> =
        present.keys().filter(|&&m| m < routed).map(|&m| group_of(m)).collect();
    lost_groups.iter().all(|g| covered.contains(g))
}

/// A machine's hypercube coordinates (row-major, matching the scheme's
/// routing strides).
fn coords(scheme: &HypercubeScheme, machine: usize) -> Vec<usize> {
    let mut strides = vec![1usize; scheme.dims.len()];
    for i in (0..scheme.dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * scheme.dims[i + 1].size;
    }
    scheme.dims.iter().zip(&strides).map(|(dim, stride)| (machine / stride) % dim.size).collect()
}

/// Parse a full-history join blob (tag byte + the base rows a
/// [`squall_join::DBToasterJoin`] snapshots) into per-relation
/// `(tuple, multiplicity)` rows.
fn parse_full_blob(blob: &[u8]) -> Result<Vec<Vec<(Tuple, i64)>>> {
    let mut r = Reader::new(blob);
    if r.u8()? != JOIN_BLOB_FULL {
        return Err(squall_common::SquallError::Codec("not a full-history join blob".into()));
    }
    let mut rels = Vec::new();
    rels.restore_state(&mut r)?;
    r.finish()?;
    Ok(rels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq, prop_assert_ne};
    use squall_common::{tuple, DataType, Schema};
    use squall_expr::{JoinAtom, MultiJoinSpec, RelationDef};
    use squall_join::DBToasterJoin;
    use squall_partition::hypercube::{Dimension, PartitionKind};

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

    /// A 2×2 hash cube over the chain: R spreads over z, T spreads over y,
    /// S is hashed on both (fully partitioned — the §5 unsound case).
    fn hash_cube() -> HypercubeScheme {
        HypercubeScheme::new(
            3,
            vec![
                Dimension {
                    name: "y".into(),
                    size: 2,
                    kind: PartitionKind::Hash,
                    members: vec![(0, 1), (1, 0)],
                },
                Dimension {
                    name: "z".into(),
                    size: 2,
                    kind: PartitionKind::Hash,
                    members: vec![(1, 1), (2, 0)],
                },
            ],
            3,
        )
    }

    fn join_blob(j: &DBToasterJoin) -> Vec<u8> {
        let mut buf = vec![JOIN_BLOB_FULL];
        j.snapshot_state(&mut buf);
        buf
    }

    /// Route `n` tuples per relation into per-machine joins and return each
    /// machine's blob.
    fn routed_blobs(scheme: &HypercubeScheme, n: usize) -> Vec<Vec<u8>> {
        let spec = chain3();
        let mut joins: Vec<DBToasterJoin> =
            (0..scheme.machines()).map(|_| DBToasterJoin::new(&spec)).collect();
        let mut rng = squall_common::SplitMix64::new(9);
        let mut out = Vec::new();
        let mut discard = Vec::new();
        for rel in 0..3 {
            for i in 0..n {
                let t = tuple![i as i64 % 5, (i * 31 % 7) as i64];
                scheme.route(rel, &t, &mut rng, &mut out);
                for &m in &out {
                    joins[m].delta(rel, &t, 1, &mut discard);
                    discard.clear();
                }
            }
        }
        joins.iter().map(join_blob).collect()
    }

    #[test]
    fn store_tracks_completeness_and_trims() {
        let mut store = CheckpointStore::new(2);
        store.insert((ROLE_JOIN, 0, 4, vec![1]));
        store.insert((ROLE_JOIN, 1, 4, vec![2]));
        assert!(!store.is_complete(4), "sink blob still missing");
        store.insert((ROLE_SINK, 0, 4, vec![3]));
        assert!(store.is_complete(4));
        store.insert((ROLE_JOIN, 0, 8, vec![4]));
        assert_eq!(store.latest_complete(), Some(4));
        assert_eq!(store.newest(), Some(8));
        let rs = store.restore_state(4).unwrap();
        assert_eq!(rs.epoch, 4);
        assert_eq!(rs.join[&1], vec![2]);
        assert_eq!(rs.sink, Some(vec![3]));
        store.trim_below(8);
        assert_eq!(store.latest_complete(), None);
        assert_eq!(store.newest(), Some(8));
    }

    #[test]
    fn blob_parse_serialize_roundtrips_dbtoaster_bytes() {
        let spec = chain3();
        let mut j = DBToasterJoin::new(&spec);
        let mut discard = Vec::new();
        for i in 0..30i64 {
            j.delta((i % 3) as usize, &tuple![i % 4, i % 6], 1, &mut discard);
            discard.clear();
        }
        let blob = join_blob(&j);
        let rels = parse_full_blob(&blob).unwrap();
        // Through hash maps and back: row order within a relation is lost.
        let maps: Vec<FxHashMap<Tuple, i64>> =
            rels.into_iter().map(|rows| rows.into_iter().collect()).collect();
        let rels: Vec<Vec<(Tuple, i64)>> =
            maps.into_iter().map(|rows| rows.into_iter().collect()).collect();
        let mut again = vec![JOIN_BLOB_FULL];
        rels.snapshot_state(&mut again);
        assert_eq!(again, blob, "byte-identical re-serialization");
    }

    #[test]
    fn reconstructs_lost_replicated_blobs_byte_identically() {
        let scheme = hash_cube();
        let blobs = routed_blobs(&scheme, 40);
        // A one-task-per-machine layout; lose machine 3, but keep S sound:
        // S tuples on machine 3 exist nowhere else, so first check the
        // gate rejects, then lose only replicated state.
        let mut store = CheckpointStore::new(4);
        for (task, blob) in blobs.iter().enumerate() {
            if task != 3 {
                store.insert((ROLE_JOIN, task, 4, blob.clone()));
            }
        }
        store.insert((ROLE_SINK, 0, 4, vec![7]));
        assert_eq!(
            store.reconstruct_newest(&scheme, 3),
            None,
            "S is fully partitioned: losing a machine loses S tuples irrecoverably"
        );

        // Fully replicated cube (Spread on every axis for every relation):
        // any single loss is recoverable.
        let spread = HypercubeScheme::new(
            3,
            vec![
                Dimension {
                    name: "~a".into(),
                    size: 2,
                    kind: PartitionKind::Random,
                    members: vec![],
                },
                Dimension {
                    name: "~b".into(),
                    size: 2,
                    kind: PartitionKind::Random,
                    members: vec![],
                },
            ],
            1,
        );
        assert!(
            spread.roles.iter().flatten().all(|r| matches!(r, DimRole::Spread)),
            "dimensions without members spread every relation"
        );
        let blobs = routed_blobs(&spread, 25);
        let mut store = CheckpointStore::new(4);
        for (task, blob) in blobs.iter().enumerate() {
            if task != 2 {
                store.insert((ROLE_JOIN, task, 6, blob.clone()));
            }
        }
        store.insert((ROLE_SINK, 0, 6, vec![9]));
        assert_eq!(store.reconstruct_newest(&spread, 3), Some(6));
        let rs = store.restore_state(6).unwrap();
        assert_eq!(rs.join[&2], blobs[2], "rebuilt blob is byte-identical to the lost one");
    }

    #[test]
    fn tasks_beyond_the_scheme_get_empty_blobs() {
        let scheme = hash_cube();
        let blobs = routed_blobs(&scheme, 10);
        // 6 join tasks but the scheme only routes to 4: tasks 4 and 5 are
        // empty; losing one is always reconstructable.
        let mut store = CheckpointStore::new(6);
        for (task, blob) in blobs.iter().enumerate() {
            store.insert((ROLE_JOIN, task, 2, blob.clone()));
        }
        store.insert((ROLE_JOIN, 4, 2, join_blob(&DBToasterJoin::new(&chain3()))));
        store.insert((ROLE_SINK, 0, 2, vec![1]));
        assert_eq!(store.reconstruct_newest(&scheme, 3), Some(2));
        let rs = store.restore_state(2).unwrap();
        assert_eq!(rs.join[&5], join_blob(&DBToasterJoin::new(&chain3())));
    }

    /// Fig. 2b Random-Hypercube 2×2×2 (8 machines) — every relation
    /// replicated 4×.
    fn random_cube() -> HypercubeScheme {
        let dim = |name: &str, rel: usize| Dimension {
            name: name.into(),
            size: 2,
            kind: PartitionKind::Random,
            members: vec![(rel, 0)],
        };
        HypercubeScheme::new(3, vec![dim("~R", 0), dim("~S", 1), dim("~T", 2)], 3)
    }

    fn place(scheme: &HypercubeScheme, n: usize) -> PlacementTracker {
        let mut tracker = PlacementTracker::default();
        let mut rng = SplitMix64::new(7);
        let mut out = vec![];
        for rel in 0..3 {
            for i in 0..n {
                let t = tuple![i as i64, (i * 31 % 17) as i64];
                scheme.route(rel, &t, &mut rng, &mut out);
                tracker.record(rel, &t, &out);
            }
        }
        tracker
    }

    /// The `(rel, tuple)` pairs `machine` holds, sorted.
    fn lost_on(tracker: &PlacementTracker, machine: usize) -> Vec<(usize, Tuple)> {
        let mut out: Vec<(usize, Tuple)> = tracker
            .placements
            .iter()
            .filter(|(_, ms)| ms.contains(&machine))
            .map(|(key, _)| key.clone())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn random_hypercube_fully_peer_recoverable() {
        // §5: "if a machine with coordinates {1,1,1} fails, we can recover
        // its state from any machine {1,*,*} (for R), {*,1,*} (for S) ..."
        let scheme = random_cube();
        let tracker = place(&scheme, 50);
        for failed in 0..scheme.machines() {
            let plan = tracker.plan_recovery(failed);
            assert!(
                plan.unrecoverable.is_empty(),
                "machine {failed}: {} unrecoverable",
                plan.unrecoverable.len()
            );
            let lost = lost_on(&tracker, failed).len();
            assert_eq!(plan.recovered.len(), lost, "all lost tuples recovered");
            for r in &plan.recovered {
                assert_ne!(r.from_peer, failed);
            }
        }
    }

    #[test]
    fn hash_hypercube_partitioned_relation_needs_checkpoint() {
        // S is hashed on both dimensions → stored on exactly one machine:
        // peer recovery cannot restore it. R and T (replicated across one
        // axis) are recoverable.
        let scheme = hash_cube();
        let tracker = place(&scheme, 50);
        let mut s_unrecoverable = 0;
        let mut rt_unrecoverable = 0;
        for failed in 0..scheme.machines() {
            let plan = tracker.plan_recovery(failed);
            for (rel, _) in &plan.unrecoverable {
                if *rel == 1 {
                    s_unrecoverable += 1;
                } else {
                    rt_unrecoverable += 1;
                }
            }
        }
        assert_eq!(rt_unrecoverable, 0, "replicated relations are peer-recoverable");
        assert_eq!(s_unrecoverable, 50, "every S tuple lives on exactly one machine");
    }

    #[test]
    fn donor_is_a_true_replica() {
        let scheme = random_cube();
        let tracker = place(&scheme, 30);
        let plan = tracker.plan_recovery(3);
        for r in &plan.recovered {
            let machines = &tracker.placements[&(r.rel, r.tuple.clone())];
            assert!(machines.contains(&r.from_peer));
            assert!(machines.contains(&3));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 32,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// §5 invariant over arbitrary hypercube shapes — replicating,
        /// partitioning and Spread dimensions alike: `plan_recovery`
        /// splits the failed machine's placement into `recovered` and
        /// `unrecoverable` with no tuple missing, duplicated, or
        /// invented, and every donor is a surviving machine.
        #[test]
        fn plan_exactly_partitions_lost_state(
            dim_codes in proptest::collection::vec(0u64..1000, 1..4),
            seed in 0u64..1000,
            failed_sel in 0u64..1000,
        ) {
            // Each code decodes one dimension: size 1..=3, Hash or
            // Random, and a member relation — or none, which
            // `HypercubeScheme::new` turns into a Spread (replicating)
            // role for every relation.
            let dims: Vec<Dimension> = dim_codes
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let rel = ((c / 6) % 4) as usize;
                    Dimension {
                        name: format!("d{i}"),
                        size: 1 + (c % 3) as usize,
                        kind: if (c / 3) % 2 == 0 {
                            PartitionKind::Hash
                        } else {
                            PartitionKind::Random
                        },
                        members: if rel < 3 { vec![(rel, 0)] } else { Vec::new() },
                    }
                })
                .collect();
            let scheme = HypercubeScheme::new(3, dims, seed);
            let tracker = place(&scheme, 40);
            let failed = (failed_sel as usize) % scheme.machines();

            let lost = lost_on(&tracker, failed);
            let plan = tracker.plan_recovery(failed);
            let mut covered: Vec<(usize, Tuple)> = plan
                .recovered
                .iter()
                .map(|r| (r.rel, r.tuple.clone()))
                .chain(plan.unrecoverable.iter().cloned())
                .collect();
            covered.sort();
            // Union == lost state; lengths match, so with unique
            // placement keys the two halves are also disjoint.
            prop_assert_eq!(covered, lost);
            for r in &plan.recovered {
                prop_assert_ne!(r.from_peer, failed);
                let machines = &tracker.placements[&(r.rel, r.tuple.clone())];
                prop_assert!(machines.contains(&r.from_peer), "donor holds a replica");
            }
        }
    }
}
