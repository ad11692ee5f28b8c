//! Checkpoint storage and §5 peer-replica reconstruction.
//!
//! The standing-view checkpoint protocol (see [`crate::standing`]) flows an
//! aligned barrier through the data plane every
//! [`checkpoint_interval`](crate::MultiwayConfig::checkpoint_interval)
//! epochs; at alignment every stateful operator ships a blob to the
//! coordinator. This module is the coordinator side: the
//! [`CheckpointStore`] collects blobs per epoch, knows when a checkpoint is
//! *complete* (every join task plus the view sink reported), and hands a
//! [`RestoreState`] to recovery.
//!
//! A full-history join task does not ship its state: it ships a
//! [`JOIN_BLOB_DELTA`] — the signed base rows it applied since its previous
//! barrier (`DeltaLog`) — and the store keeps each task's *integral*, the
//! fold of its blobs in epoch order (DBSP: state is the integral of its
//! Z-set deltas). A checkpoint round therefore costs O(batch), not
//! O(history). Canonical [`JOIN_BLOB_FULL`] bytes — byte-identical to what
//! the task's own [`squall_join::Snapshot`] would write — exist only where
//! they are read: [`CheckpointStore::restore_state`] and
//! [`CheckpointStore::reconstruct_newest`]. Windowed join blobs and the
//! sink's blob stay opaque and latest-wins.
//!
//! It also implements the paper's §5 observation as a store feature: "if
//! the partitioning scheme replicates tuples, a failed node can recover its
//! state from some of its peers rather than from a disk checkpoint".
//! When the newest checkpoint is missing exactly the blobs of a lost
//! worker, [`CheckpointStore::reconstruct_newest`] rebuilds them from the
//! surviving replicas' state — provided the scheme's replication makes that
//! sound — instead of falling back to an older complete checkpoint.

use std::collections::BTreeMap;

use squall_common::codec::{self, Reader};
use squall_common::{FxHashMap, Result, SplitMix64, SquallError, Tuple};
use squall_join::Snapshot;
use squall_partition::hypercube::DimRole;
use squall_partition::HypercubeScheme;
use squall_runtime::transport::SnapshotBlobMsg;

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
/// Join-blob tag byte: the signed base rows a full-history join task
/// applied since its previous barrier — `u64 since` (that barrier's epoch,
/// the epoch the task was restored at, or 0 for an empty start), then a
/// full blob's row grammar, unsorted. Only the store reads it.
pub const JOIN_BLOB_DELTA: u8 = 3;

/// A full-history join task's half of the delta chain: the signed base
/// rows it applied since its last barrier, each with its epoch.
pub(crate) struct DeltaLog {
    /// The epoch the next blob continues from.
    since: u64,
    /// Per relation, `(base row, multiplicity, epoch)` in the order applied.
    rels: Vec<Vec<(Tuple, i64, u64)>>,
}

impl DeltaLog {
    /// An empty log for a join of `n_rels` relations whose state is that
    /// of epoch `since` (its restore epoch, or 0).
    pub(crate) fn new(n_rels: usize, since: u64) -> DeltaLog {
        DeltaLog { since, rels: vec![Vec::new(); n_rels] }
    }

    /// Log one delta the task applied. A one-relation DBToaster join keeps
    /// no base view — its snapshot holds no rows — so it logs nothing.
    pub(crate) fn push(&mut self, rel: usize, row: Tuple, mult: i64, epoch: u64) {
        if self.rels.len() > 1 {
            self.rels[rel].push((row, mult, epoch));
        }
    }

    /// The [`JOIN_BLOB_DELTA`] sealing barrier `epoch`: every logged row of
    /// an epoch ≤ `epoch`, which then leaves the log. Rows of later epochs
    /// stay for the next barrier — a source whose barrier arrived early
    /// keeps sending, so a task may apply them before it aligns.
    pub(crate) fn seal(&mut self, epoch: u64) -> Vec<u8> {
        let mut buf = vec![JOIN_BLOB_DELTA];
        codec::put_u64(&mut buf, self.since);
        codec::put_u32(&mut buf, self.rels.len() as u32);
        for rows in &mut self.rels {
            let sealed = |row: &&(Tuple, i64, u64)| row.2 <= epoch;
            codec::put_u32(&mut buf, rows.iter().filter(sealed).count() as u32);
            for (t, m, _) in rows.iter().filter(sealed) {
                codec::put_tuple(&mut buf, t);
                codec::put_i64(&mut buf, *m);
            }
            rows.retain(|row| row.2 > epoch);
        }
        self.since = epoch;
        buf
    }
}

/// A join blob as the store files it.
#[derive(Debug)]
enum JoinBlob {
    /// A full-history task's signed base rows per relation: its whole state
    /// (`since: None`, a [`JOIN_BLOB_FULL`]) or what it applied since epoch
    /// `since` (a [`JOIN_BLOB_DELTA`]).
    Rows { since: Option<u64>, rels: Vec<Vec<(Tuple, i64)>> },
    /// A blob the store cannot fold — a windowed join's buffers — kept as
    /// shipped.
    Opaque(Vec<u8>),
}

impl JoinBlob {
    /// `None` for a full or delta blob that does not parse: the task's
    /// chain then has a gap at this epoch.
    fn parse(payload: Vec<u8>) -> Option<JoinBlob> {
        let mut r = Reader::new(&payload);
        let since = match r.u8() {
            Ok(JOIN_BLOB_FULL) => None,
            Ok(JOIN_BLOB_DELTA) => Some(r.u64().ok()?),
            _ => return Some(JoinBlob::Opaque(payload)),
        };
        let mut rels = Vec::new();
        rels.restore_state(&mut r).ok()?;
        r.finish().ok()?;
        Some(JoinBlob::Rows { since, rels })
    }

    /// Whether this blob continues a chain that reached epoch `at`: a delta
    /// must start where the chain ends; a whole state starts anywhere.
    fn continues(&self, at: u64) -> bool {
        !matches!(self, JoinBlob::Rows { since: Some(s), .. } if *s != at)
    }
}

/// One join task's state as the store holds it.
#[derive(Debug, Clone)]
enum TaskState {
    /// Per relation, base row → multiplicity, no zero entries: the integral
    /// of the task's blobs.
    Rows(Vec<FxHashMap<Tuple, i64>>),
    /// The newest opaque blob.
    Opaque(Vec<u8>),
}

impl Default for TaskState {
    fn default() -> Self {
        TaskState::Rows(Vec::new())
    }
}

impl TaskState {
    /// Fold the next blob of the task's chain in.
    fn fold(&mut self, blob: &JoinBlob) {
        let (since, rels) = match blob {
            JoinBlob::Opaque(bytes) => {
                *self = TaskState::Opaque(bytes.clone());
                return;
            }
            JoinBlob::Rows { since, rels } => (since, rels),
        };
        if since.is_none() || matches!(self, TaskState::Opaque(_)) {
            *self = TaskState::default();
        }
        let TaskState::Rows(integral) = self else { return };
        if integral.len() < rels.len() {
            integral.resize_with(rels.len(), FxHashMap::default);
        }
        for (acc, rows) in integral.iter_mut().zip(rels) {
            for (tuple, d) in rows {
                // `View::update`'s rule: a retraction takes away at most
                // what is stored, and a row at zero is not kept.
                match acc.get_mut(tuple) {
                    Some(m) => {
                        *m = m.saturating_add(*d).max(0);
                        if *m == 0 {
                            acc.remove(tuple);
                        }
                    }
                    None if *d > 0 => {
                        acc.insert(tuple.clone(), *d);
                    }
                    None => {}
                }
            }
        }
    }

    /// The blob a restore reads: canonical [`JOIN_BLOB_FULL`] bytes for an
    /// integral, the stored bytes for an opaque state.
    fn blob(&self) -> Vec<u8> {
        match self {
            TaskState::Opaque(bytes) => bytes.clone(),
            TaskState::Rows(integral) => {
                let rels: Vec<Vec<(Tuple, i64)>> = integral
                    .iter()
                    .map(|rows| rows.iter().map(|(t, &m)| (t.clone(), m)).collect())
                    .collect();
                let mut buf = vec![JOIN_BLOB_FULL];
                rels.snapshot_state(&mut buf);
                buf
            }
        }
    }
}

/// The blobs collected for one checkpoint epoch and not yet folded.
#[derive(Debug, Default)]
struct EpochBlobs {
    /// Join-task id → its blob.
    join: FxHashMap<usize, JoinBlob>,
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

/// Coordinator-side store of checkpoint blobs: every join task's state at
/// a folded *base* epoch, and the blobs of later epochs on top of it.
///
/// An epoch is complete when its sink blob is in and every join task's
/// chain runs unbroken from the base to a blob at that epoch (each delta's
/// `since` names the epoch it continues; a gap is never folded over).
#[derive(Debug, Default)]
pub struct CheckpointStore {
    n_join_tasks: usize,
    /// The folded epoch `tasks` and `sink` hold (0: the empty start).
    base: u64,
    /// Whether `base` is a checkpoint recovery may still restore (not at
    /// the empty start, nor once trimmed below).
    restorable: bool,
    /// Join-task id → its state at `base` (absent: empty).
    tasks: FxHashMap<usize, TaskState>,
    /// The sink blob at `base`.
    sink: Option<Vec<u8>>,
    /// Blobs of epochs above `base`, waiting to be folded.
    pending: BTreeMap<u64, EpochBlobs>,
}

impl CheckpointStore {
    /// A store expecting `n_join_tasks` join blobs (plus one sink blob) per
    /// complete checkpoint.
    pub fn new(n_join_tasks: usize) -> CheckpointStore {
        CheckpointStore { n_join_tasks, ..CheckpointStore::default() }
    }

    /// File one blob. Unknown roles are ignored (forward compatibility);
    /// re-sent blobs overwrite, and blobs at or below the folded epoch
    /// change nothing.
    pub fn insert(&mut self, (role, task, epoch, payload): SnapshotBlobMsg) {
        if epoch <= self.base {
            return;
        }
        let slot = self.pending.entry(epoch).or_default();
        match role {
            ROLE_JOIN => {
                slot.join.remove(&task);
                if let Some(blob) = JoinBlob::parse(payload) {
                    slot.join.insert(task, blob);
                }
            }
            ROLE_SINK => slot.sink = Some(payload),
            _ => {}
        }
    }

    /// The blobs on `task`'s chain from the base through `epoch`, oldest
    /// first; `None` when a gap stops the chain short of `epoch`.
    fn chain(&self, task: usize, epoch: u64) -> Option<Vec<&JoinBlob>> {
        let mut at = self.base;
        let mut links = Vec::new();
        for (&e, blobs) in self.pending.range(..=epoch) {
            if let Some(blob) = blobs.join.get(&task).filter(|b| b.continues(at)) {
                links.push(blob);
                at = e;
            }
        }
        (at == epoch).then_some(links)
    }

    /// `task`'s state at `epoch`, if its chain reaches it.
    fn state_at(&self, task: usize, epoch: u64) -> Option<TaskState> {
        let links = self.chain(task, epoch)?;
        let mut state = self.tasks.get(&task).cloned().unwrap_or_default();
        for blob in links {
            state.fold(blob);
        }
        Some(state)
    }

    /// Whether every expected blob for `epoch` arrived: the sink's, and
    /// every join task's chain up to it.
    fn is_complete(&self, epoch: u64) -> bool {
        if epoch == self.base {
            return self.restorable;
        }
        self.pending.get(&epoch).is_some_and(|b| b.sink.is_some())
            && (0..self.n_join_tasks).all(|task| self.chain(task, epoch).is_some())
    }

    /// The newest epoch with a complete blob set.
    pub fn latest_complete(&self) -> Option<u64> {
        let pending = self.pending.keys().rev().copied();
        pending.chain(self.restorable.then_some(self.base)).find(|&e| self.is_complete(e))
    }

    /// The newest epoch any blob arrived for (complete or not).
    pub fn newest(&self) -> Option<u64> {
        self.pending.keys().next_back().copied().or((self.base > 0).then_some(self.base))
    }

    /// Assemble the restore state of a complete checkpoint.
    pub fn restore_state(&self, epoch: u64) -> Option<RestoreState> {
        if !self.is_complete(epoch) {
            return None;
        }
        let join = (0..self.n_join_tasks)
            .filter_map(|task| Some((task, self.state_at(task, epoch)?.blob())))
            .collect();
        let sink = match self.pending.get(&epoch) {
            Some(blobs) => blobs.sink.clone(),
            None => self.sink.clone(),
        };
        Some(RestoreState { epoch, join, sink })
    }

    /// Drop every checkpoint older than `keep_from` (once a newer one
    /// completes, older ones are never restored) by folding every task's
    /// chain through the newest complete epoch up to `keep_from` into its
    /// integral. The integral stays, restorable or not: later blobs
    /// continue from it.
    pub fn trim_below(&mut self, keep_from: u64) {
        let mut below = self.pending.range(..=keep_from).rev().map(|(&e, _)| e);
        if let Some(epoch) = below.find(|&e| self.is_complete(e)) {
            let mut tasks = std::mem::take(&mut self.tasks);
            for task in 0..self.n_join_tasks {
                let state = tasks.entry(task).or_default();
                for blob in self.chain(task, epoch).into_iter().flatten() {
                    state.fold(blob);
                }
            }
            self.tasks = tasks;
            let later = self.pending.split_off(&(epoch + 1));
            let folded = std::mem::replace(&mut self.pending, later);
            self.sink = folded.into_values().next_back().and_then(|blobs| blobs.sink);
            self.base = epoch;
            self.restorable = true;
        }
        self.restorable &= self.base >= keep_from;
    }

    /// A relaunch resumes at `epoch` — the checkpoint it restored, or 0
    /// for the initial load: fold through it and forget every blob above
    /// it. The old run's chains end there; the new run's continue from
    /// `epoch`.
    pub fn restart_at(&mut self, epoch: u64) {
        self.trim_below(epoch);
        if self.base != epoch {
            *self = CheckpointStore::new(self.n_join_tasks);
        }
        self.pending.clear();
    }

    /// §5 peer-replica reconstruction: complete the newest (partial)
    /// checkpoint from surviving replicas' state, without falling back to
    /// an older epoch. Returns the completed epoch when reconstruction was
    /// sound and succeeded.
    ///
    /// Soundness requires that routing is reproducible (no
    /// [`DimRole::Random`] axes — standing views pin the Hash scheme, which
    /// guarantees this), every present join task is a full-history one,
    /// the sink blob arrived (the sink lives on the coordinator), and every
    /// *replica group* (machines agreeing on all non-Spread coordinates)
    /// that lost a member kept at least one member whose chain reaches the
    /// epoch — otherwise some tuples are unrecoverable from peers and an
    /// older complete checkpoint must be used instead.
    pub fn reconstruct_newest(&mut self, scheme: &HypercubeScheme, n_rels: usize) -> Option<u64> {
        let epoch = self.newest()?;
        if self.is_complete(epoch) {
            return Some(epoch);
        }
        self.pending.get(&epoch)?.sink.as_ref()?;
        if scheme.roles.iter().flatten().any(|r| matches!(r, DimRole::Random)) {
            return None; // routing not reproducible offline
        }
        // A present task is one whose chain reaches the epoch: its base
        // plus the deltas since.
        let mut present: FxHashMap<usize, Vec<FxHashMap<Tuple, i64>>> = FxHashMap::default();
        for task in 0..self.n_join_tasks {
            match self.state_at(task, epoch) {
                Some(TaskState::Rows(rels)) => {
                    present.insert(task, rels);
                }
                Some(TaskState::Opaque(_)) => return None, // windowed state is opaque to peers
                None => {}
            }
        }
        let routed = scheme.machines();
        let missing: Vec<usize> =
            (0..self.n_join_tasks).filter(|t| !present.contains_key(t)).collect();
        for rel in 0..n_rels {
            if !replica_groups_covered(scheme, rel, &missing, present.keys().copied()) {
                return None;
            }
        }

        // Union the surviving stores and re-derive every tuple's placement
        // with the scheme's (deterministic) routing.
        let mut stored: FxHashMap<(usize, Tuple), i64> = FxHashMap::default();
        for (_, rels) in present.iter().filter(|(&task, _)| task < routed) {
            for (rel, rows) in rels.iter().enumerate() {
                for (tuple, &mult) in rows {
                    stored.entry((rel, tuple.clone())).or_insert(mult);
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

        // Each rebuilt state is filed as the lost task's whole state at the
        // epoch, so its restore bytes are exactly what the lost join task
        // itself would have produced.
        let mut rebuilt: Vec<(usize, JoinBlob)> = Vec::new();
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
            rebuilt.push((task, JoinBlob::Rows { since: None, rels: rows }));
        }
        self.pending.get_mut(&epoch)?.join.extend(rebuilt);
        Some(epoch)
    }
}

/// Refuse a join blob that cannot restore a task of a join with relation
/// `arities` before any operator is built from it — a `Job` frame carries
/// these blobs off the wire. The tag must be the one the task's kind of join
/// writes ([`JOIN_BLOB_WINDOWED`] for a windowed join, [`JOIN_BLOB_FULL`]
/// otherwise), the body must parse to its end, and the relation count and
/// every row's arity must be the join's.
pub(crate) fn check_join_blob(blob: &[u8], arities: &[usize], windowed: bool) -> Result<()> {
    let mut rels: Vec<Vec<Tuple>> = Vec::new();
    let mut frontiers = arities.len();
    if windowed {
        // `WindowJoin`'s grammar: per relation its live `(ts, row)`
        // buffer, then one optional frontier per relation.
        let mut r = Reader::new(blob);
        if r.u8()? != JOIN_BLOB_WINDOWED {
            return Err(SquallError::Codec("not a windowed join blob".into()));
        }
        for _ in 0..r.len()? {
            let n = r.len()?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                r.u64()?;
                rows.push(codec::get_tuple(&mut r)?);
            }
            rels.push(rows);
        }
        frontiers = r.len()?;
        for _ in 0..frontiers {
            if r.u8()? != 0 {
                r.u64()?;
            }
        }
        r.finish()?;
    } else {
        for rows in parse_full_blob(blob)? {
            rels.push(rows.into_iter().map(|(t, _)| t).collect());
        }
    }
    let fits = rels.len() == arities.len()
        && frontiers == arities.len()
        && rels.iter().zip(arities).all(|(rows, &a)| rows.iter().all(|t| t.arity() == a));
    if !fits {
        return Err(SquallError::Codec(
            "join checkpoint blob does not fit the join's relations".into(),
        ));
    }
    Ok(())
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
    present: impl Iterator<Item = usize>,
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
        present.filter(|&m| m < routed).map(group_of).collect();
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
        return Err(SquallError::Codec("not a full-history join blob".into()));
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
    use squall_common::{tuple, DataType, Schema, Value};
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

    /// A 2×2 cube whose dimensions have no members: every relation
    /// spreads over both, so every machine holds every tuple.
    fn spread_cube() -> HypercubeScheme {
        let dim = |name: &str| Dimension {
            name: name.into(),
            size: 2,
            kind: PartitionKind::Random,
            members: vec![],
        };
        HypercubeScheme::new(3, vec![dim("~a"), dim("~b")], 1)
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
        let spread = spread_cube();
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

    #[test]
    fn restore_blob_check_accepts_what_joins_write_and_nothing_else() {
        let spec = chain3();
        let full = routed_blobs(&hash_cube(), 20).swap_remove(0);
        let mut window = squall_join::WindowJoin::event_time(
            DBToasterJoin::new(&spec),
            squall_join::WindowSpec::Sliding { size: 10 },
            &[2, 2, 2],
            &[1, 1, 1],
        );
        let mut discard = Vec::new();
        for ts in 0..30u64 {
            let rel = (ts % 3) as usize;
            window.insert_weighted(rel, ts, &tuple![ts as i64 % 4, ts as i64], &mut discard);
        }
        let mut windowed = vec![JOIN_BLOB_WINDOWED];
        window.snapshot_state(&mut windowed);
        for (blob, kind) in [(&full, false), (&windowed, true)] {
            check_join_blob(blob, &[2, 2, 2], kind).unwrap();
            for cut in 0..blob.len() {
                assert!(check_join_blob(&blob[..cut], &[2, 2, 2], kind).is_err(), "cut {cut}");
            }
            for arities in [&[2, 2][..], &[2, 3, 2], &[2, 2, 2, 2]] {
                assert!(check_join_blob(blob, arities, kind).is_err(), "{arities:?}");
            }
            assert!(check_join_blob(blob, &[2, 2, 2], !kind).is_err(), "the other kind's tag");
        }
    }

    #[test]
    fn reconstructs_a_lost_task_through_a_delta_chain() {
        // Present tasks hold a folded base plus the deltas since; the lost
        // task's rebuilt state must be byte-identical to its own snapshot.
        let scheme = spread_cube();
        let spec = chain3();
        let mut joins: Vec<DBToasterJoin> = (0..4).map(|_| DBToasterJoin::new(&spec)).collect();
        let mut logs: Vec<DeltaLog> = (0..4).map(|_| DeltaLog::new(3, 0)).collect();
        let (mut rng, mut out, mut discard) = (SplitMix64::new(5), Vec::new(), Vec::new());
        let mut apply = |i: i64, mult: i64, epoch: u64, tasks: (&mut [_], &mut [DeltaLog])| {
            let (rel, t) = ((i % 3) as usize, tuple![i % 5, i * 7 % 11]);
            scheme.route(rel, &t, &mut rng, &mut out);
            for &m in &out {
                DBToasterJoin::delta(&mut tasks.0[m], rel, &t, mult, &mut discard);
                tasks.1[m].push(rel, t.clone(), mult, epoch);
            }
            discard.clear();
        };
        for i in 0..30 {
            apply(i, 1, 1, (&mut joins, &mut logs));
        }
        let mut store = CheckpointStore::new(4);
        for (task, log) in logs.iter_mut().enumerate() {
            store.insert((ROLE_JOIN, task, 1, log.seal(1)));
        }
        store.insert((ROLE_SINK, 0, 1, vec![1]));
        store.trim_below(1);
        assert_eq!(store.latest_complete(), Some(1));
        // Epoch 2: retract a third of the rows, append new ones.
        for i in (0..30).step_by(3) {
            apply(i, -1, 2, (&mut joins, &mut logs));
        }
        for i in 30..45 {
            apply(i, 1, 2, (&mut joins, &mut logs));
        }
        for (task, log) in logs.iter_mut().enumerate() {
            let blob = log.seal(2);
            if task != 2 {
                store.insert((ROLE_JOIN, task, 2, blob));
            }
        }
        store.insert((ROLE_SINK, 0, 2, vec![2]));
        assert!(!store.is_complete(2), "task 2's delta is lost");
        assert_eq!(store.reconstruct_newest(&scheme, 3), Some(2));
        let rs = store.restore_state(2).unwrap();
        for (task, join) in joins.iter().enumerate() {
            assert_eq!(rs.join[&task], join_blob(join), "task {task}");
        }
        assert_eq!(rs.sink, Some(vec![2]));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One join task after a fixed signed sequence over the chain —
    /// duplicates, `Int(1)` merged with `Float(1.0)`, a row retracted to
    /// zero and another taking its slot, an over-retraction and one of an
    /// absent row, strings and `NULL`s in the payload columns — with every
    /// delta logged at epoch 1.
    fn fixed_task() -> (DBToasterJoin, DeltaLog) {
        let (mut join, mut log) = (DBToasterJoin::new(&chain3()), DeltaLog::new(3, 0));
        let null = || Value::Null;
        let deltas = [
            (0, tuple!["x", 1], 1),
            (0, tuple!["x", 1], 1),
            (0, tuple![null(), 1.0], 1),
            (1, tuple![1, 2], 2),
            (1, tuple![1.0, 2], 1),
            (1, tuple![1.0, 3], 1),
            (2, tuple![2, 2.5], 1),
            (2, tuple![3, "y"], 1),
            (0, tuple!["x", 1], -1),
            (2, tuple![2, 2.5], -3),
            (2, tuple![3, null()], 1),
            (1, tuple![4, 4], -1),
            (0, tuple!["z", 1], 1),
        ];
        let mut discard = Vec::new();
        for (rel, t, m) in deltas {
            join.delta(rel, &t, m, &mut discard);
            log.push(rel, t, m, 1);
        }
        (join, log)
    }

    #[test]
    fn join_blob_full_matches_golden_bytes_and_restores() {
        // The full-history join blob is a contract between builds: what a
        // task's snapshot and the store's integral write, and what a
        // restore reads.
        let (mut join, mut log) = fixed_task();
        let blob = join_blob(&join);
        assert_eq!(
            hex(&blob),
            concat!(
                "000300000003000000020000000002000000000000f03f01000000000000000200000003",
                "010000007801010000000000000001000000000000000200000003010000007a01010000",
                "000000000001000000000000000200000002000000010100000000000000010200000000",
                "00000003000000000000000200000002000000000000f03f010300000000000000010000",
                "000000000002000000020000000103000000000000000001000000000000000200000001",
                "03000000000000000301000000790100000000000000",
            ),
        );
        let mut store = CheckpointStore::new(1);
        store.insert((ROLE_JOIN, 0, 1, log.seal(1)));
        store.insert((ROLE_SINK, 0, 1, vec![1]));
        assert_eq!(store.restore_state(1).unwrap().join[&0], blob, "the store's integral");

        let mut restored = DBToasterJoin::new(&chain3());
        let mut r = Reader::new(&blob);
        assert_eq!(r.u8().unwrap(), JOIN_BLOB_FULL);
        restored.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(join_blob(&restored), blob);
        assert_eq!(
            squall_join::LocalJoin::stored(&restored),
            squall_join::LocalJoin::stored(&join)
        );
        for (rel, t) in
            [(1, tuple![1, 2]), (0, tuple!["w", 1.0]), (2, tuple![2, 0]), (1, tuple![1, 3])]
        {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            join.delta(rel, &t, 1, &mut a);
            restored.delta(rel, &t, 1, &mut b);
            a.sort();
            b.sort();
            assert_eq!(a, b, "{t:?}");
        }
    }

    /// Prints the seed of a chain model-check case that panics, so it
    /// replays with `check_chain_seed(seed)`.
    struct Replay(u64);

    impl Drop for Replay {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("checkpoint chain model check failed at seed {}", self.0);
            }
        }
    }

    /// What the store must report: each barrier's snapshot bytes per
    /// task, and which blobs reached the store since the last restart.
    #[derive(Default)]
    struct ChainModel {
        barriers: Vec<u64>,
        snapshots: BTreeMap<u64, Vec<Vec<u8>>>,
        delivered: Vec<Vec<u64>>,
        sinks: Vec<u64>,
    }

    impl ChainModel {
        fn file(&mut self, store: &mut CheckpointStore, msg: SnapshotBlobMsg) {
            match msg.0 {
                ROLE_JOIN => self.delivered[msg.1].push(msg.2),
                _ => self.sinks.push(msg.2),
            }
            store.insert(msg);
        }

        /// The newest barrier whose sink blob is in and up to which every
        /// task's blobs all are.
        fn latest_complete(&self) -> Option<u64> {
            let reached = |task: usize, e: u64| {
                self.barriers.iter().filter(|&&b| b <= e).all(|b| self.delivered[task].contains(b))
            };
            self.barriers.iter().rev().copied().find(|&e| {
                self.sinks.contains(&e) && (0..self.delivered.len()).all(|t| reached(t, e))
            })
        }
    }

    /// One seeded run of the delta-chain protocol: per-task
    /// [`DBToasterJoin`]s apply random signed deltas (retractions of rows a
    /// task may not hold, and rows equal as values but not as bytes,
    /// included) and log them; barriers fall on random
    /// epochs, sometimes after a task already applied a delta of the next
    /// epoch; blobs reach the store on time, late or never, and the sink
    /// blob sometimes never; now and then the run recovers. The store must
    /// report exactly the complete epochs the model computes, and every
    /// complete epoch must restore to each task's own snapshot bytes.
    fn check_chain_seed(seed: u64) {
        let _replay = Replay(seed);
        let mut rng = SplitMix64::new(seed);
        let spec = chain3();
        let n_tasks = 1 + rng.next_below(3);
        let mut joins: Vec<DBToasterJoin> =
            (0..n_tasks).map(|_| DBToasterJoin::new(&spec)).collect();
        let mut logs: Vec<DeltaLog> = (0..n_tasks).map(|_| DeltaLog::new(3, 0)).collect();
        let mut store = CheckpointStore::new(n_tasks);
        let mut model = ChainModel { delivered: vec![Vec::new(); n_tasks], ..Default::default() };
        let (mut late, mut discard) = (Vec::<SnapshotBlobMsg>::new(), Vec::new());
        let mut delta =
            |rng: &mut SplitMix64, join: &mut DBToasterJoin, log: &mut DeltaLog, epoch| {
                let rel = rng.next_below(3);
                // `Int(1)` and `Float(1.0)` are one row to the join and must
                // be one row to the integral too.
                let b = rng.next_range(0, 2);
                let b = if rng.next_below(4) == 0 { Value::Float(b as f64) } else { Value::Int(b) };
                let t = Tuple::new(vec![Value::Int(rng.next_range(0, 2)), b]);
                let m = [1, 1, 2, -1, -1, -2][rng.next_below(6)];
                join.delta(rel, &t, m, &mut discard);
                discard.clear();
                log.push(rel, t, m, epoch);
            };
        for epoch in 1..=4 + rng.next_below(24) as u64 {
            for (join, log) in joins.iter_mut().zip(&mut logs) {
                for _ in 0..rng.next_below(6) {
                    delta(&mut rng, join, log, epoch);
                }
            }
            if rng.next_below(3) != 0 {
                continue;
            }
            // Barrier `epoch`; a task whose aligning barrier comes last may
            // already hold a delta of the next epoch.
            model.barriers.push(epoch);
            model.snapshots.insert(epoch, joins.iter().map(join_blob).collect());
            let mut msgs = Vec::new();
            for (task, (join, log)) in joins.iter_mut().zip(&mut logs).enumerate() {
                if rng.next_below(3) == 0 {
                    delta(&mut rng, join, log, epoch + 1);
                }
                msgs.push((ROLE_JOIN, task, epoch, log.seal(epoch)));
            }
            msgs.push((ROLE_SINK, 0, epoch, epoch.to_le_bytes().to_vec()));
            let held = std::mem::take(&mut late);
            rng.shuffle(&mut msgs);
            for msg in msgs {
                match rng.next_below(20) {
                    0 if msg.0 == ROLE_JOIN => {} // lost: a gap for good
                    0..=2 => {}                   // the sink's: this epoch stays partial
                    3..=6 => late.push(msg),
                    _ => model.file(&mut store, msg),
                }
            }
            for msg in held {
                model.file(&mut store, msg);
            }

            let expect = model.latest_complete();
            assert_eq!(store.latest_complete(), expect, "after barrier {epoch}");
            if let Some(e) = expect {
                let rs = store.restore_state(e).expect("a complete epoch restores");
                for (task, bytes) in model.snapshots[&e].iter().enumerate() {
                    assert_eq!(&rs.join[&task], bytes, "task {task} at epoch {e}");
                }
                assert_eq!(rs.sink, Some(e.to_le_bytes().to_vec()));
            }
            if store.is_complete(epoch) || rng.next_below(4) == 0 {
                store.trim_below(expect.unwrap_or(0));
            }

            // Now and then a recovery: every task restarts from the newest
            // complete checkpoint (or empty) and begins a new chain.
            if rng.next_below(8) == 0 {
                let resume = expect.unwrap_or(0);
                let restore = store.restore_state(resume);
                store.restart_at(resume);
                for (task, (join, log)) in joins.iter_mut().zip(&mut logs).enumerate() {
                    *join = DBToasterJoin::new(&spec);
                    if let Some(rs) = &restore {
                        let mut r = Reader::new(&rs.join[&task]);
                        assert_eq!(r.u8().unwrap(), JOIN_BLOB_FULL);
                        join.restore_state(&mut r).unwrap();
                    }
                    *log = DeltaLog::new(3, resume);
                }
                late.clear();
                model = ChainModel { delivered: vec![Vec::new(); n_tasks], ..Default::default() };
                if restore.is_some() {
                    model.barriers.push(resume);
                    model.sinks.push(resume);
                    model.delivered.iter_mut().for_each(|d| d.push(resume));
                    model.snapshots.insert(resume, joins.iter().map(join_blob).collect());
                }
            }
        }
    }

    /// The delta-chain model check over a range of seeds — more in a
    /// release build (CI's "checkpoint chain model check" step).
    #[test]
    fn chain_model_folds_each_complete_epoch_to_every_tasks_snapshot() {
        let seeds = if cfg!(debug_assertions) { 200 } else { 5_000 };
        (0..seeds).for_each(check_chain_seed);
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
