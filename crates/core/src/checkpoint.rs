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
//! A join task does not ship its state: it ships a [`JOIN_BLOB_DELTA`] —
//! the signed base rows it applied since its previous barrier (`DeltaLog`;
//! a row a windowed task's window evicts is a −1) — and the store keeps
//! each task's *integral*, the fold of its blobs in epoch order (DBSP:
//! state is the integral of its Z-set deltas). A checkpoint round therefore
//! costs O(batch), not O(history). Canonical [`JOIN_BLOB_FULL`] bytes —
//! byte-identical to what the task's own [`squall_join::Snapshot`] would
//! write — exist only where they are read: in a [`RestoreState`]. The
//! sink's blob is kept as shipped, latest-wins; it holds the sink's
//! integral only (an aggregate view's group-by state), never the view rows
//! it derives from it.
//!
//! It also implements the paper's §5 observation as a store feature: "if
//! the partitioning scheme replicates tuples, a failed node can recover its
//! state from some of its peers rather than from a disk checkpoint".
//! [`CheckpointStore::restart`] hands recovery one restore state: the
//! newest checkpoint re-routed from the tasks that reached it — one routing
//! pass of the union of their integrals through the scheme, provided the
//! scheme's replication makes that sound — else the newest complete one,
//! else nothing.

use std::collections::BTreeMap;

use squall_common::codec::{self, Reader, Wire};
use squall_common::{FxHashMap, Result, SplitMix64, SquallError, Value};
use squall_join::views::View;
use squall_partition::hypercube::DimRole;
use squall_partition::HypercubeScheme;
use squall_runtime::transport::SnapshotBlobMsg;

/// Blob role byte: a join bolt's state.
pub const ROLE_JOIN: u8 = 0;
/// Blob role byte: the view sink's state.
pub const ROLE_SINK: u8 = 1;

/// Join-blob tag byte: a join task's whole state, its base rows per
/// relation — what a restore and peer reconstruction read.
pub const JOIN_BLOB_FULL: u8 = 0;
/// Join-blob tag byte: the signed base rows a join task applied since its
/// previous barrier — `u64 since` (that barrier's epoch, the epoch the task
/// was restored at, or 0 for an empty start), then a full blob's row
/// grammar, unsorted. Only the store reads it.
pub const JOIN_BLOB_DELTA: u8 = 3;

/// One relation's signed rows, back to back: row `i` is
/// `vals[i * width..][..width]`, at multiplicity `mults[i]`.
#[derive(Debug, Default)]
struct Rows {
    width: usize,
    vals: Vec<Value>,
    mults: Vec<i64>,
}

impl Rows {
    fn push(&mut self, row: &[Value], mult: i64) {
        if self.mults.is_empty() {
            self.width = row.len();
        }
        debug_assert_eq!(row.len(), self.width, "a relation's rows are of one width");
        self.vals.extend_from_slice(row);
        self.mults.push(mult);
    }

    fn row(&self, i: usize) -> &[Value] {
        &self.vals[i * self.width..][..self.width]
    }

    fn iter(&self) -> impl Iterator<Item = (&[Value], i64)> {
        self.mults.iter().enumerate().map(|(i, &m)| (self.row(i), m))
    }

    /// One relation of the row grammar: `u32 n · (row, i64 multiplicity)*`.
    fn read(r: &mut Reader<'_>) -> Result<Rows> {
        let n = r.len()?;
        let mut rows = Rows { mults: Vec::with_capacity(n), ..Rows::default() };
        for i in 0..n {
            let width = r.len()?;
            if i == 0 {
                rows.width = width;
                rows.vals.reserve(n.saturating_mul(width).min(r.remaining()));
            } else if width != rows.width {
                return Err(SquallError::Codec(
                    "a join blob relation's rows differ in width".into(),
                ));
            }
            for _ in 0..width {
                rows.vals.push(Value::get(r)?);
            }
            rows.mults.push(r.i64()?);
        }
        Ok(rows)
    }
}

/// Append one row of the row grammar: the row as a counted run of values,
/// then its multiplicity — what `codec::put_tuple` and `codec::put_i64`
/// write for a `(Tuple, i64)`.
fn put_row(buf: &mut Vec<u8>, row: &[Value], mult: i64) {
    Value::put_run(row, buf);
    codec::put_i64(buf, mult);
}

/// A join task's half of the delta chain: the signed base rows it applied
/// since its last barrier, each with its epoch.
pub(crate) struct DeltaLog {
    /// The epoch the next blob continues from.
    since: u64,
    /// Per relation, the rows in the order applied and their epochs.
    rels: Vec<(Rows, Vec<u64>)>,
}

impl DeltaLog {
    /// An empty log for a join of `n_rels` relations whose state is that
    /// of epoch `since` (its restore epoch, or 0).
    pub(crate) fn new(n_rels: usize, since: u64) -> DeltaLog {
        DeltaLog { since, rels: (0..n_rels).map(|_| Default::default()).collect() }
    }

    /// Log one delta the task applied, its values copied in beside the
    /// relation's other rows. A one-relation DBToaster join keeps no base
    /// view — its snapshot holds no rows — so it logs nothing.
    pub(crate) fn push(&mut self, rel: usize, row: impl AsRef<[Value]>, mult: i64, epoch: u64) {
        if self.rels.len() > 1 {
            let (rows, epochs) = &mut self.rels[rel];
            rows.push(row.as_ref(), mult);
            epochs.push(epoch);
        }
    }

    /// Move every row of `other` behind this log's rows, leaving `other`
    /// empty with its capacity.
    pub(crate) fn append(&mut self, other: &mut DeltaLog) {
        for ((rows, epochs), (more, later)) in self.rels.iter_mut().zip(&mut other.rels) {
            if rows.mults.is_empty() {
                rows.width = more.width;
            }
            rows.vals.append(&mut more.vals);
            rows.mults.append(&mut more.mults);
            epochs.append(later);
        }
    }

    /// The [`JOIN_BLOB_DELTA`] sealing barrier `epoch`: every logged row of
    /// an epoch ≤ `epoch`, which then leaves the log. Rows of later epochs
    /// stay for the next barrier — a source whose barrier arrived early
    /// keeps sending, so a task may apply them before it aligns.
    pub(crate) fn seal(&mut self, epoch: u64) -> Vec<u8> {
        // Room for every row if its values are `Int`s, as join keys are.
        let bytes = |(rows, _): &(Rows, Vec<u64>)| 4 + 9 * rows.vals.len() + 12 * rows.mults.len();
        let mut buf = Vec::with_capacity(13 + self.rels.iter().map(bytes).sum::<usize>());
        buf.push(JOIN_BLOB_DELTA);
        codec::put_u64(&mut buf, self.since);
        codec::put_u32(&mut buf, self.rels.len() as u32);
        for (rows, epochs) in &mut self.rels {
            codec::put_u32(&mut buf, epochs.iter().filter(|&&e| e <= epoch).count() as u32);
            // Sealed rows are written; later ones move down over them.
            let (width, mut kept) = (rows.width, 0);
            for i in 0..epochs.len() {
                if epochs[i] <= epoch {
                    put_row(&mut buf, rows.row(i), rows.mults[i]);
                    continue;
                }
                for c in 0..width {
                    rows.vals.swap(kept * width + c, i * width + c);
                }
                rows.mults[kept] = rows.mults[i];
                epochs[kept] = epochs[i];
                kept += 1;
            }
            rows.vals.truncate(kept * width);
            rows.mults.truncate(kept);
            epochs.truncate(kept);
        }
        self.since = epoch;
        buf
    }
}

/// A join blob as the store files it: a task's signed base rows per
/// relation — its whole state (`since: None`, a [`JOIN_BLOB_FULL`]) or what
/// it applied since epoch `since` (a [`JOIN_BLOB_DELTA`]).
#[derive(Debug)]
struct JoinBlob {
    since: Option<u64>,
    rels: Vec<Rows>,
}

impl JoinBlob {
    /// A typed error for a payload of neither grammar, one that does not
    /// parse to its end, or one with rows of two widths in one relation;
    /// the store files no blob for it, so the task's chain has a gap at its
    /// epoch.
    fn parse(payload: &[u8]) -> Result<JoinBlob> {
        let mut r = Reader::new(payload);
        let since = match r.u8()? {
            JOIN_BLOB_FULL => None,
            JOIN_BLOB_DELTA => Some(r.u64()?),
            tag => return Err(SquallError::Codec(format!("unknown join blob tag {tag}"))),
        };
        let n_rels = r.len()?;
        let mut rels = Vec::with_capacity(n_rels);
        for _ in 0..n_rels {
            rels.push(Rows::read(&mut r)?);
        }
        r.finish()?;
        Ok(JoinBlob { since, rels })
    }

    /// Whether this blob continues a chain that reached epoch `at`: a delta
    /// must start where the chain ends; a whole state starts anywhere.
    fn continues(&self, at: u64) -> bool {
        self.since.is_none_or(|s| s == at)
    }
}

/// One join task's state as the store holds it: per relation, a [`View`]
/// of its base rows (none before the relation's first row) — the integral
/// of the task's blobs, folded by [`View::update`]'s rule: a retraction
/// takes away at most what is stored, and a row at zero is not kept.
#[derive(Debug, Clone, Default)]
struct TaskState(Vec<Option<View>>);

impl TaskState {
    /// Add `mult` to relation `rel`'s row `row`.
    fn update(&mut self, rel: usize, row: &[Value], mult: i64) {
        let view = self.0[rel].get_or_insert_with(|| View::new(vec![0], &[row.len()]));
        view.update(row, mult);
    }

    /// Fold the next blob of the task's chain in. The store files only
    /// blobs whose relations agree on their row widths.
    fn fold(&mut self, blob: &JoinBlob) {
        if blob.since.is_none() {
            self.0.clear();
        }
        if self.0.len() < blob.rels.len() {
            self.0.resize_with(blob.rels.len(), || None);
        }
        for (rel, rows) in blob.rels.iter().enumerate() {
            for (row, mult) in rows.iter() {
                self.update(rel, row, mult);
            }
        }
    }

    /// The canonical [`JOIN_BLOB_FULL`] bytes a restore reads: each
    /// relation's rows in row order, so equal state means equal bytes.
    fn blob(&self) -> Vec<u8> {
        let mut buf = vec![JOIN_BLOB_FULL];
        codec::put_u32(&mut buf, self.0.len() as u32);
        for view in &self.0 {
            let mut rows: Vec<(&[Value], i64)> = view.iter().flat_map(View::scan).collect();
            rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
            codec::put_u32(&mut buf, rows.len() as u32);
            for (row, mult) in rows {
                put_row(&mut buf, row, mult);
            }
        }
        buf
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
    /// Join-task id → each relation's row width, from the first rows filed
    /// for it.
    widths: FxHashMap<usize, Vec<Option<usize>>>,
}

impl CheckpointStore {
    /// A store expecting `n_join_tasks` join blobs (plus one sink blob) per
    /// complete checkpoint.
    pub fn new(n_join_tasks: usize) -> CheckpointStore {
        CheckpointStore { n_join_tasks, ..CheckpointStore::default() }
    }

    /// File one blob. Unknown roles are ignored (forward compatibility);
    /// re-sent blobs overwrite, and blobs at or below the folded epoch
    /// change nothing. A join blob that does not parse, or whose rows of a
    /// relation are not as wide as those filed before, is filed as a gap.
    pub fn insert(&mut self, (role, task, epoch, payload): SnapshotBlobMsg) {
        if epoch <= self.base {
            return;
        }
        let blob = match role {
            ROLE_JOIN => JoinBlob::parse(&payload).ok().filter(|blob| self.fits(task, blob)),
            _ => None,
        };
        let slot = self.pending.entry(epoch).or_default();
        match role {
            ROLE_JOIN => {
                slot.join.remove(&task);
                if let Some(blob) = blob {
                    slot.join.insert(task, blob);
                }
            }
            ROLE_SINK => slot.sink = Some(payload),
            _ => {}
        }
    }

    /// Whether `blob`'s relations are as wide as those `task` filed before,
    /// recording the widths of relations new to it: a task's integral keeps
    /// each relation's rows at one width.
    fn fits(&mut self, task: usize, blob: &JoinBlob) -> bool {
        let widths = self.widths.entry(task).or_default();
        widths.resize(widths.len().max(blob.rels.len()), None);
        let rels = || blob.rels.iter().enumerate().filter(|(_, rows)| !rows.mults.is_empty());
        if !rels().all(|(rel, rows)| widths[rel].is_none_or(|w| w == rows.width)) {
            return false;
        }
        rels().for_each(|(rel, rows)| widths[rel] = Some(rows.width));
        true
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

    /// What a relaunch restores, and the store put at it: the newest
    /// checkpoint re-routed through `scheme` when one is given and that is
    /// sound (`reroute`), else the newest complete one, else nothing (an
    /// empty start). Every blob is forgotten: the old run's chains end at
    /// the restore state, and the new run's continue from its epoch.
    pub fn restart(&mut self, scheme: Option<&HypercubeScheme>) -> Option<RestoreState> {
        let restore = scheme
            .and_then(|s| self.reroute(s))
            .or_else(|| self.latest_complete().and_then(|e| self.restore_state(e)));
        let widths = std::mem::take(&mut self.widths);
        *self = CheckpointStore { widths, ..CheckpointStore::new(self.n_join_tasks) };
        if let Some(rs) = &restore {
            for (&task, blob) in &rs.join {
                if let Ok(blob) = JoinBlob::parse(blob) {
                    self.tasks.entry(task).or_default().fold(&blob);
                }
            }
            (self.base, self.restorable, self.sink) = (rs.epoch, true, rs.sink.clone());
        }
        restore
    }

    /// §5 peer-replica reconstruction as one re-route: the restore state of
    /// the newest epoch whose sink blob arrived, complete or not, without
    /// falling back to an older epoch. The union of the integrals of every
    /// task whose chain reaches the epoch goes through `scheme` once, into
    /// every task of the cube; a task the routing does not reach is empty.
    ///
    /// Soundness requires that every replica of a row holds it (a windowed
    /// view's replicas evict on their own watermarks, so its caller never
    /// asks), that routing is reproducible (no [`DimRole::Random`] axes —
    /// standing views pin the Hash scheme, which guarantees this), and that
    /// every *replica group* (machines agreeing on all non-Spread
    /// coordinates) that lost a member kept one whose chain reaches the
    /// epoch — otherwise some tuples are unrecoverable from peers and the
    /// answer is `None`.
    fn reroute(&self, scheme: &HypercubeScheme) -> Option<RestoreState> {
        let with_sink = self.pending.iter().rev().find(|(_, blobs)| blobs.sink.is_some());
        let (epoch, sink) = match with_sink {
            Some((&epoch, blobs)) => (epoch, blobs.sink.clone()),
            None => (self.restorable.then_some(self.base)?, self.sink.clone()),
        };
        if scheme.roles.iter().flatten().any(|r| matches!(r, DimRole::Random)) {
            return None; // routing not reproducible offline
        }
        let (mut present, mut missing) = (Vec::new(), Vec::new());
        for task in 0..self.n_join_tasks {
            match self.state_at(task, epoch) {
                Some(state) => present.push((task, state)),
                None => missing.push(task),
            }
        }
        let n_rels = scheme.roles.len();
        let survivors = || present.iter().map(|(task, _)| *task);
        if !(0..n_rels).all(|rel| replica_groups_covered(scheme, rel, &missing, survivors())) {
            return None;
        }
        let mut union: FxHashMap<(usize, &[Value]), i64> = FxHashMap::default();
        for (_, state) in &present {
            for (rel, view) in state.0.iter().enumerate().take(n_rels) {
                for (row, mult) in view.iter().flat_map(View::scan) {
                    union.entry((rel, row)).or_insert(mult);
                }
            }
        }
        let empty = || TaskState((0..n_rels).map(|_| None).collect());
        let mut tasks: Vec<TaskState> = (0..self.n_join_tasks).map(|_| empty()).collect();
        let (mut rng, mut route) = (SplitMix64::new(0), Vec::new());
        for ((rel, row), mult) in union {
            scheme.route(rel, row, &mut rng, &mut route);
            for &task in &route {
                if let Some(state) = tasks.get_mut(task) {
                    state.update(rel, row, mult);
                }
            }
        }
        let join = tasks.iter().enumerate().map(|(task, state)| (task, state.blob())).collect();
        Some(RestoreState { epoch, join, sink })
    }
}

/// Refuse a join blob that cannot restore a task of a join with relation
/// `arities` before any operator is built from it — a `Job` frame carries
/// these blobs off the wire. It must be a [`JOIN_BLOB_FULL`] that parses to
/// its end, with the join's relation count and every row of its relation's
/// arity. A windowed join's restore orders its rows by event time, so with
/// `ts_cols` (one per relation) every row must carry a non-negative `Int`
/// there.
pub(crate) fn check_join_blob(
    blob: &[u8],
    arities: &[usize],
    ts_cols: Option<&[usize]>,
) -> Result<()> {
    let rels = match JoinBlob::parse(blob)? {
        JoinBlob { since: None, rels } => rels,
        _ => return Err(SquallError::Codec("not a full join checkpoint blob".into())),
    };
    // No writer of a whole state keeps a row at a multiplicity ≤ 0.
    let fits = rels.len() == arities.len()
        && rels.iter().zip(arities).all(|(rows, &a)| {
            (rows.mults.is_empty() || rows.width == a) && rows.mults.iter().all(|&m| m > 0)
        });
    if !fits {
        return Err(SquallError::Codec("join checkpoint blob does not fit the join".into()));
    }
    let timed = |(rows, &c): (&Rows, &usize)| {
        rows.iter().all(|(row, _)| matches!(row.get(c), Some(&Value::Int(ts)) if ts >= 0))
    };
    if ts_cols.is_some_and(|cols| !rels.iter().zip(cols).all(timed)) {
        return Err(SquallError::Codec("windowed join checkpoint row: no event time".into()));
    }
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq};
    use squall_common::{tuple, DataType, Schema, Tuple};
    use squall_expr::{JoinAtom, MultiJoinSpec, RelationDef};
    use squall_join::{DBToasterJoin, Snapshot, WindowJoin, WindowSpec};
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

    /// The newest epoch any blob arrived for (complete or not).
    fn newest(store: &CheckpointStore) -> Option<u64> {
        store.pending.keys().next_back().copied().or((store.base > 0).then_some(store.base))
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
        let blobs = routed_blobs(&hash_cube(), 10);
        let mut store = CheckpointStore::new(2);
        store.insert((ROLE_JOIN, 0, 4, blobs[0].clone()));
        store.insert((ROLE_JOIN, 1, 4, blobs[1].clone()));
        assert!(!store.is_complete(4), "sink blob still missing");
        store.insert((ROLE_SINK, 0, 4, vec![3]));
        assert!(store.is_complete(4));
        store.insert((ROLE_JOIN, 0, 8, blobs[2].clone()));
        assert_eq!(store.latest_complete(), Some(4));
        assert_eq!(newest(&store), Some(8));
        let rs = store.restore_state(4).unwrap();
        assert_eq!(rs.epoch, 4);
        assert_eq!(rs.join[&1], blobs[1]);
        assert_eq!(rs.sink, Some(vec![3]));
        store.trim_below(8);
        assert_eq!(store.latest_complete(), None);
        assert_eq!(newest(&store), Some(8));
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
        // Through the store's views and back: row order within a relation
        // is lost, and the blob sorts it back.
        let mut state = TaskState::default();
        state.fold(&JoinBlob::parse(&blob).unwrap());
        assert_eq!(state.blob(), blob, "byte-identical re-serialization");
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
        assert!(
            store.reroute(&scheme).is_none(),
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
        let rs = store.reroute(&spread).unwrap();
        assert_eq!(rs.epoch, 6);
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
        let rs = store.reroute(&scheme).unwrap();
        assert_eq!(rs.epoch, 2);
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
            let row = tuple![ts as i64 % 4, ts as i64];
            window.insert_weighted(rel, ts, &row, &mut discard, |_, _| {});
        }
        let mut windowed = vec![JOIN_BLOB_FULL];
        window.snapshot_state(&mut windowed);
        let ts_cols = Some(&[1, 1, 1][..]);
        for (blob, ts_cols) in [(&full, None), (&full, ts_cols), (&windowed, ts_cols)] {
            check_join_blob(blob, &[2, 2, 2], ts_cols).unwrap();
            for cut in 0..blob.len() {
                assert!(check_join_blob(&blob[..cut], &[2, 2, 2], ts_cols).is_err(), "cut {cut}");
            }
            for arities in [&[2, 2][..], &[2, 3, 2], &[2, 2, 2, 2]] {
                assert!(check_join_blob(blob, arities, ts_cols).is_err(), "{arities:?}");
            }
        }
        let mut delta = DeltaLog::new(3, 0);
        delta.push(0, tuple![1, 1], 1, 1);
        assert!(
            check_join_blob(&delta.seal(1), &[2, 2, 2], None).is_err(),
            "a delta restores nothing"
        );

        // A windowed restore orders rows by event time: a row without a
        // non-negative `Int` there is refused, typed, before a bolt is built.
        for ts in [Value::Str("late".into()), Value::Int(-1)] {
            let rels = vec![vec![], vec![(Tuple::new(vec![Value::Int(1), ts]), 1)], vec![]];
            let mut blob = vec![JOIN_BLOB_FULL];
            rels.snapshot_state(&mut blob);
            check_join_blob(&blob, &[2, 2, 2], None).unwrap();
            let err = check_join_blob(&blob, &[2, 2, 2], ts_cols).unwrap_err();
            assert!(matches!(err, SquallError::Codec(_)), "{err}");
        }
    }

    #[test]
    fn a_full_blob_row_at_multiplicity_zero_or_below_is_refused() {
        // No writer of a whole state keeps one: refused, typed, before a
        // bolt is built from the blob.
        for m in [0, -1, i64::MIN] {
            let rels = vec![vec![(tuple![1, 1], m)], vec![], vec![]];
            let mut blob = vec![JOIN_BLOB_FULL];
            rels.snapshot_state(&mut blob);
            for ts_cols in [None, Some(&[1, 1, 1][..])] {
                let err = check_join_blob(&blob, &[2, 2, 2], ts_cols).unwrap_err();
                assert!(matches!(err, SquallError::Codec(_)), "{err}");
            }
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
        let rs = store.reroute(&scheme).unwrap();
        assert_eq!(rs.epoch, 2);
        for (task, join) in joins.iter().enumerate() {
            assert_eq!(rs.join[&task], join_blob(join), "task {task}");
        }
        assert_eq!(rs.sink, Some(vec![2]));
    }

    #[test]
    fn a_join_blob_of_no_known_grammar_is_a_gap() {
        // An empty or one-byte payload off a peer's `SnapshotBlob` frame
        // must not complete its epoch, nor reset the task's integral under
        // the delta that continues from it.
        for garbage in [vec![], vec![7]] {
            let (join, mut log) = fixed_task();
            let mut store = CheckpointStore::new(1);
            store.insert((ROLE_JOIN, 0, 1, log.seal(1)));
            store.insert((ROLE_SINK, 0, 1, vec![1]));
            assert_eq!(store.latest_complete(), Some(1));
            store.insert((ROLE_JOIN, 0, 2, garbage));
            store.insert((ROLE_SINK, 0, 2, vec![2]));
            store.insert((ROLE_JOIN, 0, 3, DeltaLog::new(3, 2).seal(3)));
            store.insert((ROLE_SINK, 0, 3, vec![3]));
            assert_eq!(store.latest_complete(), Some(1), "the garbage blob is a gap");
            assert_eq!(store.restore_state(1).unwrap().join[&0], join_blob(&join));
        }
    }

    #[test]
    fn a_join_blob_of_rows_wider_than_its_tasks_is_a_gap() {
        // The store folds each relation's rows into one view of one width:
        // a blob whose rows of a relation are not as wide as those its task
        // filed before, or whose rows of a relation differ in width, is a
        // gap like one that does not parse.
        let wide = |rows: &[Tuple]| {
            let mut log = DeltaLog::new(3, 1);
            for row in rows {
                log.push(0, row, 1, 2);
            }
            log.seal(2)
        };
        let mut mixed = vec![JOIN_BLOB_DELTA];
        codec::put_u64(&mut mixed, 1);
        vec![vec![(tuple![1, 2], 1), (tuple![3], 1)], vec![], vec![]].snapshot_state(&mut mixed);
        for garbage in [wide(&[tuple![1, 2, 3]]), mixed] {
            let (join, mut log) = fixed_task();
            let mut store = CheckpointStore::new(1);
            store.insert((ROLE_JOIN, 0, 1, log.seal(1)));
            store.insert((ROLE_SINK, 0, 1, vec![1]));
            store.insert((ROLE_JOIN, 0, 2, garbage));
            store.insert((ROLE_SINK, 0, 2, vec![2]));
            assert_eq!(store.latest_complete(), Some(1), "the wide blob is a gap");
            assert_eq!(store.restore_state(1).unwrap().join[&0], join_blob(&join));
        }
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
    fn join_blob_delta_matches_golden_bytes() {
        // The delta blob a join task ships: `fixed_task`'s log sealed at
        // epoch 1, then a log that keeps a row of a later epoch for the
        // next barrier.
        let (_, mut log) = fixed_task();
        let mut later = DeltaLog::new(3, 4);
        later.push(1, tuple![5, "s"], 1, 6);
        later.push(1, tuple![6, 6], -2, 5);
        later.push(0, tuple![Value::Null, 7.5], 1, 5);
        let blobs = [log.seal(1), later.seal(5), later.seal(6)];
        let hexes: Vec<String> = blobs.iter().map(|b| hex(b)).collect();
        assert_eq!(hexes, GOLDEN_DELTA);
    }

    /// [`join_blob_delta_matches_golden_bytes`]'s three blobs.
    const GOLDEN_DELTA: [&str; 3] = [
        concat!(
            "030000000000000000030000000500000002000000030100000078010100000000000000",
            "010000000000000002000000030100000078010100000000000000010000000000000002",
            "0000000002000000000000f03f0100000000000000020000000301000000780101000000",
            "00000000ffffffffffffffff0200000003010000007a0101000000000000000100000000",
            "000000040000000200000001010000000000000001020000000000000002000000000000",
            "000200000002000000000000f03f01020000000000000001000000000000000200000002",
            "000000000000f03f01030000000000000001000000000000000200000001040000000000",
            "0000010400000000000000ffffffffffffffff0400000002000000010200000000000000",
            "020000000000000440010000000000000002000000010300000000000000030100000079",
            "010000000000000002000000010200000000000000020000000000000440fdffffffffff",
            "ffff02000000010300000000000000000100000000000000",
        ),
        concat!(
            "03040000000000000003000000010000000200000000020000000000001e400100000000",
            "0000000100000002000000010600000000000000010600000000000000feffffffffffff",
            "ff00000000",
        ),
        concat!(
            "030500000000000000030000000000000001000000020000000105000000000000000301",
            "00000073010000000000000000000000",
        ),
    ];

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

        /// Whether every blob of `task` up to barrier `e` is in.
        fn reached(&self, task: usize, e: u64) -> bool {
            self.barriers.iter().filter(|&&b| b <= e).all(|b| self.delivered[task].contains(b))
        }

        /// The newest barrier whose sink blob is in and up to which every
        /// task's blobs all are.
        fn latest_complete(&self) -> Option<u64> {
            self.barriers.iter().rev().copied().find(|&e| {
                self.sinks.contains(&e) && (0..self.delivered.len()).all(|t| self.reached(t, e))
            })
        }

        /// What a re-route of replicated tasks restores: the newest barrier
        /// whose sink blob is in, if some task's blobs up to it all are.
        fn rerouted(&self) -> Option<u64> {
            let newest = self.sinks.iter().max().copied()?;
            (0..self.delivered.len()).any(|t| self.reached(t, newest)).then_some(newest)
        }
    }

    /// `chain3` with an event-time column: R(a, b, ts), S(a, b, ts),
    /// T(a, b, ts).
    fn timed_chain3() -> MultiJoinSpec {
        let mk = |n: &str| {
            let cols = [("a", DataType::Int), ("b", DataType::Int), ("ts", DataType::Int)];
            RelationDef::new(n, Schema::of(&cols), 0)
        };
        MultiJoinSpec::new(
            vec![mk("R"), mk("S"), mk("T")],
            vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)],
        )
        .unwrap()
    }

    /// One task of the chain model: a full-history join taking random
    /// signed deltas, or a windowed one taking arrivals whose event time
    /// never falls within a relation (`clock`).
    enum ModelTask {
        Full(DBToasterJoin),
        Windowed { join: WindowJoin<DBToasterJoin>, window: WindowSpec, clock: [u64; 3] },
    }

    impl ModelTask {
        /// A full-history, tumbling or sliding task; windows span 1–4 units.
        fn random(rng: &mut SplitMix64) -> ModelTask {
            let n = 1 + rng.next_below(4) as u64;
            match rng.next_below(3) {
                0 => ModelTask::Full(DBToasterJoin::new(&chain3())),
                1 => ModelTask::windowed(WindowSpec::Tumbling { width: n }, [0; 3]),
                _ => ModelTask::windowed(WindowSpec::Sliding { size: n }, [0; 3]),
            }
        }

        fn windowed(window: WindowSpec, clock: [u64; 3]) -> ModelTask {
            let inner = DBToasterJoin::new(&timed_chain3());
            let join = WindowJoin::event_time(inner, window, &[3, 3, 3], &[2, 2, 2]);
            ModelTask::Windowed { join, window, clock }
        }

        /// The task after a recovery: empty, or restored from `blob`. A
        /// windowed task's clock runs on.
        fn restart(&self, blob: Option<&[u8]>) -> ModelTask {
            let mut task = match self {
                ModelTask::Full(_) => ModelTask::Full(DBToasterJoin::new(&chain3())),
                ModelTask::Windowed { window, clock, .. } => ModelTask::windowed(*window, *clock),
            };
            if let Some(blob) = blob {
                let mut r = Reader::new(blob);
                assert_eq!(r.u8().unwrap(), JOIN_BLOB_FULL);
                match &mut task {
                    ModelTask::Full(join) => join.restore_state(&mut r),
                    ModelTask::Windowed { join, .. } => join.restore_state(&mut r),
                }
                .unwrap();
                r.finish().unwrap();
            }
            task
        }

        fn snapshot(&self) -> Vec<u8> {
            let mut buf = vec![JOIN_BLOB_FULL];
            match self {
                ModelTask::Full(join) => join.snapshot_state(&mut buf),
                ModelTask::Windowed { join, .. } => join.snapshot_state(&mut buf),
            }
            buf
        }

        /// Apply one random delta and log it at `epoch`: a signed row (a
        /// retraction of a row the task may not hold included), or an
        /// arrival logged after the −1 of each row it evicts.
        fn delta(&mut self, rng: &mut SplitMix64, log: &mut DeltaLog, epoch: u64) {
            let rel = rng.next_below(3);
            // `Int(1)` and `Float(1.0)` are one row to the join and must be
            // one row to the integral too.
            let b = rng.next_range(0, 2);
            let b = if rng.next_below(4) == 0 { Value::Float(b as f64) } else { Value::Int(b) };
            let mut row = vec![Value::Int(rng.next_range(0, 2)), b];
            let mut discard = Vec::new();
            match self {
                ModelTask::Full(join) => {
                    let (t, m) = (Tuple::new(row), [1, 1, 2, -1, -1, -2][rng.next_below(6)]);
                    join.delta(rel, &t, m, &mut discard);
                    log.push(rel, t, m, epoch);
                }
                ModelTask::Windowed { join, clock, .. } => {
                    clock[rel] += rng.next_below(3) as u64;
                    row.push(Value::Int(clock[rel] as i64));
                    let t = Tuple::new(row);
                    join.insert_weighted(rel, clock[rel], &t, &mut discard, |r, gone| {
                        log.push(r, gone, -1, epoch)
                    });
                    log.push(rel, t, 1, epoch);
                }
            }
        }
    }

    /// One seeded run of the delta-chain protocol: a mix of full-history
    /// and windowed tasks apply random deltas and log them; barriers fall
    /// on random epochs, sometimes after a task already applied a delta of
    /// the next epoch; blobs reach the store on time, late or never, and
    /// the sink blob sometimes never; now and then the run recovers. The
    /// store must report exactly the complete epochs the model computes,
    /// and every complete epoch must restore to each task's own snapshot
    /// bytes. One seed in four runs full-history replicas — every task
    /// applies the same deltas, a cube that spreads every relation — whose
    /// newest barrier sometimes loses some join blobs just before a
    /// recovery: `restart` must then re-route that barrier from the tasks
    /// that reached it.
    fn check_chain_seed(seed: u64) {
        let _replay = Replay(seed);
        let mut rng = SplitMix64::new(seed);
        let n_tasks = 1 + rng.next_below(3);
        let mut tasks: Vec<ModelTask> = (0..n_tasks).map(|_| ModelTask::random(&mut rng)).collect();
        let replicated = seed.is_multiple_of(4);
        if replicated {
            tasks.fill_with(|| ModelTask::Full(DBToasterJoin::new(&chain3())));
        }
        let mut logs: Vec<DeltaLog> = (0..n_tasks).map(|_| DeltaLog::new(3, 0)).collect();
        let mut store = CheckpointStore::new(n_tasks);
        let mut model = ChainModel { delivered: vec![Vec::new(); n_tasks], ..Default::default() };
        let mut late = Vec::<SnapshotBlobMsg>::new();
        for epoch in 1..=4 + rng.next_below(24) as u64 {
            // Replicas draw their deltas from copies of one generator.
            let replica = replicated.then(|| SplitMix64::new(rng.next_u64()));
            for (task, log) in tasks.iter_mut().zip(&mut logs) {
                let mut own = replica.clone();
                let r = own.as_mut().unwrap_or(&mut rng);
                for _ in 0..r.next_below(6) {
                    task.delta(r, log, epoch);
                }
            }
            if rng.next_below(3) != 0 {
                continue;
            }
            // Barrier `epoch`; a task whose aligning barrier comes last may
            // already hold a delta of the next epoch.
            model.barriers.push(epoch);
            model.snapshots.insert(epoch, tasks.iter().map(ModelTask::snapshot).collect());
            let replica = replicated.then(|| SplitMix64::new(rng.next_u64()));
            let mut msgs = Vec::new();
            for (id, (task, log)) in tasks.iter_mut().zip(&mut logs).enumerate() {
                let mut own = replica.clone();
                let r = own.as_mut().unwrap_or(&mut rng);
                if r.next_below(3) == 0 {
                    task.delta(r, log, epoch + 1);
                }
                msgs.push((ROLE_JOIN, id, epoch, log.seal(epoch)));
            }
            msgs.push((ROLE_SINK, 0, epoch, epoch.to_le_bytes().to_vec()));
            // The worker about to be lost takes the join blobs of some
            // tasks (all of them, at worst) with it.
            let crash = replicated && rng.next_below(2) == 0;
            if crash {
                let kept = rng.next_below(n_tasks);
                msgs.retain(|msg| msg.0 != ROLE_JOIN || msg.1 < kept);
            }
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

            // Now and then a recovery: every task restarts from what
            // `restart` hands the standing view's `recover` (replicas: the
            // newest barrier re-routed over a cube that spreads every
            // relation; others: the newest complete checkpoint), or empty,
            // and begins a new chain.
            if crash || rng.next_below(8) == 0 {
                let spread = Dimension {
                    name: "~".into(),
                    size: n_tasks,
                    kind: PartitionKind::Hash,
                    members: vec![],
                };
                let scheme = replicated.then(|| HypercubeScheme::new(3, vec![spread], 0));
                let want = replicated.then(|| model.rerouted()).flatten().or(expect);
                let restore = store.restart(scheme.as_ref());
                assert_eq!(restore.as_ref().map(|rs| rs.epoch), want, "recovery at {epoch}");
                if let Some(rs) = &restore {
                    for (task, bytes) in model.snapshots[&rs.epoch].iter().enumerate() {
                        assert_eq!(&rs.join[&task], bytes, "task {task} restored at {}", rs.epoch);
                    }
                    assert_eq!(rs.sink, Some(rs.epoch.to_le_bytes().to_vec()));
                }
                let resume = want.unwrap_or(0);
                for (id, (task, log)) in tasks.iter_mut().zip(&mut logs).enumerate() {
                    *task = task.restart(restore.as_ref().map(|rs| rs.join[&id].as_slice()));
                    *log = DeltaLog::new(3, resume);
                }
                late.clear();
                model = ChainModel { delivered: vec![Vec::new(); n_tasks], ..Default::default() };
                if restore.is_some() {
                    model.barriers.push(resume);
                    model.sinks.push(resume);
                    model.delivered.iter_mut().for_each(|d| d.push(resume));
                    model.snapshots.insert(resume, tasks.iter().map(ModelTask::snapshot).collect());
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

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 64,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// §5 over arbitrary hypercube shapes — replicating, partitioning
        /// and Spread dimensions alike: with one or two tasks lost, the
        /// re-route rebuilds every task's blob byte for byte, the present
        /// tasks' included, exactly when the lost tasks' replica groups are
        /// covered and no axis routes at random; otherwise it refuses.
        #[test]
        fn rebuilding_each_task_from_the_others_reproduces_its_blob(
            dim_codes in proptest::collection::vec(0u64..1000, 1..4),
            seed in 0u64..1000,
        ) {
            // Each code decodes one dimension: size 1..=3, Hash or
            // Random, and a member relation — or, two times in five, none,
            // which `HypercubeScheme::new` turns into a Spread
            // (replicating) role for every relation.
            let dims: Vec<Dimension> = dim_codes
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let rel = ((c / 6) % 5) as usize;
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
            let random = scheme.roles.iter().flatten().any(|r| matches!(r, DimRole::Random));
            let machines = scheme.machines();
            let blobs = routed_blobs(&scheme, 40);
            for first in 0..machines {
                let second = (first + 1 + seed as usize) % machines;
                for lost in [vec![first], vec![first, second]] {
                    let mut store = CheckpointStore::new(machines);
                    for (task, blob) in blobs.iter().enumerate() {
                        if !lost.contains(&task) {
                            store.insert((ROLE_JOIN, task, 1, blob.clone()));
                        }
                    }
                    store.insert((ROLE_SINK, 0, 1, vec![1]));
                    let others = (0..machines).filter(|m| !lost.contains(m));
                    let covered = (0..3).all(|rel| {
                        replica_groups_covered(&scheme, rel, &lost, others.clone())
                    });
                    let rebuilt = store.reroute(&scheme);
                    prop_assert_eq!(rebuilt.is_some(), covered && !random, "tasks {:?}", lost);
                    if let Some(rs) = rebuilt {
                        prop_assert_eq!(rs.epoch, 1);
                        for (task, blob) in blobs.iter().enumerate() {
                            let own = &rs.join[&task] == blob;
                            prop_assert!(own, "task {} of {:?} lost", task, lost);
                        }
                    }
                }
            }
        }
    }
}
