//! The DBToaster-style local multi-way join — higher-order incremental
//! view maintenance (Ahmad, Kennedy, Koch & Nikolic \[9\]; §3.3).
//!
//! "Instead of maintaining only the final result, DBToaster maintains all
//! the intermediate (n−1)-, (n−2)-, …, and 2-way joins. When a new tuple
//! comes, DBToaster updates the intermediate relations, and produces the
//! (delta) result by joining the incoming tuple with the corresponding
//! (n−1)-way materialized join."
//!
//! Concretely, for an acyclic join over relations `R₁..Rₙ`, a view `V_S`
//! is kept for every **connected** subset `S` of relations. When a tuple
//! `t` arrives at `Rᵢ`, for every connected `S ∋ i` (in any order — the
//! probed views never contain `i`):
//!
//! ```text
//! ΔV_S  =  t  ⋈  V_C₁ ⋈ … ⋈ V_Cₖ
//! ```
//!
//! where `C₁..Cₖ` are the connected components of `S ∖ {i}` — the delta
//! factorizes across components because they only connect *through* `Rᵢ`,
//! so the join is `k` independent index probes plus a cross-combination,
//! never a recomputation. The delta for the full relation set is the
//! emitted result.
//!
//! The delta body takes a **batch**: rows of one relation `Rᵢ`, each with
//! its signed weight — one Z-set `ΔRᵢ` (a single row is a batch of one).
//! The join is bilinear, and no view a plan for `Rᵢ` probes contains `Rᵢ`,
//! so `ΔV_S = ΔRᵢ ⋈ V_C₁ ⋈ … ⋈ V_Cₖ` holds for the whole batch against the
//! views as they stand. The loop is therefore plan-major: for each plan,
//! one tight pass folds every row's key hash for the first indexed
//! component and drops the rows with no posting there (a posting only
//! shares a hash; keys are checked by the probe), then the survivors are
//! probed, cross-combined and assembled in row order. Every target view
//! receives its rows in the order the row-at-a-time loop gave them, and
//! the one result plan emits in row order, so results, posting order and
//! snapshot bytes are those of feeding the rows one by one.

use squall_common::codec::Reader;
use squall_common::{FxHashMap, Result, Tuple, Value};
use squall_expr::join_cond::CmpOp;
use squall_expr::MultiJoinSpec;

use crate::views::{key_hash, RowId, View};
use crate::{LocalJoin, RowSink, Snapshot};

/// How one segment of a ΔV_S tuple is assembled.
#[derive(Debug, Clone, Copy)]
enum Segment {
    /// Copy the arriving delta tuple.
    Delta,
    /// Copy `len` columns starting at `start` from component `comp`'s
    /// matched view tuple.
    Comp { comp: usize, start: usize, len: usize },
}

/// A probe of one component view.
#[derive(Debug)]
struct CompProbe {
    view_id: usize,
    /// Index on the component view (None ⇒ full scan — happens when only
    /// theta atoms connect the arriving relation to this component).
    index_id: Option<usize>,
    /// Delta-tuple columns forming the probe key (parallel to the index
    /// columns).
    my_cols: Vec<usize>,
    /// Theta filters: (delta column, op, view column).
    theta: Vec<(usize, CmpOp, usize)>,
}

/// The maintenance work for one connected subset on one relation's arrival.
#[derive(Debug)]
struct SubsetPlan {
    /// Target view; `None` means this is the full relation set — deltas are
    /// emitted as query results instead of stored.
    view_id: Option<usize>,
    comps: Vec<CompProbe>,
    assembly: Vec<Segment>,
}

/// The DBToaster local operator. Build once per machine from the join
/// spec; see [`LocalJoin`].
pub struct DBToasterJoin {
    arities: Vec<usize>,
    views: Vec<View>,
    plans: Vec<Vec<SubsetPlan>>,
    /// Pooled per-component match buffers (row id in the probed view,
    /// multiplicity); they keep their capacity between arrivals.
    scratch_matches: Vec<Vec<(RowId, i64)>>,
    /// Odometer scratch for the cross-combination loop.
    scratch_idx: Vec<usize>,
    /// Assembly buffer for one ΔV_S row: handed to [`View::update`], or to
    /// the result sink, as a borrowed row.
    scratch_values: Vec<Value>,
    /// The batch rows one plan's screening pass keeps.
    scratch_rows: Vec<usize>,
}

/// The relations of `mask` reachable from `start` (a member of `mask`)
/// through atoms between members of `mask`.
fn reachable(adj: &[u32], mask: u32, start: usize) -> u32 {
    let mut seen = 1u32 << start;
    let mut frontier = seen;
    while frontier != 0 {
        let mut next = 0u32;
        let mut f = frontier;
        while f != 0 {
            let r = f.trailing_zeros() as usize;
            f &= f - 1;
            next |= adj[r] & mask & !seen;
        }
        seen |= next;
        frontier = next;
    }
    seen
}

/// The most relations a [`DBToasterJoin`] joins: relation sets are `u32`
/// masks. Plans are checked against it before a join is built.
pub const MAX_RELATIONS: usize = 30;

impl DBToasterJoin {
    /// Precompute views, indexes and delta plans for the join.
    ///
    /// Supports acyclic (and, conservatively, cyclic — extra atoms become
    /// filters on the probes) connected join graphs over up to
    /// [`MAX_RELATIONS`] relations; practical queries use 2–6.
    pub fn new(spec: &MultiJoinSpec) -> DBToasterJoin {
        let n = spec.n_relations();
        assert!((1..=MAX_RELATIONS).contains(&n), "unsupported relation count {n}");
        let arities: Vec<usize> = spec.relations.iter().map(|r| r.schema.arity()).collect();
        let full: u32 = (1u32 << n) - 1;

        // Adjacency from atoms.
        let mut adj = vec![0u32; n];
        for a in &spec.atoms {
            adj[a.left_rel] |= 1 << a.right_rel;
            adj[a.right_rel] |= 1 << a.left_rel;
        }
        let connected = |mask: u32| -> bool {
            mask != 0 && reachable(&adj, mask, mask.trailing_zeros() as usize) == mask
        };
        let components = |mask: u32| -> Vec<u32> {
            let mut rest = mask;
            let mut comps = Vec::new();
            while rest != 0 {
                let comp = reachable(&adj, mask, rest.trailing_zeros() as usize);
                comps.push(comp);
                rest &= !comp;
            }
            comps
        };
        let members_of =
            |mask: u32| -> Vec<usize> { (0..n).filter(|&r| mask & (1 << r) != 0).collect() };

        // Views for every connected proper subset.
        let mut views: Vec<View> = Vec::new();
        let mut view_of: FxHashMap<u32, usize> = FxHashMap::default();
        for mask in 1..full {
            if connected(mask) {
                view_of.insert(mask, views.len());
                views.push(View::new(members_of(mask), &arities));
            }
        }

        // Delta plans per arriving relation.
        let mut plans: Vec<Vec<SubsetPlan>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut rel_plans = Vec::new();
            for mask in 1..=full {
                if mask & (1 << i) == 0 || !connected(mask) {
                    continue;
                }
                let rest = mask & !(1 << i);
                let comp_masks = components(rest);
                // Probes.
                let mut comps = Vec::with_capacity(comp_masks.len());
                for &cm in &comp_masks {
                    let vid = view_of[&cm];
                    let mut my_cols = Vec::new();
                    let mut view_cols = Vec::new();
                    let mut theta = Vec::new();
                    for (other, my_col, op, other_col) in spec.atoms_of(i) {
                        if cm & (1 << other) == 0 {
                            continue;
                        }
                        let view_col = views[vid].offset_of(other) + other_col;
                        if op == CmpOp::Eq {
                            my_cols.push(my_col);
                            view_cols.push(view_col);
                        } else {
                            theta.push((my_col, op, view_col));
                        }
                    }
                    let index_id = if view_cols.is_empty() {
                        None
                    } else {
                        Some(views[vid].ensure_index(view_cols))
                    };
                    comps.push(CompProbe { view_id: vid, index_id, my_cols, theta });
                }
                // Assembly: S's members in sorted order, each drawn from the
                // delta or from its component's matched tuple.
                let mut assembly = Vec::new();
                for &m in &members_of(mask) {
                    if m == i {
                        assembly.push(Segment::Delta);
                    } else {
                        let (ci, &cm) = comp_masks
                            .iter()
                            .enumerate()
                            .find(|(_, &cm)| cm & (1 << m) != 0)
                            .expect("member belongs to a component");
                        let comp_view = &views[view_of[&cm]];
                        assembly.push(Segment::Comp {
                            comp: ci,
                            start: comp_view.offset_of(m),
                            len: arities[m],
                        });
                    }
                }
                let view_id = if mask == full { None } else { Some(view_of[&mask]) };
                rel_plans.push(SubsetPlan { view_id, comps, assembly });
            }
            plans.push(rel_plans);
        }
        DBToasterJoin {
            arities,
            views,
            plans,
            scratch_matches: Vec::new(),
            scratch_idx: Vec::new(),
            scratch_values: Vec::new(),
            scratch_rows: Vec::new(),
        }
    }

    /// Stored tuples per intermediate view.
    #[cfg(test)]
    fn view_sizes(&self) -> Vec<(Vec<usize>, usize)> {
        self.views.iter().map(|v| (v.members.clone(), v.len())).collect()
    }

    /// Apply a batch of **signed** deltas, each of `rows` with weight
    /// `mult`, to relation `rel` and push the resulting signed result
    /// deltas into `out` — the Z-set face of the operator used by standing
    /// materialized views: `mult = +1` inserts, `mult = -1` retracts, and
    /// emitted multiplicities carry the sign through (a retraction of a
    /// stored match emits a negative delta). `rows` holds one or more rows
    /// of `rel` back to back (a `&Tuple` is one). Intermediate views are
    /// maintained exactly as for [`LocalJoin::insert`]/[`LocalJoin::remove`].
    pub fn delta(&mut self, rel: usize, rows: &[Value], mult: i64, out: &mut Vec<(Tuple, i64)>) {
        self.delta_into(rel, rows, &[mult], Some(out));
    }

    /// [`DBToasterJoin::delta`] into any sink, or into none — a result
    /// delta nobody reads is not even probed for — with `mults` holding
    /// one weight per row, or one for every row. This is the operator's one
    /// delta body: every other entry point forwards a batch to it. (The
    /// rows of a zero-arity relation are counted by their weights.)
    pub fn delta_into(
        &mut self,
        rel: usize,
        rows: &[Value],
        mults: &[i64],
        mut out: Option<&mut dyn RowSink>,
    ) {
        let arity = self.arities[rel];
        let n = match mults.len() {
            1 => crate::batch_len(rows, arity),
            n => n,
        };
        debug_assert_eq!(rows.len(), n * arity, "rows of relation {rel} are {arity} wide");
        let row = |i: usize| &rows[i * arity..][..arity];
        let mult = |i: usize| mults[if mults.len() == 1 { 0 } else { i }];
        // Scratch buffers move out of `self` once per batch so the plan
        // iteration below can still borrow `self.plans`; they are restored
        // (capacity intact) on exit.
        let mut match_bufs = std::mem::take(&mut self.scratch_matches);
        let mut idx = std::mem::take(&mut self.scratch_idx);
        let mut values = std::mem::take(&mut self.scratch_values);
        let mut screened = std::mem::take(&mut self.scratch_rows);
        for plan in &self.plans[rel] {
            if plan.view_id.is_none() && out.is_none() {
                continue; // a result delta nobody reads: not even probed
            }
            if plan.comps.is_empty() {
                // ΔV_{rel} is the arrival itself.
                for i in 0..n {
                    match (plan.view_id, &mut out) {
                        (Some(vid), _) => self.views[vid].update(row(i), mult(i)),
                        (None, Some(out)) => out.push(row(i), mult(i)),
                        (None, None) => {}
                    }
                }
                continue;
            }
            // Pass 1: keep the rows whose key has a posting in the first
            // indexed component. A posting is only a shared hash, not an
            // equal key: pass 2 checks the keys.
            screened.clear();
            match plan.comps.iter().find_map(|cp| Some((cp, cp.index_id?))) {
                Some((cp, ix)) => {
                    let postings = self.views[cp.view_id].postings(ix);
                    screened.extend((0..n).filter(|&i| {
                        let row = row(i);
                        !postings.get(key_hash(cp.my_cols.iter().map(|&c| &row[c]))).is_empty()
                    }));
                }
                None => screened.extend(0..n),
            }
            // Pass 2, in row order: probe every component. Matches are kept
            // as row ids: the probed views never contain `rel`, so they do
            // not change while this plan updates its target.
            if match_bufs.len() < plan.comps.len() {
                match_bufs.resize_with(plan.comps.len(), Vec::new);
            }
            let matches = &mut match_bufs[..plan.comps.len()];
            'rows: for (row, mult) in screened.iter().map(|&i| (row(i), mult(i))) {
                for (cp, found) in plan.comps.iter().zip(matches.iter_mut()) {
                    let view = &self.views[cp.view_id];
                    let keep = |id: RowId| {
                        let (t, m) = view.row(id);
                        cp.theta
                            .iter()
                            .all(|&(mc, op, vc)| op.eval(&row[mc], &t[vc]))
                            .then_some((id, m))
                    };
                    found.clear();
                    match cp.index_id {
                        Some(ix) => {
                            let key = cp.my_cols.iter().map(|&c| &row[c]);
                            found.extend(view.probe_ids(ix, key).filter_map(keep));
                        }
                        None => found.extend(view.scan_ids().filter_map(keep)),
                    }
                    if found.is_empty() {
                        continue 'rows;
                    }
                }
                // Cross-combine the component matches.
                idx.clear();
                idx.resize(matches.len(), 0);
                loop {
                    let mut delta_mult = mult;
                    for (c, &i) in idx.iter().enumerate() {
                        delta_mult *= matches[c][i].1;
                    }
                    values.clear();
                    for seg in &plan.assembly {
                        match *seg {
                            Segment::Delta => values.extend_from_slice(row),
                            Segment::Comp { comp, start, len } => {
                                let (t, _) = self.views[plan.comps[comp].view_id]
                                    .row(matches[comp][idx[comp]].0);
                                values.extend_from_slice(&t[start..start + len]);
                            }
                        }
                    }
                    match (plan.view_id, &mut out) {
                        (Some(vid), _) => self.views[vid].update(&values, delta_mult),
                        (None, Some(out)) => out.push(&values, delta_mult),
                        (None, None) => {}
                    }
                    // Advance the odometer.
                    let mut c = 0;
                    loop {
                        if c == idx.len() {
                            break;
                        }
                        idx[c] += 1;
                        if idx[c] < matches[c].len() {
                            break;
                        }
                        idx[c] = 0;
                        c += 1;
                    }
                    if c == idx.len() {
                        break;
                    }
                }
            }
        }
        self.scratch_matches = match_bufs;
        self.scratch_idx = idx;
        self.scratch_values = values;
        self.scratch_rows = screened;
    }
}

impl Snapshot for DBToasterJoin {
    /// Base relations only: every intermediate view is a pure function of
    /// the singleton views, so restore replays the bases through the
    /// delta path. The bytes are the base-rows blob of
    /// [`crate::snapshot`].
    fn snapshot_state(&self, buf: &mut Vec<u8>) {
        let bases: Vec<Vec<(Tuple, i64)>> = (0..self.arities.len())
            .map(|rel| match self.views.iter().find(|v| v.members.as_slice() == [rel]) {
                Some(v) => v.scan().map(|(t, m)| (Tuple::from(t), m)).collect(),
                None => Vec::new(), // single-relation join: stateless
            })
            .collect();
        bases.snapshot_state(buf);
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        let mut bases: Vec<Vec<(Tuple, i64)>> = Vec::new();
        bases.restore_state(r)?;
        for (rel, base) in bases.iter().enumerate() {
            let rows: Vec<Value> =
                base.iter().flat_map(|(t, _)| t.values().iter().cloned()).collect();
            let mults: Vec<i64> = base.iter().map(|&(_, m)| m).collect();
            self.delta_into(rel, &rows, &mults, None);
        }
        Ok(())
    }
}

impl LocalJoin for DBToasterJoin {
    fn insert_into(&mut self, rel: usize, rows: &[Value], out: &mut dyn RowSink) {
        self.delta_into(rel, rows, &[1], Some(out));
    }

    fn remove(&mut self, rel: usize, rows: &[Value], mult: i64) {
        self.delta_into(rel, rows, &[-mult], None);
    }

    fn stored(&self) -> usize {
        self.views.iter().map(|v| v.len()).sum()
    }
}

/// DBToaster with *aggregated views* — the higher-order IVM trick that
/// makes the §3.3/Figure 8 gap: every relation is projected onto the
/// columns that future probes or the downstream aggregate actually need,
/// so duplicate keys collapse into multiplicities and a hot-key arrival
/// probes O(distinct keys) instead of enumerating O(matches) stored
/// tuples. Results come out as `(projected tuple, multiplicity)` — exactly
/// what COUNT/SUM consumers need. It projects each arrival itself, for
/// direct callers: the engine's count-only runs cut their sources to the
/// same columns before routing and run a plain [`DBToasterJoin`].
pub struct AggregatedDBToaster {
    inner: DBToasterJoin,
    /// Per relation: its arity, and the original columns retained (sorted).
    arities: Vec<usize>,
    kept: Vec<Vec<usize>>,
    /// The arrivals projected onto their kept columns.
    projected: Vec<Value>,
}

impl AggregatedDBToaster {
    /// Keep only join-key columns plus `extra[rel]` (columns the
    /// downstream aggregate reads), as [`MultiJoinSpec::project`] cuts them.
    pub fn new(spec: &MultiJoinSpec, extra: &[Vec<usize>]) -> AggregatedDBToaster {
        let (projected, kept) = spec.project(extra);
        AggregatedDBToaster {
            inner: DBToasterJoin::new(&projected),
            arities: spec.relations.iter().map(|r| r.schema.arity()).collect(),
            kept,
            projected: Vec::new(),
        }
    }

    /// Join-keys-only variant (COUNT(*) queries).
    pub fn minimal(spec: &MultiJoinSpec) -> AggregatedDBToaster {
        AggregatedDBToaster::new(spec, &vec![Vec::new(); spec.n_relations()])
    }

    /// The inner join, and the `rows` of `rel` projected into the reused
    /// buffer.
    fn project(&mut self, rel: usize, rows: &[Value]) -> (&mut DBToasterJoin, &[Value]) {
        let (arity, kept) = (self.arities[rel], &self.kept[rel]);
        self.projected.clear();
        for row in rows.chunks_exact(arity) {
            self.projected.extend(kept.iter().map(|&c| row[c].clone()));
        }
        (&mut self.inner, &self.projected)
    }
}

impl Snapshot for AggregatedDBToaster {
    /// The projection is configuration, not state: only the inner join's
    /// (already projected) bases ship.
    fn snapshot_state(&self, buf: &mut Vec<u8>) {
        self.inner.snapshot_state(buf)
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        self.inner.restore_state(r)
    }
}

impl LocalJoin for AggregatedDBToaster {
    fn insert_into(&mut self, rel: usize, rows: &[Value], out: &mut dyn RowSink) {
        let (inner, rows) = self.project(rel, rows);
        inner.insert_into(rel, rows, out)
    }

    fn remove(&mut self, rel: usize, rows: &[Value], mult: i64) {
        let (inner, rows) = self.project(rel, rows);
        inner.remove(rel, rows, mult)
    }

    fn stored(&self) -> usize {
        self.inner.stored()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{naive_join, same_multiset};
    use crate::window::WindowSpec;
    use squall_common::{tuple, DataType, Schema, SplitMix64};
    use squall_expr::{JoinAtom, RelationDef};

    fn run_online(join: &mut dyn LocalJoin, relations: &[Vec<Tuple>], seed: u64) -> Vec<Tuple> {
        // Interleave arrivals in a deterministic random order — online
        // operators must be order-insensitive in their final output.
        let mut arrivals: Vec<(usize, Tuple)> = relations
            .iter()
            .enumerate()
            .flat_map(|(r, ts)| ts.iter().map(move |t| (r, t.clone())))
            .collect();
        SplitMix64::new(seed).shuffle(&mut arrivals);
        let mut out = Vec::new();
        for (rel, t) in arrivals {
            join.insert(rel, &t, &mut out);
        }
        out
    }

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

    fn rand_rel(n: usize, key_dom: i64, rng: &mut SplitMix64) -> Vec<Tuple> {
        (0..n).map(|_| tuple![rng.next_range(0, key_dom), rng.next_range(0, key_dom)]).collect()
    }

    #[test]
    fn two_way_matches_oracle() {
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("R", Schema::of(&[("a", DataType::Int)]), 0),
                RelationDef::new("S", Schema::of(&[("a", DataType::Int)]), 0),
            ],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap();
        let mut rng = SplitMix64::new(1);
        let r: Vec<Tuple> = (0..60).map(|_| tuple![rng.next_range(0, 15)]).collect();
        let s: Vec<Tuple> = (0..60).map(|_| tuple![rng.next_range(0, 15)]).collect();
        let mut j = DBToasterJoin::new(&spec);
        let online = run_online(&mut j, &[r.clone(), s.clone()], 7);
        let oracle = naive_join(&spec, &[r, s]);
        assert!(same_multiset(&online, &oracle), "{} vs {}", online.len(), oracle.len());
        assert!(!online.is_empty());
    }

    #[test]
    fn three_way_chain_matches_oracle() {
        let spec = chain3();
        let mut rng = SplitMix64::new(2);
        let rels =
            vec![rand_rel(40, 8, &mut rng), rand_rel(40, 8, &mut rng), rand_rel(40, 8, &mut rng)];
        let mut j = DBToasterJoin::new(&spec);
        let online = run_online(&mut j, &rels, 9);
        let oracle = naive_join(&spec, &rels);
        assert!(same_multiset(&online, &oracle), "{} vs {}", online.len(), oracle.len());
        assert!(!online.is_empty());
    }

    #[test]
    fn intermediate_views_are_materialized() {
        // For R ⋈ S ⋈ T, DBToaster keeps {R}, {S}, {T}, {R,S}, {S,T} —
        // and NOT the disconnected {R,T} (that would be a cross product).
        let spec = chain3();
        let j = DBToasterJoin::new(&spec);
        let members: Vec<Vec<usize>> = j.view_sizes().into_iter().map(|(m, _)| m).collect();
        assert!(members.contains(&vec![0]));
        assert!(members.contains(&vec![0, 1]));
        assert!(members.contains(&vec![1, 2]));
        assert!(!members.contains(&vec![0, 2]), "disconnected subsets must not be views");
        assert_eq!(members.len(), 5);
    }

    #[test]
    fn four_way_chain_matches_oracle() {
        let mk = |n: &str| {
            RelationDef::new(n, Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]), 0)
        };
        let spec = MultiJoinSpec::new(
            vec![mk("R"), mk("S"), mk("T"), mk("U")],
            vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0), JoinAtom::eq(2, 1, 3, 0)],
        )
        .unwrap();
        let mut rng = SplitMix64::new(5);
        let rels: Vec<Vec<Tuple>> = (0..4).map(|_| rand_rel(25, 5, &mut rng)).collect();
        let mut j = DBToasterJoin::new(&spec);
        let online = run_online(&mut j, &rels, 11);
        let oracle = naive_join(&spec, &rels);
        assert!(same_multiset(&online, &oracle), "{} vs {}", online.len(), oracle.len());
        assert!(!online.is_empty());
    }

    #[test]
    fn star_join_cross_components() {
        // F(a,b) ⋈ D1(a) ⋈ D2(b): on an F arrival the rest {D1, D2} is
        // disconnected — the delta must cross-combine two probes.
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("F", Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]), 0),
                RelationDef::new("D1", Schema::of(&[("a", DataType::Int)]), 0),
                RelationDef::new("D2", Schema::of(&[("b", DataType::Int)]), 0),
            ],
            vec![JoinAtom::eq(0, 0, 1, 0), JoinAtom::eq(0, 1, 2, 0)],
        )
        .unwrap();
        let f = vec![tuple![1, 2], tuple![1, 3]];
        let d1 = vec![tuple![1], tuple![1]];
        let d2 = vec![tuple![2], tuple![3]];
        let mut j = DBToasterJoin::new(&spec);
        let online = run_online(&mut j, &[f.clone(), d1.clone(), d2.clone()], 13);
        let oracle = naive_join(&spec, &[f, d1, d2]);
        assert!(same_multiset(&online, &oracle), "{} vs {}", online.len(), oracle.len());
        assert_eq!(online.len(), 4);
    }

    #[test]
    fn theta_join_atoms_as_filters() {
        // R.a = S.a AND R.b < S.b — mixed condition (§3.3's example shape).
        let mk = |n: &str| {
            RelationDef::new(n, Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]), 0)
        };
        let spec = MultiJoinSpec::new(
            vec![mk("R"), mk("S")],
            vec![
                JoinAtom::eq(0, 0, 1, 0),
                JoinAtom { left_rel: 0, left_col: 1, op: CmpOp::Lt, right_rel: 1, right_col: 1 },
            ],
        )
        .unwrap();
        let mut rng = SplitMix64::new(21);
        let rels = vec![rand_rel(50, 6, &mut rng), rand_rel(50, 6, &mut rng)];
        let mut j = DBToasterJoin::new(&spec);
        let online = run_online(&mut j, &rels, 3);
        let oracle = naive_join(&spec, &rels);
        assert!(same_multiset(&online, &oracle), "{} vs {}", online.len(), oracle.len());
        assert!(!online.is_empty());
    }

    #[test]
    fn pure_inequality_join_uses_scans() {
        let mk = |n: &str| RelationDef::new(n, Schema::of(&[("a", DataType::Int)]), 0);
        let spec = MultiJoinSpec::new(
            vec![mk("R"), mk("S")],
            vec![JoinAtom { left_rel: 0, left_col: 0, op: CmpOp::Lt, right_rel: 1, right_col: 0 }],
        )
        .unwrap();
        let r: Vec<Tuple> = (0..20).map(|i| tuple![i]).collect();
        let s: Vec<Tuple> = (0..20).map(|i| tuple![i]).collect();
        let mut j = DBToasterJoin::new(&spec);
        let online = run_online(&mut j, &[r.clone(), s.clone()], 17);
        let oracle = naive_join(&spec, &[r, s]);
        assert!(same_multiset(&online, &oracle));
        assert_eq!(online.len(), 20 * 19 / 2);
    }

    #[test]
    fn duplicates_multiply() {
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("R", Schema::of(&[("a", DataType::Int)]), 0),
                RelationDef::new("S", Schema::of(&[("a", DataType::Int)]), 0),
            ],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap();
        let mut j = DBToasterJoin::new(&spec);
        let mut out = Vec::new();
        j.insert(0, &tuple![7], &mut out);
        j.insert(0, &tuple![7], &mut out);
        assert!(out.is_empty());
        j.insert(1, &tuple![7], &mut out);
        assert_eq!(out.len(), 2, "two stored R copies × one S arrival");
    }

    #[test]
    fn removal_stops_future_matches() {
        let spec = chain3();
        let mut j = DBToasterJoin::new(&spec);
        let mut out = Vec::new();
        j.insert(0, &tuple![0, 1], &mut out);
        j.insert(1, &tuple![1, 2], &mut out);
        assert!(out.is_empty());
        j.remove(0, &tuple![0, 1], 1);
        j.insert(2, &tuple![2, 9], &mut out);
        assert!(out.is_empty(), "removed R tuple must not contribute");
        // Re-add: now the triple completes on the T side already present.
        j.insert(0, &tuple![0, 1], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], tuple![0, 1, 1, 2, 2, 9]);
    }

    #[test]
    fn removal_keeps_views_consistent() {
        let spec = chain3();
        let mut rng = SplitMix64::new(33);
        let rels =
            [rand_rel(30, 5, &mut rng), rand_rel(30, 5, &mut rng), rand_rel(30, 5, &mut rng)];
        let mut j = DBToasterJoin::new(&spec);
        let mut out = Vec::new();
        for (rel, ts) in rels.iter().enumerate() {
            for t in ts {
                j.insert(rel, t, &mut out);
            }
        }
        // Remove everything; all views must drain to empty.
        for (rel, ts) in rels.iter().enumerate() {
            for t in ts {
                j.remove(rel, t, 1);
            }
        }
        assert_eq!(j.stored(), 0, "views must be empty after removing all input");
    }

    #[test]
    fn join_keys_compare_as_values_do() {
        let (spec, rels, expected) = crate::naive::mixed_key_join();
        for seed in 0..4 {
            let online = run_online(&mut DBToasterJoin::new(&spec), &rels, seed);
            assert!(same_multiset(&online, &expected), "{online:?}");
            assert!(same_multiset(&online, &naive_join(&spec, &rels)));
        }
    }

    /// Results folded into a weighted multiset; a row whose weights cancel
    /// leaves it.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Weights(std::collections::BTreeMap<Tuple, i64>);

    impl RowSink for Weights {
        fn push(&mut self, row: &[Value], mult: i64) {
            let w = self.0.entry(row.into()).or_insert(0);
            *w += mult;
            if *w == 0 {
                self.0.retain(|_, m| *m != 0);
            }
        }
    }

    impl Weights {
        fn of<'a>(rows: impl IntoIterator<Item = (&'a Tuple, i64)>) -> Weights {
            let mut w = Weights::default();
            rows.into_iter().for_each(|(t, m)| w.push(t, m));
            w
        }

        fn heaviest(&self) -> i64 {
            self.0.values().copied().max().unwrap_or(0)
        }
    }

    #[test]
    fn row_slice_joins_agree_with_naive_join_on_seeded_inputs() {
        // Every arrival reaches the joins as a borrowed row cut from one flat
        // buffer per relation, over keys mixing `Int` and `Float` (equal
        // values meet) and payloads of every kind, with repeated rows so
        // results carry weights above 1. DBToaster, both aggregated-view
        // variants and Traditional must answer what the nested loop does,
        // through a sink of their own and through each Vec face alike;
        // DBToaster's signed deltas must also integrate to the nested loop
        // over what is left after retractions. The windowed joins below
        // must answer the window-filtered nested loop the same three ways.
        use crate::traditional::TraditionalJoin;
        let spec = chain3();
        let mut heaviest = 0;
        for seed in 0..24 {
            let mut rng = SplitMix64::new(seed);
            let mut value = |key: bool| match rng.next_below(if key { 2 } else { 5 }) {
                0 => Value::Int(rng.next_range(0, 4)),
                1 => Value::Float(rng.next_range(0, 4) as f64),
                2 => Value::Null,
                3 => Value::str(["p", "q"][rng.next_below(2)]),
                _ => Value::Float(0.5),
            };
            // R(payload, key) ⋈ S(key, key) ⋈ T(key, payload); rows 12..16
            // repeat rows 0..4.
            let flat: Vec<Vec<Value>> = [[false, true], [true, true], [true, false]]
                .iter()
                .map(|keys| {
                    let mut rows: Vec<Value> = (0..12).flat_map(|_| keys.map(&mut value)).collect();
                    rows.extend_from_within(..8);
                    rows
                })
                .collect();
            const N: usize = 16;
            let row = |rel: usize, i: usize| &flat[rel][2 * i..2 * i + 2];
            let tuples = |live: &[Vec<bool>]| -> Vec<Vec<Tuple>> {
                (0..3)
                    .map(|r| (0..N).filter(|&i| live[r][i]).map(|i| row(r, i).into()).collect())
                    .collect()
            };
            let mut arrivals: Vec<(usize, usize)> =
                (0..3).flat_map(|r| (0..N).map(move |i| (r, i))).collect();
            rng.shuffle(&mut arrivals);
            let nested = |live: &[Vec<bool>]| {
                Weights::of(naive_join(&spec, &tuples(live)).iter().map(|t| (t, 1)))
            };
            let oracle = nested(&vec![vec![true; N]; 3]);
            heaviest = heaviest.max(oracle.heaviest());

            // Each join three times over: into a sink, and through each Vec face.
            let joins = || -> Vec<Box<dyn LocalJoin>> {
                vec![
                    Box::new(DBToasterJoin::new(&spec)),
                    Box::new(TraditionalJoin::new(&spec)),
                    Box::new(AggregatedDBToaster::new(
                        &spec,
                        &[vec![0, 1], vec![0, 1], vec![0, 1]],
                    )),
                    Box::new(AggregatedDBToaster::minimal(&spec)),
                ]
            };
            let (mut into, mut expand, mut weigh) = (joins(), joins(), joins());
            let mut sunk = vec![Weights::default(); 4];
            let (mut expanded, mut weighted) = (vec![Vec::new(); 4], vec![Vec::new(); 4]);
            let mut dbtoaster = DBToasterJoin::new(&spec);
            let mut signed = Weights::default();
            for &(rel, i) in &arrivals {
                for k in 0..4 {
                    into[k].insert_into(rel, row(rel, i), &mut sunk[k]);
                    expand[k].insert(rel, row(rel, i), &mut expanded[k]);
                    weigh[k].insert_weighted(rel, row(rel, i), &mut weighted[k]);
                }
                dbtoaster.delta_into(rel, row(rel, i), &[1], Some(&mut signed));
            }
            for k in 0..4 {
                let faces = [
                    Weights::of(expanded[k].iter().map(|t| (t, 1))),
                    Weights::of(weighted[k].iter().map(|(t, m)| (t, *m))),
                ];
                assert_eq!(faces, [sunk[k].clone(), sunk[k].clone()], "seed {seed}: join {k}");
            }
            for (k, name) in [(0, "DBToaster"), (1, "Traditional"), (2, "aggregated views")] {
                assert_eq!(sunk[k], oracle, "seed {seed}: {name}");
            }
            let count = |w: &Weights| w.0.values().sum::<i64>();
            assert_eq!(count(&sunk[3]), count(&oracle), "seed {seed}: minimal views");
            assert_eq!(signed, oracle, "seed {seed}: signed deltas");

            // Retract a third of the rows; the signed result deltas, summed
            // with the inserts', are the nested loop over the rest.
            let mut live = vec![vec![true; N]; 3];
            let mut retractions = Vec::new();
            for &(rel, i) in arrivals.iter().step_by(3) {
                live[rel][i] = false;
                dbtoaster.delta(rel, row(rel, i), -1, &mut retractions);
            }
            let mut integral = oracle.clone();
            retractions.iter().for_each(|(t, m)| integral.push(t, *m));
            assert_eq!(integral, nested(&live), "seed {seed}: signed retractions");

            for (n, window) in [
                (2, WindowSpec::Tumbling { width: 4 }),
                (2, WindowSpec::Sliding { size: 3 }),
                (3, WindowSpec::Tumbling { width: 4 }),
                (3, WindowSpec::Sliding { size: 3 }),
            ] {
                heaviest = heaviest.max(check_window_join(&mut rng, n, window));
            }
        }
        assert!(heaviest > 1, "no result weighed more than 1");
    }

    /// An `n`-way chain of `(key, ts)` relations on the key through
    /// `window`: into a sink and through both Vec faces, each must be the
    /// nested loop filtered by the window predicate. Each relation arrives
    /// in event-time order with a row repeated; relations interleave at
    /// random. Returns the heaviest result weight.
    fn check_window_join(rng: &mut SplitMix64, n: usize, window: WindowSpec) -> i64 {
        use crate::window::{output_ts_cols, WindowJoin};
        let schema = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
        let spec = MultiJoinSpec::new(
            (0..n).map(|r| RelationDef::new(format!("R{r}"), schema.clone(), 0)).collect(),
            (1..n).map(|r| JoinAtom::eq(r - 1, 0, r, 0)).collect(),
        )
        .unwrap();
        let rels: Vec<Vec<Tuple>> = (0..n)
            .map(|_| {
                let mut ts = 0;
                let mut rows: Vec<Tuple> = (0..14)
                    .map(|_| {
                        ts += rng.next_range(0, 3);
                        tuple![rng.next_range(0, 3), ts]
                    })
                    .collect();
                rows.insert(4, rows[3].clone());
                rows
            })
            .collect();
        let (arities, ts_cols) = (vec![2; n], vec![1; n]);
        let out_ts = output_ts_cols(&arities, &ts_cols);
        let in_window = |t: &&Tuple| {
            let ts = out_ts.iter().map(|&c| t.get(c).as_int().unwrap() as u64);
            window.contains(ts.clone().min().unwrap(), ts.max().unwrap())
        };
        let oracle = Weights::of(naive_join(&spec, &rels).iter().filter(in_window).map(|t| (t, 1)));

        let mut order: Vec<usize> = (0..n).flat_map(|r| vec![r; rels[r].len()]).collect();
        rng.shuffle(&mut order);
        let mk = || WindowJoin::event_time(DBToasterJoin::new(&spec), window, &arities, &ts_cols);
        let (mut into, mut expand, mut weigh) = (mk(), mk(), mk());
        let (mut sunk, mut expanded, mut weighted) = (Weights::default(), Vec::new(), Vec::new());
        let mut next = vec![0; n];
        for rel in order {
            let t = &rels[rel][next[rel]];
            next[rel] += 1;
            let ts = t.get(1).as_int().unwrap() as u64;
            into.insert_into(rel, ts, t, &mut sunk, |_, _, _| {});
            expand.insert(rel, ts, t, &mut expanded);
            weigh.insert_weighted(rel, ts, t, &mut weighted, |_, _| {});
        }
        assert_eq!(sunk, oracle, "{n}-way {window:?}: sink");
        assert_eq!(Weights::of(expanded.iter().map(|t| (t, 1))), oracle, "{n}-way {window:?}");
        let weighted = Weights::of(weighted.iter().map(|(t, m)| (t, *m)));
        assert_eq!(weighted, oracle, "{n}-way {window:?}: weighted");
        oracle.heaviest()
    }

    /// The shapes the batch model runs: the 3-chain, the star (an `F`
    /// arrival probes two components), equi plus theta atoms, and the
    /// scan-only inequality join.
    fn batch_shapes() -> Vec<MultiJoinSpec> {
        let rel = |name: &str, arity: usize| {
            let cols: Vec<(&str, DataType)> =
                ["a", "b"][..arity].iter().map(|&c| (c, DataType::Int)).collect();
            RelationDef::new(name, Schema::of(&cols), 0)
        };
        let lt = |l, lc, r, rc| JoinAtom {
            left_rel: l,
            left_col: lc,
            op: CmpOp::Lt,
            right_rel: r,
            right_col: rc,
        };
        [
            (vec![rel("R", 2), rel("S", 2), rel("T", 2)], chain3().atoms),
            (
                vec![rel("F", 2), rel("D1", 1), rel("D2", 1)],
                vec![JoinAtom::eq(0, 0, 1, 0), JoinAtom::eq(0, 1, 2, 0)],
            ),
            (vec![rel("R", 2), rel("S", 2)], vec![JoinAtom::eq(0, 0, 1, 0), lt(0, 1, 1, 1)]),
            (vec![rel("R", 1), rel("S", 1)], vec![lt(0, 0, 1, 0)]),
        ]
        .into_iter()
        .map(|(rels, atoms)| MultiJoinSpec::new(rels, atoms).unwrap())
        .collect()
    }

    /// One seed of the batch model: runs of one relation's rows, of random
    /// length 1–70, go through the batch body — per-row ±1 weights, one
    /// weight for the run, or the `LocalJoin` face — while a second join
    /// takes the same rows one at a time. After every run both must have
    /// emitted the same results in the same order with the same weights,
    /// and hold the same state, down to the snapshot bytes; at the end the
    /// results must integrate to the nested loop over the live rows. Keys
    /// mix `Int` and equal `Float`s, rows repeat, and a retraction takes
    /// back a live row.
    fn check_batches_equal_rows(seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let collide = rng.next_below(2) == 1;
        crate::views::ALL_KEYS_COLLIDE.with(|c| c.set(collide));
        let spec = batch_shapes().swap_remove(rng.next_below(4));
        let (mut batched, mut single) = (DBToasterJoin::new(&spec), DBToasterJoin::new(&spec));
        let mut live: Vec<Vec<Tuple>> = vec![Vec::new(); spec.n_relations()];
        let mut integral = Weights::default();
        for run in 0..rng.next_range(1, 6) {
            let rel = rng.next_below(spec.n_relations());
            let arity = spec.relations[rel].schema.arity();
            // 0: per-row ±1 weights; 1: inserts; 2: retractions under one weight.
            let form = rng.next_below(3);
            let (mut rows, mut mults) = (Vec::new(), Vec::new());
            for _ in 0..rng.next_range(1, 70) {
                let retract = form == 2 || form == 0 && rng.next_below(3) == 0;
                let (row, mult) = match live[rel].len() {
                    0 if form == 2 => break,
                    n if retract && n > 0 => (live[rel].swap_remove(rng.next_below(n)), -1),
                    n if n > 0 && rng.next_below(4) == 0 => {
                        (live[rel][rng.next_below(n)].clone(), 1)
                    }
                    _ => {
                        let mut key = || match rng.next_range(0, 5) {
                            k if rng.next_below(3) == 0 => Value::Float(k as f64),
                            k => Value::Int(k),
                        };
                        ((0..arity).map(|_| key()).collect(), 1)
                    }
                };
                if mult > 0 {
                    live[rel].push(row.clone());
                }
                rows.extend_from_slice(&row);
                mults.push(mult);
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut into_a = |row: &[Value], m: i64| a.push((Tuple::from(row), m));
            match form {
                0 => batched.delta_into(rel, &rows, &mults, Some(&mut into_a)),
                1 => batched.insert_into(rel, &rows, &mut into_a),
                _ => batched.delta_into(rel, &rows, &[-1], Some(&mut into_a)),
            }
            let mut into_b = |row: &[Value], m: i64| b.push((Tuple::from(row), m));
            for (row, &m) in rows.chunks(arity).zip(&mults) {
                single.delta_into(rel, row, &[m], Some(&mut into_b));
            }
            let what =
                format!("seed {seed} (colliding hash: {collide}), run {run} of relation {rel}");
            assert_eq!(a, b, "{what}: results");
            assert_eq!(batched.stored(), single.stored(), "{what}: stored");
            let (mut sa, mut sb) = (Vec::new(), Vec::new());
            batched.snapshot_state(&mut sa);
            single.snapshot_state(&mut sb);
            assert_eq!(sa, sb, "{what}: snapshot bytes");
            a.iter().for_each(|(t, m)| integral.push(t, *m));
        }
        let nested = Weights::of(naive_join(&spec, &live).iter().map(|t| (t, 1)));
        assert_eq!(integral, nested, "seed {seed} (colliding hash: {collide}): nested loop");
        crate::views::ALL_KEYS_COLLIDE.with(|c| c.set(false));
    }

    #[test]
    fn batch_delta_model() {
        // More seeds in a release build (CI's "batch delta model check").
        for seed in 0..if cfg!(debug_assertions) { 300 } else { 5_000 } {
            check_batches_equal_rows(seed);
        }
    }

    #[test]
    fn single_relation_emits_identity() {
        let spec = MultiJoinSpec::new(
            vec![RelationDef::new("R", Schema::of(&[("a", DataType::Int)]), 0)],
            vec![],
        )
        .unwrap();
        let mut j = DBToasterJoin::new(&spec);
        let mut out = Vec::new();
        j.insert(0, &tuple![5], &mut out);
        assert_eq!(out, vec![tuple![5]]);
    }

    #[test]
    fn signed_deltas_carry_retractions() {
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("R", Schema::of(&[("a", DataType::Int)]), 0),
                RelationDef::new("S", Schema::of(&[("a", DataType::Int)]), 0),
            ],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap();
        let mut j = DBToasterJoin::new(&spec);
        let mut out = Vec::new();
        j.delta(0, &tuple![7], 1, &mut out);
        assert!(out.is_empty());
        j.delta(1, &tuple![7], 1, &mut out);
        assert_eq!(out, vec![(tuple![7, 7], 1)]);
        out.clear();
        // Retracting the R side must emit a negative result delta.
        j.delta(0, &tuple![7], -1, &mut out);
        assert_eq!(out, vec![(tuple![7, 7], -1)]);
        assert_eq!(j.view_sizes().iter().map(|(_, n)| n).sum::<usize>(), 1, "only S remains");
    }

    #[test]
    fn stored_counts_views() {
        let spec = chain3();
        let mut j = DBToasterJoin::new(&spec);
        let mut out = Vec::new();
        j.insert(0, &tuple![0, 1], &mut out);
        assert_eq!(j.stored(), 1); // V{R}
        j.insert(1, &tuple![1, 2], &mut out);
        // V{R}, V{S}, V{RS}.
        assert_eq!(j.stored(), 3);
    }
}
