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

use squall_common::codec::Reader;
use squall_common::{FxHashMap, Result, Tuple, Value};
use squall_expr::join_cond::CmpOp;
use squall_expr::MultiJoinSpec;

use crate::views::{RowId, View};
use crate::{LocalJoin, Snapshot};

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
    /// Assembly buffer for one ΔV_S row: handed to [`View::update`] as a
    /// borrowed row, built into a [`Tuple`] only for an emitted result.
    scratch_values: Vec<Value>,
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
        }
    }

    /// Stored tuples per intermediate view.
    #[cfg(test)]
    fn view_sizes(&self) -> Vec<(Vec<usize>, usize)> {
        self.views.iter().map(|v| (v.members.clone(), v.len())).collect()
    }

    /// Apply a **signed** delta `(row, mult)` to relation `rel` and push
    /// the resulting signed result deltas into `out` — the Z-set face of
    /// the operator used by standing materialized views: `mult = +1`
    /// inserts, `mult = -1` retracts, and emitted multiplicities carry the
    /// sign through (a retraction of a stored match emits a negative
    /// delta). Intermediate views are maintained exactly as for
    /// [`LocalJoin::insert`]/[`LocalJoin::remove`].
    pub fn delta(&mut self, rel: usize, row: &[Value], mult: i64, out: &mut Vec<(Tuple, i64)>) {
        self.apply_delta(rel, row, mult, Sink::Signed(out));
    }

    fn apply_delta(&mut self, rel: usize, row: &[Value], mult: i64, mut out: Sink<'_>) {
        debug_assert_eq!(row.len(), self.arities[rel], "arity mismatch for relation {rel}");
        // Scratch buffers move out of `self` for the duration of the call
        // so the plan iteration below can still borrow `self.plans`; they
        // are restored (capacity intact) on exit.
        let mut match_bufs = std::mem::take(&mut self.scratch_matches);
        let mut idx = std::mem::take(&mut self.scratch_idx);
        let mut values = std::mem::take(&mut self.scratch_values);
        for plan in &self.plans[rel] {
            if plan.view_id.is_none() && matches!(out, Sink::None) {
                continue; // a result delta nobody reads: not even probed
            }
            if plan.comps.is_empty() {
                // ΔV_{rel} is the arrival itself.
                match plan.view_id {
                    Some(vid) => self.views[vid].update(row, mult),
                    None => out.push(row, mult),
                }
                continue;
            }
            // Probe every component. Matches are kept as row ids: the
            // probed views never contain `rel`, so they do not change
            // while this plan updates its target.
            if match_bufs.len() < plan.comps.len() {
                match_bufs.resize_with(plan.comps.len(), Vec::new);
            }
            let matches = &mut match_bufs[..plan.comps.len()];
            let mut dead = false;
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
                    dead = true;
                    break;
                }
            }
            if dead {
                continue;
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
                match plan.view_id {
                    Some(vid) => self.views[vid].update(&values, delta_mult),
                    None => out.push(&values, delta_mult),
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
        self.scratch_matches = match_bufs;
        self.scratch_idx = idx;
        self.scratch_values = values;
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
        let mut discard = Vec::new();
        for (rel, rows) in bases.iter().enumerate() {
            for (t, m) in rows {
                self.delta(rel, t, *m, &mut discard);
                discard.clear();
            }
        }
        Ok(())
    }
}

/// Where result deltas go.
enum Sink<'a> {
    None,
    Expand(&'a mut Vec<Tuple>),
    Weighted(&'a mut Vec<(Tuple, i64)>),
    /// Z-set output: results carry their signed multiplicity, retractions
    /// included (the standing-view delta plane).
    Signed(&'a mut Vec<(Tuple, i64)>),
}

impl Sink<'_> {
    /// Keep one result delta; its [`Tuple`] is built only if it is kept.
    fn push(&mut self, result: &[Value], mult: i64) {
        match self {
            Sink::Expand(v) if mult > 0 => {
                let result = Tuple::from(result);
                v.extend((0..mult).map(|_| result.clone()));
            }
            Sink::Weighted(v) if mult > 0 => v.push((result.into(), mult)),
            Sink::Signed(v) if mult != 0 => v.push((result.into(), mult)),
            _ => {}
        }
    }
}

impl LocalJoin for DBToasterJoin {
    fn insert(&mut self, rel: usize, row: &[Value], out: &mut Vec<Tuple>) {
        self.apply_delta(rel, row, 1, Sink::Expand(out));
    }

    fn remove(&mut self, rel: usize, row: &[Value]) {
        self.apply_delta(rel, row, -1, Sink::None);
    }

    fn stored(&self) -> usize {
        self.views.iter().map(|v| v.len()).sum()
    }

    fn insert_weighted(&mut self, rel: usize, row: &[Value], out: &mut Vec<(Tuple, i64)>) {
        self.apply_delta(rel, row, 1, Sink::Weighted(out));
    }
}

/// DBToaster with *aggregated views* — the higher-order IVM trick that
/// makes the §3.3/Figure 8 gap: every relation is projected onto the
/// columns that future probes or the downstream aggregate actually need,
/// so duplicate keys collapse into multiplicities and a hot-key arrival
/// probes O(distinct keys) instead of enumerating O(matches) stored
/// tuples. Results come out as `(projected tuple, multiplicity)` — exactly
/// what COUNT/SUM consumers need.
pub struct AggregatedDBToaster {
    inner: DBToasterJoin,
    /// Per relation: the original columns retained (sorted).
    kept: Vec<Vec<usize>>,
    /// The arrival projected onto its kept columns.
    projected: Vec<Value>,
}

impl AggregatedDBToaster {
    /// Keep only join-key columns plus `extra[rel]` (columns the
    /// downstream aggregate reads). Correctness: projection preserves the
    /// join result's *multiset cardinality* per retained column
    /// combination, which is exactly what weighted consumers use.
    pub fn new(spec: &MultiJoinSpec, extra: &[Vec<usize>]) -> AggregatedDBToaster {
        use squall_expr::RelationDef;
        assert_eq!(extra.len(), spec.n_relations());
        let mut kept: Vec<Vec<usize>> = vec![Vec::new(); spec.n_relations()];
        for a in &spec.atoms {
            for &(r, c) in &[(a.left_rel, a.left_col), (a.right_rel, a.right_col)] {
                if !kept[r].contains(&c) {
                    kept[r].push(c);
                }
            }
        }
        for (r, cols) in extra.iter().enumerate() {
            for &c in cols {
                if !kept[r].contains(&c) {
                    kept[r].push(c);
                }
            }
        }
        for cols in &mut kept {
            if cols.is_empty() {
                cols.push(0);
            }
            cols.sort_unstable();
        }
        // Projected spec: schemas narrowed, atoms remapped.
        let relations: Vec<RelationDef> = spec
            .relations
            .iter()
            .enumerate()
            .map(|(r, def)| {
                RelationDef::new(def.name.clone(), def.schema.project(&kept[r]), def.est_size)
            })
            .collect();
        let narrowed = |rel: usize, col: usize| {
            kept[rel].iter().position(|&c| c == col).expect("kept holds every atom column")
        };
        let atoms = spec
            .atoms
            .iter()
            .map(|a| squall_expr::JoinAtom {
                left_rel: a.left_rel,
                left_col: narrowed(a.left_rel, a.left_col),
                op: a.op,
                right_rel: a.right_rel,
                right_col: narrowed(a.right_rel, a.right_col),
            })
            .collect();
        let projected =
            MultiJoinSpec::new(relations, atoms).expect("projection preserves validity");
        AggregatedDBToaster { inner: DBToasterJoin::new(&projected), kept, projected: Vec::new() }
    }

    /// Join-keys-only variant (COUNT(*) queries).
    pub fn minimal(spec: &MultiJoinSpec) -> AggregatedDBToaster {
        AggregatedDBToaster::new(spec, &vec![Vec::new(); spec.n_relations()])
    }

    /// The inner join, and `row` of `rel` projected into the reused buffer.
    fn project(&mut self, rel: usize, row: &[Value]) -> (&mut DBToasterJoin, &[Value]) {
        self.projected.clear();
        self.projected.extend(self.kept[rel].iter().map(|&c| row[c].clone()));
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
    fn insert(&mut self, rel: usize, row: &[Value], out: &mut Vec<Tuple>) {
        let (inner, row) = self.project(rel, row);
        inner.insert(rel, row, out)
    }

    fn remove(&mut self, rel: usize, row: &[Value]) {
        let (inner, row) = self.project(rel, row);
        inner.remove(rel, row)
    }

    fn stored(&self) -> usize {
        self.inner.stored()
    }

    fn insert_weighted(&mut self, rel: usize, row: &[Value], out: &mut Vec<(Tuple, i64)>) {
        let (inner, row) = self.project(rel, row);
        inner.insert_weighted(rel, row, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{naive_join, same_multiset};
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
        j.remove(0, &tuple![0, 1]);
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
                j.remove(rel, t);
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

    #[test]
    fn row_slice_joins_agree_with_naive_join_on_seeded_inputs() {
        // Every arrival reaches the joins as a borrowed row cut from one flat
        // buffer per relation, over keys mixing `Int` and `Float` (equal
        // values meet) and payloads of every kind. DBToaster, both
        // aggregated-view variants and Traditional must answer what the
        // nested loop does; DBToaster's signed deltas must also integrate to
        // the nested loop over what is left after retractions.
        use crate::traditional::TraditionalJoin;
        use std::collections::BTreeMap;
        let spec = chain3();
        for seed in 0..24 {
            let mut rng = SplitMix64::new(seed);
            let mut value = |key: bool| match rng.next_below(if key { 2 } else { 5 }) {
                0 => Value::Int(rng.next_range(0, 4)),
                1 => Value::Float(rng.next_range(0, 4) as f64),
                2 => Value::Null,
                3 => Value::str(["p", "q"][rng.next_below(2)]),
                _ => Value::Float(0.5),
            };
            // R(payload, key) ⋈ S(key, key) ⋈ T(key, payload).
            let flat: Vec<Vec<Value>> = [[false, true], [true, true], [true, false]]
                .iter()
                .map(|keys| (0..12).flat_map(|_| keys.map(&mut value)).collect())
                .collect();
            let row = |rel: usize, i: usize| &flat[rel][2 * i..2 * i + 2];
            let tuples = |live: &[Vec<bool>]| -> Vec<Vec<Tuple>> {
                (0..3)
                    .map(|r| (0..12).filter(|&i| live[r][i]).map(|i| row(r, i).into()).collect())
                    .collect()
            };
            let mut arrivals: Vec<(usize, usize)> =
                (0..3).flat_map(|r| (0..12).map(move |i| (r, i))).collect();
            rng.shuffle(&mut arrivals);
            let oracle =
                naive_join(&spec, &tuples(&[vec![true; 12], vec![true; 12], vec![true; 12]]));

            let mut dbtoaster = DBToasterJoin::new(&spec);
            let mut traditional = TraditionalJoin::new(&spec);
            let mut full = AggregatedDBToaster::new(&spec, &[vec![0, 1], vec![0, 1], vec![0, 1]]);
            let mut minimal = AggregatedDBToaster::minimal(&spec);
            let (mut a, mut b, mut c, mut d) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for &(rel, i) in &arrivals {
                dbtoaster.insert(rel, row(rel, i), &mut a);
                traditional.insert(rel, row(rel, i), &mut b);
                full.insert_weighted(rel, row(rel, i), &mut c);
                minimal.insert_weighted(rel, row(rel, i), &mut d);
            }
            let expand = |w: &[(Tuple, i64)]| -> Vec<Tuple> {
                w.iter().flat_map(|(t, m)| (0..*m).map(move |_| t.clone())).collect()
            };
            assert!(same_multiset(&a, &oracle), "seed {seed}: DBToaster");
            assert!(same_multiset(&b, &oracle), "seed {seed}: Traditional");
            assert!(same_multiset(&expand(&c), &oracle), "seed {seed}: aggregated views");
            let count: i64 = d.iter().map(|(_, m)| m).sum();
            assert_eq!(count, oracle.len() as i64, "seed {seed}: minimal views");

            // Retract a third of the rows; the signed result deltas, summed
            // with the inserts', are the nested loop over the rest.
            let mut integral: BTreeMap<Tuple, i64> = BTreeMap::new();
            for t in oracle {
                *integral.entry(t).or_insert(0) += 1;
            }
            let mut live = vec![vec![true; 12]; 3];
            let mut signed = Vec::new();
            for &(rel, i) in arrivals.iter().step_by(3) {
                live[rel][i] = false;
                dbtoaster.delta(rel, row(rel, i), -1, &mut signed);
            }
            for (t, m) in signed {
                *integral.entry(t).or_insert(0) += m;
            }
            integral.retain(|_, m| *m != 0);
            let mut rest: BTreeMap<Tuple, i64> = BTreeMap::new();
            for t in naive_join(&spec, &tuples(&live)) {
                *rest.entry(t).or_insert(0) += 1;
            }
            assert_eq!(integral, rest, "seed {seed}: signed deltas");
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
