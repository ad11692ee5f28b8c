//! The traditional online local join (§3.3): indexes on the *base*
//! relations only.
//!
//! "Upon tuple arrival, we store the tuple, update all of its indexes, and
//! lookup indexes on the opposite relation(s) in order to produce result
//! tuples." For 2-way joins this is the classic symmetric hash join \[69\];
//! for n-way joins every arrival must *recompute* the (n−1)-way remainder
//! by cascading base-relation probes — the recomputation DBToaster
//! amortizes away, and the reason Figure 8 shows an order-of-magnitude gap
//! that "deepens with the increase in the number of relations".

use squall_common::Value;
use squall_expr::join_cond::CmpOp;
use squall_expr::MultiJoinSpec;

use crate::views::{RowId, View};
use crate::{LocalJoin, RowSink};

/// Where a probe key / filter operand comes from during the cascade.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// The arriving tuple.
    Delta,
    /// The relation bound at cascade step `k`.
    Bound(usize),
}

/// One step of the probe cascade: bind relation `rel` by probing its base
/// store.
#[derive(Debug)]
struct Step {
    rel: usize,
    /// `(source, source column)` pairs forming the equi probe key.
    key: Vec<(Slot, usize)>,
    index_id: Option<usize>,
    /// Theta filters `(source, source col, op, candidate col)`.
    theta: Vec<(Slot, usize, CmpOp, usize)>,
}

/// The traditional indexed symmetric n-way join.
pub struct TraditionalJoin {
    arities: Vec<usize>,
    bases: Vec<View>,
    /// `plans[i]` = cascade to run when a tuple arrives at relation `i`.
    plans: Vec<Vec<Step>>,
    /// Precomputed output ordering: for each arrival relation, the cascade
    /// position (or Delta) supplying each output relation.
    emit_order: Vec<Vec<Slot>>,
    scratch: Scratch,
}

/// Buffers pooled across arrivals: the stored row bound at each cascade step
/// and each step's matches (as ids into the base views), and the assembly
/// buffer of one result row, handed to the sink borrowed.
#[derive(Default)]
struct Scratch {
    bound: Vec<(RowId, i64)>,
    found: Vec<Vec<(RowId, i64)>>,
    values: Vec<Value>,
}

impl TraditionalJoin {
    pub fn new(spec: &MultiJoinSpec) -> TraditionalJoin {
        let n = spec.n_relations();
        let arities: Vec<usize> = spec.relations.iter().map(|r| r.schema.arity()).collect();
        let mut bases: Vec<View> = (0..n).map(|r| View::new(vec![r], &arities)).collect();

        let mut plans = Vec::with_capacity(n);
        let mut emit_order = Vec::with_capacity(n);
        for i in 0..n {
            // BFS order from i so every probed relation touches the bound set.
            let mut order: Vec<usize> = Vec::new();
            let mut bound: Vec<usize> = vec![i];
            loop {
                let touches = |&r: &usize| {
                    spec.atoms.iter().any(|a| {
                        (a.left_rel == r && bound.contains(&a.right_rel))
                            || (a.right_rel == r && bound.contains(&a.left_rel))
                    })
                };
                let mut unbound = (0..n).filter(|r| !bound.contains(r));
                // Disconnected specs degenerate to cross products; take any
                // remaining relation (scan probe).
                let Some(next) = unbound.clone().find(touches).or_else(|| unbound.next()) else {
                    break;
                };
                order.push(next);
                bound.push(next);
            }
            // Where each relation's row comes from: the arrival, or the
            // cascade step that binds it.
            let mut slots = vec![Slot::Delta; n];
            for (k, &r) in order.iter().enumerate() {
                slots[r] = Slot::Bound(k);
            }
            let mut steps = Vec::with_capacity(order.len());
            for (k, &j) in order.iter().enumerate() {
                let mut key = Vec::new();
                let mut index_cols = Vec::new();
                let mut theta = Vec::new();
                for a in &spec.atoms {
                    // Atoms between j and an already-bound relation.
                    let (src_rel, src_col, op, j_col) = if a.left_rel == j {
                        (a.right_rel, a.right_col, a.op.flip(), a.left_col)
                    } else if a.right_rel == j {
                        (a.left_rel, a.left_col, a.op, a.right_col)
                    } else {
                        continue;
                    };
                    let src_bound = src_rel == i || order[..k].contains(&src_rel);
                    if !src_bound {
                        continue;
                    }
                    let slot = slots[src_rel];
                    if op == CmpOp::Eq {
                        key.push((slot, src_col));
                        index_cols.push(j_col);
                    } else {
                        // op is oriented source-side: source op candidate.
                        theta.push((slot, src_col, op, j_col));
                    }
                }
                let index_id = if index_cols.is_empty() {
                    None
                } else {
                    Some(bases[j].ensure_index(index_cols))
                };
                steps.push(Step { rel: j, key, index_id, theta });
            }
            plans.push(steps);
            emit_order.push(slots);
        }
        let scratch =
            Scratch { found: vec![Vec::new(); n.saturating_sub(1)], ..Scratch::default() };
        TraditionalJoin { arities, bases, plans, emit_order, scratch }
    }

    /// Bind the relations of `rel`'s cascade from `step` on, `sc.bound`
    /// holding the stored rows chosen so far; a complete binding emits its
    /// result row.
    fn cascade(
        &self,
        rel: usize,
        row: &[Value],
        step: usize,
        sc: &mut Scratch,
        out: &mut dyn RowSink,
    ) {
        let steps = &self.plans[rel];
        let row_of = |slot: Slot, bound: &[(RowId, i64)]| match slot {
            Slot::Delta => row,
            Slot::Bound(k) => self.bases[steps[k].rel].row(bound[k].0).0,
        };
        if step == steps.len() {
            // Emit: one result, weighted by the multiplicity product.
            sc.values.clear();
            for &slot in &self.emit_order[rel] {
                sc.values.extend_from_slice(row_of(slot, &sc.bound));
            }
            out.push(&sc.values, sc.bound.iter().map(|(_, m)| m).product());
            return;
        }
        // The recomputation the paper criticizes: every arrival probes the
        // base stores and re-derives all partial joins. A step's matches are
        // collected before binding: the base views do not change during a
        // cascade, so this is the order a lazy probe would bind them in.
        let (st, bound) = (&steps[step], &sc.bound);
        let value_of = |slot, col: usize| &row_of(slot, bound)[col];
        let base = &self.bases[st.rel];
        let keep = |id: RowId| {
            let (cand, mult) = base.row(id);
            let theta = |&(slot, scol, op, ccol): &(Slot, usize, CmpOp, usize)| {
                op.eval(value_of(slot, scol), &cand[ccol])
            };
            st.theta.iter().all(theta).then_some((id, mult))
        };
        let found = &mut sc.found[step];
        found.clear();
        match st.index_id {
            Some(ix) => {
                let key = st.key.iter().map(|&(slot, col)| value_of(slot, col));
                found.extend(base.probe_ids(ix, key).filter_map(keep));
            }
            None => found.extend(base.scan_ids().filter_map(keep)),
        }
        for k in 0..sc.found[step].len() {
            sc.bound.push(sc.found[step][k]);
            self.cascade(rel, row, step + 1, sc, out);
            sc.bound.pop();
        }
    }
}

impl LocalJoin for TraditionalJoin {
    fn insert_into(&mut self, rel: usize, rows: &[Value], out: &mut dyn RowSink) {
        // Row by row: produce the results each arrival completes (against
        // stored state), then store it.
        let arity = self.arities[rel];
        let mut sc = std::mem::take(&mut self.scratch);
        for i in 0..crate::batch_len(rows, arity) {
            let row = &rows[i * arity..][..arity];
            self.cascade(rel, row, 0, &mut sc, out);
            self.bases[rel].update(row, 1);
        }
        self.scratch = sc;
    }

    fn remove(&mut self, rel: usize, rows: &[Value], mults: &[i64]) {
        let arity = self.arities[rel];
        for i in 0..crate::batch_len(rows, arity) {
            let mult = mults[if mults.len() == 1 { 0 } else { i }];
            self.bases[rel].update(&rows[i * arity..][..arity], -mult);
        }
    }

    fn stored(&self) -> usize {
        self.bases.iter().map(|b| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbtoaster::DBToasterJoin;
    use crate::naive::{naive_join, same_multiset};
    use squall_common::{tuple, DataType, Schema, SplitMix64, Tuple};
    use squall_expr::{JoinAtom, RelationDef};

    fn rand_rel(n: usize, dom: i64, rng: &mut SplitMix64) -> Vec<Tuple> {
        (0..n).map(|_| tuple![rng.next_range(0, dom), rng.next_range(0, dom)]).collect()
    }

    fn run_online(join: &mut dyn LocalJoin, relations: &[Vec<Tuple>], seed: u64) -> Vec<Tuple> {
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

    fn chain(n: usize) -> MultiJoinSpec {
        let mk = |i: usize| {
            RelationDef::new(
                format!("R{i}"),
                Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
                0,
            )
        };
        MultiJoinSpec::new(
            (0..n).map(mk).collect(),
            (0..n - 1).map(|i| JoinAtom::eq(i, 1, i + 1, 0)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn symmetric_two_way_matches_oracle() {
        let spec = chain(2);
        let mut rng = SplitMix64::new(4);
        let rels = vec![rand_rel(80, 10, &mut rng), rand_rel(80, 10, &mut rng)];
        let mut j = TraditionalJoin::new(&spec);
        let online = run_online(&mut j, &rels, 2);
        let oracle = naive_join(&spec, &rels);
        assert!(same_multiset(&online, &oracle), "{} vs {}", online.len(), oracle.len());
        assert!(!online.is_empty());
    }

    #[test]
    fn three_way_matches_oracle_and_dbtoaster() {
        let spec = chain(3);
        let mut rng = SplitMix64::new(6);
        let rels: Vec<Vec<Tuple>> = (0..3).map(|_| rand_rel(35, 6, &mut rng)).collect();
        let mut tj = TraditionalJoin::new(&spec);
        let mut dj = DBToasterJoin::new(&spec);
        let a = run_online(&mut tj, &rels, 8);
        let b = run_online(&mut dj, &rels, 8);
        let oracle = naive_join(&spec, &rels);
        assert!(same_multiset(&a, &oracle), "traditional {} vs {}", a.len(), oracle.len());
        assert!(same_multiset(&b, &oracle), "dbtoaster {} vs {}", b.len(), oracle.len());
        assert!(!oracle.is_empty());
    }

    #[test]
    fn theta_only_join() {
        let mk = |n: &str| RelationDef::new(n, Schema::of(&[("a", DataType::Int)]), 0);
        let spec = MultiJoinSpec::new(
            vec![mk("R"), mk("S")],
            vec![JoinAtom { left_rel: 0, left_col: 0, op: CmpOp::Gt, right_rel: 1, right_col: 0 }],
        )
        .unwrap();
        let r: Vec<Tuple> = (0..15).map(|i| tuple![i]).collect();
        let s: Vec<Tuple> = (0..15).map(|i| tuple![i]).collect();
        let mut j = TraditionalJoin::new(&spec);
        let online = run_online(&mut j, &[r.clone(), s.clone()], 5);
        assert_eq!(online.len(), 15 * 14 / 2);
    }

    #[test]
    fn mixed_condition_paper_example() {
        // R.A = S.A AND 2·R.B < S.C (§3.3): the equi part uses the hash
        // index, the inequality filters. (The arithmetic lives in plan-level
        // expressions; at the join level this is R.b < S.b with pre-scaled
        // values.)
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
        let mut rng = SplitMix64::new(10);
        let rels = vec![rand_rel(60, 8, &mut rng), rand_rel(60, 8, &mut rng)];
        let mut j = TraditionalJoin::new(&spec);
        let online = run_online(&mut j, &rels, 3);
        let oracle = naive_join(&spec, &rels);
        assert!(same_multiset(&online, &oracle));
    }

    #[test]
    fn star_schema_cascade() {
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("F", Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]), 0),
                RelationDef::new("D1", Schema::of(&[("a", DataType::Int)]), 0),
                RelationDef::new("D2", Schema::of(&[("b", DataType::Int)]), 0),
            ],
            vec![JoinAtom::eq(0, 0, 1, 0), JoinAtom::eq(0, 1, 2, 0)],
        )
        .unwrap();
        let mut rng = SplitMix64::new(12);
        let f = rand_rel(50, 6, &mut rng);
        let d1: Vec<Tuple> = (0..20).map(|_| tuple![rng.next_range(0, 6)]).collect();
        let d2: Vec<Tuple> = (0..20).map(|_| tuple![rng.next_range(0, 6)]).collect();
        let rels = vec![f, d1, d2];
        let mut j = TraditionalJoin::new(&spec);
        let online = run_online(&mut j, &rels, 1);
        let oracle = naive_join(&spec, &rels);
        assert!(same_multiset(&online, &oracle), "{} vs {}", online.len(), oracle.len());
        assert!(!online.is_empty());
    }

    #[test]
    fn duplicates_and_removal() {
        let spec = chain(2);
        let mut j = TraditionalJoin::new(&spec);
        let mut out = Vec::new();
        j.insert(0, &tuple![0, 7], &mut out);
        j.insert(0, &tuple![0, 7], &mut out);
        j.remove(0, &tuple![0, 7], &[1]);
        j.insert(1, &tuple![7, 1], &mut out);
        assert_eq!(out.len(), 1, "one R copy left after removal");
        assert_eq!(j.stored(), 2);
    }

    #[test]
    fn join_keys_compare_as_values_do() {
        let (spec, rels, expected) = crate::naive::mixed_key_join();
        for seed in 0..4 {
            let online = run_online(&mut TraditionalJoin::new(&spec), &rels, seed);
            assert!(same_multiset(&online, &expected), "{online:?}");
            assert!(same_multiset(&online, &naive_join(&spec, &rels)));
        }
    }

    #[test]
    fn single_relation_identity() {
        let spec = MultiJoinSpec::new(
            vec![RelationDef::new("R", Schema::of(&[("a", DataType::Int)]), 0)],
            vec![],
        )
        .unwrap();
        let mut j = TraditionalJoin::new(&spec);
        let mut out = Vec::new();
        j.insert(0, &tuple![3], &mut out);
        assert_eq!(out, vec![tuple![3]]);
    }

    /// The shapes the batch model runs: the 3-chain, the star (an `F`
    /// arrival cascades through two dimensions), equi plus theta atoms, and
    /// the scan-only inequality join.
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
            (vec![rel("R", 2), rel("S", 2), rel("T", 2)], chain(3).atoms),
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
    /// length 1–70, go through `insert_into` as one batch (or, now and then,
    /// `remove` under one weight) while a second join takes the same rows one
    /// at a time. After every run both must have emitted the same results in
    /// the same order with the same weights, and store the same rows; while
    /// nothing was removed, the results must integrate to the nested loop.
    /// Keys mix `Int` and equal `Float`s, and rows repeat.
    fn check_batches_equal_rows(seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let collide = rng.next_below(2) == 1;
        crate::views::ALL_KEYS_COLLIDE.with(|c| c.set(collide));
        let spec = batch_shapes().swap_remove(rng.next_below(4));
        let (mut batched, mut single) = (TraditionalJoin::new(&spec), TraditionalJoin::new(&spec));
        let mut live: Vec<Vec<Tuple>> = vec![Vec::new(); spec.n_relations()];
        let (mut integral, mut removed) = (Vec::new(), false);
        for run in 0..rng.next_range(1, 8) {
            let rel = rng.next_below(spec.n_relations());
            let arity = spec.relations[rel].schema.arity();
            let remove = !live[rel].is_empty() && rng.next_below(5) == 0;
            let mut rows = Vec::new();
            for _ in 0..rng.next_range(1, 70) {
                let n = live[rel].len();
                let row: Tuple = match () {
                    _ if remove && n == 0 => break,
                    _ if remove => live[rel].swap_remove(rng.next_below(n)),
                    _ if n > 0 && rng.next_below(4) == 0 => live[rel][rng.next_below(n)].clone(),
                    _ => (0..arity)
                        .map(|_| match rng.next_range(0, 5) {
                            k if rng.next_below(3) == 0 => Value::Float(k as f64),
                            k => Value::Int(k),
                        })
                        .collect(),
                };
                if !remove {
                    live[rel].push(row.clone());
                }
                rows.extend_from_slice(&row);
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            if remove {
                removed = true;
                batched.remove(rel, &rows, &[1]);
                rows.chunks(arity).for_each(|row| single.remove(rel, row, &[1]));
            } else {
                batched
                    .insert_into(rel, &rows, &mut |row: &[Value], m| a.push((Tuple::from(row), m)));
                for row in rows.chunks(arity) {
                    single.insert_into(rel, row, &mut |row: &[Value], m| {
                        b.push((Tuple::from(row), m))
                    });
                }
            }
            let what =
                format!("seed {seed} (colliding hash: {collide}), run {run} of relation {rel}");
            assert_eq!(a, b, "{what}: results");
            assert_eq!(batched.stored(), single.stored(), "{what}: stored");
            integral.extend(a.into_iter().flat_map(|(t, m)| std::iter::repeat_n(t, m as usize)));
        }
        if !removed {
            let what = format!("seed {seed} (colliding hash: {collide}): nested loop");
            assert!(same_multiset(&integral, &naive_join(&spec, &live)), "{what}");
        }
        crate::views::ALL_KEYS_COLLIDE.with(|c| c.set(false));
    }

    #[test]
    fn batch_insert_model() {
        // More seeds in a release build (CI's "traditional batch model check").
        for seed in 0..if cfg!(debug_assertions) { 300 } else { 5_000 } {
            check_batches_equal_rows(seed);
        }
    }

    #[test]
    fn no_self_match_on_insert() {
        // An arrival must join only against *previously stored* tuples.
        let spec = chain(2);
        let mut j = TraditionalJoin::new(&spec);
        let mut out = Vec::new();
        j.insert(0, &tuple![5, 5], &mut out);
        assert!(out.is_empty(), "first tuple has nothing to join with");
    }
}
