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

use crate::views::View;
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
    n: usize,
    bases: Vec<View>,
    /// `plans[i]` = cascade to run when a tuple arrives at relation `i`.
    plans: Vec<Vec<Step>>,
    /// Precomputed output ordering: for each arrival relation, the cascade
    /// position (or Delta) supplying each output relation.
    emit_order: Vec<Vec<Slot>>,
    /// Assembly buffer for one result row, handed to the sink borrowed.
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
            while order.len() + 1 < n {
                let next = (0..n)
                    .filter(|r| !bound.contains(r))
                    .find(|&r| {
                        spec.atoms.iter().any(|a| {
                            (a.left_rel == r && bound.contains(&a.right_rel))
                                || (a.right_rel == r && bound.contains(&a.left_rel))
                        })
                    })
                    // Disconnected specs degenerate to cross products;
                    // take any remaining relation (scan probe).
                    .unwrap_or_else(|| (0..n).find(|r| !bound.contains(r)).unwrap());
                order.push(next);
                bound.push(next);
            }
            // Build the steps.
            let slot_of = |rel: usize, order: &[usize]| -> Slot {
                if rel == i {
                    Slot::Delta
                } else {
                    Slot::Bound(order.iter().position(|&r| r == rel).expect("bound"))
                }
            };
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
                    let slot = slot_of(src_rel, &order);
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
            // Output assembly order.
            let emits: Vec<Slot> = (0..n)
                .map(|r| {
                    if r == i {
                        Slot::Delta
                    } else {
                        Slot::Bound(order.iter().position(|&x| x == r).unwrap())
                    }
                })
                .collect();
            plans.push(steps);
            emit_order.push(emits);
        }
        TraditionalJoin { n, bases, plans, emit_order, values: Vec::new() }
    }

    /// Bind the relations of `rel`'s cascade from `step` on; `bound` holds
    /// the stored rows chosen so far, borrowed from the base views, and
    /// `values` is where a complete binding assembles its result row.
    fn cascade<'a>(
        &'a self,
        rel: usize,
        row: &'a [Value],
        step: usize,
        bound: &mut Vec<(&'a [Value], i64)>,
        values: &mut Vec<Value>,
        out: &mut dyn RowSink,
    ) {
        let steps = &self.plans[rel];
        if step == steps.len() {
            // Emit: one result, weighted by the multiplicity product.
            values.clear();
            for slot in &self.emit_order[rel] {
                match slot {
                    Slot::Delta => values.extend_from_slice(row),
                    Slot::Bound(k) => values.extend_from_slice(bound[*k].0),
                }
            }
            out.push(values, bound.iter().map(|(_, m)| m).product());
            return;
        }
        let st = &steps[step];
        let value_of = |slot: Slot, col: usize, bound: &[(&'a [Value], i64)]| -> &'a Value {
            match slot {
                Slot::Delta => &row[col],
                Slot::Bound(k) => &bound[k].0[col],
            }
        };
        // The recomputation the paper criticizes: every arrival probes the
        // base stores and re-derives all partial joins. The key points into
        // rows that outlive the cascade, so the probe holds no borrow of
        // `bound` while it grows (empty, and unallocated, for a scan).
        let key: Vec<&Value> =
            st.key.iter().map(|&(slot, col)| value_of(slot, col, bound)).collect();
        let mut bind = |(cand, mult): (&'a [Value], i64)| {
            let passes = st
                .theta
                .iter()
                .all(|&(slot, scol, op, ccol)| op.eval(value_of(slot, scol, bound), &cand[ccol]));
            if passes {
                bound.push((cand, mult));
                self.cascade(rel, row, step + 1, bound, values, out);
                bound.pop();
            }
        };
        let base = &self.bases[st.rel];
        match st.index_id {
            Some(ix) => base.probe(ix, key.iter().copied()).for_each(&mut bind),
            None => base.scan().for_each(&mut bind),
        }
    }
}

impl LocalJoin for TraditionalJoin {
    fn insert_into(&mut self, rel: usize, row: &[Value], out: &mut dyn RowSink) {
        // Produce results completed by this arrival (against stored state),
        // then store the row.
        if self.n == 1 {
            out.push(row, 1);
        } else {
            let mut bound = Vec::with_capacity(self.n - 1);
            let mut values = std::mem::take(&mut self.values);
            self.cascade(rel, row, 0, &mut bound, &mut values, out);
            self.values = values;
        }
        self.bases[rel].update(row, 1);
    }

    fn remove(&mut self, rel: usize, row: &[Value], mult: i64) {
        self.bases[rel].update(row, -mult);
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
        j.remove(0, &tuple![0, 7], 1);
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
