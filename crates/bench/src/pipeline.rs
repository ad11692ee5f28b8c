//! Pipelines of 2-way joins — the baseline the multi-way hypercube
//! operators are compared against (§3, §7.2, Figure 6).
//!
//! "We also run the corresponding pipelines of 2-way joins, where each
//! 2-way join uses hash partitioning in the case of skew-free equi-joins,
//! otherwise it uses the 1-Bucket partitioning." The pipeline builds a
//! left-deep chain: stage k joins the accumulated prefix with the next
//! relation, shuffling the (possibly very large) intermediate result over
//! the network — exactly the cost multi-way joins avoid.

use std::sync::Arc;

use squall_common::{FxHashMap, Result, Schema, SquallError, Tuple};
use squall_core::driver::{JoinReport, LocalJoinKind};
use squall_core::operators::{AggBolt, JoinBolt};
use squall_expr::join_cond::CmpOp;
use squall_expr::{JoinAtom, MultiJoinSpec, RelationDef};
use squall_join::{AggSpec, DBToasterJoin, LocalJoin, TraditionalJoin};
use squall_partition::HypercubeScheme;
use squall_runtime::{Grouping, IterSpoutVec, TopologyBuilder};

use crate::twoway::matrix_scheme;

/// Run the left-deep pipeline of 2-way joins for `spec`, joining relations
/// in the given `order` (must be a permutation of all relations such that
/// every prefix is connected).
///
/// Each stage uses hash partitioning when equi atoms connect the sides and
/// every key is skew-free; otherwise the 1-Bucket matrix. Returns the same
/// [`JoinReport`] as the multi-way driver so the two are directly
/// comparable; `loads` are the *last* stage's machine loads and
/// `network_factor` captures the intermediate shuffling the pipeline pays.
pub fn run_pipeline(
    spec: &MultiJoinSpec,
    mut data: Vec<Vec<Tuple>>,
    order: &[usize],
    machines_per_stage: usize,
    local: LocalJoinKind,
    collect_results: bool,
) -> Result<JoinReport> {
    let n = spec.n_relations();
    if order.len() != n || n < 2 {
        return Err(SquallError::InvalidPlan("pipeline order must cover all ≥2 relations".into()));
    }
    if data.len() != n {
        return Err(SquallError::InvalidPlan("one data stream per relation required".into()));
    }

    // col_base[rel] = offset of `rel`'s columns in the *relation-ordered*
    // output (what the multi-way driver produces), used to permute the
    // pipeline's order-dependent layout back for comparability.
    let mut col_base = vec![0usize; n];
    let mut off = 0;
    for (rel, base) in col_base.iter_mut().enumerate() {
        *base = off;
        off += spec.relations[rel].schema.arity();
    }

    let input_count: u64 = data.iter().map(|d| d.len() as u64).sum();
    let mut b = TopologyBuilder::new();
    let mut source_nodes = vec![usize::MAX; n];
    for (rel, tuples) in data.drain(..).enumerate() {
        let shared = Arc::new(tuples);
        source_nodes[rel] =
            b.add_spout(format!("src-{}", spec.relations[rel].name), 1, move |task| {
                Box::new(IterSpoutVec::strided(Arc::clone(&shared), task, 1))
            });
    }

    // Stages: prefix(order[..k]) ⋈ order[k].
    let mut prev_node = source_nodes[order[0]];
    let mut prefix: Vec<usize> = vec![order[0]];
    let mut prefix_schema: Schema = spec.relations[order[0]].schema.clone();
    let mut stage_nodes = Vec::new();
    for &next in &order[1..] {
        // Atoms between the prefix and `next`, remapped: prefix side uses
        // the position inside prefix_schema, next side its own columns.
        let mut atoms = Vec::new();
        let mut prefix_offset_of = FxHashMap::default();
        {
            let mut off = 0;
            for &r in &prefix {
                prefix_offset_of.insert(r, off);
                off += spec.relations[r].schema.arity();
            }
        }
        for a in &spec.atoms {
            let (p_rel, p_col, op, n_col) = if prefix.contains(&a.left_rel) && a.right_rel == next {
                (a.left_rel, a.left_col, a.op, a.right_col)
            } else if prefix.contains(&a.right_rel) && a.left_rel == next {
                (a.right_rel, a.right_col, a.op.flip(), a.left_col)
            } else {
                continue;
            };
            atoms.push(JoinAtom {
                left_rel: 0,
                left_col: prefix_offset_of[&p_rel] + p_col,
                op,
                right_rel: 1,
                right_col: n_col,
            });
        }
        if atoms.is_empty() {
            return Err(SquallError::InvalidPlan(format!(
                "pipeline prefix disconnected from relation {next}"
            )));
        }
        let next_schema = spec.relations[next].schema.clone();
        let stage_spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("prefix", prefix_schema.clone(), 0),
                RelationDef::new(spec.relations[next].name.clone(), next_schema.clone(), 0),
            ],
            atoms.clone(),
        )?;

        // Partitioning: hash on the equi keys when possible & skew-free,
        // else 1-Bucket.
        let equi: Vec<(usize, usize)> =
            atoms.iter().filter(|a| a.op == CmpOp::Eq).map(|a| (a.left_col, a.right_col)).collect();
        let skew_free = atoms.iter().filter(|a| a.op == CmpOp::Eq).all(|a| {
            stage_spec.relations[0].schema.field(a.left_col).skew_free
                && stage_spec.relations[1].schema.field(a.right_col).skew_free
        });
        let use_hash = !equi.is_empty() && skew_free;
        let one_bucket: Option<Arc<HypercubeScheme>> = if use_hash {
            None
        } else {
            // Shape by observed sizes is unknown here; square matrix.
            let side = (machines_per_stage as f64).sqrt().floor().max(1.0) as usize;
            Some(Arc::new(matrix_scheme(side, machines_per_stage / side, 77)))
        };

        // Count-only: the last stage folds its results into a COUNT(*).
        let count_star = prefix.len() + 1 == n && !collect_results;
        let stage_spec_arc = Arc::new(stage_spec);
        let prev = prev_node;
        let next_src = source_nodes[next];
        let spec_for_bolt = Arc::clone(&stage_spec_arc);
        let local_kind = local;
        let node = b.add_bolt(
            format!("join-{}", spec.relations[next].name),
            machines_per_stage,
            move |task| {
                let join: Box<dyn LocalJoin> = match local_kind {
                    LocalJoinKind::Traditional => Box::new(TraditionalJoin::new(&spec_for_bolt)),
                    LocalJoinKind::DBToaster => Box::new(DBToasterJoin::new(&spec_for_bolt)),
                };
                let mut map = FxHashMap::default();
                map.insert(prev, 0usize);
                map.insert(next_src, 1usize);
                let bolt = JoinBolt::new(task, map, join);
                Box::new(if count_star {
                    bolt.with_aggregate(None, Vec::new(), vec![AggSpec::count()])
                } else {
                    bolt
                })
            },
        );
        match one_bucket {
            None => {
                let left_cols: Vec<usize> = equi.iter().map(|&(l, _)| l).collect();
                let right_cols: Vec<usize> = equi.iter().map(|&(_, r)| r).collect();
                b.connect(prev, node, Grouping::Fields(left_cols));
                b.connect(next_src, node, Grouping::Fields(right_cols));
            }
            Some(scheme) => {
                b.connect(prev, node, Grouping::Custom(Arc::new(scheme.grouping_for(0))));
                b.connect(next_src, node, Grouping::Custom(Arc::new(scheme.grouping_for(1))));
            }
        }
        stage_nodes.push(node);
        prev_node = node;
        prefix_schema = prefix_schema.concat(&next_schema);
        prefix.push(next);
    }

    let last = *stage_nodes.last().expect("≥1 stage");
    // The sink the network factor divides by emits rows, not the folded
    // results the last stage counts: in count-only mode, one COUNT(*) task.
    let sink = if collect_results {
        last
    } else {
        let sink =
            b.add_bolt("count", 1, |_| Box::new(AggBolt::new(Vec::new(), vec![AggSpec::count()])));
        b.connect(last, sink, Grouping::Global);
        sink
    };
    let outcome = b.build()?.run();
    let metrics = &outcome.metrics;
    let last_metrics = metrics.node(last);
    // Permute each result back to relation order so reports are comparable
    // with the multi-way driver.
    let mut results: Vec<Tuple> = Vec::new();
    if collect_results {
        let perm: Vec<(usize, usize)> =
            (0..n).map(|rel| (col_base[rel], spec.relations[rel].schema.arity())).collect();
        // The pipeline output lays columns out in `order`; compute where
        // each relation starts there.
        let mut order_off = FxHashMap::default();
        let mut off = 0;
        for &r in order {
            order_off.insert(r, off);
            off += spec.relations[r].schema.arity();
        }
        for (_, t) in &outcome.outputs {
            let mut values = vec![squall_common::Value::Null; t.arity()];
            for rel in 0..n {
                let (dst, len) = perm[rel];
                let src = order_off[&rel];
                for k in 0..len {
                    values[dst + k] = t.get(src + k).clone();
                }
            }
            results.push(Tuple::new(values));
        }
    }
    let sources: Vec<usize> = source_nodes.clone();
    Ok(JoinReport {
        results,
        result_count: last_metrics.total_emitted(),
        input_count,
        input_counts: Vec::new(),
        loads: last_metrics.received.clone(),
        replication_factor: metrics.replication_factor(
            last,
            &[
                stage_nodes
                    .len()
                    .checked_sub(2)
                    .map(|i| stage_nodes[i])
                    .unwrap_or(source_nodes[order[0]]),
                source_nodes[*order.last().unwrap()],
            ],
        ),
        skew_degree: last_metrics.skew_degree(),
        network_factor: metrics.intermediate_network_factor(&sources, &[sink]),
        elapsed: outcome.elapsed,
        scheme_description: "pipeline-of-2-way".into(),
        scheduler: outcome.metrics.scheduler.clone(),
        error: outcome.error,
        transport: None,
        maintenance: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::{tuple, DataType, SplitMix64};
    use squall_core::driver::{run_multiway, MultiwayConfig};
    use squall_join::naive::{naive_join, same_multiset};
    use squall_partition::optimizer::SchemeKind;

    fn chain3() -> MultiJoinSpec {
        let mk = |n: &str| {
            RelationDef::new(n, Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]), 100)
        };
        MultiJoinSpec::new(
            vec![mk("R"), mk("S"), mk("T")],
            vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)],
        )
        .unwrap()
    }

    fn rand_data(n: usize, dom: i64, seed: u64) -> Vec<Vec<Tuple>> {
        let mut rng = SplitMix64::new(seed);
        (0..3)
            .map(|_| {
                (0..n).map(|_| tuple![rng.next_range(0, dom), rng.next_range(0, dom)]).collect()
            })
            .collect()
    }

    #[test]
    fn pipeline_matches_oracle_and_multiway() {
        let spec = chain3();
        let data = rand_data(100, 10, 3);
        let oracle = naive_join(&spec, &data);
        let pipe = run_pipeline(&spec, data.clone(), &[0, 1, 2], 4, LocalJoinKind::DBToaster, true)
            .unwrap();
        assert!(pipe.error.is_none());
        assert!(
            same_multiset(&pipe.results, &oracle),
            "pipeline {} vs oracle {}",
            pipe.results.len(),
            oracle.len()
        );
        let multi = run_multiway(
            &spec,
            data,
            &MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 4),
        )
        .unwrap();
        assert!(same_multiset(&pipe.results, &multi.results));
    }

    #[test]
    fn pipeline_respects_join_order() {
        let spec = chain3();
        let data = rand_data(60, 8, 5);
        let oracle = naive_join(&spec, &data);
        // Reverse order T, S, R is also a connected left-deep chain.
        let pipe =
            run_pipeline(&spec, data, &[2, 1, 0], 4, LocalJoinKind::Traditional, true).unwrap();
        assert!(same_multiset(&pipe.results, &oracle));
    }

    #[test]
    fn disconnected_order_rejected() {
        let spec = chain3();
        let data = rand_data(10, 4, 6);
        // R then T leaves the prefix disconnected from T (no R-T atoms).
        assert!(run_pipeline(&spec, data, &[0, 2, 1], 2, LocalJoinKind::DBToaster, true).is_err());
    }

    #[test]
    fn multiway_shuffles_fewer_tuples_when_intermediates_blow_up() {
        // The Figure 6 phenomenon: self-join chains over a graph-like
        // relation produce huge intermediate results; the pipeline ships
        // them, the hypercube does not.
        let mut rng = SplitMix64::new(9);
        // Power-law-ish: few hub keys with many edges.
        let edges: Vec<Tuple> = (0..400)
            .map(|_| {
                let a = if rng.next_f64() < 0.3 { 0 } else { rng.next_range(0, 40) };
                let b = if rng.next_f64() < 0.3 { 0 } else { rng.next_range(0, 40) };
                tuple![a, b]
            })
            .collect();
        let spec = chain3();
        let data = vec![edges.clone(), edges.clone(), edges.clone()];
        let multi = run_multiway(
            &spec,
            data.clone(),
            &MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 9).count_only(),
        )
        .unwrap();
        let pipe =
            run_pipeline(&spec, data, &[0, 1, 2], 9, LocalJoinKind::DBToaster, false).unwrap();
        assert_eq!(multi.result_count, pipe.result_count, "same query answer");
        assert!(
            multi.network_factor < pipe.network_factor,
            "multi-way {} vs pipeline {} network factor",
            multi.network_factor,
            pipe.network_factor
        );
    }

    #[test]
    fn pipeline_count_only() {
        let spec = chain3();
        let data = rand_data(80, 8, 12);
        let oracle = naive_join(&spec, &data);
        let pipe =
            run_pipeline(&spec, data, &[0, 1, 2], 3, LocalJoinKind::DBToaster, false).unwrap();
        assert!(pipe.results.is_empty());
        assert_eq!(pipe.result_count, oracle.len() as u64);
    }
}
