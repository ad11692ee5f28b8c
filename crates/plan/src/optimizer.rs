//! Cost-based join ordering and partitioning-scheme selection.
//!
//! [`PhysicalQuery::plan`] resolves a query in *written* FROM order and
//! defers the scheme choice to the execution config. This module is the
//! cost-based layer on top:
//!
//! * **Join ordering** — a dynamic program over relation subsets picks the
//!   relation order minimising the sum of estimated intermediate-result
//!   cardinalities. The engine executes a relation *sequence* (the local
//!   join probes relations in index order), so the search space is the
//!   left-deep orders; over set-prefix cost functions the subset DP is
//!   exact, and [`OptimizerMode::Exhaustive`] scores every permutation
//!   outright as a belt-and-braces oracle.
//! * **Cardinality estimation** — per-relation base sizes come from the
//!   pushed-down filter evaluated over a bounded row sample; per-column
//!   distinct counts and heavy-hitter frequencies come from
//!   [`Catalog::stats`] (populated by `analyze`), falling back to the
//!   System-R defaults (`V(R,a) = |R|`, no skew) when a table was never
//!   analyzed. An equi-atom's selectivity is `1 / max(V(l), V(r))`; a
//!   theta atom contributes the classic 1/3 guess.
//! * **Scheme selection** — instead of defaulting to Hybrid-Hypercube,
//!   every expressible scheme is costed analytically via
//!   [`squall_partition::estimate_scheme_cost`] on the *reordered* join
//!   spec (skew flags derived from the same statistics) and the cheapest
//!   under [`CostCalibration`] wins. An explicit
//!   [`ExecConfig::scheme`](crate::physical::ExecConfig) still overrides.
//!
//! The chosen order is applied in place by
//! [`PhysicalQuery::apply_order`], which remaps every join-output
//! coordinate; result sets are byte-identical across orders and schemes
//! (the `plan_equivalence` proptest harness enforces this), so the
//! optimizer can only change *performance*, never answers. Decisions are
//! recorded as an [`OptimizerDecision`] and surfaced by the join node's
//! explain lines as an estimated-vs-actual table once a finished run's
//! `JoinReport` provides the per-relation counters.

use squall_common::Result;
use squall_expr::JoinAtom;
use squall_partition::optimizer::SchemeKind;
use squall_partition::{choose_scheme, CostCalibration, CostEstimate};

use crate::catalog::Catalog;
use crate::physical::{ExecConfig, PhysicalQuery};

/// How much plan search the session performs per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizerMode {
    /// No search: the written FROM order runs, the scheme falls back to
    /// the config (Hybrid-Hypercube when unset). This is the pre-optimizer
    /// planner, kept as the reference oracle for equivalence testing.
    Off,
    /// Subset dynamic programming over join orders plus per-scheme cost
    /// models (the default).
    #[default]
    On,
    /// Score every relation permutation instead of the DP — exponentially
    /// expensive, used to validate the DP and by stress tests.
    Exhaustive,
}

impl std::fmt::Display for OptimizerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OptimizerMode::Off => "off",
            OptimizerMode::On => "on",
            OptimizerMode::Exhaustive => "exhaustive",
        })
    }
}

/// One step of the chosen join order, with its cardinality estimates.
#[derive(Debug, Clone)]
pub struct JoinStep {
    /// Relation alias joined at this step.
    pub relation: String,
    /// Estimated post-filter rows fed by this relation.
    pub est_rows: f64,
    /// Estimated cardinality of the join prefix ending at this step.
    pub est_cumulative: f64,
}

/// The scheme decision: the winner plus every candidate's cost estimate.
#[derive(Debug, Clone)]
pub struct SchemeChoice {
    /// The cheapest expressible scheme under the calibration.
    pub kind: SchemeKind,
    /// All candidate estimates, in probe order (Hash, Hybrid, Random);
    /// inexpressible schemes (Hash under theta joins) are absent.
    pub candidates: Vec<CostEstimate>,
    /// Weights used to scalarise the candidates.
    pub calibration: CostCalibration,
}

/// What the optimizer decided for one query, kept on the plan so
/// `explain` can print an estimated-vs-actual table after the run.
#[derive(Debug, Clone)]
pub struct OptimizerDecision {
    /// The mode that produced this decision.
    pub mode: OptimizerMode,
    /// Chosen relation order as indices into the *written* FROM order.
    pub order: Vec<usize>,
    /// Join orders (DP states or permutations) the search scored.
    pub orders_considered: usize,
    /// Estimated cost (sum of intermediate cardinalities) of the chosen
    /// order.
    pub est_cost: f64,
    /// Estimated cost of the written order, for the explain delta.
    pub written_cost: f64,
    /// Per-step estimates, in chosen-order sequence.
    pub steps: Vec<JoinStep>,
    /// The scheme decision (`None` when the config forced a scheme).
    pub scheme: Option<SchemeChoice>,
}

impl OptimizerDecision {
    /// The scheme the decision selects, if it made one.
    pub fn scheme_kind(&self) -> Option<SchemeKind> {
        self.scheme.as_ref().map(|s| s.kind)
    }
}

/// Estimated selectivity of one join atom under per-column distinct
/// counts: `1 / max(V(l), V(r))` for equi atoms, 1/3 for theta atoms.
fn atom_selectivity(atom: &JoinAtom, distinct: &dyn Fn(usize, usize) -> f64) -> f64 {
    use squall_expr::join_cond::CmpOp;
    match atom.op {
        CmpOp::Eq => {
            let dl = distinct(atom.left_rel, atom.left_col).max(1.0);
            let dr = distinct(atom.right_rel, atom.right_col).max(1.0);
            1.0 / dl.max(dr)
        }
        _ => 1.0 / 3.0,
    }
}

/// Estimated cardinality of joining the relation subset `mask`:
/// `∏ sizes × ∏ selectivities of atoms internal to the subset`.
fn mask_cardinality(mask: u32, sizes: &[f64], atoms: &[JoinAtom], sels: &[f64]) -> f64 {
    let mut card = 1.0f64;
    for (t, &n) in sizes.iter().enumerate() {
        if mask & (1 << t) != 0 {
            card *= n.max(1.0);
        }
    }
    for (a, atom) in atoms.iter().enumerate() {
        if mask & (1 << atom.left_rel) != 0 && mask & (1 << atom.right_rel) != 0 {
            card *= sels[a];
        }
    }
    card
}

/// Cost of a full relation order: the sum of every prefix cardinality of
/// length ≥ 2 (the intermediate results a probe cascade materialises).
fn order_cost(order: &[usize], sizes: &[f64], atoms: &[JoinAtom], sels: &[f64]) -> f64 {
    let mut mask = 0u32;
    let mut cost = 0.0;
    for (k, &t) in order.iter().enumerate() {
        mask |= 1 << t;
        if k >= 1 {
            cost += mask_cardinality(mask, sizes, atoms, sels);
        }
    }
    cost
}

/// Enumerate join orders whose every prefix is connected in the join
/// graph (no intermediate Cartesian product), up to `cap` orders. The
/// plan-equivalence harness runs a query under each of these.
pub fn enumerate_orders(n: usize, atoms: &[JoinAtom], cap: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut prefix = Vec::with_capacity(n);
    fn connected_to(t: usize, mask: u32, atoms: &[JoinAtom]) -> bool {
        atoms.iter().any(|a| {
            (a.left_rel == t && mask & (1 << a.right_rel) != 0)
                || (a.right_rel == t && mask & (1 << a.left_rel) != 0)
        })
    }
    fn rec(
        n: usize,
        atoms: &[JoinAtom],
        cap: usize,
        prefix: &mut Vec<usize>,
        mask: u32,
        out: &mut Vec<Vec<usize>>,
    ) {
        if out.len() >= cap {
            return;
        }
        if prefix.len() == n {
            out.push(prefix.clone());
            return;
        }
        for t in 0..n {
            if mask & (1 << t) != 0 {
                continue;
            }
            if !prefix.is_empty() && !connected_to(t, mask, atoms) {
                continue;
            }
            prefix.push(t);
            rec(n, atoms, cap, prefix, mask | (1 << t), out);
            prefix.pop();
        }
    }
    rec(n, atoms, cap, &mut prefix, 0, &mut out);
    out
}

/// Left-deep subset DP: for every relation subset, the cheapest order
/// ending anywhere, reconstructed from parent pointers. Exact for cost
/// functions (like ours) that depend only on the *set* of each prefix.
/// Returns `(order, cost, states_scored)`.
fn dp_best_order(sizes: &[f64], atoms: &[JoinAtom], sels: &[f64]) -> (Vec<usize>, f64, usize) {
    let n = sizes.len();
    let full: u32 = (1u32 << n) - 1;
    let mut best = vec![f64::INFINITY; (full + 1) as usize];
    let mut parent = vec![usize::MAX; (full + 1) as usize];
    for t in 0..n {
        best[1usize << t] = 0.0;
        parent[1usize << t] = t;
    }
    let mut states = n;
    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let card = mask_cardinality(mask, sizes, atoms, sels);
        for t in 0..n {
            if mask & (1 << t) == 0 {
                continue;
            }
            let prev = mask & !(1 << t);
            if !best[prev as usize].is_finite() {
                continue;
            }
            states += 1;
            let cost = best[prev as usize] + card;
            if cost < best[mask as usize] {
                best[mask as usize] = cost;
                parent[mask as usize] = t;
            }
        }
    }
    // Reconstruct: walk parents from the full set down to a singleton.
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let t = parent[mask as usize];
        order.push(t);
        mask &= !(1u32 << t);
    }
    order.reverse();
    (order, best[full as usize], states)
}

/// Exhaustive oracle: score every connected-prefix permutation.
fn exhaustive_best_order(
    sizes: &[f64],
    atoms: &[JoinAtom],
    sels: &[f64],
) -> (Vec<usize>, f64, usize) {
    let n = sizes.len();
    let orders = enumerate_orders(n, atoms, usize::MAX);
    let mut best: Option<(Vec<usize>, f64)> = None;
    let considered = orders.len();
    for order in orders {
        let cost = order_cost(&order, sizes, atoms, sels);
        match &best {
            Some((_, c)) if *c <= cost => {}
            _ => best = Some((order, cost)),
        }
    }
    let (order, cost) = best.unwrap_or_else(|| {
        let id: Vec<usize> = (0..n).collect();
        let c = order_cost(&id, sizes, atoms, sels);
        (id, c)
    });
    (order, cost, considered)
}

/// Run the cost-based search over a resolved plan and rewrite it in
/// place: pick a join order, apply it, pick a scheme (unless the config
/// forces one) and record the [`OptimizerDecision`] for `explain`.
///
/// A no-op for [`OptimizerMode::Off`] and for a plan of fewer than two
/// relations, which has no join to order and no scheme to choose.
/// Standing views are never reordered — their delta routing must stay
/// stable across the view's lifetime — so the session only calls this on
/// the one-shot query paths.
pub fn optimize(plan: &mut PhysicalQuery, catalog: &Catalog, cfg: &ExecConfig) -> Result<()> {
    let n = plan.scans.len();
    if cfg.optimizer == OptimizerMode::Off || n < 2 {
        return Ok(());
    }
    let atoms = plan.join.local_atoms(&plan.scans)?;
    let sizes =
        plan.scans.iter().map(|s| s.estimated_rows(catalog)).collect::<Result<Vec<f64>>>()?;
    // Per-column distinct counts from ANALYZE stats; System-R fallback
    // V(R,a) = |R| when the table was never analyzed (or the column is
    // derived, which no stats cover).
    let distinct = |t: usize, local: usize| -> f64 {
        plan.scans[t].column_stats(catalog, local).map_or(sizes[t], |cs| cs.distinct as f64)
    };
    let sels: Vec<f64> = atoms.iter().map(|a| atom_selectivity(a, &distinct)).collect();
    let written: Vec<usize> = (0..n).collect();
    let written_cost = order_cost(&written, &sizes, &atoms, &sels);
    let (order, est_cost, orders_considered) = match cfg.optimizer {
        OptimizerMode::Exhaustive => exhaustive_best_order(&sizes, &atoms, &sels),
        _ => dp_best_order(&sizes, &atoms, &sels),
    };

    let steps: Vec<JoinStep> = {
        let mut mask = 0u32;
        order
            .iter()
            .map(|&t| {
                mask |= 1 << t;
                JoinStep {
                    relation: plan.scans[t].alias.clone(),
                    est_rows: sizes[t],
                    est_cumulative: mask_cardinality(mask, &sizes, &atoms, &sels),
                }
            })
            .collect()
    };
    plan.apply_order(&order)?;

    // Scheme selection over the *reordered* spec, with skew flags and
    // heavy-hitter frequencies from the same statistics. A forced config
    // scheme wins; estimation failure falls back to the config default
    // rather than failing the query.
    let scheme = if cfg.scheme.is_none() {
        let stats = |t: usize, c: usize| plan.scans[t].column_stats(catalog, c);
        let top_freq_of = |t, c| stats(t, c).map(|cs| cs.top_frequency).unwrap_or(0.0);
        let skewed =
            |t, c| stats(t, c).is_some_and(|cs| cs.skew().is_skewed(cfg.machines, cfg.skew_slack));
        // `sizes` is indexed by written order; `t` is post-reorder.
        let rows = |t: usize| sizes[order[t]] as u64;
        let calibration = CostCalibration::default();
        plan.join
            .spec(&plan.scans, &rows, &skewed)
            .ok()
            .and_then(|spec| {
                choose_scheme(&spec, cfg.machines, cfg.seed, &top_freq_of, &calibration).ok()
            })
            .map(|(kind, candidates)| SchemeChoice { kind, candidates, calibration })
    } else {
        None
    };

    plan.decision = Some(OptimizerDecision {
        mode: cfg.optimizer,
        order,
        orders_considered,
        est_cost,
        written_cost,
        steps,
        scheme,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_expr::join_cond::CmpOp;

    fn eq_atom(lr: usize, lc: usize, rr: usize, rc: usize) -> JoinAtom {
        JoinAtom { left_rel: lr, left_col: lc, op: CmpOp::Eq, right_rel: rr, right_col: rc }
    }

    #[test]
    fn dp_matches_exhaustive_on_chains() {
        // R(10k) ⋈ S(10) ⋈ T(10k) chain: both searches must agree the
        // small middle relation anchors an early prefix.
        let sizes = [10_000.0, 10.0, 10_000.0];
        let atoms = vec![eq_atom(0, 0, 1, 0), eq_atom(1, 1, 2, 0)];
        let sels = vec![0.001, 0.001];
        let (dp_order, dp_cost, _) = dp_best_order(&sizes, &atoms, &sels);
        let (ex_order, ex_cost, considered) = exhaustive_best_order(&sizes, &atoms, &sels);
        assert!((dp_cost - ex_cost).abs() < 1e-6, "dp {dp_cost} vs exhaustive {ex_cost}");
        assert_eq!(order_cost(&dp_order, &sizes, &atoms, &sels), dp_cost);
        assert_eq!(order_cost(&ex_order, &sizes, &atoms, &sels), ex_cost);
        assert!(considered >= 2);
    }

    #[test]
    fn search_prefers_selective_prefixes() {
        // A big filtered-down relation first beats the written order: the
        // written order pays |R0 ⋈ R1| with both huge.
        let sizes = [100_000.0, 100_000.0, 100.0];
        let atoms = vec![eq_atom(0, 0, 1, 0), eq_atom(1, 1, 2, 0), eq_atom(0, 1, 2, 1)];
        let sels = vec![1e-5, 0.01, 0.01];
        let (order, cost, _) = dp_best_order(&sizes, &atoms, &sels);
        let written: Vec<usize> = (0..3).collect();
        assert!(cost <= order_cost(&written, &sizes, &atoms, &sels));
        // The cheap relation participates in the first joined pair.
        assert!(order[0] == 2 || order[1] == 2, "small relation late in {order:?}");
    }

    #[test]
    fn enumerate_orders_respects_connectivity_and_cap() {
        // Chain 0–1–2: valid orders never start with the {0,2} cross pair.
        let atoms = vec![eq_atom(0, 0, 1, 0), eq_atom(1, 1, 2, 0)];
        let orders = enumerate_orders(3, &atoms, usize::MAX);
        assert!(!orders.is_empty());
        for o in &orders {
            let cross = (o[0] == 0 && o[1] == 2) || (o[0] == 2 && o[1] == 0);
            assert!(!cross, "cross prefix {o:?}");
        }
        let capped = enumerate_orders(3, &atoms, 2);
        assert_eq!(capped.len(), 2);
    }

    #[test]
    fn mode_display_and_default() {
        assert_eq!(OptimizerMode::default(), OptimizerMode::On);
        assert_eq!(OptimizerMode::Off.to_string(), "off");
        assert_eq!(OptimizerMode::Exhaustive.to_string(), "exhaustive");
    }
}
