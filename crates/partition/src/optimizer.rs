//! The hypercube optimization algorithms of §4.
//!
//! All three schemes share one integer dimension-sizing step (the
//! breadth-first enumeration of Chu et al. \[26\], which avoids the
//! non-integer dimension sizes of the original formulations [8, 18]): given
//! dimension descriptors and relation sizes, enumerate every size vector
//! with `∏ pⱼ ≤ p` and keep the one minimizing the per-machine load
//! `L = Σᵢ |Rᵢ| / ∏_{j ∋ Rᵢ} pⱼ`, breaking ties by total communication and
//! then lexicographically (determinism).
//!
//! * **Hash-Hypercube** \[8\]: one dimension per join-key equivalence class
//!   (the paper's observation that *join keys suffice* — non-join
//!   attributes never improve the load).
//! * **Random-Hypercube** \[74\]: reduced to the Hash-Hypercube problem by
//!   introducing one fresh *quasi-attribute* per relation (the paper's
//!   reduction), then using random placement on every dimension.
//! * **Hybrid-Hypercube** (the paper's contribution): rename each *skewed*
//!   join-key occurrence onto its own randomly partitioned dimension, keep
//!   skew-free occurrences shared and hashed, give every theta-atom side a
//!   (hash or random) dimension unless it already has one, then run the
//!   same sizing step. Dimensions sized 1 vanish — the paper's
//!   dimensionality reduction.

use squall_common::{Result, SquallError};
use squall_expr::MultiJoinSpec;

use crate::hypercube::{Dimension, HypercubeScheme, PartitionKind};

/// Which §3.1 scheme to build (used by callers that sweep all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    Hash,
    Random,
    Hybrid,
}

squall_common::wire_tags! { SchemeKind { 0 => Hash, 1 => Random, 2 => Hybrid } }

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeKind::Hash => write!(f, "Hash-Hypercube"),
            SchemeKind::Random => write!(f, "Random-Hypercube"),
            SchemeKind::Hybrid => write!(f, "Hybrid-Hypercube"),
        }
    }
}

/// Build the scheme of the given kind (convenience dispatcher).
pub fn build_scheme(
    kind: SchemeKind,
    spec: &MultiJoinSpec,
    machines: usize,
    seed: u64,
) -> Result<HypercubeScheme> {
    match kind {
        SchemeKind::Hash => hash_hypercube(spec, machines, seed),
        SchemeKind::Random => random_hypercube(spec, machines, seed),
        SchemeKind::Hybrid => hybrid_hypercube(spec, machines, seed),
    }
}

/// Hash-Hypercube \[8\]: dimensions are the join-key equivalence classes,
/// hash partitioned. Rejects non-equi joins (the scheme cannot express
/// them, §3.1).
fn hash_hypercube(spec: &MultiJoinSpec, machines: usize, seed: u64) -> Result<HypercubeScheme> {
    if spec.theta_atoms().next().is_some() {
        return Err(SquallError::InvalidPartitioning(
            "Hash-Hypercube supports only equi-joins".into(),
        ));
    }
    let classes: Vec<_> = spec.key_classes().into_iter().filter(|c| c.is_join_key()).collect();
    if classes.is_empty() {
        return Err(SquallError::InvalidPartitioning(
            "Hash-Hypercube needs at least one join key".into(),
        ));
    }
    let dims: Vec<Dimension> = classes
        .iter()
        .map(|c| {
            let (rel, col) = c.members[0];
            Dimension {
                name: spec.relations[rel].schema.field(col).name.clone(),
                size: 1,
                kind: PartitionKind::Hash,
                members: c.members.clone(),
            }
        })
        .collect();
    size_dimensions(spec, dims, machines, seed)
}

/// Random-Hypercube \[74\] via the paper's quasi-attribute reduction: one
/// fresh dimension per relation, randomly partitioned. Supports any
/// condition (the condition is evaluated locally).
fn random_hypercube(spec: &MultiJoinSpec, machines: usize, seed: u64) -> Result<HypercubeScheme> {
    let dims: Vec<Dimension> = spec
        .relations
        .iter()
        .enumerate()
        .map(|(rel, r)| Dimension {
            name: format!("~{}", r.name),
            size: 1,
            kind: PartitionKind::Random,
            members: vec![(rel, 0)],
        })
        .collect();
    size_dimensions(spec, dims, machines, seed)
}

/// Hybrid-Hypercube (§3.1, §4): the scheme that subsumes the other two.
///
/// Skew hints are read from the relations' schemas
/// ([`squall_common::Field::skew_free`]); "a user needs to provide only the
/// relation sizes and whether each join key is skew-free or not" (§4).
pub fn hybrid_hypercube(
    spec: &MultiJoinSpec,
    machines: usize,
    seed: u64,
) -> Result<HypercubeScheme> {
    let mut dims: Vec<Dimension> = Vec::new();

    // 1. Equi classes: shared hash dimension for skew-free occurrences,
    //    a private random dimension per skewed occurrence (renaming).
    for class in spec.key_classes().into_iter().filter(|c| c.is_join_key()) {
        let (free, skewed): (Vec<_>, Vec<_>) =
            class.members.iter().copied().partition(|&(rel, col)| spec.is_skew_free(rel, col));
        let base_name = {
            let (rel, col) = class.members[0];
            spec.relations[rel].schema.field(col).name.clone()
        };
        if !free.is_empty() {
            dims.push(Dimension {
                name: base_name.clone(),
                size: 1,
                kind: PartitionKind::Hash,
                members: free,
            });
        }
        for (i, (rel, col)) in skewed.into_iter().enumerate() {
            dims.push(Dimension {
                name: format!("{base_name}{}@{}", "'".repeat(i + 1), spec.relations[rel].name),
                size: 1,
                kind: PartitionKind::Random,
                members: vec![(rel, col)],
            });
        }
    }

    // 2. Theta atoms: each side occurrence needs *some* dimension so the
    //    1-Bucket-style meet is guaranteed; reuse an existing one when the
    //    occurrence is already partitioned (the paper reuses hash(S.x) for
    //    the S.x < T.y side).
    for atom in spec.theta_atoms() {
        for &(rel, col) in &[(atom.left_rel, atom.left_col), (atom.right_rel, atom.right_col)] {
            let covered = dims.iter().any(|d| d.members.contains(&(rel, col)));
            if covered {
                continue;
            }
            let skew_free = spec.is_skew_free(rel, col);
            dims.push(Dimension {
                name: format!(
                    "{}.{}",
                    spec.relations[rel].name,
                    spec.relations[rel].schema.field(col).name
                ),
                size: 1,
                kind: if skew_free { PartitionKind::Hash } else { PartitionKind::Random },
                members: vec![(rel, col)],
            });
        }
    }

    // 3. A relation with no dimension at all (no join key, no theta side —
    //    only possible in degenerate specs) gets a quasi-dimension so it is
    //    at least spread correctly.
    for rel in 0..spec.n_relations() {
        if !dims.iter().any(|d| d.members.iter().any(|&(r, _)| r == rel)) {
            dims.push(Dimension {
                name: format!("~{}", spec.relations[rel].name),
                size: 1,
                kind: PartitionKind::Random,
                members: vec![(rel, 0)],
            });
        }
    }

    size_dimensions(spec, dims, machines, seed)
}

/// One scheme's predicted cost on a concrete join spec — the planner's
/// comparison unit. Built by [`estimate_scheme_cost`] from the analytic
/// load model of [`HypercubeScheme`]; collapsed to a scalar by
/// [`CostEstimate::cost`] under a [`CostCalibration`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostEstimate {
    /// The scheme this estimate describes.
    pub kind: SchemeKind,
    /// Predicted max per-machine load as a fraction of the total input —
    /// the paper's `L` (§4), the balance term of the cost.
    pub max_load: f64,
    /// Predicted tuples sent ÷ total input (≥ 1; the replication /
    /// communication term, Table 2's replication factor).
    pub total_load: f64,
    /// Machines the sized hypercube actually uses (`∏` dimension sizes).
    pub machines_used: usize,
    /// Human-readable dimension vector, e.g. `y:8(hash) × z:8(hash)`.
    pub description: String,
}

impl CostEstimate {
    /// Scalar cost under `calib`: `balance·max_load + comm·total_load/p`.
    /// `max_load` models the critical-path machine; `total_load/p` the
    /// per-machine share of network traffic.
    pub fn cost(&self, calib: &CostCalibration) -> f64 {
        let p = self.machines_used.max(1) as f64;
        calib.balance_weight * self.max_load + calib.comm_weight * self.total_load / p
    }
}

/// Weights turning a [`CostEstimate`] into a scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostCalibration {
    /// Weight of the max-per-machine-load (balance / critical path) term.
    pub balance_weight: f64,
    /// Weight of the per-machine communication term.
    pub comm_weight: f64,
}

impl Default for CostCalibration {
    /// Balance-dominated default: the critical-path machine sets the
    /// wall-clock; communication is the tie-breaker.
    fn default() -> CostCalibration {
        CostCalibration { balance_weight: 1.0, comm_weight: 0.5 }
    }
}

/// Predict one scheme's cost on `spec` without running it: build the sized
/// hypercube, then read the analytic per-machine max load and total
/// communication off the load model, normalized by total input size.
/// `top_freq(rel, col)` is the measured hottest-key share feeding the
/// skewed-hash-dimension penalty (return `0.0` when unknown). Skew flags
/// on the spec's schemas steer the Hybrid build exactly as in §4.
pub fn estimate_scheme_cost(
    kind: SchemeKind,
    spec: &MultiJoinSpec,
    machines: usize,
    seed: u64,
    top_freq: &dyn Fn(usize, usize) -> f64,
) -> Result<CostEstimate> {
    let hc = build_scheme(kind, spec, machines, seed)?;
    let total: f64 = spec.relations.iter().map(|r| r.est_size as f64).sum();
    let total = if total > 0.0 { total } else { 1.0 };
    let fracs: Vec<f64> = spec.relations.iter().map(|r| r.est_size as f64 / total).collect();
    Ok(CostEstimate {
        kind,
        max_load: hc.max_load(&fracs, top_freq),
        total_load: hc.total_load(&fracs),
        machines_used: hc.machines(),
        description: hc.describe(),
    })
}

/// Pick the cheapest scheme for `spec` under `calib`, returning the choice
/// plus every candidate's estimate (for `explain`). Candidates are tried
/// in `[Hash, Hybrid, Random]` order and a later candidate must *strictly*
/// beat the incumbent, so ties resolve to the simplest scheme — in the
/// skew-free equi case Hybrid builds the very same hypercube as Hash and
/// the choice reads "Hash". Schemes that cannot express the condition
/// (Hash under a theta atom) are skipped, not errors.
pub fn choose_scheme(
    spec: &MultiJoinSpec,
    machines: usize,
    seed: u64,
    top_freq: &dyn Fn(usize, usize) -> f64,
    calib: &CostCalibration,
) -> Result<(SchemeKind, Vec<CostEstimate>)> {
    let mut candidates = Vec::new();
    for kind in [SchemeKind::Hash, SchemeKind::Hybrid, SchemeKind::Random] {
        if let Ok(est) = estimate_scheme_cost(kind, spec, machines, seed, top_freq) {
            candidates.push(est);
        }
    }
    let mut best: Option<usize> = None;
    for (i, est) in candidates.iter().enumerate() {
        let better = match best {
            None => true,
            Some(b) => est.cost(calib) < candidates[b].cost(calib) - 1e-9,
        };
        if better {
            best = Some(i);
        }
    }
    match best {
        Some(i) => Ok((candidates[i].kind, candidates)),
        None => Err(SquallError::InvalidPartitioning(
            "no partitioning scheme can express this join".into(),
        )),
    }
}

/// The shared integer sizing step. Mutates the `size` field of each
/// dimension to the load-minimizing assignment with `∏ sizes ≤ machines`.
fn size_dimensions(
    spec: &MultiJoinSpec,
    mut dims: Vec<Dimension>,
    machines: usize,
    seed: u64,
) -> Result<HypercubeScheme> {
    if machines == 0 {
        return Err(SquallError::InvalidPartitioning("zero machines".into()));
    }
    if dims.is_empty() {
        return Err(SquallError::InvalidPartitioning("no dimensions".into()));
    }
    let sizes: Vec<f64> = spec.relations.iter().map(|r| r.est_size as f64).collect();
    // membership[d] = relations participating in dimension d.
    let membership: Vec<Vec<usize>> = dims
        .iter()
        .map(|d| {
            let mut rels: Vec<usize> = d.members.iter().map(|&(r, _)| r).collect();
            rels.sort_unstable();
            rels.dedup();
            rels
        })
        .collect();

    let mut current = vec![1usize; dims.len()];

    // The load of an assignment: Σᵢ |Rᵢ| / ∏_{d ∋ i} p_d.
    let load = |assign: &[usize]| -> f64 {
        sizes
            .iter()
            .enumerate()
            .map(|(rel, &s)| {
                let denom: usize = membership
                    .iter()
                    .enumerate()
                    .filter(|(_, rels)| rels.contains(&rel))
                    .map(|(d, _)| assign[d])
                    .product();
                s / denom as f64
            })
            .sum()
    };
    // Total communication (tie-break): Σᵢ |Rᵢ| · ∏_{d ∌ i} p_d.
    let total = |assign: &[usize]| -> f64 {
        sizes
            .iter()
            .enumerate()
            .map(|(rel, &s)| {
                let spread: usize = membership
                    .iter()
                    .enumerate()
                    .filter(|(_, rels)| !rels.contains(&rel))
                    .map(|(d, _)| assign[d])
                    .product();
                s * spread as f64
            })
            .sum()
    };

    // DFS over size vectors with product ≤ machines, from the all-ones one.
    let mut best = (load(&current), total(&current), current.clone());
    fn dfs(dim: usize, budget: usize, current: &mut Vec<usize>, eval: &mut dyn FnMut(&[usize])) {
        if dim == current.len() {
            eval(current);
            return;
        }
        let mut s = 1;
        while s <= budget {
            current[dim] = s;
            dfs(dim + 1, budget / s, current, eval);
            s += 1;
        }
        current[dim] = 1;
    }

    let mut eval = |assign: &[usize]| {
        let (l, t) = (load(assign), total(assign));
        let (bl, bt, ba) = &best;
        let better = l < bl - 1e-12
            || ((l - bl).abs() <= 1e-12
                && (t < bt - 1e-9 || ((t - bt).abs() <= 1e-9 && assign < ba.as_slice())));
        if better {
            best = (l, t, assign.to_vec());
        }
    };
    dfs(0, machines, &mut current, &mut eval);

    for (d, s) in dims.iter_mut().zip(&best.2) {
        d.size = *s;
    }
    Ok(HypercubeScheme::new(spec.n_relations(), dims, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::{DataType, Schema};
    use squall_expr::join_cond::CmpOp;
    use squall_expr::{JoinAtom, RelationDef};

    /// R(x,y) ⋈ S(y,z) ⋈ T(z,t), all of size H (§3.1). `skew_z` marks both
    /// S.z and T.z as skewed.
    fn rst(h: u64, skew_z: bool) -> MultiJoinSpec {
        let mut s_schema = Schema::of(&[("y", DataType::Int), ("z", DataType::Int)]);
        let mut t_schema = Schema::of(&[("z", DataType::Int), ("t", DataType::Int)]);
        if skew_z {
            s_schema.set_skewed("z").unwrap();
            t_schema.set_skewed("z").unwrap();
        }
        MultiJoinSpec::new(
            vec![
                RelationDef::new("R", Schema::of(&[("x", DataType::Int), ("y", DataType::Int)]), h),
                RelationDef::new("S", s_schema, h),
                RelationDef::new("T", t_schema, h),
            ],
            vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)],
        )
        .unwrap()
    }

    #[test]
    fn hash_hypercube_finds_8x8_for_uniform_rst() {
        // §3.1: "given 64 machines ... the dimensions y × z = 8 × 8
        // minimize the load" with L ≈ 0.26H.
        let hc = hash_hypercube(&rst(100, false), 64, 1).unwrap();
        let sizes: Vec<usize> = hc.dims.iter().map(|d| d.size).collect();
        assert_eq!(sizes, vec![8, 8]);
        let l = hc.max_load(&[1.0, 1.0, 1.0], &|_, _| 0.0);
        assert!((l - 0.265625).abs() < 1e-12);
    }

    #[test]
    fn random_hypercube_finds_4x4x4_for_equal_sizes() {
        // §3.1: "the dimensions R × S × T = 4 × 4 × 4 minimize the load"
        // with L = 0.75H.
        let hc = random_hypercube(&rst(100, false), 64, 1).unwrap();
        let sizes: Vec<usize> = hc.dims.iter().map(|d| d.size).collect();
        assert_eq!(sizes, vec![4, 4, 4]);
        assert!((hc.max_load(&[1.0; 3], &|_, _| 0.0) - 0.75).abs() < 1e-12);
        assert_eq!(hc.total_load(&[1.0; 3]), 48.0);
    }

    #[test]
    fn random_hypercube_proportional_to_relation_sizes() {
        // §4: "if R1 is 4× bigger than R2, the optimal partitioning is
        // {16 × 4}" for 64 machines.
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("R1", Schema::of(&[("a", DataType::Int)]), 400),
                RelationDef::new("R2", Schema::of(&[("a", DataType::Int)]), 100),
            ],
            vec![JoinAtom { left_rel: 0, left_col: 0, op: CmpOp::Lt, right_rel: 1, right_col: 0 }],
        )
        .unwrap();
        let hc = random_hypercube(&spec, 64, 1).unwrap();
        let sizes: Vec<usize> = hc.dims.iter().map(|d| d.size).collect();
        assert_eq!(sizes, vec![16, 4]);
    }

    #[test]
    fn hybrid_equals_hash_when_skew_free() {
        // §3.1: "in the case of equi-joins and skew-free attributes, the
        // Hybrid-Hypercube produces the same partitioning as the
        // Hash-Hypercube."
        let hy = hybrid_hypercube(&rst(100, false), 64, 1).unwrap();
        let sizes: Vec<usize> = hy.dims.iter().map(|d| d.size).collect();
        assert_eq!(sizes, vec![8, 8]);
        assert!(hy.dims.iter().all(|d| d.kind == PartitionKind::Hash));
    }

    #[test]
    fn hybrid_renames_skewed_z_and_reduces_dimensionality() {
        // §4: with S.z and T.z skewed the input is R(y), S(y,z'), T(z'');
        // the optimizer sets |z'| = 1 (S is already partitioned by y) and
        // the final partitioning is (y, z'') — Fig. 2d — with max load
        // 2H/9 + H/7 ≈ 0.365H and total load 23H.
        let hy = hybrid_hypercube(&rst(100, true), 64, 1).unwrap();
        let by_name: Vec<(String, usize, PartitionKind)> =
            hy.dims.iter().map(|d| (d.name.clone(), d.size, d.kind)).collect();
        // Dim 0: shared skew-free y (R.y, S.y), hash.
        assert_eq!(by_name[0].0, "y");
        assert_eq!(by_name[0].2, PartitionKind::Hash);
        // One renamed dim per skewed occurrence; S's collapses to 1.
        let z_s = hy.dims.iter().find(|d| d.members == vec![(1, 1)]).unwrap();
        let z_t = hy.dims.iter().find(|d| d.members == vec![(2, 0)]).unwrap();
        assert_eq!(z_s.size, 1, "S.z' is removed: S is already partitioned by y");
        assert_eq!(z_t.kind, PartitionKind::Random);
        assert_eq!((by_name[0].1, z_t.size), (9, 7), "optimal 9×7 over 64 machines");
        let l = hy.max_load(&[1.0; 3], &|rel, col| {
            if (rel, col) == (1, 1) || (rel, col) == (2, 0) {
                0.5
            } else {
                0.0
            }
        });
        assert!((l - (2.0 / 9.0 + 1.0 / 7.0)).abs() < 1e-12);
        assert_eq!(hy.total_load(&[1.0; 3]), 23.0);
    }

    #[test]
    fn hybrid_four_relations_collapses_to_two_dims() {
        // §4: R(x,y) ⋈ S(y,z) ⋈ T(z,t) ⋈ U(t) with only z skewed →
        // Random-Hypercube needs 4 dims, Hybrid needs 2 (y and t): a
        // replicated hash join R⋈S and T⋈U, and a 1-Bucket RS ⋈ TU.
        let mut s_schema = Schema::of(&[("y", DataType::Int), ("z", DataType::Int)]);
        let mut t_schema = Schema::of(&[("z", DataType::Int), ("t", DataType::Int)]);
        s_schema.set_skewed("z").unwrap();
        t_schema.set_skewed("z").unwrap();
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new(
                    "R",
                    Schema::of(&[("x", DataType::Int), ("y", DataType::Int)]),
                    100,
                ),
                RelationDef::new("S", s_schema, 100),
                RelationDef::new("T", t_schema, 100),
                RelationDef::new("U", Schema::of(&[("t", DataType::Int)]), 100),
            ],
            vec![
                JoinAtom::eq(0, 1, 1, 0), // R.y = S.y
                JoinAtom::eq(1, 1, 2, 0), // S.z = T.z
                JoinAtom::eq(2, 1, 3, 0), // T.t = U.t
            ],
        )
        .unwrap();
        let hy = hybrid_hypercube(&spec, 64, 1).unwrap();
        let nontrivial: Vec<&Dimension> = hy.dims.iter().filter(|d| d.size > 1).collect();
        assert_eq!(nontrivial.len(), 2, "dims: {}", hy.describe());
        assert!(nontrivial.iter().all(|d| d.kind == PartitionKind::Hash));
        let names: Vec<&str> = nontrivial.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["y", "t"]);
        // 8×8 over 64 machines, every relation replicated 8×.
        assert!(nontrivial.iter().all(|d| d.size == 8));
        for rel in 0..4 {
            assert_eq!(hy.replication(rel), 8);
        }
    }

    #[test]
    fn hybrid_nonequi_uses_hash_on_skew_free_sides() {
        // §4: "R.x = S.x and S.x < T.y ... we can consider this query as an
        // equi-join R(x), S(x), T(y) and dimensions (x, y) ... hash
        // partitioning for both x and y."
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("R", Schema::of(&[("x", DataType::Int)]), 100),
                RelationDef::new("S", Schema::of(&[("x", DataType::Int)]), 100),
                RelationDef::new("T", Schema::of(&[("y", DataType::Int)]), 100),
            ],
            vec![
                JoinAtom::eq(0, 0, 1, 0),
                JoinAtom { left_rel: 1, left_col: 0, op: CmpOp::Lt, right_rel: 2, right_col: 0 },
            ],
        )
        .unwrap();
        let hy = hybrid_hypercube(&spec, 64, 1).unwrap();
        assert_eq!(hy.dims.len(), 2);
        assert!(hy.dims.iter().all(|d| d.kind == PartitionKind::Hash));
        // S.x is shared between the equi class and the theta atom: no
        // renaming, 2 dims only.
        assert_eq!(hy.dims[0].members, vec![(0, 0), (1, 0)]);
        assert_eq!(hy.dims[1].members, vec![(2, 0)]);
    }

    #[test]
    fn hybrid_nonequi_skewed_side_goes_random() {
        // §4 continued: "if there is skew on T.y ... employ random (rather
        // than hash) partitioning on T.y."
        let mut t_schema = Schema::of(&[("y", DataType::Int)]);
        t_schema.set_skewed("y").unwrap();
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("R", Schema::of(&[("x", DataType::Int)]), 100),
                RelationDef::new("S", Schema::of(&[("x", DataType::Int)]), 100),
                RelationDef::new("T", t_schema, 100),
            ],
            vec![
                JoinAtom::eq(0, 0, 1, 0),
                JoinAtom { left_rel: 1, left_col: 0, op: CmpOp::Lt, right_rel: 2, right_col: 0 },
            ],
        )
        .unwrap();
        let hy = hybrid_hypercube(&spec, 64, 1).unwrap();
        let t_dim = hy.dims.iter().find(|d| d.members == vec![(2, 0)]).unwrap();
        assert_eq!(t_dim.kind, PartitionKind::Random);
    }

    #[test]
    fn hybrid_skew_on_one_equi_side_renames_it() {
        // §4: "if there is skew only on S.x we need to rename this
        // attribute to x′, and the optimization algorithm produces a
        // hypercube with (x, x′, y) dimensions, using hash, random and
        // hash partitioning."
        let mut s_schema = Schema::of(&[("x", DataType::Int)]);
        s_schema.set_skewed("x").unwrap();
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("R", Schema::of(&[("x", DataType::Int)]), 100),
                RelationDef::new("S", s_schema, 100),
                RelationDef::new("T", Schema::of(&[("y", DataType::Int)]), 100),
            ],
            vec![
                JoinAtom::eq(0, 0, 1, 0),
                JoinAtom { left_rel: 1, left_col: 0, op: CmpOp::Lt, right_rel: 2, right_col: 0 },
            ],
        )
        .unwrap();
        let hy = hybrid_hypercube(&spec, 64, 1).unwrap();
        assert_eq!(hy.dims.len(), 3, "{}", hy.describe());
        let kinds: Vec<PartitionKind> = hy.dims.iter().map(|d| d.kind).collect();
        assert_eq!(kinds, vec![PartitionKind::Hash, PartitionKind::Random, PartitionKind::Hash]);
    }

    #[test]
    fn star_schema_partitions_fact_broadcasts_dimensions() {
        // §3.2: fact F(k1,k2) with small D1(k1), D2(k2) → p×1×1: partition
        // the fact table, replicate the dimension tables.
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new(
                    "F",
                    Schema::of(&[("k1", DataType::Int), ("k2", DataType::Int)]),
                    1_000_000,
                ),
                RelationDef::new("D1", Schema::of(&[("k1", DataType::Int)]), 100),
                RelationDef::new("D2", Schema::of(&[("k2", DataType::Int)]), 100),
            ],
            vec![JoinAtom::eq(0, 0, 1, 0), JoinAtom::eq(0, 1, 2, 0)],
        )
        .unwrap();
        for scheme in
            [hash_hypercube(&spec, 16, 1).unwrap(), hybrid_hypercube(&spec, 16, 1).unwrap()]
        {
            assert_eq!(scheme.replication(0), 1, "fact partitioned ({})", scheme.describe());
            let used: usize = scheme.dims.iter().map(|d| d.size).product();
            assert_eq!(used, 16);
            assert!(scheme.replication(1) * scheme.replication(2) == 16);
        }
        // Random-Hypercube also complies (§3.2), randomly partitioning F.
        let r = random_hypercube(&spec, 16, 1).unwrap();
        assert_eq!(r.replication(0), 1);
    }

    #[test]
    fn same_key_multiway_needs_no_replication() {
        // §3.2: L ⋈ PS ⋈ P all on Partkey → 1-dimensional hypercube, no
        // replication at all (the TPCH9-Partial uniform case of [70]).
        let mk = |n: &str, sz: u64| RelationDef::new(n, Schema::of(&[("pk", DataType::Int)]), sz);
        let spec = MultiJoinSpec::new(
            vec![mk("L", 6000), mk("PS", 800), mk("P", 200)],
            vec![JoinAtom::eq(0, 0, 1, 0), JoinAtom::eq(1, 0, 2, 0)],
        )
        .unwrap();
        let hc = hash_hypercube(&spec, 8, 1).unwrap();
        assert_eq!(hc.dims.len(), 1);
        assert_eq!(hc.dims[0].size, 8);
        for rel in 0..3 {
            assert_eq!(hc.replication(rel), 1);
        }
        let hy = hybrid_hypercube(&spec, 8, 1).unwrap();
        assert_eq!(hy.dims[0].size, 8, "hybrid yields the same partitioning");
    }

    #[test]
    fn hash_rejects_theta() {
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("R", Schema::of(&[("a", DataType::Int)]), 1),
                RelationDef::new("S", Schema::of(&[("a", DataType::Int)]), 1),
            ],
            vec![JoinAtom { left_rel: 0, left_col: 0, op: CmpOp::Lt, right_rel: 1, right_col: 0 }],
        )
        .unwrap();
        assert!(hash_hypercube(&spec, 4, 1).is_err());
        assert!(random_hypercube(&spec, 4, 1).is_ok());
        assert!(hybrid_hypercube(&spec, 4, 1).is_ok());
    }

    #[test]
    fn zero_machines_rejected() {
        assert!(hash_hypercube(&rst(1, false), 0, 1).is_err());
    }

    #[test]
    fn non_power_machine_counts_use_integers() {
        // The [26] motivation: 7 machines, 3 equal relations — naive
        // fractional sizing gives 7^(1/3) ≈ 1.91 per dim; the integer
        // search must still use several machines, not fall back to 1.
        let hc = random_hypercube(&rst(100, false), 7, 1).unwrap();
        let used: usize = hc.dims.iter().map(|d| d.size).product();
        assert!(used >= 6, "should use ≥6 of 7 machines, used {used}");
    }

    /// The documented cost ordering between schemes, table-driven: a model
    /// regression that flips a row fails loudly here instead of silently
    /// picking worse plans.
    #[test]
    fn cost_ordering_between_schemes() {
        let calib = CostCalibration::default();
        // (top frequency on S.z/T.z, skew flags set, expected winner).
        let table: &[(f64, bool, SchemeKind)] = &[
            // Skew-free equi joins: Hash-Hypercube replicates least and
            // balances fine; Hybrid builds the identical cube (tie goes to
            // the simpler scheme), Random pays 0.75H vs 0.26H (§3.1).
            (0.0, false, SchemeKind::Hash),
            (0.001, false, SchemeKind::Hash),
            // The paper's zipf skew (top key ≈ half the stream): hash's
            // hot machine holds ≥ 0.5H, hybrid reroutes the skewed
            // occurrences onto random dims — 0.365H (§4 worked example).
            (0.5, true, SchemeKind::Hybrid),
            (0.9, true, SchemeKind::Hybrid),
        ];
        for &(f, flag, expected) in table {
            let spec = rst(100, flag);
            let top = move |rel: usize, col: usize| {
                if (rel, col) == (1, 1) || (rel, col) == (2, 0) {
                    f
                } else {
                    0.0
                }
            };
            let (kind, ests) = choose_scheme(&spec, 64, 1, &top, &calib).unwrap();
            assert_eq!(kind, expected, "top_freq {f}: expected {expected:?}, estimates {ests:?}");
            assert_eq!(ests.len(), 3, "all three schemes build on an equi join");
        }
    }

    /// Hypercube (hash) vs 1-Bucket-style random placement on a plain
    /// 2-way equi join: the paper's skew thresholds. Uniform keys →
    /// hash's max load 1/p beats random's 1/√p-ish; a hot key past the
    /// 1/p + slack threshold flips the ordering.
    #[test]
    fn hypercube_beats_one_bucket_until_skew_threshold() {
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("R", Schema::of(&[("k", DataType::Int)]), 100),
                RelationDef::new("S", Schema::of(&[("k", DataType::Int)]), 100),
            ],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap();
        let uniform = |_: usize, _: usize| 0.0;
        let hot = |_: usize, _: usize| 0.5;
        let hash_u = estimate_scheme_cost(SchemeKind::Hash, &spec, 16, 1, &uniform).unwrap();
        let rand_u = estimate_scheme_cost(SchemeKind::Random, &spec, 16, 1, &uniform).unwrap();
        assert!(
            hash_u.max_load < rand_u.max_load,
            "uniform: hash {} should beat 1-bucket-style random {}",
            hash_u.max_load,
            rand_u.max_load
        );
        let hash_s = estimate_scheme_cost(SchemeKind::Hash, &spec, 16, 1, &hot).unwrap();
        let rand_s = estimate_scheme_cost(SchemeKind::Random, &spec, 16, 1, &hot).unwrap();
        assert!(
            rand_s.max_load < hash_s.max_load,
            "50% hot key: random {} must beat hash {} (hot machine owns half the input)",
            rand_s.max_load,
            hash_s.max_load
        );
    }

    #[test]
    fn theta_join_skips_hash_candidate() {
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("R", Schema::of(&[("a", DataType::Int)]), 100),
                RelationDef::new("S", Schema::of(&[("a", DataType::Int)]), 100),
            ],
            vec![JoinAtom { left_rel: 0, left_col: 0, op: CmpOp::Lt, right_rel: 1, right_col: 0 }],
        )
        .unwrap();
        let (kind, ests) =
            choose_scheme(&spec, 16, 1, &|_, _| 0.0, &CostCalibration::default()).unwrap();
        assert_eq!(ests.len(), 2, "Hash cannot express a theta atom");
        assert!(kind == SchemeKind::Hybrid || kind == SchemeKind::Random);
    }
}
