//! The hypercube machinery shared by the Hash-, Random- and
//! Hybrid-Hypercube schemes (§3.1, §4).
//!
//! A hypercube scheme models the join result space as a hypercube whose
//! axes are *dimensions* — either a join-key equivalence class (hash
//! partitioned) or a renamed/quasi attribute (randomly partitioned). The
//! machines form a grid over the dimensions; an input tuple is *partitioned*
//! on the dimensions its relation participates in and *replicated* (spread)
//! on all others, so that every potential output tuple is produced on
//! exactly one machine.

use std::sync::Arc;

use squall_common::hash::{fx_hash, partition_of};
use squall_common::Value;
use squall_runtime::grouping::tuple_rng;
use squall_runtime::CustomGrouping;

/// How a dimension partitions the attribute occurrences mapped to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKind {
    /// Content-sensitive: coordinate = hash(attribute value). Cheap (no
    /// replication on this axis for member relations) but skew-prone.
    Hash,
    /// Content-insensitive: coordinate drawn uniformly at random per tuple.
    /// Skew- and temporal-skew-resilient, forces non-member relations to
    /// replicate across the axis.
    Random,
}

/// One hypercube axis.
#[derive(Debug, Clone)]
pub struct Dimension {
    /// Human-readable name, e.g. `"y"`, `"z'"` (renamed), `"~R"` (quasi).
    pub name: String,
    /// Number of coordinates; the product over dimensions is the number of
    /// machines the scheme uses (≤ the machines available, per Chu et al.
    /// \[26\] integer dimension sizing).
    pub size: usize,
    pub kind: PartitionKind,
    /// Attribute occurrences `(relation, column)` partitioned on this axis.
    pub members: Vec<(usize, usize)>,
}

impl Dimension {
    /// The column of `rel` partitioned on this dimension, if any.
    fn member_col(&self, rel: usize) -> Option<usize> {
        self.members.iter().find(|&&(r, _)| r == rel).map(|&(_, c)| c)
    }
}

/// The role a dimension plays for one relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimRole {
    /// Coordinate fixed by hashing the given column.
    Hash(usize),
    /// Coordinate drawn at random.
    Random,
    /// Replicated across every coordinate of the axis.
    Spread,
}

/// A fully specified hypercube partitioning for an n-way join.
#[derive(Debug, Clone)]
pub struct HypercubeScheme {
    pub dims: Vec<Dimension>,
    /// `roles[rel][dim]` — derived from the dimensions' member lists.
    pub roles: Vec<Vec<DimRole>>,
    /// Seed for the deterministic "random" coordinates.
    pub seed: u64,
}

impl HypercubeScheme {
    /// Assemble a scheme from dimensions for `n_relations` relations.
    pub fn new(n_relations: usize, dims: Vec<Dimension>, seed: u64) -> HypercubeScheme {
        let roles = (0..n_relations)
            .map(|rel| {
                dims.iter()
                    .map(|d| match d.member_col(rel) {
                        Some(col) => match d.kind {
                            PartitionKind::Hash => DimRole::Hash(col),
                            PartitionKind::Random => DimRole::Random,
                        },
                        None => DimRole::Spread,
                    })
                    .collect()
            })
            .collect();
        HypercubeScheme { dims, roles, seed }
    }

    pub fn n_relations(&self) -> usize {
        self.roles.len()
    }

    /// Machines the scheme uses (product of dimension sizes).
    pub fn machines(&self) -> usize {
        self.dims.iter().map(|d| d.size).product::<usize>().max(1)
    }

    /// Number of machines each tuple of `rel` is sent to — the paper's
    /// per-relation replication (a tuple is replicated across the spread
    /// axes).
    pub fn replication(&self, rel: usize) -> usize {
        self.roles[rel]
            .iter()
            .zip(&self.dims)
            .map(|(role, d)| if matches!(role, DimRole::Spread) { d.size } else { 1 })
            .product()
    }

    /// Route one row of `rel`: the set of target machine ids.
    /// `rand_stream` supplies the random coordinates (callers derive it
    /// deterministically from `(seed, sender, seq)`).
    pub fn route(
        &self,
        rel: usize,
        row: &[Value],
        rand_stream: &mut squall_common::SplitMix64,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.push(0);
        // Machine ids are row-major over the dimensions: a dimension's
        // stride is the product of the sizes after it.
        let mut stride: usize = self.dims.iter().map(|d| d.size).product();
        for (role, dim) in self.roles[rel].iter().zip(&self.dims) {
            stride /= dim.size;
            match role {
                DimRole::Hash(col) => {
                    let coord = partition_of(fx_hash(&row[*col]), dim.size);
                    for m in out.iter_mut() {
                        *m += coord * stride;
                    }
                }
                DimRole::Random => {
                    let coord = rand_stream.next_below(dim.size);
                    for m in out.iter_mut() {
                        *m += coord * stride;
                    }
                }
                DimRole::Spread => {
                    // In place, coordinate-major: copy `coord` of the `n`
                    // machines so far lands at `coord * n..`, copy 0 stays.
                    let n = out.len();
                    out.resize(n * dim.size, 0);
                    for coord in (1..dim.size).rev() {
                        let (base, copy) = out.split_at_mut(coord * n);
                        for (m, &b) in copy[..n].iter_mut().zip(&base[..n]) {
                            *m = b + coord * stride;
                        }
                    }
                }
            }
        }
    }

    /// Analytic **maximum load per machine** (§3.1's `L`), in tuples, given
    /// relation cardinalities and the frequency of each attribute
    /// occurrence's most popular key (`top_freq(rel, col)`, the `L_mf/L`
    /// ratio of §3.4; pass `1/size` or less for uniform attributes).
    ///
    /// For each relation the fraction of its tuples landing on the most
    /// loaded machine is the product over dimensions of: `1` for a spread
    /// axis, `1/size` for a random axis, and `max(top_freq, 1/size)` for a
    /// hashed axis (the hottest key pins its entire mass to one
    /// coordinate).
    pub fn max_load(&self, sizes: &[f64], top_freq: &dyn Fn(usize, usize) -> f64) -> f64 {
        sizes
            .iter()
            .enumerate()
            .map(|(rel, &size)| {
                let frac: f64 = self.roles[rel]
                    .iter()
                    .zip(&self.dims)
                    .map(|(role, d)| match role {
                        DimRole::Hash(col) => {
                            (top_freq(rel, *col)).max(1.0 / d.size as f64).min(1.0)
                        }
                        DimRole::Random => 1.0 / d.size as f64,
                        DimRole::Spread => 1.0,
                    })
                    .product();
                size * frac
            })
            .sum()
    }

    /// Analytic **total load** over all machines (the paper's §3.1 totals
    /// 17H / 48H / 23H): Σ |Rᵢ| · replication(Rᵢ).
    pub fn total_load(&self, sizes: &[f64]) -> f64 {
        sizes.iter().enumerate().map(|(rel, &s)| s * self.replication(rel) as f64).sum()
    }

    /// The runtime grouping for one relation's edge into the join
    /// component.
    pub fn grouping_for(self: &Arc<Self>, rel: usize) -> impl CustomGrouping {
        HypercubeGrouping { scheme: Arc::clone(self), rel }
    }

    /// One-line description, e.g. `"y:9(hash) × z'':7(random)"`.
    pub fn describe(&self) -> String {
        self.dims
            .iter()
            .map(|d| {
                format!(
                    "{}:{}({})",
                    d.name,
                    d.size,
                    match d.kind {
                        PartitionKind::Hash => "hash",
                        PartitionKind::Random => "random",
                    }
                )
            })
            .collect::<Vec<_>>()
            .join(" × ")
    }
}

/// [`CustomGrouping`] adapter: routes one relation's tuples through the
/// scheme. Deterministic: random coordinates derive from
/// `(scheme.seed, relation, sender_task, seq)`.
struct HypercubeGrouping {
    scheme: Arc<HypercubeScheme>,
    rel: usize,
}

impl CustomGrouping for HypercubeGrouping {
    fn route(
        &self,
        sender_task: usize,
        seq: u64,
        row: &[Value],
        n_targets: usize,
        out: &mut Vec<usize>,
    ) {
        debug_assert!(
            self.scheme.machines() <= n_targets,
            "scheme uses {} machines but component has {n_targets} tasks",
            self.scheme.machines()
        );
        let mut rng = tuple_rng(self.scheme.seed ^ (self.rel as u64) << 32, sender_task, seq);
        self.scheme.route(self.rel, row, &mut rng, out);
    }

    fn name(&self) -> &str {
        "hypercube"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::{tuple, SplitMix64};

    /// Fig. 2a — Hash-Hypercube for R(x,y) ⋈ S(y,z) ⋈ T(z,t), 64 machines,
    /// dims y×z = 8×8.
    fn fig2a() -> HypercubeScheme {
        HypercubeScheme::new(
            3,
            vec![
                Dimension {
                    name: "y".into(),
                    size: 8,
                    kind: PartitionKind::Hash,
                    members: vec![(0, 1), (1, 0)],
                },
                Dimension {
                    name: "z".into(),
                    size: 8,
                    kind: PartitionKind::Hash,
                    members: vec![(1, 1), (2, 0)],
                },
            ],
            7,
        )
    }

    /// Fig. 2b — Random-Hypercube, dims R×S×T = 4×4×4.
    fn fig2b() -> HypercubeScheme {
        let dim = |name: &str, rel: usize| Dimension {
            name: name.into(),
            size: 4,
            kind: PartitionKind::Random,
            members: vec![(rel, 0)],
        };
        HypercubeScheme::new(3, vec![dim("~R", 0), dim("~S", 1), dim("~T", 2)], 7)
    }

    /// Fig. 2d — Hybrid-Hypercube with z skewed: dims y:9(hash) ×
    /// z'':7(random); R,S hash on y and spread on z''; T random on z'' and
    /// spread on y. (The paper's text prints 7×9 but its total-load
    /// arithmetic `R·7 + S·7 + T·9 = 23H` is the 9×7 assignment, which is
    /// also the optimum our optimizer finds.)
    fn fig2d() -> HypercubeScheme {
        HypercubeScheme::new(
            3,
            vec![
                Dimension {
                    name: "y".into(),
                    size: 9,
                    kind: PartitionKind::Hash,
                    members: vec![(0, 1), (1, 0)],
                },
                Dimension {
                    name: "z''".into(),
                    size: 7,
                    kind: PartitionKind::Random,
                    members: vec![(2, 0)],
                },
            ],
            7,
        )
    }

    #[test]
    fn machines_and_replication() {
        let hc = fig2a();
        assert_eq!(hc.machines(), 64);
        // R is hashed on y, replicated on z → 8 copies. S partitioned on
        // both → 1. T replicated on y → 8.
        assert_eq!(hc.replication(0), 8);
        assert_eq!(hc.replication(1), 1);
        assert_eq!(hc.replication(2), 8);
    }

    #[test]
    fn paper_worked_example_loads_uniform() {
        // §3.1: Hash-Hypercube L = |R|/8 + |S|/64 + |T|/8 ≈ 0.26H.
        let uniform = |_: usize, _: usize| 0.0;
        let h = fig2a().max_load(&[1.0, 1.0, 1.0], &uniform);
        assert!((h - (1.0 / 8.0 + 1.0 / 64.0 + 1.0 / 8.0)).abs() < 1e-12);
        assert!((h - 0.2656).abs() < 1e-3, "≈0.26H, got {h}");

        // Random-Hypercube: L = 3·H/4 = 0.75H regardless of skew.
        let r = fig2b().max_load(&[1.0, 1.0, 1.0], &uniform);
        assert!((r - 0.75).abs() < 1e-12);
    }

    #[test]
    fn paper_worked_example_loads_skewed() {
        // §3.1 / Fig. 2c: z zipfian with skew parameter 2 → the paper uses
        // top-key frequency 1/2. Hash-Hypercube max load becomes
        // |R|/8 + |S|/(8·2) + |T|/2 ≈ 0.69H.
        let top = |rel: usize, col: usize| -> f64 {
            // S.z is (1,1), T.z is (2,0): skewed with f_top = 0.5.
            if (rel, col) == (1, 1) || (rel, col) == (2, 0) {
                0.5
            } else {
                0.0
            }
        };
        let h = fig2a().max_load(&[1.0, 1.0, 1.0], &top);
        assert!((h - (1.0 / 8.0 + 1.0 / 16.0 + 0.5)).abs() < 1e-12);
        assert!((h - 0.6875).abs() < 1e-12, "≈0.69H, got {h}");

        // Random-Hypercube unchanged under skew.
        let r = fig2b().max_load(&[1.0, 1.0, 1.0], &top);
        assert!((r - 0.75).abs() < 1e-12);

        // Hybrid-Hypercube: (|R|+|S|)/9 + |T|/7 ≈ 0.365H — the paper's
        // "≈0.36H", beating Hash (0.69H) and Random (0.75H).
        let hy = fig2d().max_load(&[1.0, 1.0, 1.0], &top);
        assert!((hy - (2.0 / 9.0 + 1.0 / 7.0)).abs() < 1e-12);
        assert!(hy < h && hy < r);
        // Paper's speedups: 2.08× vs Random, 1.92× vs Hash (text rounds).
        assert!((r / hy - 2.05).abs() < 0.05, "vs random: {}", r / hy);
        assert!((h / hy - 1.88).abs() < 0.05, "vs hash: {}", h / hy);
    }

    #[test]
    fn paper_worked_example_total_loads() {
        // §3.1 totals: Hash 17H, Random 48H, Hybrid 23H.
        let sizes = [1.0, 1.0, 1.0];
        assert_eq!(fig2a().total_load(&sizes), 17.0);
        assert_eq!(fig2b().total_load(&sizes), 48.0);
        assert_eq!(fig2d().total_load(&sizes), 23.0);
    }

    #[test]
    fn routing_covers_all_joinable_triples_exactly_once() {
        // Correctness (§3.1): every potential output tuple
        // R(x,y) ⋈ S(y,z) ⋈ T(z,t) is assigned to exactly one machine.
        for scheme in [fig2a(), fig2b(), fig2d()] {
            let mut rng = SplitMix64::new(99);
            for y in 0..20i64 {
                for z in 0..20i64 {
                    let r = tuple![1000 + y, y];
                    let s = tuple![y, z];
                    let t = tuple![z, 2000 + z];
                    let (mut mr, mut ms, mut mt) = (vec![], vec![], vec![]);
                    // Random coordinates are drawn per tuple; a stored tuple
                    // has *one* placement, so route once per tuple.
                    scheme.route(0, &r, &mut rng, &mut mr);
                    scheme.route(1, &s, &mut rng, &mut ms);
                    scheme.route(2, &t, &mut rng, &mut mt);
                    let common: Vec<usize> =
                        mr.iter().filter(|m| ms.contains(m) && mt.contains(m)).copied().collect();
                    assert_eq!(
                        common.len(),
                        1,
                        "triple (y={y}, z={z}) met on {common:?} under {}",
                        scheme.describe()
                    );
                }
            }
        }
    }

    #[test]
    fn routing_targets_in_range_and_match_replication() {
        for scheme in [fig2a(), fig2b(), fig2d()] {
            let mut rng = SplitMix64::new(1);
            for rel in 0..3 {
                let t = tuple![7, 13];
                let mut out = vec![];
                scheme.route(rel, &t, &mut rng, &mut out);
                assert_eq!(out.len(), scheme.replication(rel));
                assert!(out.iter().all(|&m| m < scheme.machines()));
                // No duplicate targets.
                let mut sorted = out.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), out.len());
            }
        }
    }

    #[test]
    fn hash_dims_are_content_deterministic() {
        let scheme = fig2a();
        let mut rng1 = SplitMix64::new(1);
        let mut rng2 = SplitMix64::new(2);
        let (mut a, mut b) = (vec![], vec![]);
        scheme.route(1, &tuple![3, 4], &mut rng1, &mut a);
        scheme.route(1, &tuple![3, 4], &mut rng2, &mut b);
        // S is hashed on both dims: placement is independent of the rng.
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn grouping_adapter_is_deterministic() {
        let scheme = Arc::new(fig2d());
        let g = scheme.grouping_for(2);
        let t = tuple![5, 6];
        let (mut a, mut b) = (vec![], vec![]);
        g.route(3, 17, &t, 64, &mut a);
        g.route(3, 17, &t, 64, &mut b);
        assert_eq!(a, b);
        // Different seq → (almost surely) different random column.
        let mut c = vec![];
        g.route(3, 18, &t, 64, &mut c);
        assert_eq!(c.len(), a.len());
    }

    #[test]
    fn star_schema_special_case() {
        // §3.2: with one big fact table the optimizer yields p×1×…×1 —
        // partition the fact table, broadcast the dimension tables. Model
        // it directly: fact F(k1, k2) ⋈ D1(k1) ⋈ D2(k2), dims k1:p, k2:1.
        let scheme = HypercubeScheme::new(
            3,
            vec![
                Dimension {
                    name: "k1".into(),
                    size: 8,
                    kind: PartitionKind::Hash,
                    members: vec![(0, 0), (1, 0)],
                },
                Dimension {
                    name: "k2".into(),
                    size: 1,
                    kind: PartitionKind::Hash,
                    members: vec![(0, 1), (2, 0)],
                },
            ],
            7,
        );
        assert_eq!(scheme.replication(0), 1, "fact table is partitioned");
        assert_eq!(scheme.replication(2), 8, "dimension table is broadcast");
        assert_eq!(scheme.machines(), 8);
    }

    #[test]
    fn routing_matches_the_stride_table_formula() {
        // The reference: row-major strides from a table built per call,
        // then the same walk, a spread axis building a fresh list of copies.
        // Random coordinates must be drawn in the same order, so both routes
        // share one seeded stream per row. `route` spreads in place into a
        // reused `out` that holds the previous route: it must give the same
        // machines in the same order.
        fn reference(
            s: &HypercubeScheme,
            rel: usize,
            row: &[Value],
            rng: &mut SplitMix64,
        ) -> Vec<usize> {
            let mut strides = vec![1usize; s.dims.len()];
            for i in (0..s.dims.len().saturating_sub(1)).rev() {
                strides[i] = strides[i + 1] * s.dims[i + 1].size;
            }
            let mut out = vec![0];
            for ((role, dim), stride) in s.roles[rel].iter().zip(&s.dims).zip(strides) {
                let coord = |rng: &mut SplitMix64| match role {
                    DimRole::Hash(col) => partition_of(fx_hash(&row[*col]), dim.size),
                    _ => rng.next_below(dim.size),
                };
                out = match role {
                    DimRole::Spread => (0..dim.size)
                        .flat_map(|c| out.iter().map(move |m| m + c * stride))
                        .collect(),
                    _ => {
                        let c = coord(rng);
                        out.iter().map(|m| m + c * stride).collect()
                    }
                };
            }
            out
        }
        for seed in 0..1000 {
            let mut rng = SplitMix64::new(seed);
            let n_rel = 1 + rng.next_below(4);
            let dims = (0..1 + rng.next_below(4))
                .map(|i| Dimension {
                    name: format!("d{i}"),
                    size: 1 + rng.next_below(5),
                    kind: [PartitionKind::Hash, PartitionKind::Random][rng.next_below(2)],
                    members: (0..n_rel)
                        .filter_map(|rel| {
                            let col = rng.next_below(3);
                            (rng.next_below(2) == 0).then_some((rel, col))
                        })
                        .collect(),
                })
                .collect();
            let scheme = HypercubeScheme::new(n_rel, dims, seed);
            let mut out = vec![usize::MAX; rng.next_below(70)];
            for rel in 0..n_rel {
                let row: Vec<Value> = (0..3).map(|_| Value::Int(rng.next_range(0, 50))).collect();
                let stream = rng.next_u64();
                scheme.route(rel, &row, &mut SplitMix64::new(stream), &mut out);
                let expected = reference(&scheme, rel, &row, &mut SplitMix64::new(stream));
                assert_eq!(out, expected, "seed {seed}, relation {rel}");
            }
        }
    }

    #[test]
    fn describe_is_informative() {
        assert_eq!(fig2d().describe(), "y:9(hash) × z'':7(random)");
    }
}
