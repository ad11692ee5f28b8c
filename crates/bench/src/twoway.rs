//! The 2-way join partitioning schemes the paper compares the hypercube
//! against (§3.1): 1-Bucket \[54\], M-Bucket \[54\] and EWH \[66\]. Read by
//! ablation A4 (all three), Figure 6's pipeline comparator and ablation A3
//! (the 1-Bucket matrix).
//!
//! **1-Bucket** is random partitioning over a matrix (a 2-dimensional
//! hypercube): each R tuple picks a random *row* and is replicated across
//! that row's columns; each S tuple picks a random *column* and is
//! replicated across its rows. Every (r, s) pair meets on exactly one
//! machine, for *any* join condition — the content-insensitive scheme that
//! anchors the skew-resilient end of the SAR spectrum (§5).
//!
//! **M-Bucket** and **EWH** view the join `R ⋈_θ S` as a matrix too, but
//! one of key *ranges*: rows are ranges of the R-side key, columns ranges
//! of the S-side key (boundaries from equi-depth sample histograms). For
//! *band and inequality* conditions only the cells near/below the diagonal
//! can produce output; those **candidate cells** are assigned to machines
//! and everything else is simply never shipped — the advantage over
//! 1-Bucket ("large continuous matrix portions that produce no output ...
//! are not assigned to machines", §3.1). Candidacy is decided from bucket
//! *ranges* and the condition's geometry, never from the sample, so routing
//! is exact: a matching pair always lands in a candidate cell. The sample
//! only influences *balance*, and what is balanced is the difference
//! between the two: M-Bucket balances the *input* each machine receives
//! and is "prone to join product skew"; EWH tiles the matrix into regions
//! of approximately equal **output** weight and "works well for any data
//! distribution".

use squall_common::{Result, SquallError, Value};
use squall_expr::join_cond::CmpOp;
use squall_partition::hypercube::{Dimension, HypercubeScheme, PartitionKind};

// ---------------------------------------------------------------------------
// 1-Bucket.
// ---------------------------------------------------------------------------

/// Build the optimal 1-Bucket matrix for a 2-way join with the given
/// (estimated) relation sizes over at most `machines` machines.
///
/// The optimal shape balances `|R|/rows + |S|/cols` subject to
/// `rows·cols ≤ machines` (integer sizes, per \[26\]).
pub fn one_bucket(r_size: u64, s_size: u64, machines: usize, seed: u64) -> Result<HypercubeScheme> {
    let (rows, cols) = optimal_matrix(r_size, s_size, machines)?;
    Ok(matrix_scheme(rows, cols, seed))
}

/// The load-minimizing integer matrix shape.
pub fn optimal_matrix(r_size: u64, s_size: u64, machines: usize) -> Result<(usize, usize)> {
    if machines == 0 {
        return Err(SquallError::InvalidPartitioning("zero machines".into()));
    }
    let mut best = (1usize, 1usize);
    let mut best_load = f64::INFINITY;
    for rows in 1..=machines {
        let cols = machines / rows;
        if cols == 0 {
            break;
        }
        let load = r_size as f64 / rows as f64 + s_size as f64 / cols as f64;
        if load < best_load - 1e-12 {
            best_load = load;
            best = (rows, cols);
        }
    }
    Ok(best)
}

/// Build a 1-Bucket scheme with an explicit shape (the pipeline's
/// non-equi stages use a square one).
pub fn matrix_scheme(rows: usize, cols: usize, seed: u64) -> HypercubeScheme {
    HypercubeScheme::new(
        2,
        vec![
            Dimension {
                name: "~R".into(),
                size: rows,
                kind: PartitionKind::Random,
                members: vec![(0, 0)],
            },
            Dimension {
                name: "~S".into(),
                size: cols,
                kind: PartitionKind::Random,
                members: vec![(1, 0)],
            },
        ],
        seed,
    )
}

// ---------------------------------------------------------------------------
// The candidate-cell grid M-Bucket and EWH share.
// ---------------------------------------------------------------------------

/// The join conditions the range schemes support (integer keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeCond {
    /// `|r − s| ≤ width`.
    Band(i64),
    /// `r op s` for an inequality operator.
    Cmp(CmpOp),
}

impl RangeCond {
    /// Does the condition hold for a concrete pair?
    pub fn matches(&self, r: i64, s: i64) -> bool {
        match self {
            RangeCond::Band(w) => (r - s).abs() <= *w,
            RangeCond::Cmp(op) => op.eval(&Value::Int(r), &Value::Int(s)),
        }
    }

    /// Can *any* pair drawn from the two inclusive ranges match?
    fn ranges_can_match(&self, r_lo: i64, r_hi: i64, s_lo: i64, s_hi: i64) -> bool {
        match self {
            RangeCond::Band(w) => {
                r_lo.saturating_sub(*w) <= s_hi && s_lo.saturating_sub(*w) <= r_hi
            }
            RangeCond::Cmp(CmpOp::Lt) => r_lo < s_hi,
            RangeCond::Cmp(CmpOp::Le) => r_lo <= s_hi,
            RangeCond::Cmp(CmpOp::Gt) => r_hi > s_lo,
            RangeCond::Cmp(CmpOp::Ge) => r_hi >= s_lo,
            RangeCond::Cmp(CmpOp::Eq) => r_lo <= s_hi && s_lo <= r_hi,
            RangeCond::Cmp(CmpOp::Ne) => true,
        }
    }
}

/// Equi-depth histogram boundaries from a sample: `g-1` split points
/// producing `g` buckets. Bucket `i` covers `(bounds[i-1], bounds[i]]` with
/// open ends at ±∞.
pub fn equi_depth_bounds(sample: &[i64], buckets: usize) -> Vec<i64> {
    assert!(buckets > 0);
    let mut sorted: Vec<i64> = sample.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.is_empty() {
        return Vec::new();
    }
    let mut bounds = Vec::with_capacity(buckets.saturating_sub(1));
    for i in 1..buckets {
        let idx = i * sorted.len() / buckets;
        if idx < sorted.len() {
            let b = sorted[idx];
            if bounds.last() != Some(&b) {
                bounds.push(b);
            }
        }
    }
    bounds
}

/// Index of the bucket holding `v` given boundaries (see
/// [`equi_depth_bounds`]): the first `i` with `v <= bounds[i]`, else the
/// last bucket.
fn bucket_of(bounds: &[i64], v: i64) -> usize {
    bounds.partition_point(|&b| b < v)
}

/// Inclusive value range of bucket `i`.
fn bucket_range(bounds: &[i64], i: usize) -> (i64, i64) {
    let lo = if i == 0 { i64::MIN } else { bounds[i - 1].saturating_add(1) };
    let hi = if i < bounds.len() { bounds[i] } else { i64::MAX };
    (lo, hi)
}

/// A fully assigned candidate-cell grid.
#[derive(Debug, Clone)]
pub struct RangeGrid {
    pub r_bounds: Vec<i64>,
    pub s_bounds: Vec<i64>,
    pub cond: RangeCond,
    /// `owner[row][col]`: machine owning the cell, `None` for non-candidate
    /// cells.
    pub owner: Vec<Vec<Option<u32>>>,
    /// Machines owning at least one candidate cell of the row / column.
    row_targets: Vec<Vec<usize>>,
    col_targets: Vec<Vec<usize>>,
    pub machines: usize,
}

impl RangeGrid {
    /// Assemble a grid: compute candidate cells, weight them with
    /// `cell_weight(row, col)`, then assign contiguous runs of candidate
    /// cells (row-major sweep) so every machine carries ≈ total/p weight.
    pub fn build(
        r_bounds: Vec<i64>,
        s_bounds: Vec<i64>,
        cond: RangeCond,
        machines: usize,
        cell_weight: &dyn Fn(usize, usize) -> f64,
    ) -> Result<RangeGrid> {
        if machines == 0 {
            return Err(SquallError::InvalidPartitioning("zero machines".into()));
        }
        let rows = r_bounds.len() + 1;
        let cols = s_bounds.len() + 1;
        let mut candidate = vec![vec![false; cols]; rows];
        let mut total_weight = 0.0;
        let mut weights = vec![vec![0.0f64; cols]; rows];
        for (i, cand_row) in candidate.iter_mut().enumerate() {
            let (rlo, rhi) = bucket_range(&r_bounds, i);
            for (j, cand) in cand_row.iter_mut().enumerate() {
                let (slo, shi) = bucket_range(&s_bounds, j);
                if cond.ranges_can_match(rlo, rhi, slo, shi) {
                    *cand = true;
                    let w = cell_weight(i, j).max(1e-9);
                    weights[i][j] = w;
                    total_weight += w;
                }
            }
        }
        // Row-major sweep: cut a new machine region when the running
        // weight reaches total/p.
        let per_machine = total_weight / machines as f64;
        let mut owner = vec![vec![None; cols]; rows];
        let mut machine = 0u32;
        let mut acc = 0.0;
        for i in 0..rows {
            for j in 0..cols {
                if !candidate[i][j] {
                    continue;
                }
                owner[i][j] = Some(machine);
                acc += weights[i][j];
                if acc >= per_machine && (machine as usize) < machines - 1 {
                    machine += 1;
                    acc = 0.0;
                }
            }
        }
        // Target lists.
        let mut row_targets = vec![Vec::new(); rows];
        let mut col_targets = vec![Vec::new(); cols];
        for (i, owner_row) in owner.iter().enumerate() {
            for (j, o) in owner_row.iter().enumerate() {
                if let Some(m) = o {
                    let m = *m as usize;
                    if !row_targets[i].contains(&m) {
                        row_targets[i].push(m);
                    }
                    if !col_targets[j].contains(&m) {
                        col_targets[j].push(m);
                    }
                }
            }
        }
        Ok(RangeGrid { r_bounds, s_bounds, cond, owner, row_targets, col_targets, machines })
    }

    pub fn rows(&self) -> usize {
        self.r_bounds.len() + 1
    }

    pub fn cols(&self) -> usize {
        self.s_bounds.len() + 1
    }

    /// Machines an R tuple with key `k` must reach.
    pub fn route_r(&self, k: i64) -> &[usize] {
        &self.row_targets[bucket_of(&self.r_bounds, k)]
    }

    /// Machines an S tuple with key `k` must reach.
    pub fn route_s(&self, k: i64) -> &[usize] {
        &self.col_targets[bucket_of(&self.s_bounds, k)]
    }

    /// The unique machine responsible for producing the pair `(r, s)`, if
    /// the pair can match at all.
    pub fn owner_of(&self, r: i64, s: i64) -> Option<usize> {
        let i = bucket_of(&self.r_bounds, r);
        let j = bucket_of(&self.s_bounds, s);
        self.owner[i][j].map(|m| m as usize)
    }

    /// Does machine `m` own the cell of the pair `(r, s)`? A local theta
    /// join asks this to guarantee exactly-once output when a machine owns
    /// several cells.
    pub fn owns(&self, m: usize, r: i64, s: i64) -> bool {
        self.owner_of(r, s) == Some(m)
    }

    /// Average number of machines an input tuple of each side reaches.
    pub fn avg_replication(&self) -> (f64, f64) {
        let r = self.row_targets.iter().map(|t| t.len()).sum::<usize>() as f64 / self.rows() as f64;
        let s = self.col_targets.iter().map(|t| t.len()).sum::<usize>() as f64 / self.cols() as f64;
        (r, s)
    }
}

// ---------------------------------------------------------------------------
// M-Bucket and EWH: the same grid under two cell weights.
// ---------------------------------------------------------------------------

/// M-Bucket: candidate cells weighted uniformly, so the sweep balances
/// covered cells (a proxy for input), blind to output density.
///
/// Built from key samples of both sides; `granularity` is the bucket count
/// per side (the paper's number of histogram buckets), `machines` the join
/// parallelism.
pub fn mbucket(
    r_sample: &[i64],
    s_sample: &[i64],
    cond: RangeCond,
    machines: usize,
    granularity: usize,
) -> Result<RangeGrid> {
    RangeGrid::build(
        equi_depth_bounds(r_sample, granularity),
        equi_depth_bounds(s_sample, granularity),
        cond,
        machines,
        &|_, _| 1.0,
    )
}

/// EWH: candidate cells weighted by estimated output — the two *samples*
/// joined inside each candidate cell, a laptop-sized stand-in for the
/// paper's parallel distribution-capture pass.
pub fn ewh(
    r_sample: &[i64],
    s_sample: &[i64],
    cond: RangeCond,
    machines: usize,
    granularity: usize,
) -> Result<RangeGrid> {
    let r_bounds = equi_depth_bounds(r_sample, granularity);
    let s_bounds = equi_depth_bounds(s_sample, granularity);
    // Bucketize the samples once.
    let mut r_by_bucket: Vec<Vec<i64>> = vec![Vec::new(); r_bounds.len() + 1];
    for &k in r_sample {
        r_by_bucket[bucket_of(&r_bounds, k)].push(k);
    }
    let mut s_by_bucket: Vec<Vec<i64>> = vec![Vec::new(); s_bounds.len() + 1];
    for &k in s_sample {
        s_by_bucket[bucket_of(&s_bounds, k)].push(k);
    }
    // Output weight of a cell = matching sample pairs inside it (+ a small
    // input term so empty-output cells still carry their shipping cost).
    let weight = |i: usize, j: usize| -> f64 {
        let rs = &r_by_bucket[i];
        let ss = &s_by_bucket[j];
        let mut matches = 0usize;
        for &r in rs {
            for &s in ss {
                if cond.matches(r, s) {
                    matches += 1;
                }
            }
        }
        matches as f64 + 0.01 * (rs.len() + ss.len()) as f64
    };
    RangeGrid::build(r_bounds, s_bounds, cond, machines, &weight)
}

/// Exact per-machine *output* counts for a dataset under a grid — the
/// quantity EWH balances and M-Bucket does not. Quadratic; use on small
/// data.
pub fn output_per_machine(grid: &RangeGrid, r_keys: &[i64], s_keys: &[i64]) -> Vec<u64> {
    let mut counts = vec![0u64; grid.machines];
    for &r in r_keys {
        for &s in s_keys {
            if grid.cond.matches(r, s) {
                if let Some(m) = grid.owner_of(r, s) {
                    counts[m] += 1;
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    mod onebucket {
        use super::*;
        use squall_common::{tuple, SplitMix64};

        #[test]
        fn equal_sizes_square_matrix() {
            assert_eq!(optimal_matrix(100, 100, 16).unwrap(), (4, 4));
            assert_eq!(optimal_matrix(100, 100, 64).unwrap(), (8, 8));
        }

        #[test]
        fn skewed_sizes_rectangular_matrix() {
            // |R| = 4|S| → rows:cols = 2:1 at 8 machines... the integer
            // search finds the true optimum.
            let (rows, cols) = optimal_matrix(400, 100, 16).unwrap();
            let load = 400.0 / rows as f64 + 100.0 / cols as f64;
            // Brute-force optimum check.
            for r in 1..=16 {
                let c = 16 / r;
                if c == 0 {
                    continue;
                }
                assert!(load <= 400.0 / r as f64 + 100.0 / c as f64 + 1e-12);
            }
            assert_eq!((rows, cols), (8, 2));
        }

        #[test]
        fn tiny_machine_counts() {
            assert_eq!(optimal_matrix(10, 10, 1).unwrap(), (1, 1));
            let (r, c) = optimal_matrix(10, 10, 3).unwrap();
            assert!(r * c <= 3);
        }

        #[test]
        fn every_pair_meets_exactly_once() {
            let scheme = one_bucket(50, 50, 16, 7).unwrap();
            let mut rng = SplitMix64::new(3);
            for i in 0..30i64 {
                for j in 0..30i64 {
                    let (mut mr, mut ms) = (vec![], vec![]);
                    let r = tuple![i];
                    let s = tuple![j];
                    scheme.route(0, &r, &mut rng, &mut mr);
                    scheme.route(1, &s, &mut rng, &mut ms);
                    let meet = mr.iter().filter(|m| ms.contains(m)).count();
                    assert_eq!(meet, 1);
                }
            }
        }

        #[test]
        fn content_insensitive_load_balance() {
            // All tuples share one key (extreme skew) — 1-Bucket must still
            // balance rows perfectly in expectation.
            let scheme = one_bucket(1000, 1000, 16, 7).unwrap();
            let mut rng = SplitMix64::new(3);
            let mut per_machine = [0usize; 16];
            let mut out = vec![];
            for _ in 0..4000 {
                scheme.route(0, &tuple![42], &mut rng, &mut out);
                for &m in &out {
                    per_machine[m] += 1;
                }
            }
            let max = *per_machine.iter().max().unwrap() as f64;
            let avg = per_machine.iter().sum::<usize>() as f64 / 16.0;
            assert!(max / avg < 1.15, "skew degree {} too high for random scheme", max / avg);
        }

        #[test]
        fn zero_machines_rejected() {
            assert!(one_bucket(1, 1, 0, 0).is_err());
        }
    }

    mod grid {
        use super::*;

        fn candidate_cells(grid: &RangeGrid) -> usize {
            grid.owner.iter().flatten().flatten().count()
        }

        #[test]
        fn equi_depth_bounds_split_evenly() {
            let sample: Vec<i64> = (0..100).collect();
            let bounds = equi_depth_bounds(&sample, 4);
            assert_eq!(bounds, vec![25, 50, 75]);
            assert_eq!(bucket_of(&bounds, 0), 0);
            assert_eq!(bucket_of(&bounds, 25), 0);
            assert_eq!(bucket_of(&bounds, 26), 1);
            assert_eq!(bucket_of(&bounds, 99), 3);
            assert_eq!(bucket_of(&bounds, 1_000_000), 3);
        }

        #[test]
        fn equi_depth_handles_duplicates() {
            // A heavy key occupies one boundary at most once.
            let mut sample = vec![5i64; 1000];
            sample.extend(0..10);
            let bounds = equi_depth_bounds(&sample, 4);
            let mut dedup = bounds.clone();
            dedup.dedup();
            assert_eq!(bounds, dedup, "boundaries must be strictly increasing");
        }

        #[test]
        fn bucket_ranges_partition_the_domain() {
            let bounds = vec![10i64, 20, 30];
            let mut prev_hi = None;
            for i in 0..4 {
                let (lo, hi) = bucket_range(&bounds, i);
                assert!(lo <= hi);
                if let Some(p) = prev_hi {
                    assert_eq!(lo, p + 1i64, "ranges must tile without gaps");
                }
                prev_hi = Some(hi);
            }
            assert_eq!(bucket_range(&bounds, 0).0, i64::MIN);
            assert_eq!(bucket_range(&bounds, 3).1, i64::MAX);
        }

        #[test]
        fn band_candidacy_geometry() {
            let c = RangeCond::Band(5);
            assert!(c.ranges_can_match(0, 10, 12, 20)); // 10 vs 12 within 5
            assert!(!c.ranges_can_match(0, 10, 16, 20)); // gap 6 > 5
            assert!(c.ranges_can_match(0, 10, 3, 4)); // overlap
            let lt = RangeCond::Cmp(CmpOp::Lt);
            assert!(lt.ranges_can_match(0, 10, 5, 7)); // 0 < 7
            assert!(!lt.ranges_can_match(10, 20, 0, 9)); // no r < s possible
        }

        #[test]
        fn matching_pairs_always_land_in_candidate_cells() {
            let r_keys: Vec<i64> = (0..200).map(|i| i * 3 % 101).collect();
            let s_keys: Vec<i64> = (0..200).map(|i| i * 7 % 97).collect();
            let cond = RangeCond::Band(2);
            let grid = RangeGrid::build(
                equi_depth_bounds(&r_keys, 8),
                equi_depth_bounds(&s_keys, 8),
                cond,
                4,
                &|_, _| 1.0,
            )
            .unwrap();
            for &r in &r_keys {
                for &s in &s_keys {
                    if cond.matches(r, s) {
                        let owner = grid.owner_of(r, s).expect("matching pair must have an owner");
                        assert!(grid.route_r(r).contains(&owner), "owner receives r");
                        assert!(grid.route_s(s).contains(&owner), "owner receives s");
                    }
                }
            }
        }

        #[test]
        fn exactly_one_owner_per_pair() {
            let keys: Vec<i64> = (0..100).collect();
            let grid = RangeGrid::build(
                equi_depth_bounds(&keys, 10),
                equi_depth_bounds(&keys, 10),
                RangeCond::Cmp(CmpOp::Lt),
                6,
                &|_, _| 1.0,
            )
            .unwrap();
            // owner_of is a function: trivially unique. Verify `owns`
            // agrees and that exactly one machine answers true.
            for r in (0..100).step_by(7) {
                for s in (0..100).step_by(11) {
                    if r < s {
                        let owners: Vec<usize> = (0..6).filter(|&m| grid.owns(m, r, s)).collect();
                        assert_eq!(owners.len(), 1);
                    }
                }
            }
        }

        #[test]
        fn band_join_prunes_most_cells() {
            // The selling point vs 1-Bucket: a narrow band over a wide
            // domain assigns only the near-diagonal cells.
            let keys: Vec<i64> = (0..10_000).collect();
            let grid = RangeGrid::build(
                equi_depth_bounds(&keys, 32),
                equi_depth_bounds(&keys, 32),
                RangeCond::Band(10),
                8,
                &|_, _| 1.0,
            )
            .unwrap();
            let total_cells = grid.rows() * grid.cols();
            assert!(
                candidate_cells(&grid) * 5 < total_cells,
                "only near-diagonal cells should be candidates: {}/{total_cells}",
                candidate_cells(&grid)
            );
            let (rr, rs) = grid.avg_replication();
            assert!(rr < 3.0 && rs < 3.0, "replication {rr}/{rs} should be small");
        }

        #[test]
        fn inequality_join_covers_half_matrix() {
            let keys: Vec<i64> = (0..1000).collect();
            let grid = RangeGrid::build(
                equi_depth_bounds(&keys, 8),
                equi_depth_bounds(&keys, 8),
                RangeCond::Cmp(CmpOp::Lt),
                4,
                &|_, _| 1.0,
            )
            .unwrap();
            // Roughly the upper triangle (plus the diagonal cells).
            let cells = candidate_cells(&grid);
            assert!((36..=44).contains(&cells), "got {cells}");
        }

        #[test]
        fn zero_machines_rejected() {
            assert!(RangeGrid::build(vec![], vec![], RangeCond::Band(1), 0, &|_, _| 1.0).is_err());
        }
    }

    mod mbucket {
        use super::*;

        #[test]
        fn routes_matching_pairs_to_common_owner() {
            let r: Vec<i64> = (0..500).map(|i| i % 97).collect();
            let s: Vec<i64> = (0..500).map(|i| (i * 3) % 89).collect();
            let cond = RangeCond::Band(3);
            let grid = mbucket(&r, &s, cond, 6, 12).unwrap();
            for &rk in r.iter().take(60) {
                for &sk in s.iter().take(60) {
                    if cond.matches(rk, sk) {
                        let owner = grid.owner_of(rk, sk).unwrap();
                        assert!(grid.route_r(rk).contains(&owner));
                        assert!(grid.route_s(sk).contains(&owner));
                    }
                }
            }
        }

        #[test]
        fn input_balanced_cell_counts() {
            let keys: Vec<i64> = (0..10_000).collect();
            let grid = mbucket(&keys, &keys, RangeCond::Cmp(CmpOp::Lt), 8, 24).unwrap();
            // Cells per machine within 2× of each other (sweep balance).
            let mut counts = vec![0usize; 8];
            for row in &grid.owner {
                for o in row.iter().flatten() {
                    counts[*o as usize] += 1;
                }
            }
            let max = *counts.iter().max().unwrap() as f64;
            let min = *counts.iter().min().unwrap().max(&1) as f64;
            assert!(max / min < 2.0, "cell counts {counts:?}");
        }
    }

    mod ewh {
        use super::*;
        use squall_common::SplitMix64;

        fn skew_deg(counts: &[u64]) -> f64 {
            let max = *counts.iter().max().unwrap() as f64;
            let avg = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
            if avg == 0.0 {
                1.0
            } else {
                max / avg
            }
        }

        /// Keys with join product skew spread over a *region*: half the
        /// input mass sits in a dense low-key region (keys 0..100, each
        /// duplicated, so band cells there produce quadratically more
        /// output), the other half is sparse (unique keys over a wide
        /// range). M-Bucket balances *cells*; the dense region's cells do
        /// most of the output work.
        fn product_skewed_keys(n: usize, seed: u64) -> Vec<i64> {
            let mut rng = SplitMix64::new(seed);
            (0..n)
                .map(|_| {
                    if rng.next_f64() < 0.5 {
                        rng.next_below(100) as i64
                    } else {
                        1_000 + rng.next_below(1_000_000) as i64
                    }
                })
                .collect()
        }

        #[test]
        fn correctness_every_matching_pair_owned_once() {
            let r = product_skewed_keys(400, 1);
            let s = product_skewed_keys(400, 2);
            let cond = RangeCond::Band(2);
            let grid = ewh(&r, &s, cond, 8, 16).unwrap();
            for &rk in r.iter().take(50) {
                for &sk in s.iter().take(50) {
                    if cond.matches(rk, sk) {
                        let o = grid.owner_of(rk, sk).unwrap();
                        assert!(grid.route_r(rk).contains(&o));
                        assert!(grid.route_s(sk).contains(&o));
                    }
                }
            }
        }

        #[test]
        fn ewh_balances_output_better_than_mbucket_under_product_skew() {
            // The §3.1 claim: "The M-Bucket scheme is prone to join product
            // skew. In contrast, the EWH scheme works well for any data
            // distribution."
            let r = product_skewed_keys(3000, 11);
            let s = product_skewed_keys(3000, 22);
            let cond = RangeCond::Band(1);
            let machines = 8;
            let ewh_out = output_per_machine(&ewh(&r, &s, cond, machines, 32).unwrap(), &r, &s);
            let mb_out = output_per_machine(&mbucket(&r, &s, cond, machines, 32).unwrap(), &r, &s);
            assert_eq!(
                ewh_out.iter().sum::<u64>(),
                mb_out.iter().sum::<u64>(),
                "both schemes must produce the same join output"
            );
            let (e, m) = (skew_deg(&ewh_out), skew_deg(&mb_out));
            assert!(e < m * 0.75, "EWH output skew {e:.2} should clearly beat M-Bucket {m:.2}");
        }

        #[test]
        fn uniform_data_both_schemes_fine() {
            let keys: Vec<i64> = (0..4000).collect();
            let grid = ewh(&keys, &keys, RangeCond::Band(3), 8, 32).unwrap();
            let out = output_per_machine(&grid, &keys, &keys);
            assert!(skew_deg(&out) < 2.0, "skew {:.2}", skew_deg(&out));
        }
    }
}
