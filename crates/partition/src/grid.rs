//! Shared machinery for the range-partitioning 2-way join schemes
//! (M-Bucket \[54\] and EWH \[66\]).
//!
//! Both schemes view the join `R ⋈_θ S` as a matrix: rows are ranges of the
//! R-side key, columns ranges of the S-side key (boundaries from equi-depth
//! sample histograms). For *band and inequality* conditions only the cells
//! near/below the diagonal can produce output; those **candidate cells**
//! are assigned to machines and everything else is simply never shipped —
//! the advantage over 1-Bucket ("large continuous matrix portions that
//! produce no output ... are not assigned to machines", §3.1).
//!
//! Candidacy is decided from bucket *ranges* and the condition's geometry,
//! never from the sample, so routing is exact: a matching pair always lands
//! in a candidate cell. The sample only influences *balance*.

use squall_common::{Result, SquallError, Value};
use squall_expr::join_cond::CmpOp;

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
pub fn bucket_of(bounds: &[i64], v: i64) -> usize {
    bounds.partition_point(|&b| b < v)
}

/// Inclusive value range of bucket `i`.
pub fn bucket_range(bounds: &[i64], i: usize) -> (i64, i64) {
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

    /// Does machine `m` own the cell of the pair `(r, s)`? The local theta
    /// join calls this to guarantee exactly-once output when a machine owns
    /// several cells.
    pub fn owns(&self, m: usize, r: i64, s: i64) -> bool {
        self.owner_of(r, s) == Some(m)
    }

    /// Total candidate cells (the work the scheme ships, ∝ replication).
    pub fn candidate_cells(&self) -> usize {
        self.owner.iter().flatten().filter(|o| o.is_some()).count()
    }

    /// Average number of machines an input tuple of each side reaches.
    pub fn avg_replication(&self) -> (f64, f64) {
        let r = self.row_targets.iter().map(|t| t.len()).sum::<usize>() as f64 / self.rows() as f64;
        let s = self.col_targets.iter().map(|t| t.len()).sum::<usize>() as f64 / self.cols() as f64;
        (r, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // owner_of is a function: trivially unique. Verify `owns` agrees
        // and that exactly one machine answers true.
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
        // The selling point vs 1-Bucket: a narrow band over a wide domain
        // assigns only the near-diagonal cells.
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
            grid.candidate_cells() * 5 < total_cells,
            "only near-diagonal cells should be candidates: {}/{total_cells}",
            grid.candidate_cells()
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
        let cells = grid.candidate_cells();
        assert!((36..=44).contains(&cells), "got {cells}");
    }

    #[test]
    fn zero_machines_rejected() {
        assert!(RangeGrid::build(vec![], vec![], RangeCond::Band(1), 0, &|_, _| 1.0).is_err());
    }
}
