//! The Adaptive 1-Bucket controller (Elseidy et al. \[32\], §5 "Hypercube
//! sizes").
//!
//! In an online system the relative relation sizes change at run time, so a
//! statically sized 1-Bucket matrix drifts away from the optimum. The
//! adaptive operator monitors the observed cardinalities and, when the
//! current shape's load is far enough from the optimal shape's load to pay
//! for the state migration, re-shapes the matrix *without blocking* new
//! input (migration is interleaved with processing; this module provides
//! the decision logic and the migration accounting, the executing operator
//! lives in `squall-core`).

use squall_common::Result;

use crate::onebucket::optimal_matrix;

/// A reshape decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reshape {
    pub from: (usize, usize),
    pub to: (usize, usize),
}

/// Decides *when* to re-shape a 1-Bucket matrix.
#[derive(Debug, Clone)]
pub struct AdaptiveMatrix {
    machines: usize,
    rows: usize,
    cols: usize,
    n_r: u64,
    n_s: u64,
    /// Reshape when `current_load / optimal_load` exceeds this factor
    /// (hysteresis against oscillation; \[32\] uses a similar trigger).
    trigger_ratio: f64,
    /// Do not consider reshaping before this many tuples were observed
    /// (early cardinalities are noise).
    min_tuples: u64,
    /// Number of reshapes performed so far.
    pub reshapes: u64,
}

impl AdaptiveMatrix {
    /// Start with the square-ish default shape for `machines` machines.
    pub fn new(machines: usize) -> Result<AdaptiveMatrix> {
        let (rows, cols) = optimal_matrix(1, 1, machines)?;
        Ok(AdaptiveMatrix {
            machines,
            rows,
            cols,
            n_r: 0,
            n_s: 0,
            trigger_ratio: 1.2,
            min_tuples: 64,
            reshapes: 0,
        })
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn counts(&self) -> (u64, u64) {
        (self.n_r, self.n_s)
    }

    /// Record arrivals.
    pub fn observe_r(&mut self, n: u64) {
        self.n_r += n;
    }

    pub fn observe_s(&mut self, n: u64) {
        self.n_s += n;
    }

    /// Per-machine load of a shape for the observed cardinalities.
    fn load_of(&self, rows: usize, cols: usize) -> f64 {
        self.n_r as f64 / rows as f64 + self.n_s as f64 / cols as f64
    }

    /// Check whether a reshape is worthwhile; if so, adopt the new shape
    /// and return it. Deterministic in the observation sequence.
    pub fn check(&mut self) -> Option<Reshape> {
        if self.n_r + self.n_s < self.min_tuples {
            return None;
        }
        let (opt_r, opt_c) = optimal_matrix(self.n_r.max(1), self.n_s.max(1), self.machines)
            .expect("machines > 0 by construction");
        if (opt_r, opt_c) == (self.rows, self.cols) {
            return None;
        }
        let current = self.load_of(self.rows, self.cols);
        let optimal = self.load_of(opt_r, opt_c);
        if current > optimal * self.trigger_ratio {
            let reshape = Reshape { from: (self.rows, self.cols), to: (opt_r, opt_c) };
            self.rows = opt_r;
            self.cols = opt_c;
            self.reshapes += 1;
            Some(reshape)
        } else {
            None
        }
    }

    /// Expected number of (tuple, machine) placements that must be shipped
    /// over the network to realize a reshape, given the currently stored
    /// cardinalities: each stored R tuple must cover a row of the new grid
    /// (`new_cols` machines) and keeps, in expectation, the machines shared
    /// between its old row and its new row (`old_cols·new_cols/p`);
    /// symmetrically for S.
    pub fn migration_cost(&self, reshape: Reshape) -> f64 {
        let p = self.machines as f64;
        let (r1, c1) = (reshape.from.0 as f64, reshape.from.1 as f64);
        let (r2, c2) = (reshape.to.0 as f64, reshape.to.1 as f64);
        let r_kept = (c1 * c2 / p).min(c2);
        let s_kept = (r1 * r2 / p).min(r2);
        self.n_r as f64 * (c2 - r_kept) + self.n_s as f64 * (r2 - s_kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_square_for_unknown_sizes() {
        let a = AdaptiveMatrix::new(16).unwrap();
        assert_eq!(a.shape(), (4, 4));
    }

    #[test]
    fn no_reshape_before_min_tuples() {
        let mut a = AdaptiveMatrix::new(16).unwrap();
        a.observe_r(10);
        assert!(a.check().is_none());
    }

    #[test]
    fn no_reshape_when_balanced() {
        let mut a = AdaptiveMatrix::new(16).unwrap();
        a.observe_r(10_000);
        a.observe_s(10_000);
        assert!(a.check().is_none(), "square shape is already optimal");
    }

    #[test]
    fn reshapes_under_drift_and_improves_load() {
        // The [32] scenario: |R| grows 16× past |S|; the static 4×4 load is
        // far from optimal and the controller must adapt.
        let mut a = AdaptiveMatrix::new(16).unwrap();
        a.observe_r(16_000);
        a.observe_s(1_000);
        let before = a.load_of(4, 4);
        let reshape = a.check().expect("drift must trigger a reshape");
        assert_eq!(reshape.from, (4, 4));
        let (r, c) = reshape.to;
        assert!(r > 4, "more rows for the bigger relation, got {r}x{c}");
        let after = a.load_of(r, c);
        assert!(after < before / 1.2, "load {before} → {after}");
    }

    #[test]
    fn hysteresis_prevents_oscillation() {
        let mut a = AdaptiveMatrix::new(16).unwrap();
        a.observe_r(16_000);
        a.observe_s(1_000);
        assert!(a.check().is_some());
        // Immediately after adapting, small drift must NOT reshape again.
        a.observe_s(200);
        assert!(a.check().is_none());
        assert_eq!(a.reshapes, 1);
    }

    #[test]
    fn repeated_drift_reshapes_again() {
        let mut a = AdaptiveMatrix::new(64).unwrap();
        a.observe_r(10_000);
        a.observe_s(10_000);
        assert!(a.check().is_none());
        a.observe_r(300_000);
        assert!(a.check().is_some());
        // Now S floods.
        a.observe_s(3_000_000);
        assert!(a.check().is_some());
        assert_eq!(a.reshapes, 2);
    }

    #[test]
    fn migration_cost_scales_with_state() {
        let mut a = AdaptiveMatrix::new(16).unwrap();
        a.observe_r(1_000);
        a.observe_s(1_000);
        let reshape = Reshape { from: (4, 4), to: (8, 2) };
        let cost_small = a.migration_cost(reshape);
        a.observe_r(9_000);
        a.observe_s(9_000);
        let cost_big = a.migration_cost(reshape);
        assert!(cost_big > cost_small * 5.0);
        assert!(cost_small > 0.0);
    }

    #[test]
    fn identity_reshape_costs_little() {
        let mut a = AdaptiveMatrix::new(16).unwrap();
        a.observe_r(1_000);
        // from == to: kept machines = full overlap → R moves nothing
        // (c2 - c1*c2/p = 4 - 1 = 3 ... overlap is probabilistic for random
        // rows, so some residual cost remains; it must be below a full
        // re-placement).
        let same = a.migration_cost(Reshape { from: (4, 4), to: (4, 4) });
        assert!(same < 1_000.0 * 4.0);
    }
}
