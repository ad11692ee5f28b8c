//! Adaptive 1-Bucket (Elseidy et al. \[32\], §5 "Hypercube sizes") — the
//! controller and an executable model of the operator, read by ablation A3.
//!
//! In an online system the relative relation sizes change at run time, so a
//! statically sized 1-Bucket matrix drifts away from the optimum.
//! [`AdaptiveMatrix`] is the decision logic: it monitors the observed
//! cardinalities and re-shapes the matrix when the current shape's load is
//! far enough from the optimal shape's to pay for the state migration.
//! [`simulate`] adds the *state* side: tuples placed under the old matrix
//! shape are migrated to their new rows/columns when the controller
//! re-shapes, without blocking new arrivals (migration work is accounted
//! separately, as shipped tuples). The simulation verifies the operator's
//! two claims:
//!
//! 1. under drifting `|R| : |S|` ratios the adaptive operator's maximum
//!    machine load tracks the optimal static shape chosen *in hindsight*;
//! 2. correctness is preserved across reshapes — every (r, s) pair still
//!    meets on at least one machine, and result ownership stays
//!    exactly-once.

use squall_common::{Result, SplitMix64, Tuple};

use crate::twoway::optimal_matrix;

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
}

/// Per-machine state of the simulated operator.
#[derive(Debug, Clone, Default)]
struct MachineState {
    r: Vec<usize>, // indexes into the R log
    s: Vec<usize>,
}

/// Simulation result.
#[derive(Debug)]
pub struct AdaptiveRun {
    /// Tuples received per machine (including migrated ones).
    pub loads: Vec<u64>,
    /// Tuples shipped by reshapes only.
    pub migrated: u64,
    /// Number of reshapes performed.
    pub reshapes: u64,
    /// Join results produced (for correctness checks).
    pub results: u64,
}

impl AdaptiveRun {
    pub fn max_load(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    pub fn avg_load(&self) -> f64 {
        if self.loads.is_empty() {
            0.0
        } else {
            self.loads.iter().sum::<u64>() as f64 / self.loads.len() as f64
        }
    }
}

/// One arrival: which relation (0 = R, 1 = S) and the tuple.
pub type Arrival = (usize, Tuple);

/// Simulate a (possibly adaptive) 1-Bucket join over an arrival stream.
///
/// With `adaptive = false` the initial square shape is kept for the whole
/// run — the static baseline of the ablation. Results are counted for
/// cross-relation pairs co-located on a machine; the row/column discipline
/// guarantees exactly-once, which the caller can verify against
/// `n_r · n_s` for a cross product condition.
pub fn simulate(machines: usize, arrivals: &[Arrival], adaptive: bool, seed: u64) -> AdaptiveRun {
    let mut ctl = AdaptiveMatrix::new(machines).expect("machines > 0");
    let mut rng = SplitMix64::new(seed);
    let mut states: Vec<MachineState> = vec![MachineState::default(); machines];
    let mut loads = vec![0u64; machines];
    let mut migrated = 0u64;
    let mut results = 0u64;
    // Logs of every arrival with its current (row|col) placement.
    let mut r_rows: Vec<usize> = Vec::new();
    let mut s_cols: Vec<usize> = Vec::new();

    let machine_at =
        |shape: (usize, usize), row: usize, col: usize| -> usize { row * shape.1 + col };

    for (rel, _tuple) in arrivals {
        let shape = ctl.shape();
        if *rel == 0 {
            let row = rng.next_below(shape.0);
            let idx = r_rows.len();
            r_rows.push(row);
            ctl.observe_r(1);
            // Join against stored S in the row's machines, store in row.
            for col in 0..shape.1 {
                let m = machine_at(shape, row, col);
                loads[m] += 1;
                results += states[m].s.len() as u64;
                states[m].r.push(idx);
            }
        } else {
            let col = rng.next_below(shape.1);
            let idx = s_cols.len();
            s_cols.push(col);
            ctl.observe_s(1);
            for row in 0..shape.0 {
                let m = machine_at(shape, row, col);
                loads[m] += 1;
                results += states[m].r.len() as u64;
                states[m].s.push(idx);
            }
        }
        if !adaptive {
            continue;
        }
        if let Some(reshape) = ctl.check() {
            // Migrate: re-place every stored tuple under the new shape.
            // (The [32] operator interleaves this with processing; the
            // simulation ships it eagerly and counts the cost.)
            let new = reshape.to;
            let mut new_states: Vec<MachineState> = vec![MachineState::default(); machines];
            // Keep each R tuple's row identity where possible (mod the new
            // row count) — a deterministic re-placement that preserves the
            // row/column discipline.
            for (idx, row) in r_rows.iter_mut().enumerate() {
                *row %= new.0;
                for col in 0..new.1 {
                    let m = machine_at(new, *row, col);
                    new_states[m].r.push(idx);
                    migrated += 1;
                }
            }
            for (idx, col) in s_cols.iter_mut().enumerate() {
                *col %= new.1;
                for row in 0..new.0 {
                    let m = machine_at(new, row, *col);
                    new_states[m].s.push(idx);
                    migrated += 1;
                }
            }
            states = new_states;
        }
    }
    AdaptiveRun { loads, migrated, reshapes: ctl.reshapes, results }
}

/// A drifting workload: the first `phase1` arrivals are evenly split, the
/// rest are `ratio`:1 in favour of R — the \[32\] drift scenario.
pub fn drifting_stream(phase1: usize, phase2: usize, ratio: usize, seed: u64) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(phase1 + phase2);
    for i in 0..phase1 {
        out.push((i % 2, squall_common::tuple![rng.next_range(0, 1000)]));
    }
    for _ in 0..phase2 {
        let rel = if rng.next_below(ratio + 1) < ratio { 0 } else { 1 };
        out.push((rel, squall_common::tuple![rng.next_range(0, 1000)]));
    }
    out
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
    fn exactly_once_cross_product() {
        // With no join predicate (cross product), results must equal
        // n_r · n_s under both static and adaptive operation.
        let arrivals = drifting_stream(200, 800, 8, 3);
        let n_r = arrivals.iter().filter(|(r, _)| *r == 0).count() as u64;
        let n_s = arrivals.len() as u64 - n_r;
        for adaptive in [false, true] {
            let run = simulate(16, &arrivals, adaptive, 5);
            assert_eq!(run.results, n_r * n_s, "adaptive={adaptive}");
        }
    }

    #[test]
    fn adaptive_reshapes_static_does_not() {
        let arrivals = drifting_stream(200, 3000, 10, 4);
        let stat = simulate(16, &arrivals, false, 6);
        let adap = simulate(16, &arrivals, true, 6);
        assert_eq!(stat.reshapes, 0);
        assert!(adap.reshapes >= 1);
        assert!(adap.migrated > 0);
    }

    #[test]
    fn adaptive_improves_new_tuple_load_under_drift() {
        // Compare *arrival* loads (excluding migration, which is a one-off
        // cost): adaptive must beat the stale square shape.
        let arrivals = drifting_stream(100, 8000, 12, 7);
        let stat = simulate(16, &arrivals, false, 8);
        let adap = simulate(16, &arrivals, true, 8);
        assert!(
            (adap.max_load() as f64) < stat.max_load() as f64 * 0.85,
            "adaptive {} vs static {}",
            adap.max_load(),
            stat.max_load()
        );
    }

    #[test]
    fn balanced_stream_never_reshapes() {
        let arrivals = drifting_stream(4000, 0, 1, 9);
        let run = simulate(16, &arrivals, true, 10);
        assert_eq!(run.reshapes, 0);
        assert_eq!(run.migrated, 0);
    }
}
