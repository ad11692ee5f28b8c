//! Run-time statistics for partitioning decisions.
//!
//! The Hybrid-Hypercube only needs to know whether each join key is
//! skew-free (§3.4); this module decides that from a sample of the key
//! column. The planner's samples are bounded (the launch-time probe takes
//! 20 000 rows, `Session::analyze` 10 000), so the counts are exact: one
//! pass holding one counter per sampled key. A heavy-hitter sketch would
//! save nothing at that size and would overestimate the hottest key.
//!
//! * [`SkewEstimate`] — the top-frequency + distinct-count summary feeding
//!   the §3.4 cost comparison `(L − L_mf)/p + L_mf` vs `L/p`;
//! * [`ColumnStats`] — the same counts scaled to the full relation, the
//!   planner's cardinality input.

use squall_common::{FxHashMap, SplitMix64, Tuple, Value};

/// Skew summary of one attribute, built from a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewEstimate {
    /// Share of the hottest key.
    pub top_frequency: f64,
    /// Distinct keys in the sample.
    pub distinct: usize,
    /// Sample size.
    pub sample_size: u64,
}

impl SkewEstimate {
    /// Summarize a value sample in one exact counting pass. Keys are
    /// borrowed from the sample, so no value is cloned.
    pub fn from_sample<'a>(values: impl IntoIterator<Item = &'a Value>) -> SkewEstimate {
        let mut counts: FxHashMap<&Value, u64> = FxHashMap::default();
        let (mut n, mut top) = (0u64, 0u64);
        for v in values {
            let c = counts.entry(v).or_insert(0);
            *c += 1;
            top = top.max(*c);
            n += 1;
        }
        SkewEstimate {
            top_frequency: if n == 0 { 0.0 } else { top as f64 / n as f64 },
            distinct: counts.len(),
            sample_size: n,
        }
    }

    /// §3.4 offline chooser: estimated max load per machine under hash
    /// partitioning, `(L − L_mf)/p + L_mf`, normalized by `L` (so the
    /// result is the *fraction* of the relation on the hottest machine).
    fn hash_load_fraction(&self, machines: usize) -> f64 {
        let f = self.top_frequency;
        // Fewer distinct keys than machines leaves machines idle: the
        // effective parallelism is the distinct count.
        let p = machines.min(self.distinct.max(1)) as f64;
        ((1.0 - f) / p + f).min(1.0)
    }

    /// Max-load fraction under random partitioning: `1/p`.
    fn random_load_fraction(&self, machines: usize) -> f64 {
        1.0 / machines as f64
    }

    /// Should this attribute be marked skewed (forcing random
    /// partitioning)? `slack` is the tolerated hash-over-random ratio
    /// (random also costs replication elsewhere, so hash gets the benefit
    /// of the doubt up to `1 + slack`).
    pub fn is_skewed(&self, machines: usize, slack: f64) -> bool {
        self.hash_load_fraction(machines) > self.random_load_fraction(machines) * (1.0 + slack)
    }
}

/// Sampling-based statistics of one column, scaled to the full relation —
/// the cardinality/selectivity inputs of the planner's join-order DP
/// (`squall-plan::optimizer`).
///
/// Collected by [`collect_table_stats`] (the engine of `Session::analyze`):
/// the distinct count is estimated by inverting the expected
/// distinct-in-sample curve `E[d] = D·(1 − (1 − 1/D)^s)` of a uniform
/// domain (exact when the sample covers the relation), and the top-key
/// frequency is the sample's, counted exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Estimated distinct values in the *full* relation (exact when the
    /// sample is the full relation).
    pub distinct: u64,
    /// Estimated share of the most frequent key (the §3.4 `L_mf/L`).
    pub top_frequency: f64,
    /// Rows actually sampled.
    pub sample_size: u64,
    /// Rows in the full relation.
    pub total_rows: u64,
}

impl ColumnStats {
    /// Summarize one column sample drawn from a relation of `total_rows`.
    pub fn from_sample<'a>(
        values: impl IntoIterator<Item = &'a Value>,
        total_rows: u64,
    ) -> ColumnStats {
        let sample = SkewEstimate::from_sample(values);
        ColumnStats {
            distinct: estimate_distinct(sample.distinct as u64, sample.sample_size, total_rows),
            top_frequency: sample.top_frequency,
            sample_size: sample.sample_size,
            total_rows,
        }
    }

    /// Equi-join selectivity contribution of this column under the
    /// classic uniform assumption: `1 / distinct`.
    pub fn selectivity(&self) -> f64 {
        1.0 / self.distinct.max(1) as f64
    }

    /// Bridge into the §3.4 skew chooser.
    pub fn skew(&self) -> SkewEstimate {
        SkewEstimate {
            top_frequency: self.top_frequency,
            distinct: usize::try_from(self.distinct).unwrap_or(usize::MAX),
            sample_size: self.sample_size,
        }
    }
}

/// Sampling-based statistics of one relation: row count plus per-column
/// [`ColumnStats`] (in the relation's original column order).
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Exact row count at collection time.
    pub rows: u64,
    /// Rows sampled per column.
    pub sample_size: u64,
    /// One entry per column of the relation's schema.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Stats for column `c`, if collected.
    pub fn column(&self, c: usize) -> Option<&ColumnStats> {
        self.columns.get(c)
    }
}

/// Collect [`TableStats`] over `rows` with at most `sample_cap` sampled
/// rows per column. Deterministic: the same rows, cap and seed produce the
/// same sample (a seeded uniform row filter — deliberately not systematic
/// striding, which aliases with periodic data). A relation at or under the
/// cap is scanned fully, making every estimate exact.
pub fn collect_table_stats(
    rows: &[Tuple],
    arity: usize,
    sample_cap: usize,
    seed: u64,
) -> TableStats {
    let n = rows.len();
    let sample: Vec<&Tuple> = if n <= sample_cap || sample_cap == 0 {
        rows.iter().collect()
    } else {
        let mut rng = SplitMix64::new(seed ^ 0x5157_ab1e);
        rows.iter().filter(|_| rng.next_below(n) < sample_cap).collect()
    };
    let columns = (0..arity)
        .map(|c| ColumnStats::from_sample(sample.iter().map(|t| t.get(c)), n as u64))
        .collect();
    TableStats { rows: n as u64, sample_size: sample.len() as u64, columns }
}

/// Scale a sample's distinct count `d_s` (out of `s` sampled rows) to a
/// relation of `n` rows by inverting the expected-distinct curve of a
/// uniform domain, `E[d] = D·(1 − (1 − 1/D)^s)`, which is monotonically
/// increasing in `D`. A sample with no repeats carries no curvature to
/// invert — fall back to linear extrapolation, capped at `n`.
fn estimate_distinct(d_s: u64, s: u64, n: u64) -> u64 {
    if s == 0 || d_s == 0 {
        return 0;
    }
    if s >= n {
        return d_s; // full scan: exact
    }
    if d_s >= s {
        return (((d_s as f64) * (n as f64) / (s as f64)).round() as u64).min(n);
    }
    let target = d_s as f64;
    let s = s as f64;
    let expected = |d: f64| d * (1.0 - (1.0 - 1.0 / d).powf(s));
    let (mut lo, mut hi) = (d_s as f64, n as f64);
    if expected(hi) < target {
        return n; // even n distinct values would show fewer: saturate
    }
    for _ in 0..64 {
        let mid = (lo + hi) / 2.0;
        if expected(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (hi.round() as u64).clamp(d_s, n)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use squall_common::{tuple, SplitMix64, Zipf};

    /// A seeded sample mixing ints, integral floats equal to some of them,
    /// strings and NULLs over a seed-dependent domain.
    fn mixed_sample(seed: u64, n: usize) -> Vec<Value> {
        let mut rng = SplitMix64::new(seed);
        let domain = 1 + seed as usize % 60;
        (0..n)
            .map(|_| {
                let k = rng.next_below(domain) as i64;
                match rng.next_below(5) {
                    0 | 1 => Value::Int(k),
                    2 => Value::Float(k as f64),
                    3 => Value::str(format!("s{k}")),
                    _ => Value::Null,
                }
            })
            .collect()
    }

    /// Brute force by ordered map: (distinct keys, the hottest key's count).
    fn brute_counts(values: &[Value]) -> (usize, u64) {
        let mut counts: BTreeMap<&Value, u64> = BTreeMap::new();
        for v in values {
            *counts.entry(v).or_default() += 1;
        }
        (counts.len(), counts.values().copied().max().unwrap_or(0))
    }

    #[test]
    fn skew_estimate_counts_exactly() {
        let one = SkewEstimate::from_sample([Value::Int(3), Value::Float(3.0)].iter());
        assert_eq!((one.distinct, one.top_frequency), (1, 1.0), "Int(3) = Float(3.0): one key");
        let empty = SkewEstimate::from_sample([].iter());
        assert_eq!((empty.distinct, empty.top_frequency, empty.sample_size), (0, 0.0, 0));
        for seed in 0..100 {
            let values = mixed_sample(seed, 1 + seed as usize * 53);
            let (distinct, top) = brute_counts(&values);
            let est = SkewEstimate::from_sample(values.iter());
            assert_eq!(est.distinct, distinct, "seed {seed}");
            assert_eq!(est.top_frequency, top as f64 / values.len() as f64, "seed {seed}");
            assert_eq!(est.sample_size, values.len() as u64, "seed {seed}");
        }
    }

    #[test]
    fn column_stats_are_exact_when_the_sample_is_the_table() {
        for seed in 0..30 {
            let values = mixed_sample(seed, 200 + seed as usize * 97);
            let (distinct, top) = brute_counts(&values);
            let rows: Vec<Tuple> = values.iter().map(|v| Tuple::new(vec![v.clone()])).collect();
            let n = rows.len() as u64;
            let st = collect_table_stats(&rows, 1, rows.len(), seed);
            let cs = &st.columns[0];
            assert_eq!((st.sample_size, cs.sample_size, cs.total_rows), (n, n, n), "seed {seed}");
            assert_eq!(cs.distinct, distinct as u64, "seed {seed}");
            assert_eq!(cs.top_frequency, top as f64 / n as f64, "seed {seed}");
        }
    }

    #[test]
    fn zipf_two_is_detected_as_skewed() {
        // The paper's workloads use zipf(2): top key ≈ 0.6 of the stream.
        let z = Zipf::new(100_000, 2.0);
        let mut rng = SplitMix64::new(9);
        let values: Vec<Value> =
            (0..30_000).map(|_| Value::Int(z.sample(&mut rng) as i64)).collect();
        let est = SkewEstimate::from_sample(values.iter());
        assert!(est.top_frequency > 0.5);
        assert!(est.is_skewed(8, 0.5));
        assert!(est.is_skewed(100, 0.5));
    }

    #[test]
    fn uniform_is_not_skewed() {
        // The launch-time probe's sample size. A top-256 sketch would
        // overestimate the hottest count by up to n/256 here — enough to
        // flag these keys skewed from 128 machines up.
        let mut rng = SplitMix64::new(9);
        let values: Vec<Value> =
            (0..20_000).map(|_| Value::Int(rng.next_below(100_000) as i64)).collect();
        let est = SkewEstimate::from_sample(values.iter());
        assert!(est.top_frequency < 0.01);
        for p in [8, 128, 256, 1024] {
            assert!(!est.is_skewed(p, 0.5), "uniform keys flagged skewed on {p} machines");
        }
    }

    #[test]
    fn small_domain_counts_as_skewed_via_idle_machines() {
        // 5 distinct keys on 64 machines: hash load fraction ≥ 1/5 ≫ 1/64.
        let values: Vec<Value> = (0..1000).map(|i| Value::Int(i % 5)).collect();
        let est = SkewEstimate::from_sample(values.iter());
        assert_eq!(est.distinct, 5);
        assert!(est.hash_load_fraction(64) >= 0.2);
        assert!(est.is_skewed(64, 0.5));
        // Even on 4 machines, 5 keys force one machine to own 2 of 5 keys
        // (0.4 of the load vs 0.25 random): still skewed.
        assert!(est.is_skewed(4, 0.5));
        // A 40-key domain on 4 machines is fine.
        let wide: Vec<Value> = (0..1000).map(|i| Value::Int(i % 40)).collect();
        let est2 = SkewEstimate::from_sample(wide.iter());
        assert!(!est2.is_skewed(4, 0.5));
    }

    #[test]
    fn cost_model_matches_paper_formula() {
        // (L − L_mf)/p + L_mf with L normalized to 1.
        let est = SkewEstimate { top_frequency: 0.3, distinct: 1_000_000, sample_size: 1000 };
        let expected = (1.0 - 0.3) / 10.0 + 0.3;
        assert!((est.hash_load_fraction(10) - expected).abs() < 1e-12);
    }

    #[test]
    fn table_stats_exact_under_sample_cap() {
        // At or under the cap the whole relation is scanned: row count,
        // distinct count and top frequency are exact.
        let rows: Vec<Tuple> = (0..500).map(|i| tuple![i % 50, 7]).collect();
        let st = collect_table_stats(&rows, 2, 1_000, 42);
        assert_eq!(st.rows, 500);
        assert_eq!(st.sample_size, 500);
        assert_eq!(st.columns[0].distinct, 50);
        assert!((st.columns[0].top_frequency - 10.0 / 500.0).abs() < 1e-12);
        assert_eq!(st.columns[1].distinct, 1);
        assert!((st.columns[1].top_frequency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_estimates_stay_within_error_bound() {
        // The documented estimator bound this suite pins: on a uniform
        // domain with a known hot key, a 20% sample keeps the distinct
        // estimate within ±15% relative error and the top-frequency
        // estimate within ±0.05 absolute. A regression past these bounds
        // means the DP would be fed junk cardinalities — fail loudly.
        let mut rng = SplitMix64::new(11);
        let n = 40_000u64;
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                let uniform = rng.next_below(2_000) as i64;
                let hot = if rng.next_f64() < 0.5 { 0 } else { 1 + rng.next_below(10_000) as i64 };
                tuple![uniform, hot]
            })
            .collect();
        let true_distinct: std::collections::HashSet<i64> =
            rows.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        let st = collect_table_stats(&rows, 2, 8_000, 99);
        assert!(st.sample_size < n, "must actually sample, got {}", st.sample_size);
        let est = st.columns[0].distinct as f64;
        let truth = true_distinct.len() as f64;
        assert!(
            (est - truth).abs() / truth < 0.15,
            "distinct estimate {est} vs true {truth} exceeds 15% relative error"
        );
        let f = st.columns[1].top_frequency;
        assert!((f - 0.5).abs() < 0.05, "top-frequency estimate {f} vs true 0.5");
    }

    #[test]
    fn sampling_is_deterministic_and_seed_sensitive() {
        let rows: Vec<Tuple> = (0..10_000).map(|i| tuple![i]).collect();
        let a = collect_table_stats(&rows, 1, 1_000, 7);
        let b = collect_table_stats(&rows, 1, 1_000, 7);
        assert_eq!(a, b, "same seed, same sample, same estimates");
        let c = collect_table_stats(&rows, 1, 1_000, 8);
        assert_ne!(a.sample_size, 0);
        // A different seed may draw a different sample size; either way the
        // estimates must stay in the documented bound.
        assert!((c.columns[0].distinct as f64 - 10_000.0).abs() / 10_000.0 < 0.15);
    }

    #[test]
    fn distinct_inversion_handles_degenerate_inputs() {
        assert_eq!(estimate_distinct(0, 0, 100), 0);
        assert_eq!(estimate_distinct(10, 10, 10), 10, "full scan is exact");
        assert_eq!(estimate_distinct(10, 10, 1000), 1000, "no repeats: linear scale, capped");
        assert!(estimate_distinct(5, 100, 1000) >= 5);
        assert!(estimate_distinct(5, 100, 1000) <= 10, "heavy repeats: stays near sample distinct");
    }
}
