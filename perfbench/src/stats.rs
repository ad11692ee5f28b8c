//! Order statistics for the runner: medians and quartiles (never best-of),
//! and the highest percentile a sample can support.

/// `values` sorted ascending. Panics on NaN: every value is a measured
/// time or a count.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method), so `--aa` prints the spreads the
/// acceptance driver will compute. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let m = data.len();
    assert!(m >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile range as a share of the median.
pub fn rel_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

/// The highest conventional percentile that still has at least ten of `n`
/// samples beyond it, as a fraction; `None` when even the median has not
/// (`n < 20`).
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90, 0.75, 0.50].into_iter().find(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn single_sample() {
        assert_eq!(median(&ramp(1)), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(tail_percentile(1), None);
    }

    #[test]
    fn ten_samples() {
        let v = ramp(10);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert!((rel_iqr(&v) - 1.0).abs() < 1e-12);
        assert_eq!(tail_percentile(10), None, "no percentile has ten samples beyond it");
    }

    #[test]
    fn two_hundred_samples() {
        let v = ramp(200);
        assert_eq!(median(&v), 100.5);
        // statistics.quantiles(range(1, 201), n=4) == [50.25, 100.5, 150.75]
        assert_eq!(quartiles(&v), (50.25, 100.5, 150.75));
        assert_eq!(tail_percentile(200), Some(0.95), "p95 leaves exactly ten beyond");
        let p95 = quantile(&sorted(&v), 0.95);
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn two_thousand_samples() {
        let v = ramp(2000);
        assert_eq!(median(&v), 1000.5);
        assert_eq!(tail_percentile(2000), Some(0.99), "p99.9 would leave only two beyond");
        let p99 = quantile(&sorted(&v), 0.99);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 20);
    }

    #[test]
    fn odd_length_quartiles_match_python() {
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }
}
