//! Zipfian sampling.
//!
//! The paper's skewed workloads all use zipf distributions ("zipfian
//! distribution ... appears in Internet packet traces, city sizes, word
//! frequency ... and advertisement clickstreams", §1; TPC-H is skewed with
//! "zipfian distribution and skew factor of 2", §7.3). This sampler draws
//! rank `k ∈ {1..n}` with probability proportional to `1/k^θ`.
//!
//! For the moderate domains used in a laptop-scale reproduction (n up to a
//! few million) an exact inverse-CDF table with binary search is simple,
//! exact and fast to build; for larger n the constructor cost is O(n) once.

use crate::rng::SplitMix64;

/// Exact zipf(θ) sampler over `{0, 1, .., n-1}` (rank 0 is the most
/// frequent key).
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative distribution; `cdf[k]` = P(rank <= k).
    cdf: Vec<f64>,
    theta: f64,
}

impl Zipf {
    /// Build a sampler for `n` keys with exponent `theta >= 0`.
    /// `theta = 0` degenerates to the uniform distribution.
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "zipf domain must be non-empty");
        assert!(theta >= 0.0, "zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against FP round-off: the last entry must be exactly 1.
        *cdf.last_mut().unwrap() = 1.0;
        Zipf { cdf, theta }
    }

    /// Number of distinct keys.
    pub fn domain(&self) -> usize {
        self.cdf.len()
    }

    /// The skew exponent.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draw a rank in `[0, n)`; rank 0 is the hottest key.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        // First index whose cdf >= u.
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of a rank (0-based).
    #[cfg(test)]
    fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }

    /// The frequency of the most popular key — the `L_mf` input of the
    /// scheme-choice cost model (§3.4).
    pub fn top_frequency(&self) -> f64 {
        self.cdf[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 2.0);
        let sum: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_dominates_at_theta_two() {
        // With θ=2, P(rank 0) = 1/ζ_n(2) ≈ 1/1.6449 ≈ 0.61 for large n —
        // the paper's "skew factor of 2" setting concentrates most of the
        // mass on the hottest key.
        let z = Zipf::new(10_000, 2.0);
        assert!(z.top_frequency() > 0.6, "top freq {}", z.top_frequency());
    }

    #[test]
    fn samples_match_pmf() {
        let z = Zipf::new(50, 1.0);
        let mut rng = SplitMix64::new(123);
        let n = 200_000;
        let mut counts = vec![0usize; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        // Hot keys must come out in roughly pmf proportion.
        for (k, &count) in counts.iter().enumerate().take(5) {
            let emp = count as f64 / n as f64;
            let exp = z.pmf(k);
            assert!((emp - exp).abs() / exp < 0.05, "rank {k}: emp {emp} vs exp {exp}");
        }
        // Monotone non-increasing counts on average for leading ranks.
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
    }

    #[test]
    fn sample_in_range() {
        let z = Zipf::new(3, 1.5);
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic]
    fn empty_domain_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
