//! Ordered and shuffled streams for the §5 temporal-skew ablation.

use squall_common::{SplitMix64, Tuple, Value};

/// A sorted-key stream: the temporal-skew workload (§5: "in the case of
/// sorted tuple arrival ... only one machine will be active at a time").
/// Keys 0..n_keys, each repeated `run_length` times, in ascending order.
pub fn sorted_stream(n_keys: usize, run_length: usize) -> Vec<Tuple> {
    (0..n_keys)
        .flat_map(|k| std::iter::repeat_n(k as i64, run_length))
        .map(|k| Tuple::new(vec![Value::Int(k)]))
        .collect()
}

/// The same multiset of keys in shuffled arrival order (temporal skew is
/// purely an ordering phenomenon).
pub fn shuffled_stream(n_keys: usize, run_length: usize, seed: u64) -> Vec<Tuple> {
    let mut v = sorted_stream(n_keys, run_length);
    SplitMix64::new(seed).shuffle(&mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_stream_is_sorted() {
        let s = sorted_stream(10, 5);
        assert_eq!(s.len(), 50);
        for w in s.windows(2) {
            assert!(w[0].get(0) <= w[1].get(0));
        }
    }

    #[test]
    fn shuffled_preserves_multiset() {
        let a = sorted_stream(20, 3);
        let mut b = shuffled_stream(20, 3, 5);
        assert_ne!(a, b, "order must differ");
        b.sort();
        assert_eq!(a, b);
    }
}
