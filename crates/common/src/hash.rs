//! Fast, non-cryptographic hashing.
//!
//! Hashing is on the hot path of every partitioning scheme and every local
//! join index, so Squall uses an Fx-style multiplicative hash (the algorithm
//! popularized by rustc's `FxHasher`) instead of the standard library's
//! SipHash. HashDoS resistance is irrelevant here: keys come from the user's
//! own data and the engine is not a network-facing service.

use std::hash::{BuildHasherDefault, Hash, Hasher};

const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// An Fx-style hasher: `state = (state.rotate_left(5) ^ word) * SEED`.
///
/// Extremely fast for the short integer/string keys used as join keys, at
/// the cost of lower hash quality than SipHash — a trade the Rust compiler
/// itself makes, and the same trade the paper makes by using Trove's
/// primitive collections (§3.3).
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Mix in the length so "a" and "a\0" differ.
            word[7] = rest.len() as u8;
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add_word(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` replacement with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` replacement with the fast hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Hash any `Hash` value to a `u64` with the Fx hasher.
#[inline]
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Map a hash to one of `n` partitions.
///
/// Uses the widening-multiply trick (Lemire) instead of `% n`: unbiased
/// enough for partitioning and avoids an integer division on the hot path.
#[inline]
pub fn partition_of(hash: u64, n: usize) -> usize {
    debug_assert!(n > 0, "partition count must be positive");
    (((hash as u128) * (n as u128)) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(fx_hash(&42u64), fx_hash(&42u64));
        assert_eq!(fx_hash("hello"), fx_hash("hello"));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(fx_hash(&1u64), fx_hash(&2u64));
        assert_ne!(fx_hash("a"), fx_hash("b"));
        // Length mixing: a prefix plus NULs must not collide with the prefix.
        assert_ne!(fx_hash("a".as_bytes()), fx_hash("a\0".as_bytes()));
    }

    #[test]
    fn partition_of_in_range_and_covers() {
        let n = 7;
        let mut seen = vec![false; n];
        for i in 0..10_000u64 {
            let p = partition_of(fx_hash(&i), n);
            assert!(p < n);
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s), "all partitions should be hit");
    }

    #[test]
    fn partition_of_single() {
        assert_eq!(partition_of(u64::MAX, 1), 0);
        assert_eq!(partition_of(0, 1), 0);
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let n = 16;
        let trials = 160_000u64;
        let mut counts = vec![0usize; n];
        for i in 0..trials {
            counts[partition_of(fx_hash(&i), n)] += 1;
        }
        let expected = trials as f64 / n as f64;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "partition count {c} deviates {dev} from {expected}");
        }
    }

    #[test]
    fn fx_map_works() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&50), Some(&100));
        assert_eq!(m.len(), 100);
    }
}
