//! The two §5 skews no key distribution explains, read by ablations A1
//! and A2.
//!
//! **Hash-imperfection skew (A1).** When the number of distinct GROUP
//! BY/join keys `d` is close to the parallelism `p`, a hash function very
//! likely assigns ⌈d/p⌉+1 keys to some machine (and leaves others idle),
//! e.g. TPC-H Q4/Q12/Q5 final aggregations with 5/7/25 distinct values.
//! When the distinct values are known up front ("possible values for ship
//! priorities are predefined"), Squall assigns them round-robin before
//! execution starts, so no two machines differ by more than one key:
//! [`KeyMapGrouping`].
//!
//! **Temporal skew (A2)** is load imbalance caused by the tuple *arrival
//! order* rather than the key distribution: under hash or range
//! partitioning, a sorted stream activates one machine at a time
//! ("equivalent to a sequential execution"), even when the overall key
//! distribution is uniform. Content-insensitive (random) schemes are
//! immune. The measurable signature is the number of *distinct machines
//! active in a window of consecutive tuples*: ≈1 for a sorted stream under
//! hash partitioning, ≈min(window, p) under random partitioning —
//! [`mean_active_machines`] computes that profile for any grouping over any
//! stream.

use squall_common::hash::{fx_hash, partition_of};
use squall_common::{FxHashMap, Tuple, Value};
use squall_runtime::{CustomGrouping, Grouping};

/// An optimal predefined-key grouping: key *i* (in the given order) is
/// owned by machine `i % p`. Unknown keys fall back to hashing, so the
/// grouping stays total.
pub struct KeyMapGrouping {
    column: usize,
    map: FxHashMap<Value, usize>,
}

impl KeyMapGrouping {
    /// Build from the predefined distinct keys of `column`.
    pub fn new(
        column: usize,
        keys: impl IntoIterator<Item = Value>,
        machines: usize,
    ) -> KeyMapGrouping {
        assert!(machines > 0);
        let map = keys.into_iter().enumerate().map(|(i, k)| (k, i % machines)).collect();
        KeyMapGrouping { column, map }
    }

    /// Keys mapped to each of `machines` machines: ⌈d/p⌉ on the fullest and
    /// ⌊d/p⌋ on the emptiest for `d` keys by construction (the §5 optimum).
    pub fn keys_per_machine(&self, machines: usize) -> Vec<usize> {
        let mut counts = vec![0usize; machines];
        for &m in self.map.values() {
            counts[m] += 1;
        }
        counts
    }
}

impl CustomGrouping for KeyMapGrouping {
    fn route(
        &self,
        _sender: usize,
        _seq: u64,
        row: &[Value],
        n_targets: usize,
        out: &mut Vec<usize>,
    ) {
        let key = &row[self.column];
        let m = match self.map.get(key) {
            Some(&m) => m % n_targets,
            None => partition_of(fx_hash(key), n_targets),
        };
        out.push(m);
    }

    fn name(&self) -> &str {
        "key-map"
    }
}

/// The expected *hash-assignment* imbalance the key map avoids: assign `d`
/// keys to `p` machines by hashing and report `max_keys_per_machine`.
/// Useful for the §5 ablation ("it is very likely that some machine is
/// assigned 3 keys" for d=15, p=8).
pub fn hash_assignment_max_keys(keys: impl IntoIterator<Item = Value>, machines: usize) -> usize {
    let mut counts = vec![0usize; machines];
    for k in keys {
        counts[partition_of(fx_hash(&k), machines)] += 1;
    }
    counts.into_iter().max().unwrap_or(0)
}

/// Distinct target machines per window of `window` consecutive tuples.
pub fn active_machines_profile(
    targets: impl IntoIterator<Item = usize>,
    window: usize,
) -> Vec<usize> {
    assert!(window > 0);
    let mut profile = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let mut n = 0usize;
    for t in targets {
        if !current.contains(&t) {
            current.push(t);
        }
        n += 1;
        if n == window {
            profile.push(current.len());
            current.clear();
            n = 0;
        }
    }
    if n > 0 {
        profile.push(current.len());
    }
    profile
}

/// Mean of the active-machine profile — the paper's indirect measure of
/// temporal skew ("we also need to capture the temporal skew, which we can
/// do indirectly by monitoring the machine load").
pub fn mean_active_machines(
    grouping: &Grouping,
    tuples: impl IntoIterator<Item = Tuple>,
    machines: usize,
    window: usize,
) -> f64 {
    let mut scratch = Vec::new();
    let mut targets = Vec::new();
    for (seq, t) in tuples.into_iter().enumerate() {
        grouping.route(0, seq as u64, &t, machines, &mut scratch);
        // For replicated routings, count the first (primary) target; the
        // temporal-skew question is about where *work* concentrates.
        targets.extend(scratch.iter().copied());
    }
    let profile = active_machines_profile(targets, window);
    if profile.is_empty() {
        0.0
    } else {
        profile.iter().sum::<usize>() as f64 / profile.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::tuple;

    #[test]
    fn round_robin_is_within_one() {
        for (d, p) in [(5usize, 8usize), (7, 8), (15, 8), (25, 8), (8, 8), (9, 8)] {
            let counts =
                KeyMapGrouping::new(0, (0..d as i64).map(Value::Int), p).keys_per_machine(p);
            assert_eq!(counts.iter().max(), Some(&d.div_ceil(p)), "d={d}, p={p}");
            assert_eq!(counts.iter().min(), Some(&(d / p)), "d={d}, p={p}");
        }
    }

    #[test]
    fn exact_multiple_is_perfectly_even() {
        let g = KeyMapGrouping::new(0, (0..16i64).map(Value::Int), 8);
        assert_eq!(g.keys_per_machine(8), vec![2; 8]);
    }

    #[test]
    fn routes_known_keys_deterministically() {
        let g = KeyMapGrouping::new(0, (0..5i64).map(Value::Int), 8);
        let mut out = vec![];
        g.route(0, 0, &tuple![3], 8, &mut out);
        assert_eq!(out, vec![3]);
        out.clear();
        g.route(9, 99, &tuple![3], 8, &mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn unknown_keys_fall_back_to_hash() {
        let g = KeyMapGrouping::new(0, (0..5i64).map(Value::Int), 8);
        let mut out = vec![];
        g.route(0, 0, &tuple![12345], 8, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0] < 8);
    }

    #[test]
    fn d_equals_p_keeps_every_machine_busy() {
        // §5: "the performance gap deepens for d = p, as it becomes very
        // likely that one machine is assigned 2 keys (keeping another
        // machine completely idle)". Round-robin assigns exactly 1 key per
        // machine.
        let p = 8;
        let g = KeyMapGrouping::new(0, (0..8i64).map(Value::Int), p);
        let mut seen = vec![false; p];
        let mut out = vec![];
        for k in 0..8i64 {
            out.clear();
            g.route(0, 0, &tuple![k], p, &mut out);
            seen[out[0]] = true;
        }
        assert!(seen.iter().all(|&s| s), "no machine idle under the key map");
    }

    #[test]
    fn hash_assignment_is_usually_worse() {
        // Not a tautology — but across many small domains, hashing
        // overloads some machine at least once while round-robin never
        // does. (We check a d=p domain where hashing is near-certain to
        // collide.)
        let worst = (0..20)
            .map(|shift| {
                hash_assignment_max_keys((shift * 100..shift * 100 + 8).map(Value::Int), 8)
            })
            .max()
            .unwrap();
        assert!(worst >= 2, "hash assignment should collide for some d=p domain");
    }

    /// A sorted stream: key increases slowly (run length 100), the §5
    /// "sorted tuple arrival and moderate join key frequencies" case.
    fn sorted_stream(n: usize) -> Vec<Tuple> {
        (0..n).map(|i| tuple![(i / 100) as i64]).collect()
    }

    #[test]
    fn profile_basic() {
        assert_eq!(active_machines_profile([0, 0, 1, 1, 2, 2], 2), vec![1, 1, 1]);
        assert_eq!(active_machines_profile([0, 1, 2, 3], 4), vec![4]);
        assert_eq!(active_machines_profile([0, 1, 0], 2), vec![2, 1]);
        assert_eq!(active_machines_profile(Vec::<usize>::new(), 3), Vec::<usize>::new());
    }

    #[test]
    fn sorted_stream_under_hash_is_sequential() {
        // §5: "for hash partitioning, in the case of sorted tuple arrival
        // ... only one machine will be active at a time."
        let mean = mean_active_machines(&Grouping::Fields(vec![0]), sorted_stream(10_000), 8, 50);
        assert!(mean < 1.6, "hash on sorted arrival should be ~sequential, got {mean}");
    }

    #[test]
    fn sorted_stream_under_shuffle_uses_all_machines() {
        // Content-insensitive schemes "perform the same independently of
        // tuple arrival order".
        let mean = mean_active_machines(&Grouping::Shuffle, sorted_stream(10_000), 8, 50);
        assert!(mean > 7.5, "shuffle should keep all 8 machines active, got {mean}");
    }

    #[test]
    fn random_stream_under_hash_is_fine() {
        // Temporal skew is an *ordering* problem: the same keys shuffled
        // keep all machines busy under hash partitioning too.
        let mut tuples = sorted_stream(10_000);
        let mut rng = squall_common::SplitMix64::new(3);
        rng.shuffle(&mut tuples);
        let mean = mean_active_machines(&Grouping::Fields(vec![0]), tuples, 8, 50);
        assert!(mean > 5.0, "shuffled arrival removes temporal skew, got {mean}");
    }
}
