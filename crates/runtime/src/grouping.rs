//! Stream groupings: how tuples flowing over one topology edge are routed
//! from a sender task to the tasks of the downstream node.
//!
//! These mirror Storm's built-in groupings (§2: "An edge in the topology
//! graph is called stream grouping, and it represents partitioning of
//! incoming tuples from a stream among the machines of a bolt") plus the
//! `Custom` escape hatch through which all of Squall's partitioning schemes
//! (1-Bucket, M-Bucket, EWH, the hypercube family) are installed.

use std::sync::Arc;

use squall_common::hash::{fx_hash, partition_of};
use squall_common::{SplitMix64, Value};

/// A routing decision: the set of target task indexes for one tuple.
/// Replication (the R in the paper's SAR principle) is expressed by
/// returning more than one target.
pub trait CustomGrouping: Send + Sync {
    /// Compute targets for `row`, the `seq`-th row emitted over this edge
    /// by `sender_task` (a `&Tuple` is a row). Implementations must be
    /// deterministic in `(sender_task, seq, row)` so that load measurements
    /// are exactly reproducible; "random" schemes derive their randomness
    /// from a seed and `(sender_task, seq)`.
    fn route(
        &self,
        sender_task: usize,
        seq: u64,
        row: &[Value],
        n_targets: usize,
        out: &mut Vec<usize>,
    );

    /// Human-readable name for plan explain output.
    fn name(&self) -> &str {
        "custom"
    }
}

/// Per-edge tuple routing policy.
#[derive(Clone)]
pub enum Grouping {
    /// Round-robin per sender: even load, content-insensitive.
    Shuffle,
    /// Hash on the given key columns (Storm's fields grouping) — the
    /// content-sensitive scheme that is cheap but skew-prone (§5).
    Fields(Vec<usize>),
    /// Replicate to every task (Storm's all grouping) — used to broadcast
    /// small relations (§3.2 star schema).
    All,
    /// Everything to task 0 (Storm's global grouping) — final aggregation.
    Global,
    /// A Squall partitioning scheme.
    Custom(Arc<dyn CustomGrouping>),
}

impl std::fmt::Debug for Grouping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Grouping::Shuffle => write!(f, "Shuffle"),
            Grouping::Fields(cols) => write!(f, "Fields({cols:?})"),
            Grouping::All => write!(f, "All"),
            Grouping::Global => write!(f, "Global"),
            Grouping::Custom(c) => write!(f, "Custom({})", c.name()),
        }
    }
}

impl Grouping {
    /// Route one row. `out` is cleared and filled with target tasks.
    #[inline]
    pub fn route(
        &self,
        sender_task: usize,
        seq: u64,
        row: &[Value],
        n_targets: usize,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        match self {
            Grouping::Shuffle => {
                // Round-robin offset by sender so senders interleave.
                out.push(((seq as usize) + sender_task) % n_targets);
            }
            Grouping::Fields(cols) => {
                let mut h = squall_common::hash::FxHasher::default();
                use std::hash::{Hash, Hasher};
                for &c in cols {
                    row[c].hash(&mut h);
                }
                out.push(partition_of(h.finish(), n_targets));
            }
            Grouping::All => out.extend(0..n_targets),
            Grouping::Global => out.push(0),
            Grouping::Custom(c) => c.route(sender_task, seq, row, n_targets, out),
        }
    }
}

/// Deterministic per-tuple randomness helper for "random" groupings:
/// a SplitMix64 stream keyed by `(seed, sender_task, seq)`.
#[inline]
pub fn tuple_rng(seed: u64, sender_task: usize, seq: u64) -> SplitMix64 {
    SplitMix64::new(fx_hash(&(seed, sender_task as u64, seq)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::tuple;

    #[test]
    fn shuffle_round_robins() {
        let g = Grouping::Shuffle;
        let t = tuple![1];
        let mut out = vec![];
        let mut seen = vec![0usize; 4];
        for seq in 0..400 {
            g.route(0, seq, &t, 4, &mut out);
            assert_eq!(out.len(), 1);
            seen[out[0]] += 1;
        }
        assert!(seen.iter().all(|&c| c == 100), "round robin must be exactly even: {seen:?}");
    }

    #[test]
    fn fields_is_key_deterministic() {
        let g = Grouping::Fields(vec![0]);
        let mut a = vec![];
        let mut b = vec![];
        g.route(0, 0, &tuple![42, "x"], 8, &mut a);
        g.route(3, 99, &tuple![42, "y"], 8, &mut b);
        assert_eq!(a, b, "same key must go to the same task regardless of sender/seq");
    }

    #[test]
    fn fields_spreads_keys() {
        let g = Grouping::Fields(vec![0]);
        let mut out = vec![];
        let mut seen = std::collections::HashSet::new();
        for k in 0..100i64 {
            g.route(0, 0, &tuple![k], 8, &mut out);
            seen.insert(out[0]);
        }
        assert!(seen.len() >= 7, "100 keys should hit almost all of 8 tasks");
    }

    #[test]
    fn all_broadcasts() {
        let g = Grouping::All;
        let mut out = vec![];
        g.route(0, 0, &tuple![1], 5, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn global_targets_task_zero() {
        let g = Grouping::Global;
        let mut out = vec![];
        g.route(2, 17, &tuple![1], 5, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn custom_grouping_plugs_in() {
        struct Evens;
        impl CustomGrouping for Evens {
            fn route(&self, _s: usize, _q: u64, row: &[Value], n: usize, out: &mut Vec<usize>) {
                let v = row[0].as_int().unwrap() as usize;
                out.push(v % n);
            }
        }
        let g = Grouping::Custom(Arc::new(Evens));
        let mut out = vec![];
        g.route(0, 0, &tuple![7], 4, &mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn tuple_rng_is_deterministic_and_varies() {
        let a = tuple_rng(1, 2, 3).next_u64();
        let b = tuple_rng(1, 2, 3).next_u64();
        assert_eq!(a, b);
        assert_ne!(tuple_rng(1, 2, 3).next_u64(), tuple_rng(1, 2, 4).next_u64());
        assert_ne!(tuple_rng(1, 2, 3).next_u64(), tuple_rng(2, 2, 3).next_u64());
    }
}
