//! Per-task load accounting.
//!
//! The paper's evaluation quantities are all functions of per-task tuple
//! counts (§6, §7.3):
//!
//! * **load per machine** — tuples received by a task (Table 1);
//! * **skew degree** — max partition size ÷ average partition size;
//! * **replication factor** — a component's input tuples ÷ the tuples
//!   produced by its immediate upstream components (Table 2);
//! * **intermediate network factor** — Σ(task input+output) ÷ (query input
//!   + query output).
//!
//! Counters are atomics updated lock-free on the hot path and snapshotted
//! into plain data once a run finishes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use squall_common::{Result, SquallError};

use crate::message::NodeId;

/// Live counters for one task.
#[derive(Debug, Default)]
pub struct TaskCounters {
    /// Data tuples received on the input channel.
    pub received: AtomicU64,
    /// Data tuple deliveries sent downstream (one per target task, so a
    /// broadcast of one tuple to 8 tasks counts 8 — this is what the wire
    /// would carry, and what replication measures).
    pub sent: AtomicU64,
    /// Tuples emitted by the task's user logic before routing: one per
    /// `emit` / `emit_row` call, and `folded` per `emit_folded` call — a
    /// row standing for that many (a join task's partial aggregate counts
    /// as the join results it folds).
    pub emitted: AtomicU64,
}

/// Live counters of the cooperative scheduler (one set per running
/// topology). These observe *scheduling* behaviour — queue pressure, work
/// distribution — rather than the paper's data-plane quantities, and are
/// what skew experiments watch to see the pool react to imbalance.
#[derive(Debug, Default)]
pub struct SchedCounters {
    /// Worker threads in the pool.
    pub workers: AtomicU64,
    /// Tasks taken from another worker's deque.
    pub steals: AtomicU64,
    /// Polls that ended because the task exhausted its cooperative budget
    /// (the task was still runnable and was re-queued).
    pub yields: AtomicU64,
    /// Polls that ended because a downstream inbox was over capacity (the
    /// backpressure-by-yield path: the task parked until the consumer
    /// drained).
    pub blocked: AtomicU64,
    /// Deepest any task inbox ever got, in messages.
    pub max_queue_depth: AtomicU64,
}

impl SchedCounters {
    pub fn snapshot(&self) -> SchedulerStats {
        SchedulerStats {
            workers: self.workers.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            yields: self.yields.load(Ordering::Relaxed),
            blocked: self.blocked.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
        }
    }
}

/// Frozen scheduler counters for one run. `steals`/`yields`/`blocked` are
/// scheduling artifacts and (unlike the per-task loads) not deterministic
/// across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    pub workers: u64,
    pub steals: u64,
    pub yields: u64,
    pub blocked: u64,
    pub max_queue_depth: u64,
}

squall_common::wire_struct! { SchedulerStats { workers, steals, yields, blocked, max_queue_depth } }

/// Live metrics registry shared by all tasks of a running topology.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// `per_node[node][task]`.
    per_node: Vec<Vec<Arc<TaskCounters>>>,
    names: Vec<String>,
    sched: Arc<SchedCounters>,
}

impl MetricsRegistry {
    pub fn new(names: Vec<String>, parallelism: &[usize]) -> MetricsRegistry {
        let per_node = parallelism
            .iter()
            .map(|&p| (0..p).map(|_| Arc::new(TaskCounters::default())).collect())
            .collect();
        MetricsRegistry { per_node, names, sched: Arc::new(SchedCounters::default()) }
    }

    pub fn task(&self, node: NodeId, task: usize) -> Arc<TaskCounters> {
        Arc::clone(&self.per_node[node][task])
    }

    /// The scheduler's counter set (shared with the worker pool).
    pub fn sched(&self) -> Arc<SchedCounters> {
        Arc::clone(&self.sched)
    }

    /// Freeze the counters into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            nodes: self
                .per_node
                .iter()
                .enumerate()
                .map(|(i, tasks)| NodeMetrics {
                    node: i,
                    name: self.names[i].clone(),
                    received: tasks.iter().map(|t| t.received.load(Ordering::Relaxed)).collect(),
                    sent: tasks.iter().map(|t| t.sent.load(Ordering::Relaxed)).collect(),
                    emitted: tasks.iter().map(|t| t.emitted.load(Ordering::Relaxed)).collect(),
                })
                .collect(),
            scheduler: self.sched.snapshot(),
        }
    }
}

/// Frozen per-task counts for one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMetrics {
    pub node: NodeId,
    pub name: String,
    pub received: Vec<u64>,
    pub sent: Vec<u64>,
    pub emitted: Vec<u64>,
}

squall_common::wire_struct! { NodeMetrics { node, name, received, sent, emitted } }

impl NodeMetrics {
    /// Maximum load per machine (Table 1, "Maximum").
    pub fn max_load(&self) -> u64 {
        self.received.iter().copied().max().unwrap_or(0)
    }

    /// Average load per machine (Table 1, "Average").
    pub fn avg_load(&self) -> f64 {
        if self.received.is_empty() {
            0.0
        } else {
            self.total_received() as f64 / self.received.len() as f64
        }
    }

    /// Total tuples received by the component.
    pub fn total_received(&self) -> u64 {
        saturating_sum(&self.received)
    }

    /// Total tuples emitted by user logic.
    pub fn total_emitted(&self) -> u64 {
        saturating_sum(&self.emitted)
    }

    /// Total downstream deliveries.
    fn total_sent(&self) -> u64 {
        saturating_sum(&self.sent)
    }

    /// Skew degree: largest partition ÷ average partition (§6).
    pub fn skew_degree(&self) -> f64 {
        let avg = self.avg_load();
        if avg == 0.0 {
            1.0
        } else {
            self.max_load() as f64 / avg
        }
    }
}

/// Counters merged from peers' reports saturate rather than overflow.
fn saturating_sum(counts: &[u64]) -> u64 {
    counts.iter().fold(0, |a, &b| a.saturating_add(b))
}

/// All nodes' frozen metrics for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub nodes: Vec<NodeMetrics>,
    /// Scheduler-side observations (worker pool, steals, yields, queue
    /// depth) — see [`SchedulerStats`].
    pub scheduler: SchedulerStats,
}

squall_common::wire_struct! { MetricsSnapshot { nodes, scheduler } }

impl MetricsSnapshot {
    pub fn node(&self, id: NodeId) -> &NodeMetrics {
        &self.nodes[id]
    }

    /// Fold another snapshot of the *same topology* into this one. Used
    /// by the distributed coordinator: every peer snapshots the full
    /// topology with non-local task counters at zero, so an element-wise
    /// sum reconstructs exactly the counters a single-process run would
    /// have produced. Scheduler counters sum (each peer ran its own
    /// pool); queue depth takes the max. `other` is decoded wire input: a
    /// snapshot of another shape is a typed error and merges nothing, and
    /// counters saturate instead of overflowing.
    pub fn merge(&mut self, other: &MetricsSnapshot) -> Result<()> {
        let shape = |m: &MetricsSnapshot| -> Vec<[usize; 3]> {
            m.nodes.iter().map(|n| [n.received.len(), n.sent.len(), n.emitted.len()]).collect()
        };
        if shape(self) != shape(other) {
            return Err(SquallError::Runtime("a peer's metrics are of another topology".into()));
        }
        let sum = |xs: &mut [u64], ys: &[u64]| {
            for (x, y) in xs.iter_mut().zip(ys) {
                *x = x.saturating_add(*y);
            }
        };
        for (a, b) in self.nodes.iter_mut().zip(&other.nodes) {
            sum(&mut a.received, &b.received);
            sum(&mut a.sent, &b.sent);
            sum(&mut a.emitted, &b.emitted);
        }
        let (s, o) = (&mut self.scheduler, &other.scheduler);
        s.workers = s.workers.saturating_add(o.workers);
        s.steals = s.steals.saturating_add(o.steals);
        s.yields = s.yields.saturating_add(o.yields);
        s.blocked = s.blocked.saturating_add(o.blocked);
        s.max_queue_depth = s.max_queue_depth.max(o.max_queue_depth);
        Ok(())
    }

    pub fn by_name(&self, name: &str) -> Option<&NodeMetrics> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Replication factor of a component (§6): its input tuple count
    /// divided by the total tuples *emitted* by the given upstream nodes.
    pub fn replication_factor(&self, component: NodeId, upstream: &[NodeId]) -> f64 {
        let input = self.node(component).total_received() as f64;
        let produced: f64 = upstream.iter().map(|&u| self.node(u).total_emitted() as f64).sum();
        if produced == 0.0 {
            0.0
        } else {
            input / produced
        }
    }

    /// Intermediate network factor of a whole query (§6): the sum of every
    /// component task's input and output divided by (query input + query
    /// output). `sources` are the spout nodes, `sinks` the final nodes.
    pub fn intermediate_network_factor(&self, sources: &[NodeId], sinks: &[NodeId]) -> f64 {
        let all_io: f64 =
            self.nodes.iter().map(|n| n.total_received() as f64 + n.total_sent() as f64).sum();
        let emitted = |nodes: &[NodeId]| -> f64 {
            nodes.iter().map(|&n| self.node(n).total_emitted() as f64).sum()
        };
        let denom = emitted(sources) + emitted(sinks);
        if denom == 0.0 {
            0.0
        } else {
            all_io / denom
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(received: Vec<Vec<u64>>, emitted: Vec<Vec<u64>>) -> MetricsSnapshot {
        MetricsSnapshot {
            nodes: received
                .into_iter()
                .zip(emitted)
                .enumerate()
                .map(|(i, (r, e))| NodeMetrics {
                    node: i,
                    name: format!("n{i}"),
                    sent: e.clone(),
                    received: r,
                    emitted: e,
                })
                .collect(),
            scheduler: SchedulerStats::default(),
        }
    }

    #[test]
    fn max_avg_and_skew_degree() {
        let s = snap(vec![vec![10, 20, 30, 40]], vec![vec![0, 0, 0, 0]]);
        let n = s.node(0);
        assert_eq!(n.max_load(), 40);
        assert_eq!(n.avg_load(), 25.0);
        assert_eq!(n.skew_degree(), 1.6);
    }

    #[test]
    fn replication_factor_matches_definition() {
        // Upstream emits 100 tuples; joiner receives 130 (broadcast overlap)
        // → replication factor 1.3.
        let s = snap(vec![vec![0], vec![130]], vec![vec![100], vec![0]]);
        assert!((s.replication_factor(1, &[0]) - 1.3).abs() < 1e-12);
    }

    #[test]
    fn perfect_balance_has_skew_degree_one() {
        let s = snap(vec![vec![5, 5, 5]], vec![vec![0, 0, 0]]);
        assert_eq!(s.node(0).skew_degree(), 1.0);
    }

    #[test]
    fn registry_snapshot_roundtrip() {
        let reg = MetricsRegistry::new(vec!["a".into(), "b".into()], &[2, 1]);
        reg.task(0, 1).received.fetch_add(7, Ordering::Relaxed);
        reg.task(1, 0).emitted.fetch_add(3, Ordering::Relaxed);
        reg.sched().steals.fetch_add(2, Ordering::Relaxed);
        reg.sched().max_queue_depth.fetch_max(9, Ordering::Relaxed);
        let s = reg.snapshot();
        assert_eq!(s.node(0).received, vec![0, 7]);
        assert_eq!(s.node(1).emitted, vec![3]);
        assert_eq!(s.by_name("b").unwrap().node, 1);
        assert!(s.by_name("zzz").is_none());
        assert_eq!(s.scheduler.steals, 2);
        assert_eq!(s.scheduler.max_queue_depth, 9);
    }

    #[test]
    fn merge_sums_a_peer_snapshot_and_rejects_another_shape() {
        let mut ours = snap(vec![vec![1, 2]], vec![vec![0, 3]]);
        ours.scheduler.steals = u64::MAX;
        let mut theirs = snap(vec![vec![4, 5]], vec![vec![6, 0]]);
        theirs.scheduler.steals = 2;
        theirs.scheduler.max_queue_depth = 9;
        ours.merge(&theirs).unwrap();
        assert_eq!(ours.node(0).received, vec![5, 7]);
        assert_eq!(ours.node(0).emitted, vec![6, 3]);
        assert_eq!(ours.scheduler.steals, u64::MAX, "counters saturate");
        assert_eq!(ours.scheduler.max_queue_depth, 9);
        ours.merge(&snap(vec![vec![u64::MAX, 0]], vec![vec![u64::MAX, 0]])).unwrap();
        assert_eq!(ours.node(0).total_received(), u64::MAX);
        assert!(ours.replication_factor(0, &[0]) > 0.0);
        assert!(ours.intermediate_network_factor(&[0], &[0]) > 0.0);
        // A snapshot decoded off the wire with another node count, another
        // parallelism or a short counter vector merges nothing.
        let before = ours.clone();
        let mut short = snap(vec![vec![1, 1]], vec![vec![1, 1]]);
        short.nodes[0].sent.pop();
        for other in [
            snap(vec![vec![1, 1], vec![1]], vec![vec![1, 1], vec![1]]),
            snap(vec![vec![1, 1, 1]], vec![vec![1, 1, 1]]),
            short,
        ] {
            assert!(matches!(ours.merge(&other), Err(SquallError::Runtime(_))));
            assert_eq!(ours, before);
        }
    }

    #[test]
    fn intermediate_network_factor() {
        // Source emits 100 (sent 100); joiner receives 100, emits/sends 10;
        // sink receives 10, emits 10.
        let s = MetricsSnapshot {
            nodes: vec![
                NodeMetrics {
                    node: 0,
                    name: "src".into(),
                    received: vec![0],
                    sent: vec![100],
                    emitted: vec![100],
                },
                NodeMetrics {
                    node: 1,
                    name: "join".into(),
                    received: vec![100],
                    sent: vec![10],
                    emitted: vec![10],
                },
                NodeMetrics {
                    node: 2,
                    name: "sink".into(),
                    received: vec![10],
                    sent: vec![0],
                    emitted: vec![10],
                },
            ],
            scheduler: SchedulerStats::default(),
        };
        // all_io = (0+100) + (100+10) + (10+0) = 220; denom = 100 + 10.
        assert!((s.intermediate_network_factor(&[0], &[2]) - 2.0).abs() < 1e-12);
    }
}
