//! # squall-partition
//!
//! Partitioning schemes and their optimization algorithms — the substance of
//! the paper's §3.1 and §4.
//!
//! A partitioning scheme decides, for every input tuple of every relation,
//! the set of machines (tasks of the join component) that must receive it.
//! Squall's schemes trade *replication* for *skew resilience and adaptivity*
//! (the SAR principle, §5):
//!
//! | scheme | replication | skew-resilient | conditions |
//! |---|---|---|---|
//! | hash / Fields               | none      | no  | equi |
//! | Hash-Hypercube \[8\]          | per-dim   | no  | multi-way equi |
//! | Random-Hypercube \[74\]       | high      | all | multi-way theta |
//! | **Hybrid-Hypercube** (ours) | minimal needed | all | multi-way, mixed |
//!
//! The [`hypercube`] module holds the shared machinery (dimension vectors,
//! routing, the analytic load model); [`optimizer`] holds the three §4
//! optimization algorithms and the planner's scheme pricing; [`stats`]
//! run-time statistics (exact key counts over a bounded sample, skew
//! detection, the `(L−L_mf)/p + L_mf` cost model of §3.4).
//!
//! This crate holds the schemes a query can run under. The 2-way schemes
//! the paper compares them against (1-Bucket, M-Bucket, EWH), the
//! round-robin key map, the temporal-skew profile and the Adaptive
//! 1-Bucket controller live with the figures that read them, in
//! `crates/bench/src/{twoway, skew, adaptive}.rs`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
pub mod hypercube;
pub mod optimizer;
pub mod stats;

pub use hypercube::{DimRole, Dimension, HypercubeScheme, PartitionKind};
pub use optimizer::{
    choose_scheme, estimate_scheme_cost, hybrid_hypercube, CostCalibration, CostEstimate,
    SchemeKind,
};
pub use stats::{collect_table_stats, ColumnStats, SkewEstimate, TableStats};
