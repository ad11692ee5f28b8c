//! # squall-core
//!
//! The paper's system assembled: physical operators (join bolts, aggregate
//! bolts, select/project bolts), the **HyLD** operator (any hypercube
//! partitioning scheme × the local DBToaster join, §3.4), the execution
//! driver that maps a multi-way join query onto a
//! [`squall_runtime::Topology`], the pipeline-of-2-way-joins comparator
//! (§7.2), replication-aware peer recovery (§5 "Fault tolerance") and the
//! Adaptive 1-Bucket simulation (\[32\]).
//!
//! The central design point is *separation of concerns* (§3.4): "Squall
//! requires no changes in the partitioning scheme and local join when
//! putting them together in a parallel join operator" — the hypercube
//! schemes guarantee each machine executes an independent portion of the
//! join, so each machine simply runs its own [`squall_join::LocalJoin`]
//! instance. [`driver::run_multiway`] is exactly that composition.

pub mod adaptive_sim;
pub mod checkpoint;
pub mod cluster;
pub mod driver;
pub mod operators;
pub mod pipeline;
pub mod standing;

pub use checkpoint::{CheckpointStore, RestoreState};
pub use cluster::{run_worker, serve_job, ClusterSpec, JobSpec};
pub use driver::MaintenanceStats;
pub use driver::{
    run_multiway, run_multiway_stream, AggPlan, JoinReport, LocalJoinKind, MultiwayConfig,
    MultiwayStream,
};
pub use operators::{
    AggBolt, Finalizer, JoinBolt, SelectProjectBolt, WindowMergeBolt, WindowedAggBolt,
};
pub use pipeline::run_pipeline;
pub use standing::{
    launch_standing, ChangeBatch, DeltaRound, StandingHandle, ViewPlan, ViewShared, ViewWindow,
};
