//! # squall-core
//!
//! The paper's system assembled: physical operators (join bolts, aggregate
//! bolts, the window merge), the **HyLD** operator (any hypercube
//! partitioning scheme × the local DBToaster join, §3.4), the execution
//! driver that maps a multi-way join query onto a
//! [`squall_runtime::Topology`], its split across worker processes, the
//! resident standing-view plane and replication-aware checkpoints (§5
//! "Fault tolerance"). Selection and projection run at the sources, in the
//! planner. The pipeline-of-2-way-joins comparator (§7.2) and the Adaptive
//! 1-Bucket simulation (\[32\]) are figure code: `crates/bench/src`.
//!
//! The central design point is *separation of concerns* (§3.4): "Squall
//! requires no changes in the partitioning scheme and local join when
//! putting them together in a parallel join operator" — the hypercube
//! schemes guarantee each machine executes an independent portion of the
//! join, so each machine simply runs its own [`squall_join::LocalJoin`]
//! instance. [`driver::run_multiway`] is exactly that composition.

pub mod checkpoint;
pub mod cluster;
pub mod driver;
pub mod operators;
pub mod standing;

pub use checkpoint::{CheckpointStore, RestoreState};
pub use cluster::{run_worker, serve_job, ClusterSpec, JobSpec};
pub use driver::MaintenanceStats;
pub use driver::{
    run_multiway, run_multiway_stream, AggPlan, JoinReport, LocalJoinKind, MultiwayConfig,
    MultiwayStream,
};
pub use operators::{Finalizer, JoinBolt, WindowMergeBolt, WindowedAggBolt};
pub use standing::{launch_standing, ChangeBatch, StandingHandle, ViewShared};
