//! # Squall: Scalable Real-time Analytics — Rust reproduction
//!
//! A from-scratch Rust implementation of the system described in
//! *Squall: Scalable Real-time Analytics* (Vitorovic et al., PVLDB 9(10),
//! 2016): an online distributed query engine with skew-resilient, adaptive
//! join operators.
//!
//! The single entry point is [`Session`]: it owns the catalog and the
//! execution configuration, and runs queries through either of the
//! paper's two interfaces (§2) — SQL ([`Session::sql`]) or the fluent
//! imperative builder ([`Session::from`]) — both lowering to the same
//! logical plan, optimizer and skew-resilient multi-way join runtime.
//! Results come back as a [`ResultSet`]: materialized rows, a streaming
//! row iterator, and the run's [`session::JoinReport`] metrics.
//!
//! The facade re-exports the workspace crates:
//!
//! | crate | contents |
//! |---|---|
//! | [`session`] | **the unified API**: `Session`, `QueryBuilder`, `ResultSet` |
//! | [`common`] | values, tuples, schemas, hashing, RNG, zipf |
//! | [`expr`] | scalar expressions, multi-way join specs |
//! | [`runtime`] | the Storm-substitute: topologies, spouts/bolts, groupings |
//! | [`partition`] | Hash-/Random-/**Hybrid**-Hypercube schemes, their §4 optimizers and pricing, sampled statistics |
//! | [`join`] | traditional & DBToaster local joins, aggregates, windows |
//! | [`engine`] | HyLD operator, execution driver, cluster split, standing views, checkpoints |
//! | [`plan`] | logical plans, optimizer, executor (the functional interface) |
//! | [`sql`] | the SQL interface |
//! | [`data`] | TPC-H / WebGraph / Google-cluster workload generators |
//!
//! ## Quickstart
//!
//! ```
//! use squall::{col, Session};
//! use squall::common::{tuple, DataType, Schema};
//!
//! let mut session = Session::builder().machines(4).build();
//! session.register(
//!     "R",
//!     Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
//!     vec![tuple![1, 10], tuple![2, 20]],
//! ).unwrap();
//! session.register(
//!     "S",
//!     Schema::of(&[("a", DataType::Int), ("c", DataType::Int)]),
//!     vec![tuple![2, 7], tuple![3, 8]],
//! ).unwrap();
//! let mut result = session.sql("SELECT R.b, S.c FROM R, S WHERE R.a = S.a").unwrap();
//! assert_eq!(result.rows(), vec![tuple![20, 7]]);
//! // The imperative interface lowers to the same plan:
//! let same = session.from("R").join("S").on(col("R.a").eq(col("S.a")));
//! let mut result2 = same.select([col("R.b"), col("S.c")]).run().unwrap();
//! assert_eq!(result2.rows(), result.rows());
//! ```

#![deny(missing_docs)]

pub mod session;
pub mod views;

pub use squall_common as common;
pub use squall_core as engine;
pub use squall_data as data;
pub use squall_expr as expr;
pub use squall_join as join;
pub use squall_partition as partition;
pub use squall_plan as plan;
pub use squall_runtime as runtime;
pub use squall_sql as sql;

pub use session::{
    agg, avg, col, count, lit, sum, AggFunc, ClusterSpec, ColumnStats, ExecConfig, LocalJoinKind,
    OptimizerMode, QueryBuilder, ResultSet, SchemeKind, Session, SessionBuilder, SourceDef,
    SourceKind, TableStats, Window, WindowKind,
};
pub use squall_core::driver::MaintenanceStats;
pub use squall_core::standing::ChangeBatch;
pub use views::{ViewHandle, ViewSubscription};
