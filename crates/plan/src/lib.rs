//! # squall-plan
//!
//! Logical query plans and Squall's query optimizer (§2).
//!
//! A [`logical::Query`] is a select-project-join-aggregate block built by
//! name — the programmatic counterpart of the paper's *functional*
//! interface ("a modern Scala collections API"); the SQL interface
//! (`squall-sql`) parses into the same structure. The optimizer then does
//! what §2 describes:
//!
//! * **selection pushdown** — single-table conjuncts move into the source
//!   components;
//! * **output-scheme pruning** — each component ships only the columns
//!   needed downstream ("each component decides on its output scheme based
//!   on the fields/expressions that are needed downstream");
//! * **statistics & skew detection** — post-selection join-key samples are
//!   counted exactly ([`squall_partition::SkewEstimate`]) to set the skew
//!   flags the Hybrid-Hypercube needs (§3.4);
//! * **scheme & parallelism selection** — Hybrid-Hypercube by default
//!   (it subsumes Hash and Random, §3.1), with the join parallelism from
//!   the execution config.
//!
//! [`physical::PhysicalQuery::execute`] runs the result on the
//! `squall-runtime` substrate via `squall-core`'s driver.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod aggregate;
pub mod catalog;
mod finalize;
mod join;
pub mod logical;
pub mod optimizer;
pub mod physical;
mod result;
mod scan;

pub use catalog::{Catalog, SourceDef, SourceKind};
pub use logical::{agg, col, lit, Expr, Query, Window, WindowKind};
pub use optimizer::{
    enumerate_orders, optimize, JoinStep, OptimizerDecision, OptimizerMode, SchemeChoice,
};
pub use physical::{ExecConfig, PhysicalQuery, ResultSet};

#[cfg(test)]
mod tests {
    use squall_common::{tuple, DataType, Schema};

    use crate::Catalog;

    /// R(a, b), S(a, c), T(c, d): the planner tests' three small tables.
    pub(crate) fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "R",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![tuple![1, 10], tuple![2, 20], tuple![3, 30], tuple![2, 25]],
        )
        .unwrap();
        c.register(
            "S",
            Schema::of(&[("a", DataType::Int), ("c", DataType::Int)]),
            vec![tuple![2, 100], tuple![3, 200], tuple![4, 300], tuple![2, 150]],
        )
        .unwrap();
        c.register(
            "T",
            Schema::of(&[("c", DataType::Int), ("d", DataType::Int)]),
            vec![tuple![100, 7], tuple![200, 8], tuple![999, 9]],
        )
        .unwrap();
        c
    }

    /// Unsorted event streams A(k, ts), B(k, ts): the planner must order
    /// spout input by event time itself.
    pub(crate) fn stream_catalog() -> Catalog {
        let schema = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
        let mut c = Catalog::new();
        c.register_stream(
            "A",
            schema.clone(),
            vec![tuple![1, 50], tuple![1, 0], tuple![2, 20]],
            "ts",
        )
        .unwrap();
        c.register_stream("B", schema, vec![tuple![2, 25], tuple![1, 8], tuple![1, 49]], "ts")
            .unwrap();
        c
    }
}
