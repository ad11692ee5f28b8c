//! # squall-expr
//!
//! Scalar expressions, selection predicates and join conditions.
//!
//! Squall queries are conjunctive SELECT/PROJECT/JOIN/AGGREGATE queries
//! (§2). This crate provides:
//!
//! * [`ScalarExpr`] — arithmetic/comparison/boolean expressions over a tuple,
//!   including the `Cast` to `Date` whose parsing cost the paper's Figure 5
//!   measures explicitly;
//! * [`MultiJoinSpec`] — an n-way join graph of [`JoinAtom`]s (`=` or a
//!   [`CmpOp`] inequality between two columns; the split drives the local
//!   join index selection of §3.3: "hash indexes for equi-joins, and
//!   balanced binary tree indexes for band and inequality joins") with
//!   per-attribute skew hints and estimated relation sizes: exactly the
//!   input the Hash-, Random- and Hybrid-Hypercube optimization algorithms
//!   of §4 take.

pub mod join_cond;
pub mod multiway;
pub mod scalar;

pub use join_cond::CmpOp;
pub use multiway::{JoinAtom, KeyClass, MultiJoinSpec, RelationDef};
pub use scalar::{AggFunc, BinOp, ScalarExpr};
