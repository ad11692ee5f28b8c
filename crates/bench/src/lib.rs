//! # squall-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§6–§7), plus the §5 ablations. Each `fig*`/`t*`
//! function runs a scaled-down but shape-preserving version of the paper's
//! experiment and returns printable rows; the `repro` binary prints them
//! all, and the Criterion benches in `benches/` time the same runs.
//!
//! Scales are laptop-sized: the goal is to reproduce *who wins and by
//! roughly what factor*, not the absolute numbers from the authors' 120
//! core cluster (see EXPERIMENTS.md for the paper-vs-measured record).
//!
//! f5–f8 run the engine as a user does: each registers its generated
//! relations in a `Session`, runs `analyze`, and issues the paper's query
//! as SQL ([`TPCH9_PARTIAL`] and its siblings), forcing only the scheme and
//! local join its columns name ([`run_forced`]). The statistics then set
//! skew marks, join order and Hybrid's cube.
//!
//! What the paper compares the hypercube engine *against* lives here, not
//! in the library crates — no query a `Session` runs reaches it. Artifact →
//! module: e0 prices hand-built cubes analytically, and f5, f7, f8 read only
//! the engine ([`experiments`]); f6 also reads `pipeline` (the left-deep
//! pipeline of 2-way joins, §7.2, over a hand-written spec; also the second
//! reference of `tests/end_to_end.rs`); a1 and a2 read `skew` (the
//! round-robin key map and the temporal-skew profile, §5); a3 reads
//! `adaptive` (the Adaptive 1-Bucket controller of \[32\] and its
//! simulation); a4 reads `twoway` (1-Bucket, M-Bucket, EWH and the
//! candidate-cell grid the last two share, §3.1), whose 1-Bucket matrix f6
//! and a3 also use.

mod adaptive;
pub mod experiments;
mod pipeline;
mod skew;
mod twoway;

pub use experiments::*;
pub use pipeline::run_pipeline;
pub use twoway::{equi_depth_bounds, RangeCond, RangeGrid};
