//! # squall-data
//!
//! Synthetic workload generators standing in for the paper's datasets
//! (§6, §7.1), all seeded and deterministic:
//!
//! * [`tpch`] — a scaled-down TPC-H subset (CUSTOMER, ORDERS, LINEITEM,
//!   PARTSUPP, PART) with TPC-H's relative cardinalities and an optional
//!   zipf(θ) skew on PARTKEY ("TPC-H dataset with zipfian distribution and
//!   skew factor of 2", §7.3). Dates are generated as `YYYY-MM-DD` strings
//!   so the Figure 5 `sel(date)` parsing cost is real.
//! * [`webgraph`] — a power-law hyperlink graph with one dominant hub
//!   (the 'blogspot.com' stand-in), replacing the Common Crawl WebGraph.
//! * [`crawlcontent`] — `{Url, Score}` with synthesized scores (the paper
//!   itself synthesizes Score).
//! * [`google_cluster`] — JOB_EVENTS / TASK_EVENTS / MACHINE_EVENTS with
//!   FAIL events, preserving the trace's relative sizes ("the total size
//!   of Machine_Events and Job_Events is only 14.5% of Task_Events").
//! * [`streams`] — ordered/shuffled streams for the §5 temporal-skew ablation.
//!
//! The crate holds data only. The paper's queries are SQL text, run over
//! these relations through a `Session` (the figure harness, `squall-bench`),
//! so their skew marks, join order and scheme come from the engine's
//! statistics and optimizer, as they do for a user.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
pub mod crawlcontent;
pub mod google_cluster;
pub mod streams;
pub mod tpch;
pub mod webgraph;
