//! # squall-join
//!
//! Local (single-machine) online join algorithms and stream operators —
//! §3.3 of the paper.
//!
//! Online local joins process one tuple at a time: "a new incoming tuple
//! for a relation is joined with the stored tuples from the other
//! relation(s), and stored for use by future tuples". Squall ships two
//! families:
//!
//! * [`TraditionalJoin`] — indexes on the *base* relations only (hash
//!   indexes for equi conditions, tree/scan probes for band and inequality
//!   conditions); every arrival recomputes the full (n−1)-way remainder, so
//!   cost explodes with the number of relations;
//! * [`DBToasterJoin`] — the higher-order incremental view maintenance
//!   algorithm of Ahmad et al. \[9\]: every *connected sub-join* is kept
//!   materialized, so an arrival only probes pre-joined views. "The savings
//!   grow with the increase in the number of relations" — the Figure 8
//!   experiments quantify exactly this gap.
//!
//! Both implement [`LocalJoin`], so any partitioning scheme can be paired
//! with either (the separation of concerns behind the HyLD operator,
//! §3.4). Each hands its results to a [`RowSink`] as borrowed rows with
//! their multiplicities; none is built as a tuple unless a sink keeps it.
//! The crate also provides the aggregate operators (SUM / COUNT / AVG with
//! GROUP BY, §2) and window semantics (tumbling and sliding windows "by
//! adding the window expiration logic on top of the full-history engine",
//! §2).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod agg;
pub mod dbtoaster;
pub mod naive;
pub mod snapshot;
pub mod traditional;
pub mod views;
pub mod window;

pub use agg::{AggSpec, GroupByAggregator};
pub use dbtoaster::DBToasterJoin;
pub use naive::naive_join;
pub use snapshot::Snapshot;
pub use traditional::TraditionalJoin;
pub use window::{output_ts_cols, WindowJoin, WindowSpec};

use squall_common::{Tuple, Value};

/// Where a local join writes its results: each one a borrowed row — the
/// join's assembly buffer, valid for the call — with its signed
/// multiplicity, a `(row, weight)` pair of a Z-set. A sink that keeps a
/// result copies it; the engine's sinks write it straight into the
/// outgoing scatter buffers, so a result is never built as a [`Tuple`].
pub trait RowSink {
    fn push(&mut self, row: &[Value], mult: i64);
}

/// A closure over `(row, multiplicity)`.
impl<F: FnMut(&[Value], i64)> RowSink for F {
    fn push(&mut self, row: &[Value], mult: i64) {
        self(row, mult)
    }
}

/// Each positive result as `mult` tuples.
impl RowSink for Vec<Tuple> {
    fn push(&mut self, row: &[Value], mult: i64) {
        if mult > 0 {
            let result = Tuple::from(row);
            self.extend((0..mult).map(|_| result.clone()));
        }
    }
}

/// Each non-zero result as one `(tuple, multiplicity)` pair, retractions
/// included.
impl RowSink for Vec<(Tuple, i64)> {
    fn push(&mut self, row: &[Value], mult: i64) {
        if mult != 0 {
            Vec::push(self, (row.into(), mult));
        }
    }
}

/// A local online multi-way join: rows in, (possibly several) join results
/// out, state updated. Arrivals are one or more rows of one relation, back
/// to back in one borrowed slice — a `&Tuple` is one row — and results are
/// borrowed rows.
pub trait LocalJoin: Send {
    /// Insert the `rows` of relation `rel`, in order; push every join
    /// result an arrival completes (concatenated in relation order,
    /// matching [`squall_expr::MultiJoinSpec::output_schema`]) into `out`
    /// with its multiplicity. Duplicates are not expanded: downstream
    /// aggregates (the paper's COUNT / SUM queries) only need the weights,
    /// which lets DBToaster's aggregated views skip materializing hot-key
    /// outputs entirely — the source of its §3.3 advantage.
    fn insert_into(&mut self, rel: usize, rows: &[Value], out: &mut dyn RowSink);

    /// Remove stored instances of the `rows` of `rel` (window expiration):
    /// `mults[i]` of row `i`, or `mults[0]` of every row when it holds one
    /// weight. No retractions are emitted: results already produced were
    /// valid when their inputs co-existed in the window.
    fn remove(&mut self, rel: usize, rows: &[Value], mults: &[i64]);

    /// Stored tuples across all relations/views (memory accounting; drives
    /// the per-machine memory budget of §7.3).
    fn stored(&self) -> usize;

    /// [`LocalJoin::insert_into`], each result expanded into tuples.
    fn insert(&mut self, rel: usize, rows: &[Value], out: &mut Vec<Tuple>) {
        self.insert_into(rel, rows, out)
    }

    /// [`LocalJoin::insert_into`] as `(tuple, multiplicity)` pairs.
    fn insert_weighted(&mut self, rel: usize, rows: &[Value], out: &mut Vec<(Tuple, i64)>) {
        self.insert_into(rel, rows, out)
    }
}

impl<J: LocalJoin + ?Sized> LocalJoin for Box<J> {
    fn insert_into(&mut self, rel: usize, rows: &[Value], out: &mut dyn RowSink) {
        (**self).insert_into(rel, rows, out)
    }

    fn remove(&mut self, rel: usize, rows: &[Value], mults: &[i64]) {
        (**self).remove(rel, rows, mults)
    }

    fn stored(&self) -> usize {
        (**self).stored()
    }
}

/// The rows in a batch of `arity`-wide rows laid back to back; a batch of
/// a zero-arity relation is one row.
fn batch_len(rows: &[Value], arity: usize) -> usize {
    debug_assert_eq!(rows.len() % arity.max(1), 0, "a batch of {arity}-wide rows");
    rows.len().checked_div(arity).unwrap_or(1)
}
