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
//! §3.4). The crate also provides the aggregate operators (SUM / COUNT /
//! AVG with GROUP BY, §2) and window semantics (tumbling and sliding
//! windows "by adding the window expiration logic on top of the
//! full-history engine", §2).

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

/// A local online multi-way join: row in, (possibly several) join results
/// out, state updated. Arrivals are borrowed rows — a `&Tuple` is one — and
/// only the results a join emits are built as [`Tuple`]s.
pub trait LocalJoin: Send {
    /// Insert one row of relation `rel`; append every join result this
    /// arrival completes (concatenated in relation order, matching
    /// [`squall_expr::MultiJoinSpec::output_schema`]) to `out`.
    fn insert(&mut self, rel: usize, row: &[Value], out: &mut Vec<Tuple>);

    /// Remove one stored instance of `row` from `rel` (window
    /// expiration). No retractions are emitted: results already produced
    /// were valid when their inputs co-existed in the window.
    fn remove(&mut self, rel: usize, row: &[Value]);

    /// Stored tuples across all relations/views (memory accounting; drives
    /// the per-machine memory budget of §7.3).
    fn stored(&self) -> usize;

    /// Insert and report results as `(tuple, multiplicity)` pairs instead
    /// of expanding duplicates. Downstream aggregates (the paper's COUNT /
    /// SUM queries) only need the weights, which lets DBToaster's
    /// aggregated views skip materializing hot-key outputs entirely — the
    /// source of its §3.3 advantage. The default expands.
    fn insert_weighted(&mut self, rel: usize, row: &[Value], out: &mut Vec<(Tuple, i64)>) {
        let mut buf = Vec::new();
        self.insert(rel, row, &mut buf);
        out.extend(buf.into_iter().map(|t| (t, 1)));
    }
}

impl<J: LocalJoin + ?Sized> LocalJoin for Box<J> {
    fn insert(&mut self, rel: usize, row: &[Value], out: &mut Vec<Tuple>) {
        (**self).insert(rel, row, out)
    }

    fn remove(&mut self, rel: usize, row: &[Value]) {
        (**self).remove(rel, row)
    }

    fn stored(&self) -> usize {
        (**self).stored()
    }

    fn insert_weighted(&mut self, rel: usize, row: &[Value], out: &mut Vec<(Tuple, i64)>) {
        (**self).insert_weighted(rel, row, out)
    }
}
