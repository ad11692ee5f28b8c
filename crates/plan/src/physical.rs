//! The physical plan — the one shape every query runs as (§2, Fig. 1): a
//! scan per FROM relation, the hypercube join, an optional aggregate and
//! the finalizer, one node per file, each owning its lowering, its
//! [`PhysicalQuery::apply_order`] remap, its topology component and its
//! explain line — and its execution as a topology.

use std::collections::BTreeSet;
use std::sync::Arc;

use squall_common::{Result, Schema, SquallError, Tuple};
use squall_core::cluster::ClusterSpec;
use squall_core::driver::{run_multiway_stream, JoinReport, LocalJoinKind, MultiwayConfig};
use squall_core::operators::Finalizer;
use squall_core::standing::DeltaRound;
use squall_expr::{JoinAtom, MultiJoinSpec, ScalarExpr};
use squall_partition::optimizer::SchemeKind;
use squall_runtime::Source;

use crate::aggregate::Aggregate;
use crate::catalog::Catalog;
use crate::finalize::Finalize;
use crate::join::Join;
use crate::logical::{Expr, Query};
use crate::optimizer::{OptimizerDecision, OptimizerMode};
pub use crate::result::ResultSet;
use crate::scan::Scan;

/// Execution knobs.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Join component parallelism (the number of "machines").
    pub machines: usize,
    /// Force a scheme; `None` = Hybrid-Hypercube (it subsumes the others,
    /// §3.1).
    pub scheme: Option<SchemeKind>,
    pub local: LocalJoinKind,
    pub seed: u64,
    pub agg_parallelism: usize,
    /// Tolerated hash-over-random load ratio before an attribute is marked
    /// skewed (§3.4 chooser).
    pub skew_slack: f64,
    /// Worker pool size executing the topology (`None` = the host's
    /// available parallelism). Decoupled from `machines`: the cooperative
    /// executor runs any number of machines on this many OS threads.
    pub worker_threads: Option<usize>,
    /// Tuples per data-plane batch (1 = per-tuple messaging). Throughput
    /// knob only: routing stays per-tuple, so results and per-machine
    /// loads do not depend on it.
    pub batch_size: usize,
    /// Split every query's topology across these worker processes over
    /// TCP (`None` = single process). Results and per-machine loads are
    /// placement-independent.
    pub cluster: Option<ClusterSpec>,
    /// Checkpoint a standing view's operator state every this many
    /// epochs (`0` disables). One-shot queries ignore it.
    pub checkpoint_interval: u64,
    /// Declare a cluster peer lost after this much heartbeat silence, in
    /// milliseconds (`0` disables failure detection). Standing only.
    pub heartbeat_timeout_ms: u64,
    /// Cost-based plan search ([`crate::optimizer`]): join ordering and
    /// scheme selection. `Off` preserves the written FROM order and the
    /// config/default scheme — the pre-optimizer planner. Results are
    /// identical in every mode; only performance differs.
    pub optimizer: OptimizerMode,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            machines: 4,
            scheme: None,
            local: LocalJoinKind::DBToaster,
            seed: 42,
            agg_parallelism: 2,
            skew_slack: 0.5,
            worker_threads: None,
            batch_size: squall_runtime::DEFAULT_BATCH_SIZE,
            cluster: None,
            checkpoint_interval: 16,
            heartbeat_timeout_ms: 2000,
            optimizer: OptimizerMode::default(),
        }
    }
}

/// Everything needed to launch a query as a resident materialized view:
/// the join spec and the initial load (the view's epoch 1, selected in
/// place like every later round), the (standing-flagged) topology
/// configuration, whose aggregate the view sink runs, and the finalizer
/// that turns the sink's rows into the view's.
/// Produced by [`PhysicalQuery::prepare_standing`], consumed by
/// [`squall_core::standing::launch_standing`].
pub struct StandingPlan {
    pub spec: MultiJoinSpec,
    pub data: Vec<Source>,
    pub mcfg: MultiwayConfig,
    pub finalizer: Finalizer,
}

/// Relations' qualified columns concatenated into one row — the FROM
/// clause's original columns, or the join output: where every coordinate
/// and name resolves.
pub(crate) struct Scope {
    pub(crate) schemas: Vec<Schema>,
    /// Each relation's first column.
    pub(crate) starts: Vec<usize>,
}

impl Scope {
    fn new(schemas: Vec<Schema>) -> Scope {
        let starts = (0..schemas.len()).map(|t| schemas[..t].iter().map(Schema::arity).sum());
        Scope { starts: starts.collect(), schemas }
    }

    /// The join output: the scans' pruned columns.
    fn joined(scans: &[Scan]) -> Scope {
        Scope::new(scans.iter().map(|s| s.schema.clone()).collect())
    }

    /// The relation column `g` belongs to, and its column there.
    pub(crate) fn split(&self, g: usize) -> (usize, usize) {
        #[allow(clippy::expect_used)] // a scope's first relation starts at 0
        let t = self.starts.iter().rposition(|&o| o <= g).expect("the first relation starts at 0");
        (t, g - self.starts[t])
    }

    /// A column's coordinate: `alias.col` exactly, a bare `col` if unique.
    pub(crate) fn resolve(&self, name: &str) -> Result<usize> {
        let mut hit = None;
        for (t, schema) in self.schemas.iter().enumerate() {
            for (c, f) in schema.fields().iter().enumerate() {
                let bare = !name.contains('.') && f.name.split('.').nth(1) == Some(name);
                if f.name == name || bare {
                    if hit.is_some() {
                        return Err(SquallError::InvalidPlan(format!("ambiguous column {name}")));
                    }
                    hit = Some(self.starts[t] + c);
                }
            }
        }
        hit.ok_or_else(|| SquallError::UnknownColumn(name.to_string()))
    }

    /// An aggregate-free expression over these coordinates.
    pub(crate) fn scalar(&self, e: &Expr) -> Result<ScalarExpr> {
        e.lower(&mut |n| Ok(ScalarExpr::Column(self.resolve(n)?)), &mut |_, _| {
            Err(SquallError::InvalidPlan("aggregate calls are only allowed in SELECT".into()))
        })
    }

    /// The relations `e` reads, sorted.
    pub(crate) fn tables_of(&self, e: &ScalarExpr) -> Vec<usize> {
        let mut cols = vec![];
        e.referenced_columns(&mut cols);
        let ts: BTreeSet<usize> = cols.into_iter().map(|g| self.split(g).0).collect();
        ts.into_iter().collect()
    }
}

/// A plan node as the walk sees it: its topology components, upstream
/// first, and its explain line with any detail lines under it.
pub(crate) struct Node {
    pub(crate) entries: Vec<(String, usize, bool)>,
    pub(crate) lines: Vec<String>,
}

/// An optimized query ready to run: the fixed tree of nodes every query is
/// (scans in plan order) and the optimizer's decision, when it ran.
#[derive(Debug)]
pub struct PhysicalQuery {
    pub(crate) scans: Vec<Scan>,
    pub(crate) join: Join,
    pub(crate) aggregate: Option<Aggregate>,
    pub(crate) finalize: Finalize,
    pub(crate) decision: Option<OptimizerDecision>,
}

impl PhysicalQuery {
    /// Resolve and optimize a logical block.
    pub fn plan(q: &Query, catalog: &Catalog) -> Result<PhysicalQuery> {
        if q.tables.is_empty() {
            return Err(SquallError::InvalidPlan("FROM clause is empty".into()));
        }
        if q.select.is_empty() {
            return Err(SquallError::InvalidPlan("SELECT list is empty".into()));
        }
        let tables = q.tables.iter().map(|(t, alias)| Ok(catalog.get(t)?.schema.qualified(alias)));
        let scope = Scope::new(tables.collect::<Result<_>>()?);
        let (join, pushed, derived) = Join::lower(q, &scope, catalog)?;
        // Output-scheme pruning: a relation ships the columns the join reads
        // plus every column a SELECT item, GROUP BY key or HAVING clause
        // names (aggregate arguments are evaluated over the join output). A
        // derived column's inputs are read only at the source.
        let mut needed = join.needed(&scope);
        for e in q.select.iter().map(|(e, _)| e).chain(&q.group_by).chain(&q.having) {
            let mut names = vec![];
            e.columns(&mut names);
            for n in &names {
                let (t, c) = scope.split(scope.resolve(n)?);
                needed[t].push(c);
            }
        }
        let scans: Vec<Scan> = q
            .tables
            .iter()
            .zip(&scope.schemas)
            .zip(pushed.into_iter().zip(derived).zip(needed))
            .map(|((table, schema), ((p, d), n))| Scan::lower(table, schema, p, d, n))
            .collect();
        // Downstream of the join, names resolve in its output: every one
        // resolved above was kept.
        let joined = Scope::joined(&scans);
        let is_aggregate = !q.group_by.is_empty() || q.select.iter().any(|(e, _)| e.has_agg());
        let (aggregate, output) = match is_aggregate {
            true => Some(Aggregate::lower(q, &joined, join.window.is_some())?),
            false => None,
        }
        .unzip();
        let finalize = Finalize::lower(q, aggregate.as_ref().zip(output), &joined)?;
        Ok(PhysicalQuery { scans, join, aggregate, finalize, decision: None })
    }

    /// The one relay of session-level knobs (and this plan's window) into a
    /// topology configuration, for the one-shot and the standing plane
    /// alike — a knob relayed here reaches both.
    pub(crate) fn multiway_config(
        &self,
        scheme: SchemeKind,
        cfg: &ExecConfig,
    ) -> Result<MultiwayConfig> {
        let mut mcfg = MultiwayConfig::new(scheme, cfg.local, cfg.machines);
        mcfg.seed = cfg.seed;
        mcfg.worker_threads = cfg.worker_threads;
        mcfg.batch_size = cfg.batch_size.max(1);
        mcfg.cluster = cfg.cluster.clone();
        mcfg.checkpoint_interval = cfg.checkpoint_interval;
        mcfg.heartbeat_timeout_ms = cfg.heartbeat_timeout_ms;
        if let Some(w) = self.join.window_plan(&self.scans)? {
            mcfg = mcfg.with_window(w);
        }
        Ok(mcfg)
    }

    /// Every source's current contents after its scan's pushed-down work
    /// (filter, derive, project — the co-located source components of §2),
    /// read in place.
    fn load_sources(&self, catalog: &Catalog) -> Result<Vec<Source>> {
        self.scans.iter().map(|s| s.source(&catalog.get(&s.name)?.data)).collect()
    }

    fn finalizer(&self) -> Finalizer {
        self.finalize.finalizer(self.aggregate.as_ref())
    }

    /// Plan this query as a **standing view**: the same source-side work
    /// and scheme selection as [`PhysicalQuery::execute`], but producing a
    /// resident-topology configuration, with the aggregate the
    /// view-maintenance sink runs, plus the finalizer — instead of a
    /// one-shot run.
    ///
    /// Standing restrictions, rejected with typed errors: ORDER BY and
    /// LIMIT have no incremental meaning (a view is an unordered
    /// multiset; order when you read it), and a *windowed* view must
    /// window every relation on its stream's declared event-time column —
    /// that is the only column whose appends the catalog keeps monotonic,
    /// which the window join's eviction contract depends on.
    pub fn prepare_standing(&self, catalog: &Catalog, cfg: &ExecConfig) -> Result<StandingPlan> {
        if self.finalize.is_ordered() {
            return Err(SquallError::InvalidPlan(
                "ORDER BY / LIMIT are not supported in a materialized view \
                 (views are unordered; order when querying the view)"
                    .into(),
            ));
        }
        if let Some(w) = &self.join.window {
            if let Some(t) = w.presorted.iter().position(|p| !p) {
                return Err(SquallError::InvalidPlan(format!(
                    "windowed standing views must window on each stream's declared \
                     event-time column, but {} windows on an undeclared column",
                    self.scans[t].alias
                )));
            }
        }
        // Source-side work over the initial contents. Unlike the one-shot
        // path, NO skew sampling and NO random routing: a retraction's
        // delta must land on the exact machine holding the matching
        // insert, so every tuple's route has to be a pure function of its
        // content. The random escape hatch for skewed keys (§3.4) trades
        // that determinism for balance, which would strand +1/−1 pairs on
        // different machines and corrupt the maintained state — standing
        // views always route by key hash.
        let mut data = self.load_sources(catalog)?;
        let spec = self.join.launch_spec(&self.scans, &mut data, None)?;
        let mut mcfg = self.multiway_config(SchemeKind::Hash, cfg)?;
        mcfg.standing = true;
        // The one-shot aggregate plan, run by the view's one sink task,
        // which diffs published rows per epoch.
        mcfg.agg = self.aggregate.as_ref().map(|a| a.agg_plan(1));
        Ok(StandingPlan { spec, data, mcfg, finalizer: self.finalizer() })
    }

    /// What a signed batch of `source`'s rows is to a resident view of
    /// this query: per alias of the source in the FROM clause (a self-join
    /// has several), `(relation, the rows after that alias's pushed-down
    /// filter, derived columns and projection as a selection in place,
    /// mult)` — the view's join sees post-pushdown rows. Aliases whose
    /// filter keeps no row are left out. Pure: run before the batch commits.
    pub fn delta_rounds(&self, source: &str, rows: &[Tuple], mult: i64) -> Result<Vec<DeltaRound>> {
        let (mut rounds, rows) = (Vec::new(), Arc::new(rows.to_vec()));
        for (t, scan) in self.scans.iter().enumerate().filter(|(_, s)| s.name == source) {
            let selected = scan.source(&rows)?;
            if !selected.is_empty() {
                rounds.push((t, Arc::new(selected), mult));
            }
        }
        Ok(rounds)
    }

    /// Execute against the catalog, materializing every row: the result
    /// stream of [`PhysicalQuery::execute_stream`] drained, then ORDER BY
    /// (ties and the unordered case broken by whole-row order) and LIMIT.
    /// A run or row-finalization failure anywhere in the stream is `Err`.
    pub fn execute(&self, catalog: &Catalog, cfg: &ExecConfig) -> Result<ResultSet> {
        let mut rs = self.stream_unordered(catalog, cfg)?;
        rs.materialize_by(|rows| self.finalize.order(rows));
        match rs.error() {
            Some(e) => Err(e.clone()),
            None => Ok(rs),
        }
    }

    /// Execute against the catalog, streaming result rows while the
    /// topology runs. The returned [`ResultSet`] yields rows in production
    /// order through its [`Iterator`] impl without buffering them;
    /// [`ResultSet::report`] becomes available once the stream is
    /// exhausted. A run that fails mid-way ends the stream early —
    /// check [`ResultSet::error`] after exhaustion. Queries with an
    /// ORDER BY or LIMIT come back materialized — a total order needs
    /// every row first.
    pub fn execute_stream(&self, catalog: &Catalog, cfg: &ExecConfig) -> Result<ResultSet> {
        if self.finalize.is_ordered() {
            return self.execute(catalog, cfg);
        }
        self.stream_unordered(catalog, cfg)
    }

    /// The one execution path, one relation or six: scheme selection,
    /// source-side work, statistics, then launch the topology and hand back
    /// its live, HAVING-filtered, SELECT-projected stream in production
    /// order (ORDER BY / LIMIT not yet applied).
    fn stream_unordered(&self, catalog: &Catalog, cfg: &ExecConfig) -> Result<ResultSet> {
        // An explicit config scheme wins, then the optimizer's cost-based
        // choice, then the Hybrid default (it subsumes the others, §3.1).
        // Hybrid is the one scheme that reads skew hints, so only it pays
        // for the skew probe.
        let scheme = cfg
            .scheme
            .or_else(|| self.decision.as_ref().and_then(|d| d.scheme_kind()))
            .unwrap_or(SchemeKind::Hybrid);
        let skew = (scheme == SchemeKind::Hybrid).then_some((cfg.machines, cfg.skew_slack));
        let mut data = self.load_sources(catalog)?;
        let spec = self.join.launch_spec(&self.scans, &mut data, skew)?;
        let mut mcfg = self.multiway_config(scheme, cfg)?;
        if let Some(a) = &self.aggregate {
            mcfg = mcfg.with_agg(a.agg_plan(cfg.agg_parallelism.max(1)));
        }
        let (run, finalizer) = (run_multiway_stream(&spec, data, &mcfg)?, self.finalizer());
        Ok(ResultSet::streaming(self.finalize.schema.clone(), run, finalizer))
    }

    pub fn output_schema(&self) -> &Schema {
        &self.finalize.schema
    }

    /// The join atoms over relation indices in current plan order, each
    /// side a column of its relation's original ⊕ derived columns.
    pub fn join_atoms(&self) -> &[JoinAtom] {
        &self.join.atoms
    }

    /// The optimizer decision, when [`crate::optimizer::optimize`] ran.
    pub fn decision(&self) -> Option<&OptimizerDecision> {
        self.decision.as_ref()
    }

    /// Rewrite the plan to execute its relations in `order` (indices into
    /// the current order). Each node follows the reorder — the join its
    /// relation ids and per-relation window columns, the aggregate (or,
    /// without one, the projection) its join-output columns — so results
    /// are byte-identical to the original order. HAVING, ORDER BY and
    /// aggregate-row indices address post-aggregation rows, whose layout
    /// the relation order does not affect.
    pub fn apply_order(&mut self, order: &[usize]) -> Result<()> {
        let n = self.scans.len();
        let mut seen = vec![false; n];
        if order.len() != n
            || order.iter().any(|&t| t >= n || std::mem::replace(&mut seen[t], true))
        {
            return Err(SquallError::InvalidPlan(format!(
                "join order {order:?} is not a permutation of 0..{n}"
            )));
        }
        let before = Scope::joined(&self.scans);
        self.scans = order.iter().map(|&t| self.scans[t].clone()).collect();
        let after = Scope::joined(&self.scans);
        let mut inv = vec![0usize; n];
        for (new_t, &old_t) in order.iter().enumerate() {
            inv[old_t] = new_t;
        }
        let remap = |g: usize| {
            let (t, c) = before.split(g);
            after.starts[inv[t]] + c
        };
        self.join.apply_order(order, &inv);
        match &mut self.aggregate {
            Some(a) => a.apply_order(&remap),
            None => self.finalize.apply_order(&remap),
        }
        Ok(())
    }

    /// The one walk over the tree, root first, each node at its depth.
    fn walk(&self, cfg: &ExecConfig, report: Option<&JoinReport>) -> Vec<(usize, Node)> {
        let columns: Vec<&str> =
            self.scans.iter().flat_map(|s| s.schema.fields()).map(|f| f.name.as_str()).collect();
        let mut nodes = vec![(0, self.finalize.node())];
        nodes.extend(self.aggregate.as_ref().map(|a| (1, a.node(cfg, &columns))));
        let depth = nodes.len();
        nodes.push((depth, self.join.node(&self.scans, cfg, self.decision.as_ref(), report)));
        nodes.extend(self.scans.iter().map(|s| (depth + 1, s.node())));
        nodes
    }

    /// The plan as text (the EXPLAIN of the demo UI): the tree root first,
    /// each node's inputs indented beneath it and its detail lines deeper
    /// still, then the executor configuration and — on a cluster — the
    /// task→peer placement. With a finished run's `report` the optimizer's
    /// estimated-vs-actual table shows the run's per-relation counters.
    pub fn explain(&self, cfg: &ExecConfig, report: Option<&JoinReport>) -> String {
        let mut s = String::new();
        for (depth, node) in self.walk(cfg, report) {
            for (k, line) in node.lines.iter().enumerate() {
                let detail = if k == 0 { "" } else { "    " };
                s.push_str(&format!("{}{detail}{line}\n", "  ".repeat(depth)));
            }
        }
        let workers = cfg.worker_threads.map_or_else(|| "auto".to_string(), |n| n.to_string());
        s.push_str(&format!(
            "executor: {} machines, {workers} worker threads, batch size {}\n",
            cfg.machines, cfg.batch_size
        ));
        if let Some(cluster) = &cfg.cluster {
            let (names, tasks, is_spout) = self.node_layout(cfg);
            let peers = cluster.peer_labels();
            s.push_str(&format!(
                "cluster: {} peers over TCP (coordinator + {} workers)\n",
                peers.len(),
                cluster.workers.len()
            ));
            s.push_str(&squall_runtime::describe_placement(&names, &tasks, &is_spout, &peers));
        }
        s
    }

    /// The topology layout this plan executes as under `cfg` — `(names,
    /// parallelism, is_spout)` per component in assembly order: the walk's
    /// components upstream first, from the deepest nodes (the sources, in
    /// plan order) to the sink. Task→peer placement
    /// ([`squall_runtime::plan_placement`]) is computed over it.
    pub fn node_layout(&self, cfg: &ExecConfig) -> (Vec<String>, Vec<usize>, Vec<bool>) {
        let mut nodes = self.walk(cfg, None);
        nodes.sort_by_key(|(depth, _)| std::cmp::Reverse(*depth));
        let mut layout = (Vec::new(), Vec::new(), Vec::new());
        for (name, parallelism, is_spout) in nodes.into_iter().flat_map(|(_, n)| n.entries) {
            layout.0.push(name);
            layout.1.push(parallelism);
            layout.2.push(is_spout);
        }
        layout
    }
}

/// Plan + execute in one call, materializing every row. Runs the
/// cost-based optimizer ([`crate::optimizer::optimize`]) between the two
/// unless [`ExecConfig::optimizer`] is `Off`.
pub fn execute_query(q: &Query, catalog: &Catalog, cfg: &ExecConfig) -> Result<ResultSet> {
    let mut plan = PhysicalQuery::plan(q, catalog)?;
    crate::optimizer::optimize(&mut plan, catalog, cfg)?;
    plan.execute(catalog, cfg)
}

/// Plan + execute in one call, streaming rows while the topology runs.
/// Optimized the same way as [`execute_query`].
pub fn execute_query_stream(q: &Query, catalog: &Catalog, cfg: &ExecConfig) -> Result<ResultSet> {
    let mut plan = PhysicalQuery::plan(q, catalog)?;
    crate::optimizer::optimize(&mut plan, catalog, cfg)?;
    plan.execute_stream(catalog, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{agg, col, lit, Window};
    use crate::tests::{catalog, stream_catalog};
    use squall_common::tuple;
    use squall_expr::{AggFunc, BinOp};

    #[test]
    fn spj_two_way() {
        // SELECT R.b, S.c FROM R, S WHERE R.a = S.a AND R.b > 15.
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")).and(col("R.b").gt(lit(15))))
            .select([col("R.b"), col("S.c")]);
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        // R rows with b>15: (2,20),(3,30),(2,25); joins: 2→(100,150), 3→200.
        assert_eq!(
            res.rows(),
            vec![
                tuple![20, 100],
                tuple![20, 150],
                tuple![25, 100],
                tuple![25, 150],
                tuple![30, 200]
            ]
        );
        assert!(res.report().is_some());
    }

    #[test]
    fn bare_column_names_resolve_when_unique() {
        let q = Query::from_tables([("R", "R"), ("T", "T")])
            .filter(col("b").eq(col("d"))) // R.b and T.d are unique names
            .select([agg(AggFunc::Count, None)]);
        // No matches (b ∈ {10..30}, d ∈ {7,8,9}) but it must plan fine.
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        assert_eq!(res.rows(), vec![tuple![0i64]]);
    }

    #[test]
    fn ambiguous_and_unknown_columns_rejected() {
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("a").eq(lit(1)))
            .select([col("R.b")]);
        assert!(matches!(PhysicalQuery::plan(&q, &catalog()), Err(SquallError::InvalidPlan(_))));
        let q2 = Query::from_tables([("R", "R")]).select([col("R.zzz")]);
        assert!(matches!(PhysicalQuery::plan(&q2, &catalog()), Err(SquallError::UnknownColumn(_))));
    }

    #[test]
    fn apply_order_is_result_invariant() {
        // The 3-way chain from `three_way_chain_with_count`, executed
        // under every relation order, must give byte-identical rows.
        let q = Query::from_tables([("R", "R"), ("S", "S"), ("T", "T")])
            .filter(col("R.a").eq(col("S.a")))
            .filter(col("S.c").eq(col("T.c")))
            .group_by([col("T.d")])
            .select([col("T.d"), agg(AggFunc::Count, None)]);
        let cat = catalog();
        let cfg = ExecConfig { optimizer: OptimizerMode::Off, ..ExecConfig::default() };
        let expected = vec![tuple![7, 2], tuple![8, 1]];
        for order in crate::optimizer::enumerate_orders(
            3,
            PhysicalQuery::plan(&q, &cat).unwrap().join_atoms(),
            usize::MAX,
        ) {
            let mut p = PhysicalQuery::plan(&q, &cat).unwrap();
            p.apply_order(&order).unwrap();
            let mut res = p.execute(&cat, &cfg).unwrap();
            assert_eq!(res.rows(), expected, "order {order:?}");
        }
    }

    /// Every node follows a reorder: applying σ then σ⁻¹ restores the plan
    /// exactly, and σ alone gives the plan of the query written in σ's FROM
    /// order — which catches a node that forgets its remap (a forgotten
    /// remap survives the round trip untouched, so the round trip alone
    /// cannot see it).
    #[test]
    fn apply_order_round_trips_and_matches_the_written_order() {
        let chain =
            |q: Query| q.filter(col("R.a").eq(col("S.a"))).filter(col("S.c").eq(col("T.c")));
        let rst = || Query::from_tables([("R", "R"), ("S", "S"), ("T", "T")]);
        let ab = || Query::from_tables([("A", "A"), ("B", "B")]).filter(col("A.k").eq(col("B.k")));
        let cases = [
            ("spj", chain(rst()).select([col("R.b"), col("T.d")]), catalog()),
            (
                "grouped",
                chain(rst())
                    .group_by([col("T.d")])
                    .select([col("T.d"), agg(AggFunc::Sum, Some(col("R.b")))]),
                catalog(),
            ),
            (
                "windowed aggregate",
                ab().window(Window::tumbling(10))
                    .group_by([col("B.k")])
                    .select([col("B.k"), agg(AggFunc::Sum, Some(col("A.ts")))]),
                stream_catalog(),
            ),
            (
                "derived column",
                rst()
                    .filter(lit(2).bin(BinOp::Mul, col("R.a")).eq(col("S.a")))
                    .filter(col("S.c").eq(col("T.c")))
                    .select([col("T.d"), col("R.b")]),
                catalog(),
            ),
            (
                "hidden HAVING aggregate",
                chain(rst())
                    .group_by([col("R.a")])
                    .select([col("R.a")])
                    .having(agg(AggFunc::Sum, Some(col("T.d"))).gt(lit(0))),
                catalog(),
            ),
        ];
        for (what, q, cat) in cases {
            let original = format!("{:?}", PhysicalQuery::plan(&q, &cat).unwrap());
            let n = q.tables.len();
            let atoms = PhysicalQuery::plan(&q, &cat).unwrap().join_atoms().to_vec();
            for order in crate::optimizer::enumerate_orders(n, &atoms, usize::MAX) {
                let mut inverse = vec![0; n];
                for (new_t, &old_t) in order.iter().enumerate() {
                    inverse[old_t] = new_t;
                }
                let mut p = PhysicalQuery::plan(&q, &cat).unwrap();
                p.apply_order(&order).unwrap();
                let mut written = q.clone();
                written.tables = order.iter().map(|&t| q.tables[t].clone()).collect();
                let written = PhysicalQuery::plan(&written, &cat).unwrap();
                assert_eq!(format!("{p:?}"), format!("{written:?}"), "{what}: σ = {order:?}");
                p.apply_order(&inverse).unwrap();
                assert_eq!(format!("{p:?}"), original, "{what}: σ = {order:?}, then σ⁻¹");
            }
        }
    }

    #[test]
    fn apply_order_rejects_non_permutations() {
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .select([col("S.c")]);
        let mut p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        assert!(p.apply_order(&[0]).is_err());
        assert!(p.apply_order(&[0, 0]).is_err());
        assert!(p.apply_order(&[0, 2]).is_err());
        assert!(p.apply_order(&[1, 0]).is_ok());
    }

    #[test]
    fn optimizer_modes_agree_on_results() {
        let q = Query::from_tables([("R", "R"), ("S", "S"), ("T", "T")])
            .filter(col("R.a").eq(col("S.a")))
            .filter(col("S.c").eq(col("T.c")))
            .select([col("R.b"), col("T.d")]);
        let cat = catalog();
        let mut expected = None;
        for mode in [OptimizerMode::Off, OptimizerMode::On, OptimizerMode::Exhaustive] {
            let cfg = ExecConfig { optimizer: mode, ..ExecConfig::default() };
            let mut res = execute_query(&q, &cat, &cfg).unwrap();
            let rows = res.rows().to_vec();
            match &expected {
                None => expected = Some(rows),
                Some(e) => assert_eq!(&rows, e, "mode {mode}"),
            }
        }
    }
}
