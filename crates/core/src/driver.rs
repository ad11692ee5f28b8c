//! The execution driver: one call from a multi-way join query to a running
//! topology with per-machine metrics.
//!
//! This is the "Squall-to-Storm translator" of Figure 1 for the workloads
//! the paper evaluates: data sources → (partitioning-scheme groupings) →
//! join component → optional aggregation component. With
//! `scheme = Hybrid` / `local = DBToaster` the join component is the HyLD
//! operator of §3.4.

use std::sync::Arc;

use squall_common::{FxHashMap, Result, SquallError, Tuple};
use squall_expr::{AggFunc, MultiJoinSpec};
use squall_join::dbtoaster::MAX_RELATIONS;
use squall_join::{AggSpec, DBToasterJoin, LocalJoin, TraditionalJoin, WindowJoin, WindowSpec};
use squall_partition::optimizer::{build_scheme, SchemeKind};
use squall_runtime::{
    Bolt, ClusterRun, Grouping, IterSpoutVec, NodeId, RunHandle, RunOutcome, SchedulerStats,
    Source, Spout, Topology, TopologyBuilder, TransportStats, DEFAULT_BATCH_SIZE,
};

use crate::cluster::ClusterSpec;
use crate::operators::{JoinBolt, JoinState, TaskJoin, WindowMergeBolt, WindowedAggBolt};

/// Which local join algorithm each machine runs (§3.3 / Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalJoinKind {
    Traditional,
    DBToaster,
}

squall_common::wire_tags! { LocalJoinKind { 0 => Traditional, 1 => DBToaster } }

impl std::fmt::Display for LocalJoinKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocalJoinKind::Traditional => write!(f, "traditional"),
            LocalJoinKind::DBToaster => write!(f, "DBToaster"),
        }
    }
}

/// Window semantics for the join component: the window shape plus each
/// relation's event-time column in its (post-projection) input schema.
///
/// The driver then installs event-time [`squall_join::WindowJoin`] bolts
/// and requires each relation's spout to emit in event-time order (the
/// planner sorts its sources; see `squall_runtime::Source::sort_by_event_time`).
#[derive(Debug, Clone)]
pub struct WindowPlan {
    pub spec: WindowSpec,
    pub ts_cols: Vec<usize>,
}

squall_common::wire_struct! { WindowPlan { spec, ts_cols } }

/// Optional aggregation stage after the join.
///
/// With [`MultiwayConfig::window`] also set, the stage aggregates **per
/// window** instead of over the full join history: state is keyed by
/// `(window, group key)`, windows close on the minimum watermark across
/// the join tasks, and the result rows are
/// `(window_start, window_end, group…, agg…)` (bounds inclusive), emitted
/// in window order. Both modes run in two phases: each join task folds
/// its results into partial aggregates, and `parallelism` tasks, sharded
/// by group hash, merge them. Per-window mode additionally runs a single
/// ordered merge sink behind the shards, so the window-order contract
/// holds at any parallelism with output byte-identical to a 1-task run.
#[derive(Debug, Clone)]
pub struct AggPlan {
    /// Group-by columns of the join output schema.
    pub group_cols: Vec<usize>,
    /// The aggregate columns, in output order.
    pub aggs: Vec<AggSpec>,
    /// Task count of the aggregation component. A standing view's one sink
    /// task reads the rest of the plan and not this; the planner sets it
    /// to 1 there, so the one-shot shard knob never fails a view.
    pub parallelism: usize,
}

squall_common::wire_struct! { AggPlan { group_cols, aggs, parallelism } }

/// Configuration of one multi-way join execution.
#[derive(Debug, Clone)]
pub struct MultiwayConfig {
    pub scheme: SchemeKind,
    pub local: LocalJoinKind,
    /// Machines for the join component.
    pub machines: usize,
    pub seed: u64,
    /// Per-machine stored-tuple budget (§7.3 memory overflow); `None` =
    /// unlimited.
    pub budget: Option<usize>,
    /// Aggregate the join output (results are then the aggregate rows). In
    /// a standing topology the view sink folds by it and the join tasks
    /// ignore it.
    pub agg: Option<AggPlan>,
    /// Windowed join semantics; `None` = full history.
    pub window: Option<WindowPlan>,
    /// Collect full join results (`true`) or only their count (`false`;
    /// large-output benchmarks: the run is a `COUNT(*)` whose row the
    /// stream discards, and [`JoinReport::result_count`] is the answer).
    /// Ignored when `agg` is set.
    pub collect_results: bool,
    /// Worker pool size executing the topology; `None` = the machine's
    /// available parallelism. Machines (tasks) may far exceed this.
    pub worker_threads: Option<usize>,
    /// Tuples per data-plane batch (1 = per-tuple messaging). Affects
    /// throughput only — routing stays per-tuple, so loads and results are
    /// batch-size independent.
    pub batch_size: usize,
    /// Split the topology across worker processes over TCP (`None` = run
    /// every task in this process). Routing, results and per-machine
    /// loads are placement-independent; only the wire moves.
    pub cluster: Option<ClusterSpec>,
    /// Resident (standing-view) topology: spouts are live queues that
    /// stay up after the initial load, tuples carry trailing
    /// multiplicity/epoch columns, and the sink is a view-maintenance
    /// bolt (see [`crate::standing`]). Workers use this flag to rebuild
    /// the standing topology shape instead of the batch one.
    pub standing: bool,
    /// Checkpoint every N epochs (standing views only; `0` disables). At
    /// each multiple an aligned barrier flows through the data plane and
    /// every stateful operator ships a snapshot blob to the coordinator's
    /// [`crate::checkpoint::CheckpointStore`].
    pub checkpoint_interval: u64,
    /// Declare a peer lost after this long without traffic (clustered
    /// standing views only; `0` disables liveness timeouts). Peers beat at
    /// a quarter of this interval when idle.
    pub heartbeat_timeout_ms: u64,
}

// What a worker rebuilds its slice from. Cluster membership stays home: a
// worker never re-distributes.
squall_common::wire_struct! {
    MultiwayConfig {
        scheme, local, machines, seed, budget, agg, window, collect_results, worker_threads,
        batch_size, standing, checkpoint_interval, heartbeat_timeout_ms,
    } skip { cluster }
}

impl MultiwayConfig {
    pub fn new(scheme: SchemeKind, local: LocalJoinKind, machines: usize) -> MultiwayConfig {
        MultiwayConfig {
            scheme,
            local,
            machines,
            seed: 42,
            budget: None,
            agg: None,
            window: None,
            collect_results: true,
            worker_threads: None,
            batch_size: DEFAULT_BATCH_SIZE,
            cluster: None,
            standing: false,
            checkpoint_interval: 16,
            heartbeat_timeout_ms: 2000,
        }
    }

    pub fn with_budget(mut self, budget: usize) -> MultiwayConfig {
        self.budget = Some(budget);
        self
    }

    /// Count the join results, collect none (`collect_results = false`).
    /// Without a window or an `agg`, every source then ships only its
    /// join-key columns: the driver cuts them before routing.
    pub fn count_only(mut self) -> MultiwayConfig {
        self.collect_results = false;
        self
    }

    pub fn with_agg(mut self, agg: AggPlan) -> MultiwayConfig {
        self.agg = Some(agg);
        self
    }

    /// Run the join under window semantics (spouts must then feed each
    /// relation in event-time order).
    pub fn with_window(mut self, window: WindowPlan) -> MultiwayConfig {
        self.window = Some(window);
        self
    }
}

/// Everything a run reports (the §6 monitoring quantities).
///
/// ```
/// use squall_common::{tuple, DataType, Schema};
/// use squall_core::driver::{run_multiway, LocalJoinKind, MultiwayConfig};
/// use squall_expr::{JoinAtom, MultiJoinSpec, RelationDef};
/// use squall_partition::optimizer::SchemeKind;
///
/// let schema = Schema::of(&[("a", DataType::Int)]);
/// let spec = MultiJoinSpec::new(
///     vec![RelationDef::new("R", schema.clone(), 2), RelationDef::new("S", schema, 2)],
///     vec![JoinAtom::eq(0, 0, 1, 0)],
/// ).unwrap();
/// let data = vec![vec![tuple![1], tuple![2]], vec![tuple![2], tuple![3]]];
/// let cfg = MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, 2);
/// let report = run_multiway(&spec, data, &cfg).unwrap();
/// assert!(report.error.is_none());
/// assert_eq!(report.result_count, 1, "only the key 2 joins");
/// assert_eq!(report.input_count, 4);
/// assert_eq!(report.loads.len(), 2, "one load counter per join machine");
/// assert!(report.max_load() >= 1 && report.avg_load() > 0.0);
/// ```
#[derive(Debug)]
pub struct JoinReport {
    /// Join results (or aggregate rows when an [`AggPlan`] was set; or
    /// empty in count-only mode).
    pub results: Vec<Tuple>,
    /// Join results produced, in every mode: the join tasks' emitted rows,
    /// where a partial aggregate counts as the results it folds.
    pub result_count: u64,
    /// Input tuples fed by the sources.
    pub input_count: u64,
    /// Input tuples per relation, in spec order — the per-step "actual
    /// rows" column of the planner's estimated-vs-actual explain table
    /// (a standing view's initial load). Empty in pipeline mode, which
    /// does not track per-relation counts.
    pub input_counts: Vec<u64>,
    /// Per-join-machine received-tuple loads (Table 1).
    pub loads: Vec<u64>,
    /// Replication factor (§6, Table 2): join input ÷ source output.
    pub replication_factor: f64,
    /// Skew degree (§6): max load ÷ avg load.
    pub skew_degree: f64,
    /// Intermediate network factor (§6).
    pub network_factor: f64,
    /// Wall-clock time.
    pub elapsed: std::time::Duration,
    /// The scheme actually used (dimension sizes etc.).
    pub scheme_description: String,
    /// Cooperative-scheduler observations (worker pool size, steals,
    /// yields, backpressure parks, max inbox depth). Unlike `loads`, the
    /// steal/yield counts are scheduling artifacts and not deterministic
    /// across runs.
    pub scheduler: SchedulerStats,
    /// Set when the run aborted (e.g. memory overflow) — the metrics above
    /// still describe the partial run, matching the paper's extrapolation
    /// methodology for the Hash-Hypercube OOM.
    pub error: Option<SquallError>,
    /// Wire traffic per peer (bytes/batches sent and received) when the
    /// run was split across processes; `None` for single-process runs.
    pub transport: Option<TransportStats>,
    /// View-maintenance counters for resident (standing-view) runs;
    /// `None` for batch queries.
    pub maintenance: Option<MaintenanceStats>,
}

/// Incremental-maintenance counters of one resident view (surfaced
/// through [`JoinReport::maintenance`] and the session's `explain`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// `append()` rounds acknowledged since launch.
    pub appends: u64,
    /// `retract()` rounds acknowledged since launch.
    pub retractions: u64,
    /// Signed deltas the view sink received from the delta join.
    pub deltas_in: u64,
    /// Epochs fully applied (initial load = epoch 1).
    pub epochs_applied: u64,
    /// Net row changes (+1/−1 entries) applied to the materialized rows.
    pub rows_changed: u64,
    /// Consistent snapshots served.
    pub snapshots: u64,
    /// Completed checkpoints (all operator blobs stored).
    pub checkpoints: u64,
    /// Checkpoint blob bytes the coordinator's store received, join and
    /// sink blobs alike.
    pub checkpoint_bytes: u64,
    /// Recoveries performed after a lost worker.
    pub recoveries: u64,
    /// Epochs replayed after recovery and deduplicated at the view sink
    /// (exactly-once: replays never mutate the materialized rows twice).
    pub replayed_epochs: u64,
}

impl std::fmt::Display for MaintenanceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "appends {} retractions {} deltas-in {} epochs {} row-changes {} snapshots {} \
             checkpoints {} checkpoint-bytes {} recoveries {} replayed-epochs {}",
            self.appends,
            self.retractions,
            self.deltas_in,
            self.epochs_applied,
            self.rows_changed,
            self.snapshots,
            self.checkpoints,
            self.checkpoint_bytes,
            self.recoveries,
            self.replayed_epochs
        )
    }
}

impl JoinReport {
    pub fn max_load(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    pub fn avg_load(&self) -> f64 {
        if self.loads.is_empty() {
            0.0
        } else {
            self.loads.iter().map(|&l| l as f64).sum::<f64>() / self.loads.len() as f64
        }
    }
}

/// `kind`'s join over `spec`. A count-only run's spec is already cut to its
/// join keys ([`assemble`]), so no task projects its arrivals.
fn make_local(kind: LocalJoinKind, spec: &MultiJoinSpec) -> Box<dyn LocalJoin> {
    match kind {
        LocalJoinKind::Traditional => Box::new(TraditionalJoin::new(spec)),
        LocalJoinKind::DBToaster => Box::new(DBToasterJoin::new(spec)),
    }
}

/// Everything [`summarize`] needs to turn a finished (or drained) run —
/// one-shot or standing — into a [`JoinReport`]: node ids, the chosen
/// scheme, and the run mode. [`wire_join_stage`] fills in the join stage;
/// the assembler adds what it builds behind it.
pub(crate) struct RunContext {
    pub(crate) join_node: NodeId,
    /// Join-task (machine) count — how many join blobs a checkpoint needs.
    pub(crate) join_tasks: usize,
    source_nodes: Vec<NodeId>,
    agg_node: Option<NodeId>,
    /// The ordered window-merge sink (windowed aggregation only).
    merge_node: Option<NodeId>,
    pub(crate) scheme_description: String,
    /// Tuples per relation the run was launched with (a standing view's:
    /// its initial load).
    pub(crate) input_counts: Vec<u64>,
    /// The sink's one row is a count-only run's `COUNT(*)`, which the
    /// stream discards.
    count_only: bool,
}

/// The most tasks a plan may ask of one component — the join's machines,
/// an aggregate's shards, the worker pool's threads: low enough that a plan
/// at the bound on every count still launches in seconds.
const MAX_TASKS: usize = 1024;

/// The plan checks [`wire_join_stage`] runs before building anything: one
/// data stream per relation, no more relations than a DBToaster join (which
/// every standing view runs) holds, every task count in `1..=MAX_TASKS`,
/// group-by columns the join output has, and a window plan that is bounded,
/// non-empty and names an in-range event-time column for every relation. A
/// plan that fails here would otherwise panic — in the topology builder's
/// asserts, inside a bolt factory, routing by a missing column, or dividing
/// by a zero window width — or never finish sizing its task tables.
fn validate_plan(spec: &MultiJoinSpec, n_streams: usize, cfg: &MultiwayConfig) -> Result<()> {
    if n_streams != spec.n_relations() {
        return Err(SquallError::InvalidPlan(format!(
            "{} relations but {} data streams",
            spec.n_relations(),
            n_streams
        )));
    }
    let dbtoaster = cfg.local == LocalJoinKind::DBToaster || cfg.standing;
    if dbtoaster && spec.n_relations() > MAX_RELATIONS {
        return Err(SquallError::InvalidPlan(format!(
            "a DBToaster join holds at most {MAX_RELATIONS} relations, not {}",
            spec.n_relations()
        )));
    }
    // A decoded `JobSpec` is wire input.
    let counts = [
        ("machines", Some(cfg.machines.max(1))),
        ("worker_threads", cfg.worker_threads),
        ("an aggregate's parallelism", cfg.agg.as_ref().map(|agg| agg.parallelism)),
    ];
    for (what, n) in counts {
        if n.is_some_and(|n| n == 0 || n > MAX_TASKS) {
            return Err(SquallError::InvalidPlan(format!("{what} must be in 1..={MAX_TASKS}")));
        }
    }
    if let Some(agg) = &cfg.agg {
        let arity: usize = spec.relations.iter().map(|r| r.schema.arity()).sum();
        if let Some(c) = agg.group_cols.iter().find(|&&c| c >= arity) {
            return Err(SquallError::InvalidPlan(format!(
                "group-by column {c} out of range for a join output of {arity} columns"
            )));
        }
    }
    if let Some(w) = &cfg.window {
        match w.spec {
            // FullHistory is spelled as the *absence* of a window plan
            // (`window = None`); one meaning has one spelling, so a plan
            // naming it is a typed planning error.
            WindowSpec::FullHistory => {
                return Err(SquallError::InvalidPlan(
                    "a window plan must be tumbling or sliding (FullHistory = no window)".into(),
                ))
            }
            WindowSpec::Tumbling { width: 0 } | WindowSpec::Sliding { size: 0 } => {
                return Err(SquallError::InvalidPlan("a window's width / size must be > 0".into()))
            }
            WindowSpec::Tumbling { .. } | WindowSpec::Sliding { .. } => {}
        }
        if w.ts_cols.len() != spec.n_relations() {
            return Err(SquallError::InvalidPlan(format!(
                "window plan names {} ts columns for {} relations",
                w.ts_cols.len(),
                spec.n_relations()
            )));
        }
        for (rel, (&c, r)) in w.ts_cols.iter().zip(&spec.relations).enumerate() {
            if c >= r.schema.arity() {
                return Err(SquallError::InvalidPlan(format!(
                    "window ts column {c} out of range for relation {rel}"
                )));
            }
        }
    }
    Ok(())
}

/// One relation's source: the spout builder of its one task.
pub(crate) type SpoutFactory = Box<dyn Fn(usize) -> Box<dyn Spout> + Send>;

/// The join stage both planes share — data sources → (partitioning-scheme
/// groupings) → join component: plan validation, the builder knobs, one
/// single-task spout node per relation (`spout(rel, source)` supplies each;
/// one task keeps a relation's arrival order, which windowed joins and
/// epoch-tagged deltas both need), the
/// upstream-node → relation map, the partitioning scheme, one
/// [`TaskJoin`] per machine over `local`'s join (windowed and budgeted as
/// `cfg` says) wrapped by `bolt`, and the scheme's source → join
/// groupings. Returns the builder for the caller to hang its sink stage on.
///
/// A single relation needs no partitioning scheme — a one-relation "join"
/// emits its input — so it runs on one task behind a global grouping.
pub(crate) fn wire_join_stage<J: LocalJoin + 'static>(
    spec: &MultiJoinSpec,
    data: Vec<Source>,
    cfg: &MultiwayConfig,
    mut spout: impl FnMut(usize, Source) -> SpoutFactory,
    local: impl Fn(&MultiJoinSpec) -> J + Send + 'static,
    bolt: impl Fn(TaskJoin<J>) -> Box<dyn Bolt> + Send + 'static,
) -> Result<(TopologyBuilder, RunContext)> {
    validate_plan(spec, data.len(), cfg)?;
    let n_rel = spec.n_relations();
    let (machines, scheme) = if n_rel == 1 {
        (1, None)
    } else {
        let machines = cfg.machines.max(1);
        (machines, Some(Arc::new(build_scheme(cfg.scheme, spec, machines, cfg.seed)?)))
    };
    let scheme_description =
        scheme.as_ref().map_or("single-relation identity".to_string(), |s| s.describe());

    let mut b = TopologyBuilder::new().batch_size(cfg.batch_size.max(1));
    if let Some(workers) = cfg.worker_threads {
        b = b.worker_threads(workers);
    }
    let input_counts = data.iter().map(|d| d.len() as u64).collect();
    let mut source_nodes = Vec::with_capacity(n_rel);
    for (rel, source) in data.into_iter().enumerate() {
        let name = format!("src-{}", spec.relations[rel].name);
        source_nodes.push(b.add_spout(name, 1, spout(rel, source)));
    }

    let origin_to_rel: FxHashMap<NodeId, usize> =
        source_nodes.iter().enumerate().map(|(rel, &node)| (node, rel)).collect();
    let spec_arc = Arc::new(spec.clone());
    let arities: Vec<usize> = spec.relations.iter().map(|r| r.schema.arity()).collect();
    let window = cfg.window.clone();
    let budget = cfg.budget;
    let join_node = b.add_bolt("join", machines, move |machine| {
        let join = local(&spec_arc);
        let state = match &window {
            Some(w) => JoinState::Windowed {
                join: WindowJoin::event_time(join, w.spec, &arities, &w.ts_cols),
                stamps: Vec::new(),
            },
            None => JoinState::Full(join),
        };
        bolt(TaskJoin { state, origin_to_rel: origin_to_rel.clone(), machine, budget })
    });
    for (rel, &src) in source_nodes.iter().enumerate() {
        let grouping = match &scheme {
            Some(s) => Grouping::Custom(Arc::new(s.grouping_for(rel))),
            None => Grouping::Global,
        };
        b.connect(src, join_node, grouping);
    }
    let ctx = RunContext {
        join_node,
        join_tasks: machines,
        source_nodes,
        agg_node: None,
        merge_node: None,
        scheme_description,
        input_counts,
        count_only: false,
    };
    Ok((b, ctx))
}

/// Translate a multi-way join query into a runnable topology (the
/// Squall-to-Storm translation of Figure 1), shared by the collect-all,
/// streaming and distributed execution paths (workers rebuild the very
/// same topology from a shipped [`crate::cluster::JobSpec`] with empty
/// data — their spout tasks live on the coordinator).
pub(crate) fn assemble(
    spec: &MultiJoinSpec,
    data: Vec<impl Into<Source>>,
    cfg: &MultiwayConfig,
) -> Result<(Topology, RunContext)> {
    let local = cfg.local;
    // A count-only run is a `COUNT(*)`, whose one row the stream discards.
    let count_only = cfg.agg.is_none() && !cfg.collect_results;
    let agg = cfg.agg.clone().or_else(|| {
        let aggs = vec![AggSpec::count()];
        count_only.then(|| AggPlan { group_cols: Vec::new(), aggs, parallelism: 1 })
    });
    // A full-history aggregate that reads no column needs only each
    // relation's join keys (§3.3's aggregated views): every source is cut to
    // them before it is routed, and the scheme and the join tasks run over
    // the cut spec (workers cut the shipped spec the same way). Windowed
    // joins keep whole rows: the window predicate reads event-time columns.
    let minimal_views = cfg.window.is_none()
        && agg.as_ref().is_some_and(|a| {
            a.group_cols.is_empty() && a.aggs.iter().all(|s| s.func == AggFunc::Count)
        });
    let mut data: Vec<Source> = data.into_iter().map(Into::into).collect();
    let cut = minimal_views.then(|| spec.project(&vec![Vec::new(); spec.n_relations()]));
    if let Some((_, kept)) = &cut {
        for ((source, cols), def) in data.iter_mut().zip(kept).zip(&spec.relations) {
            if cols.len() < def.schema.arity() {
                source.narrow(cols);
            }
        }
    }
    let spec = cut.as_ref().map_or(spec, |(cut, _)| cut);
    // Every aggregate's first phase runs in the join tasks; a windowed
    // one's forward their event-time watermarks behind their partials so
    // the shards can close windows while the stream still runs. The
    // join-output event-time columns are built in the task factory, after
    // the plan checks that make them well defined.
    let (window, first_phase) = (cfg.window.clone(), agg.clone());
    let arities: Vec<usize> = spec.relations.iter().map(|r| r.schema.arity()).collect();
    let task_arities = arities.clone();
    let (mut b, mut ctx) = wire_join_stage(
        spec,
        data,
        cfg,
        |_rel, source| {
            let shared = Arc::new(source);
            Box::new(move |_task| -> Box<dyn Spout> {
                Box::new(IterSpoutVec::over(Arc::clone(&shared), 0, 1))
            })
        },
        move |spec| make_local(local, spec),
        move |join| {
            let bolt = JoinBolt::over(join);
            Box::new(match &first_phase {
                Some(agg) => bolt.with_aggregate(
                    window
                        .as_ref()
                        .map(|w| (w.spec, squall_join::output_ts_cols(&task_arities, &w.ts_cols))),
                    agg.group_cols.clone(),
                    agg.aggs.clone(),
                ),
                None => bolt,
            })
        },
    )?;
    ctx.count_only = count_only;

    // The second phase, group-hash sharded: partial rows lead with their
    // group — after `(first, last)` under a window — so a `Fields` grouping
    // on it gives each of the `parallelism` tasks a disjoint set of groups,
    // and shard state and shard output never overlap. No group columns
    // hashes every row to one shard; the others stay idle.
    if let Some(agg) = agg {
        let AggPlan { group_cols, aggs, parallelism: shards } = agg;
        // Full history is the one window that closes at end-of-stream.
        let (wspec, ts_cols, lead) = match &cfg.window {
            Some(w) => (w.spec, squall_join::output_ts_cols(&arities, &w.ts_cols), 2),
            None => (WindowSpec::FullHistory, Vec::new(), 0),
        };
        let partial_groups = (lead..lead + group_cols.len()).collect();
        let n_upstream = ctx.join_tasks;
        let node = b.add_bolt("agg", shards, move |_task| {
            let (group_cols, aggs) = (group_cols.clone(), aggs.clone());
            Box::new(WindowedAggBolt::new(wspec, ts_cols.clone(), group_cols, aggs, n_upstream))
        });
        if cfg.window.is_some() {
            // Shards close windows against the minimum watermark across the
            // join tasks and forward their boundaries, idle ones too; one
            // merge task restores the global window order ([`WindowMergeBolt`]).
            let merge =
                b.add_bolt("agg-merge", 1, move |_task| Box::new(WindowMergeBolt::new(shards)));
            b.connect(node, merge, Grouping::Global);
            ctx.merge_node = Some(merge);
        }
        b.connect(ctx.join_node, node, Grouping::Fields(partial_groups));
        ctx.agg_node = Some(node);
    }

    Ok((b.build()?, ctx))
}

/// Build the [`JoinReport`] of a drained run, one-shot or standing: the
/// rows went to the stream's consumer (or into the view), so `results`
/// starts empty. For distributed runs the remote peers' metric
/// snapshots must already be merged into `outcome.metrics` — the report
/// then measures the whole cluster, and `loads` is identical to the
/// single-process run.
pub(crate) fn summarize(
    ctx: RunContext,
    outcome: RunOutcome,
    transport: Option<TransportStats>,
) -> JoinReport {
    let metrics = &outcome.metrics;
    let join_metrics = metrics.node(ctx.join_node);
    let sinks = [ctx.merge_node.or(ctx.agg_node).unwrap_or(ctx.join_node)];
    JoinReport {
        results: Vec::new(),
        result_count: join_metrics.total_emitted(),
        input_count: ctx.input_counts.iter().sum(),
        input_counts: ctx.input_counts,
        loads: join_metrics.received.clone(),
        replication_factor: metrics.replication_factor(ctx.join_node, &ctx.source_nodes),
        skew_degree: join_metrics.skew_degree(),
        network_factor: metrics.intermediate_network_factor(&ctx.source_nodes, &sinks),
        elapsed: outcome.elapsed,
        scheme_description: ctx.scheme_description,
        scheduler: outcome.metrics.scheduler.clone(),
        error: outcome.error,
        transport,
        maintenance: None,
    }
}

/// Run a multi-way join (optionally + aggregation) end to end:
/// [`run_multiway_stream`], drained — the collected answer is the integral
/// of the stream, on one process or under a [`MultiwayConfig::cluster`]
/// split alike.
///
/// `data[rel]` is relation `rel`'s input stream. Deterministic: the same
/// inputs, config and seed produce the same loads and results, wherever
/// the tasks are placed.
pub fn run_multiway(
    spec: &MultiJoinSpec,
    data: Vec<Vec<Tuple>>,
    cfg: &MultiwayConfig,
) -> Result<JoinReport> {
    let mut stream = run_multiway_stream(spec, data, cfg)?;
    let rows: Vec<Tuple> = stream.by_ref().collect();
    let mut report = stream.finish();
    report.results = rows;
    Ok(report)
}

/// Launch a multi-way join and return a handle that yields result tuples
/// *while the topology runs* — the streaming face of the driver.
///
/// Results arrive in production order (no global sort); once the stream is
/// exhausted (or [`MultiwayStream::finish`] is called) the full
/// [`JoinReport`] is available, with `results` left empty since the rows
/// were handed to the consumer. In count-only mode the stream yields no
/// rows: the report's `result_count` is the answer. A run that aborts
/// mid-way ends the stream early; the report's `error` field records why.
/// Each relation's input is an owned `Vec<Tuple>` or a [`Source`] read in
/// place.
pub fn run_multiway_stream(
    spec: &MultiJoinSpec,
    data: Vec<impl Into<Source>>,
    cfg: &MultiwayConfig,
) -> Result<MultiwayStream> {
    let (topology, ctx) = assemble(spec, data, cfg)?;
    let (handle, cluster) = crate::cluster::launch(topology, spec, cfg, None, None, None)?;
    Ok(MultiwayStream { handle: Some(handle), cluster, ctx: Some(ctx), report: None })
}

/// Iterator over a running multi-way join's output tuples. See
/// [`run_multiway_stream`].
pub struct MultiwayStream {
    // Field order is drop order: the local pool joins (punctuating every
    // egress queue) before the cluster links close.
    handle: Option<RunHandle>,
    cluster: Option<ClusterRun>,
    ctx: Option<RunContext>,
    report: Option<JoinReport>,
}

impl MultiwayStream {
    /// The run report; `Some` only after the stream is exhausted.
    pub fn report(&self) -> Option<&JoinReport> {
        self.report.as_ref()
    }

    /// Stop consuming early: abort the run, discard remaining output and
    /// return the (partial) report.
    pub fn cancel(self) -> JoinReport {
        if let Some(h) = &self.handle {
            h.abort();
        }
        self.finish()
    }

    /// Drain any remaining output and return the final report.
    pub fn finish(mut self) -> JoinReport {
        while self.next().is_some() {}
        self.report.take().expect("report built on exhaustion")
    }

    fn complete(&mut self) {
        if let (Some(handle), Some(ctx)) = (self.handle.take(), self.ctx.take()) {
            let (outcome, transport) = crate::cluster::finish(handle, self.cluster.take());
            self.report = Some(summarize(ctx, outcome, transport));
        }
    }
}

impl Iterator for MultiwayStream {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        loop {
            match self.handle.as_mut()?.recv() {
                Some(_) if self.ctx.as_ref().is_some_and(|ctx| ctx.count_only) => continue,
                Some((_, tuple)) => return Some(tuple),
                None => {
                    self.complete();
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::{tuple, DataType, Schema, SplitMix64, Value};
    use squall_expr::{BinOp, CmpOp, JoinAtom, RelationDef, ScalarExpr};
    use squall_join::naive::{naive_join, same_multiset};

    fn rst_spec(skew_z: bool) -> MultiJoinSpec {
        let mut s_schema = Schema::of(&[("y", DataType::Int), ("z", DataType::Int)]);
        let mut t_schema = Schema::of(&[("z", DataType::Int), ("t", DataType::Int)]);
        if skew_z {
            s_schema.set_skewed("z").unwrap();
            t_schema.set_skewed("z").unwrap();
        }
        MultiJoinSpec::new(
            vec![
                RelationDef::new(
                    "R",
                    Schema::of(&[("x", DataType::Int), ("y", DataType::Int)]),
                    300,
                ),
                RelationDef::new("S", s_schema, 300),
                RelationDef::new("T", t_schema, 300),
            ],
            vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)],
        )
        .unwrap()
    }

    fn rst_data(n: usize, dom: i64, seed: u64) -> Vec<Vec<Tuple>> {
        let mut rng = SplitMix64::new(seed);
        let mut mk = |_: usize| -> Vec<Tuple> {
            (0..n).map(|_| tuple![rng.next_range(0, dom), rng.next_range(0, dom)]).collect()
        };
        vec![mk(0), mk(1), mk(2)]
    }

    #[test]
    fn all_schemes_and_locals_match_oracle() {
        let spec = rst_spec(false);
        let data = rst_data(120, 12, 5);
        let oracle = naive_join(&spec, &data);
        assert!(!oracle.is_empty());
        for scheme in [SchemeKind::Hash, SchemeKind::Random, SchemeKind::Hybrid] {
            for local in [LocalJoinKind::Traditional, LocalJoinKind::DBToaster] {
                let cfg = MultiwayConfig::new(scheme, local, 8);
                let report = run_multiway(&spec, data.clone(), &cfg).unwrap();
                assert!(report.error.is_none(), "{scheme} {local}: {:?}", report.error);
                assert!(
                    same_multiset(&report.results, &oracle),
                    "{scheme} + {local}: {} results vs oracle {} (scheme {})",
                    report.results.len(),
                    oracle.len(),
                    report.scheme_description,
                );
            }
        }
    }

    #[test]
    fn count_only_mode_counts_exactly() {
        let spec = rst_spec(false);
        let data = rst_data(100, 10, 7);
        let oracle = naive_join(&spec, &data);
        let cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 4).count_only();
        let report = run_multiway(&spec, data, &cfg).unwrap();
        assert!(report.results.is_empty());
        assert_eq!(report.result_count, oracle.len() as u64);
    }

    /// A count-only run cuts each source to its join keys before routing;
    /// its count and loads equal a whole-row run's under every scheme and
    /// local join. R's key is its second column, S and T each drop a column,
    /// and under Random and Hybrid (Hash routes no theta atom) S and T also
    /// compare through a theta atom.
    #[test]
    fn count_only_join_keys_match_whole_rows() {
        let ints = |names: &[&str]| {
            Schema::of(&names.iter().map(|&n| (n, DataType::Int)).collect::<Vec<_>>())
        };
        let relations = vec![
            RelationDef::new("R", ints(&["pad", "k"]), 60),
            RelationDef::new("S", ints(&["k", "v", "j", "x"]), 60),
            RelationDef::new("T", ints(&["w", "j", "junk"]), 60),
        ];
        let mut rng = SplitMix64::new(11);
        let mut row = |arity| Tuple::new((0..arity).map(|_| rng.next_range(0, 6).into()).collect());
        let data: Vec<Vec<Tuple>> =
            relations.iter().map(|r| (0..60).map(|_| row(r.schema.arity())).collect()).collect();
        for scheme in [SchemeKind::Hash, SchemeKind::Random, SchemeKind::Hybrid] {
            let mut atoms = vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 2, 2, 1)];
            if scheme != SchemeKind::Hash {
                atoms.push(JoinAtom {
                    left_rel: 1,
                    left_col: 3,
                    op: CmpOp::Lt,
                    right_rel: 2,
                    right_col: 0,
                });
            }
            let spec = MultiJoinSpec::new(relations.clone(), atoms).unwrap();
            for local in [LocalJoinKind::Traditional, LocalJoinKind::DBToaster] {
                let whole = MultiwayConfig::new(scheme, local, 8);
                let rows = run_multiway(&spec, data.clone(), &whole).unwrap();
                let counted = run_multiway(&spec, data.clone(), &whole.count_only()).unwrap();
                assert!(rows.error.is_none() && counted.error.is_none(), "{scheme} {local}");
                assert!(rows.results.len() > 100, "{scheme} {local}: too few results");
                assert_eq!(counted.result_count, rows.results.len() as u64, "{scheme} {local}");
                assert_eq!(counted.loads, rows.loads, "{scheme} {local}");
            }
        }
    }

    #[test]
    fn aggregate_stage_runs() {
        // SELECT R.x, COUNT(*) GROUP BY R.x over the RST join.
        let spec = rst_spec(false);
        let data = rst_data(80, 8, 8);
        let oracle = naive_join(&spec, &data);
        let cfg = MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, 4).with_agg(
            AggPlan { group_cols: vec![0], aggs: vec![AggSpec::count()], parallelism: 3 },
        );
        let report = run_multiway(&spec, data, &cfg).unwrap();
        let total: i64 = report.results.iter().map(|t| t.get(1).as_int().unwrap()).sum();
        assert_eq!(total as usize, oracle.len(), "counts must sum to the join size");
        // Groups are disjoint across agg tasks (Fields grouping).
        let mut keys: Vec<_> = report.results.iter().map(|t| t.get(0).clone()).collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "every group emitted exactly once");
    }

    #[test]
    fn sum_aggregate_matches_oracle() {
        let spec = rst_spec(false);
        let data = rst_data(80, 8, 9);
        let oracle = naive_join(&spec, &data);
        let expected: i64 = oracle.iter().map(|t| t.get(5).as_int().unwrap()).sum();
        let cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::Traditional, 4).with_agg(
            AggPlan {
                group_cols: vec![],
                aggs: vec![AggSpec::sum(ScalarExpr::col(5))],
                parallelism: 1,
            },
        );
        let report = run_multiway(&spec, data, &cfg).unwrap();
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.results[0], tuple![expected]);
    }

    /// Two event streams (key, ts), event-time sorted — the input shape
    /// windowed topologies require.
    fn event_streams(n: usize, dom: i64, ts_step: i64, seed: u64) -> Vec<Vec<Tuple>> {
        let mut rng = SplitMix64::new(seed);
        (0..2)
            .map(|_| {
                let mut ts = 0i64;
                (0..n)
                    .map(|_| {
                        ts += rng.next_range(0, ts_step);
                        tuple![rng.next_range(0, dom), ts]
                    })
                    .collect()
            })
            .collect()
    }

    fn two_stream_spec() -> MultiJoinSpec {
        let s = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
        MultiJoinSpec::new(
            vec![RelationDef::new("A", s.clone(), 100), RelationDef::new("B", s, 100)],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap()
    }

    /// Brute-force per-window GROUP BY COUNT oracle over the pair join.
    /// Windows: tumbling `[k·w, (k+1)·w)`, sliding `[s, s+size]` for every
    /// integer start — a row counts in a window iff both timestamps lie
    /// inside. Rows are `(start, end_inclusive, key, count)`.
    fn window_count_oracle(data: &[Vec<Tuple>], spec: WindowSpec) -> Vec<Tuple> {
        use std::collections::BTreeMap;
        let mut per_window: BTreeMap<(u64, i64), i64> = BTreeMap::new();
        for x in &data[0] {
            for y in &data[1] {
                if x.get(0) != y.get(0) {
                    continue;
                }
                let (tx, ty) =
                    (x.get(1).as_int().unwrap() as u64, y.get(1).as_int().unwrap() as u64);
                let (lo, hi) = (tx.min(ty), tx.max(ty));
                let key = x.get(0).as_int().unwrap();
                match spec {
                    WindowSpec::Tumbling { width } => {
                        if tx / width == ty / width {
                            *per_window.entry((hi / width * width, key)).or_insert(0) += 1;
                        }
                    }
                    WindowSpec::Sliding { size } => {
                        for s in hi.saturating_sub(size)..=lo {
                            *per_window.entry((s, key)).or_insert(0) += 1;
                        }
                    }
                    WindowSpec::FullHistory => unreachable!(),
                }
            }
        }
        per_window
            .into_iter()
            .map(|((start, key), count)| {
                let end = match spec {
                    WindowSpec::Tumbling { width } => start + width - 1,
                    WindowSpec::Sliding { size } => start + size,
                    WindowSpec::FullHistory => unreachable!(),
                };
                tuple![start as i64, end as i64, key, count]
            })
            .collect()
    }

    #[test]
    fn windowed_aggregate_matches_per_window_oracle() {
        let spec = two_stream_spec();
        for (wspec, seed) in
            [(WindowSpec::Tumbling { width: 10 }, 21u64), (WindowSpec::Sliding { size: 7 }, 22)]
        {
            let data = event_streams(60, 5, 4, seed);
            let oracle = window_count_oracle(&data, wspec);
            assert!(!oracle.is_empty(), "oracle must exercise something");
            let cfg = MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, 4)
                .with_window(WindowPlan { spec: wspec, ts_cols: vec![1, 1] })
                .with_agg(AggPlan {
                    group_cols: vec![0],
                    aggs: vec![AggSpec::count()],
                    parallelism: 3, // sharded: 3 tasks + the ordered merge
                });
            let report = run_multiway(&spec, data, &cfg).unwrap();
            assert!(report.error.is_none(), "{:?}", report.error);
            let mut rows = report.results.clone();
            rows.sort();
            assert_eq!(rows, oracle, "{wspec:?}");
        }
    }

    #[test]
    fn windowed_aggregate_streams_closed_windows_in_order() {
        let spec = two_stream_spec();
        let wspec = WindowSpec::Tumbling { width: 8 };
        let data = event_streams(80, 4, 3, 5);
        let oracle = window_count_oracle(&data, wspec);
        let cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 3)
            .with_window(WindowPlan { spec: wspec, ts_cols: vec![1, 1] })
            .with_agg(AggPlan {
                group_cols: vec![0],
                aggs: vec![AggSpec::count()],
                parallelism: 1,
            });
        let mut stream = run_multiway_stream(&spec, data, &cfg).unwrap();
        let streamed: Vec<Tuple> = stream.by_ref().collect();
        assert!(stream.report().unwrap().error.is_none());
        // Production order is window order: starts are non-decreasing.
        let starts: Vec<i64> = streamed.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted, "closed windows must stream in window order");
        let mut rows = streamed;
        rows.sort();
        assert_eq!(rows, oracle);
    }

    #[test]
    fn sharded_windowed_agg_is_byte_identical_to_single_task() {
        // The tentpole contract: group-hash sharding + the watermark-driven
        // k-way merge reproduce the 1-task plane's output *byte for byte*,
        // in the same order — at any parallelism.
        let spec = two_stream_spec();
        for (wspec, seed) in
            [(WindowSpec::Tumbling { width: 10 }, 33u64), (WindowSpec::Sliding { size: 6 }, 34)]
        {
            let data = event_streams(80, 5, 4, seed);
            let run = |parallelism: usize| {
                let cfg = MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, 4)
                    .with_window(WindowPlan { spec: wspec, ts_cols: vec![1, 1] })
                    .with_agg(AggPlan {
                        group_cols: vec![0],
                        // COUNT plus SUM of an expression: exercises the
                        // precomputed-input accumulate path, not just the
                        // input-less counter bump.
                        aggs: vec![AggSpec::count(), AggSpec::sum(ScalarExpr::col(1))],
                        parallelism,
                    });
                let mut stream = run_multiway_stream(&spec, data.clone(), &cfg).unwrap();
                let rows: Vec<Tuple> = stream.by_ref().collect();
                let report = stream.finish();
                assert!(report.error.is_none(), "{:?}", report.error);
                rows
            };
            let baseline = run(1);
            assert!(!baseline.is_empty());
            for p in [2usize, 8] {
                assert_eq!(run(p), baseline, "parallelism {p} vs 1, {wspec:?}");
            }
        }
    }

    #[test]
    fn idle_shards_never_strand_the_merge() {
        // One live group at parallelism 8: seven shards never receive a
        // data row. They must still close (nothing) on the broadcast join
        // watermarks, forward their boundaries, and receive the final
        // u64::MAX watermark at Eos — otherwise the merge sink would hold
        // every released window until end-of-stream or hang a window open.
        let spec = two_stream_spec();
        let wspec = WindowSpec::Tumbling { width: 4 };
        let data = event_streams(40, 1, 3, 35); // dom = 1: single group key
        let oracle = window_count_oracle(&data, wspec);
        assert!(!oracle.is_empty());
        let cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 3)
            .with_window(WindowPlan { spec: wspec, ts_cols: vec![1, 1] })
            .with_agg(AggPlan {
                group_cols: vec![0],
                aggs: vec![AggSpec::count()],
                parallelism: 8,
            });
        let mut stream = run_multiway_stream(&spec, data, &cfg).unwrap();
        let streamed: Vec<Tuple> = stream.by_ref().collect();
        assert!(stream.report().unwrap().error.is_none());
        let starts: Vec<i64> = streamed.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted, "window order survives idle shards");
        assert_eq!(streamed, oracle, "single-group rows are already window-ordered");
    }

    #[test]
    fn memory_budget_aborts_with_overflow() {
        let spec = rst_spec(false);
        let data = rst_data(400, 4, 10);
        let cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2)
            .count_only()
            .with_budget(50);
        let report = run_multiway(&spec, data, &cfg).unwrap();
        assert!(matches!(report.error, Some(SquallError::MemoryOverflow { .. })));
        // Partial metrics still available for extrapolation (§7.3).
        assert!(report.input_count > 0);
    }

    #[test]
    fn skewed_data_hybrid_beats_hash_on_max_load() {
        // zipf-style: z concentrated on one value → Hash-Hypercube piles
        // one machine; Hybrid randomizes the skewed dimension.
        let spec = rst_spec(true);
        let mut rng = SplitMix64::new(11);
        let n = 600;
        let r: Vec<Tuple> =
            (0..n).map(|_| tuple![rng.next_range(0, 50), rng.next_range(0, 50)]).collect();
        // 80% of S.z and T.z are the hot key 7.
        let hot = |rng: &mut SplitMix64| {
            if rng.next_f64() < 0.8 {
                7i64
            } else {
                rng.next_range(0, 50)
            }
        };
        let s: Vec<Tuple> = (0..n).map(|_| tuple![rng.next_range(0, 50), hot(&mut rng)]).collect();
        let t: Vec<Tuple> = (0..n).map(|_| tuple![hot(&mut rng), rng.next_range(0, 50)]).collect();
        let data = vec![r, s, t];

        let hash = run_multiway(
            &rst_spec(false), // skew flags off → Hash == Hybrid dims; use Hash kind
            data.clone(),
            &MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 8).count_only(),
        )
        .unwrap();
        let hybrid = run_multiway(
            &spec,
            data.clone(),
            &MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, 8).count_only(),
        )
        .unwrap();
        assert_eq!(hash.result_count, hybrid.result_count, "same join output");
        assert!(
            (hybrid.max_load() as f64) < hash.max_load() as f64 * 0.75,
            "hybrid max load {} should beat hash {} (hybrid scheme: {})",
            hybrid.max_load(),
            hash.max_load(),
            hybrid.scheme_description,
        );
        assert!(hybrid.skew_degree < hash.skew_degree);
    }

    #[test]
    fn replication_factor_reported() {
        let spec = rst_spec(false);
        let data = rst_data(100, 10, 12);
        let cfg = MultiwayConfig::new(SchemeKind::Random, LocalJoinKind::DBToaster, 8).count_only();
        let report = run_multiway(&spec, data, &cfg).unwrap();
        // Random-Hypercube replicates: factor > 1; and loads are balanced.
        assert!(report.replication_factor > 1.0);
        assert!(report.skew_degree < 1.5, "random scheme balances load");
        assert!(report.network_factor > 0.0);
    }

    #[test]
    fn unbounded_or_empty_window_plan_rejected() {
        // FullHistory is spelled as no window plan, so naming it is a typed
        // error; a zero width or size divides by zero at the first
        // eviction, and nothing above `run_multiway` (the SQL planner has
        // its own check) stands in the way of it.
        let spec = two_stream_spec();
        for wspec in [
            WindowSpec::FullHistory,
            WindowSpec::Tumbling { width: 0 },
            WindowSpec::Sliding { size: 0 },
        ] {
            let cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2)
                .with_window(WindowPlan { spec: wspec, ts_cols: vec![1, 1] })
                .with_agg(AggPlan {
                    group_cols: vec![0],
                    aggs: vec![AggSpec::count()],
                    parallelism: 1,
                });
            let err = run_multiway(&spec, event_streams(10, 3, 2, 1), &cfg).unwrap_err();
            assert!(matches!(err, SquallError::InvalidPlan(_)), "{wspec:?}: {err}");
        }
        // A pool of no threads and an aggregate of no tasks would each trip
        // an assert in the topology builder.
        let base = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2);
        let mut no_workers = base.clone();
        no_workers.worker_threads = Some(0);
        // Nor a count so large that sizing anything by it never returns, nor
        // a group-by column the join output does not have (an index panic on
        // the join task that routes by it).
        let mut too_many = base.clone();
        too_many.machines = 1 << 33;
        let count = |group_cols, parallelism| {
            base.clone().with_agg(AggPlan { group_cols, aggs: vec![AggSpec::count()], parallelism })
        };
        for cfg in [no_workers, count(vec![0], 0), too_many, count(vec![0], 1 << 33)] {
            let err = run_multiway(&spec, event_streams(10, 3, 2, 1), &cfg).unwrap_err();
            assert!(matches!(err, SquallError::InvalidPlan(_)), "{err}");
        }
        let err = run_multiway(&spec, event_streams(10, 3, 2, 1), &count(vec![99], 1)).unwrap_err();
        match err {
            SquallError::InvalidPlan(m) => {
                assert!(m.contains("99") && m.contains("4 columns"), "{m}")
            }
            other => panic!("expected InvalidPlan, got {other}"),
        }
    }

    #[test]
    fn negative_event_time_in_a_windowed_join_is_a_typed_error() {
        // Cast to u64 a −1 timestamp becomes u64::MAX: it would jump the
        // watermark and evict every stored tuple without a word.
        let spec = two_stream_spec();
        let mut data = event_streams(20, 3, 2, 2);
        data[0].insert(0, tuple![1, -1]);
        let cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2).with_window(
            WindowPlan { spec: WindowSpec::Tumbling { width: 8 }, ts_cols: vec![1, 1] },
        );
        let report = run_multiway(&spec, data, &cfg).unwrap();
        match report.error {
            Some(SquallError::Runtime(msg)) => {
                assert!(msg.contains("negative event-time timestamp -1"), "{msg}")
            }
            other => panic!("expected a typed runtime error, got {other:?}"),
        }
    }

    #[test]
    fn dbtoaster_join_past_its_relation_limit_is_a_typed_error() {
        // Relation sets are `u32` masks: a longer DBToaster join panicked
        // building its views inside the launch. Traditional has no such
        // limit and answers the same plan.
        let n = MAX_RELATIONS + 1;
        let rel = |i: usize| {
            let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
            RelationDef::new(format!("R{i}"), schema, 1)
        };
        let atoms = (1..n).map(|i| JoinAtom::eq(i - 1, 1, i, 0)).collect();
        let spec = MultiJoinSpec::new((0..n).map(rel).collect(), atoms).unwrap();
        let data = vec![vec![tuple![1, 1]]; n];
        let base = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2);
        for cfg in [base.clone(), base.count_only()] {
            match run_multiway(&spec, data.clone(), &cfg) {
                Err(SquallError::InvalidPlan(m)) => assert!(m.contains("31"), "{m}"),
                other => panic!("expected InvalidPlan, got {other:?}"),
            }
        }
        let cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::Traditional, 2);
        let report = run_multiway(&spec, data, &cfg).unwrap();
        assert!(report.error.is_none(), "{:?}", report.error);
        assert_eq!(report.results, vec![Tuple::new(vec![Value::Int(1); 2 * n])]);
    }

    #[test]
    fn mismatched_data_rejected() {
        let spec = rst_spec(false);
        let cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2);
        assert!(run_multiway(&spec, vec![vec![], vec![]], &cfg).is_err());
    }

    #[test]
    fn single_relation_runs_on_one_identity_task() {
        // No scheme partitions one relation (Hash has no join key to hash):
        // the shared join stage runs it on one task, as the standing plane
        // always did.
        let schema = Schema::of(&[("a", DataType::Int)]);
        let spec = MultiJoinSpec::new(vec![RelationDef::new("R", schema, 3)], vec![]).unwrap();
        let rows = vec![tuple![1], tuple![2], tuple![2]];
        for scheme in [SchemeKind::Hash, SchemeKind::Random, SchemeKind::Hybrid] {
            for local in [LocalJoinKind::Traditional, LocalJoinKind::DBToaster] {
                let cfg = MultiwayConfig::new(scheme, local, 4);
                let mut report = run_multiway(&spec, vec![rows.clone()], &cfg).unwrap();
                assert!(report.error.is_none(), "{scheme} {local}: {:?}", report.error);
                report.results.sort();
                assert_eq!(report.results, rows, "{scheme} {local}");
                assert_eq!(report.loads, vec![3], "{scheme} {local}");
            }
        }
    }

    #[test]
    fn streaming_yields_same_results_as_collected_run() {
        let spec = rst_spec(false);
        let data = rst_data(100, 10, 13);
        let oracle = naive_join(&spec, &data);
        let cfg = MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, 4);
        let mut stream = run_multiway_stream(&spec, data, &cfg).unwrap();
        assert!(stream.report().is_none(), "report only after exhaustion");
        let streamed: Vec<Tuple> = stream.by_ref().collect();
        let report = stream.report().expect("exhausted");
        assert!(report.error.is_none());
        assert!(report.results.is_empty(), "rows were handed to the consumer");
        assert_eq!(report.result_count, oracle.len() as u64);
        assert!(same_multiset(&streamed, &oracle));
        assert!(report.loads.iter().sum::<u64>() > 0);
    }

    #[test]
    fn streaming_count_only_report_tallies_counters() {
        let spec = rst_spec(false);
        let data = rst_data(100, 10, 7);
        let oracle = naive_join(&spec, &data);
        let cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 4).count_only();
        let stream = run_multiway_stream(&spec, data, &cfg).unwrap();
        let report = stream.finish();
        assert_eq!(report.result_count, oracle.len() as u64);
    }

    #[test]
    fn windowed_aggregate_result_count_is_the_in_window_join_count() {
        // The join tasks ship partial aggregates, not results; the report
        // still counts join results.
        let spec = two_stream_spec();
        for (wspec, seed) in
            [(WindowSpec::Tumbling { width: 10 }, 41u64), (WindowSpec::Sliding { size: 7 }, 42)]
        {
            let data = event_streams(80, 5, 4, seed);
            let ts = |t: &Tuple| t.get(1).as_int().unwrap() as u64;
            let joined = data[0]
                .iter()
                .flat_map(|x| data[1].iter().map(move |y| (x, y)))
                .filter(|(x, y)| {
                    x.get(0) == y.get(0) && wspec.contains(ts(x).min(ts(y)), ts(x).max(ts(y)))
                })
                .count() as u64;
            assert!(joined > 0);
            let cfg = MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, 4)
                .with_window(WindowPlan { spec: wspec, ts_cols: vec![1, 1] })
                .with_agg(AggPlan {
                    group_cols: vec![0],
                    aggs: vec![AggSpec::count()],
                    parallelism: 2,
                });
            let report = run_multiway(&spec, data, &cfg).unwrap();
            assert!(report.error.is_none(), "{:?}", report.error);
            assert_eq!(report.result_count, joined, "{wspec:?}");
        }
    }

    /// One seeded case of [`two_phase_window_agg_model`]; every assertion
    /// names the seed.
    fn two_phase_case(seed: u64) {
        use std::collections::{BTreeMap, BTreeSet};
        let mut rng = SplitMix64::new(seed);
        let extent = rng.next_range(1, 16) as u64;
        let wspec = match rng.next_below(3) {
            0 => Some(WindowSpec::Tumbling { width: extent }),
            1 => Some(WindowSpec::Sliding { size: extent }),
            _ => None,
        };
        let machines = rng.next_range(1, 6) as usize;
        let shards = rng.next_range(1, 4) as usize;
        let batch_size = [1, 64][rng.next_below(2)];
        // Globally, by the join key (each group on one join task) or by
        // A.v (a group's partials from several tasks, merged by one shard).
        let group_cols = [vec![], vec![0], vec![1], vec![1]][rng.next_below(4)].clone();
        let (dom, n) = (rng.next_range(0, 4), rng.next_range(0, 40) as usize);
        // A(k, v, ts) and B(k, ts), each in event-time order.
        let mut stream = |with_v: bool| -> Vec<Tuple> {
            let mut ts = 0;
            (0..n)
                .map(|_| {
                    ts += rng.next_range(0, 4);
                    let k = rng.next_range(0, dom);
                    if with_v {
                        tuple![k, rng.next_range(-9, 9), ts]
                    } else {
                        tuple![k, ts]
                    }
                })
                .collect()
        };
        let data = vec![stream(true), stream(false)];
        let int = |name: &'static str| (name, DataType::Int);
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("A", Schema::of(&[int("k"), int("v"), int("ts")]), 40),
                RelationDef::new("B", Schema::of(&[int("k"), int("ts")]), 40),
            ],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap();
        // Over the join output (A.k, A.v, A.ts, B.k, B.ts): COUNT, SUM(A.v),
        // SUM(2.0 · A.v) — a Float, but integer-valued, so exact however
        // its additions are grouped — and AVG(A.v).
        let double = ScalarExpr::bin(BinOp::Mul, ScalarExpr::lit(2.0), ScalarExpr::col(1));
        let aggs = vec![
            AggSpec::count(),
            AggSpec::sum_col(1),
            AggSpec::sum(double),
            AggSpec::avg(ScalarExpr::col(1)),
        ];
        let mut cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, machines)
            .with_agg(AggPlan { group_cols: group_cols.clone(), aggs, parallelism: shards });
        cfg.window = wspec.map(|spec| WindowPlan { spec, ts_cols: vec![2, 1] });
        cfg.batch_size = batch_size;
        cfg.worker_threads = Some(2);

        // The oracle: per (window, group) accumulators over the in-window
        // pairs — under full history, per group over every pair, keyed as
        // window 0 — and the join task of each pair: under the Hash
        // scheme, the one machine both of its rows route to.
        let scheme = build_scheme(SchemeKind::Hash, &spec, machines, cfg.seed).unwrap();
        let targets = |rel: usize, row: &Tuple| {
            let mut out = Vec::new();
            scheme.route(rel, row, &mut SplitMix64::new(0), &mut out);
            out
        };
        let mut windows: BTreeMap<(u64, Vec<Value>), (i64, i64)> = BTreeMap::new();
        let mut keys = BTreeSet::new();
        let mut results = 0u64;
        for a in &data[0] {
            for b in &data[1] {
                let ta = a.get(2).as_int().unwrap() as u64;
                let tb = b.get(1).as_int().unwrap() as u64;
                let (lo, hi) = (ta.min(tb), ta.max(tb));
                if a.get(0) != b.get(0) || wspec.is_some_and(|w| !w.contains(lo, hi)) {
                    continue;
                }
                results += 1;
                let group: Vec<Value> = group_cols.iter().map(|&c| a.get(c).clone()).collect();
                let range = wspec.map_or(0..=0, |w| w.window_starts(lo, hi).unwrap());
                let on_b = targets(1, b);
                let task = targets(0, a).into_iter().find(|t| on_b.contains(t));
                let task = task.expect("a pair meets on one task");
                keys.insert((task, *range.start(), group.clone()));
                for start in range {
                    let acc = windows.entry((start, group.clone())).or_insert((0, 0));
                    acc.0 += 1;
                    acc.1 += a.get(1).as_int().unwrap();
                }
            }
        }
        let oracle: Vec<Tuple> = windows
            .into_iter()
            .map(|((start, group), (count, sum))| {
                let mut row = match wspec {
                    Some(w) => vec![Value::Int(start as i64), Value::Int(w.end_of(start) as i64)],
                    None => Vec::new(),
                };
                row.extend(group);
                row.extend([
                    Value::Int(count),
                    Value::Int(sum),
                    Value::Float(2.0 * sum as f64),
                    Value::Float(sum as f64 / count as f64),
                ]);
                Tuple::new(row)
            })
            .collect();

        let (topology, ctx) = assemble(&spec, data, &cfg).unwrap();
        let agg_node = ctx.agg_node.expect("an aggregate stage");
        let mut outcome = topology.run();
        let case = format!(
            "seed {seed}: {wspec:?}, {machines} machines, {shards} shards, batch {batch_size}"
        );
        assert!(outcome.error.is_none(), "{case}: {:?}", outcome.error);
        let edge_rows = outcome.metrics.node(agg_node).total_received();
        let mut rows: Vec<Tuple> =
            std::mem::take(&mut outcome.outputs).into_iter().map(|(_, t)| t).collect();
        if wspec.is_none() {
            rows.sort(); // full-history shards finish in any order
        }
        assert_eq!(rows, oracle, "{case}");
        assert_eq!(summarize(ctx, outcome, None).result_count, results, "{case}");
        assert!(edge_rows <= results, "{case}: {edge_rows} partial rows, {results} join results");
        if let None | Some(WindowSpec::Tumbling { .. }) = wspec {
            let bound = keys.len() as u64;
            assert!(edge_rows <= bound, "{case}: {edge_rows} partial rows, {bound} keys");
        }
    }

    /// The two-phase aggregate against a per-window oracle over seeded
    /// cases: random two-stream inputs; tumbling and sliding windows of
    /// width / size 1–16, and full history; COUNT, an Int SUM, a SUM over
    /// an integer-valued Float expression and AVG, grouped globally, by the
    /// join key or by a non-key column; 1–6 machines, 1–4 shards, batches
    /// of 1 and 64. The rows must equal the oracle's, in
    /// order under a window; `result_count` must be the (in-window) join
    /// count; the join → aggregate edge must carry at most one row per join
    /// result, under tumbling windows at most one per distinct (join task,
    /// window, group), and under full history at most one per (join task,
    /// group). 2 000 seeds in release, 100 in debug; a failure names its
    /// seed.
    #[test]
    fn two_phase_window_agg_model() {
        let seeds = if cfg!(debug_assertions) { 100 } else { 2_000 };
        (0..seeds).for_each(two_phase_case);
    }
}
