//! The unified entry point: one [`Session`] owning the catalog and
//! execution configuration, with the paper's two user-facing interfaces
//! (§2) over the same engine:
//!
//! * **declarative** — [`Session::sql`] parses SQL and runs it;
//! * **imperative** — [`Session::from`] opens a fluent [`QueryBuilder`]
//!   (`.join(..).on(..).filter(..).group_by(..).agg(..)`) that lowers to
//!   the *same* [`Query`] logical block the SQL parser produces, so both
//!   paths hit one optimizer and one runtime.
//!
//! Either path returns a [`ResultSet`] — materialized rows, a streaming
//! row iterator, and the run's [`JoinReport`] metrics — and
//! [`Session::explain`] / [`QueryBuilder::explain`] expose the optimized
//! physical plan as text.
//!
//! ```
//! use squall::{col, count, Session};
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
//! let mut sql = session.sql("SELECT R.b, S.c FROM R, S WHERE R.a = S.a").unwrap();
//! let mut imperative = session
//!     .from("R")
//!     .join("S")
//!     .on(col("R.a").eq(col("S.a")))
//!     .select([col("R.b"), col("S.c")])
//!     .run()
//!     .unwrap();
//! assert_eq!(sql.rows(), vec![tuple![20, 7]]);
//! assert_eq!(sql.rows(), imperative.rows());
//! # let _ = count; // re-exported builder helper
//! ```

use std::sync::{Arc, Mutex};

use squall_common::{FxHashMap, Result, Schema, SquallError, Tuple};
use squall_plan::physical::{execute_query, execute_query_stream, PhysicalQuery};
use squall_plan::Catalog;

pub use squall_core::cluster::ClusterSpec;
pub use squall_core::driver::{JoinReport, LocalJoinKind};
pub use squall_expr::AggFunc;
pub use squall_partition::optimizer::SchemeKind;
pub use squall_partition::{ColumnStats, TableStats};
pub use squall_plan::catalog::{SourceDef, SourceKind};
pub use squall_plan::logical::{agg, col, lit, Expr, OrderKey, Query, Window, WindowKind};
pub use squall_plan::optimizer::{OptimizerDecision, OptimizerMode};
pub use squall_plan::physical::{ExecConfig, ResultSet};
pub use squall_runtime::SchedulerStats;

/// Rows sampled per table by [`Session::analyze`] (full scan below it).
const ANALYZE_SAMPLE_CAP: usize = 10_000;

/// `COUNT(*)`.
pub fn count() -> Expr {
    agg(AggFunc::Count, None)
}

/// `SUM(expr)`.
pub fn sum(e: Expr) -> Expr {
    agg(AggFunc::Sum, Some(e))
}

/// `AVG(expr)`.
pub fn avg(e: Expr) -> Expr {
    agg(AggFunc::Avg, Some(e))
}

/// Fluent construction of a [`Session`].
///
/// ```
/// use squall::{LocalJoinKind, SchemeKind, Session};
/// let session = Session::builder()
///     .machines(8)
///     .scheme(SchemeKind::Hybrid)
///     .local(LocalJoinKind::DBToaster)
///     .seed(7)
///     .build();
/// assert_eq!(session.config().machines, 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    config: ExecConfig,
}

impl SessionBuilder {
    /// Join component parallelism (the paper's number of "machines").
    pub fn machines(mut self, machines: usize) -> SessionBuilder {
        self.config.machines = machines;
        self
    }

    /// Force a partitioning scheme. Default: Hybrid-Hypercube, which
    /// subsumes Hash and Random (§3.1).
    pub fn scheme(mut self, scheme: SchemeKind) -> SessionBuilder {
        self.config.scheme = Some(scheme);
        self
    }

    /// Local join algorithm each machine runs (§3.3).
    pub fn local(mut self, local: LocalJoinKind) -> SessionBuilder {
        self.config.local = local;
        self
    }

    /// RNG seed: the same seed, data and config reproduce the same loads
    /// and results.
    pub fn seed(mut self, seed: u64) -> SessionBuilder {
        self.config.seed = seed;
        self
    }

    /// Parallelism of the post-join aggregation component.
    pub fn agg_parallelism(mut self, parallelism: usize) -> SessionBuilder {
        self.config.agg_parallelism = parallelism;
        self
    }

    /// Tolerated hash-over-random load ratio before an attribute is marked
    /// skewed (§3.4 chooser).
    pub fn skew_slack(mut self, slack: f64) -> SessionBuilder {
        self.config.skew_slack = slack;
        self
    }

    /// Worker pool size executing every query's topology. Decoupled from
    /// [`SessionBuilder::machines`]: the cooperative executor runs any
    /// number of machines on this many OS threads (default: the host's
    /// available parallelism).
    pub fn worker_threads(mut self, n: usize) -> SessionBuilder {
        assert!(n > 0, "worker pool needs at least one thread");
        self.config.worker_threads = Some(n);
        self
    }

    /// Tuples per data-plane batch (default
    /// [`squall_runtime::DEFAULT_BATCH_SIZE`], 256; `1` = per-tuple messaging).
    /// A throughput knob: results and per-machine loads are batch-size
    /// independent, while each batch's fixed cost (buffers freed across
    /// threads, the inbox lock, a wake-up) is paid once per `n` rows.
    pub fn batch_size(mut self, n: usize) -> SessionBuilder {
        assert!(n > 0, "batch size must be positive");
        self.config.batch_size = n;
        self
    }

    /// Split every query's topology across these `squall-worker`
    /// processes (listen addresses) over TCP. The driving process is the
    /// cluster's *coordinator*: it keeps the catalog, hosts the spout
    /// tasks and its share of the join/aggregation machines, and collects
    /// results; the workers host the remaining task ranges. Results and
    /// per-machine loads are placement-independent — a clustered run
    /// returns exactly what the single-process run returns, plus
    /// per-peer wire metrics in [`JoinReport::transport`].
    ///
    /// Start each worker with `squall-worker --listen <addr>` (or
    /// [`squall_core::cluster::run_worker`] in-process); `explain` prints
    /// the task→peer placement.
    pub fn cluster<I, S>(mut self, workers: I) -> SessionBuilder
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        // An empty worker list is a misconfiguration; it surfaces as a
        // typed InvalidPlan when a query runs (no panics in
        // the builder).
        self.config.cluster = Some(ClusterSpec::new(workers));
        self
    }

    /// Checkpoint every resident view's operator state every `n` epochs
    /// (default 16; `0` disables). A checkpoint is an aligned snapshot:
    /// an epoch-tagged barrier flows through the data plane, every join
    /// task and the view sink serialize their state, and the coordinator
    /// keeps the latest complete set — the restart point for
    /// [`crate::ViewHandle::recover`] after a worker loss. One-shot
    /// queries ignore this knob.
    pub fn checkpoint_interval(mut self, n: u64) -> SessionBuilder {
        self.config.checkpoint_interval = n;
        self
    }

    /// Declare a cluster peer lost after `ms` milliseconds of heartbeat
    /// silence (default 2000; `0` disables failure detection). Peers
    /// beat at a quarter of this interval when idle; a killed worker
    /// surfaces as a typed [`squall_common::SquallError::WorkerLost`] on
    /// the view. Standing (resident view) topologies only.
    pub fn heartbeat_timeout_ms(mut self, ms: u64) -> SessionBuilder {
        self.config.heartbeat_timeout_ms = ms;
        self
    }

    /// Cost-based plan search per query (default
    /// [`OptimizerMode::On`]): join ordering by subset dynamic
    /// programming over [`Session::analyze`] statistics, plus per-scheme
    /// cost-model selection when no scheme is forced.
    /// [`OptimizerMode::Off`] preserves the written FROM order — the
    /// pre-optimizer planner, kept as the equivalence-testing oracle —
    /// and [`OptimizerMode::Exhaustive`] scores every permutation.
    /// Results are identical in every mode; only performance differs.
    pub fn optimizer(mut self, mode: OptimizerMode) -> SessionBuilder {
        self.config.optimizer = mode;
        self
    }

    /// Freeze the configuration into a [`Session`] with an empty catalog.
    pub fn build(self) -> Session {
        Session {
            catalog: Catalog::new(),
            config: self.config,
            live: Arc::default(),
            views: crate::views::ViewRegistry::default(),
        }
    }
}

/// Reference counts of *live streaming runs* per source name. A streaming
/// [`ResultSet`] holds a [`LiveGuard`] that decrements on release, so the
/// session can refuse to drop a source out from under a running query.
type LiveSources = Arc<Mutex<FxHashMap<String, usize>>>;

/// Attached to a streaming `ResultSet`; releases its sources when the run
/// stops being live (exhaustion, materialization or drop).
struct LiveGuard {
    names: Vec<String>,
    registry: LiveSources,
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        let mut live = self.registry.lock().expect("live-source registry poisoned");
        for name in &self.names {
            if let Some(count) = live.get_mut(name) {
                *count -= 1;
                if *count == 0 {
                    live.remove(name);
                }
            }
        }
    }
}

/// One engine instance: a catalog of registered relations plus the
/// execution configuration every query of this session runs with.
#[derive(Debug, Clone, Default)]
pub struct Session {
    pub(crate) catalog: Catalog,
    pub(crate) config: ExecConfig,
    /// Shared with every streaming `ResultSet` this session hands out
    /// (clones of a session share it too — they share the live runs).
    live: LiveSources,
    /// Resident materialized views (shared across clones, like `live`:
    /// a view created on one clone is visible — and feedable — on all).
    pub(crate) views: crate::views::ViewRegistry,
}

impl Session {
    /// A session with default configuration (4 machines, Hybrid-Hypercube,
    /// DBToaster local joins).
    pub fn new() -> Session {
        Session::default()
    }

    /// Start configuring a session fluently.
    ///
    /// ```
    /// let session = squall::Session::builder().machines(8).batch_size(128).build();
    /// assert_eq!(session.config().machines, 8);
    /// ```
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Register a materialized table. Rejects a duplicate source name or
    /// data that does not match the schema arity with a typed error
    /// ([`squall_common::SquallError::DuplicateSource`] /
    /// [`squall_common::SquallError::InvalidSource`]); use
    /// [`Session::deregister`] first to replace a source.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        data: Vec<Tuple>,
    ) -> Result<&mut Session> {
        self.catalog.register(name, schema, data)?;
        Ok(self)
    }

    /// Register a timestamped stream with a declared event-time column
    /// (which must exist, be `Int`, and hold non-negative values).
    /// Windowed queries over the stream measure windows on that column
    /// unless the query names one explicitly (`WINDOW ... ON <col>` /
    /// [`Window::on`]), and the runtime feeds the stream to the topology
    /// in event-time order.
    ///
    /// ```
    /// use squall::{col, Session, Window};
    /// use squall::common::{tuple, DataType, Schema};
    ///
    /// let schema = Schema::of(&[("ad_id", DataType::Int), ("ts", DataType::Int)]);
    /// let mut session = Session::builder().machines(2).build();
    /// session
    ///     .register_stream("impressions", schema.clone(), vec![tuple![1, 0]], "ts")
    ///     .unwrap()
    ///     .register_stream("clicks", schema, vec![tuple![1, 20], tuple![1, 90]], "ts")
    ///     .unwrap();
    /// let mut hits = session
    ///     .from_as("impressions", "I")
    ///     .join_as("clicks", "C")
    ///     .on(col("I.ad_id").eq(col("C.ad_id")))
    ///     .window(Window::sliding(30))
    ///     .select([col("I.ad_id"), col("C.ts")])
    ///     .run()
    ///     .unwrap();
    /// assert_eq!(hits.rows(), vec![tuple![1, 20]], "the ts=90 click is out of window");
    /// ```
    pub fn register_stream(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        data: Vec<Tuple>,
        time_col: &str,
    ) -> Result<&mut Session> {
        self.catalog.register_stream(name, schema, data, time_col)?;
        Ok(self)
    }

    /// Drop a registered source; returns whether it existed. Refuses with
    /// a typed [`SquallError::SourceInUse`] while a live streaming run
    /// ([`Session::sql_stream`] / [`QueryBuilder::stream`]) still reads
    /// the source — finish, materialize or drop the stream first — or
    /// while a resident materialized view maintains itself over the
    /// source ([`Session::create_view`]; `DROP MATERIALIZED VIEW` first).
    pub fn deregister(&mut self, name: &str) -> Result<bool> {
        let live = self.live.lock().expect("live-source registry poisoned");
        if live.get(name).copied().unwrap_or(0) > 0 {
            return Err(SquallError::SourceInUse { source: name.to_string() });
        }
        drop(live);
        if self.views.reads_source(name) {
            return Err(SquallError::SourceInUse { source: name.to_string() });
        }
        Ok(self.catalog.deregister(name))
    }

    /// The session's source catalog (registered tables and streams).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the source catalog (e.g. to move data between
    /// sessions without re-registering).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The execution configuration every query of this session runs with.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Mutable access to the execution knobs (e.g. to compare schemes on
    /// the same session, as the paper's demo UI does).
    pub fn config_mut(&mut self) -> &mut ExecConfig {
        &mut self.config
    }

    /// Declarative interface: parse and run one SQL statement,
    /// materializing the rows.
    ///
    /// Besides SELECT, the statement may be a view-lifecycle command:
    /// `CREATE MATERIALIZED VIEW <name> AS <select>` launches a resident
    /// topology maintaining the query incrementally (the returned rows
    /// are the view's initial snapshot; see [`Session::create_view`]) and
    /// `DROP MATERIALIZED VIEW <name>` tears it down (no rows; the
    /// lifetime [`JoinReport`] is attached to the result).
    pub fn sql(&self, text: &str) -> Result<ResultSet> {
        match squall_sql::parse_statement(text)? {
            squall_sql::Statement::Select(q) => execute_query(&q, &self.catalog, &self.config),
            squall_sql::Statement::CreateView { name, query } => {
                let view = self.create_view(name, &query)?;
                let rows = view.snapshot()?;
                Ok(ResultSet::materialized(view.schema().clone(), rows, None))
            }
            squall_sql::Statement::DropView { name } => {
                let report = self.drop_view(&name)?;
                let schema = Schema::new(Vec::new());
                Ok(ResultSet::materialized(schema, Vec::new(), Some(report)))
            }
        }
    }

    /// Declarative interface, streaming: rows are yielded through the
    /// [`ResultSet`] iterator *while the topology runs*. A run that fails
    /// mid-way ends the stream early — check [`ResultSet::error`] after
    /// exhaustion before trusting the rows as complete. While the stream
    /// is live its sources are pinned: [`Session::deregister`] on them
    /// returns [`SquallError::SourceInUse`].
    pub fn sql_stream(&self, text: &str) -> Result<ResultSet> {
        self.run_stream(&squall_sql::parse(text)?)
    }

    /// Run an already-built logical query block (materialized).
    pub fn run(&self, query: &Query) -> Result<ResultSet> {
        execute_query(query, &self.catalog, &self.config)
    }

    /// Run an already-built logical query block, streaming. Live streams
    /// pin their sources in the catalog (see [`Session::deregister`]).
    pub fn run_stream(&self, query: &Query) -> Result<ResultSet> {
        let mut rs = execute_query_stream(query, &self.catalog, &self.config)?;
        if rs.is_streaming() {
            let mut names: Vec<String> = query.tables.iter().map(|(t, _)| t.clone()).collect();
            names.sort();
            names.dedup();
            {
                let mut live = self.live.lock().expect("live-source registry poisoned");
                for n in &names {
                    *live.entry(n.clone()).or_insert(0) += 1;
                }
            }
            rs.attach_guard(Box::new(LiveGuard { names, registry: Arc::clone(&self.live) }));
        }
        Ok(rs)
    }

    /// The optimized physical plan for a SQL query, as text: the plan tree
    /// (pushdown, pruning, join atoms, the optimizer's decision,
    /// aggregation shape), the executor configuration the session would
    /// run it with — including the task→peer placement on a cluster — and
    /// the resident views.
    pub fn explain(&self, text: &str) -> Result<String> {
        self.explain_plan(&squall_sql::parse(text)?, None)
    }

    /// [`Session::explain`] *plus the run's actuals*: the optimizer's
    /// estimated-vs-actual cardinality table is filled from the supplied
    /// [`JoinReport`]'s per-relation task counters (take it from
    /// [`ResultSet::report`] after executing the same statement on this
    /// session).
    pub fn explain_with(&self, text: &str, report: &JoinReport) -> Result<String> {
        self.explain_plan(&squall_sql::parse(text)?, Some(report))
    }

    fn explain_plan(&self, query: &Query, report: Option<&JoinReport>) -> Result<String> {
        let mut plan = PhysicalQuery::plan(query, &self.catalog)?;
        squall_plan::optimizer::optimize(&mut plan, &self.catalog, &self.config)?;
        Ok(plan.explain(&self.config, report) + &self.views.describe(&self.config))
    }

    /// Collect sampling-based statistics for a registered source: row
    /// count, per-column distinct-count estimates (sample-inverted) and
    /// heavy-hitter frequencies. Tables at or under 10 000 rows are
    /// scanned exactly; larger ones are uniformly sampled with the
    /// session seed. The cost-based optimizer reads these when ordering
    /// joins and selecting schemes; unanalyzed tables fall back to
    /// uniform (`V(R,a) = |R|`, no skew) estimates. Statistics are a
    /// snapshot — re-run after bulk appends/retractions.
    pub fn analyze(&mut self, name: &str) -> Result<&TableStats> {
        self.catalog.analyze(name, ANALYZE_SAMPLE_CAP, self.config.seed)
    }

    /// The statistics [`Session::analyze`] collected for `name`, if any.
    pub fn stats(&self, name: &str) -> Option<&TableStats> {
        self.catalog.stats(name)
    }

    /// Append rows to a registered source. The catalog is updated (with
    /// the same validation as registration: arity, and for streams a
    /// non-regressing event time) and every resident materialized view
    /// reading the source incorporates the rows incrementally — a
    /// subsequent [`crate::views::ViewHandle::snapshot`] observes them
    /// (read-your-writes). All or nothing: on an error the catalog and
    /// every view are as they were.
    pub fn append(&mut self, source: &str, rows: Vec<Tuple>) -> Result<&mut Session> {
        self.write(source, rows, 1)
    }

    /// Remove rows from a registered table, one stored occurrence per
    /// given row (streams are append-only; rows that are not stored are a
    /// typed error). Every resident materialized view reading the table
    /// retracts the rows incrementally — aggregates decrease, join
    /// results disappear. All or nothing, like [`Session::append`].
    pub fn retract(&mut self, source: &str, rows: Vec<Tuple>) -> Result<&mut Session> {
        self.write(source, rows, -1)
    }

    /// One signed write: the catalog validates the batch, every view
    /// transforms it as it will be stored (pure), the catalog commits, the
    /// views are fed — an error from either of the first two changes nothing.
    fn write(&mut self, source: &str, rows: Vec<Tuple>, sign: i64) -> Result<&mut Session> {
        let views = &self.views;
        let staged = self
            .catalog
            .update(source, rows, sign, |rows| views.stage_delta(source, rows, sign))?;
        self.views.feed(staged)?;
        Ok(self)
    }

    /// Imperative interface: open a query builder on a first relation
    /// (aliased by its own name).
    // The name mirrors SQL's FROM (and the paper's imperative interface),
    // not the `From` conversion trait.
    #[allow(clippy::should_implement_trait)]
    pub fn from(&self, table: impl Into<String>) -> QueryBuilder<'_> {
        let table = table.into();
        self.from_as(table.clone(), table)
    }

    /// Imperative interface with an explicit alias
    /// (`FROM table AS alias`).
    pub fn from_as(&self, table: impl Into<String>, alias: impl Into<String>) -> QueryBuilder<'_> {
        QueryBuilder {
            session: self,
            tables: vec![(table.into(), alias.into())],
            filters: Vec::new(),
            group_by: Vec::new(),
            having: Vec::new(),
            select: Vec::new(),
            window: None,
            order_by: Vec::new(),
            limit: None,
        }
    }
}

/// Fluent imperative query construction — the paper's functional
/// interface, bound to a session. Lowers to exactly the [`Query`] block
/// the SQL parser produces (see [`QueryBuilder::build`]), so the
/// optimizer and runtime treat both interfaces identically.
///
/// Select-list rule: items accumulate in call order from
/// [`QueryBuilder::select`] / [`QueryBuilder::select_as`] /
/// [`QueryBuilder::agg`]; if only aggregates were requested and a GROUP BY
/// is present, the group-by columns are prepended (SQL's
/// `SELECT k, COUNT(*) … GROUP BY k` shape).
#[derive(Debug, Clone)]
pub struct QueryBuilder<'s> {
    session: &'s Session,
    tables: Vec<(String, String)>,
    filters: Vec<Expr>,
    group_by: Vec<Expr>,
    having: Vec<Expr>,
    select: Vec<(Expr, Option<String>)>,
    window: Option<Window>,
    order_by: Vec<OrderKey>,
    limit: Option<u64>,
}

impl QueryBuilder<'_> {
    /// Add a relation (aliased by its own name).
    pub fn join(mut self, table: impl Into<String>) -> Self {
        let table = table.into();
        self.tables.push((table.clone(), table));
        self
    }

    /// Add a relation with an explicit alias.
    pub fn join_as(mut self, table: impl Into<String>, alias: impl Into<String>) -> Self {
        self.tables.push((table.into(), alias.into()));
        self
    }

    /// Join predicate. Sugar for [`QueryBuilder::filter`] — the optimizer
    /// classifies each conjunct as a pushed-down selection or a join atom
    /// by the relations it touches, exactly as it does for SQL WHERE.
    pub fn on(self, predicate: Expr) -> Self {
        self.filter(predicate)
    }

    /// Add a WHERE conjunct (top-level ANDs are flattened at
    /// [`QueryBuilder::build`], via the same [`Query::filter`] the SQL
    /// parser uses).
    pub fn filter(mut self, predicate: Expr) -> Self {
        self.filters.push(predicate);
        self
    }

    /// GROUP BY columns.
    pub fn group_by(mut self, cols: impl IntoIterator<Item = Expr>) -> Self {
        self.group_by.extend(cols);
        self
    }

    /// Add a HAVING conjunct over the aggregate output — SQL's
    /// `HAVING <predicate>`. May reference GROUP BY columns and aggregate
    /// calls (including aggregates not in the SELECT list, which are
    /// computed as hidden columns):
    /// `.having(count().gt(lit(5)))`. Requires aggregation.
    pub fn having(mut self, predicate: Expr) -> Self {
        self.having.push(predicate);
        self
    }

    /// Apply window semantics — `.window(Window::sliding(30).on("ts"))`
    /// or `.window(Window::tumbling(60))`. Without [`Window::on`], every
    /// relation must be a registered stream with a declared event-time
    /// column. Equivalent to SQL's `WINDOW SLIDING/TUMBLING <n> [ON <col>]`.
    ///
    /// Combined with [`QueryBuilder::group_by`] (or aggregate SELECT
    /// items) the query aggregates **per window**: result rows are
    /// `(window_start, window_end, group…, agg…)` with both bounds
    /// inclusive — tumbling windows are the buckets
    /// `[k·width, (k+1)·width)`, sliding windows are every `[s, s+size]`
    /// containing all of a result's timestamps (adjacent windows overlap).
    /// Closed windows stream through the [`ResultSet`] iterator in window
    /// order while the topology runs.
    ///
    /// ```
    /// use squall::{col, count, Session, Window};
    /// use squall::common::{tuple, DataType, Schema};
    ///
    /// let schema = Schema::of(&[("ad_id", DataType::Int), ("ts", DataType::Int)]);
    /// let mut session = Session::builder().machines(2).build();
    /// session
    ///     .register_stream(
    ///         "impressions",
    ///         schema.clone(),
    ///         vec![tuple![1, 3], tuple![1, 17]],
    ///         "ts",
    ///     )
    ///     .unwrap()
    ///     .register_stream("clicks", schema, vec![tuple![1, 5], tuple![1, 12]], "ts")
    ///     .unwrap();
    /// let mut per_window = session
    ///     .from_as("impressions", "I")
    ///     .join_as("clicks", "C")
    ///     .on(col("I.ad_id").eq(col("C.ad_id")))
    ///     .window(Window::tumbling(10))
    ///     .group_by([col("I.ad_id")])
    ///     .select([col("I.ad_id"), count()])
    ///     .run()
    ///     .unwrap();
    /// // Bucket [0,10) pairs (1@3,1@5); bucket [10,20) pairs (1@17,1@12).
    /// assert_eq!(per_window.rows(), vec![tuple![0, 9, 1, 1], tuple![10, 19, 1, 1]]);
    /// ```
    pub fn window(mut self, window: Window) -> Self {
        self.window = Some(window);
        self
    }

    /// Append SELECT items (plain expressions or aggregate calls built
    /// with [`crate::count`] / [`crate::sum`] / [`crate::avg`] /
    /// [`squall_plan::logical::agg`]).
    pub fn select(mut self, items: impl IntoIterator<Item = Expr>) -> Self {
        self.select.extend(items.into_iter().map(|e| (e, None)));
        self
    }

    /// Append one named SELECT item (`expr AS name`).
    pub fn select_as(mut self, item: Expr, name: impl Into<String>) -> Self {
        self.select.push((item, Some(name.into())));
        self
    }

    /// Append an aggregate to the SELECT list
    /// (`.agg(AggFunc::Sum, Some(col("L.price")))`).
    pub fn agg(mut self, func: AggFunc, arg: Option<Expr>) -> Self {
        self.select.push((agg(func, arg), None));
        self
    }

    /// Append an ORDER BY key over the *output* columns (a SELECT alias or
    /// item display name); `desc = true` sorts descending. Equivalent to
    /// SQL's `ORDER BY <col> [ASC|DESC]`. Ties break on the full row, so
    /// ordered results are deterministic.
    pub fn order_by(mut self, column: impl Into<String>, desc: bool) -> Self {
        self.order_by.push(OrderKey { column: column.into(), desc });
        self
    }

    /// Keep only the first `n` rows of the (ordered) result — SQL's
    /// `LIMIT <n>`.
    pub fn limit(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// Lower to the logical [`Query`] block — the same structure
    /// `squall_sql::parse` yields, which is what guarantees SQL/imperative
    /// equivalence.
    pub fn build(self) -> Query {
        let mut select = self.select;
        if !self.group_by.is_empty() && select.iter().all(|(e, _)| e.has_agg()) {
            let mut full: Vec<(Expr, Option<String>)> =
                self.group_by.iter().cloned().map(|e| (e, None)).collect();
            full.append(&mut select);
            select = full;
        }
        let mut query = Query {
            tables: self.tables,
            filters: Vec::new(),
            select,
            group_by: self.group_by,
            having: Vec::new(),
            window: self.window,
            order_by: self.order_by,
            limit: self.limit,
        };
        for predicate in self.filters {
            query = query.filter(predicate);
        }
        for predicate in self.having {
            query = query.having(predicate);
        }
        query
    }

    /// Build and run, materializing the rows.
    pub fn run(self) -> Result<ResultSet> {
        let session = self.session;
        session.run(&self.build())
    }

    /// Build and run, streaming rows while the topology runs.
    pub fn stream(self) -> Result<ResultSet> {
        let session = self.session;
        session.run_stream(&self.build())
    }

    /// The optimized physical plan, as text (see [`Session::explain`]).
    pub fn explain(self) -> Result<String> {
        let session = self.session;
        session.explain_plan(&self.build(), None)
    }

    /// Build and launch as a resident materialized view — the imperative
    /// twin of `CREATE MATERIALIZED VIEW <name> AS <select>`. See
    /// [`Session::create_view`].
    pub fn create_view(self, name: impl Into<String>) -> Result<crate::views::ViewHandle> {
        let session = self.session;
        session.create_view(name, &self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::{tuple, DataType};

    use squall_common::SquallError;

    fn session() -> Session {
        let mut s = Session::builder().machines(4).seed(42).build();
        s.register(
            "R",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![tuple![1, 10], tuple![2, 20], tuple![3, 30], tuple![2, 25]],
        )
        .unwrap();
        s.register(
            "S",
            Schema::of(&[("a", DataType::Int), ("c", DataType::Int)]),
            vec![tuple![2, 100], tuple![3, 200], tuple![4, 300], tuple![2, 150]],
        )
        .unwrap();
        s
    }

    /// Two ad streams for the windowed-query tests.
    fn stream_session() -> Session {
        let schema = Schema::of(&[("ad_id", DataType::Int), ("ts", DataType::Int)]);
        let mut s = Session::builder().machines(3).seed(7).build();
        s.register_stream(
            "impressions",
            schema.clone(),
            vec![tuple![1, 0], tuple![2, 10], tuple![1, 40], tuple![2, 41]],
            "ts",
        )
        .unwrap();
        s.register_stream("clicks", schema, vec![tuple![1, 5], tuple![2, 39], tuple![1, 90]], "ts")
            .unwrap();
        s
    }

    #[test]
    fn builder_configures_session() {
        let s = Session::builder()
            .machines(9)
            .scheme(SchemeKind::Random)
            .local(LocalJoinKind::Traditional)
            .seed(3)
            .agg_parallelism(5)
            .skew_slack(0.75)
            .worker_threads(3)
            .batch_size(128)
            .build();
        assert_eq!(s.config().machines, 9);
        assert_eq!(s.config().scheme, Some(SchemeKind::Random));
        assert_eq!(s.config().local, LocalJoinKind::Traditional);
        assert_eq!(s.config().seed, 3);
        assert_eq!(s.config().agg_parallelism, 5);
        assert!((s.config().skew_slack - 0.75).abs() < 1e-12);
        assert_eq!(s.config().worker_threads, Some(3));
        assert_eq!(s.config().batch_size, 128);
    }

    #[test]
    fn worker_pool_and_batch_knobs_reach_the_runtime() {
        let mut small = Session::builder().machines(4).worker_threads(2).batch_size(1).build();
        std::mem::swap(small.catalog_mut(), session().catalog_mut());
        let query = "SELECT R.b, S.c FROM R, S WHERE R.a = S.a";
        let mut rs = small.sql(query).unwrap();
        let rows: Vec<Tuple> = rs.rows().to_vec();
        let report = rs.report().expect("distributed run");
        assert_eq!(report.scheduler.workers, 2, "pool size = worker_threads");
        // The standing plane is configured by the same relay: the knobs
        // reach a resident view's topology too.
        let plan =
            PhysicalQuery::plan(&squall_sql::parse(query).unwrap(), small.catalog()).unwrap();
        let standing = plan.prepare_standing(small.catalog(), small.config()).unwrap().mcfg;
        assert_eq!((standing.worker_threads, standing.batch_size), (Some(2), 1));
        // Identical rows under a different pool/batch configuration.
        let mut big = Session::builder().machines(4).worker_threads(8).batch_size(1024).build();
        std::mem::swap(big.catalog_mut(), session().catalog_mut());
        let mut rs2 = big.sql(query).unwrap();
        assert_eq!(rs2.rows(), rows, "executor config must not change results");
    }

    #[test]
    fn explain_prints_executor_config() {
        let s = session();
        let text = s.explain("SELECT S.c FROM R, S WHERE R.a = S.a").unwrap();
        assert!(text.contains("executor: 4 machines, auto worker threads"), "{text}");
        let tuned = Session::builder().machines(2).worker_threads(2).batch_size(16).build();
        let mut tuned = tuned;
        std::mem::swap(tuned.catalog_mut(), session().catalog_mut());
        let text = tuned.explain("SELECT S.c FROM R, S WHERE R.a = S.a").unwrap();
        assert!(text.contains("executor: 2 machines, 2 worker threads, batch size 16"), "{text}");
    }

    #[test]
    fn sql_and_imperative_agree() {
        let s = session();
        let mut sql = s.sql("SELECT R.b, S.c FROM R, S WHERE R.a = S.a AND R.b > 15").unwrap();
        let mut imp = s
            .from("R")
            .join("S")
            .on(col("R.a").eq(col("S.a")))
            .filter(col("R.b").gt(lit(15)))
            .select([col("R.b"), col("S.c")])
            .run()
            .unwrap();
        assert_eq!(sql.rows(), imp.rows());
        assert!(!sql.rows().is_empty());
        assert!(sql.report().is_some(), "distributed run reports metrics");
    }

    #[test]
    fn group_by_prepends_keys_when_only_aggs_selected() {
        let s = session();
        let q = s
            .from("R")
            .join("S")
            .on(col("R.a").eq(col("S.a")))
            .group_by([col("R.a")])
            .agg(AggFunc::Count, None)
            .build();
        assert_eq!(q.select.len(), 2, "group key prepended");
        assert!(!q.select[0].0.has_agg());
        let mut sql = s.sql("SELECT R.a, COUNT(*) FROM R, S WHERE R.a = S.a GROUP BY R.a").unwrap();
        let mut imp = s.run(&q).unwrap();
        assert_eq!(sql.rows(), imp.rows());
    }

    #[test]
    fn explicit_select_order_is_preserved() {
        let s = session();
        let q = s
            .from("R")
            .join("S")
            .on(col("R.a").eq(col("S.a")))
            .group_by([col("R.a")])
            .select([count(), col("R.a")])
            .build();
        assert!(q.select[0].0.has_agg(), "explicit order untouched");
    }

    #[test]
    fn having_sql_and_builder_agree() {
        let s = session();
        let mut sql = s
            .sql(
                "SELECT R.a, COUNT(*) FROM R, S WHERE R.a = S.a \
                 GROUP BY R.a HAVING COUNT(*) > 1",
            )
            .unwrap();
        let mut imp = s
            .from("R")
            .join("S")
            .on(col("R.a").eq(col("S.a")))
            .group_by([col("R.a")])
            .select([col("R.a"), count()])
            .having(count().gt(lit(1)))
            .run()
            .unwrap();
        // Groups: a=2 → 4 matches, a=3 → 1 match; only a=2 survives.
        assert_eq!(sql.rows(), vec![tuple![2, 4]]);
        assert_eq!(sql.rows(), imp.rows());
        // The streaming path filters identically.
        let mut st = s
            .sql_stream(
                "SELECT R.a, COUNT(*) FROM R, S WHERE R.a = S.a \
                 GROUP BY R.a HAVING COUNT(*) > 1",
            )
            .unwrap();
        let mut streamed: Vec<Tuple> = st.by_ref().collect();
        streamed.sort();
        assert_eq!(streamed, vec![tuple![2, 4]]);
        // And explain mentions the predicate.
        let text = s
            .explain(
                "SELECT R.a, COUNT(*) FROM R, S WHERE R.a = S.a GROUP BY R.a HAVING COUNT(*) > 1",
            )
            .unwrap();
        assert!(text.contains("having:"), "{text}");
    }

    #[test]
    fn having_hidden_aggregate_filters_without_projecting() {
        let s = session();
        // SUM(S.c) is only in HAVING: a=2 → 500, a=3 → 200.
        let mut rs = s
            .sql("SELECT R.a FROM R, S WHERE R.a = S.a GROUP BY R.a HAVING SUM(S.c) > 300")
            .unwrap();
        assert_eq!(rs.rows(), vec![tuple![2]]);
        assert_eq!(rs.schema().arity(), 1, "hidden aggregate is not projected");
    }

    #[test]
    fn order_by_limit_sql_and_builder_agree() {
        let s = session();
        let mut sql = s
            .sql("SELECT R.b AS b, S.c AS c FROM R, S WHERE R.a = S.a ORDER BY b DESC LIMIT 3")
            .unwrap();
        let mut imp = s
            .from("R")
            .join("S")
            .on(col("R.a").eq(col("S.a")))
            .select_as(col("R.b"), "b")
            .select_as(col("S.c"), "c")
            .order_by("b", true)
            .limit(3)
            .run()
            .unwrap();
        assert_eq!(sql.rows(), imp.rows());
        assert_eq!(sql.rows().len(), 3);
        // Descending on the first output column.
        let firsts: Vec<i64> = sql.rows().iter().map(|t| t.get(0).as_int().unwrap()).collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(firsts, sorted);
        // The streaming entry point honors the order contract by
        // materializing.
        let mut st = s
            .sql_stream("SELECT R.b AS b FROM R, S WHERE R.a = S.a ORDER BY b DESC LIMIT 2")
            .unwrap();
        assert!(!st.is_streaming());
        assert_eq!(st.rows().len(), 2);
    }

    #[test]
    fn streaming_multiset_equals_materialized_rows() {
        let s = session();
        let query = "SELECT R.b, S.c FROM R, S WHERE R.a = S.a";
        let mut streamed: Vec<Tuple> = Vec::new();
        let mut rs = s.sql_stream(query).unwrap();
        assert!(rs.is_streaming());
        for row in rs.by_ref() {
            streamed.push(row);
        }
        let report = rs.report().expect("metrics after exhaustion");
        assert!(report.error.is_none());
        streamed.sort();
        let mut materialized = s.sql(query).unwrap();
        assert_eq!(materialized.rows(), streamed);
    }

    #[test]
    fn explain_shows_plan_both_ways() {
        let s = session();
        let via_sql = s.explain("SELECT S.c FROM R, S WHERE R.a = S.a AND R.b > 15").unwrap();
        let via_builder = s
            .from("R")
            .join("S")
            .on(col("R.a").eq(col("S.a")))
            .filter(col("R.b").gt(lit(15)))
            .select([col("S.c")])
            .explain()
            .unwrap();
        assert_eq!(via_sql, via_builder);
        assert!(via_sql.contains("join atoms"));
        assert!(via_sql.contains("filter"));
    }

    #[test]
    fn named_select_items_set_output_schema() {
        let s = session();
        let mut rs = s
            .from("R")
            .join("S")
            .on(col("R.a").eq(col("S.a")))
            .select_as(sum(col("S.c")), "total")
            .run()
            .unwrap();
        assert_eq!(rs.schema().field(0).name, "total");
        assert_eq!(rs.rows().len(), 1);
    }

    #[test]
    fn config_mut_switches_scheme_between_runs() {
        let mut s = session();
        let sql = "SELECT R.a, COUNT(*) FROM R, S WHERE R.a = S.a GROUP BY R.a";
        let mut expect = s.sql(sql).unwrap();
        for scheme in [SchemeKind::Hash, SchemeKind::Random, SchemeKind::Hybrid] {
            s.config_mut().scheme = Some(scheme);
            let mut rs = s.sql(sql).unwrap();
            assert_eq!(rs.rows(), expect.rows(), "{scheme}");
        }
    }

    #[test]
    fn rows_after_iteration_returns_remainder_in_both_modes() {
        let s = session();
        let q = "SELECT R.b, S.c FROM R, S WHERE R.a = S.a";
        let mut materialized = s.sql(q).unwrap();
        let total = materialized.rows().len();
        assert!(total >= 2);
        let first = materialized.next().unwrap();
        assert_eq!(materialized.rows().len(), total - 1);
        assert!(!materialized.rows().contains(&first));
        let mut streaming = s.sql_stream(q).unwrap();
        let _ = streaming.next().unwrap();
        assert_eq!(streaming.rows().len(), total - 1);
        assert!(streaming.error().is_none());
    }

    #[test]
    fn dropping_a_live_stream_stops_the_run() {
        let s = session();
        let mut stream = s.sql_stream("SELECT R.b, S.c FROM R, S WHERE R.a = S.a").unwrap();
        let _ = stream.next();
        drop(stream); // must abort + join the topology, not leak threads
    }

    #[test]
    fn unknown_relation_is_reported() {
        let s = session();
        assert!(s.sql("SELECT Z.x FROM Z").is_err());
        assert!(s.from("Z").select([col("Z.x")]).run().is_err());
    }

    #[test]
    fn register_rejects_duplicates_and_bad_streams() {
        let mut s = session();
        let schema = Schema::of(&[("a", DataType::Int), ("ts", DataType::Int)]);
        // Duplicate names — across both kinds of source.
        assert!(matches!(
            s.register("R", schema.clone(), vec![]),
            Err(SquallError::DuplicateSource(_))
        ));
        assert!(matches!(
            s.register_stream("R", schema.clone(), vec![], "ts"),
            Err(SquallError::DuplicateSource(_))
        ));
        // Missing / non-Int event-time column.
        assert!(matches!(
            s.register_stream("E1", schema.clone(), vec![], "when"),
            Err(SquallError::InvalidSource { .. })
        ));
        let str_ts = Schema::of(&[("a", DataType::Int), ("ts", DataType::Str)]);
        assert!(matches!(
            s.register_stream("E2", str_ts, vec![], "ts"),
            Err(SquallError::InvalidSource { .. })
        ));
        assert!(matches!(
            s.register_stream("E3", schema.clone(), vec![tuple![1, -3]], "ts"),
            Err(SquallError::InvalidSource { .. })
        ));
        // Deregister frees the name for a replacement.
        assert!(s.deregister("R").unwrap());
        assert!(!s.deregister("R").unwrap(), "already gone");
        s.register("R", schema, vec![tuple![1, 2]]).unwrap();
    }

    #[test]
    fn deregister_refuses_sources_of_live_streams() {
        let mut s = session();
        let mut stream = s.sql_stream("SELECT R.b, S.c FROM R, S WHERE R.a = S.a").unwrap();
        assert!(stream.is_streaming());
        let first = stream.next();
        assert!(first.is_some());
        // Both sources are pinned while the run is live.
        assert!(matches!(
            s.deregister("R"),
            Err(SquallError::SourceInUse { source }) if source == "R"
        ));
        assert!(matches!(s.deregister("S"), Err(SquallError::SourceInUse { .. })));
        // Dropping the stream (aborting the run) releases them.
        drop(stream);
        assert!(s.deregister("R").unwrap());

        // Exhausting a stream releases too, even while rows stay readable.
        let mut s = session();
        let mut stream = s.sql_stream("SELECT R.b, S.c FROM R, S WHERE R.a = S.a").unwrap();
        while stream.next().is_some() {}
        assert!(s.deregister("S").unwrap());
        assert!(stream.error().is_none());

        // Materialized runs never pin: sql() completes before returning.
        let mut s = session();
        let mut rs = s.sql("SELECT R.b, S.c FROM R, S WHERE R.a = S.a").unwrap();
        assert!(!rs.rows().is_empty());
        assert!(s.deregister("R").unwrap());
    }

    #[test]
    fn windowed_sql_and_builder_agree() {
        let s = stream_session();
        // In-window pairs (|Δts| ≤ 30, same ad): (1@0,1@5), (2@10,2@39),
        // (1@40,1@5)? Δ=35 no — (2@41,2@39) yes, (1@40,1@90) Δ=50 no.
        let mut sql = s
            .sql(
                "SELECT I.ad_id, I.ts, C.ts FROM impressions I, clicks C \
                 WHERE I.ad_id = C.ad_id WINDOW SLIDING 30 ON ts",
            )
            .unwrap();
        let mut imp = s
            .from_as("impressions", "I")
            .join_as("clicks", "C")
            .on(col("I.ad_id").eq(col("C.ad_id")))
            .window(Window::sliding(30).on("ts"))
            .select([col("I.ad_id"), col("I.ts"), col("C.ts")])
            .run()
            .unwrap();
        assert_eq!(sql.rows(), vec![tuple![1, 0, 5], tuple![2, 10, 39], tuple![2, 41, 39]]);
        assert_eq!(sql.rows(), imp.rows());
    }

    #[test]
    fn window_defaults_to_declared_event_time_columns() {
        let s = stream_session();
        // No ON clause: the streams' declared `ts` columns are used.
        let mut with_on = s
            .sql(
                "SELECT I.ad_id FROM impressions I, clicks C \
                 WHERE I.ad_id = C.ad_id WINDOW TUMBLING 40 ON ts",
            )
            .unwrap();
        let mut without = s
            .sql(
                "SELECT I.ad_id FROM impressions I, clicks C \
                 WHERE I.ad_id = C.ad_id WINDOW TUMBLING 40",
            )
            .unwrap();
        assert_eq!(with_on.rows(), without.rows());
        // Tumbling width 40: buckets [0,40) and [40,80) — (1@40,1@5) and
        // (2@41,2@39) split across buckets, (1@0,1@5) and (2@10,2@39) join.
        assert_eq!(without.rows().len(), 2);
    }

    #[test]
    fn window_over_plain_tables_requires_on_clause() {
        let s = session(); // R and S are tables, not streams
        let err = s.sql("SELECT R.b FROM R, S WHERE R.a = S.a WINDOW SLIDING 5").unwrap_err();
        assert!(matches!(err, SquallError::InvalidPlan(_)), "{err}");
        // With an explicit Int column present in both relations it runs
        // (the window is measured on that column).
        let mut ok = s
            .from("R")
            .join("S")
            .on(col("R.a").eq(col("S.a")))
            .window(Window::sliding(1000).on("a"))
            .select([col("R.b"), col("S.c")])
            .run()
            .unwrap();
        assert!(!ok.rows().is_empty());
    }

    #[test]
    fn windowed_stream_consumes_while_running() {
        let s = stream_session();
        let mut rs = s
            .sql_stream(
                "SELECT I.ad_id, I.ts, C.ts FROM impressions I, clicks C \
                 WHERE I.ad_id = C.ad_id WINDOW SLIDING 30 ON ts",
            )
            .unwrap();
        assert!(rs.is_streaming());
        let mut streamed: Vec<Tuple> = rs.by_ref().collect();
        assert!(rs.report().expect("report after exhaustion").error.is_none());
        streamed.sort();
        assert_eq!(streamed, vec![tuple![1, 0, 5], tuple![2, 10, 39], tuple![2, 41, 39]]);
    }

    #[test]
    fn windowed_group_by_sql_and_builder_agree() {
        let s = stream_session();
        // Per-window GROUP BY: in-window pairs (|Δts| ≤ 30, same ad) are
        // (1@0,1@5), (2@10,2@39), (2@41,2@39); tumbling 40 buckets them
        // as [0,40) → (1@0,1@5), (2@10,2@39) and [40,80) → (2@41,2@39)…
        // except (2@10,2@39) shares bucket 0 and (2@41,2@39) straddles —
        // the engine's window predicate decides; SQL and builder must
        // simply agree and carry the window-bound columns.
        let sql_text = "SELECT I.ad_id, COUNT(*) FROM impressions I, clicks C \
                        WHERE I.ad_id = C.ad_id WINDOW TUMBLING 40 GROUP BY I.ad_id";
        let mut sql = s.sql(sql_text).unwrap();
        let mut imp = s
            .from_as("impressions", "I")
            .join_as("clicks", "C")
            .on(col("I.ad_id").eq(col("C.ad_id")))
            .window(Window::tumbling(40))
            .group_by([col("I.ad_id")])
            .select([col("I.ad_id"), count()])
            .run()
            .unwrap();
        // Bucket [0,40): (1@0,1@5) and (2@10,2@39).
        assert_eq!(sql.rows(), vec![tuple![0, 39, 1, 1], tuple![0, 39, 2, 1]]);
        assert_eq!(sql.rows(), imp.rows());
        assert_eq!(sql.schema().field(0).name, "window_start");
        assert_eq!(sql.schema().field(1).name, "window_end");
        // The streaming path yields the same rows, in window order.
        let mut st = s.sql_stream(sql_text).unwrap();
        let streamed: Vec<Tuple> = st.by_ref().collect();
        assert!(st.error().is_none());
        assert_eq!(streamed, vec![tuple![0, 39, 1, 1], tuple![0, 39, 2, 1]]);
        // EXPLAIN announces per-window aggregation (and the pinned task).
        let text = s.explain(sql_text).unwrap();
        assert!(text.contains("per window"), "{text}");
    }

    #[test]
    fn windowed_explain_mentions_window() {
        let s = stream_session();
        let text = s
            .explain(
                "SELECT I.ad_id FROM impressions I, clicks C \
                 WHERE I.ad_id = C.ad_id WINDOW SLIDING 30 ON ts",
            )
            .unwrap();
        assert!(text.contains("window"), "{text}");
    }

    /// Resident view snapshots observe every acked append/retract and
    /// match a full SELECT recompute byte-for-byte at every step.
    #[test]
    fn view_snapshots_read_their_writes() {
        let mut s = session();
        let select = "SELECT R.b, S.c FROM R, S WHERE R.a = S.a";
        let view = s.create_view("rs", &squall_sql::parse(select).unwrap()).unwrap();
        assert_eq!(view.snapshot().unwrap(), s.sql(select).unwrap().rows());
        s.append("R", vec![tuple![4, 40]]).unwrap();
        assert_eq!(view.snapshot().unwrap(), s.sql(select).unwrap().rows());
        s.retract("S", vec![tuple![2, 100]]).unwrap();
        s.append("S", vec![tuple![4, 400], tuple![1, 111]]).unwrap();
        assert_eq!(view.snapshot().unwrap(), s.sql(select).unwrap().rows());
        let stats = view.maintenance();
        assert!(stats.appends >= 2 && stats.retractions >= 1, "{stats}");
        let report = s.drop_view("rs").unwrap();
        let final_stats = report.maintenance.expect("drop report carries counters");
        assert!(final_stats.appends >= stats.appends, "{final_stats}");
        assert!(final_stats.snapshots >= 3, "{final_stats}");
    }

    /// DROP is refused while a change-stream subscriber is alive; the
    /// subscriber sees the net deltas of each applied epoch.
    #[test]
    fn drop_view_refuses_while_subscribed() {
        let mut s = session();
        let view = s
            .create_view("rs", &squall_sql::parse("SELECT R.b FROM R, S WHERE R.a = S.a").unwrap())
            .unwrap();
        let sub = view.subscribe();
        assert!(matches!(
            s.drop_view("rs"),
            Err(SquallError::ViewInUse { view }) if view == "rs"
        ));
        s.append("R", vec![tuple![4, 40]]).unwrap();
        s.append("S", vec![tuple![4, 999]]).unwrap();
        view.snapshot().unwrap();
        let got: Vec<_> = std::iter::from_fn(|| sub.try_recv()).collect();
        assert!(
            got.iter().any(|b| b.changes.iter().any(|(t, m)| *t == tuple![40] && *m == 1)),
            "subscriber observed the new join row: {got:?}"
        );
        drop(sub);
        assert!(s.drop_view("rs").is_ok());
        assert!(s.view("rs").is_err(), "dropped view is gone");
    }

    /// The aggregate shard count is a one-shot knob: past the task limit
    /// it fails a one-shot aggregate, but a view, whose one sink task
    /// aggregates, still launches.
    #[test]
    fn views_ignore_the_aggregate_shard_count() {
        let mut s = session();
        s.config_mut().agg_parallelism = 2000;
        let sql = "SELECT R.a, COUNT(*) FROM R, S WHERE R.a = S.a GROUP BY R.a";
        assert!(matches!(s.sql(sql), Err(SquallError::InvalidPlan(_))));
        let view = s.create_view("n", &squall_sql::parse(sql).unwrap()).unwrap();
        assert_eq!(view.snapshot().unwrap(), vec![tuple![2, 4], tuple![3, 1]]);
        drop(view);
        s.drop_view("n").unwrap();
    }

    /// A source cannot be deregistered while a resident view reads it.
    #[test]
    fn deregister_refuses_source_read_by_view() {
        let mut s = session();
        s.create_view("rs", &squall_sql::parse("SELECT R.b FROM R, S WHERE R.a = S.a").unwrap())
            .unwrap();
        assert!(matches!(
            s.deregister("R"),
            Err(SquallError::SourceInUse { source }) if source == "R"
        ));
        s.drop_view("rs").unwrap();
        assert!(s.deregister("R").unwrap());
    }

    /// The SQL front door: CREATE returns the initial snapshot, DROP
    /// returns the maintenance report, and explain lists resident views.
    #[test]
    fn sql_create_and_drop_materialized_view() {
        let mut s = session();
        let mut created = s
            .sql("CREATE MATERIALIZED VIEW v AS SELECT R.b, S.c FROM R, S WHERE R.a = S.a")
            .unwrap();
        assert_eq!(
            created.rows(),
            s.sql("SELECT R.b, S.c FROM R, S WHERE R.a = S.a").unwrap().rows()
        );
        assert!(matches!(
            s.sql("CREATE MATERIALIZED VIEW v AS SELECT R.b FROM R"),
            Err(SquallError::DuplicateSource(_))
        ));
        s.append("R", vec![tuple![2, 22]]).unwrap();
        let text = s.explain("SELECT R.b FROM R").unwrap();
        assert!(text.contains("resident view v"), "{text}");
        assert!(text.contains("maintenance:"), "{text}");
        let mut dropped = s.sql("DROP MATERIALIZED VIEW v").unwrap();
        let report = dropped.report().expect("drop returns the view's report");
        assert!(report.maintenance.is_some(), "{report:?}");
        assert!(matches!(s.sql("DROP MATERIALIZED VIEW v"), Err(SquallError::UnknownRelation(_))));
        let text = s.explain("SELECT R.b FROM R").unwrap();
        assert!(!text.contains("resident view"), "{text}");
    }

    /// Aggregate views maintain GROUP BY state incrementally, including
    /// group birth and death under retraction.
    #[test]
    fn aggregate_view_tracks_group_changes() {
        let mut s = session();
        let select = "SELECT R.a, COUNT(*) FROM R, S WHERE R.a = S.a GROUP BY R.a";
        let view = s.create_view("counts", &squall_sql::parse(select).unwrap()).unwrap();
        assert_eq!(view.snapshot().unwrap(), s.sql(select).unwrap().rows());
        // Births a brand-new group (a=4 joins nothing yet, then S gains 4).
        s.append("S", vec![tuple![4, 1]]).unwrap();
        s.append("R", vec![tuple![4, 44]]).unwrap();
        assert_eq!(view.snapshot().unwrap(), s.sql(select).unwrap().rows());
        // Kills the group again.
        s.retract("R", vec![tuple![4, 44]]).unwrap();
        assert_eq!(view.snapshot().unwrap(), s.sql(select).unwrap().rows());
        s.drop_view("counts").unwrap();
    }

    /// Stream sources stay append-only under views: retract is refused,
    /// appends must respect event time.
    #[test]
    fn stream_sources_are_append_only_for_views() {
        let mut s = stream_session();
        let err = s.retract("clicks", vec![tuple![1, 5]]).unwrap_err();
        assert!(matches!(err, SquallError::InvalidSource { .. }), "{err}");
        let err = s.append("clicks", vec![tuple![9, 1]]).unwrap_err();
        assert!(matches!(err, SquallError::InvalidSource { .. }), "late event: {err}");
        s.append("clicks", vec![tuple![2, 95]]).unwrap();
    }
}
