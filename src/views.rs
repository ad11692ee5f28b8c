//! Standing queries: **resident materialized views** over live sources.
//!
//! `CREATE MATERIALIZED VIEW <name> AS <query>` (or
//! [`Session::create_view`] / [`crate::QueryBuilder::create_view`])
//! launches the query's topology once and keeps it resident: the spouts
//! become live queues, every [`Session::append`] /
//! [`Session::retract`] on a source the view reads is transformed by the
//! view's pushed-down plan and propagated through the distributed join
//! as a signed delta, and the view's rows are maintained incrementally —
//! never recomputed. The [`ViewHandle`] returned by
//! [`Session::create_view`] / [`Session::view`] serves two read paths:
//!
//! * [`ViewHandle::snapshot`] — a consistent, read-your-writes snapshot:
//!   it waits until every acked append/retract epoch is applied, then
//!   returns the rows exactly as the defining SELECT would (sorted like
//!   [`Session::sql`] results, so snapshot and recompute compare
//!   byte-for-byte);
//! * [`ViewHandle::subscribe`] — the change stream: one batch of net
//!   `(row, ±count)` changes per epoch that changed the view.
//!
//! `DROP MATERIALIZED VIEW` ([`Session::drop_view`]) closes the live
//! queues and drains the topology's shutdown cascade, returning the
//! view's lifetime [`JoinReport`] with per-view maintenance counters in
//! [`JoinReport::maintenance`]. Dropping is refused with a typed
//! [`SquallError::ViewInUse`] while a subscriber still holds the change
//! stream, and [`Session::deregister`] refuses (typed
//! [`SquallError::SourceInUse`]) while a resident view reads the source.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use squall_common::{FxHashMap, Result, Schema, SquallError, Tuple};
use squall_core::standing::{launch_standing, ChangeBatch, DeltaRound, StandingHandle, ViewShared};
use squall_plan::physical::{ExecConfig, PhysicalQuery, StandingPlan};

use crate::session::{JoinReport, Query, Session};

/// How long a snapshot waits for the topology to quiesce before giving
/// up. Generous: an epoch's application is bounded by in-flight work,
/// not by external events — hitting this means the topology died without
/// raising an error.
const SNAPSHOT_TIMEOUT: Duration = Duration::from_secs(30);

/// One resident view: the physical plan (for delta transformation), the
/// running standing topology, and the shared row state.
pub(crate) struct ResidentView {
    name: String,
    plan: PhysicalQuery,
    /// `None` only transiently during [`Session::drop_view`] (the
    /// shutdown consumes the handle) and after a failed drop.
    handle: Mutex<Option<StandingHandle>>,
    shared: Arc<ViewShared>,
    /// Live [`ViewSubscription`]s; dropping the view is refused while
    /// any exist.
    subscribers: Arc<AtomicUsize>,
    /// Source names this view reads (deduplicated).
    sources: Vec<String>,
    schema: Schema,
}

impl Drop for ResidentView {
    fn drop(&mut self) {
        // A view leaving the registry without an explicit DROP (session
        // teardown) must still close its queues: the resident spouts are
        // parked and would otherwise keep the worker pool alive forever.
        if let Some(h) = self.handle.lock().expect("view handle poisoned").take() {
            let _ = h.shutdown();
        }
    }
}

/// One source mutation as each resident view reading the source sees it.
pub(crate) type Staged = Vec<(Arc<ResidentView>, Vec<DeltaRound>)>;

/// Resident views of a session, shared across session clones.
#[derive(Clone, Default)]
pub(crate) struct ViewRegistry {
    inner: Arc<Mutex<FxHashMap<String, Arc<ResidentView>>>>,
}

impl std::fmt::Debug for ViewRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let views = self.inner.lock().expect("view registry poisoned");
        let mut names: Vec<&String> = views.keys().collect();
        names.sort();
        f.debug_tuple("ViewRegistry").field(&names).finish()
    }
}

impl ViewRegistry {
    fn lock(&self) -> std::sync::MutexGuard<'_, FxHashMap<String, Arc<ResidentView>>> {
        self.inner.lock().expect("view registry poisoned")
    }

    /// Does any resident view read this source?
    pub(crate) fn reads_source(&self, name: &str) -> bool {
        self.lock().values().any(|v| v.sources.iter().any(|s| s == name))
    }

    /// The pure half of one signed source mutation: every resident view
    /// reading the source turns the (catalog-validated) rows into its
    /// rounds. Nothing is fed yet, so an expression error on any row of
    /// any view leaves them all untouched.
    pub(crate) fn stage_delta(&self, source: &str, rows: &[Tuple], mult: i64) -> Result<Staged> {
        let mut staged = Vec::new();
        for view in self.lock().values() {
            let rounds = view.plan.delta_rounds(source, rows, mult)?;
            if !rounds.is_empty() {
                staged.push((Arc::clone(view), rounds));
            }
        }
        Ok(staged)
    }

    /// Feed staged rounds to their views, one new epoch each.
    pub(crate) fn feed(&self, staged: Staged) -> Result<()> {
        for (view, rounds) in staged {
            if let Some(h) = view.handle.lock().expect("view handle poisoned").as_mut() {
                h.apply(rounds)?;
            }
        }
        Ok(())
    }

    /// The `explain` section describing every resident view.
    pub(crate) fn describe(&self, config: &ExecConfig) -> String {
        let views = self.lock();
        if views.is_empty() {
            return String::new();
        }
        let mut names: Vec<&String> = views.keys().collect();
        names.sort();
        let mut text = String::new();
        for name in names {
            let v = &views[name];
            let handle = v.handle.lock().expect("view handle poisoned");
            let (scheme, n_rel) = match handle.as_ref() {
                Some(h) => (h.scheme_description().to_string(), h.n_relations()),
                None => ("shutting down".to_string(), v.sources.len()),
            };
            drop(handle);
            let placement = match &config.cluster {
                Some(c) => format!("coordinator + {} workers over TCP", c.workers.len()),
                None => "in-process".to_string(),
            };
            text.push_str(&format!(
                "resident view {name}: {n_rel} delta sources -> join[{scheme}] -> \
                 view sink ({placement})\n  sources: {}\n  maintenance: {}\n",
                v.sources.join(", "),
                v.shared.stats(),
            ));
        }
        text
    }
}

impl Session {
    /// Launch a query as a **resident materialized view** — the
    /// imperative twin of `CREATE MATERIALIZED VIEW <name> AS <select>`.
    ///
    /// The topology loads the current source contents as its first
    /// epoch and then stays up: every [`Session::append`] /
    /// [`Session::retract`] on a source the view reads propagates
    /// through the distributed join as signed deltas, maintaining the
    /// view incrementally. The view name is its own namespace (distinct
    /// from sources); duplicates are rejected.
    ///
    /// ```
    /// use squall::Session;
    /// use squall::common::{tuple, DataType, Schema};
    ///
    /// let mut session = Session::builder().machines(2).build();
    /// let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
    /// session.register("R", schema.clone(), vec![tuple![1, 10]]).unwrap();
    /// session.register("S", schema, vec![tuple![1, 7]]).unwrap();
    /// session
    ///     .sql("CREATE MATERIALIZED VIEW v AS SELECT R.b, S.b FROM R, S WHERE R.a = S.a")
    ///     .unwrap();
    /// session.append("S", vec![tuple![1, 8]]).unwrap();
    /// let view = session.view("v").unwrap();
    /// assert_eq!(view.snapshot().unwrap(), vec![tuple![10, 7], tuple![10, 8]]);
    /// session.sql("DROP MATERIALIZED VIEW v").unwrap();
    /// ```
    pub fn create_view(&self, name: impl Into<String>, query: &Query) -> Result<ViewHandle> {
        let name = name.into();
        {
            let views = self.views.lock();
            if views.contains_key(&name) {
                return Err(SquallError::DuplicateSource(format!(
                    "materialized view {name} already exists"
                )));
            }
        }
        let plan = PhysicalQuery::plan(query, &self.catalog)?;
        let StandingPlan { spec, data, mcfg, finalizer } =
            plan.prepare_standing(&self.catalog, &self.config)?;
        let shared = Arc::new(ViewShared::new());
        let handle = launch_standing(&spec, data, &mcfg, finalizer, Arc::clone(&shared))?;
        let mut sources: Vec<String> = query.tables.iter().map(|(t, _)| t.clone()).collect();
        sources.sort();
        sources.dedup();
        let schema = plan.output_schema().clone();
        let resident = Arc::new(ResidentView {
            name: name.clone(),
            plan,
            handle: Mutex::new(Some(handle)),
            shared,
            subscribers: Arc::new(AtomicUsize::new(0)),
            sources,
            schema,
        });
        let mut views = self.views.lock();
        if views.contains_key(&name) {
            // Lost a create-create race; the drop closes our topology.
            return Err(SquallError::DuplicateSource(format!(
                "materialized view {name} already exists"
            )));
        }
        views.insert(name, Arc::clone(&resident));
        Ok(ViewHandle { inner: resident })
    }

    /// A handle to an existing resident view.
    pub fn view(&self, name: &str) -> Result<ViewHandle> {
        let views = self.views.lock();
        match views.get(name) {
            Some(v) => Ok(ViewHandle { inner: Arc::clone(v) }),
            None => Err(SquallError::UnknownRelation(format!("materialized view {name}"))),
        }
    }

    /// Tear a resident view down — `DROP MATERIALIZED VIEW <name>`. The
    /// live source queues close, the topology drains its shutdown
    /// cascade (locally and on cluster workers alike), and the view's
    /// lifetime [`JoinReport`] — including the maintenance counters in
    /// [`JoinReport::maintenance`] — is returned.
    ///
    /// Refused with a typed [`SquallError::ViewInUse`] while a
    /// [`ViewSubscription`] to the change stream is still alive: a
    /// subscriber silently losing its feed mid-read is exactly the bug
    /// the guard exists to surface. Drop the subscription first.
    pub fn drop_view(&self, name: &str) -> Result<JoinReport> {
        let mut views = self.views.lock();
        let Some(view) = views.get(name) else {
            return Err(SquallError::UnknownRelation(format!("materialized view {name}")));
        };
        if view.subscribers.load(Ordering::SeqCst) > 0 {
            return Err(SquallError::ViewInUse { view: name.to_string() });
        }
        let view = views.remove(name).expect("present above");
        drop(views);
        let handle = view.handle.lock().expect("view handle poisoned").take();
        match handle {
            Some(h) => Ok(h.shutdown()),
            None => Err(SquallError::Runtime(format!(
                "materialized view {name} is already shutting down"
            ))),
        }
    }
}

/// A reader's handle to one resident materialized view. Cheap to clone
/// (via [`Session::view`]); the view itself lives in the session's
/// registry until `DROP MATERIALIZED VIEW`.
pub struct ViewHandle {
    inner: Arc<ResidentView>,
}

impl std::fmt::Debug for ViewHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewHandle").field("name", &self.inner.name).finish()
    }
}

impl ViewHandle {
    /// The view's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The view's output schema (the defining SELECT's).
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// A consistent snapshot of the view: waits until every acked
    /// append/retract is applied (read-your-writes), then returns the
    /// rows sorted exactly like the defining SELECT's materialized
    /// results — so a snapshot compares byte-for-byte against a full
    /// recompute. Fails with the topology's error if the resident run
    /// has died.
    pub fn snapshot(&self) -> Result<Vec<Tuple>> {
        let handle = self.inner.handle.lock().expect("view handle poisoned");
        let Some(h) = handle.as_ref() else {
            return Err(SquallError::Runtime(format!(
                "materialized view {} is shutting down",
                self.inner.name
            )));
        };
        let mut rows = h.snapshot(SNAPSHOT_TIMEOUT)?;
        drop(handle);
        rows.sort();
        Ok(rows)
    }

    /// Subscribe to the view's change stream: one [`ChangeBatch`] of net
    /// `(row, ±count)` changes per epoch that changed the view, in epoch
    /// order, starting with epochs applied after this call. While the
    /// subscription is alive, [`Session::drop_view`] refuses with
    /// [`SquallError::ViewInUse`].
    pub fn subscribe(&self) -> ViewSubscription {
        let handle = self.inner.handle.lock().expect("view handle poisoned");
        let rx = match handle.as_ref() {
            Some(h) => h.subscribe(),
            // Shutting down: an always-empty channel.
            None => std::sync::mpsc::channel().1,
        };
        drop(handle);
        self.inner.subscribers.fetch_add(1, Ordering::SeqCst);
        ViewSubscription { rx, subscribers: Arc::clone(&self.inner.subscribers) }
    }

    /// Highest epoch issued to the view so far (the initial load is
    /// epoch 1; every append/retract round bumps it).
    pub fn epoch(&self) -> u64 {
        let handle = self.inner.handle.lock().expect("view handle poisoned");
        handle.as_ref().map(|h| h.issued_epoch()).unwrap_or(0)
    }

    /// Current maintenance counters (appends, retractions, deltas into
    /// the sink, epochs applied, row changes, snapshots served). The
    /// same numbers end up in [`JoinReport::maintenance`] at drop time.
    pub fn maintenance(&self) -> squall_core::driver::MaintenanceStats {
        self.inner.shared.stats()
    }

    /// The error that killed the resident run, if it has died. A healthy
    /// view returns `None`.
    pub fn error(&self) -> Option<SquallError> {
        let handle = self.inner.handle.lock().expect("view handle poisoned");
        handle.as_ref().and_then(|h| h.error())
    }

    /// Restart a clustered view after a worker loss, re-admitting the
    /// given worker set (surviving peers plus replacements — any mix of
    /// old and new `squall-worker` addresses).
    ///
    /// The topology is torn down, operator state is restored from the
    /// newest checkpoint re-routed from surviving replicas when the scheme
    /// replicates (§5), else the last complete one, else nothing, and every
    /// acked epoch after it (checkpoints off: every epoch) is replayed
    /// from the coordinator's log. Epoch deduplication at
    /// the view sink makes the replay exactly-once: a post-recovery
    /// [`ViewHandle::snapshot`] equals the no-failure run's snapshot.
    ///
    /// Only meaningful on a clustered session; an in-process view
    /// returns a typed error. Subscribers and the shared row state
    /// survive the restart.
    pub fn recover<I, S>(&self, workers: I) -> Result<()>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut handle = self.inner.handle.lock().expect("view handle poisoned");
        let Some(h) = handle.as_mut() else {
            return Err(SquallError::Runtime(format!(
                "materialized view {} is shutting down",
                self.inner.name
            )));
        };
        h.recover(squall_core::ClusterSpec::new(workers))
    }
}

/// A live subscription to a view's change stream (see
/// [`ViewHandle::subscribe`]). Iterate or [`ViewSubscription::recv`] to
/// consume batches; drop it to release the view for
/// `DROP MATERIALIZED VIEW`.
pub struct ViewSubscription {
    rx: Receiver<ChangeBatch>,
    subscribers: Arc<AtomicUsize>,
}

impl ViewSubscription {
    /// Blocking receive of the next change batch; `None` once the view
    /// has shut down and all pending batches are consumed.
    pub fn recv(&self) -> Option<ChangeBatch> {
        self.rx.recv().ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<ChangeBatch> {
        self.rx.try_recv().ok()
    }
}

impl Drop for ViewSubscription {
    fn drop(&mut self) {
        self.subscribers.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Iterator for ViewSubscription {
    type Item = ChangeBatch;

    fn next(&mut self) -> Option<ChangeBatch> {
        self.recv()
    }
}
