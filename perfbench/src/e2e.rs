//! The end-to-end runs: each workload's set-up, its timed query through the
//! public API, and the check of every answer against `oracle`. Taken with
//! tracing off; `trace` reuses the contexts built here.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use squall::common::{DataType, Schema, Tuple, Value};
use squall::engine::cluster::{serve_job, ClusterSpec};
use squall::engine::driver::{run_multiway, JoinReport, LocalJoinKind, MultiwayConfig};
use squall::expr::MultiJoinSpec;
use squall::partition::optimizer::SchemeKind;
use squall::runtime::SchedulerStats;
use squall::{MaintenanceStats, Session, ViewHandle};

use crate::harness::{
    batch_outcome, metric, timed_reps, Args, Outcome, Rep, SetupTimer, SETUPS_DURING,
    WORKER_THREADS,
};
use crate::workloads::{self as wl, ViewFeed, Zipf4};
use crate::{oracle, stats};

fn flatten(rels: &[Vec<Tuple>]) -> Vec<&[Tuple]> {
    rels.iter().map(Vec::as_slice).collect()
}

// ---------------------------------------------------------------- hypercube3

pub struct H3Ctx {
    pub spec: MultiJoinSpec,
    pub data: Vec<Vec<Tuple>>,
}

impl H3Ctx {
    pub fn setup(args: &Args) -> H3Ctx {
        let n = args.sizes.h3_rows;
        H3Ctx { spec: wl::rst_spec(n as u64), data: wl::rst_data(n, args.sizes.h3_dom, args.seed) }
    }

    pub fn input_tuples(&self) -> u64 {
        self.data.iter().map(|d| d.len() as u64).sum()
    }

    pub fn expected_count(&self, args: &Args) -> u64 {
        oracle::join_count(&flatten(&self.data), &wl::RST_ATOMS) + u64::from(args.corrupt_reference)
    }

    /// One query, timed from the call to the complete report. The input
    /// clone `run_multiway` consumes is made before the clock starts.
    pub fn run(&self, cfg: &MultiwayConfig) -> (f64, RunStats) {
        let data = self.data.clone();
        let t0 = Instant::now();
        let report = run_multiway(&self.spec, data, cfg).expect("hypercube3 run");
        (t0.elapsed().as_secs_f64(), RunStats::from(&report))
    }
}

pub fn h3_config(threads: usize) -> MultiwayConfig {
    let mut cfg =
        MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, wl::HYPERCUBE_MACHINES)
            .count_only();
    cfg.worker_threads = Some(threads);
    cfg
}

/// What the runner keeps of a [`JoinReport`].
pub struct RunStats {
    pub ok: bool,
    pub results: u64,
    pub loads: Vec<u64>,
    pub replication_factor: f64,
    pub skew_degree: f64,
    pub scheduler: SchedulerStats,
    pub wire_bytes: u64,
    pub wire_batches: u64,
}

impl From<&JoinReport> for RunStats {
    fn from(r: &JoinReport) -> RunStats {
        let (wire_bytes, wire_batches) = r.transport.as_ref().map_or((0, 0), |t| {
            (t.total_bytes_sent() + t.total_bytes_received(), t.total_batches_sent())
        });
        RunStats {
            ok: r.error.is_none(),
            results: r.result_count,
            loads: r.loads.clone(),
            replication_factor: r.replication_factor,
            skew_degree: r.skew_degree,
            scheduler: r.scheduler.clone(),
            wire_bytes,
            wire_batches,
        }
    }
}

pub fn hypercube3_uniform(args: &Args) -> Outcome {
    let mut setups = SetupTimer::new(|| H3Ctx::setup(args));
    let ctx = setups.first_builds();
    let expected = ctx.expected_count(args);
    let cfg = h3_config(WORKER_THREADS);
    let reps = timed_reps(args.seconds, &mut setups, || {
        let (secs, stats) = ctx.run(&cfg);
        Rep { secs, ok: stats.ok && stats.results == expected }
    });
    batch_outcome(ctx.input_tuples(), &reps, setups.median_s())
}

/// A one-job worker on an ephemeral loopback port, served from a thread of
/// this process.
pub fn spawn_worker() -> (ClusterSpec, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
    let addr = listener.local_addr().expect("worker address").to_string();
    let handle = std::thread::spawn(move || serve_job(&listener).expect("worker job"));
    (ClusterSpec::new([addr]), handle)
}

/// The coordinator's half of the split run, with `threads` executor threads
/// on each side of the socket.
pub fn h3_tcp_run(ctx: &H3Ctx, threads: usize) -> (f64, RunStats) {
    let (cluster, worker) = spawn_worker();
    let mut cfg = h3_config(threads);
    cfg.cluster = Some(cluster);
    let out = ctx.run(&cfg);
    worker.join().expect("worker thread");
    out
}

pub fn hypercube3_tcp(args: &Args) -> Outcome {
    // Set-up includes binding a worker's port, as every query needs one; the
    // connection itself is made inside the timed query.
    let mut setups = SetupTimer::new(|| {
        drop(TcpListener::bind("127.0.0.1:0").expect("bind loopback worker"));
        H3Ctx::setup(args)
    });
    let ctx = setups.first_builds();
    let expected = ctx.expected_count(args);
    // The wire must change neither the answer nor any machine's load.
    let (_, local) = ctx.run(&h3_config(WORKER_THREADS));
    // Both processes get the host's two threads, as two `squall-worker`s
    // started with defaults would. (One thread per side finishes sooner on
    // average but splits the repetitions into a fast and a slow group, and
    // the median then jumps between them from run to run.)
    let reps = timed_reps(args.seconds, &mut setups, || {
        let (secs, stats) = h3_tcp_run(&ctx, WORKER_THREADS);
        Rep { secs, ok: stats.ok && stats.results == expected && stats.loads == local.loads }
    });
    batch_outcome(ctx.input_tuples(), &reps, setups.median_s())
}

// ------------------------------------------------------------ hypercube4.zipf

pub struct Z4Ctx {
    pub session: Session,
    pub data: Zipf4,
    /// Seconds `analyze` took over the four tables.
    pub analyze_s: f64,
}

impl Z4Ctx {
    pub fn setup(args: &Args, threads: usize) -> Z4Ctx {
        let data = wl::zipf4_data(args.sizes.z4_big, args.seed);
        let mut session = Session::builder()
            .machines(wl::HYPERCUBE_MACHINES)
            .local(LocalJoinKind::Traditional)
            .worker_threads(threads)
            .build();
        let rows = [&data.big1, &data.big2, &data.guard1, &data.guard2];
        for ((name, schema), rows) in wl::zipf4_schemas().into_iter().zip(rows) {
            session.register(name, schema, rows.clone()).expect("register");
        }
        let t0 = Instant::now();
        for (name, _) in wl::zipf4_schemas() {
            session.analyze(name).expect("analyze");
        }
        Z4Ctx { session, data, analyze_s: t0.elapsed().as_secs_f64() }
    }

    pub fn input_tuples(&self) -> u64 {
        (self.data.big1.len()
            + self.data.big2.len()
            + self.data.guard1.len()
            + self.data.guard2.len()) as u64
    }

    pub fn expected_count(&self, args: &Args) -> u64 {
        let keep = |rows: &[Tuple]| -> Vec<Tuple> {
            rows.iter()
                .filter(|t| t.get(3).as_int().expect("Int column") < wl::Z4_FILTER_BELOW)
                .cloned()
                .collect()
        };
        let (big1, big2) = (keep(&self.data.big1), keep(&self.data.big2));
        oracle::join_count(&[&big1, &big2, &self.data.guard1, &self.data.guard2], &wl::Z4_ATOMS)
            + u64::from(args.corrupt_reference)
    }

    /// One `Session::sql` query, timed to the materialized `COUNT(*)`.
    pub fn run(&self) -> (f64, Option<u64>, RunStats) {
        let t0 = Instant::now();
        let mut rs = self.session.sql(wl::Z4_SQL).expect("hypercube4 query");
        let count = match rs.rows().first().map(|t| t.get(0)) {
            Some(Value::Int(c)) => Some(*c as u64),
            _ => None,
        };
        let secs = t0.elapsed().as_secs_f64();
        (secs, count, RunStats::from(rs.report().expect("distributed query reports")))
    }
}

pub fn hypercube4_zipf(args: &Args) -> Outcome {
    let mut setups = SetupTimer::new(|| Z4Ctx::setup(args, WORKER_THREADS));
    let ctx = setups.first_builds();
    let expected = ctx.expected_count(args);
    let reps = timed_reps(args.seconds, &mut setups, || {
        let (secs, count, stats) = ctx.run();
        Rep { secs, ok: stats.ok && count == Some(expected) }
    });
    batch_outcome(ctx.input_tuples(), &reps, setups.median_s())
}

// ---------------------------------------------------------- window64.tumbling

pub struct WinCtx {
    pub session: Session,
    pub a: Vec<Tuple>,
    pub b: Vec<Tuple>,
}

pub const WINDOW_MACHINES: usize = 8;

impl WinCtx {
    pub fn setup(args: &Args, threads: usize, agg_shards: usize) -> WinCtx {
        let (a, b) = wl::window_streams(args.sizes.win_rows, args.seed);
        let mut session = Session::builder()
            .machines(WINDOW_MACHINES)
            .agg_parallelism(agg_shards)
            .worker_threads(threads)
            .build();
        let (sa, sb) = wl::window_schemas();
        session.register_stream("A", sa, a.clone(), "ts").expect("register A");
        session.register_stream("B", sb, b.clone(), "ts").expect("register B");
        for name in ["A", "B"] {
            session.analyze(name).expect("analyze");
        }
        WinCtx { session, a, b }
    }

    pub fn input_tuples(&self) -> u64 {
        (self.a.len() + self.b.len()) as u64
    }

    pub fn expected_rows(&self, args: &Args) -> Vec<Tuple> {
        let mut rows = oracle::tumbling_group_rows(&self.a, &self.b, wl::WINDOW_WIDTH);
        if args.corrupt_reference {
            rows.pop();
        }
        rows
    }

    /// One query, timed to the rows materialized in window order.
    pub fn run(&self) -> (f64, Vec<Tuple>, RunStats) {
        let t0 = Instant::now();
        let mut rs = self.session.sql(wl::WINDOW_SQL).expect("window64 query");
        let rows = rs.rows().to_vec();
        let secs = t0.elapsed().as_secs_f64();
        (secs, rows, RunStats::from(rs.report().expect("distributed query reports")))
    }
}

pub fn window64_tumbling(args: &Args) -> Outcome {
    let mut setups = SetupTimer::new(|| WinCtx::setup(args, WORKER_THREADS, 2));
    let ctx = setups.first_builds();
    let expected = ctx.expected_rows(args);
    // Sharding the aggregation must not change a byte of the output.
    let one_shard = WinCtx::setup(args, WORKER_THREADS, 1).run().1;
    let shards_agree = one_shard == ctx.run().1;
    let mut reps = timed_reps(args.seconds, &mut setups, || {
        let (secs, rows, stats) = ctx.run();
        Rep { secs, ok: stats.ok && rows == expected }
    });
    reps.failed += u64::from(!shards_agree);
    let mut out = batch_outcome(ctx.input_tuples(), &reps, setups.median_s());
    out.attempted += 1;
    out
}

// --------------------------------------------------------------- view3.append

pub const VIEW_MACHINES: usize = 4;
/// Distinct `R.a` values: the view's row count, which every snapshot
/// returns in full.
const VIEW_GROUPS: i64 = 1024;

/// What one epoch cost.
pub struct EpochTiming {
    pub append_s: f64,
    pub snapshot_s: f64,
    /// Rows sent to the view this epoch.
    pub tuples: u64,
    pub retract: bool,
    /// Did one of this epoch's Squall epochs (one per `append` / `retract`
    /// call) take a checkpoint?
    pub checkpoint: bool,
    pub ok: bool,
}

impl EpochTiming {
    pub fn total_s(&self) -> f64 {
        self.append_s + self.snapshot_s
    }
}

/// A session with the resident view, the seeded feed, and the bench's own
/// copy of the base relations for the oracle.
pub struct ViewRun {
    session: Session,
    view: ViewHandle,
    feed: ViewFeed,
    /// Rows that are never retracted: the initial load and the fourth
    /// epoch's appends of the first two cycles.
    permanent: Vec<Vec<Tuple>>,
    /// Appended batches awaiting their retraction, oldest first.
    pending: VecDeque<[Vec<Tuple>; 3]>,
    epoch_no: usize,
    checkpoint_interval: u64,
    pub checks: u64,
    pub check_failures: u64,
    /// Every signed batch applied after the initial load, in order:
    /// `(relation, rows, +1 | -1)`. Kept only when `record` is set.
    pub record: Option<Vec<(usize, Vec<Tuple>, i64)>>,
}

impl ViewRun {
    pub fn setup(args: &Args, threads: usize, checkpoint_interval: u64) -> ViewRun {
        let (mut init, feed) = ViewFeed::new(args.sizes, args.seed);
        // Fold R.a into the group domain: R's first column only groups.
        for t in init[0].iter_mut() {
            *t = regroup(t);
        }
        let mut session = Session::builder()
            .machines(VIEW_MACHINES)
            .worker_threads(threads)
            .checkpoint_interval(checkpoint_interval)
            .build();
        for ((name, cols), rows) in wl::VIEW_TABLES.iter().zip(&init) {
            let schema = Schema::of(&[(cols[0], DataType::Int), (cols[1], DataType::Int)]);
            session.register(*name, schema, rows.clone()).expect("register");
        }
        session
            .sql(&format!("CREATE MATERIALIZED VIEW v AS {}", wl::VIEW_SELECT))
            .expect("create view");
        let view = session.view("v").expect("view just created");
        view.snapshot().expect("initial load applied");
        ViewRun {
            session,
            view,
            feed,
            permanent: init,
            pending: VecDeque::new(),
            epoch_no: 0,
            checkpoint_interval,
            checks: 0,
            check_failures: 0,
            record: None,
        }
    }

    /// One epoch. Three of every four append a fresh batch of rows to each
    /// of R, S and T; the fourth retracts the three batches appended two
    /// cycles (8 to 11 epochs) earlier, so the view's state stays the same
    /// size however many epochs a run fits in. Then a snapshot, which waits
    /// until the view has applied everything.
    pub fn step(&mut self) -> EpochTiming {
        let e = self.epoch_no;
        self.epoch_no += 1;
        let retract = e % 4 == 3 && e >= 2 * 4;
        let batches: Vec<[Vec<Tuple>; 3]> = if retract {
            self.pending.drain(..3).collect()
        } else {
            let mut batch = self.feed.next_batch();
            for t in batch[0].iter_mut() {
                *t = regroup(t);
            }
            vec![batch]
        };
        let before = self.view.epoch();
        let t0 = Instant::now();
        let mut ok = true;
        for batch in &batches {
            for ((name, _), rows) in wl::VIEW_TABLES.iter().zip(batch) {
                let applied = if retract {
                    self.session.retract(name, rows.clone()).map(|_| ())
                } else {
                    self.session.append(name, rows.clone()).map(|_| ())
                };
                ok &= applied.is_ok();
            }
        }
        let t1 = Instant::now();
        ok &= self.view.snapshot().is_ok();
        let t2 = Instant::now();
        let after = self.view.epoch();
        let tuples = batches.iter().flatten().map(|b| b.len() as u64).sum();
        if let Some(rec) = self.record.as_mut() {
            for (rel, rows) in batches.iter().flat_map(|b| b.iter().enumerate()) {
                rec.push((rel, rows.clone(), if retract { -1 } else { 1 }));
            }
        }
        if !retract {
            let [batch] = <[_; 1]>::try_from(batches).expect("one appended batch");
            if e % 4 == 3 {
                // The first two cycles have nothing to retract yet: their
                // fourth epoch appends rows that stay for good.
                for (keep, rows) in self.permanent.iter_mut().zip(batch) {
                    keep.extend(rows);
                }
            } else {
                self.pending.push_back(batch);
            }
        }
        let k = self.checkpoint_interval;
        EpochTiming {
            append_s: (t1 - t0).as_secs_f64(),
            snapshot_s: (t2 - t1).as_secs_f64(),
            tuples,
            retract,
            checkpoint: k > 0 && after / k > before / k,
            ok,
        }
    }

    /// The bench's own copy of R, S and T as they stand now.
    pub fn base_relations(&self) -> Vec<Vec<Tuple>> {
        (0..3)
            .map(|r| {
                let mut rows = self.permanent[r].clone();
                for batch in &self.pending {
                    rows.extend(batch[r].iter().cloned());
                }
                rows
            })
            .collect()
    }

    /// Compare the view with the oracle's answer over the bench's own copy
    /// of the base relations.
    pub fn check(&mut self, args: &Args) {
        let rels = self.base_relations();
        let mut expected = oracle::join_group_count(&flatten(&rels), &wl::RST_ATOMS, (0, 0));
        if args.corrupt_reference {
            expected.pop();
        }
        self.checks += 1;
        if self.view.snapshot().ok() != Some(expected) {
            self.check_failures += 1;
        }
    }

    /// Drop the view; its final report.
    pub fn finish(self) -> (RunStats, MaintenanceStats) {
        let ViewRun { session, view, .. } = self;
        drop(view);
        let report = session.drop_view("v").expect("drop view");
        (RunStats::from(&report), report.maintenance.expect("standing report"))
    }
}

fn regroup(t: &Tuple) -> Tuple {
    let a = t.get(0).as_int().expect("Int column") % VIEW_GROUPS;
    Tuple::new(vec![Value::Int(a), t.get(1).clone()])
}

/// Open loop: a generator thread announces one epoch per `period`,
/// whatever the view is doing; each epoch's latency runs from the moment it
/// was due. Returns `(latency s, timing)` per epoch and the generator's
/// worst lateness in seconds.
pub fn open_loop(
    run: &mut ViewRun,
    epochs: usize,
    period: Duration,
) -> (Vec<(f64, EpochTiming)>, f64) {
    let (tx, rx) = mpsc::channel::<(Instant, f64)>();
    let mut out = Vec::with_capacity(epochs);
    let mut worst_lag = 0f64;
    std::thread::scope(|s| {
        s.spawn(move || {
            let start = Instant::now();
            for i in 0..epochs {
                let due = start + period * i as u32;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                if tx.send((due, due.elapsed().as_secs_f64())).is_err() {
                    return;
                }
            }
        });
        for (due, lag) in rx {
            worst_lag = worst_lag.max(lag);
            let timing = run.step();
            out.push((due.elapsed().as_secs_f64(), timing));
        }
    });
    (out, worst_lag)
}

/// Closed loop: back-to-back epochs for `seconds`.
pub fn closed_loop(run: &mut ViewRun, seconds: f64) -> Vec<EpochTiming> {
    let mut out = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        out.push(run.step());
    }
    out
}

pub fn view3_append(args: &Args) -> Outcome {
    let mut setups = SetupTimer::new(|| ViewRun::setup(args, WORKER_THREADS, 16));
    let mut run = setups.first_builds();
    // Warm-up, long enough to reach the steady append/retract cycle.
    for _ in 0..16 {
        run.step();
    }
    // One writer that appends and then reads its own writes is a closed
    // loop: back-to-back epochs, in eight stretches. Between stretches a
    // throw-away set-up is timed, and after every second one the view is
    // checked against the oracle (three interior epochs and the last).
    let mut epochs = Vec::new();
    for stretch in 0..8 {
        epochs.extend(closed_loop(&mut run, args.seconds / 8.0));
        if stretch % 2 == 1 {
            run.check(args);
        }
        if stretch < SETUPS_DURING {
            drop(setups.build().finish());
        }
    }
    let tuples: u64 = epochs.iter().map(|t| t.tuples).sum();
    let total_s: f64 = epochs.iter().map(EpochTiming::total_s).sum();
    // Latency is that of the common request, an append epoch; a retraction
    // epoch is a three times larger request and counts into throughput only.
    let append_s: Vec<f64> =
        epochs.iter().filter(|t| !t.retract).map(EpochTiming::total_s).collect();
    let epoch_errors = epochs.iter().filter(|t| !t.ok).count() as u64;
    let (checks, check_failures) = (run.checks, run.check_failures);
    eprintln!("{} epochs; maintenance: {}", epochs.len(), run.finish().1);
    Outcome {
        attempted: epochs.len() as u64 + checks,
        failed: epoch_errors + check_failures,
        metrics: vec![
            metric("throughput_tps", tuples as f64 / total_s, "tuples/s"),
            metric("result_ms_p50", stats::median(&append_s) * 1e3, "ms"),
            metric("setup_s", setups.median_s(), "s"),
        ],
    }
}
