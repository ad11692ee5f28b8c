//! Distributed topology launch: the coordinator/worker protocol.
//!
//! A **coordinator** (the process driving a query) and N **worker**
//! processes split one topology's tasks between them over loopback or LAN
//! TCP:
//!
//! ```text
//!  coordinator                               worker 1..N
//!  ───────────                               ───────────
//!  bind ephemeral listener                   bind --listen addr
//!  dial each worker, send Job ───────────▶   accept, decode JobSpec
//!  (that stream stays as the                 rebuild the same topology
//!   coordinator→worker data link)            from the plan (no data —
//!  accept one Hello link per worker  ◀────── spouts live here), dial
//!                                            every peer with Hello
//!  launch_cluster(slice 0)                   launch_cluster(slice i)
//!  … Deliver/Abort frames flow both ways, SinkRow/Done flow to the
//!    coordinator; see squall_runtime::transport for the data plane …
//! ```
//!
//! The worker never sees relation data: the [`JobSpec`] ships the *plan*
//! (relations, atoms, scheme kind, seed, knobs) and both sides rebuild
//! the identical topology and the identical deterministic partitioning
//! scheme, so routing decisions agree byte-for-byte with a single-process
//! run. Spout tasks are pinned to the coordinator (where the catalog
//! lives); join/aggregation task ranges are split across all peers by
//! [`squall_runtime::plan_placement`].

use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::Sender;
use std::time::Duration;

use squall_common::codec::Wire;
use squall_common::{Result, SquallError};
use squall_expr::MultiJoinSpec;
use squall_runtime::transport::SnapshotBlobMsg;
use squall_runtime::{
    plan_placement, ClusterLinks, ClusterRun, Frame, Placement, RunHandle, RunOutcome, Topology,
    TransportStats,
};

use crate::checkpoint::RestoreState;
use crate::driver::{assemble, MultiwayConfig};

/// Cluster membership for a session: the worker processes (listen
/// addresses) that distributed runs split their topologies across. The
/// driving process is always peer 0, the coordinator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterSpec {
    pub workers: Vec<String>,
    /// Address the coordinator binds its per-run listener on (default
    /// `127.0.0.1:0` — right for loopback clusters). For LAN workers,
    /// bind a reachable interface, e.g. `0.0.0.0:7400`.
    pub coordinator_bind: Option<String>,
    /// Address workers dial the coordinator at (default: the bound
    /// listener's own address — right for loopback). Set it (host:port,
    /// used verbatim) when binding a wildcard address, which is not
    /// dialable as-is.
    pub coordinator_advertise: Option<String>,
}

impl ClusterSpec {
    pub fn new(workers: impl IntoIterator<Item = impl Into<String>>) -> ClusterSpec {
        ClusterSpec {
            workers: workers.into_iter().map(Into::into).collect(),
            coordinator_bind: None,
            coordinator_advertise: None,
        }
    }

    /// Bind the coordinator's listener on this address (see
    /// [`ClusterSpec::coordinator_bind`]).
    pub fn bind(mut self, addr: impl Into<String>) -> ClusterSpec {
        self.coordinator_bind = Some(addr.into());
        self
    }

    /// Tell workers to dial the coordinator at this address (see
    /// [`ClusterSpec::coordinator_advertise`]).
    pub fn advertise(mut self, addr: impl Into<String>) -> ClusterSpec {
        self.coordinator_advertise = Some(addr.into());
        self
    }

    /// Peer labels for placement display: coordinator + worker addresses.
    pub fn peer_labels(&self) -> Vec<String> {
        let mut labels = vec!["coordinator".to_string()];
        labels.extend(self.workers.iter().cloned());
        labels
    }
}

/// Everything a worker needs to rebuild and run its slice of one query.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// This worker's peer index (1-based; 0 is the coordinator).
    pub me: usize,
    /// Listen addresses by peer index; `peers[0]` is the coordinator's
    /// ephemeral listener.
    pub peers: Vec<String>,
    pub spec: MultiJoinSpec,
    pub cfg: MultiwayConfig,
    /// Recovery relaunch: rebuild operators holding state through this
    /// epoch (`0` = a fresh run).
    pub resume_epoch: u64,
    /// Recovery relaunch: every join task's checkpoint blob (the worker
    /// restores the tasks placed on it and ignores the rest).
    pub restore_join: Vec<(u32, Vec<u8>)>,
}

squall_common::wire_struct! {
    JobSpec { me as u32, peers, spec, cfg, resume_epoch, restore_join } check JobSpec::addressed
}

impl JobSpec {
    /// Peer 0 is the coordinator and `me` indexes `peers`: any other value
    /// would trip the link handshake's assert and take a persistent worker
    /// down with one frame.
    fn addressed(&self) -> Result<()> {
        let n_peers = self.peers.len();
        if self.me == 0 || self.me >= n_peers {
            return Err(SquallError::Codec(format!(
                "job addresses worker {} of {n_peers} peers (workers are 1..{n_peers})",
                self.me
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------

/// Bind the coordinator's ephemeral listener, ship a [`JobSpec`] to every
/// worker and complete the link handshake. The returned placement is the
/// same one every worker computes for itself.
///
/// On a recovery relaunch, `restore` ships the checkpoint's join blobs in
/// every job (each worker restores its placed tasks) and `readmit`
/// prefaces each job with a `Readmit` frame carrying the resume epoch, so
/// workers log the re-admission distinctly from a fresh job.
fn boot_coordinator(
    layout: (Vec<String>, Vec<usize>, Vec<bool>),
    spec: &MultiJoinSpec,
    cfg: &MultiwayConfig,
    cluster: &ClusterSpec,
    restore: Option<&RestoreState>,
    readmit: Option<u64>,
) -> Result<(Placement, ClusterLinks)> {
    if cluster.workers.is_empty() {
        return Err(SquallError::InvalidPlan("cluster with no workers".into()));
    }
    let bind = cluster.coordinator_bind.as_deref().unwrap_or("127.0.0.1:0");
    let listener = TcpListener::bind(bind)?;
    let coordinator_addr = match &cluster.coordinator_advertise {
        Some(addr) => addr.clone(),
        None => listener.local_addr()?.to_string(),
    };
    let mut peers = vec![coordinator_addr];
    peers.extend(cluster.workers.iter().cloned());

    let (_, parallelism, is_spout) = layout;
    let placement = plan_placement(&parallelism, &is_spout, peers.len());

    let (resume_epoch, restore_join) = match restore {
        None => (0, Vec::new()),
        Some(rs) => {
            let mut blobs: Vec<(u32, Vec<u8>)> =
                rs.join.iter().map(|(&t, b)| (t as u32, b.clone())).collect();
            blobs.sort_by_key(|(t, _)| *t);
            (rs.epoch, blobs)
        }
    };
    let jobs: Vec<Vec<u8>> = (1..peers.len())
        .map(|me| {
            JobSpec {
                me,
                peers: peers.clone(),
                spec: spec.clone(),
                cfg: cfg.clone(),
                resume_epoch,
                restore_join: restore_join.clone(),
            }
            .encode()
        })
        .collect();
    let links = ClusterLinks::coordinator(&listener, &cluster.workers, jobs, readmit)?;
    Ok((placement, links))
}

/// Failure-detector patience of a run's links: standing topologies beat
/// (and time peers out) at `heartbeat_timeout_ms`; one-shot runs only fail
/// on a closed socket. Both ends of a link derive it from the same config.
fn heartbeat(cfg: &MultiwayConfig) -> Option<Duration> {
    (cfg.standing && cfg.heartbeat_timeout_ms > 0)
        .then(|| Duration::from_millis(cfg.heartbeat_timeout_ms))
}

/// Launch an assembled topology where `cfg` says it runs: on this
/// process's worker pool, or — with [`MultiwayConfig::cluster`] set — split
/// across the cluster with this process as coordinator (see
/// [`boot_coordinator`] for `restore` / `readmit`). `blob_tx` receives the
/// checkpoint blobs workers ship back.
pub(crate) fn launch(
    topology: Topology,
    spec: &MultiJoinSpec,
    cfg: &MultiwayConfig,
    blob_tx: Option<Sender<SnapshotBlobMsg>>,
    restore: Option<&RestoreState>,
    readmit: Option<u64>,
) -> Result<(RunHandle, Option<ClusterRun>)> {
    let Some(cluster) = &cfg.cluster else {
        return Ok((topology.launch(), None));
    };
    let (placement, mut links) =
        boot_coordinator(topology.layout(), spec, cfg, cluster, restore, readmit)?;
    links.blob_tx = blob_tx;
    links.heartbeat = heartbeat(cfg);
    let (handle, run) = topology.launch_cluster(placement, links);
    Ok((handle, Some(run)))
}

/// Join a launched run: wait for the local pool (every egress queue then
/// holds its final punctuation), and under a cluster drain the links,
/// fold the workers' metric snapshots (their local task counters;
/// everything else zero) into ours and adopt a remote error — or a
/// snapshot that does not fit our topology — if we had none. Returns the
/// wire traffic alongside for clustered runs.
pub(crate) fn finish(
    handle: RunHandle,
    cluster: Option<ClusterRun>,
) -> (RunOutcome, Option<TransportStats>) {
    let mut outcome = handle.finish();
    let transport = cluster.map(|run| {
        let summary = run.finish(None);
        let merged: Result<()> =
            summary.remote_metrics.iter().try_for_each(|remote| outcome.metrics.merge(remote));
        if outcome.error.is_none() {
            outcome.error = summary.remote_error.or(merged.err());
        }
        summary.transport
    });
    (outcome, transport)
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Serve exactly one job on an already-bound listener: accept the
/// coordinator's `Job` (plus any worker `Hello`s that race ahead of it),
/// rebuild the topology slice, run it, and report `Done`. Returns once
/// the job's run has fully drained.
pub fn serve_job(listener: &TcpListener) -> Result<()> {
    let mut hellos: Vec<(usize, TcpStream)> = Vec::new();
    let mut readmitted: Option<u64> = None;
    let (job_payload, job_conn) = loop {
        let (stream, _) = listener.accept().map_err(SquallError::from)?;
        stream.set_nodelay(true).ok();
        // First frame with a deadline (a connection that sends nothing
        // must not wedge the worker), exact reads straight off the
        // stream: a frame racing in behind the handshake must stay in
        // the socket for the recv pump.
        let deadline = std::time::Instant::now() + squall_runtime::transport::HANDSHAKE_TIMEOUT;
        match squall_runtime::transport::read_frame_deadline(&stream, deadline)? {
            Some((Frame::Job { payload }, _)) => break (payload, stream),
            Some((Frame::Hello { peer }, _)) => hellos.push((peer, stream)),
            Some((Frame::Readmit { peer, epoch }, _)) => {
                // A recovering coordinator re-admits this worker: the Job
                // frame follows on the same stream.
                eprintln!("squall-worker: re-admitted as peer {peer} at epoch {epoch}");
                readmitted = Some(epoch);
                match squall_runtime::transport::read_frame_deadline(&stream, deadline)? {
                    Some((Frame::Job { payload }, _)) => break (payload, stream),
                    other => {
                        return Err(SquallError::Runtime(format!(
                            "expected Job after Readmit, got {other:?}"
                        )))
                    }
                }
            }
            other => {
                return Err(SquallError::Runtime(format!(
                    "expected Job or Hello from a cluster peer, got {other:?}"
                )))
            }
        }
    };
    let job = JobSpec::decode(&job_payload)?;
    eprintln!(
        "squall-worker: accepted job as peer {} of {} ({}, checkpoint-interval {})",
        job.me,
        job.peers.len(),
        if job.cfg.standing { "standing" } else { "batch" },
        job.cfg.checkpoint_interval,
    );

    // Rebuild the identical topology — without data: every spout task is
    // placed on the coordinator, so the factories are never invoked here.
    // Checkpoint plumbing: join bolts on this worker hand snapshot blobs
    // to a local channel; a detached forwarder ships them to the
    // coordinator as `SnapshotBlob` frames once the links are up.
    let mut blob_rx = None;
    let (topology, restored) = if job.cfg.standing {
        let blob_tx = (job.cfg.checkpoint_interval > 0).then(|| {
            let (tx, rx) = std::sync::mpsc::channel();
            blob_rx = Some(rx);
            tx
        });
        let restore = (job.resume_epoch > 0).then(|| {
            std::sync::Arc::new(RestoreState {
                epoch: job.resume_epoch,
                join: job.restore_join.iter().map(|(t, b)| (*t as usize, b.clone())).collect(),
                sink: None,
            })
        });
        let restored = restore.is_some();
        // Standing views rebuild the resident topology shape; the live
        // queues and the view sink live on the coordinator only.
        let topology =
            crate::standing::assemble_standing(&job.spec, &job.cfg, None, restore, blob_tx)?.0;
        (topology, restored)
    } else {
        let empty_data = vec![Vec::<squall_common::Tuple>::new(); job.spec.n_relations()];
        (assemble(&job.spec, empty_data, &job.cfg)?.0, false)
    };
    if restored {
        eprintln!(
            "squall-worker: restoring join state from checkpoint epoch {} ({} blobs shipped)",
            job.resume_epoch,
            job.restore_join.len()
        );
    }
    let (_, parallelism, is_spout) = topology.layout();
    let placement = plan_placement(&parallelism, &is_spout, job.peers.len());

    let mut links = ClusterLinks::worker(listener, job.me, &job.peers, job_conn, hellos)?;
    links.heartbeat = heartbeat(&job.cfg);
    let (mut handle, cluster) = topology.launch_cluster(placement, links);

    // Forward checkpoint blobs to the coordinator in the background; the
    // thread dies with the channel when the topology is torn down.
    if let (Some(rx), Some(sender)) = (blob_rx.take(), cluster.frame_sender()) {
        std::thread::spawn(move || {
            while let Ok((role, task, epoch, payload)) = rx.recv() {
                sender.send(Frame::SnapshotBlob { role, task, epoch, payload });
            }
        });
    }
    let _ = readmitted; // logged above; the run itself is epoch-agnostic

    // Local sink emissions stream to the coordinator as they happen.
    while let Some((node, tuple)) = handle.recv() {
        cluster.forward_sink(node, tuple);
    }
    let outcome = handle.finish();
    let error = outcome.error;
    cluster.finish(Some((outcome.metrics, error)));
    Ok(())
}

/// Run a worker: serve jobs until `once` (then return after the first) or
/// forever. `on_ready` receives the bound address before serving — the
/// `squall-worker` binary prints it so spawners can discover ephemeral
/// ports.
///
/// A long-lived worker is resilient: a failed job (handshake garbage
/// from a port scanner, a coordinator that died mid-run, a malformed
/// frame) is logged and the worker goes back to accepting — one bad
/// connection must not take a cluster node down. With `once`, the error
/// propagates so spawners (tests, CI) see the failure.
pub fn run_worker(
    listen: &str,
    once: bool,
    on_ready: impl FnOnce(std::net::SocketAddr),
) -> Result<()> {
    let listener = TcpListener::bind(listen)?;
    let addr = listener.local_addr()?;
    eprintln!("squall-worker: listening on {addr}");
    on_ready(addr);
    loop {
        match serve_job(&listener) {
            Ok(()) => {}
            Err(e) if once => return Err(e),
            Err(SquallError::WorkerLost { addr, last_epoch }) => eprintln!(
                "squall-worker: heartbeat miss — peer {addr} lost after epoch {last_epoch}; awaiting re-admission"
            ),
            Err(e) => eprintln!("squall-worker: job failed: {e}; serving the next one"),
        }
        if once {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{AggPlan, LocalJoinKind, WindowPlan};
    use squall_common::{DataType, Schema};
    use squall_expr::{JoinAtom, RelationDef, ScalarExpr};
    use squall_join::{AggSpec, WindowSpec};
    use squall_partition::optimizer::SchemeKind;

    fn rst_spec() -> MultiJoinSpec {
        let mut s = Schema::of(&[("y", DataType::Int), ("z", DataType::Int)]);
        s.set_skewed("z").unwrap();
        MultiJoinSpec::new(
            vec![
                RelationDef::new(
                    "R",
                    Schema::of(&[("x", DataType::Int), ("y", DataType::Int)]),
                    100,
                ),
                RelationDef::new("S", s, 200),
                RelationDef::new(
                    "T",
                    Schema::of(&[("z", DataType::Int), ("t", DataType::Int)]),
                    300,
                ),
            ],
            vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)],
        )
        .unwrap()
    }

    #[test]
    fn job_spec_roundtrips_plan_and_config() {
        let mut cfg = MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, 8);
        cfg.seed = 77;
        cfg.budget = Some(1234);
        cfg.batch_size = 17;
        cfg.worker_threads = Some(3);
        cfg.collect_results = false;
        cfg.standing = true;
        cfg.agg = Some(AggPlan {
            group_cols: vec![0, 3],
            aggs: vec![AggSpec::count(), AggSpec::sum(ScalarExpr::col(5))],
            parallelism: 4,
        });
        cfg.window =
            Some(WindowPlan { spec: WindowSpec::Sliding { size: 30 }, ts_cols: vec![1, 1, 0] });
        cfg.checkpoint_interval = 5;
        cfg.heartbeat_timeout_ms = 750;
        let job = JobSpec {
            me: 2,
            peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into(), "127.0.0.1:3".into()],
            spec: rst_spec(),
            cfg,
            resume_epoch: 9,
            restore_join: vec![(0, vec![1, 2, 3]), (3, Vec::new())],
        };
        let decoded = JobSpec::decode(&job.encode()).unwrap();
        assert_eq!(decoded.me, 2);
        assert_eq!(decoded.peers, job.peers);
        assert_eq!(decoded.spec.relations.len(), 3);
        assert_eq!(decoded.spec.relations[1].name, "S");
        assert!(!decoded.spec.relations[1].schema.field(1).skew_free, "skew hint survives");
        assert_eq!(decoded.spec.atoms, job.spec.atoms);
        assert_eq!(decoded.cfg.scheme, SchemeKind::Hybrid);
        assert_eq!(decoded.cfg.machines, 8);
        assert_eq!(decoded.cfg.seed, 77);
        assert_eq!(decoded.cfg.budget, Some(1234));
        assert_eq!(decoded.cfg.batch_size, 17);
        assert_eq!(decoded.cfg.worker_threads, Some(3));
        assert!(!decoded.cfg.collect_results);
        assert!(decoded.cfg.standing);
        let agg = decoded.cfg.agg.unwrap();
        assert_eq!(agg.group_cols, vec![0, 3]);
        assert_eq!(agg.aggs.len(), 2);
        assert_eq!(agg.parallelism, 4);
        let w = decoded.cfg.window.unwrap();
        assert_eq!(w.spec, WindowSpec::Sliding { size: 30 });
        assert_eq!(w.ts_cols, vec![1, 1, 0]);
        assert_eq!(decoded.cfg.checkpoint_interval, 5);
        assert_eq!(decoded.cfg.heartbeat_timeout_ms, 750);
        assert_eq!(decoded.resume_epoch, 9);
        assert_eq!(decoded.restore_join, vec![(0, vec![1, 2, 3]), (3, Vec::new())]);
    }

    /// Spawn in-process worker threads, each serving one job over real
    /// loopback TCP — the transport neither knows nor cares that the
    /// "processes" share an address space (the e2e suite runs genuinely
    /// separate OS processes).
    fn spawn_workers(n: usize) -> (Vec<String>, Vec<std::thread::JoinHandle<()>>) {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            addrs.push(listener.local_addr().unwrap().to_string());
            handles.push(std::thread::spawn(move || serve_job(&listener).unwrap()));
        }
        (addrs, handles)
    }

    fn rst_data(n: usize, dom: i64, seed: u64) -> Vec<Vec<squall_common::Tuple>> {
        use squall_common::{tuple, SplitMix64};
        let mut rng = SplitMix64::new(seed);
        (0..3)
            .map(|_| {
                (0..n).map(|_| tuple![rng.next_range(0, dom), rng.next_range(0, dom)]).collect()
            })
            .collect()
    }

    #[test]
    fn loopback_cluster_matches_local_run() {
        let spec = rst_spec();
        let data = rst_data(150, 12, 9);
        let cfg = MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, 8);
        let local = crate::driver::run_multiway(&spec, data.clone(), &cfg).unwrap();
        assert!(local.error.is_none());

        let (addrs, handles) = spawn_workers(2);
        let mut dist_cfg = cfg.clone();
        dist_cfg.cluster = Some(ClusterSpec::new(addrs));
        let dist = crate::driver::run_multiway(&spec, data, &dist_cfg).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert!(dist.error.is_none(), "{:?}", dist.error);

        let mut a = local.results.clone();
        let mut b = dist.results.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "row-identical results across the wire");
        assert_eq!(local.loads, dist.loads, "per-machine loads are placement-independent");
        assert_eq!(local.result_count, dist.result_count);
        assert_eq!(local.input_count, dist.input_count);
        assert_eq!(local.scheme_description, dist.scheme_description);
        let transport = dist.transport.expect("distributed run reports wire traffic");
        assert!(transport.total_batches_sent() > 0, "{transport}");
        assert!(transport.total_bytes_received() > 0, "{transport}");
        assert!(local.transport.is_none());
    }

    #[test]
    fn loopback_cluster_aggregate_and_count_only_modes() {
        let spec = rst_spec();
        let data = rst_data(100, 8, 4);
        // Aggregate: SELECT col0, COUNT(*) GROUP BY col0 over the join.
        let mut agg_cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 6)
            .with_agg(AggPlan {
                group_cols: vec![0],
                aggs: vec![AggSpec::count()],
                parallelism: 3,
            });
        let local = crate::driver::run_multiway(&spec, data.clone(), &agg_cfg).unwrap();
        let (addrs, handles) = spawn_workers(2);
        // Exercise the explicit bind knob alongside the default.
        agg_cfg.cluster = Some(ClusterSpec::new(addrs).bind("127.0.0.1:0"));
        let dist = crate::driver::run_multiway(&spec, data.clone(), &agg_cfg).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let mut a = local.results.clone();
        let mut b = dist.results.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "aggregate rows identical across the wire");
        assert_eq!(local.loads, dist.loads);

        // Count-only: remote join tasks fold their results into COUNT(*)
        // partials, and their folded counts ride the merged metrics.
        let mut count_cfg =
            MultiwayConfig::new(SchemeKind::Random, LocalJoinKind::DBToaster, 6).count_only();
        let local = crate::driver::run_multiway(&spec, data.clone(), &count_cfg).unwrap();
        let (addrs, handles) = spawn_workers(1);
        count_cfg.cluster = Some(ClusterSpec::new(addrs));
        let dist = crate::driver::run_multiway(&spec, data, &count_cfg).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(local.result_count, dist.result_count);
        assert!(dist.results.is_empty());
    }

    #[test]
    fn loopback_cluster_abort_drains_with_typed_error() {
        let spec = rst_spec();
        let data = rst_data(400, 4, 10);
        let mut cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2)
            .count_only()
            .with_budget(50);
        let local = crate::driver::run_multiway(&spec, data.clone(), &cfg).unwrap();
        assert!(matches!(local.error, Some(SquallError::MemoryOverflow { .. })));

        let (addrs, handles) = spawn_workers(2);
        cfg.cluster = Some(ClusterSpec::new(addrs));
        let dist = crate::driver::run_multiway(&spec, data, &cfg).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        // The overflow happened on a worker-hosted machine; the typed
        // error (with its budget) crossed the wire intact and every
        // process drained to termination.
        match dist.error {
            Some(SquallError::MemoryOverflow { budget, .. }) => assert_eq!(budget, 50),
            other => panic!("expected MemoryOverflow over the wire, got {other:?}"),
        }
        assert!(dist.input_count > 0, "partial metrics for extrapolation");
    }

    /// A `run_worker(.., once = false, ..)` on its own thread (it runs
    /// forever; the thread is abandoned when the test binary exits).
    fn spawn_persistent_worker() -> String {
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = run_worker("127.0.0.1:0", false, move |addr| {
                addr_tx.send(addr.to_string()).unwrap();
            });
        });
        addr_rx.recv().unwrap()
    }

    /// The worker at `addr` is still serving: a real job split with it
    /// runs clean and loads match the single-process run.
    fn assert_serves_a_good_job(addr: String) {
        let spec = rst_spec();
        let data = rst_data(60, 8, 3);
        let mut cfg = MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, 4);
        let local = crate::driver::run_multiway(&spec, data.clone(), &cfg).unwrap();
        cfg.cluster = Some(ClusterSpec::new([addr]));
        let dist = crate::driver::run_multiway(&spec, data, &cfg).unwrap();
        assert!(dist.error.is_none(), "{:?}", dist.error);
        assert_eq!(local.loads, dist.loads);
    }

    #[test]
    fn persistent_worker_survives_garbage_connections() {
        // A long-lived worker must shrug off a port-scan-style connection
        // (connect + disconnect without a frame) and still serve the next
        // real job.
        let addr = spawn_persistent_worker();
        drop(TcpStream::connect(&addr).unwrap());
        assert_serves_a_good_job(addr);
    }

    #[test]
    fn garbage_restore_blob_is_a_typed_error_and_the_worker_serves_on() {
        // A `Job` frame's restore blobs are wire input: a truncated one
        // fails the job before any bolt is built from it, and the same
        // listener then serves a valid job.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2);
        cfg.standing = true;
        let job = JobSpec {
            me: 1,
            peers: vec!["127.0.0.1:1".into(), addr.clone()],
            spec: rst_spec(),
            cfg,
            resume_epoch: 1,
            restore_join: vec![(0, vec![0, 1, 2])],
        };
        let mut coordinator = TcpStream::connect(&addr).unwrap();
        Frame::Job { payload: job.encode() }.write_to(&mut coordinator).unwrap();
        let err = serve_job(&listener).unwrap_err();
        assert!(matches!(err, SquallError::Codec(_)), "{err}");
        let worker = std::thread::spawn(move || serve_job(&listener));
        assert_serves_a_good_job(addr);
        worker.join().unwrap().unwrap();
    }

    #[test]
    fn empty_cluster_is_a_typed_error() {
        let spec = rst_spec();
        let mut cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2);
        cfg.cluster = Some(ClusterSpec::new(Vec::<String>::new()));
        let err = crate::driver::run_multiway(&spec, rst_data(10, 4, 1), &cfg).unwrap_err();
        assert!(matches!(err, SquallError::InvalidPlan(_)), "{err}");
    }

    #[test]
    fn zero_width_window_job_is_a_typed_error_on_the_worker() {
        // A decoded `JobSpec` is wire input: a window no width fits must
        // fail the job before a task divides by it, and a pool of no
        // threads or an aggregate of no tasks before the topology builder
        // asserts on it.
        let base = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2);
        let zero_width = base.clone().with_window(WindowPlan {
            spec: WindowSpec::Tumbling { width: 0 },
            ts_cols: vec![1, 1, 1],
        });
        let mut no_workers = base.clone();
        no_workers.worker_threads = Some(0);
        let no_agg_tasks = base.with_agg(AggPlan {
            group_cols: vec![0],
            aggs: vec![AggSpec::count()],
            parallelism: 0,
        });
        for cfg in [zero_width, no_workers, no_agg_tasks] {
            let job = JobSpec {
                me: 1,
                peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
                spec: rst_spec(),
                cfg,
                resume_epoch: 0,
                restore_join: Vec::new(),
            };
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut coordinator = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            Frame::Job { payload: job.encode() }.write_to(&mut coordinator).unwrap();
            let err = serve_job(&listener).unwrap_err();
            assert!(matches!(err, SquallError::InvalidPlan(_)), "{err}");
        }
    }

    #[test]
    fn dbtoaster_join_past_its_relation_limit_is_a_typed_error_on_the_worker() {
        // A `Job` frame for a 31-relation DBToaster join — a batch one, or a
        // standing one, which runs DBToaster whatever its local kind — must
        // fail the job, not panic the worker building the join's views.
        let n = squall_join::dbtoaster::MAX_RELATIONS + 1;
        let rel = |i: usize| {
            let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
            RelationDef::new(format!("R{i}"), schema, 1)
        };
        let atoms = (1..n).map(|i| JoinAtom::eq(i - 1, 1, i, 0)).collect();
        let spec = MultiJoinSpec::new((0..n).map(rel).collect(), atoms).unwrap();
        let batch = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2);
        let mut standing = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::Traditional, 2);
        standing.standing = true;
        for cfg in [batch, standing] {
            let job = JobSpec {
                me: 1,
                peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
                spec: spec.clone(),
                cfg,
                resume_epoch: 0,
                restore_join: Vec::new(),
            };
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut coordinator = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            Frame::Job { payload: job.encode() }.write_to(&mut coordinator).unwrap();
            let err = serve_job(&listener).unwrap_err();
            assert!(matches!(err, SquallError::InvalidPlan(_)), "{err}");
        }
    }

    #[test]
    fn corrupt_job_is_a_typed_error() {
        let base = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::Traditional, 2);
        let job = |me: usize, cfg: &MultiwayConfig| JobSpec {
            me,
            peers: vec!["a".into(), "b".into()],
            spec: rst_spec(),
            cfg: cfg.clone(),
            resume_epoch: 0,
            restore_join: Vec::new(),
        };
        let mut bytes = job(1, &base).encode();
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(JobSpec::decode(&bytes), Err(SquallError::Codec(_))));

        // A job addressed to the coordinator's slot or past the peer list
        // fails that one job on a persistent worker, which then serves the
        // next good one.
        let addr = spawn_persistent_worker();
        for me in [0, 2] {
            let payload = job(me, &base).encode();
            assert!(matches!(JobSpec::decode(&payload), Err(SquallError::Codec(_))), "me = {me}");
            let mut conn = TcpStream::connect(&addr).unwrap();
            Frame::Job { payload }.write_to(&mut conn).unwrap();
        }
        // So does a plan that decodes but cannot run: a group-by column the
        // join output does not have (an index panic on a join task), a task
        // count that sizing anything by would never return from.
        let bad_group = base.clone().with_agg(AggPlan {
            group_cols: vec![99],
            aggs: vec![AggSpec::count()],
            parallelism: 1,
        });
        let mut too_many = base.clone();
        too_many.machines = 1 << 33;
        for cfg in [bad_group, too_many] {
            let payload = job(1, &cfg).encode();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut conn = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            Frame::Job { payload: payload.clone() }.write_to(&mut conn).unwrap();
            let err = serve_job(&listener).unwrap_err();
            assert!(matches!(err, SquallError::InvalidPlan(_)), "{err}");
            let mut conn = TcpStream::connect(&addr).unwrap();
            Frame::Job { payload }.write_to(&mut conn).unwrap();
        }
        assert_serves_a_good_job(addr);
    }

    /// Jobs that between them use every variant of every tag table a plan
    /// carries — scheme, local join, window shape, aggregate function,
    /// expression kind, binary and comparison operator, data type, literal
    /// kind — and both arms of every option.
    fn corpus_jobs() -> Vec<JobSpec> {
        use squall_common::{Date, Value};
        use squall_expr::{BinOp, CmpOp};
        let types = [DataType::Int, DataType::Float, DataType::Str, DataType::Date];
        let schema = |t: DataType| Schema::of(&[("k", DataType::Int), ("v", t)]);
        let mut skewed = schema(DataType::Str);
        skewed.set_skewed("k").unwrap();
        let relations = vec![
            RelationDef::new("R", schema(DataType::Float), 10),
            RelationDef::new("S", skewed, 20),
            RelationDef::new("T", schema(DataType::Date), 30),
        ];
        let equi = vec![JoinAtom::eq(0, 0, 1, 0), JoinAtom::eq(1, 0, 2, 0)];
        let mut theta = equi.clone();
        for op in [CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            theta.push(JoinAtom { left_rel: 0, left_col: 1, op, right_rel: 2, right_col: 1 });
        }
        let literals =
            [Value::Null, Value::Int(-3), Value::Float(0.5), Value::str("x"), Value::Date(Date(9))];
        let ops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::And,
            BinOp::Or,
        ];
        let mut expr = ScalarExpr::col(1);
        for (i, op) in ops.into_iter().enumerate() {
            let lit = ScalarExpr::Literal(literals[i % literals.len()].clone());
            expr = ScalarExpr::bin(op, expr, ScalarExpr::cast(lit, types[i % types.len()]));
        }
        let expr = ScalarExpr::Not(Box::new(expr));
        let job = |scheme, local, atoms: &[JoinAtom], agg, window| {
            let mut cfg = MultiwayConfig::new(scheme, local, 4);
            cfg.agg = Some(agg);
            cfg.window = window;
            JobSpec {
                me: 1,
                peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
                spec: MultiJoinSpec::new(relations.clone(), atoms.to_vec()).unwrap(),
                cfg,
                resume_epoch: 0,
                restore_join: Vec::new(),
            }
        };
        let agg = |aggs| AggPlan { group_cols: vec![0, 5], aggs, parallelism: 2 };
        let window = |spec| Some(WindowPlan { spec, ts_cols: vec![0, 0, 0] });
        let hash = job(
            SchemeKind::Hash,
            LocalJoinKind::Traditional,
            &equi,
            agg(vec![AggSpec::count()]),
            window(WindowSpec::Tumbling { width: 8 }),
        );
        let mut random = job(
            SchemeKind::Random,
            LocalJoinKind::DBToaster,
            &equi,
            agg(vec![AggSpec::sum(expr.clone())]),
            window(WindowSpec::Sliding { size: 5 }),
        );
        random.cfg.budget = Some(1000);
        random.cfg.worker_threads = Some(2);
        let mut hybrid = job(
            SchemeKind::Hybrid,
            LocalJoinKind::DBToaster,
            &theta,
            agg(vec![AggSpec::avg(expr), AggSpec::count()]),
            window(WindowSpec::FullHistory),
        );
        hybrid.cfg.standing = true;
        hybrid.resume_epoch = 3;
        hybrid.restore_join = vec![(0, vec![1, 2, 3]), (1, Vec::new())];
        let mut plain =
            job(SchemeKind::Hash, LocalJoinKind::DBToaster, &equi, agg(Vec::new()), None);
        plain.cfg.agg = None;
        vec![hash, random, hybrid, plain]
    }

    /// One frame of every kind, a job frame carrying a corpus job, and a
    /// data frame of every message kind (batches with dictionary, plain,
    /// validity-bearing, mixed and null columns).
    fn corpus_frames() -> Vec<Frame> {
        use squall_common::{tuple, Chunk, Date, Tuple, Value};
        use squall_runtime::message::Message;
        use squall_runtime::{MetricsSnapshot, NodeMetrics, SchedulerStats};
        let metrics = MetricsSnapshot {
            nodes: vec![NodeMetrics {
                node: 1,
                name: "join".into(),
                received: vec![1, 2],
                sent: vec![3],
                emitted: Vec::new(),
            }],
            scheduler: SchedulerStats {
                workers: 2,
                steals: 1,
                yields: 0,
                blocked: 4,
                max_queue_depth: 9,
            },
        };
        let dict: Vec<Tuple> = (0..64i64).map(|i| tuple![i % 3, Value::Null]).collect();
        // A validity-bearing column first (its bitmap is the first thing
        // sized by the row count), then a mixed Int / Float one.
        let plain = [tuple!["ab", 7, 0.5, Date(3)], tuple![Value::Null, 2.5, 2.0, Date(-4)]];
        let mut frames = vec![
            Frame::Hello { peer: 2 },
            Frame::Job { payload: corpus_jobs()[1].encode() },
            Frame::Heartbeat { epoch: 5 },
            Frame::SnapshotBlob { role: 0, task: 3, epoch: 5, payload: vec![4, 5, 6] },
            Frame::Readmit { peer: 1, epoch: 5 },
            Frame::SinkRow { node: 2, tuple: tuple![1, "x", 2.5, Value::Null, Date(6)] },
            Frame::Abort {
                error: SquallError::MemoryOverflow { machine: 1, stored: 9, budget: 8 },
            },
            Frame::Abort { error: SquallError::ViewInUse { view: "v".into() } },
            Frame::Done { metrics: metrics.clone(), error: None },
            Frame::Done {
                metrics,
                error: Some(SquallError::WorkerLost { addr: "w".into(), last_epoch: 2 }),
            },
            Frame::Goodbye,
        ];
        let messages = [
            Message::Batch { origin: 1, chunk: Chunk::from_tuples(&dict) },
            Message::Batch { origin: 0, chunk: Chunk::from_tuples(&plain) },
            Message::Eos,
            Message::Watermark { origin: 1, from_task: 2, ts: 77 },
            Message::Barrier { epoch: 5 },
        ];
        frames.extend(messages.map(|msg| Frame::Deliver { to_task: 3, msg }));
        frames
    }

    /// A decode-fuzz case: a corpus entry cut at `at` (whole at its
    /// length), or single-byte flipped by a seed.
    #[derive(Clone, Copy, Debug)]
    #[allow(dead_code)] // the fields are read by `Debug`, in failure messages
    enum Case {
        Cut { entry: usize, at: usize },
        Flip { seed: u64, entry: usize },
    }

    thread_local! {
        /// The case decoding on this thread and the most bytes one
        /// allocation may take while it does.
        static BOUND: std::cell::Cell<Option<(Case, usize)>> = const { std::cell::Cell::new(None) };
    }

    /// Fails an allocation past the bound armed on its thread, naming the
    /// case first (the failed allocation then aborts the test binary) — how
    /// the decode fuzz checks that no count read off the wire sizes an
    /// allocation beyond what its input could hold.
    struct BoundedAlloc;

    fn within_bound(size: usize) -> bool {
        match BOUND.with(|b| b.get()) {
            Some((case, bound)) if size > bound => {
                BOUND.with(|b| b.set(None));
                // Straight to the stream: the test harness's captured
                // output dies with the process.
                let line = format_args!("wire decode fuzz: {case:?} allocates {size} bytes\n");
                let _ = std::io::Write::write_fmt(&mut std::io::stderr(), line);
                false
            }
            _ => true,
        }
    }

    // SAFETY: each call goes to `System` unchanged, or fails with a null
    // pointer — which `GlobalAlloc` allows of any allocation, `realloc`
    // then leaving the old block as it was. The bound lives in a
    // const-initialized thread-local, so reading it allocates nothing.
    unsafe impl std::alloc::GlobalAlloc for BoundedAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            match within_bound(layout.size()) {
                true => std::alloc::System.alloc(layout),
                false => std::ptr::null_mut(),
            }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, size: usize) -> *mut u8 {
            match within_bound(size) {
                true => std::alloc::System.realloc(ptr, layout, size),
                false => std::ptr::null_mut(),
            }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOC: BoundedAlloc = BoundedAlloc;

    /// What a fuzz input is decoded as.
    #[derive(Clone, Copy)]
    enum Decoded {
        Frame,
        Job,
    }

    /// Decode `bytes` as `what` the way a peer does — a frame through
    /// `Frame::decode`, a job through `JobSpec::decode` — with every
    /// allocation bounded by the input's length: each decoded element is
    /// under 128 bytes and `Reader::len` admits at most one per remaining
    /// byte (the slack covers an error message).
    fn decode_as(case: Case, what: Decoded, bytes: &[u8]) -> Result<Option<JobSpec>> {
        BOUND.with(|b| b.set(Some((case, 128 * bytes.len() + 256))));
        let decoded = match what {
            Decoded::Job => JobSpec::decode(bytes).map(Some),
            Decoded::Frame => match Frame::decode(bytes) {
                Ok(Frame::Job { payload }) => JobSpec::decode(&payload).map(Some),
                other => other.map(|_| None),
            },
        };
        BOUND.with(|b| b.set(None));
        decoded
    }

    /// What a worker does with a decoded job before any task runs: check
    /// the plan and build its topology slice.
    fn build(job: &JobSpec) -> Result<()> {
        if job.cfg.standing {
            crate::standing::assemble_standing(&job.spec, &job.cfg, None, None, None).map(drop)
        } else {
            assemble(&job.spec, vec![Vec::new(); job.spec.n_relations()], &job.cfg).map(drop)
        }
    }

    /// The corpus: every frame kind and every corpus job, as encoded bytes.
    fn corpus() -> Vec<(Decoded, Vec<u8>)> {
        let frames = corpus_frames().into_iter().map(|f| (Decoded::Frame, f.encode()));
        frames.chain(corpus_jobs().into_iter().map(|j| (Decoded::Job, j.encode()))).collect()
    }

    /// Names the case a panic happened in, so it replays (a flip with
    /// `fuzz_seed(&corpus(), seed)`).
    struct Replay(Case);

    impl Drop for Replay {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("wire decode fuzz failed at {:?}", self.0);
            }
        }
    }

    /// One seeded case: one single-byte flip of every corpus entry. Each
    /// must decode to a value or a typed error (`Codec`, or `InvalidPlan`
    /// from the join spec's checks) within its allocation bound, and a
    /// decoded job must build or fail a plan check with a typed error.
    fn fuzz_seed(corpus: &[(Decoded, Vec<u8>)], seed: u64) {
        let mut rng = squall_common::SplitMix64::new(seed);
        for (entry, (what, bytes)) in corpus.iter().enumerate() {
            let case = Case::Flip { seed, entry };
            let _replay = Replay(case);
            let mut flipped = bytes.clone();
            let at = rng.next_below(flipped.len());
            flipped[at] ^= 1 + rng.next_below(255) as u8;
            match decode_as(case, *what, &flipped).map(|job| job.map_or(Ok(()), |j| build(&j))) {
                Ok(Ok(()))
                | Err(SquallError::Codec(_) | SquallError::InvalidPlan(_))
                | Ok(Err(SquallError::InvalidPlan(_) | SquallError::InvalidPartitioning(_))) => {}
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn wire_decode_fuzz_truncations_and_flips() {
        let corpus = corpus();
        // Every entry decodes whole, and a cut anywhere is a codec error.
        for (entry, (what, bytes)) in corpus.iter().enumerate() {
            for at in 0..=bytes.len() {
                let case = Case::Cut { entry, at };
                let decoded = decode_as(case, *what, &bytes[..at]);
                let ok = match decoded {
                    Err(SquallError::Codec(_)) => at < bytes.len(),
                    _ => at == bytes.len() && decoded.is_ok(),
                };
                assert!(ok, "{case:?}: {:?}", decoded.map(drop));
            }
        }
        // More seeds in a release build (CI's fuzz step), where a case costs
        // microseconds.
        let seeds = if cfg!(debug_assertions) { 200 } else { 20_000 };
        (0..seeds).for_each(|seed| fuzz_seed(&corpus, seed));
    }
}
