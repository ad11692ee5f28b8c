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

use squall_common::codec::{self, Reader};
use squall_common::{DataType, Field, Result, Schema, SquallError};
use squall_expr::join_cond::CmpOp;
use squall_expr::{AggFunc, BinOp, JoinAtom, MultiJoinSpec, RelationDef, ScalarExpr};
use squall_join::{AggSpec, WindowSpec};
use squall_partition::optimizer::SchemeKind;
use squall_runtime::{
    plan_placement, ClusterLinks, ClusterRun, Frame, Placement, RunHandle, RunOutcome, Topology,
    TransportStats,
};

use crate::checkpoint::{RestoreState, SnapshotBlobMsg};
use crate::driver::{assemble, AggPlan, LocalJoinKind, MultiwayConfig, WindowPlan};

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

// ---------------------------------------------------------------------
// Plan codec (hand-rolled, mirroring squall_common::codec's style)
// ---------------------------------------------------------------------

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => codec::put_u8(buf, 0),
        Some(x) => {
            codec::put_u8(buf, 1);
            codec::put_u64(buf, x);
        }
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>> {
    Ok(match r.u8()? {
        0 => None,
        _ => Some(r.u64()?),
    })
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Date => 3,
    }
}

fn dtype_from(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Date,
        t => return Err(SquallError::Codec(format!("unknown data type tag {t}"))),
    })
}

fn put_schema(buf: &mut Vec<u8>, s: &Schema) {
    codec::put_u32(buf, s.arity() as u32);
    for f in s.fields() {
        codec::put_str(buf, &f.name);
        codec::put_u8(buf, dtype_tag(f.data_type));
        codec::put_bool(buf, f.skew_free);
    }
}

fn get_schema(r: &mut Reader<'_>) -> Result<Schema> {
    let n = r.len()?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let data_type = dtype_from(r.u8()?)?;
        let skew_free = r.bool()?;
        let mut f = Field::new(name, data_type);
        if !skew_free {
            f = f.skewed();
        }
        fields.push(f);
    }
    Ok(Schema::new(fields))
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Mod => 4,
        BinOp::Eq => 5,
        BinOp::Ne => 6,
        BinOp::Lt => 7,
        BinOp::Le => 8,
        BinOp::Gt => 9,
        BinOp::Ge => 10,
        BinOp::And => 11,
        BinOp::Or => 12,
    }
}

fn binop_from(tag: u8) -> Result<BinOp> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Mod,
        5 => BinOp::Eq,
        6 => BinOp::Ne,
        7 => BinOp::Lt,
        8 => BinOp::Le,
        9 => BinOp::Gt,
        10 => BinOp::Ge,
        11 => BinOp::And,
        12 => BinOp::Or,
        t => return Err(SquallError::Codec(format!("unknown binop tag {t}"))),
    })
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_from(tag: u8) -> Result<CmpOp> {
    Ok(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(SquallError::Codec(format!("unknown cmp tag {t}"))),
    })
}

fn put_scalar(buf: &mut Vec<u8>, e: &ScalarExpr) {
    match e {
        ScalarExpr::Column(i) => {
            codec::put_u8(buf, 0);
            codec::put_u64(buf, *i as u64);
        }
        ScalarExpr::Literal(v) => {
            codec::put_u8(buf, 1);
            codec::put_value(buf, v);
        }
        ScalarExpr::Bin { op, lhs, rhs } => {
            codec::put_u8(buf, 2);
            codec::put_u8(buf, binop_tag(*op));
            put_scalar(buf, lhs);
            put_scalar(buf, rhs);
        }
        ScalarExpr::Not(x) => {
            codec::put_u8(buf, 3);
            put_scalar(buf, x);
        }
        ScalarExpr::Cast { expr, to } => {
            codec::put_u8(buf, 4);
            put_scalar(buf, expr);
            codec::put_u8(buf, dtype_tag(*to));
        }
    }
}

fn get_scalar(r: &mut Reader<'_>) -> Result<ScalarExpr> {
    Ok(match r.u8()? {
        0 => ScalarExpr::Column(r.u64()? as usize),
        1 => ScalarExpr::Literal(codec::get_value(r)?),
        2 => {
            let op = binop_from(r.u8()?)?;
            let lhs = get_scalar(r)?;
            let rhs = get_scalar(r)?;
            ScalarExpr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
        }
        3 => ScalarExpr::Not(Box::new(get_scalar(r)?)),
        4 => {
            let expr = get_scalar(r)?;
            let to = dtype_from(r.u8()?)?;
            ScalarExpr::Cast { expr: Box::new(expr), to }
        }
        t => return Err(SquallError::Codec(format!("unknown scalar tag {t}"))),
    })
}

fn put_agg_spec(buf: &mut Vec<u8>, a: &AggSpec) {
    codec::put_u8(
        buf,
        match a.func {
            AggFunc::Count => 0,
            AggFunc::Sum => 1,
            AggFunc::Avg => 2,
        },
    );
    match &a.input {
        None => codec::put_u8(buf, 0),
        Some(e) => {
            codec::put_u8(buf, 1);
            put_scalar(buf, e);
        }
    }
}

fn get_agg_spec(r: &mut Reader<'_>) -> Result<AggSpec> {
    let func = match r.u8()? {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Avg,
        t => return Err(SquallError::Codec(format!("unknown agg tag {t}"))),
    };
    let input = match r.u8()? {
        0 => None,
        _ => Some(get_scalar(r)?),
    };
    Ok(AggSpec { func, input })
}

impl JobSpec {
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, self.me as u32);
        codec::put_u32(&mut buf, self.peers.len() as u32);
        for p in &self.peers {
            codec::put_str(&mut buf, p);
        }
        // MultiJoinSpec.
        codec::put_u32(&mut buf, self.spec.relations.len() as u32);
        for rel in &self.spec.relations {
            codec::put_str(&mut buf, &rel.name);
            put_schema(&mut buf, &rel.schema);
            codec::put_u64(&mut buf, rel.est_size);
        }
        codec::put_u32(&mut buf, self.spec.atoms.len() as u32);
        for a in &self.spec.atoms {
            codec::put_u32(&mut buf, a.left_rel as u32);
            codec::put_u32(&mut buf, a.left_col as u32);
            codec::put_u8(&mut buf, cmp_tag(a.op));
            codec::put_u32(&mut buf, a.right_rel as u32);
            codec::put_u32(&mut buf, a.right_col as u32);
        }
        // MultiwayConfig (cluster membership itself is not shipped — a
        // worker never re-distributes).
        let cfg = &self.cfg;
        codec::put_u8(
            &mut buf,
            match cfg.scheme {
                SchemeKind::Hash => 0,
                SchemeKind::Random => 1,
                SchemeKind::Hybrid => 2,
            },
        );
        codec::put_u8(
            &mut buf,
            match cfg.local {
                LocalJoinKind::Traditional => 0,
                LocalJoinKind::DBToaster => 1,
            },
        );
        codec::put_u64(&mut buf, cfg.machines as u64);
        codec::put_u64(&mut buf, cfg.seed);
        put_opt_u64(&mut buf, cfg.budget.map(|b| b as u64));
        match &cfg.agg {
            None => codec::put_u8(&mut buf, 0),
            Some(agg) => {
                codec::put_u8(&mut buf, 1);
                codec::put_u32(&mut buf, agg.group_cols.len() as u32);
                for &c in &agg.group_cols {
                    codec::put_u64(&mut buf, c as u64);
                }
                codec::put_u32(&mut buf, agg.aggs.len() as u32);
                for a in &agg.aggs {
                    put_agg_spec(&mut buf, a);
                }
                codec::put_u64(&mut buf, agg.parallelism as u64);
            }
        }
        match &cfg.window {
            None => codec::put_u8(&mut buf, 0),
            Some(w) => {
                codec::put_u8(&mut buf, 1);
                match w.spec {
                    WindowSpec::FullHistory => codec::put_u8(&mut buf, 0),
                    WindowSpec::Tumbling { width } => {
                        codec::put_u8(&mut buf, 1);
                        codec::put_u64(&mut buf, width);
                    }
                    WindowSpec::Sliding { size } => {
                        codec::put_u8(&mut buf, 2);
                        codec::put_u64(&mut buf, size);
                    }
                }
                codec::put_u32(&mut buf, w.ts_cols.len() as u32);
                for &c in &w.ts_cols {
                    codec::put_u64(&mut buf, c as u64);
                }
            }
        }
        codec::put_bool(&mut buf, cfg.collect_results);
        put_opt_u64(&mut buf, cfg.worker_threads.map(|w| w as u64));
        codec::put_u64(&mut buf, cfg.batch_size as u64);
        codec::put_bool(&mut buf, cfg.standing);
        codec::put_u64(&mut buf, cfg.checkpoint_interval);
        codec::put_u64(&mut buf, cfg.heartbeat_timeout_ms);
        codec::put_u64(&mut buf, self.resume_epoch);
        codec::put_u32(&mut buf, self.restore_join.len() as u32);
        for (task, blob) in &self.restore_join {
            codec::put_u32(&mut buf, *task);
            codec::put_bytes(&mut buf, blob);
        }
        buf
    }

    pub fn decode(payload: &[u8]) -> Result<JobSpec> {
        let mut r = Reader::new(payload);
        let me = r.u32()? as usize;
        let n_peers = r.len()?;
        let mut peers = Vec::with_capacity(n_peers);
        for _ in 0..n_peers {
            peers.push(r.str()?);
        }
        // Peer 0 is the coordinator and `me` indexes `peers`: any other
        // value would trip the link handshake's assert and take a
        // persistent worker down with one frame.
        if me == 0 || me >= n_peers {
            return Err(SquallError::Codec(format!(
                "job addresses worker {me} of {n_peers} peers (workers are 1..{n_peers})"
            )));
        }
        let n_rels = r.len()?;
        let mut relations = Vec::with_capacity(n_rels);
        for _ in 0..n_rels {
            let name = r.str()?;
            let schema = get_schema(&mut r)?;
            let est_size = r.u64()?;
            relations.push(RelationDef::new(name, schema, est_size));
        }
        let n_atoms = r.len()?;
        let mut atoms = Vec::with_capacity(n_atoms);
        for _ in 0..n_atoms {
            atoms.push(JoinAtom {
                left_rel: r.u32()? as usize,
                left_col: r.u32()? as usize,
                op: cmp_from(r.u8()?)?,
                right_rel: r.u32()? as usize,
                right_col: r.u32()? as usize,
            });
        }
        let spec = MultiJoinSpec::new(relations, atoms)?;
        let scheme = match r.u8()? {
            0 => SchemeKind::Hash,
            1 => SchemeKind::Random,
            2 => SchemeKind::Hybrid,
            t => return Err(SquallError::Codec(format!("unknown scheme tag {t}"))),
        };
        let local = match r.u8()? {
            0 => LocalJoinKind::Traditional,
            1 => LocalJoinKind::DBToaster,
            t => return Err(SquallError::Codec(format!("unknown local join tag {t}"))),
        };
        let mut cfg = MultiwayConfig::new(scheme, local, r.u64()? as usize);
        cfg.seed = r.u64()?;
        cfg.budget = get_opt_u64(&mut r)?.map(|b| b as usize);
        cfg.agg = match r.u8()? {
            0 => None,
            _ => {
                let n = r.len()?;
                let mut group_cols = Vec::with_capacity(n);
                for _ in 0..n {
                    group_cols.push(r.u64()? as usize);
                }
                let n = r.len()?;
                let mut aggs = Vec::with_capacity(n);
                for _ in 0..n {
                    aggs.push(get_agg_spec(&mut r)?);
                }
                let parallelism = r.u64()? as usize;
                Some(AggPlan { group_cols, aggs, parallelism })
            }
        };
        cfg.window = match r.u8()? {
            0 => None,
            _ => {
                let spec = match r.u8()? {
                    0 => WindowSpec::FullHistory,
                    1 => WindowSpec::Tumbling { width: r.u64()? },
                    2 => WindowSpec::Sliding { size: r.u64()? },
                    t => return Err(SquallError::Codec(format!("unknown window tag {t}"))),
                };
                let n = r.len()?;
                let mut ts_cols = Vec::with_capacity(n);
                for _ in 0..n {
                    ts_cols.push(r.u64()? as usize);
                }
                Some(WindowPlan { spec, ts_cols })
            }
        };
        cfg.collect_results = r.bool()?;
        cfg.worker_threads = get_opt_u64(&mut r)?.map(|w| w as usize);
        cfg.batch_size = r.u64()? as usize;
        cfg.standing = r.bool()?;
        cfg.checkpoint_interval = r.u64()?;
        cfg.heartbeat_timeout_ms = r.u64()?;
        let resume_epoch = r.u64()?;
        let n_blobs = r.len()?;
        let mut restore_join = Vec::with_capacity(n_blobs);
        for _ in 0..n_blobs {
            let task = r.u32()?;
            let blob = r.bytes()?;
            restore_join.push((task, blob));
        }
        r.finish()?;
        Ok(JobSpec { me, peers, spec, cfg, resume_epoch, restore_join })
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

    let mut shipped_cfg = cfg.clone();
    shipped_cfg.cluster = None; // a worker never re-distributes its slice
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
                cfg: shipped_cfg.clone(),
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
/// everything else zero) into ours and adopt a remote error if we had
/// none. Returns the wire traffic alongside for clustered runs.
pub(crate) fn finish(
    handle: RunHandle,
    cluster: Option<ClusterRun>,
) -> (RunOutcome, Option<TransportStats>) {
    let mut outcome = handle.finish();
    let transport = cluster.map(|run| {
        let summary = run.finish(None);
        for remote in &summary.remote_metrics {
            outcome.metrics.merge(remote);
        }
        if outcome.error.is_none() {
            outcome.error = summary.remote_error;
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
    let empty_data: Vec<Vec<squall_common::Tuple>> = vec![Vec::new(); job.spec.n_relations()];
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
        let topology = crate::standing::assemble_standing(
            &job.spec, empty_data, &job.cfg, None, restore, blob_tx,
        )?
        .0;
        (topology, restored)
    } else {
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
    use squall_common::{DataType, Schema};

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

        // Count-only: remote per-task counters ride SinkRow frames.
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
}
