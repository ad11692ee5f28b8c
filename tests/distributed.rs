//! Distributed end-to-end tests: one topology split across **separate OS
//! processes** over loopback TCP.
//!
//! Each test spawns real `squall-worker` child processes (the binary this
//! package builds), points a session's `cluster([...])` at them, and
//! checks the contract the transport layer promises: row-identical
//! results, identical per-machine loads, identical Eos termination and
//! `MemoryOverflow` abort-drain semantics — plus wire metrics in the
//! report and the task→peer placement in `explain`.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use squall::common::{tuple, DataType, Schema, SplitMix64, SquallError, Tuple};
use squall::engine::cluster::ClusterSpec;
use squall::engine::driver::{run_multiway, LocalJoinKind, MultiwayConfig};
use squall::expr::{JoinAtom, MultiJoinSpec, RelationDef};
use squall::partition::optimizer::SchemeKind;
use squall::session::JoinReport;
use squall::{Session, SessionBuilder};

/// One spawned `squall-worker --once` child process on an ephemeral port.
struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    fn spawn() -> Worker {
        let mut child = Command::new(env!("CARGO_BIN_EXE_squall-worker"))
            .args(["--listen", "127.0.0.1:0", "--once"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn squall-worker");
        let stdout = child.stdout.take().expect("worker stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("read LISTENING line");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected worker banner: {line:?}"))
            .to_string();
        Worker { child, addr }
    }

    /// Wait for the worker to serve its job and exit cleanly.
    fn join(mut self) {
        let status = self.child.wait().expect("wait for worker");
        assert!(status.success(), "worker exited with {status}");
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill(); // no-op if already reaped by join()
        let _ = self.child.wait();
    }
}

fn spawn_workers(n: usize) -> Vec<Worker> {
    (0..n).map(|_| Worker::spawn()).collect()
}

fn worker_addrs(workers: &[Worker]) -> Vec<String> {
    workers.iter().map(|w| w.addr.clone()).collect()
}

/// The deterministic parts of two reports must coincide: same plan, same
/// data, same seed — only the process placement differed.
fn assert_reports_match(local: &JoinReport, dist: &JoinReport) {
    assert_eq!(local.result_count, dist.result_count, "result counts");
    assert_eq!(local.input_count, dist.input_count, "input counts");
    assert_eq!(local.loads, dist.loads, "per-machine loads");
    assert_eq!(local.scheme_description, dist.scheme_description, "scheme");
    assert!((local.replication_factor - dist.replication_factor).abs() < 1e-9);
    assert!((local.skew_degree - dist.skew_degree).abs() < 1e-9);
    assert!((local.network_factor - dist.network_factor).abs() < 1e-9);
}

/// R(a,b), S(a,c), T(c,d) with a mid-size random fill — big enough that
/// every peer hosts working join tasks, small enough for a test.
fn rst_session(builder: SessionBuilder) -> Session {
    let mut rng = SplitMix64::new(23);
    let mut gen = |n: usize, dom: i64| -> Vec<Tuple> {
        (0..n).map(|_| tuple![rng.next_range(0, dom), rng.next_range(0, dom)]).collect()
    };
    let mut s = builder.build();
    s.register("R", Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]), gen(300, 20))
        .unwrap();
    s.register("S", Schema::of(&[("a", DataType::Int), ("c", DataType::Int)]), gen(300, 20))
        .unwrap();
    s.register("T", Schema::of(&[("c", DataType::Int), ("d", DataType::Int)]), gen(300, 20))
        .unwrap();
    s
}

const HYPERCUBE_SQL: &str = "SELECT R.b, T.d FROM R, S, T WHERE R.a = S.a AND S.c = T.c";

#[test]
fn three_way_hypercube_split_across_processes_matches_local() {
    let base = || Session::builder().machines(8).seed(5).batch_size(32);
    let mut local = rst_session(base());
    let mut local_rs = local.sql(HYPERCUBE_SQL).unwrap();
    let local_rows = local_rs.rows().to_vec();
    assert!(!local_rows.is_empty());

    let workers = spawn_workers(2);
    let mut dist = rst_session(base().cluster(worker_addrs(&workers)));
    std::mem::swap(dist.catalog_mut(), local.catalog_mut());
    let mut dist_rs = dist.sql(HYPERCUBE_SQL).unwrap();
    assert_eq!(dist_rs.rows(), local_rows, "row-identical across 3 OS processes");
    for w in workers {
        w.join();
    }

    let local_report = local_rs.report().expect("distributed run");
    let dist_report = dist_rs.report().expect("distributed run");
    assert_reports_match(local_report, dist_report);

    // Wire metrics: bytes/batches per peer, both directions.
    assert!(local_report.transport.is_none(), "single-process run has no wire");
    let transport = dist_report.transport.as_ref().expect("cluster run reports wire traffic");
    assert_eq!(transport.peers.len(), 2, "one stats row per worker");
    for peer in &transport.peers {
        assert!(peer.batches_sent > 0, "spouts feed every worker: {peer:?}");
        assert!(peer.bytes_sent > 0 && peer.bytes_received > 0, "{peer:?}");
    }
}

#[test]
fn distributed_aggregate_with_having_matches_local() {
    let sql = "SELECT R.a, COUNT(*) FROM R, S, T \
               WHERE R.a = S.a AND S.c = T.c GROUP BY R.a HAVING COUNT(*) > 50";
    let base = || Session::builder().machines(6).agg_parallelism(3).seed(11);
    let mut local = rst_session(base());
    let mut local_rs = local.sql(sql).unwrap();
    let local_rows = local_rs.rows().to_vec();

    let workers = spawn_workers(2);
    let mut dist = rst_session(base().cluster(worker_addrs(&workers)));
    std::mem::swap(dist.catalog_mut(), local.catalog_mut());
    let mut dist_rs = dist.sql(sql).unwrap();
    assert_eq!(dist_rs.rows(), local_rows);
    for w in workers {
        w.join();
    }
    assert_reports_match(local_rs.report().unwrap(), dist_rs.report().unwrap());
}

#[test]
fn single_table_aggregate_split_across_processes_matches_local() {
    // One relation, no join to partition: the identity join task and the
    // three aggregate shards are placed across the peers all the same.
    let sql = "SELECT R.a, COUNT(*), SUM(R.b) FROM R WHERE R.b > 4 GROUP BY R.a";
    let base = || Session::builder().machines(6).agg_parallelism(3).seed(11);
    let mut local = rst_session(base());
    let mut local_rs = local.sql(sql).unwrap();
    let local_rows = local_rs.rows().to_vec();
    assert!(local_rows.len() > 3);

    let workers = spawn_workers(2);
    let mut dist = rst_session(base().cluster(worker_addrs(&workers)));
    std::mem::swap(dist.catalog_mut(), local.catalog_mut());
    let mut dist_rs = dist.sql(sql).unwrap();
    assert_eq!(dist_rs.rows(), local_rows);
    for w in workers {
        w.join();
    }
    let (local_report, dist_report) = (local_rs.report().unwrap(), dist_rs.report().unwrap());
    assert_reports_match(local_report, dist_report);
    assert_eq!(dist_report.loads.len(), 1, "one load counter: the identity join task");
    assert!(dist_report.transport.is_some(), "a placed run reports its wire traffic");
}

/// Two ad-event streams for the windowed scenario.
fn stream_session(builder: SessionBuilder) -> Session {
    let schema = Schema::of(&[("ad_id", DataType::Int), ("ts", DataType::Int)]);
    let mut rng = SplitMix64::new(31);
    let mut gen = |n: usize| -> Vec<Tuple> {
        (0..n).map(|_| tuple![rng.next_range(0, 25), rng.next_range(0, 2000)]).collect()
    };
    let mut s = builder.build();
    s.register_stream("impressions", schema.clone(), gen(400), "ts").unwrap();
    s.register_stream("clicks", schema, gen(400), "ts").unwrap();
    s
}

const WINDOWED_SQL: &str = "SELECT I.ad_id, I.ts, C.ts FROM impressions I, clicks C \
                            WHERE I.ad_id = C.ad_id WINDOW SLIDING 40 ON ts";

#[test]
fn windowed_join_split_across_processes_matches_local() {
    let base = || Session::builder().machines(5).seed(2);
    let mut local = stream_session(base());
    let mut local_rs = local.sql(WINDOWED_SQL).unwrap();
    let local_rows = local_rs.rows().to_vec();
    assert!(!local_rows.is_empty());

    let workers = spawn_workers(2);
    let mut dist = stream_session(base().cluster(worker_addrs(&workers)));
    std::mem::swap(dist.catalog_mut(), local.catalog_mut());
    let mut dist_rs = dist.sql(WINDOWED_SQL).unwrap();
    assert_eq!(
        dist_rs.rows(),
        local_rows,
        "event-time window semantics survive the wire (per-relation FIFO)"
    );
    for w in workers {
        w.join();
    }
    assert_reports_match(local_rs.report().unwrap(), dist_rs.report().unwrap());
}

#[test]
fn distributed_streaming_resultset_yields_while_running() {
    let workers = spawn_workers(2);
    let dist = stream_session(Session::builder().machines(4).cluster(worker_addrs(&workers)));
    let mut rs = dist.sql_stream(WINDOWED_SQL).unwrap();
    assert!(rs.is_streaming());
    let mut streamed: Vec<Tuple> = rs.by_ref().collect();
    let report = rs.report().expect("report after exhaustion");
    assert!(report.error.is_none(), "{:?}", report.error);
    assert!(report.transport.is_some());
    for w in workers {
        w.join();
    }
    streamed.sort();
    let local = stream_session(Session::builder().machines(4));
    assert_eq!(local.sql(WINDOWED_SQL).unwrap().rows(), streamed);
}

const WINDOWED_AGG_SQL: &str = "SELECT I.ad_id, COUNT(*) FROM impressions I, clicks C \
                                WHERE I.ad_id = C.ad_id WINDOW TUMBLING 100 ON ts \
                                GROUP BY I.ad_id";

#[test]
fn windowed_aggregate_split_across_processes_matches_local() {
    // Per-window GROUP BY sharded 4 ways by group hash: per-shard
    // watermark frontiers cross the TCP edges (remote join tasks → agg
    // shards → the coordinator's merge sink), so the per-window rows
    // must stream byte-identically to the single-process run regardless
    // of placement.
    let base = || Session::builder().machines(6).agg_parallelism(4).seed(3);
    let mut local = stream_session(base());
    let mut local_rs = local.sql(WINDOWED_AGG_SQL).unwrap();
    let local_rows = local_rs.rows().to_vec();
    assert!(local_rows.len() > 3, "several (window, group) rows expected");
    assert_eq!(local_rs.schema().field(0).name, "window_start");

    let workers = spawn_workers(2);
    let mut dist = stream_session(base().cluster(worker_addrs(&workers)));
    std::mem::swap(dist.catalog_mut(), local.catalog_mut());
    // Streaming consumption: closed windows arrive over the wire in
    // window order, before end-of-run.
    let mut rs = dist.sql_stream(WINDOWED_AGG_SQL).unwrap();
    assert!(rs.is_streaming());
    let streamed: Vec<Tuple> = rs.by_ref().collect();
    let report = rs.report().expect("report after exhaustion");
    assert!(report.error.is_none(), "{:?}", report.error);
    for w in workers {
        w.join();
    }
    let starts: Vec<i64> = streamed.iter().map(|t| t.get(0).as_int().unwrap()).collect();
    let mut sorted = starts.clone();
    sorted.sort_unstable();
    assert_eq!(starts, sorted, "per-window rows must stream in window order");
    // Not just the same multiset: the watermark-driven merge makes the
    // streamed order deterministic, so the 3-process sharded run must be
    // byte-identical to the local sharded run.
    assert_eq!(streamed, local_rows, "per-window rows are placement-independent");
    assert_reports_match(local_rs.report().unwrap(), report);
}

#[test]
fn windowed_aggregate_abort_drains_across_processes() {
    // A join-machine memory budget that overflows mid-stream: the typed
    // error must cross the wire and both modes must drain — watermark
    // punctuation must never wedge the abort path.
    use squall::engine::driver::{AggPlan, WindowPlan};
    use squall::join::{AggSpec, WindowSpec};

    let schema = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
    let spec = MultiJoinSpec::new(
        vec![RelationDef::new("A", schema.clone(), 400), RelationDef::new("B", schema, 400)],
        vec![JoinAtom::eq(0, 0, 1, 0)],
    )
    .unwrap();
    let mut rng = SplitMix64::new(17);
    let data: Vec<Vec<Tuple>> = (0..2)
        .map(|_| {
            let mut ts = 0i64;
            (0..400)
                .map(|_| {
                    ts += rng.next_range(0, 3);
                    tuple![rng.next_range(0, 4), ts]
                })
                .collect()
        })
        .collect();

    let mut cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2)
        .with_window(WindowPlan { spec: WindowSpec::Sliding { size: 500 }, ts_cols: vec![1, 1] })
        .with_agg(AggPlan { group_cols: vec![0], aggs: vec![AggSpec::count()], parallelism: 1 })
        .with_budget(80);
    let local = run_multiway(&spec, data.clone(), &cfg).unwrap();
    let Some(SquallError::MemoryOverflow { budget: local_budget, .. }) = local.error else {
        panic!("seed setup must overflow locally, got {:?}", local.error);
    };

    let workers = spawn_workers(2);
    cfg.cluster = Some(ClusterSpec::new(worker_addrs(&workers)));
    let dist = run_multiway(&spec, data, &cfg).unwrap();
    for w in workers {
        w.join();
    }
    match dist.error {
        Some(SquallError::MemoryOverflow { budget, .. }) => assert_eq!(budget, local_budget),
        other => panic!("expected MemoryOverflow across the wire, got {other:?}"),
    }
}

#[test]
fn memory_overflow_on_a_worker_aborts_and_drains_every_process() {
    // Driver-level so the per-machine budget knob is reachable. The
    // overflowing join machine lives on a worker process; its typed
    // error must cross the wire and every process must drain (the
    // workers exit 0; the coordinator reports the error with partial
    // metrics — the paper's §7.3 extrapolation contract).
    let spec = MultiJoinSpec::new(
        vec![
            RelationDef::new("R", Schema::of(&[("x", DataType::Int), ("y", DataType::Int)]), 400),
            RelationDef::new("S", Schema::of(&[("y", DataType::Int), ("z", DataType::Int)]), 400),
            RelationDef::new("T", Schema::of(&[("z", DataType::Int), ("t", DataType::Int)]), 400),
        ],
        vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)],
    )
    .unwrap();
    let mut rng = SplitMix64::new(8);
    let data: Vec<Vec<Tuple>> = (0..3)
        .map(|_| (0..400).map(|_| tuple![rng.next_range(0, 4), rng.next_range(0, 4)]).collect())
        .collect();

    let mut cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2)
        .count_only()
        .with_budget(60);
    let local = run_multiway(&spec, data.clone(), &cfg).unwrap();
    let Some(SquallError::MemoryOverflow { budget: local_budget, .. }) = local.error else {
        panic!("seed setup must overflow locally, got {:?}", local.error);
    };

    let workers = spawn_workers(2);
    cfg.cluster = Some(ClusterSpec::new(worker_addrs(&workers)));
    let dist = run_multiway(&spec, data, &cfg).unwrap();
    for w in workers {
        w.join();
    }
    match dist.error {
        Some(SquallError::MemoryOverflow { budget, .. }) => assert_eq!(budget, local_budget),
        other => panic!("expected MemoryOverflow across the wire, got {other:?}"),
    }
    assert!(dist.input_count > 0, "partial metrics survive the abort");
}

#[test]
fn explain_prints_cluster_placement_without_contacting_workers() {
    // explain is pure planning: the addresses need not be live.
    let s =
        rst_session(Session::builder().machines(8).cluster(["127.0.0.1:7401", "127.0.0.1:7402"]));
    let text = s.explain("SELECT R.a, COUNT(*) FROM R, S WHERE R.a = S.a GROUP BY R.a").unwrap();
    assert!(text.contains("cluster: 3 peers over TCP (coordinator + 2 workers)"), "{text}");
    assert!(text.contains("src-R: task 0 @coordinator"), "{text}");
    assert!(text.contains("@127.0.0.1:7401"), "{text}");
    assert!(text.contains("join:"), "{text}");
    assert!(text.contains("agg:"), "{text}");
    // A single-table query is a topology like any other: its one
    // identity join task is placed, not special-cased.
    let text = s.explain("SELECT R.a FROM R").unwrap();
    assert!(text.contains("src-R: task 0 @coordinator"), "{text}");
    assert!(text.contains("join: task 0 @"), "{text}");
    assert!(!text.contains("runs locally"), "{text}");

    // Windowed aggregates place group-hash shards plus the ordered
    // merge sink — both must show up in the task→peer map.
    let s = stream_session(
        Session::builder()
            .machines(6)
            .agg_parallelism(4)
            .cluster(["127.0.0.1:7401", "127.0.0.1:7402"]),
    );
    let text = s.explain(WINDOWED_AGG_SQL).unwrap();
    assert!(text.contains("agg: tasks 0-1 @coordinator"), "4 agg shards expected: {text}");
    assert!(text.contains("task 3 @127.0.0.1:7402"), "{text}");
    assert!(text.contains("agg-merge: task 0 @coordinator"), "{text}");
    assert!(text.contains("group-hash sharded + ordered window merge"), "{text}");
}
