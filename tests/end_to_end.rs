//! End-to-end integration tests: the paper's evaluation queries, run
//! through the full stack (session → SQL or imperative builder → plan →
//! optimizer → topology → results), checked against the naive in-memory
//! oracle — and checked SQL-vs-imperative: both interfaces must lower to
//! the same plan and produce identical rows *and* identical run reports.

use squall::common::{Schema, Tuple, Value};
use squall::data::crawlcontent;
use squall::data::google_cluster::{self, GoogleClusterData, FAIL};
use squall::data::tpch::{self, TpchData, TpchGen};
use squall::data::webgraph::{webgraph_schema, WebGraphGen, HUB};
use squall::engine::driver::{run_multiway, LocalJoinKind, MultiwayConfig};
use squall::expr::{JoinAtom, MultiJoinSpec, RelationDef};
use squall::join::naive::{naive_join, same_multiset};
use squall::partition::optimizer::SchemeKind;
use squall::session::JoinReport;
use squall::{col, count, lit, sum, ResultSet, Session};
use squall_bench::{
    crawlcontent_table, figure_session, google_tables, reachability3_spec, tpch9_partial_spec,
    webgraph_table,
};

/// A query written by hand: its spec and one input per relation. The
/// oracle (`naive_join`) and the `run_multiway` cases read these, so they
/// stay independent of the planner the SQL runs through. The figures'
/// hand specs (`reachability3_spec`, `tpch9_partial_spec`) come from
/// `squall_bench`.
type HandQuery = (MultiJoinSpec, Vec<Vec<Tuple>>);

fn hand_query(rels: Vec<(&str, Schema, Vec<Tuple>)>, atoms: Vec<JoinAtom>) -> HandQuery {
    let defs = rels.iter().map(|(n, s, rows)| RelationDef::new(*n, s.clone(), rows.len() as u64));
    let spec = MultiJoinSpec::new(defs.collect(), atoms).unwrap();
    (spec, rels.into_iter().map(|(_, _, rows)| rows).collect())
}

/// §7.2 — 3-Reachability over three copies of `arcs`.
fn reachability3(arcs: &[Tuple]) -> HandQuery {
    (reachability3_spec(arcs.len() as u64), vec![arcs.to_vec(); 3])
}

/// §7.3 — TPCH9-Partial, LINEITEM.partkey marked skewed.
fn tpch9_partial(d: &TpchData) -> HandQuery {
    (tpch9_partial_spec(d), vec![d.lineitem.clone(), d.partsupp.clone(), d.part.clone()])
}

/// §7.4 — TPC-H Q3's join core.
fn tpch_q3(d: &TpchData) -> HandQuery {
    hand_query(
        vec![
            ("CUSTOMER", tpch::customer_schema(), d.customer.clone()),
            ("ORDERS", tpch::orders_schema(), d.orders.clone()),
            ("LINEITEM", tpch::lineitem_schema(), d.lineitem.clone()),
        ],
        vec![
            JoinAtom::eq(0, 0, 1, 1), // C.custkey = O.custkey
            JoinAtom::eq(1, 0, 2, 0), // O.orderkey = L.orderkey
        ],
    )
}

/// §7.3 — WebAnalytics' join, its hub selections applied to the inputs.
/// Output columns 0 and 5 are W1.FromUrl and C.Score.
fn webanalytics(arcs: &[Tuple], content: &[Tuple]) -> HandQuery {
    let hub = |col: usize| arcs.iter().filter(move |t| t.get(col) == &Value::Int(HUB)).cloned();
    hand_query(
        vec![
            ("W1", webgraph_schema(), hub(1).collect()),
            ("W2", webgraph_schema(), hub(0).collect()),
            ("C", crawlcontent::crawlcontent_schema(), content.to_vec()),
        ],
        vec![
            JoinAtom::eq(0, 1, 1, 0), // W1.ToUrl = W2.FromUrl
            JoinAtom::eq(0, 0, 2, 0), // W1.FromUrl = C.Url
        ],
    )
}

/// §7.4 — Google TaskCount's join, the FAIL selection applied to
/// TASK_EVENTS. Output columns 6 and 7 are M.machineID and M.platform.
fn google_taskcount(d: &GoogleClusterData) -> HandQuery {
    let failed = d.task_events.iter().filter(|t| t.get(2) == &Value::Int(FAIL)).cloned();
    hand_query(
        vec![
            ("JOB_EVENTS", google_cluster::job_events_schema(), d.job_events.clone()),
            ("TASK_EVENTS", google_cluster::task_events_schema(), failed.collect()),
            ("MACHINE_EVENTS", google_cluster::machine_events_schema(), d.machine_events.clone()),
        ],
        vec![
            JoinAtom::eq(0, 0, 1, 0), // J.jobID = T.jobID
            JoinAtom::eq(2, 0, 1, 1), // M.machineID = T.machineID
        ],
    )
}

/// Group-by-count oracle over join output.
fn oracle_group_count(joined: &[Tuple], cols: &[usize]) -> Vec<Tuple> {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<Vec<Value>, i64> = BTreeMap::new();
    for t in joined {
        *counts.entry(t.key(cols)).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .map(|(mut k, c)| {
            k.push(Value::Int(c));
            Tuple::new(k)
        })
        .collect()
}

/// The deterministic parts of two runs' reports must coincide when the
/// same plan ran with the same config and seed (elapsed time may differ).
fn assert_reports_match(a: &JoinReport, b: &JoinReport) {
    assert_eq!(a.result_count, b.result_count, "result counts");
    assert_eq!(a.input_count, b.input_count, "source input counts");
    assert_eq!(a.loads, b.loads, "per-machine loads");
    assert_eq!(a.scheme_description, b.scheme_description, "chosen scheme");
    assert!((a.replication_factor - b.replication_factor).abs() < 1e-9);
    assert!((a.skew_degree - b.skew_degree).abs() < 1e-9);
    assert!((a.network_factor - b.network_factor).abs() < 1e-9);
}

/// SQL path and imperative path must produce byte-identical rows, equal
/// schemas and matching reports.
fn assert_equivalent(mut sql: ResultSet, mut imperative: ResultSet) {
    assert_eq!(sql.schema().arity(), imperative.schema().arity());
    assert_eq!(sql.rows(), imperative.rows(), "rows must be byte-identical");
    match (sql.report(), imperative.report()) {
        (Some(a), Some(b)) => assert_reports_match(a, b),
        (None, None) => {}
        _ => panic!("one interface ran distributed, the other locally"),
    }
}

#[test]
fn reachability3_all_schemes_agree_with_oracle() {
    let arcs = WebGraphGen::new(150, 900, 3).generate();
    let (spec, data) = reachability3(&arcs);
    let oracle = naive_join(&spec, &data);
    assert!(!oracle.is_empty());
    for scheme in [SchemeKind::Hash, SchemeKind::Random, SchemeKind::Hybrid] {
        let cfg = MultiwayConfig::new(scheme, LocalJoinKind::DBToaster, 9).count_only();
        let rep = run_multiway(&spec, data.clone(), &cfg).unwrap();
        assert!(rep.error.is_none());
        assert_eq!(rep.result_count, oracle.len() as u64, "{scheme}");
    }
}

#[test]
fn tpch9_partial_counts_match_oracle_under_skew() {
    let data = TpchGen::new(0.2, 2.0, 5).generate();
    let (spec, rels) = tpch9_partial(&data);
    let oracle = naive_join(&spec, &rels);
    for scheme in [SchemeKind::Hash, SchemeKind::Random, SchemeKind::Hybrid] {
        for local in [LocalJoinKind::Traditional, LocalJoinKind::DBToaster] {
            let cfg = MultiwayConfig::new(scheme, local, 8).count_only();
            let rep = run_multiway(&spec, rels.clone(), &cfg).unwrap();
            assert_eq!(rep.result_count, oracle.len() as u64, "{scheme} {local}");
        }
    }
}

fn google_session(trace: &GoogleClusterData) -> Session {
    figure_session(4, google_tables(trace))
}

const GOOGLE_TASKCOUNT_SQL: &str =
    "SELECT MACHINE_EVENTS.machineID, MACHINE_EVENTS.platform, COUNT(*) \
     FROM JOB_EVENTS, TASK_EVENTS, MACHINE_EVENTS \
     WHERE TASK_EVENTS.eventType = 3 \
       AND JOB_EVENTS.jobID = TASK_EVENTS.jobID \
       AND MACHINE_EVENTS.machineID = TASK_EVENTS.machineID \
     GROUP BY MACHINE_EVENTS.machineID, MACHINE_EVENTS.platform";

fn google_taskcount_imperative(session: &Session) -> ResultSet {
    session
        .from("JOB_EVENTS")
        .join("TASK_EVENTS")
        .join("MACHINE_EVENTS")
        .filter(col("TASK_EVENTS.eventType").eq(lit(3)))
        .on(col("JOB_EVENTS.jobID").eq(col("TASK_EVENTS.jobID")))
        .on(col("MACHINE_EVENTS.machineID").eq(col("TASK_EVENTS.machineID")))
        .group_by([col("MACHINE_EVENTS.machineID"), col("MACHINE_EVENTS.platform")])
        .select([count()])
        .run()
        .unwrap()
}

#[test]
fn google_taskcount_sql_end_to_end() {
    let trace = google_cluster::generate(3000, 9);
    let session = google_session(&trace);
    let mut res = session.sql(GOOGLE_TASKCOUNT_SQL).unwrap();

    // Oracle: the hand-written join, grouped and counted.
    let (spec, rels) = google_taskcount(&trace);
    let joined = naive_join(&spec, &rels);
    let expected = oracle_group_count(&joined, &[6, 7]);
    assert_eq!(res.rows().len(), expected.len());
    assert!(same_multiset(res.rows(), &expected));
}

#[test]
fn google_taskcount_sql_equals_imperative() {
    let trace = google_cluster::generate(3000, 9);
    let session = google_session(&trace);
    let sql = session.sql(GOOGLE_TASKCOUNT_SQL).unwrap();
    let imperative = google_taskcount_imperative(&session);
    assert_equivalent(sql, imperative);
}

fn webanalytics_session(arcs: &[Tuple], content: &[Tuple]) -> Session {
    figure_session(4, [webgraph_table(arcs.to_vec()), crawlcontent_table(content.to_vec())])
}

// HUB is integer id 0 in the synthetic graph.
const WEBANALYTICS_SQL: &str = "SELECT W1.FromUrl, C.Score, COUNT(*) \
     FROM WebGraph W1, WebGraph W2, CrawlContent C \
     WHERE W1.ToUrl = 0 AND W2.FromUrl = 0 \
       AND W1.ToUrl = W2.FromUrl AND W1.FromUrl = C.Url \
     GROUP BY W1.FromUrl, C.Score";

fn webanalytics_imperative(session: &Session) -> ResultSet {
    session
        .from_as("WebGraph", "W1")
        .join_as("WebGraph", "W2")
        .join_as("CrawlContent", "C")
        .filter(col("W1.ToUrl").eq(lit(0)))
        .filter(col("W2.FromUrl").eq(lit(0)))
        .on(col("W1.ToUrl").eq(col("W2.FromUrl")))
        .on(col("W1.FromUrl").eq(col("C.Url")))
        .group_by([col("W1.FromUrl"), col("C.Score")])
        .select([count()])
        .run()
        .unwrap()
}

#[test]
fn webanalytics_sql_end_to_end() {
    let arcs = WebGraphGen::new(300, 4000, 7).generate();
    let content = crawlcontent::generate(300, 8);
    let session = webanalytics_session(&arcs, &content);
    let mut res = session.sql(WEBANALYTICS_SQL).unwrap();

    let (spec, rels) = webanalytics(&arcs, &content);
    let joined = naive_join(&spec, &rels);
    let expected = oracle_group_count(&joined, &[0, 5]);
    assert_eq!(res.rows().len(), expected.len());
    assert!(same_multiset(res.rows(), &expected));
    assert!(!res.rows().is_empty(), "hub must have 2-hop paths");
}

#[test]
fn webanalytics_sql_equals_imperative() {
    let arcs = WebGraphGen::new(300, 4000, 7).generate();
    let content = crawlcontent::generate(300, 8);
    let session = webanalytics_session(&arcs, &content);
    let sql = session.sql(WEBANALYTICS_SQL).unwrap();
    let imperative = webanalytics_imperative(&session);
    assert_equivalent(sql, imperative);
}

#[test]
fn webanalytics_streaming_iterator_and_report() {
    let arcs = WebGraphGen::new(300, 4000, 7).generate();
    let content = crawlcontent::generate(300, 8);
    let session = webanalytics_session(&arcs, &content);

    let mut stream = session.sql_stream(WEBANALYTICS_SQL).unwrap();
    assert!(stream.is_streaming());
    let mut streamed: Vec<Tuple> = Vec::new();
    for row in stream.by_ref() {
        streamed.push(row);
    }
    let stream_report = stream.report().expect("report after exhaustion");
    assert!(stream_report.error.is_none());
    assert!(stream_report.loads.iter().sum::<u64>() > 0, "metrics survive streaming");

    let mut materialized = session.sql(WEBANALYTICS_SQL).unwrap();
    streamed.sort();
    assert_eq!(materialized.rows(), streamed, "streaming yields the same rows");
    assert_reports_match(materialized.report().unwrap(), stream.report().unwrap());
}

#[test]
fn q3_functional_interface_end_to_end() {
    let data = TpchGen::new(0.2, 0.0, 4).generate();
    let mut session = Session::new();
    session.register("CUSTOMER", tpch::customer_schema(), data.customer.clone()).unwrap();
    session.register("ORDERS", tpch::orders_schema(), data.orders.clone()).unwrap();
    session.register("LINEITEM", tpch::lineitem_schema(), data.lineitem.clone()).unwrap();
    let mut res = session
        .from_as("CUSTOMER", "C")
        .join_as("ORDERS", "O")
        .join_as("LINEITEM", "L")
        .on(col("C.custkey").eq(col("O.custkey")))
        .on(col("O.orderkey").eq(col("L.orderkey")))
        .select([count()])
        .run()
        .unwrap();

    let (spec, rels) = tpch_q3(&data);
    let oracle = naive_join(&spec, &rels);
    assert_eq!(res.rows()[0].get(0).as_int().unwrap(), oracle.len() as i64);

    // And the SQL twin agrees, rows and report.
    let sql = session
        .sql(
            "SELECT COUNT(*) FROM CUSTOMER C, ORDERS O, LINEITEM L \
             WHERE C.custkey = O.custkey AND O.orderkey = L.orderkey",
        )
        .unwrap();
    let imperative = session
        .from_as("CUSTOMER", "C")
        .join_as("ORDERS", "O")
        .join_as("LINEITEM", "L")
        .on(col("C.custkey").eq(col("O.custkey")))
        .on(col("O.orderkey").eq(col("L.orderkey")))
        .select([count()])
        .run()
        .unwrap();
    assert_equivalent(sql, imperative);
}

#[test]
fn multiway_equals_pipeline_equals_oracle() {
    let arcs = WebGraphGen::new(120, 700, 21).generate();
    let (spec, data) = reachability3(&arcs);
    let oracle = naive_join(&spec, &data);
    let multi = run_multiway(
        &spec,
        data.clone(),
        &MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, 4),
    )
    .unwrap();
    assert!(same_multiset(&multi.results, &oracle));
    let pipe = squall_bench::run_pipeline(
        &spec,
        data.clone(),
        &[0, 1, 2],
        4,
        LocalJoinKind::Traditional,
        true,
    )
    .unwrap();
    assert!(same_multiset(&pipe.results, &oracle));
}

/// OS threads of this process (Linux); `None` elsewhere.
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
}

/// The tentpole contract: a 3-way hypercube join whose task count is ≥ 16×
/// the worker pool must (a) run on `worker_threads + O(1)` OS threads, and
/// (b) produce exactly the rows a generously-threaded run produces.
#[test]
fn oversubscribed_pool_matches_baseline_results() {
    let arcs = WebGraphGen::new(150, 900, 3).generate();
    let (spec, data) = reachability3(&arcs);
    let oracle = naive_join(&spec, &data);
    assert!(!oracle.is_empty());

    // 64 join machines + 3 spout tasks + sink work on a 2-thread pool.
    let mut tight = MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, 64);
    tight.worker_threads = Some(2);
    assert!(64 >= 16 * tight.worker_threads.unwrap());

    let baseline = os_thread_count();
    let mut stream =
        squall::engine::driver::run_multiway_stream(&spec, data.clone(), &tight).unwrap();
    let mut rows: Vec<Tuple> = Vec::new();
    rows.extend(stream.by_ref().take(1)); // the pool is definitely live now

    // Thread-per-task would add ≥ 67 threads here; the pool adds 2. The
    // slack tolerates other tests in this binary concurrently launching
    // default-sized pools (≤ host parallelism each), so it scales with the
    // host rather than assuming a small CI machine.
    let concurrent_pools = 2 * std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    if let (Some(before), Some(during)) = (baseline, os_thread_count()) {
        assert!(
            during <= before + 2 + 8 + concurrent_pools,
            "{during} OS threads for a 64-machine topology (baseline {before}, pool 2)"
        );
    }
    rows.extend(stream.by_ref());
    let tight_report = stream.finish();
    assert!(tight_report.error.is_none());
    assert_eq!(tight_report.scheduler.workers, 2, "pool size honored");
    assert!(same_multiset(&rows, &oracle), "oversubscribed run matches the oracle");

    // A generously-threaded run of the same plan: identical sorted rows
    // and identical per-machine loads (scheduling must not leak into
    // results or routing).
    let mut roomy = MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, 64);
    roomy.worker_threads = Some(8);
    let baseline_report = run_multiway(&spec, data.clone(), &roomy).unwrap();
    let mut baseline_rows = baseline_report.results.clone();
    baseline_rows.sort();
    rows.sort();
    assert_eq!(rows, baseline_rows, "worker pool size must not change results");
    assert_eq!(tight_report.loads, baseline_report.loads, "routing is pool-independent");
}

/// Abort semantics survive oversubscription: a memory overflow on a
/// 64-task/2-worker pool still drains every queue and terminates.
#[test]
fn oversubscribed_abort_drains_and_terminates() {
    let data = TpchGen::new(0.5, 2.0, 6).generate();
    let (spec, rels) = tpch9_partial(&data);
    let mut cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 64)
        .count_only()
        .with_budget(50);
    cfg.worker_threads = Some(2);
    let rep = run_multiway(&spec, rels.clone(), &cfg).unwrap();
    assert!(matches!(rep.error, Some(squall::common::SquallError::MemoryOverflow { .. })));
    assert!(rep.loads.iter().sum::<u64>() > 0, "partial loads for extrapolation");
    assert_eq!(rep.scheduler.workers, 2);
}

#[test]
fn memory_overflow_reports_partial_metrics() {
    let data = TpchGen::new(0.5, 2.0, 6).generate();
    let (spec, rels) = tpch9_partial(&data);
    let cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 8)
        .count_only()
        .with_budget(200);
    let rep = run_multiway(&spec, rels.clone(), &cfg).unwrap();
    assert!(matches!(rep.error, Some(squall::common::SquallError::MemoryOverflow { .. })));
    assert!(rep.loads.iter().sum::<u64>() > 0, "partial loads for extrapolation");
}

fn figure1_session() -> Session {
    // The architecture figure's relations R, S, T.
    use squall::common::{tuple, DataType, Schema, SplitMix64};
    let mut rng = SplitMix64::new(2);
    let mut session = Session::builder().machines(4).build();
    session
        .register(
            "R",
            Schema::of(&[("A", DataType::Int), ("B", DataType::Int)]),
            (0..300).map(|_| tuple![rng.next_range(0, 50), rng.next_range(0, 20)]).collect(),
        )
        .unwrap();
    session
        .register(
            "S",
            Schema::of(&[("B", DataType::Int), ("C", DataType::Int), ("D", DataType::Int)]),
            (0..300)
                .map(|_| {
                    tuple![rng.next_range(0, 20), rng.next_range(0, 10), rng.next_range(0, 20)]
                })
                .collect(),
        )
        .unwrap();
    session
        .register(
            "T",
            Schema::of(&[("D", DataType::Int), ("E", DataType::Int)]),
            (0..300).map(|_| tuple![rng.next_range(0, 20), rng.next_range(0, 100)]).collect(),
        )
        .unwrap();
    session
}

#[test]
fn sql_figure1_query_runs() {
    let session = figure1_session();
    let mut res = session
        .sql("SELECT SUM(T.E) FROM R, S, T WHERE R.B = S.B AND S.D = T.D AND S.C > 3")
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    // Oracle.
    use squall::expr::{JoinAtom, MultiJoinSpec, RelationDef};
    let catalog = session.catalog();
    let spec = MultiJoinSpec::new(
        vec![
            RelationDef::new("R", catalog.get("R").unwrap().schema.clone(), 300),
            RelationDef::new("S", catalog.get("S").unwrap().schema.clone(), 300),
            RelationDef::new("T", catalog.get("T").unwrap().schema.clone(), 300),
        ],
        vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 2, 2, 0)],
    )
    .unwrap();
    let s_filtered: Vec<Tuple> = catalog
        .get("S")
        .unwrap()
        .data
        .iter()
        .filter(|t| t.get(1).as_int().unwrap() > 3)
        .cloned()
        .collect();
    let joined = naive_join(
        &spec,
        &[
            catalog.get("R").unwrap().data.as_ref().clone(),
            s_filtered,
            catalog.get("T").unwrap().data.as_ref().clone(),
        ],
    );
    let expected: i64 = joined.iter().map(|t| t.get(6).as_int().unwrap()).sum();
    assert_eq!(res.rows()[0].get(0).as_int().unwrap(), expected);
}

#[test]
fn figure1_sql_equals_imperative() {
    let session = figure1_session();
    let sql = session
        .sql("SELECT SUM(T.E) FROM R, S, T WHERE R.B = S.B AND S.D = T.D AND S.C > 3")
        .unwrap();
    let imperative = session
        .from("R")
        .join("S")
        .join("T")
        .on(col("R.B").eq(col("S.B")))
        .on(col("S.D").eq(col("T.D")))
        .filter(col("S.C").gt(lit(3)))
        .select([sum(col("T.E"))])
        .run()
        .unwrap();
    assert_equivalent(sql, imperative);
}

/// The §2 click-stream scenario: impressions joined to clicks within a
/// sliding window, through both interfaces, against a pure timestamp
/// oracle, with streaming consumption while the topology runs.
#[test]
fn windowed_clickstream_sql_builder_and_oracle_agree() {
    use squall::common::{tuple, DataType, Schema, SplitMix64};
    use squall::Window;

    let mut rng = SplitMix64::new(31);
    let mut impressions: Vec<Tuple> = Vec::new();
    let mut clicks: Vec<Tuple> = Vec::new();
    let mut ts = 0i64;
    for _ in 0..2_000 {
        ts += rng.next_range(0, 3);
        let ad = rng.next_range(0, 40);
        impressions.push(tuple![ad, ts]);
        if rng.next_f64() < 0.2 {
            clicks.push(tuple![ad, ts + rng.next_range(0, 45)]);
        }
    }
    let schema = Schema::of(&[("ad_id", DataType::Int), ("ts", DataType::Int)]);
    let mut session = Session::builder().machines(4).build();
    session
        .register_stream("impressions", schema.clone(), impressions.clone(), "ts")
        .unwrap()
        .register_stream("clicks", schema, clicks.clone(), "ts")
        .unwrap();

    let sql_text = "SELECT I.ad_id, I.ts, C.ts FROM impressions I, clicks C \
                    WHERE I.ad_id = C.ad_id WINDOW SLIDING 30 ON ts";
    let sql = session.sql(sql_text).unwrap();
    let imperative = session
        .from_as("impressions", "I")
        .join_as("clicks", "C")
        .on(col("I.ad_id").eq(col("C.ad_id")))
        .window(Window::sliding(30).on("ts"))
        .select([col("I.ad_id"), col("I.ts"), col("C.ts")])
        .run()
        .unwrap();
    assert_equivalent(sql, imperative);

    // Pure timestamp oracle: same ad, |Δts| ≤ 30 — window results must be
    // a function of the data alone, not of scheduling.
    let mut oracle: Vec<Tuple> = Vec::new();
    for i in &impressions {
        for c in &clicks {
            let dt = (i.get(1).as_int().unwrap() - c.get(1).as_int().unwrap()).abs();
            if i.get(0) == c.get(0) && dt <= 30 {
                oracle.push(tuple![
                    i.get(0).as_int().unwrap(),
                    i.get(1).as_int().unwrap(),
                    c.get(1).as_int().unwrap()
                ]);
            }
        }
    }
    oracle.sort();
    let mut sql = session.sql(sql_text).unwrap();
    assert!(!oracle.is_empty());
    assert_eq!(sql.rows(), oracle);

    // Streaming consumption while the topology runs.
    let mut live = session.sql_stream(sql_text).unwrap();
    assert!(live.is_streaming());
    let mut streamed: Vec<Tuple> = live.by_ref().collect();
    assert!(live.report().expect("report").error.is_none());
    streamed.sort();
    assert_eq!(streamed, oracle);
}

/// Tumbling windows through the session API, against the bucket oracle.
#[test]
fn windowed_tumbling_counts_match_oracle() {
    use squall::common::{tuple, DataType, Schema, SplitMix64};
    use squall::{count, Window};

    let mut rng = SplitMix64::new(32);
    let schema = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
    let gen = |rng: &mut SplitMix64| -> Vec<Tuple> {
        let mut ts = 0i64;
        (0..800)
            .map(|_| {
                ts += rng.next_range(0, 4);
                tuple![rng.next_range(0, 25), ts]
            })
            .collect()
    };
    let (a, b) = (gen(&mut rng), gen(&mut rng));
    let mut session = Session::builder().machines(3).build();
    session
        .register_stream("A", schema.clone(), a.clone(), "ts")
        .unwrap()
        .register_stream("B", schema, b.clone(), "ts")
        .unwrap();

    let width = 50i64;
    let mut res = session
        .from("A")
        .join("B")
        .on(col("A.k").eq(col("B.k")))
        .window(Window::tumbling(width as u64))
        .select([count()])
        .run()
        .unwrap();
    // A windowed aggregate counts *per window*: one row per non-empty
    // tumbling bucket, shaped (window_start, window_end, count).
    let mut oracle: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
    for x in &a {
        for y in &b {
            let (tx, ty) = (x.get(1).as_int().unwrap(), y.get(1).as_int().unwrap());
            if x.get(0) == y.get(0) && tx / width == ty / width {
                *oracle.entry(tx / width * width).or_insert(0) += 1;
            }
        }
    }
    assert!(oracle.len() > 1, "several windows must be exercised");
    let expected: Vec<Tuple> = oracle.iter().map(|(&s, &n)| tuple![s, s + width - 1, n]).collect();
    assert_eq!(res.rows(), expected);
    // The per-window counts still partition the full windowed-join output.
    let total: i64 = oracle.values().sum();
    let mut join_rows =
        session.sql("SELECT A.k FROM A, B WHERE A.k = B.k WINDOW TUMBLING 50").unwrap();
    assert_eq!(join_rows.rows().len() as i64, total);
}

/// An `Int` SUM / AVG that leaves `i64` fails the query with a typed error
/// — it used to wrap silently in release and panic a task in debug —
/// under full history and per window, grouped or not.
#[test]
fn int_aggregate_overflow_is_a_typed_error() {
    use squall::common::{tuple, DataType, Schema, SquallError};

    let r = Schema::of(&[("a", DataType::Int), ("v", DataType::Int), ("ts", DataType::Int)]);
    let s = Schema::of(&[("a", DataType::Int), ("ts", DataType::Int)]);
    let (r_rows, s_rows) = (vec![tuple![1, i64::MAX, 0], tuple![1, 1, 1]], vec![tuple![1, 1]]);
    let mut session = Session::builder().machines(2).build();
    session.register("R", r.clone(), r_rows.clone()).unwrap();
    session.register("S", s.clone(), s_rows.clone()).unwrap();
    session.register_stream("RS", r, r_rows, "ts").unwrap();
    session.register_stream("SS", s, s_rows, "ts").unwrap();
    for agg in ["SUM(R.v)", "AVG(R.v)"] {
        for (from, window) in [("R, S", ""), ("RS R, SS S", " WINDOW TUMBLING 16 ON ts")] {
            for (select, group) in [(agg.to_string(), ""), (format!("R.a, {agg}"), " GROUP BY R.a")]
            {
                let sql = format!("SELECT {select} FROM {from} WHERE R.a = S.a{window}{group}");
                // A materialized query returns the run's error, a streamed one
                // reports it after its rows.
                let err = match session.sql(&sql) {
                    Err(e) => e,
                    Ok(mut rs) => rs.error().cloned().unwrap_or_else(|| panic!("{sql}: no error")),
                };
                assert!(
                    matches!(&err, SquallError::Runtime(m) if m.contains("overflow")),
                    "{sql}: {err}"
                );
            }
        }
    }
}

#[test]
fn explain_is_identical_across_interfaces() {
    let session = figure1_session();
    let via_sql = session
        .explain("SELECT SUM(T.E) FROM R, S, T WHERE R.B = S.B AND S.D = T.D AND S.C > 3")
        .unwrap();
    let via_builder = session
        .from("R")
        .join("S")
        .join("T")
        .on(col("R.B").eq(col("S.B")))
        .on(col("S.D").eq(col("T.D")))
        .filter(col("S.C").gt(lit(3)))
        .select([sum(col("T.E"))])
        .explain()
        .unwrap();
    assert_eq!(via_sql, via_builder, "both interfaces lower to one plan");
}
