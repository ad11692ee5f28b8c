//! The experiments, one function per paper artifact.

use std::sync::Arc;
use std::time::{Duration, Instant};

use squall::{ResultSet, Session};
use squall_common::{DataType, Schema, Tuple, Value};
use squall_core::driver::LocalJoinKind;
use squall_data::tpch::{self, TpchData, TpchGen};
use squall_data::webgraph::{self, WebGraphGen};
use squall_data::{crawlcontent, google_cluster, streams};
use squall_expr::{BinOp, JoinAtom, MultiJoinSpec, RelationDef, ScalarExpr};
use squall_partition::hypercube::{Dimension, HypercubeScheme, PartitionKind};
use squall_partition::optimizer::SchemeKind;
use squall_runtime::{
    Bolt, FnBolt, Grouping, IterSpoutVec, NodeId, OutputCollector, TopologyBuilder,
};

use crate::adaptive;
use crate::pipeline::run_pipeline;
use crate::skew::{hash_assignment_max_keys, mean_active_machines, KeyMapGrouping};
use crate::twoway::{ewh, mbucket, one_bucket, output_per_machine, RangeCond};

/// One printable result row.
#[derive(Debug, Clone)]
pub struct Row {
    pub label: String,
    pub values: Vec<(String, String)>,
}

impl Row {
    pub fn new(label: impl Into<String>) -> Row {
        Row { label: label.into(), values: Vec::new() }
    }

    pub fn add(mut self, key: &str, value: impl std::fmt::Display) -> Row {
        self.values.push((key.to_string(), value.to_string()));
        self
    }
}

/// Render rows as a markdown table.
pub fn render(title: &str, rows: &[Row]) -> String {
    let mut s = format!("\n## {title}\n\n");
    if rows.is_empty() {
        return s;
    }
    let cols: Vec<&str> = rows[0].values.iter().map(|(k, _)| k.as_str()).collect();
    s.push_str(&format!("| | {} |\n", cols.join(" | ")));
    s.push_str(&format!("|---|{}\n", "---|".repeat(cols.len())));
    for r in rows {
        let vals: Vec<&str> = r.values.iter().map(|(_, v)| v.as_str()).collect();
        s.push_str(&format!("| {} | {} |\n", r.label, vals.join(" | ")));
    }
    s
}

fn ms(d: Duration) -> String {
    format!("{:.1}ms", d.as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------------------
// The paper's queries (§7) as SQL, run through a `Session` over the
// generated relations. Each figure counts its results, so each query is a
// COUNT(*) of the paper's join.
// ---------------------------------------------------------------------------

/// §7.2 — 3-Reachability: 3-hop paths in WebGraph.
pub const REACHABILITY3: &str = "SELECT COUNT(*) FROM WebGraph W1, WebGraph W2, WebGraph W3 \
     WHERE W1.ToUrl = W2.FromUrl AND W2.ToUrl = W3.FromUrl";

/// §7.3 — TPCH9-Partial, the join core of TPC-H Q9: LINEITEM joins
/// PARTSUPP on (partkey, suppkey) and PART on partkey.
pub const TPCH9_PARTIAL: &str = "SELECT COUNT(*) FROM LINEITEM L, PARTSUPP PS, PART P \
     WHERE L.partkey = PS.partkey AND L.suppkey = PS.suppkey AND PS.partkey = P.partkey";

/// §7.4 — the join core of TPC-H Q3 (the paper drops its LIMIT and
/// ORDER BY).
pub const TPCH_Q3: &str = "SELECT COUNT(*) FROM CUSTOMER C, ORDERS O, LINEITEM L \
     WHERE C.custkey = O.custkey AND O.orderkey = L.orderkey";

/// §7.3 — WebAnalytics: 2-hop paths through the hub
/// ([`webgraph::HUB`], id 0) joined with CrawlContent.
pub const WEB_ANALYTICS: &str = "SELECT COUNT(*) FROM WebGraph W1, WebGraph W2, CrawlContent C \
     WHERE W1.ToUrl = 0 AND W2.FromUrl = 0 AND W1.ToUrl = W2.FromUrl AND W1.FromUrl = C.Url";

/// §7.4 — Google TaskCount: failed tasks ([`google_cluster::FAIL`], code 3)
/// joined with their job and machine.
pub const TASK_COUNT: &str = "SELECT COUNT(*) FROM JOB_EVENTS J, TASK_EVENTS T, MACHINE_EVENTS M \
     WHERE T.eventType = 3 AND J.jobID = T.jobID AND M.machineID = T.machineID";

const _: () = assert!(webgraph::HUB == 0 && google_cluster::FAIL == 3, "the SQL above names them");

/// A relation to register: name, schema and rows.
pub type Table = (&'static str, Schema, Vec<Tuple>);

/// The TPC-H relations under their TPC-H names.
pub fn tpch_tables(d: &TpchData) -> Vec<Table> {
    vec![
        ("CUSTOMER", tpch::customer_schema(), d.customer.clone()),
        ("ORDERS", tpch::orders_schema(), d.orders.clone()),
        ("LINEITEM", tpch::lineitem_schema(), d.lineitem.clone()),
        ("PARTSUPP", tpch::partsupp_schema(), d.partsupp.clone()),
        ("PART", tpch::part_schema(), d.part.clone()),
    ]
}

/// The WebGraph relation.
pub fn webgraph_table(arcs: Vec<Tuple>) -> Table {
    ("WebGraph", webgraph::webgraph_schema(), arcs)
}

/// The CrawlContent relation.
pub fn crawlcontent_table(content: Vec<Tuple>) -> Table {
    ("CrawlContent", crawlcontent::crawlcontent_schema(), content)
}

/// The Google cluster trace's three relations.
pub fn google_tables(d: &google_cluster::GoogleClusterData) -> Vec<Table> {
    vec![
        ("JOB_EVENTS", google_cluster::job_events_schema(), d.job_events.clone()),
        ("TASK_EVENTS", google_cluster::task_events_schema(), d.task_events.clone()),
        ("MACHINE_EVENTS", google_cluster::machine_events_schema(), d.machine_events.clone()),
    ]
}

/// A session on `machines` machines over `tables`, each registered and
/// analyzed as a user loads them: the engine's statistics, not the figure,
/// then set the skew marks, the join order and (unless forced) the scheme.
pub fn figure_session(machines: usize, tables: impl IntoIterator<Item = Table>) -> Session {
    let mut session = Session::builder().machines(machines).build();
    for (name, schema, rows) in tables {
        session.register(name, schema, rows).expect("distinct table names");
        session.analyze(name).expect("registered above");
    }
    session
}

/// Run `sql` on `session` with the scheme and local join a figure column
/// forces; returns the result (its report holds the loads) and the run's
/// wall-clock time.
pub fn run_forced(
    session: &mut Session,
    sql: &str,
    scheme: SchemeKind,
    local: LocalJoinKind,
) -> (ResultSet, Duration) {
    let cfg = session.config_mut();
    cfg.scheme = Some(scheme);
    cfg.local = local;
    let start = Instant::now();
    let rs = session.sql(sql).expect("figure query runs");
    (rs, start.elapsed())
}

/// The three hypercube schemes, as Figures 7 and 8 label them.
const SCHEMES: [(&str, SchemeKind); 3] = [
    ("Hash-Hypercube", SchemeKind::Hash),
    ("Random-Hypercube", SchemeKind::Random),
    ("Hybrid-Hypercube", SchemeKind::Hybrid),
];

// ---------------------------------------------------------------------------
// E0 — §3.1 worked example (analytic).
// ---------------------------------------------------------------------------

/// The §3.1 R(x,y) ⋈ S(y,z) ⋈ T(z,t) example on 64 machines: analytic
/// maximum and total load per scheme, uniform and skewed (z zipf(2),
/// top-key share 1/2 as the paper assumes).
pub fn e0_worked_example() -> Vec<Row> {
    let hash = HypercubeScheme::new(
        3,
        vec![
            Dimension {
                name: "y".into(),
                size: 8,
                kind: PartitionKind::Hash,
                members: vec![(0, 1), (1, 0)],
            },
            Dimension {
                name: "z".into(),
                size: 8,
                kind: PartitionKind::Hash,
                members: vec![(1, 1), (2, 0)],
            },
        ],
        7,
    );
    let random = HypercubeScheme::new(
        3,
        vec![
            Dimension {
                name: "~R".into(),
                size: 4,
                kind: PartitionKind::Random,
                members: vec![(0, 0)],
            },
            Dimension {
                name: "~S".into(),
                size: 4,
                kind: PartitionKind::Random,
                members: vec![(1, 0)],
            },
            Dimension {
                name: "~T".into(),
                size: 4,
                kind: PartitionKind::Random,
                members: vec![(2, 0)],
            },
        ],
        7,
    );
    let hybrid = HypercubeScheme::new(
        3,
        vec![
            Dimension {
                name: "y".into(),
                size: 9,
                kind: PartitionKind::Hash,
                members: vec![(0, 1), (1, 0)],
            },
            Dimension {
                name: "z''".into(),
                size: 7,
                kind: PartitionKind::Random,
                members: vec![(2, 0)],
            },
        ],
        7,
    );
    let sizes = [1.0, 1.0, 1.0];
    let uniform = |_: usize, _: usize| 0.0;
    let skewed = |rel: usize, col: usize| {
        if (rel, col) == (1, 1) || (rel, col) == (2, 0) {
            0.5
        } else {
            0.0
        }
    };
    [
        ("Hash-Hypercube 8x8", &hash),
        ("Random-Hypercube 4x4x4", &random),
        ("Hybrid-Hypercube 9x7", &hybrid),
    ]
    .into_iter()
    .map(|(name, s)| {
        Row::new(name)
            .add("L uniform (H)", format!("{:.3}", s.max_load(&sizes, &uniform)))
            .add("L skewed (H)", format!("{:.3}", s.max_load(&sizes, &skewed)))
            .add("total load (H)", format!("{:.0}", s.total_load(&sizes)))
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Figure 5 — bottleneck decomposition over CUSTOMER ⋈ ORDERS.
// ---------------------------------------------------------------------------

/// Figure 5: run CUSTOMER ⋈ ORDERS in stages, adding one element at a time
/// (read / +sel(int) / +sel(date) / +network / full join). `scale_units`
/// sizes the TPC-H generator (1.0 = 6000 lineitems).
pub fn fig5_bottleneck(scale_units: f64, join_tasks: usize) -> Vec<Row> {
    let data = TpchGen::new(scale_units, 0.0, 42).generate();
    let customers = Arc::new(data.customer.clone());
    let orders = Arc::new(data.orders.clone());

    // Best-of-3 to suppress thread-startup noise.
    let time = |f: &mut dyn FnMut()| -> Duration {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .min()
            .expect("three runs")
    };

    // 1. ReadFile: sources into a local no-op sink (no repartitioning).
    let rf = time(&mut || {
        let mut b = TopologyBuilder::new();
        let (c, o) = fig5_spouts(&mut b, &customers, &orders);
        let sink_node = b.add_bolt("sink", 1, |_| fig5_sink());
        b.connect(c, sink_node, Grouping::Global);
        b.connect(o, sink_node, Grouping::Global);
        b.build().unwrap().run();
    });
    // 2. + no-op selection over an integer field.
    let sel_int = time(&mut || {
        fig5_sel_stage(&customers, &orders, &fig5_sel_int(), 1, false);
    });
    // 3. + no-op selection over the DATE field — the expensive Str→Date
    //    parse (orderdate >= 1970-01-01 passes everything).
    let sel_date_pred = ScalarExpr::bin(
        BinOp::Ge,
        ScalarExpr::cast(ScalarExpr::col(2), DataType::Date),
        ScalarExpr::lit(Value::Date(squall_common::Date(0))),
    );
    let sel_date = time(&mut || {
        fig5_sel_stage(&customers, &orders, &sel_date_pred, 1, false);
    });
    // 4. + network: hash repartitioning over `join_tasks` tasks, no join.
    let network = time(&mut || {
        fig5_sel_stage(&customers, &orders, &fig5_sel_int(), join_tasks, true);
    });
    // 5. Full join C ⋈ O (hash partitioned, DBToaster local).
    let mut session = figure_session(
        join_tasks,
        tpch_tables(&data).into_iter().filter(|(name, ..)| matches!(*name, "CUSTOMER" | "ORDERS")),
    );
    let full = time(&mut || {
        run_forced(&mut session, CUSTOMER_ORDERS, SchemeKind::Hash, LocalJoinKind::DBToaster);
    });

    let share = |d: Duration| format!("{:.0}%", 100.0 * d.as_secs_f64() / full.as_secs_f64());
    [
        ("ReadFile (RF)", rf),
        ("RF + sel(int)", sel_int),
        ("RF + sel(date)", sel_date),
        ("RF + sel(int) + network", network),
        ("Full join", full),
    ]
    .into_iter()
    .map(|(label, d)| Row::new(label).add("runtime", ms(d)).add("share of full join", share(d)))
    .collect()
}

/// Figure 5's no-op integer selection: `shippriority >= 0`.
fn fig5_sel_int() -> ScalarExpr {
    ScalarExpr::bin(BinOp::Ge, ScalarExpr::col(3), ScalarExpr::lit(0))
}

/// A no-op counting sink.
fn fig5_sink() -> Box<dyn Bolt> {
    Box::new(FnBolt(|_o, _t: Tuple, _out: &mut OutputCollector| Ok(())))
}

fn fig5_spouts(
    b: &mut TopologyBuilder,
    customers: &Arc<Vec<Tuple>>,
    orders: &Arc<Vec<Tuple>>,
) -> (NodeId, NodeId) {
    let mut spout = |name: &str, data: &Arc<Vec<Tuple>>| {
        let d = Arc::clone(data);
        b.add_spout(name, 1, move |t| Box::new(IterSpoutVec::strided(Arc::clone(&d), t, 1)))
    };
    (spout("customer", customers), spout("orders", orders))
}

/// One selection stage of Figure 5: ORDERS through a `sel` bolt on `pred`
/// into a no-op sink of `sink_tasks` tasks, CUSTOMER straight into the
/// sink — hash-repartitioned on the join key when `network`. The selection
/// is [`ScalarExpr::eval_bool`] row by row, the evaluator every query's
/// pushed-down predicate runs, so the stage measures the engine's path.
/// Returns how many rows `sel` passed.
fn fig5_sel_stage(
    customers: &Arc<Vec<Tuple>>,
    orders: &Arc<Vec<Tuple>>,
    pred: &ScalarExpr,
    sink_tasks: usize,
    network: bool,
) -> u64 {
    let mut b = TopologyBuilder::new();
    let (c, o) = fig5_spouts(&mut b, customers, orders);
    let pred = pred.clone();
    let sel = b.add_bolt("sel", 1, move |_| {
        let pred = pred.clone();
        Box::new(FnBolt(move |_o, t: Tuple, out: &mut OutputCollector| {
            if pred.eval_bool(&t)? {
                out.emit(t);
            }
            Ok(())
        }))
    });
    let sink_node = b.add_bolt("sink", sink_tasks, |_| fig5_sink());
    let (from_sel, from_customer) = if network {
        (Grouping::Fields(vec![1]), Grouping::Fields(vec![0]))
    } else {
        (Grouping::Global, Grouping::Global)
    };
    b.connect(o, sel, Grouping::Global);
    b.connect(sel, sink_node, from_sel);
    b.connect(c, sink_node, from_customer);
    b.build().unwrap().run().metrics.node(sel).total_emitted()
}

/// Figure 5's join.
const CUSTOMER_ORDERS: &str =
    "SELECT COUNT(*) FROM CUSTOMER C, ORDERS O WHERE C.custkey = O.custkey";

// ---------------------------------------------------------------------------
// Figure 6 — 3-Reachability: multi-way vs pipeline of 2-way joins.
// ---------------------------------------------------------------------------

/// Figure 6: the 3-reachability self-join over a WebGraph sample, run as
/// (a) Hash-Hypercube multi-way, (b) Hybrid-Hypercube multi-way, (c)
/// pipeline of 2-way joins. Reports runtime, tuples shuffled, the
/// multi-way runs' max load and replication factor, and the scheme.
pub fn fig6_reachability(n_nodes: usize, n_arcs: usize, machines: usize) -> Vec<Row> {
    let arcs = WebGraphGen::new(n_nodes, n_arcs, 9).generate();
    let mut session = figure_session(machines, [webgraph_table(arcs.clone())]);
    let mut rows = Vec::new();
    for (name, kind) in
        [("Hash-Hypercube", SchemeKind::Hash), ("Hybrid-Hypercube", SchemeKind::Hybrid)]
    {
        let (mut rs, elapsed) =
            run_forced(&mut session, REACHABILITY3, kind, LocalJoinKind::DBToaster);
        let rep = rs.report().expect("a join reports its run");
        rows.push(
            Row::new(name)
                .add("runtime", ms(elapsed))
                .add("tuples shuffled", rep.loads.iter().sum::<u64>())
                .add("results", rep.result_count)
                .add("max load", rep.max_load())
                .add("replication factor", format!("{:.2}", rep.replication_factor))
                .add("scheme", &rep.scheme_description),
        );
    }
    let spec = reachability3_spec(arcs.len() as u64);
    let data = vec![arcs.clone(), arcs.clone(), arcs];
    let start = Instant::now();
    let pipe =
        run_pipeline(&spec, data, &[0, 1, 2], machines, LocalJoinKind::DBToaster, false).unwrap();
    let elapsed = start.elapsed();
    // The pipeline's shuffled tuples include the intermediate stage: use
    // the network factor × query size for the comparable number.
    rows.push(
        Row::new("Pipeline of 2-way joins")
            .add("runtime", ms(elapsed))
            .add("tuples shuffled", format!("{:.0}", pipe.network_factor * pipe.input_count as f64))
            .add("results", pipe.result_count)
            .add("max load", "–")
            .add("replication factor", "–")
            .add("scheme", "hash per stage"),
    );
    rows
}

/// [`REACHABILITY3`] written by hand over three copies of an `arcs`-row
/// WebGraph, for the pipeline comparator: `run_pipeline` takes a spec, not
/// SQL.
pub fn reachability3_spec(arcs: u64) -> MultiJoinSpec {
    let w = |name: &str| RelationDef::new(name, webgraph::webgraph_schema(), arcs);
    MultiJoinSpec::new(
        vec![w("W1"), w("W2"), w("W3")],
        vec![
            JoinAtom::eq(0, 1, 1, 0), // W1.ToUrl = W2.FromUrl
            JoinAtom::eq(1, 1, 2, 0), // W2.ToUrl = W3.FromUrl
        ],
    )
    .expect("static spec")
}

/// [`TPCH9_PARTIAL`] written by hand over `d`'s LINEITEM, PARTSUPP and PART,
/// with LINEITEM.partkey marked skewed so that Hybrid-Hypercube takes its
/// skew path: for the kernel benches and the oracle tests, which take a
/// spec, not SQL.
pub fn tpch9_partial_spec(d: &TpchData) -> MultiJoinSpec {
    let mut lineitem = tpch::lineitem_schema();
    lineitem.set_skewed("partkey").expect("LINEITEM has partkey");
    MultiJoinSpec::new(
        vec![
            RelationDef::new("LINEITEM", lineitem, d.lineitem.len() as u64),
            RelationDef::new("PARTSUPP", tpch::partsupp_schema(), d.partsupp.len() as u64),
            RelationDef::new("PART", tpch::part_schema(), d.part.len() as u64),
        ],
        vec![
            JoinAtom::eq(0, 1, 1, 0), // L.partkey = PS.partkey
            JoinAtom::eq(0, 2, 1, 1), // L.suppkey = PS.suppkey
            JoinAtom::eq(1, 0, 2, 0), // PS.partkey = P.partkey
        ],
    )
    .expect("static spec")
}

// ---------------------------------------------------------------------------
// Figure 7 + Tables 1 & 2 — hypercube scheme comparison.
// ---------------------------------------------------------------------------

/// One Figure-7 configuration: run `sql` under all three schemes and
/// report runtime, max/avg load (Table 1), replication factor (Table 2).
pub fn fig7_schemes(session: &mut Session, sql: &str) -> Vec<Row> {
    SCHEMES
        .into_iter()
        .map(|(name, kind)| {
            let (mut rs, elapsed) = run_forced(session, sql, kind, LocalJoinKind::DBToaster);
            let rep = rs.report().expect("a join reports its run");
            Row::new(name)
                .add("runtime", ms(elapsed))
                .add("max load", rep.max_load())
                .add("avg load", format!("{:.0}", rep.avg_load()))
                .add("skew degree", format!("{:.2}", rep.skew_degree))
                .add("replication factor", format!("{:.2}", rep.replication_factor))
                .add("scheme", &rep.scheme_description)
        })
        .collect()
}

/// The Figure 7 / Table 1 / Table 2 workloads at laptop scale.
pub fn fig7_all(scale_small: f64, scale_big: f64) -> Vec<(String, Vec<Row>)> {
    // TPCH9-Partial, zipf(2), "10G/8J" and "80G/100J" analogs.
    let small = TpchGen::new(scale_small, 2.0, 7).generate();
    let big = TpchGen::new(scale_big, 2.0, 8).generate();
    let arcs = WebGraphGen::new(2500, 25_000, 11).generate();
    let content = crawlcontent::generate(2500, 12);
    let web = [webgraph_table(arcs), crawlcontent_table(content)];
    vec![
        (
            format!("TPCH9-Partial {scale_small}u/8J (zipf 2)"),
            fig7_schemes(&mut figure_session(8, tpch_tables(&small)), TPCH9_PARTIAL),
        ),
        (
            format!("TPCH9-Partial {scale_big}u/16J (zipf 2)"),
            fig7_schemes(&mut figure_session(16, tpch_tables(&big)), TPCH9_PARTIAL),
        ),
        (
            "WebAnalytics (40 machines in paper; 8 here)".into(),
            fig7_schemes(&mut figure_session(8, web), WEB_ANALYTICS),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Figure 8 — DBToaster vs traditional local joins.
// ---------------------------------------------------------------------------

/// Figure 8: `sql` run with each local algorithm under each hypercube
/// scheme; reports runtimes and the DBToaster speedup.
pub fn fig8_localjoins(session: &mut Session, sql: &str) -> Vec<Row> {
    SCHEMES
        .into_iter()
        .map(|(sname, kind)| {
            let mut row = Row::new(sname);
            let mut times = Vec::new();
            for local in [LocalJoinKind::DBToaster, LocalJoinKind::Traditional] {
                let (_, elapsed) = run_forced(session, sql, kind, local);
                row = row.add(&local.to_string(), ms(elapsed));
                times.push(elapsed.as_secs_f64());
            }
            row.add("DBToaster speedup", format!("{:.1}x", times[1] / times[0]))
        })
        .collect()
}

/// All three Figure-8 workloads, plus a join-product-skew variant of the
/// 3-Reachability query where the algorithmic gap (aggregated views probe
/// O(distinct keys) instead of enumerating O(matches)) is decisive. On the
/// pure foreign-key joins the paper's order-of-magnitude also contains the
/// constant-factor gap between DBToaster's generated code and Squall's
/// interpreted traditional joins, which an interpreter-vs-interpreter
/// comparison cannot show (see EXPERIMENTS.md).
pub fn fig8_all(scale: f64) -> Vec<(String, Vec<Row>)> {
    let tpch = TpchGen::new(scale, 2.0, 13).generate();
    let mut tpch = figure_session(8, tpch_tables(&tpch));
    let gd = google_cluster::generate((8000.0 * scale) as usize, 14);
    let arcs = WebGraphGen::new(1200, 8_000, 15).generate();
    vec![
        (
            format!("Fig 8a: TPCH9-Partial {scale}u/8J (zipf 2)"),
            fig8_localjoins(&mut tpch, TPCH9_PARTIAL),
        ),
        (format!("Fig 8b: TPC-H Q3 {scale}u/8J (zipf 2)"), fig8_localjoins(&mut tpch, TPCH_Q3)),
        (
            "Fig 8c: Google TaskCount 8J".into(),
            fig8_localjoins(&mut figure_session(8, google_tables(&gd)), TASK_COUNT),
        ),
        (
            "Fig 8d (supplementary): 3-Reachability, hub graph (join product skew)".into(),
            fig8_localjoins(&mut figure_session(9, [webgraph_table(arcs)]), REACHABILITY3),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Ablations (§5).
// ---------------------------------------------------------------------------

/// A1 — hash-imperfection skew: max keys per machine, hashing vs the
/// round-robin key map, for the TPC-H-like small domains d ∈ {5,7,15,25}
/// on p = 8 machines.
pub fn abl_hash_imperfection() -> Vec<Row> {
    let p = 8;
    [5usize, 7, 15, 25]
        .into_iter()
        .map(|d| {
            let keys: Vec<Value> = (0..d as i64).map(Value::Int).collect();
            let hash_max = hash_assignment_max_keys(keys.clone(), p);
            let per_machine = KeyMapGrouping::new(0, keys, p).keys_per_machine(p);
            let map_max = per_machine.into_iter().max().unwrap_or(0);
            // ⌈d/p⌉ keys on the fullest machine is the §5 optimum.
            let optimal = d.div_ceil(p);
            Row::new(format!("d={d}, p={p}"))
                .add("hash: max keys/machine", hash_max)
                .add("key map: max keys/machine", map_max)
                .add("optimal", optimal)
                .add("hash overload", format!("{:.2}x", hash_max as f64 / optimal as f64))
        })
        .collect()
}

/// A2 — temporal skew: mean active machines per 50-tuple window for a
/// sorted stream under hash vs shuffle partitioning, and the same keys
/// shuffled.
pub fn abl_temporal_skew() -> Vec<Row> {
    let p = 8;
    let window = 50;
    let sorted = streams::sorted_stream(200, 50);
    let shuffled = streams::shuffled_stream(200, 50, 3);
    vec![
        Row::new("sorted arrival, hash partitioning").add(
            "mean active machines",
            format!(
                "{:.1}/{p}",
                mean_active_machines(&Grouping::Fields(vec![0]), sorted.clone(), p, window)
            ),
        ),
        Row::new("sorted arrival, random partitioning").add(
            "mean active machines",
            format!("{:.1}/{p}", mean_active_machines(&Grouping::Shuffle, sorted, p, window)),
        ),
        Row::new("shuffled arrival, hash partitioning").add(
            "mean active machines",
            format!(
                "{:.1}/{p}",
                mean_active_machines(&Grouping::Fields(vec![0]), shuffled, p, window)
            ),
        ),
    ]
}

/// A3 — Adaptive 1-Bucket under drifting |R|:|S| (the \[32\] scenario).
pub fn abl_adaptive() -> Vec<Row> {
    let arrivals = adaptive::drifting_stream(500, 20_000, 12, 21);
    let stat = adaptive::simulate(16, &arrivals, false, 5);
    let adap = adaptive::simulate(16, &arrivals, true, 5);
    assert_eq!(stat.results, adap.results, "a reshape neither loses nor repeats a pair");
    vec![
        Row::new("static 1-Bucket")
            .add("max load", stat.max_load())
            .add("avg load", format!("{:.0}", stat.avg_load()))
            .add("reshapes", stat.reshapes)
            .add("migrated tuples", stat.migrated),
        Row::new("Adaptive 1-Bucket [32]")
            .add("max load", adap.max_load())
            .add("avg load", format!("{:.0}", adap.avg_load()))
            .add("reshapes", adap.reshapes)
            .add("migrated tuples", adap.migrated),
    ]
}

/// A4 — 2-way band-join schemes under join product skew: replication and
/// output balance for 1-Bucket vs M-Bucket vs EWH.
pub fn abl_band_schemes() -> Vec<Row> {
    use squall_common::SplitMix64;
    let machines = 8;
    let mut rng = SplitMix64::new(31);
    let keys = |seed: u64| -> Vec<i64> {
        let mut r = SplitMix64::new(seed);
        (0..3000)
            .map(|_| {
                if r.next_f64() < 0.5 {
                    r.next_below(100) as i64
                } else {
                    1000 + r.next_below(1_000_000) as i64
                }
            })
            .collect()
    };
    let r_keys = keys(1);
    let s_keys = keys(2);
    let cond = RangeCond::Band(1);
    let skew = |counts: &[u64]| {
        let max = *counts.iter().max().unwrap() as f64;
        let avg = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    };
    let mut rows = Vec::new();
    // 1-Bucket: replication √p on both sides, perfect balance.
    {
        let scheme = one_bucket(r_keys.len() as u64, s_keys.len() as u64, machines, 3).unwrap();
        let mut out = vec![];
        let mut loads = vec![0u64; machines];
        for (i, _) in r_keys.iter().enumerate() {
            scheme.route(0, &squall_common::tuple![r_keys[i]], &mut rng, &mut out);
            for &m in &out {
                loads[m] += 1;
            }
        }
        for (i, _) in s_keys.iter().enumerate() {
            scheme.route(1, &squall_common::tuple![s_keys[i]], &mut rng, &mut out);
            for &m in &out {
                loads[m] += 1;
            }
        }
        let repl = loads.iter().sum::<u64>() as f64 / (r_keys.len() + s_keys.len()) as f64;
        rows.push(
            Row::new("1-Bucket [54]")
                .add("avg replication", format!("{repl:.2}"))
                .add("output skew degree", "1.00 (content-insensitive)"),
        );
    }
    for (name, grid) in [
        ("M-Bucket [54]", mbucket(&r_keys, &s_keys, cond, machines, 32).unwrap()),
        ("EWH [66]", ewh(&r_keys, &s_keys, cond, machines, 32).unwrap()),
    ] {
        let out = output_per_machine(&grid, &r_keys, &s_keys);
        let (rr, rs) = grid.avg_replication();
        rows.push(
            Row::new(name)
                .add("avg replication", format!("{:.2}", (rr + rs) / 2.0))
                .add("output skew degree", format!("{:.2}", skew(&out))),
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e0_rows_match_paper() {
        let rows = e0_worked_example();
        assert_eq!(rows.len(), 3);
        // Totals 17H / 48H / 23H.
        assert_eq!(rows[0].values[2].1, "17");
        assert_eq!(rows[1].values[2].1, "48");
        assert_eq!(rows[2].values[2].1, "23");
        // Skewed loads: hash 0.688, random 0.750, hybrid 0.365.
        assert_eq!(rows[0].values[1].1, "0.688");
        assert_eq!(rows[1].values[1].1, "0.750");
        assert_eq!(rows[2].values[1].1, "0.365");
        // Uniform loads: hash 0.266, random 0.750, hybrid 0.365.
        assert_eq!(rows[0].values[0].1, "0.266");
        assert_eq!(rows[1].values[0].1, "0.750");
        assert_eq!(rows[2].values[0].1, "0.365");
    }

    #[test]
    fn fig5_stages_and_selection_pass_what_eval_bool_passes() {
        let rows = fig5_bottleneck(0.05, 2);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[1].label, "RF + sel(int)");
        assert_eq!(rows[4].values[1].1, "100%");
        // The `sel` stage passes exactly the rows `eval_bool` passes: all of
        // them under the figure's no-op predicate, the odd keys under a
        // selective one — locally and hash-repartitioned.
        let data = TpchGen::new(0.05, 0.0, 42).generate();
        let customers = Arc::new(data.customer.clone());
        let orders = Arc::new(data.orders.clone());
        assert!(!orders.is_empty());
        let odd_keys = ScalarExpr::bin(BinOp::Mod, ScalarExpr::col(0), ScalarExpr::lit(2));
        for pred in [fig5_sel_int(), odd_keys] {
            let expected = orders.iter().filter(|t| pred.eval_bool(t).unwrap()).count() as u64;
            assert_eq!(fig5_sel_stage(&customers, &orders, &pred, 1, false), expected, "{pred}");
            assert_eq!(fig5_sel_stage(&customers, &orders, &pred, 3, true), expected, "{pred}");
        }
    }

    #[test]
    fn fig6_multiway_beats_pipeline_on_shuffle() {
        let rows = fig6_reachability(400, 3000, 9);
        assert_eq!(rows.len(), 3);
        let shuffled: Vec<f64> =
            rows.iter().map(|r| r.values[1].1.parse::<f64>().unwrap()).collect();
        // Multi-way (rows 0/1) must shuffle fewer tuples than the pipeline
        // (row 2) on this hub-heavy graph.
        assert!(shuffled[0] < shuffled[2], "{shuffled:?}");
        // All runs agree on the answer.
        let results: Vec<&str> = rows.iter().map(|r| r.values[2].1.as_str()).collect();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    /// The value under column `key` of `row`, parsed.
    fn value<T: std::str::FromStr>(row: &Row, key: &str) -> T
    where
        T::Err: std::fmt::Debug,
    {
        let (_, v) = row.values.iter().find(|(k, _)| k == key).expect("column");
        v.parse().unwrap()
    }

    /// §7.3: Hybrid-Hypercube matches or beats both Hash and Random. On
    /// every Figure 7 configuration, at `repro`'s scales, Hybrid's max load
    /// is within 5 % of the better of the two, and it replicates no more
    /// than Random.
    #[test]
    fn fig7_hybrid_matches_hash_and_random_max_load() {
        for (title, rows) in fig7_all(0.5, 1.5) {
            let max_load = |i: usize| value::<u64>(&rows[i], "max load");
            let rf = |i: usize| value::<f64>(&rows[i], "replication factor");
            let best = max_load(0).min(max_load(1)) as f64;
            assert!(
                max_load(2) as f64 <= best * 1.05,
                "{title}: hybrid {} vs hash {} / random {}",
                max_load(2),
                max_load(0),
                max_load(1)
            );
            assert!(rf(2) <= rf(1), "{title}: hybrid rf {} vs random {}", rf(2), rf(1));
        }
    }

    /// §5: hashing d ≈ p keys overloads the fullest machine by 2.00× /
    /// 3.00× / 1.50× / 1.25× at d = 5 / 7 / 15 / 25, p = 8; the key map
    /// holds ⌈d/p⌉ keys on its fullest machine.
    #[test]
    fn a1_hash_overload_and_key_map_load() {
        let rows = abl_hash_imperfection();
        let overload: Vec<String> =
            rows.iter().map(|r| value::<String>(r, "hash overload")).collect();
        assert_eq!(overload, ["2.00x", "3.00x", "1.50x", "1.25x"]);
        for (row, d) in rows.iter().zip([5usize, 7, 15, 25]) {
            assert_eq!(value::<usize>(row, "key map: max keys/machine"), d.div_ceil(8), "d={d}");
        }
    }

    #[test]
    fn abl_rows_render() {
        let rows = abl_hash_imperfection();
        assert_eq!(rows.len(), 4);
        let text = render("A1", &rows);
        assert!(text.contains("| d=15, p=8 |"));
        assert!(!abl_temporal_skew().is_empty());
        assert!(!abl_adaptive().is_empty());
        assert!(!abl_band_schemes().is_empty());
    }
}
