//! Window semantics (§2) as a first-class `Session` feature: the paper's
//! click-stream scenario — match ad impressions to clicks within a
//! 30-time-unit sliding window — expressed three equivalent ways:
//!
//! * **Part 1a** — declarative: `WINDOW SLIDING 30 ON ts` in SQL, with the
//!   result rows consumed *while the topology runs*;
//! * **Part 1b** — imperative: `.window(Window::sliding(30).on("ts"))` on
//!   the query builder;
//! * **Part 2** — the physical layer the session API compiles down to:
//!   topology, groupings and the event-time windowed join bolt built by
//!   hand;
//! * **Part 3** — *per-window aggregation*: `WINDOW TUMBLING … GROUP BY`
//!   counts conversions per ad per window, rows shaped
//!   `(window_start, window_end, ad_id, n)` and streamed in window order
//!   as watermarks close each window.
//!
//! All paths produce identical conversions: window results are a pure
//! function of the timestamped inputs (watermark eviction + per-result
//! window predicate), not of thread scheduling.
//!
//! ```text
//! cargo run --release --example windowed_stream
//! ```

use std::sync::Arc;

use squall::common::{tuple, DataType, FxHashMap, Schema, SplitMix64, Tuple};
use squall::engine::operators::JoinBolt;
use squall::expr::{JoinAtom, MultiJoinSpec, RelationDef};
use squall::join::{DBToasterJoin, WindowSpec};
use squall::runtime::{Grouping, IterSpoutVec, TopologyBuilder};
use squall::{col, Session, Window};

const WINDOW: u64 = 30;

fn main() {
    // impressions(ad_id, ts), clicks(ad_id, ts): a click within 30 ticks
    // of a matching impression counts as a conversion.
    let mut rng = SplitMix64::new(7);
    let mut impressions = Vec::new();
    let mut clicks = Vec::new();
    let mut ts = 0i64;
    for _ in 0..30_000 {
        ts += rng.next_range(0, 2);
        let ad = rng.next_range(0, 500);
        impressions.push(tuple![ad, ts]);
        if rng.next_f64() < 0.1 {
            clicks.push(tuple![ad, ts + rng.next_range(0, 40)]);
        }
    }
    let ad_schema = Schema::of(&[("ad_id", DataType::Int), ("ts", DataType::Int)]);

    // Part 1 — the session layer: streams registered with a declared
    // event-time column, windows in both query interfaces.
    let machines = 4;
    let mut session = Session::builder().machines(machines).build();
    session
        .register_stream("impressions", ad_schema.clone(), impressions.clone(), "ts")
        .expect("valid stream")
        .register_stream("clicks", ad_schema.clone(), clicks.clone(), "ts")
        .expect("valid stream");

    // 1a: SQL, streaming — conversions are consumed while the topology
    // runs (the natural mode for unbounded sources).
    let sql = "SELECT I.ad_id, I.ts, C.ts FROM impressions I, clicks C \
               WHERE I.ad_id = C.ad_id WINDOW SLIDING 30 ON ts";
    let mut live = session.sql_stream(sql).expect("plans");
    assert!(live.is_streaming());
    let mut sql_rows: Vec<Tuple> = Vec::new();
    let mut first: Option<Tuple> = None;
    for row in live.by_ref() {
        if first.is_none() {
            first = Some(row.clone()); // seen before the run finished
        }
        sql_rows.push(row);
    }
    let report = live.report().expect("metrics after the stream ends");
    assert!(report.error.is_none());
    println!(
        "SQL stream: {} conversions (first while running: {}), join loads {:?}, elapsed {:?}",
        sql_rows.len(),
        first.map(|t| t.to_string()).unwrap_or_else(|| "none".into()),
        report.loads,
        report.elapsed,
    );

    // 1b: the imperative builder lowers to the same plan.
    let mut built = session
        .from_as("impressions", "I")
        .join_as("clicks", "C")
        .on(col("I.ad_id").eq(col("C.ad_id")))
        .window(Window::sliding(WINDOW).on("ts"))
        .select([col("I.ad_id"), col("I.ts"), col("C.ts")])
        .run()
        .expect("plans");
    sql_rows.sort();
    assert_eq!(built.rows(), sql_rows, "SQL and builder paths produce identical rows");

    // Part 2 — the physical layer underneath: the same windowed join as a
    // hand-built topology (spouts must feed each relation in event-time
    // order; the session path does this for us).
    let by_ts = |mut v: Vec<Tuple>| {
        v.sort_by_key(|t| t.get(1).as_int().unwrap());
        v
    };
    let imp = Arc::new(by_ts(impressions));
    let clk = Arc::new(by_ts(clicks));
    let spec = MultiJoinSpec::new(
        vec![
            RelationDef::new("impressions", ad_schema.clone(), imp.len() as u64),
            RelationDef::new("clicks", ad_schema, clk.len() as u64),
        ],
        vec![JoinAtom::eq(0, 0, 1, 0)],
    )
    .unwrap();

    let mut b = TopologyBuilder::new();
    let imp_node = {
        let d = Arc::clone(&imp);
        b.add_spout("impressions", 1, move |t| {
            Box::new(IterSpoutVec::strided(Arc::clone(&d), t, 1))
        })
    };
    let clk_node = {
        let d = Arc::clone(&clk);
        b.add_spout("clicks", 1, move |t| Box::new(IterSpoutVec::strided(Arc::clone(&d), t, 1)))
    };
    let spec2 = Arc::new(spec);
    let join_node = b.add_bolt("window-join", machines, move |task| {
        let mut map = FxHashMap::default();
        map.insert(imp_node, 0usize);
        map.insert(clk_node, 1usize);
        Box::new(JoinBolt::new_windowed(
            task,
            map,
            Box::new(DBToasterJoin::new(&spec2)),
            WindowSpec::Sliding { size: WINDOW },
            vec![1, 1], // ts column of each relation
            &[2, 2],    // relation arities (locate ts in the join output)
        ))
    });
    // Hash both sides on ad_id: an equi-join on a skew-free key.
    b.connect(imp_node, join_node, Grouping::Fields(vec![0]));
    b.connect(clk_node, join_node, Grouping::Fields(vec![0]));

    let outcome = b.build().unwrap().run();
    assert!(outcome.error.is_none(), "{:?}", outcome.error);
    let m = outcome.metrics.node(join_node).clone();
    // Raw join output is (I.ad_id, I.ts, C.ad_id, C.ts); project onto the
    // session query's SELECT list for a row-level comparison.
    let mut hand_built: Vec<Tuple> = outcome
        .into_tuples()
        .into_iter()
        .map(|t| Tuple::new(vec![t.get(0).clone(), t.get(1).clone(), t.get(3).clone()]))
        .collect();
    hand_built.sort();
    println!(
        "hand-built topology: {} conversions, loads {:?} (skew degree {:.2})",
        hand_built.len(),
        m.received,
        m.skew_degree()
    );

    assert_eq!(
        hand_built.len(),
        sql_rows.len(),
        "session API and hand-built topology must count the same conversions"
    );
    assert_eq!(hand_built, sql_rows, "…and produce identical rows");
    println!(
        "\n{} impressions, {} clicks → {} in-window conversions via all three paths",
        imp.len(),
        clk.len(),
        sql_rows.len()
    );

    // Part 3 — per-window aggregation: conversions per ad per tumbling
    // window, with closed windows streaming out in window order while the
    // topology still runs (watermarks from the join tasks close them).
    let per_window_sql = "SELECT I.ad_id, COUNT(*) FROM impressions I, clicks C \
                          WHERE I.ad_id = C.ad_id WINDOW TUMBLING 1000 ON ts \
                          GROUP BY I.ad_id";
    let mut live = session.sql_stream(per_window_sql).expect("plans");
    assert!(live.is_streaming());
    let mut last_start = i64::MIN;
    let mut per_window: Vec<Tuple> = Vec::new();
    for row in live.by_ref() {
        let start = row.get(0).as_int().unwrap();
        assert!(start >= last_start, "closed windows must stream in window order");
        last_start = start;
        per_window.push(row);
    }
    assert!(live.report().expect("report").error.is_none());
    // The per-window counts partition the sliding-free join total: every
    // (impression, click) pair in a shared bucket counts exactly once.
    let windows: std::collections::BTreeSet<i64> =
        per_window.iter().map(|t| t.get(0).as_int().unwrap()).collect();
    let builder_rows = session
        .from_as("impressions", "I")
        .join_as("clicks", "C")
        .on(col("I.ad_id").eq(col("C.ad_id")))
        .window(Window::tumbling(1000).on("ts"))
        .group_by([col("I.ad_id")])
        .select([col("I.ad_id"), squall::count()])
        .run()
        .expect("plans")
        .rows()
        .to_vec();
    assert_eq!(builder_rows, per_window, "SQL and builder per-window rows agree");
    println!(
        "per-window GROUP BY: {} (window, ad) rows across {} tumbling windows, e.g. {}",
        per_window.len(),
        windows.len(),
        per_window.first().map(|t| t.to_string()).unwrap_or_default(),
    );
}
