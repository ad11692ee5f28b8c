//! Golden-file tests for the explain surface: the plan tree — every node's
//! line, the optimizer block (join order, estimated-vs-actual cardinality
//! table, scheme candidates) and the cluster placement — is part of the
//! user-facing contract, so its exact rendering is pinned.
//!
//! The goldens are deterministic: fixed data, fixed seed, fixed machine
//! count — the only normalization is trailing-whitespace trimming. If you
//! change the explain format intentionally, update the goldens alongside.

use squall::common::{tuple, DataType, Schema};
use squall::{SchemeKind, Session};

fn session() -> Session {
    let mut s = Session::builder().machines(4).seed(42).agg_parallelism(2).build();
    s.register(
        "R",
        Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
        (0..60).map(|i| tuple![i % 6, i]).collect(),
    )
    .unwrap();
    s.register(
        "S",
        Schema::of(&[("a", DataType::Int), ("c", DataType::Int)]),
        (0..40).map(|i| tuple![i % 6, i % 10]).collect(),
    )
    .unwrap();
    s.register(
        "T",
        Schema::of(&[("c", DataType::Int), ("d", DataType::Int)]),
        (0..10).map(|i| tuple![i % 10, i % 3]).collect(),
    )
    .unwrap();
    s.analyze("R").unwrap();
    s.analyze("S").unwrap();
    s.analyze("T").unwrap();
    s
}

const SQL: &str = "SELECT T.d, COUNT(*) FROM R, S, T \
                   WHERE R.a = S.a AND S.c = T.c GROUP BY T.d";

fn normalize(s: &str) -> String {
    s.lines().map(str::trim_end).collect::<Vec<_>>().join("\n")
}

/// The pre-run explain: estimates filled in, actuals dashed.
#[test]
fn explain_matches_golden() {
    let text = session().explain(SQL).unwrap();
    let golden = include_str!("golden/explain_optimizer.golden");
    assert_eq!(normalize(&text), normalize(golden), "\n--- got ---\n{text}");
}

/// The post-run explain: the same table with the run's per-relation task
/// counters and result metrics substituted for the dashes.
#[test]
fn explain_with_actuals_matches_golden() {
    let s = session();
    let mut rs = s.sql(SQL).unwrap();
    rs.rows();
    let report = rs.report().expect("distributed run has a report");
    let text = s.explain_with(SQL, report).unwrap();
    let golden = include_str!("golden/explain_actuals.golden");
    assert_eq!(normalize(&text), normalize(golden), "\n--- got ---\n{text}");
    assert!(!text.contains('—'), "no dashed actuals remain after the run: {text}");
}

/// A forced scheme short-circuits scheme costing but not order search,
/// and the explain says so.
#[test]
fn forced_scheme_renders_as_forced() {
    let mut s = session();
    s.config_mut().scheme = Some(SchemeKind::Random);
    let text = s.explain(SQL).unwrap();
    assert!(text.contains("scheme: forced by config"), "{text}");
}

/// Every node at once — a windowed aggregate (group-hash shards and the
/// ordered merge), HAVING, ORDER BY / LIMIT — placed on two workers.
/// Explain is pure planning: the worker addresses are never contacted.
#[test]
fn windowed_cluster_explain_matches_golden() {
    let mut s = Session::builder()
        .machines(4)
        .seed(42)
        .agg_parallelism(3)
        .cluster(["127.0.0.1:7401", "127.0.0.1:7402"])
        .build();
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int), ("ts", DataType::Int)]);
    s.register_stream("A", schema.clone(), (0..30).map(|i| tuple![i % 5, i, i]).collect(), "ts")
        .unwrap();
    s.register_stream("B", schema, (0..30).map(|i| tuple![i % 3, i, 2 * i]).collect(), "ts")
        .unwrap();
    let text = s
        .explain(
            "SELECT A.k, SUM(B.v) AS total FROM A, B WHERE A.k = B.k AND B.v > 3 \
             WINDOW TUMBLING 10 GROUP BY A.k HAVING COUNT(*) > 1 ORDER BY total DESC LIMIT 5",
        )
        .unwrap();
    let golden = include_str!("golden/explain_windowed_cluster.golden");
    assert_eq!(normalize(&text), normalize(golden), "\n--- got ---\n{text}");
}
