//! End-to-end standing-query coverage: resident materialized views that
//! survive appends and retractions after launch, serve consistent
//! read-your-writes snapshots, and match a full SELECT recompute
//! byte-for-byte — in-process and split across real loopback-TCP
//! workers. The property tests drive random append/retract
//! interleavings against the recompute oracle.

use proptest::prelude::*;
use squall::common::{tuple, DataType, Schema, SplitMix64, Tuple, Value};
use squall::engine::cluster::serve_job;
use squall::{Session, SessionBuilder};

/// In-process `squall-worker`s over real loopback TCP sockets; each
/// serves exactly one job (a resident view is one job for its whole
/// lifetime, from CREATE to DROP).
fn loopback_workers(n: usize) -> (Vec<String>, Vec<std::thread::JoinHandle<()>>) {
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..n {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(listener.local_addr().unwrap().to_string());
        handles.push(std::thread::spawn(move || serve_job(&listener).unwrap()));
    }
    (addrs, handles)
}

/// R(a, b) ⋈ S(b, c) ⋈ T(c, d) with small key domains so appends hit
/// existing join partners.
fn chain_session(builder: SessionBuilder) -> Session {
    let mut s = builder.build();
    s.register(
        "R",
        Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
        vec![tuple![1, 10], tuple![2, 10], tuple![2, 20], tuple![3, 30]],
    )
    .unwrap();
    s.register(
        "S",
        Schema::of(&[("b", DataType::Int), ("c", DataType::Int)]),
        vec![tuple![10, 100], tuple![20, 100], tuple![20, 200]],
    )
    .unwrap();
    s.register(
        "T",
        Schema::of(&[("c", DataType::Int), ("d", DataType::Int)]),
        vec![tuple![100, 7], tuple![200, 8], tuple![200, 9]],
    )
    .unwrap();
    s
}

const CHAIN_VIEW: &str = "SELECT R.a, COUNT(*) FROM R, S, T \
                          WHERE R.b = S.b AND S.c = T.c GROUP BY R.a";

/// The full-recompute oracle: run the view's SELECT from scratch on the
/// session's *current* catalog, always in-process (so the clustered
/// variants compare wire results against a local recompute).
fn recompute(s: &Session, select: &str) -> Vec<Tuple> {
    let mut local = s.clone();
    local.config_mut().cluster = None;
    local.sql(select).unwrap().rows().to_vec()
}

/// The acceptance scenario: a 3-way join + GROUP BY view stays resident
/// across three append rounds and a retraction, each snapshot matching
/// the full recompute byte-for-byte.
fn chain_view_stays_resident(builder: SessionBuilder) {
    let mut s = chain_session(builder);
    let view = s
        .sql(&format!("CREATE MATERIALIZED VIEW counts AS {CHAIN_VIEW}"))
        .map(|_| s.view("counts").unwrap())
        .unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "initial load");

    // Round 1: a new R row lands on existing S/T partners.
    s.append("R", vec![tuple![4, 20], tuple![1, 20]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "after round 1");

    // Round 2: a middle-relation append multiplies existing pairs, and a
    // retraction kills join rows (including a whole group's worth).
    s.append("S", vec![tuple![30, 200]]).unwrap();
    s.retract("R", vec![tuple![2, 10]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "after round 2");

    // Round 3: last-relation append plus a retraction that empties a
    // group entirely (a=3 only joined via S(30,200)).
    s.append("T", vec![tuple![100, 11]]).unwrap();
    s.retract("S", vec![tuple![30, 200]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "after round 3");

    // A retraction naming an absent row fails whole — the present row
    // before it stays in the table the views were never told about — so a
    // retry of just the present row still finds it.
    assert!(s.retract("R", vec![tuple![1, 10], tuple![9, 9]]).is_err());
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "after the failed round");
    s.retract("R", vec![tuple![1, 10]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "after the retry");

    let report = s.drop_view("counts").unwrap();
    let stats = report.maintenance.expect("standing report carries counters");
    assert!(stats.appends >= 3 && stats.retractions >= 2, "{stats}");
    assert!(stats.epochs_applied >= 6, "every mutation became an epoch: {stats}");
}

#[test]
fn three_way_group_by_view_stays_resident_in_process() {
    chain_view_stays_resident(Session::builder().machines(4).seed(11));
}

#[test]
fn three_way_group_by_view_stays_resident_over_tcp() {
    let (addrs, handles) = loopback_workers(2);
    chain_view_stays_resident(Session::builder().machines(4).seed(11).cluster(addrs));
    for h in handles {
        h.join().unwrap();
    }
}

/// Read-your-writes: the snapshot taken immediately after `append`
/// returns must include the appended rows' consequences — no sleeps, no
/// retries, across many rapid rounds.
#[test]
fn snapshots_read_their_writes_without_waiting() {
    let mut s = chain_session(Session::builder().machines(3).seed(5));
    let select = "SELECT R.a, S.c FROM R, S WHERE R.b = S.b";
    let view = s.create_view("rs", &squall::sql::parse(select).unwrap()).unwrap();
    for i in 0..12i64 {
        s.append("R", vec![tuple![100 + i, 10]]).unwrap();
        let rows = view.snapshot().unwrap();
        assert!(
            rows.iter().any(|t| t.get(0) == &Value::Int(100 + i)),
            "append {i} visible in its own snapshot"
        );
        assert_eq!(rows, recompute(&s, select), "round {i}");
    }
    s.drop_view("rs").unwrap();
}

/// A write is all or nothing across the catalog *and* the views: when a
/// row of the batch fails a view's pushed-down expression (`'x' + 1`), the
/// call is an error and the catalog, both views and their epochs are as
/// they were — the first view too, whose own transform had succeeded. A
/// later good append and retraction of the batch's good row then keep
/// snapshot and recompute equal (fed half a batch, the view would go to
/// multiplicity −1 and silently lose a row).
#[test]
fn a_failed_write_changes_neither_the_catalog_nor_any_view() {
    let mut s = Session::builder().machines(2).seed(3).build();
    let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
    s.register("R", schema.clone(), vec![tuple![1, 10]]).unwrap();
    s.register("S", schema, vec![tuple![1, 7]]).unwrap();
    let plain = "SELECT R.b, S.b FROM R, S WHERE R.a = S.a";
    let picky = "SELECT R.b, S.b FROM R, S WHERE R.a = S.a AND R.b + 1 > 5";
    let views = [("plain", plain), ("picky", picky)].map(|(name, select)| {
        (s.create_view(name, &squall::sql::parse(select).unwrap()).unwrap(), select)
    });
    let epochs = views.iter().map(|(v, _)| v.epoch()).collect::<Vec<_>>();
    let agree = |s: &Session, when: &str| {
        for (view, select) in &views {
            assert_eq!(view.snapshot().unwrap(), recompute(s, select), "{} {when}", view.name());
        }
    };

    let failed = s.append("R", vec![tuple![1, 20], tuple![1, "x"]]).map(|_| ());
    assert!(matches!(failed, Err(squall::common::SquallError::TypeMismatch { .. })), "{failed:?}");
    assert_eq!(s.catalog().get("R").unwrap().data.len(), 1, "the catalog kept no row");
    assert_eq!(views.iter().map(|(v, _)| v.epoch()).collect::<Vec<_>>(), epochs, "no epoch");
    agree(&s, "after the failed append");

    let failed = s.retract("R", vec![tuple![1, 10], tuple![1, 99]]).map(|_| ());
    assert!(matches!(failed, Err(squall::common::SquallError::InvalidSource { .. })), "{failed:?}");
    assert_eq!(s.catalog().get("R").unwrap().data.len(), 1, "the catalog lost no row");
    assert_eq!(views.iter().map(|(v, _)| v.epoch()).collect::<Vec<_>>(), epochs, "no epoch");

    s.append("R", vec![tuple![1, 20]]).unwrap();
    agree(&s, "after the good append");
    s.retract("R", vec![tuple![1, 20]]).unwrap();
    agree(&s, "after the retraction");
    s.append("R", vec![tuple![1, 20]]).unwrap();
    agree(&s, "after the re-append");
    for (view, _) in views {
        let name = view.name().to_string();
        drop(view);
        s.drop_view(&name).unwrap();
    }
}

/// A global aggregate view whose initial join is empty shows SQL's one
/// row, `COUNT(*)` = 0, like the recompute — though no delta reaches its
/// sink — and keeps agreeing once rows join and leave again.
#[test]
fn global_aggregate_view_over_an_empty_join_shows_its_empty_row() {
    let mut s = Session::builder().machines(2).seed(3).build();
    let schema = Schema::of(&[("a", DataType::Int)]);
    s.register("R", schema.clone(), vec![tuple![1]]).unwrap();
    s.register("S", schema, vec![tuple![2]]).unwrap();
    let select = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a";
    let view = s.create_view("n", &squall::sql::parse(select).unwrap()).unwrap();
    assert_eq!(recompute(&s, select), vec![tuple![0]]);
    assert_eq!(view.snapshot().unwrap(), recompute(&s, select), "initial load");
    s.append("S", vec![tuple![1]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, select), "after a match");
    s.retract("S", vec![tuple![1]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, select), "after its retraction");
    drop(view);
    s.drop_view("n").unwrap();
}

/// A windowed standing view over streams: post-launch appends extend the
/// per-window aggregate exactly like a recompute (streams are
/// append-only, so no retraction arm) — under tumbling windows and under
/// overlapping sliding ones, where one join result lands in several
/// windows and the earliest window is clamped at start 0.
#[test]
fn windowed_stream_view_extends_incrementally() {
    for window in ["TUMBLING 5", "SLIDING 3"] {
        let schema = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
        let mut s = Session::builder().machines(3).seed(9).build();
        let a = vec![tuple![1, 0], tuple![2, 3], tuple![1, 7]];
        s.register_stream("A", schema.clone(), a, "ts").unwrap();
        s.register_stream("B", schema, vec![tuple![1, 1], tuple![2, 4]], "ts").unwrap();
        let select = format!(
            "SELECT A.k, COUNT(*) FROM A, B WHERE A.k = B.k WINDOW {window} ON ts GROUP BY A.k"
        );
        let view = s.create_view("w", &squall::sql::parse(&select).unwrap()).unwrap();
        let initial = view.snapshot().unwrap();
        assert_eq!(initial, recompute(&s, &select), "{window}: initial");
        if window == "SLIDING 3" {
            // (window_start, window_end, k, count): the pair at ts (0, 1)
            // would open at −2; the pair at ts (3, 4) sits in [1,4], [2,5], [3,6].
            assert!(initial.contains(&tuple![0, 3, 1, 1]), "clamped at start 0: {initial:?}");
            let spanned = initial.iter().filter(|t| t.get(2) == &Value::Int(2)).count();
            assert_eq!(spanned, 3, "one result, three overlapping windows: {initial:?}");
        }
        for (stream, rows) in [
            ("A", vec![tuple![2, 8], tuple![1, 9]]),
            ("B", vec![tuple![1, 8], tuple![2, 9], tuple![1, 12]]),
        ] {
            s.append(stream, rows).unwrap();
            assert_eq!(
                view.snapshot().unwrap(),
                recompute(&s, &select),
                "{window}: after {stream}"
            );
        }
        assert!(
            s.retract("A", vec![tuple![1, 0]]).is_err(),
            "stream sources stay append-only under a windowed view"
        );
        s.drop_view("w").unwrap();
    }
}

#[test]
fn standing_plan_with_out_of_range_ts_column_is_a_typed_error() {
    // What a worker assembles from a shipped standing `JobSpec` whose
    // window names a column its relations do not have (arity 2, column 2).
    // Unchecked, the `output_ts_cols` assert inside the join bolt factory
    // panics the task instead of failing the launch.
    use squall::engine::driver::WindowPlan;
    use squall::engine::{
        launch_standing, Finalizer, LocalJoinKind, MultiwayConfig, ViewPlan, ViewShared,
    };
    use squall::expr::{JoinAtom, MultiJoinSpec, RelationDef, ScalarExpr};
    use squall::join::WindowSpec;
    use squall::partition::optimizer::SchemeKind;

    let schema = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
    let spec = MultiJoinSpec::new(
        vec![RelationDef::new("A", schema.clone(), 1), RelationDef::new("B", schema, 1)],
        vec![JoinAtom::eq(0, 0, 1, 0)],
    )
    .unwrap();
    let mut cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2)
        .with_window(WindowPlan { spec: WindowSpec::Tumbling { width: 10 }, ts_cols: vec![1, 2] });
    cfg.standing = true;
    let view = ViewPlan {
        group_cols: vec![],
        finalizer: Finalizer {
            having: None,
            project: (0..4).map(ScalarExpr::col).collect(),
            aggs: vec![],
            emit_empty: false,
        },
        windowed: None,
    };
    let data = vec![vec![tuple![1, 10]], vec![tuple![1, 11]]];
    let err = launch_standing(&spec, data, &cfg, view, std::sync::Arc::new(ViewShared::new()))
        .err()
        .expect("an out-of-range ts column must be rejected");
    assert!(matches!(err, squall::common::SquallError::InvalidPlan(_)), "{err}");
}

/// One random mutation per step: append a random row to R or S, or
/// retract a random still-present base row. Returns the row so the
/// shadow tables stay in sync.
fn random_step(rng: &mut SplitMix64, s: &mut Session, shadow: &mut [Vec<Tuple>; 2], dom: i64) {
    let rel = rng.next_range(0, 1) as usize;
    let name = ["R", "S"][rel];
    let retract_ok = !shadow[rel].is_empty();
    if retract_ok && rng.next_range(0, 2) == 0 {
        let idx = rng.next_range(0, shadow[rel].len() as i64 - 1) as usize;
        let row = shadow[rel].swap_remove(idx);
        s.retract(name, vec![row]).unwrap();
    } else {
        let row = tuple![rng.next_range(0, dom), rng.next_range(0, dom)];
        shadow[rel].push(row.clone());
        s.append(name, vec![row]).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random append/retract interleavings: after every mutation the
    /// resident view's snapshot equals the full-recompute oracle — for a
    /// plain join view and a GROUP BY view, across machine counts and
    /// key domains, in-process and over loopback TCP.
    #[test]
    fn random_interleavings_match_recompute_oracle(
        seed in 0u64..1000,
        machines in 1usize..5,
        dom in 2i64..7,
        steps in 4usize..10,
        aggregate in 0u8..2,
        distribute in 0u8..2,
    ) {
        let select = if aggregate == 1 {
            "SELECT R.a, COUNT(*) FROM R, S WHERE R.b = S.a GROUP BY R.a"
        } else {
            "SELECT R.a, S.b FROM R, S WHERE R.b = S.a"
        };
        let mut rng = SplitMix64::new(seed);
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
        let gen = |rng: &mut SplitMix64, n: usize| -> Vec<Tuple> {
            (0..n).map(|_| tuple![rng.next_range(0, dom), rng.next_range(0, dom)]).collect()
        };
        let mut shadow = [gen(&mut rng, 6), gen(&mut rng, 6)];

        let mut builder = Session::builder().machines(machines).seed(seed);
        let worker_handles = if distribute == 1 {
            let (addrs, handles) = loopback_workers(1);
            builder = builder.cluster(addrs);
            handles
        } else {
            Vec::new()
        };
        let mut s = builder.build();
        s.register("R", schema.clone(), shadow[0].clone()).unwrap();
        s.register("S", schema, shadow[1].clone()).unwrap();

        let view = s.create_view("v", &squall::sql::parse(select).unwrap()).unwrap();
        prop_assert_eq!(view.snapshot().unwrap(), recompute(&s, select), "initial load");
        for step in 0..steps {
            random_step(&mut rng, &mut s, &mut shadow, dom);
            prop_assert!(view.error().is_none(), "resident run healthy at step {}", step);
            prop_assert_eq!(view.snapshot().unwrap(), recompute(&s, select), "step {}", step);
        }
        s.drop_view("v").unwrap();
        for h in worker_handles {
            h.join().unwrap();
        }
    }
}
