//! Checkpoint & recovery end-to-end: resident materialized views that
//! survive `kill -9` of a worker process.
//!
//! Each test spawns real long-lived `squall-worker` children (no
//! `--once` — a worker whose job dies goes back to accepting, which is
//! what re-admission relies on), SIGKILLs one mid-run, waits for the
//! coordinator's heartbeat/EOF detection to surface a typed
//! [`SquallError::WorkerLost`], re-admits a fresh worker set via
//! [`squall::ViewHandle::recover`], and checks the exactly-once
//! contract: the post-recovery snapshot equals the no-failure
//! recompute byte-for-byte, before and after further mutations. The
//! property test drives the same scenario over random append/retract
//! interleavings.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use squall::common::{tuple, DataType, Schema, SplitMix64, SquallError, Tuple};
use squall::{Session, SessionBuilder, ViewHandle};

/// One long-lived `squall-worker` child on an ephemeral port.
struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    fn spawn() -> Worker {
        let mut child = Command::new(env!("CARGO_BIN_EXE_squall-worker"))
            .args(["--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
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

    /// SIGKILL — no drop handlers, no goodbyes, exactly the failure the
    /// checkpoint subsystem exists for.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Poll until the resident run dies with a typed error (detection is
/// heartbeat/EOF driven, so it lands within a timeout, not instantly).
fn await_worker_lost(view: &ViewHandle) -> SquallError {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Some(e) = view.error() {
            return e;
        }
        assert!(Instant::now() < deadline, "worker loss was never detected");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The full-recompute oracle, always in-process: what a no-failure run
/// of the view's SELECT returns on the session's current catalog.
fn recompute(s: &Session, select: &str) -> Vec<Tuple> {
    let mut local = s.clone();
    local.config_mut().cluster = None;
    local.sql(select).unwrap().rows().to_vec()
}

/// R(a, b) ⋈ S(b, c) ⋈ T(c, d) with small key domains.
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

/// The acceptance scenario: a 3-way join + GROUP BY view across two
/// worker processes; one worker is SIGKILLed mid-run; after
/// re-admission of a replacement the snapshot is byte-identical to the
/// no-failure recompute and the view keeps maintaining.
#[test]
fn three_way_group_by_view_survives_kill_dash_nine() {
    let mut w0 = Worker::spawn();
    let w1 = Worker::spawn();
    let mut s = chain_session(
        Session::builder()
            .machines(4)
            .seed(11)
            .cluster([w0.addr.clone(), w1.addr.clone()])
            .checkpoint_interval(2)
            .heartbeat_timeout_ms(400),
    );
    s.sql(&format!("CREATE MATERIALIZED VIEW counts AS {CHAIN_VIEW}")).unwrap();
    let view = s.view("counts").unwrap();

    // Mutations straddling a checkpoint boundary (interval 2: epochs 2
    // and 4 checkpoint; epoch 5's retraction exists only in the replay
    // buffer at failure time).
    s.append("R", vec![tuple![4, 20], tuple![1, 20]]).unwrap();
    s.append("S", vec![tuple![30, 200]]).unwrap();
    s.append("T", vec![tuple![100, 11]]).unwrap();
    s.retract("R", vec![tuple![2, 10]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "before failure");

    w0.kill();
    let err = await_worker_lost(&view);
    match &err {
        SquallError::WorkerLost { addr, .. } => {
            assert!(addr.contains("127.0.0.1"), "lost peer is identified: {addr}")
        }
        other => panic!("expected WorkerLost, got {other}"),
    }

    // Re-admit: one fresh replacement plus the surviving worker (back in
    // its accept loop after its job died).
    let w2 = Worker::spawn();
    view.recover([w2.addr.clone(), w1.addr.clone()]).unwrap();
    assert!(view.error().is_none(), "recovered run is healthy");
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "post-recovery snapshot");

    // The recovered view keeps maintaining incrementally.
    s.append("R", vec![tuple![5, 20]]).unwrap();
    s.retract("S", vec![tuple![30, 200]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "after post-recovery rounds");

    let report = s.drop_view("counts").unwrap();
    let stats = report.maintenance.expect("standing report carries counters");
    assert!(stats.checkpoints >= 1, "at least one aligned checkpoint completed: {stats}");
    assert_eq!(stats.recoveries, 1, "{stats}");
}

const WINDOW_VIEW: &str = "SELECT A.k, COUNT(*) FROM A, B WHERE A.k = B.k \
                           WINDOW TUMBLING 5 ON ts GROUP BY A.k";

/// A windowed view checkpoints like any other: each join task ships the
/// rows it inserted and the rows its window evicted since its last
/// barrier. Killed after a checkpoint that folded evictions, the view
/// restores every task's live window and keeps closing windows.
#[test]
fn tumbling_stream_view_survives_kill_dash_nine() {
    let mut w0 = Worker::spawn();
    let w1 = Worker::spawn();
    let mut s = Session::builder()
        .machines(3)
        .seed(13)
        .cluster([w0.addr.clone(), w1.addr.clone()])
        .checkpoint_interval(2)
        .heartbeat_timeout_ms(400)
        .build();
    let schema = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
    let a = vec![tuple![1, 0], tuple![2, 3], tuple![1, 7]];
    s.register_stream("A", schema.clone(), a, "ts").unwrap();
    s.register_stream("B", schema, vec![tuple![1, 1], tuple![2, 4]], "ts").unwrap();
    s.sql(&format!("CREATE MATERIALIZED VIEW w AS {WINDOW_VIEW}")).unwrap();
    let view = s.view("w").unwrap();

    // Epochs 2 and 4 checkpoint; by epoch 4 the watermark has passed 10,
    // so buckets [0, 5) and [5, 10) are evicted. Epoch 5 exists only in
    // the replay buffer at failure time.
    s.append("A", vec![tuple![2, 8], tuple![1, 9]]).unwrap();
    s.append("B", vec![tuple![1, 8], tuple![2, 11]]).unwrap();
    s.append("A", vec![tuple![1, 12], tuple![2, 14]]).unwrap();
    s.append("B", vec![tuple![1, 13], tuple![2, 14]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, WINDOW_VIEW), "before failure");

    w0.kill();
    assert!(matches!(await_worker_lost(&view), SquallError::WorkerLost { .. }));
    let w2 = Worker::spawn();
    view.recover([w2.addr.clone(), w1.addr.clone()]).unwrap();
    assert!(view.error().is_none(), "recovered run is healthy");
    assert_eq!(view.snapshot().unwrap(), recompute(&s, WINDOW_VIEW), "post-recovery snapshot");

    s.append("A", vec![tuple![1, 16], tuple![2, 19]]).unwrap();
    s.append("B", vec![tuple![1, 17], tuple![2, 21]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, WINDOW_VIEW), "after post-recovery rounds");

    let stats = s.drop_view("w").unwrap().maintenance.expect("standing report");
    assert!(stats.checkpoints >= 1, "at least one aligned checkpoint completed: {stats}");
    assert_eq!(stats.recoveries, 1, "{stats}");
}

/// A failure *before the first checkpoint completes* falls back to the
/// initial load + full replay path (no complete checkpoint exists yet)
/// and still converges to the oracle.
#[test]
fn failure_before_first_checkpoint_replays_from_initial_load() {
    let mut w0 = Worker::spawn();
    let w1 = Worker::spawn();
    let mut s = chain_session(
        Session::builder()
            .machines(3)
            .seed(7)
            .cluster([w0.addr.clone(), w1.addr.clone()])
            .checkpoint_interval(1000) // never reached
            .heartbeat_timeout_ms(400),
    );
    s.sql(&format!("CREATE MATERIALIZED VIEW counts AS {CHAIN_VIEW}")).unwrap();
    let view = s.view("counts").unwrap();
    s.append("R", vec![tuple![4, 20]]).unwrap();
    s.retract("S", vec![tuple![20, 200]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "before failure");

    w0.kill();
    assert!(matches!(await_worker_lost(&view), SquallError::WorkerLost { .. }));
    let w2 = Worker::spawn();
    view.recover([w2.addr.clone(), w1.addr.clone()]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "post-recovery snapshot");
    let report = s.drop_view("counts").unwrap();
    let stats = report.maintenance.expect("standing report carries counters");
    assert!(stats.checkpoints == 0, "no checkpoint ever completed: {stats}");
    assert!(stats.replayed_epochs >= 1, "replay was deduplicated at the sink: {stats}");
}

/// With checkpoints off there is nothing to restore: recovery rebuilds the
/// view from the initial load and every later round, so the rounds after
/// the initial load must be replayed too — and a view that lost them
/// counts groups twice once later rounds retract or extend them.
#[test]
fn checkpoints_off_recovery_replays_every_round() {
    let mut w0 = Worker::spawn();
    let w1 = Worker::spawn();
    let mut s = chain_session(
        Session::builder()
            .machines(3)
            .seed(7)
            .worker_threads(2)
            .cluster([w0.addr.clone(), w1.addr.clone()])
            .checkpoint_interval(0)
            .heartbeat_timeout_ms(400),
    );
    s.sql(&format!("CREATE MATERIALIZED VIEW counts AS {CHAIN_VIEW}")).unwrap();
    let view = s.view("counts").unwrap();
    s.append("R", vec![tuple![4, 20]]).unwrap();
    s.retract("S", vec![tuple![20, 200]]).unwrap();
    s.append("S", vec![tuple![10, 200]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "before failure");

    w0.kill();
    assert!(matches!(await_worker_lost(&view), SquallError::WorkerLost { .. }));
    let w2 = Worker::spawn();
    view.recover([w2.addr.clone(), w1.addr.clone()]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "post-recovery snapshot");

    s.append("R", vec![tuple![1, 20]]).unwrap();
    s.append("T", vec![tuple![200, 5]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "after post-recovery rounds");
    let stats = s.drop_view("counts").unwrap().maintenance.expect("standing report");
    assert_eq!((stats.checkpoints, stats.recoveries), (0, 1), "{stats}");
}

/// A long delta chain: with a checkpoint every epoch, 72 rounds of appends
/// and retractions fold into the coordinator's store before a worker dies;
/// the view restored from the folded state equals the recompute, keeps
/// maintaining, and prints how long `recover` took.
#[test]
fn recovery_after_a_long_delta_chain_matches_the_recompute() {
    let mut w0 = Worker::spawn();
    let w1 = Worker::spawn();
    let mut s = chain_session(
        Session::builder()
            .machines(4)
            .seed(5)
            .cluster([w0.addr.clone(), w1.addr.clone()])
            .checkpoint_interval(1)
            .heartbeat_timeout_ms(400),
    );
    s.sql(&format!("CREATE MATERIALIZED VIEW counts AS {CHAIN_VIEW}")).unwrap();
    let view = s.view("counts").unwrap();
    let mut rng = SplitMix64::new(3);
    let mut added: Vec<(&str, Tuple)> = Vec::new();
    for round in 0..72 {
        if round % 4 == 3 {
            let (name, row) = added.swap_remove(rng.next_below(added.len()));
            s.retract(name, vec![row]).unwrap();
        } else {
            let (name, row) = match rng.next_below(3) {
                0 => ("R", tuple![rng.next_range(0, 9), 10 * rng.next_range(1, 3)]),
                1 => ("S", tuple![10 * rng.next_range(1, 3), 100 * rng.next_range(1, 2)]),
                _ => ("T", tuple![100 * rng.next_range(1, 2), rng.next_range(0, 9)]),
            };
            s.append(name, vec![row.clone()]).unwrap();
            added.push((name, row));
        }
    }
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "before failure");

    w0.kill();
    assert!(matches!(await_worker_lost(&view), SquallError::WorkerLost { .. }));
    let w2 = Worker::spawn();
    let start = Instant::now();
    view.recover([w2.addr.clone(), w1.addr.clone()]).unwrap();
    let recovered = start.elapsed();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "post-recovery snapshot");
    eprintln!("recover() after a 72-round delta chain: {:.1} ms", recovered.as_secs_f64() * 1e3);

    s.append("R", vec![tuple![5, 20]]).unwrap();
    s.retract("T", vec![tuple![100, 7]]).unwrap();
    assert_eq!(view.snapshot().unwrap(), recompute(&s, CHAIN_VIEW), "after post-recovery rounds");
    let stats = s.drop_view("counts").unwrap().maintenance.expect("standing report");
    assert!(stats.checkpoints >= 64, "a checkpoint per round: {stats}");
    assert_eq!(stats.recoveries, 1, "{stats}");
}

/// One random mutation per step: append a random row to R or S, or
/// retract a random still-present base row.
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
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Exactly-once under random interleavings: random append/retract
    /// rounds, a SIGKILL at a random depth, re-admission, then more
    /// random rounds — every snapshot equals the recompute oracle, so
    /// no replayed epoch was double-applied and none was lost.
    #[test]
    fn recovery_is_exactly_once_under_random_interleavings(
        seed in 0u64..1000,
        steps_before in 2usize..7,
        steps_after in 1usize..5,
        dom in 2i64..6,
        aggregate in 0u8..2,
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
        let mut shadow = [gen(&mut rng, 5), gen(&mut rng, 5)];

        let mut w0 = Worker::spawn();
        let w1 = Worker::spawn();
        let mut s = Session::builder()
            .machines(3)
            .seed(seed)
            .cluster([w0.addr.clone(), w1.addr.clone()])
            .checkpoint_interval(2)
            .heartbeat_timeout_ms(400)
            .build();
        s.register("R", schema.clone(), shadow[0].clone()).unwrap();
        s.register("S", schema, shadow[1].clone()).unwrap();
        let view = s.create_view("v", &squall::sql::parse(select).unwrap()).unwrap();

        for _ in 0..steps_before {
            random_step(&mut rng, &mut s, &mut shadow, dom);
        }
        prop_assert_eq!(view.snapshot().unwrap(), recompute(&s, select), "before failure");

        w0.kill();
        prop_assert!(matches!(await_worker_lost(&view), SquallError::WorkerLost { .. }));
        let w2 = Worker::spawn();
        view.recover([w2.addr.clone(), w1.addr.clone()]).unwrap();
        prop_assert_eq!(view.snapshot().unwrap(), recompute(&s, select), "post-recovery");

        for step in 0..steps_after {
            random_step(&mut rng, &mut s, &mut shadow, dom);
            prop_assert_eq!(
                view.snapshot().unwrap(),
                recompute(&s, select),
                "post-recovery step {}",
                step
            );
        }
        s.drop_view("v").unwrap();
    }
}
