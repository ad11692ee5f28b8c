//! Allocation budgets for the windowed and the full-history aggregate
//! paths and for a one-shot skewed join, counted rather than timed: heap allocations do not vary
//! from run to run or host to host, so a change that brings back a tuple
//! per join result, a tuple per windowed arrival or per input row, or a
//! scatter-buffer column regrown for every batch fails here on its first
//! run. This is its own test binary because the counting allocator is
//! process-wide, and the cases take one lock so that no two run at once;
//! run it in release with
//! `cargo test --release --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use squall::common::{tuple, DataType, Schema, SplitMix64, Tuple, Zipf};
use squall::{LocalJoinKind, Session};

/// Every `alloc` and `realloc` (a grown buffer is an allocation too).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each case from its first allocation to its last, so that no
/// other case allocates while one counts.
static ALONE: Mutex<()> = Mutex::new(());

/// Allocations made while `f` runs.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Tumbling windows of 1 024 time units; keys live in one window each, so
/// every row meets about eight partners.
const WIDTH: i64 = 1024;
const ROWS: usize = 30_000;

/// Streams `A(k, g, v, ts)` and `B(k, ts)`, event time advancing by one per
/// row on average.
fn streams(seed: u64) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut rng = SplitMix64::new(seed);
    let key = |rng: &mut SplitMix64, ts: i64| ts / WIDTH * 128 + rng.next_range(0, 127);
    let mut ts = 0;
    let a = (0..ROWS)
        .map(|_| {
            ts += rng.next_range(0, 2);
            let k = key(&mut rng, ts);
            tuple![k, rng.next_range(0, 63), rng.next_range(1, 100), ts]
        })
        .collect();
    ts = 0;
    let b = (0..ROWS)
        .map(|_| {
            ts += rng.next_range(0, 2);
            tuple![key(&mut rng, ts), ts]
        })
        .collect();
    (a, b)
}

/// A session on 8 machines, 2 aggregate shards and 1 worker thread, with
/// [`streams`] registered as `A` and `B`.
fn stream_session() -> Session {
    let mut session = Session::builder().machines(8).agg_parallelism(2).worker_threads(1).build();
    let (a, b) = streams(7);
    let schema_a = Schema::of(&[
        ("k", DataType::Int),
        ("g", DataType::Int),
        ("v", DataType::Int),
        ("ts", DataType::Int),
    ]);
    let schema_b = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
    session.register_stream("A", schema_a, a, "ts").unwrap();
    session.register_stream("B", schema_b, b, "ts").unwrap();
    session
}

/// Run `sql` on [`stream_session`] and check its heap allocations per join
/// result against `budget`; `count_col` is the `COUNT(*)` column of its
/// rows.
fn check_aggregate_budget(sql: &str, count_col: usize, budget: f64) {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let session = stream_session();

    let (rows, allocations) = count_allocations(|| session.sql(sql).unwrap().rows().to_vec());

    let results: i64 = rows.iter().map(|r| r.get(count_col).as_int().unwrap()).sum();
    assert!(results > 100_000, "the query joined only {results} pairs");
    let per_result = allocations as f64 / results as f64;
    eprintln!("{allocations} allocations for {results} join results: {per_result:.3} per result");
    assert!(
        per_result <= budget,
        "{per_result:.3} allocations per join result, over the budget of {budget}"
    );
}

/// This query makes about 0.17 heap allocations per join result: each join
/// task folds its results into partial aggregates and ships one row per
/// (window, group) and window-start range, one aggregator for all ranges.
/// A fresh aggregator per range cost about 0.30, emitting every result into
/// a scatter buffer 0.39, and building each result as a tuple first 2.33.
/// The budget sits below the first of those, so losing any of the three
/// fails here.
const BUDGET_PER_RESULT: f64 = 0.22;

#[test]
fn windowed_aggregation_stays_within_its_allocation_budget() {
    // Each row is (window start, window end, g, COUNT(*), SUM(v)).
    let sql = "SELECT A.g, COUNT(*), SUM(A.v) FROM A, B WHERE A.k = B.k \
               WINDOW TUMBLING 1024 ON ts GROUP BY A.g";
    check_aggregate_budget(sql, 3, BUDGET_PER_RESULT);
}

/// The same query over the full history makes about 0.06 heap allocations
/// per join result: each join task folds its results into one partial per
/// group and ships them at end-of-stream. Emitting every result to the
/// aggregate shards cost 0.17, so the budget sits between the two.
const BUDGET_PER_FULL_HISTORY_RESULT: f64 = 0.10;

#[test]
fn full_history_aggregation_stays_within_its_allocation_budget() {
    // Each row is (g, COUNT(*), SUM(v)).
    let sql = "SELECT A.g, COUNT(*), SUM(A.v) FROM A, B WHERE A.k = B.k GROUP BY A.g";
    check_aggregate_budget(sql, 1, BUDGET_PER_FULL_HISTORY_RESULT);
}

/// Rows per big relation of the skewed join, and per guard.
const BIG: usize = 40_000;
const GUARD: usize = 512;

/// `big1(j, s, u, f)` and `big2(j, t, w, f)` share a zipf(1.0) key `j` over
/// 512 values; `guard1(a, b)` and `guard2(a, b)` tie `s` to `t` and `u` to
/// `w` over a sparse domain; `f` is uniform in `[0, 1000)`.
fn skewed_tables(seed: u64) -> [(&'static str, Schema, Vec<Tuple>); 4] {
    let mut rng = SplitMix64::new(seed);
    let zipf = Zipf::new(512, 1.0);
    let big = |rng: &mut SplitMix64| -> Vec<Tuple> {
        (0..BIG)
            .map(|_| {
                let j = zipf.sample(rng) as i64;
                tuple![
                    j,
                    rng.next_range(0, 99_999),
                    rng.next_range(0, 99_999),
                    rng.next_range(0, 999)
                ]
            })
            .collect()
    };
    let (big1, big2) = (big(&mut rng), big(&mut rng));
    let guard = |rng: &mut SplitMix64| -> Vec<Tuple> {
        (0..GUARD).map(|_| tuple![rng.next_range(0, 99_999), rng.next_range(0, 99_999)]).collect()
    };
    let (guard1, guard2) = (guard(&mut rng), guard(&mut rng));
    let int =
        |names: &[&str]| Schema::of(&names.iter().map(|&n| (n, DataType::Int)).collect::<Vec<_>>());
    [
        ("big1", int(&["j", "s", "u", "f"]), big1),
        ("big2", int(&["j", "t", "w", "f"]), big2),
        ("guard1", int(&["a", "b"]), guard1),
        ("guard2", int(&["a", "b"]), guard2),
    ]
}

/// This query makes about 0.17 heap allocations per input row: each
/// source reads its table in place and emits its rows borrowed, routes
/// spread in place and the traditional join probes with pooled buffers. A
/// serial pass that built a tuple per kept row, with routing and probing
/// that allocated per row, cost 5.06.
const BUDGET_PER_INPUT_ROW: f64 = 0.25;

#[test]
fn one_shot_skewed_join_stays_within_its_allocation_budget() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let mut session =
        Session::builder().machines(16).local(LocalJoinKind::Traditional).worker_threads(1).build();
    for (name, schema, rows) in skewed_tables(7) {
        session.register(name, schema, rows).unwrap();
        session.analyze(name).unwrap();
    }
    let sql = "SELECT COUNT(*) FROM big1, big2, guard1, guard2 \
               WHERE big1.j = big2.j AND big1.s = guard1.a AND big2.t = guard1.b \
               AND big1.u = guard2.a AND big2.w = guard2.b AND big1.f < 900 AND big2.f < 900";

    let (rows, allocations) = count_allocations(|| session.sql(sql).unwrap().rows().to_vec());

    assert_eq!(rows.len(), 1, "one COUNT(*) row");
    let inputs = 2 * (BIG + GUARD);
    let per_row = allocations as f64 / inputs as f64;
    eprintln!("{allocations} allocations for {inputs} input rows: {per_row:.3} per input row");
    assert!(
        per_row <= BUDGET_PER_INPUT_ROW,
        "{per_row:.3} allocations per input row, over the budget of {BUDGET_PER_INPUT_ROW}"
    );
}
