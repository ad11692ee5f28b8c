//! An allocation budget for the windowed join path, counted rather than
//! timed: heap allocations do not vary from run to run or host to host,
//! so a change that brings back a tuple per join result, a tuple per
//! windowed arrival or a scatter-buffer column regrown for every batch
//! fails here on its first run. This is its own test binary because the
//! counting allocator is process-wide; run it in release with
//! `cargo test --release --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use squall::common::{tuple, DataType, Schema, SplitMix64, Tuple};
use squall::Session;

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

/// This query makes about 0.30 heap allocations per join result: each join
/// task folds its results into partial aggregates and ships one row per
/// (window, group). Emitting every result into a scatter buffer cost 0.39,
/// and building each result as a tuple first 2.33. The budget sits between
/// the first two, so per-result emission coming back fails here.
const BUDGET_PER_RESULT: f64 = 0.35;

#[test]
fn windowed_aggregation_stays_within_its_allocation_budget() {
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
    let sql = "SELECT A.g, COUNT(*), SUM(A.v) FROM A, B WHERE A.k = B.k \
               WINDOW TUMBLING 1024 ON ts GROUP BY A.g";

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let rows = session.sql(sql).unwrap().rows().to_vec();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // Each row is (window start, window end, g, COUNT(*), SUM(v)).
    let results: i64 = rows.iter().map(|r| r.get(3).as_int().unwrap()).sum();
    assert!(results > 100_000, "the query joined only {results} pairs");
    let per_result = allocations as f64 / results as f64;
    eprintln!("{allocations} allocations for {results} join results: {per_result:.3} per result");
    assert!(
        per_result <= BUDGET_PER_RESULT,
        "{per_result:.3} allocations per join result, over the budget of {BUDGET_PER_RESULT}"
    );
}
