//! Allocation budgets for the tumbling, sliding and full-history aggregate
//! paths, for a one-shot skewed join and for standing aggregate views,
//! counted rather than timed: heap allocations do not vary from run to run
//! or host to host, so a change that brings back a tuple per join result,
//! an aggregator per window, a tuple per windowed arrival, per input row,
//! per view delta and window
//! or per checkpointed row, or a scatter-buffer column regrown for every
//! batch fails here on its first run. This is its own test binary because the counting allocator is
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

/// This query makes about 0.079 heap allocations per join result: each join
/// task folds its results into partial aggregates and ships one row per
/// (window, group) and window-start range, one aggregator for all ranges,
/// whose groups sit in one flat table, and each aggregate shard merges the
/// partials into one such table for all its windows. A batch is one buffer
/// of rows laid back to back. A batch of typed columns, one buffer per
/// column, cost 0.092, a fresh aggregator per window in the shards 0.130, a
/// hash map of owned keys and accumulator vectors per group 0.152, a fresh
/// aggregator per range about 0.30, emitting every result into a scatter
/// buffer 0.39, and building each result as a tuple first 2.33. The budget
/// sits at the row batches, so losing any of the six fails here.
const BUDGET_PER_RESULT: f64 = 0.079;

#[test]
fn windowed_aggregation_stays_within_its_allocation_budget() {
    // Each row is (window start, window end, g, COUNT(*), SUM(v)).
    let sql = "SELECT A.g, COUNT(*), SUM(A.v) FROM A, B WHERE A.k = B.k \
               WINDOW TUMBLING 1024 ON ts GROUP BY A.g";
    check_aggregate_budget(sql, 3, BUDGET_PER_RESULT);
}

/// The same query over the full history makes about 0.0473 heap allocations
/// per join result: each join task folds its results into one partial per
/// group, in a flat group table, and ships them at end-of-stream in batches
/// of rows laid back to back, and each shard drains its finished rows from
/// its table in one sorted pass. Batches of typed columns cost 0.0505, a
/// snapshot of tuples rebuilt per row 0.0510, a hash map of owned keys per
/// group 0.055 and emitting every result to the aggregate shards 0.17, so
/// the budget sits just above the row batches.
const BUDGET_PER_FULL_HISTORY_RESULT: f64 = 0.048;

#[test]
fn full_history_aggregation_stays_within_its_allocation_budget() {
    // Each row is (g, COUNT(*), SUM(v)).
    let sql = "SELECT A.g, COUNT(*), SUM(A.v) FROM A, B WHERE A.k = B.k GROUP BY A.g";
    check_aggregate_budget(sql, 1, BUDGET_PER_FULL_HISTORY_RESULT);
}

/// The same query under `SLIDING 64` makes about 3.06 heap allocations per
/// output row. A join result lies in up to 65 windows, so each join task
/// ships one partial per (window-start range, group), and the shards merge
/// it under the key of every window in the range, all windows in one group
/// table whose closed windows' slots later windows retake. Batches of typed
/// columns cost 3.08 per output row, and a fresh aggregator per open
/// window, with each closed window's rows built twice, 8.82.
const BUDGET_PER_SLIDING_ROW: f64 = 3.06;

#[test]
fn sliding_aggregation_stays_within_its_allocation_budget() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let session = stream_session();
    // Each row is (window start, window end, g, COUNT(*), SUM(v)).
    let sql = "SELECT A.g, COUNT(*), SUM(A.v) FROM A, B WHERE A.k = B.k \
               WINDOW SLIDING 64 ON ts GROUP BY A.g";

    let (rows, allocations) = count_allocations(|| session.sql(sql).unwrap().rows().to_vec());

    assert!(rows.len() > 100_000, "the query made only {} rows", rows.len());
    let per_row = allocations as f64 / rows.len() as f64;
    eprintln!("{allocations} allocations for {} output rows: {per_row:.3} per row", rows.len());
    assert!(
        per_row <= BUDGET_PER_SLIDING_ROW,
        "{per_row:.3} allocations per output row, over the budget of {BUDGET_PER_SLIDING_ROW}"
    );
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

/// This query makes about 0.114 heap allocations per input row: each
/// source reads its table in place and emits its rows borrowed, routes
/// spread in place and the traditional join probes with pooled buffers.
/// Most of what is left is paid per batch, one buffer of rows laid back to
/// back: a buffer per typed column cost 0.135, and 64-row batches 0.17. A
/// serial pass that built a tuple per kept row, with routing and probing
/// that allocated per row, cost 5.06.
const BUDGET_PER_INPUT_ROW: f64 = 0.115;

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

/// Event-time window of the standing-view cases, and the rows each stream
/// starts with and gains per round.
const VIEW_WIDTH: i64 = 64;
const VIEW_INITIAL: usize = 2_000;
const VIEW_ROUND: usize = 500;
const VIEW_ROUNDS: usize = 20;

/// Streams `A(k, g, ts)` and `B(k, ts)`, continued batch by batch: event
/// time advances by one per row on average, and keys live in one window
/// width each, so every row meets about eight partners.
struct ViewStreams {
    rng: SplitMix64,
    ts: [i64; 2],
}

impl ViewStreams {
    fn next(&mut self, rows: usize) -> (Vec<Tuple>, Vec<Tuple>) {
        let mut side = |s: usize, rng: &mut SplitMix64| {
            self.ts[s] += rng.next_range(0, 2);
            let ts = self.ts[s];
            (ts / VIEW_WIDTH * 8 + rng.next_range(0, 7), ts)
        };
        let rng = &mut self.rng;
        let a = (0..rows)
            .map(|_| {
                let (k, ts) = side(0, rng);
                tuple![k, rng.next_range(0, 7), ts]
            })
            .collect();
        let b = (0..rows)
            .map(|_| {
                let (k, ts) = side(1, rng);
                tuple![k, ts]
            })
            .collect();
        (a, b)
    }
}

/// Create a view of `sql` over [`ViewStreams`] on 4 machines and 1 worker
/// thread, then count the heap allocations of [`VIEW_ROUNDS`] rounds that
/// each append [`VIEW_ROUND`] rows per stream and take a snapshot, against
/// `budget` per delta the view sink receives. Under appends alone the sink
/// receives the same deltas whatever it does with them.
fn check_view_budget(sql: &str, budget: f64) {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let mut session = Session::builder().machines(4).worker_threads(1).build();
    let mut streams = ViewStreams { rng: SplitMix64::new(11), ts: [0, 0] };
    let (a, b) = streams.next(VIEW_INITIAL);
    let schema_a = Schema::of(&[("k", DataType::Int), ("g", DataType::Int), ("ts", DataType::Int)]);
    let schema_b = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
    session.register_stream("A", schema_a, a, "ts").unwrap();
    session.register_stream("B", schema_b, b, "ts").unwrap();
    let view = session.create_view("v", &squall::sql::parse(sql).unwrap()).unwrap();
    view.snapshot().unwrap();
    let rounds: Vec<_> = (0..VIEW_ROUNDS).map(|_| streams.next(VIEW_ROUND)).collect();
    let before = view.maintenance().deltas_in;

    let ((), allocations) = count_allocations(|| {
        for (a, b) in rounds {
            session.append("A", a).unwrap();
            session.append("B", b).unwrap();
            view.snapshot().unwrap();
        }
    });

    let deltas = view.maintenance().deltas_in - before;
    assert!(deltas > 40_000, "the rounds sent the sink only {deltas} deltas");
    let per_delta = allocations as f64 / deltas as f64;
    eprintln!("{allocations} allocations for {deltas} sink deltas: {per_delta:.3} per delta");
    drop(view);
    session.drop_view("v").unwrap();
    assert!(
        per_delta <= budget,
        "{per_delta:.3} allocations per sink delta, over the budget of {budget}"
    );
}

/// A full-history `GROUP BY` view makes about 0.091 heap allocations per
/// delta its sink receives, counting the appends, the delta join and the
/// snapshots around it: each round is queued whole and its spout reads the
/// rows in place, each batch is one buffer of rows, the sink queues each
/// delta flat, folds it through reused key buffers and diffs each touched
/// group against the row it last showed, building one tuple per changed
/// group. Batches of typed columns, one buffer per column, cost 0.169,
/// building a tuple per queued delta and a group's row before and after
/// each epoch 2.52, and a tagged tuple per appended row 3.91, so the budget
/// sits at the row batches.
const BUDGET_PER_VIEW_DELTA: f64 = 0.091;

#[test]
fn aggregate_view_sink_stays_within_its_allocation_budget() {
    let sql = "SELECT A.g, COUNT(*) FROM A, B WHERE A.k = B.k GROUP BY A.g";
    check_view_budget(sql, BUDGET_PER_VIEW_DELTA);
}

/// Under `SLIDING 64` a delta lies in up to 65 windows. The sink folds it
/// into each under the window's `(start, end)` key prefix, about 2.24 heap
/// allocations per delta in all, most of them for the rows the groups each
/// new window opens publish: a group of the flat group table allocates
/// nothing once the slabs have grown. Batches of typed columns made it
/// 2.30, an owned key and accumulator vector per group 4.29, a tuple per
/// queued delta and a group's row before and after each epoch 15.85, a
/// tagged tuple per appended row 16.73, and building a `(start, end, row…)`
/// tuple and a key per window 147.5.
const BUDGET_PER_SLIDING_VIEW_DELTA: f64 = 2.24;

#[test]
fn sliding_aggregate_view_sink_stays_within_its_allocation_budget() {
    let sql = "SELECT A.g, COUNT(*) FROM A, B WHERE A.k = B.k \
               WINDOW SLIDING 64 ON ts GROUP BY A.g";
    check_view_budget(sql, BUDGET_PER_SLIDING_VIEW_DELTA);
}

/// Group-by domain, initial rows per relation and rows per round of the
/// `view3`-shaped case; join keys are drawn from as many values as a
/// relation starts with, so each row meets about one partner per hop.
const VIEW3_GROUPS: i64 = 1024;
const VIEW3_INITIAL: usize = 2_000;
const VIEW3_ROUND: usize = 100;
const VIEW3_CYCLES: usize = 8;

/// `R(a, b)`, `S(b, c)` or `T(c, d)` rows: `R.a` over the group domain,
/// every other column over the join-key domain.
fn view3_rows(rng: &mut SplitMix64, rel: usize, rows: usize) -> Vec<Tuple> {
    let dom = VIEW3_INITIAL as i64 - 1;
    let first = |rng: &mut SplitMix64| match rel {
        0 => rng.next_range(0, VIEW3_GROUPS - 1),
        _ => rng.next_range(0, dom),
    };
    (0..rows).map(|_| tuple![first(rng), rng.next_range(0, dom)]).collect()
}

/// A full-history `GROUP BY` view over a 3-way chain makes about 2.20 heap
/// allocations per row it is sent, appended or retracted, counting the
/// rounds, the delta join, the view sink, the checkpoints every 16 epochs
/// and the snapshots after each round; most of them are paid per batch and
/// per epoch, not per row. Each batch is one buffer of rows, the sink
/// queues each delta flat and diffs each touched group against the row it
/// last showed, and the join tasks log their rows flat for the checkpoint
/// store, which folds them into views; the sink's groups sit in a flat
/// group table. Batches of typed columns, one buffer per column, cost
/// 2.68, owned keys and accumulator vectors per group 2.78, and building a
/// tuple per queued delta, per logged row, per filed row and per group row
/// before and after each epoch 24.11, so the budget sits just above the
/// row batches. Unlike the other cases' counts, this one moves by a few
/// dozen allocations from run to run (21 127–21 155 in 16 runs).
const BUDGET_PER_VIEW3_ROW: f64 = 2.22;

#[test]
fn view3_shaped_view_stays_within_its_allocation_budget() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let mut session = Session::builder().machines(4).worker_threads(1).build();
    let mut rng = SplitMix64::new(7);
    let tables = [("R", ["a", "b"]), ("S", ["b", "c"]), ("T", ["c", "d"])];
    for (rel, (name, cols)) in tables.iter().enumerate() {
        let schema = Schema::of(&[(cols[0], DataType::Int), (cols[1], DataType::Int)]);
        session.register(*name, schema, view3_rows(&mut rng, rel, VIEW3_INITIAL)).unwrap();
    }
    let sql = "SELECT R.a, COUNT(*) FROM R, S, T WHERE R.b = S.b AND S.c = T.c GROUP BY R.a";
    let view = session.create_view("v", &squall::sql::parse(sql).unwrap()).unwrap();
    view.snapshot().unwrap();
    // Cycles of three appended rounds, then the retraction of the oldest
    // round still standing.
    let appended: Vec<[Vec<Tuple>; 3]> = (0..3 * VIEW3_CYCLES)
        .map(|_| [0, 1, 2].map(|rel| view3_rows(&mut rng, rel, VIEW3_ROUND)))
        .collect();
    let mut rounds = Vec::new();
    for (i, round) in appended.iter().enumerate() {
        rounds.push((1, round.clone()));
        if i % 3 == 2 {
            rounds.push((-1, appended[i / 3].clone()));
        }
    }
    let applied: usize = rounds.iter().flat_map(|(_, round)| round).map(Vec::len).sum();

    let ((), allocations) = count_allocations(|| {
        for (sign, round) in rounds {
            for ((name, _), rows) in tables.iter().zip(round) {
                match sign {
                    1 => session.append(name, rows).unwrap(),
                    _ => session.retract(name, rows).unwrap(),
                };
            }
            view.snapshot().unwrap();
        }
    });

    let per_row = allocations as f64 / applied as f64;
    eprintln!("{allocations} allocations for {applied} applied rows: {per_row:.3} per row");
    drop(view);
    session.drop_view("v").unwrap();
    assert!(
        per_row <= BUDGET_PER_VIEW3_ROW,
        "{per_row:.3} allocations per applied row, over the budget of {BUDGET_PER_VIEW3_ROW}"
    );
}
