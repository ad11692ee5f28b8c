//! The workload matrix and the seeded input generators. Every input is a
//! pure function of `--seed`; Squall only ever receives the generated rows.

use squall::common::{tuple, DataType, Schema, SplitMix64, Tuple, Zipf};
use squall::expr::{JoinAtom, MultiJoinSpec, RelationDef};

/// One benchmark workload and the reason it is in the matrix.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "hypercube3.uniform",
        why: "3-way hypercube join on uniform keys, in-process: the local join does most of the work, wire, aggregates and optimizer almost none",
    },
    Workload {
        name: "hypercube3.tcp",
        why: "same query, seed and inputs split over a loopback socket: the only extra work is the chunk codec and the transport pumps",
    },
    Workload {
        name: "hypercube4.zipf",
        why: "skewed 4-way join written in the worst FROM order: join ordering, scheme choice and skew handling set the outcome, not operator speed",
    },
    Workload {
        name: "window64.tumbling",
        why: "two-stream tumbling-window aggregation: state stays small, the event-time window join (insert, evict, 4 results per tuple) leads, with window aggregation, merge sink and watermarks behind it",
    },
    Workload {
        name: "view3.append",
        why: "resident 3-way view under appends and retractions with a snapshot per epoch: signed delta joins, reads between writes, checkpoint cost, latency not just throughput",
    },
];

/// Frozen workload constants. `FULL` is what `BENCHMARK.json` measures;
/// `SMOKE` keeps every code path but finishes in well under a second, for
/// the contract test.
pub struct Sizes {
    /// Rows per relation and key domain of R(x,y) ⋈ S(y,z) ⋈ T(z,t).
    pub h3_rows: usize,
    pub h3_dom: i64,
    /// Rows per big relation of the skewed 4-way join.
    pub z4_big: usize,
    /// Rows per stream of the windowed aggregation.
    pub win_rows: usize,
    /// Initial rows per relation and key domain of the resident view.
    pub view_init: usize,
    pub view_dom: i64,
    /// Rows appended to (or retracted from) each of R, S, T per epoch.
    pub view_epoch_rows: usize,
    /// Open-loop epoch period: about twice the closed-loop epoch time on the
    /// reference host, so phase A runs at about half capacity.
    pub view_period_us: u64,
}

pub const FULL: Sizes = Sizes {
    h3_rows: 60_000,
    h3_dom: 1_000_000,
    z4_big: 40_000,
    win_rows: 30_000,
    view_init: 10_000,
    view_dom: 10_000,
    view_epoch_rows: 100,
    view_period_us: 32_000,
};

pub const SMOKE: Sizes = Sizes {
    h3_rows: 4_000,
    h3_dom: 20_000,
    z4_big: 1_500,
    win_rows: 6_000,
    view_init: 1_500,
    view_dom: 1_500,
    view_epoch_rows: 20,
    view_period_us: 2_000,
};

/// Join machines of the three hypercube workloads.
pub const HYPERCUBE_MACHINES: usize = 16;

pub fn rst_spec(n: u64) -> MultiJoinSpec {
    MultiJoinSpec::new(
        vec![
            RelationDef::new("R", Schema::of(&[("x", DataType::Int), ("y", DataType::Int)]), n),
            RelationDef::new("S", Schema::of(&[("y", DataType::Int), ("z", DataType::Int)]), n),
            RelationDef::new("T", Schema::of(&[("z", DataType::Int), ("t", DataType::Int)]), n),
        ],
        vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)],
    )
    .expect("static spec")
}

/// The oracle's view of [`rst_spec`]'s atoms.
pub const RST_ATOMS: [crate::oracle::Atom; 2] = [(0, 1, 1, 0), (1, 1, 2, 0)];

/// Three relations of `n` uniform `(key, key)` rows over `[0, dom]`.
pub fn rst_data(n: usize, dom: i64, seed: u64) -> Vec<Vec<Tuple>> {
    let mut rng = SplitMix64::new(seed);
    (0..3).map(|_| pair_rows(&mut rng, n, dom)).collect()
}

fn pair_rows(rng: &mut SplitMix64, n: usize, dom: i64) -> Vec<Tuple> {
    (0..n).map(|_| tuple![rng.next_range(0, dom), rng.next_range(0, dom)]).collect()
}

/// Inputs of `hypercube4.zipf`: `big1(j, s, u, f)`, `big2(j, t, w, f)` share
/// a zipf(1.0) key `j`; `guard1(a, b)` ties `big1.s` to `big2.t` and
/// `guard2(a, b)` ties `big1.u` to `big2.w` over a sparse domain, so a guard
/// joined first kills almost every big row before the skewed edge expands.
/// `f` is uniform in `[0, 1000)` for the pushed-down range predicates.
pub struct Zipf4 {
    pub big1: Vec<Tuple>,
    pub big2: Vec<Tuple>,
    pub guard1: Vec<Tuple>,
    pub guard2: Vec<Tuple>,
}

pub const Z4_FILTER_BELOW: i64 = 900;
pub const Z4_SQL: &str = "SELECT COUNT(*) FROM big1, big2, guard1, guard2 \
     WHERE big1.j = big2.j AND big1.s = guard1.a AND big2.t = guard1.b \
     AND big1.u = guard2.a AND big2.w = guard2.b AND big1.f < 900 AND big2.f < 900";
/// The oracle's atoms over `[big1, big2, guard1, guard2]`.
pub const Z4_ATOMS: [crate::oracle::Atom; 5] =
    [(0, 0, 1, 0), (0, 1, 2, 0), (1, 1, 2, 1), (0, 2, 3, 0), (1, 2, 3, 1)];

pub fn zipf4_data(n_big: usize, seed: u64) -> Zipf4 {
    const DOM_J: usize = 512;
    const DOM_S: i64 = 100_000;
    const N_GUARD: usize = 512;
    // Hand-planted full matches so COUNT(*) is never trivially zero.
    const PLANTED: usize = 64;
    let mut rng = SplitMix64::new(seed);
    let zipf = Zipf::new(DOM_J, 1.0);
    let big = |rng: &mut SplitMix64| -> Vec<Tuple> {
        (0..n_big)
            .map(|_| {
                tuple![
                    zipf.sample(rng) as i64,
                    rng.next_range(0, DOM_S),
                    rng.next_range(0, DOM_S),
                    rng.next_range(0, 999)
                ]
            })
            .collect()
    };
    let (mut big1, mut big2) = (big(&mut rng), big(&mut rng));
    let (mut guard1, mut guard2) =
        (pair_rows(&mut rng, N_GUARD, DOM_S), pair_rows(&mut rng, N_GUARD, DOM_S));
    for _ in 0..PLANTED {
        let j = zipf.sample(&mut rng) as i64;
        let (s, u) = (rng.next_range(0, DOM_S), rng.next_range(0, DOM_S));
        let (t, w) = (rng.next_range(0, DOM_S), rng.next_range(0, DOM_S));
        big1.push(tuple![j, s, u, rng.next_range(0, 999)]);
        big2.push(tuple![j, t, w, rng.next_range(0, 999)]);
        guard1.push(tuple![s, t]);
        guard2.push(tuple![u, w]);
    }
    Zipf4 { big1, big2, guard1, guard2 }
}

pub fn zipf4_schemas() -> [(&'static str, Schema); 4] {
    let int = |names: &[&'static str]| {
        Schema::of(&names.iter().map(|&n| (n, DataType::Int)).collect::<Vec<_>>())
    };
    [
        ("big1", int(&["j", "s", "u", "f"])),
        ("big2", int(&["j", "t", "w", "f"])),
        ("guard1", int(&["a", "b"])),
        ("guard2", int(&["a", "b"])),
    ]
}

pub const WINDOW_WIDTH: i64 = 1024;
pub const WINDOW_GROUPS: i64 = 64;
/// 1024 rows of each stream share a window, so 128 keys give every row
/// eight partners: four join results per input tuple.
const WINDOW_KEYS: i64 = 128;
pub const WINDOW_SQL: &str = "SELECT A.g, COUNT(*), SUM(A.v) FROM A, B WHERE A.k = B.k \
     WINDOW TUMBLING 1024 ON ts GROUP BY A.g";

/// Streams `A(k, g, v, ts)` and `B(k, ts)`, `n` rows each, event time
/// advancing by one per row on average.
pub fn window_streams(n: usize, seed: u64) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut rng = SplitMix64::new(seed);
    let mut ts = 0i64;
    let a = (0..n)
        .map(|_| {
            ts += rng.next_range(0, 2);
            let k = window_key(&mut rng, ts);
            tuple![k, rng.next_range(0, WINDOW_GROUPS - 1), rng.next_range(1, 100), ts]
        })
        .collect();
    ts = 0;
    let b = (0..n)
        .map(|_| {
            ts += rng.next_range(0, 2);
            tuple![window_key(&mut rng, ts), ts]
        })
        .collect();
    (a, b)
}

/// A join key that is only ever used inside one window, like a session id:
/// the sources are not aligned with each other, so the join holds rows of
/// several windows at once, and with keys shared across windows every probe
/// would also walk the other windows' rows — a cost set by how far one
/// source happens to run ahead, which differs from run to run.
fn window_key(rng: &mut SplitMix64, ts: i64) -> i64 {
    ts / WINDOW_WIDTH * WINDOW_KEYS + rng.next_range(0, WINDOW_KEYS - 1)
}

pub fn window_schemas() -> (Schema, Schema) {
    (
        Schema::of(&[
            ("k", DataType::Int),
            ("g", DataType::Int),
            ("v", DataType::Int),
            ("ts", DataType::Int),
        ]),
        Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]),
    )
}

pub const VIEW_SELECT: &str =
    "SELECT R.a, COUNT(*) FROM R, S, T WHERE R.b = S.b AND S.c = T.c GROUP BY R.a";
pub const VIEW_TABLES: [(&str, [&str; 2]); 3] =
    [("R", ["a", "b"]), ("S", ["b", "c"]), ("T", ["c", "d"])];
/// The resident view's initial contents and an endless, seeded stream of
/// per-epoch row batches for `R(a,b)`, `S(b,c)`, `T(c,d)`.
pub struct ViewFeed {
    rng: SplitMix64,
    rows: usize,
    dom: i64,
}

impl ViewFeed {
    pub fn new(sizes: &Sizes, seed: u64) -> (Vec<Vec<Tuple>>, ViewFeed) {
        let mut rng = SplitMix64::new(seed);
        let init = (0..3).map(|_| pair_rows(&mut rng, sizes.view_init, sizes.view_dom)).collect();
        (init, ViewFeed { rng, rows: sizes.view_epoch_rows, dom: sizes.view_dom })
    }

    /// The next append epoch's rows, one batch per relation.
    pub fn next_batch(&mut self) -> [Vec<Tuple>; 3] {
        [0; 3].map(|_| pair_rows(&mut self.rng, self.rows, self.dom))
    }
}
