//! Property-based tests over the core invariants:
//!
//! * every hypercube scheme routes each joinable tuple combination to
//!   exactly one common machine;
//! * the distributed multi-way join (any scheme × any local algorithm)
//!   equals the nested-loop oracle on arbitrary data;
//! * the range-grid schemes cover exactly the matching pairs;
//! * DBToaster's aggregated views preserve result cardinalities.

use proptest::prelude::*;
use squall::common::{tuple, DataType, Schema, SplitMix64, SquallError, Tuple, Value};
use squall::engine::cluster::{serve_job, ClusterSpec};
use squall::engine::driver::{run_multiway, LocalJoinKind, MultiwayConfig};
use squall::expr::{JoinAtom, MultiJoinSpec, RelationDef};
use squall::join::naive::{naive_join, same_multiset};
use squall::join::{DBToasterJoin, LocalJoin, TraditionalJoin};
use squall::partition::optimizer::{build_scheme, SchemeKind};
use squall_bench::{equi_depth_bounds, RangeCond, RangeGrid};

fn rel(name: &str, skewed: bool, size: u64) -> RelationDef {
    let mut schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
    if skewed {
        schema.set_skewed("b").unwrap();
    }
    RelationDef::new(name, schema, size)
}

/// Arbitrary chain spec R0 ⋈ R1 [⋈ R2] on b=a with random skew flags.
fn chain_spec(n: usize, skew_mask: u8, sizes: &[u64]) -> MultiJoinSpec {
    let rels: Vec<RelationDef> =
        (0..n).map(|i| rel(&format!("R{i}"), skew_mask & (1 << i) != 0, sizes[i])).collect();
    let atoms = (0..n - 1).map(|i| JoinAtom::eq(i, 1, i + 1, 0)).collect();
    MultiJoinSpec::new(rels, atoms).unwrap()
}

fn rand_data(n_rels: usize, rows: usize, dom: i64, seed: u64) -> Vec<Vec<Tuple>> {
    let mut rng = SplitMix64::new(seed);
    (0..n_rels)
        .map(|_| {
            (0..rows)
                .map(|_| {
                    Tuple::new(vec![
                        Value::Int(rng.next_range(0, dom)),
                        Value::Int(rng.next_range(0, dom)),
                    ])
                })
                .collect()
        })
        .collect()
}

/// In-process workers over real loopback TCP: the transport serializes
/// every batch through genuine sockets either way; the e2e suite covers
/// the separate-OS-process variant with spawned `squall-worker` children.
fn loopback_workers(n: usize) -> (ClusterSpec, Vec<std::thread::JoinHandle<()>>) {
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..n {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(listener.local_addr().unwrap().to_string());
        handles.push(std::thread::spawn(move || serve_job(&listener).unwrap()));
    }
    (ClusterSpec::new(addrs), handles)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The transport contract on the 3-way hypercube scenario: a run split
    /// across TCP peers produces row-identical results and identical
    /// per-machine loads to the single-process run, for arbitrary data,
    /// machine counts, schemes and peer counts.
    #[test]
    fn tcp_transport_matches_local_on_hypercube(
        seed in 0u64..500,
        machines in 2usize..10,
        dom in 3i64..12,
        skew_mask in 0u8..8,
        n_workers in 1usize..3,
        scheme_pick in 0u8..3,
        batch in 0u8..2,
    ) {
        let spec = chain_spec(3, skew_mask, &[60, 60, 60]);
        let data = rand_data(3, 60, dom, seed);
        let kind = [SchemeKind::Hash, SchemeKind::Random, SchemeKind::Hybrid][scheme_pick as usize];
        let mut cfg = MultiwayConfig::new(kind, LocalJoinKind::DBToaster, machines);
        cfg.seed = seed;
        cfg.batch_size = [7, 64][batch as usize];
        let local = run_multiway(&spec, data.clone(), &cfg).unwrap();
        prop_assert!(local.error.is_none());

        let (cluster, handles) = loopback_workers(n_workers);
        cfg.cluster = Some(cluster);
        let dist = run_multiway(&spec, data, &cfg).unwrap();
        for h in handles { h.join().unwrap(); }
        prop_assert!(dist.error.is_none(), "{:?}", dist.error);
        prop_assert!(same_multiset(&dist.results, &local.results),
            "{} distributed vs {} local rows", dist.results.len(), local.results.len());
        prop_assert_eq!(&dist.loads, &local.loads, "per-machine loads differ across the wire");
        prop_assert_eq!(dist.result_count, local.result_count);
        prop_assert!(dist.transport.is_some());
    }

    /// Same contract for the windowed-join scenario (event-time windows
    /// need per-relation FIFO order, which the wire must preserve), and
    /// for the MemoryOverflow abort-drain path (the typed error crosses
    /// the wire; every process drains instead of hanging).
    #[test]
    fn tcp_transport_matches_local_on_windows_and_abort(
        seed in 0u64..500,
        machines in 2usize..8,
        width in 5u64..60,
    ) {
        use squall::engine::driver::WindowPlan;
        use squall::join::WindowSpec;

        let spec = chain_spec(2, 0, &[80, 80]);
        // Column 1 doubles as the event-time column (non-negative by
        // construction in rand_data's 0..dom range — widen the domain so
        // windows actually evict).
        let data = rand_data(2, 80, 200, seed);
        let mut sorted = data.clone();
        for (d, ts_col) in sorted.iter_mut().zip([1usize, 1]) {
            squall::runtime::sort_by_event_time(d, ts_col).unwrap();
        }
        let mut cfg = MultiwayConfig::new(SchemeKind::Hybrid, LocalJoinKind::DBToaster, machines);
        cfg.seed = seed;
        cfg.window = Some(WindowPlan { spec: WindowSpec::Sliding { size: width }, ts_cols: vec![1, 1] });
        let local = run_multiway(&spec, sorted.clone(), &cfg).unwrap();
        prop_assert!(local.error.is_none());

        let (cluster, handles) = loopback_workers(1);
        cfg.cluster = Some(cluster);
        let dist = run_multiway(&spec, sorted, &cfg).unwrap();
        for h in handles { h.join().unwrap(); }
        prop_assert!(same_multiset(&dist.results, &local.results),
            "windowed: {} distributed vs {} local", dist.results.len(), local.results.len());
        prop_assert_eq!(&dist.loads, &local.loads);

        // Abort-drain: a budget small enough to overflow some machine.
        let spec = chain_spec(3, 0, &[120, 120, 120]);
        let data = rand_data(3, 120, 3, seed);
        let mut cfg = MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 2)
            .count_only()
            .with_budget(20);
        cfg.seed = seed;
        let local = run_multiway(&spec, data.clone(), &cfg).unwrap();
        prop_assert!(matches!(local.error, Some(SquallError::MemoryOverflow { .. })));
        let (cluster, handles) = loopback_workers(1);
        cfg.cluster = Some(cluster);
        let dist = run_multiway(&spec, data, &cfg).unwrap();
        for h in handles { h.join().unwrap(); }
        prop_assert!(
            matches!(dist.error, Some(SquallError::MemoryOverflow { budget: 20, .. })),
            "typed overflow must cross the wire, got {:?}", dist.error
        );
    }

    #[test]
    fn scheme_routing_meets_exactly_once(
        machines in 1usize..24,
        seed in 0u64..1000,
        skew_mask in 0u8..8,
    ) {
        let spec = chain_spec(3, skew_mask, &[100, 100, 100]);
        for kind in [SchemeKind::Hash, SchemeKind::Random, SchemeKind::Hybrid] {
            let scheme = build_scheme(kind, &spec, machines, seed).unwrap();
            let mut rng = SplitMix64::new(seed);
            // Joinable chain: R0.b = R1.a, R1.b = R2.a.
            for k in 0..12i64 {
                let t0 = Tuple::new(vec![Value::Int(k), Value::Int(k + 1)]);
                let t1 = Tuple::new(vec![Value::Int(k + 1), Value::Int(k + 2)]);
                let t2 = Tuple::new(vec![Value::Int(k + 2), Value::Int(k + 3)]);
                let (mut m0, mut m1, mut m2) = (vec![], vec![], vec![]);
                scheme.route(0, &t0, &mut rng, &mut m0);
                scheme.route(1, &t1, &mut rng, &mut m1);
                scheme.route(2, &t2, &mut rng, &mut m2);
                let common = m0.iter().filter(|m| m1.contains(m) && m2.contains(m)).count();
                prop_assert_eq!(common, 1, "scheme {} k {}", scheme.describe(), k);
            }
        }
    }

    #[test]
    fn distributed_join_equals_oracle(
        seed in 0u64..500,
        machines in 1usize..10,
        dom in 3i64..12,
        skew_mask in 0u8..8,
    ) {
        let spec = chain_spec(3, skew_mask, &[40, 40, 40]);
        let data = rand_data(3, 40, dom, seed);
        let oracle = naive_join(&spec, &data);
        for kind in [SchemeKind::Hash, SchemeKind::Random, SchemeKind::Hybrid] {
            let cfg = MultiwayConfig::new(kind, LocalJoinKind::DBToaster, machines);
            let rep = run_multiway(&spec, data.clone(), &cfg).unwrap();
            prop_assert!(rep.error.is_none());
            prop_assert!(
                same_multiset(&rep.results, &oracle),
                "{kind}: {} vs {}", rep.results.len(), oracle.len()
            );
        }
    }

    #[test]
    fn local_joins_agree_under_any_arrival_order(
        seed in 0u64..500,
        dom in 2i64..10,
    ) {
        let spec = chain_spec(2, 0, &[60, 60]);
        let data = rand_data(2, 60, dom, seed);
        let mut arrivals: Vec<(usize, Tuple)> = data
            .iter()
            .enumerate()
            .flat_map(|(r, ts)| ts.iter().map(move |t| (r, t.clone())))
            .collect();
        SplitMix64::new(seed ^ 0xabc).shuffle(&mut arrivals);
        let mut tj = TraditionalJoin::new(&spec);
        let mut dj = DBToasterJoin::new(&spec);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for (r, t) in &arrivals {
            tj.insert(*r, t, &mut a);
            dj.insert(*r, t, &mut b);
        }
        prop_assert!(same_multiset(&a, &b));
        prop_assert!(same_multiset(&a, &naive_join(&spec, &data)));
    }

    #[test]
    fn range_grid_owns_exactly_matching_pairs(
        seed in 0u64..500,
        width in 0i64..6,
        machines in 1usize..10,
        granularity in 2usize..24,
    ) {
        let mut rng = SplitMix64::new(seed);
        let r_keys: Vec<i64> = (0..80).map(|_| rng.next_range(0, 60)).collect();
        let s_keys: Vec<i64> = (0..80).map(|_| rng.next_range(0, 60)).collect();
        let cond = RangeCond::Band(width);
        let grid = RangeGrid::build(
            equi_depth_bounds(&r_keys, granularity),
            equi_depth_bounds(&s_keys, granularity),
            cond,
            machines,
            &|_, _| 1.0,
        ).unwrap();
        for &r in r_keys.iter().take(25) {
            for &s in s_keys.iter().take(25) {
                if cond.matches(r, s) {
                    let owner = grid.owner_of(r, s);
                    prop_assert!(owner.is_some());
                    let m = owner.unwrap();
                    prop_assert!(grid.route_r(r).contains(&m));
                    prop_assert!(grid.route_s(s).contains(&m));
                    // Unique ownership.
                    let owners = (0..machines).filter(|&x| grid.owns(x, r, s)).count();
                    prop_assert_eq!(owners, 1);
                }
            }
        }
    }

    #[test]
    fn aggregated_views_preserve_cardinality(
        seed in 0u64..500,
        dom in 2i64..10,
    ) {
        use squall::join::dbtoaster::AggregatedDBToaster;
        let spec = chain_spec(3, 0, &[30, 30, 30]);
        let data = rand_data(3, 30, dom, seed);
        let oracle = naive_join(&spec, &data);
        let mut agg = AggregatedDBToaster::minimal(&spec);
        let mut total: i64 = 0;
        let mut out = Vec::new();
        for (r, ts) in data.iter().enumerate() {
            for t in ts {
                out.clear();
                agg.insert_weighted(r, t, &mut out);
                total += out.iter().map(|(_, m)| *m).sum::<i64>();
            }
        }
        prop_assert_eq!(total as usize, oracle.len());
    }

    #[test]
    fn window_queries_match_in_window_oracle(
        seed in 0u64..200,
        machines in 1usize..6,
        size in 1i64..40,
        width in 1i64..40,
        dom in 2i64..8,
    ) {
        // Seeded random event streams (key, ts) with ascending timestamps.
        let mut rng = SplitMix64::new(seed);
        let mut gen = |n: usize| -> Vec<Tuple> {
            let mut ts = 0i64;
            (0..n)
                .map(|_| {
                    ts += rng.next_range(0, 6);
                    tuple![rng.next_range(0, dom), ts]
                })
                .collect()
        };
        let (a, b) = (gen(40), gen(40));
        let schema = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
        let mut session = squall::Session::builder().machines(machines).seed(seed).build();
        session
            .register_stream("A", schema.clone(), a.clone(), "ts").unwrap()
            .register_stream("B", schema, b.clone(), "ts").unwrap();

        let pairs = || a.iter().flat_map(|x| b.iter().map(move |y| (x, y)));
        let keyed = |x: &Tuple, y: &Tuple| x.get(0) == y.get(0);
        let ts_of = |t: &Tuple| t.get(1).as_int().unwrap();

        // Sliding: SQL and builder paths both equal the |Δts| ≤ size oracle.
        let mut oracle: Vec<Tuple> = pairs()
            .filter(|(x, y)| keyed(x, y) && (ts_of(x) - ts_of(y)).abs() <= size)
            .map(|(x, y)| tuple![x.get(0).as_int().unwrap(), ts_of(x), ts_of(y)])
            .collect();
        oracle.sort();
        let mut sql = session
            .sql(&format!(
                "SELECT A.k, A.ts, B.ts FROM A, B WHERE A.k = B.k WINDOW SLIDING {size} ON ts"
            ))
            .unwrap();
        let mut built = session
            .from("A")
            .join("B")
            .on(squall::col("A.k").eq(squall::col("B.k")))
            .window(squall::Window::sliding(size as u64).on("ts"))
            .select([squall::col("A.k"), squall::col("A.ts"), squall::col("B.ts")])
            .run()
            .unwrap();
        prop_assert_eq!(sql.rows(), &oracle[..], "sliding SQL vs oracle");
        prop_assert_eq!(built.rows(), sql.rows(), "sliding builder vs SQL");

        // Tumbling: same-bucket oracle.
        let mut oracle: Vec<Tuple> = pairs()
            .filter(|(x, y)| keyed(x, y) && ts_of(x) / width == ts_of(y) / width)
            .map(|(x, y)| tuple![x.get(0).as_int().unwrap(), ts_of(x), ts_of(y)])
            .collect();
        oracle.sort();
        let mut sql = session
            .sql(&format!(
                "SELECT A.k, A.ts, B.ts FROM A, B WHERE A.k = B.k WINDOW TUMBLING {width} ON ts"
            ))
            .unwrap();
        let mut built = session
            .from("A")
            .join("B")
            .on(squall::col("A.k").eq(squall::col("B.k")))
            .window(squall::Window::tumbling(width as u64))
            .select([squall::col("A.k"), squall::col("A.ts"), squall::col("B.ts")])
            .run()
            .unwrap();
        prop_assert_eq!(sql.rows(), &oracle[..], "tumbling SQL vs oracle");
        prop_assert_eq!(built.rows(), sql.rows(), "tumbling builder vs SQL");
    }

    /// Windowed GROUP BY against a brute-force per-window oracle: every
    /// (window, group) row — tumbling buckets including the exact
    /// `k·width` boundary (timestamps are drawn so multiples of `width`
    /// occur), and sliding windows with their per-time-unit overlap.
    /// SQL and the builder must agree; the group-hash-sharded plane
    /// (parallelism ∈ {1, 2, 8}) must be byte-identical to the 1-task
    /// plane; and a run split across TCP peers must return the identical
    /// per-window rows.
    #[test]
    fn windowed_aggregates_match_per_window_oracle(
        seed in 0u64..200,
        machines in 1usize..6,
        width in 2u64..12,
        size in 1u64..10,
        dom in 2i64..6,
        distribute in 0u8..2,
        par_pick in 0u8..3,
    ) {
        let agg_par = [1usize, 2, 8][par_pick as usize];
        // Timestamps step by 0..width, so exact window boundaries (ts a
        // multiple of width) are common — the k·width case must open
        // window k, never leak into k−1.
        let mut rng = SplitMix64::new(seed);
        let mut gen = |n: usize| -> Vec<Tuple> {
            let mut ts = 0i64;
            (0..n)
                .map(|_| {
                    ts += rng.next_range(0, width as i64 + 1);
                    tuple![rng.next_range(0, dom), ts]
                })
                .collect()
        };
        let (a, b) = (gen(30), gen(30));
        let schema = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int)]);
        let mut session = squall::Session::builder()
            .machines(machines)
            .agg_parallelism(agg_par)
            .seed(seed)
            .build();
        session
            .register_stream("A", schema.clone(), a.clone(), "ts").unwrap()
            .register_stream("B", schema.clone(), b.clone(), "ts").unwrap();

        // In-memory oracle: per-window COUNT per group key.
        let oracle = |win_of: &dyn Fn(u64, u64) -> (u64, u64), end_of: &dyn Fn(u64) -> u64| {
            let mut acc: std::collections::BTreeMap<(u64, i64), i64> = Default::default();
            for x in &a {
                for y in &b {
                    if x.get(0) != y.get(0) { continue; }
                    let (tx, ty) = (x.get(1).as_int().unwrap() as u64, y.get(1).as_int().unwrap() as u64);
                    let (first, last) = win_of(tx.min(ty), tx.max(ty));
                    if first > last { continue; } // pair joins in no window
                    for s in first..=last {
                        *acc.entry((s, x.get(0).as_int().unwrap())).or_insert(0) += 1;
                    }
                }
            }
            acc.into_iter()
                .map(|((s, k), n)| tuple![s as i64, end_of(s) as i64, k, n])
                .collect::<Vec<Tuple>>()
        };

        // Tumbling: one window iff both timestamps share the bucket.
        let w = width;
        let tumbling_oracle = oracle(
            &|lo, hi| if lo / w == hi / w { (hi / w * w, hi / w * w) } else { (1, 0) },
            &|s| s + w - 1,
        );
        let sql = format!(
            "SELECT A.k, COUNT(*) FROM A, B WHERE A.k = B.k WINDOW TUMBLING {w} ON ts GROUP BY A.k"
        );
        let mut via_sql = session.sql(&sql).unwrap();
        prop_assert_eq!(via_sql.rows(), &tumbling_oracle[..], "tumbling vs oracle");
        let mut built = session
            .from("A").join("B")
            .on(squall::col("A.k").eq(squall::col("B.k")))
            .window(squall::Window::tumbling(w))
            .group_by([squall::col("A.k")])
            .select([squall::col("A.k"), squall::count()])
            .run()
            .unwrap();
        prop_assert_eq!(built.rows(), via_sql.rows(), "tumbling builder vs SQL");

        // Sliding: all windows [s, s+size] containing both timestamps.
        let sz = size;
        let sliding_oracle = oracle(&|lo, hi| (hi.saturating_sub(sz), lo), &|s| s + sz);
        let sql = format!(
            "SELECT A.k, COUNT(*) FROM A, B WHERE A.k = B.k WINDOW SLIDING {sz} ON ts GROUP BY A.k"
        );
        let mut via_sql = session.sql(&sql).unwrap();
        prop_assert_eq!(via_sql.rows(), &sliding_oracle[..], "sliding vs oracle");

        // Byte-identity: the sharded plane (merge sink behind group-hash
        // shards) must reproduce the 1-task plane's ordered output
        // exactly, not just as a multiset.
        if agg_par != 1 {
            let mut single = squall::Session::builder()
                .machines(machines)
                .agg_parallelism(1)
                .seed(seed)
                .build();
            single
                .register_stream("A", schema.clone(), a.clone(), "ts").unwrap()
                .register_stream("B", schema, b.clone(), "ts").unwrap();
            let mut rs = single.sql(&sql).unwrap();
            prop_assert_eq!(
                rs.rows(), via_sql.rows(),
                "{} shards vs single task (byte identity)", agg_par
            );
        }

        // Placement independence: the same per-window rows over TCP, with
        // the agg shards spread across peers.
        if distribute == 1 {
            let (cluster, handles) = loopback_workers(1);
            let mut dist = squall::Session::builder()
                .machines(machines)
                .agg_parallelism(agg_par)
                .seed(seed)
                .build();
            std::mem::swap(dist.catalog_mut(), session.catalog_mut());
            dist.config_mut().cluster = Some(cluster);
            let mut rs = dist.sql(&sql).unwrap();
            prop_assert_eq!(rs.rows(), &sliding_oracle[..], "distributed sliding vs oracle");
            for h in handles { h.join().unwrap(); }
        }
    }
}
