//! Property tests for the columnar data plane:
//!
//! * `Chunk` ⇄ row-tuple conversion is lossless — down to the exact
//!   `Value` variant (`Int(3)` never comes back as `Float(3.0)`), for
//!   arbitrary schemas with nulls, empty chunks and Z-set tag columns;
//! * the columnar wire codec round-trips arbitrary chunks, dictionary
//!   encoding included;
//! * chunked execution is observationally identical to row-at-a-time
//!   execution (batch size 1) on the 3-way join + GROUP BY scenario,
//!   locally and over real loopback TCP;
//! * `GroupByAggregator::update_chunk` matches a per-row fold written out.

use std::collections::BTreeMap;

use proptest::prelude::*;
use squall::common::codec::{self, Reader};
use squall::common::{Chunk, SplitMix64, Tuple, Value};
use squall::engine::cluster::{serve_job, ClusterSpec};
use squall::engine::driver::{run_multiway, AggPlan, LocalJoinKind, MultiwayConfig};
use squall::expr::{JoinAtom, MultiJoinSpec, RelationDef, ScalarExpr};
use squall::join::naive::same_multiset;
use squall::join::{AggSpec, GroupByAggregator};
use squall::partition::optimizer::SchemeKind;
use squall::runtime::DEFAULT_BATCH_SIZE;

/// One random value for column policy `policy` — each policy stresses a
/// different array representation (typed, typed + validity, mixed,
/// all-null, dictionary-friendly hot keys).
fn rand_value(policy: u8, rng: &mut SplitMix64) -> Value {
    match policy {
        0 => Value::Int(rng.next_range(-1_000_000, 1_000_000)),
        1 => {
            if rng.next_range(0, 4) == 0 {
                Value::Null
            } else {
                Value::Int(rng.next_range(0, 100))
            }
        }
        2 => {
            if rng.next_range(0, 5) == 0 {
                Value::Null
            } else {
                Value::str(format!("s{}", rng.next_range(0, 50)))
            }
        }
        // Floats, including integral ones (which must stay Float).
        3 => Value::Float(rng.next_range(-50, 50) as f64 / 2.0),
        // Mixed variants in one column.
        4 => match rng.next_range(0, 5) {
            0 => Value::Null,
            1 => Value::Int(rng.next_range(0, 9)),
            2 => Value::Float(rng.next_range(0, 9) as f64),
            3 => Value::str("mix"),
            _ => Value::Date(squall::common::Date(rng.next_range(0, 20_000) as i32)),
        },
        5 => Value::Null,
        6 => Value::Date(squall::common::Date(rng.next_range(-10_000, 30_000) as i32)),
        // Hot integer keys: few distinct values over many rows, the shape
        // the wire dictionary encoding exists for.
        _ => Value::Int(rng.next_range(0, 4)),
    }
}

/// Uniform-arity random tuples with a trailing Z-set tag column (±1).
fn rand_tuples(seed: u64, rows: usize, arity: usize) -> Vec<Tuple> {
    let mut rng = SplitMix64::new(seed);
    let policies: Vec<u8> = (0..arity).map(|_| rng.next_range(0, 8) as u8).collect();
    (0..rows)
        .map(|_| {
            let mut v: Vec<Value> = policies.iter().map(|&p| rand_value(p, &mut rng)).collect();
            v.push(Value::Int(if rng.next_range(0, 2) == 0 { 1 } else { -1 }));
            Tuple::new(v)
        })
        .collect()
}

/// Exact equality: same value *and* same `Value` variant per cell
/// (`Value::eq` alone treats `Int(3)` and `Float(3.0)` as equal).
fn assert_exact(a: &[Tuple], b: &[Tuple]) {
    assert_eq!(a.len(), b.len(), "row count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x, y, "values differ");
        for (vx, vy) in x.values().iter().zip(y.values()) {
            assert_eq!(
                std::mem::discriminant(vx),
                std::mem::discriminant(vy),
                "variant changed: {vx:?} vs {vy:?}"
            );
        }
    }
}

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
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// Chunk ⇄ tuples is lossless for arbitrary schemas (empty chunks and
    /// zero-arity rows included) and preserves per-row hashes.
    #[test]
    fn chunk_tuple_roundtrip_is_exact(
        seed in 0u64..10_000,
        rows in 0usize..50,
        arity in 0usize..6,
    ) {
        let tuples = rand_tuples(seed, rows, arity);
        let chunk = Chunk::from_tuples(&tuples);
        prop_assert_eq!(chunk.n_rows(), rows);
        if rows > 0 {
            prop_assert_eq!(chunk.n_cols(), arity + 1);
        }
        assert_exact(&chunk.to_tuples(), &tuples);
        // Row-view iterator agrees with to_tuples.
        let viewed: Vec<Tuple> = chunk.rows().collect();
        assert_exact(&viewed, &tuples);
    }

    /// The columnar wire codec round-trips arbitrary chunks exactly —
    /// including validity bitmaps, mixed columns and the dictionary path
    /// (hot-key columns over enough rows to trigger it).
    #[test]
    fn chunk_wire_codec_roundtrip(
        seed in 0u64..10_000,
        rows in 0usize..300,
        arity in 0usize..5,
    ) {
        let tuples = rand_tuples(seed, rows, arity);
        let chunk = Chunk::from_tuples(&tuples);
        let mut buf = Vec::new();
        codec::put_chunk(&mut buf, &chunk);
        let mut r = Reader::new(&buf);
        let back = codec::get_chunk(&mut r).unwrap();
        prop_assert_eq!(back.n_rows(), chunk.n_rows());
        prop_assert_eq!(back.n_cols(), chunk.n_cols());
        assert_exact(&back.to_tuples(), &tuples);
    }

    /// `GroupByAggregator::update_chunk` folds like a per-row fold written
    /// out as a `BTreeMap` of (COUNT, SUM) per key: same online output
    /// rows, same final snapshot, in either mode.
    #[test]
    fn group_by_update_chunk_matches_rows(
        seed in 0u64..5_000,
        rows in 1usize..120,
        dom in 1i64..12,
        chunk_rows in 1usize..40,
    ) {
        let mut rng = SplitMix64::new(seed);
        let tuples: Vec<Tuple> = (0..rows)
            .map(|_| Tuple::new(vec![
                Value::Int(rng.next_range(0, dom)),
                Value::Int(rng.next_range(-30, 30)),
            ]))
            .collect();
        let aggs = || vec![
            AggSpec::count(),
            AggSpec::sum(ScalarExpr::col(1)),
            AggSpec::avg(ScalarExpr::col(1)),
        ];
        let row = |k: i64, (count, sum): (i64, i64)| {
            Tuple::new(vec![
                Value::Int(k),
                Value::Int(count),
                Value::Int(sum),
                Value::Float(sum as f64 / count as f64),
            ])
        };
        let mut model: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        let mut row_out = Vec::new();
        for t in &tuples {
            let k = t.get(0).as_int().unwrap();
            let acc = model.entry(k).or_default();
            *acc = (acc.0 + 1, acc.1 + t.get(1).as_int().unwrap());
            row_out.push(row(k, *acc));
        }
        let final_rows: Vec<Tuple> = model.iter().map(|(&k, &acc)| row(k, acc)).collect();
        let mut by_chunk = GroupByAggregator::new(vec![0], aggs());
        let mut chunk_out = Vec::new();
        for batch in tuples.chunks(chunk_rows) {
            let chunk = Chunk::from_tuples(batch);
            let mut emit = |row: Tuple| chunk_out.push(row);
            by_chunk.update_chunk(&chunk, Some(&mut emit)).unwrap();
        }
        prop_assert_eq!(&chunk_out, &row_out, "online rows diverge");
        prop_assert_eq!(&by_chunk.snapshot(), &final_rows);
        // Final-mode path (no row building) reaches the same state too.
        let mut by_final = GroupByAggregator::new(vec![0], aggs());
        by_final.update_chunk(&Chunk::from_tuples(&tuples), None).unwrap();
        prop_assert_eq!(&by_final.snapshot(), &final_rows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Chunked execution (batch 64 / 1024) is observationally identical
    /// to row-at-a-time execution (batch 1) on a 3-way join + GROUP BY:
    /// same result rows, same per-machine loads, same result count —
    /// locally and across real loopback TCP.
    #[test]
    fn chunked_execution_matches_row_execution(
        seed in 0u64..500,
        machines in 2usize..8,
        dom in 3i64..10,
    ) {
        let mk = |n: &str| RelationDef::new(
            n,
            squall::common::Schema::of(&[
                ("a", squall::common::DataType::Int),
                ("b", squall::common::DataType::Int),
            ]),
            60,
        );
        let spec = MultiJoinSpec::new(
            vec![mk("R"), mk("S"), mk("T")],
            vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)],
        ).unwrap();
        let mut rng = SplitMix64::new(seed);
        let data: Vec<Vec<Tuple>> = (0..3)
            .map(|_| (0..60)
                .map(|_| Tuple::new(vec![
                    Value::Int(rng.next_range(0, dom)),
                    Value::Int(rng.next_range(0, dom)),
                ]))
                .collect())
            .collect();
        let base_cfg = || {
            let mut cfg = MultiwayConfig::new(
                SchemeKind::Hybrid, LocalJoinKind::DBToaster, machines);
            cfg.seed = seed;
            cfg.agg = Some(AggPlan {
                group_cols: vec![0],
                aggs: vec![AggSpec::count(), AggSpec::sum(ScalarExpr::col(5))],
                parallelism: 2,
            });
            cfg
        };

        // Row-at-a-time reference: every chunk holds exactly one tuple.
        let mut cfg = base_cfg();
        cfg.batch_size = 1;
        let by_row = run_multiway(&spec, data.clone(), &cfg).unwrap();
        prop_assert!(by_row.error.is_none());

        for batch in [64, DEFAULT_BATCH_SIZE, 1024] {
            let mut cfg = base_cfg();
            cfg.batch_size = batch;
            let chunked = run_multiway(&spec, data.clone(), &cfg).unwrap();
            prop_assert!(chunked.error.is_none());
            prop_assert!(
                same_multiset(&chunked.results, &by_row.results),
                "batch {}: {} vs {} rows", batch,
                chunked.results.len(), by_row.results.len()
            );
            prop_assert_eq!(&chunked.loads, &by_row.loads, "loads differ at batch {}", batch);
            prop_assert_eq!(chunked.result_count, by_row.result_count);
        }

        // Same contract across the wire.
        let (cluster, handles) = loopback_workers(2);
        let mut cfg = base_cfg();
        cfg.batch_size = DEFAULT_BATCH_SIZE;
        cfg.cluster = Some(cluster);
        let dist = run_multiway(&spec, data, &cfg).unwrap();
        for h in handles { h.join().unwrap(); }
        prop_assert!(dist.error.is_none(), "{:?}", dist.error);
        prop_assert!(same_multiset(&dist.results, &by_row.results));
        prop_assert_eq!(&dist.loads, &by_row.loads);
        prop_assert_eq!(dist.result_count, by_row.result_count);
    }
}
