//! Figure 8 — DBToaster vs traditional local joins (TPCH9-Partial, Q3,
//! Google TaskCount, plus the product-skew 3-Reachability variant), and the
//! aggregated DBToaster join fed one row at a time vs a chunk at a time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use squall_bench::{figure_session, google_tables, run_forced, tpch_tables, webgraph_table};
use squall_bench::{REACHABILITY3, TASK_COUNT, TPCH9_PARTIAL, TPCH_Q3};
use squall_common::{DataType, Schema, SplitMix64, Value};
use squall_core::driver::LocalJoinKind;
use squall_data::google_cluster;
use squall_data::tpch::TpchGen;
use squall_data::webgraph::WebGraphGen;
use squall_expr::{JoinAtom, MultiJoinSpec, RelationDef};
use squall_join::dbtoaster::AggregatedDBToaster;
use squall_join::LocalJoin;
use squall_partition::optimizer::{build_scheme, SchemeKind};

fn bench(c: &mut Criterion) {
    let tpch = TpchGen::new(0.4, 2.0, 13).generate();
    let gd = google_cluster::generate(3000, 14);
    let arcs = WebGraphGen::new(500, 3000, 15).generate();
    let mut sessions = [
        figure_session(8, tpch_tables(&tpch)),
        figure_session(8, google_tables(&gd)),
        figure_session(8, [webgraph_table(arcs)]),
    ];

    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    for (qname, session, sql) in [
        ("a_tpch9_partial", 0, TPCH9_PARTIAL),
        ("b_tpch_q3", 0, TPCH_Q3),
        ("c_google_taskcount", 1, TASK_COUNT),
        ("d_reachability_product_skew", 2, REACHABILITY3),
    ] {
        let session = &mut sessions[session];
        for local in [LocalJoinKind::DBToaster, LocalJoinKind::Traditional] {
            g.bench_with_input(BenchmarkId::new(qname, local), sql, |b, sql| {
                b.iter(|| std::hint::black_box(run_forced(session, sql, SchemeKind::Hybrid, local)))
            });
        }
    }
    g.finish();
}

/// Rows per relation, key domain and batch size of the chunk-at-a-time arm
/// (the shape of the `hypercube3.uniform` benchmark workload).
const ROWS: usize = 60_000;
const KEYS: i64 = 1_000_000;
const BATCH: usize = 64;
const MACHINES: usize = 16;

/// One machine's arrivals: runs of one relation's rows.
type Arrivals = Vec<(usize, Vec<Value>)>;

/// Each machine's arrivals of a seeded uniform `R(x, y) ⋈ S(y, z) ⋈ T(z, t)`
/// routed by the Hybrid scheme, as the join task receives them: runs of one
/// relation's rows laid back to back, each flushed at `BATCH` rows, as a
/// sender's per-target chunk builder does.
fn uniform_arrivals(seed: u64) -> (MultiJoinSpec, Vec<Arrivals>) {
    let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
    let spec = MultiJoinSpec::new(
        ["R", "S", "T"].map(|n| RelationDef::new(n, schema.clone(), ROWS as u64)).to_vec(),
        vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)],
    )
    .unwrap();
    let scheme = build_scheme(SchemeKind::Hybrid, &spec, MACHINES, seed).unwrap();
    let mut rng = SplitMix64::new(seed);
    let mut pending = vec![vec![Vec::new(); 3]; MACHINES];
    let mut cells = vec![Vec::new(); MACHINES];
    let mut targets = Vec::new();
    for _ in 0..ROWS {
        for rel in [0, 1, 2] {
            let row = [Value::Int(rng.next_range(0, KEYS)), Value::Int(rng.next_range(0, KEYS))];
            scheme.route(rel, &row, &mut rng, &mut targets);
            for &m in &targets {
                let run: &mut Vec<Value> = &mut pending[m][rel];
                run.extend_from_slice(&row);
                if run.len() == BATCH * 2 {
                    cells[m].push((rel, std::mem::take(run)));
                }
            }
        }
    }
    for (cell, runs) in cells.iter_mut().zip(pending) {
        cell.extend(runs.into_iter().enumerate().filter(|(_, run)| !run.is_empty()));
    }
    (spec, cells)
}

/// `AggregatedDBToaster::minimal` over every machine's arrivals, each run
/// fed whole or one row at a time; returns the result count.
fn join_count(spec: &MultiJoinSpec, cells: &[Arrivals], whole: bool) -> i64 {
    let mut results = 0;
    let mut count = |_: &[Value], m: i64| results += m;
    for cell in cells {
        let mut join = AggregatedDBToaster::minimal(spec);
        for (rel, run) in cell {
            let rows = if whole { run.chunks(run.len()) } else { run.chunks(2) };
            rows.for_each(|rows| join.insert_into(*rel, rows, &mut count));
        }
    }
    results
}

fn local_batches(c: &mut Criterion) {
    let (spec, cells) = uniform_arrivals(7);
    assert_eq!(join_count(&spec, &cells, true), join_count(&spec, &cells, false));
    let mut g = c.benchmark_group("fig8_local_batches");
    g.sample_size(10);
    g.bench_function("uniform_rst_16_machines/one_row_at_a_time", |b| {
        b.iter(|| std::hint::black_box(join_count(&spec, &cells, false)))
    });
    g.bench_function("uniform_rst_16_machines/64_row_chunks", |b| {
        b.iter(|| std::hint::black_box(join_count(&spec, &cells, true)))
    });
    g.finish();
}

criterion_group!(benches, bench, local_batches);
criterion_main!(benches);
