//! §5 ablations: hash-imperfection key mapping, temporal skew, adaptive
//! 1-Bucket, band-join schemes — plus microbenchmarks of the hot paths
//! (hypercube routing, local join insert).

use criterion::{criterion_group, criterion_main, Criterion};
use squall_bench::{
    abl_adaptive, abl_band_schemes, abl_hash_imperfection, abl_temporal_skew, tpch9_partial_spec,
};
use squall_common::{tuple, SplitMix64};
use squall_data::tpch::TpchGen;
use squall_join::dbtoaster::AggregatedDBToaster;
use squall_join::{DBToasterJoin, LocalJoin, TraditionalJoin};
use squall_partition::optimizer::{build_scheme, hybrid_hypercube, SchemeKind};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.bench_function("a1_hash_imperfection", |b| {
        b.iter(|| std::hint::black_box(abl_hash_imperfection()))
    });
    g.bench_function("a2_temporal_skew", |b| b.iter(|| std::hint::black_box(abl_temporal_skew())));
    g.bench_function("a3_adaptive_one_bucket", |b| b.iter(|| std::hint::black_box(abl_adaptive())));
    g.bench_function("a4_band_schemes", |b| b.iter(|| std::hint::black_box(abl_band_schemes())));
    g.finish();

    // Hot paths, over TPCH9-Partial's hand-written spec (these kernels take
    // a spec, not SQL), whose skew mark sends the Hybrid optimizer and
    // router down their skew path.
    let tpch = TpchGen::new(0.2, 2.0, 3).generate();
    let spec = tpch9_partial_spec(&tpch);
    let mut g = c.benchmark_group("hot_paths");
    g.bench_function("hybrid_optimizer_100_machines", |b| {
        b.iter(|| std::hint::black_box(hybrid_hypercube(&spec, 100, 1).unwrap()))
    });
    let scheme = build_scheme(SchemeKind::Hybrid, &spec, 64, 1).unwrap();
    g.bench_function("hypercube_route", |b| {
        let mut rng = SplitMix64::new(1);
        let t = tuple![1, 2, 3, 4, 5.0, "1994-01-01"];
        let mut out = Vec::new();
        b.iter(|| {
            scheme.route(0, &t, &mut rng, &mut out);
            std::hint::black_box(out.len())
        })
    });
    g.bench_function("dbtoaster_insert_1k", |b| {
        b.iter(|| {
            let mut j = DBToasterJoin::new(&spec);
            let mut out = Vec::new();
            for t in tpch.lineitem.iter().take(1000) {
                j.insert(0, t, &mut out);
                out.clear();
            }
            std::hint::black_box(j.stored())
        })
    });
    g.bench_function("aggregated_dbtoaster_insert_1k", |b| {
        b.iter(|| {
            let mut j = AggregatedDBToaster::minimal(&spec);
            let mut out = Vec::new();
            for t in tpch.lineitem.iter().take(1000) {
                j.insert_weighted(0, t, &mut out);
                out.clear();
            }
            std::hint::black_box(j.stored())
        })
    });
    g.bench_function("traditional_insert_1k", |b| {
        b.iter(|| {
            let mut j = TraditionalJoin::new(&spec);
            let mut out = Vec::new();
            for t in tpch.lineitem.iter().take(1000) {
                j.insert(0, t, &mut out);
                out.clear();
            }
            std::hint::black_box(j.stored())
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
