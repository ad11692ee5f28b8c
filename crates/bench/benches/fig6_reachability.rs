//! Figure 6 — 3-Reachability: multi-way hypercube vs pipeline of 2-way
//! joins.

use criterion::{criterion_group, criterion_main, Criterion};
use squall_bench::run_pipeline;
use squall_core::driver::{run_multiway, LocalJoinKind, MultiwayConfig};
use squall_data::queries;
use squall_data::webgraph::WebGraphGen;
use squall_partition::optimizer::SchemeKind;

fn bench(c: &mut Criterion) {
    let arcs = WebGraphGen::new(600, 4000, 9).generate();
    let q = queries::reachability3(&arcs);
    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);
    g.bench_function("multiway_hash_hypercube", |b| {
        b.iter(|| {
            let cfg =
                MultiwayConfig::new(SchemeKind::Hash, LocalJoinKind::DBToaster, 9).count_only();
            std::hint::black_box(run_multiway(&q.spec, q.data.clone(), &cfg).unwrap())
        })
    });
    g.bench_function("pipeline_of_2way", |b| {
        b.iter(|| {
            std::hint::black_box(
                run_pipeline(
                    &q.spec,
                    q.data.clone(),
                    &[0, 1, 2],
                    9,
                    LocalJoinKind::DBToaster,
                    false,
                )
                .unwrap(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
