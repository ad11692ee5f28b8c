//! Figure 6 — 3-Reachability: multi-way hypercube vs pipeline of 2-way
//! joins.

use criterion::{criterion_group, criterion_main, Criterion};
use squall_bench::REACHABILITY3;
use squall_bench::{figure_session, reachability3_spec, run_forced, run_pipeline, webgraph_table};
use squall_core::driver::LocalJoinKind;
use squall_data::webgraph::WebGraphGen;
use squall_partition::optimizer::SchemeKind;

fn bench(c: &mut Criterion) {
    let arcs = WebGraphGen::new(600, 4000, 9).generate();
    let mut session = figure_session(9, [webgraph_table(arcs.clone())]);
    let spec = reachability3_spec(arcs.len() as u64);
    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);
    g.bench_function("multiway_hash_hypercube", |b| {
        b.iter(|| {
            std::hint::black_box(run_forced(
                &mut session,
                REACHABILITY3,
                SchemeKind::Hash,
                LocalJoinKind::DBToaster,
            ))
        })
    });
    g.bench_function("pipeline_of_2way", |b| {
        b.iter(|| {
            let data = vec![arcs.clone(), arcs.clone(), arcs.clone()];
            std::hint::black_box(
                run_pipeline(&spec, data, &[0, 1, 2], 9, LocalJoinKind::DBToaster, false).unwrap(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
