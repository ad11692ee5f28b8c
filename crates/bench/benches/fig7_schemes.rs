//! Figure 7 / Tables 1–2 — hypercube scheme comparison on skewed
//! TPCH9-Partial and WebAnalytics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use squall_bench::{crawlcontent_table, figure_session, run_forced, tpch_tables, webgraph_table};
use squall_bench::{TPCH9_PARTIAL, WEB_ANALYTICS};
use squall_core::driver::LocalJoinKind;
use squall_data::crawlcontent;
use squall_data::tpch::TpchGen;
use squall_data::webgraph::WebGraphGen;
use squall_partition::optimizer::SchemeKind;

fn bench(c: &mut Criterion) {
    let tpch = TpchGen::new(0.4, 2.0, 7).generate();
    let arcs = WebGraphGen::new(800, 8000, 11).generate();
    let content = crawlcontent::generate(800, 12);
    let mut q9 = figure_session(8, tpch_tables(&tpch));
    let mut qweb = figure_session(8, [webgraph_table(arcs), crawlcontent_table(content)]);

    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    for (qname, session, sql) in [
        ("tpch9_partial_zipf2", &mut q9, TPCH9_PARTIAL),
        ("webanalytics", &mut qweb, WEB_ANALYTICS),
    ] {
        for kind in [SchemeKind::Hash, SchemeKind::Random, SchemeKind::Hybrid] {
            g.bench_with_input(BenchmarkId::new(qname, kind), sql, |b, sql| {
                b.iter(|| {
                    std::hint::black_box(run_forced(session, sql, kind, LocalJoinKind::DBToaster))
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
