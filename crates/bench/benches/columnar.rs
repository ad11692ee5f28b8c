//! Wire codec microbenchmark: the chunk codec, which builds each column from
//! the chunk's rows and decodes columns back into rows, vs the row codec. The windowed-aggregation insert kernel is measured by
//! `squall-bench` (`core.window_insert_tps`).

use criterion::{criterion_group, criterion_main, Criterion};
use squall_common::codec::{self, Reader};
use squall_common::{Chunk, SplitMix64, Tuple, Value};

const KEYS: usize = 1 << 16;

fn bench(c: &mut Criterion) {
    let mut rng = SplitMix64::new(7);
    // Codec: 64-row batches of (Int, Int) tuples, encode + decode.
    let tuples: Vec<Tuple> = (0..KEYS)
        .map(|_| {
            Tuple::new(vec![
                Value::Int(rng.next_range(0, 1 << 20)),
                Value::Int(rng.next_range(0, 8)),
            ])
        })
        .collect();
    let batches: Vec<&[Tuple]> = tuples.chunks(64).collect();
    let chunks: Vec<Chunk> = batches.iter().map(|b| Chunk::from_tuples(b)).collect();
    let mut g = c.benchmark_group("wire_codec_64k_tuples");
    g.sample_size(10);
    g.bench_function("row_codec", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            for batch in &batches {
                buf.clear();
                codec::put_u32(&mut buf, batch.len() as u32);
                for t in *batch {
                    codec::put_tuple(&mut buf, t);
                }
                let mut r = Reader::new(&buf);
                let k = r.len().expect("len");
                for _ in 0..k {
                    std::hint::black_box(codec::get_tuple(&mut r).expect("tuple"));
                }
            }
        })
    });
    g.bench_function("chunk_codec", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            for c in &chunks {
                buf.clear();
                codec::put_chunk(&mut buf, c);
                let mut r = Reader::new(&buf);
                std::hint::black_box(codec::get_chunk(&mut r).expect("chunk"));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
