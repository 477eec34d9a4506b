//! Criterion bench for the batched parallel routing engine: the same dense
//! batch routed by 1, 2 and 4 workers, at batch sizes from 16 to 128
//! frames. The acceptance bar for this workspace is ≥ 1.5× speedup at 4
//! workers on batches of ≥ 64 frames (see EXPERIMENTS.md); the worker
//! counts bracket that point so the scaling shape is visible in one run.

use brsmn_bench::dense_batch;
use brsmn_core::{Engine, EngineConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_worker_scaling(c: &mut Criterion) {
    let n = 64usize;
    let mut group = c.benchmark_group("parallel_throughput_n64");
    for frames in [16usize, 64, 128] {
        let batch = dense_batch(n, frames, 7);
        group.throughput(Throughput::Elements(frames as u64));
        for workers in [1usize, 2, 4] {
            let engine = Engine::with_config(n, EngineConfig::batch(workers)).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("{frames}frames"), workers),
                &batch,
                |b, batch| b.iter(|| black_box(engine.route_batch(black_box(batch)))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_worker_scaling);
criterion_main!(benches);
