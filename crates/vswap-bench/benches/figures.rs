//! Criterion timing of every experiment in the suite, at smoke scale.
//!
//! These benches exercise the exact code paths that regenerate the
//! paper's tables and figures (`cargo run --release -p vswap-bench --bin
//! vswap -- figures` produces the paper-scale numbers; see
//! EXPERIMENTS.md). Each
//! iteration rebuilds the machines and replays the whole experiment, so
//! the measurements double as end-to-end throughput numbers for the
//! simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vswap_bench::{run_experiment, suite_experiments, Scale};

fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    for id in suite_experiments().into_iter().map(|e| e.id) {
        // The dynamic multi-guest experiments are heavy even at smoke
        // scale; keep them out of the per-iteration timing loop.
        if id == "fig04" || id == "fig14" {
            continue;
        }
        group.bench_function(id, |b| {
            b.iter(|| black_box(run_experiment(id, Scale::Smoke)));
        });
    }
    group.finish();

    let mut heavy = c.benchmark_group("experiments-dynamic");
    heavy.sample_size(10);
    heavy.bench_function("fig14_point_3_guests", |b| {
        b.iter(|| {
            let mut ctx =
                vswap_bench::TaskCtx::standalone(vswap_bench::suite::DEFAULT_SEED, "bench");
            black_box(vswap_bench::experiments::fig14::run_point(
                Scale::Smoke,
                vswap_core::SwapPolicy::Vswapper,
                3,
                &mut ctx,
            ))
        });
    });
    heavy.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
