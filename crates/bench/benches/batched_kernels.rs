//! Batched control-kernel pipeline vs the scalar one-shot path
//! (DESIGN.md §10): the same dc-servo log-period grid walked with
//! one-shot kernels per cell and with the batched evaluator.

use criterion::{criterion_group, criterion_main, Criterion};
use csa_control::{design_lqg, plants, stability_curve, StabilityCurveBatch, StabilityFit};
use csa_experiments::log_period_grid;
use std::hint::black_box;

fn bench_batched_kernels(c: &mut Criterion) {
    let pool = plants::benchmark_pool().unwrap();
    let bp = pool.iter().find(|p| p.name == "dc_servo").unwrap();
    let (lo, hi) = bp.period_range;
    let grid = log_period_grid(lo, hi, 8);

    let mut group = c.benchmark_group("batched_kernels");
    group.sample_size(10);
    group.bench_function("curve_grid_8_scalar_cold", |b| {
        b.iter(|| {
            for &h in &grid {
                let lqg = design_lqg(&bp.plant, &bp.weights, h, 0.0).unwrap();
                let curve = stability_curve(&bp.plant, &lqg.controller, h, 7).unwrap();
                black_box(StabilityFit::from_curve(&curve));
            }
        })
    });
    group.bench_function("curve_grid_8_batched_exact", |b| {
        let mut batch = StabilityCurveBatch::new();
        b.iter(|| black_box(batch.curve_grid(&bp.plant, &bp.weights, &grid, 0.0, 7)))
    });
    group.finish();
}

criterion_group!(benches, bench_batched_kernels);
criterion_main!(benches);
