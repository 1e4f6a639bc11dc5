//! Monitoring-service benchmarks (DESIGN.md §14): a bank hit vs a cold
//! assessment, and a stream of distinct requests.
//!
//! The determinism contract says the assessment bank changes *latency
//! only* — these benches quantify that latency. A cold request runs the
//! whole census classification (search, anomaly scans, OPA, quadratic
//! audit) and its slack checks. The requests here are inline, so a
//! repeat of an already-seen set is a bank hit that fingerprints the
//! set, compares it with the banked one and clones its assessment (a
//! generated request's hit skips the first two: its coordinates are
//! the key). What remains of a warm request is that and the engine's
//! per-request bookkeeping (EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion};
use csa_bench::fixed_benchmarks_with;
use csa_core::ControlTask;
use csa_experiments::PeriodModel;
use csa_monitor::{MonitorConfig, MonitorEngine, Payload, Request, Response};
use std::hint::black_box;

fn config() -> MonitorConfig {
    MonitorConfig {
        // Keep the baseline building: bench latency, not event flow.
        min_samples: u64::MAX,
        ..MonitorConfig::default()
    }
}

fn inline(id: u64, tasks: &[ControlTask]) -> Request {
    Request {
        id,
        payload: Payload::Inline {
            tasks: tasks.to_vec(),
        },
    }
}

fn bench_warm_vs_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_memo");
    // n = 14 keeps the census classification (search + anomaly scans +
    // OPA + quadratic audit) expensive enough that, on a cold request,
    // per-request bookkeeping is noise next to the analysis.
    let tasks = fixed_benchmarks_with(14, 2, 0x40B1, PeriodModel::MarginTight).remove(1);

    // Cold: a fresh engine (empty bank) assesses the set once.
    group.bench_function("cold_single", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            let mut engine = MonitorEngine::new(config());
            black_box(engine.submit(inline(id, &tasks)))
        })
    });

    // Warm: the same engine answers a set it has already seen from the
    // bank, without classifying it again.
    group.bench_function("warm_repeat", |b| {
        let mut engine = MonitorEngine::new(config());
        let mut id = 0u64;
        id += 1;
        engine.submit(inline(id, &tasks));
        b.iter(|| {
            id += 1;
            black_box(engine.submit(inline(id, &tasks)))
        })
    });
    group.finish();
}

fn bench_distinct_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_window");
    let sets = fixed_benchmarks_with(6, 16, 0x40B2, PeriodModel::MarginTight);

    // 16 distinct requests through a fresh engine, each answered as it
    // arrives.
    group.bench_function("singleton_x16", |b| {
        b.iter(|| {
            let mut engine = MonitorEngine::new(config());
            let out: Vec<Response> = sets
                .iter()
                .enumerate()
                .flat_map(|(i, tasks)| engine.submit(inline(i as u64 + 1, tasks)))
                .collect();
            black_box(out)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_warm_vs_cold, bench_distinct_stream);
criterion_main!(benches);
