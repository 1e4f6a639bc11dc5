//! Event simulator core vs. the retained scan-based reference loop at
//! n = 16/32/64 over long busy horizons.
//!
//! The task sets pin nominal utilization slightly above one, so the
//! processor is busy for the *entire* horizon with a slowly growing
//! backlog — the transient-overrun regime that weakly-hard analysis
//! simulates (ROADMAP item 5) and that quantized crossval replicas can
//! enter after rounding. This is where the reference loop's per-event
//! scans show their true cost: its flat ready vector grows with the
//! backlog, so `max_by_key` is O(pending jobs) per event, while the
//! event core (`Simulator::run`) pays one O(n) release scan per release
//! instant and O(1) ready-bitmap work per event regardless of backlog
//! (the bitmap tracks tasks, not jobs; an overrunning task's later jobs
//! wait in its own backlog). Tasks sharing a period release together,
//! so each instant releases about n/5 jobs here. The event core's time
//! should scale with the event count (~2x per doubling of n here) and
//! beat the reference by >= 5x at n >= 32.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csa_rta::{Task, TaskId, Ticks};
use csa_sim::{reference, SimTask, Simulator, WorstCasePolicy};
use std::hint::black_box;

/// Near-doubling *prime* periods: no two releases ever coincide for
/// long, so preemptions and release cuts happen at distinct instants —
/// the event-dense regime (a harmonic grid would batch releases and
/// hide the per-event cost difference).
const PERIODS: [u64; 5] = [1021, 2039, 4093, 8191, 16381];

/// A busy n-task set: periods cycle over the prime menu and each task
/// gets an equal share of ~1.02 nominal utilization (mild sustained
/// overrun: never idle, backlog grows slowly), with execution times
/// fixed at c_w (deterministic — the benchmark measures the
/// scheduling loop, not an RNG).
fn busy_tasks(n: u32) -> Vec<SimTask> {
    (0..n)
        .map(|i| {
            let period = PERIODS[(i % 5) as usize];
            let c_worst = ((period as f64 * 1.02) / n as f64).max(2.0) as u64;
            let c_best = (c_worst / 2).max(1);
            let task = Task::new(
                TaskId::new(i),
                Ticks::new(c_best),
                Ticks::new(c_worst),
                Ticks::new(period),
            )
            .expect("valid by construction");
            SimTask::new(task, n - i)
        })
        .collect()
}

fn bench_event_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_sim");
    group.sample_size(10);
    let horizon = Ticks::new(2_000_000);
    for &n in &[16u32, 32, 64] {
        let sim = Simulator::new(busy_tasks(n)).expect("unique priorities");
        group.bench_with_input(BenchmarkId::new("event", n), &n, |b, _| {
            b.iter(|| black_box(sim.run(horizon, &mut WorstCasePolicy)))
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
            b.iter(|| black_box(reference::run(&sim, horizon, &mut WorstCasePolicy)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_sim);
criterion_main!(benches);
