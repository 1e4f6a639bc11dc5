//! The anytime portfolio search at the continuous-profile exponential
//! tail (n = 16/20), where plain backtracking's worst case explodes
//! (see EXPERIMENTS.md): the budgeted portfolio must show *bounded*
//! per-instance runtime at every budget, and strict OPA gives the
//! lower baseline it stages on top of.
//!
//! Plain unbudgeted backtracking is absent here: `fig5_runtime` and the
//! `fig5` binary (`--search backtracking`) time it. A tail instance
//! still counts its exponential number of logical checks, but since the
//! failed-set memo (DESIGN.md §7) it no longer runs for minutes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csa_bench::fixed_benchmarks_with;
use csa_core::{audsley_opa, portfolio_with_budget};
use csa_experiments::PeriodModel;
use std::hint::black_box;

fn bench_portfolio(c: &mut Criterion) {
    let mut group = c.benchmark_group("portfolio");
    for &n in &[16usize, 20] {
        let benchmarks = fixed_benchmarks_with(n, 10, 0xB06E7, PeriodModel::Continuous);
        for &budget in &[2_000u64, 50_000] {
            group.bench_with_input(
                BenchmarkId::new(format!("portfolio_budget{budget}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        for tasks in &benchmarks {
                            black_box(portfolio_with_budget(black_box(tasks), budget));
                        }
                    })
                },
            );
        }
        group.bench_with_input(BenchmarkId::new("audsley_opa", n), &n, |b, _| {
            b.iter(|| {
                for tasks in &benchmarks {
                    black_box(audsley_opa(black_box(tasks)));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);
