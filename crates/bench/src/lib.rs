//! Shared fixtures for the Criterion benchmark harness.
//!
//! One bench target per paper table/figure plus substrate micro-benches
//! and design-choice ablations; see `benches/` and DESIGN.md §6 for the
//! target-by-target layout.
//!
//! # Example
//!
//! Deterministic fixture generation as the bench targets use it
//! (`no_run`: building the fixture warms the plant margin tables,
//! which is the expensive control-theoretic step):
//!
//! ```no_run
//! use csa_bench::fixed_benchmarks_with;
//! use csa_experiments::PeriodModel;
//!
//! // 10 deterministic continuous-profile task sets at n = 16 — the
//! // exponential-tail fixtures of the `portfolio` bench target.
//! let sets = fixed_benchmarks_with(16, 10, 0xB06E7, PeriodModel::Continuous);
//! assert_eq!(sets.len(), 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use csa_core::ControlTask;
use csa_experiments::{generate_benchmark, instance_seed, BenchmarkConfig, PeriodModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic benchmark task set of size `n` (seeded by `n` and
/// `seed` through the drivers' shared [`instance_seed`] derivation),
/// drawn from the paper's §V distribution (legacy grid-snapped periods).
pub fn fixed_benchmark(n: usize, seed: u64) -> Vec<ControlTask> {
    let mut rng = StdRng::seed_from_u64(instance_seed(seed, n, 0));
    generate_benchmark(&BenchmarkConfig::new(n), &mut rng)
}

/// A batch of deterministic benchmarks (for averaging inside one
/// Criterion iteration; instance `k` is seeded by
/// [`instance_seed`]`(seed, n, k)`, exactly like the experiment
/// drivers'), drawn with legacy grid-snapped periods.
pub fn fixed_benchmarks(n: usize, count: usize, seed: u64) -> Vec<Vec<ControlTask>> {
    fixed_benchmarks_with(n, count, seed, PeriodModel::GridSnapped)
}

/// [`fixed_benchmarks`] under an explicit generator profile.
pub fn fixed_benchmarks_with(
    n: usize,
    count: usize,
    seed: u64,
    model: PeriodModel,
) -> Vec<Vec<ControlTask>> {
    (0..count)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(instance_seed(seed, n, k));
            generate_benchmark(&BenchmarkConfig::with_model(n, model), &mut rng)
        })
        .collect()
}
