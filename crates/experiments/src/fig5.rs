//! Fig. 5: execution time of the configured assignment search (default:
//! the backtracking Algorithm 1) against the Unsafe Quadratic baseline,
//! as a function of the number of tasks.
//!
//! Absolute times are Rust-scale (microseconds) rather than the paper's
//! MATLAB-scale (seconds); the reproduced object is the *growth shape*
//! (quadratic on average for both) and the closeness of the two
//! algorithms (see EXPERIMENTS.md). Selecting
//! [`SearchMode::Portfolio`](crate::SearchMode::Portfolio) with a
//! budget bounds the per-instance work, which is what makes paper-scale
//! n ≥ 16 sweeps on the continuous profiles feasible (EXPERIMENTS.md
//! §"Portfolio search").

use crate::benchgen::{generate_benchmark, BenchmarkConfig, PeriodModel};
use crate::parallel::instance_seed;
use crate::search::SearchConfig;
use csa_core::unsafe_quadratic;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Configuration for the Fig. 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Task counts to sweep.
    pub task_counts: Vec<usize>,
    /// Benchmarks per task count.
    pub benchmarks: usize,
    /// RNG seed.
    pub seed: u64,
    /// Benchmark generator profile.
    pub profile: PeriodModel,
    /// The assignment search being timed (default: unbudgeted
    /// backtracking, the paper's Algorithm 1).
    pub search: SearchConfig,
}

impl Fig5Config {
    /// Paper-style sweep: n = 4, 6, ..., 20 on the legacy grid-snapped
    /// distribution.
    pub fn paper() -> Self {
        Fig5Config {
            task_counts: (2..=10).map(|k| 2 * k).collect(),
            benchmarks: 2_000,
            seed: 5,
            profile: PeriodModel::GridSnapped,
            search: SearchConfig::default(),
        }
    }

    /// Reduced sweep for smoke tests.
    pub fn quick() -> Self {
        Fig5Config {
            task_counts: vec![4, 8, 12],
            benchmarks: 100,
            seed: 5,
            profile: PeriodModel::GridSnapped,
            search: SearchConfig::default(),
        }
    }

    /// The same configuration under a different generator profile.
    pub fn with_profile(mut self, profile: PeriodModel) -> Self {
        self.profile = profile;
        self
    }

    /// The same configuration under a different assignment search.
    pub fn with_search(mut self, search: SearchConfig) -> Self {
        self.search = search;
        self
    }
}

/// Mean runtime and work counters at one task count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Point {
    /// Number of tasks.
    pub n: usize,
    /// Mean wall-clock time of the configured search per benchmark
    /// (seconds). With the default [`SearchConfig`] this is the
    /// paper's Algorithm 1 timing.
    pub search_secs: f64,
    /// Mean wall-clock time of Unsafe Quadratic per benchmark (seconds).
    pub unsafe_quadratic_secs: f64,
    /// Mean *logical* exact stability checks per benchmark for the
    /// configured search (the paper's work metric, independent of
    /// memoization).
    pub search_checks: f64,
    /// Mean logical checks answered from the memo table per benchmark
    /// (`checks - cache_hits` were actually computed).
    pub search_cache_hits: f64,
    /// Mean exact stability checks per benchmark, Unsafe Quadratic.
    pub unsafe_quadratic_checks: f64,
    /// Mean backtracks per benchmark.
    pub backtracks: f64,
    /// Fraction of benchmarks where the configured search exhausted its
    /// budget without deciding (always 0 for unbudgeted searches).
    pub truncated_rate: f64,
}

/// Runs the Fig. 5 experiment.
///
/// Benchmark generation uses per-instance seeds
/// ([`instance_seed`]`(config.seed, n, index)`, shared with every other
/// driver); the timing loop itself stays strictly single-threaded —
/// sharing cores would perturb the very quantity being measured.
pub fn run_fig5(config: &Fig5Config) -> Vec<Fig5Point> {
    config
        .task_counts
        .iter()
        .map(|&n| {
            let bench_cfg = BenchmarkConfig::with_model(n, config.profile);
            let benchmarks: Vec<_> = (0..config.benchmarks)
                .map(|k| {
                    let mut rng = StdRng::seed_from_u64(instance_seed(config.seed, n, k));
                    generate_benchmark(&bench_cfg, &mut rng)
                })
                .collect();

            let mut search_time = 0.0f64;
            let mut uq_time = 0.0f64;
            let mut search_checks = 0u64;
            let mut search_hits = 0u64;
            let mut uq_checks = 0u64;
            let mut backtracks = 0u64;
            let mut truncated = 0u64;
            for tasks in &benchmarks {
                #[expect(clippy::disallowed_methods, reason = "D002: timing is the output")]
                let t0 = Instant::now();
                let out = config.search.solve(tasks);
                search_time += t0.elapsed().as_secs_f64();
                #[expect(clippy::disallowed_methods, reason = "D002: timing is the output")]
                let t1 = Instant::now();
                let uq = unsafe_quadratic(tasks);
                uq_time += t1.elapsed().as_secs_f64();
                // A search may report u64::MAX checks (DESIGN.md §7).
                search_checks = search_checks.saturating_add(out.stats.checks);
                search_hits = search_hits.saturating_add(out.stats.cache_hits);
                uq_checks += uq.stats.checks;
                backtracks = backtracks.saturating_add(out.stats.backtracks);
                truncated += u64::from(out.stats.truncated);
            }
            let k = config.benchmarks as f64;
            Fig5Point {
                n,
                search_secs: search_time / k,
                unsafe_quadratic_secs: uq_time / k,
                search_checks: search_checks as f64 / k,
                search_cache_hits: search_hits as f64 / k,
                unsafe_quadratic_checks: uq_checks as f64 / k,
                backtracks: backtracks as f64 / k,
                truncated_rate: truncated as f64 / k,
            }
        })
        .collect()
}

/// Fits `checks ~ c * n^p` by log-log least squares and returns the
/// exponent `p` — the empirical complexity order. The paper's claim is
/// `p ~= 2` on average for both algorithms.
pub fn empirical_order(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(n, y)| n > 0.0 && y > 0.0)
        .map(|&(n, y)| (n.ln(), y.ln()))
        .collect();
    let k = pts.len() as f64;
    if k < 2.0 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (k * sxy - sx * sy) / (k * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_grows_but_stays_tame() {
        let pts = run_fig5(&Fig5Config {
            task_counts: vec![4, 8, 12],
            benchmarks: 60,
            seed: 1,
            profile: PeriodModel::GridSnapped,
            search: SearchConfig::default(),
        });
        assert_eq!(pts.len(), 3);
        // Work grows with n.
        assert!(pts[2].search_checks > pts[0].search_checks);
        assert!(pts[2].unsafe_quadratic_checks > pts[0].unsafe_quadratic_checks);
        // Check counts stay polynomial: far below exponential blowup.
        for p in &pts {
            let n = p.n as f64;
            assert!(
                p.search_checks < 20.0 * n * n,
                "n={}: {} checks looks super-quadratic",
                p.n,
                p.search_checks
            );
            // Unbudgeted backtracking can never truncate.
            assert_eq!(p.truncated_rate, 0.0);
        }
    }

    #[test]
    fn portfolio_mode_bounds_the_check_count() {
        use crate::search::SearchMode;
        let budget = 2_000u64;
        let pts = run_fig5(&Fig5Config {
            task_counts: vec![8],
            benchmarks: 50,
            seed: 1,
            profile: PeriodModel::HarmonicStress,
            search: SearchConfig::new(SearchMode::Portfolio, budget),
        });
        // Mean spend respects the budget (+ documented < n slop).
        assert!(pts[0].search_checks < (budget + 8) as f64);
        assert!((0.0..=1.0).contains(&pts[0].truncated_rate));
    }

    #[test]
    fn empirical_order_of_quadratic_data_is_two() {
        let data: Vec<(f64, f64)> = (2..20).map(|n| (n as f64, 3.0 * (n * n) as f64)).collect();
        let p = empirical_order(&data);
        assert!((p - 2.0).abs() < 1e-9);
    }

    #[test]
    fn average_complexity_is_roughly_quadratic() {
        // The paper's §V claim on Algorithm 1 — measured on the
        // grid-snapped distribution the claim was calibrated on. The
        // continuous profiles have a much heavier backtracking tail
        // (borderline margin sets); see EXPERIMENTS.md.
        let pts = run_fig5(&Fig5Config {
            task_counts: vec![4, 8, 12, 16],
            benchmarks: 80,
            seed: 3,
            profile: PeriodModel::GridSnapped,
            search: SearchConfig::default(),
        });
        let data: Vec<(f64, f64)> = pts.iter().map(|p| (p.n as f64, p.search_checks)).collect();
        let order = empirical_order(&data);
        assert!(
            (0.8..3.2).contains(&order),
            "empirical order {order} far from quadratic"
        );
    }
}
