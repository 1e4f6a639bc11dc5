//! Assignment-search selection for the benchmark-driven sweeps.
//!
//! Every sweep that needs a feasibility verdict per benchmark (`fig5`,
//! `table1`, `census`) routes it through a [`SearchConfig`] so the
//! binaries can expose `--search portfolio|backtracking|opa` and
//! `--budget N` uniformly. The default reproduces the historical
//! behavior exactly: unbudgeted backtracking (the paper's Algorithm 1).
//!
//! The selected search only changes *which solver produces the
//! feasibility verdict*; instance generation, seeding, and the
//! thread-count-invariance contract of the parallel driver are
//! untouched — a sweep stays a pure function of its configuration.

use csa_core::{
    backtracking_on_checker, opa_on_checker, portfolio_on_checker, AssignmentOutcome,
    CandidateOrder, ControlTask, StabilityChecker,
};

/// Which assignment search a sweep runs per benchmark instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMode {
    /// The paper's complete Algorithm 1 (input candidate order),
    /// optionally budgeted — worst-case exponential, the historical
    /// default.
    #[default]
    Backtracking,
    /// The anytime staged portfolio
    /// ([`csa_core::portfolio_with_budget`]): OPA, verified heuristic
    /// seeds, then budgeted backtracking restarts. Bounded design-time
    /// latency at n ≥ 16 on the continuous profiles.
    Portfolio,
    /// Strict Audsley OPA alone: quadratic but incomplete under
    /// anomalies (a `--budget` below its ≤ n(n+1)/2 checks truncates
    /// it like any other search).
    Opa,
}

impl SearchMode {
    /// Every mode, in documentation order.
    pub const ALL: [SearchMode; 3] = [
        SearchMode::Backtracking,
        SearchMode::Portfolio,
        SearchMode::Opa,
    ];

    /// Stable lowercase name (the `--search` flag value and CSV-name
    /// suffix).
    pub fn name(self) -> &'static str {
        match self {
            SearchMode::Backtracking => "backtracking",
            SearchMode::Portfolio => "portfolio",
            SearchMode::Opa => "opa",
        }
    }

    /// Parses a [`SearchMode::name`] back into the mode.
    pub fn parse(s: &str) -> Option<SearchMode> {
        SearchMode::ALL.into_iter().find(|m| m.name() == s)
    }
}

impl std::fmt::Display for SearchMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A search mode plus its logical-check budget.
///
/// # Examples
///
/// ```
/// use csa_core::ControlTask;
/// use csa_experiments::{SearchConfig, SearchMode};
///
/// let tasks = vec![ControlTask::from_parts(0, 1, 1, 4, 1.0, 1e-8).unwrap()];
/// let out = SearchConfig::new(SearchMode::Portfolio, 50_000).solve(&tasks);
/// assert!(out.assignment.is_some());
/// assert!(!out.stats.truncated);
/// assert!(!SearchConfig::default().is_budgeted());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// The solver to run.
    pub mode: SearchMode,
    /// Budget in logical exact stability checks (`u64::MAX` =
    /// unbounded).
    pub budget: u64,
}

impl Default for SearchConfig {
    /// Unbudgeted backtracking — the historical sweep behavior.
    fn default() -> Self {
        SearchConfig {
            mode: SearchMode::Backtracking,
            budget: u64::MAX,
        }
    }
}

impl SearchConfig {
    /// A mode with an explicit budget.
    pub fn new(mode: SearchMode, budget: u64) -> SearchConfig {
        SearchConfig { mode, budget }
    }

    /// `true` when a finite budget is set.
    pub fn is_budgeted(&self) -> bool {
        self.budget != u64::MAX
    }

    /// Runs the configured search on one benchmark instance.
    ///
    /// The returned [`AssignmentOutcome`] carries the truncation flag
    /// in `stats.truncated`; a truncated `None` means "unknown", not
    /// "infeasible", and sweeps must count it separately.
    pub fn solve(&self, tasks: &[ControlTask]) -> AssignmentOutcome {
        self.solve_on(&mut StabilityChecker::new(tasks))
    }

    /// [`Self::solve`] over an existing (possibly warm)
    /// [`StabilityChecker`] — the memo-sharing entry point used by the
    /// streaming census and the `csa-monitor` service. The outcome is
    /// identical to [`Self::solve`] on the same task slice: memo warmth
    /// changes only cache-hit telemetry, never the assignment, the
    /// logical check count, or the truncation point.
    pub fn solve_on(&self, checker: &mut StabilityChecker<'_>) -> AssignmentOutcome {
        match self.mode {
            SearchMode::Backtracking => {
                backtracking_on_checker(checker, CandidateOrder::Input, self.budget).0
            }
            SearchMode::Portfolio => {
                let out = portfolio_on_checker(checker, self.budget);
                AssignmentOutcome {
                    assignment: out.assignment,
                    stats: out.stats,
                }
            }
            SearchMode::Opa => opa_on_checker(checker, self.budget).0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchgen::{generate_benchmark, BenchmarkConfig, PeriodModel};
    use crate::parallel::instance_seed;
    use csa_core::{backtracking, is_valid_assignment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn names_round_trip() {
        for mode in SearchMode::ALL {
            assert_eq!(SearchMode::parse(mode.name()), Some(mode));
            assert_eq!(mode.to_string(), mode.name());
        }
        assert_eq!(SearchMode::parse("soup"), None);
    }

    #[test]
    fn default_matches_plain_backtracking() {
        let cfg = BenchmarkConfig::with_model(5, PeriodModel::Continuous);
        for k in 0..40 {
            let mut rng = StdRng::seed_from_u64(instance_seed(9, 5, k));
            let tasks = generate_benchmark(&cfg, &mut rng);
            let via_search = SearchConfig::default().solve(&tasks);
            let direct = backtracking(&tasks);
            assert_eq!(via_search.assignment, direct.assignment);
            assert_eq!(via_search.stats.checks, direct.stats.checks);
            assert!(!via_search.stats.truncated);
        }
    }

    #[test]
    fn all_modes_are_sound_and_portfolio_agrees_when_untruncated() {
        let cfg = BenchmarkConfig::with_model(6, PeriodModel::HarmonicStress);
        for k in 0..40 {
            let mut rng = StdRng::seed_from_u64(instance_seed(4, 6, k));
            let tasks = generate_benchmark(&cfg, &mut rng);
            let feasible = backtracking(&tasks).assignment.is_some();
            for mode in SearchMode::ALL {
                let out = SearchConfig::new(mode, u64::MAX).solve(&tasks);
                if let Some(pa) = &out.assignment {
                    assert!(is_valid_assignment(&tasks, pa), "{mode} emitted invalid");
                }
                match mode {
                    // Complete searches match exactly.
                    SearchMode::Backtracking | SearchMode::Portfolio => {
                        assert!(!out.stats.truncated);
                        assert_eq!(out.assignment.is_some(), feasible, "{mode}");
                    }
                    // OPA may miss feasible sets but never invents one.
                    SearchMode::Opa => {
                        assert!(out.assignment.is_none() || feasible);
                    }
                }
            }
        }
    }
}
