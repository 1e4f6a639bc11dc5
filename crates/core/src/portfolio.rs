//! Anytime staged portfolio assignment search (DESIGN.md §8).
//!
//! The paper's §V complexity argument: backtracking (Algorithm 1) is
//! complete but worst-case exponential, and the continuous-period
//! benchmark profiles actually hit that tail at n ≥ 16 (see
//! EXPERIMENTS.md). A design flow that must bound its latency needs an
//! *anytime* search: spend cheap, sound strategies first, then bounded
//! slices of the complete search, and report honestly when the budget
//! ran out before a decision was reached.
//!
//! [`portfolio_with_budget`] runs four stages on **one shared**
//! [`StabilityChecker`], so every exact check any stage performs warms
//! the memo for the later stages and the hot path stays
//! zero-allocation:
//!
//! 1. [`Opa`](PortfolioStage::Opa) — strict Audsley OPA: sound,
//!    ≤ n(n+1)/2 checks, but incomplete under anomalies.
//! 2. [`Seeds`](PortfolioStage::Seeds) — two heuristic complete orders
//!    validated exactly (≤ 3n checks total: ≤ n validating the
//!    deadline-monotonic order, then n scoring + ≤ n validating the
//!    criticality order of the Unsafe Quadratic baseline with *every*
//!    certificate re-checked — sound where the baseline is not).
//! 3. [`SlackRestart`](PortfolioStage::SlackRestart) — budgeted
//!    backtracking with [`CandidateOrder::MaxSlackFirst`] value
//!    ordering (the low-backtrack heuristic order).
//! 4. [`InputRestart`](PortfolioStage::InputRestart) — backtracking
//!    with [`CandidateOrder::Input`] and all remaining budget; complete
//!    whenever it runs un-truncated.
//!
//! Every stage is sound, so the first assignment found wins and is
//! valid. Feasibility verdicts are decisive only from an un-truncated
//! restart stage; see [`PortfolioOutcome`] for the truncation contract.

use crate::analysis::{PriorityAssignment, StabilityChecker, TaskVerdict, MEMO_MAX_TASKS};
use crate::assignment::{
    backtracking_on_checker, criticality_order, opa_on_checker, reference, AssignmentStats,
    CandidateOrder,
};
use crate::stability::ControlTask;

/// A stage of the anytime portfolio, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortfolioStage {
    /// Strict Audsley OPA (sound, quadratic, incomplete under
    /// anomalies).
    Opa,
    /// Heuristic complete orders (deadline-monotonic, then verified
    /// criticality order), each validated with exact checks.
    Seeds,
    /// Budgeted backtracking restart with
    /// [`CandidateOrder::MaxSlackFirst`] value ordering.
    SlackRestart,
    /// Final backtracking restart with [`CandidateOrder::Input`] value
    /// ordering — the paper's Algorithm 1, complete when un-truncated.
    InputRestart,
}

impl PortfolioStage {
    /// Short lowercase name (stable across releases; used by the
    /// experiment CSVs).
    pub fn name(self) -> &'static str {
        match self {
            PortfolioStage::Opa => "opa",
            PortfolioStage::Seeds => "seeds",
            PortfolioStage::SlackRestart => "slack-restart",
            PortfolioStage::InputRestart => "input-restart",
        }
    }
}

impl std::fmt::Display for PortfolioStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Work accounting for one executed portfolio stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// Which stage this report describes.
    pub stage: PortfolioStage,
    /// Logical exact stability checks the stage spent (the budget
    /// currency; memo-invariant).
    pub checks: u64,
    /// How many of those checks the shared memo answered without
    /// recomputing the fixed points — cross-stage reuse shows up here.
    pub cache_hits: u64,
    /// Whether the stage was cut short by its budget slice.
    pub truncated: bool,
}

/// Outcome of an anytime portfolio run.
///
/// # Truncation contract
///
/// * `assignment.is_some()` — a **valid** assignment (every stage is
///   sound); `winner` names the stage that found it.
/// * `assignment.is_none() && !stats.truncated` — **decisively
///   infeasible**: a complete backtracking restart ran to completion
///   without finding an assignment.
/// * `assignment.is_none() && stats.truncated` — **unknown**: the check
///   budget was exhausted before any stage could decide. Never treat
///   this as infeasible.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioOutcome {
    /// The assignment, if any stage found one (always valid).
    pub assignment: Option<PriorityAssignment>,
    /// The stage that produced the assignment (`None` when no stage
    /// did).
    pub winner: Option<PortfolioStage>,
    /// Per-stage accounting, in execution order; stages the run never
    /// reached are absent.
    pub stages: Vec<StageReport>,
    /// Aggregate counters over all executed stages. `stats.truncated`
    /// is the *overall* verdict quality flag (see the truncation
    /// contract), not an OR of the per-stage flags: an early stage may
    /// exhaust its slice while a later complete restart still decides.
    pub stats: AssignmentStats,
}

impl PortfolioOutcome {
    /// `true` when the run ended without a decision (no assignment and
    /// no completed complete search) — shorthand for
    /// `self.stats.truncated`.
    pub fn truncated(&self) -> bool {
        self.stats.truncated
    }
}

/// Check budget granted to the [`SlackRestart`] stage when the overall
/// budget is unbounded: `SLACK_PROBE_FACTOR * n^2` logical checks — a
/// few quadratic sweeps' worth of probing with the low-backtrack value
/// order before the complete input-order restart takes over.
///
/// [`SlackRestart`]: PortfolioStage::SlackRestart
pub const SLACK_PROBE_FACTOR: u64 = 8;

/// [`portfolio_with_budget`] without a budget: the complete anytime
/// ladder. The final restart is the paper's complete Algorithm 1, so
/// the feasibility verdict always agrees with
/// [`backtracking`](crate::backtracking) (the `csa-core` property tests
/// pin this). Like it, the ladder stops only when its stages have made
/// `u64::MAX` logical checks in total — an edge the input restart's
/// failed-set memo can reach on deep, infeasible sets — and then
/// reports `truncated` with `stats.checks == u64::MAX`.
///
/// # Examples
///
/// ```
/// use csa_core::{is_valid_assignment, portfolio, ControlTask, PortfolioStage};
///
/// # fn main() -> Result<(), csa_rta::InvalidTask> {
/// let tasks = vec![
///     ControlTask::from_parts(0, 1, 1, 4, 1.0, 1e-8)?,
///     ControlTask::from_parts(1, 2, 2, 6, 1.0, 1e-8)?,
///     ControlTask::from_parts(2, 3, 3, 10, 1.0, 1.2e-8)?,
/// ];
/// let out = portfolio(&tasks);
/// assert!(!out.truncated());
/// assert_eq!(out.winner, Some(PortfolioStage::Opa)); // easy set: stage 1 wins
/// assert!(is_valid_assignment(&tasks, &out.assignment.unwrap()));
/// # Ok(())
/// # }
/// ```
pub fn portfolio(tasks: &[ControlTask]) -> PortfolioOutcome {
    portfolio_with_budget(tasks, u64::MAX)
}

/// Staged anytime priority assignment under a total logical-check
/// budget.
///
/// # Budget semantics
///
/// `max_checks` caps the *logical* exact stability checks summed over
/// all stages (`u64::MAX` = unbounded); memoization never moves the
/// truncation point, exactly as for
/// [`backtracking_with_budget`](crate::backtracking_with_budget).
/// Stages draw from the shared remainder in order: OPA and the seeds
/// may spend up to the full remainder; the slack-order restart gets
/// half the remainder ([`SLACK_PROBE_FACTOR`]` * n^2` when unbounded),
/// and the final input-order restart gets everything left. A restart
/// using [`CandidateOrder::MaxSlackFirst`] may overshoot its slice by
/// at most one candidate-scoring pass (< n checks) — the documented
/// slop of the underlying budgeted search — so the total spend is
/// `< max_checks + n`. An unbounded run still stops at `u64::MAX`
/// checks in total and reports truncation there.
///
/// Sets wider than [`MEMO_MAX_TASKS`] cannot key the bitmask memo; they
/// fall back to a single budgeted input-order reference backtracking
/// run (reported as an [`InputRestart`](PortfolioStage::InputRestart)
/// stage), keeping the truncation contract intact.
///
/// # Examples
///
/// A tiny budget cannot decide a 3-task set and must say so honestly:
///
/// ```
/// use csa_core::{portfolio_with_budget, ControlTask};
///
/// # fn main() -> Result<(), csa_rta::InvalidTask> {
/// let tasks = vec![
///     ControlTask::from_parts(0, 1, 1, 4, 1.0, 1e-8)?,
///     ControlTask::from_parts(1, 2, 2, 6, 1.0, 1e-8)?,
///     ControlTask::from_parts(2, 3, 3, 10, 1.0, 1.2e-8)?,
/// ];
/// let out = portfolio_with_budget(&tasks, 1);
/// assert!(out.truncated());
/// assert!(out.assignment.is_none()); // unknown, not infeasible
/// # Ok(())
/// # }
/// ```
pub fn portfolio_with_budget(tasks: &[ControlTask], max_checks: u64) -> PortfolioOutcome {
    let n = tasks.len();
    if n > MEMO_MAX_TASKS {
        let (outcome, truncated) =
            reference::backtracking_with_budget(tasks, CandidateOrder::Input, max_checks);
        let won = outcome.assignment.is_some();
        return PortfolioOutcome {
            assignment: outcome.assignment,
            winner: won.then_some(PortfolioStage::InputRestart),
            stages: vec![StageReport {
                stage: PortfolioStage::InputRestart,
                checks: outcome.stats.checks,
                cache_hits: 0,
                truncated,
            }],
            stats: outcome.stats,
        };
    }

    let mut checker = StabilityChecker::new(tasks);
    portfolio_on_checker(&mut checker, max_checks)
}

/// [`portfolio_with_budget`] over an existing [`StabilityChecker`] —
/// the memo-sharing entry point for callers that ask further questions
/// of the same slice (the census classification runs the search and
/// its anomaly scans on one checker). The outcome is identical to a
/// fresh-checker run on the same slice: memo warmth changes only
/// `cache_hits`, never verdicts, logical check counts, or the
/// truncation point.
///
/// # Panics
///
/// Panics if the checker's set has more than [`MEMO_MAX_TASKS`] tasks
/// (wide sets cannot share the bitmask memo; use
/// [`portfolio_with_budget`], which falls back to the reference
/// search).
pub fn portfolio_on_checker(
    checker: &mut StabilityChecker<'_>,
    max_checks: u64,
) -> PortfolioOutcome {
    let n = checker.len();
    assert!(
        n <= MEMO_MAX_TASKS,
        "memo sharing requires a set of at most {MEMO_MAX_TASKS} tasks"
    );
    let unbounded = max_checks == u64::MAX;
    let mut run = PortfolioRun {
        checker,
        remaining: max_checks,
        stages: Vec::with_capacity(4),
        stats: AssignmentStats::default(),
    };

    // Stage 1: strict OPA — cheap, sound, often enough.
    let budget = run.remaining;
    let (opa, opa_truncated) = opa_on_checker(run.checker, budget);
    run.absorb(PortfolioStage::Opa, &opa.stats, opa_truncated);
    if opa.assignment.is_some() {
        return run.finish(opa.assignment, Some(PortfolioStage::Opa), false);
    }

    // Stage 2: heuristic complete orders, validated exactly.
    if run.remaining > 0 {
        let seed = try_seed_orders(&mut run);
        if seed.is_some() {
            return run.finish(seed, Some(PortfolioStage::Seeds), false);
        }
    }

    // Stage 3: budgeted slack-order backtracking restart.
    if run.remaining > 0 {
        let slice = if unbounded {
            SLACK_PROBE_FACTOR * (n as u64) * (n as u64)
        } else {
            run.remaining / 2
        };
        let (out, truncated) =
            backtracking_on_checker(run.checker, CandidateOrder::MaxSlackFirst, slice);
        run.absorb(PortfolioStage::SlackRestart, &out.stats, truncated);
        if out.assignment.is_some() {
            return run.finish(out.assignment, Some(PortfolioStage::SlackRestart), false);
        }
        if !truncated {
            // A complete backtracking search finished empty-handed:
            // decisively infeasible.
            return run.finish(None, None, false);
        }
    }

    // Stage 4: input-order restart with everything left — the paper's
    // Algorithm 1, complete when un-truncated.
    if run.remaining > 0 {
        let budget = run.remaining;
        let (out, truncated) = backtracking_on_checker(run.checker, CandidateOrder::Input, budget);
        run.absorb(PortfolioStage::InputRestart, &out.stats, truncated);
        let won = out.assignment.is_some();
        let winner = won.then_some(PortfolioStage::InputRestart);
        return run.finish(out.assignment, winner, !won && truncated);
    }

    // Budget exhausted before a complete search could run: unknown.
    run.finish(None, None, true)
}

/// Book-keeping shared by the portfolio stages: the remaining budget
/// and the per-stage/aggregate accounting.
struct PortfolioRun<'c, 'a> {
    checker: &'c mut StabilityChecker<'a>,
    remaining: u64,
    stages: Vec<StageReport>,
    stats: AssignmentStats,
}

impl PortfolioRun<'_, '_> {
    /// Records a finished stage and deducts its spend from the shared
    /// budget — an unbounded one too, so the stages together never make
    /// more than `u64::MAX` checks on the shared checker.
    fn absorb(&mut self, stage: PortfolioStage, stats: &AssignmentStats, truncated: bool) {
        self.stages.push(StageReport {
            stage,
            checks: stats.checks,
            cache_hits: stats.cache_hits,
            truncated,
        });
        self.stats.checks = self.stats.checks.saturating_add(stats.checks);
        self.stats.backtracks = self.stats.backtracks.saturating_add(stats.backtracks);
        self.stats.cache_hits = self.stats.cache_hits.saturating_add(stats.cache_hits);
        self.remaining = self.remaining.saturating_sub(stats.checks);
    }

    fn finish(
        self,
        assignment: Option<PriorityAssignment>,
        winner: Option<PortfolioStage>,
        truncated: bool,
    ) -> PortfolioOutcome {
        let mut stats = self.stats;
        stats.truncated = truncated;
        PortfolioOutcome {
            assignment,
            winner,
            stages: self.stages,
            stats,
        }
    }
}

/// Stage 2: tries the deadline-monotonic order and then the verified
/// criticality (max-worst-case-slack-lowest) order, validating each
/// with exact per-level checks — early exit on the first unstable
/// level, checked bottom-up where interference is heaviest. Records its
/// own stage report and returns the first valid assignment found.
fn try_seed_orders(run: &mut PortfolioRun<'_, '_>) -> Option<PriorityAssignment> {
    let tasks = run.checker.tasks();
    let n = tasks.len();
    let checks_before = run.checker.logical_checks();
    let hits_before = run.checker.cache_hits();
    let mut spent = 0u64;
    let mut truncated = false;
    let mut found = None;

    // Seed A: deadline-monotonic (implicit deadlines: shortest period
    // highest priority), ties broken by index for determinism.
    let mut dm: Vec<usize> = (0..n).collect();
    dm.sort_by_key(|&i| (tasks[i].task().period(), i));
    dm.reverse(); // bottom-up: longest period lowest priority
    match validate_order(run, &dm, &mut spent) {
        SeedVerdict::Valid => found = Some(PriorityAssignment::from_lowest_first(&dm)),
        SeedVerdict::OutOfBudget => truncated = true,
        SeedVerdict::Unstable => {
            // Seed B: the Unsafe Quadratic criticality order — but with
            // every level re-verified by `validate_order`, so the
            // monotonicity certificates the baseline trusts (and
            // anomalies break) are never trusted here.
            if spent_within(run.remaining, &mut spent, n as u64) {
                let verdicts: Vec<TaskVerdict> = (0..n)
                    .map(|i| {
                        let full_but_i = run.checker.full_mask() & !(1u64 << i);
                        run.checker.check_mask(i, full_but_i)
                    })
                    .collect();
                let by_slack = criticality_order(&verdicts);
                match validate_order(run, &by_slack, &mut spent) {
                    SeedVerdict::Valid => {
                        found = Some(PriorityAssignment::from_lowest_first(&by_slack));
                    }
                    SeedVerdict::OutOfBudget => truncated = true,
                    SeedVerdict::Unstable => {}
                }
            } else {
                truncated = true;
            }
        }
    }

    let stats = AssignmentStats {
        checks: run.checker.logical_checks() - checks_before,
        backtracks: 0,
        cache_hits: run.checker.cache_hits() - hits_before,
        truncated,
    };
    debug_assert_eq!(stats.checks, spent);
    run.absorb(PortfolioStage::Seeds, &stats, truncated);
    found
}

/// Result of validating one complete seed order.
enum SeedVerdict {
    /// Every level passed its exact check: the order is valid.
    Valid,
    /// Some level failed its exact check: the order is invalid (this
    /// says nothing about other orders).
    Unstable,
    /// The budget ran out before all levels were checked.
    OutOfBudget,
}

/// Exactly validates a complete bottom-up order, one check per level.
fn validate_order(
    run: &mut PortfolioRun<'_, '_>,
    bottom_up: &[usize],
    spent: &mut u64,
) -> SeedVerdict {
    let mut hp_mask = run.checker.full_mask();
    for &i in bottom_up {
        hp_mask &= !(1u64 << i);
        if !spent_within(run.remaining, spent, 1) {
            return SeedVerdict::OutOfBudget;
        }
        if !run.checker.check_mask(i, hp_mask).stable {
            return SeedVerdict::Unstable;
        }
    }
    SeedVerdict::Valid
}

/// `true` when `cost` more checks fit in `budget`; on success adds the
/// cost to the running spend.
fn spent_within(budget: u64, spent: &mut u64, cost: u64) -> bool {
    if budget != u64::MAX && spent.saturating_add(cost) > budget {
        return false;
    }
    *spent += cost;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::is_valid_assignment;
    use crate::assignment::backtracking;

    fn classic() -> Vec<ControlTask> {
        vec![
            ControlTask::from_parts(0, 1, 1, 4, 1.0, 1e-8).unwrap(),
            ControlTask::from_parts(1, 2, 2, 6, 1.0, 1e-8).unwrap(),
            ControlTask::from_parts(2, 3, 3, 10, 1.0, 1.2e-8).unwrap(),
        ]
    }

    #[test]
    fn easy_set_won_by_opa_without_truncation() {
        let tasks = classic();
        let out = portfolio(&tasks);
        assert_eq!(out.winner, Some(PortfolioStage::Opa));
        assert!(!out.truncated());
        assert!(is_valid_assignment(&tasks, &out.assignment.unwrap()));
        assert_eq!(out.stages.len(), 1, "no later stage should have run");
        assert_eq!(out.stats.checks, out.stages[0].checks);
    }

    #[test]
    fn infeasible_set_is_decisively_rejected() {
        // Two tasks that are only stable at the highest priority (see
        // the assignment-module tests): no valid assignment exists.
        let tasks = vec![
            ControlTask::from_parts(0, 1, 4, 8, 1.0, 5e-9).unwrap(),
            ControlTask::from_parts(1, 1, 4, 8, 1.0, 5e-9).unwrap(),
        ];
        let out = portfolio(&tasks);
        assert!(out.assignment.is_none());
        assert_eq!(out.winner, None);
        assert!(!out.truncated(), "complete restart must decide");
        assert!(backtracking(&tasks).assignment.is_none());
    }

    #[test]
    fn tiny_budget_is_honestly_unknown() {
        let tasks = classic();
        let out = portfolio_with_budget(&tasks, 1);
        assert!(out.assignment.is_none());
        assert!(out.truncated());
        assert_eq!(out.winner, None);
        // The spend respects the documented bound.
        assert!(out.stats.checks < 1 + tasks.len() as u64);
    }

    #[test]
    fn stage_reports_sum_to_aggregate() {
        let tasks = classic();
        for cap in [1u64, 3, 5, 8, 20, u64::MAX] {
            let out = portfolio_with_budget(&tasks, cap);
            let sum_checks: u64 = out.stages.iter().map(|s| s.checks).sum();
            let sum_hits: u64 = out.stages.iter().map(|s| s.cache_hits).sum();
            assert_eq!(out.stats.checks, sum_checks, "cap {cap}");
            assert_eq!(out.stats.cache_hits, sum_hits, "cap {cap}");
            if cap != u64::MAX {
                assert!(
                    out.stats.checks < cap + tasks.len() as u64,
                    "cap {cap}: spent {}",
                    out.stats.checks
                );
            }
        }
    }

    #[test]
    fn budget_spend_is_deterministic_and_memo_invariant() {
        // The budget counts logical checks, so two runs must agree
        // exactly, stage by stage.
        let tasks = classic();
        for cap in [2u64, 4, 7, 11, u64::MAX] {
            let a = portfolio_with_budget(&tasks, cap);
            let b = portfolio_with_budget(&tasks, cap);
            assert_eq!(a, b, "cap {cap}");
        }
    }

    #[test]
    fn agrees_with_backtracking_when_untruncated() {
        // Deterministic sweep over mixed feasible/infeasible sets.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..150 {
            let n = rng.gen_range(2..7);
            let tasks: Vec<ControlTask> = (0..n)
                .map(|i| {
                    let period = rng.gen_range(20..200u64);
                    let cw = rng.gen_range(1..=period / 3);
                    let cb = rng.gen_range(1..=cw);
                    let a = 1.0 + rng.gen::<f64>() * 4.0;
                    let b = rng.gen_range(0.2..2.5) * period as f64 * 1e-9;
                    ControlTask::from_parts(i as u32, cb, cw, period, a, b).unwrap()
                })
                .collect();
            for cap in [10u64, 60, u64::MAX] {
                let out = portfolio_with_budget(&tasks, cap);
                if let Some(pa) = &out.assignment {
                    assert!(is_valid_assignment(&tasks, pa), "portfolio output invalid");
                }
                if !out.truncated() {
                    assert_eq!(
                        out.assignment.is_some(),
                        backtracking(&tasks).assignment.is_some(),
                        "un-truncated portfolio disagrees with Algorithm 1 (cap {cap})"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_sets_fall_back_to_reference_backtracking() {
        // Beyond MEMO_MAX_TASKS the bitmask memo cannot run; the
        // portfolio degrades to one budgeted input-order restart.
        let tasks: Vec<ControlTask> = (0..70)
            .map(|i| ControlTask::from_parts(i, 1, 1, 100_000, 1.0, 1.0).unwrap())
            .collect();
        let out = portfolio(&tasks);
        assert_eq!(out.winner, Some(PortfolioStage::InputRestart));
        assert!(!out.truncated());
        assert!(is_valid_assignment(&tasks, &out.assignment.unwrap()));
        let capped = portfolio_with_budget(&tasks, 3);
        assert!(capped.truncated());
        assert!(capped.assignment.is_none());
    }
}
