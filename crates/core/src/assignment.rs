//! Priority-assignment algorithms (the paper's §IV).
//!
//! Four algorithms over the same exact stability check:
//!
//! * [`backtracking`] — the paper's **Algorithm 1**: lowest-priority-first
//!   assignment with backtracking. Complete (finds a valid assignment
//!   whenever one exists) and sound (its output is always valid).
//!   Worst-case exponential, quadratic on average because anomalies are
//!   rare.
//! * [`unsafe_quadratic`] — the paper's baseline ("the algorithm of [20]
//!   modified to use the exact response times"): criticality ordering
//!   from one worst-case analysis per task, trusting the monotonicity
//!   certificate "stable under maximum interference implies stable under
//!   less". Quadratic total analysis work. Under anomalies its output
//!   can be **invalid** (Table I measures how often).
//! * [`audsley_opa`] — strict Audsley/OPA: commits one task per level,
//!   re-checking at every level. Sound by construction, but *incomplete*
//!   under anomalies (may fail although a valid assignment exists).
//! * [`exhaustive`] — tries every permutation; the ground truth for small
//!   sets.
//!
//! # Execution engine
//!
//! All four run on a [`StabilityChecker`]: response-time fixed points on
//! a reusable scratch (zero heap allocation per check) and a memo table
//! keyed by `(candidate, remaining-set bitmask)` so a stability check
//! revisited across backtracks is never recomputed. The bitmask is why
//! every entry point takes at most [`MAX_TASKS`](crate::MAX_TASKS)
//! tasks (see [`StabilityChecker::new`]). The memo changes
//! *nothing observable* except wall-clock time and
//! [`AssignmentStats::cache_hits`]: [`AssignmentStats::checks`] keeps
//! counting *logical* checks exactly as the unmemoized search would (the
//! paper's work metric), and assignments, feasibility and backtrack
//! counts are bit-identical to the retained [`reference`]
//! implementations — a property the `csa-core` test suite enforces on
//! random task sets.
//!
//! On top of it, [`backtracking`] keeps a *failed-set memo* under both
//! candidate orders: whether a remaining set can be ordered, and the
//! logical checks and backtracks it takes to find out, depend on that
//! set alone (each level tries candidates in ascending index order, or
//! by slack with ties broken by ascending index), so a set whose subtree
//! failed once is never walked again. A revisit adds the stored counts
//! and credits the checks to the checker as memo hits (a re-walk would
//! answer every one from the verdict memo), so no count moves — budgets
//! included — but the work done is at most one expansion per subset
//! instead of one per ordering (DESIGN.md §7).

use crate::analysis::{check_task, BitIter, PriorityAssignment, StabilityChecker};
use crate::fxhash::FxBuildHasher;
use crate::stability::ControlTask;
use csa_rta::MAX_TASKS;
#[expect(clippy::disallowed_types, reason = "D001: a memo probed by key only")]
use std::collections::HashMap;

/// Instrumentation counters for an assignment run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssignmentStats {
    /// Number of *logical* exact stability checks performed (the
    /// dominant cost; identical with and without memoization — Fig. 5 /
    /// Table I report this). The number actually *computed* is
    /// `checks - cache_hits`.
    pub checks: u64,
    /// Number of backtracks (Algorithm 1 only; 0 for the others).
    pub backtracks: u64,
    /// Logical checks answered from the memo table instead of rerunning
    /// the response-time fixed points (0 for the [`mod@reference`]
    /// implementations).
    pub cache_hits: u64,
    /// Whether the search was cut short by a check budget before it
    /// could decide. A truncated run returning no assignment means
    /// "unknown", not "infeasible". Always `false` for
    /// [`unsafe_quadratic`], [`audsley_opa`] and [`exhaustive`]. The
    /// unbudgeted [`backtracking`] runs with a budget of `u64::MAX` and
    /// reports `true` only when its search reaches that many logical
    /// checks (`checks` then reads `u64::MAX`), which the failed-set
    /// memo makes reachable on deep infeasible sets. Mirrors the `bool`
    /// returned by [`backtracking_with_budget`] so sweeps that only keep
    /// the stats can still report truncated-instance counts.
    pub truncated: bool,
}

/// Outcome of an assignment algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentOutcome {
    /// The assignment, if the algorithm produced one. For
    /// [`unsafe_quadratic`] a returned assignment is **not** guaranteed
    /// valid — verify with [`crate::is_valid_assignment`].
    pub assignment: Option<PriorityAssignment>,
    /// Instrumentation counters.
    pub stats: AssignmentStats,
}

/// Candidate iteration order inside [`backtracking`] (ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateOrder {
    /// Try remaining tasks in input order (the paper's `for tau_i in S`).
    #[default]
    Input,
    /// Try the task with the largest stability slack first, ties by
    /// ascending index — a greedy heuristic that tends to reduce
    /// backtracking.
    MaxSlackFirst,
}

/// Sorts `(slack, candidate)` pairs by slack, largest first, keeping the
/// incoming order on ties (stable sort; both searches score candidates
/// in ascending index order, so ties fall to the lower index). NaN-safe
/// by `f64::total_cmp`: a NaN slack orders above `+inf`, and the
/// callers' `slack >= 0.0` stability filter then rejects it, so a NaN
/// candidate can never be committed (and the sort itself can never
/// panic, unlike the former `partial_cmp(..).unwrap()`).
fn order_by_slack_desc(scored: &mut [(f64, usize)]) {
    scored.sort_by(|x, y| y.0.total_cmp(&x.0));
}

/// `true` when a scored candidate passes the stability filter (rejects
/// negative and NaN slacks alike).
#[inline]
fn slack_admits(slack: f64) -> bool {
    slack >= 0.0
}

/// The Unsafe Quadratic criticality order: task indices bottom-up,
/// largest worst-case slack lowest (NaN-safe by `total_cmp`, ties
/// broken by index). Shared by [`unsafe_quadratic`], its reference
/// twin, and the portfolio's verified Seed B so the three can never
/// drift apart.
pub(crate) fn criticality_order(verdicts: &[crate::analysis::TaskVerdict]) -> Vec<usize> {
    let mut bottom_up: Vec<usize> = (0..verdicts.len()).collect();
    bottom_up.sort_by(|&x, &y| {
        verdicts[y]
            .slack
            .total_cmp(&verdicts[x].slack)
            .then(x.cmp(&y))
    });
    bottom_up
}

/// The paper's **Algorithm 1**: backtracking priority assignment.
///
/// Recursively assigns the lowest remaining priority to any task that is
/// stable with all other remaining tasks as higher priority; on a dead
/// end it backtracks and tries the next candidate.
///
/// # Examples
///
/// ```
/// use csa_core::{backtracking, is_valid_assignment, ControlTask};
///
/// # fn main() -> Result<(), csa_rta::InvalidTask> {
/// let tasks = vec![
///     ControlTask::from_parts(0, 1, 1, 4, 1.0, 1e-8)?,
///     ControlTask::from_parts(1, 2, 2, 6, 1.0, 1e-8)?,
///     ControlTask::from_parts(2, 3, 3, 10, 1.0, 1.2e-8)?,
/// ];
/// let out = backtracking(&tasks);
/// let pa = out.assignment.expect("a valid assignment exists");
/// assert!(is_valid_assignment(&tasks, &pa));
/// # Ok(())
/// # }
/// ```
pub fn backtracking(tasks: &[ControlTask]) -> AssignmentOutcome {
    backtracking_with_order(tasks, CandidateOrder::Input)
}

/// [`backtracking`] with an explicit candidate order (see
/// [`CandidateOrder`]): [`backtracking_with_budget`] at `u64::MAX`
/// checks, so it truncates only a search that makes that many (see
/// [`AssignmentStats::truncated`]).
pub fn backtracking_with_order(tasks: &[ControlTask], order: CandidateOrder) -> AssignmentOutcome {
    backtracking_with_budget(tasks, order, u64::MAX).0
}

/// [`backtracking`] with a stability-check budget.
///
/// The paper's Algorithm 1 is exponential in the worst case (see the
/// `worst_case` integration test for a constructed factorial blow-up);
/// a deployment that must bound its design-time latency caps the number
/// of exact stability checks. Returns the outcome plus a flag telling
/// whether the search was cut short — a truncated `None` means
/// "unknown", not "infeasible". The budget counts *logical* checks, so
/// memoization does not move the truncation point. At `u64::MAX` the
/// search still truncates when it reaches that many checks.
///
/// # Examples
///
/// ```
/// use csa_core::{backtracking_with_budget, CandidateOrder, ControlTask};
///
/// # fn main() -> Result<(), csa_rta::InvalidTask> {
/// let tasks = vec![
///     ControlTask::from_parts(0, 1, 1, 4, 1.0, 1e-8)?,
///     ControlTask::from_parts(1, 2, 2, 6, 1.0, 1e-8)?,
/// ];
/// let (outcome, truncated) =
///     backtracking_with_budget(&tasks, CandidateOrder::Input, 1_000);
/// assert!(!truncated);
/// assert!(outcome.assignment.is_some());
/// # Ok(())
/// # }
/// ```
pub fn backtracking_with_budget(
    tasks: &[ControlTask],
    order: CandidateOrder,
    max_checks: u64,
) -> (AssignmentOutcome, bool) {
    let mut checker = StabilityChecker::new(tasks);
    backtracking_on_checker(&mut checker, order, max_checks)
}

/// Budgeted backtracking over an existing checker (whose memo may
/// already be warm from earlier searches on the same task slice — the
/// portfolio stages and the `csa-monitor` service rely on this). Stats
/// count only this run's checks; `cache_hits` is the delta accrued
/// here, so sharing a checker changes nothing observable but wall-clock
/// time and hit counts.
pub fn backtracking_on_checker(
    checker: &mut StabilityChecker<'_>,
    order: CandidateOrder,
    max_checks: u64,
) -> (AssignmentOutcome, bool) {
    let n = checker.len();
    let full = checker.full_mask();
    let hits_before = checker.cache_hits();
    let mut search = BacktrackSearch {
        checker,
        order,
        bottom_up: Vec::with_capacity(n),
        #[expect(clippy::disallowed_types, reason = "D001: a memo probed by key only")]
        failed: HashMap::default(),
        stats: AssignmentStats::default(),
        max_checks,
        truncated: false,
    };
    let found = search.recurse(full);
    let BacktrackSearch {
        checker,
        bottom_up,
        mut stats,
        truncated,
        ..
    } = search;
    stats.cache_hits = checker.cache_hits() - hits_before;
    stats.truncated = truncated;
    (
        AssignmentOutcome {
            assignment: found.then(|| PriorityAssignment::from_lowest_first(&bottom_up)),
            stats,
        },
        truncated,
    )
}

/// Entries the failed-set memo of one search may hold before it starts
/// over. A dropped entry costs time (its subtree is walked again), never
/// a count.
const FAILED_SETS_CAP: usize = 1 << 18;

/// State of one memoized backtracking run (Algorithm 1).
///
/// Whether a remaining set `S` can be ordered, and the logical checks
/// and backtracks it takes to find out, depend on `S` alone: each
/// verdict depends on the candidate and `S`, and each level tries `S`'s
/// tasks in an order fixed by `S` (ascending index, or by slack with
/// ties by ascending index). So `failed` maps every remaining set whose
/// subtree failed to that subtree's `(checks, backtracks)`, and a later
/// visit adds them without walking it again whenever the plain walk
/// would finish within the budget (see [`Self::skip_failed`]). The root
/// set is never stored: it is visited once.
struct BacktrackSearch<'c, 'a> {
    checker: &'c mut StabilityChecker<'a>,
    order: CandidateOrder,
    bottom_up: Vec<usize>,
    #[expect(clippy::disallowed_types, reason = "D001: a memo probed by key only")]
    failed: HashMap<u64, (u64, u64), FxBuildHasher>,
    stats: AssignmentStats,
    max_checks: u64,
    truncated: bool,
}

impl BacktrackSearch<'_, '_> {
    fn recurse(&mut self, mask: u64) -> bool {
        if mask == 0 {
            return true;
        }
        if self.stats.checks >= self.max_checks {
            self.truncated = true;
            return false;
        }
        if self.skip_failed(mask) {
            return false;
        }
        let before = (self.stats.checks, self.stats.backtracks);
        let found = match self.order {
            CandidateOrder::Input => self.input_level(mask),
            CandidateOrder::MaxSlackFirst => self.slack_level(mask),
        };
        if !found && !self.truncated {
            self.store_failed(mask, before);
        }
        found
    }

    /// Skips the subtree of `mask` when the memo holds it as failed
    /// with cost `c` and `checks + c <= max_checks`. Every truncation
    /// test inside a failed subtree is followed by at least one check,
    /// so the plain walk's last one would see at most `checks + c - 1`:
    /// it would finish the subtree untruncated with exactly the stored
    /// counts, and every check it made would be a verdict-memo hit,
    /// which [`StabilityChecker::credit_hits`] records. Otherwise the
    /// subtree is walked, its children's entries still apply, and
    /// truncation lands on the same logical check as the plain search.
    fn skip_failed(&mut self, mask: u64) -> bool {
        let Some(&(checks, backtracks)) = self.failed.get(&mask) else {
            return false;
        };
        let fits = self
            .stats
            .checks
            .checked_add(checks)
            .is_some_and(|total| total <= self.max_checks);
        if fits {
            self.stats.checks += checks;
            self.stats.backtracks += backtracks;
            self.checker.credit_hits(checks);
        }
        fits
    }

    /// Records that the subtree of `mask`, entered at the counts
    /// `before`, failed without truncation.
    fn store_failed(&mut self, mask: u64, before: (u64, u64)) {
        // Nothing placed yet: the root set, which is visited only once.
        if self.bottom_up.is_empty() {
            return;
        }
        if self.failed.len() >= FAILED_SETS_CAP {
            self.failed.clear();
        }
        let cost = (
            self.stats.checks - before.0,
            self.stats.backtracks - before.1,
        );
        self.failed.insert(mask, cost);
    }

    /// One level of the input-order search: the reference's sorted
    /// clone of the remaining set is the ascending bit order of its
    /// mask.
    fn input_level(&mut self, mask: u64) -> bool {
        for cand in BitIter(mask) {
            if self.stats.checks >= self.max_checks {
                self.truncated = true;
                return false;
            }
            self.stats.checks += 1;
            let rest = mask & !(1u64 << cand);
            if self.checker.check_mask(cand, rest).stable {
                self.bottom_up.push(cand);
                if self.recurse(rest) {
                    return true;
                }
                if self.truncated {
                    return false;
                }
                self.stats.backtracks += 1;
                self.bottom_up.pop();
            }
        }
        false
    }

    /// One level of the [`CandidateOrder::MaxSlackFirst`] search: score
    /// every remaining task in ascending index order, then descend into
    /// the stable ones, largest slack first. The scoring pass follows
    /// the entry truncation test, so like the reference it may overshoot
    /// a budget by up to `|S| - 1` checks; it stops only where the count
    /// would pass `u64::MAX`, and reports truncation there.
    fn slack_level(&mut self, mask: u64) -> bool {
        let mut scored: Vec<(f64, usize)> = Vec::with_capacity(mask.count_ones() as usize);
        for cand in BitIter(mask) {
            if self.stats.checks == u64::MAX {
                self.truncated = true;
                return false;
            }
            self.stats.checks += 1;
            let slack = self.checker.check_mask(cand, mask & !(1u64 << cand)).slack;
            scored.push((slack, cand));
        }
        order_by_slack_desc(&mut scored);
        for (slack, cand) in scored {
            // Pre-filtered to stable candidates; no re-check.
            if !slack_admits(slack) {
                continue;
            }
            if self.stats.checks >= self.max_checks {
                self.truncated = true;
                return false;
            }
            self.bottom_up.push(cand);
            if self.recurse(mask & !(1u64 << cand)) {
                return true;
            }
            if self.truncated {
                return false;
            }
            self.stats.backtracks += 1;
            self.bottom_up.pop();
        }
        false
    }
}

/// The paper's "Unsafe Quadratic" baseline: criticality ordering with
/// worst-case certificates.
///
/// The design intuition it encodes is the one the paper quotes and then
/// demolishes — *"a controller that is allocated more computing resource
/// (such as higher priority) provides a better control quality"*:
///
/// 1. Every task is analyzed once under **maximum interference** (all
///    other tasks as higher priority), giving its worst-case stability
///    slack `b - L - aJ`. Total analysis work is quadratic in `n`.
/// 2. Priorities are assigned by criticality: smallest slack highest —
///    the plants most at risk get the most resource.
/// 3. Tasks that were *unstable* under maximum interference needed the
///    promotion, so they are re-verified at their final level; if one
///    still fails, the heuristic gives up (`None`). If even the
///    bottom-most (largest-slack) task was unstable, no task can take
///    the lowest priority and the instance is genuinely infeasible.
/// 4. Tasks that were *stable* under maximum interference carry a
///    monotonicity certificate — "less interference can only help" — and
///    are **not** re-verified. That skipped re-check is exactly where
///    the paper's anomalies strike: removing interference can grow the
///    jitter term `a*J` faster than it shrinks the latency, so a
///    certificate can lie and the output can be **invalid**.
///
/// A returned assignment must therefore be verified with
/// [`crate::is_valid_assignment`]; Table I counts how often verification
/// fails.
pub fn unsafe_quadratic(tasks: &[ControlTask]) -> AssignmentOutcome {
    let mut checker = StabilityChecker::new(tasks);
    unsafe_quadratic_on(&mut checker)
}

/// [`unsafe_quadratic`] over an existing checker (see
/// [`backtracking_on_checker`] for the sharing contract): identical
/// outcome, with `cache_hits` the delta accrued here.
pub fn unsafe_quadratic_on(checker: &mut StabilityChecker<'_>) -> AssignmentOutcome {
    let n = checker.len();
    let hits_before = checker.cache_hits();
    let full = checker.full_mask();
    let mut stats = AssignmentStats::default();
    // Step 1: worst-case analysis of every task.
    let verdicts: Vec<_> = (0..n)
        .map(|i| {
            stats.checks += 1;
            checker.check_mask(i, full & !(1u64 << i))
        })
        .collect();
    // Step 2: sort by slack, largest slack to the bottom.
    let bottom_up = criticality_order(&verdicts);
    // Step 3: the bottom task's worst-case check is exact (its final
    // higher-priority set is all other tasks). If even the best
    // candidate fails there, no assignment has a stable bottom task.
    if !verdicts[bottom_up[0]].stable {
        stats.cache_hits = checker.cache_hits() - hits_before;
        return AssignmentOutcome {
            assignment: None,
            stats,
        };
    }
    let assignment = PriorityAssignment::from_lowest_first(&bottom_up);
    // Final higher-priority mask of each task: everything placed above it.
    let mut hp_of = [0u64; MAX_TASKS];
    let mut mask_above = 0u64;
    for &i in bottom_up.iter().rev() {
        hp_of[i] = mask_above;
        mask_above |= 1u64 << i;
    }
    // Step 3 continued: re-verify only the promoted-because-critical
    // tasks; the rest keep their (anomaly-prone) certificates.
    for &i in &bottom_up[1..] {
        if !verdicts[i].stable {
            stats.checks += 1;
            if !checker.check_mask(i, hp_of[i]).stable {
                stats.cache_hits = checker.cache_hits() - hits_before;
                return AssignmentOutcome {
                    assignment: None,
                    stats,
                };
            }
        }
    }
    stats.cache_hits = checker.cache_hits() - hits_before;
    AssignmentOutcome {
        assignment: Some(assignment),
        stats,
    }
}

/// Strict Audsley optimal priority assignment: one task per level,
/// committed to the first candidate (input order) that passes the exact
/// check at that level.
///
/// Sound by construction (each task is checked against exactly its final
/// higher-priority set) but incomplete under anomalies: a dead end makes
/// it give up where [`backtracking`] would recover.
pub fn audsley_opa(tasks: &[ControlTask]) -> AssignmentOutcome {
    let (outcome, truncated) = audsley_opa_with_budget(tasks, u64::MAX);
    debug_assert!(!truncated, "unbounded OPA cannot be truncated");
    outcome
}

/// [`audsley_opa`] with a stability-check budget — the same contract as
/// [`backtracking_with_budget`]: the budget counts *logical* checks
/// (memo-invariant), and a truncated `None` means "unknown", not
/// "OPA found no level to fill". An un-truncated `None` keeps OPA's
/// usual meaning: it gave up at an unfillable level (which, OPA being
/// incomplete, still proves nothing about infeasibility).
pub fn audsley_opa_with_budget(
    tasks: &[ControlTask],
    max_checks: u64,
) -> (AssignmentOutcome, bool) {
    let mut checker = StabilityChecker::new(tasks);
    opa_on_checker(&mut checker, max_checks)
}

/// Budgeted strict OPA over an existing checker (see
/// [`backtracking_on_checker`] for the sharing contract). A truncated
/// run gave up mid-level for lack of budget, not because a level was
/// unfillable — its `None` means "unknown", exactly like a truncated
/// backtracking run's.
pub fn opa_on_checker(
    checker: &mut StabilityChecker<'_>,
    max_checks: u64,
) -> (AssignmentOutcome, bool) {
    let n = checker.len();
    let hits_before = checker.cache_hits();
    let mut stats = AssignmentStats::default();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut remaining_mask = checker.full_mask();
    let mut bottom_up: Vec<usize> = Vec::with_capacity(n);
    let give_up = |checker: &StabilityChecker<'_>, mut stats: AssignmentStats, truncated| {
        stats.cache_hits = checker.cache_hits() - hits_before;
        stats.truncated = truncated;
        (
            AssignmentOutcome {
                assignment: None,
                stats,
            },
            truncated,
        )
    };
    while !remaining.is_empty() {
        let mut committed = None;
        for &cand in &remaining {
            if stats.checks >= max_checks {
                return give_up(checker, stats, true);
            }
            stats.checks += 1;
            if checker
                .check_mask(cand, remaining_mask & !(1u64 << cand))
                .stable
            {
                committed = Some(cand);
                break;
            }
        }
        match committed {
            Some(cand) => {
                remaining.retain(|&x| x != cand);
                remaining_mask &= !(1u64 << cand);
                bottom_up.push(cand);
            }
            None => return give_up(checker, stats, false),
        }
    }
    stats.cache_hits = checker.cache_hits() - hits_before;
    (
        AssignmentOutcome {
            assignment: Some(PriorityAssignment::from_lowest_first(&bottom_up)),
            stats,
        },
        false,
    )
}

/// Maximum task count accepted by [`exhaustive`] (10! = 3.6M
/// permutations).
pub const EXHAUSTIVE_MAX_TASKS: usize = 10;

/// Exhaustive search over all priority permutations; the ground truth.
///
/// Returns the first valid assignment in lexicographic order of
/// highest-first task indices, or `None` if no permutation is valid.
///
/// # Panics
///
/// Panics if `tasks.len() > EXHAUSTIVE_MAX_TASKS`.
pub fn exhaustive(tasks: &[ControlTask]) -> AssignmentOutcome {
    let n = tasks.len();
    assert!(
        n <= EXHAUSTIVE_MAX_TASKS,
        "exhaustive search is limited to {EXHAUSTIVE_MAX_TASKS} tasks"
    );
    let mut checker = StabilityChecker::new(tasks);
    let mut stats = AssignmentStats::default();
    let mut perm: Vec<usize> = Vec::with_capacity(n);
    let found = exhaustive_recurse(&mut checker, &mut perm, 0, &mut stats);
    stats.cache_hits = checker.cache_hits();
    AssignmentOutcome {
        assignment: found.map(|order| PriorityAssignment::from_highest_first(&order)),
        stats,
    }
}

/// Builds permutations highest-priority-first. A placed task's verdict
/// depends only on the set of tasks *above* it — exactly the prefix,
/// tracked as `prefix_mask` — so the check is final, pruning is exact,
/// and permutations sharing a prefix set share memoized verdicts.
fn exhaustive_recurse(
    checker: &mut StabilityChecker<'_>,
    perm: &mut Vec<usize>,
    prefix_mask: u64,
    stats: &mut AssignmentStats,
) -> Option<Vec<usize>> {
    let n = checker.len();
    if perm.len() == n {
        return Some(perm.clone());
    }
    for cand in 0..n {
        if prefix_mask & (1u64 << cand) != 0 {
            continue;
        }
        // The candidate occupies the next-lower level; its higher-priority
        // set is exactly the current prefix — a final verdict.
        stats.checks += 1;
        if checker.check_mask(cand, prefix_mask).stable {
            perm.push(cand);
            if let Some(found) =
                exhaustive_recurse(checker, perm, prefix_mask | (1u64 << cand), stats)
            {
                return Some(found);
            }
            perm.pop();
        }
    }
    None
}

/// Counts all valid priority assignments by exhaustive enumeration (for
/// tests and the anomaly census on small sets). Memoization makes this
/// near-linear in the number of distinct `(task, prefix-set)` states
/// instead of the number of permutations.
///
/// # Panics
///
/// Panics if `tasks.len() > EXHAUSTIVE_MAX_TASKS`.
pub fn count_valid_assignments(tasks: &[ControlTask]) -> u64 {
    let n = tasks.len();
    assert!(n <= EXHAUSTIVE_MAX_TASKS);
    fn recurse(checker: &mut StabilityChecker<'_>, placed: usize, prefix_mask: u64) -> u64 {
        let n = checker.len();
        if placed == n {
            return 1;
        }
        let mut total = 0;
        for cand in 0..n {
            if prefix_mask & (1u64 << cand) != 0 {
                continue;
            }
            if checker.check_mask(cand, prefix_mask).stable {
                total += recurse(checker, placed + 1, prefix_mask | (1u64 << cand));
            }
        }
        total
    }
    recurse(&mut StabilityChecker::new(tasks), 0, 0)
}

pub mod reference {
    //! Unmemoized reference implementations of the assignment
    //! algorithms — the pre-optimization code paths, retained verbatim
    //! as the test oracle: the memoized, zero-allocation searches in the
    //! parent module must return bit-identical results (assignment,
    //! feasibility, logical check and backtrack counts) to these, which
    //! the `csa-core` property tests assert on random task sets.
    //!
    //! Every function matches its parent-module namesake's contract;
    //! [`AssignmentStats::cache_hits`] is always 0 here.

    use super::{
        check_task, order_by_slack_desc, slack_admits, AssignmentOutcome, AssignmentStats,
        CandidateOrder, ControlTask, PriorityAssignment,
    };

    /// Reference [`crate::backtracking`] (uncached, allocating).
    pub fn backtracking(tasks: &[ControlTask]) -> AssignmentOutcome {
        backtracking_with_order(tasks, CandidateOrder::Input)
    }

    /// Reference [`crate::backtracking_with_order`].
    pub fn backtracking_with_order(
        tasks: &[ControlTask],
        order: CandidateOrder,
    ) -> AssignmentOutcome {
        backtracking_with_budget(tasks, order, u64::MAX).0
    }

    /// Reference [`crate::backtracking_with_budget`].
    pub fn backtracking_with_budget(
        tasks: &[ControlTask],
        order: CandidateOrder,
        max_checks: u64,
    ) -> (AssignmentOutcome, bool) {
        let n = tasks.len();
        let mut stats = AssignmentStats::default();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut bottom_up: Vec<usize> = Vec::with_capacity(n);
        let mut truncated = false;
        let found = backtrack_recurse_budgeted(
            tasks,
            order,
            &mut remaining,
            &mut bottom_up,
            &mut stats,
            max_checks,
            &mut truncated,
        );
        stats.truncated = truncated;
        (
            AssignmentOutcome {
                assignment: found.then(|| PriorityAssignment::from_lowest_first(&bottom_up)),
                stats,
            },
            truncated,
        )
    }

    fn backtrack_recurse_budgeted(
        tasks: &[ControlTask],
        order: CandidateOrder,
        remaining: &mut Vec<usize>,
        bottom_up: &mut Vec<usize>,
        stats: &mut AssignmentStats,
        max_checks: u64,
        truncated: &mut bool,
    ) -> bool {
        if remaining.is_empty() {
            return true;
        }
        if stats.checks >= max_checks {
            *truncated = true;
            return false;
        }
        // Determine the candidate evaluation order for this level:
        // ascending index, or by slack scored in that order (so slack
        // ties fall to the lower index).
        let mut sorted = remaining.clone();
        sorted.sort_unstable();
        let candidates: Vec<usize> = match order {
            CandidateOrder::Input => sorted,
            CandidateOrder::MaxSlackFirst => {
                let mut scored: Vec<(f64, usize)> = sorted
                    .iter()
                    .map(|&cand| {
                        let hp: Vec<usize> =
                            remaining.iter().copied().filter(|&x| x != cand).collect();
                        stats.checks += 1;
                        (check_task(tasks, cand, &hp).slack, cand)
                    })
                    .collect();
                order_by_slack_desc(&mut scored);
                scored
                    .into_iter()
                    .filter(|&(slack, _)| slack_admits(slack))
                    .map(|(_, cand)| cand)
                    .collect()
            }
        };
        for cand in candidates {
            if stats.checks >= max_checks {
                *truncated = true;
                return false;
            }
            let stable = match order {
                CandidateOrder::Input => {
                    let hp: Vec<usize> = remaining.iter().copied().filter(|&x| x != cand).collect();
                    stats.checks += 1;
                    check_task(tasks, cand, &hp).stable
                }
                // MaxSlackFirst pre-filtered to stable candidates.
                CandidateOrder::MaxSlackFirst => true,
            };
            if stable {
                #[expect(clippy::expect_used, reason = "P001: cand comes from `remaining`")]
                let pos = remaining
                    .iter()
                    .position(|&x| x == cand)
                    .expect("candidate must be in the remaining set");
                remaining.swap_remove(pos);
                bottom_up.push(cand);
                if backtrack_recurse_budgeted(
                    tasks, order, remaining, bottom_up, stats, max_checks, truncated,
                ) {
                    return true;
                }
                if *truncated {
                    return false;
                }
                stats.backtracks += 1;
                bottom_up.pop();
                remaining.push(cand);
            }
        }
        false
    }

    /// Reference [`crate::unsafe_quadratic`].
    pub fn unsafe_quadratic(tasks: &[ControlTask]) -> AssignmentOutcome {
        let n = tasks.len();
        let mut stats = AssignmentStats::default();
        // Step 1: worst-case analysis of every task.
        let verdicts: Vec<_> = (0..n)
            .map(|i| {
                let hp: Vec<usize> = (0..n).filter(|&x| x != i).collect();
                stats.checks += 1;
                check_task(tasks, i, &hp)
            })
            .collect();
        // Step 2: sort by slack, largest slack to the bottom.
        let bottom_up = super::criticality_order(&verdicts);
        // Step 3: the bottom task's worst-case check is exact.
        if !verdicts[bottom_up[0]].stable {
            return AssignmentOutcome {
                assignment: None,
                stats,
            };
        }
        let assignment = PriorityAssignment::from_lowest_first(&bottom_up);
        for &i in &bottom_up[1..] {
            if !verdicts[i].stable {
                stats.checks += 1;
                if !check_task(tasks, i, &assignment.hp_indices(i)).stable {
                    return AssignmentOutcome {
                        assignment: None,
                        stats,
                    };
                }
            }
        }
        AssignmentOutcome {
            assignment: Some(assignment),
            stats,
        }
    }

    /// Reference [`crate::audsley_opa`].
    pub fn audsley_opa(tasks: &[ControlTask]) -> AssignmentOutcome {
        let (outcome, truncated) = audsley_opa_with_budget(tasks, u64::MAX);
        debug_assert!(!truncated, "unbounded OPA cannot be truncated");
        outcome
    }

    /// Reference [`crate::audsley_opa_with_budget`].
    pub fn audsley_opa_with_budget(
        tasks: &[ControlTask],
        max_checks: u64,
    ) -> (AssignmentOutcome, bool) {
        let n = tasks.len();
        let mut stats = AssignmentStats::default();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut bottom_up: Vec<usize> = Vec::with_capacity(n);
        while !remaining.is_empty() {
            let mut committed = None;
            for &cand in &remaining {
                if stats.checks >= max_checks {
                    stats.truncated = true;
                    return (
                        AssignmentOutcome {
                            assignment: None,
                            stats,
                        },
                        true,
                    );
                }
                let hp: Vec<usize> = remaining.iter().copied().filter(|&x| x != cand).collect();
                stats.checks += 1;
                if check_task(tasks, cand, &hp).stable {
                    committed = Some(cand);
                    break;
                }
            }
            match committed {
                Some(cand) => {
                    remaining.retain(|&x| x != cand);
                    bottom_up.push(cand);
                }
                None => {
                    return (
                        AssignmentOutcome {
                            assignment: None,
                            stats,
                        },
                        false,
                    )
                }
            }
        }
        (
            AssignmentOutcome {
                assignment: Some(PriorityAssignment::from_lowest_first(&bottom_up)),
                stats,
            },
            false,
        )
    }

    /// Reference [`crate::exhaustive`].
    ///
    /// # Panics
    ///
    /// Panics if `tasks.len() > EXHAUSTIVE_MAX_TASKS`.
    pub fn exhaustive(tasks: &[ControlTask]) -> AssignmentOutcome {
        let n = tasks.len();
        assert!(
            n <= super::EXHAUSTIVE_MAX_TASKS,
            "exhaustive search is limited to {} tasks",
            super::EXHAUSTIVE_MAX_TASKS
        );
        let mut stats = AssignmentStats::default();
        let mut perm: Vec<usize> = Vec::with_capacity(n);
        let mut used = vec![false; n];
        let found = exhaustive_recurse(tasks, &mut perm, &mut used, &mut stats);
        AssignmentOutcome {
            assignment: found.map(|order| PriorityAssignment::from_highest_first(&order)),
            stats,
        }
    }

    fn exhaustive_recurse(
        tasks: &[ControlTask],
        perm: &mut Vec<usize>,
        used: &mut [bool],
        stats: &mut AssignmentStats,
    ) -> Option<Vec<usize>> {
        let n = tasks.len();
        if perm.len() == n {
            return Some(perm.clone());
        }
        for cand in 0..n {
            if used[cand] {
                continue;
            }
            stats.checks += 1;
            if check_task(tasks, cand, perm).stable {
                used[cand] = true;
                perm.push(cand);
                if let Some(found) = exhaustive_recurse(tasks, perm, used, stats) {
                    return Some(found);
                }
                perm.pop();
                used[cand] = false;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::is_valid_assignment;

    fn classic() -> Vec<ControlTask> {
        vec![
            ControlTask::from_parts(0, 1, 1, 4, 1.0, 1e-8).unwrap(),
            ControlTask::from_parts(1, 2, 2, 6, 1.0, 1e-8).unwrap(),
            ControlTask::from_parts(2, 3, 3, 10, 1.0, 1.2e-8).unwrap(),
        ]
    }

    #[test]
    fn all_algorithms_solve_the_classic_set() {
        let tasks = classic();
        for out in [
            backtracking(&tasks),
            unsafe_quadratic(&tasks),
            audsley_opa(&tasks),
            exhaustive(&tasks),
        ] {
            let pa = out.assignment.expect("solvable set");
            assert!(is_valid_assignment(&tasks, &pa));
            assert!(out.stats.checks > 0);
        }
    }

    #[test]
    fn backtracking_matches_exhaustive_feasibility() {
        // A set with *no* valid assignment: three tasks each requiring
        // zero interference (tight bounds) but nonzero jitter from
        // execution variation.
        let tasks = vec![
            ControlTask::from_parts(0, 1, 5, 10, 1.0, 6e-9).unwrap(),
            ControlTask::from_parts(1, 1, 5, 10, 1.0, 6e-9).unwrap(),
            ControlTask::from_parts(2, 1, 5, 10, 1.0, 5e-9).unwrap(),
        ];
        // Lowest-priority task sees hp interference pushing L+aJ over b.
        let bt = backtracking(&tasks);
        let ex = exhaustive(&tasks);
        assert_eq!(bt.assignment.is_some(), ex.assignment.is_some());
    }

    #[test]
    fn infeasible_set_detected_by_everyone() {
        // Two tasks that each can only be stable at the highest priority:
        // c in [1, 4] of period 8, bound allows J but no interference.
        // At the lowest priority, R_w = 4 + 4 = 8, R_b = 1 => L + J = 8
        // ticks > 5 ticks budget.
        let tasks = vec![
            ControlTask::from_parts(0, 1, 4, 8, 1.0, 5e-9).unwrap(),
            ControlTask::from_parts(1, 1, 4, 8, 1.0, 5e-9).unwrap(),
        ];
        assert!(backtracking(&tasks).assignment.is_none());
        assert!(unsafe_quadratic(&tasks).assignment.is_none());
        assert!(audsley_opa(&tasks).assignment.is_none());
        assert!(exhaustive(&tasks).assignment.is_none());
        assert_eq!(count_valid_assignments(&tasks), 0);
    }

    #[test]
    fn backtracking_output_is_always_valid_on_random_sets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut solved = 0;
        for _ in 0..300 {
            let n = rng.gen_range(2..6);
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
            let out = backtracking(&tasks);
            if let Some(pa) = out.assignment {
                assert!(
                    is_valid_assignment(&tasks, &pa),
                    "backtracking returned an invalid assignment"
                );
                solved += 1;
            }
            // Completeness vs ground truth.
            let ex = exhaustive(&tasks);
            assert_eq!(
                backtracking(&tasks).assignment.is_some(),
                ex.assignment.is_some(),
                "backtracking and exhaustive disagree on feasibility"
            );
        }
        assert!(
            solved > 50,
            "too few solvable sets ({solved}) to be meaningful"
        );
    }

    #[test]
    fn audsley_opa_output_is_always_valid() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..200 {
            let n = rng.gen_range(2..6);
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
            if let Some(pa) = audsley_opa(&tasks).assignment {
                assert!(is_valid_assignment(&tasks, &pa));
            }
        }
    }

    #[test]
    fn unsafe_quadratic_check_count_is_quadratic() {
        // On an easy set (everything passes round one) the unsafe
        // algorithm performs exactly n checks; worst case n + (n-1) + ...
        let tasks: Vec<ControlTask> = (0..8)
            .map(|i| ControlTask::from_parts(i as u32, 1, 1, 1000 + i as u64, 1.0, 1.0).unwrap())
            .collect();
        let out = unsafe_quadratic(&tasks);
        assert!(out.assignment.is_some());
        assert_eq!(out.stats.checks, 8);
        let max_checks = (8 * 9) / 2;
        assert!(out.stats.checks <= max_checks as u64);
    }

    #[test]
    fn slack_order_reduces_or_equals_backtracks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let mut total_input = 0u64;
        let mut total_slack = 0u64;
        for _ in 0..100 {
            let n = rng.gen_range(3..7);
            let tasks: Vec<ControlTask> = (0..n)
                .map(|i| {
                    let period = rng.gen_range(20..100u64);
                    let cw = rng.gen_range(1..=period / 2);
                    let cb = rng.gen_range(1..=cw);
                    let a = 1.0 + rng.gen::<f64>() * 2.0;
                    let b = rng.gen_range(0.5..2.0) * period as f64 * 1e-9;
                    ControlTask::from_parts(i as u32, cb, cw, period, a, b).unwrap()
                })
                .collect();
            let a = backtracking_with_order(&tasks, CandidateOrder::Input);
            let b = backtracking_with_order(&tasks, CandidateOrder::MaxSlackFirst);
            assert_eq!(a.assignment.is_some(), b.assignment.is_some());
            if let Some(pa) = b.assignment {
                assert!(is_valid_assignment(&tasks, &pa));
            }
            total_input += a.stats.backtracks;
            total_slack += b.stats.backtracks;
        }
        // The heuristic must not be wildly worse overall.
        assert!(total_slack <= total_input + 50);
    }

    #[test]
    fn exhaustive_respects_limit() {
        let tasks: Vec<ControlTask> = (0..3)
            .map(|i| ControlTask::from_parts(i, 1, 1, 100, 1.0, 1.0).unwrap())
            .collect();
        assert!(exhaustive(&tasks).assignment.is_some());
        assert_eq!(count_valid_assignments(&tasks), 6); // all 3! work
    }

    #[test]
    fn slack_ordering_survives_nan_and_rejects_it() {
        // Regression for the former `partial_cmp(..).unwrap()` panic: a
        // NaN slack must neither crash the sort nor be admitted as a
        // stable candidate. (A NaN slack cannot be produced through the
        // public task model — `b` is finite and `L + aJ` is a product of
        // finite values whose overflow saturates to infinity, never NaN —
        // so the ordering helper is exercised directly.)
        let mut scored = vec![
            (1.0, 0),
            (f64::NAN, 1),
            (-2.0, 2),
            (f64::INFINITY, 3),
            (f64::NEG_INFINITY, 4),
        ];
        order_by_slack_desc(&mut scored);
        // NaN orders above +inf under total_cmp; everything else keeps
        // the usual descending order.
        let order: Vec<usize> = scored.iter().map(|&(_, c)| c).collect();
        assert_eq!(order, vec![1, 3, 0, 2, 4]);
        // The stability filter rejects NaN along with negative slack.
        let admitted: Vec<usize> = scored
            .iter()
            .filter(|&&(s, _)| slack_admits(s))
            .map(|&(_, c)| c)
            .collect();
        assert_eq!(admitted, vec![3, 0]);
    }

    #[test]
    fn ties_keep_input_order_after_total_cmp_switch() {
        // The stable sort must preserve the incoming order on exact
        // slack ties: both searches score candidates in ascending index
        // order, so ties fall to the lower index, and the failed-set
        // memo relies on that order depending on the remaining set only.
        let mut scored = vec![(0.5, 7), (0.5, 3), (0.5, 9), (1.0, 1)];
        order_by_slack_desc(&mut scored);
        let order: Vec<usize> = scored.iter().map(|&(_, c)| c).collect();
        assert_eq!(order, vec![1, 7, 3, 9]);
    }

    #[test]
    fn memoized_search_matches_reference_on_classic_sets() {
        let tasks = classic();
        for order in [CandidateOrder::Input, CandidateOrder::MaxSlackFirst] {
            let fast = backtracking_with_order(&tasks, order);
            let naive = reference::backtracking_with_order(&tasks, order);
            assert_eq!(fast.assignment, naive.assignment);
            assert_eq!(fast.stats.checks, naive.stats.checks);
            assert_eq!(fast.stats.backtracks, naive.stats.backtracks);
        }
        let fast = unsafe_quadratic(&tasks);
        let naive = reference::unsafe_quadratic(&tasks);
        assert_eq!(fast.assignment, naive.assignment);
        assert_eq!(fast.stats.checks, naive.stats.checks);
        let fast = audsley_opa(&tasks);
        let naive = reference::audsley_opa(&tasks);
        assert_eq!(fast.assignment, naive.assignment);
        assert_eq!(fast.stats.checks, naive.stats.checks);
        let fast = exhaustive(&tasks);
        let naive = reference::exhaustive(&tasks);
        assert_eq!(fast.assignment, naive.assignment);
        assert_eq!(fast.stats.checks, naive.stats.checks);
    }

    #[test]
    fn backtrack_heavy_instance_hits_the_memo() {
        // The factorial blow-up family from the `worst_case` integration
        // test: (n-2) interchangeable tasks plus two top-only tasks. The
        // search re-enters the same (candidate, remaining-set) states
        // over and over; the memo must absorb almost all of them while
        // the logical check count stays exactly the reference's.
        let n = 7;
        let mut tasks = Vec::with_capacity(n);
        for i in 0..n - 2 {
            tasks.push(ControlTask::from_parts(i as u32, 1, 1, 1_000_000, 1.0, 1.0).unwrap());
        }
        for i in n - 2..n {
            tasks
                .push(ControlTask::from_parts(i as u32, 100, 100, 1_000_000, 1.0, 100e-9).unwrap());
        }
        let fast = backtracking(&tasks);
        let naive = reference::backtracking(&tasks);
        assert_eq!(fast.assignment, naive.assignment);
        assert_eq!(fast.stats.checks, naive.stats.checks);
        assert_eq!(fast.stats.backtracks, naive.stats.backtracks);
        assert_eq!(naive.stats.cache_hits, 0);
        assert!(
            fast.stats.cache_hits * 2 > fast.stats.checks,
            "expected the memo to absorb most of the {} logical checks, hit {}",
            fast.stats.checks,
            fast.stats.cache_hits
        );
    }

    #[test]
    fn budgeted_opa_truncates_honestly() {
        let tasks = classic();
        // One check cannot fill a level of three tasks: unknown.
        let (out, truncated) = audsley_opa_with_budget(&tasks, 1);
        assert!(truncated);
        assert!(out.stats.truncated);
        assert!(out.assignment.is_none());
        let (naive, naive_trunc) = reference::audsley_opa_with_budget(&tasks, 1);
        assert_eq!(truncated, naive_trunc);
        assert_eq!(out.stats.checks, naive.stats.checks);
        // A budget above OPA's quadratic ceiling changes nothing.
        let (full, full_trunc) = audsley_opa_with_budget(&tasks, 1_000);
        assert!(!full_trunc);
        assert_eq!(full.assignment, audsley_opa(&tasks).assignment);
        assert_eq!(full.stats, audsley_opa(&tasks).stats);
    }

    #[test]
    fn budget_truncation_is_memo_invariant() {
        let tasks = classic();
        for cap in 0..8u64 {
            let (fast, fast_trunc) = backtracking_with_budget(&tasks, CandidateOrder::Input, cap);
            let (naive, naive_trunc) =
                reference::backtracking_with_budget(&tasks, CandidateOrder::Input, cap);
            assert_eq!(fast_trunc, naive_trunc, "cap {cap}");
            assert_eq!(fast.assignment, naive.assignment, "cap {cap}");
            assert_eq!(fast.stats.checks, naive.stats.checks, "cap {cap}");
            assert_eq!(fast.stats.backtracks, naive.stats.backtracks, "cap {cap}");
            // The stats flag mirrors the tuple flag on both paths (it
            // used to be dropped inside the u64::MAX wrappers).
            assert_eq!(fast.stats.truncated, fast_trunc, "cap {cap}");
            assert_eq!(naive.stats.truncated, naive_trunc, "cap {cap}");
        }
    }
}
