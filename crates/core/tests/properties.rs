//! Property-based tests over the priority-assignment algorithms.
//!
//! The key relationships (paper §IV):
//!
//! * Algorithm 1 (backtracking) is *sound* (outputs are valid) and
//!   *complete* (agrees with exhaustive search on feasibility).
//! * Strict OPA is sound but may fail where backtracking succeeds —
//!   never the other way around.
//! * Unsafe Quadratic may output invalid assignments (that is Table I's
//!   subject), but whenever it fails to output anything, backtracking
//!   may still succeed; when backtracking fails, nobody may succeed
//!   validly.

use csa_core::{
    audsley_opa, backtracking, backtracking_on_checker, backtracking_with_budget,
    backtracking_with_order, count_valid_assignments, exhaustive, is_valid_assignment, portfolio,
    portfolio_with_budget, reference, unsafe_quadratic, unsafe_quadratic_on, CandidateOrder,
    ControlTask, PortfolioStage, PriorityAssignment, StabilityChecker,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Strategy: a small control task set with calibrated-ish bounds.
fn task_set() -> impl Strategy<Value = Vec<ControlTask>> {
    proptest::collection::vec((2u64..40, 2u64..8, 1u64..8, 1.0f64..5.0, 0.3f64..3.0), 2..6)
        .prop_map(|specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (period_base, util_div, best_div, a, b_scale))| {
                    let period = period_base * 4;
                    let cw = (period / util_div).max(1);
                    let cb = (cw / best_div).max(1);
                    let b = b_scale * period as f64 * 1e-9;
                    ControlTask::from_parts(i as u32, cb, cw, period, a, b).unwrap()
                })
                .collect()
        })
}

/// Strategy: a task set and a uniformly random priority order over it
/// (the tasks sorted by a random key each).
fn task_set_and_order() -> impl Strategy<Value = (Vec<ControlTask>, PriorityAssignment)> {
    task_set()
        .prop_flat_map(|tasks| {
            let n = tasks.len();
            (Just(tasks), proptest::collection::vec(any::<u64>(), n))
        })
        .prop_map(|(tasks, keys)| {
            let mut order: Vec<usize> = (0..tasks.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            (tasks, PriorityAssignment::from_highest_first(&order))
        })
}

/// Invalid and valid verdicts (in that order) seen by
/// `checker_validity_cases`.
static VALIDITY_OUTCOMES: [AtomicU32; 2] = [AtomicU32::new(0), AtomicU32::new(0)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Not a test of its own: `checker_validity_walk_matches_analysis`
    // runs it and then checks that both verdicts came up.
    fn checker_validity_cases(case in task_set_and_order()) {
        let (tasks, pa) = case;
        let expect = is_valid_assignment(&tasks, &pa);
        prop_assert_eq!(StabilityChecker::new(&tasks).is_valid(&pa), expect);
        // A memo warmed by the Table I steps answers the same.
        let mut warm = StabilityChecker::new(&tasks);
        let uq = unsafe_quadratic_on(&mut warm).assignment;
        let _ = backtracking_on_checker(&mut warm, CandidateOrder::Input, u64::MAX);
        prop_assert_eq!(warm.is_valid(&pa), expect);
        if let Some(uq) = uq {
            prop_assert_eq!(warm.is_valid(&uq), is_valid_assignment(&tasks, &uq));
        }
        VALIDITY_OUTCOMES[usize::from(expect)].fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn checker_validity_walk_matches_analysis() {
    checker_validity_cases();
    // Random orders, not Unsafe Quadratic's output, supply the invalid
    // side: its output is valid in every case drawn here, as in the
    // zero invalid rate EXPERIMENTS.md explains.
    let [invalid, valid] = [0, 1].map(|v| VALIDITY_OUTCOMES[v].load(Ordering::Relaxed));
    assert!(
        invalid > 0 && valid > 0,
        "{invalid} invalid and {valid} valid orders: both verdicts must be exercised"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn backtracking_sound_and_complete(tasks in task_set()) {
        let bt = backtracking(&tasks);
        let ex = exhaustive(&tasks);
        prop_assert_eq!(bt.assignment.is_some(), ex.assignment.is_some(),
            "backtracking and exhaustive disagree on feasibility");
        if let Some(pa) = bt.assignment {
            prop_assert!(is_valid_assignment(&tasks, &pa));
        }
        if let Some(pa) = ex.assignment {
            prop_assert!(is_valid_assignment(&tasks, &pa));
        }
        // Feasibility agrees with the valid-assignment count.
        let count = count_valid_assignments(&tasks);
        prop_assert_eq!(count > 0, backtracking(&tasks).assignment.is_some());
    }

    #[test]
    fn opa_success_implies_backtracking_success(tasks in task_set()) {
        let opa = audsley_opa(&tasks);
        if let Some(pa) = opa.assignment {
            // OPA output is always valid...
            prop_assert!(is_valid_assignment(&tasks, &pa));
            // ...and backtracking, being complete, must also succeed.
            prop_assert!(backtracking(&tasks).assignment.is_some());
        }
    }

    #[test]
    fn unsafe_quadratic_failure_is_honest(tasks in task_set()) {
        let uq = unsafe_quadratic(&tasks);
        match uq.assignment {
            Some(_) => {
                // May be invalid — that is the paper's Table I. No
                // assertion on validity here.
            }
            None => {
                // If the *first* round already passes nobody (exactly n
                // checks performed), the bottom level cannot be filled in
                // any assignment: genuinely infeasible. Later-round
                // failures carry no such guarantee (the batch commitment
                // may simply have painted the algorithm into a corner).
                if uq.stats.checks == tasks.len() as u64 {
                    prop_assert!(exhaustive(&tasks).assignment.is_none());
                }
            }
        }
    }

    #[test]
    fn check_counts_are_polynomial_for_quadratic_algorithms(tasks in task_set()) {
        let n = tasks.len() as u64;
        let uq = unsafe_quadratic(&tasks);
        let opa = audsley_opa(&tasks);
        prop_assert!(uq.stats.checks <= n * (n + 1) / 2);
        prop_assert!(opa.stats.checks <= n * (n + 1) / 2);
        prop_assert_eq!(uq.stats.backtracks, 0);
        prop_assert_eq!(opa.stats.backtracks, 0);
    }

    #[test]
    fn memoized_backtracking_is_bit_identical_to_reference(tasks in task_set()) {
        // The tentpole contract of the zero-allocation/memoized search:
        // same assignment, same feasibility, same *logical* check and
        // backtrack counts as the retained naive implementation — the
        // memo may only change cache_hits and wall-clock time.
        for order in [CandidateOrder::Input, CandidateOrder::MaxSlackFirst] {
            let fast = backtracking_with_order(&tasks, order);
            let naive = reference::backtracking_with_order(&tasks, order);
            prop_assert_eq!(&fast.assignment, &naive.assignment, "order {:?}", order);
            prop_assert_eq!(fast.stats.checks, naive.stats.checks, "order {:?}", order);
            prop_assert_eq!(fast.stats.backtracks, naive.stats.backtracks, "order {:?}", order);
            prop_assert_eq!(naive.stats.cache_hits, 0u64);
        }
    }

    #[test]
    fn memoized_helpers_are_bit_identical_to_reference(tasks in task_set()) {
        let fast = unsafe_quadratic(&tasks);
        let naive = reference::unsafe_quadratic(&tasks);
        prop_assert_eq!(&fast.assignment, &naive.assignment);
        prop_assert_eq!(fast.stats.checks, naive.stats.checks);

        let fast = audsley_opa(&tasks);
        let naive = reference::audsley_opa(&tasks);
        prop_assert_eq!(&fast.assignment, &naive.assignment);
        prop_assert_eq!(fast.stats.checks, naive.stats.checks);

        let fast = exhaustive(&tasks);
        let naive = reference::exhaustive(&tasks);
        prop_assert_eq!(&fast.assignment, &naive.assignment);
        prop_assert_eq!(fast.stats.checks, naive.stats.checks);
    }

    #[test]
    fn budgeted_search_is_memo_invariant(tasks in task_set(), cap in 0u64..40) {
        // Truncation decisions count logical checks, so neither memo may
        // move the truncation point, in either candidate order.
        for order in [CandidateOrder::Input, CandidateOrder::MaxSlackFirst] {
            let (fast, fast_trunc) = backtracking_with_budget(&tasks, order, cap);
            let (naive, naive_trunc) = reference::backtracking_with_budget(&tasks, order, cap);
            prop_assert_eq!(fast_trunc, naive_trunc, "order {:?}", order);
            prop_assert_eq!(&fast.assignment, &naive.assignment, "order {:?}", order);
            prop_assert_eq!(fast.stats.checks, naive.stats.checks, "order {:?}", order);
            prop_assert_eq!(fast.stats.backtracks, naive.stats.backtracks, "order {:?}", order);
        }
    }

    #[test]
    fn portfolio_equals_backtracking_when_budget_not_hit(tasks in task_set(), cap in 0u64..80) {
        // The portfolio's anytime contract: any returned assignment is
        // valid, and whenever the run is not truncated its feasibility
        // verdict is exactly Algorithm 1's (= exhaustive's, since
        // backtracking is complete). A truncated run must return no
        // assignment and claim nothing.
        for budget in [cap, u64::MAX] {
            let out = portfolio_with_budget(&tasks, budget);
            if let Some(pa) = &out.assignment {
                prop_assert!(!out.truncated(), "a found assignment is a decision");
                prop_assert!(is_valid_assignment(&tasks, pa), "budget {budget}");
            }
            if !out.truncated() {
                prop_assert_eq!(
                    out.assignment.is_some(),
                    backtracking(&tasks).assignment.is_some(),
                    "un-truncated portfolio disagrees with Algorithm 1 at budget {}", budget
                );
            }
        }
        // Unbounded runs always decide.
        prop_assert!(!portfolio(&tasks).truncated());
    }

    #[test]
    fn portfolio_budget_accounting_is_exact(tasks in task_set(), cap in 1u64..120) {
        // Stage reports sum to the aggregate, the spend respects the
        // documented `< cap + n` bound, and runs are deterministic.
        let n = tasks.len() as u64;
        let out = portfolio_with_budget(&tasks, cap);
        let sum_checks: u64 = out.stages.iter().map(|s| s.checks).sum();
        let sum_hits: u64 = out.stages.iter().map(|s| s.cache_hits).sum();
        prop_assert_eq!(out.stats.checks, sum_checks);
        prop_assert_eq!(out.stats.cache_hits, sum_hits);
        prop_assert!(out.stats.checks < cap + n,
            "spent {} checks against budget {}", out.stats.checks, cap);
        prop_assert_eq!(&out, &portfolio_with_budget(&tasks, cap));
        // A winner exists iff an assignment does, and OPA wins whenever
        // plain OPA would succeed within budget (stage order is fixed).
        prop_assert_eq!(out.winner.is_some(), out.assignment.is_some());
        let opa = audsley_opa(&tasks);
        if opa.assignment.is_some() && opa.stats.checks <= cap {
            prop_assert_eq!(out.winner, Some(PortfolioStage::Opa));
        }
    }

    #[test]
    fn truncation_flag_matches_budget_tuple(tasks in task_set(), cap in 0u64..40) {
        // The satellite fix: `AssignmentStats::truncated` must mirror
        // the tuple flag on both the memoized and reference paths (it
        // used to be dropped on the `u64::MAX` wrapper path).
        let (fast, fast_trunc) = backtracking_with_budget(&tasks, CandidateOrder::Input, cap);
        prop_assert_eq!(fast.stats.truncated, fast_trunc);
        let (naive, naive_trunc) =
            reference::backtracking_with_budget(&tasks, CandidateOrder::Input, cap);
        prop_assert_eq!(naive.stats.truncated, naive_trunc);
        // Bit-identical apart from cache_hits (reference never caches).
        prop_assert_eq!(fast.stats.truncated, naive.stats.truncated);
        prop_assert_eq!(fast.stats.checks, naive.stats.checks);
        prop_assert_eq!(fast.stats.backtracks, naive.stats.backtracks);
        let unbudgeted = backtracking(&tasks);
        prop_assert!(!unbudgeted.stats.truncated);
    }

    #[test]
    fn valid_assignments_survive_reanalysis(tasks in task_set()) {
        // analyze/is_valid_assignment must be deterministic and
        // consistent with the per-level checks used inside the solvers.
        if let Some(pa) = backtracking(&tasks).assignment {
            for _ in 0..3 {
                prop_assert!(is_valid_assignment(&tasks, &pa));
            }
        }
    }
}
