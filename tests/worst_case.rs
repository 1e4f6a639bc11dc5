//! The paper's complexity claims, demonstrated constructively:
//! Algorithm 1 is quadratic *on average* (Fig. 5) but exponential in the
//! worst case — and a check budget tames the pathology.

use csa_core::CandidateOrder::{Input, MaxSlackFirst};
use csa_core::{
    backtracking, backtracking_on_checker, backtracking_with_budget, backtracking_with_order,
    portfolio, portfolio_with_budget, reference, AssignmentOutcome, AssignmentStats,
    CandidateOrder, ControlTask, PortfolioStage, StabilityChecker,
};
use csa_experiments::artifact::Fnv64;
use csa_experiments::{
    classify_instance, generate_benchmark, instance_seed, BenchmarkConfig, PeriodModel,
    SearchConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A factorial blow-up instance: `n - 2` interchangeable "flexible"
/// tasks (stable anywhere) plus two "top-only" tasks that are stable
/// only with an empty higher-priority set. Both top-only tasks demand
/// the single top level, so the instance is infeasible — but the search
/// only discovers the conflict after placing all flexible tasks, and it
/// retries every one of their `(n-2)!` orderings.
fn factorial_instance(n: usize) -> Vec<ControlTask> {
    assert!(n >= 3);
    let mut tasks = Vec::with_capacity(n);
    for i in 0..n - 2 {
        // Flexible: tiny demand, huge period, generous bound.
        tasks.push(ControlTask::from_parts(i as u32, 1, 1, 1_000_000, 1.0, 1.0).unwrap());
    }
    for i in n - 2..n {
        // Top-only: stable alone (L + aJ = c = 100 ns <= b = 100 ns),
        // destabilized by any interference (Rw grows => J grows).
        tasks.push(ControlTask::from_parts(i as u32, 100, 100, 1_000_000, 1.0, 100e-9).unwrap());
    }
    tasks
}

#[test]
fn worst_case_check_count_grows_factorially() {
    // The number of checks explodes combinatorially with n: the ratio
    // of successive counts grows roughly linearly (the signature of a
    // factorial, never of a polynomial of fixed degree).
    let mut counts = Vec::new();
    for n in [5usize, 6, 7, 8] {
        let tasks = factorial_instance(n);
        let (outcome, truncated) =
            backtracking_with_budget(&tasks, CandidateOrder::Input, u64::MAX);
        assert!(!truncated);
        assert!(outcome.assignment.is_none(), "instance is infeasible");
        counts.push(outcome.stats.checks as f64);
    }
    let r1 = counts[1] / counts[0];
    let r2 = counts[2] / counts[1];
    let r3 = counts[3] / counts[2];
    assert!(
        r3 > r2 && r2 > r1,
        "successive growth ratios must increase (factorial): {counts:?}"
    );
    // Far beyond quadratic already at n = 8.
    assert!(
        counts[3] > 20.0 * 64.0,
        "n=8 should need thousands of checks, got {}",
        counts[3]
    );
}

#[test]
fn budget_tames_the_blow_up() {
    let tasks = factorial_instance(9);
    // Unbounded: very expensive. Budgeted: stops at the cap and reports
    // the truncation honestly.
    let cap = 500;
    let (outcome, truncated) = backtracking_with_budget(&tasks, CandidateOrder::Input, cap);
    assert!(truncated, "the budget must bite on this instance");
    assert!(outcome.assignment.is_none());
    assert!(outcome.stats.checks <= cap + 1);
}

#[test]
fn budget_does_not_disturb_easy_instances() {
    // On a feasible benign set the budget is never reached and the
    // result matches the unbounded search.
    let tasks = vec![
        ControlTask::from_parts(0, 1, 1, 4, 1.0, 1e-8).unwrap(),
        ControlTask::from_parts(1, 2, 2, 6, 1.0, 1e-8).unwrap(),
        ControlTask::from_parts(2, 3, 3, 10, 1.0, 1.2e-8).unwrap(),
    ];
    let (bounded, truncated) = backtracking_with_budget(&tasks, CandidateOrder::Input, 10_000);
    assert!(!truncated);
    let unbounded = csa_core::backtracking(&tasks);
    assert_eq!(bounded.assignment, unbounded.assignment);
    assert_eq!(bounded.stats, unbounded.stats);
}

/// `layers` layers of `width` interchangeable tasks plus two top-only
/// tasks. Every period dwarfs the total demand, so each higher-priority
/// task interferes exactly once, and `a = 1` makes `L + aJ` the
/// worst-case response time. A layer-`j` task's bound admits exactly
/// the demand of layers `>= j` plus the tops, with half a tick to
/// spare, and one task of a layer outweighs everything above it: each
/// layer must sit below the next, in any order within it, and both
/// top-only tasks need the top level. The instance is infeasible, and
/// plain backtracking learns it once per each of the `(width!)^layers`
/// layer orderings.
fn layered_instance(layers: usize, width: usize) -> Vec<ControlTask> {
    const PERIOD: u64 = 1_000_000_000;
    const TOP: u64 = 1;
    let width_u = width as u64;
    // Execution time per layer, the bottom layer first.
    let mut c = vec![0u64; layers];
    let mut above = 2 * TOP;
    for j in (0..layers).rev() {
        c[j] = above + 1;
        above += width_u * c[j];
    }
    assert!(above < PERIOD, "every task must interfere exactly once");
    let mut tasks = Vec::with_capacity(layers * width + 2);
    // Demand of layers `>= j` plus the tops.
    let mut admitted = above;
    for &cj in &c {
        for _ in 0..width {
            let id = tasks.len() as u32;
            let b = (admitted as f64 + 0.5) * 1e-9;
            tasks.push(ControlTask::from_parts(id, cj, cj, PERIOD, 1.0, b).unwrap());
        }
        admitted -= width_u * cj;
    }
    for _ in 0..2 {
        let id = tasks.len() as u32;
        let b = (TOP as f64 + 0.5) * 1e-9;
        tasks.push(ControlTask::from_parts(id, TOP, TOP, PERIOD, 1.0, b).unwrap());
    }
    tasks
}

/// Folds one search's counters into `h`.
fn digest_stats(h: &mut Fnv64, stats: &AssignmentStats) {
    for v in [stats.checks, stats.backtracks, stats.cache_hits] {
        h.write_u64(v);
    }
    h.write_u64(u64::from(stats.truncated));
}

/// Folds a checker's totals into `h`.
fn digest_checker(h: &mut Fnv64, checker: &StabilityChecker<'_>) {
    h.write_u64(checker.logical_checks());
    h.write_u64(checker.computed_checks());
}

/// Asserts that a memoized search replays the reference one: the same
/// assignment, logical checks, backtracks and truncation flag, with
/// each run's stats flag mirroring its tuple flag.
fn assert_replays(fast: &(AssignmentOutcome, bool), naive: &(AssignmentOutcome, bool), ctx: &str) {
    let ((fast, fast_truncated), (naive, naive_truncated)) = (fast, naive);
    assert_eq!(fast.assignment, naive.assignment, "{ctx}");
    assert_eq!(fast.stats.checks, naive.stats.checks, "{ctx}");
    assert_eq!(fast.stats.backtracks, naive.stats.backtracks, "{ctx}");
    assert_eq!(fast_truncated, naive_truncated, "{ctx}");
    assert_eq!(fast.stats.truncated, *fast_truncated, "{ctx}");
    assert_eq!(naive.stats.truncated, *naive_truncated, "{ctx}");
}

#[test]
fn every_truncation_point_matches_the_reference() {
    // Every cap from 0 to each instance's full cost + 2, plus u64::MAX:
    // the input-order search at the cap and the slack-order search at
    // half of it must replay the unmemoized reference. The digest pins
    // what the reference cannot (it never caches): the hit counts of a
    // cold search, and the counts and checker totals of that slack-order
    // slice followed by an input-order search on one warm checker, as
    // the portfolio runs them. It was re-recorded when slack ties began
    // to fall to the lower index, which moves hit counts only.
    let mut instances: Vec<Vec<ControlTask>> = (4..=8).map(factorial_instance).collect();
    instances.extend([(2, 2), (2, 3), (3, 3)].map(|(l, w)| layered_instance(l, w)));
    let mut h = Fnv64::default();
    let mut runs = 0u64;
    for tasks in &instances {
        let (full, _) = reference::backtracking_with_budget(tasks, Input, u64::MAX);
        assert!(full.assignment.is_none(), "every member is infeasible");
        for cap in (0..=full.stats.checks + 2).chain([u64::MAX]) {
            let fast = backtracking_with_budget(tasks, Input, cap);
            let naive = reference::backtracking_with_budget(tasks, Input, cap);
            assert_replays(&fast, &naive, &format!("n = {}, cap {cap}", tasks.len()));

            h.write_u64(cap);
            digest_stats(&mut h, &fast.0.stats);
            let mut checker = StabilityChecker::new(tasks);
            let slack = backtracking_on_checker(&mut checker, MaxSlackFirst, cap / 2);
            let naive = reference::backtracking_with_budget(tasks, MaxSlackFirst, cap / 2);
            let ctx = format!("n = {}, slack order, cap {}", tasks.len(), cap / 2);
            assert_replays(&slack, &naive, &ctx);
            digest_stats(&mut h, &slack.0.stats);
            digest_checker(&mut h, &checker);
            let (warm, _) = backtracking_on_checker(&mut checker, Input, cap);
            digest_stats(&mut h, &warm.stats);
            digest_checker(&mut h, &checker);
            runs += 1;
        }
    }
    // 7 122 runs on the factorial family, 2 580 on the layered one.
    assert_eq!(runs, 9_702);
    assert_eq!(format!("{:016x}", h.finish()), "802f5ec766cc153d");
}

/// Runs backtracking in `order` on a fresh checker and returns its
/// outcome with the checker's computed-check count.
fn fresh_search(
    tasks: &[ControlTask],
    order: CandidateOrder,
    max_checks: u64,
) -> (AssignmentOutcome, u64) {
    let mut checker = StabilityChecker::new(tasks);
    let (outcome, truncated) = backtracking_on_checker(&mut checker, order, max_checks);
    assert_eq!(outcome.stats.truncated, truncated);
    assert_eq!(checker.logical_checks(), outcome.stats.checks);
    (outcome, checker.computed_checks())
}

#[test]
fn table1_tail_instance_keeps_every_count() {
    // The slowest instance of paper-scale Table I: grid-snapped, seed
    // 2017, n = 20, index 4349. Infeasible, and plain backtracking
    // walks the same failed remaining sets millions of times.
    let config = BenchmarkConfig::with_model(20, PeriodModel::GridSnapped);
    let mut rng = StdRng::seed_from_u64(instance_seed(2017, 20, 4349));
    let tasks = generate_benchmark(&config, &mut rng);

    let (outcome, computed) = fresh_search(&tasks, Input, u64::MAX);
    assert!(outcome.assignment.is_none(), "infeasible");
    let stats = outcome.stats;
    assert!(!stats.truncated, "unbudgeted, the search decides");
    assert_eq!(stats.checks, 615_534_043);
    assert_eq!(stats.backtracks, 76_932_365);
    assert_eq!(stats.cache_hits, 615_517_664);
    assert_eq!(computed, 16_379);

    // perfbench's table1-budget cap.
    let (outcome, computed) = fresh_search(&tasks, Input, 10_000_000);
    assert!(outcome.assignment.is_none());
    let stats = outcome.stats;
    assert!(stats.truncated);
    assert_eq!(stats.checks, 10_000_000);
    assert_eq!(stats.backtracks, 1_249_960);
    assert_eq!(stats.cache_hits, 9_991_422);
    assert_eq!(computed, 8_578);
}

#[test]
fn crossval_unknown_slack_slice_keeps_every_count() {
    // An unknown of crossval's n = 16 scan: continuous, seed 77, index
    // 89, which the portfolio leaves undecided at budget 50 000. A
    // slack-order slice of half that budget runs out, re-entering
    // failed remaining sets that the failed-set memo skips.
    let config = BenchmarkConfig::with_model(16, PeriodModel::Continuous);
    let mut rng = StdRng::seed_from_u64(instance_seed(77, 16, 89));
    let tasks = generate_benchmark(&config, &mut rng);
    assert!(portfolio_with_budget(&tasks, 50_000).truncated());

    let (outcome, computed) = fresh_search(&tasks, MaxSlackFirst, 25_000);
    let naive = reference::backtracking_with_budget(&tasks, MaxSlackFirst, 25_000);
    let fast = (outcome.clone(), outcome.stats.truncated);
    assert_replays(&fast, &naive, "continuous:16:89");
    let stats = outcome.stats;
    assert!(outcome.assignment.is_none());
    assert!(stats.truncated, "the slice runs out");
    assert_eq!(stats.checks, 25_000);
    assert_eq!(stats.backtracks, 8_069);
    assert_eq!(stats.cache_hits, 24_255);
    assert_eq!(computed, 745);
}

#[test]
fn a_search_reaching_u64_max_checks_reports_truncation() {
    // Five layers of eight plus the two tops: (8!)^5 > 2^64 layer
    // orderings end in the same dead end, so the logical check count
    // passes u64::MAX long before the search could decide. Every entry
    // point must stop there and say so, without a panic or a wrap.
    let tasks = layered_instance(5, 8);
    assert_eq!(tasks.len(), 42);

    for order in [Input, MaxSlackFirst] {
        // A slack-order level makes its |S| scoring checks after the
        // entry truncation test; the pass must stop at u64::MAX too.
        let (outcome, computed) = fresh_search(&tasks, order, u64::MAX);
        assert!(outcome.assignment.is_none(), "{order:?}");
        assert!(outcome.stats.truncated, "{order:?}");
        assert_eq!(outcome.stats.checks, u64::MAX, "{order:?}");
        assert_eq!(outcome.stats.cache_hits, u64::MAX - computed, "{order:?}");
        assert_eq!(backtracking_with_budget(&tasks, order, u64::MAX).0, outcome);
        assert_eq!(backtracking_with_order(&tasks, order), outcome);
        if order == Input {
            assert_eq!(backtracking(&tasks), outcome);
        }
    }

    let out = portfolio(&tasks);
    assert!(out.assignment.is_none());
    assert_eq!(out.winner, None);
    assert!(out.truncated());
    assert_eq!(out.stats.checks, u64::MAX);
    let last = out.stages.last().expect("the input restart ran");
    assert_eq!(last.stage, PortfolioStage::InputRestart);
    assert!(last.truncated);
    let total = out
        .stages
        .iter()
        .try_fold(0u64, |sum, stage| sum.checked_add(stage.checks));
    assert_eq!(total, Some(u64::MAX), "the stages spend exactly u64::MAX");

    // The census classification (which the monitor runs too) keeps
    // checking on the same checker after such a search: its logical
    // counter must saturate rather than overflow.
    let class = classify_instance(&tasks, &SearchConfig::default());
    assert!(!class.solvable());
    assert!(class.truncated());
    assert_eq!(class.outcome.stats.checks, u64::MAX);
}
