//! Sensitivity analysis: the paper's §I motivating example.
//!
//! "Find the maximum value of a parameter `x` satisfying `f(x) <= 0`":
//! here, the largest worst-case execution time a control task can afford
//! before some plant in the system goes unstable. If stability were
//! monotone in the WCET, binary search would be exact and fast
//! (`O(log)` checks, cf. [17] in the paper); under anomalies it can
//! return an *unsafe* answer — a `c_w` it believes stable while some
//! smaller value is not, or a value above the true threshold. The safe
//! alternative scans every candidate.
//!
//! This module implements both, plus a checker, so the benchmark harness
//! can quantify the speed/safety trade-off (ablation in DESIGN.md §9).

use crate::analysis::{is_valid_assignment, PriorityAssignment};
use crate::stability::ControlTask;
use csa_rta::Ticks;

/// Result of a sensitivity query for the maximal stable WCET of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensitivityResult {
    /// The largest examined `c_w` for which the whole system was stable.
    pub max_stable_cw: Option<Ticks>,
    /// Number of full-system stability evaluations performed.
    pub evaluations: u64,
}

/// Replaces task `i`'s WCET and reports whether the whole system is
/// valid (every plant stable).
fn system_stable_with_cw(
    tasks: &[ControlTask],
    assignment: &PriorityAssignment,
    i: usize,
    cw: Ticks,
) -> Option<bool> {
    let modified = tasks[i].with_c_worst(cw).ok()?;
    let mut all = tasks.to_vec();
    all[i] = modified;
    Some(is_valid_assignment(&all, assignment))
}

/// Binary search for the largest stable `c_w(i)` in
/// `[c_b(i), period(i)]`, **assuming monotonicity** (larger WCET = worse).
///
/// Fast — `O(log(range))` system checks — but under anomalies the
/// returned value may be wrong in either direction; pair it with
/// [`verify_sensitivity`] or use [`max_stable_wcet_scan`] when safety
/// matters.
///
/// # Panics
///
/// Panics if `i` is out of range or `resolution` is zero.
pub fn max_stable_wcet_binary(
    tasks: &[ControlTask],
    assignment: &PriorityAssignment,
    i: usize,
    resolution: Ticks,
) -> SensitivityResult {
    assert!(i < tasks.len(), "task index out of range");
    assert!(!resolution.is_zero(), "resolution must be positive");
    let mut evals = 0u64;
    let lo0 = tasks[i].task().c_best();
    let hi0 = tasks[i].task().period();

    let mut check = |cw: Ticks| -> bool {
        evals += 1;
        system_stable_with_cw(tasks, assignment, i, cw).unwrap_or(false)
    };

    if !check(lo0) {
        return SensitivityResult {
            max_stable_cw: None,
            evaluations: evals,
        };
    }
    if check(hi0) {
        return SensitivityResult {
            max_stable_cw: Some(hi0),
            evaluations: evals,
        };
    }
    let mut lo = lo0; // stable
    let mut hi = hi0; // unstable
    while hi - lo > resolution {
        let mid = Ticks::new(lo.get() + (hi.get() - lo.get()) / 2);
        if check(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    SensitivityResult {
        max_stable_cw: Some(lo),
        evaluations: evals,
    }
}

/// Safe linear scan for the largest stable `c_w(i)`: examines every
/// candidate from `c_b(i)` upward in steps of `resolution` and returns
/// the largest value below the *first* instability (the safe
/// interpretation: beyond the first failure nothing is trusted, even if
/// stability re-appears — an anomaly).
///
/// # Panics
///
/// Panics if `i` is out of range or `resolution` is zero.
pub fn max_stable_wcet_scan(
    tasks: &[ControlTask],
    assignment: &PriorityAssignment,
    i: usize,
    resolution: Ticks,
) -> SensitivityResult {
    assert!(i < tasks.len(), "task index out of range");
    assert!(!resolution.is_zero(), "resolution must be positive");
    let mut evals = 0u64;
    let mut last_stable: Option<Ticks> = None;
    let mut cw = tasks[i].task().c_best();
    let limit = tasks[i].task().period();
    loop {
        evals += 1;
        match system_stable_with_cw(tasks, assignment, i, cw) {
            Some(true) => last_stable = Some(cw),
            _ => break,
        }
        if cw >= limit {
            break;
        }
        cw = (cw + resolution).min(limit);
    }
    SensitivityResult {
        max_stable_cw: last_stable,
        evaluations: evals,
    }
}

/// Verifies a sensitivity answer: returns `false` if any examined value
/// at or below `claimed` (stepping by `resolution`) destabilizes the
/// system — i.e. the claim was unsafe.
pub fn verify_sensitivity(
    tasks: &[ControlTask],
    assignment: &PriorityAssignment,
    i: usize,
    claimed: Ticks,
    resolution: Ticks,
) -> bool {
    let mut cw = tasks[i].task().c_best();
    loop {
        match system_stable_with_cw(tasks, assignment, i, cw) {
            Some(true) => {}
            _ => return false,
        }
        if cw >= claimed {
            return true;
        }
        cw = (cw + resolution).min(claimed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> (Vec<ControlTask>, PriorityAssignment) {
        let tasks = vec![
            ControlTask::from_parts(0, 2, 2, 20, 1.0, 1e-8).unwrap(),
            ControlTask::from_parts(1, 3, 3, 30, 1.5, 3e-8).unwrap(),
            ControlTask::from_parts(2, 4, 4, 60, 2.0, 6e-8).unwrap(),
        ];
        let pa = PriorityAssignment::from_highest_first(&[0, 1, 2]);
        (tasks, pa)
    }

    #[test]
    fn binary_and_scan_agree_on_monotone_instance() {
        let (tasks, pa) = set();
        for i in 0..tasks.len() {
            let b = max_stable_wcet_binary(&tasks, &pa, i, Ticks::new(1));
            let s = max_stable_wcet_scan(&tasks, &pa, i, Ticks::new(1));
            assert_eq!(
                b.max_stable_cw, s.max_stable_cw,
                "task {i}: binary {:?} vs scan {:?}",
                b.max_stable_cw, s.max_stable_cw
            );
            // Binary search must be much cheaper than the scan.
            if s.evaluations > 16 {
                assert!(b.evaluations < s.evaluations);
            }
        }
    }

    #[test]
    fn scan_respects_current_stability() {
        let (tasks, pa) = set();
        let s = max_stable_wcet_scan(&tasks, &pa, 2, Ticks::new(1));
        // The current configuration is stable, so the answer is at least
        // the current WCET.
        assert!(s.max_stable_cw.unwrap() >= tasks[2].task().c_worst());
        assert!(verify_sensitivity(
            &tasks,
            &pa,
            2,
            s.max_stable_cw.unwrap(),
            Ticks::new(1)
        ));
    }

    #[test]
    fn unstable_baseline_returns_none() {
        // Bound so tight even c_b fails.
        let tasks = vec![ControlTask::from_parts(0, 5, 5, 20, 1.0, 1e-9).unwrap()];
        let pa = PriorityAssignment::from_highest_first(&[0]);
        let b = max_stable_wcet_binary(&tasks, &pa, 0, Ticks::new(1));
        assert_eq!(b.max_stable_cw, None);
        let s = max_stable_wcet_scan(&tasks, &pa, 0, Ticks::new(1));
        assert_eq!(s.max_stable_cw, None);
    }

    #[test]
    fn fully_stable_range_returns_period() {
        let tasks = vec![ControlTask::from_parts(0, 1, 2, 50, 1.0, 1.0).unwrap()];
        let pa = PriorityAssignment::from_highest_first(&[0]);
        let b = max_stable_wcet_binary(&tasks, &pa, 0, Ticks::new(1));
        assert_eq!(b.max_stable_cw, Some(Ticks::new(50)));
    }
}
