//! Priority assignments and exact stability analysis of a control task set.

use crate::fxhash::FxBuildHasher;
use crate::stability::ControlTask;
use csa_rta::{ResponseBounds, RtaScratch, MAX_TASKS};
#[expect(clippy::disallowed_types, reason = "D001: a memo probed by key only")]
use std::collections::HashMap;
use std::fmt;

/// A complete priority assignment over a task set, stored as priority
/// levels: `level[i]` is the priority of task `i`, with **larger values
/// preempting smaller ones** (the paper's `rho_i > rho_j` convention,
/// levels `1..=n`).
///
/// # Examples
///
/// ```
/// use csa_core::PriorityAssignment;
///
/// // Task 2 highest, then task 0, then task 1.
/// let pa = PriorityAssignment::from_highest_first(&[2, 0, 1]);
/// assert_eq!(pa.level_of(2), 3);
/// assert_eq!(pa.level_of(1), 1);
/// assert_eq!(pa.highest_first(), vec![2, 0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityAssignment {
    levels: Vec<u32>,
}

impl PriorityAssignment {
    /// Builds an assignment from task indices listed highest-priority
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_highest_first(order: &[usize]) -> PriorityAssignment {
        let n = order.len();
        let mut levels = vec![u32::MAX; n];
        for (rank, &idx) in order.iter().enumerate() {
            assert!(idx < n, "task index {idx} out of range");
            assert!(levels[idx] == u32::MAX, "duplicate task index {idx}");
            levels[idx] = (n - rank) as u32;
        }
        PriorityAssignment { levels }
    }

    /// Builds an assignment from task indices listed lowest-priority first
    /// (the order the paper's Algorithm 1 produces).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_lowest_first(order: &[usize]) -> PriorityAssignment {
        let reversed: Vec<usize> = order.iter().rev().copied().collect();
        PriorityAssignment::from_highest_first(&reversed)
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// `true` when the assignment covers no tasks.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Priority level of task `i` (1 = lowest).
    pub fn level_of(&self, i: usize) -> u32 {
        self.levels[i]
    }

    /// Task indices ordered from highest to lowest priority.
    pub fn highest_first(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.levels.len()).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(self.levels[i]));
        idx
    }

    /// Indices of tasks with higher priority than task `i`.
    pub fn hp_indices(&self, i: usize) -> Vec<usize> {
        self.hp_iter(i).collect()
    }

    /// Iterator over the indices of tasks with higher priority than task
    /// `i` (ascending; allocation-free counterpart of
    /// [`PriorityAssignment::hp_indices`]).
    pub fn hp_iter(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let level = self.levels[i];
        (0..self.levels.len()).filter(move |&j| self.levels[j] > level)
    }

    /// Returns a copy with the priorities of tasks `i` and `j` swapped.
    pub fn with_swapped(&self, i: usize, j: usize) -> PriorityAssignment {
        let mut levels = self.levels.clone();
        levels.swap(i, j);
        PriorityAssignment { levels }
    }
}

impl fmt::Display for PriorityAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (rank, idx) in self.highest_first().iter().enumerate() {
            if rank > 0 {
                write!(f, " > ")?;
            }
            write!(f, "tau_{idx}")?;
        }
        write!(f, "]")
    }
}

/// Timing and stability verdict for one task under a given assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskVerdict {
    /// Exact response-time bounds, `None` if the task is unschedulable
    /// (misses its implicit deadline).
    pub bounds: Option<ResponseBounds>,
    /// Whether the plant is stable (`false` when unschedulable).
    pub stable: bool,
    /// Stability slack `b - L - aJ` in seconds (`-inf` when
    /// unschedulable).
    pub slack: f64,
}

/// Builds the verdict of `tasks[i]` from its (optional) response bounds.
#[inline]
pub(crate) fn verdict_from(task: &ControlTask, rb: Option<ResponseBounds>) -> TaskVerdict {
    match rb {
        Some(rb) => TaskVerdict {
            bounds: Some(rb),
            stable: task.stable_with(&rb),
            slack: task.bound().slack(rb.latency(), rb.jitter()),
        },
        None => TaskVerdict {
            bounds: None,
            stable: false,
            slack: f64::NEG_INFINITY,
        },
    }
}

/// Exact stability check of task `i` against an explicit higher-priority
/// index set — the primitive every assignment algorithm calls
/// (Eqs. 2–5).
///
/// One-shot convenience; repeated checks over the same task slice should
/// go through a [`StabilityChecker`], which reuses its scratch buffers
/// and memoizes verdicts.
pub fn check_task(tasks: &[ControlTask], i: usize, hp_idx: &[usize]) -> TaskVerdict {
    let mut scratch = RtaScratch::with_capacity(hp_idx.len());
    let rb = scratch.response_bounds(tasks[i].task(), hp_idx.iter().map(|&j| tasks[j].task()));
    verdict_from(&tasks[i], rb)
}

/// Analyzes every task of the set under a complete assignment.
///
/// # Panics
///
/// Panics if `assignment.len() != tasks.len()`.
pub fn analyze(tasks: &[ControlTask], assignment: &PriorityAssignment) -> Vec<TaskVerdict> {
    assert_eq!(tasks.len(), assignment.len(), "assignment size mismatch");
    let mut scratch = RtaScratch::with_capacity(tasks.len());
    (0..tasks.len())
        .map(|i| {
            let rb = scratch.response_bounds(
                tasks[i].task(),
                assignment.hp_iter(i).map(|j| tasks[j].task()),
            );
            verdict_from(&tasks[i], rb)
        })
        .collect()
}

/// Ascending iterator over set bit positions.
pub(crate) struct BitIter(pub(crate) u64);

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

/// Verdict-memo entries a new [`StabilityChecker`] reserves per task.
/// A paper-scale Table I instance (Unsafe Quadratic, its validity check
/// and Algorithm 1 on one checker) stores `2.0 n` to `3.9 n` verdicts
/// on average from n = 4 to n = 20, so a typical instance's table is
/// allocated once instead of rehashing as it grows from empty.
const MEMO_RESERVE_PER_TASK: usize = 4;

/// A reusable, memoizing stability-check engine over one task slice —
/// the workhorse behind every assignment algorithm.
///
/// * **Zero-allocation**: response-time fixed points run on an internal
///   [`RtaScratch`], so a check performs no heap allocation once the
///   buffers are warm.
/// * **Memoized**: verdicts are cached under the key `(candidate,
///   higher-priority bitmask)`. A backtracking search that revisits the
///   same `(task, remaining set)` state never recomputes the fixed
///   points; the checker tracks both the *logical* number of checks
///   requested and the *computed* number that actually ran.
///
/// # Examples
///
/// ```
/// use csa_core::{ControlTask, StabilityChecker};
///
/// # fn main() -> Result<(), csa_rta::InvalidTask> {
/// let tasks = vec![
///     ControlTask::from_parts(0, 1, 1, 4, 1.0, 1e-8)?,
///     ControlTask::from_parts(1, 2, 2, 6, 1.0, 1e-8)?,
/// ];
/// let mut checker = StabilityChecker::new(&tasks);
/// let first = checker.check(1, &[0]);
/// let again = checker.check(1, &[0]); // cache hit: fixed points not rerun
/// assert_eq!(first, again);
/// assert_eq!(checker.logical_checks(), 2);
/// assert_eq!(checker.computed_checks(), 1);
/// assert_eq!(checker.cache_hits(), 1);
/// # Ok(())
/// # }
/// ```
pub struct StabilityChecker<'a> {
    tasks: &'a [ControlTask],
    scratch: RtaScratch,
    #[expect(clippy::disallowed_types, reason = "D001: a memo probed by key only")]
    memo: HashMap<(u32, u64), TaskVerdict, FxBuildHasher>,
    logical: u64,
    computed: u64,
}

impl<'a> StabilityChecker<'a> {
    /// Creates a checker over `tasks`.
    ///
    /// # Panics
    ///
    /// Panics if the set has more than [`MAX_TASKS`] tasks, one bit each
    /// in the memo's higher-priority mask. Every assignment algorithm,
    /// anomaly detector and portfolio stage runs on a checker, so this is
    /// their limit too.
    pub fn new(tasks: &'a [ControlTask]) -> StabilityChecker<'a> {
        assert!(
            tasks.len() <= MAX_TASKS,
            "a stability checker takes at most {MAX_TASKS} tasks, got {}",
            tasks.len()
        );
        StabilityChecker {
            tasks,
            scratch: RtaScratch::with_capacity(tasks.len()),
            #[expect(clippy::disallowed_types, reason = "D001: a memo probed by key only")]
            memo: HashMap::with_capacity_and_hasher(
                MEMO_RESERVE_PER_TASK * tasks.len(),
                FxBuildHasher::default(),
            ),
            logical: 0,
            computed: 0,
        }
    }

    /// The task slice under analysis.
    pub fn tasks(&self) -> &'a [ControlTask] {
        self.tasks
    }

    /// Number of tasks in the set.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the task set is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Bitmask selecting every task of the set (for [`Self::check_mask`]
    /// callers).
    pub fn full_mask(&self) -> u64 {
        let n = self.tasks.len() as u32;
        u64::MAX.checked_shr(u64::BITS - n).unwrap_or(0)
    }

    /// Checks task `i` against the higher-priority index set `hp_idx`
    /// (set semantics: the indices fold into a bitmask, so order and
    /// duplicates are irrelevant to the verdict).
    pub fn check(&mut self, i: usize, hp_idx: &[usize]) -> TaskVerdict {
        let mask = hp_idx.iter().fold(0u64, |m, &j| m | (1u64 << j));
        self.check_mask(i, mask)
    }

    /// Checks task `i` against the higher-priority set given as a
    /// bitmask over task indices.
    ///
    /// # Panics
    ///
    /// Panics if the mask selects bit `i` itself.
    pub fn check_mask(&mut self, i: usize, hp_mask: u64) -> TaskVerdict {
        assert!(
            hp_mask & (1u64 << i) == 0,
            "task {i} cannot be in its own higher-priority set"
        );
        self.logical = self.logical.saturating_add(1);
        let key = (i as u32, hp_mask);
        if let Some(&v) = self.memo.get(&key) {
            return v;
        }
        self.computed += 1;
        let tasks = self.tasks;
        let rb = self
            .scratch
            .response_bounds(tasks[i].task(), BitIter(hp_mask).map(|j| tasks[j].task()));
        let v = verdict_from(&tasks[i], rb);
        self.memo.insert(key, v);
        v
    }

    /// `true` when every plant in the set is stable under `assignment`:
    /// the verdict of [`is_valid_assignment`], asked of this checker's
    /// memo. Tasks are checked in index order, each against its final
    /// higher-priority set, up to the first unstable one; the masks are
    /// built from the assignment's levels without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != self.len()`.
    pub fn is_valid(&mut self, assignment: &PriorityAssignment) -> bool {
        let n = self.tasks.len();
        assert_eq!(n, assignment.len(), "assignment size mismatch");
        // Levels are a permutation of `1..=n`: lay the tasks out by
        // level, then hand each one the mask of every task above it.
        let mut by_level = [0usize; MAX_TASKS];
        for (i, &level) in assignment.levels.iter().enumerate() {
            by_level[level as usize - 1] = i;
        }
        let mut hp_of = [0u64; MAX_TASKS];
        let mut above = 0u64;
        for &i in by_level[..n].iter().rev() {
            hp_of[i] = above;
            above |= 1u64 << i;
        }
        (0..n).all(|i| self.check_mask(i, hp_of[i]).stable)
    }

    /// Counts `checks` logical checks answered from the memo without
    /// asking for them one by one: the checks of a search subtree whose
    /// every verdict is already memoized, which the caller skips (the
    /// failed-set memo of the input-order backtracking search).
    pub(crate) fn credit_hits(&mut self, checks: u64) {
        self.logical = self.logical.saturating_add(checks);
    }

    /// Total checks requested (the paper's work metric, identical with
    /// and without memoization). Saturates at `u64::MAX`.
    pub fn logical_checks(&self) -> u64 {
        self.logical
    }

    /// Checks whose fixed points actually ran (memo misses).
    pub fn computed_checks(&self) -> u64 {
        self.computed
    }

    /// Checks answered from the memo table.
    pub fn cache_hits(&self) -> u64 {
        self.logical - self.computed
    }
}

/// `true` when every plant in the set is stable under the assignment —
/// the validity notion of the paper's Table I. One-shot; repeated
/// questions over one task slice go through
/// [`StabilityChecker::is_valid`].
pub fn is_valid_assignment(tasks: &[ControlTask], assignment: &PriorityAssignment) -> bool {
    analyze(tasks, assignment).iter().all(|v| v.stable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::ControlTask;

    fn three_tasks() -> Vec<ControlTask> {
        vec![
            ControlTask::from_parts(0, 1, 1, 4, 1.0, 1e-8).unwrap(),
            ControlTask::from_parts(1, 2, 2, 6, 1.0, 1e-8).unwrap(),
            ControlTask::from_parts(2, 3, 3, 10, 1.0, 1.2e-8).unwrap(),
        ]
    }

    #[test]
    fn assignment_roundtrips() {
        let pa = PriorityAssignment::from_highest_first(&[1, 2, 0]);
        assert_eq!(pa.level_of(1), 3);
        assert_eq!(pa.level_of(2), 2);
        assert_eq!(pa.level_of(0), 1);
        assert_eq!(pa.highest_first(), vec![1, 2, 0]);
        assert_eq!(pa.hp_indices(0), vec![1, 2]);
        assert_eq!(pa.hp_indices(1), Vec::<usize>::new());
        let pa2 = PriorityAssignment::from_lowest_first(&[0, 2, 1]);
        assert_eq!(pa2.highest_first(), vec![1, 2, 0]);
        assert_eq!(pa, pa2);
    }

    #[test]
    #[should_panic(expected = "duplicate task index")]
    fn duplicate_indices_panic() {
        let _ = PriorityAssignment::from_highest_first(&[0, 0, 1]);
    }

    #[test]
    fn swap_exchanges_levels() {
        let pa = PriorityAssignment::from_highest_first(&[0, 1, 2]);
        let sw = pa.with_swapped(0, 2);
        assert_eq!(sw.highest_first(), vec![2, 1, 0]);
    }

    #[test]
    fn analyze_classic_set() {
        // Rate-monotonic order on the classic (1,4),(2,6),(3,10) set:
        // R_w = 1, 3, 10; R_b = c. Bounds chosen so all are stable.
        let tasks = three_tasks();
        let pa = PriorityAssignment::from_highest_first(&[0, 1, 2]);
        let verdicts = analyze(&tasks, &pa);
        assert_eq!(verdicts[0].bounds.unwrap().wcrt.get(), 1);
        assert_eq!(verdicts[1].bounds.unwrap().wcrt.get(), 3);
        assert_eq!(verdicts[2].bounds.unwrap().wcrt.get(), 10);
        // tau_0: L=1ns J=0: 1e-9 <= 1e-8 stable.
        assert!(verdicts[0].stable);
        // tau_2: L=3ns, J=7ns: 3+7 = 10e-9 <= 12e-9 stable.
        assert!(verdicts[2].stable);
        assert!(is_valid_assignment(&tasks, &pa));
    }

    #[test]
    fn invalid_when_bound_violated() {
        let tasks = three_tasks();
        // Give tau_2 the middle priority; tau_1 lowest with hp = {0, 2}:
        // R_w(tau_1) = 2 + ceil(R/4)*1 + ceil(R/10)*3 -> fixed point 7,
        // beyond its deadline 6: unschedulable, hence invalid.
        let pa = PriorityAssignment::from_highest_first(&[0, 2, 1]);
        let v = analyze(&tasks, &pa);
        assert!(v[1].bounds.is_none());
        assert!(!is_valid_assignment(&tasks, &pa));
        // Put tau_0 lowest: R_w(tau_0) = 1 + 2 + 3 = 6 > 4 unschedulable.
        let pa_bad = PriorityAssignment::from_highest_first(&[1, 2, 0]);
        let v = analyze(&tasks, &pa_bad);
        assert!(!v[0].stable);
        assert!(v[0].bounds.is_none());
        assert!(!is_valid_assignment(&tasks, &pa_bad));
    }

    #[test]
    fn checker_validity_walk_stops_at_the_first_unstable_task() {
        let tasks = three_tasks();
        let mut checker = StabilityChecker::new(&tasks);
        let valid = PriorityAssignment::from_highest_first(&[0, 1, 2]);
        assert!(checker.is_valid(&valid));
        assert_eq!(checker.logical_checks(), 3);
        // Task 0 lowest is unstable; tasks 1 and 2 are never checked.
        let invalid = PriorityAssignment::from_highest_first(&[1, 2, 0]);
        assert!(!checker.is_valid(&invalid));
        assert_eq!(checker.logical_checks(), 4);
        // The same walk again is answered from the memo.
        assert!(checker.is_valid(&valid));
        assert_eq!(checker.computed_checks(), 4);
    }

    #[test]
    fn check_task_against_explicit_sets() {
        let tasks = three_tasks();
        let v_alone = check_task(&tasks, 2, &[]);
        assert_eq!(v_alone.bounds.unwrap().wcrt.get(), 3);
        let v_both = check_task(&tasks, 2, &[0, 1]);
        assert_eq!(v_both.bounds.unwrap().wcrt.get(), 10);
        assert!(v_both.slack <= v_alone.slack);
    }

    #[test]
    #[should_panic(expected = "a stability checker takes at most 64 tasks, got 65")]
    fn checker_refuses_sets_above_the_ceiling() {
        let tasks: Vec<ControlTask> = (0..=MAX_TASKS as u32)
            .map(|i| ControlTask::from_parts(i, 1, 1, 100_000, 1.0, 1.0).unwrap())
            .collect();
        let _ = StabilityChecker::new(&tasks);
    }

    #[test]
    fn display_shows_order() {
        let pa = PriorityAssignment::from_highest_first(&[1, 0]);
        assert_eq!(pa.to_string(), "[tau_1 > tau_0]");
    }
}
