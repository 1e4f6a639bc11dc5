//! Reusable workspace for allocation-free response-time analysis over
//! index-selected task subsets.
//!
//! The search algorithms in `csa-core` evaluate the same task slice
//! under thousands of different higher-priority subsets. Collecting each
//! subset into a fresh `Vec<Task>` per check (the pre-scratch design)
//! puts a heap allocation on the hottest path in the system. An
//! [`RtaScratch`] owns the two buffers a check needs — the gathered
//! higher-priority tasks and the fixed-point division cache — and reuses
//! their capacity across calls, so after warm-up every analysis runs with
//! **zero per-call heap allocation** and iterates over contiguous memory.
//!
//! The slice-based free functions ([`crate::wcrt`],
//! [`crate::bcrt_from`], [`crate::response_bounds`]) remain the kernels;
//! they run on a stack buffer for up to [`crate::MAX_TASKS`] interfering
//! tasks and are the right entry points for one-shot calls. The
//! division-caching release windows the scratch reuses between the WCRT
//! and BCRT passes are described in DESIGN.md §7.

use crate::analysis::{
    bcrt_cached, response_bounds_cached, wcrt_cached, ReleaseWindow, ResponseBounds,
};
use crate::task::Task;
use crate::time::Ticks;

/// Reusable buffers for repeated response-time analyses.
///
/// # Examples
///
/// ```
/// use csa_rta::{response_bounds, RtaScratch, Task, TaskId, Ticks};
///
/// # fn main() -> Result<(), csa_rta::InvalidTask> {
/// let tasks = vec![
///     Task::with_fixed_execution(TaskId::new(0), Ticks::new(1), Ticks::new(4))?,
///     Task::with_fixed_execution(TaskId::new(1), Ticks::new(2), Ticks::new(6))?,
///     Task::with_fixed_execution(TaskId::new(2), Ticks::new(3), Ticks::new(10))?,
/// ];
/// let mut scratch = RtaScratch::new();
/// // Analyze task 2 against the higher-priority subset {0, 1} without
/// // materializing the subset.
/// let rb = scratch.response_bounds_indexed(&tasks, 2, &[0, 1]).unwrap();
/// assert_eq!(rb, response_bounds(&tasks[2], &tasks[..2]).unwrap());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct RtaScratch {
    hp: Vec<Task>,
    windows: Vec<ReleaseWindow>,
}

impl RtaScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> RtaScratch {
        RtaScratch::default()
    }

    /// Creates a scratch pre-sized for higher-priority sets of up to `n`
    /// tasks.
    pub fn with_capacity(n: usize) -> RtaScratch {
        RtaScratch {
            hp: Vec::with_capacity(n),
            windows: Vec::with_capacity(n),
        }
    }

    /// Gathers the higher-priority set into the contiguous buffer and
    /// zeroes the division cache. Reuses capacity: allocation-free once
    /// the buffers have grown to the largest set seen.
    fn load<'a, I>(&mut self, hp: I)
    where
        I: IntoIterator<Item = &'a Task>,
    {
        self.hp.clear();
        self.hp.extend(hp.into_iter().copied());
        self.windows.clear();
        self.windows.resize(self.hp.len(), ReleaseWindow::default());
    }

    /// Exact worst-case response time (see [`crate::wcrt`]) of `task`
    /// under the gathered higher-priority set `hp`.
    pub fn wcrt<'a, I>(&mut self, task: &Task, hp: I) -> Option<Ticks>
    where
        I: IntoIterator<Item = &'a Task>,
    {
        self.wcrt_with_limit(task, hp, task.period())
    }

    /// Exact worst-case response time with an explicit convergence limit
    /// (see [`crate::wcrt_with_limit`]).
    pub fn wcrt_with_limit<'a, I>(&mut self, task: &Task, hp: I, limit: Ticks) -> Option<Ticks>
    where
        I: IntoIterator<Item = &'a Task>,
    {
        self.load(hp);
        wcrt_cached(task, &self.hp, limit, &mut self.windows)
    }

    /// Exact best-case response time iterated downward from `start` (see
    /// [`crate::bcrt_from`]).
    pub fn bcrt_from<'a, I>(&mut self, task: &Task, hp: I, start: Ticks) -> Ticks
    where
        I: IntoIterator<Item = &'a Task>,
    {
        self.load(hp);
        bcrt_cached(task, &self.hp, start, &mut self.windows)
    }

    /// Exact worst- and best-case response times (see
    /// [`crate::response_bounds`]), or `None` if the task misses its
    /// implicit deadline.
    pub fn response_bounds<'a, I>(&mut self, task: &Task, hp: I) -> Option<ResponseBounds>
    where
        I: IntoIterator<Item = &'a Task>,
    {
        self.load(hp);
        response_bounds_cached(task, &self.hp, &mut self.windows)
    }

    /// [`RtaScratch::wcrt`] against the subset of `tasks` selected by
    /// `hp_idx`.
    pub fn wcrt_indexed(&mut self, tasks: &[Task], i: usize, hp_idx: &[usize]) -> Option<Ticks> {
        let task = tasks[i];
        self.wcrt(&task, hp_idx.iter().map(|&j| &tasks[j]))
    }

    /// [`RtaScratch::bcrt_from`] against the subset of `tasks` selected
    /// by `hp_idx`.
    pub fn bcrt_from_indexed(
        &mut self,
        tasks: &[Task],
        i: usize,
        hp_idx: &[usize],
        start: Ticks,
    ) -> Ticks {
        let task = tasks[i];
        self.bcrt_from(&task, hp_idx.iter().map(|&j| &tasks[j]), start)
    }

    /// [`RtaScratch::response_bounds`] against the subset of `tasks`
    /// selected by `hp_idx`.
    pub fn response_bounds_indexed(
        &mut self,
        tasks: &[Task],
        i: usize,
        hp_idx: &[usize],
    ) -> Option<ResponseBounds> {
        let task = tasks[i];
        self.response_bounds(&task, hp_idx.iter().map(|&j| &tasks[j]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{bcrt_from, response_bounds, wcrt_with_limit};
    use crate::task::TaskId;

    fn t(id: u32, cb: u64, cw: u64, h: u64) -> Task {
        Task::new(
            TaskId::new(id),
            Ticks::new(cb),
            Ticks::new(cw),
            Ticks::new(h),
        )
        .unwrap()
    }

    #[test]
    fn matches_slice_api_on_subsets() {
        let tasks = vec![t(0, 1, 1, 4), t(1, 1, 2, 6), t(2, 2, 3, 10), t(3, 2, 4, 40)];
        let mut scratch = RtaScratch::new();
        // Every subset of higher-priority tasks for every task.
        for i in 0..tasks.len() {
            for mask in 0u32..16 {
                if mask & (1 << i) != 0 {
                    continue;
                }
                let hp_idx: Vec<usize> =
                    (0..tasks.len()).filter(|&j| mask & (1 << j) != 0).collect();
                let hp: Vec<Task> = hp_idx.iter().map(|&j| tasks[j]).collect();
                assert_eq!(
                    scratch.response_bounds_indexed(&tasks, i, &hp_idx),
                    response_bounds(&tasks[i], &hp),
                    "task {i} vs subset {hp_idx:?}"
                );
                assert_eq!(
                    scratch.wcrt_indexed(&tasks, i, &hp_idx),
                    wcrt_with_limit(&tasks[i], &hp, tasks[i].period()),
                );
                assert_eq!(
                    scratch.bcrt_from_indexed(&tasks, i, &hp_idx, tasks[i].period()),
                    bcrt_from(&tasks[i], &hp, tasks[i].period()),
                );
            }
        }
    }

    #[test]
    fn reuse_does_not_leak_state_between_sets() {
        // Alternate between two very different subsets; stale windows from
        // one must never bleed into the other.
        let tasks = vec![t(0, 1, 1, 3), t(1, 5, 7, 20), t(2, 3, 3, 9), t(3, 4, 6, 50)];
        let mut scratch = RtaScratch::new();
        for _ in 0..4 {
            let a = scratch.response_bounds_indexed(&tasks, 3, &[0, 1, 2]);
            let b = scratch.response_bounds_indexed(&tasks, 3, &[2]);
            let hp_a: Vec<Task> = vec![tasks[0], tasks[1], tasks[2]];
            assert_eq!(a, response_bounds(&tasks[3], &hp_a));
            assert_eq!(b, response_bounds(&tasks[3], &tasks[2..3]));
        }
    }

    #[test]
    fn empty_hp_set() {
        let tasks = vec![t(0, 2, 5, 10)];
        let mut scratch = RtaScratch::new();
        let rb = scratch.response_bounds_indexed(&tasks, 0, &[]).unwrap();
        assert_eq!(rb.wcrt, Ticks::new(5));
        assert_eq!(rb.bcrt, Ticks::new(2));
    }
}
