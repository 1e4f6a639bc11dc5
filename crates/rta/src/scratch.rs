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

use crate::analysis::{response_bounds_cached, ReleaseWindow, ResponseBounds};
use crate::task::Task;

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
/// let rb = scratch.response_bounds(&tasks[2], [0, 1].iter().map(|&j| &tasks[j])).unwrap();
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

    /// Exact worst- and best-case response times (see
    /// [`crate::response_bounds`]), or `None` if the task misses its
    /// implicit deadline.
    ///
    /// Gathers `hp` into the contiguous buffer and zeroes the division
    /// cache, reusing their capacity: allocation-free once the buffers
    /// have grown to the largest set seen.
    pub fn response_bounds<'a, I>(&mut self, task: &Task, hp: I) -> Option<ResponseBounds>
    where
        I: IntoIterator<Item = &'a Task>,
    {
        self.hp.clear();
        self.hp.extend(hp.into_iter().copied());
        self.windows.clear();
        self.windows.resize(self.hp.len(), ReleaseWindow::default());
        response_bounds_cached(task, &self.hp, &mut self.windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::response_bounds;
    use crate::task::TaskId;
    use crate::time::Ticks;

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
        let tasks = [t(0, 1, 1, 4), t(1, 1, 2, 6), t(2, 2, 3, 10), t(3, 2, 4, 40)];
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
                    scratch.response_bounds(&tasks[i], hp_idx.iter().map(|&j| &tasks[j])),
                    response_bounds(&tasks[i], &hp),
                    "task {i} vs subset {hp_idx:?}"
                );
            }
        }
    }

    #[test]
    fn reuse_does_not_leak_state_between_sets() {
        // Alternate between two very different subsets; stale windows from
        // one must never bleed into the other.
        let tasks = [t(0, 1, 1, 3), t(1, 5, 7, 20), t(2, 3, 3, 9), t(3, 4, 6, 50)];
        let mut scratch = RtaScratch::new();
        for _ in 0..4 {
            let a = scratch.response_bounds(&tasks[3], &tasks[..3]);
            let b = scratch.response_bounds(&tasks[3], &tasks[2..3]);
            assert_eq!(a, response_bounds(&tasks[3], &tasks[..3]));
            assert_eq!(b, response_bounds(&tasks[3], &tasks[2..3]));
        }
    }

    #[test]
    fn empty_hp_set() {
        let tasks = [t(0, 2, 5, 10)];
        let mut scratch = RtaScratch::new();
        let rb = scratch.response_bounds(&tasks[0], &[]).unwrap();
        assert_eq!(rb.wcrt, Ticks::new(5));
        assert_eq!(rb.bcrt, Ticks::new(2));
    }
}
