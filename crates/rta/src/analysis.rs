//! Exact response-time analysis for fixed-priority preemptive scheduling.
//!
//! Implements the two fixed points the paper relies on (Eqs. 3 and 4):
//!
//! * worst-case response time (Joseph & Pandya 1986)
//!   `R_w = c_w + sum_j ceil(R_w / h_j) c_w_j`
//! * best-case response time (Redell & Sanfridson 2002)
//!   `R_b = c_b + sum_j (ceil(R_b / h_j) - 1) c_b_j`
//!
//! and derives the latency/jitter pair of Eq. 2: `L = R_b`,
//! `J = R_w - R_b`. All arithmetic is exact (integer ticks).

use crate::task::Task;
use crate::time::Ticks;

/// Largest higher-priority set for which the slice-based entry points run
/// entirely on a stack-allocated scratch buffer: every set within
/// [`crate::MAX_TASKS`]. A longer caller slice falls back to one heap
/// allocation per call; [`crate::RtaScratch`] amortizes it for
/// [`response_bounds`] only.
const STACK_WINDOWS: usize = crate::MAX_TASKS;

/// Cached release window of one interfering task.
///
/// For a task with period `h`, `count = ceil(r / h)` holds for every
/// response-time iterate `r` with `lo < r <= hi` (where `lo = (count-1)*h`
/// and `hi = count*h`). The fixed-point kernels test window membership
/// (two compares) before paying for an integer division, which removes
/// most divisions from the later iterations of the fixed point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReleaseWindow {
    count: u64,
    lo: u64,
    hi: u64,
}

impl ReleaseWindow {
    /// `ceil(r / period)`, via the cache when `r` is inside the window.
    #[inline]
    fn ceil_div(&mut self, r: Ticks, period: Ticks) -> u64 {
        let rv = r.get();
        if rv <= self.lo || rv > self.hi {
            let n = r.div_ceil(period);
            let h = period.get();
            self.count = n;
            // Saturation keeps the invariant conservative: a clamped `hi`
            // only shrinks the window, a clamped `lo` only disables it.
            self.hi = h.saturating_mul(n);
            self.lo = h.saturating_mul(n.saturating_sub(1));
        }
        self.count
    }
}

/// Runs `f` with a zeroed window buffer of length `n`, on the stack when
/// `n <= STACK_WINDOWS`.
#[inline]
pub(crate) fn with_windows<T>(n: usize, f: impl FnOnce(&mut [ReleaseWindow]) -> T) -> T {
    if n <= STACK_WINDOWS {
        let mut buf = [ReleaseWindow::default(); STACK_WINDOWS];
        f(&mut buf[..n])
    } else {
        let mut buf = vec![ReleaseWindow::default(); n];
        f(&mut buf)
    }
}

/// Worst- and best-case response times of one task under a given
/// higher-priority set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseBounds {
    /// Worst-case response time `R_w`.
    pub wcrt: Ticks,
    /// Best-case response time `R_b`.
    pub bcrt: Ticks,
}

impl ResponseBounds {
    /// Nominal latency `L = R_b` (Eq. 2).
    pub fn latency(&self) -> Ticks {
        self.bcrt
    }

    /// Worst-case response-time jitter `J = R_w - R_b` (Eq. 2).
    pub fn jitter(&self) -> Ticks {
        self.wcrt - self.bcrt
    }
}

/// Exact worst-case response time of `task` with the higher-priority set
/// `hp`, bounded by the task's implicit deadline (its period).
///
/// Returns `None` when the smallest fixed point exceeds the period (the
/// task is unschedulable under implicit deadlines, Eq. 3 no longer applies).
///
/// # Examples
///
/// ```
/// use csa_rta::{wcrt, Task, TaskId, Ticks};
///
/// # fn main() -> Result<(), csa_rta::InvalidTask> {
/// let hp = [
///     Task::with_fixed_execution(TaskId::new(0), Ticks::new(1), Ticks::new(4))?,
///     Task::with_fixed_execution(TaskId::new(1), Ticks::new(2), Ticks::new(6))?,
/// ];
/// let t = Task::with_fixed_execution(TaskId::new(2), Ticks::new(3), Ticks::new(10))?;
/// assert_eq!(wcrt(&t, &hp), Some(Ticks::new(10)));
/// # Ok(())
/// # }
/// ```
pub fn wcrt(task: &Task, hp: &[Task]) -> Option<Ticks> {
    wcrt_with_limit(task, hp, task.period())
}

/// Exact worst-case response time with an explicit convergence limit
/// instead of the implicit deadline.
///
/// Useful for sensitivity analysis where response times beyond the deadline
/// are still informative. Returns `None` if the fixed point exceeds
/// `limit` (which also catches over-utilized divergence as long as
/// `limit` is finite).
pub fn wcrt_with_limit(task: &Task, hp: &[Task], limit: Ticks) -> Option<Ticks> {
    with_windows(hp.len(), |w| wcrt_cached(task, hp, limit, w))
}

/// The WCRT fixed point over a caller-provided window cache.
///
/// `windows` must be zeroed, or left over from a previous kernel call
/// against the *same* `hp` slice (stale windows for a different set would
/// silently corrupt the cache); its length must equal `hp.len()`.
pub(crate) fn wcrt_cached(
    task: &Task,
    hp: &[Task],
    limit: Ticks,
    windows: &mut [ReleaseWindow],
) -> Option<Ticks> {
    debug_assert_eq!(hp.len(), windows.len());
    // Start from the total one-shot demand: a valid lower bound on the
    // fixed point that usually converges in a couple of iterations.
    let mut r = task.c_worst() + hp.iter().map(Task::c_worst).sum::<Ticks>();
    if r > limit {
        return None;
    }
    loop {
        let mut next = task.c_worst();
        for (j, w) in hp.iter().zip(windows.iter_mut()) {
            next += j.c_worst() * w.ceil_div(r, j.period());
        }
        if next > limit {
            return None;
        }
        if next == r {
            return Some(r);
        }
        debug_assert!(next > r, "WCRT iteration must be monotone increasing");
        r = next;
    }
}

/// Exact best-case response time of `task` with the higher-priority set
/// `hp`, iterated downward from `start` (Redell & Sanfridson).
///
/// `start` must be an upper bound on the best-case response time; the
/// worst-case response time (or the period) is the customary choice. The
/// iteration converges to the largest fixed point at or below `start`.
///
/// # Examples
///
/// ```
/// use csa_rta::{bcrt_from, Task, TaskId, Ticks};
///
/// # fn main() -> Result<(), csa_rta::InvalidTask> {
/// let hp = [Task::with_fixed_execution(TaskId::new(0), Ticks::new(1), Ticks::new(4))?];
/// let t = Task::with_fixed_execution(TaskId::new(1), Ticks::new(3), Ticks::new(10))?;
/// // Best case: the job finishing right at a higher-priority release
/// // sees no interference at all.
/// assert_eq!(bcrt_from(&t, &hp, Ticks::new(10)), Ticks::new(3));
/// # Ok(())
/// # }
/// ```
pub fn bcrt_from(task: &Task, hp: &[Task], start: Ticks) -> Ticks {
    with_windows(hp.len(), |w| bcrt_cached(task, hp, start, w))
}

/// The BCRT fixed point over a caller-provided window cache (same
/// contract as [`wcrt_cached`]; both directions share the window
/// invariant, so a buffer warmed by a WCRT run over the same `hp` slice
/// is directly reusable).
pub(crate) fn bcrt_cached(
    task: &Task,
    hp: &[Task],
    start: Ticks,
    windows: &mut [ReleaseWindow],
) -> Ticks {
    debug_assert_eq!(hp.len(), windows.len());
    let mut r = start.max(task.c_best());
    loop {
        let mut next = task.c_best();
        for (j, w) in hp.iter().zip(windows.iter_mut()) {
            next += j.c_best() * w.ceil_div(r, j.period()).saturating_sub(1);
        }
        let next = next.max(task.c_best());
        if next >= r {
            return r.max(task.c_best());
        }
        r = next;
    }
}

/// Exact worst- and best-case response times (Eqs. 3–4), or `None` if the
/// task misses its implicit deadline.
///
/// # Examples
///
/// ```
/// use csa_rta::{response_bounds, Task, TaskId, Ticks};
///
/// # fn main() -> Result<(), csa_rta::InvalidTask> {
/// let hp = [Task::new(TaskId::new(0), Ticks::new(1), Ticks::new(2), Ticks::new(8))?];
/// let t = Task::new(TaskId::new(1), Ticks::new(2), Ticks::new(3), Ticks::new(20))?;
/// let rb = response_bounds(&t, &hp).unwrap();
/// assert_eq!(rb.wcrt, Ticks::new(5));  // 3 + 2
/// assert_eq!(rb.bcrt, Ticks::new(2));  // no best-case interference
/// assert_eq!(rb.latency(), Ticks::new(2));
/// assert_eq!(rb.jitter(), Ticks::new(3));
/// # Ok(())
/// # }
/// ```
pub fn response_bounds(task: &Task, hp: &[Task]) -> Option<ResponseBounds> {
    with_windows(hp.len(), |w| response_bounds_cached(task, hp, w))
}

/// Both fixed points over one caller-provided window cache (the BCRT run
/// reuses the windows the WCRT run warmed up).
pub(crate) fn response_bounds_cached(
    task: &Task,
    hp: &[Task],
    windows: &mut [ReleaseWindow],
) -> Option<ResponseBounds> {
    let w = wcrt_cached(task, hp, task.period(), windows)?;
    let b = bcrt_cached(task, hp, w, windows);
    debug_assert!(b <= w, "BCRT must not exceed WCRT");
    Some(ResponseBounds { wcrt: w, bcrt: b })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn t(id: u32, c: u64, h: u64) -> Task {
        Task::with_fixed_execution(TaskId::new(id), Ticks::new(c), Ticks::new(h)).unwrap()
    }

    fn tb(id: u32, cb: u64, cw: u64, h: u64) -> Task {
        Task::new(
            TaskId::new(id),
            Ticks::new(cb),
            Ticks::new(cw),
            Ticks::new(h),
        )
        .unwrap()
    }

    #[test]
    fn highest_priority_task_trivial() {
        let task = tb(0, 2, 5, 10);
        let rb = response_bounds(&task, &[]).unwrap();
        assert_eq!(rb.wcrt, Ticks::new(5));
        assert_eq!(rb.bcrt, Ticks::new(2));
        assert_eq!(rb.jitter(), Ticks::new(3));
    }

    #[test]
    fn classic_three_task_example() {
        // (c, h) = (1,4), (2,6), (3,10): R_w = 1, 3, 10 (worked example).
        let t1 = t(0, 1, 4);
        let t2 = t(1, 2, 6);
        let t3 = t(2, 3, 10);
        assert_eq!(wcrt(&t1, &[]), Some(Ticks::new(1)));
        assert_eq!(wcrt(&t2, &[t1]), Some(Ticks::new(3)));
        assert_eq!(wcrt(&t3, &[t1, t2]), Some(Ticks::new(10)));
    }

    #[test]
    fn classic_bcrt_example() {
        // Same set: best case for tau_3 is c alone = 3 (fixed point of
        // Redell–Sanfridson from R_w = 10 steps 10 -> 7 -> 6 -> 4 -> 3).
        let t1 = t(0, 1, 4);
        let t2 = t(1, 2, 6);
        let t3 = t(2, 3, 10);
        assert_eq!(bcrt_from(&t3, &[t1, t2], Ticks::new(10)), Ticks::new(3));
    }

    #[test]
    fn bcrt_with_real_interference() {
        // tau_2 with c_b large enough that interference persists:
        // hp: (c=2, h=5); task c_b = 7, period 20.
        // R = 7 + (ceil(R/5)-1)*2: R=20: 7+6=13; R=13: 7+(3-1)*2=11;
        // R=11: 7+(3-1)*2=11 fixed.
        let hp = t(0, 2, 5);
        let task = t(1, 7, 20);
        assert_eq!(bcrt_from(&task, &[hp], Ticks::new(20)), Ticks::new(11));
    }

    #[test]
    fn unschedulable_returns_none() {
        // Demand exceeds deadline: c=6 with hp (c=3, h=8), period 10:
        // R = 6 + ceil(R/8)*3 -> 9, 12 > 10.
        let hp = t(0, 3, 8);
        let task = t(1, 6, 10);
        assert_eq!(wcrt(&task, &[hp]), None);
        // With a raised limit the fixed point exists at 12.
        assert_eq!(
            wcrt_with_limit(&task, &[hp], Ticks::new(100)),
            Some(Ticks::new(12))
        );
    }

    #[test]
    fn overutilized_terminates_with_none() {
        let hp = [t(0, 5, 8), t(1, 5, 9)];
        let task = t(2, 5, 50);
        // Utilization > 1: fixed point may not exist; the limit bails out.
        assert_eq!(wcrt(&task, &hp), None);
    }

    #[test]
    fn exact_boundary_interference() {
        // The ceiling boundary case: hp job released exactly at R.
        // task c=2, hp (c=1, h=3): R = 2 + ceil(R/3)*1 -> 3 exact:
        // ceil(3/3)=1 -> R=3 fixed point.
        let hp = t(0, 1, 3);
        let task = t(1, 2, 9);
        assert_eq!(wcrt(&task, &[hp]), Some(Ticks::new(3)));
    }

    #[test]
    fn wcrt_monotone_in_hp_set() {
        let t1 = t(0, 1, 4);
        let t2 = t(1, 2, 6);
        let task = t(2, 3, 30);
        let r0 = wcrt(&task, &[]).unwrap();
        let r1 = wcrt(&task, &[t1]).unwrap();
        let r2 = wcrt(&task, &[t1, t2]).unwrap();
        assert!(r0 <= r1 && r1 <= r2);
    }

    #[test]
    fn jitter_from_execution_variation_only() {
        // With no interference, J = c_w - c_b.
        let task = tb(0, 3, 9, 20);
        let rb = response_bounds(&task, &[]).unwrap();
        assert_eq!(rb.jitter(), Ticks::new(6));
        assert_eq!(rb.latency(), Ticks::new(3));
    }

    #[test]
    fn response_bounds_order() {
        let hp = [tb(0, 1, 2, 7), tb(1, 2, 3, 11)];
        let task = tb(2, 2, 4, 40);
        let rb = response_bounds(&task, &hp).unwrap();
        assert!(rb.bcrt <= rb.wcrt);
        assert!(rb.bcrt >= task.c_best());
        assert!(rb.wcrt >= task.c_worst());
    }
}
