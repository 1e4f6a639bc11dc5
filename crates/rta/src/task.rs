//! The periodic task model of the paper (§II-A).
//!
//! Each control application is a periodic task `tau_i` with execution time
//! bounded by `[c_b, c_w]`, period `h_i`, and an implicit deadline equal to
//! the period. Priorities live *outside* the task (they are the design
//! variable the paper's algorithms assign), see `csa-core`.

use crate::time::Ticks;
use std::error::Error as StdError;
use std::fmt;

/// Identifier of a task within a task set (stable across reordering).
///
/// # Examples
///
/// ```
/// use csa_rta::TaskId;
///
/// let id = TaskId::new(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u32);

impl TaskId {
    /// Creates an identifier from an index.
    pub const fn new(index: u32) -> Self {
        TaskId(index)
    }

    /// The underlying index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tau_{}", self.0)
    }
}

/// Error constructing an invalid [`Task`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvalidTask {
    /// Best-case execution time was zero.
    ZeroExecutionTime,
    /// Best-case execution time exceeded the worst case.
    BestExceedsWorst,
    /// Worst-case execution time exceeded the period (utilization > 1).
    WorstExceedsPeriod,
}

impl fmt::Display for InvalidTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidTask::ZeroExecutionTime => {
                write!(f, "best-case execution time must be positive")
            }
            InvalidTask::BestExceedsWorst => {
                write!(f, "best-case execution time must not exceed the worst case")
            }
            InvalidTask::WorstExceedsPeriod => {
                write!(f, "worst-case execution time must not exceed the period")
            }
        }
    }
}

impl StdError for InvalidTask {}

/// A periodic task with execution time in `[c_best, c_worst]` and an
/// implicit deadline equal to its period.
///
/// # Examples
///
/// ```
/// use csa_rta::{Task, TaskId, Ticks};
///
/// # fn main() -> Result<(), csa_rta::InvalidTask> {
/// let t = Task::new(
///     TaskId::new(0),
///     Ticks::from_millis(1),
///     Ticks::from_millis(2),
///     Ticks::from_millis(10),
/// )?;
/// assert_eq!(t.utilization(), 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    id: TaskId,
    c_best: Ticks,
    c_worst: Ticks,
    period: Ticks,
}

impl Task {
    /// Creates a task, validating `0 < c_best <= c_worst <= period`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidTask`] when the bounds are inconsistent.
    pub fn new(
        id: TaskId,
        c_best: Ticks,
        c_worst: Ticks,
        period: Ticks,
    ) -> Result<Task, InvalidTask> {
        if c_best.is_zero() {
            return Err(InvalidTask::ZeroExecutionTime);
        }
        if c_best > c_worst {
            return Err(InvalidTask::BestExceedsWorst);
        }
        if c_worst > period {
            return Err(InvalidTask::WorstExceedsPeriod);
        }
        Ok(Task {
            id,
            c_best,
            c_worst,
            period,
        })
    }

    /// Creates a task with a fixed (best = worst) execution time.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidTask`] when the bounds are inconsistent.
    pub fn with_fixed_execution(id: TaskId, c: Ticks, period: Ticks) -> Result<Task, InvalidTask> {
        Task::new(id, c, c, period)
    }

    /// Identifier.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Best-case execution time `c_b`.
    pub fn c_best(&self) -> Ticks {
        self.c_best
    }

    /// Worst-case execution time `c_w`.
    pub fn c_worst(&self) -> Ticks {
        self.c_worst
    }

    /// Sampling period `h` (also the implicit deadline).
    pub fn period(&self) -> Ticks {
        self.period
    }

    /// Worst-case utilization `c_w / h`.
    pub fn utilization(&self) -> f64 {
        self.c_worst.get() as f64 / self.period.get() as f64
    }

    /// Returns a copy with a different worst-case execution time.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidTask`] when the new value breaks the invariants.
    pub fn with_c_worst(&self, c_worst: Ticks) -> Result<Task, InvalidTask> {
        Task::new(self.id, self.c_best.min(c_worst), c_worst, self.period)
    }

    /// Returns a copy with a different period.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidTask`] when the new value breaks the invariants.
    pub fn with_period(&self, period: Ticks) -> Result<Task, InvalidTask> {
        Task::new(self.id, self.c_best, self.c_worst, period)
    }
}

/// Total worst-case utilization of a set of tasks.
///
/// # Examples
///
/// ```
/// use csa_rta::{utilization, Task, TaskId, Ticks};
///
/// # fn main() -> Result<(), csa_rta::InvalidTask> {
/// let ts = vec![
///     Task::with_fixed_execution(TaskId::new(0), Ticks::new(2), Ticks::new(10))?,
///     Task::with_fixed_execution(TaskId::new(1), Ticks::new(3), Ticks::new(10))?,
/// ];
/// assert!((utilization(&ts) - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn utilization(tasks: &[Task]) -> f64 {
    tasks.iter().map(Task::utilization).sum()
}

/// Largest task set the workspace takes: one bit per task in a `u64`.
/// `csa-core`'s stability checker keys its verdict memo by such a mask
/// of higher-priority tasks and `csa-sim` keeps its ready set in one,
/// so both refuse wider sets, and every reader of a task count (the
/// experiment binaries' `--n`, monitor requests, witness lines) rejects
/// one above it with a reason naming this limit.
pub const MAX_TASKS: usize = 64;

/// Least common multiple of all task periods, or `None` on overflow.
pub fn hyperperiod(tasks: &[Task]) -> Option<Ticks> {
    let mut acc = Ticks::new(1);
    for t in tasks {
        acc = acc.lcm(t.period())?;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tk(ms: u64) -> Ticks {
        Ticks::from_millis(ms)
    }

    #[test]
    fn valid_task_accessors() {
        let t = Task::new(TaskId::new(7), tk(1), tk(3), tk(12)).unwrap();
        assert_eq!(t.id().index(), 7);
        assert_eq!(t.c_best(), tk(1));
        assert_eq!(t.c_worst(), tk(3));
        assert_eq!(t.period(), tk(12));
        assert!((t.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn invalid_tasks_rejected() {
        assert_eq!(
            Task::new(TaskId::new(0), Ticks::ZERO, tk(1), tk(2)),
            Err(InvalidTask::ZeroExecutionTime)
        );
        assert_eq!(
            Task::new(TaskId::new(0), tk(3), tk(1), tk(5)),
            Err(InvalidTask::BestExceedsWorst)
        );
        assert_eq!(
            Task::new(TaskId::new(0), tk(1), tk(6), tk(5)),
            Err(InvalidTask::WorstExceedsPeriod)
        );
    }

    #[test]
    fn with_methods_revalidate() {
        let t = Task::new(TaskId::new(0), tk(2), tk(3), tk(10)).unwrap();
        let t2 = t.with_c_worst(tk(5)).unwrap();
        assert_eq!(t2.c_worst(), tk(5));
        assert!(t.with_c_worst(tk(11)).is_err());
        let t3 = t.with_period(tk(20)).unwrap();
        assert_eq!(t3.period(), tk(20));
        assert!(t.with_period(tk(2)).is_err());
        // Shrinking c_worst below c_best clamps c_best.
        let t4 = t.with_c_worst(tk(1)).unwrap();
        assert_eq!(t4.c_best(), tk(1));
    }

    #[test]
    fn utilization_and_hyperperiod() {
        let ts = vec![
            Task::with_fixed_execution(TaskId::new(0), tk(1), tk(4)).unwrap(),
            Task::with_fixed_execution(TaskId::new(1), tk(2), tk(6)).unwrap(),
        ];
        assert!((utilization(&ts) - (0.25 + 2.0 / 6.0)).abs() < 1e-12);
        assert_eq!(hyperperiod(&ts), Some(tk(12)));
    }

    #[test]
    fn invalid_task_display() {
        let m = InvalidTask::BestExceedsWorst.to_string();
        assert!(m.starts_with("best-case"));
    }
}
