//! Simulator types and the public fixed-priority simulation API.
//!
//! The simulator advances exact integer time between two kinds of events —
//! job releases and job completions — always running the highest-priority
//! ready job, preempting instantly on releases. It validates the analytical
//! response-time bounds from `csa-rta` and provides observed
//! latency/jitter for the examples.
//!
//! [`Simulator::run`] executes on the event core (`event_core.rs`,
//! DESIGN.md §12): a per-task next-release array scanned once per
//! release instant, plus a priority-indexed ready structure whose tasks
//! hold their front job inline, instead of three O(n) scans per
//! scheduling event. The original scan-based loop is retained as
//! [`crate::reference::run`] and pinned bit-identical by the
//! differential proptest suite (`tests/differential.rs`).

use crate::policy::ExecutionPolicy;
use csa_rta::{Task, TaskId, Ticks, MAX_TASKS};

/// A task plus its fixed priority. Larger [`SimTask::priority`] values
/// preempt smaller ones, matching the paper's `rho_i > rho_j` convention.
#[derive(Debug, Clone, Copy)]
pub struct SimTask {
    /// The periodic task.
    pub task: Task,
    /// Scheduling priority; must be unique within a simulation.
    pub priority: u32,
    /// Release offset of the first job (0 = synchronous/critical instant).
    pub offset: Ticks,
}

impl SimTask {
    /// Creates a simulation task with zero offset.
    pub fn new(task: Task, priority: u32) -> Self {
        SimTask {
            task,
            priority,
            offset: Ticks::ZERO,
        }
    }

    /// Creates a simulation task with a release offset.
    pub fn with_offset(task: Task, priority: u32, offset: Ticks) -> Self {
        SimTask {
            task,
            priority,
            offset,
        }
    }
}

/// Observed per-task response-time statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseStats {
    /// Task these statistics belong to.
    pub task_id: TaskId,
    /// Number of completed jobs.
    pub completed: u64,
    /// Smallest observed response time (observed best case).
    pub min: Ticks,
    /// Largest observed response time (observed worst case).
    pub max: Ticks,
    /// Sum of response times (for means).
    pub total: Ticks,
    /// Number of jobs that finished after their implicit deadline.
    pub deadline_misses: u64,
    /// Jobs released before the horizon but still unfinished at it.
    ///
    /// These contribute no response-time statistics, but hyperperiod-scale
    /// runs need the honest completion denominator `completed + in_flight`
    /// (mirroring the sweep orchestrator's quarantined-count convention).
    pub in_flight: u64,
}

impl ResponseStats {
    /// Observed latency: the minimum response time (cf. Eq. 2).
    pub fn observed_latency(&self) -> Ticks {
        self.min
    }

    /// Observed response-time jitter: `max - min` (cf. Eq. 2).
    pub fn observed_jitter(&self) -> Ticks {
        self.max - self.min
    }

    /// Mean response time in seconds.
    pub fn mean_secs(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total.as_secs_f64() / self.completed as f64
        }
    }
}

/// One entry of a recorded schedule trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A job of `task_id` was released.
    Release {
        /// Release instant.
        at: Ticks,
        /// Task released.
        task_id: TaskId,
    },
    /// The processor started (or resumed) executing a job.
    Run {
        /// Start of the execution slice.
        from: Ticks,
        /// End of the execution slice.
        to: Ticks,
        /// Task executing.
        task_id: TaskId,
    },
    /// A job of `task_id` completed with the given response time.
    Completion {
        /// Completion instant.
        at: Ticks,
        /// Task completed.
        task_id: TaskId,
        /// Response time of the completed job.
        response: Ticks,
    },
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Per-task statistics, in the order tasks were supplied.
    pub stats: Vec<ResponseStats>,
    /// Recorded trace (empty unless tracing was enabled).
    ///
    /// With [`Simulator::record_trace_capped`] this holds the *last*
    /// `cap` events in order; `trace_dropped` counts the evicted prefix.
    pub trace: Vec<TraceEvent>,
    /// Events evicted from a capped trace (0 for uncapped traces).
    pub trace_dropped: u64,
    /// Time at which the simulation stopped.
    pub horizon: Ticks,
}

impl SimOutcome {
    /// Statistics for a given task id, if it was part of the simulation.
    pub fn stats_for(&self, id: TaskId) -> Option<&ResponseStats> {
        self.stats.iter().find(|s| s.task_id == id)
    }
}

/// Why a [`Simulator`] could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The task set was empty.
    EmptyTaskSet,
    /// The task set has more than [`MAX_TASKS`] tasks, one bit each in
    /// the event core's ready set.
    TooManyTasks {
        /// How many tasks were given.
        count: usize,
    },
    /// Two tasks share a priority, making the schedule ambiguous.
    DuplicatePriority {
        /// The shared priority value.
        priority: u32,
        /// One of the tasks carrying it.
        first: TaskId,
        /// Another task carrying it.
        second: TaskId,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SimError::EmptyTaskSet => write!(f, "need at least one task"),
            SimError::TooManyTasks { count } => {
                write!(f, "at most {MAX_TASKS} tasks can be simulated, got {count}")
            }
            SimError::DuplicatePriority {
                priority,
                first,
                second,
            } => write!(
                f,
                "priorities must be unique: {first} and {second} both have priority {priority}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Trace collector shared by the event core and the reference loop, so
/// capped-trace truncation is bit-identical in both by construction.
#[derive(Debug)]
pub(crate) struct TraceSink {
    enabled: bool,
    cap: Option<usize>,
    buf: Vec<TraceEvent>,
    /// Ring start once `buf` reached the cap (oldest retained event).
    head: usize,
    dropped: u64,
}

impl TraceSink {
    pub(crate) fn new(enabled: bool, cap: Option<usize>) -> Self {
        TraceSink {
            enabled,
            cap,
            buf: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        match self.cap {
            Some(0) => self.dropped += 1,
            Some(cap) if self.buf.len() == cap => {
                self.buf[self.head] = event;
                self.head = (self.head + 1) % cap;
                self.dropped += 1;
            }
            _ => self.buf.push(event),
        }
    }

    /// Returns the retained events in chronological order plus the count
    /// of evicted ones.
    pub(crate) fn finish(mut self) -> (Vec<TraceEvent>, u64) {
        self.buf.rotate_left(self.head);
        (self.buf, self.dropped)
    }
}

/// Fresh per-run statistics rows, one per task in supplied order.
pub(crate) fn init_stats(tasks: &[SimTask]) -> Vec<ResponseStats> {
    tasks
        .iter()
        .map(|t| ResponseStats {
            task_id: t.task.id(),
            completed: 0,
            min: Ticks::MAX,
            max: Ticks::ZERO,
            total: Ticks::ZERO,
            deadline_misses: 0,
            in_flight: 0,
        })
        .collect()
}

/// Normalizes empty statistics rows (min stays MAX if nothing completed).
pub(crate) fn finalize_stats(stats: &mut [ResponseStats]) {
    for s in stats {
        if s.completed == 0 {
            s.min = Ticks::ZERO;
        }
    }
}

/// Fixed-priority preemptive simulator.
///
/// # Examples
///
/// ```
/// use csa_rta::{Task, TaskId, Ticks};
/// use csa_sim::{Simulator, SimTask, WorstCasePolicy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let hi = SimTask::new(Task::with_fixed_execution(TaskId::new(0), Ticks::new(1), Ticks::new(4))?, 2);
/// let lo = SimTask::new(Task::with_fixed_execution(TaskId::new(1), Ticks::new(2), Ticks::new(10))?, 1);
/// let outcome = Simulator::new(vec![hi, lo])?
///     .run(Ticks::new(40), &mut WorstCasePolicy);
/// // The low-priority task's first job sees one preemption: response 3.
/// assert_eq!(outcome.stats[1].max, Ticks::new(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    pub(crate) tasks: Vec<SimTask>,
    pub(crate) record_trace: bool,
    pub(crate) trace_cap: Option<usize>,
    /// `rank_of[i]` = priority rank of task `i` (0 = lowest priority,
    /// `n - 1` = highest); the key used by the event core's ready index.
    pub(crate) rank_of: Vec<usize>,
    /// Inverse of `rank_of`: the task index holding each rank.
    pub(crate) task_at_rank: Vec<usize>,
}

impl Simulator {
    /// Creates a simulator over the given prioritized tasks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyTaskSet`] for an empty slice,
    /// [`SimError::TooManyTasks`] for more than [`MAX_TASKS`] tasks, and
    /// [`SimError::DuplicatePriority`] when two tasks share a priority
    /// (the schedule would be ambiguous). Detection sorts the priorities
    /// once — O(n log n) instead of the earlier all-pairs scan — and the
    /// same sorted order seeds the event core's priority ranks.
    pub fn new(tasks: Vec<SimTask>) -> Result<Self, SimError> {
        let n = tasks.len();
        if n == 0 {
            return Err(SimError::EmptyTaskSet);
        }
        if n > MAX_TASKS {
            return Err(SimError::TooManyTasks { count: n });
        }
        let mut task_at_rank: Vec<usize> = (0..n).collect();
        // Stable by priority; ties would be adjacent after the sort.
        task_at_rank.sort_by_key(|&i| tasks[i].priority);
        for pair in task_at_rank.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if tasks[a].priority == tasks[b].priority {
                return Err(SimError::DuplicatePriority {
                    priority: tasks[a].priority,
                    first: tasks[a].task.id(),
                    second: tasks[b].task.id(),
                });
            }
        }
        let mut rank_of = vec![0usize; n];
        for (rank, &i) in task_at_rank.iter().enumerate() {
            rank_of[i] = rank;
        }
        Ok(Simulator {
            tasks,
            record_trace: false,
            trace_cap: None,
            rank_of,
            task_at_rank,
        })
    }

    /// Enables trace recording (releases, execution slices, completions)
    /// with an unbounded buffer.
    pub fn record_trace(mut self, enable: bool) -> Self {
        self.record_trace = enable;
        self.trace_cap = None;
        self
    }

    /// Enables trace recording bounded to the most recent `cap` events.
    ///
    /// Long-horizon runs stay bounded-memory: once `cap` events have been
    /// recorded the oldest are evicted ring-buffer style, and
    /// [`SimOutcome::trace_dropped`] reports how many were lost. A `cap`
    /// of 0 records nothing but still counts the events it would have
    /// kept.
    pub fn record_trace_capped(mut self, cap: usize) -> Self {
        self.record_trace = true;
        self.trace_cap = Some(cap);
        self
    }

    pub(crate) fn trace_sink(&self) -> TraceSink {
        TraceSink::new(self.record_trace, self.trace_cap)
    }

    /// Runs the simulation until `horizon`, drawing execution times from
    /// `policy`.
    ///
    /// Jobs released before the horizon but unfinished at it contribute no
    /// response-time statistics; they are counted per task in
    /// [`ResponseStats::in_flight`]. Deadline misses do not abort the job
    /// — the overrunning job keeps executing at its priority and the miss
    /// is counted, letting over-utilized sets run to the horizon.
    ///
    /// Executes on the event core; semantics (including the trace
    /// and the order of policy calls) are bit-identical to
    /// [`crate::reference::run`].
    pub fn run<P: ExecutionPolicy + ?Sized>(&self, horizon: Ticks, policy: &mut P) -> SimOutcome {
        crate::event_core::run(self, horizon, policy)
    }

    /// Draws (and clamps) the execution time for one job release.
    pub(crate) fn execution_time<P: ExecutionPolicy + ?Sized>(
        &self,
        policy: &mut P,
        task_index: usize,
        job_index: u64,
    ) -> Ticks {
        let task = &self.tasks[task_index].task;
        let c = policy.execution_time(task, job_index);
        debug_assert!(
            c >= task.c_best() && c <= task.c_worst(),
            "policy returned {c} outside [{}, {}] for {}",
            task.c_best(),
            task.c_worst(),
            task.id()
        );
        c.max(task.c_best()).min(task.c_worst())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AlternatingPolicy, BestCasePolicy, UniformPolicy, WorstCasePolicy};
    use csa_rta::{response_bounds, Task, TaskId};

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

    fn sim(tasks: Vec<SimTask>) -> Simulator {
        Simulator::new(tasks).expect("valid task set")
    }

    #[test]
    fn single_task_response_is_execution_time() {
        let sim = sim(vec![SimTask::new(t(0, 3, 10), 1)]);
        let out = sim.run(Ticks::new(100), &mut WorstCasePolicy);
        assert_eq!(out.stats[0].completed, 10);
        assert_eq!(out.stats[0].min, Ticks::new(3));
        assert_eq!(out.stats[0].max, Ticks::new(3));
        assert_eq!(out.stats[0].deadline_misses, 0);
        assert_eq!(out.stats[0].in_flight, 0);
    }

    #[test]
    fn two_task_hand_schedule() {
        // hi: c=1 h=4; lo: c=2 h=10 synchronous.
        // Schedule: [0,1) hi, [1,3) lo done at 3 (response 3).
        // Second lo job at 10: hi released at 12 preempts? lo runs [10,12)
        // done at 12 response 2: wait hi releases at 8 runs [8,9), then
        // idle; at 10 lo released, runs [10,12), hi at 12 — lo already
        // done exactly at 12.
        let sim = sim(vec![
            SimTask::new(t(0, 1, 4), 2),
            SimTask::new(t(1, 2, 10), 1),
        ])
        .record_trace(true);
        let out = sim.run(Ticks::new(20), &mut WorstCasePolicy);
        let lo = out.stats_for(TaskId::new(1)).unwrap();
        assert_eq!(lo.completed, 2);
        assert_eq!(lo.max, Ticks::new(3));
        assert_eq!(lo.min, Ticks::new(2));
        assert!(!out.trace.is_empty());
        assert_eq!(out.trace_dropped, 0);
    }

    #[test]
    fn critical_instant_reproduces_wcrt() {
        // Synchronous release with worst-case execution: the first job of
        // the lowest-priority task must exhibit exactly the analytical WCRT.
        let t1 = t(0, 1, 4);
        let t2 = t(1, 2, 6);
        let t3 = t(2, 3, 10);
        let rb = response_bounds(&t3, &[t1, t2]).unwrap();
        let sim = sim(vec![
            SimTask::new(t1, 3),
            SimTask::new(t2, 2),
            SimTask::new(t3, 1),
        ]);
        let out = sim.run(Ticks::new(10), &mut WorstCasePolicy);
        assert_eq!(out.stats[2].max, rb.wcrt);
    }

    #[test]
    fn responses_within_analytical_bounds() {
        let t1 = tb(0, 1, 2, 7);
        let t2 = tb(1, 1, 3, 13);
        let t3 = tb(2, 2, 4, 31);
        let rb3 = response_bounds(&t3, &[t1, t2]).unwrap();
        let sim = sim(vec![
            SimTask::new(t1, 3),
            SimTask::new(t2, 2),
            SimTask::new(t3, 1),
        ]);
        for seed in 0..5 {
            let mut policy = UniformPolicy::new(seed);
            let out = sim.run(Ticks::from_micros(100), &mut policy);
            let s = out.stats_for(TaskId::new(2)).unwrap();
            assert!(s.completed > 0);
            assert!(s.max <= rb3.wcrt, "observed {} > WCRT {}", s.max, rb3.wcrt);
            assert!(s.min >= rb3.bcrt, "observed {} < BCRT {}", s.min, rb3.bcrt);
        }
    }

    #[test]
    fn alternating_policy_creates_jitter() {
        let task = tb(0, 2, 6, 10);
        let sim = sim(vec![SimTask::new(task, 1)]);
        let out = sim.run(Ticks::new(100), &mut AlternatingPolicy);
        assert_eq!(out.stats[0].observed_jitter(), Ticks::new(4));
        assert_eq!(out.stats[0].observed_latency(), Ticks::new(2));
    }

    #[test]
    fn offset_delays_first_release() {
        let task = t(0, 1, 10);
        let sim = sim(vec![SimTask::with_offset(task, 1, Ticks::new(5))]);
        let out = sim
            .record_trace(true)
            .run(Ticks::new(30), &mut BestCasePolicy);
        assert_eq!(out.stats[0].completed, 3); // releases at 5, 15, 25
        match out.trace[0] {
            TraceEvent::Release { at, .. } => assert_eq!(at, Ticks::new(5)),
            _ => panic!("first event must be a release"),
        }
    }

    #[test]
    fn overload_counts_deadline_misses_and_terminates() {
        // Utilization 1.25: the low-priority task must miss.
        let sim = sim(vec![
            SimTask::new(t(0, 3, 4), 2),
            SimTask::new(t(1, 4, 8), 1),
        ]);
        let out = sim.run(Ticks::new(200), &mut WorstCasePolicy);
        assert!(out.stats[1].deadline_misses > 0);
        // Over-utilization leaves backlog at the horizon.
        assert!(out.stats[1].in_flight > 0);
    }

    #[test]
    fn trace_slices_are_contiguous_and_ordered() {
        let sim = sim(vec![
            SimTask::new(t(0, 1, 3), 2),
            SimTask::new(t(1, 3, 9), 1),
        ])
        .record_trace(true);
        let out = sim.run(Ticks::new(27), &mut WorstCasePolicy);
        let mut last_end = Ticks::ZERO;
        for e in &out.trace {
            if let TraceEvent::Run { from, to, .. } = e {
                assert!(from < to, "empty run slice");
                assert!(*from >= last_end, "run slices must not overlap");
                last_end = *to;
            }
        }
        // Processor is busy 1/3 + 3/9 = 2/3 of the time: total run time 18.
        let busy: u64 = out
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Run { from, to, .. } => Some(to.get() - from.get()),
                _ => None,
            })
            .sum();
        assert_eq!(busy, 18);
    }

    #[test]
    fn duplicate_priorities_are_rejected() {
        let err = Simulator::new(vec![
            SimTask::new(t(0, 1, 4), 1),
            SimTask::new(t(1, 1, 5), 1),
        ])
        .unwrap_err();
        match err {
            SimError::DuplicatePriority { priority, .. } => assert_eq!(priority, 1),
            other => panic!("expected DuplicatePriority, got {other:?}"),
        }
        assert!(err.to_string().contains("priorities must be unique"));
    }

    #[test]
    fn empty_task_set_is_rejected() {
        assert_eq!(Simulator::new(vec![]).unwrap_err(), SimError::EmptyTaskSet);
    }

    #[test]
    fn task_sets_above_the_ceiling_are_rejected() {
        let tasks = |n: u32| (0..n).map(|i| SimTask::new(t(i, 1, 1000), i)).collect();
        assert!(Simulator::new(tasks(MAX_TASKS as u32)).is_ok());
        let err = Simulator::new(tasks(MAX_TASKS as u32 + 1)).unwrap_err();
        assert_eq!(err, SimError::TooManyTasks { count: 65 });
        assert_eq!(err.to_string(), "at most 64 tasks can be simulated, got 65");
    }

    #[test]
    fn fifo_within_task_on_overrun() {
        // Heavy interference makes the low-priority task overrun its
        // period, so two of its jobs are simultaneously active; they must
        // complete in release order (FIFO within a task).
        // hi: c=3 h=4 (prio 2); lo: c=2 h=5 (prio 1).
        // Hand schedule: hi [0,3)[4,7)[8,11)[12,15); lo0 [3,4)+[7,8) done
        // at 8 (response 8); lo1 [11,12)+[15,16) done at 16 (response 11).
        let sim = sim(vec![
            SimTask::new(t(0, 3, 4), 2),
            SimTask::new(t(1, 2, 5), 1),
        ])
        .record_trace(true);
        let out = sim.run(Ticks::new(16), &mut WorstCasePolicy);
        let lo_completions: Vec<_> = out
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Completion {
                    at,
                    response,
                    task_id,
                } if *task_id == TaskId::new(1) => Some((*at, *response)),
                _ => None,
            })
            .collect();
        assert_eq!(lo_completions.len(), 2);
        assert_eq!(lo_completions[0], (Ticks::new(8), Ticks::new(8)));
        assert_eq!(lo_completions[1], (Ticks::new(16), Ticks::new(11)));
        assert_eq!(out.stats[1].deadline_misses, 2);
    }

    #[test]
    fn capped_trace_keeps_last_events_in_order() {
        let tasks = vec![SimTask::new(t(0, 3, 10), 1)];
        let full = sim(tasks.clone())
            .record_trace(true)
            .run(Ticks::new(100), &mut WorstCasePolicy);
        let capped = sim(tasks)
            .record_trace_capped(7)
            .run(Ticks::new(100), &mut WorstCasePolicy);
        assert_eq!(capped.trace.len(), 7);
        assert_eq!(
            capped.trace_dropped as usize,
            full.trace.len() - capped.trace.len()
        );
        // The retained suffix matches the tail of the full trace.
        assert_eq!(capped.trace[..], full.trace[full.trace.len() - 7..]);
        // Statistics are unaffected by the trace cap.
        assert_eq!(capped.stats, full.stats);
    }

    #[test]
    fn zero_capped_trace_counts_without_storing() {
        let out = sim(vec![SimTask::new(t(0, 3, 10), 1)])
            .record_trace_capped(0)
            .run(Ticks::new(100), &mut WorstCasePolicy);
        assert!(out.trace.is_empty());
        assert_eq!(out.trace_dropped, 30); // 10 releases + 10 runs + 10 completions
    }

    #[test]
    fn cap_larger_than_trace_drops_nothing() {
        let tasks = vec![SimTask::new(t(0, 3, 10), 1)];
        let full = sim(tasks.clone())
            .record_trace(true)
            .run(Ticks::new(100), &mut WorstCasePolicy);
        let capped = sim(tasks)
            .record_trace_capped(10_000)
            .run(Ticks::new(100), &mut WorstCasePolicy);
        assert_eq!(capped.trace, full.trace);
        assert_eq!(capped.trace_dropped, 0);
    }
}
