//! The original scan-based simulation loop, retained as the oracle.
//!
//! This is the loop `Simulator::run` executed before the event core
//! (`event_core.rs`) replaced it: every scheduling event pays three
//! O(n) scans — a release sweep over all tasks, a `max_by_key` over the
//! flat ready queue, and a `min` over the next-release vector. It is
//! kept verbatim (adapted only to the shared trace sink, the
//! `in_flight` accounting, and overflow-safe release and finish times
//! for horizons near `Ticks::MAX`) as the semantic reference: the
//! differential proptest suite (`tests/differential.rs`) pins the event
//! core bit-identical to it, the same pattern as `csa_core::reference`.
//!
//! Use [`run`] directly only to benchmark against or test the event
//! core; production callers go through [`Simulator::run`].

use crate::policy::ExecutionPolicy;
use crate::simulator::{finalize_stats, init_stats, SimOutcome, Simulator, TraceEvent};
use csa_rta::Ticks;

/// An active job in the flat ready queue.
#[derive(Debug, Clone, Copy)]
struct Job {
    task_index: usize,
    release: Ticks,
    remaining: Ticks,
}

/// Runs the simulation with the original O(n)-per-event loop. Same
/// inputs, same `SimOutcome` — bit-identical to [`Simulator::run`] —
/// just slower on large or long-horizon task sets.
pub fn run<P: ExecutionPolicy + ?Sized>(
    sim: &Simulator,
    horizon: Ticks,
    policy: &mut P,
) -> SimOutcome {
    let n = sim.tasks.len();
    let mut next_release: Vec<Ticks> = sim.tasks.iter().map(|t| t.offset).collect();
    let mut job_count = vec![0u64; n];
    let mut ready: Vec<Job> = Vec::new();
    let mut sink = sim.trace_sink();
    let mut stats = init_stats(&sim.tasks);

    let mut now = Ticks::ZERO;
    loop {
        // Release every job due at or before `now`.
        for i in 0..n {
            while next_release[i] <= now && next_release[i] < horizon {
                let release = next_release[i];
                let c = sim.execution_time(policy, i, job_count[i]);
                job_count[i] += 1;
                // Overflow past `Ticks::MAX` also lies past the horizon:
                // `MAX < horizon` never holds, so the task stops releasing.
                next_release[i] = release
                    .checked_add(sim.tasks[i].task.period())
                    .unwrap_or(Ticks::MAX);
                ready.push(Job {
                    task_index: i,
                    release,
                    remaining: c,
                });
                sink.push(TraceEvent::Release {
                    at: release,
                    task_id: sim.tasks[i].task.id(),
                });
            }
        }

        // Pick the highest-priority ready job (FIFO within a task).
        let running = ready
            .iter()
            .enumerate()
            .max_by_key(|(_, j)| {
                (
                    sim.tasks[j.task_index].priority,
                    std::cmp::Reverse(j.release),
                )
            })
            .map(|(idx, _)| idx);

        let next_rel = next_release.iter().copied().filter(|&r| r < horizon).min();

        let Some(run_idx) = running else {
            // Idle: jump to the next release, or stop.
            match next_rel {
                Some(r) if r < horizon => {
                    now = r;
                    continue;
                }
                _ => break,
            }
        };

        let job = ready[run_idx];
        let finish_at = now.saturating_add(job.remaining);
        let until = match next_rel {
            Some(r) if r < finish_at => r,
            _ => finish_at,
        };
        // Never run past the horizon.
        let until = until.min(horizon);
        if until > now {
            sink.push(TraceEvent::Run {
                from: now,
                to: until,
                task_id: sim.tasks[job.task_index].task.id(),
            });
            let executed = until - now;
            ready[run_idx].remaining -= executed;
        }
        if ready[run_idx].remaining.is_zero() {
            let done = ready.swap_remove(run_idx);
            let response = until - done.release;
            let s = &mut stats[done.task_index];
            s.completed += 1;
            s.total += response;
            s.min = s.min.min(response);
            s.max = s.max.max(response);
            if response > sim.tasks[done.task_index].task.period() {
                s.deadline_misses += 1;
            }
            sink.push(TraceEvent::Completion {
                at: until,
                task_id: sim.tasks[done.task_index].task.id(),
                response,
            });
        }
        if until >= horizon {
            break;
        }
        now = until;
    }

    for job in &ready {
        stats[job.task_index].in_flight += 1;
    }
    finalize_stats(&mut stats);
    let (trace, trace_dropped) = sink.finish();
    SimOutcome {
        stats,
        trace,
        trace_dropped,
        horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WorstCasePolicy;
    use crate::simulator::SimTask;
    use csa_rta::{Task, TaskId};

    #[test]
    fn reference_matches_event_core_on_a_hand_case() {
        let hi = Task::with_fixed_execution(TaskId::new(0), Ticks::new(1), Ticks::new(4)).unwrap();
        let lo = Task::with_fixed_execution(TaskId::new(1), Ticks::new(2), Ticks::new(10)).unwrap();
        let sim = Simulator::new(vec![SimTask::new(hi, 2), SimTask::new(lo, 1)])
            .unwrap()
            .record_trace(true);
        let a = run(&sim, Ticks::new(40), &mut WorstCasePolicy);
        let b = sim.run(Ticks::new(40), &mut WorstCasePolicy);
        assert_eq!(a, b);
    }
}
