//! Event-driven simulation core (DESIGN.md §12).
//!
//! The reference loop (`reference.rs`) pays three O(n) scans per
//! scheduling event: a release sweep over all tasks, a `max_by_key` over
//! the ready queue, and a `min` over the next-release vector. This core
//! replaces them with
//!
//! 1. a **release scan**: one next-release time per task plus the
//!    earliest of them. Only a release instant scans the array, once: the
//!    scan releases every task due at `now` in ascending task index — the
//!    exact order the reference sweep visits tasks, which is observable
//!    through stateful execution policies and the trace — and recomputes
//!    the earliest pending release in the same pass. Completions and
//!    preemption cuts touch no release state at all; and
//! 2. a **ready index**: tasks keyed by priority *rank* in a `u64` bitmap
//!    for n ≤ 64 (highest ready rank via `leading_zeros`, O(1)) falling
//!    back to an ordered set beyond that. A ready task holds its front
//!    (oldest) job inline; later jobs wait in a per-task backlog that only
//!    an overrunning task touches (jobs of one task complete in release
//!    order).
//!
//! Completions need no queued events at all: the running job is always
//! the front job of the highest-ranked ready task, so its finish time is
//! implicit (`now + remaining`) and never needs invalidating on
//! preemption. An idle processor jumps straight to the next release.
//!
//! The loop structure below mirrors the reference loop step for step;
//! the differential suite (`tests/differential.rs`) pins the two
//! bit-identical across task sets, offsets, policies, and horizons.

use crate::policy::ExecutionPolicy;
use crate::simulator::{finalize_stats, init_stats, SimOutcome, Simulator, TraceEvent};
use csa_rta::Ticks;
use std::collections::{BTreeSet, VecDeque};

/// Next-release time of a task with no release left before the horizon.
/// No real release equals it: every release lies below the horizon,
/// which is at most `Ticks::MAX`.
const NEVER: Ticks = Ticks::MAX;

/// Set of tasks with at least one pending job, keyed by priority rank
/// (`n - 1` = highest priority).
#[derive(Debug)]
enum ReadyIndex {
    /// One bit per rank; the running task is the highest set bit.
    Bitmap(u64),
    /// Fallback for n > 64 ranks.
    Tree(BTreeSet<usize>),
}

impl ReadyIndex {
    fn new(n: usize) -> Self {
        if n <= 64 {
            ReadyIndex::Bitmap(0)
        } else {
            ReadyIndex::Tree(BTreeSet::new())
        }
    }

    #[inline]
    fn contains(&self, rank: usize) -> bool {
        match self {
            ReadyIndex::Bitmap(bits) => bits & (1u64 << rank) != 0,
            ReadyIndex::Tree(set) => set.contains(&rank),
        }
    }

    #[inline]
    fn insert(&mut self, rank: usize) {
        match self {
            ReadyIndex::Bitmap(bits) => *bits |= 1u64 << rank,
            ReadyIndex::Tree(set) => tree_insert(set, rank),
        }
    }

    #[inline]
    fn remove(&mut self, rank: usize) {
        match self {
            ReadyIndex::Bitmap(bits) => *bits &= !(1u64 << rank),
            ReadyIndex::Tree(set) => tree_remove(set, rank),
        }
    }

    /// Highest ready rank, if any.
    #[inline]
    fn highest(&self) -> Option<usize> {
        match self {
            ReadyIndex::Bitmap(bits) => bits.checked_ilog2().map(|b| b as usize),
            ReadyIndex::Tree(set) => set.last().copied(),
        }
    }
}

// The B-tree updates stay out of line so that the bitmap arms of
// `insert` and `remove` inline into the event loop. Compiled as one
// function, each bitmap update was a call that saved and restored six
// registers for a single `or` or `and`, once per release and once per
// completion (DESIGN.md §12).
#[inline(never)]
fn tree_insert(set: &mut BTreeSet<usize>, rank: usize) {
    set.insert(rank);
}

#[inline(never)]
fn tree_remove(set: &mut BTreeSet<usize>, rank: usize) {
    set.remove(&rank);
}

/// A pending job of one task (the task index is the slot it sits in).
#[derive(Debug, Clone, Copy, Default)]
struct Job {
    release: Ticks,
    remaining: Ticks,
}

/// Runs the simulation on the event core. Public API:
/// [`Simulator::run`]. Semantics are bit-identical to
/// [`crate::reference::run`].
pub(crate) fn run<P: ExecutionPolicy + ?Sized>(
    sim: &Simulator,
    horizon: Ticks,
    policy: &mut P,
) -> SimOutcome {
    let n = sim.tasks.len();
    let mut sink = sim.trace_sink();
    let mut stats = init_stats(&sim.tasks);
    let mut job_count = vec![0u64; n];
    // `front[i]` is task `i`'s oldest pending job; it means something
    // exactly while `i`'s rank is in `ready`. `backlog[i]` holds the
    // jobs released behind it, oldest first.
    let mut front = vec![Job::default(); n];
    let mut backlog: Vec<VecDeque<Job>> = vec![VecDeque::new(); n];
    let mut ready = ReadyIndex::new(n);
    // Releases at or past the horizon never happen (the reference
    // sweep's `next_release[i] < horizon` guard).
    let mut next_release: Vec<Ticks> = sim
        .tasks
        .iter()
        .map(|t| if t.offset < horizon { t.offset } else { NEVER })
        .collect();
    let mut next_rel = next_release.iter().copied().fold(NEVER, Ticks::min);

    let mut now = Ticks::ZERO;
    loop {
        // Release every job due at `now`. No release is ever in the past
        // (busy intervals are cut at `next_rel`, idle ones jump to it), so
        // each due task releases exactly one job here. `now` is below the
        // horizon, so a task at `NEVER` is never due.
        if next_rel <= now {
            let mut earliest = NEVER;
            for (i, slot) in next_release.iter_mut().enumerate() {
                let time = *slot;
                if time <= now {
                    // Overflow past `Ticks::MAX` also lies past the horizon.
                    *slot = time
                        .checked_add(sim.tasks[i].task.period())
                        .filter(|&next| next < horizon)
                        .unwrap_or(NEVER);
                    let job = Job {
                        release: time,
                        remaining: sim.execution_time(policy, i, job_count[i]),
                    };
                    job_count[i] += 1;
                    let rank = sim.rank_of[i];
                    if ready.contains(rank) {
                        backlog[i].push_back(job);
                    } else {
                        front[i] = job;
                        ready.insert(rank);
                    }
                    sink.push(TraceEvent::Release {
                        at: time,
                        task_id: sim.tasks[i].task.id(),
                    });
                }
                earliest = earliest.min(*slot);
            }
            next_rel = earliest;
        }

        // The running job is the front job of the highest-ranked ready
        // task.
        let Some(rank) = ready.highest() else {
            // Idle: jump to the next release, or stop.
            if next_rel == NEVER {
                break;
            }
            now = next_rel;
            continue;
        };
        let ti = sim.task_at_rank[rank];
        let job = &mut front[ti];
        // Run to the job's finish or the next release, whichever comes
        // first, and never past the horizon.
        let until = now.saturating_add(job.remaining).min(next_rel).min(horizon);
        if until > now {
            sink.push(TraceEvent::Run {
                from: now,
                to: until,
                task_id: sim.tasks[ti].task.id(),
            });
            job.remaining -= until - now;
        }
        if job.remaining.is_zero() {
            let response = until - job.release;
            match backlog[ti].pop_front() {
                Some(next) => *job = next,
                None => ready.remove(rank),
            }
            let s = &mut stats[ti];
            s.completed += 1;
            s.total += response;
            s.min = s.min.min(response);
            s.max = s.max.max(response);
            if response > sim.tasks[ti].task.period() {
                s.deadline_misses += 1;
            }
            sink.push(TraceEvent::Completion {
                at: until,
                task_id: sim.tasks[ti].task.id(),
                response,
            });
        }
        if until >= horizon {
            break;
        }
        now = until;
    }

    // Every released job has either completed or is still pending.
    for (s, released) in stats.iter_mut().zip(job_count) {
        s.in_flight = released - s.completed;
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

    #[test]
    fn bitmap_index_tracks_highest_rank() {
        let mut idx = ReadyIndex::new(8);
        assert_eq!(idx.highest(), None);
        idx.insert(3);
        idx.insert(5);
        idx.insert(0);
        assert_eq!(idx.highest(), Some(5));
        assert!(idx.contains(3) && !idx.contains(4));
        idx.insert(5); // idempotent
        idx.remove(5);
        assert_eq!(idx.highest(), Some(3));
        assert!(!idx.contains(5));
        idx.remove(3);
        idx.remove(0);
        assert_eq!(idx.highest(), None);
        // Top bit of the 64-rank bitmap.
        let mut full = ReadyIndex::new(64);
        full.insert(63);
        full.insert(62);
        assert_eq!(full.highest(), Some(63));
        assert!(full.contains(63));
    }

    #[test]
    fn tree_fallback_matches_bitmap_semantics() {
        let mut idx = ReadyIndex::new(100);
        assert!(matches!(idx, ReadyIndex::Tree(_)));
        assert_eq!(idx.highest(), None);
        idx.insert(70);
        idx.insert(99);
        idx.insert(70);
        assert_eq!(idx.highest(), Some(99));
        assert!(idx.contains(70) && !idx.contains(71));
        idx.remove(99);
        assert_eq!(idx.highest(), Some(70));
        assert!(!idx.contains(99));
    }
}
