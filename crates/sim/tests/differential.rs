//! Differential suite pinning the event core bit-identical to the
//! retained scan-based loop (`csa_sim::reference`), plus the
//! hyperperiod-wraparound invariant.
//!
//! `Simulator::run` (event core) and `reference::run` must produce the
//! same `SimOutcome` — statistics, full trace, capped trace, and dropped
//! count — across random task sets, offsets, priority permutations,
//! execution policies, and horizons: small sets with arbitrary periods,
//! crossval-replica-shaped sets of up to 64 tasks on the `m · 2^k`
//! period lattice, a 64-task set, and horizons up to `Ticks::MAX`.
//! Stateful policies (the seeded uniform one) make the *order* of policy
//! calls observable, so equality here also pins the release-processing
//! order.

use csa_rta::{hyperperiod, Task, TaskId, Ticks};
use csa_sim::{
    reference, AlternatingPolicy, BestCasePolicy, SimOutcome, SimTask, Simulator, UniformPolicy,
    WorstCasePolicy,
};
use proptest::prelude::*;

/// Deterministic Fisher–Yates permutation of `1..=n` (SplitMix64-driven),
/// used to assign unique priorities in a seed-controlled random order.
fn permuted_priorities(n: usize, seed: u64) -> Vec<u32> {
    let mut p: Vec<u32> = (1..=n as u32).collect();
    let mut z = seed;
    for i in (1..n).rev() {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let j = (x % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Up to 9 tasks with arbitrary execution ranges, periods, and offsets
/// (schedulability not required — overload exercises FIFO backlogs).
fn task_specs() -> impl Strategy<Value = Vec<(u64, u64, u64, u64)>> {
    proptest::collection::vec((1u64..8, 1u64..8, 4u64..80, 0u64..30), 1..10)
}

fn build(specs: &[(u64, u64, u64, u64)], prio_seed: u64) -> Vec<SimTask> {
    let prios = permuted_priorities(specs.len(), prio_seed);
    specs
        .iter()
        .enumerate()
        .map(|(i, &(a, b, period, offset))| {
            let (cb, cw) = (a.min(b), a.max(b));
            let period = period.max(cw);
            let task = Task::new(
                TaskId::new(i as u32),
                Ticks::new(cb),
                Ticks::new(cw),
                Ticks::new(period),
            )
            .expect("valid by construction");
            SimTask::with_offset(task, prios[i], Ticks::new(offset))
        })
        .collect()
}

/// Runs one of the four policies on either the event core or the
/// reference loop. Stateful policies are constructed fresh per call so
/// both cores see identical streams.
fn run_with(sim: &Simulator, horizon: Ticks, policy_id: u8, seed: u64, event: bool) -> SimOutcome {
    match policy_id % 4 {
        0 => {
            let mut p = WorstCasePolicy;
            if event {
                sim.run(horizon, &mut p)
            } else {
                reference::run(sim, horizon, &mut p)
            }
        }
        1 => {
            let mut p = BestCasePolicy;
            if event {
                sim.run(horizon, &mut p)
            } else {
                reference::run(sim, horizon, &mut p)
            }
        }
        2 => {
            let mut p = AlternatingPolicy;
            if event {
                sim.run(horizon, &mut p)
            } else {
                reference::run(sim, horizon, &mut p)
            }
        }
        _ => {
            let mut p = UniformPolicy::new(seed);
            if event {
                sim.run(horizon, &mut p)
            } else {
                reference::run(sim, horizon, &mut p)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn event_core_bit_identical_to_reference(
        specs in task_specs(),
        prio_seed in any::<u64>(),
        policy_id in 0u8..4,
        policy_seed in any::<u64>(),
        horizon in 0u64..4000,
    ) {
        let tasks = build(&specs, prio_seed);
        let sim = Simulator::new(tasks).expect("unique priorities").record_trace(true);
        let horizon = Ticks::new(horizon);
        let event = run_with(&sim, horizon, policy_id, policy_seed, true);
        let reference = run_with(&sim, horizon, policy_id, policy_seed, false);
        prop_assert_eq!(event, reference);
    }

    #[test]
    fn capped_traces_match_between_cores(
        specs in task_specs(),
        prio_seed in any::<u64>(),
        policy_seed in any::<u64>(),
        cap in 0usize..40,
        horizon in 1u64..3000,
    ) {
        let tasks = build(&specs, prio_seed);
        let sim = Simulator::new(tasks).expect("unique priorities").record_trace_capped(cap);
        let horizon = Ticks::new(horizon);
        let event = run_with(&sim, horizon, 3, policy_seed, true);
        let reference = run_with(&sim, horizon, 3, policy_seed, false);
        prop_assert_eq!(&event, &reference);
        prop_assert!(event.trace.len() <= cap);
        // The capped trace is the tail of the uncapped one.
        let full = run_with(
            &sim.clone().record_trace(true), horizon, 3, policy_seed, true,
        );
        let tail = &full.trace[full.trace.len() - event.trace.len()..];
        prop_assert_eq!(&event.trace[..], tail);
        prop_assert_eq!(
            event.trace_dropped as usize,
            full.trace.len() - event.trace.len()
        );
    }
}

/// Snaps `v` to the nearest `m · 2^k` whose mantissa `m` has at most
/// `bits` significant bits: the period lattice of crossval's quantized
/// replicas (`csa_experiments::crossval::snap_period_pow2`, restated here
/// because csa-sim cannot depend on csa-experiments).
fn snap_pow2(v: u64, bits: u32) -> u64 {
    let width = 64 - v.leading_zeros();
    if width <= bits {
        return v;
    }
    let shift = width - bits;
    ((v + (1 << (shift - 1))) >> shift) << shift
}

/// Per task: raw period, share of the utilization target, best-case
/// execution as a percentage of the worst case, and raw offset.
type ReplicaSpec = (u64, u64, u64, u64);

/// 10–64 tasks, as many as the unknown-scan replicas run.
fn replica_specs() -> impl Strategy<Value = Vec<ReplicaSpec>> {
    proptest::collection::vec((16u64..600, 1u64..100, 10u64..=100, any::<u64>()), 10..=64)
}

/// A replica-shaped set: periods on the `m · 2^k` lattice, so many tasks
/// release at the same instant, and worst-case utilization near
/// `util_pct` percent (above 100, low-priority tasks overrun and queue
/// several jobs).
fn build_replica(
    specs: &[ReplicaSpec],
    bits: u32,
    util_pct: u64,
    synchronous: bool,
    prio_seed: u64,
) -> Vec<SimTask> {
    let prios = permuted_priorities(specs.len(), prio_seed);
    let total_share: u64 = specs.iter().map(|s| s.1).sum();
    specs
        .iter()
        .enumerate()
        .map(|(i, &(raw, share, best_pct, offset))| {
            let period = snap_pow2(raw, bits);
            let cw = (util_pct * share * period / (100 * total_share)).clamp(1, period);
            let cb = (cw * best_pct / 100).clamp(1, cw);
            let offset = if synchronous { 0 } else { offset % period };
            let task = Task::new(
                TaskId::new(i as u32),
                Ticks::new(cb),
                Ticks::new(cw),
                Ticks::new(period),
            )
            .expect("valid by construction");
            SimTask::with_offset(task, prios[i], Ticks::new(offset))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The regime crossval runs: tens of tasks on a snapped period
    /// lattice, so one release instant releases several tasks at once
    /// (their order is observable through the trace and the seeded
    /// policy's draws), and overload queues several jobs per task (their
    /// FIFO order is observable through the responses).
    #[test]
    fn replica_shaped_sets_match_reference(
        specs in replica_specs(),
        bits in 2u32..=5,
        util_pct in 60u64..=130,
        synchronous in any::<bool>(),
        prio_seed in any::<u64>(),
        policy_id in 0u8..4,
        policy_seed in any::<u64>(),
        capped in any::<bool>(),
        cap in 0usize..64,
        horizon in 1u64..3000,
    ) {
        let tasks = build_replica(&specs, bits, util_pct, synchronous, prio_seed);
        let sim = Simulator::new(tasks).expect("unique priorities");
        let sim = if capped {
            sim.record_trace_capped(cap)
        } else {
            sim.record_trace(true)
        };
        let horizon = Ticks::new(horizon);
        let event = run_with(&sim, horizon, policy_id, policy_seed, true);
        let reference = run_with(&sim, horizon, policy_id, policy_seed, false);
        prop_assert_eq!(event, reference);
    }
}

/// Release and finish times near `Ticks::MAX` must not wrap: with a
/// period of 2^63 and the horizon at `Ticks::MAX`, the third release
/// would lie at 2^64. Both cores stop releasing there and terminate.
#[test]
fn horizons_near_tick_max_terminate_on_both_cores() {
    let huge = Ticks::new(1 << 63);
    for (c, completed, in_flight) in [(Ticks::new(1), 2, 0), (huge, 1, 1)] {
        let task = Task::with_fixed_execution(TaskId::new(0), c, huge).expect("valid");
        let sim = Simulator::new(vec![SimTask::new(task, 1)])
            .expect("one task")
            .record_trace(true);
        let event = sim.run(Ticks::MAX, &mut WorstCasePolicy);
        let oracle = reference::run(&sim, Ticks::MAX, &mut WorstCasePolicy);
        assert_eq!(event, oracle, "c = {c}");
        assert_eq!(event.stats[0].completed, completed, "c = {c}");
        assert_eq!(event.stats[0].in_flight, in_flight, "c = {c}");
    }
}

/// Synchronous task sets whose worst-case demand fits the hyperperiod
/// (`U <= 1`), built from a small period menu so `H` stays tiny.
fn feasible_sync_specs() -> impl Strategy<Value = Vec<(u64, u64, usize)>> {
    proptest::collection::vec((1u64..4, 1u64..4, 0usize..6), 1..6).prop_filter(
        "worst-case demand must fit one hyperperiod",
        |specs| {
            let h = specs
                .iter()
                .map(|&(_, _, p)| PERIOD_MENU[p])
                .fold(1u64, lcm_u64);
            let demand: u64 = specs
                .iter()
                .map(|&(a, b, p)| a.max(b).min(PERIOD_MENU[p]) * (h / PERIOD_MENU[p]))
                .sum();
            demand <= h
        },
    )
}

const PERIOD_MENU: [u64; 6] = [2, 3, 4, 5, 6, 8];

fn lcm_u64(a: u64, b: u64) -> u64 {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    a / gcd(a, b) * b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Synchronous periodic sets with `U <= 1` leave zero backlog at the
    /// hyperperiod under any work-conserving fixed-priority schedule, so
    /// the schedule over `[H, 2H)` repeats `[0, H)` exactly: running to
    /// `2H` doubles `completed` and `total` and changes no extreme.
    /// (Only memoryless policies qualify — a job-index-dependent or
    /// stateful policy need not repeat its draws in the second lap.)
    #[test]
    fn synchronous_sets_wrap_around_at_the_hyperperiod(
        specs in feasible_sync_specs(),
        prio_seed in any::<u64>(),
        worst in any::<bool>(),
    ) {
        let prios = permuted_priorities(specs.len(), prio_seed);
        let tasks: Vec<SimTask> = specs
            .iter()
            .enumerate()
            .map(|(i, &(a, b, p))| {
                let period = PERIOD_MENU[p];
                let (cb, cw) = (a.min(b), a.max(b).min(period));
                let task = Task::new(
                    TaskId::new(i as u32),
                    Ticks::new(cb.min(cw)),
                    Ticks::new(cw),
                    Ticks::new(period),
                )
                .expect("valid by construction");
                SimTask::new(task, prios[i])
            })
            .collect();
        let h = hyperperiod(&tasks.iter().map(|t| t.task).collect::<Vec<_>>())
            .expect("small menu periods cannot overflow");
        let sim = Simulator::new(tasks).expect("unique priorities");
        let (one, two) = if worst {
            (
                sim.run(h, &mut WorstCasePolicy),
                sim.run(h + h, &mut WorstCasePolicy),
            )
        } else {
            (
                sim.run(h, &mut BestCasePolicy),
                sim.run(h + h, &mut BestCasePolicy),
            )
        };
        for (a, b) in one.stats.iter().zip(&two.stats) {
            prop_assert_eq!(a.in_flight, 0, "backlog at the hyperperiod");
            prop_assert_eq!(b.in_flight, 0);
            prop_assert_eq!(b.completed, 2 * a.completed);
            prop_assert_eq!(b.total, a.total + a.total);
            prop_assert_eq!(b.min, a.min);
            prop_assert_eq!(b.max, a.max);
            prop_assert_eq!(b.deadline_misses, 2 * a.deadline_misses);
        }
    }
}

/// A set at the task ceiling uses every bit of the ready bitmap, rank 63
/// (task 0, the highest priority) included, and stays bit-identical to
/// the reference loop too.
#[test]
fn sixty_four_task_set_fills_the_ready_bitmap_and_matches_reference() {
    let tasks: Vec<SimTask> = (0..64u32)
        .map(|i| {
            let period = 600 + 37 * i as u64;
            let task = Task::new(
                TaskId::new(i),
                Ticks::new(1),
                Ticks::new(3),
                Ticks::new(period),
            )
            .expect("valid");
            SimTask::with_offset(task, 64 - i, Ticks::new((i as u64 * 13) % 200))
        })
        .collect();
    let sim = Simulator::new(tasks)
        .expect("unique priorities")
        .record_trace(true);
    for seed in 0..3 {
        let event = sim.run(Ticks::new(50_000), &mut UniformPolicy::new(seed));
        let oracle = reference::run(&sim, Ticks::new(50_000), &mut UniformPolicy::new(seed));
        assert_eq!(event, oracle, "seed {seed}");
        let top = event.stats_for(TaskId::new(0)).expect("task 0 simulated");
        assert!(top.completed > 0, "seed {seed}: rank 63 never completed");
    }
}
