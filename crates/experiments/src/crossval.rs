//! Executed-schedule cross-validation of the witness corpus and of
//! portfolio-unknown instances (DESIGN.md §12).
//!
//! The corpus (PR 4) and the portfolio's "unknown" instances (PR 5) are
//! pinned only by *analysis* replay; this module actually **runs** their
//! schedules over one full hyperperiod on the event-core simulator and
//! checks, per task and per execution policy,
//!
//! * every observed response time lies in the analytical `[R_b, R_w]`
//!   interval (zero bound violations),
//! * under synchronous release with worst-case execution times every
//!   bounded task *attains* `R_w` exactly (the critical instant is
//!   tight), and
//! * the released-job ledger balances: `completed + in_flight` equals
//!   the hyperperiod job count `sum_i H / T_i`.
//!
//! # Hyperperiod replicas
//!
//! Corpus periods come from continuous-valued generators, so their raw
//! hyperperiods overflow `u64` (the measured corpus LCMs are ~1e29
//! ticks, ~1e22 jobs — no simulator finishes that). Each instance is
//! therefore executed on a deterministic **quantized replica**: every
//! period is snapped to the nearest `m * 2^k` with an
//! [`DEFAULT_MANTISSA_BITS`]-bit mantissa (relative error ≤ ~3%), and
//! execution-time bounds are rescaled proportionally. The snapping makes
//! period LCMs collapse (mantissas share small factors), bounding the
//! full-hyperperiod job count; if a replica still exceeds the configured
//! job cap the mantissa width is reduced deterministically until it
//! fits. All analytical bounds are recomputed *on the replica*, so the
//! containment checks are exact for the schedule that actually runs —
//! quantization changes the instance, never the soundness of the check.
//!
//! Determinism: instances are sharded with
//! [`parallel_map_catching`](crate::parallel_map_catching) and every
//! uniform-policy seed derives from
//! [`instance_seed`](crate::instance_seed), so reports are bit-identical
//! at any thread count.

use crate::benchgen::{generate_benchmark, BenchmarkConfig, PeriodModel};
use crate::census::has_certificate_lie;
use crate::parallel::{instance_seed, parallel_map, parallel_map_catching};
use crate::witness::{Witness, WitnessKind};
use csa_core::{
    audsley_opa, backtracking, find_interference_removal_anomaly, find_priority_raise_anomaly,
    is_valid_assignment, portfolio_with_budget, unsafe_quadratic, verify_witness, ControlTask,
    PriorityAssignment,
};
use csa_rta::{hyperperiod, response_bounds, Task, Ticks};
use csa_sim::{BestCasePolicy, SimTask, Simulator, UniformPolicy, WorstCasePolicy};

/// Default mantissa width for period snapping: 5 bits keep the relative
/// period error below `1/2^5 = ~3%` while collapsing hyperperiods to at
/// most a few hundred thousand times the largest power-of-two step.
pub const DEFAULT_MANTISSA_BITS: u32 = 5;

/// Narrowest mantissa the fallback may degrade to (periods `m * 2^k`,
/// `m` in `{2, 3}`: near-harmonic, tiny hyperperiods).
pub const MIN_MANTISSA_BITS: u32 = 2;

/// Snaps `period` to the nearest value of the form `m * 2^k` where `m`
/// has at most `mantissa_bits` significant bits. Values already that
/// short are returned unchanged; rounding is to nearest.
pub fn snap_period_pow2(period: Ticks, mantissa_bits: u32) -> Ticks {
    debug_assert!((1..=63).contains(&mantissa_bits));
    let v = period.get().max(1);
    let bits = 64 - v.leading_zeros();
    if bits <= mantissa_bits {
        return Ticks::new(v);
    }
    let shift = bits - mantissa_bits;
    let half = 1u64 << (shift - 1);
    let m = v.saturating_add(half) >> shift;
    Ticks::new(m << shift)
}

/// Quantizes one task onto the snapped-period lattice: the period snaps
/// via [`snap_period_pow2`] and both execution bounds are rescaled by
/// the same ratio (rounded to nearest, clamped into `[1, period']` and
/// `c_b' <= c_w'` so the result is always a valid task).
pub fn quantize_task(task: &Task, mantissa_bits: u32) -> Task {
    let period = snap_period_pow2(task.period(), mantissa_bits);
    let scale = |c: Ticks| -> u64 {
        let num = c.get() as u128 * period.get() as u128 + task.period().get() as u128 / 2;
        (num / task.period().get() as u128) as u64
    };
    let c_worst = scale(task.c_worst()).clamp(1, period.get());
    let c_best = scale(task.c_best()).clamp(1, c_worst);
    #[expect(clippy::expect_used, reason = "P001: clamped into a valid task")]
    Task::new(task.id(), Ticks::new(c_best), Ticks::new(c_worst), period)
        .expect("clamped quantization always yields a valid task")
}

/// A quantized instance ready for full-hyperperiod execution.
#[derive(Debug, Clone)]
pub struct Replica {
    /// The quantized tasks (same ids and order as the source instance).
    pub tasks: Vec<Task>,
    /// Exact hyperperiod of the snapped periods.
    pub hyperperiod: Ticks,
    /// Total jobs released in `[0, H)`: `sum_i H / T_i`.
    pub jobs: u64,
    /// Mantissa width actually used (`<=` the requested width; smaller
    /// means the fallback had to coarsen the lattice to fit `max_jobs`).
    pub mantissa_bits: u32,
}

/// Builds the hyperperiod replica of `tasks`, starting at `mantissa_bits`
/// and deterministically narrowing the mantissa until the full
/// hyperperiod holds at most `max_jobs` jobs (and the LCM fits `u64`).
/// Returns `None` only if even [`MIN_MANTISSA_BITS`] does not fit.
pub fn quantize_replica(tasks: &[Task], mantissa_bits: u32, max_jobs: u64) -> Option<Replica> {
    for bits in (MIN_MANTISSA_BITS..=mantissa_bits.max(MIN_MANTISSA_BITS)).rev() {
        let quantized: Vec<Task> = tasks.iter().map(|t| quantize_task(t, bits)).collect();
        let Some(h) = hyperperiod(&quantized) else {
            continue;
        };
        let jobs: u64 = quantized.iter().map(|t| h.get() / t.period().get()).sum();
        if jobs <= max_jobs {
            return Some(Replica {
                tasks: quantized,
                hyperperiod: h,
                jobs,
                mantissa_bits: bits,
            });
        }
    }
    None
}

/// Where a cross-validated instance came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossvalSource {
    /// A corpus witness of the given kind (verdict replay applies).
    Witness(WitnessKind),
    /// A portfolio-unknown benchmark instance (no recorded verdict).
    Unknown,
}

impl CrossvalSource {
    /// Short name for reports (`witness:<kind>` or `unknown`).
    pub fn name(self) -> String {
        match self {
            CrossvalSource::Witness(kind) => format!("witness:{}", kind.name()),
            CrossvalSource::Unknown => "unknown".to_string(),
        }
    }
}

/// One instance queued for executed-schedule cross-validation.
#[derive(Debug, Clone)]
pub struct CrossvalInstance {
    /// Provenance (witness kind or portfolio-unknown).
    pub source: CrossvalSource,
    /// Generator profile the instance came from.
    pub profile: PeriodModel,
    /// Sweep base seed.
    pub seed: u64,
    /// Task count.
    pub n: usize,
    /// Instance index within its sweep.
    pub index: usize,
    /// The control tasks (plants + timing) of the instance.
    pub tasks: Vec<ControlTask>,
}

impl CrossvalInstance {
    /// Wraps a corpus witness.
    pub fn from_witness(w: &Witness) -> CrossvalInstance {
        CrossvalInstance {
            source: CrossvalSource::Witness(w.kind),
            profile: w.profile,
            seed: w.seed,
            n: w.n,
            index: w.index,
            tasks: w.tasks.clone(),
        }
    }
}

/// Configuration of a cross-validation run.
#[derive(Debug, Clone, Copy)]
pub struct CrossvalConfig {
    /// Worker count (0 = available parallelism).
    pub threads: usize,
    /// Cap on full-hyperperiod jobs per replica (the quantizer narrows
    /// its mantissa until an instance fits).
    pub max_jobs: u64,
    /// Starting mantissa width for period snapping.
    pub mantissa_bits: u32,
}

impl Default for CrossvalConfig {
    fn default() -> Self {
        CrossvalConfig {
            threads: 0,
            max_jobs: 20_000_000,
            mantissa_bits: DEFAULT_MANTISSA_BITS,
        }
    }
}

/// Per-policy results of one instance's full-hyperperiod execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossvalRow {
    /// Provenance name (`witness:<kind>` or `unknown`).
    pub source: String,
    /// Generator profile name.
    pub profile: &'static str,
    /// `(seed, n, index)` generator coordinates.
    pub seed: u64,
    /// Task count.
    pub n: usize,
    /// Instance index.
    pub index: usize,
    /// Execution policy (`worst`, `best`, `uniform`).
    pub policy: &'static str,
    /// Mantissa width the replica actually used.
    pub mantissa_bits: u32,
    /// Replica hyperperiod in ticks (= the simulated horizon).
    pub hyperperiod: u64,
    /// Jobs released over the hyperperiod (`sum_i H / T_i`).
    pub jobs: u64,
    /// Jobs completed by the horizon, summed over tasks.
    pub completed: u64,
    /// Jobs still in flight at the horizon, summed over tasks.
    pub in_flight: u64,
    /// Deadline misses observed, summed over tasks.
    pub deadline_misses: u64,
    /// Tasks with analytical bounds on the replica (checkable tasks).
    pub bounded_tasks: usize,
    /// Observed responses outside `[R_b, R_w]` (must be 0).
    pub bound_violations: u64,
    /// Bounded tasks whose observed max hit `R_w` exactly (filled for
    /// the `worst` policy, where it must equal `bounded_tasks`).
    pub wcrt_exact_hits: usize,
    /// Priority-assignment provenance (`backtracking` or
    /// `deadline-monotonic`).
    pub assignment: &'static str,
    /// Recorded-verdict replay result: `true` for unknowns (nothing to
    /// replay) and for witnesses whose pathology still reproduces.
    pub verdict_ok: bool,
}

impl CrossvalRow {
    /// CSV header matching [`CrossvalRow::to_csv_row`].
    pub const CSV_HEADER: &'static str = "source,profile,seed,n,index,policy,mantissa_bits,\
         hyperperiod_ticks,jobs,completed,in_flight,deadline_misses,bounded_tasks,\
         bound_violations,wcrt_exact_hits,assignment,verdict_ok";

    /// Serializes the row for `results/` CSV output.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.source,
            self.profile,
            self.seed,
            self.n,
            self.index,
            self.policy,
            self.mantissa_bits,
            self.hyperperiod,
            self.jobs,
            self.completed,
            self.in_flight,
            self.deadline_misses,
            self.bounded_tasks,
            self.bound_violations,
            self.wcrt_exact_hits,
            self.assignment,
            self.verdict_ok,
        )
    }
}

/// Outcome of [`run_crossval`]: per-policy rows in deterministic
/// (instance, policy) order, plus instances that failed outright.
#[derive(Debug, Clone, Default)]
pub struct CrossvalReport {
    /// Three rows (worst, best, uniform) per successful instance.
    pub rows: Vec<CrossvalRow>,
    /// `(instance label, error)` for instances that could not execute
    /// (replica construction failure or a panic in the worker).
    pub errors: Vec<(String, String)>,
}

impl CrossvalReport {
    /// Total bound violations across all rows.
    pub fn total_violations(&self) -> u64 {
        self.rows.iter().map(|r| r.bound_violations).sum()
    }

    /// `worst`-policy rows where some bounded task missed exact WCRT.
    pub fn wcrt_tightness_failures(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.policy == "worst" && r.wcrt_exact_hits != r.bounded_tasks)
            .count()
    }

    /// Rows whose witness verdict failed to replay.
    pub fn verdict_failures(&self) -> usize {
        self.rows.iter().filter(|r| !r.verdict_ok).count()
    }

    /// Rows whose released-job ledger does not balance.
    pub fn ledger_failures(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.completed + r.in_flight != r.jobs)
            .count()
    }
}

/// Deadline-monotonic fallback assignment: shorter period = higher
/// priority, ties by index (used when complete backtracking proves the
/// instance infeasible or is too expensive to be worth running).
fn deadline_monotonic(tasks: &[ControlTask]) -> PriorityAssignment {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| (tasks[i].task().period(), i));
    PriorityAssignment::from_highest_first(&order)
}

/// Replays the recorded pathology of a witness-sourced instance against
/// the exact analyses (the same checks as the `witness_replay` suite);
/// unknowns have no verdict and trivially pass.
fn replay_verdict(instance: &CrossvalInstance) -> bool {
    let tasks = &instance.tasks;
    match instance.source {
        CrossvalSource::Unknown => true,
        CrossvalSource::Witness(WitnessKind::CertificateLie) => has_certificate_lie(tasks),
        CrossvalSource::Witness(WitnessKind::UnsafeInvalid) => unsafe_quadratic(tasks)
            .assignment
            .is_some_and(|pa| !is_valid_assignment(tasks, &pa)),
        CrossvalSource::Witness(WitnessKind::InterferenceAnomaly) => backtracking(tasks)
            .assignment
            .and_then(|pa| find_interference_removal_anomaly(tasks, &pa).map(|aw| (pa, aw)))
            .is_some_and(|(pa, aw)| verify_witness(tasks, &pa, &aw)),
        CrossvalSource::Witness(WitnessKind::PriorityRaiseAnomaly) => backtracking(tasks)
            .assignment
            .is_some_and(|pa| find_priority_raise_anomaly(tasks, &pa).is_some()),
        CrossvalSource::Witness(WitnessKind::OpaIncomplete) => {
            audsley_opa(tasks).assignment.is_none() && backtracking(tasks).assignment.is_some()
        }
    }
}

/// Executes one instance over its full replica hyperperiod under the
/// three policies. Pure function of the instance (+ config), so the
/// parallel driver keeps reports thread-count-invariant.
fn crossval_instance(
    instance: &CrossvalInstance,
    cfg: &CrossvalConfig,
) -> Result<Vec<CrossvalRow>, String> {
    let plain: Vec<Task> = instance.tasks.iter().map(|t| *t.task()).collect();
    let replica = quantize_replica(&plain, cfg.mantissa_bits, cfg.max_jobs).ok_or_else(|| {
        format!(
            "no replica fits {} jobs even at {} mantissa bits",
            cfg.max_jobs, MIN_MANTISSA_BITS
        )
    })?;

    // Priorities come from complete backtracking on the *original*
    // instance when it is feasible (witness corpora are n = 4, cheap);
    // otherwise deadline-monotonic. The bound checks are sound under any
    // priority order because the bounds are recomputed for this order on
    // the replica.
    let (pa, assignment) = match instance.source {
        CrossvalSource::Witness(_) => match backtracking(&instance.tasks).assignment {
            Some(pa) => (pa, "backtracking"),
            None => (deadline_monotonic(&instance.tasks), "deadline-monotonic"),
        },
        // Unknown instances are exactly the ones whose complete search
        // is expensive — don't re-run it; DM priorities are fine.
        CrossvalSource::Unknown => (deadline_monotonic(&instance.tasks), "deadline-monotonic"),
    };

    let sim_tasks: Vec<SimTask> = replica
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| SimTask::new(*t, pa.level_of(i)))
        .collect();
    let sim = Simulator::new(sim_tasks).map_err(|e| e.to_string())?;

    // Analytical bounds per task *on the replica*, under `pa`.
    let bounds: Vec<_> = replica
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let hp: Vec<Task> = pa
                .hp_indices(i)
                .into_iter()
                .map(|j| replica.tasks[j])
                .collect();
            response_bounds(t, &hp)
        })
        .collect();
    let bounded_tasks = bounds.iter().filter(|b| b.is_some()).count();
    let verdict_ok = replay_verdict(instance);

    let uniform_seed = instance_seed(instance.seed, instance.n, instance.index);
    let mut rows = Vec::with_capacity(3);
    for policy in ["worst", "best", "uniform"] {
        let out = match policy {
            "worst" => sim.run(replica.hyperperiod, &mut WorstCasePolicy),
            "best" => sim.run(replica.hyperperiod, &mut BestCasePolicy),
            _ => sim.run(replica.hyperperiod, &mut UniformPolicy::new(uniform_seed)),
        };
        let mut bound_violations = 0u64;
        let mut wcrt_exact_hits = 0usize;
        for (stat, rb) in out.stats.iter().zip(&bounds) {
            let Some(rb) = rb else { continue };
            if stat.completed > 0 && (stat.max > rb.wcrt || stat.min < rb.bcrt) {
                bound_violations += 1;
            }
            if policy == "worst" && stat.completed > 0 && stat.max == rb.wcrt {
                wcrt_exact_hits += 1;
            }
        }
        rows.push(CrossvalRow {
            source: instance.source.name(),
            profile: instance.profile.name(),
            seed: instance.seed,
            n: instance.n,
            index: instance.index,
            policy,
            mantissa_bits: replica.mantissa_bits,
            hyperperiod: replica.hyperperiod.get(),
            jobs: replica.jobs,
            completed: out.stats.iter().map(|s| s.completed).sum(),
            in_flight: out.stats.iter().map(|s| s.in_flight).sum(),
            deadline_misses: out.stats.iter().map(|s| s.deadline_misses).sum(),
            bounded_tasks,
            bound_violations,
            wcrt_exact_hits,
            assignment,
            verdict_ok,
        });
    }
    Ok(rows)
}

/// Cross-validates every instance over its full replica hyperperiod,
/// sharded across workers. Row order and content are bit-identical at
/// any thread count.
pub fn run_crossval(instances: &[CrossvalInstance], cfg: &CrossvalConfig) -> CrossvalReport {
    let results = parallel_map_catching(instances.len(), cfg.threads, |i| {
        crossval_instance(&instances[i], cfg)
    });
    let mut report = CrossvalReport::default();
    for (instance, result) in instances.iter().zip(results) {
        let label = format!(
            "{}:{}:{}:{}",
            instance.source.name(),
            instance.profile.name(),
            instance.n,
            instance.index
        );
        match result {
            Ok(Ok(rows)) => report.rows.extend(rows),
            Ok(Err(e)) => report.errors.push((label, e)),
            Err(panic) => report.errors.push((label, format!("panic: {panic}"))),
        }
    }
    report
}

/// Scans `scan` benchmark instances of the given profile/size and
/// returns those the budgeted portfolio left **unknown** (truncated with
/// no assignment — never proven infeasible), wrapped for
/// cross-validation. Deterministic at any thread count.
pub fn find_unknown_instances(
    profile: PeriodModel,
    n: usize,
    scan: usize,
    seed: u64,
    budget: u64,
    threads: usize,
) -> Vec<CrossvalInstance> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let cfg = BenchmarkConfig::with_model(n, profile);
    let unknown = parallel_map(scan, threads, |index| {
        let mut rng = StdRng::seed_from_u64(instance_seed(seed, n, index));
        let tasks = generate_benchmark(&cfg, &mut rng);
        let out = portfolio_with_budget(&tasks, budget);
        (out.assignment.is_none() && out.truncated()).then_some((index, tasks))
    });
    unknown
        .into_iter()
        .flatten()
        .map(|(index, tasks)| CrossvalInstance {
            source: CrossvalSource::Unknown,
            profile,
            seed,
            n,
            index,
            tasks,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csa_rta::TaskId;

    fn task(id: u32, cb: u64, cw: u64, period: u64) -> Task {
        Task::new(
            TaskId::new(id),
            Ticks::new(cb),
            Ticks::new(cw),
            Ticks::new(period),
        )
        .unwrap()
    }

    #[test]
    fn snapping_keeps_short_periods_exact() {
        for v in [1u64, 2, 3, 17, 31] {
            assert_eq!(snap_period_pow2(Ticks::new(v), 5).get(), v);
        }
    }

    #[test]
    fn snapping_bounds_relative_error() {
        for bits in [2u32, 3, 4, 5] {
            for v in [97u64, 1_000, 65_537, 1_000_003, 123_456_789_123] {
                let snapped = snap_period_pow2(Ticks::new(v), bits).get();
                let err = snapped.abs_diff(v) as f64 / v as f64;
                let budget = 1.0 / (1u64 << bits) as f64;
                assert!(
                    err <= budget,
                    "bits {bits}: {v} -> {snapped} (err {err:.4} > {budget:.4})"
                );
                // The mantissa really is short: low bits below the top
                // `bits` positions are zero.
                let top = 64 - snapped.leading_zeros();
                if top > bits {
                    assert_eq!(snapped & ((1 << (top - bits)) - 1), 0);
                }
            }
        }
    }

    #[test]
    fn quantized_tasks_stay_valid_and_proportional() {
        let t = task(0, 333, 999, 1_000_003);
        let q = quantize_task(&t, 5);
        assert!(q.c_best() >= Ticks::new(1));
        assert!(q.c_best() <= q.c_worst());
        assert!(q.c_worst() <= q.period());
        // Utilization is approximately preserved.
        let u0 = t.utilization();
        let u1 = q.utilization();
        assert!((u0 - u1).abs() < 0.05, "utilization drifted: {u0} -> {u1}");
    }

    #[test]
    fn replica_collapses_coprime_periods() {
        // Nearly-coprime millisecond periods whose raw hyperperiod is
        // astronomically large collapse onto the snapped lattice.
        let tasks = vec![
            task(0, 10_000, 40_000, 1_000_003),
            task(1, 20_000, 60_000, 2_000_039),
            task(2, 30_000, 90_000, 5_000_011),
            task(3, 50_000, 100_000, 9_999_991),
        ];
        assert_eq!(hyperperiod(&tasks), None); // raw LCM overflows u64
        let replica = quantize_replica(&tasks, DEFAULT_MANTISSA_BITS, 20_000_000).unwrap();
        assert_eq!(replica.mantissa_bits, DEFAULT_MANTISSA_BITS);
        assert!(replica.jobs > 0 && replica.jobs <= 20_000_000);
        for t in &replica.tasks {
            assert_eq!(replica.hyperperiod.get() % t.period().get(), 0);
        }
    }

    #[test]
    fn replica_fallback_narrows_mantissa_under_tight_caps() {
        let tasks = vec![
            task(0, 1, 3, 1_000_003),
            task(1, 1, 3, 1_414_213),
            task(2, 1, 3, 2_718_281),
        ];
        let wide = quantize_replica(&tasks, 5, u64::MAX).unwrap();
        let tight = quantize_replica(&tasks, 5, wide.jobs - 1).unwrap();
        assert!(tight.mantissa_bits < wide.mantissa_bits);
        assert!(tight.jobs < wide.jobs);
    }

    #[test]
    fn crossval_runs_a_feasible_instance_cleanly() {
        // A comfortably schedulable synthetic instance: all three
        // policies must stay inside bounds, the worst-case run must hit
        // every WCRT exactly, and the job ledger must balance.
        let tasks = vec![
            ControlTask::from_parts(0, 1_000, 2_000, 10_000, 1.0, 1e-2).unwrap(),
            ControlTask::from_parts(1, 2_000, 4_000, 20_011, 1.0, 1e-2).unwrap(),
            ControlTask::from_parts(2, 3_000, 6_000, 40_009, 1.0, 1e-2).unwrap(),
        ];
        let instance = CrossvalInstance {
            source: CrossvalSource::Unknown,
            profile: PeriodModel::GridSnapped,
            seed: 7,
            n: 3,
            index: 0,
            tasks,
        };
        let report = run_crossval(std::slice::from_ref(&instance), &CrossvalConfig::default());
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.total_violations(), 0);
        assert_eq!(report.ledger_failures(), 0);
        assert_eq!(report.wcrt_tightness_failures(), 0);
        let worst = &report.rows[0];
        assert_eq!(worst.policy, "worst");
        assert_eq!(worst.bounded_tasks, 3);
        assert_eq!(worst.wcrt_exact_hits, 3);
        assert_eq!(worst.in_flight, 0);
    }

    #[test]
    fn crossval_is_thread_count_invariant() {
        let mk = |id: u32, offset: u64| {
            ControlTask::from_parts(
                id,
                500 + offset,
                1_500 + offset,
                12_289 + 7 * offset,
                1.0,
                1e-2,
            )
            .unwrap()
        };
        let instances: Vec<CrossvalInstance> = (0..6)
            .map(|k| CrossvalInstance {
                source: CrossvalSource::Unknown,
                profile: PeriodModel::Continuous,
                seed: 11,
                n: 3,
                index: k,
                tasks: vec![
                    mk(0, k as u64 * 13),
                    mk(1, k as u64 * 29 + 700),
                    mk(2, k as u64 * 41 + 2_100),
                ],
            })
            .collect();
        let base = run_crossval(
            &instances,
            &CrossvalConfig {
                threads: 1,
                ..Default::default()
            },
        );
        for threads in [2, 4, 8] {
            let other = run_crossval(
                &instances,
                &CrossvalConfig {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(base.rows, other.rows, "threads = {threads}");
            assert_eq!(base.errors, other.errors);
        }
        assert_eq!(base.total_violations(), 0);
        assert_eq!(base.ledger_failures(), 0);
    }
}
