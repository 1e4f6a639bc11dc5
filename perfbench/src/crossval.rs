//! `crossval-unknowns`: all 80 committed corpus witnesses plus the
//! continuous n = 16 portfolio-unknown scan (400 instances, seed 77,
//! budget 50 000), executed over full quantized hyperperiods by
//! `run_crossval` at one worker thread. The inputs are fixed, whatever
//! the seed.

use std::time::Instant;

use csa_core::{
    audsley_opa, backtracking, find_interference_removal_anomaly, find_priority_raise_anomaly,
    is_valid_assignment, portfolio_on_checker, unsafe_quadratic, verify_witness, ControlTask,
    PriorityAssignment, StabilityChecker,
};
use csa_experiments::{
    find_unknown_instances, generate_benchmark, has_certificate_lie, instance_seed,
    parse_witness_corpus, quantize_replica, run_crossval, BenchmarkConfig, CrossvalConfig,
    CrossvalInstance, CrossvalReport, CrossvalRow, CrossvalSource, PeriodModel, WitnessKind,
    MIN_MANTISSA_BITS,
};
use csa_rta::{response_bounds, Task};
use csa_sim::{BestCasePolicy, SimTask, Simulator, UniformPolicy, WorstCasePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::digest;
use crate::monitor::{put_portfolio, stage_slot};
use crate::trace::Tracer;
use crate::{Metrics, Rep, Traced, Workload};

const CORPUS: &str = include_str!("../../crates/experiments/tests/data/witness_corpus.txt");
const SCAN_N: usize = 16;
const SCAN: usize = 400;
const SCAN_SEED: u64 = 77;
const BUDGET: u64 = 50_000;

pub struct Crossval;

fn config() -> CrossvalConfig {
    CrossvalConfig {
        threads: 1,
        ..CrossvalConfig::default()
    }
}

fn label(instance: &CrossvalInstance) -> String {
    format!(
        "{}:{}:{}:{}",
        instance.source.name(),
        instance.profile.name(),
        instance.n,
        instance.index
    )
}

fn report_digest(report: &CrossvalReport) -> u64 {
    let rows = report.rows.iter().map(CrossvalRow::to_csv_row);
    let errors = report.errors.iter().map(|(l, e)| format!("error {l}: {e}"));
    digest::of_lines(rows.chain(errors))
}

/// Instances that errored, or whose rows show a bound violation, a WCRT
/// tightness miss, an unbalanced job ledger or a failed verdict replay.
fn failed_instances(report: &CrossvalReport) -> u64 {
    let bad_row = |r: &CrossvalRow| {
        r.bound_violations > 0
            || (r.policy == "worst" && r.wcrt_exact_hits != r.bounded_tasks)
            || r.completed + r.in_flight != r.jobs
            || !r.verdict_ok
    };
    let bad_rows = report.rows.chunks(3).filter(|c| c.iter().any(bad_row));
    (bad_rows.count() + report.errors.len()) as u64
}

impl Workload for Crossval {
    type Inputs = Vec<CrossvalInstance>;
    const NAME: &'static str = "crossval-unknowns";

    fn inputs(_seed: u64) -> Vec<CrossvalInstance> {
        parse_witness_corpus(CORPUS)
            .expect("the committed corpus parses")
            .iter()
            .map(CrossvalInstance::from_witness)
            .collect()
    }

    /// The scan, then `run_crossval` on one instance at a time: the rows
    /// and errors of a single call over all instances, in the same order,
    /// with each instance's time a piece of its own.
    fn rep(corpus: &Vec<CrossvalInstance>, _seed: u64) -> Rep {
        // csa-lint: allow(D002) benchmark timing; never feeds an output
        let t0 = Instant::now();
        let mut instances = corpus.clone();
        instances.extend(find_unknown_instances(
            PeriodModel::Continuous,
            SCAN_N,
            SCAN,
            SCAN_SEED,
            BUDGET,
            1,
        ));
        let cfg = config();
        let mut cut = t0.elapsed();
        let mut pieces_ns = vec![cut.as_nanos() as u64];
        let mut report = CrossvalReport::default();
        for instance in instances.chunks(1) {
            let one = run_crossval(instance, &cfg);
            report.rows.extend(one.rows);
            report.errors.extend(one.errors);
            let now = t0.elapsed();
            pieces_ns.push((now - cut).as_nanos() as u64);
            cut = now;
        }
        let wall_s = cut.as_secs_f64();
        let digest = report_digest(&report);
        Rep {
            wall_s,
            pieces_ns,
            digest,
            ok: digest::matches("crossval-unknowns.rows", digest),
            attempted: instances.len() as u64,
            failed: failed_instances(&report),
            latencies_ns: Vec::new(),
        }
    }

    /// Replays the scan (`generate_benchmark`, then the budgeted
    /// portfolio on a caller-owned checker, per index) and each
    /// instance's cross-validation (replica, priorities, RTA bounds,
    /// verdict replay, simulation) with every call in a span; the rows
    /// must equal `run_crossval`'s.
    fn trace(corpus: &Vec<CrossvalInstance>, _seed: u64, tracer: &Tracer) -> Traced {
        // csa-lint: allow(D002) benchmark timing; never feeds an output
        let t0 = Instant::now();
        let mut wins = [0u64; 4];
        let (mut truncated, mut logical, mut computed, mut portfolio_ns) = (0u64, 0u64, 0u64, 0u64);
        let mut scan_slowest = Slowest::default();
        let (unknowns, scan_ns) = tracer.timed("crossval.scan", || {
            let cfg = BenchmarkConfig::with_model(SCAN_N, PeriodModel::Continuous);
            (0..SCAN)
                .filter_map(|index| {
                    let tasks = tracer.span("benchgen", || {
                        let seed = instance_seed(SCAN_SEED, SCAN_N, index);
                        generate_benchmark(&cfg, &mut StdRng::seed_from_u64(seed))
                    });
                    let ((out, l, c), ns) = tracer.timed("portfolio", || {
                        let mut checker = StabilityChecker::new(&tasks);
                        let out = portfolio_on_checker(&mut checker, BUDGET);
                        (out, checker.logical_checks(), checker.computed_checks())
                    });
                    (logical, computed, portfolio_ns) =
                        (logical + l, computed + c, portfolio_ns + ns);
                    scan_slowest.observe(
                        ns,
                        || format!("continuous:{SCAN_N}:{index}"),
                        SCAN_N,
                        index,
                        (l, c),
                    );
                    truncated += u64::from(out.truncated());
                    if let Some(stage) = out.winner {
                        wins[stage_slot(stage)] += 1;
                    }
                    (out.assignment.is_none() && out.truncated()).then_some(CrossvalInstance {
                        source: CrossvalSource::Unknown,
                        profile: PeriodModel::Continuous,
                        seed: SCAN_SEED,
                        n: SCAN_N,
                        index,
                        tasks,
                    })
                })
                .collect::<Vec<_>>()
        });
        let unknown_count = unknowns.len();
        let mut instances = corpus.clone();
        instances.extend(unknowns);

        let cfg = config();
        let mut report = CrossvalReport::default();
        let mut sim = SimTotals::default();
        let mut slowest = Slowest::default();
        for instance in &instances {
            let (result, ns) = tracer.timed("crossval.instance", || {
                replay_instance(instance, &cfg, tracer, &mut sim)
            });
            match result {
                Ok((rows, checks)) => {
                    slowest.observe(ns, || label(instance), instance.n, instance.index, checks);
                    report.rows.extend(rows);
                }
                Err(e) => report.errors.push((label(instance), e)),
            }
        }
        let pipeline_s = t0.elapsed().as_secs_f64();
        eprintln!(
            "crossval-unknowns: {unknown_count} unknowns in the scan; {} jobs simulated",
            sim.jobs
        );
        scan_slowest.report("slowest scan instance");
        slowest.report("slowest crossval instance");

        let mut m = Metrics::default();
        put_portfolio(&mut m, truncated, wins);
        m.put("checker.logical_checks", logical as f64);
        m.put("checker.computed_checks", computed as f64);
        m.put("checker.hit_ratio", 1.0 - computed as f64 / logical as f64);
        m.put(
            "checker.ns_per_logical_check",
            portfolio_ns as f64 / logical as f64,
        );
        m.put("rta.computed_checks", (computed + sim.rta_checks) as f64);
        m.put(
            "rta.ns_per_check",
            sim.rta_ns as f64 / sim.rta_checks as f64,
        );
        m.put("crossval.scan_s", scan_ns as f64 * 1e-9);
        m.put("crossval.unknowns", unknown_count as f64);
        m.put(
            "crossval.scan_max_instance_s",
            scan_slowest.ns as f64 * 1e-9,
        );
        m.put(
            "crossval.scan_max_instance_index",
            scan_slowest.index as f64,
        );
        m.put(
            "crossval.scan_max_instance_checks",
            scan_slowest.checks.0 as f64,
        );
        m.put(
            "crossval.scan_max_instance_computed",
            scan_slowest.checks.1 as f64,
        );
        m.put("crossval.max_instance_s", slowest.ns as f64 * 1e-9);
        m.put("crossval.max_instance_n", slowest.n as f64);
        m.put("crossval.max_instance_index", slowest.index as f64);
        m.put("crossval.max_instance_checks", slowest.checks.0 as f64);
        m.put("crossval.max_instance_computed", slowest.checks.1 as f64);
        m.put("sim.jobs", sim.jobs as f64);
        m.put("sim.ns_per_job", sim.ns as f64 / sim.jobs as f64);
        Traced {
            pipeline_s,
            digest: report_digest(&report),
            attempted: instances.len() as u64,
            failed: failed_instances(&report),
            metrics: m,
        }
    }

    fn record(corpus: &Vec<CrossvalInstance>) -> Vec<(String, u64)> {
        let rep = Self::rep(corpus, 0);
        vec![("crossval-unknowns.rows".to_string(), rep.digest)]
    }
}

/// The slowest instance of a sweep, with the logical and computed
/// stability checks of its priority search.
#[derive(Default)]
struct Slowest {
    ns: u64,
    label: String,
    n: usize,
    index: usize,
    checks: (u64, u64),
}

impl Slowest {
    fn observe(
        &mut self,
        ns: u64,
        label: impl FnOnce() -> String,
        n: usize,
        index: usize,
        checks: (u64, u64),
    ) {
        if ns > self.ns {
            *self = Slowest {
                ns,
                label: label(),
                n,
                index,
                checks,
            };
        }
    }

    fn report(&self, what: &str) {
        eprintln!(
            "crossval-unknowns: {what} {} (n = {}, index {}): {:.3} s, {} logical / {} computed checks",
            self.label,
            self.n,
            self.index,
            self.ns as f64 * 1e-9,
            self.checks.0,
            self.checks.1
        );
    }
}

#[derive(Default)]
struct SimTotals {
    jobs: u64,
    ns: u64,
    rta_checks: u64,
    rta_ns: u64,
}

/// Deadline-monotonic priorities, ties by index.
fn deadline_monotonic(tasks: &[ControlTask]) -> PriorityAssignment {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| (tasks[i].task().period(), i));
    PriorityAssignment::from_highest_first(&order)
}

/// Re-checks the pathology a corpus witness records; unknowns have none.
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

/// One instance's cross-validation through the public layer calls, in
/// spans: the rows `run_crossval` produces for it, and the logical and
/// computed checks of its priority search.
fn replay_instance(
    instance: &CrossvalInstance,
    cfg: &CrossvalConfig,
    tracer: &Tracer,
    sim: &mut SimTotals,
) -> Result<(Vec<CrossvalRow>, (u64, u64)), String> {
    let plain: Vec<Task> = instance.tasks.iter().map(|t| *t.task()).collect();
    let replica = tracer
        .span("crossval.replica", || {
            quantize_replica(&plain, cfg.mantissa_bits, cfg.max_jobs)
        })
        .ok_or_else(|| {
            format!(
                "no replica fits {} jobs even at {} mantissa bits",
                cfg.max_jobs, MIN_MANTISSA_BITS
            )
        })?;
    let (pa, assignment, checks) = tracer.span("search", || match instance.source {
        CrossvalSource::Witness(_) => {
            let out = backtracking(&instance.tasks);
            let checks = (out.stats.checks, out.stats.checks - out.stats.cache_hits);
            match out.assignment {
                Some(pa) => (pa, "backtracking", checks),
                None => (
                    deadline_monotonic(&instance.tasks),
                    "deadline-monotonic",
                    checks,
                ),
            }
        }
        CrossvalSource::Unknown => (
            deadline_monotonic(&instance.tasks),
            "deadline-monotonic",
            (0, 0),
        ),
    });
    let sim_tasks: Vec<SimTask> = replica
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| SimTask::new(*t, pa.level_of(i)))
        .collect();
    let simulator = Simulator::new(sim_tasks).map_err(|e| e.to_string())?;
    let (bounds, ns) = tracer.timed("rta", || {
        replica
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
            .collect::<Vec<_>>()
    });
    sim.rta_checks += bounds.len() as u64;
    sim.rta_ns += ns;
    let bounded_tasks = bounds.iter().filter(|b| b.is_some()).count();
    let verdict_ok = tracer.span("crossval.verdict", || replay_verdict(instance));

    let uniform_seed = instance_seed(instance.seed, instance.n, instance.index);
    let mut rows = Vec::with_capacity(3);
    for policy in ["worst", "best", "uniform"] {
        let (out, ns) = tracer.timed("sim", || match policy {
            "worst" => simulator.run(replica.hyperperiod, &mut WorstCasePolicy),
            "best" => simulator.run(replica.hyperperiod, &mut BestCasePolicy),
            _ => simulator.run(replica.hyperperiod, &mut UniformPolicy::new(uniform_seed)),
        });
        sim.jobs += replica.jobs;
        sim.ns += ns;
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
    Ok((rows, checks))
}
