//! `table1-budget`: paper-scale Table I (grid-snapped, n in {4, 8, 12,
//! 16, 20} x 10 000, seed 2017) in memory at one worker thread, with
//! backtracking capped at 10 M logical checks per instance, as
//! `table1 --budget 10000000` runs it. The inputs are the same whatever
//! the seed.

use std::sync::Mutex;
use std::time::Instant;

use csa_core::{
    backtracking_on_checker, is_valid_assignment, unsafe_quadratic, CandidateOrder,
    StabilityChecker,
};
use csa_experiments::{
    generate_benchmark, run_sharded_sweep, run_table1_orchestrated, AggRow, BenchmarkConfig,
    InstanceOutput, OrchestratorConfig, SearchConfig, SearchMode, SweepSpec, Table1Config,
    Table1Row, Witness, WitnessKind,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::digest;
use crate::trace::Tracer;
use crate::{Metrics, Rep, Traced, Workload};

/// Logical-check cap per instance. Unbudgeted, one n = 20 instance
/// (index 4349) runs 615 M checks, 85-90 % of the sweep, and its time
/// alone moves by half from one repetition to the next, so a run holds
/// too few repetitions to time it steadily. At this cap it is still the
/// slowest instance and the only one truncated.
const BUDGET: u64 = 10_000_000;

pub struct Table1;

fn row_lines(rows: &[Table1Row]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            format!(
                "n={} benchmarks={} invalid={} no_solution={} solved={} truncated={} quarantined={}",
                r.n, r.benchmarks, r.invalid, r.no_solution, r.solved, r.truncated, r.quarantined
            )
        })
        .collect()
}

fn rows_digest(rows: &[Table1Row]) -> u64 {
    digest::of_lines(row_lines(rows))
}

fn attempted_failed(rows: &[Table1Row]) -> (u64, u64) {
    (
        rows.iter().map(|r| r.benchmarks as u64).sum(),
        rows.iter().map(|r| r.quarantined as u64).sum(),
    )
}

/// The slowest search of the sweep and the checker totals.
#[derive(Default, Clone, Copy)]
struct SearchStats {
    logical: u64,
    computed: u64,
    search_ns: u64,
    max_ns: u64,
    max_n: usize,
    max_index: usize,
    max_logical: u64,
    max_computed: u64,
}

impl Workload for Table1 {
    type Inputs = Table1Config;
    const NAME: &'static str = "table1-budget";

    fn inputs(_seed: u64) -> Table1Config {
        Table1Config::paper().with_search(SearchConfig::new(SearchMode::Backtracking, BUDGET))
    }

    /// The sweep one row (task count) at a time: every instance draws its
    /// generator from `(seed, n, index)` alone, so the rows are those of
    /// a single call over all task counts, and each row is a piece.
    fn rep(config: &Table1Config, _seed: u64) -> Rep {
        // csa-lint: allow(D002) benchmark timing; never feeds an output
        let t0 = Instant::now();
        let mut cut = t0.elapsed();
        let mut rows = Vec::new();
        let mut pieces_ns = Vec::new();
        for &n in &config.task_counts {
            let row_config = Table1Config {
                task_counts: vec![n],
                ..config.clone()
            };
            let run = run_table1_orchestrated(&row_config, &OrchestratorConfig::in_memory(), 1)
                .expect("an in-memory sweep performs no I/O");
            rows.extend(run.rows);
            let now = t0.elapsed();
            pieces_ns.push((now - cut).as_nanos() as u64);
            cut = now;
        }
        let wall_s = cut.as_secs_f64();
        let digest = rows_digest(&rows);
        let (attempted, failed) = attempted_failed(&rows);
        Rep {
            wall_s,
            pieces_ns,
            digest,
            ok: digest::matches("table1-budget.rows", digest),
            attempted,
            failed,
            latencies_ns: Vec::new(),
        }
    }

    /// Replays the sweep through the orchestrator with each instance's
    /// layer calls (`generate_benchmark`, Unsafe Quadratic plus its
    /// validity check, and backtracking on a caller-owned checker) in
    /// spans; the rows must equal the untraced rows.
    fn trace(config: &Table1Config, _seed: u64, tracer: &Tracer) -> Traced {
        let spec = SweepSpec {
            name: "table1",
            columns: &["invalid", "no_solution", "solved", "truncated"],
            seed: config.seed,
            task_counts: config.task_counts.clone(),
            benchmarks: config.benchmarks,
            config: Vec::new(),
        };
        let stats = Mutex::new(SearchStats::default());
        let (run, sweep_ns) = tracer.timed("orchestrate", || {
            run_sharded_sweep(
                &spec,
                &OrchestratorConfig::in_memory(),
                1,
                |n, k, rng_seed| {
                    let bench = BenchmarkConfig::with_model(n, config.profile);
                    let tasks = tracer.span("benchgen", || {
                        generate_benchmark(&bench, &mut StdRng::seed_from_u64(rng_seed))
                    });
                    let (invalid, no_solution) =
                        tracer.span("uq", || match unsafe_quadratic(&tasks).assignment {
                            Some(pa) => (!is_valid_assignment(&tasks, &pa), false),
                            None => (false, true),
                        });
                    let ((found, truncated, logical, computed), ns) =
                        tracer.timed("search", || {
                            let mut checker = StabilityChecker::new(&tasks);
                            let (out, truncated) = backtracking_on_checker(
                                &mut checker,
                                CandidateOrder::Input,
                                config.search.budget,
                            );
                            (
                                out.assignment.is_some(),
                                truncated,
                                checker.logical_checks(),
                                checker.computed_checks(),
                            )
                        });
                    let mut s = stats.lock().expect("search stats poisoned");
                    s.logical += logical;
                    s.computed += computed;
                    s.search_ns += ns;
                    if ns > s.max_ns {
                        *s = SearchStats {
                            max_ns: ns,
                            max_n: n,
                            max_index: k,
                            max_logical: logical,
                            max_computed: computed,
                            ..*s
                        };
                    }
                    let witnesses = if invalid {
                        vec![Witness {
                            kind: WitnessKind::UnsafeInvalid,
                            profile: config.profile,
                            seed: config.seed,
                            n,
                            index: k,
                            tasks,
                        }]
                    } else {
                        Vec::new()
                    };
                    InstanceOutput {
                        counts: vec![
                            u64::from(invalid),
                            u64::from(no_solution),
                            u64::from(found),
                            u64::from(truncated),
                        ],
                        witnesses,
                    }
                },
            )
        });
        let run = run.expect("an in-memory sweep performs no I/O");
        let rows: Vec<Table1Row> = run.rows.into_iter().map(table1_row).collect();
        let s = stats.into_inner().expect("search stats poisoned");
        let sweep_s = sweep_ns as f64 * 1e-9;
        let max_s = s.max_ns as f64 * 1e-9;
        eprintln!(
            "table1-budget: slowest instance n = {} index {}: {:.3} s ({:.1}% of the sweep), \
             {} logical / {} computed checks",
            s.max_n,
            s.max_index,
            max_s,
            100.0 * max_s / sweep_s,
            s.max_logical,
            s.max_computed
        );
        let mut m = Metrics::default();
        m.put("checker.logical_checks", s.logical as f64);
        m.put("checker.computed_checks", s.computed as f64);
        m.put(
            "checker.hit_ratio",
            1.0 - s.computed as f64 / s.logical as f64,
        );
        m.put(
            "checker.ns_per_logical_check",
            s.search_ns as f64 / s.logical as f64,
        );
        m.put("rta.computed_checks", s.computed as f64);
        m.put("search.max_instance_s", max_s);
        m.put("search.max_instance_share", max_s / sweep_s);
        m.put("search.max_instance_checks", s.max_logical as f64);
        m.put("search.max_instance_computed", s.max_computed as f64);
        m.put("search.max_instance_n", s.max_n as f64);
        m.put("search.max_instance_index", s.max_index as f64);
        let (attempted, failed) = attempted_failed(&rows);
        Traced {
            pipeline_s: sweep_s,
            digest: rows_digest(&rows),
            attempted,
            failed,
            metrics: m,
        }
    }

    fn record(config: &Table1Config) -> Vec<(String, u64)> {
        let run = run_table1_orchestrated(config, &OrchestratorConfig::in_memory(), 1)
            .expect("an in-memory sweep performs no I/O");
        for line in row_lines(&run.rows) {
            eprintln!("table1-budget: {line}");
        }
        vec![("table1-budget.rows".to_string(), rows_digest(&run.rows))]
    }
}

fn table1_row(agg: AggRow) -> Table1Row {
    Table1Row {
        n: agg.n,
        benchmarks: agg.benchmarks,
        invalid: agg.counts[0] as usize,
        no_solution: agg.counts[1] as usize,
        solved: agg.counts[2] as usize,
        truncated: agg.counts[3] as usize,
        quarantined: agg.quarantined as usize,
    }
}
