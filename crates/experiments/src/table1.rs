//! Table I: percentage of invalid solutions produced by the Unsafe
//! Quadratic priority assignment.
//!
//! Paper values (10 000 benchmarks per task count):
//!
//! | tasks          | 4    | 8    | 12   | 16   | 20   |
//! |----------------|------|------|------|------|------|
//! | invalid (%)    | 0.38 | 0.04 | 0.00 | 0.01 | 0.00 |
//!
//! We regenerate the same table under each benchmark [`PeriodModel`]
//! (the paper's distribution is under-specified; see DESIGN.md §3) and
//! additionally report how often the unsafe algorithm produces *no*
//! assignment at all and how often the backtracking algorithm proves the
//! benchmark feasible. Every profile measures 0.00% at paper scale, so
//! the paper's strictly positive rate is not reproduced: under this
//! RTA's implicit deadlines the invalid geometry is structurally absent
//! (EXPERIMENTS.md, Table I section). Any invalid instance found is
//! serialized as a replayable [`Witness`].

use crate::benchgen::{generate_benchmark, BenchmarkConfig, PeriodModel};
use crate::orchestrate::{
    run_sharded_sweep, AggRow, InstanceOutput, OrchestratedRun, OrchestratorConfig, SweepSpec,
};
use crate::search::SearchConfig;
use crate::witness::{Witness, WitnessKind};
use csa_core::{unsafe_quadratic_on, StabilityChecker};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Configuration for the Table I experiment.
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// Task counts (columns of the table).
    pub task_counts: Vec<usize>,
    /// Benchmarks per task count.
    pub benchmarks: usize,
    /// RNG seed.
    pub seed: u64,
    /// Benchmark generator profile.
    pub profile: PeriodModel,
    /// The assignment search used for the feasibility column (default:
    /// unbudgeted backtracking, the historical behavior).
    pub search: SearchConfig,
}

impl Table1Config {
    /// Paper-scale configuration: n in {4, 8, 12, 16, 20}, 10 000
    /// benchmarks each, legacy grid-snapped periods.
    pub fn paper() -> Self {
        Table1Config {
            task_counts: vec![4, 8, 12, 16, 20],
            benchmarks: 10_000,
            seed: 2017,
            profile: PeriodModel::GridSnapped,
            search: SearchConfig::default(),
        }
    }

    /// Reduced configuration for smoke tests.
    pub fn quick() -> Self {
        Table1Config {
            task_counts: vec![4, 8, 12],
            benchmarks: 500,
            seed: 2017,
            profile: PeriodModel::GridSnapped,
            search: SearchConfig::default(),
        }
    }

    /// The same configuration under a different generator profile.
    pub fn with_profile(mut self, profile: PeriodModel) -> Self {
        self.profile = profile;
        self
    }

    /// The same configuration under a different assignment search.
    pub fn with_search(mut self, search: SearchConfig) -> Self {
        self.search = search;
        self
    }
}

/// One row (task count) of the regenerated Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Number of tasks.
    pub n: usize,
    /// Benchmarks evaluated.
    pub benchmarks: usize,
    /// Unsafe Quadratic produced an assignment that failed verification.
    pub invalid: usize,
    /// Unsafe Quadratic produced no assignment at all.
    pub no_solution: usize,
    /// The configured search (default: backtracking Algorithm 1) found
    /// a valid assignment.
    pub solved: usize,
    /// The configured search exhausted its budget without deciding
    /// (always 0 for unbudgeted searches; "unknown", not "infeasible").
    pub truncated: usize,
    /// Benchmarks quarantined by the orchestrator (a caught panic; see
    /// DESIGN.md §11) and excluded from every other counter.
    pub quarantined: usize,
}

impl Table1Row {
    /// Invalid solutions as a percentage of produced solutions — the
    /// quantity the paper tabulates. Quarantined instances produced no
    /// verdict at all, so they drop out of the denominator.
    pub fn invalid_pct(&self) -> f64 {
        let produced = self.benchmarks - self.no_solution - self.quarantined;
        if produced == 0 {
            0.0
        } else {
            100.0 * self.invalid as f64 / produced as f64
        }
    }
}

/// Counter columns of the Table I sweep, in journal/CSV order.
const TABLE1_COLUMNS: &[&str] = &["invalid", "no_solution", "solved", "truncated"];

/// Evaluates one benchmark instance of the Table I sweep: Unsafe
/// Quadratic, the exact validity check of its output, and the
/// configured search, all on one memoizing checker. A verdict depends
/// only on its `(task, higher-priority set)` key, so each later step
/// reuses the fixed points of the earlier ones and every count is that
/// of three separate analyses.
fn table1_instance(config: &Table1Config, n: usize, k: usize, rng_seed: u64) -> InstanceOutput {
    let bench_cfg = BenchmarkConfig::with_model(n, config.profile);
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let tasks = generate_benchmark(&bench_cfg, &mut rng);
    let mut checker = StabilityChecker::new(&tasks);
    let (invalid, no_solution) = match unsafe_quadratic_on(&mut checker).assignment {
        Some(pa) => (!checker.is_valid(&pa), false),
        None => (false, true),
    };
    let search = config.search.solve_on(&mut checker);
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
            u64::from(search.assignment.is_some()),
            u64::from(search.stats.truncated),
        ],
        witnesses,
    }
}

/// The sweep descriptor fingerprinting everything the Table I rows are
/// a function of.
fn table1_spec(config: &Table1Config) -> SweepSpec {
    SweepSpec {
        name: "table1",
        columns: TABLE1_COLUMNS,
        seed: config.seed,
        task_counts: config.task_counts.clone(),
        benchmarks: config.benchmarks,
        config: vec![
            ("profile", config.profile.name().to_string()),
            ("search", config.search.mode.name().to_string()),
            ("budget", config.search.budget.to_string()),
        ],
    }
}

fn agg_to_table1_row(agg: AggRow) -> Table1Row {
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

/// Runs the Table I experiment sharded across `threads` workers
/// (0 = available parallelism), returning the rows and a replayable
/// [`Witness`] for every invalid instance found, ordered by
/// `(n, index)`.
///
/// Every benchmark instance draws its generator from
/// [`instance_seed`](crate::instance_seed)`(config.seed, n, index)`,
/// so the output is **bit-identical at any thread count** — the sweep
/// is a pure function of the configuration. It streams through the
/// sharded orchestrator with checkpointing disabled, so only one shard
/// of per-instance results is ever in memory.
///
/// # Examples
///
/// ```
/// use csa_experiments::{run_table1, PeriodModel, SearchConfig, Table1Config};
///
/// let config = Table1Config {
///     task_counts: vec![4],
///     benchmarks: 50,
///     seed: 1,
///     profile: PeriodModel::GridSnapped,
///     search: SearchConfig::default(),
/// };
/// let (rows, _witnesses) = run_table1(&config, 1);
/// assert_eq!(rows.len(), 1);
/// assert!(rows[0].invalid_pct() < 100.0);
/// ```
pub fn run_table1(config: &Table1Config, threads: usize) -> (Vec<Table1Row>, Vec<Witness>) {
    #[expect(clippy::expect_used, reason = "P001: an in-memory sweep does no I/O")]
    let run = run_table1_orchestrated(config, &OrchestratorConfig::in_memory(), threads)
        .expect("in-memory sweep performs no I/O");
    (run.rows, run.witnesses)
}

/// Runs the Table I sweep under full orchestration: streaming shards,
/// optional checkpoint/resume, and panic quarantine (see
/// [`run_sharded_sweep`] and DESIGN.md §11). With a checkpoint
/// directory and `resume`, a killed run continues where it stopped and
/// the final rows and witnesses are bit-identical to an uninterrupted
/// run at any thread count.
///
/// # Errors
///
/// Propagates checkpoint-journal write failures; an in-memory
/// configuration cannot fail.
pub fn run_table1_orchestrated(
    config: &Table1Config,
    orch: &OrchestratorConfig,
    threads: usize,
) -> std::io::Result<OrchestratedRun<Table1Row>> {
    let spec = table1_spec(config);
    let run = run_sharded_sweep(&spec, orch, threads, |n, k, rng_seed| {
        table1_instance(config, n, k, rng_seed)
    })?;
    Ok(run.map_rows(agg_to_table1_row))
}

/// Formats the rows in the layout of the paper's Table I (plus the
/// auxiliary columns we track).
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table I: percentage of invalid solutions by Unsafe Quadratic priority assignment"
    );
    let _ = write!(out, "{:<28}", "Number of tasks (#)");
    for r in rows {
        let _ = write!(out, "{:>9}", r.n);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<28}", "Invalid solutions (%)");
    for r in rows {
        let _ = write!(out, "{:>9.2}", r.invalid_pct());
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<28}", "No solution produced (%)");
    for r in rows {
        let _ = write!(
            out,
            "{:>9.2}",
            100.0 * r.no_solution as f64 / r.benchmarks as f64
        );
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<28}", "Search solved (%)");
    for r in rows {
        let _ = write!(
            out,
            "{:>9.2}",
            100.0 * r.solved as f64 / r.benchmarks as f64
        );
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<28}", "Search truncated (%)");
    for r in rows {
        let _ = write!(
            out,
            "{:>9.2}",
            100.0 * r.truncated as f64 / r.benchmarks as f64
        );
    }
    let _ = writeln!(out);
    if rows.iter().any(|r| r.quarantined > 0) {
        let _ = write!(out, "{:<28}", "Quarantined (#)");
        for r in rows {
            let _ = write!(out, "{:>9}", r.quarantined);
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance_seed;
    use crate::search::SearchMode;
    use csa_core::{is_valid_assignment, unsafe_quadratic};

    fn base_cfg() -> Table1Config {
        Table1Config {
            task_counts: vec![4, 6],
            benchmarks: 120,
            seed: 99,
            profile: PeriodModel::GridSnapped,
            search: SearchConfig::default(),
        }
    }

    #[test]
    fn small_run_is_consistent() {
        for profile in PeriodModel::ALL {
            let cfg = base_cfg().with_profile(profile);
            let (rows, _) = run_table1(&cfg, 1);
            assert_eq!(rows.len(), 2);
            for r in &rows {
                assert!(r.invalid + r.no_solution <= r.benchmarks);
                assert!(r.solved <= r.benchmarks);
                assert_eq!(r.truncated, 0, "unbudgeted search cannot truncate");
                // Anomalies are rare: the invalid rate must be a small
                // fraction, mirroring the paper's <= 0.38%. Allow head
                // room for the small sample.
                assert!(
                    r.invalid_pct() <= 5.0,
                    "{profile} n={}: invalid rate {}% is not 'rare'",
                    r.n,
                    r.invalid_pct()
                );
                // Backtracking never solves fewer benchmarks than the
                // unsafe algorithm validly solves.
                let valid_unsafe = r.benchmarks - r.no_solution - r.invalid;
                assert!(r.solved >= valid_unsafe);
            }
        }
    }

    #[test]
    fn shared_checker_counts_match_three_fresh_analyses() {
        // Instance by instance, the one-checker evaluation must count
        // what Unsafe Quadratic, a fresh validity analysis and a fresh
        // search count, at budgets that truncate everything, some
        // instances, or nothing.
        for profile in PeriodModel::ALL {
            for n in [4, 6] {
                let bench_cfg = BenchmarkConfig::with_model(n, profile);
                for k in 0..30 {
                    let rng_seed = instance_seed(2017, n, k);
                    let tasks =
                        generate_benchmark(&bench_cfg, &mut StdRng::seed_from_u64(rng_seed));
                    let (invalid, no_solution) = match unsafe_quadratic(&tasks).assignment {
                        Some(pa) => (!is_valid_assignment(&tasks, &pa), false),
                        None => (false, true),
                    };
                    for mode in SearchMode::ALL {
                        for budget in [0, 1, 7, 50, u64::MAX] {
                            let cfg = Table1Config {
                                task_counts: vec![n],
                                benchmarks: 30,
                                seed: 2017,
                                profile,
                                search: SearchConfig::new(mode, budget),
                            };
                            let search = cfg.search.solve(&tasks);
                            let expect = [
                                invalid,
                                no_solution,
                                search.assignment.is_some(),
                                search.stats.truncated,
                            ]
                            .map(u64::from);
                            let out = table1_instance(&cfg, n, k, rng_seed);
                            let at = format!("{profile} n={n} k={k} {mode} budget={budget}");
                            assert_eq!(out.counts, expect, "{at}");
                            assert_eq!(out.witnesses.len(), usize::from(invalid), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn witness_counts_match_rows() {
        // Witness collection must agree with the tabulated counts. Note
        // the expected count here is zero — EXPERIMENTS.md documents why
        // the invalid rate is structurally zero under this margin pool
        // (every jitter-cascade remover misses its own deadline under
        // maximum interference, so the heuristic re-verifies it exactly
        // and the slack ordering never seats it below a certificate).
        // If a future margin pool ever produces invalid instances, the
        // witnesses must still match one-to-one and replay.
        let cfg = Table1Config {
            task_counts: vec![4],
            benchmarks: 400,
            seed: 2017,
            profile: PeriodModel::MarginTight,
            search: SearchConfig::default(),
        };
        let (rows, witnesses) = run_table1(&cfg, 0);
        assert_eq!(rows[0].invalid, witnesses.len(), "one witness per invalid");
        for w in &witnesses {
            assert_eq!(w.kind, WitnessKind::UnsafeInvalid);
            let pa = unsafe_quadratic(&w.tasks)
                .assignment
                .expect("witness instance must produce an assignment");
            assert!(!is_valid_assignment(&w.tasks, &pa));
        }
    }

    #[test]
    fn formatting_contains_all_columns() {
        let rows = vec![Table1Row {
            n: 4,
            benchmarks: 100,
            invalid: 1,
            no_solution: 10,
            solved: 95,
            truncated: 2,
            quarantined: 3,
        }];
        let s = format_table1(&rows);
        assert!(s.contains("Invalid solutions"));
        assert!(s.contains("Search truncated"));
        assert!(s.contains("Quarantined"));
        assert!(s.contains("1.15")); // 1/87: quarantined leave the denominator
        assert!(s.contains("10.00"));
        assert!(s.contains("95.00"));
        assert!(s.contains("2.00"));
        // The quarantine row only appears when something was quarantined.
        let clean = vec![Table1Row {
            quarantined: 0,
            ..rows[0]
        }];
        assert!(!format_table1(&clean).contains("Quarantined"));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = Table1Config {
            task_counts: vec![5],
            benchmarks: 60,
            seed: 7,
            profile: PeriodModel::Continuous,
            search: SearchConfig::default(),
        };
        assert_eq!(run_table1(&cfg, 1), run_table1(&cfg, 1));
    }

    #[test]
    fn unbudgeted_portfolio_rows_match_backtracking_rows() {
        // Differential pin: with no budget to hit, the portfolio is a
        // complete search, so every row of the sweep must be identical
        // to the historical backtracking rows — at any thread count.
        let base = Table1Config {
            task_counts: vec![4, 6],
            benchmarks: 150,
            seed: 2017,
            profile: PeriodModel::Continuous,
            search: SearchConfig::default(),
        };
        let via_portfolio = base
            .clone()
            .with_search(SearchConfig::new(SearchMode::Portfolio, u64::MAX));
        let (expect, _) = run_table1(&base, 1);
        assert_eq!(expect, run_table1(&via_portfolio, 1).0);
        assert_eq!(expect, run_table1(&via_portfolio, 4).0);
        for r in &expect {
            assert_eq!(r.truncated, 0);
        }
    }

    #[test]
    fn budgeted_portfolio_reports_truncations_honestly() {
        // An absurdly tiny budget cannot decide any instance: every
        // benchmark must land in `truncated`, none in `solved` — and
        // the sweep must stay thread-count invariant.
        let cfg = Table1Config {
            task_counts: vec![4],
            benchmarks: 60,
            seed: 2017,
            profile: PeriodModel::Continuous,
            search: SearchConfig::new(SearchMode::Portfolio, 2),
        };
        let (rows, _) = run_table1(&cfg, 1);
        assert_eq!(rows[0].solved, 0);
        assert_eq!(rows[0].truncated, rows[0].benchmarks);
        assert_eq!(rows, run_table1(&cfg, 3).0);
    }

    #[test]
    fn orchestrated_checkpoint_roundtrip_matches_in_memory() {
        // A checkpointed run must produce the exact rows and witnesses
        // of the plain in-memory sweep, and a follow-up resume must
        // replay every shard without recomputing anything.
        let dir = std::env::temp_dir().join(format!("csa_table1_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = base_cfg();
        let orch = OrchestratorConfig {
            shard_size: 50,
            ..OrchestratorConfig::checkpointed(&dir)
        };
        let first = run_table1_orchestrated(&cfg, &orch, 2).unwrap();
        assert_eq!(first.shards_computed, 6); // ceil(120/50) per task count
        let (rows, wits) = run_table1(&cfg, 1);
        assert_eq!(first.rows, rows);
        assert_eq!(first.witnesses, wits);
        let resumed = run_table1_orchestrated(&cfg, &orch, 4).unwrap();
        assert_eq!(resumed.shards_computed, 0);
        assert_eq!(resumed.shards_resumed, 6);
        assert_eq!(resumed.rows, rows);
        assert_eq!(resumed.witnesses, wits);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn thread_count_invariant() {
        // The determinism contract of the parallel driver: identical
        // rows and witnesses at 1, 2 and 4 workers (and at the default
        // worker count).
        let cfg = Table1Config {
            task_counts: vec![4, 6],
            benchmarks: 120,
            seed: 2017,
            profile: PeriodModel::Continuous,
            search: SearchConfig::default(),
        };
        let (serial_rows, serial_wits) = run_table1(&cfg, 1);
        for threads in [2, 4, 0] {
            let (rows, wits) = run_table1(&cfg, threads);
            assert_eq!(serial_rows, rows, "rows diverged at {threads} threads");
            assert_eq!(serial_wits, wits, "witnesses diverged at {threads} threads");
        }
    }
}
