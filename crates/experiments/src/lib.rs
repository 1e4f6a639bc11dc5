//! Experiment harnesses reproducing the evaluation section (§V) of the
//! DATE 2017 anomalies paper.
//!
//! One module per table/figure, each with a paper-scale and a quick
//! configuration, plus the benchmark generator, the pre-computed plant
//! margin tables, and the deterministic parallel driver they share:
//!
//! * [`margin_tables`] — `(a, b)` stability coefficients per plant on the
//!   legacy snapped period grid (cached; the expensive control-theoretic
//!   step).
//! * [`interpolated_tables`] — the continuous-period subsystem: validated
//!   monotone interpolants giving conservative `(a, b)` at *any*
//!   stabilizable period (see DESIGN.md §3).
//! * [`generate_benchmark`] — the §V benchmark distribution (UUniFast
//!   utilizations, pool plants) under a pluggable [`PeriodModel`]
//!   profile: legacy `grid-snapped`, `continuous`, `harmonic-stress`, or
//!   `margin-tight` periods.
//! * [`run_table1`] — Table I: invalid-solution rate of Unsafe Quadratic.
//! * [`run_fig2`] — Fig. 2: LQG cost vs. sampling period (trend,
//!   non-monotonicity, pathological spikes).
//! * [`run_fig4`] — Fig. 4: jitter-margin stability curves + Eq. 5 fits.
//! * [`run_fig5`] — Fig. 5: runtime of Algorithm 1 vs. Unsafe Quadratic.
//! * [`run_census`] — anomaly rarity census (supporting §IV's argument).
//! * [`Witness`] — replayable serialization of every invalid/anomalous
//!   instance a sweep finds; the committed corpus pins them as
//!   regression tests.
//! * [`artifact`] — the one layer under every persisted line format
//!   (margin tables, sweep journals, quarantine lists, witnesses,
//!   monitor snapshots): fingerprint [`Header`](artifact::Header)s, the
//!   [`Stale`](artifact::Stale) verdict, the line cursor, the strict
//!   16-digit hex codec, FNV-1a and [`write_atomic`] (DESIGN.md §10.1).
//! * [`parallel_map`] / [`instance_seed`] — deterministic sharding of
//!   benchmark instances across workers: results are bit-identical at
//!   any thread count because every instance derives its own RNG stream
//!   from `(seed, n, instance_index)`.
//! * [`run_sharded_sweep`] — crash-safe streaming orchestration of the
//!   benchmark sweeps (DESIGN.md §11): shard-granular checkpoint
//!   journals with resume (`--checkpoint-dir` / `--resume`), and
//!   panic quarantine recording each panicking instance with its
//!   replayable seed instead of aborting the run.
//! * [`SearchConfig`] — the assignment search behind each sweep's
//!   feasibility verdicts: complete backtracking (default), the
//!   anytime [`portfolio`](csa_core::portfolio) (DESIGN.md §8), or
//!   strict OPA, with an optional per-instance check budget.
//! * [`run_crossval`] — executed-schedule cross-validation: corpus
//!   witnesses and portfolio-unknown instances actually *run* over one
//!   full hyperperiod (on a deterministic quantized replica, DESIGN.md
//!   §12) under worst/best/uniform policies, with observed responses
//!   checked against the analytical `[R_b, R_w]` bounds and recorded
//!   verdicts replayed.
//!
//! * [`cli`] — the one command-line parser of the binaries: each lists
//!   the flags it accepts, and a malformed command line exits 2 before
//!   any work.
//!
//! The `table1`, `fig2`, `fig4`, `fig5`, `census`, `all`, `crossval` and
//! `witness_corpus` binaries wrap these with console tables and CSV
//! output under `results/`; README.md lists their flags. The benchmark
//! distribution and period-model profiles are DESIGN.md §3; the
//! deterministic parallel driver is DESIGN.md §7.
//!
//! # Example
//!
//! Generate one benchmark instance and decide it with a budgeted
//! anytime search:
//!
//! ```
//! use csa_experiments::{
//!     generate_benchmark, instance_seed, BenchmarkConfig, PeriodModel, SearchConfig, SearchMode,
//! };
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let cfg = BenchmarkConfig::with_model(4, PeriodModel::Continuous);
//! let mut rng = StdRng::seed_from_u64(instance_seed(7, 4, 0));
//! let tasks = generate_benchmark(&cfg, &mut rng);
//! let out = SearchConfig::new(SearchMode::Portfolio, 10_000).solve(&tasks);
//! // A truncated `None` would mean "unknown", never "infeasible".
//! println!("feasible: {} ({} checks)", out.assignment.is_some(), out.stats.checks);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
mod benchgen;
mod census;
mod checkpoint;
pub mod cli;
mod crossval;
mod fig2;
mod fig4;
mod fig5;
mod grid;
mod margin_cache;
mod margins;
mod orchestrate;
mod parallel;
mod period_opt;
mod report;
mod search;
mod table1;
mod witness;

pub use artifact::write_atomic;
pub use benchgen::{generate_benchmark, BenchmarkConfig, PeriodModel};
pub use census::{
    classify_instance, classify_instance_on, format_census, has_certificate_lie,
    has_certificate_lie_on, run_census, run_census_orchestrated, CensusConfig, CensusRow,
    InstanceClassification,
};
pub use checkpoint::{journal_path, write_quarantine_file, QuarantinedInstance};
pub use crossval::{
    find_unknown_instances, quantize_replica, quantize_task, run_crossval, snap_period_pow2,
    CrossvalConfig, CrossvalInstance, CrossvalReport, CrossvalRow, CrossvalSource, Replica,
    DEFAULT_MANTISSA_BITS, MIN_MANTISSA_BITS,
};
pub use fig2::{pathological_cost, run_fig2, run_fig2_with_threads, CostCurve, Fig2Config};
pub use fig4::{run_fig4, Fig4Config, Fig4Curve};
pub use fig5::{empirical_order, run_fig5, Fig5Config, Fig5Point};
pub use grid::{log_period_grid, log_period_point};
pub use margin_cache::{
    load_margin_artifact, margin_artifact_path, pool_fingerprint, save_margin_artifact,
    warm_cached_tables, MARGIN_ARTIFACT_TAG,
};
pub use margins::{
    fresh_margin_fit, interpolated_tables, margin_tables, warm_interpolated_tables,
    warm_margin_tables, InterpSegmentRun, MarginEntry, MarginInterp, PlantMargins,
};
pub use orchestrate::{
    run_sharded_sweep, AggRow, InstanceOutput, OrchestratedRun, OrchestratorConfig, SweepSpec,
};
pub use parallel::{available_threads, instance_seed, parallel_map, parallel_map_catching};
pub use period_opt::{
    optimize_period_grid, optimize_period_ternary, run_period_opt, PeriodChoice,
    PeriodOptComparison,
};
pub use report::{csv_file_name, write_csv, RESULTS_DIR};
pub use search::{SearchConfig, SearchMode};
pub use table1::{format_table1, run_table1, run_table1_orchestrated, Table1Config, Table1Row};
pub use witness::{
    format_task_list, parse_task_list, parse_witness_corpus, write_witness_file, Witness,
    WitnessKind,
};
