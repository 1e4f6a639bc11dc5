//! Anomaly census: how rare are the anomalies, really?
//!
//! The paper argues (§IV–V) that anomalies occur "extremely rarely" and
//! that design methodology should exploit the common case. This harness
//! quantifies that claim directly on the benchmark distribution:
//!
//! * how many benchmarks contain an interference-removal anomaly under
//!   the assignment Algorithm 1 produces;
//! * how many contain a priority-raise anomaly;
//! * how often strict Audsley OPA fails although backtracking succeeds
//!   (anomaly-caused incompleteness);
//! * how often Unsafe Quadratic emits an invalid assignment (Table I's
//!   quantity, re-measured here per benchmark).

use crate::benchgen::{generate_benchmark, BenchmarkConfig, PeriodModel};
use crate::orchestrate::{
    run_sharded_sweep, AggRow, InstanceOutput, OrchestratedRun, OrchestratorConfig, SweepSpec,
};
use crate::search::SearchConfig;
use crate::witness::{Witness, WitnessKind};
use csa_core::{
    find_interference_removal_anomaly_on, find_priority_raise_anomaly_on, opa_on_checker,
    unsafe_quadratic_on, verify_witness, AssignmentOutcome, ControlTask, StabilityChecker,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for the anomaly census.
#[derive(Debug, Clone)]
pub struct CensusConfig {
    /// Task counts to examine.
    pub task_counts: Vec<usize>,
    /// Benchmarks per task count.
    pub benchmarks: usize,
    /// RNG seed.
    pub seed: u64,
    /// Benchmark generator profile.
    pub profile: PeriodModel,
    /// The assignment search producing the per-benchmark feasibility
    /// verdict and the assignment the anomaly detectors inspect
    /// (default: unbudgeted backtracking).
    pub search: SearchConfig,
}

impl CensusConfig {
    /// Default census: n in {4, 8, 12, 16, 20}, 20 000 benchmarks each —
    /// enough samples to resolve per-mille anomaly rates — on the legacy
    /// grid-snapped distribution.
    pub fn paper() -> Self {
        CensusConfig {
            task_counts: vec![4, 8, 12, 16, 20],
            benchmarks: 20_000,
            seed: 77,
            profile: PeriodModel::GridSnapped,
            search: SearchConfig::default(),
        }
    }

    /// Reduced census for smoke tests.
    pub fn quick() -> Self {
        CensusConfig {
            task_counts: vec![4, 8],
            benchmarks: 300,
            seed: 77,
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

/// Census counts at one task count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CensusRow {
    /// Number of tasks.
    pub n: usize,
    /// Benchmarks examined.
    pub benchmarks: usize,
    /// Benchmarks where the configured search found a valid assignment.
    pub solvable: usize,
    /// Solvable benchmarks containing an interference-removal anomaly.
    pub interference_anomalies: usize,
    /// Solvable benchmarks containing a priority-raise anomaly.
    pub priority_raise_anomalies: usize,
    /// Benchmarks where OPA failed but the configured search
    /// succeeded (0 by construction when the search *is* OPA).
    pub opa_incomplete: usize,
    /// Benchmarks where Unsafe Quadratic emitted an invalid assignment.
    pub unsafe_invalid: usize,
    /// Benchmarks containing a *certificate lie*: a task stable under
    /// maximum interference that is destabilized by removing one other
    /// task — the raw event behind the paper's Table I, independent of
    /// any particular assignment heuristic's trajectory.
    pub certificate_lies: usize,
    /// Benchmarks where the configured search exhausted its budget
    /// without deciding (counted as unsolvable but reported apart:
    /// "unknown", not "infeasible"; always 0 for unbudgeted searches).
    pub truncated: usize,
    /// Benchmarks quarantined by the orchestrator (a caught panic; see
    /// DESIGN.md §11) and excluded from every other counter.
    pub quarantined: usize,
}

/// Does the benchmark contain a task that is stable under maximum
/// interference yet unstable after removing a single other task?
///
/// This is the raw event behind the paper's Table I (a worst-case
/// monotonicity certificate that lies), measured independently of any
/// assignment heuristic's trajectory; the witness replay tests pin the
/// corpus instances with it.
///
/// Runs `O(n^2)` exact checks on one memoizing [`StabilityChecker`]:
/// the scratch keeps the whole scan allocation-free, and the bitmask
/// subsets cost nothing to form.
pub fn has_certificate_lie(tasks: &[ControlTask]) -> bool {
    let mut checker = StabilityChecker::new(tasks);
    has_certificate_lie_on(&mut checker)
}

/// [`has_certificate_lie`] over an existing (possibly warm)
/// [`StabilityChecker`] — the memo-sharing variant used by the
/// streaming census. Scans the same `(task, removal)` pairs in the same
/// order; verdicts are pure, so the answer is identical.
pub fn has_certificate_lie_on(checker: &mut StabilityChecker<'_>) -> bool {
    let n = checker.len();
    let full = checker.full_mask();
    for i in 0..n {
        let hp_full = full & !(1u64 << i);
        if !checker.check_mask(i, hp_full).stable {
            continue;
        }
        for j in 0..n {
            if j != i && !checker.check_mask(i, hp_full & !(1u64 << j)).stable {
                return true;
            }
        }
    }
    false
}

/// Counter columns of the census sweep, in journal/CSV order.
const CENSUS_COLUMNS: &[&str] = &[
    "solvable",
    "interference_anomalies",
    "priority_raise_anomalies",
    "opa_incomplete",
    "unsafe_invalid",
    "certificate_lies",
    "truncated",
];

/// Full anomaly-census classification of one task set — the
/// per-instance kernel behind [`run_census`], exposed so streaming
/// callers (the `csa-monitor` service) can reuse the exact batch-sweep
/// verdict logic as a library call.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceClassification {
    /// Outcome of the configured search (the feasibility verdict; its
    /// `stats.truncated` flag is the "unknown, not infeasible" marker).
    pub outcome: AssignmentOutcome,
    /// The set contains an interference-removal anomaly under the found
    /// assignment.
    pub interference_anomaly: bool,
    /// The set contains a priority-raise anomaly under the found
    /// assignment.
    pub priority_raise_anomaly: bool,
    /// Strict Audsley OPA failed although the configured search
    /// succeeded.
    pub opa_incomplete: bool,
    /// Unsafe Quadratic emitted an invalid assignment.
    pub unsafe_invalid: bool,
    /// The set contains a certificate lie (see
    /// [`has_certificate_lie`]).
    pub certificate_lie: bool,
}

impl InstanceClassification {
    /// `true` when the configured search found a valid assignment.
    pub fn solvable(&self) -> bool {
        self.outcome.assignment.is_some()
    }

    /// `true` when the search exhausted its budget without deciding.
    pub fn truncated(&self) -> bool {
        self.outcome.stats.truncated
    }

    /// Triggered witness kinds, in the historical collection order
    /// (matching the witness corpus and the census counters).
    pub fn kinds(&self) -> Vec<WitnessKind> {
        [
            (self.unsafe_invalid, WitnessKind::UnsafeInvalid),
            (self.interference_anomaly, WitnessKind::InterferenceAnomaly),
            (
                self.priority_raise_anomaly,
                WitnessKind::PriorityRaiseAnomaly,
            ),
            (self.opa_incomplete, WitnessKind::OpaIncomplete),
            (self.certificate_lie, WitnessKind::CertificateLie),
        ]
        .into_iter()
        .filter(|&(hit, _)| hit)
        .map(|(_, kind)| kind)
        .collect()
    }
}

/// Classifies one task set exactly as the batch census does: the
/// certificate-lie scan, the configured search, the anomaly detectors
/// on the found assignment, OPA incompleteness, and the Unsafe
/// Quadratic validity check, every step on **one shared memoizing
/// checker** (cross-step reuse; identical verdicts).
pub fn classify_instance(tasks: &[ControlTask], search: &SearchConfig) -> InstanceClassification {
    classify_instance_on(&mut StabilityChecker::new(tasks), search)
}

/// [`classify_instance`] over an existing (possibly warm)
/// [`StabilityChecker`], so the caller can read the run's check counts
/// and ask further questions of the same memo (the streaming service
/// takes each admitted assignment's slacks from it). Every step is pure
/// in the verdicts, so warmth changes only cache-hit telemetry, never
/// the classification.
pub fn classify_instance_on(
    checker: &mut StabilityChecker<'_>,
    search: &SearchConfig,
) -> InstanceClassification {
    let tasks = checker.tasks();
    let certificate_lie = has_certificate_lie_on(checker);
    let bt = search.solve_on(checker);
    let (interference_anomaly, priority_raise_anomaly, opa_incomplete) = match &bt.assignment {
        Some(pa) => {
            let interf = match find_interference_removal_anomaly_on(checker, pa) {
                Some(w) => {
                    debug_assert!(verify_witness(tasks, pa, &w));
                    true
                }
                None => false,
            };
            (
                interf,
                find_priority_raise_anomaly_on(checker, pa).is_some(),
                opa_on_checker(checker, u64::MAX).0.assignment.is_none(),
            )
        }
        None => (false, false, false),
    };
    let unsafe_invalid = match unsafe_quadratic_on(checker).assignment {
        Some(pa) => {
            // Validity through the shared checker: same verdicts as
            // `is_valid_assignment`, warmed for the next request.
            !(0..checker.len()).all(|i| checker.check(i, &pa.hp_indices(i)).stable)
        }
        None => false,
    };
    InstanceClassification {
        outcome: bt,
        interference_anomaly,
        priority_raise_anomaly,
        opa_incomplete,
        unsafe_invalid,
        certificate_lie,
    }
}

/// Evaluates one benchmark instance of the census sweep: generates the
/// task set from `rng_seed`, runs [`classify_instance`], and emits a
/// [`Witness`] per triggered event (in [`WitnessKind`] declaration
/// order, matching the historical collection order).
fn census_instance(config: &CensusConfig, n: usize, k: usize, rng_seed: u64) -> InstanceOutput {
    let bench_cfg = BenchmarkConfig::with_model(n, config.profile);
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let tasks = generate_benchmark(&bench_cfg, &mut rng);
    let c = classify_instance(&tasks, &config.search);
    let counts = vec![
        u64::from(c.solvable()),
        u64::from(c.interference_anomaly),
        u64::from(c.priority_raise_anomaly),
        u64::from(c.opa_incomplete),
        u64::from(c.unsafe_invalid),
        u64::from(c.certificate_lie),
        u64::from(c.truncated()),
    ];
    let witnesses = c
        .kinds()
        .into_iter()
        .map(|kind| Witness {
            kind,
            profile: config.profile,
            seed: config.seed,
            n,
            index: k,
            tasks: tasks.clone(),
        })
        .collect();
    InstanceOutput { counts, witnesses }
}

/// The sweep descriptor fingerprinting everything the census rows are a
/// function of.
fn census_spec(config: &CensusConfig) -> SweepSpec {
    SweepSpec {
        name: "census",
        columns: CENSUS_COLUMNS,
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

fn agg_to_census_row(agg: AggRow) -> CensusRow {
    CensusRow {
        n: agg.n,
        benchmarks: agg.benchmarks,
        solvable: agg.counts[0] as usize,
        interference_anomalies: agg.counts[1] as usize,
        priority_raise_anomalies: agg.counts[2] as usize,
        opa_incomplete: agg.counts[3] as usize,
        unsafe_invalid: agg.counts[4] as usize,
        certificate_lies: agg.counts[5] as usize,
        truncated: agg.counts[6] as usize,
        quarantined: agg.quarantined as usize,
    }
}

/// Runs the census sharded across `threads` workers (0 = available
/// parallelism), returning the rows and a replayable [`Witness`] for
/// every anomalous event found, ordered by `(n, index)` and by
/// [`WitnessKind`] within one instance. Per-instance seeds make the
/// output bit-identical at any thread count.
///
/// Streams through the sharded orchestrator with checkpointing disabled
/// — only one shard of per-instance results is ever in memory.
pub fn run_census(config: &CensusConfig, threads: usize) -> (Vec<CensusRow>, Vec<Witness>) {
    let run = run_census_orchestrated(config, &OrchestratorConfig::in_memory(), threads)
        .expect("in-memory sweep performs no I/O");
    (run.rows, run.witnesses)
}

/// Runs the census under full orchestration: streaming shards, optional
/// checkpoint/resume, and panic quarantine (see
/// [`run_sharded_sweep`] and DESIGN.md §11). With a checkpoint
/// directory and `resume`, a killed run continues where it stopped and
/// the final rows and witnesses are bit-identical to an uninterrupted
/// run at any thread count.
///
/// # Errors
///
/// Propagates checkpoint-journal write failures; an in-memory
/// configuration cannot fail.
pub fn run_census_orchestrated(
    config: &CensusConfig,
    orch: &OrchestratorConfig,
    threads: usize,
) -> std::io::Result<OrchestratedRun<CensusRow>> {
    let spec = census_spec(config);
    let run = run_sharded_sweep(&spec, orch, threads, |n, k, rng_seed| {
        census_instance(config, n, k, rng_seed)
    })?;
    Ok(run.map_rows(agg_to_census_row))
}

/// Formats the census as a readable table.
pub fn format_census(rows: &[CensusRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Anomaly census (rates in % of solvable benchmarks unless noted)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>10} {:>10} {:>14} {:>14} {:>12} {:>14} {:>14} {:>10} {:>9}",
        "n",
        "bench",
        "solvable",
        "interf.anom",
        "prio.anom",
        "opa.fail",
        "unsafe.invalid",
        "cert.lies",
        "truncated",
        "quarant."
    );
    for r in rows {
        let pct = |x: usize, base: usize| {
            if base == 0 {
                0.0
            } else {
                100.0 * x as f64 / base as f64
            }
        };
        let _ = writeln!(
            out,
            "{:>4} {:>10} {:>10} {:>13.2}% {:>13.2}% {:>11.2}% {:>13.2}% {:>13.3}% {:>9.2}% {:>9}",
            r.n,
            r.benchmarks,
            r.solvable,
            pct(r.interference_anomalies, r.solvable),
            pct(r.priority_raise_anomalies, r.solvable),
            pct(r.opa_incomplete, r.solvable),
            pct(r.unsafe_invalid, r.benchmarks - r.quarantined),
            pct(r.certificate_lies, r.benchmarks - r.quarantined),
            pct(r.truncated, r.benchmarks - r.quarantined),
            r.quarantined,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_counts_are_consistent() {
        let (rows, _) = run_census(
            &CensusConfig {
                task_counts: vec![4],
                benchmarks: 150,
                seed: 5,
                profile: PeriodModel::GridSnapped,
                search: SearchConfig::default(),
            },
            1,
        );
        let r = &rows[0];
        assert!(r.solvable <= r.benchmarks);
        assert!(r.interference_anomalies <= r.solvable);
        assert!(r.priority_raise_anomalies <= r.solvable);
        assert!(r.opa_incomplete <= r.solvable);
        // Anomalies must be rare — the paper's core empirical claim.
        assert!(
            r.interference_anomalies * 10 <= r.solvable.max(10),
            "anomalies are not rare: {}/{}",
            r.interference_anomalies,
            r.solvable
        );
    }

    #[test]
    fn sets_at_the_task_ceiling_run() {
        // n = csa_core::MAX_TASKS fills every bit of the checker's mask.
        let (rows, _) = run_census(
            &CensusConfig {
                task_counts: vec![csa_core::MAX_TASKS],
                benchmarks: 2,
                seed: 5,
                profile: PeriodModel::GridSnapped,
                search: SearchConfig::default(),
            },
            1,
        );
        assert_eq!(rows[0].n, 64);
        assert_eq!(rows[0].quarantined, 0);
        assert!(rows[0].solvable <= 2);
    }

    #[test]
    fn thread_count_invariant() {
        let cfg = CensusConfig {
            task_counts: vec![4],
            benchmarks: 80,
            seed: 77,
            profile: PeriodModel::Continuous,
            search: SearchConfig::default(),
        };
        let (serial, serial_wits) = run_census(&cfg, 1);
        for threads in [2, 4] {
            let (rows, wits) = run_census(&cfg, threads);
            assert_eq!(serial, rows, "census diverged at {threads} threads");
            assert_eq!(serial_wits, wits, "witnesses diverged at {threads} threads");
        }
    }

    #[test]
    fn witnesses_are_consistent_with_counts() {
        let cfg = CensusConfig {
            task_counts: vec![4],
            benchmarks: 200,
            seed: 77,
            profile: PeriodModel::MarginTight,
            search: SearchConfig::default(),
        };
        let (rows, wits) = run_census(&cfg, 0);
        let count = |kind| wits.iter().filter(|w| w.kind == kind).count();
        assert_eq!(count(WitnessKind::UnsafeInvalid), rows[0].unsafe_invalid);
        assert_eq!(
            count(WitnessKind::InterferenceAnomaly),
            rows[0].interference_anomalies
        );
        assert_eq!(
            count(WitnessKind::PriorityRaiseAnomaly),
            rows[0].priority_raise_anomalies
        );
        assert_eq!(count(WitnessKind::OpaIncomplete), rows[0].opa_incomplete);
        assert_eq!(count(WitnessKind::CertificateLie), rows[0].certificate_lies);
        for w in &wits {
            assert_eq!(w.profile, cfg.profile);
            assert_eq!(w.tasks.len(), w.n);
        }
    }

    #[test]
    fn formatting_mentions_all_columns() {
        let rows = vec![CensusRow {
            n: 4,
            benchmarks: 10,
            solvable: 9,
            interference_anomalies: 1,
            priority_raise_anomalies: 0,
            opa_incomplete: 0,
            unsafe_invalid: 0,
            certificate_lies: 1,
            truncated: 0,
            quarantined: 2,
        }];
        let s = format_census(&rows);
        assert!(s.contains("interf.anom"));
        assert!(s.contains("cert.lies"));
        assert!(s.contains("truncated"));
        assert!(s.contains("quarant."));
        assert!(s.contains("11.11%"));
        // 1 certificate lie over 10 - 2 = 8 non-quarantined benchmarks.
        assert!(s.contains("12.500%"));
    }
}
