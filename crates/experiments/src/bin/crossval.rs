//! Executed-schedule cross-validation driver (DESIGN.md §12): runs every
//! corpus witness — and optionally a sweep of portfolio-unknown
//! instances — over one full hyperperiod of its quantized replica,
//! checking observed response times against the analytical WCRT/BCRT
//! bounds and replaying the recorded verdicts.
//!
//! ```text
//! crossval [--quick] [--threads N] [--profile NAME] [--n LIST] [--budget N]
//!          [--seed N] [--max-jobs N] [--unknowns N] [--corpus PATH] [--limit N]
//! ```
//!
//! * `--corpus PATH` — witness corpus to execute (default: the committed
//!   corpus baked into the binary).
//! * `--limit N` — only the first N witnesses (`--quick` default: 20).
//! * `--max-jobs N` — replica job cap; the quantizer narrows its period
//!   mantissa until an instance fits (default 20M, quick 2M).
//! * `--unknowns N` — scan N benchmark instances per task count (`--n`,
//!   default 16) for portfolio-unknowns and cross-validate them too
//!   (default 400, quick 0 = skip; `--profile continuous` reaches the
//!   ~2% unknown population EXPERIMENTS.md describes).
//! * `--budget N` — positive portfolio check budget for the unknown
//!   scan (default 50 000); `--seed N` — its seed (default 77).
//!
//! Writes `results/crossval[_profile].csv` and exits non-zero on any
//! bound violation, WCRT-tightness miss, job-ledger mismatch, verdict
//! replay failure, or instance error. Results are bit-identical at any
//! `--threads` value.

use std::path::PathBuf;

use csa_experiments::cli::{Args, Flag, BUDGET, PROFILE, QUICK, SCALE, TASK_COUNTS};
use csa_experiments::{
    csv_file_name, find_unknown_instances, parse_witness_corpus, run_crossval, warm_cached_tables,
    write_csv, CrossvalConfig, CrossvalInstance, CrossvalRow, SearchConfig,
};

/// The committed witness corpus (pinned by the `witness_replay` suite).
const COMMITTED_CORPUS: &str = include_str!("../../tests/data/witness_corpus.txt");

const SEED: Flag<u64> = Flag::count("--seed");
const MAX_JOBS: Flag<u64> = Flag::count("--max-jobs");
const UNKNOWNS: Flag<usize> = Flag::count("--unknowns");
const CORPUS: Flag<PathBuf> = Flag::path("--corpus");
const LIMIT: Flag<usize> = Flag::count("--limit");

fn main() -> std::io::Result<()> {
    let args = Args::parse(
        "crossval",
        &[
            SCALE,
            &[&PROFILE, &TASK_COUNTS, &BUDGET],
            &[&SEED, &MAX_JOBS, &UNKNOWNS, &CORPUS, &LIMIT],
        ],
    );
    let quick = args.get(&QUICK).is_some();
    let threads = args.threads();
    let profile = args.get(&PROFILE).unwrap_or_default();
    let seed = args.get(&SEED).unwrap_or(77);
    let max_jobs = args
        .get(&MAX_JOBS)
        .unwrap_or(if quick { 2_000_000 } else { 20_000_000 });
    let budget = args.get(&BUDGET).unwrap_or(50_000);
    let unknown_scan = args.get(&UNKNOWNS).unwrap_or(if quick { 0 } else { 400 });
    let limit = args
        .get(&LIMIT)
        .unwrap_or(if quick { 20 } else { usize::MAX });
    let cfg = CrossvalConfig {
        threads,
        max_jobs,
        ..Default::default()
    };

    // Witness instances: the committed corpus unless --corpus points
    // elsewhere, optionally truncated by --limit for smoke runs.
    let corpus_text = match args.get(&CORPUS) {
        Some(path) => std::fs::read_to_string(&path)?,
        None => COMMITTED_CORPUS.to_string(),
    };
    let witnesses = parse_witness_corpus(&corpus_text).unwrap_or_else(|e| {
        eprintln!("bad witness corpus: {e}");
        std::process::exit(2);
    });
    let mut instances: Vec<CrossvalInstance> = witnesses
        .iter()
        .take(limit)
        .map(CrossvalInstance::from_witness)
        .collect();
    let witness_count = instances.len();
    eprintln!(
        "crossval: {witness_count}/{} corpus witnesses, max {max_jobs} jobs per replica, {threads} worker threads",
        witnesses.len()
    );

    // Portfolio-unknown sweep: instances a budgeted anytime search left
    // undecided — exactly the ones with no analysis verdict to lean on.
    // The scan's generator needs the margin tables: load the artifact
    // rather than build them on one thread.
    if unknown_scan > 0 {
        warm_cached_tables(threads);
        for n in args.get(&TASK_COUNTS).unwrap_or_else(|| vec![16]) {
            let unknown = find_unknown_instances(profile, n, unknown_scan, seed, budget, threads);
            eprintln!(
                "crossval: {} portfolio-unknowns among {unknown_scan} {profile} instances at n = {n} (budget {budget})",
                unknown.len()
            );
            instances.extend(unknown);
        }
    }

    let report = run_crossval(&instances, &cfg);
    let total_jobs: u64 = report
        .rows
        .iter()
        .filter(|r| r.policy == "worst")
        .map(|r| r.jobs)
        .sum();
    let file = csv_file_name("crossval", profile, &SearchConfig::default());
    let rows: Vec<String> = report.rows.iter().map(CrossvalRow::to_csv_row).collect();
    let path = write_csv(&file, CrossvalRow::CSV_HEADER, rows)?;
    eprintln!(
        "crossval: executed {} instances ({} simulated jobs per policy) -> {}",
        instances.len(),
        total_jobs,
        path.display()
    );

    let violations = report.total_violations();
    let tightness = report.wcrt_tightness_failures();
    let ledger = report.ledger_failures();
    let verdicts = report.verdict_failures();
    eprintln!(
        "crossval: {violations} bound violations, {tightness} WCRT-tightness misses, \
         {ledger} ledger mismatches, {verdicts} verdict replay failures, {} errors",
        report.errors.len()
    );
    for (label, error) in &report.errors {
        eprintln!("crossval: ERROR {label}: {error}");
    }
    if violations > 0 || tightness > 0 || ledger > 0 || verdicts > 0 || !report.errors.is_empty() {
        std::process::exit(1);
    }
    Ok(())
}
