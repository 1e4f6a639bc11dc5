//! Regenerates the paper's Table I; every invalid instance found is
//! serialized as a replayable witness line.
//!
//! ```text
//! table1 [--quick] [--threads N] [--profile NAME] [--n LIST] [--search NAME] [--budget N]
//!        [--checkpoint-dir PATH] [--resume] [--shard-size N]
//! ```
//!
//! README.md's flag table explains each flag; `--search` selects the
//! solver behind the feasibility column. Results are identical at any
//! `--threads`. Crash safety (DESIGN.md §11): with `--checkpoint-dir`,
//! `--resume` restarts a killed run to bit-identical output, and a
//! panicking instance is quarantined with its replayable seed instead
//! of aborting the run.

use csa_experiments::cli::{Args, ORCHESTRATION, PROFILE, QUICK, SCALE, SWEEP, TASK_COUNTS};
use csa_experiments::{
    csv_file_name, format_table1, run_table1_orchestrated, warm_cached_tables, write_csv,
    write_quarantine_file, write_witness_file, Table1Config,
};

fn main() -> std::io::Result<()> {
    let args = Args::parse("table1", &[SCALE, SWEEP, ORCHESTRATION]);
    let profile = args.get(&PROFILE).unwrap_or_default();
    let search = args.search();
    let orch = args.orchestrator();
    let mut config = if args.get(&QUICK).is_some() {
        Table1Config::quick()
    } else {
        Table1Config::paper()
    }
    .with_profile(profile)
    .with_search(search);
    if let Some(counts) = args.get(&TASK_COUNTS) {
        config.task_counts = counts;
    }
    let threads = args.threads();
    eprintln!(
        "table1: {} benchmarks per n over n = {:?} (seed {}, profile {}, search {}, {} worker threads)",
        config.benchmarks, config.task_counts, config.seed, profile, search.mode, threads
    );
    warm_cached_tables(threads);
    let run = run_table1_orchestrated(&config, &orch, threads)?;
    eprintln!(
        "table1: {} shard(s) computed, {} resumed from checkpoint, {} instance(s) quarantined",
        run.shards_computed,
        run.shards_resumed,
        run.quarantined.len()
    );
    println!("{}", format_table1(&run.rows));
    let path = write_csv(
        &csv_file_name("table1", profile, &search),
        "n,benchmarks,invalid,no_solution,solved,truncated,quarantined,invalid_pct",
        run.rows.iter().map(|r| {
            format!(
                "{},{},{},{},{},{},{},{:.4}",
                r.n,
                r.benchmarks,
                r.invalid,
                r.no_solution,
                r.solved,
                r.truncated,
                r.quarantined,
                r.invalid_pct()
            )
        }),
    )?;
    eprintln!("wrote {}", path.display());
    if !run.witnesses.is_empty() {
        let wpath = write_witness_file(&format!("witnesses_table1_{profile}.txt"), &run.witnesses)?;
        eprintln!(
            "wrote {} invalid-instance witness(es) to {}",
            run.witnesses.len(),
            wpath.display()
        );
    }
    if !run.quarantined.is_empty() {
        let qpath = write_quarantine_file(
            &format!("quarantine_table1_{profile}.txt"),
            &run.quarantined,
        )?;
        eprintln!(
            "wrote {} quarantined instance(s) to {} (each line carries the rng seed for offline replay)",
            run.quarantined.len(),
            qpath.display()
        );
    }
    Ok(())
}
