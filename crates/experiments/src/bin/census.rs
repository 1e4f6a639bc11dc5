//! Anomaly-rarity census (supports the paper's §IV/§V argument); every
//! anomalous instance found is serialized as a replayable witness line.
//!
//! ```text
//! census [--quick] [--threads N] [--profile NAME] [--n LIST] [--search NAME] [--budget N]
//!        [--checkpoint-dir PATH] [--resume] [--shard-size N]
//! ```
//!
//! README.md's flag table explains each flag; `--search` selects the
//! solver behind the solvable column. Results are identical at any
//! `--threads`. Crash safety (DESIGN.md §11): with `--checkpoint-dir`,
//! `--resume` restarts a killed run to bit-identical output, and a
//! panicking instance is quarantined with its replayable seed instead
//! of aborting the run.

use csa_experiments::cli::{Args, ORCHESTRATION, PROFILE, QUICK, SCALE, SWEEP, TASK_COUNTS};
use csa_experiments::{
    csv_file_name, format_census, run_census_orchestrated, warm_cached_tables, write_csv,
    write_quarantine_file, write_witness_file, CensusConfig,
};

fn main() -> std::io::Result<()> {
    let args = Args::parse("census", &[SCALE, SWEEP, ORCHESTRATION]);
    let profile = args.get(&PROFILE).unwrap_or_default();
    let search = args.search();
    let orch = args.orchestrator();
    let mut config = if args.get(&QUICK).is_some() {
        CensusConfig::quick()
    } else {
        CensusConfig::paper()
    }
    .with_profile(profile)
    .with_search(search);
    if let Some(counts) = args.get(&TASK_COUNTS) {
        config.task_counts = counts;
    }
    let threads = args.threads();
    eprintln!(
        "census: {} benchmarks per n over n = {:?} (profile {}, search {}, {} worker threads)",
        config.benchmarks, config.task_counts, profile, search.mode, threads
    );
    warm_cached_tables(threads);
    let run = run_census_orchestrated(&config, &orch, threads)?;
    eprintln!(
        "census: {} shard(s) computed, {} resumed from checkpoint, {} instance(s) quarantined",
        run.shards_computed,
        run.shards_resumed,
        run.quarantined.len()
    );
    println!("{}", format_census(&run.rows));
    let path = write_csv(
        &csv_file_name("census", profile, &search),
        "n,benchmarks,solvable,interference_anomalies,priority_raise_anomalies,opa_incomplete,unsafe_invalid,certificate_lies,truncated,quarantined",
        run.rows.iter().map(|r| {
            format!(
                "{},{},{},{},{},{},{},{},{},{}",
                r.n,
                r.benchmarks,
                r.solvable,
                r.interference_anomalies,
                r.priority_raise_anomalies,
                r.opa_incomplete,
                r.unsafe_invalid,
                r.certificate_lies,
                r.truncated,
                r.quarantined
            )
        }),
    )?;
    eprintln!("wrote {}", path.display());
    // Both files are written on every run, empty ones with only their
    // header line, so none is left over from an earlier run.
    let wpath = write_witness_file(&format!("witnesses_census_{profile}.txt"), &run.witnesses)?;
    eprintln!(
        "wrote {} anomalous-instance witness(es) to {}",
        run.witnesses.len(),
        wpath.display()
    );
    let qpath = write_quarantine_file(
        &format!("quarantine_census_{profile}.txt"),
        &run.quarantined,
    )?;
    eprintln!(
        "wrote {} quarantined instance(s) to {} (each line carries the rng seed for offline replay)",
        run.quarantined.len(),
        qpath.display()
    );
    Ok(())
}
