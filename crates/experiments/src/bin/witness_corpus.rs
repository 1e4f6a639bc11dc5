//! Regenerates the committed witness corpus: sweeps the benchmark
//! distributions for anomalous instances and serializes them as
//! replayable witness lines.
//!
//! ```text
//! witness_corpus [--quick] [--threads N] [--profile NAME] [--n LIST] [--benchmarks N] [--seed N]
//! ```
//!
//! Defaults: `--n 4`, `--seed 77` and 20 000 benchmarks per n (500 with
//! `--quick`). Output goes to `results/witness_corpus_<profile>.txt`; the curated
//! copy lives in `crates/experiments/tests/data/` and is pinned by the
//! `witness_replay` regression suite. Regenerate and re-commit it only
//! when the generator intentionally changes (the replay test pins
//! bit-identical regeneration).

use csa_experiments::cli::{Args, Flag, PROFILE, QUICK, SCALE, TASK_COUNTS};
use csa_experiments::{
    run_census, warm_cached_tables, write_witness_file, CensusConfig, SearchConfig,
};

const BENCHMARKS: Flag<usize> = Flag::count("--benchmarks");
const SEED: Flag<u64> = Flag::count("--seed");

fn main() -> std::io::Result<()> {
    let args = Args::parse(
        "witness_corpus",
        &[SCALE, &[&PROFILE, &TASK_COUNTS, &BENCHMARKS, &SEED]],
    );
    let profile = args.get(&PROFILE).unwrap_or_default();
    let task_counts = args.get(&TASK_COUNTS).unwrap_or_else(|| vec![4]);
    let benchmarks = args
        .get(&BENCHMARKS)
        .unwrap_or(if args.get(&QUICK).is_some() {
            500
        } else {
            20_000
        });
    let seed = args.get(&SEED).unwrap_or(77);
    let threads = args.threads();
    // Always the complete unbudgeted search: the corpus is a committed
    // regression surface and must not depend on `--search`/`--budget`.
    let config = CensusConfig {
        task_counts,
        benchmarks,
        seed,
        profile,
        search: SearchConfig::default(),
    };
    eprintln!(
        "witness-corpus: {benchmarks} benchmarks per n over n = {:?} (seed {seed}, profile {profile}, {threads} worker threads)",
        config.task_counts
    );
    warm_cached_tables(threads);
    let (rows, witnesses) = run_census(&config, threads);
    for r in &rows {
        eprintln!(
            "n = {}: {} certificate lies, {} unsafe-invalid, {} interference anomalies, {} priority-raise, {} opa-incomplete",
            r.n, r.certificate_lies, r.unsafe_invalid, r.interference_anomalies,
            r.priority_raise_anomalies, r.opa_incomplete
        );
    }
    let path = write_witness_file(&format!("witness_corpus_{profile}.txt"), &witnesses)?;
    eprintln!(
        "wrote {} witness(es) to {}",
        witnesses.len(),
        path.display()
    );
    Ok(())
}
