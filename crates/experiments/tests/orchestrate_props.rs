//! Property tests of the sharded sweep orchestrator (DESIGN.md §11).
//!
//! The contract under test: the outcome of [`run_sharded_sweep`] is a
//! pure function of the sweep configuration — shard size, thread count,
//! checkpointing, and the kill point of an interrupted run must never
//! change a row or a witness bit.

use csa_experiments::{
    instance_seed, run_sharded_sweep, InstanceOutput, OrchestratorConfig, PeriodModel, SweepSpec,
    Witness, WitnessKind,
};
use proptest::prelude::*;
use std::path::PathBuf;

const COLUMNS: &[&str] = &["alpha", "beta", "gamma"];

fn spec(seed: u64, benchmarks: usize) -> SweepSpec {
    SweepSpec {
        name: "props",
        columns: COLUMNS,
        seed,
        task_counts: vec![3, 5],
        benchmarks,
        config: vec![("profile", "synthetic".to_string())],
    }
}

/// A cheap synthetic instance: counters and witnesses derived purely
/// from the instance's RNG seed, standing in for the expensive
/// control-theoretic evaluation.
fn eval(n: usize, k: usize, rng_seed: u64) -> InstanceOutput {
    let counts = vec![
        rng_seed % 3,
        (rng_seed >> 7) % 2,
        u64::from(k.is_multiple_of(4)),
    ];
    let witnesses = if rng_seed.is_multiple_of(5) {
        let tasks = (0..n)
            .map(|i| csa_core::ControlTask::from_parts(i as u32, 1, 1, 4, 1.0, 1e-8).unwrap())
            .collect();
        vec![Witness {
            kind: WitnessKind::CertificateLie,
            profile: PeriodModel::Continuous,
            seed: rng_seed,
            n,
            index: k,
            tasks,
        }]
    } else {
        Vec::new()
    };
    InstanceOutput { counts, witnesses }
}

fn scratch_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "csa_orch_props_{}_{tag}_{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Neither the shard size nor the thread count may change a single
    /// bit of the aggregates or the witness stream.
    #[test]
    fn shard_and_thread_invariance(
        seed in 0u64..1000,
        benchmarks in 1usize..60,
        shard_size in 1usize..70,
        threads in 1usize..5,
    ) {
        let sweep = spec(seed, benchmarks);
        let reference =
            run_sharded_sweep(&sweep, &OrchestratorConfig::in_memory(), 1, eval).unwrap();
        let orch = OrchestratorConfig { shard_size, ..OrchestratorConfig::in_memory() };
        let run = run_sharded_sweep(&sweep, &orch, threads, eval).unwrap();
        prop_assert_eq!(&run.rows, &reference.rows);
        prop_assert_eq!(&run.witnesses, &reference.witnesses);
        prop_assert!(run.quarantined.is_empty());
    }

    /// A checkpointed run truncated to any whole-shard prefix (the state
    /// a kill leaves behind, since the journal is rewritten atomically
    /// per shard) must resume to the exact uninterrupted outcome.
    #[test]
    fn resume_from_any_kill_point_is_identical(
        seed in 0u64..1000,
        benchmarks in 1usize..40,
        shard_size in 1usize..20,
        keep_frac in 0.0f64..1.0,
    ) {
        let dir = scratch_dir("kill", seed ^ (benchmarks as u64) << 32);
        let sweep = spec(seed, benchmarks);
        let orch = OrchestratorConfig {
            shard_size,
            ..OrchestratorConfig::checkpointed(&dir)
        };
        let full = run_sharded_sweep(&sweep, &orch, 2, eval).unwrap();

        // Truncate the journal text to its first `keep` shard records.
        let path = csa_experiments::journal_path(&dir, sweep.name);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let shard_starts: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.starts_with("s|"))
            .map(|(i, _)| i)
            .collect();
        let total = shard_starts.len();
        prop_assert_eq!(total, full.shards_computed);
        let keep = ((total as f64) * keep_frac) as usize; // 0..total
        let cut = if keep < total { shard_starts[keep] } else { lines.len() };
        let truncated: String = lines[..cut]
            .iter()
            .flat_map(|l| [l, "\n"])
            .collect();
        #[expect(clippy::disallowed_methods, reason = "A001: truncates on purpose")]
        std::fs::write(&path, truncated).unwrap();

        let resumed = run_sharded_sweep(&sweep, &orch, 3, eval).unwrap();
        prop_assert_eq!(resumed.shards_resumed, keep);
        prop_assert_eq!(resumed.shards_computed, total - keep);
        prop_assert_eq!(&resumed.rows, &full.rows);
        prop_assert_eq!(&resumed.witnesses, &full.witnesses);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Quarantine determinism: a panic injected as a pure function of
    /// the instance seed quarantines the exact same instances at every
    /// thread count and shard size, and the surviving aggregates equal
    /// the clean sweep minus exactly those instances.
    #[test]
    fn quarantine_is_deterministic(
        seed in 0u64..1000,
        benchmarks in 1usize..40,
        shard_size in 1usize..20,
        threads in 1usize..4,
    ) {
        let sweep = spec(seed, benchmarks);
        let faulty = |n: usize, k: usize, rng_seed: u64| {
            if rng_seed.is_multiple_of(7) {
                panic!("synthetic fault n={n} k={k}");
            }
            eval(n, k, rng_seed)
        };
        let orch = OrchestratorConfig { shard_size, ..OrchestratorConfig::in_memory() };
        let a = run_sharded_sweep(&sweep, &orch, 1, faulty).unwrap();
        let b = run_sharded_sweep(&sweep, &orch, threads, faulty).unwrap();
        prop_assert_eq!(&a.rows, &b.rows);
        prop_assert_eq!(&a.quarantined, &b.quarantined);
        for q in &a.quarantined {
            prop_assert_eq!(q.rng_seed, instance_seed(seed, q.n, q.index));
            prop_assert_eq!(q.rng_seed % 7, 0);
        }
        let expected: usize = sweep
            .task_counts
            .iter()
            .map(|&n| {
                (0..benchmarks)
                    .filter(|&k| instance_seed(seed, n, k).is_multiple_of(7))
                    .count()
            })
            .sum();
        prop_assert_eq!(a.quarantined.len(), expected);
    }
}
