//! Crash-safe, resumable orchestration of the benchmark sweeps.
//!
//! Historically every sweep was an all-or-nothing in-memory run: a
//! crash, OOM, or a single panicking instance at minute 40 of a large
//! run lost everything. This module splits a sweep into deterministic
//! *shards* — consecutive ranges of instance indices, each instance
//! seeded by [`instance_seed`]`(seed, n, index)` exactly as before — and
//! drives them through three robustness layers (DESIGN.md §11):
//!
//! 1. **Streaming aggregation.** Only one shard's per-instance results
//!    are ever in memory; each shard folds into `u64` counter rows and
//!    its witnesses before the next shard starts, so memory stays flat
//!    at 100× the paper's instance counts.
//! 2. **Checkpoint/resume.** With a checkpoint directory configured,
//!    each completed shard is appended to an atomically rewritten
//!    journal ([`crate::checkpoint`]). A `--resume` run replays the
//!    journal, skips completed shards, and produces output
//!    **bit-identical** to an uninterrupted run at any thread count and
//!    any kill point — a stale journal is warn-and-recompute, never
//!    silently merged.
//! 3. **Quarantine.** A panicking worker is caught per instance
//!    ([`crate::parallel_map_catching`]) and recorded as a
//!    [`QuarantinedInstance`] with its replayable RNG seed instead of
//!    aborting the sweep.
//!
//! A panic is a pure function of the instance, so every sweep is a pure
//! function of its configuration: bit-identical at any thread count,
//! shard size or kill point, quarantines included. A long search is
//! bounded by a check budget (`--budget`), never by a clock.

use crate::artifact::{hex, Header, Stale};
use crate::checkpoint::{self, QuarantinedInstance, ShardRecord};
use crate::margin_cache;
use crate::parallel::{instance_seed, parallel_map_catching};
use crate::witness::Witness;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Default instances per shard: small enough that a crash loses little
/// work and memory stays bounded, large enough to amortize journal
/// rewrites and keep all workers busy inside one shard.
pub(crate) const DEFAULT_SHARD_SIZE: usize = 1024;

/// How a sweep is sharded and checkpointed. Built from the
/// `--checkpoint-dir` / `--resume` / `--shard-size` flags by
/// [`Args::orchestrator`](crate::cli::Args::orchestrator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrchestratorConfig {
    /// Directory holding the checkpoint journal; `None` disables
    /// checkpointing (pure in-memory streaming run).
    pub checkpoint_dir: Option<PathBuf>,
    /// Replay a compatible journal found in `checkpoint_dir`, skipping
    /// its completed shards. Without this flag an existing journal is
    /// overwritten from scratch.
    pub resume: bool,
    /// Instances per shard (the checkpoint granularity).
    pub shard_size: usize,
}

impl OrchestratorConfig {
    /// No checkpointing — the configuration backing the plain in-memory
    /// sweep APIs.
    pub fn in_memory() -> Self {
        OrchestratorConfig {
            checkpoint_dir: None,
            resume: false,
            shard_size: DEFAULT_SHARD_SIZE,
        }
    }

    /// Checkpointing into `dir` with resume enabled — the configuration
    /// a long paper-scale run wants.
    pub fn checkpointed(dir: impl Into<PathBuf>) -> Self {
        OrchestratorConfig {
            checkpoint_dir: Some(dir.into()),
            resume: true,
            ..OrchestratorConfig::in_memory()
        }
    }
}

/// What one sweep is, for the orchestrator: its identity (journal name),
/// its column layout, its instance grid, and every configuration field
/// its results are a function of (fingerprinted into the journal
/// header).
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name — the journal file stem (`census`, `table1`).
    pub name: &'static str,
    /// Aggregate counter columns, in CSV order.
    pub columns: &'static [&'static str],
    /// Base RNG seed of the sweep.
    pub seed: u64,
    /// Task counts, one aggregate row each.
    pub task_counts: Vec<usize>,
    /// Instances per task count.
    pub benchmarks: usize,
    /// Sweep-specific configuration (`profile`, `search`, `budget`, …)
    /// as `(key, value)` pairs; part of the fingerprint header.
    pub config: Vec<(&'static str, String)>,
}

impl SweepSpec {
    /// The journal fingerprint header: everything the shard records are
    /// a function of, including the margin-kernel revision and
    /// plant-pool fingerprint (benchmark task sets embed margin-table
    /// values, so a kernel or pool change invalidates partial results
    /// exactly as it invalidates the margin artifact).
    pub fn header(&self, orch: &OrchestratorConfig) -> Header {
        let ns: Vec<String> = self.task_counts.iter().map(usize::to_string).collect();
        let mut header = Header::new(checkpoint::CHECKPOINT_TAG)
            .field("sweep", self.name)
            .field("kernel", margin_cache::KERNEL_REVISION)
            .field("pool", hex(margin_cache::pool_fingerprint()))
            .field("seed", self.seed)
            .field("benchmarks", self.benchmarks)
            .field("ns", ns.join(","))
            .field("cols", self.columns.join(","))
            .field("shard", orch.shard_size);
        for (key, value) in &self.config {
            header = header.field(key, value);
        }
        header
    }
}

/// What one instance contributes to its sweep: counter increments (in
/// the sweep's column order) and any witnesses it produced.
#[derive(Debug, Clone)]
pub struct InstanceOutput {
    /// Counter increments, one per [`SweepSpec::columns`] entry.
    pub counts: Vec<u64>,
    /// Witnesses the instance produced.
    pub witnesses: Vec<Witness>,
}

/// One aggregate row of an orchestrated sweep (one per task count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggRow {
    /// Task count.
    pub n: usize,
    /// Instances attempted (including quarantined ones).
    pub benchmarks: usize,
    /// Summed counters in the sweep's column order (quarantined
    /// instances contribute nothing).
    pub counts: Vec<u64>,
    /// Instances excluded from `counts` by quarantine.
    pub quarantined: u64,
}

/// The outcome of an orchestrated sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OrchestratedRun<R = AggRow> {
    /// Aggregate rows, one per task count in sweep order.
    pub rows: Vec<R>,
    /// Every witness, in `(n, index)` order.
    pub witnesses: Vec<Witness>,
    /// Every quarantined instance with its replayable seed.
    pub quarantined: Vec<QuarantinedInstance>,
    /// Shards replayed from the checkpoint journal.
    pub shards_resumed: usize,
    /// Shards computed in this run.
    pub shards_computed: usize,
}

impl<R> OrchestratedRun<R> {
    /// Maps the aggregate rows into a sweep-specific row type, keeping
    /// everything else.
    pub fn map_rows<S>(self, f: impl FnMut(R) -> S) -> OrchestratedRun<S> {
        OrchestratedRun {
            rows: self.rows.into_iter().map(f).collect(),
            witnesses: self.witnesses,
            quarantined: self.quarantined,
            shards_resumed: self.shards_resumed,
            shards_computed: self.shards_computed,
        }
    }
}

/// Evaluates one shard: every instance through the panic-isolating
/// parallel driver, folded in index order into counters, witnesses, and
/// the quarantine list.
fn compute_shard<F>(
    spec: &SweepSpec,
    threads: usize,
    eval: &F,
    n: usize,
    start: usize,
    len: usize,
) -> ShardRecord
where
    F: Fn(usize, usize, u64) -> InstanceOutput + Sync,
{
    let outputs = parallel_map_catching(len, threads, |i| {
        let k = start + i;
        #[cfg(feature = "faultinject")]
        csa_faultinject::maybe_fault(n, k);
        eval(n, k, instance_seed(spec.seed, n, k))
    });
    let mut record = ShardRecord {
        n,
        start,
        len,
        counts: vec![0; spec.columns.len()],
        witnesses: Vec::new(),
        quarantined: Vec::new(),
    };
    for (i, output) in outputs.into_iter().enumerate() {
        let index = start + i;
        match output {
            Ok(out) => {
                assert_eq!(
                    out.counts.len(),
                    spec.columns.len(),
                    "instance output width must match the sweep's columns"
                );
                for (acc, c) in record.counts.iter_mut().zip(&out.counts) {
                    *acc += c;
                }
                record.witnesses.extend(out.witnesses);
            }
            Err(msg) => {
                let panic = checkpoint::sanitize_message(&msg);
                eprintln!(
                    "{}: quarantined n={n} index={index} (panic: {panic})",
                    spec.name
                );
                record.quarantined.push(QuarantinedInstance {
                    n,
                    index,
                    rng_seed: instance_seed(spec.seed, n, index),
                    panic,
                });
            }
        }
    }
    record
}

/// Runs a sharded sweep: `eval(n, index, rng_seed)` for every instance,
/// with streaming aggregation, optional checkpoint/resume, and
/// quarantine semantics (see the module docs). `threads` bounds the
/// workers *within* each shard (0 = available parallelism); shards run
/// sequentially, which is what makes the journal a clean prefix of the
/// sweep at every instant.
///
/// # Errors
///
/// Propagates journal write failures. A run without a checkpoint
/// directory performs no I/O and cannot fail.
pub fn run_sharded_sweep<F>(
    spec: &SweepSpec,
    orch: &OrchestratorConfig,
    threads: usize,
    eval: F,
) -> std::io::Result<OrchestratedRun>
where
    F: Fn(usize, usize, u64) -> InstanceOutput + Sync,
{
    assert!(!spec.columns.is_empty(), "a sweep must have columns");
    let shard_size = orch.shard_size.max(1);
    let header = spec.header(orch);
    let journal_path = orch
        .checkpoint_dir
        .as_deref()
        .map(|d| checkpoint::journal_path(d, spec.name));

    let mut existing: BTreeMap<(usize, usize), ShardRecord> = BTreeMap::new();
    if let Some(path) = &journal_path {
        if orch.resume {
            match checkpoint::load_journal(path, &header, spec.columns.len()) {
                Ok(records) => {
                    eprintln!(
                        "{}: resuming from {} — {} completed shard(s) in the journal",
                        spec.name,
                        path.display(),
                        records.len()
                    );
                    existing = records.into_iter().map(|r| ((r.n, r.start), r)).collect();
                }
                Err(Stale::Missing) => {
                    eprintln!(
                        "{}: no checkpoint at {} — starting fresh",
                        spec.name,
                        path.display()
                    );
                }
                Err(reason) => {
                    eprintln!(
                        "{}: WARNING: checkpoint at {} is unusable ({reason}); \
                         recomputing every shard",
                        spec.name,
                        path.display()
                    );
                }
            }
        }
    }

    let mut run = OrchestratedRun {
        rows: Vec::with_capacity(spec.task_counts.len()),
        witnesses: Vec::new(),
        quarantined: Vec::new(),
        shards_resumed: 0,
        shards_computed: 0,
    };
    // Records in deterministic shard order (resumed and fresh alike);
    // this is what each journal rewrite publishes.
    let mut journal: Vec<ShardRecord> = Vec::new();
    for &n in &spec.task_counts {
        let mut row = AggRow {
            n,
            benchmarks: spec.benchmarks,
            counts: vec![0; spec.columns.len()],
            quarantined: 0,
        };
        let mut start = 0;
        while start < spec.benchmarks {
            let len = shard_size.min(spec.benchmarks - start);
            let (record, fresh) = match existing.remove(&(n, start)) {
                Some(r) if r.len == len => {
                    run.shards_resumed += 1;
                    (r, false)
                }
                // A length mismatch can only follow a hand-edited
                // journal (shard size is in the header): recompute.
                _ => {
                    run.shards_computed += 1;
                    let r = compute_shard(spec, threads, &eval, n, start, len);
                    (r, true)
                }
            };
            for (acc, c) in row.counts.iter_mut().zip(&record.counts) {
                *acc += c;
            }
            row.quarantined += record.quarantined.len() as u64;
            run.witnesses.extend(record.witnesses.iter().cloned());
            run.quarantined.extend(record.quarantined.iter().cloned());
            journal.push(record);
            if fresh {
                if let Some(path) = &journal_path {
                    checkpoint::save_journal(path, &header, &journal)?;
                }
            }
            start += len;
        }
        run.rows.push(row);
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csa_core::ControlTask;

    fn test_spec(name: &'static str, seed: u64, benchmarks: usize) -> SweepSpec {
        SweepSpec {
            name,
            columns: &["even", "odd", "big"],
            seed,
            task_counts: vec![2, 3],
            benchmarks,
            config: vec![("profile", "test".to_string())],
        }
    }

    /// A deterministic instance evaluator: counters keyed on index
    /// parity/size, one witness per index divisible by 5.
    fn test_eval(n: usize, k: usize, _rng_seed: u64) -> InstanceOutput {
        let counts = vec![
            u64::from(k.is_multiple_of(2)),
            u64::from(!k.is_multiple_of(2)),
            u64::from(k >= 10),
        ];
        let witnesses = if k.is_multiple_of(5) {
            let tasks = (0..n)
                .map(|i| ControlTask::from_parts(i as u32, 1, 1, 4, 1.0, 1e-8).unwrap())
                .collect();
            vec![Witness {
                kind: crate::witness::WitnessKind::CertificateLie,
                profile: crate::benchgen::PeriodModel::Continuous,
                seed: 7,
                n,
                index: k,
                tasks,
            }]
        } else {
            Vec::new()
        };
        InstanceOutput { counts, witnesses }
    }

    fn temp_ckpt(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("csa_orch_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shard_size_and_thread_count_do_not_change_the_outcome() {
        let spec = test_spec("invariance", 11, 23);
        let reference =
            run_sharded_sweep(&spec, &OrchestratorConfig::in_memory(), 1, test_eval).unwrap();
        assert_eq!(reference.rows.len(), 2);
        assert_eq!(reference.rows[0].counts, vec![12, 11, 13]);
        assert_eq!(reference.witnesses.len(), 2 * 5); // k in {0,5,10,15,20} per n
        for shard_size in [1, 3, 7, 23, 64] {
            for threads in [1, 2, 4] {
                let orch = OrchestratorConfig {
                    shard_size,
                    ..OrchestratorConfig::in_memory()
                };
                let run = run_sharded_sweep(&spec, &orch, threads, test_eval).unwrap();
                assert_eq!(
                    run.rows, reference.rows,
                    "shard={shard_size} threads={threads}"
                );
                assert_eq!(run.witnesses, reference.witnesses);
                assert!(run.quarantined.is_empty());
            }
        }
    }

    #[test]
    fn panicking_instances_are_quarantined_not_fatal() {
        let spec = test_spec("quarantine", 5, 12);
        let eval = |n: usize, k: usize, seed: u64| {
            if n == 3 && k == 7 {
                panic!("pathological instance");
            }
            test_eval(n, k, seed)
        };
        let run = run_sharded_sweep(&spec, &OrchestratorConfig::in_memory(), 2, eval).unwrap();
        assert_eq!(run.quarantined.len(), 1);
        let q = &run.quarantined[0];
        assert_eq!((q.n, q.index), (3, 7));
        assert_eq!(q.rng_seed, instance_seed(5, 3, 7));
        assert_eq!(q.panic, "pathological instance");
        // The n = 3 row is short exactly the quarantined instance.
        assert_eq!(run.rows[1].quarantined, 1);
        let clean =
            run_sharded_sweep(&spec, &OrchestratorConfig::in_memory(), 1, test_eval).unwrap();
        assert_eq!(run.rows[0], clean.rows[0]);
        assert_eq!(
            run.rows[1].counts[1],
            clean.rows[1].counts[1] - 1,
            "index 7 is odd and must be missing"
        );
    }

    #[test]
    fn resume_skips_completed_shards_and_matches_uninterrupted() {
        let dir = temp_ckpt("resume");
        let spec = test_spec("resume", 3, 20);
        let orch = OrchestratorConfig {
            shard_size: 4,
            ..OrchestratorConfig::checkpointed(&dir)
        };
        let full = run_sharded_sweep(&spec, &orch, 2, test_eval).unwrap();
        assert_eq!(full.shards_computed, 10);
        assert_eq!(full.shards_resumed, 0);

        // Truncate the journal to its first 3 shards — as if the run had
        // been killed there — and resume.
        let path = checkpoint::journal_path(&dir, spec.name);
        let header = spec.header(&orch);
        let records = checkpoint::load_journal(&path, &header, 3).unwrap();
        checkpoint::save_journal(&path, &header, &records[..3]).unwrap();
        let resumed = run_sharded_sweep(&spec, &orch, 3, test_eval).unwrap();
        assert_eq!(resumed.shards_resumed, 3);
        assert_eq!(resumed.shards_computed, 7);
        assert_eq!(resumed.rows, full.rows);
        assert_eq!(resumed.witnesses, full.witnesses);

        // A second resume replays everything and recomputes nothing.
        let replay = run_sharded_sweep(&spec, &orch, 1, test_eval).unwrap();
        assert_eq!(replay.shards_resumed, 10);
        assert_eq!(replay.shards_computed, 0);
        assert_eq!(replay.rows, full.rows);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn stale_journals_are_recomputed_never_merged() {
        let dir = temp_ckpt("stale");
        let spec = test_spec("stale", 3, 8);
        let orch = OrchestratorConfig {
            shard_size: 4,
            ..OrchestratorConfig::checkpointed(&dir)
        };
        run_sharded_sweep(&spec, &orch, 1, test_eval).unwrap();
        // Same sweep name, different seed: the fingerprint must reject
        // the journal and recompute everything.
        let other = SweepSpec {
            seed: 4,
            ..test_spec("stale", 4, 8)
        };
        let run = run_sharded_sweep(&other, &orch, 1, test_eval).unwrap();
        assert_eq!(run.shards_resumed, 0);
        assert_eq!(run.shards_computed, 4);
        // And the journal now carries the new fingerprint.
        let path = checkpoint::journal_path(&dir, "stale");
        let records = checkpoint::load_journal(&path, &other.header(&orch), 3).unwrap();
        assert_eq!(records.len(), 4);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn header_covers_the_shard_layout() {
        let spec = test_spec("hdr", 3, 8);
        let a = spec.header(&OrchestratorConfig::in_memory()).line();
        let b = spec
            .header(&OrchestratorConfig {
                shard_size: 7,
                ..OrchestratorConfig::in_memory()
            })
            .line();
        assert_ne!(a, b, "shard size must be fingerprinted");
        assert!(a.contains("|sweep=hdr|"));
        assert!(a.contains("|profile=test"));
        assert!(a.contains("|shard=1024|profile=test"));
    }
}
