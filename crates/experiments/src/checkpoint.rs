//! Crash-safe checkpoint journal for the sharded sweep orchestrator.
//!
//! A large sweep (DESIGN.md §11) is split into deterministic shards of
//! consecutive instance indices; as each shard completes, its aggregate
//! counter row, its witnesses, and its quarantined instances are
//! appended to a plain-text *journal* under the checkpoint directory.
//! The journal is always rewritten through [`crate::write_atomic`]
//! (write `.tmp`, fsync, rename), so a crash at any instant — including
//! SIGKILL mid-write — leaves either the previous complete journal or
//! the new complete journal on disk, never a torn file.
//!
//! The first content line is a *fingerprint header* assembled by the
//! orchestrator from everything the shard results are a function of:
//! sweep name, base seed, instance counts, column layout, shard size,
//! the margin-kernel revision and plant-pool fingerprint (reusing the
//! staleness-guard discipline of [`crate::margin_cache`]), and the
//! sweep-specific configuration (profile, search mode, budget). A resume
//! checks the header with the one [`Header`] policy; any mismatch is a
//! [`Stale`] naming the field and the sweep recomputes from scratch with
//! a warning — a stale or corrupt journal is **never** silently merged.
//!
//! Record grammar (after the header; blank lines and `#` comments are
//! skipped, as in every format of [`crate::artifact`]):
//!
//! ```text
//! s|<n>|<start>|<len>|<c0,c1,...>|<witness count>|<quarantine count>
//! w|<witness line in the csaw1 format of witness.rs>
//! q|<index>|<rng seed as 16-hex-digit>|<sanitized panic message>
//! ```
//!
//! The writer ends every line with `\n`, so a journal whose text does
//! not is one cut inside a line, and is [`Stale::Malformed`]. A cut at a
//! line boundary either leaves an `s` record's witness or quarantine
//! count unmet (also `Malformed`) or is an exact prefix of the shards.

use crate::artifact::{self, hex, write_atomic, Header, Lines, Stale};
use crate::report::RESULTS_DIR;
use crate::witness::Witness;
use std::path::{Path, PathBuf};

/// Version tag of the checkpoint-journal format; first header field.
pub(crate) const CHECKPOINT_TAG: &str = "csacp2";

/// File-name extension of journals inside the checkpoint directory.
const JOURNAL_EXT: &str = "csacp";

/// One quarantined instance: a worker panicked while evaluating it. It
/// carries its sweep coordinates, the exact RNG seed
/// ([`crate::instance_seed`]`(seed, n, index)`) to replay it offline, and
/// the panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedInstance {
    /// Task count of the sweep row.
    pub n: usize,
    /// Instance index within the row.
    pub index: usize,
    /// The instance's derived RNG seed — `StdRng::seed_from_u64(seed)`
    /// regenerates the exact benchmark for offline replay.
    pub rng_seed: u64,
    /// The worker's panic message.
    pub panic: String,
}

impl QuarantinedInstance {
    /// The `index|rng seed|message` fields shared by journal `q` records
    /// and `csaq2` lines.
    fn fields(&self) -> String {
        let (seed, msg) = (hex(self.rng_seed), sanitize_message(&self.panic));
        format!("{}|{seed}|{msg}", self.index)
    }
}

/// Replaces journal-hostile characters (`|`, newlines, controls) and
/// truncates, so a panic message can ride in one journal field. Trailing
/// whitespace goes too: [`Lines`] trims every line, so a resumed sweep
/// would read the message back without it.
pub(crate) fn sanitize_message(msg: &str) -> String {
    let mut out: String = msg
        .chars()
        .map(|c| if c == '|' || c.is_control() { ' ' } else { c })
        .take(160)
        .collect();
    if msg.chars().count() > 160 {
        out.push('…');
    }
    out.trim_end().to_string()
}

/// One completed shard: the half-open instance range `start..start+len`
/// of the `n`-task row, its aggregate counters (one per sweep column),
/// its witnesses, and its quarantined instances.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// Task count of the sweep row this shard belongs to.
    pub n: usize,
    /// First instance index of the shard.
    pub start: usize,
    /// Number of instances in the shard.
    pub len: usize,
    /// Aggregate counters in the sweep's column order.
    pub counts: Vec<u64>,
    /// Witnesses the shard's instances produced, in index order.
    pub witnesses: Vec<Witness>,
    /// Instances excluded from `counts` (each also absent from
    /// `witnesses`).
    pub quarantined: Vec<QuarantinedInstance>,
}

impl ShardRecord {
    fn push_lines(&self, out: &mut String) {
        use std::fmt::Write as _;
        let counts: Vec<String> = self.counts.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "s|{}|{}|{}|{}|{}|{}",
            self.n,
            self.start,
            self.len,
            counts.join(","),
            self.witnesses.len(),
            self.quarantined.len(),
        );
        for w in &self.witnesses {
            let _ = writeln!(out, "w|{}", w.to_line());
        }
        for q in &self.quarantined {
            let _ = writeln!(out, "q|{}", q.fields());
        }
    }
}

/// Journal path of one sweep inside a checkpoint directory.
pub fn journal_path(dir: &Path, sweep: &str) -> PathBuf {
    dir.join(format!("{sweep}.{JOURNAL_EXT}"))
}

/// Atomically writes the whole journal: header plus every completed
/// shard. Called after each freshly computed shard; the rewrite is what
/// keeps every published journal a complete, self-consistent file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn save_journal(
    path: &Path,
    header: &Header,
    records: &[ShardRecord],
) -> std::io::Result<()> {
    let mut out = String::with_capacity(256 + records.len() * 64);
    out.push_str("# Sweep checkpoint journal: one `s` record per completed shard with its\n");
    out.push_str("# witness sample (`w`) and quarantined instances (`q`). Rewritten\n");
    out.push_str("# atomically after every shard; stale headers are recomputed, never merged.\n");
    out.push_str(&header.line());
    out.push('\n');
    for r in records {
        r.push_lines(&mut out);
    }
    write_atomic(path, &out)
}

/// Loads a checkpoint journal and validates it against the expected
/// fingerprint header and column count.
///
/// # Errors
///
/// [`Stale`] when the file is absent, fingerprints differ, or the body
/// is corrupt or cut inside a line. Callers must recompute every shard
/// in every error case (warn-and-recompute; never merge a stale
/// journal).
pub(crate) fn load_journal(
    path: &Path,
    expected: &Header,
    columns: usize,
) -> Result<Vec<ShardRecord>, Stale> {
    let text = artifact::read(path)?;
    if !text.ends_with('\n') {
        return Err(Stale::Malformed(
            "the last line has no newline; the journal was cut inside it".into(),
        ));
    }
    let mut lines = Lines::new(&text);
    expected.check(lines.require("header")?.text)?;

    let mut records = Vec::new();
    while let Some(s) = lines.next() {
        let s = s.shape("s", 6)?;
        let counts: Vec<u64> = s
            .str(3)?
            .split(',')
            .map(|c| {
                c.parse()
                    .map_err(|e| s.malformed(format!("bad counter {c:?}: {e}")))
            })
            .collect::<Result<_, _>>()?;
        if counts.len() != columns {
            return Err(s.malformed(format!(
                "{} counters, sweep has {columns} columns",
                counts.len()
            )));
        }
        let mut record = ShardRecord {
            n: s.num(0, "n")?,
            start: s.num(1, "start")?,
            len: s.num(2, "len")?,
            counts,
            witnesses: Vec::new(),
            quarantined: Vec::new(),
        };
        for _ in 0..s.num::<usize>(4, "witness count")? {
            let w = lines.require("witness")?;
            if w.tag != "w" {
                return Err(w.malformed(format!("expected `w` witness record, got {:?}", w.text)));
            }
            record
                .witnesses
                .push(Witness::parse(w.payload()).map_err(|e| w.malformed(e))?);
        }
        for _ in 0..s.num::<usize>(5, "quarantine count")? {
            let q = lines.record("q", 3)?;
            record.quarantined.push(QuarantinedInstance {
                n: record.n,
                index: q.num(0, "index")?,
                rng_seed: q.hex(1, "rng seed")?,
                panic: q.str(2)?.to_string(),
            });
        }
        records.push(record);
    }
    Ok(records)
}

/// Writes quarantined instances to `results/<file_name>` for offline
/// replay (one line each: `csaq2|n|index|rng_seed_hex|message`)
/// and returns the full path. Atomic like every artifact writer.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_quarantine_file(
    file_name: &str,
    quarantined: &[QuarantinedInstance],
) -> std::io::Result<PathBuf> {
    use std::fmt::Write as _;
    let path = Path::new(RESULTS_DIR).join(file_name);
    let mut content = format!(
        "# {} quarantined instance(s); replay with StdRng::seed_from_u64(0x<rng_seed>)\n",
        quarantined.len()
    );
    for q in quarantined {
        let _ = writeln!(content, "csaq2|{}|{}", q.n, q.fields());
    }
    write_atomic(&path, &content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchgen::{generate_benchmark, BenchmarkConfig, PeriodModel};
    use crate::parallel::instance_seed;
    use crate::witness::WitnessKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_records() -> Vec<ShardRecord> {
        let (seed, n) = (2017u64, 4usize);
        let mut rng = StdRng::seed_from_u64(instance_seed(seed, n, 3));
        let tasks = generate_benchmark(
            &BenchmarkConfig::with_model(n, PeriodModel::Continuous),
            &mut rng,
        );
        vec![
            ShardRecord {
                n,
                start: 0,
                len: 8,
                counts: vec![5, 0, 3],
                witnesses: vec![Witness {
                    kind: WitnessKind::CertificateLie,
                    profile: PeriodModel::Continuous,
                    seed,
                    n,
                    index: 3,
                    tasks,
                }],
                quarantined: vec![
                    QuarantinedInstance {
                        n,
                        index: 5,
                        rng_seed: instance_seed(seed, n, 5),
                        panic: "boom at 5".to_string(),
                    },
                    QuarantinedInstance {
                        n,
                        index: 7,
                        rng_seed: instance_seed(seed, n, 7),
                        panic: "boom at 7".to_string(),
                    },
                ],
            },
            ShardRecord {
                n,
                start: 8,
                len: 8,
                counts: vec![8, 1, 0],
                witnesses: Vec::new(),
                quarantined: Vec::new(),
            },
        ]
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("csa_ckpt_test_{}_{name}", std::process::id()))
    }

    fn test_header() -> Header {
        Header::new(CHECKPOINT_TAG)
            .field("sweep", "test")
            .field("seed", 2017)
            .field("cols", "a,b,c")
    }

    #[test]
    fn journal_round_trips_bit_exactly() {
        let header = test_header();
        let records = sample_records();
        let path = temp_path("roundtrip.csacp");
        save_journal(&path, &header, &records).unwrap();
        let loaded = load_journal(&path, &header, 3).unwrap();
        assert_eq!(loaded, records);
        std::fs::remove_file(path).unwrap();
    }

    /// The `csacp2` bytes of [`sample_records`]: a witness and two
    /// quarantine records. Round-trip tests alone cannot catch a
    /// self-consistent format change.
    const PINNED_JOURNAL: &str = "\
# Sweep checkpoint journal: one `s` record per completed shard with its\n\
# witness sample (`w`) and quarantined instances (`q`). Rewritten\n\
# atomically after every shard; stale headers are recomputed, never merged.\n\
csacp2|sweep=test|seed=2017|cols=a,b,c\n\
s|4|0|8|5,0,3|1|2\n\
w|csaw1|certificate-lie|continuous|2017|4|3|\
pendulum:2970167:4483394:15445140:3ff41e5054c58df1:3fae8c08e353150d;\
double_integrator:471119:612402:12950863:3ff4466116ad4930:3fa07290c85d801b;\
dc_servo:478893:660138:3592086:4000309925faa5d5:3f85fe98cd7cd985;\
pendulum:1062970:1141322:5236784:3ff3f6c93730ae6a:3fb03b441ecc40ac\n\
q|5|04cfe3ec9acb4c60|boom at 5\n\
q|7|84ec18e381dca8f8|boom at 7\n\
s|4|8|8|8,1,0|0|0\n";

    #[test]
    fn journal_bytes_are_pinned() {
        let path = temp_path("pinned.csacp");
        save_journal(&path, &test_header(), &sample_records()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, PINNED_JOURNAL);
        std::fs::remove_file(path).unwrap();
    }

    /// A crash leaves a whole journal (the writes are atomic), but a
    /// copy or a full disk can cut one anywhere: every byte prefix must
    /// be rejected or load as a prefix of the saved shards, never as a
    /// record the journal did not hold.
    #[test]
    fn every_cut_is_rejected_or_a_shard_prefix() {
        let (header, records) = (test_header(), sample_records());
        let path = temp_path("cut.csacp");
        save_journal(&path, &header, &records).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..=bytes.len() {
            #[expect(clippy::disallowed_methods, reason = "A001: tears the journal")]
            std::fs::write(&path, &bytes[..cut]).unwrap();
            match load_journal(&path, &header, 3) {
                Ok(loaded) => assert!(records.starts_with(&loaded), "cut at byte {cut}"),
                Err(err) => assert!(
                    matches!(err, Stale::Malformed(_) | Stale::Mismatch { .. }),
                    "cut at byte {cut}: {err:?}"
                ),
            }
        }
        assert_eq!(load_journal(&path, &header, 3), Ok(records));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn header_mismatch_names_the_field() {
        let path = temp_path("mismatch.csacp");
        save_journal(&path, &test_header(), &[]).unwrap();
        let other = |tag, seed: u64| Header::new(tag).field("sweep", "test").field("seed", seed);
        for (expected, want) in [
            (other(CHECKPOINT_TAG, 2018), "seed"),
            (other("x", 2017), "tag"),
        ] {
            let err = load_journal(&path, &expected, 3).unwrap_err();
            assert!(
                matches!(err, Stale::Mismatch { field, .. } if field == want),
                "{err:?}"
            );
        }
        let err = load_journal(&path, &test_header().field("extra", 1), 3).unwrap_err();
        assert!(matches!(err, Stale::Malformed(_)), "{err:?}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_and_corrupt_journals_are_stale() {
        let header = Header::new(CHECKPOINT_TAG).field("sweep", "test");
        let missing = load_journal(Path::new("/nonexistent/x.csacp"), &header, 1);
        assert_eq!(missing.unwrap_err(), Stale::Missing);

        let path = temp_path("corrupt.csacp");
        for (body, needle) in [
            ("s|4|0|8|1,2|0|0\n", "counters"),
            ("s|4|0|8|1|1|0\n", "end of file"),
            ("s|4|0|8|1|0|1\nq|5|zz|x\n", "bad rng seed"),
            (
                "s|4|0|8|1|0|1\nq|5|00000000000000aa|panic|x\n",
                "expected `q` record with 3 fields",
            ),
            ("s|4|0|8|1|0|0", "no newline"),
            ("w|csaw1|whatever\n", "expected `s`"),
        ] {
            #[expect(clippy::disallowed_methods, reason = "A001: writes a bad journal")]
            std::fs::write(&path, format!("{}\n{body}", header.line())).unwrap();
            let err = load_journal(&path, &header, 1).unwrap_err();
            let Stale::Malformed(msg) = &err else {
                panic!("{body:?}: expected Malformed, got {err:?}");
            };
            assert!(msg.contains(needle), "{body:?}: {msg:?} missing {needle:?}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn messages_are_sanitized_for_the_journal() {
        assert_eq!(sanitize_message("a|b\nc"), "a b c");
        assert_eq!(sanitize_message("boom at 5\n"), "boom at 5");
        let long = "x".repeat(400);
        let s = sanitize_message(&long);
        assert!(s.chars().count() <= 161 && s.ends_with('…'));
    }

    const PINNED_QUARANTINE: &str = "\
# 2 quarantined instance(s); replay with StdRng::seed_from_u64(0x<rng_seed>)\n\
csaq2|4|5|04cfe3ec9acb4c60|boom at 5\n\
csaq2|4|7|84ec18e381dca8f8|boom at 7\n";

    #[test]
    fn quarantine_file_lists_replay_seeds() {
        let records = sample_records();
        let path = write_quarantine_file("test_quarantine_checkpoint.txt", &records[0].quarantined)
            .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let seed5 = instance_seed(2017, 4, 5);
        assert!(content.contains(&format!("csaq2|4|5|{seed5:016x}|boom at 5")));
        assert_eq!(content, PINNED_QUARANTINE, "csaq2 bytes");
        std::fs::remove_file(path).unwrap();
    }
}
