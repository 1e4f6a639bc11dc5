//! Replayable witnesses of invalid and anomalous benchmark instances.
//!
//! The paper's headline numbers are *rates of rare events* (Table I's
//! invalid assignments, the census's anomalies). A rate alone is a weak
//! regression surface — a code change that silently stops finding the
//! events still produces a plausible-looking percentage. Every sweep
//! therefore serializes the concrete instances it finds into witness
//! lines; a curated corpus of them is committed under
//! `crates/experiments/tests/data/` and replayed by the regression suite,
//! pinning that (1) the generator still reproduces each instance
//! bit-for-bit from its `(profile, seed, n, index)` coordinates and
//! (2) each instance still exhibits its recorded pathology (e.g. Unsafe
//! Quadratic emits an assignment that fails exact verification while
//! backtracking proves the set feasible).
//!
//! The line format is versioned and lossless: tick quantities are
//! decimal `u64`s and the `(a, b)` stability coefficients are serialized
//! as IEEE-754 bit patterns in the strict 16-digit hex codec of
//! [`crate::artifact`], so a parsed witness compares equal to the
//! generated original down to the last bit.

use crate::artifact::{hex, parse_hex, write_atomic, Lines};
use crate::benchgen::PeriodModel;
use crate::report::RESULTS_DIR;
use csa_core::{ControlTask, StabilityBound, MAX_TASKS};
use csa_rta::{Task, TaskId, Ticks};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version tag leading every witness line.
const WITNESS_TAG: &str = "csaw1";

/// The recorded pathology of a witness instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WitnessKind {
    /// Unsafe Quadratic produced an assignment that fails exact
    /// verification (Table I's event).
    UnsafeInvalid,
    /// The set contains an interference-removal anomaly under the
    /// backtracking assignment.
    InterferenceAnomaly,
    /// The set contains a priority-raise anomaly under the backtracking
    /// assignment.
    PriorityRaiseAnomaly,
    /// Strict Audsley OPA failed although backtracking succeeded.
    OpaIncomplete,
    /// A *certificate lie*: some task is stable under maximum
    /// interference yet destabilized by removing a single other task —
    /// the raw non-monotone jitter event behind the paper's Table I,
    /// independent of any assignment heuristic's trajectory.
    CertificateLie,
}

impl WitnessKind {
    /// Every kind, in canonical order.
    pub const ALL: [WitnessKind; 5] = [
        WitnessKind::UnsafeInvalid,
        WitnessKind::InterferenceAnomaly,
        WitnessKind::PriorityRaiseAnomaly,
        WitnessKind::OpaIncomplete,
        WitnessKind::CertificateLie,
    ];

    /// Stable kebab-case name used in witness lines.
    pub fn name(self) -> &'static str {
        match self {
            WitnessKind::UnsafeInvalid => "unsafe-invalid",
            WitnessKind::InterferenceAnomaly => "interference-anomaly",
            WitnessKind::PriorityRaiseAnomaly => "priority-raise-anomaly",
            WitnessKind::OpaIncomplete => "opa-incomplete",
            WitnessKind::CertificateLie => "certificate-lie",
        }
    }

    /// Parses a [`WitnessKind::name`] back into the kind.
    pub fn parse(s: &str) -> Option<WitnessKind> {
        WitnessKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl std::fmt::Display for WitnessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One serialized anomalous instance: its generator coordinates, the
/// recorded pathology, and the full task set.
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    /// The recorded pathology.
    pub kind: WitnessKind,
    /// Generator profile the instance was drawn from.
    pub profile: PeriodModel,
    /// Experiment base seed.
    pub seed: u64,
    /// Task count of the sweep row.
    pub n: usize,
    /// Instance index within the row (the RNG stream is
    /// `instance_seed(seed, n, index)`).
    pub index: usize,
    /// The complete generated task set.
    pub tasks: Vec<ControlTask>,
}

impl Witness {
    /// Serializes the witness as one line (see the module docs for the
    /// format guarantees).
    pub fn to_line(&self) -> String {
        format!(
            "{WITNESS_TAG}|{}|{}|{}|{}|{}|{}",
            self.kind,
            self.profile,
            self.seed,
            self.n,
            self.index,
            format_task_list(&self.tasks)
        )
    }

    /// Parses one witness line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field; a parse error
    /// in the committed corpus is a test failure, not a skip.
    pub fn parse(line: &str) -> Result<Witness, String> {
        let mut fields = line.split('|');
        let tag = fields.next().unwrap_or_default();
        if tag != WITNESS_TAG {
            return Err(format!("unknown witness tag {tag:?}"));
        }
        let kind_s = fields.next().ok_or("missing kind")?;
        let kind = WitnessKind::parse(kind_s).ok_or_else(|| format!("bad kind {kind_s:?}"))?;
        let profile_s = fields.next().ok_or("missing profile")?;
        let profile =
            PeriodModel::parse(profile_s).ok_or_else(|| format!("bad profile {profile_s:?}"))?;
        let seed = parse_u64(fields.next().ok_or("missing seed")?, "seed")?;
        let n = parse_u64(fields.next().ok_or("missing n")?, "n")? as usize;
        let index = parse_u64(fields.next().ok_or("missing index")?, "index")? as usize;
        let tasks_s = fields.next().ok_or("missing task list")?;
        if fields.next().is_some() {
            return Err("trailing fields after task list".to_string());
        }
        let tasks = parse_task_list(tasks_s)?;
        if tasks.len() != n {
            return Err(format!("n = {n} but {} tasks serialized", tasks.len()));
        }
        Ok(Witness {
            kind,
            profile,
            seed,
            n,
            index,
            tasks,
        })
    }
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|e| format!("bad {what} {s:?}: {e}"))
}

fn parse_f64_bits(s: &str, what: &str) -> Result<f64, String> {
    parse_hex(s)
        .map(f64::from_bits)
        .map_err(|e| format!("bad {what}: {e}"))
}

/// Serializes a task set in the witness line's task-list syntax
/// (`label:cb:cw:T:a_bits:b_bits` entries joined by `;`, floats as
/// IEEE-754 bit patterns in hex — lossless). The inverse of
/// [`parse_task_list`]; also the inline task payload of the
/// `csa-monitor` JSONL requests.
pub fn format_task_list(tasks: &[ControlTask]) -> String {
    let mut out = String::new();
    for (i, t) in tasks.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        let _ = write!(
            out,
            "{}:{}:{}:{}:{}:{}",
            t.label(),
            t.task().c_best().get(),
            t.task().c_worst().get(),
            t.task().period().get(),
            hex(t.bound().a().to_bits()),
            hex(t.bound().b().to_bits()),
        );
    }
    out
}

/// Parses a [`format_task_list`] string back into the task set (task
/// ids reassigned by position, exactly as witness parsing always has).
///
/// # Errors
///
/// Returns a description of the first malformed entry, or of a list of
/// more than [`MAX_TASKS`] tasks.
pub fn parse_task_list(s: &str) -> Result<Vec<ControlTask>, String> {
    let count = s.split(';').count();
    if count > MAX_TASKS {
        return Err(format!("{count} tasks exceed the limit of {MAX_TASKS}"));
    }
    let mut tasks = Vec::with_capacity(count);
    for (i, ts) in s.split(';').enumerate() {
        tasks.push(parse_task(ts, i)?);
    }
    Ok(tasks)
}

fn parse_task(s: &str, index: usize) -> Result<ControlTask, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let [label, cb, cw, period, a, b] = parts.as_slice() else {
        return Err(format!(
            "task {index}: expected 6 fields, got {}",
            parts.len()
        ));
    };
    let task = Task::new(
        TaskId::new(index as u32),
        Ticks::new(parse_u64(cb, "c_best")?),
        Ticks::new(parse_u64(cw, "c_worst")?),
        Ticks::new(parse_u64(period, "period")?),
    )
    .map_err(|e| format!("task {index}: {e:?}"))?;
    let bound = StabilityBound::new(parse_f64_bits(a, "a")?, parse_f64_bits(b, "b")?)
        .ok_or_else(|| format!("task {index}: invalid stability bound"))?;
    Ok(ControlTask::with_label(task, bound, *label))
}

/// Parses a whole witness corpus: one witness per line, blank lines and
/// `#` comments skipped.
///
/// # Errors
///
/// Propagates the first line's parse error, annotated with its line
/// number.
pub fn parse_witness_corpus(content: &str) -> Result<Vec<Witness>, String> {
    Lines::new(content)
        .map(|r| Witness::parse(r.text).map_err(|e| format!("line {}: {e}", r.line)))
        .collect()
}

/// Writes witnesses to `results/<file_name>`, one line each with a
/// header comment, and returns the full path.
///
/// The write is atomic ([`crate::write_atomic`]): an interrupted sweep
/// can never leave a truncated witness file that parses cleanly.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_witness_file(file_name: &str, witnesses: &[Witness]) -> std::io::Result<PathBuf> {
    let path = Path::new(RESULTS_DIR).join(file_name);
    let mut content = format!(
        "# {} witness line(s); format: {WITNESS_TAG}|kind|profile|seed|n|index|label:cb:cw:T:a_bits:b_bits;...\n",
        witnesses.len()
    );
    for w in witnesses {
        content.push_str(&w.to_line());
        content.push('\n');
    }
    write_atomic(&path, &content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchgen::{generate_benchmark, BenchmarkConfig};
    use crate::parallel::instance_seed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_witness() -> Witness {
        let profile = PeriodModel::Continuous;
        let (seed, n, index) = (2017u64, 4usize, 55usize);
        let mut rng = StdRng::seed_from_u64(instance_seed(seed, n, index));
        let tasks = generate_benchmark(&BenchmarkConfig::with_model(n, profile), &mut rng);
        Witness {
            kind: WitnessKind::UnsafeInvalid,
            profile,
            seed,
            n,
            index,
            tasks,
        }
    }

    #[test]
    fn line_roundtrip_is_lossless() {
        let w = sample_witness();
        let line = w.to_line();
        let parsed = Witness::parse(&line).expect("roundtrip parse");
        assert_eq!(parsed, w);
        // Float coefficients survive to the last bit.
        for (a, b) in parsed.tasks.iter().zip(&w.tasks) {
            assert_eq!(a.bound().a().to_bits(), b.bound().a().to_bits());
            assert_eq!(a.bound().b().to_bits(), b.bound().b().to_bits());
        }
    }

    #[test]
    fn corpus_parsing_skips_comments_and_blanks() {
        let w = sample_witness();
        let content = format!(
            "# header\n\n{}\n  \n# trailer\n{}\n",
            w.to_line(),
            w.to_line()
        );
        let parsed = parse_witness_corpus(&content).expect("corpus parse");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], w);
    }

    #[test]
    fn malformed_lines_are_rejected_with_context() {
        for (line, needle) in [
            ("nonsense", "unknown witness tag"),
            (
                "csaw1|bad-kind|continuous|1|1|0|x:1:1:4:3ff0000000000000:3ff0000000000000",
                "bad kind",
            ),
            (
                "csaw1|unsafe-invalid|bad-profile|1|1|0|x:1:1:4:3ff0000000000000:3ff0000000000000",
                "bad profile",
            ),
            (
                "csaw1|unsafe-invalid|continuous|1|2|0|x:1:1:4:3ff0000000000000:3ff0000000000000",
                "2 but 1 tasks",
            ),
            (
                "csaw1|unsafe-invalid|continuous|1|1|0|x:1:1:4:zzz:3ff0000000000000",
                "bad a",
            ),
            (
                "csaw1|unsafe-invalid|continuous|1|1|0|x:1:1:4:3ff0000000000000:3ff000",
                "bad b: expected 16 hex digits",
            ),
            (
                "csaw1|unsafe-invalid|continuous|1|1|0|x:1:1",
                "expected 6 fields",
            ),
            (
                &format!(
                    "csaw1|unsafe-invalid|continuous|1|65|0|{}",
                    ["x:1:1:4:3ff0000000000000:3ff0000000000000"; 65].join(";")
                ),
                "65 tasks exceed the limit of 64",
            ),
        ] {
            let err = Witness::parse(line).expect_err(line);
            assert!(err.contains(needle), "error {err:?} missing {needle:?}");
        }
        let err = parse_witness_corpus("# ok\nnonsense\n").expect_err("corpus");
        assert!(
            err.starts_with("line 2:"),
            "error {err:?} lacks line number"
        );
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in WitnessKind::ALL {
            assert_eq!(WitnessKind::parse(k.name()), Some(k));
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!(WitnessKind::parse("nope"), None);
    }
}
