//! Crash-safe persistence of the monitor's learned state.
//!
//! The snapshot (`csamon2`) freezes exactly the state that must survive
//! a restart for the response stream to continue bit-identically: the
//! baseline lifecycle (raw building samples or locked statistics), the
//! drift window, the per-class event machine, and the stream counters.
//! It deliberately **excludes** the assessment bank and the
//! logical/computed check telemetry — a banked assessment is a pure
//! function of its task set and the search, so the bank affects latency
//! only, and a resumed service converges to the same bytes with an
//! empty one.
//!
//! The fingerprint header pins every configuration knob that *does*
//! shape the stream (search mode, budget, `min_samples`, z,
//! persistence, cooldown) and records the code constants that shape it
//! too (the one-cell lock coverage and the drift window and threshold),
//! as `csamt1` records its grid; `memo_tables` is omitted because the
//! determinism contract makes it irrelevant. Header checks, line
//! parsing and the hex codec are the shared
//! [`csa_experiments::artifact`] layer. Writes go through
//! `write_atomic` (tmp + rename), so a kill mid-snapshot leaves either
//! the old file or the new one, never a torn state — the
//! `service_faults` suite drives this with injected crashes.
//!
//! A copy or a full disk can still cut a file anywhere, so the writer
//! ends every line with `\n` and closes the document with an
//! `end|<k>` record, `k` counting the records between the header and
//! it. A text that does not end in `\n`, lacks the `end` record, or
//! whose count disagrees is [`Stale::Malformed`]: every proper prefix
//! of a snapshot is rejected, never restored as a shorter state.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};

use csa_experiments::artifact::{self, hex, parse_hex, Header, Lines, Stale};

use crate::baseline::{Baseline, BaselineState, CellStats, Lifecycle, LockedCell};
use crate::engine::{EventState, MonitorConfig, MonitorEngine, DRIFT_THRESHOLD, DRIFT_WINDOW};
use crate::request::Metric;

/// Magic tag of the snapshot format.
pub const SNAPSHOT_TAG: &str = "csamon2";

/// File name of the snapshot inside a `--snapshot-dir`.
pub const SNAPSHOT_FILE: &str = "monitor.csamon";

/// Path of the snapshot file inside `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

fn header(config: &MonitorConfig) -> Header {
    Header::new(SNAPSHOT_TAG)
        .field("search", config.search.mode.name())
        .field("budget", config.search.budget)
        .field("min_samples", config.min_samples)
        // The baseline locks with one cell.
        .field("min_coverage", 1)
        .field("z", hex(config.z_threshold.to_bits()))
        .field("persistence", config.persistence)
        .field("cooldown", config.cooldown)
        .field("drift_window", DRIFT_WINDOW)
        .field("drift_threshold", hex(DRIFT_THRESHOLD.to_bits()))
}

/// Serializes the engine's durable state as a `csamon2` document.
pub fn snapshot_string(engine: &MonitorEngine) -> String {
    let mut out = header(&engine.config).line();
    out.push('\n');
    out.push_str(&format!(
        "m|{}|{}|{}|{}\n",
        engine.baseline.lifecycle().name(),
        engine.processed,
        engine.events_emitted,
        engine.quarantined
    ));
    match &engine.baseline.state {
        BaselineState::Building {
            cells,
            seen,
            truncated,
        } => {
            out.push_str(&format!("t|{seen}|{truncated}\n"));
            for ((n, profile), samples) in cells {
                let body = samples
                    .iter()
                    .map(|[s, ns]| format!("{}:{}", hex(s.to_bits()), hex(ns.to_bits())))
                    .collect::<Vec<_>>()
                    .join(",");
                out.push_str(&format!("b|{n}|{profile}|{body}\n"));
            }
        }
        BaselineState::Locked {
            cells,
            truncation_rate,
            samples,
        } => {
            out.push_str(&format!("T|{}|{samples}\n", hex(truncation_rate.to_bits())));
            for ((n, profile), cell) in cells {
                let s = cell.stats[Metric::Slack.index()];
                let ns = cell.stats[Metric::NormSlack.index()];
                out.push_str(&format!(
                    "L|{n}|{profile}|{}|{}|{}|{}|{}\n",
                    s.count,
                    hex(s.mean.to_bits()),
                    hex(s.std.to_bits()),
                    hex(ns.mean.to_bits()),
                    hex(ns.std.to_bits()),
                ));
            }
        }
    }
    let window: String = engine
        .window
        .iter()
        .map(|&t| if t { '1' } else { '0' })
        .collect();
    out.push_str(&format!("w|{window}\n"));
    for (class, state) in &engine.events_state {
        let last = match state.last_fired {
            Some(seq) => format!("{seq}"),
            None => "-".to_string(),
        };
        out.push_str(&format!("e|{class}|{}|{last}\n", state.streak));
    }
    let records = out.lines().count() - 1;
    out.push_str(&format!("end|{records}\n"));
    out
}

/// Atomically writes the engine's snapshot into `dir`.
pub fn save(engine: &MonitorEngine, dir: &Path) -> std::io::Result<()> {
    artifact::write_atomic(&snapshot_path(dir), &snapshot_string(engine))
}

/// Restores an engine from snapshot text, verifying the configuration
/// fingerprint field by field (first mismatch is named) and that the
/// text is whole (see the module docs).
pub fn restore(config: MonitorConfig, text: &str) -> Result<MonitorEngine, Stale> {
    if !text.ends_with('\n') {
        return Err(Stale::Malformed(
            "the last line has no newline; the snapshot was cut inside it".into(),
        ));
    }
    let mut lines = Lines::new(text);
    header(&config).check(lines.require("header")?.text)?;

    let meta = lines.record("m", 4)?;
    let name = meta.str(0)?;
    let lifecycle =
        Lifecycle::parse(name).ok_or_else(|| meta.malformed(format!("bad lifecycle {name:?}")))?;
    let mut engine = MonitorEngine::new(config);
    engine.processed = meta.num(1, "processed")?;
    engine.events_emitted = meta.num(2, "events_emitted")?;
    engine.quarantined = meta.num(3, "quarantined")?;

    let mut building_cells: BTreeMap<(usize, String), Vec<[f64; 2]>> = BTreeMap::new();
    let mut locked_cells: BTreeMap<(usize, String), LockedCell> = BTreeMap::new();
    let mut totals: Option<(u64, u64)> = None;
    let mut locked_totals: Option<(f64, u64)> = None;
    let mut window = VecDeque::new();
    let mut events_state = BTreeMap::new();

    // Records after the header, the `m` record included.
    let mut records = 1;
    loop {
        let rec = lines.require("`end` record")?;
        match (rec.tag, rec.arity()) {
            ("t", 2) => totals = Some((rec.num(0, "seen")?, rec.num(1, "truncated")?)),
            ("T", 2) => {
                locked_totals = Some((rec.f64(0, "truncation_rate")?, rec.num(1, "samples")?));
            }
            ("b", 3) => {
                let bits = |s: &str| match parse_hex(s).map(f64::from_bits) {
                    Ok(v) if v.is_finite() => Ok(v),
                    Ok(v) => Err(rec.malformed(format!("sample is {v}"))),
                    Err(e) => Err(rec.malformed(format!("bad sample: {e}"))),
                };
                let mut samples = Vec::new();
                let body = rec.str(2)?;
                if !body.is_empty() {
                    for pair in body.split(',') {
                        let (s, ns) = pair
                            .split_once(':')
                            .ok_or_else(|| rec.malformed("bad sample pair"))?;
                        samples.push([bits(s)?, bits(ns)?]);
                    }
                }
                building_cells.insert((rec.num(0, "cell n")?, rec.str(1)?.to_string()), samples);
            }
            ("L", 7) => {
                let count = rec.num(2, "cell count")?;
                let cell = LockedCell {
                    stats: [
                        CellStats {
                            count,
                            mean: rec.f64(3, "slack mean")?,
                            std: rec.f64(4, "slack std")?,
                        },
                        CellStats {
                            count,
                            mean: rec.f64(5, "norm-slack mean")?,
                            std: rec.f64(6, "norm-slack std")?,
                        },
                    ],
                };
                locked_cells.insert((rec.num(0, "cell n")?, rec.str(1)?.to_string()), cell);
            }
            ("w", 1) => {
                for c in rec.str(0)?.chars() {
                    match c {
                        '0' => window.push_back(false),
                        '1' => window.push_back(true),
                        _ => return Err(rec.malformed("bad drift-window bit")),
                    }
                }
            }
            ("e", 3) => {
                let last_fired = match rec.str(2)? {
                    "-" => None,
                    _ => Some(rec.num(2, "last_fired")?),
                };
                events_state.insert(
                    rec.str(0)?.to_string(),
                    EventState {
                        streak: rec.num(1, "streak")?,
                        last_fired,
                    },
                );
            }
            ("end", 1) => {
                let count: usize = rec.num(0, "record count")?;
                if count != records {
                    let why = format!("`end` counts {count} records, the snapshot holds {records}");
                    return Err(rec.malformed(why));
                }
                break;
            }
            (tag, arity) => {
                return Err(rec.malformed(format!("unknown {tag:?} record with {arity} fields")));
            }
        }
        records += 1;
    }
    lines.finish()?;

    let state = match lifecycle {
        Lifecycle::Building => {
            let (seen, truncated) =
                totals.ok_or_else(|| Stale::Malformed("missing 't' line".to_string()))?;
            BaselineState::Building {
                cells: building_cells,
                seen,
                truncated,
            }
        }
        Lifecycle::Locked => {
            let (truncation_rate, samples) =
                locked_totals.ok_or_else(|| Stale::Malformed("missing 'T' line".to_string()))?;
            BaselineState::Locked {
                cells: locked_cells,
                truncation_rate,
                samples,
            }
        }
    };
    engine.baseline = Baseline {
        min_samples: engine.config.min_samples,
        state,
    };
    engine.window = window;
    engine.events_state = events_state;
    Ok(engine)
}

/// Loads and restores the snapshot inside `dir`, if any.
pub fn load(config: MonitorConfig, dir: &Path) -> Result<MonitorEngine, Stale> {
    restore(config, &artifact::read(&snapshot_path(dir))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Payload, Request};
    use csa_experiments::PeriodModel;

    fn run_engine(count: usize, min_samples: u64) -> MonitorEngine {
        let mut engine = MonitorEngine::new(MonitorConfig {
            min_samples,
            ..MonitorConfig::default()
        });
        for k in 0..count {
            engine.submit(Request {
                id: k as u64 + 1,
                payload: Payload::Generated {
                    profile: PeriodModel::MarginTight,
                    seed: 7,
                    n: 4,
                    index: k,
                },
            });
        }
        engine
    }

    #[test]
    fn building_snapshot_round_trips() {
        let engine = run_engine(6, 1_000);
        assert_eq!(engine.lifecycle(), Lifecycle::Building);
        let text = snapshot_string(&engine);
        let restored = restore(engine.config().clone(), &text).unwrap();
        assert_eq!(snapshot_string(&restored), text);
        assert_eq!(restored.processed(), engine.processed());
        assert_eq!(restored.baseline(), engine.baseline());
    }

    #[test]
    fn locked_snapshot_round_trips() {
        let engine = run_engine(16, 4);
        assert_eq!(engine.lifecycle(), Lifecycle::Locked);
        let text = snapshot_string(&engine);
        let restored = restore(engine.config().clone(), &text).unwrap();
        assert_eq!(snapshot_string(&restored), text);
        assert_eq!(restored.baseline(), engine.baseline());
    }

    /// `csamon2` bytes of `run_engine(6, 1_000)` (Building) and
    /// `run_engine(16, 4)` (Locked). Round-trip tests alone cannot catch
    /// a self-consistent format change.
    const PINNED_BUILDING: &str = "\
csamon2|search=backtracking|budget=18446744073709551615|min_samples=1000|min_coverage=1|\
z=4008000000000000|persistence=2|cooldown=16|drift_window=32|drift_threshold=3fd0000000000000\n\
m|building|6|0|0\n\
t|6|0\n\
b|4|margin-tight|3f674ff4665b62e8:3fd2746c7d623ba5,3f8295c4f9492ce0:3fc0a4322880142d,\
3f527c6343ee99c0:3fa18048d8485506,3f61d21a03656424:3fb0f42fea4071d7,\
3f954078b88b0140:3fddb663213378d5,3f95220a26178e6a:3fd0c8f9a43de262\n\
w|000000\n\
end|4\n";
    const PINNED_LOCKED: &str = "\
csamon2|search=backtracking|budget=18446744073709551615|min_samples=4|min_coverage=1|\
z=4008000000000000|persistence=2|cooldown=16|drift_window=32|drift_threshold=3fd0000000000000\n\
m|locked|16|0|0\n\
T|0000000000000000|4\n\
L|4|margin-tight|4|3f6f2dd4fc3731db|3f696b23d2484266|3fc099cd539db669|3fb90edf48504351\n\
w|0000000000000000\n\
end|4\n";

    #[test]
    fn snapshot_bytes_are_pinned() {
        assert_eq!(snapshot_string(&run_engine(6, 1_000)), PINNED_BUILDING);
        assert_eq!(snapshot_string(&run_engine(16, 4)), PINNED_LOCKED);
    }

    #[test]
    fn fingerprint_mismatch_names_the_field() {
        let engine = run_engine(2, 1_000);
        let text = snapshot_string(&engine);
        let mut other = engine.config().clone();
        other.cooldown += 1;
        assert_eq!(
            restore(other, &text).err(),
            Some(Stale::Mismatch {
                field: "cooldown",
                expected: "17".to_string(),
                found: "16".to_string(),
            })
        );
        // A code constant the header records, written with another value.
        let window = text.replace("drift_window=32", "drift_window=3");
        assert!(matches!(
            restore(engine.config().clone(), &window),
            Err(Stale::Mismatch {
                field: "drift_window",
                ..
            })
        ));
        // The latency-only bank size is not fingerprinted.
        let mut latency_only = engine.config().clone();
        latency_only.memo_tables = 3;
        assert!(restore(latency_only, &text).is_ok());
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        let engine = run_engine(2, 1_000);
        let config = engine.config().clone();
        assert!(matches!(
            restore(config.clone(), ""),
            Err(Stale::Malformed(_))
        ));
        assert!(matches!(
            restore(config.clone(), "csaw1|nope\n"),
            Err(Stale::Mismatch { field: "tag", .. })
        ));
        let good = snapshot_string(&engine);
        let truncated: String = good.lines().take(1).collect();
        assert!(matches!(
            restore(config, &truncated),
            Err(Stale::Malformed(_))
        ));
    }

    /// A copy or a full disk can cut a snapshot at any byte: every proper
    /// prefix of both pinned documents is rejected, and only the whole
    /// text restores.
    #[test]
    fn every_cut_is_rejected() {
        for (text, min_samples) in [(PINNED_BUILDING, 1_000), (PINNED_LOCKED, 4)] {
            let config = MonitorConfig {
                min_samples,
                ..MonitorConfig::default()
            };
            for cut in 0..text.len() {
                let restored = restore(config.clone(), &text[..cut]);
                assert!(
                    matches!(restored, Err(Stale::Malformed(_))),
                    "cut at byte {cut}: {restored:?}"
                );
            }
            let whole = restore(config, text).expect("the whole text restores");
            assert_eq!(snapshot_string(&whole), text);
        }
    }

    #[test]
    fn a_non_finite_sample_is_rejected() {
        let config = MonitorConfig {
            min_samples: 1_000,
            ..MonitorConfig::default()
        };
        let nan = PINNED_BUILDING.replace(
            "b|4|margin-tight|3f674ff4665b62e8",
            "b|4|margin-tight|7ff8000000000000",
        );
        let why = "line 4: sample is NaN".to_string();
        assert_eq!(restore(config, &nan).err(), Some(Stale::Malformed(why)));
    }

    #[test]
    fn a_wrong_record_count_is_rejected() {
        let config = MonitorConfig {
            min_samples: 4,
            ..MonitorConfig::default()
        };
        // Without its count, a lost `w` line would restore an empty
        // drift window.
        let dropped = PINNED_LOCKED.replace("w|0000000000000000\n", "");
        let miscounted = PINNED_LOCKED.replace("end|4", "end|5");
        let trailing = format!("{PINNED_LOCKED}w|0\n");
        for text in [dropped, miscounted, trailing] {
            let restored = restore(config.clone(), &text);
            assert!(matches!(restored, Err(Stale::Malformed(_))), "{text}");
        }
    }
}
