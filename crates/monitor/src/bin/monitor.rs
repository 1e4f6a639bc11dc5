//! Stdin/stdout JSONL front-end of the monitoring service.
//!
//! Reads one request per line (see `csa_monitor::jsonl`) and answers it
//! at once: one response line, plus one line per fired anomaly event.
//! With `--snapshot-dir` it then persists a crash-safe `csamon2`
//! snapshot, so every printed response is covered by one; it writes no
//! other file, as stdout already carries every event line in order. On
//! a clean EOF it prints a summary to stderr. A stdout that can no
//! longer be written (a reader that closed early) stops it with exit 1.
//!
//! ```text
//! monitor [--search NAME] [--budget N] [--min-samples N] [--z X]
//!         [--persistence N] [--cooldown N] [--memo-tables N]
//!         [--snapshot-dir PATH] [--resume]
//! ```
//!
//! With `--resume` (which needs `--snapshot-dir`), requests the snapshot
//! says were already processed are skipped, so re-piping the same stream
//! after a crash continues the response sequence (and the final
//! snapshot) byte-identically.

use std::io::{BufRead, Write};
use std::path::PathBuf;

use csa_experiments::artifact::Stale;
use csa_experiments::cli::{Args, Flag, BUDGET, SEARCH};
use csa_monitor::jsonl::{event_line, parse_request, response_line};
use csa_monitor::snapshot;
use csa_monitor::{MonitorConfig, MonitorEngine, Response};

const MIN_SAMPLES: Flag<u64> = Flag::count("--min-samples");
const Z: Flag<f64> = Flag::real("--z");
const PERSISTENCE: Flag<u64> = Flag::count("--persistence");
const COOLDOWN: Flag<u64> = Flag::count("--cooldown");
const MEMO_TABLES: Flag<usize> = Flag::count("--memo-tables");
const SNAPSHOT_DIR: Flag<PathBuf> = Flag::path("--snapshot-dir");
const RESUME: Flag<bool> = Flag::switch("--resume", Some("--snapshot-dir"));

/// Prints `response` and its event lines to `out`.
fn emit(out: &mut impl Write, response: &Response) -> std::io::Result<()> {
    writeln!(out, "{}", response_line(response))?;
    for event in &response.events {
        writeln!(out, "{}", event_line(event))?;
    }
    Ok(())
}

fn main() {
    let args = Args::parse(
        "monitor",
        &[
            &[&SEARCH, &BUDGET, &MIN_SAMPLES, &Z],
            &[&PERSISTENCE, &COOLDOWN, &MEMO_TABLES],
            &[&SNAPSHOT_DIR, &RESUME],
        ],
    );
    let defaults = MonitorConfig::default();
    let config = MonitorConfig {
        search: args.search(),
        min_samples: args.get(&MIN_SAMPLES).unwrap_or(defaults.min_samples),
        z_threshold: args.get(&Z).unwrap_or(defaults.z_threshold),
        persistence: args.get(&PERSISTENCE).unwrap_or(defaults.persistence),
        cooldown: args.get(&COOLDOWN).unwrap_or(defaults.cooldown),
        memo_tables: args.get(&MEMO_TABLES).unwrap_or(defaults.memo_tables),
    };
    let snapshot_dir = args.get(&SNAPSHOT_DIR);
    let resume = args.get(&RESUME).is_some();

    let mut engine = match (&snapshot_dir, resume) {
        (Some(dir), true) => match snapshot::load(config.clone(), dir) {
            Ok(engine) => {
                eprintln!(
                    "monitor: resumed at {} processed requests ({})",
                    engine.processed(),
                    engine.lifecycle()
                );
                engine
            }
            Err(Stale::Missing) => MonitorEngine::new(config),
            Err(stale) => {
                eprintln!("monitor: snapshot unusable ({stale}); starting fresh");
                MonitorEngine::new(config)
            }
        },
        _ => MonitorEngine::new(config),
    };

    // With --resume the caller re-pipes the stream from the start;
    // skip what the snapshot already covers.
    let mut skip = engine.processed();
    let mut stdout = std::io::stdout().lock();

    let stdin = std::io::stdin();
    for (lineno, line) in stdin.lock().lines().enumerate() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                eprintln!("monitor: stdin read failed: {e}");
                std::process::exit(2);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err(why) => {
                eprintln!("monitor: malformed request on line {}: {why}", lineno + 1);
                std::process::exit(2);
            }
        };
        if skip > 0 {
            skip -= 1;
            continue;
        }
        // Print, then snapshot: a response that was not delivered is
        // never covered by a snapshot.
        for response in engine.submit(request) {
            if let Err(e) = emit(&mut stdout, &response) {
                eprintln!("monitor: stdout write failed: {e}");
                std::process::exit(1);
            }
        }
        if let Some(dir) = &snapshot_dir {
            if let Err(e) = snapshot::save(&engine, dir) {
                eprintln!("monitor: snapshot write failed: {e}");
                std::process::exit(1);
            }
        }
    }

    eprintln!(
        "monitor: {} requests, {} events, {} quarantined, lifecycle {}, {} logical checks ({} computed), {} banked assessments",
        engine.processed(),
        engine.events_emitted(),
        engine.quarantined(),
        engine.lifecycle(),
        engine.logical_checks(),
        engine.computed_checks(),
        engine.memo_tables()
    );
}
