//! Stdin/stdout JSONL front-end of the monitoring service.
//!
//! Reads one request per line (see `csa_monitor::jsonl`), prints one
//! response line per request plus one line per fired anomaly event,
//! and optionally persists a crash-safe `csamon1` snapshot after every
//! batch. On a clean EOF it flushes the last partial batch, writes the
//! accumulated event log to `results/monitor_events.jsonl`, and prints
//! a summary to stderr.
//!
//! ```text
//! monitor [--threads N] [--search NAME] [--budget N] [--batch N]
//!         [--min-samples N] [--min-coverage N] [--z X] [--persistence N]
//!         [--cooldown N] [--drift-window N] [--drift-threshold X]
//!         [--memo-tables N] [--snapshot-dir PATH] [--resume]
//! ```
//!
//! With `--resume` (which needs `--snapshot-dir`), requests the snapshot
//! says were already processed are skipped, so re-piping the same stream
//! after a crash continues the response sequence (and the final
//! snapshot) byte-identically.

use std::io::BufRead;
use std::path::PathBuf;

use csa_experiments::artifact::{write_atomic, Stale};
use csa_experiments::cli::{Args, Flag, BUDGET, SEARCH, THREADS};
use csa_monitor::jsonl::{event_line, parse_request, response_line};
use csa_monitor::snapshot;
use csa_monitor::{MonitorConfig, MonitorEngine};

const BATCH: Flag<usize> = Flag::count("--batch");
const MIN_SAMPLES: Flag<u64> = Flag::count("--min-samples");
const MIN_COVERAGE: Flag<usize> = Flag::count("--min-coverage");
const Z: Flag<f64> = Flag::real("--z");
const PERSISTENCE: Flag<u64> = Flag::count("--persistence");
const COOLDOWN: Flag<u64> = Flag::count("--cooldown");
const DRIFT_WINDOW: Flag<usize> = Flag::count("--drift-window");
const DRIFT_THRESHOLD: Flag<f64> = Flag::real("--drift-threshold");
const MEMO_TABLES: Flag<usize> = Flag::count("--memo-tables");
const SNAPSHOT_DIR: Flag<PathBuf> = Flag::path("--snapshot-dir");
const RESUME: Flag<bool> = Flag::switch("--resume", Some("--snapshot-dir"));

fn main() {
    let args = Args::parse(
        "monitor",
        &[
            &[&THREADS, &SEARCH, &BUDGET, &BATCH, &MIN_SAMPLES],
            &[&MIN_COVERAGE, &Z, &PERSISTENCE, &COOLDOWN],
            &[&DRIFT_WINDOW, &DRIFT_THRESHOLD, &MEMO_TABLES],
            &[&SNAPSHOT_DIR, &RESUME],
        ],
    );
    let defaults = MonitorConfig::default();
    let config = MonitorConfig {
        batch_window: args.get(&BATCH).unwrap_or(defaults.batch_window),
        threads: args.threads(),
        search: args.search(),
        min_samples: args.get(&MIN_SAMPLES).unwrap_or(defaults.min_samples),
        min_coverage: args.get(&MIN_COVERAGE).unwrap_or(defaults.min_coverage),
        z_threshold: args.get(&Z).unwrap_or(defaults.z_threshold),
        persistence: args.get(&PERSISTENCE).unwrap_or(defaults.persistence),
        cooldown: args.get(&COOLDOWN).unwrap_or(defaults.cooldown),
        drift_window: args.get(&DRIFT_WINDOW).unwrap_or(defaults.drift_window),
        drift_threshold: args
            .get(&DRIFT_THRESHOLD)
            .unwrap_or(defaults.drift_threshold),
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
    let mut event_log: Vec<String> = Vec::new();
    let emit = |responses: &[csa_monitor::Response], log: &mut Vec<String>| {
        for response in responses {
            println!("{}", response_line(response));
            for event in &response.events {
                let line = event_line(event);
                println!("{line}");
                log.push(line);
            }
        }
    };

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
        let responses = engine.submit(request);
        if !responses.is_empty() {
            emit(&responses, &mut event_log);
            if let Some(dir) = &snapshot_dir {
                if let Err(e) = snapshot::save(&engine, dir) {
                    eprintln!("monitor: snapshot write failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    let responses = engine.flush();
    emit(&responses, &mut event_log);
    if let Some(dir) = &snapshot_dir {
        if let Err(e) = snapshot::save(&engine, dir) {
            eprintln!("monitor: snapshot write failed: {e}");
            std::process::exit(1);
        }
    }

    let log_path = PathBuf::from(csa_experiments::RESULTS_DIR).join("monitor_events.jsonl");
    let mut log_text = event_log.join("\n");
    if !log_text.is_empty() {
        log_text.push('\n');
    }
    if let Err(e) = write_atomic(&log_path, &log_text) {
        eprintln!("monitor: could not write {}: {e}", log_path.display());
        std::process::exit(1);
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
