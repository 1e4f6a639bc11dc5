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
//! monitor [--batch N] [--threads N] [--search MODE] [--budget N]
//!         [--min-samples N] [--min-coverage N] [--z F]
//!         [--persistence N] [--cooldown N]
//!         [--snapshot-dir DIR] [--resume]
//! ```
//!
//! With `--resume`, requests the snapshot says were already processed
//! are skipped, so re-piping the same stream after a crash continues
//! the response sequence (and the final snapshot) byte-identically.

use std::io::BufRead;
use std::path::PathBuf;

use csa_experiments::artifact::{write_atomic, Stale};
use csa_experiments::{budget_flag, search_flag, threads_flag, SearchConfig};
use csa_monitor::jsonl::{event_line, parse_request, response_line};
use csa_monitor::snapshot;
use csa_monitor::{MonitorConfig, MonitorEngine};

fn flag_u64(name: &str, default: u64) -> u64 {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == name {
            return args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("monitor: {name} needs an unsigned integer");
                std::process::exit(2);
            });
        }
    }
    default
}

fn flag_f64(name: &str, default: f64) -> f64 {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == name {
            return args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("monitor: {name} needs a number");
                std::process::exit(2);
            });
        }
    }
    default
}

fn flag_path(name: &str) -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == name {
            return Some(PathBuf::from(args.next().unwrap_or_else(|| {
                eprintln!("monitor: {name} needs a path");
                std::process::exit(2);
            })));
        }
    }
    None
}

fn flag_present(name: &str) -> bool {
    std::env::args().any(|arg| arg == name)
}

fn main() {
    let defaults = MonitorConfig::default();
    let config = MonitorConfig {
        batch_window: flag_u64("--batch", defaults.batch_window as u64) as usize,
        threads: threads_flag(),
        search: SearchConfig::new(search_flag(), budget_flag()),
        min_samples: flag_u64("--min-samples", defaults.min_samples),
        min_coverage: flag_u64("--min-coverage", defaults.min_coverage as u64) as usize,
        z_threshold: flag_f64("--z", defaults.z_threshold),
        persistence: flag_u64("--persistence", defaults.persistence),
        cooldown: flag_u64("--cooldown", defaults.cooldown),
        drift_window: flag_u64("--drift-window", defaults.drift_window as u64) as usize,
        drift_threshold: flag_f64("--drift-threshold", defaults.drift_threshold),
        memo_tables: flag_u64("--memo-tables", defaults.memo_tables as u64) as usize,
    };
    let snapshot_dir = flag_path("--snapshot-dir");
    let resume = flag_present("--resume");

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
        "monitor: {} requests, {} events, {} quarantined, lifecycle {}, {} logical checks ({} computed), {} warm memo tables",
        engine.processed(),
        engine.events_emitted(),
        engine.quarantined(),
        engine.lifecycle(),
        engine.logical_checks(),
        engine.computed_checks(),
        engine.memo_tables()
    );
}
