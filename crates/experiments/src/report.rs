//! Small CSV/report helpers shared by the experiment binaries.

use crate::artifact::write_atomic;
use std::path::{Path, PathBuf};

/// Default output directory for experiment artifacts (CSV files),
/// relative to the working directory.
pub const RESULTS_DIR: &str = "results";

/// Writes a CSV file under [`RESULTS_DIR`], creating the directory if
/// needed. Returns the full path.
///
/// The write is atomic ([`write_atomic`]): an interrupted run can never
/// leave a half-written CSV that looks like a complete result.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csv(
    file_name: &str,
    header: &str,
    rows: impl IntoIterator<Item = String>,
) -> std::io::Result<PathBuf> {
    let path = Path::new(RESULTS_DIR).join(file_name);
    let mut content = String::with_capacity(256);
    content.push_str(header);
    content.push('\n');
    for row in rows {
        content.push_str(&row);
        content.push('\n');
    }
    write_atomic(&path, &content)?;
    Ok(path)
}

/// Parses the conventional scale flag used by all experiment binaries:
/// `--quick` selects a reduced benchmark count for smoke runs, anything
/// else (or nothing) selects the paper-scale defaults.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Parses the worker-count flag used by all experiment binaries:
/// `--threads N` (or `--threads=N`) selects `N` workers for the
/// parallel sweeps; absent or `0`, the host's available parallelism is
/// used. Results are bit-identical at every setting — the flag only
/// trades wall-clock time (see `csa_experiments::parallel_map`).
pub fn threads_flag() -> usize {
    parse_threads(std::env::args())
}

/// Parses the generator-profile flag used by the benchmark-driven
/// binaries: `--profile NAME` (or `--profile=NAME`) selects the
/// [`PeriodModel`](crate::PeriodModel) benchmarks are drawn from;
/// absent, the legacy `grid-snapped` model is used. An unknown name
/// aborts with the list of valid profiles.
pub fn profile_flag() -> crate::PeriodModel {
    match parse_profile(std::env::args()) {
        Ok(model) => model,
        Err(bad) => {
            let names: Vec<&str> = crate::PeriodModel::ALL.iter().map(|m| m.name()).collect();
            eprintln!(
                "unknown profile {bad:?}; valid profiles: {}",
                names.join(", ")
            );
            std::process::exit(2);
        }
    }
}

fn parse_profile(args: impl Iterator<Item = String>) -> Result<crate::PeriodModel, String> {
    let args: Vec<String> = args.collect();
    for (i, a) in args.iter().enumerate() {
        let value = if a == "--profile" {
            // A missing value is an error, not a silent default.
            Some(args.get(i + 1).map(String::as_str).unwrap_or(""))
        } else {
            a.strip_prefix("--profile=")
        };
        if let Some(v) = value {
            return crate::PeriodModel::parse(v).ok_or_else(|| v.to_string());
        }
    }
    Ok(crate::PeriodModel::default())
}

/// Parses the optional task-count override used by the benchmark-driven
/// binaries: `--n LIST` (or `--n=LIST`) with a comma-separated list of
/// task counts (e.g. `--n 4` or `--n 4,8,12`) replaces the
/// configuration's default sweep. Absent, returns `None`. Useful to
/// bound paper-scale sweeps on the continuous-family profiles, whose
/// backtracking tail grows steeply with `n` (see EXPERIMENTS.md).
pub fn task_counts_flag() -> Option<Vec<usize>> {
    match parse_task_counts(std::env::args()) {
        Ok(counts) => counts,
        Err(bad) => {
            eprintln!("bad --n value {bad:?}; expected a comma-separated list like 4,8,12");
            std::process::exit(2);
        }
    }
}

#[allow(clippy::type_complexity)]
fn parse_task_counts(args: impl Iterator<Item = String>) -> Result<Option<Vec<usize>>, String> {
    let args: Vec<String> = args.collect();
    for (i, a) in args.iter().enumerate() {
        let value = if a == "--n" {
            Some(args.get(i + 1).map(String::as_str).unwrap_or(""))
        } else {
            a.strip_prefix("--n=")
        };
        if let Some(v) = value {
            let counts: Result<Vec<usize>, _> =
                v.split(',').map(|p| p.trim().parse::<usize>()).collect();
            return match counts {
                Ok(c) if !c.is_empty() && c.iter().all(|&n| n > 0) => Ok(Some(c)),
                _ => Err(v.to_string()),
            };
        }
    }
    Ok(None)
}

/// Parses the assignment-search flag used by the benchmark-driven
/// binaries: `--search NAME` (or `--search=NAME`) selects the
/// [`SearchMode`](crate::SearchMode) the sweep's feasibility verdicts
/// come from; absent, the historical unbudgeted `backtracking` is used.
/// An unknown name aborts with the list of valid modes.
pub fn search_flag() -> crate::SearchMode {
    match parse_search(std::env::args()) {
        Ok(mode) => mode,
        Err(bad) => {
            let names: Vec<&str> = crate::SearchMode::ALL.iter().map(|m| m.name()).collect();
            eprintln!(
                "unknown search {bad:?}; valid searches: {}",
                names.join(", ")
            );
            std::process::exit(2);
        }
    }
}

fn parse_search(args: impl Iterator<Item = String>) -> Result<crate::SearchMode, String> {
    let args: Vec<String> = args.collect();
    for (i, a) in args.iter().enumerate() {
        let value = if a == "--search" {
            // A missing value is an error, not a silent default.
            Some(args.get(i + 1).map(String::as_str).unwrap_or(""))
        } else {
            a.strip_prefix("--search=")
        };
        if let Some(v) = value {
            return crate::SearchMode::parse(v).ok_or_else(|| v.to_string());
        }
    }
    Ok(crate::SearchMode::default())
}

/// Parses the check-budget flag used by the benchmark-driven binaries:
/// `--budget N` (or `--budget=N`) caps the logical exact stability
/// checks each instance's search may spend (see
/// [`SearchConfig`](crate::SearchConfig)); absent, the search is
/// unbounded. `0` or a non-number aborts — a zero budget could decide
/// nothing and would silently report every instance truncated.
pub fn budget_flag() -> u64 {
    match parse_budget(std::env::args()) {
        Ok(budget) => budget,
        Err(bad) => {
            eprintln!("bad --budget value {bad:?}; expected a positive integer");
            std::process::exit(2);
        }
    }
}

fn parse_budget(args: impl Iterator<Item = String>) -> Result<u64, String> {
    let args: Vec<String> = args.collect();
    for (i, a) in args.iter().enumerate() {
        let value = if a == "--budget" {
            Some(args.get(i + 1).map(String::as_str).unwrap_or(""))
        } else {
            a.strip_prefix("--budget=")
        };
        if let Some(v) = value {
            return match v.parse::<u64>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(v.to_string()),
            };
        }
    }
    Ok(u64::MAX)
}

/// Parses the checkpoint flags used by the resumable sweeps (`table1`,
/// `census`): `--checkpoint-dir PATH` selects the journal directory,
/// `--resume` replays a compatible journal found there (skipping
/// completed shards), `--shard-size N` overrides the instances-per-shard
/// granularity, `--instance-timeout MS` quarantines instances whose
/// evaluation exceeded the limit, and `--reservoir N` caps the witness
/// sample kept per shard. Returns the assembled
/// [`OrchestratorConfig`](crate::OrchestratorConfig); aborts on
/// malformed values or on `--resume` without `--checkpoint-dir` (a
/// resume with nowhere to resume from would silently recompute).
pub fn orchestrator_flags() -> crate::OrchestratorConfig {
    match parse_orchestrator(std::env::args()) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

fn parse_orchestrator(
    args: impl Iterator<Item = String>,
) -> Result<crate::OrchestratorConfig, String> {
    let args: Vec<String> = args.collect();
    let value_of = |flag: &str| -> Option<&str> {
        let eq = format!("{flag}=");
        for (i, a) in args.iter().enumerate() {
            if a == flag {
                // A missing value reads as empty and fails the parse.
                return Some(args.get(i + 1).map(String::as_str).unwrap_or(""));
            }
            if let Some(v) = a.strip_prefix(&eq) {
                return Some(v);
            }
        }
        None
    };
    let mut cfg = crate::OrchestratorConfig::in_memory();
    cfg.checkpoint_dir = value_of("--checkpoint-dir")
        .map(|v| {
            if v.is_empty() {
                Err("bad --checkpoint-dir value: expected a directory path".to_string())
            } else {
                Ok(PathBuf::from(v))
            }
        })
        .transpose()?;
    cfg.resume = args.iter().any(|a| a == "--resume");
    if cfg.resume && cfg.checkpoint_dir.is_none() {
        return Err("--resume requires --checkpoint-dir".to_string());
    }
    if let Some(v) = value_of("--shard-size") {
        cfg.shard_size = match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                return Err(format!(
                    "bad --shard-size value {v:?}; expected a positive integer"
                ))
            }
        };
    }
    if let Some(v) = value_of("--instance-timeout") {
        cfg.instance_timeout_ms = match v.parse::<u64>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                return Err(format!(
                    "bad --instance-timeout value {v:?}; expected a positive integer (milliseconds)"
                ))
            }
        };
    }
    if let Some(v) = value_of("--reservoir") {
        cfg.reservoir = match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Err(format!(
                    "bad --reservoir value {v:?}; expected a witness count (0 keeps none)"
                ))
            }
        };
    }
    Ok(cfg)
}

/// Builds the CSV file name for a benchmark-driven sweep: the base name,
/// a `_{profile}` suffix off the legacy grid-snapped default, and a
/// `_{search}[_budgetN]` suffix off the default unbudgeted
/// backtracking — so runs under different configurations never
/// overwrite each other's results.
pub fn csv_file_name(
    base: &str,
    profile: crate::PeriodModel,
    search: &crate::SearchConfig,
) -> String {
    let mut name = base.to_string();
    if profile != crate::PeriodModel::GridSnapped {
        name.push('_');
        name.push_str(profile.name());
    }
    if search.mode != crate::SearchMode::Backtracking || search.is_budgeted() {
        name.push('_');
        name.push_str(search.mode.name());
        if search.is_budgeted() {
            name.push_str(&format!("_budget{}", search.budget));
        }
    }
    name.push_str(".csv");
    name
}

fn parse_threads(args: impl Iterator<Item = String>) -> usize {
    let args: Vec<String> = args.collect();
    for (i, a) in args.iter().enumerate() {
        let value = if a == "--threads" {
            args.get(i + 1).map(String::as_str)
        } else {
            a.strip_prefix("--threads=")
        };
        if let Some(v) = value {
            match v.parse::<usize>() {
                Ok(0) | Err(_) => break,
                Ok(n) => return n,
            }
        }
    }
    crate::parallel::available_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_counts_flag_parsing() {
        let parse = |args: &[&str]| parse_task_counts(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["bin"]), Ok(None));
        assert_eq!(parse(&["bin", "--n", "4"]), Ok(Some(vec![4])));
        assert_eq!(parse(&["bin", "--n=4,8,12"]), Ok(Some(vec![4, 8, 12])));
        assert_eq!(parse(&["bin", "--n", "4, 8"]), Ok(Some(vec![4, 8])));
        assert!(parse(&["bin", "--n", "soup"]).is_err());
        assert!(parse(&["bin", "--n", "0"]).is_err());
        assert!(parse(&["bin", "--n"]).is_err());
    }

    #[test]
    fn profile_flag_parsing() {
        use crate::PeriodModel;
        let parse = |args: &[&str]| parse_profile(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["bin"]), Ok(PeriodModel::GridSnapped));
        assert_eq!(
            parse(&["bin", "--profile", "continuous"]),
            Ok(PeriodModel::Continuous)
        );
        assert_eq!(
            parse(&["bin", "--profile=margin-tight", "--quick"]),
            Ok(PeriodModel::MarginTight)
        );
        assert_eq!(
            parse(&["bin", "--quick", "--profile", "harmonic-stress"]),
            Ok(PeriodModel::HarmonicStress)
        );
        assert_eq!(
            parse(&["bin", "--profile", "soup"]),
            Err("soup".to_string())
        );
        // Missing value reads as an empty profile name, not a default.
        assert!(parse(&["bin", "--profile"]).is_err());
    }

    #[test]
    fn search_flag_parsing() {
        use crate::SearchMode;
        let parse = |args: &[&str]| parse_search(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["bin"]), Ok(SearchMode::Backtracking));
        assert_eq!(
            parse(&["bin", "--search", "portfolio"]),
            Ok(SearchMode::Portfolio)
        );
        assert_eq!(
            parse(&["bin", "--search=opa", "--quick"]),
            Ok(SearchMode::Opa)
        );
        assert_eq!(
            parse(&["bin", "--quick", "--search", "backtracking"]),
            Ok(SearchMode::Backtracking)
        );
        assert_eq!(parse(&["bin", "--search", "soup"]), Err("soup".to_string()));
        // Missing value reads as an empty mode name, not a default.
        assert!(parse(&["bin", "--search"]).is_err());
    }

    #[test]
    fn budget_flag_parsing() {
        let parse = |args: &[&str]| parse_budget(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["bin"]), Ok(u64::MAX));
        assert_eq!(parse(&["bin", "--budget", "50000"]), Ok(50_000));
        assert_eq!(parse(&["bin", "--budget=123", "--quick"]), Ok(123));
        assert_eq!(parse(&["bin", "--budget", "0"]), Err("0".to_string()));
        assert_eq!(parse(&["bin", "--budget", "soup"]), Err("soup".to_string()));
        assert!(parse(&["bin", "--budget"]).is_err());
    }

    #[test]
    fn csv_names_encode_profile_and_search() {
        use crate::{PeriodModel, SearchConfig, SearchMode};
        let default = SearchConfig::default();
        assert_eq!(
            csv_file_name("fig5", PeriodModel::GridSnapped, &default),
            "fig5.csv"
        );
        assert_eq!(
            csv_file_name("fig5", PeriodModel::Continuous, &default),
            "fig5_continuous.csv"
        );
        assert_eq!(
            csv_file_name(
                "fig5",
                PeriodModel::Continuous,
                &SearchConfig::new(SearchMode::Portfolio, 50_000)
            ),
            "fig5_continuous_portfolio_budget50000.csv"
        );
        assert_eq!(
            csv_file_name(
                "table1",
                PeriodModel::GridSnapped,
                &SearchConfig::new(SearchMode::Opa, u64::MAX)
            ),
            "table1_opa.csv"
        );
        assert_eq!(
            csv_file_name(
                "census",
                PeriodModel::GridSnapped,
                &SearchConfig::new(SearchMode::Backtracking, 1_000)
            ),
            "census_backtracking_budget1000.csv"
        );
    }

    #[test]
    fn threads_flag_parsing() {
        let parse = |args: &[&str]| parse_threads(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["bin", "--threads", "3"]), 3);
        assert_eq!(parse(&["bin", "--threads=7", "--quick"]), 7);
        let default = crate::parallel::available_threads();
        assert_eq!(parse(&["bin"]), default);
        assert_eq!(parse(&["bin", "--threads", "0"]), default);
        assert_eq!(parse(&["bin", "--threads", "soup"]), default);
        assert_eq!(parse(&["bin", "--threads"]), default);
    }

    #[test]
    fn orchestrator_flag_parsing() {
        let parse = |args: &[&str]| parse_orchestrator(args.iter().map(|s| s.to_string()));
        let default = parse(&["bin"]).unwrap();
        assert_eq!(default, crate::OrchestratorConfig::in_memory());
        let full = parse(&[
            "bin",
            "--checkpoint-dir",
            "ckpt",
            "--resume",
            "--shard-size=64",
            "--instance-timeout",
            "500",
            "--reservoir=16",
        ])
        .unwrap();
        assert_eq!(full.checkpoint_dir.as_deref(), Some(Path::new("ckpt")));
        assert!(full.resume);
        assert_eq!(full.shard_size, 64);
        assert_eq!(full.instance_timeout_ms, Some(500));
        assert_eq!(full.reservoir, 16);
        // A zero-capacity reservoir is allowed (keep no witnesses).
        assert_eq!(parse(&["bin", "--reservoir", "0"]).unwrap().reservoir, 0);
        for bad in [
            &["bin", "--resume"][..],
            &["bin", "--checkpoint-dir"][..],
            &["bin", "--shard-size", "0"][..],
            &["bin", "--shard-size", "soup"][..],
            &["bin", "--instance-timeout", "0"][..],
            &["bin", "--reservoir", "soup"][..],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn csv_roundtrip() {
        let path = write_csv(
            "test_report_roundtrip.csv",
            "x,y",
            ["1,2".to_string(), "3,4".to_string()],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x,y\n1,2\n3,4\n");
        std::fs::remove_file(path).unwrap();
    }
}
