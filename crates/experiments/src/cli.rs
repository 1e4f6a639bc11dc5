//! The one command-line parser of the experiment and monitor binaries.
//!
//! A binary lists the flags it accepts, from the shared [`SCALE`],
//! [`SWEEP`] and [`ORCHESTRATION`] groups and [`Flag`]s of its own, and
//! calls [`Args::parse`] before any work. Every flag takes `--flag
//! VALUE` or `--flag=VALUE`; in the space form an argument starting
//! with `--` is the next flag, never a value. An unknown or non-UTF-8
//! argument, a repeated flag, a missing value, a value given to a
//! switch, a value the flag's reader refuses, or a switch without its
//! partner prints `<bin>: <reason>` and a usage line built from the
//! same list to stderr and exits with status 2. [`Args::get`] reads a
//! `Flag<T>` as `T` with the reader that checked it, so no binary can
//! read a value as another type than the one the parser accepted.

use crate::{available_threads, OrchestratorConfig, PeriodModel, SearchConfig, SearchMode};
use std::ffi::OsString;
use std::path::PathBuf;

/// A flag a binary accepts: its name, the usage placeholder of its
/// value (empty for a switch), the flag a switch needs alongside it,
/// and the reader that reads a value as `T` or says what a valid one
/// looks like.
#[derive(Debug)]
pub struct Flag<T> {
    name: &'static str,
    metavar: &'static str,
    partner: Option<&'static str>,
    read: Reader<T>,
}

type Reader<T> = fn(&str) -> Result<T, String>;

/// A [`Flag`] of any value type, as the parser sees it.
pub trait Declared {
    /// The flag's name, usage placeholder and partner.
    fn spec(&self) -> (&'static str, &'static str, Option<&'static str>);
    /// Checks `value` with the flag's reader; `Err` says what a valid
    /// one looks like.
    fn check(&self, value: &str) -> Result<(), String>;
}

impl<T> Declared for Flag<T> {
    fn spec(&self) -> (&'static str, &'static str, Option<&'static str>) {
        (self.name, self.metavar, self.partner)
    }
    fn check(&self, value: &str) -> Result<(), String> {
        (self.read)(value).map(drop)
    }
}

impl<T> Flag<T> {
    const fn new(name: &'static str, metavar: &'static str, read: Reader<T>) -> Flag<T> {
        Flag {
            name,
            metavar,
            partner: None,
            read,
        }
    }
}

impl Flag<bool> {
    /// A switch; with a `partner` it is valid only when that flag is
    /// given too.
    pub const fn switch(name: &'static str, partner: Option<&'static str>) -> Flag<bool> {
        let switch = Flag::new(name, "", |_| Ok(true));
        Flag { partner, ..switch }
    }
}

impl<T: TryFrom<u64>> Flag<T> {
    /// An unsigned integer that fits in `T`.
    pub const fn count(name: &'static str) -> Flag<T> {
        Flag::new(name, "N", |v| {
            let n = v.parse::<u64>().ok().and_then(|n| T::try_from(n).ok());
            n.ok_or_else(|| "an unsigned integer".into())
        })
    }

    /// A positive integer that fits in `T`.
    pub const fn positive(name: &'static str) -> Flag<T> {
        Flag::new(name, "N", |v| {
            let n = v.parse::<u64>().ok().filter(|&n| n > 0);
            n.and_then(|n| T::try_from(n).ok())
                .ok_or_else(|| "a positive integer".into())
        })
    }
}

impl Flag<f64> {
    /// A finite number `>= 0`.
    pub const fn real(name: &'static str) -> Flag<f64> {
        Flag::new(name, "X", |v| {
            let x = v.parse().ok().filter(|x: &f64| x.is_finite() && *x >= 0.0);
            x.ok_or_else(|| "a finite number >= 0".into())
        })
    }
}

impl Flag<PathBuf> {
    /// A non-empty path.
    pub const fn path(name: &'static str) -> Flag<PathBuf> {
        Flag::new(name, "PATH", |v| {
            (!v.is_empty())
                .then(|| v.into())
                .ok_or_else(|| "a path".into())
        })
    }
}

fn one_of(names: &[&str]) -> String {
    format!("one of {}", names.join(", "))
}

/// `--quick`: the reduced smoke-run scale.
pub const QUICK: Flag<bool> = Flag::switch("--quick", None);
/// `--threads N`: the worker count; see [`Args::threads`].
pub const THREADS: Flag<usize> = Flag::count("--threads");
/// `--profile NAME`: the benchmark [`PeriodModel`].
pub const PROFILE: Flag<PeriodModel> = Flag::new("--profile", "NAME", |v| {
    PeriodModel::parse(v).ok_or_else(|| one_of(&PeriodModel::ALL.map(PeriodModel::name)))
});
/// `--n LIST`: the task-count sweep, e.g. `4,8,12`.
pub const TASK_COUNTS: Flag<Vec<usize>> = Flag::new("--n", "LIST", |v| {
    let counts: Option<Vec<usize>> = v.split(',').map(|n| n.trim().parse().ok()).collect();
    let counts = counts.filter(|c| c.iter().all(|&n| n > 0));
    counts.ok_or_else(|| "positive counts like 4,8,12".into())
});
/// `--search NAME`: the assignment [`SearchMode`].
pub const SEARCH: Flag<SearchMode> = Flag::new("--search", "NAME", |v| {
    SearchMode::parse(v).ok_or_else(|| one_of(&SearchMode::ALL.map(SearchMode::name)))
});
/// `--budget N`: the per-instance logical-check budget.
pub const BUDGET: Flag<u64> = Flag::positive("--budget");
const CHECKPOINT_DIR: Flag<PathBuf> = Flag::path("--checkpoint-dir");
const RESUME: Flag<bool> = Flag::switch("--resume", Some("--checkpoint-dir"));
const SHARD_SIZE: Flag<usize> = Flag::positive("--shard-size");
const TIMEOUT: Flag<u64> = Flag::positive("--instance-timeout");
const RESERVOIR: Flag<usize> = Flag::count("--reservoir");

/// A list of flags; a binary accepts those of the groups it passes to
/// [`Args::parse`].
pub type Group = &'static [&'static dyn Declared];
/// [`QUICK`] and [`THREADS`].
pub const SCALE: Group = &[&QUICK, &THREADS];
/// [`PROFILE`], [`TASK_COUNTS`], [`SEARCH`] and [`BUDGET`].
pub const SWEEP: Group = &[&PROFILE, &TASK_COUNTS, &SEARCH, &BUDGET];
/// `--checkpoint-dir PATH`, `--resume` (needs `--checkpoint-dir`),
/// `--shard-size N`, `--instance-timeout MS` and `--reservoir N`; see
/// [`Args::orchestrator`].
pub const ORCHESTRATION: Group = &[&CHECKPOINT_DIR, &RESUME, &SHARD_SIZE, &TIMEOUT, &RESERVOIR];

/// One binary's command line, checked against its flag list.
#[derive(Debug)]
pub struct Args {
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Parses the process arguments against `flags`, or exits with
    /// status 2 after printing `<bin>: <reason>` and the usage line.
    pub fn parse(bin: &str, flags: &[Group]) -> Args {
        let argv = std::env::args_os().skip(1).map(OsString::into_string);
        let argv = argv.collect::<Result<Vec<_>, _>>();
        let argv = argv.map_err(|a| format!("argument {a:?} is not valid UTF-8"));
        argv.and_then(|argv| Args::parse_from(flags, argv))
            .unwrap_or_else(|reason| {
                let mut usage = format!("usage: {bin}");
                for (name, metavar, _) in flags.iter().flat_map(|g| g.iter()).map(|f| f.spec()) {
                    usage += &format!(" [{}]", format!("{name} {metavar}").trim_end());
                }
                eprintln!("{bin}: {reason}\n{usage}");
                std::process::exit(2)
            })
    }

    /// Parses `argv`, the arguments after the program name, or says
    /// why the first rejected argument is rejected.
    fn parse_from(flags: &[Group], argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let declared = || flags.iter().flat_map(|g| g.iter()).map(|f| (f.spec(), f));
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut argv = argv.into_iter().peekable();
        while let Some(arg) = argv.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let Some(((name, metavar, _), flag)) = declared().find(|((n, ..), _)| *n == name)
            else {
                return Err(format!("unknown argument {arg:?}"));
            };
            if given.iter().any(|(seen, _)| *seen == name) {
                return Err(format!("{name} given twice"));
            }
            let value = match (metavar, inline) {
                ("", Some(_)) => return Err(format!("{name} takes no value")),
                ("", None) => String::new(),
                (_, inline) => inline
                    .or_else(|| argv.next_if(|v| !v.starts_with("--")))
                    .ok_or_else(|| format!("{name} needs a value"))?,
            };
            if let Err(expected) = flag.check(&value) {
                return Err(format!("bad {name} value {value:?}; expected {expected}"));
            }
            given.push((name, value));
        }
        let has = |name: &str| given.iter().any(|(seen, _)| *seen == name);
        for ((name, _, partner), _) in declared() {
            if let Some(partner) = partner.filter(|&p| has(name) && !has(p)) {
                return Err(format!("{name} requires {partner}"));
            }
        }
        Ok(Args { given })
    }

    /// The value of `flag`, or `None` when it was not given.
    pub fn get<T>(&self, flag: &Flag<T>) -> Option<T> {
        let (_, value) = self.given.iter().find(|(name, _)| *name == flag.name)?;
        (flag.read)(value).ok()
    }

    /// `--threads N`; `0` or absent is the host's available
    /// parallelism.
    pub fn threads(&self) -> usize {
        self.get(&THREADS)
            .filter(|&n| n > 0)
            .unwrap_or_else(available_threads)
    }

    /// `--search NAME` and `--budget N`; absent is unbudgeted
    /// backtracking.
    pub fn search(&self) -> SearchConfig {
        let budget = self.get(&BUDGET).unwrap_or(u64::MAX);
        SearchConfig::new(self.get(&SEARCH).unwrap_or_default(), budget)
    }

    /// The [`ORCHESTRATION`] flags; absent is
    /// [`OrchestratorConfig::in_memory`].
    pub fn orchestrator(&self) -> OrchestratorConfig {
        let default = OrchestratorConfig::in_memory();
        OrchestratorConfig {
            checkpoint_dir: self.get(&CHECKPOINT_DIR),
            resume: self.get(&RESUME).is_some(),
            shard_size: self.get(&SHARD_SIZE).unwrap_or(default.shard_size),
            reservoir: self.get(&RESERVOIR).unwrap_or(default.reservoir),
            instance_timeout_ms: self.get(&TIMEOUT),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every case the per-flag parsers pinned, plus the shape errors;
    /// `--threads soup` and a trailing `--threads` (read as the default
    /// before) are rejected now. A row is `argv => error <reason prefix>`
    /// or `argv => <field> <value>;` (`auto` = available parallelism).
    #[test]
    fn command_lines_read_or_reject_as_pinned() {
        for case in [
            "--threads 3 => threads 3;",
            "--threads=7 --quick => threads 7;",
            "=> threads auto; n None; profile grid-snapped; search backtracking; budget max;",
            "=> orch (None, false, 1024, max) None;",
            "--threads 0 => threads auto;",
            "--threads soup => error bad --threads value \"soup\"; expected an unsigned",
            "--threads => error --threads needs a value",
            "--n 4 => n Some([4]);",
            "--n=4,8,12 => n Some([4, 8, 12]);",
            "--n soup => error bad --n value \"soup\"",
            "--n 0 => error bad --n value \"0\"",
            "--n => error --n needs a value",
            "--profile continuous => profile continuous;",
            "--profile=margin-tight --quick => profile margin-tight;",
            "--quick --profile harmonic-stress => profile harmonic-stress;",
            "--profile soup => error bad --profile value \"soup\"; expected one of grid-",
            "--profile => error --profile needs a value",
            "--search portfolio => search portfolio;",
            "--search=opa --quick => search opa;",
            "--quick --search backtracking => search backtracking;",
            "--search soup => error bad --search value \"soup\"; expected one of backtr",
            "--search => error --search needs a value",
            "--budget 50000 => budget 50000;",
            "--budget=123 --quick => budget 123;",
            "--budget 0 => error bad --budget value \"0\"; expected a positive integer",
            "--budget soup => error bad --budget value \"soup\"",
            "--budget => error --budget needs a value",
            "--reservoir 0 => orch (None, false, 1024, 0) None;",
            "--checkpoint-dir=c --resume --shard-size 9 => orch (Some(\"c\"), true, 9, max) None;",
            "--instance-timeout 500 --reservoir=16 => orch (None, false, 1024, 16) Some(500);",
            "--resume => error --resume requires --checkpoint-dir",
            "--checkpoint-dir => error --checkpoint-dir needs a value",
            "--checkpoint-dir --resume => error --checkpoint-dir needs a value",
            "--shard-size 0 => error bad --shard-size value \"0\"",
            "--shard-size soup => error bad --shard-size value \"soup\"",
            "--instance-timeout 0 => error bad --instance-timeout value \"0\"",
            "--reservoir soup => error bad --reservoir value \"soup\"",
            "--thread 4 => error unknown argument \"--thread\"",
            "--threads 2 --threads=4 => error --threads given twice",
            "--quick=1 => error --quick takes no value",
            "--quick stray => error unknown argument \"stray\"",
        ] {
            let (argv, want) = case.split_once("=> ").unwrap();
            let argv = argv.split(' ').filter(|a| !a.is_empty()).map(String::from);
            let got = match Args::parse_from(&[SCALE, SWEEP, ORCHESTRATION], argv) {
                Err(reason) => format!("error {reason}"),
                Ok(a) => {
                    let (s, o) = (a.search(), a.orchestrator());
                    let (n, p) = (a.get(&TASK_COUNTS), a.get(&PROFILE).unwrap_or_default());
                    let t = o.instance_timeout_ms;
                    let o = (o.checkpoint_dir, o.resume, o.shard_size, o.reservoir);
                    let (threads, mode, budget) = (a.threads(), s.mode, s.budget);
                    let sweep = format!("n {n:?}; profile {p}; search {mode}; budget {budget};");
                    format!("threads {threads}; {sweep} orch {o:?} {t:?};")
                }
            };
            let want = want.replace("auto", &available_threads().to_string());
            let want = want.replace("max", &u64::MAX.to_string());
            let found = got.starts_with(&want) || got.contains(&format!(" {want}"));
            assert!(found, "{want:?}: {got:?}");
        }
        let spaced = Args::parse_from(&[SWEEP], ["--n".into(), "4, 8".into()]);
        assert_eq!(spaced.unwrap().get(&TASK_COUNTS), Some(vec![4, 8]));
    }
}
