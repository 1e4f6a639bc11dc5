//! Environment-driven fault injection for the sweep orchestrator.
//!
//! The checkpoint/resume and quarantine machinery in `csa-experiments`
//! (DESIGN.md §11) makes hard claims — a SIGKILL at any point loses at
//! most one shard, a panicking instance never aborts a sweep — that
//! unit-level mocks cannot honestly discharge: the failure has to
//! happen inside a *real* worker of a *real* subprocess. This crate is
//! the trigger. It is compiled into the experiment binaries only behind
//! the `faultinject` feature of `csa-experiments`, and it does nothing
//! at all unless the `CSA_FAULT_INJECT` environment variable is set.
//!
//! # Fault specification
//!
//! `CSA_FAULT_INJECT` holds a comma-separated list of `mode:n:index`
//! triples. When the orchestrator is about to evaluate benchmark
//! instance `index` of the `n`-task row, a matching triple fires:
//!
//! * `panic:n:index` — panics in the worker thread. The orchestrator
//!   must catch it and quarantine the instance (the sweep completes).
//! * `abort:n:index` — calls [`std::process::abort`]: an uncatchable
//!   hard crash (SIGABRT), standing in for OOM kills and power loss.
//!   The sweep dies mid-shard; only a checkpoint resume can finish it.
//!
//! The variable is read once per process and cached, so the hook costs
//! one relaxed atomic-free `OnceLock` access per instance when unset.
//!
//! # Example
//!
//! ```
//! use csa_faultinject::{FaultMode, FaultSpec};
//!
//! let specs = FaultSpec::parse_list("panic:4:7,abort:8:1000").unwrap();
//! assert_eq!(specs.len(), 2);
//! assert_eq!(specs[0], FaultSpec { mode: FaultMode::Panic, n: 4, index: 7 });
//! assert!(specs[0].matches(4, 7));
//! assert!(!specs[0].matches(4, 8));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::OnceLock;

/// Environment variable holding the fault list.
pub const FAULT_ENV: &str = "CSA_FAULT_INJECT";

/// What a matching fault does to the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic in the calling thread (catchable; exercises quarantine).
    Panic,
    /// `std::process::abort()` — a hard, uncatchable crash (exercises
    /// checkpoint resume under real process death).
    Abort,
}

impl FaultMode {
    /// Parses the mode token of a fault triple.
    pub fn parse(s: &str) -> Option<FaultMode> {
        match s {
            "panic" => Some(FaultMode::Panic),
            "abort" => Some(FaultMode::Abort),
            _ => None,
        }
    }
}

/// One injected fault: fire `mode` at instance `(n, index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What happens when the fault fires.
    pub mode: FaultMode,
    /// Task count of the sweep row the fault targets.
    pub n: usize,
    /// Instance index within the row.
    pub index: usize,
}

impl FaultSpec {
    /// Parses one `mode:n:index` triple.
    ///
    /// # Errors
    ///
    /// Describes the malformed field; the caller treats any error as a
    /// hard configuration mistake (a typo must not silently disable the
    /// fault a test depends on).
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let [mode, n, index] = parts.as_slice() else {
            return Err(format!("fault {s:?}: expected mode:n:index"));
        };
        Ok(FaultSpec {
            mode: FaultMode::parse(mode)
                .ok_or_else(|| format!("fault {s:?}: unknown mode {mode:?} (panic|abort)"))?,
            n: n.parse()
                .map_err(|e| format!("fault {s:?}: bad n {n:?}: {e}"))?,
            index: index
                .parse()
                .map_err(|e| format!("fault {s:?}: bad index {index:?}: {e}"))?,
        })
    }

    /// Parses a comma-separated fault list (empty string = no faults).
    ///
    /// # Errors
    ///
    /// Propagates the first triple's parse error.
    pub fn parse_list(s: &str) -> Result<Vec<FaultSpec>, String> {
        s.split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(FaultSpec::parse)
            .collect()
    }

    /// Does this fault target instance `(n, index)`?
    pub fn matches(&self, n: usize, index: usize) -> bool {
        self.n == n && self.index == index
    }
}

fn active_faults() -> &'static [FaultSpec] {
    static FAULTS: OnceLock<Vec<FaultSpec>> = OnceLock::new();
    FAULTS.get_or_init(|| match std::env::var(FAULT_ENV) {
        Ok(v) => match FaultSpec::parse_list(&v) {
            Ok(specs) => specs,
            // A malformed spec is a loud configuration error: the test
            // that set it is counting on the fault actually firing.
            #[expect(clippy::panic, reason = "P001: a bad fault spec must fail loudly")]
            Err(e) => panic!("{FAULT_ENV}: {e}"),
        },
        Err(_) => Vec::new(),
    })
}

/// Fault hook, called by the orchestrator immediately before evaluating
/// benchmark instance `(n, index)`. Fires the first matching fault from
/// [`FAULT_ENV`]; a no-op (one cached-slice lookup) otherwise.
pub fn maybe_fault(n: usize, index: usize) {
    for f in active_faults() {
        if f.matches(n, index) {
            match f.mode {
                #[expect(clippy::panic, reason = "P001: the injected fault is a panic")]
                FaultMode::Panic => {
                    panic!("csa-faultinject: injected panic at instance n={n} index={index}")
                }
                FaultMode::Abort => {
                    eprintln!("csa-faultinject: injected abort at instance n={n} index={index}");
                    std::process::abort();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triples_parse_and_match() {
        let f = FaultSpec::parse("panic:4:7").unwrap();
        assert_eq!(f.mode, FaultMode::Panic);
        assert!(f.matches(4, 7));
        assert!(!f.matches(8, 7));
        let f = FaultSpec::parse("abort:16:123456").unwrap();
        assert_eq!(f.mode, FaultMode::Abort);
        assert_eq!((f.n, f.index), (16, 123_456));
    }

    #[test]
    fn malformed_triples_are_rejected_with_context() {
        for (spec, needle) in [
            ("panic:4", "expected mode:n:index"),
            ("soup:4:7", "unknown mode"),
            ("panic:x:7", "bad n"),
            ("panic:4:y", "bad index"),
        ] {
            let err = FaultSpec::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "error {err:?} missing {needle:?}");
        }
    }

    #[test]
    fn lists_parse_with_blanks_skipped() {
        let specs = FaultSpec::parse_list(" panic:4:7 , abort:8:9 ,").unwrap();
        assert_eq!(specs.len(), 2);
        assert!(FaultSpec::parse_list("").unwrap().is_empty());
        assert!(FaultSpec::parse_list("panic:4:7,nope").is_err());
    }

    #[test]
    fn injected_panic_is_catchable() {
        // The quarantine path relies on the panic unwinding normally.
        let spec = FaultSpec::parse("panic:4:7").unwrap();
        let caught = std::panic::catch_unwind(|| {
            if spec.matches(4, 7) {
                panic!("csa-faultinject: injected panic at instance n=4 index=7");
            }
        });
        let payload = caught.expect_err("must panic");
        // A no-argument panic! carries &str; formatted ones carry String.
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("injected panic"), "payload {msg:?}");
    }
}
