//! The lint catalog: codes, messages, and the scope rules that decide
//! where each lint applies (DESIGN.md §13).

use std::fmt;

/// A lint code. The numeric families group by invariant: `F` float
/// safety, `D` determinism, `A` atomicity, `P` panic surface, `S` the
/// meta-lint on suppressions themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// NaN-unsafe float ordering: `partial_cmp(..).unwrap()` /
    /// `.expect(..)`, or a `sort_by`-family comparator built on
    /// `partial_cmp`. Use `f64::total_cmp`.
    F001,
    /// `std::collections::HashMap`/`HashSet` in non-test code: their
    /// iteration order is nondeterministic and has fed CSV/report
    /// paths before. Use `BTreeMap`/`BTreeSet`, a sorted collect, or
    /// justify order-independence with an allow.
    D001,
    /// Wall-clock read (`Instant::now` / `SystemTime::now`) outside
    /// the allowlisted timing-report surface.
    D002,
    /// File write bypassing `csa_experiments::artifact::write_atomic`:
    /// a crash mid-write may leave a torn artifact that parses as a
    /// truncated-but-plausible result (the PR 7 contract).
    A001,
    /// Panic surface (`unwrap` / `expect` / `panic!`) in library code,
    /// tracked by the committed baseline with ratchet semantics.
    P001,
    /// Suppression hygiene: a `csa-lint: allow(..)` comment that is
    /// malformed, names an unknown lint, lacks a reason, or no longer
    /// matches any violation on its target line.
    S001,
}

pub const ALL_LINTS: &[Lint] = &[
    Lint::F001,
    Lint::D001,
    Lint::D002,
    Lint::A001,
    Lint::P001,
    Lint::S001,
];

impl Lint {
    pub fn code(self) -> &'static str {
        match self {
            Lint::F001 => "F001",
            Lint::D001 => "D001",
            Lint::D002 => "D002",
            Lint::A001 => "A001",
            Lint::P001 => "P001",
            Lint::S001 => "S001",
        }
    }

    pub fn from_code(code: &str) -> Option<Self> {
        ALL_LINTS.iter().copied().find(|l| l.code() == code)
    }

    /// One-line summary shown by `--list` and in violation reports.
    pub fn summary(self) -> &'static str {
        match self {
            Lint::F001 => "NaN-unsafe float ordering; use f64::total_cmp",
            Lint::D001 => {
                "nondeterministic HashMap/HashSet in non-test code; use BTreeMap or justify"
            }
            Lint::D002 => "wall-clock read outside the timing-report surface",
            Lint::A001 => "file write bypassing write_atomic (crash-safety contract)",
            Lint::P001 => "panic surface in library code (baseline-ratcheted)",
            Lint::S001 => "malformed or stale csa-lint suppression",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Files (workspace-relative, `/`-separated) where wall-clock reads are
/// the *product*: the per-point timing columns of Fig. 5 and the
/// vendored Criterion shim's measurement loop. Everywhere else a
/// wall-clock read risks feeding nondeterminism into results and needs
/// an inline allow with a reason.
pub const TIMING_SURFACE: &[&str] = &[
    "crates/experiments/src/fig5.rs",
    "vendor/criterion/src/lib.rs",
];

/// How a file is classified before linting. Derived purely from its
/// workspace-relative path; `#[cfg(test)]` regions inside a file are
/// handled separately, span-accurately, by the analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Under a `tests/` or `benches/` directory: integration-test code.
    pub test_file: bool,
    /// Under `src/bin/` or a `src/main.rs`: binary entry points, where
    /// top-level `unwrap` on CLI I/O is accepted (P001 exempt).
    pub bin_file: bool,
    /// Under `vendor/`: offline API shims mimicking external crates.
    /// Only the universal NaN-safety lint (F001) and the timing lint
    /// (D002, via the allowlist) apply.
    pub vendor_file: bool,
    /// On the [`TIMING_SURFACE`] allowlist.
    pub timing_surface: bool,
    /// Lint-fixture corpus: skipped entirely by the workspace walk.
    pub fixture_file: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path (always `/`-separated).
    pub fn classify(rel_path: &str) -> Self {
        let has_component = |name: &str| rel_path.split('/').any(|c| c == name);
        FileClass {
            test_file: has_component("tests") || has_component("benches"),
            bin_file: rel_path.contains("/bin/") || rel_path.ends_with("src/main.rs"),
            vendor_file: rel_path.starts_with("vendor/"),
            timing_surface: TIMING_SURFACE.contains(&rel_path),
            fixture_file: rel_path.contains("tests/fixtures/"),
        }
    }

    /// Whether `lint` applies at all in this file, before considering
    /// `#[cfg(test)]` regions (the analyzer layers those on top).
    pub fn lint_applies(&self, lint: Lint) -> bool {
        if self.fixture_file {
            return false;
        }
        match lint {
            // NaN-unsafe ordering is the twice-refixed bug; it panics
            // in tests and corrupts order in production alike, so it
            // fires everywhere, including tests, doc examples, and
            // the vendored shims.
            Lint::F001 => true,
            Lint::D001 | Lint::A001 => !self.vendor_file && !self.test_file,
            Lint::D002 => !self.vendor_file && !self.test_file && !self.timing_surface,
            Lint::P001 => !self.vendor_file && !self.test_file && !self.bin_file,
            Lint::S001 => true,
        }
    }

    /// P001 additionally only applies to *library* code: the crates'
    /// `src/` trees and the façade `src/`.
    pub fn library_code(&self, rel_path: &str) -> bool {
        if self.test_file || self.bin_file || self.vendor_file || self.fixture_file {
            return false;
        }
        (rel_path.starts_with("crates/") && rel_path.contains("/src/"))
            || rel_path.starts_with("src/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_of_typical_paths() {
        let lib = FileClass::classify("crates/core/src/analysis.rs");
        assert!(!lib.test_file && !lib.bin_file && !lib.vendor_file);
        assert!(lib.lint_applies(Lint::P001));
        assert!(lib.library_code("crates/core/src/analysis.rs"));

        let test = FileClass::classify("crates/linalg/tests/properties.rs");
        assert!(test.test_file);
        assert!(test.lint_applies(Lint::F001));
        assert!(!test.lint_applies(Lint::P001));
        assert!(!test.lint_applies(Lint::D002));

        let bin = FileClass::classify("crates/experiments/src/bin/table1.rs");
        assert!(bin.bin_file);
        assert!(!bin.lint_applies(Lint::P001));
        assert!(bin.lint_applies(Lint::D001));

        let vendor = FileClass::classify("vendor/proptest/src/lib.rs");
        assert!(vendor.vendor_file);
        assert!(vendor.lint_applies(Lint::F001));
        assert!(!vendor.lint_applies(Lint::A001));

        let timing = FileClass::classify("crates/experiments/src/fig5.rs");
        assert!(timing.timing_surface);
        assert!(!timing.lint_applies(Lint::D002));
        assert!(timing.lint_applies(Lint::P001));

        let fixture = FileClass::classify("crates/lint/tests/fixtures/f001_bad.rs");
        assert!(fixture.fixture_file);
        assert!(!fixture.lint_applies(Lint::F001));
    }

    #[test]
    fn facade_src_is_library_code() {
        let c = FileClass::classify("src/lib.rs");
        assert!(c.library_code("src/lib.rs"));
        let m = FileClass::classify("crates/experiments/src/main.rs");
        assert!(!m.library_code("crates/experiments/src/main.rs"));
    }
}
