//! The fixture corpus (DESIGN.md §13): each workspace rule must fire on
//! a known-bad source. `clippy-driver` checks each fixture under the
//! workspace `clippy.toml`; every line marked `// fires: <lint>` must
//! yield exactly that finding, and no other line any.

use std::io::Write;
use std::process::{Command, Stdio};

const F001_BAD: &str = r#"
pub fn unwrap_form(a: f64, b: f64) -> bool { a.partial_cmp(&b).unwrap().is_lt() } // fires: disallowed_methods
pub fn expect_form(a: f64, b: f64) -> bool { a.partial_cmp(&b).expect("").is_lt() } // fires: disallowed_methods
pub fn sort_form(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)) } // fires: disallowed_methods
"#;
const D001_BAD: &str = r#"
use std::collections::HashMap; // fires: disallowed_types
pub fn fresh() -> HashMap<u8, u8> { Default::default() } // fires: disallowed_types
pub fn distinct(xs: &[u8]) -> usize { xs.iter().collect::<std::collections::HashSet<_>>().len() } // fires: disallowed_types
"#;
const D002_BAD: &str = r#"
pub fn seed() -> std::time::SystemTime { std::time::SystemTime::now() } // fires: disallowed_methods
pub fn start() -> std::time::Instant { std::time::Instant::now() } // fires: disallowed_methods
"#;
// Clippy resolves paths: the alias is still `std::fs::write`.
const A001_BAD: &str = r#"
use std::fs::{write as torn, File, OpenOptions};
pub fn blob(s: &str) -> std::io::Result<()> { torn("out.txt", s) } // fires: disallowed_methods
pub fn csv() -> std::io::Result<File> { File::create("out.csv") } // fires: disallowed_methods
pub fn fresh() -> std::io::Result<File> { File::create_new("out.csv") } // fires: disallowed_methods
pub fn log() -> std::io::Result<File> { OpenOptions::new().append(true).open("out.log") } // fires: disallowed_methods
"#;
// A function-pointer path escapes `unwrap_used` (DESIGN.md §13).
const P001_BAD: &str = r#"#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub fn first(xs: &[u64]) -> u64 { *xs.first().unwrap() } // fires: unwrap_used
pub fn parse(s: &str) -> u64 { s.parse().expect("numeric") } // fires: expect_used
pub fn reject(kind: u8) -> ! { panic!("unsupported kind {kind}") } // fires: panic
pub fn all(xs: Vec<Option<u64>>) -> Vec<u64> { xs.into_iter().map(Option::unwrap).collect() }
"#;

/// Checks `src` as a library (or, with `test`, as a test harness) and
/// returns clippy's findings as `(line, lint)`, sorted.
fn findings(name: &str, src: &str, test: bool) -> Vec<(usize, String)> {
    let mut clippy = Command::new("clippy-driver")
        .env("CLIPPY_CONF_DIR", env!("CARGO_MANIFEST_DIR"))
        .args(["--edition=2021", "--emit=metadata", "--error-format=json"])
        .args(["--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .args(["--crate-name", name, "-Adead_code", "-"])
        .arg(if test { "--test" } else { "--crate-type=lib" })
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("clippy-driver on PATH (the rustup `clippy` component)");
    let stdin = clippy.stdin.take().expect("piped stdin");
    (&stdin).write_all(src.as_bytes()).expect("fixture written");
    drop(stdin);
    let out = clippy.wait_with_output().expect("clippy-driver ran");
    let diags = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{name} does not compile:\n{diags}");
    let mut found: Vec<(usize, String)> = (diags.lines())
        .filter_map(|diag| {
            let line = field(diag, r#""line_start":"#)?.parse().ok()?;
            Some((line, field(diag, r#""code":{"code":""#)?.to_string()))
        })
        .collect();
    found.sort();
    found
}

/// The value after `key` in one JSON diagnostic, up to `"` or `,`.
fn field<'a>(diag: &'a str, key: &str) -> Option<&'a str> {
    diag.split(key).nth(1)?.split(['"', ',']).next()
}

fn assert_fires(name: &str, src: &str) {
    let marks = src.lines().map(|l| l.split("// fires: ").nth(1));
    let expected: Vec<_> = (marks.enumerate())
        .filter_map(|(k, lint)| Some((k + 1, format!("clippy::{}", lint?))))
        .collect();
    assert_eq!(findings(name, src, false), expected, "{name}");
}

#[test]
fn f001_bad_fires_all_three_forms() {
    assert_fires("f001_bad", F001_BAD);
}

#[test]
fn d001_bad_fires() {
    assert_fires("d001_bad", D001_BAD);
}

#[test]
fn d002_bad_fires() {
    assert_fires("d002_bad", D002_BAD);
}

#[test]
fn a001_bad_fires() {
    assert_fires("a001_bad", A001_BAD);
}

#[test]
fn p001_bad_counts_every_site() {
    assert_fires("p001_bad", P001_BAD);
}

#[test]
fn p001_is_scope_sensitive() {
    // Outside a library root (no header) and inside a test module
    // (`allow-*-in-tests`), the same panics are not library surface.
    let (header, body) = P001_BAD.split_once('\n').expect("a header line");
    assert_eq!(findings("p001_headerless", body, false), []);
    let in_tests = format!("{header}\n#[cfg(test)]\nmod tests {{\n{body}}}\n");
    assert_eq!(findings("p001_in_tests", &in_tests, true), []);
}
