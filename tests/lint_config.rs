//! Pins the lint configuration behind the workspace invariants
//! (DESIGN.md §13). CI's clippy step enforces the rules; this suite
//! keeps them configured and checks what clippy does not lint: Rust
//! code fences in doc comments.

use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
const P001: &str = "\n#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]\n";
const STALE: &str = concat!("csa", "-lint: allow");
const BANNED: &str = "std::cmp::PartialOrd::partial_cmp std::time::Instant::now \
    std::time::SystemTime::now std::fs::write std::fs::File::create std::fs::File::create_new \
    std::fs::OpenOptions::open std::collections::HashMap std::collections::HashSet";

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn clippy_configuration_and_library_headers_are_in_place() {
    let toml = fs::read_to_string(Path::new(ROOT).join("clippy.toml")).expect("clippy.toml");
    for path in BANNED.split_whitespace() {
        assert!(toml.contains(&format!("path = \"{path}\"")), "{path}");
    }
    for k in ["unwrap", "expect", "panic"] {
        assert!(toml.contains(&format!("allow-{k}-in-tests = true")), "{k}");
    }
    let manifest = fs::read_to_string(Path::new(ROOT).join("Cargo.toml")).expect("Cargo.toml");
    let lints = manifest
        .split("\n[")
        .find(|table| table.starts_with("workspace.lints.clippy]"))
        .expect("a clippy lint table");
    for lint in ["allow_attributes", "allow_attributes_without_reason"] {
        assert!(lints.contains(&format!("\n{lint} = \"warn\"")), "{lint}");
    }
    let crates = fs::read_dir(Path::new(ROOT).join("crates")).expect("crates/");
    let libs = crates.map(|krate| krate.expect("crate").path().join("src/lib.rs"));
    for lib in libs.chain([Path::new(ROOT).join("src/lib.rs")]) {
        let src = fs::read_to_string(&lib).expect("library root");
        assert!(src.contains(P001), "{lib:?}");
    }
}

#[test]
fn no_stale_suppression_and_no_partial_cmp_in_doc_examples() {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "vendor"] {
        walk(&Path::new(ROOT).join(dir), &mut files);
    }
    for file in files {
        let src = fs::read_to_string(&file).expect("source file");
        assert!(!src.contains(STALE), "{file:?}");
        // `Some(compiled)` while inside a code fence of a doc comment.
        let mut fence = None;
        for (k, line) in src.lines().map(str::trim_start).enumerate() {
            let Some(doc) = line.strip_prefix("///").or(line.strip_prefix("//!")) else {
                fence = None;
                continue;
            };
            if let Some(info) = doc.trim_start().strip_prefix("```") {
                let rust = |w: &str| matches!(w, "" | "rust" | "no_run" | "should_panic");
                // A fence line closes the open fence, or opens one.
                fence = fence.xor(Some(info.split(',').map(str::trim).all(rust)));
            } else if fence == Some(true) && doc.contains("partial_cmp") {
                panic!("F001 in a doc example at {file:?}:{}", k + 1);
            }
        }
    }
}
