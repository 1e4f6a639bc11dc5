//! Per-file lint analysis: pattern matchers over the token stream,
//! `#[cfg(test)]` region tracking, doc-example extraction, and inline
//! suppression handling.

use crate::catalog::{FileClass, Lint};
use crate::lexer::{lex, Token, TokenKind};

/// One reported lint violation, anchored to a workspace-relative path
/// and a 1-based line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub path: String,
    pub line: u32,
    pub lint: Lint,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}:{} {}",
            self.lint, self.path, self.line, self.message
        )
    }
}

/// Analyzes one file's source text. Returns every violation after
/// scope filtering (file class + `#[cfg(test)]` regions) and inline
/// suppressions, including suppression-hygiene (S001) findings.
pub fn analyze_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let class = FileClass::classify(rel_path);
    if class.fixture_file {
        return Vec::new();
    }
    let tokens = lex(src);
    let code: Vec<Token<'_>> = tokens.iter().copied().filter(|t| !t.is_comment()).collect();
    let matches = DelimMatcher::new(&code);
    let regions = test_regions(&code, &matches);
    let in_test = |line: u32| regions.iter().any(|&(a, b)| (a..=b).contains(&line));

    let mut candidates: Vec<Violation> = Vec::new();
    lint_f001(rel_path, &code, &matches, &mut candidates);
    lint_d001(rel_path, &code, &mut candidates);
    lint_d002(rel_path, &code, &mut candidates);
    lint_a001(rel_path, &code, &mut candidates);
    lint_p001(rel_path, &code, &mut candidates);
    if class.lint_applies(Lint::F001) {
        doc_example_f001(rel_path, &tokens, &mut candidates);
    }

    // Scope filtering: F001 fires everywhere (NaN panics in tests are
    // still the twice-refixed bug); everything else is production-code
    // only, so `#[cfg(test)]` regions are exempt.
    candidates.retain(|v| {
        class.lint_applies(v.lint)
            && (v.lint == Lint::F001 || !in_test(v.line))
            && (v.lint != Lint::P001 || class.library_code(rel_path))
    });

    // Inline suppressions.
    let mut allows = parse_allows(rel_path, &tokens);
    candidates.retain(|v| {
        let mut hit = false;
        for a in allows.iter_mut() {
            if a.target_line == v.line && a.lints.contains(&v.lint) && a.valid {
                a.used = true;
                hit = true;
            }
        }
        !hit
    });

    // Suppression hygiene: malformed allows and allows that no longer
    // suppress anything are violations themselves, so fixes can never
    // silently leave stale escape hatches behind.
    for a in &allows {
        if !a.valid {
            candidates.push(Violation {
                path: rel_path.to_string(),
                line: a.comment_line,
                lint: Lint::S001,
                message: a.problem.clone(),
            });
        } else if !a.used {
            candidates.push(Violation {
                path: rel_path.to_string(),
                line: a.comment_line,
                lint: Lint::S001,
                message: format!(
                    "stale suppression: no {} violation on line {} — remove the allow",
                    codes(&a.lints),
                    a.target_line
                ),
            });
        }
    }

    candidates.sort();
    // One report per (lint, line): the two F001 forms often both match
    // the same NaN-unsafe comparator.
    candidates.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.lint == b.lint);
    candidates
}

fn codes(lints: &[Lint]) -> String {
    let v: Vec<&str> = lints.iter().map(|l| l.code()).collect();
    v.join(",")
}

/// Precomputed delimiter matching over the code token stream: for the
/// index of each `(`/`[`/`{` token, the index of its closing partner.
struct DelimMatcher {
    close_of: Vec<Option<usize>>,
}

impl DelimMatcher {
    fn new(code: &[Token<'_>]) -> Self {
        let mut close_of = vec![None; code.len()];
        let mut stack: Vec<(usize, char)> = Vec::new();
        for (i, t) in code.iter().enumerate() {
            if t.kind != TokenKind::Punct {
                continue;
            }
            match t.text {
                "(" | "[" | "{" => stack.push((i, t.text.chars().next().unwrap_or('('))),
                ")" | "]" | "}" => {
                    let want = match t.text {
                        ")" => '(',
                        "]" => '[',
                        _ => '{',
                    };
                    // Pop through mismatches so one stray delimiter
                    // cannot corrupt the rest of the file.
                    while let Some((j, open)) = stack.pop() {
                        if open == want {
                            close_of[j] = Some(i);
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
        DelimMatcher { close_of }
    }

    fn close(&self, open_idx: usize) -> Option<usize> {
        self.close_of.get(open_idx).copied().flatten()
    }
}

/// Line ranges covered by `#[cfg(test)]`-gated items (modules, fns,
/// uses). Heuristic: the `cfg` argument list mentions `test` and does
/// not mention `not`.
fn test_regions(code: &[Token<'_>], matches: &DelimMatcher) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 3 < code.len() {
        let is_attr_open = code[i].is_punct('#') && code[i + 1].is_punct('[');
        if !is_attr_open {
            i += 1;
            continue;
        }
        let Some(attr_close) = matches.close(i + 1) else {
            i += 1;
            continue;
        };
        let is_cfg = code[i + 2].is_ident("cfg") && code[i + 3].is_punct('(');
        let gates_test = is_cfg
            && code[i + 4..attr_close].iter().any(|t| t.is_ident("test"))
            && !code[i + 4..attr_close].iter().any(|t| t.is_ident("not"));
        if !gates_test {
            i = attr_close + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = attr_close + 1;
        while k + 1 < code.len() && code[k].is_punct('#') && code[k + 1].is_punct('[') {
            match matches.close(k + 1) {
                Some(c) => k = c + 1,
                None => break,
            }
        }
        // The gated item extends to the first top-level `;` (use,
        // statement) or through the matching `}` of its first `{`.
        let mut end_line = code.get(k).map_or(code[i].line, |t| t.line);
        let mut depth = 0i32;
        let mut j = k;
        while j < code.len() {
            let t = &code[j];
            if t.kind == TokenKind::Punct {
                match t.text {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        if let Some(c) = matches.close(j) {
                            end_line = code[c].line;
                        }
                        break;
                    }
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    ";" if depth == 0 => {
                        end_line = t.line;
                        break;
                    }
                    _ => {}
                }
            }
            end_line = t.line;
            j += 1;
        }
        regions.push((code[i].line, end_line));
        i = attr_close + 1;
    }
    regions
}

/// Comparator methods whose closure argument is checked for
/// `partial_cmp` (F001's second form).
const SORT_FAMILY: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "binary_search_by",
    "min_by",
    "max_by",
];

fn push(out: &mut Vec<Violation>, path: &str, line: u32, lint: Lint, message: String) {
    out.push(Violation {
        path: path.to_string(),
        line,
        lint,
        message,
    });
}

/// F001 over an arbitrary code-token stream (also reused for doc
/// examples). `line_map` translates token lines when the stream was
/// extracted from embedded code.
fn f001_on_tokens(
    path: &str,
    code: &[Token<'_>],
    matches: &DelimMatcher,
    map_line: &dyn Fn(u32) -> u32,
    out: &mut Vec<Violation>,
) {
    for i in 1..code.len() {
        let t = &code[i];
        if t.is_ident("partial_cmp")
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some(close) = matches.close(i + 1) {
                let unwrapped = code.get(close + 1).is_some_and(|d| d.is_punct('.'))
                    && code
                        .get(close + 2)
                        .is_some_and(|m| m.is_ident("unwrap") || m.is_ident("expect"));
                if unwrapped {
                    push(
                        out,
                        path,
                        map_line(t.line),
                        Lint::F001,
                        "partial_cmp(..).unwrap() panics on NaN; use f64::total_cmp".to_string(),
                    );
                }
            }
        }
        if SORT_FAMILY.iter().any(|m| t.is_ident(m))
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some(close) = matches.close(i + 1) {
                if code[i + 2..close].iter().any(|x| x.is_ident("partial_cmp")) {
                    push(
                        out,
                        path,
                        map_line(t.line),
                        Lint::F001,
                        format!(
                            "NaN-unsafe comparator in {}: partial_cmp is not a total order; \
                             use f64::total_cmp",
                            t.text
                        ),
                    );
                }
            }
        }
    }
}

fn lint_f001(path: &str, code: &[Token<'_>], matches: &DelimMatcher, out: &mut Vec<Violation>) {
    f001_on_tokens(path, code, matches, &|l| l, out);
}

fn lint_d001(path: &str, code: &[Token<'_>], out: &mut Vec<Violation>) {
    for t in code {
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            push(
                out,
                path,
                t.line,
                Lint::D001,
                format!(
                    "std::collections::{} iterates in nondeterministic order; use \
                     BTreeMap/BTreeSet, a sorted collect, or allow with an \
                     order-independence justification",
                    t.text
                ),
            );
        }
    }
}

fn lint_d002(path: &str, code: &[Token<'_>], out: &mut Vec<Violation>) {
    for i in 0..code.len().saturating_sub(3) {
        let clock = code[i].is_ident("Instant") || code[i].is_ident("SystemTime");
        if clock
            && code[i + 1].is_punct(':')
            && code[i + 2].is_punct(':')
            && code[i + 3].is_ident("now")
        {
            push(
                out,
                path,
                code[i].line,
                Lint::D002,
                format!(
                    "{}::now() outside the timing-report surface risks feeding wall-clock \
                     nondeterminism into results",
                    code[i].text
                ),
            );
        }
    }
}

fn lint_a001(path: &str, code: &[Token<'_>], out: &mut Vec<Violation>) {
    for i in 0..code.len() {
        let t = &code[i];
        let direct_write = (t.is_ident("File")
            && code.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && code.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && code.get(i + 3).is_some_and(|a| a.is_ident("create")))
            || (t.is_ident("fs")
                && code.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && code.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && code.get(i + 3).is_some_and(|a| a.is_ident("write")))
            || t.is_ident("OpenOptions");
        if direct_write {
            push(
                out,
                path,
                t.line,
                Lint::A001,
                "file write bypasses write_atomic: a crash mid-write can leave a torn \
                 artifact; route through csa_experiments::artifact::write_atomic"
                    .to_string(),
            );
        }
    }
}

fn lint_p001(path: &str, code: &[Token<'_>], out: &mut Vec<Violation>) {
    for i in 0..code.len() {
        let t = &code[i];
        let method_panic = (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('));
        let path_panic = (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 1
            && code[i - 1].is_punct(':')
            && code[i - 2].is_punct(':');
        let macro_panic = t.is_ident("panic") && code.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if method_panic || path_panic || macro_panic {
            push(
                out,
                path,
                t.line,
                Lint::P001,
                format!("panic surface: {}", t.text),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Doc-example extraction
// ---------------------------------------------------------------------

/// Runs F001 inside fenced Rust code blocks of doc comments, mapping
/// violations back to real file lines. Doc examples teach patterns;
/// they must not teach the NaN-unsafe one (there is deliberately no
/// way to suppress inside a doc block — fix the example instead).
fn doc_example_f001(path: &str, tokens: &[Token<'_>], out: &mut Vec<Violation>) {
    let mut block: Vec<(u32, String)> = Vec::new(); // (file_line, text)
    let mut prev_line = 0u32;
    let flush = |block: &mut Vec<(u32, String)>, out: &mut Vec<Violation>| {
        if !block.is_empty() {
            scan_doc_block(path, block, out);
            block.clear();
        }
    };
    for t in tokens {
        match t.kind {
            TokenKind::LineComment if t.doc => {
                if prev_line != 0 && t.line != prev_line + 1 {
                    flush(&mut block, out);
                }
                let body = t.text.trim_start_matches("///").trim_start_matches("//!");
                let body = body.strip_prefix(' ').unwrap_or(body);
                block.push((t.line, body.to_string()));
                prev_line = t.line;
            }
            TokenKind::BlockComment if t.doc => {
                flush(&mut block, out);
                let inner = t
                    .text
                    .trim_start_matches("/**")
                    .trim_start_matches("/*!")
                    .trim_end_matches("*/");
                for (k, raw) in inner.lines().enumerate() {
                    let line = raw.trim_start();
                    let line = line
                        .strip_prefix("* ")
                        .unwrap_or(line.strip_prefix('*').unwrap_or(line));
                    block.push((t.line + k as u32, line.to_string()));
                }
                flush(&mut block, out);
                prev_line = 0;
            }
            _ => {
                // Whitespace between doc lines is skipped by the lexer,
                // so any non-doc token separates blocks.
                flush(&mut block, out);
                prev_line = 0;
            }
        }
    }
    flush(&mut block, out);
}

/// True when a fence info string denotes compiled Rust.
fn rust_fence(info: &str) -> bool {
    info.split(',').map(str::trim).all(|w| {
        w.is_empty()
            || w == "rust"
            || w == "no_run"
            || w == "should_panic"
            || w.starts_with("edition")
    })
}

fn scan_doc_block(path: &str, block: &[(u32, String)], out: &mut Vec<Violation>) {
    let mut in_code = false;
    let mut code_text = String::new();
    let mut line_map: Vec<u32> = Vec::new(); // embedded line index -> file line
    for (file_line, text) in block {
        let trimmed = text.trim_start();
        if let Some(info) = trimmed.strip_prefix("```") {
            if in_code {
                lint_embedded(path, &code_text, &line_map, out);
                code_text.clear();
                line_map.clear();
                in_code = false;
            } else if rust_fence(info) {
                in_code = true;
            } else {
                // Non-Rust fence: skip until it closes.
                in_code = false;
            }
            continue;
        }
        if in_code {
            // rustdoc hidden lines (`# fn main()`) are still compiled
            // code: strip the marker, keep the content. `#[attr]` is
            // real code and stays untouched.
            let content = match trimmed.strip_prefix('#') {
                Some("") => String::new(),
                Some(rest) if rest.starts_with(' ') => rest[1..].to_string(),
                _ => text.clone(),
            };
            line_map.push(*file_line);
            code_text.push_str(&content);
            code_text.push('\n');
        }
    }
    // An unterminated fence at end of block still gets linted.
    if in_code && !code_text.is_empty() {
        lint_embedded(path, &code_text, &line_map, out);
    }
}

fn lint_embedded(path: &str, code_text: &str, line_map: &[u32], out: &mut Vec<Violation>) {
    let toks = lex(code_text);
    let code: Vec<Token<'_>> = toks.iter().copied().filter(|t| !t.is_comment()).collect();
    let matches = DelimMatcher::new(&code);
    let map = |embedded_line: u32| -> u32 {
        line_map
            .get((embedded_line as usize).saturating_sub(1))
            .copied()
            .unwrap_or(0)
    };
    let mut found = Vec::new();
    f001_on_tokens(path, &code, &matches, &map, &mut found);
    for mut v in found {
        v.message = format!("doc example: {}", v.message);
        out.push(v);
    }
}

// ---------------------------------------------------------------------
// Inline suppressions
// ---------------------------------------------------------------------

/// A parsed `// csa-lint: allow(CODE[,CODE]) reason` comment.
struct Allow {
    comment_line: u32,
    /// Line whose violations this allow covers: the comment's own line
    /// for trailing comments, the next code line for standalone ones.
    target_line: u32,
    lints: Vec<Lint>,
    valid: bool,
    problem: String,
    used: bool,
}

fn parse_allows(_path: &str, tokens: &[Token<'_>]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (idx, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::LineComment || t.doc {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("csa-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let mut allow = Allow {
            comment_line: t.line,
            target_line: t.line,
            lints: Vec::new(),
            valid: true,
            problem: String::new(),
            used: false,
        };
        match parse_allow_body(rest) {
            Ok(lints) => allow.lints = lints,
            Err(problem) => {
                allow.valid = false;
                allow.problem = problem;
            }
        }
        // Trailing comment (code earlier on the same line) targets its
        // own line; a standalone comment targets the next code line.
        let code_on_same_line = tokens
            .iter()
            .any(|x| !x.is_comment() && x.line == t.line && x.start < t.start);
        if !code_on_same_line {
            allow.target_line = tokens[idx + 1..]
                .iter()
                .find(|x| !x.is_comment())
                .map_or(t.line, |x| x.line);
        }
        allows.push(allow);
    }
    allows
}

fn parse_allow_body(rest: &str) -> Result<Vec<Lint>, String> {
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Err("malformed suppression: expected `csa-lint: allow(CODE) reason`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("malformed suppression: unclosed allow(..)".to_string());
    };
    let mut lints = Vec::new();
    for code in rest[..close].split(',') {
        let code = code.trim();
        match Lint::from_code(code) {
            Some(l) => lints.push(l),
            None => return Err(format!("unknown lint code `{code}` in suppression")),
        }
    }
    if lints.is_empty() {
        return Err("suppression names no lint codes".to_string());
    }
    let reason = rest[close + 1..].trim();
    if reason.is_empty() {
        return Err("suppression without a reason: `csa-lint: allow(CODE) <why>`".to_string());
    }
    Ok(lints)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/fake/src/lib.rs";

    fn lints_at(src: &str) -> Vec<(Lint, u32)> {
        analyze_source(LIB, src)
            .into_iter()
            .map(|v| (v.lint, v.line))
            .collect()
    }

    #[test]
    fn f001_unwrap_form() {
        let v = lints_at("fn f(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }\n");
        assert!(v.contains(&(Lint::F001, 1)), "{v:?}");
    }

    #[test]
    fn f001_sort_family_form() {
        let src = "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));\n}\n";
        let v = lints_at(src);
        assert!(v.contains(&(Lint::F001, 2)), "{v:?}");
    }

    #[test]
    fn f001_total_cmp_is_clean() {
        let v = lints_at("fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }\n");
        assert!(v.iter().all(|(l, _)| *l != Lint::F001), "{v:?}");
    }

    #[test]
    fn f001_fires_inside_cfg_test() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }\n}\n";
        let v = lints_at(src);
        assert!(v.contains(&(Lint::F001, 3)), "{v:?}");
        // ...but the unwrap itself is not a P001 in test code.
        assert!(v.iter().all(|(l, _)| *l != Lint::P001), "{v:?}");
    }

    #[test]
    fn f001_in_string_or_comment_is_ignored() {
        let src = "// a.partial_cmp(&b).unwrap() is bad\nfn f() -> &'static str { \"x.partial_cmp(&y).unwrap()\" }\n";
        let v = lints_at(src);
        assert!(v.iter().all(|(l, _)| *l != Lint::F001), "{v:?}");
    }

    #[test]
    fn d001_and_suppression() {
        let src =
            "use std::collections::HashMap; // csa-lint: allow(D001) probed, never iterated\n";
        assert!(lints_at(src).is_empty());
        let bare = "use std::collections::HashMap;\n";
        assert!(lints_at(bare).contains(&(Lint::D001, 1)));
    }

    #[test]
    fn standalone_allow_targets_next_code_line() {
        let src =
            "// csa-lint: allow(D001) memo keyed lookup only\nuse std::collections::HashMap;\n";
        assert!(lints_at(src).is_empty());
    }

    #[test]
    fn stale_allow_is_s001() {
        let src = "fn f() {} // csa-lint: allow(F001) nothing here\n";
        let v = lints_at(src);
        assert!(v.contains(&(Lint::S001, 1)), "{v:?}");
    }

    #[test]
    fn allow_without_reason_is_s001() {
        let src = "use std::collections::HashMap; // csa-lint: allow(D001)\n";
        let v = lints_at(src);
        assert!(v.iter().any(|(l, _)| *l == Lint::S001), "{v:?}");
        // The D001 itself still fires: invalid allows suppress nothing.
        assert!(v.contains(&(Lint::D001, 1)), "{v:?}");
    }

    #[test]
    fn d002_outside_allowlist() {
        let v = lints_at("fn f() { let t = std::time::Instant::now(); }\n");
        assert!(v.contains(&(Lint::D002, 1)), "{v:?}");
    }

    #[test]
    fn d002_exempt_in_tests_and_fig5() {
        let test_src =
            "#[cfg(test)]\nmod t {\n    fn f() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(lints_at(test_src).iter().all(|(l, _)| *l != Lint::D002));
        let v = analyze_source(
            "crates/experiments/src/fig5.rs",
            "fn f() { let _ = std::time::Instant::now(); }\n",
        );
        assert!(v.iter().all(|v| v.lint != Lint::D002), "{v:?}");
    }

    #[test]
    fn a001_file_create() {
        let v = lints_at("fn f() { let _ = std::fs::File::create(\"results/x.csv\"); }\n");
        assert!(v.contains(&(Lint::A001, 1)), "{v:?}");
        let w = lints_at("fn f() { let _ = std::fs::write(\"results/x.csv\", \"\"); }\n");
        assert!(w.contains(&(Lint::A001, 1)), "{w:?}");
    }

    #[test]
    fn p001_counts_library_panics_only() {
        let src =
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\npub fn g() { panic!(\"boom\"); }\n";
        let v = lints_at(src);
        assert_eq!(
            v.iter().filter(|(l, _)| *l == Lint::P001).count(),
            2,
            "{v:?}"
        );
        // Same code in a bin file: exempt.
        let b = analyze_source("crates/experiments/src/bin/table1.rs", src);
        assert!(b.iter().all(|v| v.lint != Lint::P001), "{b:?}");
    }

    #[test]
    fn p001_skips_unwrap_or_family() {
        let v = lints_at("pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(3) }\n");
        assert!(v.iter().all(|(l, _)| *l != Lint::P001), "{v:?}");
    }

    #[test]
    fn doc_example_f001_fires_and_maps_lines() {
        let src = "\
/// Sorts things.\n\
///\n\
/// ```\n\
/// let mut v = vec![1.0f64];\n\
/// v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
/// ```\n\
pub fn f() {}\n";
        let v = analyze_source(LIB, src);
        let f001: Vec<_> = v.iter().filter(|v| v.lint == Lint::F001).collect();
        assert_eq!(f001.len(), 1, "{v:?}");
        assert_eq!(f001[0].line, 5);
        assert!(f001[0].message.starts_with("doc example:"));
    }

    #[test]
    fn doc_example_text_fence_is_skipped() {
        let src = "\
/// ```text\n\
/// v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
/// ```\n\
pub fn f() {}\n";
        let v = analyze_source(LIB, src);
        assert!(v.iter().all(|v| v.lint != Lint::F001), "{v:?}");
    }

    #[test]
    fn cfg_test_region_spans_whole_module() {
        let src = "\
pub fn lib_panic() { panic!(\"real\"); }\n\
#[cfg(test)]\n\
mod tests {\n\
    #[test]\n\
    fn t() { None::<u32>.unwrap(); }\n\
}\n";
        let v = lints_at(src);
        let p: Vec<_> = v.iter().filter(|(l, _)| *l == Lint::P001).collect();
        assert_eq!(p.len(), 1, "{v:?}");
        assert_eq!(p[0].1, 1);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\npub fn f() { panic!(\"x\"); }\n";
        let v = lints_at(src);
        assert!(v.iter().any(|(l, _)| *l == Lint::P001), "{v:?}");
    }
}
