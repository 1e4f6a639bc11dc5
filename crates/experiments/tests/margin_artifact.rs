//! Round-trip and staleness-guard tests of the persistent margin-table
//! artifact (DESIGN.md §10).
//!
//! The artifact must reload **bit-identically** to the freshly computed
//! tables (the `GridSnapped` profile embeds table entries in seeded
//! outputs), and a header mismatch in *any* keyed field must be detected
//! and named — silent reuse of a stale artifact is the failure mode the
//! guard exists to prevent.

use csa_experiments::artifact::Stale;
use csa_experiments::{
    load_margin_artifact, save_margin_artifact, warm_interpolated_tables, warm_margin_tables,
    InterpSegmentRun, MarginInterp, PlantMargins,
};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Fresh per-test scratch path (the tests run in one process but must
/// not share files).
fn scratch_path(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("csa_margin_artifact_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join("margin_tables.csamt")
}

fn assert_tables_bits_eq(a: &[PlantMargins], b: &[PlantMargins]) {
    assert_eq!(a.len(), b.len(), "table count");
    for (ta, tb) in a.iter().zip(b) {
        assert_eq!(ta.name, tb.name);
        assert_eq!(
            ta.entries.len(),
            tb.entries.len(),
            "{}: entry count",
            ta.name
        );
        for (ea, eb) in ta.entries.iter().zip(&tb.entries) {
            assert_eq!(
                ea.period.to_bits(),
                eb.period.to_bits(),
                "{}: period",
                ta.name
            );
            assert_eq!(ea.a.to_bits(), eb.a.to_bits(), "{}: a", ta.name);
            assert_eq!(ea.b.to_bits(), eb.b.to_bits(), "{}: b", ta.name);
        }
    }
}

fn assert_run_ranges_eq(name: &str, ra: &InterpSegmentRun, rb: &InterpSegmentRun) {
    let (a_lo, a_hi) = ra.period_range();
    let (b_lo, b_hi) = rb.period_range();
    assert_eq!(a_lo.to_bits(), b_lo.to_bits(), "{name}: run lo");
    assert_eq!(a_hi.to_bits(), b_hi.to_bits(), "{name}: run hi");
}

fn assert_interp_bits_eq(a: &[MarginInterp], b: &[MarginInterp]) {
    assert_eq!(a.len(), b.len(), "interp count");
    for (ia, ib) in a.iter().zip(b) {
        assert_eq!(ia.name, ib.name);
        assert_eq!(ia.runs().len(), ib.runs().len(), "{}: run count", ia.name);
        for (ra, rb) in ia.runs().iter().zip(ib.runs()) {
            assert_run_ranges_eq(ia.name, ra, rb);
            // Probe the interpolant densely through the public
            // evaluator: identical knots, tangents, and conservatism
            // factors imply identical evaluations, and evaluations are
            // all downstream code can observe.
            let (lo, hi) = ra.period_range();
            for k in 0..=64 {
                let t = k as f64 / 64.0;
                let h = (lo * (hi / lo).powf(t)).clamp(lo, hi);
                let ea = ia.eval(h).expect("inside run");
                let eb = ib.eval(h).expect("inside run");
                assert_eq!(ea.a.to_bits(), eb.a.to_bits(), "{}: a at h={h}", ia.name);
                assert_eq!(ea.b.to_bits(), eb.b.to_bits(), "{}: b at h={h}", ia.name);
            }
        }
    }
}

#[test]
fn artifact_round_trips_bit_identically() {
    let tables = warm_margin_tables(0);
    let interp = warm_interpolated_tables(0);
    let path = scratch_path("roundtrip");
    save_margin_artifact(&path, tables, interp).expect("artifact must save");
    let (t2, i2) = load_margin_artifact(&path).expect("fresh artifact must load");
    assert_tables_bits_eq(tables, &t2);
    assert_interp_bits_eq(interp, &i2);
}

/// FNV-1a 64 written out here, independent of the library's hasher, so
/// the byte pin below cannot move together with the code it pins.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn artifact_bytes_are_pinned() {
    // A self-consistent format change would still round-trip; the digest
    // of the saved bytes catches it.
    let path = scratch_path("pinned");
    save_margin_artifact(&path, warm_margin_tables(0), warm_interpolated_tables(0))
        .expect("artifact must save");
    let bytes = std::fs::read(&path).expect("artifact readable");
    assert_eq!(bytes.len(), 15_182);
    assert_eq!(format!("{:016x}", fnv1a(&bytes)), "51d2a0a3d8d4eab4");
}

#[test]
fn corrupting_each_header_field_is_detected_and_named() {
    let tables = warm_margin_tables(0);
    let interp = warm_interpolated_tables(0);
    let path = scratch_path("staleness");
    save_margin_artifact(&path, tables, interp).expect("artifact must save");
    let original = std::fs::read_to_string(&path).expect("artifact readable");
    let header_idx = original
        .lines()
        .position(|l| !l.trim().is_empty() && !l.trim().starts_with('#'))
        .expect("artifact has a header");

    let corrupt_field = |idx: usize, replacement: &str| -> String {
        original
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i != header_idx {
                    return l.to_string();
                }
                let mut fields: Vec<String> = l.split('|').map(String::from).collect();
                fields[idx] = replacement.to_string();
                fields.join("|")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };

    let cases = [
        (0, "csamt0", "tag"),
        (1, "kernel=999", "kernel"),
        (2, "pool=0000000000000000", "pool"),
        (3, "grid=9,14,15", "grid"),
        (4, "series=ffffffffffffffff", "series"),
        (5, "safety=0000000000000000", "safety"),
    ];
    for (idx, replacement, want) in cases {
        #[expect(clippy::disallowed_methods, reason = "A001: corrupts on purpose")]
        std::fs::write(&path, corrupt_field(idx, replacement)).expect("write corrupted");
        let got = load_margin_artifact(&path).expect_err("corrupt header must be rejected");
        assert!(
            matches!(got, Stale::Mismatch { field, .. } if field == want),
            "header field {idx} ({replacement}): {got:?}"
        );
    }

    // Body truncation is covered byte by byte below.
    // Restore and confirm it loads again (the guard is on content, not
    // on the path).
    #[expect(clippy::disallowed_methods, reason = "A001: restores the file")]
    std::fs::write(&path, &original).expect("restore artifact");
    load_margin_artifact(&path).expect("restored artifact must load");
}

#[test]
fn missing_artifact_reports_missing_not_malformed() {
    let path = scratch_path("missing").with_file_name("never_written.csamt");
    assert_eq!(load_margin_artifact(&path).unwrap_err(), Stale::Missing);
}

#[test]
fn every_truncation_is_malformed_except_the_final_newline() {
    // A cut inside a hex field used to load a shorter bit pattern with no
    // warning; every prefix of the file must now be rejected, except the
    // one that drops only the final newline.
    let tables = warm_margin_tables(0);
    let interp = warm_interpolated_tables(0);
    let path = scratch_path("truncation");
    save_margin_artifact(&path, tables, interp).expect("artifact must save");
    let original = std::fs::read_to_string(&path).expect("artifact readable");
    let len = original.len();
    // Every line end, and every byte of the last three lines.
    let tail = original[..len - 1]
        .rmatch_indices('\n')
        .nth(2)
        .map_or(0, |(i, _)| i + 1);
    let cuts: BTreeSet<usize> = original
        .match_indices('\n')
        .map(|(i, _)| i + 1)
        .chain(tail..len)
        .filter(|&cut| cut < len)
        .collect();
    for cut in cuts {
        #[expect(clippy::disallowed_methods, reason = "A001: truncates on purpose")]
        std::fs::write(&path, &original[..cut]).expect("write truncated");
        match load_margin_artifact(&path) {
            Ok((t, i)) if cut == len - 1 => {
                assert_tables_bits_eq(tables, &t);
                assert_interp_bits_eq(interp, &i);
            }
            Err(Stale::Malformed(_)) if cut < len - 1 => {}
            other => panic!(
                "cut at byte {cut} of {len}: got {:?}",
                other.map(|_| "a loaded artifact")
            ),
        }
    }
}

#[test]
fn invalid_values_are_malformed_naming_the_line() {
    let path = scratch_path("values");
    save_margin_artifact(&path, warm_margin_tables(0), warm_interpolated_tables(0))
        .expect("artifact must save");
    let original = std::fs::read_to_string(&path).expect("artifact readable");
    let lines: Vec<&str> = original.lines().collect();
    // Field `field` (0 = the tag) of the first `tag` record set to `bits`:
    // `a = 0.5` in a table entry, a bound the generator cannot build, and
    // a NaN interpolant knot `b`, which `eval` would clamp to a tiny value.
    for (tag, field, bits, why) in [
        ("e", 2, "3fe0000000000000", "a 0.5, b "),
        ("k", 3, "7ff8000000000000", "b is NaN"),
    ] {
        let idx = lines.iter().position(|l| l.starts_with(&format!("{tag}|")));
        let idx = idx.expect("artifact holds the record");
        let mut fields: Vec<&str> = lines[idx].split('|').collect();
        fields[field] = bits;
        let corrupted = fields.join("|");
        let mut text = lines.clone();
        text[idx] = &corrupted;
        #[expect(clippy::disallowed_methods, reason = "A001: corrupts on purpose")]
        std::fs::write(&path, text.join("\n") + "\n").expect("write corrupted");
        match load_margin_artifact(&path) {
            Err(Stale::Malformed(m)) => {
                assert!(m.starts_with(&format!("line {}: ", idx + 1)), "{m}");
                assert!(m.contains(why), "{m}");
            }
            other => panic!("{tag} record: {:?}", other.map(|_| "a loaded artifact")),
        }
    }
}
