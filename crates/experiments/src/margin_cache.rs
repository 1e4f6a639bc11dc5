//! Persistent, versioned margin-table artifact.
//!
//! Margin-table construction is the dominant startup cost of every
//! experiment binary: 236 cells (47 snapped-grid periods, 98 dense-grid
//! knots and 91 held-out midpoints), each an LQG design plus a
//! stability-curve fit, before the first benchmark is drawn. The tables
//! are a pure function of the plant pool, the grid shape, and the
//! conservatism parameters, so they are cached on disk across
//! *invocations* (the in-process `OnceLock` caches in
//! [`crate::margins`] only span one process).
//!
//! The artifact is a `csamt1` file of the [`crate::artifact`] layer:
//! every `f64` is serialized as its 16-hex-digit IEEE-754 bit pattern, so
//! a load reproduces the computed tables **bit-for-bit** — mandatory,
//! because the `GridSnapped` benchmark profile embeds table entries in
//! seeded experiment outputs that are part of the regression surface.
//!
//! The header carries everything the tables are keyed on. On any
//! mismatch — version tag, kernel revision, plant-pool fingerprint,
//! grid shape, period series, safety factor — the loader reports a
//! [`Stale`] naming the field and [`warm_cached_tables`] recomputes with
//! a warning; a stale artifact is *never* silently reused (DESIGN.md
//! §10).

use crate::artifact::{self, hex, Fnv64, Header, Lines, Stale};
use crate::margins::{
    self, InterpSegmentRun, MarginEntry, MarginInterp, PlantMargins, CURVE_POINTS,
    DENSE_GRID_POINTS, GRID_POINTS, INTERP_SAFETY, PERIOD_SERIES,
};
use crate::report::RESULTS_DIR;
use csa_control::plants;
use csa_core::StabilityBound;
use csa_linalg::Mat;
use std::path::{Path, PathBuf};

/// Version tag of the margin-table artifact format; first header field.
pub const MARGIN_ARTIFACT_TAG: &str = "csamt1";

/// Revision of the exact margin kernel's numeric path. Bump whenever a
/// change can move any table bit (it invalidates every artifact in the
/// field); the differential suite in `csa-control` pins the current
/// revision by value and against the dense reference sweep. Checkpoint
/// journals (`checkpoint.rs`) embed it too: a kernel change invalidates
/// partial sweep results just as it invalidates margin tables.
pub(crate) const KERNEL_REVISION: u32 = 1;

/// File name of the artifact inside the cache directory.
const ARTIFACT_FILE: &str = "margin_tables.csamt";

fn write_mat(h: &mut Fnv64, m: &Mat) {
    h.write_u64(m.rows() as u64);
    h.write_u64(m.cols() as u64);
    for &v in m.as_slice() {
        h.write_u64(v.to_bits());
    }
}

/// Deterministic fingerprint of the compiled-in benchmark plant pool:
/// names, continuous models (bit-exact), period ranges, and LQG weights.
/// Any pool change invalidates every margin-table artifact.
pub fn pool_fingerprint() -> u64 {
    #[expect(clippy::expect_used, reason = "P001: the compiled-in pool is valid")]
    let pool = plants::benchmark_pool().expect("benchmark pool must construct");
    let mut h = Fnv64::default();
    h.write_u64(pool.len() as u64);
    for bp in &pool {
        h.write_bytes(bp.name.as_bytes());
        h.write_bytes(&[0]);
        h.write_u64(bp.period_range.0.to_bits());
        h.write_u64(bp.period_range.1.to_bits());
        for m in [bp.plant.a(), bp.plant.b(), bp.plant.c(), bp.plant.d()] {
            write_mat(&mut h, m);
        }
        for m in [
            &bp.weights.q1,
            &bp.weights.q2,
            &bp.weights.r1,
            &bp.weights.r2,
        ] {
            write_mat(&mut h, m);
        }
    }
    h.finish()
}

fn series_fingerprint() -> u64 {
    let mut h = Fnv64::default();
    h.write_u64(PERIOD_SERIES.len() as u64);
    for &p in &PERIOD_SERIES {
        h.write_u64(p.to_bits());
    }
    h.finish()
}

fn header() -> Header {
    Header::new(MARGIN_ARTIFACT_TAG)
        .field("kernel", KERNEL_REVISION)
        .field("pool", hex(pool_fingerprint()))
        .field(
            "grid",
            format!("{GRID_POINTS},{DENSE_GRID_POINTS},{CURVE_POINTS}"),
        )
        .field("series", hex(series_fingerprint()))
        .field("safety", hex(INTERP_SAFETY.to_bits()))
}

/// Location of the margin-table artifact: `$CSA_MARGIN_CACHE_DIR` if
/// set, else the standard `results/` output directory.
pub fn margin_artifact_path() -> PathBuf {
    std::env::var_os("CSA_MARGIN_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(RESULTS_DIR))
        .join(ARTIFACT_FILE)
}

/// Appends one `tag|<f64 bits>|...` record.
fn push_f64s(out: &mut String, tag: &str, values: &[f64]) {
    out.push_str(tag);
    for v in values {
        out.push('|');
        out.push_str(&hex(v.to_bits()));
    }
    out.push('\n');
}

/// Serializes the margin tables and interpolants to `path` (creating
/// parent directories), bit-losslessly.
///
/// The write is atomic ([`crate::write_atomic`]): a crash mid-write can
/// never leave a torn `csamt1` file — previously a partial write was
/// only caught if the truncation happened to break header parsing.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_margin_artifact(
    path: &Path,
    tables: &[PlantMargins],
    interp: &[MarginInterp],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("# Margin-table artifact: precomputed stability-margin tables of the\n");
    out.push_str("# benchmark plant pool, f64s as IEEE-754 bit patterns. Regenerated\n");
    out.push_str("# automatically whenever the header no longer matches the binary.\n");
    out.push_str(&header().line());
    out.push('\n');
    for t in tables {
        out.push_str(&format!("table|{}|{}\n", t.name, t.entries.len()));
        for e in &t.entries {
            push_f64s(&mut out, "e", &[e.period, e.a, e.b]);
        }
    }
    for t in interp {
        out.push_str(&format!("interp|{}|{}\n", t.name, t.runs.len()));
        for r in &t.runs {
            let (lo, hi) = (hex(r.p_lo.to_bits()), hex(r.p_hi.to_bits()));
            out.push_str(&format!("run|{lo}|{hi}|{}\n", r.x.len()));
            for k in 0..r.x.len() {
                push_f64s(&mut out, "k", &[r.x[k], r.a[k], r.b[k], r.ta[k], r.tb[k]]);
            }
            for s in 0..r.x.len() - 1 {
                push_f64s(&mut out, "f", &[r.shrink_b[s], r.inflate_a[s]]);
            }
        }
    }
    artifact::write_atomic(path, &out)
}

/// Reads a `tag|name|count` record, which must name the pool plant
/// `name` (the artifact lists plants in pool order), and returns its
/// count.
fn pool_record(lines: &mut Lines<'_>, tag: &str, name: &str) -> Result<usize, Stale> {
    let r = lines.record(tag, 2)?;
    let found = r.str(0)?;
    if found != name {
        return Err(r.malformed(format!(
            "{tag} for {found:?}, expected {name:?} (pool order)"
        )));
    }
    r.num(1, "count")
}

/// Loads and validates a margin-table artifact.
///
/// # Errors
///
/// [`Stale`] when the file is absent, its header does not match the
/// compiled-in pool/grid/kernel, or its body is corrupt. Callers must
/// recompute in every error case.
pub fn load_margin_artifact(path: &Path) -> Result<(Vec<PlantMargins>, Vec<MarginInterp>), Stale> {
    let text = artifact::read(path)?;
    #[expect(clippy::expect_used, reason = "P001: the compiled-in pool is valid")]
    let pool = plants::benchmark_pool().expect("benchmark pool must construct");
    let mut lines = Lines::new(&text);
    header().check(lines.require("header")?.text)?;

    let mut tables = Vec::with_capacity(pool.len());
    for bp in &pool {
        let mut entries = Vec::new();
        for _ in 0..pool_record(&mut lines, "table", bp.name)? {
            let e = lines.record("e", 3)?;
            let (period, a, b) = (e.f64(0, "period")?, e.f64(1, "a")?, e.f64(2, "b")?);
            // The generator builds a `StabilityBound` from every entry.
            if period <= 0.0 || StabilityBound::new(a, b).is_none() {
                let why = format!(
                    "entry (period {period}, a {a}, b {b}) needs period > 0, a >= 1, b >= 0"
                );
                return Err(e.malformed(why));
            }
            entries.push(MarginEntry { period, a, b });
        }
        tables.push(PlantMargins {
            name: bp.name,
            entries,
        });
    }

    let mut interp = Vec::with_capacity(pool.len());
    for bp in &pool {
        let mut runs = Vec::new();
        for _ in 0..pool_record(&mut lines, "interp", bp.name)? {
            let r = lines.record("run", 3)?;
            let knots: usize = r.num(2, "knot count")?;
            if knots < 2 {
                return Err(r.malformed(format!("run with {knots} knots (need >= 2)")));
            }
            let mut run = InterpSegmentRun {
                p_lo: r.f64(0, "p_lo")?,
                p_hi: r.f64(1, "p_hi")?,
                x: Vec::new(),
                a: Vec::new(),
                b: Vec::new(),
                ta: Vec::new(),
                tb: Vec::new(),
                shrink_b: Vec::new(),
                inflate_a: Vec::new(),
            };
            for _ in 0..knots {
                let k = lines.record("k", 5)?;
                run.x.push(k.f64(0, "x")?);
                run.a.push(k.f64(1, "a")?);
                run.b.push(k.f64(2, "b")?);
                run.ta.push(k.f64(3, "ta")?);
                run.tb.push(k.f64(4, "tb")?);
            }
            for _ in 0..knots - 1 {
                let f = lines.record("f", 2)?;
                run.shrink_b.push(f.f64(0, "shrink_b")?);
                run.inflate_a.push(f.f64(1, "inflate_a")?);
            }
            runs.push(run);
        }
        interp.push(MarginInterp {
            name: bp.name,
            runs,
        });
    }
    lines.finish()?;
    Ok((tables, interp))
}

/// Warms both margin caches from the persistent artifact when a valid
/// one exists, else computes them (sharded over `threads` workers, 0 =
/// available parallelism) and writes the artifact for the next
/// invocation.
///
/// A header mismatch recomputes with a warning on stderr; the mismatched
/// artifact is overwritten, never reused. Loaded tables are bit-identical
/// to recomputed ones (pinned by `tests/margin_artifact.rs`), so callers
/// cannot observe which path ran — except in startup time.
pub fn warm_cached_tables(threads: usize) -> (&'static [PlantMargins], &'static [MarginInterp]) {
    if let (Some(t), Some(i)) = (
        margins::margin_tables_if_warm(),
        margins::interp_tables_if_warm(),
    ) {
        return (t, i);
    }
    let path = margin_artifact_path();
    match load_margin_artifact(&path) {
        Ok((tables, interp)) => {
            return (
                margins::seed_margin_tables(tables),
                margins::seed_interp_tables(interp),
            )
        }
        Err(Stale::Missing) => eprintln!(
            "margins: no artifact at {} — computing tables",
            path.display()
        ),
        Err(stale) => eprintln!(
            "margins: WARNING: artifact at {} is unusable ({stale}); recomputing",
            path.display()
        ),
    }
    let tables = margins::warm_margin_tables(threads);
    let interp = margins::warm_interpolated_tables(threads);
    match save_margin_artifact(&path, tables, interp) {
        Ok(()) => eprintln!("margins: wrote artifact {}", path.display()),
        Err(e) => eprintln!(
            "margins: WARNING: could not write artifact {}: {e}",
            path.display()
        ),
    }
    (tables, interp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_within_a_process() {
        assert_eq!(pool_fingerprint(), pool_fingerprint());
        assert_eq!(series_fingerprint(), series_fingerprint());
        assert_ne!(pool_fingerprint(), series_fingerprint());
    }
}
