//! Pre-computed stability-margin tables for the benchmark plant pool.
//!
//! Computing a jitter-margin curve is the expensive step of benchmark
//! generation (LQG design + delay-margin bisection + frequency sweeps).
//! The paper's experiments draw thousands of benchmarks, so the plant
//! pool's `(a, b)` coefficients are computed once per process and cached.
//! Two caches exist:
//!
//! * [`margin_tables`] — the legacy snapped grid: ~10 periods per plant,
//!   snapped to the 1-2-5 engineering series. The `GridSnapped`
//!   benchmark profile draws directly from these entries and must stay
//!   bit-identical across releases (seeded experiment outputs are part
//!   of the regression surface).
//! * [`interpolated_tables`] — the continuous-period subsystem: a denser
//!   raw (un-snapped) grid per plant plus a monotone PCHIP interpolant
//!   in log-period, able to evaluate conservative `(a, b)` coefficients
//!   at *any* stabilizable period. The `Continuous`, `HarmonicStress`
//!   and `MarginTight` profiles draw from it (see DESIGN.md §3).

use crate::grid::{log_period_grid, log_period_point};
use crate::parallel::parallel_map;
use csa_control::{plants, StabilityCurveBatch};
use rand::Rng;
use std::sync::OnceLock;

/// Number of grid periods per plant (legacy snapped grid).
pub(crate) const GRID_POINTS: usize = 10;
/// Number of raw grid knots per plant (continuous-period subsystem).
pub(crate) const DENSE_GRID_POINTS: usize = 14;
/// Number of latency samples per stability curve.
pub(crate) const CURVE_POINTS: usize = 15;
/// Extra multiplicative safety applied on top of the measured
/// conservatism factors: interpolated `b` is shrunk and `a` inflated by
/// this fraction beyond what the held-out midpoint validation demands,
/// covering wiggle between validation points.
pub(crate) const INTERP_SAFETY: f64 = 0.05;

/// Stability coefficients of one plant at one sampling period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginEntry {
    /// Sampling period in seconds.
    pub period: f64,
    /// Jitter weight `a >= 1` of the fitted bound (Eq. 5).
    pub a: f64,
    /// Delay budget `b` in seconds of the fitted bound (Eq. 5).
    pub b: f64,
}

/// The margin table of one benchmark plant.
#[derive(Debug, Clone)]
pub struct PlantMargins {
    /// Plant name (matches `csa_control::plants::benchmark_pool`).
    pub name: &'static str,
    /// Grid entries ordered by increasing period. Periods at which no
    /// stabilizing controller exists are absent.
    pub entries: Vec<MarginEntry>,
}

static TABLES: OnceLock<Vec<PlantMargins>> = OnceLock::new();
static INTERP: OnceLock<Vec<MarginInterp>> = OnceLock::new();

/// Round sampling periods used in practice (seconds), a 1-2-5-style
/// engineering series from 1 ms to 100 ms.
pub(crate) const PERIOD_SERIES: [f64; 14] = [
    0.001, 0.002, 0.0025, 0.004, 0.005, 0.008, 0.010, 0.020, 0.025, 0.040, 0.050, 0.080, 0.100,
    0.200,
];

/// Index of the [`PERIOD_SERIES`] member nearest to `h` in log distance.
///
/// NaN-safe by `f64::total_cmp` (the former `partial_cmp(..).unwrap()`
/// would panic on a NaN distance); a NaN input deterministically selects
/// one series member instead of crashing the generator.
fn snap_index(h: f64) -> usize {
    #[expect(clippy::expect_used, reason = "P001: the series is non-empty")]
    (0..PERIOD_SERIES.len())
        .min_by(|&x, &y| {
            let dx = (PERIOD_SERIES[x].ln() - h.ln()).abs();
            let dy = (PERIOD_SERIES[y].ln() - h.ln()).abs();
            dx.total_cmp(&dy)
        })
        .expect("series is non-empty")
}

/// Snaps a raw period to the nearest member of [`PERIOD_SERIES`] (in log
/// distance). The production grid uses [`snap_index`] directly; this
/// wrapper backs the NaN-safety regression test.
#[cfg(test)]
fn snap_to_series(h: f64) -> f64 {
    PERIOD_SERIES[snap_index(h)]
}

/// The margin tables of the full benchmark pool, computed on first use
/// and cached for the process lifetime.
///
/// # Panics
///
/// Panics if the pool itself cannot be constructed (a programming error)
/// or if *every* period of some plant fails to stabilize (would leave the
/// generators without material).
///
/// # Examples
///
/// ```
/// let tables = csa_experiments::margin_tables();
/// assert!(!tables.is_empty());
/// for t in tables {
///     for e in &t.entries {
///         assert!(e.a >= 1.0 && e.b > 0.0);
///     }
/// }
/// ```
pub fn margin_tables() -> &'static [PlantMargins] {
    warm_margin_tables(1)
}

/// [`margin_tables`], computing the cache (if still cold) with the
/// `(plant, grid period)` cells sharded across `threads` workers
/// (0 = available parallelism).
///
/// Every cell is an independent LQG design + margin-curve fit, so the
/// resulting tables are bit-identical at any thread count. Experiment
/// binaries call this once up front with their `--threads` setting;
/// later [`margin_tables`] calls from any thread reuse the cache.
pub fn warm_margin_tables(threads: usize) -> &'static [PlantMargins] {
    TABLES.get_or_init(|| compute_tables(threads))
}

/// The snapped-grid cache if some call already warmed it (used by the
/// artifact layer to avoid recomputation races).
pub(crate) fn margin_tables_if_warm() -> Option<&'static [PlantMargins]> {
    TABLES.get().map(Vec::as_slice)
}

/// The interpolant cache if some call already warmed it.
pub(crate) fn interp_tables_if_warm() -> Option<&'static [MarginInterp]> {
    INTERP.get().map(Vec::as_slice)
}

/// Seeds the snapped-grid cache from already-materialized tables (the
/// artifact load path); falls back to the existing cache when warm.
pub(crate) fn seed_margin_tables(tables: Vec<PlantMargins>) -> &'static [PlantMargins] {
    TABLES.get_or_init(|| tables)
}

/// Seeds the interpolant cache from already-materialized tables.
pub(crate) fn seed_interp_tables(tables: Vec<MarginInterp>) -> &'static [MarginInterp] {
    INTERP.get_or_init(|| tables)
}

/// One margin-table cell evaluated through a batched evaluator: the
/// fitted `(a, b)` pair of `plant` at the period `h`, or `None` when no
/// stabilizing design exists. The batched cells are bit-identical to the
/// one-shot `design_lqg` + `stability_curve` pipeline (pinned by
/// `csa-control`'s differential suite), so the tables are unchanged by
/// the batching.
fn compute_cell_with(
    batch: &mut StabilityCurveBatch,
    bp: &plants::BenchmarkPlant,
    h: f64,
) -> Option<MarginEntry> {
    batch
        .margin_cell(&bp.plant, &bp.weights, h, 0.0, CURVE_POINTS)
        .map(|(_, fit)| MarginEntry {
            period: h,
            a: fit.a,
            b: fit.b,
        })
}

pub(crate) fn compute_tables(threads: usize) -> Vec<PlantMargins> {
    #[expect(clippy::expect_used, reason = "P001: the compiled-in pool is valid")]
    let pool = plants::benchmark_pool().expect("benchmark pool must construct");
    // Deduplicated snapped grid per plant. Snap to the 1-2-5 engineering
    // series: real deployments use round sampling periods, and the
    // near-harmonic relations among them are precisely what lets
    // response-time fixed-point cascades — and hence the paper's
    // anomalies — occur at all. Dedup by series *index*: the former
    // float key `(h * 1e7) as u64` could alias distinct periods once
    // the grid densifies.
    let grids: Vec<Vec<f64>> = pool
        .iter()
        .map(|bp| {
            let (lo, hi) = bp.period_range;
            let mut seen = [false; PERIOD_SERIES.len()];
            let mut grid = Vec::with_capacity(GRID_POINTS);
            for h_raw in log_period_grid(lo, hi, GRID_POINTS) {
                let idx = snap_index(h_raw);
                if !seen[idx] {
                    seen[idx] = true;
                    grid.push(PERIOD_SERIES[idx]);
                }
            }
            grid
        })
        .collect();
    // One job per plant: a batched evaluator walks the plant's whole
    // grid so kernel workspaces are reused across cells. Cells stay
    // independent bit-identical computations, so the tables are the
    // same at any thread count.
    let entries = parallel_map(pool.len(), threads, |p| {
        let mut batch = StabilityCurveBatch::new();
        grids[p]
            .iter()
            .filter_map(|&h| compute_cell_with(&mut batch, &pool[p], h))
            .collect::<Vec<_>>()
    });
    let tables: Vec<PlantMargins> = pool
        .iter()
        .zip(entries)
        .map(|(bp, entries)| PlantMargins {
            name: bp.name,
            entries,
        })
        .collect();
    for (bp, table) in pool.iter().zip(&tables) {
        assert!(
            !table.entries.is_empty(),
            "plant {} has no stabilizable grid period",
            bp.name
        );
    }
    tables
}

// ---------------------------------------------------------------------------
// Continuous-period subsystem: dense raw grid + monotone interpolation.
// ---------------------------------------------------------------------------

/// One contiguous stabilizable span of a plant's dense grid, carrying a
/// shape-preserving (Fritsch–Carlson PCHIP) cubic Hermite interpolant of
/// the `(a, b)` coefficients in log-period, with *per-segment*
/// conservatism factors derived from held-out midpoint validation.
///
/// Factors are per segment on purpose: margin curves have local cliffs
/// (the fitted `a` can drop an order of magnitude between adjacent
/// knots), and a single run-wide factor would let one cliff segment
/// poison the whole run with absurdly conservative coefficients,
/// distorting the sampled distribution far from the true margins.
#[derive(Debug, Clone)]
pub struct InterpSegmentRun {
    /// First and last knot period in seconds (exact, not re-derived
    /// from `exp(x)` — the round trip can be off by an ulp, which would
    /// make the run's own endpoints fall outside it).
    pub(crate) p_lo: f64,
    /// See `p_lo`.
    pub(crate) p_hi: f64,
    /// Knot abscissae: `ln(period)` in increasing order (>= 2 knots).
    pub(crate) x: Vec<f64>,
    /// Knot jitter weights `a`.
    pub(crate) a: Vec<f64>,
    /// Knot delay budgets `b` (seconds).
    pub(crate) b: Vec<f64>,
    /// PCHIP tangents of `a` at the knots.
    pub(crate) ta: Vec<f64>,
    /// PCHIP tangents of `b` at the knots.
    pub(crate) tb: Vec<f64>,
    /// Per-segment multiplicative shrink applied to interpolated `b`
    /// (<= 1; `len == x.len() - 1`).
    pub(crate) shrink_b: Vec<f64>,
    /// Per-segment multiplicative inflation applied to interpolated `a`
    /// (>= 1; `len == x.len() - 1`).
    pub(crate) inflate_a: Vec<f64>,
}

impl InterpSegmentRun {
    /// Period range covered by this run, in seconds.
    pub fn period_range(&self) -> (f64, f64) {
        (self.p_lo, self.p_hi)
    }

    /// Segment index `k` with `x` in `[x_k, x_{k+1}]`: count interior
    /// knots at or below `x` (endpoints clamp into the run).
    fn segment_of(&self, x: f64) -> usize {
        self.x[1..self.x.len() - 1].partition_point(|&xk| xk <= x)
    }

    /// Raw (pre-safety-factor) Hermite evaluation at `ln h = x`.
    fn eval_raw(&self, k: usize, x: f64) -> (f64, f64) {
        let (x0, x1) = (self.x[k], self.x[k + 1]);
        let w = x1 - x0;
        let t = ((x - x0) / w).clamp(0.0, 1.0);
        let t2 = t * t;
        let t3 = t2 * t;
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        let a =
            h00 * self.a[k] + h10 * w * self.ta[k] + h01 * self.a[k + 1] + h11 * w * self.ta[k + 1];
        let b =
            h00 * self.b[k] + h10 * w * self.tb[k] + h01 * self.b[k + 1] + h11 * w * self.tb[k + 1];
        (a, b)
    }

    /// Conservative evaluation at period `h` (must lie inside the run).
    fn eval(&self, h: f64) -> MarginEntry {
        let x = h.ln();
        let k = self.segment_of(x);
        let (a, b) = self.eval_raw(k, x);
        MarginEntry {
            period: h,
            a: (a * self.inflate_a[k]).max(1.0),
            b: (b * self.shrink_b[k]).max(f64::MIN_POSITIVE),
        }
    }
}

/// Continuous-period margin interpolant of one benchmark plant: monotone
/// PCHIP interpolation of the dense-grid `(a, b)` coefficients in
/// log-period, validated for conservatism against freshly computed
/// [`StabilityFit`](csa_control::StabilityFit)s on held-out midpoint
/// periods.
///
/// Unstabilizable stretches of the period range (and segments whose
/// held-out midpoint fails to stabilize) are holes: [`MarginInterp::eval`]
/// returns `None` there, and the generator's period draw never lands in
/// them.
#[derive(Debug, Clone)]
pub struct MarginInterp {
    /// Plant name (matches `csa_control::plants::benchmark_pool`).
    pub name: &'static str,
    /// Contiguous interpolation runs, ordered by increasing period.
    pub(crate) runs: Vec<InterpSegmentRun>,
}

impl MarginInterp {
    /// The contiguous interpolation runs (for tests and diagnostics).
    pub fn runs(&self) -> &[InterpSegmentRun] {
        &self.runs
    }

    /// `true` when the plant has at least one interpolable span.
    pub fn is_usable(&self) -> bool {
        !self.runs.is_empty()
    }

    /// Smallest and largest supported period, or `None` when unusable.
    pub fn period_range(&self) -> Option<(f64, f64)> {
        let first = self.runs.first()?;
        let last = self.runs.last()?;
        Some((first.period_range().0, last.period_range().1))
    }

    /// Conservative `(a, b)` coefficients at an arbitrary period, or
    /// `None` when `h` falls outside every stabilizable run.
    pub fn eval(&self, h: f64) -> Option<MarginEntry> {
        self.runs
            .iter()
            .find(|r| {
                let (lo, hi) = r.period_range();
                h >= lo && h <= hi
            })
            .map(|r| r.eval(h))
    }

    /// Draws a period log-uniformly over the union of stabilizable runs
    /// (runs weighted by their log-width, so the density matches a
    /// log-uniform draw over the union), with its coefficients. The
    /// picked run contains the clamped period and runs are disjoint, so
    /// the entry equals [`MarginInterp::eval`] at that period bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when the plant has no usable run (callers filter with
    /// [`MarginInterp::is_usable`]).
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> MarginEntry {
        assert!(self.is_usable(), "{}: no interpolable span", self.name);
        let widths: Vec<f64> = self
            .runs
            .iter()
            .map(|r| {
                let (lo, hi) = r.period_range();
                (hi / lo).ln()
            })
            .collect();
        let total: f64 = widths.iter().sum();
        let mut pick = rng.gen::<f64>() * total;
        let mut idx = 0;
        for (i, w) in widths.iter().enumerate() {
            if pick < *w || i == widths.len() - 1 {
                idx = i;
                break;
            }
            pick -= w;
        }
        let (lo, hi) = self.runs[idx].period_range();
        // Clamp both the interpolation parameter and the result: the
        // sequential width subtraction above (and `powf` itself) can
        // land an ulp outside the run, which `eval` would reject.
        let t = (pick / widths[idx]).clamp(0.0, 1.0);
        self.runs[idx].eval(log_period_point(lo, hi, t).clamp(lo, hi))
    }
}

/// PCHIP (Fritsch–Carlson) tangents for knots `(x, y)`: shape-preserving,
/// never overshooting the local data interval.
fn pchip_tangents(x: &[f64], y: &[f64]) -> Vec<f64> {
    let n = x.len();
    debug_assert!(n >= 2);
    let h: Vec<f64> = (0..n - 1).map(|k| x[k + 1] - x[k]).collect();
    let d: Vec<f64> = (0..n - 1).map(|k| (y[k + 1] - y[k]) / h[k]).collect();
    if n == 2 {
        return vec![d[0], d[0]];
    }
    let mut m = vec![0.0; n];
    for k in 1..n - 1 {
        if d[k - 1] * d[k] <= 0.0 {
            m[k] = 0.0;
        } else {
            let w1 = 2.0 * h[k] + h[k - 1];
            let w2 = h[k] + 2.0 * h[k - 1];
            m[k] = (w1 + w2) / (w1 / d[k - 1] + w2 / d[k]);
        }
    }
    m[0] = pchip_endpoint(h[0], h[1], d[0], d[1]);
    m[n - 1] = pchip_endpoint(h[n - 2], h[n - 3], d[n - 2], d[n - 3]);
    m
}

/// One-sided shape-preserving endpoint tangent (as in SciPy's `pchip`).
fn pchip_endpoint(h0: f64, h1: f64, d0: f64, d1: f64) -> f64 {
    let mut m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1);
    if m * d0 <= 0.0 {
        m = 0.0;
    } else if d0 * d1 < 0.0 && m.abs() > 3.0 * d0.abs() {
        m = 3.0 * d0;
    }
    m
}

/// The continuous-period margin interpolants of the benchmark pool,
/// computed on first use and cached for the process lifetime (see
/// [`warm_interpolated_tables`] for the parallel warm-up).
///
/// # Examples
///
/// ```
/// let interp = csa_experiments::interpolated_tables();
/// let usable = interp.iter().filter(|t| t.is_usable()).count();
/// assert!(usable >= 3, "most pool plants must support interpolation");
/// ```
pub fn interpolated_tables() -> &'static [MarginInterp] {
    warm_interpolated_tables(1)
}

/// [`interpolated_tables`], warming the cache (if cold) with the dense
/// grid and held-out validation cells sharded across `threads` workers
/// (0 = available parallelism). Bit-identical at any thread count.
pub fn warm_interpolated_tables(threads: usize) -> &'static [MarginInterp] {
    INTERP.get_or_init(|| compute_interp_tables(threads))
}

pub(crate) fn compute_interp_tables(threads: usize) -> Vec<MarginInterp> {
    #[expect(clippy::expect_used, reason = "P001: the compiled-in pool is valid")]
    let pool = plants::benchmark_pool().expect("benchmark pool must construct");
    // Pass 1: dense raw grid (no snapping — the whole point is to cover
    // periods between the engineering-series members), one batched
    // evaluator walk per plant.
    let knots = parallel_map(pool.len(), threads, |p| {
        let (lo, hi) = pool[p].period_range;
        let mut batch = StabilityCurveBatch::new();
        log_period_grid(lo, hi, DENSE_GRID_POINTS)
            .into_iter()
            .map(|h| compute_cell_with(&mut batch, &pool[p], h))
            .collect::<Vec<_>>()
    });
    // Split each plant's dense grid into contiguous stabilizable runs.
    let mut runs_raw: Vec<Vec<Vec<MarginEntry>>> = vec![Vec::new(); pool.len()];
    for (p, entries) in knots.iter().enumerate() {
        let mut current: Vec<MarginEntry> = Vec::new();
        for e in entries {
            match e {
                Some(e) => current.push(*e),
                None => {
                    if current.len() >= 2 {
                        runs_raw[p].push(std::mem::take(&mut current));
                    } else {
                        current.clear();
                    }
                }
            }
        }
        if current.len() >= 2 {
            runs_raw[p].push(current);
        }
    }
    // Pass 2: held-out validation cells — the geometric midpoint of every
    // knot segment. A midpoint that fails to stabilize splits its run; a
    // stabilizing midpoint contributes to the run's conservatism factors.
    // Again one batched walk per plant, midpoints in (run, segment) order.
    let mid_fits = parallel_map(pool.len(), threads, |p| {
        let mut batch = StabilityCurveBatch::new();
        runs_raw[p]
            .iter()
            .map(|run| {
                run.windows(2)
                    .map(|w| (w[0].period * w[1].period).sqrt())
                    .map(|h| compute_cell_with(&mut batch, &pool[p], h))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    pool.iter()
        .zip(runs_raw.iter().zip(&mid_fits))
        .map(|(bp, (runs, fits))| {
            let mut validated = Vec::new();
            for (run, fits) in runs.iter().zip(fits) {
                // Knots of the current validated span and the fresh
                // midpoint fits of its segments.
                let mut span = run[..1].to_vec();
                let mut span_fits = Vec::new();
                for (&knot, fit) in run[1..].iter().zip(fits) {
                    if let Some(fit) = fit {
                        span.push(knot);
                        span_fits.push(*fit);
                        continue;
                    }
                    if !span_fits.is_empty() {
                        validated.push(build_run(&span, &span_fits));
                    }
                    span = vec![knot];
                    span_fits.clear();
                }
                if !span_fits.is_empty() {
                    validated.push(build_run(&span, &span_fits));
                }
            }
            MarginInterp {
                name: bp.name,
                runs: validated,
            }
        })
        .collect()
}

/// Builds one interpolation run from its knots plus the held-out midpoint
/// fits (`seg_fits[k]` is the fresh fit at the geometric midpoint of
/// segment `k`), deriving each segment's conservatism factors: shrink
/// `b` and inflate `a` until the interpolant is at least
/// [`INTERP_SAFETY`] inside the segment's freshly computed fit.
fn build_run(span: &[MarginEntry], seg_fits: &[MarginEntry]) -> InterpSegmentRun {
    debug_assert_eq!(span.len(), seg_fits.len() + 1);
    let x: Vec<f64> = span.iter().map(|e| e.period.ln()).collect();
    let a: Vec<f64> = span.iter().map(|e| e.a).collect();
    let b: Vec<f64> = span.iter().map(|e| e.b).collect();
    let ta = pchip_tangents(&x, &a);
    let tb = pchip_tangents(&x, &b);
    let mut run = InterpSegmentRun {
        p_lo: span[0].period,
        p_hi: span[span.len() - 1].period,
        x,
        a,
        b,
        ta,
        tb,
        shrink_b: vec![1.0; seg_fits.len()],
        inflate_a: vec![1.0; seg_fits.len()],
    };
    for (k, fresh) in seg_fits.iter().enumerate() {
        let (raw_a, raw_b) = run.eval_raw(k, fresh.period.ln());
        let mut shrink = 1.0f64;
        let mut inflate = 1.0f64;
        if raw_b > 0.0 {
            shrink = (fresh.b / raw_b).min(1.0);
        }
        if raw_a > 0.0 {
            inflate = (fresh.a / raw_a).max(1.0);
        }
        run.shrink_b[k] = shrink * (1.0 - INTERP_SAFETY);
        run.inflate_a[k] = inflate * (1.0 + INTERP_SAFETY);
    }
    run
}

/// Freshly computes the exact `(a, b)` fit of the named pool plant at
/// period `h` — the ground truth the interpolant must stay conservative
/// against (used by the validation property tests; this is the expensive
/// path the interpolant exists to avoid).
pub fn fresh_margin_fit(plant: &str, h: f64) -> Option<MarginEntry> {
    #[expect(clippy::expect_used, reason = "P001: the compiled-in pool is valid")]
    let pool = plants::benchmark_pool().expect("benchmark pool must construct");
    let mut batch = StabilityCurveBatch::new();
    pool.iter()
        .find(|bp| bp.name == plant)
        .and_then(|bp| compute_cell_with(&mut batch, bp, h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_periods_come_from_series() {
        for t in margin_tables() {
            for e in &t.entries {
                assert!(
                    super::PERIOD_SERIES
                        .iter()
                        .any(|&s| (s - e.period).abs() < 1e-12),
                    "{}: period {} not in the 1-2-5 series",
                    t.name,
                    e.period
                );
            }
        }
    }

    #[test]
    fn tables_cover_pool_and_satisfy_constraints() {
        let tables = margin_tables();
        assert_eq!(
            tables.len(),
            plants::benchmark_pool().unwrap().len(),
            "one table per pool plant"
        );
        for t in tables {
            assert!(!t.entries.is_empty(), "{} empty", t.name);
            for e in &t.entries {
                assert!(e.a >= 1.0, "{}: a = {}", t.name, e.a);
                assert!(e.b > 0.0 && e.b.is_finite(), "{}: b = {}", t.name, e.b);
                assert!(e.period > 0.0);
            }
            // Entries ordered by period.
            for w in t.entries.windows(2) {
                assert!(w[0].period < w[1].period);
            }
        }
    }

    #[test]
    fn margins_are_binding_scale() {
        // The generator needs constraints that can actually bind: for
        // most plants b should be within a few periods.
        let tables = margin_tables();
        let mut binding = 0usize;
        let mut total = 0usize;
        for t in tables {
            for e in &t.entries {
                total += 1;
                if e.b < 5.0 * e.period {
                    binding += 1;
                }
            }
        }
        assert!(
            binding * 2 >= total,
            "only {binding}/{total} margin entries are within 5 periods"
        );
    }

    #[test]
    fn tables_are_cached() {
        let a = margin_tables().as_ptr();
        let b = margin_tables().as_ptr();
        assert_eq!(a, b);
    }

    #[test]
    fn snap_survives_nan_and_extremes() {
        // Regression for the former `partial_cmp(..).unwrap()` sort: a
        // NaN period must select *some* series member deterministically,
        // never panic. (The same NaN-unsafe pattern PR 2 removed from
        // the MaxSlackFirst candidate sort.)
        for h in [f64::NAN, f64::INFINITY, 0.0, -1.0, 1e300, 1e-300] {
            let s = snap_to_series(h);
            assert!(PERIOD_SERIES.contains(&s), "snap({h}) = {s} not in series");
        }
        // Sane values snap to the nearest member in log distance.
        assert_eq!(snap_to_series(0.0045), 0.005);
        assert_eq!(snap_to_series(0.0009), 0.001);
        assert_eq!(snap_to_series(0.3), 0.2);
    }

    #[test]
    fn interp_covers_pool_with_ordered_runs() {
        let tables = interpolated_tables();
        assert_eq!(tables.len(), plants::benchmark_pool().unwrap().len());
        let usable = tables.iter().filter(|t| t.is_usable()).count();
        assert!(usable >= 3, "only {usable} plants interpolable");
        for t in tables {
            let mut prev_hi = 0.0;
            for r in t.runs() {
                let (lo, hi) = r.period_range();
                assert!(lo < hi, "{}: degenerate run", t.name);
                assert!(lo > prev_hi, "{}: runs out of order", t.name);
                prev_hi = hi;
            }
        }
    }

    #[test]
    fn interp_eval_is_sane_inside_and_none_outside() {
        for t in interpolated_tables() {
            let Some((lo, hi)) = t.period_range() else {
                continue;
            };
            assert!(t.eval(lo * 0.5).is_none());
            assert!(t.eval(hi * 2.0).is_none());
            let mid = (lo * hi).sqrt();
            if let Some(e) = t.eval(mid) {
                assert!(e.a >= 1.0, "{}: a = {}", t.name, e.a);
                assert!(e.b > 0.0 && e.b.is_finite(), "{}: b = {}", t.name, e.b);
            }
        }
    }

    #[test]
    fn interp_matches_knot_neighborhood() {
        // At a knot period the conservative interpolant must stay within
        // the safety factor of the knot's own fitted coefficients.
        for t in interpolated_tables() {
            for r in t.runs() {
                for (k, &xk) in r.x.iter().enumerate() {
                    let e = r.eval(xk.exp());
                    assert!(
                        e.b <= r.b[k] * 1.0000001,
                        "{}: interpolated b {} above knot b {}",
                        t.name,
                        e.b,
                        r.b[k]
                    );
                    assert!(
                        e.a >= r.a[k] * 0.9999999 - 1e-12 || e.a >= 1.0,
                        "{}: interpolated a {} below knot a {}",
                        t.name,
                        e.a,
                        r.a[k]
                    );
                }
            }
        }
    }

    #[test]
    fn sampled_periods_stay_supported() {
        let mut rng = StdRng::seed_from_u64(9);
        for t in interpolated_tables() {
            if !t.is_usable() {
                continue;
            }
            for _ in 0..50 {
                let h = t.sample(&mut rng).period;
                assert!(
                    t.eval(h).is_some(),
                    "{}: sampled period {h} unsupported",
                    t.name
                );
            }
        }
    }

    #[test]
    fn pchip_is_shape_preserving_on_monotone_data() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [1.0, 2.0, 4.0, 8.0];
        let m = pchip_tangents(&x, &y);
        assert!(m.iter().all(|&t| t >= 0.0), "tangents {m:?}");
        // At a local extremum the interior tangent vanishes.
        let y2 = [1.0, 3.0, 2.0, 4.0];
        let m2 = pchip_tangents(&x, &y2);
        assert_eq!(m2[1], 0.0);
        assert_eq!(m2[2], 0.0);
    }
}
