//! Jitter-margin stability curves and their linear lower bounds.
//!
//! This module replaces the closed-source Jitter Margin toolbox the paper
//! acknowledges (see DESIGN.md §3), using a discrete-time small-gain
//! criterion in the style of Kao & Lincoln (Automatica 2004).
//!
//! Setup: continuous plant, fixed sampled LQG controller at period `h`,
//! constant latency `L = d*h + tau'`, and an uncertain extra delay
//! `delta_k in [0, J]` on each control update. Shifting the actuation
//! switch instant from `tau'` to `tau' + delta_k` perturbs the sampled
//! state update by
//!
//! ```text
//! F(delta_k) (v_{k-1} - v_k),   F(delta) = int_{tau'}^{tau'+delta} e^{A(h-s)} ds B
//! ```
//!
//! where `v_k = u_{k-d}` is the control value being switched in. To first
//! order `F(delta) = delta * g` with the fixed direction
//! `g = e^{A(h-tau')} B`, so the uncertainty is a memoryless gain
//! `delta_k in [0, J]` wrapped around the LTI loop from a state injection
//! `g` to the update difference `(1 - z^{-1}) v`. The small-gain theorem
//! then guarantees stability for every time-varying delay when
//!
//! ```text
//! J * |1 - e^{-j w h}| * |G_{u <- g}(e^{j w h})| < 1,  w in (0, pi/h]
//! ```
//!
//! (the `z^{-d}` between `u` and `v` has unit modulus), giving
//!
//! ```text
//! J_max(L) = 1 / sup_w |1 - e^{-j w h}| |G_{u <- g}(e^{j w h})|
//! ```
//!
//! with `J_max(L) = 0` if the latency-`L` loop is not even nominally
//! stable. Sweeping `L` yields the paper's Fig. 4 stability curves, and
//! [`StabilityFit`] produces the linear lower bound `L + a J <= b` of
//! Eq. 5.

//! # The margin kernel (DESIGN.md §10)
//!
//! The margin computations run on a re-entrant [`MarginScratch`]
//! workspace; the public [`jitter_margin`], [`delay_margin`] and
//! [`stability_curve`] run it on a fresh one, and the persisted margin
//! tables and the Fig. 4 curves run on it too. Its jitter margins are
//! pinned bit for bit against [`crate::reference`], which sweeps the same
//! criterion with one dense solve per frequency; its delay margins are
//! pinned by value. [`StabilityCurveBatch`] bundles a scratch with an
//! [`LqgDesigner`] to walk whole period grids per plant.

use crate::c2d::{c2d_zoh_delayed, delay_split};
use crate::error::{Error, Result};
use crate::freq::ResponseScratch;
use crate::lqg::{input_sensitivity_loop, LqgDesigner, LqgWeights};
use crate::ss::{DiscreteSs, StateSpace};
use csa_linalg::{expm, Cplx, EigScratch, Mat};

/// Number of frequency grid points for the small-gain sweep.
pub(crate) const FREQ_POINTS: usize = 600;
/// Jitter margins are reported at most this many sampling periods — the
/// criterion is meaningless for jitter far beyond a period (the scheduler
/// cannot produce it under implicit deadlines anyway).
pub(crate) const JITTER_CAP_PERIODS: f64 = 20.0;

/// One point of a stability curve: at constant latency `latency`, any
/// response-time jitter up to `jitter_margin` preserves stability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Constant part of the delay (seconds).
    pub latency: f64,
    /// Maximum tolerable jitter at this latency (seconds).
    pub jitter_margin: f64,
}

/// A jitter-margin stability curve for one plant/controller/period triple.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityCurve {
    points: Vec<CurvePoint>,
    delay_margin: f64,
    period: f64,
}

impl StabilityCurve {
    /// The sampled curve points, ordered by increasing latency.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// The delay margin: the supremum of constant latencies that keep the
    /// loop nominally stable (the curve's intercept with `J = 0`).
    pub fn delay_margin(&self) -> f64 {
        self.delay_margin
    }

    /// Sampling period the curve was computed for.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Assembles a curve from already-computed parts (the reference
    /// module).
    pub(crate) fn from_parts(points: Vec<CurvePoint>, delay_margin: f64, period: f64) -> Self {
        StabilityCurve {
            points,
            delay_margin,
            period,
        }
    }
}

/// Re-entrant workspace for jitter-margin evaluations.
///
/// Holds the eigensolver and dense-response buffers plus the cached
/// frequency-sweep tables, so that sweeping a whole stability curve — or
/// a whole period grid via [`StabilityCurveBatch`] — performs no
/// per-frequency allocations. Every jitter margin is bit-identical to the
/// dense per-frequency sweep of [`crate::reference::jitter_margin`].
#[derive(Debug)]
pub struct MarginScratch {
    eig: EigScratch,
    resp: ResponseScratch,
    // Cached frequency-sweep tables (grid frequencies, unit-circle points
    // and discrete-derivative weights), keyed on the (h, loop period) bit
    // patterns. Pure functions of the key computed with the pinned
    // per-point formulas, so reuse is bit-transparent.
    sweep_key: Option<(u64, u64)>,
    sweep_z: Vec<Cplx>,
    sweep_deriv: Vec<f64>,
}

impl MarginScratch {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        MarginScratch {
            eig: EigScratch::new(),
            resp: ResponseScratch::new(),
            sweep_key: None,
            sweep_z: Vec::new(),
            sweep_deriv: Vec::new(),
        }
    }

    /// (Re)builds the cached sweep tables for sampling period `h` and loop
    /// period `period`. Each entry is computed with exactly the per-point
    /// formulas of the reference sweep loop, so a cached value is
    /// bit-identical to the value the loop would have recomputed.
    fn sweep_tables(&mut self, h: f64, period: f64) {
        let key = (h.to_bits(), period.to_bits());
        if self.sweep_key == Some(key) {
            return;
        }
        self.sweep_z.clear();
        self.sweep_deriv.clear();
        let w_max = std::f64::consts::PI / h;
        let w_min = w_max / 1e4;
        let log_step = (w_max / w_min).ln() / (FREQ_POINTS - 1) as f64;
        for i in 0..FREQ_POINTS {
            let w = w_min * (log_step * i as f64).exp();
            self.sweep_z.push(Cplx::from_angle(w * period));
            // |1 - e^{-j w h}| — the discrete-derivative weight on v.
            self.sweep_deriv
                .push((Cplx::ONE - Cplx::from_angle(-w * h)).abs());
        }
        self.sweep_key = Some(key);
    }

    /// Computes the jitter margin `J_max` at one latency; semantics of
    /// [`jitter_margin`].
    ///
    /// # Errors
    ///
    /// Same as [`jitter_margin`].
    pub fn jitter_margin(
        &mut self,
        plant: &StateSpace,
        controller: &DiscreteSs,
        h: f64,
        latency: f64,
    ) -> Result<f64> {
        if !(latency.is_finite() && latency >= 0.0) {
            return Err(Error::InvalidParameter("latency must be non-negative"));
        }
        let plant_l = c2d_zoh_delayed(plant, h, latency)?;
        // Injection direction g = e^{A(h - tau')} B of the first-order delay
        // perturbation, padded across the delay registers.
        let (_, tau_frac) = delay_split(h, latency);
        let g = &expm(&plant.a().scale(h - tau_frac))? * plant.b();
        let loop_sys = injection_loop(&plant_l, controller, &g)?;
        if self.eig.spectral_radius_in(loop_sys.a())? >= 1.0 {
            return Ok(0.0);
        }
        self.sweep_tables(h, loop_sys.period());
        let m00s = self.resp.sweep(
            loop_sys.a(),
            loop_sys.b(),
            loop_sys.c(),
            loop_sys.d(),
            &self.sweep_z,
        )?;
        let mut j_max = JITTER_CAP_PERIODS * h;
        for (&m00, &deriv) in m00s.iter().zip(&self.sweep_deriv) {
            let gain = deriv * m00.abs();
            if gain > 0.0 {
                j_max = j_max.min(1.0 / gain);
            }
        }
        Ok(j_max)
    }

    /// Computes the delay margin; semantics of [`delay_margin`].
    ///
    /// # Errors
    ///
    /// Same as [`delay_margin`].
    pub fn delay_margin(
        &mut self,
        plant: &StateSpace,
        controller: &DiscreteSs,
        h: f64,
    ) -> Result<f64> {
        let cap = JITTER_CAP_PERIODS * h;
        let eig = &mut self.eig;
        let mut stable_at = |l: f64| -> Result<bool> {
            let plant_l = c2d_zoh_delayed(plant, h, l)?;
            let loop_sys = input_sensitivity_loop(&plant_l, controller)?;
            Ok(eig.spectral_radius_in(loop_sys.a())? < 1.0)
        };
        if !stable_at(0.0)? {
            return Ok(0.0);
        }
        // Coarse scan to bracket the boundary.
        let step = h / 4.0;
        let mut lo = 0.0;
        let mut hi = cap;
        let mut found_unstable = false;
        let mut l = step;
        while l <= cap {
            if !stable_at(l)? {
                hi = l;
                found_unstable = true;
                break;
            }
            lo = l;
            l += step;
        }
        if !found_unstable {
            return Ok(cap);
        }
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if stable_at(mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-9 * h.max(1e-9) {
                break;
            }
        }
        Ok(lo)
    }

    /// Sweeps the full stability curve; semantics of [`stability_curve`].
    ///
    /// # Errors
    ///
    /// Same as [`stability_curve`].
    pub fn stability_curve(
        &mut self,
        plant: &StateSpace,
        controller: &DiscreteSs,
        h: f64,
        points: usize,
    ) -> Result<StabilityCurve> {
        if points < 2 {
            return Err(Error::InvalidParameter("curve needs at least two points"));
        }
        let dm = self.delay_margin(plant, controller, h)?;
        let mut curve = Vec::with_capacity(points);
        for i in 0..points {
            let l = dm * i as f64 / (points - 1) as f64;
            let j = self.jitter_margin(plant, controller, h, l)?;
            curve.push(CurvePoint {
                latency: l,
                jitter_margin: j,
            });
        }
        Ok(StabilityCurve {
            points: curve,
            delay_margin: dm,
            period: h,
        })
    }
}

impl Default for MarginScratch {
    fn default() -> Self {
        MarginScratch::new()
    }
}

/// Computes the jitter margin `J_max` for a fixed latency.
///
/// Returns `0.0` when the latency-`L` loop is nominally unstable, and a
/// value capped at `20 h` when the small-gain constraint set is empty.
/// Bit-identical to [`crate::reference::jitter_margin`].
///
/// # Errors
///
/// Propagates structural/numerical failures (dimension mismatches and the
/// like); "no margin" is the value `0.0`, not an error.
///
/// # Examples
///
/// ```
/// use csa_control::{design_lqg, jitter_margin, plants, LqgWeights};
///
/// # fn main() -> Result<(), csa_control::Error> {
/// let plant = plants::dc_servo()?;
/// let w = LqgWeights::output_regulation(&plant, 1e-4, 1e-6);
/// let lqg = design_lqg(&plant, &w, 0.006, 0.0)?;
/// let j0 = jitter_margin(&plant, &lqg.controller, 0.006, 0.0)?;
/// assert!(j0 > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn jitter_margin(
    plant: &StateSpace,
    controller: &DiscreteSs,
    h: f64,
    latency: f64,
) -> Result<f64> {
    MarginScratch::new().jitter_margin(plant, controller, h, latency)
}

/// Assembles the closed loop with an exogenous input entering the plant
/// *state* through column `g` (zero-padded across the delay registers) and
/// the controller output `u` as output.
pub(crate) fn injection_loop(
    plant_d: &DiscreteSs,
    ctrl: &DiscreteSs,
    g: &Mat,
) -> Result<DiscreteSs> {
    // Reuse the validated plant-input loop for the A matrix, then swap the
    // input matrix for the state injection.
    let base = input_sensitivity_loop(plant_d, ctrl)?;
    let np = plant_d.order();
    let nc = ctrl.order();
    let mut b = Mat::zeros(np + nc, g.cols());
    b.set_block(0, 0, g);
    DiscreteSs::new(
        base.a().clone(),
        b,
        base.c().clone(),
        Mat::zeros(base.outputs(), g.cols()),
        plant_d.period(),
    )
}

/// Computes the delay margin: the largest constant latency keeping the
/// loop nominally stable, found by coarse scan plus bisection, capped at
/// `20 h`.
///
/// # Errors
///
/// Propagates numerical failures.
pub fn delay_margin(plant: &StateSpace, controller: &DiscreteSs, h: f64) -> Result<f64> {
    MarginScratch::new().delay_margin(plant, controller, h)
}

/// Sweeps the jitter margin over a latency grid, producing a full
/// stability curve (the paper's Fig. 4).
///
/// The grid spans `[0, delay_margin]` with `points` samples. Bit-identical
/// to [`crate::reference::stability_curve`].
///
/// # Errors
///
/// Propagates numerical failures; `points < 2` is rejected.
pub fn stability_curve(
    plant: &StateSpace,
    controller: &DiscreteSs,
    h: f64,
    points: usize,
) -> Result<StabilityCurve> {
    MarginScratch::new().stability_curve(plant, controller, h, points)
}

/// Batched stability-curve evaluator: one LQG designer plus one
/// [`MarginScratch`], reused across a whole period grid per plant.
///
/// Walking a grid amortizes every workspace allocation, and every
/// produced float is bit-identical to the one-shot
/// [`design_lqg`](crate::design_lqg) + [`stability_curve`] pipeline. The
/// persisted margin tables are built with it.
#[derive(Debug, Default)]
pub struct StabilityCurveBatch {
    designer: LqgDesigner,
    scratch: MarginScratch,
}

impl StabilityCurveBatch {
    /// Creates a batch evaluator.
    pub fn new() -> Self {
        StabilityCurveBatch::default()
    }

    /// Designs the LQG controller for `(plant, weights, h, tau)` and
    /// sweeps its stability curve plus Eq. 5 fit.
    ///
    /// # Errors
    ///
    /// Propagates design failures ([`Error::NotStabilizable`] at
    /// pathological periods) and curve failures.
    pub fn curve_at(
        &mut self,
        plant: &StateSpace,
        weights: &LqgWeights,
        h: f64,
        tau: f64,
        points: usize,
    ) -> Result<(StabilityCurve, StabilityFit)> {
        let lqg = self.designer.design(plant, weights, h, tau)?;
        let curve = self
            .scratch
            .stability_curve(plant, &lqg.controller, h, points)?;
        let fit = StabilityFit::from_curve(&curve);
        Ok((curve, fit))
    }

    /// [`StabilityCurveBatch::curve_at`] with the margin-table cell
    /// semantics: `None` when the plant cannot be designed at `h`, when
    /// the curve fails, or when the delay margin is zero (an unusable
    /// cell), `Some` otherwise.
    pub fn margin_cell(
        &mut self,
        plant: &StateSpace,
        weights: &LqgWeights,
        h: f64,
        tau: f64,
        points: usize,
    ) -> Option<(StabilityCurve, StabilityFit)> {
        match self.curve_at(plant, weights, h, tau, points) {
            Ok((curve, fit)) if curve.delay_margin() > 0.0 => Some((curve, fit)),
            _ => None,
        }
    }

    /// Walks an increasing period grid, producing one optional cell per
    /// period (see [`StabilityCurveBatch::margin_cell`]).
    pub fn curve_grid(
        &mut self,
        plant: &StateSpace,
        weights: &LqgWeights,
        periods: &[f64],
        tau: f64,
        points: usize,
    ) -> Vec<Option<(StabilityCurve, StabilityFit)>> {
        periods
            .iter()
            .map(|&h| self.margin_cell(plant, weights, h, tau, points))
            .collect()
    }
}

/// The linear lower bound `L + a J <= b` of the paper's Eq. 5, fitted
/// under a [`StabilityCurve`].
///
/// `a >= 1` and `b >= 0` always hold, matching the paper's constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityFit {
    /// Jitter weight `a >= 1`.
    pub a: f64,
    /// Delay budget `b >= 0` (seconds).
    pub b: f64,
}

impl StabilityFit {
    /// Fits the bound to a curve: `b` is the delay margin and `a` the
    /// smallest slope weight (at least 1) keeping the line `J = (b - L)/a`
    /// below every sampled curve point.
    pub fn from_curve(curve: &StabilityCurve) -> StabilityFit {
        let b = curve.delay_margin();
        let mut a = 1.0f64;
        for p in curve.points() {
            if p.jitter_margin > 1e-12 && p.latency < b {
                a = a.max((b - p.latency) / p.jitter_margin);
            }
        }
        StabilityFit { a, b }
    }

    /// The stability test of Eq. 5: `L + a J <= b`.
    ///
    /// # Examples
    ///
    /// ```
    /// use csa_control::StabilityFit;
    ///
    /// let fit = StabilityFit { a: 1.5, b: 0.010 };
    /// assert!(fit.is_stable(0.004, 0.004));
    /// assert!(!fit.is_stable(0.004, 0.005));
    /// ```
    pub fn is_stable(&self, latency: f64, jitter: f64) -> bool {
        latency + self.a * jitter <= self.b
    }

    /// Maximum jitter the linear bound permits at a given latency
    /// (clamped at zero).
    pub fn max_jitter(&self, latency: f64) -> f64 {
        ((self.b - latency) / self.a).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lqg::{design_lqg, LqgWeights};
    use crate::plants;

    fn servo_lqg(h: f64) -> (StateSpace, DiscreteSs) {
        let plant = plants::dc_servo().unwrap();
        let w = LqgWeights::output_regulation(&plant, 1e-4, 1e-6);
        let lqg = design_lqg(&plant, &w, h, 0.0).unwrap();
        (plant, lqg.controller)
    }

    #[test]
    fn margin_positive_at_zero_latency() {
        let (plant, ctrl) = servo_lqg(0.006);
        let j = jitter_margin(&plant, &ctrl, 0.006, 0.0).unwrap();
        assert!(j > 0.0, "J_max(0) = {j}");
        assert!(j < 0.12, "J_max(0) = {j} looks unphysically large");
    }

    #[test]
    fn margin_zero_beyond_delay_margin() {
        let (plant, ctrl) = servo_lqg(0.006);
        let dm = delay_margin(&plant, &ctrl, 0.006).unwrap();
        assert!(dm > 0.0);
        let j = jitter_margin(&plant, &ctrl, 0.006, dm * 1.05).unwrap();
        assert_eq!(j, 0.0);
    }

    #[test]
    fn curve_is_broadly_decreasing() {
        let (plant, ctrl) = servo_lqg(0.006);
        let curve = stability_curve(&plant, &ctrl, 0.006, 25).unwrap();
        let pts = curve.points();
        assert_eq!(pts.len(), 25);
        // Endpoints: decreasing overall.
        assert!(pts[0].jitter_margin > pts[pts.len() - 2].jitter_margin);
        // Last point is at the delay margin; margin there is ~0.
        assert!(pts[pts.len() - 1].jitter_margin < 0.35 * pts[0].jitter_margin);
        // Latencies are increasing.
        for w in pts.windows(2) {
            assert!(w[1].latency > w[0].latency);
        }
    }

    #[test]
    fn fit_is_below_curve_with_valid_coefficients() {
        let (plant, ctrl) = servo_lqg(0.006);
        let curve = stability_curve(&plant, &ctrl, 0.006, 30).unwrap();
        let fit = StabilityFit::from_curve(&curve);
        assert!(fit.a >= 1.0, "a = {}", fit.a);
        assert!(fit.b > 0.0, "b = {}", fit.b);
        for p in curve.points() {
            let line = fit.max_jitter(p.latency);
            assert!(
                line <= p.jitter_margin + 1e-12,
                "line {line} above curve {} at L={}",
                p.jitter_margin,
                p.latency
            );
        }
    }

    #[test]
    fn small_gain_margin_within_delay_margin() {
        // Consistency: exhausting the jitter margin as *constant* delay
        // must not exceed the delay margin (constant delay is one
        // admissible realization of the time-varying uncertainty). The
        // criterion linearizes the delay perturbation, so allow a few
        // percent of slack.
        let (plant, ctrl) = servo_lqg(0.006);
        let dm = delay_margin(&plant, &ctrl, 0.006).unwrap();
        let j0 = jitter_margin(&plant, &ctrl, 0.006, 0.0).unwrap();
        assert!(
            j0 <= 1.05 * dm + 1e-9,
            "small-gain jitter margin {j0} exceeds delay margin {dm}"
        );
    }

    #[test]
    fn unstable_plant_has_margins_too() {
        let plant = plants::pendulum().unwrap();
        let w = LqgWeights::output_regulation(&plant, 1e-3, 1e-6);
        let h = 0.02;
        let lqg = design_lqg(&plant, &w, h, 0.0).unwrap();
        let j = jitter_margin(&plant, &lqg.controller, h, 0.0).unwrap();
        assert!(j > 0.0);
        let dm = delay_margin(&plant, &lqg.controller, h).unwrap();
        assert!(dm > 0.0 && dm < 20.0 * h);
    }

    #[test]
    fn negative_latency_rejected() {
        let (plant, ctrl) = servo_lqg(0.006);
        assert!(jitter_margin(&plant, &ctrl, 0.006, -0.001).is_err());
    }

    #[test]
    fn curve_needs_two_points() {
        let (plant, ctrl) = servo_lqg(0.006);
        assert!(stability_curve(&plant, &ctrl, 0.006, 1).is_err());
    }
}
