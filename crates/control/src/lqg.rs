//! Sampled LQG controller synthesis.
//!
//! Given a continuous plant (Eq. 1 of the paper), a sampling period `h`,
//! and a nominal input delay `tau`, this module designs the discrete
//! observer-based LQG controller used throughout the reproduction:
//!
//! 1. the plant and the continuous quadratic cost are sampled exactly
//!    (Van Loan integrals), producing `(Phi, Gamma)` and `(Q1d, Q12d, Q2d)`;
//! 2. the state-feedback gain solves the DARE on the delay-augmented
//!    system (the delay registers carry the in-flight control values);
//! 3. a stationary Kalman predictor estimates the plant state; the delay
//!    registers need no estimation — they are the controller's own past
//!    outputs.
//!
//! The resulting controller is returned both as gains and as a standalone
//! LTI system (input `y`, output `u`) for frequency-domain analysis.

use crate::c2d::c2d_zoh_delayed;
use crate::error::{Error, Result};
use crate::ss::{DiscreteSs, StateSpace};
use csa_linalg::{noise_covariance, van_loan_gramian, DareScratch, Mat, StageCost};

/// Continuous-time design weights for sampled LQG synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct LqgWeights {
    /// Continuous state cost `Q1c` (n x n, PSD).
    pub q1: Mat,
    /// Continuous input cost `Q2c` (m x m, positive definite).
    pub q2: Mat,
    /// Process-noise intensity `R1c` (n x n, PSD).
    pub r1: Mat,
    /// Discrete measurement-noise covariance `R2` (p x p, positive definite).
    pub r2: Mat,
}

impl LqgWeights {
    /// Standard output-regulation weights for a SISO plant:
    /// `Q1c = C^T C`, `Q2c = rho`, `R1c = B B^T`, `R2 = sigma`.
    ///
    /// These mirror the choices customary in the jitter-margin literature:
    /// penalize the controlled output, inject process noise at the plant
    /// input.
    pub fn output_regulation(plant: &StateSpace, rho: f64, sigma: f64) -> Self {
        let q1 = &plant.c().transpose() * plant.c();
        let r1 = plant.b() * &plant.b().transpose();
        LqgWeights {
            q1,
            q2: Mat::identity(plant.inputs()).scale(rho),
            r1,
            r2: Mat::identity(plant.outputs()).scale(sigma),
        }
    }
}

/// The discrete stage cost obtained by exactly sampling a continuous
/// quadratic cost over one period (Van Loan on the `[A B; 0 0]`
/// augmentation).
#[derive(Debug, Clone)]
pub struct SampledCost {
    /// State block `Q1d`.
    pub q1: Mat,
    /// Cross block `Q12d`.
    pub q12: Mat,
    /// Input block `Q2d`.
    pub q2: Mat,
}

/// Samples the continuous cost `int x'Q1c x + u'Q2c u dt` over one period.
///
/// # Errors
///
/// Propagates numerical failures.
///
/// # Examples
///
/// ```
/// use csa_control::{sample_cost, LqgWeights, TransferFunction};
///
/// # fn main() -> Result<(), csa_control::Error> {
/// let plant = TransferFunction::new(vec![1.0], vec![1.0, 1.0])?.to_state_space()?;
/// let w = LqgWeights::output_regulation(&plant, 0.1, 1e-4);
/// let cost = sample_cost(&plant, &w, 0.01)?;
/// assert!(cost.q1[(0, 0)] > 0.0);
/// assert!(cost.q2[(0, 0)] > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn sample_cost(plant: &StateSpace, weights: &LqgWeights, h: f64) -> Result<SampledCost> {
    let n = plant.order();
    let m = plant.inputs();
    if weights.q1.shape() != (n, n) || weights.q2.shape() != (m, m) {
        return Err(Error::UnsupportedModel(
            "weight dimensions must match the plant",
        ));
    }
    // Augmented drift: z = [x; u], z' = [[A, B], [0, 0]] z while u is held.
    let mut abar = Mat::zeros(n + m, n + m);
    abar.set_block(0, 0, plant.a());
    abar.set_block(0, n, plant.b());
    let mut qbar = Mat::zeros(n + m, n + m);
    qbar.set_block(0, 0, &weights.q1);
    qbar.set_block(n, n, &weights.q2);
    let (_, qd) = van_loan_gramian(&abar, &qbar, h)?;
    Ok(SampledCost {
        q1: qd.block(0, 0, n, n),
        q12: qd.block(0, n, n, m),
        q2: qd.block(n, n, m, m),
    })
}

/// A synthesized sampled LQG controller.
#[derive(Debug, Clone)]
pub struct LqgController {
    /// The controller as an LTI system: input `y`, output `u` (the
    /// feedback sign is already folded in, `u = -K xhat`).
    pub controller: DiscreteSs,
    /// LQR gain on the delay-augmented state.
    pub feedback_gain: Mat,
    /// Kalman predictor gain on the plant block.
    pub kalman_gain: Mat,
    /// DARE cost-to-go matrix on the augmented state.
    pub cost_to_go: Mat,
    /// The delay-augmented discrete plant the design was carried out on.
    pub plant_d: DiscreteSs,
    /// Discretized process-noise covariance (plant block).
    pub noise_d: Mat,
    /// Sampled stage cost used for the LQR design.
    pub cost_d: SampledCost,
}

/// Designs a sampled LQG controller for `plant` at period `h` with a
/// nominal input delay `tau` (seconds).
///
/// # Errors
///
/// [`Error::NotStabilizable`] when the sampled pair cannot be stabilized or
/// detected (this is the paper's "pathological sampling period" situation),
/// other [`Error`] variants on dimension or parameter problems.
///
/// # Examples
///
/// ```
/// use csa_control::{design_lqg, plants, LqgWeights};
///
/// # fn main() -> Result<(), csa_control::Error> {
/// let plant = plants::dc_servo()?;
/// let w = LqgWeights::output_regulation(&plant, 1e-4, 1e-6);
/// let lqg = design_lqg(&plant, &w, 0.006, 0.0)?;
/// assert_eq!(lqg.controller.inputs(), 1);
/// assert_eq!(lqg.controller.outputs(), 1);
/// # Ok(())
/// # }
/// ```
pub fn design_lqg(
    plant: &StateSpace,
    weights: &LqgWeights,
    h: f64,
    tau: f64,
) -> Result<LqgController> {
    LqgDesigner::new().design(plant, weights, h, tau)
}

/// Re-entrant LQG synthesis engine (the batched pipeline of DESIGN.md
/// §10).
///
/// Routes both Riccati equations through [`DareScratch::solve`], which is
/// bit-identical to the one-shot [`csa_linalg::solve_dare`], so every
/// output is bit-identical to [`design_lqg`] (a thin wrapper over a fresh
/// designer). Reusing one designer across a period grid reuses the DARE
/// workspaces.
#[derive(Debug, Default)]
pub struct LqgDesigner {
    ctrl_dare: DareScratch,
    filt_dare: DareScratch,
}

impl LqgDesigner {
    /// A designer whose every output is bit-identical to [`design_lqg`].
    pub fn new() -> Self {
        LqgDesigner::default()
    }

    /// Designs a sampled LQG controller; semantics of [`design_lqg`].
    ///
    /// # Errors
    ///
    /// Same as [`design_lqg`].
    pub fn design(
        &mut self,
        plant: &StateSpace,
        weights: &LqgWeights,
        h: f64,
        tau: f64,
    ) -> Result<LqgController> {
        let n = plant.order();
        let m = plant.inputs();
        let p = plant.outputs();
        if weights.r1.shape() != (n, n) || weights.r2.shape() != (p, p) {
            return Err(Error::UnsupportedModel(
                "noise dimensions must match the plant",
            ));
        }

        let plant_d = c2d_zoh_delayed(plant, h, tau)?;
        let na = plant_d.order();
        let cost_d = sample_cost(plant, weights, h)?;

        // Stage cost on the augmented state: charge the plant block with Q1d,
        // the decided input with Q2d, and keep the exact cross term between
        // the plant state and the decided input. The delay registers carry
        // already-paid-for inputs and enter with zero weight (see DESIGN.md).
        let mut q_aug = Mat::zeros(na, na);
        q_aug.set_block(0, 0, &cost_d.q1);
        let mut n_aug = Mat::zeros(na, m);
        n_aug.set_block(0, 0, &cost_d.q12);
        // Regularize the delay registers minutely so the DARE stays
        // detectable through the shift chain.
        for i in n..na {
            q_aug[(i, i)] += 1e-12;
        }
        let stage = StageCost::with_cross(q_aug, n_aug, cost_d.q2.clone());
        let lqr = self
            .ctrl_dare
            .solve(plant_d.a(), plant_d.b(), &stage)
            .map_err(map_dare_err)?;

        // Stationary Kalman predictor on the plant block (delay registers are
        // known exactly).
        let phi = plant_d.a().block(0, 0, n, n);
        let c = plant.c().clone();
        let r1d = noise_covariance(plant.a(), &weights.r1, h)?;
        // Regularize: guarantee the dual pair is stabilizable even if R1c is
        // rank deficient along undisturbed directions.
        let r1d_reg = &r1d + &Mat::identity(n).scale(1e-12 * r1d.max_abs().max(1e-12));
        let dual_cost = StageCost::new(r1d_reg, weights.r2.clone());
        let dual = self
            .filt_dare
            .solve(&phi.transpose(), &c.transpose(), &dual_cost)
            .map_err(map_dare_err)?;
        let kf = dual.k.transpose(); // Kf = Phi P C' (C P C' + R2)^{-1}

        // Controller realization on the augmented state:
        // xi+ = (A - B K - Kf_aug C_aug) xi + Kf_aug y,  u = -K xi.
        let mut kf_aug = Mat::zeros(na, p);
        kf_aug.set_block(0, 0, &kf);
        let a_c = &(plant_d.a() - &(plant_d.b() * &lqr.k)) - &(&kf_aug * plant_d.c());
        let c_c = -(&lqr.k);
        let controller = DiscreteSs::new(a_c, kf_aug, c_c, Mat::zeros(m, p), h)?;

        Ok(LqgController {
            controller,
            feedback_gain: lqr.k,
            kalman_gain: kf,
            cost_to_go: lqr.s,
            plant_d,
            noise_d: r1d,
            cost_d,
        })
    }
}

/// Maps DARE failures onto the domain error.
pub(crate) fn map_dare_err(e: csa_linalg::Error) -> Error {
    match e {
        csa_linalg::Error::NotStable | csa_linalg::Error::NoConvergence { .. } => {
            Error::NotStabilizable
        }
        other => Error::Numerical(other),
    }
}

/// Assembles the closed loop of a discrete plant and controller, exposing
/// the transfer from a plant-input disturbance `w` to the controller
/// output `u` — the loop function whose magnitude the jitter-margin
/// criterion bounds.
///
/// Both systems must share the sampling period, the controller must be
/// strictly proper (no algebraic loop), and dimensions must close the loop.
///
/// # Errors
///
/// [`Error::UnsupportedModel`] on mismatched periods/dimensions or a
/// non-strictly-proper controller.
pub fn input_sensitivity_loop(plant_d: &DiscreteSs, ctrl: &DiscreteSs) -> Result<DiscreteSs> {
    if (plant_d.period() - ctrl.period()).abs() > 1e-12 * plant_d.period() {
        return Err(Error::UnsupportedModel(
            "plant and controller periods differ",
        ));
    }
    if plant_d.outputs() != ctrl.inputs() || ctrl.outputs() != plant_d.inputs() {
        return Err(Error::UnsupportedModel(
            "plant/controller dimensions do not close",
        ));
    }
    if ctrl.d().max_abs() != 0.0 {
        return Err(Error::UnsupportedModel(
            "controller must be strictly proper",
        ));
    }
    let np = plant_d.order();
    let nc = ctrl.order();
    let m = plant_d.inputs();
    // x_p+ = A_p x_p + B_p(u + w); x_c+ = A_c x_c + B_c C_p x_p; u = C_c x_c.
    let mut a = Mat::zeros(np + nc, np + nc);
    a.set_block(0, 0, plant_d.a());
    a.set_block(0, np, &(plant_d.b() * ctrl.c()));
    a.set_block(np, 0, &(ctrl.b() * plant_d.c()));
    a.set_block(np, np, ctrl.a());
    let mut b = Mat::zeros(np + nc, m);
    b.set_block(0, 0, plant_d.b());
    let mut c = Mat::zeros(m, np + nc);
    c.set_block(0, np, ctrl.c());
    DiscreteSs::new(a, b, c, Mat::zeros(m, m), plant_d.period())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c2d::c2d_zoh;
    use crate::plants;
    use csa_linalg::spectral_radius;

    fn dc_servo() -> StateSpace {
        plants::dc_servo().unwrap()
    }

    #[test]
    fn sampled_cost_limits() {
        // As h -> 0, Q1d/h -> Q1c, Q2d/h -> Q2c, Q12d/h -> 0 (on a plant
        // with O(1) norms so absolute tolerances are meaningful).
        let plant = plants::first_order_lag().unwrap();
        let w = LqgWeights {
            q1: Mat::scalar(2.0),
            q2: Mat::scalar(0.5),
            r1: Mat::scalar(1.0),
            r2: Mat::scalar(1.0),
        };
        let h = 1e-5;
        let c = sample_cost(&plant, &w, h).unwrap();
        assert!(c.q1.scale(1.0 / h).max_abs_diff(&w.q1) < 1e-3);
        assert!(c.q2.scale(1.0 / h).max_abs_diff(&w.q2) < 1e-3);
        assert!(c.q12.max_abs() / h < 1e-3);
    }

    #[test]
    fn sampled_cost_quadrature_check() {
        // Against Simpson quadrature of int_0^h e^{Abar' s} Qbar e^{Abar s} ds
        // on the DC servo (large norms exercise scaling).
        let plant = dc_servo();
        let w = LqgWeights::output_regulation(&plant, 0.5, 1e-6);
        let h = 0.006;
        let c = sample_cost(&plant, &w, h).unwrap();
        let n = plant.order();
        let mut abar = Mat::zeros(n + 1, n + 1);
        abar.set_block(0, 0, plant.a());
        abar.set_block(0, n, plant.b());
        let mut qbar = Mat::zeros(n + 1, n + 1);
        qbar.set_block(0, 0, &w.q1);
        qbar.set_block(n, n, &w.q2);
        let steps = 200;
        let ds = h / steps as f64;
        let mut acc = Mat::zeros(n + 1, n + 1);
        for k in 0..=steps {
            let s = k as f64 * ds;
            let e = csa_linalg::expm(&abar.scale(s)).unwrap();
            let term = &(&e.transpose() * &qbar) * &e;
            let wgt = if k == 0 || k == steps {
                1.0
            } else if k % 2 == 1 {
                4.0
            } else {
                2.0
            };
            acc = &acc + &term.scale(wgt);
        }
        let qd = acc.scale(ds / 3.0);
        let scale = qd.max_abs();
        assert!(c.q1.max_abs_diff(&qd.block(0, 0, n, n)) < 1e-9 * scale);
        assert!(c.q12.max_abs_diff(&qd.block(0, n, n, 1)) < 1e-9 * scale);
        assert!(c.q2.max_abs_diff(&qd.block(n, n, 1, 1)) < 1e-9 * scale);
    }

    #[test]
    fn lqg_stabilizes_dc_servo() {
        let plant = dc_servo();
        let w = LqgWeights::output_regulation(&plant, 1e-4, 1e-6);
        for &tau in &[0.0, 0.002, 0.006, 0.009] {
            let lqg = design_lqg(&plant, &w, 0.006, tau).unwrap();
            let loop_sys = input_sensitivity_loop(&lqg.plant_d, &lqg.controller).unwrap();
            let rho = spectral_radius(loop_sys.a()).unwrap();
            assert!(rho < 1.0, "closed loop unstable at tau={tau}: rho={rho}");
        }
    }

    #[test]
    fn lqg_stabilizes_unstable_plant() {
        let plant = plants::pendulum().unwrap();
        let w = LqgWeights::output_regulation(&plant, 1e-3, 1e-6);
        let lqg = design_lqg(&plant, &w, 0.02, 0.005).unwrap();
        let loop_sys = input_sensitivity_loop(&lqg.plant_d, &lqg.controller).unwrap();
        assert!(spectral_radius(loop_sys.a()).unwrap() < 1.0);
    }

    #[test]
    fn separation_eigenvalues() {
        // The closed-loop spectrum is the union of the regulator spectrum
        // eig(A - BK) and the estimator spectrum; check the regulator part
        // is present (separation principle).
        let plant = dc_servo();
        let w = LqgWeights::output_regulation(&plant, 1e-4, 1e-6);
        let lqg = design_lqg(&plant, &w, 0.01, 0.0).unwrap();
        let a_reg = lqg.plant_d.a() - &(lqg.plant_d.b() * &lqg.feedback_gain);
        let reg_eigs = csa_linalg::eigenvalues(&a_reg).unwrap();
        let loop_sys = input_sensitivity_loop(&lqg.plant_d, &lqg.controller).unwrap();
        let cl_eigs = csa_linalg::eigenvalues(loop_sys.a()).unwrap();
        for re in &reg_eigs {
            let found = cl_eigs.iter().any(|ce| (*ce - *re).abs() < 1e-6);
            assert!(found, "regulator eigenvalue {re} missing from closed loop");
        }
    }

    #[test]
    fn pathological_sampling_fails() {
        // Undamped oscillator sampled at half its oscillation period loses
        // reachability: no stabilizing controller exists.
        let w0 = 10.0;
        let plant = plants::oscillator(w0, 0.0).unwrap();
        let w = LqgWeights::output_regulation(&plant, 1e-2, 1e-6);
        let h = std::f64::consts::PI / w0;
        let r = design_lqg(&plant, &w, h, 0.0);
        assert!(
            matches!(r, Err(Error::NotStabilizable)),
            "expected NotStabilizable, got {r:?}"
        );
        // A nearby non-pathological period works.
        assert!(design_lqg(&plant, &w, h * 0.8, 0.0).is_ok());
    }

    #[test]
    fn controller_is_strictly_proper() {
        let plant = dc_servo();
        let w = LqgWeights::output_regulation(&plant, 1e-4, 1e-6);
        let lqg = design_lqg(&plant, &w, 0.006, 0.003).unwrap();
        assert_eq!(lqg.controller.d().max_abs(), 0.0);
    }

    #[test]
    fn loop_assembly_validates() {
        let plant = dc_servo();
        let w = LqgWeights::output_regulation(&plant, 1e-4, 1e-6);
        let lqg = design_lqg(&plant, &w, 0.006, 0.0).unwrap();
        let other = c2d_zoh(&plant, 0.007).unwrap();
        assert!(input_sensitivity_loop(&other, &lqg.controller).is_err());
    }
}
