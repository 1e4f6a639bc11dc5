//! Retained one-shot reference implementations of the LQG/margin
//! pipeline, exactly as they stood before the batched scratch-space
//! kernels (DESIGN.md §10).
//!
//! These are the ground truth the production kernels are differentially
//! pinned against: [`crate::design_lqg`], [`crate::jitter_margin`],
//! [`crate::delay_margin`], and [`crate::stability_curve`] must reproduce
//! every float these functions produce *bit-for-bit* (enforced by
//! `tests/kernel_differential.rs`). They allocate freely and rebuild every
//! workspace per call; do not use them outside tests and cross-checks.

use crate::c2d::{c2d_zoh_delayed, delay_split};
use crate::error::{Error, Result};
use crate::freq::discrete_response;
use crate::lqg::{input_sensitivity_loop, map_dare_err, sample_cost, LqgController, LqgWeights};
use crate::margin::{injection_loop, CurvePoint, StabilityCurve};
use crate::ss::{DiscreteSs, StateSpace};
use csa_linalg::{expm, noise_covariance, solve_dare, spectral_radius, Cplx, Mat, StageCost};

/// Frequency grid size of the small-gain sweep (same constant as the
/// production kernel).
const FREQ_POINTS: usize = 600;
/// Jitter/delay margin cap in sampling periods (same constant as the
/// production kernel).
const JITTER_CAP_PERIODS: f64 = 20.0;

/// Reference [`crate::design_lqg`]: one-shot allocating synthesis through
/// [`csa_linalg::solve_dare`].
///
/// # Errors
///
/// Same as [`crate::design_lqg`].
pub fn design_lqg(
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

    let mut q_aug = Mat::zeros(na, na);
    q_aug.set_block(0, 0, &cost_d.q1);
    let mut n_aug = Mat::zeros(na, m);
    n_aug.set_block(0, 0, &cost_d.q12);
    for i in n..na {
        q_aug[(i, i)] += 1e-12;
    }
    let stage = StageCost::with_cross(q_aug, n_aug, cost_d.q2.clone());
    let lqr = solve_dare(plant_d.a(), plant_d.b(), &stage).map_err(map_dare_err)?;

    let phi = plant_d.a().block(0, 0, n, n);
    let c = plant.c().clone();
    let r1d = noise_covariance(plant.a(), &weights.r1, h)?;
    let r1d_reg = &r1d + &Mat::identity(n).scale(1e-12 * r1d.max_abs().max(1e-12));
    let dual = solve_dare(
        &phi.transpose(),
        &c.transpose(),
        &StageCost::new(r1d_reg, weights.r2.clone()),
    )
    .map_err(map_dare_err)?;
    let kf = dual.k.transpose();

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

/// Reference [`crate::jitter_margin`]: dense per-frequency solves through
/// [`discrete_response`].
///
/// # Errors
///
/// Same as [`crate::jitter_margin`].
pub fn jitter_margin(
    plant: &StateSpace,
    controller: &DiscreteSs,
    h: f64,
    latency: f64,
) -> Result<f64> {
    if !(latency.is_finite() && latency >= 0.0) {
        return Err(Error::InvalidParameter("latency must be non-negative"));
    }
    let plant_l = c2d_zoh_delayed(plant, h, latency)?;
    let (_, tau_frac) = delay_split(h, latency);
    let g = &expm(&plant.a().scale(h - tau_frac))? * plant.b();
    let loop_sys = injection_loop(&plant_l, controller, &g)?;
    if spectral_radius(loop_sys.a())? >= 1.0 {
        return Ok(0.0);
    }
    let cap = JITTER_CAP_PERIODS * h;
    let mut j_max = cap;
    let w_max = std::f64::consts::PI / h;
    let w_min = w_max / 1e4;
    let log_step = (w_max / w_min).ln() / (FREQ_POINTS - 1) as f64;
    for i in 0..FREQ_POINTS {
        let w = w_min * (log_step * i as f64).exp();
        let m = discrete_response(&loop_sys, w)?;
        let deriv = (Cplx::ONE - Cplx::from_angle(-w * h)).abs();
        let gain = deriv * m[(0, 0)].abs();
        if gain > 0.0 {
            j_max = j_max.min(1.0 / gain);
        }
    }
    Ok(j_max)
}

/// Reference [`crate::delay_margin`]: coarse scan plus bisection with
/// one-shot spectral radii.
///
/// # Errors
///
/// Same as [`crate::delay_margin`].
pub fn delay_margin(plant: &StateSpace, controller: &DiscreteSs, h: f64) -> Result<f64> {
    let cap = JITTER_CAP_PERIODS * h;
    let stable_at = |l: f64| -> Result<bool> {
        let plant_l = c2d_zoh_delayed(plant, h, l)?;
        let loop_sys = input_sensitivity_loop(&plant_l, controller)?;
        Ok(spectral_radius(loop_sys.a())? < 1.0)
    };
    if !stable_at(0.0)? {
        return Ok(0.0);
    }
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

/// Reference [`crate::stability_curve`]: latency sweep over the two
/// reference margins above.
///
/// # Errors
///
/// Same as [`crate::stability_curve`].
pub fn stability_curve(
    plant: &StateSpace,
    controller: &DiscreteSs,
    h: f64,
    points: usize,
) -> Result<StabilityCurve> {
    if points < 2 {
        return Err(Error::InvalidParameter("curve needs at least two points"));
    }
    let dm = delay_margin(plant, controller, h)?;
    let mut curve = Vec::with_capacity(points);
    for i in 0..points {
        let l = dm * i as f64 / (points - 1) as f64;
        let j = jitter_margin(plant, controller, h, l)?;
        curve.push(CurvePoint {
            latency: l,
            jitter_margin: j,
        });
    }
    Ok(StabilityCurve::from_parts(curve, dm, h))
}
