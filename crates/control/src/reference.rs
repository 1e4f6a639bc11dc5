//! The independent oracle of the jitter-margin sweep (DESIGN.md §10).
//!
//! [`jitter_margin`] evaluates the small-gain sweep the slow, obvious way:
//! one dense complex solve per frequency through [`discrete_response`],
//! where [`crate::jitter_margin`] runs the four-lane resolvent sweep of
//! §10.2 over cached frequency tables. [`stability_curve`] sweeps it over
//! the latency grid of [`crate::delay_margin`]. Production must reproduce
//! every float these functions produce *bit-for-bit* (enforced by
//! `tests/kernel_differential.rs` and `fig4.rs`). They allocate freely
//! and rebuild every workspace per call; do not use them outside tests
//! and cross-checks.

use crate::c2d::{c2d_zoh_delayed, delay_split};
use crate::error::{Error, Result};
use crate::freq::discrete_response;
use crate::margin::{
    delay_margin, injection_loop, CurvePoint, StabilityCurve, FREQ_POINTS, JITTER_CAP_PERIODS,
};
use crate::ss::{DiscreteSs, StateSpace};
use csa_linalg::{expm, spectral_radius, Cplx};

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

/// Reference [`crate::stability_curve`]: the reference [`jitter_margin`]
/// over the latency grid `[0, delay_margin]`.
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
