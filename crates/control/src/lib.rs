//! Control-theoretic substrate of the DATE 2017 anomalies reproduction.
//!
//! Everything the paper needs from control theory, hand-written on top of
//! `csa-linalg` (the reproduction bands forbid control toolboxes); the
//! plant pool, jitter-margin criterion, and LQG modelling commitments
//! are documented in DESIGN.md §3:
//!
//! * LTI models: [`StateSpace`], [`TransferFunction`], [`DiscreteSs`];
//! * sampling: [`c2d_zoh`] and [`c2d_zoh_delayed`] (arbitrary input delay
//!   via state augmentation, Åström & Wittenmark §3.2);
//! * sampled LQG synthesis: [`LqgWeights`], [`sample_cost`],
//!   [`design_lqg`] (exact Van Loan cost/noise sampling, DARE gains,
//!   stationary Kalman predictor);
//! * the stationary quadratic cost of Fig. 2: [`lqg_cost`], [`cost_curve`]
//!   (infinite at pathological sampling periods);
//! * the jitter-margin analysis of Fig. 4: [`jitter_margin`],
//!   [`stability_curve`], [`delay_margin`], and the paper's Eq. 5 linear
//!   bound [`StabilityFit`];
//! * the batched kernel pipeline (DESIGN.md §10): [`MarginScratch`],
//!   [`StabilityCurveBatch`] and [`LqgDesigner`], the one implementation
//!   the one-shot functions above run on a fresh workspace; their jitter
//!   margins are pinned bit for bit against the dense per-frequency sweep
//!   of [`mod@reference`], and their controllers and delay margins by
//!   value;
//! * the benchmark plant pool of §V: [`plants`].
//!
//! # Example: the paper's Fig. 4 in five lines
//!
//! ```
//! use csa_control::{design_lqg, plants, stability_curve, LqgWeights, StabilityFit};
//!
//! # fn main() -> Result<(), csa_control::Error> {
//! let plant = plants::dc_servo()?;
//! let weights = LqgWeights::output_regulation(&plant, 1e-4, 1e-6);
//! let lqg = design_lqg(&plant, &weights, 0.006, 0.0)?;
//! let curve = stability_curve(&plant, &lqg.controller, 0.006, 12)?;
//! let fit = StabilityFit::from_curve(&curve);
//! assert!(fit.a >= 1.0 && fit.b > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod c2d;
mod cost;
mod error;
mod freq;
mod lqg;
mod margin;
pub mod plants;
pub mod reference;
mod response;
mod ss;

pub use c2d::{c2d_zoh, c2d_zoh_delayed};
pub use cost::{cost_curve, lqg_cost, non_monotone_points};
pub use error::{Error, Result};
pub use freq::{continuous_response, discrete_response};
pub use lqg::{
    design_lqg, input_sensitivity_loop, sample_cost, LqgController, LqgDesigner, LqgWeights,
    SampledCost,
};
pub use margin::{
    delay_margin, jitter_margin, stability_curve, CurvePoint, MarginScratch, StabilityCurve,
    StabilityCurveBatch, StabilityFit,
};
pub use response::{disturbance_impulse_response, simulate, step_response, tail_peak};
pub use ss::{DiscreteSs, StateSpace, TransferFunction};
