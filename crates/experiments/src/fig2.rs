//! Fig. 2: LQG control cost versus sampling period.
//!
//! The paper's figure shows, for one control application, (i) a clear
//! increasing trend of cost with period, (ii) local non-monotonicity
//! (shorter period is not always better), and (iii) pathological periods
//! where the cost blows up (Kalman–Ho–Narendra). We regenerate the curve
//! with the lightly damped oscillator (spikes at `h = k*pi/wd`) and, for
//! contrast, the DC servo (no pathological periods in range).

use crate::parallel::parallel_map;
use csa_control::{lqg_cost, non_monotone_points, plants, LqgWeights, StateSpace};

/// Configuration for the Fig. 2 sweep.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// Smallest sampling period (seconds).
    pub h_min: f64,
    /// Largest sampling period (seconds).
    pub h_max: f64,
    /// Number of grid points.
    pub points: usize,
}

impl Fig2Config {
    /// Paper-scale sweep: h in [0.01, 1] s, 500 points.
    pub fn paper() -> Self {
        Fig2Config {
            h_min: 0.01,
            h_max: 1.0,
            points: 500,
        }
    }

    /// Reduced sweep for smoke tests.
    pub fn quick() -> Self {
        Fig2Config {
            h_min: 0.02,
            h_max: 1.0,
            points: 120,
        }
    }
}

/// The result of the Fig. 2 experiment for one plant.
#[derive(Debug, Clone)]
pub struct CostCurve {
    /// Plant name.
    pub plant: &'static str,
    /// `(period, cost)` samples; cost may be `f64::INFINITY` at
    /// pathological periods.
    pub samples: Vec<(f64, f64)>,
}

impl CostCurve {
    /// Number of strict local maxima — the non-monotonicity count.
    pub fn non_monotone_points(&self) -> usize {
        non_monotone_points(&self.samples)
    }

    /// Whether the curve has an overall increasing trend: the mean cost
    /// over the last decade of periods exceeds the mean over the first.
    pub fn has_increasing_trend(&self) -> bool {
        let finite: Vec<&(f64, f64)> = self.samples.iter().filter(|(_, c)| c.is_finite()).collect();
        if finite.len() < 8 {
            return false;
        }
        let k = finite.len() / 4;
        let head: f64 = finite[..k].iter().map(|(_, c)| c).sum::<f64>() / k as f64;
        let tail: f64 = finite[finite.len() - k..]
            .iter()
            .map(|(_, c)| c)
            .sum::<f64>()
            / k as f64;
        tail > head
    }

    /// Largest finite cost divided by smallest — the spike magnitude.
    pub fn dynamic_range(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for &(_, c) in &self.samples {
            if c.is_finite() {
                lo = lo.min(c);
                hi = hi.max(c);
            }
        }
        if lo > 0.0 {
            hi / lo
        } else {
            f64::INFINITY
        }
    }
}

/// Runs the Fig. 2 experiment single-threaded (see
/// [`run_fig2_with_threads`]).
pub fn run_fig2(config: &Fig2Config) -> Vec<CostCurve> {
    run_fig2_with_threads(config, 1)
}

/// Runs the Fig. 2 experiment with the period grid sharded across
/// `threads` workers (0 = available parallelism): cost curves for the
/// lightly damped oscillator (the paper-style curve with spikes) and
/// the DC servo (contrast). Every grid point is an independent LQG
/// design, so the curves are bit-identical at any thread count.
///
/// # Panics
///
/// Panics only on programming errors (invalid plant construction or a
/// structural failure in the cost sweep).
pub fn run_fig2_with_threads(config: &Fig2Config, threads: usize) -> Vec<CostCurve> {
    let periods: Vec<f64> = (0..config.points)
        .map(|k| {
            let t = k as f64 / (config.points - 1) as f64;
            config.h_min + t * (config.h_max - config.h_min)
        })
        .collect();

    #[expect(clippy::expect_used, reason = "P001: a fixed, valid plant")]
    let oscillator = plants::lightly_damped_oscillator().expect("valid plant");
    let osc_weights = LqgWeights::output_regulation(&oscillator, 1e-2, 1e-6);
    #[expect(clippy::expect_used, reason = "P001: a fixed, valid plant")]
    let servo = plants::dc_servo().expect("valid plant");
    let servo_weights = LqgWeights::output_regulation(&servo, 1e-1, 1e-6);

    let sweep = |plant: &StateSpace, weights: &LqgWeights| -> Vec<(f64, f64)> {
        parallel_map(periods.len(), threads, |k| {
            let h = periods[k];
            #[expect(clippy::expect_used, reason = "P001: both plants are controllable")]
            let cost = lqg_cost(plant, weights, h).expect("cost sweep must not fail structurally");
            (h, cost)
        })
    };

    vec![
        CostCurve {
            plant: "lightly_damped_oscillator",
            samples: sweep(&oscillator, &osc_weights),
        },
        CostCurve {
            plant: "dc_servo",
            samples: sweep(&servo, &servo_weights),
        },
    ]
}

/// Cost of the oscillator exactly at the k-th pathological period
/// (`h = k*pi/wd`) — used by tests and EXPERIMENTS.md to document the
/// spike locations.
pub fn pathological_cost(k: u32) -> f64 {
    #[expect(clippy::expect_used, reason = "P001: a fixed, valid plant")]
    let plant = plants::lightly_damped_oscillator().expect("valid plant");
    let weights = LqgWeights::output_regulation(&plant, 1e-2, 1e-6);
    let wd = 10.0 * (1.0f64 - 0.001 * 0.001).sqrt();
    let h = k as f64 * std::f64::consts::PI / wd;
    #[expect(clippy::expect_used, reason = "P001: the plant is controllable")]
    lqg_cost(&plant, &weights, h).expect("structural failure in cost")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shows_all_three_phenomena() {
        let curves = run_fig2(&Fig2Config::quick());
        let osc = &curves[0];
        // (i) increasing trend;
        assert!(osc.has_increasing_trend(), "no increasing trend");
        // (ii) non-monotonicity;
        assert!(
            osc.non_monotone_points() > 0,
            "no local maxima in the oscillator curve"
        );
        // (iii) spikes: dynamic range of orders of magnitude.
        assert!(
            osc.dynamic_range() > 1e2,
            "dynamic range {} too small",
            osc.dynamic_range()
        );
        // The DC servo curve exists and is finite at short periods.
        let servo = &curves[1];
        assert!(servo.samples.iter().take(10).all(|(_, c)| c.is_finite()));
    }

    #[test]
    fn thread_count_invariant() {
        let cfg = Fig2Config {
            h_min: 0.02,
            h_max: 0.5,
            points: 24,
        };
        let serial = run_fig2(&cfg);
        let threaded = run_fig2_with_threads(&cfg, 4);
        for (a, b) in serial.iter().zip(&threaded) {
            assert_eq!(a.plant, b.plant);
            assert_eq!(a.samples, b.samples, "curve {} diverged", a.plant);
        }
    }

    #[test]
    fn pathological_periods_spike() {
        let spike = pathological_cost(1);
        // Slightly off the pathological period the cost is far smaller.
        let wd = 10.0 * (1.0f64 - 0.001 * 0.001).sqrt();
        let h_off = 0.8 * std::f64::consts::PI / wd;
        let plant = plants::lightly_damped_oscillator().unwrap();
        let weights = LqgWeights::output_regulation(&plant, 1e-2, 1e-6);
        let off = lqg_cost(&plant, &weights, h_off).unwrap();
        assert!(
            spike > 10.0 * off,
            "pathological {spike} vs off-pathological {off}"
        );
    }
}
