//! Period-assignment co-design: the paper's §I motivating example.
//!
//! "A control application can provide satisfactory performance within a
//! range of sampling periods. Therefore the opportunity of optimizing
//! control performance with respect to sampling period." The hazard is
//! Fig. 2's non-monotonicity: a local search that assumes the cost
//! improves monotonically toward shorter periods (or is unimodal) can
//! return a *worse* period than a safe exhaustive scan — and near a
//! pathological period, a dramatically worse one.
//!
//! This module implements both strategies and measures the gap.

use csa_control::{lqg_cost, LqgWeights, StateSpace};

/// Result of one period-optimization strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodChoice {
    /// Chosen sampling period (seconds).
    pub period: f64,
    /// LQG cost at that period.
    pub cost: f64,
    /// Number of cost evaluations spent.
    pub evaluations: usize,
}

/// Safe exhaustive scan: evaluates the cost on a uniform grid and keeps
/// the finite minimum.
///
/// # Panics
///
/// Panics if `points < 2` or the range is empty.
pub fn optimize_period_grid(
    plant: &StateSpace,
    weights: &LqgWeights,
    h_range: (f64, f64),
    points: usize,
) -> PeriodChoice {
    assert!(points >= 2 && h_range.0 < h_range.1, "bad grid");
    let mut best = PeriodChoice {
        period: h_range.0,
        cost: f64::INFINITY,
        evaluations: points,
    };
    for k in 0..points {
        let h = h_range.0 + (h_range.1 - h_range.0) * k as f64 / (points - 1) as f64;
        let j = lqg_cost(plant, weights, h).unwrap_or(f64::INFINITY);
        if j < best.cost {
            best.period = h;
            best.cost = j;
        }
    }
    best
}

/// Monotonicity-trusting ternary search: assumes the cost is unimodal in
/// the period and narrows the bracket accordingly. Cheap (logarithmic in
/// the resolution) — and wrong whenever Fig. 2's local maxima separate
/// the bracket from the true optimum.
pub fn optimize_period_ternary(
    plant: &StateSpace,
    weights: &LqgWeights,
    h_range: (f64, f64),
    iterations: usize,
) -> PeriodChoice {
    let mut lo = h_range.0;
    let mut hi = h_range.1;
    let mut evals = 0;
    let mut eval = |h: f64| {
        evals += 1;
        lqg_cost(plant, weights, h).unwrap_or(f64::INFINITY)
    };
    for _ in 0..iterations {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if eval(m1) <= eval(m2) {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    let h = 0.5 * (lo + hi);
    let cost = eval(h);
    PeriodChoice {
        period: h,
        cost,
        evaluations: evals,
    }
}

/// Comparison of the two strategies on one plant.
#[derive(Debug, Clone)]
pub struct PeriodOptComparison {
    /// Plant name.
    pub plant: &'static str,
    /// Safe exhaustive result.
    pub grid: PeriodChoice,
    /// Monotonicity-trusting result.
    pub ternary: PeriodChoice,
}

impl PeriodOptComparison {
    /// How much worse the ternary choice is (cost ratio >= 1; infinite if
    /// the ternary search landed on a pathological period).
    pub fn regret(&self) -> f64 {
        if self.grid.cost <= 0.0 {
            return 1.0;
        }
        self.ternary.cost / self.grid.cost
    }
}

/// Runs the comparison on the two Fig. 2 plants: the DC servo (benign,
/// monotone-ish cost — ternary search is safe and cheap) and the lightly
/// damped oscillator (spiky cost — ternary search can be badly wrong).
pub fn run_period_opt(points: usize) -> Vec<PeriodOptComparison> {
    #[expect(clippy::expect_used, reason = "P001: a fixed, valid plant")]
    let servo = csa_control::plants::dc_servo().expect("valid plant");
    let servo_w = LqgWeights::output_regulation(&servo, 1e-1, 1e-6);
    #[expect(clippy::expect_used, reason = "P001: a fixed, valid plant")]
    let osc = csa_control::plants::lightly_damped_oscillator().expect("valid plant");
    let osc_w = LqgWeights::output_regulation(&osc, 1e-2, 1e-6);
    // Search range chosen to straddle the oscillator's first pathological
    // period (~0.314 s) — the regime the paper warns about. The lower
    // bound models a utilization budget: shorter periods are not allowed.
    let range = (0.25, 0.60);
    vec![
        PeriodOptComparison {
            plant: "dc_servo",
            grid: optimize_period_grid(&servo, &servo_w, range, points),
            ternary: optimize_period_ternary(&servo, &servo_w, range, 24),
        },
        PeriodOptComparison {
            plant: "lightly_damped_oscillator",
            grid: optimize_period_grid(&osc, &osc_w, range, points),
            ternary: optimize_period_ternary(&osc, &osc_w, range, 24),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_beats_or_matches_ternary_everywhere() {
        for cmp in run_period_opt(80) {
            assert!(
                cmp.grid.cost <= cmp.ternary.cost + 1e-9,
                "{}: grid {} vs ternary {}",
                cmp.plant,
                cmp.grid.cost,
                cmp.ternary.cost
            );
            assert!(
                cmp.grid.cost.is_finite(),
                "{}: grid found no finite cost",
                cmp.plant
            );
        }
    }

    #[test]
    fn ternary_is_cheaper() {
        for cmp in run_period_opt(80) {
            assert!(cmp.ternary.evaluations < cmp.grid.evaluations);
        }
    }

    #[test]
    fn oscillator_punishes_unimodality_assumption() {
        // On the spiky oscillator cost the ternary search must show
        // measurable regret (it brackets around a local valley whose
        // floor is above the global optimum). On the benign servo it is
        // near-optimal.
        let cmps = run_period_opt(120);
        let servo = cmps.iter().find(|c| c.plant == "dc_servo").unwrap();
        assert!(
            servo.regret() < 1.3,
            "servo regret {} should be small",
            servo.regret()
        );
        let osc = cmps
            .iter()
            .find(|c| c.plant == "lightly_damped_oscillator")
            .unwrap();
        assert!(
            osc.regret() > servo.regret(),
            "oscillator regret {} must exceed servo regret {}",
            osc.regret(),
            servo.regret()
        );
    }
}
