//! Fig. 4: jitter-margin stability curves and linear lower bounds for the
//! DC servo `1000/(s^2 + s)` under sampled LQG control.

use csa_control::{plants, LqgWeights, StabilityCurve, StabilityCurveBatch, StabilityFit};

/// Configuration for the Fig. 4 experiment.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Sampling periods to draw one curve each for (seconds). The paper
    /// shows the 6 ms curve; we add slower variants for the family look.
    pub periods: Vec<f64>,
    /// Latency samples per curve.
    pub points: usize,
}

impl Fig4Config {
    /// Paper-style configuration: h in {6, 9, 12} ms, 40 samples.
    pub fn paper() -> Self {
        Fig4Config {
            periods: vec![0.006, 0.009, 0.012],
            points: 40,
        }
    }

    /// Reduced configuration for smoke tests.
    pub fn quick() -> Self {
        Fig4Config {
            periods: vec![0.006],
            points: 12,
        }
    }
}

/// One curve plus its fitted linear bound.
#[derive(Debug, Clone)]
pub struct Fig4Curve {
    /// Sampling period (seconds).
    pub period: f64,
    /// The stability curve `J_max(L)`.
    pub curve: StabilityCurve,
    /// The linear lower bound `L + a J <= b` (Eq. 5).
    pub fit: StabilityFit,
}

/// Runs the Fig. 4 experiment on the DC servo.
///
/// # Errors
///
/// Propagates LQG design and stability-curve failures: a period at which
/// the servo cannot be stabilized, or fewer than two latency samples.
pub fn run_fig4(config: &Fig4Config) -> Result<Vec<Fig4Curve>, csa_control::Error> {
    let plant = plants::dc_servo()?;
    let weights = LqgWeights::output_regulation(&plant, 1e-1, 1e-6);
    let mut batch = StabilityCurveBatch::new();
    config
        .periods
        .iter()
        .map(|&h| {
            let (curve, fit) = batch.curve_at(&plant, &weights, h, 0.0, config.points)?;
            Ok(Fig4Curve {
                period: h,
                curve,
                fit,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csa_control::reference;

    #[test]
    fn curves_have_paper_shape() {
        let curves = run_fig4(&Fig4Config::quick()).unwrap();
        assert_eq!(curves.len(), 1);
        let c = &curves[0];
        let pts = c.curve.points();
        // Positive margin at zero latency; zero at the delay margin.
        assert!(pts[0].jitter_margin > 0.0);
        assert!(pts[pts.len() - 1].jitter_margin < 0.35 * pts[0].jitter_margin);
        // The linear bound is valid and below the curve.
        assert!(c.fit.a >= 1.0);
        assert!(c.fit.b > 0.0);
        for p in pts {
            assert!(c.fit.max_jitter(p.latency) <= p.jitter_margin + 1e-12);
        }
        // Scale sanity: the delay margin is a small multiple of h.
        assert!(c.fit.b > 0.5 * c.period && c.fit.b < 20.0 * c.period);
    }

    #[test]
    fn family_of_curves_is_well_formed() {
        let curves = run_fig4(&Fig4Config {
            periods: vec![0.006, 0.012],
            points: 10,
        })
        .unwrap();
        assert_eq!(curves.len(), 2);
        for c in &curves {
            assert!(c.fit.b > 0.0);
            assert!(c.fit.a >= 1.0);
            // The delay margin stays within the same order of magnitude
            // as the period (no degenerate fits).
            assert!(c.fit.b > 0.1 * c.period && c.fit.b < 20.0 * c.period);
        }
        assert!(curves[0].period < curves[1].period);
    }

    #[test]
    fn paper_curves_bit_identical_to_reference() {
        let config = Fig4Config::paper();
        let curves = run_fig4(&config).unwrap();
        assert_eq!(curves.len(), config.periods.len());
        let plant = plants::dc_servo().unwrap();
        let weights = LqgWeights::output_regulation(&plant, 1e-1, 1e-6);
        for (c, &h) in curves.iter().zip(&config.periods) {
            let lqg = reference::design_lqg(&plant, &weights, h, 0.0).unwrap();
            let want =
                reference::stability_curve(&plant, &lqg.controller, h, config.points).unwrap();
            let want_fit = StabilityFit::from_curve(&want);
            assert_eq!(c.period.to_bits(), h.to_bits());
            assert_eq!(c.curve.period().to_bits(), want.period().to_bits());
            assert_eq!(
                c.curve.delay_margin().to_bits(),
                want.delay_margin().to_bits(),
                "h = {h}: delay margin"
            );
            assert_eq!(c.curve.points().len(), want.points().len());
            for (p, q) in c.curve.points().iter().zip(want.points()) {
                assert_eq!(p.latency.to_bits(), q.latency.to_bits(), "h = {h}");
                assert_eq!(
                    p.jitter_margin.to_bits(),
                    q.jitter_margin.to_bits(),
                    "h = {h}: jitter margin at L = {}",
                    p.latency
                );
            }
            assert_eq!(c.fit.a.to_bits(), want_fit.a.to_bits(), "h = {h}: fit a");
            assert_eq!(c.fit.b.to_bits(), want_fit.b.to_bits(), "h = {h}: fit b");
        }
    }
}
