//! The benchmark plant pool.
//!
//! The paper draws its benchmark plants "from \[4\], \[14\]" — Cervin et al.'s
//! jitter-margin paper and Åström & Wittenmark's textbook — without listing
//! them. This pool covers the same families those references use: servo
//! dynamics, integrators, lags, oscillatory plants, and open-loop unstable
//! plants (see DESIGN.md §3).

use crate::error::Result;
use crate::lqg::LqgWeights;
use crate::ss::{StateSpace, TransferFunction};

/// The DC servo of the paper's Fig. 4: `G(s) = 1000 / (s^2 + s)`.
///
/// # Errors
///
/// Never fails in practice; the signature matches the other constructors.
pub fn dc_servo() -> Result<StateSpace> {
    TransferFunction::new(vec![1000.0], vec![1.0, 1.0, 0.0])?.to_state_space()
}

/// A single integrator `1/s`.
///
/// # Errors
///
/// See [`dc_servo`].
pub fn integrator() -> Result<StateSpace> {
    TransferFunction::new(vec![1.0], vec![1.0, 0.0])?.to_state_space()
}

/// A double integrator `1/s^2`.
///
/// # Errors
///
/// See [`dc_servo`].
pub fn double_integrator() -> Result<StateSpace> {
    TransferFunction::new(vec![1.0], vec![1.0, 0.0, 0.0])?.to_state_space()
}

/// A first-order lag `1/(s + 1)`.
///
/// # Errors
///
/// See [`dc_servo`].
pub fn first_order_lag() -> Result<StateSpace> {
    TransferFunction::new(vec![1.0], vec![1.0, 1.0])?.to_state_space()
}

/// A second-order lag `1/(s + 1)^2`.
///
/// # Errors
///
/// See [`dc_servo`].
pub fn second_order_lag() -> Result<StateSpace> {
    TransferFunction::new(vec![1.0], vec![1.0, 2.0, 1.0])?.to_state_space()
}

/// A damped oscillator `w0^2 / (s^2 + 2 zeta w0 s + w0^2)`.
///
/// # Errors
///
/// See [`dc_servo`].
pub fn oscillator(w0: f64, zeta: f64) -> Result<StateSpace> {
    TransferFunction::new(vec![w0 * w0], vec![1.0, 2.0 * zeta * w0, w0 * w0])?.to_state_space()
}

/// The lightly damped oscillator used for Fig. 2 (`w0 = 10`,
/// `zeta = 0.001`): its sampled realization loses reachability near
/// `h = k pi / wd`, producing the cost spikes of the paper's figure.
///
/// # Errors
///
/// See [`dc_servo`].
pub fn lightly_damped_oscillator() -> Result<StateSpace> {
    oscillator(10.0, 0.001)
}

/// An inverted-pendulum-like plant `1/(s^2 - 1)` (unstable pole at +1).
///
/// # Errors
///
/// See [`dc_servo`].
pub fn pendulum() -> Result<StateSpace> {
    TransferFunction::new(vec![1.0], vec![1.0, 0.0, -1.0])?.to_state_space()
}

/// A plant from the benchmark pool together with experiment metadata.
#[derive(Debug, Clone)]
pub struct BenchmarkPlant {
    /// Human-readable name.
    pub name: &'static str,
    /// The continuous-time model.
    pub plant: StateSpace,
    /// Sampling periods appropriate for this plant's dynamics (seconds).
    pub period_range: (f64, f64),
    /// LQG design weights.
    pub weights: LqgWeights,
}

/// The full benchmark pool used by the paper-scale experiments (§V).
///
/// # Errors
///
/// Never fails in practice (all models are fixed and valid).
///
/// # Examples
///
/// ```
/// use csa_control::plants::benchmark_pool;
///
/// # fn main() -> Result<(), csa_control::Error> {
/// let pool = benchmark_pool()?;
/// assert!(pool.len() >= 6);
/// assert!(pool.iter().any(|p| p.name == "dc_servo"));
/// # Ok(())
/// # }
/// ```
pub fn benchmark_pool() -> Result<Vec<BenchmarkPlant>> {
    let mut pool = Vec::new();
    // Control penalties are tuned so the delay margin `b` lands between
    // roughly 0.7 and 3 sampling periods at mid-range: tight enough that
    // the stability condition genuinely constrains priority assignment
    // (the Table I experiments are vacuous otherwise), loose enough that
    // schedulable sets exist.
    type PoolEntry = (&'static str, StateSpace, (f64, f64), f64, f64);
    let entries: [PoolEntry; 7] = [
        ("dc_servo", dc_servo()?, (0.002, 0.012), 1e-1, 1e-6),
        ("integrator", integrator()?, (0.005, 0.05), 1e-3, 1e-6),
        (
            "double_integrator",
            double_integrator()?,
            (0.005, 0.04),
            1e-5,
            1e-6,
        ),
        (
            "first_order_lag",
            first_order_lag()?,
            (0.01, 0.1),
            3e-3,
            1e-4,
        ),
        (
            "second_order_lag",
            second_order_lag()?,
            (0.01, 0.1),
            1e-4,
            1e-4,
        ),
        (
            "oscillator",
            oscillator(10.0, 0.1)?,
            (0.005, 0.05),
            1e-1,
            1e-6,
        ),
        ("pendulum", pendulum()?, (0.005, 0.05), 1e-4, 1e-6),
    ];
    for (name, plant, period_range, rho, sigma) in entries {
        let weights = LqgWeights::output_regulation(&plant, rho, sigma);
        pool.push(BenchmarkPlant {
            name,
            plant,
            period_range,
            weights,
        });
    }
    Ok(pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csa_linalg::{eigenvalues, is_hurwitz_stable};

    #[test]
    fn pool_members_have_expected_stability() {
        assert!(is_hurwitz_stable(first_order_lag().unwrap().a()).unwrap());
        assert!(is_hurwitz_stable(second_order_lag().unwrap().a()).unwrap());
        assert!(!is_hurwitz_stable(pendulum().unwrap().a()).unwrap());
        // Servo and integrators are marginally stable (pole at origin).
        assert!(!is_hurwitz_stable(dc_servo().unwrap().a()).unwrap());
    }

    #[test]
    fn oscillator_poles() {
        let w0 = 10.0;
        let zeta = 0.1;
        let p = oscillator(w0, zeta).unwrap();
        let eigs = eigenvalues(p.a()).unwrap();
        for e in eigs {
            assert!((e.re + zeta * w0).abs() < 1e-9);
            assert!((e.im.abs() - w0 * (1.0 - zeta * zeta).sqrt()).abs() < 1e-9);
        }
    }

    #[test]
    fn pendulum_pole_at_plus_one() {
        let eigs = eigenvalues(pendulum().unwrap().a()).unwrap();
        let mut res: Vec<f64> = eigs.iter().map(|e| e.re).collect();
        res.sort_by(f64::total_cmp);
        assert!((res[0] + 1.0).abs() < 1e-9);
        assert!((res[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pole_sort_survives_nan() {
        // Regression for the former `partial_cmp(..).unwrap()` pole
        // sort (clippy.toml's F001 rule, the margins.rs snap_to_series pattern):
        // a NaN real part must sort deterministically, never panic.
        let mut res = [1.0, f64::NAN, -1.0];
        res.sort_by(f64::total_cmp);
        assert_eq!(res[0], -1.0);
        assert_eq!(res[1], 1.0);
        assert!(res[2].is_nan());
    }

    #[test]
    fn pool_is_well_formed() {
        let pool = benchmark_pool().unwrap();
        for p in &pool {
            assert!(p.period_range.0 < p.period_range.1, "{}", p.name);
            assert_eq!(p.weights.q1.rows(), p.plant.order(), "{}", p.name);
            assert_eq!(p.plant.inputs(), 1, "{}", p.name);
            assert_eq!(p.plant.outputs(), 1, "{}", p.name);
        }
    }
}
