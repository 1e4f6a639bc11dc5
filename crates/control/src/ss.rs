//! Linear time-invariant system representations.
//!
//! Continuous-time plants are the paper's Eq. 1 (`x' = A x + B u`); the
//! discrete-time form carries its sampling period so downstream code can
//! never mix discretizations at different rates by accident.

use crate::error::{Error, Result};
use csa_linalg::Mat;

/// A continuous-time LTI system `x' = A x + B u`, `y = C x + D u`.
///
/// # Examples
///
/// ```
/// use csa_control::StateSpace;
/// use csa_linalg::Mat;
///
/// # fn main() -> Result<(), csa_control::Error> {
/// // Double integrator.
/// let sys = StateSpace::new(
///     Mat::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]),
///     Mat::col_vec(&[0.0, 1.0]),
///     Mat::row_vec(&[1.0, 0.0]),
///     Mat::scalar(0.0),
/// )?;
/// assert_eq!(sys.order(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpace {
    a: Mat,
    b: Mat,
    c: Mat,
    d: Mat,
}

impl StateSpace {
    /// Creates a system, validating dimensional consistency.
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedModel`] if the dimensions are inconsistent.
    pub fn new(a: Mat, b: Mat, c: Mat, d: Mat) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::UnsupportedModel("A must be square"));
        }
        if b.rows() != a.rows() {
            return Err(Error::UnsupportedModel("B must have as many rows as A"));
        }
        if c.cols() != a.cols() {
            return Err(Error::UnsupportedModel("C must have as many columns as A"));
        }
        if d.rows() != c.rows() || d.cols() != b.cols() {
            return Err(Error::UnsupportedModel("D must be (outputs x inputs)"));
        }
        Ok(StateSpace { a, b, c, d })
    }

    /// State matrix `A`.
    pub fn a(&self) -> &Mat {
        &self.a
    }

    /// Input matrix `B`.
    pub fn b(&self) -> &Mat {
        &self.b
    }

    /// Output matrix `C`.
    pub fn c(&self) -> &Mat {
        &self.c
    }

    /// Feedthrough matrix `D`.
    pub fn d(&self) -> &Mat {
        &self.d
    }

    /// Number of states.
    pub fn order(&self) -> usize {
        self.a.rows()
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.b.cols()
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.c.rows()
    }
}

/// A discrete-time LTI system `x+ = A x + B u`, `y = C x + D u`, tagged
/// with its sampling period in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteSs {
    a: Mat,
    b: Mat,
    c: Mat,
    d: Mat,
    period: f64,
}

impl DiscreteSs {
    /// Creates a discrete system, validating dimensional consistency.
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedModel`] on inconsistent dimensions,
    /// [`Error::InvalidParameter`] for a non-positive period.
    pub fn new(a: Mat, b: Mat, c: Mat, d: Mat, period: f64) -> Result<Self> {
        if !(period.is_finite() && period > 0.0) {
            return Err(Error::InvalidParameter("sampling period must be positive"));
        }
        let ss = StateSpace::new(a, b, c, d)?;
        Ok(DiscreteSs {
            a: ss.a,
            b: ss.b,
            c: ss.c,
            d: ss.d,
            period,
        })
    }

    /// State matrix `A`.
    pub fn a(&self) -> &Mat {
        &self.a
    }

    /// Input matrix `B`.
    pub fn b(&self) -> &Mat {
        &self.b
    }

    /// Output matrix `C`.
    pub fn c(&self) -> &Mat {
        &self.c
    }

    /// Feedthrough matrix `D`.
    pub fn d(&self) -> &Mat {
        &self.d
    }

    /// Sampling period in seconds.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Number of states.
    pub fn order(&self) -> usize {
        self.a.rows()
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.b.cols()
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.c.rows()
    }

    /// Returns `true` if the autonomous system is Schur stable.
    ///
    /// # Errors
    ///
    /// Propagates eigenvalue-solver failures.
    pub fn is_stable(&self) -> Result<bool> {
        Ok(csa_linalg::is_schur_stable(&self.a)?)
    }
}

/// A single-input single-output transfer function
/// `G(s) = num(s) / den(s)` with coefficients in descending powers of `s`.
///
/// # Examples
///
/// ```
/// use csa_control::TransferFunction;
///
/// # fn main() -> Result<(), csa_control::Error> {
/// // The paper's DC servo: 1000 / (s^2 + s).
/// let g = TransferFunction::new(vec![1000.0], vec![1.0, 1.0, 0.0])?;
/// let ss = g.to_state_space()?;
/// assert_eq!(ss.order(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFunction {
    num: Vec<f64>,
    den: Vec<f64>,
}

impl TransferFunction {
    /// Creates a transfer function. The denominator's leading coefficient
    /// must be non-zero; the numerator degree must not exceed the
    /// denominator degree (proper system).
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedModel`] on an empty/zero denominator or an
    /// improper ratio.
    pub fn new(num: Vec<f64>, den: Vec<f64>) -> Result<Self> {
        let num = trim_leading_zeros(num);
        let den = trim_leading_zeros(den);
        if den.is_empty() {
            return Err(Error::UnsupportedModel("denominator must be non-zero"));
        }
        if num.len() > den.len() {
            return Err(Error::UnsupportedModel(
                "transfer function must be proper (deg num <= deg den)",
            ));
        }
        if num.is_empty() {
            return Err(Error::UnsupportedModel("numerator must be non-zero"));
        }
        Ok(TransferFunction { num, den })
    }

    /// Numerator coefficients (descending powers, normalized so the
    /// denominator is monic).
    pub fn num(&self) -> &[f64] {
        &self.num
    }

    /// Denominator coefficients (descending powers).
    pub fn den(&self) -> &[f64] {
        &self.den
    }

    /// Evaluates `G` at a complex point `s`.
    pub fn evaluate(&self, s: csa_linalg::Cplx) -> csa_linalg::Cplx {
        poly_eval(&self.num, s) / poly_eval(&self.den, s)
    }

    /// Converts to controllable canonical state-space form.
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedModel`] only on internal inconsistencies (the
    /// constructor already validated properness).
    pub fn to_state_space(&self) -> Result<StateSpace> {
        let lead = self.den[0];
        let den: Vec<f64> = self.den.iter().map(|c| c / lead).collect();
        let n = den.len() - 1;
        if n == 0 {
            // Pure gain.
            let g = self.num[0] / lead;
            return StateSpace::new(
                Mat::zeros(1, 1),
                Mat::zeros(1, 1),
                Mat::zeros(1, 1),
                Mat::scalar(g),
            );
        }
        // Pad numerator to length n+1 (same degree as denominator).
        let mut num = vec![0.0; n + 1 - self.num.len()];
        num.extend(self.num.iter().map(|c| c / lead));
        let d0 = num[0]; // feedthrough when deg num == deg den

        // Controllable canonical form:
        // A = [ -a1 -a2 ... -an; 1 0 ...; 0 1 0 ...; ... ], B = e1,
        // C row: b_i - a_i * d0.
        let mut a = Mat::zeros(n, n);
        for j in 0..n {
            a[(0, j)] = -den[j + 1];
        }
        for i in 1..n {
            a[(i, i - 1)] = 1.0;
        }
        let mut b = Mat::zeros(n, 1);
        b[(0, 0)] = 1.0;
        let mut c = Mat::zeros(1, n);
        for j in 0..n {
            c[(0, j)] = num[j + 1] - den[j + 1] * d0;
        }
        StateSpace::new(a, b, c, Mat::scalar(d0))
    }
}

/// Evaluates a polynomial with descending-power coefficients at `s`.
fn poly_eval(coeffs: &[f64], s: csa_linalg::Cplx) -> csa_linalg::Cplx {
    let mut acc = csa_linalg::Cplx::ZERO;
    for &c in coeffs {
        acc = acc * s + csa_linalg::Cplx::from_re(c);
    }
    acc
}

fn trim_leading_zeros(mut v: Vec<f64>) -> Vec<f64> {
    let first_nonzero = v.iter().position(|&c| c != 0.0);
    match first_nonzero {
        Some(k) => {
            v.drain(..k);
            v
        }
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csa_linalg::{eigenvalues, Cplx};

    #[test]
    fn state_space_validation() {
        let bad = StateSpace::new(
            Mat::zeros(2, 3),
            Mat::zeros(2, 1),
            Mat::zeros(1, 2),
            Mat::zeros(1, 1),
        );
        assert!(bad.is_err());
        let bad_b = StateSpace::new(
            Mat::zeros(2, 2),
            Mat::zeros(3, 1),
            Mat::zeros(1, 2),
            Mat::zeros(1, 1),
        );
        assert!(bad_b.is_err());
    }

    #[test]
    fn discrete_period_validated() {
        let m = Mat::identity(1);
        assert!(DiscreteSs::new(m.clone(), m.clone(), m.clone(), m.clone(), 0.0).is_err());
        assert!(DiscreteSs::new(m.clone(), m.clone(), m.clone(), m.clone(), -1.0).is_err());
        let ok = DiscreteSs::new(Mat::scalar(0.5), m.clone(), m.clone(), m, 0.01).unwrap();
        assert!(ok.is_stable().unwrap());
    }

    #[test]
    fn tf_poles_become_state_matrix_eigenvalues() {
        // den (s+1)(s+2) = s^2 + 3s + 2.
        let g = TransferFunction::new(vec![1.0], vec![1.0, 3.0, 2.0]).unwrap();
        let ss = g.to_state_space().unwrap();
        let mut poles: Vec<f64> = eigenvalues(ss.a()).unwrap().iter().map(|l| l.re).collect();
        poles.sort_by(f64::total_cmp);
        assert!((poles[0] + 2.0).abs() < 1e-10);
        assert!((poles[1] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn pole_sort_survives_nan() {
        // Regression for the former `partial_cmp(..).unwrap()` pole
        // sort (clippy.toml's F001 rule, the margins.rs snap_to_series pattern):
        // a NaN pole must sort deterministically, never panic.
        let mut poles = [f64::NAN, 1.0, f64::NEG_INFINITY, -2.0];
        poles.sort_by(f64::total_cmp);
        assert_eq!(poles[0], f64::NEG_INFINITY);
        assert_eq!(poles[1], -2.0);
        assert_eq!(poles[2], 1.0);
        assert!(poles[3].is_nan());
    }

    #[test]
    fn dc_servo_realization_matches_tf() {
        let g = TransferFunction::new(vec![1000.0], vec![1.0, 1.0, 0.0]).unwrap();
        let ss = g.to_state_space().unwrap();
        // Compare frequency response of tf and ss at a few points.
        for &w in &[0.1, 1.0, 10.0, 100.0] {
            let s = Cplx::new(0.0, w);
            let tf_val = g.evaluate(s);
            let ss_val = crate::freq::continuous_response(&ss, w).unwrap()[(0, 0)];
            assert!(
                (tf_val - ss_val).abs() < 1e-9 * tf_val.abs().max(1.0),
                "mismatch at w={w}: {tf_val} vs {ss_val}"
            );
        }
    }

    #[test]
    fn non_monic_denominator_normalized() {
        // 4 / (2s + 2) == 2/(s+1).
        let g = TransferFunction::new(vec![4.0], vec![2.0, 2.0]).unwrap();
        let ss = g.to_state_space().unwrap();
        assert!((ss.a()[(0, 0)] + 1.0).abs() < 1e-12);
        // DC gain = C(-A)^{-1}B + D = 2.
        let dc = ss.c()[(0, 0)] * ss.b()[(0, 0)] / 1.0;
        assert!((dc - 2.0).abs() < 1e-12);
    }

    #[test]
    fn biproper_tf_has_feedthrough() {
        // (s + 2)/(s + 1): D = 1, C = b1 - a1*d0 = 2 - 1 = 1.
        let g = TransferFunction::new(vec![1.0, 2.0], vec![1.0, 1.0]).unwrap();
        let ss = g.to_state_space().unwrap();
        assert!((ss.d()[(0, 0)] - 1.0).abs() < 1e-12);
        for &w in &[0.0, 0.5, 3.0] {
            let s = Cplx::new(0.0, w);
            let tf_val = g.evaluate(s);
            let ss_val = crate::freq::continuous_response(&ss, w).unwrap()[(0, 0)];
            assert!((tf_val - ss_val).abs() < 1e-10);
        }
    }

    #[test]
    fn improper_rejected() {
        assert!(TransferFunction::new(vec![1.0, 0.0, 0.0], vec![1.0, 1.0]).is_err());
        assert!(TransferFunction::new(vec![1.0], vec![0.0]).is_err());
        assert!(TransferFunction::new(vec![0.0], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn leading_zeros_trimmed() {
        let g = TransferFunction::new(vec![0.0, 5.0], vec![0.0, 1.0, 1.0]).unwrap();
        assert_eq!(g.num(), &[5.0]);
        assert_eq!(g.den(), &[1.0, 1.0]);
    }

    #[test]
    fn pure_gain_tf() {
        let g = TransferFunction::new(vec![3.0], vec![2.0]).unwrap();
        let ss = g.to_state_space().unwrap();
        assert!((ss.d()[(0, 0)] - 1.5).abs() < 1e-12);
    }
}
