//! Frequency responses of continuous and discrete systems.
//!
//! Besides the one-shot [`continuous_response`]/[`discrete_response`]
//! entry points, this module provides [`ResponseScratch`], the
//! jitter-margin sweep's re-entrant buffer reuse of the dense `O(n^3)`
//! solve, bit-identical to [`response_at`] (DESIGN.md §10).

use crate::error::{Error, Result};
use crate::ss::{DiscreteSs, StateSpace};
use csa_linalg::{CMat, Cplx, Mat};

/// Evaluates `G(s) = C (sI - A)^{-1} B + D` of a continuous system at
/// `s = j*omega`.
///
/// Returns the full (outputs x inputs) complex response matrix.
///
/// # Errors
///
/// [`csa_linalg::Error::Singular`] (wrapped) if `j*omega` is an eigenvalue
/// of `A` (a pole on the imaginary axis).
///
/// # Examples
///
/// ```
/// use csa_control::{continuous_response, TransferFunction};
///
/// # fn main() -> Result<(), csa_control::Error> {
/// let sys = TransferFunction::new(vec![1.0], vec![1.0, 1.0])?.to_state_space()?;
/// let g = continuous_response(&sys, 1.0)?; // |1/(1+j)| = 1/sqrt(2)
/// assert!((g[(0, 0)].abs() - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn continuous_response(sys: &StateSpace, omega: f64) -> Result<CMat> {
    response_at(sys.a(), sys.b(), sys.c(), sys.d(), Cplx::new(0.0, omega))
}

/// Evaluates `G(z) = C (zI - A)^{-1} B + D` of a discrete system at
/// `z = e^{j omega h}` where `h` is the system's sampling period.
///
/// # Errors
///
/// [`csa_linalg::Error::Singular`] (wrapped) if `z` is an eigenvalue of
/// `A` (a pole on the unit circle at this frequency).
///
/// # Examples
///
/// ```
/// use csa_control::{c2d_zoh, discrete_response, TransferFunction};
///
/// # fn main() -> Result<(), csa_control::Error> {
/// let sys = TransferFunction::new(vec![1.0], vec![1.0, 1.0])?.to_state_space()?;
/// let d = c2d_zoh(&sys, 0.01)?;
/// // At low frequency the discrete response approaches the DC gain 1.
/// let g = discrete_response(&d, 0.01)?;
/// assert!((g[(0, 0)].abs() - 1.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn discrete_response(sys: &DiscreteSs, omega: f64) -> Result<CMat> {
    let z = Cplx::from_angle(omega * sys.period());
    response_at(sys.a(), sys.b(), sys.c(), sys.d(), z)
}

/// Evaluates `C (pI - A)^{-1} B + D` at an arbitrary complex point `p`.
pub(crate) fn response_at(
    a: &csa_linalg::Mat,
    b: &csa_linalg::Mat,
    c: &csa_linalg::Mat,
    d: &csa_linalg::Mat,
    p: Cplx,
) -> Result<CMat> {
    let n = a.rows();
    let pi = &CMat::identity(n) * p;
    let m = &pi - &CMat::from_real(a);
    let x = m.solve(&CMat::from_real(b))?;
    let g = &CMat::from_real(c) * &x;
    Ok(&g + &CMat::from_real(d))
}

/// Re-entrant workspace for repeated dense frequency-response solves.
///
/// [`ResponseScratch::response_at_in`] performs the identical
/// floating-point operation sequence as [`response_at`] — build `pI - A`,
/// LU-eliminate against `B` with the same pivoting and zero-skips as
/// [`CMat::solve`], multiply by `C`, add `D` — so results are
/// bit-identical; only the intermediate allocations are replaced by
/// reused buffers.
#[derive(Debug, Clone)]
pub(crate) struct ResponseScratch {
    m: CMat,
    x: CMat,
    g: CMat,
}

impl ResponseScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused.
    pub(crate) fn new() -> Self {
        ResponseScratch {
            m: CMat::zeros(1, 1),
            x: CMat::zeros(1, 1),
            g: CMat::zeros(1, 1),
        }
    }

    /// Evaluates `C (pI - A)^{-1} B + D` into an internal buffer;
    /// bit-identical mirror of [`response_at`].
    pub(crate) fn response_at_in(
        &mut self,
        a: &Mat,
        b: &Mat,
        c: &Mat,
        d: &Mat,
        p: Cplx,
    ) -> Result<&CMat> {
        let n = a.rows();
        let nrhs = b.cols();
        // m = (I * p) - from_real(A), replicated element-by-element so even
        // the ±0.0 signs match the matrix-level expression of
        // `response_at` exactly.
        self.m.reset(n, n);
        for i in 0..n {
            for j in 0..n {
                let idc = if i == j { Cplx::ONE } else { Cplx::ZERO };
                self.m[(i, j)] = idc * p - Cplx::from_re(a[(i, j)]);
            }
        }
        self.x.copy_from_real(b);
        // In-place mirror of `CMat::solve` on (m, x): same row-major scale
        // fold, pivoting rule, and zero-skips.
        let scale = {
            let mut s = 0.0f64;
            for i in 0..n {
                for j in 0..n {
                    s = s.max(self.m[(i, j)].abs());
                }
            }
            s.max(1.0)
        };
        let tol = scale * f64::EPSILON * (n as f64);
        for k in 0..n {
            let mut piv = k;
            let mut best = self.m[(k, k)].abs();
            for i in (k + 1)..n {
                let v = self.m[(i, k)].abs();
                if v > best {
                    best = v;
                    piv = i;
                }
            }
            if best <= tol {
                return Err(Error::Numerical(csa_linalg::Error::Singular));
            }
            if piv != k {
                for j in 0..n {
                    let t = self.m[(k, j)];
                    self.m[(k, j)] = self.m[(piv, j)];
                    self.m[(piv, j)] = t;
                }
                for j in 0..nrhs {
                    let t = self.x[(k, j)];
                    self.x[(k, j)] = self.x[(piv, j)];
                    self.x[(piv, j)] = t;
                }
            }
            let pivot = self.m[(k, k)];
            for i in (k + 1)..n {
                let f = self.m[(i, k)] / pivot;
                self.m[(i, k)] = f;
                if f != Cplx::ZERO {
                    for j in (k + 1)..n {
                        let v = f * self.m[(k, j)];
                        self.m[(i, j)] -= v;
                    }
                    for j in 0..nrhs {
                        let v = f * self.x[(k, j)];
                        self.x[(i, j)] -= v;
                    }
                }
            }
        }
        for k in (0..n).rev() {
            let dkk = self.m[(k, k)];
            for j in 0..nrhs {
                self.x[(k, j)] = self.x[(k, j)] / dkk;
            }
            for i in 0..k {
                let u = self.m[(i, k)];
                if u != Cplx::ZERO {
                    for j in 0..nrhs {
                        let v = u * self.x[(k, j)];
                        self.x[(i, j)] -= v;
                    }
                }
            }
        }
        // g = from_real(C) * x + from_real(D), with the product's zero-skip.
        let rows = c.rows();
        self.g.reset(rows, nrhs);
        for i in 0..rows {
            for k in 0..c.cols() {
                let aik = Cplx::from_re(c[(i, k)]);
                if aik == Cplx::ZERO {
                    continue;
                }
                for j in 0..nrhs {
                    let v = aik * self.x[(k, j)];
                    self.g[(i, j)] += v;
                }
            }
        }
        for i in 0..rows {
            for j in 0..nrhs {
                self.g[(i, j)] += Cplx::from_re(d[(i, j)]);
            }
        }
        Ok(&self.g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c2d::c2d_zoh;
    use crate::ss::TransferFunction;

    #[test]
    fn first_order_lag_magnitude_and_phase() {
        let sys = TransferFunction::new(vec![2.0], vec![1.0, 1.0])
            .unwrap()
            .to_state_space()
            .unwrap();
        // G(jw) = 2/(1+jw).
        for &w in &[0.0, 0.5, 1.0, 10.0] {
            let g = continuous_response(&sys, w).unwrap()[(0, 0)];
            let expect = Cplx::from_re(2.0) / Cplx::new(1.0, w);
            assert!((g - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn discrete_response_of_known_system() {
        // x+ = 0.5 x + u, y = x: G(z) = 1/(z - 0.5).
        let d = DiscreteSs::new(
            csa_linalg::Mat::scalar(0.5),
            csa_linalg::Mat::scalar(1.0),
            csa_linalg::Mat::scalar(1.0),
            csa_linalg::Mat::scalar(0.0),
            1.0,
        )
        .unwrap();
        for &w in &[0.1, 1.0, 3.0] {
            let z = Cplx::from_angle(w);
            let g = discrete_response(&d, w).unwrap()[(0, 0)];
            let expect = Cplx::ONE / (z - Cplx::from_re(0.5));
            assert!((g - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn zoh_response_matches_formula() {
        // ZOH of 1/(s+1) at h: G(z) = (1-e^{-h})/(z - e^{-h}).
        let sys = TransferFunction::new(vec![1.0], vec![1.0, 1.0])
            .unwrap()
            .to_state_space()
            .unwrap();
        let h = 0.2;
        let d = c2d_zoh(&sys, h).unwrap();
        let a = (-h).exp();
        for &w in &[0.3, 2.0, std::f64::consts::PI / h] {
            let z = Cplx::from_angle(w * h);
            let g = discrete_response(&d, w).unwrap()[(0, 0)];
            let expect = Cplx::from_re(1.0 - a) / (z - Cplx::from_re(a));
            assert!((g - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn response_scratch_bit_identical_to_one_shot() {
        let a =
            csa_linalg::Mat::from_rows(&[&[0.2, 1.0, 0.0], &[-0.3, 0.5, 0.2], &[0.0, -0.1, 0.7]]);
        let b = csa_linalg::Mat::col_vec(&[1.0, 0.5, -0.2]);
        let c = csa_linalg::Mat::from_rows(&[&[1.0, 0.0, 2.0]]);
        let d = csa_linalg::Mat::zeros(1, 1);
        let mut scratch = ResponseScratch::new();
        for &w in &[0.1, 0.9, 2.4, 3.1] {
            let z = Cplx::from_angle(w);
            let reference = response_at(&a, &b, &c, &d, z).unwrap();
            let got = scratch.response_at_in(&a, &b, &c, &d, z).unwrap();
            assert_eq!(got[(0, 0)].re.to_bits(), reference[(0, 0)].re.to_bits());
            assert_eq!(got[(0, 0)].im.to_bits(), reference[(0, 0)].im.to_bits());
        }
    }

    #[test]
    fn pole_on_axis_is_singular() {
        // Integrator: response at w = 0 does not exist.
        let sys = TransferFunction::new(vec![1.0], vec![1.0, 0.0])
            .unwrap()
            .to_state_space()
            .unwrap();
        assert!(continuous_response(&sys, 0.0).is_err());
        assert!(continuous_response(&sys, 1.0).is_ok());
    }
}
