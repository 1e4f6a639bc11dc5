//! Discrete-time Lyapunov (Stein) equation solvers.
//!
//! Solves `X = A X A^T + Q`. Two methods are provided: a quadratically
//! convergent doubling iteration (the default, valid for Schur-stable `A`)
//! and a direct Kronecker-product linear solve (exact up to LU round-off,
//! usable near the stability boundary and as a cross-check in tests).

use crate::error::{Error, Result};
use crate::mat::Mat;

/// Maximum doubling iterations; `A^(2^60)` underflows for any stable system.
const MAX_DOUBLING: usize = 64;

/// Solves the discrete Lyapunov equation `X = A X A^T + Q` by doubling.
///
/// The iteration is `X_{k+1} = X_k + A_k X_k A_k^T`, `A_{k+1} = A_k^2`,
/// starting from `X_0 = Q`; it converges quadratically when `A` is Schur
/// stable (spectral radius < 1).
///
/// # Errors
///
/// [`Error::NotStable`] if the iterates diverge (spectral radius >= 1) and
/// [`Error::NoConvergence`] if convergence stalls without diverging
/// (spectral radius very close to 1).
///
/// # Panics
///
/// Panics if `a` and `q` are not square with equal dimensions.
///
/// # Examples
///
/// ```
/// use csa_linalg::{dlyap, Mat};
///
/// # fn main() -> Result<(), csa_linalg::Error> {
/// // Scalar: x = a^2 x + q  =>  x = q / (1 - a^2).
/// let x = dlyap(&Mat::scalar(0.5), &Mat::scalar(3.0))?;
/// assert!((x[(0, 0)] - 4.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn dlyap(a: &Mat, q: &Mat) -> Result<Mat> {
    assert!(a.is_square() && q.is_square(), "A and Q must be square");
    assert_eq!(a.rows(), q.rows(), "A and Q must have equal dimension");
    let mut x = q.clone();
    let mut ak = a.clone();
    let qscale = q.max_abs().max(1.0);
    for k in 0..MAX_DOUBLING {
        let term = &(&ak * &x) * &ak.transpose();
        let delta = term.max_abs();
        let x_new = &x + &term;
        if !x_new.is_finite() || x_new.max_abs() > 1e150 * qscale {
            return Err(Error::NotStable);
        }
        x = x_new;
        if delta <= 1e-14 * x.max_abs().max(qscale) {
            x.symmetrize();
            return Ok(x);
        }
        ak = &ak * &ak;
        if !ak.is_finite() || ak.max_abs() > 1e150 {
            return Err(Error::NotStable);
        }
        // If A_k has underflowed to ~0 the series has converged.
        if ak.max_abs() < 1e-150 {
            x.symmetrize();
            return Ok(x);
        }
        let _ = k;
    }
    Err(Error::NoConvergence {
        iterations: MAX_DOUBLING,
    })
}

/// Solves `X = A X A^T + Q` exactly via the Kronecker linear system
/// `(I - A (x) A) vec(X) = vec(Q)`.
///
/// Cost is `O(n^6)` so this is reserved for small matrices and for
/// cross-validating [`dlyap`]; it works for any `A` without unit-modulus
/// eigenvalue products.
///
/// # Errors
///
/// [`Error::Singular`] when `1` is an eigenvalue of `A (x) A` (the equation
/// is singular, e.g. marginally stable `A`).
///
/// # Panics
///
/// Panics if `a` and `q` are not square with equal dimensions.
pub fn dlyap_kron(a: &Mat, q: &Mat) -> Result<Mat> {
    assert!(a.is_square() && q.is_square(), "A and Q must be square");
    assert_eq!(a.rows(), q.rows(), "A and Q must have equal dimension");
    let n = a.rows();
    let kron = a.kron(a);
    let sys = &Mat::identity(n * n) - &kron;
    let x_vec = sys.solve(&q.vectorize())?;
    let mut x = Mat::from_vectorized(&x_vec, n, n);
    x.symmetrize();
    Ok(x)
}

/// Residual `max_abs(X - A X A^T - Q)`, for validation.
pub fn dlyap_residual(a: &Mat, q: &Mat, x: &Mat) -> f64 {
    let r = &(x - &(&(a * x) * &a.transpose())) - q;
    r.max_abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_closed_form() {
        let x = dlyap(&Mat::scalar(0.9), &Mat::scalar(1.0)).unwrap();
        assert!((x[(0, 0)] - 1.0 / (1.0 - 0.81)).abs() < 1e-10);
    }

    #[test]
    fn doubling_matches_kronecker() {
        let a = Mat::from_rows(&[&[0.5, 0.2, 0.0], &[-0.1, 0.6, 0.1], &[0.0, 0.3, -0.4]]);
        let q = Mat::from_diag(&[1.0, 2.0, 0.5]);
        let x1 = dlyap(&a, &q).unwrap();
        let x2 = dlyap_kron(&a, &q).unwrap();
        assert!(x1.max_abs_diff(&x2) < 1e-10);
        assert!(dlyap_residual(&a, &q, &x1) < 1e-11);
    }

    #[test]
    fn residual_is_small() {
        let a = Mat::from_rows(&[&[0.8, 0.1], &[-0.2, 0.7]]);
        let q = Mat::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
        let x = dlyap(&a, &q).unwrap();
        assert!(dlyap_residual(&a, &q, &x) < 1e-10);
        // Solution of a Lyapunov equation with symmetric PSD Q is symmetric.
        assert!((x[(0, 1)] - x[(1, 0)]).abs() < 1e-12);
    }

    #[test]
    fn unstable_detected() {
        let a = Mat::from_diag(&[1.5, 0.2]);
        assert!(matches!(
            dlyap(&a, &Mat::identity(2)),
            Err(Error::NotStable) | Err(Error::NoConvergence { .. })
        ));
    }

    #[test]
    fn marginally_stable_kron_is_singular() {
        let a = Mat::from_diag(&[1.0, 0.5]);
        assert_eq!(dlyap_kron(&a, &Mat::identity(2)), Err(Error::Singular));
    }

    #[test]
    fn near_marginal_still_solves() {
        let a = Mat::from_diag(&[0.999, 0.5]);
        let x = dlyap(&a, &Mat::identity(2)).unwrap();
        // x_00 = 1/(1 - 0.999^2) ≈ 500.25.
        assert!((x[(0, 0)] - 1.0 / (1.0 - 0.999f64.powi(2))).abs() < 1e-6);
    }
}
