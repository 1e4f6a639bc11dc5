//! The discrete reachability Gramian and reachability measures.
//!
//! The paper's Fig. 2 pathological sampling periods are exactly the
//! points where the sampled pair `(Phi, Gamma)` loses reachability
//! (Kalman, Ho & Narendra). These helpers quantify that loss: the
//! discrete reachability Gramian and its smallest eigenvalue as a
//! distance-to-unreachability measure.

use crate::eig::eigenvalues;
use crate::error::Result;
use crate::mat::Mat;

/// Finite-horizon discrete reachability Gramian
/// `W_N = sum_{k=0}^{N-1} A^k B B^T (A^T)^k`.
///
/// The pair `(A, B)` is reachable iff `W_n` (with `n` the state
/// dimension) is nonsingular.
///
/// # Panics
///
/// Panics if dimensions are inconsistent or `horizon == 0`.
///
/// # Examples
///
/// ```
/// use csa_linalg::{reachability_gramian, Mat};
///
/// let a = Mat::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
/// let b = Mat::col_vec(&[0.0, 1.0]);
/// let w = reachability_gramian(&a, &b, 2);
/// assert!(w.det().unwrap().abs() > 1e-12); // reachable in 2 steps
/// ```
pub fn reachability_gramian(a: &Mat, b: &Mat, horizon: usize) -> Mat {
    assert!(a.is_square(), "A must be square");
    assert_eq!(a.rows(), b.rows(), "A and B row counts differ");
    assert!(horizon > 0, "horizon must be positive");
    let n = a.rows();
    let mut w = Mat::zeros(n, n);
    let mut akb = b.clone();
    for _ in 0..horizon {
        w = &w + &(&akb * &akb.transpose());
        akb = a * &akb;
    }
    w.symmetrize();
    w
}

/// The smallest eigenvalue of the `n`-step reachability Gramian — a
/// scalar "how reachable" measure that collapses to ~0 at the paper's
/// pathological sampling periods.
///
/// # Errors
///
/// Propagates eigenvalue-solver failures.
pub fn reachability_measure(a: &Mat, b: &Mat) -> Result<f64> {
    let w = reachability_gramian(a, b, a.rows());
    let eigs = eigenvalues(&w)?;
    // W is symmetric PSD: eigenvalues are real and non-negative up to
    // round-off.
    Ok(eigs
        .into_iter()
        .map(|l| l.re)
        .fold(f64::INFINITY, f64::min)
        .max(0.0))
}

/// Relative tolerance of the Kalman rank test: directions weaker than
/// this fraction of the dominant one count as numerically unreachable.
/// Deliberately far above machine epsilon — a mode reachable only
/// through `sin(pi)`-sized floating-point residue is unreachable for
/// every practical purpose (it is exactly the pathological-sampling
/// situation this test exists to detect).
const RANK_REL_TOL: f64 = 1e-10;

/// Rank of the reachability matrix `[B, AB, ..., A^{n-1}B]` computed by
/// full-pivot elimination at the numerical tolerance `RANK_REL_TOL`
/// (1e-10 relative) — the Kalman rank test.
pub fn reachability_rank(a: &Mat, b: &Mat) -> usize {
    assert!(a.is_square(), "A must be square");
    let n = a.rows();
    let m = b.cols();
    // Build the controllability matrix.
    let mut cols = Mat::zeros(n, n * m);
    let mut akb = b.clone();
    for k in 0..n {
        cols.set_block(0, k * m, &akb);
        akb = a * &akb;
    }
    rank(&cols)
}

/// Numerical rank by Gaussian elimination with full pivoting.
fn rank(m: &Mat) -> usize {
    let mut a = m.clone();
    let rows = a.rows();
    let cols = a.cols();
    let tol = a.max_abs().max(1e-300) * RANK_REL_TOL;
    let mut rank = 0;
    let mut used_rows = vec![false; rows];
    for _ in 0..cols.min(rows) {
        // Find the largest remaining pivot.
        let mut best = tol;
        let mut pivot = None;
        for i in 0..rows {
            if used_rows[i] {
                continue;
            }
            for j in 0..cols {
                if a[(i, j)].abs() > best {
                    best = a[(i, j)].abs();
                    pivot = Some((i, j));
                }
            }
        }
        let Some((pi, pj)) = pivot else { break };
        used_rows[pi] = true;
        rank += 1;
        // Eliminate column pj from all unused rows.
        for i in 0..rows {
            if used_rows[i] {
                continue;
            }
            let f = a[(i, pj)] / a[(pi, pj)];
            if f != 0.0 {
                for j in 0..cols {
                    let v = f * a[(pi, j)];
                    a[(i, j)] -= v;
                }
            }
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expm::zoh;
    use crate::lyap::dlyap;

    #[test]
    fn double_integrator_is_reachable() {
        let a = Mat::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]);
        let b = Mat::col_vec(&[0.005, 0.1]);
        assert_eq!(reachability_rank(&a, &b), 2);
        assert!(reachability_measure(&a, &b).unwrap() > 0.0);
    }

    #[test]
    fn decoupled_mode_is_unreachable() {
        let a = Mat::from_diag(&[0.5, 0.8]);
        let b = Mat::col_vec(&[1.0, 0.0]);
        assert_eq!(reachability_rank(&a, &b), 1);
        assert!(reachability_measure(&a, &b).unwrap() < 1e-12);
    }

    #[test]
    fn pathological_sampling_kills_reachability() {
        // Undamped oscillator sampled at h = pi/w: the sampled pair loses
        // reachability — the mechanism behind the paper's Fig. 2 spikes.
        let w0 = 10.0f64;
        let a = Mat::from_rows(&[&[0.0, 1.0], &[-w0 * w0, 0.0]]);
        let b = Mat::col_vec(&[0.0, 1.0]);
        let ok = zoh(&a, &b, 0.8 * std::f64::consts::PI / w0).unwrap();
        assert_eq!(reachability_rank(&ok.phi, &ok.gamma), 2);
        let bad = zoh(&a, &b, std::f64::consts::PI / w0).unwrap();
        assert_eq!(reachability_rank(&bad.phi, &bad.gamma), 1);
        let m_ok = reachability_measure(&ok.phi, &ok.gamma).unwrap();
        let m_bad = reachability_measure(&bad.phi, &bad.gamma).unwrap();
        assert!(m_bad < 1e-9 * m_ok.max(1e-30), "measure must collapse");
    }

    #[test]
    fn finite_gramian_matches_lyapunov_for_stable_a() {
        let a = Mat::from_rows(&[&[0.5, 0.1], &[0.0, 0.4]]);
        let b = Mat::col_vec(&[1.0, 0.5]);
        let w_inf = dlyap(&a, &(&b * &b.transpose())).unwrap();
        let w_100 = reachability_gramian(&a, &b, 100);
        assert!(w_inf.max_abs_diff(&w_100) < 1e-10);
    }

    #[test]
    fn rank_of_degenerate_matrices() {
        assert_eq!(rank(&Mat::zeros(3, 3)), 0);
        assert_eq!(rank(&Mat::identity(4)), 4);
        let r1 = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(rank(&r1), 1);
    }
}
