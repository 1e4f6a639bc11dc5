//! Discrete-time algebraic Riccati equation (DARE) solvers.
//!
//! Solves
//!
//! ```text
//! S = A^T S A - (A^T S B + N)(R + B^T S B)^{-1}(B^T S A + N^T) + Q
//! ```
//!
//! for the stabilizing solution `S`, together with the optimal feedback gain
//! `K = (R + B^T S B)^{-1}(B^T S A + N^T)` so that `u = -K x` minimizes the
//! infinite-horizon cost with stage weight `[Q N; N^T R]`.
//!
//! Two methods: the structure-preserving doubling algorithm (SDA, default,
//! quadratically convergent) and a plain fixed-point value iteration used
//! as an independent cross-check. Cross-weights `N` are handled by the
//! standard completion-of-squares reduction. The SDA runs on a
//! [`DareScratch`] workspace; [`solve_dare`] is that solve on a fresh one.

use crate::eig::EigScratch;
use crate::error::{Error, Result};
use crate::lu::Lu;
use crate::mat::Mat;

/// Solution of a DARE: the stabilizing cost matrix and optimal gain.
#[derive(Debug, Clone)]
pub struct DareSolution {
    /// Stabilizing solution `S` (symmetric positive semidefinite).
    pub s: Mat,
    /// Optimal state-feedback gain `K` (`u = -K x`).
    pub k: Mat,
}

/// Weights of the quadratic stage cost `[x; u]^T [Q N; N^T R] [x; u]`.
#[derive(Debug, Clone)]
pub struct StageCost {
    /// State weight `Q` (`n x n`, symmetric PSD).
    pub q: Mat,
    /// Cross weight `N` (`n x m`).
    pub n: Mat,
    /// Input weight `R` (`m x m`, symmetric positive definite).
    pub r: Mat,
}

impl StageCost {
    /// Stage cost without cross terms.
    pub fn new(q: Mat, r: Mat) -> Self {
        let n = Mat::zeros(q.rows(), r.rows());
        StageCost { q, n, r }
    }

    /// Stage cost with a cross weight `N`.
    pub fn with_cross(q: Mat, n: Mat, r: Mat) -> Self {
        StageCost { q, n, r }
    }
}

/// Maximum SDA iterations (quadratic convergence: ~60 is far beyond need).
const MAX_SDA: usize = 120;
/// Maximum fixed-point iterations.
const MAX_FIXED_POINT: usize = 200_000;

/// Solves the DARE by the structure-preserving doubling algorithm.
///
/// # Errors
///
/// * [`Error::NotStable`] — iterates diverge: no stabilizing solution
///   exists (e.g. unreachable unstable modes — the "pathological sampling
///   period" case of the paper's Fig. 2).
/// * [`Error::NoConvergence`] — iteration stalled.
/// * [`Error::Singular`] — `R + B^T S B` or an internal pivot became
///   singular.
///
/// # Panics
///
/// Panics if matrix dimensions are inconsistent.
///
/// # Examples
///
/// ```
/// use csa_linalg::{solve_dare, Mat, StageCost};
///
/// # fn main() -> Result<(), csa_linalg::Error> {
/// // Scalar: a = 1, b = 1, q = 1, r = 1 => s = (1 + sqrt(5))/2 golden ratio.
/// let sol = solve_dare(
///     &Mat::scalar(1.0),
///     &Mat::scalar(1.0),
///     &StageCost::new(Mat::scalar(1.0), Mat::scalar(1.0)),
/// )?;
/// assert!((sol.s[(0, 0)] - (1.0 + 5.0f64.sqrt()) / 2.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn solve_dare(a: &Mat, b: &Mat, cost: &StageCost) -> Result<DareSolution> {
    DareScratch::new().solve(a, b, cost)
}

/// Re-entrant DARE workspace: the SDA solve on buffers reused across
/// calls.
///
/// [`solve_dare`] runs [`DareScratch::solve`] on a fresh workspace, so a
/// reused workspace and the one-shot function return the same bits.
///
/// # Examples
///
/// ```
/// use csa_linalg::{solve_dare, DareScratch, Mat, StageCost};
///
/// # fn main() -> Result<(), csa_linalg::Error> {
/// let a = Mat::scalar(1.0);
/// let b = Mat::scalar(1.0);
/// let cost = StageCost::new(Mat::scalar(1.0), Mat::scalar(1.0));
/// let mut scratch = DareScratch::new();
/// let cold = solve_dare(&a, &b, &cost)?;
/// let sol = scratch.solve(&a, &b, &cost)?;
/// assert_eq!(sol.s, cold.s);
/// assert_eq!(sol.k, cold.k);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DareScratch {
    lu: Lu,
    eig: EigScratch,
    // Cross-term reduction.
    nt: Mat,
    rinv_nt: Mat,
    a_red: Mat,
    q_red: Mat,
    ident_m: Mat,
    rinv: Mat,
    // SDA iterates.
    ident: Mat,
    ak: Mat,
    gk: Mat,
    hk: Mat,
    akt: Mat,
    w: Mat,
    w_inv_a: Mat,
    w_inv_g: Mat,
    a_next: Mat,
    g_next: Mat,
    h_next: Mat,
    // Gain extraction / stability verification.
    bt: Mat,
    bts: Mat,
    denom: Mat,
    rhs: Mat,
    kmat: Mat,
    acl: Mat,
    // General temporaries.
    t1: Mat,
    t2: Mat,
    t3: Mat,
}

impl DareScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused.
    pub fn new() -> Self {
        let z = || Mat::buffer(0);
        DareScratch {
            lu: Lu::default(),
            eig: EigScratch::new(),
            nt: z(),
            rinv_nt: z(),
            a_red: z(),
            q_red: z(),
            ident_m: z(),
            rinv: z(),
            ident: z(),
            ak: z(),
            gk: z(),
            hk: z(),
            akt: z(),
            w: z(),
            w_inv_a: z(),
            w_inv_g: z(),
            a_next: z(),
            g_next: z(),
            h_next: z(),
            bt: z(),
            bts: z(),
            denom: z(),
            rhs: z(),
            kmat: z(),
            acl: z(),
            t1: z(),
            t2: z(),
            t3: z(),
        }
    }

    /// Completion-of-squares reduction eliminating cross terms:
    /// `A~ = A - B R^{-1} N^T` into `a_red`, `Q~ = Q - N R^{-1} N^T` into
    /// `q_red`, leaving `lu` holding the factorization of `R`.
    fn complete_squares(&mut self, a: &Mat, b: &Mat, cost: &StageCost) -> Result<()> {
        assert!(a.is_square(), "A must be square");
        assert_eq!(a.rows(), b.rows(), "A and B row counts differ");
        assert_eq!(cost.q.rows(), a.rows(), "Q dimension mismatch");
        assert_eq!(cost.r.rows(), b.cols(), "R dimension mismatch");
        assert_eq!(cost.n.shape(), (a.rows(), b.cols()), "N must be n x m");
        self.lu.factor(&cost.r)?;
        self.nt.transpose_into(&cost.n);
        self.lu.solve_into(&self.nt, &mut self.rinv_nt)?; // R^{-1} N'
        self.t1.mul_into(b, &self.rinv_nt);
        self.a_red.sub_into(a, &self.t1);
        self.t2.mul_into(&cost.n, &self.rinv_nt);
        self.q_red.sub_into(&cost.q, &self.t2);
        self.q_red.symmetrize();
        Ok(())
    }

    /// Gain `K = (R + B^T S B)^{-1}(B^T S A + N^T)` into `kmat`.
    fn gain_from_s_in(&mut self, a: &Mat, b: &Mat, cost: &StageCost, s: &Mat) -> Result<()> {
        self.bt.transpose_into(b);
        self.bts.mul_into(&self.bt, s);
        self.t1.mul_into(&self.bts, b);
        self.denom.add_into(&cost.r, &self.t1);
        self.t2.mul_into(&self.bts, a);
        self.nt.transpose_into(&cost.n);
        self.rhs.add_into(&self.t2, &self.nt);
        self.lu.factor(&self.denom)?;
        self.lu.solve_into(&self.rhs, &mut self.kmat)
    }

    /// The `verify_stabilizing` check on the gain in `kmat`.
    fn verify_stabilizing_in(&mut self, a: &Mat, b: &Mat) -> Result<()> {
        self.t1.mul_into(b, &self.kmat);
        self.acl.sub_into(a, &self.t1);
        let rho = self.eig.spectral_radius_in(&self.acl)?;
        if rho >= 1.0 - 1e-9 {
            return Err(Error::NotStable);
        }
        Ok(())
    }

    /// Solves the DARE by SDA; see [`solve_dare`].
    ///
    /// # Errors
    ///
    /// Same as [`solve_dare`].
    ///
    /// # Panics
    ///
    /// Panics if matrix dimensions are inconsistent.
    pub fn solve(&mut self, a: &Mat, b: &Mat, cost: &StageCost) -> Result<DareSolution> {
        self.complete_squares(a, b, cost)?;
        // rinv = R^{-1}, solved on the factorization of R left in `lu`.
        self.ident_m.set_identity(cost.r.rows());
        self.lu.solve_into(&self.ident_m, &mut self.rinv)?;
        self.t1.mul_into(b, &self.rinv);
        self.bt.transpose_into(b);
        self.gk.mul_into(&self.t1, &self.bt); // G_0 = B R^{-1} B'

        // SDA iteration on (A_k, G_k, H_k).
        let n = a.rows();
        self.ident.set_identity(n);
        self.ak.copy_from(&self.a_red);
        self.hk.copy_from(&self.q_red);

        let mut converged = false;
        for _ in 0..MAX_SDA {
            // W = I + G_k H_k; solve W^{-1} once per iteration.
            self.t1.mul_into(&self.gk, &self.hk);
            self.w.add_into(&self.ident, &self.t1);
            self.lu.factor(&self.w)?;
            if self.lu.is_singular() {
                return Err(Error::Singular);
            }
            self.lu.solve_into(&self.ak, &mut self.w_inv_a)?; // W^{-1} A_k
            self.lu.solve_into(&self.gk, &mut self.w_inv_g)?; // W^{-1} G_k
            self.a_next.mul_into(&self.ak, &self.w_inv_a);
            self.t1.mul_into(&self.ak, &self.w_inv_g);
            self.akt.transpose_into(&self.ak);
            self.t2.mul_into(&self.t1, &self.akt);
            self.g_next.add_into(&self.gk, &self.t2);
            self.t1.mul_into(&self.akt, &self.hk);
            self.t3.mul_into(&self.t1, &self.w_inv_a); // H-update increment
            self.h_next.add_into(&self.hk, &self.t3);

            if !self.h_next.is_finite() || self.h_next.max_abs() > 1e130 {
                return Err(Error::NotStable);
            }
            let delta = self.t3.max_abs();
            std::mem::swap(&mut self.ak, &mut self.a_next);
            std::mem::swap(&mut self.gk, &mut self.g_next);
            std::mem::swap(&mut self.hk, &mut self.h_next);
            if delta <= 1e-13 * self.hk.max_abs().max(1.0) {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(Error::NoConvergence {
                iterations: MAX_SDA,
            });
        }
        let mut s = self.hk.clone();
        s.symmetrize();
        self.gain_from_s_in(a, b, cost, &s)?;
        self.verify_stabilizing_in(a, b)?;
        Ok(DareSolution {
            s,
            k: self.kmat.clone(),
        })
    }
}

impl Default for DareScratch {
    fn default() -> Self {
        DareScratch::new()
    }
}

/// Rejects converged-but-non-stabilizing solutions: doubling can converge
/// even when an unreachable mode sits exactly on the unit circle (the
/// paper's pathological sampling periods), in which case no gain moves it.
fn verify_stabilizing(a: &Mat, b: &Mat, k: &Mat) -> Result<()> {
    let acl = a - &(b * k);
    let rho = crate::eig::spectral_radius(&acl)?;
    if rho >= 1.0 - 1e-9 {
        return Err(Error::NotStable);
    }
    Ok(())
}

/// Solves the DARE by plain value iteration `S <- Ric(S)` from `S_0 = Q`.
///
/// Linearly convergent; retained as an independent cross-check of
/// [`solve_dare`] and for regression tests.
///
/// # Errors
///
/// Same as [`solve_dare`].
pub fn solve_dare_fixed_point(a: &Mat, b: &Mat, cost: &StageCost) -> Result<DareSolution> {
    let mut s = cost.q.clone();
    let qscale = cost.q.max_abs().max(1.0);
    for _ in 0..MAX_FIXED_POINT {
        let s_next = riccati_step(a, b, cost, &s)?;
        if !s_next.is_finite() || s_next.max_abs() > 1e130 * qscale {
            return Err(Error::NotStable);
        }
        let delta = s_next.max_abs_diff(&s);
        s = s_next;
        if delta <= 1e-12 * s.max_abs().max(1.0) {
            s.symmetrize();
            let k = gain_from_s(a, b, cost, &s)?;
            verify_stabilizing(a, b, &k)?;
            return Ok(DareSolution { s, k });
        }
    }
    Err(Error::NoConvergence {
        iterations: MAX_FIXED_POINT,
    })
}

/// One Riccati value-iteration step.
fn riccati_step(a: &Mat, b: &Mat, cost: &StageCost, s: &Mat) -> Result<Mat> {
    let bsb = &(&b.transpose() * s) * b;
    let denom = &cost.r + &bsb;
    let bsa = &(&b.transpose() * s) * a;
    let rhs = &bsa + &cost.n.transpose();
    let x = denom.solve(&rhs)?; // (R + B'SB)^{-1} (B'SA + N')
    let asa = &(&a.transpose() * s) * a;
    let corr = &(&a.transpose() * &(s * b)) + &cost.n; // A'SB + N
    let mut out = &(&asa - &(&corr * &x)) + &cost.q;
    out.symmetrize();
    Ok(out)
}

/// Gain `K = (R + B^T S B)^{-1}(B^T S A + N^T)` from a solution `S`.
fn gain_from_s(a: &Mat, b: &Mat, cost: &StageCost, s: &Mat) -> Result<Mat> {
    let denom = &cost.r + &(&(&b.transpose() * s) * b);
    let rhs = &(&(&b.transpose() * s) * a) + &cost.n.transpose();
    denom.solve(&rhs)
}

/// Residual `max_abs(S - Ric(S))`, for validation.
pub fn dare_residual(a: &Mat, b: &Mat, cost: &StageCost, s: &Mat) -> f64 {
    match riccati_step(a, b, cost, s) {
        Ok(next) => next.max_abs_diff(s),
        Err(_) => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::is_schur_stable;

    #[test]
    fn scalar_golden_ratio() {
        let sol = solve_dare(
            &Mat::scalar(1.0),
            &Mat::scalar(1.0),
            &StageCost::new(Mat::scalar(1.0), Mat::scalar(1.0)),
        )
        .unwrap();
        let golden = (1.0 + 5.0f64.sqrt()) / 2.0;
        assert!((sol.s[(0, 0)] - golden).abs() < 1e-10);
        // Closed loop a - b k must be stable.
        assert!((1.0 - sol.k[(0, 0)]).abs() < 1.0);
    }

    #[test]
    fn sda_matches_fixed_point() {
        let a = Mat::from_rows(&[&[1.1, 0.3], &[0.0, 0.9]]);
        let b = Mat::col_vec(&[0.0, 1.0]);
        let cost = StageCost::new(Mat::identity(2), Mat::scalar(0.5));
        let s1 = solve_dare(&a, &b, &cost).unwrap();
        let s2 = solve_dare_fixed_point(&a, &b, &cost).unwrap();
        assert!(s1.s.max_abs_diff(&s2.s) < 1e-7);
        assert!(s1.k.max_abs_diff(&s2.k) < 1e-7);
        assert!(dare_residual(&a, &b, &cost, &s1.s) < 1e-9);
    }

    #[test]
    fn closed_loop_is_stable() {
        let a = Mat::from_rows(&[&[1.2, 0.1, 0.0], &[0.0, 1.05, 0.2], &[0.1, 0.0, 0.8]]);
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]);
        let cost = StageCost::new(Mat::identity(3), Mat::identity(2));
        let sol = solve_dare(&a, &b, &cost).unwrap();
        let acl = &a - &(&b * &sol.k);
        assert!(is_schur_stable(&acl).unwrap());
        assert!(dare_residual(&a, &b, &cost, &sol.s) < 1e-9);
    }

    #[test]
    fn cross_terms_handled() {
        let a = Mat::from_rows(&[&[0.9, 0.2], &[-0.1, 1.1]]);
        let b = Mat::col_vec(&[0.1, 1.0]);
        let n = Mat::col_vec(&[0.05, 0.02]);
        let cost = StageCost::with_cross(Mat::identity(2), n, Mat::scalar(1.0));
        let sol = solve_dare(&a, &b, &cost).unwrap();
        assert!(dare_residual(&a, &b, &cost, &sol.s) < 1e-9);
        let fp = solve_dare_fixed_point(&a, &b, &cost).unwrap();
        assert!(sol.s.max_abs_diff(&fp.s) < 1e-7);
        let acl = &a - &(&b * &sol.k);
        assert!(is_schur_stable(&acl).unwrap());
    }

    #[test]
    fn unreachable_unstable_mode_has_no_solution() {
        // Mode 2 is unstable (1.5) but B only drives mode 1: no
        // stabilizing solution exists.
        let a = Mat::from_diag(&[0.5, 1.5]);
        let b = Mat::col_vec(&[1.0, 0.0]);
        let cost = StageCost::new(Mat::identity(2), Mat::scalar(1.0));
        assert!(solve_dare(&a, &b, &cost).is_err());
    }

    #[test]
    fn s_is_psd_and_symmetric() {
        let a = Mat::from_rows(&[&[0.95, 0.4], &[0.0, 0.85]]);
        let b = Mat::col_vec(&[0.0, 0.3]);
        let cost = StageCost::new(Mat::from_diag(&[1.0, 0.1]), Mat::scalar(2.0));
        let sol = solve_dare(&a, &b, &cost).unwrap();
        assert!((sol.s[(0, 1)] - sol.s[(1, 0)]).abs() < 1e-12);
        assert!(sol.s[(0, 0)] >= 0.0 && sol.s[(1, 1)] >= 0.0);
        assert!(sol.s.det().unwrap() >= -1e-12);
    }
}
