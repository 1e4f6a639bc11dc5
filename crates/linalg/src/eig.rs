//! Eigenvalues of real square matrices.
//!
//! Pipeline: real Householder reduction to upper Hessenberg form, then a
//! complex single-shift QR iteration with Wilkinson shifts and deflation.
//! The complex iteration is slower than a Francis double-shift but markedly
//! simpler, and the matrices in this workspace are tiny (plant order plus a
//! few delay states), so robustness wins over constant factors.

use crate::cmat::CMat;
use crate::cplx::Cplx;
use crate::error::{Error, Result};
use crate::mat::Mat;

/// Reduces `a` to upper Hessenberg form by orthogonal similarity.
///
/// The result has the same eigenvalues as `a`.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn hessenberg(a: &Mat) -> Mat {
    assert!(a.is_square(), "hessenberg requires a square matrix");
    let mut h = a.clone();
    let mut v = Vec::new();
    hessenberg_in(&mut h, &mut v);
    h
}

/// In-place Hessenberg reduction of `h`, reusing the Householder-vector
/// buffer `v`.
fn hessenberg_in(h: &mut Mat, v: &mut Vec<f64>) {
    let n = h.rows();
    if n < 3 {
        return;
    }
    for k in 0..(n - 2) {
        // Householder vector annihilating h[k+2.., k].
        let m = n - k - 1; // length of the column segment below the diagonal
        v.clear();
        v.extend((0..m).map(|i| h[(k + 1 + i, k)]));
        let norm_x = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm_x <= f64::EPSILON * h.max_abs() {
            continue;
        }
        let alpha = if v[0] >= 0.0 { -norm_x } else { norm_x };
        v[0] -= alpha;
        let vnorm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if vnorm == 0.0 {
            continue;
        }
        for x in v.iter_mut() {
            *x /= vnorm;
        }
        // Left: H <- (I - 2vv^T) H on rows k+1..n.
        for j in 0..n {
            let dot: f64 = (0..m).map(|i| v[i] * h[(k + 1 + i, j)]).sum();
            for i in 0..m {
                h[(k + 1 + i, j)] -= 2.0 * v[i] * dot;
            }
        }
        // Right: H <- H (I - 2vv^T) on columns k+1..n.
        for i in 0..n {
            let dot: f64 = (0..m).map(|j| h[(i, k + 1 + j)] * v[j]).sum();
            for j in 0..m {
                h[(i, k + 1 + j)] -= 2.0 * dot * v[j];
            }
        }
        // Clean below the subdiagonal in this column.
        for i in (k + 2)..n {
            h[(i, k)] = 0.0;
        }
    }
}

/// Eigenvalues of the real square matrix `a`, in no particular order.
///
/// For real input, complex eigenvalues appear in (numerically) conjugate
/// pairs.
///
/// # Errors
///
/// [`Error::NotSquare`] for rectangular input, [`Error::NoConvergence`] if
/// the QR iteration exceeds its budget (not observed on finite input in
/// practice).
///
/// # Examples
///
/// ```
/// use csa_linalg::{eigenvalues, Mat};
///
/// # fn main() -> Result<(), csa_linalg::Error> {
/// // Rotation by 90 degrees: eigenvalues are ±i.
/// let a = Mat::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
/// let mut eigs = eigenvalues(&a)?;
/// eigs.sort_by(|x, y| x.im.total_cmp(&y.im));
/// assert!((eigs[0].im + 1.0).abs() < 1e-12);
/// assert!((eigs[1].im - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn eigenvalues(a: &Mat) -> Result<Vec<Cplx>> {
    if !a.is_square() {
        return Err(Error::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if n == 1 {
        return Ok(vec![Cplx::from_re(a[(0, 0)])]);
    }
    if n == 2 {
        let (l1, l2) = eig_2x2(
            Cplx::from_re(a[(0, 0)]),
            Cplx::from_re(a[(0, 1)]),
            Cplx::from_re(a[(1, 0)]),
            Cplx::from_re(a[(1, 1)]),
        );
        return Ok(vec![l1, l2]);
    }
    let mut h = CMat::from_real(&hessenberg(a));
    let mut eigs = vec![Cplx::ZERO; n];
    let mut rots = Vec::new();
    qr_iterate(&mut h, &mut eigs, &mut rots)?;
    Ok(eigs)
}

/// Complex shifted-QR iteration driving the upper Hessenberg matrix `h` to
/// (block-)triangular form, depositing eigenvalues into `eigs` (already
/// sized to `n`). `rots` is a reusable Givens-rotation buffer.
fn qr_iterate(h: &mut CMat, eigs: &mut [Cplx], rots: &mut Vec<(f64, Cplx)>) -> Result<()> {
    let n = h.rows();
    let hnorm = {
        let mut m = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                m = m.max(h[(i, j)].abs());
            }
        }
        m.max(f64::MIN_POSITIVE)
    };
    let mut hi = n - 1;
    let mut stagnation = 0usize;
    let mut total = 0usize;
    let budget = 200 * n;

    loop {
        if hi == 0 {
            eigs[0] = h[(0, 0)];
            break;
        }
        // Deflate at hi if the subdiagonal entry is negligible.
        if negligible(h, hi, hnorm) {
            h[(hi, hi - 1)] = Cplx::ZERO;
            eigs[hi] = h[(hi, hi)];
            hi -= 1;
            stagnation = 0;
            continue;
        }
        // Find the start of the active (unreduced) block ending at hi.
        let mut lo = hi;
        while lo > 0 && !negligible(h, lo, hnorm) {
            lo -= 1;
        }
        if lo > 0 {
            h[(lo, lo - 1)] = Cplx::ZERO;
        }
        // Solve 2x2 blocks directly: fast and immune to shift cycling.
        if hi - lo == 1 {
            let (l1, l2) = eig_2x2(h[(lo, lo)], h[(lo, hi)], h[(hi, lo)], h[(hi, hi)]);
            eigs[lo] = l1;
            eigs[hi] = l2;
            if lo == 0 {
                break;
            }
            hi = lo - 1;
            stagnation = 0;
            continue;
        }
        // Shifted QR step on the active block.
        let mu = if stagnation > 0 && stagnation.is_multiple_of(12) {
            // Exceptional complex shift: breaks cycles that a Wilkinson
            // shift cannot (e.g. circulant/orthogonal blocks).
            let s = h[(hi, hi - 1)].abs() + h[(hi - 1, hi - 2)].abs();
            h[(hi, hi)] + Cplx::from_angle(0.9) * (0.75 * s)
        } else {
            wilkinson_shift(h, hi)
        };
        qr_step(h, lo, hi, mu, rots);
        stagnation += 1;
        total += 1;
        if total > budget {
            return Err(Error::NoConvergence { iterations: total });
        }
    }
    Ok(())
}

/// Re-entrant eigenvalue workspace (PR 6 scratch-space family).
///
/// Owns the Hessenberg matrix, the complex QR iterate, the eigenvalue
/// output buffer, and the Givens-rotation buffer, so repeated eigenvalue or
/// spectral-radius queries allocate nothing after the first call. Results
/// are bit-identical to the allocating [`eigenvalues`] /
/// [`spectral_radius`] functions, which share the same reduction and
/// iteration code.
///
/// # Examples
///
/// ```
/// use csa_linalg::{spectral_radius, EigScratch, Mat};
///
/// # fn main() -> Result<(), csa_linalg::Error> {
/// let a = Mat::from_diag(&[0.5, -0.9]);
/// let mut scratch = EigScratch::new();
/// assert_eq!(scratch.spectral_radius_in(&a)?, spectral_radius(&a)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EigScratch {
    h: Mat,
    hc: CMat,
    eigs: Vec<Cplx>,
    rots: Vec<(f64, Cplx)>,
    v: Vec<f64>,
}

impl EigScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused.
    pub fn new() -> Self {
        EigScratch {
            h: Mat::zeros(1, 1),
            hc: CMat::zeros(1, 1),
            eigs: Vec::new(),
            rots: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Eigenvalues of `a`, bit-identical to [`eigenvalues`], returned as a
    /// borrow of the internal buffer (valid until the next call).
    ///
    /// # Errors
    ///
    /// Same as [`eigenvalues`].
    pub fn eigenvalues_in(&mut self, a: &Mat) -> Result<&[Cplx]> {
        if !a.is_square() {
            return Err(Error::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        self.eigs.clear();
        if n == 1 {
            self.eigs.push(Cplx::from_re(a[(0, 0)]));
            return Ok(&self.eigs);
        }
        if n == 2 {
            let (l1, l2) = eig_2x2(
                Cplx::from_re(a[(0, 0)]),
                Cplx::from_re(a[(0, 1)]),
                Cplx::from_re(a[(1, 0)]),
                Cplx::from_re(a[(1, 1)]),
            );
            self.eigs.push(l1);
            self.eigs.push(l2);
            return Ok(&self.eigs);
        }
        self.h.copy_from(a);
        hessenberg_in(&mut self.h, &mut self.v);
        self.hc.copy_from_real(&self.h);
        self.eigs.resize(n, Cplx::ZERO);
        qr_iterate(&mut self.hc, &mut self.eigs, &mut self.rots)?;
        Ok(&self.eigs)
    }

    /// Spectral radius of `a`, bit-identical to [`spectral_radius`].
    ///
    /// # Errors
    ///
    /// Same as [`spectral_radius`].
    pub fn spectral_radius_in(&mut self, a: &Mat) -> Result<f64> {
        Ok(self
            .eigenvalues_in(a)?
            .iter()
            .fold(0.0f64, |m, l| m.max(l.abs())))
    }
}

impl Default for EigScratch {
    fn default() -> Self {
        EigScratch::new()
    }
}

/// Spectral radius `max |lambda_i(a)|`.
///
/// # Errors
///
/// Propagates [`eigenvalues`] errors.
///
/// # Examples
///
/// ```
/// use csa_linalg::{spectral_radius, Mat};
///
/// # fn main() -> Result<(), csa_linalg::Error> {
/// let a = Mat::from_diag(&[0.5, -0.9]);
/// assert!((spectral_radius(&a)? - 0.9).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn spectral_radius(a: &Mat) -> Result<f64> {
    Ok(eigenvalues(a)?
        .into_iter()
        .fold(0.0f64, |m, l| m.max(l.abs())))
}

/// Returns `true` if all eigenvalues of `a` lie strictly inside the unit
/// circle (the matrix is Schur stable), i.e. the discrete-time system
/// `x_{k+1} = a x_k` is asymptotically stable.
///
/// # Errors
///
/// Propagates [`eigenvalues`] errors.
pub fn is_schur_stable(a: &Mat) -> Result<bool> {
    Ok(spectral_radius(a)? < 1.0)
}

/// Returns `true` if all eigenvalues of `a` have strictly negative real
/// part (the matrix is Hurwitz stable).
///
/// # Errors
///
/// Propagates [`eigenvalues`] errors.
pub fn is_hurwitz_stable(a: &Mat) -> Result<bool> {
    Ok(eigenvalues(a)?.into_iter().all(|l| l.re < 0.0))
}

/// Eigenvalues of the complex 2x2 matrix `[[a, b], [c, d]]`.
fn eig_2x2(a: Cplx, b: Cplx, c: Cplx, d: Cplx) -> (Cplx, Cplx) {
    let half_tr = (a + d) * 0.5;
    let delta = (a - d) * 0.5;
    let disc = (delta * delta + b * c).sqrt();
    (half_tr + disc, half_tr - disc)
}

/// Wilkinson shift from the trailing 2x2 block ending at `hi`:
/// the eigenvalue of the block closest to `h[hi, hi]`.
fn wilkinson_shift(h: &CMat, hi: usize) -> Cplx {
    let a = h[(hi - 1, hi - 1)];
    let b = h[(hi - 1, hi)];
    let c = h[(hi, hi - 1)];
    let d = h[(hi, hi)];
    let (l1, l2) = eig_2x2(a, b, c, d);
    if (l1 - d).abs() <= (l2 - d).abs() {
        l1
    } else {
        l2
    }
}

/// Is the subdiagonal entry `h[i, i-1]` negligible relative to its
/// diagonal neighbours?
fn negligible(h: &CMat, i: usize, hnorm: f64) -> bool {
    let local = h[(i - 1, i - 1)].abs() + h[(i, i)].abs();
    let thresh = if local > 0.0 {
        f64::EPSILON * local
    } else {
        f64::EPSILON * hnorm
    };
    h[(i, i - 1)].abs() <= thresh
}

/// Givens rotation `G = [[c, s], [-conj(s), c]]` (with real `c >= 0`) such
/// that `G * [a; b] = [r; 0]`.
fn givens(a: Cplx, b: Cplx) -> (f64, Cplx) {
    let r = (a.abs_sq() + b.abs_sq()).sqrt();
    if r == 0.0 {
        return (1.0, Cplx::ZERO);
    }
    let aa = a.abs();
    let alpha = if aa == 0.0 { Cplx::ONE } else { a / aa };
    (aa / r, alpha * b.conj() / r)
}

/// One explicit shifted QR step `H - mu*I = QR; H <- RQ + mu*I` restricted
/// to the active block `lo..=hi` (the off-block couplings do not affect the
/// eigenvalues of a block-triangular matrix).
fn qr_step(h: &mut CMat, lo: usize, hi: usize, mu: Cplx, rots: &mut Vec<(f64, Cplx)>) {
    for i in lo..=hi {
        let d = h[(i, i)] - mu;
        h[(i, i)] = d;
    }
    rots.clear();
    // Left rotations: reduce to upper triangular.
    for k in lo..hi {
        let (c, s) = givens(h[(k, k)], h[(k + 1, k)]);
        rots.push((c, s));
        for j in k..=hi {
            let t1 = h[(k, j)];
            let t2 = h[(k + 1, j)];
            h[(k, j)] = t1 * c + s * t2;
            h[(k + 1, j)] = t2 * c - s.conj() * t1;
        }
    }
    // Right rotations: H <- R * G_lo^H * ... * G_{hi-1}^H.
    for (idx, &(c, s)) in rots.iter().enumerate() {
        let k = lo + idx;
        for i in lo..=(k + 1).min(hi) {
            let t1 = h[(i, k)];
            let t2 = h[(i, k + 1)];
            h[(i, k)] = t1 * c + t2 * s.conj();
            h[(i, k + 1)] = t2 * c - t1 * s;
        }
    }
    for i in lo..=hi {
        let d = h[(i, i)] + mu;
        h[(i, i)] = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_by_re_im(mut v: Vec<Cplx>) -> Vec<Cplx> {
        v.sort_by(|a, b| a.re.total_cmp(&b.re).then(a.im.total_cmp(&b.im)));
        v
    }

    #[test]
    fn eig_sort_survives_nan() {
        // Regression for the former `partial_cmp(..).unwrap()` sort
        // (the NaN-unsafe pattern fixed by hand twice, now banned by
        // clippy.toml's F001 rule): a NaN eigenvalue must sort
        // deterministically, never panic.
        let v = vec![
            Cplx::new(f64::NAN, 0.0),
            Cplx::new(1.0, f64::NAN),
            Cplx::new(-1.0, 2.0),
            Cplx::new(f64::INFINITY, -2.0),
        ];
        let mut rev = v.clone();
        rev.reverse();
        let a = sorted_by_re_im(v);
        let b = sorted_by_re_im(rev);
        // total_cmp is a total order: both permutations sort identically.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
        assert_eq!(a[0].re, -1.0);
    }

    fn assert_eigs_close(actual: Vec<Cplx>, expected: Vec<Cplx>, tol: f64) {
        let a = sorted_by_re_im(actual);
        let e = sorted_by_re_im(expected);
        assert_eq!(a.len(), e.len());
        for (x, y) in a.iter().zip(&e) {
            assert!(
                (*x - *y).abs() < tol,
                "eigenvalue mismatch: {x} vs {y} (all: {a:?} vs {e:?})"
            );
        }
    }

    #[test]
    fn hessenberg_preserves_structure_and_trace() {
        let a = Mat::from_rows(&[
            &[4.0, 1.0, -2.0, 2.0],
            &[1.0, 2.0, 0.0, 1.0],
            &[-2.0, 0.0, 3.0, -2.0],
            &[2.0, 1.0, -2.0, -1.0],
        ]);
        let h = hessenberg(&a);
        for i in 2..4 {
            for j in 0..(i - 1) {
                assert_eq!(h[(i, j)], 0.0, "h[{i}][{j}] should be zero");
            }
        }
        assert!((h.trace() - a.trace()).abs() < 1e-12);
        assert!((h.norm_fro() - a.norm_fro()).abs() < 1e-10); // orthogonal similarity
    }

    #[test]
    fn diagonal_eigenvalues() {
        let a = Mat::from_diag(&[3.0, -1.0, 0.5, 7.0]);
        assert_eigs_close(
            eigenvalues(&a).unwrap(),
            vec![
                Cplx::from_re(3.0),
                Cplx::from_re(-1.0),
                Cplx::from_re(0.5),
                Cplx::from_re(7.0),
            ],
            1e-10,
        );
    }

    #[test]
    fn triangular_eigenvalues_are_diagonal() {
        let a = Mat::from_rows(&[&[1.0, 5.0, -3.0], &[0.0, 2.0, 9.0], &[0.0, 0.0, -4.0]]);
        assert_eigs_close(
            eigenvalues(&a).unwrap(),
            vec![Cplx::from_re(1.0), Cplx::from_re(2.0), Cplx::from_re(-4.0)],
            1e-10,
        );
    }

    #[test]
    fn rotation_eigenvalues_are_imaginary_pair() {
        let a = Mat::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
        assert_eigs_close(
            eigenvalues(&a).unwrap(),
            vec![Cplx::new(0.0, 1.0), Cplx::new(0.0, -1.0)],
            1e-12,
        );
    }

    #[test]
    fn circulant_shift_matrix_roots_of_unity() {
        // Companion/cycle matrix: eigenvalues are the cube roots of unity.
        // This is the classic QR-cycling test case; the exceptional shift
        // and the direct 2x2 solve must rescue it.
        let a = Mat::from_rows(&[&[0.0, 0.0, 1.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let t = 2.0 * std::f64::consts::PI / 3.0;
        assert_eigs_close(
            eigenvalues(&a).unwrap(),
            vec![
                Cplx::from_re(1.0),
                Cplx::from_angle(t),
                Cplx::from_angle(-t),
            ],
            1e-9,
        );
    }

    #[test]
    fn known_4x4_symmetric() {
        // Symmetric matrix with known spectrum {10, 5, 2, 1} via
        // construction Q D Q^T with a Householder Q.
        let d = Mat::from_diag(&[10.0, 5.0, 2.0, 1.0]);
        // Householder from v = normalized [1,1,1,1]: Q = I - 2vv^T/4.
        let q = Mat::from_fn(4, 4, |i, j| {
            let e = if i == j { 1.0 } else { 0.0 };
            e - 0.5
        });
        let a = &(&q * &d) * &q; // Q symmetric orthogonal
        assert_eigs_close(
            eigenvalues(&a).unwrap(),
            vec![
                Cplx::from_re(10.0),
                Cplx::from_re(5.0),
                Cplx::from_re(2.0),
                Cplx::from_re(1.0),
            ],
            1e-9,
        );
    }

    #[test]
    fn companion_matrix_of_polynomial() {
        // p(x) = x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3).
        let a = Mat::from_rows(&[&[6.0, -11.0, 6.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        assert_eigs_close(
            eigenvalues(&a).unwrap(),
            vec![Cplx::from_re(1.0), Cplx::from_re(2.0), Cplx::from_re(3.0)],
            1e-8,
        );
    }

    #[test]
    fn complex_pairs_of_damped_oscillator() {
        // A = [[0, 1], [-w^2, -2 z w]] with w=2, z=0.1:
        // eigenvalues -zw ± i w sqrt(1-z^2).
        let w = 2.0;
        let z = 0.1;
        let a = Mat::from_rows(&[&[0.0, 1.0], &[-w * w, -2.0 * z * w]]);
        let re = -z * w;
        let im = w * (1.0 - z * z).sqrt();
        assert_eigs_close(
            eigenvalues(&a).unwrap(),
            vec![Cplx::new(re, im), Cplx::new(re, -im)],
            1e-10,
        );
    }

    #[test]
    fn spectral_radius_and_stability() {
        let stable = Mat::from_rows(&[&[0.5, 0.2], &[-0.1, 0.3]]);
        assert!(is_schur_stable(&stable).unwrap());
        let unstable = Mat::from_diag(&[1.01, 0.2]);
        assert!(!is_schur_stable(&unstable).unwrap());
        let hurwitz = Mat::from_rows(&[&[-1.0, 100.0], &[0.0, -0.1]]);
        assert!(is_hurwitz_stable(&hurwitz).unwrap());
        let marginal = Mat::from_rows(&[&[0.0, 1.0], &[-1.0, 0.0]]);
        assert!(!is_hurwitz_stable(&marginal).unwrap());
    }

    #[test]
    fn trace_equals_eigenvalue_sum_large() {
        // Deterministic pseudo-random 8x8.
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a = Mat::from_fn(8, 8, |_, _| next());
        let eigs = eigenvalues(&a).unwrap();
        let tr: Cplx = eigs.iter().fold(Cplx::ZERO, |s, &l| s + l);
        assert!(
            (tr.re - a.trace()).abs() < 1e-8,
            "{} vs {}",
            tr.re,
            a.trace()
        );
        assert!(tr.im.abs() < 1e-8);
        // Determinant = product of eigenvalues.
        let det_e = eigs.iter().fold(Cplx::ONE, |p, &l| p * l);
        let det_a = a.det().unwrap();
        assert!(
            (det_e.re - det_a).abs() < 1e-6 * det_a.abs().max(1.0),
            "{det_e} vs {det_a}"
        );
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            eigenvalues(&Mat::zeros(2, 3)),
            Err(Error::NotSquare { .. })
        ));
    }

    #[test]
    fn jordan_like_defective_matrix() {
        // [[2, 1], [0, 2]] has a double eigenvalue 2 (defective).
        let a = Mat::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]);
        assert_eigs_close(
            eigenvalues(&a).unwrap(),
            vec![Cplx::from_re(2.0), Cplx::from_re(2.0)],
            1e-7,
        );
    }
}
