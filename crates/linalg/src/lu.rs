//! LU decomposition with partial pivoting for real matrices.

use crate::error::{Error, Result};
use crate::mat::Mat;

/// LU decomposition with partial pivoting of a square matrix.
///
/// Factors `P*A = L*U`; used for linear solves, inverses, and determinants.
/// [`Lu::new`] and [`Lu::solve`] allocate their results; a workspace made
/// with [`Lu::default`] refactors with [`Lu::factor`] and solves with
/// [`Lu::solve_into`] on its own buffers, through the same code, so
/// repeated solves allocate nothing once the buffers have grown.
///
/// # Examples
///
/// ```
/// use csa_linalg::{Lu, Mat};
///
/// # fn main() -> Result<(), csa_linalg::Error> {
/// let a = Mat::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let b = Mat::col_vec(&[10.0, 12.0]);
/// let x = Lu::new(&a)?.solve(&b)?;
/// assert!((&a * &x).max_abs_diff(&b) < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    lu: Mat,
    piv: Vec<usize>,
    /// +1 or -1 depending on permutation parity.
    sign: f64,
    /// True if a pivot fell below the singularity threshold.
    singular: bool,
}

impl Default for Lu {
    /// An empty workspace: it reports singular until [`Lu::factor`] runs,
    /// and its buffers grow on first use.
    fn default() -> Self {
        Lu {
            lu: Mat::buffer(0),
            piv: Vec::new(),
            sign: 1.0,
            singular: true,
        }
    }
}

impl Lu {
    /// Computes the factorization of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotSquare`] if `a` is rectangular. A singular matrix
    /// does *not* error here — it is reported by [`Lu::is_singular`] and by
    /// the solve methods, so determinants of singular matrices still work.
    pub fn new(a: &Mat) -> Result<Lu> {
        let mut lu = Lu::default();
        lu.factor(a)?;
        Ok(lu)
    }

    /// Factors `a` in place, replacing any previous factorization and
    /// reusing the buffers.
    ///
    /// # Errors
    ///
    /// As [`Lu::new`].
    pub fn factor(&mut self, a: &Mat) -> Result<()> {
        if !a.is_square() {
            return Err(Error::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let lu = &mut self.lu;
        lu.copy_from(a);
        self.piv.clear();
        self.piv.reserve(n);
        self.sign = 1.0;
        self.singular = false;
        let scale = a.max_abs().max(1.0);
        let tol = scale * f64::EPSILON * (n as f64);

        for k in 0..n {
            // Find pivot.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            self.piv.push(p);
            if p != k {
                for j in 0..n {
                    let t = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = t;
                }
                self.sign = -self.sign;
            }
            let pivot = lu[(k, k)];
            if pivot.abs() <= tol {
                self.singular = true;
                continue;
            }
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let v = m * lu[(k, j)];
                        lu[(i, j)] -= v;
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether the factorization detected a (numerically) singular matrix.
    pub fn is_singular(&self) -> bool {
        self.singular
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let n = self.lu.rows();
        let mut d = self.sign;
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Solves `A * X = B` for (possibly multi-column) `B`.
    ///
    /// # Errors
    ///
    /// [`Error::Singular`] if the matrix was singular;
    /// [`Error::DimensionMismatch`] if `b` has the wrong row count.
    pub fn solve(&self, b: &Mat) -> Result<Mat> {
        let mut x = Mat::buffer(b.as_slice().len());
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A * X = B` into `x`, resizing it in place.
    ///
    /// # Errors
    ///
    /// As [`Lu::solve`].
    ///
    /// # Examples
    ///
    /// ```
    /// use csa_linalg::{Lu, Mat};
    ///
    /// # fn main() -> Result<(), csa_linalg::Error> {
    /// let a = Mat::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
    /// let b = Mat::col_vec(&[10.0, 12.0]);
    /// let mut lu = Lu::default();
    /// let mut x = Mat::zeros(1, 1);
    /// lu.factor(&a)?;
    /// lu.solve_into(&b, &mut x)?;
    /// assert_eq!(x, Lu::new(&a)?.solve(&b)?);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve_into(&self, b: &Mat, x: &mut Mat) -> Result<()> {
        if self.singular {
            return Err(Error::Singular);
        }
        let n = self.lu.rows();
        if b.rows() != n {
            return Err(Error::DimensionMismatch {
                left: (n, n),
                right: b.shape(),
            });
        }
        let m = b.cols();
        x.copy_from(b);
        // Apply permutation.
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                for j in 0..m {
                    let t = x[(k, j)];
                    x[(k, j)] = x[(p, j)];
                    x[(p, j)] = t;
                }
            }
        }
        // Forward substitution (L has unit diagonal).
        for k in 0..n {
            for i in (k + 1)..n {
                let l = self.lu[(i, k)];
                if l != 0.0 {
                    for j in 0..m {
                        let v = l * x[(k, j)];
                        x[(i, j)] -= v;
                    }
                }
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let d = self.lu[(k, k)];
            for j in 0..m {
                x[(k, j)] /= d;
            }
            for i in 0..k {
                let u = self.lu[(i, k)];
                if u != 0.0 {
                    for j in 0..m {
                        let v = u * x[(k, j)];
                        x[(i, j)] -= v;
                    }
                }
            }
        }
        Ok(())
    }
}

impl Mat {
    /// Solves the linear system `self * x = b`.
    ///
    /// Convenience wrapper around [`Lu`]; factor once with [`Lu::new`] when
    /// solving against many right-hand sides.
    ///
    /// # Errors
    ///
    /// See [`Lu::solve`].
    ///
    /// # Examples
    ///
    /// ```
    /// use csa_linalg::Mat;
    ///
    /// # fn main() -> Result<(), csa_linalg::Error> {
    /// let a = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
    /// let x = a.solve(&Mat::col_vec(&[2.0, 8.0]))?;
    /// assert!((x[(0, 0)] - 1.0).abs() < 1e-15);
    /// assert!((x[(1, 0)] - 2.0).abs() < 1e-15);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve(&self, b: &Mat) -> Result<Mat> {
        Lu::new(self)?.solve(b)
    }

    /// Matrix inverse.
    ///
    /// # Errors
    ///
    /// [`Error::Singular`] or [`Error::NotSquare`].
    ///
    /// # Examples
    ///
    /// ```
    /// use csa_linalg::Mat;
    ///
    /// # fn main() -> Result<(), csa_linalg::Error> {
    /// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
    /// let ainv = a.inverse()?;
    /// assert!((&a * &ainv).max_abs_diff(&Mat::identity(2)) < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn inverse(&self) -> Result<Mat> {
        Lu::new(self)?.solve(&Mat::identity(self.rows()))
    }

    /// Determinant.
    ///
    /// # Errors
    ///
    /// [`Error::NotSquare`] if the matrix is rectangular.
    pub fn det(&self) -> Result<f64> {
        Ok(Lu::new(self)?.det())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        let a = Mat::from_rows(&[&[2.0, 1.0, 1.0], &[1.0, 3.0, 2.0], &[1.0, 0.0, 0.0]]);
        let b = Mat::col_vec(&[4.0, 5.0, 6.0]);
        let x = a.solve(&b).unwrap();
        assert!((&a * &x).max_abs_diff(&b) < 1e-12);
        assert!((x[(0, 0)] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn multi_rhs_solve() {
        let a = Mat::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[9.0, 1.0], &[8.0, 0.0]]);
        let x = a.solve(&b).unwrap();
        assert!((&a * &x).max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn determinant_values() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!((a.det().unwrap() + 2.0).abs() < 1e-12);
        assert!((Mat::identity(5).det().unwrap() - 1.0).abs() < 1e-15);
        // Permutation parity.
        let p = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((p.det().unwrap() + 1.0).abs() < 1e-15);
    }

    #[test]
    fn singular_matrix_reports() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let lu = Lu::new(&a).unwrap();
        assert!(lu.is_singular());
        assert_eq!(lu.solve(&Mat::col_vec(&[1.0, 1.0])), Err(Error::Singular));
        assert_eq!(a.inverse(), Err(Error::Singular));
        assert!(a.det().unwrap().abs() < 1e-12);
    }

    #[test]
    fn rectangular_rejected() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(
            Lu::new(&a),
            Err(Error::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn inverse_roundtrip_random_like() {
        // A well-conditioned fixed matrix.
        let a = Mat::from_rows(&[
            &[4.0, -2.0, 1.0, 0.3],
            &[0.5, 5.0, -1.0, 0.0],
            &[-0.2, 0.1, 3.0, 1.0],
            &[1.0, 0.0, 0.0, 2.0],
        ]);
        let inv = a.inverse().unwrap();
        assert!((&a * &inv).max_abs_diff(&Mat::identity(4)) < 1e-12);
        assert!((&inv * &a).max_abs_diff(&Mat::identity(4)) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&Mat::col_vec(&[2.0, 3.0])).unwrap();
        assert!((x[(0, 0)] - 3.0).abs() < 1e-15);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-15);
    }
}
