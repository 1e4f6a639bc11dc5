//! Dense complex matrices with LU solves, used for frequency responses.

use crate::cplx::Cplx;
use crate::error::{Error, Result};
use crate::mat::Mat;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major matrix of [`Cplx`] values.
///
/// Exists to evaluate transfer-function frequency responses
/// `C (zI - A)^{-1} B + D` at complex `z`; only the operations needed for
/// that are provided.
///
/// # Examples
///
/// ```
/// use csa_linalg::{CMat, Cplx, Mat};
///
/// let a = CMat::from_real(&Mat::identity(2));
/// let z = Cplx::new(0.0, 1.0);
/// let b = &a * z; // scalar multiply
/// assert_eq!(b[(0, 0)], z);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Cplx>,
}

impl CMat {
    /// Creates a `rows x cols` complex zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        CMat {
            rows,
            cols,
            data: vec![Cplx::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` complex identity.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Cplx::ONE;
        }
        m
    }

    /// Lifts a real matrix into the complex field.
    pub fn from_real(a: &Mat) -> Self {
        let mut m = CMat::buffer(a.rows() * a.cols());
        m.copy_from_real(a);
        m
    }

    /// As [`Mat`]'s: an output holding a `len`-element result's capacity,
    /// its shape unset until written.
    pub(crate) fn buffer(len: usize) -> CMat {
        CMat {
            rows: 0,
            cols: 0,
            data: Vec::with_capacity(len),
        }
    }

    /// Resizes to `rows x cols` in place, reusing the allocation, and fills
    /// the matrix with complex zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, Cplx::ZERO);
    }

    /// Copies the real matrix `src` into `self` (imaginary parts zero),
    /// resizing in place as needed; [`CMat::from_real`] runs it on a fresh
    /// output.
    pub fn copy_from_real(&mut self, src: &Mat) {
        self.rows = src.rows();
        self.cols = src.cols();
        self.data.clear();
        self.data
            .extend(src.as_slice().iter().map(|&x| Cplx::from_re(x)));
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Solves `self * x = b` by LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// [`Error::NotSquare`], [`Error::DimensionMismatch`], or
    /// [`Error::Singular`].
    pub fn solve(&self, b: &CMat) -> Result<CMat> {
        if self.rows != self.cols {
            return Err(Error::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if b.rows != self.rows {
            return Err(Error::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (b.rows, b.cols),
            });
        }
        let n = self.rows;
        let m = b.cols;
        let mut lu = self.clone();
        let mut x = b.clone();
        let scale: f64 = self
            .data
            .iter()
            .fold(0.0f64, |s, z| s.max(z.abs()))
            .max(1.0);
        let tol = scale * f64::EPSILON * (n as f64);

        for k in 0..n {
            // Partial pivot on modulus.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best <= tol {
                return Err(Error::Singular);
            }
            if p != k {
                for j in 0..n {
                    let t = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = t;
                }
                for j in 0..m {
                    let t = x[(k, j)];
                    x[(k, j)] = x[(p, j)];
                    x[(p, j)] = t;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let f = lu[(i, k)] / pivot;
                lu[(i, k)] = f;
                if f != Cplx::ZERO {
                    for j in (k + 1)..n {
                        let v = f * lu[(k, j)];
                        lu[(i, j)] -= v;
                    }
                    for j in 0..m {
                        let v = f * x[(k, j)];
                        x[(i, j)] -= v;
                    }
                }
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let d = lu[(k, k)];
            for j in 0..m {
                x[(k, j)] = x[(k, j)] / d;
            }
            for i in 0..k {
                let u = lu[(i, k)];
                if u != Cplx::ZERO {
                    for j in 0..m {
                        let v = u * x[(k, j)];
                        x[(i, j)] -= v;
                    }
                }
            }
        }
        Ok(x)
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = Cplx;
    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &Cplx {
        debug_assert!(row < self.rows && col < self.cols);
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut Cplx {
        debug_assert!(row < self.rows && col < self.cols);
        &mut self.data[row * self.cols + col]
    }
}

impl Add for &CMat {
    type Output = CMat;
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &CMat {
    type Output = CMat;
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &CMat {
    type Output = CMat;
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    fn mul(self, rhs: &CMat) -> CMat {
        assert_eq!(self.cols, rhs.rows, "complex matrix product mismatch");
        let mut out = CMat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == Cplx::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    let v = aik * rhs.data[k * rhs.cols + j];
                    out.data[i * rhs.cols + j] += v;
                }
            }
        }
        out
    }
}

impl Mul<Cplx> for &CMat {
    type Output = CMat;
    fn mul(self, rhs: Cplx) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| a * rhs).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_solve_roundtrip() {
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = Cplx::new(1.0, 1.0);
        a[(0, 1)] = Cplx::new(0.0, 2.0);
        a[(1, 0)] = Cplx::new(-1.0, 0.0);
        a[(1, 1)] = Cplx::new(3.0, -1.0);
        let mut b = CMat::zeros(2, 1);
        b[(0, 0)] = Cplx::new(2.0, 0.0);
        b[(1, 0)] = Cplx::new(0.0, 1.0);
        let x = a.solve(&b).unwrap();
        let r = &(&a * &x) - &b;
        for i in 0..2 {
            assert!(r[(i, 0)].abs() < 1e-12);
        }
    }

    #[test]
    fn singular_complex_detected() {
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = Cplx::new(1.0, 2.0);
        a[(0, 1)] = Cplx::new(2.0, 4.0);
        a[(1, 0)] = Cplx::new(0.5, 1.0);
        a[(1, 1)] = Cplx::new(1.0, 2.0);
        let b = CMat::zeros(2, 1);
        assert_eq!(a.solve(&b), Err(Error::Singular));
    }

    #[test]
    fn resolvent_of_rotation() {
        // (zI - A)^{-1} at z = 2 for A = [[0, -1], [1, 0]] (eigenvalues ±i).
        let a = Mat::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
        let z = Cplx::from_re(2.0);
        let zi = &CMat::identity(2) * z;
        let m = &zi - &CMat::from_real(&a);
        let inv = m.solve(&CMat::identity(2)).unwrap();
        // (zI−A)^{-1} = 1/(z²+1) [[z, −1],[1, z]]
        let s = 1.0 / 5.0;
        assert!((inv[(0, 0)] - Cplx::from_re(2.0 * s)).abs() < 1e-12);
        assert!((inv[(0, 1)] - Cplx::from_re(-s)).abs() < 1e-12);
        assert!((inv[(1, 0)] - Cplx::from_re(s)).abs() < 1e-12);
    }

    #[test]
    fn lifted_real_product_matches_real_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let cr = &a * &b;
        let cc = &CMat::from_real(&a) * &CMat::from_real(&b);
        for i in 0..2 {
            for j in 0..2 {
                assert!((cc[(i, j)].re - cr[(i, j)]).abs() < 1e-14);
                assert_eq!(cc[(i, j)].im, 0.0);
            }
        }
    }
}
