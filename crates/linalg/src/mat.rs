//! Dense, row-major, `f64` matrices.
//!
//! [`Mat`] is the workhorse type of the workspace: small (dimensions in the
//! tens), dense, and owned. The API favours clarity over raw speed — every
//! control-theoretic routine in the workspace operates on matrices whose
//! dimension is the plant order plus a handful of delay states.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use csa_linalg::Mat;
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Mat::identity(2);
/// let c = &a * &b;
/// assert_eq!(c, a);
/// assert_eq!(a[(1, 0)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Mat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a square matrix with `diag` on the main diagonal.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Mat::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a column vector from a slice.
    pub fn col_vec(values: &[f64]) -> Self {
        Mat {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates a row vector from a slice.
    pub fn row_vec(values: &[f64]) -> Self {
        Mat {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates a `1 x 1` matrix holding `value`.
    pub fn scalar(value: f64) -> Self {
        Mat {
            rows: 1,
            cols: 1,
            data: vec![value],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the element at `(row, col)`, or `None` if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Applies `f` element-wise, returning a new matrix.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Mat {
        self.map(|x| x * s)
    }

    /// Sum of diagonal elements.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Largest absolute element value.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Induced 1-norm (maximum absolute column sum).
    pub fn norm_one(&self) -> f64 {
        let mut best = 0.0f64;
        for j in 0..self.cols {
            let s: f64 = (0..self.rows).map(|i| self[(i, j)].abs()).sum();
            best = best.max(s);
        }
        best
    }

    /// Induced infinity-norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        let mut best = 0.0f64;
        for i in 0..self.rows {
            let s: f64 = (0..self.cols).map(|j| self[(i, j)].abs()).sum();
            best = best.max(s);
        }
        best
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Extracts the block with rows `r0..r0+nr` and columns `c0..c0+nc`.
    ///
    /// # Panics
    ///
    /// Panics if the requested block exceeds the matrix bounds.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Mat {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "block ({r0}..{}, {c0}..{}) out of bounds for {}x{} matrix",
            r0 + nr,
            c0 + nc,
            self.rows,
            self.cols
        );
        Mat::from_fn(nr, nc, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Writes `src` into the block starting at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Mat) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "block of shape {}x{} at ({r0}, {c0}) out of bounds for {}x{} matrix",
            src.rows,
            src.cols,
            self.rows,
            self.cols
        );
        for i in 0..src.rows {
            for j in 0..src.cols {
                self[(r0 + i, c0 + j)] = src[(i, j)];
            }
        }
    }

    /// Kronecker product `self (x) other`.
    pub fn kron(&self, other: &Mat) -> Mat {
        let mut m = Mat::zeros(self.rows * other.rows, self.cols * other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let s = self[(i, j)];
                for p in 0..other.rows {
                    for q in 0..other.cols {
                        m[(i * other.rows + p, j * other.cols + q)] = s * other[(p, q)];
                    }
                }
            }
        }
        m
    }

    /// Column-stacking vectorization `vec(self)` as an `rows*cols x 1` matrix.
    pub fn vectorize(&self) -> Mat {
        let mut v = Mat::zeros(self.rows * self.cols, 1);
        for j in 0..self.cols {
            for i in 0..self.rows {
                v[(j * self.rows + i, 0)] = self[(i, j)];
            }
        }
        v
    }

    /// Inverse of [`Mat::vectorize`]: reshapes a stacked column vector back
    /// into a `rows x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a column vector of length `rows * cols`.
    pub fn from_vectorized(v: &Mat, rows: usize, cols: usize) -> Mat {
        assert_eq!(v.cols, 1, "expected a column vector");
        assert_eq!(v.rows, rows * cols, "vector length must be rows*cols");
        Mat::from_fn(rows, cols, |i, j| v[(j * rows + i, 0)])
    }

    /// Symmetrizes the matrix in place: `self = (self + self^T) / 2`.
    ///
    /// Useful after iterative solvers whose round-off breaks symmetry.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let m = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = m;
                self[(j, i)] = m;
            }
        }
    }

    /// Returns `true` if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Resizes to `rows x cols` in place, reusing the allocation, and fills
    /// the matrix with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Resets to the `n x n` identity in place.
    pub fn set_identity(&mut self, n: usize) {
        self.reset(n, n);
        for i in 0..n {
            self[(i, i)] = 1.0;
        }
    }

    /// Copies `src` into `self`, resizing in place as needed.
    pub fn copy_from(&mut self, src: &Mat) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// In-place matrix product `self = a * b`.
    ///
    /// Performs the identical sequence of floating-point operations as
    /// `&a * &b` (including the skip of exact-zero left factors), so results
    /// are bit-identical to the allocating operator.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn mul_into(&mut self, a: &Mat, b: &Mat) {
        assert_eq!(
            a.cols, b.rows,
            "matrix product inner dimension mismatch: {}x{} * {}x{}",
            a.rows, a.cols, b.rows, b.cols
        );
        self.reset(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let aik = a.data[i * a.cols + k];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    self.data[i * b.cols + j] += aik * b.data[k * b.cols + j];
                }
            }
        }
    }

    /// In-place sum `self = a + b`; bit-identical to `&a + &b`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_into(&mut self, a: &Mat, b: &Mat) {
        assert_eq!(a.shape(), b.shape(), "matrix addition shape mismatch");
        self.rows = a.rows;
        self.cols = a.cols;
        self.data.clear();
        self.data
            .extend(a.data.iter().zip(&b.data).map(|(x, y)| x + y));
    }

    /// In-place difference `self = a - b`; bit-identical to `&a - &b`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub_into(&mut self, a: &Mat, b: &Mat) {
        assert_eq!(a.shape(), b.shape(), "matrix subtraction shape mismatch");
        self.rows = a.rows;
        self.cols = a.cols;
        self.data.clear();
        self.data
            .extend(a.data.iter().zip(&b.data).map(|(x, y)| x - y));
    }

    /// In-place transpose `self = a^T`; bit-identical to [`Mat::transpose`].
    pub fn transpose_into(&mut self, a: &Mat) {
        self.reset(a.cols, a.rows);
        for i in 0..a.rows {
            for j in 0..a.cols {
                self[(j, i)] = a[(i, j)];
            }
        }
    }

    /// Maximum absolute element difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in max_abs_diff"
        );
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        debug_assert!(row < self.rows && col < self.cols);
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        debug_assert!(row < self.rows && col < self.cols);
        &mut self.data[row * self.cols + col]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.6e}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for &Mat {
    type Output = Mat;
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Mat {
    type Output = Mat;
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Neg for &Mat {
    type Output = Mat;
    fn neg(self) -> Mat {
        self.scale(-1.0)
    }
}

impl Mul for &Mat {
    type Output = Mat;
    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    fn mul(self, rhs: &Mat) -> Mat {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix product inner dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += aik * rhs.data[k * rhs.cols + j];
                }
            }
        }
        out
    }
}

impl Mul<f64> for &Mat {
    type Output = Mat;
    fn mul(self, rhs: f64) -> Mat {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.shape(), (2, 3));
        assert_eq!(a[(0, 2)], 3.0);
        assert_eq!(a[(1, 0)], 4.0);
        assert_eq!(a.get(5, 0), None);
        assert_eq!(a.get(1, 1), Some(5.0));
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Mat::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let i = Mat::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn product_matches_hand_computation() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn norms() {
        let a = Mat::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_eq!(a.norm_one(), 6.0); // col 1: |−2|+|4| = 6
        assert_eq!(a.norm_inf(), 7.0); // row 1: |−3|+|4| = 7
        assert!((a.norm_fro() - 30.0f64.sqrt()).abs() < 1e-15);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn trace_and_diag() {
        let d = Mat::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn set_block_roundtrip() {
        let mut m = Mat::zeros(3, 3);
        let b = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.set_block(1, 1, &b);
        assert_eq!(m.block(1, 1, 2, 2), b);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn kron_identity() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let k = Mat::identity(2).kron(&a);
        assert_eq!(k.shape(), (4, 4));
        assert_eq!(k.block(0, 0, 2, 2), a);
        assert_eq!(k.block(2, 2, 2, 2), a);
        assert_eq!(k.block(0, 2, 2, 2), Mat::zeros(2, 2));
    }

    #[test]
    fn vectorize_roundtrip() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let v = a.vectorize();
        assert_eq!(v.shape(), (6, 1));
        // Column-major stacking.
        assert_eq!(v[(0, 0)], 1.0);
        assert_eq!(v[(1, 0)], 4.0);
        assert_eq!(Mat::from_vectorized(&v, 2, 3), a);
    }

    #[test]
    fn symmetrize() {
        let mut a = Mat::from_rows(&[&[1.0, 2.0], &[4.0, 3.0]]);
        a.symmetrize();
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn product_dimension_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = &a * &b;
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Mat::identity(1));
        assert!(!s.is_empty());
    }
}
