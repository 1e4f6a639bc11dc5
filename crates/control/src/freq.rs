//! Frequency responses of continuous and discrete systems.
//!
//! Besides the one-shot [`continuous_response`]/[`discrete_response`]
//! entry points, this module provides [`ResponseScratch`], the
//! jitter-margin sweep's resolvent kernel: the dense `O(n^3)` solve
//! without `hypot`, four frequencies at a time, bit-identical to
//! [`response_at`] (DESIGN.md §10.2).

use crate::error::Result;
use crate::ss::{DiscreteSs, StateSpace};
use csa_linalg::{CMat, Cplx, Mat, SmithDivisor};

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

/// Squared moduli are ranked only up to this, where none overflows.
const SQ_MAX: f64 = 1e290;
/// Two squared moduli closer than this (relative) may rank differently
/// under `hypot`; the squares then do not decide the pivot.
const TIE: f64 = 1e-12;
/// Points solved in lockstep by [`ResponseScratch::sweep`].
const LANES: usize = 4;

/// The `(i, j)` entry of `pI - A`, by the expression `response_at`
/// builds it with (`identity * p - from_real(A)`), so even the signs of
/// zeros match.
#[inline]
fn resolvent_entry(a: &Mat, p: Cplx, i: usize, j: usize) -> Cplx {
    let idc = if i == j { Cplx::ONE } else { Cplx::ZERO };
    idc * p - Cplx::from_re(a[(i, j)])
}

/// `|re| + |im|` folded into a running maximum; +inf once an entry is
/// not a number, whose `hypot` may be infinite.
#[inline]
fn fold_bound(bound: f64, z: Cplx) -> f64 {
    let e = z.re.abs() + z.im.abs();
    if e.is_nan() {
        f64::INFINITY
    } else {
        bound.max(e)
    }
}

/// The square of an upper bound of [`CMat::solve`]'s singularity
/// tolerance `max(max |m_ij|, 1) * eps * n`, from the folded
/// `max(|re| + |im|)`: `|re| + |im|` is at least the modulus, and the
/// factor 2 covers every rounding.
#[inline]
fn tol_bound_sq(bound: f64, n: usize) -> f64 {
    let t = 2.0 * bound.max(1.0) * f64::EPSILON * (n as f64);
    t * t
}

/// Pivot search over one column by squared modulus.
///
/// [`CMat::solve`] takes the first row of largest `hypot` and calls the
/// matrix singular when that `hypot` is at most its tolerance. When no
/// square exceeds [`SQ_MAX`], the largest is above the tolerance bound
/// (so at least `(2 eps)^2` and not subnormal) and every other is below
/// it by more than [`TIE`], each square is within a few ulps of the true
/// squared modulus and the leader's modulus is strictly largest. `hypot`,
/// within an ulp of the true modulus, then ranks the same row first and
/// finds it above the tolerance.
#[derive(Debug, Clone, Copy)]
struct Rank {
    row: usize,
    best: f64,
    second: f64,
    in_range: bool,
}

impl Rank {
    #[inline]
    fn new(row: usize, sq: f64) -> Self {
        Rank {
            row,
            best: sq,
            second: 0.0,
            in_range: sq <= SQ_MAX,
        }
    }

    #[inline]
    fn push(&mut self, row: usize, sq: f64) {
        self.in_range &= sq <= SQ_MAX;
        if sq > self.best {
            self.second = self.best;
            self.best = sq;
            self.row = row;
        } else if sq > self.second {
            self.second = sq;
        }
    }

    /// The row `hypot` ranks first, when the squares decide it and it
    /// clears the squared tolerance bound `tol_sq`.
    #[inline]
    fn decided(&self, tol_sq: f64) -> Option<usize> {
        (self.in_range && self.best > tol_sq && self.second < self.best * (1.0 - TIE))
            .then_some(self.row)
    }
}

/// Four complex values, one per lane, as separate real and imaginary
/// arrays so that lane-wise arithmetic vectorizes.
#[derive(Debug, Clone, Copy, Default)]
struct C4 {
    re: [f64; LANES],
    im: [f64; LANES],
}

impl C4 {
    #[inline]
    fn lane(&self, l: usize) -> Cplx {
        Cplx::new(self.re[l], self.im[l])
    }

    /// Lanes holding a non-zero value (the scalar code's `!= ZERO`).
    #[inline]
    fn nonzero(&self) -> [bool; LANES] {
        std::array::from_fn(|l| self.re[l] != 0.0 || self.im[l] != 0.0)
    }

    /// `self -= f * m` in the lanes marked `live`, by the operations of
    /// [`Cplx`]'s `*` and `-=`.
    #[inline]
    fn sub_mul(&mut self, f: &C4, m: &C4, live: [bool; LANES]) {
        for (l, &live) in live.iter().enumerate() {
            let vr = f.re[l] * m.re[l] - f.im[l] * m.im[l];
            let vi = f.re[l] * m.im[l] + f.im[l] * m.re[l];
            self.re[l] = if live { self.re[l] - vr } else { self.re[l] };
            self.im[l] = if live { self.im[l] - vi } else { self.im[l] };
        }
    }

    /// The Smith divisors of the four lanes, or `None` if one is zero.
    #[inline]
    fn divisors(&self) -> Option<[SmithDivisor; LANES]> {
        let [a, b, c, d] = std::array::from_fn(|l| self.lane(l).smith_divisor());
        Some([a?, b?, c?, d?])
    }

    /// `self / z` lane by lane, from `z`'s [`C4::divisors`].
    #[inline]
    fn divide(&self, div: &[SmithDivisor; LANES]) -> C4 {
        let mut q = C4::default();
        for (l, s) in div.iter().enumerate() {
            let ql = s.divide(self.lane(l));
            q.re[l] = ql.re;
            q.im[l] = ql.im;
        }
        q
    }
}

/// Re-entrant workspace of the jitter-margin sweep's dense resolvent
/// solves (DESIGN.md §10.2).
///
/// [`ResponseScratch::sweep`] solves four points at a time in lockstep.
/// Each lane performs the floating-point operations [`CMat::solve`] and
/// [`response_at`] perform on the values the `(0, 0)` entry of the
/// response depends on, so results are bit-identical. What it leaves out
/// cannot change a bit:
///
/// * pivot candidates are ranked by squared modulus ([`Rank`]);
/// * singularity is tested against an upper bound of the tolerance;
/// * each pivot's Smith divisor is computed once;
/// * an exactly zero subdiagonal entry is skipped (the reference divides
///   it by the finite pivot to `±0` and then skips the update);
/// * the unit-lower factor is not stored and only column 0 of `B` and
///   row 0 of `C` are used.
///
/// A group whose squares do not decide a pivot, whose lanes pick
/// different pivot rows, or whose pivot is not clear of the bound is
/// evaluated point by point by [`response_at`] itself, as are the last
/// `points.len() % 4` points.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResponseScratch {
    m4: Vec<C4>,
    x4: Vec<C4>,
    out: Vec<Cplx>,
}

impl ResponseScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused.
    pub(crate) fn new() -> Self {
        ResponseScratch::default()
    }

    /// The `(0, 0)` entry of `C (pI - A)^{-1} B + D` at every point of
    /// `points`, in order; `Err(Singular)` if some point is singular.
    /// Shapes must form a system (not checked).
    pub(crate) fn sweep(
        &mut self,
        a: &Mat,
        b: &Mat,
        c: &Mat,
        d: &Mat,
        points: &[Cplx],
    ) -> Result<&[Cplx]> {
        self.out.clear();
        let mut groups = points.chunks_exact(LANES);
        for group in &mut groups {
            if let Some(g) = self.solve4(a, b, c, d, group) {
                self.out.extend_from_slice(&g);
                continue;
            }
            for &p in group {
                self.out.push(response_at(a, b, c, d, p)?[(0, 0)]);
            }
        }
        for &p in groups.remainder() {
            self.out.push(response_at(a, b, c, d, p)?[(0, 0)]);
        }
        Ok(&self.out)
    }

    /// Four points in lockstep, each lane performing the operations of
    /// [`CMat::solve`] with lane masks where it skips a zero; `None` when
    /// a lane's squares do not decide its pivot, the lanes pick different
    /// pivot rows, or a pivot is not clear of the tolerance bound.
    fn solve4(&mut self, a: &Mat, b: &Mat, c: &Mat, d: &Mat, p: &[Cplx]) -> Option<[Cplx; LANES]> {
        let n = a.rows();
        self.m4.clear();
        let mut bound = [0.0f64; LANES];
        for i in 0..n {
            for j in 0..n {
                let mut z = C4::default();
                for (l, &pl) in p.iter().enumerate() {
                    let e = resolvent_entry(a, pl, i, j);
                    bound[l] = fold_bound(bound[l], e);
                    z.re[l] = e.re;
                    z.im[l] = e.im;
                }
                self.m4.push(z);
            }
        }
        let tol_sq = bound.map(|b| tol_bound_sq(b, n));
        self.x4.clear();
        self.x4.extend((0..n).map(|i| C4 {
            re: [b[(i, 0)]; LANES],
            im: [0.0; LANES],
        }));
        let m = &mut self.m4;
        let x = &mut self.x4;
        for k in 0..n {
            let mut piv = None;
            for (l, &tol_l) in tol_sq.iter().enumerate() {
                let mut rank = Rank::new(k, m[k * n + k].lane(l).abs_sq());
                for i in (k + 1)..n {
                    rank.push(i, m[i * n + k].lane(l).abs_sq());
                }
                let row = rank.decided(tol_l)?;
                if piv.is_some_and(|r| r != row) {
                    return None;
                }
                piv = Some(row);
            }
            let piv = piv?;
            if piv != k {
                for j in k..n {
                    m.swap(k * n + j, piv * n + j);
                }
                x.swap(k, piv);
            }
            let div = m[k * n + k].divisors()?;
            let (upper, lower) = m.split_at_mut((k + 1) * n);
            let row_k = &upper[k * n..];
            let xk = x[k];
            for (r, row_i) in lower.chunks_exact_mut(n).enumerate() {
                // Every lane's pivot is finite (its square is in range), so
                // a zero entry gives a zero multiplier and a masked lane.
                if !row_i[k].nonzero().contains(&true) {
                    continue;
                }
                let f = row_i[k].divide(&div);
                let live = f.nonzero();
                for j in (k + 1)..n {
                    row_i[j].sub_mul(&f, &row_k[j], live);
                }
                x[k + 1 + r].sub_mul(&f, &xk, live);
            }
        }
        for k in (0..n).rev() {
            x[k] = x[k].divide(&m[k * n + k].divisors()?);
            let xk = x[k];
            for i in 0..k {
                let u = m[i * n + k];
                x[i].sub_mul(&u, &xk, u.nonzero());
            }
        }
        Some(std::array::from_fn(|l| output_00(c, d, |k| x[k].lane(l))))
    }
}

/// `(C x + D)[(0, 0)]` with `x` the solved column 0, by the operations
/// of `from_real(C) * x + from_real(D)`, including the product's skip
/// of zero entries of `C`.
#[inline]
fn output_00(c: &Mat, d: &Mat, x: impl Fn(usize) -> Cplx) -> Cplx {
    let mut g = Cplx::ZERO;
    for k in 0..c.cols() {
        let ck = Cplx::from_re(c[(0, k)]);
        if ck != Cplx::ZERO {
            g += ck * x(k);
        }
    }
    g + Cplx::from_re(d[(0, 0)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c2d::c2d_zoh;
    use crate::error::Error;
    use crate::ss::TransferFunction;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, TAU};

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
        let sys = Sys {
            a: Mat::from_rows(&[&[0.2, 1.0, 0.0], &[-0.3, 0.5, 0.2], &[0.0, -0.1, 0.7]]),
            b: Mat::col_vec(&[1.0, 0.5, -0.2]),
            c: Mat::from_rows(&[&[1.0, 0.0, 2.0]]),
            d: Mat::zeros(1, 1),
        };
        let points: Vec<Cplx> = [0.1, 0.9, 2.4, 3.1, 1.7]
            .iter()
            .map(|&w| Cplx::from_angle(w))
            .collect();
        assert_sweep_bit_identical(&sys, &points);
    }

    /// A real system `(A, B, C, D)` for the resolvent kernel.
    #[derive(Debug, Clone)]
    struct Sys {
        a: Mat,
        b: Mat,
        c: Mat,
        d: Mat,
    }

    /// The sweep over `points` fails with `Singular` exactly when
    /// [`response_at`] does at some point, and the sweep over the regular
    /// points, in lanes beside one another, equals [`response_at`] at each
    /// bit for bit.
    fn assert_sweep_bit_identical(sys: &Sys, points: &[Cplx]) {
        let Sys { a, b, c, d } = sys;
        let singular = Error::Numerical(csa_linalg::Error::Singular);
        let (mut regular, mut want) = (Vec::new(), Vec::new());
        for &p in points {
            match response_at(a, b, c, d, p) {
                Ok(g) => {
                    regular.push(p);
                    want.push(g[(0, 0)]);
                }
                Err(e) => assert_eq!(e, singular, "response_at at {p}"),
            }
        }
        let mut scratch = ResponseScratch::new();
        if regular.len() < points.len() {
            let whole = scratch.sweep(a, b, c, d, points).err();
            assert_eq!(whole, Some(singular), "a singular point among {points:?}");
        }
        let got = match scratch.sweep(a, b, c, d, &regular) {
            Ok(got) => got,
            Err(e) => panic!("sweep {e:?}, response_at regular at {regular:?}"),
        };
        assert_eq!(got.len(), want.len());
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "point {k} of {regular:?}: sweep {g} vs response_at {w}"
            );
        }
    }

    /// Entry magnitudes that stress the squared-modulus ranking: squares
    /// of 1e±160 leave `[1e-290, 1e290]`, squares of 1e±300 under- or
    /// overflow, and at 6e307 the elimination itself overflows.
    const SCALES: [f64; 10] = [1.0, 1.0, 1.0, 1.0, 1.0, 1e160, 1e-160, 1e300, 1e-300, 6e307];

    /// An entry that is exactly zero a third of the time.
    fn entry() -> impl Strategy<Value = f64> {
        (0u8..3, -2.0..2.0f64).prop_map(|(zero, v)| if zero == 0 { 0.0 } else { v })
    }

    /// A random real system of order 1 to 12 with exact zeros, each row
    /// of `A` scaled by one of [`SCALES`].
    fn system() -> impl Strategy<Value = Sys> {
        (1usize..=12)
            .prop_flat_map(|n| {
                (
                    Just(n),
                    vec(entry(), n * n),
                    vec(entry(), 2 * n),
                    vec(0..SCALES.len(), n),
                    entry(),
                )
            })
            .prop_map(|(n, a, bc, rows, d)| Sys {
                a: Mat::from_fn(n, n, |i, j| a[i * n + j] * SCALES[rows[i]]),
                b: Mat::from_fn(n, 1, |i, _| bc[i]),
                c: Mat::from_fn(1, n, |_, j| bc[n + j]),
                d: Mat::scalar(d),
            })
    }

    /// A point on the unit circle, or an arbitrary complex point, scaled
    /// by one of [`SCALES`].
    fn point() -> impl Strategy<Value = Cplx> {
        (
            0u8..2,
            0.0..TAU,
            -3.0..3.0f64,
            -3.0..3.0f64,
            0..SCALES.len(),
        )
            .prop_map(|(kind, theta, re, im, s)| {
                let p = if kind == 0 {
                    Cplx::from_angle(theta)
                } else {
                    Cplx::new(re, im)
                };
                p * SCALES[s]
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random systems of order 1 to 12 with exact zeros and extreme
        /// magnitudes, at unit-circle and arbitrary complex points.
        #[test]
        fn sweep_bit_identical_on_random_systems(
            sys in system(),
            points in vec(point(), 1..=10),
        ) {
            assert_sweep_bit_identical(&sys, &points);
        }

        /// Exact and near modulus ties in a pivot column: `A` has a zero
        /// `(0, 0)` entry, so `(pI - A)[(0, 0)] = p`, and entries `±r`
        /// or at most `r / 2` below it, with `p` on the circle of radius
        /// `r` (where `hypot` and the squares can rank a few ulps apart)
        /// or at `r i` exactly. `r` is 1 (the unit circle against `±1`),
        /// a few ulps off 1, an ulp above `sqrt(f64::MAX)` (where `r²`
        /// overflows and the square of `p` may not), or an extreme
        /// magnitude. The points whose squares fall below `r²` come
        /// first, so that whole groups of lanes rank `p` just below `±r`
        /// by the squares while `hypot` may call the two equal.
        #[test]
        fn sweep_bit_identical_at_modulus_ties(
            n in 2usize..=7,
            rest in vec(entry(), 49),
            signs in vec(0u8..3, 6),
            r_kind in 0usize..(SCALES.len() + 5),
            thetas in vec(0.0..TAU, 4..=24),
        ) {
            let r = match r_kind.checked_sub(SCALES.len()) {
                Some(4) => f64::from_bits(f64::MAX.sqrt().to_bits() + 1),
                Some(ulps) => 1.0 + (ulps as f64 - 1.5) * f64::EPSILON,
                None => SCALES[r_kind],
            };
            let a = Mat::from_fn(n, n, |i, j| match (i, j) {
                (0, 0) => 0.0,
                (i, 0) => [r, -r, 0.5 * r * rest[i]][signs[i - 1] as usize],
                _ => rest[i * 7 + j],
            });
            let sys = Sys {
                a,
                b: Mat::from_fn(n, 1, |i, _| rest[i] + 1.0),
                c: Mat::from_fn(1, n, |_, j| rest[7 * j]),
                d: Mat::zeros(1, 1),
            };
            let mut points: Vec<Cplx> = thetas.iter().map(|&t| Cplx::from_angle(t) * r).collect();
            points.sort_by_key(|p| p.abs_sq() >= r * r);
            points.push(Cplx::new(0.0, r));
            assert_sweep_bit_identical(&sys, &points);
        }

        /// Points on and next to an eigenvalue: `A` is upper triangular,
        /// so its diagonal entries are exact eigenvalues, and `p` sits on
        /// one or within a few tolerances of it, where only the exact
        /// `hypot` tolerance decides singularity.
        #[test]
        fn sweep_bit_identical_at_eigenvalues(
            n in 1usize..=8,
            upper in vec(entry(), 64),
            which in 0usize..8,
            offsets in vec((-8.0..8.0f64, 0u8..2), 1..=9),
        ) {
            let a = Mat::from_fn(n, n, |i, j| if i <= j { upper[i * 8 + j] } else { 0.0 });
            let lambda = a[(which % n, which % n)];
            let sys = Sys {
                b: Mat::from_fn(n, 1, |i, _| upper[8 * i] - 0.5),
                c: Mat::from_fn(1, n, |_, j| 1.0 + j as f64),
                d: Mat::scalar(0.25),
                a,
            };
            let tol = lambda.abs().max(1.0) * f64::EPSILON * n as f64;
            let points: Vec<Cplx> = offsets
                .iter()
                .map(|&(t, axis)| {
                    let off = if t.abs() < 1.0 { 0.0 } else { t * tol };
                    if axis == 0 {
                        Cplx::new(lambda + off, 0.0)
                    } else {
                        Cplx::new(lambda, off)
                    }
                })
                .collect();
            assert_sweep_bit_identical(&sys, &points);
        }

        /// Four-lane groups whose lanes pick different pivot rows: with
        /// `A[(1, 0)] = -1`, a point inside the unit circle pivots on row
        /// 1 and one outside it on row 0.
        #[test]
        fn sweep_bit_identical_when_lanes_pick_different_pivots(
            n in 2usize..=6,
            rest in vec(entry(), 36),
            radii in vec((0.1..0.9f64, 1.1..3.0f64, 0u8..2), 4..=12),
            theta in 0.0..TAU,
        ) {
            let a = Mat::from_fn(n, n, |i, j| match (i, j) {
                (0, 0) => 0.0,
                (1, 0) => -1.0,
                (i, 0) => 0.1 * rest[i],
                _ => rest[i * 6 + j],
            });
            let sys = Sys {
                b: Mat::from_fn(n, 1, |i, _| 1.0 + rest[i]),
                c: Mat::from_fn(1, n, |_, j| 1.0 - rest[j]),
                d: Mat::zeros(1, 1),
                a,
            };
            let points: Vec<Cplx> = radii
                .iter()
                .enumerate()
                .map(|(k, &(inner, outer, pick))| {
                    let r = if pick == 0 { inner } else { outer };
                    Cplx::from_angle(theta + k as f64 * FRAC_PI_2) * r
                })
                .collect();
            assert_sweep_bit_identical(&sys, &points);
        }
    }

    #[test]
    fn sweep_bit_identical_on_hand_built_cases() {
        // p = i against a column of ±1: every candidate of column 0 has
        // modulus exactly 1.
        let sys = Sys {
            a: Mat::from_rows(&[&[0.0, 1.0, 0.5], &[1.0, 0.0, 2.0], &[-1.0, 0.5, 0.0]]),
            b: Mat::col_vec(&[1.0, 0.0, -1.0]),
            c: Mat::row_vec(&[1.0, 2.0, 0.0]),
            d: Mat::zeros(1, 1),
        };
        let i = Cplx::I;
        assert_sweep_bit_identical(&sys, &[i, -i, i, Cplx::ONE, i * 2.0]);
        // The rotation [[0, -1], [1, 0]] has eigenvalues ±i: the whole
        // group is singular, and so is a group with one singular lane.
        let rot = Sys {
            a: Mat::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]),
            b: Mat::col_vec(&[1.0, 0.0]),
            c: Mat::row_vec(&[0.0, 1.0]),
            d: Mat::zeros(1, 1),
        };
        assert_sweep_bit_identical(&rot, &[i, -i, i, -i]);
        assert_sweep_bit_identical(
            &rot,
            &[Cplx::ONE, Cplx::new(0.5, 0.5), -i, Cplx::new(2.0, 0.0)],
        );
        // Entries that are not finite, and entries whose elimination
        // overflows: the sweep must still replay `response_at`.
        let (inf, nan, big) = (f64::INFINITY, f64::NAN, 1.5e308);
        for a in [
            Mat::from_rows(&[&[inf, 1.0], &[1.0, 0.5]]),
            Mat::from_rows(&[&[0.5, nan], &[1.0, 0.5]]),
            Mat::from_rows(&[&[0.5, 1.0], &[-inf, 0.5]]),
            Mat::from_rows(&[&[big, -big, 0.0], &[-big, big, big], &[big, big, -big]]),
            Mat::from_rows(&[&[0.0, big, 1.0], &[1.0, -big, big], &[big, 0.0, big]]),
        ] {
            let sys = Sys {
                b: Mat::from_fn(a.rows(), 1, |i, _| 1.0 + i as f64),
                c: Mat::from_fn(1, a.rows(), |_, j| 2.0 - j as f64),
                d: Mat::zeros(1, 1),
                a,
            };
            let points = [
                i,
                Cplx::new(inf, 1.0),
                Cplx::new(big, big),
                Cplx::new(0.3, -0.2),
            ];
            assert_sweep_bit_identical(&sys, &points);
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
