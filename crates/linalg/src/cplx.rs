//! A minimal complex-number scalar.
//!
//! The eigenvalue solver and frequency-response code need complex
//! arithmetic; the reproduction mandate forbids external numerics crates, so
//! this module provides a small, well-tested `f64`-based complex type.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Examples
///
/// ```
/// use csa_linalg::Cplx;
///
/// let i = Cplx::new(0.0, 1.0);
/// assert_eq!(i * i, Cplx::new(-1.0, 0.0));
/// assert!((Cplx::new(3.0, 4.0).abs() - 5.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cplx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cplx {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Cplx = Cplx { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Cplx = Cplx { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Cplx = Cplx { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Cplx { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Cplx { re, im: 0.0 }
    }

    /// Creates the complex number `e^{i*theta}` on the unit circle.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Cplx {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Cplx {
            re: self.re,
            im: -self.im,
        }
    }

    /// Modulus (absolute value), computed with `hypot` for robustness.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus `re^2 + im^2`.
    #[inline]
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Principal square root (branch cut on the negative real axis).
    ///
    /// Uses the numerically stable half-angle formulation.
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Cplx::ZERO;
        }
        let m = self.abs();
        let re = ((m + self.re) / 2.0).sqrt();
        let im_mag = ((m - self.re) / 2.0).sqrt();
        Cplx {
            re,
            im: if self.im < 0.0 { -im_mag } else { im_mag },
        }
    }

    /// Complex exponential `e^{self}`.
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Cplx {
            re: r * self.im.cos(),
            im: r * self.im.sin(),
        }
    }

    /// Returns `true` if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Cplx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Cplx {
    fn from(re: f64) -> Self {
        Cplx::from_re(re)
    }
}

impl Add for Cplx {
    type Output = Cplx;
    #[inline]
    fn add(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Cplx {
    type Output = Cplx;
    #[inline]
    fn sub(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Cplx {
    type Output = Cplx;
    #[inline]
    fn mul(self, rhs: Cplx) -> Cplx {
        Cplx::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Cplx {
    type Output = Cplx;
    #[inline]
    fn mul(self, rhs: f64) -> Cplx {
        Cplx::new(self.re * rhs, self.im * rhs)
    }
}

impl Mul<Cplx> for f64 {
    type Output = Cplx;
    #[inline]
    fn mul(self, rhs: Cplx) -> Cplx {
        rhs * self
    }
}

/// Smith's ratio and denominator of one non-zero complex divisor `z`,
/// computed once and reusable for any number of numerators.
///
/// `n / z` is `((n.re * u + n.im * v) / d, (n.im * u - n.re * v) / d)`
/// with `(u, v) = (1, z.im / z.re)` when `|z.re| >= |z.im|` and
/// `(z.re / z.im, 1)` otherwise. Multiplying by `1.0` is exact, so both
/// branches share one formula without changing a bit, and a caller can
/// divide many numerators by `z`, or lanes with different branches,
/// with straight-line arithmetic. [`Cplx`]'s `/` is built on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmithDivisor {
    /// Multiplier of the numerator part that shares the major axis.
    pub u: f64,
    /// Multiplier of the other numerator part.
    pub v: f64,
    /// Smith's denominator.
    pub d: f64,
}

impl SmithDivisor {
    /// `n / z` for the divisor `z` this was built from.
    #[inline]
    pub fn divide(self, n: Cplx) -> Cplx {
        Cplx::new(
            (n.re * self.u + n.im * self.v) / self.d,
            (n.im * self.u - n.re * self.v) / self.d,
        )
    }
}

impl Cplx {
    /// Smith's ratio and denominator for dividing by `self`, or `None`
    /// when `self` is zero.
    #[inline]
    pub fn smith_divisor(self) -> Option<SmithDivisor> {
        if self.re.abs() >= self.im.abs() {
            if self.re == 0.0 && self.im == 0.0 {
                return None;
            }
            let r = self.im / self.re;
            Some(SmithDivisor {
                u: 1.0,
                v: r,
                d: self.re + self.im * r,
            })
        } else {
            let r = self.re / self.im;
            Some(SmithDivisor {
                u: r,
                v: 1.0,
                d: self.re * r + self.im,
            })
        }
    }
}

impl Div for Cplx {
    type Output = Cplx;
    /// Complex division using Smith's algorithm (robust against
    /// intermediate overflow/underflow).
    #[inline]
    fn div(self, rhs: Cplx) -> Cplx {
        match rhs.smith_divisor() {
            Some(s) => s.divide(self),
            None => Cplx::new(self.re / 0.0, self.im / 0.0),
        }
    }
}

impl Div<f64> for Cplx {
    type Output = Cplx;
    #[inline]
    fn div(self, rhs: f64) -> Cplx {
        Cplx::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Cplx {
    type Output = Cplx;
    #[inline]
    fn neg(self) -> Cplx {
        Cplx::new(-self.re, -self.im)
    }
}

impl AddAssign for Cplx {
    fn add_assign(&mut self, rhs: Cplx) {
        *self = *self + rhs;
    }
}

impl SubAssign for Cplx {
    fn sub_assign(&mut self, rhs: Cplx) {
        *self = *self - rhs;
    }
}

impl MulAssign for Cplx {
    fn mul_assign(&mut self, rhs: Cplx) {
        *self = *self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Cplx, b: Cplx, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn arithmetic_identities() {
        let z = Cplx::new(3.0, -4.0);
        assert_eq!(z + Cplx::ZERO, z);
        assert_eq!(z * Cplx::ONE, z);
        assert_eq!(z - z, Cplx::ZERO);
    }

    #[test]
    fn division_matches_multiplication_by_inverse() {
        let a = Cplx::new(1.5, -2.5);
        let b = Cplx::new(-0.25, 4.0);
        let q = a / b;
        assert!(close(q * b, a, 1e-12));
    }

    #[test]
    fn smith_divisor_matches_the_two_branch_formula_bit_for_bit() {
        // Smith's algorithm written out per branch: the reference the
        // one-formula divisor must reproduce bit for bit.
        fn two_branch(n: Cplx, z: Cplx) -> Cplx {
            if z.re.abs() >= z.im.abs() {
                if z.re == 0.0 && z.im == 0.0 {
                    return Cplx::new(n.re / 0.0, n.im / 0.0);
                }
                let r = z.im / z.re;
                let d = z.re + z.im * r;
                Cplx::new((n.re + n.im * r) / d, (n.im - n.re * r) / d)
            } else {
                let r = z.re / z.im;
                let d = z.re * r + z.im;
                Cplx::new((n.re * r + n.im) / d, (n.im * r - n.re) / d)
            }
        }
        let parts = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.75,
            -3.5,
            1e-310,
            -2e-308,
            1e300,
            -1.7e308,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for &nr in &parts {
            for &ni in &parts {
                for &zr in &parts {
                    for &zi in &parts {
                        let (n, z) = (Cplx::new(nr, ni), Cplx::new(zr, zi));
                        let (got, want) = (n / z, two_branch(n, z));
                        assert!(
                            got.re.to_bits() == want.re.to_bits()
                                && got.im.to_bits() == want.im.to_bits(),
                            "{n} / {z}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn division_by_zero_gives_non_finite() {
        let q = Cplx::ONE / Cplx::ZERO;
        assert!(!q.is_finite());
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[
            (4.0, 0.0),
            (-4.0, 0.0),
            (3.0, 4.0),
            (-3.0, -4.0),
            (0.0, 2.0),
        ] {
            let z = Cplx::new(re, im);
            let s = z.sqrt();
            assert!(close(s * s, z, 1e-12), "sqrt({z}) = {s}");
            // Principal branch: non-negative real part.
            assert!(s.re >= 0.0);
        }
    }

    #[test]
    fn exp_of_imaginary_is_unit_circle() {
        let z = Cplx::new(0.0, std::f64::consts::PI);
        assert!(close(z.exp(), Cplx::new(-1.0, 0.0), 1e-15));
        assert!((Cplx::from_angle(1.2) - Cplx::new(0.0, 1.2).exp()).abs() < 1e-15);
    }

    #[test]
    fn conj_and_abs() {
        let z = Cplx::new(1.0, 2.0);
        assert_eq!(z.conj(), Cplx::new(1.0, -2.0));
        assert!((z.abs_sq() - 5.0).abs() < 1e-15);
        assert!(((z * z.conj()).re - z.abs_sq()).abs() < 1e-15);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Cplx::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Cplx::new(1.0, -2.0).to_string(), "1-2i");
    }
}
