//! Exact integer time.
//!
//! All scheduling analysis in this workspace runs on integer ticks (one
//! tick = one nanosecond by convention) so that the response-time fixed
//! points of Joseph–Pandya and Redell–Sanfridson are computed *exactly*,
//! with none of the floating-point ceiling hazards that plague naive
//! implementations. Conversion to `f64` seconds happens only at the
//! control-theory boundary (the `L + aJ <= b` stability check).

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Number of ticks per second (1 tick = 1 ns).
pub const TICKS_PER_SECOND: u64 = 1_000_000_000;

/// An exact, non-negative instant or duration in integer ticks.
///
/// # Examples
///
/// ```
/// use csa_rta::Ticks;
///
/// let h = Ticks::from_millis(10);
/// assert_eq!(h.as_secs_f64(), 0.010);
/// assert_eq!(h + h, Ticks::from_millis(20));
/// assert_eq!(Ticks::new(7).div_ceil(Ticks::new(2)), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Ticks(u64);

// Written out, not derived: a derived `PartialOrd` calls the field's
// `partial_cmp`, which the F001 rule bans (DESIGN.md §13).
impl Ord for Ticks {
    #[inline]
    fn cmp(&self, o: &Self) -> Ordering {
        self.0.cmp(&o.0)
    }
}

impl PartialOrd for Ticks {
    #[inline]
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl Ticks {
    /// Zero ticks.
    pub const ZERO: Ticks = Ticks(0);
    /// The maximum representable time.
    pub const MAX: Ticks = Ticks(u64::MAX);

    /// Creates a value holding exactly `ticks` ticks.
    #[inline]
    pub const fn new(ticks: u64) -> Self {
        Ticks(ticks)
    }

    /// Creates a duration of `s` whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Ticks(s * TICKS_PER_SECOND)
    }

    /// Creates a duration of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Ticks(ms * 1_000_000)
    }

    /// Creates a duration of `us` microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Ticks(us * 1_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// tick.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "time must be finite and non-negative, got {s}"
        );
        let t = (s * TICKS_PER_SECOND as f64).round();
        assert!(t <= u64::MAX as f64, "time {s} s overflows the tick range");
        Ticks(t as u64)
    }

    /// The raw tick count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// This duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SECOND as f64
    }

    /// Returns `true` if this is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Ceiling division: the number of whole-or-partial `rhs` intervals
    /// needed to cover `self`. `Ticks::new(0).div_ceil(x)` is 0.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub const fn div_ceil(self, rhs: Ticks) -> u64 {
        assert!(rhs.0 != 0, "division by zero ticks");
        self.0.div_ceil(rhs.0)
    }

    /// Floor division.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub const fn div_floor(self, rhs: Ticks) -> u64 {
        assert!(rhs.0 != 0, "division by zero ticks");
        self.0 / rhs.0
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Ticks) -> Option<Ticks> {
        self.0.checked_add(rhs.0).map(Ticks)
    }

    /// Checked multiplication by a count.
    #[inline]
    pub fn checked_mul(self, rhs: u64) -> Option<Ticks> {
        self.0.checked_mul(rhs).map(Ticks)
    }

    /// Saturating addition (clamps at [`Ticks::MAX`]).
    #[inline]
    pub const fn saturating_add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub const fn saturating_sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0.saturating_sub(rhs.0))
    }

    /// Least common multiple, or `None` on overflow.
    pub fn lcm(self, rhs: Ticks) -> Option<Ticks> {
        if self.0 == 0 || rhs.0 == 0 {
            return Some(Ticks::ZERO);
        }
        let g = gcd(self.0, rhs.0);
        (self.0 / g).checked_mul(rhs.0).map(Ticks)
    }

    /// Minimum of two times.
    #[inline]
    pub fn min(self, rhs: Ticks) -> Ticks {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// Maximum of two times.
    #[inline]
    pub fn max(self, rhs: Ticks) -> Ticks {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }
}

/// Greatest common divisor (Euclid).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render with the most natural unit.
        let t = self.0;
        if t == 0 {
            write!(f, "0s")
        } else if t.is_multiple_of(TICKS_PER_SECOND) {
            write!(f, "{}s", t / TICKS_PER_SECOND)
        } else if t.is_multiple_of(1_000_000) {
            write!(f, "{}ms", t / 1_000_000)
        } else if t.is_multiple_of(1_000) {
            write!(f, "{}us", t / 1_000)
        } else {
            write!(f, "{t}ns")
        }
    }
}

impl Add for Ticks {
    type Output = Ticks;
    /// # Panics
    ///
    /// Panics on overflow in debug builds (standard integer semantics).
    #[inline]
    fn add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 + rhs.0)
    }
}

impl Sub for Ticks {
    type Output = Ticks;
    /// # Panics
    ///
    /// Panics on underflow (durations are non-negative); use
    /// [`Ticks::saturating_sub`] to clamp.
    #[inline]
    fn sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 - rhs.0)
    }
}

impl AddAssign for Ticks {
    fn add_assign(&mut self, rhs: Ticks) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Ticks {
    fn sub_assign(&mut self, rhs: Ticks) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ticks {
    type Output = Ticks;
    #[inline]
    fn mul(self, rhs: u64) -> Ticks {
        Ticks(self.0 * rhs)
    }
}

impl Mul<Ticks> for u64 {
    type Output = Ticks;
    #[inline]
    fn mul(self, rhs: Ticks) -> Ticks {
        Ticks(self * rhs.0)
    }
}

impl Div for Ticks {
    type Output = u64;
    /// Floor division of durations (a pure count).
    #[inline]
    fn div(self, rhs: Ticks) -> u64 {
        self.div_floor(rhs)
    }
}

impl Rem for Ticks {
    type Output = Ticks;
    #[inline]
    fn rem(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 % rhs.0)
    }
}

impl Sum for Ticks {
    fn sum<I: Iterator<Item = Ticks>>(iter: I) -> Ticks {
        iter.fold(Ticks::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_units() {
        assert_eq!(Ticks::from_secs(1), Ticks::new(1_000_000_000));
        assert_eq!(Ticks::from_millis(5), Ticks::new(5_000_000));
        assert_eq!(Ticks::from_micros(7), Ticks::new(7_000));
        assert_eq!(Ticks::from_secs_f64(0.25), Ticks::new(250_000_000));
    }

    #[test]
    fn roundtrip_f64() {
        let t = Ticks::from_secs_f64(0.123456789);
        assert!((t.as_secs_f64() - 0.123456789).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_seconds_panics() {
        let _ = Ticks::from_secs_f64(-1.0);
    }

    #[test]
    fn ceil_and_floor_division() {
        assert_eq!(Ticks::new(10).div_ceil(Ticks::new(5)), 2);
        assert_eq!(Ticks::new(11).div_ceil(Ticks::new(5)), 3);
        assert_eq!(Ticks::new(0).div_ceil(Ticks::new(5)), 0);
        assert_eq!(Ticks::new(11).div_floor(Ticks::new(5)), 2);
        assert_eq!(Ticks::new(11) / Ticks::new(5), 2);
        assert_eq!(Ticks::new(11) % Ticks::new(5), Ticks::new(1));
    }

    #[test]
    fn lcm_behaviour() {
        assert_eq!(Ticks::new(6).lcm(Ticks::new(4)), Some(Ticks::new(12)));
        assert_eq!(Ticks::new(0).lcm(Ticks::new(4)), Some(Ticks::ZERO));
        // Overflow detected.
        assert_eq!(Ticks::new(u64::MAX - 1).lcm(Ticks::new(u64::MAX - 2)), None);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = Ticks::new(3);
        let b = Ticks::new(5);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b - a, Ticks::new(2));
        assert_eq!(a.saturating_sub(b), Ticks::ZERO);
        assert_eq!(a * 4, Ticks::new(12));
        assert_eq!(4 * a, Ticks::new(12));
        assert_eq!([a, b].into_iter().sum::<Ticks>(), Ticks::new(8));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Ticks::from_secs(2).to_string(), "2s");
        assert_eq!(Ticks::from_millis(3).to_string(), "3ms");
        assert_eq!(Ticks::from_micros(9).to_string(), "9us");
        assert_eq!(Ticks::new(17).to_string(), "17ns");
        assert_eq!(Ticks::ZERO.to_string(), "0s");
    }
}
