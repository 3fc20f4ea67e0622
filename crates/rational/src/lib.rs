//! Exact rational arithmetic over `i128` numerators/denominators.
//!
//! The NPRR reproduction needs exact arithmetic in two places:
//!
//! 1. re-deriving an **exact basic feasible solution** of the fractional
//!    edge-cover LP from the basis found by the floating-point simplex
//!    (`wcoj-lp`), and
//! 2. proving the **half-integrality** structure of covers for arity-≤2
//!    queries (paper Lemma 7.2), where `x_e ∈ {0, 1/2, 1}` must be checked
//!    exactly, not up to `f64` round-off.
//!
//! Cover LPs in this workspace are tiny (tens of variables, coefficients in
//! `{0, ±1}` plus small objective weights), so `i128` components are ample.
//! All arithmetic is overflow-*checked*: the fallible API ([`Rational::checked_add`]
//! and friends) returns `None` on overflow, and the operator impls panic with
//! a descriptive message rather than wrapping. Comparison is always exact —
//! it widens to 256-bit products internally and can never overflow.
//!
//! Invariants maintained by every constructor and operation:
//! * the fraction is fully reduced (`gcd(num.abs(), den) == 1`),
//! * the denominator is strictly positive,
//! * zero is represented canonically as `0/1`.

mod wide;

pub use wide::{cmp_prod, mul_i128_wide};

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num / den` with `den > 0`, always reduced.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// Greatest common divisor of two non-negative integers.
#[must_use]
pub fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple; `None` on overflow.
fn lcm(a: u128, b: u128) -> Option<u128> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    (a / gcd(a, b)).checked_mul(b)
}

impl Rational {
    /// The canonical zero, `0/1`.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The canonical one, `1/1`.
    pub const ONE: Rational = Rational { num: 1, den: 1 };
    /// One half, `1/2` — the magic constant of half-integral covers.
    pub const ONE_HALF: Rational = Rational { num: 1, den: 2 };

    /// Builds `num/den`, reducing and normalising signs.
    ///
    /// # Panics
    /// Panics if `den == 0` or if either component is `i128::MIN` (whose
    /// absolute value is unrepresentable).
    #[must_use]
    pub fn new(num: i128, den: i128) -> Rational {
        Rational::checked_new(num, den).expect("Rational::new: zero denominator or i128::MIN")
    }

    /// Fallible constructor: `None` if `den == 0` or a component is
    /// `i128::MIN`.
    fn checked_new(num: i128, den: i128) -> Option<Rational> {
        if den == 0 || num == i128::MIN || den == i128::MIN {
            return None;
        }
        let sign = if (num < 0) ^ (den < 0) { -1 } else { 1 };
        let (un, ud) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd(un, ud);
        let (rn, rd) = (un / g, ud / g);
        debug_assert!(rn <= i128::MAX as u128 && rd <= i128::MAX as u128);
        Some(Rational {
            num: sign * rn as i128,
            den: rd as i128,
        })
    }

    /// Converts an integer.
    #[must_use]
    pub const fn from_int(v: i128) -> Rational {
        Rational { num: v, den: 1 }
    }

    /// Numerator (sign-carrying).
    #[must_use]
    pub const fn num(self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    #[must_use]
    pub const fn den(self) -> i128 {
        self.den
    }

    /// `true` iff this is exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// `true` iff negative.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// `true` iff strictly positive.
    #[must_use]
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse; `None` for zero.
    fn checked_recip(self) -> Option<Rational> {
        if self.num == 0 {
            return None;
        }
        Some(Rational {
            num: self.den * self.num.signum(),
            den: self.num.abs(),
        })
    }

    /// Checked addition; `None` on `i128` overflow.
    #[must_use]
    pub fn checked_add(self, rhs: Rational) -> Option<Rational> {
        // a/b + c/d = (a*(l/b) + c*(l/d)) / l  with l = lcm(b, d); keeping the
        // intermediate products as small as possible delays overflow.
        let l = lcm(self.den as u128, rhs.den as u128)?;
        if l > i128::MAX as u128 {
            return None;
        }
        let l = l as i128;
        let left = self.num.checked_mul(l / self.den)?;
        let right = rhs.num.checked_mul(l / rhs.den)?;
        Rational::checked_new(left.checked_add(right)?, l)
    }

    /// Checked subtraction; `None` on overflow.
    #[must_use]
    pub fn checked_sub(self, rhs: Rational) -> Option<Rational> {
        self.checked_add(Rational {
            num: rhs.num.checked_neg()?,
            den: rhs.den,
        })
    }

    /// Checked multiplication; `None` on overflow.
    #[must_use]
    pub fn checked_mul(self, rhs: Rational) -> Option<Rational> {
        // Cross-reduce first so the products are as small as possible.
        let g1 = gcd(self.num.unsigned_abs(), rhs.den.unsigned_abs()).max(1) as i128;
        let g2 = gcd(rhs.num.unsigned_abs(), self.den.unsigned_abs()).max(1) as i128;
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Rational { num, den })
    }

    /// Checked division; `None` on overflow or division by zero.
    #[must_use]
    pub fn checked_div(self, rhs: Rational) -> Option<Rational> {
        self.checked_mul(rhs.checked_recip()?)
    }

    /// Floor to an integer.
    #[must_use]
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Ceiling to an integer.
    #[must_use]
    pub fn ceil(self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// Nearest `f64` (may round; exactness is only guaranteed for small
    /// components).
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    /// Exact comparison via 256-bit cross products; never overflows.
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  (b, d > 0)  ⟺  a*d vs c*b
        cmp_prod(self.num, other.den, other.num, self.den)
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $checked:ident, $what:literal) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$checked(rhs)
                    .unwrap_or_else(|| panic!(concat!("Rational ", $what, " overflow")))
            }
        }
    };
}
binop!(Add, add, checked_add, "addition");
binop!(Sub, sub, checked_sub, "subtraction");
binop!(Mul, mul, checked_mul, "multiplication");
binop!(Div, div, checked_div, "division");

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}
impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}
impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}
impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

impl From<i128> for Rational {
    fn from(v: i128) -> Self {
        Rational::from_int(v)
    }
}
impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v as i128)
    }
}
impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational::from_int(v as i128)
    }
}
impl From<u32> for Rational {
    fn from(v: u32) -> Self {
        Rational::from_int(v as i128)
    }
}
impl From<usize> for Rational {
    fn from(v: usize) -> Self {
        Rational::from_int(v as i128)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests;
