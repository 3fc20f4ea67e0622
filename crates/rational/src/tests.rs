use super::*;
use proptest::prelude::*;

fn r(n: i128, d: i128) -> Rational {
    Rational::new(n, d)
}

#[test]
fn construction_reduces() {
    assert_eq!(r(2, 4), r(1, 2));
    assert_eq!(r(-2, 4), r(1, -2));
    assert_eq!(r(0, 7).den(), 1);
    assert_eq!(r(6, -4), r(-3, 2));
    assert!(r(6, -4).is_negative());
    assert_eq!(format!("{}", r(3, 4)), "3/4");
    assert_eq!(format!("{}", r(4, 1)), "4");
    assert_eq!(format!("{}", r(-1, 2)), "-1/2");
}

#[test]
fn construction_rejects_zero_den() {
    assert!(Rational::checked_new(1, 0).is_none());
    assert!(Rational::checked_new(i128::MIN, 1).is_none());
    assert!(Rational::checked_new(1, i128::MIN).is_none());
}

#[test]
fn constants() {
    assert!(Rational::ZERO.is_zero());
    assert_eq!(Rational::ONE, r(1, 1));
    assert_eq!(Rational::ONE_HALF, r(1, 2));
    assert_eq!(Rational::default(), Rational::ZERO);
}

#[test]
fn arithmetic_basics() {
    assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
    assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
    assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
    assert_eq!(r(2, 3) / r(4, 3), r(1, 2));
    assert_eq!(-r(1, 2), r(-1, 2));
    assert!(r(1, 2).checked_div(Rational::ZERO).is_none());
}

#[test]
fn assign_ops() {
    let mut x = r(1, 2);
    x += r(1, 2);
    assert_eq!(x, Rational::ONE);
    x -= r(1, 4);
    assert_eq!(x, r(3, 4));
    x *= r(4, 3);
    assert_eq!(x, Rational::ONE);
    x /= r(1, 3);
    assert_eq!(x, r(3, 1));
}

#[test]
fn floor_ceil() {
    assert_eq!(r(7, 2).floor(), 3);
    assert_eq!(r(7, 2).ceil(), 4);
    assert_eq!(r(-7, 2).floor(), -4);
    assert_eq!(r(-7, 2).ceil(), -3);
    assert_eq!(r(4, 2).floor(), 2);
    assert_eq!(r(4, 2).ceil(), 2);
}

#[test]
fn ordering() {
    assert!(r(1, 3) < r(1, 2));
    assert!(r(-1, 2) < r(-1, 3));
    assert!(r(-1, 2) < Rational::ZERO);
    assert_eq!(r(2, 4).cmp(&r(1, 2)), std::cmp::Ordering::Equal);
    // values near the i128 boundary still compare correctly
    let big = Rational::new(i128::MAX, 3);
    let bigger = Rational::new(i128::MAX, 2);
    assert!(big < bigger);
}

#[test]
fn to_f64_roundtrip_small() {
    assert!((r(1, 2).to_f64() - 0.5).abs() < 1e-15);
    assert!((r(-3, 4).to_f64() + 0.75).abs() < 1e-15);
}

#[test]
fn gcd_lcm() {
    assert_eq!(gcd(12, 18), 6);
    assert_eq!(gcd(0, 5), 5);
    assert_eq!(gcd(5, 0), 5);
    assert_eq!(gcd(1, 1), 1);
    assert_eq!(lcm(4, 6), Some(12));
    assert_eq!(lcm(0, 6), Some(0));
    assert_eq!(lcm(u128::MAX, 2), None);
}

#[test]
fn overflow_is_detected_not_wrapped() {
    let huge = Rational::new(i128::MAX, 1);
    assert!(huge.checked_add(huge).is_none());
    assert!(huge.checked_mul(huge).is_none());
    // near misses succeed
    assert!(huge.checked_mul(Rational::ONE).is_some());
}

#[test]
fn half_integral_constants_detectable() {
    // The exact checks Lemma 7.2's verification relies on.
    for x in [Rational::ZERO, Rational::ONE_HALF, Rational::ONE] {
        assert!(
            x == Rational::ZERO || x == Rational::ONE_HALF || x == Rational::ONE,
            "exact membership must hold"
        );
    }
    assert_ne!(Rational::new(499_999, 1_000_000), Rational::ONE_HALF);
}

proptest! {
    #[test]
    fn prop_reduction_invariant(n in -10_000i128..10_000, d in 1i128..10_000) {
        let x = Rational::new(n, d);
        prop_assert!(x.den() > 0);
        if x.num() == 0 {
            prop_assert_eq!(x.den(), 1);
        } else {
            prop_assert_eq!(gcd(x.num().unsigned_abs(), x.den().unsigned_abs()), 1);
        }
    }

    #[test]
    fn prop_add_commutative(a in -1000i128..1000, b in 1i128..1000, c in -1000i128..1000, d in 1i128..1000) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!(x * y, y * x);
    }

    #[test]
    fn prop_add_associative(a in -100i128..100, b in 1i128..100,
                            c in -100i128..100, d in 1i128..100,
                            e in -100i128..100, f in 1i128..100) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        let z = Rational::new(e, f);
        prop_assert_eq!((x + y) + z, x + (y + z));
        prop_assert_eq!((x * y) * z, x * (y * z));
        prop_assert_eq!(x * (y + z), x * y + x * z);
    }

    #[test]
    fn prop_sub_add_inverse(a in -1000i128..1000, b in 1i128..1000, c in -1000i128..1000, d in 1i128..1000) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        prop_assert_eq!((x - y) + y, x);
    }

    #[test]
    fn prop_cmp_matches_f64(a in -1000i128..1000, b in 1i128..1000, c in -1000i128..1000, d in 1i128..1000) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        let fx = a as f64 / b as f64;
        let fy = c as f64 / d as f64;
        if (fx - fy).abs() > 1e-9 {
            prop_assert_eq!(x < y, fx < fy);
        }
    }

    #[test]
    fn prop_wide_mul_matches_native(a in -1_000_000_000i128..1_000_000_000, b in -1_000_000_000i128..1_000_000_000) {
        let (sign, (hi, lo)) = mul_i128_wide(a, b);
        prop_assert_eq!(hi, 0);
        let expect = a * b;
        prop_assert_eq!(i128::from(sign).signum(), expect.signum());
        prop_assert_eq!(lo, expect.unsigned_abs());
    }

    #[test]
    fn prop_floor_ceil_bracket(a in -10_000i128..10_000, b in 1i128..10_000) {
        let x = Rational::new(a, b);
        let fl = Rational::from_int(x.floor());
        let ce = Rational::from_int(x.ceil());
        prop_assert!(fl <= x && x <= ce);
        prop_assert!((ce - fl) <= Rational::ONE);
    }
}
