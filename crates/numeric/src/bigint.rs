//! Signed arbitrary-precision integers: a sign wrapped around [`BigUint`].

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::biguint::{BigUint, ParseBigUintError};

/// The sign of a [`BigInt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Minus,
    /// Zero.
    Zero,
    /// Strictly positive.
    Plus,
}

impl Sign {
    /// Flips the sign (`Zero` is its own negation).
    pub fn negate(self) -> Sign {
        match self {
            Sign::Minus => Sign::Plus,
            Sign::Zero => Sign::Zero,
            Sign::Plus => Sign::Minus,
        }
    }

    /// Sign of a product.
    pub fn product(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (a, b) if a == b => Sign::Plus,
            _ => Sign::Minus,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// Invariant: `sign == Sign::Zero` iff `magnitude.is_zero()`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    magnitude: BigUint,
}

impl BigInt {
    /// The value `0`.
    pub fn zero() -> Self {
        BigInt {
            sign: Sign::Zero,
            magnitude: BigUint::zero(),
        }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigInt {
            sign: Sign::Plus,
            magnitude: BigUint::one(),
        }
    }

    /// Builds from sign and magnitude (normalizing zero).
    pub fn from_sign_magnitude(sign: Sign, magnitude: BigUint) -> Self {
        if magnitude.is_zero() {
            BigInt::zero()
        } else {
            assert!(sign != Sign::Zero, "nonzero magnitude with Sign::Zero");
            BigInt { sign, magnitude }
        }
    }

    /// Builds a non-negative value from a [`BigUint`].
    pub fn from_biguint(magnitude: BigUint) -> Self {
        if magnitude.is_zero() {
            BigInt::zero()
        } else {
            BigInt {
                sign: Sign::Plus,
                magnitude,
            }
        }
    }

    /// Builds from an `i64`.
    pub fn from_i64(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt {
                sign: Sign::Plus,
                magnitude: BigUint::from_u64(v as u64),
            },
            Ordering::Less => BigInt {
                sign: Sign::Minus,
                magnitude: BigUint::from_u64(v.unsigned_abs()),
            },
        }
    }

    /// Builds from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        BigInt::from_biguint(BigUint::from_u64(v))
    }

    /// The sign.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude `|self|` as an unsigned integer.
    pub fn magnitude(&self) -> &BigUint {
        &self.magnitude
    }

    /// Consumes `self`, returning the magnitude.
    pub fn into_magnitude(self) -> BigUint {
        self.magnitude
    }

    /// Is this zero?
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Is this strictly negative?
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Minus
    }

    /// Is this strictly positive?
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Plus
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt::from_biguint(self.magnitude.clone())
    }

    /// Converts to `i64` if it fits.
    pub fn to_i64(&self) -> Option<i64> {
        let mag = self.magnitude.to_u64()?;
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Plus => i64::try_from(mag).ok(),
            Sign::Minus => {
                if mag <= i64::MAX as u64 + 1 {
                    Some((mag as i128).checked_neg()? as i64)
                } else {
                    None
                }
            }
        }
    }

    /// Nearest `f64`.
    pub fn to_f64(&self) -> f64 {
        let m = self.magnitude.to_f64();
        match self.sign {
            Sign::Minus => -m,
            _ => m,
        }
    }

    fn add_ref(&self, other: &BigInt) -> BigInt {
        match (self.sign, other.sign) {
            (Sign::Zero, _) => other.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_sign_magnitude(a, &self.magnitude + &other.magnitude),
            _ => match self.magnitude.cmp(&other.magnitude) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => {
                    BigInt::from_sign_magnitude(self.sign, &self.magnitude - &other.magnitude)
                }
                Ordering::Less => {
                    BigInt::from_sign_magnitude(other.sign, &other.magnitude - &self.magnitude)
                }
            },
        }
    }

    fn mul_ref(&self, other: &BigInt) -> BigInt {
        let sign = self.sign.product(other.sign);
        if sign == Sign::Zero {
            BigInt::zero()
        } else {
            BigInt {
                sign,
                magnitude: &self.magnitude * &other.magnitude,
            }
        }
    }

    /// The signed difference `a - b` of two unsigned values, computed
    /// by reference — neither operand is cloned, only the (smaller)
    /// result magnitude is allocated.
    pub fn signed_diff(a: &BigUint, b: &BigUint) -> BigInt {
        match a.cmp(b) {
            Ordering::Equal => BigInt::zero(),
            #[expect(
                clippy::expect_used,
                reason = "the comparison arm proves a > b, so the subtraction cannot underflow"
            )]
            Ordering::Greater => {
                BigInt::from_sign_magnitude(Sign::Plus, a.checked_sub(b).expect("a > b"))
            }
            #[expect(
                clippy::expect_used,
                reason = "the comparison arm proves b > a, so the subtraction cannot underflow"
            )]
            Ordering::Less => {
                BigInt::from_sign_magnitude(Sign::Minus, b.checked_sub(a).expect("b > a"))
            }
        }
    }

    /// Truncated division: `(q, r)` with `self = q·d + r`, `|r| < |d|`,
    /// and `r` having the sign of `self` (or zero).
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn div_rem(&self, d: &BigInt) -> (BigInt, BigInt) {
        assert!(!d.is_zero(), "division by zero");
        let (q_mag, r_mag) = self.magnitude.div_rem(&d.magnitude);
        let q_sign = self.sign.product(d.sign);
        let q = if q_mag.is_zero() {
            BigInt::zero()
        } else {
            BigInt::from_sign_magnitude(q_sign, q_mag)
        };
        let r = if r_mag.is_zero() {
            BigInt::zero()
        } else {
            BigInt::from_sign_magnitude(self.sign, r_mag)
        };
        (q, r)
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.sign, other.sign) {
            (Sign::Minus, Sign::Minus) => other.magnitude.cmp(&self.magnitude),
            (Sign::Minus, _) => Ordering::Less,
            (Sign::Zero, Sign::Minus) => Ordering::Greater,
            (Sign::Zero, Sign::Zero) => Ordering::Equal,
            (Sign::Zero, Sign::Plus) => Ordering::Less,
            (Sign::Plus, Sign::Plus) => self.magnitude.cmp(&other.magnitude),
            (Sign::Plus, _) => Ordering::Greater,
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            sign: self.sign.negate(),
            magnitude: self.magnitude.clone(),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            sign: self.sign.negate(),
            magnitude: self.magnitude,
        }
    }
}

macro_rules! forward_int_binop {
    ($trait:ident, $method:ident, $impl_expr:expr) => {
        impl $trait<&BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                let f: fn(&BigInt, &BigInt) -> BigInt = $impl_expr;
                f(self, rhs)
            }
        }
        impl $trait<BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                $trait::$method(&self, &rhs)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                $trait::$method(&self, rhs)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                $trait::$method(self, &rhs)
            }
        }
    };
}

forward_int_binop!(Add, add, |a, b| a.add_ref(b));
forward_int_binop!(Sub, sub, |a, b| a.add_ref(&-b));
forward_int_binop!(Mul, mul, |a, b| a.mul_ref(b));

/// `&BigInt + &BigUint` without converting (or cloning) the unsigned side.
impl Add<&BigUint> for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigUint) -> BigInt {
        match self.sign {
            Sign::Zero => BigInt::from_biguint(rhs.clone()),
            Sign::Plus => BigInt::from_sign_magnitude(Sign::Plus, &self.magnitude + rhs),
            Sign::Minus => BigInt::signed_diff(rhs, &self.magnitude),
        }
    }
}

/// `&BigInt - &BigUint` without converting (or cloning) the unsigned side.
impl Sub<&BigUint> for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigUint) -> BigInt {
        match self.sign {
            Sign::Zero => -BigInt::from_biguint(rhs.clone()),
            Sign::Minus => BigInt::from_sign_magnitude(Sign::Minus, &self.magnitude + rhs),
            Sign::Plus => BigInt::signed_diff(&self.magnitude, rhs),
        }
    }
}

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = self.add_ref(rhs);
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = self.add_ref(&-rhs);
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        BigInt::from_i64(v)
    }
}

impl From<BigUint> for BigInt {
    fn from(v: BigUint) -> Self {
        BigInt::from_biguint(v)
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Minus {
            write!(f, "-{}", self.magnitude)
        } else {
            write!(f, "{}", self.magnitude)
        }
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl FromStr for BigInt {
    type Err = ParseBigUintError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(rest) = s.strip_prefix('-') {
            let mag: BigUint = rest.parse()?;
            Ok(BigInt::from_sign_magnitude(
                if mag.is_zero() {
                    Sign::Zero
                } else {
                    Sign::Minus
                },
                mag,
            ))
        } else {
            let stripped = s.strip_prefix('+').unwrap_or(s);
            Ok(BigInt::from_biguint(stripped.parse()?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> BigInt {
        BigInt::from_i64(v)
    }

    #[test]
    fn sign_invariant() {
        assert!(int(0).is_zero());
        assert_eq!(int(0), -int(0));
        assert!(int(-5).is_negative());
        assert!(int(5).is_positive());
    }

    #[test]
    fn arithmetic_matches_i64() {
        for a in [-7i64, -1, 0, 3, 100] {
            for b in [-13i64, -2, 0, 5, 42] {
                assert_eq!(int(a) + int(b), int(a + b), "{a}+{b}");
                assert_eq!(int(a) - int(b), int(a - b), "{a}-{b}");
                assert_eq!(int(a) * int(b), int(a * b), "{a}*{b}");
                if b != 0 {
                    let (q, r) = int(a).div_rem(&int(b));
                    assert_eq!(q, int(a / b), "{a}/{b}");
                    assert_eq!(r, int(a % b), "{a}%{b}");
                }
            }
        }
    }

    #[test]
    fn ordering_across_signs() {
        assert!(int(-10) < int(-2));
        assert!(int(-2) < int(0));
        assert!(int(0) < int(7));
        assert!(int(3) < int(7));
    }

    #[test]
    fn display_and_parse() {
        assert_eq!(int(-42).to_string(), "-42");
        assert_eq!("-42".parse::<BigInt>().unwrap(), int(-42));
        assert_eq!("+42".parse::<BigInt>().unwrap(), int(42));
        assert_eq!("-0".parse::<BigInt>().unwrap(), int(0));
        assert!("--1".parse::<BigInt>().is_err());
    }

    #[test]
    fn signed_diff_matches_subtraction() {
        for a in [0u64, 1, 5, 1000] {
            for b in [0u64, 1, 7, 999] {
                assert_eq!(
                    BigInt::signed_diff(&BigUint::from_u64(a), &BigUint::from_u64(b)),
                    int(a as i64 - b as i64),
                    "{a} - {b}"
                );
            }
        }
        let big = BigUint::from_u128(1u128 << 100);
        assert_eq!(BigInt::signed_diff(&big, &big), BigInt::zero());
    }

    #[test]
    fn mixed_biguint_ops() {
        let u = BigUint::from_u64(10);
        assert_eq!(&int(3) + &u, int(13));
        assert_eq!(&int(-3) + &u, int(7));
        assert_eq!(&int(-30) + &u, int(-20));
        assert_eq!(&int(0) + &u, int(10));
        assert_eq!(&int(3) - &u, int(-7));
        assert_eq!(&int(-3) - &u, int(-13));
        assert_eq!(&int(30) - &u, int(20));
        assert_eq!(&int(0) - &u, int(-10));
    }

    #[test]
    fn to_i64_bounds() {
        assert_eq!(int(i64::MIN).to_i64(), Some(i64::MIN));
        assert_eq!(int(i64::MAX).to_i64(), Some(i64::MAX));
        let too_big = BigInt::from_biguint(BigUint::from_u128(1u128 << 80));
        assert_eq!(too_big.to_i64(), None);
    }
}
