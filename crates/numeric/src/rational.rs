//! Exact rational numbers, normalized to lowest terms with positive
//! denominator. These are the value type of every Shapley computation in
//! the workspace.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::bigint::{BigInt, Sign};
use crate::biguint::{BigUint, ParseBigUintError};

/// An exact rational number `num / den` with `den > 0` and
/// `gcd(|num|, den) = 1`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigRational {
    num: BigInt,
    den: BigUint,
}

impl BigRational {
    /// The value `0`.
    pub fn zero() -> Self {
        BigRational {
            num: BigInt::zero(),
            den: BigUint::one(),
        }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigRational {
            num: BigInt::one(),
            den: BigUint::one(),
        }
    }

    /// Builds `num / den`, normalizing.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        let num = if den.is_negative() { -num } else { num };
        Self::from_parts(num, den.into_magnitude())
    }

    /// Builds `num / den` from parts already known to be in lowest
    /// terms — no gcd is computed. The Shapley reductions over
    /// `lcm(1..m)` ([`crate::ShapleyWeights::reduce`]) and over `m!`
    /// ([`crate::FactorialTable::reduce_over_factorial`]) produce their
    /// parts coprime by construction and skip the normalization cost.
    ///
    /// # Panics
    /// Panics if `den` is zero; debug builds verify coprimality.
    pub fn from_coprime_parts(num: BigInt, den: BigUint) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        if num.is_zero() {
            return Self::zero();
        }
        debug_assert!(
            num.magnitude().gcd(&den).is_one(),
            "from_coprime_parts requires reduced parts"
        );
        BigRational { num, den }
    }

    /// Builds `num / den` from a signed numerator and unsigned denominator.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn from_parts(num: BigInt, den: BigUint) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        if num.is_zero() {
            return Self::zero();
        }
        let g = num.magnitude().gcd(&den);
        if g.is_one() {
            BigRational { num, den }
        } else {
            let (nm, _) = num.magnitude().div_rem(&g);
            let (dn, _) = den.div_rem(&g);
            BigRational {
                num: BigInt::from_sign_magnitude(num.sign(), nm),
                den: dn,
            }
        }
    }

    /// Builds from an integer.
    pub fn from_int(v: impl Into<BigInt>) -> Self {
        BigRational {
            num: v.into(),
            den: BigUint::one(),
        }
    }

    /// Builds `p / q` from machine integers.
    ///
    /// # Panics
    /// Panics if `q == 0`.
    pub fn from_i64_ratio(p: i64, q: i64) -> Self {
        Self::new(BigInt::from_i64(p), BigInt::from_i64(q))
    }

    /// The (normalized) numerator.
    pub fn numerator(&self) -> &BigInt {
        &self.num
    }

    /// The (normalized, positive) denominator.
    pub fn denominator(&self) -> &BigUint {
        &self.den
    }

    /// Is this zero?
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Is this strictly negative?
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Is this strictly positive?
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// The sign of the value.
    pub fn sign(&self) -> Sign {
        self.num.sign()
    }

    /// Absolute value.
    pub fn abs(&self) -> BigRational {
        BigRational {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn reciprocal(&self) -> BigRational {
        assert!(!self.is_zero(), "reciprocal of zero");
        BigRational {
            num: BigInt::from_sign_magnitude(self.num.sign(), self.den.clone()),
            den: self.num.magnitude().clone(),
        }
    }

    /// The *exact* rational value of a finite `f64`.
    ///
    /// Every finite double is a dyadic rational `±mantissa · 2^exp`, so
    /// the conversion is lossless: `from_f64(v).unwrap().to_f64() == v`.
    /// Returns `None` for NaN and the infinities. This is the bridge
    /// between user-facing `f64` probabilities and the exact
    /// [`BigRational`] arithmetic of the probability evaluation domain.
    pub fn from_f64(v: f64) -> Option<Self> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Self::zero());
        }
        let bits = v.to_bits();
        let negative = bits >> 63 == 1;
        let exp_bits = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        // IEEE 754 binary64: normal values carry an implicit leading
        // bit; subnormals do not and share the minimum exponent.
        let (mantissa, exp) = if exp_bits == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1u64 << 52), exp_bits - 1075)
        };
        let mag = BigUint::from_u64(mantissa);
        let (num_mag, den) = if exp >= 0 {
            (&mag << exp as usize, BigUint::one())
        } else {
            (mag, BigUint::one() << (-exp) as usize)
        };
        let sign = if negative { Sign::Minus } else { Sign::Plus };
        Some(Self::from_parts(
            BigInt::from_sign_magnitude(sign, num_mag),
            den,
        ))
    }

    /// Nearest `f64`.
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        // Scale so both parts stay within f64 range.
        let nb = self.num.magnitude().bit_len() as i64;
        let db = self.den.bit_len() as i64;
        let excess_n = (nb - 900).max(0) as usize;
        let excess_d = (db - 900).max(0) as usize;
        let shift = excess_n.min(excess_d);
        let n = (self.num.magnitude() >> shift).to_f64();
        let d = (&self.den >> shift).to_f64();
        let mut v = n / d;
        // If one side still overflowed, fall back to a log-space estimate.
        if !v.is_finite() || v == 0.0 {
            let ln = self.num.magnitude().ln_f64() - self.den.ln_f64();
            v = ln.exp();
        }
        if self.num.is_negative() {
            -v
        } else {
            v
        }
    }

    /// Natural logarithm of the absolute value, as `f64`.
    pub fn ln_abs_f64(&self) -> f64 {
        self.num.magnitude().ln_f64() - self.den.ln_f64()
    }

    fn add_ref(&self, other: &BigRational) -> BigRational {
        // num1/den1 + num2/den2 = (num1·den2 + num2·den1)/(den1·den2)
        let n = &self.num * BigInt::from_biguint(other.den.clone())
            + &other.num * BigInt::from_biguint(self.den.clone());
        Self::from_parts(n, &self.den * &other.den)
    }

    fn mul_ref(&self, other: &BigRational) -> BigRational {
        Self::from_parts(&self.num * &other.num, &self.den * &other.den)
    }

    fn div_ref(&self, other: &BigRational) -> BigRational {
        self.mul_ref(&other.reciprocal())
    }

    /// Raises to an integer power (negative exponents invert).
    ///
    /// # Panics
    /// Panics on `0.pow(negative)`.
    pub fn pow(&self, exp: i32) -> BigRational {
        if exp == 0 {
            return BigRational::one();
        }
        let base = if exp < 0 {
            self.reciprocal()
        } else {
            self.clone()
        };
        let e = exp.unsigned_abs();
        let num_mag = base.num.magnitude().pow(e);
        let sign = if base.num.is_negative() && e % 2 == 1 {
            Sign::Minus
        } else {
            Sign::Plus
        };
        BigRational {
            num: BigInt::from_sign_magnitude(sign, num_mag),
            den: base.den.pow(e),
        }
    }
}

impl Default for BigRational {
    fn default() -> Self {
        BigRational::zero()
    }
}

impl Ord for BigRational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  (b,d > 0)  ⟺  a·d vs c·b
        let lhs = &self.num * BigInt::from_biguint(other.den.clone());
        let rhs = &other.num * BigInt::from_biguint(self.den.clone());
        lhs.cmp(&rhs)
    }
}

impl PartialOrd for BigRational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Neg for &BigRational {
    type Output = BigRational;
    fn neg(self) -> BigRational {
        BigRational {
            num: -&self.num,
            den: self.den.clone(),
        }
    }
}

impl Neg for BigRational {
    type Output = BigRational;
    fn neg(self) -> BigRational {
        BigRational {
            num: -self.num,
            den: self.den,
        }
    }
}

macro_rules! forward_rat_binop {
    ($trait:ident, $method:ident, $impl_expr:expr) => {
        impl $trait<&BigRational> for &BigRational {
            type Output = BigRational;
            fn $method(self, rhs: &BigRational) -> BigRational {
                let f: fn(&BigRational, &BigRational) -> BigRational = $impl_expr;
                f(self, rhs)
            }
        }
        impl $trait<BigRational> for BigRational {
            type Output = BigRational;
            fn $method(self, rhs: BigRational) -> BigRational {
                $trait::$method(&self, &rhs)
            }
        }
        impl $trait<&BigRational> for BigRational {
            type Output = BigRational;
            fn $method(self, rhs: &BigRational) -> BigRational {
                $trait::$method(&self, rhs)
            }
        }
        impl $trait<BigRational> for &BigRational {
            type Output = BigRational;
            fn $method(self, rhs: BigRational) -> BigRational {
                $trait::$method(self, &rhs)
            }
        }
    };
}

forward_rat_binop!(Add, add, |a, b| a.add_ref(b));
forward_rat_binop!(Sub, sub, |a, b| a.add_ref(&-b));
forward_rat_binop!(Mul, mul, |a, b| a.mul_ref(b));
forward_rat_binop!(Div, div, |a, b| a.div_ref(b));

impl AddAssign<&BigRational> for BigRational {
    fn add_assign(&mut self, rhs: &BigRational) {
        *self = self.add_ref(rhs);
    }
}

impl SubAssign<&BigRational> for BigRational {
    fn sub_assign(&mut self, rhs: &BigRational) {
        *self = self.add_ref(&-rhs);
    }
}

impl From<i64> for BigRational {
    fn from(v: i64) -> Self {
        BigRational::from_int(BigInt::from_i64(v))
    }
}

impl From<BigInt> for BigRational {
    fn from(v: BigInt) -> Self {
        BigRational::from_int(v)
    }
}

impl From<BigUint> for BigRational {
    fn from(v: BigUint) -> Self {
        BigRational::from_int(BigInt::from_biguint(v))
    }
}

impl fmt::Display for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigRational({self})")
    }
}

/// Reads an integer `n`, a fraction `n/d`, or a finite decimal
/// `[±]i.f` (either side of the point may be empty, not both), all
/// exactly: `"0.3"` is 3/10, not the double nearest to it. Exponents
/// (`1e-3`) are rejected.
impl FromStr for BigRational {
    type Err = ParseBigUintError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let invalid = || ParseBigUintError(s.to_string());
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.parse()?;
            let den: BigUint = d.parse()?;
            if den.is_zero() {
                return Err(invalid());
            }
            return Ok(BigRational::from_parts(num, den));
        }
        let Some((int, frac)) = s.split_once('.') else {
            return Ok(BigRational::from_int(s.parse::<BigInt>()?));
        };
        let (negative, int) = match int.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, int.strip_prefix('+').unwrap_or(int)),
        };
        if int.is_empty() && frac.is_empty() {
            return Err(invalid());
        }
        // Digits only on both sides: a sign, a second point or an
        // exponent fails the `BigUint` parse.
        let digits: BigUint = format!("{int}{frac}").parse().map_err(|_| invalid())?;
        let places = u32::try_from(frac.len()).map_err(|_| invalid())?;
        let num = BigInt::from_biguint(digits);
        let num = if negative { -num } else { num };
        Ok(BigRational::from_parts(
            num,
            BigUint::from_u64(10).pow(places),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(p: i64, q: i64) -> BigRational {
        BigRational::from_i64_ratio(p, q)
    }

    #[test]
    fn normalization() {
        assert_eq!(rat(2, 4), rat(1, 2));
        assert_eq!(rat(-2, 4), rat(1, -2));
        assert_eq!(rat(0, 5), BigRational::zero());
        assert_eq!(rat(6, -4).to_string(), "-3/2");
    }

    #[test]
    fn field_operations() {
        assert_eq!(rat(1, 2) + rat(1, 3), rat(5, 6));
        assert_eq!(rat(1, 2) - rat(1, 3), rat(1, 6));
        assert_eq!(rat(2, 3) * rat(3, 4), rat(1, 2));
        assert_eq!(rat(2, 3) / rat(4, 3), rat(1, 2));
        assert_eq!(rat(-3, 28) + rat(3, 28), BigRational::zero());
    }

    #[test]
    fn running_example_sum_is_one() {
        // The eight Shapley values of Example 2.3 sum to 1.
        let values = [
            rat(-3, 28),
            rat(-2, 35),
            rat(0, 1),
            rat(37, 210),
            rat(37, 210),
            rat(27, 140),
            rat(13, 42),
            rat(13, 42),
        ];
        let sum = values.iter().fold(BigRational::zero(), |acc, v| acc + v);
        assert_eq!(sum, BigRational::one());
    }

    #[test]
    fn ordering() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < rat(-1, 3));
        assert!(rat(-1, 2) < rat(1, 100));
    }

    #[test]
    fn reciprocal_and_pow() {
        assert_eq!(rat(2, 3).reciprocal(), rat(3, 2));
        assert_eq!(rat(-2, 3).reciprocal(), rat(-3, 2));
        assert_eq!(rat(2, 3).pow(3), rat(8, 27));
        assert_eq!(rat(2, 3).pow(-2), rat(9, 4));
        assert_eq!(rat(-2, 3).pow(3), rat(-8, 27));
        assert_eq!(rat(5, 7).pow(0), BigRational::one());
    }

    #[test]
    fn to_f64() {
        assert!((rat(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
        assert!((rat(-13, 42).to_f64() + 13.0 / 42.0).abs() < 1e-15);
        // Tiny value: n!n!/(2n+1)! for n = 64 is about 2^-126.
        let f = crate::combinatorics::factorial(64);
        let v = BigRational::from_parts(
            BigInt::from_biguint(&f * &f),
            crate::combinatorics::factorial(129),
        );
        let approx = v.to_f64();
        assert!(approx > 0.0 && approx < 2f64.powi(-120), "{approx}");
    }

    #[test]
    fn from_f64_is_exact() {
        assert_eq!(BigRational::from_f64(0.0), Some(BigRational::zero()));
        assert_eq!(BigRational::from_f64(1.0), Some(BigRational::one()));
        assert_eq!(BigRational::from_f64(0.5), Some(rat(1, 2)));
        assert_eq!(BigRational::from_f64(-0.75), Some(rat(-3, 4)));
        assert_eq!(BigRational::from_f64(3.0), Some(rat(3, 1)));
        assert_eq!(BigRational::from_f64(f64::NAN), None);
        assert_eq!(BigRational::from_f64(f64::INFINITY), None);
        // Round-trips exactly, including non-dyadic-looking literals
        // (0.1 is really 3602879701896397/2^55) and extreme magnitudes.
        for v in [
            0.1,
            0.3,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            123456.789,
        ] {
            let r = BigRational::from_f64(v).unwrap();
            assert_eq!(r.to_f64(), v, "{v}");
        }
    }

    #[test]
    fn parse_round_trip() {
        for s in ["0", "-3/28", "37/210", "5", "-7"] {
            let v: BigRational = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!("1/0".parse::<BigRational>().is_err());
    }

    #[test]
    fn decimals_parse_exactly() {
        for (text, (p, q)) in [
            ("0.30", (3, 10)),
            ("1.0", (1, 1)),
            ("7/20", (7, 20)),
            ("0.5", (1, 2)),
            ("-2.25", (-9, 4)),
            (".125", (1, 8)),
            ("3.", (3, 1)),
        ] {
            assert_eq!(text.parse::<BigRational>(), Ok(rat(p, q)), "{text}");
        }
        for bad in [".", "0.3.1", "1e-3", "-.", "0.-3", "--1.0", "0.3/1", ""] {
            assert!(bad.parse::<BigRational>().is_err(), "{bad}");
        }
    }
}
