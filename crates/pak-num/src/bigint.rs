//! Signed arbitrary-precision integers.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use core::str::FromStr;

use crate::biguint::BigUint;
use crate::parse::ParseNumberError;

/// The sign of a [`BigInt`].
///
/// Zero always carries [`Sign::Zero`]; the sign is part of the canonical
/// representation, so two equal values always compare equal structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    /// Multiplies two signs.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // sign algebra, not numeric Mul
    #[inline]
    pub fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (Sign::Positive, Sign::Positive) | (Sign::Negative, Sign::Negative) => Sign::Positive,
            _ => Sign::Negative,
        }
    }

    /// Negates the sign.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // sign algebra, not numeric Neg
    #[inline]
    pub fn neg(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }
}

/// A signed arbitrary-precision integer (sign + magnitude).
///
/// # Examples
///
/// ```
/// use pak_num::BigInt;
///
/// let a = BigInt::from(-7i64);
/// let b = BigInt::from(10i64);
/// assert_eq!((&a + &b).to_string(), "3");
/// assert_eq!((&a * &b).to_string(), "-70");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    magnitude: BigUint,
}

impl BigInt {
    /// The value `0`.
    #[must_use]
    #[inline]
    pub fn zero() -> Self {
        BigInt {
            sign: Sign::Zero,
            magnitude: BigUint::zero(),
        }
    }

    /// The value `1`.
    #[must_use]
    #[inline]
    pub fn one() -> Self {
        BigInt {
            sign: Sign::Positive,
            magnitude: BigUint::one(),
        }
    }

    /// Builds a value from a sign and magnitude, normalising zero.
    #[must_use]
    #[inline]
    pub fn from_sign_magnitude(sign: Sign, magnitude: BigUint) -> Self {
        if magnitude.is_zero() {
            BigInt::zero()
        } else {
            let sign = if sign == Sign::Zero {
                Sign::Positive
            } else {
                sign
            };
            BigInt { sign, magnitude }
        }
    }

    /// The sign of the value.
    #[must_use]
    #[inline]
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude (absolute value) of the value.
    #[must_use]
    #[inline]
    pub fn magnitude(&self) -> &BigUint {
        &self.magnitude
    }

    /// Returns `true` if the value is zero.
    #[must_use]
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Returns `true` if the value is strictly positive.
    #[must_use]
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    /// Returns `true` if the value is strictly negative.
    #[must_use]
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> BigInt {
        BigInt::from_sign_magnitude(Sign::Positive, self.magnitude.clone())
    }

    /// Lossy conversion to `f64`.
    #[must_use]
    #[inline]
    pub fn to_f64(&self) -> f64 {
        let m = self.magnitude.to_f64();
        match self.sign {
            Sign::Negative => -m,
            _ => m,
        }
    }

    /// Returns the value as `i64` if it fits.
    #[must_use]
    pub fn to_i64(&self) -> Option<i64> {
        let m = self.magnitude.to_u64()?;
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => i64::try_from(m).ok(),
            Sign::Negative => {
                if m == (1u64 << 63) {
                    Some(i64::MIN)
                } else {
                    i64::try_from(m).ok().map(|v| -v)
                }
            }
        }
    }

    /// Greatest common divisor of the magnitudes.
    #[must_use]
    pub fn gcd(&self, other: &Self) -> BigUint {
        self.magnitude.gcd(&other.magnitude)
    }

    /// Raises the value to the power `exp`.
    #[must_use]
    pub fn pow(&self, exp: u32) -> BigInt {
        let sign = if self.is_zero() {
            if exp == 0 {
                Sign::Positive
            } else {
                Sign::Zero
            }
        } else if self.sign == Sign::Negative && exp % 2 == 1 {
            Sign::Negative
        } else {
            Sign::Positive
        };
        BigInt::from_sign_magnitude(sign, self.magnitude.pow(exp))
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

impl From<BigUint> for BigInt {
    fn from(v: BigUint) -> Self {
        BigInt::from_sign_magnitude(Sign::Positive, v)
    }
}

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> Self {
                BigInt::from_sign_magnitude(Sign::Positive, BigUint::from(v))
            }
        }
    )*};
}
impl_from_unsigned!(u8, u16, u32, u64, u128, usize);

macro_rules! impl_from_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> Self {
                if v < 0 {
                    BigInt::from_sign_magnitude(Sign::Negative, BigUint::from(v.unsigned_abs()))
                } else {
                    BigInt::from_sign_magnitude(Sign::Positive, BigUint::from(v.unsigned_abs()))
                }
            }
        }
    )*};
}
impl_from_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, i128 => u128);

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.sign.cmp(&other.sign) {
            Ordering::Equal => match self.sign {
                Sign::Zero => Ordering::Equal,
                Sign::Positive => self.magnitude.cmp(&other.magnitude),
                Sign::Negative => other.magnitude.cmp(&self.magnitude),
            },
            other_ord => other_ord,
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

impl Neg for &BigInt {
    type Output = BigInt;
    #[inline]
    fn neg(self) -> BigInt {
        BigInt {
            sign: self.sign.neg(),
            magnitude: self.magnitude.clone(),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            sign: self.sign.neg(),
            magnitude: self.magnitude,
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        match (self.sign, rhs.sign) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_sign_magnitude(a, &self.magnitude + &rhs.magnitude),
            _ => {
                // Opposite signs: subtract the smaller magnitude from the larger.
                match self.magnitude.cmp(&rhs.magnitude) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => {
                        BigInt::from_sign_magnitude(self.sign, &self.magnitude - &rhs.magnitude)
                    }
                    Ordering::Less => {
                        BigInt::from_sign_magnitude(rhs.sign, &rhs.magnitude - &self.magnitude)
                    }
                }
            }
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    #[inline]
    fn mul(self, rhs: &BigInt) -> BigInt {
        BigInt::from_sign_magnitude(self.sign.mul(rhs.sign), &self.magnitude * &rhs.magnitude)
    }
}

impl Mul<&BigUint> for &BigInt {
    type Output = BigInt;
    /// Scales by an unsigned value without round-tripping it through a
    /// signed wrapper — the hot cross-multiplication in `Rational` uses
    /// this to stay clone-free.
    #[inline]
    fn mul(self, rhs: &BigUint) -> BigInt {
        if rhs.is_zero() {
            return BigInt::zero();
        }
        BigInt::from_sign_magnitude(self.sign, &self.magnitude * rhs)
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    /// Truncated division (rounds toward zero), matching Rust's `/` on
    /// primitive integers.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: &BigInt) -> BigInt {
        let (q, _) = self.magnitude.div_rem(&rhs.magnitude);
        BigInt::from_sign_magnitude(self.sign.mul(rhs.sign), q)
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    /// Remainder with the sign of the dividend, matching Rust's `%` on
    /// primitive integers.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn rem(self, rhs: &BigInt) -> BigInt {
        let (_, r) = self.magnitude.div_rem(&rhs.magnitude);
        BigInt::from_sign_magnitude(self.sign, r)
    }
}

macro_rules! forward_owned_binop_int {
    ($($op:ident :: $method:ident),*) => {$(
        impl $op for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                (&self).$method(&rhs)
            }
        }
        impl $op<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                (&self).$method(rhs)
            }
        }
        impl $op<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                self.$method(&rhs)
            }
        }
    )*};
}
forward_owned_binop_int!(Add::add, Sub::sub, Mul::mul, Div::div, Rem::rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

// ---------------------------------------------------------------------------
// Formatting and parsing
// ---------------------------------------------------------------------------

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.magnitude.fmt_signed(f, self.sign != Sign::Negative)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl FromStr for BigInt {
    type Err = ParseNumberError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseNumberError::Empty);
        }
        let (sign, digits) = match s.strip_prefix('-') {
            Some(rest) => (Sign::Negative, rest),
            None => (Sign::Positive, s.strip_prefix('+').unwrap_or(s)),
        };
        let magnitude: BigUint = digits.parse()?;
        Ok(BigInt::from_sign_magnitude(sign, magnitude))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn sign_algebra() {
        assert_eq!(Sign::Positive.mul(Sign::Negative), Sign::Negative);
        assert_eq!(Sign::Negative.mul(Sign::Negative), Sign::Positive);
        assert_eq!(Sign::Zero.mul(Sign::Negative), Sign::Zero);
        assert_eq!(Sign::Negative.neg(), Sign::Positive);
    }

    #[test]
    fn zero_is_normalised() {
        let z = BigInt::from_sign_magnitude(Sign::Negative, BigUint::zero());
        assert_eq!(z, BigInt::zero());
        assert_eq!(z.sign(), Sign::Zero);
    }

    #[test]
    fn signed_addition_all_sign_combinations() {
        assert_eq!(&i(5) + &i(3), i(8));
        assert_eq!(&i(-5) + &i(-3), i(-8));
        assert_eq!(&i(5) + &i(-3), i(2));
        assert_eq!(&i(-5) + &i(3), i(-2));
        assert_eq!(&i(5) + &i(-5), i(0));
        assert_eq!(&i(0) + &i(-3), i(-3));
    }

    #[test]
    fn subtraction_and_negation() {
        assert_eq!(&i(3) - &i(10), i(-7));
        assert_eq!(-&i(7), i(-7));
        assert_eq!(-&i(0), i(0));
    }

    #[test]
    fn multiplication_signs() {
        assert_eq!(&i(-4) * &i(6), i(-24));
        assert_eq!(&i(-4) * &i(-6), i(24));
        assert_eq!(&i(-4) * &i(0), i(0));
    }

    #[test]
    fn division_truncates_toward_zero() {
        assert_eq!(&i(7) / &i(2), i(3));
        assert_eq!(&i(-7) / &i(2), i(-3));
        assert_eq!(&i(7) / &i(-2), i(-3));
        assert_eq!(&i(-7) % &i(2), i(-1));
        assert_eq!(&i(7) % &i(-2), i(1));
    }

    #[test]
    fn ordering_across_signs() {
        assert!(i(-10) < i(-2));
        assert!(i(-1) < i(0));
        assert!(i(0) < i(1));
        assert!(i(2) < i(10));
    }

    #[test]
    fn to_i64_bounds() {
        assert_eq!(i(i128::from(i64::MAX)).to_i64(), Some(i64::MAX));
        assert_eq!(i(i128::from(i64::MIN)).to_i64(), Some(i64::MIN));
        assert_eq!(i(i128::from(i64::MAX) + 1).to_i64(), None);
        assert_eq!(i(i128::from(i64::MIN) - 1).to_i64(), None);
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in ["-123456789012345678901234567890", "0", "42", "-1"] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert_eq!("+17".parse::<BigInt>().unwrap(), i(17));
        assert!("--5".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
    }

    #[test]
    fn pow_signs() {
        assert_eq!(i(-2).pow(3), i(-8));
        assert_eq!(i(-2).pow(4), i(16));
        assert_eq!(i(0).pow(0), i(1));
        assert_eq!(i(0).pow(3), i(0));
    }

    #[test]
    fn to_f64_signed() {
        assert_eq!(i(-12).to_f64(), -12.0);
        assert_eq!(i(0).to_f64(), 0.0);
    }
}
