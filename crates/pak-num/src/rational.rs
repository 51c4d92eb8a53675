//! Exact rational numbers.

use core::cmp::Ordering;
use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use core::str::FromStr;

use crate::bigint::{BigInt, Sign};
use crate::biguint::BigUint;
use crate::limbs::gcd_u64;
use crate::parse::ParseNumberError;

/// An exact rational number.
///
/// The value is always stored in lowest terms with a strictly positive
/// denominator; the sign lives on the numerator. Equality and ordering are
/// therefore structural and exact.
///
/// `Rational` is the numeric workhorse of the `pak` workspace: every
/// probability in a purely probabilistic system, every posterior belief, and
/// every theorem check can be computed with it, so statements like
/// Theorem 6.2 of *Probably Approximately Knowing* — an equality between two
/// derived quantities — are verified with `==`, not with an epsilon.
///
/// # Examples
///
/// ```
/// use pak_num::Rational;
///
/// let p: Rational = "0.95".parse()?;
/// assert_eq!(p, Rational::from_ratio(19, 20));
/// assert_eq!(p.to_f64(), 0.95);
/// # Ok::<(), pak_num::ParseNumberError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    /// Numerator; carries the sign.
    num: BigInt,
    /// Denominator; always strictly positive.
    den: BigUint,
}

impl Rational {
    /// The value `0`.
    #[must_use]
    #[inline]
    pub fn zero() -> Self {
        Rational {
            num: BigInt::zero(),
            den: BigUint::one(),
        }
    }

    /// The value `1`.
    #[must_use]
    #[inline]
    pub fn one() -> Self {
        Rational {
            num: BigInt::one(),
            den: BigUint::one(),
        }
    }

    /// Creates a rational from arbitrary-precision numerator and denominator.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNumberError::ZeroDenominator`] if `den` is zero.
    ///
    /// ```
    /// use pak_num::{BigInt, Rational};
    /// let half = Rational::new(BigInt::from(2), BigInt::from(4))?;
    /// assert_eq!(half, Rational::from_ratio(1, 2));
    /// assert!(Rational::new(BigInt::from(1), BigInt::zero()).is_err());
    /// # Ok::<(), pak_num::ParseNumberError>(())
    /// ```
    pub fn new(num: BigInt, den: BigInt) -> Result<Self, ParseNumberError> {
        if den.is_zero() {
            return Err(ParseNumberError::ZeroDenominator);
        }
        let sign = num.sign().mul(den.sign());
        Ok(Self::normalised(
            BigInt::from_sign_magnitude(sign, num.magnitude().clone()),
            den.magnitude().clone(),
        ))
    }

    /// Creates a rational from machine integers.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`. Use [`Rational::new`] for fallible construction.
    ///
    /// ```
    /// use pak_num::Rational;
    /// assert_eq!(Rational::from_ratio(-6, 4).to_string(), "-3/2");
    /// ```
    #[must_use]
    pub fn from_ratio(num: i64, den: i64) -> Self {
        assert!(
            den != 0,
            "Rational::from_ratio denominator must be non-zero"
        );
        Self::new(BigInt::from(num), BigInt::from(den)).expect("den checked non-zero")
    }

    /// Creates a rational from an integer.
    #[must_use]
    pub fn from_integer(v: impl Into<BigInt>) -> Self {
        Rational {
            num: v.into(),
            den: BigUint::one(),
        }
    }

    /// Normalises `num/den` (with `den > 0`) into lowest terms.
    fn normalised(num: BigInt, den: BigUint) -> Self {
        debug_assert!(!den.is_zero());
        if num.is_zero() {
            return Self::zero();
        }
        let g = num.magnitude().gcd(&den);
        if g.is_one() {
            Rational { num, den }
        } else {
            Rational {
                num: BigInt::from_sign_magnitude(num.sign(), num.magnitude() / &g),
                den: &den / &g,
            }
        }
    }

    /// Word-sized decomposition `(|num|, den, sign)` when both the
    /// numerator magnitude and the denominator fit in a `u64`. The fast
    /// arithmetic paths run entirely on machine words from here.
    #[inline]
    fn as_words(&self) -> Option<(u64, u64, Sign)> {
        let n = self.num.magnitude().to_u64()?;
        let d = self.den.to_u64()?;
        Some((n, d, self.num.sign()))
    }

    /// Builds a rational from an already-reduced sign/num/den triple.
    #[inline]
    fn from_reduced_u128(sign: Sign, num: u128, den: u128) -> Rational {
        debug_assert!(den > 0);
        if num == 0 {
            return Rational::zero();
        }
        Rational {
            num: BigInt::from_sign_magnitude(sign, BigUint::from(num)),
            den: BigUint::from(den),
        }
    }

    /// `self + rhs` entirely on machine words, or `None` if an operand or
    /// an intermediate exceeds the word fast path.
    fn add_fast(&self, rhs: &Rational) -> Option<Rational> {
        self.combine_fast(rhs, false)
    }

    /// `self - rhs` entirely on machine words — the same cross-product
    /// combine as [`Rational::add_fast`] with `rhs`'s sign flipped, so
    /// subtraction does not have to clone and negate its operand.
    fn sub_fast(&self, rhs: &Rational) -> Option<Rational> {
        self.combine_fast(rhs, true)
    }

    /// Shared word-path body of [`Rational::add_fast`] /
    /// [`Rational::sub_fast`].
    fn combine_fast(&self, rhs: &Rational, negate_rhs: bool) -> Option<Rational> {
        let (an, ad, asign) = self.as_words()?;
        let (bn, bd, mut bsign) = rhs.as_words()?;
        if negate_rhs {
            bsign = bsign.neg();
        }
        if an == 0 {
            return Some(Rational {
                num: BigInt::from_sign_magnitude(bsign, rhs.num.magnitude().clone()),
                den: rhs.den.clone(),
            });
        }
        if bn == 0 {
            return Some(self.clone());
        }
        // Small-operand path: numerators in 31 bits and denominators in
        // 32 keep every cross product and the unreduced sum inside a u64,
        // so the tail reduction runs on native 64-bit `%`/`/` instead of
        // the u128 long-division libcalls the general path needs — the
        // dominant cost for the word-sized probabilities the unfolder
        // churns through.
        if (an | bn) >> 31 == 0 && (ad | bd) >> 32 == 0 {
            let g0 = gcd_u64(ad, bd);
            let (adg, bdg) = if g0 == 1 {
                (ad, bd)
            } else {
                (ad / g0, bd / g0)
            };
            let p1 = an * bdg;
            let p2 = bn * adg;
            let den = ad * bdg;
            let (sign, mag) = if asign == bsign {
                (asign, p1 + p2)
            } else {
                match p1.cmp(&p2) {
                    Ordering::Equal => return Some(Rational::zero()),
                    Ordering::Greater => (asign, p1 - p2),
                    Ordering::Less => (bsign, p2 - p1),
                }
            };
            if g0 > 1 {
                let g1 = gcd_u64(mag % g0, g0);
                if g1 > 1 {
                    return Some(Rational::from_reduced_u128(
                        sign,
                        (mag / g1).into(),
                        (den / g1).into(),
                    ));
                }
            }
            return Some(Rational::from_reduced_u128(sign, mag.into(), den.into()));
        }
        // a/b + c/d with g₀ = gcd(b, d), b = g₀·b′, d = g₀·d′:
        // the sum is (a·d′ ± c·b′) / (b·d′). Because both operands are in
        // lowest terms, the numerator t is coprime to b′ and d′ — a prime
        // p | b′ dividing t would divide a·d′, and p ∤ a (gcd(a, b) = 1)
        // forces p | d′, contradicting gcd(b′, d′) = 1. So only factors
        // of g₀ can cancel: when g₀ == 1 the result is already reduced,
        // and otherwise a single word-sized gcd(t mod g₀, g₀) finishes
        // the job — far cheaper than the 128-bit gcd of numerator and
        // denominator this used to compute.
        let g0 = gcd_u64(ad, bd);
        let (adg, bdg) = if g0 == 1 {
            (ad, bd)
        } else {
            (ad / g0, bd / g0)
        };
        let p1 = u128::from(an) * u128::from(bdg);
        let p2 = u128::from(bn) * u128::from(adg);
        let den = u128::from(ad) * u128::from(bdg);
        let (sign, mag) = if asign == bsign {
            (asign, p1.checked_add(p2)?)
        } else {
            match p1.cmp(&p2) {
                Ordering::Equal => return Some(Rational::zero()),
                Ordering::Greater => (asign, p1 - p2),
                Ordering::Less => (bsign, p2 - p1),
            }
        };
        if g0 == 1 {
            return Some(Rational::from_reduced_u128(sign, mag, den));
        }
        #[allow(clippy::cast_possible_truncation)] // mod g₀ < g₀ ≤ u64::MAX
        let g1 = gcd_u64((mag % u128::from(g0)) as u64, g0);
        if g1 == 1 {
            return Some(Rational::from_reduced_u128(sign, mag, den));
        }
        let g1 = u128::from(g1);
        Some(Rational::from_reduced_u128(sign, mag / g1, den / g1))
    }

    /// `self * rhs` entirely on machine words. Because both operands are
    /// in lowest terms, cross-cancelling `gcd(|a|, d)` and `gcd(|c|, b)`
    /// leaves the product already reduced.
    fn mul_fast(&self, rhs: &Rational) -> Option<Rational> {
        let (an, ad, asign) = self.as_words()?;
        let (bn, bd, bsign) = rhs.as_words()?;
        if an == 0 || bn == 0 {
            return Some(Rational::zero());
        }
        // Coprime cross pairs (the common case) skip the hardware divides:
        // dividing by a runtime 1 still costs a full 64-bit division.
        let g1 = gcd_u64(an, bd);
        let g2 = gcd_u64(bn, ad);
        let (an, bd) = if g1 == 1 {
            (an, bd)
        } else {
            (an / g1, bd / g1)
        };
        let (bn, ad) = if g2 == 1 {
            (bn, ad)
        } else {
            (bn / g2, ad / g2)
        };
        let num = u128::from(an) * u128::from(bn);
        let den = u128::from(ad) * u128::from(bd);
        Some(Rational::from_reduced_u128(asign.mul(bsign), num, den))
    }

    /// The numerator (carries the sign).
    #[must_use]
    #[inline]
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// The denominator (always strictly positive).
    #[must_use]
    #[inline]
    pub fn denom(&self) -> &BigUint {
        &self.den
    }

    /// Returns `true` if the value is zero.
    #[must_use]
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` if the value is one.
    #[must_use]
    #[inline]
    pub fn is_one(&self) -> bool {
        self.den.is_one() && self.num == BigInt::one()
    }

    /// Returns `true` if the value is strictly negative.
    #[must_use]
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Returns `true` if the value is strictly positive.
    #[must_use]
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Returns `true` if the value lies in the closed interval `[0, 1]`,
    /// i.e. is a valid probability.
    ///
    /// ```
    /// use pak_num::Rational;
    /// assert!(Rational::from_ratio(99, 100).is_probability());
    /// assert!(!Rational::from_ratio(101, 100).is_probability());
    /// assert!(!Rational::from_ratio(-1, 100).is_probability());
    /// ```
    #[must_use]
    pub fn is_probability(&self) -> bool {
        !self.is_negative() && *self <= Rational::one()
    }

    /// The complement `1 - self`, convenient for probabilities.
    ///
    /// ```
    /// use pak_num::Rational;
    /// assert_eq!(Rational::from_ratio(1, 10).one_minus(), Rational::from_ratio(9, 10));
    /// ```
    #[must_use]
    pub fn one_minus(&self) -> Rational {
        // For word-sized a/b the complement is (b ∓ a)/b, and it is already
        // in lowest terms: gcd(b ± a, b) = gcd(a, b) = 1. No gcd needed.
        if let Some((n, d, sign)) = self.as_words() {
            return match sign {
                Sign::Zero => Rational::one(),
                Sign::Negative => Rational::from_reduced_u128(
                    Sign::Positive,
                    u128::from(d) + u128::from(n),
                    d.into(),
                ),
                Sign::Positive => match d.cmp(&n) {
                    Ordering::Equal => Rational::zero(),
                    Ordering::Greater => {
                        Rational::from_reduced_u128(Sign::Positive, (d - n).into(), d.into())
                    }
                    Ordering::Less => {
                        Rational::from_reduced_u128(Sign::Negative, (n - d).into(), d.into())
                    }
                },
            };
        }
        &Rational::one() - self
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    #[must_use]
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "cannot take reciprocal of zero");
        Rational {
            num: BigInt::from_sign_magnitude(self.num.sign(), self.den.clone()),
            den: self.num.magnitude().clone(),
        }
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Raises the value to an integer power (negative exponents invert).
    ///
    /// # Panics
    ///
    /// Panics if the value is zero and `exp < 0`.
    #[must_use]
    pub fn pow(&self, exp: i32) -> Rational {
        if exp == 0 {
            return Rational::one();
        }
        let base = if exp < 0 { self.recip() } else { self.clone() };
        let e = exp.unsigned_abs();
        Rational {
            num: base.num.pow(e),
            den: base.den.pow(e),
        }
    }

    /// Lossy conversion to `f64`.
    ///
    /// The result is correctly signed; magnitudes beyond `f64` range saturate.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        // Scale both operands down so each fits comfortably in f64's mantissa
        // range before dividing, preserving ~double precision of the quotient.
        let nb = self.num.magnitude().bits();
        let db = self.den.bits();
        let excess = nb.max(db).saturating_sub(900);
        let n = (self.num.magnitude() >> excess).to_f64();
        let d = (&self.den >> excess).to_f64();
        let q = if d == 0.0 { f64::INFINITY } else { n / d };
        if self.num.is_negative() {
            -q
        } else {
            q
        }
    }

    /// Exact midpoint of two rationals, `(a + b) / 2`.
    #[must_use]
    pub fn midpoint(a: &Rational, b: &Rational) -> Rational {
        (a + b) / Rational::from_ratio(2, 1)
    }

    /// Returns the smaller of two rationals (by value).
    #[must_use]
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two rationals (by value).
    #[must_use]
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Rational {
            fn from(v: $t) -> Self {
                Rational::from_integer(BigInt::from(v))
            }
        }
    )*};
}
impl_from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        Rational::from_integer(v)
    }
}

impl From<BigUint> for Rational {
    fn from(v: BigUint) -> Self {
        Rational::from_integer(BigInt::from(v))
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  (b, d > 0)  ⇔  a·d vs c·b. Signs decide first; equal
        // non-zero signs cross-multiply magnitudes only — on machine words
        // (via u128) when both rationals are word-sized.
        let ss = self.num.sign();
        let os = other.num.sign();
        if ss != os {
            return ss.cmp(&os);
        }
        if ss == Sign::Zero {
            return Ordering::Equal;
        }
        let mag = match (self.as_words(), other.as_words()) {
            (Some((an, ad, _)), Some((bn, bd, _))) => {
                (u128::from(an) * u128::from(bd)).cmp(&(u128::from(bn) * u128::from(ad)))
            }
            _ => {
                let lhs = self.num.magnitude() * &other.den;
                let rhs = other.num.magnitude() * &self.den;
                lhs.cmp(&rhs)
            }
        };
        if ss == Sign::Negative {
            mag.reverse()
        } else {
            mag
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        // Accumulators start at zero (e.g. measure sums), so skip the
        // word decomposition for the identity outright.
        if self.is_zero() {
            return rhs.clone();
        }
        if rhs.is_zero() {
            return self.clone();
        }
        if let Some(fast) = self.add_fast(rhs) {
            return fast;
        }
        // a/b + c/d = (a*d + c*b) / (b*d), normalised.
        let num = &self.num * &rhs.den + &rhs.num * &self.den;
        let den = &self.den * &rhs.den;
        Rational::normalised(num, den)
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        if rhs.is_zero() {
            return self.clone();
        }
        if let Some(fast) = self.sub_fast(rhs) {
            return fast;
        }
        self + &(-rhs)
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        // Probability pipelines chain products seeded with one (joint-move
        // accumulators, path weights), so the identity is by far the most
        // common operand: return the other side before paying for the
        // word decomposition and gcds.
        if self.is_one() {
            return rhs.clone();
        }
        if rhs.is_one() {
            return self.clone();
        }
        if let Some(fast) = self.mul_fast(rhs) {
            return fast;
        }
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = self.num.magnitude().gcd(&rhs.den);
        let g2 = rhs.num.magnitude().gcd(&self.den);
        let n1 = BigInt::from_sign_magnitude(self.num.sign(), self.num.magnitude() / &g1);
        let n2 = BigInt::from_sign_magnitude(rhs.num.sign(), rhs.num.magnitude() / &g2);
        let d1 = &self.den / &g2;
        let d2 = &rhs.den / &g1;
        let num = &n1 * &n2;
        if num.is_zero() {
            return Rational::zero();
        }
        Rational {
            num,
            den: &d1 * &d2,
        }
    }
}

impl Div for &Rational {
    type Output = Rational;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS multiplication by the reciprocal
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "cannot take reciprocal of zero");
        if rhs.is_one() {
            return self.clone();
        }
        // Word path: (a/b) / (c/d) = (a·d) / (b·c). Cross-cancelling
        // gcd(a, c) and gcd(b, d) leaves the quotient reduced (both
        // operands are in lowest terms), without materialising `recip`.
        if let (Some((an, ad, asign)), Some((bn, bd, bsign))) = (self.as_words(), rhs.as_words()) {
            if an == 0 {
                return Rational::zero();
            }
            let g1 = gcd_u64(an, bn);
            let g2 = gcd_u64(ad, bd);
            let (an, bn) = if g1 == 1 {
                (an, bn)
            } else {
                (an / g1, bn / g1)
            };
            let (ad, bd) = if g2 == 1 {
                (ad, bd)
            } else {
                (ad / g2, bd / g2)
            };
            let num = u128::from(an) * u128::from(bd);
            let den = u128::from(ad) * u128::from(bn);
            return Rational::from_reduced_u128(asign.mul(bsign), num, den);
        }
        self * &rhs.recip()
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -&self.num,
            den: self.den.clone(),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

macro_rules! forward_owned_binop_rat {
    ($($op:ident :: $method:ident),*) => {$(
        impl $op for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                (&self).$method(&rhs)
            }
        }
        impl $op<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                (&self).$method(rhs)
            }
        }
        impl $op<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$method(&rhs)
            }
        }
    )*};
}
forward_owned_binop_rat!(Add::add, Sub::sub, Mul::mul, Div::div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}
impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = &*self + &rhs;
    }
}
impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}
impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}
impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = &*self * &rhs;
    }
}
impl DivAssign<&Rational> for Rational {
    fn div_assign(&mut self, rhs: &Rational) {
        *self = &*self / rhs;
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::zero(), |acc, x| acc + x)
    }
}

impl<'a> Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        iter.fold(Rational::zero(), |acc, x| acc + x)
    }
}

impl Product for Rational {
    fn product<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::one(), |acc, x| acc * x)
    }
}

impl<'a> Product<&'a Rational> for Rational {
    fn product<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        iter.fold(Rational::one(), |acc, x| acc * x)
    }
}

// ---------------------------------------------------------------------------
// Formatting and parsing
// ---------------------------------------------------------------------------

impl fmt::Display for Rational {
    /// `num` for an integer, `num/den` otherwise. A width pads the whole
    /// text (`Formatter::pad`: fill, alignment, and a precision truncates
    /// it as it would a string); plain `{}` streams the digits unchanged.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            return fmt::Display::fmt(&self.num, f);
        }
        if f.width().is_some() {
            return f.pad(&format!("{}/{}", self.num, self.den));
        }
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

impl FromStr for Rational {
    type Err = ParseNumberError;

    /// Parses `"a/b"`, a plain integer `"a"`, or a decimal such as `"0.95"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseNumberError::Empty);
        }
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.parse()?;
            let den: BigInt = d.parse()?;
            return Rational::new(num, den);
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseNumberError::InvalidDigit);
            }
            let negative = int_part.starts_with('-');
            let int: BigInt = if int_part.is_empty() || int_part == "-" || int_part == "+" {
                BigInt::zero()
            } else {
                int_part.parse()?
            };
            let frac: BigUint = frac_part.parse()?;
            let scale = BigUint::from(10u32).pow(frac_part.len() as u32);
            let frac_rat = Rational::normalised(BigInt::from(frac), scale);
            let int_rat = Rational::from_integer(int.abs());
            let abs = &int_rat + &frac_rat;
            return Ok(if negative { -abs } else { abs });
        }
        let num: BigInt = s.parse()?;
        Ok(Rational::from_integer(num))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn construction_normalises() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 17), Rational::zero());
        assert_eq!(r(0, -17), Rational::zero());
    }

    #[test]
    fn new_rejects_zero_denominator() {
        assert_eq!(
            Rational::new(BigInt::one(), BigInt::zero()),
            Err(ParseNumberError::ZeroDenominator)
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn from_ratio_panics_on_zero_denominator() {
        let _ = Rational::from_ratio(1, 0);
    }

    /// Cross-multiplied BigInt reference for `a + b`, bypassing every
    /// word fast path.
    fn add_via_bigint(a: &Rational, b: &Rational) -> Rational {
        let num = a.numer() * &BigInt::from(b.denom().clone())
            + b.numer() * &BigInt::from(a.denom().clone());
        let den = BigInt::from(a.denom() * b.denom());
        Rational::new(num, den).unwrap()
    }

    #[test]
    fn add_overflow_fallback_matches_bigint_reference() {
        // u64::MAX is odd, so gcd(M, M−1) = gcd(M, M−2) = 1 and both
        // operands below are already in lowest terms with coprime
        // denominators (gcd(M−1, M−2) = 1): the fast path's numerator
        // cross-products are the full a·d and c·b.
        let m = u64::MAX;
        let p1 = u128::from(m) * u128::from(m - 2);
        let p2 = u128::from(m) * u128::from(m - 1);
        assert!(
            p1.checked_add(p2).is_none(),
            "precondition: this case must overflow the u128 fast path"
        );
        let a = Rational::new(BigInt::from(m), BigInt::from(m - 1)).unwrap();
        let b = Rational::new(BigInt::from(m), BigInt::from(m - 2)).unwrap();
        assert_eq!(&a + &b, add_via_bigint(&a, &b));
        // The mixed-sign branch subtracts instead of adding, so the same
        // magnitudes stay on the fast path; check it against the same
        // reference.
        let neg_b = -&b;
        assert_eq!(&a + &neg_b, add_via_bigint(&a, &neg_b));
        // A hair below the boundary stays on the fast path and must agree
        // with the reference too.
        let c = Rational::new(BigInt::from(1u64 << 63), BigInt::from(m - 1)).unwrap();
        let d = Rational::new(BigInt::from((1u64 << 63) + 1), BigInt::from(m - 2)).unwrap();
        assert!(
            (u128::from(1u64 << 63) * u128::from(m - 2))
                .checked_add(u128::from((1u64 << 63) + 1) * u128::from(m - 1))
                .is_some(),
            "precondition: this case must stay on the u128 fast path"
        );
        assert_eq!(&c + &d, add_via_bigint(&c, &d));
    }

    #[test]
    fn add_shared_denominator_factor_reduces_fully() {
        // g₀ > 1 exercises the single-word tail gcd: denominators 2^63
        // and 2^62 share g₀ = 2^62, and the odd numerators keep both
        // operands in lowest terms.
        let a = Rational::new(BigInt::from(3u64), BigInt::from(1u64 << 63)).unwrap();
        let b = Rational::new(BigInt::from(5u64), BigInt::from(1u64 << 62)).unwrap();
        let sum = &a + &b;
        assert_eq!(sum, add_via_bigint(&a, &b));
        // 3/2^63 + 5/2^62 = 13/2^63 — already reduced.
        assert_eq!(
            sum,
            Rational::new(BigInt::from(13u64), BigInt::from(1u64 << 63)).unwrap()
        );
        // A cancelling case: 1/6 + 1/3 = 1/2 must shed the factor 3.
        let e = &Rational::from_ratio(1, 6) + &Rational::from_ratio(1, 3);
        assert_eq!(e, Rational::from_ratio(1, 2));
        assert_eq!(e.denom(), &BigUint::from(2u32));
    }

    #[test]
    fn field_arithmetic() {
        assert_eq!(&r(1, 2) + &r(1, 3), r(5, 6));
        assert_eq!(&r(1, 2) - &r(1, 3), r(1, 6));
        assert_eq!(&r(2, 3) * &r(3, 4), r(1, 2));
        assert_eq!(&r(1, 2) / &r(1, 4), r(2, 1));
        assert_eq!(-&r(1, 2), r(-1, 2));
    }

    #[test]
    fn example1_firing_squad_numbers() {
        // The Example 1 arithmetic from the paper: message loss 0.1.
        // P(Bob receives ≥1 of 2 msgs) = 1 - 0.1² = 0.99.
        let loss = r(1, 10);
        let both_fire = Rational::one() - &loss * &loss;
        assert_eq!(both_fire, r(99, 100));
        // P(threshold not met when Alice fires) = 0.1·0.1·0.9 = 0.009.
        let not_met = &(&loss * &loss) * &loss.one_minus();
        assert_eq!(not_met, r(9, 1000));
        assert_eq!(not_met.one_minus(), r(991, 1000));
    }

    #[test]
    fn ordering_cross_denominator() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(99, 100) < Rational::one());
        assert_eq!(r(3, 6).cmp(&r(1, 2)), Ordering::Equal);
    }

    #[test]
    fn cmp_fallback_above_word_boundary() {
        // Operands above u64::MAX can't use the u128 cross-multiply fast
        // path; this pins the big-magnitude branch (and the mixed
        // word/big case) against hand-computed orderings. 2^64+1 and
        // 2^64+3 are consecutive odd numbers, so both fractions below
        // are in lowest terms, and k/(k+2) = 1 − 2/(k+2) is strictly
        // increasing in k.
        let k = BigUint::from(1u32) << 64u64; // 2^64
        let k1 = &k + &BigUint::from(1u32);
        let k3 = &k + &BigUint::from(3u32);
        let k5 = &k + &BigUint::from(5u32);
        let a = Rational::new(BigInt::from(k1), BigInt::from(k3.clone())).unwrap();
        let b = Rational::new(BigInt::from(k3), BigInt::from(k5)).unwrap();
        assert!(a < b, "k/(k+2) is increasing");
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert!(-&a > -&b, "negation reverses the big branch");
        // Mixed word/big operands also take the fallback: with M =
        // u64::MAX, (M−1)/M vs (2^64+1)/(2^64+3) cross-multiplies to
        // 2^128 + 2^64 − 6 vs 2^128 − 1, so the word-sized side is
        // larger.
        let m = u64::MAX;
        let w = Rational::new(BigInt::from(m - 1), BigInt::from(m)).unwrap();
        assert!(w > a);
        assert!(a < w);
    }

    #[test]
    fn probability_helpers() {
        assert!(Rational::zero().is_probability());
        assert!(Rational::one().is_probability());
        assert!(r(1, 2).is_probability());
        assert!(!r(3, 2).is_probability());
        assert!(!r(-1, 2).is_probability());
        assert_eq!(r(1, 4).one_minus(), r(3, 4));
    }

    #[test]
    fn recip_and_pow() {
        assert_eq!(r(2, 3).recip(), r(3, 2));
        assert_eq!(r(-2, 3).recip(), r(-3, 2));
        assert_eq!(r(1, 2).pow(10), r(1, 1024));
        assert_eq!(r(2, 3).pow(-2), r(9, 4));
        assert_eq!(r(5, 7).pow(0), Rational::one());
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::zero().recip();
    }

    #[test]
    fn to_f64_precision() {
        assert_eq!(r(1, 2).to_f64(), 0.5);
        assert_eq!(r(-3, 4).to_f64(), -0.75);
        assert_eq!(Rational::zero().to_f64(), 0.0);
        let tiny = r(1, 10).pow(30);
        let rel = (tiny.to_f64() - 1e-30).abs() / 1e-30;
        assert!(rel < 1e-12);
    }

    #[test]
    fn parse_fraction_integer_decimal() {
        assert_eq!("3/4".parse::<Rational>().unwrap(), r(3, 4));
        assert_eq!("-3/4".parse::<Rational>().unwrap(), r(-3, 4));
        assert_eq!("3/-4".parse::<Rational>().unwrap(), r(-3, 4));
        assert_eq!("7".parse::<Rational>().unwrap(), r(7, 1));
        assert_eq!("0.95".parse::<Rational>().unwrap(), r(19, 20));
        assert_eq!("-0.5".parse::<Rational>().unwrap(), r(-1, 2));
        assert_eq!("-.5".parse::<Rational>().unwrap(), r(-1, 2));
        assert_eq!("2.25".parse::<Rational>().unwrap(), r(9, 4));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("".parse::<Rational>().is_err());
        assert!("0.".parse::<Rational>().is_err());
        assert!("a/b".parse::<Rational>().is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(r(1, 2).to_string(), "1/2");
        assert_eq!(r(4, 2).to_string(), "2");
        assert_eq!(r(-1, 2).to_string(), "-1/2");
        assert_eq!(Rational::zero().to_string(), "0");
    }

    #[test]
    fn sum_and_product_iterators() {
        let parts = [r(1, 4), r(1, 4), r(1, 2)];
        let total: Rational = parts.iter().sum();
        assert_eq!(total, Rational::one());
        let prod: Rational = parts.iter().product();
        assert_eq!(prod, r(1, 32));
    }

    #[test]
    fn midpoint_min_max() {
        assert_eq!(Rational::midpoint(&r(0, 1), &r(1, 1)), r(1, 2));
        assert_eq!(r(1, 3).min(r(1, 2)), r(1, 3));
        assert_eq!(r(1, 3).max(r(1, 2)), r(1, 2));
    }
}
