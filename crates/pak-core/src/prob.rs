//! The [`Probability`] abstraction.
//!
//! All of `pak-core` is generic over the numeric type used for transition
//! probabilities and derived measures. Two implementations are provided:
//!
//! * [`pak_num::Rational`] — exact. The paper's Theorem 6.2 states an
//!   *equality*; with rationals the library verifies it with `==`.
//! * `f64` — fast and approximate, for large sweeps and Monte-Carlo
//!   cross-checks. Equality comparisons use an absolute tolerance of
//!   [`F64_TOLERANCE`].

use core::fmt::{Debug, Display};

use pak_num::Rational;

use crate::mass::{IntegerColumn, MassColumn, NoColumn};

/// Absolute tolerance used when comparing `f64` probabilities for equality
/// (e.g. validating that a distribution sums to one).
pub const F64_TOLERANCE: f64 = 1e-9;

/// A numeric type usable as a probability in a purely probabilistic system.
///
/// Implementors form an ordered field restricted to the operations the
/// analyses need. The trait is sealed in spirit — downstream code should use
/// the provided `f64` and [`Rational`] implementations — but is left open so
/// that experiments with interval arithmetic or logprobs remain possible.
///
/// # Examples
///
/// ```
/// use pak_core::prob::Probability;
/// use pak_num::Rational;
///
/// fn half<P: Probability>() -> P {
///     P::from_ratio(1, 2)
/// }
///
/// assert_eq!(half::<f64>(), 0.5);
/// assert_eq!(half::<Rational>(), Rational::from_ratio(1, 2));
/// ```
pub trait Probability: Clone + PartialEq + PartialOrd + Debug + Display + 'static {
    /// The mass column a tree over this type sums its conditional
    /// measures on (see [`crate::mass`]) — the one hook where exact and
    /// floating-point measures part. [`Rational`] sums integer numerators
    /// over the tree's common denominator ([`IntegerColumn`]); `f64` has
    /// no column ([`NoColumn`]) and folds in ascending run order.
    type Column: MassColumn<Self>;

    /// The additive identity, probability `0`.
    fn zero() -> Self;

    /// The multiplicative identity, probability `1`.
    fn one() -> Self;

    /// Constructs the value `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    fn from_ratio(num: u64, den: u64) -> Self;

    /// Addition.
    #[must_use]
    fn add(&self, other: &Self) -> Self;

    /// In-place addition: `*self += other`.
    ///
    /// Accumulation loops (measures, expectations) should prefer this over
    /// [`Probability::add`]; exact implementations can then reuse storage
    /// or take word-sized fast paths instead of constructing a fresh value
    /// per term.
    fn add_assign(&mut self, other: &Self) {
        *self = self.add(other);
    }

    /// In-place multiplication: `*self *= other`.
    fn mul_assign(&mut self, other: &Self) {
        *self = self.mul(other);
    }

    /// Subtraction. May produce negative values (used for differences of
    /// measures in theorem reports).
    #[must_use]
    fn sub(&self, other: &Self) -> Self;

    /// Multiplication.
    #[must_use]
    fn mul(&self, other: &Self) -> Self;

    /// Division.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero (in debug builds for `f64`).
    #[must_use]
    fn div(&self, other: &Self) -> Self;

    /// Returns `true` if the value equals zero (up to the type's tolerance).
    fn is_zero(&self) -> bool;

    /// Returns `true` if the value equals one (up to the type's tolerance).
    fn is_one(&self) -> bool;

    /// Equality up to the type's tolerance (exact for rationals).
    fn approx_eq(&self, other: &Self) -> bool;

    /// `self >= other`, with tolerance slack for inexact types: a value that
    /// falls short of `other` by no more than the tolerance still passes.
    fn at_least(&self, other: &Self) -> bool;

    /// Lossy conversion to `f64` for reporting.
    fn to_f64(&self) -> f64;

    /// Returns `true` if the value lies in `[0, 1]` (up to tolerance).
    fn is_valid_probability(&self) -> bool {
        self.at_least(&Self::zero()) && Self::one().at_least(self)
    }

    /// The complement `1 - self`.
    #[must_use]
    fn one_minus(&self) -> Self {
        Self::one().sub(self)
    }
}

impl Probability for f64 {
    type Column = NoColumn;

    fn zero() -> Self {
        0.0
    }

    fn one() -> Self {
        1.0
    }

    fn from_ratio(num: u64, den: u64) -> Self {
        assert!(den != 0, "from_ratio denominator must be non-zero");
        #[allow(clippy::cast_precision_loss)]
        {
            num as f64 / den as f64
        }
    }

    fn add(&self, other: &Self) -> Self {
        self + other
    }

    fn add_assign(&mut self, other: &Self) {
        *self += other;
    }

    fn mul_assign(&mut self, other: &Self) {
        *self *= other;
    }

    fn sub(&self, other: &Self) -> Self {
        self - other
    }

    fn mul(&self, other: &Self) -> Self {
        self * other
    }

    fn div(&self, other: &Self) -> Self {
        debug_assert!(*other != 0.0, "division of f64 probability by zero");
        self / other
    }

    fn is_zero(&self) -> bool {
        self.abs() <= F64_TOLERANCE
    }

    fn is_one(&self) -> bool {
        (self - 1.0).abs() <= F64_TOLERANCE
    }

    fn approx_eq(&self, other: &Self) -> bool {
        (self - other).abs() <= F64_TOLERANCE
    }

    fn at_least(&self, other: &Self) -> bool {
        *self >= other - F64_TOLERANCE
    }

    fn to_f64(&self) -> f64 {
        *self
    }
}

impl Probability for Rational {
    type Column = IntegerColumn;

    fn zero() -> Self {
        Rational::zero()
    }

    fn one() -> Self {
        Rational::one()
    }

    fn from_ratio(num: u64, den: u64) -> Self {
        assert!(den != 0, "from_ratio denominator must be non-zero");
        Rational::new(num.into(), den.into()).expect("den checked non-zero")
    }

    fn add(&self, other: &Self) -> Self {
        self + other
    }

    fn add_assign(&mut self, other: &Self) {
        *self += other;
    }

    fn mul_assign(&mut self, other: &Self) {
        *self *= other;
    }

    fn sub(&self, other: &Self) -> Self {
        self - other
    }

    fn mul(&self, other: &Self) -> Self {
        self * other
    }

    fn div(&self, other: &Self) -> Self {
        self / other
    }

    fn is_zero(&self) -> bool {
        Rational::is_zero(self)
    }

    fn is_one(&self) -> bool {
        Rational::is_one(self)
    }

    fn approx_eq(&self, other: &Self) -> bool {
        self == other
    }

    fn at_least(&self, other: &Self) -> bool {
        self >= other
    }

    fn to_f64(&self) -> f64 {
        Rational::to_f64(self)
    }

    fn one_minus(&self) -> Self {
        // The inherent method has a dedicated word path ((b ∓ a)/b is
        // already reduced); the trait default would route through a
        // generic subtraction instead.
        Rational::one_minus(self)
    }
}

/// Sums an iterator of probabilities, accumulating in place.
pub fn sum<'a, P: Probability>(iter: impl IntoIterator<Item = &'a P>) -> P {
    let mut acc = P::zero();
    for x in iter {
        acc.add_assign(x);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laws<P: Probability>() {
        let half = P::from_ratio(1, 2);
        let third = P::from_ratio(1, 3);
        assert!(P::zero().is_zero());
        assert!(P::one().is_one());
        assert!(half.add(&half).is_one());
        assert!(half.mul(&P::one()).approx_eq(&half));
        assert!(half.sub(&half).is_zero());
        assert!(half.div(&half).is_one());
        assert!(half.at_least(&third));
        assert!(!third.at_least(&half));
        assert!(half.is_valid_probability());
        assert!(half.one_minus().approx_eq(&half));
        assert!((half.to_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn f64_laws() {
        laws::<f64>();
    }

    #[test]
    fn rational_laws() {
        laws::<Rational>();
    }

    #[test]
    fn f64_tolerance_behaviour() {
        let x = 0.1f64 + 0.2;
        assert!(x.approx_eq(&0.3));
        assert!(Probability::at_least(&0.3f64, &x));
    }

    #[test]
    fn rational_is_exact() {
        let a = Rational::from_ratio(1, 3);
        let b = Rational::from_ratio(1, 3).add(&Rational::from_ratio(1, 1_000_000_000));
        assert!(!a.approx_eq(&b));
    }

    #[test]
    fn sum_helper() {
        let parts = vec![0.25f64, 0.25, 0.5];
        assert!(sum(&parts).is_one());
    }

    #[test]
    fn invalid_probability_detected() {
        assert!(!1.5f64.is_valid_probability());
        assert!(!(-0.1f64).is_valid_probability());
        assert!(!Rational::from_ratio(3, 2).is_valid_probability());
    }
}
