//! Unsigned arbitrary-precision integers with a small-value fast path.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Rem, Shl, Shr, Sub, SubAssign};
use core::str::FromStr;

use crate::limbs;
use crate::parse::ParseNumberError;

/// An unsigned arbitrary-precision integer.
///
/// # Representation
///
/// The value is stored in one of three variants — a lattice of tiers
/// ordered by magnitude:
///
/// * **Inline** — any value that fits in a `u64` is held directly in the
///   enum, with no heap allocation. All arithmetic between inline values
///   runs on machine words (widening to `u128` where needed) and never
///   touches the allocator.
/// * **Fixed** — values in `(u64::MAX, 2^FIXED_BITS)` are held in a
///   stack-resident `[u64; 3]` little-endian word array
///   ([`BigUint::FIXED_BITS`] is `192`). Additions, subtractions,
///   multiplications, divisions, and gcds between inline/fixed operands
///   stay entirely on the stack; only results crossing `2^FIXED_BITS`
///   escalate.
/// * **Heap** — values of at least `2^FIXED_BITS` are stored as
///   little-endian 64-bit words with no zero word on top (so the vector
///   always has at least four words).
///
/// The fixed and heap tiers share one set of `u64`-word kernels; they
/// differ only in where the kernels' operands and results live: stack
/// arrays of a fixed width, or vectors.
///
/// The representation is **canonical**: a given value has exactly one
/// representation, so the derived `PartialEq`/`Hash` are value equality,
/// `Display` prints identical digits whichever tier a value came from, and
/// every result that shrinks across a tier boundary is normalised back
/// down (heap → fixed → inline) by the internal constructor. All
/// arithmetic is exact.
///
/// # Panics
///
/// `Sub`/`SubAssign` panic on underflow (`rhs > self`), since an unsigned
/// integer cannot represent the difference; use [`BigUint::checked_sub`]
/// when the ordering of the operands is not known. No other operator
/// panics, except division by zero.
///
/// # Examples
///
/// ```
/// use pak_num::BigUint;
///
/// let a = BigUint::from(10u64).pow(30);
/// let b = &a * &a;
/// assert_eq!(b.to_string(), format!("1{}", "0".repeat(60)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigUint {
    repr: Repr,
}

/// The three storage variants. Invariants: `Fixed` holds only values
/// strictly greater than `u64::MAX`, zero-padded on top (so two or three
/// significant words); `Heap` holds only values of at least
/// `2^(64·FIXED_LIMBS)` with no zero word on top; everything word-sized is
/// `Inline`. The variants are therefore strictly ordered by value range.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Inline(u64),
    Fixed([u64; FIXED_LIMBS]),
    Heap(Vec<u64>),
}

/// Number of 64-bit words in the fixed tier.
///
/// Three words keep `Repr` the same size as its `Vec` heap variant (24
/// bytes + discriminant), so the tier does not enlarge every probability
/// in the workspace, while covering magnitudes up to `2^192 − 1` — enough
/// for products of two-word numerators/denominators with room for a carry
/// word.
const FIXED_LIMBS: usize = 3;

/// Words of stack scratch: a full fixed × fixed product, the widest result
/// any fixed-tier operation produces.
const STACK_WORDS: usize = 2 * FIXED_LIMBS;

impl BigUint {
    /// The value `0`.
    ///
    /// ```
    /// use pak_num::BigUint;
    /// assert!(BigUint::zero().is_zero());
    /// ```
    #[must_use]
    #[inline]
    pub fn zero() -> Self {
        BigUint {
            repr: Repr::Inline(0),
        }
    }

    /// The value `1`.
    ///
    /// ```
    /// use pak_num::BigUint;
    /// assert_eq!(BigUint::one(), BigUint::from(1u32));
    /// ```
    #[must_use]
    #[inline]
    pub fn one() -> Self {
        BigUint {
            repr: Repr::Inline(1),
        }
    }

    #[inline]
    fn from_u64(v: u64) -> Self {
        BigUint {
            repr: Repr::Inline(v),
        }
    }

    fn from_u128_value(v: u128) -> Self {
        match u64::try_from(v) {
            Ok(w) => Self::from_u64(w),
            Err(_) => BigUint {
                repr: Repr::Fixed([v as u64, (v >> 64) as u64, 0]),
            },
        }
    }

    /// The one words → `Repr` constructor: trims zero words off the top of
    /// little-endian `words` and stores the value in the lowest tier it
    /// fits. A stack array allocates only for a heap result; a vector is
    /// kept by one.
    fn from_words<W: AsRef<[u64]> + Into<Vec<u64>>>(words: W) -> Self {
        let w = words.as_ref();
        let len = limbs::sig_len(w);
        let at = |i: usize| w.get(i).copied().unwrap_or(0);
        let repr = match len {
            0 | 1 => Repr::Inline(at(0)),
            2..=FIXED_LIMBS => Repr::Fixed([at(0), at(1), at(2)]),
            _ => {
                let mut v = words.into();
                v.truncate(len);
                Repr::Heap(v)
            }
        };
        BigUint { repr }
    }

    /// The value zero-padded to `FIXED_LIMBS` words, unless it is
    /// heap-resident: the operand form of the stack tier, whose constant
    /// width lets the kernels unroll.
    #[inline]
    fn stack_words(&self) -> Option<[u64; FIXED_LIMBS]> {
        match &self.repr {
            Repr::Inline(v) => Some([*v, 0, 0]),
            Repr::Fixed(w) => Some(*w),
            Repr::Heap(_) => None,
        }
    }

    /// The value's significant little-endian words (empty for zero),
    /// borrowed from whichever tier holds it.
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(v) => &core::slice::from_ref(v)[..usize::from(*v != 0)],
            // A fixed value exceeds `u64::MAX`, so only its top word can
            // be zero padding.
            Repr::Fixed(w) => &w[..FIXED_LIMBS - usize::from(w[FIXED_LIMBS - 1] == 0)],
            Repr::Heap(v) => v,
        }
    }

    /// The value's significant little-endian `u64` words (empty for
    /// zero) — the operand form of the public [`limbs`](crate::limbs)
    /// kernels.
    ///
    /// ```
    /// use pak_num::BigUint;
    /// let v = BigUint::from(u128::MAX) + BigUint::from(1u32);
    /// assert_eq!(v.limbs(), &[0, 0, 1]);
    /// assert_eq!(BigUint::from_limbs(v.limbs()), v);
    /// assert!(BigUint::zero().limbs().is_empty());
    /// ```
    #[must_use]
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        self.words()
    }

    /// The value of little-endian `u64` words; zero words on top are
    /// allowed.
    #[must_use]
    pub fn from_limbs(words: &[u64]) -> Self {
        let len = limbs::sig_len(words);
        if len <= FIXED_LIMBS {
            let mut w = [0; FIXED_LIMBS];
            w[..len].copy_from_slice(&words[..len]);
            Self::from_words(w)
        } else {
            Self::from_words(words[..len].to_vec())
        }
    }

    /// Width of the fixed stack tier in bits (`64 × FIXED_LIMBS`).
    ///
    /// Values in `(u64::MAX, 2^FIXED_BITS)` live in the stack-resident
    /// fixed tier; values `≥ 2^FIXED_BITS` are heap-resident. Exposed so
    /// representation-boundary tests can target the lattice edges.
    pub const FIXED_BITS: u64 = 64 * FIXED_LIMBS as u64;

    /// Returns `true` if the value is held inline (fits in a `u64`).
    ///
    /// Exposed so property tests can assert the representation is
    /// canonical; not needed for ordinary arithmetic.
    #[must_use]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// Returns `true` if the value is held in the fixed stack tier
    /// (greater than `u64::MAX`, less than `2^FIXED_BITS`).
    ///
    /// Exposed for representation-canonicality tests, like
    /// [`BigUint::is_inline`].
    #[must_use]
    pub fn is_fixed(&self) -> bool {
        matches!(self.repr, Repr::Fixed(_))
    }

    /// Returns `true` if the value is heap-resident (at least
    /// `2^FIXED_BITS`).
    ///
    /// Exposed for representation-canonicality tests, like
    /// [`BigUint::is_inline`].
    #[must_use]
    pub fn is_heap(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }

    /// Returns `true` if the value is zero.
    #[must_use]
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Inline(0))
    }

    /// Returns `true` if the value is one.
    #[must_use]
    #[inline]
    pub fn is_one(&self) -> bool {
        matches!(self.repr, Repr::Inline(1))
    }

    /// Number of significant bits (0 for the value zero).
    ///
    /// ```
    /// use pak_num::BigUint;
    /// assert_eq!(BigUint::from(0u32).bits(), 0);
    /// assert_eq!(BigUint::from(255u32).bits(), 8);
    /// assert_eq!(BigUint::from(256u32).bits(), 9);
    /// ```
    #[must_use]
    #[inline]
    pub fn bits(&self) -> u64 {
        match &self.repr {
            Repr::Inline(v) => u64::from(64 - v.leading_zeros()),
            _ => limbs::bits(self.words()),
        }
    }

    /// Returns the value as `u64` if it fits.
    #[must_use]
    #[inline]
    pub fn to_u64(&self) -> Option<u64> {
        match &self.repr {
            Repr::Inline(v) => Some(*v),
            Repr::Fixed(_) | Repr::Heap(_) => None,
        }
    }

    /// Returns the value as `u128` if it fits.
    #[must_use]
    #[inline]
    pub fn to_u128(&self) -> Option<u128> {
        match self.stack_words()? {
            [lo, hi, 0] => Some(u128::from(lo) | (u128::from(hi) << 64)),
            _ => None,
        }
    }

    /// Lossy conversion to `f64`, rounded to nearest, ties to even — the
    /// same rounding the hardware applies, so the result is always the
    /// `f64` closest to the exact value.
    ///
    /// Values larger than `f64::MAX` convert to `f64::INFINITY`.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        if let Repr::Inline(v) = self.repr {
            #[allow(clippy::cast_precision_loss)] // u64→f64 rounds to nearest even
            return v as f64;
        }
        // Wide value (≥ 65 bits): extract the exact top 64 bits plus a
        // sticky bit recording whether anything below them is non-zero,
        // then round that window to f64's 53-bit mantissa, ties to even.
        let words = self.words();
        let bits = limbs::bits(words);
        let k = words.len(); // ≥ 2 by the representation invariant
        let hi2 = (u128::from(words[k - 1]) << 64) | u128::from(words[k - 2]);
        // The top two words carry `bits − 64·(k − 2)` significant bits,
        // which is in (64, 128]; all but the top 64 feed the sticky bit
        // along with every lower word.
        #[allow(clippy::cast_possible_truncation)]
        let excess = (bits - 64 * (k as u64 - 1)) as u32; // 1..=64
        #[allow(clippy::cast_possible_truncation)]
        let top = (hi2 >> excess) as u64;
        let sticky = hi2 & ((1u128 << excess) - 1) != 0 || words[..k - 2].iter().any(|&w| w != 0);

        let mut mantissa = top >> 11;
        let round = (top >> 10) & 1 == 1;
        let lower = (top & 0x3FF) != 0 || sticky;
        let mut exp = bits - 64 + 11; // value ≈ mantissa × 2^exp
        if round && (lower || mantissa & 1 == 1) {
            mantissa += 1;
            if mantissa == 1u64 << 53 {
                mantissa >>= 1;
                exp += 1;
            }
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
        {
            // Clamp to i32::MAX (not u32::MAX, which would wrap negative);
            // powi saturates to INFINITY well before the clamp engages.
            (mantissa as f64) * 2f64.powi(exp.min(i32::MAX as u64) as i32)
        }
    }

    /// Checked subtraction: returns `None` if `other > self`.
    ///
    /// ```
    /// use pak_num::BigUint;
    /// let a = BigUint::from(5u32);
    /// let b = BigUint::from(7u32);
    /// assert!(a.checked_sub(&b).is_none());
    /// assert_eq!(b.checked_sub(&a), Some(BigUint::from(2u32)));
    /// ```
    #[must_use]
    pub fn checked_sub(&self, other: &Self) -> Option<Self> {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &other.repr) {
            return a.checked_sub(*b).map(Self::from_u64);
        }
        if let (Some(a), Some(b)) = (self.stack_words(), other.stack_words()) {
            let mut out = [0; FIXED_LIMBS];
            return (!limbs::sub(&a, &b, &mut out)).then(|| Self::from_words(out));
        }
        let (a, b) = (self.words(), other.words());
        if a.len() < b.len() {
            return None;
        }
        let mut out = vec![0; a.len()];
        (!limbs::sub(a, b, &mut out)).then(|| Self::from_words(out))
    }

    /// Division with remainder.
    ///
    /// Returns `(quotient, remainder)` with `remainder < divisor`. The
    /// all-inline case divides machine words directly; a single-word
    /// divisor takes the short-division path, and wider divisors Knuth
    /// Algorithm D.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    ///
    /// ```
    /// use pak_num::BigUint;
    /// let (q, r) = BigUint::from(1_000_007u64).div_rem(&BigUint::from(1000u32));
    /// assert_eq!(q, BigUint::from(1000u32));
    /// assert_eq!(r, BigUint::from(7u32));
    /// ```
    #[must_use]
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero BigUint");
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &divisor.repr) {
            return (Self::from_u64(a / b), Self::from_u64(a % b));
        }
        if let (Some([a0, a1, a2]), Some(mut v)) = (self.stack_words(), divisor.stack_words()) {
            return Self::div_rem_words([a0, a1, a2, 0], &mut v, [0; FIXED_LIMBS]);
        }
        match self.cmp(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        let (u, v) = (self.words(), divisor.words());
        let mut un = Vec::with_capacity(u.len() + 1);
        un.extend_from_slice(u);
        un.push(0);
        match *v {
            [d] => Self::div_rem_words(un, &mut [d], Vec::new()),
            _ => Self::div_rem_words(un, &mut v.to_vec(), vec![0; u.len() + 1 - v.len()]),
        }
    }

    /// `(u / v, u % v)` for `v > 0` on zero-padded words, `u` with a zero
    /// word on top. A single-word divisor runs short division in place; a
    /// wider one of `n` significant words runs Knuth's Algorithm D, which
    /// clobbers `v` and writes the quotient into `u.len() − n` words of `q`.
    fn div_rem_words<W, Q>(mut u: W, v: &mut [u64], mut q: Q) -> (Self, Self)
    where
        W: AsRef<[u64]> + AsMut<[u64]> + Into<Vec<u64>>,
        Q: AsRef<[u64]> + AsMut<[u64]> + Into<Vec<u64>>,
    {
        let (len, n) = (limbs::sig_len(u.as_ref()), limbs::sig_len(v));
        if len < n {
            return (Self::zero(), Self::from_words(u));
        }
        if n == 1 {
            let r = limbs::div_rem_word(&mut u.as_mut()[..len], v[0]);
            return (Self::from_words(u), Self::from_u64(r));
        }
        limbs::div_rem(u.as_mut(), &mut v[..n], q.as_mut());
        (Self::from_words(q), Self::from_words(u))
    }

    /// Greatest common divisor.
    ///
    /// Operands up to two words run the binary gcd entirely on machine
    /// words; larger operands reduce by Euclid steps (division stays on
    /// the stack throughout the fixed tier) until both fit, which takes at
    /// most a few multi-word divisions.
    ///
    /// `gcd(0, 0) == 0` by convention.
    ///
    /// ```
    /// use pak_num::BigUint;
    /// let g = BigUint::from(48u32).gcd(&BigUint::from(36u32));
    /// assert_eq!(g, BigUint::from(12u32));
    /// ```
    #[must_use]
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        loop {
            if let (Some(x), Some(y)) = (a.to_u128(), b.to_u128()) {
                return Self::from_u128_value(limbs::gcd_u128(x, y));
            }
            if b.is_zero() {
                return a;
            }
            let (_, r) = a.div_rem(&b);
            a = b;
            b = r;
        }
    }

    /// Raises the value to the power `exp` by binary exponentiation.
    ///
    /// `0.pow(0) == 1` by convention.
    ///
    /// ```
    /// use pak_num::BigUint;
    /// assert_eq!(BigUint::from(2u32).pow(10), BigUint::from(1024u32));
    /// ```
    #[must_use]
    pub fn pow(&self, mut exp: u32) -> Self {
        let mut base = self.clone();
        let mut acc = Self::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Returns `true` if the value is even.
    #[must_use]
    #[inline]
    pub fn is_even(&self) -> bool {
        match &self.repr {
            Repr::Inline(v) => v & 1 == 0,
            _ => self.words()[0] & 1 == 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

macro_rules! impl_from_small {
    ($($t:ty),*) => {$(
        impl From<$t> for BigUint {
            fn from(v: $t) -> Self {
                BigUint::from_u64(u64::from(v))
            }
        }
    )*};
}
impl_from_small!(u8, u16, u32, u64);

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_u128_value(v)
    }
}

impl From<usize> for BigUint {
    fn from(v: usize) -> Self {
        BigUint::from_u64(v as u64)
    }
}

impl TryFrom<&BigUint> for u64 {
    type Error = ParseNumberError;
    fn try_from(v: &BigUint) -> Result<Self, Self::Error> {
        v.to_u64().ok_or(ParseNumberError::Overflow)
    }
}

impl Default for BigUint {
    fn default() -> Self {
        BigUint::zero()
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => a.cmp(b),
            _ => limbs::cmp(self.words(), other.words()),
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &rhs.repr) {
            return match a.checked_add(*b) {
                Some(s) => BigUint::from_u64(s),
                None => BigUint::from_u128_value(u128::from(*a) + u128::from(*b)),
            };
        }
        if let (Some(a), Some(b)) = (self.stack_words(), rhs.stack_words()) {
            let mut out = [0; FIXED_LIMBS + 1];
            limbs::add(&a, &b, &mut out);
            return BigUint::from_words(out);
        }
        let (a, b) = (self.words(), rhs.words());
        let mut out = vec![0; a.len().max(b.len()) + 1];
        limbs::add(a, b, &mut out);
        BigUint::from_words(out)
    }
}

impl Sub for &BigUint {
    type Output = BigUint;
    /// # Panics
    ///
    /// Panics if `rhs > self` (`BigUint` cannot represent negative values).
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }
}

impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &rhs.repr) {
            return BigUint::from_u128_value(u128::from(*a) * u128::from(*b));
        }
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        if let (Some(a), Some(b)) = (self.stack_words(), rhs.stack_words()) {
            let mut out = [0; STACK_WORDS];
            limbs::mul(&a, &b, &mut out);
            return BigUint::from_words(out);
        }
        let (a, b) = (self.words(), rhs.words());
        let mut out = vec![0; a.len() + b.len()];
        limbs::mul(a, b, &mut out);
        BigUint::from_words(out)
    }
}

impl Div for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl Shl<u64> for &BigUint {
    type Output = BigUint;
    fn shl(self, shift: u64) -> BigUint {
        if self.is_zero() || shift == 0 {
            return self.clone();
        }
        // Inline fast path: the shifted value still fits in a word.
        if let Repr::Inline(v) = self.repr {
            if shift < 64 && self.bits() + shift <= 64 {
                return BigUint::from_u64(v << shift);
            }
            if shift < 128 && self.bits() + shift <= 128 {
                return BigUint::from_u128_value(u128::from(v) << shift);
            }
        }
        let words = self.words();
        let len = words.len() + (shift / 64) as usize + 1;
        if len <= STACK_WORDS {
            let mut out = [0; STACK_WORDS];
            limbs::shl(words, shift, &mut out);
            return BigUint::from_words(out);
        }
        let mut out = vec![0; len];
        limbs::shl(words, shift, &mut out);
        BigUint::from_words(out)
    }
}

impl Shr<u64> for &BigUint {
    type Output = BigUint;
    fn shr(self, shift: u64) -> BigUint {
        if let Repr::Inline(v) = self.repr {
            return if shift >= 64 {
                BigUint::zero()
            } else {
                BigUint::from_u64(v >> shift)
            };
        }
        let words = self.words();
        if shift / 64 >= words.len() as u64 {
            return BigUint::zero();
        }
        let len = words.len() - (shift / 64) as usize;
        if len <= STACK_WORDS {
            let mut out = [0; STACK_WORDS];
            limbs::shr(words, shift, &mut out);
            return BigUint::from_words(out);
        }
        let mut out = vec![0; len];
        limbs::shr(words, shift, &mut out);
        BigUint::from_words(out)
    }
}

impl Shl<u64> for BigUint {
    type Output = BigUint;
    fn shl(self, shift: u64) -> BigUint {
        &self << shift
    }
}

impl Shr<u64> for BigUint {
    type Output = BigUint;
    fn shr(self, shift: u64) -> BigUint {
        &self >> shift
    }
}

macro_rules! forward_owned_binop {
    ($($op:ident :: $method:ident),*) => {$(
        impl $op for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                (&self).$method(&rhs)
            }
        }
        impl $op<&BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                (&self).$method(rhs)
            }
        }
        impl $op<BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                self.$method(&rhs)
            }
        }
    )*};
}
forward_owned_binop!(Add::add, Sub::sub, Mul::mul, Div::div, Rem::rem);

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        // In-place word addition when no representation change is needed.
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &rhs.repr) {
            if let Some(s) = a.checked_add(*b) {
                self.repr = Repr::Inline(s);
                return;
            }
        }
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigUint> for BigUint {
    /// # Panics
    ///
    /// Panics if `rhs > self`; use [`BigUint::checked_sub`] when the
    /// operand ordering is not known.
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = self
            .checked_sub(rhs)
            .expect("BigUint subtraction underflow");
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &rhs.repr) {
            if let Some(p) = a.checked_mul(*b) {
                self.repr = Repr::Inline(p);
                return;
            }
        }
        *self = &*self * rhs;
    }
}

// ---------------------------------------------------------------------------
// Formatting and parsing
// ---------------------------------------------------------------------------

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_signed(f, true)
    }
}

impl BigUint {
    /// Writes the decimal digits behind an optional `-` sign, honouring
    /// the formatter's width, fill, alignment, `+` and `0` flags as the
    /// primitive integers do (`Formatter::pad_integral`).
    ///
    /// Decimal output is representation-independent: all three tiers
    /// print identical digits for the same value. `ModelFingerprint`
    /// digests probabilities through plain `{}`, so that output is a
    /// stability contract the engine cache depends on, not cosmetics; it
    /// streams straight to the formatter.
    pub(crate) fn fmt_signed(
        &self,
        f: &mut fmt::Formatter<'_>,
        is_nonnegative: bool,
    ) -> fmt::Result {
        if f.width().is_some() || f.sign_plus() {
            let digits = self.to_string();
            return f.pad_integral(is_nonnegative, "", &digits);
        }
        if !is_nonnegative {
            f.write_str("-")?;
        }
        if let Repr::Inline(v) = self.repr {
            return write!(f, "{v}");
        }
        // Each base-10¹⁹ chunk takes more than 63 bits, so `len + len / 32
        // + 1` slots hold them all.
        match self.stack_words() {
            Some(w) => write_decimal(f, w, [0; FIXED_LIMBS + 1]),
            None => {
                let w = self.words();
                write_decimal(f, w.to_vec(), vec![0; w.len() + w.len() / 32 + 1])
            }
        }
    }
}

/// Writes the value of `words` in decimal, peeling off base-10¹⁹ chunks
/// (the largest power of ten in a word) into `chunks`, least significant
/// first. Both buffers are consumed as scratch.
fn write_decimal(
    f: &mut fmt::Formatter<'_>,
    mut words: impl AsMut<[u64]>,
    mut chunks: impl AsMut<[u64]>,
) -> fmt::Result {
    const CHUNK: u64 = 10_000_000_000_000_000_000;
    let (words, chunks) = (words.as_mut(), chunks.as_mut());
    let mut len = limbs::sig_len(words);
    let mut count = 0;
    while len > 0 {
        chunks[count] = limbs::div_rem_word(&mut words[..len], CHUNK);
        count += 1;
        len = limbs::sig_len(&words[..len]);
    }
    let (top, rest) = chunks[..count].split_last().expect("non-zero value");
    write!(f, "{top}")?;
    rest.iter().rev().try_for_each(|c| write!(f, "{c:019}"))
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

impl FromStr for BigUint {
    type Err = ParseNumberError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseNumberError::Empty);
        }
        if !s.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseNumberError::InvalidDigit);
        }
        // Word-sized inputs parse without any big-number arithmetic.
        if s.len() <= 19 {
            return s
                .parse::<u64>()
                .map(Self::from_u64)
                .map_err(|_| ParseNumberError::InvalidDigit);
        }
        let mut out = BigUint::zero();
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let end = (i + 9).min(bytes.len());
            let chunk = &s[i..end];
            let v: u32 = chunk.parse().map_err(|_| ParseNumberError::InvalidDigit)?;
            let scale = BigUint::from(10u32).pow((end - i) as u32);
            out = &out * &scale + BigUint::from(v);
            i = end;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn zero_and_one_identities() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(&b(42) + &BigUint::zero(), b(42));
        assert_eq!(&b(42) * &BigUint::one(), b(42));
        assert_eq!(&b(42) * &BigUint::zero(), BigUint::zero());
    }

    #[test]
    fn representation_is_canonical() {
        // Word-sized values are inline; anything above u64::MAX leaves
        // the inline tier.
        assert!(b(0).is_inline());
        assert!(b(u128::from(u64::MAX)).is_inline());
        assert!(!b(u128::from(u64::MAX) + 1).is_inline());
        // Results shrink back to inline when they fit.
        let big = b(u128::from(u64::MAX) + 5);
        assert!((&big - &b(5)).is_inline());
        let (q, r) = big.div_rem(&b(2));
        assert!(q.is_inline() && r.is_inline());
        // Inline results of inline ops never leave the word path.
        assert!((&b(1) << 63u64).is_inline());
        assert!(!(&b(1) << 64u64).is_inline());
    }

    #[test]
    fn representation_lattice_tiers() {
        // Inline ≤ u64::MAX < Fixed < 2^FIXED_BITS ≤ Heap, with exact
        // boundary values on the correct side of each edge.
        assert!(b(u128::from(u64::MAX)).is_inline());
        let fixed_lo = b(u128::from(u64::MAX) + 1);
        assert!(fixed_lo.is_fixed());
        let heap_lo = &b(1) << BigUint::FIXED_BITS;
        let fixed_hi = &heap_lo - &b(1);
        assert!(fixed_hi.is_fixed());
        assert!(heap_lo.is_heap());
        // Escalation: a fixed × fixed product crossing 2^FIXED_BITS lands
        // on the heap…
        let prod = &fixed_hi * &fixed_hi;
        assert!(prod.is_heap());
        // …and division shrinks back down through both boundaries.
        let (q, r) = prod.div_rem(&fixed_hi);
        assert_eq!(q, fixed_hi);
        assert!(r.is_zero() && q.is_fixed());
        assert!((&heap_lo - &b(1)).is_fixed());
        assert!(fixed_lo.checked_sub(&b(1)).unwrap().is_inline());
        // Addition escalates fixed → heap exactly at the carry out.
        assert!((&fixed_hi + &b(1)).is_heap());
        assert_eq!(&fixed_hi + &b(1), heap_lo);
        // Ordering is consistent across all tier pairs.
        assert!(b(7) < fixed_lo && fixed_lo < fixed_hi && fixed_hi < heap_lo);
        assert!(heap_lo > fixed_hi && fixed_lo > b(7));
    }

    #[test]
    fn fixed_tier_mixed_ops_match_u128() {
        // Two-word values stay exactly representable in u128, so every
        // mixed inline/fixed op has a machine-checked reference.
        let a = (1u128 << 100) + 12345;
        let c = (1u128 << 90) + 7;
        let w = 0xDEAD_BEEFu128;
        assert_eq!(&b(a) + &b(c), b(a + c));
        assert_eq!(&b(a) - &b(c), b(a - c));
        assert_eq!(&b(a) + &b(w), b(a + w));
        assert_eq!(b(a).checked_sub(&b(w)), Some(b(a - w)));
        assert_eq!(&b(c) * &b(w), b(c * w));
        // A fixed × fixed product exceeds u128; check it by the division
        // identity instead.
        let p = &b(a) * &b(c);
        let (q, r) = p.div_rem(&b(c));
        assert_eq!((q, r), (b(a), BigUint::zero()));
        let (q, r) = b(a).div_rem(&b(c));
        assert_eq!((q, r), (b(a / c), b(a % c)));
        let (q, r) = b(a).div_rem(&b(w));
        assert_eq!((q, r), (b(a / w), b(a % w)));
        assert_eq!(b(a).gcd(&b(c)), b(1));
        assert_eq!(b(1u128 << 100).gcd(&b(1u128 << 90)), b(1u128 << 90));
    }

    #[test]
    fn addition_with_carry_chain() {
        let a = b(u128::from(u64::MAX));
        let sum = &a + &BigUint::one();
        assert_eq!(sum, b(u128::from(u64::MAX) + 1));
    }

    #[test]
    fn add_assign_in_place_and_overflowing() {
        let mut x = b(10);
        x += &b(32);
        assert_eq!(x, b(42));
        let mut y = b(u128::from(u64::MAX));
        y += &BigUint::one();
        assert_eq!(y, b(u128::from(u64::MAX) + 1));
        let mut z = b(1) << 100u64;
        z += &b(1);
        assert_eq!(z, (b(1) << 100u64) + b(1));
    }

    #[test]
    fn mul_assign_in_place_and_overflowing() {
        let mut x = b(6);
        x *= &b(7);
        assert_eq!(x, b(42));
        let mut y = b(u128::from(u64::MAX));
        y *= &b(3);
        assert_eq!(y, b(u128::from(u64::MAX) * 3));
    }

    #[test]
    fn subtraction_exact_and_underflow() {
        assert_eq!(&b(1000) - &b(999), b(1));
        assert_eq!(b(5).checked_sub(&b(5)), Some(BigUint::zero()));
        assert!(b(5).checked_sub(&b(6)).is_none());
        // Cross-representation: heap − inline landing back inline.
        let big = b(u128::from(u64::MAX)) + b(10);
        assert_eq!(big.checked_sub(&b(11)), Some(b(u128::from(u64::MAX) - 1)));
        assert!(b(7).checked_sub(&(b(1) << 100u64)).is_none());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_panics_on_underflow() {
        let _ = &b(1) - &b(2);
    }

    #[test]
    fn multiplication_cross_limb() {
        let a = b(0xFFFF_FFFF_FFFF_FFFF);
        let c = &a * &a;
        assert_eq!(c, b(0xFFFF_FFFF_FFFF_FFFF * 0xFFFF_FFFF_FFFF_FFFFu128));
    }

    #[test]
    fn division_single_limb() {
        let (q, r) = b(1_000_000_007).div_rem(&b(13));
        assert_eq!(q, b(1_000_000_007 / 13));
        assert_eq!(r, b(1_000_000_007 % 13));
    }

    #[test]
    fn division_multi_limb_knuth() {
        let a = BigUint::from(10u32).pow(40);
        let d = BigUint::from(10u32).pow(17) + BigUint::from(7u32);
        let (q, r) = a.div_rem(&d);
        assert_eq!(&q * &d + &r, a);
        assert!(r < d);
    }

    #[test]
    fn division_knuth_addback_case() {
        // Construct a case exercising the rare "add back" step: the classic
        // example uses divisor with high limb pattern 0x8000....
        let u = (&(BigUint::from(1u32) << 96u64) - &BigUint::one()) << 32u64;
        let v = (BigUint::from(1u32) << 96u64) - BigUint::one();
        let (q, r) = u.div_rem(&v);
        assert_eq!(&q * &v + &r, u);
        assert!(r < v);
    }

    #[test]
    fn division_by_zero_panics() {
        let r = std::panic::catch_unwind(|| b(5).div_rem(&BigUint::zero()));
        assert!(r.is_err());
    }

    #[test]
    fn division_inline_by_heap_is_zero() {
        let small = b(12345);
        let huge = b(1) << 200u64;
        let (q, r) = small.div_rem(&huge);
        assert!(q.is_zero());
        assert_eq!(r, small);
    }

    #[test]
    fn shifts_roundtrip() {
        let a = b(0x1234_5678_9ABC_DEF0);
        assert_eq!(&(&a << 100u64) >> 100u64, a);
        assert_eq!(&a >> 200u64, BigUint::zero());
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(b(48).gcd(&b(36)), b(12));
        assert_eq!(b(17).gcd(&b(13)), b(1));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(5).gcd(&b(0)), b(5));
        assert_eq!(BigUint::zero().gcd(&BigUint::zero()), BigUint::zero());
    }

    #[test]
    fn gcd_crosses_representations() {
        // 2^100 and 2^37: gcd is 2^37 (inline), reached from a heap operand.
        let a = b(1) << 100u64;
        let c = b(1) << 37u64;
        assert_eq!(a.gcd(&c), c);
        assert_eq!(c.gcd(&a), c);
        // Coprime heap values.
        let p = (b(1) << 89u64) - b(1); // Mersenne prime 2^89 − 1
        let q = b(1) << 90u64;
        assert!(p.gcd(&q).is_one());
    }

    #[test]
    fn pow_and_bits() {
        assert_eq!(BigUint::from(2u32).pow(100).bits(), 101);
        assert_eq!(BigUint::from(3u32).pow(0), BigUint::one());
        assert_eq!(BigUint::zero().pow(0), BigUint::one());
        assert_eq!(BigUint::zero().pow(5), BigUint::zero());
        assert_eq!(b(u128::from(u64::MAX)).bits(), 64);
        assert_eq!(b(u128::from(u64::MAX) + 1).bits(), 65);
    }

    #[test]
    fn display_and_parse_roundtrip() {
        let cases = [
            "0",
            "1",
            "999999999",
            "1000000000",
            "18446744073709551615",
            "18446744073709551616",
            "123456789012345678901234567890",
        ];
        for c in cases {
            let v: BigUint = c.parse().unwrap();
            assert_eq!(v.to_string(), c);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigUint>().is_err());
        assert!("12a4".parse::<BigUint>().is_err());
        assert!("-5".parse::<BigUint>().is_err());
        // 25 digits of garbage exercises the chunked path's error branch.
        assert!("123456789012345678901234x".parse::<BigUint>().is_err());
    }

    #[test]
    fn parse_20_digit_values_above_and_below_u64_max() {
        // 20-digit strings straddle u64::MAX; both sides must parse.
        let just_above: BigUint = "18446744073709551616".parse().unwrap();
        assert_eq!(just_above, b(u128::from(u64::MAX) + 1));
        assert!(!just_above.is_inline());
        let padded: BigUint = "00018446744073709551615".parse().unwrap();
        assert_eq!(padded, b(u128::from(u64::MAX)));
        assert!(padded.is_inline());
    }

    #[test]
    fn ordering_spans_limb_counts() {
        assert!(b(u128::from(u64::MAX)) > b(1));
        assert!(b(1) < (BigUint::from(1u32) << 64u64));
        assert_eq!(b(77).cmp(&b(77)), Ordering::Equal);
        assert!(b(u128::from(u64::MAX)) < b(u128::from(u64::MAX)) + b(1));
    }

    #[test]
    fn hash_equal_values_equal_hashes() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &BigUint| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        // The same value computed via inline and via heap-then-shrink paths.
        let inline = b(u128::from(u64::MAX));
        let shrunk = (b(u128::from(u64::MAX)) + b(7)) - b(7);
        assert_eq!(inline, shrunk);
        assert_eq!(h(&inline), h(&shrunk));
    }

    #[test]
    fn to_f64_small_and_large() {
        assert_eq!(b(0).to_f64(), 0.0);
        assert_eq!(b(1u128 << 70).to_f64(), 2f64.powi(70));
        // Exactly-rounded conversion means the decimal literal (itself the
        // nearest double to 10^30) matches bit for bit.
        assert_eq!(BigUint::from(10u32).pow(30).to_f64(), 1e30);
        assert_eq!(BigUint::from(10u32).pow(40).to_f64(), 1e40);
    }

    #[test]
    fn to_f64_rounds_to_nearest_even_at_half_ulp() {
        // For values in [2^70, 2^71) one ulp is 2^18, so 2^17 is exactly
        // half. These live in the fixed tier (71 bits).
        let base = 1u128 << 70;
        // Tie with even mantissa: rounds down.
        assert_eq!(b(base + (1 << 17)).to_f64(), 2f64.powi(70));
        // Just above the tie: rounds up (the old truncation got this wrong).
        assert_eq!(
            b(base + (1 << 17) + 1).to_f64(),
            2f64.powi(70) + 2f64.powi(18)
        );
        // Just below the tie: rounds down.
        assert_eq!(b(base + (1 << 17) - 1).to_f64(), 2f64.powi(70));
        // Tie with odd mantissa: rounds up to even.
        assert_eq!(
            b(base + (1 << 18) + (1 << 17)).to_f64(),
            2f64.powi(70) + 2f64.powi(19)
        );
        // Mantissa overflow on round-up: 2^71 − 1 is all ones → 2^71.
        assert_eq!(b((1u128 << 71) - 1).to_f64(), 2f64.powi(71));
    }

    #[test]
    fn to_f64_sticky_bit_spans_low_limbs() {
        // Heap tier: ulp in [2^200, 2^201) is 2^148. The +1 lives limbs
        // below the 64-bit extraction window and must flip the tie via
        // the sticky bit.
        let base = &b(1) << 200u64;
        let tie = &base + &(&b(1) << 147u64);
        assert_eq!(tie.to_f64(), 2f64.powi(200)); // even mantissa, tie → down
        let above = &tie + &b(1);
        assert_eq!(above.to_f64(), 2f64.powi(200) + 2f64.powi(148));
        // u64::MAX stays exact through the inline path's hardware rounding.
        assert_eq!(b(u128::from(u64::MAX)).to_f64(), 2f64.powi(64));
    }

    #[test]
    fn even_odd() {
        assert!(b(0).is_even());
        assert!(b(2).is_even());
        assert!(!b(3).is_even());
        assert!((b(1) << 100u64).is_even());
    }
}
