//! Arbitrary-precision integer and exact rational arithmetic.
//!
//! This crate provides the exact numeric substrate for the `pak` workspace.
//! The headline theorem of *Probably Approximately Knowing* (Zamir & Moses,
//! PODC 2020) — Theorem 6.2 — states an **equality** between a conditional
//! prior probability and an expected posterior belief. Verifying an equality
//! with floating point would weaken the reproduction, so every theorem check
//! in [`pak-core`](https://docs.rs/pak-core) runs over the exact [`Rational`]
//! type defined here.
//!
//! The implementation is self-contained (no external bignum dependency):
//!
//! * [`BigUint`] — unsigned arbitrary-precision integer, with full
//!   arithmetic including Knuth Algorithm D division.
//! * [`BigInt`] — signed wrapper (sign + magnitude).
//! * [`Rational`] — exact rational number, always stored in lowest terms with
//!   a strictly positive denominator.
//!
//! # Representation invariants
//!
//! `BigUint` uses a **three-tier layout** tuned for the workspace's hot
//! path, where almost every probability numerator and denominator is at
//! most a few words:
//!
//! * **Inline(`u64`)** holds every value `≤ u64::MAX` directly in the
//!   enum. Arithmetic between inline values (`add`/`sub`/`mul`/
//!   `div_rem`/`gcd`/`cmp`/shifts) runs on machine words, widening to
//!   `u128` where a product or carry demands it, and **never touches the
//!   allocator**.
//! * **Fixed(`[u64; 3]`)** holds values in `(u64::MAX, 2^192)` in a
//!   stack-resident word array.
//! * **Heap(`Vec<u64>`)** holds values `≥ 2^192` as little-endian 64-bit
//!   words with no zero word on top (so the vector always has at least
//!   four words).
//!
//! The fixed and heap tiers share one set of `u64`-word kernels (add,
//! sub, schoolbook mul, Knuth Algorithm D division, shifts) and differ
//! only in where a kernel writes its result: a stack scratch array when
//! it fits six words, so all arithmetic between inline and fixed operands
//! — including division and gcd normalisation — stays on the stack, and a
//! `Vec` beyond.
//!
//! The representation is **canonical**: every value has exactly one
//! representation, results that shrink across a tier boundary are
//! normalised back down (heap → fixed → inline), and therefore the derived
//! `PartialEq`/`Ord`-consistent `Hash` is value hashing and `Display`
//! prints identical digits whichever tier a value was computed in. The
//! property tests (`crates/pak-num/tests/properties.rs`) check every
//! operation against a naive base-2⁸ reference that shares no code with
//! this crate, against `u128` arithmetic up to two words, and by
//! identities and round-trips around every tier boundary (`u64::MAX`,
//! `2^192`).
//!
//! `Rational` layers word fast paths on top: comparison cross-multiplies
//! through `u128` when both sides are word-sized, addition and
//! multiplication normalise word-sized operands via binary `u64`/`u128`
//! gcds without constructing intermediate big integers, and in-place
//! `AddAssign`/`MulAssign` let accumulation loops avoid temporaries.
//!
//! # Panics
//!
//! The unsigned types keep the conventional operator contracts: `BigUint`
//! subtraction (`Sub`/`SubAssign`) panics when the result would be
//! negative, and division panics on a zero divisor. Use
//! [`BigUint::checked_sub`] where the operand ordering is not statically
//! known. Signed and rational arithmetic never panics except for division
//! by zero.
//!
//! # Examples
//!
//! ```
//! use pak_num::Rational;
//!
//! // Probabilities compose exactly: 0.9 * 0.9 + 2 * 0.1 * 0.9 == 0.99
//! let d = Rational::from_ratio(9, 10);
//! let l = Rational::from_ratio(1, 10);
//! let both = &d * &d + Rational::from_ratio(2, 1) * &l * &d;
//! assert_eq!(both, Rational::from_ratio(99, 100));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod biguint;
mod decimal;
pub mod limbs;
mod parse;
mod rational;

pub use bigint::{BigInt, Sign};
pub use biguint::BigUint;
pub use decimal::DecimalRounding;
pub use parse::ParseNumberError;
pub use rational::Rational;
