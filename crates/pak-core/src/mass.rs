//! Exact measures as integer sums over a tree-wide common denominator.
//!
//! Every run probability of a finite tree over [`Rational`] is `n_r / D`
//! for one denominator `D`, the lcm of the run denominators. A
//! conditional measure `µ(A | B)` is then `Σ_{A∩B} n_r / Σ_B n_r` — two
//! integer sums and one reduction — instead of a `Rational` addition
//! (with its gcds) per run and a division per call. A belief threshold
//! `µ(A | B) ≥ p` needs no reduction at all: it is the cross-multiplied
//! `Σ_{A∩B} · den(p) ≥ num(p) · Σ_B`.
//!
//! The run probabilities of a valid tree sum to exactly one, so the
//! numerators sum to `D` and **every subset sum is at most `D`**: one
//! width `w = words(D)` holds every sum a tree can ask for, and nothing
//! escalates mid-sum. The carries are `pak-num`'s limb kernels
//! ([`pak_num::limbs`]).
//!
//! [`Probability::Column`] is the one place the exact and the
//! floating-point paths part: [`Rational`] sums over an [`IntegerColumn`],
//! while `f64` names [`NoColumn`], which is never built, so its measures
//! keep the ascending-order fold the naive checker uses, bit for bit.
//! [`Pps`](crate::pps::Pps) builds its column lazily, on the first
//! conditional it is asked for, and keeps it for as long as the tree
//! lives.

use core::fmt::Debug;

use pak_num::{limbs, BigInt, BigUint, Rational};

use crate::event::RunSet;
use crate::ids::{CellId, RunId};
use crate::prob::Probability;

/// A tree's exact mass column: its run probabilities as integers over
/// one common denominator, plus each cell's mass, which no formula
/// changes.
pub trait MassColumn<P>: Clone + Debug + Send + Sync + Sized {
    /// Builds the column of a tree from its run probabilities (in run
    /// order) and its cells' run sets (in cell-id order), or `None` when
    /// `P` has no exact integer form.
    fn build<'a>(run_probs: &[P], cells: impl Iterator<Item = &'a RunSet>) -> Option<Self>;

    /// `µ(A | B)`, `None` when `B` is empty — the contract of
    /// [`Pps::conditional`](crate::pps::Pps::conditional).
    fn conditional(&self, a: &RunSet, b: &RunSet) -> Option<P>;

    /// `µ(A | ℓ) ≥ p` for the cell `cell`, whose run set is `runs` — the
    /// verdict of `B_i^{≥p}` on that cell, decided without building the
    /// belief.
    fn cell_at_least(&self, a: &RunSet, cell: CellId, runs: &RunSet, p: &P) -> bool;
}

/// The column of a type without an exact integer form (`f64`): it is
/// uninhabited, so [`MassColumn::build`] always answers `None`.
#[derive(Debug, Clone)]
pub enum NoColumn {}

impl<P: Probability> MassColumn<P> for NoColumn {
    fn build<'a>(_: &[P], _: impl Iterator<Item = &'a RunSet>) -> Option<Self> {
        None
    }

    fn conditional(&self, _: &RunSet, _: &RunSet) -> Option<P> {
        match *self {}
    }

    fn cell_at_least(&self, _: &RunSet, _: CellId, _: &RunSet, _: &P) -> bool {
        match *self {}
    }
}

/// [`Rational`] run probabilities as `u64`-word numerators over their
/// least common denominator `D`, each `w = words(D)` words wide.
#[derive(Debug, Clone)]
pub struct IntegerColumn {
    /// Words per numerator and per sum.
    width: usize,
    /// `n_r = µ(r)·D`, run `r` at `[r·w, (r+1)·w)`, zero-padded.
    numerators: Vec<u64>,
    /// Each cell's `Σ_ℓ n_r`, laid out like `numerators`.
    cell_sums: Vec<u64>,
}

impl IntegerColumn {
    /// Adds the numerators of `runs` into the zeroed `acc` (`w` words) and
    /// returns how many runs it added.
    fn sum_into(&self, runs: impl Iterator<Item = RunId>, acc: &mut [u64]) -> usize {
        let w = self.width;
        let mut count = 0;
        if w == 1 {
            // Every sum is at most `D < 2^64`: plain word additions.
            let mut sum = 0u64;
            for r in runs {
                sum += self.numerators[r.index()];
                count += 1;
            }
            acc[0] = sum;
        } else {
            for r in runs {
                let n = &self.numerators[r.index() * w..][..w];
                let carry = limbs::add_assign(acc, n);
                debug_assert!(!carry, "a subset sum exceeds the common denominator");
                count += 1;
            }
        }
        count
    }
}

impl MassColumn<Rational> for IntegerColumn {
    fn build<'a>(run_probs: &[Rational], cells: impl Iterator<Item = &'a RunSet>) -> Option<Self> {
        // D = lcm of the run denominators; neighbouring runs often share
        // one, which then costs a comparison.
        let mut den = BigUint::one();
        let mut last: Option<&BigUint> = None;
        for p in run_probs {
            let d = p.denom();
            if last != Some(d) {
                let g = den.gcd(d);
                if &g != d {
                    den = &den * &(d / &g);
                }
                last = Some(d);
            }
        }
        let width = den.limbs().len();
        let mut numerators = vec![0; run_probs.len() * width];
        let (mut last, mut factor) = (BigUint::zero(), BigUint::zero());
        for (p, slot) in run_probs.iter().zip(numerators.chunks_exact_mut(width)) {
            debug_assert!(!p.is_negative(), "run probabilities are positive");
            if p.denom() != &last {
                last = p.denom().clone();
                factor = &den / &last;
            }
            let n = p.numer().magnitude() * &factor;
            slot[..n.limbs().len()].copy_from_slice(n.limbs());
        }
        let mut column = IntegerColumn {
            width,
            numerators,
            cell_sums: Vec::new(),
        };
        let mut cell_sums = Vec::with_capacity(cells.size_hint().0 * width);
        for runs in cells {
            let at = cell_sums.len();
            cell_sums.resize(at + width, 0);
            column.sum_into(runs.iter(), &mut cell_sums[at..]);
        }
        column.cell_sums = cell_sums;
        Some(column)
    }

    fn conditional(&self, a: &RunSet, b: &RunSet) -> Option<Rational> {
        let w = self.width;
        with_scratch(2 * w, |scratch| {
            let (sum_ab, sum_b) = scratch.split_at_mut(w);
            let n_ab = self.sum_into(a.iter_and(b), sum_ab);
            let n_b = b.len();
            // The 0/1 answers need neither the sum over B nor a quotient.
            if n_b == 0 {
                None
            } else if n_ab == 0 {
                Some(Rational::zero())
            } else if n_ab == n_b {
                Some(Rational::one())
            } else {
                self.sum_into(b.iter(), sum_b);
                let ratio = Rational::new(
                    BigInt::from(BigUint::from_limbs(sum_ab)),
                    BigInt::from(BigUint::from_limbs(sum_b)),
                );
                Some(ratio.expect("a nonempty event has positive mass"))
            }
        })
    }

    fn cell_at_least(&self, a: &RunSet, cell: CellId, runs: &RunSet, p: &Rational) -> bool {
        let w = self.width;
        with_scratch(w, |sum_ab| {
            let n_ab = self.sum_into(a.iter_and(runs), sum_ab);
            if n_ab == 0 {
                return Rational::zero() >= *p;
            }
            if n_ab == runs.len() {
                return Rational::one() >= *p;
            }
            if !p.is_positive() {
                return true;
            }
            // Σ_ab · den(p) ≥ num(p) · Σ_b, with Σ_b > 0 and den(p) > 0.
            let sum_b = &self.cell_sums[cell.index() * w..][..w];
            let (den, num) = (p.denom().limbs(), p.numer().magnitude().limbs());
            with_scratch(2 * w + den.len() + num.len(), |scratch| {
                let (lhs, rhs) = scratch.split_at_mut(w + den.len());
                limbs::mul(sum_ab, den, lhs);
                limbs::mul(num, sum_b, rhs);
                let (lhs, rhs) = (&lhs[..limbs::sig_len(lhs)], &rhs[..limbs::sig_len(rhs)]);
                limbs::cmp(lhs, rhs).is_ge()
            })
        })
    }
}

/// Runs `f` on `len` zeroed words: on the stack up to `STACK` words, on
/// the heap beyond.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    const STACK: usize = 24;
    if len <= STACK {
        f(&mut [0; STACK][..len])
    } else {
        f(&mut vec![0; len])
    }
}
