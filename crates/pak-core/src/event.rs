//! Run events: measurable subsets of `R_T`.
//!
//! In a finite pps every subset of runs is measurable (§2.1 of the paper), so
//! an *event* is simply a set of runs. [`RunSet`] is a compact bitset over
//! run indices supporting the boolean algebra the analyses need.

use core::fmt;

use crate::ids::RunId;

/// A set of runs of a pps, i.e. an event in the probability space `X_T`.
///
/// # Examples
///
/// ```
/// use pak_core::event::RunSet;
/// use pak_core::ids::RunId;
///
/// let mut a = RunSet::empty(8);
/// a.insert(RunId(1));
/// a.insert(RunId(3));
/// let b = RunSet::full(8);
/// assert_eq!(a.intersection(&b), a);
/// assert_eq!(a.complement().len(), 6);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RunSet {
    /// Number of runs in the universe `R_T`.
    universe: usize,
    /// Bit blocks, little-endian; bits beyond `universe` are always zero.
    blocks: Vec<u64>,
}

impl RunSet {
    /// The empty event over a universe of `universe` runs.
    #[must_use]
    pub fn empty(universe: usize) -> Self {
        RunSet {
            universe,
            blocks: vec![0; universe.div_ceil(64)],
        }
    }

    /// The full event `R_T` over a universe of `universe` runs.
    #[must_use]
    pub fn full(universe: usize) -> Self {
        let mut s = Self::empty(universe);
        for b in &mut s.blocks {
            *b = u64::MAX;
        }
        s.trim();
        s
    }

    /// Builds an event from the runs selected by a predicate.
    #[must_use]
    pub fn from_predicate(universe: usize, mut pred: impl FnMut(RunId) -> bool) -> Self {
        let mut s = Self::empty(universe);
        for i in 0..universe {
            let run = RunId(i as u32);
            if pred(run) {
                s.insert(run);
            }
        }
        s
    }

    /// Clears any bits beyond the universe size.
    fn trim(&mut self) {
        let rem = self.universe % 64;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// The number of runs in the universe (not the event).
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The number of runs in the event.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// The bytes this event occupies: the struct plus its bit blocks.
    /// Feeds [`Pps::memory_footprint`](crate::pps::Pps::memory_footprint).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.blocks.len() * std::mem::size_of::<u64>()
    }

    /// Returns `true` if the event contains no runs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Adds a run to the event.
    ///
    /// # Panics
    ///
    /// Panics if `run` is outside the universe.
    pub fn insert(&mut self, run: RunId) {
        let i = run.index();
        assert!(
            i < self.universe,
            "run {run} outside universe {}",
            self.universe
        );
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    /// Adds every run in the half-open index range `range` to the event,
    /// one whole 64-bit block at a time.
    ///
    /// The pps build pass relies on this: the runs through a tree node form
    /// a contiguous interval in DFS order, so filling a cell's run-set
    /// costs O(words covered) instead of one [`RunSet::insert`] per run.
    ///
    /// # Panics
    ///
    /// Panics if the range is decreasing or reaches outside the universe.
    pub fn insert_range(&mut self, range: core::ops::Range<usize>) {
        let (lo, hi) = (range.start, range.end);
        assert!(
            lo <= hi && hi <= self.universe,
            "range {lo}..{hi} outside universe {}",
            self.universe
        );
        if lo == hi {
            return;
        }
        // Masks select the bits ≥ lo in the first word and ≤ hi − 1 in the
        // last; every word strictly between is filled whole.
        let (first_word, first_bit) = (lo / 64, lo % 64);
        let (last_word, last_bit) = ((hi - 1) / 64, (hi - 1) % 64);
        let lo_mask = u64::MAX << first_bit;
        let hi_mask = u64::MAX >> (63 - last_bit);
        if first_word == last_word {
            self.blocks[first_word] |= lo_mask & hi_mask;
        } else {
            self.blocks[first_word] |= lo_mask;
            for block in &mut self.blocks[first_word + 1..last_word] {
                *block = u64::MAX;
            }
            self.blocks[last_word] |= hi_mask;
        }
    }

    /// Resets the event to empty over a (possibly different) universe,
    /// reusing the block allocation. Equivalent to `*self =
    /// RunSet::empty(universe)` without the round-trip through the
    /// allocator — the incremental extension repair resets every retained
    /// cell's run-set each level, where that round-trip adds up. A
    /// universe that outgrows the allocation gets twice the blocks it
    /// needs, since growing trees usually grow again at the next level.
    pub fn reset(&mut self, universe: usize) {
        self.universe = universe;
        self.blocks.clear();
        let words = universe.div_ceil(64);
        if words > self.blocks.capacity() {
            self.blocks.reserve_exact(2 * words);
        }
        self.blocks.resize(words, 0);
    }

    /// Removes a run from the event.
    pub fn remove(&mut self, run: RunId) {
        let i = run.index();
        if i < self.universe {
            self.blocks[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Returns `true` if the event contains `run`.
    #[must_use]
    pub fn contains(&self, run: RunId) -> bool {
        let i = run.index();
        i < self.universe && (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set intersection (conjunction of events).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn intersection(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a & b)
    }

    /// Set union (disjunction of events).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a | b)
    }

    /// Set difference `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn difference(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a & !b)
    }

    /// In-place union: `self ∪= other`. The allocation-free companion of
    /// [`RunSet::union`] for accumulation loops (e.g. OR-ing cell run-sets
    /// into a verdict event).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &Self) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Complement within the universe (negation of the event).
    #[must_use]
    pub fn complement(&self) -> Self {
        let mut out = RunSet {
            universe: self.universe,
            blocks: self.blocks.iter().map(|b| !b).collect(),
        };
        out.trim();
        out
    }

    /// Returns `true` if `self ⊆ other`.
    #[must_use]
    pub fn is_subset(&self, other: &Self) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if the events share no runs.
    #[must_use]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & b == 0)
    }

    fn zip_with(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        RunSet {
            universe: self.universe,
            blocks: self
                .blocks
                .iter()
                .zip(&other.blocks)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Iterates over the runs in the event in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = RunId> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut b = block;
            core::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let bit = b.trailing_zeros() as usize;
                    b &= b - 1;
                    Some(RunId((bi * 64 + bit) as u32))
                }
            })
        })
    }

    /// Iterates over `self ∩ other` without materialising the
    /// intersection — the measure-of-intersection hot path uses this to
    /// stay allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn iter_and<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = RunId> + 'a {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .enumerate()
            .flat_map(|(bi, (&x, &y))| {
                let mut b = x & y;
                core::iter::from_fn(move || {
                    if b == 0 {
                        None
                    } else {
                        let bit = b.trailing_zeros() as usize;
                        b &= b - 1;
                        Some(RunId((bi * 64 + bit) as u32))
                    }
                })
            })
    }
}

impl fmt::Debug for RunSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RunSet{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", r.0)?;
        }
        write!(f, "}} of {}", self.universe)
    }
}

impl FromIterator<RunId> for RunSet {
    /// Collects runs into a set whose universe is the largest index + 1.
    ///
    /// Prefer [`RunSet::empty`] + [`RunSet::insert`] when the universe size
    /// is known (which it always is, from the pps).
    fn from_iter<T: IntoIterator<Item = RunId>>(iter: T) -> Self {
        let runs: Vec<RunId> = iter.into_iter().collect();
        let universe = runs.iter().map(|r| r.index() + 1).max().unwrap_or(0);
        let mut s = RunSet::empty(universe);
        for r in runs {
            s.insert(r);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(universe: usize, runs: &[u32]) -> RunSet {
        let mut s = RunSet::empty(universe);
        for &r in runs {
            s.insert(RunId(r));
        }
        s
    }

    #[test]
    fn union_with_matches_union() {
        let a0 = set(130, &[0, 63, 64, 129]);
        let b = set(130, &[1, 63, 100]);
        let mut a = a0.clone();
        a.union_with(&b);
        assert_eq!(a, a0.union(&b));
        let mut e = RunSet::empty(0);
        e.union_with(&RunSet::empty(0));
        assert_eq!(e, RunSet::empty(0));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn union_with_rejects_universe_mismatch() {
        let mut a = set(10, &[1]);
        a.union_with(&set(11, &[1]));
    }

    #[test]
    fn empty_and_full() {
        assert!(RunSet::empty(10).is_empty());
        assert_eq!(RunSet::full(10).len(), 10);
        assert_eq!(RunSet::full(0).len(), 0);
        assert_eq!(RunSet::full(64).len(), 64);
        assert_eq!(RunSet::full(65).len(), 65);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = RunSet::empty(100);
        s.insert(RunId(63));
        s.insert(RunId(64));
        assert!(s.contains(RunId(63)));
        assert!(s.contains(RunId(64)));
        assert!(!s.contains(RunId(65)));
        s.remove(RunId(63));
        assert!(!s.contains(RunId(63)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        RunSet::empty(5).insert(RunId(5));
    }

    #[test]
    fn reset_equals_fresh_empty() {
        // Shrinking, growing, and same-size resets all leave the set
        // indistinguishable from a freshly allocated empty one.
        let mut s = set(100, &[0, 63, 64, 99]);
        for universe in [100usize, 3, 0, 64, 65, 200, 1] {
            s.reset(universe);
            assert_eq!(s, RunSet::empty(universe), "universe {universe}");
            if universe > 0 {
                s.insert(RunId(universe as u32 - 1));
                assert_eq!(s.len(), 1);
            }
        }
    }

    /// Bit-by-bit reference for [`RunSet::insert_range`].
    fn insert_range_reference(s: &mut RunSet, range: core::ops::Range<usize>) {
        for i in range {
            s.insert(RunId(i as u32));
        }
    }

    #[test]
    fn insert_range_matches_bit_by_bit_reference() {
        // Sweep every (lo, hi) pair over universes straddling one, two, and
        // three words, on top of a non-empty starting set (ranges must OR
        // into existing bits, not overwrite them).
        for universe in [0usize, 1, 5, 63, 64, 65, 127, 128, 130, 192] {
            let mut base = RunSet::empty(universe);
            for i in (0..universe).step_by(7) {
                base.insert(RunId(i as u32));
            }
            for lo in 0..=universe {
                for hi in lo..=universe {
                    let mut fast = base.clone();
                    fast.insert_range(lo..hi);
                    let mut slow = base.clone();
                    insert_range_reference(&mut slow, lo..hi);
                    assert_eq!(fast, slow, "universe {universe}, range {lo}..{hi}");
                    assert_eq!(fast.len(), slow.len());
                }
            }
        }
    }

    #[test]
    fn insert_range_word_boundaries_and_extremes() {
        // Exact word-boundary ranges.
        let mut s = RunSet::empty(192);
        s.insert_range(64..128);
        assert_eq!(s.len(), 64);
        assert!(!s.contains(RunId(63)) && s.contains(RunId(64)));
        assert!(s.contains(RunId(127)) && !s.contains(RunId(128)));
        // The empty range is a no-op anywhere, including at the end.
        let mut e = RunSet::empty(70);
        e.insert_range(0..0);
        e.insert_range(70..70);
        assert!(e.is_empty());
        // The full range equals RunSet::full.
        let mut f = RunSet::empty(130);
        f.insert_range(0..130);
        assert_eq!(f, RunSet::full(130));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_range_past_universe_panics() {
        RunSet::empty(10).insert_range(5..11);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    #[allow(clippy::reversed_empty_ranges)] // the rejection under test
    fn insert_range_decreasing_panics() {
        RunSet::empty(10).insert_range(5..4);
    }

    #[test]
    fn boolean_algebra() {
        let a = set(10, &[1, 2, 3]);
        let b = set(10, &[3, 4]);
        assert_eq!(a.intersection(&b), set(10, &[3]));
        assert_eq!(a.union(&b), set(10, &[1, 2, 3, 4]));
        assert_eq!(a.difference(&b), set(10, &[1, 2]));
        assert_eq!(a.complement(), set(10, &[0, 4, 5, 6, 7, 8, 9]));
    }

    #[test]
    fn de_morgan_law() {
        let a = set(70, &[0, 10, 65]);
        let b = set(70, &[10, 66]);
        assert_eq!(
            a.union(&b).complement(),
            a.complement().intersection(&b.complement())
        );
    }

    #[test]
    fn subset_and_disjoint() {
        let a = set(10, &[1, 2]);
        let b = set(10, &[1, 2, 3]);
        let c = set(10, &[4]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(RunSet::empty(10).is_subset(&a));
    }

    #[test]
    fn iteration_in_order() {
        let s = set(130, &[0, 64, 129, 5]);
        let got: Vec<u32> = s.iter().map(|r| r.0).collect();
        assert_eq!(got, vec![0, 5, 64, 129]);
    }

    #[test]
    fn from_predicate_and_from_iter() {
        let evens = RunSet::from_predicate(10, |r| r.0 % 2 == 0);
        assert_eq!(evens.len(), 5);
        let collected: RunSet = [RunId(2), RunId(7)].into_iter().collect();
        assert!(collected.contains(RunId(7)));
        assert_eq!(collected.universe(), 8);
    }

    #[test]
    fn complement_respects_partial_block() {
        let s = set(3, &[0]);
        let c = s.complement();
        assert_eq!(c.len(), 2);
        assert!(c.contains(RunId(1)) && c.contains(RunId(2)));
    }
}
