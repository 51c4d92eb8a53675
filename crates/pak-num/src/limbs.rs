//! Little-endian `u64`-limb slice kernels.
//!
//! The one set of multi-word algorithms behind [`BigUint`](crate::BigUint)'s
//! two wide tiers: the stack-resident `Fixed([u64; 3])` tier runs them into
//! stack scratch arrays, the `Heap(Vec<u64>)` tier into vectors, so the two
//! tiers share every line of carry, borrow and quotient logic. The public
//! kernels ([`sig_len`], [`cmp`], [`add_assign`], [`mul`]) also serve
//! fixed-width integer sums outside this crate — `pak-core`'s mass column
//! of exact run numerators — so no caller needs a carry loop of its own.
//!
//! Every kernel works on plain slices and never allocates. Carries and
//! borrows go through `u128` widening (the stable-Rust spelling of
//! `carrying_add`/`borrowing_sub`), products are schoolbook with `u128`
//! partials, and long division is Knuth Algorithm D on 64-bit limbs. The
//! kernels are dumb about canonical form: inputs may carry zero words on
//! top unless a kernel says otherwise, and outputs are zero-padded to the
//! buffer the caller hands in. `BigUint` trims and re-tiers every result.

use core::cmp::Ordering;

/// Number of significant words (0 for the value zero).
#[inline]
#[must_use]
pub fn sig_len(a: &[u64]) -> usize {
    let mut len = a.len();
    while len > 0 && a[len - 1] == 0 {
        len -= 1;
    }
    len
}

/// Number of significant bits (0 for the value zero).
#[inline]
pub(crate) fn bits(a: &[u64]) -> u64 {
    match sig_len(a) {
        0 => 0,
        len => len as u64 * 64 - u64::from(a[len - 1].leading_zeros()),
    }
}

/// Compares two values given as significant slices (no zero word on top)
/// or as zero-padded slices of one length.
#[inline]
#[must_use]
pub fn cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().zip(b).rev() {
        if x != y {
            return x.cmp(y);
        }
    }
    Ordering::Equal
}

/// `out = a + b`. `out` needs one word more than the longer operand; the
/// carry out of the top lands in that word.
#[inline]
pub(crate) fn add(a: &[u64], b: &[u64], out: &mut [u64]) {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    debug_assert!(out.len() > long.len(), "add output too short");
    out[..long.len()].copy_from_slice(long);
    out[long.len()..].fill(0);
    let carry = add_assign(out, short);
    debug_assert!(!carry, "add output too short");
}

/// `acc += b` in place over `acc.len()` words (`b` no longer than `acc`).
/// Returns the carry out of the top word, which is lost from `acc`.
#[inline]
pub fn add_assign(acc: &mut [u64], b: &[u64]) -> bool {
    debug_assert!(b.len() <= acc.len());
    let mut carry = false;
    for (i, o) in acc.iter_mut().enumerate() {
        let y = match b.get(i) {
            Some(&y) => y,
            None if !carry => return false,
            None => 0,
        };
        let (s, c1) = o.overflowing_add(y);
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *o = s;
        carry = c1 || c2;
    }
    carry
}

/// `out = a − b` over `a.len()` words (`b` no longer than `a`); returns
/// `true` on underflow (`b > a`), in which case `out` is garbage.
#[inline]
pub(crate) fn sub(a: &[u64], b: &[u64], out: &mut [u64]) -> bool {
    debug_assert!(b.len() <= a.len() && out.len() >= a.len());
    let mut borrow = false;
    for (i, (o, &x)) in out.iter_mut().zip(a).enumerate() {
        let y = b.get(i).copied().unwrap_or(0);
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *o = d;
        borrow = b1 || b2;
    }
    borrow
}

/// `out += a × b` (schoolbook). `out` must hold `a.len() + b.len()` words
/// and start at zero for a plain product.
pub fn mul(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert!(out.len() >= a.len() + b.len());
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let cur = u128::from(out[i + j]) + u128::from(x) * u128::from(y) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        out[i + b.len()] = carry as u64;
    }
}

/// Divides `a` in place by the single word `d`, leaving the quotient in
/// `a`, and returns the remainder.
///
/// # Panics
///
/// Panics if `d` is zero.
#[inline]
pub(crate) fn div_rem_word(a: &mut [u64], d: u64) -> u64 {
    assert!(d != 0, "division by zero word");
    let mut rem = 0u64;
    for w in a.iter_mut().rev() {
        if rem == 0 {
            // A word-sized step: the hardware divide, not the u128 libcall.
            (*w, rem) = (*w / d, *w % d);
        } else {
            let cur = (u128::from(rem) << 64) | u128::from(*w);
            let q = cur / u128::from(d);
            (*w, rem) = (q as u64, (cur - q * u128::from(d)) as u64);
        }
    }
    rem
}

/// Knuth Algorithm D (TAOCP Vol. 2, 4.3.1) in place, for divisors of at
/// least two words.
///
/// On entry `u` holds the dividend with a zero word on top and `v` the
/// divisor as a significant slice (`v.len() ≥ 2`, `u.len() > v.len()`). On
/// exit `q[..u.len() − v.len()]` holds the quotient, `u[..v.len()]` the
/// remainder (the rest of `u` is zero) and `v` is clobbered.
pub(crate) fn div_rem(u: &mut [u64], v: &mut [u64], q: &mut [u64]) {
    let n = v.len();
    debug_assert!(n >= 2 && v[n - 1] != 0 && u.len() > n && u[u.len() - 1] == 0);
    let m = u.len() - n - 1;
    debug_assert!(q.len() > m);

    // Normalise so the divisor's top word has its high bit set.
    let shift = v[n - 1].leading_zeros();
    shl_in_place(v, shift);
    shl_in_place(u, shift);
    let v_top = u128::from(v[n - 1]);
    let v_next = u128::from(v[n - 2]);

    for j in (0..=m).rev() {
        // Estimate q̂ from the top two dividend words.
        let num = (u128::from(u[j + n]) << 64) | u128::from(u[j + n - 1]);
        let mut qhat = num / v_top;
        let mut rhat = num - qhat * v_top;
        while qhat >> 64 != 0 || qhat * v_next > ((rhat << 64) | u128::from(u[j + n - 2])) {
            qhat -= 1;
            rhat += v_top;
            if rhat >> 64 != 0 {
                break;
            }
        }
        // Multiply and subtract: u[j..=j+n] -= q̂ · v.
        let mut borrow = false;
        let mut carry = 0u128;
        for i in 0..n {
            let p = qhat * u128::from(v[i]) + carry;
            carry = p >> 64;
            let (d, b1) = u[i + j].overflowing_sub(p as u64);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            u[i + j] = d;
            borrow = b1 || b2;
        }
        let (d, b1) = u[j + n].overflowing_sub(carry as u64);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        u[j + n] = d;
        if b1 || b2 {
            // q̂ was one too large: add the divisor back.
            qhat -= 1;
            let carry = add_assign(&mut u[j..j + n], v);
            u[j + n] = u[j + n].wrapping_add(u64::from(carry));
        }
        q[j] = qhat as u64;
    }

    // Denormalise the remainder.
    shr_in_place(&mut u[..n], shift);
}

/// `out = a << shift`. `out` needs `a.len() + shift / 64 + 1` words.
pub(crate) fn shl(a: &[u64], shift: u64, out: &mut [u64]) {
    let skip = (shift / 64) as usize;
    out[..skip].fill(0);
    out[skip..skip + a.len()].copy_from_slice(a);
    out[skip + a.len()..].fill(0);
    shl_in_place(&mut out[skip..], (shift % 64) as u32);
}

/// `out = a >> shift`. `out` needs `a.len() − shift / 64` words, and the
/// shift must leave at least one word.
pub(crate) fn shr(a: &[u64], shift: u64, out: &mut [u64]) {
    let skip = (shift / 64) as usize;
    let len = a.len() - skip;
    out[..len].copy_from_slice(&a[skip..]);
    out[len..].fill(0);
    shr_in_place(&mut out[..len], (shift % 64) as u32);
}

/// `a <<= shift` for `shift < 64`; bits shifted out of the top are lost.
fn shl_in_place(a: &mut [u64], shift: u32) {
    debug_assert!(shift < 64);
    if shift == 0 {
        return;
    }
    for i in (1..a.len()).rev() {
        a[i] = (a[i] << shift) | (a[i - 1] >> (64 - shift));
    }
    if let Some(w) = a.first_mut() {
        *w <<= shift;
    }
}

/// `a >>= shift` for `shift < 64`.
fn shr_in_place(a: &mut [u64], shift: u32) {
    debug_assert!(shift < 64);
    if shift == 0 {
        return;
    }
    for i in 0..a.len() {
        let hi = a.get(i + 1).copied().unwrap_or(0);
        a[i] = (a[i] >> shift) | (hi << (64 - shift));
    }
}

/// Binary (Stein) gcd on machine words. Substantially faster than Euclid's
/// division loop for the word-sized operands that dominate probability
/// normalisation: each step costs a subtract and a shift instead of a
/// hardware divide.
#[inline]
pub(crate) fn gcd_u64(a: u64, b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    // Probability reduction calls this mostly with a unit numerator or
    // equal denominators; both answers are immediate.
    if a == 1 || b == 1 {
        return 1;
    }
    if a == b {
        return a;
    }
    let az = a.trailing_zeros();
    let bz = b.trailing_zeros();
    let shift = az.min(bz);
    let mut a = a >> az;
    let mut b = b >> bz;
    while a != b {
        if a > b {
            a -= b;
            a >>= a.trailing_zeros();
        } else {
            b -= a;
            b >>= b.trailing_zeros();
        }
    }
    a << shift
}

/// Binary gcd on `u128`, avoiding the libcall-per-iteration cost of
/// Euclid's `%` on double words.
#[inline]
pub(crate) fn gcd_u128(a: u128, b: u128) -> u128 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    if let (Ok(a64), Ok(b64)) = (u64::try_from(a), u64::try_from(b)) {
        return u128::from(gcd_u64(a64, b64));
    }
    let az = a.trailing_zeros();
    let bz = b.trailing_zeros();
    let shift = az.min(bz);
    let mut a = a >> az;
    let mut b = b >> bz;
    while a != b {
        if a > b {
            a -= b;
            a >>= a.trailing_zeros();
        } else {
            b -= a;
            b >>= b.trailing_zeros();
        }
    }
    a << shift
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64 — the same deterministic generator as the integration
    /// property suite.
    struct Rng(u64);
    impl Rng {
        fn u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, bound: u64) -> u64 {
            ((u128::from(self.u64()) * u128::from(bound)) >> 64) as u64
        }
    }

    /// Random N-word value with a random number of significant words,
    /// dwelling on all-ones / power-of-two carry edges.
    fn rand_words<const N: usize>(rng: &mut Rng) -> [u64; N] {
        let sig = rng.below(N as u64 + 1) as usize;
        let mut words = [0u64; N];
        for (i, w) in words.iter_mut().enumerate().take(sig) {
            *w = match rng.below(4) {
                0 => u64::MAX,
                1 => 1u64 << rng.below(64),
                2 => (1u64 << rng.below(63)).wrapping_sub(1) | 1,
                _ => rng.u64(),
            };
            if i == sig - 1 && *w == 0 {
                *w = 1;
            }
        }
        words
    }

    /// The significant prefix of a zero-padded value.
    fn sig(a: &[u64]) -> &[u64] {
        &a[..sig_len(a)]
    }

    /// `a + b` over `N` words, or `None` if it needs more.
    fn checked_add<const N: usize>(a: &[u64; N], b: &[u64; N]) -> Option<[u64; N]> {
        let mut out = vec![0u64; N + 1];
        add(a, b, &mut out);
        (out[N] == 0).then(|| out[..N].try_into().unwrap())
    }

    /// `a − b` over `N` words, or `None` on underflow.
    fn checked_sub<const N: usize>(a: &[u64; N], b: &[u64; N]) -> Option<[u64; N]> {
        let mut out = [0u64; N];
        (!sub(a, b, &mut out)).then_some(out)
    }

    /// `(a / b, a % b)` over `N` words through the kernels, as the
    /// `BigUint` tiers call them.
    fn div_rem_n<const N: usize>(a: &[u64; N], b: &[u64; N]) -> ([u64; N], [u64; N]) {
        let (u, v) = (sig(a), sig(b));
        let (mut q, mut r) = ([0u64; N], [0u64; N]);
        if cmp(u, v) == Ordering::Less {
            r[..u.len()].copy_from_slice(u);
        } else if v.len() == 1 {
            q[..u.len()].copy_from_slice(u);
            r[0] = div_rem_word(&mut q[..u.len()], v[0]);
        } else {
            let mut un = u.to_vec();
            un.push(0);
            let mut vn = v.to_vec();
            div_rem(&mut un, &mut vn, &mut q);
            r[..v.len()].copy_from_slice(&un[..v.len()]);
            assert!(un[v.len()..].iter().all(|&w| w == 0), "remainder above n");
        }
        (q, r)
    }

    /// Reference conversion to a pair of u128 chunks (a 256-bit value).
    fn to_u256<const N: usize>(v: &[u64; N]) -> (u128, u128) {
        assert!(N <= 4);
        let w = |i: usize| u128::from(v.get(i).copied().unwrap_or(0));
        (w(0) | (w(1) << 64), w(2) | (w(3) << 64))
    }

    fn add_u256(a: (u128, u128), b: (u128, u128)) -> Option<(u128, u128)> {
        let (lo, c) = a.0.overflowing_add(b.0);
        let hi = a.1.checked_add(b.1)?.checked_add(u128::from(c))?;
        Some((lo, hi))
    }

    fn sub_u256(a: (u128, u128), b: (u128, u128)) -> Option<(u128, u128)> {
        let (lo, borrow) = a.0.overflowing_sub(b.0);
        let hi = a.1.checked_sub(b.1)?.checked_sub(u128::from(borrow))?;
        Some((lo, hi))
    }

    fn cmp_u256(a: (u128, u128), b: (u128, u128)) -> Ordering {
        a.1.cmp(&b.1).then(a.0.cmp(&b.0))
    }

    #[test]
    fn add_sub_cmp_match_u256_reference() {
        let mut rng = Rng(0xF1D0);
        for case in 0..4000 {
            let a = rand_words::<4>(&mut rng);
            let b = rand_words::<4>(&mut rng);
            let (ra, rb) = (to_u256(&a), to_u256(&b));
            match (checked_add(&a, &b), add_u256(ra, rb)) {
                (Some(s), Some(rs)) => assert_eq!(to_u256(&s), rs, "add, case {case}"),
                (None, None) => {}
                (got, reference) => panic!(
                    "add overflow disagreement, case {case}: got {:?}, reference {:?}",
                    got.is_some(),
                    reference.is_some()
                ),
            }
            match (checked_sub(&a, &b), sub_u256(ra, rb)) {
                (Some(d), Some(rd)) => assert_eq!(to_u256(&d), rd, "sub, case {case}"),
                (None, None) => {}
                _ => panic!("sub underflow disagreement, case {case}"),
            }
            assert_eq!(cmp(sig(&a), sig(&b)), cmp_u256(ra, rb), "cmp, case {case}");
            // In place over four words, with a shorter addend: the carry
            // out of the top is reported, never silently kept.
            let mut acc = a;
            let carry = add_assign(&mut acc, sig(&b));
            match add_u256(ra, rb) {
                Some(rs) => assert_eq!(
                    (to_u256(&acc), carry),
                    (rs, false),
                    "add_assign, case {case}"
                ),
                None => assert!(carry, "add_assign carry, case {case}"),
            }
        }
    }

    #[test]
    fn mul_matches_shifted_adds() {
        let mut rng = Rng(0xAB5);
        for case in 0..2000 {
            let a = rand_words::<3>(&mut rng);
            let b = rand_words::<3>(&mut rng);
            let mut out = [0u64; 6];
            mul(&a, &b, &mut out);
            // Reference: accumulate a * each word of b via u128 partials.
            let mut reference = [0u64; 6];
            for (j, &y) in b.iter().enumerate() {
                let mut carry: u128 = 0;
                for (i, &x) in a.iter().enumerate() {
                    let cur = u128::from(reference[i + j]) + u128::from(x) * u128::from(y) + carry;
                    reference[i + j] = cur as u64;
                    carry = cur >> 64;
                }
                let mut k = j + 3;
                while carry != 0 {
                    let cur = u128::from(reference[k]) + carry;
                    reference[k] = cur as u64;
                    carry = cur >> 64;
                    k += 1;
                }
            }
            assert_eq!(out, reference, "mul, case {case}");
        }
    }

    #[test]
    fn div_rem_satisfies_division_identity() {
        let mut rng = Rng(0xD117);
        let mut multi_word_divisors = 0usize;
        for case in 0..4000 {
            let a = rand_words::<3>(&mut rng);
            let b = rand_words::<3>(&mut rng);
            if sig_len(&b) == 0 {
                continue;
            }
            if sig_len(&b) > 1 {
                multi_word_divisors += 1;
            }
            let (q, r) = div_rem_n(&a, &b);
            assert_eq!(
                cmp(sig(&r), sig(&b)),
                Ordering::Less,
                "remainder bound, case {case}"
            );
            // q*b + r == a, via mul and add on wide buffers.
            let mut prod = [0u64; 6];
            mul(&q, &b, &mut prod);
            assert_eq!(sig_len(&prod[3..]), 0, "q*b fits 3 words, case {case}");
            let qb = [prod[0], prod[1], prod[2]];
            assert_eq!(
                checked_add(&qb, &r),
                Some(a),
                "division identity, case {case}"
            );
        }
        assert!(
            multi_word_divisors > 500,
            "sweep must exercise the Knuth path, got {multi_word_divisors}"
        );
    }

    #[test]
    fn div_rem_knuth_addback_edge() {
        // Divisor with top word exactly 2^63 forces maximal q̂ estimates;
        // (2^191 − 1) << 64-ish dividends hit the correction branches.
        let u = [u64::MAX, u64::MAX, u64::MAX];
        let v = [1, 1u64 << 63, 0];
        let (q, r) = div_rem_n(&u, &v);
        let mut prod = [0u64; 6];
        mul(&q, &v, &mut prod);
        let qb = [prod[0], prod[1], prod[2]];
        assert_eq!(checked_add(&qb, &r), Some(u));
        assert_eq!(cmp(sig(&r), sig(&v)), Ordering::Less);
    }

    #[test]
    fn div_rem_word_matches_u128() {
        let mut rng = Rng(0xD1);
        for case in 0..2000 {
            let v = rng.u64() as u128 | ((rng.u64() as u128) << 64);
            let d = rng.u64().max(1);
            let mut a = [v as u64, (v >> 64) as u64, 0];
            let r = div_rem_word(&mut a, d);
            let q = u128::from(a[0]) | (u128::from(a[1]) << 64);
            assert_eq!(a[2], 0, "quotient fits two words, case {case}");
            assert_eq!(q, v / u128::from(d), "quotient, case {case}");
            assert_eq!(u128::from(r), v % u128::from(d), "remainder, case {case}");
        }
    }

    #[test]
    fn bits_and_parity() {
        assert_eq!(bits(&[0, 0, 0]), 0);
        assert_eq!(bits(&[1, 0, 0]), 1);
        assert_eq!(bits(&[u64::MAX, u64::MAX, 0]), 128);
        assert_eq!(bits(&[0, 0, 1]), 129);
        assert_eq!(bits(&[]), 0);
        assert!(crate::BigUint::from(1u128 << 100).is_even());
        assert!(!crate::BigUint::from((7u128 << 64) | 1).is_even());
    }

    #[test]
    fn works_at_other_widths() {
        // The kernels take any length; spot-check 2 and 5 words.
        let a = [u64::MAX - 4, u64::MAX];
        let b = [5, 0];
        assert!(
            checked_add(&a, &b).is_none(),
            "2-word add overflow reported"
        );
        assert_eq!(checked_sub(&a, &b), Some([u64::MAX - 9, u64::MAX]));
        let c = [u64::MAX; 5];
        let d = [2, 0, 0, 0, 0];
        let (q, r) = div_rem_n(&c, &d);
        // (2^320 − 1) / 2: quotient 2^319 − 1, remainder 1.
        assert_eq!(q, [u64::MAX, u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1]);
        assert_eq!(r, [1, 0, 0, 0, 0]);
        // And a 5-word Knuth division: (2^320 − 1) / (2^128 + 1).
        let e = [1, 0, 1, 0, 0];
        let (q, r) = div_rem_n(&c, &e);
        let mut prod = [0u64; 10];
        mul(&q, &e, &mut prod);
        let qe: [u64; 5] = prod[..5].try_into().unwrap();
        assert_eq!(sig_len(&prod[5..]), 0);
        assert_eq!(checked_add(&qe, &r), Some(c));
        assert_eq!(cmp(sig(&r), sig(&e)), Ordering::Less);
    }

    #[test]
    fn shifts_move_bits_across_words() {
        let a = [u64::MAX, 1];
        let mut out = [0u64; 4];
        shl(&a, 65, &mut out);
        assert_eq!(out, [0, u64::MAX << 1, 3, 0]);
        let mut back = [0u64; 3];
        shr(&out[..3], 65, &mut back[..2]);
        assert_eq!(back, [u64::MAX, 1, 0]);
    }

    #[test]
    fn binary_gcds_match_euclid() {
        let mut rng = Rng(0x9CD9);
        let euclid64 = |mut a: u64, mut b: u64| {
            while b != 0 {
                let r = a % b;
                a = b;
                b = r;
            }
            a
        };
        let euclid128 = |mut a: u128, mut b: u128| {
            while b != 0 {
                let r = a % b;
                a = b;
                b = r;
            }
            a
        };
        for case in 0..4000 {
            let (a, b) = (rng.u64() >> rng.below(64), rng.u64() >> rng.below(64));
            assert_eq!(gcd_u64(a, b), euclid64(a, b), "gcd_u64, case {case}");
            let (x, y) = (
                u128::from(rng.u64()) * u128::from(rng.u64()),
                u128::from(rng.u64()) * u128::from(rng.u64()),
            );
            assert_eq!(gcd_u128(x, y), euclid128(x, y), "gcd_u128, case {case}");
        }
        assert_eq!(gcd_u64(0, 0), 0);
        assert_eq!(gcd_u64(0, 7), 7);
        assert_eq!(gcd_u128(0, 0), 0);
        assert_eq!(gcd_u128(u128::MAX, 0), u128::MAX);
    }
}
