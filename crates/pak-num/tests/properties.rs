//! Property-based tests for the arbitrary-precision arithmetic.
//!
//! Every algebraic law used by the `pak-core` theorem machinery is checked
//! here against randomly generated operands, including multi-limb values
//! that exercise carry/borrow chains and Knuth division.
//!
//! The harness is self-contained (the workspace builds offline, so no
//! external property-testing crate is used): a deterministic `splitmix64`
//! generator drives every case, so failures reproduce exactly. On failure
//! the assertion message carries the case index; rerun with the same code
//! to replay it.
//!
//! `BigUint` keeps a value in one of three tiers (inline `u64` → fixed
//! `[u64; 3]` stack words → heap `Vec<u64>` words), and the two wide
//! tiers share one set of `u64`-word kernels. Three kinds of reference
//! check it here:
//!
//! * `Naive`, a deliberately naive base-2⁸ big number defined at the end
//!   of this file. It shares no code with `pak-num`, so
//!   `differential_against_naive_reference` is the independent check of
//!   every operation on operands up to about 1 100 bits;
//! * native `u128` arithmetic, for values up to two words;
//! * algebraic identities and decimal-string round-trips, which are not
//!   independent of the kernels but sweep every boundary of the lattice —
//!   `u64::MAX` (inline↔fixed), `2^FIXED_BITS` (fixed↔heap) and the word
//!   carry edges in between — and check that each result lands in the
//!   tier its bit length dictates.

use pak_num::{BigInt, BigUint, Rational};

/// Deterministic splitmix64 generator: the whole file replays exactly.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn u128(&mut self) -> u128 {
        (u128::from(self.u64()) << 64) | u128::from(self.u64())
    }

    /// Uniform draw from `0..bound`.
    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A `BigUint` spanning zero through multi-limb magnitudes, biased
    /// toward representation boundaries.
    fn big_uint(&mut self) -> BigUint {
        match self.below(6) {
            0 => BigUint::from(self.u64()),
            1 => BigUint::from(self.u128()),
            2 => BigUint::from(self.u128()) << self.below(200),
            3 => BigUint::from(self.boundary_u64()),
            4 => self.boundary_fixed_heap(),
            _ => BigUint::from(self.boundary_u128()),
        }
    }

    /// Values hugging the fixed↔heap edge at `2^FIXED_BITS`, plus the
    /// word-boundary edges inside the fixed tier, with small random
    /// offsets so carries propagate across the boundary in both
    /// directions.
    fn boundary_fixed_heap(&mut self) -> BigUint {
        let anchor_bits = [
            BigUint::FIXED_BITS - 1,
            BigUint::FIXED_BITS,
            BigUint::FIXED_BITS + 1,
            128,
            129,
            191,
        ];
        let anchor = BigUint::from(1u32) << anchor_bits[self.below(6) as usize];
        let offset = BigUint::from(self.below(3));
        if self.u64() & 1 == 0 {
            anchor + offset
        } else {
            &anchor - &offset.min(anchor.clone())
        }
    }

    /// Values hugging the inline/heap and limb-carry edges.
    fn boundary_u64(&mut self) -> u64 {
        const EDGES: [u64; 10] = [
            0,
            1,
            2,
            u32::MAX as u64 - 1,
            u32::MAX as u64,
            1 << 32,
            (1 << 32) + 1,
            u64::MAX - 1,
            u64::MAX,
            0x8000_0000_0000_0000,
        ];
        EDGES[self.below(EDGES.len() as u64) as usize]
    }

    fn boundary_u128(&mut self) -> u128 {
        const EDGES: [u128; 8] = [
            u64::MAX as u128,
            u64::MAX as u128 + 1,
            u64::MAX as u128 + 2,
            1 << 96,
            (1 << 96) - 1,
            u128::MAX,
            u128::MAX - 1,
            (u64::MAX as u128) << 32,
        ];
        EDGES[self.below(EDGES.len() as u64) as usize]
    }

    fn big_int(&mut self) -> BigInt {
        let v = BigInt::from(self.big_uint());
        if self.u64() & 1 == 0 {
            -v
        } else {
            v
        }
    }

    fn rational(&mut self) -> Rational {
        let n = self.u64() as i32;
        let d = 1 + self.below(i32::MAX as u64) as i64;
        Rational::from_ratio(i64::from(n), d)
    }

    /// A rational in `[0, 1]`.
    fn probability(&mut self) -> Rational {
        let a = self.below(1_000_000) + 1;
        let b = self.below(1_000_000) + 1;
        let (n, d) = if a <= b { (a, b) } else { (b, a) };
        Rational::from_ratio(n as i64, d as i64)
    }
}

const CASES: usize = 256;

// ----------------------------------------------------------------------
// BigUint ring laws
// ----------------------------------------------------------------------

#[test]
fn biguint_ring_laws() {
    let mut rng = Rng::new(0xB16);
    for case in 0..CASES {
        let a = rng.big_uint();
        let b = rng.big_uint();
        let c = rng.big_uint();
        assert_eq!(&a + &b, &b + &a, "add commutative, case {case}");
        assert_eq!(
            &(&a + &b) + &c,
            &a + &(&b + &c),
            "add associative, case {case}"
        );
        assert_eq!(&a * &b, &b * &a, "mul commutative, case {case}");
        assert_eq!(
            &(&a * &b) * &c,
            &a * &(&b * &c),
            "mul associative, case {case}"
        );
        assert_eq!(
            &a * &(&b + &c),
            &(&a * &b) + &(&a * &c),
            "distributive, case {case}"
        );
        assert_eq!(&(&a + &b) - &b, a, "add/sub round-trip, case {case}");
    }
}

#[test]
fn biguint_div_rem_invariant() {
    let mut rng = Rng::new(0xD1F);
    for case in 0..CASES {
        let a = rng.big_uint();
        let b = rng.big_uint();
        if b.is_zero() {
            continue;
        }
        let (q, r) = a.div_rem(&b);
        assert!(r < b, "remainder bound, case {case}");
        assert_eq!(&(&q * &b) + &r, a, "division identity, case {case}");
    }
}

#[test]
fn biguint_gcd_laws() {
    let mut rng = Rng::new(0x9CD);
    for case in 0..CASES {
        let a = rng.big_uint();
        let b = rng.big_uint();
        let g = a.gcd(&b);
        assert_eq!(g, b.gcd(&a), "gcd commutative, case {case}");
        if a.is_zero() && b.is_zero() {
            assert!(g.is_zero(), "gcd(0,0) = 0, case {case}");
            continue;
        }
        assert!(
            !g.is_zero(),
            "gcd of non-both-zero is non-zero, case {case}"
        );
        if !a.is_zero() {
            assert!((&a % &g).is_zero(), "gcd divides a, case {case}");
        }
        if !b.is_zero() {
            assert!((&b % &g).is_zero(), "gcd divides b, case {case}");
        }
    }
}

#[test]
fn biguint_shift_roundtrip() {
    let mut rng = Rng::new(0x5F7);
    for case in 0..CASES {
        let a = rng.big_uint();
        let s = rng.below(256);
        assert_eq!(&(&a << s) >> s, a, "shift round-trip, case {case}");
    }
}

#[test]
fn biguint_display_parse_roundtrip() {
    let mut rng = Rng::new(0xD15);
    for case in 0..CASES {
        let a = rng.big_uint();
        let s = a.to_string();
        let back: BigUint = s.parse().unwrap();
        assert_eq!(back, a, "display/parse round-trip, case {case}");
    }
}

/// `Display` honours width, fill, alignment and the `+`/`0` flags in
/// every tier, as the primitive integers do, for `BigUint`, `BigInt` and
/// `Rational`. Plain `{}` stays the bare digits of the independent naive
/// reference — the form `ModelFingerprint` digests.
#[test]
fn display_pads_in_every_tier() {
    let values = [
        Naive::from_words(&[7]),
        Naive::from_words(&[u64::MAX]),
        Naive::from_words(&[5, 1]),
        Naive::from_words(&[0, 0, 1 << 63]),
        Naive::from_words(&[0, 0, 0, 1]),
        Naive::from_words(&[u64::MAX; 6]),
    ];
    let mut tiers = [false; 3];
    for nv in &values {
        let v = nv.to_biguint();
        tiers[usize::from(v.is_fixed()) + 2 * usize::from(v.is_heap())] = true;
        let digits = nv.to_decimal();
        let w = digits.len() + 5;
        assert_eq!(format!("{v}"), digits, "plain Display");
        assert_eq!(
            format!("{v:w$}"),
            format!("{digits:>w$}"),
            "default alignment"
        );
        assert_eq!(format!("{v:<w$}"), format!("{digits:<w$}"));
        assert_eq!(format!("[{v:*^w$}]"), format!("[{digits:*^w$}]"));
        assert_eq!(format!("{v:>w$}"), format!("{digits:>w$}"));
        assert_eq!(format!("{v:0w$}"), format!("{digits:0>w$}"));
        assert_eq!(format!("{v:+}"), format!("+{digits}"));
        assert_eq!(format!("{v:1}"), digits, "a narrow width never truncates");

        let neg = -BigInt::from(v.clone());
        let signed = format!("-{digits}");
        assert_eq!(format!("{neg}"), signed);
        assert_eq!(format!("{neg:>w$}"), format!("{signed:>w$}"));
        assert_eq!(format!("{neg:0w$}"), format!("-{digits:0>0$}", w - 1));

        let third = Rational::new(
            BigInt::from(v.clone()),
            BigInt::from(&v + &BigUint::from(1u32)),
        )
        .unwrap();
        let text = format!("{third}");
        assert_eq!(text, format!("{digits}/{}", (&v + &BigUint::from(1u32))));
        let wide = text.len() + 3;
        assert_eq!(format!("{third:>wide$}"), format!("{text:>wide$}"));
        assert_eq!(format!("{third:_<wide$}"), format!("{text:_<wide$}"));
        let whole = Rational::from(v.clone());
        assert_eq!(format!("{whole:^w$}"), format!("{digits:^w$}"));
    }
    assert_eq!(
        tiers, [true; 3],
        "inline, fixed and heap values all printed"
    );
    assert_eq!(format!("[{:>6}]", BigUint::from(7u32)), "[     7]");
    assert_eq!(format!("[{:>6}]", Rational::from_ratio(1, 3)), "[   1/3]");
    assert_eq!(format!("[{:<6}]", Rational::from_ratio(-1, 3)), "[-1/3  ]");
}

#[test]
fn biguint_cmp_matches_u128() {
    let mut rng = Rng::new(0xC3B);
    for case in 0..CASES {
        let a = rng.u128();
        let b = rng.u128();
        assert_eq!(
            BigUint::from(a).cmp(&BigUint::from(b)),
            a.cmp(&b),
            "cmp vs u128, case {case}"
        );
    }
}

// ----------------------------------------------------------------------
// Differential tests: inline u64 fast path vs multi-limb reference
// ----------------------------------------------------------------------

/// Every arithmetic op on word-sized operands must agree with native
/// `u128` arithmetic, including at the exact `u64::MAX` / carry edges.
#[test]
fn differential_u64_ops_match_u128_reference() {
    let mut rng = Rng::new(0xD1F2);
    for case in 0..CASES * 4 {
        let (a, b) = if case % 3 == 0 {
            (rng.boundary_u64(), rng.boundary_u64())
        } else {
            (rng.u64(), rng.u64())
        };
        let (ba, bb) = (BigUint::from(a), BigUint::from(b));
        assert_eq!(
            &ba + &bb,
            BigUint::from(u128::from(a) + u128::from(b)),
            "add, case {case} ({a} + {b})"
        );
        assert_eq!(
            &ba * &bb,
            BigUint::from(u128::from(a) * u128::from(b)),
            "mul, case {case} ({a} * {b})"
        );
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        assert_eq!(
            BigUint::from(hi) - BigUint::from(lo),
            BigUint::from(hi - lo),
            "sub, case {case} ({hi} - {lo})"
        );
        if let (Some(qr), Some(rr)) = (a.checked_div(b), a.checked_rem(b)) {
            let (q, r) = ba.div_rem(&bb);
            assert_eq!(q, BigUint::from(qr), "quotient, case {case} ({a} / {b})");
            assert_eq!(r, BigUint::from(rr), "remainder, case {case} ({a} % {b})");
        }
        assert_eq!(
            ba.gcd(&bb),
            BigUint::from(gcd_u128(a.into(), b.into())),
            "gcd, case {case}"
        );
        assert_eq!(ba.cmp(&bb), a.cmp(&b), "cmp, case {case}");
    }
}

/// Mixed inline/heap operand pairs agree with `u128` references whenever
/// the values fit `u128` — this drives the representation-crossing branches
/// (inline + heap, heap − inline, heap ÷ inline, …).
#[test]
fn differential_mixed_representation_ops() {
    let mut rng = Rng::new(0x313D);
    for case in 0..CASES * 2 {
        let a = if case % 2 == 0 {
            u128::from(rng.u64())
        } else {
            rng.boundary_u128()
        };
        let b = if case % 3 == 0 {
            rng.boundary_u128()
        } else {
            u128::from(rng.u64())
        };
        let (ba, bb) = (BigUint::from(a), BigUint::from(b));
        if let Some(sum) = a.checked_add(b) {
            assert_eq!(&ba + &bb, BigUint::from(sum), "mixed add, case {case}");
        }
        if let Some(prod) = a.checked_mul(b) {
            assert_eq!(&ba * &bb, BigUint::from(prod), "mixed mul, case {case}");
        }
        if a >= b {
            assert_eq!(&ba - &bb, BigUint::from(a - b), "mixed sub, case {case}");
        }
        if let (Some(qr), Some(rr)) = (a.checked_div(b), a.checked_rem(b)) {
            let (q, r) = ba.div_rem(&bb);
            assert_eq!(q, BigUint::from(qr), "mixed quotient, case {case}");
            assert_eq!(r, BigUint::from(rr), "mixed remainder, case {case}");
        }
        assert_eq!(
            ba.gcd(&bb),
            BigUint::from(gcd_u128(a, b)),
            "mixed gcd, case {case}"
        );
        assert_eq!(ba.cmp(&bb), a.cmp(&b), "mixed cmp, case {case}");
    }
}

/// Decimal-string round-trips: each op computed on `BigUint` agrees with
/// the value reconstructed by parsing the operands' decimal strings,
/// re-performing the op, and printing. The parse path exercises the
/// heap-building mul/add loop, so this is an independent second opinion
/// on every fast path, on inline and heap values alike.
#[test]
fn differential_decimal_string_roundtrips() {
    let mut rng = Rng::new(0xDEC);
    for case in 0..CASES {
        let a = rng.big_uint();
        let b = rng.big_uint();
        let reparse = |v: &BigUint| -> BigUint { v.to_string().parse().unwrap() };
        let (ra, rb) = (reparse(&a), reparse(&b));
        assert_eq!(
            reparse(&(&a + &b)),
            &ra + &rb,
            "add via strings, case {case}"
        );
        assert_eq!(
            reparse(&(&a * &b)),
            &ra * &rb,
            "mul via strings, case {case}"
        );
        if a >= b {
            assert_eq!(
                reparse(&(&a - &b)),
                &ra - &rb,
                "sub via strings, case {case}"
            );
        }
        if !b.is_zero() {
            let (q, r) = a.div_rem(&b);
            let (rq, rr) = ra.div_rem(&rb);
            assert_eq!(
                (reparse(&q), reparse(&r)),
                (rq, rr),
                "div_rem via strings, case {case}"
            );
        }
        assert_eq!(
            reparse(&a.gcd(&b)),
            ra.gcd(&rb),
            "gcd via strings, case {case}"
        );
        let e = rng.below(5) as u32;
        assert_eq!(
            reparse(&a.pow(e)),
            ra.pow(e),
            "pow via strings, case {case}"
        );
    }
}

/// `pow` crossing the inline/heap boundary: squaring word-sized values
/// repeatedly must agree with repeated multiplication.
#[test]
fn differential_pow_crosses_representation_boundary() {
    let mut rng = Rng::new(0x90B);
    for case in 0..CASES / 2 {
        let base = BigUint::from(rng.boundary_u64());
        let e = rng.below(6) as u32;
        let mut acc = BigUint::from(1u32);
        for _ in 0..e {
            acc = &acc * &base;
        }
        assert_eq!(base.pow(e), acc, "pow vs repeated mul, case {case}");
    }
}

/// The tier of a value is a function of its magnitude alone: the three
/// representation predicates partition every value exactly as the bit
/// length dictates, whatever arithmetic route produced it.
#[test]
fn representation_tier_matches_bit_length() {
    let mut rng = Rng::new(0x71E2);
    let mut seen = [0usize; 3]; // inline, fixed, heap
    for case in 0..CASES * 4 {
        let v = rng.big_uint();
        let tier = (v.is_inline(), v.is_fixed(), v.is_heap());
        let expect = if v.bits() <= 64 {
            seen[0] += 1;
            (true, false, false)
        } else if v.bits() <= BigUint::FIXED_BITS {
            seen[1] += 1;
            (false, true, false)
        } else {
            seen[2] += 1;
            (false, false, true)
        };
        assert_eq!(tier, expect, "tier vs bits, case {case}: {v}");
        // Round-tripping through the decimal string lands on the same tier.
        let back: BigUint = v.to_string().parse().unwrap();
        assert_eq!(
            (back.is_inline(), back.is_fixed(), back.is_heap()),
            expect,
            "tier after string round-trip, case {case}"
        );
    }
    assert!(
        seen.iter().all(|&n| n > 50),
        "generator must populate all three tiers, got {seen:?}"
    );
}

/// Ops whose operands straddle each boundary of the representation
/// lattice (inline↔fixed, fixed↔fixed, fixed↔heap, heap↔heap) satisfy the
/// ring identities and stay canonical. The `u128`-reference differential
/// tests cannot see past two words; beyond them these identities and the
/// string round-trip back up `differential_against_naive_reference`.
#[test]
fn differential_tier_boundary_ops() {
    let mut rng = Rng::new(0xF1D3);
    for case in 0..CASES * 2 {
        let a = rng.big_uint();
        let b = rng.boundary_fixed_heap();
        for (x, y) in [(&a, &b), (&b, &a)] {
            let sum = x + y;
            assert_eq!(&sum - y, *x, "add/sub round-trip, case {case}");
            assert!(sum >= *x && sum >= *y, "add grows, case {case}");
            let prod = x * y;
            if !y.is_zero() {
                let (q, r) = prod.div_rem(y);
                assert_eq!(q, *x, "mul/div round-trip, case {case}");
                assert!(r.is_zero(), "exact product division, case {case}");
                let g = x.gcd(y);
                assert!(
                    (x % &g).is_zero() && (y % &g).is_zero(),
                    "gcd divides, case {case}"
                );
            }
            let s = rng.below(200);
            assert_eq!(&(x << s) >> s, *x, "shift round-trip, case {case}");
            let back: BigUint = x.to_string().parse().unwrap();
            assert_eq!(back, *x, "string round-trip, case {case}");
        }
    }
}

/// The exact value of a finite non-negative `f64` as a rational.
fn exact_rational_of_f64(d: f64) -> Rational {
    assert!(d.is_finite() && d >= 0.0);
    let bits = d.to_bits();
    let exp = (bits >> 52) & 0x7FF;
    let frac = bits & ((1u64 << 52) - 1);
    let (m, e) = if exp == 0 {
        (frac, -1074i64)
    } else {
        (frac | (1 << 52), exp as i64 - 1075)
    };
    if e >= 0 {
        Rational::from(BigUint::from(m) << e as u64)
    } else {
        Rational::new(
            BigInt::from(m),
            BigInt::from(BigUint::from(1u32) << (-e) as u64),
        )
        .unwrap()
    }
}

/// `BigUint::to_f64` returns the double nearest the exact value: by exact
/// `Rational` arithmetic, no neighbouring double is strictly closer, and
/// ties go to the even mantissa.
#[test]
fn to_f64_is_nearest_double_by_exact_distance() {
    let mut rng = Rng::new(0xF64D);
    for case in 0..CASES * 2 {
        let v = rng.big_uint();
        let d = v.to_f64();
        if !d.is_finite() {
            continue;
        }
        let exact_v = Rational::from(v.clone());
        let dist = |cand: f64| (&exact_v - &exact_rational_of_f64(cand)).abs();
        let d_dist = dist(d);
        for neighbour in [d.next_up(), d.next_down()] {
            if !neighbour.is_finite() || neighbour < 0.0 {
                continue;
            }
            let n_dist = dist(neighbour);
            assert!(
                d_dist <= n_dist,
                "case {case}: {v} → {d:e}, but neighbour {neighbour:e} is closer"
            );
            if d_dist == n_dist {
                // Exact tie: the chosen double must be the even one.
                assert_eq!(
                    d.to_bits() & 1,
                    0,
                    "case {case}: tie must round to even mantissa"
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// Rational word-path boundaries
// ----------------------------------------------------------------------

/// Cross-multiplied BigInt reference for `a + b`, bypassing every word
/// fast path.
fn add_via_bigint(a: &Rational, b: &Rational) -> Rational {
    let num =
        a.numer() * &BigInt::from(b.denom().clone()) + b.numer() * &BigInt::from(a.denom().clone());
    let den = BigInt::from(a.denom() * b.denom());
    Rational::new(num, den).unwrap()
}

/// Addition with numerators and denominators near `u64::MAX`: the sweep
/// provably drives the `checked_add` overflow fallback (the precondition
/// is recomputed here, mirroring `add_fast`'s reduced cross-products) and
/// every result — fast path or fallback — must match the BigInt
/// cross-multiply reference.
#[test]
fn rational_add_near_u64_max_matches_bigint_reference() {
    let mut rng = Rng::new(0xADD0);
    let mut overflowed = 0usize;
    let mut stayed_fast = 0usize;
    for case in 0..CASES * 2 {
        let near_max = |rng: &mut Rng| u64::MAX - rng.below(6);
        let (n1, d1) = (near_max(&mut rng), near_max(&mut rng));
        let (n2, d2) = (near_max(&mut rng), near_max(&mut rng));
        let mut a = Rational::new(BigInt::from(n1), BigInt::from(d1)).unwrap();
        let b = Rational::new(BigInt::from(n2), BigInt::from(d2)).unwrap();
        if case % 3 == 0 {
            a = -a;
        }
        // Mirror add_fast's reduced cross-products to classify the case.
        let (ra, rda) = (a.numer().magnitude().to_u64(), a.denom().to_u64());
        let (rb, rdb) = (b.numer().magnitude().to_u64(), b.denom().to_u64());
        if let (Some(an), Some(ad), Some(bn), Some(bd)) = (ra, rda, rb, rdb) {
            let g0 = BigUint::from(ad).gcd(&BigUint::from(bd)).to_u64().unwrap();
            let p1 = u128::from(an) * u128::from(bd / g0);
            let p2 = u128::from(bn) * u128::from(ad / g0);
            let same_sign = a.is_negative() == b.is_negative();
            if same_sign && p1.checked_add(p2).is_none() {
                overflowed += 1;
            } else {
                stayed_fast += 1;
            }
        }
        assert_eq!(&a + &b, add_via_bigint(&a, &b), "add, case {case}");
        assert_eq!(&a - &b, add_via_bigint(&a, &(-&b)), "sub, case {case}");
    }
    assert!(
        overflowed > 20,
        "sweep must exercise the overflow fallback, got {overflowed}"
    );
    assert!(
        stayed_fast > 20,
        "sweep must also exercise the fast path, got {stayed_fast}"
    );
}

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

// ----------------------------------------------------------------------
// BigInt ring laws
// ----------------------------------------------------------------------

#[test]
fn bigint_ring_laws() {
    let mut rng = Rng::new(0x1B7);
    for case in 0..CASES {
        let a = rng.big_int();
        let b = rng.big_int();
        assert_eq!(&a + &b, &b + &a, "add commutative, case {case}");
        assert_eq!(&a + &(-&a), BigInt::zero(), "add inverse, case {case}");
        assert_eq!(&a - &b, -&(&b - &a), "sub antisymmetric, case {case}");
        let prod = &a * &b;
        if a.is_zero() || b.is_zero() {
            assert!(prod.is_zero(), "mul zero, case {case}");
        } else {
            assert_eq!(
                prod.is_negative(),
                a.is_negative() != b.is_negative(),
                "mul signs, case {case}"
            );
        }
        let back: BigInt = a.to_string().parse().unwrap();
        assert_eq!(back, a, "display/parse round-trip, case {case}");
    }
}

#[test]
fn bigint_matches_i128() {
    let mut rng = Rng::new(0x128);
    for case in 0..CASES {
        let a = (rng.u64() % 2_000_000_000_000) as i128 - 1_000_000_000_000;
        let b = (rng.u64() % 2_000_000_000_000) as i128 - 1_000_000_000_000;
        let (ba, bb) = (BigInt::from(a), BigInt::from(b));
        assert_eq!(&ba + &bb, BigInt::from(a + b), "add, case {case}");
        assert_eq!(&ba - &bb, BigInt::from(a - b), "sub, case {case}");
        assert_eq!(&ba * &bb, BigInt::from(a * b), "mul, case {case}");
        if b != 0 {
            assert_eq!(&ba / &bb, BigInt::from(a / b), "div, case {case}");
            assert_eq!(&ba % &bb, BigInt::from(a % b), "rem, case {case}");
        }
        assert_eq!(ba.cmp(&bb), a.cmp(&b), "cmp, case {case}");
    }
}

// ----------------------------------------------------------------------
// Rational field laws
// ----------------------------------------------------------------------

#[test]
fn rational_field_laws() {
    let mut rng = Rng::new(0xF1E);
    for case in 0..CASES {
        let a = rng.rational();
        let b = rng.rational();
        let c = rng.rational();
        assert_eq!(&a + &b, &b + &a, "add commutative, case {case}");
        assert_eq!(
            &(&a + &b) + &c,
            &a + &(&b + &c),
            "add associative, case {case}"
        );
        assert_eq!(
            &(&a * &b) * &c,
            &a * &(&b * &c),
            "mul associative, case {case}"
        );
        assert_eq!(
            &a * &(&b + &c),
            &(&a * &b) + &(&a * &c),
            "distributive, case {case}"
        );
        assert_eq!(&a + &(-&a), Rational::zero(), "add inverse, case {case}");
        if !a.is_zero() {
            assert_eq!(&a * &a.recip(), Rational::one(), "mul inverse, case {case}");
        }
        if !b.is_zero() {
            assert_eq!(&(&a / &b) * &b, a, "div/mul round-trip, case {case}");
        }
    }
}

#[test]
fn rational_normalised_invariants() {
    let mut rng = Rng::new(0x20A);
    for case in 0..CASES {
        let a = rng.rational();
        let b = rng.rational();
        for v in [&a + &b, &a - &b, &a * &b] {
            assert!(!v.denom().is_zero(), "positive denominator, case {case}");
            let g = v.numer().magnitude().gcd(v.denom());
            assert!(g.is_one() || v.is_zero(), "lowest terms, case {case}: {v}");
        }
    }
}

#[test]
fn rational_ordering_total_and_matches_f64() {
    let mut rng = Rng::new(0x0AD);
    for case in 0..CASES {
        let a = rng.rational();
        let b = rng.rational();
        let c = rng.rational();
        if a <= b && b <= c {
            assert!(a <= c, "transitivity, case {case}");
        }
        let (fa, fb) = (a.to_f64(), b.to_f64());
        if (fa - fb).abs() > 1e-9 {
            assert_eq!(a < b, fa < fb, "f64 monotone, case {case}");
        }
        let back: Rational = a.to_string().parse().unwrap();
        assert_eq!(back, a, "display/parse round-trip, case {case}");
    }
}

#[test]
fn probability_laws() {
    let mut rng = Rng::new(0x9B0);
    for case in 0..CASES {
        let p = rng.probability();
        let q = rng.probability();
        assert!(p.is_probability(), "in range, case {case}");
        assert!(
            p.one_minus().is_probability(),
            "complement in range, case {case}"
        );
        assert_eq!(
            p.one_minus().one_minus(),
            p,
            "complement involution, case {case}"
        );
        assert!((&p * &q).is_probability(), "product in range, case {case}");
        assert!(&p * &q <= p.clone().min(q), "products shrink, case {case}");
    }
}

#[test]
fn rational_pow_matches_repeated_mul() {
    let mut rng = Rng::new(0x90F);
    for case in 0..CASES {
        let a = rng.rational();
        let e = rng.below(8) as i32;
        let mut acc = Rational::one();
        for _ in 0..e {
            acc = &acc * &a;
        }
        assert_eq!(a.pow(e), acc, "pow vs repeated mul, case {case}");
    }
}

// ----------------------------------------------------------------------
// Independent reference: a deliberately naive big number
// ----------------------------------------------------------------------

/// A deliberately naive unsigned big number: little-endian base-2⁸ digits
/// with no zero digit on top (zero is the empty vector). It shares no code
/// with `pak-num` — not its limb width, not its algorithms — so a sweep
/// against it can catch a bug that every `pak-num` path shares. Speed is
/// no concern: division is bit-by-bit shift-and-subtract, gcd is Euclid
/// on top of it, and decimal output divides by ten one digit at a time.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Naive(Vec<u8>);

impl Naive {
    fn trimmed(mut digits: Vec<u8>) -> Naive {
        while digits.last() == Some(&0) {
            digits.pop();
        }
        Naive(digits)
    }

    /// From little-endian 64-bit words.
    fn from_words(words: &[u64]) -> Naive {
        Naive::trimmed(words.iter().flat_map(|w| w.to_le_bytes()).collect())
    }

    /// `2^k`.
    fn pow2(k: u64) -> Naive {
        let mut digits = vec![0u8; k as usize / 8 + 1];
        digits[k as usize / 8] = 1 << (k % 8);
        Naive(digits)
    }

    fn is_zero(&self) -> bool {
        self.0.is_empty()
    }

    fn bits(&self) -> u64 {
        match self.0.last() {
            None => 0,
            Some(&top) => (self.0.len() as u64 - 1) * 8 + u64::from(8 - top.leading_zeros()),
        }
    }

    fn cmp(&self, other: &Naive) -> std::cmp::Ordering {
        self.0
            .len()
            .cmp(&other.0.len())
            .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
    }

    fn add(&self, other: &Naive) -> Naive {
        let len = self.0.len().max(other.0.len());
        let mut out = Vec::with_capacity(len + 1);
        let mut carry = 0u16;
        for i in 0..len {
            let s = u16::from(*self.0.get(i).unwrap_or(&0))
                + u16::from(*other.0.get(i).unwrap_or(&0))
                + carry;
            out.push(s as u8);
            carry = s >> 8;
        }
        out.push(carry as u8);
        Naive::trimmed(out)
    }

    /// `self − other`, or `None` if `other > self`.
    fn sub(&self, other: &Naive) -> Option<Naive> {
        if self.cmp(other) == std::cmp::Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.0.len());
        let mut borrow = 0i16;
        for (i, &d) in self.0.iter().enumerate() {
            let mut v = i16::from(d) - i16::from(*other.0.get(i).unwrap_or(&0)) - borrow;
            borrow = i16::from(v < 0);
            if v < 0 {
                v += 256;
            }
            out.push(v as u8);
        }
        Some(Naive::trimmed(out))
    }

    fn mul(&self, other: &Naive) -> Naive {
        let mut out = vec![0u32; self.0.len() + other.0.len() + 1];
        for (i, &x) in self.0.iter().enumerate() {
            for (j, &y) in other.0.iter().enumerate() {
                out[i + j] += u32::from(x) * u32::from(y);
            }
            // Settle carries after each row so no cell can overflow.
            let mut carry = 0u32;
            for cell in &mut out[i..] {
                let v = *cell + carry;
                *cell = v & 0xFF;
                carry = v >> 8;
            }
        }
        Naive::trimmed(out.into_iter().map(|d| d as u8).collect())
    }

    fn shl(&self, shift: u64) -> Naive {
        if self.is_zero() {
            return Naive(Vec::new());
        }
        let mut out = vec![0u8; shift as usize / 8];
        let bit = shift % 8;
        let mut carry = 0u16;
        for &d in &self.0 {
            let v = (u16::from(d) << bit) | carry;
            out.push(v as u8);
            carry = v >> 8;
        }
        out.push(carry as u8);
        Naive::trimmed(out)
    }

    fn shr(&self, shift: u64) -> Naive {
        let skip = shift as usize / 8;
        if skip >= self.0.len() {
            return Naive(Vec::new());
        }
        let bit = shift % 8;
        let digits = &self.0[skip..];
        let out = (0..digits.len())
            .map(|i| {
                let hi = u16::from(*digits.get(i + 1).unwrap_or(&0));
                ((((hi << 8) | u16::from(digits[i])) >> bit) & 0xFF) as u8
            })
            .collect();
        Naive::trimmed(out)
    }

    /// Shift-and-subtract division: `(quotient, remainder)`.
    fn div_rem(&self, divisor: &Naive) -> (Naive, Naive) {
        assert!(!divisor.is_zero(), "naive division by zero");
        if self.cmp(divisor) == std::cmp::Ordering::Less {
            return (Naive(Vec::new()), self.clone());
        }
        let top = self.bits() - divisor.bits();
        let mut rem = self.clone();
        let mut quotient = vec![0u8; top as usize / 8 + 1];
        let mut shifted = divisor.shl(top);
        for k in (0..=top).rev() {
            if let Some(r) = rem.sub(&shifted) {
                rem = r;
                quotient[k as usize / 8] |= 1 << (k % 8);
            }
            shifted = shifted.shr(1);
        }
        (Naive::trimmed(quotient), rem)
    }

    fn gcd(&self, other: &Naive) -> Naive {
        let (mut a, mut b) = (self.clone(), other.clone());
        while !b.is_zero() {
            let r = a.div_rem(&b).1;
            a = b;
            b = r;
        }
        a
    }

    /// Decimal digits by repeated division by ten.
    fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = self.0.clone();
        while !cur.is_empty() {
            let mut rem = 0u16;
            for d in cur.iter_mut().rev() {
                let v = (rem << 8) | u16::from(*d);
                *d = (v / 10) as u8;
                rem = v % 10;
            }
            digits.push(b'0' + rem as u8);
            cur = Naive::trimmed(cur).0;
        }
        digits.reverse();
        String::from_utf8(digits).unwrap()
    }

    /// The same value as a `BigUint`, through its decimal string.
    fn to_biguint(&self) -> BigUint {
        self.to_decimal().parse().unwrap()
    }
}

impl Rng {
    /// An operand for the naive-reference sweep: up to about 1 100 bits,
    /// biased to `2^64`, `2^128` and `2^192` ± small, to words that are all
    /// ones or a single bit, and to word-sized values.
    fn naive(&mut self) -> Naive {
        match self.below(5) {
            0 => {
                let anchor = Naive::pow2([64, 128, 192][self.below(3) as usize]);
                let small = Naive::from_words(&[self.below(1 << 16)]);
                if self.u64() & 1 == 0 {
                    anchor.add(&small)
                } else {
                    anchor.sub(&small).unwrap()
                }
            }
            1 => {
                let len = 1 + self.below(17);
                let words: Vec<u64> = (0..len)
                    .map(|_| match self.below(4) {
                        0 => u64::MAX,
                        1 => 1 << self.below(64),
                        2 => 0,
                        _ => self.u64(),
                    })
                    .collect();
                Naive::from_words(&words)
            }
            2 => {
                let words: Vec<u64> = (0..18).map(|_| self.u64()).collect();
                Naive::from_words(&words).shr(52 + self.below(1100))
            }
            3 => {
                let k = self.below(1100);
                if self.u64() & 1 == 0 {
                    Naive::pow2(k)
                } else {
                    Naive::pow2(k).sub(&Naive::from_words(&[1])).unwrap()
                }
            }
            _ => Naive::from_words(&[self.u64() >> self.below(64)]),
        }
    }
}

/// Every `BigUint` operation agrees with the naive base-2⁸ reference on
/// operands up to about 1 100 bits. Unlike the `u128` references this
/// sees past two words, and unlike the identities and string round-trips
/// it shares no kernel with the code under test; results are compared as
/// decimal strings, so `Display` is checked on every one.
#[test]
fn differential_against_naive_reference() {
    let mut rng = Rng::new(0x2A1E);
    let mut multi_word_divisors = 0usize;
    let mut wide_operands = 0usize;
    for case in 0..CASES * 4 {
        let (na, nb) = (rng.naive(), rng.naive());
        let (a, b) = (na.to_biguint(), nb.to_biguint());
        let same = |got: &BigUint, want: &Naive, what: &str| {
            assert_eq!(
                got.to_string(),
                want.to_decimal(),
                "{what}, case {case}: a = {}, b = {}",
                na.to_decimal(),
                nb.to_decimal()
            );
        };
        same(&a, &na, "Display");
        same(&(&a + &b), &na.add(&nb), "add");
        same(&(&a * &b), &na.mul(&nb), "mul");
        match na.sub(&nb) {
            Some(d) => same(&(&a - &b), &d, "sub"),
            None => assert!(a.checked_sub(&b).is_none(), "sub underflow, case {case}"),
        }
        assert_eq!(a.cmp(&b), na.cmp(&nb), "cmp, case {case}");
        if !nb.is_zero() {
            let (q, r) = a.div_rem(&b);
            let (nq, nr) = na.div_rem(&nb);
            same(&q, &nq, "quotient");
            same(&r, &nr, "remainder");
            if nb.bits() > 64 {
                multi_word_divisors += 1;
            }
        }
        same(&a.gcd(&b), &na.gcd(&nb), "gcd");
        let s = rng.below(300);
        same(&(&a << s), &na.shl(s), "shl");
        same(&(&a >> s), &na.shr(s), "shr");
        if na.bits() > BigUint::FIXED_BITS || nb.bits() > BigUint::FIXED_BITS {
            wide_operands += 1;
        }
    }
    assert!(
        multi_word_divisors >= 500,
        "sweep must divide by multi-word divisors, got {multi_word_divisors}"
    );
    assert!(
        wide_operands >= 500,
        "sweep must reach the heap tier, got {wide_operands}"
    );
}
