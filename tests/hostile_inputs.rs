//! Hostile-input sweep for the protocol DSL: seeded byte-level mutations
//! of grammar-fuzzed programs go through `parse` → `compile`, and none
//! may panic.
//!
//! The mutations are truncation at many offsets (also of a copy with a
//! comment, some of it multi-byte, at the end of every line), random
//! byte splices (invalid UTF-8 is replaced by U+FFFD, so multi-byte
//! characters land in the middle of tokens), 20-digit and `u64::MAX`
//! numerals, a 64 KiB identifier, and deleted and duplicated lines.
//!
//! Every rejected input must carry a usable position: the error span
//! lies inside the source on char boundaries, and its 1-based
//! `(line, col)` equals a recount from `span.offset` (lines split at
//! `\n`, columns counted in characters).

use std::panic::{catch_unwind, AssertUnwindSafe};

use pak::core::generator::SplitMix64;
use pak::dsl::fuzz::{fuzz_program, FuzzConfig};
use pak::dsl::{compile_str, DslError};
use pak::num::Rational;

/// Fuzzed programs each mutation family starts from.
const PROGRAMS: u64 = 24;

/// Compiles `src` under `catch_unwind` and checks the error's position.
/// Returns whether the input was rejected.
fn check(src: &str) -> bool {
    let result = catch_unwind(AssertUnwindSafe(|| compile_str::<Rational>(src)))
        .unwrap_or_else(|_| panic!("compile_str panicked on:\n{src}"));
    match result {
        Ok(_) => false,
        Err(e) => {
            check_span(src, &e);
            true
        }
    }
}

fn check_span(src: &str, e: &DslError) {
    let (offset, end) = (e.span.offset, e.span.offset + e.span.len);
    assert!(
        end <= src.len() && src.is_char_boundary(offset) && src.is_char_boundary(end),
        "span {:?} is not a char range of a {}-byte source: {e}\n{src}",
        e.span,
        src.len()
    );
    let before = &src[..offset];
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    let line = 1 + before.matches('\n').count();
    let col = 1 + before[line_start..].chars().count();
    assert_eq!(
        (e.span.line as usize, e.span.col as usize),
        (line, col),
        "position of `{e}` does not recount from offset {offset} in:\n{src}"
    );
}

fn programs() -> impl Iterator<Item = (u64, String)> {
    (0..PROGRAMS).map(|seed| (seed, fuzz_program(seed, &FuzzConfig::default())))
}

/// Every char-boundary prefix of `src` at a stride of `step` bytes. Only
/// prefixes still holding the closing `}` may compile.
fn truncations(src: &str, step: usize) -> usize {
    let close = src.rfind('}').expect("a program ends with `}`");
    let mut rejected = 0;
    for cut in (0..src.len()).step_by(step) {
        if !src.is_char_boundary(cut) {
            continue;
        }
        let is_rejected = check(&src[..cut]);
        assert!(is_rejected || cut > close, "prefix of {cut} bytes compiled");
        rejected += usize::from(is_rejected);
    }
    rejected
}

#[test]
fn truncated_programs_are_rejected_with_exact_positions() {
    for (seed, src) in programs() {
        assert!(truncations(&src, 3) > 0, "seed {seed}");
        // The same program with a comment closing every line: a prefix
        // ending inside a comment reports end of input after it.
        let commented: String = src
            .lines()
            .enumerate()
            .map(|(i, line)| format!("{line} # line {i}: é→ü\n"))
            .collect();
        assert!(!check(&commented), "seed {seed}: comments rejected");
        assert!(truncations(&commented, 2) > 0, "seed {seed}");
    }
}

#[test]
fn spliced_bytes_never_panic() {
    const PALETTE: &[&[u8]] = &[
        b"#",
        b"\n",
        b"{",
        b"}",
        b"(",
        b")",
        b"[",
        b"]",
        b";",
        b":",
        b",",
        b"/",
        b"/0",
        b"=",
        b"-",
        b"->",
        b"_",
        b"0",
        b"7",
        b"x",
        b"skip",
        b"at",
        b"from",
        b"when",
        b"fail",
        b"state",
        "é".as_bytes(),
        "→".as_bytes(),
        "𝛼".as_bytes(),
        b"\t",
        b"\r",
        b"\xff",
        b"\xc3",
        b"\xe2\x86",
        b"\x00",
    ];
    let mut rng = SplitMix64::new(0x5eed);
    let mut rejected = 0;
    let mut total = 0;
    for (_, src) in programs() {
        for _ in 0..64 {
            let mut bytes = src.clone().into_bytes();
            for _ in 0..rng.range(1, 4) {
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                let splice: Vec<u8> = if rng.chance(1, 2) {
                    PALETTE[rng.below(PALETTE.len() as u64) as usize].to_vec()
                } else {
                    (0..rng.range(1, 4)).map(|_| rng.below(256) as u8).collect()
                };
                if rng.chance(1, 3) && at < bytes.len() {
                    // Overwrite instead of insert.
                    let end = (at + splice.len()).min(bytes.len());
                    bytes.splice(at..end, splice);
                } else {
                    bytes.splice(at..at, splice);
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            rejected += usize::from(check(&text));
            total += 1;
        }
    }
    assert!(
        rejected > total / 2,
        "only {rejected} of {total} splices rejected"
    );
}

#[test]
fn huge_numerals_and_identifiers_never_panic() {
    let long_ident = "a".repeat(64 * 1024);
    for (seed, src) in programs() {
        // Every numeral in turn replaced by one too large for `u64`, and
        // by `u64::MAX`, which lexes but fits no horizon, time or id.
        let digits: Vec<usize> = src
            .char_indices()
            .filter(|&(i, c)| {
                c.is_ascii_digit()
                    && !src[..i].ends_with(|p: char| p.is_ascii_alphanumeric() || p == '_')
            })
            .map(|(i, _)| i)
            .collect();
        for &at in digits.iter().step_by(3) {
            let len = src[at..].bytes().take_while(u8::is_ascii_digit).count();
            let splice = |numeral| format!("{}{numeral}{}", &src[..at], &src[at + len..]);
            assert!(
                check(&splice("99999999999999999999")),
                "seed {seed}: at {at}"
            );
            check(&splice("18446744073709551615"));
        }
        // A 64 KiB name: as the protocol's or every mention of a state's
        // it compiles; in the state's declaration alone it leaves the
        // other mentions, if any, unresolved.
        let renamed = src.replacen(&format!("fuzzed_{seed}"), &long_ident, 1);
        assert!(!check(&renamed), "seed {seed}: long protocol name rejected");
        assert!(!check(&src.replace("s0", &long_ident)), "seed {seed}");
        check(&src.replacen("s0", &long_ident, 1));
    }
}

#[test]
fn deleted_and_duplicated_lines_never_panic() {
    for (_, src) in programs() {
        let lines: Vec<&str> = src.lines().collect();
        for i in 0..lines.len() {
            let without: Vec<&str> = lines
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, l)| *l)
                .collect();
            check(&without.join("\n"));
            let mut doubled = lines.clone();
            doubled.insert(i, lines[i]);
            check(&doubled.join("\n"));
        }
    }
}
