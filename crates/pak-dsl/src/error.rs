//! Spanned diagnostics shared by the lexer, parser, and compiler.
//!
//! Every error the crate produces is a [`DslError`]: a [`Span`] locating
//! the offending text (byte offset plus 1-based line/column) and a
//! [`DslErrorKind`] saying what went wrong. Kinds are a plain `PartialEq`
//! enum so tests can assert the *exact* diagnostic and position (see the
//! malformed-program table in `parser.rs`), and every message names the
//! construct involved so the fix is actionable from the message alone.

use std::fmt;

/// A source location: byte offset and length, plus 1-based line/column of
/// the start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the start of the span in the source text.
    pub offset: usize,
    /// Length of the span in bytes.
    pub len: usize,
    /// 1-based line number of the start.
    pub line: u32,
    /// 1-based column number (in characters) of the start.
    pub col: u32,
}

impl Span {
    /// The smallest span covering both `self` and `other` (keeps `self`'s
    /// line/column, which is the earlier position by construction).
    #[must_use]
    pub fn to(self, other: Span) -> Span {
        let end = (other.offset + other.len).max(self.offset + self.len);
        Span {
            offset: self.offset,
            len: end - self.offset,
            line: self.line,
            col: self.col,
        }
    }
}

/// What went wrong — lexing, parsing, or a compile-time check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DslErrorKind {
    /// A character outside the language's alphabet.
    UnexpectedChar(char),
    /// An integer literal exceeding `u64`.
    NumberTooLarge,
    /// The parser needed one construct and found another.
    Expected {
        /// What the grammar required at this point.
        what: &'static str,
        /// A rendering of the token actually found.
        found: String,
    },
    /// Input continued after the closing `}` of the protocol block.
    TrailingInput,
    /// A weight with denominator zero.
    ZeroDenominator,
    /// An agent name listed twice.
    DuplicateAgent(String),
    /// A state name declared twice.
    DuplicateState(String),
    /// An action name declared twice.
    DuplicateAction(String),
    /// Two actions declared with the same numeric id.
    DuplicateActionId(u64),
    /// An adversary name declared twice.
    DuplicateAdversary(String),
    /// Two rules with the same key (described in the payload).
    DuplicateRule(String),
    /// A top-level declaration that may appear only once, repeated.
    DuplicateDecl(&'static str),
    /// A required top-level declaration never appeared.
    MissingDecl(&'static str),
    /// A reference to an undeclared state.
    UnknownState(String),
    /// A reference to an undeclared action.
    UnknownAction(String),
    /// A reference to an agent not listed in `agents`.
    UnknownAgent(String),
    /// A declared name that collides with a keyword of the language.
    ReservedName(String),
    /// A tuple whose length must equal the number of agents, but doesn't.
    ArityMismatch {
        /// The required length (one entry per agent).
        expected: usize,
        /// The length found.
        found: usize,
    },
    /// A weight equal to zero (distributions must have positive support).
    ZeroWeight,
    /// A distribution whose weights do not sum to exactly one.
    WeightSum(String),
    /// A rule keyed at a time at or beyond the declared horizon.
    TimeBeyondHorizon {
        /// The offending time.
        time: u64,
        /// The declared horizon.
        horizon: u64,
    },
    /// An integer valid for the grammar but out of range for its use.
    IntOutOfRange {
        /// What the integer is (e.g. "action id", "horizon").
        what: &'static str,
        /// The largest admissible value.
        max: u64,
    },
}

impl fmt::Display for DslErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslErrorKind::UnexpectedChar(c) => write!(f, "unexpected character `{c}`"),
            DslErrorKind::NumberTooLarge => write!(f, "integer literal too large for u64"),
            DslErrorKind::Expected { what, found } => {
                write!(f, "expected {what}, found {found}")
            }
            DslErrorKind::TrailingInput => {
                write!(f, "unexpected input after the closing `}}` of the protocol")
            }
            DslErrorKind::ZeroDenominator => write!(f, "weight denominator must not be zero"),
            DslErrorKind::DuplicateAgent(n) => write!(f, "duplicate agent `{n}`"),
            DslErrorKind::DuplicateState(n) => {
                write!(f, "state `{n}` is declared more than once")
            }
            DslErrorKind::DuplicateAction(n) => {
                write!(f, "action `{n}` is declared more than once")
            }
            DslErrorKind::DuplicateActionId(id) => {
                write!(f, "action id {id} is assigned to more than one action")
            }
            DslErrorKind::DuplicateAdversary(n) => {
                write!(f, "adversary `{n}` is declared more than once")
            }
            DslErrorKind::DuplicateRule(key) => {
                write!(f, "duplicate rule for {key}")
            }
            DslErrorKind::DuplicateDecl(what) => {
                write!(f, "more than one `{what}` declaration")
            }
            DslErrorKind::MissingDecl(what) => {
                write!(f, "the protocol is missing its `{what}` declaration")
            }
            DslErrorKind::UnknownState(n) => {
                write!(
                    f,
                    "unknown state `{n}` (declare it with `state {n} = (…);`)"
                )
            }
            DslErrorKind::UnknownAction(n) => {
                write!(
                    f,
                    "unknown action `{n}` (declare it with `action {n} = <id>;`)"
                )
            }
            DslErrorKind::UnknownAgent(n) => {
                write!(
                    f,
                    "unknown agent `{n}` (list it in the `agents` declaration)"
                )
            }
            DslErrorKind::ReservedName(n) => {
                write!(f, "`{n}` is a keyword and cannot be used as a name")
            }
            DslErrorKind::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "expected {expected} entries (one per agent), found {found}"
                )
            }
            DslErrorKind::ZeroWeight => write!(f, "weights must be positive"),
            DslErrorKind::WeightSum(sum) => {
                write!(f, "distribution weights sum to {sum}, expected exactly 1")
            }
            DslErrorKind::TimeBeyondHorizon { time, horizon } => {
                write!(
                    f,
                    "time {time} is at or beyond the horizon {horizon} (rules must fire before it)"
                )
            }
            DslErrorKind::IntOutOfRange { what, max } => {
                write!(f, "{what} out of range (max {max})")
            }
        }
    }
}

/// An error anywhere in the parse → compile pipeline, with the
/// source location it refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    /// Where in the source text.
    pub span: Span,
    /// What went wrong.
    pub kind: DslErrorKind,
}

impl DslError {
    /// Constructs an error at `span`.
    #[must_use]
    pub fn new(span: Span, kind: DslErrorKind) -> Self {
        DslError { span, kind }
    }
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.span.line, self.span.col, self.kind
        )
    }
}

impl std::error::Error for DslError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_line_and_column() {
        let e = DslError::new(
            Span {
                offset: 12,
                len: 3,
                line: 2,
                col: 5,
            },
            DslErrorKind::UnknownState("s9".to_string()),
        );
        let s = e.to_string();
        assert!(s.starts_with("line 2, column 5:"), "{s}");
        assert!(s.contains("unknown state `s9`"), "{s}");
    }

    #[test]
    fn span_join_covers_both() {
        let a = Span {
            offset: 4,
            len: 2,
            line: 1,
            col: 5,
        };
        let b = Span {
            offset: 9,
            len: 3,
            line: 1,
            col: 10,
        };
        let j = a.to(b);
        assert_eq!(j.offset, 4);
        assert_eq!(j.len, 8);
        assert_eq!((j.line, j.col), (1, 5));
    }
}
