//! A text syntax for epistemic-probabilistic formulas.
//!
//! Specifications are easier to review as text than as builder chains. The
//! grammar (precedence from loosest to tightest):
//!
//! ```text
//! formula  := implies
//! implies  := or ( "->" implies )?                     (right associative)
//! or       := and ( "|" and )*
//! and      := unary ( "&" unary )*
//! unary    := "!" unary
//!           | "K" AGENT unary                          (K0 phi)
//!           | "B" AGENT "{>=" PROB "}" unary           (B0{>=1/2} phi)
//!           | "<>" unary | "[]" unary                  (eventually / always)
//!           | "does" "(" AGENT "," ACTION ")"
//!           | "true" | "false"
//!           | IDENT                                    (registered atom)
//!           | "(" formula ")"
//! AGENT    := decimal            PROB := "a/b" | "0.75" | "1"
//! ```
//!
//! Atoms are registered on the parser by name, binding identifiers to
//! [`Fact`]s.
//!
//! The parser is a recursive descent, so nesting is capped at
//! [`MAX_NESTING`] levels: deeper input is rejected with a positioned
//! [`ParseFormulaError`] instead of overflowing the stack.
//!
//! # Examples
//!
//! ```
//! use pak_logic::parser::FormulaParser;
//! use pak_core::prelude::*;
//! use pak_num::Rational;
//!
//! let mut parser = FormulaParser::<SimpleState, Rational>::new();
//! parser.atom("heads", StateFact::new("heads", |g: &SimpleState| g.env == 1));
//! let f = parser.parse("does(0, 3) -> B0{>=99/100} heads").unwrap();
//! assert_eq!(f.to_string(), "(does_0(action#3) → B_0^{≥99/100} heads)");
//! ```

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use pak_core::fact::Fact;
use pak_core::ids::{ActionId, AgentId};
use pak_core::prob::Probability;
use pak_core::state::GlobalState;
use pak_num::Rational;

use crate::formula::Formula;

/// The deepest nesting a formula may have, counted in prefix operators
/// (`!`, `<>`, `[]`, `K`, `B`), parentheses and right-hand sides of `->`
/// enclosing one another. `!` repeated this many times before `true`
/// parses; one more is an error.
///
/// Each parenthesised level costs several parser frames, about 10 KiB
/// of stack in an unoptimised build, so this cap keeps a parse well
/// inside a 2 MiB thread stack.
pub const MAX_NESTING: usize = 64;

/// The outcome of parsing one (sub)formula.
type Parsed<G, P> = Result<Formula<G, P>, ParseFormulaError>;

/// Error produced when parsing a formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormulaError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseFormulaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseFormulaError {}

/// A parser with a registry of named atoms.
pub struct FormulaParser<G: GlobalState, P: Probability> {
    atoms: HashMap<String, Arc<dyn Fact<G, P> + Send + Sync>>,
}

impl<G: GlobalState, P: Probability> Default for FormulaParser<G, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<G: GlobalState, P: Probability> FormulaParser<G, P> {
    /// An empty parser (only the built-in syntax, no atoms).
    #[must_use]
    pub fn new() -> Self {
        FormulaParser {
            atoms: HashMap::new(),
        }
    }

    /// Registers an atom under `name`. Re-registering replaces the binding.
    pub fn atom(
        &mut self,
        name: impl Into<String>,
        fact: impl Fact<G, P> + Send + Sync + 'static,
    ) -> &mut Self {
        self.atoms.insert(name.into(), Arc::new(fact));
        self
    }

    /// Parses a formula.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseFormulaError`] describing the first syntax problem
    /// or unknown atom.
    pub fn parse(&self, input: &str) -> Result<Formula<G, P>, ParseFormulaError> {
        let mut cursor = Cursor {
            input,
            pos: 0,
            depth: 0,
        };
        let f = self.parse_implies(&mut cursor)?;
        cursor.skip_ws();
        if cursor.pos != input.len() {
            return Err(cursor.error("unexpected trailing input"));
        }
        Ok(f)
    }

    fn parse_implies(&self, c: &mut Cursor<'_>) -> Result<Formula<G, P>, ParseFormulaError> {
        let lhs = self.parse_or(c)?;
        c.skip_ws();
        if c.eat("->") {
            let rhs = self.nested(c, Self::parse_implies)?;
            return Ok(lhs.implies(rhs));
        }
        Ok(lhs)
    }

    fn parse_or(&self, c: &mut Cursor<'_>) -> Result<Formula<G, P>, ParseFormulaError> {
        let mut acc = self.parse_and(c)?;
        loop {
            c.skip_ws();
            if c.eat("|") {
                let rhs = self.parse_and(c)?;
                acc = acc.or(rhs);
            } else {
                return Ok(acc);
            }
        }
    }

    fn parse_and(&self, c: &mut Cursor<'_>) -> Result<Formula<G, P>, ParseFormulaError> {
        let mut acc = self.parse_unary(c)?;
        loop {
            c.skip_ws();
            if c.eat("&") {
                let rhs = self.parse_unary(c)?;
                acc = acc.and(rhs);
            } else {
                return Ok(acc);
            }
        }
    }

    fn parse_unary(&self, c: &mut Cursor<'_>) -> Result<Formula<G, P>, ParseFormulaError> {
        c.skip_ws();
        if c.eat("!") {
            return Ok(self.nested(c, Self::parse_unary)?.not());
        }
        if c.eat("<>") {
            return Ok(self.nested(c, Self::parse_unary)?.eventually());
        }
        if c.eat("[]") {
            return Ok(self.nested(c, Self::parse_unary)?.always());
        }
        if c.eat("(") {
            let inner = self.nested(c, Self::parse_implies)?;
            c.skip_ws();
            if !c.eat(")") {
                return Err(c.error("expected ')'"));
            }
            return Ok(inner);
        }
        // Keywords and modal operators.
        if c.peek_keyword("does") {
            c.eat("does");
            c.skip_ws();
            if !c.eat("(") {
                return Err(c.error("expected '(' after does"));
            }
            let agent = c.parse_number("agent id")?;
            c.skip_ws();
            if !c.eat(",") {
                return Err(c.error("expected ',' in does(agent, action)"));
            }
            let action = c.parse_number("action id")?;
            c.skip_ws();
            if !c.eat(")") {
                return Err(c.error("expected ')' after does arguments"));
            }
            return Ok(Formula::does(AgentId(agent), ActionId(action)));
        }
        if c.peek_keyword("true") {
            c.eat("true");
            return Ok(Formula::True);
        }
        if c.peek_keyword("false") {
            c.eat("false");
            return Ok(Formula::False);
        }
        // K<agent> inner
        if c.peek_char('K') && c.digit_follows(1) {
            c.advance(1);
            let agent = c.parse_number("agent id")?;
            let inner = self.nested(c, Self::parse_unary)?;
            return Ok(Formula::knows(AgentId(agent), inner));
        }
        // B<agent>{>=p} inner
        if c.peek_char('B') && c.digit_follows(1) {
            c.advance(1);
            let agent = c.parse_number("agent id")?;
            c.skip_ws();
            if !c.eat("{>=") {
                return Err(c.error("expected '{>=' after belief agent"));
            }
            let prob = c.parse_probability::<P>()?;
            if !c.eat("}") {
                return Err(c.error("expected '}' after belief threshold"));
            }
            let inner = self.nested(c, Self::parse_unary)?;
            return Ok(Formula::believes_at_least(AgentId(agent), inner, prob));
        }
        // Identifier atom.
        let ident = c.parse_ident()?;
        match self.atoms.get(&ident) {
            Some(fact) => Ok(Formula::Atom(Arc::clone(fact))),
            None => Err(c.error(&format!("unknown atom '{ident}'"))),
        }
    }

    /// Parses an operand one nesting level deeper, enforcing
    /// [`MAX_NESTING`].
    fn nested(
        &self,
        c: &mut Cursor<'_>,
        parse: fn(&Self, &mut Cursor<'_>) -> Parsed<G, P>,
    ) -> Parsed<G, P> {
        if c.depth == MAX_NESTING {
            return Err(c.error(&format!("formula nested deeper than {MAX_NESTING} levels")));
        }
        c.depth += 1;
        let operand = parse(self, c);
        c.depth -= 1;
        operand
    }
}

impl<G: GlobalState, P: Probability> fmt::Debug for FormulaParser<G, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.atoms.keys().map(String::as_str).collect();
        names.sort_unstable();
        write!(f, "FormulaParser{{atoms: {names:?}}}")
    }
}

/// Input cursor with basic token helpers.
struct Cursor<'a> {
    input: &'a str,
    pos: usize,
    /// Operands currently open around the cursor (see [`MAX_NESTING`]).
    depth: usize,
}

impl Cursor<'_> {
    fn rest(&self) -> &str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(char::is_whitespace) {
            self.pos += self.rest().chars().next().map_or(0, char::len_utf8);
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn advance(&mut self, bytes: usize) {
        self.pos += bytes;
    }

    fn peek_char(&mut self, ch: char) -> bool {
        self.skip_ws();
        self.rest().starts_with(ch)
    }

    fn digit_follows(&self, offset: usize) -> bool {
        self.rest()
            .as_bytes()
            .get(offset)
            .is_some_and(u8::is_ascii_digit)
    }

    fn peek_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = self.rest();
        rest.starts_with(kw)
            && !rest[kw.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }

    fn parse_number(&mut self, what: &str) -> Result<u32, ParseFormulaError> {
        self.skip_ws();
        let digits: String = self
            .rest()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if digits.is_empty() {
            return Err(self.error(&format!("expected {what}")));
        }
        self.pos += digits.len();
        digits
            .parse()
            .map_err(|_| self.error(&format!("{what} out of range")))
    }

    fn parse_probability<P: Probability>(&mut self) -> Result<P, ParseFormulaError> {
        self.skip_ws();
        let token: String = self
            .rest()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '/' || *c == '.')
            .collect();
        if token.is_empty() {
            return Err(self.error("expected probability"));
        }
        let rat = Rational::from_str(&token)
            .map_err(|e| self.error(&format!("bad probability '{token}': {e}")))?;
        if !rat.is_probability() {
            return Err(self.error(&format!("'{token}' is not in [0, 1]")));
        }
        self.pos += token.len();
        // Convert through u64 ratio (denominators in specs are small).
        let num = rat.numer().magnitude().to_u64();
        let den = rat.denom().to_u64();
        match (num, den) {
            (Some(n), Some(d)) => Ok(P::from_ratio(n, d)),
            _ => Err(self.error("probability too large to represent")),
        }
    }

    fn parse_ident(&mut self) -> Result<String, ParseFormulaError> {
        self.skip_ws();
        let ident: String = self
            .rest()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if ident.is_empty() || ident.starts_with(|c: char| c.is_ascii_digit()) {
            return Err(self.error("expected a formula"));
        }
        self.pos += ident.len();
        Ok(ident)
    }

    fn error(&self, message: &str) -> ParseFormulaError {
        ParseFormulaError {
            position: self.pos,
            message: message.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_core::fact::StateFact;
    use pak_core::pps::PpsBuilder;
    use pak_core::state::SimpleState;

    fn parser() -> FormulaParser<SimpleState, Rational> {
        let mut p = FormulaParser::new();
        p.atom(
            "heads",
            StateFact::new("heads", |g: &SimpleState| g.env == 1),
        );
        p.atom(
            "ok_2",
            StateFact::new("ok_2", |g: &SimpleState| g.locals[0] == 2),
        );
        p
    }

    #[test]
    fn parses_connectives_with_precedence() {
        let p = parser();
        // & binds tighter than |, which binds tighter than ->.
        let f = p.parse("heads & ok_2 | !heads -> false").unwrap();
        assert_eq!(f.to_string(), "(((heads ∧ ok_2) ∨ ¬heads) → ⊥)");
    }

    #[test]
    fn implication_is_right_associative() {
        let p = parser();
        let f = p.parse("heads -> heads -> heads").unwrap();
        assert_eq!(f.to_string(), "(heads → (heads → heads))");
    }

    #[test]
    fn parses_modalities() {
        let p = parser();
        let f = p.parse("K0 heads").unwrap();
        assert_eq!(f.to_string(), "K_0 heads");
        let f = p.parse("B1{>=3/4} !heads").unwrap();
        assert_eq!(f.to_string(), "B_1^{≥3/4} ¬heads");
        let f = p.parse("B0{>=0.25} heads").unwrap();
        assert_eq!(f.to_string(), "B_0^{≥1/4} heads");
        let f = p.parse("<> heads & [] true").unwrap();
        assert_eq!(f.to_string(), "(◇heads ∧ □⊤)");
    }

    #[test]
    fn parses_does_and_parens() {
        let p = parser();
        let f = p.parse("does(0, 3) -> (heads | false)").unwrap();
        assert_eq!(f.to_string(), "(does_0(action#3) → (heads ∨ ⊥))");
    }

    #[test]
    fn parsed_formula_evaluates() {
        let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
        b.initial(SimpleState::new(1, vec![0]), Rational::from_ratio(3, 4))
            .unwrap();
        b.initial(SimpleState::new(0, vec![0]), Rational::from_ratio(1, 4))
            .unwrap();
        let pps = b.build().unwrap();
        let p = parser();
        let f = p.parse("B0{>=3/4} heads & !K0 heads").unwrap();
        let pt = pak_core::ids::Point {
            run: pak_core::ids::RunId(0),
            time: 0,
        };
        assert!(f.holds_at(&pps, pt));
    }

    #[test]
    fn error_positions_and_messages() {
        let p = parser();
        let err = p.parse("heads &").unwrap_err();
        assert!(err.message.contains("expected a formula"));
        let err = p.parse("mystery").unwrap_err();
        assert!(err.message.contains("unknown atom 'mystery'"));
        let err = p.parse("heads extra").unwrap_err();
        assert!(err.message.contains("trailing"));
        let err = p.parse("B0{>=5/4} heads").unwrap_err();
        assert!(err.message.contains("not in [0, 1]"));
        let err = p.parse("B0{>= } heads").unwrap_err();
        assert!(err.message.contains("expected probability"));
        let err = p.parse("does(0 3)").unwrap_err();
        assert!(err.message.contains("','"));
        let err = p.parse("(heads").unwrap_err();
        assert!(err.message.contains("')'"));
    }

    #[test]
    fn keywords_do_not_swallow_identifiers() {
        let mut p = parser();
        p.atom("doesnt", StateFact::new("doesnt", |_: &SimpleState| true));
        p.atom("truex", StateFact::new("truex", |_: &SimpleState| true));
        assert!(p.parse("doesnt").is_ok());
        assert!(p.parse("truex").is_ok());
        assert!(p.parse("true").unwrap().to_string() == "⊤");
    }

    #[test]
    fn k_and_b_require_digit() {
        // 'K' followed by a non-digit is an identifier, not a modality.
        let mut p = parser();
        p.atom("Kind", StateFact::new("Kind", |_: &SimpleState| true));
        assert!(p.parse("Kind").is_ok());
    }

    #[test]
    fn nesting_is_capped_with_a_positioned_error() {
        let p = parser();
        let bangs = |n: usize| format!("{}true", "!".repeat(n));
        let parens = |n: usize| format!("{}true{}", "(".repeat(n), ")".repeat(n));
        let arrows = |n: usize| format!("{}true", "true -> ".repeat(n));
        for deep in [bangs, parens, arrows] {
            assert!(p.parse(&deep(MAX_NESTING)).is_ok());
            let err = p.parse(&deep(MAX_NESTING + 1)).unwrap_err();
            assert!(err.message.contains("nested deeper"), "{err}");
            assert!(p.parse(&deep(100_000)).is_err());
        }
        // The error points just past the operator that opened one level
        // too many.
        assert_eq!(
            p.parse(&bangs(MAX_NESTING + 1)).unwrap_err().position,
            MAX_NESTING + 1
        );
    }

    #[test]
    fn whitespace_insensitive() {
        let p = parser();
        let a = p.parse("K0(heads&ok_2)").unwrap();
        let b = p.parse("  K0 ( heads & ok_2 )  ").unwrap();
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn debug_lists_atoms() {
        let p = parser();
        let s = format!("{p:?}");
        assert!(s.contains("heads") && s.contains("ok_2"));
    }
}
