//! The recursive-descent parser for the protocol language.
//!
//! The grammar (no operator precedence — it is a declaration language;
//! productions are listed outermost first, and the only nesting is
//! distributions inside rules):
//!
//! ```text
//! program    := "protocol" IDENT "{" decl* "}"
//! decl       := "agents" IDENT ("," IDENT)* ";"
//!             | "horizon" INT ";"
//!             | "action" IDENT "=" INT ";"
//!             | "state" IDENT "=" "(" INT ("," INT)* ")" "fail"? ";"
//!             | "init" "{" (WEIGHT ":" IDENT ";")* "}"
//!             | "moves" IDENT "{" move-rule* "}"
//!             | "transitions" "{" trans-rule* "}"
//!             | "adversary" IDENT "{" trans-rule* "}"
//! move-rule  := "at" "(" INT "," INT ")" "->" move-dist ";"
//! move-dist  := move-act | "{" (WEIGHT ":" move-act ";")+ "}"
//! move-act   := "skip" | IDENT
//! trans-rule := "from" IDENT "at" INT ("when" "[" pat ("," pat)* "]")?
//!               "->" trans-dist ";"
//! pat        := "_" | "skip" | IDENT
//! trans-dist := IDENT | "{" (WEIGHT ":" IDENT ";")+ "}"
//! WEIGHT     := INT ("/" INT)?
//! ```
//!
//! `IDENT` is `[A-Za-z][A-Za-z0-9_]*`, `INT` is a decimal `u64`, and `#`
//! comments run to end of line. In a `state` declaration the first integer
//! is the environment component and the remaining ones are the agents'
//! local data, in `agents`-declaration order. In a `move-rule`, `at
//! (LOCAL, TIME)` keys the rule on the agent's own local data — agents
//! cannot read anything else, which is the paper's locality condition
//! enforced by the grammar itself. Keywords are contextual; the compiler
//! additionally rejects declaring names that collide with them.
//!
//! Every diagnostic is a spanned [`DslError`] pointing at the offending
//! token with a message naming both what was required and what was found.
//!
//! # Examples
//!
//! ```
//! use pak_dsl::parse;
//!
//! let prog = parse(
//!     "protocol coin {
//!          agents observer;
//!          horizon 1;
//!          action guess = 0;
//!          state heads = (1, 0);
//!          state tails = (0, 0);
//!          init { 1/2: heads; 1/2: tails; }
//!          moves observer { at (0, 0) -> guess; }
//!      }",
//! )
//! .unwrap();
//! assert_eq!(prog.name.value, "coin");
//! assert_eq!(prog.states.len(), 2);
//!
//! // Errors carry a 1-based line/column and an actionable message.
//! let err = parse("protocol p { horizon; }").unwrap_err();
//! assert_eq!((err.span.line, err.span.col), (1, 21));
//! assert_eq!(err.to_string(), "line 1, column 21: expected an integer, found `;`");
//! ```

use crate::ast::{
    ActionDecl, AdversaryDecl, GuardPat, InitArm, MoveAction, MoveArm, MoveBlock, MoveRule,
    Program, Spanned, StateDecl, TransArm, TransRule, Weight,
};
use crate::error::{DslError, DslErrorKind, Span};
use crate::lexer::{Lexer, Token, TokenKind};

/// Parses a protocol program.
///
/// This is purely syntactic — name resolution, arity checks, and
/// weight-sum checks happen in [`crate::compile()`].
///
/// # Errors
///
/// Returns a spanned [`DslError`] describing the first lexical or
/// syntactic problem in source order.
pub fn parse(src: &str) -> Result<Program, DslError> {
    let mut lexer = Lexer::new(src);
    let tok = lexer.next_token()?;
    Parser { lexer, tok }.program()
}

/// The parser state: the lexer and one token of lookahead. A lexical
/// error surfaces when the token it sits in becomes the lookahead, so
/// diagnostics come in source order.
struct Parser<'src> {
    lexer: Lexer<'src>,
    tok: Token<'src>,
}

impl<'src> Parser<'src> {
    fn bump(&mut self) -> Result<Token<'src>, DslError> {
        let t = self.tok;
        self.tok = self.lexer.next_token()?;
        Ok(t)
    }

    fn err_here(&self, what: &'static str) -> DslError {
        DslError::new(
            self.tok.span,
            DslErrorKind::Expected {
                what,
                found: self.tok.kind.describe(),
            },
        )
    }

    fn eat(&mut self, kind: TokenKind<'_>) -> Result<Option<Span>, DslError> {
        if self.tok.kind == kind {
            Ok(Some(self.bump()?.span))
        } else {
            Ok(None)
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>, what: &'static str) -> Result<Span, DslError> {
        self.eat(kind)?.ok_or_else(|| self.err_here(what))
    }

    fn expect_ident(&mut self, what: &'static str) -> Result<Spanned<String>, DslError> {
        match self.tok.kind {
            TokenKind::Ident(s) => Ok(Spanned::new(s.to_string(), self.bump()?.span)),
            _ => Err(self.err_here(what)),
        }
    }

    fn expect_int(&mut self, what: &'static str) -> Result<Spanned<u64>, DslError> {
        match self.tok.kind {
            TokenKind::Int(n) => Ok(Spanned::new(n, self.bump()?.span)),
            _ => Err(self.err_here(what)),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<Option<Span>, DslError> {
        self.eat(TokenKind::Ident(kw))
    }

    fn expect_keyword(&mut self, kw: &str, what: &'static str) -> Result<Span, DslError> {
        self.eat_keyword(kw)?.ok_or_else(|| self.err_here(what))
    }

    fn program(&mut self) -> Result<Program, DslError> {
        self.expect_keyword("protocol", "the keyword `protocol`")?;
        let name = self.expect_ident("a protocol name")?;
        self.expect(TokenKind::LBrace, "`{` opening the protocol body")?;
        let mut prog = Program {
            name,
            agents: Vec::new(),
            horizon: None,
            actions: Vec::new(),
            states: Vec::new(),
            init: Vec::new(),
            moves: Vec::new(),
            transitions: Vec::new(),
            adversaries: Vec::new(),
        };
        let mut init_seen = false;
        loop {
            if self.eat(TokenKind::RBrace)?.is_some() {
                break;
            }
            self.decl(&mut prog, &mut init_seen)?;
        }
        if self.tok.kind != TokenKind::Eof {
            return Err(DslError::new(self.tok.span, DslErrorKind::TrailingInput));
        }
        Ok(prog)
    }

    fn decl(&mut self, prog: &mut Program, init_seen: &mut bool) -> Result<(), DslError> {
        const WHAT: &str = "a declaration (`agents`, `horizon`, `action`, `state`, `init`, \
                            `moves`, `transitions`, or `adversary`) or `}`";
        let TokenKind::Ident(kw) = self.tok.kind else {
            return Err(self.err_here(WHAT));
        };
        let kw_span = self.tok.span;
        match kw {
            "agents" => {
                if !prog.agents.is_empty() {
                    return Err(DslError::new(
                        kw_span,
                        DslErrorKind::DuplicateDecl("agents"),
                    ));
                }
                self.bump()?;
                prog.agents.push(self.expect_ident("an agent name")?);
                while self.eat(TokenKind::Comma)?.is_some() {
                    prog.agents.push(self.expect_ident("an agent name")?);
                }
                self.expect(TokenKind::Semi, "`;` after the agent list")?;
            }
            "horizon" => {
                if prog.horizon.is_some() {
                    return Err(DslError::new(
                        kw_span,
                        DslErrorKind::DuplicateDecl("horizon"),
                    ));
                }
                self.bump()?;
                prog.horizon = Some(self.expect_int("an integer")?);
                self.expect(TokenKind::Semi, "`;` after the horizon")?;
            }
            "action" => {
                self.bump()?;
                let name = self.expect_ident("an action name")?;
                self.expect(TokenKind::Eq, "`=` between the action name and its id")?;
                let id = self.expect_int("a numeric action id")?;
                self.expect(TokenKind::Semi, "`;` after the action declaration")?;
                prog.actions.push(ActionDecl { name, id });
            }
            "state" => {
                self.bump()?;
                let name = self.expect_ident("a state name")?;
                self.expect(TokenKind::Eq, "`=` between the state name and its tuple")?;
                self.expect(TokenKind::LParen, "`(` opening the state tuple")?;
                let env = self.expect_int("the environment component")?.value;
                let mut locals = Vec::new();
                while self.eat(TokenKind::Comma)?.is_some() {
                    locals.push(self.expect_int("a local-data component")?.value);
                }
                self.expect(TokenKind::RParen, "`)` closing the state tuple")?;
                let fail = self.eat_keyword("fail")?.is_some();
                self.expect(TokenKind::Semi, "`;` after the state declaration")?;
                prog.states.push(StateDecl {
                    name,
                    env,
                    locals,
                    fail,
                });
            }
            "init" => {
                if *init_seen {
                    return Err(DslError::new(kw_span, DslErrorKind::DuplicateDecl("init")));
                }
                *init_seen = true;
                self.bump()?;
                self.expect(TokenKind::LBrace, "`{` opening the init distribution")?;
                loop {
                    if self.eat(TokenKind::RBrace)?.is_some() {
                        break;
                    }
                    let weight = self.weight()?;
                    self.expect(TokenKind::Colon, "`:` between a weight and its state")?;
                    let state = self.expect_ident("an initial state name")?;
                    self.expect(TokenKind::Semi, "`;` after the init arm")?;
                    prog.init.push(InitArm { weight, state });
                }
            }
            "moves" => {
                self.bump()?;
                let agent = self.expect_ident("an agent name after `moves`")?;
                self.expect(TokenKind::LBrace, "`{` opening the moves block")?;
                let mut rules = Vec::new();
                loop {
                    if self.eat(TokenKind::RBrace)?.is_some() {
                        break;
                    }
                    self.expect_keyword("at", "`at` starting a move rule, or `}`")?;
                    self.expect(TokenKind::LParen, "`(` after `at`")?;
                    let local = self.expect_int("the agent's local data")?;
                    self.expect(TokenKind::Comma, "`,` between local data and time")?;
                    let time = self.expect_int("a time")?;
                    self.expect(TokenKind::RParen, "`)` closing the rule key")?;
                    self.expect(TokenKind::Arrow, "`->` before the move distribution")?;
                    let dist = self.move_dist()?;
                    self.expect(TokenKind::Semi, "`;` after the move rule")?;
                    rules.push(MoveRule { local, time, dist });
                }
                prog.moves.push(MoveBlock { agent, rules });
            }
            "transitions" => {
                self.bump()?;
                self.expect(TokenKind::LBrace, "`{` opening the transitions block")?;
                loop {
                    if self.eat(TokenKind::RBrace)?.is_some() {
                        break;
                    }
                    prog.transitions.push(self.trans_rule()?);
                }
            }
            "adversary" => {
                self.bump()?;
                let name = self.expect_ident("an adversary name")?;
                self.expect(TokenKind::LBrace, "`{` opening the adversary block")?;
                let mut rules = Vec::new();
                loop {
                    if self.eat(TokenKind::RBrace)?.is_some() {
                        break;
                    }
                    rules.push(self.trans_rule()?);
                }
                prog.adversaries.push(AdversaryDecl { name, rules });
            }
            _ => return Err(self.err_here(WHAT)),
        }
        Ok(())
    }

    fn weight(&mut self) -> Result<Spanned<Weight>, DslError> {
        let num = self.expect_int("a weight")?;
        if self.eat(TokenKind::Slash)?.is_some() {
            let den = self.expect_int("a weight denominator")?;
            let span = num.span.to(den.span);
            if den.value == 0 {
                return Err(DslError::new(span, DslErrorKind::ZeroDenominator));
            }
            Ok(Spanned::new(
                Weight {
                    num: num.value,
                    den: den.value,
                },
                span,
            ))
        } else {
            Ok(Spanned::new(
                Weight {
                    num: num.value,
                    den: 1,
                },
                num.span,
            ))
        }
    }

    fn move_act(&mut self) -> Result<Spanned<MoveAction>, DslError> {
        if let Some(span) = self.eat_keyword("skip")? {
            return Ok(Spanned::new(MoveAction::Skip, span));
        }
        let name = self.expect_ident("an action name or `skip`")?;
        Ok(Spanned::new(MoveAction::Named(name.value), name.span))
    }

    fn move_dist(&mut self) -> Result<Vec<MoveArm>, DslError> {
        if self.eat(TokenKind::LBrace)?.is_some() {
            let mut arms = Vec::new();
            loop {
                if self.eat(TokenKind::RBrace)?.is_some() {
                    if arms.is_empty() {
                        return Err(self.err_here("at least one `WEIGHT: action;` arm"));
                    }
                    break;
                }
                let weight = self.weight()?;
                self.expect(TokenKind::Colon, "`:` between a weight and its action")?;
                let action = self.move_act()?;
                self.expect(TokenKind::Semi, "`;` after the distribution arm")?;
                arms.push(MoveArm { weight, action });
            }
            Ok(arms)
        } else {
            let action = self.move_act()?;
            let span = action.span;
            Ok(vec![MoveArm {
                weight: Spanned::new(Weight::ONE, span),
                action,
            }])
        }
    }

    fn pattern(&mut self) -> Result<Spanned<GuardPat>, DslError> {
        if let Some(span) = self.eat(TokenKind::Underscore)? {
            return Ok(Spanned::new(GuardPat::Any, span));
        }
        if let Some(span) = self.eat_keyword("skip")? {
            return Ok(Spanned::new(GuardPat::Skip, span));
        }
        let name = self.expect_ident("a move pattern (`_`, `skip`, or an action name)")?;
        Ok(Spanned::new(GuardPat::Named(name.value), name.span))
    }

    fn trans_rule(&mut self) -> Result<TransRule, DslError> {
        self.expect_keyword("from", "`from` starting a transition rule, or `}`")?;
        let from = self.expect_ident("a source state name")?;
        self.expect_keyword("at", "`at` before the rule's time")?;
        let time = self.expect_int("a time")?;
        let guard = if self.eat_keyword("when")?.is_some() {
            self.expect(TokenKind::LBracket, "`[` opening the guard")?;
            let mut pats = vec![self.pattern()?];
            while self.eat(TokenKind::Comma)?.is_some() {
                pats.push(self.pattern()?);
            }
            self.expect(TokenKind::RBracket, "`]` closing the guard")?;
            Some(pats)
        } else {
            None
        };
        self.expect(TokenKind::Arrow, "`->` before the successor distribution")?;
        let dist = if self.eat(TokenKind::LBrace)?.is_some() {
            let mut arms = Vec::new();
            loop {
                if self.eat(TokenKind::RBrace)?.is_some() {
                    if arms.is_empty() {
                        return Err(self.err_here("at least one `WEIGHT: state;` arm"));
                    }
                    break;
                }
                let weight = self.weight()?;
                self.expect(TokenKind::Colon, "`:` between a weight and its state")?;
                let state = self.expect_ident("a successor state name")?;
                self.expect(TokenKind::Semi, "`;` after the distribution arm")?;
                arms.push(TransArm { weight, state });
            }
            arms
        } else {
            let state = self.expect_ident("a successor state name")?;
            let span = state.span;
            vec![TransArm {
                weight: Spanned::new(Weight::ONE, span),
                state,
            }]
        };
        self.expect(TokenKind::Semi, "`;` after the transition rule")?;
        Ok(TransRule {
            from,
            time,
            guard,
            dist,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Weight;
    use crate::compile::compile;
    use pak_num::Rational;

    const GOOD: &str = "
        protocol demo {
            agents a, b;
            horizon 2;
            action go = 3;
            state s0 = (0, 0, 0);
            state s1 = (1, 1, 0) fail;
            init { 2/3: s0; 1/3: s1; }
            moves a {
                at (0, 0) -> { 1/2: go; 1/2: skip; };
                at (1, 1) -> go;
            }
            transitions {
                from s0 at 0 when [go, _] -> { 3/4: s1; 1/4: s0; };
                from s0 at 0 -> s0;
            }
            adversary crash {
                from s0 at 0 -> s1;
            }
        }";

    #[test]
    fn parses_every_construct() {
        let p = parse(GOOD).unwrap();
        assert_eq!(p.name.value, "demo");
        assert_eq!(p.agents.len(), 2);
        assert_eq!(p.horizon.as_ref().unwrap().value, 2);
        assert_eq!(p.actions[0].id.value, 3);
        assert!(p.states[1].fail && !p.states[0].fail);
        assert_eq!(p.init.len(), 2);
        assert_eq!(p.moves[0].rules.len(), 2);
        assert_eq!(p.moves[0].rules[1].dist[0].weight.value, Weight::ONE);
        assert_eq!(p.transitions.len(), 2);
        assert!(p.transitions[0].guard.is_some() && p.transitions[1].guard.is_none());
        assert_eq!(p.adversaries[0].name.value, "crash");
    }

    #[test]
    fn display_round_trips_structurally() {
        let p = parse(GOOD).unwrap();
        let printed = p.to_string();
        let reparsed = parse(&printed).unwrap();
        assert_eq!(p, reparsed, "pretty-printed program:\n{printed}");
        // And printing is a fixpoint: printing the reparse prints the same.
        assert_eq!(printed, reparsed.to_string());
    }

    /// The error-quality table: ~30 malformed programs, each asserting
    /// the exact [`DslErrorKind`] and the exact 1-based line/column the
    /// diagnostic points at. All inputs are single-line so the column is
    /// easy to count; the full parse → compile pipeline runs so lexical,
    /// syntactic, and semantic diagnostics are all covered.
    #[test]
    fn malformed_program_table() {
        use DslErrorKind as K;
        let cases: Vec<(&str, DslErrorKind, u32, u32)> = vec![
            // --- lexical ---
            ("protocol p @{ }", K::UnexpectedChar('@'), 1, 12),
            // The column after a comment counts the comment's characters.
            (
                "protocol p { # trailing comment",
                K::Expected {
                    what: "a declaration (`agents`, `horizon`, `action`, `state`, `init`, \
                           `moves`, `transitions`, or `adversary`) or `}`",
                    found: "end of input".into(),
                },
                1,
                32,
            ),
            (
                "protocol p { horizon 18446744073709551616; }",
                K::NumberTooLarge,
                1,
                22,
            ),
            // --- syntactic ---
            (
                "protocol p { horizon; }",
                K::Expected {
                    what: "an integer",
                    found: "`;`".into(),
                },
                1,
                21,
            ),
            // Diagnostics come in source order: the syntax error before
            // the bad character wins.
            (
                "protocol p { horizon; @ }",
                K::Expected {
                    what: "an integer",
                    found: "`;`".into(),
                },
                1,
                21,
            ),
            (
                "protocol p { horizon 1; } extra",
                K::TrailingInput,
                1,
                27,
            ),
            (
                "protocol p { bogus x; }",
                K::Expected {
                    what: "a declaration (`agents`, `horizon`, `action`, `state`, `init`, \
                           `moves`, `transitions`, or `adversary`) or `}`",
                    found: "`bogus`".into(),
                },
                1,
                14,
            ),
            (
                "protocol p { state s = (0 0); }",
                K::Expected {
                    what: "`)` closing the state tuple",
                    found: "integer 0".into(),
                },
                1,
                27,
            ),
            (
                "protocol p { init { 1/0: s; } }",
                K::ZeroDenominator,
                1,
                21,
            ),
            (
                "protocol p { moves a { at (0, 0) -> { }; } }",
                K::Expected {
                    what: "at least one `WEIGHT: action;` arm",
                    found: "`;`".into(),
                },
                1,
                40,
            ),
            (
                "protocol p { transitions { from s at 0 when [] -> s; } }",
                K::Expected {
                    what: "a move pattern (`_`, `skip`, or an action name)",
                    found: "`]`".into(),
                },
                1,
                46,
            ),
            ("protocol p { agents a; agents b; }", K::DuplicateDecl("agents"), 1, 24),
            ("protocol p { init { } init { } }", K::DuplicateDecl("init"), 1, 23),
            // --- compile checks: names and declarations ---
            (
                "protocol p { agents a, a; horizon 1; state s = (0, 0); init { 1: s; } }",
                K::DuplicateAgent("a".into()),
                1,
                24,
            ),
            (
                "protocol p { agents a; state s = (0, 0); init { 1: s; } }",
                K::MissingDecl("horizon"),
                1,
                10,
            ),
            (
                "protocol p { agents a; horizon 1; state s = (0, 0); }",
                K::MissingDecl("init"),
                1,
                10,
            ),
            (
                "protocol p { agents a; horizon 1; state skip = (0, 0); init { 1: skip; } }",
                K::ReservedName("skip".into()),
                1,
                41,
            ),
            (
                "protocol p { agents a; horizon 1; state s = (0, 0); state s = (1, 0); init { 1: s; } }",
                K::DuplicateState("s".into()),
                1,
                59,
            ),
            (
                "protocol p { agents a; horizon 1; action x = 1; action y = 1; \
                 state s = (0, 0); init { 1: s; } }",
                K::DuplicateActionId(1),
                1,
                60,
            ),
            // --- compile checks: arity, references, weights, times ---
            (
                "protocol p { agents a, b; horizon 1; state s = (0, 7); init { 1: s; } }",
                K::ArityMismatch {
                    expected: 2,
                    found: 1,
                },
                1,
                44,
            ),
            (
                "protocol p { agents a; horizon 1; state s = (0, 0); init { 1: ghost; } }",
                K::UnknownState("ghost".into()),
                1,
                63,
            ),
            (
                "protocol p { agents a; horizon 1; state s = (0, 0); \
                 init { 1/2: s; 1/3: s; } }",
                K::WeightSum("5/6".into()),
                1,
                60,
            ),
            (
                "protocol p { agents a; horizon 1; state s = (0, 0); init { 0: s; 1: s; } }",
                K::ZeroWeight,
                1,
                60,
            ),
            (
                "protocol p { agents a; horizon 1; state s = (0, 0); init { 1: s; } \
                 moves a { at (0, 2) -> skip; } }",
                K::TimeBeyondHorizon { time: 2, horizon: 1 },
                1,
                85,
            ),
            (
                "protocol p { agents a; horizon 1; state s = (0, 0); init { 1: s; } \
                 moves a { at (0, 0) -> zap; } }",
                K::UnknownAction("zap".into()),
                1,
                91,
            ),
            (
                "protocol p { agents a; horizon 1; state s = (0, 0); init { 1: s; } \
                 moves a { at (0, 0) -> skip; at (0, 0) -> skip; } }",
                K::DuplicateRule("agent `a` at (0, 0)".into()),
                1,
                101,
            ),
            (
                "protocol p { agents a; horizon 1; state s = (0, 0); init { 1: s; } \
                 transitions { from s at 0 -> s; from s at 0 -> s; } }",
                K::DuplicateRule("`from s at 0`".into()),
                1,
                105,
            ),
            (
                "protocol p { agents a; horizon 1; action x = 0; state s = (0, 0); \
                 init { 1: s; } transitions { from s at 0 when [x, x] -> s; } }",
                K::ArityMismatch {
                    expected: 1,
                    found: 2,
                },
                1,
                114,
            ),
        ];
        assert!(cases.len() >= 20, "the table must stay ~20 cases strong");
        for (src, kind, line, col) in cases {
            let err = parse(src)
                .and_then(|p| compile::<Rational>(&p))
                .expect_err(&format!("program must be rejected: {src}"));
            assert_eq!(err.kind, kind, "wrong diagnostic for: {src}\ngot: {err}");
            assert_eq!(
                (err.span.line, err.span.col),
                (line, col),
                "wrong position for: {src}\ngot: {err}"
            );
        }
    }
}
