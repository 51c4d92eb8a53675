//! The abstract syntax tree of a protocol program.
//!
//! Every name and number the compiler may complain about is wrapped in
//! [`Spanned`], which carries the source location but **compares by value
//! only** — two parses of the same program are `==` even though their
//! spans differ. That is exactly the equality the round-trip property
//! needs: [`Program`]'s `Display` pretty-prints a canonical rendering
//! that re-parses to an equal AST (property-tested over fuzzed programs
//! in `tests/dsl_differential.rs`).
//!
//! # Examples
//!
//! ```
//! use pak_dsl::parse;
//!
//! let src = "protocol p { agents a; horizon 1; state s = (0, 0); init { 1: s; } }";
//! let prog = parse(src).unwrap();
//! let reparsed = parse(&prog.to_string()).unwrap();
//! assert_eq!(prog, reparsed);
//! ```

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::Span;

/// A value with the source span it was parsed from. Equality and hashing
/// ignore the span (see the module docs).
#[derive(Debug, Clone)]
pub struct Spanned<T> {
    /// The parsed value.
    pub value: T,
    /// Where it came from in the source text.
    pub span: Span,
}

impl<T> Spanned<T> {
    /// Wraps `value` with `span`.
    pub fn new(value: T, span: Span) -> Self {
        Spanned { value, span }
    }
}

impl<T: PartialEq> PartialEq for Spanned<T> {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl<T: Eq> Eq for Spanned<T> {}

impl<T: Hash> Hash for Spanned<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.value.hash(state);
    }
}

/// An exact rational weight `num/den` (a bare integer parses with
/// `den = 1`). Weights are kept unreduced — `2/4` and `1/2` are distinct
/// ASTs — and only become canonical probabilities at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Weight {
    /// Numerator.
    pub num: u64,
    /// Denominator (non-zero; the parser rejects `/0`).
    pub den: u64,
}

impl Weight {
    /// The weight `1` (= `1/1`).
    pub const ONE: Weight = Weight { num: 1, den: 1 };
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// `action NAME = ID;`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionDecl {
    /// The action's name.
    pub name: Spanned<String>,
    /// The numeric [`pak_core::ids::ActionId`] it compiles to.
    pub id: Spanned<u64>,
}

/// `state NAME = (ENV, LOCAL_1, …, LOCAL_n) [fail];`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDecl {
    /// The state's name.
    pub name: Spanned<String>,
    /// The environment component.
    pub env: u64,
    /// One local-data value per agent (arity checked by compilation).
    pub locals: Vec<u64>,
    /// Whether the state is annotated as a failure state.
    pub fail: bool,
}

/// One arm of the `init { … }` distribution: `WEIGHT: STATE;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitArm {
    /// The arm's probability weight.
    pub weight: Spanned<Weight>,
    /// The initial state's name.
    pub state: Spanned<String>,
}

/// What an agent does in one arm of a move distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoveAction {
    /// Perform no recorded action (`skip`).
    Skip,
    /// Perform the named action.
    Named(String),
}

/// One arm of a move distribution: `WEIGHT: ACTION;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveArm {
    /// The arm's probability weight.
    pub weight: Spanned<Weight>,
    /// The action performed in this arm.
    pub action: Spanned<MoveAction>,
}

/// `at (LOCAL, TIME) -> DIST;` inside a `moves` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveRule {
    /// The agent's local data this rule keys on.
    pub local: Spanned<u64>,
    /// The time this rule keys on.
    pub time: Spanned<u64>,
    /// The move distribution (singleton for a deterministic step).
    pub dist: Vec<MoveArm>,
}

/// `moves AGENT { … }`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveBlock {
    /// The agent whose protocol this block specifies.
    pub agent: Spanned<String>,
    /// The rules, in declaration order.
    pub rules: Vec<MoveRule>,
}

/// A per-agent pattern in a transition guard.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GuardPat {
    /// `_` — matches any move.
    Any,
    /// `skip` — matches only a skip.
    Skip,
    /// An action name — matches only that action being performed.
    Named(String),
}

/// One arm of a transition distribution: `WEIGHT: STATE;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransArm {
    /// The arm's probability weight.
    pub weight: Spanned<Weight>,
    /// The successor state's name.
    pub state: Spanned<String>,
}

/// `from STATE at TIME [when [PAT, …]] -> DIST;`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransRule {
    /// The source state's name.
    pub from: Spanned<String>,
    /// The time this rule applies at.
    pub time: Spanned<u64>,
    /// Optional guard over the joint move, one pattern per agent.
    pub guard: Option<Vec<Spanned<GuardPat>>>,
    /// The successor distribution (singleton for a deterministic step).
    pub dist: Vec<TransArm>,
}

/// `adversary NAME { … }` — a named bundle of transition overrides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversaryDecl {
    /// The adversary's name.
    pub name: Spanned<String>,
    /// Its override rules, tried before the base `transitions` rules.
    pub rules: Vec<TransRule>,
}

/// A complete protocol program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The protocol's name.
    pub name: Spanned<String>,
    /// The agents, in declaration order (index = `AgentId`).
    pub agents: Vec<Spanned<String>>,
    /// The horizon (`None` only for programs that fail to compile).
    pub horizon: Option<Spanned<u64>>,
    /// Declared actions.
    pub actions: Vec<ActionDecl>,
    /// Declared states.
    pub states: Vec<StateDecl>,
    /// The initial-state distribution.
    pub init: Vec<InitArm>,
    /// Per-agent move tables.
    pub moves: Vec<MoveBlock>,
    /// The base transition rules, in declaration order.
    pub transitions: Vec<TransRule>,
    /// Named adversary overrides.
    pub adversaries: Vec<AdversaryDecl>,
}

fn write_trans_rule(f: &mut fmt::Formatter<'_>, indent: &str, r: &TransRule) -> fmt::Result {
    write!(f, "{indent}from {} at {}", r.from.value, r.time.value)?;
    if let Some(pats) = &r.guard {
        write!(f, " when [")?;
        for (i, p) in pats.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match &p.value {
                GuardPat::Any => write!(f, "_")?,
                GuardPat::Skip => write!(f, "skip")?,
                GuardPat::Named(a) => write!(f, "{a}")?,
            }
        }
        write!(f, "]")?;
    }
    write!(f, " -> ")?;
    if r.dist.len() == 1 && r.dist[0].weight.value == Weight::ONE {
        writeln!(f, "{};", r.dist[0].state.value)
    } else {
        write!(f, "{{ ")?;
        for arm in &r.dist {
            write!(f, "{}: {}; ", arm.weight.value, arm.state.value)?;
        }
        writeln!(f, "}};")
    }
}

impl fmt::Display for Program {
    /// Pretty-prints the canonical rendering of the program: same
    /// declarations in the same order, normalized whitespace. Guaranteed
    /// to re-parse to an AST `==` to this one.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "protocol {} {{", self.name.value)?;
        if !self.agents.is_empty() {
            let names: Vec<&str> = self.agents.iter().map(|a| a.value.as_str()).collect();
            writeln!(f, "    agents {};", names.join(", "))?;
        }
        if let Some(h) = &self.horizon {
            writeln!(f, "    horizon {};", h.value)?;
        }
        for a in &self.actions {
            writeln!(f, "    action {} = {};", a.name.value, a.id.value)?;
        }
        for s in &self.states {
            write!(f, "    state {} = ({}", s.name.value, s.env)?;
            for l in &s.locals {
                write!(f, ", {l}")?;
            }
            write!(f, ")")?;
            if s.fail {
                write!(f, " fail")?;
            }
            writeln!(f, ";")?;
        }
        if !self.init.is_empty() {
            writeln!(f, "    init {{")?;
            for arm in &self.init {
                writeln!(f, "        {}: {};", arm.weight.value, arm.state.value)?;
            }
            writeln!(f, "    }}")?;
        }
        for block in &self.moves {
            writeln!(f, "    moves {} {{", block.agent.value)?;
            for r in &block.rules {
                write!(f, "        at ({}, {}) -> ", r.local.value, r.time.value)?;
                if r.dist.len() == 1 && r.dist[0].weight.value == Weight::ONE {
                    match &r.dist[0].action.value {
                        MoveAction::Skip => writeln!(f, "skip;")?,
                        MoveAction::Named(a) => writeln!(f, "{a};")?,
                    }
                } else {
                    write!(f, "{{ ")?;
                    for arm in &r.dist {
                        write!(f, "{}: ", arm.weight.value)?;
                        match &arm.action.value {
                            MoveAction::Skip => write!(f, "skip; ")?,
                            MoveAction::Named(a) => write!(f, "{a}; ")?,
                        }
                    }
                    writeln!(f, "}};")?;
                }
            }
            writeln!(f, "    }}")?;
        }
        if !self.transitions.is_empty() {
            writeln!(f, "    transitions {{")?;
            for r in &self.transitions {
                write_trans_rule(f, "        ", r)?;
            }
            writeln!(f, "    }}")?;
        }
        for adv in &self.adversaries {
            writeln!(f, "    adversary {} {{", adv.name.value)?;
            for r in &adv.rules {
                write_trans_rule(f, "        ", r)?;
            }
            writeln!(f, "    }}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spanned_equality_ignores_spans() {
        let a = Spanned::new(
            "x".to_string(),
            Span {
                offset: 0,
                len: 1,
                line: 1,
                col: 1,
            },
        );
        let b = Spanned::new(
            "x".to_string(),
            Span {
                offset: 40,
                len: 1,
                line: 3,
                col: 7,
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn weight_display_elides_unit_denominator() {
        assert_eq!(Weight { num: 3, den: 4 }.to_string(), "3/4");
        assert_eq!(Weight { num: 2, den: 1 }.to_string(), "2");
        assert_eq!(Weight { num: 2, den: 4 }.to_string(), "2/4");
    }
}
