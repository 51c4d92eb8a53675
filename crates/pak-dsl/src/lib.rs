//! A textual protocol-description language compiled to
//! [`TableModel`](pak_protocol::model::TableModel).
//!
//! Every protocol the paper's semantics can express used to require
//! hand-written Rust in `pak-systems`. This crate adds a small
//! declaration language instead: named states over
//! [`SimpleState`](pak_core::state::SimpleState) tuples, per-agent move
//! tables keyed on `(local, time)` (locality is enforced by the grammar —
//! a rule physically cannot mention another agent's state), probabilistic
//! transitions with exact rational weights and optional guards on the
//! joint move, initial-state distributions, `fail` state annotations, and
//! named `adversary` override blocks.
//!
//! The pipeline is [`parse`] → [`compile()`]: the parser pulls tokens
//! from the [`lexer`] one at a time as it needs them, and the compiler
//! checks every name, arity, time and weight where it resolves it, in
//! one pass. Both stages report spanned, actionable diagnostics
//! ([`DslError`]). Compiled protocols are ordinary
//! [`TableModel`](pak_protocol::model::TableModel)s, so they inherit the
//! indexed lookups, allocation-free appending queries, incremental
//! [`extend_horizon`](pak_protocol::unfold::Unfolder::extend_horizon)
//! growth, and the batched `pak-engine` evaluator unchanged. The
//! [`fuzz`] module generates random valid programs for the differential
//! harness (`tests/dsl_differential.rs` proves compiled protocols
//! bit-identical to a direct AST interpreter across fuzzed sweeps).
//!
//! # Examples
//!
//! ```
//! use pak_dsl::compile_str;
//! use pak_num::Rational;
//! use pak_protocol::unfold::unfold;
//!
//! let compiled = compile_str::<Rational>(
//!     "protocol coin {
//!          agents observer;       # one agent, blind to the coin
//!          horizon 1;
//!          action guess = 0;
//!          state heads = (1, 0);  # (env, observer local)
//!          state tails = (0, 0);
//!          init { 1/2: heads; 1/2: tails; }
//!          moves observer { at (0, 0) -> guess; }
//!      }",
//! )
//! .unwrap();
//! let pps = unfold::<_, Rational>(compiled.model()).unwrap();
//! assert_eq!(pps.num_runs(), 2);
//! // At time 0 both runs sit in ONE information-set cell: the observer
//! // cannot tell heads from tails.
//! use pak_core::ids::{AgentId, Point, RunId};
//! let cell = pps.cell_at(AgentId(0), Point { run: RunId(0), time: 0 });
//! assert_eq!(cell, pps.cell_at(AgentId(0), Point { run: RunId(1), time: 0 }));
//! ```

pub mod ast;
pub mod compile;
pub mod error;
pub mod fuzz;
pub mod lexer;
pub mod parser;

pub use ast::Program;
pub use compile::{compile, compile_str, CompiledProtocol};
pub use error::{DslError, DslErrorKind, Span};
pub use parser::parse;
