//! The compiler from a parsed [`Program`] to a [`TableModel`].
//!
//! Compilation is also where the program is checked for everything the
//! grammar cannot express: names resolve, declarations are unique, tuple
//! arities match the agent count, distributions have positive weights
//! summing to exactly one (computed in exact rational arithmetic whatever
//! the probability type, so `1/3 + 1/3 + 1/3` passes and `1/2 + 1/3`
//! fails with the actual sum in the message), rule keys are unique, and
//! rule times fall before the horizon. Each declared name is interned
//! once, into the tables the [`CompiledProtocol`] keeps, and each
//! reference is resolved once, where it is checked. The first violation
//! is reported, spanned at the offending name or number, in this order:
//! agents, horizon, actions, states, init, moves, transitions, then each
//! adversary. A program that compiles always satisfies the unfolder's
//! distribution contract ([`pak_protocol::model::validate_distribution`]).
//!
//! The mapping is direct, which is the point — a compiled protocol
//! immediately inherits everything the table machinery already has:
//! indexed lookups, allocation-free appending queries, incremental
//! [`extend_horizon`](pak_protocol::unfold::Unfolder::extend_horizon)
//! growth, and the batched `pak-engine` evaluator.
//!
//! * agents, in declaration order, become `AgentId(0), AgentId(1), …`;
//! * `state NAME = (env, l_1, …, l_n)` names the
//!   [`SimpleState`] with that tuple;
//! * `init` arms become the model's initial distribution, in order;
//! * `moves` rules become `(agent, local, time)`-keyed move rows;
//! * `transitions` rules become guarded
//!   [`StateTransition`] rules, in
//!   declaration order (first match wins, so a guarded rule followed by an
//!   unconditional one reads like a `match` with a catch-all arm);
//! * each `adversary` block becomes a *variant model*: the base model with
//!   the block's rules **prepended** to the state-transition table, so the
//!   overrides win exactly where they apply and the base rules still cover
//!   the rest.
//!
//! # Examples
//!
//! ```
//! use pak_dsl::compile_str;
//! use pak_num::Rational;
//! use pak_protocol::unfold::unfold;
//! use pak_core::prelude::*;
//!
//! let compiled = compile_str::<Rational>(
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
//! let pps = unfold::<_, Rational>(compiled.model()).unwrap();
//! assert_eq!(pps.num_runs(), 2);
//! assert_eq!(compiled.action("guess"), Some(ActionId(0)));
//!
//! // Errors point at the offending text.
//! let err = compile_str::<Rational>(
//!     "protocol p { agents a; horizon 1; state s = (0, 0); init { 1/2: s; 1/3: s; } }",
//! )
//! .unwrap_err();
//! assert_eq!(err.to_string(), "line 1, column 60: distribution weights sum to 5/6, expected exactly 1");
//! ```

use std::collections::{HashMap, HashSet};

use pak_core::fact::StateFact;
use pak_core::hash::FxBuildHasher;
use pak_core::ids::{ActionId, AgentId, Time};
use pak_core::prob::Probability;
use pak_core::state::SimpleState;
use pak_num::Rational;
use pak_protocol::adversary::AdversaryFamily;
use pak_protocol::model::{MovePattern, StateTransition, TableModel};

use crate::ast::{GuardPat, MoveAction, Program, Spanned, TransRule, Weight};
use crate::error::{DslError, DslErrorKind, Span};
use crate::parser::parse;

type Map<K, V> = HashMap<K, V, FxBuildHasher>;
type Set<K> = HashSet<K, FxBuildHasher>;

/// A compiled protocol: the [`TableModel`] plus the name tables needed to
/// talk about it (action and agent names, failure states, adversary
/// variants).
#[derive(Debug, Clone)]
pub struct CompiledProtocol<P> {
    name: String,
    names: Names,
    failure_states: Vec<(u64, Vec<u64>)>,
    model: TableModel<P>,
    adversaries: Vec<(String, TableModel<P>)>,
}

impl<P: Probability> CompiledProtocol<P> {
    /// The protocol's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The base model (no adversary overrides applied).
    #[must_use]
    pub fn model(&self) -> &TableModel<P> {
        &self.model
    }

    /// Consumes the compiled protocol, returning the base model.
    #[must_use]
    pub fn into_model(self) -> TableModel<P> {
        self.model
    }

    /// The [`ActionId`] an action name compiled to.
    #[must_use]
    pub fn action(&self, name: &str) -> Option<ActionId> {
        self.names.actions.get(name).copied()
    }

    /// The [`AgentId`] an agent name compiled to (its position in the
    /// `agents` declaration).
    #[must_use]
    pub fn agent(&self, name: &str) -> Option<AgentId> {
        self.names.agents.get(name).copied()
    }

    /// The [`SimpleState`] a state name compiled to.
    #[must_use]
    pub fn state(&self, name: &str) -> Option<SimpleState> {
        self.names.states.get(name).cloned()
    }

    /// The `(env, locals)` tuples of all states annotated `fail`, in
    /// declaration order.
    #[must_use]
    pub fn failure_states(&self) -> &[(u64, Vec<u64>)] {
        &self.failure_states
    }

    /// Whether `state` is one of the declared failure states.
    #[must_use]
    pub fn is_failure(&self, state: &SimpleState) -> bool {
        self.failure_states
            .iter()
            .any(|(env, locals)| state.env == *env && state.locals == *locals)
    }

    /// A [`StateFact`] holding exactly at the declared failure states —
    /// ready to register as a formula atom (`Formula::atom` in
    /// `pak-logic`) or to drive a point predicate over an unfolded tree.
    #[must_use]
    pub fn failure_fact(&self) -> StateFact<SimpleState> {
        let set = self.failure_states.clone();
        StateFact::new("failure", move |g: &SimpleState| {
            set.iter()
                .any(|(env, locals)| g.env == *env && g.locals == *locals)
        })
    }

    /// The adversary variant models, in declaration order.
    pub fn adversaries(&self) -> impl Iterator<Item = (&str, &TableModel<P>)> {
        self.adversaries.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// The whole family — the base model under the name `"base"` followed
    /// by every adversary variant — ready for
    /// [`AdversaryFamily::unfold_all`] / `check_all`.
    #[must_use]
    pub fn family(&self) -> AdversaryFamily<TableModel<P>> {
        let mut members = vec![("base".to_string(), self.model.clone())];
        for (name, model) in &self.adversaries {
            members.push((name.clone(), model.clone()));
        }
        AdversaryFamily::new(members)
    }
}

/// Names that double as keywords of the grammar: declaring an agent,
/// action, state, or adversary under one of these would make it
/// unreferenceable, so compilation rejects them.
const RESERVED: &[&str] = &[
    "protocol",
    "agents",
    "horizon",
    "action",
    "state",
    "init",
    "moves",
    "transitions",
    "adversary",
    "at",
    "from",
    "when",
    "skip",
    "fail",
];

fn check_name(name: &Spanned<String>) -> Result<(), DslError> {
    if RESERVED.contains(&name.value.as_str()) {
        return Err(DslError::new(
            name.span,
            DslErrorKind::ReservedName(name.value.clone()),
        ));
    }
    Ok(())
}

/// Checks that `weights` are all positive and sum to exactly one, in
/// `Rational` whatever the model's probability type. The sum error
/// anchors at the first weight, whose arm usually needs the adjustment,
/// or at `owner` when there is none.
fn check_distribution<'a>(
    owner: Span,
    weights: impl IntoIterator<Item = &'a Spanned<Weight>>,
) -> Result<(), DslError> {
    let mut sum = Rational::zero();
    let mut anchor = None;
    for w in weights {
        if w.value.num == 0 {
            return Err(DslError::new(w.span, DslErrorKind::ZeroWeight));
        }
        anchor.get_or_insert(w.span);
        sum.add_assign(&<Rational as Probability>::from_ratio(
            w.value.num,
            w.value.den,
        ));
    }
    if !sum.is_one() {
        return Err(DslError::new(
            anchor.unwrap_or(owner),
            DslErrorKind::WeightSum(sum.to_string()),
        ));
    }
    Ok(())
}

/// A rule time, checked to fall before the horizon.
fn rule_time(time: &Spanned<u64>, horizon: Time) -> Result<Time, DslError> {
    u32::try_from(time.value)
        .ok()
        .filter(|&t| t < horizon)
        .ok_or_else(|| {
            DslError::new(
                time.span,
                DslErrorKind::TimeBeyondHorizon {
                    time: time.value,
                    horizon: u64::from(horizon),
                },
            )
        })
}

fn weight_prob<P: Probability>(w: Weight) -> P {
    P::from_ratio(w.num, w.den)
}

/// The name tables: every reference resolves through them, and the
/// compiled protocol keeps them for its name lookups.
#[derive(Debug, Clone)]
struct Names {
    agents: Map<String, AgentId>,
    actions: Map<String, ActionId>,
    states: Map<String, SimpleState>,
}

impl Names {
    fn action(&self, name: &str, span: Span) -> Result<ActionId, DslError> {
        self.actions
            .get(name)
            .copied()
            .ok_or_else(|| DslError::new(span, DslErrorKind::UnknownAction(name.to_string())))
    }

    fn state(&self, name: &Spanned<String>) -> Result<&SimpleState, DslError> {
        self.states
            .get(&name.value)
            .ok_or_else(|| DslError::new(name.span, DslErrorKind::UnknownState(name.value.clone())))
    }
}

/// What makes two transition rules of one block duplicates: the source
/// state's name, the time, and the guard (spans ignored).
type RuleKey<'a> = (&'a str, u64, Option<&'a [Spanned<GuardPat>]>);

/// Checks and compiles one block of transition rules (the base
/// `transitions` or one adversary's overrides). Each block keeps its own
/// duplicate-key space: an adversary *shadowing* a base rule is the
/// point.
fn compile_rules<P: Probability>(
    rules: &[TransRule],
    names: &Names,
    horizon: Time,
) -> Result<Vec<StateTransition<P>>, DslError> {
    let n_agents = names.agents.len();
    let mut keys: Set<RuleKey<'_>> = Set::default();
    let mut out = Vec::with_capacity(rules.len());
    for rule in rules {
        let from = names.state(&rule.from)?;
        let time = rule_time(&rule.time, horizon)?;
        let mut guard = Vec::new();
        if let Some(pats) = &rule.guard {
            if pats.len() != n_agents {
                return Err(DslError::new(
                    pats.first().map_or(rule.from.span, |p| p.span),
                    DslErrorKind::ArityMismatch {
                        expected: n_agents,
                        found: pats.len(),
                    },
                ));
            }
            guard.reserve_exact(pats.len());
            for p in pats {
                guard.push(match &p.value {
                    GuardPat::Any => MovePattern::Any,
                    GuardPat::Skip => MovePattern::Skip,
                    GuardPat::Named(name) => MovePattern::Do(names.action(name, p.span)?),
                });
            }
        }
        if !keys.insert((
            rule.from.value.as_str(),
            rule.time.value,
            rule.guard.as_deref(),
        )) {
            let guard_note = if rule.guard.is_some() {
                " with this guard"
            } else {
                ""
            };
            return Err(DslError::new(
                rule.from.span,
                DslErrorKind::DuplicateRule(format!(
                    "`from {} at {}`{}",
                    rule.from.value, rule.time.value, guard_note
                )),
            ));
        }
        let outcomes = rule
            .dist
            .iter()
            .map(|arm| {
                let to = names.state(&arm.state)?;
                Ok((to.env, to.locals.clone(), weight_prob(arm.weight.value)))
            })
            .collect::<Result<Vec<_>, DslError>>()?;
        check_distribution(rule.from.span, rule.dist.iter().map(|a| &a.weight))?;
        out.push(StateTransition {
            env: from.env,
            locals: from.locals.clone(),
            time,
            guard,
            outcomes,
        });
    }
    Ok(out)
}

/// Checks a parsed program and compiles it (see the module docs for the
/// checks and their order).
///
/// # Errors
///
/// Returns the first violation, spanned at the offending token.
#[allow(clippy::too_many_lines)]
pub fn compile<P: Probability>(program: &Program) -> Result<CompiledProtocol<P>, DslError> {
    let missing = |what| DslError::new(program.name.span, DslErrorKind::MissingDecl(what));
    let out_of_range = |span, what| {
        DslError::new(
            span,
            DslErrorKind::IntOutOfRange {
                what,
                max: u64::from(u32::MAX),
            },
        )
    };

    // Agents: present, unique, not reserved.
    if program.agents.is_empty() {
        return Err(missing("agents"));
    }
    let n_agents = u32::try_from(program.agents.len())
        .map_err(|_| out_of_range(program.name.span, "agent count"))?;
    let mut agents: Map<String, AgentId> = Map::default();
    for (id, a) in (0..n_agents).zip(&program.agents) {
        check_name(a)?;
        if agents.contains_key(&a.value) {
            return Err(DslError::new(
                a.span,
                DslErrorKind::DuplicateAgent(a.value.clone()),
            ));
        }
        agents.insert(a.value.clone(), AgentId(id));
    }

    // Horizon: present and representable as a `Time`.
    let h = program.horizon.as_ref().ok_or_else(|| missing("horizon"))?;
    let horizon = u32::try_from(h.value).map_err(|_| out_of_range(h.span, "horizon"))?;

    // Actions: unique names, unique ids, ids fit `ActionId`.
    let mut actions: Map<String, ActionId> = Map::default();
    let mut action_ids: Set<u32> = Set::default();
    for a in &program.actions {
        check_name(&a.name)?;
        if actions.contains_key(&a.name.value) {
            return Err(DslError::new(
                a.name.span,
                DslErrorKind::DuplicateAction(a.name.value.clone()),
            ));
        }
        let id = u32::try_from(a.id.value).map_err(|_| out_of_range(a.id.span, "action id"))?;
        if !action_ids.insert(id) {
            return Err(DslError::new(
                a.id.span,
                DslErrorKind::DuplicateActionId(a.id.value),
            ));
        }
        actions.insert(a.name.value.clone(), ActionId(id));
    }

    // States: unique names, tuple arity = 1 + n_agents.
    let mut states: Map<String, SimpleState> = Map::default();
    let mut failure_states = Vec::new();
    for s in &program.states {
        check_name(&s.name)?;
        if states.contains_key(&s.name.value) {
            return Err(DslError::new(
                s.name.span,
                DslErrorKind::DuplicateState(s.name.value.clone()),
            ));
        }
        if s.locals.len() != program.agents.len() {
            return Err(DslError::new(
                s.name.span,
                DslErrorKind::ArityMismatch {
                    expected: program.agents.len(),
                    found: s.locals.len(),
                },
            ));
        }
        if s.fail {
            failure_states.push((s.env, s.locals.clone()));
        }
        states.insert(
            s.name.value.clone(),
            SimpleState::new(s.env, s.locals.clone()),
        );
    }
    let names = Names {
        agents,
        actions,
        states,
    };

    // Init: present, states resolve, weights positive and summing to 1.
    if program.init.is_empty() {
        return Err(missing("init"));
    }
    let initial = program
        .init
        .iter()
        .map(|arm| {
            let s = names.state(&arm.state)?;
            Ok((s.env, s.locals.clone(), weight_prob(arm.weight.value)))
        })
        .collect::<Result<Vec<_>, DslError>>()?;
    check_distribution(program.name.span, program.init.iter().map(|a| &a.weight))?;

    // Moves: agents resolve, rule keys unique per agent, times before
    // the horizon, actions resolve, distributions well formed.
    #[allow(clippy::type_complexity)]
    let mut moves: Vec<((u32, u64, Time), Vec<(Option<ActionId>, P)>)> = Vec::new();
    let mut move_keys: Set<(AgentId, u64, u64)> = Set::default();
    for block in &program.moves {
        let Some(&agent) = names.agents.get(&block.agent.value) else {
            return Err(DslError::new(
                block.agent.span,
                DslErrorKind::UnknownAgent(block.agent.value.clone()),
            ));
        };
        for rule in &block.rules {
            let time = rule_time(&rule.time, horizon)?;
            if !move_keys.insert((agent, rule.local.value, rule.time.value)) {
                return Err(DslError::new(
                    rule.local.span,
                    DslErrorKind::DuplicateRule(format!(
                        "agent `{}` at ({}, {})",
                        block.agent.value, rule.local.value, rule.time.value
                    )),
                ));
            }
            let dist = rule
                .dist
                .iter()
                .map(|arm| {
                    let mv = match &arm.action.value {
                        MoveAction::Skip => None,
                        MoveAction::Named(n) => Some(names.action(n, arm.action.span)?),
                    };
                    Ok((mv, weight_prob(arm.weight.value)))
                })
                .collect::<Result<Vec<_>, DslError>>()?;
            check_distribution(rule.local.span, rule.dist.iter().map(|a| &a.weight))?;
            moves.push(((agent.0, rule.local.value, time), dist));
        }
    }

    let base_rules = compile_rules(&program.transitions, &names, horizon)?;

    // Adversary variants: overrides first, base rules after — first-match
    // resolution makes the overrides win exactly on their keys.
    let mut adversary_names: Set<&str> = Set::default();
    let mut adversaries = Vec::with_capacity(program.adversaries.len());
    for adv in &program.adversaries {
        check_name(&adv.name)?;
        if !adversary_names.insert(adv.name.value.as_str()) {
            return Err(DslError::new(
                adv.name.span,
                DslErrorKind::DuplicateAdversary(adv.name.value.clone()),
            ));
        }
        let mut rules = compile_rules(&adv.rules, &names, horizon)?;
        rules.extend(base_rules.iter().cloned());
        let variant = TableModel {
            n_agents,
            initial: initial.clone(),
            horizon,
            moves: moves.clone(),
            state_transitions: rules,
            // An adversary block whose overrides happen to coincide
            // with the base rules would otherwise fingerprint (and
            // therefore cache) identically to the base protocol.
            variant_tag: Some(format!("{}::{}", program.name.value, adv.name.value)),
            ..TableModel::default()
        };
        adversaries.push((adv.name.value.clone(), variant));
    }

    let model = TableModel {
        n_agents,
        initial,
        horizon,
        moves,
        state_transitions: base_rules,
        ..TableModel::default()
    };
    Ok(CompiledProtocol {
        name: program.name.value.clone(),
        names,
        failure_states,
        model,
        adversaries,
    })
}

/// Parses and compiles a program in one call.
///
/// # Errors
///
/// Returns the first lexical, syntactic, or semantic error.
pub fn compile_str<P: Probability>(src: &str) -> Result<CompiledProtocol<P>, DslError> {
    compile(&parse(src)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_num::Rational;
    use pak_protocol::model::ProtocolModel;
    use pak_protocol::unfold::unfold;

    const GUARDED: &str = "
        protocol guarded {
            agents a;
            horizon 2;
            action go = 7;
            state idle = (0, 0);
            state hot = (1, 1);
            state cold = (2, 0) fail;
            init { 1: idle; }
            moves a { at (0, 0) -> { 1/2: go; 1/2: skip; }; }
            transitions {
                from idle at 0 when [go] -> hot;
                from idle at 0 -> { 2/3: idle; 1/3: cold; };
            }
            adversary freeze {
                from idle at 0 -> cold;
            }
        }";

    #[test]
    fn compiles_guards_and_adversaries() {
        let c = compile_str::<Rational>(GUARDED).unwrap();
        assert_eq!(c.name(), "guarded");
        assert_eq!(c.action("go"), Some(ActionId(7)));
        assert_eq!(c.agent("a"), Some(AgentId(0)));
        assert_eq!(c.state("hot"), Some(SimpleState::new(1, vec![1])));
        assert_eq!(c.failure_states(), &[(2, vec![0])]);
        assert!(c.is_failure(&SimpleState::new(2, vec![0])));
        assert!(!c.is_failure(&SimpleState::new(1, vec![1])));

        // Guard resolution on the compiled model: `go` hits the guarded
        // rule, skip falls to the catch-all.
        let st = SimpleState::new(0, vec![0]);
        let mut hit = Vec::new();
        c.model().transition(&st, &[Some(ActionId(7))], 0, &mut hit);
        assert_eq!(hit, vec![(SimpleState::new(1, vec![1]), Rational::one())]);
        let mut miss = Vec::new();
        c.model().transition(&st, &[None], 0, &mut miss);
        assert_eq!(miss.len(), 2);
        assert_eq!(miss[0].1, Rational::from_ratio(2, 3));

        // The adversary variant overrides the idle rules entirely.
        let (name, freeze) = c.adversaries().next().map(|(n, m)| (n, m.clone())).unwrap();
        assert_eq!(name, "freeze");
        let mut frozen = Vec::new();
        freeze.transition(&st, &[Some(ActionId(7))], 0, &mut frozen);
        assert_eq!(
            frozen,
            vec![(SimpleState::new(2, vec![0]), Rational::one())]
        );

        // The family unfolds base-first.
        let trees = c.family().unfold_all::<Rational>().unwrap();
        assert_eq!(trees[0].0, "base");
        assert_eq!(trees[1].0, "freeze");
        assert!(trees[0].1.num_runs() > trees[1].1.num_runs());
    }

    #[test]
    fn failure_fact_matches_annotations() {
        use pak_core::event::RunSet;
        use pak_core::fact::Fact;
        use pak_core::ids::Point;

        let c = compile_str::<Rational>(GUARDED).unwrap();
        let pps = unfold::<_, Rational>(c.model()).unwrap();
        let fact = c.failure_fact();
        let event = RunSet::from_predicate(pps.num_runs(), |run| {
            (0..pps.run_len(run)).any(|t| {
                Fact::<_, Rational>::holds(
                    &fact,
                    &pps,
                    Point {
                        run,
                        time: u32::try_from(t).unwrap(),
                    },
                )
            })
        });
        // cold is reached only via the skip branch (prob 1/2 · 1/3).
        assert_eq!(pps.measure(&event), Rational::from_ratio(1, 6));
    }

    #[test]
    fn exact_rational_sums_are_accepted_for_every_p() {
        let src = "protocol thirds {
            agents a;
            horizon 1;
            state s = (0, 0);
            init { 1/3: s; 1/3: s; 1/3: s; }
        }";
        compile_str::<Rational>(src).unwrap();
        // `f64` thirds do not sum to exactly one; the check is in Rational.
        compile_str::<f64>(src).unwrap();
    }

    #[test]
    fn guard_shadowing_in_adversary_is_allowed() {
        // The same (state, time, guard) key may appear in the base block
        // and again in an adversary block — that is how overrides work.
        compile_str::<Rational>(
            "protocol shadow {
                agents a;
                horizon 1;
                state s = (0, 0);
                state t = (1, 0);
                init { 1: s; }
                transitions { from s at 0 -> s; }
                adversary adv { from s at 0 -> t; }
            }",
        )
        .unwrap();
    }

    #[test]
    fn compiled_initial_matches_declaration_order() {
        let c = compile_str::<Rational>(
            "protocol order {
                agents a;
                horizon 1;
                state x = (3, 1);
                state y = (4, 0);
                init { 1/4: y; 3/4: x; }
            }",
        )
        .unwrap();
        let init = ProtocolModel::<Rational>::initial_states(c.model());
        assert_eq!(init[0].0, SimpleState::new(4, vec![0]));
        assert_eq!(init[1].0, SimpleState::new(3, vec![1]));
        assert_eq!(init[0].1, Rational::from_ratio(1, 4));
    }
}
