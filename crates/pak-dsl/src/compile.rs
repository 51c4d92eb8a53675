//! The compiler from a validated [`Program`] to a
//! [`TableModel`].
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
//! ```

use std::collections::HashMap;

use pak_core::fact::StateFact;
use pak_core::ids::{ActionId, AgentId, Time};
use pak_core::prob::Probability;
use pak_core::state::SimpleState;
use pak_protocol::adversary::AdversaryFamily;
use pak_protocol::model::{MovePattern, StateTransition, TableModel};

use crate::ast::{GuardPat, MoveAction, Program, TransRule, Weight};
use crate::error::DslError;
use crate::parser::parse;

/// A compiled protocol: the [`TableModel`] plus the name tables needed to
/// talk about it (action and agent names, failure states, adversary
/// variants).
#[derive(Debug, Clone)]
pub struct CompiledProtocol<P> {
    name: String,
    agents: Vec<String>,
    actions: Vec<(String, ActionId)>,
    states: Vec<(String, u64, Vec<u64>)>,
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
        self.actions
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, id)| *id)
    }

    /// The [`AgentId`] an agent name compiled to (its position in the
    /// `agents` declaration).
    #[must_use]
    pub fn agent(&self, name: &str) -> Option<AgentId> {
        self.agents
            .iter()
            .position(|n| n == name)
            .map(|i| AgentId(u32::try_from(i).expect("validated agent count")))
    }

    /// The [`SimpleState`] a state name compiled to.
    #[must_use]
    pub fn state(&self, name: &str) -> Option<SimpleState> {
        self.states
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, env, locals)| SimpleState::new(*env, locals.clone()))
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

fn weight_prob<P: Probability>(w: Weight) -> P {
    P::from_ratio(w.num, w.den)
}

/// Compiles a parsed program, validating it first.
///
/// # Errors
///
/// Returns the first validation error (compilation itself cannot fail on a
/// validated program).
pub fn compile<P: Probability>(program: &Program) -> Result<CompiledProtocol<P>, DslError> {
    program.validate()?;

    let agents: Vec<String> = program.agents.iter().map(|a| a.value.clone()).collect();
    let actions: Vec<(String, ActionId)> = program
        .actions
        .iter()
        .map(|a| {
            (
                a.name.value.clone(),
                ActionId(u32::try_from(a.id.value).expect("validated action id")),
            )
        })
        .collect();
    let action_ids: HashMap<&str, ActionId> =
        actions.iter().map(|(n, id)| (n.as_str(), *id)).collect();
    let states: Vec<(String, u64, Vec<u64>)> = program
        .states
        .iter()
        .map(|s| (s.name.value.clone(), s.env, s.locals.clone()))
        .collect();
    let state_tuples: HashMap<&str, (u64, &[u64])> = program
        .states
        .iter()
        .map(|s| (s.name.value.as_str(), (s.env, s.locals.as_slice())))
        .collect();
    let failure_states: Vec<(u64, Vec<u64>)> = program
        .states
        .iter()
        .filter(|s| s.fail)
        .map(|s| (s.env, s.locals.clone()))
        .collect();

    let initial: Vec<(u64, Vec<u64>, P)> = program
        .init
        .iter()
        .map(|arm| {
            let (env, locals) = state_tuples[arm.state.value.as_str()];
            (env, locals.to_vec(), weight_prob(arm.weight.value))
        })
        .collect();

    #[allow(clippy::type_complexity)]
    let mut moves: Vec<((u32, u64, Time), Vec<(Option<ActionId>, P)>)> = Vec::new();
    for block in &program.moves {
        let agent = u32::try_from(
            agents
                .iter()
                .position(|a| *a == block.agent.value)
                .expect("validated agent"),
        )
        .expect("validated agent count");
        for rule in &block.rules {
            let dist: Vec<(Option<ActionId>, P)> = rule
                .dist
                .iter()
                .map(|arm| {
                    let mv = match &arm.action.value {
                        MoveAction::Skip => None,
                        MoveAction::Named(n) => Some(action_ids[n.as_str()]),
                    };
                    (mv, weight_prob(arm.weight.value))
                })
                .collect();
            let time = u32::try_from(rule.time.value).expect("validated time");
            moves.push(((agent, rule.local.value, time), dist));
        }
    }

    let compile_rules = |rules: &[TransRule]| -> Vec<StateTransition<P>> {
        rules
            .iter()
            .map(|rule| {
                let (env, locals) = state_tuples[rule.from.value.as_str()];
                let guard = rule.guard.as_ref().map_or_else(Vec::new, |pats| {
                    pats.iter()
                        .map(|p| match &p.value {
                            GuardPat::Any => MovePattern::Any,
                            GuardPat::Skip => MovePattern::Skip,
                            GuardPat::Named(n) => MovePattern::Do(action_ids[n.as_str()]),
                        })
                        .collect()
                });
                StateTransition {
                    env,
                    locals: locals.to_vec(),
                    time: u32::try_from(rule.time.value).expect("validated time"),
                    guard,
                    outcomes: rule
                        .dist
                        .iter()
                        .map(|arm| {
                            let (env, locals) = state_tuples[arm.state.value.as_str()];
                            (env, locals.to_vec(), weight_prob(arm.weight.value))
                        })
                        .collect(),
                }
            })
            .collect()
    };

    let base_rules = compile_rules(&program.transitions);
    let n_agents = u32::try_from(agents.len()).expect("validated agent count");
    let horizon = u32::try_from(program.horizon.as_ref().expect("validated horizon").value)
        .expect("validated horizon");
    let model = TableModel {
        n_agents,
        initial: initial.clone(),
        horizon,
        moves: moves.clone(),
        state_transitions: base_rules.clone(),
        ..TableModel::default()
    };

    // Adversary variants: overrides first, base rules after — first-match
    // resolution makes the overrides win exactly on their keys.
    let adversaries: Vec<(String, TableModel<P>)> = program
        .adversaries
        .iter()
        .map(|adv| {
            let mut rules = compile_rules(&adv.rules);
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
            (adv.name.value.clone(), variant)
        })
        .collect();

    Ok(CompiledProtocol {
        name: program.name.value.clone(),
        agents,
        actions,
        states,
        failure_states,
        model,
        adversaries,
    })
}

/// Parses, validates, and compiles a program in one call.
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
