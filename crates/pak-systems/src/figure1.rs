//! The paper's Figure 1: the one-agent mixed-action counterexample.
//!
//! A single agent `i` at a single initial state `g0` performs a mixed action
//! step at time 0: action `α` with probability ½ and `α′ ≠ α` otherwise.
//! The resulting pps has two runs and powers *both* counterexamples of the
//! paper:
//!
//! * **§4 (sufficiency fails without independence)**: for
//!   `ψ = ¬does_i(α)`, the agent's belief in `ψ` is ½ whenever it performs
//!   `α`, yet `µ(ψ@α | α) = 0`.
//! * **§6 (the expectation equality fails without independence)**: for
//!   `ϕ = does_i(α)`, `µ(ϕ@α | α) = 1` yet `E[β_i(ϕ)@α | α] = ½`.
//!
//! The construction has a DSL twin, [`crate::dsl_twins::FIGURE1_TWIN`],
//! carrying a proof obligation: the compiled program must unfold
//! bit-identically to [`Figure1Model`] (discharged by
//! `tests/dsl_differential.rs`).

use pak_core::fact::{DoesFact, NotFact};
use pak_core::ids::{ActionId, AgentId, Time};
use pak_core::pps::{Pps, PpsBuilder};
use pak_core::prob::Probability;
use pak_core::state::SimpleState;
use pak_protocol::model::ProtocolModel;

/// The single agent `i` of the construction.
pub const AGENT_I: AgentId = AgentId(0);
/// The action `α`.
pub const ALPHA: ActionId = ActionId(0);
/// The alternative action `α′`.
pub const ALPHA_PRIME: ActionId = ActionId(1);

/// Builds the Figure 1 pps, generically over the probability type.
///
/// The local data after the step (1 after `α`, 2 after `α′`) lets the agent
/// observe which action was taken *after* the fact, exactly as in a real
/// mixed step: at decision time the agent does not yet know the outcome.
///
/// # Examples
///
/// ```
/// use pak_systems::figure1::{figure1, AGENT_I, ALPHA};
/// use pak_core::prelude::*;
/// use pak_num::Rational;
///
/// let pps = figure1::<Rational>();
/// assert_eq!(pps.num_runs(), 2);
/// assert!(pps.is_proper(AGENT_I, ALPHA));
/// ```
#[must_use]
pub fn figure1<P: Probability>() -> Pps<SimpleState, P> {
    let mut b = PpsBuilder::<SimpleState, P>::new(1);
    let half = P::from_ratio(1, 2);
    let g0 = b
        .initial(SimpleState::new(0, vec![0]), P::one())
        .expect("valid prior");
    b.child(
        g0,
        SimpleState::new(0, vec![1]),
        half.clone(),
        &[(AGENT_I, ALPHA)],
    )
    .expect("valid transition");
    b.child(
        g0,
        SimpleState::new(0, vec![2]),
        half,
        &[(AGENT_I, ALPHA_PRIME)],
    )
    .expect("valid transition");
    let mut pps = b.build().expect("Figure 1 is a valid pps");
    pps.set_action_name(ALPHA, "α");
    pps.set_action_name(ALPHA_PRIME, "α′");
    pps
}

/// The Figure 1 construction as a
/// [`ProtocolModel`]: one agent, one initial state, a mixed `α`/`α′` step
/// at time 0 whose outcome is revealed in the agent's local data (1 after
/// `α`, 2 after `α′`) — the protocol-level twin of the hand-built
/// [`figure1`] tree, which it unfolds to exactly (proved by
/// `tests/systems_unfold_smoke.rs`).
///
/// The transition genuinely depends on the joint move (the environment
/// records which action was drawn) — the workspace's minimal model with a
/// move-dependent environment. A table model expresses the same
/// dependence with guarded state-transition rules
/// ([`pak_protocol::model::StateTransition`]); the DSL twin
/// [`crate::dsl_twins::FIGURE1_TWIN`] does exactly that and unfolds
/// bit-identically to this model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Figure1Model;

impl<P: Probability> ProtocolModel<P> for Figure1Model {
    type Global = SimpleState;
    type Move = Option<ActionId>;

    fn n_agents(&self) -> u32 {
        1
    }

    fn initial_states(&self) -> Vec<(SimpleState, P)> {
        vec![(SimpleState::new(0, vec![0]), P::one())]
    }

    fn is_terminal(&self, _state: &SimpleState, time: Time) -> bool {
        time >= 1
    }

    fn action_of(&self, mv: &Self::Move) -> Option<ActionId> {
        *mv
    }

    fn moves(&self, _agent: AgentId, _local: &u64, _time: Time, out: &mut Vec<(Self::Move, P)>) {
        let half = P::from_ratio(1, 2);
        out.push((Some(ALPHA), half.clone()));
        out.push((Some(ALPHA_PRIME), half));
    }

    fn transition(
        &self,
        _state: &SimpleState,
        moves: &[Self::Move],
        _time: Time,
        out: &mut Vec<(SimpleState, P)>,
    ) {
        let local = if moves[0] == Some(ALPHA) { 1 } else { 2 };
        out.push((SimpleState::new(0, vec![local]), P::one()));
    }
}

/// The fact `ψ = ¬does_i(α)` of the §4 counterexample.
#[must_use]
pub fn psi() -> NotFact<DoesFact> {
    NotFact(DoesFact::new(AGENT_I, ALPHA))
}

/// The fact `ϕ = does_i(α)` of the §6 counterexample.
#[must_use]
pub fn phi() -> DoesFact {
    DoesFact::new(AGENT_I, ALPHA)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_core::belief::ActionAnalysis;
    use pak_core::independence::is_local_state_independent;
    use pak_core::theorems::check_expectation;
    use pak_num::Rational;

    #[test]
    fn sufficiency_counterexample_exact() {
        let pps = figure1::<Rational>();
        let a = ActionAnalysis::new(&pps, AGENT_I, ALPHA, &psi()).unwrap();
        // β_i(ψ) = ½ whenever α is performed…
        assert_eq!(a.min_belief_when_acting(), Some(Rational::from_ratio(1, 2)));
        assert_eq!(a.max_belief_when_acting(), Some(Rational::from_ratio(1, 2)));
        // …but µ(ψ@α | α) = 0 < ½.
        assert!(a.constraint_probability().is_zero());
        // The independence premise indeed fails.
        assert!(!is_local_state_independent(&pps, &psi(), AGENT_I, ALPHA));
    }

    #[test]
    fn expectation_counterexample_exact() {
        let pps = figure1::<Rational>();
        let rep = check_expectation(&pps, AGENT_I, ALPHA, &phi()).unwrap();
        assert!(!rep.independence.independent);
        assert_eq!(rep.lhs, Rational::one());
        assert_eq!(rep.rhs, Rational::from_ratio(1, 2));
        assert!(!rep.equal);
        // Vacuously consistent with Theorem 6.2 (premise fails).
        assert!(rep.implication_holds());
    }

    #[test]
    fn alpha_prime_is_symmetric() {
        let pps = figure1::<Rational>();
        let phi_prime = DoesFact::new(AGENT_I, ALPHA_PRIME);
        let a = ActionAnalysis::new(&pps, AGENT_I, ALPHA_PRIME, &phi_prime).unwrap();
        assert_eq!(a.constraint_probability(), Rational::one());
        assert_eq!(a.expected_belief(), Rational::from_ratio(1, 2));
    }

    #[test]
    fn f64_variant_matches() {
        let pps = figure1::<f64>();
        let a = ActionAnalysis::new(&pps, AGENT_I, ALPHA, &psi()).unwrap();
        assert!((a.min_belief_when_acting().unwrap() - 0.5).abs() < 1e-12);
        assert!(a.constraint_probability().abs() < 1e-12);
    }

    #[test]
    fn action_names_registered() {
        let pps = figure1::<Rational>();
        assert_eq!(pps.action_name(ALPHA), "α");
        assert_eq!(pps.action_name(ALPHA_PRIME), "α′");
    }
}
