//! Local-state independence (Definition 4.1) and its sufficient conditions
//! (Lemma 4.3).
//!
//! A fact `ϕ` is *local-state independent* of a proper action `α` of agent
//! `i` in `T` if, for every local state `ℓ_i ∈ L_i`,
//!
//! ```text
//! µ_T(ϕ@ℓ_i | ℓ_i) · µ_T(α@ℓ_i | ℓ_i)  =  µ_T([ϕ ∧ α]@ℓ_i | ℓ_i)
//! ```
//!
//! Intuitively, whether `ϕ` holds at a point is independent of whether the
//! agent's (possibly mixed) protocol chooses `α` there. The paper's
//! Lemma 4.3 gives two broadly applicable sufficient conditions, both of
//! which the library can *check* on any concrete system:
//!
//! * `α` is a deterministic action for `i`
//!   ([`Facts::is_deterministic_action`](crate::fact::Facts)), or
//! * `ϕ` is past-based ([`Facts::is_past_based`](crate::fact::Facts)).

use crate::event::RunSet;
use crate::fact::{Fact, Facts};
use crate::ids::{ActionId, AgentId, CellId};
use crate::pps::Pps;
use crate::prob::Probability;
use crate::state::GlobalState;

/// The outcome of checking Definition 4.1 on a system.
#[derive(Debug, Clone)]
pub struct IndependenceReport<P> {
    /// Whether the fact is local-state independent of the action.
    pub independent: bool,
    /// The first violating local state, if any, with the two sides of the
    /// defining equation: `(cell, lhs = µ(ϕ@ℓ|ℓ)·µ(α@ℓ|ℓ), rhs = µ([ϕ∧α]@ℓ|ℓ))`.
    pub violation: Option<(CellId, P, P)>,
    /// Number of local states examined.
    pub cells_checked: usize,
}

/// Checks whether `fact` is local-state independent of `action` for `agent`
/// (Definition 4.1), returning a detailed report.
///
/// All local states of the agent are examined (the definition quantifies
/// over `L_i`, not just `L_i[α]`; for cells where the action is never
/// performed both sides are zero, so only performing cells can violate).
/// The three ratios per cell are [`Pps::conditional`]s given `ℓ`, so an
/// exact system reads them from its mass column.
///
/// # Examples
///
/// ```
/// use pak_core::prelude::*;
/// use pak_core::independence::check_local_state_independence;
/// use pak_num::Rational;
///
/// // Figure 1: ψ = ¬does(α) is NOT independent of α.
/// let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
/// let g0 = b.initial(SimpleState::zeroed(1), Rational::one())?;
/// let (i, alpha) = (AgentId(0), ActionId(0));
/// b.child(g0, SimpleState::zeroed(1), Rational::from_ratio(1, 2), &[(i, alpha)])?;
/// b.child(g0, SimpleState::zeroed(1), Rational::from_ratio(1, 2), &[(i, ActionId(1))])?;
/// let pps = b.build()?;
///
/// let psi = NotFact(DoesFact::new(i, alpha));
/// let report = check_local_state_independence(&pps, &psi, i, alpha);
/// assert!(!report.independent);
/// # Ok::<(), PpsError>(())
/// ```
pub fn check_local_state_independence<G: GlobalState, P: Probability>(
    pps: &Pps<G, P>,
    fact: &dyn Fact<G, P>,
    agent: AgentId,
    action: ActionId,
) -> IndependenceReport<P> {
    let mut cells_checked = 0;
    for (cell_id, _) in pps.agent_cells(agent) {
        cells_checked += 1;
        let l = pps.cell_runs(cell_id);
        let phi_at_l = pps.fact_at_cell(fact, cell_id);
        let alpha_at_l = pps.action_at_cell(action, cell_id);
        let both_at_l = phi_at_l.intersection(&alpha_at_l);
        let given_l = |event: &RunSet| {
            pps.conditional(event, l)
                .expect("every local state in a pps has positive measure")
        };
        let p_phi = given_l(&phi_at_l);
        let p_alpha = given_l(&alpha_at_l);
        let p_both = given_l(&both_at_l);
        let lhs = p_phi.mul(&p_alpha);
        if !lhs.approx_eq(&p_both) {
            return IndependenceReport {
                independent: false,
                violation: Some((cell_id, lhs, p_both)),
                cells_checked,
            };
        }
    }
    IndependenceReport {
        independent: true,
        violation: None,
        cells_checked,
    }
}

/// Convenience: `true` iff `fact` is local-state independent of `action`.
pub fn is_local_state_independent<G: GlobalState, P: Probability>(
    pps: &Pps<G, P>,
    fact: &dyn Fact<G, P>,
    agent: AgentId,
    action: ActionId,
) -> bool {
    check_local_state_independence(pps, fact, agent, action).independent
}

/// The two sufficient conditions of Lemma 4.3, as checked on a concrete
/// system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lemma43Report {
    /// Condition (a): the action is deterministic for the agent.
    pub action_deterministic: bool,
    /// Condition (b): the fact is past-based.
    pub fact_past_based: bool,
}

impl Lemma43Report {
    /// Whether Lemma 4.3 applies (either sufficient condition holds), which
    /// guarantees local-state independence.
    #[must_use]
    pub fn guarantees_independence(&self) -> bool {
        self.action_deterministic || self.fact_past_based
    }
}

/// Evaluates both sufficient conditions of Lemma 4.3.
pub fn check_lemma43<G: GlobalState, P: Probability>(
    pps: &Pps<G, P>,
    fact: &dyn Fact<G, P>,
    agent: AgentId,
    action: ActionId,
) -> Lemma43Report {
    Lemma43Report {
        action_deterministic: pps.is_deterministic_action(agent, action),
        fact_past_based: pps.is_past_based(fact),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::{DoesFact, NotFact, StateFact};
    use crate::pps::PpsBuilder;
    use crate::state::SimpleState;
    use pak_num::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    fn st(env: u64, locals: &[u64]) -> SimpleState {
        SimpleState::new(env, locals.to_vec())
    }

    fn figure1() -> Pps<SimpleState, Rational> {
        let mut b = PpsBuilder::new(1);
        let g0 = b.initial(st(0, &[0]), Rational::one()).unwrap();
        b.child(g0, st(0, &[1]), r(1, 2), &[(AgentId(0), ActionId(0))])
            .unwrap();
        b.child(g0, st(0, &[2]), r(1, 2), &[(AgentId(0), ActionId(1))])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn figure1_psi_violates_lsi() {
        let pps = figure1();
        let psi = NotFact(DoesFact::new(AgentId(0), ActionId(0)));
        let report = check_local_state_independence(&pps, &psi, AgentId(0), ActionId(0));
        assert!(!report.independent);
        let (_, lhs, rhs) = report.violation.unwrap();
        // At the mixed time-0 cell: µ(ψ@ℓ|ℓ) = ½, µ(α@ℓ|ℓ) = ½ ⇒ lhs = ¼;
        // but ψ ∧ α is contradictory there ⇒ rhs = 0.
        assert_eq!(lhs, r(1, 4));
        assert_eq!(rhs, Rational::zero());
    }

    #[test]
    fn figure1_phi_does_also_violates_lsi() {
        let pps = figure1();
        let phi = DoesFact::new(AgentId(0), ActionId(0));
        assert!(!is_local_state_independent(
            &pps,
            &phi,
            AgentId(0),
            ActionId(0)
        ));
    }

    #[test]
    fn past_based_fact_is_lsi_under_mixing() {
        // Lemma 4.3(b): a state fact is independent of a mixed action.
        let pps = figure1();
        let phi = StateFact::<SimpleState>::new("⊤-state", |_| true);
        assert!(is_local_state_independent(
            &pps,
            &phi,
            AgentId(0),
            ActionId(0)
        ));
        let lemma = check_lemma43(&pps, &phi, AgentId(0), ActionId(0));
        assert!(lemma.fact_past_based);
        assert!(!lemma.action_deterministic);
        assert!(lemma.guarantees_independence());
    }

    #[test]
    fn deterministic_action_is_lsi_even_for_future_fact() {
        // Lemma 4.3(a): α deterministic ⇒ independence for any ϕ, even a
        // future-dependent one.
        let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
        let g0 = b.initial(st(0, &[0]), Rational::one()).unwrap();
        let alpha = ActionId(0);
        let mid = b
            .child(g0, st(0, &[0]), Rational::one(), &[(AgentId(0), alpha)])
            .unwrap();
        // After α, the environment branches (hidden from the agent).
        b.child(mid, st(1, &[0]), r(1, 2), &[]).unwrap();
        b.child(mid, st(2, &[0]), r(1, 2), &[]).unwrap();
        let pps = b.build().unwrap();

        // "env will be 1 at the end of this run" — future-dependent.
        let future =
            crate::fact::FnFact::new("env_final=1", |pps: &Pps<SimpleState, Rational>, pt| {
                let last = pps.run_len(pt.run) as u32 - 1;
                pps.state_at(crate::ids::Point {
                    run: pt.run,
                    time: last,
                })
                .is_some_and(|g| g.env == 1)
            });
        assert!(!pps.is_past_based(&future));
        assert!(pps.is_deterministic_action(AgentId(0), alpha));
        assert!(is_local_state_independent(&pps, &future, AgentId(0), alpha));
        let lemma = check_lemma43(&pps, &future, AgentId(0), alpha);
        assert!(lemma.action_deterministic && !lemma.fact_past_based);
    }

    #[test]
    fn mixed_action_with_future_fact_can_still_be_lsi_by_luck() {
        // LSI can hold without either Lemma 4.3 condition: conditions are
        // sufficient, not necessary. Example: ϕ = ⊤ with a mixed action.
        let pps = figure1();
        let top = crate::fact::TrueFact;
        assert!(is_local_state_independent(
            &pps,
            &top,
            AgentId(0),
            ActionId(0)
        ));
        let lemma = check_lemma43(&pps, &top, AgentId(0), ActionId(0));
        assert!(!lemma.action_deterministic);
        assert!(lemma.fact_past_based); // ⊤ is trivially past-based
    }

    #[test]
    fn report_counts_cells() {
        let pps = figure1();
        let top = crate::fact::TrueFact;
        let rep = check_local_state_independence(&pps, &top, AgentId(0), ActionId(0));
        // Agent 0 has 3 cells: merged t=0, and two t=1 singletons.
        assert_eq!(rep.cells_checked, 3);
    }
}
