//! The Theorem 5.2 construction `Tˆ(p, ε)` (the paper's Figure 2).
//!
//! Theorem 5.2 states that no positive lower bound exists on the measure of
//! runs in which an agent's belief must meet a constraint's threshold: for
//! every `ε > 0` and `0 < p < 1` there is a system satisfying
//! `µ(ϕ@α | α) ≥ p` in which `µ(β_i(ϕ)@α ≥ p | α) ≤ ε`.
//!
//! The witness has two agents. Agent `j` holds a `bit` that never changes;
//! initially `bit = 1` with probability `p`. In round 1, `j` sends `i` the
//! message `m` surely when `bit = 0`, and when `bit = 1` sends `m` with
//! probability `1 − ε/p` and a distinct `m′` with probability `ε/p`. Agent
//! `i` receives the message (the channel here is reliable) and
//! unconditionally performs `α` at time 1. With `ϕ = "bit = 1"`:
//!
//! * `µ(ϕ@α | α) = p` exactly,
//! * `i`'s belief when acting is `(p − ε)/(1 − ε) < p` in the merged
//!   `m`-state (measure `1 − ε`), and `1` in the `m′`-state (measure `ε`),
//! * hence `µ(β_i(ϕ)@α ≥ p | α) = ε` exactly.
//!
//! The `p = 3/4, ε = 1/4` instance has a DSL twin,
//! [`crate::dsl_twins::THRESHOLD_TWIN`], carrying a proof obligation: the
//! compiled program must unfold bit-identically to this hand-written
//! model (discharged by `tests/dsl_differential.rs`).

use pak_core::belief::ActionAnalysis;
use pak_core::fact::StateFact;
use pak_core::ids::{ActionId, AgentId, Time};
use pak_core::pps::{Pps, PpsBuilder};
use pak_core::prob::Probability;
use pak_core::state::SimpleState;
use pak_protocol::model::ProtocolModel;

/// The acting agent `i`.
pub const AGENT_I: AgentId = AgentId(0);
/// The informed agent `j` (holds `bit`).
pub const AGENT_J: AgentId = AgentId(1);
/// The unconditional action `α` of agent `i`.
pub const ALPHA: ActionId = ActionId(0);

/// Parameters of the `Tˆ(p, ε)` construction.
///
/// # Examples
///
/// ```
/// use pak_systems::threshold::ThresholdConstruction;
/// use pak_num::Rational;
///
/// let t = ThresholdConstruction::new(
///     Rational::from_ratio(3, 4),
///     Rational::from_ratio(1, 100),
/// );
/// let claims = t.verify();
/// assert!(claims.all_hold());
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdConstruction<P> {
    /// The constraint threshold `p` (also the prior of `bit = 1`).
    p: P,
    /// The bound `ε` on the threshold-met measure.
    eps: P,
}

impl<P: Probability> ThresholdConstruction<P> {
    /// Creates the construction for `0 < ε < p < 1`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε < p < 1` (the regime of the paper's proof; the
    /// remaining cases of Theorem 5.2 are trivial).
    #[must_use]
    pub fn new(p: P, eps: P) -> Self {
        assert!(
            p.at_least(&P::zero()) && !p.is_zero() && P::one().at_least(&p) && !p.is_one(),
            "p must lie strictly between 0 and 1"
        );
        assert!(
            eps.at_least(&P::zero()) && !eps.is_zero() && p.at_least(&eps) && !p.approx_eq(&eps),
            "ε must lie strictly between 0 and p"
        );
        ThresholdConstruction { p, eps }
    }

    /// The threshold `p`.
    pub fn p(&self) -> &P {
        &self.p
    }

    /// The bound `ε`.
    pub fn eps(&self) -> &P {
        &self.eps
    }

    /// Builds the witness pps.
    #[must_use]
    pub fn build(&self) -> Pps<SimpleState, P> {
        let mut b = PpsBuilder::<SimpleState, P>::new(2);
        // locals = [i's received message (0 = none yet, 1 = m, 2 = m′), j's bit]
        let s1 = b
            .initial(SimpleState::new(0, vec![0, 1]), self.p.clone())
            .expect("0 < p < 1");
        let s0 = b
            .initial(SimpleState::new(0, vec![0, 0]), self.p.one_minus())
            .expect("0 < p < 1");
        let eps_over_p = self.eps.div(&self.p);
        // Round 1: j's message reaches i.
        let t0 = b
            .child(s0, SimpleState::new(0, vec![1, 0]), P::one(), &[])
            .expect("valid");
        let t1m = b
            .child(
                s1,
                SimpleState::new(0, vec![1, 1]),
                eps_over_p.one_minus(),
                &[],
            )
            .expect("ε < p");
        let t1m2 = b
            .child(s1, SimpleState::new(0, vec![2, 1]), eps_over_p, &[])
            .expect("ε > 0");
        // Round 2: i unconditionally performs α (locals are preserved).
        b.child(
            t0,
            SimpleState::new(0, vec![1, 0]),
            P::one(),
            &[(AGENT_I, ALPHA)],
        )
        .expect("valid");
        b.child(
            t1m,
            SimpleState::new(0, vec![1, 1]),
            P::one(),
            &[(AGENT_I, ALPHA)],
        )
        .expect("valid");
        b.child(
            t1m2,
            SimpleState::new(0, vec![2, 1]),
            P::one(),
            &[(AGENT_I, ALPHA)],
        )
        .expect("valid");
        let mut pps = b.build().expect("Tˆ(p, ε) is a valid pps");
        pps.set_action_name(ALPHA, "α");
        pps
    }

    /// The condition `ϕ = "bit = 1"`.
    #[must_use]
    pub fn phi() -> StateFact<SimpleState> {
        StateFact::new("bit=1", |g: &SimpleState| g.locals[1] == 1)
    }

    /// Verifies every quantitative claim of Theorem 5.2 on the built
    /// system, returning the measured values.
    #[must_use]
    pub fn verify(&self) -> ThresholdClaims<P> {
        let pps = self.build();
        let analysis = ActionAnalysis::new(&pps, AGENT_I, ALPHA, &Self::phi())
            .expect("α is proper: performed exactly once in every run");
        let merged_expected = self.p.sub(&self.eps).div(&self.eps.one_minus());
        ThresholdClaims {
            constraint_probability: analysis.constraint_probability(),
            expected_p: self.p.clone(),
            threshold_met_measure: analysis.threshold_measure(&self.p),
            expected_eps: self.eps.clone(),
            merged_belief: analysis
                .min_belief_when_acting()
                .expect("α performed at least once"),
            expected_merged_belief: merged_expected,
            expected_belief: analysis.expected_belief(),
        }
    }
}

/// `Tˆ(p, ε)` is itself a [`ProtocolModel`]: two agents over
/// [`SimpleState`] (`locals = [i's received message, j's bit]`), the
/// environment resolving `j`'s probabilistic send at time 0 and `i`
/// unconditionally performing `α` at time 1 — unfolding it reproduces the
/// hand-built [`ThresholdConstruction::build`] tree observably (proved by
/// `tests/systems_unfold_smoke.rs`; the unfolder's frontier emits nodes in
/// a different order, but every run, probability, cell, and action event
/// coincides).
impl<P: Probability> ProtocolModel<P> for ThresholdConstruction<P> {
    type Global = SimpleState;
    type Move = Option<ActionId>;

    fn n_agents(&self) -> u32 {
        2
    }

    fn initial_states(&self) -> Vec<(SimpleState, P)> {
        vec![
            (SimpleState::new(0, vec![0, 1]), self.p.clone()),
            (SimpleState::new(0, vec![0, 0]), self.p.one_minus()),
        ]
    }

    fn is_terminal(&self, _state: &SimpleState, time: Time) -> bool {
        time >= 2
    }

    fn action_of(&self, mv: &Self::Move) -> Option<ActionId> {
        *mv
    }

    fn moves(&self, agent: AgentId, _local: &u64, time: Time, out: &mut Vec<(Self::Move, P)>) {
        // Round 2: i unconditionally performs α; everything else is a skip
        // (j's send lives in the environment's transition).
        let action = (agent == AGENT_I && time == 1).then_some(ALPHA);
        out.push((action, P::one()));
    }

    fn transition(
        &self,
        state: &SimpleState,
        _moves: &[Self::Move],
        time: Time,
        out: &mut Vec<(SimpleState, P)>,
    ) {
        if time == 0 {
            // Round 1: j's message reaches i (m surely when bit = 0;
            // m with probability 1 − ε/p and m′ with ε/p when bit = 1).
            if state.locals[1] == 1 {
                let eps_over_p = self.eps.div(&self.p);
                out.push((SimpleState::new(0, vec![1, 1]), eps_over_p.one_minus()));
                out.push((SimpleState::new(0, vec![2, 1]), eps_over_p));
            } else {
                out.push((SimpleState::new(0, vec![1, 0]), P::one()));
            }
        } else {
            // Round 2: locals are preserved.
            out.push((state.clone(), P::one()));
        }
    }
}

/// The measured-vs-expected quantities of a `Tˆ(p, ε)` instance.
#[derive(Debug, Clone)]
pub struct ThresholdClaims<P> {
    /// Measured `µ(ϕ@α | α)`.
    pub constraint_probability: P,
    /// The paper's value: exactly `p`.
    pub expected_p: P,
    /// Measured `µ(β_i(ϕ)@α ≥ p | α)`.
    pub threshold_met_measure: P,
    /// The paper's value: exactly `ε`.
    pub expected_eps: P,
    /// Measured belief in the merged `m`-state.
    pub merged_belief: P,
    /// The paper's value: `(p − ε)/(1 − ε)`.
    pub expected_merged_belief: P,
    /// Measured `E[β_i(ϕ)@α | α]` (equals `p` by Theorem 6.2).
    pub expected_belief: P,
}

impl<P: Probability> ThresholdClaims<P> {
    /// Whether every claim matches.
    #[must_use]
    pub fn all_hold(&self) -> bool {
        self.constraint_probability.approx_eq(&self.expected_p)
            && self.threshold_met_measure.approx_eq(&self.expected_eps)
            && self.merged_belief.approx_eq(&self.expected_merged_belief)
            && self.expected_belief.approx_eq(&self.expected_p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_core::fact::Facts;
    use pak_core::independence::is_local_state_independent;
    use pak_num::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn paper_claims_hold_across_parameter_sweep() {
        for (p, e) in [
            (r(3, 4), r(1, 4)),
            (r(1, 2), r(1, 100)),
            (r(99, 100), r(1, 1000)),
            (r(9, 10), r(1, 2) * r(9, 10)), // ε close to p/2
        ] {
            let t = ThresholdConstruction::new(p.clone(), e.clone());
            let claims = t.verify();
            assert!(claims.all_hold(), "p={p} ε={e}: {claims:?}");
            assert_eq!(claims.constraint_probability, p);
            assert_eq!(claims.threshold_met_measure, e);
        }
    }

    #[test]
    fn merged_belief_strictly_below_p() {
        let t = ThresholdConstruction::new(r(3, 4), r(1, 4));
        let claims = t.verify();
        assert_eq!(claims.merged_belief, r(2, 3));
        assert!(claims.merged_belief < claims.expected_p);
    }

    #[test]
    fn alpha_is_deterministic_and_phi_lsi() {
        let t = ThresholdConstruction::new(r(1, 2), r(1, 8));
        let pps = t.build();
        assert!(pps.is_deterministic_action(AGENT_I, ALPHA));
        assert!(is_local_state_independent(
            &pps,
            &ThresholdConstruction::<Rational>::phi(),
            AGENT_I,
            ALPHA
        ));
        // ϕ is also a fact about runs (bit never changes).
        assert!(pps.is_run_fact(&ThresholdConstruction::<Rational>::phi()));
    }

    #[test]
    #[should_panic(expected = "strictly between 0 and p")]
    fn eps_at_least_p_rejected() {
        let _ = ThresholdConstruction::new(r(1, 2), r(1, 2));
    }

    #[test]
    #[should_panic(expected = "strictly between 0 and 1")]
    fn p_one_rejected() {
        let _ = ThresholdConstruction::new(Rational::one(), r(1, 2));
    }

    #[test]
    fn f64_variant() {
        let t = ThresholdConstruction::new(0.75f64, 0.01);
        let claims = t.verify();
        assert!(claims.all_hold());
        assert!((claims.constraint_probability - 0.75).abs() < 1e-9);
        assert!((claims.threshold_met_measure - 0.01).abs() < 1e-9);
    }

    #[test]
    fn three_runs_structure() {
        let t = ThresholdConstruction::new(r(3, 4), r(1, 8));
        let pps = t.build();
        assert_eq!(pps.num_runs(), 3);
        assert!(pps.measure(&pps.all_runs()).is_one());
    }
}
