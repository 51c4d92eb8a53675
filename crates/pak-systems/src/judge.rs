//! The judge scenario: acting only under strong belief.
//!
//! The paper (§1) contrasts probabilistic constraints with settings where an
//! agent is *required* to act only under strong belief: a judge should
//! convict only when guilt is believed "beyond a reasonable doubt" \[37\] —
//! probabilistically, only when the posterior belief in guilt exceeds a
//! threshold. (UK civil cases use the weaker "balance of probabilities":
//! threshold ½.)
//!
//! The model: the defendant is guilty with prior `guilt_prior`. The judge
//! observes `pieces` independent pieces of evidence, each *pointing the
//! right way* with probability `accuracy`. The judge's protocol convicts
//! iff at least `convict_at` pieces point to guilt. The analysis connects
//! the protocol's conviction rule to the paper's machinery:
//!
//! * the judge's belief in guilt at conviction is the exact Bayesian
//!   posterior given the evidence count;
//! * Theorem 4.2: if every conviction point has posterior ≥ τ, then
//!   `µ(guilty@convict | convict) ≥ τ` — wrongful-conviction probability is
//!   bounded by `1 − τ`;
//! * Theorem 6.2: the expected posterior at conviction equals the actual
//!   conviction accuracy.
//!
//! The majority-rule instance (prior ½, accuracy 9/10, 3 pieces, convict
//! at 2) has a DSL twin, [`crate::dsl_twins::JUDGE_TWIN`], carrying a
//! proof obligation: the compiled program must unfold bit-identically to
//! this hand-written model (discharged by `tests/dsl_differential.rs`).

use pak_core::belief::ActionAnalysis;
use pak_core::error::AnalysisError;
use pak_core::fact::StateFact;
use pak_core::ids::{ActionId, AgentId, Time};
use pak_core::pps::{Pps, PpsBuilder};
use pak_core::prob::Probability;
use pak_core::state::SimpleState;
use pak_protocol::model::ProtocolModel;

/// The judge agent.
pub const JUDGE: AgentId = AgentId(0);
/// The conviction action.
pub const CONVICT: ActionId = ActionId(50);

/// Environment encoding of actual guilt.
const GUILTY: u64 = 1;

/// The judge scenario.
///
/// # Examples
///
/// ```
/// use pak_systems::judge::JudgeScenario;
/// use pak_num::Rational;
///
/// // Guilt prior ½, 3 pieces of 90%-accurate evidence, convict on all 3.
/// let j = JudgeScenario::new(
///     Rational::from_ratio(1, 2),
///     Rational::from_ratio(9, 10),
///     3,
///     3,
/// );
/// let a = j.analyze().unwrap();
/// // Posterior given 3/3 guilty-pointing pieces: 0.9³/(0.9³+0.1³) = 729/730.
/// assert_eq!(a.constraint_probability(), Rational::from_ratio(729, 730));
/// ```
#[derive(Debug, Clone)]
pub struct JudgeScenario<P> {
    guilt_prior: P,
    accuracy: P,
    pieces: u32,
    convict_at: u32,
}

impl<P: Probability> JudgeScenario<P> {
    /// Creates the scenario: convict iff at least `convict_at` of `pieces`
    /// evidence pieces point to guilt.
    ///
    /// # Panics
    ///
    /// Panics on degenerate probabilities, `pieces == 0`,
    /// `convict_at > pieces`, or more than 16 pieces (exact enumeration).
    #[must_use]
    pub fn new(guilt_prior: P, accuracy: P, pieces: u32, convict_at: u32) -> Self {
        for (name, p) in [("guilt_prior", &guilt_prior), ("accuracy", &accuracy)] {
            assert!(
                p.is_valid_probability() && !p.is_zero() && !p.is_one(),
                "{name} must lie strictly between 0 and 1"
            );
        }
        assert!(pieces > 0 && pieces <= 16, "pieces must lie in 1..=16");
        assert!(convict_at <= pieces, "convict_at must not exceed pieces");
        JudgeScenario {
            guilt_prior,
            accuracy,
            pieces,
            convict_at,
        }
    }

    /// The prior over `(guilt, evidence count)` initial states — shared by
    /// the hand-built tree and the [`ProtocolModel`] representation.
    fn initial_distribution(&self) -> Vec<(SimpleState, P)> {
        let mut initial = Vec::new();
        for guilty in [true, false] {
            let p_g = if guilty {
                self.guilt_prior.clone()
            } else {
                self.guilt_prior.one_minus()
            };
            // k = number of guilty-pointing pieces ~ Binomial(pieces, q)
            // where q = accuracy if guilty else 1 − accuracy.
            let q = if guilty {
                self.accuracy.clone()
            } else {
                self.accuracy.one_minus()
            };
            for k in 0..=self.pieces {
                let p_k = binomial_pmf(&q, self.pieces, k);
                let prob = p_g.mul(&p_k);
                if prob.is_zero() {
                    continue;
                }
                let env = u64::from(guilty) * GUILTY;
                initial.push((SimpleState::new(env, vec![u64::from(k)]), prob));
            }
        }
        initial
    }

    /// Builds the pps: the initial states enumerate (guilt, evidence
    /// count); at time 0 → 1 the judge convicts or acquits.
    ///
    /// The judge's local data is the number of guilty-pointing pieces — its
    /// complete observation.
    #[must_use]
    pub fn build_pps(&self) -> Pps<SimpleState, P> {
        let mut b = PpsBuilder::<SimpleState, P>::new(1);
        let mut nodes = Vec::new();
        for (state, prob) in self.initial_distribution() {
            let node = b.initial(state.clone(), prob).expect("valid prior");
            nodes.push((node, state));
        }
        for (node, state) in nodes {
            let actions: &[(AgentId, ActionId)] = if state.locals[0] >= u64::from(self.convict_at) {
                &[(JUDGE, CONVICT)]
            } else {
                &[]
            };
            b.child(node, state, P::one(), actions)
                .expect("valid transition");
        }
        let mut pps = b.build().expect("judge scenario is a valid pps");
        pps.set_action_name(CONVICT, "convict");
        pps
    }

    /// The condition: the defendant is actually guilty.
    #[must_use]
    pub fn guilty() -> StateFact<SimpleState> {
        StateFact::new("guilty", |g: &SimpleState| g.env == GUILTY)
    }

    /// Analysis of `(judge, convict, guilty)`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ImproperAction`] if the conviction rule
    /// never fires (e.g. `convict_at` unreachable with the given counts).
    pub fn analyze(&self) -> Result<ActionAnalysis<P>, AnalysisError> {
        let pps = self.build_pps();
        ActionAnalysis::new(&pps, JUDGE, CONVICT, &Self::guilty())
    }

    /// The exact Bayesian posterior of guilt given `k` guilty-pointing
    /// pieces.
    #[must_use]
    pub fn posterior_given_count(&self, k: u32) -> P {
        let lik_g = binomial_pmf(&self.accuracy, self.pieces, k);
        let lik_i = binomial_pmf(&self.accuracy.one_minus(), self.pieces, k);
        let num = self.guilt_prior.mul(&lik_g);
        let den = num.add(&self.guilt_prior.one_minus().mul(&lik_i));
        num.div(&den)
    }
}

/// The judge scenario is itself a [`ProtocolModel`]: one agent whose local
/// data is the guilty-pointing evidence count, convicting at time 0 iff
/// the count meets `convict_at`, over the same `(guilt, count)` prior the
/// hand-built tree enumerates. Unfolding it reproduces
/// [`JudgeScenario::build_pps`] exactly (proved by
/// `tests/systems_unfold_smoke.rs`).
impl<P: Probability> ProtocolModel<P> for JudgeScenario<P> {
    type Global = SimpleState;
    type Move = Option<ActionId>;

    fn n_agents(&self) -> u32 {
        1
    }

    fn initial_states(&self) -> Vec<(SimpleState, P)> {
        self.initial_distribution()
    }

    fn is_terminal(&self, _state: &SimpleState, time: Time) -> bool {
        time >= 1
    }

    fn action_of(&self, mv: &Self::Move) -> Option<ActionId> {
        *mv
    }

    fn moves(&self, _agent: AgentId, local: &u64, _time: Time, out: &mut Vec<(Self::Move, P)>) {
        let action = if *local >= u64::from(self.convict_at) {
            Some(CONVICT)
        } else {
            None
        };
        out.push((action, P::one()));
    }

    fn transition(
        &self,
        state: &SimpleState,
        _moves: &[Self::Move],
        _time: Time,
        out: &mut Vec<(SimpleState, P)>,
    ) {
        out.push((state.clone(), P::one()));
    }
}

/// Exact binomial probability mass `C(n, k) qᵏ (1−q)ⁿ⁻ᵏ`.
fn binomial_pmf<P: Probability>(q: &P, n: u32, k: u32) -> P {
    let mut coeff = P::one();
    // C(n, k) via multiplicative formula, exactly.
    for j in 0..k {
        coeff = coeff
            .mul(&P::from_ratio(u64::from(n - j), 1))
            .div(&P::from_ratio(u64::from(j + 1), 1));
    }
    let mut prob = coeff;
    for _ in 0..k {
        prob = prob.mul(q);
    }
    let not_q = q.one_minus();
    for _ in 0..(n - k) {
        prob = prob.mul(&not_q);
    }
    prob
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_core::theorems::{check_expectation, check_sufficiency};
    use pak_num::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let q = r(3, 10);
        let total: Rational = (0..=5).map(|k| binomial_pmf(&q, 5, k)).sum();
        assert!(total.is_one());
        assert_eq!(binomial_pmf(&q, 5, 0), r(7, 10).pow(5));
        assert_eq!(binomial_pmf(&q, 1, 1), q);
    }

    #[test]
    fn unanimous_evidence_posterior() {
        let j = JudgeScenario::new(r(1, 2), r(9, 10), 3, 3);
        let a = j.analyze().unwrap();
        assert_eq!(a.constraint_probability(), r(729, 730));
        // The judge's belief at conviction equals the posterior for k = 3.
        assert_eq!(a.min_belief_when_acting(), Some(j.posterior_given_count(3)));
    }

    #[test]
    fn majority_rule_mixes_posteriors() {
        let j = JudgeScenario::new(r(1, 2), r(9, 10), 3, 2);
        let a = j.analyze().unwrap();
        // Conviction points have k = 2 or k = 3, with different posteriors.
        let dist = a.belief_distribution();
        assert_eq!(dist.len(), 2);
        assert_eq!(dist[0].0, j.posterior_given_count(2));
        assert_eq!(dist[1].0, j.posterior_given_count(3));
        // Expected belief at conviction = conviction accuracy (Thm 6.2).
        assert_eq!(a.expected_belief(), a.constraint_probability());
    }

    #[test]
    fn beyond_reasonable_doubt_bound() {
        // If the rule only convicts when the posterior ≥ τ, wrongful
        // conviction ≤ 1 − τ (Theorem 4.2).
        let j = JudgeScenario::new(r(1, 2), r(9, 10), 3, 2);
        let pps = j.build_pps();
        let tau = j.posterior_given_count(2); // the weakest conviction point
        let rep = check_sufficiency(
            &pps,
            JUDGE,
            CONVICT,
            &JudgeScenario::<Rational>::guilty(),
            &tau,
        )
        .unwrap();
        assert!(rep.independent);
        assert!(rep.implication_holds);
        assert!(rep.constraint_probability.at_least(&tau));
    }

    #[test]
    fn expectation_theorem_exact() {
        let j = JudgeScenario::new(r(1, 3), r(4, 5), 4, 3);
        let pps = j.build_pps();
        let rep =
            check_expectation(&pps, JUDGE, CONVICT, &JudgeScenario::<Rational>::guilty()).unwrap();
        assert!(rep.independence.independent);
        assert!(rep.equal);
    }

    #[test]
    fn balance_of_probabilities_vs_reasonable_doubt() {
        // Civil (τ = ½, convict on majority) convicts more often but with
        // lower accuracy than criminal (convict on unanimity).
        let civil = JudgeScenario::new(r(1, 2), r(8, 10), 3, 2);
        let criminal = JudgeScenario::new(r(1, 2), r(8, 10), 3, 3);
        let ca = civil.analyze().unwrap();
        let cr = criminal.analyze().unwrap();
        assert!(ca.action_measure() > cr.action_measure());
        assert!(ca.constraint_probability() < cr.constraint_probability());
    }

    #[test]
    fn convict_at_zero_always_convicts() {
        let j = JudgeScenario::new(r(1, 2), r(9, 10), 2, 0);
        let a = j.analyze().unwrap();
        // Convicting always: accuracy = the prior.
        assert_eq!(a.constraint_probability(), r(1, 2));
        assert!(a.action_measure().is_one());
    }

    #[test]
    fn posterior_monotone_in_count() {
        let j = JudgeScenario::new(r(1, 2), r(7, 10), 5, 3);
        for k in 0..5 {
            assert!(j.posterior_given_count(k) < j.posterior_given_count(k + 1));
        }
    }

    #[test]
    #[should_panic(expected = "convict_at must not exceed pieces")]
    fn bad_rule_rejected() {
        let _ = JudgeScenario::new(r(1, 2), r(9, 10), 2, 3);
    }
}
