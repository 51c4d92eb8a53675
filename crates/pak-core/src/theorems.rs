//! The paper's theorems as checkable functions.
//!
//! Each function takes a concrete system together with an `(agent, action,
//! fact)` triple, evaluates the relevant premises and conclusions *exactly*
//! (when instantiated at `P = Rational`), and returns a structured report.
//! The reports double as reproduction artefacts: the benchmark harness
//! prints them as paper-vs-measured rows.
//!
//! | Paper statement | Function |
//! |-----------------|----------|
//! | Theorem 4.2 (sufficiency of meeting the threshold) | [`check_sufficiency`] |
//! | Lemma 5.1 (necessity of sometimes meeting it)      | [`check_necessity`] |
//! | Theorem 6.2 (expectation theorem)                  | [`check_expectation`] |
//! | Theorem 7.1 (PAK tradeoff)                         | [`check_pak`] |
//! | Corollary 7.2 (PAK with δ = ε)                     | [`check_pak_corollary`] |
//! | Lemma F.1 (KoP limit, p = 1)                       | [`check_kop_limit`] |
//!
//! Theorem 5.2 is an *existence* statement ("there is a system where the
//! threshold is met with arbitrarily small probability"); its witness
//! construction `Tˆ(p, ε)` lives in `pak-systems::threshold`, and its claims
//! are verified through [`crate::belief::ActionAnalysis`].

use crate::belief::ActionAnalysis;
use crate::error::AnalysisError;
use crate::fact::Fact;
use crate::ids::{ActionId, AgentId, Point};
use crate::independence::{check_local_state_independence, IndependenceReport};
use crate::pps::Pps;
use crate::prob::Probability;
use crate::state::GlobalState;

/// The prologue every check shares: the triple's analysis, which
/// rejects an improper action, and its Definition 4.1 report.
fn analyse<G: GlobalState, P: Probability>(
    pps: &Pps<G, P>,
    agent: AgentId,
    action: ActionId,
    fact: &dyn Fact<G, P>,
) -> Result<(ActionAnalysis<P>, IndependenceReport<P>), AnalysisError> {
    let analysis = ActionAnalysis::new(pps, agent, action, fact)?;
    let independence = check_local_state_independence(pps, fact, agent, action);
    Ok((analysis, independence))
}

/// Report of a Theorem 4.2 check: if `β_i(ϕ) ≥ p` whenever `i` performs
/// `α`, and `ϕ` is local-state independent of `α`, then `µ(ϕ@α | α) ≥ p`.
#[derive(Debug, Clone)]
pub struct SufficiencyReport<P> {
    /// Whether the independence premise holds.
    pub independent: bool,
    /// The minimum belief at any performance point (the largest `p` for
    /// which the belief premise holds).
    pub min_belief: P,
    /// `µ(ϕ@α | α)`.
    pub constraint_probability: P,
    /// The theorem's conclusion for the given threshold: either the premise
    /// failed (vacuously true) or the constraint probability meets it.
    pub holds_at: P,
    /// Whether the theorem's implication holds at `holds_at`.
    pub implication_holds: bool,
}

/// Checks Theorem 4.2 at threshold `p`.
///
/// # Errors
///
/// Returns [`AnalysisError::ImproperAction`] if the action is not proper.
pub fn check_sufficiency<G: GlobalState, P: Probability>(
    pps: &Pps<G, P>,
    agent: AgentId,
    action: ActionId,
    fact: &dyn Fact<G, P>,
    p: &P,
) -> Result<SufficiencyReport<P>, AnalysisError> {
    let (analysis, independence) = analyse(pps, agent, action, fact)?;
    let independent = independence.independent;
    let min_belief = analysis
        .min_belief_when_acting()
        .expect("proper actions are performed at least once");
    let constraint_probability = analysis.constraint_probability();
    let premise = independent && min_belief.at_least(p);
    let implication_holds = !premise || constraint_probability.at_least(p);
    Ok(SufficiencyReport {
        independent,
        min_belief,
        constraint_probability,
        holds_at: p.clone(),
        implication_holds,
    })
}

/// Report of a Lemma 5.1 check: if `µ(ϕ@α | α) ≥ p` (with independence),
/// then some performance point has `β_i(ϕ) ≥ p`.
#[derive(Debug, Clone)]
pub struct NecessityReport<P> {
    /// Whether the independence premise holds.
    pub independent: bool,
    /// `µ(ϕ@α | α)`.
    pub constraint_probability: P,
    /// The maximum belief at any performance point.
    pub max_belief: P,
    /// A performance point witnessing `β_i(ϕ) ≥ p`, if one exists.
    pub witness: Option<Point>,
    /// Whether the lemma's implication holds at the given threshold.
    pub implication_holds: bool,
}

/// Checks Lemma 5.1 at threshold `p`.
///
/// # Errors
///
/// Returns [`AnalysisError::ImproperAction`] if the action is not proper.
pub fn check_necessity<G: GlobalState, P: Probability>(
    pps: &Pps<G, P>,
    agent: AgentId,
    action: ActionId,
    fact: &dyn Fact<G, P>,
    p: &P,
) -> Result<NecessityReport<P>, AnalysisError> {
    let (analysis, independence) = analyse(pps, agent, action, fact)?;
    let independent = independence.independent;
    let constraint_probability = analysis.constraint_probability();
    let max_belief = analysis
        .max_belief_when_acting()
        .expect("proper actions are performed at least once");
    let witness = analysis
        .runs()
        .iter()
        .find(|rb| rb.belief.at_least(p))
        .map(|rb| rb.point);
    let premise = independent && constraint_probability.at_least(p);
    let implication_holds = !premise || witness.is_some();
    Ok(NecessityReport {
        independent,
        constraint_probability,
        max_belief,
        witness,
        implication_holds,
    })
}

/// Report of a Theorem 6.2 check — the paper's main theorem:
/// `µ(ϕ@α | α) = E[β_i(ϕ)@α | α]` under local-state independence.
#[derive(Debug, Clone)]
pub struct ExpectationReport<P> {
    /// The independence check, with any violating local state.
    pub independence: IndependenceReport<P>,
    /// The left-hand side `µ(ϕ@α | α)`.
    pub lhs: P,
    /// The right-hand side `E[β_i(ϕ)@α | α]`.
    pub rhs: P,
    /// Whether the equality holds (exact for `Rational`).
    pub equal: bool,
}

impl<P: Probability> ExpectationReport<P> {
    /// Whether the theorem's implication holds: either the premise fails or
    /// the equality does hold.
    #[must_use]
    pub fn implication_holds(&self) -> bool {
        !self.independence.independent || self.equal
    }
}

/// Checks Theorem 6.2 (the expectation theorem).
///
/// # Errors
///
/// Returns [`AnalysisError::ImproperAction`] if the action is not proper.
///
/// # Examples
///
/// ```
/// use pak_core::prelude::*;
/// use pak_core::theorems::check_expectation;
/// use pak_num::Rational;
///
/// // A deterministic action: independence is guaranteed (Lemma 4.3a), so
/// // the expectation theorem must hold exactly.
/// let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
/// let g0 = b.initial(SimpleState::zeroed(1), Rational::one())?;
/// let mid = b.child(g0, SimpleState::zeroed(1), Rational::one(), &[(AgentId(0), ActionId(0))])?;
/// b.child(mid, SimpleState::new(1, vec![0]), Rational::from_ratio(1, 3), &[])?;
/// b.child(mid, SimpleState::new(2, vec![0]), Rational::from_ratio(2, 3), &[])?;
/// let pps = b.build()?;
///
/// let phi = StateFact::<SimpleState>::new("env=1 eventually", |g| g.env == 1);
/// let report = check_expectation(&pps, AgentId(0), ActionId(0), &phi).unwrap();
/// assert!(report.independence.independent);
/// assert!(report.equal);
/// # Ok::<(), PpsError>(())
/// ```
pub fn check_expectation<G: GlobalState, P: Probability>(
    pps: &Pps<G, P>,
    agent: AgentId,
    action: ActionId,
    fact: &dyn Fact<G, P>,
) -> Result<ExpectationReport<P>, AnalysisError> {
    let (analysis, independence) = analyse(pps, agent, action, fact)?;
    let lhs = analysis.constraint_probability();
    let rhs = analysis.expected_belief();
    let equal = lhs.approx_eq(&rhs);
    Ok(ExpectationReport {
        independence,
        lhs,
        rhs,
        equal,
    })
}

/// Report of a Theorem 7.1 / Corollary 7.2 check: if
/// `µ(ϕ@α | α) ≥ 1 − δε`, then `µ(β_i(ϕ)@α ≥ 1 − ε | α) ≥ 1 − δ`.
#[derive(Debug, Clone)]
pub struct PakReport<P> {
    /// Whether the independence premise holds.
    pub independent: bool,
    /// `µ(ϕ@α | α)`.
    pub constraint_probability: P,
    /// The premise threshold `1 − δε`.
    pub premise_threshold: P,
    /// Whether the premise `µ(ϕ@α | α) ≥ 1 − δε` holds.
    pub premise_holds: bool,
    /// `µ(β_i(ϕ)@α ≥ 1 − ε | α)`.
    pub strong_belief_measure: P,
    /// The conclusion threshold `1 − δ`.
    pub conclusion_threshold: P,
    /// Whether the implication holds.
    pub implication_holds: bool,
}

/// Checks Theorem 7.1 for parameters `δ` (probability slack) and `ε`
/// (belief slack).
///
/// # Errors
///
/// Returns [`AnalysisError::ImproperAction`] if the action is not proper.
pub fn check_pak<G: GlobalState, P: Probability>(
    pps: &Pps<G, P>,
    agent: AgentId,
    action: ActionId,
    fact: &dyn Fact<G, P>,
    delta: &P,
    eps: &P,
) -> Result<PakReport<P>, AnalysisError> {
    let (analysis, independence) = analyse(pps, agent, action, fact)?;
    let independent = independence.independent;
    let constraint_probability = analysis.constraint_probability();
    let premise_threshold = delta.mul(eps).one_minus();
    let premise_holds = independent && constraint_probability.at_least(&premise_threshold);
    let strong_belief_measure = analysis.threshold_measure(&eps.one_minus());
    let conclusion_threshold = delta.one_minus();
    let implication_holds = !premise_holds || strong_belief_measure.at_least(&conclusion_threshold);
    Ok(PakReport {
        independent,
        constraint_probability,
        premise_threshold,
        premise_holds,
        strong_belief_measure,
        conclusion_threshold,
        implication_holds,
    })
}

/// Checks Corollary 7.2 — Theorem 7.1 with `δ = ε`: if
/// `µ(ϕ@α | α) ≥ 1 − ε²` then `µ(β ≥ 1 − ε | α) ≥ 1 − ε`
/// ("probably approximately knowing").
///
/// # Errors
///
/// Returns [`AnalysisError::ImproperAction`] if the action is not proper.
pub fn check_pak_corollary<G: GlobalState, P: Probability>(
    pps: &Pps<G, P>,
    agent: AgentId,
    action: ActionId,
    fact: &dyn Fact<G, P>,
    eps: &P,
) -> Result<PakReport<P>, AnalysisError> {
    check_pak(pps, agent, action, fact, eps, eps)
}

/// Report of a Lemma F.1 check (the Knowledge-of-Preconditions limit):
/// if `µ(ϕ@α | α) = 1` then the agent believes `ϕ` with probability 1 at
/// every performance point.
#[derive(Debug, Clone)]
pub struct KopLimitReport<P> {
    /// Whether the independence premise holds.
    pub independent: bool,
    /// `µ(ϕ@α | α)`.
    pub constraint_probability: P,
    /// `µ(β_i(ϕ)@α = 1 | α)`.
    pub certainty_measure: P,
    /// Whether the implication holds.
    pub implication_holds: bool,
}

/// Checks Lemma F.1.
///
/// # Errors
///
/// Returns [`AnalysisError::ImproperAction`] if the action is not proper.
pub fn check_kop_limit<G: GlobalState, P: Probability>(
    pps: &Pps<G, P>,
    agent: AgentId,
    action: ActionId,
    fact: &dyn Fact<G, P>,
) -> Result<KopLimitReport<P>, AnalysisError> {
    let (analysis, independence) = analyse(pps, agent, action, fact)?;
    let independent = independence.independent;
    let constraint_probability = analysis.constraint_probability();
    let certainty_measure = analysis.threshold_measure(&P::one());
    let premise = independent && constraint_probability.is_one();
    let implication_holds = !premise || certainty_measure.is_one();
    Ok(KopLimitReport {
        independent,
        constraint_probability,
        certainty_measure,
        implication_holds,
    })
}

/// The PAK frontier transform of Corollary 7.2's closing remark: to satisfy
/// a constraint with threshold `p`, the condition must be believed with
/// degree ≥ `p′` with probability ≥ `p′`, where `p′ = 1 − √(1 − p)`.
///
/// Exact square roots are not generally rational, so the frontier is
/// computed in `f64`.
///
/// # Examples
///
/// ```
/// use pak_core::theorems::pak_frontier;
/// assert!((pak_frontier(0.99) - 0.9).abs() < 1e-12);
/// assert_eq!(pak_frontier(1.0), 1.0);
/// ```
#[must_use]
pub fn pak_frontier(p: f64) -> f64 {
    1.0 - (1.0 - p).max(0.0).sqrt()
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

    /// Tˆ(p, ε) from Figure 2 (duplicated small helper; the full
    /// parameterised constructor lives in pak-systems).
    fn theorem52(p: Rational, eps: Rational) -> Pps<SimpleState, Rational> {
        let mut b = PpsBuilder::new(2);
        let s1 = b.initial(st(0, &[0, 1]), p.clone()).unwrap();
        let s0 = b.initial(st(0, &[0, 0]), p.one_minus()).unwrap();
        let alpha = ActionId(0);
        let i = AgentId(0);
        let eps_over_p = &eps / &p;
        let t0 = b.child(s0, st(0, &[1, 0]), Rational::one(), &[]).unwrap();
        let t1m = b
            .child(s1, st(0, &[1, 1]), eps_over_p.one_minus(), &[])
            .unwrap();
        let t1m2 = b.child(s1, st(0, &[2, 1]), eps_over_p, &[]).unwrap();
        b.child(t0, st(0, &[1, 0]), Rational::one(), &[(i, alpha)])
            .unwrap();
        b.child(t1m, st(0, &[1, 1]), Rational::one(), &[(i, alpha)])
            .unwrap();
        b.child(t1m2, st(0, &[2, 1]), Rational::one(), &[(i, alpha)])
            .unwrap();
        b.build().unwrap()
    }

    fn bit_fact() -> StateFact<SimpleState> {
        StateFact::new("bit=1", |g: &SimpleState| g.locals[1] == 1)
    }

    #[test]
    fn expectation_theorem_on_theorem52_family() {
        for (p, e) in [
            (r(3, 4), r(1, 4)),
            (r(9, 10), r(1, 100)),
            (r(1, 2), r(1, 3)),
        ] {
            let pps = theorem52(p.clone(), e);
            let rep = check_expectation(&pps, AgentId(0), ActionId(0), &bit_fact()).unwrap();
            assert!(rep.independence.independent);
            assert!(rep.equal, "lhs={} rhs={}", rep.lhs, rep.rhs);
            assert_eq!(rep.lhs, p);
            assert!(rep.implication_holds());
        }
    }

    #[test]
    fn expectation_fails_without_independence() {
        // Figure 1 with ϕ = does(α): premise fails, equality fails, but the
        // *implication* still holds (vacuously).
        let pps = figure1();
        let phi = DoesFact::new(AgentId(0), ActionId(0));
        let rep = check_expectation(&pps, AgentId(0), ActionId(0), &phi).unwrap();
        assert!(!rep.independence.independent);
        assert!(!rep.equal);
        assert_eq!(rep.lhs, Rational::one());
        assert_eq!(rep.rhs, r(1, 2));
        assert!(rep.implication_holds());
    }

    #[test]
    fn sufficiency_counterexample_is_vacuous() {
        // Figure 1, ψ = ¬does(α), p = ½: belief premise holds but
        // independence fails, so the implication is vacuously true; and
        // indeed µ(ψ@α|α) = 0 < ½ shows the independence premise matters.
        let pps = figure1();
        let psi = NotFact(DoesFact::new(AgentId(0), ActionId(0)));
        let rep = check_sufficiency(&pps, AgentId(0), ActionId(0), &psi, &r(1, 2)).unwrap();
        assert!(!rep.independent);
        assert_eq!(rep.min_belief, r(1, 2));
        assert_eq!(rep.constraint_probability, Rational::zero());
        assert!(rep.implication_holds);
    }

    #[test]
    fn sufficiency_holds_with_independence() {
        let pps = theorem52(r(3, 4), r(1, 4));
        let rep = check_sufficiency(
            &pps,
            AgentId(0),
            ActionId(0),
            &bit_fact(),
            &r(2, 3), // the merged-state belief is exactly 2/3
        )
        .unwrap();
        assert!(rep.independent);
        assert_eq!(rep.min_belief, r(2, 3));
        // min belief ≥ 2/3 and independence ⇒ µ ≥ 2/3; indeed µ = 3/4.
        assert!(rep.implication_holds);
        assert_eq!(rep.constraint_probability, r(3, 4));
    }

    #[test]
    fn necessity_witness_exists() {
        let pps = theorem52(r(3, 4), r(1, 4));
        let rep = check_necessity(&pps, AgentId(0), ActionId(0), &bit_fact(), &r(3, 4)).unwrap();
        assert!(rep.independent);
        assert!(rep.implication_holds);
        // The witness is the m′ run, where belief = 1.
        assert!(rep.witness.is_some());
        assert_eq!(rep.max_belief, Rational::one());
    }

    #[test]
    fn theorem52_threshold_met_rarely() {
        // The Theorem 5.2 *statement*: µ(ϕ@α|α) ≥ p yet µ(β ≥ p|α) = ε.
        let (p, e) = (r(1, 2), r(1, 100));
        let pps = theorem52(p.clone(), e.clone());
        let a = ActionAnalysis::new(&pps, AgentId(0), ActionId(0), &bit_fact()).unwrap();
        assert_eq!(a.constraint_probability(), p);
        assert_eq!(a.threshold_measure(&p), e);
    }

    #[test]
    fn pak_theorem_on_theorem52() {
        // p = 1 − δε with δ = ε = ½ gives threshold 3/4 = constraint prob.
        let pps = theorem52(r(3, 4), r(1, 8));
        let rep = check_pak(
            &pps,
            AgentId(0),
            ActionId(0),
            &bit_fact(),
            &r(1, 2),
            &r(1, 2),
        )
        .unwrap();
        assert!(rep.premise_holds);
        assert!(rep.implication_holds);
        // Strong-belief measure: β ≥ ½ everywhere here, so measure is 1.
        assert_eq!(rep.strong_belief_measure, Rational::one());
    }

    #[test]
    fn pak_corollary_eps_zero_is_kop() {
        // ε = 0: µ(ϕ@α|α) ≥ 1 ⇒ belief 1 a.s.
        let pps = {
            // A system where ϕ always holds at the action point.
            let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
            let g0 = b.initial(st(1, &[0]), Rational::one()).unwrap();
            b.child(
                g0,
                st(1, &[0]),
                Rational::one(),
                &[(AgentId(0), ActionId(0))],
            )
            .unwrap();
            b.build().unwrap()
        };
        let phi = StateFact::<SimpleState>::new("env=1", |g| g.env == 1);
        let rep = check_kop_limit(&pps, AgentId(0), ActionId(0), &phi).unwrap();
        assert!(rep.independent);
        assert!(rep.constraint_probability.is_one());
        assert!(rep.certainty_measure.is_one());
        assert!(rep.implication_holds);
    }

    #[test]
    fn pak_frontier_values() {
        assert!((pak_frontier(0.99) - 0.9).abs() < 1e-12);
        assert!((pak_frontier(0.75) - 0.5).abs() < 1e-12);
        assert_eq!(pak_frontier(0.0), 0.0);
        assert_eq!(pak_frontier(1.0), 1.0);
    }

    #[test]
    fn pak_premise_fails_gracefully() {
        // Constraint prob = ½ < 1 − δε for small δ, ε: premise fails,
        // implication vacuous.
        let pps = theorem52(r(1, 2), r(1, 4));
        let rep = check_pak(
            &pps,
            AgentId(0),
            ActionId(0),
            &bit_fact(),
            &r(1, 10),
            &r(1, 10),
        )
        .unwrap();
        assert!(!rep.premise_holds);
        assert!(rep.implication_holds);
    }
}
