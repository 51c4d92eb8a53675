//! Subjective probabilistic beliefs (§3).
//!
//! Agent `i`'s degree of belief in a fact `ϕ` at a point `(r, t)` is the
//! posterior probability obtained by conditioning the prior `µ_T` on `i`'s
//! local state `ℓ = r_i(t)`:
//!
//! ```text
//! β_i(ϕ)  at (r, t)   :=   µ_T(ϕ@ℓ | ℓ)
//! ```
//!
//! (Definition 3.1). Because every local state in a pps has positive
//! measure, the posterior is always well defined. This is the `P_post`
//! notion of Halpern–Tuttle, as the paper notes.

use std::collections::HashMap;

use crate::error::AnalysisError;
use crate::fact::{Fact, Facts};
use crate::ids::{ActionId, AgentId, CellId, Point, RunId};
use crate::pps::Pps;
use crate::prob::Probability;
use crate::state::GlobalState;

/// Belief-evaluation methods on a pps.
///
/// # Examples
///
/// ```
/// use pak_core::prelude::*;
///
/// // One agent; a hidden fair coin is flipped before time 0. The agent's
/// // local state (0 in both cases) reveals nothing.
/// let mut b = PpsBuilder::<SimpleState, f64>::new(1);
/// b.initial(SimpleState::new(1, vec![0]), 0.5)?; // heads, hidden
/// b.initial(SimpleState::new(2, vec![0]), 0.5)?; // tails, hidden
/// let pps = b.build()?;
///
/// let heads = StateFact::<SimpleState>::new("heads", |g| g.env == 1);
/// // With no information, the posterior equals the prior: ½.
/// let belief = pps
///     .belief(AgentId(0), &heads, Point { run: RunId(0), time: 0 })
///     .unwrap();
/// assert_eq!(belief, 0.5);
/// # Ok::<(), PpsError>(())
/// ```
pub trait Beliefs<G: GlobalState, P: Probability> {
    /// `β_i(ϕ)` at a point: the agent's posterior degree of belief in `ϕ`
    /// given its local state there (Definition 3.1).
    ///
    /// Returns `None` if the run has ended before `point.time`.
    fn belief(&self, agent: AgentId, fact: &dyn Fact<G, P>, point: Point) -> Option<P>;

    /// `µ_T(ϕ@ℓ | ℓ)` for the local state of `cell` — the belief shared by
    /// every point of the cell.
    fn belief_in_cell(&self, fact: &dyn Fact<G, P>, cell: CellId) -> P;

    /// The random variable `(β_i(ϕ)@α)[r]`: the agent's belief in `ϕ` at
    /// the point of `run` where it performs the proper action `action`, or
    /// zero if the action is not performed in `run` (the paper's
    /// convention, §3.1).
    fn belief_at_action(
        &self,
        agent: AgentId,
        action: ActionId,
        fact: &dyn Fact<G, P>,
        run: RunId,
    ) -> P;
}

impl<G: GlobalState, P: Probability> Beliefs<G, P> for Pps<G, P> {
    fn belief(&self, agent: AgentId, fact: &dyn Fact<G, P>, point: Point) -> Option<P> {
        let cell = self.cell_at(agent, point)?;
        Some(self.belief_in_cell(fact, cell))
    }

    fn belief_in_cell(&self, fact: &dyn Fact<G, P>, cell: CellId) -> P {
        // Borrow the cell's run-set straight out of the index instead of
        // cloning it through `cell_event` — conditioning only reads it.
        let l_event = self.cell_runs(cell);
        let phi_at_l = self.fact_at_cell(fact, cell);
        self.conditional(&phi_at_l, l_event)
            .expect("every local state in a pps has positive measure")
    }

    fn belief_at_action(
        &self,
        agent: AgentId,
        action: ActionId,
        fact: &dyn Fact<G, P>,
        run: RunId,
    ) -> P {
        match self.action_point(agent, action, run) {
            None => P::zero(),
            Some(pt) => self
                .belief(agent, fact, pt)
                .expect("action point lies within the run"),
        }
    }
}

/// A complete analysis of one `(agent, action, fact)` triple over a pps.
///
/// Constructing the analysis verifies that the action is *proper* (§3.1) and
/// precomputes the per-run belief values `β_i(ϕ)@α`, the action event
/// `R_α`, and the event `ϕ@α`. All the quantities of §§4–7 are then
/// available as cheap accessors:
///
/// * [`constraint_probability`](ActionAnalysis::constraint_probability) —
///   `µ_T(ϕ@α | α)`,
/// * [`expected_belief`](ActionAnalysis::expected_belief) —
///   `E_µ(β_i(ϕ)@α | α)` (Definition 6.1),
/// * [`threshold_measure`](ActionAnalysis::threshold_measure) —
///   `µ_T(β_i(ϕ)@α ≥ q | α)`,
/// * [`min_belief_when_acting`](ActionAnalysis::min_belief_when_acting).
///
/// # Examples
///
/// ```
/// use pak_core::prelude::*;
/// use pak_num::Rational;
///
/// // Figure 1 of the paper: mixed action α/α′, ψ = ¬does(α).
/// let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
/// let g0 = b.initial(SimpleState::zeroed(1), Rational::one())?;
/// let (i, alpha, alpha2) = (AgentId(0), ActionId(0), ActionId(1));
/// b.child(g0, SimpleState::zeroed(1), Rational::from_ratio(1, 2), &[(i, alpha)])?;
/// b.child(g0, SimpleState::zeroed(1), Rational::from_ratio(1, 2), &[(i, alpha2)])?;
/// let pps = b.build()?;
///
/// let psi = NotFact(DoesFact::new(i, alpha));
/// let a = ActionAnalysis::new(&pps, i, alpha, &psi).unwrap();
/// // µ(ψ@α | α) = 0 — ψ is false whenever α is performed…
/// assert!(a.constraint_probability().is_zero());
/// // …yet the agent's belief in ψ when acting is ½ (the mixed step).
/// assert_eq!(a.min_belief_when_acting(), Some(Rational::from_ratio(1, 2)));
/// # Ok::<(), PpsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ActionAnalysis<P> {
    agent: AgentId,
    action: ActionId,
    fact_label: String,
    /// µ_T(R_α).
    action_measure: P,
    /// µ_T(ϕ@α).
    fact_at_action_measure: P,
    /// Per run in R_α: (run, µ_T(r), β_i(ϕ)@α[r], ϕ holds at action point).
    per_run: Vec<RunBelief<P>>,
    /// The cells `L_i[α]`.
    action_cells: Vec<CellId>,
}

/// Per-run data of an [`ActionAnalysis`].
#[derive(Debug, Clone)]
pub struct RunBelief<P> {
    /// The run (a member of `R_α`).
    pub run: RunId,
    /// The prior probability `µ_T(r)`.
    pub prob: P,
    /// The belief `β_i(ϕ)@α[r]`.
    pub belief: P,
    /// Whether `ϕ` holds at the point where the action is performed.
    pub fact_holds: bool,
    /// The point at which the action is performed.
    pub point: Point,
}

impl<P: Probability> ActionAnalysis<P> {
    /// Analyses the triple, verifying the action is proper.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ImproperAction`] if `action` is never
    /// performed by `agent`, or performed more than once in some run.
    pub fn new<G: GlobalState>(
        pps: &Pps<G, P>,
        agent: AgentId,
        action: ActionId,
        fact: &dyn Fact<G, P>,
    ) -> Result<Self, AnalysisError> {
        // One walk over the runs checks properness and finds each acting
        // point. Beliefs are constant across a local-state cell
        // (Definition 3.1), so the posterior is evaluated once per cell and
        // shared across all runs acting from that cell; a cell enters
        // `L_i[α]` when the walk first meets it.
        let mut cell_beliefs: HashMap<CellId, P> = HashMap::new();
        let mut action_cells = Vec::new();
        let mut per_run = Vec::new();
        let mut action_measure = P::zero();
        let mut fact_at_action_measure = P::zero();
        pps.for_each_action_point(agent, action, |point| {
            let cell = pps
                .cell_at(agent, point)
                .expect("action point lies within the run");
            let belief = cell_beliefs
                .entry(cell)
                .or_insert_with(|| {
                    action_cells.push(cell);
                    pps.belief_in_cell(fact, cell)
                })
                .clone();
            let prob = pps.run_probability(point.run).clone();
            let fact_holds = fact.holds(pps, point);
            action_measure.add_assign(&prob);
            if fact_holds {
                fact_at_action_measure.add_assign(&prob);
            }
            per_run.push(RunBelief {
                run: point.run,
                prob,
                belief,
                fact_holds,
                point,
            });
        })?;

        Ok(ActionAnalysis {
            agent,
            action,
            fact_label: fact.label(),
            action_measure,
            fact_at_action_measure,
            per_run,
            action_cells,
        })
    }

    /// The acting agent.
    #[must_use]
    pub fn agent(&self) -> AgentId {
        self.agent
    }

    /// The analysed action.
    #[must_use]
    pub fn action(&self) -> ActionId {
        self.action
    }

    /// The label of the analysed fact.
    #[must_use]
    pub fn fact_label(&self) -> &str {
        &self.fact_label
    }

    /// `µ_T(R_α)`: the prior probability that the action is performed.
    #[must_use]
    pub fn action_measure(&self) -> &P {
        &self.action_measure
    }

    /// `µ_T(ϕ@α | α)`: the probability that the condition holds when the
    /// action is performed — the left-hand side of a probabilistic
    /// constraint (Definition 3.2).
    #[must_use]
    pub fn constraint_probability(&self) -> P {
        self.fact_at_action_measure.div(&self.action_measure)
    }

    /// Whether the probabilistic constraint `µ_T(ϕ@α | α) ≥ p` is
    /// satisfied.
    #[must_use]
    pub fn satisfies_constraint(&self, p: &P) -> bool {
        self.constraint_probability().at_least(p)
    }

    /// `E_µ(β_i(ϕ)@α | α)`: the expected degree of belief when acting
    /// (Definition 6.1).
    #[must_use]
    pub fn expected_belief(&self) -> P {
        let mut acc = P::zero();
        for rb in &self.per_run {
            acc.add_assign(&rb.prob.mul(&rb.belief));
        }
        acc.div(&self.action_measure)
    }

    /// `µ_T(β_i(ϕ)@α ≥ q | α)`: the measure of runs, conditioned on the
    /// action being performed, in which the belief when acting meets the
    /// threshold `q`.
    #[must_use]
    pub fn threshold_measure(&self, q: &P) -> P {
        let mut acc = P::zero();
        for rb in &self.per_run {
            if rb.belief.at_least(q) {
                acc.add_assign(&rb.prob);
            }
        }
        acc.div(&self.action_measure)
    }

    /// The minimum belief over all points where the action is performed, or
    /// `None` if the action is never performed (impossible for proper
    /// actions).
    #[must_use]
    pub fn min_belief_when_acting(&self) -> Option<P> {
        self.per_run
            .iter()
            .map(|rb| rb.belief.clone())
            .reduce(|a, b| if b.at_least(&a) { a } else { b })
    }

    /// The maximum belief over all points where the action is performed.
    #[must_use]
    pub fn max_belief_when_acting(&self) -> Option<P> {
        self.per_run
            .iter()
            .map(|rb| rb.belief.clone())
            .reduce(|a, b| if a.at_least(&b) { a } else { b })
    }

    /// The per-run belief records (each run of `R_α` exactly once).
    #[must_use]
    pub fn runs(&self) -> &[RunBelief<P>] {
        &self.per_run
    }

    /// The distinct belief values when acting, with the conditional measure
    /// of the runs attaining each, sorted ascending by belief.
    #[must_use]
    pub fn belief_distribution(&self) -> Vec<(P, P)> {
        let mut entries: Vec<(P, P)> = Vec::new();
        for rb in &self.per_run {
            let cond = rb.prob.div(&self.action_measure);
            match entries.iter_mut().find(|(b, _)| b.approx_eq(&rb.belief)) {
                Some((_, m)) => m.add_assign(&cond),
                None => entries.push((rb.belief.clone(), cond)),
            }
        }
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("belief values are ordered"));
        entries
    }

    /// The set of local states `L_i[α]` at which the action is performed.
    #[must_use]
    pub fn action_cells(&self) -> &[CellId] {
        &self.action_cells
    }

    /// The §8 frontier: what the agent could achieve by *refraining* from
    /// the action at low-belief information states.
    ///
    /// For each distinct belief value `b` attained when acting (descending),
    /// the entry records the policy "act only where `β_i(ϕ) ≥ b`": the
    /// fraction of the original acting measure kept, and the success
    /// probability `µ(ϕ@α | α)` the restricted policy would achieve — by
    /// Theorem 6.2, the belief-weighted average over the kept states.
    ///
    /// The first entry is the safest liveness-reduced policy; the last
    /// (threshold = min belief) is the original behaviour. Success is
    /// non-increasing along the frontier, formalising the paper's §8
    /// observation that acting under low belief reduces success.
    #[must_use]
    pub fn refrain_frontier(&self) -> Vec<FrontierEntry<P>> {
        let dist = self.belief_distribution(); // ascending by belief
        let mut out = Vec::with_capacity(dist.len());
        let mut kept_mass = P::zero();
        let mut kept_weighted = P::zero();
        for (belief, measure) in dist.into_iter().rev() {
            kept_mass.add_assign(&measure);
            kept_weighted.add_assign(&measure.mul(&belief));
            out.push(FrontierEntry {
                belief_threshold: belief,
                kept_action_measure: kept_mass.clone(),
                success: kept_weighted.div(&kept_mass),
            });
        }
        out
    }
}

/// One point of the [`ActionAnalysis::refrain_frontier`]: the outcome of
/// acting only at information states with belief at least
/// `belief_threshold`.
#[derive(Debug, Clone)]
pub struct FrontierEntry<P> {
    /// The belief cutoff defining the restricted policy.
    pub belief_threshold: P,
    /// The fraction of the original conditional acting measure kept.
    pub kept_action_measure: P,
    /// `µ(ϕ@α | α)` of the restricted policy (by Theorem 6.2, the
    /// belief-weighted average over kept states).
    pub success: P,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AnalysisError;
    use crate::fact::{DoesFact, NotFact, StateFact, TrueFact};
    use crate::pps::PpsBuilder;
    use crate::state::SimpleState;
    use pak_num::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    fn st(env: u64, locals: &[u64]) -> SimpleState {
        SimpleState::new(env, locals.to_vec())
    }

    /// Figure 1 of the paper.
    fn figure1() -> Pps<SimpleState, Rational> {
        let mut b = PpsBuilder::new(1);
        let g0 = b.initial(st(0, &[0]), Rational::one()).unwrap();
        b.child(g0, st(0, &[1]), r(1, 2), &[(AgentId(0), ActionId(0))])
            .unwrap();
        b.child(g0, st(0, &[2]), r(1, 2), &[(AgentId(0), ActionId(1))])
            .unwrap();
        b.build().unwrap()
    }

    /// The Theorem 5.2 system Tˆ(p, ε) from Figure 2.
    fn theorem52(p: Rational, eps: Rational) -> Pps<SimpleState, Rational> {
        let mut b = PpsBuilder::new(2);
        // Agent 0 = i (the actor), agent 1 = j (holds `bit`).
        // Initial: bit=1 w.p. p, bit=0 w.p. 1−p. Locals: [i_data, j_bit].
        let s1 = b.initial(st(0, &[0, 1]), p.clone()).unwrap();
        let s0 = b.initial(st(0, &[0, 0]), p.one_minus()).unwrap();
        // Round 1: j sends m_j or m'_j; i's local records the message (1=m, 2=m').
        // From s0 (bit=0): j sends m_j surely.
        let alpha = ActionId(0);
        let i = AgentId(0);
        let t0 = b.child(s0, st(0, &[1, 0]), Rational::one(), &[]).unwrap();
        // From s1 (bit=1): m_j w.p. 1−ε/p, m'_j w.p. ε/p.
        let eps_over_p = &eps / &p;
        let t1m = b
            .child(s1, st(0, &[1, 1]), eps_over_p.one_minus(), &[])
            .unwrap();
        let t1m2 = b.child(s1, st(0, &[2, 1]), eps_over_p, &[]).unwrap();
        // Round 2: i unconditionally performs α.
        b.child(t0, st(0, &[1, 0]), Rational::one(), &[(i, alpha)])
            .unwrap();
        b.child(t1m, st(0, &[1, 1]), Rational::one(), &[(i, alpha)])
            .unwrap();
        b.child(t1m2, st(0, &[2, 1]), Rational::one(), &[(i, alpha)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn improper_action_rejected() {
        let pps = figure1();
        let err = ActionAnalysis::new(&pps, AgentId(0), ActionId(9), &TrueFact).unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::ImproperAction {
                never_performed: true,
                ..
            }
        ));
    }

    #[test]
    fn figure1_sufficiency_counterexample_quantities() {
        // §4: ψ = ¬does(α). β_i(ψ) = ½ whenever α is performed, yet
        // µ(ψ@α | α) = 0.
        let pps = figure1();
        let psi = NotFact(DoesFact::new(AgentId(0), ActionId(0)));
        let a = ActionAnalysis::new(&pps, AgentId(0), ActionId(0), &psi).unwrap();
        assert_eq!(a.constraint_probability(), Rational::zero());
        assert_eq!(a.min_belief_when_acting(), Some(r(1, 2)));
        assert_eq!(a.max_belief_when_acting(), Some(r(1, 2)));
        assert!(!a.satisfies_constraint(&r(1, 2)));
    }

    #[test]
    fn figure1_expectation_counterexample_quantities() {
        // §6: ϕ = does(α). µ(ϕ@α | α) = 1 but E[β@α | α] = ½.
        let pps = figure1();
        let phi = DoesFact::new(AgentId(0), ActionId(0));
        let a = ActionAnalysis::new(&pps, AgentId(0), ActionId(0), &phi).unwrap();
        assert_eq!(a.constraint_probability(), Rational::one());
        assert_eq!(a.expected_belief(), r(1, 2));
    }

    #[test]
    fn theorem52_exact_quantities() {
        // p = 3/4, ε = 1/4: µ(ϕ@α|α) = p; µ(β ≥ p | α) = ε;
        // merged-state belief = (p−ε)/(1−ε).
        let (p, eps) = (r(3, 4), r(1, 4));
        let pps = theorem52(p.clone(), eps.clone());
        let bit_is_one = StateFact::<SimpleState>::new("bit=1", |g| g.locals[1] == 1);
        let a = ActionAnalysis::new(&pps, AgentId(0), ActionId(0), &bit_is_one).unwrap();

        assert_eq!(a.constraint_probability(), p);
        assert_eq!(a.threshold_measure(&p), eps);
        let merged = (&p - &eps) / eps.one_minus();
        assert_eq!(a.min_belief_when_acting(), Some(merged));
        assert_eq!(a.max_belief_when_acting(), Some(Rational::one()));
        // Theorem 6.2 instance: E[β@α|α] = µ(ϕ@α|α).
        assert_eq!(a.expected_belief(), a.constraint_probability());
    }

    #[test]
    fn belief_distribution_sums_to_one() {
        let (p, eps) = (r(9, 10), r(1, 10));
        let pps = theorem52(p, eps);
        let phi = StateFact::<SimpleState>::new("bit=1", |g| g.locals[1] == 1);
        let a = ActionAnalysis::new(&pps, AgentId(0), ActionId(0), &phi).unwrap();
        let dist = a.belief_distribution();
        let total: Rational = dist.iter().map(|(_, m)| m.clone()).sum();
        assert_eq!(total, Rational::one());
        // Two distinct belief values: (p−ε)/(1−ε) and 1.
        assert_eq!(dist.len(), 2);
        assert!(dist[0].0 < dist[1].0);
    }

    #[test]
    fn belief_is_cell_constant() {
        let pps = theorem52(r(1, 2), r(1, 4));
        let phi = StateFact::<SimpleState>::new("bit=1", |g| g.locals[1] == 1);
        for (cell_id, cell) in pps.cells() {
            if cell.agent != AgentId(0) {
                continue;
            }
            let expected = pps.belief_in_cell(&phi, cell_id);
            for pt in pps.cell_points(cell) {
                assert_eq!(pps.belief(AgentId(0), &phi, pt), Some(expected.clone()));
            }
        }
    }

    #[test]
    fn belief_of_tautology_is_one() {
        let pps = figure1();
        for pt in pps.points().collect::<Vec<_>>() {
            let b = pps.belief(AgentId(0), &TrueFact, pt).unwrap();
            assert_eq!(b, Rational::one());
        }
    }

    #[test]
    fn belief_at_action_zero_convention() {
        let pps = figure1();
        // Run 1 performs α′, not α: the random variable is 0 there.
        let phi = TrueFact;
        let alpha_runs = pps.action_event(AgentId(0), ActionId(0));
        for run in pps.run_ids() {
            let v = pps.belief_at_action(AgentId(0), ActionId(0), &phi, run);
            if alpha_runs.contains(run) {
                assert_eq!(v, Rational::one());
            } else {
                assert_eq!(v, Rational::zero());
            }
        }
    }

    #[test]
    fn refrain_frontier_is_monotone_and_anchored() {
        // On Tˆ(3/4, 1/4): beliefs are {2/3 (mass 3/4), 1 (mass 1/4)}.
        let pps = theorem52(r(3, 4), r(1, 4));
        let phi = StateFact::<SimpleState>::new("bit=1", |g: &SimpleState| g.locals[1] == 1);
        let a = ActionAnalysis::new(&pps, AgentId(0), ActionId(0), &phi).unwrap();
        let frontier = a.refrain_frontier();
        assert_eq!(frontier.len(), 2);
        // Safest restriction: act only at the certain state.
        assert_eq!(frontier[0].belief_threshold, Rational::one());
        assert_eq!(frontier[0].kept_action_measure, r(1, 4));
        assert_eq!(frontier[0].success, Rational::one());
        // Full policy: reproduces the unrestricted analysis exactly.
        assert_eq!(frontier[1].kept_action_measure, Rational::one());
        assert_eq!(frontier[1].success, a.constraint_probability());
        // §8 monotonicity: success never increases as more states act.
        assert!(frontier[0].success >= frontier[1].success);
    }

    #[test]
    fn refrain_frontier_single_belief_value() {
        let pps = figure1();
        let a = ActionAnalysis::new(&pps, AgentId(0), ActionId(0), &TrueFact).unwrap();
        let frontier = a.refrain_frontier();
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier[0].kept_action_measure, Rational::one());
    }

    #[test]
    fn accessors() {
        let pps = figure1();
        let a = ActionAnalysis::new(&pps, AgentId(0), ActionId(0), &TrueFact).unwrap();
        assert_eq!(a.agent(), AgentId(0));
        assert_eq!(a.action(), ActionId(0));
        assert_eq!(a.fact_label(), "⊤");
        assert_eq!(a.action_measure(), &r(1, 2));
        assert_eq!(a.runs().len(), 1);
        // L_i[α] is the merged time-0 cell, where the mixed choice is made.
        assert_eq!(a.action_cells().len(), 1);
        assert_eq!(pps.cell(a.action_cells()[0]).time, 0);
    }
}
