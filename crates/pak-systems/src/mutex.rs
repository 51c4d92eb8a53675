//! Relaxed (probabilistic) mutual exclusion.
//!
//! The paper's introduction motivates probabilistic constraints with a
//! relaxed ME specification: *upon entry to the critical section, the
//! section should be empty with high probability* rather than always. This
//! module models the simplest non-trivial such scenario:
//!
//! * The environment decides at time 0 whether the critical section is
//!   occupied by a background process (probability `busy_prob`), hidden
//!   from the agents.
//! * Each agent receives an independent, noisy *free/busy* signal, wrong
//!   with probability `noise`.
//! * An agent enters (action `enter_i`) iff its signal reads *free*.
//!
//! The probabilistic constraint is `µ(empty@enter_i | enter_i) ≥ p`; the
//! analysis exposes the achieved probability (a Bayesian posterior) and the
//! PAK quantities. Entering is deterministic given the local signal, so
//! Lemma 4.3(a) applies and the expectation theorem holds exactly.

use pak_core::belief::ActionAnalysis;
use pak_core::error::AnalysisError;
use pak_core::fact::StateFact;
use pak_core::ids::{ActionId, AgentId, Time};
use pak_core::pps::{Pps, PpsBuilder};
use pak_core::prob::Probability;
use pak_core::state::SimpleState;
use pak_protocol::model::ProtocolModel;

/// The `enter` action of agent `i` is `ENTER_BASE + i`.
pub const ENTER_BASE: u32 = 100;

/// The `enter` action id of an agent.
#[must_use]
pub fn enter_action(agent: AgentId) -> ActionId {
    ActionId(ENTER_BASE + agent.0)
}

/// Local-signal encoding: the agent's local data is `SIG_FREE` or
/// `SIG_BUSY` after sensing (0 before).
const SIG_FREE: u64 = 1;
const SIG_BUSY: u64 = 2;

/// Environment encoding: the critical section is empty (`env = 0`) or
/// occupied (`env = 1`).
const CS_OCCUPIED: u64 = 1;

/// The relaxed mutual-exclusion scenario.
///
/// # Examples
///
/// ```
/// use pak_systems::mutex::RelaxedMutex;
/// use pak_core::ids::AgentId;
/// use pak_num::Rational;
///
/// // CS busy 20% of the time; sensors wrong 5% of the time.
/// let m = RelaxedMutex::new(
///     Rational::from_ratio(1, 5),
///     Rational::from_ratio(1, 20),
///     2,
/// );
/// let analysis = m.analyze(AgentId(0)).unwrap();
/// // P(empty | signal says free) = (0.8·0.95)/(0.8·0.95 + 0.2·0.05) = 76/77.
/// assert_eq!(analysis.constraint_probability(), Rational::from_ratio(76, 77));
/// ```
#[derive(Debug, Clone)]
pub struct RelaxedMutex<P> {
    busy_prob: P,
    noise: P,
    n_agents: u32,
}

impl<P: Probability> RelaxedMutex<P> {
    /// Creates the scenario.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are invalid, degenerate (0 or 1 busy-prob or
    /// noise collapse the branching), or `n_agents == 0`.
    #[must_use]
    pub fn new(busy_prob: P, noise: P, n_agents: u32) -> Self {
        for (name, p) in [("busy_prob", &busy_prob), ("noise", &noise)] {
            assert!(
                p.is_valid_probability() && !p.is_zero() && !p.is_one(),
                "{name} must lie strictly between 0 and 1"
            );
        }
        assert!(n_agents >= 1, "at least one agent required");
        assert!(n_agents <= 8, "exact enumeration supports at most 8 agents");
        RelaxedMutex {
            busy_prob,
            noise,
            n_agents,
        }
    }

    /// The prior over `occupancy × signal vector` initial states — shared
    /// by the hand-built tree and the [`ProtocolModel`] representation.
    fn initial_distribution(&self) -> Vec<(SimpleState, P)> {
        let n = self.n_agents;
        let mut initials: Vec<(SimpleState, P)> = Vec::new();
        for occupied in [false, true] {
            let p_occ = if occupied {
                self.busy_prob.clone()
            } else {
                self.busy_prob.one_minus()
            };
            // Enumerate signal vectors: bit k set = agent k reads BUSY.
            for mask in 0u32..(1 << n) {
                let mut p = p_occ.clone();
                let mut locals = Vec::with_capacity(n as usize);
                for k in 0..n {
                    let reads_busy = (mask >> k) & 1 == 1;
                    let correct = reads_busy == occupied;
                    p = p.mul(&if correct {
                        self.noise.one_minus()
                    } else {
                        self.noise.clone()
                    });
                    locals.push(if reads_busy { SIG_BUSY } else { SIG_FREE });
                }
                let env = u64::from(occupied) * CS_OCCUPIED;
                initials.push((SimpleState::new(env, locals), p));
            }
        }
        initials
    }

    /// Builds the pps: time 0 = sensing done (signals in locals), time 1 =
    /// entry decisions taken.
    #[must_use]
    pub fn build_pps(&self) -> Pps<SimpleState, P> {
        let mut b = PpsBuilder::<SimpleState, P>::new(self.n_agents);
        let n = self.n_agents;
        let initials = self.initial_distribution();
        let mut nodes = Vec::new();
        for (state, p) in initials {
            nodes.push((b.initial(state.clone(), p).expect("valid prior"), state));
        }
        // Time 0 → 1: agents whose signal reads free enter.
        for (node, state) in nodes {
            let actions: Vec<(AgentId, ActionId)> = (0..n)
                .filter(|&k| state.locals[k as usize] == SIG_FREE)
                .map(|k| (AgentId(k), enter_action(AgentId(k))))
                .collect();
            b.child(node, state, P::one(), &actions)
                .expect("valid transition");
        }
        let mut pps = b.build().expect("relaxed mutex is a valid pps");
        for k in 0..n {
            pps.set_action_name(enter_action(AgentId(k)), format!("enter_{k}"));
        }
        pps
    }

    /// The condition: the critical section is empty of the background
    /// process.
    #[must_use]
    pub fn cs_empty() -> StateFact<SimpleState> {
        StateFact::new("CS empty", |g: &SimpleState| g.env != CS_OCCUPIED)
    }

    /// Analysis of `(agent, enter_agent, CS empty)`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ImproperAction`] if the agent never enters
    /// (cannot happen for valid parameters).
    pub fn analyze(&self, agent: AgentId) -> Result<ActionAnalysis<P>, AnalysisError> {
        let pps = self.build_pps();
        ActionAnalysis::new(&pps, agent, enter_action(agent), &Self::cs_empty())
    }

    /// The Bayesian posterior `P(empty | signal reads free)` in closed form
    /// — the value the analysis must reproduce.
    #[must_use]
    pub fn posterior_empty_given_free(&self) -> P {
        let free = self.busy_prob.one_minus();
        let num = free.mul(&self.noise.one_minus());
        let den = num.add(&self.busy_prob.mul(&self.noise));
        num.div(&den)
    }
}

/// The relaxed-mutex scenario is itself a [`ProtocolModel`]: each agent's
/// local data is its sensed signal, and at time 0 an agent enters iff the
/// signal reads free, over the same `occupancy × signals` prior the
/// hand-built tree enumerates. Unfolding it reproduces
/// [`RelaxedMutex::build_pps`] exactly (proved by
/// `tests/systems_unfold_smoke.rs`).
impl<P: Probability> ProtocolModel<P> for RelaxedMutex<P> {
    type Global = SimpleState;
    type Move = Option<ActionId>;

    fn n_agents(&self) -> u32 {
        self.n_agents
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

    fn moves(&self, agent: AgentId, local: &u64, _time: Time, out: &mut Vec<(Self::Move, P)>) {
        let action = (*local == SIG_FREE).then(|| enter_action(agent));
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

#[cfg(test)]
mod tests {
    use super::*;
    use pak_core::fact::Facts;
    use pak_core::theorems::{check_expectation, check_pak_corollary};
    use pak_num::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    fn scenario() -> RelaxedMutex<Rational> {
        RelaxedMutex::new(r(1, 5), r(1, 20), 2)
    }

    #[test]
    fn posterior_matches_closed_form() {
        let m = scenario();
        let a = m.analyze(AgentId(0)).unwrap();
        assert_eq!(a.constraint_probability(), m.posterior_empty_given_free());
        assert_eq!(a.constraint_probability(), r(76, 77));
    }

    #[test]
    fn both_agents_symmetric() {
        let m = scenario();
        let a0 = m.analyze(AgentId(0)).unwrap();
        let a1 = m.analyze(AgentId(1)).unwrap();
        assert_eq!(a0.constraint_probability(), a1.constraint_probability());
    }

    #[test]
    fn belief_when_entering_equals_posterior() {
        // The agent's belief at entry IS the posterior: its local state is
        // exactly the signal.
        let m = scenario();
        let a = m.analyze(AgentId(0)).unwrap();
        assert_eq!(
            a.min_belief_when_acting(),
            Some(m.posterior_empty_given_free())
        );
        assert_eq!(
            a.max_belief_when_acting(),
            Some(m.posterior_empty_given_free())
        );
    }

    #[test]
    fn expectation_theorem_exact() {
        let m = scenario();
        let pps = m.build_pps();
        let rep = check_expectation(
            &pps,
            AgentId(0),
            enter_action(AgentId(0)),
            &RelaxedMutex::<Rational>::cs_empty(),
        )
        .unwrap();
        assert!(rep.independence.independent);
        assert!(rep.equal);
    }

    #[test]
    fn pak_corollary_on_mutex() {
        // 76/77 ≈ 0.987 = 1 − ε² for ε ≈ 0.114: belief ≥ 1 − ε w.p. ≥ 1 − ε.
        let m = scenario();
        let pps = m.build_pps();
        let eps = r(12, 100); // ε with 1 − ε² = 0.9856 ≤ 76/77
        let rep = check_pak_corollary(
            &pps,
            AgentId(0),
            enter_action(AgentId(0)),
            &RelaxedMutex::<Rational>::cs_empty(),
            &eps,
        )
        .unwrap();
        assert!(rep.premise_holds);
        assert!(rep.implication_holds);
    }

    #[test]
    fn enter_deterministic_and_fact_past_based() {
        let m = scenario();
        let pps = m.build_pps();
        assert!(pps.is_deterministic_action(AgentId(0), enter_action(AgentId(0))));
        assert!(pps.is_past_based(&RelaxedMutex::<Rational>::cs_empty()));
    }

    #[test]
    fn noisier_sensors_weaken_the_guarantee() {
        let sharp = RelaxedMutex::new(r(1, 5), r(1, 100), 1);
        let noisy = RelaxedMutex::new(r(1, 5), r(1, 4), 1);
        let pa = sharp.analyze(AgentId(0)).unwrap().constraint_probability();
        let pb = noisy.analyze(AgentId(0)).unwrap().constraint_probability();
        assert!(pa > pb);
    }

    #[test]
    fn single_agent_structure() {
        let m = RelaxedMutex::new(r(1, 2), r(1, 10), 1);
        let pps = m.build_pps();
        // 2 occupancy × 2 signals = 4 initial states, each one run.
        assert_eq!(pps.num_runs(), 4);
        assert!(pps.measure(&pps.all_runs()).is_one());
    }

    #[test]
    #[should_panic(expected = "strictly between 0 and 1")]
    fn degenerate_noise_rejected() {
        let _ = RelaxedMutex::new(r(1, 2), Rational::zero(), 1);
    }

    #[test]
    fn collision_probability_observable() {
        // Both agents enter while CS occupied: measure busy·noise² for 2
        // agents.
        let m = scenario();
        let pps = m.build_pps();
        let both_in_busy = StateFact::new("collision", |g: &SimpleState| {
            g.env == 1 && g.locals.iter().all(|&s| s == 1)
        });
        let ev = pps.fact_event_at_time(&both_in_busy, 0);
        assert_eq!(pps.measure(&ev), r(1, 5) * r(1, 20) * r(1, 20));
    }
}
