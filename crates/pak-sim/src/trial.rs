//! Sampling runs directly from a protocol model.
//!
//! The simulator executes a [`ProtocolModel`] forward — sampling the initial
//! state, each agent's mixed move, and the environment's resolution — and
//! records the trajectory as a [`Trial`]. Unlike unfolding, sampling never
//! materialises the tree, so it scales to systems whose pps would be
//! enormous; it is the workspace's stand-in for "running the distributed
//! system on a testbed".

use pak_core::ids::{ActionId, AgentId, Time};
use pak_core::prob::Probability;
use pak_core::state::GlobalState;
use pak_protocol::model::ProtocolModel;

use crate::rng::SplitMix64;

/// One sampled execution: the state trajectory and the joint actions taken
/// at each time.
#[derive(Debug, Clone)]
pub struct Trial<G> {
    /// `states[t]` is the global state at time `t`.
    pub states: Vec<G>,
    /// `actions[t]` lists the `(agent, action)` pairs performed at time `t`
    /// (the transition from `states[t]` to `states[t+1]`); it has length
    /// `states.len() − 1`.
    pub actions: Vec<Vec<(AgentId, ActionId)>>,
}

impl<G> Trial<G> {
    /// The length of the trial in global states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the trial is empty (never true for valid models).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Whether `agent` performs `action` at time `time`.
    #[must_use]
    pub fn does(&self, agent: AgentId, action: ActionId, time: Time) -> bool {
        self.actions
            .get(time as usize)
            .is_some_and(|acts| acts.iter().any(|&(a, act)| a == agent && act == action))
    }

    /// The first time at which `agent` performs `action`, if any.
    #[must_use]
    pub fn action_time(&self, agent: AgentId, action: ActionId) -> Option<Time> {
        (0..self.actions.len() as u32).find(|&t| self.does(agent, action, t))
    }

    /// How many times `agent` performs `action` in the trial.
    #[must_use]
    pub fn action_count(&self, agent: AgentId, action: ActionId) -> usize {
        (0..self.actions.len() as u32)
            .filter(|&t| self.does(agent, action, t))
            .count()
    }
}

/// A forward sampler over a protocol model.
///
/// # Examples
///
/// ```
/// use pak_sim::trial::Simulator;
/// use pak_protocol::model::{CoinModel, COIN_ACT};
/// use pak_core::ids::AgentId;
///
/// let model = CoinModel { heads_num: 1, heads_den: 2 };
/// let mut sim = Simulator::<_, f64>::new(&model, 42);
/// let trial = sim.sample();
/// assert_eq!(trial.len(), 2); // initial state + one round
/// assert!(trial.does(AgentId(0), COIN_ACT, 0));
/// ```
#[derive(Debug)]
pub struct Simulator<'m, M: ProtocolModel<P>, P: Probability> {
    model: &'m M,
    rng: SplitMix64,
    /// Scratch for per-agent move distributions, cleared and refilled
    /// through [`ProtocolModel::moves`] on every round — sampling
    /// many trials allocates nothing per query.
    moves_buf: Vec<(M::Move, P)>,
    /// Scratch for the environment's successor distribution
    /// ([`ProtocolModel::transition`]).
    outcomes_buf: Vec<(M::Global, P)>,
}

impl<'m, M, P> Simulator<'m, M, P>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    /// Creates a sampler with a deterministic seed.
    #[must_use]
    pub fn new(model: &'m M, seed: u64) -> Self {
        Simulator {
            model,
            rng: SplitMix64::new(seed),
            moves_buf: Vec::new(),
            outcomes_buf: Vec::new(),
        }
    }

    /// Samples one execution.
    ///
    /// # Panics
    ///
    /// Panics if the model emits an empty distribution, or if a trial
    /// exceeds 10⁴ steps without terminating (a model bug).
    pub fn sample(&mut self) -> Trial<M::Global> {
        let initial = self.model.initial_states();
        let state0 = Self::pick(&mut self.rng, &initial);
        let mut states = vec![state0];
        let mut actions = Vec::new();
        let mut time: Time = 0;
        loop {
            let state = states.last().expect("non-empty").clone();
            if self.model.is_terminal(&state, time) {
                break;
            }
            assert!(
                time < 10_000,
                "trial exceeded 10^4 steps without terminating"
            );
            let n = self.model.n_agents();
            let mut joint = Vec::with_capacity(n as usize);
            let mut performed = Vec::new();
            for a in 0..n {
                let agent = AgentId(a);
                let local = state.local(agent);
                self.moves_buf.clear();
                self.model.moves(agent, &local, time, &mut self.moves_buf);
                let mv = Self::pick(&mut self.rng, &self.moves_buf);
                if let Some(act) = self.model.action_of(&mv) {
                    performed.push((agent, act));
                }
                joint.push(mv);
            }
            self.outcomes_buf.clear();
            self.model
                .transition(&state, &joint, time, &mut self.outcomes_buf);
            let next = Self::pick(&mut self.rng, &self.outcomes_buf);
            states.push(next);
            actions.push(performed);
            time += 1;
        }
        Trial { states, actions }
    }

    /// Samples `n` executions, applying a fold to each.
    pub fn sample_each(&mut self, n: u64, mut f: impl FnMut(&Trial<M::Global>)) {
        for _ in 0..n {
            let t = self.sample();
            f(&t);
        }
    }

    /// Draws one element from a weighted distribution (weights converted to
    /// `f64`; exactness is irrelevant for sampling). An associated function
    /// rather than a method so callers can pick from one scratch buffer
    /// while the RNG lives next to it in `self`.
    fn pick<T: Clone>(rng: &mut SplitMix64, dist: &[(T, P)]) -> T {
        assert!(!dist.is_empty(), "model emitted an empty distribution");
        let total: f64 = dist.iter().map(|(_, p)| p.to_f64()).sum();
        let mut x: f64 = rng.gen_f64() * total;
        for (v, p) in dist {
            x -= p.to_f64();
            if x <= 0.0 {
                return v.clone();
            }
        }
        dist.last().expect("non-empty").0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_num::Rational;
    use pak_protocol::model::{CoinModel, TableModel, COIN_ACT};

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let mut a = Simulator::<_, f64>::new(&model, 7);
        let mut b = Simulator::<_, f64>::new(&model, 7);
        for _ in 0..20 {
            assert_eq!(a.sample().states[0].heads, b.sample().states[0].heads);
        }
    }

    #[test]
    fn sampled_frequencies_approach_model_probabilities() {
        let model = CoinModel {
            heads_num: 9,
            heads_den: 10,
        };
        let mut sim = Simulator::<_, f64>::new(&model, 1);
        let mut heads = 0u64;
        let n = 20_000;
        sim.sample_each(n, |t| {
            if t.states[0].heads {
                heads += 1;
            }
        });
        #[allow(clippy::cast_precision_loss)]
        let freq = heads as f64 / n as f64;
        assert!((freq - 0.9).abs() < 0.01, "freq = {freq}");
    }

    #[test]
    fn trial_action_helpers() {
        let model = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let mut sim = Simulator::<_, Rational>::new(&model, 3);
        let t = sim.sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.action_time(AgentId(0), COIN_ACT), Some(0));
        assert_eq!(t.action_count(AgentId(0), COIN_ACT), 1);
        assert_eq!(t.action_time(AgentId(0), ActionId(9)), None);
    }

    #[test]
    fn mixed_actions_sampled_with_right_frequency() {
        let model: TableModel<f64> = TableModel {
            n_agents: 1,
            initial: vec![(0, vec![0], 1.0)],
            horizon: 1,
            moves: vec![(
                (0, 0, 0),
                vec![(Some(ActionId(0)), 0.25), (Some(ActionId(1)), 0.75)],
            )],
            transitions: vec![],
            ..TableModel::default()
        };
        let mut sim = Simulator::<_, f64>::new(&model, 11);
        let mut alpha = 0u64;
        let n = 20_000;
        sim.sample_each(n, |t| {
            if t.does(AgentId(0), ActionId(0), 0) {
                alpha += 1;
            }
        });
        #[allow(clippy::cast_precision_loss)]
        let freq = alpha as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.01, "freq = {freq}");
    }
}
