//! Global and local states.
//!
//! A *global state* is a tuple `g = (ℓ_e, ℓ_1, …, ℓ_n)` assigning a local
//! state to every agent and to the environment (§2.1). The library is
//! generic over the concrete representation through [`GlobalState`]; a
//! ready-made [`SimpleState`] covers most modelling needs.
//!
//! **Synchrony is enforced by construction**: the paper requires every local
//! state to contain the current time (`time_i`). Rather than trusting user
//! state types to include it, the library always pairs an agent's local data
//! with the tree depth when forming local-state identity (see
//! [`LocalState`]), so two points at different times are never confused.
//!
//! **States are stored interned**: a [`Pps`](crate::pps::Pps) keeps each
//! distinct global state once in a [`StatePool`](crate::intern::StatePool)
//! and its nodes carry copyable [`StateId`](crate::ids::StateId)s, which is
//! what the `Eq + Hash` supertraits of [`GlobalState`] feed (both the
//! unfolder's successor merge and the pool's deduplication).

use core::fmt;
use core::hash::Hash;

use crate::ids::{AgentId, Time};

/// A global state of a distributed system.
///
/// Implementors supply the projection to each agent's local data. The
/// library combines that projection with the current time to obtain the
/// paper's synchronous local state.
///
/// The `Eq + Hash` bounds carry the unfolder's *merge contract*: during
/// bounded-horizon unfolding, successor states that compare equal (under
/// the same joint actions) are merged into a single tree node with their
/// probabilities added. Equal states must therefore hash equal (the usual
/// `Hash`/`Eq` coherence rule); a coarser or finer equality only changes
/// the size of the unfolded tree, never any measure, local state, or
/// action event of the resulting system.
///
/// # Examples
///
/// ```
/// use pak_core::state::{GlobalState, SimpleState};
/// use pak_core::ids::AgentId;
///
/// let g = SimpleState::new(0, vec![7, 9]);
/// assert_eq!(g.local(AgentId(0)), 7);
/// assert_eq!(g.local(AgentId(1)), 9);
/// ```
/// States must additionally be `Send + Sync` so a finished system can be
/// shared across threads (the query engine's tree cache hands one
/// [`Pps`](crate::pps::Pps) to every worker of a serving pool). Every
/// state type is plain data, so the bounds are satisfied automatically.
pub trait GlobalState: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static {
    /// The agent-local component of the state (without the time, which the
    /// library adds).
    type Local: Clone + Eq + Hash + fmt::Debug + Send + Sync;

    /// Projects the state onto agent `agent`'s local data.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `agent` is out of range for the system.
    fn local(&self, agent: AgentId) -> Self::Local;
}

/// An agent's full (synchronous) local state: the pair of the current time
/// and the agent-local data.
///
/// Equality of `LocalState` values is exactly the paper's "same local state"
/// relation: because the time is a component, a local state can occur at
/// most once per run, which is what makes the `ϕ@ℓ` notation well defined
/// (§3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LocalState<L> {
    /// The agent whose local state this is.
    pub agent: AgentId,
    /// The current time (always known to the agent in a synchronous system).
    pub time: Time,
    /// The agent-local data.
    pub data: L,
}

impl<L: fmt::Debug> fmt::Display for LocalState<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{} @t={}: {:?}⟩", self.agent, self.time, self.data)
    }
}

/// A straightforward global state: one `u64` of local data per agent plus an
/// environment component.
///
/// This is the workhorse state type for hand-built systems and for the
/// random-system generator. The `env` component is *not* visible to any
/// agent (it models the environment's private state, e.g. which messages
/// were lost); only `locals[i]` is projected into agent `i`'s local state.
///
/// # Examples
///
/// ```
/// use pak_core::state::SimpleState;
///
/// // Two agents; environment records "message lost" as env = 1.
/// let g = SimpleState::new(1, vec![0, 42]);
/// assert_eq!(g.env, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimpleState {
    /// The environment's local state (invisible to agents).
    pub env: u64,
    /// Per-agent local data, indexed by [`AgentId`].
    pub locals: Vec<u64>,
}

impl SimpleState {
    /// Creates a state from an environment component and per-agent locals.
    #[must_use]
    pub fn new(env: u64, locals: Vec<u64>) -> Self {
        SimpleState { env, locals }
    }

    /// A state in which every component (environment and all locals) is zero.
    #[must_use]
    pub fn zeroed(n_agents: usize) -> Self {
        SimpleState {
            env: 0,
            locals: vec![0; n_agents],
        }
    }

    /// Returns a copy with agent `agent`'s local data replaced.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    #[must_use]
    pub fn with_local(mut self, agent: AgentId, value: u64) -> Self {
        self.locals[agent.index()] = value;
        self
    }

    /// Returns a copy with the environment component replaced.
    #[must_use]
    pub fn with_env(mut self, env: u64) -> Self {
        self.env = env;
        self
    }
}

impl GlobalState for SimpleState {
    type Local = u64;

    fn local(&self, agent: AgentId) -> u64 {
        self.locals[agent.index()]
    }
}

impl fmt::Display for SimpleState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(env={}, locals={:?})", self.env, self.locals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_state_projection() {
        let g = SimpleState::new(3, vec![10, 20, 30]);
        assert_eq!(g.local(AgentId(0)), 10);
        assert_eq!(g.local(AgentId(2)), 30);
    }

    #[test]
    fn with_local_and_env_builders() {
        let g = SimpleState::zeroed(2).with_local(AgentId(1), 5).with_env(9);
        assert_eq!(g.local(AgentId(1)), 5);
        assert_eq!(g.env, 9);
        assert_eq!(g.local(AgentId(0)), 0);
    }

    #[test]
    fn local_state_identity_includes_time() {
        let a = LocalState {
            agent: AgentId(0),
            time: 1,
            data: 7u64,
        };
        let b = LocalState {
            agent: AgentId(0),
            time: 2,
            data: 7u64,
        };
        assert_ne!(
            a, b,
            "same data at different times must be distinct local states"
        );
    }

    #[test]
    fn local_state_identity_includes_agent() {
        let a = LocalState {
            agent: AgentId(0),
            time: 1,
            data: 7u64,
        };
        let b = LocalState {
            agent: AgentId(1),
            time: 1,
            data: 7u64,
        };
        assert_ne!(a, b);
    }

    #[test]
    fn display_forms() {
        let g = SimpleState::new(0, vec![1]);
        assert!(g.to_string().contains("env=0"));
        let l = LocalState {
            agent: AgentId(0),
            time: 3,
            data: 1u64,
        };
        assert!(l.to_string().contains("t=3"));
    }

    #[test]
    fn env_not_part_of_local_projection() {
        let g1 = SimpleState::new(0, vec![5]);
        let g2 = SimpleState::new(99, vec![5]);
        assert_eq!(g1.local(AgentId(0)), g2.local(AgentId(0)));
    }
}
