//! Synchronous message passing over unreliable channels.
//!
//! This is the substrate of the paper's Example 1: a synchronous
//! message-passing system in which every message sent in a round is,
//! independently, lost with probability `loss` and otherwise delivered at
//! the end of the same round (never late).
//!
//! A user protocol implements [`MessageProtocol`] — per-round, per-agent
//! mixed moves (an optional action plus messages to send) and a
//! deterministic local-state update on delivery. Wrapping it in
//! [`LossyMessagingModel`] yields a
//! [`ProtocolModel`] whose environment
//! enumerates every loss pattern with its exact probability, ready for
//! unfolding into a pps or Monte-Carlo sampling.

use core::fmt::Debug;
use core::hash::Hash;

use pak_core::ids::{ActionId, AgentId, Time};
use pak_core::prob::Probability;
use pak_core::state::GlobalState;

use crate::model::ProtocolModel;

/// A message in flight: sender, recipient, and an opaque payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Message {
    /// The sending agent.
    pub from: AgentId,
    /// The receiving agent.
    pub to: AgentId,
    /// Protocol-defined payload.
    pub payload: u64,
}

/// An agent's move in one round: an optional action (recorded in the run
/// history as `does_i(α)`) plus any messages to send this round.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct AgentMove {
    /// The action performed, or `None` for a silent/skip move.
    pub action: Option<ActionId>,
    /// Messages sent this round: `(recipient, payload)` pairs. Duplicates
    /// are allowed (sending two copies increases delivery probability).
    pub sends: Vec<(AgentId, u64)>,
}

impl AgentMove {
    /// A move that does nothing.
    #[must_use]
    pub fn skip() -> Self {
        AgentMove::default()
    }

    /// A move that performs an action without sending.
    #[must_use]
    pub fn act(action: ActionId) -> Self {
        AgentMove {
            action: Some(action),
            sends: Vec::new(),
        }
    }

    /// A move that sends a single message without acting.
    #[must_use]
    pub fn send(to: AgentId, payload: u64) -> Self {
        AgentMove {
            action: None,
            sends: vec![(to, payload)],
        }
    }

    /// Adds a message to the move (builder style).
    #[must_use]
    pub fn and_send(mut self, to: AgentId, payload: u64) -> Self {
        self.sends.push((to, payload));
        self
    }

    /// Adds an action to the move (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the move already has an action.
    #[must_use]
    pub fn and_act(mut self, action: ActionId) -> Self {
        assert!(self.action.is_none(), "move already has an action");
        self.action = Some(action);
        self
    }
}

/// A synchronous message-passing protocol: the user-facing trait for systems
/// like Example 1's `FS`.
pub trait MessageProtocol<P: Probability> {
    /// An agent's local data (the library adds the time for synchrony).
    /// `Send + Sync` feeds the [`GlobalState`] bounds; local data is always
    /// plain values.
    type Local: Clone + Eq + Hash + Debug + Send + Sync + 'static;

    /// Number of agents.
    fn n_agents(&self) -> u32;

    /// Prior over initial joint local states.
    fn initial(&self) -> Vec<(Vec<Self::Local>, P)>;

    /// The protocol runs for times `0 .. horizon` (states up to time
    /// `horizon` appear in runs).
    fn horizon(&self) -> Time;

    /// Appends agent `agent`'s mixed move at its local state to `out` — it
    /// may perform an action and/or send messages. Same append/pure/
    /// bit-equal contract as [`ProtocolModel::moves`], which
    /// [`LossyMessagingModel`] forwards here.
    fn step(&self, agent: AgentId, local: &Self::Local, time: Time, out: &mut Vec<(AgentMove, P)>);

    /// Deterministic local-state update at the end of the round: the agent
    /// sees its own move and the messages actually delivered to it (sorted
    /// by sender then payload).
    fn receive(
        &self,
        agent: AgentId,
        local: &Self::Local,
        own_move: &AgentMove,
        inbox: &[Message],
        time: Time,
    ) -> Self::Local;
}

/// Global state of a message-passing system: the tuple of agent locals.
///
/// There is no hidden environment component: everything the environment
/// "knows" (which messages were lost) is reflected in the recipients'
/// locals at the end of the round, matching the paper's modelling where the
/// environment history records actions, not channel internals.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MsgGlobal<L> {
    /// Per-agent local data.
    pub locals: Vec<L>,
}

impl<L: Clone + Eq + Hash + Debug + Send + Sync + 'static> GlobalState for MsgGlobal<L> {
    type Local = L;

    fn local(&self, agent: AgentId) -> L {
        self.locals[agent.index()].clone()
    }
}

/// Wraps a [`MessageProtocol`] with an unreliable-channel environment: each
/// message sent in a round is lost independently with probability `loss`.
///
/// # Examples
///
/// A one-round ping system (see `pak-systems` for full scenarios):
///
/// ```
/// use pak_protocol::messaging::*;
/// use pak_protocol::model::ProtocolModel;
/// use pak_protocol::unfold::unfold;
/// use pak_core::prelude::*;
/// use pak_num::Rational;
///
/// #[derive(Debug)]
/// struct Ping;
/// impl MessageProtocol<Rational> for Ping {
///     type Local = u64;
///     fn n_agents(&self) -> u32 { 2 }
///     fn initial(&self) -> Vec<(Vec<u64>, Rational)> {
///         vec![(vec![0, 0], Rational::one())]
///     }
///     fn horizon(&self) -> u32 { 1 }
///     fn step(&self, agent: AgentId, _l: &u64, _t: u32, out: &mut Vec<(AgentMove, Rational)>) {
///         if agent == AgentId(0) {
///             out.push((AgentMove::send(AgentId(1), 7), Rational::one()));
///         } else {
///             out.push((AgentMove::skip(), Rational::one()));
///         }
///     }
///     fn receive(&self, _a: AgentId, l: &u64, _mv: &AgentMove, inbox: &[Message], _t: u32) -> u64 {
///         if inbox.is_empty() { *l } else { inbox[0].payload }
///     }
/// }
///
/// let model = LossyMessagingModel::new(Ping, Rational::from_ratio(1, 10));
/// let pps = unfold::<_, Rational>(&model).unwrap();
/// // Two runs: delivered (0.9) and lost (0.1).
/// assert_eq!(pps.num_runs(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct LossyMessagingModel<MP, P> {
    /// The wrapped protocol.
    protocol: MP,
    /// Per-message loss probability.
    loss: P,
}

impl<MP, P: Probability> LossyMessagingModel<MP, P> {
    /// Wraps `protocol` with per-message loss probability `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a valid probability in `[0, 1]`.
    pub fn new(protocol: MP, loss: P) -> Self {
        assert!(loss.is_valid_probability(), "loss must lie in [0, 1]");
        LossyMessagingModel { protocol, loss }
    }

    /// The wrapped protocol.
    pub fn protocol(&self) -> &MP {
        &self.protocol
    }

    /// The per-message loss probability.
    pub fn loss(&self) -> &P {
        &self.loss
    }
}

impl<MP, P> ProtocolModel<P> for LossyMessagingModel<MP, P>
where
    MP: MessageProtocol<P> + Debug,
    P: Probability,
{
    type Global = MsgGlobal<MP::Local>;
    type Move = AgentMove;

    fn n_agents(&self) -> u32 {
        self.protocol.n_agents()
    }

    fn initial_states(&self) -> Vec<(Self::Global, P)> {
        self.protocol
            .initial()
            .into_iter()
            .map(|(locals, p)| (MsgGlobal { locals }, p))
            .collect()
    }

    fn is_terminal(&self, _state: &Self::Global, time: Time) -> bool {
        time >= self.protocol.horizon()
    }

    fn moves(&self, agent: AgentId, local: &MP::Local, time: Time, out: &mut Vec<(AgentMove, P)>) {
        self.protocol.step(agent, local, time, out);
    }

    fn action_of(&self, mv: &AgentMove) -> Option<ActionId> {
        mv.action
    }

    fn transition(
        &self,
        state: &Self::Global,
        moves: &[AgentMove],
        time: Time,
        out: &mut Vec<(Self::Global, P)>,
    ) {
        // Every loss pattern in mask order, mask bit `i` set meaning
        // message `i` is delivered. Loss probabilities 0 and 1
        // short-circuit to a single outcome; the per-outcome message
        // buffers are reused across masks.
        let mut sent: Vec<Message> = Vec::new();
        for (a, mv) in moves.iter().enumerate() {
            for &(to, payload) in &mv.sends {
                sent.push(Message {
                    from: AgentId(a as u32),
                    to,
                    payload,
                });
            }
        }

        let next_state = |delivered: &[Message], inbox: &mut Vec<Message>| -> Self::Global {
            let mut locals = Vec::with_capacity(state.locals.len());
            for (a, local) in state.locals.iter().enumerate() {
                let agent = AgentId(a as u32);
                inbox.clear();
                inbox.extend(delivered.iter().copied().filter(|m| m.to == agent));
                inbox.sort_unstable();
                locals.push(self.protocol.receive(agent, local, &moves[a], inbox, time));
            }
            MsgGlobal { locals }
        };

        let mut inbox: Vec<Message> = Vec::new();
        if sent.is_empty() || self.loss.is_zero() {
            out.push((next_state(&sent, &mut inbox), P::one()));
            return;
        }
        if self.loss.is_one() {
            out.push((next_state(&[], &mut inbox), P::one()));
            return;
        }
        let deliver = self.loss.one_minus();
        let n = sent.len();
        assert!(
            n < 24,
            "too many messages in one round for exact loss enumeration"
        );
        let mut delivered: Vec<Message> = Vec::with_capacity(n);
        for mask in 0u32..(1 << n) {
            delivered.clear();
            // Seed the accumulator from the first factor instead of
            // multiplying into `P::one()`; saves a mul per mask.
            let mut p: Option<P> = None;
            for (i, msg) in sent.iter().enumerate() {
                let f = if (mask >> i) & 1 == 1 {
                    delivered.push(*msg);
                    &deliver
                } else {
                    &self.loss
                };
                p = Some(match p {
                    None => f.clone(),
                    Some(q) => q.mul(f),
                });
            }
            out.push((next_state(&delivered, &mut inbox), p.unwrap_or_else(P::one)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unfold::unfold;
    use pak_core::prelude::*;
    use pak_num::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    /// Agent 0 sends `copies` identical messages to agent 1 in round 0;
    /// agent 1's local becomes 1 if it received at least one.
    #[derive(Debug)]
    struct MultiSend {
        copies: usize,
    }

    impl MessageProtocol<Rational> for MultiSend {
        type Local = u64;

        fn n_agents(&self) -> u32 {
            2
        }

        fn initial(&self) -> Vec<(Vec<u64>, Rational)> {
            vec![(vec![0, 0], Rational::one())]
        }

        fn horizon(&self) -> u32 {
            1
        }

        fn step(
            &self,
            agent: AgentId,
            _local: &u64,
            _time: u32,
            out: &mut Vec<(AgentMove, Rational)>,
        ) {
            if agent == AgentId(0) {
                let mut mv = AgentMove::skip();
                for _ in 0..self.copies {
                    mv = mv.and_send(AgentId(1), 42);
                }
                out.push((mv, Rational::one()));
            } else {
                out.push((AgentMove::skip(), Rational::one()));
            }
        }

        fn receive(
            &self,
            _agent: AgentId,
            local: &u64,
            _own: &AgentMove,
            inbox: &[Message],
            _time: u32,
        ) -> u64 {
            if inbox.is_empty() {
                *local
            } else {
                1
            }
        }
    }

    #[test]
    fn duplicate_sends_boost_delivery_exactly() {
        // Two copies, loss 0.1: P(received) = 1 − 0.01 = 0.99 — the
        // Example 1 arithmetic.
        let model = LossyMessagingModel::new(MultiSend { copies: 2 }, r(1, 10));
        let pps = unfold::<_, Rational>(&model).unwrap();
        // Identical successor states merge: received (0.99) vs not (0.01).
        assert_eq!(pps.num_runs(), 2);
        let got = StateFact::new("agent1 got it", |g: &MsgGlobal<u64>| g.locals[1] == 1);
        let ev = pps.fact_event_at_time(&got, 1);
        assert_eq!(pps.measure(&ev), r(99, 100));
    }

    #[test]
    fn loss_zero_and_one_short_circuit() {
        let reliable = LossyMessagingModel::new(MultiSend { copies: 1 }, Rational::zero());
        let pps = unfold::<_, Rational>(&reliable).unwrap();
        assert_eq!(pps.num_runs(), 1);

        let dead = LossyMessagingModel::new(MultiSend { copies: 1 }, Rational::one());
        let pps = unfold::<_, Rational>(&dead).unwrap();
        assert_eq!(pps.num_runs(), 1);
        let got = StateFact::new("got", |g: &MsgGlobal<u64>| g.locals[1] == 1);
        assert!(pps.measure(&pps.fact_event_at_time(&got, 1)).is_zero());
    }

    #[test]
    #[should_panic(expected = "loss must lie in [0, 1]")]
    fn invalid_loss_rejected() {
        let _ = LossyMessagingModel::new(MultiSend { copies: 1 }, r(3, 2));
    }

    #[test]
    fn agent_move_builders() {
        let mv = AgentMove::send(AgentId(1), 5)
            .and_send(AgentId(1), 6)
            .and_act(ActionId(3));
        assert_eq!(mv.sends.len(), 2);
        assert_eq!(mv.action, Some(ActionId(3)));
        assert_eq!(AgentMove::skip(), AgentMove::default());
        assert_eq!(AgentMove::act(ActionId(1)).action, Some(ActionId(1)));
    }

    #[test]
    #[should_panic(expected = "already has an action")]
    fn double_action_rejected() {
        let _ = AgentMove::act(ActionId(0)).and_act(ActionId(1));
    }

    #[test]
    fn transition_probabilities_sum_to_one() {
        // Three messages in one round: one outcome per loss pattern.
        let model = LossyMessagingModel::new(MultiSend { copies: 3 }, r(1, 4));
        let state = MsgGlobal { locals: vec![0, 0] };
        let mut sends = Vec::new();
        model.moves(AgentId(0), &0, 0, &mut sends);
        let joint = [sends[0].0.clone(), AgentMove::skip()];
        let mut outs = Vec::new();
        model.transition(&state, &joint, 0, &mut outs);
        assert_eq!(outs.len(), 8);
        let total: Rational = outs.iter().map(|(_, p)| p.clone()).sum();
        assert!(total.is_one());
    }

    #[test]
    fn inbox_sorted_deterministically() {
        // Sorting is by sender then payload; just exercise Ord on Message.
        let a = Message {
            from: AgentId(0),
            to: AgentId(1),
            payload: 9,
        };
        let b = Message {
            from: AgentId(0),
            to: AgentId(1),
            payload: 10,
        };
        let c = Message {
            from: AgentId(1),
            to: AgentId(1),
            payload: 0,
        };
        let mut v = vec![c, b, a];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }
}
