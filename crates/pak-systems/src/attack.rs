//! Coordinated attack over an unreliable channel (Fischer–Zuck \[20\]).
//!
//! The scenario the paper's introduction builds on: general `A` receives an
//! attack order with some prior probability; the generals then exchange
//! messenger rounds over a lossy channel; at the deadline, `A` attacks iff
//! ordered and `B` attacks iff informed. No protocol can guarantee
//! coordination — the paper's Example 1 footnote traces back to this
//! problem — but probabilistic coordination improves with rounds.
//!
//! The protocol here alternates ping-pong messenger rounds:
//!
//! * even round `2k`: `A` sends "attack" to `B` if ordered;
//! * odd round `2k+1`: `B` acknowledges to `A` if informed;
//! * at the deadline (`rounds` rounds), `A` attacks iff ordered, `B`
//!   attacks iff informed.
//!
//! Fischer–Zuck's observation (which Theorem 6.2 generalises): if the
//! protocol guarantees that `B` attacks with probability `p` given that `A`
//! attacks, then `A`'s **expected** belief that `B` attacks, when `A`
//! attacks, is exactly `p`.

use pak_core::belief::ActionAnalysis;
use pak_core::fact::DoesFact;
use pak_core::ids::{ActionId, AgentId, Time};
use pak_core::pps::Pps;
use pak_core::prob::Probability;

use pak_protocol::messaging::{
    AgentMove, LossyMessagingModel, Message, MessageProtocol, MsgGlobal,
};
use pak_protocol::unfold::{unfold, UnfoldError};

/// General A (receives the order).
pub const GENERAL_A: AgentId = AgentId(0);
/// General B (must be informed).
pub const GENERAL_B: AgentId = AgentId(1);
/// A's attack action.
pub const ATTACK_A: ActionId = ActionId(10);
/// B's attack action.
pub const ATTACK_B: ActionId = ActionId(11);

const MSG_ATTACK: u64 = 1;
const MSG_ACK: u64 = 2;

/// A general's local data.
///
/// The `Eq`/`Hash` derives feed the unfolder's merge contract: loss
/// patterns leaving a general with identical data collapse into one tree
/// node (e.g. losing ack 1 vs ack 2 of the same round), which is what
/// keeps the multi-round attack tree tractable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeneralLocal {
    /// For `A`: whether the order arrived. For `B`: whether informed.
    pub informed: bool,
    /// Number of acknowledgements received (only meaningful for `A`).
    pub acks: u32,
}

/// The coordinated-attack protocol, parameterised.
///
/// # Examples
///
/// ```
/// use pak_systems::attack::CoordinatedAttack;
/// use pak_num::Rational;
///
/// let ca = CoordinatedAttack::new(
///     Rational::from_ratio(1, 10), // loss
///     Rational::from_ratio(1, 2),  // order prior
///     2,                           // messenger rounds
/// );
/// let sys = ca.build_pps().unwrap();
/// let analysis = sys.analyze();
/// // µ(B attacks | A attacks) = 1 − loss² with 2 A→B sends… here 1 round
/// // of A→B and one ack round: coordination = 1 − loss = 9/10.
/// assert_eq!(analysis.constraint_probability(), Rational::from_ratio(9, 10));
/// ```
#[derive(Debug, Clone)]
pub struct CoordinatedAttack<P> {
    loss: P,
    order_prob: P,
    rounds: u32,
}

impl<P: Probability> CoordinatedAttack<P> {
    /// Creates the scenario.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are invalid or `rounds == 0`.
    #[must_use]
    pub fn new(loss: P, order_prob: P, rounds: u32) -> Self {
        assert!(loss.is_valid_probability(), "loss must lie in [0, 1]");
        assert!(
            order_prob.is_valid_probability(),
            "order_prob must lie in [0, 1]"
        );
        assert!(rounds > 0, "at least one messenger round is required");
        CoordinatedAttack {
            loss,
            order_prob,
            rounds,
        }
    }

    /// The scenario as a lossy-channel
    /// [`ProtocolModel`](pak_protocol::model::ProtocolModel) — what
    /// [`CoordinatedAttack::build_pps`] unfolds, exposed so callers can
    /// drive the model API directly (simulation, differential testing).
    #[must_use]
    pub fn model(&self) -> LossyMessagingModel<Self, P> {
        LossyMessagingModel::new(self.clone(), self.loss.clone())
    }

    /// Unfolds into the pps.
    ///
    /// # Errors
    ///
    /// Propagates [`UnfoldError`] (e.g. too many rounds for the node limit).
    pub fn build_pps(&self) -> Result<AttackSystem<P>, UnfoldError> {
        let mut pps = unfold(&self.model())?;
        pps.set_action_name(ATTACK_A, "attack_A");
        pps.set_action_name(ATTACK_B, "attack_B");
        Ok(AttackSystem { pps })
    }

    /// The (deterministic) move of `agent` at `(local, time)`, which
    /// [`MessageProtocol::step`] appends with probability one.
    fn move_at(&self, agent: AgentId, local: &GeneralLocal, time: Time) -> AgentMove {
        if time < self.rounds {
            // Messenger rounds: A sends on even rounds, B acks on odd.
            if agent == GENERAL_A && time.is_multiple_of(2) && local.informed {
                AgentMove::send(GENERAL_B, MSG_ATTACK)
            } else if agent == GENERAL_B && time % 2 == 1 && local.informed {
                AgentMove::send(GENERAL_A, MSG_ACK)
            } else {
                AgentMove::skip()
            }
        } else {
            // Deadline: attack decisions.
            if local.informed {
                AgentMove::act(if agent == GENERAL_A {
                    ATTACK_A
                } else {
                    ATTACK_B
                })
            } else {
                AgentMove::skip()
            }
        }
    }
}

impl<P: Probability> MessageProtocol<P> for CoordinatedAttack<P> {
    type Local = GeneralLocal;

    fn n_agents(&self) -> u32 {
        2
    }

    fn initial(&self) -> Vec<(Vec<GeneralLocal>, P)> {
        let ordered = vec![
            GeneralLocal {
                informed: true,
                acks: 0,
            },
            GeneralLocal {
                informed: false,
                acks: 0,
            },
        ];
        let idle = vec![
            GeneralLocal {
                informed: false,
                acks: 0,
            },
            GeneralLocal {
                informed: false,
                acks: 0,
            },
        ];
        if self.order_prob.is_one() {
            return vec![(ordered, P::one())];
        }
        if self.order_prob.is_zero() {
            return vec![(idle, P::one())];
        }
        vec![
            (ordered, self.order_prob.clone()),
            (idle, self.order_prob.one_minus()),
        ]
    }

    fn horizon(&self) -> Time {
        self.rounds + 1
    }

    fn step(
        &self,
        agent: AgentId,
        local: &GeneralLocal,
        time: Time,
        out: &mut Vec<(AgentMove, P)>,
    ) {
        out.push((self.move_at(agent, local, time), P::one()));
    }

    fn receive(
        &self,
        agent: AgentId,
        local: &GeneralLocal,
        _own_move: &AgentMove,
        inbox: &[Message],
        _time: Time,
    ) -> GeneralLocal {
        let mut next = *local;
        for m in inbox {
            match (agent, m.payload) {
                (GENERAL_B, MSG_ATTACK) => next.informed = true,
                (GENERAL_A, MSG_ACK) => next.acks += 1,
                _ => {}
            }
        }
        next
    }
}

/// The unfolded coordinated-attack system.
#[derive(Debug, Clone)]
pub struct AttackSystem<P: Probability> {
    pps: Pps<MsgGlobal<GeneralLocal>, P>,
}

impl<P: Probability> AttackSystem<P> {
    /// The underlying pps.
    #[must_use]
    pub fn pps(&self) -> &Pps<MsgGlobal<GeneralLocal>, P> {
        &self.pps
    }

    /// The Fischer–Zuck condition: `B` is attacking.
    #[must_use]
    pub fn b_attacks() -> DoesFact {
        DoesFact::new(GENERAL_B, ATTACK_B)
    }

    /// Analysis of `(A, attack_A, "B attacks")`.
    ///
    /// # Panics
    ///
    /// Panics if `attack_A` is not proper (requires `order_prob > 0`).
    #[must_use]
    pub fn analyze(&self) -> ActionAnalysis<P> {
        ActionAnalysis::new(&self.pps, GENERAL_A, ATTACK_A, &Self::b_attacks())
            .expect("attack_A is proper when order_prob > 0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_core::fact::Facts;
    use pak_core::theorems::check_expectation;
    use pak_num::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn one_round_coordination_probability() {
        // One A→B round, no acks: coordination = 1 − loss.
        let ca = CoordinatedAttack::new(r(1, 10), r(1, 2), 1);
        let a = ca.build_pps().unwrap().analyze();
        assert_eq!(a.constraint_probability(), r(9, 10));
    }

    #[test]
    fn more_rounds_do_not_hurt() {
        // A re-sends on every even round: 3 rounds → two sends →
        // coordination = 1 − loss².
        let ca = CoordinatedAttack::new(r(1, 10), r(1, 2), 3);
        let a = ca.build_pps().unwrap().analyze();
        assert_eq!(a.constraint_probability(), r(99, 100));
    }

    #[test]
    fn fischer_zuck_expected_belief_equals_coordination() {
        // The [20] claim as generalised by Theorem 6.2.
        for rounds in [1, 2, 3] {
            let ca = CoordinatedAttack::new(r(1, 5), r(1, 3), rounds);
            let sys = ca.build_pps().unwrap();
            let rep = check_expectation(
                sys.pps(),
                GENERAL_A,
                ATTACK_A,
                &AttackSystem::<Rational>::b_attacks(),
            )
            .unwrap();
            assert!(rep.independence.independent, "rounds={rounds}");
            assert!(rep.equal, "rounds={rounds}: {} vs {}", rep.lhs, rep.rhs);
        }
    }

    #[test]
    fn acks_sharpen_a_beliefs() {
        // With an ack round, A's belief when attacking is 1 after an ack.
        let ca = CoordinatedAttack::new(r(1, 10), r(1, 2), 2);
        let a = ca.build_pps().unwrap().analyze();
        assert_eq!(a.max_belief_when_acting(), Some(Rational::one()));
        // Without an ack, belief is the conditional of informed given no ack:
        // P(B informed ∧ ack lost) / P(no ack) = (0.9·0.1)/(0.1+0.09) = 9/19.
        assert_eq!(a.min_belief_when_acting(), Some(r(9, 19)));
    }

    #[test]
    fn attack_a_deterministic() {
        let ca = CoordinatedAttack::new(r(1, 10), r(1, 2), 2);
        let sys = ca.build_pps().unwrap();
        assert!(sys.pps().is_deterministic_action(GENERAL_A, ATTACK_A));
        assert!(sys.pps().is_deterministic_action(GENERAL_B, ATTACK_B));
    }

    #[test]
    fn no_order_means_no_attack() {
        let ca = CoordinatedAttack::new(r(1, 10), r(1, 2), 1);
        let sys = ca.build_pps().unwrap();
        let pps = sys.pps();
        let a_attacks = pps.action_event(GENERAL_A, ATTACK_A);
        // µ(A attacks) = order prior.
        assert_eq!(pps.measure(&a_attacks), r(1, 2));
    }

    #[test]
    fn reliable_channel_coordinates_surely() {
        let ca = CoordinatedAttack::new(Rational::zero(), r(1, 2), 1);
        let a = ca.build_pps().unwrap().analyze();
        assert!(a.constraint_probability().is_one());
        assert_eq!(a.min_belief_when_acting(), Some(Rational::one()));
    }
}
