//! The protocol-system model (§2.2 of the paper).
//!
//! A joint protocol is a tuple `P = (P_e, P_1, …, P_n)` where each `P_i`
//! maps agent `i`'s *local state* to a distribution over its actions (a
//! *mixed action step* when the support has more than one element), and the
//! environment resolves the joint choice into a successor global state —
//! possibly probabilistically (message loss, scheduling, coin flips).
//!
//! [`ProtocolModel`] captures exactly this structure. Two properties of the
//! paper's setting are enforced by the shape of the trait:
//!
//! * **Locality** — [`ProtocolModel::moves`] receives only the agent's own
//!   local data (plus the time, which a synchronous agent always knows), so
//!   a protocol physically cannot read other agents' states.
//! * **Bounded termination** — [`ProtocolModel::is_terminal`] must
//!   eventually return `true` on every path so the unfolded system is a
//!   finite pps.
//!
//! # The query contract
//!
//! [`ProtocolModel::moves`] and [`ProtocolModel::transition`] *append*
//! their distribution to a caller-owned buffer instead of returning an
//! owned `Vec`: the unfolder and the simulator query a model in a tight
//! loop, clearing and reusing one scratch buffer per query kind, so a
//! model allocates nothing per query. Every implementation is held to one
//! contract, checked on every model of the workspace by the differential
//! harness (`tests/unfold_differential.rs` against a reference unfolder,
//! `tests/systems_unfold_smoke.rs` against hand-built trees):
//!
//! * **append** — push the distribution onto `out`; never read, reorder
//!   or truncate the entries the caller left there;
//! * **pure** — the appended entries are a function of the arguments
//!   only, so that the unfolder's `(state, time)` expansion memo may call
//!   a method once and replay the result anywhere. Purity outlives a
//!   single unfold: a retained [`Unfolder`](crate::unfold::Unfolder)
//!   keeps the memo alive across
//!   [`extend_horizon`](crate::unfold::Unfolder::extend_horizon) calls, so
//!   an expansion computed while building horizon `h` may be replayed
//!   verbatim while growing to `h + 1` and beyond;
//! * **bit-equal** — calls with equal arguments append the same entries
//!   in the same order with bit-equal probabilities. A model whose answers
//!   drifted between calls would silently diverge from its own earlier
//!   tree.
//!
//! # The `Hash + Eq` merge contract
//!
//! Unfolding merges successor states that compare equal under the same
//! joint actions (see [`mod@crate::unfold`]). Both the global-state type
//! ([`ProtocolModel::Global`], via
//! [`GlobalState`]'s supertraits) and
//! [`ProtocolModel::Move`] are therefore required to implement `Eq + Hash`,
//! and equal values must hash equal. The merge is a pure tree-size
//! optimisation: a state type whose `Eq` distinguishes more (or fewer)
//! values changes how many nodes the unfolded tree has, but never any run
//! probability, local state, or action event.

use core::fmt::Debug;
use core::hash::{Hash, Hasher};
use std::collections::HashMap;
use std::sync::OnceLock;

use pak_core::hash::{Fingerprint, FxBuildHasher, FxHasher};
use pak_core::ids::{ActionId, AgentId, Time};
use pak_core::prob::Probability;
use pak_core::state::GlobalState;

/// A joint probabilistic protocol together with its environment, ready to be
/// unfolded into a pps or sampled by the simulator.
///
/// # Examples
///
/// See [`crate::messaging::LossyMessagingModel`] for a full implementation,
/// or [`CoinModel`] in this module for a minimal one.
pub trait ProtocolModel<P: Probability> {
    /// The global-state representation of the unfolded system.
    type Global: GlobalState;

    /// An agent's move: the action it performs plus any effects the
    /// environment must see (e.g. messages to send). `Eq + Hash` feed the
    /// unfolder's merge contract (see the module docs).
    type Move: Clone + Debug + Eq + Hash;

    /// The number of agents.
    fn n_agents(&self) -> u32;

    /// The prior distribution over initial global states (non-empty,
    /// probabilities summing to one).
    fn initial_states(&self) -> Vec<(Self::Global, P)>;

    /// Whether the protocol has terminated at `state` (no further rounds).
    /// Must eventually hold on every path.
    fn is_terminal(&self, state: &Self::Global, time: Time) -> bool;

    /// Appends agent `agent`'s mixed move distribution at its local state
    /// `local` and time `time` — the paper's `P_i(ℓ_i) ∈ Δ(Act_i)` — to
    /// `out`.
    ///
    /// The appended distribution must be non-empty with probabilities
    /// summing to one; a single entry is a deterministic step. See the
    /// module docs for the append/pure/bit-equal contract.
    fn moves(
        &self,
        agent: AgentId,
        local: &<Self::Global as GlobalState>::Local,
        time: Time,
        out: &mut Vec<(Self::Move, P)>,
    );

    /// The action recorded on the run history for a move (`None` when the
    /// move is a skip that should not appear as a `does_i` event).
    fn action_of(&self, mv: &Self::Move) -> Option<ActionId>;

    /// Appends the environment's resolution of the joint moves at `state`
    /// — a distribution over successor global states (non-empty, summing
    /// to one) — to `out`. `moves[i]` is agent `i`'s chosen move. Same
    /// contract as [`ProtocolModel::moves`].
    fn transition(
        &self,
        state: &Self::Global,
        moves: &[Self::Move],
        time: Time,
        out: &mut Vec<(Self::Global, P)>,
    );
}

/// A minimal single-agent model used in documentation and tests: the
/// environment flips a biased coin at time 0 (hidden from the agent), and
/// the agent unconditionally performs one action at time 0.
///
/// # Examples
///
/// ```
/// use pak_protocol::model::{CoinModel, ProtocolModel};
/// use pak_core::ids::AgentId;
/// use pak_core::state::GlobalState;
///
/// let m = CoinModel { heads_num: 99, heads_den: 100 };
/// let init = ProtocolModel::<f64>::initial_states(&m);
/// assert_eq!(init.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CoinModel {
    /// Numerator of the heads probability.
    pub heads_num: u64,
    /// Denominator of the heads probability.
    pub heads_den: u64,
}

/// Global state of [`CoinModel`]: the hidden coin plus a blind agent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CoinState {
    /// `true` iff the hidden coin landed heads.
    pub heads: bool,
}

impl GlobalState for CoinState {
    type Local = u8;

    fn local(&self, _agent: AgentId) -> u8 {
        0 // the agent observes nothing
    }
}

/// The action id used by [`CoinModel`].
pub const COIN_ACT: ActionId = ActionId(0);

impl<P: Probability> ProtocolModel<P> for CoinModel {
    type Global = CoinState;
    type Move = ();

    fn n_agents(&self) -> u32 {
        1
    }

    fn initial_states(&self) -> Vec<(CoinState, P)> {
        let heads = P::from_ratio(self.heads_num, self.heads_den);
        vec![
            (CoinState { heads: true }, heads.clone()),
            (CoinState { heads: false }, heads.one_minus()),
        ]
    }

    fn is_terminal(&self, _state: &CoinState, time: Time) -> bool {
        time >= 1
    }

    fn moves(&self, _agent: AgentId, _local: &u8, _time: Time, out: &mut Vec<((), P)>) {
        out.push(((), P::one()));
    }

    fn action_of(&self, _mv: &()) -> Option<ActionId> {
        Some(COIN_ACT)
    }

    fn transition(
        &self,
        state: &CoinState,
        _moves: &[()],
        _time: Time,
        out: &mut Vec<(CoinState, P)>,
    ) {
        out.push((state.clone(), P::one()));
    }
}

/// Per-agent constraint on one slot of a joint move, used by the guards of
/// [`StateTransition`] rules.
///
/// A guard is a vector of patterns, one per agent; the rule fires only when
/// every pattern matches the corresponding agent's move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MovePattern {
    /// Matches any move (wildcard).
    Any,
    /// Matches only a skip (`None` — no recorded action).
    Skip,
    /// Matches only the given action being performed.
    Do(ActionId),
}

impl MovePattern {
    /// Whether this pattern matches a concrete move.
    #[must_use]
    pub fn matches(&self, mv: &Option<ActionId>) -> bool {
        match self {
            MovePattern::Any => true,
            MovePattern::Skip => mv.is_none(),
            MovePattern::Do(a) => *mv == Some(*a),
        }
    }
}

/// A guarded, state-keyed transition rule of a [`TableModel`].
///
/// Unlike the coarse `(env, time)`-keyed [`TableModel::transitions`] table,
/// a state rule matches on the *entire* source state — environment part
/// **and** every agent's local data — and may additionally be guarded on
/// the joint move the agents just performed. This is what lets a table
/// express environments whose successor depends on agents' local states or
/// on which actions were taken (message loss towards an informed agent,
/// observable coin flips, …) — protocols that previously required a
/// hand-written [`ProtocolModel`] implementation.
///
/// Resolution order (see [`TableModel`]): among rules whose
/// `(env, locals, time)` equal the source state's, the first one **in
/// declaration order** whose guard matches the joint move fires; if none
/// fires, the `(env, time)` table is consulted; if that is also absent, the
/// state is copied unchanged.
#[derive(Debug, Clone)]
pub struct StateTransition<P> {
    /// Environment part of the source state.
    pub env: u64,
    /// Per-agent local data of the source state (length = `n_agents`).
    pub locals: Vec<u64>,
    /// The time at which this rule applies.
    pub time: Time,
    /// Guard over the joint move: empty means unconditional; otherwise one
    /// pattern per agent, all of which must match.
    pub guard: Vec<MovePattern>,
    /// Successor distribution: `(new_env, new_locals, probability)`.
    #[allow(clippy::type_complexity)]
    pub outcomes: Vec<(u64, Vec<u64>, P)>,
}

/// A table-driven protocol model over [`pak_core::state::SimpleState`],
/// convenient for spelling out small systems (counterexamples, exercises)
/// without writing a trait implementation — and the compile target of the
/// `pak-dsl` protocol language.
///
/// The tables map `(agent local data, time)` to move distributions and
/// source states to successor distributions; entries default to "skip" /
/// "stay" when absent. Transitions resolve in two tiers: the fine-grained
/// [`TableModel::state_transitions`] rules (keyed on the whole state, with
/// optional guards on the joint move — see [`StateTransition`]) are
/// consulted first, then the coarse `(env, time)`-keyed
/// [`TableModel::transitions`] table. Lookups go through a prebuilt
/// [`TableIndex`] (hash maps plus a sorted position array, built lazily on
/// first use) rather than scanning the tables linearly; see
/// [`TableModel::index`] for the contract this places on table mutation.
///
/// # Examples
///
/// A one-agent model that performs action `0` with probability ¾ at time
/// 0, unfolded into a two-run pps:
///
/// ```
/// use pak_protocol::model::TableModel;
/// use pak_protocol::unfold::unfold;
/// use pak_core::prelude::*;
/// use pak_num::Rational;
///
/// let model: TableModel<Rational> = TableModel {
///     n_agents: 1,
///     initial: vec![(0, vec![0], Rational::one())],
///     horizon: 1,
///     moves: vec![(
///         (0, 0, 0),
///         vec![
///             (Some(ActionId(0)), Rational::from_ratio(3, 4)),
///             (None, Rational::from_ratio(1, 4)),
///         ],
///     )],
///     transitions: vec![],
///     ..TableModel::default()
/// };
/// let pps = unfold::<_, Rational>(&model).unwrap();
/// assert_eq!(pps.num_runs(), 2);
/// let acts = pps.action_event(AgentId(0), ActionId(0));
/// assert_eq!(pps.measure(&acts), Rational::from_ratio(3, 4));
/// ```
#[derive(Debug, Clone)]
pub struct TableModel<P> {
    /// Number of agents.
    pub n_agents: u32,
    /// Prior over initial states: `(env, locals, probability)`.
    pub initial: Vec<(u64, Vec<u64>, P)>,
    /// Horizon: terminal once `time >= horizon`.
    pub horizon: Time,
    /// Move table: `(agent, local, time) → [(action, prob)]`. `None` action
    /// means skip.
    #[allow(clippy::type_complexity)]
    pub moves: Vec<((u32, u64, Time), Vec<(Option<ActionId>, P)>)>,
    /// Transition table: `(env, time) → [(new_env, new_locals, prob)]`;
    /// when absent the state is copied unchanged.
    #[allow(clippy::type_complexity)]
    pub transitions: Vec<((u64, Time), Vec<(u64, Vec<u64>, P)>)>,
    /// Guarded, state-keyed transition rules, consulted *before*
    /// `transitions`: the first rule (in declaration order) matching the
    /// full source state, time, and joint move fires. See
    /// [`StateTransition`].
    pub state_transitions: Vec<StateTransition<P>>,
    /// An opaque variant label mixed into the model's
    /// [`ModelFingerprint`]. Two models with identical tables but
    /// different tags fingerprint differently — this is how DSL
    /// adversary variants (which may coincide table-for-table with
    /// their base protocol) are kept distinct in [`PpsCache`] keys.
    /// `None` (the default) adds nothing to the digest, so existing
    /// hand-written models keep their fingerprints.
    ///
    /// [`PpsCache`]: https://docs.rs/pak-engine
    pub variant_tag: Option<String>,
    /// Lazily built lookup index over `moves` and `transitions` (see
    /// [`TableModel::index`]). Initialise with `OnceLock::new()` — or
    /// simply spread `..TableModel::default()` into a struct literal.
    pub index: OnceLock<TableIndex>,
}

// Implemented by hand (not derived) so that `..TableModel::default()`
// works in struct literals for *any* probability type, without a
// `P: Default` bound.
impl<P> Default for TableModel<P> {
    fn default() -> Self {
        TableModel {
            n_agents: 0,
            initial: Vec::new(),
            horizon: 0,
            moves: Vec::new(),
            transitions: Vec::new(),
            state_transitions: Vec::new(),
            variant_tag: None,
            index: OnceLock::new(),
        }
    }
}

/// A prebuilt lookup index over a [`TableModel`]'s tables: hash maps from
/// `(agent, local, time)` and `(env, time)` to positions in the `moves` /
/// `transitions` vectors. Replaces the per-call linear table scans the
/// unfolder used to pay on every node expansion.
///
/// When a key occurs more than once in a table, the index records the
/// *first* occurrence — exactly the entry a front-to-back linear scan
/// would have found — so indexed and scanned lookups agree on every input
/// (property-tested in `tests/table_index.rs`).
#[derive(Debug, Clone, Default)]
pub struct TableIndex {
    moves: HashMap<(u32, u64, Time), usize, FxBuildHasher>,
    transitions: HashMap<(u64, Time), usize, FxBuildHasher>,
    /// Positions into `state_transitions`, stably sorted by
    /// `(env, locals, time)` so all rules for one source state are a
    /// contiguous range (found by binary search) while preserving
    /// declaration order within the range — the order guard matching
    /// depends on.
    state_order: Vec<u32>,
}

impl TableIndex {
    /// Builds the index for the given tables, keeping the first occurrence
    /// of each duplicated key.
    #[must_use]
    pub fn build<P>(model: &TableModel<P>) -> Self {
        let mut moves: HashMap<(u32, u64, Time), usize, FxBuildHasher> = HashMap::default();
        for (i, (key, _)) in model.moves.iter().enumerate() {
            moves.entry(*key).or_insert(i);
        }
        let mut transitions: HashMap<(u64, Time), usize, FxBuildHasher> = HashMap::default();
        for (i, (key, _)) in model.transitions.iter().enumerate() {
            transitions.entry(*key).or_insert(i);
        }
        #[allow(clippy::cast_possible_truncation)]
        let mut state_order: Vec<u32> = (0..model.state_transitions.len() as u32).collect();
        // A *stable* sort: rules with equal keys keep declaration order,
        // which first-match guard resolution relies on.
        state_order.sort_by(|&a, &b| {
            let ra = &model.state_transitions[a as usize];
            let rb = &model.state_transitions[b as usize];
            (ra.env, &ra.locals, ra.time).cmp(&(rb.env, &rb.locals, rb.time))
        });
        TableIndex {
            moves,
            transitions,
            state_order,
        }
    }

    /// The positions (into `state_transitions`, in declaration order) of
    /// all rules keyed on exactly `(env, locals, time)` — an empty slice
    /// when no rule matches that source state. Zero-allocation: two binary
    /// searches over the prebuilt sorted position array.
    #[must_use]
    pub fn state_rules<'a, P>(
        &'a self,
        model: &TableModel<P>,
        env: u64,
        locals: &[u64],
        time: Time,
    ) -> &'a [u32] {
        let key = (env, locals, time);
        let cmp = |pos: &u32| {
            let r = &model.state_transitions[*pos as usize];
            (r.env, r.locals.as_slice(), r.time).cmp(&key)
        };
        let lo = self.state_order.partition_point(|p| cmp(p).is_lt());
        let hi = self.state_order.partition_point(|p| cmp(p).is_le());
        &self.state_order[lo..hi]
    }

    /// The position in `moves` holding the distribution for
    /// `(agent, local, time)`, or `None` when the entry is absent (the
    /// model then defaults to a deterministic skip).
    #[must_use]
    pub fn move_entry(&self, agent: u32, local: u64, time: Time) -> Option<usize> {
        self.moves.get(&(agent, local, time)).copied()
    }

    /// The position in `transitions` holding the distribution for
    /// `(env, time)`, or `None` when the entry is absent (the model then
    /// copies the state unchanged).
    #[must_use]
    pub fn transition_entry(&self, env: u64, time: Time) -> Option<usize> {
        self.transitions.get(&(env, time)).copied()
    }
}

impl<P> TableModel<P> {
    /// The lookup index over `moves` and `transitions`, built on first use
    /// and cached (so one unfold builds it exactly once, and every
    /// subsequent lookup is a hash probe).
    ///
    /// **Contract:** the tables must not be mutated after the index has
    /// been built — lookups would silently consult stale positions. After
    /// mutating a model in place, call [`TableModel::invalidate_index`].
    pub fn index(&self) -> &TableIndex {
        self.index.get_or_init(|| TableIndex::build(self))
    }

    /// Drops the cached [`TableIndex`] so the next lookup rebuilds it.
    /// Call this after mutating `moves`, `transitions`, or
    /// `state_transitions` in place.
    pub fn invalidate_index(&mut self) {
        self.index = OnceLock::new();
    }
}

impl<P: Probability> TableModel<P> {
    /// The first state-keyed rule (declaration order) matching `state`,
    /// `time`, and the joint move `moves`, if any — the top tier of the
    /// transition resolution order documented on [`TableModel`].
    fn state_rule(
        &self,
        state: &pak_core::state::SimpleState,
        moves: &[Option<ActionId>],
        time: Time,
    ) -> Option<&StateTransition<P>> {
        if self.state_transitions.is_empty() {
            return None;
        }
        self.index()
            .state_rules(self, state.env, &state.locals, time)
            .iter()
            .map(|&pos| &self.state_transitions[pos as usize])
            .find(|rule| {
                rule.guard.is_empty()
                    || (rule.guard.len() == moves.len()
                        && rule.guard.iter().zip(moves).all(|(g, mv)| g.matches(mv)))
            })
    }
}

impl<P: Probability> ProtocolModel<P> for TableModel<P> {
    type Global = pak_core::state::SimpleState;
    type Move = Option<ActionId>;

    fn n_agents(&self) -> u32 {
        self.n_agents
    }

    fn initial_states(&self) -> Vec<(Self::Global, P)> {
        self.initial
            .iter()
            .map(|(env, locals, p)| {
                (
                    pak_core::state::SimpleState::new(*env, locals.clone()),
                    p.clone(),
                )
            })
            .collect()
    }

    fn is_terminal(&self, _state: &Self::Global, time: Time) -> bool {
        time >= self.horizon
    }

    fn moves(&self, agent: AgentId, local: &u64, time: Time, out: &mut Vec<(Self::Move, P)>) {
        // The indexed position is read in place: entries are cloned into
        // the caller's buffer one by one, but the row `Vec` itself is
        // never cloned and nothing is allocated on the absent-key path.
        match self.index().move_entry(agent.0, *local, time) {
            Some(i) => out.extend_from_slice(&self.moves[i].1),
            None => out.push((None, P::one())),
        }
    }

    fn action_of(&self, mv: &Self::Move) -> Option<ActionId> {
        *mv
    }

    fn transition(
        &self,
        state: &Self::Global,
        moves: &[Self::Move],
        time: Time,
        out: &mut Vec<(Self::Global, P)>,
    ) {
        // Resolution order: state-keyed guarded rules, then the coarse
        // (env, time) table, then copy-unchanged.
        if let Some(rule) = self.state_rule(state, moves, time) {
            out.extend(rule.outcomes.iter().map(|(env, locals, p)| {
                (
                    pak_core::state::SimpleState::new(*env, locals.clone()),
                    p.clone(),
                )
            }));
            return;
        }
        match self.index().transition_entry(state.env, time) {
            Some(i) => out.extend(self.transitions[i].1.iter().map(|(env, locals, p)| {
                (
                    pak_core::state::SimpleState::new(*env, locals.clone()),
                    p.clone(),
                )
            })),
            None => out.push((state.clone(), P::one())),
        }
    }
}

/// Models that can identify themselves structurally, for tree caching.
///
/// `pak-engine` keys its cache of unfolded [`Pps`](pak_core::pps::Pps)
/// trees on `(model fingerprint, horizon)`: two models with equal
/// fingerprints are served the same cached tree. An implementation must
/// therefore digest **everything** its `ProtocolModel` answers depend on
/// — priors, move tables, transition tables, horizon — so that equal
/// fingerprints really do imply identical unfoldings. Probabilities are
/// digested through their `Display` form, which is exact for `Rational`
/// and round-trips `f64` (Rust's shortest-representation formatting).
///
/// # Examples
///
/// ```
/// use pak_protocol::model::{CoinModel, ModelFingerprint};
///
/// let a = CoinModel { heads_num: 3, heads_den: 4 };
/// let b = CoinModel { heads_num: 3, heads_den: 4 };
/// assert_eq!(a.fingerprint(), b.fingerprint());
/// assert_ne!(
///     a.fingerprint(),
///     CoinModel { heads_num: 1, heads_den: 4 }.fingerprint(),
/// );
/// ```
pub trait ModelFingerprint {
    /// A structural digest of the model: equal fingerprints must imply
    /// identical unfolded trees at every horizon.
    fn fingerprint(&self) -> Fingerprint;
}

impl ModelFingerprint for CoinModel {
    fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(&("coin", self.heads_num, self.heads_den))
    }
}

impl<P: Probability> ModelFingerprint for TableModel<P> {
    fn fingerprint(&self) -> Fingerprint {
        let mut h = FxHasher::default();
        "table".hash(&mut h);
        self.variant_tag.hash(&mut h);
        self.n_agents.hash(&mut h);
        self.horizon.hash(&mut h);
        self.initial.len().hash(&mut h);
        for (env, locals, p) in &self.initial {
            (env, locals).hash(&mut h);
            p.to_string().hash(&mut h);
        }
        self.moves.len().hash(&mut h);
        for (key, row) in &self.moves {
            key.hash(&mut h);
            row.len().hash(&mut h);
            for (action, p) in row {
                action.hash(&mut h);
                p.to_string().hash(&mut h);
            }
        }
        self.transitions.len().hash(&mut h);
        for (key, row) in &self.transitions {
            key.hash(&mut h);
            row.len().hash(&mut h);
            for (env, locals, p) in row {
                (env, locals).hash(&mut h);
                p.to_string().hash(&mut h);
            }
        }
        self.state_transitions.len().hash(&mut h);
        for rule in &self.state_transitions {
            (rule.env, &rule.locals, rule.time).hash(&mut h);
            rule.guard.hash(&mut h);
            rule.outcomes.len().hash(&mut h);
            for (env, locals, p) in &rule.outcomes {
                (env, locals).hash(&mut h);
                p.to_string().hash(&mut h);
            }
        }
        Fingerprint(h.finish())
    }
}

/// Validates that a move or transition distribution is well formed (used by
/// the unfolder and simulator before consuming model output).
///
/// # Errors
///
/// Returns a description of the violation, if any.
pub fn validate_distribution<T, P: Probability>(dist: &[(T, P)]) -> Result<(), String> {
    if dist.is_empty() {
        return Err("distribution is empty".to_string());
    }
    // A deterministic (single-entry) distribution — the common case for
    // protocol moves — is valid iff its probability is exactly one; skip
    // the accumulator loop.
    if let [(_, p)] = dist {
        if !p.is_one() {
            return Err(format!("distribution sums to {p}, expected 1"));
        }
        return Ok(());
    }
    let mut sum = P::zero();
    for (_, p) in dist {
        if !p.at_least(&P::zero()) || p.is_zero() {
            return Err(format!(
                "distribution entry has non-positive probability {p}"
            ));
        }
        sum.add_assign(p);
    }
    if !sum.is_one() {
        return Err(format!("distribution sums to {sum}, expected 1"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_core::state::SimpleState;
    use pak_num::Rational;

    /// The successor distribution of `m` at `(state, moves, time)`.
    fn transition_of(
        m: &TableModel<Rational>,
        state: &SimpleState,
        moves: &[Option<ActionId>],
        time: Time,
    ) -> Vec<(SimpleState, Rational)> {
        let mut out = Vec::new();
        m.transition(state, moves, time, &mut out);
        out
    }

    #[test]
    fn coin_model_shape() {
        let m = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let init: Vec<(CoinState, Rational)> = m.initial_states();
        assert_eq!(init.len(), 2);
        let total: Rational = init.iter().map(|(_, p)| p.clone()).sum();
        assert!(total.is_one());
        assert!(ProtocolModel::<Rational>::is_terminal(&m, &init[0].0, 1));
        assert!(!ProtocolModel::<Rational>::is_terminal(&m, &init[0].0, 0));
        let mut mv: Vec<((), Rational)> = Vec::new();
        m.moves(AgentId(0), &0, 0, &mut mv);
        assert_eq!(mv.len(), 1);
        assert_eq!(
            ProtocolModel::<Rational>::action_of(&m, &()),
            Some(COIN_ACT)
        );
    }

    #[test]
    fn validate_distribution_accepts_good() {
        let d = vec![
            ("a", Rational::from_ratio(1, 3)),
            ("b", Rational::from_ratio(2, 3)),
        ];
        assert!(validate_distribution(&d).is_ok());
    }

    #[test]
    fn validate_distribution_rejects_bad() {
        let empty: Vec<((), Rational)> = vec![];
        assert!(validate_distribution(&empty).is_err());
        let short = vec![((), Rational::from_ratio(1, 3))];
        assert!(validate_distribution(&short)
            .unwrap_err()
            .contains("sums to"));
        let zero = vec![((), Rational::zero()), ((), Rational::one())];
        assert!(validate_distribution(&zero)
            .unwrap_err()
            .contains("non-positive"));
    }

    #[test]
    fn table_model_defaults() {
        let m: TableModel<Rational> = TableModel {
            n_agents: 1,
            initial: vec![(0, vec![0], Rational::one())],
            horizon: 2,
            moves: vec![],
            transitions: vec![],
            ..TableModel::default()
        };
        // Default move is skip; default transition copies the state.
        let mut mv = Vec::new();
        ProtocolModel::<Rational>::moves(&m, AgentId(0), &0, 0, &mut mv);
        assert_eq!(mv.len(), 1);
        assert_eq!(m.action_of(&mv[0].0), None);
        let st = SimpleState::new(0, vec![0]);
        let tr = transition_of(&m, &st, &[None], 0);
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].0, st);
    }

    #[test]
    fn move_pattern_matching() {
        assert!(MovePattern::Any.matches(&None));
        assert!(MovePattern::Any.matches(&Some(ActionId(3))));
        assert!(MovePattern::Skip.matches(&None));
        assert!(!MovePattern::Skip.matches(&Some(ActionId(3))));
        assert!(MovePattern::Do(ActionId(3)).matches(&Some(ActionId(3))));
        assert!(!MovePattern::Do(ActionId(3)).matches(&Some(ActionId(4))));
        assert!(!MovePattern::Do(ActionId(3)).matches(&None));
    }

    /// Guarded state rules: declaration order decides among same-key rules,
    /// guards select on the joint move, and unmatched states fall through
    /// to the coarse `(env, time)` table, then to copy-unchanged.
    #[test]
    fn state_transitions_resolve_in_declaration_order() {
        let st = |env, locals: &[u64]| SimpleState::new(env, locals.to_vec());
        let m: TableModel<Rational> = TableModel {
            n_agents: 2,
            initial: vec![(0, vec![0, 0], Rational::one())],
            horizon: 2,
            transitions: vec![((7, 0), vec![(8, vec![0, 0], Rational::one())])],
            state_transitions: vec![
                StateTransition {
                    env: 0,
                    locals: vec![0, 0],
                    time: 0,
                    guard: vec![MovePattern::Do(ActionId(1)), MovePattern::Any],
                    outcomes: vec![(1, vec![1, 0], Rational::one())],
                },
                StateTransition {
                    env: 0,
                    locals: vec![0, 0],
                    time: 0,
                    guard: vec![],
                    outcomes: vec![(2, vec![0, 0], Rational::one())],
                },
            ],
            ..TableModel::default()
        };
        // Guard matches → first rule fires.
        let tr = transition_of(&m, &st(0, &[0, 0]), &[Some(ActionId(1)), None], 0);
        assert_eq!(tr, vec![(st(1, &[1, 0]), Rational::one())]);
        // Guard fails → unconditional fallback rule fires.
        let tr = transition_of(&m, &st(0, &[0, 0]), &[None, None], 0);
        assert_eq!(tr, vec![(st(2, &[0, 0]), Rational::one())]);
        // Different locals → no state rule; env 7 hits the (env, time) table.
        let tr = transition_of(&m, &st(7, &[0, 1]), &[None, None], 0);
        assert_eq!(tr, vec![(st(8, &[0, 0]), Rational::one())]);
        // No rule anywhere → copy unchanged.
        let tr = transition_of(&m, &st(3, &[0, 1]), &[None, None], 1);
        assert_eq!(tr, vec![(st(3, &[0, 1]), Rational::one())]);
        // The query appends: entries already in the buffer are kept.
        let mut out = vec![(st(9, &[9, 9]), Rational::zero())];
        m.transition(&st(0, &[0, 0]), &[Some(ActionId(1)), None], 0, &mut out);
        assert_eq!(
            out,
            vec![
                (st(9, &[9, 9]), Rational::zero()),
                (st(1, &[1, 0]), Rational::one())
            ]
        );
    }

    /// The sorted-position binary search agrees with a naive linear scan on
    /// every (state, move, time) probe of a model with duplicate and
    /// adjacent keys.
    #[test]
    fn state_rule_index_matches_linear_scan() {
        let rules: Vec<StateTransition<Rational>> = (0..24)
            .map(|i| StateTransition {
                env: u64::from(i % 3),
                locals: vec![u64::from(i % 2), u64::from((i / 3) % 2)],
                time: i % 2,
                guard: match i % 4 {
                    0 => vec![],
                    1 => vec![MovePattern::Skip, MovePattern::Any],
                    2 => vec![MovePattern::Do(ActionId(i)), MovePattern::Any],
                    _ => vec![MovePattern::Any, MovePattern::Do(ActionId(i))],
                },
                outcomes: vec![(u64::from(100 + i), vec![0, 0], Rational::one())],
            })
            .collect();
        let m: TableModel<Rational> = TableModel {
            n_agents: 2,
            initial: vec![(0, vec![0, 0], Rational::one())],
            horizon: 2,
            state_transitions: rules,
            ..TableModel::default()
        };
        let joint_moves: Vec<Vec<Option<ActionId>>> = vec![
            vec![None, None],
            vec![Some(ActionId(2)), None],
            vec![None, Some(ActionId(7))],
            vec![Some(ActionId(1)), Some(ActionId(3))],
        ];
        for env in 0..4u64 {
            for l0 in 0..2u64 {
                for l1 in 0..3u64 {
                    for time in 0..3u32 {
                        let state = SimpleState::new(env, vec![l0, l1]);
                        for mv in &joint_moves {
                            let linear = m.state_transitions.iter().find(|r| {
                                r.env == env
                                    && r.locals == [l0, l1]
                                    && r.time == time
                                    && (r.guard.is_empty()
                                        || r.guard.iter().zip(mv).all(|(g, m)| g.matches(m)))
                            });
                            let expected = linear.map_or_else(
                                || vec![(state.clone(), Rational::one())],
                                |r| {
                                    r.outcomes
                                        .iter()
                                        .map(|(e, ls, p)| {
                                            (SimpleState::new(*e, ls.clone()), p.clone())
                                        })
                                        .collect()
                                },
                            );
                            assert_eq!(transition_of(&m, &state, mv, time), expected);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fingerprint_covers_state_transitions() {
        let base: TableModel<Rational> = TableModel {
            n_agents: 1,
            initial: vec![(0, vec![0], Rational::one())],
            horizon: 1,
            ..TableModel::default()
        };
        let mut guarded = base.clone();
        guarded.state_transitions.push(StateTransition {
            env: 0,
            locals: vec![0],
            time: 0,
            guard: vec![MovePattern::Skip],
            outcomes: vec![(1, vec![0], Rational::one())],
        });
        assert_ne!(base.fingerprint(), guarded.fingerprint());
        let mut reguarded = guarded.clone();
        reguarded.state_transitions[0].guard = vec![MovePattern::Any];
        assert_ne!(guarded.fingerprint(), reguarded.fingerprint());
    }
}
