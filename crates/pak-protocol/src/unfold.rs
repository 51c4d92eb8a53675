//! Bounded-horizon unfolding of a protocol into a pps.
//!
//! Given a [`ProtocolModel`], the unfolder
//! enumerates every reachable branching — initial states, each agent's mixed
//! move choices (the cartesian product across agents), and the environment's
//! probabilistic resolution — and materialises the paper's tree `T = (V, E,
//! π)` as a validated [`Pps`]. Successor states that coincide are *merged*
//! (their probabilities added): this keeps trees small (e.g. losing message
//! copy 1 vs copy 2 of an identical payload leads to the same global state)
//! and changes none of the measures, local states, or action events the
//! theory depends on.
//!
//! # Merge contract
//!
//! Two successors of a node are merged exactly when their joint-action
//! labels and their global states both compare equal. Every successor
//! state is first *interned* into the builder's
//! [`StatePool`](pak_core::intern::StatePool) — a hash-keyed arena storing
//! each distinct state once — so the merge probe compares copyable
//! [`StateId`]s instead of full states, and no state is ever cloned into
//! the frontier or the tree. This is why [`GlobalState`] and
//! [`ProtocolModel::Move`] require `Eq + Hash`. The contract on
//! implementors is the standard one: equal states must hash equal.
//! Equality that distinguishes more (or fewer) states is *safe* — it only
//! changes the size of the unfolded tree, never any run probability, local
//! state, or action event — but `Hash`/`Eq` incoherence (equal values
//! hashing differently) would leave duplicate children carrying split
//! probability mass, so the derived implementations are strongly
//! recommended.
//!
//! # Purity contract
//!
//! The unfolder queries the model through [`ProtocolModel::moves`] and
//! [`ProtocolModel::transition`], appending into cleared-and-reused
//! scratch buffers (no allocation per query), and treats both — and
//! [`ProtocolModel::is_terminal`] — as *pure functions* of their
//! arguments (see [`mod@crate::model`]): because interning makes state
//! identity explicit, expansions are memoized per state within a level
//! and replayed for every tree node of the level that revisits the
//! state, so the model's methods may be called once where a naive
//! enumeration would call them many times. Models whose distributions
//! depend on hidden mutable state would produce unspecified (though still
//! validated) trees — no model in this workspace does.
//!
//! # Level-order growth
//!
//! The frontier is processed in **level order**: every node of time `t`
//! is expanded before any node of time `t + 1`. This makes the
//! horizon-`h` tree a strict *prefix* of the horizon-`h + 1` tree — node
//! ids, pool ids, arenas and all — and it is how every tree is built:
//! the unfolder seeds only the prior through a [`PpsBuilder`], then
//! appends one level at a time through a [`PpsExtender`], which
//! validates the level and repairs the run and cell indexes in place. A
//! retained [`Unfolder`] keeps the model, the scratch buffers, and the
//! frontier alive between calls, so [`Unfolder::extend_horizon`] grows a
//! finished tree by the same step that built it. A tree grown
//! to horizon `h` is therefore the tree a capped unfold
//! ([`UnfoldConfig::horizon`]) returns, and the differential suites
//! (`tests/unfold_differential.rs`, `tests/systems_unfold_smoke.rs`,
//! `tests/dsl_differential.rs`) check every grown tree against the
//! builder's whole-tree pass over the same nodes.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use pak_core::cancel::CancelToken;
use pak_core::error::PpsError;
use pak_core::failpoint::{self, Fault};
use pak_core::hash::{FxBuildHasher, FxHasher};
use pak_core::ids::{ActionId, AgentId, NodeId, StateId, Time};
use pak_core::pps::{Pps, PpsBuilder, PpsExtender};
use pak_core::prob::Probability;
use pak_core::state::GlobalState;

use crate::model::{validate_distribution, ProtocolModel};

/// Limits and options for unfolding.
#[derive(Debug, Clone)]
pub struct UnfoldConfig {
    /// Hard cap on the number of global-state tree nodes (the phantom root
    /// `λ` is not counted); unfolding fails rather than exhausting memory.
    /// A model whose tree has exactly `N` state nodes unfolds successfully
    /// with `max_nodes = N` and fails with `N - 1`. Defaults to `1 << 20`.
    pub max_nodes: usize,
    /// Optional hard cap on depth (a safety net for models whose
    /// `is_terminal` never fires). `None` trusts the model.
    pub max_depth: Option<u32>,
    /// Optional truncating horizon: expansion stops once the frontier
    /// reaches this time, keeping the nodes there as leaves even where the
    /// model is not yet terminal (`Some(0)` yields just the prior).
    /// Unlike [`UnfoldConfig::max_depth`] — a safety net whose violation
    /// is an *error* — hitting the horizon is a normal, successful stop:
    /// it is how a from-scratch unfold reproduces the intermediate trees
    /// of incremental growth ([`Unfolder::extend_horizon`]), which is
    /// exactly what the differential harness compares. `None` (the
    /// default) trusts [`ProtocolModel::is_terminal`] alone.
    pub horizon: Option<Time>,
}

impl Default for UnfoldConfig {
    fn default() -> Self {
        UnfoldConfig {
            max_nodes: 1 << 20,
            max_depth: Some(64),
            horizon: None,
        }
    }
}

/// Error produced by [`unfold`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum UnfoldError {
    /// The model emitted a malformed distribution (empty, non-positive
    /// entry, or not summing to one).
    BadModelDistribution {
        /// Where the bad distribution came from.
        origin: &'static str,
        /// Description of the violation.
        detail: String,
    },
    /// The unfolding exceeded [`UnfoldConfig::max_nodes`].
    TooLarge {
        /// The configured limit.
        max_nodes: usize,
    },
    /// The depth cap was hit before every path terminated.
    DepthExceeded {
        /// The configured limit.
        max_depth: u32,
    },
    /// The resulting tree failed pps validation (should not happen for
    /// well-formed models; indicates a model bug such as f64 distributions
    /// drifting outside tolerance).
    Pps(PpsError),
    /// A [`CancelToken`] tripped (explicit cancellation or a blown
    /// deadline). The unfolder handle remains valid at the horizon of
    /// the last *committed* level — see
    /// [`Unfolder::extend_horizon_with`].
    Cancelled,
}

impl fmt::Display for UnfoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnfoldError::BadModelDistribution { origin, detail } => {
                write!(f, "model produced a bad distribution in {origin}: {detail}")
            }
            UnfoldError::TooLarge { max_nodes } => {
                write!(
                    f,
                    "unfolding exceeded the configured limit of {max_nodes} nodes"
                )
            }
            UnfoldError::DepthExceeded { max_depth } => {
                write!(
                    f,
                    "unfolding exceeded the depth cap of {max_depth} without terminating"
                )
            }
            UnfoldError::Pps(e) => write!(f, "unfolded tree failed validation: {e}"),
            UnfoldError::Cancelled => {
                write!(f, "unfolding was cancelled (deadline or explicit cancel)")
            }
        }
    }
}

impl std::error::Error for UnfoldError {}

impl From<PpsError> for UnfoldError {
    fn from(e: PpsError) -> Self {
        UnfoldError::Pps(e)
    }
}

/// Unfolds a protocol model into a purely probabilistic system with the
/// default limits.
///
/// # Errors
///
/// See [`UnfoldError`].
///
/// # Examples
///
/// ```
/// use pak_protocol::model::{CoinModel, COIN_ACT};
/// use pak_protocol::unfold::unfold;
/// use pak_core::prelude::*;
/// use pak_num::Rational;
///
/// let m = CoinModel { heads_num: 99, heads_den: 100 };
/// let pps = unfold::<_, Rational>(&m).unwrap();
/// assert_eq!(pps.num_runs(), 2);
/// assert!(pps.is_proper(AgentId(0), COIN_ACT));
/// ```
pub fn unfold<M, P>(model: &M) -> Result<Pps<M::Global, P>, UnfoldError>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    unfold_with(model, &UnfoldConfig::default())
}

/// Unfolds a protocol model with explicit limits.
///
/// # Errors
///
/// See [`UnfoldError`].
pub fn unfold_with<M, P>(model: &M, config: &UnfoldConfig) -> Result<Pps<M::Global, P>, UnfoldError>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    Ok(Unfolder::new(model, config.clone())?.into_pps())
}

/// Sentinel for "no memoized expansion" in [`ExpansionCore`]'s memo.
const EXPANSION_NONE: u32 = u32::MAX;

/// The expansion engine: the frontier and every reusable buffer of the
/// expansion loop, kept separate from the tree being grown (the
/// [`PpsExtender`]) so a failed level rolls each back on its own; a
/// retained [`Unfolder`] keeps the engine — scratch, frontier and all —
/// alive across horizon extensions.
///
/// The frontier is processed strictly in **level order** (all of time `t`
/// before any of time `t + 1`), which makes every horizon-`h` tree a
/// prefix of the horizon-`h + 1` tree and is what grounds the
/// grown-equals-rebuilt bit-identity contract.
///
/// Interning makes repeated work *visible*: two frontier nodes of one
/// level carrying the same `StateId` expand to bit-identical successor
/// lists (the model's methods are pure functions of the state and time),
/// so the merged expansion is computed once per distinct state and
/// replayed for every further node of the level that reaches it.
/// Unfolded trees revisit states heavily — merging and environment
/// branching both funnel into shared states — which makes this the main
/// saving of the interned pipeline.
/// Alongside each successor list the memo keeps the nodes of the
/// *first* emission: replays go through [`PpsExtender::append_replay`]
/// (state, probability, and actions shared from the template nodes — no
/// per-edge re-validation, no copies, and no second distribution sum at
/// commit).
/// The memo covers only the level being expanded: every node of a level
/// sits at one time, and a later level can never hit an earlier level's
/// entry, so the memo is one row indexed by `StateId` (bounded by the
/// state pool, itself at most `max_nodes`), and it is reset when the
/// level commits or rolls back.
struct ExpansionCore<'m, M: ProtocolModel<P>, P: Probability> {
    model: &'m M,
    n_agents: u32,
    /// State nodes emitted so far (the phantom root is not counted).
    node_count: usize,
    /// The current level's nodes still to expand, all at one time and in
    /// ascending node order: (node, interned state). States live once in
    /// the tree's pool; the frontier carries copyable ids, never clones.
    /// Only non-terminal nodes ever enter (`is_terminal` is consulted once
    /// per memoized successor, and replays reuse the verdict).
    frontier: Vec<(NodeId, StateId)>,
    /// The next level's frontier, filled while the current one expands.
    next: Vec<(NodeId, StateId)>,
    // --- the open level's expansion memo ---
    /// Each state's memoized expansion at the open level, indexed by
    /// `StateId` ([`EXPANSION_NONE`] where there is none).
    memo: Vec<u32>,
    /// Memoized expansions: `(start, count, first child)` — the
    /// expansion's successors are `successors[start..start + count]`, and
    /// its first emission's children were inserted back to back from
    /// `first child`, which names the template range for bulk replay.
    expansions: Vec<(u32, u32, NodeId)>,
    /// The memoized successor lists, flat: each successor's interned
    /// state and whether it is still live (not terminal) one step later.
    successors: Vec<(StateId, bool)>,
    /// The states whose `memo` slot the open level has set, cleared back
    /// to [`EXPANSION_NONE`] when the level ends
    /// ([`ExpansionCore::end_level`]).
    memo_added: Vec<StateId>,
    // --- per-expansion scratch, cleared (not reallocated) per miss ---
    /// Each agent's move distribution, filled through
    /// [`ProtocolModel::moves`].
    per_agent: Vec<Vec<(M::Move, P)>>,
    /// Merge probe: hash of `(actions, successor id)` → the latest
    /// successor slot with that hash; `chain[slot]` is the slot before it
    /// with the same hash ([`EXPANSION_NONE`] ends the chain). Neither
    /// allocates once warm.
    index: HashMap<u64, u32, FxBuildHasher>,
    chain: Vec<u32>,
    /// The joint move under construction (odometer over `per_agent`).
    joint: Vec<M::Move>,
    /// Odometer counters, one per agent.
    counters: Vec<usize>,
    /// The action labels of the joint move under construction.
    actions: Vec<(AgentId, ActionId)>,
    /// The environment's successor distribution, filled through
    /// [`ProtocolModel::transition`].
    outcomes: Vec<(M::Global, P)>,
    /// The merged successors of the expansion under construction: state,
    /// range of its action labels in `merged_actions`, and accumulated
    /// probability per distinct `(actions, state)` child.
    merged: Vec<(StateId, (u32, u32), P)>,
    merged_actions: Vec<(AgentId, ActionId)>,
}

impl<M, P> Clone for ExpansionCore<'_, M, P>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    fn clone(&self) -> Self {
        ExpansionCore {
            model: self.model,
            n_agents: self.n_agents,
            node_count: self.node_count,
            frontier: self.frontier.clone(),
            next: self.next.clone(),
            memo: self.memo.clone(),
            expansions: self.expansions.clone(),
            successors: self.successors.clone(),
            memo_added: self.memo_added.clone(),
            per_agent: self.per_agent.clone(),
            index: self.index.clone(),
            chain: self.chain.clone(),
            joint: self.joint.clone(),
            counters: self.counters.clone(),
            actions: self.actions.clone(),
            outcomes: self.outcomes.clone(),
            merged: self.merged.clone(),
            merged_actions: self.merged_actions.clone(),
        }
    }
}

impl<'m, M, P> ExpansionCore<'m, M, P>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    fn new(model: &'m M, n_agents: u32) -> Self {
        ExpansionCore {
            model,
            n_agents,
            node_count: 0,
            frontier: Vec::new(),
            next: Vec::new(),
            memo: Vec::new(),
            expansions: Vec::new(),
            successors: Vec::new(),
            memo_added: Vec::new(),
            per_agent: (0..n_agents).map(|_| Vec::new()).collect(),
            index: HashMap::default(),
            chain: Vec::new(),
            joint: Vec::with_capacity(n_agents as usize),
            counters: vec![0; n_agents as usize],
            actions: Vec::new(),
            outcomes: Vec::new(),
            merged: Vec::new(),
            merged_actions: Vec::new(),
        }
    }

    /// Seeds a pre-validated prior into a fresh builder and the level-0
    /// frontier.
    fn seed(
        &mut self,
        builder: &mut PpsBuilder<M::Global, P>,
        initial: Vec<(M::Global, P)>,
    ) -> Result<(), UnfoldError> {
        for (state, p) in initial {
            let sid = builder.intern(state);
            let id = builder.initial_interned(sid, p)?;
            self.node_count += 1;
            if !self.model.is_terminal(builder.state(sid), 0) {
                self.frontier.push((id, sid));
            }
        }
        Ok(())
    }

    fn memo_get(&self, sid: StateId) -> u32 {
        self.memo
            .get(sid.index())
            .copied()
            .unwrap_or(EXPANSION_NONE)
    }

    fn memo_insert(&mut self, sid: StateId, slot: u32) {
        if self.memo.len() <= sid.index() {
            self.memo.resize(sid.index() + 1, EXPANSION_NONE);
        }
        self.memo[sid.index()] = slot;
        self.memo_added.push(sid);
    }

    /// Expands every node of the current frontier (all at `time`) into
    /// the open level of `sink`, collecting the next level's frontier in
    /// `self.next`. The current frontier is left intact in both outcomes
    /// — the caller promotes the new level
    /// ([`ExpansionCore::promote_level`]) once
    /// [`PpsExtender::commit_level`] has accepted it, which is what lets a
    /// failed commit roll back without a frontier snapshot. On error the
    /// caller rolls the engine back ([`ExpansionCore::rollback_level`])
    /// and aborts the level. When `cancel` is set, the token is polled
    /// once per frontier node and trips through the same error path as a
    /// model failure ([`UnfoldError::Cancelled`]).
    fn expand_level(
        &mut self,
        sink: &mut PpsExtender<M::Global, P>,
        time: Time,
        config: &UnfoldConfig,
        cancel: Option<&CancelToken>,
    ) -> Result<(), UnfoldError> {
        debug_assert!(self.next.is_empty() && self.memo_added.is_empty());
        let mut i = 0;
        while i < self.frontier.len() {
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    return Err(UnfoldError::Cancelled);
                }
            }
            let (node, sid) = self.frontier[i];
            i += 1;
            let memo_slot = self.memo_get(sid);
            if memo_slot != EXPANSION_NONE {
                let (start, count, first_template) = self.expansions[memo_slot as usize];
                self.node_count += count as usize;
                if self.node_count > config.max_nodes {
                    return Err(UnfoldError::TooLarge {
                        max_nodes: config.max_nodes,
                    });
                }
                // One bulk column copy for the whole expansion instead of
                // `count` interleaved pushes.
                let base = sink.append_replay(node, first_template, count as usize);
                let replayed = &self.successors[start as usize..(start + count) as usize];
                for (k, &(succ_id, live)) in replayed.iter().enumerate() {
                    if live {
                        self.next.push((NodeId(base.0 + k as u32), succ_id));
                    }
                }
            } else {
                self.expand(sink, node, sid, time, config)?;
            }
        }
        Ok(())
    }

    /// Retires the expanded frontier and installs the level
    /// [`ExpansionCore::expand_level`] collected in its place.
    fn promote_level(&mut self) {
        self.frontier.clear();
        std::mem::swap(&mut self.frontier, &mut self.next);
        self.end_level();
    }

    /// Rolls the engine back to the state it held before the failed (or
    /// commit-rejected) [`ExpansionCore::expand_level`]: discards the
    /// half-built next level (the expanded frontier is still in place —
    /// it only retires at [`ExpansionCore::promote_level`]), drops the
    /// level's memo, and restores the node count.
    fn rollback_level(&mut self, node_count: usize) {
        self.next.clear();
        self.node_count = node_count;
        self.end_level();
    }

    /// Empties the memo of the level that just ended; the row and the
    /// arenas keep their capacity for the next level.
    fn end_level(&mut self) {
        for sid in self.memo_added.drain(..) {
            self.memo[sid.index()] = EXPANSION_NONE;
        }
        self.expansions.clear();
        self.successors.clear();
    }

    /// Computes a fresh expansion of `sid` at `time`, emits its children
    /// under `node`, and memoizes the successor list.
    fn expand(
        &mut self,
        sink: &mut PpsExtender<M::Global, P>,
        node: NodeId,
        sid: StateId,
        time: u32,
        config: &UnfoldConfig,
    ) -> Result<(), UnfoldError> {
        match failpoint::check("unfold.expand") {
            None => {}
            Some(Fault::Error) => {
                return Err(UnfoldError::BadModelDistribution {
                    origin: "failpoint",
                    detail: "injected fault at unfold.expand".to_owned(),
                });
            }
            Some(Fault::Cancel) => return Err(UnfoldError::Cancelled),
            Some(Fault::Panic) => panic!("failpoint unfold.expand: injected panic"),
        }
        // Gather each agent's mixed move distribution from its local
        // state, into the per-agent scratch buffers.
        for a in 0..self.n_agents {
            let agent = AgentId(a);
            let local = sink.state(sid).local(agent);
            let dist = &mut self.per_agent[a as usize];
            dist.clear();
            self.model.moves(agent, &local, time, dist);
            validate_distribution(dist).map_err(|detail| UnfoldError::BadModelDistribution {
                origin: "moves",
                detail,
            })?;
        }

        // Enumerate the cartesian product of joint moves (an odometer
        // over the per-agent scratch — each joint move is assembled in
        // one reused buffer), resolve each via the environment, and
        // merge identical successors. Each successor is interned first
        // (one hash + `Eq` confirmation inside the pool), so the merge
        // index compares `(actions, StateId)` — a repeated successor
        // costs one hash and one id comparison, with no state clone or
        // allocation at all.
        self.merged.clear();
        self.merged_actions.clear();
        self.index.clear();
        self.chain.clear();
        for c in &mut self.counters {
            *c = 0;
        }
        loop {
            self.joint.clear();
            self.actions.clear();
            // Deterministic moves (probability one — the common case)
            // leave the accumulator untouched instead of paying a
            // multiply-by-one per agent per joint move.
            let mut p_joint: Option<P> = None;
            for (i, &c) in self.counters.iter().enumerate() {
                let (mv, p) = &self.per_agent[i][c];
                if let Some(act) = self.model.action_of(mv) {
                    self.actions.push((AgentId(i as u32), act));
                }
                self.joint.push(mv.clone());
                if !p.is_one() {
                    p_joint = Some(match p_joint {
                        None => p.clone(),
                        Some(q) => q.mul(p),
                    });
                }
            }
            self.outcomes.clear();
            self.model
                .transition(sink.state(sid), &self.joint, time, &mut self.outcomes);
            validate_distribution(&self.outcomes).map_err(|detail| {
                UnfoldError::BadModelDistribution {
                    origin: "transition",
                    detail,
                }
            })?;
            for (succ, p_env) in self.outcomes.drain(..) {
                // `p_env` is owned here, so the all-deterministic case
                // forwards it without a clone or a multiply.
                let p = match &p_joint {
                    None => p_env,
                    Some(q) => q.mul(&p_env),
                };
                let succ_id = sink.intern(succ);
                let mut hasher = FxHasher::default();
                self.actions.hash(&mut hasher);
                succ_id.hash(&mut hasher);
                let hash = hasher.finish();
                let mut slot = self.index.get(&hash).copied().unwrap_or(EXPANSION_NONE);
                while slot != EXPANSION_NONE {
                    let (id, (lo, hi), _) = &self.merged[slot as usize];
                    if *id == succ_id
                        && self.merged_actions[*lo as usize..*hi as usize] == self.actions
                    {
                        break;
                    }
                    slot = self.chain[slot as usize];
                }
                if slot == EXPANSION_NONE {
                    let slot = self.merged.len() as u32;
                    let previous = self.index.insert(hash, slot);
                    self.chain.push(previous.unwrap_or(EXPANSION_NONE));
                    let lo = self.merged_actions.len() as u32;
                    self.merged_actions.extend_from_slice(&self.actions);
                    let range = (lo, self.merged_actions.len() as u32);
                    self.merged.push((succ_id, range, p));
                } else {
                    self.merged[slot as usize].2.add_assign(&p);
                }
            }
            // Advance the odometer.
            let mut i = 0;
            loop {
                if i == self.counters.len() {
                    return self.finish_expansion(sink, node, sid, time, config);
                }
                self.counters[i] += 1;
                if self.counters[i] < self.per_agent[i].len() {
                    break;
                }
                self.counters[i] = 0;
                i += 1;
            }
        }
    }

    /// Emits the merged successors under `node` and memoizes them.
    fn finish_expansion(
        &mut self,
        sink: &mut PpsExtender<M::Global, P>,
        node: NodeId,
        sid: StateId,
        time: u32,
        config: &UnfoldConfig,
    ) -> Result<(), UnfoldError> {
        let start = self.successors.len() as u32;
        let count = self.merged.len() as u32;
        let mut first_child = NodeId::ROOT;
        for (i, (succ_id, (lo, hi), p)) in self.merged.drain(..).enumerate() {
            self.node_count += 1;
            if self.node_count > config.max_nodes {
                return Err(UnfoldError::TooLarge {
                    max_nodes: config.max_nodes,
                });
            }
            let actions = &self.merged_actions[lo as usize..hi as usize];
            let child = sink.append_child(node, succ_id, p, actions)?;
            if i == 0 {
                first_child = child;
            }
            let live = !self.model.is_terminal(sink.state(succ_id), time + 1);
            if live {
                self.next.push((child, succ_id));
            }
            self.successors.push((succ_id, live));
        }
        let slot = self.expansions.len() as u32;
        self.memo_insert(sid, slot);
        self.expansions.push((start, count, first_child));
        Ok(())
    }
}

/// A retained unfolding session supporting **incremental horizon
/// extension**: the model, the scratch buffers, the
/// [`StatePool`](pak_core::intern::StatePool), the per-agent local pools,
/// and the leaf frontier all stay alive across calls, so growing a tree
/// from horizon `h` to `h + 1` ([`Unfolder::extend_horizon`]) expands
/// only the previous leaf frontier and incrementally repairs the derived
/// run/cell indexes through a [`PpsExtender`]. [`Unfolder::new`] builds
/// its first tree by the same level step, so [`unfold_with`] is
/// `Unfolder::new(..)?.into_pps()`.
///
/// A tree grown to horizon `h` is therefore the tree of a capped unfold
/// (`UnfoldConfig { horizon: Some(h), .. }`), and the differential
/// suites check it against the whole-tree build pass over the same
/// nodes. On error, `extend_horizon` rolls both the engine and the tree
/// back to the previous horizon and the handle stays usable.
///
/// # Examples
///
/// ```
/// use pak_protocol::model::CoinModel;
/// use pak_protocol::unfold::{UnfoldConfig, Unfolder};
/// use pak_num::Rational;
///
/// let m = CoinModel { heads_num: 1, heads_den: 2 };
/// // Build just the prior (horizon 0), then grow one level at a time.
/// let cfg = UnfoldConfig { horizon: Some(0), ..UnfoldConfig::default() };
/// let mut u = Unfolder::<_, Rational>::new(&m, cfg).unwrap();
/// assert_eq!(u.pps().num_nodes(), 3); // root λ + the two initial states
/// assert!(u.extend_horizon().unwrap());
/// assert_eq!(u.pps().num_nodes(), 5); // the coin resolves at time 1
/// assert!(!u.extend_horizon().unwrap()); // every path has terminated
/// assert_eq!(u.horizon(), 1);
/// ```
pub struct Unfolder<'m, M: ProtocolModel<P>, P: Probability> {
    config: UnfoldConfig,
    core: ExpansionCore<'m, M, P>,
    extender: PpsExtender<M::Global, P>,
    /// The time the retained frontier sits at: every level strictly below
    /// it has been expanded.
    horizon: Time,
}

impl<M, P> Clone for Unfolder<'_, M, P>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    fn clone(&self) -> Self {
        Unfolder {
            config: self.config.clone(),
            core: self.core.clone(),
            extender: self.extender.clone(),
            horizon: self.horizon,
        }
    }
}

impl<M, P> fmt::Debug for Unfolder<'_, M, P>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Unfolder")
            .field("horizon", &self.horizon)
            .field("num_nodes", &self.extender.pps().num_nodes())
            .field("frontier", &self.core.frontier.len())
            .finish_non_exhaustive()
    }
}

impl<'m, M, P> Unfolder<'m, M, P>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    /// Unfolds `model` up to `config.horizon` (or to exhaustion when it is
    /// `None`) and retains everything needed to grow further: the prior
    /// is built through a [`PpsBuilder`], then every level is committed
    /// by the step [`Unfolder::extend_horizon`] uses.
    ///
    /// # Errors
    ///
    /// See [`UnfoldError`].
    pub fn new(model: &'m M, config: UnfoldConfig) -> Result<Self, UnfoldError> {
        let n_agents = model.n_agents();
        let initial = model.initial_states();
        validate_distribution(&initial).map_err(|detail| UnfoldError::BadModelDistribution {
            origin: "initial_states",
            detail,
        })?;
        if initial.len() > config.max_nodes {
            return Err(UnfoldError::TooLarge {
                max_nodes: config.max_nodes,
            });
        }
        let mut core = ExpansionCore::new(model, n_agents);
        let mut prior = PpsBuilder::new(n_agents);
        core.seed(&mut prior, initial)?;
        let mut unfolder = Unfolder {
            extender: PpsExtender::new(prior.build()?),
            config,
            core,
            horizon: 0,
        };
        while unfolder.config.horizon != Some(unfolder.horizon) && unfolder.grow_level(None)? {}
        Ok(unfolder)
    }

    /// The system unfolded so far. Valid (and queryable) after every
    /// successful call — extension repairs the indexes level by level.
    pub fn pps(&self) -> &Pps<M::Global, P> {
        self.extender.pps()
    }

    /// The horizon the tree currently stands at: the time of the retained
    /// frontier. Every level strictly below it is fully expanded; equals
    /// the final frontier time once growth is exhausted.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Whether the tree can still grow: true while the retained frontier
    /// is non-empty, false once every path has terminated.
    pub fn can_extend(&self) -> bool {
        !self.core.frontier.is_empty()
    }

    /// Grows the tree by one level: expands the retained leaf frontier
    /// (memoizing each state's expansion within the level), appends the new
    /// nodes, and incrementally repairs the run and cell indexes. Returns
    /// `Ok(true)` if a level was added, `Ok(false)` if every path had
    /// already terminated (the tree is complete; calling again stays
    /// `Ok(false)`).
    ///
    /// The result after `extend_horizon` is bit-identical to a
    /// from-scratch unfold capped one level deeper — see the type-level
    /// docs for the exactness contract.
    ///
    /// # Errors
    ///
    /// [`UnfoldError::TooLarge`], [`UnfoldError::DepthExceeded`],
    /// [`UnfoldError::BadModelDistribution`], or [`UnfoldError::Pps`],
    /// exactly as the equivalent from-scratch unfold would report them.
    /// On error the half-built level is rolled back — nodes, pool
    /// entries, the level's memo, frontier — and the handle remains usable at
    /// its previous horizon.
    pub fn extend_horizon(&mut self) -> Result<bool, UnfoldError> {
        self.extend_inner(None)
    }

    /// As [`Unfolder::extend_horizon`], polling `cancel` at the level
    /// boundary and once per frontier node inside the level.
    ///
    /// # Errors
    ///
    /// As [`Unfolder::extend_horizon`], plus [`UnfoldError::Cancelled`]
    /// when the token trips. Cancellation takes the same rollback path
    /// as a model error: the half-built level is unwound via the
    /// extender's level-abort protocol and the handle remains a valid,
    /// bit-identical tree at its pre-call horizon — a later retry (with
    /// a fresh token) reproduces the uninterrupted extension exactly.
    pub fn extend_horizon_with(&mut self, cancel: &CancelToken) -> Result<bool, UnfoldError> {
        self.extend_inner(Some(cancel))
    }

    fn extend_inner(&mut self, cancel: Option<&CancelToken>) -> Result<bool, UnfoldError> {
        if self.core.frontier.is_empty() {
            return Ok(false);
        }
        match failpoint::check("extend.level") {
            None => {}
            Some(Fault::Error) => {
                return Err(UnfoldError::BadModelDistribution {
                    origin: "failpoint",
                    detail: "injected fault at extend.level".to_owned(),
                });
            }
            Some(Fault::Cancel) => return Err(UnfoldError::Cancelled),
            Some(Fault::Panic) => panic!("failpoint extend.level: injected panic"),
        }
        if let Some(token) = cancel {
            if token.is_cancelled() {
                return Err(UnfoldError::Cancelled);
            }
        }
        self.grow_level(cancel)
    }

    /// The one step every tree grows by: expands the retained frontier
    /// into a new level and commits it. Returns `Ok(false)` once every
    /// path has terminated. On error both the engine and the tree are
    /// rolled back to the previous horizon.
    fn grow_level(&mut self, cancel: Option<&CancelToken>) -> Result<bool, UnfoldError> {
        if self.core.frontier.is_empty() {
            return Ok(false);
        }
        if let Some(d) = self.config.max_depth {
            if self.horizon >= d {
                return Err(UnfoldError::DepthExceeded { max_depth: d });
            }
        }
        let node_count = self.core.node_count;
        self.extender.begin_level();
        if let Err(e) =
            self.core
                .expand_level(&mut self.extender, self.horizon, &self.config, cancel)
        {
            self.extender.abort_level();
            self.core.rollback_level(node_count);
            return Err(e);
        }
        if let Err(e) = self.extender.commit_level() {
            // Validation failure: commit_level has already unwound the
            // appended level; the old frontier is still in place (levels
            // promote only after a successful commit), so rolling back
            // the engine restores everything.
            self.core.rollback_level(node_count);
            return Err(UnfoldError::Pps(e));
        }
        self.core.promote_level();
        self.horizon += 1;
        Ok(true)
    }

    /// Consumes the handle, returning the grown system.
    pub fn into_pps(self) -> Pps<M::Global, P> {
        self.extender.into_pps()
    }
}

/// Iterator over the cartesian product of per-agent move distributions,
/// yielding each joint move with its product probability.
///
/// For distributions of sizes `k_1, …, k_n` the iterator yields exactly
/// `k_1 · k_2 · … · k_n` joint moves, and the yielded probabilities sum to
/// one whenever every input distribution does (the product distribution).
/// An empty list of distributions yields the single empty joint move with
/// probability one (the empty product); any *individual* empty
/// distribution yields nothing (there is no joint move to form).
///
/// # Examples
///
/// ```
/// use pak_protocol::unfold::CartesianMoves;
/// use pak_num::Rational;
/// use pak_core::prob::Probability;
///
/// let d = vec![
///     ("a", Rational::from_ratio(1, 2)),
///     ("b", Rational::from_ratio(1, 2)),
/// ];
/// let all: Vec<_> = CartesianMoves::new(&[d.clone(), d]).collect();
/// assert_eq!(all.len(), 4);
/// let total: Rational = all.iter().map(|(_, p)| p.clone()).sum();
/// assert!(total.is_one());
/// ```
#[derive(Debug)]
pub struct CartesianMoves<'a, T, P> {
    dists: &'a [Vec<(T, P)>],
    counters: Vec<usize>,
    done: bool,
}

impl<'a, T, P> CartesianMoves<'a, T, P> {
    /// Creates the product iterator over `dists`.
    pub fn new(dists: &'a [Vec<(T, P)>]) -> Self {
        CartesianMoves {
            dists,
            counters: vec![0; dists.len()],
            done: dists.iter().any(Vec::is_empty),
        }
    }
}

impl<T: Clone, P: Probability> Iterator for CartesianMoves<'_, T, P> {
    type Item = (Vec<T>, P);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut joint = Vec::with_capacity(self.dists.len());
        let mut prob = P::one();
        for (i, &c) in self.counters.iter().enumerate() {
            let (mv, p) = &self.dists[i][c];
            joint.push(mv.clone());
            prob = prob.mul(p);
        }
        // Advance odometer.
        let mut i = 0;
        loop {
            if i == self.counters.len() {
                self.done = true;
                break;
            }
            self.counters[i] += 1;
            if self.counters[i] < self.dists[i].len() {
                break;
            }
            self.counters[i] = 0;
            i += 1;
        }
        Some((joint, prob))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CoinModel, TableModel, COIN_ACT};
    use pak_core::fact::StateFact;
    use pak_core::prelude::*;
    use pak_num::Rational;

    #[test]
    fn coin_model_unfolds_to_two_runs() {
        let m = CoinModel {
            heads_num: 99,
            heads_den: 100,
        };
        let pps = unfold::<_, Rational>(&m).unwrap();
        assert_eq!(pps.num_runs(), 2);
        assert!(pps.measure(&pps.all_runs()).is_one());
        let heads = StateFact::new("heads", |g: &crate::model::CoinState| g.heads);
        let a = ActionAnalysis::new(&pps, AgentId(0), COIN_ACT, &heads).unwrap();
        assert_eq!(a.constraint_probability(), Rational::from_ratio(99, 100));
        // The blind agent's expected belief equals the prior (Theorem 6.2).
        assert_eq!(a.expected_belief(), Rational::from_ratio(99, 100));
    }

    #[test]
    fn cartesian_moves_enumerates_products() {
        let d1 = vec![
            ("a", Rational::from_ratio(1, 2)),
            ("b", Rational::from_ratio(1, 2)),
        ];
        let d2 = vec![
            ("x", Rational::from_ratio(1, 3)),
            ("y", Rational::from_ratio(1, 3)),
            ("z", Rational::from_ratio(1, 3)),
        ];
        let all: Vec<(Vec<&str>, Rational)> = CartesianMoves::new(&[d1, d2]).collect();
        assert_eq!(all.len(), 6);
        let total: Rational = all.iter().map(|(_, p)| p.clone()).sum();
        assert!(total.is_one());
    }

    #[test]
    fn cartesian_of_empty_list_is_unit() {
        let dists: Vec<Vec<((), Rational)>> = vec![];
        let all: Vec<(Vec<()>, Rational)> = CartesianMoves::new(&dists).collect();
        assert_eq!(all.len(), 1);
        assert!(all[0].1.is_one());
    }

    #[test]
    fn mixed_action_model_unfolds_figure1() {
        // Figure 1 via a table model: one agent, mixed α/α′ at time 0.
        let m: TableModel<Rational> = TableModel {
            n_agents: 1,
            initial: vec![(0, vec![0], Rational::one())],
            horizon: 1,
            moves: vec![(
                (0, 0, 0),
                vec![
                    (Some(ActionId(0)), Rational::from_ratio(1, 2)),
                    (Some(ActionId(1)), Rational::from_ratio(1, 2)),
                ],
            )],
            transitions: vec![],
            ..TableModel::default()
        };
        let pps = unfold::<_, Rational>(&m).unwrap();
        assert_eq!(pps.num_runs(), 2);
        assert!(pps.is_proper(AgentId(0), ActionId(0)));
        // The paper's Figure-1 pathology, via the protocol pipeline:
        let psi = NotFact(DoesFact::new(AgentId(0), ActionId(0)));
        let a = ActionAnalysis::new(&pps, AgentId(0), ActionId(0), &psi).unwrap();
        assert!(a.constraint_probability().is_zero());
        assert_eq!(a.min_belief_when_acting(), Some(Rational::from_ratio(1, 2)));
    }

    #[test]
    fn merging_identical_successors() {
        // Environment flips two fair coins but the successor state only
        // records their XOR: 4 outcomes merge into 2 children.
        let m: TableModel<Rational> = TableModel {
            n_agents: 1,
            initial: vec![(0, vec![0], Rational::one())],
            horizon: 1,
            moves: vec![],
            transitions: vec![(
                (0, 0),
                vec![
                    (0, vec![0], Rational::from_ratio(1, 4)),
                    (1, vec![0], Rational::from_ratio(1, 4)),
                    (1, vec![0], Rational::from_ratio(1, 4)),
                    (0, vec![0], Rational::from_ratio(1, 4)),
                ],
            )],
            ..TableModel::default()
        };
        let pps = unfold::<_, Rational>(&m).unwrap();
        assert_eq!(pps.num_runs(), 2);
        for run in pps.run_ids() {
            assert_eq!(pps.run_probability(run), &Rational::from_ratio(1, 2));
        }
    }

    #[test]
    fn node_limit_enforced() {
        let m = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let cfg = UnfoldConfig {
            max_nodes: 2,
            max_depth: None,
            horizon: None,
        };
        let err = unfold_with::<_, Rational>(&m, &cfg).unwrap_err();
        assert!(matches!(err, UnfoldError::TooLarge { max_nodes: 2 }));
    }

    #[test]
    fn max_nodes_counts_state_nodes_exactly() {
        // The coin tree has exactly 4 state nodes (2 initial states, each
        // with one terminal child); the phantom root is not counted, so
        // max_nodes = 4 succeeds and max_nodes = 3 fails.
        let m = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let pps = unfold_with::<_, Rational>(
            &m,
            &UnfoldConfig {
                max_nodes: 4,
                max_depth: None,
                horizon: None,
            },
        )
        .unwrap();
        assert_eq!(pps.num_nodes(), 5); // 4 state nodes + the root λ
        let err = unfold_with::<_, Rational>(
            &m,
            &UnfoldConfig {
                max_nodes: 3,
                max_depth: None,
                horizon: None,
            },
        )
        .unwrap_err();
        assert!(matches!(err, UnfoldError::TooLarge { max_nodes: 3 }));
    }

    #[test]
    fn max_nodes_caps_initial_states_too() {
        // Two initial states with max_nodes = 1 must already fail at the
        // prior, not only when expanding children.
        let m = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let err = unfold_with::<_, Rational>(
            &m,
            &UnfoldConfig {
                max_nodes: 1,
                max_depth: None,
                horizon: None,
            },
        )
        .unwrap_err();
        assert!(matches!(err, UnfoldError::TooLarge { max_nodes: 1 }));
    }

    #[test]
    fn depth_cap_detects_nontermination() {
        // A model whose is_terminal never fires.
        #[derive(Debug)]
        struct Forever;
        impl ProtocolModel<Rational> for Forever {
            type Global = SimpleState;
            type Move = ();
            fn n_agents(&self) -> u32 {
                1
            }
            fn initial_states(&self) -> Vec<(SimpleState, Rational)> {
                vec![(SimpleState::zeroed(1), Rational::one())]
            }
            fn is_terminal(&self, _s: &SimpleState, _t: u32) -> bool {
                false
            }
            fn moves(&self, _a: AgentId, _l: &u64, _t: u32, out: &mut Vec<((), Rational)>) {
                out.push(((), Rational::one()));
            }
            fn action_of(&self, _mv: &()) -> Option<ActionId> {
                None
            }
            fn transition(
                &self,
                s: &SimpleState,
                _m: &[()],
                _t: u32,
                out: &mut Vec<(SimpleState, Rational)>,
            ) {
                out.push((s.clone(), Rational::one()));
            }
        }
        let cfg = UnfoldConfig {
            max_nodes: 1 << 20,
            max_depth: Some(8),
            horizon: None,
        };
        let err = unfold_with::<_, Rational>(&Forever, &cfg).unwrap_err();
        assert!(matches!(err, UnfoldError::DepthExceeded { max_depth: 8 }));
    }

    #[test]
    fn horizon_cap_truncates_cleanly() {
        // A 3-step table model capped at horizon 1 keeps the time-1 nodes
        // as leaves and still builds a valid (queryable) system.
        let m: TableModel<Rational> = TableModel {
            n_agents: 1,
            initial: vec![(0, vec![0], Rational::one())],
            horizon: 3,
            moves: vec![],
            transitions: vec![],
            ..TableModel::default()
        };
        let full = unfold::<_, Rational>(&m).unwrap();
        let capped = unfold_with::<_, Rational>(
            &m,
            &UnfoldConfig {
                horizon: Some(1),
                ..UnfoldConfig::default()
            },
        )
        .unwrap();
        assert_eq!(capped.horizon(), 1);
        assert!(full.horizon() > capped.horizon());
        assert!(capped.measure(&capped.all_runs()).is_one());
    }

    #[test]
    fn extend_horizon_matches_scratch_unfold() {
        // Grow 0 → exhaustion one level at a time; at each step the grown
        // system must match a from-scratch unfold capped at that horizon.
        let m: TableModel<Rational> = TableModel {
            n_agents: 2,
            initial: vec![
                (0, vec![0, 0], Rational::from_ratio(1, 3)),
                (1, vec![1, 0], Rational::from_ratio(2, 3)),
            ],
            horizon: 3,
            moves: vec![],
            transitions: vec![],
            ..TableModel::default()
        };
        let mut u = Unfolder::<_, Rational>::new(
            &m,
            UnfoldConfig {
                horizon: Some(0),
                ..UnfoldConfig::default()
            },
        )
        .unwrap();
        let mut h = 0;
        loop {
            let scratch = unfold_with::<_, Rational>(
                &m,
                &UnfoldConfig {
                    horizon: Some(h),
                    ..UnfoldConfig::default()
                },
            )
            .unwrap();
            let grown = u.pps();
            assert_eq!(grown.num_nodes(), scratch.num_nodes(), "h={h}");
            assert_eq!(grown.num_runs(), scratch.num_runs(), "h={h}");
            assert_eq!(grown.num_cells(), scratch.num_cells(), "h={h}");
            for run in scratch.run_ids() {
                assert_eq!(grown.nodes_of(run), scratch.nodes_of(run), "h={h}: {run}");
                assert_eq!(
                    grown.run_probability(run),
                    scratch.run_probability(run),
                    "h={h}: {run}"
                );
            }
            if !u.extend_horizon().unwrap() {
                break;
            }
            h += 1;
        }
        assert_eq!(u.horizon(), 3);
        assert!(!u.can_extend());
    }

    #[test]
    fn extend_horizon_respects_node_budget() {
        // Growing past the cap fails cleanly and leaves the handle usable
        // at its previous horizon.
        let m = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let mut u = Unfolder::<_, Rational>::new(
            &m,
            UnfoldConfig {
                max_nodes: 2,
                max_depth: None,
                horizon: Some(0),
            },
        )
        .unwrap();
        let nodes_before = u.pps().num_nodes();
        let err = u.extend_horizon().unwrap_err();
        assert!(matches!(err, UnfoldError::TooLarge { max_nodes: 2 }));
        assert_eq!(u.horizon(), 0);
        assert_eq!(u.pps().num_nodes(), nodes_before);
        // The same failed extension is still reported on retry…
        assert!(u.extend_horizon().is_err());
        // …and the retained tree still answers queries.
        assert!(u.pps().measure(&u.pps().all_runs()).is_one());
    }

    #[test]
    fn extend_horizon_respects_depth_cap() {
        let m = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let mut u = Unfolder::<_, Rational>::new(
            &m,
            UnfoldConfig {
                max_depth: Some(0),
                horizon: Some(0),
                ..UnfoldConfig::default()
            },
        )
        .unwrap();
        let err = u.extend_horizon().unwrap_err();
        assert!(matches!(err, UnfoldError::DepthExceeded { max_depth: 0 }));
        assert_eq!(u.horizon(), 0);
    }

    #[test]
    fn bad_model_distribution_reported() {
        let m: TableModel<Rational> = TableModel {
            n_agents: 1,
            initial: vec![(0, vec![0], Rational::from_ratio(1, 2))], // sums to ½
            horizon: 1,
            moves: vec![],
            transitions: vec![],
            ..TableModel::default()
        };
        let err = unfold::<_, Rational>(&m).unwrap_err();
        assert!(matches!(
            err,
            UnfoldError::BadModelDistribution {
                origin: "initial_states",
                ..
            }
        ));
        assert!(err.to_string().contains("initial_states"));
    }
}
