//! Purely probabilistic systems (pps).
//!
//! A pps (§2.1 of the paper) is a finite labelled directed tree
//! `T = (V, E, π)` with `π : E → (0, 1]` such that the outgoing edge
//! probabilities of every internal node sum to one. All nodes other than the
//! root `λ` correspond to global states; the root's sole purpose is to
//! define the prior distribution over initial global states. Every path
//! from a child of the root to a leaf is a *run*, and the product of edge
//! probabilities along a run defines the prior measure `µ_T` over runs.
//!
//! [`Pps`] is the immutable, validated, fully indexed form: construction
//! goes through [`PpsBuilder`] (and, level by level, [`PpsExtender`]),
//! which checks the probabilistic and structural invariants and
//! precomputes
//!
//! * the run table (paths, probabilities),
//! * per-node run intervals (runs through a node are contiguous in DFS
//!   order),
//! * local-state cells (information sets) for every agent at every time.
//!
//! # Interned states
//!
//! Many tree nodes share one global state (successor merging and
//! environment branching both revisit states), so nodes do not store
//! states by value: each distinct state lives once in a
//! [`StatePool`] owned by the system, and nodes carry
//! copyable [`StateId`]s. The by-value builder API
//! ([`PpsBuilder::initial`], [`PpsBuilder::child`]) interns transparently;
//! hot paths such as the protocol unfolder intern once
//! ([`PpsBuilder::intern`], [`PpsExtender::intern`]) and pass ids through
//! the `_interned` / `append_*` methods, avoiding every per-node state
//! clone.
//!
//! # The build pass
//!
//! [`PpsBuilder::build`] validates and indexes a hand-built tree in one
//! pass: runs live in one flat node arena ([`Pps::nodes_of`] borrows a
//! slice, no per-run allocation); information-set cells are keyed by
//! per-agent interned [`LocalId`]s (no `G::Local` clone or hash per
//! node) with run-sets filled a word at a time from each node's
//! contiguous run interval.
//!
//! # Level-by-level growth
//!
//! Unfolded trees are grown instead: the protocol unfolder builds only
//! the prior through [`PpsBuilder`] and then appends one level at a
//! time through a [`PpsExtender`], which validates each level and
//! repairs the derived indexes in place. Both routes produce the same
//! system for the same node order.

use std::collections::HashMap;

use crate::error::PpsError;
use crate::event::RunSet;
use crate::hash::FxBuildHasher;
use crate::ids::{ActionId, AgentId, CellId, LocalId, NodeId, Point, RunId, StateId, Time};
use crate::intern::{LocalPool, StatePool};
use crate::prob::Probability;
use crate::state::{GlobalState, LocalState};

/// The nodes of a pps tree in struct-of-arrays layout — the exact
/// representation the builder accumulates, moved into the [`Pps`]
/// unchanged (the build pass never converts or copies nodes). Each build
/// pass touches only the columns it needs (counting sort reads 4-byte
/// parents, validation reads edge probabilities, …), so the passes stream
/// tight arrays instead of striding over wide node structs. Children and
/// run intervals are not stored here: they live in flat arenas of the
/// [`Pps`].
#[derive(Debug, Clone)]
pub(crate) struct NodeTable<P> {
    /// Parent node per node; the root is its own parent.
    parents: Vec<NodeId>,
    /// The interned global state; `None` only for the root `λ`.
    states: Vec<Option<StateId>>,
    /// Depth in the tree: root `0`, initial states `1`. The time of a
    /// non-root node is `depth − 1`.
    depths: Vec<u32>,
    /// Probability of the edge from the parent (`1` for the root), as an
    /// id into the `probs` pool. Replayed expansion children *share*
    /// their template's entry, so a replay clones no probability.
    edge_prob_ids: Vec<u32>,
    /// The edge-probability pool behind `edge_prob_ids` (append-only;
    /// deduplication comes from replays sharing ids, not from value
    /// hashing — `P` is not required to be `Hash`).
    probs: Vec<P>,
    /// Actions performed on the transition from the parent into each node
    /// (at most one per agent; empty for initial states), as half-open
    /// ranges into the shared `action_data` arena. Replayed expansion
    /// children *share* one range — no per-node allocation or copy.
    action_ranges: Vec<(u32, u32)>,
    /// The actions arena behind `action_ranges`.
    action_data: Vec<(AgentId, ActionId)>,
}

impl<P: Probability> NodeTable<P> {
    /// A table holding only the phantom root `λ`.
    fn new_root() -> Self {
        NodeTable {
            parents: vec![NodeId::ROOT],
            states: vec![None],
            depths: vec![0],
            edge_prob_ids: vec![0],
            probs: vec![P::one()],
            action_ranges: vec![(0, 0)],
            action_data: Vec::new(),
        }
    }

    /// The number of nodes, including the root.
    fn len(&self) -> usize {
        self.parents.len()
    }

    /// The action labels on the edge into `node`.
    fn actions_of(&self, node: usize) -> &[(AgentId, ActionId)] {
        let (lo, hi) = self.action_ranges[node];
        &self.action_data[lo as usize..hi as usize]
    }

    /// The probability of the edge into `node`.
    fn edge_prob(&self, node: usize) -> &P {
        &self.probs[self.edge_prob_ids[node] as usize]
    }

    /// Appends a node with a fresh edge probability and edge actions
    /// (both copied into their pools), returning its id.
    fn push(
        &mut self,
        parent: NodeId,
        state: StateId,
        depth: u32,
        edge_prob: P,
        actions: &[(AgentId, ActionId)],
    ) -> NodeId {
        let lo = self.action_data.len() as u32;
        self.action_data.extend_from_slice(actions);
        let range = (lo, self.action_data.len() as u32);
        let id = NodeId(self.parents.len() as u32);
        self.parents.push(parent);
        self.states.push(Some(state));
        self.depths.push(depth);
        self.edge_prob_ids.push(self.probs.len() as u32);
        self.probs.push(edge_prob);
        self.action_ranges.push(range);
        id
    }

    /// Bulk-appends `count` children of `parent` replaying the contiguous
    /// node range starting at `first_template`: each column segment is
    /// copied wholesale (`extend_from_within` — one memcpy-style extend
    /// per column instead of `count` interleaved pushes), with states,
    /// probability ids, and action ranges shared from the templates.
    /// Returns the id of the first appended node; the rest follow
    /// consecutively, exactly as `count` individual pushes would have.
    fn replay_range(&mut self, parent: NodeId, first_template: usize, count: usize) -> NodeId {
        let id = NodeId(self.parents.len() as u32);
        let depth = self.depths[parent.index()] + 1;
        let range = first_template..first_template + count;
        self.parents.resize(self.parents.len() + count, parent);
        self.states.extend_from_within(range.clone());
        self.depths.resize(self.depths.len() + count, depth);
        self.edge_prob_ids.extend_from_within(range.clone());
        self.action_ranges.extend_from_within(range);
        id
    }

    /// Drops every node with id `>= len` and unwinds the probability and
    /// action arenas to the given watermarks — the rollback hook for an
    /// aborted horizon extension ([`PpsExtender::abort_level`]). The
    /// watermarks must have been recorded before the appends being undone.
    fn truncate(&mut self, len: usize, probs_len: usize, actions_len: usize) {
        self.parents.truncate(len);
        self.states.truncate(len);
        self.depths.truncate(len);
        self.edge_prob_ids.truncate(len);
        self.action_ranges.truncate(len);
        self.probs.truncate(probs_len);
        self.action_data.truncate(actions_len);
    }
}

/// Gathers children into a flat arena by counting sort over a parent
/// column: one pass counts each parent's arity, a prefix sum turns the
/// counts into offsets, and a second in-order pass fills the slots —
/// preserving insertion order with two allocations total instead of one
/// `Vec` per node. Shared by the build pass and the incremental
/// horizon-extension repair ([`PpsExtender`]), which must reproduce the
/// arena bit for bit.
fn build_child_arena(parents: &[NodeId]) -> (Vec<NodeId>, Vec<u32>) {
    let mut child_offsets: Vec<u32> = vec![0; parents.len() + 1];
    for &parent in parents.iter().skip(1) {
        child_offsets[parent.index() + 1] += 1;
    }
    for i in 1..child_offsets.len() {
        child_offsets[i] += child_offsets[i - 1];
    }
    let mut child_nodes: Vec<NodeId> = vec![NodeId::ROOT; parents.len().saturating_sub(1)];
    let mut cursor: Vec<u32> = child_offsets[..child_offsets.len() - 1].to_vec();
    for (i, &parent) in parents.iter().enumerate().skip(1) {
        let slot = &mut cursor[parent.index()];
        child_nodes[*slot as usize] = NodeId(i as u32);
        *slot += 1;
    }
    (child_nodes, child_offsets)
}

/// A local-state equivalence cell: all the points agent `agent` cannot
/// distinguish because its (synchronous) local state is the same.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell<L> {
    /// The agent whose information set this is.
    pub agent: AgentId,
    /// The common time of all points in the cell.
    pub time: Time,
    /// The common local data.
    pub data: L,
    /// The tree nodes realising this local state.
    pub nodes: Vec<NodeId>,
    /// The event `ℓ`: runs in which this local state occurs.
    pub runs: RunSet,
}

/// A validated purely probabilistic system.
///
/// # Examples
///
/// Building the two-run system of the paper's Figure 1 (one agent, a mixed
/// action step choosing `α` or `α′` with probability ½ each):
///
/// ```
/// use pak_core::prelude::*;
///
/// let mut b = PpsBuilder::<SimpleState, f64>::new(1);
/// let g0 = b.initial(SimpleState::zeroed(1), 1.0)?;
/// let alpha = ActionId(0);
/// let alpha_prime = ActionId(1);
/// b.child(g0, SimpleState::zeroed(1), 0.5, &[(AgentId(0), alpha)])?;
/// b.child(g0, SimpleState::zeroed(1), 0.5, &[(AgentId(0), alpha_prime)])?;
/// let pps = b.build()?;
///
/// assert_eq!(pps.num_runs(), 2);
/// assert!(pps.is_proper(AgentId(0), alpha));
/// # Ok::<(), PpsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pps<G: GlobalState, P: Probability> {
    n_agents: u32,
    /// Each distinct global state, stored once; nodes refer into it by id.
    pool: StatePool<G>,
    nodes: NodeTable<P>,
    /// Half-open interval of run indices whose paths pass through each
    /// node (runs through a node are contiguous in DFS order).
    run_ranges: Vec<(u32, u32)>,
    /// Flat children arena: node `n`'s children, in insertion order,
    /// occupy `child_offsets[n] .. child_offsets[n + 1]`.
    child_nodes: Vec<NodeId>,
    /// `num_nodes() + 1` offsets into [`Pps::child_nodes`].
    child_offsets: Vec<u32>,
    /// Flat run arena: the node paths of all runs, concatenated in run
    /// order. Run `r` occupies `run_offsets[r] .. run_offsets[r + 1]` —
    /// one shared allocation instead of a `Vec<NodeId>` per run.
    run_nodes: Vec<NodeId>,
    /// `num_runs() + 1` offsets into [`Pps::run_nodes`].
    run_offsets: Vec<u32>,
    /// Prior probability `µ_T(r)` per run: product of edge probabilities
    /// from the root to the leaf.
    run_probs: Vec<P>,
    /// `cell_of[agent][node − 1]` is the cell of the (non-root) node,
    /// counted from the agent's first cell.
    cell_of: Vec<Vec<CellId>>,
    /// Cells are grouped by agent: agent `a` owns
    /// `cells[first_cell[a]..first_cell[a + 1]]`.
    first_cell: Vec<u32>,
    cells: Vec<Cell<G::Local>>,
    /// Optional human-readable action names for diagnostics.
    action_names: HashMap<ActionId, String>,
}

impl<G: GlobalState, P: Probability> Pps<G, P> {
    // ------------------------------------------------------------------
    // Structure access
    // ------------------------------------------------------------------

    /// The number of agents in the system.
    #[must_use]
    pub fn num_agents(&self) -> u32 {
        self.n_agents
    }

    /// Iterator over all agents of the system.
    pub fn agents(&self) -> impl Iterator<Item = AgentId> {
        (0..self.n_agents).map(AgentId)
    }

    /// The number of tree nodes, including the root `λ`.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The number of runs `|R_T|`.
    #[must_use]
    pub fn num_runs(&self) -> usize {
        self.run_probs.len()
    }

    /// Iterator over all runs.
    pub fn run_ids(&self) -> impl Iterator<Item = RunId> {
        (0..self.run_probs.len() as u32).map(RunId)
    }

    /// The nodes of run `run` in time order: `nodes_of(run)[t]` realises
    /// the point `(run, t)`. Runs live in one shared arena, so this is a
    /// slice borrow, never an allocation.
    ///
    /// # Panics
    ///
    /// Panics if `run` is out of range.
    #[must_use]
    pub fn nodes_of(&self, run: RunId) -> &[NodeId] {
        let lo = self.run_offsets[run.index()] as usize;
        let hi = self.run_offsets[run.index() + 1] as usize;
        &self.run_nodes[lo..hi]
    }

    /// The length (number of global states) of run `run`.
    ///
    /// # Panics
    ///
    /// Panics if `run` is out of range.
    #[must_use]
    pub fn run_len(&self, run: RunId) -> usize {
        self.nodes_of(run).len()
    }

    /// The maximum time occurring in any run.
    #[must_use]
    pub fn horizon(&self) -> Time {
        self.run_offsets
            .windows(2)
            .map(|w| w[1] - w[0] - 1)
            .max()
            .unwrap_or(0)
    }

    /// The node realising point `(r, t)`, or `None` if run `r` has ended
    /// before time `t`.
    #[must_use]
    pub fn node_at(&self, run: RunId, time: Time) -> Option<NodeId> {
        self.nodes_of(run).get(time as usize).copied()
    }

    /// The global state at a point.
    ///
    /// Returns `None` if the run has ended before `point.time`.
    #[must_use]
    pub fn state_at(&self, point: Point) -> Option<&G> {
        let node = self.node_at(point.run, point.time)?;
        self.nodes.states[node.index()].map(|id| &self.pool[id])
    }

    /// Whether `point` is a *live* point of the system: its run exists and
    /// has not ended before `point.time`.
    ///
    /// The set of live points is exactly [`Pps::points`]; formula
    /// evaluation (`pak-logic` / `pak-engine`) is defined at live points
    /// and nowhere else. Unlike [`Pps::state_at`], this accepts arbitrary
    /// run ids without panicking, so callers can probe points they did not
    /// obtain from this system.
    #[must_use]
    pub fn is_live(&self, point: Point) -> bool {
        point.run.index() < self.num_runs() && (point.time as usize) < self.run_len(point.run)
    }

    /// The runs still alive at `time` — those of length `> time` — as an
    /// event. Equivalently, the runs `r` for which `(r, time)` is a live
    /// point.
    #[must_use]
    pub fn live_runs_at(&self, time: Time) -> RunSet {
        RunSet::from_predicate(self.num_runs(), |r| (time as usize) < self.run_len(r))
    }

    /// The global state carried by a (non-root) node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the root or out of range.
    #[must_use]
    pub fn node_state(&self, node: NodeId) -> &G {
        &self.pool[self.node_state_id(node)]
    }

    /// The interned id of the global state carried by a (non-root) node.
    ///
    /// Equal ids denote equal states, so comparing two nodes' states costs
    /// one integer comparison. Resolve ids through [`Pps::state_pool`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is the root or out of range.
    #[must_use]
    pub fn node_state_id(&self, node: NodeId) -> StateId {
        self.nodes.states[node.index()].expect("root node has no state")
    }

    /// The pool of distinct global states occurring in the system.
    #[must_use]
    pub fn state_pool(&self) -> &StatePool<G> {
        &self.pool
    }

    /// The number of *distinct* global states in the system — at most the
    /// number of non-root nodes, and usually far fewer (interning shares
    /// repeated states across nodes).
    #[must_use]
    pub fn num_distinct_states(&self) -> usize {
        self.pool.len()
    }

    /// An estimate of this system's resident size in bytes: the sum of
    /// the arena, pool, and cell allocations by `size_of` of their
    /// element types, plus the struct itself.
    ///
    /// This is a *lower bound*, not an exact accounting: heap data owned
    /// by `G`, `G::Local`, or `P` elements (e.g. a `Rational`'s limb
    /// vector) is counted at `size_of` only, and allocator slack is
    /// ignored. It is cheap (no traversal of element contents), stable
    /// for a given tree, and monotone in tree size — which is all the
    /// cache's memory-budget eviction needs.
    #[must_use]
    pub fn memory_footprint(&self) -> usize {
        use std::mem::size_of;
        let nodes = &self.nodes;
        let mut bytes = size_of::<Self>();
        bytes += nodes.parents.len() * size_of::<NodeId>();
        bytes += nodes.states.len() * size_of::<Option<StateId>>();
        bytes += nodes.depths.len() * size_of::<u32>();
        bytes += nodes.edge_prob_ids.len() * size_of::<u32>();
        bytes += nodes.probs.len() * size_of::<P>();
        bytes += nodes.action_ranges.len() * size_of::<(u32, u32)>();
        bytes += nodes.action_data.len() * size_of::<(AgentId, ActionId)>();
        bytes += self.run_ranges.len() * size_of::<(u32, u32)>();
        bytes += self.child_nodes.len() * size_of::<NodeId>();
        bytes += self.child_offsets.len() * size_of::<u32>();
        bytes += self.run_nodes.len() * size_of::<NodeId>();
        bytes += self.run_offsets.len() * size_of::<u32>();
        bytes += self.run_probs.len() * size_of::<P>();
        bytes += self.pool.len() * size_of::<G>();
        for per_agent in &self.cell_of {
            bytes += per_agent.len() * size_of::<CellId>();
        }
        for cell in &self.cells {
            bytes += size_of::<Cell<G::Local>>();
            bytes += cell.nodes.len() * size_of::<NodeId>();
            bytes += cell.runs.memory_bytes();
        }
        bytes
    }

    /// The time of a non-root node (its depth minus one).
    ///
    /// # Panics
    ///
    /// Panics if `node` is the root.
    #[must_use]
    pub fn node_time(&self, node: NodeId) -> Time {
        let d = self.nodes.depths[node.index()];
        assert!(d > 0, "the root has no time");
        d - 1
    }

    /// The children of a node, with their edge probabilities.
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = (NodeId, &P)> {
        let lo = self.child_offsets[node.index()] as usize;
        let hi = self.child_offsets[node.index() + 1] as usize;
        self.child_nodes[lo..hi]
            .iter()
            .map(move |&c| (c, self.nodes.edge_prob(c.index())))
    }

    /// The parent of a node (the root is its own parent).
    #[must_use]
    pub fn parent(&self, node: NodeId) -> NodeId {
        self.nodes.parents[node.index()]
    }

    /// The initial global states (children of the root) with their prior
    /// probabilities.
    pub fn initial_states(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.children(NodeId::ROOT)
    }

    /// All points `Pts(T)` of the system, in (run, time) order.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        self.run_ids()
            .flat_map(move |run| (0..self.run_len(run) as u32).map(move |time| Point { run, time }))
    }

    /// The runs whose paths pass through `node` (a contiguous interval in
    /// DFS order), as an event.
    #[must_use]
    pub fn runs_through(&self, node: NodeId) -> RunSet {
        let (lo, hi) = self.run_ranges[node.index()];
        RunSet::from_predicate(self.num_runs(), |r| (lo..hi).contains(&r.0))
    }

    /// Registers a human-readable name for an action (diagnostics only).
    pub fn set_action_name(&mut self, action: ActionId, name: impl Into<String>) {
        self.action_names.insert(action, name.into());
    }

    /// The registered name of an action, or a generic `action#k` fallback.
    #[must_use]
    pub fn action_name(&self, action: ActionId) -> String {
        self.action_names
            .get(&action)
            .cloned()
            .unwrap_or_else(|| action.to_string())
    }

    // ------------------------------------------------------------------
    // Measure
    // ------------------------------------------------------------------

    /// The prior probability `µ_T(r)` of a single run.
    ///
    /// # Panics
    ///
    /// Panics if `run` is out of range.
    #[must_use]
    pub fn run_probability(&self, run: RunId) -> &P {
        &self.run_probs[run.index()]
    }

    /// The measure `µ_T(Q)` of an event, accumulated in place.
    #[must_use]
    pub fn measure(&self, event: &RunSet) -> P {
        // Seed the sum from the first run instead of adding into zero.
        let mut acc: Option<P> = None;
        for r in event.iter() {
            let p = &self.run_probs[r.index()];
            match &mut acc {
                Some(m) => m.add_assign(p),
                None => acc = Some(p.clone()),
            }
        }
        acc.unwrap_or_else(P::zero)
    }

    /// The conditional measure `µ_T(A | B)`.
    ///
    /// Returns `None` when `µ_T(B) = 0`. Note that in a pps every edge has
    /// strictly positive probability, so `µ_T(B) = 0` iff `B = ∅`. The
    /// intersection measure is accumulated directly from the two bitsets;
    /// no intermediate event is materialised.
    #[must_use]
    pub fn conditional(&self, a: &RunSet, b: &RunSet) -> Option<P> {
        // Count runs alongside the sums: when the intersection is empty
        // or covers all of `b` the answer is exactly 0 or 1 and neither
        // sum nor quotient is needed — singleton cells (the common case
        // in small trees) never touch the arithmetic at all.
        let mut mb: Option<P> = None;
        let mut nb = 0usize;
        for r in b.iter() {
            nb += 1;
            let p = &self.run_probs[r.index()];
            match &mut mb {
                Some(m) => m.add_assign(p),
                None => mb = Some(p.clone()),
            }
        }
        let mb = match mb {
            Some(m) if !m.is_zero() => m,
            _ => return None,
        };
        let mut mab: Option<P> = None;
        let mut nab = 0usize;
        for r in a.iter_and(b) {
            nab += 1;
            let p = &self.run_probs[r.index()];
            match &mut mab {
                Some(m) => m.add_assign(p),
                None => mab = Some(p.clone()),
            }
        }
        match mab {
            None => Some(P::zero()),
            // a ∩ b = b: both sums range over the same runs in the same
            // ascending order, so they are identical values; µ(A|B) = 1.
            Some(_) if nab == nb => Some(P::one()),
            Some(mab) => Some(mab.div(&mb)),
        }
    }

    /// The full event `R_T`.
    #[must_use]
    pub fn all_runs(&self) -> RunSet {
        RunSet::full(self.num_runs())
    }

    /// The empty event `∅`.
    #[must_use]
    pub fn no_runs(&self) -> RunSet {
        RunSet::empty(self.num_runs())
    }

    // ------------------------------------------------------------------
    // Actions
    // ------------------------------------------------------------------

    /// Returns `true` if `does_i(α)` holds at `point`: agent `agent`
    /// performs `action` at that point (§2.3 — the transition out of the
    /// point's node along `point.run` is labelled with `(agent, action)`).
    #[must_use]
    pub fn does(&self, agent: AgentId, action: ActionId, point: Point) -> bool {
        match self.node_at(point.run, point.time + 1) {
            None => false,
            Some(next) => self.edge_performs(next, agent, action),
        }
    }

    /// All actions performed by `agent` at `point` (at most one in systems
    /// produced by protocol unfolding; the data model allows several only
    /// across *different* agents).
    #[must_use]
    pub fn actions_at(&self, point: Point) -> &[(AgentId, ActionId)] {
        match self.node_at(point.run, point.time + 1) {
            None => &[],
            Some(next) => self.nodes.actions_of(next.index()),
        }
    }

    /// Whether the edge *into* `node` is labelled with `(agent, action)`.
    fn edge_performs(&self, node: NodeId, agent: AgentId, action: ActionId) -> bool {
        self.nodes
            .actions_of(node.index())
            .iter()
            .any(|&(a, act)| a == agent && act == action)
    }

    /// The times at which `agent` performs `action` in `run`.
    #[must_use]
    pub fn performance_times(&self, agent: AgentId, action: ActionId, run: RunId) -> Vec<Time> {
        // Performing at time t labels the edge into the node at t + 1, so
        // walking the run's node slice from index 1 visits each candidate
        // edge exactly once.
        self.nodes_of(run)
            .iter()
            .enumerate()
            .skip(1)
            .filter(|&(_, &nid)| self.edge_performs(nid, agent, action))
            .map(|(t1, _)| t1 as Time - 1)
            .collect()
    }

    /// The event `R_α`: runs in which `agent` performs `action` at least
    /// once.
    #[must_use]
    pub fn action_event(&self, agent: AgentId, action: ActionId) -> RunSet {
        RunSet::from_predicate(self.num_runs(), |run| {
            self.nodes_of(run)
                .iter()
                .skip(1)
                .any(|&nid| self.edge_performs(nid, agent, action))
        })
    }

    /// The number of times `agent` performs `action` in `run`, without
    /// materialising the time list.
    pub(crate) fn performance_count(&self, agent: AgentId, action: ActionId, run: RunId) -> usize {
        self.nodes_of(run)
            .iter()
            .skip(1)
            .filter(|&&nid| self.edge_performs(nid, agent, action))
            .count()
    }

    /// Returns `true` if `action` is a *proper* action for `agent` (§3.1):
    /// performed at least once in the system and at most once per run.
    #[must_use]
    pub fn is_proper(&self, agent: AgentId, action: ActionId) -> bool {
        let mut performed = false;
        for run in self.run_ids() {
            match self.performance_count(agent, action, run) {
                0 => {}
                1 => performed = true,
                _ => return false,
            }
        }
        performed
    }

    /// For a proper action, the unique point of `run` at which `agent`
    /// performs `action`, if any.
    #[must_use]
    pub fn action_point(&self, agent: AgentId, action: ActionId, run: RunId) -> Option<Point> {
        self.nodes_of(run)
            .iter()
            .enumerate()
            .skip(1)
            .find(|&(_, &nid)| self.edge_performs(nid, agent, action))
            .map(|(t1, _)| Point {
                run,
                time: t1 as Time - 1,
            })
    }

    /// Rewrites the system so that every occurrence of `action` by `agent`
    /// is replaced by a distinct, fresh action tagged with its occurrence
    /// index (first occurrence, second occurrence, …), returning the new
    /// system together with the fresh action ids in occurrence order.
    ///
    /// This implements the paper's remark (§3.1) that tagging occurrences
    /// converts any action into proper ones, so restricting the theory to
    /// proper actions loses no generality.
    #[must_use]
    pub fn tag_occurrences(&self, agent: AgentId, action: ActionId) -> (Self, Vec<ActionId>) {
        let mut fresh_base = self
            .nodes
            .action_data
            .iter()
            .map(|&(_, a)| a.0)
            .max()
            .map_or(0, |m| m + 1);
        let mut out = self.clone();
        let mut max_occurrence = 0usize;
        // Walk each run, rewriting the k-th occurrence along that run.
        // Because runs share prefixes, a node's label is rewritten once; the
        // occurrence index of a node is well defined (it only depends on the
        // path from the root).
        let mut node_occurrence: HashMap<NodeId, usize> = HashMap::new();
        for run in self.run_ids() {
            let mut seen = 0usize;
            for t in 0..self.run_len(run) as u32 {
                let pt = Point { run, time: t };
                if self.does(agent, action, pt) {
                    let next = self.node_at(run, t + 1).expect("does implies next node");
                    node_occurrence.insert(next, seen);
                    max_occurrence = max_occurrence.max(seen);
                    seen += 1;
                }
            }
        }
        let fresh: Vec<ActionId> = (0..=max_occurrence)
            .map(|k| {
                let id = ActionId(fresh_base);
                fresh_base += 1;
                out.action_names
                    .insert(id, format!("{}[occ {}]", self.action_name(action), k));
                id
            })
            .collect();
        // Nodes from replayed expansions share one actions range, but
        // distinct occurrences need distinct labels: rewrite by appending
        // a fresh private range per relabelled node (copy-on-write).
        for (node, occ) in node_occurrence {
            let rewritten: Vec<(AgentId, ActionId)> = out
                .nodes
                .actions_of(node.index())
                .iter()
                .map(|&(a, act)| {
                    if a == agent && act == action {
                        (a, fresh[occ])
                    } else {
                        (a, act)
                    }
                })
                .collect();
            let lo = out.nodes.action_data.len() as u32;
            out.nodes.action_data.extend_from_slice(&rewritten);
            out.nodes.action_ranges[node.index()] = (lo, out.nodes.action_data.len() as u32);
        }
        (out, fresh)
    }

    // ------------------------------------------------------------------
    // Local states and information sets
    // ------------------------------------------------------------------

    /// The number of local-state cells (over all agents and times).
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Iterator over all cells.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell<G::Local>)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// The cells belonging to a particular agent.
    pub fn agent_cells(&self, agent: AgentId) -> impl Iterator<Item = (CellId, &Cell<G::Local>)> {
        self.cells().filter(move |(_, c)| c.agent == agent)
    }

    /// Access a cell by id.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn cell(&self, cell: CellId) -> &Cell<G::Local> {
        &self.cells[cell.index()]
    }

    /// The event `ℓ` of a cell, borrowed from the index (the allocation-free
    /// sibling of [`crate::fact::Facts::cell_event`], for hot paths that
    /// only read the run-set).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn cell_runs(&self, cell: CellId) -> &RunSet {
        &self.cells[cell.index()].runs
    }

    /// The cell (information set) of agent `agent` at `point`.
    ///
    /// Returns `None` if the run has ended before `point.time`.
    #[must_use]
    pub fn cell_at(&self, agent: AgentId, point: Point) -> Option<CellId> {
        let node = self.node_at(point.run, point.time)?;
        let local = self.cell_of[agent.index()][node.index() - 1];
        Some(CellId(self.first_cell[agent.index()] + local.0))
    }

    /// The full (synchronous) local state of `agent` at `point`.
    ///
    /// Returns `None` if the run has ended before `point.time`.
    #[must_use]
    pub fn local_state(&self, agent: AgentId, point: Point) -> Option<LocalState<G::Local>> {
        let state = self.state_at(point)?;
        Some(LocalState {
            agent,
            time: point.time,
            data: state.local(agent),
        })
    }

    /// The points of a cell: for each run in which the local state occurs,
    /// the unique point of that run realising it.
    pub fn cell_points<'a>(&'a self, cell: &'a Cell<G::Local>) -> impl Iterator<Item = Point> + 'a {
        cell.runs.iter().map(move |run| Point {
            run,
            time: cell.time,
        })
    }

    /// Two points are indistinguishable to `agent` iff they lie in the same
    /// cell. This is the accessibility relation of the knowledge modality
    /// `K_agent`.
    #[must_use]
    pub fn indistinguishable(&self, agent: AgentId, a: Point, b: Point) -> bool {
        match (self.cell_at(agent, a), self.cell_at(agent, b)) {
            (Some(ca), Some(cb)) => ca == cb,
            _ => false,
        }
    }

    /// The set of local states `L_i[α]` at which `agent` ever performs
    /// `action`, as cell ids.
    #[must_use]
    pub fn action_cells(&self, agent: AgentId, action: ActionId) -> Vec<CellId> {
        let mut out: Vec<CellId> = Vec::new();
        for run in self.run_ids() {
            for t in self.performance_times(agent, action, run) {
                let cell = self
                    .cell_at(agent, Point { run, time: t })
                    .expect("performance point exists");
                if !out.contains(&cell) {
                    out.push(cell);
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Construction internals
    // ------------------------------------------------------------------

    /// Internal: builds the validated system from raw builder parts.
    pub(crate) fn from_parts(
        n_agents: u32,
        pool: StatePool<G>,
        raw_nodes: NodeTable<P>,
        action_names: HashMap<ActionId, String>,
    ) -> Result<Self, PpsError> {
        // The builder's nodes are adopted as-is (no conversion pass);
        // children are gathered into the flat arena by counting sort
        // (see `build_child_arena`).
        let nodes = raw_nodes;
        let (child_nodes, child_offsets) = build_child_arena(&nodes.parents);
        let children_of = |i: usize| -> &[NodeId] {
            &child_nodes[child_offsets[i] as usize..child_offsets[i + 1] as usize]
        };
        if children_of(0).is_empty() {
            return Err(PpsError::NoInitialStates);
        }
        let max_depth = nodes.depths.iter().copied().max().unwrap_or(0) as usize;

        // Validate distributions: every internal node's children sum to one.
        // (Per-edge positivity and the ≤ 1 bound are enforced at insertion
        // time by the builder.)
        for i in 0..nodes.len() {
            let children = children_of(i);
            if children.is_empty() {
                continue;
            }
            // A single (deterministic) child must carry probability one
            // exactly; only branching nodes need the accumulator loop.
            if let [c] = children {
                if !nodes.edge_prob(c.index()).is_one() {
                    return Err(PpsError::BadDistribution {
                        node: NodeId(i as u32),
                        sum: nodes.edge_prob(c.index()).to_f64(),
                    });
                }
                continue;
            }
            let mut sum = P::zero();
            for &c in children {
                sum.add_assign(nodes.edge_prob(c.index()));
            }
            if !sum.is_one() {
                return Err(PpsError::BadDistribution {
                    node: NodeId(i as u32),
                    sum: sum.to_f64(),
                });
            }
        }

        // Enumerate runs by iterative DFS (children in insertion order)
        // straight into the flat arena: paths of all runs share one
        // `run_nodes` allocation delimited by offsets. One shared
        // path/product buffer is kept in sync by truncating to each
        // popped node's depth — a path is materialised exactly once per
        // run, when its leaf is reached.
        //
        // (A prefix-product memo keyed by `(parent product, edge id)` was
        // tried here and measured *slower*: on the replay-heavy scaling
        // workloads ~99% of prefix products are distinct — replays share
        // edges, but the parent products above them differ — so the probe
        // per node bought nothing. The edge-probability pool still pays
        // elsewhere: replayed nodes share entries instead of cloning.)
        let mut run_nodes: Vec<NodeId> = Vec::new();
        let mut run_offsets: Vec<u32> = vec![0];
        let mut run_probs: Vec<P> = Vec::new();
        // Run ranges — the contiguous interval of runs through each node —
        // fall out of the same DFS for free: a node's interval opens when
        // it enters the shared path (`lo` = runs emitted so far) and
        // closes when it leaves it (`hi` = runs emitted by then), so no
        // separate pass over the run arena is needed.
        let mut run_ranges: Vec<(u32, u32)> = vec![(u32::MAX, 0); nodes.len()];
        {
            let mut stack: Vec<NodeId> = children_of(0).iter().rev().copied().collect();
            // path[d] is the node at depth d + 1; probs[d] the product of
            // edge probabilities from the root down to path[d].
            let mut path: Vec<NodeId> = Vec::new();
            let mut probs: Vec<P> = Vec::new();
            while let Some(node) = stack.pop() {
                let d = (nodes.depths[node.index()] - 1) as usize;
                let edge_prob = nodes.edge_prob(node.index());
                for &done in &path[d..] {
                    run_ranges[done.index()].1 = run_probs.len() as u32;
                }
                path.truncate(d);
                probs.truncate(d);
                run_ranges[node.index()].0 = run_probs.len() as u32;
                // Probability-one edges (deterministic transitions) and
                // depth-0 nodes copy instead of multiplying: `1 · p` and
                // `p · 1` are exact identities for every `P`, and both
                // operands are already in canonical form.
                let p = if d == 0 {
                    edge_prob.clone()
                } else if edge_prob.is_one() {
                    probs[d - 1].clone()
                } else {
                    probs[d - 1].mul(edge_prob)
                };
                path.push(node);
                let children = children_of(node.index());
                if children.is_empty() {
                    // A leaf's product is consumed directly — never pushed
                    // onto the shared stack, so no clone.
                    run_nodes.extend_from_slice(&path);
                    run_offsets.push(run_nodes.len() as u32);
                    run_probs.push(p);
                } else {
                    probs.push(p);
                    // Push children in reverse so they pop in insertion order.
                    for &c in children.iter().rev() {
                        stack.push(c);
                    }
                }
            }
            // The last path's nodes close at the final run count.
            for &done in &path {
                run_ranges[done.index()].1 = run_probs.len() as u32;
            }
        }
        let n_runs = run_probs.len();
        run_ranges[0] = (0, n_runs as u32);

        // Build local-state cells, one pass per agent.
        let mut cells: Vec<Cell<G::Local>> = Vec::new();
        let mut cell_of: Vec<Vec<CellId>> = Vec::with_capacity(n_agents as usize);
        let mut first_cell: Vec<u32> = Vec::with_capacity(n_agents as usize + 1);
        for a in 0..n_agents {
            let agent_cells = build_agent_cells(
                AgentId(a),
                &pool,
                &nodes.states,
                &nodes.depths,
                &run_ranges,
                n_runs,
                max_depth,
            );
            first_cell.push(cells.len() as u32);
            cells.extend(agent_cells.cells);
            cell_of.push(agent_cells.cell_of);
        }
        first_cell.push(cells.len() as u32);

        Ok(Pps {
            n_agents,
            pool,
            nodes,
            run_ranges,
            child_nodes,
            child_offsets,
            run_nodes,
            run_offsets,
            run_probs,
            cell_of,
            first_cell,
            cells,
            action_names,
        })
    }
}

/// Capacity cap, in table cells, below which a `rows × cols` key space
/// gets a flat dense table; above it, a hash map. Deep chain-like models
/// can make `distinct states × horizon` quadratic in tree size even
/// though only O(nodes) keys are ever touched, so the dense fast path
/// must not be unconditional.
const DENSE_INDEX_LIMIT: usize = 1 << 20;

/// Sentinel for "no value" in a [`KeyIndex`].
const INDEX_NONE: u32 = u32::MAX;

/// A `(row, col) → u32` map over a key space whose bounds are known up
/// front: a flat table when the space is small (the common case — two
/// array reads per probe, no hashing), a hash map when materialising the
/// space would dwarf the tree.
enum KeyIndex {
    Dense { table: Vec<u32>, cols: usize },
    Sparse(HashMap<(u32, u32), u32, FxBuildHasher>),
}

impl KeyIndex {
    fn new(rows: usize, cols: usize) -> Self {
        if rows.saturating_mul(cols) <= DENSE_INDEX_LIMIT {
            KeyIndex::Dense {
                table: vec![INDEX_NONE; rows * cols],
                cols,
            }
        } else {
            KeyIndex::Sparse(HashMap::default())
        }
    }

    fn get(&self, row: usize, col: usize) -> u32 {
        match self {
            KeyIndex::Dense { table, cols } => table[row * cols + col],
            KeyIndex::Sparse(map) => map
                .get(&(row as u32, col as u32))
                .copied()
                .unwrap_or(INDEX_NONE),
        }
    }

    fn set(&mut self, row: usize, col: usize, value: u32) {
        match self {
            KeyIndex::Dense { table, cols } => table[row * *cols + col] = value,
            KeyIndex::Sparse(map) => {
                map.insert((row as u32, col as u32), value);
            }
        }
    }
}

/// One agent's finished information sets: cells with agent-local dense ids
/// `0..` and the node → cell map (indexed by `node − 1`).
struct AgentCells<L> {
    cells: Vec<Cell<L>>,
    cell_of: Vec<CellId>,
}

/// Builds agent `agent`'s information-set cells in one pass over the
/// (non-root) nodes.
///
/// Cost scales with *distinct* states, not nodes: each distinct global
/// state is projected onto the agent's local data once and interned into a
/// [`LocalPool`], so the per-node work is three array reads of a copyable
/// `(time, LocalId)` key — no `G::Local` clone or hash per node, and no
/// hash probe either: the key space is dense (`time × LocalId`), so the
/// cell index is a flat table. Cell run-sets are filled from the node's
/// contiguous run interval one word at a time ([`RunSet::insert_range`]).
fn build_agent_cells<G: GlobalState>(
    agent: AgentId,
    pool: &StatePool<G>,
    states: &[Option<StateId>],
    depths: &[u32],
    run_ranges: &[(u32, u32)],
    n_runs: usize,
    max_depth: usize,
) -> AgentCells<G::Local> {
    let mut locals: LocalPool<G::Local> = LocalPool::default();
    let local_of: Vec<LocalId> = pool
        .iter()
        .map(|(_, state)| locals.intern(state.local(agent)))
        .collect();
    let n_locals = locals.len();
    let mut cells: Vec<Cell<G::Local>> = Vec::new();
    let mut cell_of: Vec<CellId> = vec![CellId(INDEX_NONE); states.len() - 1];
    // `(time, local) → cell` index; node times are `0..max_depth`.
    let mut index = KeyIndex::new(max_depth, n_locals);
    for i in 1..states.len() {
        let sid = states[i].expect("non-root node has state");
        let time = depths[i] - 1;
        let local = local_of[sid.index()];
        let mut slot = index.get(time as usize, local.index());
        if slot == INDEX_NONE {
            slot = cells.len() as u32;
            index.set(time as usize, local.index(), slot);
            cells.push(Cell {
                agent,
                time,
                data: locals[local].clone(),
                nodes: Vec::new(),
                runs: RunSet::empty(n_runs),
            });
        }
        let cell_id = CellId(slot);
        let cell = &mut cells[cell_id.index()];
        cell.nodes.push(NodeId(i as u32));
        let (lo, hi) = run_ranges[i];
        cell.runs.insert_range(lo as usize..hi as usize);
        cell_of[i - 1] = cell_id;
    }
    AgentCells { cells, cell_of }
}

/// Incremental constructor for a [`Pps`].
///
/// Nodes are added top-down: first initial states via
/// [`PpsBuilder::initial`], then transitions via [`PpsBuilder::child`].
/// [`PpsBuilder::build`] validates every invariant (distributions summing to
/// one, strictly positive probabilities, action well-formedness) and returns
/// the indexed system.
///
/// # Examples
///
/// ```
/// use pak_core::prelude::*;
/// use pak_num::Rational;
///
/// let mut b = PpsBuilder::<SimpleState, Rational>::new(2);
/// let s0 = b.initial(SimpleState::zeroed(2), Rational::from_ratio(1, 2))?;
/// let s1 = b.initial(
///     SimpleState::zeroed(2).with_local(AgentId(0), 1),
///     Rational::from_ratio(1, 2),
/// )?;
/// // Each initial state is also a leaf here: a depth-0 ("flat") system.
/// let pps = b.build()?;
/// assert_eq!(pps.num_runs(), 2);
/// # let _ = s0; let _ = s1;
/// # Ok::<(), PpsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PpsBuilder<G: GlobalState, P: Probability> {
    n_agents: u32,
    pool: StatePool<G>,
    nodes: NodeTable<P>,
    action_names: HashMap<ActionId, String>,
}

impl<G: GlobalState, P: Probability> PpsBuilder<G, P> {
    /// Creates a builder for a system of `n_agents` agents.
    #[must_use]
    pub fn new(n_agents: u32) -> Self {
        PpsBuilder {
            n_agents,
            pool: StatePool::new(),
            nodes: NodeTable::new_root(),
            action_names: HashMap::new(),
        }
    }

    /// Interns a global state, returning the id of the stored copy. Equal
    /// states always return the same id, so callers that revisit states
    /// (the unfolder's frontier, successor merging) can compare and store
    /// ids instead of cloning states.
    pub fn intern(&mut self, state: G) -> StateId {
        self.pool.intern(state)
    }

    /// Resolves an id handed out by [`PpsBuilder::intern`].
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this builder.
    #[must_use]
    pub fn state(&self, id: StateId) -> &G {
        &self.pool[id]
    }

    /// Adds an initial global state with prior probability `prob`.
    ///
    /// # Errors
    ///
    /// Returns [`PpsError::NonPositiveProbability`] if `prob ≤ 0`, or
    /// [`PpsError::AgentOutOfRange`] if the state has too few locals.
    pub fn initial(&mut self, state: G, prob: P) -> Result<NodeId, PpsError> {
        let sid = self.pool.intern(state);
        self.push_node(NodeId::ROOT, sid, prob, &[])
    }

    /// Adds an initial global state by interned id (see
    /// [`PpsBuilder::intern`]): the allocation-free variant of
    /// [`PpsBuilder::initial`].
    ///
    /// # Errors
    ///
    /// As [`PpsBuilder::initial`], plus [`PpsError::UnknownState`] if
    /// `state` is out of range for this builder's pool. Ids are plain
    /// indices, so an *in-range* id minted by a different builder cannot
    /// be detected — it resolves to whatever state this builder stores at
    /// that index. Never pass ids across builders.
    pub fn initial_interned(&mut self, state: StateId, prob: P) -> Result<NodeId, PpsError> {
        if self.pool.get(state).is_none() {
            return Err(PpsError::UnknownState { state });
        }
        self.push_node(NodeId::ROOT, state, prob, &[])
    }

    /// Adds a successor of `parent` reached with probability `prob`, with
    /// the given joint actions performed on the transition.
    ///
    /// # Errors
    ///
    /// Returns an error if `parent` is unknown, `prob ≤ 0`, the same agent
    /// appears twice in `actions`, or an agent is out of range.
    pub fn child(
        &mut self,
        parent: NodeId,
        state: G,
        prob: P,
        actions: &[(AgentId, ActionId)],
    ) -> Result<NodeId, PpsError> {
        if parent.index() >= self.nodes.len() {
            return Err(PpsError::UnknownNode { node: parent });
        }
        let sid = self.pool.intern(state);
        self.push_node(parent, sid, prob, actions)
    }

    /// Adds a successor by interned id (see [`PpsBuilder::intern`]): the
    /// allocation-free variant of [`PpsBuilder::child`].
    ///
    /// # Errors
    ///
    /// As [`PpsBuilder::child`], plus [`PpsError::UnknownState`] if
    /// `state` is out of range for this builder's pool (in-range ids from
    /// a different builder cannot be detected — see
    /// [`PpsBuilder::initial_interned`]).
    pub fn child_interned(
        &mut self,
        parent: NodeId,
        state: StateId,
        prob: P,
        actions: &[(AgentId, ActionId)],
    ) -> Result<NodeId, PpsError> {
        if parent.index() >= self.nodes.len() {
            return Err(PpsError::UnknownNode { node: parent });
        }
        if self.pool.get(state).is_none() {
            return Err(PpsError::UnknownState { state });
        }
        self.push_node(parent, state, prob, actions)
    }

    /// Registers a human-readable name for an action.
    pub fn action_name(&mut self, action: ActionId, name: impl Into<String>) -> &mut Self {
        self.action_names.insert(action, name.into());
        self
    }

    fn push_node(
        &mut self,
        parent: NodeId,
        state: StateId,
        prob: P,
        actions: &[(AgentId, ActionId)],
    ) -> Result<NodeId, PpsError> {
        let id = NodeId(self.nodes.len() as u32);
        if !prob.at_least(&P::zero()) || prob.is_zero() {
            return Err(PpsError::NonPositiveProbability { node: id });
        }
        if !P::one().at_least(&prob) {
            return Err(PpsError::ProbabilityAboveOne { node: id });
        }
        for (idx, &(agent, _)) in actions.iter().enumerate() {
            if agent.0 >= self.n_agents {
                return Err(PpsError::AgentOutOfRange {
                    agent,
                    n_agents: self.n_agents,
                });
            }
            if actions[..idx].iter().any(|&(a, _)| a == agent) {
                return Err(PpsError::DuplicateAgentAction { node: id, agent });
            }
        }
        if parent == NodeId::ROOT && !actions.is_empty() {
            return Err(PpsError::ActionOnInitialEdge { node: id });
        }
        let depth = self.nodes.depths[parent.index()] + 1;
        self.nodes.push(parent, state, depth, prob, actions);
        Ok(id)
    }

    /// Validates the tree and produces the indexed [`Pps`].
    ///
    /// # Errors
    ///
    /// Returns [`PpsError::NoInitialStates`] for an empty tree, or
    /// [`PpsError::BadDistribution`] if any internal node's outgoing
    /// probabilities do not sum to one.
    pub fn build(self) -> Result<Pps<G, P>, PpsError> {
        Pps::from_parts(self.n_agents, self.pool, self.nodes, self.action_names)
    }
}

impl<G: GlobalState, P: Probability> Default for PpsBuilder<G, P> {
    fn default() -> Self {
        PpsBuilder {
            n_agents: 1,
            pool: StatePool::new(),
            nodes: NodeTable::new_root(),
            action_names: HashMap::new(),
        }
    }
}

/// Append-only growth of a finished [`Pps`], one frontier level at a
/// time — how every unfolded tree is built (`Unfolder` in
/// `pak-protocol` seeds the prior through [`PpsBuilder`] and grows every
/// later level here).
///
/// A finished system is immutable; the extender owns one and re-opens it
/// for strictly append-shaped edits through a level protocol:
/// [`PpsExtender::begin_level`] opens a level, [`PpsExtender::append_child`]
/// / [`PpsExtender::append_replay`] add children under leaves of
/// the current maximal depth (parents in ascending id order, each
/// parent's children in one contiguous block), and
/// [`PpsExtender::commit_level`] validates the new distributions and
/// *incrementally repairs* every derived index:
///
/// * the child arena gains the new blocks; when the tree is in level
///   order they simply append, otherwise (a hand-built tree in another
///   node order) it is rebuilt by the counting sort the build pass uses;
/// * runs are re-rooted at the old leaves — an unextended run's path and
///   probability move over verbatim, an extended run becomes one run per
///   appended child with the old probability (the from-scratch prefix
///   product at that leaf) multiplied by the new edge, so every
///   probability is produced by the exact operand sequence the full DFS
///   would have used;
/// * per-node run intervals are renumbered through the old-run → new-run
///   map (intervals stay contiguous), and each new leaf gets its unit
///   interval;
/// * information-set cells are extended with the new `time × local` rows
///   only — all new nodes share one fresh time, so they can never join an
///   old cell — spliced per agent behind that agent's existing cells, and
///   every old cell's run-set is refilled from its members' renumbered
///   intervals (canonical bitsets, so the widened sets are bit-identical
///   to freshly built ones). New cells are ordered by the first new node
///   of each local state, as the build pass orders them.
///
/// The result after each commit is **bit-identical** to what
/// [`PpsBuilder::build`] produces for the grown tree with the same node
/// order — same pool ids, run arena, probabilities, and cells. The
/// differential harness enforces this contract.
///
/// [`PpsExtender::abort_level`] (or a failed commit) unwinds the open
/// level completely; the retained system stays valid and queryable.
#[derive(Debug, Clone)]
pub struct PpsExtender<G: GlobalState, P: Probability> {
    pps: Pps<G, P>,
    /// Per-agent local pools, kept alive across levels. A local id only
    /// keys the new level's cells while they are bucketed, so ids need
    /// not match the build pass's.
    locals: Vec<LocalPool<G::Local>>,
    /// `local_of[agent][sid]`, extended at each commit as the state pool
    /// grows.
    local_of: Vec<Vec<LocalId>>,
    /// Depth of the current leaf frontier — the maximal depth in the
    /// table; extended parents must sit exactly there.
    frontier_depth: u32,
    /// Rollback watermarks of the open level, if one is open.
    level: Option<Watermarks>,
    /// The open level's appended child blocks, in ascending parent order.
    entries: Vec<LevelEntry>,
    // Buffers each commit reuses instead of reallocating; empty between
    // commits except for their capacity.
    /// Old run → first new run.
    run_map: Vec<u32>,
    /// `(first, count)` of the blocks whose sums this commit checked.
    checked: Vec<(u32, u32)>,
    /// One agent's new cells while they are assembled.
    new_cells: Vec<Cell<G::Local>>,
    /// `slot_of[local]`: the new cell of a local id in `new_cells`, or
    /// [`INDEX_NONE`].
    slot_of: Vec<u32>,
}

/// One extended parent's appended child block.
#[derive(Debug, Clone, Copy)]
struct LevelEntry {
    parent: NodeId,
    /// The block's first child; the rest follow consecutively.
    first: u32,
    count: u32,
    /// The first template node of a block appended whole by
    /// [`PpsExtender::append_replay`], which repeats the
    /// template range's edge probabilities id for id.
    template: Option<u32>,
}

/// Table lengths at [`PpsExtender::begin_level`], which an aborted level
/// truncates back to.
#[derive(Debug, Clone, Copy)]
struct Watermarks {
    nodes: usize,
    probs: usize,
    actions: usize,
    pool: usize,
}

impl<G: GlobalState, P: Probability> PpsExtender<G, P> {
    /// Wraps a finished system for incremental growth.
    #[must_use]
    pub fn new(pps: Pps<G, P>) -> Self {
        let n_agents = pps.n_agents as usize;
        let locals = (0..n_agents).map(|_| LocalPool::default()).collect();
        let local_of = vec![Vec::new(); n_agents];
        let frontier_depth = pps.nodes.depths.iter().copied().max().unwrap_or(0);
        PpsExtender {
            pps,
            locals,
            local_of,
            frontier_depth,
            level: None,
            entries: Vec::new(),
            run_map: Vec::new(),
            checked: Vec::new(),
            new_cells: Vec::new(),
            slot_of: Vec::new(),
        }
    }

    /// The wrapped system (always valid — an open level's appends become
    /// visible only after [`PpsExtender::commit_level`]; use between
    /// levels to query the tree grown so far).
    #[must_use]
    pub fn pps(&self) -> &Pps<G, P> {
        &self.pps
    }

    /// Unwraps the system, dropping the extension state.
    ///
    /// # Panics
    ///
    /// Panics if a level is open.
    #[must_use]
    pub fn into_pps(self) -> Pps<G, P> {
        assert!(self.level.is_none(), "into_pps: a level is still open");
        self.pps
    }

    /// The depth of the current leaf frontier (node time plus one);
    /// children appended in the next level land at this depth plus one.
    #[must_use]
    pub fn frontier_depth(&self) -> u32 {
        self.frontier_depth
    }

    /// Opens an extension level: records the rollback watermarks and
    /// admits [`PpsExtender::append_child`] /
    /// [`PpsExtender::append_replay`] calls until
    /// [`PpsExtender::commit_level`] or [`PpsExtender::abort_level`].
    ///
    /// # Panics
    ///
    /// Panics if a level is already open.
    pub fn begin_level(&mut self) {
        assert!(self.level.is_none(), "begin_level: a level is already open");
        self.level = Some(Watermarks {
            nodes: self.pps.nodes.len(),
            probs: self.pps.nodes.probs.len(),
            actions: self.pps.nodes.action_data.len(),
            pool: self.pps.pool.len(),
        });
        self.entries.clear();
    }

    /// Interns a global state into the retained pool (rolled back if the
    /// level aborts), returning its id — the extension sibling of
    /// [`PpsBuilder::intern`].
    ///
    /// # Panics
    ///
    /// Panics if no level is open (interned states outside a level could
    /// not be rolled back, and an unused pool entry would break the
    /// bit-identity contract).
    pub fn intern(&mut self, state: G) -> StateId {
        assert!(self.level.is_some(), "intern outside an open level");
        self.pps.pool.intern(state)
    }

    /// Resolves an id handed out by [`PpsExtender::intern`] or carried by
    /// a node of the wrapped system.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn state(&self, id: StateId) -> &G {
        &self.pps.pool[id]
    }

    /// Appends a child of frontier leaf `parent` — the extension sibling
    /// of [`PpsBuilder::child_interned`], with the same per-edge
    /// validation. Parents must arrive in ascending id order, and all of
    /// a parent's children must be appended in one contiguous block.
    ///
    /// # Errors
    ///
    /// As [`PpsBuilder::child_interned`]: unknown state, non-positive or
    /// above-one probability, out-of-range agent, duplicate agent action.
    ///
    /// # Panics
    ///
    /// Panics if no level is open, `parent` is not a pre-level node, is
    /// the root, is not at the frontier depth, already had children
    /// before the level, or is below the last parent extended in this
    /// level.
    pub fn append_child(
        &mut self,
        parent: NodeId,
        state: StateId,
        prob: P,
        actions: &[(AgentId, ActionId)],
    ) -> Result<NodeId, PpsError> {
        let id = NodeId(self.pps.nodes.len() as u32);
        if self.pps.pool.get(state).is_none() {
            return Err(PpsError::UnknownState { state });
        }
        if !prob.at_least(&P::zero()) || prob.is_zero() {
            return Err(PpsError::NonPositiveProbability { node: id });
        }
        if !P::one().at_least(&prob) {
            return Err(PpsError::ProbabilityAboveOne { node: id });
        }
        for (idx, &(agent, _)) in actions.iter().enumerate() {
            if agent.0 >= self.pps.n_agents {
                return Err(PpsError::AgentOutOfRange {
                    agent,
                    n_agents: self.pps.n_agents,
                });
            }
            if actions[..idx].iter().any(|&(a, _)| a == agent) {
                return Err(PpsError::DuplicateAgentAction { node: id, agent });
            }
        }
        self.note_extension(parent, 1, None);
        let depth = self.frontier_depth + 1;
        self.pps.nodes.push(parent, state, depth, prob, actions);
        Ok(id)
    }

    /// Bulk-appends `count` children of frontier leaf `parent` replaying
    /// the contiguous template range starting at `first_template`: each
    /// child shares its template's state, edge probability and action
    /// labels by id, with no per-edge check or copy. Returns the id of the
    /// first appended child.
    ///
    /// # Panics
    ///
    /// As [`PpsExtender::append_child`] for `parent`, plus if the
    /// template range is empty, out of bounds, or touches the root.
    pub fn append_replay(
        &mut self,
        parent: NodeId,
        first_template: NodeId,
        count: usize,
    ) -> NodeId {
        assert!(count > 0, "append_replay: empty template range");
        assert!(
            first_template != NodeId::ROOT,
            "templates must not include the root"
        );
        assert!(
            first_template.index() + count <= self.pps.nodes.len(),
            "template range out of bounds"
        );
        self.note_extension(parent, count as u32, Some(first_template.0));
        self.pps
            .nodes
            .replay_range(parent, first_template.index(), count)
    }

    /// Validates `parent` as an extendable frontier leaf and records
    /// `count` children appended under it (contiguity bookkeeping).
    fn note_extension(&mut self, parent: NodeId, count: u32, template: Option<u32>) {
        let level = self
            .level
            .expect("appending children outside an open level");
        if let Some(entry) = self.entries.last_mut() {
            if entry.parent == parent {
                // Continuing the open block: `parent` passed the checks
                // below when the block began. The block no longer mirrors
                // one template range.
                entry.count += count;
                entry.template = None;
                return;
            }
            assert!(
                parent > entry.parent,
                "parent {parent} extended after parent {}: parents must ascend",
                entry.parent
            );
        }
        assert!(
            parent != NodeId::ROOT,
            "cannot extend the root — initial states are fixed at build time"
        );
        assert!(
            parent.index() < level.nodes,
            "extended parent {parent} was appended in this level"
        );
        assert_eq!(
            self.pps.nodes.depths[parent.index()],
            self.frontier_depth,
            "extended parent {parent} is not on the leaf frontier"
        );
        assert_eq!(
            self.pps.child_offsets[parent.index()],
            self.pps.child_offsets[parent.index() + 1],
            "extended parent {parent} already has children"
        );
        self.entries.push(LevelEntry {
            parent,
            first: self.pps.nodes.len() as u32,
            count,
            template,
        });
    }

    /// Discards the open level: appended nodes, their arena entries, and
    /// states interned during the level are all unwound, restoring the
    /// system exactly as it was at [`PpsExtender::begin_level`].
    ///
    /// # Panics
    ///
    /// Panics if no level is open.
    pub fn abort_level(&mut self) {
        let level = self.level.take().expect("abort_level: no level open");
        self.pps
            .nodes
            .truncate(level.nodes, level.probs, level.actions);
        self.pps.pool.truncate(level.pool);
    }

    /// Validates the open level and repairs every derived index (see the
    /// type docs for what is appended vs repaired). On success the
    /// wrapped system is the grown tree, bit-identical to a from-scratch
    /// build; on error the level is aborted and the system is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`PpsError::BadDistribution`] if an extended parent's new
    /// outgoing probabilities do not sum to one.
    ///
    /// # Panics
    ///
    /// Panics if no level is open.
    pub fn commit_level(&mut self) -> Result<(), PpsError> {
        let level = self.level.expect("commit_level: no level open");
        if self.entries.is_empty() {
            // An empty level is a no-op; abort to unwind any states
            // interned without a node.
            self.abort_level();
            return Ok(());
        }
        // Nothing is mutated before validation passes.
        if let Some((node, sum)) = self.first_bad_sum() {
            self.abort_level();
            return Err(PpsError::BadDistribution { node, sum });
        }
        self.level = None;
        let old_nodes = level.nodes;
        // All new nodes share one fresh time — the key fact behind both
        // the run repair (only extended leaves' runs change) and the cell
        // repair (no new node can join an old cell).
        let new_time = self.frontier_depth;
        self.extend_child_arena(old_nodes);
        let n_old_runs = self.pps.run_probs.len();
        let n_runs = self.repair_runs(old_nodes, new_time);
        // Every old run maps to at least one new run, so an unchanged
        // count means each extended leaf gained exactly one child: old run
        // `r` is still run `r`, and the old cells' run-sets stand.
        if n_runs != n_old_runs {
            self.refill_old_cells(n_runs);
        }
        self.add_level_cells(old_nodes, n_runs, new_time);
        self.frontier_depth += 1;
        Ok(())
    }

    /// Places the open level's children in the child arena.
    fn extend_child_arena(&mut self, old_nodes: usize) {
        let n_new = self.pps.nodes.len() - old_nodes;
        // Under level-order growth — nothing but childless frontier
        // leaves from the first extended parent onwards — the old arena is
        // a strict prefix of the new one: the appended children are
        // already grouped by parent in id order (each parent's block is
        // contiguous, parents ascend), which is exactly where the counting
        // sort would place them. So the new entries append, offsets up to
        // the first extended parent stand, and the rest shift by the
        // running count of appended children. A tree in any other node
        // order (hand-built depth-first, say) falls back to the full
        // counting-sort rebuild the build pass uses.
        let p0 = self.entries[0].parent.index();
        let old_arena = self.pps.child_nodes.len();
        if self.pps.child_offsets[p0] as usize == old_arena {
            self.pps.child_nodes.reserve(n_new);
            for entry in &self.entries {
                self.pps
                    .child_nodes
                    .extend((entry.first..entry.first + entry.count).map(NodeId));
            }
            let mut add = 0u32;
            let mut e = 0usize;
            for i in p0 + 1..=old_nodes {
                while e < self.entries.len() && self.entries[e].parent.index() < i {
                    add += self.entries[e].count;
                    e += 1;
                }
                self.pps.child_offsets[i] = old_arena as u32 + add;
            }
            let total = (old_arena + n_new) as u32;
            self.pps.child_offsets.resize(old_nodes + n_new + 1, total);
        } else {
            let (child_nodes, child_offsets) = build_child_arena(&self.pps.nodes.parents);
            self.pps.child_nodes = child_nodes;
            self.pps.child_offsets = child_offsets;
        }
    }

    /// Rebuilds the run arena for the open level and renumbers every
    /// node's run interval, returning the new run count.
    ///
    /// Old runs are walked in order; each maps to itself (leaf
    /// unextended — path and probability move verbatim) or to one new run
    /// per appended child, in child-insertion order — exactly the
    /// sequence the from-scratch DFS would emit, since run order depends
    /// only on structure and per-parent insertion order. An extended
    /// leaf's run has `new_time` nodes, so the new arena's size is known
    /// up front.
    fn repair_runs(&mut self, old_nodes: usize, new_time: Time) -> usize {
        let n_new = self.pps.nodes.len() - old_nodes;
        let n_old_runs = self.pps.run_probs.len();
        let (mut grown_nodes, mut grown_runs) = (0usize, 0usize);
        for entry in &self.entries {
            let count = entry.count as usize;
            grown_nodes += count * (new_time as usize + 1) - new_time as usize;
            grown_runs += count - 1;
        }
        let mut run_nodes = Vec::with_capacity(self.pps.run_nodes.len() + grown_nodes);
        let mut run_offsets = Vec::with_capacity(n_old_runs + grown_runs + 1);
        run_offsets.push(0);
        let mut run_probs = Vec::with_capacity(n_old_runs + grown_runs);
        let old_run_probs = std::mem::take(&mut self.pps.run_probs);
        // `run_map[r]` is the new index of the first run replacing old
        // run `r`; the sentinel `run_map[n_old_runs]` is the final count,
        // so an old interval `(lo, hi)` renumbers to
        // `(run_map[lo], run_map[hi])`.
        self.run_map.clear();
        // Each new node is a leaf on exactly one run: its unit interval
        // is filled as that run is emitted.
        self.pps.run_ranges.resize(old_nodes + n_new, (0, 0));
        for (r, prob) in old_run_probs.into_iter().enumerate() {
            self.run_map.push(run_probs.len() as u32);
            let lo = self.pps.run_offsets[r] as usize;
            let hi = self.pps.run_offsets[r + 1] as usize;
            let path = &self.pps.run_nodes[lo..hi];
            let leaf = path[path.len() - 1];
            let clo = self.pps.child_offsets[leaf.index()] as usize;
            let chi = self.pps.child_offsets[leaf.index() + 1] as usize;
            if clo == chi {
                run_nodes.extend_from_slice(path);
                run_offsets.push(run_nodes.len() as u32);
                run_probs.push(prob);
                continue;
            }
            let mut prob = prob;
            for slot in clo..chi {
                let child = self.pps.child_nodes[slot];
                let run = run_probs.len() as u32;
                self.pps.run_ranges[child.index()] = (run, run + 1);
                run_nodes.extend_from_slice(path);
                run_nodes.push(child);
                run_offsets.push(run_nodes.len() as u32);
                let edge = self.pps.nodes.edge_prob(child.index());
                // The old run probability *is* the from-scratch prefix
                // product at the leaf, so extending it multiplies in the
                // same operand the full DFS would — bit-identical,
                // including the `p · 1` copy fast path, which moves the
                // product into the leaf's last child instead of cloning.
                run_probs.push(if !edge.is_one() {
                    prob.mul(edge)
                } else if slot + 1 == chi {
                    std::mem::replace(&mut prob, P::zero())
                } else {
                    prob.clone()
                });
            }
        }
        self.run_map.push(run_probs.len() as u32);
        let n_runs = run_probs.len();
        if n_runs != n_old_runs {
            for range in &mut self.pps.run_ranges[..old_nodes] {
                range.0 = self.run_map[range.0 as usize];
                range.1 = self.run_map[range.1 as usize];
            }
        }
        self.pps.run_nodes = run_nodes;
        self.pps.run_offsets = run_offsets;
        self.pps.run_probs = run_probs;
        n_runs
    }

    /// Refills every existing cell's run-set from its members' renumbered
    /// intervals.
    fn refill_old_cells(&mut self, n_runs: usize) {
        for cell in &mut self.pps.cells {
            cell.runs.reset(n_runs);
            // Members are in node-id order, so their (renumbered) run
            // intervals are sorted and frequently abut — coalesce before
            // filling to cut the per-member word-op overhead.
            let (mut lo, mut hi) = (0u32, 0u32);
            for &member in &cell.nodes {
                let (mlo, mhi) = self.pps.run_ranges[member.index()];
                if mlo == hi {
                    hi = mhi;
                } else {
                    cell.runs.insert_range(lo as usize..hi as usize);
                    (lo, hi) = (mlo, mhi);
                }
            }
            cell.runs.insert_range(lo as usize..hi as usize);
        }
    }

    /// Buckets the open level's nodes into new cells.
    ///
    /// States new to the retained local pools are projected and interned
    /// first. Then each agent gains cells for the fresh `(new_time,
    /// local)` keys only, in order of their first new node, spliced
    /// behind its existing block — the id order a from-scratch build
    /// emits, because the fresh keys appear after all of an agent's old
    /// keys in first-occurrence order. Later agents' blocks shift by the
    /// new cells of the agents before them.
    fn add_level_cells(&mut self, old_nodes: usize, n_runs: usize, new_time: Time) {
        let new_states = &self.pps.nodes.states[old_nodes..];
        let mut shift = 0u32;
        for (a, (agent_pool, of)) in self.locals.iter_mut().zip(&mut self.local_of).enumerate() {
            let agent = AgentId(a as u32);
            for sid in of.len()..self.pps.pool.len() {
                of.push(agent_pool.intern(self.pps.pool[StateId(sid as u32)].local(agent)));
            }
            self.slot_of.resize(agent_pool.len(), INDEX_NONE);
            let old_count = self.pps.first_cell[a + 1] - self.pps.first_cell[a];
            self.pps.first_cell[a] += shift;
            let column = &mut self.pps.cell_of[a];
            for (k, sid) in new_states.iter().enumerate() {
                let local = of[sid.expect("non-root node has a state").index()];
                let slot = &mut self.slot_of[local.index()];
                if *slot == INDEX_NONE {
                    *slot = self.new_cells.len() as u32;
                    self.new_cells.push(Cell {
                        agent,
                        time: new_time,
                        data: agent_pool[local].clone(),
                        nodes: Vec::new(),
                        runs: RunSet::empty(n_runs),
                    });
                }
                let node = old_nodes + k;
                let cell = &mut self.new_cells[*slot as usize];
                cell.nodes.push(NodeId(node as u32));
                cell.runs.insert(RunId(self.pps.run_ranges[node].0));
                column.push(CellId(old_count + *slot));
            }
            for cell in &self.new_cells {
                let sid = self.pps.nodes.states[cell.nodes[0].index()];
                let local = of[sid.expect("non-root node has a state").index()];
                self.slot_of[local.index()] = INDEX_NONE;
            }
            let at = (self.pps.first_cell[a] + old_count) as usize;
            shift += self.new_cells.len() as u32;
            self.pps.cells.splice(at..at, self.new_cells.drain(..));
        }
        self.pps.first_cell[self.local_of.len()] += shift;
    }

    /// The first extended parent of the open level whose new children do
    /// not sum to one, with that sum. A block replaying a block this
    /// level has already summed repeats its edge probabilities id for id,
    /// so it is not summed again.
    fn first_bad_sum(&mut self) -> Option<(NodeId, f64)> {
        self.checked.clear();
        for entry in &self.entries {
            let (first, count) = (entry.first, entry.count);
            if let Some(template) = entry.template {
                if self.checked.binary_search(&(template, count)).is_ok() {
                    continue;
                }
            }
            // Same single-child specialisation as the build pass: a
            // deterministic edge must be exactly one, no sum needed.
            if count == 1 {
                let p = self.pps.nodes.edge_prob(first as usize);
                if !p.is_one() {
                    return Some((entry.parent, p.to_f64()));
                }
            } else {
                let mut sum = P::zero();
                for child in first..first + count {
                    sum.add_assign(self.pps.nodes.edge_prob(child as usize));
                }
                if !sum.is_one() {
                    return Some((entry.parent, sum.to_f64()));
                }
            }
            self.checked.push((first, count));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SimpleState;
    use pak_num::Rational;

    type B = PpsBuilder<SimpleState, Rational>;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    fn st(env: u64, locals: &[u64]) -> SimpleState {
        SimpleState::new(env, locals.to_vec())
    }

    /// The paper's Figure 1 system: one agent, one initial state, mixed
    /// action α / α′ each with probability ½.
    fn figure1() -> Pps<SimpleState, Rational> {
        let mut b = B::new(1);
        let g0 = b.initial(st(0, &[0]), Rational::one()).unwrap();
        b.child(g0, st(0, &[1]), r(1, 2), &[(AgentId(0), ActionId(0))])
            .unwrap();
        b.child(g0, st(0, &[2]), r(1, 2), &[(AgentId(0), ActionId(1))])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn empty_builder_fails() {
        assert!(matches!(B::new(1).build(), Err(PpsError::NoInitialStates)));
    }

    #[test]
    fn bad_distribution_rejected() {
        let mut b = B::new(1);
        b.initial(st(0, &[0]), r(1, 2)).unwrap();
        assert!(matches!(b.build(), Err(PpsError::BadDistribution { .. })));
    }

    #[test]
    fn zero_probability_rejected() {
        let mut b = B::new(1);
        assert!(matches!(
            b.initial(st(0, &[0]), Rational::zero()),
            Err(PpsError::NonPositiveProbability { .. })
        ));
    }

    #[test]
    fn negative_probability_rejected() {
        let mut b = B::new(1);
        assert!(matches!(
            b.initial(st(0, &[0]), r(-1, 2)),
            Err(PpsError::NonPositiveProbability { .. })
        ));
    }

    #[test]
    fn above_one_probability_rejected() {
        let mut b = B::new(1);
        assert!(matches!(
            b.initial(st(0, &[0]), r(3, 2)),
            Err(PpsError::ProbabilityAboveOne { .. })
        ));
    }

    #[test]
    fn action_on_initial_edge_rejected() {
        let mut b = B::new(1);
        // Abuse push through child with ROOT parent.
        let res = b.child(
            NodeId::ROOT,
            st(0, &[0]),
            Rational::one(),
            &[(AgentId(0), ActionId(0))],
        );
        assert!(matches!(res, Err(PpsError::ActionOnInitialEdge { .. })));
    }

    #[test]
    fn duplicate_agent_action_rejected() {
        let mut b = B::new(1);
        let g0 = b.initial(st(0, &[0]), Rational::one()).unwrap();
        let res = b.child(
            g0,
            st(0, &[1]),
            Rational::one(),
            &[(AgentId(0), ActionId(0)), (AgentId(0), ActionId(1))],
        );
        assert!(matches!(res, Err(PpsError::DuplicateAgentAction { .. })));
    }

    #[test]
    fn agent_out_of_range_rejected() {
        let mut b = B::new(1);
        let g0 = b.initial(st(0, &[0]), Rational::one()).unwrap();
        let res = b.child(
            g0,
            st(0, &[1]),
            Rational::one(),
            &[(AgentId(1), ActionId(0))],
        );
        assert!(matches!(res, Err(PpsError::AgentOutOfRange { .. })));
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut b = B::new(1);
        b.initial(st(0, &[0]), Rational::one()).unwrap();
        let res = b.child(NodeId(99), st(0, &[1]), Rational::one(), &[]);
        assert!(matches!(res, Err(PpsError::UnknownNode { .. })));
    }

    #[test]
    fn figure1_structure() {
        let pps = figure1();
        assert_eq!(pps.num_runs(), 2);
        assert_eq!(pps.num_nodes(), 4); // root + g0 + two leaves
        assert_eq!(pps.horizon(), 1);
        assert_eq!(pps.run_len(RunId(0)), 2);
    }

    #[test]
    fn figure1_measure() {
        let pps = figure1();
        assert_eq!(pps.measure(&pps.all_runs()), Rational::one());
        for run in pps.run_ids() {
            assert_eq!(pps.run_probability(run), &r(1, 2));
        }
    }

    #[test]
    fn figure1_actions() {
        let pps = figure1();
        let (i, alpha) = (AgentId(0), ActionId(0));
        assert!(pps.is_proper(i, alpha));
        let ev = pps.action_event(i, alpha);
        assert_eq!(ev.len(), 1);
        let run = ev.iter().next().unwrap();
        assert_eq!(
            pps.action_point(i, alpha, run),
            Some(Point { run, time: 0 })
        );
        // α′ is also proper; a non-existent action is not.
        assert!(pps.is_proper(i, ActionId(1)));
        assert!(!pps.is_proper(i, ActionId(7)));
    }

    #[test]
    fn figure1_cells_merge_mixed_choice() {
        let pps = figure1();
        // At time 0 the agent has a single local state covering both runs
        // (the mixed choice has not resolved yet).
        let c0 = pps
            .cell_at(
                AgentId(0),
                Point {
                    run: RunId(0),
                    time: 0,
                },
            )
            .unwrap();
        let c1 = pps
            .cell_at(
                AgentId(0),
                Point {
                    run: RunId(1),
                    time: 0,
                },
            )
            .unwrap();
        assert_eq!(c0, c1);
        assert_eq!(pps.cell(c0).runs.len(), 2);
        // At time 1 the local data differ (1 vs 2), so the cells split.
        let d0 = pps
            .cell_at(
                AgentId(0),
                Point {
                    run: RunId(0),
                    time: 1,
                },
            )
            .unwrap();
        let d1 = pps
            .cell_at(
                AgentId(0),
                Point {
                    run: RunId(1),
                    time: 1,
                },
            )
            .unwrap();
        assert_ne!(d0, d1);
    }

    #[test]
    fn indistinguishability_relation() {
        let pps = figure1();
        let a = Point {
            run: RunId(0),
            time: 0,
        };
        let b = Point {
            run: RunId(1),
            time: 0,
        };
        assert!(pps.indistinguishable(AgentId(0), a, b));
        let a1 = Point {
            run: RunId(0),
            time: 1,
        };
        let b1 = Point {
            run: RunId(1),
            time: 1,
        };
        assert!(!pps.indistinguishable(AgentId(0), a1, b1));
    }

    #[test]
    fn action_cells_of_figure1() {
        let pps = figure1();
        let cells = pps.action_cells(AgentId(0), ActionId(0));
        assert_eq!(cells.len(), 1);
        assert_eq!(pps.cell(cells[0]).time, 0);
    }

    #[test]
    fn improper_action_detected_and_tagged() {
        // One agent performing α twice along a single run.
        let mut b = B::new(1);
        let g0 = b.initial(st(0, &[0]), Rational::one()).unwrap();
        let g1 = b
            .child(
                g0,
                st(0, &[1]),
                Rational::one(),
                &[(AgentId(0), ActionId(0))],
            )
            .unwrap();
        b.child(
            g1,
            st(0, &[2]),
            Rational::one(),
            &[(AgentId(0), ActionId(0))],
        )
        .unwrap();
        let pps = b.build().unwrap();
        assert!(!pps.is_proper(AgentId(0), ActionId(0)));
        let (tagged, fresh) = pps.tag_occurrences(AgentId(0), ActionId(0));
        assert_eq!(fresh.len(), 2);
        for &f in &fresh {
            assert!(tagged.is_proper(AgentId(0), f));
        }
        assert!(tagged.action_name(fresh[0]).contains("occ 0"));
    }

    /// Two runs: run 0 performs α at times 0 and 1; run 1 performs α at
    /// time 1 only (its first occurrence sits at a different time).
    fn double_alpha() -> Pps<SimpleState, Rational> {
        let alpha = (AgentId(0), ActionId(0));
        let mut b = B::new(1);
        let g0 = b.initial(st(0, &[0]), Rational::one()).unwrap();
        let a1 = b.child(g0, st(0, &[1]), r(1, 2), &[alpha]).unwrap();
        b.child(a1, st(0, &[2]), Rational::one(), &[alpha]).unwrap();
        let b1 = b.child(g0, st(0, &[3]), r(1, 2), &[]).unwrap();
        b.child(b1, st(0, &[4]), Rational::one(), &[alpha]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn performance_times_on_multi_occurrence_run() {
        let pps = double_alpha();
        let (i, alpha) = (AgentId(0), ActionId(0));
        assert_eq!(pps.performance_times(i, alpha, RunId(0)), vec![0, 1]);
        assert_eq!(pps.performance_times(i, alpha, RunId(1)), vec![1]);
        // Both runs perform α, but twice in run 0: the action is improper
        // and the α event covers everything.
        assert!(!pps.is_proper(i, alpha));
        assert_eq!(pps.action_event(i, alpha).len(), 2);
    }

    #[test]
    fn tag_occurrences_on_multi_occurrence_run() {
        let pps = double_alpha();
        let (i, alpha) = (AgentId(0), ActionId(0));
        let (tagged, fresh) = pps.tag_occurrences(i, alpha);
        assert_eq!(fresh.len(), 2);

        // The tagging is measure-preserving: same runs, same probabilities.
        assert_eq!(tagged.num_runs(), pps.num_runs());
        for run in pps.run_ids() {
            assert_eq!(tagged.run_probability(run), pps.run_probability(run));
        }
        assert!(tagged.measure(&tagged.all_runs()).is_one());

        // Occurrence k of α along each run becomes fresh[k]: run 0 has
        // occurrence 0 at time 0 and occurrence 1 at time 1; run 1 has
        // occurrence 0 at time 1.
        assert_eq!(tagged.performance_times(i, fresh[0], RunId(0)), vec![0]);
        assert_eq!(tagged.performance_times(i, fresh[1], RunId(0)), vec![1]);
        assert_eq!(tagged.performance_times(i, fresh[0], RunId(1)), vec![1]);
        assert!(tagged.performance_times(i, fresh[1], RunId(1)).is_empty());

        // Every fresh action is proper, and the original label is gone.
        for &f in &fresh {
            assert!(tagged.is_proper(i, f));
            assert!(tagged.action_name(f).contains("occ"));
        }
        assert!(tagged.action_event(i, alpha).is_empty());
    }

    #[test]
    fn runs_through_intervals() {
        let pps = figure1();
        let through_root_child = pps.runs_through(NodeId(1));
        assert_eq!(through_root_child.len(), 2);
        let through_leaf = pps.runs_through(NodeId(2));
        assert_eq!(through_leaf.len(), 1);
    }

    #[test]
    fn conditional_measure() {
        let pps = figure1();
        let a = pps.action_event(AgentId(0), ActionId(0));
        assert_eq!(pps.conditional(&a, &pps.all_runs()), Some(r(1, 2)));
        assert_eq!(pps.conditional(&a, &a), Some(Rational::one()));
        assert_eq!(pps.conditional(&pps.all_runs(), &pps.no_runs()), None);
    }

    #[test]
    fn f64_distribution_tolerance() {
        let mut b = PpsBuilder::<SimpleState, f64>::new(1);
        // 0.1 summed ten times is not exactly 1.0 in binary floating point,
        // but must pass the tolerance check.
        for k in 0..10 {
            b.initial(st(k, &[k]), 0.1).unwrap();
        }
        assert!(b.build().is_ok());
    }

    #[test]
    fn points_enumeration() {
        let pps = figure1();
        let pts: Vec<Point> = pps.points().collect();
        assert_eq!(pts.len(), 4); // two runs × two times
    }

    #[test]
    fn state_access() {
        let pps = figure1();
        let s = pps
            .state_at(Point {
                run: RunId(0),
                time: 0,
            })
            .unwrap();
        assert_eq!(s.local(AgentId(0)), 0);
        assert!(pps
            .state_at(Point {
                run: RunId(0),
                time: 9
            })
            .is_none());
        assert_eq!(pps.node_time(NodeId(1)), 0);
    }

    #[test]
    fn action_names() {
        let mut pps = figure1();
        assert_eq!(pps.action_name(ActionId(0)), "action#0");
        pps.set_action_name(ActionId(0), "fire");
        assert_eq!(pps.action_name(ActionId(0)), "fire");
    }

    #[test]
    fn key_index_dense_and_sparse_agree() {
        // Below the cell cap: dense table. Above: hash map. Both must
        // behave identically (the sweep only ever exercises the dense
        // path, so the sparse fallback is pinned here).
        let mut dense = KeyIndex::new(16, 16);
        assert!(matches!(dense, KeyIndex::Dense { .. }));
        let rows = 1 << 11;
        let mut sparse = KeyIndex::new(rows, rows); // 4M cells > the cap
        assert!(matches!(sparse, KeyIndex::Sparse(_)));
        for index in [&mut dense, &mut sparse] {
            assert_eq!(index.get(3, 5), INDEX_NONE);
            index.set(3, 5, 42);
            index.set(0, 0, 7);
            assert_eq!(index.get(3, 5), 42);
            assert_eq!(index.get(0, 0), 7);
            assert_eq!(index.get(5, 3), INDEX_NONE);
            index.set(3, 5, 43); // overwrite
            assert_eq!(index.get(3, 5), 43);
        }
        // Sparse accepts coordinates far outside any dense allocation.
        sparse.set(rows - 1, rows - 1, 9);
        assert_eq!(sparse.get(rows - 1, rows - 1), 9);
    }
}
