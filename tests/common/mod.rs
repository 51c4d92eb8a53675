//! Helpers shared by the differential test layer
//! (`unfold_differential.rs`, `systems_unfold_smoke.rs`,
//! `dsl_differential.rs`, `extension_properties.rs`).

use pak::core::prelude::*;
use pak::num::Rational;

/// Asserts two systems produced from the *same* model/tree are identical
/// in the strict, id-level sense incremental horizon growth promises: same
/// pool ids in the same order, same node order (parents, state ids, times,
/// action labels), same run arena with bit-equal probabilities, and
/// identical cells id for id.
///
/// This is deliberately stronger than observable equivalence — it is the
/// "same pool ids, same node order" contract of `Unfolder::extend_horizon`
/// against a from-scratch unfold capped at the same horizon.
pub fn assert_identical_systems<G: GlobalState>(
    a: &Pps<G, Rational>,
    b: &Pps<G, Rational>,
    ctx: &str,
) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "{ctx}: num_nodes");
    assert_eq!(
        a.num_distinct_states(),
        b.num_distinct_states(),
        "{ctx}: pool size"
    );
    for ((ia, sa), (ib, sb)) in a.state_pool().iter().zip(b.state_pool().iter()) {
        assert_eq!(ia, ib, "{ctx}: pool id order");
        assert_eq!(sa, sb, "{ctx}: pool state {ia}");
    }
    for n in (1..a.num_nodes() as u32).map(NodeId) {
        assert_eq!(a.parent(n), b.parent(n), "{ctx}: parent of {n}");
        assert_eq!(
            a.node_state_id(n),
            b.node_state_id(n),
            "{ctx}: state of {n}"
        );
        assert_eq!(a.node_time(n), b.node_time(n), "{ctx}: time of {n}");
    }
    assert_eq!(a.num_runs(), b.num_runs(), "{ctx}: num_runs");
    for run in a.run_ids() {
        assert_eq!(a.nodes_of(run), b.nodes_of(run), "{ctx}: path of {run}");
        assert_eq!(
            a.run_probability(run),
            b.run_probability(run),
            "{ctx}: probability of {run}"
        );
        for t in 0..a.run_len(run) as u32 {
            let pt = Point { run, time: t };
            assert_eq!(a.actions_at(pt), b.actions_at(pt), "{ctx}: actions at {pt}");
        }
    }
    assert_eq!(a.num_cells(), b.num_cells(), "{ctx}: num_cells");
    for ((ia, ca), (ib, cb)) in a.cells().zip(b.cells()) {
        assert_eq!(ia, ib, "{ctx}: cell id order");
        assert_eq!(ca, cb, "{ctx}: cell {ia}");
    }
}

/// Rebuilds `pps` through [`PpsBuilder`]'s whole-tree build pass: the
/// state pool is re-interned in id order, then every node is replayed in
/// id order (state id, edge probability, action labels) and the tree is
/// built. Unfolded trees grow level by level through `PpsExtender`, so
/// this is the independent reference a grown tree must equal.
pub fn rebuild_through_builder<G: GlobalState>(pps: &Pps<G, Rational>) -> Pps<G, Rational> {
    let mut b = PpsBuilder::new(pps.num_agents());
    for (id, state) in pps.state_pool().iter() {
        assert_eq!(b.intern(state.clone()), id, "pool re-interns in id order");
    }
    for n in (1..pps.num_nodes() as u32).map(NodeId) {
        let parent = pps.parent(n);
        let (_, prob) = pps
            .children(parent)
            .find(|&(c, _)| c == n)
            .expect("a node is among its parent's children");
        let sid = pps.node_state_id(n);
        let id = if parent == NodeId::ROOT {
            b.initial_interned(sid, prob.clone())
        } else {
            // The labels on the edge into `n` are the actions at its
            // parent's point on any run through `n`.
            let run = pps.runs_through(n).iter().next().expect("a run passes n");
            let pt = Point {
                run,
                time: pps.node_time(parent),
            };
            b.child_interned(parent, sid, prob.clone(), pps.actions_at(pt))
        };
        assert_eq!(id.expect("replayed node is valid"), n, "node order");
    }
    b.build().expect("a grown tree rebuilds")
}
