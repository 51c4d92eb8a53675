//! Property tests for the extension modules: belief dynamics, common
//! belief, policy prediction, and the broadcast family — plus the
//! interleaving behaviour of incremental horizon extension (growing a
//! retained [`Unfolder`] between queries, double extension, clean failure
//! past the node budget, and growing hand-built trees through
//! [`PpsExtender`] directly).
//!
//! The case grids are deterministic (fixed seed strides, no external
//! property-testing dependency), so every failure replays exactly.

mod common;

use pak::core::prelude::*;
use pak::core::trace::{belief_envelope, BeliefTrace};
use pak::logic::common::{believes_set, common_belief, fact_points};
use pak::num::Rational;
use pak::protocol::generator::{random_model, random_pps, RandomModelConfig};
use pak::protocol::unfold::{unfold_with, UnfoldConfig, UnfoldError, Unfolder};
use pak::systems::broadcast::Broadcast;
use pak::systems::firing_squad::FiringSquad;
use pak::systems::policy::sweep_policies;

fn cfg(seed: u64) -> RandomModelConfig {
    RandomModelConfig {
        n_agents: 1 + (seed % 2) as u32,
        initial_states: 1 + (seed % 2) as u32,
        horizon: 2 + (seed % 2) as u32,
        envs: 2 + (seed % 2),
        max_env_branching: 2,
        local_values: 2,
        actions_per_agent: 2,
    }
}

/// Deterministic case grid: `n` seeds striding `0..range`.
fn seeds(n: u64, range: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| (i.wrapping_mul(13) + 7) % range)
}

/// A run fact: "the run's final environment value is even". Constant along
/// each run, so beliefs about it form a martingale.
fn final_env_even(pps: &Pps<SimpleState, Rational>) -> FnFact<SimpleState, Rational> {
    let _ = pps;
    FnFact::new(
        "final env even",
        |pps: &Pps<SimpleState, Rational>, pt: Point| {
            let last = pps.run_len(pt.run) as u32 - 1;
            pps.state_at(Point {
                run: pt.run,
                time: last,
            })
            .is_some_and(|g| g.env % 2 == 0)
        },
    )
}

/// The tower rule (§6.1's Jeffrey conditionalisation, dynamically): for
/// a fact about runs, the expected belief trajectory is constant — a
/// martingale — and equals the fact's prior probability.
#[test]
fn belief_martingale_on_run_facts() {
    for seed in seeds(24, 200) {
        let pps = random_pps::<Rational>(seed, &cfg(seed)).unwrap();
        let fact = final_env_even(&pps);
        if !pps.is_run_fact(&fact) {
            continue;
        }
        let prior = pps.measure(&pps.run_fact_event(&fact));
        for agent in pps.agents() {
            let env = belief_envelope(&pps, agent, &fact);
            for (t, e) in env.expected.iter().enumerate() {
                assert_eq!(
                    e.clone(),
                    prior.clone(),
                    "seed {seed}: E[β at t={t}] must equal the prior"
                );
            }
        }
    }
}

/// Belief traces are bounded by the envelope, and resolve to 0/1 iff
/// the agent's final cell decides the fact.
#[test]
fn traces_lie_within_envelope() {
    for seed in seeds(24, 200) {
        let pps = random_pps::<Rational>(seed, &cfg(seed)).unwrap();
        let fact = final_env_even(&pps);
        for agent in pps.agents() {
            let env = belief_envelope(&pps, agent, &fact);
            for run in pps.run_ids() {
                let trace = BeliefTrace::compute(&pps, agent, &fact, run);
                for (t, v) in trace.values.iter().enumerate() {
                    assert!(v.at_least(&env.min[t]));
                    assert!(env.max[t].at_least(v));
                }
            }
        }
    }
}

/// Common belief is monotone: C^p ⊆ C^q for p ≥ q, and C^p ⊆ E^p(ϕ).
#[test]
fn common_belief_laws() {
    for seed in seeds(12, 100) {
        let pps = random_pps::<Rational>(seed, &cfg(seed)).unwrap();
        let fact = StateFact::new("env even", |g: &SimpleState| g.env.is_multiple_of(2));
        let agents: Vec<AgentId> = pps.agents().collect();
        for (pn, qn) in [(9i64, 1i64), (5, 5), (7, 3), (2, 1)] {
            let (hi, lo) = if pn >= qn { (pn, qn) } else { (qn, pn) };
            let p = Rational::from_ratio(hi, 10);
            let q = Rational::from_ratio(lo, 10);
            let cp = common_belief(&pps, &agents, &p, &fact);
            let cq = common_belief(&pps, &agents, &q, &fact);
            assert!(cp.is_subset(&cq), "seed {seed}: C^p ⊄ C^q for p ≥ q");
            // C^p(ϕ) ⊆ B_i^p(ϕ-points ∩ C^p) for every agent (fixpoint property).
            let phi = fact_points(&pps, &fact);
            let restricted: pak::logic::PointSet = phi.intersection(&cp).copied().collect();
            for &agent in &agents {
                let b = believes_set(&pps, agent, &p, &restricted);
                assert!(cp.is_subset(&b), "seed {seed}: fixpoint property violated");
            }
        }
    }
}

/// Policy predictions equal measurements across random FS parameters.
#[test]
fn policy_predictions_always_match() {
    for ln in 1i64..5 {
        for gn in 1i64..5 {
            for copies in 1u32..3 {
                let fs = FiringSquad::new(
                    Rational::from_ratio(ln, 10),
                    Rational::from_ratio(gn, 5),
                    copies,
                );
                for o in sweep_policies(&fs) {
                    assert!(
                        o.prediction_matches(),
                        "policy {:?}: predicted {} ≠ measured {}",
                        o.policy,
                        o.predicted_success,
                        o.success_probability
                    );
                    assert!(o.success_probability.is_valid_probability());
                    assert!(o.fire_probability.is_valid_probability());
                }
            }
        }
    }
}

/// Broadcast closed form across the parameter grid.
#[test]
fn broadcast_matches_closed_form() {
    for n in 2u32..5 {
        for ln in 1i64..5 {
            for rounds in 1u32..3 {
                let b = Broadcast::new(n, Rational::from_ratio(ln, 10), rounds);
                let analysis = b.build_pps().unwrap().analyze();
                assert_eq!(
                    analysis.constraint_probability(),
                    b.closed_form_all_deliver()
                );
                // Theorem 6.2 on the family.
                assert_eq!(
                    analysis.expected_belief(),
                    analysis.constraint_probability()
                );
            }
        }
    }
}

/// Interleaving queries with growth: a retained [`Unfolder`] answers
/// queries at every horizon, keeps growing after them, and after two
/// further extensions still equals the from-scratch unfold capped at the
/// horizon it reports.
#[test]
fn extension_interleaves_with_queries() {
    for seed in seeds(8, 50) {
        let model = random_model::<Rational>(seed, &cfg(seed));
        let mut u = Unfolder::new(
            &model,
            UnfoldConfig {
                horizon: Some(1),
                ..UnfoldConfig::default()
            },
        )
        .unwrap();
        // Query at horizon 1 (the truncated tree is a complete, valid
        // system)…
        assert!(u.pps().measure(&u.pps().all_runs()).is_one(), "seed {seed}");
        // …extend, query again, extend again…
        if u.extend_horizon().unwrap() {
            assert!(u.pps().measure(&u.pps().all_runs()).is_one(), "seed {seed}");
        }
        u.extend_horizon().unwrap();
        // …and the grown tree is bit-identical to a from-scratch unfold
        // at whatever horizon the handle now stands at.
        let scratch = unfold_with(
            &model,
            &UnfoldConfig {
                horizon: Some(u.horizon()),
                ..UnfoldConfig::default()
            },
        )
        .unwrap();
        common::assert_identical_systems(&scratch, u.pps(), &format!("seed {seed}"));
    }
}

/// Growing past `max_nodes` fails with the same error a from-scratch
/// unfold reports, and rolls back completely: the handle stays at its
/// previous horizon, still queryable, still bit-identical to the capped
/// from-scratch unfold.
#[test]
fn extension_past_node_cap_rolls_back_cleanly() {
    let model = random_model::<Rational>(3, &cfg(3));
    // Budget exactly the horizon-1 tree: the handle builds, the first
    // extension must overflow.
    let h1 = unfold_with(
        &model,
        &UnfoldConfig {
            horizon: Some(1),
            ..UnfoldConfig::default()
        },
    )
    .unwrap();
    let cap = h1.num_nodes() - 1; // state nodes only: the root λ is not budgeted
    let mut u = Unfolder::new(
        &model,
        UnfoldConfig {
            max_nodes: cap,
            horizon: Some(1),
            ..UnfoldConfig::default()
        },
    )
    .unwrap();
    assert!(u.can_extend(), "cfg(3) trees are deeper than one level");
    let err = u.extend_horizon().unwrap_err();
    assert!(matches!(err, UnfoldError::TooLarge { max_nodes } if max_nodes == cap));
    assert_eq!(u.horizon(), 1, "failed extension must not advance");
    common::assert_identical_systems(&h1, u.pps(), "after failed extension");
    // The handle still refuses (the budget has not grown), and still
    // answers queries at its old horizon.
    assert!(u.extend_horizon().is_err());
    assert!(u.pps().measure(&u.pps().all_runs()).is_one());
}

/// Trees assembled by hand — no protocol model at all — grow too: a
/// prior-only tree built through [`PpsBuilder`] (and therefore
/// `Pps::from_parts`) is extended one level through [`PpsExtender`]
/// directly, and the result is bit-identical to hand-building the full
/// two-level tree in the same level order.
#[test]
fn hand_built_tree_extends_via_extender() {
    let act = ActionId(0);
    let heads0 = SimpleState::new(1, vec![0]);
    let tails0 = SimpleState::new(0, vec![0]);
    let heads1 = SimpleState::new(1, vec![1]);
    let tails1 = SimpleState::new(0, vec![2]);

    let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
    let h = b
        .initial(heads0.clone(), Rational::from_ratio(1, 3))
        .unwrap();
    let t = b
        .initial(tails0.clone(), Rational::from_ratio(2, 3))
        .unwrap();
    let mut ext = PpsExtender::new(b.build().unwrap());
    assert_eq!(ext.frontier_depth(), 1);
    ext.begin_level();
    let sid_h = ext.intern(heads1.clone());
    let sid_t = ext.intern(tails1.clone());
    ext.append_child(h, sid_h, Rational::one(), &[(AgentId(0), act)])
        .unwrap();
    ext.append_child(t, sid_t, Rational::one(), &[]).unwrap();
    ext.commit_level().unwrap();
    assert_eq!(ext.frontier_depth(), 2);
    let grown = ext.into_pps();

    // The same two-level tree, hand-built from scratch in level order.
    let mut b2 = PpsBuilder::<SimpleState, Rational>::new(1);
    let h2 = b2.initial(heads0, Rational::from_ratio(1, 3)).unwrap();
    let t2 = b2.initial(tails0, Rational::from_ratio(2, 3)).unwrap();
    b2.child(h2, heads1, Rational::one(), &[(AgentId(0), act)])
        .unwrap();
    b2.child(t2, tails1, Rational::one(), &[]).unwrap();
    let want = b2.build().unwrap();

    common::assert_identical_systems(&want, &grown, "hand-built extension");
    assert_eq!(grown.horizon(), 1);
    assert!(grown
        .measure(&grown.action_event(AgentId(0), act))
        .eq(&Rational::from_ratio(1, 3)));
}

/// A hand-built tree in depth-first node order — an internal node's
/// children come after a frontier leaf's id — extends too. The level's
/// children cannot simply append to the child arena there, so the
/// extender rebuilds it by counting sort; the result equals the builder
/// pass over the same node order.
#[test]
fn depth_first_hand_built_tree_extends_via_counting_sort() {
    let s = |env: u64, local: u64| SimpleState::new(env, vec![local]);
    let r = Rational::from_ratio;
    let act = [(AgentId(0), ActionId(0))];
    // Nodes 1..=5 in depth-first order: a0 → a1, then b0 → {b1, b2}.
    // The frontier leaf a1 (node 2) precedes b0's children.
    let prior = |b: &mut PpsBuilder<SimpleState, Rational>| {
        let a0 = b.initial(s(0, 0), r(1, 4)).unwrap();
        let a1 = b.child(a0, s(1, 1), Rational::one(), &[]).unwrap();
        let b0 = b.initial(s(2, 0), r(3, 4)).unwrap();
        let b1 = b.child(b0, s(3, 2), r(1, 2), &act).unwrap();
        b.child(b0, s(4, 2), r(1, 2), &[]).unwrap();
        (a1, b1)
    };
    let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
    let (a1, b1) = prior(&mut b);
    let mut ext = PpsExtender::new(b.build().unwrap());
    ext.begin_level();
    let x = ext.intern(s(5, 3));
    let y = ext.intern(s(6, 3));
    let first = ext.append_child(a1, x, r(1, 3), &act).unwrap();
    ext.append_child(a1, y, r(2, 3), &[]).unwrap();
    ext.append_replay(b1, first, 2);
    ext.commit_level().unwrap();
    let grown = ext.into_pps();

    let mut b2 = PpsBuilder::<SimpleState, Rational>::new(1);
    let (a1, b1) = prior(&mut b2);
    for parent in [a1, b1] {
        b2.child(parent, s(5, 3), r(1, 3), &act).unwrap();
        b2.child(parent, s(6, 3), r(2, 3), &[]).unwrap();
    }
    let want = b2.build().unwrap();
    common::assert_identical_systems(&want, &grown, "depth-first extension");
    common::assert_identical_systems(
        &common::rebuild_through_builder(&grown),
        &grown,
        "depth-first extension rebuilt",
    );
    assert_eq!(grown.num_runs(), 5);
}

/// The extender takes parents in ascending id order only.
#[test]
#[should_panic(expected = "parents must ascend")]
fn extender_rejects_a_descending_parent() {
    let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
    let first = b
        .initial(SimpleState::new(0, vec![0]), Rational::from_ratio(1, 2))
        .unwrap();
    let second = b
        .initial(SimpleState::new(1, vec![0]), Rational::from_ratio(1, 2))
        .unwrap();
    let mut ext = PpsExtender::new(b.build().unwrap());
    ext.begin_level();
    let sid = ext.intern(SimpleState::new(2, vec![1]));
    ext.append_child(second, sid, Rational::one(), &[]).unwrap();
    ext.append_child(first, sid, Rational::one(), &[]).unwrap();
}

#[test]
fn envelope_min_max_bracket_expected() {
    let pps = random_pps::<Rational>(5, &cfg(5)).unwrap();
    let fact = final_env_even(&pps);
    for agent in pps.agents() {
        let env = belief_envelope(&pps, agent, &fact);
        for t in 0..env.expected.len() {
            assert!(env.expected[t].at_least(&env.min[t]));
            assert!(env.max[t].at_least(&env.expected[t]));
        }
    }
}
