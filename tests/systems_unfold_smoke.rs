//! Scenario-level differential smoke suite for the model API.
//!
//! The seeded random-table sweep in `tests/unfold_differential.rs` proves
//! the unfolding pipeline exact on the `TableModel` family — but the
//! `pak-systems` scenarios exercise model shapes the generator never
//! produces: lossy-channel environments with move-dependent transitions
//! (`LossyMessagingModel`), a move-dependent custom model
//! (`Figure1Model`), zero-round static systems (`FlatModel`), and
//! deterministic threshold protocols. This suite closes that gap: **every**
//! `pak-systems` protocol (attack, broadcast, figure1, firing_squad, flat,
//! judge, mutex, policy, threshold) unfolds at a small horizon through
//! both unfolding APIs —
//!
//! * the from-scratch `unfold_with`, and
//! * a retained `Unfolder` grown one level at a time (0→1→…→h) —
//!
//! and the grown system must be *identical* to the from-scratch unfold
//! capped at every intermediate horizon and to the whole-tree build pass
//! over the same nodes (`common::rebuild_through_builder`): same nodes in
//! the same order, bit-equal run probabilities, identical cells and
//! action events. On top
//! of that, exact-sum checks (`µ(R_T) = 1` and every internal node's
//! outgoing distribution summing exactly to one) hold on each result, and
//! scenarios with a hand-built [`PpsBuilder`] twin are proved observably
//! equivalent to it (same run multiset with exact probabilities, same
//! action-event measures, same analysis quantities).

mod common;

use common::{assert_identical_systems, rebuild_through_builder};
use pak::core::prelude::*;
use pak::num::Rational;
use pak::protocol::model::ProtocolModel;
use pak::protocol::unfold::{unfold_with, UnfoldConfig, Unfolder};
use pak::systems::attack::CoordinatedAttack;
use pak::systems::broadcast::Broadcast;
use pak::systems::figure1::{figure1, Figure1Model};
use pak::systems::firing_squad::{FirePolicy, FiringSquad};
use pak::systems::flat::{FlatModel, FlatSystem};
use pak::systems::judge::JudgeScenario;
use pak::systems::mutex::RelaxedMutex;
use pak::systems::threshold::ThresholdConstruction;

fn r(n: i64, d: i64) -> Rational {
    Rational::from_ratio(n, d)
}

/// Exact-sum checks on one system: the run measure is exactly one, and
/// every internal node's outgoing edge probabilities sum exactly to one.
fn assert_exact_sums<G: GlobalState>(pps: &Pps<G, Rational>, ctx: &str) {
    assert!(
        pps.measure(&pps.all_runs()).is_one(),
        "{ctx}: total run measure ≠ 1"
    );
    for node in (0..pps.num_nodes() as u32).map(NodeId) {
        let mut sum = Rational::zero();
        let mut any = false;
        for (_, p) in pps.children(node) {
            sum.add_assign(p);
            any = true;
        }
        if any {
            assert!(sum.is_one(), "{ctx}: children of {node} sum to {sum}");
        }
    }
}

/// One run as an order-independent signature: the per-time `(state,
/// actions)` trace plus the exact probability, all Debug-rendered so runs
/// of differently-ordered trees compare by content.
fn run_signatures<G: GlobalState>(pps: &Pps<G, Rational>) -> Vec<(Vec<String>, Rational)> {
    let mut sigs: Vec<(Vec<String>, Rational)> = pps
        .run_ids()
        .map(|run| {
            let trace = (0..pps.run_len(run) as u32)
                .map(|t| {
                    let pt = Point { run, time: t };
                    format!(
                        "{:?} / {:?}",
                        pps.state_at(pt).expect("point exists"),
                        pps.actions_at(pt)
                    )
                })
                .collect();
            (trace, pps.run_probability(run).clone())
        })
        .collect();
    sigs.sort_by(|x, y| x.0.cmp(&y.0));
    sigs
}

/// Every `(agent, action)` pair labelling any edge of the system.
fn labelled_actions<G: GlobalState>(pps: &Pps<G, Rational>) -> Vec<(AgentId, ActionId)> {
    let mut out = Vec::new();
    for run in pps.run_ids() {
        for t in 0..pps.run_len(run) as u32 {
            for &pair in pps.actions_at(Point { run, time: t }) {
                if !out.contains(&pair) {
                    out.push(pair);
                }
            }
        }
    }
    out.sort();
    out
}

/// Asserts a model-unfolded system is observably equivalent to a
/// hand-built twin whose node order may differ: identical run multiset
/// (states, action labels, exact probabilities) and identical measure for
/// every action event.
fn assert_equivalent<G: GlobalState>(got: &Pps<G, Rational>, want: &Pps<G, Rational>, ctx: &str) {
    assert_eq!(got.num_runs(), want.num_runs(), "{ctx}: num_runs");
    assert_eq!(
        run_signatures(got),
        run_signatures(want),
        "{ctx}: run multiset"
    );
    let actions = labelled_actions(want);
    assert_eq!(labelled_actions(got), actions, "{ctx}: labelled actions");
    for (agent, action) in actions {
        assert_eq!(
            got.measure(&got.action_event(agent, action)),
            want.measure(&want.action_event(agent, action)),
            "{ctx}: measure of {agent}/{action}"
        );
    }
}

/// The full battery for one protocol model: exact sums on the
/// from-scratch unfold, and incremental horizon growth vs from-scratch
/// capped unfolds at every intermediate horizon. Returns the full unfold
/// for scenario-specific checks.
fn check_model<M>(model: M, ctx: &str) -> Pps<M::Global, Rational>
where
    M: ProtocolModel<Rational>,
{
    let native = unfold_with(&model, &UnfoldConfig::default()).unwrap();
    assert_exact_sums(&native, ctx);
    // Incremental horizon growth: grow from the bare prior one level at a
    // time; at every step the grown system must be bit-identical — pool
    // ids, node order, runs, cells — to a from-scratch unfold capped at
    // the same horizon (depth-0 models extend zero times and must already
    // match at h = 0).
    let mut grown = Unfolder::<_, Rational>::new(
        &model,
        UnfoldConfig {
            horizon: Some(0),
            ..UnfoldConfig::default()
        },
    )
    .unwrap();
    let mut h = 0u32;
    loop {
        let scratch = unfold_with(
            &model,
            &UnfoldConfig {
                horizon: Some(h),
                ..UnfoldConfig::default()
            },
        )
        .unwrap();
        let step = format!("{ctx} [grown h={h}]");
        assert_identical_systems(&scratch, grown.pps(), &step);
        assert_identical_systems(&rebuild_through_builder(grown.pps()), grown.pps(), &step);
        if !grown.extend_horizon().unwrap() {
            break;
        }
        h += 1;
    }
    assert_identical_systems(&native, grown.pps(), &format!("{ctx} [grown full]"));
    native
}

#[test]
fn attack_unfolds_through_both_apis() {
    let ca = CoordinatedAttack::new(r(1, 10), r(1, 2), 2);
    let pps = check_model(ca.model(), "attack");
    let want = ca.build_pps().unwrap();
    assert_equivalent(&pps, want.pps(), "attack vs build_pps");
}

#[test]
fn broadcast_unfolds_through_both_apis() {
    let bc = Broadcast::new(3, r(1, 10), 1);
    let pps = check_model(bc.model(), "broadcast");
    let want = bc.build_pps().unwrap();
    assert_equivalent(&pps, want.pps(), "broadcast vs build_pps");
}

#[test]
fn figure1_model_reproduces_hand_built_tree() {
    let pps = check_model(Figure1Model, "figure1");
    assert_equivalent(&pps, &figure1::<Rational>(), "figure1 vs hand-built");
    // The §4/§6 counterexample numbers survive the protocol route.
    use pak::systems::figure1::{psi, AGENT_I, ALPHA};
    let a = ActionAnalysis::new(&pps, AGENT_I, ALPHA, &psi()).unwrap();
    assert_eq!(a.min_belief_when_acting(), Some(r(1, 2)));
    assert!(a.constraint_probability().is_zero());
}

#[test]
fn firing_squad_unfolds_through_both_apis() {
    let fs = FiringSquad::paper();
    let pps = check_model(fs.model(), "firing_squad");
    let want = fs.build_pps();
    assert_equivalent(&pps, want.pps(), "firing_squad vs build_pps");
}

#[test]
fn flat_model_reproduces_hand_built_system() {
    let worlds = vec![
        (r(1, 2), vec![7, 0]),
        (r(1, 4), vec![7, 1]),
        (r(1, 4), vec![9, 1]),
    ];
    let pps = check_model(FlatModel::new(worlds.clone()), "flat");
    let want = FlatSystem::new(worlds);
    assert_equivalent(&pps, want.pps(), "flat vs hand-built");
    assert_eq!(pps.horizon(), 0, "flat systems are depth-0");
}

#[test]
fn judge_model_reproduces_hand_built_tree() {
    let j = JudgeScenario::new(r(1, 2), r(9, 10), 3, 2);
    let pps = check_model(j.clone(), "judge");
    assert_equivalent(&pps, &j.build_pps(), "judge vs build_pps");
    // The conviction analysis agrees exactly between the two routes.
    use pak::systems::judge::{CONVICT, JUDGE};
    let via_model =
        ActionAnalysis::new(&pps, JUDGE, CONVICT, &JudgeScenario::<Rational>::guilty()).unwrap();
    let via_tree = j.analyze().unwrap();
    assert_eq!(
        via_model.constraint_probability(),
        via_tree.constraint_probability()
    );
    assert_eq!(via_model.expected_belief(), via_tree.expected_belief());
}

#[test]
fn mutex_model_reproduces_hand_built_tree() {
    let m = RelaxedMutex::new(r(1, 5), r(1, 20), 2);
    let pps = check_model(m.clone(), "mutex");
    assert_equivalent(&pps, &m.build_pps(), "mutex vs build_pps");
    use pak::systems::mutex::enter_action;
    let a = ActionAnalysis::new(
        &pps,
        AgentId(0),
        enter_action(AgentId(0)),
        &RelaxedMutex::<Rational>::cs_empty(),
    )
    .unwrap();
    assert_eq!(a.constraint_probability(), m.posterior_empty_given_free());
}

#[test]
fn policy_variants_unfold_through_both_apis() {
    // The §8 policy sweep's protocols: FS with a non-default firing
    // policy is its own protocol, with its own model.
    for policy in [
        FirePolicy::REFRAIN_ON_NO,
        FirePolicy {
            on_yes: true,
            on_no: false,
            on_nothing: false,
        },
    ] {
        let fs = FiringSquad::paper().with_policy(policy);
        let pps = check_model(fs.model(), &format!("policy {policy:?}"));
        let want = fs.build_pps();
        assert_equivalent(&pps, want.pps(), &format!("policy {policy:?} vs build_pps"));
    }
}

#[test]
fn threshold_model_is_equivalent_to_hand_built_tree() {
    let t = ThresholdConstruction::new(r(3, 4), r(1, 4));
    let pps = check_model(t.clone(), "threshold");
    // The unfolder's frontier emits nodes in a different order than the
    // hand-built tree, so equivalence here is the observable kind.
    assert_equivalent(&pps, &t.build(), "threshold vs hand-built");
    // Theorem 5.2's quantities, via the protocol route.
    use pak::systems::threshold::{AGENT_I, ALPHA};
    let a = ActionAnalysis::new(
        &pps,
        AGENT_I,
        ALPHA,
        &ThresholdConstruction::<Rational>::phi(),
    )
    .unwrap();
    assert_eq!(a.constraint_probability(), r(3, 4));
    assert_eq!(a.threshold_measure(&r(3, 4)), r(1, 4));
}
