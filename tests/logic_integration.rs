//! Cross-crate checks of the epistemic-probabilistic logic against the
//! paper's systems and theorems.

use pak::core::prelude::*;
use pak::engine::Evaluator;
use pak::logic::parser::MAX_BINARY_OPERATORS;
use pak::logic::{Formula, FormulaParser, ModelChecker};
use pak::num::Rational;
use pak::protocol::generator::{random_pps, RandomModelConfig};
use pak::systems::firing_squad::{FiringSquad, FsLocal, Reply, ALICE, BOB, FIRE_A, FIRE_B};
use pak::systems::threshold::{ThresholdConstruction, AGENT_I, ALPHA};

type FsGlobal = pak::protocol::messaging::MsgGlobal<FsLocal>;
type FsFormula = Formula<FsGlobal, Rational>;

fn r(n: i64, d: i64) -> Rational {
    Rational::from_ratio(n, d)
}

#[test]
fn s5_axioms_on_generated_systems() {
    // Knowledge satisfies the S5 properties on every concrete system:
    // T (truth), 4 (positive introspection), 5 (negative introspection).
    let cfg = RandomModelConfig::default();
    for seed in 0..8 {
        let pps = random_pps::<Rational>(seed, &cfg).unwrap();
        let mc = ModelChecker::new(&pps);
        let phi: Formula<SimpleState, Rational> =
            Formula::atom(StateFact::new("env=0", |g: &SimpleState| g.env == 0));
        for agent in pps.agents() {
            let k = Formula::knows(agent, phi.clone());
            let t_axiom = k.clone().implies(phi.clone());
            assert!(mc.valid(&t_axiom), "T failed (seed {seed})");
            let four = k.clone().implies(Formula::knows(agent, k.clone()));
            assert!(mc.valid(&four), "4 failed (seed {seed})");
            let five = k.clone().not().implies(Formula::knows(agent, k.not()));
            assert!(mc.valid(&five), "5 failed (seed {seed})");
        }
    }
}

#[test]
fn belief_is_knowledge_compatible_on_generated_systems() {
    // K_i ϕ → B_i^{≥1} ϕ and B_i^{≥1} ϕ → ¬K_i ¬ϕ.
    let cfg = RandomModelConfig::default();
    for seed in 0..8 {
        let pps = random_pps::<Rational>(seed, &cfg).unwrap();
        let mc = ModelChecker::new(&pps);
        let phi: Formula<SimpleState, Rational> =
            Formula::atom(StateFact::new("local0=0", |g: &SimpleState| {
                g.locals[0] == 0
            }));
        for agent in pps.agents() {
            let k_implies_b1 = Formula::knows(agent, phi.clone()).implies(
                Formula::believes_at_least(agent, phi.clone(), Rational::one()),
            );
            assert!(mc.valid(&k_implies_b1), "K→B1 failed (seed {seed})");
            let b1_consistent = Formula::believes_at_least(agent, phi.clone(), Rational::one())
                .implies(Formula::knows(agent, phi.clone().not()).not());
            assert!(
                mc.valid(&b1_consistent),
                "B1 consistency failed (seed {seed})"
            );
        }
    }
}

#[test]
fn fs_alice_knowledge_by_reply() {
    let sys = FiringSquad::paper().build_pps();
    let mc = ModelChecker::new(sys.pps());

    let got = |want: Reply| -> FsFormula {
        Formula::atom(StateFact::new(
            format!("A got {want:?}"),
            move |g: &FsGlobal| matches!(g.locals[0], FsLocal::Alice { reply, .. } if reply == want),
        ))
    };
    let bob_heard: FsFormula = Formula::atom(StateFact::new("B heard", |g: &FsGlobal| {
        matches!(g.locals[1], FsLocal::Bob { heard: Some(true) })
    }));

    // Yes reply ⇒ Alice knows Bob heard; No reply ⇒ she knows he did not.
    assert!(mc.valid(&got(Reply::Yes).implies(Formula::knows(ALICE, bob_heard.clone()))));
    assert!(mc.valid(&got(Reply::No).implies(Formula::knows(ALICE, bob_heard.clone().not()))));
    // A lost reply leaves her uncertain: she neither knows nor knows-not…
    let lost_uncertain = got(Reply::Nothing)
        .and(Formula::atom(StateFact::new("t=2", |_g: &FsGlobal| true)))
        .implies(
            Formula::knows(ALICE, bob_heard.clone())
                .or(Formula::knows(ALICE, bob_heard.clone().not())),
        );
    assert!(!mc.valid(&lost_uncertain));
    // …but believes "Bob heard" with degree ≥ 0.99 at time 2.
    let strong =
        got(Reply::Nothing).implies(Formula::believes_at_least(ALICE, bob_heard, r(99, 100)));
    // Note: at times 0 and 1 "Nothing" also holds (no reply yet) with lower
    // belief, so restrict to the firing point via does.
    let at_fire: FsFormula = Formula::does(ALICE, FIRE_A);
    let strong_at_fire = at_fire.and(got(Reply::Nothing)).implies(strong);
    assert!(mc.valid(&strong_at_fire));
}

#[test]
fn fs_pak_schema_measure() {
    // The PAK reading of Example 1 as a logic formula: among firing runs,
    // the measure where Alice believes ϕ_both at ≥ 0.9 is ≥ 0.9 (Cor 7.2
    // with ε = 0.1, since µ = 0.99 = 1 − 0.1²).
    let sys = FiringSquad::paper().build_pps();
    let pps = sys.pps();
    let mc = ModelChecker::new(pps);
    let phi_both: FsFormula = Formula::does(ALICE, FIRE_A).and(Formula::does(BOB, FIRE_B));
    let strong: FsFormula =
        Formula::does(ALICE, FIRE_A).and(Formula::believes_at_least(ALICE, phi_both, r(9, 10)));
    // Evaluate at the firing time (t = 2).
    let strong_event = mc.event_at_time(&strong, 2);
    let fire_event = pps.action_event(ALICE, FIRE_A);
    let conditional = pps.conditional(&strong_event, &fire_event).unwrap();
    assert_eq!(conditional, r(991, 1000));
    assert!(conditional.at_least(&r(9, 10)));
}

#[test]
fn threshold_construction_belief_formula() {
    // In Tˆ(p, ε), at the acting point: B^{≥p} holds exactly on the m′ run.
    let (p, eps) = (r(3, 4), r(1, 8));
    let t = ThresholdConstruction::new(p.clone(), eps.clone());
    let pps = t.build();
    let mc = ModelChecker::new(&pps);
    let phi: Formula<SimpleState, Rational> =
        Formula::atom(ThresholdConstruction::<Rational>::phi());
    let strong = Formula::does(AGENT_I, ALPHA).and(Formula::believes_at_least(AGENT_I, phi, p));
    let ev = mc.event_at_time(&strong, 1);
    assert_eq!(pps.measure(&ev), eps);
}

#[test]
fn formulas_compose_with_action_analysis() {
    // Use a compound epistemic formula as the CONDITION of a constraint:
    // "Bob knows Alice's go bit" when Alice fires.
    let sys = FiringSquad::paper().build_pps();
    let go: FsFormula = Formula::atom(StateFact::new("go", |g: &FsGlobal| {
        matches!(g.locals[0], FsLocal::Alice { go: true, .. })
    }));
    let bob_knows_go: FsFormula = Formula::knows(BOB, go.clone()).or(Formula::knows(BOB, go.not()));
    let analysis = ActionAnalysis::new(sys.pps(), ALICE, FIRE_A, &bob_knows_go).unwrap();
    // Alice fires ⇔ go = 1; Bob knows go = 1 iff he heard (0.99).
    assert_eq!(analysis.constraint_probability(), r(99, 100));
}

/// An `&` chain adds no nesting level, yet it builds a formula as deep as
/// it is long. Past `MAX_BINARY_OPERATORS` the parser refuses the chain
/// with a positioned error; at the cap the formula parses, evaluates and
/// drops on a 2 MiB thread, the stack a `pak-server` worker runs on.
#[test]
fn binary_operator_chains_are_capped() {
    let mut parser = FormulaParser::<SimpleState, Rational>::new();
    parser.atom(
        "heads",
        StateFact::new("heads", |g: &SimpleState| g.env == 1),
    );
    let chain = |terms: usize| vec!["heads"; terms].join(" & ");

    let err = parser.parse(&chain(1_000_000)).unwrap_err();
    assert!(err.message.contains("binary operators"), "{err}");
    // The error sits just past the first `&` over the cap.
    let term = "heads & ".len();
    assert_eq!(err.position, MAX_BINARY_OPERATORS * term + "heads &".len());

    let at_cap = parser.parse(&chain(MAX_BINARY_OPERATORS + 1)).unwrap();
    let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
    b.initial(SimpleState::new(1, vec![0]), r(1, 2)).unwrap();
    b.initial(SimpleState::new(0, vec![0]), r(1, 2)).unwrap();
    let pps = b.build().unwrap();
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let verdict = Evaluator::new(&pps).evaluate(&at_cap);
            assert!(verdict.satisfiable && !verdict.valid);
            assert_eq!(verdict.satisfying_points, 1);
            drop(at_cap);
        })
        .unwrap()
        .join()
        .unwrap();
}
