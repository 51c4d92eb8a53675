//! Property-based verification of the paper's theorems on random systems.
//!
//! Two generators are used deliberately:
//!
//! * **Protocol-consistent systems** (`pak_protocol::generator`): random
//!   table protocols unfolded into pps — exactly the class the paper
//!   studies (§2.2). Here Lemma 4.3(b) applies, so past-based facts are
//!   local-state independent of *untagged* actions and the theorems hold
//!   **non-vacuously** (exact equality for Theorem 6.2).
//!
//! * **Raw random trees** (`pak_core::generator`): arbitrary edge-labelled
//!   trees, a strictly larger class. Lemma 4.3(b) does *not* apply there
//!   (its proof uses protocol consistency), so the theorems are checked in
//!   their precise implication form: whenever Definition 4.1 holds, the
//!   conclusion must hold.
//!
//! Both sweeps also check `ActionAnalysis` and the Definition 4.1 check
//! differentially, over `Rational` and over `f64`, against a test-local
//! reference that walks each run three times and sums `Pps::measure`
//! folds (see [`assert_matches_reference`]).
//!
//! The case grids are deterministic (fixed seed strides, no external
//! property-testing dependency), so every failure replays exactly.

use pak::core::generator::{GeneratorConfig, PpsGenerator};
use pak::core::independence::IndependenceReport;
use pak::core::prelude::*;
use pak::num::Rational;
use pak::protocol::generator::{random_pps, RandomModelConfig};

/// All (agent, action) pairs appearing in a system.
fn all_actions<P: Probability>(pps: &Pps<SimpleState, P>) -> Vec<(AgentId, ActionId)> {
    let mut out: Vec<(AgentId, ActionId)> = Vec::new();
    for run in pps.run_ids() {
        for t in 0..pps.run_len(run) as u32 {
            for &(a, act) in pps.actions_at(Point { run, time: t }) {
                if !out.contains(&(a, act)) {
                    out.push((a, act));
                }
            }
        }
    }
    out
}

/// Makes an action proper by occurrence tagging if needed.
fn properized<P: Probability>(
    pps: &Pps<SimpleState, P>,
    agent: AgentId,
    action: ActionId,
) -> (Pps<SimpleState, P>, ActionId) {
    if pps.is_proper(agent, action) {
        (pps.clone(), action)
    } else {
        let (tagged, fresh) = pps.tag_occurrences(agent, action);
        (tagged, fresh[0])
    }
}

/// A small family of past-based facts to test against.
fn fact_for(which: u8) -> StateFact<SimpleState> {
    match which % 4 {
        0 => StateFact::new("env even", |g: &SimpleState| g.env.is_multiple_of(2)),
        1 => StateFact::new("env < 2", |g: &SimpleState| g.env < 2),
        2 => StateFact::new("local0 = 0", |g: &SimpleState| g.locals[0] == 0),
        _ => StateFact::new("sum odd", |g: &SimpleState| {
            (g.env + g.locals.iter().sum::<u64>()) % 2 == 1
        }),
    }
}

fn protocol_config(seed: u64) -> RandomModelConfig {
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

fn raw_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        n_agents: 1 + (seed % 3) as u32,
        initial_states: 1 + (seed % 2) as u32,
        depth: 2 + (seed % 3) as u32,
        max_branching: 2 + (seed % 2) as u32,
        actions_per_agent: 2,
        local_values: 2 + (seed % 3),
        unbalanced: seed.is_multiple_of(5),
    }
}

/// Deterministic case grid: `n` (seed, which) pairs striding `0..range`.
fn cases(n: u64, range: u64) -> impl Iterator<Item = (u64, u8)> {
    (0..n).map(move |i| ((i.wrapping_mul(13) + 7) % range, (i % 4) as u8))
}

// ======================================================================
// Differential reference: the analysis as three walks and measure folds.
// ======================================================================

/// Equality that is exact for both numeric types: `==` for `Rational`,
/// bit equality for `f64`.
trait Exact: Probability {
    fn same(&self, other: &Self) -> bool;
}

impl Exact for Rational {
    fn same(&self, other: &Self) -> bool {
        self == other
    }
}

impl Exact for f64 {
    fn same(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

/// The reference `ActionAnalysis`: `(per-run records, L_i[α], µ(R_α),
/// µ(ϕ@α))`.
type ReferenceAnalysis<P> = (Vec<RunBelief<P>>, Vec<CellId>, P, P);

/// `ActionAnalysis::new` as three walks over the runs: one counting
/// performances, one collecting per-run beliefs, one collecting `L_i[α]`
/// in first-seen order.
fn reference_analysis<P: Probability>(
    pps: &Pps<SimpleState, P>,
    agent: AgentId,
    action: ActionId,
    fact: &dyn Fact<SimpleState, P>,
) -> Result<ReferenceAnalysis<P>, AnalysisError> {
    let improper = |never_performed| AnalysisError::ImproperAction {
        agent,
        action,
        never_performed,
    };
    let mut performed = false;
    for run in pps.run_ids() {
        match pps.performance_times(agent, action, run).len() {
            0 => {}
            1 => performed = true,
            _ => return Err(improper(false)),
        }
    }
    if !performed {
        return Err(improper(true));
    }
    let (mut runs, mut action_measure, mut fact_measure) = (Vec::new(), P::zero(), P::zero());
    for run in pps.run_ids() {
        let Some(point) = pps.action_point(agent, action, run) else {
            continue;
        };
        let cell = pps.cell_at(agent, point).unwrap();
        let prob = pps.run_probability(run).clone();
        let fact_holds = fact.holds(pps, point);
        action_measure.add_assign(&prob);
        if fact_holds {
            fact_measure.add_assign(&prob);
        }
        runs.push(RunBelief {
            run,
            prob,
            belief: pps.belief_in_cell(fact, cell),
            fact_holds,
            point,
        });
    }
    let mut cells = Vec::new();
    for run in pps.run_ids() {
        for time in pps.performance_times(agent, action, run) {
            let cell = pps.cell_at(agent, Point { run, time }).unwrap();
            if !cells.contains(&cell) {
                cells.push(cell);
            }
        }
    }
    Ok((runs, cells, action_measure, fact_measure))
}

/// Definition 4.1 with four `Pps::measure` folds and three divisions per
/// cell.
fn reference_independence<P: Probability>(
    pps: &Pps<SimpleState, P>,
    fact: &dyn Fact<SimpleState, P>,
    agent: AgentId,
    action: ActionId,
) -> IndependenceReport<P> {
    let mut cells_checked = 0;
    for (cell, _) in pps.agent_cells(agent) {
        cells_checked += 1;
        let phi_at_l = pps.fact_at_cell(fact, cell);
        let alpha_at_l = pps.action_at_cell(action, cell);
        let both_at_l = phi_at_l.intersection(&alpha_at_l);
        let ml = pps.measure(pps.cell_runs(cell));
        let p_phi = pps.measure(&phi_at_l).div(&ml);
        let p_alpha = pps.measure(&alpha_at_l).div(&ml);
        let p_both = pps.measure(&both_at_l).div(&ml);
        let lhs = p_phi.mul(&p_alpha);
        if !lhs.approx_eq(&p_both) {
            return IndependenceReport {
                independent: false,
                violation: Some((cell, lhs, p_both)),
                cells_checked,
            };
        }
    }
    IndependenceReport {
        independent: true,
        violation: None,
        cells_checked,
    }
}

/// What a differential sweep met, so it can assert it met every branch.
#[derive(Default)]
struct Coverage {
    proper: usize,
    never_performed: usize,
    performed_twice: usize,
    violations: usize,
}

/// Asserts that `ActionAnalysis::new` and `check_local_state_independence`
/// agree exactly with the references on one triple.
fn assert_matches_reference<P: Exact>(
    pps: &Pps<SimpleState, P>,
    agent: AgentId,
    action: ActionId,
    fact: &dyn Fact<SimpleState, P>,
    seen: &mut Coverage,
) {
    let want = reference_independence(pps, fact, agent, action);
    let got = check_local_state_independence(pps, fact, agent, action);
    assert_eq!(got.independent, want.independent);
    assert_eq!(got.cells_checked, want.cells_checked);
    match (&got.violation, &want.violation) {
        (None, None) => {}
        (Some((c, lhs, rhs)), Some((wc, wlhs, wrhs))) => {
            assert_eq!(c, wc);
            assert!(
                lhs.same(wlhs) && rhs.same(wrhs),
                "{lhs} {rhs} vs {wlhs} {wrhs}"
            );
            seen.violations += 1;
        }
        (got, want) => panic!("violation {got:?}, reference {want:?}"),
    }

    match (
        ActionAnalysis::new(pps, agent, action, fact),
        reference_analysis(pps, agent, action, fact),
    ) {
        (Ok(a), Ok((runs, cells, action_measure, fact_measure))) => {
            assert_eq!(a.action_cells(), &cells[..]);
            assert!(a.action_measure().same(&action_measure));
            assert!(a
                .constraint_probability()
                .same(&fact_measure.div(&action_measure)));
            assert_eq!(a.runs().len(), runs.len());
            for (rb, want) in a.runs().iter().zip(&runs) {
                assert_eq!(
                    (rb.run, rb.point, rb.fact_holds),
                    (want.run, want.point, want.fact_holds)
                );
                assert!(rb.prob.same(&want.prob) && rb.belief.same(&want.belief));
            }
            seen.proper += 1;
        }
        (Err(e), Err(want)) => {
            assert_eq!(e, want);
            match e {
                AnalysisError::ImproperAction {
                    never_performed: true,
                    ..
                } => seen.never_performed += 1,
                _ => seen.performed_twice += 1,
            }
        }
        (got, want) => panic!("analysis {:?}, reference {:?}", got.err(), want.err()),
    }
}

/// Runs the differential check on every action of `pps`, untagged and
/// tagged, and on one action nobody performs.
fn sweep_against_reference<P: Exact>(
    pps: &Pps<SimpleState, P>,
    fact: &StateFact<SimpleState>,
    seen: &mut Coverage,
) {
    for (agent, action) in all_actions(pps) {
        assert_matches_reference(pps, agent, action, fact, seen);
        let (sys, act) = properized(pps, agent, action);
        assert_matches_reference(&sys, agent, act, fact, seen);
    }
    assert_matches_reference(pps, AgentId(0), ActionId(999), fact, seen);
}

// ======================================================================
// Protocol-consistent systems: the paper's class, non-vacuous checks.
// ======================================================================

/// Lemma 4.3(b) + Theorem 6.2 end to end: on protocol systems, every
/// past-based fact is LSI of every (untagged, proper) action, and the
/// expectation equality holds exactly.
#[test]
fn expectation_theorem_nonvacuous_on_protocol_systems() {
    let mut seen = Coverage::default();
    for (seed, which) in cases(32, 400) {
        let pps = random_pps::<Rational>(seed, &protocol_config(seed)).unwrap();
        let fact = fact_for(which);
        assert!(pps.is_past_based(&fact));
        sweep_against_reference(&pps, &fact, &mut seen);
        let twin = random_pps::<f64>(seed, &protocol_config(seed)).unwrap();
        sweep_against_reference(&twin, &fact, &mut seen);
        for (agent, action) in all_actions(&pps) {
            if !pps.is_proper(agent, action) {
                continue; // tagged actions are exercised separately below
            }
            let rep = check_expectation(&pps, agent, action, &fact).unwrap();
            assert!(
                rep.independence.independent,
                "Lemma 4.3(b) failed on a protocol system (seed {seed})"
            );
            assert!(
                rep.equal,
                "Theorem 6.2 equality failed: {} ≠ {} (seed {seed})",
                rep.lhs, rep.rhs
            );
        }
    }
    assert!(seen.proper > 0 && seen.never_performed > 0);
}

/// Theorem 4.2, non-vacuous: with p = min belief when acting, the
/// constraint probability meets p.
#[test]
fn sufficiency_nonvacuous_on_protocol_systems() {
    for (seed, which) in cases(24, 300) {
        let pps = random_pps::<Rational>(seed, &protocol_config(seed)).unwrap();
        let fact = fact_for(which);
        for (agent, action) in all_actions(&pps) {
            if !pps.is_proper(agent, action) {
                continue;
            }
            let analysis = ActionAnalysis::new(&pps, agent, action, &fact).unwrap();
            let p = analysis.min_belief_when_acting().unwrap();
            let rep = check_sufficiency(&pps, agent, action, &fact, &p).unwrap();
            assert!(rep.independent, "seed {seed}");
            assert!(
                analysis.constraint_probability().at_least(&p),
                "seed {seed}: µ = {} < min belief {p}",
                analysis.constraint_probability()
            );
            assert!(rep.implication_holds);
        }
    }
}

/// Lemma 5.1, non-vacuous: some acting point believes ϕ at least as
/// strongly as the achieved constraint probability.
#[test]
fn necessity_nonvacuous_on_protocol_systems() {
    for (seed, which) in cases(24, 300) {
        let pps = random_pps::<Rational>(seed, &protocol_config(seed)).unwrap();
        let fact = fact_for(which);
        for (agent, action) in all_actions(&pps) {
            if !pps.is_proper(agent, action) {
                continue;
            }
            let analysis = ActionAnalysis::new(&pps, agent, action, &fact).unwrap();
            let p = analysis.constraint_probability();
            let rep = check_necessity(&pps, agent, action, &fact, &p).unwrap();
            assert!(rep.independent, "seed {seed}");
            assert!(
                rep.max_belief.at_least(&p),
                "seed {seed}: max belief {} < µ = {p}",
                rep.max_belief
            );
            assert!(rep.witness.is_some());
        }
    }
}

/// Theorem 7.1 on protocol systems, grid of (δ, ε): always holds, and
/// non-vacuously whenever the premise threshold is met.
#[test]
fn pak_theorem_on_protocol_systems() {
    for (seed, which) in cases(16, 200) {
        let pps = random_pps::<Rational>(seed, &protocol_config(seed)).unwrap();
        let fact = fact_for(which);
        for (dn, en) in [(1i64, 1i64), (2, 7), (5, 5), (9, 3)] {
            let delta = Rational::from_ratio(dn, 10);
            let eps = Rational::from_ratio(en, 10);
            for (agent, action) in all_actions(&pps) {
                if !pps.is_proper(agent, action) {
                    continue;
                }
                let rep = check_pak(&pps, agent, action, &fact, &delta, &eps).unwrap();
                assert!(
                    rep.implication_holds,
                    "seed {seed}: Theorem 7.1 failed at δ={delta}, ε={eps}: µ={}, strong={}",
                    rep.constraint_probability, rep.strong_belief_measure
                );
            }
        }
    }
}

/// Lemma F.1 on protocol systems.
#[test]
fn kop_limit_on_protocol_systems() {
    for (seed, which) in cases(24, 300) {
        let pps = random_pps::<Rational>(seed, &protocol_config(seed)).unwrap();
        let fact = fact_for(which);
        for (agent, action) in all_actions(&pps) {
            if !pps.is_proper(agent, action) {
                continue;
            }
            let rep = check_kop_limit(&pps, agent, action, &fact).unwrap();
            assert!(rep.implication_holds, "seed {seed}: Lemma F.1 failed");
            // Non-vacuity: premise µ = 1 forces certainty measure 1.
            if rep.constraint_probability.is_one() {
                assert!(rep.certainty_measure.is_one());
            }
        }
    }
}

// ======================================================================
// Raw random trees: the implication form on a strictly larger class.
// ======================================================================

/// Theorem 6.2 in implication form on arbitrary trees: whenever
/// Definition 4.1 holds (checked directly), the equality must hold —
/// even for actions made proper by tagging and for systems no protocol
/// generates.
#[test]
fn expectation_implication_on_raw_trees() {
    let mut seen = Coverage::default();
    for (seed, which) in cases(32, 400) {
        let mut g = PpsGenerator::new(seed, raw_config(seed));
        let pps = g.generate::<Rational>();
        let fact = fact_for(which);
        sweep_against_reference(&pps, &fact, &mut seen);
        let twin = PpsGenerator::new(seed, raw_config(seed)).generate::<f64>();
        sweep_against_reference(&twin, &fact, &mut seen);
        for (agent, action) in all_actions(&pps) {
            let (sys, act) = properized(&pps, agent, action);
            let rep = check_expectation(&sys, agent, act, &fact).unwrap();
            assert!(
                rep.implication_holds(),
                "seed {seed}: LSI held but equality failed: {} ≠ {}",
                rep.lhs,
                rep.rhs
            );
        }
    }
    let Coverage {
        proper,
        never_performed,
        performed_twice,
        violations,
    } = seen;
    assert!(proper > 0 && never_performed > 0 && performed_twice > 0 && violations > 0);
}

/// Theorems 4.2, 7.1 and Lemma F.1 in implication form on raw trees.
#[test]
fn implication_forms_on_raw_trees() {
    for (seed, which) in cases(16, 200) {
        let mut g = PpsGenerator::new(seed, raw_config(seed));
        let pps = g.generate::<Rational>();
        let fact = fact_for(which);
        let eps = Rational::from_ratio(1 + i64::from(which) * 2, 10);
        for (agent, action) in all_actions(&pps) {
            let (sys, act) = properized(&pps, agent, action);
            let analysis = ActionAnalysis::new(&sys, agent, act, &fact).unwrap();
            let p = analysis.min_belief_when_acting().unwrap();
            let suff = check_sufficiency(&sys, agent, act, &fact, &p).unwrap();
            assert!(suff.implication_holds, "seed {seed}: Thm 4.2 implication");
            let pak = check_pak_corollary(&sys, agent, act, &fact, &eps).unwrap();
            assert!(pak.implication_holds, "seed {seed}: Cor 7.2 implication");
            let kop = check_kop_limit(&sys, agent, act, &fact).unwrap();
            assert!(kop.implication_holds, "seed {seed}: Lemma F.1 implication");
        }
    }
}

/// Probability-space sanity on raw trees: total measure 1, beliefs in
/// [0, 1], complement law.
#[test]
fn probability_space_invariants() {
    for (seed, which) in cases(40, 500) {
        let mut g = PpsGenerator::new(seed, raw_config(seed));
        let pps = g.generate::<Rational>();
        assert!(pps.measure(&pps.all_runs()).is_one());
        let fact = fact_for(which);
        for agent in pps.agents() {
            for pt in pps.points().collect::<Vec<_>>() {
                let b = pps.belief(agent, &fact, pt).unwrap();
                assert!(b.is_valid_probability(), "belief {b} out of range");
            }
        }
        let ev = pps.fact_event_at_time(&fact, 0);
        let total = pps.measure(&ev).add(&pps.measure(&ev.complement()));
        assert!(total.is_one());
    }
}

/// Occurrence tagging (§3.1) preserves the underlying measure and makes
/// every tagged action proper.
#[test]
fn occurrence_tagging_preserves_measure() {
    for (seed, _) in cases(24, 300) {
        let mut g = PpsGenerator::new(seed, raw_config(seed));
        let pps = g.generate::<Rational>();
        for (agent, action) in all_actions(&pps) {
            let (tagged, fresh) = pps.tag_occurrences(agent, action);
            assert_eq!(tagged.num_runs(), pps.num_runs());
            for run in pps.run_ids() {
                assert_eq!(tagged.run_probability(run), pps.run_probability(run));
            }
            for f in &fresh {
                assert!(tagged.is_proper(agent, *f));
            }
            let mut union = tagged.no_runs();
            for f in &fresh {
                union = union.union(&tagged.action_event(agent, *f));
            }
            assert_eq!(union, pps.action_event(agent, action));
        }
    }
}

/// Expected belief is a convex combination: it always lies between the
/// min and max belief when acting (any system, any fact).
#[test]
fn expected_belief_between_extremes() {
    for (seed, which) in cases(24, 300) {
        let mut g = PpsGenerator::new(seed, raw_config(seed));
        let pps = g.generate::<Rational>();
        let fact = fact_for(which);
        for (agent, action) in all_actions(&pps) {
            let (sys, act) = properized(&pps, agent, action);
            let a = ActionAnalysis::new(&sys, agent, act, &fact).unwrap();
            let e = a.expected_belief();
            assert!(e.at_least(&a.min_belief_when_acting().unwrap()));
            assert!(a.max_belief_when_acting().unwrap().at_least(&e));
        }
    }
}
