//! Differential proof: the batched evaluator (`pak-engine`) is
//! bit-identical to the naive recursive checker (`pak-logic`).
//!
//! Mirrors the `unfold_differential.rs` methodology: sweep >100 seeded
//! `(model, formula set)` configurations and assert that every answer the
//! [`Evaluator`] produces — per-point truth (three-valued, dead points
//! included), events and measures at every time, validity, satisfiability,
//! counterexamples, satisfying-point sets, whole-batch verdicts — equals
//! what [`ModelChecker`] / [`Formula::holds_at`] compute by per-point
//! recursion. Formulas cover every constructor of the language nested to
//! depth 3 (seeded generation, `pak_logic::generator`), and the sweep runs
//! under both exact `Rational` and `f64` probabilities; measures are
//! compared with `==`, i.e. bit-equality. For `f64` that holds because the
//! batched belief/measure paths accumulate in the same ascending-run order
//! as the naive ones; for `Rational` the batched belief test is a
//! cross-multiplied integer compare on the tree's mass column, so each
//! configuration also asks `B_i^{≥p}` at `p = 0`, `p = 1` and `p` equal to
//! an exact cell belief, where an off-by-one in that compare would show.

use pak::core::ids::{Point, RunId};
use pak::core::prob::Probability;
use pak::core::state::SimpleState;
use pak::engine::Evaluator;
use pak::logic::generator::{random_formula, RandomFormulaConfig};
use pak::logic::{Formula, ModelChecker};
use pak::num::Rational;
use pak::protocol::generator::{random_model, RandomModelConfig};
use pak::protocol::unfold::unfold;

/// Formulas per configuration: a nesting-depth ladder (0..=3, ensuring
/// depth-3 shapes appear) plus free-running depth-3 seeds.
const FORMULAS_PER_CONFIG: usize = 10;

fn formulas_for<P: Probability>(seed: u64, n_agents: u32) -> Vec<Formula<SimpleState, P>> {
    (0..FORMULAS_PER_CONFIG as u64)
        .map(|k| {
            let cfg = RandomFormulaConfig {
                max_depth: (k % 4) as u32, // 0,1,2,3,0,1,2,3,…
                n_agents,
                n_actions: 2,
                env_values: 3,
                local_values: 2,
            };
            random_formula::<P>(seed.wrapping_mul(977).wrapping_add(k * 131 + 17), &cfg)
        })
        .collect()
}

fn check_system<P: Probability>(
    pps: &pak::core::pps::Pps<SimpleState, P>,
    formulas: &[Formula<SimpleState, P>],
) {
    let mc = ModelChecker::new(pps);
    let mut ev = Evaluator::new(pps);
    let live: Vec<Point> = pps.points().collect();
    // Dead probes: one past the end of each run, one far beyond the
    // horizon, and an out-of-range run id.
    let mut dead: Vec<Point> = pps
        .run_ids()
        .map(|run| Point {
            run,
            time: pps.run_len(run) as u32,
        })
        .collect();
    dead.push(Point {
        run: RunId(0),
        time: pps.horizon() + 40,
    });
    dead.push(Point {
        run: RunId(pps.num_runs() as u32 + 3),
        time: 0,
    });

    for f in formulas {
        // Per-point bit identity at every live point…
        for &pt in &live {
            let naive = f.eval_at(pps, pt);
            assert_eq!(naive, Some(f.holds_at(pps, pt)), "{f} at {pt:?}");
            assert_eq!(ev.eval_at(f, pt), naive, "{f} at {pt:?}");
        }
        // …and agreement on undefinedness at dead points.
        for &pt in &dead {
            assert_eq!(f.eval_at(pps, pt), None, "{f} at dead {pt:?}");
            assert!(!f.holds_at(pps, pt), "{f} at dead {pt:?}");
            assert_eq!(ev.eval_at(f, pt), None, "{f} at dead {pt:?}");
        }
        // Events and measures at every time, one past the horizon too.
        for t in 0..=pps.horizon() + 1 {
            assert_eq!(
                ev.event_at_time(f, t),
                mc.event_at_time(f, t),
                "{f} event at {t}"
            );
            assert_eq!(
                ev.measure_at_time(f, t),
                mc.measure_at_time(f, t),
                "{f} measure at {t}"
            );
        }
        // Whole-system answers.
        assert_eq!(ev.valid(f), mc.valid(f), "{f}");
        assert_eq!(ev.satisfiable(f), mc.satisfiable(f), "{f}");
        assert_eq!(ev.counterexample(f), mc.counterexample(f), "{f}");
        assert_eq!(ev.satisfying_points(f), mc.satisfying_points(f), "{f}");
    }

    // The batch API answers exactly like the one-at-a-time API, and a
    // fresh evaluator (no shared tables) answers exactly like the warm
    // one — sharing changes cost, never results.
    let verdicts = ev.evaluate_batch(formulas);
    for (f, v) in formulas.iter().zip(&verdicts) {
        assert_eq!(v.valid, mc.valid(f), "{f}");
        assert_eq!(v.satisfiable, mc.satisfiable(f), "{f}");
        assert_eq!(v.counterexample, mc.counterexample(f), "{f}");
        assert_eq!(v.satisfying_points, mc.satisfying_points(f).len(), "{f}");
        let mut cold = Evaluator::new(pps);
        assert_eq!(cold.evaluate(f), *v, "{f}");
    }
}

/// `B_i^{≥p}` at the thresholds where a belief test can be off by one:
/// `p = 0`, `p = 1`, and `p` equal to an exact cell belief (computed by
/// `Pps::conditional` on the naive checker's event), over the first two
/// inner formulas of a configuration.
fn boundary_formulas<P: Probability>(
    pps: &pak::core::pps::Pps<SimpleState, P>,
    inner: &[Formula<SimpleState, P>],
) -> Vec<Formula<SimpleState, P>> {
    let mc = ModelChecker::new(pps);
    let mut out = Vec::new();
    for phi in inner.iter().take(2) {
        for agent in pps.agents() {
            let mut thresholds = vec![P::zero(), P::one()];
            for (cid, cell) in pps.agent_cells(agent).take(2) {
                let event = mc.event_at_time(phi, cell.time);
                thresholds.push(pps.conditional(&event, pps.cell_runs(cid)).unwrap());
            }
            for p in thresholds {
                out.push(Formula::believes_at_least(agent, phi.clone(), p));
            }
        }
    }
    out
}

fn sweep<P: Probability>() -> usize {
    let mut cases = 0;
    for n_agents in 1..=2u32 {
        for horizon in 1..=3u32 {
            for max_env_branching in [1, 2] {
                for seed in 0..5u64 {
                    let cfg = RandomModelConfig {
                        n_agents,
                        initial_states: 1 + (seed as u32 % 3),
                        horizon,
                        envs: 3,
                        max_env_branching,
                        local_values: 2,
                        actions_per_agent: 2,
                    };
                    let model = random_model::<P>(seed * 101 + 7, &cfg);
                    let pps = unfold::<_, P>(&model).expect("random model unfolds");
                    let mut formulas = formulas_for::<P>(seed * 101 + 7, n_agents);
                    formulas.extend(boundary_formulas(&pps, &formulas));
                    check_system(&pps, &formulas);
                    cases += 1;
                }
            }
        }
    }
    cases
}

// The acceptance bar is >100 seeded configurations across both
// probability types; each per-type sweep contributes exactly 60
// (2 agents × 3 horizons × 2 branchings × 5 seeds), so the two tests
// below together cover 120. The exact-count asserts keep the bar from
// eroding silently if the sweep's loops are ever narrowed.

#[test]
fn batched_evaluator_is_bit_identical_to_naive_rational() {
    let cases = sweep::<Rational>();
    assert_eq!(cases, 60, "sweep shrank: {cases} configurations");
}

#[test]
fn batched_evaluator_is_bit_identical_to_naive_f64() {
    let cases = sweep::<f64>();
    assert_eq!(cases, 60, "sweep shrank: {cases} configurations");
}

#[test]
fn depth_three_modal_nesting_is_exercised() {
    // Guard against the generator quietly losing its deep shapes: across
    // the sweep's formula seeds, depth-3 formulas with a modality above
    // another modality must occur.
    fn max_depth<P: Probability>(f: &Formula<SimpleState, P>) -> u32 {
        match f {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Does(..) => 0,
            Formula::Not(x)
            | Formula::Knows(_, x)
            | Formula::BelievesAtLeast(_, x, _)
            | Formula::Eventually(x)
            | Formula::Always(x) => 1 + max_depth(x),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                1 + max_depth(a).max(max_depth(b))
            }
        }
    }
    fn modal_depth<P: Probability>(f: &Formula<SimpleState, P>) -> u32 {
        match f {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Does(..) => 0,
            Formula::Not(x) | Formula::Eventually(x) | Formula::Always(x) => modal_depth(x),
            Formula::Knows(_, x) | Formula::BelievesAtLeast(_, x, _) => 1 + modal_depth(x),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                modal_depth(a).max(modal_depth(b))
            }
        }
    }
    let mut deepest = 0;
    let mut modal = 0;
    for seed in 0..40u64 {
        for f in formulas_for::<Rational>(seed * 101 + 7, 2) {
            deepest = deepest.max(max_depth(&f));
            modal = modal.max(modal_depth(&f));
        }
    }
    assert_eq!(deepest, 3, "depth-3 shapes must appear in the sweep");
    assert!(modal >= 2, "nested epistemic modalities must appear");
}
