//! Regenerates every paper-vs-measured table of the reproduction in one
//! fast pass (no benchmarking machinery).
//!
//! ```bash
//! cargo run --bin pak-experiments            # all experiments
//! cargo run --bin pak-experiments -- e1 e3   # a subset
//! ```
//!
//! Exits non-zero if any value disagrees with the paper, or if a name is
//! not one of the experiments (`e1 e2 e3 e5 e8 e11`).

use std::process::ExitCode;

use pak::core::prelude::*;
use pak::num::{DecimalRounding, Rational};
use pak::systems::broadcast::Broadcast;
use pak::systems::figure1;
use pak::systems::firing_squad::{FirePolicy, FiringSquad, FsSystem, ALICE, FIRE_A};
use pak::systems::judge::JudgeScenario;
use pak::systems::mutex::RelaxedMutex;
use pak::systems::policy::sweep_policies;
use pak::systems::threshold::ThresholdConstruction;

struct Report {
    failures: u32,
}

impl Report {
    fn section(&mut self, title: &str) {
        println!("\n== {title} ==");
    }

    fn row(&mut self, quantity: &str, paper: &str, measured: &str) {
        let ok = paper == measured;
        if !ok {
            self.failures += 1;
        }
        println!(
            "  {:<54} {:>14} {:>14}  {}",
            quantity,
            paper,
            measured,
            if ok { "✓" } else { "✗" }
        );
    }

    fn claim(&mut self, quantity: &str, observed: bool) {
        self.row(quantity, "true", if observed { "true" } else { "false" });
    }
}

fn r(n: i64, d: i64) -> Rational {
    Rational::from_ratio(n, d)
}

fn e1(rep: &mut Report) {
    rep.section("E1: Example 1 — relaxed firing squad");
    let a = FiringSquad::paper().build_pps().analyze();
    rep.row(
        "µ(ϕ_both@fire_A | fire_A)",
        "99/100",
        &a.constraint_probability().to_string(),
    );
    rep.row(
        "µ(β_A ≥ 0.95 | fire_A)",
        "991/1000",
        &a.threshold_measure(&r(19, 20)).to_string(),
    );
    rep.row(
        "E[β_A@fire_A | fire_A]",
        "99/100",
        &a.expected_belief().to_string(),
    );
    let improved = FiringSquad::improved().build_pps().analyze();
    rep.row(
        "§8 improved µ",
        "990/991",
        &improved.constraint_probability().to_string(),
    );
    rep.row(
        "§8 improved µ (paper's decimals)",
        "0.99899",
        &improved
            .constraint_probability()
            .to_decimal(5, DecimalRounding::HalfUp),
    );
}

fn e2(rep: &mut Report) {
    rep.section("E2: Figure 1 — counterexamples");
    let pps = figure1::figure1::<Rational>();
    let suff =
        ActionAnalysis::new(&pps, figure1::AGENT_I, figure1::ALPHA, &figure1::psi()).unwrap();
    rep.row(
        "β_i(ψ) at α-points",
        "1/2",
        &suff.min_belief_when_acting().unwrap().to_string(),
    );
    rep.row(
        "µ(ψ@α | α)",
        "0",
        &suff.constraint_probability().to_string(),
    );
    let exp = check_expectation(&pps, figure1::AGENT_I, figure1::ALPHA, &figure1::phi()).unwrap();
    rep.row("µ(ϕ@α | α), ϕ = does(α)", "1", &exp.lhs.to_string());
    rep.row("E[β_i(ϕ)@α | α]", "1/2", &exp.rhs.to_string());
    rep.claim("equality fails without LSI", !exp.equal);
}

fn e3(rep: &mut Report) {
    rep.section("E3: Theorem 5.2 — Tˆ(p, ε)");
    for (p, e) in [(r(3, 4), r(1, 100)), (r(99, 100), r(1, 1000))] {
        let claims = ThresholdConstruction::new(p.clone(), e.clone()).verify();
        rep.row(
            &format!("µ(ϕ@α|α) in Tˆ({p}, {e})"),
            &p.to_string(),
            &claims.constraint_probability.to_string(),
        );
        rep.row(
            &format!("µ(β ≥ p | α) in Tˆ({p}, {e})"),
            &e.to_string(),
            &claims.threshold_met_measure.to_string(),
        );
    }
}

fn e5(rep: &mut Report) {
    rep.section("E5: Corollary 7.2 on Example 1");
    let sys = FiringSquad::paper().build_pps();
    let pak = check_pak_corollary(
        sys.pps(),
        ALICE,
        FIRE_A,
        &FsSystem::<Rational>::phi_both(),
        &r(1, 10),
    )
    .unwrap();
    rep.claim("premise µ ≥ 1 − ε² holds at ε = 0.1", pak.premise_holds);
    rep.row(
        "µ(β ≥ 0.9 | fire_A)",
        "991/1000",
        &pak.strong_belief_measure.to_string(),
    );
    rep.claim("conclusion ≥ 1 − ε", pak.implication_holds);
    rep.row(
        "frontier p′(0.99)",
        "0.900000",
        &format!("{:.6}", pak_frontier(0.99)),
    );
}

fn e8(rep: &mut Report) {
    rep.section("E8: relaxed mutual exclusion");
    let m = RelaxedMutex::new(r(1, 5), r(1, 20), 2);
    let a = m.analyze(AgentId(0)).unwrap();
    rep.row(
        "µ(empty@enter | enter)",
        "76/77",
        &a.constraint_probability().to_string(),
    );
    rep.row(
        "Bayes posterior (closed form)",
        &m.posterior_empty_given_free().to_string(),
        &a.constraint_probability().to_string(),
    );
}

fn e11(rep: &mut Report) {
    rep.section("E11: §8 policy ablation");
    let outcomes = sweep_policies(&FiringSquad::paper());
    rep.claim(
        "Theorem 6.2 predicts every policy's success",
        outcomes
            .iter()
            .all(pak::systems::policy::PolicyOutcome::prediction_matches),
    );
    let only_yes = FirePolicy {
        on_yes: true,
        on_no: false,
        on_nothing: false,
    };
    let best = outcomes.iter().find(|o| o.policy == only_yes).unwrap();
    rep.row(
        "success(fire only on Yes)",
        "1",
        &best.success_probability.to_string(),
    );
    let bcast = Broadcast::new(3, r(1, 10), 2);
    rep.row(
        "broadcast(3, 0.1, 2) µ(all | src)",
        "9801/10000",
        &bcast
            .build_pps()
            .unwrap()
            .analyze()
            .constraint_probability()
            .to_string(),
    );
    // Bonus: the judge's beyond-reasonable-doubt bound.
    let j = JudgeScenario::new(r(1, 2), r(9, 10), 3, 3);
    rep.row(
        "judge: µ(guilty@convict | convict), 3/3 rule",
        "729/730",
        &j.analyze().unwrap().constraint_probability().to_string(),
    );
}

/// One experiment: prints its rows and records mismatches in the report.
type Experiment = fn(&mut Report);

/// Every experiment, by the name it is selected with on the command line.
const EXPERIMENTS: [(&str, Experiment); 6] = [
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e5", e5),
    ("e8", e8),
    ("e11", e11),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    if let Some(unknown) = args.iter().find(|a| !names.contains(&a.as_str())) {
        eprintln!(
            "unknown experiment `{unknown}`; valid names: {}",
            names.join(" ")
        );
        return ExitCode::FAILURE;
    }

    let mut rep = Report { failures: 0 };
    println!("pak — paper-vs-measured experiment tables");
    println!("{}", "=".repeat(92));
    for (name, run) in EXPERIMENTS {
        if args.is_empty() || args.iter().any(|a| a == name) {
            run(&mut rep);
        }
    }
    println!();
    if rep.failures == 0 {
        println!("all rows match the paper ✓");
        ExitCode::SUCCESS
    } else {
        println!("{} row(s) FAILED to match the paper ✗", rep.failures);
        ExitCode::FAILURE
    }
}
