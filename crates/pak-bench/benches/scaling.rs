//! Engineering benchmarks (not paper claims): how the analyses scale with
//! system size, and the exact-vs-float cost ablation (see the Perf
//! methodology section of `ARCHITECTURE.md`). Writes `BENCH_scaling.json`
//! at the workspace root — the machine-readable perf trail whose medians
//! are summarised in `ROADMAP.md`.

use std::sync::Arc;

use criterion::{black_box, BatchSize, BenchmarkId, Criterion};
use pak_bench::criterion;
use pak_core::belief::ActionAnalysis;
use pak_core::fact::StateFact;
use pak_core::failpoint::{self, FailPlan, Fault};
use pak_core::prelude::*;
use pak_engine::Evaluator;
use pak_logic::generator::{random_formula, RandomFormulaConfig};
use pak_logic::{Formula, FormulaParser, ModelChecker};
use pak_num::Rational;
use pak_protocol::generator::{random_model, random_pps, RandomModelConfig};
use pak_protocol::model::TableModel;
use pak_protocol::unfold::{unfold_with, UnfoldConfig, Unfolder};
use pak_server::{PakServer, Query, ServerConfig};
use pak_systems::attack::CoordinatedAttack;

fn cfg(horizon: u32) -> RandomModelConfig {
    RandomModelConfig {
        n_agents: 2,
        initial_states: 2,
        horizon,
        envs: 3,
        max_env_branching: 2,
        local_values: 2,
        actions_per_agent: 2,
    }
}

/// A two-agent random walk on a cycle of eight positions, stepping up or
/// down at every time with fixed sixteenths — the shape of the walk the
/// end-to-end benchmark serves. Agent `a` sees the position's parity,
/// agent `b` whether it is in the upper half.
fn walk_program(horizon: u64) -> String {
    use std::fmt::Write as _;
    let mut src = String::from("protocol walk {\n    agents a, b;\n");
    let _ = writeln!(src, "    horizon {horizon};");
    for p in 0..8 {
        let _ = writeln!(
            src,
            "    state s{p} = ({p}, {}, {});",
            p % 2,
            u64::from(p >= 4)
        );
    }
    src.push_str("    init { 5/16: s0; 11/16: s4; }\n    transitions {\n");
    for t in 0..horizon {
        let n = 3 + (t * 7) % 10;
        for p in 0..8 {
            let (up, down) = ((p + 1) % 8, (p + 7) % 8);
            let _ = writeln!(
                src,
                "        from s{p} at {t} -> {{ {n}/16: s{up}; {}/16: s{down}; }};",
                16 - n
            );
        }
    }
    src.push_str("    }\n}");
    src
}

/// Six belief formulas over the walk's atoms, one per threshold the
/// end-to-end benchmark draws.
fn walk_beliefs() -> Vec<Formula<SimpleState, Rational>> {
    let mut parser = FormulaParser::new();
    parser.atom("hi", StateFact::new("hi", |g: &SimpleState| g.env >= 4));
    parser.atom(
        "odd",
        StateFact::new("odd", |g: &SimpleState| g.env % 2 == 1),
    );
    parser.atom("zero", StateFact::new("zero", |g: &SimpleState| g.env == 0));
    [
        "B0{>=1/3} (hi)",
        "B1{>=1/2} (odd)",
        "B0{>=2/3} (<>(zero))",
        "B1{>=3/4} ((hi) & (odd))",
        "B0{>=9/10} ([]((hi) | (odd)))",
        "B1{>=99/100} (!(zero))",
    ]
    .iter()
    .map(|t| parser.parse(t).unwrap())
    .collect()
}

fn benches(c: &mut Criterion) {
    // Unfolding cost vs horizon (tree size grows exponentially). The high
    // horizons are where the interned pipeline pays off: node counts grow
    // exponentially while distinct `(state, time)` pairs stay flat, so
    // both the memoized unfolder and the O(distinct) build pass pull
    // further ahead of tree size with every extra round.
    let mut group = c.benchmark_group("scaling/unfold");
    for horizon in [2u32, 3, 4, 5, 6] {
        let model = random_model::<Rational>(11, &cfg(horizon));
        let runs = unfold_with(&model, &UnfoldConfig::default())
            .unwrap()
            .num_runs();
        group.bench_with_input(
            BenchmarkId::new(format!("horizon_{horizon}_runs_{runs}"), horizon),
            &model,
            |b, m| b.iter(|| black_box(unfold_with(m, &UnfoldConfig::default()).unwrap())),
        );
    }
    group.finish();

    // Incremental horizon extension vs from-scratch rebuild of the same
    // tree. One fixed model (the horizon-6 workload above, capped via
    // `UnfoldConfig::horizon`), and for each horizon the two costs are
    // recorded back to back in the same run so the comparison stays
    // apples-to-apples: `horizon_h` grows a retained `Unfolder` from
    // h−1 to h (the handle clone is per-iteration setup, only
    // `extend_horizon` is timed), `rebuild_horizon_h` unfolds the same
    // horizon-h tree from scratch. The sweep pair at the end is the
    // cumulative story: one handle grown 1→6 vs six from-scratch
    // unfolds at horizons 1..=6.
    let capped = |h: u32| UnfoldConfig {
        horizon: Some(h),
        ..UnfoldConfig::default()
    };
    let model = random_model::<Rational>(11, &cfg(6));
    let mut group = c.benchmark_group("scaling/extend");
    for horizon in [2u32, 3, 4, 5, 6] {
        let parked = Unfolder::<_, Rational>::new(&model, capped(horizon - 1)).unwrap();
        group.bench_with_input(
            BenchmarkId::new(format!("horizon_{horizon}"), horizon),
            &parked,
            |b, parked| {
                b.iter_batched(
                    || parked.clone(),
                    |mut u| {
                        u.extend_horizon().unwrap();
                        u
                    },
                    BatchSize::PerIteration,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("rebuild_horizon_{horizon}"), horizon),
            &model,
            |b, m| b.iter(|| black_box(unfold_with(m, &capped(horizon)).unwrap())),
        );
    }
    group.bench_function("sweep_1_to_6_extend", |b| {
        b.iter(|| {
            let mut u = Unfolder::<_, Rational>::new(&model, capped(1)).unwrap();
            while u.horizon() < 6 && u.extend_horizon().unwrap() {}
            black_box(u)
        })
    });
    group.bench_function("sweep_1_to_6_scratch", |b| {
        b.iter(|| {
            for h in 1..=6u32 {
                black_box(unfold_with(&model, &capped(h)).unwrap());
            }
        })
    });
    group.finish();

    // The query engine: 100 mixed formulas (every constructor, nesting
    // depth ≤ 3, seeded) against one cached horizon-6 tree. `batched` is
    // a cold `Evaluator` per iteration — interning plus every truth
    // bitset plus 100 verdicts; `naive` is 100 `ModelChecker::valid`
    // walks over the same tree. Both run in this same session, back to
    // back, so the ratio in BENCH_scaling.json is apples-to-apples; the
    // agreement assert below keeps the two sides answering the same
    // question.
    let query_tree = unfold_with::<_, Rational>(&model, &capped(6)).unwrap();
    let query_formulas: Vec<Formula<SimpleState, Rational>> = (0..100u64)
        .map(|k| {
            let fcfg = RandomFormulaConfig {
                max_depth: (k % 4) as u32,
                n_agents: 2,
                n_actions: 2,
                env_values: 3,
                local_values: 2,
            };
            random_formula::<Rational>(k * 131 + 17, &fcfg)
        })
        .collect();
    let naive_count = {
        let mc = ModelChecker::new(&query_tree);
        query_formulas.iter().filter(|f| mc.valid(f)).count()
    };
    let batched_count = Evaluator::new(&query_tree)
        .evaluate_batch(&query_formulas)
        .iter()
        .filter(|v| v.valid)
        .count();
    assert_eq!(naive_count, batched_count, "engines disagree on validity");
    let mut group = c.benchmark_group("scaling/query");
    group.bench_function("batched_100_formulas", |b| {
        b.iter(|| {
            let mut ev = Evaluator::new(&query_tree);
            black_box(ev.evaluate_batch(&query_formulas))
        })
    });
    group.bench_function("naive_100_valid_walks", |b| {
        let mc = ModelChecker::new(&query_tree);
        b.iter(|| {
            let mut valid = 0usize;
            for f in &query_formulas {
                if mc.valid(f) {
                    valid += 1;
                }
            }
            black_box(valid)
        })
    });
    // Belief on a deep tree: six `B` formulas on a cold `Evaluator` per
    // iteration, as a server request evaluates them, over the two-agent
    // walk of the end-to-end benchmark's `serve_warm` workload (horizon
    // 10, a sixteenths step at every level, 2 048 runs). The tree is
    // unfolded once, so its exact mass column is built in the first
    // iteration and reused by every later one.
    let walk = pak_dsl::compile_str::<Rational>(&walk_program(10))
        .unwrap()
        .into_model();
    let walk_tree = unfold_with::<_, Rational>(&walk, &UnfoldConfig::default()).unwrap();
    assert_eq!(walk_tree.num_runs(), 2048);
    let belief_formulas = walk_beliefs();
    let mc = ModelChecker::new(&walk_tree);
    let naive: Vec<bool> = belief_formulas.iter().map(|f| mc.valid(f)).collect();
    let batched: Vec<bool> = Evaluator::new(&walk_tree)
        .evaluate_batch(&belief_formulas)
        .iter()
        .map(|v| v.valid)
        .collect();
    assert_eq!(naive, batched, "engines disagree on belief validity");
    group.bench_function("belief_h10", |b| {
        b.iter(|| {
            let mut ev = Evaluator::new(&walk_tree);
            black_box(ev.evaluate_batch(&belief_formulas))
        })
    });
    group.finish();

    // Belief evaluation cost vs system size.
    let mut group = c.benchmark_group("scaling/analysis");
    for horizon in [2u32, 3, 4] {
        let pps = random_pps::<Rational>(11, &cfg(horizon)).unwrap();
        let fact = StateFact::new("env even", |g: &SimpleState| g.env.is_multiple_of(2));
        // Find any proper action.
        let mut found = None;
        'outer: for run in pps.run_ids() {
            for t in 0..pps.run_len(run) as u32 {
                for &(a, act) in pps.actions_at(Point { run, time: t }) {
                    if pps.is_proper(a, act) {
                        found = Some((a, act));
                        break 'outer;
                    }
                }
            }
        }
        if let Some((agent, action)) = found {
            group.bench_with_input(
                BenchmarkId::new("action_analysis", pps.num_runs()),
                &pps,
                |b, p| b.iter(|| black_box(ActionAnalysis::new(p, agent, action, &fact).unwrap())),
            );
        }
    }
    group.finish();

    // Rational vs f64 ablation on a fixed workload (attack, 4 rounds),
    // plus representation-tier microbenches: a product chain of k copies
    // of p keeps every intermediate denominator in a known tier of
    // BigUint's inline/fixed/heap lattice, isolating what each tier
    // costs. The attack rows are measured back to back in this same
    // session, so their ratio in BENCH_scaling.json is apples-to-apples.
    let mut group = c.benchmark_group("scaling/numeric_ablation");
    group.bench_function("attack4_rational", |b| {
        let s = CoordinatedAttack::new(Rational::from_ratio(1, 10), Rational::from_ratio(1, 2), 4);
        b.iter(|| black_box(s.build_pps().unwrap().analyze()))
    });
    group.bench_function("attack4_f64", |b| {
        let s = CoordinatedAttack::new(0.1f64, 0.5, 4);
        b.iter(|| black_box(s.build_pps().unwrap().analyze()))
    });
    let chain = |p: &Rational, k: usize| {
        let mut acc = Rational::one();
        for _ in 0..k {
            acc *= p;
        }
        acc
    };
    // Denominator 2^48: word-sized throughout (inline tier only).
    group.bench_function("chain_mul_48_inline", |b| {
        let half = Rational::from_ratio(1, 2);
        b.iter(|| black_box(chain(&half, 48)))
    });
    // Denominator 20^40 ≈ 2^172.9: crosses u64::MAX early and then stays
    // inside the fixed [u64; 3] tier — no allocation if the tier works.
    group.bench_function("chain_mul_40_fixed", |b| {
        let p = Rational::from_ratio(19, 20);
        b.iter(|| black_box(chain(&p, 40)))
    });
    // Denominator 20^120 ≈ 2^518.7: escalates through fixed to the heap
    // tier; the gap to the fixed row is the price of Vec limbs.
    group.bench_function("chain_mul_120_heap", |b| {
        let p = Rational::from_ratio(19, 20);
        b.iter(|| black_box(chain(&p, 120)))
    });
    group.finish();

    // The serving layer end to end: a 1000-query mixed replay (measures
    // and verdict batches over horizons 1–4) through the full service —
    // bounded queue, two workers, shared tree cache — measured clean and
    // under a deterministic fault storm (every 7th cache insert dropped,
    // every 23rd request cancelled at the worker). The gap between the
    // two rows is the price of fault handling: skipped inserts force
    // tree rebuilds, cancellations waste partial work.
    let service_model = Arc::new(random_model::<Rational>(11, &cfg(4)));
    let service_query = |i: usize| -> Query<SimpleState, Rational> {
        let horizon = (1 + i % 4) as u32;
        let even = || {
            Formula::atom(StateFact::new("env even", |g: &SimpleState| {
                g.env.is_multiple_of(2)
            }))
        };
        match i % 3 {
            0 => Query::Measure {
                horizon,
                time: (i % (horizon as usize + 1)) as u32,
                formula: even().eventually(),
            },
            1 => Query::Verdicts {
                horizon,
                formulas: vec![even().eventually(), Formula::knows(AgentId(0), even())],
            },
            _ => Query::Verdicts {
                horizon,
                formulas: vec![even().not().always()],
            },
        }
    };
    let run_replay = |model: &Arc<TableModel<Rational>>| {
        let server = PakServer::start(
            Arc::clone(model),
            ServerConfig {
                workers: 2,
                queue_capacity: 1024,
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<_> = (0..1000)
            .map(|i| {
                server
                    .submit(service_query(i))
                    .expect("queue sized for the whole replay")
            })
            .collect();
        for t in tickets {
            let _ = t.wait();
        }
        server.shutdown()
    };
    let mut group = c.benchmark_group("scaling/service");
    group.bench_function("replay_1000_mixed", |b| {
        b.iter(|| black_box(run_replay(&service_model)))
    });
    group.bench_function("replay_1000_mixed_faulty", |b| {
        let _faults = failpoint::install(
            FailPlan::new()
                .fail_every("cache.insert", 7, Fault::Error)
                .fail_every("server.worker", 23, Fault::Cancel),
        );
        b.iter(|| black_box(run_replay(&service_model)))
    });
    group.finish();
}

fn main() {
    let mut c = criterion();
    benches(&mut c);
    c.final_summary();
    // Machine-readable trail so future PRs can track the perf trajectory.
    // Written to the workspace root regardless of the bench's working dir.
    c.save_json(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_scaling.json"
    ));
}
