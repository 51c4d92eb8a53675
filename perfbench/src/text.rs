//! `text_to_pak`: protocol text in, PAK answers out, in process.
//!
//! A closed loop with one client and no server. Every request is a
//! distinct program text and runs the whole pipeline: parse, compile,
//! unfold to `h - 1`, extend to `h`, parse formula texts, evaluate them as
//! one batch, and analyse every proper (agent, action) with
//! `ActionAnalysis`, `check_expectation` and `check_pak`. Nothing is
//! reused between requests.

use std::sync::Arc;
use std::time::Instant;

use pak_core::belief::ActionAnalysis;
use pak_core::fact::{DoesFact, Fact, StateFact};
use pak_core::generator::SplitMix64;
use pak_core::ids::{ActionId, AgentId, Point};
use pak_core::pps::Pps;
use pak_core::state::SimpleState;
use pak_core::theorems::{check_expectation, check_pak};
use pak_dsl::fuzz::{fuzz_program, FuzzConfig};
use pak_engine::Evaluator;
use pak_logic::FormulaParser;
use pak_num::Rational;
use pak_protocol::unfold::{unfold, UnfoldConfig, Unfolder};
use pak_systems::{attack, dsl_twins, figure1, judge, threshold};

use crate::alloc;
use crate::report::{median, peak_rss_mb, percentile, LayerCounts, Outcome, Samples, TreeCounts};
use crate::trace::{Layer, Tracer};
use crate::Args;

/// Every `TWIN_EVERY`-th request is one of the five fixed programs.
const TWIN_EVERY: usize = 4;
/// The fuzzed requests cycle through this many programs, generated in
/// set-up from [`PROGRAM_SEED`] for every workload seed. A run visits all
/// of them many times, so its largest tree, and with it its peak memory,
/// does not depend on the seed; the seed sets the order.
const PROGRAMS: usize = 2048;
const PROGRAM_SEED: u64 = 0xF0A2_2ED5;
/// Requests in the traced pass: a fixed count, so allocation counts repeat.
const TRACED_REQUESTS: usize = 1_500;
/// Set-up is allocation-heavy and its time varies from repeat to
/// repeat, so its median needs more repeats than the serve workloads'.
/// The timed loop is split into this many blocks, with the state rebuilt
/// and timed before each: run back to back before the loop, the repeats
/// took 15 ms or 25 ms depending on how fast the host was in that first
/// half second.
const SETUP_REPEATS: usize = 25;
/// Latency samples kept per run (4 MiB, committed before the timed loop).
const MAX_SAMPLES: usize = 1 << 19;

type SharedFact = Arc<dyn Fact<SimpleState, Rational> + Send + Sync>;

/// Lets a shared fact be registered as a formula atom.
#[derive(Debug, Clone)]
struct Atom(SharedFact);

impl Fact<SimpleState, Rational> for Atom {
    fn holds(&self, pps: &Pps<SimpleState, Rational>, point: Point) -> bool {
        self.0.holds(pps, point)
    }
    fn label(&self) -> String {
        self.0.label()
    }
}

/// What a fixed program must reproduce: its hand-written twin's run
/// probabilities and/or its analysis of one (agent, action).
struct Twin {
    name: &'static str,
    text: &'static str,
    fact: SharedFact,
    runs: Option<Vec<Rational>>,
    /// `(agent, action, µ(C@α | α), µ(α))`.
    analysis: Option<(AgentId, ActionId, Rational, Rational)>,
}

struct Request {
    text: String,
    twin: Option<usize>,
}

struct Setup {
    twins: Vec<Twin>,
    /// The fuzzed programs' seeds and texts, in the order this workload
    /// seed visits them.
    programs: Vec<(u64, String)>,
    /// `C` for fuzzed programs: "the environment is 1".
    env_one: SharedFact,
}

fn runs_of<G: pak_core::state::GlobalState>(pps: &Pps<G, Rational>) -> Vec<Rational> {
    pps.run_ids()
        .map(|r| pps.run_probability(r).clone())
        .collect()
}

fn analysis_of(
    a: &ActionAnalysis<Rational>,
    agent: AgentId,
    action: ActionId,
) -> Option<(AgentId, ActionId, Rational, Rational)> {
    Some((
        agent,
        action,
        a.constraint_probability(),
        a.action_measure().clone(),
    ))
}

fn twins() -> Result<Vec<Twin>, String> {
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let judge_pps =
        unfold::<_, Rational>(&dsl_twins::judge_hand::<Rational>()).map_err(|x| e(&x))?;
    let guilty: SharedFact = Arc::new(judge::JudgeScenario::<Rational>::guilty());
    let judge_an = ActionAnalysis::new(
        &judge_pps,
        judge::JUDGE,
        judge::CONVICT,
        &Atom(guilty.clone()),
    )
    .map_err(|x| e(&x))?;

    let thr_pps =
        unfold::<_, Rational>(&dsl_twins::threshold_hand::<Rational>()).map_err(|x| e(&x))?;
    let phi: SharedFact = Arc::new(threshold::ThresholdConstruction::<Rational>::phi());
    let thr_an = ActionAnalysis::new(
        &thr_pps,
        threshold::AGENT_I,
        threshold::ALPHA,
        &Atom(phi.clone()),
    )
    .map_err(|x| e(&x))?;

    let fig_pps = unfold::<_, Rational>(&dsl_twins::figure1_hand()).map_err(|x| e(&x))?;
    let psi: SharedFact = Arc::new(figure1::psi());
    let fig_an = ActionAnalysis::new(
        &fig_pps,
        figure1::AGENT_I,
        figure1::ALPHA,
        &Atom(psi.clone()),
    )
    .map_err(|x| e(&x))?;

    let flat_pps = unfold::<_, Rational>(&dsl_twins::flat_hand::<Rational>()).map_err(|x| e(&x))?;

    let attack_an =
        attack::CoordinatedAttack::new(Rational::from_ratio(1, 10), Rational::from_ratio(1, 2), 1)
            .build_pps()
            .map_err(|x| e(&x))?
            .analyze();
    let b_attacks: SharedFact = Arc::new(DoesFact::new(attack::GENERAL_B, attack::ATTACK_B));

    Ok(vec![
        Twin {
            name: "judge",
            text: dsl_twins::JUDGE_TWIN,
            fact: guilty,
            runs: Some(runs_of(&judge_pps)),
            analysis: analysis_of(&judge_an, judge::JUDGE, judge::CONVICT),
        },
        Twin {
            name: "threshold",
            text: dsl_twins::THRESHOLD_TWIN,
            fact: phi,
            runs: Some(runs_of(&thr_pps)),
            analysis: analysis_of(&thr_an, threshold::AGENT_I, threshold::ALPHA),
        },
        Twin {
            name: "figure1",
            text: dsl_twins::FIGURE1_TWIN,
            fact: psi,
            runs: Some(runs_of(&fig_pps)),
            analysis: analysis_of(&fig_an, figure1::AGENT_I, figure1::ALPHA),
        },
        Twin {
            name: "flat",
            text: dsl_twins::FLAT_TWIN,
            fact: Arc::new(StateFact::new("env=1", |g: &SimpleState| g.env == 1)),
            runs: Some(runs_of(&flat_pps)),
            analysis: None,
        },
        Twin {
            name: "attack",
            text: crate::programs::ATTACK,
            fact: b_attacks,
            runs: None,
            analysis: analysis_of(&attack_an, attack::GENERAL_A, attack::ATTACK_A),
        },
    ])
}

/// Bounds above the fuzzer's test defaults (2 agents, horizon 3, 4
/// states, locals 0..=1).
fn fuzz_config() -> FuzzConfig {
    FuzzConfig {
        max_agents: 3,
        max_horizon: 6,
        max_states: 8,
        max_actions: 4,
        max_local: 2,
        max_env: 3,
        ..FuzzConfig::default()
    }
}

fn setup(seed: u64) -> Result<Setup, String> {
    let mut population = SplitMix64::new(PROGRAM_SEED);
    let mut seeds: Vec<u64> = (0..PROGRAMS).map(|_| population.next_u64()).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..seeds.len()).rev() {
        seeds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let cfg = fuzz_config();
    let programs = seeds
        .into_iter()
        .map(|s| (s, fuzz_program(s, &cfg)))
        .collect();
    Ok(Setup {
        twins: twins()?,
        programs,
        env_one: Arc::new(StateFact::new("env=1", |g: &SimpleState| g.env == 1)),
    })
}

impl Setup {
    /// The `i`-th request text of the seeded sequence. Requests are made
    /// one at a time, outside the timed pipeline, and dropped once
    /// served, so memory does not grow with the request rate.
    fn request(&self, i: usize) -> Request {
        let (name, text, twin) = if i.is_multiple_of(TWIN_EVERY) {
            let k = (i / TWIN_EVERY) % self.twins.len();
            let t = &self.twins[k];
            (t.name.to_owned(), t.text, Some(k))
        } else {
            // The fuzzed requests before this one.
            let j = i - i / TWIN_EVERY - 1;
            let (seed, text) = &self.programs[j % self.programs.len()];
            (format!("fuzzed_{seed}"), text.as_str(), None)
        };
        // A distinct text per request: the protocol is renamed.
        let text = text.replacen(
            &format!("protocol {name} {{"),
            &format!("protocol {name}_{i} {{"),
            1,
        );
        Request { text, twin }
    }
}

/// What one request produced, for the per-layer counts.
struct Served {
    tree: TreeCounts,
    subformulas: usize,
    formulas: usize,
}

/// Runs one request through the pipeline and checks its answers.
fn serve(req: &Request, s: &Setup, tr: &mut Tracer) -> Result<Served, String> {
    let program = tr
        .span(Layer::DslParse, || pak_dsl::parse(&req.text))
        .map_err(|e| format!("parse: {e}"))?;
    let compiled = tr
        .span(Layer::DslCompile, || pak_dsl::compile::<Rational>(&program))
        .map_err(|e| format!("compile: {e}"))?;
    let model = compiled.model();
    let start = UnfoldConfig {
        horizon: Some(model.horizon.saturating_sub(1)),
        ..UnfoldConfig::default()
    };
    let mut unfolder = tr
        .span(Layer::ProtocolUnfold, || {
            Unfolder::<_, Rational>::new(model, start)
        })
        .map_err(|e| format!("unfold: {e}"))?;
    tr.span(Layer::ProtocolExtend, || unfolder.extend_horizon())
        .map_err(|e| format!("extend: {e}"))?;
    let pps = unfolder.pps();

    let twin = req.twin.map(|k| &s.twins[k]);
    let fact = twin.map_or_else(|| s.env_one.clone(), |t| t.fact.clone());
    let agents = program.agents.len() as u32;
    let actions: Vec<u32> = program.actions.iter().map(|a| a.id.value as u32).collect();
    let mut texts: Vec<String> = ["[] !fail", "c | fail", "K0 c", "B0{>=1/2} <> c"]
        .map(str::to_owned)
        .to_vec();
    for (i, a) in (0..agents)
        .flat_map(|i| actions.iter().map(move |&a| (i, a)))
        .take(3)
    {
        texts.push(format!("does({i}, {a}) -> B{i}{{>=9/10}} c"));
        texts.push(format!("does({i}, {a}) -> K{i} c"));
        texts.push(format!("<> does({i}, {a})"));
    }
    let formulas = tr
        .span(Layer::LogicFormulaParse, || {
            let mut parser = FormulaParser::<SimpleState, Rational>::new();
            parser.atom("c", Atom(fact.clone()));
            parser.atom("fail", compiled.failure_fact());
            texts
                .iter()
                .map(|t| parser.parse(t))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("formula: {e}"))?;
    let (verdicts, subformulas) = tr.span(Layer::EngineEval, || {
        let mut ev = Evaluator::new(pps);
        let v = ev.evaluate_batch(&formulas);
        (v, ev.num_subformulas())
    });
    if verdicts.len() != formulas.len() {
        return Err("evaluate_batch lost a verdict".to_owned());
    }

    let atom = Atom(fact);
    let (delta, eps) = (Rational::from_ratio(1, 10), Rational::from_ratio(1, 10));
    let analyses = tr
        .span(Layer::CoreAnalysis, || {
            let mut out = Vec::new();
            for i in 0..agents {
                for &a in &actions {
                    let (agent, action) = (AgentId(i), ActionId(a));
                    if !pps.is_proper(agent, action) {
                        continue;
                    }
                    let an = ActionAnalysis::new(pps, agent, action, &atom)?;
                    let exp = check_expectation(pps, agent, action, &atom)?;
                    let pak = check_pak(pps, agent, action, &atom, &delta, &eps)?;
                    out.push((
                        agent,
                        action,
                        an,
                        exp.implication_holds(),
                        pak.implication_holds,
                    ));
                }
            }
            Ok::<_, pak_core::error::AnalysisError>(out)
        })
        .map_err(|e| format!("analysis: {e}"))?;

    let name = program.name.value.clone();
    for (agent, action, _, exp_ok, pak_ok) in &analyses {
        if !exp_ok || !pak_ok {
            return Err(format!(
                "{name}: theorem check failed for ({agent:?}, {action:?}): expectation {exp_ok}, pak {pak_ok}"
            ));
        }
    }
    if let Some(t) = twin {
        if let Some(runs) = &t.runs {
            if runs_of(pps) != *runs {
                return Err(format!(
                    "{name}: run probabilities differ from the hand twin"
                ));
            }
        }
        if let Some((agent, action, constraint, measure)) = &t.analysis {
            let Some((_, _, an, _, _)) = analyses.iter().find(|x| x.0 == *agent && x.1 == *action)
            else {
                return Err(format!("{name}: the twin's action is not proper"));
            };
            if an.constraint_probability() != *constraint || an.action_measure() != measure {
                return Err(format!("{name}: analysis differs from the hand twin"));
            }
        }
    }
    let served = Served {
        tree: TreeCounts::of(pps),
        subformulas,
        formulas: formulas.len(),
    };
    // Each layer's structures are freed inside its own span.
    tr.span(Layer::CoreAnalysis, || drop(analyses));
    tr.span(Layer::LogicFormulaParse, || drop(formulas));
    tr.span(Layer::ProtocolUnfold, || drop(unfolder));
    tr.span(Layer::DslCompile, || drop(compiled));
    tr.span(Layer::DslParse, || drop(program));
    Ok(served)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        return match setup(args.seed) {
            Ok(s) => traced(args, &s, out),
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                out
            }
        };
    }

    let mut off = Tracer::new(false);
    let mut lat_ms = Samples::new(MAX_SAMPLES);
    let mut setup_s = Vec::new();
    let mut state = None;
    let block = args.seconds / SETUP_REPEATS as f64;
    let mut i = 0;
    for _ in 0..SETUP_REPEATS {
        // The state is rebuilt before each block: the same seed gives
        // the same state, and the old one is dropped first.
        drop(state.take());
        let t = Instant::now();
        let r = setup(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        let s = match r {
            Ok(s) => state.insert(s),
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return out;
            }
        };
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < block {
            let req = s.request(i);
            let t = Instant::now();
            let r = serve(&req, s, &mut off);
            lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            if let Err(e) = r {
                out.failed += 1;
                out.fail(format!("request {i}: {e}"));
            }
            i += 1;
        }
    }
    // One client that sends the next request as soon as the last one
    // is answered: the rate pak sustains is one over the mean latency.
    let mut lat_ms = lat_ms.into_vec();
    let rate = lat_ms.len() as f64 * 1e3 / lat_ms.iter().sum::<f64>();
    let m = &mut out.metrics;
    m.push("setup_s", median(&setup_s), "s");
    m.push("throughput_rps", rate, "1/s");
    m.push("latency_p50_ms", percentile(&mut lat_ms, 0.5), "ms");
    m.push("latency_p99_ms", percentile(&mut lat_ms, 0.99), "ms");
    m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    out
}

/// The traced run: one pass over the first [`TRACED_REQUESTS`] requests
/// with spans and allocation counting, and one untraced pass over the
/// same requests for the tracing overhead.
fn traced(args: &Args, s: &Setup, mut out: Outcome) -> Outcome {
    let reqs: Vec<Request> = (0..TRACED_REQUESTS).map(|i| s.request(i)).collect();
    let mut off = Tracer::new(false);
    let t0 = Instant::now();
    for req in &reqs {
        let _ = serve(req, s, &mut off);
    }
    let untraced_s = t0.elapsed().as_secs_f64();

    let mut tr = Tracer::new(true);
    let mut counts = LayerCounts::default();
    alloc::enable(true);
    let t0 = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        tr.set_request(i as u32);
        alloc::reset_peak();
        tr.begin();
        let r = serve(req, s, &mut tr);
        tr.end(Layer::Request);
        counts.alloc_peak_bytes = counts.alloc_peak_bytes.max(alloc::peak());
        out.attempted += 1;
        match r {
            Ok(served) => {
                counts.tree(&served.tree);
                counts.subformulas += served.subformulas as u64;
                counts.formulas += served.formulas as u64;
            }
            Err(e) => {
                out.failed += 1;
                out.fail(format!("request {i}: {e}"));
            }
        }
    }
    let traced_ns = t0.elapsed().as_nanos() as u64;
    alloc::enable(false);

    counts.requests = reqs.len() as u64;
    counts.protocol_calls =
        tr.calls_from(&[Layer::ProtocolUnfold, Layer::ProtocolExtend], 0) as u64;
    counts.failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    counts.trace_overhead = traced_ns as f64 / 1e9 / untraced_s - 1.0;
    tr.summarize(&mut out.metrics, reqs.len(), traced_ns);
    counts.push_into(&mut out.metrics);
    if let Err(e) = tr.write(&args.out, &format!("spans_text_to_pak_{}.tsv", args.seed)) {
        println!("note: spans not written: {e}");
    }
    out
}
