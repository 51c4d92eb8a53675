//! `serve_warm` and `serve_churn`: one deep compiled model behind a
//! one-worker `PakServer`.
//!
//! A run works against one server: the set-up's warm-up (one request per
//! horizon), then blocks that each hold an open loop at a fixed arrival
//! rate for the latencies, each request timed from when it was due, and a
//! closed loop with a fixed in-flight window for `throughput_rps`. One worker serves
//! in FIFO order, so the sequence of cache hits, misses and evictions is
//! a function of the submitted sequence. The traced run replays that
//! sequence in process through the calls a worker makes
//! (`CachedUnfolder::pps_at_with` on a `PpsCache` with the same budget,
//! `Evaluator`, `estimate_formula_measure`), with spans around each.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pak_core::cancel::CancelToken;
use pak_core::fact::StateFact;
use pak_core::generator::SplitMix64;
use pak_core::ids::Time;
use pak_core::state::SimpleState;
use pak_engine::{CacheBudget, CacheStats, CachedUnfolder, Evaluator, PpsCache, Verdict};
use pak_logic::{Formula, FormulaParser};
use pak_num::Rational;
use pak_protocol::model::TableModel;
use pak_protocol::unfold::{unfold_with, UnfoldConfig};
use pak_server::{Answer, FallbackConfig, PakServer, Query, ServerConfig, ServiceError};
use pak_sim::approx::{estimate_formula_measure, formula_is_sampleable};

use crate::alloc;
use crate::programs::{walk_formula, walk_pak_formula, walk_program, Weights, WALK_POSITIONS};
use crate::report::{median, peak_rss_mb, percentile, LayerCounts, Outcome, TreeCounts};
use crate::trace::{Layer, Tracer};
use crate::Args;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Churn,
}

/// A workload's fixed settings.
struct Params {
    horizon: Time,
    /// Requests ask for horizons `lowest..=horizon`.
    lowest: Time,
    /// The walk branches at every `branch_every`-th time.
    branch_every: u64,
    weights: Weights,
    budget: CacheBudget,
    /// Open-loop arrivals per second, a sixth (warm) to a tenth (churn)
    /// of the closed loop's rate.
    rate: f64,
    /// Rounds of (horizon, kind) pairs in the request population. A 35 s
    /// run's open loop goes through the whole population almost six times.
    rounds: usize,
}

fn params(kind: Kind) -> Params {
    match kind {
        Kind::Warm => Params {
            horizon: 10,
            lowest: 6,
            branch_every: 1,
            weights: Weights::Dyadic,
            budget: CacheBudget::default(),
            rate: 100.0,
            rounds: 24,
        },
        Kind::Churn => Params {
            horizon: 12,
            lowest: 1,
            branch_every: 2,
            weights: Weights::Prime,
            budget: CacheBudget {
                max_entries: None,
                max_bytes: Some(CHURN_BUDGET_BYTES),
            },
            rate: 200.0,
            rounds: 4,
        },
    }
}

/// Below the 236 kB working set of the churn model's trees (horizons
/// 1..=12); the horizon-12 tree alone takes 57 kB.
const CHURN_BUDGET_BYTES: usize = 100_000;
const QUEUE_CAPACITY: usize = 4096;
/// Requests the closed loop keeps in flight, below the queue bound.
const IN_FLIGHT: usize = 8;
const FALLBACK: FallbackConfig = FallbackConfig {
    trials: 300,
    seed: 0x5EED,
    z: 2.576,
};
/// A run alternates open-loop and closed-loop segments in this many
/// blocks, with one set-up repeat timed between the two segments of each
/// block. The host's speed drifts over seconds, so every metric samples
/// the whole run instead of one stretch of it.
const BLOCKS: usize = 8;
const WARMUP_REQUESTS: usize = 200;
/// How long before a send is due the open-loop generator stops sleeping
/// and spins.
const SPIN: Duration = Duration::from_micros(200);
/// Share of each block spent in the closed loop; the open loop gets the
/// rest.
const CLOSED_SHARE: f64 = 0.6;

#[derive(Debug, Clone)]
enum Req {
    Verdicts {
        h: Time,
        fs: Vec<usize>,
    },
    Measure {
        h: Time,
        t: Time,
        f: usize,
        expired: bool,
    },
}

impl Req {
    fn horizon(&self) -> Time {
        match self {
            Req::Verdicts { h, .. } | Req::Measure { h, .. } => *h,
        }
    }
    fn expired(&self) -> bool {
        matches!(self, Req::Measure { expired: true, .. })
    }
}

struct Setup {
    p: Params,
    model: Arc<TableModel<Rational>>,
    formulas: Vec<Formula<SimpleState, Rational>>,
    warmup: Vec<Req>,
    /// Checked once the expected answers exist.
    warmup_answers: Vec<Result<Answer<Rational>, ServiceError>>,
    requests: Vec<Req>,
    server: PakServer<TableModel<Rational>, Rational>,
}

fn parser() -> FormulaParser<SimpleState, Rational> {
    let mut p = FormulaParser::new();
    p.atom(
        "hi",
        StateFact::new("hi", |g: &SimpleState| g.env >= WALK_POSITIONS / 2),
    );
    p.atom(
        "odd",
        StateFact::new("odd", |g: &SimpleState| g.env % 2 == 1),
    );
    p.atom("zero", StateFact::new("zero", |g: &SimpleState| g.env == 0));
    p
}

/// Seeds the formulas' skeletons, the same for every workload seed.
const SHAPE_SEED: u64 = 0x5AFE_F00D;

fn formula_texts(kind: Kind, rng: &mut SplitMix64) -> Vec<String> {
    let mut shape = SplitMix64::new(SHAPE_SEED);
    match kind {
        // Many overlapping epistemic formulas, a third of them PAK-shaped.
        Kind::Warm => (0..48)
            .map(|i| {
                if i % 3 == 0 {
                    walk_pak_formula(&mut shape, rng)
                } else {
                    walk_formula(&mut shape, rng, 3, true)
                }
            })
            .collect(),
        // Light single formulas without K or B, so any of them can fall
        // back to sampling.
        Kind::Churn => (0..32)
            .map(|_| walk_formula(&mut shape, rng, 3, false))
            .collect(),
    }
}

/// Draws `0..n` in shuffled rounds: every value once per round, so a
/// run's mix does not drift with the seed.
struct Deck {
    items: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(n: usize) -> Self {
        Deck {
            items: (0..n).collect(),
            next: n,
        }
    }

    fn draw(&mut self, rng: &mut SplitMix64) -> usize {
        if self.next == self.items.len() {
            for i in (1..self.items.len()).rev() {
                self.items.swap(i, rng.below(i as u64 + 1) as usize);
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// Seeds what each request of the population asks, the same for every
/// workload seed.
const POPULATION_SEED: u64 = 0xC0FF_EE00;

/// The request population: `p.rounds` rounds, each holding every
/// (horizon, kind) pair once, so horizons move up and down over
/// `lowest..=horizon` while the mix of deep and shallow, exact and
/// expired requests is fixed. What each request asks (formulas, batch
/// size, time) is drawn from [`POPULATION_SEED`], so every workload seed
/// serves the same multiset of requests; `rng` shuffles the order within
/// each round. With a fresh draw per seed, which heavy batches a run's
/// open loop happened to get set its `latency_p99_ms`.
fn population(
    kind: Kind,
    p: &Params,
    formulas: &[Formula<SimpleState, Rational>],
    rng: &mut SplitMix64,
) -> Vec<Req> {
    let horizons = (p.horizon - p.lowest + 1) as usize;
    // Warm: verdict batch or measure. Churn, per ten requests: two
    // single-formula verdicts, one expired measure, seven exact measures.
    let kinds = if kind == Kind::Warm { 2 } else { 10 };
    let round = horizons * kinds;
    let mut fixed = SplitMix64::new(POPULATION_SEED);
    let mut any = Deck::new(formulas.len());
    let sampleable: Vec<usize> = (0..formulas.len())
        .filter(|&i| formula_is_sampleable(&formulas[i]))
        .collect();
    let mut expirable = Deck::new(sampleable.len());
    let mut reqs: Vec<Req> = (0..p.rounds * round)
        .map(|i| {
            let slot = i % round;
            let h = (slot % horizons) as Time + p.lowest;
            let t = fixed.range(0, u64::from(h)) as Time;
            match (kind, slot / horizons) {
                (Kind::Warm, 0) => {
                    let n = fixed.range(4, 8);
                    let fs = (0..n).map(|_| any.draw(&mut fixed)).collect();
                    Req::Verdicts { h, fs }
                }
                (Kind::Churn, 0 | 1) => Req::Verdicts {
                    h,
                    fs: vec![any.draw(&mut fixed)],
                },
                (Kind::Churn, 2) => {
                    let f = sampleable[expirable.draw(&mut fixed)];
                    Req::Measure {
                        h,
                        t,
                        f,
                        expired: true,
                    }
                }
                _ => Req::Measure {
                    h,
                    t,
                    f: any.draw(&mut fixed),
                    expired: false,
                },
            }
        })
        .collect();
    for chunk in reqs.chunks_mut(round) {
        for i in (1..chunk.len()).rev() {
            chunk.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }
    reqs
}

fn query(req: &Req, formulas: &[Formula<SimpleState, Rational>]) -> Query<SimpleState, Rational> {
    match req {
        Req::Verdicts { h, fs } => Query::Verdicts {
            horizon: *h,
            formulas: fs.iter().map(|&i| formulas[i].clone()).collect(),
        },
        Req::Measure { h, t, f, .. } => Query::Measure {
            horizon: *h,
            time: *t,
            formula: formulas[*f].clone(),
        },
    }
}

fn submit(s: &Setup, req: &Req) -> Result<pak_server::Ticket<Rational>, ServiceError> {
    let deadline = req.expired().then_some(Duration::ZERO);
    s.server
        .submit_with_deadline(query(req, &s.formulas), deadline)
}

/// Compiles the model, builds the formula and request pools, starts the
/// server and warms it up: one request per horizon fills the cache, then
/// the population's first [`WARMUP_REQUESTS`] run through.
fn setup(kind: Kind, seed: u64) -> Result<Setup, String> {
    let p = params(kind);
    let text = walk_program(seed, u64::from(p.horizon), p.branch_every, p.weights);
    let model = Arc::new(
        pak_dsl::compile_str::<Rational>(&text)
            .map_err(|e| e.to_string())?
            .into_model(),
    );
    let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let parser = parser();
    let formulas = formula_texts(kind, &mut rng)
        .iter()
        .map(|t| parser.parse(t).map_err(|e| format!("{t}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let requests = population(kind, &p, &formulas, &mut rng);
    let server = PakServer::start(
        Arc::clone(&model),
        ServerConfig {
            workers: 1,
            queue_capacity: QUEUE_CAPACITY,
            default_deadline: None,
            unfold: UnfoldConfig::default(),
            cache: p.budget,
            fallback: Some(FALLBACK),
        },
    );
    let warmup: Vec<Req> = (1..=p.horizon)
        .map(|h| Req::Verdicts { h, fs: vec![0] })
        .chain(requests.iter().cycle().take(WARMUP_REQUESTS).cloned())
        .collect();
    let mut s = Setup {
        p,
        model,
        formulas,
        warmup,
        warmup_answers: Vec::new(),
        requests,
        server,
    };
    for req in &s.warmup {
        let answer = submit(&s, req).map_err(|e| e.to_string())?.wait();
        s.warmup_answers.push(answer);
    }
    Ok(s)
}

/// The exact answers, from an `Evaluator` on a from-scratch unfold of
/// every horizon.
struct Expected {
    verdicts: Vec<Vec<Verdict>>,
    measures: Vec<Vec<Vec<Rational>>>,
}

fn expected(s: &Setup) -> Result<Expected, String> {
    let mut verdicts = vec![Vec::new()];
    let mut measures = vec![Vec::new()];
    for h in 1..=s.p.horizon {
        let cfg = UnfoldConfig {
            horizon: Some(h),
            ..UnfoldConfig::default()
        };
        let tree = unfold_with::<_, Rational>(s.model.as_ref(), &cfg).map_err(|e| e.to_string())?;
        let mut ev = Evaluator::new(&tree);
        verdicts.push(s.formulas.iter().map(|f| ev.evaluate(f)).collect());
        measures.push(
            s.formulas
                .iter()
                .map(|f| (0..=h).map(|t| ev.measure_at_time(f, t)).collect())
                .collect(),
        );
    }
    Ok(Expected { verdicts, measures })
}

fn check(
    e: &Expected,
    req: &Req,
    answer: &Result<Answer<Rational>, ServiceError>,
) -> Result<(), String> {
    let answer = answer.as_ref().map_err(|err| format!("{req:?}: {err}"))?;
    let ok = match (req, answer) {
        (Req::Verdicts { h, fs }, Answer::Verdicts(vs)) => {
            vs.len() == fs.len()
                && fs
                    .iter()
                    .zip(vs)
                    .all(|(&f, v)| e.verdicts[*h as usize][f] == *v)
        }
        (
            Req::Measure {
                h,
                t,
                f,
                expired: false,
            },
            Answer::Exact(m),
        ) => e.measures[*h as usize][*f][*t as usize] == *m,
        (
            Req::Measure { expired: true, .. },
            Answer::Approximate {
                estimate,
                ci_low,
                ci_high,
                trials,
            },
        ) => {
            // The Wilson bounds are computed in floating point: an upper
            // bound can round one ulp below an estimate of exactly 1.
            let eps = 1e-12;
            *trials == FALLBACK.trials
                && 0.0 <= *ci_low
                && *ci_low <= *estimate + eps
                && *estimate <= *ci_high + eps
                && *ci_high <= 1.0 + eps
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{req:?}: wrong answer {answer:?}"))
    }
}

/// One request's timings through the server.
struct Timed {
    seq: usize,
    /// From when it was sent, and from when it was due (open loop only).
    from_send_ns: u64,
    from_due_ns: u64,
}

/// What the server phases sent and how it went. Records whose number
/// grows with the request rate are kept only when tracing, so an
/// untraced run's peak memory does not depend on its speed.
#[derive(Default)]
struct Served {
    trace: bool,
    sent: usize,
    expired_sent: u64,
    /// Every request the server was sent, in submission order (traced).
    sequence: Vec<Req>,
    /// Time spent in each submit call (traced).
    submit_us: Vec<f64>,
    /// Requests the closed loop completed, and the time it ran.
    closed_done: u64,
    closed_secs: f64,
    open: Vec<Timed>,
    gen_lag_ms: Vec<f64>,
}

impl Served {
    /// Notes a request about to be sent; returns its place in the sequence.
    fn record(&mut self, req: &Req) -> usize {
        self.expired_sent += u64::from(req.expired());
        if self.trace {
            self.sequence.push(req.clone());
        }
        self.sent += 1;
        self.sent - 1
    }

    fn submitted(&mut self, since: Instant) {
        if self.trace {
            self.submit_us.push(since.elapsed().as_secs_f64() * 1e6);
        }
    }
}

fn judge(
    out: &mut Outcome,
    e: &Expected,
    req: &Req,
    answer: &Result<Answer<Rational>, ServiceError>,
) {
    out.attempted += 1;
    if let Err(why) = check(e, req, answer) {
        out.failed += 1;
        out.fail(why);
    }
}

/// The closed loop: keeps [`IN_FLIGHT`] requests in flight for `secs`.
fn closed_loop(
    s: &Setup,
    e: &Expected,
    secs: f64,
    next: &mut usize,
    sv: &mut Served,
    out: &mut Outcome,
) {
    let mut inflight = std::collections::VecDeque::new();
    let t0 = Instant::now();
    loop {
        let open = t0.elapsed().as_secs_f64() < secs;
        while open && inflight.len() < IN_FLIGHT {
            let req = &s.requests[*next % s.requests.len()];
            *next += 1;
            sv.record(req);
            let t = Instant::now();
            let ticket = submit(s, req);
            sv.submitted(t);
            match ticket {
                Ok(ticket) => inflight.push_back((req, ticket)),
                Err(err) => judge(out, e, req, &Err(err)),
            }
        }
        let Some((req, ticket)) = inflight.pop_front() else {
            break;
        };
        judge(out, e, req, &ticket.wait());
        sv.closed_done += 1;
    }
    // The loop ends when the last request in flight is answered.
    sv.closed_secs += t0.elapsed().as_secs_f64();
}

/// The open loop: `rate` arrivals per second for `secs`, each timed from
/// when it was due. A second thread waits for the answers so a slow
/// request never delays the next send.
fn open_loop(
    s: &Setup,
    e: &Expected,
    secs: f64,
    next: &mut usize,
    sv: &mut Served,
    out: &mut Outcome,
) {
    let n = (s.p.rate * secs) as usize;
    let period = Duration::from_secs_f64(1.0 / s.p.rate);
    let (tx, rx) = mpsc::channel();
    let answers = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut got = Vec::new();
            for (i, req, due, sent, ticket) in rx {
                let answer = pak_server::Ticket::wait(ticket);
                let done: Instant = Instant::now();
                let ns = |since: Instant| (done - since).as_nanos() as u64;
                got.push((i, req, ns(due), ns(sent), answer));
            }
            got
        });
        let t0 = Instant::now();
        for k in 0..n {
            let due = t0 + period * k as u32;
            // Sleep most of the gap, then spin, so sends leave on time.
            if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
                std::thread::sleep(wait);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let req = &s.requests[*next % s.requests.len()];
            *next += 1;
            let i = sv.record(req);
            let sent = Instant::now();
            sv.gen_lag_ms.push((sent - due).as_secs_f64() * 1e3);
            let ticket = submit(s, req);
            sv.submitted(sent);
            match ticket {
                Ok(ticket) => tx
                    .send((i, req, due, sent, ticket))
                    .expect("collector alive"),
                Err(err) => judge(out, e, req, &Err(err)),
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    for (i, req, from_due_ns, from_send_ns, answer) in answers {
        judge(out, e, req, &answer);
        sv.open.push(Timed {
            seq: i,
            from_send_ns,
            from_due_ns,
        });
    }
}

/// Runs [`BLOCKS`] blocks of an open-loop and a closed-loop segment,
/// calling `between` between the two segments of each block, then checks
/// request conservation against the server's own counters.
fn drive(
    s: &Setup,
    e: &Expected,
    secs: f64,
    trace: bool,
    out: &mut Outcome,
    between: &mut dyn FnMut(&mut Outcome),
) -> Served {
    let mut sv = Served {
        trace,
        ..Served::default()
    };
    for (req, answer) in s.warmup.iter().zip(&s.warmup_answers) {
        sv.record(req);
        judge(out, e, req, answer);
    }
    // Each loop has its own place in the population, so the open loop's
    // requests depend on the seed only, not on how fast the closed loop ran.
    let block = secs / BLOCKS as f64;
    let (mut open_next, mut closed_next) = (0, 0);
    for _ in 0..BLOCKS {
        open_loop(
            s,
            e,
            block * (1.0 - CLOSED_SHARE),
            &mut open_next,
            &mut sv,
            out,
        );
        between(out);
        closed_loop(s, e, block * CLOSED_SHARE, &mut closed_next, &mut sv, out);
    }
    let sum = s.server.summary();
    let sent = sv.sent as u64;
    let failed = sum.deadline_exceeded + sum.worker_panics + sum.unfold_errors;
    if sum.accepted + sum.rejected != sent
        || sum.served + failed != sum.accepted
        || sum.degraded != sv.expired_sent
    {
        out.fail(format!(
            "conservation: sent {sent}, expired {}, summary {sum:?}",
            sv.expired_sent
        ));
    }
    sv
}

fn cache_delta(after: CacheStats, before: CacheStats) -> (u64, u64, u64) {
    (
        after.hits - before.hits,
        after.misses - before.misses,
        after.evictions - before.evictions,
    )
}

pub fn run(args: &Args, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let s = setup(kind, args.seed);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let s = match s {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    let e = match expected(&s) {
        Ok(e) => e,
        Err(err) => {
            out.fail(format!("expected answers: {err}"));
            return out;
        }
    };
    if args.trace {
        return traced(args, kind, s, &e, out);
    }
    // One more set-up per block, timed while the measured server idles
    // and shut down before the block goes on.
    let mut repeat = |out: &mut Outcome| {
        let t = Instant::now();
        let r = setup(kind, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Err(err) = r {
            out.fail(format!("set-up: {err}"));
        }
    };
    let sv = drive(&s, &e, args.seconds, false, &mut out, &mut repeat);
    let mut from_due_ms: Vec<f64> = sv.open.iter().map(|t| t.from_due_ns as f64 / 1e6).collect();
    let m = &mut out.metrics;
    m.push("setup_s", median(&setup_s), "s");
    m.push(
        "throughput_rps",
        sv.closed_done as f64 / sv.closed_secs,
        "1/s",
    );
    m.push("latency_p50_ms", percentile(&mut from_due_ms, 0.5), "ms");
    m.push("latency_p99_ms", percentile(&mut from_due_ms, 0.99), "ms");
    m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    println!(
        "open loop: {} requests at {}/s, generator lag p99 {:.3} ms",
        sv.open.len(),
        s.p.rate,
        percentile(&mut sv.gen_lag_ms.clone(), 0.99)
    );
    out
}

/// What an in-process replay measured.
struct Replay {
    wall_ns: u64,
    /// Each request's in-process cost.
    request_ns: Vec<u64>,
    cache: CacheStats,
}

/// Replays `sequence` in process through the calls a worker makes.
fn replay(
    s: &Setup,
    sequence: &[Req],
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<Replay, String> {
    let model = s.model.as_ref();
    let cache = PpsCache::with_budget(s.p.budget);
    let mut session =
        CachedUnfolder::new(model, UnfoldConfig::default()).map_err(|e| e.to_string())?;
    let mut trees: Vec<Option<TreeCounts>> = (0..=s.p.horizon).map(|_| None).collect();
    let mut request_ns = Vec::with_capacity(sequence.len());
    let t0 = Instant::now();
    for (i, req) in sequence.iter().enumerate() {
        let start = Instant::now();
        tr.set_request(i as u32);
        tr.begin();
        let cancel = if req.expired() {
            CancelToken::with_deadline(Duration::ZERO)
        } else {
            CancelToken::new()
        };
        let (hits, horizon) = (cache.hits(), session.horizon());
        tr.begin();
        let tree = session.pps_at_with(&cache, req.horizon(), &cancel);
        tr.end(if cache.hits() > hits || tree.is_err() {
            Layer::EngineCache
        } else if req.horizon() < horizon {
            Layer::ProtocolUnfold
        } else {
            Layer::ProtocolExtend
        });
        let exact = match (&tree, req) {
            (Ok(tree), Req::Verdicts { fs, .. }) => {
                let batch: Vec<_> = fs.iter().map(|&f| s.formulas[f].clone()).collect();
                let (ok, subs) = tr.span(Layer::EngineEval, || {
                    let mut ev = Evaluator::new(tree);
                    (
                        ev.evaluate_batch_with(&batch, &cancel).is_ok(),
                        ev.num_subformulas(),
                    )
                });
                counts.subformulas += subs as u64;
                counts.formulas += batch.len() as u64;
                ok
            }
            (Ok(tree), Req::Measure { t, f, .. }) => {
                let (ok, subs) = tr.span(Layer::EngineEval, || {
                    let mut ev = Evaluator::new(tree);
                    (
                        ev.measure_at_time_with(&s.formulas[*f], *t, &cancel)
                            .is_ok(),
                        ev.num_subformulas(),
                    )
                });
                counts.subformulas += subs as u64;
                counts.formulas += 1;
                ok
            }
            (Err(_), _) => false,
        };
        if let (false, Req::Measure { t, f, .. }) = (exact, req) {
            tr.span(Layer::SimFallback, || {
                estimate_formula_measure(model, FALLBACK.seed, FALLBACK.trials, &s.formulas[*f], *t)
            })
            .map_err(|_| format!("{req:?}: no fallback"))?;
        }
        if let Ok(tree) = &tree {
            let slot = &mut trees[req.horizon() as usize];
            counts.tree(slot.get_or_insert_with(|| TreeCounts::of(tree)));
        }
        counts.cache_peak_bytes = counts.cache_peak_bytes.max(cache.bytes() as u64);
        tr.end(Layer::Request);
        request_ns.push(start.elapsed().as_nanos() as u64);
    }
    Ok(Replay {
        wall_ns: t0.elapsed().as_nanos() as u64,
        request_ns,
        cache: cache.stats(),
    })
}

/// The traced run: the server phases, then the served sequence replayed
/// in process twice, untraced and traced.
fn traced(args: &Args, kind: Kind, s: Setup, e: &Expected, mut out: Outcome) -> Outcome {
    let before = s.server.cache_stats();
    let sv = drive(&s, e, args.seconds * 0.5, true, &mut out, &mut |_| {});
    let served_cache = s.server.cache_stats();
    let summary = s.server.summary();
    let n = sv.sequence.len();

    let mut counts = LayerCounts::default();
    let mut off = Tracer::new(false);
    let untraced = replay(&s, &sv.sequence, &mut off, &mut LayerCounts::default());
    let mut tr = Tracer::new(true);
    alloc::enable(true);
    alloc::reset_peak();
    let traced = replay(&s, &sv.sequence, &mut tr, &mut counts);
    counts.alloc_peak_bytes = alloc::peak();
    alloc::enable(false);
    let (untraced, traced) = match (untraced, traced) {
        (Ok(u), Ok(t)) => (u, t),
        (Err(err), _) | (_, Err(err)) => {
            out.fail(format!("replay: {err}"));
            return out;
        }
    };
    let replayed = traced.cache;
    if (replayed.hits, replayed.misses, replayed.evictions)
        != (
            served_cache.hits,
            served_cache.misses,
            served_cache.evictions,
        )
    {
        out.fail(format!(
            "replay cache {replayed:?} differs from the server's {served_cache:?}"
        ));
    }

    let (hits, misses, evictions) = cache_delta(served_cache, before);
    // Served latency from send minus the untraced in-process cost of the
    // same request: the time spent queued and handed between threads.
    let mut handoff_us: Vec<f64> = sv
        .open
        .iter()
        .map(|t| (t.from_send_ns as f64 - untraced.request_ns[t.seq] as f64) / 1e3)
        .collect();
    counts.requests = n as u64;
    counts.failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    counts.protocol_calls = tr.calls_from(
        &[Layer::ProtocolUnfold, Layer::ProtocolExtend],
        s.warmup.len(),
    ) as u64;
    counts.cache_hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    counts.cache_evictions = evictions;
    counts.submit_p50_us = percentile(&mut sv.submit_us.clone(), 0.5);
    counts.handoff_p50_us = percentile(&mut handoff_us, 0.5);
    counts.handoff_p99_us = percentile(&mut handoff_us, 0.99);
    counts.accepted = summary.accepted;
    counts.served = summary.served;
    counts.rejected = summary.rejected;
    counts.degraded = summary.degraded;
    counts.gen_lag_p99_ms = percentile(&mut sv.gen_lag_ms.clone(), 0.99);
    counts.trace_overhead = traced.wall_ns as f64 / untraced.wall_ns.max(1) as f64 - 1.0;
    tr.summarize(&mut out.metrics, n, traced.wall_ns);
    counts.push_into(&mut out.metrics);
    let name = if kind == Kind::Warm {
        "serve_warm"
    } else {
        "serve_churn"
    };
    if let Err(err) = tr.write(&args.out, &format!("spans_{name}_{}.tsv", args.seed)) {
        println!("note: spans not written: {err}");
    }
    out
}
