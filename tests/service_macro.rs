//! Macro tests for the serving layer: a ≥1000-query mixed workload
//! replayed against a byte-budgeted cache, overload rejection with a
//! guaranteed drain, degradation to the Monte-Carlo tier cross-checked
//! against exact measures, and adversary-variant cache identity.
//!
//! The degradation test installs a failpoint plan (process-global), so
//! every test in this binary serialises on one lock.

mod common;

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

use pak::core::failpoint::{self, FailPlan, Fault};
use pak::core::prelude::*;
use pak::dsl::{compile, parse};
use pak::engine::{CacheBudget, CachedUnfolder, Evaluator, PpsCache};
use pak::logic::Formula;
use pak::num::Rational;
use pak::protocol::generator::{random_model, RandomModelConfig};
use pak::protocol::model::{CoinModel, CoinState, ModelFingerprint, TableModel, COIN_ACT};
use pak::protocol::unfold::{unfold_with, UnfoldConfig};
use pak::server::{Answer, FallbackConfig, PakServer, Query, ServerConfig, ServiceError, Ticket};

static SERVICE_LOCK: Mutex<()> = Mutex::new(());

fn service_lock() -> std::sync::MutexGuard<'static, ()> {
    SERVICE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn even() -> Formula<SimpleState, Rational> {
    Formula::atom(StateFact::new("env even", |g: &SimpleState| {
        g.env.is_multiple_of(2)
    }))
}

/// The replay workload's model: terminates at depth 4, so horizons 1–4
/// are all natural tree prefixes.
fn replay_model() -> TableModel<Rational> {
    random_model::<Rational>(
        11,
        &RandomModelConfig {
            n_agents: 2,
            initial_states: 2,
            horizon: 4,
            envs: 3,
            max_env_branching: 2,
            local_values: 2,
            actions_per_agent: 2,
        },
    )
}

/// The mixed workload, period 60: horizons cycle 1–4, shapes cycle
/// measure / two-formula batch / one-formula batch, measure times sweep
/// every valid time of their horizon.
fn replay_query(i: usize) -> Query<SimpleState, Rational> {
    let horizon = (1 + i % 4) as Time;
    match i % 3 {
        0 => Query::Measure {
            horizon,
            time: (i % (horizon as usize + 1)) as Time,
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
}

/// The same query answered directly — from-scratch unfold, no cache, no
/// service — as the replay's ground truth.
fn direct_answer(
    model: &TableModel<Rational>,
    q: &Query<SimpleState, Rational>,
) -> Answer<Rational> {
    let unfold_at = |h: Time| {
        unfold_with(
            model,
            &UnfoldConfig {
                horizon: Some(h),
                ..UnfoldConfig::default()
            },
        )
        .unwrap()
    };
    match q {
        Query::Verdicts { horizon, formulas } => {
            let tree = unfold_at(*horizon);
            Answer::Verdicts(Evaluator::new(&tree).evaluate_batch(formulas))
        }
        Query::Measure {
            horizon,
            time,
            formula,
        } => {
            let tree = unfold_at(*horizon);
            Answer::Exact(Evaluator::new(&tree).measure_at_time(formula, *time))
        }
    }
}

/// The tentpole macro-run: 1000 mixed queries against a cache whose
/// byte budget cannot hold all four horizons at once. Submission
/// backpressure is honoured (an `Overloaded` reply makes the client
/// drain one pending ticket and retry), every answer must equal the
/// direct fault-free computation, memory must stay within budget via
/// eviction, and the final summary must conserve requests.
#[test]
fn thousand_query_replay_is_exact_within_budget() {
    let _serial = service_lock();
    let model = Arc::new(replay_model());
    let fp = |h: Time| {
        unfold_with(
            &*model,
            &UnfoldConfig {
                horizon: Some(h),
                ..UnfoldConfig::default()
            },
        )
        .unwrap()
        .memory_footprint()
    };
    // Holds the deepest tree plus the shallowest — but never all four.
    let budget_bytes = fp(4) + fp(1);
    let expected: HashMap<usize, Answer<Rational>> = (0..60)
        .map(|k| (k, direct_answer(&model, &replay_query(k))))
        .collect();
    let server = PakServer::start(
        Arc::clone(&model),
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            cache: CacheBudget {
                max_entries: None,
                max_bytes: Some(budget_bytes),
            },
            ..ServerConfig::default()
        },
    );
    let check = |i: usize, got: Result<Answer<Rational>, ServiceError>| {
        assert_eq!(
            got.as_ref().expect("replay queries cannot fail"),
            &expected[&(i % 60)],
            "query {i}: served answer must equal the direct computation"
        );
    };
    let mut pending: VecDeque<(usize, Ticket<Rational>)> = VecDeque::new();
    let mut resolved = 0usize;
    for i in 0..1000 {
        let q = replay_query(i);
        loop {
            match server.submit(q.clone()) {
                Ok(t) => {
                    pending.push_back((i, t));
                    break;
                }
                Err(ServiceError::Overloaded) => {
                    // Backpressure: drain the oldest in-flight request,
                    // then retry the rejected submission.
                    let (j, t) = pending
                        .pop_front()
                        .expect("full queue implies pending work");
                    check(j, t.wait());
                    resolved += 1;
                }
                Err(e) => panic!("query {i}: unexpected submission error {e}"),
            }
        }
    }
    for (j, t) in pending {
        check(j, t.wait());
        resolved += 1;
    }
    assert_eq!(resolved, 1000);
    let summary = server.shutdown();
    assert_eq!(summary.accepted, 1000, "{summary:?}");
    assert_eq!(summary.served, 1000, "{summary:?}");
    assert_eq!(summary.degraded, 0, "{summary:?}");
    assert!(
        summary.cache.evictions > 0,
        "the budget must have forced evictions: {summary:?}"
    );
    assert!(
        summary.cache.bytes <= budget_bytes,
        "cache must end within budget: {} > {budget_bytes}",
        summary.cache.bytes
    );
    assert!(summary.cache.misses > 0, "{summary:?}");
}

/// Admission control: a single worker behind a one-slot queue must
/// reject most of a fast 64-burst with `Overloaded` (each job costs at
/// least a horizon-4 unfold, submissions cost a `try_send`), nothing is
/// enqueued for a rejected submission, and every accepted request
/// resolves exactly — even when shutdown begins while jobs are still
/// buffered, the drain loses nothing. The exact interleaving of accepts
/// and rejects is scheduler-dependent, so the test asserts the
/// invariants, not a fixed schedule.
#[test]
fn overload_rejects_cleanly_and_drain_loses_nothing() {
    let _serial = service_lock();
    let model = Arc::new(replay_model());
    let server = PakServer::start(
        Arc::clone(&model),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    );
    let q = replay_query(3); // horizon 4, the slowest shape
    let expected = direct_answer(&model, &q);
    let mut pending: Vec<Ticket<Rational>> = Vec::new();
    let mut rejections = 0;
    for _ in 0..64 {
        match server.submit(q.clone()) {
            Ok(t) => pending.push(t),
            Err(ServiceError::Overloaded) => rejections += 1,
            Err(e) => panic!("unexpected submission error {e}"),
        }
    }
    // The first submission always lands (the queue starts empty), and
    // the worker cannot finish a job between two adjacent submits, so a
    // one-slot queue must turn most of the burst away.
    assert!(!pending.is_empty(), "an empty queue must accept");
    assert!(rejections > 0, "a one-slot queue must reject a 64-burst");
    // Shutdown drains whatever is still buffered: every accepted ticket
    // resolves exactly even though shutdown began first.
    let summary = server.shutdown();
    for t in pending {
        assert_eq!(t.wait().unwrap(), expected);
    }
    assert_eq!(summary.rejected, rejections, "{summary:?}");
    assert_eq!(
        summary.accepted, summary.served,
        "every accepted request was served: {summary:?}"
    );
    // And a shut-down server refuses new work entirely.
}

/// Graceful degradation, cross-checked: deadline-blown exact measure
/// queries (forced deterministically via the evaluator failpoint) fall
/// back to Monte-Carlo `Approximate` answers whose 99% confidence
/// intervals must contain the true probabilities — which the same
/// service computes exactly once the faults are gone.
#[test]
fn degraded_answers_bracket_the_exact_measures() {
    let _serial = service_lock();
    let model = Arc::new(CoinModel {
        heads_num: 3,
        heads_den: 4,
    });
    let heads =
        || Formula::<CoinState, f64>::atom(StateFact::new("heads", |g: &CoinState| g.heads));
    let cases: Vec<(Formula<CoinState, f64>, Time)> = vec![
        (heads(), 0),
        (heads().not(), 0),
        (heads().and(Formula::does(AgentId(0), COIN_ACT)), 0),
    ];
    let server = PakServer::<_, f64>::start(
        Arc::clone(&model),
        ServerConfig {
            workers: 1,
            fallback: Some(FallbackConfig::default()),
            ..ServerConfig::default()
        },
    );
    let query = |(f, t): &(Formula<CoinState, f64>, Time)| Query::Measure {
        horizon: 1,
        time: *t,
        formula: f.clone(),
    };
    // Exact answers first, fault-free.
    let exact: Vec<f64> = cases
        .iter()
        .map(|c| match server.submit(query(c)).unwrap().wait().unwrap() {
            Answer::Exact(p) => p,
            other => panic!("fault-free measure must be exact, got {other:?}"),
        })
        .collect();
    assert!(exact.iter().all(|p| *p > 0.0 && *p < 1.0), "{exact:?}");
    // Now every evaluator step is cancelled: the exact path can never
    // finish, and each query must degrade instead of failing.
    let guard = failpoint::install(FailPlan::new().fail_every("eval.subformula", 1, Fault::Cancel));
    let degraded: Vec<Answer<f64>> = cases
        .iter()
        .map(|c| server.submit(query(c)).unwrap().wait().unwrap())
        .collect();
    drop(guard);
    for ((answer, exact), (f, _)) in degraded.iter().zip(&exact).zip(&cases) {
        match answer {
            Answer::Approximate {
                estimate,
                ci_low,
                ci_high,
                trials,
            } => {
                assert_eq!(*trials, FallbackConfig::default().trials);
                assert!(
                    ci_low <= exact && exact <= ci_high,
                    "{f:?}: exact {exact} outside degraded interval [{ci_low}, {ci_high}]"
                );
                assert!(
                    (estimate - exact).abs() < 0.05,
                    "{f:?}: estimate {estimate} far from exact {exact}"
                );
            }
            other => panic!("{f:?}: expected a degraded answer, got {other:?}"),
        }
    }
    let summary = server.shutdown();
    assert_eq!(summary.degraded, cases.len() as u64, "{summary:?}");
    assert_eq!(summary.served, 2 * cases.len() as u64, "{summary:?}");
}

/// After shutdown begins, new submissions are refused.
#[test]
fn shut_down_server_refuses_new_work() {
    let _serial = service_lock();
    let model = Arc::new(CoinModel {
        heads_num: 1,
        heads_den: 2,
    });
    let server = PakServer::<_, f64>::start(model, ServerConfig::default());
    let q = || Query::Verdicts {
        horizon: 1,
        formulas: vec![Formula::<CoinState, f64>::does(AgentId(0), COIN_ACT)],
    };
    let t = server.submit(q()).unwrap();
    assert!(t.wait().is_ok());
    let summary = server.shutdown();
    assert_eq!(summary.accepted, 1);
}

/// Satellite: the shutdown summary carries the cache's own counters —
/// hits, misses, evictions — so operators can see reuse directly.
#[test]
fn summary_reports_cache_reuse() {
    let _serial = service_lock();
    let model = Arc::new(replay_model());
    let server = PakServer::start(
        Arc::clone(&model),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let q = replay_query(1);
    for _ in 0..5 {
        assert!(server.submit(q.clone()).unwrap().wait().is_ok());
    }
    let live = server.cache_stats();
    assert!(live.misses >= 1 && live.hits >= 4, "{live:?}");
    let summary = server.shutdown();
    assert_eq!(summary.cache.entries, 1, "{summary:?}");
    assert!(summary.cache.hits >= 4, "{summary:?}");
    assert!(summary.cache.misses >= 1, "{summary:?}");
    assert_eq!(summary.cache.evictions, 0, "{summary:?}");
}

const RELAY_SRC: &str = "\
protocol relay {
    agents s;
    horizon 2;
    action send = 0;
    state up = (1, 0);
    state down = (0, 0);
    init { 1: up; }
    moves s { at (0, 0) -> send; at (0, 1) -> send; }
    transitions {
        from up at 0 -> { 9/10: up; 1/10: down; };
        from up at 1 -> { 9/10: up; 1/10: down; };
    }
    adversary mirror {
        # Identical overrides to the base rule: only the variant tag
        # distinguishes this model from the base protocol.
        from up at 0 -> { 9/10: up; 1/10: down; };
    }
    adversary hostile {
        from up at 0 -> down;
        from up at 1 -> down;
    }
}";

/// Satellite: adversary parameters are part of the cache key. Every
/// DSL adversary variant — including one whose overrides coincide with
/// the base rules, yielding a semantically identical model — gets its
/// own fingerprint and its own cache entry; base and variant trees
/// never alias.
#[test]
fn adversary_variants_never_alias_in_the_cache() {
    let _serial = service_lock();
    let compiled = compile::<Rational>(&parse(RELAY_SRC).unwrap()).unwrap();
    let base = compiled.model();
    let variants: Vec<(&str, &TableModel<Rational>)> = compiled.adversaries().collect();
    assert_eq!(variants.len(), 2);
    let models: Vec<&TableModel<Rational>> = std::iter::once(base)
        .chain(variants.iter().map(|(_, m)| *m))
        .collect();
    let fps: Vec<_> = models.iter().map(|m| m.fingerprint()).collect();
    for i in 0..fps.len() {
        for j in (i + 1)..fps.len() {
            assert_ne!(
                fps[i], fps[j],
                "models {i} and {j} must fingerprint distinctly"
            );
        }
    }
    let cache = PpsCache::new();
    let trees: Vec<_> = models
        .iter()
        .map(|m| {
            CachedUnfolder::new(*m, UnfoldConfig::default())
                .unwrap()
                .pps_at(&cache, 2)
                .unwrap()
        })
        .collect();
    assert_eq!(cache.len(), models.len(), "one entry per variant");
    for i in 0..trees.len() {
        for j in (i + 1)..trees.len() {
            assert!(
                !Arc::ptr_eq(&trees[i], &trees[j]),
                "trees {i} and {j} must not alias"
            );
        }
    }
    // The mirror variant is semantically the base model — same tree,
    // different identity — while hostile genuinely differs.
    common::assert_identical_systems(&trees[0], &trees[1], "mirror ≡ base semantically");
    // Served trees are grown level by level; the whole-tree build pass
    // over the same nodes agrees.
    let rebuilt = common::rebuild_through_builder(&trees[0]);
    common::assert_identical_systems(&rebuilt, &trees[0], "served tree ≡ build pass");
    let up_at_2 = |tree: &Pps<SimpleState, Rational>| {
        Evaluator::new(tree).measure_at_time(
            &Formula::atom(StateFact::new("up", |g: &SimpleState| g.env == 1)),
            2,
        )
    };
    assert_ne!(
        up_at_2(&trees[0]),
        up_at_2(&trees[2]),
        "hostile must change the time-2 up-measure"
    );
}
