//! The chaos suite: deterministic fault injection at every failpoint
//! site, swept across many seeds.
//!
//! Invariants asserted, per the robustness contract:
//!
//! - **No panics** (beyond the deliberately injected ones that the
//!   server's panic isolation must contain).
//! - **Atomic aborts**: a faulted `extend_horizon` leaves the handle
//!   bit-identical to its pre-call state — pool ids, node order, run
//!   probabilities, cells.
//! - **Bit-identical retries**: once the fault plan is dropped,
//!   retrying completes with results identical to an uninterrupted run
//!   (tree growth, batched verdicts, cached trees, served answers).
//!
//! Failpoint plans are process-global, so every test here serialises on
//! one lock: a plan installed by one test must never leak into the
//! fault-free phases of another.

mod common;

use std::sync::{Arc, Mutex, PoisonError};

use pak::core::cancel::CancelToken;
use pak::core::failpoint::{self, FailPlan, Fault, SITES};
use pak::core::prelude::*;
use pak::engine::{CachedUnfolder, Evaluator, PpsCache, Verdict};
use pak::logic::Formula;
use pak::num::Rational;
use pak::protocol::generator::{random_model, RandomModelConfig};
use pak::protocol::unfold::{UnfoldConfig, UnfoldError, Unfolder};
use pak::server::{PakServer, Query, ServerConfig, ServiceError};

/// One plan active at a time across the whole binary: `#[test]` fns run
/// concurrently, and failpoints are process-global.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

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

fn base_unfold() -> UnfoldConfig {
    UnfoldConfig {
        horizon: Some(1),
        ..UnfoldConfig::default()
    }
}

/// Grows a fresh handle to the model's natural end, fault-free.
fn uninterrupted(model: &pak::protocol::model::TableModel<Rational>) -> Pps<SimpleState, Rational> {
    let mut u = Unfolder::new(model, base_unfold()).unwrap();
    while u.extend_horizon().unwrap() {}
    u.pps().clone()
}

/// The unfold-layer sweep: both tree-growth sites × 50 seeds each, with
/// seed-derived Error/Cancel faults. Every faulted extension must roll
/// back atomically, and the retried growth must be bit-identical to an
/// uninterrupted unfold.
#[test]
fn unfold_faults_roll_back_and_retry_bit_identically() {
    let _serial = chaos_lock();
    for site in ["unfold.expand", "extend.level"] {
        let mut fired_total = 0;
        for seed in 0..50u64 {
            let model = random_model::<Rational>(seed, &cfg(seed));
            let reference = uninterrupted(&model);
            let mut u = Unfolder::new(&model, base_unfold()).unwrap();
            let guard = failpoint::install(FailPlan::from_seed_no_panic(site, seed));
            let mut faults = 0;
            loop {
                let before = u.pps().clone();
                let horizon_before = u.horizon();
                match u.extend_horizon() {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => {
                        assert!(
                            matches!(
                                e,
                                UnfoldError::Cancelled | UnfoldError::BadModelDistribution { .. }
                            ),
                            "site {site} seed {seed}: unexpected fault surface {e:?}"
                        );
                        assert_eq!(u.horizon(), horizon_before, "abort must not advance");
                        common::assert_identical_systems(
                            &before,
                            u.pps(),
                            &format!("site {site} seed {seed}: abort must roll back"),
                        );
                        faults += 1;
                        assert!(
                            faults < 64,
                            "site {site} seed {seed}: fault storm never ends"
                        );
                    }
                }
            }
            fired_total += failpoint::fired(site);
            drop(guard);
            // The handle survived the faults; finish growing fault-free.
            while u.extend_horizon().unwrap() {}
            let ctx = format!("site {site} seed {seed}: retry must match uninterrupted growth");
            common::assert_identical_systems(&reference, u.pps(), &ctx);
            let rebuilt = common::rebuild_through_builder(u.pps());
            common::assert_identical_systems(&rebuilt, u.pps(), &ctx);
        }
        assert!(fired_total > 0, "site {site} never fired across the sweep");
    }
}

/// The rollback property, mid-level: cancel while *inside* a level
/// (later frontier nodes of the same extension), which exercises the
/// real `abort_level` + node-rollback path rather than the cheap
/// before-the-level bail-out.
#[test]
fn mid_level_abort_is_atomic_and_retry_matches() {
    let _serial = chaos_lock();
    let mut cancelled_seen = 0;
    for seed in [3u64, 11, 29, 41] {
        let model = random_model::<Rational>(seed, &cfg(seed));
        let reference = uninterrupted(&model);
        for hit in 1..5u64 {
            let mut u = Unfolder::new(&model, base_unfold()).unwrap();
            let guard =
                failpoint::install(FailPlan::new().fail_at("unfold.expand", hit, Fault::Cancel));
            loop {
                let before = u.pps().clone();
                match u.extend_horizon() {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(UnfoldError::Cancelled) => {
                        cancelled_seen += 1;
                        common::assert_identical_systems(
                            &before,
                            u.pps(),
                            &format!("seed {seed} hit {hit}: mid-level abort must be atomic"),
                        );
                    }
                    Err(e) => panic!("seed {seed} hit {hit}: unexpected error {e:?}"),
                }
            }
            drop(guard);
            while u.extend_horizon().unwrap() {}
            common::assert_identical_systems(
                &reference,
                u.pps(),
                &format!("seed {seed} hit {hit}: retry must match uninterrupted growth"),
            );
        }
    }
    assert!(cancelled_seen > 0, "no mid-level cancellation ever landed");
}

fn eval_formulas() -> Vec<Formula<SimpleState, Rational>> {
    let even = || {
        Formula::atom(StateFact::new("env even", |g: &SimpleState| {
            g.env.is_multiple_of(2)
        }))
    };
    vec![
        even().eventually(),
        Formula::knows(AgentId(0), even()),
        even().not().always(),
        Formula::believes_at_least(AgentId(0), even(), Rational::from_ratio(1, 2))
            .implies(even().eventually()),
        even().and(Formula::knows(AgentId(0), even().not()).not()),
    ]
}

/// The evaluator sweep: cancellation at subformula boundaries × 50
/// seeds. A cancelled batch keeps its completed truth tables memoized,
/// so the retry on the *same* evaluator is bit-identical to a fresh
/// fault-free evaluation.
#[test]
fn eval_cancellation_resumes_bit_identically() {
    let _serial = chaos_lock();
    let model = random_model::<Rational>(7, &cfg(7));
    let tree = uninterrupted(&model);
    let formulas = eval_formulas();
    let expected: Vec<Verdict> = Evaluator::new(&tree).evaluate_batch(&formulas);
    let token = CancelToken::new();
    let mut interrupted = 0;
    for seed in 0..50u64 {
        let mut ev = Evaluator::new(&tree);
        let guard = failpoint::install(FailPlan::from_seed_no_panic("eval.subformula", seed));
        let first = ev.evaluate_batch_with(&formulas, &token);
        drop(guard);
        if first.is_err() {
            interrupted += 1;
        }
        let retry = ev
            .evaluate_batch_with(&formulas, &token)
            .expect("fault-free retry cannot be cancelled");
        assert_eq!(
            retry, expected,
            "seed {seed}: resumed verdicts must match a fault-free evaluation"
        );
    }
    assert!(
        interrupted > 0,
        "eval.subformula never fired across the sweep"
    );
}

/// The cache sweep: a faulted insert is skipped silently — queries stay
/// correct (the tree is simply rebuilt), nothing panics, and once the
/// plan is gone the cache fills as normal with identical trees.
#[test]
fn cache_insert_faults_skip_silently() {
    let _serial = chaos_lock();
    let model = random_model::<Rational>(5, &cfg(5));
    let cache = PpsCache::new();
    let mut cu = CachedUnfolder::new(&model, UnfoldConfig::default()).unwrap();
    let guard = failpoint::install(FailPlan::new().fail_every("cache.insert", 1, Fault::Error));
    let faulted = cu.pps_at(&cache, 2).unwrap();
    assert_eq!(cache.len(), 0, "faulted insert must be skipped");
    assert!(failpoint::fired("cache.insert") > 0);
    drop(guard);
    let clean = cu.pps_at(&cache, 2).unwrap();
    assert_eq!(cache.len(), 1, "fault-free insert must land");
    common::assert_identical_systems(
        &faulted,
        &clean,
        "a skipped insert must not change query results",
    );
}

/// The server sweep: 50 seeds of worker faults — including injected
/// panics — against a single-worker service. The worker must contain
/// every panic (answering `WorkerPanicked`, discarding only its own
/// session), keep serving afterwards, and every accepted request must
/// be answered exactly once (conservation across the summary buckets).
#[test]
fn worker_survives_fault_storms_and_keeps_serving() {
    let _serial = chaos_lock();
    let model = Arc::new(pak::protocol::model::CoinModel {
        heads_num: 3,
        heads_den: 4,
    });
    let probe = || Query::Verdicts {
        horizon: 1,
        formulas: vec![
            Formula::<_, f64>::does(AgentId(0), pak::protocol::model::COIN_ACT).eventually(),
        ],
    };
    let expected = {
        let server = PakServer::<_, f64>::start(Arc::clone(&model), ServerConfig::default());
        let answer = server.submit(probe()).unwrap().wait().unwrap();
        assert_eq!(server.shutdown().served, 1);
        answer
    };
    let mut panics_seen = 0;
    let mut fired_total = 0;
    for seed in 0..50u64 {
        let server = PakServer::<_, f64>::start(
            Arc::clone(&model),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let guard = failpoint::install(FailPlan::from_seed("server.worker", seed));
        let tickets: Vec<_> = (0..10)
            .map(|_| server.submit(probe()).expect("queue is large enough"))
            .collect();
        let mut results = Vec::new();
        for t in tickets {
            results.push(t.wait());
        }
        fired_total += failpoint::fired("server.worker");
        drop(guard);
        for r in &results {
            match r {
                Ok(a) => assert_eq!(a, &expected, "seed {seed}: served answers must be exact"),
                Err(ServiceError::WorkerPanicked) => panics_seen += 1,
                Err(ServiceError::DeadlineExceeded) => {} // injected Cancel
                Err(e) => panic!("seed {seed}: unexpected service error {e:?}"),
            }
        }
        // The storm is over; the same worker (or its replacement
        // session) must still answer correctly.
        let after = server.submit(probe()).unwrap().wait().unwrap();
        assert_eq!(after, expected, "seed {seed}: server must recover");
        let summary = server.shutdown();
        assert_eq!(summary.accepted, 11, "seed {seed}");
        assert_eq!(
            summary.accepted,
            summary.served
                + summary.deadline_exceeded
                + summary.worker_panics
                + summary.unfold_errors,
            "seed {seed}: every accepted request lands in exactly one bucket: {summary:?}"
        );
    }
    assert!(
        fired_total > 0,
        "server.worker never fired across the sweep"
    );
    assert!(panics_seen > 0, "no injected panic was ever delivered");
}

/// Every declared failpoint site is exercised somewhere in this binary:
/// the registry's site list and the sweeps above must not drift apart.
#[test]
fn all_sites_are_covered_by_this_suite() {
    let covered = [
        "unfold.expand",
        "extend.level",
        "eval.subformula",
        "cache.insert",
        "server.worker",
    ];
    assert_eq!(SITES, &covered, "new sites need chaos coverage here");
}
