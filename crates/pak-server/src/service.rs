//! The long-lived query service: bounded queue, panic-isolated workers,
//! deadlines, degradation, graceful shutdown.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use pak_core::cancel::CancelToken;
use pak_core::failpoint::{self, Fault};
use pak_core::ids::Time;
use pak_core::prob::Probability;
use pak_engine::{CacheStats, CachedUnfolder, Evaluator, PpsCache};
use pak_logic::Formula;
use pak_protocol::model::{ModelFingerprint, ProtocolModel};
use pak_protocol::unfold::UnfoldConfig;
use pak_sim::approx::estimate_formula_measure;

use crate::types::{Answer, FallbackConfig, Query, ServerConfig, ServiceError, ShutdownSummary};

/// Lifetime counters shared by the submit path and the workers.
#[derive(Debug, Default)]
struct Stats {
    accepted: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    degraded: AtomicU64,
    deadline_exceeded: AtomicU64,
    worker_panics: AtomicU64,
    unfold_errors: AtomicU64,
}

struct Job<G: pak_core::state::GlobalState, P: Probability> {
    query: Query<G, P>,
    cancel: CancelToken,
    reply: SyncSender<Result<Answer<P>, ServiceError>>,
}

/// A pending request: await the answer with [`Ticket::wait`], or trip
/// the request's token early with [`Ticket::cancel`].
#[derive(Debug)]
pub struct Ticket<P: Probability> {
    rx: Receiver<Result<Answer<P>, ServiceError>>,
    cancel: CancelToken,
}

impl<P: Probability> Ticket<P> {
    /// Blocks until the request completes. Accepted requests are always
    /// answered — workers reply even on panic (panic isolation), and
    /// shutdown drains the queue before joining — so this returns
    /// whatever the worker produced. [`ServiceError::WorkerPanicked`]
    /// is returned if the serving worker died so hard its reply never
    /// arrived (only reachable through fault injection).
    pub fn wait(self) -> Result<Answer<P>, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::WorkerPanicked))
    }

    /// Trips this request's cancellation token: the worker abandons it
    /// at the next level/subformula boundary and answers
    /// [`ServiceError::DeadlineExceeded`] (or degrades, for measure
    /// queries with a fallback tier).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }
}

/// A fault-tolerant epistemic query service over one protocol model.
///
/// `PakServer::start` spawns `workers` threads sharing one bounded
/// queue and one [`PpsCache`]. Each worker retains its own
/// [`CachedUnfolder`] session, so horizon-by-horizon growth is
/// incremental per worker while finished trees are shared through the
/// cache. The robustness contract:
///
/// - **Admission control**: a full queue rejects at submission with
///   [`ServiceError::Overloaded`]; nothing is silently dropped later.
/// - **Deadlines**: each request carries a [`CancelToken`]; the hot
///   paths poll it at level and subformula boundaries, and a trip
///   surfaces as [`ServiceError::DeadlineExceeded`] — or, for measure
///   queries over epistemic-free formulas with a
///   [`FallbackConfig`], as a degraded [`Answer::Approximate`].
/// - **Panic isolation**: a panic while serving a request is caught,
///   answered as [`ServiceError::WorkerPanicked`], and the worker
///   discards its session (the shared cache survives) and keeps
///   serving.
/// - **Graceful shutdown**: [`PakServer::shutdown`] stops accepting,
///   then drains every accepted request before joining the workers and
///   reporting a [`ShutdownSummary`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pak_server::{PakServer, Query, Answer, ServerConfig};
/// use pak_protocol::model::{CoinModel, COIN_ACT};
/// use pak_logic::Formula;
/// use pak_core::ids::AgentId;
///
/// let model = Arc::new(CoinModel { heads_num: 3, heads_den: 4 });
/// let server = PakServer::<_, f64>::start(model, ServerConfig::default());
/// let ticket = server
///     .submit(Query::Verdicts {
///         horizon: 1,
///         formulas: vec![Formula::does(AgentId(0), COIN_ACT).eventually()],
///     })
///     .unwrap();
/// match ticket.wait().unwrap() {
///     Answer::Verdicts(v) => assert!(v[0].satisfiable),
///     other => panic!("unexpected answer {other:?}"),
/// }
/// let summary = server.shutdown();
/// assert_eq!(summary.served, 1);
/// ```
pub struct PakServer<M, P>
where
    M: ProtocolModel<P> + ModelFingerprint + Send + Sync + 'static,
    P: Probability + Send + Sync,
{
    tx: Option<SyncSender<Job<M::Global, P>>>,
    workers: Vec<JoinHandle<()>>,
    cache: Arc<PpsCache<M::Global, P>>,
    stats: Arc<Stats>,
    accepting: Arc<AtomicBool>,
    default_deadline: Option<Duration>,
    n_agents: u32,
}

impl<M, P> PakServer<M, P>
where
    M: ProtocolModel<P> + ModelFingerprint + Send + Sync + 'static,
    P: Probability + Send + Sync,
{
    /// Starts the service: spawns the worker pool and returns the
    /// submission handle. `config.workers` is clamped to at least one.
    #[must_use]
    pub fn start(model: Arc<M>, config: ServerConfig) -> Self {
        let n_agents = model.n_agents();
        let n_workers = config.workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job<M::Global, P>>(config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let cache = Arc::new(PpsCache::with_budget(config.cache));
        let stats = Arc::new(Stats::default());
        let accepting = Arc::new(AtomicBool::new(true));
        let workers = (0..n_workers)
            .map(|_| {
                let model = Arc::clone(&model);
                let cache = Arc::clone(&cache);
                let rx = Arc::clone(&rx);
                let stats = Arc::clone(&stats);
                let unfold = config.unfold.clone();
                let fallback = config.fallback;
                std::thread::spawn(move || {
                    worker_loop(&model, &cache, &rx, &stats, &unfold, fallback)
                })
            })
            .collect();
        PakServer {
            tx: Some(tx),
            workers,
            cache,
            stats,
            accepting,
            default_deadline: config.default_deadline,
            n_agents,
        }
    }

    /// Submits a query under the configured default deadline.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when the queue is full (nothing was
    /// enqueued; resubmitting later is safe),
    /// [`ServiceError::UnknownAgent`] when a `K` or `B` operator names an
    /// agent the model lacks (nothing was enqueued), or
    /// [`ServiceError::ShuttingDown`] after [`PakServer::shutdown`] has
    /// begun.
    pub fn submit(&self, query: Query<M::Global, P>) -> Result<Ticket<P>, ServiceError> {
        self.submit_with_deadline(query, self.default_deadline)
    }

    /// Submits a query with an explicit latency budget (overriding the
    /// configured default; `None` removes the deadline entirely).
    ///
    /// # Errors
    ///
    /// As [`PakServer::submit`].
    pub fn submit_with_deadline(
        &self,
        query: Query<M::Global, P>,
        deadline: Option<Duration>,
    ) -> Result<Ticket<P>, ServiceError> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        // The engine indexes cells by agent, so a missing agent would
        // panic the worker and cost it its session: refuse at the door.
        let n_agents = self.n_agents;
        if let Some(agent) = query
            .formulas()
            .iter()
            .find_map(|f| f.agent_outside(n_agents))
        {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::UnknownAgent { agent, n_agents });
        }
        let cancel = deadline.map_or_else(CancelToken::new, CancelToken::with_deadline);
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job {
            query,
            cancel: cancel.clone(),
            reply: reply_tx,
        };
        let tx = self.tx.as_ref().expect("sender alive until shutdown");
        match tx.try_send(job) {
            Ok(()) => {
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(Ticket {
                    rx: reply_rx,
                    cancel,
                })
            }
            Err(TrySendError::Full(_)) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServiceError::ShuttingDown),
        }
    }

    /// A live snapshot of the shared tree cache's counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A live snapshot of the lifetime counters (the same numbers a
    /// [`ShutdownSummary`] reports, plus the current cache stats).
    #[must_use]
    pub fn summary(&self) -> ShutdownSummary {
        ShutdownSummary {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            served: self.stats.served.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            degraded: self.stats.degraded.load(Ordering::Relaxed),
            deadline_exceeded: self.stats.deadline_exceeded.load(Ordering::Relaxed),
            worker_panics: self.stats.worker_panics.load(Ordering::Relaxed),
            unfold_errors: self.stats.unfold_errors.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// Gracefully shuts the service down: stops accepting, lets the
    /// workers drain every accepted request (their answers stay
    /// retrievable through the outstanding [`Ticket`]s), joins the
    /// pool, and reports what happened.
    #[must_use]
    pub fn shutdown(mut self) -> ShutdownSummary {
        self.stop_and_join();
        self.summary()
    }

    fn stop_and_join(&mut self) {
        self.accepting.store(false, Ordering::Release);
        // Dropping the sender is the drain signal: workers keep
        // receiving queued jobs until the channel reports empty-and-
        // disconnected, then exit their loops.
        self.tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<M, P> Drop for PakServer<M, P>
where
    M: ProtocolModel<P> + ModelFingerprint + Send + Sync + 'static,
    P: Probability + Send + Sync,
{
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn worker_loop<M, P>(
    model: &Arc<M>,
    cache: &PpsCache<M::Global, P>,
    rx: &Mutex<Receiver<Job<M::Global, P>>>,
    stats: &Stats,
    unfold: &UnfoldConfig,
    fallback: Option<FallbackConfig>,
) where
    M: ProtocolModel<P> + ModelFingerprint + Send + Sync,
    P: Probability + Send + Sync,
{
    let model_ref: &M = model;
    // The worker's incremental-unfold session. `None` until first used,
    // and reset to `None` after a caught panic: a half-poisoned handle
    // is discarded wholesale while the shared cache (only ever holding
    // fully validated snapshots) keeps serving.
    let mut session: Option<CachedUnfolder<'_, M, P>> = None;
    loop {
        let msg = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
            // The queue lock is released before the job runs, so other
            // workers keep pulling while this one computes.
        };
        let Ok(job) = msg else { break };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match failpoint::check("server.worker") {
                None | Some(Fault::Error) => {}
                Some(Fault::Cancel) => job.cancel.cancel(),
                Some(Fault::Panic) => panic!("failpoint server.worker: injected panic"),
            }
            handle_job(
                model_ref,
                &mut session,
                cache,
                unfold,
                fallback.as_ref(),
                &job,
            )
        }));
        let result = match outcome {
            Ok(r) => r,
            Err(_) => {
                session = None;
                Err(ServiceError::WorkerPanicked)
            }
        };
        match &result {
            Ok(Answer::Approximate { .. }) => {
                stats.served.fetch_add(1, Ordering::Relaxed);
                stats.degraded.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {
                stats.served.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServiceError::DeadlineExceeded) => {
                stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServiceError::WorkerPanicked) => {
                stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServiceError::Unfold(_)) => {
                stats.unfold_errors.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
        // A submitter that dropped its ticket makes this send fail;
        // that is their prerogative, not an error.
        let _ = job.reply.send(result);
    }
}

fn handle_job<'m, M, P>(
    model: &'m M,
    session: &mut Option<CachedUnfolder<'m, M, P>>,
    cache: &PpsCache<M::Global, P>,
    unfold: &UnfoldConfig,
    fallback: Option<&FallbackConfig>,
    job: &Job<M::Global, P>,
) -> Result<Answer<P>, ServiceError>
where
    M: ProtocolModel<P> + ModelFingerprint,
    P: Probability,
{
    if session.is_none() {
        *session = Some(CachedUnfolder::new(model, unfold.clone())?);
    }
    let sess = session.as_mut().expect("session just initialised");
    match &job.query {
        Query::Verdicts { horizon, formulas } => {
            let tree = sess.pps_at_with(cache, *horizon, &job.cancel)?;
            let mut ev = Evaluator::new(&tree);
            ev.evaluate_batch_with(formulas, &job.cancel)
                .map(Answer::Verdicts)
                .map_err(|_| ServiceError::DeadlineExceeded)
        }
        Query::Measure {
            horizon,
            time,
            formula,
        } => {
            let exact = sess
                .pps_at_with(cache, *horizon, &job.cancel)
                .map_err(ServiceError::from)
                .and_then(|tree| {
                    let mut ev = Evaluator::new(&tree);
                    ev.measure_at_time_with(formula, *time, &job.cancel)
                        .map_err(|_| ServiceError::DeadlineExceeded)
                });
            match exact {
                Ok(p) => Ok(Answer::Exact(p)),
                Err(ServiceError::DeadlineExceeded) => degrade(model, fallback, formula, *time),
                Err(e) => Err(e),
            }
        }
    }
}

/// The degradation path: a deadline-blown measure query falls back to
/// the Monte-Carlo tier on a fresh (trial-bounded) budget. Epistemic
/// formulas cannot degrade soundly and keep the deadline error.
fn degrade<M, P>(
    model: &M,
    fallback: Option<&FallbackConfig>,
    formula: &Formula<M::Global, P>,
    time: Time,
) -> Result<Answer<P>, ServiceError>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    let Some(fb) = fallback else {
        return Err(ServiceError::DeadlineExceeded);
    };
    match estimate_formula_measure(model, fb.seed, fb.trials, formula, time) {
        Ok(est) => {
            let (ci_low, ci_high) = est.proportion.wilson(fb.z);
            Ok(Answer::Approximate {
                estimate: est.proportion.point(),
                ci_low,
                ci_high,
                trials: est.proportion.trials,
            })
        }
        Err(_) => Err(ServiceError::DeadlineExceeded),
    }
}
