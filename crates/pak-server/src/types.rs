//! Request, response, error, and configuration types of the service.

use std::time::Duration;

use pak_core::ids::{AgentId, Time};
use pak_core::prob::Probability;
use pak_core::state::GlobalState;
use pak_engine::{CacheBudget, CacheStats, Verdict};
use pak_logic::Formula;
use pak_protocol::unfold::{UnfoldConfig, UnfoldError};

/// How the service is provisioned: worker count, queue bound, default
/// latency budget, unfold limits, cache budget, and the optional
/// Monte-Carlo fallback tier.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving requests (at least one).
    pub workers: usize,
    /// Bound on queued (accepted but unstarted) requests; a full queue
    /// rejects with [`ServiceError::Overloaded`] instead of growing.
    pub queue_capacity: usize,
    /// Latency budget applied to every request that does not carry its
    /// own; `None` means requests run without a deadline by default.
    pub default_deadline: Option<Duration>,
    /// Limits for every unfold the service performs (`max_nodes`,
    /// `max_depth`; the `horizon` field is ignored — horizons come per
    /// query).
    pub unfold: UnfoldConfig,
    /// Eviction budget for the service's tree cache.
    pub cache: CacheBudget,
    /// When set, deadline-blown *measure* queries over epistemic-free
    /// formulas degrade to a Monte-Carlo estimate instead of failing.
    pub fallback: Option<FallbackConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: None,
            unfold: UnfoldConfig::default(),
            cache: CacheBudget::default(),
            fallback: None,
        }
    }
}

/// The Monte-Carlo degradation tier's provisioning (see
/// [`pak_sim::approx`]).
#[derive(Debug, Clone, Copy)]
pub struct FallbackConfig {
    /// Trials per degraded query. The fallback runs to completion on a
    /// *fresh* budget — by the time it starts, the deadline has already
    /// been spent on the exact attempt — so this bounds its latency.
    pub trials: u64,
    /// Base RNG seed; degraded answers are deterministic per seed.
    pub seed: u64,
    /// The z-score of the reported confidence interval (2.576 ≈ 99%).
    pub z: f64,
}

impl Default for FallbackConfig {
    fn default() -> Self {
        FallbackConfig {
            trials: 4000,
            seed: 0x5EED,
            z: 2.576,
        }
    }
}

/// One unit of work: which tree to serve and what to compute on it.
#[derive(Debug, Clone)]
pub enum Query<G: GlobalState, P: Probability> {
    /// Batched verdicts for `formulas` against the tree at `horizon`.
    Verdicts {
        /// Horizon to unfold (or fetch from cache).
        horizon: Time,
        /// The formulas to evaluate, as one shared-subformula batch.
        formulas: Vec<Formula<G, P>>,
    },
    /// The measure `µ_T({r : (r, time) |= ϕ})` against the tree at
    /// `horizon` — the query shape that can degrade to the Monte-Carlo
    /// tier under deadline pressure.
    Measure {
        /// Horizon to unfold (or fetch from cache).
        horizon: Time,
        /// The time at which to measure.
        time: Time,
        /// The formula whose measure is taken.
        formula: Formula<G, P>,
    },
}

impl<G: GlobalState, P: Probability> Query<G, P> {
    /// The formulas the query evaluates.
    pub(crate) fn formulas(&self) -> &[Formula<G, P>] {
        match self {
            Query::Verdicts { formulas, .. } => formulas,
            Query::Measure { formula, .. } => core::slice::from_ref(formula),
        }
    }
}

/// A successful answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer<P: Probability> {
    /// Verdicts for a [`Query::Verdicts`] batch, in formula order.
    Verdicts(Vec<Verdict>),
    /// The exact measure for a [`Query::Measure`].
    Exact(P),
    /// A degraded answer for a [`Query::Measure`] whose exact
    /// evaluation blew its deadline: a Monte-Carlo point estimate with
    /// a Wilson confidence interval at the configured z.
    Approximate {
        /// The point estimate of the measure.
        estimate: f64,
        /// Lower Wilson bound.
        ci_low: f64,
        /// Upper Wilson bound.
        ci_high: f64,
        /// Trials behind the estimate.
        trials: u64,
    },
}

/// Why a request was not answered.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The bounded queue was full at submission; nothing was enqueued.
    /// Back off and resubmit.
    Overloaded,
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// A `K` or `B` operator of the query names an agent the model lacks;
    /// nothing was enqueued.
    UnknownAgent {
        /// The first such agent, depth first through the query's formulas.
        agent: AgentId,
        /// How many agents the model has.
        n_agents: u32,
    },
    /// The request's deadline passed before an exact answer was ready
    /// and no degradation applied (verdict queries, epistemic formulas,
    /// or no fallback tier configured).
    DeadlineExceeded,
    /// The worker processing this request panicked. The worker itself
    /// survives (panic isolation) with a fresh session; resubmitting is
    /// safe.
    WorkerPanicked,
    /// Unfolding the requested tree failed (size caps, model errors).
    Unfold(UnfoldError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded => write!(f, "work queue is full; request rejected"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::UnknownAgent { agent, n_agents } => write!(
                f,
                "formula names agent {} but the model has {n_agents} agent(s)",
                agent.0
            ),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::WorkerPanicked => write!(f, "worker panicked while serving the request"),
            ServiceError::Unfold(e) => write!(f, "unfold failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Unfold(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UnfoldError> for ServiceError {
    fn from(e: UnfoldError) -> Self {
        match e {
            UnfoldError::Cancelled => ServiceError::DeadlineExceeded,
            other => ServiceError::Unfold(other),
        }
    }
}

/// What the service did over its lifetime, reported by
/// [`PakServer::shutdown`](crate::PakServer::shutdown) after the drain.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShutdownSummary {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests answered successfully (exact or degraded).
    pub served: u64,
    /// Submissions rejected with [`ServiceError::Overloaded`] or
    /// [`ServiceError::UnknownAgent`].
    pub rejected: u64,
    /// Served requests that degraded to the Monte-Carlo tier.
    pub degraded: u64,
    /// Requests that failed with [`ServiceError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Requests that failed with [`ServiceError::WorkerPanicked`].
    pub worker_panics: u64,
    /// Requests that failed with [`ServiceError::Unfold`].
    pub unfold_errors: u64,
    /// The tree cache's counters at shutdown (hits, misses, evictions,
    /// occupancy).
    pub cache: CacheStats,
}
