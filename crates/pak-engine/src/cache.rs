//! The shared-tree cache: `Arc`-immutable [`Pps`] trees keyed by
//! `(model fingerprint, horizon)`, with LRU + memory-budget eviction.
//!
//! The query service's unit of work is "evaluate formulas against model
//! `M` unfolded to horizon `h`". Unfolding dominates, so [`PpsCache`]
//! keeps finished trees behind `Arc`s for concurrent readers, and
//! [`CachedUnfolder`] fills misses *incrementally*: it retains PR 6's
//! [`Unfolder`] handle, so serving horizon `h` and then `h + 1` grows the
//! existing tree by one level ([`Unfolder::extend_horizon`]) instead of
//! re-unfolding from scratch — the horizon-`h` work seeds `h + 1`.
//!
//! Cache keys come from [`ModelFingerprint`]: a structural digest whose
//! equality must imply identical unfoldings, so two sessions over equal
//! models share trees. DSL adversary variants carry a `variant_tag` in
//! their `TableModel`, so a variant never aliases its base protocol even
//! when their tables coincide.
//!
//! Eviction is least-recently-used, driven by an optional
//! [`CacheBudget`] (entry count and/or a byte budget over
//! [`Pps::memory_footprint`]). Eviction only drops the cache's own
//! `Arc`: readers holding a tree keep it alive — an evicted tree is
//! never invalidated under an in-flight query.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pak_core::cancel::CancelToken;
use pak_core::failpoint::{self, Fault};
use pak_core::hash::{Fingerprint, FxBuildHasher};
use pak_core::ids::Time;
use pak_core::pps::Pps;
use pak_core::prob::Probability;
use pak_core::state::GlobalState;
use pak_protocol::model::{ModelFingerprint, ProtocolModel};
use pak_protocol::unfold::{UnfoldConfig, UnfoldError, Unfolder};

/// Optional bounds driving [`PpsCache`] eviction. The default is
/// unbounded (no eviction), matching the pre-eviction cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheBudget {
    /// Evict down to at most this many cached trees.
    pub max_entries: Option<usize>,
    /// Evict until the summed [`Pps::memory_footprint`] of cached trees
    /// is at most this many bytes. The most recently inserted tree is
    /// never evicted, so a single tree larger than the budget stays
    /// cached alone rather than thrashing.
    pub max_bytes: Option<usize>,
}

/// A point-in-time snapshot of a [`PpsCache`]'s observable behaviour —
/// the service reports one in its shutdown summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// How many [`PpsCache::get`] calls found their tree.
    pub hits: u64,
    /// How many [`PpsCache::get`] calls missed.
    pub misses: u64,
    /// How many trees the budget has evicted so far.
    pub evictions: u64,
    /// Trees currently cached.
    pub entries: usize,
    /// Summed [`Pps::memory_footprint`] of the current entries.
    pub bytes: usize,
}

struct Entry<G: GlobalState, P: Probability> {
    pps: Arc<Pps<G, P>>,
    bytes: usize,
    /// Logical LRU clock value of the last get/insert touch.
    last_use: u64,
}

struct Inner<G: GlobalState, P: Probability> {
    map: HashMap<(Fingerprint, Time), Entry<G, P>, FxBuildHasher>,
    tick: u64,
    total_bytes: usize,
}

/// A concurrent cache of immutable unfolded trees.
///
/// Lookups clone an `Arc` out under a brief mutex; the trees themselves
/// are never locked (everything in a [`Pps`] is `Send + Sync`), so any
/// number of evaluators can read one cached tree at once. Hit/miss/
/// eviction counters ([`PpsCache::stats`]) make cache behaviour
/// observable in tests and services.
///
/// [`PpsCache::new`] is unbounded; [`PpsCache::with_budget`] enables
/// LRU eviction against a [`CacheBudget`].
///
/// # Examples
///
/// ```
/// use pak_engine::{CachedUnfolder, PpsCache};
/// use pak_protocol::model::CoinModel;
/// use pak_protocol::unfold::UnfoldConfig;
/// use pak_num::Rational;
///
/// let cache = PpsCache::new();
/// let model = CoinModel { heads_num: 1, heads_den: 2 };
/// let mut session = CachedUnfolder::<_, Rational>::new(&model, UnfoldConfig::default())?;
/// let t1 = session.pps_at(&cache, 1)?;          // miss: unfolds
/// let t1_again = session.pps_at(&cache, 1)?;    // hit: same Arc
/// assert!(std::sync::Arc::ptr_eq(&t1, &t1_again));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// # Ok::<(), pak_protocol::unfold::UnfoldError>(())
/// ```
pub struct PpsCache<G: GlobalState, P: Probability> {
    inner: Mutex<Inner<G, P>>,
    budget: CacheBudget,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<G: GlobalState, P: Probability> Default for PpsCache<G, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<G: GlobalState, P: Probability> PpsCache<G, P> {
    /// An empty, unbounded cache (nothing is ever evicted).
    #[must_use]
    pub fn new() -> Self {
        Self::with_budget(CacheBudget::default())
    }

    /// An empty cache that evicts least-recently-used trees whenever
    /// `budget` is exceeded after an insert.
    #[must_use]
    pub fn with_budget(budget: CacheBudget) -> Self {
        PpsCache {
            inner: Mutex::new(Inner {
                map: HashMap::default(),
                tick: 0,
                total_bytes: 0,
            }),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The budget this cache evicts against.
    #[must_use]
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// Looks up the tree for `(fingerprint, horizon)`, counting a hit or
    /// miss. A hit refreshes the entry's LRU position.
    #[must_use]
    pub fn get(&self, fingerprint: Fingerprint, horizon: Time) -> Option<Arc<Pps<G, P>>> {
        let mut inner = self.inner.lock().expect("pps cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.map.get_mut(&(fingerprint, horizon)).map(|entry| {
            entry.last_use = tick;
            Arc::clone(&entry.pps)
        });
        drop(inner);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a tree under `(fingerprint, horizon)`, replacing any
    /// previous entry, then evicts least-recently-used entries (never
    /// the one just inserted) until the budget is respected again.
    ///
    /// Carries the `cache.insert` failpoint: an injected `Error` or
    /// `Cancel` fault silently skips the insert — the degraded mode a
    /// service sheds load into — and `Panic` panics.
    pub fn insert(&self, fingerprint: Fingerprint, horizon: Time, pps: Arc<Pps<G, P>>) {
        match failpoint::check("cache.insert") {
            None => {}
            Some(Fault::Error | Fault::Cancel) => return,
            Some(Fault::Panic) => panic!("failpoint cache.insert: injected panic"),
        }
        let bytes = pps.memory_footprint();
        let key = (fingerprint, horizon);
        let mut inner = self.inner.lock().expect("pps cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(
            key,
            Entry {
                pps,
                bytes,
                last_use: tick,
            },
        ) {
            inner.total_bytes -= old.bytes;
        }
        inner.total_bytes += bytes;
        let evicted = self.evict_over_budget(&mut inner, key);
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Drops LRU entries (excluding `protect`) until the budget holds.
    /// Returns how many entries were evicted.
    fn evict_over_budget(&self, inner: &mut Inner<G, P>, protect: (Fingerprint, Time)) -> u64 {
        let over = |inner: &Inner<G, P>| {
            self.budget.max_entries.is_some_and(|m| inner.map.len() > m)
                || self.budget.max_bytes.is_some_and(|m| inner.total_bytes > m)
        };
        let mut evicted = 0;
        while over(inner) {
            let victim = inner
                .map
                .iter()
                .filter(|(key, _)| **key != protect)
                .min_by_key(|(_, entry)| entry.last_use)
                .map(|(key, _)| *key);
            let Some(victim) = victim else { break };
            if let Some(entry) = inner.map.remove(&victim) {
                inner.total_bytes -= entry.bytes;
                evicted += 1;
            }
        }
        evicted
    }

    /// The number of cached trees.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("pps cache poisoned").map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached tree (readers holding `Arc`s are unaffected).
    /// Counters keep accumulating across a clear.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("pps cache poisoned");
        inner.map.clear();
        inner.total_bytes = 0;
    }

    /// How many [`PpsCache::get`] calls found their tree.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// How many [`PpsCache::get`] calls missed.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// How many trees the budget has evicted so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Summed [`Pps::memory_footprint`] of the current entries.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.inner.lock().expect("pps cache poisoned").total_bytes
    }

    /// A consistent snapshot of the cache's counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("pps cache poisoned");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.total_bytes,
        }
    }
}

/// A cache-filling unfold session for one model: retains an [`Unfolder`]
/// handle so successive horizons are served by *growing* the previous
/// tree, not rebuilding it.
///
/// The handle is the seed: after `pps_at(cache, h)`, the internal tree
/// stands at horizon `h`, so `pps_at(cache, h + 1)` costs one
/// [`Unfolder::extend_horizon`] level. Snapshots handed to the cache are
/// `Arc`-wrapped clones, immutable by construction — later growth of the
/// handle never mutates a served tree. If a *shallower* horizon than the
/// handle's is requested on a cache miss, it is grown afresh from the
/// prior by the same level step (the handle cannot shrink), so both
/// routes produce the same tree.
pub struct CachedUnfolder<'m, M: ProtocolModel<P>, P: Probability> {
    unfolder: Unfolder<'m, M, P>,
    config: UnfoldConfig,
    model: &'m M,
    fingerprint: Fingerprint,
}

impl<'m, M, P> CachedUnfolder<'m, M, P>
where
    M: ProtocolModel<P> + ModelFingerprint,
    P: Probability,
{
    /// Opens a session on `model`. `config` governs every unfold the
    /// session performs (`max_nodes`, `max_depth`); its `horizon` field is
    /// ignored — horizons come per [`CachedUnfolder::pps_at`] call.
    ///
    /// # Errors
    ///
    /// See [`UnfoldError`] (the initial-states level is built here).
    pub fn new(model: &'m M, config: UnfoldConfig) -> Result<Self, UnfoldError> {
        let fingerprint = model.fingerprint();
        let start = UnfoldConfig {
            horizon: Some(0),
            ..config.clone()
        };
        Ok(CachedUnfolder {
            unfolder: Unfolder::new(model, start)?,
            config,
            model,
            fingerprint,
        })
    }

    /// The model's cache key.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The horizon the retained tree currently stands at.
    #[must_use]
    pub fn horizon(&self) -> Time {
        self.unfolder.horizon()
    }

    /// The tree for `horizon`: a cache hit returns the shared `Arc`; a
    /// miss grows the retained handle level by level up to `horizon`
    /// (stopping early if every path terminates first), snapshots the
    /// result into the cache, and returns it.
    ///
    /// # Errors
    ///
    /// See [`UnfoldError`] — size caps and model mishaps surface here; a
    /// failed growth step leaves the handle valid at its previous horizon
    /// (the [`Unfolder`] rollback contract).
    pub fn pps_at(
        &mut self,
        cache: &PpsCache<M::Global, P>,
        horizon: Time,
    ) -> Result<Arc<Pps<M::Global, P>>, UnfoldError> {
        self.pps_at_with(cache, horizon, &CancelToken::new())
    }

    /// As [`CachedUnfolder::pps_at`], polling `cancel` at every level
    /// boundary (and per frontier node) of the growth.
    ///
    /// # Errors
    ///
    /// As [`CachedUnfolder::pps_at`], plus [`UnfoldError::Cancelled`]
    /// when the token trips. On cancellation the handle stays valid at
    /// the last fully committed horizon, and that prefix is *kept*: a
    /// retry resumes from it rather than starting over.
    pub fn pps_at_with(
        &mut self,
        cache: &PpsCache<M::Global, P>,
        horizon: Time,
        cancel: &CancelToken,
    ) -> Result<Arc<Pps<M::Global, P>>, UnfoldError> {
        if let Some(hit) = cache.get(self.fingerprint, horizon) {
            return Ok(hit);
        }
        let snapshot = if self.unfolder.horizon() > horizon {
            // The handle has already grown past this horizon; a fresh
            // handle grows the shallower tree from the prior.
            let prior = UnfoldConfig {
                horizon: Some(0),
                ..self.config.clone()
            };
            let mut fresh = Unfolder::new(self.model, prior)?;
            while fresh.horizon() < horizon && fresh.extend_horizon_with(cancel)? {}
            Arc::new(fresh.into_pps())
        } else {
            while self.unfolder.horizon() < horizon && self.unfolder.extend_horizon_with(cancel)? {}
            Arc::new(self.unfolder.pps().clone())
        };
        cache.insert(self.fingerprint, horizon, Arc::clone(&snapshot));
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_core::ids::{ActionId, AgentId};
    use pak_core::state::SimpleState;
    use pak_num::Rational;
    use pak_protocol::generator::{random_model, RandomModelConfig};
    use pak_protocol::model::{CoinModel, TableModel};
    use pak_protocol::unfold::unfold_with;

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

    #[test]
    fn hits_share_and_misses_grow_incrementally() {
        let cache = PpsCache::new();
        let model = random_model::<Rational>(19, &cfg(5));
        let mut session = CachedUnfolder::<_, Rational>::new(&model, UnfoldConfig::default())
            .expect("session opens");
        let t3 = session.pps_at(&cache, 3).expect("unfold to 3");
        assert_eq!(session.horizon(), 3);
        // Growing to 4 extends the same handle; the cached 3-tree is a
        // distinct immutable snapshot.
        let t4 = session.pps_at(&cache, 4).expect("extend to 4");
        assert_eq!(session.horizon(), 4);
        assert_eq!(t3.horizon(), 3);
        assert_eq!(t4.horizon(), 4);
        let t3_again = session.pps_at(&cache, 3).expect("hit");
        assert!(Arc::ptr_eq(&t3, &t3_again));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn grown_snapshots_match_from_scratch_unfolds() {
        let cache = PpsCache::new();
        let model = random_model::<Rational>(23, &cfg(4));
        let mut session = CachedUnfolder::<_, Rational>::new(&model, UnfoldConfig::default())
            .expect("session opens");
        for h in [2u32, 4, 1] {
            let grown = session.pps_at(&cache, h).expect("serve");
            let scratch = unfold_with::<_, Rational>(
                &model,
                &UnfoldConfig {
                    horizon: Some(h),
                    ..UnfoldConfig::default()
                },
            )
            .expect("scratch unfold");
            assert_eq!(grown.num_runs(), scratch.num_runs());
            assert_eq!(grown.num_nodes(), scratch.num_nodes());
            for run in grown.run_ids() {
                assert_eq!(grown.run_probability(run), scratch.run_probability(run));
                assert_eq!(grown.run_len(run), scratch.run_len(run));
            }
            assert_eq!(grown.num_cells(), scratch.num_cells());
        }
    }

    #[test]
    fn requests_past_exhaustion_reuse_the_complete_tree() {
        let cache = PpsCache::new();
        let model = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let mut session = CachedUnfolder::<_, Rational>::new(&model, UnfoldConfig::default())
            .expect("session opens");
        // The coin model terminates at time 1; deeper requests stop early.
        let t9 = session.pps_at(&cache, 9).expect("serve");
        assert_eq!(t9.horizon(), 1);
        assert!(t9.is_proper(AgentId(0), pak_protocol::model::COIN_ACT));
    }

    #[test]
    fn distinct_models_never_share_trees() {
        let cache = PpsCache::new();
        let a = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let b = CoinModel {
            heads_num: 1,
            heads_den: 3,
        };
        let mut sa = CachedUnfolder::<_, Rational>::new(&a, UnfoldConfig::default()).unwrap();
        let mut sb = CachedUnfolder::<_, Rational>::new(&b, UnfoldConfig::default()).unwrap();
        assert_ne!(sa.fingerprint(), sb.fingerprint());
        let ta = sa.pps_at(&cache, 1).unwrap();
        let tb = sb.pps_at(&cache, 1).unwrap();
        assert!(!Arc::ptr_eq(&ta, &tb));
        assert_eq!(cache.len(), 2);
    }

    /// A table model that trips an armed token the first time its
    /// environment resolves a state at time `trip_at`.
    struct TripAt {
        inner: TableModel<Rational>,
        trip_at: Time,
        armed: Mutex<Option<CancelToken>>,
    }

    impl ProtocolModel<Rational> for TripAt {
        type Global = SimpleState;
        type Move = Option<ActionId>;

        fn n_agents(&self) -> u32 {
            ProtocolModel::<Rational>::n_agents(&self.inner)
        }

        fn initial_states(&self) -> Vec<(SimpleState, Rational)> {
            self.inner.initial_states()
        }

        fn is_terminal(&self, state: &SimpleState, time: Time) -> bool {
            ProtocolModel::<Rational>::is_terminal(&self.inner, state, time)
        }

        fn moves(
            &self,
            agent: AgentId,
            local: &u64,
            time: Time,
            out: &mut Vec<(Option<ActionId>, Rational)>,
        ) {
            self.inner.moves(agent, local, time, out);
        }

        fn action_of(&self, mv: &Option<ActionId>) -> Option<ActionId> {
            ProtocolModel::<Rational>::action_of(&self.inner, mv)
        }

        fn transition(
            &self,
            state: &SimpleState,
            moves: &[Option<ActionId>],
            time: Time,
            out: &mut Vec<(SimpleState, Rational)>,
        ) {
            if time == self.trip_at {
                if let Some(token) = self.armed.lock().expect("trap poisoned").take() {
                    token.cancel();
                }
            }
            self.inner.transition(state, moves, time, out);
        }
    }

    impl ModelFingerprint for TripAt {
        fn fingerprint(&self) -> Fingerprint {
            self.inner.fingerprint()
        }
    }

    #[test]
    fn shallower_miss_is_cancellable_and_retries_identically() {
        let cache = PpsCache::new();
        let model = TripAt {
            inner: random_model::<Rational>(19, &cfg(5)),
            trip_at: 1,
            armed: Mutex::new(None),
        };
        let mut session = CachedUnfolder::<_, Rational>::new(&model, UnfoldConfig::default())
            .expect("session opens");
        session.pps_at(&cache, 4).expect("grow to 4");
        let fp = session.fingerprint();

        // A miss below the handle's horizon regrows from the prior; the
        // token trips while time 1 expands, so the regrowth stops there.
        let token = CancelToken::new();
        *model.armed.lock().unwrap() = Some(token.clone());
        let err = session.pps_at_with(&cache, 2, &token).unwrap_err();
        assert_eq!(err, UnfoldError::Cancelled);
        assert_eq!(session.horizon(), 4, "the retained handle is untouched");
        assert_eq!(cache.len(), 1, "a cancelled miss inserts nothing");

        let retry = session
            .pps_at_with(&cache, 2, &CancelToken::new())
            .expect("retry");
        let want = unfold_with::<_, Rational>(
            &model.inner,
            &UnfoldConfig {
                horizon: Some(2),
                ..UnfoldConfig::default()
            },
        )
        .expect("capped unfold");
        assert_eq!(retry.num_nodes(), want.num_nodes());
        for n in (1..want.num_nodes() as u32).map(pak_core::ids::NodeId) {
            assert_eq!(retry.parent(n), want.parent(n));
            assert_eq!(retry.node_state_id(n), want.node_state_id(n));
        }
        assert_eq!(retry.num_runs(), want.num_runs());
        for run in want.run_ids() {
            assert_eq!(retry.nodes_of(run), want.nodes_of(run));
            assert_eq!(retry.run_probability(run), want.run_probability(run));
        }
        assert!(retry
            .cells()
            .map(|(_, c)| c)
            .eq(want.cells().map(|(_, c)| c)));
        assert!(Arc::ptr_eq(&retry, &cache.get(fp, 2).expect("cached")));
    }

    #[test]
    fn entry_budget_evicts_least_recently_used() {
        let cache = PpsCache::with_budget(CacheBudget {
            max_entries: Some(2),
            max_bytes: None,
        });
        let model = random_model::<Rational>(31, &cfg(6));
        let mut session =
            CachedUnfolder::<_, Rational>::new(&model, UnfoldConfig::default()).unwrap();
        let fp = session.fingerprint();
        session.pps_at(&cache, 1).unwrap();
        session.pps_at(&cache, 2).unwrap();
        // Touch horizon 1 so horizon 2 is the LRU victim.
        assert!(cache.get(fp, 1).is_some());
        session.pps_at(&cache, 3).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let remaining: Vec<bool> = (1..=3).map(|h| cache.get(fp, h).is_some()).collect();
        assert_eq!(remaining, [true, false, true]);
    }

    #[test]
    fn byte_budget_evicts_but_never_invalidates_readers() {
        // A 1-byte budget forces every insert over budget; the newest
        // entry is protected, so the cache holds exactly one tree.
        let cache = PpsCache::with_budget(CacheBudget {
            max_entries: None,
            max_bytes: Some(1),
        });
        let model = random_model::<Rational>(47, &cfg(6));
        let mut session =
            CachedUnfolder::<_, Rational>::new(&model, UnfoldConfig::default()).unwrap();
        let t2 = session.pps_at(&cache, 2).unwrap();
        let t3 = session.pps_at(&cache, 3).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
        // The evicted horizon-2 tree is still fully usable through the
        // Arc handed out before eviction.
        assert_eq!(t2.horizon(), 2);
        assert!(t2.num_runs() > 0);
        assert_eq!(t2.measure(&t2.live_runs_at(0)), Rational::one());
        assert!(t3.memory_footprint() > 1);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.bytes, t3.memory_footprint());
    }

    #[test]
    fn stats_snapshot_matches_counters() {
        let cache = PpsCache::new();
        let model = random_model::<Rational>(11, &cfg(4));
        let mut session =
            CachedUnfolder::<_, Rational>::new(&model, UnfoldConfig::default()).unwrap();
        session.pps_at(&cache, 2).unwrap();
        session.pps_at(&cache, 2).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, cache.hits());
        assert_eq!(stats.misses, cache.misses());
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
    }
}
