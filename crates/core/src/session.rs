//! Batched multi-query optimization through shared state.
//!
//! The paper optimizes one query at a time; a production service sees
//! *workloads* — batches of queries, many of which scan and join the same
//! tables. An [`OptimizerSession`] owns everything that is profitably
//! shared across such a batch:
//!
//! * the **space** (one shared parameter grid, so lifted costs are
//!   compatible across queries),
//! * the **cost-lifting cache** ([`LiftCache`]): lifting a scan/join cost
//!   closure onto the grid/PWL representation is pure in the operator's
//!   cost shape, so queries sharing tables reuse each other's liftings
//!   (the cross-query sharing idea of Kathuria & Sudarshan's multi-query
//!   optimization, applied to MPQ's lifting step),
//! * the **batch fan-out**: a batch's queries run concurrently, one query
//!   per thread, up to [`OptimizerConfig::threads`] at a time, and come
//!   back in submission order. Each query runs start to finish on one
//!   thread (see [`crate::rrpa`]).
//!
//! # Determinism
//!
//! [`OptimizerSession::optimize_batch`] is **bit-identical to one-by-one
//! optimization**: per-query `plans_created`/`final_plans` counters,
//! retained cost functions and frontiers match a sequential
//! [`optimize`](crate::rrpa::optimize) run for every seed, batch width
//! and space backend (enforced by `tests/batch_proptest.rs`). Cached
//! lifts are pure functions of their shape keys, results merge in
//! submission order, and each query owns its own plan arena. Cache
//! hit/miss totals are deterministic too — each distinct shape misses
//! exactly once (see [`mpq_cost::cache`]).
//!
//! # Example
//!
//! ```
//! use mpq_core::prelude::*;
//! use mpq_core::session::OptimizerSession;
//! use mpq_catalog::generator::{generate_workload, GeneratorConfig, WorkloadConfig};
//! use mpq_catalog::graph::Topology;
//! use mpq_cloud::model::CloudCostModel;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let cfg = WorkloadConfig::uniform(GeneratorConfig::paper(3, Topology::Chain, 1), 4, 1.0);
//! let workload = generate_workload(&cfg, &mut StdRng::seed_from_u64(1));
//! let model = CloudCostModel::default();
//! let config = OptimizerConfig::default_for(1);
//! let space = GridSpace::for_unit_box(1, &config, 2).unwrap();
//! let session = OptimizerSession::new(space, &model, config);
//! let solutions = session.optimize_batch(&workload.queries);
//! assert_eq!(solutions.len(), 4);
//! assert!(
//!     session.cache_stats().hits + session.subtree_cache_stats().hits > 0,
//!     "identical queries share lifts or whole subtree frontiers"
//! );
//! ```

use crate::rrpa::{optimize_with, LiftCache, MpqSolution, SubtreeCache};
use crate::space::MpqSpace;
use crate::OptimizerConfig;
use mpq_catalog::Query;
use mpq_cloud::model::ParametricCostModel;
use mpq_cloud::shape::combine_stable;
use mpq_cost::CacheStats;
/// The single-flight, optionally bounded cache behind the session's lift
/// and subtree caches, re-exported for front ends built on a session.
pub use mpq_cost::LiftedCostCache;
use rayon::prelude::*;
use std::sync::Arc;

/// A fault-injection hook called once per optimization *attempt* with the
/// query about to run, **before** any optimizer state is touched. Test
/// and chaos harnesses install one (see `mpq_catalog::fault::FaultPlan`)
/// to panic or burn virtual time deterministically; production sessions
/// leave it `None`. Because the hook fires before the lift cache or any
/// internal lock is entered, an injected panic can never poison session
/// state — the session stays usable for the queries that come after the
/// poison one.
pub type FaultHook = Arc<dyn Fn(&Query) + Send + Sync>;

/// Session-level configuration: the per-query optimizer knobs plus the
/// shared-state policy (whether to cache lifted costs, and how many
/// entries the cache may hold — `None` = unbounded, the batch-run
/// default; a long-lived service bounds it, see
/// [`mpq_cost::cache`](mpq_cost::LiftedCostCache) for the deterministic
/// second-chance eviction policy).
#[derive(Clone)]
pub struct SessionConfig {
    /// Per-query optimizer configuration (grid resolution, refinements,
    /// batch width).
    pub optimizer: OptimizerConfig,
    /// Enable the cross-query cost-lifting cache.
    pub cached: bool,
    /// Entry bound of the cost-lifting cache (`None` = unbounded).
    pub cache_capacity: Option<usize>,
    /// Enable the shared-subplan cache: per-subtree Pareto frontiers are
    /// memoized across the session's queries (see
    /// [`mpq_core::rrpa`](crate::rrpa) — reuse is a pure memoization, so
    /// per-query plans and frontiers stay bit-identical to an uncached
    /// session). **On by default** since results are bit-identical and
    /// overlapping workloads gain large LP savings; disable it (or bound
    /// `subtree_cache_capacity`) when the cloned cost/region payloads
    /// outweigh the reuse — e.g. strictly disjoint workloads.
    pub subtree_cached: bool,
    /// Entry bound of the shared-subplan cache (`None` = unbounded),
    /// evicted by the same deterministic second-chance policy as the
    /// lift cache.
    pub subtree_cache_capacity: Option<usize>,
    /// Test-only fault-injection hook (see [`FaultHook`]; `None` in
    /// production).
    pub fault_hook: Option<FaultHook>,
}

impl std::fmt::Debug for SessionConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionConfig")
            .field("optimizer", &self.optimizer)
            .field("cached", &self.cached)
            .field("cache_capacity", &self.cache_capacity)
            .field("subtree_cached", &self.subtree_cached)
            .field("subtree_cache_capacity", &self.subtree_cache_capacity)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "installed"))
            .finish()
    }
}

impl SessionConfig {
    /// Cached, unbounded session over the given optimizer configuration —
    /// the behaviour of [`OptimizerSession::new`].
    pub fn new(optimizer: OptimizerConfig) -> Self {
        Self {
            optimizer,
            cached: true,
            cache_capacity: None,
            subtree_cached: true,
            subtree_cache_capacity: None,
            fault_hook: None,
        }
    }

    /// Bounds the cost-lifting cache to `capacity` entries.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Enables the shared-subplan cache (already the default), bounded to
    /// `capacity` entries (`None` = unbounded).
    pub fn with_subtree_cache(mut self, capacity: Option<usize>) -> Self {
        self.subtree_cached = true;
        self.subtree_cache_capacity = capacity;
        self
    }

    /// Disables the shared-subplan cache (it is on by default).
    pub fn without_subtree_cache(mut self) -> Self {
        self.subtree_cached = false;
        self
    }

    /// Sets the ε-approximation factor of every optimization run in the
    /// session (see [`OptimizerConfig::epsilon`]): plans within a
    /// multiplicative `(1+ε)` band of a retained plan are pruned during
    /// the DP. `0.0` (the default) is bit-identical to the exact
    /// optimizer; per-call overrides are available through
    /// [`OptimizerSession::optimize_batch_at`].
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.optimizer.epsilon = epsilon;
        self
    }
}

/// The **shard affinity** of a query: a stable digest of its scan cost
/// shapes ([`mpq_cloud::shape::OpShape::stable_hash`], folded in table
/// order). Queries over the same tables — the ones whose lifted costs a
/// shard cache can share — produce equal affinities, so routing by
/// `affinity % shards` co-locates hot shapes with their cached lifts. The
/// digest is stable across processes and platforms (unlike
/// `std::hash::Hash`), so the same routing works for sharding a workload
/// across machines. Operators without a canonical shape fold in a fixed
/// word (they cannot share lifts anyway).
///
/// Cost: builds the scan alternative lists (a few heap allocations per
/// table) to reach their shapes — microseconds per query, negligible
/// next to the optimization the routing dispatches. If routing ever
/// dominates a dispatch path, the lever is a model hook exposing shape
/// digests without materialising alternatives.
pub fn query_affinity<M: ParametricCostModel + ?Sized>(query: &Query, model: &M) -> u64 {
    combine_stable((0..query.num_tables()).flat_map(|t| {
        model
            .scan_alternatives(query, t)
            .into_iter()
            .map(|alt| alt.shape.as_ref().map_or(0, |s| s.stable_hash()))
    }))
}

/// Shared state for optimizing a batch of queries: the space, the cost
/// model, the caches and the batch fan-out width. See the module docs.
pub struct OptimizerSession<'m, S: MpqSpace, M: ParametricCostModel + ?Sized> {
    space: S,
    model: &'m M,
    config: OptimizerConfig,
    cache: Option<LiftCache<S>>,
    subtree: Option<SubtreeCache<S>>,
    pool: rayon::ThreadPool,
    fault_hook: Option<FaultHook>,
}

impl<'m, S, M> OptimizerSession<'m, S, M>
where
    S: MpqSpace + Sync,
    S::Cost: Send + Sync,
    S::Region: Send + Sync,
    M: ParametricCostModel + ?Sized,
{
    /// A session over `space` and `model` with the cost-lifting cache
    /// enabled.
    ///
    /// The session owns the space: every query of the batch is lifted
    /// onto the same grid, which is what makes cached costs compatible
    /// across queries. Shape keys are canonical *within one model
    /// instance* (`mpq_cloud::shape`), which the borrow pins down.
    pub fn new(space: S, model: &'m M, config: OptimizerConfig) -> Self {
        Self::with_config(space, model, SessionConfig::new(config))
    }

    /// A session over an explicit [`SessionConfig`] — the entry point that
    /// threads the cache capacity through (long-lived services bound the
    /// cache; batch runs leave it unbounded).
    pub fn with_config(space: S, model: &'m M, config: SessionConfig) -> Self {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(config.optimizer.threads.unwrap_or(0))
            .build()
            .expect("session thread pool");
        Self {
            space,
            model,
            config: config.optimizer,
            cache: config
                .cached
                .then(|| LiftedCostCache::with_capacity(config.cache_capacity)),
            subtree: config
                .subtree_cached
                .then(|| LiftedCostCache::with_capacity(config.subtree_cache_capacity)),
            pool,
            fault_hook: config.fault_hook,
        }
    }

    /// The session's space (needed to evaluate returned solutions).
    pub fn space(&self) -> &S {
        &self.space
    }

    /// Optimizes one query through the session's shared state.
    ///
    /// # Panics
    /// Panics where [`crate::rrpa::optimize`] does: an invalid query, a
    /// model whose metric count differs from the space's, or a query
    /// with more parameters than the session's space has dimensions.
    pub fn optimize(&self, query: &Query) -> MpqSolution<S> {
        self.optimize_at(query, self.config.epsilon)
    }

    /// [`Self::optimize`] at an explicit ε-approximation factor,
    /// overriding the session's configured [`OptimizerConfig::epsilon`]
    /// for this run only — the entry point of the service's
    /// deadline-driven precision dial. `epsilon == self.config.epsilon`
    /// (in particular `0.0` on a default session) is bit-identical to
    /// [`Self::optimize`]. Shared caches stay consistent: subtree-cache
    /// keys incorporate the dominance band, and lifted costs are
    /// ε-independent.
    ///
    /// # Panics
    /// See [`Self::optimize`]; additionally panics if `epsilon` is
    /// negative or non-finite.
    pub fn optimize_at(&self, query: &Query, epsilon: f64) -> MpqSolution<S> {
        // Fault injection fires before any session state is touched (see
        // [`FaultHook`]): an injected panic cannot poison the cache or
        // the space, so callers may catch it and retry other queries.
        if let Some(hook) = &self.fault_hook {
            hook(query);
        }
        let override_config;
        let config = if epsilon == self.config.epsilon {
            &self.config
        } else {
            override_config = OptimizerConfig {
                epsilon,
                ..self.config.clone()
            };
            &override_config
        };
        optimize_with(
            query,
            self.model,
            &self.space,
            config,
            self.cache.as_ref(),
            self.subtree.as_ref(),
        )
    }

    /// Optimizes a batch of queries, running up to
    /// [`OptimizerConfig::threads`] of them at once (one query per thread)
    /// and returning results in submission order.
    /// Per-query results are bit-identical to one-by-one optimization
    /// (see the module docs); each solution owns its own plan arena.
    ///
    /// # Panics
    /// Panics if any query is invalid (see [`crate::rrpa::optimize`]).
    pub fn optimize_batch(&self, queries: &[Query]) -> Vec<MpqSolution<S>> {
        self.optimize_batch_at(queries, self.config.epsilon)
    }

    /// [`Self::optimize_batch`] at an explicit ε-approximation factor
    /// (see [`Self::optimize_at`]).
    pub fn optimize_batch_at(&self, queries: &[Query], epsilon: f64) -> Vec<MpqSolution<S>> {
        self.pool.install(|| {
            queries
                .par_iter()
                .map(|q| self.optimize_at(q, epsilon))
                .collect()
        })
    }

    /// Hit/miss counters of the cost-lifting cache (all-zero for sessions
    /// built with [`SessionConfig::cached`] off).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Number of distinct operator cost shapes lifted so far.
    pub fn cached_shapes(&self) -> usize {
        self.cache.as_ref().map(|c| c.len()).unwrap_or(0)
    }

    /// Hit/miss counters of the shared-subplan cache (all-zero when
    /// subtree caching is disabled; [`SessionConfig::new`] enables it).
    pub fn subtree_cache_stats(&self) -> CacheStats {
        self.subtree.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Number of distinct subtree identities memoized so far.
    pub fn cached_subtrees(&self) -> usize {
        self.subtree.as_ref().map(|c| c.len()).unwrap_or(0)
    }

    /// Registers this session's cache counters (cost-lifting and
    /// shared-subplan) in an observability registry under
    /// `<prefix>lift_cache` / `<prefix>subtree_cache`. The registry
    /// scrapes the same atomic cells [`Self::cache_stats`] and
    /// [`Self::subtree_cache_stats`] read, so views never disagree.
    pub fn register_obs(&self, registry: &mpq_obs::Registry, prefix: &str) {
        if let Some(cache) = &self.cache {
            registry.register_cache(&format!("{prefix}lift_cache"), cache.counters());
        }
        if let Some(subtree) = &self.subtree {
            registry.register_cache(&format!("{prefix}subtree_cache"), subtree.counters());
        }
    }

    /// The shard affinity of `query` under this session's model (see
    /// [`query_affinity`]).
    pub fn affinity(&self, query: &Query) -> u64 {
        query_affinity(query, self.model)
    }
}

/// A workload sharded across `N` independent [`OptimizerSession`]s —
/// the in-process form of sharding a workload across machines: each shard
/// owns its space, caches and batch fan-out, and queries route
/// to shards by **stable shape-derived affinity** ([`query_affinity`]),
/// so queries sharing tables land on the shard that already cached their
/// lifts.
///
/// # Determinism
///
/// Every query is optimized by exactly one session, and a session run is
/// bit-identical to a standalone [`crate::rrpa::optimize`] run, so the
/// sharded result equals the one-by-one result **per query** no matter
/// how many shards exist; [`ShardedSession::optimize_batch`] additionally
/// merges per-shard results back in **submission order**, so the returned
/// vector is bit-identical to a single-session batch for every shard
/// count. Only per-shard cache hit/miss totals depend on the shard count.
pub struct ShardedSession<'m, S: MpqSpace, M: ParametricCostModel + ?Sized> {
    shards: Vec<OptimizerSession<'m, S, M>>,
}

impl<'m, S, M> ShardedSession<'m, S, M>
where
    S: MpqSpace + Sync,
    S::Cost: Send + Sync,
    S::Region: Send + Sync,
    M: ParametricCostModel + ?Sized,
{
    /// Builds `num_shards` sessions over one model and session
    /// configuration; `make_space` constructs each shard's space (shard
    /// spaces must be identical for results to be shard-count-invariant —
    /// pass the same construction every time).
    ///
    /// # Panics
    /// Panics if `num_shards` is zero.
    pub fn build(
        num_shards: usize,
        model: &'m M,
        config: &SessionConfig,
        mut make_space: impl FnMut() -> S,
    ) -> Self {
        assert!(
            num_shards >= 1,
            "a sharded session needs at least one shard"
        );
        Self {
            shards: (0..num_shards)
                .map(|_| OptimizerSession::with_config(make_space(), model, config.clone()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a query routes to: `affinity % num_shards`.
    pub fn shard_of(&self, query: &Query) -> usize {
        (self.shards[0].affinity(query) % self.shards.len() as u64) as usize
    }

    /// Shard `i`'s session.
    pub fn shard(&self, i: usize) -> &OptimizerSession<'m, S, M> {
        &self.shards[i]
    }

    /// Optimizes a batch across the shards: queries are partitioned by
    /// [`Self::shard_of`], each shard optimizes its partition as one
    /// session batch, and results merge back **in submission order** —
    /// bit-identical to a one-shard run for every shard count (see the
    /// type docs).
    pub fn optimize_batch(&self, queries: &[Query]) -> Vec<MpqSolution<S>> {
        self.optimize_batch_at(queries, self.shards[0].config.epsilon)
    }

    /// [`Self::optimize_batch`] at an explicit approximation factor — the
    /// sharded counterpart of [`OptimizerSession::optimize_batch_at`].
    pub fn optimize_batch_at(&self, queries: &[Query], epsilon: f64) -> Vec<MpqSolution<S>> {
        let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, q) in queries.iter().enumerate() {
            partitions[self.shard_of(q)].push(i);
        }
        let mut merged: Vec<Option<MpqSolution<S>>> = (0..queries.len()).map(|_| None).collect();
        for (shard, indices) in partitions.iter().enumerate() {
            let part: Vec<Query> = indices.iter().map(|&i| queries[i].clone()).collect();
            let solutions = self.shards[shard].optimize_batch_at(&part, epsilon);
            for (&i, sol) in indices.iter().zip(solutions) {
                merged[i] = Some(sol);
            }
        }
        merged
            .into_iter()
            .map(|s| s.expect("every query was assigned to exactly one shard"))
            .collect()
    }

    /// Per-shard cost-lifting cache counters.
    pub fn cache_stats_per_shard(&self) -> Vec<CacheStats> {
        self.shards.iter().map(|s| s.cache_stats()).collect()
    }

    /// Per-shard shared-subplan cache counters (all-zero when subtree
    /// caching is disabled).
    pub fn subtree_stats_per_shard(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|s| s.subtree_cache_stats())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid_space::GridSpace;
    use mpq_catalog::generator::{generate_workload, GeneratorConfig, WorkloadConfig};
    use mpq_catalog::graph::Topology;
    use mpq_cloud::model::CloudCostModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A session with the (default-on) shared-subplan cache disabled:
    /// these tests pin the cost-lifting cache layer and the per-batch LP
    /// deltas in isolation, and a subtree hit replays whole frontiers
    /// without ever reaching the lift cache or the LP solver.
    fn session(
        model: &CloudCostModel,
        params: usize,
        cached: bool,
    ) -> OptimizerSession<'_, GridSpace, CloudCostModel> {
        let config = OptimizerConfig::default_for(params);
        let space = GridSpace::for_unit_box(params, &config, 2).unwrap();
        let session_cfg = SessionConfig {
            cached,
            ..SessionConfig::new(config)
        }
        .without_subtree_cache();
        OptimizerSession::with_config(space, model, session_cfg)
    }

    /// The satellite requirement: the cache must actually *hit* (not just
    /// not crash) when two queries share a table.
    #[test]
    fn cache_hits_when_queries_share_tables() {
        let cfg = WorkloadConfig::uniform(GeneratorConfig::paper(3, Topology::Chain, 1), 2, 1.0);
        let workload = generate_workload(&cfg, &mut StdRng::seed_from_u64(9));
        let model = CloudCostModel::default();
        let s = session(&model, 1, true);
        let solutions = s.optimize_batch(&workload.queries);
        assert_eq!(solutions.len(), 2);
        let stats = s.cache_stats();
        assert!(stats.misses > 0, "first query must lift");
        assert!(
            stats.hits >= stats.misses,
            "an identical second query must hit every shape the first lifted \
             (hits {} vs misses {})",
            stats.hits,
            stats.misses
        );
        assert!(s.cached_shapes() as u64 == stats.misses);
    }

    #[test]
    fn disjoint_queries_share_nothing() {
        let cfg = WorkloadConfig::uniform(GeneratorConfig::paper(3, Topology::Chain, 1), 2, 0.0);
        let workload = generate_workload(&cfg, &mut StdRng::seed_from_u64(3));
        let model = CloudCostModel::default();
        let s = session(&model, 1, true);
        let _ = s.optimize_batch(&workload.queries);
        // Fresh tables draw fresh log-uniform cardinalities; a collision
        // of every scan and join shape is practically impossible, but a
        // stray shared *constant* shape would also be a legitimate hit —
        // so only sanity-check the direction.
        let stats = s.cache_stats();
        assert!(stats.misses > stats.hits);
    }

    /// A batched run must equal the one-by-one run bit for bit.
    #[test]
    fn batch_matches_sequential_exactly() {
        let cfg = WorkloadConfig::mixed(GeneratorConfig::paper(4, Topology::Chain, 1), 3, 0.5);
        let workload = generate_workload(&cfg, &mut StdRng::seed_from_u64(17));
        let model = CloudCostModel::default();
        let s = session(&model, 1, true);
        let batched = s.optimize_batch(&workload.queries);
        for (q, b) in workload.queries.iter().zip(&batched) {
            let config = OptimizerConfig::default_for(1);
            let space = GridSpace::for_unit_box(1, &config, 2).unwrap();
            let solo = crate::rrpa::optimize(q, &model, &space, &config);
            assert_eq!(solo.stats.plans_created, b.stats.plans_created);
            assert_eq!(solo.stats.plans_pruned, b.stats.plans_pruned);
            assert_eq!(solo.plans.len(), b.plans.len());
            for (x, (sp, bp)) in [[0.1], [0.5], [0.9]]
                .iter()
                .flat_map(|x| solo.plans.iter().zip(&b.plans).map(move |p| (x, p)))
            {
                assert_eq!(space.eval(&sp.cost, x), s.space().eval(&bp.cost, x));
            }
        }
    }

    /// A bounded session returns bit-identical results to an unbounded
    /// one — eviction only trades hits for re-lifts.
    #[test]
    fn tiny_cache_capacity_changes_counters_not_results() {
        let cfg = WorkloadConfig::uniform(GeneratorConfig::paper(3, Topology::Chain, 1), 4, 1.0);
        let workload = generate_workload(&cfg, &mut StdRng::seed_from_u64(9));
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(1);
        let space = || GridSpace::for_unit_box(1, &config, 2).unwrap();
        let unbounded = OptimizerSession::new(space(), &model, config.clone());
        let bounded = OptimizerSession::with_config(
            space(),
            &model,
            SessionConfig::new(config.clone()).with_cache_capacity(2),
        );
        let a = unbounded.optimize_batch(&workload.queries);
        let b = bounded.optimize_batch(&workload.queries);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stats.plans_created, y.stats.plans_created);
            assert_eq!(x.plans.len(), y.plans.len());
        }
        assert!(bounded.cache_stats().evictions > 0, "capacity 2 must evict");
        assert_eq!(unbounded.cache_stats().evictions, 0);
        assert!(bounded.cached_shapes() <= 2);
    }

    /// Sharded batches merge in submission order and equal the one-shard
    /// run bit for bit, at every shard count.
    #[test]
    fn sharded_batch_matches_single_shard_exactly() {
        let cfg = WorkloadConfig::mixed(GeneratorConfig::paper(3, Topology::Chain, 1), 6, 0.5);
        let workload = generate_workload(&cfg, &mut StdRng::seed_from_u64(21));
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(1);
        let session_cfg = SessionConfig::new(config.clone());
        let make = || GridSpace::for_unit_box(1, &config, 2).unwrap();
        let reference =
            ShardedSession::build(1, &model, &session_cfg, make).optimize_batch(&workload.queries);
        for shards in [2usize, 4] {
            let sharded = ShardedSession::build(shards, &model, &session_cfg, make);
            let got = sharded.optimize_batch(&workload.queries);
            assert_eq!(got.len(), reference.len());
            for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(a.stats.plans_created, b.stats.plans_created, "query {i}");
                assert_eq!(a.stats.plans_pruned, b.stats.plans_pruned, "query {i}");
                assert_eq!(a.plans.len(), b.plans.len(), "query {i}");
            }
        }
    }

    /// Identical queries share an affinity (co-locating their cached
    /// lifts); the digest is deterministic across session instances.
    #[test]
    fn affinity_is_stable_and_groups_identical_queries() {
        let cfg = WorkloadConfig::uniform(GeneratorConfig::paper(3, Topology::Chain, 1), 3, 1.0);
        let workload = generate_workload(&cfg, &mut StdRng::seed_from_u64(4));
        let model = CloudCostModel::default();
        let a0 = query_affinity(&workload.queries[0], &model);
        for q in &workload.queries {
            assert_eq!(query_affinity(q, &model), a0, "overlap-1.0 copies");
        }
        let other = generate_workload(&cfg, &mut StdRng::seed_from_u64(5));
        assert_ne!(
            query_affinity(&other.queries[0], &model),
            a0,
            "fresh tables draw fresh statistics, so shapes (and affinity) differ"
        );
    }

    /// A subtree-cached session is bit-identical to a plain session and
    /// actually shares: at overlap 1.0 every query after the first hits
    /// every subtree.
    #[test]
    fn subtree_cached_batch_matches_and_hits() {
        let cfg = WorkloadConfig::uniform(GeneratorConfig::paper(4, Topology::Chain, 1), 4, 1.0);
        let workload = generate_workload(&cfg, &mut StdRng::seed_from_u64(13));
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(1);
        let space = || GridSpace::for_unit_box(1, &config, 2).unwrap();
        let plain = OptimizerSession::with_config(
            space(),
            &model,
            SessionConfig::new(config.clone()).without_subtree_cache(),
        );
        let shared = OptimizerSession::with_config(
            space(),
            &model,
            SessionConfig::new(config.clone()).with_subtree_cache(None),
        );
        let a = plain.optimize_batch(&workload.queries);
        let b = shared.optimize_batch(&workload.queries);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stats.plans_created, y.stats.plans_created);
            assert_eq!(x.stats.plans_pruned, y.stats.plans_pruned);
            assert_eq!(x.plans.len(), y.plans.len());
            for ((p, q), probe) in x
                .plans
                .iter()
                .zip(&y.plans)
                .flat_map(|p| [[0.1], [0.5], [0.9]].map(|x| (p, x)))
            {
                assert_eq!(
                    plain.space().eval(&p.cost, &probe),
                    shared.space().eval(&q.cost, &probe)
                );
            }
        }
        let stats = shared.subtree_cache_stats();
        assert!(stats.misses > 0, "first query must populate");
        assert!(
            stats.hits >= 3 * stats.misses,
            "3 duplicate queries must hit every subtree (hits {} misses {})",
            stats.hits,
            stats.misses
        );
        assert_eq!(stats.misses, shared.cached_subtrees() as u64);
        assert_eq!(plain.subtree_cache_stats(), CacheStats::default());
    }

    #[test]
    fn uncached_session_reports_zero_stats() {
        let cfg = WorkloadConfig::uniform(GeneratorConfig::paper(2, Topology::Chain, 1), 2, 1.0);
        let workload = generate_workload(&cfg, &mut StdRng::seed_from_u64(1));
        let model = CloudCostModel::default();
        let s = session(&model, 1, false);
        let _ = s.optimize_batch(&workload.queries);
        assert_eq!(s.cache_stats(), CacheStats::default());
    }
}
