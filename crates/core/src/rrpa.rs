//! The Relevance Region Pruning Algorithm (Algorithm 1 of the paper).
//!
//! Dynamic programming over table sets of increasing cardinality: the
//! Pareto plan set of a table set `q` is built from all splits of `q` into
//! two non-empty, disjoint operand sets, all join operators, and all pairs
//! of retained sub-plans. Every candidate plan is pruned against the plans
//! already retained for `q` via relevance regions:
//!
//! * the new plan's RR starts as the whole parameter space (line 36) and
//!   shrinks by the dominance region of every retained plan (line 39); if
//!   it empties, the plan is discarded (lines 41–43);
//! * if the new plan survives, every retained plan's RR shrinks by the new
//!   plan's dominance region, and retained plans with empty RRs are
//!   discarded (lines 47–54).
//!
//! The comparison order matters for plans with everywhere-equal cost: the
//! incoming plan is tested first and discarded, so one representative
//! always survives (Example 2 of the paper: both `{p1, p2}` and `{p1, p3}`
//! are valid Pareto plan sets).
//!
//! Cartesian-product postponement follows the paper's experimental setup
//! (and Postgres): for connected (sub-)queries only splits whose sides are
//! joined by a predicate — and themselves connected — are enumerated;
//! disconnected queries fall back to unrestricted splits. The completeness
//! guarantee (Theorem 3) then applies to the cross-product-free plan
//! space, exactly as in the paper's evaluation.
//!
//! # One query, one thread
//!
//! A run executes start to finish on the calling thread, table set by
//! table set in cardinality order, as in the paper's Figure-12 protocol.
//! Parallelism lives one level up, across queries: a session's batch
//! fan-out, shards and server connections (see
//! [`OptimizerConfig::threads`]). A fan-out inside one query did not pay:
//! the full table set is most of a run and cannot be split by level, and
//! per-simplex items were too small to dispatch.
//!
//! Because the run stays on one thread, its LP count is the difference of
//! two readings of the thread's solve counter ([`mpq_lp::thread_solved`]),
//! exact even when a session batch shares the space's `LpCtx` across
//! threads.
//!
//! Plan-arena registration is deferred to pruning survivors: pruned
//! candidates never touch the arena, which keeps it small.
//!
//! # Shared-subplan memoization
//!
//! [`optimize_with`] optionally consults a per-session [`SubtreeCache`]:
//! before the DP derives a table set's Pareto set, the set's canonical
//! **subtree identity**
//! ([`ParametricCostModel::subtree_shape`] plus the optimizer-config
//! words that steer the DP) is looked up, and on a hit the cached
//! frontier — survivor roots in subtree-local form, plus `Arc`-shared
//! cost functions and relevance regions — is replayed into the current
//! run instead of re-derived. Reuse is a **pure memoization** of the
//! per-subtree DP: subset enumeration orders are invariant under the
//! monotone rank-relabeling of [`TableSet::localize_within`], so a cached
//! subtree delocalizes to exactly the plans, regions, and
//! `plans_created`/`plans_pruned` tallies an uncached run would derive —
//! bit for bit. Arena bookkeeping is remapped deterministically on
//! replay: survivors register exactly like computed sets, so plan ids and
//! arena contents are identical to an uncached run. Only LP-solve
//! counters shrink on hits (the pruning work they meter is skipped).

use crate::pareto::pareto_indices;
use crate::plan::{PlanArena, PlanId, PlanNode};
use crate::space::MpqSpace;
use crate::stats::OptStats;
use crate::OptimizerConfig;
use mpq_catalog::{Query, TableSet};
use mpq_cloud::model::ParametricCostModel;
use mpq_cloud::ops::{JoinOp, ScanOp};
use mpq_cloud::shape::OpShape;
use mpq_cost::LiftedCostCache;
use std::collections::HashMap;
use std::time::Instant;

/// The cross-query cost-lifting cache, specialised to a space's cost
/// representation: canonical operator cost shapes
/// ([`mpq_cloud::shape::OpShape`]) paired with the dimension of the face
/// they were lifted in ([`MpqSpace::face`]) map to `Arc`-shared lifted
/// costs. A shape does not say how many parameters its query has — one
/// table scan serves 1- and 2-parameter queries alike — so the face
/// dimension keeps a lift from crossing into a face of another dimension.
/// One cache serves every query of an [`crate::session::OptimizerSession`].
pub type LiftCache<S> = LiftedCostCache<(OpShape, usize), <S as MpqSpace>::Cost>;

/// The shared-subplan cache: canonical subtree identities map to
/// `Arc`-shared memoized per-subtree Pareto frontiers (see the module
/// docs). One cache serves every query of a session, with the same
/// deterministic CLOCK eviction as the cost-lifting cache.
pub type SubtreeCache<S> = LiftedCostCache<OpShape, CachedSubtree<S>>;

/// The root operator of one cached survivor, in **subtree-local** form:
/// scan tables become ranks within the subtree's table set, join children
/// become (local operand set, survivor index) pairs — everything needed
/// to replay the survivor into any query embedding the subtree.
enum CachedRoot {
    Scan {
        table_rank: u32,
        op: ScanOp,
    },
    Join {
        op: JoinOp,
        left: (TableSet, u32),
        right: (TableSet, u32),
    },
}

/// A memoized per-subtree Pareto frontier: the survivor roots (local
/// form) with their accumulated cost functions and relevance regions,
/// plus the subtree's exact pruning tally. Replaying the value into a run
/// reproduces the uncached DP bit for bit (see the module docs). Costs
/// and regions live in the query's face; the key's parameter count
/// ([`ParametricCostModel::subtree_shape`]) fixes which one.
pub struct CachedSubtree<S: MpqSpace> {
    roots: Vec<(CachedRoot, S::Cost, S::Region)>,
    plans_created: u64,
    plans_pruned: u64,
}

/// A lifted operator cost: either an `Arc` shared with the session cache
/// or a per-query owned value. Borrow-only consumers (join costs feeding
/// `add3`) deref without copying; plan storage takes [`Self::into_owned`].
enum LiftedCost<C> {
    Shared(std::sync::Arc<C>),
    Owned(C),
}

impl<C> std::ops::Deref for LiftedCost<C> {
    type Target = C;
    fn deref(&self) -> &C {
        match self {
            LiftedCost::Shared(c) => c,
            LiftedCost::Owned(c) => c,
        }
    }
}

impl<C: Clone> LiftedCost<C> {
    fn into_owned(self) -> C {
        match self {
            LiftedCost::Shared(c) => (*c).clone(),
            LiftedCost::Owned(c) => c,
        }
    }
}

/// Lifts an operator cost closure, through the session cache when both a
/// cache and a canonical shape are available. Cached lifting is
/// bit-identical to direct lifting: a lift is a pure function of the
/// shape and the face (see [`mpq_cloud::shape`]), so whichever query
/// lifts a shape in a face first produces exactly the value every later
/// query would have. The shape moves into the key, so keying costs no
/// allocation.
fn lift_cost<S: MpqSpace>(
    space: &S,
    cache: Option<&LiftCache<S>>,
    shape: Option<OpShape>,
    f: &(dyn Fn(&[f64]) -> Vec<f64> + '_),
) -> LiftedCost<S::Cost> {
    match (cache, shape) {
        (Some(cache), Some(shape)) => {
            LiftedCost::Shared(cache.get_or_lift(&(shape, space.dim()), || space.lift(f)))
        }
        _ => LiftedCost::Owned(space.lift(f)),
    }
}

/// A retained plan with its cost function and relevance region.
pub struct ParetoPlan<S: MpqSpace> {
    /// The plan (resolved through the solution's arena).
    pub plan: PlanId,
    /// Its cost function.
    pub cost: S::Cost,
    /// Its relevance region.
    pub region: S::Region,
}

impl<S: MpqSpace> Clone for ParetoPlan<S> {
    fn clone(&self) -> Self {
        Self {
            plan: self.plan,
            cost: self.cost.clone(),
            region: self.region.clone(),
        }
    }
}

/// A retained plan before arena registration: the operator node is kept
/// inline until the plan survives pruning of its table set, at which point
/// [`register_level_result`] assigns `reserved_id`.
struct PendingPlan<S: MpqSpace> {
    node: PlanNode,
    cost: S::Cost,
    region: S::Region,
    reserved_id: Option<PlanId>,
}

/// Per-table-set statistics, added to the run's stats at registration.
#[derive(Default, Clone, Copy)]
struct Tally {
    plans_created: u64,
    plans_pruned: u64,
}

/// Result of one optimization run: the Pareto plan set of the full query.
pub struct MpqSolution<S: MpqSpace> {
    /// The Pareto plan set (one entry per retained plan).
    pub plans: Vec<ParetoPlan<S>>,
    /// Arena resolving plan ids to operator trees.
    pub arena: PlanArena,
    /// Run statistics (the Figure 12 metrics).
    pub stats: OptStats,
    /// Dimension of the face the query was solved in
    /// (`space.face(query.num_params).dim()`, see [`MpqSpace::face`]).
    /// Plan costs and regions live in that face and read `x[..dim]`; the
    /// point queries below resolve it from the space they are given.
    pub dim: usize,
}

impl<S: MpqSpace> Clone for MpqSolution<S> {
    fn clone(&self) -> Self {
        Self {
            plans: self.plans.clone(),
            arena: self.arena.clone(),
            stats: self.stats.clone(),
            dim: self.dim,
        }
    }
}

impl<S: MpqSpace> MpqSolution<S> {
    /// The face of `space` this solution was solved in, and `x` cut to
    /// its axes.
    fn face_at<'s, 'x>(&self, space: &'s S, x: &'x [f64]) -> (&'s S, &'x [f64]) {
        (space.face(self.dim), x.get(..self.dim).unwrap_or(x))
    }

    /// The retained plans whose relevance region contains `x`, a point of
    /// `space` (the space the solution was optimized with).
    pub fn relevant_plans<'a>(
        &'a self,
        space: &'a S,
        x: &'a [f64],
    ) -> impl Iterator<Item = &'a ParetoPlan<S>> + 'a {
        let (face, x) = self.face_at(space, x);
        self.plans
            .iter()
            .filter(move |p| face.region_contains(&p.region, x))
    }

    /// The plans whose relevance region contains `x`, with their cost
    /// vectors at `x`. By the PPS guarantee these include a dominator for
    /// every possible plan at `x`.
    pub fn relevant_at(&self, space: &S, x: &[f64]) -> Vec<(PlanId, Vec<f64>)> {
        let (face, y) = self.face_at(space, x);
        self.relevant_plans(space, x)
            .map(|p| (p.plan, face.eval(&p.cost, y)))
            .collect()
    }

    /// The Pareto frontier at `x`: relevant plans filtered down to
    /// non-dominated cost vectors (what a user picks a trade-off from,
    /// Figure 1 of the paper).
    pub fn frontier_at(&self, space: &S, x: &[f64]) -> Vec<(PlanId, Vec<f64>)> {
        let relevant = self.relevant_at(space, x);
        let costs: Vec<Vec<f64>> = relevant.iter().map(|(_, c)| c.clone()).collect();
        pareto_indices(&costs)
            .into_iter()
            .map(|i| relevant[i].clone())
            .collect()
    }

    /// Among plans relevant at `x`, the one minimising `metric` subject to
    /// upper bounds on the other metrics (`None` = unconstrained) — the
    /// run-time plan-selection step of Figure 2.
    pub fn select_plan(
        &self,
        space: &S,
        x: &[f64],
        metric: usize,
        bounds: &[Option<f64>],
    ) -> Option<(PlanId, Vec<f64>)> {
        self.relevant_at(space, x)
            .into_iter()
            .filter(|(_, c)| {
                c.iter()
                    .zip(bounds)
                    .all(|(v, b)| b.is_none_or(|limit| *v <= limit))
            })
            .min_by(|(_, a), (_, b)| a[metric].partial_cmp(&b[metric]).expect("finite costs"))
    }
}

/// The immutable per-run context every table set reads: the query, the
/// cost model, the space, the configuration and (for session runs) the
/// cost-lifting cache.
struct RunCtx<'a, S: MpqSpace, M: ?Sized> {
    query: &'a Query,
    model: &'a M,
    space: &'a S,
    config: &'a OptimizerConfig,
    cache: Option<&'a LiftCache<S>>,
    /// Per-pruning-step dominance band of the ε-approximate mode:
    /// `(1+ε)^(1/n)` for an `n`-table query, so the band compounds across
    /// the at most `n` DP levels a plan's cost flows through to an overall
    /// factor of at most `1+ε`. Exactly `1.0` when `config.epsilon == 0`
    /// — the spaces' banded entry points then take their exact paths bit
    /// for bit.
    band: f64,
}

// `#[derive(Clone, Copy)]` would demand `S: Copy`; the context is a pack
// of references and is always `Copy` itself.
impl<S: MpqSpace, M: ?Sized> Clone for RunCtx<'_, S, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S: MpqSpace, M: ?Sized> Copy for RunCtx<'_, S, M> {}

/// Computes the Pareto plan set of one table set `q` from the retained
/// plans of its sub-sets, enumerating candidates in the algorithm's order.
fn optimize_set<S: MpqSpace, M: ParametricCostModel + ?Sized>(
    ctx: RunCtx<'_, S, M>,
    best: &HashMap<TableSet, Vec<PendingPlan<S>>>,
    q: TableSet,
    q_connected: bool,
) -> (Vec<PendingPlan<S>>, Tally) {
    let mut plans: Vec<PendingPlan<S>> = Vec::new();
    let mut tally = Tally::default();
    for q1 in q.proper_subsets() {
        let q2 = q.minus(q1);
        if ctx.config.postpone_cartesian && q_connected && !ctx.query.sets_joined(q1, q2) {
            continue;
        }
        let (Some(left_plans), Some(right_plans)) = (best.get(&q1), best.get(&q2)) else {
            continue;
        };
        if left_plans.is_empty() || right_plans.is_empty() {
            continue;
        }
        for alt in ctx.model.join_alternatives(ctx.query, q1, q2) {
            // The join's own cost depends only on the operand sets
            // (their cardinalities), so lift it once per operator — and
            // through the session cache when its shape is canonical.
            let join_cost = lift_cost(ctx.space, ctx.cache, alt.shape, &*alt.cost);
            for p1 in left_plans {
                for p2 in right_plans {
                    // Fused accumulation: left + right + join in one pass.
                    let cost = ctx.space.add3(&p1.cost, &p2.cost, &join_cost);
                    let node = PlanNode::Join {
                        op: alt.op,
                        left: p1.node_id(),
                        right: p2.node_id(),
                    };
                    tally.plans_created += 1;
                    prune(ctx, &mut plans, node, cost, &mut tally);
                }
            }
        }
    }
    (plans, tally)
}

impl<S: MpqSpace> PendingPlan<S> {
    /// The arena id this plan was registered under (see
    /// [`register_level_result`]), stored in the node of every dependent
    /// plan of later levels.
    fn node_id(&self) -> PlanId {
        self.reserved_id
            .expect("sub-plans of previous levels carry their reserved arena id")
    }
}

/// Computes the Pareto plan set of one base table — all access paths,
/// pruned against each other (Algorithm 1 lines 3–6).
fn optimize_base<S: MpqSpace, M: ParametricCostModel + ?Sized>(
    ctx: RunCtx<'_, S, M>,
    t: usize,
) -> (Vec<PendingPlan<S>>, Tally) {
    let mut plans: Vec<PendingPlan<S>> = Vec::new();
    let mut tally = Tally::default();
    for alt in ctx.model.scan_alternatives(ctx.query, t) {
        let cost = lift_cost(ctx.space, ctx.cache, alt.shape, &*alt.cost).into_owned();
        let node = PlanNode::Scan {
            table: t,
            op: alt.op,
        };
        tally.plans_created += 1;
        prune(ctx, &mut plans, node, cost, &mut tally);
    }
    (plans, tally)
}

/// The subtree cache key of table set `q`: the model's canonical subtree
/// identity plus the optimizer-config words that steer the per-subtree DP
/// — the pruning refinements, Cartesian postponement, and whether the
/// *full* query is connected (which globally decides if disconnected
/// subsets exist in `best` at all, changing which splits contribute
/// candidates). `None` when the model cannot key the subtree exactly.
fn subtree_key<S: MpqSpace, M: ParametricCostModel + ?Sized>(
    ctx: RunCtx<'_, S, M>,
    q: TableSet,
    full_connected: bool,
) -> Option<OpShape> {
    ctx.model.subtree_shape(ctx.query, q).map(|shape| {
        let c = ctx.config;
        let flags = (c.postpone_cartesian as u64)
            | (c.pvi_fastpath as u64) << 1
            | (c.relevance_points as u64) << 2
            | (c.redundant_cutout_removal as u64) << 3
            | (c.redundant_constraint_removal as u64) << 4
            | (full_connected as u64) << 5;
        shape
            .word(flags)
            .word(c.grid_resolution as u64)
            // The dominance band steers pruning, so it is part of the
            // subtree identity (constant `1.0_f64.to_bits()` at ε = 0 —
            // the exact path's keys stay bijective with the previous
            // scheme, preserving hit/miss totals).
            .word(ctx.band.to_bits())
    })
}

/// Converts one table set's freshly computed survivors into the cached
/// (subtree-local) form: scan tables become ranks within `q`, join
/// children become (operand set localized within `q`, survivor index)
/// via the run's `origins` ledger; costs and regions are cloned into the
/// cache.
fn localize<S: MpqSpace>(
    q: TableSet,
    plans: &[PendingPlan<S>],
    tally: Tally,
    origins: &[(TableSet, u32)],
) -> CachedSubtree<S> {
    let roots = plans
        .iter()
        .map(|p| {
            let root = match p.node {
                PlanNode::Scan { table, op } => CachedRoot::Scan {
                    table_rank: q.rank_of(table).expect("scan table within its subtree") as u32,
                    op,
                },
                PlanNode::Join { op, left, right } => {
                    let localized = |id: PlanId| {
                        let (set, idx) = origins[id.0 as usize];
                        (set.localize_within(q), idx)
                    };
                    CachedRoot::Join {
                        op,
                        left: localized(left),
                        right: localized(right),
                    }
                }
            };
            (root, p.cost.clone(), p.region.clone())
        })
        .collect();
    CachedSubtree {
        roots,
        plans_created: tally.plans_created,
        plans_pruned: tally.plans_pruned,
    }
}

/// Replays a cached subtree into the current run as table set `q`:
/// delocalizes each survivor root through `q`'s member ranks (join
/// children resolve to the reserved arena ids of the matching operand
/// sets in `best`) and clones the cached cost/region. The result is
/// bit-identical to computing the set, because localizing and replaying a
/// just-computed set is the identity (see the module docs).
fn reconstruct<S: MpqSpace>(
    q: TableSet,
    cached: &CachedSubtree<S>,
    best: &HashMap<TableSet, Vec<PendingPlan<S>>>,
) -> (Vec<PendingPlan<S>>, Tally) {
    let plans = cached
        .roots
        .iter()
        .map(|(root, cost, region)| {
            let node = match root {
                CachedRoot::Scan { table_rank, op } => PlanNode::Scan {
                    table: q
                        .member_at(*table_rank as usize)
                        .expect("cached rank within subtree"),
                    op: *op,
                },
                CachedRoot::Join { op, left, right } => {
                    let resolve = |(set, idx): (TableSet, u32)| {
                        best[&set.delocalize_within(q)][idx as usize].node_id()
                    };
                    PlanNode::Join {
                        op: *op,
                        left: resolve(*left),
                        right: resolve(*right),
                    }
                }
            };
            PendingPlan {
                node,
                cost: cost.clone(),
                region: region.clone(),
                reserved_id: None,
            }
        })
        .collect();
    (
        plans,
        Tally {
            plans_created: cached.plans_created,
            plans_pruned: cached.plans_pruned,
        },
    )
}

/// One table set's result, through the shared-subplan cache when enabled
/// and the model can key the subtree: a hit replays the cached frontier,
/// a miss runs `compute`, memoizes the localized value, and replays it —
/// so hit and miss paths emit the same bits by construction.
fn set_result_cached<S, M>(
    ctx: RunCtx<'_, S, M>,
    subtree: Option<&SubtreeCache<S>>,
    full_connected: bool,
    best: &HashMap<TableSet, Vec<PendingPlan<S>>>,
    origins: &[(TableSet, u32)],
    q: TableSet,
    compute: impl FnOnce() -> (Vec<PendingPlan<S>>, Tally),
) -> (Vec<PendingPlan<S>>, Tally)
where
    S: MpqSpace,
    M: ParametricCostModel + ?Sized,
{
    let Some(cache) = subtree else {
        return compute();
    };
    let Some(key) = subtree_key(ctx, q, full_connected) else {
        return compute();
    };
    let cached = cache.get_or_lift(&key, || {
        let (plans, tally) = compute();
        localize(q, &plans, tally, origins)
    });
    reconstruct(q, &cached, best)
}

/// Runs RRPA and returns the Pareto plan set for `query`, on the calling
/// thread (see the module docs).
///
/// The DP runs in the query's face of `space`
/// (`space.face(query.num_params)`, see [`MpqSpace::face`]); the
/// solution records its dimension.
///
/// # Panics
/// Panics if the query is invalid (`query.validate()` fails), if the model
/// reports a different metric count than the space, if the query has more
/// parameters than the space has dimensions, or if an operator's cost is
/// non-finite at a point the space samples ([`MpqSpace::lift`]; valid
/// statistics can still overflow, e.g. 1e300 rows per table).
pub fn optimize<S, M>(
    query: &Query,
    model: &M,
    space: &S,
    config: &OptimizerConfig,
) -> MpqSolution<S>
where
    S: MpqSpace,
    M: ParametricCostModel + ?Sized,
{
    optimize_with(query, model, space, config, None, None)
}

/// [`optimize`] with an optional cost-lifting cache and an optional
/// shared-subplan cache — the per-query body of a batched
/// [`crate::session::OptimizerSession`] run. The result is bit-identical
/// to [`optimize`] for every cache state: cached lifts are pure functions
/// of their shape keys (see [`mpq_cloud::shape`]), and cached subtrees
/// replay the per-subtree DP as a pure memoization (see the module docs).
///
/// # Panics
/// See [`optimize`].
pub fn optimize_with<S, M>(
    query: &Query,
    model: &M,
    space: &S,
    config: &OptimizerConfig,
    cache: Option<&LiftCache<S>>,
    subtree: Option<&SubtreeCache<S>>,
) -> MpqSolution<S>
where
    S: MpqSpace,
    M: ParametricCostModel + ?Sized,
{
    query
        .validate()
        .unwrap_or_else(|e| panic!("invalid query: {e}"));
    assert_eq!(
        model.num_metrics(),
        space.num_metrics(),
        "cost model and space disagree on the number of metrics"
    );
    assert!(
        query.num_params <= space.dim(),
        "query has {} parameters, the space has {}",
        query.num_params,
        space.dim()
    );
    let full_space = space;
    let space = space.face(query.num_params);
    let start = Instant::now();
    let lps_start = mpq_lp::thread_solved();
    let n = query.num_tables();
    // The ambient observability handle: with nothing installed this is
    // the disabled handle and every span below is an inert guard — the
    // obs-off bit-identity test pins that plans and LP counts are
    // unaffected either way (spans only *read* the counters).
    let obs = mpq_obs::current();
    let mut optimize_span = obs.span("optimize");
    optimize_span.record("tables", n as u64);
    assert!(
        config.epsilon >= 0.0 && config.epsilon.is_finite(),
        "epsilon must be finite and non-negative"
    );
    let band = if config.epsilon > 0.0 {
        (1.0 + config.epsilon).powf(1.0 / n as f64)
    } else {
        1.0
    };
    let ctx = RunCtx {
        query,
        model,
        space,
        config,
        cache,
        band,
    };
    let mut arena = PlanArena::new();
    let mut stats = OptStats::default();
    let mut best: HashMap<TableSet, Vec<PendingPlan<S>>> = HashMap::new();
    // The origin ledger of the shared-subplan cache: for every arena id,
    // which table set registered it and at which survivor index — what
    // `localize` needs to re-encode join children in subtree-local form.
    let mut origins: Vec<(TableSet, u32)> = Vec::new();

    let full_connected = query.is_connected(query.all_tables());

    // Base tables first: all access paths, pruned against each other
    // (Algorithm 1 lines 3–6). Then table sets of increasing cardinality
    // (lines 8–13), each set in `subsets_of_size` order.
    for k in 1..=n {
        let mut level_span = obs.span("dp_level");
        let (lps_before, plans_before) = (mpq_lp::thread_solved(), stats.plans_created);
        let mut num_sets = 0u64;
        for q in TableSet::subsets_of_size(n, k) {
            let q_connected = query.is_connected(q);
            if config.postpone_cartesian && full_connected && !q_connected {
                // Never needed: connected supersets split into connected,
                // mutually joined parts.
                continue;
            }
            let (plans, tally) =
                set_result_cached(ctx, subtree, full_connected, &best, &origins, q, || {
                    if k == 1 {
                        optimize_base(ctx, q.iter().next().expect("one table"))
                    } else {
                        optimize_set(ctx, &best, q, q_connected)
                    }
                });
            register_level_result(
                &mut arena,
                &mut stats,
                &mut best,
                &mut origins,
                q,
                plans,
                tally,
            );
            num_sets += 1;
        }
        level_span.record("level", k as u64);
        level_span.record("sets", num_sets);
        level_span.record("plans_delta", stats.plans_created - plans_before);
        level_span.record("lps_delta", mpq_lp::thread_solved() - lps_before);
    }

    let pending = best
        .remove(&query.all_tables())
        .expect("full table set was optimized");
    let plans: Vec<ParetoPlan<S>> = pending
        .into_iter()
        .map(|p| ParetoPlan {
            plan: p.node_id(),
            cost: p.cost,
            region: p.region,
        })
        .collect();
    stats.final_plan_count = plans.len();
    stats.lps_solved_query = mpq_lp::thread_solved() - lps_start;
    stats.elapsed = start.elapsed();
    optimize_span.record("final_plans", plans.len() as u64);
    optimize_span.record("lps_solved_query", stats.lps_solved_query);
    if let Some(registry) = obs.registry() {
        // LP fast-path-site attribution (and anything else the space
        // tracks) lands in the registry alongside the spans.
        full_space.publish_obs(registry);
        registry.counter("optimize_runs").inc();
        registry
            .counter("optimize_plans_created")
            .add(stats.plans_created);
        registry
            .counter("optimize_lps_solved")
            .add(stats.lps_solved_query);
    }
    MpqSolution {
        plans,
        arena,
        stats,
        dim: space.dim(),
    }
}

/// Registers one table set's surviving plans: assigns their arena ids (in
/// survivor order), records their origins in the subplan-cache ledger,
/// and merges the tally into the global stats.
fn register_level_result<S: MpqSpace>(
    arena: &mut PlanArena,
    stats: &mut OptStats,
    best: &mut HashMap<TableSet, Vec<PendingPlan<S>>>,
    origins: &mut Vec<(TableSet, u32)>,
    q: TableSet,
    mut plans: Vec<PendingPlan<S>>,
    tally: Tally,
) {
    for (i, p) in plans.iter_mut().enumerate() {
        let id = arena.push(p.node);
        p.reserved_id = Some(id);
        debug_assert_eq!(id.0 as usize, origins.len(), "origins track arena ids");
        origins.push((q, i as u32));
    }
    stats.plans_created += tally.plans_created;
    stats.plans_pruned += tally.plans_pruned;
    stats.max_plans_per_set = stats.max_plans_per_set.max(plans.len());
    best.insert(q, plans);
}

/// The pruning procedure of Algorithm 1 (lines 33–57), with the §6.3-style
/// whole-space dominance fast path.
///
/// The discard test runs over every retained plan **before** any region
/// geometry: a newcomer that some retained plan dominates everywhere
/// ([`MpqSpace::dominates_everywhere`]) is dropped without a single
/// `subtract_dominated` or emptiness check. Testing first cannot change
/// the outcome: the subtractions of lines 36–44 touch only the
/// newcomer's own region, an interleaved test would discard the same
/// newcomer by the time it reached the dominating plan, and
/// `plans_pruned` rises by one either way. A newcomer that no retained
/// plan dominates everywhere meets the subtraction loop unchanged.
///
/// With `ctx.band > 1` (ε-approximate mode) the band is applied **only**
/// as this whole-plan discard ([`MpqSpace::dominates_everywhere_banded`]);
/// all region subtraction — insertion and retained phase alike — stays
/// exact. Exact removals transfer coverage at factor 1 and a discard
/// cites a *relevant* plan directly, so every coverage chain crosses at
/// most one banded link per DP level and the whole run stays within
/// `(1+ε)` for `band = (1+ε)^(1/n)` (`n` = table count). Banded *partial*
/// cuts are deliberately excluded — see the trait docs for the
/// counterexample.
fn prune<S: MpqSpace, M: ParametricCostModel + ?Sized>(
    ctx: RunCtx<'_, S, M>,
    plans: &mut Vec<PendingPlan<S>>,
    node: PlanNode,
    cost: S::Cost,
    tally: &mut Tally,
) {
    let space = ctx.space;
    let config = ctx.config;
    // Whole-space discard first. ε-approximate mode replaces the exact
    // test with the banded one — it *is* the approximation, so it is not
    // gated on `pvi_fastpath`. The discard cites `old` directly: wherever
    // `old` is no longer relevant, the (exact) chain of removals that cut
    // its region already ends at relevant plans.
    let discard = if ctx.band > 1.0 {
        plans
            .iter()
            .any(|old| space.dominates_everywhere_banded(&old.cost, &cost, ctx.band))
    } else {
        config.pvi_fastpath
            && plans
                .iter()
                .any(|old| space.dominates_everywhere(&old.cost, &cost))
    };
    if discard {
        tally.plans_pruned += 1;
        return;
    }
    // Shrink the new plan's RR by every retained plan (lines 36–44).
    let mut region = space.full_region();
    for old in plans.iter() {
        if space.subtract_dominated(&mut region, &cost, &old.cost, false)
            && space.region_is_empty(&mut region)
        {
            tally.plans_pruned += 1;
            return;
        }
    }
    // The new plan survives: shrink retained plans' RRs (lines 46–54).
    plans.retain_mut(|old| {
        if config.pvi_fastpath && space.dominates_everywhere(&cost, &old.cost) {
            tally.plans_pruned += 1;
            return false;
        }
        if space.subtract_dominated(&mut old.region, &old.cost, &cost, true)
            && space.region_is_empty(&mut old.region)
        {
            tally.plans_pruned += 1;
            return false;
        }
        true
    });
    plans.push(PendingPlan {
        node,
        cost,
        region,
        reserved_id: None,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid_space::GridSpace;
    use crate::sampled::SampledSpace;
    use mpq_catalog::generator::{generate, GeneratorConfig};
    use mpq_catalog::graph::Topology;
    use mpq_cloud::model::CloudCostModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_query(n: usize, topology: Topology, params: usize, seed: u64) -> Query {
        generate(
            &GeneratorConfig::paper(n, topology, params),
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn single_table_query_keeps_nondominated_scans() {
        let query = small_query(1, Topology::Chain, 1, 5);
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(1);
        let space = GridSpace::for_unit_box(1, &config, 2).unwrap();
        let sol = optimize(&query, &model, &space, &config);
        // Scan and index seek trade off across the selectivity range, so
        // usually both survive; at minimum one plan must.
        assert!(!sol.plans.is_empty());
        assert!(sol.stats.plans_created >= sol.plans.len() as u64);
        for p in &sol.plans {
            assert!(matches!(sol.arena.node(p.plan), PlanNode::Scan { .. }));
        }
    }

    #[test]
    fn optimizes_three_table_chain() {
        let query = small_query(3, Topology::Chain, 1, 11);
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(1);
        let space = GridSpace::for_unit_box(1, &config, 2).unwrap();
        let sol = optimize(&query, &model, &space, &config);
        assert!(!sol.plans.is_empty());
        // All plans join all three tables.
        for p in &sol.plans {
            assert_eq!(sol.arena.tables(p.plan), query.all_tables());
        }
        // At every sampled point the relevant set is non-empty and the
        // frontier is mutually non-dominated.
        for x in [[0.0], [0.3], [0.7], [1.0]] {
            let frontier = sol.frontier_at(&space, &x);
            assert!(!frontier.is_empty(), "no relevant plan at {x:?}");
            for (i, (_, a)) in frontier.iter().enumerate() {
                for (j, (_, b)) in frontier.iter().enumerate() {
                    if i != j {
                        assert!(
                            !mpq_cost::strictly_dominates(a, b, 1e-9),
                            "frontier contains dominated entry at {x:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn time_fees_tradeoff_appears_in_final_set() {
        // With big enough tables the parallel join becomes time-optimal
        // somewhere while the single-node join stays fee-optimal, so some
        // point of the parameter space must offer ≥ 2 frontier plans.
        let mut query = small_query(3, Topology::Chain, 1, 2);
        for t in &mut query.tables {
            t.rows = 90_000.0;
        }
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(1);
        let space = GridSpace::for_unit_box(1, &config, 2).unwrap();
        let sol = optimize(&query, &model, &space, &config);
        let widest = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&x| sol.frontier_at(&space, &[x]).len())
            .max()
            .unwrap();
        assert!(
            widest >= 2,
            "expected a time/fees trade-off somewhere (got frontier width {widest})"
        );
    }

    #[test]
    fn postponing_cartesian_products_shrinks_search() {
        let query = small_query(5, Topology::Chain, 1, 3);
        let model = CloudCostModel::default();
        let mut config = OptimizerConfig::default_for(1);
        let space = GridSpace::for_unit_box(1, &config, 2).unwrap();
        let with = optimize(&query, &model, &space, &config);
        config.postpone_cartesian = false;
        let space2 = GridSpace::for_unit_box(1, &config, 2).unwrap();
        let without = optimize(&query, &model, &space2, &config);
        assert!(
            with.stats.plans_created < without.stats.plans_created,
            "{} !< {}",
            with.stats.plans_created,
            without.stats.plans_created
        );
        // Both find equally good frontiers at sampled points (cross
        // products never help when the graph is connected and costs are
        // monotone in input sizes).
        for x in [[0.2], [0.8]] {
            let f_with: Vec<Vec<f64>> = with
                .frontier_at(&space, &x)
                .into_iter()
                .map(|(_, c)| c)
                .collect();
            let f_without: Vec<Vec<f64>> = without
                .frontier_at(&space2, &x)
                .into_iter()
                .map(|(_, c)| c)
                .collect();
            assert!(
                crate::pareto::covers_frontier(&f_with, &f_without, 1e-6),
                "restricted search lost quality at {x:?}"
            );
        }
    }

    #[test]
    fn works_on_sampled_space_too() {
        let query = small_query(3, Topology::Star, 2, 9);
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(2);
        let space = SampledSpace::lattice(&[0.0, 0.0], &[1.0, 1.0], 5, 2);
        let sol = optimize(&query, &model, &space, &config);
        assert!(!sol.plans.is_empty());
        assert_eq!(sol.stats.lps_solved_query, 0, "sampled space solves no LPs");
        let frontier = sol.frontier_at(&space, &[0.5, 0.5]);
        assert!(!frontier.is_empty());
    }

    #[test]
    fn select_plan_respects_budget() {
        let mut query = small_query(3, Topology::Chain, 1, 2);
        for t in &mut query.tables {
            t.rows = 90_000.0;
        }
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(1);
        let space = GridSpace::for_unit_box(1, &config, 2).unwrap();
        let sol = optimize(&query, &model, &space, &config);
        let x = [0.8];
        // Unconstrained time-optimal plan.
        let (_, fastest) = sol.select_plan(&space, &x, 0, &[None, None]).unwrap();
        // Fee-optimal plan.
        let (_, cheapest) = sol.select_plan(&space, &x, 1, &[None, None]).unwrap();
        assert!(fastest[0] <= cheapest[0] + 1e-9);
        assert!(cheapest[1] <= fastest[1] + 1e-9);
        // A fee budget below the fastest plan's fees forces a slower plan.
        if cheapest[1] < fastest[1] - 1e-9 {
            let budget = (fastest[1] + cheapest[1]) / 2.0;
            let (_, constrained) = sol
                .select_plan(&space, &x, 0, &[None, Some(budget)])
                .unwrap();
            assert!(constrained[1] <= budget + 1e-9);
            assert!(constrained[0] >= fastest[0] - 1e-9);
        }
    }

    #[test]
    fn stats_are_populated() {
        let query = small_query(4, Topology::Star, 1, 17);
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(1);
        let space = GridSpace::for_unit_box(1, &config, 2).unwrap();
        let sol = optimize(&query, &model, &space, &config);
        assert!(sol.stats.plans_created > 0);
        assert!(sol.stats.final_plan_count == sol.plans.len());
        assert!(sol.stats.max_plans_per_set >= sol.plans.len());
        assert!(
            sol.stats.lps_solved_query > 0,
            "grid space must have solved LPs"
        );
    }

    /// On a fresh space a run's count equals the thread's solve-counter
    /// delta around the call; across a shared space, the per-run counts
    /// sum to the delta around both runs.
    #[test]
    fn per_query_lp_count_is_exact() {
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(1);
        let space = GridSpace::for_unit_box(1, &config, 2).unwrap();
        let q1 = small_query(3, Topology::Chain, 1, 21);
        let q2 = small_query(3, Topology::Star, 1, 22);
        let before = mpq_lp::thread_solved();
        let s1 = optimize(&q1, &model, &space, &config);
        assert_eq!(s1.stats.lps_solved_query, mpq_lp::thread_solved() - before);
        assert!(s1.stats.lps_solved_query > 0);
        let s2 = optimize(&q2, &model, &space, &config);
        assert_eq!(
            mpq_lp::thread_solved() - before,
            s1.stats.lps_solved_query + s2.stats.lps_solved_query
        );
    }

    /// The shared-subplan invariant: runs through a subtree cache — cold,
    /// warm, or bounded — reproduce an uncached run bit for bit: plan
    /// counters, the entire arena, and cost functions at probe points.
    #[test]
    fn subtree_cache_replays_bit_identically() {
        for (n, topology, params, seed) in [
            (5usize, Topology::Chain, 1usize, 3u64),
            (4, Topology::Star, 1, 7),
            (4, Topology::Chain, 2, 1),
        ] {
            let query = small_query(n, topology, params, seed);
            let model = CloudCostModel::default();
            let config = OptimizerConfig::default_for(params);
            let space_plain = GridSpace::for_unit_box(params, &config, 2).unwrap();
            let plain = optimize(&query, &model, &space_plain, &config);

            let space = GridSpace::for_unit_box(params, &config, 2).unwrap();
            let cache: SubtreeCache<GridSpace> = SubtreeCache::new();
            let cold = optimize_with(&query, &model, &space, &config, None, Some(&cache));
            let misses_after_cold = cache.stats().misses;
            assert!(misses_after_cold > 0, "cold run must populate the cache");
            let warm = optimize_with(&query, &model, &space, &config, None, Some(&cache));
            assert_eq!(
                cache.stats().misses,
                misses_after_cold,
                "a repeat query must hit every subtree"
            );
            assert!(cache.stats().hits >= misses_after_cold);

            // A zero-capacity cache degenerates to pass-through but must
            // still replay identically (every set builds + replays).
            let passthrough: SubtreeCache<GridSpace> = SubtreeCache::with_capacity(Some(0));
            let zero = optimize_with(&query, &model, &space, &config, None, Some(&passthrough));
            assert_eq!(passthrough.stats().hits, 0);

            for (label, sol) in [("cold", &cold), ("warm", &warm), ("zero-cap", &zero)] {
                assert_eq!(
                    plain.stats.plans_created, sol.stats.plans_created,
                    "{label} plans_created"
                );
                assert_eq!(
                    plain.stats.plans_pruned, sol.stats.plans_pruned,
                    "{label} plans_pruned"
                );
                assert_eq!(
                    plain.stats.max_plans_per_set, sol.stats.max_plans_per_set,
                    "{label} max_plans_per_set"
                );
                assert_eq!(plain.plans.len(), sol.plans.len(), "{label} final plans");
                // The arena — ids, node kinds, children — is remapped
                // deterministically on replay, so it matches exactly.
                assert_eq!(plain.arena.len(), sol.arena.len(), "{label} arena size");
                for i in 0..plain.arena.len() {
                    assert_eq!(
                        plain.arena.node(PlanId(i as u32)),
                        sol.arena.node(PlanId(i as u32)),
                        "{label} arena node {i}"
                    );
                }
                let probes: Vec<Vec<f64>> = if params == 1 {
                    vec![vec![0.0], vec![0.15], vec![0.5], vec![0.85], vec![1.0]]
                } else {
                    vec![vec![0.1, 0.8], vec![0.6, 0.4], vec![1.0, 1.0]]
                };
                for (a, b) in plain.plans.iter().zip(&sol.plans) {
                    assert_eq!(a.plan, b.plan, "{label} plan id");
                    for x in &probes {
                        assert_eq!(
                            space_plain.eval(&a.cost, x),
                            space.eval(&b.cost, x),
                            "{label} plan cost diverged"
                        );
                    }
                }
            }
        }
    }

    /// The whole-space discard runs before any region geometry: a
    /// newcomer that the *second* retained plan dominates everywhere is
    /// discarded without the first plan's partial cut being subtracted
    /// and checked for emptiness — no emptiness check, fast-path query or
    /// LP — and the retained plans' regions stay untouched.
    #[test]
    fn whole_space_discard_precedes_region_geometry() {
        let query = small_query(1, Topology::Chain, 1, 5);
        let model = CloudCostModel::default();
        let config = OptimizerConfig {
            grid_resolution: 2,
            ..OptimizerConfig::default_for(1)
        };
        let space = GridSpace::for_unit_box(1, &config, 2).unwrap();
        let ctx = RunCtx {
            query: &query,
            model: &model,
            space: &space,
            config: &config,
            cache: None,
            band: 1.0,
        };
        let scan = |op| PlanNode::Scan { table: 0, op };
        let retained = |cost| PendingPlan {
            node: scan(ScanOp::TableScan),
            cost,
            region: space.full_region(),
            reserved_id: None,
        };
        // The first plan beats the newcomer only for x < 0.3 (a cut inside
        // the first grid simplex); the second beats it everywhere.
        let partial = space.lift(&|x: &[f64]| vec![x[0] + 0.2, x[0] + 0.2]);
        let everywhere = space.lift(&|_x: &[f64]| vec![0.1, 0.1]);
        let newcomer = space.lift(&|_x: &[f64]| vec![0.5, 0.5]);
        assert!(!space.dominates_everywhere(&partial, &newcomer));
        let mut plans = vec![retained(partial), retained(everywhere)];
        let regions_before: Vec<String> = plans.iter().map(|p| format!("{:?}", p.region)).collect();
        let counters = || {
            (
                space.emptiness_counters(),
                space.lp_ctx().fastpath_breakdown(),
                mpq_lp::thread_solved(),
            )
        };
        let before = counters();
        let mut tally = Tally::default();
        prune(
            ctx,
            &mut plans,
            scan(ScanOp::IndexSeek),
            newcomer,
            &mut tally,
        );
        assert_eq!(tally.plans_pruned, 1, "the newcomer is discarded");
        assert_eq!(plans.len(), 2, "nothing is added or removed");
        assert_eq!(counters(), before, "no region geometry ran");
        let regions_after: Vec<String> = plans.iter().map(|p| format!("{:?}", p.region)).collect();
        assert_eq!(regions_after, regions_before, "retained regions untouched");
    }

    /// Valid but overflow-prone statistics: with 1e300 rows per table the
    /// query passes `validate`, yet its operator costs overflow. The lift
    /// refuses the non-finite value instead of letting NaN costs come
    /// back as an answer.
    #[test]
    #[should_panic(expected = "non-finite cost")]
    fn overflowing_costs_panic_at_lift() {
        let mut query = small_query(3, Topology::Chain, 1, 1);
        for t in &mut query.tables {
            t.rows = 1e300;
        }
        assert!(query.validate().is_ok());
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(1);
        let space = GridSpace::for_unit_box(1, &config, 2).unwrap();
        optimize(&query, &model, &space, &config);
    }
}
