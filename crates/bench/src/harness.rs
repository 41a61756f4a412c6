//! Experiment execution: single runs, seed sweeps and medians for the
//! paper binaries, plus the record-level runners (batched workloads,
//! service, chaos and network traces) behind the CI smoke modes of
//! `bench_rrpa` and `bench_service`. The repository's performance numbers
//! come from the separate `mpqbench` package, not from this crate.
//!
//! Seed sweeps fan out over a rayon-style parallel iterator, one seed per
//! thread; every seed is an independent single-threaded optimization, so
//! records are bitwise identical for any sweep width.

use mpq_catalog::generator::{generate, generate_workload, GeneratorConfig, WorkloadConfig};
use mpq_catalog::graph::Topology;
use mpq_cloud::model::CloudCostModel;
use mpq_core::grid_space::GridSpace;
use mpq_core::pwl_space::PwlSpace;
use mpq_core::rrpa::optimize;
use mpq_core::session::{OptimizerSession, SessionConfig};
use mpq_core::OptimizerConfig;
use mpq_lp::FastPathBreakdown;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::time::Instant;

/// Which [`mpq_core::space::MpqSpace`] backend a benchmark run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceKind {
    /// [`GridSpace`] — grid-aligned PWL-RRPA (the default).
    Grid,
    /// [`PwlSpace`] — the paper-faithful Algorithms 2/3 backend.
    Pwl,
}

/// Metrics of a single optimization run (one random query).
#[derive(Debug, Clone, Copy)]
pub struct RunRecord {
    /// Optimization wall time in milliseconds.
    pub time_ms: f64,
    /// Plans generated, including partial and pruned plans.
    pub plans_created: u64,
    /// Linear programs solved (`OptStats::lps_solved_query`).
    pub lps_solved: u64,
    /// Plans in the final Pareto plan set.
    pub final_plans: usize,
    /// Per-site fast-path hit / LP-fallback split of the run (where the
    /// remaining LP tail lives).
    pub lp_breakdown: FastPathBreakdown,
}

/// Runs PWL-RRPA (grid space) on one random query from the paper's
/// generator setup.
pub fn run_once(
    num_tables: usize,
    topology: Topology,
    num_params: usize,
    seed: u64,
    config: &OptimizerConfig,
) -> RunRecord {
    run_once_in(
        SpaceKind::Grid,
        num_tables,
        topology,
        num_params,
        seed,
        config,
    )
}

/// Runs RRPA on one random query from the paper's generator setup, using
/// the requested space backend.
pub fn run_once_in(
    kind: SpaceKind,
    num_tables: usize,
    topology: Topology,
    num_params: usize,
    seed: u64,
    config: &OptimizerConfig,
) -> RunRecord {
    let query = generate(
        &GeneratorConfig::paper(num_tables, topology, num_params),
        &mut StdRng::seed_from_u64(seed),
    );
    let model = CloudCostModel::default();
    let metrics = model_num_metrics(&model);
    let (solution_stats, lp_breakdown) = match kind {
        SpaceKind::Grid => {
            let space = GridSpace::for_unit_box(num_params, config, metrics)
                .expect("valid grid configuration");
            let stats = optimize(&query, &model, &space, config).stats;
            (stats, space.lp_ctx().fastpath_breakdown())
        }
        SpaceKind::Pwl => {
            let space = PwlSpace::for_unit_box(num_params, config, metrics)
                .expect("valid grid configuration");
            let stats = optimize(&query, &model, &space, config).stats;
            (stats, space.lp_ctx().fastpath_breakdown())
        }
    };
    RunRecord {
        time_ms: solution_stats.elapsed.as_secs_f64() * 1e3,
        plans_created: solution_stats.plans_created,
        lps_solved: solution_stats.lps_solved_query,
        final_plans: solution_stats.final_plan_count,
        lp_breakdown,
    }
}

fn model_num_metrics(model: &CloudCostModel) -> usize {
    use mpq_cloud::model::ParametricCostModel;
    model.num_metrics()
}

/// Metrics of one batched workload run (a whole batch through one
/// [`OptimizerSession`]). Counters are summed over the batch's queries;
/// LPs come from the session-shared space, hits/misses from the session
/// cache (zero for uncached sessions).
#[derive(Debug, Clone, Copy)]
pub struct BatchRecord {
    /// Whole-batch wall time in milliseconds.
    pub time_ms: f64,
    /// Plans generated over all queries.
    pub plans_created: u64,
    /// Linear programs solved over all queries (the exact **per-batch
    /// delta** of the session's shared counter, via
    /// [`OptimizerSession::optimize_batch_counted`]).
    pub lps_solved: u64,
    /// Final Pareto-set sizes summed over all queries.
    pub final_plans: u64,
    /// Cost-lifting cache hits.
    pub cache_hits: u64,
    /// Cost-lifting cache misses (= distinct operator cost shapes).
    pub cache_misses: u64,
    /// Median per-query LP count across the batch
    /// (`OptStats::lps_solved_query`).
    pub lps_query_median: f64,
}

/// One batched-workload configuration: the per-query shape plus the batch
/// size and table-overlap ratio.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Tables per query.
    pub num_tables: usize,
    /// Join-graph topology.
    pub topology: Topology,
    /// Parameters per query.
    pub num_params: usize,
    /// Queries per batch.
    pub batch: usize,
    /// Table-overlap ratio (`0.0` = independent, `1.0` = identical).
    pub overlap: f64,
}

/// Generates the [`WorkloadSpec`]'s queries plus the grid space and cost
/// model the batch runners share.
fn workload_setup(
    spec: &WorkloadSpec,
    seed: u64,
    config: &OptimizerConfig,
) -> (Vec<mpq_catalog::Query>, GridSpace, CloudCostModel) {
    let wcfg = WorkloadConfig::uniform(
        GeneratorConfig::paper(spec.num_tables, spec.topology, spec.num_params),
        spec.batch,
        spec.overlap,
    );
    let workload = generate_workload(&wcfg, &mut StdRng::seed_from_u64(seed));
    let model = CloudCostModel::default();
    let space = GridSpace::for_unit_box(spec.num_params, config, model_num_metrics(&model))
        .expect("valid grid configuration");
    (workload.queries, space, model)
}

/// Runs one batched workload — [`WorkloadSpec::batch`] random queries with
/// the given table-overlap ratio — through an [`OptimizerSession`] on the
/// grid backend, with or without the cost-lifting cache.
pub fn run_workload(
    spec: &WorkloadSpec,
    seed: u64,
    config: &OptimizerConfig,
    cached: bool,
) -> BatchRecord {
    let (queries, space, model) = workload_setup(spec, seed, config);
    // Batch runs isolate the cost-lifting layer: the subtree cache (on by
    // default in production sessions) is explicitly disabled on both
    // sides so cached-vs-uncached comparisons see lift reuse alone. The
    // subtree layer has its own runner (`run_workload_mqo`).
    let mut session_cfg = SessionConfig::new(config.clone()).without_subtree_cache();
    session_cfg.cached = cached;
    let session = OptimizerSession::with_config(space, &model, session_cfg);
    let start = Instant::now();
    let (solutions, batch_lps) = session.optimize_batch_counted(&queries);
    let time_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = session.cache_stats();
    let mut per_query: Vec<f64> = solutions
        .iter()
        .map(|s| s.stats.lps_solved_query as f64)
        .collect();
    BatchRecord {
        time_ms,
        plans_created: solutions.iter().map(|s| s.stats.plans_created).sum(),
        lps_solved: batch_lps,
        final_plans: solutions
            .iter()
            .map(|s| s.stats.final_plan_count as u64)
            .sum(),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        lps_query_median: median(&mut per_query),
    }
}

/// Metrics of one shared-subplan ("MQO") workload run: a whole batch
/// through one [`OptimizerSession`] with **both** the cost-lifting cache
/// and the subtree-frontier cache enabled. Plans must equal the
/// lift-only runs bit for bit (memoization is pure); the subtree
/// counters say how much per-subtree DP work the batch skipped.
#[derive(Debug, Clone, Copy)]
pub struct MqoRecord {
    /// Plans generated over all queries.
    pub plans_created: u64,
    /// Final Pareto-set sizes summed over all queries.
    pub final_plans: u64,
    /// Subtree-frontier cache hits (whole table sets replayed).
    pub subtree_hits: u64,
    /// Subtree-frontier cache evictions (bounded capacities only).
    pub subtree_evictions: u64,
}

/// Runs one batched workload through an [`OptimizerSession`] on the grid
/// backend with the shared-subplan cache enabled at the given capacity
/// (`None` = unbounded, `Some(0)` = pass-through) on top of the default
/// cost-lifting cache.
pub fn run_workload_mqo(
    spec: &WorkloadSpec,
    seed: u64,
    config: &OptimizerConfig,
    capacity: Option<usize>,
) -> MqoRecord {
    let (queries, space, model) = workload_setup(spec, seed, config);
    let session_cfg = SessionConfig::new(config.clone()).with_subtree_cache(capacity);
    let session = OptimizerSession::with_config(space, &model, session_cfg);
    let solutions = session.optimize_batch(&queries);
    let subtree = session.subtree_cache_stats();
    MqoRecord {
        plans_created: solutions.iter().map(|s| s.stats.plans_created).sum(),
        final_plans: solutions
            .iter()
            .map(|s| s.stats.final_plan_count as u64)
            .sum(),
        subtree_hits: subtree.hits,
        subtree_evictions: subtree.evictions,
    }
}

/// Median of a float sample (empty samples yield NaN; NaN entries sort
/// last, so a sample with NaNs — e.g. latency percentiles of a chaos run
/// that quarantined every query — degrades instead of panicking).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// One row of Figure 12: medians over `seeds` random queries.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Row {
    /// Number of tables joined.
    pub num_tables: usize,
    /// Median optimization time in milliseconds.
    pub time_ms: f64,
    /// Median number of created plans.
    pub plans_created: f64,
    /// Median number of solved LPs.
    pub lps_solved: f64,
    /// Median Pareto-plan-set size of the full query.
    pub final_plans: f64,
}

/// Runs the seed sweep for one configuration on `threads` worker threads
/// and returns the per-seed records in seed order.
pub fn sweep_records(
    num_tables: usize,
    topology: Topology,
    num_params: usize,
    seeds: usize,
    config: &OptimizerConfig,
    threads: usize,
) -> Vec<RunRecord> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("sweep thread pool");
    pool.install(|| {
        (0..seeds)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|s| run_once(num_tables, topology, num_params, s as u64, config))
            .collect()
    })
}

/// Computes one Figure 12 row, running the seed sweep on `threads` worker
/// threads (each seed is an independent optimization).
pub fn fig12_row(
    num_tables: usize,
    topology: Topology,
    num_params: usize,
    seeds: usize,
    config: &OptimizerConfig,
    threads: usize,
) -> Fig12Row {
    let records = sweep_records(num_tables, topology, num_params, seeds, config, threads);
    let med = |f: fn(&RunRecord) -> f64| median(&mut records.iter().map(f).collect::<Vec<_>>());
    Fig12Row {
        num_tables,
        time_ms: med(|r| r.time_ms),
        plans_created: med(|r| r.plans_created as f64),
        lps_solved: med(|r| r.lps_solved as f64),
        final_plans: med(|r| r.final_plans as f64),
    }
}

/// One ε-approximate vs exact comparison: the same random query optimized
/// twice, once at `OptimizerConfig::epsilon = ε` and once exactly.
#[derive(Debug, Clone, Copy)]
pub struct ApproxRecord {
    /// The ε-approximate run.
    pub approx: RunRecord,
    /// The exact (ε = 0) reference run.
    pub exact: RunRecord,
}

/// Runs one random query twice — at `ε` and exactly — through the given
/// space backend and asserts the whole-plan-discard contract (an
/// ε-approximate frontier can only shrink).
pub fn run_approx_once(
    kind: SpaceKind,
    num_tables: usize,
    topology: Topology,
    num_params: usize,
    seed: u64,
    config: &OptimizerConfig,
    epsilon: f64,
) -> ApproxRecord {
    let exact_cfg = OptimizerConfig {
        epsilon: 0.0,
        ..config.clone()
    };
    let approx_cfg = OptimizerConfig {
        epsilon,
        ..config.clone()
    };
    let exact = run_once_in(kind, num_tables, topology, num_params, seed, &exact_cfg);
    let approx = run_once_in(kind, num_tables, topology, num_params, seed, &approx_cfg);
    assert!(
        approx.final_plans <= exact.final_plans,
        "ε-discards can only shrink the frontier (approx {} vs exact {} at ε={epsilon})",
        approx.final_plans,
        exact.final_plans
    );
    ApproxRecord { approx, exact }
}

/// One open-loop service-trace configuration: the per-query shape, the
/// arrival process, the batch policy and the shard layout.
#[derive(Debug, Clone, Copy)]
pub struct ServiceSpec {
    /// Tables per query.
    pub num_tables: usize,
    /// Join-graph topology.
    pub topology: Topology,
    /// Parameters per query.
    pub num_params: usize,
    /// Arrivals per trace.
    pub trace: usize,
    /// Table-overlap ratio of the trace's workload.
    pub overlap: f64,
    /// Shard (session) count.
    pub shards: usize,
    /// Batch size trigger.
    pub max_batch: usize,
    /// Batch deadline trigger, in microseconds of the service clock.
    pub max_wait_us: u64,
    /// Mean inter-arrival gap of the trace, in virtual microseconds.
    pub mean_gap_us: u64,
    /// Shared-subplan cache: `None` = the session default (enabled,
    /// unbounded — the production behaviour since the default flip),
    /// `Some(cap)` = explicitly enabled with per-shard capacity `cap`
    /// (`None` = unbounded, `Some(0)` = pass-through).
    pub subtree: Option<Option<usize>>,
    /// Deadline-triggered ε-approximate serving: `Some(ε)` installs
    /// [`mpq_service::ApproxPolicy::deadline_only`] so every
    /// deadline-pressured batch runs at `ε` (stamped on its responses);
    /// `None` keeps every batch exact.
    pub approx_epsilon: Option<f64>,
    /// Tell copies apart: query `i`'s first join selectivity is scaled
    /// by `1 − i·10⁻³`. That changes its digest but no scan shape, so an
    /// overlap-1.0 trace becomes digest-distinct queries that still share
    /// lifts, instead of copies that coalesce onto one leader.
    pub distinct_copies: bool,
}

/// The seeded arrival trace a [`ServiceSpec`] describes.
pub fn service_trace(spec: &ServiceSpec, seed: u64) -> mpq_catalog::generator::ArrivalTrace {
    use mpq_catalog::generator::{generate_trace, TraceConfig};
    let trace_cfg = TraceConfig {
        workload: WorkloadConfig::uniform(
            GeneratorConfig::paper(spec.num_tables, spec.topology, spec.num_params),
            spec.trace,
            spec.overlap,
        ),
        mean_gap: spec.mean_gap_us as f64 * 1e-6,
    };
    let mut trace = generate_trace(&trace_cfg, &mut StdRng::seed_from_u64(seed));
    if spec.distinct_copies {
        for (i, q) in trace.queries.iter_mut().enumerate() {
            q.joins[0].selectivity *= 1.0 - i as f64 * 1e-3;
        }
    }
    trace
}

/// Metrics of one service-trace run (grid backend, single-threaded
/// optimizer — the measurement rules of this repository).
#[derive(Debug, Clone, Copy)]
pub struct ServiceRecord {
    /// Plans created, summed over all responses.
    pub plans_created: u64,
    /// Final Pareto-set sizes, summed over all responses.
    pub final_plans: u64,
    /// LPs solved (summed per-batch deltas).
    pub lps_solved: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Size-triggered batches.
    pub size_triggered: u64,
    /// Deadline-triggered batches.
    pub deadline_triggered: u64,
    /// Drain-flushed batches.
    pub drain_triggered: u64,
    /// Copies answered from their leader instead of batched.
    pub coalesced: u64,
    /// Cache hits, summed over shards.
    pub cache_hits: u64,
    /// Cache misses, summed over shards.
    pub cache_misses: u64,
    /// Median **per-query** LP count across the trace's responses
    /// (`OptStats::lps_solved_query`).
    pub lps_query_median: f64,
    /// Subtree-frontier cache hits, summed over shards (zero when the
    /// shared-subplan cache is disabled).
    pub subtree_hits: u64,
    /// Responses served ε-approximately (zero without an
    /// [`mpq_service::ApproxPolicy`]).
    pub approx_served: u64,
    /// Batches the approximation policy downgraded to ε.
    pub approx_batches: u64,
}

/// Runs one open-loop arrival trace through the optimizer service (grid
/// backend): the trace's virtual arrival times drive a **virtual service
/// clock** — stepped to each arrival at submit, exactly the replayable
/// no-wall-clock regime the trace generator promises.
pub fn run_service_trace(spec: &ServiceSpec, seed: u64, config: &OptimizerConfig) -> ServiceRecord {
    use mpq_core::session::{SessionConfig, ShardedSession};
    use mpq_service::{serve, ApproxPolicy, BatchPolicy, ServiceConfig, VirtualClock};
    use std::time::Duration;

    let trace = service_trace(spec, seed);
    let model = CloudCostModel::default();
    let metrics = model_num_metrics(&model);
    let mut session_cfg = SessionConfig::new(config.clone());
    if let Some(subtree_capacity) = spec.subtree {
        session_cfg = session_cfg.with_subtree_cache(subtree_capacity);
    }
    let sessions = ShardedSession::build(spec.shards, &model, &session_cfg, || {
        GridSpace::for_unit_box(spec.num_params, config, metrics).expect("valid grid configuration")
    });
    let vclock = VirtualClock::new();
    let mut service_cfg = ServiceConfig::new(BatchPolicy::new(
        spec.max_batch,
        Duration::from_micros(spec.max_wait_us),
    ))
    .with_clock(vclock.clock());
    if let Some(epsilon) = spec.approx_epsilon {
        service_cfg = service_cfg.with_approx(ApproxPolicy::deadline_only(epsilon));
    }
    let (tickets, stats) = serve(&sessions, service_cfg, |handle| {
        trace
            .queries
            .iter()
            .zip(&trace.arrivals)
            .map(|(q, &at)| {
                vclock.advance_to_secs(at);
                handle.submit(q.clone())
            })
            .collect::<Vec<_>>()
    });
    let mut plans_created = 0u64;
    let mut final_plans = 0u64;
    let mut lps_query: Vec<f64> = Vec::new();
    for ticket in tickets {
        let solution = ticket.wait().expect_ok();
        plans_created += solution.stats.plans_created;
        final_plans += solution.stats.final_plan_count as u64;
        lps_query.push(solution.stats.lps_solved_query as f64);
    }
    let cache: Vec<_> = stats.per_shard.iter().map(|s| s.cache).collect();
    let subtree: Vec<_> = stats.per_shard.iter().map(|s| s.subtree).collect();
    ServiceRecord {
        plans_created,
        final_plans,
        lps_solved: stats.lps_solved,
        batches: stats.batches,
        size_triggered: stats.size_triggered,
        deadline_triggered: stats.deadline_triggered,
        drain_triggered: stats.drain_triggered,
        coalesced: stats.coalesced,
        cache_hits: cache.iter().map(|c| c.hits).sum(),
        cache_misses: cache.iter().map(|c| c.misses).sum(),
        lps_query_median: median(&mut lps_query),
        subtree_hits: subtree.iter().map(|c| c.hits).sum(),
        approx_served: stats.approx_served,
        approx_batches: stats.approx_batches,
    }
}

/// Salt decorrelating the fault plan's random stream from the trace's
/// (same seed, independent draws) — shared with the service chaos tests.
pub const FAULT_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Metrics of one fault-injected ("chaos") service-trace run: the
/// fault-free metrics that still apply, plus quarantine accounting.
#[derive(Debug, Clone, Copy)]
pub struct ChaosRecord {
    /// Healthy queries answered `Ok`.
    pub healthy: u64,
    /// Poison queries quarantined (`Panicked`).
    pub quarantined: u64,
    /// Worker panics caught across all shards (bisection attempts).
    pub restarts: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Plans created, summed over healthy responses.
    pub healthy_plans_created: u64,
    /// Final Pareto-set sizes, summed over healthy responses.
    pub healthy_final_plans: u64,
    /// LPs solved (per-batch deltas, including work burned by panicked
    /// bisection attempts).
    pub lps_solved: u64,
    /// Copies answered from (or re-run for) their leader.
    pub coalesced: u64,
}

/// Runs one open-loop arrival trace through the service under a seeded
/// fault plan that poisons ~`fault_rate` of the trace's queries
/// (`FaultConfig::poison_only`), and **asserts the robustness contract**
/// while measuring: every poisoned query resolves `Panicked`, every
/// healthy query resolves `Ok` with plans/counters bit-identical to a
/// plain one-by-one session, and the outcome counters conserve. A
/// violated contract panics — this runner doubles as the chaos smoke
/// check in CI.
pub fn run_chaos_trace(
    spec: &ServiceSpec,
    fault_rate: f64,
    seed: u64,
    config: &OptimizerConfig,
) -> ChaosRecord {
    use mpq_catalog::fault::{silence_injected_panics, FaultConfig, FaultPlan};
    use mpq_core::session::{SessionConfig, ShardedSession};
    use mpq_service::{serve, ApproxPolicy, BatchPolicy, OutcomeKind, ServiceConfig, VirtualClock};
    use std::sync::Arc;
    use std::time::Duration;

    silence_injected_panics();
    let trace = service_trace(spec, seed);
    let plan = Arc::new(FaultPlan::generate(
        &trace,
        &FaultConfig::poison_only(fault_rate),
        &mut StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT),
    ));
    let poisoned: Vec<bool> = trace.queries.iter().map(|q| plan.is_poisoned(q)).collect();
    let model = CloudCostModel::default();
    let metrics = model_num_metrics(&model);
    let mut session_cfg = SessionConfig::new(config.clone());
    if let Some(subtree_capacity) = spec.subtree {
        session_cfg = session_cfg.with_subtree_cache(subtree_capacity);
    }
    session_cfg.fault_hook = Some(plan.hook(|_| {}));
    let sessions = ShardedSession::build(spec.shards, &model, &session_cfg, || {
        GridSpace::for_unit_box(spec.num_params, config, metrics).expect("valid grid configuration")
    });
    let vclock = VirtualClock::new();
    let mut service_cfg = ServiceConfig::new(BatchPolicy::new(
        spec.max_batch,
        Duration::from_micros(spec.max_wait_us),
    ))
    .with_clock(vclock.clock());
    if let Some(epsilon) = spec.approx_epsilon {
        service_cfg = service_cfg.with_approx(ApproxPolicy::deadline_only(epsilon));
    }
    let (tickets, stats) = serve(&sessions, service_cfg, |handle| {
        trace
            .queries
            .iter()
            .zip(&trace.arrivals)
            .map(|(q, &at)| {
                vclock.advance_to_secs(at);
                handle.submit(q.clone())
            })
            .collect::<Vec<_>>()
    });
    let mut healthy_plans_created = 0u64;
    let mut healthy_final_plans = 0u64;
    for (i, ticket) in tickets.into_iter().enumerate() {
        let resp = ticket.wait();
        if poisoned[i] {
            assert_eq!(
                resp.kind(),
                OutcomeKind::Panicked,
                "chaos: poisoned query {i} must be quarantined"
            );
            continue;
        }
        let served_epsilon = resp.served_epsilon;
        let solution = resp
            .outcome
            .ok()
            .expect("chaos: healthy query must complete");
        let space = GridSpace::for_unit_box(spec.num_params, config, metrics).expect("grid space");
        let reference = optimize(&trace.queries[i], &model, &space, config);
        if let Some(epsilon) = served_epsilon {
            // ε-served answers (their batch was deadline-downgraded, and
            // bisection preserves the batch's ε): the whole-plan discard
            // can only shrink the frontier, never grow it.
            assert!(
                spec.approx_epsilon == Some(epsilon),
                "chaos: served ε must be the policy's ε"
            );
            assert!(
                solution.stats.final_plan_count <= reference.stats.final_plan_count,
                "chaos: ε-served query {i} kept more plans than exact"
            );
        } else {
            // Healthy-query determinism under fire: bit-identical to the
            // same query alone on a fresh space.
            assert_eq!(
                (
                    solution.stats.plans_created,
                    solution.stats.plans_pruned,
                    solution.stats.final_plan_count
                ),
                (
                    reference.stats.plans_created,
                    reference.stats.plans_pruned,
                    reference.stats.final_plan_count
                ),
                "chaos: healthy query {i} diverged from a one-by-one session"
            );
        }
        healthy_plans_created += solution.stats.plans_created;
        healthy_final_plans += solution.stats.final_plan_count as u64;
    }
    let n_poisoned = poisoned.iter().filter(|&&p| p).count() as u64;
    assert_eq!(
        stats.quarantined, n_poisoned,
        "chaos: quarantine accounting"
    );
    assert_eq!(
        stats.completed + stats.quarantined,
        spec.trace as u64,
        "chaos: every query resolves exactly once"
    );
    // The conservation identity, unchanged by approximate serving:
    // ε-served answers are completions like any other.
    assert_eq!(
        stats.submitted,
        stats.completed + stats.rejected + stats.timed_out + stats.quarantined,
        "chaos: outcome conservation"
    );
    assert!(
        stats.approx_served <= stats.completed,
        "chaos: ε-served answers are a subset of completions"
    );
    if spec.approx_epsilon.is_none() {
        assert_eq!(
            stats.approx_served, 0,
            "chaos: no approximation policy, no ε-served answers"
        );
    }
    let restarts: u64 = stats.per_shard.iter().map(|s| s.restarts).sum();
    assert!(
        restarts >= stats.quarantined,
        "chaos: each quarantined poison costs at least its leaf restart"
    );
    ChaosRecord {
        healthy: stats.completed,
        quarantined: stats.quarantined,
        restarts,
        batches: stats.batches,
        healthy_plans_created,
        healthy_final_plans,
        lps_solved: stats.lps_solved,
        coalesced: stats.coalesced,
    }
}

/// One networked-fabric trace configuration: the per-query shape, the
/// shard layout, and the (deterministic) network fault mix driven
/// through the in-process wire (`ChaosConn` over `InProcConn` — the
/// byte-exact transport the TCP/unix servers also speak).
#[derive(Debug, Clone, Copy)]
pub struct NetSpec {
    /// Tables per query.
    pub num_tables: usize,
    /// Join-graph topology.
    pub topology: Topology,
    /// Parameters per query.
    pub num_params: usize,
    /// Arrivals per trace.
    pub trace: usize,
    /// Table-overlap ratio of the trace's workload.
    pub overlap: f64,
    /// Shard (server) count.
    pub shards: usize,
    /// Transient fault kind injected on first attempts (`None` = clean
    /// wire).
    pub fault_kind: Option<mpq_catalog::fault::NetFaultKind>,
    /// Probability that a distinct trace query is marked for the fault.
    pub fault_rate: f64,
    /// Mean inter-arrival gap of the trace, in virtual microseconds.
    pub mean_gap_us: u64,
}

/// Metrics of one networked trace run (grid backend, single-threaded
/// optimizer, virtual clock — the measurement rules of this repository).
#[derive(Debug, Clone, Copy)]
pub struct NetRecord {
    /// Queries answered healthy (with transient faults: all of them).
    pub completed: u64,
    /// Attempts beyond the first, summed over the trace.
    pub retries: u64,
    /// Connection re-dials after an established stream failed.
    pub reconnects: u64,
    /// Request frames lost in flight (router-observed).
    pub dropped: u64,
    /// Faults the injector actually fired (all kinds).
    pub faults_injected: u64,
    /// Server-side idempotency-cache replays.
    pub dedup_hits: u64,
    /// Plans created, summed over all healthy answers.
    pub plans_created: u64,
    /// Final Pareto-set sizes, summed over all healthy answers.
    pub final_plans: u64,
}

/// Runs one arrival trace through the sharded network fabric — affinity
/// router, retry policy, idempotent shard servers — under a seeded
/// transient-fault plan and the service's virtual clock, and **asserts
/// the networked determinism contract** while measuring: every query
/// resolves exactly once, every answer (counters *and* probe frontiers)
/// is bit-identical to a plain in-process optimization, the stats
/// conservation identity holds, and a clean wire (`fault_rate` 0) shows
/// zero transport effort. A violated contract panics — this runner
/// doubles as the network smoke check in CI.
pub fn run_net_trace(spec: &NetSpec, seed: u64, config: &OptimizerConfig) -> NetRecord {
    use mpq_catalog::fault::{NetFaultConfig, NetFaultPlan};
    use mpq_catalog::generator::{generate_trace, TraceConfig};
    use mpq_core::session::{query_affinity, SessionConfig, ShardedSession};
    use mpq_net::chaos::{ChaosConn, InProcConn};
    use mpq_net::router::{NetTime, RetryPolicy, ShardRouter};
    use mpq_net::server::ShardServerCore;
    use mpq_net::wire::PlanSummary;
    use mpq_service::{SubmittedQuery, VirtualClock};
    use std::sync::Arc;

    let trace_cfg = TraceConfig {
        workload: WorkloadConfig::uniform(
            GeneratorConfig::paper(spec.num_tables, spec.topology, spec.num_params),
            spec.trace,
            spec.overlap,
        ),
        mean_gap: spec.mean_gap_us as f64 * 1e-6,
    };
    let trace = generate_trace(&trace_cfg, &mut StdRng::seed_from_u64(seed));
    let model = CloudCostModel::default();
    let metrics = model_num_metrics(&model);
    // Diagonal frontier probes: answers are compared per probe point, so
    // any dimension works with the same five stations.
    let probes: Vec<Vec<f64>> = [0.0, 0.15, 0.5, 0.85, 1.0]
        .iter()
        .map(|&v| vec![v; spec.num_params])
        .collect();

    // In-process reference: every query on a fresh space.
    let reference: Vec<PlanSummary> = trace
        .queries
        .iter()
        .map(|q| {
            let space = GridSpace::for_unit_box(spec.num_params, config, metrics)
                .expect("valid grid configuration");
            let sol = optimize(q, &model, &space, config);
            PlanSummary::of(&space, &sol, &probes)
        })
        .collect();

    let plan = Arc::new(match spec.fault_kind {
        Some(kind) => NetFaultPlan::generate(
            &trace,
            &NetFaultConfig::only(kind, spec.fault_rate),
            &mut StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT),
        ),
        None => NetFaultPlan::new(),
    });

    // Uncached server sessions: net runs isolate the transport layer,
    // so each query must optimize exactly as the fresh-space reference.
    let mut session_cfg = SessionConfig::new(config.clone()).without_subtree_cache();
    session_cfg.cached = false;
    let sessions = ShardedSession::build(spec.shards, &model, &session_cfg, || {
        GridSpace::for_unit_box(spec.num_params, config, metrics).expect("valid grid configuration")
    });
    let cores: Vec<_> = (0..spec.shards)
        .map(|i| ShardServerCore::new(sessions.shard(i), i as u32, probes.clone()))
        .collect();
    let vclock = VirtualClock::new();
    let time = NetTime::virtual_time(&vclock);
    let conns: Vec<_> = cores
        .iter()
        .map(|core| ChaosConn::new(InProcConn::new(core), Arc::clone(&plan), time.clone()))
        .collect();
    let mut router = ShardRouter::new(
        conns,
        |q| query_affinity(q, &model),
        RetryPolicy {
            seed,
            ..RetryPolicy::default()
        },
        time.clone(),
    );

    let responses: Vec<_> = trace
        .queries
        .iter()
        .zip(&trace.arrivals)
        .map(|(q, &at)| {
            vclock.advance_to_secs(at);
            router.submit(SubmittedQuery {
                query: q.clone(),
                deadline: None,
            })
        })
        .collect();

    // The networked determinism contract, asserted at measure time.
    let stats = router.stats();
    assert_eq!(
        stats.submitted, spec.trace as u64,
        "net: every query submitted exactly once"
    );
    assert_eq!(
        stats.completed, spec.trace as u64,
        "net: transient faults must recover to healthy answers"
    );
    assert!(stats.conserves(), "net: outcome conservation");
    let mut plans_created = 0u64;
    let mut final_plans = 0u64;
    for (i, (resp, query)) in responses.iter().zip(&trace.queries).enumerate() {
        assert_eq!(
            resp.shard,
            sessions.shard_of(query),
            "net: query {i} routed off its affinity shard"
        );
        let summary = resp
            .outcome
            .ok()
            .expect("net: transient faults must leave every answer healthy");
        assert_eq!(
            summary, &reference[i],
            "net: query {i} diverged from the in-process reference"
        );
        plans_created += summary.plans_created;
        final_plans += summary.final_plan_count;
    }
    let faults_injected: u64 = (0..spec.shards)
        .map(|i| router.conn(i).counters().total())
        .sum();
    if spec.fault_kind.is_none() || spec.fault_rate == 0.0 {
        assert_eq!(
            (
                stats.retries,
                stats.reconnects,
                stats.dropped,
                faults_injected
            ),
            (0, 0, 0, 0),
            "net: a clean wire shows zero transport effort"
        );
    }
    let dedup_hits: u64 = cores.iter().map(|core| core.counters().dedup_hits).sum();

    NetRecord {
        completed: stats.completed,
        retries: stats.retries,
        reconnects: stats.reconnects,
        dropped: stats.dropped,
        faults_injected,
        dedup_hits,
        plans_created,
        final_plans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn run_once_is_deterministic() {
        let config = OptimizerConfig::default_for(1);
        let a = run_once(3, Topology::Chain, 1, 7, &config);
        let b = run_once(3, Topology::Chain, 1, 7, &config);
        assert_eq!(a.plans_created, b.plans_created);
        assert_eq!(a.lps_solved, b.lps_solved);
        assert_eq!(a.final_plans, b.final_plans);
    }

    #[test]
    fn pwl_backend_runs_and_is_deterministic() {
        let config = OptimizerConfig::default_for(1);
        let a = run_once_in(SpaceKind::Pwl, 2, Topology::Chain, 1, 3, &config);
        let b = run_once_in(SpaceKind::Pwl, 2, Topology::Chain, 1, 3, &config);
        assert_eq!(a.plans_created, b.plans_created);
        assert_eq!(a.final_plans, b.final_plans);
        assert!(a.final_plans > 0);
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let config = OptimizerConfig::default_for(1);
        let serial = fig12_row(3, Topology::Star, 1, 4, &config, 1);
        let parallel = fig12_row(3, Topology::Star, 1, 4, &config, 4);
        assert_eq!(serial.plans_created, parallel.plans_created);
        assert_eq!(serial.lps_solved, parallel.lps_solved);
    }

    #[test]
    fn batch_run_matches_one_by_one_counters() {
        let config = OptimizerConfig::default_for(1);
        let spec = WorkloadSpec {
            num_tables: 3,
            topology: Topology::Chain,
            num_params: 1,
            batch: 3,
            overlap: 1.0,
        };
        let cached = run_workload(&spec, 5, &config, true);
        let uncached = run_workload(&spec, 5, &config, false);
        assert_eq!(cached.plans_created, uncached.plans_created);
        assert_eq!(cached.final_plans, uncached.final_plans);
        assert_eq!(cached.lps_solved, uncached.lps_solved);
        assert!(cached.cache_hits > 0, "identical queries must share lifts");
        assert_eq!(uncached.cache_hits + uncached.cache_misses, 0);
    }

    #[test]
    fn mqo_run_matches_lift_only_counters() {
        let config = OptimizerConfig::default_for(1);
        let spec = WorkloadSpec {
            num_tables: 3,
            topology: Topology::Chain,
            num_params: 1,
            batch: 3,
            overlap: 1.0,
        };
        let mqo = run_workload_mqo(&spec, 5, &config, None);
        let lift = run_workload(&spec, 5, &config, true);
        assert_eq!(mqo.plans_created, lift.plans_created);
        assert_eq!(mqo.final_plans, lift.final_plans);
        assert!(
            mqo.subtree_hits > 0,
            "identical queries must replay whole subtrees"
        );
        assert_eq!(mqo.subtree_evictions, 0, "unbounded cache never evicts");
        // Pass-through capacity: no hits, same plans.
        let passthrough = run_workload_mqo(&spec, 5, &config, Some(0));
        assert_eq!(passthrough.subtree_hits, 0);
        assert_eq!(passthrough.plans_created, lift.plans_created);
    }

    /// An ε-approximate run never grows the frontier (`run_approx_once`
    /// asserts it) and, in the median over seeds, solves no more LPs than
    /// the exact run; ε = 0 is counter-identical to the exact path.
    #[test]
    fn approx_run_shrinks_frontier_and_zero_is_exact() {
        let config = OptimizerConfig::default_for(2);
        let recs: Vec<ApproxRecord> = (0..2)
            .map(|s| run_approx_once(SpaceKind::Grid, 3, Topology::Chain, 2, s, &config, 0.1))
            .collect();
        let med = |f: fn(&ApproxRecord) -> f64| median(&mut recs.iter().map(f).collect::<Vec<_>>());
        assert!(
            med(|r| r.approx.lps_solved as f64) <= med(|r| r.exact.lps_solved as f64),
            "ε = 0.1 must not solve more LPs than the exact run (median over seeds)"
        );
        // ε = 0 runs both sides exactly: every counter pair must agree.
        let zero = run_approx_once(SpaceKind::Grid, 3, Topology::Chain, 2, 0, &config, 0.0);
        assert_eq!(
            (
                zero.approx.plans_created,
                zero.approx.lps_solved,
                zero.approx.final_plans
            ),
            (
                zero.exact.plans_created,
                zero.exact.lps_solved,
                zero.exact.final_plans
            )
        );
    }

    fn tiny_service_spec() -> ServiceSpec {
        ServiceSpec {
            num_tables: 3,
            topology: Topology::Chain,
            num_params: 1,
            trace: 6,
            overlap: 1.0,
            shards: 2,
            max_batch: 2,
            max_wait_us: 100,
            mean_gap_us: 50,
            subtree: None,
            approx_epsilon: None,
            distinct_copies: false,
        }
    }

    /// Virtual-clock service traces replay bit-identically: every counter
    /// (including the trigger mix and the copy count) repeats run for
    /// run.
    #[test]
    fn service_trace_is_deterministic() {
        let mut config = OptimizerConfig::default_for(1);
        config.threads = Some(1);
        let spec = tiny_service_spec();
        let a = run_service_trace(&spec, 3, &config);
        let b = run_service_trace(&spec, 3, &config);
        assert_eq!(a.plans_created, b.plans_created);
        assert_eq!(a.final_plans, b.final_plans);
        assert_eq!(a.lps_solved, b.lps_solved);
        assert_eq!(a.batches, b.batches);
        assert_eq!(
            (
                a.size_triggered,
                a.deadline_triggered,
                a.drain_triggered,
                a.coalesced
            ),
            (
                b.size_triggered,
                b.deadline_triggered,
                b.drain_triggered,
                b.coalesced
            ),
            "virtual-clock trigger mix and copy count replay exactly"
        );
        assert_eq!(
            (a.cache_hits, a.cache_misses),
            (b.cache_hits, b.cache_misses)
        );
        assert_eq!(
            a.batches,
            a.size_triggered + a.deadline_triggered + a.drain_triggered
        );
        // An overlap-1.0 trace is copies of one query: all but the first
        // share its answer.
        assert_eq!(
            a.coalesced,
            spec.trace as u64 - 1,
            "overlap-1.0 trace must share work across queries"
        );
    }

    /// Chaos runs replay bit-identically under the seeded fault plan:
    /// the same seed poisons the same queries, quarantines the same
    /// count, and the healthy remainder repeats its plan counters run
    /// for run. `run_chaos_trace` itself asserts the robustness
    /// contract, so a green test also certifies outcome accounting and
    /// healthy-plan equality.
    #[test]
    fn chaos_trace_is_deterministic() {
        let mut config = OptimizerConfig::default_for(1);
        config.threads = Some(1);
        // Distinct shapes (overlap 0.0): poison identity is a content
        // digest, so copies of one query would share a fault fate.
        let spec = ServiceSpec {
            overlap: 0.0,
            trace: 8,
            ..tiny_service_spec()
        };
        let a = run_chaos_trace(&spec, 0.4, 5, &config);
        let b = run_chaos_trace(&spec, 0.4, 5, &config);
        assert!(a.quarantined > 0, "rate 0.4 over 8 queries must poison");
        assert!(a.healthy > 0, "healthy queries must survive");
        assert_eq!(a.healthy, b.healthy);
        assert_eq!(a.quarantined, b.quarantined);
        assert_eq!(a.restarts, b.restarts);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.healthy_plans_created, b.healthy_plans_created);
        assert_eq!(a.healthy_final_plans, b.healthy_final_plans);
        assert_eq!(a.lps_solved, b.lps_solved);
        assert!(a.restarts >= a.quarantined);
    }

    /// Networked runs replay bit-identically under the seeded fault
    /// plan. `run_net_trace` asserts the full contract at measure time
    /// (answers bit-identical to in-process, conservation, clean-wire
    /// zero effort), so a green test certifies all of it; here we add
    /// determinism and a clean-wire run.
    #[test]
    fn net_trace_is_deterministic_and_clean_wire_is_effortless() {
        use mpq_catalog::fault::NetFaultKind;
        let mut config = OptimizerConfig::default_for(1);
        config.threads = Some(1);
        config.grid_resolution = 4;
        let spec = NetSpec {
            num_tables: 3,
            topology: Topology::Chain,
            num_params: 1,
            trace: 5,
            overlap: 0.5,
            shards: 2,
            fault_kind: Some(NetFaultKind::Drop),
            fault_rate: 0.3,
            mean_gap_us: 25,
        };
        let a = run_net_trace(&spec, 4, &config);
        let b = run_net_trace(&spec, 4, &config);
        assert_eq!(a.completed, b.completed);
        assert_eq!(
            (a.retries, a.reconnects, a.dropped, a.faults_injected),
            (b.retries, b.reconnects, b.dropped, b.faults_injected)
        );
        assert_eq!(a.plans_created, b.plans_created);
        assert_eq!(a.final_plans, b.final_plans);
        let clean = run_net_trace(
            &NetSpec {
                fault_kind: None,
                fault_rate: 0.0,
                ..spec
            },
            4,
            &config,
        );
        assert_eq!((clean.retries, clean.reconnects, clean.dropped), (0, 0, 0));
    }
}
