//! CI smoke checks for the optimizer core: the batched multi-query path
//! and the ε-approximate frontier path, each asserted end to end on tiny
//! workloads. Performance numbers come from the `mpqbench` package (see
//! `mpqbench/README.md`), not from this binary.
//!
//! Usage:
//!   cargo run --release -p mpq-bench --bin bench_rrpa -- --smoke
//!   cargo run --release -p mpq-bench --bin bench_rrpa -- --smoke-approx
//!
//! * `--smoke` — one tiny batched workload plus a tiny 2-parameter pwl
//!   config, asserting that the cache hits, that cached/uncached/one-by-one
//!   plan counters agree, that an overlap-1.0 batch hits the subtree cache
//!   with plan counters bit-identical to the lift-only runs, that the
//!   exact fast paths fire (`lp_breakdown`), that per-query LP deltas are
//!   recorded, and that grid and pwl agree on the 2-param config.
//! * `--smoke-approx` — asserts that an explicit `epsilon: 0.0` run is
//!   counter-identical to the default exact configuration, that ε = 0.1
//!   satisfies the (1+ε)-cover on a small grid config (every
//!   exact-frontier cost vector dominated within the band at every probe
//!   point, frontier never larger), and that a deadline-pressured service
//!   trace under `ApproxPolicy::deadline_only(0.1)` actually serves
//!   ε-approximate responses (`approx_served`/`approx_batches` > 0).
//!
//! Both modes write no file and exit non-zero on violation; bad arguments
//! exit 2 with a usage line.

use mpq_bench::harness::{
    run_approx_once, run_once, run_once_in, run_service_trace, run_workload, run_workload_mqo,
    ServiceSpec, SpaceKind, WorkloadSpec,
};
use mpq_catalog::graph::Topology;
use mpq_core::OptimizerConfig;

/// The smoke workload: small 2-parameter chain queries, the batching
/// regime where cost lifting is a visible slice of the per-query work.
const SMOKE_CONFIG: (Topology, &str, usize, usize) = (Topology::Chain, "chain", 3, 2);

fn die(msg: &str) -> ! {
    eprintln!("bench_rrpa: {msg}");
    eprintln!("usage: bench_rrpa --smoke | --smoke-approx");
    std::process::exit(2);
}

/// CI smoke mode for the ε-approximate path: the ε = 0 identity, the
/// (1+ε)-cover on a small grid config, and the deadline-triggered ε path
/// through the service (see the module docs).
fn run_smoke_approx() {
    use mpq_catalog::generator::{generate_workload, GeneratorConfig, WorkloadConfig};
    use mpq_cloud::model::CloudCostModel;
    use mpq_core::grid_space::GridSpace;
    use mpq_core::rrpa::optimize;
    use mpq_core::space::MpqSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let (topology, workload, n, p) = SMOKE_CONFIG;
    let mut config = OptimizerConfig::default_for(p);
    config.threads = Some(1);
    // ε = 0 through the banded entry point changes no counter: the
    // explicit-zero run and the default exact configuration must agree
    // bit for bit (run_approx_once runs both sides with epsilon 0.0).
    assert_eq!(
        config.epsilon, 0.0,
        "smoke-approx: exact optimization must be the configuration default"
    );
    let zero = run_approx_once(SpaceKind::Grid, n, topology, p, 0, &config, 0.0);
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
        ),
        "smoke-approx: ε=0 must be counter-identical to the exact path"
    );
    // The (1+ε)-cover at ε = 0.1 on a small 2-parameter config: at every
    // probe point, every exact-frontier cost vector is dominated within
    // the band by some approximate plan, and the approximate frontier is
    // never larger.
    let eps = 0.1;
    let model = CloudCostModel::default();
    let wcfg = WorkloadConfig::uniform(GeneratorConfig::paper(n, topology, p), 3, 0.0);
    let queries = generate_workload(&wcfg, &mut StdRng::seed_from_u64(1)).queries;
    let approx_cfg = OptimizerConfig {
        epsilon: eps,
        ..config.clone()
    };
    let mut collapsed = 0usize;
    for q in &queries {
        let space = GridSpace::for_unit_box(p, &config, 2).expect("grid space");
        let exact = optimize(q, &model, &space, &config);
        let approx = optimize(q, &model, &space, &approx_cfg);
        assert!(
            approx.stats.final_plan_count <= exact.stats.final_plan_count,
            "smoke-approx: ε-discards grew the frontier"
        );
        collapsed += exact.stats.final_plan_count - approx.stats.final_plan_count;
        for v in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let x = vec![v; space.dim()];
            let exact_front = exact.frontier_at(&space, &x);
            let approx_costs: Vec<Vec<f64>> = approx
                .frontier_at(&space, &x)
                .into_iter()
                .map(|(_, c)| c)
                .collect();
            let covered = exact_front.iter().all(|(_, target)| {
                approx_costs.iter().any(|candidate| {
                    candidate
                        .iter()
                        .zip(target)
                        .all(|(c, t)| *c <= (1.0 + eps) * *t + 1e-9 + 1e-9 * t.abs())
                })
            });
            assert!(
                covered,
                "smoke-approx: ε={eps} cover violated at {x:?}\nexact {exact_front:?}\napprox {approx_costs:?}"
            );
        }
    }
    // The deadline-triggered ε path through the service: a sparse trace
    // (arrivals slower than the batch deadline) under
    // `ApproxPolicy::deadline_only(0.1)` must downgrade batches and
    // stamp ε-served responses.
    let spec = ServiceSpec {
        num_tables: 3,
        topology: Topology::Chain,
        num_params: 1,
        trace: 8,
        overlap: 1.0,
        shards: 1,
        max_batch: 4,
        max_wait_us: 100,
        mean_gap_us: 200,
        subtree: None,
        approx_epsilon: Some(0.1),
        distinct_copies: false,
    };
    let mut service_cfg = OptimizerConfig::default_for(1);
    service_cfg.threads = Some(1);
    let r = run_service_trace(&spec, 0, &service_cfg);
    assert!(
        r.deadline_triggered > 0,
        "smoke-approx: a sparse trace must deadline-trigger batches"
    );
    assert!(
        r.approx_batches > 0 && r.approx_served > 0,
        "smoke-approx: deadline pressure must serve ε-approximate responses \
         (batches {} served {})",
        r.approx_batches,
        r.approx_served
    );
    eprintln!(
        "smoke-approx ok: {workload} n={n} p={p} collapsed={collapsed} plans over {} queries; \
         service approx_served={} approx_batches={} of {} batches",
        queries.len(),
        r.approx_served,
        r.approx_batches,
        r.batches
    );
}

/// CI smoke mode: one tiny batched workload; asserts the batched path's
/// invariants end to end (see the module docs) and prints a summary.
fn run_smoke() {
    let (topology, workload, n, p) = SMOKE_CONFIG;
    let batch = 3;
    let spec = WorkloadSpec {
        num_tables: n,
        topology,
        num_params: p,
        batch,
        overlap: 1.0,
    };
    let mut config = OptimizerConfig::default_for(p);
    config.threads = Some(1);
    let cached = run_workload(&spec, 0, &config, true);
    let nocache = run_workload(&spec, 0, &config, false);
    assert_eq!(
        (cached.plans_created, cached.final_plans, cached.lps_solved),
        (
            nocache.plans_created,
            nocache.final_plans,
            nocache.lps_solved
        ),
        "smoke: cached and uncached batches diverged"
    );
    assert!(
        cached.cache_hits > 0,
        "smoke: an overlap-1.0 batch must hit the lifting cache"
    );
    // Batching is bit-identical to one-by-one: an overlap-1.0 workload is
    // `batch` copies of the base query, so counters are exact multiples.
    let solo = run_once(n, topology, p, 0, &config);
    assert_eq!(cached.plans_created, solo.plans_created * batch as u64);
    assert_eq!(cached.final_plans, solo.final_plans as u64 * batch as u64);
    assert_eq!(cached.lps_solved, solo.lps_solved * batch as u64);
    // Per-query LP deltas are live (exact for single-threaded batches).
    assert!(
        cached.lps_query_median > 0.0,
        "smoke: per-query LP deltas must be recorded for batch runs"
    );
    // The exact fast paths carry the 2-parameter grid work, and the
    // breakdown records where the remaining LP tail lives.
    let breakdown = solo.lp_breakdown;
    assert!(
        breakdown.total_fast() > 0,
        "smoke: 2-param grid queries must hit the exact fast paths"
    );
    assert!(
        breakdown.fast[mpq_lp::FastPathSite::CutoutEmptiness as usize] > 0,
        "smoke: cutout-emptiness prechecks must resolve LP-free"
    );
    // Coverage must not regress: the exact per-piece fast paths and the
    // cached Chebyshev witness verdicts keep the coverage site
    // overwhelmingly LP-free (the witness cache answers re-extractions
    // over surviving pieces without re-running `chebyshev_center`).
    let coverage_fast = breakdown.fast[mpq_lp::FastPathSite::Coverage as usize];
    let coverage_lp = breakdown.lp[mpq_lp::FastPathSite::Coverage as usize];
    assert!(
        coverage_fast > coverage_lp,
        "smoke: coverage breakdown regressed (fast {coverage_fast} vs lp {coverage_lp})"
    );
    // Tiny 2-parameter pwl config: the simplex-aligned piece-algebra
    // fast paths make the exact backend viable on two parameters; the
    // grid backend must retain exactly the same plans.
    let pwl = run_once_in(SpaceKind::Pwl, n, topology, p, 0, &config);
    let grid = run_once_in(SpaceKind::Grid, n, topology, p, 0, &config);
    assert_eq!(
        (pwl.plans_created, pwl.final_plans),
        (grid.plans_created, grid.final_plans),
        "smoke: grid and pwl backends diverged on the 2-param config"
    );
    assert!(
        pwl.lp_breakdown.fast[mpq_lp::FastPathSite::PieceAlgebra as usize] > 0,
        "smoke: 2-param piece algebra must resolve cross pairs LP-free"
    );
    // Shared-subplan memoization: an overlap-1.0 batch must replay whole
    // subtrees through the unbounded subtree cache, with plan counters
    // bit-identical to the lift-only (and hence the uncached/one-by-one)
    // runs — memoization is pure.
    let mqo = run_workload_mqo(&spec, 0, &config, None);
    assert!(
        mqo.subtree_hits > 0,
        "smoke: an overlap-1.0 batch must hit the subtree cache"
    );
    assert_eq!(
        (mqo.plans_created, mqo.final_plans),
        (cached.plans_created, cached.final_plans),
        "smoke: subtree-cached batch diverged from the lift-only batch"
    );
    eprintln!(
        "smoke ok: {workload} n={n} p={p} batch={batch} plans={} hits={} misses={} \
         ({:.0}ms cached / {:.0}ms uncached; subtree hits={}; pwl 2-param plans={})",
        cached.plans_created,
        cached.cache_hits,
        cached.cache_misses,
        cached.time_ms,
        nocache.time_ms,
        mqo.subtree_hits,
        pwl.plans_created
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [mode] if mode == "--smoke" => run_smoke(),
        [mode] if mode == "--smoke-approx" => run_smoke_approx(),
        [] => die("a mode is required"),
        _ => die(&format!("unknown arguments: {}", args.join(" "))),
    }
}
