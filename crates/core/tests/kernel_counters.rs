//! Exact-mode kernel counters, pinned per query: plans created, final
//! plans, LPs solved and every fast-path site's LP-free / LP split
//! (`LpCtx::fastpath_breakdown`). The region engine's predicates decide
//! near-ties by LP round-off, so a kernel change that keeps every row here
//! bit-identical issues the same verdicts in the same order; a change that
//! moves a row changed what the kernel decides or how it decides it.
//!
//! The rows are what `run_one` prints for the same arguments:
//! `run_one grid chain 6 2 1`, `run_one pwl chain 2 2 0` and
//! `run_one grid chain 4 1 1 2 2`.

use mpq_catalog::generator::{generate, GeneratorConfig};
use mpq_catalog::graph::Topology;
use mpq_cloud::model::{CloudCostModel, ParametricCostModel};
use mpq_core::grid_space::GridSpace;
use mpq_core::pwl_space::PwlSpace;
use mpq_core::rrpa::optimize;
use mpq_core::OptimizerConfig;
use mpq_lp::FastPathBreakdown;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(plans_created, final_plans, lps_solved_query, [(fast, lp); site])`,
/// sites in `FastPathSite::ALL` order: cutout redundancy, cutout
/// emptiness, coverage, piece algebra.
type Pin = (u64, usize, u64, [(u64, u64); 4]);

/// Runs one chain query of `tables` tables and `params` parameters in a
/// `dim`-dimensional space of the given grid resolution.
fn run(backend: &str, tables: usize, params: usize, seed: u64, dim: usize, res: usize) -> Pin {
    let config = OptimizerConfig {
        grid_resolution: res,
        ..OptimizerConfig::default_for(dim)
    };
    let query = generate(
        &GeneratorConfig::paper(tables, Topology::Chain, params),
        &mut StdRng::seed_from_u64(seed),
    );
    let model = CloudCostModel::default();
    let metrics = model.num_metrics();
    let (stats, breakdown): (_, FastPathBreakdown) = if backend == "grid" {
        let space = GridSpace::for_unit_box(dim, &config, metrics).expect("grid space");
        let sol = optimize(&query, &model, &space, &config);
        (sol.stats, space.lp_ctx().fastpath_breakdown())
    } else {
        let space = PwlSpace::for_unit_box(dim, &config, metrics).expect("pwl space");
        let sol = optimize(&query, &model, &space, &config);
        (sol.stats, space.lp_ctx().fastpath_breakdown())
    };
    let sites = std::array::from_fn(|i| (breakdown.fast[i], breakdown.lp[i]));
    (
        stats.plans_created,
        stats.final_plan_count,
        stats.lps_solved_query,
        sites,
    )
}

#[test]
fn exact_mode_kernel_counters_are_pinned() {
    #[rustfmt::skip]
    let rows: [(&str, usize, usize, u64, usize, usize, Pin); 3] = [
        ("grid", 6, 2, 1, 2, 4, (2_484, 111, 24_377,
            [(390_538, 16_717), (59_376, 6_208), (11_955, 1_452), (0, 0)])),
        ("pwl", 2, 2, 0, 2, 4, (20, 7, 7_791,
            [(54_388, 86), (0, 0), (1_333, 193), (218_962, 7_512)])),
        ("grid", 4, 1, 1, 2, 2, (133, 15, 15,
            [(1_380, 0), (383, 0), (195, 15), (0, 0)])),
    ];
    for (backend, tables, params, seed, dim, res, pin) in rows {
        assert_eq!(
            run(backend, tables, params, seed, dim, res),
            pin,
            "{backend} chain-{tables}/{params} seed {seed}, {dim}-D resolution {res}"
        );
    }
}
