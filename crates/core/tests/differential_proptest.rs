//! Property-based differential tests between the two PWL backends.
//!
//! [`GridSpace`] (grid-aligned PWL-RRPA) and [`PwlSpace`] (Algorithms 2/3
//! verbatim with general piece decompositions and global cutouts) realise
//! the same algorithm on the same lifted cost functions, so on any query
//! they must retain the same plans: equal candidate counts, equal final
//! Pareto-set sizes, plan-for-plan equal cost functions, and agreeing
//! relevance-region membership at sampled parameter points.
//!
//! Queries cover one **and two** parameters: the 2-parameter cases lean
//! on the exact simplex-aligned piece-algebra fast paths (bounding-box
//! probes, opposite-normal slab tests, active-triple enumeration) —
//! without them the exact backend pays O(pieces²) LPs per accumulation
//! and the cases would not terminate in test time.

use mpq_catalog::generator::{generate, GeneratorConfig};
use mpq_catalog::graph::Topology;
use mpq_cloud::model::{CloudCostModel, ParametricCostModel};
use mpq_core::grid_space::GridSpace;
use mpq_core::pwl_space::PwlSpace;
use mpq_core::rrpa::optimize;
use mpq_core::space::MpqSpace;
use mpq_core::OptimizerConfig;
use mpq_lp::FastPathSite;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sample points spanning the parameter space of `params` dimensions.
fn sample_points(params: usize) -> Vec<Vec<f64>> {
    if params == 1 {
        (0..=16).map(|i| vec![i as f64 / 16.0]).collect()
    } else {
        mpq_geometry::grid::lattice(&vec![0.0; params], &vec![1.0; params], 5)
    }
}

fn run_differential(
    num_tables: usize,
    topology: Topology,
    params: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let query = generate(
        &GeneratorConfig::paper(num_tables, topology, params),
        &mut StdRng::seed_from_u64(seed),
    );
    let model = CloudCostModel::default();
    // A coarser grid keeps the exact backend's piece algebra small
    // while still splitting most dominance comparisons.
    let config = OptimizerConfig {
        grid_resolution: 4,
        ..OptimizerConfig::default_for(params)
    };
    let grid_space = GridSpace::for_unit_box(params, &config, model.num_metrics()).expect("grid");
    let grid_sol = optimize(&query, &model, &grid_space, &config);
    let pwl_space = PwlSpace::for_unit_box(params, &config, model.num_metrics()).expect("grid");
    let pwl_sol = optimize(&query, &model, &pwl_space, &config);
    if params == 2 {
        // Without the simplex-aligned piece-algebra fast paths the exact
        // backend would send every cross pair to the LP solver.
        prop_assert!(
            pwl_space.lp_ctx().fastpath_breakdown().fast[FastPathSite::PieceAlgebra as usize] > 0,
            "2-param piece algebra must resolve cross pairs LP-free (seed {})",
            seed
        );
    }

    // Identical enumeration and identical pruning verdicts.
    prop_assert_eq!(
        grid_sol.stats.plans_created,
        pwl_sol.stats.plans_created,
        "created-plan counts diverged (seed {}, {} params)",
        seed,
        params
    );
    prop_assert_eq!(
        grid_sol.plans.len(),
        pwl_sol.plans.len(),
        "final Pareto-set sizes diverged (seed {}, {} params)",
        seed,
        params
    );

    // Plan-for-plan: same cost functions (the retained sets come out
    // in the same candidate order when every verdict agrees) and
    // agreeing region membership at sampled parameter points.
    let sample_xs = sample_points(params);
    for (i, (g, p)) in grid_sol.plans.iter().zip(&pwl_sol.plans).enumerate() {
        for x in &sample_xs {
            let gc = grid_space.eval(&g.cost, x);
            let pc = pwl_space.eval(&p.cost, x);
            for (a, b) in gc.iter().zip(&pc) {
                prop_assert!(
                    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs())),
                    "plan {} cost diverged at {:?}: {} vs {}",
                    i,
                    x,
                    a,
                    b
                );
            }
            // Membership verdicts agree away from cutout boundaries;
            // exactly on a dominance boundary the two backends may
            // resolve the measure-zero tie differently, so disagreeing
            // points must at least be covered by *some* retained plan
            // in both solutions (the PPS guarantee).
            let in_grid = grid_space.region_contains(&g.region, x);
            let in_pwl = pwl_space.region_contains(&p.region, x);
            if in_grid != in_pwl {
                let grid_any = grid_sol
                    .plans
                    .iter()
                    .any(|q| grid_space.region_contains(&q.region, x));
                let pwl_any = pwl_sol
                    .plans
                    .iter()
                    .any(|q| pwl_space.region_contains(&q.region, x));
                prop_assert!(
                    grid_any && pwl_any,
                    "membership diverged at {:?} and left the point uncovered",
                    x
                );
            }
        }
    }

    // Whole-solution membership: at every sample, the relevant plans'
    // Pareto frontiers must coincide between the backends (raw index
    // sets are representation-dependent at tie boundaries).
    for x in &sample_xs {
        let gf: Vec<Vec<f64>> = grid_sol
            .plans
            .iter()
            .filter(|p| grid_space.region_contains(&p.region, x))
            .map(|p| grid_space.eval(&p.cost, x))
            .collect();
        let pf: Vec<Vec<f64>> = pwl_sol
            .plans
            .iter()
            .filter(|p| pwl_space.region_contains(&p.region, x))
            .map(|p| pwl_space.eval(&p.cost, x))
            .collect();
        prop_assert!(
            mpq_core::pareto::covers_frontier(&gf, &pf, 1e-6)
                && mpq_core::pareto::covers_frontier(&pf, &gf, 1e-6),
            "relevant-plan frontiers diverged at {:?}",
            x
        );
    }
    Ok(())
}

proptest! {
    // Each case runs two full optimizations; the exact backend is the
    // costly one, so the case count is modest but the queries vary in
    // size, topology, shape and seed.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn grid_and_pwl_backends_retain_the_same_plans(
        num_tables in 2usize..=4,
        topo in 0usize..=1,
        seed in 0u64..1000,
    ) {
        let topology = if topo == 1 { Topology::Star } else { Topology::Chain };
        run_differential(num_tables, topology, 1, seed)?;
    }
}

proptest! {
    // Two-parameter cases: fewer and smaller (the exact backend's piece
    // algebra is quadratic in pieces even with the fast paths), but they
    // exercise the 2-D geometry end to end.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn grid_and_pwl_backends_agree_on_two_param_queries(
        num_tables in 2usize..=3,
        topo in 0usize..=1,
        seed in 0u64..1000,
    ) {
        let topology = if topo == 1 { Topology::Star } else { Topology::Chain };
        run_differential(num_tables, topology, 2, seed)?;
    }
}

/// The exact fast paths carry the 2-parameter grid work. On a small
/// 2-parameter query (chain-3/2, seed 0, the default grid) the grid
/// backend answers cutout-emptiness prechecks and most coverage checks
/// without an LP. A regression that sends every check to the LP solver
/// fails here, although it would leave every plan unchanged.
/// (`run_differential` checks the `PwlSpace` side, piece algebra, on
/// every 2-parameter case.)
#[test]
fn exact_fast_paths_fire_on_a_two_param_grid_query() {
    let query = generate(
        &GeneratorConfig::paper(3, Topology::Chain, 2),
        &mut StdRng::seed_from_u64(0),
    );
    let model = CloudCostModel::default();
    let config = OptimizerConfig::default_for(2);
    let space = GridSpace::for_unit_box(2, &config, model.num_metrics()).expect("grid");
    let _ = optimize(&query, &model, &space, &config);
    let breakdown = space.lp_ctx().fastpath_breakdown();
    assert!(
        breakdown.total_fast() > 0,
        "2-param grid queries must hit the exact fast paths"
    );
    assert!(
        breakdown.fast[FastPathSite::CutoutEmptiness as usize] > 0,
        "cutout-emptiness prechecks must resolve LP-free"
    );
    let coverage_fast = breakdown.fast[FastPathSite::Coverage as usize];
    let coverage_lp = breakdown.lp[FastPathSite::Coverage as usize];
    assert!(
        coverage_fast > coverage_lp,
        "coverage must stay mostly LP-free (fast {coverage_fast} vs lp {coverage_lp})"
    );
}
