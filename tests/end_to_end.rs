//! End-to-end integration tests: the full pipeline from random query
//! generation through PWL-RRPA to run-time plan selection, exercised
//! through the public facade API.

use mpq::catalog::generator::{generate, GeneratorConfig};
use mpq::catalog::graph::Topology;
use mpq::cloud::model::{CloudCostModel, ParametricCostModel};
use mpq::cloud::{METRIC_FEES, METRIC_TIME};
use mpq::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn optimize_generated(
    n: usize,
    topology: Topology,
    params: usize,
    seed: u64,
) -> (mpq::catalog::Query, GridSpace, MpqSolution<GridSpace>) {
    let query = generate(
        &GeneratorConfig::paper(n, topology, params),
        &mut StdRng::seed_from_u64(seed),
    );
    let model = CloudCostModel::default();
    let config = OptimizerConfig::default_for(params);
    let space = GridSpace::for_unit_box(params, &config, model.num_metrics()).expect("grid");
    let solution = optimize(&query, &model, &space, &config);
    (query, space, solution)
}

#[test]
fn chain_query_full_pipeline() {
    let (query, space, solution) = optimize_generated(5, Topology::Chain, 1, 42);
    assert!(!solution.plans.is_empty());
    // Every retained plan joins all tables and has a displayable tree.
    for p in &solution.plans {
        assert_eq!(solution.arena.tables(p.plan), query.all_tables());
        let txt = solution.arena.display(p.plan, &query);
        assert!(txt.contains("HashJoin"));
    }
    // Run-time selection works across the parameter range.
    for x in [[0.0], [0.33], [0.77], [1.0]] {
        let frontier = solution.frontier_at(&space, &x);
        assert!(!frontier.is_empty(), "no plan at {x:?}");
        let fastest = solution
            .select_plan(&space, &x, METRIC_TIME, &[None, None])
            .expect("some plan");
        // The fastest plan's time must match the frontier minimum.
        let min_time = frontier
            .iter()
            .map(|(_, c)| c[METRIC_TIME])
            .fold(f64::INFINITY, f64::min);
        assert!((fastest.1[METRIC_TIME] - min_time).abs() <= 1e-9 * (1.0 + min_time));
    }
}

#[test]
fn star_query_two_params_pipeline() {
    let (_, space, solution) = optimize_generated(4, Topology::Star, 2, 11);
    assert!(!solution.plans.is_empty());
    for x in [[0.1, 0.9], [0.5, 0.5], [1.0, 0.0]] {
        assert!(!solution.relevant_at(&space, &x).is_empty());
    }
    assert!(solution.stats.lps_solved_query > 0);
}

#[test]
fn stats_correlate_like_figure12() {
    // The three Figure 12 metrics must all grow with the table count.
    let mut prev: Option<OptStats> = None;
    for n in [3usize, 5, 7] {
        let (_, _, solution) = optimize_generated(n, Topology::Chain, 1, 5);
        if let Some(p) = &prev {
            assert!(
                solution.stats.plans_created > p.plans_created,
                "created plans must grow with table count"
            );
            assert!(
                solution.stats.lps_solved_query > p.lps_solved_query,
                "solved LPs must grow with table count"
            );
        }
        prev = Some(solution.stats.clone());
    }
}

#[test]
fn pps_completeness_against_runtime_optimizer() {
    // The central guarantee (Theorem 3): at any parameter point, the
    // precomputed plan set must match what a run-time multi-objective
    // optimizer would find. Strict at grid vertices; PWL-approximation
    // tolerance off-vertex.
    for (topology, params, seed) in [
        (Topology::Chain, 1, 3u64),
        (Topology::Star, 1, 8),
        (Topology::Chain, 2, 21),
    ] {
        let query = generate(
            &GeneratorConfig::paper(4, topology, params),
            &mut StdRng::seed_from_u64(seed),
        );
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(params);
        let space = GridSpace::for_unit_box(params, &config, 2).expect("grid");
        let solution = optimize(&query, &model, &space, &config);
        let vertices = space.grid().vertex_points();
        let midpoints: Vec<Vec<f64>> = vec![vec![0.21; params.max(1)], vec![0.68; params.max(1)]];
        mpq::core::validate::check_pps_on_lattice(
            &solution, &space, &query, &model, &vertices, &midpoints, 0.05, true,
        )
        .unwrap_or_else(|e| panic!("{topology} q{params} seed {seed}: {e}"));
    }
}

#[test]
fn pwl_space_agrees_with_grid_space() {
    // Differential test: the Algorithm 2/3-verbatim space and the
    // grid-aligned space must produce equivalent frontiers.
    let query = generate(
        &GeneratorConfig::paper(3, Topology::Chain, 1),
        &mut StdRng::seed_from_u64(13),
    );
    let model = CloudCostModel::default();
    let config = OptimizerConfig::default_for(1);
    let grid_space = GridSpace::for_unit_box(1, &config, 2).expect("grid");
    let grid_sol = optimize(&query, &model, &grid_space, &config);
    let pwl_space = PwlSpace::for_unit_box(1, &config, 2).expect("grid");
    let pwl_sol = optimize(&query, &model, &pwl_space, &config);
    for xv in [0.0, 0.25, 0.5, 0.875, 1.0] {
        let x = [xv];
        let gf: Vec<Vec<f64>> = grid_sol
            .frontier_at(&grid_space, &x)
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        let pf: Vec<Vec<f64>> = pwl_sol
            .frontier_at(&pwl_space, &x)
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        assert!(
            mpq::core::pareto::covers_frontier(&gf, &pf, 1e-6),
            "grid space missed a PWL-space frontier point at {xv}"
        );
        assert!(
            mpq::core::pareto::covers_frontier(&pf, &gf, 1e-6),
            "PWL space missed a grid-space frontier point at {xv}"
        );
    }
}

#[test]
fn sampled_space_matches_at_sample_points() {
    // The generic RRPA on a sampled space is exact at its sample points:
    // its frontier there must agree with the fixed-point DP.
    let query = generate(
        &GeneratorConfig::paper(4, Topology::Star, 1),
        &mut StdRng::seed_from_u64(2),
    );
    let model = CloudCostModel::default();
    let config = OptimizerConfig::default_for(1);
    let space = SampledSpace::lattice(&[0.0], &[1.0], 9, 2);
    let solution = optimize(&query, &model, &space, &config);
    for x in space.points().to_vec() {
        let truth = mpq::core::baselines::mq::optimize_at(&query, &model, &x, true);
        let truth_costs: Vec<Vec<f64>> = truth.frontier.iter().map(|(_, c)| c.clone()).collect();
        let candidates: Vec<Vec<f64>> = solution
            .relevant_at(&space, &x)
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        assert!(
            mpq::core::pareto::covers_frontier(&candidates, &truth_costs, 1e-6),
            "sampled-space PPS incomplete at {x:?}"
        );
    }
}

#[test]
fn approx_model_offers_precision_tradeoffs() {
    use mpq::cloud::approx_model::{ApproxCostModel, METRIC_LOSS};
    let query = generate(
        &GeneratorConfig::paper(3, Topology::Chain, 1),
        &mut StdRng::seed_from_u64(31),
    );
    let model = ApproxCostModel::default();
    let config = OptimizerConfig::default_for(1);
    let space = GridSpace::for_unit_box(1, &config, 2).expect("grid");
    let solution = optimize(&query, &model, &space, &config);
    let frontier = solution.frontier_at(&space, &[0.5]);
    // The frontier must include a zero-loss (exact) plan and at least one
    // lossy-but-faster plan.
    let exact = frontier.iter().find(|(_, c)| c[METRIC_LOSS] <= 1e-9);
    assert!(
        exact.is_some(),
        "an exact plan must always be on the frontier"
    );
    if frontier.len() > 1 {
        let fastest = frontier
            .iter()
            .map(|(_, c)| c[METRIC_TIME])
            .fold(f64::INFINITY, f64::min);
        assert!(fastest < exact.unwrap().1[METRIC_TIME]);
    }
}

#[test]
fn deterministic_given_seed() {
    let (_, _, a) = optimize_generated(4, Topology::Chain, 1, 99);
    let (_, _, b) = optimize_generated(4, Topology::Chain, 1, 99);
    assert_eq!(a.stats.plans_created, b.stats.plans_created);
    assert_eq!(a.stats.lps_solved_query, b.stats.lps_solved_query);
    assert_eq!(a.plans.len(), b.plans.len());
}

#[test]
fn fees_ordering_invariant() {
    // Figure 7 economics: among frontier plans at a fixed point, the
    // fastest plan never has the lowest fees when a real trade-off exists
    // (the frontier is sorted inversely on the two metrics).
    let (_, space, solution) = optimize_generated(4, Topology::Chain, 1, 7);
    for xv in [0.2, 0.8] {
        let mut frontier = solution.frontier_at(&space, &[xv]);
        frontier
            .sort_by(|(_, a), (_, b)| a[METRIC_TIME].partial_cmp(&b[METRIC_TIME]).expect("finite"));
        for pair in frontier.windows(2) {
            assert!(
                pair[0].1[METRIC_FEES] >= pair[1].1[METRIC_FEES] - 1e-12,
                "frontier not inversely ordered at {xv}"
            );
        }
    }
}
