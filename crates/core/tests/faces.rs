//! Queries with fewer parameters than their space run in the space's face
//! over their own axes (`MpqSpace::face`). These tests pin that the face
//! changes nothing a caller can see: the counters of the full-space run,
//! prism-shaped answers over the unused axes, completeness at any point
//! of the full box, and session caches that never hand one face's lifts or
//! subtrees to another.

use mpq_catalog::generator::{generate, GeneratorConfig};
use mpq_catalog::graph::Topology;
use mpq_catalog::{Query, Selectivity};
use mpq_cloud::model::CloudCostModel;
use mpq_core::baselines::exhaustive;
use mpq_core::grid_space::GridSpace;
use mpq_core::rrpa::{optimize, MpqSolution};
use mpq_core::session::{OptimizerSession, SessionConfig};
use mpq_core::validate::{check_pps_at, exact_plan_cost};
use mpq_core::OptimizerConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn query(n: usize, topology: Topology, params: usize, seed: u64) -> Query {
    generate(
        &GeneratorConfig::paper(n, topology, params),
        &mut StdRng::seed_from_u64(seed),
    )
}

fn config(dim: usize, resolution: usize) -> OptimizerConfig {
    OptimizerConfig {
        grid_resolution: resolution,
        ..OptimizerConfig::default_for(dim)
    }
}

/// Counters of queries run in a higher-dimensional space, measured before
/// faces existed (every query then ran in the full space). The face must
/// reproduce each row.
#[test]
fn face_runs_keep_full_space_counters() {
    let model = CloudCostModel::default();
    for (dim, topology, n, params, seed, created, pruned, final_plans) in [
        (2, Topology::Chain, 4, 1, 1, 133, 96, 15),
        (2, Topology::Star, 4, 1, 2, 117, 89, 7),
        (2, Topology::Chain, 6, 1, 3, 839, 719, 27),
        (3, Topology::Chain, 3, 2, 1, 69, 39, 19),
        (3, Topology::Star, 4, 1, 4, 173, 136, 7),
    ] {
        let config = config(dim, 2);
        let space = GridSpace::for_unit_box(dim, &config, 2).unwrap();
        let sol = optimize(&query(n, topology, params, seed), &model, &space, &config);
        assert_eq!(
            (
                sol.stats.plans_created,
                sol.stats.plans_pruned,
                sol.stats.final_plan_count
            ),
            (created, pruned, final_plans),
            "{dim}-D space, {topology:?}-{n}/{params} seed {seed}"
        );
        assert_eq!(sol.dim, params, "solved in the query's face");
        let (checks, _) = space.emptiness_counters();
        assert!(checks > 0, "the face's emptiness checks are counted");
    }
}

/// A 1-parameter answer in a 2-D space is a prism: the frontier at
/// `(x0, y)` does not depend on `y`.
#[test]
fn face_answers_are_prisms_over_unused_axes() {
    let model = CloudCostModel::default();
    let config = config(2, 2);
    let space = GridSpace::for_unit_box(2, &config, 2).unwrap();
    let sol = optimize(&query(4, Topology::Chain, 1, 1), &model, &space, &config);
    for x0 in [0.0, 0.2, 0.5, 0.77, 1.0] {
        let at = |y: f64| sol.frontier_at(&space, &[x0, y]);
        let base = at(0.0);
        assert!(!base.is_empty(), "no frontier at x0 = {x0}");
        for y in [0.3, 1.0] {
            assert_eq!(at(y), base, "frontier moved along y at x0 = {x0}");
        }
    }
}

/// A face run keeps the Pareto-plan-set guarantee at random points of the
/// full 2-D box: strictly on the face's grid lines, within the PWL error
/// between them, against both the fixed-parameter DP and exhaustive
/// enumeration.
#[test]
fn face_runs_are_complete_over_the_full_box() {
    let model = CloudCostModel::default();
    let config = OptimizerConfig::default_for(2);
    let space = GridSpace::for_unit_box(2, &config, 2).unwrap();
    let query = query(3, Topology::Chain, 1, 5);
    let sol = optimize(&query, &model, &space, &config);
    let lines = config.grid_resolution as f64;
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..24 {
        let y: f64 = rng.gen_range(0.0..1.0);
        let (x, tol) = if i % 2 == 0 {
            let k = rng.gen_range(0..=config.grid_resolution) as f64;
            (vec![k / lines, y], 1e-7)
        } else {
            (vec![rng.gen_range(0.0..1.0), y], 0.05)
        };
        check_pps_at(&sol, &space, &query, &model, &x, tol, true)
            .unwrap_or_else(|e| panic!("at {x:?}: {e}"));
        let candidates: Vec<Vec<f64>> = sol
            .relevant_plans(&space, &x)
            .map(|p| exact_plan_cost(&query, &model, &sol.arena, p.plan, &x))
            .collect();
        for (_, target) in exhaustive::enumerate_at(&query, &model, &x, true).pareto_frontier() {
            assert!(
                candidates.iter().any(|c| c
                    .iter()
                    .zip(&target)
                    .all(|(a, b)| *a <= *b * (1.0 + tol) + 1e-9)),
                "exhaustive frontier cost {target:?} uncovered at {x:?}"
            );
        }
    }
}

/// Everything a caller can observe of a solution, bit for bit: counters,
/// plan ids, and frontiers (ids and costs) at probes of the full box.
fn fingerprint(space: &GridSpace, sol: &MpqSolution<GridSpace>) -> String {
    let probes = [[0.0, 0.0], [0.3, 0.9], [0.5, 0.5], [0.85, 0.1], [1.0, 1.0]];
    let frontiers: Vec<Vec<(u32, Vec<u64>)>> = probes
        .iter()
        .map(|x| {
            sol.frontier_at(space, x)
                .into_iter()
                .map(|(id, c)| (id.0, c.iter().map(|v| v.to_bits()).collect()))
                .collect()
        })
        .collect();
    let ids: Vec<u32> = sol.plans.iter().map(|p| p.plan.0).collect();
    format!(
        "{} {} {} {:?} {:?}",
        sol.stats.plans_created, sol.stats.plans_pruned, sol.stats.final_plan_count, ids, frontiers
    )
}

/// One session's lift and subtree caches serve both faces of a 2-D space
/// without crossing them. The 1-parameter query shares the 2-parameter
/// query's table statistics, so their scan and index-seek shapes collide;
/// in either order, each answer equals a fresh session's.
#[test]
fn session_caches_never_cross_faces() {
    let model = CloudCostModel::default();
    let config = OptimizerConfig::default_for(2);
    let two = query(4, Topology::Chain, 2, 1);
    let mut one = two.clone();
    one.num_params = 1;
    for p in &mut one.predicates {
        if let Selectivity::Param(1) = p.selectivity {
            p.selectivity = Selectivity::Fixed(0.5);
        }
    }
    let session = || {
        let space = GridSpace::for_unit_box(2, &config, 2).unwrap();
        OptimizerSession::with_config(
            space,
            &model,
            SessionConfig::new(config.clone()).with_subtree_cache(None),
        )
    };
    let fresh = |q: &Query| {
        let s = session();
        let print = fingerprint(s.space(), &s.optimize(q));
        (print, s.cached_shapes())
    };
    let ((fresh_one, lifts_one), (fresh_two, lifts_two)) = (fresh(&one), fresh(&two));
    for order in [[&two, &one], [&one, &two]] {
        let shared = session();
        for q in order {
            let expected = if q.num_params == 1 {
                &fresh_one
            } else {
                &fresh_two
            };
            assert_eq!(
                &fingerprint(shared.space(), &shared.optimize(q)),
                expected,
                "{}-parameter answer after a shared session's other face",
                q.num_params
            );
        }
        assert_eq!(
            shared.cached_shapes(),
            lifts_one + lifts_two,
            "each face keeps its own lifts"
        );
    }
}

/// A query needs a space with at least its parameter count.
#[test]
#[should_panic(expected = "query has 3 parameters, the space has 2")]
fn more_parameters_than_dimensions_panics() {
    let model = CloudCostModel::default();
    let config = OptimizerConfig::default_for(2);
    let space = GridSpace::for_unit_box(2, &config, 2).unwrap();
    optimize(&query(3, Topology::Chain, 3, 1), &model, &space, &config);
}
