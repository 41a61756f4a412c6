//! Empirical validation of the Pareto-plan-set guarantee.
//!
//! Theorem 3 of the paper proves RRPA returns a complete PPS; this module
//! re-checks the guarantee on concrete runs by comparing against the
//! fixed-parameter multi-objective DP (`baselines::mq`), which computes the
//! exact Pareto frontier at a point.
//!
//! # Exactness at grid vertices
//!
//! Grid-space cost functions interpolate operator cost closures linearly
//! per simplex, **exactly at grid vertices**; accumulated plan costs are
//! sums of interpolants, so they are exact at grid vertices too. The
//! completeness check is therefore *strict* at grid vertices and holds up
//! to the PWL approximation error elsewhere (use
//! [`check_pps_at`] with a relative tolerance for off-vertex points).

use crate::plan::{PlanArena, PlanId, PlanNode};
use crate::rrpa::MpqSolution;
use crate::space::MpqSpace;
use mpq_catalog::Query;
use mpq_cloud::model::ParametricCostModel;

/// Recomputes the **exact** (closure-based, non-interpolated) cost vector
/// of a plan at `x` by walking the operator tree and summing operator
/// costs.
///
/// # Panics
/// Panics if the model does not offer the plan's operator for the plan's
/// operand sets (cannot happen for plans produced from the same model).
pub fn exact_plan_cost<M: ParametricCostModel + ?Sized>(
    query: &Query,
    model: &M,
    arena: &PlanArena,
    plan: PlanId,
    x: &[f64],
) -> Vec<f64> {
    match arena.node(plan) {
        PlanNode::Scan { table, op } => {
            let alt = model
                .scan_alternatives(query, table)
                .into_iter()
                .find(|a| a.op == op)
                .expect("plan's scan operator offered by the model");
            (alt.cost)(x)
        }
        PlanNode::Join { op, left, right } => {
            let lc = exact_plan_cost(query, model, arena, left, x);
            let rc = exact_plan_cost(query, model, arena, right, x);
            let alt = model
                .join_alternatives(query, arena.tables(left), arena.tables(right))
                .into_iter()
                .find(|a| a.op == op)
                .expect("plan's join operator offered by the model");
            let jc = (alt.cost)(x);
            lc.iter()
                .zip(&rc)
                .zip(&jc)
                .map(|((a, b), j)| a + b + j)
                .collect()
        }
    }
}

/// `a` dominates `b` within a relative tolerance (plus an absolute floor).
fn dominates_rel(a: &[f64], b: &[f64], rel: f64) -> bool {
    a.iter().zip(b).all(|(x, y)| *x <= *y * (1.0 + rel) + 1e-9)
}

/// Checks the PPS property at one parameter point: every plan on the exact
/// Pareto frontier (computed by the fixed-parameter DP) must be dominated,
/// within `rel_tol`, by some solution plan relevant at `x` — evaluated with
/// **exact** closure costs.
///
/// Use `rel_tol = 0` (or tiny) at grid vertices; allow the PWL
/// approximation error (a few percent, shrinking with grid resolution)
/// elsewhere.
pub fn check_pps_at<S: MpqSpace, M: ParametricCostModel + ?Sized>(
    solution: &MpqSolution<S>,
    space: &S,
    query: &Query,
    model: &M,
    x: &[f64],
    rel_tol: f64,
    postpone_cartesian: bool,
) -> Result<(), String> {
    let truth = crate::baselines::mq::optimize_at(query, model, x, postpone_cartesian);
    let candidates: Vec<Vec<f64>> = solution
        .relevant_plans(space, x)
        .map(|p| exact_plan_cost(query, model, &solution.arena, p.plan, x))
        .collect();
    if candidates.is_empty() {
        return Err(format!("no relevant plan at {x:?}"));
    }
    for (plan, target) in &truth.frontier {
        if !candidates.iter().any(|c| dominates_rel(c, target, rel_tol)) {
            return Err(format!(
                "frontier plan {} with cost {:?} at {:?} is not covered \
                 (best candidates: {:?})",
                truth.arena.display(*plan, query),
                target,
                x,
                candidates
            ));
        }
    }
    Ok(())
}

/// Runs [`check_pps_at`] strictly (tiny tolerance) at every grid vertex of
/// the space's parameter box lattice with `points_per_axis` points, and
/// loosely (`off_vertex_rel_tol`) at cell midpoints.
#[allow(clippy::too_many_arguments)]
pub fn check_pps_on_lattice<S: MpqSpace, M: ParametricCostModel + ?Sized>(
    solution: &MpqSolution<S>,
    space: &S,
    query: &Query,
    model: &M,
    vertex_points: &[Vec<f64>],
    off_vertex_points: &[Vec<f64>],
    off_vertex_rel_tol: f64,
    postpone_cartesian: bool,
) -> Result<(), String> {
    for x in vertex_points {
        check_pps_at(solution, space, query, model, x, 1e-7, postpone_cartesian)?;
    }
    for x in off_vertex_points {
        check_pps_at(
            solution,
            space,
            query,
            model,
            x,
            off_vertex_rel_tol,
            postpone_cartesian,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid_space::GridSpace;
    use crate::rrpa::optimize;
    use crate::OptimizerConfig;
    use mpq_catalog::generator::{generate, GeneratorConfig};
    use mpq_catalog::graph::Topology;
    use mpq_cloud::model::CloudCostModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_cost_agrees_with_grid_cost_at_vertices() {
        let query = generate(
            &GeneratorConfig::paper(3, Topology::Chain, 1),
            &mut StdRng::seed_from_u64(6),
        );
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(1);
        let space = GridSpace::for_unit_box(1, &config, 2).unwrap();
        let sol = optimize(&query, &model, &space, &config);
        for v in space.grid().vertex_points() {
            for p in &sol.plans {
                let grid_cost = space.eval(&p.cost, &v);
                let exact = exact_plan_cost(&query, &model, &sol.arena, p.plan, &v);
                for (g, e) in grid_cost.iter().zip(&exact) {
                    assert!(
                        (g - e).abs() <= 1e-6 * (1.0 + e.abs()),
                        "grid {g} vs exact {e} at vertex {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pps_completeness_chain_one_param() {
        for seed in [1, 5, 9] {
            let query = generate(
                &GeneratorConfig::paper(4, Topology::Chain, 1),
                &mut StdRng::seed_from_u64(seed),
            );
            let model = CloudCostModel::default();
            let config = OptimizerConfig::default_for(1);
            let space = GridSpace::for_unit_box(1, &config, 2).unwrap();
            let sol = optimize(&query, &model, &space, &config);
            let vertices = space.grid().vertex_points();
            let midpoints = vec![vec![0.07], vec![0.33], vec![0.81]];
            check_pps_on_lattice(
                &sol, &space, &query, &model, &vertices, &midpoints, 0.05, true,
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn pps_completeness_star_two_params() {
        let query = generate(
            &GeneratorConfig::paper(4, Topology::Star, 2),
            &mut StdRng::seed_from_u64(13),
        );
        let model = CloudCostModel::default();
        let config = OptimizerConfig::default_for(2);
        let space = GridSpace::for_unit_box(2, &config, 2).unwrap();
        let sol = optimize(&query, &model, &space, &config);
        let vertices = space.grid().vertex_points();
        let midpoints = vec![vec![0.1, 0.9], vec![0.6, 0.4]];
        check_pps_on_lattice(
            &sol, &space, &query, &model, &vertices, &midpoints, 0.05, true,
        )
        .unwrap();
    }
}
