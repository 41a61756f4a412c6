//! Regenerates the paper's illustrative figures and analysis claims that
//! are not covered by `fig12` or `table1`:
//!
//! * `fig1`  — Pareto frontiers of a precomputed plan set at two
//!   parameter points (Scenario 1);
//! * `fig4` / `fig5` / `fig6` — the Section 4 counterexample tables;
//! * `fig7`  — the pruning illustration: the parallel join's relevance
//!   region after comparison with the single-node join;
//! * `fig10` — cutout subtraction on relevance regions;
//! * `fig11` — adding PWL functions per linear region;
//! * `bound` — the §6.3 expected-Pareto-set-size bound 2^((nX+1)·nM);
//! * `pq_vs_mpq` — the §1.1 argument: single-metric PQ result sets miss
//!   the trade-offs MPQ retains.
//!
//! Usage: cargo run --release -p mpq-bench --bin figures -- [all|fig1|…]

use mpq_bench::counterexamples::{figure4_plans, figure5_plans, figure6_plans, pareto_at};
use mpq_catalog::generator::{generate, GeneratorConfig};
use mpq_catalog::graph::Topology;
use mpq_cloud::model::{CloudCostModel, ParametricCostModel};
use mpq_cloud::{METRIC_FEES, METRIC_TIME};
use mpq_core::baselines::pq::optimize_pq;
use mpq_core::grid_space::GridSpace;
use mpq_core::pareto::pareto_indices;
use mpq_core::rrpa::optimize;
use mpq_core::space::MpqSpace;
use mpq_core::OptimizerConfig;
use mpq_cost::{GridCost, LinearFn};
use mpq_geometry::grid::ParamGrid;
use mpq_geometry::Polytope;
use mpq_lp::LpCtx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn fig1() {
    println!("== Figure 1: Pareto frontiers at two points of the parameter space ==");
    let mut query = generate(
        &GeneratorConfig::paper(4, Topology::Star, 2),
        &mut StdRng::seed_from_u64(19),
    );
    for t in &mut query.tables {
        t.rows = t.rows.max(40_000.0);
    }
    let model = CloudCostModel::default();
    let config = OptimizerConfig::default_for(2);
    let space = GridSpace::for_unit_box(2, &config, 2).expect("grid");
    let sol = optimize(&query, &model, &space, &config);
    println!(
        "plan set: {} plans precomputed for [0,1]^2",
        sol.plans.len()
    );
    for x in [[0.15, 0.30], [0.85, 0.70]] {
        let mut frontier = sol.frontier_at(&space, &x);
        frontier
            .sort_by(|(_, a), (_, b)| a[METRIC_TIME].partial_cmp(&b[METRIC_TIME]).expect("finite"));
        println!("\nPareto frontier at x = {x:?} (time s, fees USD):");
        for (i, (_, c)) in frontier.iter().enumerate() {
            println!(
                "  p{}: ({:.3}, {:.6})",
                i + 1,
                c[METRIC_TIME],
                c[METRIC_FEES]
            );
        }
    }
    println!();
}

fn fig456() {
    println!("== Figures 4-6: Section 4 counterexamples ==");
    let f4 = figure4_plans();
    println!("Figure 4 Pareto table:");
    for (lo, hi) in [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)] {
        println!(
            "  [{lo:.0}, {hi:.0}]: {:?}",
            pareto_at(&f4, &[(lo + hi) / 2.0])
        );
    }
    let f5 = figure5_plans();
    println!("Figure 5: Plan 2 Pareto region membership probes:");
    for p in [[1.5, 0.1], [0.1, 1.5], [0.8, 0.8]] {
        println!("  {:?}: {}", p, pareto_at(&f5, &p).contains(&"Plan 2"));
    }
    let f6 = figure6_plans();
    println!("Figure 6 Pareto table:");
    for (lo, hi) in [(0.0, 0.5), (0.5, 1.5), (1.5, 2.0)] {
        println!(
            "  [{lo:.1}, {hi:.1}]: {:?}",
            pareto_at(&f6, &[(lo + hi) / 2.0])
        );
    }
    println!();
}

fn fig7() {
    println!("== Figure 7: pruning shrinks the parallel plan's relevance region ==");
    // The paper's idealised two-plan setting: plan 1 (single-node join) is
    // better on both metrics for selectivity < 0.25.
    let config = OptimizerConfig {
        grid_resolution: 8,
        ..OptimizerConfig::default_for(1)
    };
    let space = GridSpace::for_unit_box(1, &config, 2).expect("grid");
    let plan1 = space.lift(&|x: &[f64]| vec![4.0 * x[0], x[0]]);
    let plan2 = space.lift(&|x: &[f64]| vec![x[0] + 0.75, 2.0 * x[0] + 1.0]);
    let mut rr2 = space.full_region();
    println!("relevance region of plan 2 after creation: [0, 1]");
    space.subtract_dominated(&mut rr2, &plan2, &plan1, false);
    // Probe the region on a fine grid to report the surviving interval.
    let mut lo = None;
    let mut hi = None;
    for step in 0..=1000 {
        let x = step as f64 / 1000.0;
        if space.region_contains(&rr2, &[x]) {
            lo.get_or_insert(x);
            hi = Some(x);
        }
    }
    println!(
        "relevance region of plan 2 after pruning with plan 1: [{:.3}, {:.3}] (paper: [0.25, 1])",
        lo.expect("region non-empty"),
        hi.expect("region non-empty")
    );
    println!();
}

fn fig10() {
    println!("== Figure 10: polytopes are subtracted by adding them as cutouts ==");
    let ctx = LpCtx::new();
    let region = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
    // The figure's triangle cutout: x1 + x2 <= 0.8 within the square.
    let cutout = Polytope::from_inequalities(
        2,
        vec![
            (vec![-1.0, 0.0], 0.0),
            (vec![0.0, -1.0], 0.0),
            (vec![1.0, 1.0], 0.8),
        ],
    );
    let pieces = mpq_geometry::subtract(&ctx, &region, &cutout);
    println!(
        "unit square minus triangle: represented as complement of 1 cutout;\n\
         explicit decomposition of the difference has {} convex pieces",
        pieces.len()
    );
    for (i, p) in pieces.iter().enumerate() {
        let (lo, hi) = p.bounding_box(&ctx).expect("bounded piece");
        println!(
            "  piece {}: bounding box [{:.2},{:.2}] x [{:.2},{:.2}]",
            i + 1,
            lo[0],
            hi[0],
            lo[1],
            hi[1]
        );
    }
    println!(
        "emptiness: region minus cutout empty? {} (correct: the triangle\n\
         does not cover the square)",
        mpq_geometry::difference_is_empty(&ctx, &region, std::slice::from_ref(&cutout))
    );
    println!();
}

fn fig11() {
    println!("== Figure 11: adding PWL functions per linear region ==");
    let grid = Arc::new(ParamGrid::new(&[0.0, 0.0], &[1.0, 1.0], 1).expect("grid"));
    println!(
        "shared triangulation: {} simplices over [0,1]^2",
        grid.num_simplices()
    );
    let f = GridCost::new(
        Arc::clone(&grid),
        vec![vec![
            LinearFn::new(vec![1.0, 2.0], 0.0),
            LinearFn::new(vec![3.0, 2.0], 0.0),
        ]],
    );
    let g = GridCost::new(
        Arc::clone(&grid),
        vec![vec![
            LinearFn::new(vec![0.0, 2.0], 1.0),
            LinearFn::new(vec![1.0, 3.0], 1.0),
        ]],
    );
    let sum = f.add(&g);
    for s in 0..grid.num_simplices() {
        let (a, b, c) = (f.piece(0, s), g.piece(0, s), sum.piece(0, s));
        println!(
            "  simplex {s}: ({:?}) + ({:?}) = ({:?})  [weights add]",
            a.w, b.w, c.w
        );
    }
    println!();
}

/// §6.3: the expected number of Pareto plans per table set is governed by
/// `l = (nX+1)·nM` — a plan's cost function is a point in l-dimensional
/// weight space, and only p.v.i.-undominated points survive pruning. We
/// measure the average number of surviving plans for growing `l` with
/// uniform random weights and confirm the exponential dependence. (The
/// paper's concrete `2^l` constant stems from Ganguly et al.'s
/// distributional model; uniform weights share the growth shape, not the
/// constant.)
fn bound() {
    println!("== §6.3: Pareto-set size grows exponentially in l = (nX+1)*nM ==");
    let mut rng = StdRng::seed_from_u64(63);
    let trials = 200;
    let plans_per_trial = 64;
    let mut averages = Vec::new();
    for (nx, nm) in [(0usize, 2usize), (1, 2), (2, 2), (1, 3)] {
        let l = (nx + 1) * nm;
        let mut total_kept = 0usize;
        for _ in 0..trials {
            // Random linear cost functions: weights uniform in [0, 1].
            let plans: Vec<Vec<LinearFn>> = (0..plans_per_trial)
                .map(|_| {
                    (0..nm)
                        .map(|_| {
                            LinearFn::new(
                                (0..nx).map(|_| rng.gen_range(0.0..1.0)).collect(),
                                rng.gen_range(0.0..1.0),
                            )
                        })
                        .collect()
                })
                .collect();
            // Keep plans not dominated p.v.i. (the §6.3 criterion).
            let kept = (0..plans_per_trial)
                .filter(|&i| {
                    !(0..plans_per_trial).any(|j| {
                        j != i
                            && plans[j]
                                .iter()
                                .zip(&plans[i])
                                .all(|(a, b)| a.dominates_pvi(b, 1e-12))
                    })
                })
                .count();
            total_kept += kept;
        }
        let avg = total_kept as f64 / trials as f64;
        println!(
            "  nX={nx} nM={nm} (l={l}): avg p.v.i.-undominated plans = {avg:.1} \
             of {plans_per_trial} (paper reference bound 2^l = {})",
            1u64 << l
        );
        averages.push((l, avg));
    }
    // Configurations may share an `l` ((2, 2) and (1, 3) both give 6),
    // and §6.3 orders nothing among them: every average at an `l` must
    // exceed every average at the next smaller `l`.
    averages.sort_by_key(|&(l, _)| l);
    for &(l, avg) in &averages {
        let next = averages.iter().map(|&(k, _)| k).find(|&k| k > l);
        for &(k, larger) in averages.iter().filter(|&&(k, _)| Some(k) == next) {
            assert!(
                avg < larger,
                "Pareto-set size must grow with l: {avg} at l = {l}, {larger} at l = {k}"
            );
        }
    }
    println!("  -> retained-set size grows steeply with l, as §6.3 predicts.\n");
}

/// §1.1: single-metric PQ result sets cannot answer multi-objective
/// questions; MPQ covers both per-metric optima and the trade-offs.
fn pq_vs_mpq() {
    println!("== §1.1: PQ result sets vs the MPQ result set ==");
    let mut query = generate(
        &GeneratorConfig::paper(4, Topology::Chain, 1),
        &mut StdRng::seed_from_u64(2),
    );
    for t in &mut query.tables {
        t.rows = 90_000.0;
    }
    let model = CloudCostModel::default();
    let config = OptimizerConfig::default_for(1);

    let space = GridSpace::for_unit_box(1, &config, model.num_metrics()).expect("grid");
    let mpq = optimize(&query, &model, &space, &config);
    let (t_space, pq_time) = optimize_pq(&query, &model, METRIC_TIME, &config);
    let (f_space, pq_fees) = optimize_pq(&query, &model, METRIC_FEES, &config);
    println!(
        "result-set sizes: MPQ = {}, PQ(time) = {}, PQ(fees) = {}",
        mpq.plans.len(),
        pq_time.plans.len(),
        pq_fees.plans.len()
    );

    // At a probe point: the MPQ frontier vs what each PQ set offers when
    // re-evaluated on both metrics.
    let x = [0.9];
    let frontier = mpq.frontier_at(&space, &x);
    let both = |sol: &mpq_core::rrpa::MpqSolution<GridSpace>, sp: &GridSpace| -> Vec<Vec<f64>> {
        sol.relevant_plans(sp, &x)
            .map(|p| mpq_core::validate::exact_plan_cost(&query, &model, &sol.arena, p.plan, &x))
            .collect()
    };
    let time_set = both(&pq_time, &t_space);
    let fees_set = both(&pq_fees, &f_space);
    let frontier_sizes = (
        frontier.len(),
        pareto_indices(&time_set).len(),
        pareto_indices(&fees_set).len(),
    );
    println!(
        "at x = {:?}: MPQ offers {} trade-off(s); PQ(time) plans span {} \
         frontier point(s); PQ(fees) {}",
        x, frontier_sizes.0, frontier_sizes.1, frontier_sizes.2
    );
    println!(
        "-> each PQ set optimizes one metric; only the MPQ set carries the\n\
         \u{20}  full time/fees frontier for every parameter value.\n"
    );
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match arg.as_str() {
        "fig1" => fig1(),
        "fig4" | "fig5" | "fig6" => fig456(),
        "fig7" => fig7(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "bound" => bound(),
        "pq_vs_mpq" => pq_vs_mpq(),
        "all" => {
            fig1();
            fig456();
            fig7();
            fig10();
            fig11();
            bound();
            pq_vs_mpq();
        }
        other => {
            eprintln!("unknown figure: {other}");
            eprintln!("usage: figures [all|fig1|fig4|fig5|fig6|fig7|fig10|fig11|bound|pq_vs_mpq]");
            std::process::exit(2);
        }
    }
}
