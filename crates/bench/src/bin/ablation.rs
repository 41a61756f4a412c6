//! Ablation study of the optimizer's refinements.
//!
//! Section 6.2 of the paper: "those refinements led to significant
//! performance improvements in our experiments" — this harness quantifies
//! each one by disabling it individually:
//!
//! * relevance points (refinement 3),
//! * redundant-cutout removal (refinement 2),
//! * redundant-constraint removal (refinement 1),
//! * the §6.3-style p.v.i./vertex-dominance fast path,
//! * Cartesian-product postponement (§7),
//!
//! plus a grid-resolution sweep quantifying the PWL approximation
//! cost/precision trade-off.
//!
//! Usage: cargo run --release -p mpq-bench --bin ablation [-- --quick]

use mpq_bench::fig12_row;
use mpq_catalog::graph::Topology;
use mpq_core::OptimizerConfig;

struct Variant {
    name: &'static str,
    config: OptimizerConfig,
}

fn variants(base: &OptimizerConfig) -> Vec<Variant> {
    vec![
        Variant {
            name: "baseline (all refinements)",
            config: base.clone(),
        },
        Variant {
            name: "no relevance points",
            config: OptimizerConfig {
                relevance_points: false,
                ..base.clone()
            },
        },
        Variant {
            name: "no redundant-cutout removal",
            config: OptimizerConfig {
                redundant_cutout_removal: false,
                ..base.clone()
            },
        },
        Variant {
            name: "no redundant-constraint removal",
            config: OptimizerConfig {
                redundant_constraint_removal: false,
                ..base.clone()
            },
        },
        Variant {
            name: "no vertex-dominance fast path",
            config: OptimizerConfig {
                pvi_fastpath: false,
                ..base.clone()
            },
        },
        Variant {
            name: "no Cartesian postponement",
            config: OptimizerConfig {
                postpone_cartesian: false,
                ..base.clone()
            },
        },
    ]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds = if quick { 5 } else { 15 };
    let tables = if quick { 6 } else { 8 };

    println!("# Ablation study — chain and star queries, {tables} tables, 1 parameter");
    println!("# medians over {seeds} random queries\n");

    for topology in [Topology::Chain, Topology::Star] {
        println!("## {topology} queries");
        println!(
            "{:<34} {:>12} {:>14} {:>12}",
            "variant", "time_ms", "plans_created", "lps_solved"
        );
        let base = OptimizerConfig::default_for(1);
        for v in variants(&base) {
            let row = fig12_row(tables, topology, 1, seeds, &v.config);
            println!(
                "{:<34} {:>12.1} {:>14.0} {:>12.0}",
                v.name, row.time_ms, row.plans_created, row.lps_solved
            );
        }
        println!();
    }

    println!("## Grid resolution sweep (chain, {tables} tables, 1 parameter)");
    println!(
        "{:<12} {:>12} {:>14} {:>12} {:>12}",
        "resolution", "time_ms", "plans_created", "lps_solved", "final_plans"
    );
    for resolution in [2usize, 4, 8, 16] {
        let config = OptimizerConfig {
            grid_resolution: resolution,
            ..OptimizerConfig::default_for(1)
        };
        let row = fig12_row(tables, Topology::Chain, 1, seeds, &config);
        println!(
            "{:<12} {:>12.1} {:>14.0} {:>12.0} {:>12.0}",
            resolution, row.time_ms, row.plans_created, row.lps_solved, row.final_plans
        );
    }
    println!(
        "\n# Finer grids approximate non-linear cost functions better but\n\
         # multiply simplices (and with them geometry work) linearly."
    );
}
