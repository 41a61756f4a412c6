//! Regenerates **Figure 12** of the paper: optimization time, number of
//! created plans, and number of solved linear programs as functions of the
//! number of tables — for chain and star queries, with one and two
//! parameters. Each data point is the median over 25 randomly generated
//! queries (Steinbrunn-style generation, Cloud cost model), exactly as in
//! Section 7 of the paper.
//!
//! Usage:
//!   cargo run --release -p mpq-bench --bin fig12            # full sweep
//!   cargo run --release -p mpq-bench --bin fig12 -- --quick # small sweep
//!
//! Absolute numbers differ from the paper (different hardware, language,
//! LP solver and PWL backend); the *shape* — exponential growth in the
//! table count, star slower than chain, two parameters slower than one,
//! and time ∝ plans ∝ LPs — is the reproduction target.

use mpq_bench::{fig12_row, Fig12Row};
use mpq_catalog::graph::Topology;
use mpq_core::OptimizerConfig;

fn print_block(title: &str, rows: &[Fig12Row]) {
    println!("\n## {title}");
    println!(
        "{:>7} {:>14} {:>16} {:>14} {:>13}",
        "tables", "time_ms(med)", "plans_created", "lps_solved", "final_plans"
    );
    for r in rows {
        println!(
            "{:>7} {:>14.1} {:>16.0} {:>14.0} {:>13.0}",
            r.num_tables, r.time_ms, r.plans_created, r.lps_solved, r.final_plans
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Env overrides for partial/custom sweeps, e.g.
    //   MPQ_FIG12_SEEDS=15 MPQ_FIG12_MAX=0,7,9,6 (chain1,chain2,star1,star2;
    //   0 skips the block).
    let seeds = std::env::var("MPQ_FIG12_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 5 } else { 25 });
    let max_override: Option<Vec<usize>> = std::env::var("MPQ_FIG12_MAX")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect());
    println!("# Figure 12 reproduction — PWL-RRPA on random queries");
    println!(
        "# medians over {seeds} random queries per point; Cloud cost model \
         (time x fees); one query at a time"
    );

    for (topology, tname) in [
        (Topology::Chain, "Chain queries"),
        (Topology::Star, "Star queries"),
    ] {
        for num_params in [1usize, 2] {
            // Sweep limits: the paper reaches 12 tables (1 param) and 10
            // tables (2 params). Two-parameter queries have a heavy tail
            // here (on a 2-core x86-64 host, chain-8/2 ranges from 0.3 to
            // 95 s per query over seeds 0-9, and star-8/2 seed 0 takes
            // 81 s), so the default sweep stops at 8 chain and 7 star
            // tables with 2 parameters.
            let block_idx = match (topology, num_params) {
                (Topology::Chain, 1) => 0,
                (Topology::Chain, _) => 1,
                (_, 1) => 2,
                (_, _) => 3,
            };
            let max_tables = max_override
                .as_ref()
                .and_then(|m| m.get(block_idx).copied())
                .unwrap_or(match (quick, topology, num_params) {
                    (true, _, 1) => 8,
                    (true, _, _) => 6,
                    (false, Topology::Chain, 1) => 12,
                    (false, _, 1) => 10,
                    (false, Topology::Chain, _) => 8,
                    (false, _, _) => 7,
                });
            if max_tables < 2 {
                continue; // block skipped by override
            }
            let config = OptimizerConfig::default_for(num_params);
            let mut rows = Vec::new();
            for n in 2..=max_tables {
                let row = fig12_row(n, topology, num_params.min(n), seeds, &config);
                eprintln!(
                    "  [{tname}, {num_params} param] n={n}: time={:.1}ms plans={:.0} lps={:.0}",
                    row.time_ms, row.plans_created, row.lps_solved
                );
                rows.push(row);
            }
            print_block(&format!("{tname}, {num_params} parameter(s)"), &rows);
        }
    }
    println!(
        "\n# Shape checks (paper): all three metrics correlated and growing in\n\
         # tables and in parameters; star >= chain for the same size."
    );
}
