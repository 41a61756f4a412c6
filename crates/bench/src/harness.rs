//! Experiment execution for the paper binaries: single runs, seed
//! sweeps and medians. The repository's performance numbers come from
//! the separate `mpqbench` package, not from this crate.
//!
//! A seed sweep runs its queries one at a time, as the paper's
//! evaluation does (§7), so no run's wall time includes contention from
//! another.

use mpq_catalog::generator::{generate, GeneratorConfig};
use mpq_catalog::graph::Topology;
use mpq_cloud::model::{CloudCostModel, ParametricCostModel};
use mpq_core::grid_space::GridSpace;
use mpq_core::rrpa::optimize;
use mpq_core::OptimizerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    let query = generate(
        &GeneratorConfig::paper(num_tables, topology, num_params),
        &mut StdRng::seed_from_u64(seed),
    );
    let model = CloudCostModel::default();
    let space = GridSpace::for_unit_box(num_params, config, model.num_metrics())
        .expect("valid grid configuration");
    let stats = optimize(&query, &model, &space, config).stats;
    RunRecord {
        time_ms: stats.elapsed.as_secs_f64() * 1e3,
        plans_created: stats.plans_created,
        lps_solved: stats.lps_solved_query,
        final_plans: stats.final_plan_count,
    }
}

/// Median of a float sample (empty samples yield NaN; NaN entries sort
/// last).
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

/// Runs the seed sweep for one configuration, one query at a time, and
/// returns the per-seed records in seed order.
pub fn sweep_records(
    num_tables: usize,
    topology: Topology,
    num_params: usize,
    seeds: usize,
    config: &OptimizerConfig,
) -> Vec<RunRecord> {
    (0..seeds as u64)
        .map(|seed| run_once(num_tables, topology, num_params, seed, config))
        .collect()
}

/// Computes one Figure 12 row from a seed sweep.
pub fn fig12_row(
    num_tables: usize,
    topology: Topology,
    num_params: usize,
    seeds: usize,
    config: &OptimizerConfig,
) -> Fig12Row {
    let records = sweep_records(num_tables, topology, num_params, seeds, config);
    let med = |f: fn(&RunRecord) -> f64| median(&mut records.iter().map(f).collect::<Vec<_>>());
    Fig12Row {
        num_tables,
        time_ms: med(|r| r.time_ms),
        plans_created: med(|r| r.plans_created as f64),
        lps_solved: med(|r| r.lps_solved as f64),
        final_plans: med(|r| r.final_plans as f64),
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
}
