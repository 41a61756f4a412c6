//! Debug helper: run one `(space, topology, tables, params, seed)`
//! configuration and print its counters plus the per-site LP breakdown —
//! the quickest way to check one query before and after a change (plans
//! must match seed for seed, as `mpqbench`'s pinned `fig12` counters do;
//! `lps_solved_query` and the breakdown show where a change moved the LP
//! tail). The run happens
//! under a live wall-clock `Obs` handle, so the output also includes the
//! per-DP-level span timings (wall, sets, plan/LP deltas) — where the
//! lattice actually spends its time, level by level.
//!
//! Usage: `run_one <grid|pwl> <chain|star> <tables> <params> <seed> [dim [resolution]]`,
//! e.g. `cargo run --release -p mpq-bench --bin run_one -- grid star 8 2 0`.
//! The optional `dim` runs the query in a `dim`-dimensional space (default:
//! `params`), so `run_one grid chain 4 1 1 2` optimizes a 1-parameter query
//! in the face of a 2-D grid; `resolution` overrides the grid resolution
//! (default: `OptimizerConfig::default_for(dim)`'s).

use mpq_catalog::generator::{generate, GeneratorConfig};
use mpq_catalog::graph::Topology;
use mpq_cloud::model::{CloudCostModel, ParametricCostModel};
use mpq_core::grid_space::GridSpace;
use mpq_core::pwl_space::PwlSpace;
use mpq_core::rrpa::optimize;
use mpq_core::OptimizerConfig;
use mpq_lp::FastPathSite;
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str =
    "usage: run_one <grid|pwl> <chain|star> <tables> <params> <seed> [dim [resolution]]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let numbers: Option<Vec<usize>> = args.iter().skip(2).map(|a| a.parse().ok()).collect();
    let (tables, params, seed, dim, resolution) = match (args.len(), numbers.as_deref()) {
        (5..=7, Some(&[tables, params, seed, ref rest @ ..])) => (
            tables,
            params,
            seed as u64,
            rest.first().copied().unwrap_or(params),
            rest.get(1).copied(),
        ),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let topology = if args[1] == "star" {
        Topology::Star
    } else {
        Topology::Chain
    };
    let mut config = OptimizerConfig::default_for(dim);
    if let Some(resolution) = resolution {
        config.grid_resolution = resolution;
    }
    let query = generate(
        &GeneratorConfig::paper(tables, topology, params),
        &mut StdRng::seed_from_u64(seed),
    );
    let model = CloudCostModel::default();
    let metrics = model.num_metrics();
    let obs = mpq_obs::Obs::wall();
    let _obs_guard = mpq_obs::install(&obs);
    let (stats, breakdown) = match args[0].as_str() {
        "grid" => {
            let space = GridSpace::for_unit_box(dim, &config, metrics).unwrap();
            let sol = optimize(&query, &model, &space, &config);
            (sol.stats, space.lp_ctx().fastpath_breakdown())
        }
        _ => {
            let space = PwlSpace::for_unit_box(dim, &config, metrics).unwrap();
            let sol = optimize(&query, &model, &space, &config);
            (sol.stats, space.lp_ctx().fastpath_breakdown())
        }
    };
    println!(
        "space={} topo={} n={} p={} seed={} dim={} res={}: time={:.0}ms plans={} lps={} final={}",
        args[0],
        args[1],
        tables,
        params,
        seed,
        dim,
        config.grid_resolution,
        stats.elapsed.as_secs_f64() * 1e3,
        stats.plans_created,
        stats.lps_solved_query,
        stats.final_plan_count
    );
    for site in FastPathSite::ALL {
        println!(
            "  {:>20}: fast={:>10} lp={:>10}",
            site.name(),
            breakdown.fast[site as usize],
            breakdown.lp[site as usize]
        );
    }
    println!("dp levels:");
    let field = |span: &mpq_obs::SpanRecord, key: &str| -> u64 {
        span.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    for span in obs.spans().iter().filter(|s| s.name == "dp_level") {
        println!(
            "  level {:>2}: {:>9.3}ms sets={:>6} plans_delta={:>8} lps_delta={:>8}",
            field(span, "level"),
            span.end_us.saturating_sub(span.start_us) as f64 / 1e3,
            field(span, "sets"),
            field(span, "plans_delta"),
            field(span, "lps_delta"),
        );
    }
}
