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
//!
//! The ignored test pins the answers of the heavy 2-D grid queries
//! (plans created, final plans, a frontier digest) and runs in release:
//! `cargo test --release -p mpq-core --test kernel_counters -- --ignored`.

mod common;

use common::frontier_digest;
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
        ("grid", 6, 2, 1, 2, 4, (2_484, 111, 8_103,
            [(407_233, 32), (59_253, 6_331), (11_667, 1_740), (0, 0)])),
        ("pwl", 2, 2, 0, 2, 4, (20, 7, 7_772,
            [(54_459, 78), (0, 0), (1_344, 182), (218_962, 7_512)])),
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

/// The heavy tail of 2-D grid queries at the default resolution, pinned
/// by `(plans_created, final_plans, frontier digest)`, the digest over
/// the frontiers at a 5×5 probe lattice. chain-8/2 seed 2 (about 100 s)
/// and star-7/2 seed 0 (about 15 s) are left out for time only.
#[test]
#[ignore = "heavy: about 15 s in release; run with `--release -- --ignored`"]
fn heavy_tail_answers_are_pinned() {
    /// `(topology, tables, seed, (plans_created, final_plans, digest))`.
    type Row = (&'static str, usize, u64, (u64, usize, u64));
    #[rustfmt::skip]
    const PINS: &[Row] = &[
        ("chain", 7, 0, (4_785, 313, 2104075193347960600)),
        ("chain", 7, 1, (3_569, 93, 16303927767974887307)),
        ("chain", 7, 3, (2_073, 48, 10082876397346755008)),
        ("chain", 7, 4, (3_237, 98, 14615440487992222173)),
        ("chain", 8, 0, (7_174, 168, 12082809097979185052)),
        ("chain", 8, 1, (6_314, 108, 15246765901546726621)),
        ("chain", 8, 3, (4_070, 67, 12757393463033443413)),
        ("star", 6, 0, (6_000, 267, 10374379750278014014)),
        ("star", 6, 1, (2_704, 68, 6984339101877234605)),
        ("star", 6, 2, (4_756, 254, 1923888307591508319)),
    ];
    const COORDS: [f64; 5] = [0.0, 0.15, 0.5, 0.85, 1.0];
    let model = CloudCostModel::default();
    let config = OptimizerConfig::default_for(2);
    let actual: Vec<Row> = PINS
        .iter()
        .map(|&(topology, tables, seed, _)| {
            let topo = if topology == "star" {
                Topology::Star
            } else {
                Topology::Chain
            };
            let query = generate(
                &GeneratorConfig::paper(tables, topo, 2),
                &mut StdRng::seed_from_u64(seed),
            );
            let space = GridSpace::for_unit_box(2, &config, model.num_metrics()).expect("grid");
            let sol = optimize(&query, &model, &space, &config);
            let frontiers: Vec<_> = COORDS
                .iter()
                .flat_map(|&x| COORDS.map(|y| sol.frontier_at(&space, &[x, y])))
                .collect();
            let pin = (
                sol.stats.plans_created,
                sol.stats.final_plan_count,
                frontier_digest(&frontiers),
            );
            (topology, tables, seed, pin)
        })
        .collect();
    let rendered: Vec<String> = actual.iter().map(|row| format!("{row:?},")).collect();
    assert_eq!(
        actual.as_slice(),
        PINS,
        "heavy-tail answers moved; the current rows are:\n{}",
        rendered.join("\n")
    );
}
