//! `fig12` and `fig12-par`: the paper's own protocol — single-query
//! `rrpa::optimize` over a fixed set of generated queries, one space per
//! (backend, parameter count) built during set-up. `fig12` runs at one
//! thread; `fig12-par` runs the 2-parameter grid subset at the library
//! default (threads unset), the only workload where the per-level and
//! per-simplex fan-out runs.
//!
//! The query set is fixed: the paper's generator at pinned seeds, with
//! the plan counters and a frontier digest of every answer pinned below.
//! The run's `--seed` permutes the order of each pass. `fig12-par` checks
//! its answers against the same pins, so its answers equal `fig12`'s bit
//! for bit.

use crate::check::{digest, probes};
use crate::common::{
    add_breakdown, finish_trace, ms, set_end_to_end, set_lp_layers, set_proc_layers, Measured,
    Opts, Segment, Window, SETUP_REPEATS,
};
use crate::procfs;
use crate::report::Report;
use crate::stats;
use mpq_catalog::generator::{generate, GeneratorConfig};
use mpq_catalog::graph::Topology;
use mpq_catalog::Query;
use mpq_cloud::model::{CloudCostModel, ParametricCostModel};
use mpq_core::grid_space::GridSpace;
use mpq_core::pwl_space::PwlSpace;
use mpq_core::rrpa::optimize;
use mpq_core::space::MpqSpace;
use mpq_core::OptimizerConfig;
use mpq_lp::FastPathBreakdown;
use mpq_net::wire::PlanSummary;
use mpq_obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Grid,
    Pwl,
}

/// One query of the fixed set and the answer it must produce.
struct Case {
    backend: Backend,
    topology: Topology,
    tables: usize,
    params: usize,
    seed: u64,
    plans_created: u64,
    final_plans: u64,
    digest: u64,
}

impl Case {
    fn query(&self) -> Query {
        generate(
            &GeneratorConfig::paper(self.tables, self.topology, self.params),
            &mut StdRng::seed_from_u64(self.seed),
        )
    }

    fn label(&self) -> String {
        format!(
            "{:?} {:?}-{}/{} seed {}",
            self.backend, self.topology, self.tables, self.params, self.seed
        )
    }
}

const fn case(
    backend: Backend,
    topology: Topology,
    tables: usize,
    params: usize,
    seed: u64,
    pin: (u64, u64, u64),
) -> Case {
    Case {
        backend,
        topology,
        tables,
        params,
        seed,
        plans_created: pin.0,
        final_plans: pin.1,
        digest: pin.2,
    }
}

use Backend::{Grid, Pwl};
use Topology::{Chain, Star};

/// The Figure-12 set: (backend, topology, tables, params, generator seed,
/// (plans created, final plans, answer digest)). The generator seeds are
/// chosen so one pass takes a few seconds at one thread and a run times
/// several passes; chain-6/2 seeds 0 and 2 and star-5/2 seed 0 take 2-4 s
/// each and are left out.
const CASES: &[Case] = &[
    case(Grid, Chain, 6, 2, 1, (2484, 111, 0xcb414ae4821af8dd)),
    case(Grid, Star, 5, 2, 1, (663, 26, 0x5b10c12004f8500a)),
    case(Grid, Star, 5, 2, 2, (1163, 38, 0xc2ca56ae3a34a445)),
    case(Grid, Chain, 10, 1, 0, (9559, 93, 0x1ac50508ed0906dd)),
    case(Grid, Chain, 10, 1, 1, (6303, 58, 0x77aa43b75e839ae8)),
    case(Grid, Chain, 10, 1, 2, (20527, 207, 0xbf35fca822600e25)),
    case(Grid, Star, 8, 1, 0, (37481, 180, 0x1722ffb821afadc)),
    case(Grid, Star, 8, 1, 1, (9877, 20, 0xccf388b70d7c7e0c)),
    case(Grid, Star, 8, 1, 2, (25069, 143, 0xd9d60f6706128769)),
    case(Pwl, Chain, 6, 1, 0, (971, 47, 0x1b7972e433844508)),
    case(Pwl, Chain, 6, 1, 1, (751, 21, 0x81bff1ebaf8cf27f)),
    case(Pwl, Chain, 6, 1, 2, (859, 36, 0x9f97d3d25b9d56a6)),
    case(Pwl, Star, 5, 1, 0, (802, 41, 0x5a90d5c750fdce3e)),
    case(Pwl, Star, 5, 1, 1, (354, 10, 0x7a697b2eb63c4125)),
    case(Pwl, Star, 5, 1, 2, (406, 10, 0x9a594769dceaddb6)),
];

/// The optimizer configuration: one thread for `fig12`, the library
/// default for `fig12-par`.
fn config(params: usize, par: bool) -> OptimizerConfig {
    let base = OptimizerConfig::default_for(params);
    if par {
        base
    } else {
        OptimizerConfig {
            threads: Some(1),
            ..base
        }
    }
}

/// One space per (backend, parameter count) the set uses.
#[derive(Default)]
struct Spaces {
    grid: [Option<GridSpace>; 3],
    pwl: [Option<PwlSpace>; 3],
}

impl Spaces {
    fn build(cases: &[&Case], par: bool, metrics: usize, obs: &Obs) -> Self {
        let mut s = Spaces::default();
        for c in cases {
            let built = match c.backend {
                Grid => s.grid[c.params].is_some(),
                Pwl => s.pwl[c.params].is_some(),
            };
            if built {
                continue;
            }
            let cfg = config(c.params, par);
            let mut span = obs.span("bench_space_build");
            span.record("params", c.params as u64);
            match c.backend {
                Grid => {
                    s.grid[c.params] =
                        Some(GridSpace::for_unit_box(c.params, &cfg, metrics).expect("valid grid"))
                }
                Pwl => {
                    s.pwl[c.params] =
                        Some(PwlSpace::for_unit_box(c.params, &cfg, metrics).expect("valid grid"))
                }
            }
        }
        s
    }

    fn breakdown(&self) -> FastPathBreakdown {
        let mut acc = FastPathBreakdown::default();
        for g in self.grid.iter().flatten() {
            add_breakdown(&mut acc, &g.lp_ctx().fastpath_breakdown());
        }
        for p in self.pwl.iter().flatten() {
            add_breakdown(&mut acc, &p.lp_ctx().fastpath_breakdown());
        }
        acc
    }

    /// Optimizes `query` in its case's space; returns the summary and the
    /// wall time of the `optimize` call in milliseconds.
    fn solve(
        &self,
        c: &Case,
        query: &Query,
        model: &CloudCostModel,
        par: bool,
    ) -> (PlanSummary, f64) {
        let cfg = config(c.params, par);
        match c.backend {
            Grid => run(
                query,
                model,
                self.grid[c.params].as_ref().expect("built"),
                &cfg,
            ),
            Pwl => run(
                query,
                model,
                self.pwl[c.params].as_ref().expect("built"),
                &cfg,
            ),
        }
    }
}

fn run<S>(
    query: &Query,
    model: &CloudCostModel,
    space: &S,
    cfg: &OptimizerConfig,
) -> (PlanSummary, f64)
where
    S: MpqSpace + Sync,
    S::Cost: Send + Sync,
    S::Region: Send + Sync,
{
    let start = Instant::now();
    let solution = optimize(query, model, space, cfg);
    let took = ms(start.elapsed());
    (
        PlanSummary::of(space, &solution, &probes(space.dim())),
        took,
    )
}

/// Counters summed over a window's answers.
#[derive(Default)]
struct Tally {
    plans: u64,
    finals: u64,
    lps: u64,
    breakdown: FastPathBreakdown,
}

/// Seconds one pass over the set takes on a 2-core x86-64 machine (either
/// workload); a run times `--seconds / NOMINAL_PASS_S` whole passes, at
/// least one, so every run of every build does the same work.
const NOMINAL_PASS_S: f64 = 3.3;

/// Set-up (repeated) and one timed window of whole passes over the set.
fn measure(
    cases: &[&Case],
    queries: &[Query],
    order: &[usize],
    par: bool,
    opts: &Opts,
    obs: &Obs,
) -> (Measured, Tally) {
    let model = CloudCostModel::default();
    let (mut setup_s, mut build_ms) = (Vec::new(), Vec::new());
    let mut spaces = Spaces::default();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        spaces = Spaces::build(cases, par, model.num_metrics(), obs);
        let took = t0.elapsed();
        setup_s.push(took.as_secs_f64());
        build_ms.push(ms(took));
    }
    let before = spaces.breakdown();
    let mut tally = Tally::default();
    let mut latencies_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let passes = ((opts.seconds as f64 / NOMINAL_PASS_S).round() as usize).max(1);
    let mut segments = Vec::with_capacity(passes);
    for _ in 0..passes {
        let pass = Window::open();
        let failed_before = failed;
        for &k in order {
            let c = cases[k];
            let mut span = obs.span("bench_optimize");
            span.record("query", k as u64);
            let (summary, took) = spaces.solve(c, &queries[k], &model, par);
            drop(span);
            attempted += 1;
            let got = (
                summary.plans_created,
                summary.final_plan_count,
                digest(&summary),
            );
            if got != (c.plans_created, c.final_plans, c.digest) {
                failed += 1;
                eprintln!(
                    "# wrong answer, {}: got (plans {}, final {}, digest {:#x}), pinned ({}, {}, {:#x})",
                    c.label(),
                    got.0,
                    got.1,
                    got.2,
                    c.plans_created,
                    c.final_plans,
                    c.digest
                );
            }
            latencies_ms.push(took);
            tally.plans += summary.plans_created;
            tally.finals += summary.final_plan_count;
            tally.lps += summary.lps_solved_query;
        }
        let (wall_s, cpu) = pass.close();
        segments.push(Segment {
            wall_s,
            cpu,
            correct: (order.len() as u64) - (failed - failed_before),
        });
    }
    let after = spaces.breakdown();
    for i in 0..after.fast.len() {
        tally.breakdown.fast[i] = after.fast[i] - before.fast[i];
        tally.breakdown.lp[i] = after.lp[i] - before.lp[i];
    }
    let m = Measured {
        setup_s,
        space_build_ms: build_ms,
        latencies_ms,
        attempted,
        failed,
        segments,
        peak_rss_mb: procfs::peak_rss_mb(),
    };
    (m, tally)
}

/// Runs `fig12` (`par = false`) or `fig12-par`.
pub fn run_workload(opts: &Opts, par: bool) -> Report {
    let cases: Vec<&Case> = CASES
        .iter()
        .filter(|c| !par || (c.backend == Grid && c.params == 2))
        .collect();
    let queries: Vec<Query> = cases.iter().map(|c| c.query()).collect();
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }

    let mut r = Report::default();
    r.info.push(format!(
        "{} queries per pass ({}), threads {}",
        cases.len(),
        if par {
            "2-param grid subset"
        } else {
            "full set"
        },
        if par { "unset (library default)" } else { "1" }
    ));
    let (m, tally) = measure(&cases, &queries, &order, par, opts, &Obs::off());
    r.info.push(format!(
        "{} passes in {:.3} s",
        m.segments.len(),
        m.wall_s()
    ));
    r.attempted = m.attempted;
    r.failed = m.failed;
    set_end_to_end(&mut r, &m, None);
    // Each query runs once per pass; its latency is its median over the
    // passes, so a burst of host noise in one pass does not move it.
    let per_query: Vec<f64> = (0..cases.len())
        .map(|j| {
            let runs: Vec<f64> = m
                .latencies_ms
                .iter()
                .skip(j)
                .step_by(cases.len())
                .copied()
                .collect();
            stats::median(&runs).expect("every pass runs every query")
        })
        .collect();
    r.set("latency_p50_ms", stats::median(&per_query));
    r.note(
        "latency_p50_ms",
        format!(
            "median over {} queries of each one's median over passes",
            cases.len()
        ),
    );
    let total_ms: f64 = per_query.iter().sum();
    r.set("queries_per_s", Some(cases.len() as f64 * 1e3 / total_ms));
    r.note(
        "queries_per_s",
        format!(
            "set size over the sum of per-query medians; {} answers in {:.3} s",
            m.attempted,
            m.wall_s()
        ),
    );
    if !opts.trace {
        return r;
    }
    set_proc_layers(&mut r, &m);
    let answered = m.answered();
    set_lp_layers(&mut r, tally.lps, &tally.breakdown, answered);
    r.set(
        "rrpa.plans_per_query",
        Some(tally.plans as f64 / answered as f64),
    );
    r.set(
        "rrpa.final_plans_per_query",
        Some(tally.finals as f64 / answered as f64),
    );
    for name in [
        "cache.lift_hit_rate",
        "cache.subtree_hit_rate",
        "cache.lift_entries",
        "cache.subtree_entries",
        "service.rejected",
        "service.timed_out",
        "service.quarantined",
        "router.retries",
        "router.reconnects",
    ] {
        r.set(name, Some(0.0));
        r.note(name, "layer not used by this workload");
    }

    let obs = Obs::wall();
    let traced = {
        let _installed = mpq_obs::install(&obs);
        measure(&cases, &queries, &order, par, opts, &obs).0
    };
    r.attempted += traced.attempted;
    r.failed += traced.failed;
    finish_trace(&mut r, opts, &obs, m.queries_per_s(), &traced);
    r
}
