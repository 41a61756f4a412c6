//! `serve-hot`: the in-process service (`mpq_service::serve`) on the wall
//! clock, 2 shards, default session caches, one optimizer thread per
//! shard. One submitting thread drives an open loop of Poisson arrivals
//! at a fixed rate well below saturation; the queries are 4-table
//! 1-parameter chains and stars drawn from a few overlapping query
//! families, so the lift and subtree caches and the batching queue do
//! most of the work — the hit path.

use crate::check::{digest, probes};
use crate::common::{
    finish_trace, ms, set_end_to_end, set_lp_layers, set_proc_layers, Measured, Opts, Segment,
    Window, SETUP_REPEATS,
};
use crate::openloop::{drive, due_latency, poisson_schedule};
use crate::procfs;
use crate::report::Report;
use crate::stats::{self, percentile, ratio, tail_percentile};
use crate::trace::{self, Span};
use mpq_catalog::generator::{generate_workload, GeneratorConfig, WorkloadConfig};
use mpq_catalog::graph::Topology;
use mpq_catalog::Query;
use mpq_cloud::model::{CloudCostModel, ParametricCostModel};
use mpq_core::grid_space::GridSpace;
use mpq_core::rrpa::optimize;
use mpq_core::session::{SessionConfig, ShardedSession};
use mpq_core::OptimizerConfig;
use mpq_lp::FastPathBreakdown;
use mpq_net::wire::PlanSummary;
use mpq_obs::Obs;
use mpq_service::{serve, BatchPolicy, ServiceConfig, ServiceStats, ServiceTicket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load: arrivals per second, well below saturation.
const RATE: f64 = 800.0;
const SHARDS: usize = 2;
/// Distinct queries the arrivals draw from, and how many tables each
/// shares with the first (`generate_workload`'s overlap).
const FAMILIES: usize = 16;
const OVERLAP: f64 = 0.8;
/// Batching: dispatch at 16 buffered queries or after 2 ms.
const MAX_BATCH: usize = 16;
const MAX_WAIT: Duration = Duration::from_millis(2);
/// The latency limit `slo_miss_frac` judges against.
const SLO_MS: f64 = 50.0;

fn opt_config() -> OptimizerConfig {
    OptimizerConfig {
        threads: Some(1),
        ..OptimizerConfig::default_for(1)
    }
}

/// The generated input: the families, their reference answers, and the
/// arrival schedule.
struct Input {
    families: Vec<Query>,
    reference: Vec<u64>,
    dues: Vec<Duration>,
    picks: Vec<usize>,
}

impl Input {
    fn generate(opts: &Opts) -> Self {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let families = generate_workload(
            &WorkloadConfig::mixed(
                GeneratorConfig::paper(4, Topology::Chain, 1),
                FAMILIES,
                OVERLAP,
            ),
            &mut rng,
        )
        .queries;
        let model = CloudCostModel::default();
        let opt = opt_config();
        let reference = families
            .iter()
            .map(|q| {
                let space =
                    GridSpace::for_unit_box(1, &opt, model.num_metrics()).expect("valid grid");
                let solution = optimize(q, &model, &space, &opt);
                digest(&PlanSummary::of(&space, &solution, &probes(1)))
            })
            .collect();
        let n = (RATE * opts.seconds as f64).round() as usize;
        let dues = poisson_schedule(n, opts.window(), &mut rng);
        let picks = (0..n).map(|_| rng.gen_range(0..families.len())).collect();
        Self {
            families,
            reference,
            dues,
            picks,
        }
    }
}

/// What the collector saw, per answered request.
#[derive(Default)]
struct Collected {
    latencies_ms: Vec<f64>,
    failed: u64,
    /// Latest completion, seconds after the window opened.
    end_s: f64,
    plans: u64,
    finals: u64,
}

/// Everything one run measured beyond the end-to-end numbers.
struct Run {
    m: Measured,
    stats: ServiceStats,
    lateness_ms: Vec<f64>,
    plans: u64,
    finals: u64,
    breakdown: FastPathBreakdown,
    lift_entries: usize,
    subtree_entries: usize,
}

fn measure(input: &Input, obs: &Obs) -> Run {
    let model = CloudCostModel::default();
    let opt = opt_config();
    let (mut setup_s, mut build_ms) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPEATS {
        let last = rep + 1 == SETUP_REPEATS;
        let t0 = Instant::now();
        let mut build = Duration::ZERO;
        let sessions =
            ShardedSession::build(SHARDS, &model, &SessionConfig::new(opt.clone()), || {
                let t = Instant::now();
                let mut span = obs.span("bench_space_build");
                span.record("params", 1);
                let space =
                    GridSpace::for_unit_box(1, &opt, model.num_metrics()).expect("valid grid");
                build += t.elapsed();
                space
            });
        let mut config = ServiceConfig::new(BatchPolicy::new(MAX_BATCH, MAX_WAIT));
        if obs.enabled() {
            config = config.with_obs(obs.clone());
        }
        let (window, stats) = serve(&sessions, config, |handle| {
            setup_s.push(t0.elapsed().as_secs_f64());
            build_ms.push(ms(build));
            last.then(|| {
                let window = Window::open();
                let start = window.start();
                let (lateness, collected) = std::thread::scope(|scope| {
                    let (tx, rx) = mpsc::channel::<(usize, Duration, ServiceTicket<GridSpace>)>();
                    let sessions = &sessions;
                    let collector = scope.spawn(move || collect(rx, input, sessions, obs));
                    let lateness = drive(start, &input.dues, |i, late| {
                        let mut span = obs.span("bench_submit");
                        span.record("seq", i as u64);
                        let ticket = handle.submit(input.families[input.picks[i]].clone());
                        drop(span);
                        tx.send((i, late, ticket)).expect("collector is alive");
                    });
                    drop(tx);
                    (lateness, collector.join().expect("collector panicked"))
                });
                let (_, cpu) = window.close();
                (lateness, collected, cpu)
            })
        });
        if let Some((lateness, c, cpu)) = window {
            let mut breakdown = FastPathBreakdown::default();
            for i in 0..SHARDS {
                crate::common::add_breakdown(
                    &mut breakdown,
                    &sessions.shard(i).space().lp_ctx().fastpath_breakdown(),
                );
            }
            let m = Measured {
                setup_s: std::mem::take(&mut setup_s),
                space_build_ms: std::mem::take(&mut build_ms),
                attempted: input.dues.len() as u64,
                failed: c.failed,
                segments: vec![Segment {
                    wall_s: c.end_s,
                    cpu,
                    correct: c.latencies_ms.len() as u64,
                }],
                peak_rss_mb: procfs::peak_rss_mb(),
                latencies_ms: c.latencies_ms,
            };
            return Run {
                m,
                stats,
                lateness_ms: lateness.into_iter().map(ms).collect(),
                plans: c.plans,
                finals: c.finals,
                breakdown,
                lift_entries: (0..SHARDS).map(|i| sessions.shard(i).cached_shapes()).sum(),
                subtree_entries: (0..SHARDS)
                    .map(|i| sessions.shard(i).cached_subtrees())
                    .sum(),
            };
        }
    }
    unreachable!("the last set-up runs the window")
}

/// Waits for every ticket in submission order and checks each answer
/// against its family's reference. The latency is taken from the
/// service's own completion stamp, so the waiting order does not bias it.
fn collect(
    rx: mpsc::Receiver<(usize, Duration, ServiceTicket<GridSpace>)>,
    input: &Input,
    sessions: &ShardedSession<'_, GridSpace, CloudCostModel>,
    obs: &Obs,
) -> Collected {
    let probes = probes(1);
    let mut c = Collected::default();
    for (i, late, ticket) in rx {
        let mut span = obs.span("bench_wait");
        span.record("seq", i as u64);
        let response = ticket.wait();
        if let Some(route) = response.route {
            span.record("shard", route.shard as u64);
            span.record("batch_seq", route.batch_seq);
        }
        drop(span);
        let latency = due_latency(late, response.latency);
        let route = response.route;
        let Some(solution) = response.outcome.ok() else {
            c.failed += 1;
            continue;
        };
        let shard = route.expect("an Ok answer carries its route").shard;
        let summary = PlanSummary::of(sessions.shard(shard).space(), &solution, &probes);
        if digest(&summary) != input.reference[input.picks[i]] {
            c.failed += 1;
            eprintln!("# wrong answer for request {i} (family {})", input.picks[i]);
            continue;
        }
        c.latencies_ms.push(latency * 1e3);
        c.end_s = c.end_s.max(input.dues[i].as_secs_f64() + latency);
        c.plans += summary.plans_created;
        c.finals += summary.final_plan_count;
    }
    c
}

/// Queue wait (submit to the start of the batch that ran the request),
/// batch durations and worker busy share, from the span file.
fn service_spans(r: &mut Report, spans: &[Span]) {
    let submit_at: HashMap<u64, u64> = trace::named(spans, "bench_submit")
        .into_iter()
        .filter_map(|s| Some((s.field("seq")?, s.start_us)))
        .collect();
    let batches: Vec<&Span> = trace::named(spans, "shard_batch");
    let batch_at: HashMap<(u64, u64), &Span> = batches
        .iter()
        .filter_map(|s| Some(((s.field("shard")?, s.field("batch_seq")?), *s)))
        .collect();
    let waits = stats::sorted(
        trace::named(spans, "bench_wait")
            .into_iter()
            .filter_map(|w| {
                let submitted = submit_at.get(&w.field("seq")?)?;
                let batch = batch_at.get(&(w.field("shard")?, w.field("batch_seq")?))?;
                Some(batch.start_us.saturating_sub(*submitted) as f64 / 1e3)
            })
            .collect(),
    );
    r.set("service.queue_wait_ms_p50", percentile(&waits, 50));
    r.set("service.queue_wait_ms_p99", tail_percentile(&waits, 99));
    r.note("service.queue_wait_ms_p99", format!("n={}", waits.len()));
    let durations = stats::sorted(batches.iter().map(|s| s.dur_ms()).collect());
    r.set("service.batch_ms_p50", percentile(&durations, 50));
    let first = submit_at.values().min().copied();
    let last = batches.iter().map(|s| s.end_us).max();
    if let (Some(first), Some(last)) = (first, last) {
        let busy: f64 = durations.iter().sum::<f64>() / 1e3;
        let span_s = (last.saturating_sub(first)) as f64 / 1e6;
        r.set(
            "service.worker_busy_frac",
            ratio(busy, SHARDS as f64 * span_s),
        );
    }
}

pub fn run_workload(opts: &Opts) -> Report {
    let input = Input::generate(opts);
    let mut r = Report::default();
    r.info.push(format!(
        "open loop, {} Poisson arrivals at {RATE} per s over {} families, {SHARDS} shards, \
         batch {MAX_BATCH} / {} ms",
        input.dues.len(),
        input.families.len(),
        MAX_WAIT.as_millis()
    ));
    let run = measure(&input, &Obs::off());
    let m = &run.m;
    r.attempted = m.attempted;
    r.failed = m.failed;
    set_end_to_end(&mut r, m, Some(SLO_MS));
    if !opts.trace {
        return r;
    }
    set_proc_layers(&mut r, m);
    let answered = m.answered() as f64;
    set_lp_layers(&mut r, run.stats.lps_solved, &run.breakdown, m.answered());
    r.set("rrpa.plans_per_query", ratio(run.plans as f64, answered));
    r.set(
        "rrpa.final_plans_per_query",
        ratio(run.finals as f64, answered),
    );
    let s = &run.stats;
    let (mut lift, mut subtree) = ((0, 0), (0, 0));
    for shard in &s.per_shard {
        lift = (lift.0 + shard.cache.hits, lift.1 + shard.cache.misses);
        subtree = (
            subtree.0 + shard.subtree.hits,
            subtree.1 + shard.subtree.misses,
        );
    }
    r.set(
        "cache.lift_hit_rate",
        ratio(lift.0 as f64, (lift.0 + lift.1) as f64),
    );
    r.set(
        "cache.subtree_hit_rate",
        ratio(subtree.0 as f64, (subtree.0 + subtree.1) as f64),
    );
    r.set("cache.lift_entries", Some(run.lift_entries as f64));
    r.set("cache.subtree_entries", Some(run.subtree_entries as f64));
    let batched: u64 = s.per_shard.iter().map(|p| p.queries).sum();
    r.set(
        "service.batch_size_mean",
        ratio(batched as f64, s.batches as f64),
    );
    r.set(
        "service.deadline_trigger_frac",
        ratio(s.deadline_triggered as f64, s.batches as f64),
    );
    r.set("service.queue_depth_peak", Some(s.queue_depth_peak as f64));
    r.set("service.rejected", Some(s.rejected as f64));
    r.set("service.timed_out", Some(s.timed_out as f64));
    r.set("service.quarantined", Some(s.quarantined as f64));
    for name in ["router.retries", "router.reconnects"] {
        r.set(name, Some(0.0));
        r.note(name, "layer not used by this workload");
    }
    let lateness = stats::sorted(run.lateness_ms.clone());
    r.set("bench.gen_lag_ms_p99", tail_percentile(&lateness, 99));

    let obs = Obs::wall();
    let traced = measure(&input, &obs);
    r.attempted += traced.m.attempted;
    r.failed += traced.m.failed;
    let spans = finish_trace(&mut r, opts, &obs, m.queries_per_s(), &traced.m);
    r.note(
        "rrpa.top_level_frac",
        "shard workers run the optimizer without an installed obs handle",
    );
    r.note(
        "obs.overhead_frac",
        format!(
            "open loop: throughput is the offered rate; cpu_ms_per_query traced {:.4} vs untraced {:.4}",
            traced.m.cpu_ms_per_query(),
            m.cpu_ms_per_query()
        ),
    );
    service_spans(&mut r, &spans);
    r
}
