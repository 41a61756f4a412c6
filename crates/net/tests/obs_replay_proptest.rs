//! Observability replay: the networked half of the replay contract.
//!
//! Under the virtual clock the entire observability output — router span
//! tree and counters, per-shard server span trees, every registry's
//! samples — is a pure function of the (trace, fault plan, seed) triple:
//! two replays of the same run render **byte-identical** span trees and
//! identical samples. Holds across shard counts {1, 2, 4} and with
//! chaos on or off, because everything that feeds a span or a counter
//! (retry schedules, fault injections, clock reads) is itself
//! deterministic.
//!
//! The same runs pin the cross-process join contract: every
//! `server_request` span carries a `trace` field equal to the trace id
//! of exactly the router `route_request` span that sent it, and a wire
//! scrape returns the server registry's own samples.

use std::sync::Arc;

use mpq_catalog::fault::{NetFault, NetFaultConfig, NetFaultKind, NetFaultPlan};
use mpq_catalog::generator::{generate_trace, GeneratorConfig, TraceConfig, WorkloadConfig};
use mpq_catalog::graph::Topology;
use mpq_cloud::model::CloudCostModel;
use mpq_core::grid_space::GridSpace;
use mpq_core::session::{query_affinity, SessionConfig, ShardedSession};
use mpq_core::OptimizerConfig;
use mpq_net::chaos::{ChaosConn, InProcConn};
use mpq_net::router::{NetTime, RetryPolicy, ShardRouter};
use mpq_net::server::ShardServerCore;
use mpq_obs::Obs;
use mpq_service::{SubmittedQuery, VirtualClock};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn probes() -> Vec<Vec<f64>> {
    [0.0, 0.5, 1.0].iter().map(|&v| vec![v]).collect()
}

fn opt_config() -> OptimizerConfig {
    OptimizerConfig {
        grid_resolution: 4,
        threads: Some(1),
        ..OptimizerConfig::default_for(1)
    }
}

fn server_session_config(opt: &OptimizerConfig) -> SessionConfig {
    let mut cfg = SessionConfig::new(opt.clone()).without_subtree_cache();
    cfg.cached = false;
    cfg
}

/// An observability handle ticking on `vclock`'s microseconds.
fn vclock_obs(vclock: &VirtualClock) -> Obs {
    let vc = VirtualClock::clone(vclock);
    Obs::with_clock(Arc::new(move || vc.now_micros()))
}

/// Everything one observed run emits: the rendered span trees (router,
/// then each shard), every registry's samples (router, then each shard),
/// the router/server trace-id stamps, and the wire-scraped registry
/// samples.
struct ObservedRun {
    rendered: String,
    samples: Vec<(String, f64)>,
    router_traces: Vec<u64>,
    server_traces: Vec<u64>,
    scraped: Vec<(String, f64)>,
}

/// One full observed run: trace through the faulted fabric at `shards`.
fn observed_run(
    shards: usize,
    trace: &mpq_catalog::generator::ArrivalTrace,
    plan: &Arc<NetFaultPlan>,
    seed: u64,
) -> ObservedRun {
    let model = CloudCostModel::default();
    let opt = opt_config();
    let session_cfg = server_session_config(&opt);
    let sessions = ShardedSession::build(shards, &model, &session_cfg, || {
        GridSpace::for_unit_box(1, &opt, 2).expect("grid space")
    });
    let vclock = VirtualClock::new();
    let time = NetTime::virtual_time(&vclock);
    let server_obs: Vec<Obs> = (0..shards).map(|_| vclock_obs(&vclock)).collect();
    let cores: Vec<_> = (0..shards)
        .map(|i| {
            ShardServerCore::new(sessions.shard(i), i as u32, probes())
                .with_obs(server_obs[i].clone())
        })
        .collect();
    let conns: Vec<_> = cores
        .iter()
        .map(|core| ChaosConn::new(InProcConn::new(core), Arc::clone(plan), time.clone()))
        .collect();
    let router_obs = vclock_obs(&vclock);
    let mut router = ShardRouter::new(
        conns,
        |q| query_affinity(q, &model),
        RetryPolicy {
            seed,
            ..RetryPolicy::default()
        },
        time.clone(),
    )
    .with_obs(router_obs.clone());

    for (q, &at) in trace.queries.iter().zip(&trace.arrivals) {
        vclock.advance_to_secs(at);
        router.submit(SubmittedQuery {
            query: q.clone(),
            deadline: None,
        });
    }

    // Scrape every shard over the wire before rendering, so the scrapes
    // are themselves part of the replayed transcript.
    let scraped: Vec<(String, f64)> = (0..shards)
        .flat_map(|i| router.scrape(i).expect("in-proc scrape"))
        .collect();

    let mut rendered = String::new();
    rendered.push_str("== router ==\n");
    rendered.push_str(&router_obs.span_tree());
    for (i, obs) in server_obs.iter().enumerate() {
        rendered.push_str(&format!("== shard {i} ==\n"));
        rendered.push_str(&obs.span_tree());
    }
    let samples = std::iter::once(&router_obs)
        .chain(&server_obs)
        .flat_map(|obs| obs.registry().expect("enabled handle").samples())
        .collect();

    let field = |spans: &[mpq_obs::SpanRecord], name: &str, key: &str| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.fields.iter())
            .filter(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .collect()
    };
    let router_traces = field(&router_obs.spans(), "route_request", "trace");
    let server_traces: Vec<u64> = server_obs
        .iter()
        .flat_map(|obs| field(&obs.spans(), "server_request", "trace"))
        .collect();
    ObservedRun {
        rendered,
        samples,
        router_traces,
        server_traces,
        scraped,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Two replays of the same (trace, fault plan, seed) render
    /// byte-identical observability output at every shard count, chaos
    /// on or off — and the trace ids stamped on server spans join them
    /// to exactly the router spans that sent them.
    #[test]
    fn observability_replays_byte_identically(
        num_tables in 2usize..=3,
        trace_len in 3usize..=5,
        chaos in 0usize..=1,
        kind_idx in 0usize..=4,
        seed in 0u64..1000,
    ) {
        let trace_cfg = TraceConfig {
            workload: WorkloadConfig::uniform(
                GeneratorConfig::paper(num_tables, Topology::Chain, 1),
                trace_len,
                0.5,
            ),
            mean_gap: 25e-6,
        };
        let trace = generate_trace(&trace_cfg, &mut StdRng::seed_from_u64(seed));
        let plan = if chaos == 1 {
            Arc::new(NetFaultPlan::generate(
                &trace,
                &NetFaultConfig::only(NetFaultKind::ALL[kind_idx], 0.3),
                &mut StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            ))
        } else {
            Arc::new(NetFaultPlan::new())
        };

        for shards in [1usize, 2, 4] {
            let a = observed_run(shards, &trace, &plan, seed);
            let b = observed_run(shards, &trace, &plan, seed);
            prop_assert_eq!(
                &a.rendered, &b.rendered,
                "replay diverged at {} shards (chaos={})", shards, chaos
            );
            prop_assert_eq!(&a.samples, &b.samples, "counters replay identically");
            prop_assert!(
                a.samples.iter().any(|(name, v)| name == "router_submitted"
                    && *v as usize == trace.len()),
                "the router's counters are in its registry"
            );
            prop_assert_eq!(&a.router_traces, &b.router_traces);
            prop_assert_eq!(&a.server_traces, &b.server_traces);
            prop_assert_eq!(&a.scraped, &b.scraped, "scrape replays identically");
            let (router_a, servers_a, scrape_a) =
                (a.router_traces, a.server_traces, a.scraped);

            // Join contract: one router span per submission, each with a
            // distinct trace id; every server span's trace stamp is one
            // of them; every query that reached a server joins back.
            prop_assert_eq!(router_a.len(), trace.len(), "one route span per submit");
            let distinct: std::collections::HashSet<u64> =
                router_a.iter().copied().collect();
            prop_assert_eq!(distinct.len(), router_a.len(), "trace ids are unique");
            prop_assert!(!servers_a.is_empty(), "servers were observed");
            for t in &servers_a {
                prop_assert!(distinct.contains(t), "orphan server trace {}", t);
            }
            // Transient faults always recover, so every submission
            // reaches a server at least once (retries reuse the trace
            // id, so duplicates can push the count higher).
            prop_assert!(servers_a.len() >= trace.len(), "every query joined");

            // The wire scrapes carry the server registries' own data:
            // summed across shards, the handled counters account for
            // every frame that reached a server.
            let handled: f64 = scrape_a
                .iter()
                .filter(|(name, _)| name == "server_handled")
                .map(|(_, v)| v)
                .sum();
            prop_assert_eq!(
                handled as usize,
                servers_a.len(),
                "scraped handled == observed server_request spans"
            );
        }
    }
}

/// With observability on, the router's counters are `router_*` cells of
/// its registry: over a short virtual-time trace with one transient
/// fault, every `router_*` sample equals the matching field of
/// `router.stats()`, and the names are exactly the cells the router
/// moves.
#[test]
fn router_counters_live_in_the_registry() {
    let trace_cfg = TraceConfig {
        workload: WorkloadConfig::uniform(GeneratorConfig::paper(3, Topology::Chain, 1), 4, 0.0),
        mean_gap: 25e-6,
    };
    let trace = generate_trace(&trace_cfg, &mut StdRng::seed_from_u64(7));
    let mut plan = NetFaultPlan::new();
    plan.mark(
        &trace.queries[1],
        NetFault::transient(NetFaultKind::Drop, 1),
    );
    let plan = Arc::new(plan);
    let shards = 2;
    let model = CloudCostModel::default();
    let opt = opt_config();
    let sessions = ShardedSession::build(shards, &model, &server_session_config(&opt), || {
        GridSpace::for_unit_box(1, &opt, 2).expect("grid space")
    });
    let cores: Vec<_> = (0..shards)
        .map(|i| ShardServerCore::new(sessions.shard(i), i as u32, probes()))
        .collect();
    let vclock = VirtualClock::new();
    let time = NetTime::virtual_time(&vclock);
    let conns: Vec<_> = cores
        .iter()
        .map(|core| ChaosConn::new(InProcConn::new(core), Arc::clone(&plan), time.clone()))
        .collect();
    let obs = vclock_obs(&vclock);
    let policy = RetryPolicy::default();
    let mut router = ShardRouter::new(conns, |q| query_affinity(q, &model), policy, time.clone())
        .with_obs(obs.clone());
    for (q, &at) in trace.queries.iter().zip(&trace.arrivals) {
        vclock.advance_to_secs(at);
        router.submit(SubmittedQuery::new(q.clone()));
    }

    let stats = router.stats();
    assert!(stats.conserves(), "{stats:?}");
    assert_eq!((stats.completed, stats.retries), (4, 1), "{stats:?}");
    let mut expected = vec![
        (
            "router_approx_served".to_owned(),
            stats.approx_served as f64,
        ),
        ("router_completed".to_owned(), stats.completed as f64),
        ("router_quarantined".to_owned(), stats.quarantined as f64),
        ("router_rejected".to_owned(), stats.rejected as f64),
        ("router_retries".to_owned(), stats.retries as f64),
        ("router_submitted".to_owned(), stats.submitted as f64),
        ("router_timed_out".to_owned(), stats.timed_out as f64),
        ("router_unavailable".to_owned(), stats.unavailable as f64),
        (
            "router_latency_seconds_count".to_owned(),
            stats.completed as f64,
        ),
        (
            "router_latency_seconds_p50_ns".to_owned(),
            stats.latency_p50 * 1e9,
        ),
        (
            "router_latency_seconds_p95_ns".to_owned(),
            stats.latency_p95 * 1e9,
        ),
    ];
    for (i, shard) in stats.per_shard.iter().enumerate() {
        expected.push((format!("router_shard{i}_queries"), shard.queries as f64));
    }
    expected.sort_by(|a, b| a.0.cmp(&b.0));
    // The histogram's sum and p99 have no `ServiceStats` field.
    let mut samples: Vec<(String, f64)> = obs
        .registry()
        .expect("enabled handle")
        .samples()
        .into_iter()
        .filter(|(name, _)| !name.ends_with("_sum_ns") && !name.ends_with("_p99_ns"))
        .collect();
    samples.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(samples.len(), expected.len(), "{samples:?}");
    for ((name, value), (want, field)) in samples.iter().zip(&expected) {
        assert_eq!(name, want);
        assert!(
            (value - field).abs() <= 1e-6 * field.abs(),
            "{name}: {value} vs {field}"
        );
    }
}
