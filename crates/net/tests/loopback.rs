//! Loopback integration: real sockets, real threads, the full fabric.
//!
//! Two shard servers on `127.0.0.1` TCP behind a retrying router; the
//! answers must be bit-identical to plain in-process optimization with
//! **zero** transport effort (no retries, no reconnects) — a clean wire
//! adds latency, never noise. Another test points the router at a dead
//! address and asserts the typed `Unavailable` degradation arrives in
//! bounded wall time. The last test holds the accept loop to its
//! connection cap.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use mpq_catalog::fault::query_digest;
use mpq_catalog::generator::{
    generate, generate_trace, GeneratorConfig, TraceConfig, WorkloadConfig,
};
use mpq_catalog::graph::Topology;
use mpq_cloud::model::CloudCostModel;
use mpq_core::grid_space::GridSpace;
use mpq_core::rrpa::optimize;
use mpq_core::session::{query_affinity, SessionConfig, ShardedSession};
use mpq_core::OptimizerConfig;
use mpq_net::router::{NetTime, RetryPolicy, ShardRouter, StreamConn};
use mpq_net::server::{serve_tcp, ShardServerCore, MAX_CONNECTIONS};
use mpq_net::wire::{
    decode_message, encode_message, read_frame, write_frame, Message, PlanSummary, WireOutcome,
    WireRequest,
};
use mpq_obs::Obs;
use mpq_service::SubmittedQuery;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Raises the shutdown flag when dropped — including during a panic's
/// unwind — so a failing assertion inside the server scope cannot leave
/// the accept loops running and deadlock the join.
struct ShutdownGuard<'a>(&'a AtomicBool);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn probes() -> Vec<Vec<f64>> {
    [0.0, 0.15, 0.5, 0.85, 1.0]
        .iter()
        .map(|&v| vec![v])
        .collect()
}

fn opt_config() -> OptimizerConfig {
    OptimizerConfig {
        grid_resolution: 4,
        threads: Some(1),
        ..OptimizerConfig::default_for(1)
    }
}

fn uncached(opt: &OptimizerConfig) -> SessionConfig {
    let mut cfg = SessionConfig::new(opt.clone()).without_subtree_cache();
    cfg.cached = false;
    cfg
}

/// A CI-tolerant policy for real sockets: generous attempt timeout so a
/// loaded machine cannot fake a fault, tiny backoff so failures surface
/// fast.
fn wall_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        attempt_timeout: 10.0,
        base_backoff: 0.01,
        max_backoff: 0.05,
        jitter: 0.5,
        seed: 42,
    }
}

#[test]
fn tcp_loopback_is_bit_identical_with_zero_transport_effort() {
    let trace = generate_trace(
        &TraceConfig {
            workload: WorkloadConfig::uniform(
                GeneratorConfig::paper(3, Topology::Chain, 1),
                5,
                0.5,
            ),
            mean_gap: 0.0,
        },
        &mut StdRng::seed_from_u64(21),
    );
    let model = CloudCostModel::default();
    let opt = opt_config();
    let reference: Vec<PlanSummary> = trace
        .queries
        .iter()
        .map(|q| {
            let space = GridSpace::for_unit_box(1, &opt, 2).expect("grid space");
            let sol = optimize(q, &model, &space, &opt);
            PlanSummary::of(&space, &sol, &probes())
        })
        .collect();

    let shards = 2usize;
    let session_cfg = uncached(&opt);
    let sessions = ShardedSession::build(shards, &model, &session_cfg, || {
        GridSpace::for_unit_box(1, &opt, 2).expect("grid space")
    });
    let cores: Vec<_> = (0..shards)
        .map(|i| ShardServerCore::new(sessions.shard(i), i as u32, probes()))
        .collect();
    let listeners: Vec<TcpListener> = (0..shards)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let _guard = ShutdownGuard(&shutdown);
        for (listener, core) in listeners.into_iter().zip(&cores) {
            let shutdown = &shutdown;
            scope.spawn(move || serve_tcp(listener, core, shutdown));
        }

        let conns: Vec<_> = addrs
            .iter()
            .map(|&addr| StreamConn::tcp(addr, Duration::from_secs(5)))
            .collect();
        let mut router = ShardRouter::new(
            conns,
            |q| query_affinity(q, &model),
            wall_policy(),
            NetTime::wall(),
        );

        for (i, query) in trace.queries.iter().enumerate() {
            let resp = router.submit(SubmittedQuery {
                query: query.clone(),
                deadline: None,
            });
            assert_eq!(resp.shard, sessions.shard_of(query), "affinity agreement");
            let summary = resp
                .outcome
                .ok()
                .unwrap_or_else(|| panic!("query {i} over loopback: {:?}", resp.outcome.name()));
            assert_eq!(summary, &reference[i], "query {i} diverged over TCP");
            assert_eq!(resp.attempts, 1, "clean wire needs one attempt");
        }
        let stats = router.stats();
        assert_eq!(stats.completed, trace.len() as u64);
        assert!(stats.conserves());
        assert!(
            stats.latency_p50 > 0.0 && stats.latency_p50 <= stats.latency_p95,
            "the router's histogram holds every Ok latency: {stats:?}"
        );
        assert_eq!(
            (stats.retries, stats.reconnects, stats.dropped),
            (0, 0, 0),
            "clean loopback shows zero transport effort"
        );
        // Replaying query 0 exercises the idempotency cache over a real
        // socket: same bits, dedup-flagged.
        let resp = router.submit(SubmittedQuery {
            query: trace.queries[0].clone(),
            deadline: None,
        });
        assert!(resp.dedup, "replayed digest answers from the cache");
        assert_eq!(resp.outcome.ok().expect("healthy replay"), &reference[0]);

        shutdown.store(true, Ordering::Relaxed);
    });
}

/// Trace ids survive a real TCP hop: every `server_request` span the
/// shard emits carries the exact trace id of the router span that sent
/// it, and a wire scrape of the server returns its registry's counters.
#[test]
fn trace_ids_join_across_a_real_tcp_hop() {
    let trace = generate_trace(
        &TraceConfig {
            workload: WorkloadConfig::uniform(
                GeneratorConfig::paper(2, Topology::Chain, 1),
                3,
                0.0,
            ),
            mean_gap: 0.0,
        },
        &mut StdRng::seed_from_u64(13),
    );
    let model = CloudCostModel::default();
    let opt = opt_config();
    let session_cfg = uncached(&opt);
    let sessions = ShardedSession::build(1, &model, &session_cfg, || {
        GridSpace::for_unit_box(1, &opt, 2).expect("grid space")
    });
    let server_obs = Obs::wall();
    let core = ShardServerCore::new(sessions.shard(0), 0, probes()).with_obs(server_obs.clone());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let _guard = ShutdownGuard(&shutdown);
        let core_ref = &core;
        let shutdown_ref = &shutdown;
        scope.spawn(move || serve_tcp(listener, core_ref, shutdown_ref));

        let router_obs = Obs::wall();
        let mut router = ShardRouter::new(
            vec![StreamConn::tcp(addr, Duration::from_secs(5))],
            |q| query_affinity(q, &model),
            wall_policy(),
            NetTime::wall(),
        )
        .with_obs(router_obs.clone());

        for query in &trace.queries {
            let resp = router.submit(SubmittedQuery {
                query: query.clone(),
                deadline: None,
            });
            assert!(resp.outcome.ok().is_some(), "healthy over loopback");
        }

        let field = |obs: &Obs, name: &str| -> Vec<u64> {
            obs.spans()
                .iter()
                .filter(|s| s.name == name)
                .flat_map(|s| s.fields.iter())
                .filter(|(k, _)| *k == "trace")
                .map(|&(_, v)| v)
                .collect()
        };
        let sent = field(&router_obs, "route_request");
        let seen = field(&server_obs, "server_request");
        assert_eq!(sent.len(), trace.len(), "one router span per submit");
        assert_eq!(
            {
                let mut s = seen.clone();
                s.sort_unstable();
                s
            },
            {
                let mut s = sent.clone();
                s.sort_unstable();
                s
            },
            "every trace id joins across the TCP hop"
        );

        // And the registry crosses the same hop: scrape == the server's
        // own samples.
        let scraped = router.scrape(0).expect("scrape over TCP");
        let registry = server_obs.registry().expect("enabled handle");
        assert_eq!(scraped, registry.samples(), "scrape mirrors the registry");
        assert!(scraped
            .iter()
            .any(|(name, v)| name == "server_handled" && *v == trace.len() as f64));

        shutdown.store(true, Ordering::Relaxed);
    });
}

#[test]
fn dead_address_degrades_to_unavailable_in_bounded_time() {
    let query = {
        let trace = generate_trace(
            &TraceConfig {
                workload: WorkloadConfig::uniform(
                    GeneratorConfig::paper(2, Topology::Chain, 1),
                    1,
                    0.0,
                ),
                mean_gap: 0.0,
            },
            &mut StdRng::seed_from_u64(9),
        );
        trace.queries[0].clone()
    };
    let model = CloudCostModel::default();

    // Bind-then-drop: the OS hands us a port with nothing listening, so
    // dials are refused instantly rather than blackholed.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("local addr")
    };
    let policy = RetryPolicy {
        max_attempts: 3,
        attempt_timeout: 0.25,
        base_backoff: 0.01,
        max_backoff: 0.02,
        jitter: 0.5,
        seed: 7,
    };
    let mut router = ShardRouter::new(
        vec![StreamConn::tcp(dead_addr, Duration::from_millis(250))],
        |q| query_affinity(q, &model),
        policy,
        NetTime::wall(),
    );
    let started = std::time::Instant::now();
    let resp = router.submit(SubmittedQuery {
        query,
        deadline: None,
    });
    assert_eq!(resp.outcome, WireOutcome::Unavailable, "typed degradation");
    assert_eq!(resp.attempts, policy.max_attempts);
    // Worst case: every attempt burns its connect timeout plus backoff.
    // Generous margin: the point is "seconds, not forever".
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "unreachable shard must fail fast, took {:?}",
        started.elapsed()
    );
    let stats = router.stats();
    assert_eq!(stats.unavailable, 1);
    assert!(stats.conserves());
}

/// The accept loop serves at most [`MAX_CONNECTIONS`] connections at
/// once: with that many idle connections open, a further client's
/// request waits unanswered in the listen backlog, and is answered once
/// one idle connection closes.
#[test]
fn connection_past_the_cap_waits_for_a_free_slot() {
    let model = CloudCostModel::default();
    let opt = opt_config();
    let sessions = ShardedSession::build(1, &model, &uncached(&opt), || {
        GridSpace::for_unit_box(1, &opt, 2).expect("grid space")
    });
    let core = ShardServerCore::new(sessions.shard(0), 0, probes());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = AtomicBool::new(false);
    let query = generate(
        &GeneratorConfig::paper(2, Topology::Chain, 1),
        &mut StdRng::seed_from_u64(1),
    );
    let request = encode_message(&Message::Request(WireRequest {
        request_id: 1,
        digest: query_digest(&query),
        attempt: 0,
        trace_id: 1,
        submitted: SubmittedQuery::new(query),
    }));

    std::thread::scope(|scope| {
        let _guard = ShutdownGuard(&shutdown);
        let (core_ref, shutdown_ref) = (&core, &shutdown);
        scope.spawn(move || serve_tcp(listener, core_ref, shutdown_ref));
        // The listen backlog is first in, first out, so the loop accepts
        // the idle connections before the extra one.
        let mut idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        let mut extra = TcpStream::connect(addr).expect("connect");
        write_frame(&mut extra, &request).expect("send request");

        extra
            .set_read_timeout(Some(Duration::from_millis(300)))
            .expect("read timeout");
        let early = read_frame(&mut extra, || false);
        assert!(
            matches!(&early, Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)),
            "a connection past the cap must not be served yet: {early:?}"
        );

        drop(idle.pop());
        extra
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let frame = read_frame(&mut extra, || false)
            .expect("answered once a slot frees")
            .expect("a whole frame");
        match decode_message(&frame) {
            Ok(Message::Response(response)) => {
                assert!(matches!(response.outcome, WireOutcome::Ok(_)));
            }
            other => panic!("expected a response, got {other:?}"),
        }
    });
}
