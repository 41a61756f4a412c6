//! CI smoke checks for the serving stack: the `mpq-service` front-end
//! (batch accumulation → sharded sessions → bounded caches → panic
//! quarantine), the `mpq-net` shard fabric and the `mpq-obs` layer, each
//! driven end to end on tiny seeded traces. Performance numbers come from
//! the `mpqbench` package (see `mpqbench/README.md`), not from this binary.
//!
//! Usage:
//!   cargo run --release -p mpq-bench --bin bench_service -- \
//!       --smoke | --smoke-chaos | --smoke-net | --smoke-obs
//!
//! Traces replay under a **virtual service clock** stepped to each
//! arrival (`mpq_catalog::generator::generate_trace` — seeded, no
//! wall-clock), so batching decisions, trigger mixes and cache counters
//! are bit-reproducible.
//!
//! * `--smoke` — two tiny overlap-1.0 traces at two shard counts. In the
//!   first, the queries are told apart (digest-distinct, same tables):
//!   the smoke asserts the trigger mix is sane (every batch carries
//!   exactly one trigger, the size trigger fires), that busy shards hit
//!   their lifting caches, and that the service's summed counters —
//!   plans created, final plans, *and* the per-batch LP deltas — equal
//!   the same queries run one-by-one through a plain session; a pass
//!   with the shared-subplan cache enabled must hit subtrees while
//!   keeping those counters bit-identical. The second trace is copies of
//!   one query: every copy must coalesce onto its leader, the summed
//!   plan counters must still equal one-by-one runs of every request,
//!   and the service's LPs must equal one-by-one runs of the distinct
//!   queries only.
//! * `--smoke-chaos` — one tiny trace under a seeded fault plan at shard
//!   counts {1, 2, 4}; `run_chaos_trace` asserts outcome accounting
//!   (exactly one outcome per query, quarantine = poison count, restarts
//!   ≥ quarantines) and healthy-query plan equality against plain
//!   sessions; the smoke additionally requires that the plan actually
//!   poisons something and that healthy queries survive. An overlap-1.0
//!   pass (copies of one poisoned query) requires copies that waited on
//!   the poison leader, so the worker's re-run of each copy is exercised
//!   under the same accounting.
//! * `--smoke-net` — a clean loopback-TCP pass (real sockets,
//!   bit-identity, first-attempt answers, cache replay), a deterministic
//!   in-memory chaos pass (drop/duplicate/delay at rate 0.3, shards
//!   {1, 2} — drops must cost retries, duplicates must replay from the
//!   idempotency cache), and a dead-address pass (typed `Unavailable` in
//!   bounded wall time).
//! * `--smoke-obs` — an in-process service pass with a live virtual-clock
//!   `Obs` handle (exposition parses, the stats conservation identity
//!   and the trigger partition re-derive from registry counters alone) and a loopback-TCP pass
//!   with observed router and server (every wire trace id joins router
//!   and server spans, and a `Metrics` wire scrape returns the server
//!   registry's samples).
//!
//! Every mode writes no file and exits non-zero on violation; bad
//! arguments exit 2 with a usage line.

use mpq_bench::harness::{
    run_chaos_trace, run_net_trace, run_service_trace, service_trace, NetSpec, ServiceSpec,
};
use mpq_catalog::fault::{query_digest, NetFaultKind};
use mpq_catalog::generator::GeneratorConfig;
use mpq_catalog::generator::{generate_trace, TraceConfig, WorkloadConfig};
use mpq_catalog::graph::Topology;
use mpq_catalog::Query;
use mpq_cloud::model::CloudCostModel;
use mpq_core::grid_space::GridSpace;
use mpq_core::session::OptimizerSession;
use mpq_core::OptimizerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn die(msg: &str) -> ! {
    eprintln!("bench_service: {msg}");
    eprintln!("usage: bench_service --smoke | --smoke-chaos | --smoke-net | --smoke-obs");
    std::process::exit(2);
}

/// Summed plan counters and per-batch LPs of `queries` run one by one
/// through plain sessions (fresh space per query — the determinism
/// contract's reference).
fn one_by_one(queries: &[Query], config: &OptimizerConfig) -> (u64, u64, u64) {
    let model = CloudCostModel::default();
    let (mut plans, mut final_plans, mut lps) = (0u64, 0u64, 0u64);
    for q in queries {
        let space = GridSpace::for_unit_box(q.num_params, config, 2).expect("grid space");
        let session = OptimizerSession::new(space, &model, config.clone());
        let (solutions, batch_lps) = session.optimize_batch_counted(std::slice::from_ref(q));
        plans += solutions[0].stats.plans_created;
        final_plans += solutions[0].stats.final_plan_count as u64;
        lps += batch_lps;
    }
    (plans, final_plans, lps)
}

/// CI smoke: tiny traces, deterministic under the virtual clock,
/// checked end to end against plain one-by-one sessions.
fn run_smoke() {
    let (topology, n, p) = (Topology::Chain, 3, 1);
    let trace_len = 10;
    let mut config = OptimizerConfig::default_for(p);
    config.threads = Some(1);
    for shards in [1usize, 2] {
        let spec = ServiceSpec {
            num_tables: n,
            topology,
            num_params: p,
            trace: trace_len,
            overlap: 1.0,
            shards,
            max_batch: 3,
            max_wait_us: 120,
            mean_gap_us: 100,
            // Pass-through subtree cache: the session default is now
            // *enabled*, but this smoke pins exact counter equality
            // against one-by-one sessions — a subtree hit would replay
            // frontiers without touching the lift cache or the LP
            // solver and break the comparison.
            subtree: Some(Some(0)),
            approx_epsilon: None,
            // Digest-distinct queries over the same tables: each one is
            // batched and optimized, and they share lifts.
            distinct_copies: true,
        };
        let r = run_service_trace(&spec, 0, &config);
        // Trigger mix sane: every batch carries exactly one trigger, and
        // the size trigger fires (10 arrivals, batches of 3).
        assert_eq!(
            r.batches,
            r.size_triggered + r.deadline_triggered + r.drain_triggered,
            "smoke: triggers must partition the batches"
        );
        assert!(r.batches > 1, "smoke: the trace must form several batches");
        assert!(
            r.size_triggered > 0,
            "smoke: max_batch 3 over 10 arrivals must size-trigger"
        );
        assert_eq!(r.coalesced, 0, "smoke: distinct queries never coalesce");
        // Per-shard sharing: the queries share every table, so every
        // busy shard must hit its lifting cache.
        assert!(
            r.cache_hits > 0,
            "smoke: overlap-1.0 trace must hit the shard caches"
        );
        // Service-vs-session counter equality: the same queries, one by
        // one through a plain session, must produce exactly the same
        // summed plans and LP volume. The LP comparison uses the
        // per-batch delta accessor on both sides, so the assertion is
        // self-describing (no session-cumulative snapshots involved).
        let (plans, final_plans, lps) = one_by_one(&service_trace(&spec, 0).queries, &config);
        assert_eq!(
            (r.plans_created, r.final_plans),
            (plans, final_plans),
            "smoke: service plans diverged from one-by-one sessions ({shards} shards)"
        );
        assert_eq!(
            r.lps_solved, lps,
            "smoke: service per-batch LP deltas diverged from one-by-one ({shards} shards)"
        );
        // Per-query attribution (the per-run atomic) is live on service
        // traces.
        assert!(
            r.lps_query_median > 0.0,
            "smoke: per-query LP attribution must be recorded for service traces"
        );
        // Shared-subplan pass: the same trace with the subtree cache on
        // must actually reuse subtrees (the queries share every table)
        // while the plan counters stay bit-identical to the cache-off
        // run — memoization is pure.
        let sub = run_service_trace(
            &ServiceSpec {
                subtree: Some(None),
                ..spec
            },
            0,
            &config,
        );
        assert!(
            sub.subtree_hits > 0,
            "smoke: overlap-1.0 trace must hit the subtree cache ({shards} shards)"
        );
        assert_eq!(
            (sub.plans_created, sub.final_plans),
            (r.plans_created, r.final_plans),
            "smoke: subtree caching changed plan counters ({shards} shards)"
        );
        // Copies pass: the plain overlap-1.0 trace is copies of one
        // query. Every copy gets its leader's answer, so the summed plan
        // counters still equal one-by-one runs of every request, while
        // the LPs are those of the one distinct query.
        let copies_spec = ServiceSpec {
            distinct_copies: false,
            ..spec
        };
        let copies = run_service_trace(&copies_spec, 0, &config);
        let trace = service_trace(&copies_spec, 0);
        let mut seen = HashSet::new();
        let distinct: Vec<Query> = trace
            .queries
            .iter()
            .filter(|q| seen.insert(query_digest(q)))
            .cloned()
            .collect();
        assert_eq!(
            copies.coalesced,
            (trace.len() - distinct.len()) as u64,
            "smoke: every copy must coalesce onto its leader ({shards} shards)"
        );
        let (plans, final_plans, _) = one_by_one(&trace.queries, &config);
        assert_eq!(
            (copies.plans_created, copies.final_plans),
            (plans, final_plans),
            "smoke: copies' answers diverged from one-by-one sessions ({shards} shards)"
        );
        let (_, _, distinct_lps) = one_by_one(&distinct, &config);
        assert_eq!(
            copies.lps_solved, distinct_lps,
            "smoke: copies must cost only their leader's LPs ({shards} shards)"
        );
        eprintln!(
            "smoke ok: shards={shards} batches={} (size {}/deadline {}/drain {}) \
             hits={} plans={} subtree_hits={} coalesced={}",
            r.batches,
            r.size_triggered,
            r.deadline_triggered,
            r.drain_triggered,
            r.cache_hits,
            r.plans_created,
            sub.subtree_hits,
            copies.coalesced
        );
    }
}

/// CI chaos smoke: the same tiny trace, now with a seeded fault plan
/// poisoning ~30% of it, at every acceptance shard count {1, 2, 4}.
/// `run_chaos_trace` itself asserts the robustness contract (exactly
/// one outcome per query, quarantined == poisoned, restarts ≥
/// quarantines, healthy plans bit-identical to plain sessions); the
/// smoke adds that the plan is non-trivial on both sides — something
/// was poisoned *and* something healthy survived it.
fn run_smoke_chaos() {
    let (topology, n, p) = (Topology::Chain, 3, 1);
    let mut config = OptimizerConfig::default_for(p);
    config.threads = Some(1);
    for shards in [1usize, 2, 4] {
        let spec = ServiceSpec {
            num_tables: n,
            topology,
            num_params: p,
            trace: 10,
            // Distinct shapes: poison identity is a content digest, so
            // overlap 0.0 keeps "which query is poisoned" well-defined.
            overlap: 0.0,
            shards,
            max_batch: 3,
            max_wait_us: 120,
            mean_gap_us: 100,
            subtree: None,
            approx_epsilon: None,
            distinct_copies: false,
        };
        let r = run_chaos_trace(&spec, 0.3, 0, &config);
        assert!(
            r.quarantined > 0,
            "chaos smoke: rate 0.3 over 10 queries must poison something"
        );
        assert!(
            r.healthy > 0,
            "chaos smoke: healthy queries must survive their poisoned batchmates"
        );
        // Copies of one query share its fault fate: a poisoned leader's
        // waiting copies are each re-run alone by its shard worker, and
        // `run_chaos_trace` holds them to the same accounting
        // (quarantined == poisoned, restarts ≥ quarantines).
        let copies = run_chaos_trace(
            &ServiceSpec {
                overlap: 1.0,
                ..spec
            },
            0.3,
            0,
            &config,
        );
        assert!(
            copies.quarantined > 0 && copies.coalesced > 0,
            "chaos smoke: the overlap-1.0 pass must poison a leader with waiting copies"
        );
        eprintln!(
            "chaos smoke ok: shards={shards} healthy={} quarantined={} restarts={} \
             batches={} plans={}; copies: quarantined={} coalesced={} restarts={}",
            r.healthy,
            r.quarantined,
            r.restarts,
            r.batches,
            r.healthy_plans_created,
            copies.quarantined,
            copies.coalesced,
            copies.restarts
        );
    }
}

/// CI network smoke: three passes over the shard fabric.
///
/// 1. **Clean loopback TCP** — two real shard servers on `127.0.0.1`
///    behind the retrying router: every answer must be bit-identical to
///    a plain in-process optimization, delivered on the **first**
///    attempt with zero transport effort (no retries, no reconnects, no
///    drops), and a replayed digest must answer from the idempotency
///    cache.
/// 2. **In-memory chaos** — `run_net_trace` at drop / duplicate / delay
///    rate 0.3, shards {1, 2}: the runner itself asserts recovery,
///    bit-identity and conservation; the smoke adds that drops actually
///    cost retries and duplicates actually replay from the cache.
/// 3. **Dead address** — a router pointed at a refused port resolves a
///    typed `Unavailable` in bounded wall time, never a hang.
///
/// Writes no file; exits non-zero on violation.
fn run_smoke_net() {
    use mpq_core::grid_space::GridSpace as Grid;
    use mpq_core::rrpa::optimize;
    use mpq_core::session::{query_affinity, SessionConfig, ShardedSession};
    use mpq_net::router::{NetTime, RetryPolicy, ShardRouter, StreamConn};
    use mpq_net::server::{serve_tcp, ShardServerCore};
    use mpq_net::wire::{PlanSummary, WireOutcome};
    use mpq_service::SubmittedQuery;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Raises the shutdown flag when dropped — including during a
    /// panic's unwind — so a failing assertion inside the server scope
    /// cannot leave the accept loops running and deadlock the join.
    struct ShutdownGuard<'a>(&'a AtomicBool);
    impl Drop for ShutdownGuard<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    let mut config = OptimizerConfig::default_for(1);
    config.threads = Some(1);
    config.grid_resolution = 4;
    let probes: Vec<Vec<f64>> = [0.0, 0.15, 0.5, 0.85, 1.0]
        .iter()
        .map(|&v| vec![v])
        .collect();

    // Pass 1: clean loopback TCP.
    let trace = generate_trace(
        &TraceConfig {
            workload: WorkloadConfig::uniform(
                GeneratorConfig::paper(3, Topology::Chain, 1),
                4,
                0.5,
            ),
            mean_gap: 0.0,
        },
        &mut StdRng::seed_from_u64(13),
    );
    let model = CloudCostModel::default();
    let reference: Vec<PlanSummary> = trace
        .queries
        .iter()
        .map(|q| {
            let space = Grid::for_unit_box(1, &config, 2).expect("grid space");
            let sol = optimize(q, &model, &space, &config);
            PlanSummary::of(&space, &sol, &probes)
        })
        .collect();
    let mut session_cfg = SessionConfig::new(config.clone()).without_subtree_cache();
    session_cfg.cached = false;
    let shards = 2usize;
    let sessions = ShardedSession::build(shards, &model, &session_cfg, || {
        Grid::for_unit_box(1, &config, 2).expect("grid space")
    });
    let cores: Vec<_> = (0..shards)
        .map(|i| ShardServerCore::new(sessions.shard(i), i as u32, probes.clone()))
        .collect();
    let listeners: Vec<TcpListener> = (0..shards)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let shutdown = AtomicBool::new(false);
    let policy = RetryPolicy {
        max_attempts: 4,
        attempt_timeout: 10.0,
        base_backoff: 0.01,
        max_backoff: 0.05,
        jitter: 0.5,
        seed: 42,
    };
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
            policy,
            NetTime::wall(),
        );
        for (i, query) in trace.queries.iter().enumerate() {
            let resp = router.submit(SubmittedQuery {
                query: query.clone(),
                deadline: None,
            });
            let summary = resp
                .outcome
                .ok()
                .unwrap_or_else(|| panic!("net smoke: query {i} unhealthy over TCP"));
            assert_eq!(
                summary, &reference[i],
                "net smoke: query {i} diverged over loopback TCP"
            );
            assert_eq!(resp.attempts, 1, "net smoke: clean wire needs one attempt");
        }
        let stats = router.stats();
        assert_eq!(stats.completed, trace.len() as u64);
        assert!(stats.conserves(), "net smoke: conservation over TCP");
        assert_eq!(
            (stats.retries, stats.reconnects, stats.dropped),
            (0, 0, 0),
            "net smoke: clean loopback shows zero transport effort"
        );
        let replay = router.submit(SubmittedQuery {
            query: trace.queries[0].clone(),
            deadline: None,
        });
        assert!(
            replay.dedup,
            "net smoke: replayed digest answers from cache"
        );
        shutdown.store(true, Ordering::Relaxed);
    });
    eprintln!(
        "net smoke ok: loopback TCP, {} queries bit-identical, zero retries",
        trace.len()
    );

    // Pass 2: deterministic in-memory chaos (the runner asserts the
    // recovery / bit-identity / conservation contract internally).
    for shards in [1usize, 2] {
        for kind in [
            NetFaultKind::Drop,
            NetFaultKind::Duplicate,
            NetFaultKind::Delay,
        ] {
            let spec = NetSpec {
                num_tables: 3,
                topology: Topology::Chain,
                num_params: 1,
                trace: 6,
                overlap: 0.5,
                shards,
                fault_kind: Some(kind),
                fault_rate: 0.3,
                mean_gap_us: 25,
            };
            let r = run_net_trace(&spec, 1, &config);
            match kind {
                NetFaultKind::Drop if r.faults_injected > 0 => {
                    assert!(r.retries > 0, "net smoke: drops must cost retries");
                    assert!(r.dropped > 0, "net smoke: drops must be counted");
                }
                NetFaultKind::Duplicate if r.faults_injected > 0 => {
                    assert!(
                        r.dedup_hits > 0,
                        "net smoke: duplicates must replay from the cache"
                    );
                }
                _ => {}
            }
            eprintln!(
                "net smoke ok: chaos {} shards={shards} faults={} retries={} dedup={}",
                kind.name(),
                r.faults_injected,
                r.retries,
                r.dedup_hits
            );
        }
    }

    // Pass 3: graceful degradation on a dead address.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("local addr")
    };
    let mut router = ShardRouter::new(
        vec![StreamConn::tcp(dead_addr, Duration::from_millis(250))],
        |q| query_affinity(q, &model),
        RetryPolicy {
            max_attempts: 3,
            attempt_timeout: 0.25,
            base_backoff: 0.01,
            max_backoff: 0.02,
            jitter: 0.5,
            seed: 7,
        },
        NetTime::wall(),
    );
    let started = std::time::Instant::now();
    let resp = router.submit(SubmittedQuery {
        query: trace.queries[0].clone(),
        deadline: None,
    });
    assert_eq!(
        resp.outcome,
        WireOutcome::Unavailable,
        "net smoke: dead shard must degrade to a typed Unavailable"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "net smoke: unreachable shard must fail fast"
    );
    assert!(router.stats().conserves());
    eprintln!(
        "net smoke ok: dead address degraded to Unavailable in {:?}",
        started.elapsed()
    );
}

/// CI observability smoke: two passes over the deterministic obs layer.
///
/// 1. **In-process service, obs on** — a small trace through `serve`
///    with a virtual-clock `Obs` handle: the Prometheus-style exposition
///    must parse, and the `ServiceStats` conservation identity must
///    re-derive from the registry counters alone (the registry is not a
///    second bookkeeping system — it mirrors the service's own atomics
///    bump for bump).
/// 2. **Loopback TCP, obs on both ends** — a real socket hop between an
///    observed router and an observed shard server: every trace id the
///    router stamped on the wire must come back on exactly one
///    `server_request` span (the cross-process join contract), and a
///    `Metrics` wire scrape must return the server registry's own
///    samples.
///
/// Writes no file; exits non-zero on violation.
fn run_smoke_obs() {
    use mpq_core::grid_space::GridSpace as Grid;
    use mpq_core::session::{query_affinity, SessionConfig, ShardedSession};
    use mpq_net::router::{NetTime, RetryPolicy, ShardRouter, StreamConn};
    use mpq_net::server::{serve_tcp, ShardServerCore};
    use mpq_obs::{parse_exposition, Obs};
    use mpq_service::{serve, BatchPolicy, ServiceConfig, SubmittedQuery, VirtualClock};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    struct ShutdownGuard<'a>(&'a AtomicBool);
    impl Drop for ShutdownGuard<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    let mut config = OptimizerConfig::default_for(1);
    config.threads = Some(1);
    config.grid_resolution = 4;
    let model = CloudCostModel::default();
    let trace = generate_trace(
        &TraceConfig {
            workload: WorkloadConfig::uniform(
                GeneratorConfig::paper(3, Topology::Chain, 1),
                10,
                0.5,
            ),
            mean_gap: 150e-6,
        },
        &mut StdRng::seed_from_u64(17),
    );

    // Pass 1: in-process service with a live handle on the virtual clock.
    {
        let session_cfg = SessionConfig::new(config.clone());
        let sessions = ShardedSession::build(2, &model, &session_cfg, || {
            Grid::for_unit_box(1, &config, 2).expect("grid space")
        });
        let vclock = VirtualClock::new();
        let vc = VirtualClock::clone(&vclock);
        let obs = Obs::with_clock(true, Arc::new(move || vc.now_micros()));
        let service_cfg = ServiceConfig::new(BatchPolicy::new(3, Duration::from_micros(400)))
            .with_clock(vclock.clock())
            .with_obs(obs.clone());
        let (tickets, stats) = serve(&sessions, service_cfg, |handle| {
            trace
                .queries
                .iter()
                .zip(&trace.arrivals)
                .map(|(q, &at)| {
                    vclock.advance_to_secs(at);
                    handle.submit(q.clone())
                })
                .collect::<Vec<_>>()
        });
        for ticket in tickets {
            let _ = ticket.wait();
        }
        assert!(stats.conserves(), "obs smoke: service conservation");
        let registry = obs.registry().expect("enabled handle");
        let get = |name: &str| registry.counter(name).get();
        assert_eq!(
            get("service_submitted"),
            stats.submitted,
            "obs smoke: registry mirrors the service's own counter"
        );
        assert_eq!(
            get("service_submitted"),
            get("service_completed")
                + get("service_rejected")
                + get("service_timed_out")
                + get("service_quarantined"),
            "obs smoke: conservation re-derived from the registry alone"
        );
        assert_eq!(
            get("service_batches"),
            get("service_size_triggered")
                + get("service_deadline_triggered")
                + get("service_drain_triggered"),
            "obs smoke: triggers partition the batches, from the registry alone"
        );
        let text = registry.expose();
        let samples = parse_exposition(&text).expect("obs smoke: exposition parses");
        assert!(
            samples.iter().any(|(n, _)| n == "service_submitted"),
            "obs smoke: exposition carries the service counters"
        );
        eprintln!(
            "obs smoke ok: service pass, {} submitted, {} exposition samples, \
             conservation holds from the registry alone",
            stats.submitted,
            samples.len()
        );
    }

    // Pass 2: trace-id join and registry scrape across a real TCP hop.
    {
        let mut session_cfg = SessionConfig::new(config.clone()).without_subtree_cache();
        session_cfg.cached = false;
        let sessions = ShardedSession::build(1, &model, &session_cfg, || {
            Grid::for_unit_box(1, &config, 2).expect("grid space")
        });
        let probes: Vec<Vec<f64>> = [0.0, 0.5, 1.0].iter().map(|&v| vec![v]).collect();
        let server_obs = Obs::wall();
        let core = ShardServerCore::new(sessions.shard(0), 0, probes).with_obs(server_obs.clone());
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
                RetryPolicy {
                    max_attempts: 4,
                    attempt_timeout: 10.0,
                    base_backoff: 0.01,
                    max_backoff: 0.05,
                    jitter: 0.5,
                    seed: 42,
                },
                NetTime::wall(),
            )
            .with_obs(router_obs.clone());
            for (i, query) in trace.queries.iter().enumerate() {
                let resp = router.submit(SubmittedQuery {
                    query: query.clone(),
                    deadline: None,
                });
                assert!(
                    resp.outcome.ok().is_some(),
                    "obs smoke: query {i} unhealthy over TCP"
                );
            }
            let traces_of = |obs: &Obs, name: &str| -> Vec<u64> {
                let mut v: Vec<u64> = obs
                    .spans()
                    .iter()
                    .filter(|s| s.name == name)
                    .flat_map(|s| s.fields.iter())
                    .filter(|(k, _)| *k == "trace")
                    .map(|&(_, value)| value)
                    .collect();
                v.sort_unstable();
                v
            };
            let sent = traces_of(&router_obs, "route_request");
            let seen = traces_of(&server_obs, "server_request");
            assert_eq!(sent.len(), trace.len(), "obs smoke: one span per submit");
            assert_eq!(
                sent, seen,
                "obs smoke: trace ids must join across the TCP hop"
            );
            let scraped = router.scrape(0).expect("obs smoke: scrape over TCP");
            assert!(
                scraped
                    .iter()
                    .any(|(n, v)| n == "server_handled" && *v == trace.len() as f64),
                "obs smoke: wire scrape returns the server's registry"
            );
            shutdown.store(true, Ordering::Relaxed);
            eprintln!(
                "obs smoke ok: {} trace ids joined across loopback TCP, scrape \
                 returned {} samples",
                sent.len(),
                scraped.len()
            );
        });
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [mode] if mode == "--smoke" => run_smoke(),
        [mode] if mode == "--smoke-chaos" => run_smoke_chaos(),
        [mode] if mode == "--smoke-net" => run_smoke_net(),
        [mode] if mode == "--smoke-obs" => run_smoke_obs(),
        [] => die("a mode is required"),
        _ => die(&format!("unknown arguments: {}", args.join(" "))),
    }
}
