//! `wire-cold`: loopback TCP. One `serve_tcp` shard server; two client
//! threads, each driving its own `ShardRouter` over its own connection.
//! The load is an open loop: Poisson arrivals at a fixed rate, each sent
//! by whichever client is free once it is due, and timed from the due
//! time. Every query is distinct (4-table 1-parameter and 3-table
//! 2-parameter chains and stars, no shared tables), so the server's dedup
//! cache and the session's lift and subtree caches all take the miss
//! path; the codec, socket, server and router layers carry the load, with
//! moderate optimizer work.

use crate::check::{digest, probes};
use crate::common::{
    finish_trace, ms, set_end_to_end, set_lp_layers, set_proc_layers, Measured, Opts, Segment,
    Window, SETUP_REPEATS,
};
use crate::openloop::poisson_schedule;
use crate::procfs::{self, CpuTimes};
use crate::report::Report;
use crate::stats::{self, percentile, ratio};
use crate::trace::{self, Span};
use mpq_catalog::generator::{generate, GeneratorConfig};
use mpq_catalog::graph::Topology;
use mpq_catalog::Query;
use mpq_cloud::model::{CloudCostModel, ParametricCostModel};
use mpq_core::grid_space::GridSpace;
use mpq_core::rrpa::optimize;
use mpq_core::session::{query_affinity, SessionConfig, ShardedSession};
use mpq_core::OptimizerConfig;
use mpq_lp::FastPathBreakdown;
use mpq_net::router::{NetResponse, NetTime, RetryPolicy, ShardRouter, StreamConn};
use mpq_net::server::{serve_tcp, ServerCounters, ShardServerCore};
use mpq_net::wire::{
    decode_message, encode_message, Message, PlanSummary, WireRequest, WireResponse,
};
use mpq_obs::Obs;
use mpq_service::SubmittedQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Query shapes, cycled: (tables, topology, parameters).
const SHAPES: [(usize, Topology, usize); 4] = [
    (4, Topology::Chain, 1),
    (4, Topology::Star, 1),
    (3, Topology::Chain, 2),
    (3, Topology::Star, 2),
];
/// Offered load, arrivals per second: about a quarter of what the server
/// answers back to back on a 2-core x86-64 machine, so a slow spell of the
/// host does not tip it into saturation.
const RATE: f64 = 25.0;
/// The latency limit `slo_miss_frac` judges against.
const SLO_MS: f64 = 50.0;
/// Generator seed of the query pool. The pool is the same for every
/// `--seed`, which draws only its order and the arrival times: distinct
/// pools differ in optimizer work enough to move the median latency by
/// more than the host's own noise.
const POOL_SEED: u64 = 0x5eed_0001;
/// Answers kept whole for the codec measurements.
const CODEC_SAMPLE: usize = 512;

/// The space covers 2 parameters, so 1-parameter queries run in it too.
fn opt_config() -> OptimizerConfig {
    OptimizerConfig {
        threads: Some(1),
        grid_resolution: 2,
        ..OptimizerConfig::default_for(2)
    }
}

/// Generous attempt timeout, so a loaded machine cannot fake a fault.
fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        attempt_timeout: 10.0,
        base_backoff: 0.01,
        max_backoff: 0.05,
        jitter: 0.5,
        seed: 42,
    }
}

/// The generated input: distinct queries and their arrival offsets.
struct Input {
    pool: Vec<Query>,
    dues: Vec<Duration>,
}

impl Input {
    fn generate(opts: &Opts) -> Self {
        let n = (RATE * opts.seconds as f64).round() as usize;
        let mut pool_rng = StdRng::seed_from_u64(POOL_SEED);
        let mut pool: Vec<Query> = (0..n)
            .map(|i| {
                let (tables, topology, params) = SHAPES[i % SHAPES.len()];
                generate(
                    &GeneratorConfig::paper(tables, topology, params),
                    &mut pool_rng,
                )
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        for i in (1..pool.len()).rev() {
            pool.swap(i, rng.gen_range(0..=i));
        }
        let dues = poisson_schedule(n, opts.window(), &mut rng);
        Self { pool, dues }
    }
}

/// One answered request, kept small: the answer as a digest.
struct Answer {
    idx: usize,
    /// From the due time.
    latency_ms: f64,
    /// Completion, seconds after the window opened.
    end_s: f64,
    attempts: u32,
    /// `None` for a non-`Ok` outcome.
    summary: Option<(u64, u64, u64, u64)>,
    /// Set by the check after the window.
    correct: bool,
}

/// One client's share of the window.
struct ClientOut {
    answers: Vec<Answer>,
    sample: Vec<(usize, NetResponse)>,
    retries: u64,
    reconnects: u64,
}

/// Raises the shutdown flag when dropped, so a panic inside the server
/// scope cannot leave the accept loop running and hang the join.
struct ShutdownGuard<'a>(&'a AtomicBool);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A router over one already-connected stream (dialled during set-up, so
/// the first query pays no connect), re-dialling after any failure.
fn router<'a>(
    stream: TcpStream,
    addr: SocketAddr,
    model: &'a CloudCostModel,
    obs: &Obs,
) -> ShardRouter<'a, StreamConn<TcpStream>> {
    let mut first = Some(stream);
    let conn = StreamConn::new(move || match first.take() {
        Some(s) => Ok(s),
        None => {
            let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
            s.set_nodelay(true)?;
            Ok(s)
        }
    });
    ShardRouter::new(
        vec![conn],
        move |q| query_affinity(q, model),
        policy(),
        NetTime::wall(),
    )
    .with_obs(obs.clone())
}

/// Takes the next request from the shared cursor whenever this client is
/// free, sends it once it is due, and times it from the due time: a
/// request that found both clients busy is charged the wait.
fn client(
    mut router: ShardRouter<'_, StreamConn<TcpStream>>,
    input: &Input,
    cursor: &AtomicUsize,
    start: Instant,
    obs: &Obs,
) -> ClientOut {
    let mut out = ClientOut {
        answers: Vec::new(),
        sample: Vec::new(),
        retries: 0,
        reconnects: 0,
    };
    loop {
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= input.pool.len() {
            break;
        }
        let due = start + input.dues[idx];
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let mut span = obs.span("bench_router_submit");
        span.record("seq", idx as u64);
        let response = router.submit(SubmittedQuery::new(input.pool[idx].clone()));
        drop(span);
        let done = Instant::now();
        let summary = response.outcome.ok().map(|s| {
            (
                digest(s),
                s.plans_created,
                s.final_plan_count,
                s.lps_solved_query,
            )
        });
        out.answers.push(Answer {
            idx,
            latency_ms: ms(done.saturating_duration_since(due)),
            end_s: (done - start).as_secs_f64(),
            attempts: response.attempts,
            summary,
            correct: false,
        });
        if idx < CODEC_SAMPLE {
            out.sample.push((idx, response));
        }
    }
    let stats = router.stats();
    out.retries = stats.retries;
    out.reconnects = stats.reconnects;
    out
}

/// Everything one run measured beyond the end-to-end numbers.
struct Run {
    m: Measured,
    answers: Vec<Answer>,
    sample: Vec<(usize, NetResponse)>,
    retries: u64,
    reconnects: u64,
    counters: ServerCounters,
    breakdown: FastPathBreakdown,
    /// (hits, misses) of the lift and the subtree cache.
    cache: ((u64, u64), (u64, u64)),
    /// Entries of the lift and the subtree cache.
    entries: (usize, usize),
}

fn measure(input: &Input, obs: &Obs) -> Run {
    let model = CloudCostModel::default();
    let opt = opt_config();
    let (mut setup_s, mut build_ms) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPEATS {
        let last = rep + 1 == SETUP_REPEATS;
        let t0 = Instant::now();
        let mut build = Duration::ZERO;
        let sessions = ShardedSession::build(1, &model, &SessionConfig::new(opt.clone()), || {
            let t = Instant::now();
            let mut span = obs.span("bench_space_build");
            span.record("params", 2);
            let space = GridSpace::for_unit_box(2, &opt, model.num_metrics()).expect("valid grid");
            build += t.elapsed();
            space
        });
        let core = ShardServerCore::new(sessions.shard(0), 0, probes(2)).with_obs(obs.clone());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        // Connect before the accept loop starts: the kernel queues the
        // connections, and the loop's first `accept` takes them at once.
        let streams: Vec<TcpStream> = (0..CLIENTS)
            .map(|_| {
                let s = TcpStream::connect(addr).expect("connect loopback");
                s.set_nodelay(true).expect("set TCP_NODELAY");
                s
            })
            .collect();
        let shutdown = AtomicBool::new(false);
        let outs: Option<(Vec<ClientOut>, CpuTimes)> = std::thread::scope(|scope| {
            let _guard = ShutdownGuard(&shutdown);
            let (core, shutdown) = (&core, &shutdown);
            let server = scope.spawn(move || serve_tcp(listener, core, shutdown));
            let routers: Vec<_> = streams
                .into_iter()
                .map(|s| router(s, addr, &model, obs))
                .collect();
            setup_s.push(t0.elapsed().as_secs_f64());
            build_ms.push(ms(build));
            let result = last.then(|| {
                let cursor = AtomicUsize::new(0);
                let window = Window::open();
                let outs: Vec<ClientOut> = std::thread::scope(|clients| {
                    let handles: Vec<_> = routers
                        .into_iter()
                        .map(|r| {
                            let (cursor, start) = (&cursor, window.start());
                            clients.spawn(move || client(r, input, cursor, start, obs))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client panicked"))
                        .collect()
                });
                (outs, window.close().1)
            });
            shutdown.store(true, Ordering::Relaxed);
            server
                .join()
                .expect("server thread panicked")
                .expect("accept loop");
            result
        });
        let Some((outs, cpu)) = outs else {
            continue;
        };
        let peak_rss_mb = procfs::peak_rss_mb();
        let session = sessions.shard(0);
        let (cache, subtree) = (session.cache_stats(), session.subtree_cache_stats());
        let mut run = Run {
            m: Measured {
                setup_s: std::mem::take(&mut setup_s),
                space_build_ms: std::mem::take(&mut build_ms),
                latencies_ms: Vec::new(),
                attempted: 0,
                failed: 0,
                segments: Vec::new(),
                peak_rss_mb,
            },
            answers: Vec::new(),
            sample: Vec::new(),
            retries: 0,
            reconnects: 0,
            counters: core.counters(),
            breakdown: session.space().lp_ctx().fastpath_breakdown(),
            cache: ((cache.hits, cache.misses), (subtree.hits, subtree.misses)),
            entries: (session.cached_shapes(), session.cached_subtrees()),
        };
        for o in outs {
            run.answers.extend(o.answers);
            run.sample.extend(o.sample);
            run.retries += o.retries;
            run.reconnects += o.reconnects;
        }
        check(&input.pool, &mut run);
        run.m.segments = vec![Segment {
            wall_s: run.answers.iter().map(|a| a.end_s).fold(0.0, f64::max),
            cpu,
            correct: run.m.answered(),
        }];
        return run;
    }
    unreachable!("the last set-up runs the window")
}

/// Compares every answer with a plain in-process `optimize` of the same
/// query, computed after the window on two threads.
fn check(pool: &[Query], run: &mut Run) {
    run.answers.sort_by_key(|a| a.idx);
    let model = CloudCostModel::default();
    let opt = opt_config();
    let reference: Vec<u64> = std::thread::scope(|scope| {
        let chunks: Vec<_> = run
            .answers
            .chunks(run.answers.len().div_ceil(2).max(1))
            .map(|chunk| {
                let (model, opt) = (&model, &opt);
                scope.spawn(move || {
                    let space =
                        GridSpace::for_unit_box(2, opt, model.num_metrics()).expect("valid grid");
                    let probes = probes(2);
                    chunk
                        .iter()
                        .map(|a| {
                            let solution = optimize(&pool[a.idx], model, &space, opt);
                            digest(&PlanSummary::of(&space, &solution, &probes))
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        chunks
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    run.m.attempted = run.answers.len() as u64;
    for (a, want) in run.answers.iter_mut().zip(reference) {
        match a.summary {
            Some((got, ..)) if got == want => {
                a.correct = true;
                run.m.latencies_ms.push(a.latency_ms);
            }
            Some(_) => {
                run.m.failed += 1;
                eprintln!("# wrong answer for query {}", a.idx);
            }
            None => run.m.failed += 1,
        }
    }
}

/// Frame sizes and codec times of the run's own messages, measured after
/// the window: per query, one request and one response frame.
fn codec(r: &mut Report, pool: &[Query], sample: &[(usize, NetResponse)]) {
    let messages: Vec<(Message, Message)> = sample
        .iter()
        .map(|(idx, resp)| {
            let request = Message::Request(WireRequest {
                request_id: *idx as u64,
                digest: 0,
                attempt: 0,
                trace_id: *idx as u64,
                submitted: SubmittedQuery::new(pool[*idx].clone()),
            });
            let response = Message::Response(WireResponse {
                request_id: *idx as u64,
                digest: 0,
                trace_id: *idx as u64,
                shard: resp.shard as u32,
                dedup: resp.dedup,
                outcome: resp.outcome.clone(),
                served_epsilon: resp.served_epsilon,
            });
            (request, response)
        })
        .collect();
    if messages.is_empty() {
        return;
    }
    let n = messages.len() as f64;
    // Frames carry a 4-byte length prefix on the wire.
    let frames: Vec<(Vec<u8>, Vec<u8>)> = messages
        .iter()
        .map(|(q, a)| (encode_message(q), encode_message(a)))
        .collect();
    let req_bytes: usize = frames.iter().map(|(q, _)| q.len() + 4).sum();
    let resp_bytes: usize = frames.iter().map(|(_, a)| a.len() + 4).sum();
    r.set("wire.request_bytes", Some(req_bytes as f64 / n));
    r.set("wire.response_bytes", Some(resp_bytes as f64 / n));
    let per_query_us = |f: &dyn Fn()| -> f64 {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6 / n
            })
            .collect();
        stats::median(&times).unwrap_or(0.0)
    };
    r.set(
        "wire.encode_us",
        Some(per_query_us(&|| {
            for (q, a) in &messages {
                std::hint::black_box((encode_message(q), encode_message(a)));
            }
        })),
    );
    r.set(
        "wire.decode_us",
        Some(per_query_us(&|| {
            for (q, a) in &frames {
                let _ = std::hint::black_box((decode_message(q), decode_message(a)));
            }
        })),
    );
    for name in ["wire.encode_us", "wire.decode_us"] {
        r.note(
            name,
            format!("per query (request + response), {} queries", messages.len()),
        );
    }
}

/// Server request and optimize times, the lock wait between them, and
/// the transport time the router saw beyond the server's, from the span
/// file.
fn net_spans(r: &mut Report, spans: &[Span]) {
    let kids = trace::children(spans);
    let server = trace::named(spans, "server_request");
    let mut request = Vec::new();
    let mut optimize = Vec::new();
    let mut lock_wait = Vec::new();
    for s in &server {
        request.push(s.dur_ms());
        if let Some(o) = kids
            .get(&s.id)
            .and_then(|c| c.iter().find(|c| c.name == "optimize"))
        {
            optimize.push(o.dur_ms());
            lock_wait.push(s.dur_ms() - o.dur_ms());
        }
    }
    let p50 = |v: Vec<f64>| percentile(&stats::sorted(v), 50);
    r.set("server.request_ms_p50", p50(request));
    r.set("server.optimize_ms_p50", p50(optimize));
    r.set("server.lock_wait_ms_p50", p50(lock_wait));
    r.note(
        "server.lock_wait_ms_p50",
        "per request: server_request minus its optimize span (lock wait, summary, encode)",
    );
    let client = trace::named(spans, "route_request");
    let transport: Vec<f64> = trace::join_by_trace(&client, &server)
        .into_iter()
        .map(|(c, s)| client[c].dur_ms() - server[s].dur_ms())
        .collect();
    r.note(
        "net.transport_ms_p50",
        format!(
            "{} of {} requests joined by trace id",
            transport.len(),
            client.len()
        ),
    );
    r.set("net.transport_ms_p50", p50(transport));
}

pub fn run_workload(opts: &Opts) -> Report {
    let input = Input::generate(opts);
    let mut r = Report::default();
    r.info.push(format!(
        "open loop, {} Poisson arrivals at {RATE} per s of distinct queries, sent by \
         {CLIENTS} clients over loopback TCP to one shard server",
        input.pool.len()
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
    let n = run.answers.len() as f64;
    let sum = |f: fn(&(u64, u64, u64, u64)) -> u64| -> f64 {
        run.answers
            .iter()
            .filter_map(|a| a.summary.as_ref().map(f))
            .sum::<u64>() as f64
    };
    set_lp_layers(&mut r, sum(|s| s.3) as u64, &run.breakdown, m.answered());
    r.set("rrpa.plans_per_query", ratio(sum(|s| s.1), n));
    r.set("rrpa.final_plans_per_query", ratio(sum(|s| s.2), n));
    let ((lh, lm), (sh, sm)) = run.cache;
    r.set("cache.lift_hit_rate", ratio(lh as f64, (lh + lm) as f64));
    r.set("cache.subtree_hit_rate", ratio(sh as f64, (sh + sm) as f64));
    r.set("cache.lift_entries", Some(run.entries.0 as f64));
    r.set("cache.subtree_entries", Some(run.entries.1 as f64));
    r.set(
        "server.dedup_hit_rate",
        ratio(run.counters.dedup_hits as f64, run.counters.handled as f64),
    );
    let attempts: u64 = run.answers.iter().map(|a| u64::from(a.attempts)).sum();
    r.set("router.attempts_per_query", ratio(attempts as f64, n));
    r.set("router.retries", Some(run.retries as f64));
    r.set("router.reconnects", Some(run.reconnects as f64));
    for name in [
        "service.rejected",
        "service.timed_out",
        "service.quarantined",
    ] {
        r.set(name, Some(0.0));
        r.note(name, "layer not used by this workload");
    }
    codec(&mut r, &input.pool, &run.sample);

    let obs = Obs::wall();
    let traced = measure(&input, &obs);
    r.attempted += traced.m.attempted;
    r.failed += traced.m.failed;
    let spans = finish_trace(&mut r, opts, &obs, m.queries_per_s(), &traced.m);
    net_spans(&mut r, &spans);
    r
}
