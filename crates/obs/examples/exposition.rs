//! Serves one simulated request trace through an [`Obs`] handle and
//! prints what an operator would scrape: the span tree, the Prometheus
//! text exposition, and the JSONL snapshot.
//!
//! The clock is a deterministic ticker, so this example's output is
//! byte-identical on every run — the same property the replay proptests
//! pin for the real optimizer under a virtual clock.
//!
//! ```bash
//! cargo run --release -p mpq-obs --example exposition
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpq_obs::{parse_exposition, Obs};

fn main() {
    // A virtual clock: every read advances 250 µs, as if each step of
    // the request took exactly that long.
    let ticks = AtomicU64::new(0);
    let obs = Obs::with_clock(Arc::new(move || ticks.fetch_add(250, Ordering::Relaxed)));

    let registry = obs.registry().expect("enabled handle has a registry");
    let submitted = registry.counter("service_submitted");
    let completed = registry.counter("service_completed");
    let latency = registry.histogram("service_latency_seconds");
    let cache = registry.cache("lift_cache");

    // One request: submit -> batch -> per-level DP work -> respond.
    for (trace_id, levels) in [(1u64, 3u64), (2, 4)] {
        submitted.inc();
        let started = obs.now_us();
        let mut request = obs.span("request");
        request.record("trace_id", trace_id);
        {
            let mut batch = obs.span("batch_dispatch");
            batch.record("shard", trace_id % 2);
            for level in 1..=levels {
                let mut dp = obs.span("dp_level");
                dp.record("level", level);
                dp.record("plans_delta", 10 * level);
                // The cache warms as levels repeat across requests.
                if trace_id > 1 {
                    cache.hit();
                } else {
                    cache.miss();
                }
            }
        }
        drop(request);
        completed.inc();
        latency.record_secs((obs.now_us() - started) as f64 * 1e-6);
    }

    println!("== span tree ==");
    print!("{}", obs.span_tree());
    println!("\n== exposition ==");
    let text = registry.expose();
    print!("{text}");
    let samples = parse_exposition(&text).expect("own exposition parses");
    println!("\n== jsonl snapshot ({} samples parsed) ==", samples.len());
    print!("{}", registry.snapshot_jsonl());
}
