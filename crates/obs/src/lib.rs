//! Deterministic observability for the MPQ optimizer stack.
//!
//! Everything in this crate obeys the same determinism contract the
//! optimizer itself lives by: given the same trace and the same clock,
//! every counter value, histogram bucket, span id and exposition byte is
//! identical across runs. Under a virtual clock the whole observability
//! output is a *pure function of the trace* — which makes it
//! proptest-pinnable, replayable, and mergeable across shards.
//!
//! Three layers:
//!
//! - **Metrics registry** ([`Registry`]): named atomic [`Counter`]s,
//!   [`Gauge`]s, log-bucketed [`Histogram`]s and [`CacheCounters`],
//!   hand-rolled with no external dependencies. Reads are lock-light
//!   (one short registry lock to look a handle up, atomics thereafter);
//!   the hot path touches only `Relaxed` atomics. One walk reads it:
//!   [`Registry::samples`], a flat `(name, value)` list that the wire
//!   scrape carries and [`Registry::expose`] prints as text.
//! - **Structured spans** ([`Obs::span`]): a guard API over a
//!   thread-local span stack. Opening a span inside another span links
//!   parent → child; dropping the guard stamps the end time and files
//!   the [`SpanRecord`]. [`Obs::span_tree`] renders the finished tree.
//! - **Gating** ([`Obs::off`]): a disabled handle is a no-op on the
//!   hot path — `span()` returns an inert guard, no allocation, no
//!   clock read, no lock. The optimizer layers read the
//!   ambient handle via [`current`] (installed on the calling thread
//!   with [`install`], a scope guard that restores the previous handle
//!   on drop), so code that never installs one pays nothing.
//!
//! Histogram buckets are logarithmic with 8 sub-buckets per octave
//! (values below 64 are exact), so any recorded value is within 12.5 %
//! of its bucket's reported upper bound while the whole histogram is a
//! fixed 528 counters — bounded memory regardless of stream length.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Recovers a poisoned lock: every structure here is a plain bag of
/// atomics / POD records, valid after any panic mid-update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// A monotonically increasing atomic counter. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value atomic gauge. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` and returns the new value.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Cache counters
// ---------------------------------------------------------------------------

/// The one shape every cache in the workspace reports through: hits,
/// misses, evictions. Callers hold an `Arc<CacheCounters>` inside the
/// cache and register the same `Arc` in a [`Registry`], so the cache's
/// own accessors and the scraped metrics can never disagree.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheCounters {
    /// Fresh counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one hit.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one miss.
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one eviction.
    pub fn evict(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Hits over lookups, zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Log-bucketed histogram
// ---------------------------------------------------------------------------

/// Values below this are counted exactly, one bucket per value.
const LINEAR_MAX: u64 = 64;
/// Sub-bucket resolution: 2³ = 8 sub-buckets per power of two.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// log₂([`LINEAR_MAX`]) — the first logarithmic octave.
const FIRST_OCTAVE: u32 = 6;
/// 64 exact buckets + 58 octaves × 8 sub-buckets.
const NUM_BUCKETS: usize = LINEAR_MAX as usize + (64 - FIRST_OCTAVE as usize) * SUB;

/// Bucket for a value: exact below [`LINEAR_MAX`], then the octave
/// (position of the leading bit) refined by the next [`SUB_BITS`] bits.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = ((v >> (octave - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    LINEAR_MAX as usize + (octave - FIRST_OCTAVE) as usize * SUB + sub
}

/// The largest value a bucket admits — the deterministic representative
/// reported by quantiles (an upper bound, within 12.5 % of any member).
fn bucket_upper(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        return idx as u64;
    }
    let rel = idx - LINEAR_MAX as usize;
    let octave = FIRST_OCTAVE + (rel / SUB) as u32;
    let sub = (rel % SUB) as u64;
    let lower = (1u64 << octave) | (sub << (octave - SUB_BITS));
    lower + ((1u64 << (octave - SUB_BITS)) - 1)
}

/// A fixed-size log-bucketed histogram of `u64` values (latencies are
/// recorded in nanoseconds via [`Histogram::record_secs`]).
///
/// Memory is bounded at `NUM_BUCKETS` atomic cells no matter how many
/// values stream in — this is what replaced the service's 64 Ki latency
/// ring. Quantiles are nearest-rank over bucket counts and return the
/// bucket's upper bound: deterministic, and never an underestimate.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration in seconds as integer nanoseconds (negative or
    /// non-finite inputs saturate the cast: they land at 0 or the top
    /// bucket rather than corrupting anything).
    pub fn record_secs(&self, secs: f64) {
        self.record((secs * 1e9) as u64);
    }

    /// How many values were recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wrapping at `u64::MAX` — 584 years of
    /// nanoseconds).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile, reported as the bucket upper bound; 0 on an
    /// empty histogram. `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(NUM_BUCKETS - 1)
    }

    /// [`Histogram::quantile`] converted back to seconds.
    pub fn quantile_secs(&self, q: f64) -> f64 {
        self.quantile(q) as f64 * 1e-9
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named collection of metrics. Handles are created on first use and
/// shared thereafter (`counter("x")` twice returns the same cell), so
/// call-sites can look handles up once and bump atomics from then on.
///
/// Iteration order is the `BTreeMap` name order within each metric kind —
/// [`Registry::samples`] is deterministic by construction.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    caches: Mutex<BTreeMap<String, Arc<CacheCounters>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        lock(&self.counters)
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        lock(&self.gauges)
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(lock(&self.histograms).entry(name.to_owned()).or_default())
    }

    /// Registers an existing cache's counters under `name` (the cache
    /// keeps its `Arc`; the registry scrapes the same cells).
    pub fn register_cache(&self, name: &str, counters: Arc<CacheCounters>) {
        lock(&self.caches).insert(name.to_owned(), counters);
    }

    /// The cache counters named `name`, created at zero on first use.
    pub fn cache(&self, name: &str) -> Arc<CacheCounters> {
        Arc::clone(lock(&self.caches).entry(name.to_owned()).or_default())
    }

    /// A flat `(name, value)` view of every metric — the one reading of
    /// the registry: counters, gauges, caches (as `_hits`, `_misses`,
    /// `_evictions`), then histograms (as `_count`, `_sum_ns` and
    /// `_p50_ns`/`_p95_ns`/`_p99_ns`), each kind in name order. It is
    /// the payload the `Metrics` wire message carries when a router
    /// scrapes a remote shard registry, and what [`Self::expose`]
    /// prints.
    pub fn samples(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (name, c) in lock(&self.counters).iter() {
            out.push((name.clone(), c.get() as f64));
        }
        for (name, g) in lock(&self.gauges).iter() {
            out.push((name.clone(), g.get() as f64));
        }
        for (name, c) in lock(&self.caches).iter() {
            out.push((format!("{name}_hits"), c.hits() as f64));
            out.push((format!("{name}_misses"), c.misses() as f64));
            out.push((format!("{name}_evictions"), c.evictions() as f64));
        }
        for (name, h) in lock(&self.histograms).iter() {
            out.push((format!("{name}_count"), h.count() as f64));
            out.push((format!("{name}_sum_ns"), h.sum() as f64));
            out.push((format!("{name}_p50_ns"), h.quantile(0.5) as f64));
            out.push((format!("{name}_p95_ns"), h.quantile(0.95) as f64));
            out.push((format!("{name}_p99_ns"), h.quantile(0.99) as f64));
        }
        out
    }

    /// [`Self::samples`] as text, one `name value` line per sample — what
    /// an operator prints or serves to a scraper.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.samples() {
            let _ = writeln!(out, "{name} {value}");
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A finished span: timing plus the `u64` fields recorded while open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Open-order id, unique within one [`Obs`].
    pub id: u32,
    /// The span open on the same thread (and same [`Obs`]) when this one
    /// opened, if any.
    pub parent: Option<u32>,
    /// Static span name.
    pub name: &'static str,
    /// Clock reading at open, microseconds.
    pub start_us: u64,
    /// Clock reading at drop, microseconds.
    pub end_us: u64,
    /// `(key, value)` fields, in record order.
    pub fields: Vec<(&'static str, u64)>,
}

/// The clock an [`Obs`] reads: microseconds from an arbitrary epoch.
/// Under a virtual clock, span timings are a pure function of the trace.
pub type ObsClock = Arc<dyn Fn() -> u64 + Send + Sync>;

struct ObsShared {
    registry: Registry,
    spans: Mutex<Vec<SpanRecord>>,
    next_span: AtomicU32,
    clock: ObsClock,
}

/// An observability handle: a [`Registry`] plus a span sink, behind one
/// cheap clone. [`Obs::off`] is the disabled gate — every operation on
/// it is an early-return no-op, pinned by the obs-on/off bit-identity
/// test in `mpq-core`.
#[derive(Clone)]
pub struct Obs {
    shared: Option<Arc<ObsShared>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.shared {
            None => f.write_str("Obs::off"),
            Some(s) => f
                .debug_struct("Obs")
                .field("spans", &lock(&s.spans).len())
                .finish(),
        }
    }
}

impl Obs {
    /// The disabled handle: no registry, no spans, no clock reads.
    pub fn off() -> Self {
        Self { shared: None }
    }

    /// An enabled handle reading `clock` (microseconds). Pass a closure
    /// over a virtual clock for replayable output, e.g.
    /// `Obs::with_clock(Arc::new(move || vclock.now_micros()))`.
    pub fn with_clock(clock: ObsClock) -> Self {
        Self {
            shared: Some(Arc::new(ObsShared {
                registry: Registry::new(),
                spans: Mutex::new(Vec::new()),
                next_span: AtomicU32::new(0),
                clock,
            })),
        }
    }

    /// An enabled handle on real monotonic time (anchored at creation).
    pub fn wall() -> Self {
        let start = std::time::Instant::now();
        Self::with_clock(Arc::new(move || start.elapsed().as_micros() as u64))
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The registry, if enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.shared.as_deref().map(|s| &s.registry)
    }

    /// The clock reading in microseconds; 0 when disabled.
    pub fn now_us(&self) -> u64 {
        match &self.shared {
            None => 0,
            Some(s) => (s.clock)(),
        }
    }

    /// Opens a span named `name`. The returned guard records fields and,
    /// on drop, stamps the end time and files the [`SpanRecord`]. On a
    /// disabled handle this is an inert guard.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(shared) = &self.shared else {
            return SpanGuard { active: None };
        };
        let id = shared.next_span.fetch_add(1, Ordering::Relaxed);
        let ptr = Arc::as_ptr(shared) as usize;
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.iter().rev().find(|&&(p, _)| p == ptr).map(|&(_, i)| i);
            s.push((ptr, id));
            parent
        });
        SpanGuard {
            active: Some(ActiveSpan {
                shared: Arc::clone(shared),
                id,
                parent,
                name,
                start_us: (shared.clock)(),
                fields: Vec::new(),
            }),
        }
    }

    /// Every finished span so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.shared {
            None => Vec::new(),
            Some(s) => lock(&s.spans).clone(),
        }
    }

    /// Renders the finished spans as an indented tree (children under
    /// parents, both in open order): one line per span with its duration
    /// and fields. Deterministic under a virtual clock.
    pub fn span_tree(&self) -> String {
        let mut spans = self.spans();
        spans.sort_by_key(|s| s.id);
        let mut children: BTreeMap<Option<u32>, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        let mut out = String::new();
        let mut stack: Vec<(usize, usize)> = children
            .get(&None)
            .map(|roots| roots.iter().rev().map(|&i| (i, 0)).collect())
            .unwrap_or_default();
        while let Some((i, depth)) = stack.pop() {
            let s = &spans[i];
            let _ = write!(
                out,
                "{:indent$}{} {}us",
                "",
                s.name,
                s.end_us.saturating_sub(s.start_us),
                indent = depth * 2
            );
            for (k, v) in &s.fields {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
            if let Some(kids) = children.get(&Some(s.id)) {
                stack.extend(kids.iter().rev().map(|&j| (j, depth + 1)));
            }
        }
        out
    }
}

struct ActiveSpan {
    shared: Arc<ObsShared>,
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_us: u64,
    fields: Vec<(&'static str, u64)>,
}

/// The guard returned by [`Obs::span`]: dropping it closes the span.
#[must_use = "dropping the guard is what closes the span"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Attaches a `(key, value)` field to the span. No-op when inert.
    pub fn record(&mut self, key: &'static str, value: u64) {
        if let Some(a) = &mut self.active {
            a.fields.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let end_us = (a.shared.clock)();
        let ptr = Arc::as_ptr(&a.shared) as usize;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(p, i)| p == ptr && i == a.id) {
                s.remove(pos);
            }
        });
        lock(&a.shared.spans).push(SpanRecord {
            id: a.id,
            parent: a.parent,
            name: a.name,
            start_us: a.start_us,
            end_us,
            fields: a.fields,
        });
    }
}

// ---------------------------------------------------------------------------
// Ambient handle (thread-local install, restored by a scope guard)
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Vec<Obs>> = const { RefCell::new(Vec::new()) };
    /// Open spans on this thread as `(obs identity, span id)` — the
    /// parent of a new span is the innermost open span of the same Obs.
    static SPAN_STACK: RefCell<Vec<(usize, u32)>> = const { RefCell::new(Vec::new()) };
}

/// The innermost [`install`]ed handle on this thread, or [`Obs::off`].
/// The optimizer's hot layers read this once per unit of work; with
/// nothing installed they get the disabled handle and pay nothing more.
pub fn current() -> Obs {
    CURRENT
        .with(|c| c.borrow().last().cloned())
        .unwrap_or_else(Obs::off)
}

/// Uninstalls the handle [`install`] pushed, on drop.
#[must_use = "dropping the guard uninstalls the handle"]
pub struct InstallGuard {
    _priv: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Makes `obs` the ambient handle on this thread until the guard drops.
/// Nests: the innermost install wins, and dropping restores the outer.
pub fn install(obs: &Obs) -> InstallGuard {
    CURRENT.with(|c| c.borrow_mut().push(obs.clone()));
    InstallGuard { _priv: () }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use proptest::prelude::*;

    /// A deterministic test clock: each read advances by `step_us`.
    fn ticking(step_us: u64) -> ObsClock {
        let t = AtomicU64::new(0);
        Arc::new(move || t.fetch_add(step_us, Ordering::Relaxed))
    }

    #[test]
    fn bucket_index_is_monotone_and_upper_bounds_members() {
        let mut prev = 0usize;
        for v in (0u64..4096).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS);
            assert!(idx >= prev, "monotone over the scan");
            prev = idx;
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper bound admits the member: {v} -> {upper}");
            // Within 12.5% above the value (exact below LINEAR_MAX).
            if v >= LINEAR_MAX {
                assert!(upper as f64 <= v as f64 * 1.125, "{v} -> {upper}");
            } else {
                assert_eq!(upper, v);
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_nearest_rank_upper_bounds() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram reports 0");
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        // Below LINEAR_MAX buckets are exact.
        assert_eq!(h.quantile(0.5), 50);
        assert_eq!(h.quantile(0.01), 1);
        // p99 = value 99 lands in a log bucket; representative is its
        // upper bound, ≥ the value and within 12.5%.
        let p99 = h.quantile(0.99);
        assert!((99..=112).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn registry_exposition_is_deterministic_and_parses() {
        let r = Registry::new();
        r.counter("zeta_total").add(7);
        r.counter("alpha_total").inc();
        let depth = r.gauge("depth");
        depth.set(3);
        assert_eq!(depth.add(2), 5, "add returns the new value");
        depth.sub(2);
        assert_eq!(r.gauge("depth").get(), 3, "one cell per name");
        let cache = r.cache("lift_cache");
        cache.hit();
        cache.hit();
        cache.miss();
        r.histogram("latency_seconds").record_secs(0.001);
        let samples = r.samples();
        let names: Vec<&str> = samples.iter().map(|(n, _)| n.as_str()).collect();
        // Counters, gauges, caches, histograms; name order within each.
        assert_eq!(
            names,
            [
                "alpha_total",
                "zeta_total",
                "depth",
                "lift_cache_hits",
                "lift_cache_misses",
                "lift_cache_evictions",
                "latency_seconds_count",
                "latency_seconds_sum_ns",
                "latency_seconds_p50_ns",
                "latency_seconds_p95_ns",
                "latency_seconds_p99_ns",
            ]
        );
        let value = |name: &str| samples.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!((value("alpha_total"), value("zeta_total")), (1.0, 7.0));
        assert_eq!(value("depth"), 3.0);
        assert_eq!(value("lift_cache_hits"), 2.0);
        assert_eq!(value("latency_seconds_count"), 1.0);
        assert_eq!(samples, r.samples(), "re-reading is identical");
        // The text form is one `name value` line per sample, and parses
        // back to the same samples.
        let text = r.expose();
        let parsed: Vec<(String, f64)> = text
            .lines()
            .map(|line| {
                let (name, value) = line.split_once(' ').unwrap();
                (name.to_owned(), value.parse().unwrap())
            })
            .collect();
        assert_eq!(parsed, samples);
        assert!(text.starts_with("alpha_total 1\nzeta_total 7\n"));
    }

    #[test]
    fn spans_nest_on_the_thread_local_stack() {
        let obs = Obs::with_clock(ticking(10));
        {
            let mut outer = obs.span("request");
            outer.record("shard", 2);
            {
                let _inner = obs.span("dp_level");
            }
            let _sibling = obs.span("respond");
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 3, "three spans closed");
        let request = spans.iter().find(|s| s.name == "request").unwrap();
        let level = spans.iter().find(|s| s.name == "dp_level").unwrap();
        let respond = spans.iter().find(|s| s.name == "respond").unwrap();
        assert_eq!(request.parent, None);
        assert_eq!(level.parent, Some(request.id));
        assert_eq!(respond.parent, Some(request.id));
        assert_eq!(request.fields, vec![("shard", 2)]);
        let tree = obs.span_tree();
        assert!(tree.starts_with("request "));
        assert!(tree.contains("\n  dp_level "));
        assert!(tree.contains(" shard=2"));
    }

    #[test]
    fn off_handle_records_nothing_and_current_defaults_off() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        {
            let mut g = obs.span("ignored");
            g.record("k", 1);
        }
        assert!(obs.spans().is_empty());
        assert_eq!(obs.span_tree(), "");
        assert_eq!(obs.now_us(), 0);
        assert!(obs.registry().is_none());
        assert!(!current().enabled(), "nothing installed defaults to off");
        let on = Obs::wall();
        {
            let _g = install(&on);
            assert!(current().enabled());
            {
                let off = Obs::off();
                let _g2 = install(&off);
                assert!(!current().enabled(), "innermost install wins");
            }
            assert!(current().enabled(), "outer handle restored");
        }
        assert!(!current().enabled());
    }

    #[test]
    fn span_tree_is_a_pure_function_of_the_trace() {
        let run = || {
            let obs = Obs::with_clock(ticking(7));
            {
                let mut a = obs.span("a");
                a.record("n", 1);
                let _b = obs.span("b");
            }
            let _c = obs.span("c");
            drop(_c);
            let registry = obs.registry().unwrap();
            registry.counter("runs").inc();
            registry.histogram("a_seconds").record_secs(7e-6);
            (obs.span_tree(), registry.samples())
        };
        assert_eq!(run(), run(), "identical traces render identically");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any u64 lands in a valid bucket whose bounds admit it.
        #[test]
        fn every_value_buckets_within_bounds(v in 0u64..=u64::MAX) {
            let idx = bucket_index(v);
            prop_assert!(idx < NUM_BUCKETS);
            prop_assert!(bucket_upper(idx) >= v);
            if idx > 0 {
                prop_assert!(bucket_upper(idx - 1) < v || idx >= LINEAR_MAX as usize);
            }
        }

        /// record_secs never panics, for any float bit pattern.
        #[test]
        fn record_secs_is_total(bits in 0u64..=u64::MAX) {
            let h = Histogram::new();
            h.record_secs(f64::from_bits(bits));
            prop_assert_eq!(h.count(), 1);
        }
    }
}
