//! What every workload shares: options, the set-up repetition rule, the
//! timed window, and the metric helpers that turn counters and spans into
//! named metrics.

use crate::procfs::{self, CpuTimes};
use crate::report::Report;
use crate::stats::{self, percentile, ratio, tail_percentile};
use crate::trace::{self, Span};
use mpq_lp::{FastPathBreakdown, FastPathSite};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and reported as the
/// median, so neither the first, cold set-up nor a burst of host noise
/// sets the number.
pub const SETUP_REPEATS: usize = 21;

/// Command-line options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Opts {
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// Where the traced run writes its spans (inside the working
    /// directory, which is the checkout the benchmark runs from).
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(".bench_out").join(format!("{}-seed{}.spans.jsonl", self.workload, self.seed))
    }
}

/// A timed window: wall time and process CPU time since it opened.
pub struct Window {
    start: Instant,
    cpu: CpuTimes,
}

impl Window {
    pub fn open() -> Self {
        Self {
            cpu: procfs::cpu_times(),
            start: Instant::now(),
        }
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    /// Wall seconds and CPU time since the window opened.
    pub fn close(&self) -> (f64, CpuTimes) {
        let wall = self.start.elapsed().as_secs_f64();
        (wall, procfs::cpu_times().since(&self.cpu))
    }
}

/// One stretch of a timed window: a pass over a fixed set, or the whole
/// window.
pub struct Segment {
    pub wall_s: f64,
    pub cpu: CpuTimes,
    /// Correct answers completed in it.
    pub correct: u64,
}

impl Segment {
    fn rate(&self) -> f64 {
        self.correct as f64 / self.wall_s
    }

    fn cpu_ms_per_query(&self) -> f64 {
        self.cpu.total_s() * 1e3 / self.correct as f64
    }
}

/// What one timed window measured, in the units the end-to-end metrics
/// use.
pub struct Measured {
    /// Set-up seconds of each repetition.
    pub setup_s: Vec<f64>,
    /// Space-construction milliseconds of each set-up repetition.
    pub space_build_ms: Vec<f64>,
    /// Per answer, milliseconds (from the due time in an open loop, from
    /// the send in a closed one).
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub segments: Vec<Segment>,
    pub peak_rss_mb: f64,
}

impl Measured {
    pub fn answered(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    pub fn wall_s(&self) -> f64 {
        self.segments.iter().map(|s| s.wall_s).sum()
    }

    pub fn cpu(&self) -> CpuTimes {
        self.segments
            .iter()
            .fold(CpuTimes::default(), |acc, s| CpuTimes {
                user_s: acc.user_s + s.cpu.user_s,
                sys_s: acc.sys_s + s.cpu.sys_s,
            })
    }

    /// Correct answers per wall second: the median over segments, so one
    /// disturbed pass does not set the number.
    pub fn queries_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.segments.iter().map(Segment::rate).collect();
        stats::median(&rates).unwrap_or(f64::NAN)
    }

    /// Process CPU per correct answer, median over segments.
    pub fn cpu_ms_per_query(&self) -> f64 {
        let per: Vec<f64> = self
            .segments
            .iter()
            .map(Segment::cpu_ms_per_query)
            .collect();
        stats::median(&per).unwrap_or(f64::NAN)
    }
}

/// Sets the end-to-end metrics of an untraced window. `slo_ms` is the
/// workload's latency limit (closed-form workloads without one report no
/// SLO metric).
pub fn set_end_to_end(r: &mut Report, m: &Measured, slo_ms: Option<f64>) {
    r.set("setup_s", stats::median(&m.setup_s));
    r.note("setup_s", format!("median of {} set-ups", m.setup_s.len()));
    r.set("queries_per_s", Some(m.queries_per_s()));
    r.note(
        "queries_per_s",
        format!(
            "median of {} segments; {} correct in {:.3} s",
            m.segments.len(),
            m.attempted - m.failed,
            m.wall_s()
        ),
    );
    let sorted = stats::sorted(m.latencies_ms.clone());
    r.set("latency_p50_ms", percentile(&sorted, 50));
    r.note("latency_p50_ms", format!("n={}", sorted.len()));
    r.set("latency_p99_ms", tail_percentile(&sorted, 99));
    r.note(
        "latency_p99_ms",
        format!(
            "n={}; reported only with >= {} samples beyond it",
            sorted.len(),
            stats::MIN_BEYOND_TAIL
        ),
    );
    let attempted = m.attempted as f64;
    if let Some(limit) = slo_ms {
        let late = sorted.iter().filter(|&&l| l > limit).count() as f64;
        r.set("slo_miss_frac", ratio(m.failed as f64 + late, attempted));
        r.note("slo_miss_frac", format!("limit {limit} ms"));
    }
    r.set("failed_frac", ratio(m.failed as f64, attempted));
    r.set("cpu_ms_per_query", Some(m.cpu_ms_per_query()));
    r.set("peak_rss_mb", Some(m.peak_rss_mb));
    r.note("peak_rss_mb", "VmHWM of this process");
}

/// Sets the process and set-up per-layer metrics of an untraced window.
pub fn set_proc_layers(r: &mut Report, m: &Measured) {
    let cpu = m.cpu();
    r.set("proc.cpu_per_wall", ratio(cpu.total_s(), m.wall_s()));
    r.set("proc.sys_cpu_frac", ratio(cpu.sys_s, cpu.total_s()));
    r.set("space.build_ms", stats::median(&m.space_build_ms));
}

/// Sets the LP and geometry metrics from the solved-LP total and the
/// fast-path breakdown accumulated over `queries` answers.
pub fn set_lp_layers(r: &mut Report, lps: u64, b: &FastPathBreakdown, queries: u64) {
    let q = queries as f64;
    r.set("lp.solves_per_query", ratio(lps as f64, q));
    r.set(
        "geometry.fast_answers_per_query",
        ratio(b.total_fast() as f64, q),
    );
    for site in FastPathSite::ALL {
        let (fast, lp) = (b.fast[site as usize], b.lp[site as usize]);
        let name = match site {
            FastPathSite::CutoutRedundancy => "lp.fallback_frac.cutout_redundancy",
            FastPathSite::CutoutEmptiness => "lp.fallback_frac.cutout_emptiness",
            FastPathSite::Coverage => "lp.fallback_frac.coverage",
            FastPathSite::PieceAlgebra => "lp.fallback_frac.piece_algebra",
        };
        // A site that was never asked had no fallbacks.
        r.set(
            name,
            Some(ratio(lp as f64, (fast + lp) as f64).unwrap_or(0.0)),
        );
        r.note(name, format!("{lp} LP of {} answers", fast + lp));
    }
}

/// Sums fast-path breakdowns (several spaces serve one workload).
pub fn add_breakdown(acc: &mut FastPathBreakdown, b: &FastPathBreakdown) {
    for i in 0..acc.fast.len() {
        acc.fast[i] += b.fast[i];
        acc.lp[i] += b.lp[i];
    }
}

/// The share of optimize wall time spent in the last DP level: over every
/// `optimize` span, the duration of its highest-`level` `dp_level` child,
/// summed, over the summed `optimize` durations.
pub fn top_level_frac(spans: &[Span]) -> Option<f64> {
    let kids = trace::children(spans);
    let (mut top, mut total) = (0u64, 0u64);
    for opt in trace::named(spans, "optimize") {
        let last = kids.get(&opt.id).and_then(|c| {
            c.iter()
                .filter(|s| s.name == "dp_level")
                .max_by_key(|s| s.field("level").unwrap_or(0))
                .map(|s| s.dur_us())
        });
        if let Some(d) = last {
            top += d;
            total += opt.dur_us();
        }
    }
    ratio(top as f64, total as f64)
}

/// Writes the traced run's spans, reads the file back, and sets the
/// observability metrics. Returns the parsed spans for the workload's own
/// derivations.
pub fn finish_trace(
    r: &mut Report,
    opts: &Opts,
    obs: &mpq_obs::Obs,
    untraced_qps: f64,
    traced: &Measured,
) -> Vec<Span> {
    let path = opts.spans_path();
    trace::write_jsonl(&path, &obs.spans()).expect("span file is writable");
    let spans = trace::read_jsonl(&path).expect("span file parses");
    r.info
        .push(format!("spans: {} in {}", spans.len(), path.display()));
    r.set(
        "obs.spans_per_query",
        ratio(spans.len() as f64, traced.answered() as f64),
    );
    r.set(
        "obs.overhead_frac",
        Some(1.0 - traced.queries_per_s() / untraced_qps),
    );
    r.note(
        "obs.overhead_frac",
        format!(
            "1 - traced/untraced queries_per_s = 1 - {:.2}/{:.2}",
            traced.queries_per_s(),
            untraced_qps
        ),
    );
    r.set("rrpa.top_level_frac", top_level_frac(&spans));
    spans
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
