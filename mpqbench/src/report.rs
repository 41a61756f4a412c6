//! The metric catalog and the run's output: one line per metric (name,
//! value, unit), then the result object as the last line of standard
//! output.
//!
//! Every workload prints every metric that applies to it. The result
//! object carries the subset declared in `BENCHMARK.json`: the end-to-end
//! metrics every workload measures (untraced runs), or — in a traced run —
//! the per-layer metrics every workload measures.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Which part of the output a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// End to end, in the result object of untraced runs.
    EndToEnd,
    /// End to end, printed only: not measured on every workload, zero on
    /// a healthy run, or too sensitive to host noise to gate on.
    EndToEndExtra,
    /// Per layer, in the result object of traced runs.
    Layer,
    /// Per layer, printed only: not measured on every workload.
    LayerExtra,
}

/// One catalog entry.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn def(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{EndToEnd, EndToEndExtra, Layer, LayerExtra};

/// Every metric the benchmark knows, in output order.
pub const CATALOG: &[MetricDef] = &[
    def("setup_s", "s", Lower, EndToEnd),
    def("queries_per_s", "1/s", Higher, EndToEnd),
    def("latency_p50_ms", "ms", Lower, EndToEnd),
    def("cpu_ms_per_query", "ms", Lower, EndToEndExtra),
    def("peak_rss_mb", "MB", Lower, EndToEndExtra),
    def("latency_p99_ms", "ms", Lower, EndToEndExtra),
    def("slo_miss_frac", "ratio", Lower, EndToEndExtra),
    def("failed_frac", "ratio", Lower, EndToEndExtra),
    def("lp.solves_per_query", "count", Lower, Layer),
    def("lp.fallback_frac.cutout_redundancy", "ratio", Lower, Layer),
    def("lp.fallback_frac.cutout_emptiness", "ratio", Lower, Layer),
    def("lp.fallback_frac.coverage", "ratio", Lower, Layer),
    def("lp.fallback_frac.piece_algebra", "ratio", Lower, Layer),
    def("geometry.fast_answers_per_query", "count", Lower, Layer),
    def("rrpa.plans_per_query", "count", Lower, Layer),
    def("rrpa.final_plans_per_query", "count", Lower, Layer),
    def("rrpa.top_level_frac", "ratio", Lower, LayerExtra),
    def("space.build_ms", "ms", Lower, Layer),
    def("proc.cpu_per_wall", "ratio", Lower, Layer),
    def("proc.sys_cpu_frac", "ratio", Lower, Layer),
    def("cache.lift_hit_rate", "ratio", Higher, Layer),
    def("cache.subtree_hit_rate", "ratio", Higher, Layer),
    def("cache.lift_entries", "count", Lower, Layer),
    def("cache.subtree_entries", "count", Lower, Layer),
    def("service.batch_size_mean", "count", Higher, LayerExtra),
    def("service.deadline_trigger_frac", "ratio", Lower, LayerExtra),
    def("service.queue_wait_ms_p50", "ms", Lower, LayerExtra),
    def("service.queue_wait_ms_p99", "ms", Lower, LayerExtra),
    def("service.batch_ms_p50", "ms", Lower, LayerExtra),
    def("service.worker_busy_frac", "ratio", Lower, LayerExtra),
    def("service.queue_depth_peak", "count", Lower, LayerExtra),
    def("service.rejected", "count", Lower, Layer),
    def("service.timed_out", "count", Lower, Layer),
    def("service.quarantined", "count", Lower, Layer),
    def("wire.request_bytes", "bytes", Lower, LayerExtra),
    def("wire.response_bytes", "bytes", Lower, LayerExtra),
    def("wire.encode_us", "us", Lower, LayerExtra),
    def("wire.decode_us", "us", Lower, LayerExtra),
    def("server.request_ms_p50", "ms", Lower, LayerExtra),
    def("server.optimize_ms_p50", "ms", Lower, LayerExtra),
    def("server.lock_wait_ms_p50", "ms", Lower, LayerExtra),
    def("server.dedup_hit_rate", "ratio", Higher, LayerExtra),
    def("net.transport_ms_p50", "ms", Lower, LayerExtra),
    def("router.attempts_per_query", "count", Lower, LayerExtra),
    def("router.retries", "count", Lower, Layer),
    def("router.reconnects", "count", Lower, Layer),
    def("obs.overhead_frac", "ratio", Lower, Layer),
    def("obs.spans_per_query", "count", Lower, Layer),
    def("bench.gen_lag_ms_p99", "ms", Lower, LayerExtra),
];

fn lookup(name: &str) -> &'static MetricDef {
    CATALOG
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// One workload's measured values, plus a note per metric (sample
/// counts, the limit an SLO was judged against).
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
    /// Free-form context lines (environment, findings).
    pub info: Vec<String>,
    /// Queries attempted and failed (wrong or non-`Ok` answers), over
    /// every run the process made.
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records a value; `None` (and any non-finite value) means the
    /// metric could not be measured in this run.
    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        let d = lookup(name);
        match value.filter(|v| v.is_finite()) {
            Some(v) => {
                self.values.insert(d.name, v);
            }
            None => {
                self.values.remove(d.name);
            }
        }
    }

    pub fn note(&mut self, name: &'static str, note: impl Into<String>) {
        self.notes.insert(lookup(name).name, note.into());
    }

    /// The metric lines, then the result object. With `traced` the object
    /// holds the per-layer metrics, else the end-to-end ones. A metric of
    /// the object that was not measured makes the run incorrect.
    pub fn render(&self, traced: bool) -> (String, bool) {
        let mut out = String::new();
        for line in &self.info {
            let _ = writeln!(out, "# {line}");
        }
        let mut complete = true;
        let mut json = String::new();
        for d in CATALOG {
            let section = match d.kind {
                EndToEnd | EndToEndExtra => "end_to_end",
                Layer | LayerExtra => "per_layer",
            };
            if !traced && section == "per_layer" {
                continue;
            }
            let value = self.values.get(d.name);
            let shown = value.map_or("n/a".to_string(), |v| v.to_string());
            let note = self
                .notes
                .get(d.name)
                .map_or(String::new(), |n| format!("  ({n})"));
            let better = match d.better {
                Higher => "higher",
                Lower => "lower",
            };
            let _ = writeln!(
                out,
                "{section:<10} {:<36} {shown:>22} {:<5} [{better} is better]{note}",
                d.name, d.unit
            );
            let in_object = if traced {
                d.kind == Layer
            } else {
                d.kind == EndToEnd
            };
            if in_object {
                match value {
                    Some(v) => {
                        let sep = if json.is_empty() { "" } else { ", " };
                        let _ = write!(
                            json,
                            r#"{sep}"{}": {{"value": {v}, "unit": "{}"}}"#,
                            d.name, d.unit
                        );
                    }
                    None => complete = false,
                }
            }
        }
        let correct = complete && self.failed == 0 && self.attempted > 0;
        let _ = writeln!(
            out,
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{json}}}}}"#,
            self.attempted, self.failed
        );
        (out, correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        for (i, d) in CATALOG.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                CATALOG[i + 1..].iter().all(|e| e.name != d.name),
                "{}",
                d.name
            );
        }
    }

    /// `(name, unit, better)` of every metric entry in one section of
    /// `BENCHMARK.json` (the file is flat enough to scan by hand).
    fn declared(section: &str) -> Vec<(String, String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let body = &text[text.find(&format!("\"{section}\"")).unwrap()..];
        let body = &body[..body.find(']').unwrap()];
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5;
            entry[at..at + entry[at..].find('"').unwrap()].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| {
                let better = field(entry, "better");
                (field(entry, "name"), field(entry, "unit"), better)
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let of = |kind: Kind| -> Vec<(String, String, String)> {
            CATALOG
                .iter()
                .filter(|d| d.kind == kind)
                .map(|d| {
                    let better = if d.better == Higher {
                        "higher"
                    } else {
                        "lower"
                    };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect()
        };
        assert_eq!(declared("end_to_end"), of(EndToEnd));
        assert_eq!(declared("per_layer"), of(Layer));
    }

    #[test]
    fn result_object_holds_exactly_the_declared_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for d in CATALOG.iter().filter(|d| d.kind == EndToEnd) {
            r.set(d.name, Some(1.5));
        }
        r.set("latency_p99_ms", Some(9.0));
        let (text, correct) = r.render(false);
        assert!(correct);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0"#));
        assert!(last.contains(r#""setup_s": {"value": 1.5, "unit": "s"}"#));
        assert!(
            !last.contains("latency_p99_ms"),
            "printed-only metrics stay out"
        );
        assert!(text.contains("latency_p99_ms"));
        // A declared metric left unmeasured makes the run incorrect.
        r.set("setup_s", None);
        assert!(!r.render(false).1);
        r.set("setup_s", Some(f64::NAN));
        assert!(!r.render(false).1);
    }
}
