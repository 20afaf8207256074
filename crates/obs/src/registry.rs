//! A registry of named metrics: counters, gauges and latency
//! histograms, with a Prometheus-style text exposition.
//!
//! Registration takes a short-lived write lock; **recording never
//! locks** — handles ([`Counter`], [`Gauge`], [`HistogramHandle`])
//! are `Arc`s onto the shared atomics, so a hot path registers once
//! at startup and then records wait-free.
//!
//! # Naming
//!
//! Names are Prometheus-style: `snake_case`, optionally with a
//! trailing `{label="value"}` block (e.g.
//! `crowd_stage_queue_wait_ns{shard="3"}`). [`render_text`](MetricsRegistry::render_text) groups
//! series that share the base name (the part before `{`) under one
//! `# TYPE` header, as the exposition format requires.
//!
//! # Per-call cost
//!
//! [`Counter::add`] / [`Gauge::set`] are one relaxed atomic RMW /
//! store. [`HistogramHandle::record`] is four relaxed RMWs (see
//! [`crate::LatencyHistogram`]).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::hist::{HistogramSnapshot, LatencyHistogram, bucket_upper_bound};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`; one relaxed `fetch_add`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value; one relaxed store.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via `sub`); one relaxed `fetch_add`.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A recording handle onto a registered [`LatencyHistogram`].
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<LatencyHistogram>);

impl HistogramHandle {
    /// Records one value; four relaxed RMWs, wait-free.
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Records a duration as whole nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.0.record_duration(d);
    }

    /// A consistent-enough copy for querying (see
    /// [`LatencyHistogram::snapshot`]).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
    /// An already-collected snapshot (e.g. one that arrived over a
    /// wire), registered only to be rendered.
    Frozen(Box<HistogramSnapshot>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    metric: Metric,
}

/// The registry; see the [module docs](self).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: RwLock<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, help: &str, metric: Metric) {
        let mut entries = self.entries.write().expect("registry lock poisoned");
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            metric,
        });
    }

    /// Registers (or re-registers) a counter and returns its handle.
    /// Re-registering the exact name returns the existing handle, so
    /// restarted components share one series.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        if let Some(Metric::Counter(c)) = self.find(name) {
            return c;
        }
        let c = Counter::default();
        self.register(name, help, Metric::Counter(c.clone()));
        c
    }

    /// Registers a gauge; same sharing rule as [`Self::counter`].
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        if let Some(Metric::Gauge(g)) = self.find(name) {
            return g;
        }
        let g = Gauge::default();
        self.register(name, help, Metric::Gauge(g.clone()));
        g
    }

    /// Registers a histogram; same sharing rule as [`Self::counter`].
    pub fn histogram(&self, name: &str, help: &str) -> HistogramHandle {
        if let Some(Metric::Histogram(h)) = self.find(name) {
            return h;
        }
        let h = HistogramHandle(Arc::new(LatencyHistogram::new()));
        self.register(name, help, Metric::Histogram(h.clone()));
        h
    }

    /// Registers a pre-collected histogram snapshot under `name`, for
    /// rendering only (no recording handle). Useful when the numbers
    /// were gathered elsewhere — another process, the far side of a
    /// connection — and this registry is just the renderer.
    pub fn frozen_histogram(&self, name: &str, help: &str, snap: HistogramSnapshot) {
        self.register(name, help, Metric::Frozen(Box::new(snap)));
    }

    fn find(&self, name: &str) -> Option<Metric> {
        let entries = self.entries.read().expect("registry lock poisoned");
        entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| match &e.metric {
                Metric::Counter(c) => Metric::Counter(c.clone()),
                Metric::Gauge(g) => Metric::Gauge(g.clone()),
                Metric::Histogram(h) => Metric::Histogram(h.clone()),
                Metric::Frozen(s) => Metric::Frozen(s.clone()),
            })
    }

    /// Registered series count.
    pub fn len(&self) -> usize {
        self.entries.read().expect("registry lock poisoned").len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Prometheus text exposition of every registered series, in
    /// registration order, grouping same-base-name series under one
    /// `# HELP`/`# TYPE` header pair.
    pub fn render_text(&self) -> String {
        let entries = self.entries.read().expect("registry lock poisoned");
        let mut out = String::new();
        let mut last_base = String::new();
        for e in entries.iter() {
            let base = base_name(&e.name);
            if base != last_base {
                let kind = match e.metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) | Metric::Frozen(_) => "histogram",
                };
                let _ = writeln!(out, "# HELP {base} {}", e.help);
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last_base = base.to_string();
            }
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{} {}", e.name, c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", e.name, g.get());
                }
                Metric::Histogram(h) => {
                    render_histogram(&mut out, &e.name, &h.snapshot());
                }
                Metric::Frozen(s) => {
                    render_histogram(&mut out, &e.name, s);
                }
            }
        }
        out
    }
}

/// The series name before any `{label}` block.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Splices `extra` into the (possibly empty) label block of `name`:
/// `f("x{a=\"1\"}", "le=\"2\"")` → `x{a="1",le="2"}`.
fn with_label(name: &str, extra: &str) -> String {
    match name.find('{') {
        Some(open) => {
            let close = name.rfind('}').unwrap_or(name.len());
            format!("{}{{{},{}}}", &name[..open], &name[open + 1..close], extra)
        }
        None => format!("{name}{{{extra}}}"),
    }
}

/// Writes one histogram in Prometheus exposition form: cumulative
/// `_bucket{le=...}` lines over the non-empty prefix of the log₂
/// buckets, then `_sum` and `_count`.
pub(crate) fn render_histogram(out: &mut String, name: &str, snap: &HistogramSnapshot) {
    let base = base_name(name);
    let suffix = &name[base.len()..];
    let mut cumulative = 0u64;
    let buckets = snap.buckets();
    let highest = buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
    for (i, &c) in buckets.iter().enumerate().take(highest) {
        cumulative += c;
        let le = bucket_upper_bound(i);
        let name = with_label(&format!("{base}_bucket{suffix}"), &format!("le=\"{le}\""));
        let _ = writeln!(out, "{name} {cumulative}");
    }
    let name = with_label(&format!("{base}_bucket{suffix}"), "le=\"+Inf\"");
    let _ = writeln!(out, "{name} {}", snap.count());
    let _ = writeln!(out, "{base}_sum{suffix} {}", snap.sum());
    let _ = writeln!(out, "{base}_count{suffix} {}", snap.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("requests_total", "Requests served.");
        let g = reg.gauge("queue_depth", "Items queued.");
        c.add(3);
        g.set(-2);
        let text = reg.render_text();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 3"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth -2"));
    }

    #[test]
    fn reregistering_shares_the_series() {
        let reg = MetricsRegistry::new();
        reg.counter("hits", "h").inc();
        reg.counter("hits", "h").inc();
        assert_eq!(reg.counter("hits", "h").get(), 2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn labeled_series_share_one_header() {
        let reg = MetricsRegistry::new();
        reg.counter("ops_total{shard=\"0\"}", "Ops.").add(1);
        reg.counter("ops_total{shard=\"1\"}", "Ops.").add(2);
        let text = reg.render_text();
        assert_eq!(text.matches("# TYPE ops_total counter").count(), 1);
        assert!(text.contains("ops_total{shard=\"0\"} 1"));
        assert!(text.contains("ops_total{shard=\"1\"} 2"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ns{stage=\"x\"}", "Latency.");
        h.record(1);
        h.record(1);
        h.record(5);
        let text = reg.render_text();
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{stage=\"x\",le=\"1\"} 2"));
        assert!(text.contains("lat_ns_bucket{stage=\"x\",le=\"7\"} 3"));
        assert!(text.contains("lat_ns_bucket{stage=\"x\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ns_sum{stage=\"x\"} 7"));
        assert!(text.contains("lat_ns_count{stage=\"x\"} 3"));
    }
}
