//! Named metric samples and their Prometheus-style text exposition.
//!
//! A scrape is a list of [`Sample`]s, each a name, a help string and a
//! [`Value`]. The name is the whole identity of a series, so adding a
//! metric means pushing one more sample: no schema, layout or codec
//! changes with it.
//!
//! # Naming
//!
//! Names are Prometheus-style: `snake_case`, optionally with a
//! trailing `{label="value"}` block (e.g.
//! `crowd_stage_queue_wait_ns{shard="3"}`), written exactly as the
//! exposition prints them. [`render_text`] groups consecutive series
//! that share the base name (the part before `{`) under one
//! `# HELP`/`# TYPE` header pair.

use std::fmt::Write as _;

use crate::hist::{HistogramSnapshot, bucket_upper_bound};

/// The value of one [`Sample`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A monotonically increasing count.
    Counter(u64),
    /// An instantaneous signed value.
    Gauge(i64),
    /// A distribution, with its own bucket list (boxed: a snapshot
    /// holds every bucket).
    Histogram(Box<HistogramSnapshot>),
}

impl Value {
    /// The exposition type: `counter`, `gauge` or `histogram`.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Counter(_) => "counter",
            Self::Gauge(_) => "gauge",
            Self::Histogram(_) => "histogram",
        }
    }
}

/// One named series of a scrape; see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Series name, labels included.
    pub name: String,
    /// One-line description, printed as the series' `# HELP`.
    pub help: String,
    /// The series' value.
    pub value: Value,
}

impl Sample {
    /// A counter sample.
    pub fn counter(name: impl Into<String>, help: &str, v: u64) -> Self {
        Self::new(name, help, Value::Counter(v))
    }

    /// A gauge sample.
    pub fn gauge(name: impl Into<String>, help: &str, v: i64) -> Self {
        Self::new(name, help, Value::Gauge(v))
    }

    /// A histogram sample.
    pub fn histogram(name: impl Into<String>, help: &str, snap: HistogramSnapshot) -> Self {
        Self::new(name, help, Value::Histogram(Box::new(snap)))
    }

    fn new(name: impl Into<String>, help: &str, value: Value) -> Self {
        Self {
            name: name.into(),
            help: help.to_string(),
            value,
        }
    }
}

/// Prometheus text exposition of `samples`, in order, grouping
/// consecutive same-base-name series under one `# HELP`/`# TYPE`
/// header pair.
pub fn render_text(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut last_base = None;
    for s in samples {
        let base = base_name(&s.name);
        if last_base != Some(base) {
            let _ = writeln!(out, "# HELP {base} {}", s.help);
            let _ = writeln!(out, "# TYPE {base} {}", s.value.kind());
            last_base = Some(base);
        }
        match &s.value {
            Value::Counter(v) => {
                let _ = writeln!(out, "{} {v}", s.name);
            }
            Value::Gauge(v) => {
                let _ = writeln!(out, "{} {v}", s.name);
            }
            Value::Histogram(snap) => render_histogram(&mut out, &s.name, snap),
        }
    }
    out
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
fn render_histogram(out: &mut String, name: &str, snap: &HistogramSnapshot) {
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
    use crate::LatencyHistogram;

    #[test]
    fn counters_and_gauges_render() {
        let text = render_text(&[
            Sample::counter("requests_total", "Requests served.", 3),
            Sample::gauge("queue_depth", "Items queued.", -2),
        ]);
        assert_eq!(
            text,
            "# HELP requests_total Requests served.\n\
             # TYPE requests_total counter\n\
             requests_total 3\n\
             # HELP queue_depth Items queued.\n\
             # TYPE queue_depth gauge\n\
             queue_depth -2\n"
        );
    }

    #[test]
    fn labeled_series_share_one_header() {
        let text = render_text(&[
            Sample::counter("ops_total{shard=\"0\"}", "Ops.", 1),
            Sample::counter("ops_total{shard=\"1\"}", "Ops.", 2),
            Sample::counter("other_total", "Other.", 0),
            Sample::counter("ops_total{shard=\"2\"}", "Ops.", 3),
        ]);
        assert_eq!(
            text,
            "# HELP ops_total Ops.\n\
             # TYPE ops_total counter\n\
             ops_total{shard=\"0\"} 1\n\
             ops_total{shard=\"1\"} 2\n\
             # HELP other_total Other.\n\
             # TYPE other_total counter\n\
             other_total 0\n\
             # HELP ops_total Ops.\n\
             # TYPE ops_total counter\n\
             ops_total{shard=\"2\"} 3\n",
            "only consecutive series share a header"
        );
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let h = LatencyHistogram::new();
        h.record(1);
        h.record(1);
        h.record(5);
        let text = render_text(&[Sample::histogram(
            "lat_ns{stage=\"x\"}",
            "Latency.",
            h.snapshot(),
        )]);
        assert_eq!(
            text,
            "# HELP lat_ns Latency.\n\
             # TYPE lat_ns histogram\n\
             lat_ns_bucket{stage=\"x\",le=\"0\"} 0\n\
             lat_ns_bucket{stage=\"x\",le=\"1\"} 2\n\
             lat_ns_bucket{stage=\"x\",le=\"3\"} 2\n\
             lat_ns_bucket{stage=\"x\",le=\"7\"} 3\n\
             lat_ns_bucket{stage=\"x\",le=\"+Inf\"} 3\n\
             lat_ns_sum{stage=\"x\"} 7\n\
             lat_ns_count{stage=\"x\"} 3\n"
        );
    }

    #[test]
    fn empty_histogram_renders_only_its_totals() {
        let text = render_text(&[Sample::histogram(
            "idle_ns",
            "Idle.",
            HistogramSnapshot::empty(),
        )]);
        assert_eq!(
            text,
            "# HELP idle_ns Idle.\n\
             # TYPE idle_ns histogram\n\
             idle_ns_bucket{le=\"+Inf\"} 0\n\
             idle_ns_sum 0\n\
             idle_ns_count 0\n"
        );
    }
}
