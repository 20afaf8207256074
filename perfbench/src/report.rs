//! The metric catalogue and the result line.
//!
//! Every metric the benchmark prints is declared here, with its unit,
//! in the order `BENCHMARK.json` lists it; the benchmark's tests check
//! the two agree.

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("ingest_rps", "1/s"),
    ("assess_p50_ms", "ms"),
    ("assess_tail_ms", "ms"),
    ("fresh_report_p50_ms", "ms"),
    ("fresh_report_tail_ms", "ms"),
    ("cold_report_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ci_half_width_mean", "prob"),
    ("ci_coverage", "share"),
    ("evaluable_share", "share"),
    ("success_share", "share"),
];

/// Per-layer metrics (`--trace 1`), with units. The `service.*_ns.p50`
/// stage figures come from log₂-bucketed histograms: each is a bucket
/// bound, good to within a factor of two.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("service.ingest_call_us.p50", "us"),
    ("service.drain_ms", "ms"),
    ("service.checkpoints", "count"),
    ("service.queue_high_water", "count"),
    ("service.queue_wait_ns.p50", "ns"),
    ("service.batch_apply_ns.p50", "ns"),
    ("service.drain_eval_ns.p50", "ns"),
    ("service.ingest_rps.default", "1/s"),
    ("service.ingest_rps.no_checkpoint", "1/s"),
    ("service.ingest_rps.no_checkpoint_no_metrics", "1/s"),
    ("service.ladder_ordered", "bool"),
    ("data.apply_ns_per_response", "ns"),
    ("data.checkpoint_encode_ms", "ms"),
    ("data.checkpoint_restore_ms", "ms"),
    ("data.checkpoint_bytes", "bytes"),
    ("data.reanchors", "count"),
    ("data.gram_patches", "count"),
    ("data.gram_rebuilds", "count"),
    ("core.pairing_ms", "ms"),
    ("core.evaluate_ms", "ms"),
    ("core.kary_evaluate_ms", "ms"),
    ("core.cache_refresh_ms", "ms"),
    ("core.dirty_anchors", "count"),
    ("core.cache_hit_ratio", "share"),
    ("core.cache_rows", "count"),
    ("shard.plan_build_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("shard.fanout", "ratio"),
    ("wire.encode_ingest_us", "us"),
    ("wire.decode_ingest_us", "us"),
    ("wire.encode_report_ms", "ms"),
    ("wire.decode_report_ms", "ms"),
    ("wire.report_bytes", "bytes"),
    ("wire.rtt_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("self_ms.bench", "ms"),
    ("self_ms.service", "ms"),
    ("self_ms.wire", "ms"),
    ("self_ms.shard", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.data", "ms"),
    ("trace.untraced_round_ms", "ms"),
];

/// Metric values by name, filled in catalogue order at print time.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name` (must be in the catalogue being printed).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value last set for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`
/// with every metric of `catalogue`. A metric left unset or not finite
/// makes the run incorrect (and prints as 0).
pub fn result_line(
    mut correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &Values,
) -> String {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => v,
            other => {
                eprintln!("metric {name} has no finite value ({other:?})");
                correct = false;
                0.0
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

/// `(name, unit)` pairs of one `BENCHMARK.json` section, in order.
#[cfg(test)]
pub fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|obj| (string_field(obj, "name"), string_field(obj, "unit")))
        .collect()
}

/// The string value of `"key": "..."` in `obj`.
#[cfg(test)]
fn string_field(obj: &str, key: &str) -> String {
    let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    let rest = &obj[at..];
    let open = rest.find('"').expect("string value") + 1;
    let close = open + rest[open..].find('"').expect("string closes");
    rest[open..close].to_string()
}

/// `(name, unit)` pairs of the metrics in a result line, in order.
#[cfg(test)]
pub fn printed(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| {
            let name = &w[0][w[0].rfind('"').expect("quoted name") + 1..];
            (name.to_string(), string_field(w[1], "unit"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut values = Values::default();
        values.set("a", 1.5);
        values.set("b", 2.0);
        let line = result_line(true, 3, 0, &[("a", "s"), ("b", "1/s")], &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert_eq!(printed(&line), owned(&[("a", "s"), ("b", "1/s")]));
    }

    #[test]
    fn unset_metric_fails_the_run() {
        let line = result_line(true, 3, 0, &[("a", "s")], &Values::default());
        assert!(line.starts_with("{\"correct\": false"));
    }
}
