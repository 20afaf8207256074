//! Fleet metrics: per-shard stage timing histograms, the
//! flight-recorder journal, and a Prometheus-style text exposition —
//! the query side of the instrumentation the shard threads record
//! into (see [`crate::ServiceConfig::metrics`]).

use crowd_obs::{Event, EventKind, HistogramSnapshot, LatencyHistogram, MetricsRegistry};

use crate::stats::ServiceStats;

/// The three instrumented stages of a shard thread's message loop.
///
/// * **queue-wait** — enqueue (handle side) to dequeue (shard side),
///   per message: how long work sat in the bounded queue.
/// * **batch-apply** — applying one ingest group into the shard's
///   streaming substrate, per batch.
/// * **drain-eval** — evaluating one assessment request
///   (worker/anchor, binary/k-ary) at its drain point, per request.
///
/// All values are nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Queue-wait distribution (ns), every message type.
    pub queue_wait: HistogramSnapshot,
    /// Batch-apply distribution (ns), per ingest group.
    pub batch_apply: HistogramSnapshot,
    /// Drain-point evaluation distribution (ns), per assessment.
    pub drain_eval: HistogramSnapshot,
}

impl StageTimings {
    /// Adds every sample of `other` into `self` (exact; see
    /// [`HistogramSnapshot::merge`]).
    pub fn merge(&mut self, other: &StageTimings) {
        self.queue_wait.merge(&other.queue_wait);
        self.batch_apply.merge(&other.batch_apply);
        self.drain_eval.merge(&other.drain_eval);
    }
}

/// The live recording side of [`StageTimings`]: one set per shard
/// thread, shared (`Arc`) with the handle so scrapes never cross the
/// shard queues.
#[derive(Debug, Default)]
pub(crate) struct StageTimers {
    pub(crate) queue_wait: LatencyHistogram,
    pub(crate) batch_apply: LatencyHistogram,
    pub(crate) drain_eval: LatencyHistogram,
}

impl StageTimers {
    pub(crate) fn snapshot(&self) -> StageTimings {
        StageTimings {
            queue_wait: self.queue_wait.snapshot(),
            batch_apply: self.batch_apply.snapshot(),
            drain_eval: self.drain_eval.snapshot(),
        }
    }
}

/// Everything a metrics scrape returns
/// ([`crate::ServiceHandle::metrics`]): the counter snapshot the
/// fleet already reported through [`crate::ServiceHandle::stats`],
/// plus per-shard stage timings and the flight-recorder tail.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMetrics {
    /// Whether the fleet was spawned with instrumentation on
    /// ([`crate::ServiceConfig::metrics`]). When `false` the stage
    /// histograms are empty and the journal is silent; the counter
    /// stats below are maintained regardless.
    pub enabled: bool,
    /// The counter snapshot — the same numbers
    /// [`crate::ServiceHandle::stats`] reports.
    pub stats: ServiceStats,
    /// Per-shard stage timings, in shard order.
    pub stages: Vec<StageTimings>,
    /// The flight-recorder tail, oldest first.
    pub events: Vec<Event>,
    /// Journal events lost to wrap-around contention.
    pub events_dropped: u64,
}

impl ServiceMetrics {
    /// All shards' stage timings merged into one distribution set.
    pub fn merged_stages(&self) -> StageTimings {
        let mut merged = StageTimings::default();
        for s in &self.stages {
            merged.merge(s);
        }
        merged
    }

    /// Flight-recorder events of one kind, oldest first.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Prometheus text exposition of the whole scrape: every counter
    /// in [`ServiceStats`] (fleet totals and per-shard series), the
    /// per-shard stage histograms, the batch-size histogram, and
    /// journal occupancy. The numbers are exactly the ones in
    /// `self.stats` / `self.stages` — the exposition is a view, not a
    /// second measurement.
    pub fn render_text(&self) -> String {
        let reg = MetricsRegistry::new();
        reg.counter(
            "crowd_submitted_responses_total",
            "Responses submitted through the handle (before routing fan-out).",
        )
        .add(self.stats.submitted);
        reg.counter(
            "crowd_dropped_batches_total",
            "Shard-bound groups shed under backpressure.",
        )
        .add(self.stats.dropped_batches);
        reg.counter(
            "crowd_dropped_responses_total",
            "Per-shard response deliveries lost to shedding or rejection.",
        )
        .add(self.stats.dropped_responses);
        for s in &self.stats.shards {
            let sh = s.shard;
            let pairs: [(&str, &str, u64); 8] = [
                (
                    "crowd_shard_batches_total",
                    "Ingest batches processed.",
                    s.batches,
                ),
                (
                    "crowd_shard_responses_total",
                    "Responses recorded.",
                    s.responses,
                ),
                (
                    "crowd_shard_rejected_total",
                    "Invalid responses rejected.",
                    s.rejected,
                ),
                (
                    "crowd_shard_assess_requests_total",
                    "Assessment requests answered.",
                    s.assess_requests,
                ),
                (
                    "crowd_shard_view_builds_total",
                    "Anchored views built.",
                    s.reanchors as u64,
                ),
                (
                    "crowd_shard_cache_hits_total",
                    "Report-cache rows served.",
                    s.cache_hits,
                ),
                (
                    "crowd_shard_cache_misses_total",
                    "Report-cache rows re-evaluated.",
                    s.cache_misses,
                ),
                (
                    "crowd_shard_cache_full_refreshes_total",
                    "Wholesale cache invalidations.",
                    s.cache_full_refreshes,
                ),
            ];
            for (name, help, v) in pairs {
                reg.counter(&format!("{name}{{shard=\"{sh}\"}}"), help)
                    .add(v);
            }
            reg.gauge(
                &format!("crowd_shard_queue_high_water{{shard=\"{sh}\"}}"),
                "High-water mark of the shard's bounded queue, in messages.",
            )
            .set(s.queue_high_water as i64);
        }
        // The batch-size histogram shares the log2 bucket rule, so it
        // widens losslessly into a 64-bucket snapshot for rendering.
        let mut batch_buckets = [0u64; crowd_obs::BUCKETS];
        let counts = self.stats.batch_sizes.counts();
        batch_buckets[..counts.len()].copy_from_slice(counts);
        reg.frozen_histogram(
            "crowd_ingest_batch_size",
            "Ingest batch sizes, as submitted by callers.",
            HistogramSnapshot::from_parts(batch_buckets, self.stats.batch_sizes.total(), 0, 0),
        );
        for (sh, st) in self.stages.iter().enumerate() {
            let stages: [(&str, &str, &HistogramSnapshot); 3] = [
                (
                    "crowd_stage_queue_wait_ns",
                    "Enqueue-to-dequeue wait per shard message, ns.",
                    &st.queue_wait,
                ),
                (
                    "crowd_stage_batch_apply_ns",
                    "Ingest-group apply time into the streaming substrate, ns.",
                    &st.batch_apply,
                ),
                (
                    "crowd_stage_drain_eval_ns",
                    "Drain-point assessment evaluation time, ns.",
                    &st.drain_eval,
                ),
            ];
            for (name, help, snap) in stages {
                reg.frozen_histogram(&format!("{name}{{shard=\"{sh}\"}}"), help, snap.clone());
            }
        }
        reg.gauge(
            "crowd_journal_events",
            "Flight-recorder events currently retained.",
        )
        .set(self.events.len() as i64);
        reg.counter(
            "crowd_journal_dropped_total",
            "Flight-recorder events lost to wrap-around contention.",
        )
        .add(self.events_dropped);
        reg.render_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ShardStats;

    #[test]
    fn render_text_carries_the_stats_numbers() {
        let timers = StageTimers::default();
        timers.queue_wait.record(100);
        timers.queue_wait.record(300);
        timers.drain_eval.record(1 << 20);
        let m = ServiceMetrics {
            enabled: true,
            stats: ServiceStats {
                shards: vec![ShardStats {
                    shard: 0,
                    batches: 4,
                    responses: 17,
                    cache_hits: 3,
                    queue_high_water: 2,
                    ..ShardStats::default()
                }],
                submitted: 17,
                dropped_batches: 0,
                dropped_responses: 0,
                batch_sizes: crate::stats::BatchHistogram::from_counts([
                    1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0,
                ]),
            },
            stages: vec![timers.snapshot()],
            events: vec![],
            events_dropped: 0,
        };
        let text = m.render_text();
        assert!(text.contains("crowd_submitted_responses_total 17"));
        assert!(text.contains("crowd_shard_responses_total{shard=\"0\"} 17"));
        assert!(text.contains("crowd_shard_batches_total{shard=\"0\"} 4"));
        assert!(text.contains("crowd_shard_cache_hits_total{shard=\"0\"} 3"));
        assert!(text.contains("crowd_shard_queue_high_water{shard=\"0\"} 2"));
        assert!(text.contains("crowd_ingest_batch_size_count 3"));
        assert!(text.contains("crowd_stage_queue_wait_ns_count{shard=\"0\"} 2"));
        assert!(text.contains("crowd_stage_queue_wait_ns_sum{shard=\"0\"} 400"));
        assert!(text.contains("crowd_stage_drain_eval_ns_count{shard=\"0\"} 1"));
        assert!(text.contains("# TYPE crowd_stage_queue_wait_ns histogram"));
    }

    #[test]
    fn merged_stages_sum_across_shards() {
        let a = StageTimers::default();
        a.batch_apply.record(10);
        let b = StageTimers::default();
        b.batch_apply.record(20);
        b.batch_apply.record(30);
        let m = ServiceMetrics {
            enabled: true,
            stats: ServiceStats::default(),
            stages: vec![a.snapshot(), b.snapshot()],
            events: vec![],
            events_dropped: 0,
        };
        let merged = m.merged_stages();
        assert_eq!(merged.batch_apply.count(), 3);
        assert_eq!(merged.batch_apply.sum(), 60);
        assert_eq!(merged.batch_apply.max(), 30);
    }
}
