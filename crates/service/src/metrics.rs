//! Fleet metrics: per-shard stage timing histograms, the
//! flight-recorder journal, and a Prometheus-style text exposition —
//! the query side of the instrumentation the shard threads record
//! into (see [`crate::ServiceConfig::metrics`]).

use crowd_obs::{Event, EventKind, HistogramSnapshot, LatencyHistogram, Sample};

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

    /// The whole scrape as named samples: every counter the
    /// exposition shows from [`ServiceStats`] (fleet totals and
    /// per-shard series), the batch-size histogram, the per-shard
    /// stage histograms, and journal occupancy. The numbers are exactly
    /// the ones in `self.stats` / `self.stages`: the samples are a
    /// view, not a second measurement. A new metric is one more entry
    /// here; the wire carries it by name.
    pub fn samples(&self) -> Vec<Sample> {
        let st = &self.stats;
        let mut out = vec![
            Sample::counter(
                "crowd_submitted_responses_total",
                "Responses submitted through the handle (before routing fan-out).",
                st.submitted,
            ),
            Sample::counter(
                "crowd_dropped_batches_total",
                "Shard-bound groups shed under backpressure.",
                st.dropped_batches,
            ),
            Sample::counter(
                "crowd_dropped_responses_total",
                "Per-shard response deliveries lost to shedding or rejection.",
                st.dropped_responses,
            ),
        ];
        for s in &st.shards {
            let shard = |name: &str| format!("{name}{{shard=\"{}\"}}", s.shard);
            let counters: [(&str, &str, u64); 8] = [
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
            for (name, help, v) in counters {
                out.push(Sample::counter(shard(name), help, v));
            }
            out.push(Sample::gauge(
                shard("crowd_shard_queue_high_water"),
                "High-water mark of the shard's bounded queue, in messages.",
                s.queue_high_water as i64,
            ));
        }
        // The batch-size histogram shares the log2 bucket rule, so it
        // widens losslessly into a 64-bucket snapshot.
        let mut batch_buckets = [0u64; crowd_obs::BUCKETS];
        let counts = st.batch_sizes.counts();
        batch_buckets[..counts.len()].copy_from_slice(counts);
        out.push(Sample::histogram(
            "crowd_ingest_batch_size",
            "Ingest batch sizes, as submitted by callers.",
            HistogramSnapshot::from_parts(batch_buckets, st.batch_sizes.total(), 0, 0),
        ));
        for (sh, timings) in self.stages.iter().enumerate() {
            let stages: [(&str, &str, &HistogramSnapshot); 3] = [
                (
                    "crowd_stage_queue_wait_ns",
                    "Enqueue-to-dequeue wait per shard message, ns.",
                    &timings.queue_wait,
                ),
                (
                    "crowd_stage_batch_apply_ns",
                    "Ingest-group apply time into the streaming substrate, ns.",
                    &timings.batch_apply,
                ),
                (
                    "crowd_stage_drain_eval_ns",
                    "Drain-point assessment evaluation time, ns.",
                    &timings.drain_eval,
                ),
            ];
            for (name, help, snap) in stages {
                out.push(Sample::histogram(
                    format!("{name}{{shard=\"{sh}\"}}"),
                    help,
                    snap.clone(),
                ));
            }
        }
        out.push(Sample::gauge(
            "crowd_journal_events",
            "Flight-recorder events currently retained.",
            self.events.len() as i64,
        ));
        out.push(Sample::counter(
            "crowd_journal_dropped_total",
            "Flight-recorder events lost to wrap-around contention.",
            self.events_dropped,
        ));
        out
    }

    /// Prometheus text exposition of [`Self::samples`].
    pub fn render_text(&self) -> String {
        crowd_obs::render_text(&self.samples())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{BatchHistogram, ShardStats};

    /// A two-shard scrape with every counter distinct, non-empty stage
    /// histograms on both shards, batch sizes and journal counts.
    fn two_shard_fixture() -> ServiceMetrics {
        let shard = |shard: usize, k: u64| ShardStats {
            shard,
            batches: 4 + k,
            responses: 170 + k,
            rejected: k,
            assess_requests: 9 + k,
            reanchors: 6 + k as usize,
            queue_high_water: 3 + k as usize,
            cache_hits: 30 + k,
            cache_misses: 12 + k,
            cache_full_refreshes: 1 + k,
            recoveries: 2,
            checkpoints: 5,
            wal_replayed: 40,
        };
        let stages = |k: u64| {
            let t = StageTimers::default();
            for v in [100 * k, 300, 4096 + k] {
                t.queue_wait.record(v);
            }
            t.batch_apply.record(1 << (10 + k));
            t.drain_eval.record(0);
            t.drain_eval.record(1 << 20);
            t.snapshot()
        };
        let event = |seq: u64| Event {
            seq,
            timestamp_ns: 1000 * seq,
            kind: EventKind::SlowOp,
            shard: 1,
            a: 7,
            b: 0,
            label: "drain_eval".into(),
        };
        ServiceMetrics {
            enabled: true,
            stats: ServiceStats {
                shards: vec![shard(0, 0), shard(1, 1)],
                submitted: 341,
                dropped_batches: 2,
                dropped_responses: 5,
                batch_sizes: BatchHistogram::from_counts([1, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 1]),
            },
            stages: vec![stages(0), stages(1)],
            events: vec![event(0), event(1), event(2)],
            events_dropped: 4,
        }
    }

    #[test]
    fn exposition_is_byte_identical_to_the_pinned_text() {
        // Captured from the exposition as rendered before scrapes
        // became named samples; any change of a name, help string,
        // header or order shows here.
        let golden = include_str!("metrics_golden.txt");
        assert_eq!(two_shard_fixture().render_text(), golden);
    }

    #[test]
    fn sample_names_are_unique_within_a_scrape() {
        let samples = two_shard_fixture().samples();
        let mut names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        // 3 fleet counters, 9 series per shard, the batch histogram, 3
        // stage histograms per shard and 2 journal series.
        assert_eq!(n, 3 + 2 * 9 + 1 + 2 * 3 + 2);
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
