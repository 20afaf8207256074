//! `crowd_obs` — dependency-free observability for the crowd
//! assessment stack.
//!
//! Three pieces, with no external crates:
//!
//! * [`LatencyHistogram`] — a log₂-bucketed histogram over `u64`
//!   values (nanoseconds, batch sizes, …). [`LatencyHistogram::record`]
//!   is **wait-free**: four relaxed atomic RMWs (bucket, count, sum,
//!   max), no locks, no allocation — cheap enough for every message
//!   on an ingest path. Queries go through a [`HistogramSnapshot`]
//!   ([`HistogramSnapshot::percentile`], `p50`/`p99`, `mean`, `max`)
//!   and snapshots [`merge`](HistogramSnapshot::merge) exactly, so
//!   per-shard recording plus a merge at scrape time equals one
//!   global histogram.
//! * [`Sample`] — one named series of a scrape (a counter, a gauge or
//!   a histogram snapshot, labels in the name), and [`render_text`],
//!   the Prometheus text exposition of a list of them. A scrape is
//!   plain data: whoever holds the numbers builds the samples, and
//!   the same list renders, compares and crosses a wire.
//! * [`EventJournal`] — a bounded lock-free flight recorder keeping
//!   the last N structured [`Event`]s (shed, slow-op, recovery, …)
//!   with monotonic timestamps. [`EventJournal::record`] is one
//!   ticket `fetch_add` + one CAS + a handful of relaxed stores; a
//!   contended wrap-around drops the event (counted) instead of ever
//!   waiting.
//!
//! # Percentile semantics
//!
//! Every percentile this workspace reports uses **nearest-rank**
//! semantics, pinned here: the answer for quantile `q` over `n`
//! samples is the smallest value with at least `⌈q·n⌉` samples `≤`
//! it (so `q = 1.0` is the maximum). [`sample_percentile`] computes
//! it exactly over raw samples; [`HistogramSnapshot::percentile`]
//! answers the same question from buckets, returning the bucket's
//! inclusive upper bound clamped to the exact recorded maximum.

pub mod hist;
pub mod journal;
pub mod sample;

pub use hist::{
    BUCKETS, HistogramSnapshot, LatencyHistogram, bucket_index, bucket_lower_bound,
    bucket_upper_bound,
};
pub use journal::{Event, EventJournal, EventKind, MAX_LABEL_BYTES, NO_SHARD};
pub use sample::{Sample, Value, render_text};

/// Exact nearest-rank percentile over raw samples (sorts `values`
/// in place with `total_cmp`; NaNs sort last). Returns `0.0` for an
/// empty slice. `q` is clamped to `[0, 1]`; `q = 0.5` is the median,
/// `q = 1.0` the maximum.
pub fn sample_percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    values[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_percentile_nearest_rank() {
        let mut v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(sample_percentile(&mut v, 0.30), 20.0);
        assert_eq!(sample_percentile(&mut v, 0.40), 20.0);
        assert_eq!(sample_percentile(&mut v, 0.50), 35.0);
        assert_eq!(sample_percentile(&mut v, 1.00), 50.0);
        assert_eq!(sample_percentile(&mut v, 0.00), 15.0);
        assert_eq!(sample_percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn sample_and_histogram_percentiles_agree_on_powers_of_two() {
        // On exact bucket boundaries the histogram answer is exact.
        let h = LatencyHistogram::new();
        let mut raw = Vec::new();
        for v in [1u64, 1, 3, 7, 7, 15, 31] {
            h.record(v);
            raw.push(v as f64);
        }
        let snap = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                snap.percentile(q),
                sample_percentile(&mut raw.clone(), q) as u64,
                "q={q}"
            );
        }
    }
}
