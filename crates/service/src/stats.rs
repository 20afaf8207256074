//! Runtime counters: queue health, batching shape and the streaming
//! substrate's view-build diagnostic, aggregated fleet-wide.

/// Counters one shard thread maintains and reports (via
/// [`crate::ServiceHandle::stats`], and finally when it exits).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard id (position in the plan).
    pub shard: usize,
    /// Ingest batches this shard processed.
    pub batches: u64,
    /// Responses recorded into this shard's index (a response routed
    /// to several subscribing shards counts once in each).
    pub responses: u64,
    /// Invalid responses rejected by the substrate
    /// ([`crowd_data::DataError`]), counted at the worker's home
    /// shard only so the fleet total is exact.
    pub rejected: u64,
    /// Assessment requests (per-worker and anchor-set) answered.
    pub assess_requests: u64,
    /// Anchored views built by the shard's streaming substrate
    /// ([`crowd_data::StreamingIndex::view_build_count`]): one per
    /// evaluated anchor. The field keeps its older name for the
    /// benchmark that reads it through
    /// [`ServiceStats::total_reanchors`]; the scrape calls it
    /// `crowd_shard_view_builds_total`.
    pub reanchors: usize,
    /// High-water mark of the shard's bounded queue, in messages.
    pub queue_high_water: usize,
    /// Report-cache rows served without re-evaluation (binary + k-ary
    /// caches combined; see `crowd_core::cached`). Every assessment
    /// request goes through the caches.
    pub cache_hits: u64,
    /// Report-cache rows (re-)evaluated because they were absent or
    /// dirtied by ingest since their cached version — the dirty-set
    /// work drains actually paid for.
    pub cache_misses: u64,
    /// Wholesale cache invalidations (requests switched confidence
    /// level).
    pub cache_full_refreshes: u64,
    /// Times this shard was respawned from its last checkpoint after a
    /// panic (see [`crate::ServiceConfig::checkpoint_interval`]).
    /// Survives the recovery itself: the counter is authoritative in
    /// the supervisor, not the discarded worker state.
    pub recoveries: u64,
    /// Checkpoints taken by log compaction (the spawn-time checkpoint
    /// of the empty substrate is not counted).
    pub checkpoints: u64,
    /// Responses replayed from the write-ahead log across all
    /// recoveries of this shard.
    pub wal_replayed: u64,
}

/// Power-of-two histogram of ingest batch sizes, built on the shared
/// `crowd_obs` log₂ bucket rule ([`crowd_obs::bucket_index`]): bucket
/// 0 counts **empty batches only**, bucket `i ≥ 1` counts batches
/// with `2^(i-1) ≤ size < 2^i` responses, and the last bucket is
/// open-ended. (Before `crowd_obs`, size 0 was silently folded into
/// the size-1 bucket; the zero bucket keeps degenerate empty submits
/// visible.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchHistogram {
    buckets: [u64; Self::BUCKETS],
}

impl BatchHistogram {
    /// Number of buckets (size 0, then 1 … ≥ 2¹⁰).
    pub const BUCKETS: usize = 12;

    /// Records one batch of `size` responses.
    pub fn record(&mut self, size: usize) {
        let bucket = crowd_obs::bucket_index(size as u64).min(Self::BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// The bucket counts, smallest sizes first.
    pub fn counts(&self) -> &[u64; Self::BUCKETS] {
        &self.buckets
    }

    /// Rebuilds a histogram from previously-reported bucket counts —
    /// the constructor wire decoding uses to carry a histogram across
    /// a connection losslessly.
    pub fn from_counts(counts: [u64; Self::BUCKETS]) -> Self {
        Self { buckets: counts }
    }

    /// Inclusive lower bound of bucket `i`
    /// ([`crowd_obs::bucket_lower_bound`]): 0, then `2^(i-1)`.
    pub fn lower_bound(i: usize) -> usize {
        crowd_obs::bucket_lower_bound(i) as usize
    }

    /// Total batches recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// A fleet-wide stats snapshot; see
/// [`crate::ServiceHandle::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Per-shard counters, in shard order.
    pub shards: Vec<ShardStats>,
    /// Responses submitted through the handle (before routing
    /// fan-out; shed responses included).
    pub submitted: u64,
    /// Shard-bound groups shed under
    /// [`crate::BackpressurePolicy::Shed`].
    pub dropped_batches: u64,
    /// Per-shard response deliveries lost to shedding or rejection.
    pub dropped_responses: u64,
    /// Ingest batch sizes, as submitted by callers.
    pub batch_sizes: BatchHistogram,
}

impl ServiceStats {
    /// Fleet total of anchored-view builds (the `reanchors` slot).
    pub fn total_reanchors(&self) -> usize {
        self.shards.iter().map(|s| s.reanchors).sum()
    }

    /// Always 0: views are no longer patched at ingest. Kept only
    /// because the benchmark still reads it; it goes with the next
    /// benchmark change (ROADMAP item 3), and the `perfbench tests`
    /// CI step builds the benchmark against this surface until then.
    #[doc(hidden)]
    pub fn total_gram_patches(&self) -> usize {
        0
    }

    /// Always 0: views are no longer cached between evaluations. Kept
    /// only for the benchmark, like `total_gram_patches`.
    #[doc(hidden)]
    pub fn total_gram_rebuilds(&self) -> usize {
        0
    }

    /// Fleet total of invalid responses rejected (home-shard
    /// accounting, so each bad response counts once).
    pub fn total_rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected).sum()
    }

    /// Fleet total of report-cache rows served without re-evaluation.
    pub fn total_cache_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_hits).sum()
    }

    /// Fleet total of report-cache rows (re-)evaluated.
    pub fn total_cache_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_misses).sum()
    }

    /// Fleet total of wholesale cache invalidations.
    pub fn total_cache_full_refreshes(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_full_refreshes).sum()
    }

    /// Fleet total of shard respawns from checkpoint.
    pub fn total_recoveries(&self) -> u64 {
        self.shards.iter().map(|s| s.recoveries).sum()
    }

    /// Fleet total of compaction checkpoints taken.
    pub fn total_checkpoints(&self) -> u64 {
        self.shards.iter().map(|s| s.checkpoints).sum()
    }

    /// The deepest any shard queue ever got, in messages.
    pub fn max_queue_high_water(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.queue_high_water)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = BatchHistogram::default();
        for size in [0usize, 1, 1, 2, 3, 4, 7, 8, 256, 4096, 1 << 20] {
            h.record(size);
        }
        let c = h.counts();
        assert_eq!(c[0], 1, "empty batches get their own bucket");
        assert_eq!(c[1], 2, "sizes 1, 1");
        assert_eq!(c[2], 2, "sizes 2, 3");
        assert_eq!(c[3], 2, "sizes 4, 7");
        assert_eq!(c[4], 1, "size 8");
        assert_eq!(c[9], 1, "size 256");
        assert_eq!(c[11], 2, "sizes ≥ 1024 share the open bucket");
        assert_eq!(h.total(), 11);
        assert_eq!(BatchHistogram::lower_bound(9), 256);
        assert_eq!(BatchHistogram::lower_bound(0), 0);
    }
}
