//! Epoch-versioned per-anchor report caching over the streaming
//! substrate — re-evaluate only what an ingest actually touched.
//!
//! The estimators are per-worker: a drain-point report is a list of
//! independent rows, one per anchor, and a new response from worker
//! `w` can only move the rows of `{w} ∪ cooccur(w)` (see the dirty
//! tracking in [`crowd_data::streaming`]). [`ReportCache`] exploits
//! that for any [`Estimator`] — binary and k-ary alike — by
//! remembering, per anchor, the last evaluation outcome **and the
//! ingest epoch it was computed at**. A refresh re-evaluates an anchor
//! only when [`StreamingIndex::dirty_epoch`] has advanced past its
//! row's epoch; clean rows are cloned from the cache. Steady-state
//! drain cost drops from `O(m·T)` (T = per-anchor triple/covariance
//! work) to `O(|dirty|·T)` — the dominant win under realistic skewed
//! arrival streams where most anchors are quiet between drains.
//!
//! # Exactness
//!
//! The cache is **bit-identical** to full recomputation, not
//! approximately fresh: a clean row would re-derive the same bits
//! because every statistic its evaluation reads is unchanged, and
//! failures ([`crate::EstimateError`] rows) are cached and re-validated the
//! same way as successes. A miss calls [`Estimator::evaluate_streamed`],
//! which runs the estimator's one evaluation body — the code batch
//! `evaluate_all` runs over a bulk-loaded [`StreamingIndex`] — on the
//! stream, building each missed anchor's view as it goes (a refresh
//! pays one view fill per dirty anchor and nothing for clean ones). Anything that changes the evaluation
//! question rather than the data — a different confidence level —
//! invalidates wholesale. The service-level property tests
//! (`crowd_service/tests/incremental_equivalence.rs`) pin cached
//! reports against serial uncached evaluation at every drain point
//! across random interleavings.
//!
//! A cache is keyed to **one** [`StreamingIndex`]: epochs are
//! stream-local, so feeding a cache from two different substrates
//! makes its version stamps meaningless. (The shard runtime owns one
//! cache per estimator per shard stream, which is the intended shape.)

use crate::{Estimator, Report, Result};
use crowd_data::{OverlapSource, StreamingIndex, WorkerId};

/// Running counters of a report cache (cumulative since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Rows served from the cache without re-evaluation.
    pub hits: u64,
    /// Rows (re-)evaluated because they were absent or dirty.
    pub misses: u64,
    /// Wholesale invalidations (the confidence level changed).
    pub full_refreshes: u64,
    /// Rows re-evaluated by the most recent [`ReportCache::refresh`]
    /// call — the dirty-set size the drain actually paid for.
    pub last_dirty: usize,
}

/// Epoch-versioned cache of one estimator's per-worker assessments —
/// one optional `(epoch, outcome)` slot per worker id plus the
/// confidence level the rows answer; see the [module docs](self).
///
/// # Example
///
/// ```
/// use crowd_core::{EstimatorConfig, MWorkerEstimator, ReportCache};
/// use crowd_data::{StreamingIndex, WorkerId};
/// use crowd_sim::BinaryScenario;
///
/// let data = BinaryScenario::paper_default(5, 60, 0.9)
///     .generate(&mut crowd_sim::rng(5));
/// let stream = StreamingIndex::from_matrix(data.responses());
/// let est = MWorkerEstimator::new(EstimatorConfig::default());
/// let anchors: Vec<WorkerId> = stream.index().workers().collect();
///
/// let mut cache = ReportCache::new();
/// let first = cache.refresh(&est, &stream, &anchors, 0.9)?;
/// // No ingest since: the second drain is served entirely from cache.
/// let second = cache.refresh(&est, &stream, &anchors, 0.9)?;
/// assert_eq!(first.assessments, second.assessments);
/// assert_eq!(cache.stats().last_dirty, 0);
/// # Ok::<(), crowd_core::EstimateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReportCache<E: Estimator> {
    rows: Vec<Option<(u64, Result<E::Assessment>)>>,
    /// Bit pattern of the confidence level the cached rows were
    /// computed at; `None` until first use. Compared exactly — a
    /// different confidence is a different question, so the rows are
    /// dropped wholesale rather than risking a stale answer.
    confidence_bits: Option<u64>,
    stats: CacheStats,
}

impl<E: Estimator> ReportCache<E> {
    /// An empty cache (first refresh evaluates every anchor).
    pub fn new() -> Self {
        Self {
            rows: Vec::new(),
            confidence_bits: None,
            stats: CacheStats::default(),
        }
    }

    /// Cumulative hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every row if `confidence` differs from the cached level
    /// (exact bit comparison), counting a full refresh when live rows
    /// were actually discarded.
    fn ensure_confidence(&mut self, confidence: f64) {
        let bits = confidence.to_bits();
        if self.confidence_bits != Some(bits) {
            if self.rows.iter().any(Option::is_some) {
                self.stats.full_refreshes += 1;
            }
            self.rows.clear();
            self.confidence_bits = Some(bits);
        }
    }

    /// Cache-consulting counterpart of [`Estimator::evaluate_streamed`]:
    /// serves the cached outcome when `worker` is clean — present and
    /// computed at an epoch not older than the worker's last dirtying
    /// ingest — and re-evaluates (and re-versions it at the stream's
    /// current epoch) otherwise. Bit-identical to the uncached call
    /// either way.
    pub fn assess(
        &mut self,
        estimator: &E,
        stream: &StreamingIndex,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<E::Assessment> {
        self.ensure_confidence(confidence);
        if let Some(Some((epoch, outcome))) = self.rows.get(worker.index())
            && *epoch >= stream.dirty_epoch(worker)
        {
            self.stats.hits += 1;
            return outcome.clone();
        }
        self.stats.misses += 1;
        let outcome = estimator.evaluate_streamed(stream, worker, confidence);
        if self.rows.len() <= worker.index() {
            self.rows.resize(worker.index() + 1, None);
        }
        self.rows[worker.index()] = Some((stream.epoch(), outcome.clone()));
        outcome
    }

    /// Cache-consulting evaluation of `anchors`: re-evaluates only the
    /// anchors dirtied since their cached rows, cloning the rest. The
    /// report (assessments and failures in `anchors` order) and the
    /// population guard are bit-identical to the uncached subset
    /// evaluation ([`crate::MWorkerEstimator::evaluate_workers_on`],
    /// [`crate::KaryMWorkerEstimator::evaluate_workers_on`]).
    pub fn refresh(
        &mut self,
        estimator: &E,
        stream: &StreamingIndex,
        anchors: &[WorkerId],
        confidence: f64,
    ) -> Result<Report<E::Assessment>> {
        let misses = self.stats.misses;
        let report = Report::evaluate(stream.n_workers(), anchors.iter().copied(), |w| {
            self.assess(estimator, stream, w, confidence)
        })?;
        self.stats.last_dirty = (self.stats.misses - misses) as usize;
        Ok(report)
    }
}

impl<E: Estimator> Default for ReportCache<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        EstimateError, EstimatorConfig, KaryMWorkerEstimator, MWorkerEstimator, WorkerReport,
    };
    use crowd_data::{Response, ResponseMatrix};
    use crowd_sim::{BinaryScenario, KaryScenario, rng};

    fn assessments_equal(a: &WorkerReport, b: &WorkerReport) -> bool {
        a.assessments == b.assessments && a.failures == b.failures
    }

    /// Bit-level equality for either estimator's rows: `{:?}` prints
    /// every float in its shortest round-trip form, so distinct bit
    /// patterns print differently.
    fn same_bits<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    /// The uncached subset evaluation the cache must reproduce.
    fn uncached<E: Estimator>(
        est: &E,
        stream: &StreamingIndex,
        anchors: &[WorkerId],
        confidence: f64,
    ) -> Report<E::Assessment> {
        Report::evaluate(stream.n_workers(), anchors.iter().copied(), |w| {
            est.evaluate_streamed(stream, w, confidence)
        })
        .unwrap()
    }

    fn estimator<E: Estimator>() -> E {
        E::from_config(EstimatorConfig::default())
    }

    /// A fully streamed scenario for each estimator: binary responses
    /// for A2, ternary `KaryScenario` responses for the k-ary A3
    /// extension.
    fn binary_stream(m: usize, n: usize, seed: u64) -> StreamingIndex {
        StreamingIndex::from_matrix(
            BinaryScenario::paper_default(m, n, 0.9)
                .generate(&mut rng(seed))
                .responses(),
        )
    }

    fn kary_stream(m: usize, n: usize, seed: u64) -> StreamingIndex {
        StreamingIndex::from_matrix(
            KaryScenario::paper_default(3, n, 0.9)
                .with_workers(m)
                .generate(&mut rng(seed))
                .responses(),
        )
    }

    fn anchors_of(stream: &StreamingIndex) -> Vec<WorkerId> {
        stream.index().workers().collect()
    }

    fn ingest(s: &mut StreamingIndex, w: u32, t: u32, l: u16) {
        s.record_response(Response {
            worker: WorkerId(w),
            task: crowd_data::TaskId(t),
            label: crowd_data::Label(l),
        })
        .unwrap();
    }

    /// Cached refresh equals the uncached subset evaluation bit for
    /// bit at every prefix of a stream, with ingests interleaved
    /// between drains.
    #[test]
    fn cached_refresh_matches_full_recompute_at_every_drain() {
        let inst = BinaryScenario::paper_default(8, 90, 0.8).generate(&mut rng(811));
        let data = inst.responses();
        let est = MWorkerEstimator::new(EstimatorConfig::default());
        let mut stream = StreamingIndex::new(data.n_workers(), data.n_tasks(), 2);
        let anchors: Vec<WorkerId> = (0..data.n_workers() as u32).map(WorkerId).collect();
        let mut cache = ReportCache::new();
        for (i, r) in data.iter().enumerate() {
            stream.record_response(r).unwrap();
            if i % 37 == 0 || i + 1 == data.n_responses() {
                let cached = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
                let full = est.evaluate_workers_on(&stream, &anchors, 0.9).unwrap();
                assert!(
                    assessments_equal(&cached, &full),
                    "cached report diverged at response {i}"
                );
            }
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "steady drains must produce cache hits");
        assert!(stats.misses > 0);
        assert_eq!(stats.full_refreshes, 0);
    }

    /// A quiet stretch makes the next drain free: zero dirty rows,
    /// all hits.
    fn quiet_drains_are_all_hits_for<E: Estimator>(stream: StreamingIndex) {
        let est: E = estimator();
        let anchors = anchors_of(&stream);
        let mut cache = ReportCache::new();
        cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
        assert_eq!(cache.stats().last_dirty, anchors.len());
        cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.last_dirty, 0);
        assert_eq!(stats.hits, anchors.len() as u64);
    }

    #[test]
    fn quiet_drains_are_all_hits() {
        quiet_drains_are_all_hits_for::<MWorkerEstimator>(binary_stream(6, 60, 821));
        quiet_drains_are_all_hits_for::<KaryMWorkerEstimator>(kary_stream(6, 60, 822));
    }

    /// A sparse ingest burst dirties only the responder's
    /// co-occurrence neighbourhood — the next refresh re-evaluates
    /// exactly that set and the result still matches full recompute.
    fn sparse_burst_reevaluates_only_the_dirty_set_for<E: Estimator>(arity: u16) {
        // Two disjoint communities of 4 workers over disjoint tasks.
        let mut stream = StreamingIndex::new(8, 40, arity);
        let k = u32::from(arity);
        for t in 0..20u32 {
            for w in 0..4u32 {
                ingest(&mut stream, w, t, ((w + t) % k) as u16);
            }
        }
        for t in 20..40u32 {
            for w in 4..8u32 {
                if (w, t) == (6, 25) {
                    continue; // left for the post-drain burst below
                }
                ingest(&mut stream, w, t, ((w * t) % k) as u16);
            }
        }
        let est: E = estimator();
        let anchors: Vec<WorkerId> = (0..8u32).map(WorkerId).collect();
        let mut cache = ReportCache::new();
        cache.refresh(&est, &stream, &anchors, 0.9).unwrap();

        // One response from worker 6 dirties only community B.
        ingest(&mut stream, 6, 25, 1);
        let cached = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
        assert_eq!(
            cache.stats().last_dirty,
            4,
            "only the responder's community is dirty"
        );
        assert!(same_bits(&cached, &uncached(&est, &stream, &anchors, 0.9)));
    }

    #[test]
    fn sparse_burst_reevaluates_only_the_dirty_set() {
        sparse_burst_reevaluates_only_the_dirty_set_for::<MWorkerEstimator>(2);
        sparse_burst_reevaluates_only_the_dirty_set_for::<KaryMWorkerEstimator>(3);
    }

    /// Changing the confidence level invalidates wholesale — cached
    /// rows answer a different question and must not be served.
    fn confidence_change_forces_full_refresh_for<E: Estimator>(stream: StreamingIndex) {
        let est: E = estimator();
        let anchors = anchors_of(&stream);
        let mut cache = ReportCache::new();
        cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
        let at95 = cache.refresh(&est, &stream, &anchors, 0.95).unwrap();
        assert_eq!(cache.stats().full_refreshes, 1);
        assert_eq!(cache.stats().last_dirty, anchors.len());
        assert!(same_bits(&at95, &uncached(&est, &stream, &anchors, 0.95)));
    }

    #[test]
    fn confidence_change_forces_full_refresh() {
        confidence_change_forces_full_refresh_for::<MWorkerEstimator>(binary_stream(5, 50, 831));
        confidence_change_forces_full_refresh_for::<KaryMWorkerEstimator>(kary_stream(5, 80, 832));
    }

    /// Failure rows (e.g. NoUsableTriples) are cached and re-served
    /// like successes, and the population guard mirrors the uncached
    /// entry point.
    fn failures_cache_and_guards_mirror_uncached_path_for<E: Estimator>(arity: u16) {
        let mut stream = StreamingIndex::new(4, 8, arity);
        for t in 0..8u32 {
            ingest(&mut stream, t % 4, t, (t % u32::from(arity)) as u16);
        }
        let est: E = estimator();
        let anchors: Vec<WorkerId> = (0..4u32).map(WorkerId).collect();
        let mut cache = ReportCache::new();
        let first = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
        assert_eq!(first.failures.len(), 4);
        assert!(same_bits(&first, &uncached(&est, &stream, &anchors, 0.9)));
        let second = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
        assert_eq!(cache.stats().last_dirty, 0, "failures must cache too");
        assert!(same_bits(&first, &second));

        let tiny = StreamingIndex::new(2, 4, arity);
        assert_eq!(tiny.n_workers(), 2);
        assert!(matches!(
            ReportCache::new().refresh(&est, &tiny, &[WorkerId(0)], 0.9),
            Err(EstimateError::NotEnoughWorkers { got: 2, need: 3 })
        ));
    }

    #[test]
    fn failures_cache_and_guards_mirror_uncached_path() {
        failures_cache_and_guards_mirror_uncached_path_for::<MWorkerEstimator>(2);
        failures_cache_and_guards_mirror_uncached_path_for::<KaryMWorkerEstimator>(3);
    }

    /// Single-worker assess shares the same row store as refresh: an
    /// assess after a refresh hits, and returns the same bits as an
    /// uncached evaluation.
    fn assess_and_refresh_share_rows_for<E: Estimator>(stream: StreamingIndex) {
        let est: E = estimator();
        let anchors = anchors_of(&stream);
        let mut cache = ReportCache::new();
        cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
        let misses_before = cache.stats().misses;
        let a = cache.assess(&est, &stream, WorkerId(2), 0.9);
        assert_eq!(cache.stats().misses, misses_before, "assess must hit");
        let direct = est.evaluate_streamed(&stream, WorkerId(2), 0.9);
        assert!(same_bits(&a, &direct));
    }

    #[test]
    fn assess_and_refresh_share_rows() {
        assess_and_refresh_share_rows_for::<MWorkerEstimator>(binary_stream(5, 60, 841));
        assess_and_refresh_share_rows_for::<KaryMWorkerEstimator>(kary_stream(5, 80, 842));
    }

    /// The k-ary cache obeys the same contract.
    #[test]
    fn kary_cache_matches_full_recompute() {
        let inst = KaryScenario::paper_default(3, 80, 0.9)
            .with_workers(6)
            .generate(&mut rng(851));
        let data: &ResponseMatrix = inst.responses();
        let est = KaryMWorkerEstimator::new(EstimatorConfig::default());
        let mut stream = StreamingIndex::new(data.n_workers(), data.n_tasks(), 3);
        let anchors: Vec<WorkerId> = (0..data.n_workers() as u32).map(WorkerId).collect();
        let mut cache = ReportCache::new();
        for (i, r) in data.iter().enumerate() {
            stream.record_response(r).unwrap();
            if i % 53 == 0 || i + 1 == data.n_responses() {
                let cached = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
                let full = est.evaluate_workers_on(&stream, &anchors, 0.9).unwrap();
                assert_eq!(cached.assessments.len(), full.assessments.len());
                assert_eq!(cached.failures.len(), full.failures.len());
                for (c, f) in cached.assessments.iter().zip(&full.assessments) {
                    assert_eq!(c.worker, f.worker);
                    assert_eq!(c.triples_used, f.triples_used);
                    for (x, y) in c.intervals.iter().zip(&f.intervals) {
                        assert_eq!(x.center.to_bits(), y.center.to_bits(), "at response {i}");
                        assert_eq!(x.half_width.to_bits(), y.half_width.to_bits());
                    }
                }
            }
        }
        assert!(cache.stats().hits > 0);
    }
}
