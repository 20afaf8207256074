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
