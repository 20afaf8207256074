//! Incremental (streaming) worker evaluation on the indexed substrate.
//!
//! The paper's conclusion: "our methods work on the entire dataset in
//! a one-time fashion, but they can be easily modified to be
//! incremental, to keep efficiently updating worker error rates as
//! more tasks get done." This module is that modification — riding the
//! same [`StreamingIndex`] substrate the batch path bulk-loads, not a
//! private shadow copy of the data.
//!
//! [`StreamingEvaluator`] holds one long-lived [`StreamingIndex`] and
//! one [`Estimator`] — [`IncrementalEvaluator`] for binary tasks
//! (Algorithm A2), [`KaryIncrementalEvaluator`] for k-ary tasks (the
//! m-worker A3 extension). Ingesting a response costs
//!
//! * an `O(log r + r)` sorted insert into the index's worker and task
//!   adjacency rows (amortized over their geometric growth — see the
//!   amortization invariant in [`crowd_data::index`]),
//! * an `O(r_t)` pair-table update (only the pairs the response
//!   completes are touched),
//! * an `O(d_w)` dirty stamp,
//!
//! and nothing per anchored view: evaluating a worker builds its
//! peer-scoped view from the index when the evaluation asks
//! (`O(l_w + Σ_{p ∈ peers} l_p)`, into the substrate's one build
//! scratch — see [`crowd_data::streaming`]). Pairing reads the O(1)
//! pair table, the Lemma 4 / `n₅` cross-triple counts are popcounts on
//! that view, and a k-ary counts tensor is one scatter/gather pass
//! over the triple's adjacency rows. Nothing is rescanned and no index is rebuilt; with
//! [`StreamingEvaluator::evaluate_all_cached`] only dirty workers are
//! re-evaluated at all.
//!
//! # Equivalence guarantee
//!
//! Every statistic the estimators consume — pair counts, triple
//! counts, anchored popcounts, k-ary counts tensors — is
//! observation-equivalent between the streamed substrate and a fresh
//! batch build on the accumulated data, for *every* ingest order.
//! Evaluations are therefore **bit-identical** to the batch
//! [`MWorkerEstimator`] / [`KaryMWorkerEstimator`] at every stream
//! prefix; `tests/streaming_equivalence.rs` and the differential
//! property tests in `crates/data/tests/proptests.rs` enforce this.

use crate::cached::{CacheStats, ReportCache};
use crate::kary::KaryMWorkerEstimator;
use crate::{Estimator, EstimatorConfig, MWorkerEstimator, Report, Result};
use crowd_data::{OverlapIndex, OverlapSource, Response, ResponseMatrix, StreamingIndex, WorkerId};

/// Streaming evaluator maintaining the indexed substrate response by
/// response, for any [`Estimator`]; see the [module docs](self).
///
/// # Example
///
/// ```
/// use crowd_core::{EstimatorConfig, IncrementalEvaluator};
/// use crowd_sim::BinaryScenario;
///
/// let instance =
///     BinaryScenario::paper_default(5, 80, 0.9).generate(&mut crowd_sim::rng(8));
/// let mut monitor = IncrementalEvaluator::new(5, 80, 2, EstimatorConfig::default());
/// for response in instance.responses().iter() {
///     monitor.ingest(response)?;
/// }
/// // Identical to the batch estimator on the same data.
/// let report = monitor.evaluate_all(0.9).unwrap();
/// assert_eq!(report.assessments.len(), 5);
/// # Ok::<(), crowd_data::DataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingEvaluator<E: Estimator> {
    stream: StreamingIndex,
    estimator: E,
    /// Epoch-versioned per-anchor rows backing
    /// [`StreamingEvaluator::evaluate_all_cached`]; unused (zero cost)
    /// by the uncached entry points.
    cache: ReportCache<E>,
}

/// The binary (Algorithm A2) streaming evaluator.
pub type IncrementalEvaluator = StreamingEvaluator<MWorkerEstimator>;

/// The k-ary (m-worker A3 extension) streaming evaluator; outputs are
/// bit-identical to [`KaryMWorkerEstimator::evaluate_all`] on the
/// accumulated data.
///
/// # Example
///
/// ```
/// use crowd_core::{EstimatorConfig, KaryIncrementalEvaluator};
/// use crowd_sim::KaryScenario;
///
/// let instance = KaryScenario::paper_default(3, 200, 0.9)
///     .with_workers(5)
///     .generate(&mut crowd_sim::rng(7));
/// let mut monitor = KaryIncrementalEvaluator::new(5, 200, 3, EstimatorConfig::default());
/// for response in instance.responses().iter() {
///     monitor.ingest(response)?;
/// }
/// let report = monitor.evaluate_all(0.9).unwrap();
/// assert_eq!(report.assessments.len() + report.failures.len(), 5);
/// # Ok::<(), crowd_data::DataError>(())
/// ```
pub type KaryIncrementalEvaluator = StreamingEvaluator<KaryMWorkerEstimator>;

impl<E: Estimator> StreamingEvaluator<E> {
    /// Creates an empty evaluator for `n_workers × n_tasks` responses
    /// of the given arity.
    pub fn new(n_workers: usize, n_tasks: usize, arity: u16, config: EstimatorConfig) -> Self {
        Self::over(StreamingIndex::new(n_workers, n_tasks, arity), config)
    }

    /// Seeds the evaluator from an existing response matrix (one bulk
    /// load), after which further responses stream in.
    pub fn from_matrix(data: &ResponseMatrix, config: EstimatorConfig) -> Self {
        Self::over(StreamingIndex::from_matrix(data), config)
    }

    fn over(stream: StreamingIndex, config: EstimatorConfig) -> Self {
        Self {
            stream,
            estimator: E::from_config(config),
            cache: ReportCache::new(),
        }
    }

    /// Ingests one response, updating the index's adjacency rows, the
    /// pair table and the dirty epochs. Rejects
    /// duplicates, out-of-range ids and out-of-arity labels via
    /// [`crowd_data::DataError`].
    pub fn ingest(&mut self, response: Response) -> crowd_data::Result<()> {
        self.stream.record_response(response)
    }

    /// The overlap index (pair table included).
    pub fn index(&self) -> &OverlapIndex {
        self.stream.index()
    }

    /// Total responses ingested.
    pub fn n_responses(&self) -> usize {
        self.stream.n_responses()
    }

    /// Bytes resident in the substrate's view build scratch: the
    /// largest anchored view built so far, never a sum over workers
    /// (see [`crowd_data::StreamingIndex::view_mask_bytes`]).
    pub fn view_mask_bytes(&self) -> usize {
        self.stream.view_mask_bytes()
    }

    /// Evaluates one worker on the data seen so far; bit-identical to
    /// the batch estimator on the accumulated data.
    pub fn evaluate_worker(&self, worker: WorkerId, confidence: f64) -> Result<E::Assessment> {
        self.estimator
            .evaluate_streamed(&self.stream, worker, confidence)
    }

    /// Evaluates every worker on the data seen so far.
    pub fn evaluate_all(&self, confidence: f64) -> Result<Report<E::Assessment>> {
        Report::evaluate(self.stream.n_workers(), self.index().workers(), |w| {
            self.evaluate_worker(w, confidence)
        })
    }

    /// [`StreamingEvaluator::evaluate_all`] through the
    /// epoch-versioned report cache: only workers whose assessment
    /// inputs changed since their cached rows are re-evaluated, the
    /// rest are cloned — bit-identical output, `O(|dirty|)`
    /// evaluations per call (see [`crate::cached`]).
    pub fn evaluate_all_cached(&mut self, confidence: f64) -> Result<Report<E::Assessment>> {
        let workers: Vec<WorkerId> = self.stream.index().workers().collect();
        self.cache
            .refresh(&self.estimator, &self.stream, &workers, confidence)
    }

    /// Hit/miss counters of the report cache behind
    /// [`StreamingEvaluator::evaluate_all_cached`].
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_data::{Label, TaskId};
    use crowd_sim::{BinaryScenario, rng};

    fn streamed(inst: &crowd_sim::BinaryInstance) -> IncrementalEvaluator {
        let data = inst.responses();
        let mut ev = IncrementalEvaluator::new(
            data.n_workers(),
            data.n_tasks(),
            data.arity(),
            EstimatorConfig::default(),
        );
        for r in data.iter() {
            ev.ingest(r).unwrap();
        }
        ev
    }

    #[test]
    fn intervals_tighten_as_evidence_accumulates() {
        // Stream task by task; the target worker's interval must
        // shrink (weakly) as more tasks arrive.
        let inst = BinaryScenario::paper_default(5, 400, 1.0).generate(&mut rng(407));
        let data = inst.responses();
        let mut sizes = Vec::new();
        let mut ev = IncrementalEvaluator::new(5, 400, 2, EstimatorConfig::default());
        for t in data.tasks() {
            for &(w, label) in data.task_responses(t) {
                ev.ingest(Response {
                    worker: WorkerId(w),
                    task: t,
                    label,
                })
                .unwrap();
            }
            if (t.0 + 1) % 100 == 0
                && let Ok(a) = ev.evaluate_worker(WorkerId(0), 0.9)
            {
                sizes.push(a.interval.size());
            }
        }
        assert!(sizes.len() >= 3, "checkpoints missing: {sizes:?}");
        assert!(
            sizes.last().unwrap() < sizes.first().unwrap(),
            "intervals should tighten with evidence: {sizes:?}"
        );
    }

    #[test]
    fn duplicate_ingest_leaves_state_intact() {
        let inst = BinaryScenario::paper_default(4, 30, 1.0).generate(&mut rng(409));
        let mut ev = streamed(&inst);
        let index_before = ev.index().clone();
        let some = inst.responses().iter().next().unwrap();
        assert!(ev.ingest(some).is_err());
        assert_eq!(ev.index(), &index_before);
        assert_eq!(ev.n_responses(), inst.responses().n_responses());
    }

    #[test]
    fn too_few_workers_rejected() {
        let ev = IncrementalEvaluator::new(2, 5, 2, EstimatorConfig::default());
        assert!(matches!(
            ev.evaluate_all(0.9),
            Err(crate::EstimateError::NotEnoughWorkers { got: 2, need: 3 })
        ));
        let kev = KaryIncrementalEvaluator::new(2, 5, 3, EstimatorConfig::default());
        assert!(matches!(
            kev.evaluate_all(0.9),
            Err(crate::EstimateError::NotEnoughWorkers { got: 2, need: 3 })
        ));
    }

    #[test]
    fn single_responder_tasks_fail_gracefully_not_fatally() {
        // Every task has exactly one responder: no pair ever overlaps,
        // so every worker fails with NoUsableTriples — an error report,
        // not a panic.
        let mut ev = IncrementalEvaluator::new(4, 8, 2, EstimatorConfig::default());
        for t in 0..8u32 {
            ev.ingest(Response {
                worker: WorkerId(t % 4),
                task: TaskId(t),
                label: Label((t % 2) as u16),
            })
            .unwrap();
        }
        let report = ev.evaluate_all(0.9).unwrap();
        assert!(report.assessments.is_empty());
        assert_eq!(report.failures.len(), 4);
        for (_, e) in &report.failures {
            assert!(matches!(e, crate::EstimateError::NoUsableTriples { .. }));
        }
    }

    #[test]
    fn ingest_error_taxonomy() {
        use crowd_data::DataError;
        let mut ev = IncrementalEvaluator::new(3, 4, 2, EstimatorConfig::default());
        let ok = Response {
            worker: WorkerId(1),
            task: TaskId(2),
            label: Label(1),
        };
        ev.ingest(ok).unwrap();
        assert!(matches!(
            ev.ingest(ok),
            Err(DataError::DuplicateResponse { .. })
        ));
        assert!(matches!(
            ev.ingest(Response {
                worker: WorkerId(3),
                task: TaskId(0),
                label: Label(0)
            }),
            Err(DataError::UnknownId { kind: "worker", .. })
        ));
        assert!(matches!(
            ev.ingest(Response {
                worker: WorkerId(0),
                task: TaskId(4),
                label: Label(0)
            }),
            Err(DataError::UnknownId { kind: "task", .. })
        ));
        // A degenerate label beyond the declared arity is rejected, not
        // silently folded into an existing class.
        assert!(matches!(
            ev.ingest(Response {
                worker: WorkerId(0),
                task: TaskId(0),
                label: Label(2)
            }),
            Err(DataError::LabelOutOfRange { label: 2, arity: 2 })
        ));
        assert_eq!(ev.n_responses(), 1);
    }
}
