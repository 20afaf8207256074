//! Assessment reports, the [`Estimator`] seam the streaming layers are
//! written against once for both estimators, and interval-accuracy
//! evaluation.
//!
//! The paper scores its intervals by **interval accuracy**: over many
//! evaluations, the fraction of c-confidence intervals containing the
//! true value, which should track `c` (the diagonal of Figures 2a, 3,
//! 4, 5a, 5c). [`CoverageStats`] accumulates exactly that.

use crate::{EstimateError, EstimatorConfig, Result};
use crowd_data::{StreamingIndex, WorkerId};
use crowd_stats::ConfidenceInterval;

/// The outcome of evaluating one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerAssessment {
    /// The worker evaluated.
    pub worker: WorkerId,
    /// Confidence interval for the worker's error rate; its `center`
    /// is the point estimate.
    pub interval: ConfidenceInterval,
    /// How many triples contributed (1 for the 3-worker method).
    pub triples_used: usize,
    /// True if the Lemma 5 weight solver had to fall back (singular
    /// covariance → ridge → uniform).
    pub weights_fell_back: bool,
}

/// A per-worker assessment row that knows which worker it assesses —
/// what report merging sorts by.
pub trait WorkerRow: Clone + std::fmt::Debug + Send + 'static {
    /// The assessed worker.
    fn worker(&self) -> WorkerId;
}

impl WorkerRow for WorkerAssessment {
    fn worker(&self) -> WorkerId {
        self.worker
    }
}

/// An estimator that evaluates one worker at a time on a
/// [`StreamingIndex`]: the seam the report cache, the streaming
/// evaluator and the shard runtime are written against once, for the
/// binary ([`crate::MWorkerEstimator`]) and k-ary
/// ([`crate::KaryMWorkerEstimator`]) estimators alike.
pub trait Estimator {
    /// One worker's assessment.
    type Assessment: WorkerRow;

    /// An estimator with the given configuration.
    fn from_config(config: EstimatorConfig) -> Self;

    /// Evaluates `worker` on the data `stream` holds; bit-identical to
    /// the batch estimator's row on the same data.
    fn evaluate_streamed(
        &self,
        stream: &StreamingIndex,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<Self::Assessment>;
}

/// The outcome of evaluating a set of workers: assessments of type `A`
/// plus the workers that could not be evaluated.
#[derive(Debug, Clone)]
pub struct Report<A> {
    /// Successful assessments, in worker order.
    pub assessments: Vec<A>,
    /// Workers that could not be evaluated, with the reason.
    pub failures: Vec<(WorkerId, EstimateError)>,
}

/// Binary (Algorithm A2) per-worker outcomes.
pub type WorkerReport = Report<WorkerAssessment>;

impl<A> Default for Report<A> {
    fn default() -> Self {
        Self {
            assessments: Vec::new(),
            failures: Vec::new(),
        }
    }
}

impl<A> Report<A> {
    /// Files one worker's outcome: an assessment, or a failure with
    /// its reason.
    pub fn push(&mut self, worker: WorkerId, outcome: Result<A>) {
        match outcome {
            Ok(a) => self.assessments.push(a),
            Err(e) => self.failures.push((worker, e)),
        }
    }

    /// Evaluates `workers` in order with `eval` into one report
    /// (assessments and failures in `workers` order) — the body of
    /// every evaluate-a-set entry point. A population of fewer than 3
    /// workers (`n_workers`) is an error, not a report.
    pub(crate) fn evaluate(
        n_workers: usize,
        workers: impl IntoIterator<Item = WorkerId>,
        mut eval: impl FnMut(WorkerId) -> Result<A>,
    ) -> Result<Self> {
        if n_workers < 3 {
            return Err(EstimateError::NotEnoughWorkers {
                got: n_workers,
                need: 3,
            });
        }
        let mut report = Self::default();
        for worker in workers {
            report.push(worker, eval(worker));
        }
        Ok(report)
    }
}

impl<A: WorkerRow> Report<A> {
    /// Recombines partial reports — each covering a disjoint subset of
    /// the fleet — into one fleet report in canonical (worker-id)
    /// order: the merge hook of the sharded pipeline
    /// (`crowd_shard::merge_reports`).
    ///
    /// Each part's rows are kept verbatim (no recomputation, no
    /// rounding), only reordered, so when the parts were produced by
    /// the same estimator configuration over substrates that agree on
    /// every statistic, the merged report is **bit-identical** to a
    /// single-process `evaluate_all` — assessments in worker order,
    /// failures in worker order. The sort is stable, so duplicate
    /// coverage (a contract violation) degrades to deterministic
    /// output rather than nondeterminism.
    pub fn merge(parts: impl IntoIterator<Item = Self>) -> Self {
        let mut merged = Self::default();
        for part in parts {
            merged.assessments.extend(part.assessments);
            merged.failures.extend(part.failures);
        }
        merged.assessments.sort_by_key(A::worker);
        merged.failures.sort_by_key(|f| f.0);
        merged
    }
}

impl WorkerReport {
    /// Iterates `(worker, interval)` over successful assessments.
    pub fn iter(&self) -> impl Iterator<Item = (WorkerId, &ConfidenceInterval)> {
        self.assessments.iter().map(|a| (a.worker, &a.interval))
    }

    /// Looks up one worker's assessment.
    pub fn get(&self, worker: WorkerId) -> Option<&WorkerAssessment> {
        self.assessments.iter().find(|a| a.worker == worker)
    }

    /// Mean interval size over successful assessments (the y-axis of
    /// Figures 1, 2b, 2c).
    pub fn mean_interval_size(&self) -> f64 {
        if self.assessments.is_empty() {
            return 0.0;
        }
        self.assessments
            .iter()
            .map(|a| a.interval.size())
            .sum::<f64>()
            / self.assessments.len() as f64
    }

    /// Scores coverage against a truth oracle; workers whose truth is
    /// unknown (`None`) are skipped.
    pub fn coverage(&self, truth: impl Fn(WorkerId) -> Option<f64>) -> CoverageStats {
        let mut stats = CoverageStats::default();
        for a in &self.assessments {
            if let Some(t) = truth(a.worker) {
                stats.record(a.interval.contains(t));
            }
        }
        stats
    }
}

/// Running interval-accuracy tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageStats {
    /// Intervals containing the truth.
    pub covered: usize,
    /// Intervals scored.
    pub total: usize,
}

impl CoverageStats {
    /// Records one interval's verdict.
    pub fn record(&mut self, covered: bool) {
        self.total += 1;
        if covered {
            self.covered += 1;
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: CoverageStats) {
        self.covered += other.covered;
        self.total += other.total;
    }

    /// The interval accuracy (coverage fraction); `None` before any
    /// observation.
    pub fn accuracy(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.covered as f64 / self.total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assessment(worker: u32, lo: f64, hi: f64) -> WorkerAssessment {
        WorkerAssessment {
            worker: WorkerId(worker),
            interval: ConfidenceInterval::from_bounds(lo, hi, 0.9),
            triples_used: 1,
            weights_fell_back: false,
        }
    }

    #[test]
    fn report_queries() {
        let report = WorkerReport {
            assessments: vec![assessment(0, 0.1, 0.3), assessment(1, 0.0, 0.4)],
            failures: vec![],
        };
        assert_eq!(report.iter().count(), 2);
        assert!(report.get(WorkerId(1)).is_some());
        assert!(report.get(WorkerId(9)).is_none());
        assert!((report.mean_interval_size() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_report_mean_size_is_zero() {
        assert_eq!(WorkerReport::default().mean_interval_size(), 0.0);
    }

    #[test]
    fn coverage_scoring_skips_unknown_truth() {
        let report = WorkerReport {
            assessments: vec![assessment(0, 0.1, 0.3), assessment(1, 0.0, 0.1)],
            failures: vec![],
        };
        let stats = report.coverage(|w| if w == WorkerId(0) { Some(0.2) } else { None });
        assert_eq!(
            stats,
            CoverageStats {
                covered: 1,
                total: 1
            }
        );
        let stats = report.coverage(|_| Some(0.2));
        assert_eq!(
            stats,
            CoverageStats {
                covered: 1,
                total: 2
            }
        );
    }

    #[test]
    fn coverage_accumulates_and_merges() {
        let mut a = CoverageStats::default();
        assert_eq!(a.accuracy(), None);
        a.record(true);
        a.record(false);
        let mut b = CoverageStats::default();
        b.record(true);
        b.record(true);
        a.merge(b);
        assert_eq!(a.total, 4);
        assert_eq!(a.covered, 3);
        assert!((a.accuracy().unwrap() - 0.75).abs() < 1e-15);
    }
}
