//! The crowd-assessment algorithms of Joglekar, Garcia-Molina and
//! Parameswaran, *"Comprehensive and Reliable Crowd Assessment
//! Algorithms"* (ICDE 2015) — confidence intervals for worker error
//! rates **without gold-standard tasks**.
//!
//! # The estimators
//!
//! | Paper | Type | Setting |
//! |---|---|---|
//! | Algorithm A1/§III-B | [`ThreeWorkerEstimator`] | 3 workers, binary tasks, regular or non-regular |
//! | Algorithm A2 | [`MWorkerEstimator`] | m ≥ 3 workers, binary, non-regular |
//! | Algorithm A3 | [`KaryEstimator`] | 3 workers, k-ary tasks, response-probability matrices |
//!
//! All three share one statistical engine: estimate agreement
//! statistics, invert them to ability estimates, and push the sampling
//! covariance of the statistics through the inversion with the delta
//! method ([`crowd_stats::delta_interval`], the paper's Theorem 1).
//!
//! # One entry per estimator, on any substrate
//!
//! Every statistic an estimator reads comes from a
//! [`crowd_data::OverlapSource`]: merge scans over a
//! [`crowd_data::ResponseMatrix`] (the naive reference) or a
//! [`crowd_data::StreamingIndex`], the one production substrate that
//! batch evaluation bulk-loads and the served path streams into. The
//! substrate changes only the cost,
//! never an output bit, so each estimator is written once against the
//! trait. [`MWorkerEstimator`] and [`KaryMWorkerEstimator`] each keep
//! one private evaluation body behind three entry points:
//! `evaluate_worker(src, ..)`, `evaluate_workers_on(src, ..)` (one
//! scratch reused across the worker list) and `evaluate_all(&matrix, ..)`
//! (one bulk load, then `evaluate_workers_on`). The
//! [`Estimator::evaluate_streamed`] seam the report cache and the shard
//! runtime use is a call into the same body.
//! [`KaryEstimator::evaluate`] and [`ThreeWorkerEstimator::triple_estimate`]
//! are substrate-generic the same way.
//!
//! # Baselines
//!
//! [`baselines`] re-implements every comparator the evaluation needs:
//! the conservative super-worker technique of the authors' earlier
//! KDD'13 paper (`old_technique`), Dawid-Skene EM (point estimates,
//! related work), majority voting, and the classical gold-standard
//! intervals.
//!
//! # Preprocessing
//!
//! [`preprocess::prune_spammers`] implements the §III-E cleanup that
//! repairs interval accuracy on real data (Figure 4): workers whose
//! majority-disagreement rate exceeds 0.4 are removed before
//! estimation.

pub mod aggregation;
pub mod agreement;
pub mod baselines;
pub mod cached;
pub mod config;
pub mod error;
pub mod evaluation;
pub mod incremental;
pub mod kary;
pub mod m_worker;
pub mod pairing;
mod parallel;
pub mod policy;
pub mod preprocess;
pub mod three_worker;

pub use aggregation::{AggregatedAnswer, AnswerAggregator, MapAggregator, WeightingRule};
pub use cached::{CacheStats, ReportCache};
pub use config::{DegeneracyPolicy, EstimatorConfig};
pub use error::{EstimateError, Result};
pub use evaluation::{CoverageStats, Estimator, Report, WorkerAssessment, WorkerReport, WorkerRow};
pub use incremental::{IncrementalEvaluator, KaryIncrementalEvaluator, StreamingEvaluator};
pub use kary::{
    KaryAssessment, KaryEstimator, KaryMWorkerEstimator, KaryWorkerAssessment, KaryWorkerReport,
    ProbEstimate,
};
pub use m_worker::MWorkerEstimator;
pub use parallel::parallel_index_map;
pub use policy::{Decision, DecisionRule, PolicyScore, RetentionPolicy};
pub use three_worker::{ThreeWorkerEstimator, TripleEstimate};
