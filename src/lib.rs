//! # crowd-assess
//!
//! A from-scratch Rust reproduction of **"Comprehensive and Reliable
//! Crowd Assessment Algorithms"** (Joglekar, Garcia-Molina,
//! Parameswaran; ICDE 2015): confidence intervals for crowd-worker
//! error rates *without* gold-standard tasks, under non-regular
//! (sparse) assignments, k-ary tasks and per-worker response biases.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`linalg`] — dense matrix substrate (the LU inverse and Jacobi
//!   symmetric eigendecomposition),
//! * [`stats`] — normal distribution, delta method (the paper's
//!   Theorem 1), minimum-variance weights (Lemma 5),
//! * [`data`] — sparse response matrices, overlap statistics, counts
//!   tensors, gold standards,
//! * [`sim`] — synthetic crowd scenario generation,
//! * [`datasets`] — simulated stand-ins for the paper's six real
//!   datasets,
//! * [`core`] — the three estimators (A1, A2, A3) plus baselines,
//! * [`shard`] — sharded assessment: shard plans, scoped sparse shard
//!   indices, bit-identical report merging,
//! * [`service`] — the thread-per-shard assessment runtime: batched
//!   ingest, bounded queues with backpressure, bit-identical fleet
//!   snapshots,
//! * [`obs`] — dependency-free observability: wait-free log₂ latency
//!   histograms, named metric samples with a Prometheus-style text
//!   exposition, and a lock-free flight-recorder event journal,
//! * [`wire`] — the length-prefixed binary TCP protocol, blocking
//!   server and client that put the runtime behind a socket with
//!   bit-identical reports and the full error taxonomy on the wire.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```
//! use crowd_assess::prelude::*;
//!
//! // Simulate 7 workers answering 100 binary tasks at density 0.8.
//! let mut rng = crowd_assess::sim::rng(42);
//! let scenario = BinaryScenario::paper_default(7, 100, 0.8);
//! let instance = scenario.generate(&mut rng);
//!
//! // Confidence intervals for every worker's error rate, no gold needed.
//! let estimator = MWorkerEstimator::new(EstimatorConfig::default());
//! let report = estimator.evaluate_all(instance.responses(), 0.9).unwrap();
//! for (worker, interval) in report.iter() {
//!     let p = instance.true_error_rate(worker);
//!     println!("{worker}: {interval} (true error rate {p:.2})");
//! }
//! ```

pub use crowd_core as core;
pub use crowd_data as data;
pub use crowd_datasets as datasets;
pub use crowd_linalg as linalg;
pub use crowd_obs as obs;
pub use crowd_service as service;
pub use crowd_shard as shard;
pub use crowd_sim as sim;
pub use crowd_stats as stats;
pub use crowd_wire as wire;

/// Convenience re-exports covering the common workflow: simulate (or
/// load) responses, estimate intervals, evaluate coverage, act on the
/// results.
pub mod prelude {
    pub use crowd_core::{
        AnswerAggregator, EstimateError, EstimatorConfig, IncrementalEvaluator, KaryEstimator,
        KaryIncrementalEvaluator, MWorkerEstimator, RetentionPolicy, ThreeWorkerEstimator,
        WeightingRule, WorkerReport,
    };
    pub use crowd_data::{
        GoldStandard, Label, ResponseMatrix, ResponseMatrixBuilder, TaskId, WorkerId,
    };
    pub use crowd_obs::{EventJournal, EventKind, LatencyHistogram};
    pub use crowd_service::{
        AssessmentService, BackpressurePolicy, ServiceConfig, ServiceError, ServiceHandle,
        ServiceMetrics,
    };
    pub use crowd_shard::ShardPlan;
    pub use crowd_sim::{ArrivalCursor, ArrivalSchedule, BinaryScenario, KaryScenario};
    pub use crowd_stats::ConfidenceInterval;
    pub use crowd_wire::{WireClient, WireConfig, WireServer};
}
