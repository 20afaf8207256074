//! Service construction parameters.

use std::sync::Arc;
use std::time::Duration;

use crowd_core::EstimatorConfig;

use crate::fault::FaultPlan;

/// What [`crate::ServiceHandle::ingest_batch`] does when a shard's
/// bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the caller until the shard drains a slot — lossless,
    /// latency absorbed by the producer. The default.
    #[default]
    Block,
    /// Drop the shard-bound group and keep going — lossy but
    /// non-blocking; every shed batch/response is accounted in the
    /// returned [`crate::IngestReceipt`] and in
    /// [`crate::ServiceStats`].
    Shed,
    /// Fail the call with [`crate::ServiceError::QueueFull`], leaving
    /// retry policy to the caller. Groups already enqueued stay
    /// enqueued; the error reports how many responses were not.
    Reject,
}

/// Tuning knobs for [`crate::AssessmentService::spawn`]. None of them
/// changes a report: every assessment request is answered through the
/// shard's epoch-versioned report cache (`crowd_core::cached`), which
/// is bit-identical to full recomputation, so there is no uncached
/// mode to select.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bounded capacity of each shard's message queue, in messages
    /// (an ingest batch is one message). Must be ≥ 1.
    pub queue_capacity: usize,
    /// Full-queue behaviour for ingest; assessment and control
    /// messages always block (they are few and carry replies).
    pub policy: BackpressurePolicy,
    /// Estimator configuration used by every shard.
    pub estimator: EstimatorConfig,
    /// Whether the fleet records stage timings (queue-wait,
    /// batch-apply, drain-eval histograms) and flight-recorder events
    /// (see [`crate::ServiceMetrics`]). Instrumentation never touches
    /// evaluation — reports are bit-identical either way — and costs
    /// a few relaxed atomics per message; on by default. Off leaves
    /// the stage histograms empty and the journal silent.
    pub metrics: bool,
    /// An instrumented operation (batch apply, drain evaluation)
    /// taking at least this long is journaled as a
    /// [`crowd_obs::EventKind::SlowOp`] event. Default 100 ms.
    pub slow_op_threshold: Duration,
    /// Flight-recorder capacity, in events (rounded up to a power of
    /// two, minimum 8). Default 256.
    pub journal_capacity: usize,
    /// Shard compaction cadence, in ingest batches. A shard logs
    /// every ingest batch in its write-ahead log and compacts the log
    /// — serializes its substrate
    /// ([`crowd_data::StreamingIndex::checkpoint`]) as the new base
    /// and empties the log — once the log holds at least N batches
    /// *and* at least as many responses as the current base, so total
    /// encode work stays linear in the responses ingested at any batch
    /// size. A crashed shard restores the base and replays the log:
    /// fewer than N batches, or fewer responses than the base holds.
    /// `0` disables checkpointing **and** crash recovery entirely — a
    /// shard panic then poisons the fleet, the pre-supervision
    /// behaviour. Default 64.
    pub checkpoint_interval: usize,
    /// How many times a shard may be respawned from its checkpoint
    /// before the supervisor gives up and lets the panic poison the
    /// fleet (a deterministic crash would otherwise loop forever).
    /// Default 8.
    pub max_recoveries: u64,
    /// Deterministic fault injection for tests and benches
    /// ([`FaultPlan`]); `None` (the default) injects nothing and costs
    /// nothing on the ingest path.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            estimator: EstimatorConfig::default(),
            metrics: true,
            slow_op_threshold: Duration::from_millis(100),
            journal_capacity: 256,
            checkpoint_interval: 64,
            max_recoveries: 8,
            fault: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the per-shard queue capacity (clamped to ≥ 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the full-queue policy.
    pub fn with_policy(mut self, policy: BackpressurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the estimator configuration.
    pub fn with_estimator(mut self, estimator: EstimatorConfig) -> Self {
        self.estimator = estimator;
        self
    }

    /// Enables or disables stage timing and the event journal.
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets the slow-operation journaling threshold.
    pub fn with_slow_op_threshold(mut self, threshold: Duration) -> Self {
        self.slow_op_threshold = threshold;
        self
    }

    /// Sets the flight-recorder capacity, in events.
    pub fn with_journal_capacity(mut self, capacity: usize) -> Self {
        self.journal_capacity = capacity;
        self
    }

    /// Sets the shard compaction cadence in ingest batches (`0`
    /// disables checkpointing and crash recovery); see
    /// [`ServiceConfig::checkpoint_interval`].
    pub fn with_checkpoint_interval(mut self, interval: usize) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the per-shard recovery budget.
    pub fn with_max_recoveries(mut self, max: u64) -> Self {
        self.max_recoveries = max;
        self
    }

    /// Installs a deterministic fault-injection plan.
    pub fn with_fault(mut self, fault: Arc<FaultPlan>) -> Self {
        self.fault = Some(fault);
        self
    }
}
