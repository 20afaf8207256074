//! Pipelined assessment runtime: thread-per-shard ingest and
//! assessment over the streaming substrate.
//!
//! The estimators are fast as library calls; this crate is the
//! concurrent front that turns them into a *service*. One OS thread
//! per [`crowd_shard::ShardPlan`] shard owns that shard's
//! [`crowd_data::StreamingIndex`] (rows only for the shard's
//! closure) and drains a bounded MPSC queue of messages:
//!
//! ```text
//!                    ┌─ bounded queue ─ shard thread 0 ─ StreamingIndex₀
//!  ingest batch ──►  │
//!  (grouped by   ──► ├─ bounded queue ─ shard thread 1 ─ StreamingIndex₁
//!   closure_shards)  │
//!  assess/snapshot ► └─ bounded queue ─ shard thread 2 ─ StreamingIndex₂
//!                                │
//!                     replies / merged reports (merge_reports)
//! ```
//!
//! * **Routing** — a response from worker `w` is delivered to every
//!   shard in [`crowd_shard::ShardPlan::closure_shards`]`(w)`: each
//!   such shard's index holds `w`'s full row, so all of them must see
//!   the response for per-shard state to stay bit-identical to the
//!   unsharded substrate. Assessment requests route to the home shard
//!   ([`crowd_shard::ShardPlan::shard_of`]) alone.
//! * **Batching** — [`ServiceHandle::ingest_batch`] groups a batch
//!   by subscribing shard and hands each shard one contiguous
//!   [`Vec`], so queue traffic and wakeups are per *batch*, not per
//!   response.
//! * **Backpressure** — queues are bounded
//!   ([`ServiceConfig::queue_capacity`]); a full queue blocks the
//!   caller, sheds the batch with accounting, or fails the call with
//!   [`ServiceError::QueueFull`], per [`BackpressurePolicy`].
//! * **Ordering** — each shard processes its queue in FIFO order, so
//!   any assessment enqueued after an ingest observes it, and a
//!   [`ServiceHandle::drain`] barrier (or a snapshot, which rides
//!   the same queues) observes *all* prior ingests.
//! * **One path for both estimators** — each shard holds one lane per
//!   [`crowd_core::Estimator`] (binary A2 and k-ary A3): the estimator
//!   plus its epoch-versioned [`crowd_core::ReportCache`]. Every
//!   assessment request is one queue message whose job picks its lane,
//!   and every reply goes through that lane's cache — there is no
//!   uncached mode and no per-estimator message or snapshot body.
//! * **Bit-identity** — per-shard snapshot reports recombine through
//!   [`crowd_shard::merge_reports`]; at every drain point the merged
//!   report is bit-identical to a single-threaded
//!   [`crowd_core::IncrementalEvaluator`] /
//!   [`crowd_core::KaryIncrementalEvaluator`] fed the same responses,
//!   in any arrival order (`tests/pipeline_equivalence.rs`), and to
//!   its uncached evaluation (`tests/incremental_equivalence.rs`).
//!
//! # Per-request cost
//!
//! Every method below is a [`ServiceHandle`] method. "Cached" means
//! the worker's row is served from its lane's report cache unless an
//! ingest dirtied it since; only dirty rows pay the pipeline cost.
//!
//! | Request                    | Queue traffic        | Shard-side cost |
//! |----------------------------|----------------------|-----------------|
//! | `ingest_batch` (size `B`)  | ≤ shards msgs        | `O(log r + r_t)` per response (index insert + pair-table update + dirty stamp) |
//! | `assess_worker` (binary)   | 1 msg + 1 reply      | cached; view fill + pairing + triple pipeline (no rescan) |
//! | `assess_worker_kary`       | 1 msg + 1 reply      | cached; A3 pipelines + view fill + `n₅` popcounts |
//! | `assess_workers` (`W` ids) | `W` msgs + `W` replies | cached per worker, home shards evaluate concurrently |
//! | `snapshot` / `snapshot_kary` (and `_degraded`) | 1 msg + reply per shard | cached anchors-only refresh (`O(|dirty|)` evaluations), merged in canonical order |
//! | `drain`                    | 1 msg + reply per shard | none (FIFO barrier) |
//!
//! [`AssessmentService`] uniquely owns the fleet (drop = graceful
//! shutdown) and dereferences to its [`ServiceHandle`];
//! [`AssessmentService::handle`] yields cloneable handles — the
//! `Send + Sync` dispatch seam concurrent front-ends (such as
//! `crowd_wire`'s per-connection threads) share.
//! Failure reporting is typed end to end: a shard thread that panics
//! surfaces as [`ServiceError::ShardPanicked`] from `shutdown()` and
//! `stats()` (never fabricated zeroed counters), and no public method
//! can panic on malformed input, a dead shard, or a post-shutdown
//! call.
//!
//! Runtime health is observable, not vibes: per-shard queue-depth
//! high-water marks, a batch-size histogram, the streaming
//! substrate's view-build count and the stage timings are all named
//! samples of one scrape ([`ServiceHandle::metrics`], then
//! [`ServiceMetrics::samples`]), which `crowd_wire` carries by name
//! and [`ServiceMetrics::render_text`] prints as Prometheus text. The
//! typed [`ServiceHandle::stats`] view of the same counters stays for
//! in-process readers such as perfbench.

mod config;
mod error;
mod fault;
mod metrics;
mod runtime;
mod stats;

pub use config::{BackpressurePolicy, ServiceConfig};
pub use error::ServiceError;
pub use fault::{CrashPoint, FaultPlan};
pub use metrics::{ServiceMetrics, StageTimings};
pub use runtime::{AssessmentService, DegradedSnapshot, IngestReceipt, ServiceHandle, ShardOutage};
pub use stats::{BatchHistogram, ServiceStats, ShardStats};
