//! The service-level error taxonomy.
//!
//! Everything a caller can see folds the workspace's existing error
//! types in rather than inventing parallel ones: data validation
//! failures surface as [`crowd_data::DataError`] and estimation
//! failures as [`crowd_core::EstimateError`], with only the
//! runtime-specific conditions (full queues, shutdown, lost shards)
//! added on top.

use crowd_core::EstimateError;
use crowd_data::DataError;

/// Why a service call failed; see the `error` module docs.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A shard's bounded queue was full under
    /// [`crate::BackpressurePolicy::Reject`]. Earlier shard groups of
    /// the same batch may already be enqueued; `dropped` counts the
    /// per-shard deliveries that were not.
    QueueFull {
        /// The shard whose queue was full.
        shard: usize,
        /// Per-shard response deliveries not enqueued.
        dropped: usize,
    },
    /// The service has been shut down; no further ingest or
    /// assessment is possible.
    ShuttingDown,
    /// A shard thread is gone (its queue disconnected) — the runtime
    /// invariant is that this only happens after a panic in shard
    /// code, never as part of normal shutdown.
    ShardUnavailable {
        /// The unreachable shard.
        shard: usize,
    },
    /// A shard thread panicked; discovered when its thread is joined
    /// at shutdown. Its counters are unrecoverable, so
    /// [`crate::ServiceHandle::stats`] and
    /// [`crate::ServiceHandle::shutdown`] report the dead shard
    /// instead of fabricating zeroed stats for it.
    ShardPanicked {
        /// The shard whose thread died.
        shard: usize,
    },
    /// The wire protocol layer rejected a frame (truncated, oversized,
    /// unknown opcode, malformed payload) or an unexpected reply. The
    /// message carries the decoder's diagnosis.
    Wire(String),
    /// A transport (socket) error between a wire client and server;
    /// the message carries the underlying `std::io::Error` rendering.
    Io(String),
    /// Request validation failed before routing (unknown worker id,
    /// …).
    Data(DataError),
    /// The estimator itself failed (not enough workers, no usable
    /// triples, …) — the same taxonomy the library calls return.
    Estimate(EstimateError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { shard, dropped } => {
                write!(f, "shard {shard} queue full; {dropped} deliveries dropped")
            }
            Self::ShuttingDown => write!(f, "assessment service is shutting down"),
            Self::ShardUnavailable { shard } => {
                write!(f, "shard {shard} is unavailable")
            }
            Self::ShardPanicked { shard } => {
                write!(
                    f,
                    "shard {shard}'s thread panicked; its final stats are lost"
                )
            }
            Self::Wire(msg) => write!(f, "wire protocol error: {msg}"),
            Self::Io(msg) => write!(f, "transport error: {msg}"),
            Self::Data(e) => write!(f, "invalid request: {e}"),
            Self::Estimate(e) => write!(f, "estimation failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Data(e) => Some(e),
            Self::Estimate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for ServiceError {
    fn from(e: DataError) -> Self {
        Self::Data(e)
    }
}

impl From<EstimateError> for ServiceError {
    fn from(e: EstimateError) -> Self {
        Self::Estimate(e)
    }
}
