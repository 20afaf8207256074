//! Crowd data model for the `crowd-assess` workspace.
//!
//! The central type is [`ResponseMatrix`]: a sparse worker × task
//! matrix of k-ary labels. "Sparse" is essential — the paper's whole
//! point is handling **non-regular** data where not every worker
//! attempts every task. On top of it this crate provides exactly the
//! sufficient statistics the algorithms consume:
//!
//! * pairwise overlap counts `c_ij` and agreement rates `q̂_ij`
//!   ([`overlap`]),
//! * triple overlap counts `c_ijk` ([`overlap`]),
//! * the `(k+1)³` counts tensor of Algorithm A3 with its
//!   attempt-pattern groups ([`counts`]),
//! * gold-standard bookkeeping and empirical error rates / confusion
//!   matrices ([`gold`]),
//! * majority-vote aggregation ([`majority`]),
//! * a dependency-free CSV reader/writer ([`csv`]).

pub mod checkpoint;
pub mod counts;
pub mod csv;
pub mod gold;
pub mod gram;
pub mod ids;
pub mod index;
pub mod label;
pub mod majority;
pub mod matrix;
pub mod overlap;
pub mod pairmap;
pub mod streaming;

pub use checkpoint::{CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError};
pub use counts::{AttemptPattern, CountsTensor};
pub use gold::GoldStandard;
pub use gram::{PeerGram, PeerGramScratch, TriplePairGram};
pub use ids::{TaskId, WorkerId};
pub use index::{AnchoredOverlap, BitsetAnchored, OverlapIndex, OverlapSource};
pub use label::Label;
pub use majority::{MajorityOutcome, disagreement_rates, majority_vote};
pub use matrix::{Response, ResponseMatrix, ResponseMatrixBuilder};
pub use overlap::{
    PairStats, TripleStats, pair_stats, triple_joint_labels, triple_joint_labels_optional,
    triple_overlap,
};
pub use pairmap::PairMap;
#[doc(hidden)]
pub use streaming::PairBackend;
pub use streaming::StreamingIndex;

/// Errors produced by data-model operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A label's value is `>=` the declared arity.
    LabelOutOfRange {
        /// The offending label value.
        label: u16,
        /// The declared arity.
        arity: u16,
    },
    /// The same (worker, task) pair was given two responses.
    DuplicateResponse {
        /// Worker involved.
        worker: WorkerId,
        /// Task involved.
        task: TaskId,
    },
    /// A CSV record could not be parsed.
    Csv {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// An id referenced something that does not exist.
    UnknownId {
        /// What kind of id ("worker" / "task").
        kind: &'static str,
        /// The raw id value.
        id: u32,
    },
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LabelOutOfRange { label, arity } => {
                write!(f, "label {label} out of range for arity {arity}")
            }
            Self::DuplicateResponse { worker, task } => {
                write!(
                    f,
                    "duplicate response from worker {worker:?} on task {task:?}"
                )
            }
            Self::Csv { line, reason } => write!(f, "csv parse error on line {line}: {reason}"),
            Self::UnknownId { kind, id } => write!(f, "unknown {kind} id {id}"),
        }
    }
}

impl std::error::Error for DataError {}

/// Result alias for data-model operations.
pub type Result<T> = std::result::Result<T, DataError>;
