//! Simulated stand-ins for the paper's real crowdsourcing datasets.
//!
//! The evaluation sections test the estimators on six Mechanical-Turk
//! datasets that are not redistributable: **IC** (image comparison,
//! from the authors' KDD'13 paper), **ENT/RTE** and **TEM** (Snow et
//! al., EMNLP 2008), **MOOC** (peer grading), **WSD** (word sense) and
//! **WS** (word similarity). Following the reproduction rules
//! (DESIGN.md §4), this crate generates synthetic datasets that match
//! each original's published *shape* — worker/task counts, sparsity
//! pattern, arity (after the paper's arity-reduction mappings) — and
//! deliberately violate the estimators' assumptions the way real
//! crowds do:
//!
//! * per-task difficulty shifts correlate worker errors,
//! * a fraction of near-spammers (error rate ≈ 1/2) is present,
//! * k-ary workers have biased, non-symmetric confusion matrices.
//!
//! "Truth" is defined exactly as in the paper: the empirical error
//! fraction of each worker against gold labels, via
//! [`crowd_data::GoldStandard`].

mod assemble;
mod block;
mod dataset;
pub mod ent;
pub mod ic;
pub mod mooc;
pub mod tem;
pub mod ws;
pub mod wsd;

pub use block::BlockDesign;
pub use dataset::{Dataset, triples_with_overlap};
