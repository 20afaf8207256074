//! Sharded assessment: deterministic shard plans and **bit-identical**
//! report merging.
//!
//! The m-worker estimators are embarrassingly parallel per evaluated
//! worker, and peer-scoped views already made each evaluation's
//! working set `O(l)`. This crate partitions the *state* as well: a
//! [`ShardPlan`] assigns every worker to one shard as an anchor and
//! names the closure of workers whose rows that shard must hold, and
//! [`merge_reports`] recombines the per-shard reports of either
//! estimator into one fleet report. The served path (`crowd_service`)
//! runs one thread per shard, each owning a
//! [`crowd_data::StreamingIndex`] fed only its closure's responses:
//!
//! ```text
//!            ┌──────────────────────────────────────────────────┐
//!            │        ShardPlan::build / build_clustered        │
//!            │ anchors: one shard per worker (deterministic)    │
//!            │ closure: anchors ∪ pairing-reachable peers       │
//!            └──────┬───────────────┬───────────────┬───────────┘
//!   ingest          ▼               ▼               ▼
//!  (closure_  StreamingIndex₀ StreamingIndex₁ StreamingIndex₂
//!   shards)   rows(closure₀)  rows(closure₁)  rows(closure₂)
//!                   ▼               ▼               ▼
//!   evaluate  WorkerReport    WorkerReport    WorkerReport
//!   (anchors    (anchors₀)      (anchors₁)      (anchors₂)
//!    only)          └───────────────┼───────────────┘
//!                                   ▼
//!                             merge_reports
//!                    == evaluate_all, bit for bit
//! ```
//!
//! # Why the closure makes sharding exact
//!
//! Evaluating worker `w` touches statistics about `w` and the peers
//! its pairing can reach — and nothing else. Concretely, every
//! statistic of an evaluation of `w` involves only workers in
//! `{w} ∪ reachable_peers(w)` (the workers sharing ≥ 1 task with `w`;
//! see [`crowd_core::pairing::reachable_peers`]):
//!
//! * the candidate scan filters on `pair(w, ·) ≥ min_overlap ≥ 1`,
//! * the greedy partner checks and Lemma 4 / `n₅` cross terms pair up
//!   *selected* peers with each other,
//! * the per-triple estimates read `pair` among `{w, a, b}` and the
//!   anchored view over `w`'s tasks.
//!
//! A shard's index therefore holds the **full rows** of its closure
//! members inside the *global* id space — a response of worker `w` is
//! routed to every shard in [`ShardPlan::closure_shards`]`(w)` — so
//! pair statistics among closure members equal the full-fleet values
//! exactly, and everything downstream is the same arithmetic on the
//! same integers. Per-anchor outputs are bit-identical to the
//! unsharded path; the service's differential tests pin this for
//! contiguous and clustered plans, binary and k-ary, including empty
//! shards, silent workers and anchors whose peers all live in other
//! shards.
//!
//! # Why a shard is small
//!
//! The shard's pair state is a [`crowd_data::PairMap`], whose rows
//! hold co-occurring pairs only until a row's degree makes the
//! direct-indexed form cheaper (never an `O(m²)` table), and its
//! adjacency rows cover only the closure. On clustered fleets — the production shape: workers answer
//! task neighbourhoods, not the whole corpus — closure size tracks the
//! anchors' co-occurrence neighbourhood, so per-shard memory is
//! governed by the data's overlap structure and the shard count, not
//! by the fleet size.
//!
//! # Example
//!
//! ```
//! use crowd_core::{EstimatorConfig, MWorkerEstimator};
//! use crowd_data::StreamingIndex;
//! use crowd_shard::{ShardPlan, merge_reports};
//! use crowd_sim::BinaryScenario;
//!
//! let instance = BinaryScenario::paper_default(9, 120, 0.7)
//!     .generate(&mut crowd_sim::rng(11));
//! let data = instance.responses();
//! let estimator = MWorkerEstimator::new(EstimatorConfig::default());
//!
//! let plan = ShardPlan::build(data, 3);
//! let mut parts = Vec::new();
//! for spec in plan.shards() {
//!     // Each shard sees only its closure members' responses.
//!     let mut shard = StreamingIndex::new(data.n_workers(), data.n_tasks(), data.arity());
//!     for r in data.iter().filter(|r| spec.closure.binary_search(&r.worker).is_ok()) {
//!         shard.record_response(r)?;
//!     }
//!     parts.push(estimator.evaluate_workers_on(&shard, &spec.anchors, 0.9)?);
//! }
//! let merged = merge_reports(parts);
//! // Same rows a single-process evaluate_all produces.
//! let single = estimator.evaluate_all(data, 0.9)?;
//! assert_eq!(merged.assessments.len(), single.assessments.len());
//! for (a, b) in merged.assessments.iter().zip(&single.assessments) {
//!     assert_eq!(a.interval, b.interval);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod plan;

pub use plan::{ShardPlan, ShardSpec};

use crowd_core::{Report, WorkerRow};

/// Recombines per-shard reports of either estimator into one fleet
/// report in canonical worker order; rows are kept verbatim, so the
/// merged report is bit-identical to a single-process run (see
/// [`crowd_core::Report::merge`]). Shard order is irrelevant.
pub fn merge_reports<A: WorkerRow>(parts: impl IntoIterator<Item = Report<A>>) -> Report<A> {
    Report::merge(parts)
}

/// The k-ary spelling of [`merge_reports`].
pub use merge_reports as merge_kary_reports;

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::{EstimatorConfig, MWorkerEstimator, WorkerReport};
    use crowd_data::{
        Label, ResponseMatrix, ResponseMatrixBuilder, StreamingIndex, TaskId, WorkerId,
    };

    fn two_neighbourhoods() -> ResponseMatrix {
        let mut b = ResponseMatrixBuilder::new(6, 24, 2);
        for w in 0..3u32 {
            for t in 0..12u32 {
                b.push(WorkerId(w), TaskId(t), Label(((w + t) % 2) as u16))
                    .unwrap();
            }
        }
        for w in 3..6u32 {
            for t in 12..24u32 {
                b.push(WorkerId(w), TaskId(t), Label((w % 2) as u16))
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn merge_is_shard_order_invariant() {
        let data = two_neighbourhoods();
        let plan = ShardPlan::build(&data, 2);
        let index = StreamingIndex::from_matrix(&data);
        let est = MWorkerEstimator::new(EstimatorConfig::default());
        let parts: Vec<WorkerReport> = plan
            .shards()
            .iter()
            .map(|spec| est.evaluate_workers_on(&index, &spec.anchors, 0.9).unwrap())
            .collect();
        let forward = merge_reports(parts.clone());
        let backward = merge_reports(parts.into_iter().rev());
        assert_eq!(forward.assessments.len(), backward.assessments.len());
        for (f, b) in forward.assessments.iter().zip(&backward.assessments) {
            assert_eq!(f.worker, b.worker);
            assert_eq!(f.interval, b.interval);
        }
        let f_fail: Vec<WorkerId> = forward.failures.iter().map(|f| f.0).collect();
        let b_fail: Vec<WorkerId> = backward.failures.iter().map(|f| f.0).collect();
        assert_eq!(f_fail, b_fail);
    }
}
