//! Shard-plan and substrate checks that need no running service: the
//! planner's closures equal the pairing oracle, and the sparse pair
//! backend the shards run on reproduces the dense default bit for bit.
//! The closure-exactness cases of the sharded pipeline itself (empty
//! shards, silent workers, cross-shard peers, clustered plans) run on
//! the served path in `crates/service/tests/pipeline_equivalence.rs`.

use crowd_core::pairing::reachable_peers;
use crowd_core::{EstimatorConfig, MWorkerEstimator, WorkerReport};
use crowd_data::{OverlapIndex, PairBackend, WorkerId};
use crowd_shard::ShardPlan;
use crowd_sim::{BinaryScenario, rng};

/// Bit-exact binary-report comparison.
fn assert_reports_identical(sharded: &WorkerReport, unsharded: &WorkerReport, label: &str) {
    assert_eq!(
        sharded.assessments.len(),
        unsharded.assessments.len(),
        "{label}: assessment count"
    );
    for (s, u) in sharded.assessments.iter().zip(&unsharded.assessments) {
        assert_eq!(s.worker, u.worker, "{label}");
        assert_eq!(
            s.interval.center.to_bits(),
            u.interval.center.to_bits(),
            "{label}: center of {:?}",
            s.worker
        );
        assert_eq!(
            s.interval.half_width.to_bits(),
            u.interval.half_width.to_bits(),
            "{label}: width of {:?}",
            s.worker
        );
        assert_eq!(s.triples_used, u.triples_used, "{label}: {:?}", s.worker);
        assert_eq!(s.weights_fell_back, u.weights_fell_back, "{label}");
    }
    let s_fail: Vec<WorkerId> = sharded.failures.iter().map(|f| f.0).collect();
    let u_fail: Vec<WorkerId> = unsharded.failures.iter().map(|f| f.0).collect();
    assert_eq!(s_fail, u_fail, "{label}: failure rows");
}

#[test]
fn sparse_backed_full_index_is_bit_identical_to_dense() {
    // The opt-in sparse backend on an *unscoped* index: same report,
    // pairing candidates served by the co-occurrence fast path.
    let inst = BinaryScenario::paper_default(9, 120, 0.6).generate(&mut rng(613));
    let data = inst.responses();
    let est = MWorkerEstimator::new(EstimatorConfig::default());
    let workers: Vec<_> = data.workers().collect();
    let dense = est
        .evaluate_workers_on(&OverlapIndex::from_matrix(data), &workers, 0.9)
        .unwrap();
    let sparse = est
        .evaluate_workers_on(
            &OverlapIndex::from_matrix_with(data, PairBackend::Sparse),
            &workers,
            0.9,
        )
        .unwrap();
    assert_reports_identical(&sparse, &dense, "sparse backend");
}

#[test]
fn plan_closure_covers_reachable_peers() {
    // The planner's task-harvest closure must be exactly the pairing
    // oracle: anchors ∪ reachable_peers(anchor) over the full index.
    let inst = BinaryScenario::paper_default(10, 80, 0.4).generate(&mut rng(619));
    let data = inst.responses();
    let index = OverlapIndex::from_matrix(data);
    for n_shards in [2usize, 3, 5] {
        let plan = ShardPlan::build(data, n_shards);
        for spec in plan.shards() {
            let mut expected: Vec<WorkerId> = spec.anchor_ids().collect();
            for anchor in spec.anchor_ids() {
                expected.extend(reachable_peers(&index, anchor));
            }
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(spec.closure, expected, "{n_shards} shards");
        }
    }
}
