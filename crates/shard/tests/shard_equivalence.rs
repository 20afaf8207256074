//! Shard-plan and substrate checks that need no running service: the
//! planner's closures equal the pairing oracle, and the index's
//! co-occurrence-listed pairing reproduces the matrix's population
//! sweep bit for bit.
//! The closure-exactness cases of the sharded pipeline itself (empty
//! shards, silent workers, cross-shard peers, clustered plans) run on
//! the served path in `crates/service/tests/pipeline_equivalence.rs`.

use crowd_core::pairing::reachable_peers;
use crowd_core::{EstimatorConfig, MWorkerEstimator, WorkerReport};
use crowd_data::{StreamingIndex, WorkerId};
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
fn full_index_is_bit_identical_to_matrix_scan() {
    // An *unscoped* index: pairing candidates come from the pair
    // table's co-occurrence lists, where the matrix sweeps the
    // population. Same report either way.
    let inst = BinaryScenario::paper_default(9, 120, 0.6).generate(&mut rng(613));
    let data = inst.responses();
    let est = MWorkerEstimator::new(EstimatorConfig::default());
    let workers: Vec<_> = data.workers().collect();
    let scanned = est.evaluate_workers_on(data, &workers, 0.9).unwrap();
    let indexed = est
        .evaluate_workers_on(&StreamingIndex::from_matrix(data), &workers, 0.9)
        .unwrap();
    assert_reports_identical(&indexed, &scanned, "indexed pairing");
}

#[test]
fn plan_closure_covers_reachable_peers() {
    // The planner's task-harvest closure must be exactly the pairing
    // oracle: anchors ∪ reachable_peers(anchor) over the full index.
    let inst = BinaryScenario::paper_default(10, 80, 0.4).generate(&mut rng(619));
    let data = inst.responses();
    let index = StreamingIndex::from_matrix(data);
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
