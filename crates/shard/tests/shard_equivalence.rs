//! Shard-plan and substrate checks that need no running service: the
//! planner's closures equal the pairing oracle, and the index's
//! co-occurrence-listed pairing reproduces the matrix's population
//! sweep bit for bit.
//! The closure-exactness cases of the sharded pipeline itself (empty
//! shards, silent workers, cross-shard peers, clustered plans) run on
//! the served path in `crates/service/tests/pipeline_equivalence.rs`.

use crowd_core::pairing::reachable_peers;
use crowd_core::{EstimatorConfig, MWorkerEstimator};
use crowd_data::{StreamingIndex, WorkerId};
use crowd_oracle::report_difference;
use crowd_shard::ShardPlan;
use crowd_sim::{BinaryScenario, rng};

#[test]
fn full_index_is_bit_identical_to_matrix_scan() {
    // An *unscoped* index: pairing candidates come from one walk of
    // the anchor's pair row, where the matrix sweeps the population.
    // Same report either way.
    let inst = BinaryScenario::paper_default(9, 120, 0.6).generate(&mut rng(613));
    let data = inst.responses();
    let est = MWorkerEstimator::new(EstimatorConfig::default());
    let workers: Vec<_> = data.workers().collect();
    let scanned = est.evaluate_workers_on(data, &workers, 0.9).unwrap();
    let indexed = est
        .evaluate_workers_on(&StreamingIndex::from_matrix(data), &workers, 0.9)
        .unwrap();
    let diff = report_difference(&indexed, &scanned);
    assert_eq!(diff, None, "indexed pairing");
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
