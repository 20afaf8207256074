//! Differential tests pinning the pipelined runtime **bit-identical**
//! to single-threaded streaming evaluation at every snapshot, under
//! randomized arrival orders, batch sizes (1, 7, 256) and shard
//! counts (1, 2, 8), with mid-stream snapshots — binary and k-ary —
//! plus the runtime's edge cases (ingest-after-drain, empty-shard
//! routing, invalid requests) and the closure-exactness cases of
//! sharding itself (contiguous and clustered plans, more shards than
//! workers, silent workers, anchors whose peers all live in another
//! shard, merged-report queries across shard boundaries).
//!
//! The reference is [`crowd_core::IncrementalEvaluator`] /
//! [`crowd_core::KaryIncrementalEvaluator`] fed exactly the same
//! responses in exactly the same order; the service's merged
//! snapshots must reproduce its reports bit for bit (interval bits,
//! triple counts, failure taxonomy) at every drain point, and the
//! final snapshot must also equal the unsharded batch `evaluate_all`
//! over the whole data set.

use crowd_core::{
    EstimatorConfig, IncrementalEvaluator, KaryIncrementalEvaluator, KaryMWorkerEstimator,
    MWorkerEstimator,
};
use crowd_data::{Label, Response, ResponseMatrix, ResponseMatrixBuilder, TaskId, WorkerId};
use crowd_oracle::{report_difference, row_difference};
use crowd_service::{AssessmentService, ServiceConfig, ServiceError};
use crowd_shard::ShardPlan;
use crowd_sim::{ArrivalSchedule, BinaryScenario, KaryScenario, rng};

const CONFIDENCE: f64 = 0.9;

/// A service on `plan` whose shards evaluate with `estimator`.
fn spawn_service(
    data: &ResponseMatrix,
    plan: ShardPlan,
    estimator: &EstimatorConfig,
) -> AssessmentService {
    let config = ServiceConfig {
        estimator: estimator.clone(),
        ..ServiceConfig::default()
    };
    AssessmentService::spawn(plan, data.n_tasks(), data.arity(), config)
}

/// Streams one arrival schedule into both the service (batched, on
/// `plan`) and the serial reference, snapshotting mid-stream and at
/// the end; panics on any divergence. Returns the service for
/// post-checks.
fn run_binary_differential(
    data: &ResponseMatrix,
    plan: ShardPlan,
    estimator: &EstimatorConfig,
    batch: usize,
    seed: u64,
) -> AssessmentService {
    let n_shards = plan.n_shards();
    let service = spawn_service(data, plan, estimator);
    let mut serial = IncrementalEvaluator::new(
        data.n_workers(),
        data.n_tasks(),
        data.arity(),
        estimator.clone(),
    );
    let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(seed));
    let batches: Vec<&[Response]> = sched.batches(batch).collect();
    let mid = batches.len() / 2;
    for (i, group) in batches.iter().enumerate() {
        service.ingest_batch(group).unwrap();
        for r in *group {
            serial.ingest(*r).unwrap();
        }
        if i + 1 == mid {
            // Mid-stream drain point: the snapshot rides the same
            // FIFO queues as the ingests, so it observes exactly this
            // prefix.
            let snap = service.snapshot(CONFIDENCE).unwrap();
            let reference = serial.evaluate_all(CONFIDENCE).unwrap();
            assert_eq!(
                report_difference(&snap, &reference),
                None,
                "mid-stream divergence: shards={n_shards} batch={batch} seed={seed}"
            );
            // Per-worker requests agree with the serial per-worker
            // path, including the failure taxonomy.
            for w in (0..data.n_workers() as u32).step_by(3) {
                let worker = WorkerId(w);
                let served = match service.assess_worker(worker, CONFIDENCE) {
                    Err(ServiceError::Estimate(e)) => Err(e),
                    other => Ok(other.expect("only estimator failures")),
                };
                let diff = row_difference(&served, &serial.evaluate_worker(worker, CONFIDENCE));
                assert_eq!(diff, None, "worker {worker:?}");
            }
        }
    }
    let snap = service.snapshot(CONFIDENCE).unwrap();
    let reference = serial.evaluate_all(CONFIDENCE).unwrap();
    assert_eq!(
        report_difference(&snap, &reference),
        None,
        "final divergence: shards={n_shards} batch={batch} seed={seed}"
    );
    let batch_report = MWorkerEstimator::new(estimator.clone())
        .evaluate_all(data, CONFIDENCE)
        .unwrap();
    assert_eq!(
        report_difference(&snap, &batch_report),
        None,
        "final divergence from batch evaluate_all: shards={n_shards} batch={batch} seed={seed}"
    );
    service
}

/// The k-ary twin of [`run_binary_differential`].
fn run_kary_differential(
    data: &ResponseMatrix,
    plan: ShardPlan,
    estimator: &EstimatorConfig,
    batch: usize,
    seed: u64,
) {
    let n_shards = plan.n_shards();
    let service = spawn_service(data, plan, estimator);
    let mut serial = KaryIncrementalEvaluator::new(
        data.n_workers(),
        data.n_tasks(),
        data.arity(),
        estimator.clone(),
    );
    let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(seed));
    let batches: Vec<&[Response]> = sched.batches(batch).collect();
    let mid = batches.len() / 2;
    for (i, group) in batches.iter().enumerate() {
        service.ingest_batch(group).unwrap();
        for r in *group {
            serial.ingest(*r).unwrap();
        }
        if i + 1 == mid {
            let snap = service.snapshot_kary(CONFIDENCE).unwrap();
            let reference = serial.evaluate_all(CONFIDENCE).unwrap();
            assert_eq!(
                report_difference(&snap, &reference),
                None,
                "mid-stream k-ary divergence: shards={n_shards} batch={batch}"
            );
            let worker = WorkerId(1);
            let served = match service.assess_worker_kary(worker, CONFIDENCE) {
                Err(ServiceError::Estimate(e)) => Err(e),
                other => Ok(other.expect("only estimator failures")),
            };
            let diff = row_difference(&served, &serial.evaluate_worker(worker, CONFIDENCE));
            assert_eq!(diff, None, "k-ary worker {worker:?}");
        }
    }
    let snap = service.snapshot_kary(CONFIDENCE).unwrap();
    let reference = serial.evaluate_all(CONFIDENCE).unwrap();
    assert_eq!(
        report_difference(&snap, &reference),
        None,
        "final k-ary divergence: shards={n_shards} batch={batch}"
    );
    let batch_report = KaryMWorkerEstimator::new(estimator.clone())
        .evaluate_all(data, CONFIDENCE)
        .unwrap();
    assert_eq!(
        report_difference(&snap, &batch_report),
        None,
        "final k-ary divergence from batch evaluate_all: shards={n_shards} batch={batch}"
    );
}

#[test]
fn binary_pipeline_is_bit_identical_to_serial_streaming() {
    let inst = BinaryScenario::paper_default(12, 60, 0.85).generate(&mut rng(501));
    let data = inst.responses();
    for &n_shards in &[1usize, 2, 8] {
        for &batch in &[1usize, 7, 256] {
            let plan = ShardPlan::build_clustered(data, n_shards);
            let seed = 1000 + n_shards as u64 * 10;
            run_binary_differential(data, plan, &EstimatorConfig::default(), batch, seed);
        }
    }
}

#[test]
fn binary_pipeline_is_arrival_order_invariant() {
    // Same fleet, three different arrival shuffles: every one must
    // land on the same (serial-reference) reports.
    let inst = BinaryScenario::paper_default(10, 50, 0.8).generate(&mut rng(503));
    let data = inst.responses();
    for seed in [7u64, 77, 777] {
        let plan = ShardPlan::build_clustered(data, 2);
        run_binary_differential(data, plan, &EstimatorConfig::default(), 7, seed);
    }
}

#[test]
fn kary_pipeline_is_bit_identical_to_serial_streaming() {
    let inst = KaryScenario::paper_default(3, 60, 0.85)
        .with_workers(9)
        .generate(&mut rng(505));
    let data = inst.responses();
    for &(n_shards, batch) in &[(1usize, 7usize), (2, 1), (2, 256), (8, 7)] {
        let plan = ShardPlan::build_clustered(data, n_shards);
        run_kary_differential(
            data,
            plan,
            &EstimatorConfig::default(),
            batch,
            42 + batch as u64,
        );
    }
}

#[test]
fn ingest_continues_after_drain() {
    // Drain is a checkpoint, not shutdown: ingest before and after a
    // drain barrier, and the final snapshot still matches a serial
    // reference over everything.
    let inst = BinaryScenario::paper_default(8, 40, 0.9).generate(&mut rng(507));
    let data = inst.responses();
    let plan = ShardPlan::build_clustered(data, 2);
    let service =
        AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
    let mut serial = IncrementalEvaluator::new(
        data.n_workers(),
        data.n_tasks(),
        data.arity(),
        EstimatorConfig::default(),
    );
    let all: Vec<Response> = data.iter().collect();
    let cut = all.len() / 2;
    for chunk in all[..cut].chunks(16) {
        service.ingest_batch(chunk).unwrap();
    }
    service.drain().unwrap();
    // At the drain point the resident counts are settled and exact.
    let stats = service.stats().unwrap();
    let expect_routed: u64 = all[..cut]
        .iter()
        .map(|r| service.plan().closure_shards(r.worker).len() as u64)
        .sum();
    assert_eq!(
        stats.shards.iter().map(|s| s.responses).sum::<u64>(),
        expect_routed
    );
    for chunk in all[cut..].chunks(16) {
        service.ingest_batch(chunk).unwrap();
    }
    for r in &all {
        serial.ingest(*r).unwrap();
    }
    let snap = service.snapshot(CONFIDENCE).unwrap();
    let reference = serial.evaluate_all(CONFIDENCE).unwrap();
    assert_eq!(report_difference(&snap, &reference), None);
}

#[test]
fn empty_shards_route_and_snapshot_cleanly() {
    // More shards than workers: trailing shards have no anchors, no
    // closure and receive no ingest, yet the fleet snapshot and
    // per-worker requests behave exactly like the serial reference.
    let inst = BinaryScenario::paper_default(5, 30, 0.9).generate(&mut rng(509));
    let data = inst.responses();
    let plan = ShardPlan::build_clustered(data, 9);
    assert!(plan.shards().iter().any(|s| s.is_empty()));
    let service =
        AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
    let mut serial = IncrementalEvaluator::new(
        data.n_workers(),
        data.n_tasks(),
        data.arity(),
        EstimatorConfig::default(),
    );
    for r in data.iter() {
        service.ingest(r).unwrap();
        serial.ingest(r).unwrap();
    }
    let snap = service.snapshot(CONFIDENCE).unwrap();
    let reference = serial.evaluate_all(CONFIDENCE).unwrap();
    assert_eq!(report_difference(&snap, &reference), None);
    let stats = service.stats().unwrap();
    for shard in &stats.shards {
        let spec = &service.plan().shards()[shard.shard];
        if spec.is_empty() {
            assert_eq!(shard.responses, 0, "empty shards must see no ingest");
        }
    }
}

#[test]
fn invalid_requests_surface_the_data_taxonomy() {
    use crowd_data::{DataError, Label, TaskId};
    let inst = BinaryScenario::paper_default(6, 30, 0.9).generate(&mut rng(511));
    let data = inst.responses();
    let plan = ShardPlan::build_clustered(data, 2);
    let service =
        AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
    // Out-of-fleet worker: rejected before routing, nothing enqueued.
    let bogus = Response {
        worker: WorkerId(99),
        task: TaskId(0),
        label: Label(0),
    };
    assert!(matches!(
        service.ingest(bogus),
        Err(ServiceError::Data(DataError::UnknownId {
            kind: "worker",
            id: 99
        }))
    ));
    assert!(matches!(
        service.assess_worker(WorkerId(99), CONFIDENCE),
        Err(ServiceError::Data(DataError::UnknownId {
            kind: "worker",
            id: 99
        }))
    ));
    let stats = service.stats().unwrap();
    assert_eq!(stats.shards.iter().map(|s| s.responses).sum::<u64>(), 0);
    // A duplicate response is rejected by the substrate on every
    // subscribing shard but counted once fleet-wide (home shard).
    let first = data.iter().next().unwrap();
    service.ingest(first).unwrap();
    service.ingest(first).unwrap();
    service.drain().unwrap();
    let stats = service.stats().unwrap();
    assert_eq!(stats.total_rejected(), 1);
    // The resident copy is intact: snapshot still works.
    for r in data.iter().skip(1) {
        service.ingest(r).unwrap();
    }
    let mut serial = IncrementalEvaluator::new(
        data.n_workers(),
        data.n_tasks(),
        data.arity(),
        EstimatorConfig::default(),
    );
    for r in data.iter() {
        serial.ingest(r).unwrap();
    }
    let snap = service.snapshot(CONFIDENCE).unwrap();
    let reference = serial.evaluate_all(CONFIDENCE).unwrap();
    assert_eq!(report_difference(&snap, &reference), None);
}

#[test]
fn runtime_counters_reflect_the_stream() {
    // After a full stream + snapshot, the surfaced diagnostics are
    // live: batches counted, batch-size histogram populated, and the
    // substrate's view-build counter visible through the service.
    let inst = BinaryScenario::paper_default(10, 50, 0.9).generate(&mut rng(513));
    let data = inst.responses();
    let plan = ShardPlan::build_clustered(data, 2);
    let mut service =
        AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
    let all: Vec<Response> = data.iter().collect();
    let cut = all.len() / 2;
    for chunk in all[..cut].chunks(7) {
        service.ingest_batch(chunk).unwrap();
    }
    // First snapshot builds every anchor's view; the second, after
    // more ingest, rebuilds the dirty anchors' views.
    service.snapshot(CONFIDENCE).unwrap();
    let before = service.stats().unwrap();
    for chunk in all[cut..].chunks(7) {
        service.ingest_batch(chunk).unwrap();
    }
    service.snapshot(CONFIDENCE).unwrap();
    let after = service.stats().unwrap();
    assert_eq!(after.submitted, all.len() as u64);
    assert!(after.batch_sizes.total() > 0);
    assert!(after.batch_sizes.counts()[3] > 0, "size-7 batches bucket");
    assert!(after.max_queue_high_water() >= 1);
    assert!(after.total_reanchors() >= before.total_reanchors());
    // Shutdown serves the same counters from the joined threads.
    let finals = service.shutdown().unwrap();
    assert_eq!(finals.submitted, after.submitted);
    assert_eq!(
        finals.shards.iter().map(|s| s.responses).sum::<u64>(),
        after.shards.iter().map(|s| s.responses).sum::<u64>()
    );
}

#[test]
fn contiguous_plans_are_bit_identical_binary_and_kary() {
    // Contiguous id-range plans at 1/2/7 shards, with the paper
    // default and a capped fleet configuration.
    let binary = BinaryScenario::paper_default(11, 150, 0.7).generate(&mut rng(601));
    let kary = KaryScenario::paper_default(3, 200, 0.9)
        .with_workers(8)
        .generate(&mut rng(607));
    for config in [EstimatorConfig::default(), EstimatorConfig::fleet(2)] {
        for n_shards in [1usize, 2, 7] {
            let data = binary.responses();
            run_binary_differential(data, ShardPlan::build(data, n_shards), &config, 7, 601);
            let data = kary.responses();
            run_kary_differential(data, ShardPlan::build(data, n_shards), &config, 7, 607);
        }
    }
}

#[test]
fn more_shards_than_workers_handles_empty_shards() {
    // m = 5 with 7 contiguous shards: the two trailing shards have no
    // anchors and an empty closure; they answer with empty reports and
    // the merged snapshot still matches.
    let inst = BinaryScenario::paper_default(5, 60, 0.9).generate(&mut rng(617));
    let data = inst.responses();
    let plan = ShardPlan::build(data, 7);
    let empty = plan.shards().last().unwrap();
    assert!(empty.is_empty() && empty.closure.is_empty());
    let service = run_binary_differential(data, plan, &EstimatorConfig::default(), 7, 617);
    let stats = service.stats().unwrap();
    for shard in &stats.shards {
        if service.plan().shards()[shard.shard].is_empty() {
            assert_eq!(shard.responses, 0, "empty shards must see no ingest");
        }
    }
    assert_eq!(service.snapshot(CONFIDENCE).unwrap().assessments.len(), 5);
}

#[test]
fn silent_worker_fails_identically_in_both_pipelines() {
    // Worker 3 never responds; worker 6 answers a task nobody shares.
    let mut b = ResponseMatrixBuilder::new(7, 31, 2);
    for w in [0u32, 1, 2, 4, 5] {
        for t in 0..30u32 {
            b.push(WorkerId(w), TaskId(t), Label(((w + t) % 2) as u16))
                .unwrap();
        }
    }
    b.push(WorkerId(6), TaskId(30), Label(0)).unwrap();
    let data = b.build().unwrap();
    let config = EstimatorConfig::default();
    for n_shards in [1usize, 2, 7] {
        let service =
            run_binary_differential(&data, ShardPlan::build(&data, n_shards), &config, 7, 619);
        let snap = service.snapshot(CONFIDENCE).unwrap();
        let failed: Vec<WorkerId> = snap.failures.iter().map(|f| f.0).collect();
        assert!(failed.contains(&WorkerId(3)) && failed.contains(&WorkerId(6)));
        run_binary_differential(
            &data,
            ShardPlan::build_clustered(&data, n_shards),
            &config,
            7,
            619,
        );
    }
}

#[test]
fn anchor_with_all_peers_in_another_shard() {
    // Workers 2 and 3 work only on community-A tasks (peers 0, 1 —
    // both anchored by shard 0 under a 3-shard plan), workers 4 and 5
    // on community B. Shard 1 evaluates anchors {2, 3} whose peers all
    // live outside its anchor range — the closure must pull them in.
    let mut b = ResponseMatrixBuilder::new(6, 20, 2);
    for w in 0..4u32 {
        for t in 0..10u32 {
            b.push(WorkerId(w), TaskId(t), Label(((w * t) % 2) as u16))
                .unwrap();
        }
    }
    for w in 4..6u32 {
        for t in 10..20u32 {
            b.push(WorkerId(w), TaskId(t), Label((w % 2) as u16))
                .unwrap();
        }
    }
    let data = b.build().unwrap();
    let plan = ShardPlan::build(&data, 3);
    assert_eq!(plan.shards()[1].anchors, [WorkerId(2), WorkerId(3)]);
    let closure: Vec<u32> = plan.shards()[1].closure.iter().map(|w| w.0).collect();
    assert_eq!(closure, vec![0, 1, 2, 3], "peers 0, 1 pulled across shards");
    for batch in [1usize, 7] {
        run_binary_differential(&data, plan.clone(), &EstimatorConfig::default(), batch, 623);
    }
}

#[test]
fn merged_report_queries_work_across_shard_boundaries() {
    // The merged snapshot is a plain WorkerReport: lookups and summary
    // statistics behave as if it came from one process.
    let inst = BinaryScenario::paper_default(8, 100, 0.8).generate(&mut rng(631));
    let data = inst.responses();
    let plan = ShardPlan::build(data, 3);
    let service = run_binary_differential(data, plan, &EstimatorConfig::default(), 7, 631);
    let merged = service.snapshot(CONFIDENCE).unwrap();
    assert_eq!(
        merged.assessments.len() + merged.failures.len(),
        data.n_workers()
    );
    for w in data.workers() {
        let assessed = merged.get(w).is_some();
        let failed = merged.failures.iter().any(|f| f.0 == w);
        assert!(assessed ^ failed, "worker {w:?} covered exactly once");
    }
    assert!(merged.mean_interval_size() > 0.0);
}

/// A community-structured fleet whose worker ids interleave across
/// communities (`w % communities`), so contiguous anchor ranges drag
/// every community into every closure while a locality-aware plan can
/// keep each community on one shard.
fn interleaved_communities(communities: usize, per: usize, tasks_per: usize) -> ResponseMatrix {
    let m = communities * per;
    let mut b = ResponseMatrixBuilder::new(m, communities * tasks_per, 2);
    for w in 0..m as u32 {
        let community = w as usize % communities;
        for t in 0..tasks_per as u32 {
            if (w / communities as u32 + t).is_multiple_of(5) {
                continue; // leave some attempt sparsity
            }
            b.push(
                WorkerId(w),
                TaskId((community * tasks_per) as u32 + t),
                Label((w.wrapping_mul(2654435761).wrapping_add(t * 97) >> 7) as u16 % 2),
            )
            .unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn clustered_plans_shrink_closures_and_stay_bit_identical() {
    // The locality-aware planner must (a) cut the per-shard closure on
    // an id-scrambled community fleet and (b) keep the served snapshot
    // bit-identical — only the assignment changed, never the
    // arithmetic.
    let data = interleaved_communities(4, 8, 30);
    for n_shards in [2usize, 4] {
        let contiguous = ShardPlan::build(&data, n_shards);
        let clustered = ShardPlan::build_clustered(&data, n_shards);
        assert!(
            clustered.max_closure_len() < contiguous.max_closure_len(),
            "{n_shards} shards: clustered closure {} must undercut contiguous {}",
            clustered.max_closure_len(),
            contiguous.max_closure_len()
        );
        run_binary_differential(&data, clustered, &EstimatorConfig::default(), 7, 641);
    }
}

#[test]
fn clustered_plans_stay_bit_identical_kary() {
    let inst = KaryScenario::paper_default(3, 200, 0.9)
        .with_workers(8)
        .generate(&mut rng(641));
    let data = inst.responses();
    for n_shards in [2usize, 3] {
        let plan = ShardPlan::build_clustered(data, n_shards);
        run_kary_differential(data, plan, &EstimatorConfig::default(), 7, 643);
    }
}
