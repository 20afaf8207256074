//! Differential tests pinning the incremental (report-cache) service
//! **bit-identical** to uncached evaluation at every drain point,
//! under randomized ingest/assess/drain interleavings, shard counts
//! (1, 2, 8), binary and k-ary — including mid-stream confidence
//! switches (the wholesale-invalidation path) and streams long enough
//! that pairings shift between snapshots, so cached rows survive
//! re-pairing, not just quiet appends.
//!
//! The reference is a serial, unsharded
//! [`crowd_core::IncrementalEvaluator`] /
//! [`crowd_core::KaryIncrementalEvaluator`] fed exactly the same
//! responses in exactly the same order and queried through its
//! uncached `evaluate_all` / `evaluate_worker`. The cached service
//! must reproduce its reports bit for bit (interval bits, triple
//! counts, failure taxonomy) at every comparison, while its cache
//! counters prove the fast path actually ran.

use crowd_core::{Estimator, EstimatorConfig, KaryWorkerReport, StreamingEvaluator, WorkerReport};
use crowd_core::{KaryMWorkerEstimator, MWorkerEstimator};
use crowd_data::{Response, ResponseMatrix, WorkerId};
use crowd_service::{AssessmentService, ServiceConfig, ServiceError};
use crowd_shard::ShardPlan;
use crowd_sim::{ArrivalSchedule, BinaryScenario, KaryScenario, rng};
use rand::RngExt;

fn reports_identical(a: &WorkerReport, b: &WorkerReport) -> bool {
    a.assessments.len() == b.assessments.len()
        && a.failures.len() == b.failures.len()
        && a.assessments.iter().zip(&b.assessments).all(|(x, y)| {
            x.worker == y.worker
                && x.triples_used == y.triples_used
                && x.weights_fell_back == y.weights_fell_back
                && x.interval.center.to_bits() == y.interval.center.to_bits()
                && x.interval.half_width.to_bits() == y.interval.half_width.to_bits()
        })
        && a.failures
            .iter()
            .zip(&b.failures)
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1)
}

fn kary_reports_identical(a: &KaryWorkerReport, b: &KaryWorkerReport) -> bool {
    a.assessments.len() == b.assessments.len()
        && a.failures.len() == b.failures.len()
        && a.assessments.iter().zip(&b.assessments).all(|(x, y)| {
            x.worker == y.worker
                && x.triples_used == y.triples_used
                && x.intervals.len() == y.intervals.len()
                && x.intervals.iter().zip(&y.intervals).all(|(p, q)| {
                    p.center.to_bits() == q.center.to_bits()
                        && p.half_width.to_bits() == q.half_width.to_bits()
                })
        })
        && a.failures
            .iter()
            .zip(&b.failures)
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1)
}

/// Spawns the cached service and its serial uncached reference.
fn spawn_pair<E: Estimator>(
    data: &ResponseMatrix,
    n_shards: usize,
) -> (AssessmentService, StreamingEvaluator<E>) {
    let cached = AssessmentService::spawn(
        ShardPlan::build_clustered(data, n_shards),
        data.n_tasks(),
        data.arity(),
        ServiceConfig::default(),
    );
    let full = StreamingEvaluator::new(
        data.n_workers(),
        data.n_tasks(),
        data.arity(),
        EstimatorConfig::default(),
    );
    (cached, full)
}

/// Ingests one group into both sides, in the same order.
fn ingest_both<E: Estimator>(
    cached: &AssessmentService,
    full: &mut StreamingEvaluator<E>,
    group: &[Response],
) {
    cached.ingest_batch(group).unwrap();
    for &r in group {
        full.ingest(r).unwrap();
    }
}

#[test]
fn cached_service_is_bit_identical_to_uncached_binary() {
    let inst = BinaryScenario::paper_default(12, 60, 0.85).generate(&mut rng(821));
    let data = inst.responses();
    for &n_shards in &[1usize, 2, 8] {
        let (cached, mut full) = spawn_pair::<MWorkerEstimator>(data, n_shards);
        let mut dice = rng(900 + n_shards as u64);
        let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(77));
        let batches: Vec<&[Response]> = sched.batches(16).collect();
        let mid = batches.len() / 2;
        let mut confidence = 0.9;
        for (i, group) in batches.iter().enumerate() {
            ingest_both(&cached, &mut full, group);
            if i + 1 == mid {
                // Guarantee live cached rows, then switch confidence:
                // the next request must take the wholesale-invalidation
                // path and still agree bit for bit.
                let a = cached.snapshot(confidence).unwrap();
                let b = full.evaluate_all(confidence).unwrap();
                assert!(reports_identical(&a, &b), "pre-switch divergence");
                confidence = 0.95;
            }
            if dice.random::<f64>() < 0.35 {
                let a = cached.snapshot(confidence).unwrap();
                let b = full.evaluate_all(confidence).unwrap();
                assert!(
                    reports_identical(&a, &b),
                    "drain-point divergence: shards={n_shards} batch={i}"
                );
            }
            if dice.random::<f64>() < 0.3 {
                let w = WorkerId(dice.random::<u32>() % data.n_workers() as u32);
                match (
                    cached.assess_worker(w, confidence),
                    full.evaluate_worker(w, confidence)
                        .map_err(ServiceError::Estimate),
                ) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.interval.center.to_bits(), b.interval.center.to_bits());
                        assert_eq!(
                            a.interval.half_width.to_bits(),
                            b.interval.half_width.to_bits()
                        );
                        assert_eq!(a.triples_used, b.triples_used);
                    }
                    (Err(ServiceError::Estimate(a)), Err(ServiceError::Estimate(b))) => {
                        assert_eq!(a, b)
                    }
                    (a, b) => panic!("outcome mismatch for {w:?}: {a:?} vs {b:?}"),
                }
            }
        }
        // Final drain point, then a quiet repeat: no ingest between
        // them, so the second snapshot must be served entirely from
        // cache — identical bits, zero new misses.
        let a = cached.snapshot(confidence).unwrap();
        let b = full.evaluate_all(confidence).unwrap();
        assert!(
            reports_identical(&a, &b),
            "final divergence shards={n_shards}"
        );
        let before = cached.stats().unwrap();
        let a2 = cached.snapshot(confidence).unwrap();
        assert!(reports_identical(&a2, &b), "quiet-drain divergence");
        let after = cached.stats().unwrap();
        assert_eq!(
            after.total_cache_misses(),
            before.total_cache_misses(),
            "a quiet snapshot must not re-evaluate anyone"
        );
        assert!(after.total_cache_hits() > before.total_cache_hits());
        assert!(
            after.total_cache_full_refreshes() > 0,
            "the confidence switch must have invalidated wholesale"
        );
        assert!(
            after.total_reanchors() > 0,
            "evaluations must build anchored views (counted in the reanchors slot)"
        );
    }
}

#[test]
fn cached_service_is_bit_identical_to_uncached_kary() {
    let inst = KaryScenario::paper_default(3, 60, 0.85)
        .with_workers(9)
        .generate(&mut rng(823));
    let data = inst.responses();
    for &n_shards in &[1usize, 2, 8] {
        let (cached, mut full) = spawn_pair::<KaryMWorkerEstimator>(data, n_shards);
        let mut dice = rng(1100 + n_shards as u64);
        let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(78));
        let batches: Vec<&[Response]> = sched.batches(16).collect();
        let mid = batches.len() / 2;
        let mut confidence = 0.9;
        for (i, group) in batches.iter().enumerate() {
            ingest_both(&cached, &mut full, group);
            if i + 1 == mid {
                let a = cached.snapshot_kary(confidence).unwrap();
                let b = full.evaluate_all(confidence).unwrap();
                assert!(
                    kary_reports_identical(&a, &b),
                    "pre-switch k-ary divergence"
                );
                confidence = 0.95;
            }
            if dice.random::<f64>() < 0.35 {
                let a = cached.snapshot_kary(confidence).unwrap();
                let b = full.evaluate_all(confidence).unwrap();
                assert!(
                    kary_reports_identical(&a, &b),
                    "k-ary drain-point divergence: shards={n_shards} batch={i}"
                );
            }
            if dice.random::<f64>() < 0.3 {
                let w = WorkerId(dice.random::<u32>() % data.n_workers() as u32);
                match (
                    cached.assess_worker_kary(w, confidence),
                    full.evaluate_worker(w, confidence)
                        .map_err(ServiceError::Estimate),
                ) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.triples_used, b.triples_used);
                        for (p, q) in a.intervals.iter().zip(&b.intervals) {
                            assert_eq!(p.center.to_bits(), q.center.to_bits());
                            assert_eq!(p.half_width.to_bits(), q.half_width.to_bits());
                        }
                    }
                    (Err(ServiceError::Estimate(a)), Err(ServiceError::Estimate(b))) => {
                        assert_eq!(a, b)
                    }
                    (a, b) => panic!("k-ary outcome mismatch for {w:?}: {a:?} vs {b:?}"),
                }
            }
        }
        let a = cached.snapshot_kary(confidence).unwrap();
        let b = full.evaluate_all(confidence).unwrap();
        assert!(
            kary_reports_identical(&a, &b),
            "final k-ary divergence shards={n_shards}"
        );
        let stats = cached.stats().unwrap();
        assert!(stats.total_cache_misses() > 0);
        assert!(
            stats.total_cache_full_refreshes() > 0,
            "the k-ary confidence switch must have invalidated wholesale"
        );
    }
}

#[test]
fn explicit_worker_sets_share_cache_rows_with_snapshots() {
    // assess_workers rides the same per-anchor cache as snapshot: a
    // snapshot primes the rows, and a quiet explicit-set request is
    // then all hits while agreeing with the uncached reference bit for
    // bit.
    let inst = BinaryScenario::paper_default(10, 50, 0.9).generate(&mut rng(829));
    let data = inst.responses();
    let (cached, mut full) = spawn_pair::<MWorkerEstimator>(data, 2);
    let all: Vec<Response> = data.iter().collect();
    for chunk in all.chunks(32) {
        ingest_both(&cached, &mut full, chunk);
    }
    let a = cached.snapshot(0.9).unwrap();
    let b = full.evaluate_all(0.9).unwrap();
    assert!(reports_identical(&a, &b));
    let before = cached.stats().unwrap();
    let set: Vec<WorkerId> = (0..data.n_workers() as u32)
        .step_by(2)
        .map(WorkerId)
        .collect();
    let a = cached.assess_workers(&set, 0.9).unwrap();
    let mut b = WorkerReport::default();
    for &w in &set {
        b.push(w, full.evaluate_worker(w, 0.9));
    }
    assert!(reports_identical(&a, &b));
    let after = cached.stats().unwrap();
    assert_eq!(
        after.total_cache_misses(),
        before.total_cache_misses(),
        "a quiet explicit-set request after a snapshot must be all hits"
    );
    assert!(after.total_cache_hits() > before.total_cache_hits());
}
