//! Differential tests pinning crash recovery **bit-identical**: a
//! service with deterministic injected shard panics
//! ([`crowd_service::FaultPlan`]) must, after checkpoint-restore and
//! WAL replay, produce drain-point reports bit-for-bit equal to a
//! never-crashed twin fed exactly the same batches — across shard
//! counts (1, 2, 8), crash points (mid-batch, at the drain barrier,
//! at the next assessment), binary and k-ary — including
//! request-at-a-time ingest, where amortized compaction leaves a log
//! far longer than the checkpoint interval to replay.
//!
//! Fault visibility contract exercised here:
//!
//! * [`CrashPoint::MidBatch`] is invisible to callers — ingest uses
//!   the blocking policy, so submissions just wait out the recovery.
//! * [`CrashPoint::AtDrain`] / [`CrashPoint::AtAssess`] fail the
//!   one call whose reply died with the shard
//!   ([`ServiceError::ShardUnavailable`]); a bounded retry of that
//!   call lands after recovery and must succeed with correct results.

use std::sync::Arc;

use crowd_core::{KaryWorkerReport, WorkerReport};
use crowd_data::{Response, ResponseMatrix, WorkerId};
use crowd_service::{AssessmentService, CrashPoint, FaultPlan, ServiceConfig, ServiceError};
use crowd_shard::ShardPlan;
use crowd_sim::{ArrivalSchedule, BinaryScenario, KaryScenario, rng};

const CONFIDENCE: f64 = 0.9;

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

/// Calls `f`, retrying (bounded) the typed one-call failure an armed
/// crash point inflicts on the in-flight request. Anything else is a
/// test failure.
fn with_crash_retry<T>(mut f: impl FnMut() -> Result<T, ServiceError>) -> T {
    for _ in 0..8 {
        match f() {
            Ok(v) => return v,
            // The call whose reply channel died with the crashing
            // shard; recovery keeps the queue alive, so the retry
            // simply waits its turn behind the respawn.
            Err(ServiceError::ShardUnavailable { .. }) => continue,
            Err(other) => panic!("unexpected service error: {other:?}"),
        }
    }
    panic!("call did not succeed within the retry budget");
}

/// One binary differential run: stream identical batches into a
/// faulted service and a never-crashed twin, compare mid-stream and
/// final snapshots bit for bit, and require the fault to have actually
/// fired (recoveries counted).
fn run_binary(data: &ResponseMatrix, n_shards: usize, crash: CrashPoint, seed: u64) {
    let fault = Arc::new(
        FaultPlan::seeded(seed)
            .with_panic_at(0, 2)
            .with_panic_at(0, 5)
            .with_crash_point(crash),
    );
    let base = ServiceConfig::default().with_checkpoint_interval(3);
    let mut faulted = AssessmentService::spawn(
        ShardPlan::build_clustered(data, n_shards),
        data.n_tasks(),
        data.arity(),
        base.clone().with_fault(fault),
    );
    let mut twin = AssessmentService::spawn(
        ShardPlan::build_clustered(data, n_shards),
        data.n_tasks(),
        data.arity(),
        base,
    );
    let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(seed));
    let batches: Vec<&[Response]> = sched.batches(16).collect();
    let mid = batches.len() / 2;
    for (i, group) in batches.iter().enumerate() {
        faulted.ingest_batch(group).unwrap();
        twin.ingest_batch(group).unwrap();
        if i + 1 == mid {
            with_crash_retry(|| faulted.drain());
            let a = with_crash_retry(|| faulted.snapshot(CONFIDENCE));
            let b = twin.snapshot(CONFIDENCE).unwrap();
            assert!(
                reports_identical(&a, &b),
                "mid-stream snapshot diverged ({n_shards} shards, {crash:?})"
            );
        }
    }
    with_crash_retry(|| faulted.drain());
    let a = with_crash_retry(|| faulted.snapshot(CONFIDENCE));
    let b = twin.snapshot(CONFIDENCE).unwrap();
    assert!(
        reports_identical(&a, &b),
        "final snapshot diverged ({n_shards} shards, {crash:?})"
    );
    let stats = with_crash_retry(|| faulted.stats());
    assert!(
        stats.total_recoveries() >= 1,
        "the injected fault never fired ({n_shards} shards, {crash:?})"
    );
    assert_eq!(
        twin.stats().unwrap().total_recoveries(),
        0,
        "the twin must never crash"
    );
    // Response totals agree too: WAL replay delivered every response
    // exactly once.
    assert_eq!(
        stats.shards.iter().map(|s| s.responses).sum::<u64>(),
        twin.stats()
            .unwrap()
            .shards
            .iter()
            .map(|s| s.responses)
            .sum::<u64>(),
    );
    faulted.shutdown().unwrap();
    twin.shutdown().unwrap();
}

/// The k-ary twin of [`run_binary`].
fn run_kary(data: &ResponseMatrix, n_shards: usize, crash: CrashPoint, seed: u64) {
    let fault = Arc::new(
        FaultPlan::seeded(seed)
            .with_panic_at(0, 3)
            .with_crash_point(crash),
    );
    let base = ServiceConfig::default().with_checkpoint_interval(2);
    let mut faulted = AssessmentService::spawn(
        ShardPlan::build_clustered(data, n_shards),
        data.n_tasks(),
        data.arity(),
        base.clone().with_fault(fault),
    );
    let mut twin = AssessmentService::spawn(
        ShardPlan::build_clustered(data, n_shards),
        data.n_tasks(),
        data.arity(),
        base,
    );
    let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(seed));
    for group in sched.batches(16) {
        faulted.ingest_batch(group).unwrap();
        twin.ingest_batch(group).unwrap();
    }
    with_crash_retry(|| faulted.drain());
    let a = with_crash_retry(|| faulted.snapshot_kary(CONFIDENCE));
    let b = twin.snapshot_kary(CONFIDENCE).unwrap();
    assert!(
        kary_reports_identical(&a, &b),
        "k-ary snapshot diverged ({n_shards} shards, {crash:?})"
    );
    assert!(with_crash_retry(|| faulted.stats()).total_recoveries() >= 1);
    faulted.shutdown().unwrap();
    twin.shutdown().unwrap();
}

/// One worker's assessment as comparable bits (or the estimation
/// error it failed with), retrying the one call an armed crash point
/// fails.
fn probe(svc: &AssessmentService, worker: WorkerId, kary: bool) -> Result<Vec<u64>, String> {
    with_crash_retry(|| {
        let bits = if kary {
            svc.assess_worker_kary(worker, CONFIDENCE).map(|a| {
                a.intervals
                    .iter()
                    .flat_map(|i| [i.center.to_bits(), i.half_width.to_bits()])
                    .collect()
            })
        } else {
            svc.assess_worker(worker, CONFIDENCE)
                .map(|a| vec![a.interval.center.to_bits(), a.interval.half_width.to_bits()])
        };
        match bits {
            Err(ServiceError::Estimate(e)) => Ok(Err(format!("{e:?}"))),
            other => other.map(Ok),
        }
    })
}

/// Request-at-a-time twin of [`run_binary`] / [`run_kary`]: one
/// response per ingest call, so amortized compaction lets shard 0's
/// log grow far past `checkpoint_interval` batches before each crash
/// fires. At batch 1 every response is a shard batch and compaction
/// lands on shard ordinals 2, 4, 8, …, 2ᵏ; the crash sites 90 and 300
/// sit 26 and 44 batches past the last compaction. Every 32 responses
/// a drain and an assessment of one of shard 0's anchors fire an
/// armed crash point before the next compaction (128 and 512) and
/// compare the two services; at the end, so do full snapshots.
fn run_request_at_a_time(data: &ResponseMatrix, n_shards: usize, crash: CrashPoint, kary: bool) {
    const INTERVAL: usize = 2;
    let fault = Arc::new(
        FaultPlan::seeded(501)
            .with_panic_at(0, 90)
            .with_panic_at(0, 300)
            .with_crash_point(crash),
    );
    let base = ServiceConfig::default().with_checkpoint_interval(INTERVAL);
    let plan = ShardPlan::build_clustered(data, n_shards);
    let anchor = plan.shards()[0].anchors[0];
    let mut faulted = AssessmentService::spawn(
        plan.clone(),
        data.n_tasks(),
        data.arity(),
        base.clone().with_fault(fault),
    );
    let mut twin = AssessmentService::spawn(plan, data.n_tasks(), data.arity(), base);
    let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(29));
    let responses: Vec<Response> = sched.batches(1).map(|b| b[0]).collect();
    let context = format!("{n_shards} shards, {crash:?}, kary {kary}");
    for (i, &r) in responses.iter().enumerate() {
        faulted.ingest(r).unwrap();
        twin.ingest(r).unwrap();
        let seen = i + 1;
        if seen % 32 != 0 && seen != responses.len() {
            continue;
        }
        with_crash_retry(|| faulted.drain());
        assert_eq!(
            probe(&faulted, anchor, kary),
            probe(&twin, anchor, kary),
            "assessment after {seen} responses diverged ({context})"
        );
        if seen != responses.len() {
            continue;
        }
        let identical = if kary {
            let a = with_crash_retry(|| faulted.snapshot_kary(CONFIDENCE));
            kary_reports_identical(&a, &twin.snapshot_kary(CONFIDENCE).unwrap())
        } else {
            let a = with_crash_retry(|| faulted.snapshot(CONFIDENCE));
            reports_identical(&a, &twin.snapshot(CONFIDENCE).unwrap())
        };
        assert!(
            identical,
            "snapshot after {seen} responses diverged ({context})"
        );
    }
    let stats = with_crash_retry(|| faulted.stats());
    let shard0 = &stats.shards[0];
    assert_eq!(shard0.recoveries, 2, "both crash sites fired ({context})");
    assert!(
        shard0.wal_replayed >= 10 * INTERVAL as u64 * shard0.recoveries,
        "{} recoveries replayed only {} responses: the log was short ({context})",
        shard0.recoveries,
        shard0.wal_replayed
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.responses).sum::<u64>(),
        twin.stats()
            .unwrap()
            .shards
            .iter()
            .map(|s| s.responses)
            .sum::<u64>(),
    );
    faulted.shutdown().unwrap();
    twin.shutdown().unwrap();
}

fn binary_data() -> ResponseMatrix {
    BinaryScenario::paper_default(12, 80, 0.9)
        .generate(&mut rng(17))
        .responses()
        .clone()
}

fn kary_data() -> ResponseMatrix {
    KaryScenario::paper_default(3, 90, 0.9)
        .with_workers(12)
        .generate(&mut rng(19))
        .responses()
        .clone()
}

#[test]
fn recovered_reports_match_never_crashed_twin_mid_batch() {
    let data = binary_data();
    for n_shards in [1usize, 2, 8] {
        run_binary(&data, n_shards, CrashPoint::MidBatch, 101 + n_shards as u64);
    }
}

#[test]
fn recovered_reports_match_never_crashed_twin_at_drain() {
    let data = binary_data();
    for n_shards in [1usize, 2, 8] {
        run_binary(&data, n_shards, CrashPoint::AtDrain, 201 + n_shards as u64);
    }
}

#[test]
fn recovered_reports_match_never_crashed_twin_at_assess() {
    let data = binary_data();
    for n_shards in [1usize, 2, 8] {
        run_binary(&data, n_shards, CrashPoint::AtAssess, 301 + n_shards as u64);
    }
}

#[test]
fn recovered_kary_reports_match_never_crashed_twin() {
    let data = kary_data();
    for n_shards in [1usize, 2, 8] {
        for crash in [
            CrashPoint::MidBatch,
            CrashPoint::AtDrain,
            CrashPoint::AtAssess,
        ] {
            run_kary(&data, n_shards, crash, 401 + n_shards as u64);
        }
    }
}

#[test]
fn request_at_a_time_recovery_from_a_long_log_is_bit_identical() {
    let data = binary_data();
    for n_shards in [1usize, 2, 8] {
        for crash in [
            CrashPoint::MidBatch,
            CrashPoint::AtDrain,
            CrashPoint::AtAssess,
        ] {
            run_request_at_a_time(&data, n_shards, crash, false);
        }
    }
}

#[test]
fn request_at_a_time_kary_recovery_from_a_long_log_is_bit_identical() {
    let data = kary_data();
    for n_shards in [1usize, 2, 8] {
        for crash in [
            CrashPoint::MidBatch,
            CrashPoint::AtDrain,
            CrashPoint::AtAssess,
        ] {
            run_request_at_a_time(&data, n_shards, crash, true);
        }
    }
}

/// A panic *rate* (rather than explicit sites) across a longer stream:
/// multiple recoveries, reports still bit-identical.
#[test]
fn repeated_random_crashes_stay_bit_identical() {
    let data = binary_data();
    let fault = Arc::new(FaultPlan::seeded(777).with_panic_rate(0.08));
    let base = ServiceConfig::default()
        .with_checkpoint_interval(4)
        .with_max_recoveries(64);
    let mut faulted = AssessmentService::spawn(
        ShardPlan::build_clustered(&data, 2),
        data.n_tasks(),
        data.arity(),
        base.clone().with_fault(fault),
    );
    let mut twin = AssessmentService::spawn(
        ShardPlan::build_clustered(&data, 2),
        data.n_tasks(),
        data.arity(),
        base,
    );
    let sched = ArrivalSchedule::poisson(&data, 1000.0, &mut rng(23));
    for group in sched.batches(8) {
        faulted.ingest_batch(group).unwrap();
        twin.ingest_batch(group).unwrap();
    }
    with_crash_retry(|| faulted.drain());
    let a = with_crash_retry(|| faulted.snapshot(CONFIDENCE));
    let b = twin.snapshot(CONFIDENCE).unwrap();
    assert!(reports_identical(&a, &b));
    let recoveries = with_crash_retry(|| faulted.stats()).total_recoveries();
    assert!(
        recoveries >= 2,
        "rate 0.08 over the stream: got {recoveries}"
    );
    faulted.shutdown().unwrap();
    twin.shutdown().unwrap();
}
