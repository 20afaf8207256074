//! Differential tests pinning the instrumented service
//! **bit-identical** to a metrics-disabled twin at every drain point
//! — the "provably free" contract of `crowd_obs`: stage timing and
//! the flight recorder observe evaluation, they never participate in
//! it. The reference is the same runtime spawned with
//! [`ServiceConfig::with_metrics`]`(false)`, fed exactly the same
//! responses in exactly the same order, compared bit for bit
//! (interval bits, triple counts, failure taxonomy) at randomized
//! drain points, binary and k-ary — while the instrumented twin's
//! stage histograms prove the timers actually ran.

use crowd_data::{Response, ResponseMatrix, WorkerId};
use crowd_obs::EventKind;
use crowd_oracle::{report_difference, row_difference};
use crowd_service::{AssessmentService, ServiceConfig, ServiceError};
use crowd_shard::ShardPlan;
use crowd_sim::{ArrivalSchedule, BinaryScenario, KaryScenario, rng};
use rand::RngExt;

/// Spawns the instrumented service and its metrics-disabled twin over
/// the same shard plan.
fn spawn_pair(data: &ResponseMatrix, n_shards: usize) -> (AssessmentService, AssessmentService) {
    assert!(
        ServiceConfig::default().metrics,
        "instrumentation is the default service mode"
    );
    let on = AssessmentService::spawn(
        ShardPlan::build_clustered(data, n_shards),
        data.n_tasks(),
        data.arity(),
        ServiceConfig::default(),
    );
    let off = AssessmentService::spawn(
        ShardPlan::build_clustered(data, n_shards),
        data.n_tasks(),
        data.arity(),
        ServiceConfig::default().with_metrics(false),
    );
    (on, off)
}

#[test]
fn instrumented_service_is_bit_identical_binary() {
    let inst = BinaryScenario::paper_default(12, 60, 0.85).generate(&mut rng(3121));
    let data = inst.responses();
    for &n_shards in &[1usize, 2, 8] {
        let (mut on, mut off) = spawn_pair(data, n_shards);
        let mut dice = rng(4400 + n_shards as u64);
        let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(91));
        let batches: Vec<&[Response]> = sched.batches(16).collect();
        for (i, group) in batches.iter().enumerate() {
            on.ingest_batch(group).unwrap();
            off.ingest_batch(group).unwrap();
            if dice.random::<f64>() < 0.35 {
                let a = on.snapshot(0.9).unwrap();
                let b = off.snapshot(0.9).unwrap();
                assert_eq!(
                    report_difference(&a, &b),
                    None,
                    "drain-point divergence: shards={n_shards} batch={i}"
                );
            }
            if dice.random::<f64>() < 0.3 {
                let w = WorkerId(dice.random_range(0..12) as u32);
                let outcome = |svc: &AssessmentService| match svc.assess_worker(w, 0.9) {
                    Err(ServiceError::Estimate(e)) => Err(e),
                    other => Ok(other.expect("only estimator failures")),
                };
                let diff = row_difference(&outcome(&on), &outcome(&off));
                assert_eq!(diff, None, "worker {w:?}");
            }
        }
        let a = on.snapshot(0.9).unwrap();
        let b = off.snapshot(0.9).unwrap();
        assert_eq!(report_difference(&a, &b), None, "final divergence");

        // The twins' counter stats agree too; only the stage timers
        // and journal differ.
        let ma = on.metrics().unwrap();
        let mb = off.metrics().unwrap();
        assert!(ma.enabled);
        assert!(!mb.enabled);
        assert_eq!(ma.stats.submitted, mb.stats.submitted);
        assert_eq!(
            ma.stats.shards.iter().map(|s| s.responses).sum::<u64>(),
            mb.stats.shards.iter().map(|s| s.responses).sum::<u64>()
        );
        let merged = ma.merged_stages();
        assert!(merged.queue_wait.count() > 0, "queue-wait timer ran");
        assert!(merged.batch_apply.count() > 0, "batch-apply timer ran");
        assert!(merged.drain_eval.count() > 0, "drain-eval timer ran");
        assert_eq!(
            mb.merged_stages().queue_wait.count(),
            0,
            "disabled twin recorded nothing"
        );
        assert!(mb.events.is_empty());
        // render_text round-trips the numbers ServiceStats shows.
        let text = ma.render_text();
        assert!(text.contains(&format!(
            "crowd_submitted_responses_total {}",
            ma.stats.submitted
        )));
        for s in &ma.stats.shards {
            assert!(text.contains(&format!(
                "crowd_shard_responses_total{{shard=\"{}\"}} {}",
                s.shard, s.responses
            )));
        }
        on.shutdown().unwrap();
        off.shutdown().unwrap();
    }
}

#[test]
fn instrumented_service_is_bit_identical_kary() {
    let inst = KaryScenario::paper_default(4, 50, 0.8)
        .with_workers(10)
        .generate(&mut rng(555));
    let data = inst.responses();
    for &n_shards in &[1usize, 4] {
        let (mut on, mut off) = spawn_pair(data, n_shards);
        let mut dice = rng(7100 + n_shards as u64);
        let all: Vec<Response> = data.iter().collect();
        for (i, group) in all.chunks(24).enumerate() {
            on.ingest_batch(group).unwrap();
            off.ingest_batch(group).unwrap();
            if dice.random::<f64>() < 0.4 {
                let a = on.snapshot_kary(0.9).unwrap();
                let b = off.snapshot_kary(0.9).unwrap();
                assert_eq!(
                    report_difference(&a, &b),
                    None,
                    "k-ary drain-point divergence: shards={n_shards} batch={i}"
                );
            }
        }
        let a = on.snapshot_kary(0.95).unwrap();
        let b = off.snapshot_kary(0.95).unwrap();
        assert_eq!(report_difference(&a, &b), None, "k-ary final divergence");
        on.shutdown().unwrap();
        off.shutdown().unwrap();
    }
}

#[test]
fn slow_op_threshold_zero_journals_every_stage() {
    // With a zero threshold every timed operation is "slow", so the
    // journal must capture SlowOp events with stage labels — the
    // capture path the bench also exercises with injected slow ops.
    let inst = BinaryScenario::paper_default(8, 40, 0.9).generate(&mut rng(17));
    let data = inst.responses();
    let svc = AssessmentService::spawn(
        ShardPlan::build_clustered(data, 2),
        data.n_tasks(),
        data.arity(),
        ServiceConfig::default().with_slow_op_threshold(std::time::Duration::ZERO),
    );
    let all: Vec<Response> = data.iter().collect();
    for chunk in all.chunks(16) {
        svc.ingest_batch(chunk).unwrap();
    }
    svc.snapshot(0.9).unwrap();
    let m = svc.metrics().unwrap();
    let slow: Vec<_> = m.events_of(EventKind::SlowOp).collect();
    assert!(!slow.is_empty(), "zero threshold must journal slow ops");
    assert!(slow.iter().any(|e| e.label == "batch_apply"));
    assert!(slow.iter().any(|e| e.label == "drain_eval"));
    for e in &slow {
        assert_eq!(e.b, 0, "event carries the configured threshold");
        assert!((e.shard as usize) < 2);
    }
    // Timestamps are monotone within the journal.
    assert!(m.events.windows(2).all(|w| w[0].seq < w[1].seq));
}

/// The refresh journal loses no event: with a journal large enough
/// that nothing wraps, the summed `CacheFullRefresh` deltas equal the
/// `cache_full_refreshes` counters — which pins journaling only after
/// evaluation messages, binary and k-ary.
#[test]
fn journaled_maintenance_matches_the_counters() {
    const CAPACITY: usize = 1 << 14;
    let binary = BinaryScenario::paper_default(12, 60, 0.85)
        .generate(&mut rng(3121))
        .responses()
        .clone();
    let kary = KaryScenario::paper_default(3, 60, 0.9)
        .with_workers(10)
        .generate(&mut rng(555))
        .responses()
        .clone();
    for (data, is_kary) in [(&binary, false), (&kary, true)] {
        for n_shards in [1usize, 2] {
            let mut svc = AssessmentService::spawn(
                ShardPlan::build_clustered(data, n_shards),
                data.n_tasks(),
                data.arity(),
                ServiceConfig::default().with_journal_capacity(CAPACITY),
            );
            let mut dice = rng(8200 + n_shards as u64);
            let all: Vec<Response> = data.iter().collect();
            for group in all.chunks(12) {
                svc.ingest_batch(group).unwrap();
                if dice.random::<f64>() < 0.4 {
                    // Switching confidence levels forces wholesale
                    // cache refreshes.
                    let confidence = if dice.random::<f64>() < 0.5 {
                        0.9
                    } else {
                        0.95
                    };
                    if is_kary {
                        svc.snapshot_kary(confidence).unwrap();
                    } else {
                        svc.snapshot(confidence).unwrap();
                    }
                }
                if dice.random::<f64>() < 0.3 {
                    let w = WorkerId(dice.random_range(0..data.n_workers()) as u32);
                    // Too little data yet is an answer, not a failure.
                    let _ = if is_kary {
                        svc.assess_worker_kary(w, 0.9).map(drop)
                    } else {
                        svc.assess_worker(w, 0.9).map(drop)
                    };
                }
            }
            let m = svc.metrics().unwrap();
            assert_eq!(m.events_dropped, 0);
            assert!(m.events.len() < CAPACITY, "the journal never wrapped");
            let journaled = |kind| m.events_of(kind).map(|e| e.a).sum::<u64>();
            let refreshes: u64 = m.stats.shards.iter().map(|s| s.cache_full_refreshes).sum();
            let context = format!("shards={n_shards} kary={is_kary}");
            assert_eq!(
                journaled(EventKind::CacheFullRefresh),
                refreshes,
                "{context}"
            );
            assert!(
                refreshes > 0,
                "the sequence switched confidence levels ({context})"
            );
            svc.shutdown().unwrap();
        }
    }
}
