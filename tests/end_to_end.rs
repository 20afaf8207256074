//! Cross-crate integration: simulate → serialize → estimate → score,
//! exercising the public API exactly as a downstream user would.

use crowd_assess::core::baselines::{DawidSkene, GoldBaseline};
use crowd_assess::data::csv;
use crowd_assess::prelude::*;

#[test]
fn pipeline_is_deterministic_per_seed() {
    let scenario = BinaryScenario::paper_default(7, 120, 0.8);
    let run = |seed: u64| {
        let inst = scenario.generate(&mut crowd_assess::sim::rng(seed));
        let est = MWorkerEstimator::new(EstimatorConfig::default());
        est.evaluate_all(inst.responses(), 0.9).unwrap()
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(crowd_oracle::report_difference(&a, &b), None);
    // A different seed produces different intervals.
    let c = run(6);
    assert!(
        a.assessments
            .iter()
            .zip(&c.assessments)
            .any(|(x, y)| x.interval.center != y.interval.center)
    );
}

#[test]
fn estimation_survives_a_csv_roundtrip() {
    let inst = BinaryScenario::paper_default(5, 80, 0.9).generate(&mut crowd_assess::sim::rng(11));
    let mut buf = Vec::new();
    csv::write_responses(inst.responses(), &mut buf).unwrap();
    let reloaded = csv::read_responses(buf.as_slice()).unwrap();
    assert_eq!(&reloaded, inst.responses());

    let est = MWorkerEstimator::new(EstimatorConfig::default());
    let before = est.evaluate_all(inst.responses(), 0.8).unwrap();
    let after = est.evaluate_all(&reloaded, 0.8).unwrap();
    for (x, y) in before.assessments.iter().zip(&after.assessments) {
        assert_eq!(x.interval, y.interval);
    }
}

#[test]
fn gold_free_estimates_agree_with_gold_based_ones() {
    // With plenty of data, the agreement-based intervals should center
    // near the gold-standard (Wilson) intervals computed from the same
    // responses.
    let inst =
        BinaryScenario::paper_default(7, 2_000, 1.0).generate(&mut crowd_assess::sim::rng(13));
    let est = MWorkerEstimator::new(EstimatorConfig::default());
    let report = est.evaluate_all(inst.responses(), 0.9).unwrap();
    let gold = GoldBaseline::default();
    for a in &report.assessments {
        let g = gold
            .evaluate_worker(inst.responses(), inst.gold(), a.worker, 0.9)
            .unwrap();
        assert!(
            (a.interval.center - g.center).abs() < 0.03,
            "worker {:?}: agreement-based {:.3} vs gold-based {:.3}",
            a.worker,
            a.interval.center,
            g.center
        );
    }
}

#[test]
fn dawid_skene_and_interval_estimates_agree_on_rankings() {
    // EM point estimates and the interval centers should order the
    // workers identically when the data is plentiful.
    let inst =
        BinaryScenario::paper_default(9, 1_000, 1.0).generate(&mut crowd_assess::sim::rng(17));
    let report = MWorkerEstimator::new(EstimatorConfig::default())
        .evaluate_all(inst.responses(), 0.9)
        .unwrap();
    let ds = DawidSkene::default().run(inst.responses()).unwrap();
    let ds_rates = ds.error_rates();
    let mut by_interval: Vec<_> = report
        .assessments
        .iter()
        .map(|a| (a.worker, a.interval.center))
        .collect();
    let mut by_ds: Vec<_> = inst
        .responses()
        .workers()
        .map(|w| (w, ds_rates[w.index()]))
        .collect();
    by_interval.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    by_ds.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    // Group-level agreement: the same workers occupy the bottom third
    // (best) under both estimators.
    let k = 3;
    let best_interval: std::collections::HashSet<_> =
        by_interval.iter().take(k).map(|(w, _)| *w).collect();
    let best_ds: std::collections::HashSet<_> = by_ds.iter().take(k).map(|(w, _)| *w).collect();
    let overlap = best_interval.intersection(&best_ds).count();
    assert!(
        overlap >= k - 1,
        "best-worker sets diverge: {best_interval:?} vs {best_ds:?}"
    );
}

#[test]
fn kary_estimator_handles_binary_tasks_consistently() {
    // Arity 2 is a special case of the k-ary estimator; its diagonal
    // estimates must agree with the binary estimator's error rates
    // (P[0,1]·S₀ + P[1,0]·S₁ ≈ p).
    let inst =
        BinaryScenario::paper_default(3, 3_000, 1.0).generate(&mut crowd_assess::sim::rng(19));
    let kary = KaryEstimator::new(EstimatorConfig::default());
    let workers = [WorkerId(0), WorkerId(1), WorkerId(2)];
    let a = kary.evaluate(inst.responses(), workers, 0.9).unwrap();
    for (slot, &w) in workers.iter().enumerate() {
        let p = inst.true_error_rate(w);
        let p_est = a.selectivity[0] * a.response_prob[slot].get(0, 1)
            + a.selectivity[1] * a.response_prob[slot].get(1, 0);
        assert!(
            (p_est - p).abs() < 0.05,
            "worker {w}: k-ary error {p_est:.3} vs true {p:.3}"
        );
    }
}

#[test]
fn failures_are_reported_not_panicked() {
    // Three workers with zero mutual overlap must fail gracefully.
    let mut b = ResponseMatrixBuilder::new(3, 9, 2);
    for w in 0..3u32 {
        for t in 0..3u32 {
            b.push(WorkerId(w), TaskId(w * 3 + t), Label(0)).unwrap();
        }
    }
    let data = b.build().unwrap();
    let report = MWorkerEstimator::new(EstimatorConfig::default())
        .evaluate_all(&data, 0.9)
        .unwrap();
    assert!(report.assessments.is_empty());
    assert_eq!(report.failures.len(), 3);
}
