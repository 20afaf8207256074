//! Statistical acceptance tests: the headline claims of the paper,
//! verified end-to-end at reduced (but still meaningful) repetition
//! counts. These are the "does the reproduction actually reproduce"
//! tests; the full-scale numbers come from the figure harness
//! (`cargo run --release -p crowd_bench --bin figures`).

use crowd_assess::core::baselines::OldTechnique;
use crowd_assess::core::{CoverageStats, KaryEstimator};
use crowd_assess::prelude::*;
use crowd_data::WorkerId;

/// Paper §III-A1: the new technique's intervals are substantially
/// tighter than the old technique's at equal confidence.
#[test]
fn new_technique_beats_old_technique() {
    let scenario = BinaryScenario::paper_default(3, 100, 1.0);
    let new = MWorkerEstimator::new(EstimatorConfig::default());
    let old = OldTechnique::default();
    let mut rng = crowd_assess::sim::rng(211);
    let (mut new_sz, mut old_sz, mut used) = (0.0, 0.0, 0);
    for _ in 0..60 {
        let inst = scenario.generate(&mut rng);
        let Ok(report) = new.evaluate_all(inst.responses(), 0.5) else {
            continue;
        };
        if report.assessments.len() < 3 {
            continue;
        }
        let Ok(old_cis) = old.evaluate_all(inst.responses(), 0.5) else {
            continue;
        };
        new_sz += report.mean_interval_size();
        old_sz += old_cis.iter().map(|(_, ci)| ci.size()).sum::<f64>() / 3.0;
        used += 1;
    }
    assert!(used >= 40, "too many degenerate repetitions ({used})");
    let reduction = 1.0 - new_sz / old_sz;
    assert!(
        reduction > 0.25,
        "expected ≥25% interval-size reduction (paper: ~40%), got {:.1}%",
        reduction * 100.0
    );
}

/// Paper Fig. 2(a): coverage tracks the confidence level on binary
/// non-regular data.
#[test]
fn binary_coverage_tracks_confidence() {
    let scenario = BinaryScenario::paper_default(7, 300, 0.8);
    let est = MWorkerEstimator::new(EstimatorConfig::default());
    let mut rng = crowd_assess::sim::rng(223);
    for &c in &[0.6, 0.9] {
        let mut stats = CoverageStats::default();
        for _ in 0..40 {
            let inst = scenario.generate(&mut rng);
            let report = est.evaluate_all(inst.responses(), c).unwrap();
            stats.merge(report.coverage(|w| Some(inst.true_error_rate(w))));
        }
        let acc = stats.accuracy().unwrap();
        assert!(
            (acc - c).abs() < 0.07,
            "coverage {acc:.3} at c={c} over {} intervals",
            stats.total
        );
    }
}

/// Paper Fig. 2(b): interval size scales roughly like 1/density.
#[test]
fn interval_size_is_inverse_in_density() {
    let est = MWorkerEstimator::new(EstimatorConfig::default());
    let mut rng = crowd_assess::sim::rng(227);
    let mut sizes = Vec::new();
    for &d in &[0.5, 1.0] {
        let scenario = BinaryScenario::paper_default(7, 300, d);
        let mut total = 0.0;
        let mut n = 0;
        for _ in 0..25 {
            let inst = scenario.generate(&mut rng);
            if let Ok(report) = est.evaluate_all(inst.responses(), 0.8)
                && !report.assessments.is_empty()
            {
                total += report.mean_interval_size();
                n += 1;
            }
        }
        sizes.push(total / n as f64);
    }
    let ratio = sizes[0] / sizes[1];
    // Doubling density should roughly halve the size (paper: size ∝ 1/d).
    assert!(
        (1.5..3.0).contains(&ratio),
        "size(d=0.5)/size(d=1.0) = {ratio:.2}, expected ≈ 2"
    );
}

/// Paper Fig. 5(a): k-ary coverage is at or above nominal.
#[test]
fn kary_coverage_is_calibrated_or_conservative() {
    let est = KaryEstimator::new(EstimatorConfig::default());
    let workers = [WorkerId(0), WorkerId(1), WorkerId(2)];
    let mut rng = crowd_assess::sim::rng(229);
    for &arity in &[2u16, 3] {
        let scenario = KaryScenario::paper_default(arity, 500, 1.0);
        let mut stats = CoverageStats::default();
        for _ in 0..25 {
            let inst = scenario.generate(&mut rng);
            let Ok(a) = est.evaluate(inst.responses(), workers, 0.9) else {
                continue;
            };
            let truth = [0u32, 1, 2].map(|w| inst.true_confusion(WorkerId(w)));
            stats.merge(a.coverage(&truth));
        }
        let acc = stats.accuracy().expect("some repetitions succeed");
        assert!(
            acc > 0.85,
            "arity {arity}: coverage {acc:.3} at c=0.9 over {} intervals",
            stats.total
        );
    }
}

/// Independent-oracle cross-check: on the same 3-worker data, the
/// Theorem 1 delta-method interval and a nonparametric task-resampling
/// bootstrap of the same statistic must broadly agree in center and
/// width. This validates the whole analytic chain (agreement rates →
/// Lemma 1 covariances → Lemma 2 gradients → Theorem 1) against a
/// method that shares none of it.
#[test]
fn delta_method_interval_matches_bootstrap_oracle() {
    use crowd_assess::core::DegeneracyPolicy;
    use crowd_assess::core::agreement::Triangle;
    use crowd_assess::stats::Bootstrap;
    use crowd_data::triple_joint_labels;

    let scenario = BinaryScenario::paper_default(3, 200, 1.0);
    let est = MWorkerEstimator::new(EstimatorConfig::default());
    let boot = Bootstrap {
        resamples: 600,
        seed: 991,
    };
    let mut rng = crowd_assess::sim::rng(239);
    let mut width_ratio = 0.0;
    let mut center_gap = 0.0;
    let mut used = 0;
    for _ in 0..12 {
        let inst = scenario.generate(&mut rng);
        let data = inst.responses();
        let Ok(delta) = est.evaluate_worker(data, WorkerId(0), 0.9) else {
            continue;
        };
        let items = triple_joint_labels(data, WorkerId(0), WorkerId(1), WorkerId(2));
        let Ok(bootstrap) = boot.percentile_interval(
            &items,
            |sample| {
                let n = sample.len() as f64;
                let q = |f: &dyn Fn(&(_, _, _)) -> bool| {
                    sample.iter().filter(|t| f(t)).count() as f64 / n
                };
                let triangle = Triangle {
                    q_ij: q(&|(a, b, _)| a == b),
                    q_ik: q(&|(a, _, c)| a == c),
                    q_jk: q(&|(_, b, c)| b == c),
                };
                let t = triangle.regularized(DegeneracyPolicy::Error).ok()?;
                Some(t.error_rate())
            },
            0.9,
        ) else {
            continue;
        };
        width_ratio += delta.interval.size() / bootstrap.size();
        center_gap += (delta.interval.center - bootstrap.center).abs();
        used += 1;
    }
    assert!(used >= 8, "too many degenerate repetitions ({used})");
    let width_ratio = width_ratio / used as f64;
    let center_gap = center_gap / used as f64;
    assert!(
        (0.7..1.4).contains(&width_ratio),
        "delta/bootstrap width ratio {width_ratio:.3}, expected ≈ 1"
    );
    assert!(
        center_gap < 0.03,
        "centers disagree by {center_gap:.4} on average"
    );
}

/// Paper Fig. 4: pruning spammers never hurts, and the pruned run's
/// high-confidence accuracy lands near nominal on the messy stand-ins.
#[test]
fn spammer_pruning_restores_real_data_accuracy() {
    use crowd_assess::core::preprocess::{PAPER_SPAMMER_THRESHOLD, prune_spammers};
    let dataset = crowd_assess::datasets::ent::generate(231);
    let est = MWorkerEstimator::new(EstimatorConfig {
        min_pair_overlap: 10,
        ..EstimatorConfig::default()
    });
    let pruned = prune_spammers(&dataset.responses, PAPER_SPAMMER_THRESHOLD);
    assert!(
        !pruned.removed.is_empty(),
        "the ENT stand-in plants spammers"
    );
    let report = est.evaluate_all(&pruned.data, 0.9).unwrap();
    let stats = report.coverage(|w| {
        dataset
            .gold
            .worker_error_rate(&dataset.responses, pruned.kept[w.index()])
    });
    let acc = stats.accuracy().unwrap();
    assert!(
        acc > 0.85,
        "post-pruning accuracy {acc:.3} at c=0.9 over {} workers",
        stats.total
    );
}
