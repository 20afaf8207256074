//! Complexity benches validating the paper's stated costs:
//!
//! * Algorithm A1 (3 workers): `O(n)` in the task count,
//! * Algorithm A2 (m workers): `O(m²n + m⁴)`,
//! * Algorithm A3 (k-ary): `O(k⁶ + n·k³)`,
//!
//! plus the design-choice ablations DESIGN.md calls out: Lemma 5
//! optimal vs. uniform weights, greedy vs. sequential pairing, and the
//! new technique vs. the KDD'13 baseline vs. Dawid-Skene EM — and one
//! full fleet-capped A2 pass over a streaming substrate on two
//! community fleets (`a2_community_fleet`), the per-anchor evaluation
//! a served refresh pays for every dirty anchor.

#![allow(missing_docs)] // criterion_main! generates an undocumented main

use criterion::{BenchmarkId, Criterion, criterion_group, criterion_main};
use crowd_core::baselines::{DawidSkene, OldTechnique};
use crowd_core::pairing::PairingStrategy;
use crowd_core::{EstimatorConfig, KaryEstimator, MWorkerEstimator, ThreeWorkerEstimator};
use crowd_data::{Label, ResponseMatrix, ResponseMatrixBuilder, StreamingIndex, TaskId, WorkerId};
use crowd_sim::{BinaryScenario, KaryScenario, rng};
use rand::RngExt;
use std::hint::black_box;

fn a1_scaling_in_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_vs_n");
    group.sample_size(20);
    for &n in &[100usize, 1_000, 10_000] {
        let inst = BinaryScenario::paper_default(3, n, 1.0).generate(&mut rng(1));
        let est = ThreeWorkerEstimator::new(EstimatorConfig::default());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(est.evaluate_triple(black_box(inst.responses()), 0.9)));
        });
    }
    group.finish();
}

fn a2_scaling_in_m(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_vs_m");
    group.sample_size(10);
    for &m in &[5usize, 9, 17, 33] {
        let inst = BinaryScenario::paper_default(m, 200, 0.9).generate(&mut rng(2));
        let est = MWorkerEstimator::new(EstimatorConfig::default());
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| {
                black_box(est.evaluate_worker(black_box(inst.responses()), WorkerId(0), 0.9))
            });
        });
    }
    group.finish();
}

/// A community fleet: `communities` × 50 workers, each community
/// answering its own `tasks_per` binary tasks at `density`, with error
/// rates uniform in [0.05, 0.20] against a random truth — the shape of
/// `perfbench`'s fleets.
fn community_fleet(communities: usize, tasks_per: usize, density: f64) -> ResponseMatrix {
    const COMMUNITY: usize = 50;
    let (m, n) = (communities * COMMUNITY, communities * tasks_per);
    let mut r = rng(10);
    let error_rates: Vec<f64> = (0..m).map(|_| 0.05 + 0.15 * r.random::<f64>()).collect();
    let mut b = ResponseMatrixBuilder::new(m, n, 2);
    for t in 0..n {
        let truth = u16::from(r.random::<bool>());
        let first = t / tasks_per * COMMUNITY;
        for w in first..first + COMMUNITY {
            if r.random::<f64>() < density {
                let flip = u16::from(r.random::<f64>() < error_rates[w]);
                b.push(WorkerId(w as u32), TaskId(t as u32), Label(truth ^ flip))
                    .expect("generated ids are in range");
            }
        }
    }
    b.build().expect("generated cells are unique")
}

fn a2_community_fleet(c: &mut Criterion) {
    // One `fleet(16)` pass over every worker of a bulk-loaded
    // streaming substrate: pairing, view and gram, the peer pair
    // table, triple estimates and Lemma 4/5 — `trickle`'s fleet, and a
    // 10⁴-worker fleet at `burst`'s density floor.
    let mut group = c.benchmark_group("a2_community_fleet");
    group.sample_size(10);
    let est = MWorkerEstimator::new(EstimatorConfig::fleet(16));
    for (label, communities, tasks_per, density) in [
        ("trickle_40x50_t80_d0.35", 40, 80, 0.35),
        ("floor_200x50_t50_d0.15", 200, 50, 0.15),
    ] {
        let fleet = community_fleet(communities, tasks_per, density);
        let index = StreamingIndex::from_matrix(&fleet);
        let workers: Vec<WorkerId> = fleet.workers().collect();
        group.bench_function(label, |b| {
            b.iter(|| black_box(est.evaluate_workers_on(&index, black_box(&workers), 0.9)));
        });
    }
    group.finish();
}

fn a3_scaling_in_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("a3_vs_k");
    group.sample_size(10);
    let workers = [WorkerId(0), WorkerId(1), WorkerId(2)];
    for &k in &[2u16, 3, 4] {
        let inst = KaryScenario::paper_default(k, 500, 1.0).generate(&mut rng(3));
        let est = KaryEstimator::new(EstimatorConfig::default());
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(est.evaluate(black_box(inst.responses()), workers, 0.8)));
        });
    }
    group.finish();
}

fn ablation_weights(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_weights");
    group.sample_size(10);
    let mut scenario = BinaryScenario::paper_default(7, 100, 0.8);
    scenario.design = crowd_sim::AttemptDesign::PerWorkerDensity(crowd_sim::fig2c_densities(7));
    let inst = scenario.generate(&mut rng(4));
    for (label, config) in [
        ("optimal", EstimatorConfig::default()),
        ("uniform", EstimatorConfig::with_uniform_weights()),
    ] {
        let est = MWorkerEstimator::new(config);
        group.bench_function(label, |b| {
            b.iter(|| black_box(est.evaluate_all(black_box(inst.responses()), 0.8)));
        });
    }
    group.finish();
}

fn ablation_pairing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pairing");
    group.sample_size(10);
    let inst = BinaryScenario::paper_default(15, 300, 0.6).generate(&mut rng(5));
    for (label, strategy) in [
        ("greedy", PairingStrategy::GreedyByOverlap),
        ("sequential", PairingStrategy::Sequential),
    ] {
        let est = MWorkerEstimator::new(EstimatorConfig {
            pairing: strategy,
            ..EstimatorConfig::default()
        });
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(est.evaluate_worker(black_box(inst.responses()), WorkerId(0), 0.8))
            });
        });
    }
    group.finish();
}

fn ablation_techniques(c: &mut Criterion) {
    let mut group = c.benchmark_group("techniques");
    group.sample_size(10);
    let inst = BinaryScenario::paper_default(7, 100, 1.0).generate(&mut rng(6));
    let new = MWorkerEstimator::new(EstimatorConfig::default());
    group.bench_function("new_technique", |b| {
        b.iter(|| black_box(new.evaluate_all(black_box(inst.responses()), 0.8)));
    });
    let old = OldTechnique::default();
    group.bench_function("old_technique", |b| {
        b.iter(|| black_box(old.evaluate_all(black_box(inst.responses()), 0.8)));
    });
    let ds = DawidSkene::default();
    group.bench_function("dawid_skene_em", |b| {
        b.iter(|| black_box(ds.run(black_box(inst.responses()))));
    });
    group.finish();
}

fn ablation_incremental(c: &mut Criterion) {
    // The streaming evaluator's pair cache turns the dominant
    // O(m²·n̄) pairwise scans of evaluate_all into O(1) lookups.
    use crowd_core::IncrementalEvaluator;
    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    let inst = BinaryScenario::paper_default(25, 500, 0.8).generate(&mut rng(7));
    let batch = MWorkerEstimator::new(EstimatorConfig::default());
    group.bench_function("batch_evaluate_all", |b| {
        b.iter(|| black_box(batch.evaluate_all(black_box(inst.responses()), 0.9)));
    });
    let ev = IncrementalEvaluator::from_matrix(inst.responses(), EstimatorConfig::default());
    group.bench_function("cached_evaluate_all", |b| {
        b.iter(|| black_box(ev.evaluate_all(0.9)));
    });
    group.bench_function("ingest_one_response", |b| {
        // Measure the steady-state per-response ingestion cost on a
        // fresh evaluator (re-created outside the timing loop).
        let responses: Vec<_> = inst.responses().iter().collect();
        let mut fresh = IncrementalEvaluator::new(25, 500, 2, EstimatorConfig::default());
        let mut idx = 0usize;
        b.iter(|| {
            if idx >= responses.len() {
                fresh = IncrementalEvaluator::new(25, 500, 2, EstimatorConfig::default());
                idx = 0;
            }
            fresh
                .ingest(black_box(responses[idx]))
                .expect("stream is duplicate-free");
            idx += 1;
        });
    });
    group.finish();
}

fn kary_m_worker_scaling(c: &mut Criterion) {
    // The m-worker k-ary extension: one full A3 pipeline per triple
    // plus O(l²·k⁶) cross-triple covariances; l = ⌊(m−1)/2⌋ stays tiny
    // so the per-triple A3 cost dominates, i.e. roughly linear in m.
    use crowd_core::KaryMWorkerEstimator;
    let mut group = c.benchmark_group("kary_m_worker_vs_m");
    group.sample_size(10);
    for &m in &[3usize, 5, 9] {
        let inst = KaryScenario::paper_default(3, 300, 1.0)
            .with_workers(m)
            .generate(&mut rng(8));
        let est = KaryMWorkerEstimator::new(EstimatorConfig::default());
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| {
                black_box(est.evaluate_worker(black_box(inst.responses()), WorkerId(0), 0.8))
            });
        });
    }
    group.finish();
}

fn bootstrap_vs_delta(c: &mut Criterion) {
    // Why the analytic Theorem 1 chain matters: the bootstrap oracle
    // produces comparable intervals at hundreds of statistic
    // re-evaluations per interval.
    use crowd_core::DegeneracyPolicy;
    use crowd_core::agreement::Triangle;
    use crowd_data::triple_joint_labels;
    use crowd_stats::Bootstrap;
    let mut group = c.benchmark_group("interval_methods");
    group.sample_size(10);
    let inst = BinaryScenario::paper_default(3, 200, 1.0).generate(&mut rng(9));
    let est = MWorkerEstimator::new(EstimatorConfig::default());
    group.bench_function("delta_method", |b| {
        b.iter(|| black_box(est.evaluate_worker(black_box(inst.responses()), WorkerId(0), 0.9)));
    });
    let items = triple_joint_labels(inst.responses(), WorkerId(0), WorkerId(1), WorkerId(2));
    let boot = Bootstrap {
        resamples: 500,
        seed: 17,
    };
    group.bench_function("bootstrap_500", |b| {
        b.iter(|| {
            black_box(boot.percentile_interval(
                black_box(&items),
                |sample| {
                    let n = sample.len() as f64;
                    let count = |f: &dyn Fn(&(_, _, _)) -> bool| {
                        sample.iter().filter(|t| f(t)).count() as f64 / n
                    };
                    let t = Triangle {
                        q_ij: count(&|(a, b, _)| a == b),
                        q_ik: count(&|(a, _, c)| a == c),
                        q_jk: count(&|(_, b, c)| b == c),
                    }
                    .regularized(DegeneracyPolicy::Error)
                    .ok()?;
                    Some(t.error_rate())
                },
                0.9,
            ))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    a1_scaling_in_n,
    a2_scaling_in_m,
    a2_community_fleet,
    a3_scaling_in_k,
    kary_m_worker_scaling,
    bootstrap_vs_delta,
    ablation_weights,
    ablation_pairing,
    ablation_techniques,
    ablation_incremental
);
criterion_main!(benches);
