//! Microbenches of the from-scratch substrates: dense linear algebra,
//! the statistical primitives, and the data-model hot paths the
//! estimators lean on.

#![allow(missing_docs)] // criterion_main! generates an undocumented main

use criterion::{BenchmarkId, Criterion, criterion_group, criterion_main};
use crowd_data::{CountsTensor, WorkerId, pair_stats};
use crowd_linalg::{Lu, Matrix, symmetric_eigen};
use crowd_sim::{BinaryScenario, KaryScenario, rng};
use crowd_stats::{normal_quantile, two_sided_z};
use std::hint::black_box;

fn random_spd(n: usize, seed: u64) -> Matrix {
    use rand::RngExt;
    let mut r = rng(seed);
    let b = Matrix::from_fn(n, n, |_, _| r.random::<f64>() * 2.0 - 1.0);
    let mut g = b.transpose().matmul(&b);
    for i in 0..n {
        let v = g.get(i, i) + n as f64;
        g.set(i, i, v);
    }
    g
}

fn linalg_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg");
    group.sample_size(30);
    for &n in &[4usize, 16, 64] {
        let a = random_spd(n, 7);
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |b, _| {
            b.iter(|| black_box(a.matmul(black_box(&a))));
        });
        group.bench_with_input(BenchmarkId::new("lu_inverse", n), &n, |b, _| {
            b.iter(|| black_box(Lu::decompose(black_box(&a)).unwrap().inverse()));
        });
        group.bench_with_input(BenchmarkId::new("jacobi_eigen", n), &n, |b, _| {
            b.iter(|| black_box(symmetric_eigen(black_box(&a))));
        });
    }
    group.finish();
}

fn stats_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats");
    group.sample_size(50);
    group.bench_function("normal_quantile", |b| {
        b.iter(|| black_box(normal_quantile(black_box(0.975))));
    });
    group.bench_function("two_sided_z", |b| {
        b.iter(|| black_box(two_sided_z(black_box(0.9))));
    });
    group.bench_function("erf", |b| {
        b.iter(|| black_box(crowd_stats::erf(black_box(1.234))));
    });
    group.finish();
}

fn data_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("data");
    group.sample_size(20);
    let inst = BinaryScenario::paper_default(20, 2_000, 0.7).generate(&mut rng(8));
    group.bench_function("pair_stats_2k_tasks", |b| {
        b.iter(|| {
            black_box(pair_stats(
                black_box(inst.responses()),
                WorkerId(0),
                WorkerId(1),
            ))
        });
    });
    group.bench_function("disagreement_rates_20x2k", |b| {
        b.iter(|| black_box(crowd_data::disagreement_rates(black_box(inst.responses()))));
    });
    let kinst = KaryScenario::paper_default(4, 2_000, 0.8).generate(&mut rng(9));
    group.bench_function("counts_tensor_4ary_2k", |b| {
        b.iter(|| {
            black_box(CountsTensor::from_matrix(
                black_box(kinst.responses()),
                WorkerId(0),
                WorkerId(1),
                WorkerId(2),
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, linalg_benches, stats_benches, data_benches);
criterion_main!(benches);
