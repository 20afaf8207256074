//! Microbench of the [`PeerGram`] kernels: the register-blocked
//! one-pass Gram versus the per-pair `triple_common` loop it
//! replaces, across pairing degree l ∈ {8, 32, 128} and anchor degree
//! n̄ ∈ {1k, 16k} — the axes the Lemma 4 covariance cost
//! `O(l²·n̄/64)` scales over. The per-pair arm runs the trait-default
//! `gram_into` (per-entry popcount passes with per-query row
//! resolution) against the same bitset view, so the two arms do the
//! same integer work and differ only in kernel shape.

#![allow(missing_docs)] // criterion_main! generates an undocumented main

use criterion::{BenchmarkId, Criterion, criterion_group, criterion_main};
use crowd_data::{
    AnchoredOverlap, Label, OverlapSource, PeerGram, PeerGramScratch, ResponseMatrixBuilder,
    StreamingIndex, TaskId, TriplePairGram, WorkerId,
};
use std::hint::black_box;

/// Forwards the popcount queries of a bitset view but keeps the
/// per-pair trait defaults for the gram fills — the pre-PeerGram
/// reference arm.
struct PerPair<'a, A>(&'a A);

impl<A: AnchoredOverlap> AnchoredOverlap for PerPair<'_, A> {
    fn triple_common(&self, a: WorkerId, b: WorkerId) -> usize {
        self.0.triple_common(a, b)
    }

    fn common_among(&self, others: &[WorkerId]) -> usize {
        self.0.common_among(others)
    }
}

/// One anchor of degree `n_tasks` with `peers` peers, each answering
/// ~70% of the anchor's tasks (deterministic LCG).
fn anchored_instance(peers: usize, n_tasks: usize) -> (StreamingIndex, Vec<WorkerId>) {
    let mut b = ResponseMatrixBuilder::new(peers + 1, n_tasks, 2);
    let mut state = 0x9e3779b97f4a7c15u64 ^ (peers as u64) << 32 ^ n_tasks as u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    for t in 0..n_tasks as u32 {
        b.push(WorkerId(0), TaskId(t), Label(0)).unwrap();
    }
    for w in 1..=peers as u32 {
        for t in 0..n_tasks as u32 {
            if next() % 10 < 7 {
                b.push(WorkerId(w), TaskId(t), Label((next() % 2) as u16))
                    .unwrap();
            }
        }
    }
    let data = b.build().unwrap();
    let ids: Vec<WorkerId> = (1..=peers as u32).map(WorkerId).collect();
    (StreamingIndex::from_matrix(&data), ids)
}

fn gram_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("gram");
    group.sample_size(20);
    for &peers in &[8usize, 32, 128] {
        for &n_tasks in &[1_000usize, 16_000] {
            let (index, ids) = anchored_instance(peers, n_tasks);
            let view = index.anchored_for(WorkerId(0), &ids);
            let mut gram = PeerGram::default();
            let mut scratch = PeerGramScratch::default();
            let label = format!("l{peers}_n{n_tasks}");
            group.bench_with_input(BenchmarkId::new("per_pair", &label), &peers, |b, _| {
                let per_pair = PerPair(&view);
                b.iter(|| {
                    per_pair.gram_into(black_box(&ids), &mut gram, &mut scratch);
                    black_box(gram.dim())
                });
            });
            group.bench_with_input(BenchmarkId::new("blocked", &label), &peers, |b, _| {
                b.iter(|| {
                    view.gram_into(black_box(&ids), &mut gram, &mut scratch);
                    black_box(gram.dim())
                });
            });
            // The k-ary n₅ table over l/2 disjoint triples: per-entry
            // 4-way intersections vs combined-row blocked gram.
            let pairs: Vec<(WorkerId, WorkerId)> = ids
                .chunks(2)
                .filter(|c| c.len() == 2)
                .map(|c| (c[0], c[1]))
                .collect();
            let mut n5 = TriplePairGram::default();
            group.bench_with_input(BenchmarkId::new("n5_per_pair", &label), &peers, |b, _| {
                let per_pair = PerPair(&view);
                b.iter(|| {
                    per_pair.pair_gram_into(black_box(&pairs), &mut n5, &mut scratch);
                    black_box(n5.dim())
                });
            });
            group.bench_with_input(BenchmarkId::new("n5_blocked", &label), &peers, |b, _| {
                b.iter(|| {
                    view.pair_gram_into(black_box(&pairs), &mut n5, &mut scratch);
                    black_box(n5.dim())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, gram_benches);
criterion_main!(benches);
