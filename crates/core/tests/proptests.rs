//! Property-based tests for the estimators' internal invariants.

use crowd_core::agreement::{Triangle, agreement_from_errors};
use crowd_core::kary::KaryEstimator;
use crowd_core::kary::{align_rows_greedy, fix_row_signs, population_counts, prob_estimate};
use crowd_core::{
    DegeneracyPolicy, EstimatorConfig, KaryMWorkerEstimator, MWorkerEstimator, Report,
    ThreeWorkerEstimator, WorkerRow,
};
use crowd_data::{Label, ResponseMatrix, ResponseMatrixBuilder, StreamingIndex, TaskId, WorkerId};
use crowd_linalg::Matrix;
use crowd_oracle::report_difference;
use proptest::prelude::*;

/// Strategy: an arbitrary sparse binary response matrix with enough
/// workers and density for Algorithm A2 to usually succeed.
fn assessable_matrix() -> impl Strategy<Value = ResponseMatrix> {
    (4usize..8, 20usize..60).prop_flat_map(|(m, n)| {
        proptest::collection::vec(proptest::option::weighted(0.75, 0u16..2), m * n).prop_map(
            move |cells| {
                let mut b = ResponseMatrixBuilder::new(m, n, 2);
                for (i, cell) in cells.iter().enumerate() {
                    if let Some(label) = cell {
                        b.push(
                            WorkerId((i / n) as u32),
                            TaskId((i % n) as u32),
                            Label(*label),
                        )
                        .expect("generated ids are valid");
                    }
                }
                b.build().expect("generated cells are unique")
            },
        )
    })
}

/// Strategy: a community-structured binary matrix, the served fleet's
/// shape in miniature: 2–4 communities of 4–7 workers, each answering
/// its own block of 15–30 tasks at a per-worker density of 45–95%,
/// with per-worker error rates of 5–30% against a random truth. With
/// two communities every pair row is dense (`3·d ≥ m`); with more they
/// are sparse, so the indexed substrates' sparse-row pair fill and
/// row-walk screen run, which [`assessable_matrix`]'s all-dense shapes
/// never reach.
fn community_matrix() -> impl Strategy<Value = ResponseMatrix> {
    (2usize..=4, 4usize..=7, 15usize..=30).prop_flat_map(|(c, s, per)| {
        let (m, n) = (c * s, c * per);
        (
            proptest::collection::vec((45u32..95, 5u32..30), m),
            proptest::collection::vec(0u16..2, n),
            proptest::collection::vec((0u32..100, 0u32..100), m * n),
        )
            .prop_map(move |(workers, truth, cells)| {
                let mut b = ResponseMatrixBuilder::new(m, n, 2);
                for (i, &(attempt, err)) in cells.iter().enumerate() {
                    let (w, t) = (i / n, i % n);
                    let (density, error) = workers[w];
                    if w / s == t / per && attempt < density {
                        let label = truth[t] ^ u16::from(err < error);
                        b.push(WorkerId(w as u32), TaskId(t as u32), Label(label))
                            .expect("generated ids are valid");
                    }
                }
                b.build().expect("generated cells are unique")
            })
    })
}

/// Strategy: one sort key per worker id of [`assessable_matrix`]; see
/// [`shuffled_subset`].
fn worker_keys() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..1000, 8)
}

/// The workers of `data` whose key is not divisible by 4, ordered by
/// key: a random subset in a random order.
fn shuffled_subset(data: &ResponseMatrix, keys: &[u32]) -> Vec<WorkerId> {
    let mut workers: Vec<WorkerId> = data
        .workers()
        .filter(|w| !keys[w.index()].is_multiple_of(4))
        .collect();
    workers.sort_by_key(|w| keys[w.index()]);
    workers
}

/// The rows of `full` for `workers`, in `workers` order: what
/// `evaluate_workers_on(.., workers, ..)` must return.
fn rows_for<A: WorkerRow + Clone>(full: &Report<A>, workers: &[WorkerId]) -> Report<A> {
    let mut rows = Report::default();
    for &w in workers {
        if let Some(a) = full.assessments.iter().find(|a| a.worker() == w) {
            rows.assessments.push(a.clone());
        } else if let Some(f) = full.failures.iter().find(|f| f.0 == w) {
            rows.failures.push(f.clone());
        }
    }
    rows
}

/// One triple per worker in `workers`: the worker and the next two
/// worker ids after it, cyclically.
fn triples_for(data: &ResponseMatrix, workers: &[WorkerId]) -> Vec<[WorkerId; 3]> {
    let m = data.n_workers() as u32;
    workers
        .iter()
        .map(|&w| [w, WorkerId((w.0 + 1) % m), WorkerId((w.0 + 2) % m)])
        .collect()
}

/// Runs `$body` once per overlap substrate of the matrix `$data`, with
/// `$src` bound to the substrate and `$name` to its label: the matrix
/// itself (merge scans and a population-sweep pairing scan, the naive
/// reference), a [`StreamingIndex`] bulk-loaded from the matrix (the
/// batch path), and one that ingested the responses one at a time (its
/// pair rows reach their form through mid-stream promotion).
macro_rules! for_each_substrate {
    ($data:expr, |$name:ident, $src:ident| $body:block) => {{
        let data: &ResponseMatrix = $data;
        {
            let ($name, $src) = ("matrix", data);
            $body
        }
        {
            let ($name, $src) = ("loaded index", &StreamingIndex::from_matrix(data));
            $body
        }
        {
            let mut stream = StreamingIndex::new(data.n_workers(), data.n_tasks(), data.arity());
            for r in data.iter() {
                stream
                    .record_response(r)
                    .expect("matrix responses are unique");
            }
            let ($name, $src) = ("streaming index", &stream);
            $body
        }
    }};
}

/// The binary estimator's one entry, `evaluate_workers_on`, gives on
/// every substrate the rows the matrix scan gives (and `evaluate_all`
/// agrees), bit for bit, over a shuffled worker subset: one scratch is
/// reused across workers in non-id order, so a leak between
/// evaluations shows. `ThreeWorkerEstimator::triple_estimate` agrees
/// across the same substrates.
fn check_indexed_equals_naive(
    data: &ResponseMatrix,
    keys: &[u32],
    config: EstimatorConfig,
) -> Result<(), TestCaseError> {
    let est = MWorkerEstimator::new(config.clone());
    let three = ThreeWorkerEstimator::new(config);
    let workers = shuffled_subset(data, keys);
    let all: Vec<WorkerId> = data.workers().collect();
    let scanned = est
        .evaluate_workers_on(data, &all, 0.9)
        .expect("enough workers");
    let diff = report_difference(
        &est.evaluate_all(data, 0.9).expect("enough workers"),
        &scanned,
    );
    prop_assert!(diff.is_none(), "evaluate_all: {:?}", diff);
    let expect = rows_for(&scanned, &workers);
    let triples = triples_for(data, &workers);
    let oracle: Vec<String> = triples
        .iter()
        .map(|&[w, a, b]| format!("{:?}", three.triple_estimate(data, w, a, b)))
        .collect();
    for_each_substrate!(data, |substrate, src| {
        let report = est
            .evaluate_workers_on(src, &workers, 0.9)
            .expect("enough workers");
        let diff = report_difference(&report, &expect);
        prop_assert!(diff.is_none(), "{}: {:?}", substrate, diff);
        for (&[w, a, b], want) in triples.iter().zip(&oracle) {
            let got = format!("{:?}", three.triple_estimate(src, w, a, b));
            prop_assert_eq!(
                &got,
                want,
                "{}: triple ({:?}, {:?}, {:?})",
                substrate,
                w,
                a,
                b
            );
        }
    });
    Ok(())
}

/// Strategy: a random diagonally dominant row-stochastic k×k matrix.
fn confusion_matrix(k: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(0.05f64..1.0, k * k).prop_map(move |raw| {
        let mut m = Matrix::zeros(k, k);
        for r in 0..k {
            // Off-diagonal raw weights, diagonal forced dominant.
            let mut row: Vec<f64> = (0..k).map(|c| raw[r * k + c] * 0.5).collect();
            row[r] = 1.0 + raw[r * k + r];
            let sum: f64 = row.iter().sum();
            for (c, v) in row.iter().enumerate() {
                m.set(r, c, v / sum);
            }
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ProbEstimate recovers arbitrary diagonally dominant worker
    /// matrices exactly from population counts (Lemmas 6–8 end to end).
    #[test]
    fn prob_estimate_recovers_random_truth(
        p1 in confusion_matrix(3),
        p2 in confusion_matrix(3),
        p3 in confusion_matrix(3),
        s0 in 0.2f64..0.5,
        s1 in 0.2f64..0.4,
    ) {
        let s = [s0, s1, 1.0 - s0 - s1];
        prop_assume!(s[2] > 0.15);
        let p = [p1, p2, p3];
        let counts = population_counts(&p, &s, 50_000.0);
        let Ok(est) = prob_estimate(&counts) else {
            // Random matrices can be near-degenerate (tied conditional
            // spectra); a typed failure is acceptable, silence is not.
            return Ok(());
        };
        for i in 0..3 {
            let probs = est.response_probabilities(i);
            for r in 0..3 {
                for c in 0..3 {
                    prop_assert!(
                        (probs.get(r, c) - p[i].get(r, c)).abs() < 1e-3,
                        "worker {} entry ({},{}) off: {} vs {}",
                        i, r, c, probs.get(r, c), p[i].get(r, c)
                    );
                }
            }
        }
    }

    /// Row alignment undoes any permutation + sign flips of a
    /// diagonally dominant matrix.
    #[test]
    fn alignment_undoes_permutation_and_signs(
        m in confusion_matrix(4),
        perm_seed in 0u64..24,
        flips in proptest::collection::vec(any::<bool>(), 4),
    ) {
        // Scale rows like sqrt(S)·P to match the real use.
        let scaled = Matrix::from_fn(4, 4, |r, c| 0.5 * m.get(r, c));
        let perms: Vec<Vec<usize>> = (0..4)
            .flat_map(|a| (0..4).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| {
                let mut p: Vec<usize> = (0..4).collect();
                p.swap(a, b);
                p
            })
            .collect();
        let perm = &perms[(perm_seed as usize) % perms.len()];
        let mut scrambled = scaled.permute_rows(perm);
        for (r, &flip) in flips.iter().enumerate() {
            if flip {
                for v in scrambled.row_mut(r) {
                    *v = -*v;
                }
            }
        }
        fix_row_signs(&mut scrambled);
        let aligned = align_rows_greedy(&scrambled);
        prop_assert!(
            aligned.approx_eq(&scaled, 1e-12),
            "alignment failed:\n{aligned:?}\nvs\n{scaled:?}"
        );
    }

    /// The A1 interval width shrinks monotonically in the overlap
    /// count for fixed agreement fractions.
    #[test]
    fn deviation_shrinks_with_overlap(scale in 1usize..8) {
        let base = 40 * scale;
        let make = |n: usize| {
            let mut b = ResponseMatrixBuilder::new(3, n, 2);
            for t in 0..n as u32 {
                b.push(WorkerId(0), TaskId(t), Label(0)).unwrap();
                b.push(WorkerId(1), TaskId(t), Label(u16::from(t % 10 == 0))).unwrap();
                b.push(WorkerId(2), TaskId(t), Label(u16::from(t % 8 == 0))).unwrap();
            }
            b.build().unwrap()
        };
        let est = ThreeWorkerEstimator::new(EstimatorConfig::default());
        let small = est
            .triple_estimate(&make(base), WorkerId(0), WorkerId(1), WorkerId(2))
            .unwrap();
        let large = est
            .triple_estimate(&make(base * 4), WorkerId(0), WorkerId(1), WorkerId(2))
            .unwrap();
        prop_assert!(large.deviation < small.deviation);
    }

    /// The regularized triangle inversion is total on arbitrary inputs
    /// under the clamp policy, and stays within sane bounds.
    #[test]
    fn clamped_inversion_is_total(
        q_ij in 0.0f64..1.0,
        q_ik in 0.0f64..1.0,
        q_jk in 0.0f64..1.0,
    ) {
        let t = Triangle { q_ij, q_ik, q_jk }
            .regularized(DegeneracyPolicy::Clamp { epsilon: 1e-3 })
            .unwrap();
        let p = t.error_rate();
        prop_assert!(p.is_finite());
        // 2q−1 factors are at most 1 and at least 2ε: the estimate
        // cannot run off to ±∞ but may leave [0, 1/2] on noisy input.
        prop_assert!(p <= 0.5);
        let g = t.gradient();
        prop_assert!(g.iter().all(|d| d.is_finite()));
    }

    /// [`check_indexed_equals_naive`] on small, dense matrices under
    /// the default configuration.
    #[test]
    fn indexed_evaluate_all_equals_naive(data in assessable_matrix(), keys in worker_keys()) {
        check_indexed_equals_naive(&data, &keys, EstimatorConfig::default())?;
    }

    /// [`check_indexed_equals_naive`] on community-structured
    /// matrices, whose pair rows are sparse as well as dense, under the
    /// default configuration, a fleet cap of 2–6 triples, and a minimum
    /// pair overlap of 1, 2 or 4.
    #[test]
    fn indexed_evaluate_all_equals_naive_on_communities(
        data in community_matrix(),
        keys in proptest::collection::vec(0u32..1000, 28),
        cap in 2usize..=6,
        overlap in 0usize..3,
    ) {
        check_indexed_equals_naive(&data, &keys, EstimatorConfig::default())?;
        check_indexed_equals_naive(&data, &keys, EstimatorConfig::fleet(cap))?;
        let min_pair_overlap = [1, 2, 4][overlap];
        check_indexed_equals_naive(
            &data,
            &keys,
            EstimatorConfig { min_pair_overlap, ..EstimatorConfig::default() },
        )?;
    }

    /// The k-ary twin: `evaluate_workers_on` equals the `evaluate_all`
    /// rows on every substrate over a shuffled worker subset,
    /// successes and failure reasons alike (so a reused counts tensor
    /// or peer buffer that leaks state shows), and
    /// `KaryEstimator::evaluate` agrees across the same substrates.
    #[test]
    fn kary_evaluate_all_equals_scan_and_streaming(
        data in assessable_matrix(),
        keys in worker_keys(),
    ) {
        let est = KaryMWorkerEstimator::new(EstimatorConfig::clamping());
        let a3 = KaryEstimator::new(EstimatorConfig::clamping());
        let workers = shuffled_subset(&data, &keys);
        let expect = rows_for(&est.evaluate_all(&data, 0.9).expect("enough workers"), &workers);
        let triples = triples_for(&data, &workers);
        let oracle: Vec<String> = triples
            .iter()
            .map(|&t| format!("{:?}", a3.evaluate(&data, t, 0.9)))
            .collect();
        for_each_substrate!(&data, |substrate, src| {
            let report = est.evaluate_workers_on(src, &workers, 0.9).expect("enough workers");
            let diff = report_difference(&report, &expect);
            prop_assert!(diff.is_none(), "{}: {:?}", substrate, diff);
            for (&t, want) in triples.iter().zip(&oracle) {
                let got = format!("{:?}", a3.evaluate(src, t, 0.9));
                prop_assert_eq!(&got, want, "{}: triple {:?}", substrate, t);
            }
        });
    }

    /// The forward agreement map stays in [1/2, 1] for admissible
    /// error rates and the inversion recovers it (round trip).
    #[test]
    fn forward_map_range_and_roundtrip(
        p1 in 0.0f64..0.49,
        p2 in 0.0f64..0.49,
        p3 in 0.0f64..0.49,
    ) {
        let q12 = agreement_from_errors(p1, p2);
        prop_assert!((0.5..=1.0).contains(&q12));
        let t = Triangle {
            q_ij: q12,
            q_ik: agreement_from_errors(p1, p3),
            q_jk: agreement_from_errors(p2, p3),
        };
        prop_assert!((t.error_rate() - p1).abs() < 1e-9);
    }
}
