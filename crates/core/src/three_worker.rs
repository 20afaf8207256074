//! The 3-worker estimator — Algorithm A1 and its non-regular
//! generalization (§III-A, §III-B).
//!
//! Pipeline for evaluating worker `i` against peers `j₁`, `j₂`:
//!
//! 1. agreement rates `q̂` over each pair's common tasks,
//! 2. Eq. (1) point estimate `p̂ᵢ = f(q̂_ij₁, q̂_ij₂, q̂_j₁j₂)`,
//! 3. Lemma 3 covariances of the agreement rates (which reduce to
//!    Lemma 1 when `c_ij = c_ijk = n`, the regular case),
//! 4. Lemma 2 gradient of `f`,
//! 5. Theorem 1 delta-method interval.
//!
//! The intermediate [`TripleEstimate`] (estimate, deviation, gradient,
//! overlap counts) is exactly what Algorithm A2 aggregates across
//! triples, so the m-worker estimator is built on this module.

use crate::agreement::Triangle;
use crate::{EstimateError, EstimatorConfig, Result};
use crowd_data::{OverlapSource, PairStats, ResponseMatrix, WorkerId};
use crowd_linalg::Matrix;
use crowd_stats::{ConfidenceInterval, delta_variance};

/// Overlap bookkeeping for one triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripleOverlaps {
    /// `c_ij₁`: tasks shared by the evaluated worker and peer 1.
    pub c_i_j1: usize,
    /// `c_ij₂`: tasks shared by the evaluated worker and peer 2.
    pub c_i_j2: usize,
    /// `c_j₁j₂`: tasks shared by the two peers.
    pub c_j1_j2: usize,
    /// `c_ij₁j₂`: tasks shared by all three.
    pub c_all: usize,
}

/// The full output of the 3-worker method for one worker in one triple:
/// everything Algorithm A2 needs to aggregate across triples.
#[derive(Debug, Clone, PartialEq)]
pub struct TripleEstimate {
    /// The worker being evaluated.
    pub worker: WorkerId,
    /// The two peers.
    pub peers: (WorkerId, WorkerId),
    /// Eq. (1) point estimate of the worker's error rate.
    pub p_hat: f64,
    /// Delta-method standard deviation of `p_hat`.
    pub deviation: f64,
    /// Lemma 2 gradient with respect to `(q_ij₁, q_ij₂, q_j₁j₂)`.
    pub gradient: [f64; 3],
    /// The (regularized) agreement rates the estimate used.
    pub triangle: Triangle,
    /// Overlap counts.
    pub overlaps: TripleOverlaps,
    /// Plug-in error estimates for the two peers (used by Lemma 4).
    pub peer_p: (f64, f64),
}

/// The workers of a triple must be distinct.
fn assert_distinct(worker: WorkerId, peer1: WorkerId, peer2: WorkerId) {
    assert_ne!(worker, peer1, "triple workers must be distinct");
    assert_ne!(worker, peer2, "triple workers must be distinct");
    assert_ne!(peer1, peer2, "triple workers must be distinct");
}

/// The 3-worker estimator (Algorithm A1, regular or non-regular data).
#[derive(Debug, Clone, Default)]
pub struct ThreeWorkerEstimator {
    config: EstimatorConfig,
}

impl ThreeWorkerEstimator {
    /// Creates an estimator with the given configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        Self { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Runs steps 1–4 of the method for worker `i` in the triple
    /// `(i, j₁, j₂)`, returning the estimate plus the ingredients
    /// Algorithm A2 aggregates. Works over any overlap substrate
    /// ([`crowd_data::ResponseMatrix`] or
    /// [`crowd_data::StreamingIndex`]); the estimate is identical
    /// across substrates, only the statistic-lookup cost differs.
    pub fn triple_estimate<S: OverlapSource>(
        &self,
        src: &S,
        worker: WorkerId,
        peer1: WorkerId,
        peer2: WorkerId,
    ) -> Result<TripleEstimate> {
        assert_distinct(worker, peer1, peer2);
        let c_all = src.triple(worker, peer1, peer2).common_tasks;
        self.triple_estimate_from(
            worker,
            (peer1, src.pair(worker, peer1)),
            (peer2, src.pair(worker, peer2)),
            src.pair(peer1, peer2),
            c_all,
        )
    }

    /// The triple pipeline from the triple's statistics: each peer
    /// with its pair statistics against `worker`, the peers' own pair
    /// statistics `s_12`, and `c_ij₁j₂`. Algorithm A2 evaluates many
    /// triples anchored on one worker and reads these from the
    /// anchor's pair row, its peer pair table and its peer gram instead
    /// of asking the substrate per triple.
    pub(crate) fn triple_estimate_from(
        &self,
        worker: WorkerId,
        (peer1, s_i1): (WorkerId, PairStats),
        (peer2, s_i2): (WorkerId, PairStats),
        s_12: PairStats,
        c_all: usize,
    ) -> Result<TripleEstimate> {
        assert_distinct(worker, peer1, peer2);

        let s_i1 = self.checked_pair(worker, peer1, s_i1)?;
        let s_i2 = self.checked_pair(worker, peer2, s_i2)?;
        let s_12 = self.checked_pair(peer1, peer2, s_12)?;

        let raw = Triangle {
            q_ij: s_i1.agreement_rate().expect("overlap checked"),
            q_ik: s_i2.agreement_rate().expect("overlap checked"),
            q_jk: s_12.agreement_rate().expect("overlap checked"),
        };
        let triangle = raw.regularized(self.config.degeneracy)?;

        let p_hat = triangle.error_rate();
        let gradient = triangle.gradient();

        // Peer plug-ins by permuting the triangle (Eq. 1 for j₁ and j₂).
        let p_peer1 = Triangle {
            q_ij: triangle.q_ij,
            q_ik: triangle.q_jk,
            q_jk: triangle.q_ik,
        }
        .error_rate();
        let p_peer2 = Triangle {
            q_ij: triangle.q_ik,
            q_ik: triangle.q_jk,
            q_jk: triangle.q_ij,
        }
        .error_rate();

        let overlaps = TripleOverlaps {
            c_i_j1: s_i1.common_tasks,
            c_i_j2: s_i2.common_tasks,
            c_j1_j2: s_12.common_tasks,
            c_all,
        };
        let cov = self.agreement_covariance(
            &triangle,
            &overlaps,
            (&s_i1, &s_i2, &s_12),
            (p_hat, p_peer1, p_peer2),
        );
        let variance = delta_variance(&gradient, &cov)?;

        Ok(TripleEstimate {
            worker,
            peers: (peer1, peer2),
            p_hat,
            deviation: variance.sqrt(),
            gradient,
            triangle,
            overlaps,
            peer_p: (p_peer1, p_peer2),
        })
    }

    /// Full Algorithm A1 for one worker: triple estimate + Theorem 1
    /// interval.
    pub fn evaluate(
        &self,
        data: &ResponseMatrix,
        worker: WorkerId,
        peer1: WorkerId,
        peer2: WorkerId,
        confidence: f64,
    ) -> Result<ConfidenceInterval> {
        let est = self.triple_estimate(data, worker, peer1, peer2)?;
        Ok(ConfidenceInterval::from_deviation(
            est.p_hat,
            est.deviation,
            confidence,
        )?)
    }

    /// Evaluates all three workers of a 3-worker matrix.
    pub fn evaluate_triple(
        &self,
        data: &ResponseMatrix,
        confidence: f64,
    ) -> Result<[ConfidenceInterval; 3]> {
        if data.n_workers() != 3 {
            return Err(EstimateError::NotEnoughWorkers {
                got: data.n_workers(),
                need: 3,
            });
        }
        let (w0, w1, w2) = (WorkerId(0), WorkerId(1), WorkerId(2));
        Ok([
            self.evaluate(data, w0, w1, w2, confidence)?,
            self.evaluate(data, w1, w0, w2, confidence)?,
            self.evaluate(data, w2, w0, w1, confidence)?,
        ])
    }

    /// `s`, the statistics of the pair `(a, b)`, if they clear the
    /// minimum overlap.
    fn checked_pair(&self, a: WorkerId, b: WorkerId, s: PairStats) -> Result<PairStats> {
        let need = self.config.min_pair_overlap.max(1);
        if s.common_tasks < need {
            return Err(EstimateError::InsufficientOverlap {
                a,
                b,
                got: s.common_tasks,
                need,
            });
        }
        Ok(s)
    }

    /// Lemma 3: the 3×3 covariance matrix of `(Q_ij₁, Q_ij₂, Q_j₁j₂)`.
    ///
    /// Variances use the (optionally smoothed) empirical agreement
    /// rates; cross covariances use the plug-in error estimates, with
    /// `p(1−p)` evaluated after clamping `p` into `[0, 1/2]` (the
    /// model's admissible range).
    fn agreement_covariance(
        &self,
        triangle: &Triangle,
        overlaps: &TripleOverlaps,
        stats: (&PairStats, &PairStats, &PairStats),
        plugins: (f64, f64, f64),
    ) -> Matrix {
        let (s_i1, s_i2, s_12) = stats;
        let (p_i, p_1, p_2) = plugins;
        let var = |s: &PairStats| -> f64 {
            let c = s.common_tasks as f64;
            let q = if self.config.variance_smoothing {
                (s.agreements as f64 + 0.5) / (c + 1.0)
            } else {
                s.agreements as f64 / c
            };
            q * (1.0 - q) / c
        };
        let pq = |p: f64| -> f64 {
            let p = p.clamp(0.0, 0.5);
            p * (1.0 - p)
        };
        let c_all = overlaps.c_all as f64;
        let c_i1 = overlaps.c_i_j1 as f64;
        let c_i2 = overlaps.c_i_j2 as f64;
        let c_12 = overlaps.c_j1_j2 as f64;

        let mut cov = Matrix::zeros(3, 3);
        cov.set(0, 0, var(s_i1));
        cov.set(1, 1, var(s_i2));
        cov.set(2, 2, var(s_12));
        // Cov(Q_ij₁, Q_ij₂): shared worker i, "other" agreement q_j₁j₂.
        let c01 = c_all * pq(p_i) * (2.0 * triangle.q_jk - 1.0) / (c_i1 * c_i2);
        // Cov(Q_ij₁, Q_j₁j₂): shared worker j₁, other agreement q_ij₂.
        let c02 = c_all * pq(p_1) * (2.0 * triangle.q_ik - 1.0) / (c_i1 * c_12);
        // Cov(Q_ij₂, Q_j₁j₂): shared worker j₂, other agreement q_ij₁.
        let c12 = c_all * pq(p_2) * (2.0 * triangle.q_ij - 1.0) / (c_i2 * c_12);
        // The plug-in cross terms can violate Cauchy-Schwarz against
        // the empirical variances on degenerate data (e.g. clamped
        // agreement rates); clip to keep the matrix (near-)PSD.
        let clip = |c: f64, va: f64, vb: f64| -> f64 {
            let bound = 0.99 * (va * vb).sqrt();
            c.clamp(-bound, bound)
        };
        let (v0, v1, v2) = (cov.get(0, 0), cov.get(1, 1), cov.get(2, 2));
        let c01 = clip(c01, v0, v1);
        let c02 = clip(c02, v0, v2);
        let c12 = clip(c12, v1, v2);
        cov.set(0, 1, c01);
        cov.set(1, 0, c01);
        cov.set(0, 2, c02);
        cov.set(2, 0, c02);
        cov.set(1, 2, c12);
        cov.set(2, 1, c12);
        cov
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DegeneracyPolicy;
    use crowd_data::{Label, ResponseMatrixBuilder, TaskId};
    use crowd_sim::{BinaryScenario, rng};

    fn estimator() -> ThreeWorkerEstimator {
        ThreeWorkerEstimator::new(EstimatorConfig::default())
    }

    /// Deterministic matrix where w2 disagrees with w0/w1 on exactly
    /// 20% of tasks and w0 == w1 always.
    fn deterministic_matrix() -> ResponseMatrix {
        let mut b = ResponseMatrixBuilder::new(3, 100, 2);
        for t in 0..100u32 {
            b.push(WorkerId(0), TaskId(t), Label(0)).unwrap();
            b.push(WorkerId(1), TaskId(t), Label(0)).unwrap();
            let l = if t < 20 { Label(1) } else { Label(0) };
            b.push(WorkerId(2), TaskId(t), l).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn point_estimates_solve_the_triangle() {
        // q01 = 1, q02 = q12 = 0.8 (after clamping q01 slightly below 1
        // is not needed; 2q-1 = 1). p̂₂ = 1/2 - 1/2·sqrt(0.6·0.6/1.0) = 0.2.
        let data = deterministic_matrix();
        let est = estimator()
            .triple_estimate(&data, WorkerId(2), WorkerId(0), WorkerId(1))
            .unwrap();
        assert!((est.p_hat - 0.2).abs() < 1e-12, "p̂₂ = {}", est.p_hat);
        // And the perfect workers get p̂ = 0.
        let est0 = estimator()
            .triple_estimate(&data, WorkerId(0), WorkerId(1), WorkerId(2))
            .unwrap();
        assert!(est0.p_hat.abs() < 1e-12, "p̂₀ = {}", est0.p_hat);
    }

    #[test]
    fn overlaps_are_recorded() {
        let data = deterministic_matrix();
        let est = estimator()
            .triple_estimate(&data, WorkerId(2), WorkerId(0), WorkerId(1))
            .unwrap();
        assert_eq!(est.overlaps.c_i_j1, 100);
        assert_eq!(est.overlaps.c_all, 100);
        assert_eq!(est.peers, (WorkerId(0), WorkerId(1)));
    }

    #[test]
    fn interval_covers_truth_in_simulation() {
        // 90% intervals over repeated simulations should cover the true
        // error rate close to 90% of the time.
        let scenario = BinaryScenario::paper_default(3, 150, 1.0);
        let est = estimator();
        let mut covered = 0;
        let mut total = 0;
        let mut r = rng(101);
        for _ in 0..300 {
            let inst = scenario.generate(&mut r);
            if let Ok(cis) = est.evaluate_triple(inst.responses(), 0.9) {
                for w in 0..3u32 {
                    total += 1;
                    if cis[w as usize].contains(inst.true_error_rate(WorkerId(w))) {
                        covered += 1;
                    }
                }
            }
        }
        let coverage = covered as f64 / total as f64;
        assert!(
            (coverage - 0.9).abs() < 0.05,
            "coverage {coverage} over {total} intervals, expected ≈ 0.9"
        );
    }

    #[test]
    fn estimates_concentrate_with_more_tasks() {
        let est = estimator();
        let mut r = rng(7);
        let small = BinaryScenario::paper_default(3, 50, 1.0).generate(&mut r);
        let large = BinaryScenario::paper_default(3, 2000, 1.0).generate(&mut r);
        let ci_small = est.evaluate_triple(small.responses(), 0.9).unwrap();
        let ci_large = est.evaluate_triple(large.responses(), 0.9).unwrap();
        let avg = |cis: &[ConfidenceInterval; 3]| cis.iter().map(|c| c.size()).sum::<f64>() / 3.0;
        assert!(
            avg(&ci_large) < avg(&ci_small) / 2.0,
            "large-n intervals should be much tighter: {} vs {}",
            avg(&ci_large),
            avg(&ci_small)
        );
    }

    #[test]
    fn nonregular_data_uses_pairwise_overlaps() {
        // Workers overlap on different subsets (the §III-B example
        // shape); estimates must still be finite and sane.
        let mut b = ResponseMatrixBuilder::new(3, 100, 2);
        let mut r = rng(3);
        use rand::RngExt;
        for t in 0..100u32 {
            // truth is always 0; workers err with prob .1/.2/.3
            if t < 80 {
                let l = if r.random::<f64>() < 0.1 {
                    Label(1)
                } else {
                    Label(0)
                };
                b.push(WorkerId(0), TaskId(t), l).unwrap();
            }
            if t >= 20 {
                let l = if r.random::<f64>() < 0.2 {
                    Label(1)
                } else {
                    Label(0)
                };
                b.push(WorkerId(1), TaskId(t), l).unwrap();
            }
            if (10..90).contains(&t) {
                let l = if r.random::<f64>() < 0.3 {
                    Label(1)
                } else {
                    Label(0)
                };
                b.push(WorkerId(2), TaskId(t), l).unwrap();
            }
        }
        let data = b.build().unwrap();
        let est = estimator();
        let e = est
            .triple_estimate(&data, WorkerId(0), WorkerId(1), WorkerId(2))
            .unwrap();
        assert_eq!(e.overlaps.c_i_j1, 60);
        assert_eq!(e.overlaps.c_i_j2, 70);
        assert_eq!(e.overlaps.c_j1_j2, 70);
        assert_eq!(e.overlaps.c_all, 60);
        assert!(e.p_hat.is_finite());
        assert!(e.deviation > 0.0);
    }

    #[test]
    fn no_overlap_is_an_error() {
        let mut b = ResponseMatrixBuilder::new(3, 4, 2);
        b.push(WorkerId(0), TaskId(0), Label(0)).unwrap();
        b.push(WorkerId(1), TaskId(1), Label(0)).unwrap();
        b.push(WorkerId(2), TaskId(2), Label(0)).unwrap();
        let data = b.build().unwrap();
        let err = estimator()
            .triple_estimate(&data, WorkerId(0), WorkerId(1), WorkerId(2))
            .unwrap_err();
        assert!(matches!(err, EstimateError::InsufficientOverlap { .. }));
    }

    #[test]
    fn strict_policy_propagates_degeneracy() {
        // Antagonistic worker 2 agrees with nobody → q below 1/2.
        let mut b = ResponseMatrixBuilder::new(3, 50, 2);
        for t in 0..50u32 {
            b.push(WorkerId(0), TaskId(t), Label(0)).unwrap();
            b.push(WorkerId(1), TaskId(t), Label(0)).unwrap();
            b.push(WorkerId(2), TaskId(t), Label(1)).unwrap();
        }
        let data = b.build().unwrap();
        let strict = ThreeWorkerEstimator::new(EstimatorConfig::default());
        assert!(matches!(
            strict.triple_estimate(&data, WorkerId(0), WorkerId(1), WorkerId(2)),
            Err(EstimateError::Degenerate { .. })
        ));
        // The default clamp policy survives it.
        let clamped = ThreeWorkerEstimator::new(EstimatorConfig {
            degeneracy: DegeneracyPolicy::Clamp { epsilon: 0.01 },
            ..EstimatorConfig::default()
        });
        let est = clamped
            .triple_estimate(&data, WorkerId(0), WorkerId(1), WorkerId(2))
            .unwrap();
        assert!(est.p_hat.is_finite());
    }

    #[test]
    fn wrong_worker_count_rejected() {
        let mut b = ResponseMatrixBuilder::new(2, 2, 2);
        b.push(WorkerId(0), TaskId(0), Label(0)).unwrap();
        b.push(WorkerId(1), TaskId(0), Label(0)).unwrap();
        let data = b.build().unwrap();
        assert!(matches!(
            estimator().evaluate_triple(&data, 0.9),
            Err(EstimateError::NotEnoughWorkers { got: 2, need: 3 })
        ));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_worker_in_triple_panics() {
        let data = deterministic_matrix();
        let _ = estimator().triple_estimate(&data, WorkerId(0), WorkerId(0), WorkerId(1));
    }

    #[test]
    fn deviation_shrinks_like_inverse_sqrt_n() {
        // Build two deterministic matrices with identical rates but 4x
        // the tasks; deviation should halve (Lemma 3 variances ∝ 1/c).
        let make = |n: u32| {
            let mut b = ResponseMatrixBuilder::new(3, n as usize, 2);
            for t in 0..n {
                b.push(WorkerId(0), TaskId(t), Label(0)).unwrap();
                b.push(WorkerId(1), TaskId(t), Label((t % 5 == 0) as u16))
                    .unwrap();
                b.push(WorkerId(2), TaskId(t), Label((t % 4 == 0) as u16))
                    .unwrap();
            }
            b.build().unwrap()
        };
        let est = estimator();
        let small = est
            .triple_estimate(&make(100), WorkerId(0), WorkerId(1), WorkerId(2))
            .unwrap();
        let large = est
            .triple_estimate(&make(400), WorkerId(0), WorkerId(1), WorkerId(2))
            .unwrap();
        let ratio = small.deviation / large.deviation;
        assert!(
            (ratio - 2.0).abs() < 0.1,
            "deviation ratio {ratio}, expected ≈ 2"
        );
    }
}
