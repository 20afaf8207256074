//! The m-worker estimator — Algorithm A2 (§III-C).
//!
//! To evaluate worker `i` among `m` workers on non-regular data:
//!
//! 1. split the other workers into disjoint pairs, greedily by task
//!    overlap with `i` ([`crate::pairing`]);
//! 2. run the 3-worker method on every triple `(i, j₁, j₂)`, keeping
//!    the per-triple estimate `p_{k,i}`, its deviation and the Lemma 2
//!    derivatives ([`crate::three_worker`]);
//! 3. assemble the cross-triple covariance matrix with **Lemma 4** —
//!    triples correlate because they all contain worker `i`'s
//!    responses — and combine the estimates with the **Lemma 5**
//!    minimum-variance weights;
//! 4. apply Theorem 1 once more for the final interval.
//!
//! # Sparse-data caveat
//!
//! Triples whose agreement rate falls at or below 1/2 cannot be
//! inverted and are dropped (the paper's failure mode). When pair
//! overlaps are tiny (a handful of common tasks), that drop becomes a
//! strong *selection* effect: the surviving triples saw unusually high
//! agreement, so the combined estimate is biased toward zero error.
//! On very sparse datasets raise
//! [`EstimatorConfig::min_pair_overlap`](crate::EstimatorConfig) (the
//! experiment harness uses 10 for the real-data figures, mirroring the
//! paper's §IV-C overlap threshold `t`); workers without enough
//! well-overlapped peers are then reported as failures instead of
//! being silently mis-estimated.

use crate::three_worker::{ThreeWorkerEstimator, TripleEstimate};
use crate::{
    EstimateError, Estimator, EstimatorConfig, Report, Result, WorkerAssessment, WorkerReport,
};
use crowd_data::{
    AnchoredOverlap, OverlapSource, PeerGram, PeerGramScratch, PeerPairs, ResponseMatrix,
    StreamingIndex, WorkerId,
};
use crowd_linalg::Matrix;
use crowd_stats::{ConfidenceInterval, min_variance_weights};

/// Reusable scratch for one evaluation loop: the candidate and
/// peer-id buffers and the [`PeerGram`] and [`PeerPairs`] tables
/// survive from one evaluated worker to the next (the anchored view's
/// mask words and the pair fill's column map live in the substrate's
/// own build scratch), so a loop runs allocation-free once all have
/// reached their high-water marks. Scratch state never influences
/// outputs.
#[derive(Debug, Default)]
struct EvalScratch {
    candidates: Vec<crate::pairing::Candidate>,
    peers: Vec<WorkerId>,
    gram: PeerGram,
    gram_scratch: PeerGramScratch,
    pair_table: PeerPairs,
}

/// The m-worker estimator (Algorithm A2).
///
/// # Example
///
/// ```
/// use crowd_core::{EstimatorConfig, MWorkerEstimator};
/// use crowd_sim::BinaryScenario;
///
/// // 7 workers, 100 binary tasks, 80% attempt density.
/// let instance = BinaryScenario::paper_default(7, 100, 0.8)
///     .generate(&mut crowd_sim::rng(42));
///
/// let estimator = MWorkerEstimator::new(EstimatorConfig::default());
/// let report = estimator.evaluate_all(instance.responses(), 0.9)?;
/// assert_eq!(report.assessments.len(), 7);
/// for a in &report.assessments {
///     // Every interval is a proper 90% confidence interval on the
///     // worker's error rate, derived purely from agreement data.
///     assert!(a.interval.size() > 0.0);
/// }
/// # Ok::<(), crowd_core::EstimateError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MWorkerEstimator {
    config: EstimatorConfig,
    three: ThreeWorkerEstimator,
}

impl MWorkerEstimator {
    /// Creates an estimator with the given configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        Self {
            three: ThreeWorkerEstimator::new(config.clone()),
            config,
        }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Algorithm A2 for one worker over any overlap substrate. Every
    /// statistic the pipeline touches — candidate overlaps, the three
    /// agreement rates per triple, `c_ij₁j₂`, and the Lemma 4
    /// cross-triple counts `c_iab` and agreement rates `q_ab` — comes
    /// from `src`, so the same code runs against merge scans over a
    /// [`ResponseMatrix`] (the naive reference) or a [`StreamingIndex`]
    /// (pair-row walks, anchored bitset triples). Outputs are identical
    /// across substrates.
    pub fn evaluate_worker<S: OverlapSource>(
        &self,
        src: &S,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<WorkerAssessment> {
        self.evaluate_in(src, worker, confidence, &mut EvalScratch::default())
    }

    /// [`MWorkerEstimator::evaluate_worker`] for a set of workers,
    /// collecting per-worker outcomes into one [`WorkerReport`]
    /// (assessments and failures in `workers` order). One scratch is
    /// reused across the loop; rows are bit-identical to evaluating
    /// each worker individually, so reports merged across shards with
    /// [`WorkerReport::merge`] equal a serial full-fleet pass.
    pub fn evaluate_workers_on<S: OverlapSource>(
        &self,
        src: &S,
        workers: &[WorkerId],
        confidence: f64,
    ) -> Result<WorkerReport> {
        let mut scratch = EvalScratch::default();
        Report::evaluate(src.n_workers(), workers.iter().copied(), |w| {
            self.evaluate_in(src, w, confidence, &mut scratch)
        })
    }

    /// Evaluates every worker, collecting per-worker failures instead
    /// of aborting (sparse real data routinely has a few unevaluable
    /// workers).
    ///
    /// Bulk-loads the matrix into a [`StreamingIndex`] in a single
    /// pass and evaluates every worker against it, so every downstream
    /// statistic becomes a table lookup or bitset popcount. Results
    /// are identical to [`MWorkerEstimator::evaluate_workers_on`] over
    /// the matrix itself.
    pub fn evaluate_all(&self, data: &ResponseMatrix, confidence: f64) -> Result<WorkerReport> {
        let workers: Vec<WorkerId> = data.workers().collect();
        self.evaluate_workers_on(&StreamingIndex::from_matrix(data), &workers, confidence)
    }

    /// The evaluation body behind every entry point: pairing, the
    /// peer-scoped anchored view (built from the selected peer set, so
    /// it holds `O(peers)` mask rows — never `O(n_workers)`), one
    /// [`PeerGram`] pass answering every triple count of the
    /// evaluation, one [`PeerPairs`] fill answering every peer–peer
    /// pair statistic, triple estimation, and the Lemma 4/5
    /// combination.
    fn evaluate_in<S: OverlapSource>(
        &self,
        src: &S,
        worker: WorkerId,
        confidence: f64,
        scratch: &mut EvalScratch,
    ) -> Result<WorkerAssessment> {
        if src.n_workers() < 3 {
            return Err(EstimateError::NotEnoughWorkers {
                got: src.n_workers(),
                need: 3,
            });
        }
        let EvalScratch {
            candidates,
            peers,
            gram,
            gram_scratch,
            pair_table,
        } = scratch;
        // Each pair carries both peers' statistics against `worker`,
        // screened off its pair row.
        let pairs = crate::pairing::form_pairs_in(
            src,
            worker,
            self.config.pairing,
            self.config.min_pair_overlap,
            self.config.max_triples,
            candidates,
        );
        if pairs.is_empty() {
            return Err(EstimateError::NoUsableTriples { worker });
        }
        // One peer-scoped anchored view serves every triple of this
        // evaluation: `c_{worker,a,b}` for the triple estimates and for
        // the Lemma 4 covariance assembly below only ever pair up
        // workers the pairing selected. Sorted and deduplicated, so
        // the view's mask and both tables are sized by the
        // distinct-peer count, not 2·pairs.
        peers.clear();
        peers.extend(pairs.iter().flat_map(|&((a, _), (b, _))| [a, b]));
        peers.sort_unstable();
        peers.dedup();
        // Every `c_{worker,a,b}` this evaluation will ever ask for —
        // the per-triple `c_all` here and the O(T²) Lemma 4 loop below
        // — in one blocked pass; see `crowd_data::gram`. The view
        // lives for this statement only (one view at a time per
        // substrate).
        src.anchored_for(worker, peers)
            .gram_into(peers, gram, gram_scratch);
        // Every peer–peer pair statistic, likewise: one walk of each
        // peer's pair row. Same keys as the gram, so one row index
        // addresses both tables.
        src.peer_pairs_into(peers, pair_table);
        let mut triples: Vec<TripleEstimate> = Vec::with_capacity(pairs.len());
        let mut rows: Vec<(usize, usize)> = Vec::with_capacity(pairs.len());
        for (a, b) in pairs {
            let (row_a, row_b) = (gram.row_of(a.0), gram.row_of(b.0));
            match self.three.triple_estimate_from(
                worker,
                a,
                b,
                pair_table.at(row_a, row_b),
                gram.at(row_a, row_b),
            ) {
                Ok(t) => {
                    triples.push(t);
                    rows.push((row_a, row_b));
                }
                // A degenerate or under-overlapped triple is dropped;
                // the remaining triples still yield a valid (wider)
                // interval.
                Err(EstimateError::Degenerate { .. })
                | Err(EstimateError::InsufficientOverlap { .. }) => {}
                Err(other) => return Err(other),
            }
        }
        if triples.is_empty() {
            return Err(EstimateError::NoUsableTriples { worker });
        }

        if triples.len() == 1 {
            let t = &triples[0];
            let interval = ConfidenceInterval::from_deviation(t.p_hat, t.deviation, confidence)?;
            return Ok(WorkerAssessment {
                worker,
                interval,
                triples_used: 1,
                weights_fell_back: false,
            });
        }

        let cov = self.triple_covariance(gram, pair_table, &triples, &rows);
        let weights = min_variance_weights(&cov, self.config.weight_policy)?;
        let p_hat: f64 = weights
            .weights
            .iter()
            .zip(&triples)
            .map(|(w, t)| w * t.p_hat)
            .sum();
        let interval =
            ConfidenceInterval::from_deviation(p_hat, weights.variance.sqrt(), confidence)?;
        Ok(WorkerAssessment {
            worker,
            interval,
            triples_used: triples.len(),
            weights_fell_back: weights.fell_back,
        })
    }

    /// Lemma 4: the l×l covariance matrix of the per-triple estimates
    /// `p_{k,i}`.
    ///
    /// Diagonal: `Dev²_{k,i}`. Off-diagonal, for triples `(i,j₁,j₂)` and
    /// `(i,j₃,j₄)`:
    ///
    /// ```text
    /// Cov = Σ_{a ∈ {j₁,j₂}} Σ_{b ∈ {j₃,j₄}} d_{k₁,i,a}·d_{k₂,i,b}·C(i,a,b)
    /// C(i,a,b) = c_{iab} · p_i(1−p_i) · (2q_{ab} − 1) / (c_{ia}·c_{ib})
    /// ```
    ///
    /// The pairs are disjoint across triples, so only agreement rates
    /// that share worker `i` correlate; `p_i` is plugged in as the mean
    /// of the per-triple estimates clamped into the admissible
    /// `[0, 1/2]`.
    ///
    /// The `c_iab` counts and the agreement rates `q_ab` — the `O(l²)`
    /// hot spot of this assembly — are O(1) reads of the evaluation's
    /// [`PeerGram`] (one blocked popcount pass up front) and
    /// [`PeerPairs`] (one walk of each peer's pair row), at the rows
    /// `rows[k]` of triple `k`'s peers, resolved once.
    fn triple_covariance(
        &self,
        gram: &PeerGram,
        pair_table: &PeerPairs,
        triples: &[TripleEstimate],
        rows: &[(usize, usize)],
    ) -> Matrix {
        let l = triples.len();
        let p_i = {
            let mean = triples.iter().map(|t| t.p_hat).sum::<f64>() / l as f64;
            mean.clamp(0.0, 0.5)
        };
        let pq_i = p_i * (1.0 - p_i);

        let mut cov = Matrix::zeros(l, l);
        for (k, t) in triples.iter().enumerate() {
            cov.set(k, k, t.deviation * t.deviation);
        }
        for k1 in 0..l {
            for k2 in (k1 + 1)..l {
                let t1 = &triples[k1];
                let t2 = &triples[k2];
                let mut sum = 0.0;
                let peers1 = [
                    (rows[k1].0, t1.gradient[0], t1.overlaps.c_i_j1),
                    (rows[k1].1, t1.gradient[1], t1.overlaps.c_i_j2),
                ];
                let peers2 = [
                    (rows[k2].0, t2.gradient[0], t2.overlaps.c_i_j1),
                    (rows[k2].1, t2.gradient[1], t2.overlaps.c_i_j2),
                ];
                for &(row_a, d_a, c_ia) in &peers1 {
                    for &(row_b, d_b, c_ib) in &peers2 {
                        let c_iab = gram.at(row_a, row_b);
                        if c_iab == 0 {
                            continue;
                        }
                        let s_ab = pair_table.at(row_a, row_b);
                        // c_iab > 0 implies a and b share tasks.
                        let q_ab = s_ab
                            .agreement_rate()
                            .expect("triple overlap implies pair overlap");
                        sum += d_a
                            * d_b
                            * (c_iab as f64 * pq_i * (2.0 * q_ab - 1.0)
                                / (c_ia as f64 * c_ib as f64));
                    }
                }
                // Cauchy-Schwarz clip against the diagonal, mirroring
                // the 3-worker covariance assembly.
                let bound = 0.99 * (cov.get(k1, k1) * cov.get(k2, k2)).sqrt();
                let sum = sum.clamp(-bound, bound);
                cov.set(k1, k2, sum);
                cov.set(k2, k1, sum);
            }
        }
        cov
    }
}

impl Estimator for MWorkerEstimator {
    type Assessment = WorkerAssessment;

    fn from_config(config: EstimatorConfig) -> Self {
        Self::new(config)
    }

    fn evaluate_streamed(
        &self,
        stream: &StreamingIndex,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<WorkerAssessment> {
        self.evaluate_worker(stream, worker, confidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_sim::{AttemptDesign, BinaryScenario, rng};
    use crowd_stats::WeightPolicy;

    fn estimator() -> MWorkerEstimator {
        MWorkerEstimator::new(EstimatorConfig::default())
    }

    #[test]
    fn evaluates_every_worker_on_dense_data() {
        let inst = BinaryScenario::paper_default(7, 100, 0.8).generate(&mut rng(21));
        let report = estimator().evaluate_all(inst.responses(), 0.9).unwrap();
        assert_eq!(report.assessments.len(), 7);
        assert!(report.failures.is_empty());
        for a in &report.assessments {
            assert!(a.interval.size() > 0.0);
            assert!(a.triples_used >= 1);
        }
    }

    #[test]
    fn seven_workers_use_three_triples() {
        let inst = BinaryScenario::paper_default(7, 100, 1.0).generate(&mut rng(21));
        let a = estimator()
            .evaluate_worker(inst.responses(), WorkerId(0), 0.9)
            .unwrap();
        assert_eq!(a.triples_used, 3);
    }

    #[test]
    fn coverage_tracks_confidence_level() {
        // Fig 2(a) in miniature: 90% intervals on m=7, n=100, d=0.8.
        let scenario = BinaryScenario::paper_default(7, 100, 0.8);
        let est = estimator();
        let mut r = rng(31);
        let mut stats = crate::CoverageStats::default();
        for _ in 0..60 {
            let inst = scenario.generate(&mut r);
            let report = est.evaluate_all(inst.responses(), 0.9).unwrap();
            stats.merge(report.coverage(|w| Some(inst.true_error_rate(w))));
        }
        let acc = stats.accuracy().unwrap();
        assert!(
            (acc - 0.9).abs() < 0.06,
            "coverage {acc} over {} intervals, expected ≈ 0.9",
            stats.total
        );
    }

    #[test]
    fn more_workers_tighten_intervals() {
        // With more triples to average, intervals shrink (Fig 1 shape).
        let mut r = rng(37);
        let est = estimator();
        let mut size3 = 0.0;
        let mut size7 = 0.0;
        let reps = 30;
        for _ in 0..reps {
            let i3 = BinaryScenario::paper_default(3, 100, 1.0).generate(&mut r);
            let i7 = BinaryScenario::paper_default(7, 100, 1.0).generate(&mut r);
            size3 += est
                .evaluate_all(i3.responses(), 0.8)
                .unwrap()
                .mean_interval_size();
            size7 += est
                .evaluate_all(i7.responses(), 0.8)
                .unwrap()
                .mean_interval_size();
        }
        assert!(
            size7 < size3 * 0.8,
            "7-worker intervals should be distinctly tighter: {size7} vs {size3}"
        );
    }

    #[test]
    fn optimized_weights_beat_uniform_on_heterogeneous_density() {
        // Fig 2(c) in miniature: per-worker densities sloping 0.93→0.5.
        let mut scenario = BinaryScenario::paper_default(7, 100, 0.8);
        scenario.design = AttemptDesign::PerWorkerDensity(crowd_sim::fig2c_densities(7));
        let opt = MWorkerEstimator::new(EstimatorConfig::default());
        let uni = MWorkerEstimator::new(EstimatorConfig::with_uniform_weights());
        let mut r = rng(41);
        let mut opt_size = 0.0;
        let mut uni_size = 0.0;
        for _ in 0..25 {
            let inst = scenario.generate(&mut r);
            opt_size += opt
                .evaluate_all(inst.responses(), 0.5)
                .unwrap()
                .mean_interval_size();
            uni_size += uni
                .evaluate_all(inst.responses(), 0.5)
                .unwrap()
                .mean_interval_size();
        }
        assert!(
            opt_size < uni_size,
            "optimized weights must not be wider: {opt_size} vs {uni_size}"
        );
    }

    #[test]
    fn uniform_policy_reports_equal_weights_effect() {
        let inst = BinaryScenario::paper_default(5, 120, 0.9).generate(&mut rng(43));
        let est = MWorkerEstimator::new(EstimatorConfig {
            weight_policy: WeightPolicy::Uniform,
            ..EstimatorConfig::default()
        });
        let a = est
            .evaluate_worker(inst.responses(), WorkerId(2), 0.8)
            .unwrap();
        assert_eq!(a.triples_used, 2);
        assert!(!a.weights_fell_back);
    }

    #[test]
    fn too_few_workers_rejected() {
        let inst = BinaryScenario::paper_default(2, 30, 1.0).generate(&mut rng(47));
        assert!(matches!(
            estimator().evaluate_all(inst.responses(), 0.9),
            Err(EstimateError::NotEnoughWorkers { .. })
        ));
    }

    /// One substrate's build scratch and one evaluation scratch,
    /// driven over the workers busiest-first and then quietest-first,
    /// give every worker exactly the assessment a fresh substrate
    /// gives it: reused mask words never leak bits. The k-ary leg is
    /// the test of the same name in `kary::m_worker`.
    #[test]
    fn scratch_reuse_matches_fresh_views_per_worker() {
        let mut scenario = BinaryScenario::paper_default(9, 160, 0.6);
        // Degrees from ~90% down to ~20% of the tasks.
        scenario.design =
            AttemptDesign::PerWorkerDensity((0..9).map(|w| 0.9 - 0.09 * w as f64).collect());
        let inst = scenario.generate(&mut rng(67));
        let data = inst.responses();
        let shared = StreamingIndex::from_matrix(data);
        let est = estimator();
        let mut scratch = EvalScratch::default();
        let mut order: Vec<WorkerId> = data.workers().collect();
        order.sort_by_key(|&w| std::cmp::Reverse(data.worker_task_count(w)));
        let quiet_first: Vec<WorkerId> = order.iter().rev().copied().collect();
        order.extend(quiet_first);
        for worker in order {
            let fresh = est.evaluate_worker(&StreamingIndex::from_matrix(data), worker, 0.9);
            let reused = est.evaluate_in(&shared, worker, 0.9, &mut scratch);
            match (fresh, reused) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.interval, b.interval, "worker {worker:?}");
                    assert_eq!(a.triples_used, b.triples_used);
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("outcome mismatch for {worker:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn isolated_worker_fails_gracefully() {
        // Worker 3 answers only a task nobody else attempts.
        use crowd_data::{Label, ResponseMatrixBuilder, TaskId};
        let mut b = ResponseMatrixBuilder::new(4, 21, 2);
        for w in 0..3u32 {
            for t in 0..20u32 {
                b.push(WorkerId(w), TaskId(t), Label((t % 5 == 0 && w == 2) as u16))
                    .unwrap();
            }
        }
        b.push(WorkerId(3), TaskId(20), Label(0)).unwrap();
        let data = b.build().unwrap();
        let report = estimator().evaluate_all(&data, 0.9).unwrap();
        assert_eq!(report.assessments.len(), 3);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].0, WorkerId(3));
        assert!(matches!(
            report.failures[0].1,
            EstimateError::NoUsableTriples { .. }
        ));
    }

    #[test]
    fn point_estimates_are_consistent() {
        // Large n: point estimates should approach the true error rates.
        let inst = BinaryScenario::paper_default(5, 4000, 1.0).generate(&mut rng(53));
        let report = estimator().evaluate_all(inst.responses(), 0.9).unwrap();
        for a in &report.assessments {
            let truth = inst.true_error_rate(a.worker);
            assert!(
                (a.interval.center - truth).abs() < 0.04,
                "worker {:?}: estimate {} vs truth {truth}",
                a.worker,
                a.interval.center
            );
        }
    }
}
