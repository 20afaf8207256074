//! m-worker k-ary estimation — the natural composition of Algorithms
//! A2 and A3, provided as an **extension beyond the paper**.
//!
//! The paper's k-ary method (Algorithm A3, §IV) evaluates exactly three
//! workers; its real-data protocol (§IV-C) side-steps larger crowds by
//! sampling random triples. This module evaluates *every* worker of an
//! m-worker k-ary dataset the way Algorithm A2 does for binary data:
//!
//! 1. split the peers of the evaluated worker `w` into disjoint pairs,
//!    greedily by task overlap ([`crate::pairing`]);
//! 2. run the full A3 pipeline on each triple `(w, a, b)` with `w` in
//!    slot 1, keeping the point estimates `V₁ = S^{1/2}P_w`, their exact
//!    forward-mode gradients and the Lemma 9 counts covariance
//!    ([`super::estimator::triple_detail`]);
//! 3. for each response-probability entry, combine the per-triple
//!    estimates with the Lemma 5 minimum-variance weights against a
//!    cross-triple covariance matrix (see below);
//! 4. apply Theorem 1 once more per entry, and row-normalize exactly as
//!    A3 does.
//!
//! # Cross-triple covariance
//!
//! Estimates from triples `(w, a₁, b₁)` and `(w, a₂, b₂)` correlate
//! because both observe worker `w`'s responses (and the true labels) on
//! the tasks all five workers share. For counts entries
//! `e₁ = (x₁, y₁, z₁)` and `e₂ = (x₂, y₂, z₂)` of the two tensors'
//! all-three blocks, each of the `n₅` shared tasks contributes
//!
//! ```text
//! Cov(C₁[e₁], C₂[e₂]) = n₅·( 1(x₁ = x₂)·J − π₁·π₂ )
//! π₁ = Σ_t S_t·P_w[t,x₁]·P_{a₁}[t,y₁]·P_{b₁}[t,z₁]
//! π₂ = Σ_t S_t·P_w[t,x₂]·P_{a₂}[t,y₂]·P_{b₂}[t,z₂]
//! J  = Σ_t S_t·P_w[t,x₁]·P_{a₁}[t,y₁]·P_{b₁}[t,z₁]·P_{a₂}[t,y₂]·P_{b₂}[t,z₂]
//! ```
//!
//! (tasks observed by only one triple are independent across triples
//! and contribute nothing). The model quantities are plugged in from
//! the per-triple estimates, mirroring how Lemma 4 plugs `p̂ᵢ` and
//! `q̂ₐᵦ` into the binary cross-triple covariance. Pushing these counts
//! covariances through the per-triple gradients gives the entry-level
//! covariance used by the Lemma 5 weights.
//!
//! When [`EstimatorConfig::perturb_partial_counts`] is enabled, the
//! two-worker blocks participate in each triple's *own* variance but
//! are treated as independent across triples: a task in tensor 1's
//! `(w, a₁)` block can reach tensor 2's all-three block, but the
//! resulting terms are higher-order in sparsity and omitted. The
//! Cauchy-Schwarz clip below keeps the assembled matrices valid
//! regardless.
//!
//! # How much does aggregation help?
//!
//! Far less than in the binary case. The k-ary pipeline's sampling
//! noise is dominated by the evaluated worker's *own* multinomial
//! responses and the shared truth realization, which every triple
//! observes identically, so disjoint triples' estimates of the same
//! `V₁` entry are strongly correlated and the minimum-variance
//! combination shrinks intervals by far less than `√l`
//! (`more_workers_tighten_intervals_modestly` below asserts only that
//! seven workers' intervals are not wider than three workers'). The
//! real value of the extension is (a) evaluating *every* worker of a
//! large k-ary crowd instead of hand-picked triples, and (b)
//! robustness: a degenerate triple
//! (singular moment matrix, spectrum ties) no longer fails the
//! worker, because the surviving triples carry the estimate.

use crate::kary::estimator::{TripleDetail, triple_detail};
use crate::kary::prob_estimate::JacobianScratch;
use crate::pairing::form_pairs_limited;
use crate::{CoverageStats, EstimateError, Estimator, EstimatorConfig, Report, Result, WorkerRow};
use crowd_data::{
    AnchoredOverlap, CountsTensor, OverlapSource, PeerGramScratch, ResponseMatrix, StreamingIndex,
    TriplePairGram, WorkerId,
};
use crowd_linalg::Matrix;
use crowd_stats::{ConfidenceInterval, min_variance_weights};

/// Reusable scratch for one k-ary evaluation loop — the k-ary
/// counterpart of the binary estimator's scratch: the peer-id buffer
/// and the per-triple counts tensor survive from one triple and one
/// evaluated worker to the next, so the loop re-fills the same
/// allocations instead of building a fresh `(k+1)³` tensor per triple
/// (the anchored view's mask words and the counts fill's task codes
/// live in the substrate's own build scratch). Scratch state never
/// influences outputs.
#[derive(Debug, Default)]
struct KaryEvalScratch {
    peers: Vec<WorkerId>,
    /// Sized on first use, and re-shaped by
    /// [`OverlapSource::fill_counts`] on an arity change.
    tensor: Option<CountsTensor>,
    /// The cross-triple `n₅` table and the combined-mask scratch of
    /// its blocked kernel (see [`crowd_data::gram`]).
    n5: TriplePairGram,
    gram_scratch: PeerGramScratch,
    /// The per-triple tangent buffers of the Jacobian pass.
    jacobian: JacobianScratch,
}

/// The m-worker k-ary estimator (extension; composes Algorithms A2 and
/// A3).
///
/// # Example
///
/// ```
/// use crowd_core::{EstimatorConfig, KaryMWorkerEstimator};
/// use crowd_sim::KaryScenario;
///
/// // 5 workers, 400 ternary tasks, 90% attempt density.
/// let instance = KaryScenario::paper_default(3, 400, 0.9)
///     .with_workers(5)
///     .generate(&mut crowd_sim::rng(7));
///
/// let estimator = KaryMWorkerEstimator::new(EstimatorConfig::default());
/// let report = estimator.evaluate_all(instance.responses(), 0.9)?;
/// for a in &report.assessments {
///     // k×k response-probability intervals per worker.
///     assert_eq!(a.intervals.len(), 9);
/// }
/// # Ok::<(), crowd_core::EstimateError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct KaryMWorkerEstimator {
    config: EstimatorConfig,
}

/// Confidence intervals for one worker's k×k response-probability
/// matrix, aggregated over every usable triple.
#[derive(Debug, Clone)]
pub struct KaryWorkerAssessment {
    /// The evaluated worker.
    pub worker: WorkerId,
    /// Combined point estimate of `V = S^{1/2}·P_w`.
    pub v: Matrix,
    /// Row-normalized response-probability estimate `P̂_w`.
    pub response_prob: Matrix,
    /// Selectivity prior implied by the combined row masses.
    pub selectivity: Vec<f64>,
    /// k×k confidence intervals on `P_w`, row-major: entry `r·k + c`
    /// bounds `P_w[r, c]`.
    pub intervals: Vec<ConfidenceInterval>,
    /// Number of triples that contributed.
    pub triples_used: usize,
    /// True when any entry's weight solve fell back (singular
    /// covariance → ridge → uniform).
    pub weights_fell_back: bool,
}

impl KaryWorkerAssessment {
    /// The interval for `P(worker responds r_col | truth r_row)`.
    pub fn interval(&self, row: usize, col: usize) -> &ConfidenceInterval {
        &self.intervals[row * self.v.rows() + col]
    }

    /// Mean interval size across all k² response probabilities.
    pub fn mean_interval_size(&self) -> f64 {
        let total: f64 = self.intervals.iter().map(|ci| ci.size()).sum();
        total / self.intervals.len() as f64
    }

    /// Scores coverage of the worker's true response-probability
    /// matrix.
    pub fn coverage(&self, truth: &Matrix) -> CoverageStats {
        let k = self.v.rows();
        let mut stats = CoverageStats::default();
        for r in 0..k {
            for c in 0..k {
                stats.record(self.interval(r, c).contains(truth.get(r, c)));
            }
        }
        stats
    }
}

impl WorkerRow for KaryWorkerAssessment {
    fn worker(&self) -> WorkerId {
        self.worker
    }
}

/// Per-worker outcomes of an [`KaryMWorkerEstimator::evaluate_all`]
/// run; sparse data routinely leaves a few workers unevaluable.
pub type KaryWorkerReport = Report<KaryWorkerAssessment>;

impl KaryWorkerReport {
    /// Mean interval size over every assessed entry.
    pub fn mean_interval_size(&self) -> f64 {
        let total: f64 = self
            .assessments
            .iter()
            .map(|a| a.mean_interval_size())
            .sum();
        total / self.assessments.len().max(1) as f64
    }

    /// Coverage of true response-probability matrices, with `truth`
    /// supplying each worker's matrix (return `None` to skip).
    pub fn coverage(&self, truth: impl Fn(WorkerId) -> Option<Matrix>) -> CoverageStats {
        let mut stats = CoverageStats::default();
        for a in &self.assessments {
            if let Some(t) = truth(a.worker) {
                stats.merge(a.coverage(&t));
            }
        }
        stats
    }
}

/// One evaluated triple: the A3 detail plus the plug-in model
/// estimates the cross-covariance needs.
struct TripleCtx {
    peers: (WorkerId, WorkerId),
    detail: TripleDetail,
    /// Row-normalized `P̂` for slots (target, peer a, peer b).
    p_hat: [Matrix; 3],
    /// Delta-method variance of each `V₁` entry (k², row-major).
    var: Vec<f64>,
}

impl KaryMWorkerEstimator {
    /// Creates an estimator with the given configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        Self { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Evaluates one worker over any overlap substrate, aggregating
    /// every usable triple: pairing and the `n₅` cross-triple counts
    /// read `src`, and each triple's counts tensor comes from
    /// [`OverlapSource::fill_counts`] — a task scan over a
    /// [`ResponseMatrix`] or a scatter/gather pass over the triple's
    /// rows of a [`StreamingIndex`]. Outputs are identical across
    /// substrates.
    pub fn evaluate_worker<S: OverlapSource>(
        &self,
        src: &S,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<KaryWorkerAssessment> {
        self.evaluate_in(src, worker, confidence, &mut KaryEvalScratch::default())
    }

    /// [`KaryMWorkerEstimator::evaluate_worker`] for a set of workers,
    /// collecting per-worker outcomes into one [`KaryWorkerReport`]
    /// (assessments and failures in `workers` order). One scratch is
    /// reused across the loop; per-shard reports recombined with
    /// [`Report::merge`] equal a serial full-fleet pass.
    pub fn evaluate_workers_on<S: OverlapSource>(
        &self,
        src: &S,
        workers: &[WorkerId],
        confidence: f64,
    ) -> Result<KaryWorkerReport> {
        let mut scratch = KaryEvalScratch::default();
        Report::evaluate(src.n_workers(), workers.iter().copied(), |w| {
            self.evaluate_in(src, w, confidence, &mut scratch)
        })
    }

    /// Evaluates every worker, collecting per-worker failures instead
    /// of aborting. Bulk-loads one [`StreamingIndex`] and runs every
    /// worker against it, exactly like the binary
    /// [`crate::MWorkerEstimator::evaluate_all`].
    pub fn evaluate_all(&self, data: &ResponseMatrix, confidence: f64) -> Result<KaryWorkerReport> {
        let workers: Vec<WorkerId> = data.workers().collect();
        self.evaluate_workers_on(&StreamingIndex::from_matrix(data), &workers, confidence)
    }

    /// [`KaryMWorkerEstimator::evaluate_workers_on`] under its former
    /// streaming-only name, which the benchmark's layer trace still
    /// calls; it goes with the next benchmark change.
    #[doc(hidden)]
    pub fn evaluate_workers_streaming(
        &self,
        stream: &StreamingIndex,
        workers: &[WorkerId],
        confidence: f64,
    ) -> Result<KaryWorkerReport> {
        self.evaluate_workers_on(stream, workers, confidence)
    }

    /// The evaluation body behind every entry point: pairing, the
    /// per-triple A3 pipelines (each counts tensor re-filled into the
    /// scratch tensor), and — when more than one triple survives — the
    /// peer-scoped anchored view built from the selected peer set,
    /// whose one-pass
    /// [`AnchoredOverlap::pair_gram_into`] kernel batches every `n₅`
    /// cross-triple count.
    fn evaluate_in<S: OverlapSource>(
        &self,
        src: &S,
        worker: WorkerId,
        confidence: f64,
        scratch: &mut KaryEvalScratch,
    ) -> Result<KaryWorkerAssessment> {
        if src.n_workers() < 3 {
            return Err(EstimateError::NotEnoughWorkers {
                got: src.n_workers(),
                need: 3,
            });
        }
        let k = src.arity() as usize;
        let pairs = form_pairs_limited(
            src,
            worker,
            self.config.pairing,
            self.config.min_pair_overlap,
            self.config.max_triples,
        );

        let KaryEvalScratch {
            peers,
            tensor,
            n5,
            gram_scratch,
            jacobian,
        } = scratch;
        let mut ctxs: Vec<TripleCtx> = Vec::with_capacity(pairs.len());
        for (a, b) in pairs {
            let counts = tensor.get_or_insert_with(|| CountsTensor::zeros(k));
            src.fill_counts(counts, worker, a, b);
            match triple_detail(counts, &self.config, jacobian) {
                Ok(detail) => {
                    let p_hat = [
                        detail.base.response_probabilities(0),
                        detail.base.response_probabilities(1),
                        detail.base.response_probabilities(2),
                    ];
                    let var = entry_variances(&detail, k)?;
                    ctxs.push(TripleCtx {
                        peers: (a, b),
                        detail,
                        p_hat,
                        var,
                    });
                }
                // Degenerate decompositions and numerically singular
                // moment matrices are data problems of that one triple;
                // drop it and let the rest carry the estimate, exactly
                // as A2 drops uninvertible binary triples.
                Err(
                    EstimateError::Degenerate { .. }
                    | EstimateError::InsufficientOverlap { .. }
                    | EstimateError::Numerical(_),
                ) => {}
                Err(other) => return Err(other),
            }
        }
        if ctxs.is_empty() {
            return Err(EstimateError::NoUsableTriples { worker });
        }

        // Plug-in model quantities for the cross-triple covariance:
        // the mean of the per-triple estimates of P_w and S.
        let p_w = mean_matrix(ctxs.iter().map(|c| &c.p_hat[0]), k);
        let s_hat = mean_selectivity(&ctxs, k);

        let l = ctxs.len();
        let cells = k * k;
        let mut combined_v = Matrix::zeros(k, k);
        let mut combined_dev = vec![0.0; cells];
        let mut fell_back = false;

        // `n₅` per triple pair, hoisted out of the per-entry loops (it
        // is entry-independent) and batched through the blocked
        // [`AnchoredOverlap::pair_gram_into`] kernel: each triple's
        // two peer masks are AND-combined once and the T×T table is
        // one blocked Gram pass instead of O(T²) 4-way intersections.
        // The view is scoped to the surviving triples' peers (distinct
        // count ≤ 2l mask rows, never n_workers). With a single triple
        // there are no cross terms, so skip the view build entirely
        // (the common m = 3..4 case).
        if l >= 2 {
            // Sorted and deduplicated, so the view's mask is sized by
            // the distinct-peer count, not 2·pairs.
            peers.clear();
            peers.extend(ctxs.iter().flat_map(|c| [c.peers.0, c.peers.1]));
            peers.sort_unstable();
            peers.dedup();
            let pair_list: Vec<(WorkerId, WorkerId)> = ctxs.iter().map(|c| c.peers).collect();
            // One view at a time per substrate: it lives for this
            // statement only.
            src.anchored_for(worker, peers)
                .pair_gram_into(&pair_list, n5, gram_scratch);
        }

        // Per-entry J-term tables, shared across entries of one triple
        // pair only through the gradients, so built per entry below.
        for r in 0..k {
            for c in 0..k {
                let idx = r * k + c;
                let mut cov = Matrix::zeros(l, l);
                for (t, ctx) in ctxs.iter().enumerate() {
                    cov.set(t, t, ctx.var[idx]);
                }
                // A-tables: A[t1][truth][x] = Σ_{y,z} g[(x,y,z)]·
                // P̂_a[truth,y]·P̂_b[truth,z].
                let tables: Vec<Matrix> = ctxs.iter().map(|ctx| j_table(ctx, idx, k)).collect();
                for t1 in 0..l {
                    for t2 in (t1 + 1)..l {
                        let n5 = n5.get(t1, t2);
                        if n5 == 0 {
                            continue;
                        }
                        let raw = cross_entry_covariance(
                            n5 as f64,
                            &p_w,
                            &s_hat,
                            &tables[t1],
                            &tables[t2],
                        );
                        // Cauchy-Schwarz clip, as in the binary Lemma 4
                        // assembly: plug-in cross terms must not exceed
                        // what the diagonal admits.
                        let bound = 0.99 * (cov.get(t1, t1) * cov.get(t2, t2)).sqrt();
                        let clipped = raw.clamp(-bound, bound);
                        cov.set(t1, t2, clipped);
                        cov.set(t2, t1, clipped);
                    }
                }
                let weights = min_variance_weights(&cov, self.config.weight_policy)?;
                fell_back |= weights.fell_back;
                let estimate: f64 = weights
                    .weights
                    .iter()
                    .zip(&ctxs)
                    .map(|(w, ctx)| w * ctx.detail.base.v[0].get(r, c))
                    .sum();
                combined_v.set(r, c, estimate);
                combined_dev[idx] = weights.variance.sqrt();
            }
        }

        // Row-normalize to response probabilities, scaling the
        // intervals by the row mass exactly as A3's final step does.
        let mut intervals = Vec::with_capacity(cells);
        let mut response_prob = Matrix::zeros(k, k);
        let mut selectivity = vec![0.0; k];
        for r in 0..k {
            let mass: f64 = combined_v.row(r).iter().sum();
            if mass <= 0.0 {
                return Err(EstimateError::Degenerate {
                    what: format!("combined V row {r} has non-positive mass"),
                });
            }
            selectivity[r] = mass * mass;
            for c in 0..k {
                let idx = r * k + c;
                response_prob.set(r, c, combined_v.get(r, c) / mass);
                let ci = ConfidenceInterval::from_deviation(
                    combined_v.get(r, c),
                    combined_dev[idx],
                    confidence,
                )?
                .scaled(1.0 / mass);
                if !ci.half_width.is_finite() {
                    return Err(EstimateError::Degenerate {
                        what: format!("non-finite interval for P[{r},{c}]"),
                    });
                }
                intervals.push(ci);
            }
        }
        let total: f64 = selectivity.iter().sum();
        for s in selectivity.iter_mut() {
            *s /= total;
        }

        Ok(KaryWorkerAssessment {
            worker,
            v: combined_v,
            response_prob,
            selectivity,
            intervals,
            triples_used: l,
            weights_fell_back: fell_back,
        })
    }
}

impl Estimator for KaryMWorkerEstimator {
    type Assessment = KaryWorkerAssessment;

    fn from_config(config: EstimatorConfig) -> Self {
        Self::new(config)
    }

    fn evaluate_streamed(
        &self,
        stream: &StreamingIndex,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<KaryWorkerAssessment> {
        self.evaluate_worker(stream, worker, confidence)
    }
}

/// Delta-method variance of every `V₁` entry of one triple.
fn entry_variances(detail: &TripleDetail, k: usize) -> Result<Vec<f64>> {
    let mut var = Vec::with_capacity(k * k);
    for idx in 0..k * k {
        var.push(detail.cov.variance(&detail.gradients[0][idx])?);
    }
    Ok(var)
}

/// Mean of per-triple k×k matrices.
fn mean_matrix<'a>(mats: impl Iterator<Item = &'a Matrix>, k: usize) -> Matrix {
    let mut sum = Matrix::zeros(k, k);
    let mut n = 0usize;
    for m in mats {
        for r in 0..k {
            for c in 0..k {
                sum.set(r, c, sum.get(r, c) + m.get(r, c));
            }
        }
        n += 1;
    }
    let scale = 1.0 / n.max(1) as f64;
    Matrix::from_fn(k, k, |r, c| sum.get(r, c) * scale)
}

/// Mean of per-triple selectivity estimates.
fn mean_selectivity(ctxs: &[TripleCtx], k: usize) -> Vec<f64> {
    let mut s = vec![0.0; k];
    for ctx in ctxs {
        for (acc, v) in s.iter_mut().zip(ctx.detail.base.selectivity()) {
            *acc += v;
        }
    }
    let total: f64 = s.iter().sum();
    if total > 0.0 {
        for v in s.iter_mut() {
            *v /= total;
        }
    } else {
        s = vec![1.0 / k as f64; k];
    }
    s
}

/// The per-triple J-table for one `V₁` entry:
/// `table[truth][x] = Σ_{y,z} g[(x,y,z)]·P̂_a[truth,y]·P̂_b[truth,z]`,
/// restricted to the all-three counts block (see the module docs).
fn j_table(ctx: &TripleCtx, entry_idx: usize, k: usize) -> Matrix {
    let g = &ctx.detail.gradients[0][entry_idx];
    let pa = &ctx.p_hat[1];
    let pb = &ctx.p_hat[2];
    let mut table = Matrix::zeros(k, k);
    for (e, &(x, y, z)) in ctx.detail.entries.iter().enumerate() {
        if x == 0 || y == 0 || z == 0 {
            continue; // partial blocks excluded from cross terms
        }
        let ge = g[e];
        if ge == 0.0 {
            continue;
        }
        for truth in 0..k {
            let w = pa.get(truth, y - 1) * pb.get(truth, z - 1);
            table.set(truth, x - 1, table.get(truth, x - 1) + ge * w);
        }
    }
    table
}

/// Cross-triple covariance of one `V₁` entry given the two triples'
/// J-tables (see the module docs for the formula).
fn cross_entry_covariance(n5: f64, p_w: &Matrix, s_hat: &[f64], a1: &Matrix, a2: &Matrix) -> f64 {
    let k = p_w.rows();
    let mut joint = 0.0;
    let mut m1 = 0.0;
    let mut m2 = 0.0;
    for truth in 0..k {
        let s = s_hat[truth];
        if s == 0.0 {
            continue;
        }
        for x in 0..k {
            let pw = p_w.get(truth, x);
            joint += s * pw * a1.get(truth, x) * a2.get(truth, x);
            m1 += s * pw * a1.get(truth, x);
            m2 += s * pw * a2.get(truth, x);
        }
    }
    n5 * (joint - m1 * m2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kary::KaryEstimator;
    use crowd_data::TaskId;
    use crowd_sim::{AttemptDesign, KaryScenario, rng};
    use crowd_stats::WeightPolicy;

    fn estimator() -> KaryMWorkerEstimator {
        KaryMWorkerEstimator::new(EstimatorConfig::default())
    }

    #[test]
    fn evaluates_every_worker_on_dense_data() {
        let inst = KaryScenario::paper_default(2, 300, 1.0)
            .with_workers(5)
            .generate(&mut rng(71));
        let report = estimator().evaluate_all(inst.responses(), 0.9).unwrap();
        assert_eq!(report.assessments.len() + report.failures.len(), 5);
        assert!(
            report.assessments.len() >= 4,
            "failures: {:?}",
            report.failures
        );
        for a in &report.assessments {
            assert_eq!(a.intervals.len(), 4);
            assert_eq!(a.triples_used, 2);
            assert!(a.mean_interval_size() > 0.0);
            assert!(a.mean_interval_size().is_finite());
        }
    }

    #[test]
    fn three_workers_match_single_triple_a3() {
        // With m = 3 there is exactly one triple, so the m-worker path
        // must reproduce A3's slot-0 answer.
        let inst = KaryScenario::paper_default(2, 400, 1.0).generate(&mut rng(73));
        let workers = [WorkerId(0), WorkerId(1), WorkerId(2)];
        let triple = KaryEstimator::default()
            .evaluate(inst.responses(), workers, 0.8)
            .unwrap();
        let combined = estimator()
            .evaluate_worker(inst.responses(), WorkerId(0), 0.8)
            .unwrap();
        assert_eq!(combined.triples_used, 1);
        for r in 0..2 {
            for c in 0..2 {
                let a3 = triple.interval(0, r, c);
                let ext = combined.interval(r, c);
                assert!(
                    (a3.center - ext.center).abs() < 1e-9,
                    "centers differ at ({r},{c}): {} vs {}",
                    a3.center,
                    ext.center
                );
                assert!(
                    (a3.half_width - ext.half_width).abs() < 1e-9,
                    "widths differ at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn more_workers_tighten_intervals_modestly() {
        // Unlike the binary case, k-ary triple aggregation buys little:
        // the per-triple estimates of a V₁ entry are strongly
        // correlated across disjoint peer pairs (the noise is
        // dominated by worker w's own responses and the shared truth
        // realization), so the minimum-variance combination of three
        // triples shrinks intervals far less than √3. The honest
        // assertion is "never wider".
        let mut r = rng(79);
        let est = estimator();
        let mut size3 = 0.0;
        let mut size7 = 0.0;
        let mut n = 0;
        for _ in 0..8 {
            let i3 = KaryScenario::paper_default(2, 300, 1.0).generate(&mut r);
            let i7 = KaryScenario::paper_default(2, 300, 1.0)
                .with_workers(7)
                .generate(&mut r);
            let (Ok(a3), Ok(a7)) = (
                est.evaluate_worker(i3.responses(), WorkerId(0), 0.8),
                est.evaluate_worker(i7.responses(), WorkerId(0), 0.8),
            ) else {
                continue;
            };
            size3 += a3.mean_interval_size();
            size7 += a7.mean_interval_size();
            n += 1;
        }
        assert!(n >= 5, "too many degenerate repetitions");
        assert!(
            size7 < size3,
            "7-worker k-ary intervals should not be wider: {size7} vs {size3}"
        );
    }

    #[test]
    fn coverage_tracks_confidence_level() {
        let scenario = KaryScenario::paper_default(2, 300, 0.9).with_workers(5);
        let est = estimator();
        let mut r = rng(83);
        let mut stats = CoverageStats::default();
        for _ in 0..25 {
            let inst = scenario.generate(&mut r);
            let Ok(report) = est.evaluate_all(inst.responses(), 0.9) else {
                continue;
            };
            stats.merge(report.coverage(|w| Some(inst.true_confusion(w))));
        }
        let acc = stats.accuracy().expect("some successes");
        assert!(
            acc > 0.84,
            "m-worker k-ary coverage {acc} at c=0.9 over {} intervals",
            stats.total
        );
    }

    #[test]
    fn point_estimates_are_consistent() {
        let inst = KaryScenario::paper_default(3, 3000, 1.0)
            .with_workers(5)
            .generate(&mut rng(83));
        let a = estimator()
            .evaluate_worker(inst.responses(), WorkerId(1), 0.9)
            .unwrap();
        let truth = inst.true_confusion(WorkerId(1));
        for r in 0..3 {
            for c in 0..3 {
                assert!(
                    (a.response_prob.get(r, c) - truth.get(r, c)).abs() < 0.07,
                    "P[{r},{c}] = {} vs truth {}",
                    a.response_prob.get(r, c),
                    truth.get(r, c)
                );
            }
        }
    }

    #[test]
    fn response_prob_rows_are_distributions() {
        let inst = KaryScenario::paper_default(3, 500, 0.9)
            .with_workers(7)
            .generate(&mut rng(97));
        let a = estimator()
            .evaluate_worker(inst.responses(), WorkerId(0), 0.8)
            .unwrap();
        for r in 0..3 {
            let sum: f64 = a.response_prob.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {r} sums to {sum}");
        }
        let s: f64 = a.selectivity.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_weight_policy_is_supported() {
        let inst = KaryScenario::paper_default(2, 300, 1.0)
            .with_workers(7)
            .generate(&mut rng(101));
        let est = KaryMWorkerEstimator::new(EstimatorConfig {
            weight_policy: WeightPolicy::Uniform,
            ..EstimatorConfig::default()
        });
        let opt = estimator();
        let a_uni = est
            .evaluate_worker(inst.responses(), WorkerId(0), 0.8)
            .unwrap();
        let a_opt = opt
            .evaluate_worker(inst.responses(), WorkerId(0), 0.8)
            .unwrap();
        assert!(
            a_opt.mean_interval_size() <= a_uni.mean_interval_size() + 1e-12,
            "optimal weights must not widen intervals: {} vs {}",
            a_opt.mean_interval_size(),
            a_uni.mean_interval_size()
        );
    }

    #[test]
    fn too_few_workers_rejected() {
        let inst = KaryScenario::paper_default(2, 50, 1.0).generate(&mut rng(103));
        let (two, _) = inst.responses().retain_workers(|w| w.0 < 2);
        assert!(matches!(
            estimator().evaluate_all(&two, 0.9),
            Err(EstimateError::NotEnoughWorkers { .. })
        ));
    }

    #[test]
    fn isolated_worker_fails_gracefully() {
        use crowd_data::{Label, ResponseMatrixBuilder};
        let mut b = ResponseMatrixBuilder::new(4, 61, 2);
        let inst = KaryScenario::paper_default(2, 60, 1.0).generate(&mut rng(107));
        for resp in inst.responses().iter() {
            b.push(resp.worker, resp.task, resp.label).unwrap();
        }
        // Worker 3 answers only a task nobody else attempts.
        b.push(WorkerId(3), TaskId(60), Label(0)).unwrap();
        let data = b.build().unwrap();
        let report = estimator().evaluate_all(&data, 0.9).unwrap();
        let failed: Vec<WorkerId> = report.failures.iter().map(|f| f.0).collect();
        assert!(
            failed.contains(&WorkerId(3)),
            "failures: {:?}",
            report.failures
        );
    }

    /// The k-ary leg of the binary `scratch_reuse_matches_fresh_views_per_worker`:
    /// one substrate's build scratch and one evaluation scratch, driven
    /// over the workers busiest-first and then quietest-first, give
    /// every worker exactly the assessment a fresh substrate gives it —
    /// reused counts tensors and mask words never leak state.
    #[test]
    fn scratch_reuse_matches_fresh_views_per_worker() {
        let mut scenario = KaryScenario::paper_default(3, 250, 0.8).with_workers(7);
        // Degrees from ~95% down to ~50% of the tasks.
        scenario.design =
            AttemptDesign::PerWorkerDensity((0..7).map(|w| 0.95 - 0.075 * w as f64).collect());
        let inst = scenario.generate(&mut rng(113));
        let data = inst.responses();
        let shared = StreamingIndex::from_matrix(data);
        let est = estimator();
        let mut scratch = KaryEvalScratch::default();
        let mut order: Vec<WorkerId> = data.workers().collect();
        order.sort_by_key(|&w| std::cmp::Reverse(data.worker_task_count(w)));
        let quiet_first: Vec<WorkerId> = order.iter().rev().copied().collect();
        order.extend(quiet_first);
        for worker in order {
            let fresh = est.evaluate_worker(&StreamingIndex::from_matrix(data), worker, 0.9);
            let reused = est.evaluate_in(&shared, worker, 0.9, &mut scratch);
            match (fresh, reused) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.triples_used, b.triples_used, "worker {worker:?}");
                    assert_eq!(a.intervals.len(), b.intervals.len());
                    for (x, y) in a.intervals.iter().zip(&b.intervals) {
                        assert_eq!(x.center.to_bits(), y.center.to_bits(), "worker {worker:?}");
                        assert_eq!(x.half_width.to_bits(), y.half_width.to_bits());
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("outcome mismatch for {worker:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn scratch_survives_arity_changes() {
        // One scratch driven across indices of different arity must
        // re-shape its tensor, not panic or corrupt counts.
        let est = estimator();
        let mut scratch = KaryEvalScratch::default();
        for (arity, seed) in [(2u16, 137u64), (3, 139), (2, 149)] {
            let inst = KaryScenario::paper_default(arity, 200, 1.0)
                .with_workers(5)
                .generate(&mut rng(seed));
            let index = StreamingIndex::from_matrix(inst.responses());
            let fresh = est.evaluate_worker(inst.responses(), WorkerId(0), 0.9);
            let reused = est.evaluate_in(&index, WorkerId(0), 0.9, &mut scratch);
            match (fresh, reused) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.triples_used, b.triples_used, "arity {arity}");
                    assert_eq!(a.intervals.len(), b.intervals.len());
                    for (x, y) in a.intervals.iter().zip(&b.intervals) {
                        assert_eq!(x.center.to_bits(), y.center.to_bits(), "arity {arity}");
                        assert_eq!(x.half_width.to_bits(), y.half_width.to_bits());
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "arity {arity}"),
                (a, b) => panic!("outcome mismatch at arity {arity}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn cross_covariance_is_symmetric_in_the_triples() {
        // The raw cross formula must not depend on argument order.
        let inst = KaryScenario::paper_default(2, 300, 1.0)
            .with_workers(5)
            .generate(&mut rng(109));
        let cfg = EstimatorConfig::default();
        let pairs = form_pairs_limited(inst.responses(), WorkerId(0), cfg.pairing, 1, None);
        assert_eq!(pairs.len(), 2);
        let mut ctxs = Vec::new();
        for (a, b) in pairs {
            let counts = CountsTensor::from_matrix(inst.responses(), WorkerId(0), a, b);
            let detail = triple_detail(&counts, &cfg, &mut JacobianScratch::default()).unwrap();
            let p_hat = [
                detail.base.response_probabilities(0),
                detail.base.response_probabilities(1),
                detail.base.response_probabilities(2),
            ];
            let var = entry_variances(&detail, 2).unwrap();
            ctxs.push(TripleCtx {
                peers: (a, b),
                detail,
                p_hat,
                var,
            });
        }
        let p_w = mean_matrix(ctxs.iter().map(|c| &c.p_hat[0]), 2);
        let s_hat = mean_selectivity(&ctxs, 2);
        for idx in 0..4 {
            let t1 = j_table(&ctxs[0], idx, 2);
            let t2 = j_table(&ctxs[1], idx, 2);
            let ab = cross_entry_covariance(100.0, &p_w, &s_hat, &t1, &t2);
            let ba = cross_entry_covariance(100.0, &p_w, &s_hat, &t2, &t1);
            assert!(
                (ab - ba).abs() < 1e-12,
                "asymmetric cross covariance: {ab} vs {ba}"
            );
        }
    }
}
