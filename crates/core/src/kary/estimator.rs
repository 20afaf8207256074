//! Algorithm A3 end-to-end: counts tensor → response-probability
//! confidence intervals.

use crate::kary::covariance::{CountsCovariance, perturbation_entries};
use crate::kary::prob_estimate::{JacobianScratch, ProbEstimate, prob_estimate_pass};
use crate::{EstimateError, EstimatorConfig, Result};
use crowd_data::{CountsTensor, OverlapSource, WorkerId};
use crowd_linalg::Matrix;
use crowd_stats::ConfidenceInterval;

/// The k-ary estimator (Algorithm A3).
#[derive(Debug, Clone, Default)]
pub struct KaryEstimator {
    config: EstimatorConfig,
}

/// Confidence intervals for every response probability of a worker
/// triple.
#[derive(Debug, Clone)]
pub struct KaryAssessment {
    /// The three workers, in slot order.
    pub workers: [WorkerId; 3],
    /// Point estimates `V_i = S^{1/2}P_i`.
    pub v: [Matrix; 3],
    /// Row-normalized response-probability estimates `P̂_i`.
    pub response_prob: [Matrix; 3],
    /// Estimated selectivity prior.
    pub selectivity: Vec<f64>,
    /// `intervals[i]` holds the k×k confidence intervals for worker
    /// slot `i`'s response probabilities, row-major: entry `r·k + c`
    /// bounds `P_i[r, c]`.
    pub intervals: [Vec<ConfidenceInterval>; 3],
    /// Per-slot interval on the worker's *overall* error rate
    /// `1 − Σ_r S_r·P_i[r,r]` — the scalar the binary algorithms
    /// estimate, so k-ary workers plug into the same
    /// [`crate::RetentionPolicy`] machinery. Derived with Theorem 1
    /// from the same counts covariance as the per-entry intervals, so
    /// the cross-entry correlations are accounted for (summing
    /// per-entry deviations would be far too conservative).
    pub error_rate: [ConfidenceInterval; 3],
}

impl KaryAssessment {
    /// The interval for `P(worker responds r_col | truth r_row)`.
    pub fn interval(&self, worker_slot: usize, row: usize, col: usize) -> &ConfidenceInterval {
        let k = self.v[0].rows();
        &self.intervals[worker_slot][row * k + col]
    }

    /// Mean interval size across all `3k²` response probabilities (the
    /// y-axis of Figure 5b).
    pub fn mean_interval_size(&self) -> f64 {
        let total: f64 = self
            .intervals
            .iter()
            .flat_map(|v| v.iter())
            .map(|ci| ci.size())
            .sum();
        let count = self.intervals.iter().map(|v| v.len()).sum::<usize>();
        total / count as f64
    }

    /// Scores coverage of true response-probability matrices.
    pub fn coverage(&self, truth: &[Matrix; 3]) -> crate::CoverageStats {
        let k = self.v[0].rows();
        let mut stats = crate::CoverageStats::default();
        for i in 0..3 {
            for r in 0..k {
                for c in 0..k {
                    stats.record(self.interval(i, r, c).contains(truth[i].get(r, c)));
                }
            }
        }
        stats
    }
}

/// Everything Algorithm A3 derives from one counts tensor *before*
/// Theorem 1 is applied: the point estimates, the exact forward-mode
/// gradients of every `V_i` entry, and the Lemma 9 covariance of the
/// perturbed counts entries in compact form.
/// [`KaryEstimator::evaluate_counts`] consumes it directly; the
/// m-worker extension ([`crate::kary::KaryMWorkerEstimator`]) reuses
/// it per triple and adds cross-triple covariances on top.
#[derive(Debug, Clone)]
pub(crate) struct TripleDetail {
    /// Point estimates `V₁, V₂, V₃`.
    pub base: ProbEstimate,
    /// The perturbed counts entries, in gradient-index order.
    pub entries: Vec<(usize, usize, usize)>,
    /// `gradients[i][r·k + c][e] = ∂V_i[r,c] / ∂counts[entries[e]]`.
    pub gradients: [Vec<Vec<f64>>; 3],
    /// Lemma 9 covariance of the perturbed counts entries.
    pub cov: CountsCovariance,
}

/// Runs `ProbEstimate` once, validates the decomposition, takes the
/// exact Jacobian of the pipeline with respect to the perturbed counts
/// entries in one forward-mode pass over the same base point, and
/// assembles the counts covariance (Algorithm A3 steps 1–6). The
/// Jacobian pass also declares the triple degenerate when a hard switch
/// of `ProbEstimate` sits within a small counts step of flipping (see
/// `BasePass::jacobian`), where Theorem 1's local linearity fails.
pub(crate) fn triple_detail(
    counts: &CountsTensor,
    config: &EstimatorConfig,
    scratch: &mut JacobianScratch,
) -> Result<TripleDetail> {
    let k = counts.arity();
    let pass = prob_estimate_pass(counts)?;

    // Guard against decompositions that contradict the model —
    // the regime in which the paper reports the method "doesn't
    // work" (WSD at arity 3). Such runs are declared degenerate
    // (and dropped by the experiment harness) rather than emitted
    // as meaningless, enormous intervals.
    validate_decomposition(&pass.estimate, k)?;

    // Sensitivities of ProbEstimate w.r.t. each counts entry
    // (Algorithm A3 step 6).
    let entries = perturbation_entries(k, config.perturb_partial_counts);
    let gradients = pass.jacobian(&entries, scratch)?;

    // Lemma 9 covariances.
    let cov = CountsCovariance::new(counts, &entries);
    Ok(TripleDetail {
        base: pass.estimate,
        entries,
        gradients,
        cov,
    })
}

impl KaryEstimator {
    /// Creates an estimator with the given configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        Self { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Full Algorithm A3 for the worker triple `(w₁, w₂, w₃)` over any
    /// overlap substrate: the counts tensor comes from
    /// [`OverlapSource::fill_counts`] (a task scan over a
    /// [`crowd_data::ResponseMatrix`], a scatter/gather pass over the
    /// three workers' rows of a [`crowd_data::StreamingIndex`]).
    /// Identical output on every substrate.
    pub fn evaluate<S: OverlapSource>(
        &self,
        src: &S,
        workers: [WorkerId; 3],
        confidence: f64,
    ) -> Result<KaryAssessment> {
        let mut counts = CountsTensor::zeros(src.arity() as usize);
        src.fill_counts(&mut counts, workers[0], workers[1], workers[2]);
        self.evaluate_counts(&counts, workers, confidence)
    }

    /// Full Algorithm A3 on a pre-built counts tensor.
    pub fn evaluate_counts(
        &self,
        counts: &CountsTensor,
        workers: [WorkerId; 3],
        confidence: f64,
    ) -> Result<KaryAssessment> {
        let k = counts.arity();
        let TripleDetail {
            base,
            entries: _,
            gradients,
            cov,
        } = triple_detail(counts, &self.config, &mut JacobianScratch::default())?;

        // Theorem 1 on each response-probability entry.
        let cells = k * k;
        let mut intervals: [Vec<ConfidenceInterval>; 3] = [
            Vec::with_capacity(cells),
            Vec::with_capacity(cells),
            Vec::with_capacity(cells),
        ];
        let row_sums: [Vec<f64>; 3] = [0, 1, 2].map(|i| {
            (0..k)
                .map(|r| base.v[i].row(r).iter().sum::<f64>())
                .collect::<Vec<f64>>()
        });
        for i in 0..3 {
            for r in 0..k {
                let scale = row_sums[i][r];
                if scale <= 0.0 {
                    return Err(EstimateError::Degenerate {
                        what: format!("V{} row {r} has non-positive mass", i + 1),
                    });
                }
                for c in 0..k {
                    // Interval on V_i[r,c], then normalized to P_i[r,c]
                    // by the row mass (A3's final normalization step).
                    let ci = cov
                        .interval(base.v[i].get(r, c), &gradients[i][r * k + c], confidence)?
                        .scaled(1.0 / scale);
                    if !ci.half_width.is_finite() {
                        return Err(EstimateError::Degenerate {
                            what: format!("non-finite interval for P{}[{r},{c}]", i + 1),
                        });
                    }
                    intervals[i].push(ci);
                }
            }
        }

        // The overall error rate, as one more Theorem 1 functional of
        // the same counts: with rowmass_r = Σ_c V[r,c],
        // T = Σ_r rowmass_r², N = Σ_r rowmass_r·V[r,r],
        //
        //   err = 1 − N/T
        //   ∂err/∂V[a,b] = −(V[a,a] + rowmass_a·1(a=b))/T
        //                  + 2·N·rowmass_a/T²
        //
        // (S_r = rowmass_r²/T and P[r,r] = V[r,r]/rowmass_r, so
        // N/T = Σ_r S_r·P[r,r] is the expected correctness). Chaining
        // through the V-entry gradients keeps every cross-entry
        // correlation of the counts covariance.
        let mut error_rate: [ConfidenceInterval; 3] =
            [ConfidenceInterval::from_bounds(0.0, 0.0, confidence); 3];
        let n_entries = cov.len();
        for i in 0..3 {
            let masses = &row_sums[i];
            let t: f64 = masses.iter().map(|m| m * m).sum();
            let n: f64 = (0..k).map(|r| masses[r] * base.v[i].get(r, r)).sum();
            let err = 1.0 - n / t;
            let mut g_err = vec![0.0; n_entries];
            for a in 0..k {
                for b in 0..k {
                    let d_v = -(base.v[i].get(a, a) + if a == b { masses[a] } else { 0.0 }) / t
                        + 2.0 * n * masses[a] / (t * t);
                    let g_entry = &gradients[i][a * k + b];
                    for (acc, g) in g_err.iter_mut().zip(g_entry) {
                        *acc += d_v * g;
                    }
                }
            }
            error_rate[i] = cov.interval(err, &g_err, confidence)?;
            if !error_rate[i].half_width.is_finite() {
                return Err(EstimateError::Degenerate {
                    what: format!("non-finite error-rate interval for worker slot {i}"),
                });
            }
        }

        let response_prob = [
            base.response_probabilities(0),
            base.response_probabilities(1),
            base.response_probabilities(2),
        ];
        let selectivity = base.selectivity();
        Ok(KaryAssessment {
            workers,
            v: base.v,
            response_prob,
            selectivity,
            intervals,
            error_rate,
        })
    }
}

/// Model-consistency checks on a `ProbEstimate` (see DESIGN.md §5):
///
/// 1. **Row mass**: each row of `V_i` sums to `sqrt(S_r) > 0`; a mass
///    near zero means the spectral step collapsed.
/// 2. **Cross-worker consistency**: all three workers' row masses
///    estimate the *same* `sqrt(S_r)`; wildly disagreeing masses mean
///    the mixing matrix `U` was mis-recovered.
/// 3. **Diagonal dominance**: the paper assumes
///    `P[j,j] > P[j,j′]` (§IV-A); estimates violating it grossly are
///    mixed-eigenvector failures.
fn validate_decomposition(base: &ProbEstimate, k: usize) -> Result<()> {
    /// Minimum admissible `sqrt(S_r)` estimate.
    const MIN_ROW_MASS: f64 = 0.05;
    /// Maximum admissible ratio between workers' `sqrt(S_r)` estimates.
    const MAX_MASS_RATIO: f64 = 3.0;
    /// Slack allowed before a diagonal-dominance violation is fatal.
    const DOMINANCE_SLACK: f64 = 0.05;

    for r in 0..k {
        let masses: Vec<f64> = base
            .v
            .iter()
            .map(|v| v.row(r).iter().sum::<f64>())
            .collect();
        for (i, &mass) in masses.iter().enumerate() {
            if mass.is_nan() || mass < MIN_ROW_MASS {
                return Err(EstimateError::Degenerate {
                    what: format!("V{} row {r} mass {mass:.4} below {MIN_ROW_MASS}", i + 1),
                });
            }
        }
        let max = masses.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = masses.iter().cloned().fold(f64::INFINITY, f64::min);
        if max / min > MAX_MASS_RATIO {
            return Err(EstimateError::Degenerate {
                what: format!(
                    "row {r} masses disagree across workers ({min:.3} .. {max:.3}); \
                     mixing matrix mis-recovered"
                ),
            });
        }
    }
    for (i, _) in base.v.iter().enumerate() {
        let p = base.response_probabilities(i);
        for r in 0..k {
            let diag = p.get(r, r);
            for c in 0..k {
                if c != r && p.get(r, c) > diag + DOMINANCE_SLACK {
                    return Err(EstimateError::Degenerate {
                        what: format!(
                            "P{}[{r},{c}] = {:.3} exceeds diagonal {:.3}; violates the \
                             model's diagonal-dominance assumption",
                            i + 1,
                            p.get(r, c),
                            diag
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_sim::{KaryScenario, rng};

    fn workers() -> [WorkerId; 3] {
        [WorkerId(0), WorkerId(1), WorkerId(2)]
    }

    #[test]
    fn intervals_cover_population_truth_trivially() {
        // On (near-)population counts the estimates are nearly exact
        // and the intervals tiny but centered on the truth.
        let pool = crowd_sim::paper_matrices(2);
        let p = [pool[0].clone(), pool[1].clone(), pool[2].clone()];
        let counts = crate::kary::prob_estimate::population_counts(&p, &[0.5, 0.5], 5000.0);
        let est = KaryEstimator::default();
        let a = est.evaluate_counts(&counts, workers(), 0.9).unwrap();
        let stats = a.coverage(&p);
        assert_eq!(
            stats.covered, stats.total,
            "population-count intervals must all cover: {stats:?}"
        );
        // Centers match truth closely.
        for i in 0..3 {
            assert!(a.response_prob[i].approx_eq(&p[i], 1e-4));
        }
    }

    #[test]
    fn simulated_coverage_tracks_confidence() {
        let scenario = KaryScenario::paper_default(2, 300, 1.0);
        let est = KaryEstimator::default();
        let mut r = rng(157);
        let mut stats = crate::CoverageStats::default();
        for _ in 0..40 {
            let inst = scenario.generate(&mut r);
            let Ok(a) = est.evaluate(inst.responses(), workers(), 0.9) else {
                continue;
            };
            let truth = [
                inst.true_confusion(WorkerId(0)),
                inst.true_confusion(WorkerId(1)),
                inst.true_confusion(WorkerId(2)),
            ];
            stats.merge(a.coverage(&truth));
        }
        let acc = stats.accuracy().expect("some runs succeed");
        assert!(
            acc > 0.82 && acc <= 1.0,
            "arity-2 coverage {acc} at c=0.9 over {} intervals",
            stats.total
        );
    }

    #[test]
    fn interval_size_grows_with_arity() {
        // Fig 5(b): more parameters per datum → wider intervals.
        let est = KaryEstimator::default();
        let mut r = rng(163);
        let mut sizes = Vec::new();
        for arity in [2u16, 3] {
            let scenario = KaryScenario::paper_default(arity, 500, 1.0);
            let mut total = 0.0;
            let mut n = 0;
            for _ in 0..10 {
                let inst = scenario.generate(&mut r);
                if let Ok(a) = est.evaluate(inst.responses(), workers(), 0.8) {
                    total += a.mean_interval_size();
                    n += 1;
                }
            }
            assert!(n > 0, "no successful runs at arity {arity}");
            sizes.push(total / n as f64);
        }
        assert!(
            sizes[1] > sizes[0],
            "arity-3 intervals should be wider: {sizes:?}"
        );
    }

    #[test]
    fn interval_size_shrinks_with_more_tasks() {
        let est = KaryEstimator::default();
        let mut r = rng(167);
        let small = KaryScenario::paper_default(2, 100, 1.0).generate(&mut r);
        let large = KaryScenario::paper_default(2, 2000, 1.0).generate(&mut r);
        let a_small = est.evaluate(small.responses(), workers(), 0.8).unwrap();
        let a_large = est.evaluate(large.responses(), workers(), 0.8).unwrap();
        assert!(
            a_large.mean_interval_size() < a_small.mean_interval_size(),
            "{} vs {}",
            a_large.mean_interval_size(),
            a_small.mean_interval_size()
        );
    }

    #[test]
    fn error_rate_interval_is_exact_on_population_counts() {
        let pool = crowd_sim::paper_matrices(3);
        let p = [pool[0].clone(), pool[1].clone(), pool[2].clone()];
        let s = [0.5, 0.3, 0.2];
        let counts = crate::kary::prob_estimate::population_counts(&p, &s, 8000.0);
        let a = KaryEstimator::default()
            .evaluate_counts(&counts, workers(), 0.9)
            .unwrap();
        for i in 0..3 {
            let truth: f64 = 1.0 - (0..3).map(|r| s[r] * p[i].get(r, r)).sum::<f64>();
            assert!(
                (a.error_rate[i].center - truth).abs() < 1e-3,
                "slot {i}: error rate {} vs truth {truth}",
                a.error_rate[i].center
            );
            assert!(a.error_rate[i].contains(truth));
        }
    }

    #[test]
    fn error_rate_interval_covers_at_nominal_rate() {
        let scenario = KaryScenario::paper_default(3, 400, 1.0);
        let est = KaryEstimator::default();
        let mut r = rng(193);
        let mut stats = crate::CoverageStats::default();
        for _ in 0..40 {
            let inst = scenario.generate(&mut r);
            let Ok(a) = est.evaluate(inst.responses(), workers(), 0.9) else {
                continue;
            };
            for (slot, &w) in workers().iter().enumerate() {
                stats.record(a.error_rate[slot].contains(inst.true_error_rate(w)));
            }
        }
        let acc = stats.accuracy().expect("some successes");
        assert!(
            acc > 0.82,
            "error-rate interval coverage {acc} at c=0.9 over {} intervals",
            stats.total
        );
    }

    #[test]
    fn error_rate_interval_is_tighter_than_entry_sum() {
        // The whole point of the Theorem 1 functional: naive interval
        // arithmetic over the k² entries would be far wider.
        let inst = KaryScenario::paper_default(3, 500, 1.0).generate(&mut rng(197));
        let a = KaryEstimator::default()
            .evaluate(inst.responses(), workers(), 0.9)
            .unwrap();
        let k = 3;
        for slot in 0..3 {
            let naive: f64 = (0..k)
                .map(|r| a.selectivity[r] * a.interval(slot, r, r).half_width)
                .sum();
            assert!(
                a.error_rate[slot].half_width < naive,
                "slot {slot}: functional interval {} vs naive diagonal sum {naive}",
                a.error_rate[slot].half_width
            );
        }
    }

    #[test]
    fn selectivity_estimate_is_sane() {
        let mut scenario = KaryScenario::paper_default(3, 3000, 1.0);
        scenario.selectivity = vec![0.5, 0.3, 0.2];
        let inst = scenario.generate(&mut rng(173));
        let a = KaryEstimator::default()
            .evaluate(inst.responses(), workers(), 0.8)
            .unwrap();
        for (got, want) in a.selectivity.iter().zip(&[0.5, 0.3, 0.2]) {
            assert!((got - want).abs() < 0.08, "selectivity {:?}", a.selectivity);
        }
    }

    #[test]
    fn nonregular_kary_data_works() {
        let scenario = KaryScenario::paper_default(2, 600, 0.7);
        let inst = scenario.generate(&mut rng(179));
        let a = KaryEstimator::default()
            .evaluate(inst.responses(), workers(), 0.8)
            .unwrap();
        assert!(a.mean_interval_size() > 0.0);
        assert!(a.mean_interval_size().is_finite());
    }

    #[test]
    fn partial_count_perturbation_is_available() {
        let scenario = KaryScenario::paper_default(2, 400, 0.7);
        let inst = scenario.generate(&mut rng(181));
        let cfg = EstimatorConfig {
            perturb_partial_counts: true,
            ..EstimatorConfig::default()
        };
        let a = KaryEstimator::new(cfg)
            .evaluate(inst.responses(), workers(), 0.8)
            .unwrap();
        assert!(a.mean_interval_size().is_finite());
    }

    /// Verdicts of the switch-margin test on pinned instances of its
    /// calibration census: [`KaryEstimator::evaluate`] on workers 0–2
    /// of `KaryScenario::paper_default(k, n, d)` generated from
    /// `rng(seed)`, at c = 0.9. The first ten are instances on which
    /// the ±ε forward/backward jump detector it replaced fired; the
    /// last seven are instances on which that detector did not.
    #[test]
    fn switch_margin_verdicts_are_pinned_on_census_instances() {
        // (k, n, d, seed, whether the switch-margin test fires)
        let pins: [(u16, usize, f64, u64, bool); 17] = [
            (2, 50, 0.7, 134, true),  // a j₃ slice of exactly one task
            (3, 100, 1.0, 158, true), // a row sum near zero
            (3, 300, 1.0, 115, true), // a near-tied alignment comparison
            (3, 1000, 0.7, 46, true), // a near-tied alignment comparison
            (4, 100, 0.7, 48, true),  // a tied spectrum that a step splits
            (4, 1000, 1.0, 51, true), // a row sum near zero
            (3, 100, 0.7, 117, true), // a fast-turning eigenvector
            (3, 100, 0.7, 146, true), // a near-crossing eigenvalue pair
            (3, 50, 1.0, 100, false), // curvature only, below the bound
            (4, 50, 1.0, 9, false),   // curvature only, below the bound
            (3, 50, 0.7, 23, true),   // a fast-turning eigenvector
            (2, 50, 1.0, 0, false),
            (2, 1000, 0.7, 0, false),
            (3, 300, 1.0, 1, false),
            (3, 1000, 1.0, 0, false),
            (4, 300, 0.7, 3, false),
            (4, 1000, 1.0, 0, false),
        ];
        for (k, n, d, seed, fires) in pins {
            let inst = KaryScenario::paper_default(k, n, d).generate(&mut rng(seed));
            match KaryEstimator::default().evaluate(inst.responses(), workers(), 0.9) {
                Err(EstimateError::Degenerate { what })
                    if what.starts_with("ProbEstimate ") && what.contains(" within ±") =>
                {
                    assert!(fires, "k={k} n={n} d={d} seed={seed}: unexpectedly {what}");
                }
                Ok(a) => {
                    assert!(!fires, "k={k} n={n} d={d} seed={seed}: no switch flagged");
                    assert!(
                        a.intervals
                            .iter()
                            .flatten()
                            .all(|ci| ci.half_width.is_finite() && ci.half_width > 0.0)
                    );
                }
                Err(other) => panic!("k={k} n={n} d={d} seed={seed}: {other}"),
            }
        }
    }

    #[test]
    fn accessors() {
        let scenario = KaryScenario::paper_default(2, 400, 1.0);
        let inst = scenario.generate(&mut rng(191));
        let a = KaryEstimator::default()
            .evaluate(inst.responses(), workers(), 0.8)
            .unwrap();
        let ci = a.interval(1, 0, 1);
        assert!(ci.size() >= 0.0);
        assert_eq!(a.workers, workers());
    }
}
