//! Answer aggregation using estimated worker abilities.
//!
//! The paper's closing claim is that reliable worker evaluation
//! "yield\[s\] improved quality crowdsourced results": once error rates
//! are known, the Bayes-optimal combination of binary votes weighs
//! each worker by the log-odds of being correct,
//! `w_i = ln((1 − p_i)/p_i)`, instead of counting votes equally.
//!
//! This module closes that loop. It aggregates task answers with
//! * plain majority vote (the baseline),
//! * log-odds weighting by point estimates,
//! * log-odds weighting by a *pessimistic* interval bound — workers
//!   whose ability is uncertain get discounted toward weight 0, which
//!   is exactly what the confidence intervals buy over point
//!   estimates,
//! * full-posterior **MAP aggregation** for k-ary tasks
//!   ([`MapAggregator`]): with estimated response-probability matrices
//!   `P̂_i` and selectivity prior `Ŝ`, the Bayes-optimal answer is
//!   `argmax_t Ŝ_t · Π_i P̂_i[t, r_i]` — it exploits *bias structure*
//!   (e.g. a worker who confuses labels 1 and 2 but never 0) that
//!   scalar error rates cannot represent.

use crate::kary::KaryWorkerReport;
use crate::{EstimateError, Result, WorkerReport};
use crowd_data::{Label, ResponseMatrix, TaskId};
use crowd_linalg::Matrix;

/// How worker ability feeds the vote weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightingRule {
    /// Every vote counts 1 (majority baseline).
    Uniform,
    /// `ln((1−p̂)/p̂)` with the interval center as `p̂`.
    #[default]
    PointLogOdds,
    /// `ln((1−p̃)/p̃)` with the *upper* interval bound as `p̃`:
    /// a worker is only trusted to the extent the data has proven it.
    PessimisticLogOdds,
}

/// Aggregated answer for one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregatedAnswer {
    /// The winning label.
    pub label: Label,
    /// Total weight for the winner minus the runner-up; 0 means a tie.
    pub margin: f64,
}

/// Aggregates k-ary answers from a response matrix and a worker report.
#[derive(Debug, Clone)]
pub struct AnswerAggregator {
    rule: WeightingRule,
    /// Per-worker weight; workers without an assessment get the prior
    /// weight of an unevaluated worker (0 under log-odds rules, 1
    /// under uniform).
    weights: Vec<f64>,
}

impl AnswerAggregator {
    /// Builds the aggregator from an evaluation report.
    pub fn from_report(data: &ResponseMatrix, report: &WorkerReport, rule: WeightingRule) -> Self {
        let mut weights = vec![default_weight(rule); data.n_workers()];
        for a in &report.assessments {
            let p = match rule {
                WeightingRule::Uniform => {
                    weights[a.worker.index()] = 1.0;
                    continue;
                }
                WeightingRule::PointLogOdds => a.interval.center,
                WeightingRule::PessimisticLogOdds => a.interval.hi(),
            };
            weights[a.worker.index()] = log_odds_weight(p);
        }
        Self { rule, weights }
    }

    /// The rule in force.
    pub fn rule(&self) -> WeightingRule {
        self.rule
    }

    /// The weight assigned to one worker.
    pub fn weight(&self, worker: crowd_data::WorkerId) -> f64 {
        self.weights[worker.index()]
    }

    /// Aggregates one task; errors if nobody answered it.
    pub fn aggregate(&self, data: &ResponseMatrix, task: TaskId) -> Result<AggregatedAnswer> {
        let responses = data.task_responses(task);
        if responses.is_empty() {
            return Err(EstimateError::Degenerate {
                what: format!("task {task:?} has no responses"),
            });
        }
        let k = data.arity() as usize;
        let mut tally = vec![0.0f64; k];
        for &(w, label) in responses {
            tally[label.index()] += self.weights[w as usize];
        }
        let (best, best_w) = tally
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite weights"))
            .expect("k >= 2");
        let runner_up = tally
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != best)
            .map(|(_, &w)| w)
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(AggregatedAnswer {
            label: Label(best as u16),
            margin: best_w - runner_up,
        })
    }

    /// Aggregates every answered task, returning `(task, answer)`.
    pub fn aggregate_all(&self, data: &ResponseMatrix) -> Vec<(TaskId, AggregatedAnswer)> {
        data.tasks()
            .filter_map(|t| self.aggregate(data, t).ok().map(|a| (t, a)))
            .collect()
    }
}

/// Bayes/MAP answer aggregation for k-ary tasks from estimated
/// response-probability matrices.
///
/// The posterior over the true label of a task with responses
/// `{r_i}` is `P(t | r) ∝ S_t · Π_i P_i[t, r_i]`; workers without an
/// estimate are skipped (they contribute no likelihood). Computation
/// is in log space, with probabilities floored at `1e-6` so a single
/// zero entry cannot veto a label outright.
///
/// # Example
///
/// ```
/// use crowd_core::{EstimatorConfig, KaryMWorkerEstimator, MapAggregator};
/// use crowd_sim::KaryScenario;
///
/// let instance = KaryScenario::paper_default(3, 400, 1.0)
///     .with_workers(5)
///     .generate(&mut crowd_sim::rng(3));
///
/// // Estimate every worker's confusion matrix, then infer answers.
/// let report = KaryMWorkerEstimator::new(EstimatorConfig::default())
///     .evaluate_all(instance.responses(), 0.9)?;
/// let aggregator = MapAggregator::from_kary_report(instance.responses(), &report);
/// let answers = aggregator.aggregate_all(instance.responses());
///
/// let correct = answers
///     .iter()
///     .filter(|(t, a)| instance.gold().label(*t) == Some(a.label))
///     .count();
/// assert!(correct as f64 / answers.len() as f64 > 0.8);
/// # Ok::<(), crowd_core::EstimateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MapAggregator {
    /// Estimated response-probability matrix per worker; `None` for
    /// unevaluated workers.
    confusions: Vec<Option<Matrix>>,
    /// Prior over true labels (sums to 1).
    prior: Vec<f64>,
}

impl MapAggregator {
    /// Floor applied to likelihood factors (an estimated zero is
    /// usually sampling, not impossibility).
    const FLOOR: f64 = 1e-6;

    /// Builds the aggregator from an m-worker k-ary report, using the
    /// mean of the per-worker selectivity estimates as the prior.
    pub fn from_kary_report(data: &ResponseMatrix, report: &KaryWorkerReport) -> Self {
        let k = data.arity() as usize;
        let mut confusions: Vec<Option<Matrix>> = vec![None; data.n_workers()];
        let mut prior = vec![0.0; k];
        for a in &report.assessments {
            confusions[a.worker.index()] = Some(a.response_prob.clone());
            for (acc, s) in prior.iter_mut().zip(&a.selectivity) {
                *acc += s;
            }
        }
        let total: f64 = prior.iter().sum();
        if total > 0.0 {
            for p in prior.iter_mut() {
                *p /= total;
            }
        } else {
            prior = vec![1.0 / k as f64; k];
        }
        Self { confusions, prior }
    }

    /// Builds the aggregator from explicit matrices (e.g. the true
    /// models in a simulation, or externally calibrated workers).
    pub fn from_matrices(confusions: Vec<Option<Matrix>>, prior: Vec<f64>) -> Self {
        Self { confusions, prior }
    }

    /// The posterior distribution over true labels for one task.
    /// Errors if no *evaluated* worker answered it.
    pub fn posterior(&self, data: &ResponseMatrix, task: TaskId) -> Result<Vec<f64>> {
        let k = data.arity() as usize;
        let mut log_post: Vec<f64> = self
            .prior
            .iter()
            .map(|&s| s.max(Self::FLOOR).ln())
            .collect();
        let mut informed = false;
        for &(w, label) in data.task_responses(task) {
            let Some(p) = &self.confusions[w as usize] else {
                continue;
            };
            informed = true;
            for (t, lp) in log_post.iter_mut().enumerate() {
                *lp += p.get(t, label.index()).max(Self::FLOOR).ln();
            }
        }
        if !informed {
            return Err(EstimateError::Degenerate {
                what: format!("task {task:?} has no responses from evaluated workers"),
            });
        }
        // Normalize in log space against overflow.
        let max = log_post.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut post: Vec<f64> = log_post.iter().map(|lp| (lp - max).exp()).collect();
        let z: f64 = post.iter().sum();
        for p in post.iter_mut() {
            *p /= z;
        }
        debug_assert_eq!(post.len(), k);
        Ok(post)
    }

    /// MAP answer for one task; the margin is the posterior gap
    /// between the winner and the runner-up.
    pub fn aggregate(&self, data: &ResponseMatrix, task: TaskId) -> Result<AggregatedAnswer> {
        let post = self.posterior(data, task)?;
        let (best, best_p) = post
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("normalized posterior"))
            .expect("arity >= 2");
        let runner_up = post
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != best)
            .map(|(_, &p)| p)
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(AggregatedAnswer {
            label: Label(best as u16),
            margin: best_p - runner_up,
        })
    }

    /// Aggregates every task answered by at least one evaluated
    /// worker, returning `(task, answer)`.
    pub fn aggregate_all(&self, data: &ResponseMatrix) -> Vec<(TaskId, AggregatedAnswer)> {
        data.tasks()
            .filter_map(|t| self.aggregate(data, t).ok().map(|a| (t, a)))
            .collect()
    }
}

fn default_weight(rule: WeightingRule) -> f64 {
    match rule {
        WeightingRule::Uniform => 1.0,
        // No evidence about the worker: no say in the outcome beyond
        // tie-breaking.
        WeightingRule::PointLogOdds | WeightingRule::PessimisticLogOdds => 0.0,
    }
}

/// Bayes log-odds weight for error rate `p`, clamped to keep perfect
/// and anti-perfect workers finite.
fn log_odds_weight(p: f64) -> f64 {
    let p = p.clamp(1e-3, 1.0 - 1e-3);
    ((1.0 - p) / p).ln().max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EstimatorConfig, MWorkerEstimator};
    use crowd_data::{GoldStandard, WorkerId};
    use crowd_sim::{BinaryScenario, rng};

    fn accuracy(answers: &[(TaskId, AggregatedAnswer)], gold: &GoldStandard) -> f64 {
        let correct = answers
            .iter()
            .filter(|(t, a)| gold.label(*t) == Some(a.label))
            .count();
        correct as f64 / answers.len() as f64
    }

    #[test]
    fn log_odds_weights_are_monotone_in_ability() {
        assert!(log_odds_weight(0.05) > log_odds_weight(0.2));
        assert!(log_odds_weight(0.2) > log_odds_weight(0.4));
        // A spammer gets (almost) no say; a malicious worker is not
        // trusted negatively (clamped at zero).
        assert!(log_odds_weight(0.5) < 1e-9);
        assert_eq!(log_odds_weight(0.9), 0.0);
        // Finite even at the extremes.
        assert!(log_odds_weight(0.0).is_finite());
    }

    #[test]
    fn weighted_vote_beats_majority_with_spammers() {
        // A crowd where almost half the workers are spammers: majority
        // suffers, ability weighting shrugs it off.
        let mut scenario = BinaryScenario::paper_default(11, 400, 0.9);
        scenario.error_pool = vec![0.05, 0.1];
        scenario.spammer_fraction = 0.45;
        let mut r = rng(301);
        let mut wins = 0;
        let mut reps = 0;
        for _ in 0..10 {
            let inst = scenario.generate(&mut r);
            let report = MWorkerEstimator::new(EstimatorConfig::clamping())
                .evaluate_all(inst.responses(), 0.9)
                .unwrap();
            let majority =
                AnswerAggregator::from_report(inst.responses(), &report, WeightingRule::Uniform);
            let weighted = AnswerAggregator::from_report(
                inst.responses(),
                &report,
                WeightingRule::PointLogOdds,
            );
            let acc_major = accuracy(&majority.aggregate_all(inst.responses()), inst.gold());
            let acc_weight = accuracy(&weighted.aggregate_all(inst.responses()), inst.gold());
            reps += 1;
            if acc_weight >= acc_major {
                wins += 1;
            }
        }
        assert!(
            wins * 10 >= reps * 8,
            "weighted voting should (weakly) beat majority in ≥80% of runs: {wins}/{reps}"
        );
    }

    #[test]
    fn pessimistic_weighting_discounts_thin_evidence() {
        // Two equally good workers, one with far fewer tasks: the
        // pessimistic rule trusts the proven one more.
        use crowd_data::{ResponseMatrixBuilder, TaskId};
        use crowd_sim::AttemptDesign;
        let mut scenario = BinaryScenario::paper_default(5, 300, 1.0);
        scenario.error_pool = vec![0.1];
        scenario.design = AttemptDesign::PerWorkerDensity(vec![1.0, 1.0, 1.0, 1.0, 0.08]);
        let inst = scenario.generate(&mut rng(305));
        let report = MWorkerEstimator::new(EstimatorConfig::clamping())
            .evaluate_all(inst.responses(), 0.9)
            .unwrap();
        let agg = AnswerAggregator::from_report(
            inst.responses(),
            &report,
            WeightingRule::PessimisticLogOdds,
        );
        if report.get(WorkerId(4)).is_some() {
            assert!(
                agg.weight(WorkerId(0)) > agg.weight(WorkerId(4)),
                "proven worker should out-weigh the thin-evidence one: {} vs {}",
                agg.weight(WorkerId(0)),
                agg.weight(WorkerId(4))
            );
        }
        // Unused builder import silencer for the cfg(test) scope.
        let _ = ResponseMatrixBuilder::new(1, 1, 2);
        let _ = TaskId(0);
    }

    #[test]
    fn map_posterior_is_a_distribution() {
        use crate::{EstimatorConfig, KaryMWorkerEstimator};
        use crowd_sim::KaryScenario;
        let inst = KaryScenario::paper_default(3, 300, 1.0)
            .with_workers(5)
            .generate(&mut rng(311));
        let report = KaryMWorkerEstimator::new(EstimatorConfig::default())
            .evaluate_all(inst.responses(), 0.9)
            .unwrap();
        let agg = MapAggregator::from_kary_report(inst.responses(), &report);
        for t in 0..10u32 {
            let post = agg.posterior(inst.responses(), TaskId(t)).unwrap();
            assert_eq!(post.len(), 3);
            assert!((post.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(post.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn map_with_true_matrices_beats_majority_on_biased_crowds() {
        // Workers that systematically confuse labels 1 and 2 (but
        // never 0): majority is fooled in the 1↔2 region, MAP with the
        // confusion structure is not.
        use crowd_linalg::Matrix;
        use crowd_sim::KaryScenario;
        let biased = Matrix::from_rows(&[
            &[0.95, 0.03, 0.02],
            &[0.05, 0.50, 0.45],
            &[0.05, 0.40, 0.55],
        ]);
        let mut scenario = KaryScenario::paper_default(3, 600, 1.0).with_workers(5);
        scenario.matrix_pool = vec![biased.clone()];
        let mut r = rng(313);
        let mut map_acc = 0.0;
        let mut maj_acc = 0.0;
        let reps = 6;
        for _ in 0..reps {
            let inst = scenario.generate(&mut r);
            let confusions = (0..5)
                .map(|w| Some(inst.true_confusion(WorkerId(w))))
                .collect::<Vec<_>>();
            let agg = MapAggregator::from_matrices(confusions, vec![1.0 / 3.0; 3]);
            let answers = agg.aggregate_all(inst.responses());
            map_acc += accuracy(&answers, inst.gold());
            let majority = AnswerAggregator::from_report(
                inst.responses(),
                &WorkerReport::default(),
                WeightingRule::Uniform,
            );
            maj_acc += accuracy(&majority.aggregate_all(inst.responses()), inst.gold());
        }
        assert!(
            map_acc > maj_acc,
            "MAP with confusion structure should beat majority: {:.3} vs {:.3}",
            map_acc / reps as f64,
            maj_acc / reps as f64
        );
    }

    #[test]
    fn map_with_estimated_matrices_tracks_true_matrix_performance() {
        use crate::{EstimatorConfig, KaryMWorkerEstimator};
        use crowd_sim::KaryScenario;
        let scenario = KaryScenario::paper_default(3, 500, 1.0).with_workers(5);
        let mut r = rng(317);
        let inst = scenario.generate(&mut r);
        let report = KaryMWorkerEstimator::new(EstimatorConfig::default())
            .evaluate_all(inst.responses(), 0.9)
            .unwrap();
        let estimated = MapAggregator::from_kary_report(inst.responses(), &report);
        let oracle = MapAggregator::from_matrices(
            (0..5)
                .map(|w| Some(inst.true_confusion(WorkerId(w))))
                .collect(),
            inst.selectivity().to_vec(),
        );
        let est_acc = accuracy(&estimated.aggregate_all(inst.responses()), inst.gold());
        let oracle_acc = accuracy(&oracle.aggregate_all(inst.responses()), inst.gold());
        assert!(
            est_acc > oracle_acc - 0.05,
            "estimated-matrix MAP should be within 5pp of the oracle: {est_acc:.3} vs \
             {oracle_acc:.3}"
        );
    }

    #[test]
    fn map_ignores_unevaluated_workers_and_errors_without_evidence() {
        use crowd_data::ResponseMatrixBuilder;
        let mut b = ResponseMatrixBuilder::new(2, 2, 2);
        b.push(WorkerId(0), TaskId(0), Label(1)).unwrap();
        b.push(WorkerId(1), TaskId(1), Label(0)).unwrap();
        let data = b.build().unwrap();
        // Only worker 0 has an estimate.
        let p = crowd_linalg::Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8]]);
        let agg = MapAggregator::from_matrices(vec![Some(p), None], vec![0.5, 0.5]);
        let ans = agg.aggregate(&data, TaskId(0)).unwrap();
        assert_eq!(ans.label, Label(1));
        // Task 1 was answered only by the unevaluated worker.
        assert!(agg.aggregate(&data, TaskId(1)).is_err());
        // aggregate_all silently skips it.
        assert_eq!(agg.aggregate_all(&data).len(), 1);
    }

    #[test]
    fn map_prior_shifts_ambiguous_posteriors() {
        use crowd_data::ResponseMatrixBuilder;
        // One worker whose row for truth 0 and 1 are mirror images: a
        // single response is ambiguous, so the prior decides.
        let mut b = ResponseMatrixBuilder::new(1, 1, 2);
        b.push(WorkerId(0), TaskId(0), Label(0)).unwrap();
        let data = b.build().unwrap();
        let p = crowd_linalg::Matrix::from_rows(&[&[0.6, 0.4], &[0.4, 0.6]]);
        let skewed = MapAggregator::from_matrices(vec![Some(p.clone())], vec![0.1, 0.9]);
        let ans = skewed.aggregate(&data, TaskId(0)).unwrap();
        assert_eq!(
            ans.label,
            Label(1),
            "a strong prior should override a weak response"
        );
        let uniform = MapAggregator::from_matrices(vec![Some(p)], vec![0.5, 0.5]);
        assert_eq!(uniform.aggregate(&data, TaskId(0)).unwrap().label, Label(0));
    }

    #[test]
    fn unanswered_task_is_an_error_and_margin_is_sane() {
        use crowd_data::{Label, ResponseMatrixBuilder};
        let mut b = ResponseMatrixBuilder::new(2, 2, 2);
        b.push(WorkerId(0), TaskId(0), Label(1)).unwrap();
        b.push(WorkerId(1), TaskId(0), Label(1)).unwrap();
        let data = b.build().unwrap();
        let agg =
            AnswerAggregator::from_report(&data, &WorkerReport::default(), WeightingRule::Uniform);
        let ans = agg.aggregate(&data, TaskId(0)).unwrap();
        assert_eq!(ans.label, Label(1));
        assert!((ans.margin - 2.0).abs() < 1e-12);
        assert!(agg.aggregate(&data, TaskId(1)).is_err());
        assert_eq!(agg.rule(), WeightingRule::Uniform);
    }
}
