//! Dawid-Skene EM estimation — the classical point-estimate
//! comparator (related work, \[13\] in the paper).
//!
//! Jointly estimates hidden true labels and per-worker confusion
//! matrices by expectation-maximization. Converges to a *local*
//! optimum and, crucially for the paper's argument, provides **no
//! confidence intervals** — it is included as a baseline and as the
//! initializer-quality ablation.

use crate::{EstimateError, Result};
use crowd_data::{ResponseMatrix, TaskId, WorkerId};
use crowd_linalg::Matrix;

/// Configuration for the EM loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DawidSkene {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence threshold on the max absolute change of any
    /// posterior probability between iterations.
    pub tolerance: f64,
    /// Laplace smoothing added to confusion counts so empty cells never
    /// produce zero likelihoods.
    pub smoothing: f64,
}

impl Default for DawidSkene {
    fn default() -> Self {
        Self {
            max_iters: 100,
            tolerance: 1e-6,
            smoothing: 0.01,
        }
    }
}

/// Output of a Dawid-Skene run.
#[derive(Debug, Clone)]
pub struct DawidSkeneResult {
    /// Per-worker k×k confusion matrices (row = truth, column =
    /// response).
    pub confusions: Vec<Matrix>,
    /// Per-task posterior distributions over true labels.
    pub posteriors: Vec<Vec<f64>>,
    /// Estimated class priors.
    pub class_priors: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// True when the posterior change dropped below tolerance.
    pub converged: bool,
}

impl DawidSkeneResult {
    /// Point estimate of each worker's overall error rate under the
    /// estimated priors: `Σ_j prior_j · (1 − P_w[j,j])`.
    pub fn error_rates(&self) -> Vec<f64> {
        self.confusions
            .iter()
            .map(|p| {
                self.class_priors
                    .iter()
                    .enumerate()
                    .map(|(j, &pi)| pi * (1.0 - p.get(j, j)))
                    .sum()
            })
            .collect()
    }

    /// Maximum a-posteriori label per task.
    pub fn map_labels(&self) -> Vec<usize> {
        self.posteriors
            .iter()
            .map(|post| {
                post.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite posterior"))
                    .map(|(i, _)| i)
                    .expect("non-empty posterior")
            })
            .collect()
    }
}

impl DawidSkene {
    /// Runs EM on the response matrix.
    pub fn run(&self, data: &ResponseMatrix) -> Result<DawidSkeneResult> {
        let k = data.arity() as usize;
        let n = data.n_tasks();
        let m = data.n_workers();
        if n == 0 || m == 0 {
            return Err(EstimateError::NotEnoughWorkers { got: m, need: 1 });
        }

        // Initialize posteriors by (soft) majority vote.
        let mut posteriors: Vec<Vec<f64>> = (0..n)
            .map(|t| {
                let mut counts = vec![self.smoothing; k];
                for &(_, l) in data.task_responses(TaskId(t as u32)) {
                    counts[l.index()] += 1.0;
                }
                normalize(counts)
            })
            .collect();

        let mut confusions = vec![Matrix::identity(k); m];
        let mut class_priors = vec![1.0 / k as f64; k];
        let mut iterations = 0;
        let mut converged = false;

        while iterations < self.max_iters {
            iterations += 1;
            // M-step: class priors and confusion matrices from the
            // current posteriors.
            let mut priors = vec![self.smoothing; k];
            for post in &posteriors {
                for (j, &p) in post.iter().enumerate() {
                    priors[j] += p;
                }
            }
            class_priors = normalize(priors);

            for w in 0..m {
                // Column-major accumulation: each response touches one
                // response-label column across all truth rows, so the
                // scatter runs over a contiguous column slice instead
                // of strided per-cell `Matrix::get`/`set` calls.
                let mut cols = vec![self.smoothing; k * k];
                for &(t, l) in data.worker_responses(WorkerId(w as u32)) {
                    let col = &mut cols[l.index() * k..(l.index() + 1) * k];
                    for (acc, &p) in col.iter_mut().zip(&posteriors[t as usize]) {
                        *acc += p;
                    }
                }
                let mut counts = Matrix::from_fn(k, k, |j, c| cols[c * k + j]);
                for j in 0..k {
                    let row = counts.row_mut(j);
                    let row_sum: f64 = row.iter().sum();
                    for v in row.iter_mut() {
                        *v /= row_sum;
                    }
                }
                confusions[w] = counts;
            }

            // Per-worker log-likelihood tables, transposed so that one
            // response indexes a contiguous row of `k` truth terms: the
            // E-step product then streams over slices, and each
            // `ln(P_w[j, l])` is computed once per iteration instead of
            // once per (task, response) visit.
            let log_conf: Vec<Vec<f64>> = confusions
                .iter()
                .map(|conf| {
                    let mut t = vec![0.0; k * k];
                    for l in 0..k {
                        for (j, slot) in t[l * k..(l + 1) * k].iter_mut().enumerate() {
                            *slot = conf.get(j, l).max(1e-300).ln();
                        }
                    }
                    t
                })
                .collect();

            // E-step: posteriors from likelihoods (in log space to
            // avoid underflow on many-annotator tasks).
            let mut max_delta = 0.0f64;
            for t in 0..n {
                let mut log_post: Vec<f64> =
                    class_priors.iter().map(|&p| p.max(1e-300).ln()).collect();
                for &(w, l) in data.task_responses(TaskId(t as u32)) {
                    let terms = &log_conf[w as usize][l.index() * k..(l.index() + 1) * k];
                    for (lp, &term) in log_post.iter_mut().zip(terms) {
                        *lp += term;
                    }
                }
                let max_lp = log_post.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let unnorm: Vec<f64> = log_post.iter().map(|&lp| (lp - max_lp).exp()).collect();
                let new_post = normalize(unnorm);
                for (old, new) in posteriors[t].iter().zip(&new_post) {
                    max_delta = max_delta.max((old - new).abs());
                }
                posteriors[t] = new_post;
            }
            if max_delta < self.tolerance {
                converged = true;
                break;
            }
        }

        Ok(DawidSkeneResult {
            confusions,
            posteriors,
            class_priors,
            iterations,
            converged,
        })
    }
}

fn normalize(mut v: Vec<f64>) -> Vec<f64> {
    let s: f64 = v.iter().sum();
    if s > 0.0 {
        for x in v.iter_mut() {
            *x /= s;
        }
    } else {
        let u = 1.0 / v.len() as f64;
        v.iter_mut().for_each(|x| *x = u);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_sim::{BinaryScenario, KaryScenario, rng};

    #[test]
    fn recovers_binary_error_rates() {
        let inst = BinaryScenario::paper_default(7, 400, 1.0).generate(&mut rng(103));
        let result = DawidSkene::default().run(inst.responses()).unwrap();
        assert!(
            result.converged,
            "EM did not converge in {} iters",
            result.iterations
        );
        let rates = result.error_rates();
        for w in 0..7u32 {
            let truth = inst.true_error_rate(WorkerId(w));
            assert!(
                (rates[w as usize] - truth).abs() < 0.07,
                "worker {w}: EM {} vs truth {truth}",
                rates[w as usize]
            );
        }
    }

    #[test]
    fn map_labels_beat_any_single_worker() {
        let inst = BinaryScenario::paper_default(7, 300, 1.0).generate(&mut rng(107));
        let result = DawidSkene::default().run(inst.responses()).unwrap();
        let labels = result.map_labels();
        let correct = labels
            .iter()
            .enumerate()
            .filter(|&(t, &l)| {
                inst.gold()
                    .label(TaskId(t as u32))
                    .expect("complete gold")
                    .index()
                    == l
            })
            .count();
        let acc = correct as f64 / labels.len() as f64;
        // Best single worker has 10% errors; aggregation should beat it.
        assert!(acc > 0.9, "aggregate accuracy {acc}");
    }

    #[test]
    fn recovers_kary_confusion_structure() {
        let inst = KaryScenario::paper_default(3, 800, 1.0).generate(&mut rng(109));
        let result = DawidSkene::default().run(inst.responses()).unwrap();
        // Diagonals should correlate with the true diagonals.
        for w in 0..3u32 {
            let truth = inst.true_confusion(WorkerId(w));
            let est = &result.confusions[w as usize];
            for j in 0..3 {
                assert!(
                    (est.get(j, j) - truth.get(j, j)).abs() < 0.15,
                    "worker {w} diag {j}: {} vs {}",
                    est.get(j, j),
                    truth.get(j, j)
                );
            }
        }
    }

    #[test]
    fn class_priors_track_selectivity() {
        let mut scenario = KaryScenario::paper_default(3, 1500, 1.0);
        scenario.selectivity = vec![0.6, 0.25, 0.15];
        let inst = scenario.generate(&mut rng(113));
        let result = DawidSkene::default().run(inst.responses()).unwrap();
        assert!(
            (result.class_priors[0] - 0.6).abs() < 0.07,
            "{:?}",
            result.class_priors
        );
    }

    #[test]
    fn empty_data_rejected() {
        use crowd_data::ResponseMatrixBuilder;
        let data = ResponseMatrixBuilder::new(0, 0, 2).build().unwrap();
        assert!(DawidSkene::default().run(&data).is_err());
    }

    #[test]
    fn iteration_cap_respected() {
        let inst = BinaryScenario::paper_default(5, 100, 0.8).generate(&mut rng(127));
        let ds = DawidSkene {
            max_iters: 2,
            tolerance: 0.0,
            smoothing: 0.01,
        };
        let result = ds.run(inst.responses()).unwrap();
        assert_eq!(result.iterations, 2);
        assert!(!result.converged);
    }
}
