//! Generated experiment instances: responses plus hidden ground truth.

use crate::WorkerModel;
use crowd_data::{GoldStandard, ResponseMatrix, WorkerId};
use crowd_linalg::Matrix;

/// A sampled binary experiment: the observable response matrix plus the
/// hidden truth (task labels and worker abilities) used for scoring.
#[derive(Debug, Clone)]
pub struct BinaryInstance {
    responses: ResponseMatrix,
    gold: GoldStandard,
    workers: Vec<WorkerModel>,
}

impl BinaryInstance {
    pub(crate) fn new(
        responses: ResponseMatrix,
        gold: GoldStandard,
        workers: Vec<WorkerModel>,
    ) -> Self {
        Self {
            responses,
            gold,
            workers,
        }
    }

    /// The observable worker responses.
    pub fn responses(&self) -> &ResponseMatrix {
        &self.responses
    }

    /// The hidden true labels.
    pub fn gold(&self) -> &GoldStandard {
        &self.gold
    }

    /// The true (model) error rate of a worker — the quantity the
    /// estimators' confidence intervals must cover.
    pub fn true_error_rate(&self, worker: WorkerId) -> f64 {
        self.workers[worker.index()].error_rate(&[0.5, 0.5])
    }
}

/// A sampled k-ary experiment.
#[derive(Debug, Clone)]
pub struct KaryInstance {
    responses: ResponseMatrix,
    gold: GoldStandard,
    workers: Vec<WorkerModel>,
    selectivity: Vec<f64>,
}

impl KaryInstance {
    pub(crate) fn new(
        responses: ResponseMatrix,
        gold: GoldStandard,
        workers: Vec<WorkerModel>,
        selectivity: Vec<f64>,
    ) -> Self {
        Self {
            responses,
            gold,
            workers,
            selectivity,
        }
    }

    /// The observable worker responses.
    pub fn responses(&self) -> &ResponseMatrix {
        &self.responses
    }

    /// The hidden true labels.
    pub fn gold(&self) -> &GoldStandard {
        &self.gold
    }

    /// The true k×k response-probability matrix of a worker.
    pub fn true_confusion(&self, worker: WorkerId) -> Matrix {
        self.workers[worker.index()].confusion_matrix(self.responses.arity())
    }

    /// The true selectivity prior.
    pub fn selectivity(&self) -> &[f64] {
        &self.selectivity
    }

    /// The true overall error rate of a worker under the scenario's
    /// selectivity.
    pub fn true_error_rate(&self, worker: WorkerId) -> f64 {
        self.workers[worker.index()].error_rate(&self.selectivity)
    }

    /// Returns a copy of the instance in which `worker` follows a
    /// different noise model: their responses are regenerated from the
    /// same hidden truths on the same attempted tasks. Used to plant a
    /// known outlier (a biased or adversarial worker) into an otherwise
    /// healthy crowd.
    pub fn with_worker_model(
        mut self,
        worker: WorkerId,
        model: WorkerModel,
        rng: &mut impl rand::RngExt,
    ) -> Self {
        let arity = self.responses.arity();
        let attempted: Vec<u32> = self
            .responses
            .worker_responses(worker)
            .iter()
            .map(|&(t, _)| t)
            .collect();
        let mut builder = crowd_data::ResponseMatrixBuilder::new(
            self.responses.n_workers(),
            self.responses.n_tasks(),
            arity,
        );
        for r in self.responses.iter() {
            if r.worker != worker {
                builder
                    .push(r.worker, r.task, r.label)
                    .expect("existing ids are valid");
            }
        }
        for t in attempted {
            let task = crowd_data::TaskId(t);
            let truth = self.gold.label(task).expect("generated gold is complete");
            let label = model.respond(truth, arity, 0.0, rng);
            builder
                .push(worker, task, label)
                .expect("replayed ids are valid");
        }
        self.responses = builder.build().expect("replayed responses are unique");
        self.workers[worker.index()] = model;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryScenario, KaryScenario, rng};

    #[test]
    fn binary_instance_exposes_truth() {
        let inst = BinaryScenario::paper_default(3, 10, 1.0).generate(&mut rng(2));
        assert_eq!(inst.responses().n_workers(), 3);
        assert_eq!(inst.gold().n_tasks(), 10);
        let p = inst.true_error_rate(WorkerId(0));
        assert!(p > 0.0 && p < 0.5);
    }

    #[test]
    fn kary_instance_exposes_truth() {
        let inst = KaryScenario::paper_default(4, 20, 1.0).generate(&mut rng(2));
        let m = inst.true_confusion(WorkerId(1));
        assert_eq!(m.rows(), 4);
        assert_eq!(inst.selectivity().len(), 4);
        let p = inst.true_error_rate(WorkerId(1));
        assert!(p > 0.0 && p < 0.5, "error rate {p}");
    }

    #[test]
    fn with_worker_model_replaces_one_worker() {
        let mut r = rng(5);
        let inst = KaryScenario::paper_default(2, 200, 0.8).generate(&mut r);
        let before = inst.responses().clone();
        let attempted_before: Vec<u32> = before
            .worker_responses(WorkerId(1))
            .iter()
            .map(|&(t, _)| t)
            .collect();
        // A worker that always answers label 0.
        let degenerate = WorkerModel::Confusion(Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]));
        let inst = inst.with_worker_model(WorkerId(1), degenerate, &mut r);
        // Same attempted tasks, all answers now 0.
        let after = inst.responses().worker_responses(WorkerId(1));
        let attempted_after: Vec<u32> = after.iter().map(|&(t, _)| t).collect();
        assert_eq!(attempted_before, attempted_after);
        assert!(after.iter().all(|&(_, l)| l == crowd_data::Label(0)));
        // Other workers untouched.
        assert_eq!(
            before.worker_responses(WorkerId(0)),
            inst.responses().worker_responses(WorkerId(0))
        );
        // Truth accessor reflects the new model.
        assert_eq!(inst.true_confusion(WorkerId(1)).get(1, 0), 1.0);
    }
}
