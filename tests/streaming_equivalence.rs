//! Differential streaming-vs-batch equivalence harness.
//!
//! The streaming evaluators ride the maintained [`StreamingIndex`]
//! substrate; these tests pin the central guarantee of PR 2: for
//! random response streams ingested in **random orders**, evaluation
//! on the streamed substrate is **bit-identical** to the batch
//! estimators on the accumulated data — at every checkpointed prefix,
//! for binary (Algorithm A2) and k-ary (m-worker A3) pipelines alike,
//! successes and failures both.

use crowd_assess::core::{
    EstimateError, IncrementalEvaluator, KaryIncrementalEvaluator, KaryMWorkerEstimator,
};
use crowd_assess::data::{Response, ResponseMatrix, StreamingIndex};
use crowd_assess::prelude::*;
use crowd_assess::sim::{BinaryScenario, KaryScenario, rng};
use crowd_oracle::report_difference;

/// Deterministic Fisher-Yates shuffle with its own LCG so every
/// failure reproduces from the printed seed.
fn shuffle(items: &mut [Response], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((seed >> 33) as usize) % (i + 1);
        items.swap(i, j);
    }
}

/// Binary pipeline: streamed evaluation equals batch evaluation at
/// every checkpointed prefix, across several stream orders.
#[test]
fn binary_streaming_is_bit_identical_to_batch_at_every_prefix() {
    let batch_est = MWorkerEstimator::new(EstimatorConfig::default());
    for seed in [11u64, 12, 13] {
        let inst = BinaryScenario::paper_default(6, 80, 0.8).generate(&mut rng(seed));
        let data = inst.responses();
        let mut responses: Vec<Response> = data.iter().collect();
        shuffle(&mut responses, seed.wrapping_mul(0x9e3779b97f4a7c15));

        let mut monitor = IncrementalEvaluator::new(6, 80, 2, EstimatorConfig::default());
        let mut accumulated = ResponseMatrix::empty(6, 80, 2);
        for (i, r) in responses.iter().enumerate() {
            monitor.ingest(*r).unwrap();
            accumulated.insert(*r).unwrap();
            let at_checkpoint = (i + 1) % 60 == 0 || i + 1 == responses.len();
            if !at_checkpoint {
                continue;
            }
            let batch = batch_est.evaluate_all(&accumulated, 0.9).unwrap();
            let streaming = monitor.evaluate_all(0.9).unwrap();
            let diff = report_difference(&batch, &streaming);
            assert_eq!(diff, None, "seed {seed}, prefix {}", i + 1);
        }
    }
}

/// Seeding from a matrix and then streaming the rest lands in exactly
/// the same state as streaming everything.
#[test]
fn seeded_plus_streamed_equals_fully_streamed() {
    let inst = BinaryScenario::paper_default(5, 60, 0.9).generate(&mut rng(29));
    let data = inst.responses();
    let mut responses: Vec<Response> = data.iter().collect();
    shuffle(&mut responses, 0xfeed);
    let cut = responses.len() / 2;

    let mut head = ResponseMatrix::empty(5, 60, 2);
    for r in &responses[..cut] {
        head.insert(*r).unwrap();
    }
    let mut seeded = IncrementalEvaluator::from_matrix(&head, EstimatorConfig::default());
    let mut streamed = IncrementalEvaluator::new(5, 60, 2, EstimatorConfig::default());
    for r in &responses[..cut] {
        streamed.ingest(*r).unwrap();
    }
    for r in &responses[cut..] {
        seeded.ingest(*r).unwrap();
        streamed.ingest(*r).unwrap();
    }
    assert_eq!(seeded.index(), streamed.index());
    let a = seeded.evaluate_all(0.9).unwrap();
    let b = streamed.evaluate_all(0.9).unwrap();
    assert_eq!(report_difference(&a, &b), None, "seeded vs streamed");
}

/// k-ary pipeline: the streaming evaluator's per-entry intervals and
/// failure taxonomy equal the batch m-worker A3 extension at
/// checkpointed prefixes.
#[test]
fn kary_streaming_is_bit_identical_to_batch_at_prefixes() {
    let batch_est = KaryMWorkerEstimator::new(EstimatorConfig::default());
    let inst = KaryScenario::paper_default(2, 150, 0.9)
        .with_workers(5)
        .generate(&mut rng(31));
    let data = inst.responses();
    let mut responses: Vec<Response> = data.iter().collect();
    shuffle(&mut responses, 0xabcd);

    let mut monitor = KaryIncrementalEvaluator::new(5, 150, 2, EstimatorConfig::default());
    let mut accumulated = ResponseMatrix::empty(5, 150, 2);
    let checkpoints = [responses.len() / 2, responses.len()];
    for (i, r) in responses.iter().enumerate() {
        monitor.ingest(*r).unwrap();
        accumulated.insert(*r).unwrap();
        if !checkpoints.contains(&(i + 1)) {
            continue;
        }
        let batch = batch_est.evaluate_all(&accumulated, 0.9).unwrap();
        let streaming = monitor.evaluate_all(0.9).unwrap();
        let diff = report_difference(&batch, &streaming);
        assert_eq!(diff, None, "k-ary prefix {}", i + 1);
    }
}

/// Fleet configuration (capped triples → peer-scoped views): streamed
/// evaluation still equals batch at every checkpointed prefix, and the
/// view memory tracks one pairing-degree view, not the worker count:
/// views are built per evaluation into one substrate-owned scratch, so
/// after evaluating all `m` anchors the substrate holds no more mask
/// words than one peer-scoped view of the busiest anchor — with a cap
/// of `c` triples, `2c` peer rows of its task words.
#[test]
fn capped_streaming_is_bit_identical_and_peer_scoped() {
    // (triple cap, workers, tasks, density, seed)
    for (cap, m, n, density, seed) in [
        (2usize, 12usize, 100usize, 0.8, 17u64),
        (16, 600, 400, 0.1, 23),
    ] {
        let config = EstimatorConfig::fleet(cap);
        let batch_est = MWorkerEstimator::new(config.clone());
        let inst = BinaryScenario::paper_default(m, n, density).generate(&mut rng(seed));
        let data = inst.responses();
        let mut responses: Vec<Response> = data.iter().collect();
        shuffle(&mut responses, 0xcab1e);

        let mut monitor = IncrementalEvaluator::new(m, n, 2, config.clone());
        let mut accumulated = ResponseMatrix::empty(m, n, 2);
        let checkpoints = [responses.len() / 2, responses.len()];
        for (i, r) in responses.iter().enumerate() {
            monitor.ingest(*r).unwrap();
            accumulated.insert(*r).unwrap();
            if !checkpoints.contains(&(i + 1)) {
                continue;
            }
            let batch = batch_est.evaluate_all(&accumulated, 0.9).unwrap();
            let streaming = monitor.evaluate_all(0.9).unwrap();
            let diff = report_difference(&batch, &streaming);
            assert_eq!(diff, None, "cap {cap}, m = {m}, prefix {}", i + 1);
            for a in &streaming.assessments {
                assert!(a.triples_used <= cap);
            }
        }

        // 2·cap peers stay below m/2 in both cases, so every view is
        // peer-scoped rather than promoted to a population view.
        assert!(4 * cap <= m);
        let busiest = accumulated
            .workers()
            .map(|w| accumulated.worker_task_count(w))
            .max()
            .unwrap();
        let one_view = 2 * cap * busiest.div_ceil(64) * std::mem::size_of::<u64>();
        let resident = monitor.view_mask_bytes();
        assert!(
            resident > 0,
            "evaluating every anchor must have built views"
        );
        assert!(
            resident <= one_view,
            "cap {cap}, m = {m}: {resident}B of view mask words resident after evaluating \
             all anchors; one peer-scoped view holds at most {one_view}B"
        );
    }
}

/// The streaming substrate rejects malformed ingests with the data
/// error taxonomy and refuses evaluation with the estimator taxonomy —
/// never a panic.
#[test]
fn error_taxonomy_is_stable_under_streaming() {
    use crowd_assess::data::{DataError, Label, TaskId};
    let mut stream = StreamingIndex::new(3, 4, 2);
    let ok = Response {
        worker: WorkerId(0),
        task: TaskId(0),
        label: Label(1),
    };
    stream.record_response(ok).unwrap();
    assert!(matches!(
        stream.record_response(ok),
        Err(DataError::DuplicateResponse { .. })
    ));
    assert!(matches!(
        stream.record_response(Response {
            worker: WorkerId(7),
            task: TaskId(0),
            label: Label(0)
        }),
        Err(DataError::UnknownId { kind: "worker", .. })
    ));
    assert!(matches!(
        stream.record_response(Response {
            worker: WorkerId(0),
            task: TaskId(9),
            label: Label(0)
        }),
        Err(DataError::UnknownId { kind: "task", .. })
    ));
    assert!(matches!(
        stream.record_response(Response {
            worker: WorkerId(0),
            task: TaskId(1),
            label: Label(5)
        }),
        Err(DataError::LabelOutOfRange { label: 5, arity: 2 })
    ));

    let ev = IncrementalEvaluator::new(2, 4, 2, EstimatorConfig::default());
    assert!(matches!(
        ev.evaluate_all(0.9),
        Err(EstimateError::NotEnoughWorkers { got: 2, need: 3 })
    ));
}
