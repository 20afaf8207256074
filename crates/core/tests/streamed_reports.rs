//! Streamed, cached and subset evaluations reproduce batch evaluation
//! bit for bit, judged by the `crowd_oracle` comparators: the report
//! cache against uncached evaluation of the same stream, the streaming
//! evaluators against the batch estimators, a subset evaluation
//! against the full fleet's rows, and a triple-capped evaluation on
//! the naive scan substrate against the same cap on the index.

use crowd_core::{
    EstimateError, Estimator, EstimatorConfig, IncrementalEvaluator, KaryIncrementalEvaluator,
    KaryMWorkerEstimator, MWorkerEstimator, Report, ReportCache,
};
use crowd_data::{Label, OverlapIndex, OverlapSource, Response, StreamingIndex, TaskId, WorkerId};
use crowd_oracle::{BitRow, report_difference, row_difference};
use crowd_sim::{BinaryScenario, KaryScenario, rng};

// ---------------------------------------------------------------------------
// Report cache.

/// The uncached subset evaluation the cache must reproduce.
fn uncached<E: Estimator>(
    est: &E,
    stream: &StreamingIndex,
    anchors: &[WorkerId],
    confidence: f64,
) -> Report<E::Assessment> {
    let mut report = Report::default();
    for &w in anchors {
        report.push(w, est.evaluate_streamed(stream, w, confidence));
    }
    report
}

fn estimator<E: Estimator>() -> E {
    E::from_config(EstimatorConfig::default())
}

/// A fully streamed scenario for each estimator: binary responses
/// for A2, ternary `KaryScenario` responses for the k-ary A3
/// extension.
fn binary_stream(m: usize, n: usize, seed: u64) -> StreamingIndex {
    StreamingIndex::from_matrix(
        BinaryScenario::paper_default(m, n, 0.9)
            .generate(&mut rng(seed))
            .responses(),
    )
}

fn kary_stream(m: usize, n: usize, seed: u64) -> StreamingIndex {
    StreamingIndex::from_matrix(
        KaryScenario::paper_default(3, n, 0.9)
            .with_workers(m)
            .generate(&mut rng(seed))
            .responses(),
    )
}

fn anchors_of(stream: &StreamingIndex) -> Vec<WorkerId> {
    stream.index().workers().collect()
}

fn ingest(s: &mut StreamingIndex, w: u32, t: u32, l: u16) {
    s.record_response(Response {
        worker: WorkerId(w),
        task: TaskId(t),
        label: Label(l),
    })
    .unwrap();
}

/// Cached refresh equals the uncached subset evaluation bit for
/// bit at every prefix of a stream, with ingests interleaved
/// between drains.
#[test]
fn cached_refresh_matches_full_recompute_at_every_drain() {
    let inst = BinaryScenario::paper_default(8, 90, 0.8).generate(&mut rng(811));
    let data = inst.responses();
    let est = MWorkerEstimator::new(EstimatorConfig::default());
    let mut stream = StreamingIndex::new(data.n_workers(), data.n_tasks(), 2);
    let anchors: Vec<WorkerId> = (0..data.n_workers() as u32).map(WorkerId).collect();
    let mut cache = ReportCache::new();
    for (i, r) in data.iter().enumerate() {
        stream.record_response(r).unwrap();
        if i % 37 == 0 || i + 1 == data.n_responses() {
            let cached = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
            let full = est.evaluate_workers_on(&stream, &anchors, 0.9).unwrap();
            assert_eq!(
                report_difference(&cached, &full),
                None,
                "cached report diverged at response {i}"
            );
        }
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "steady drains must produce cache hits");
    assert!(stats.misses > 0);
    assert_eq!(stats.full_refreshes, 0);
}

/// A quiet stretch makes the next drain free: zero dirty rows,
/// all hits.
fn quiet_drains_are_all_hits_for<E: Estimator>(stream: StreamingIndex) {
    let est: E = estimator();
    let anchors = anchors_of(&stream);
    let mut cache = ReportCache::new();
    cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
    assert_eq!(cache.stats().last_dirty, anchors.len());
    cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.last_dirty, 0);
    assert_eq!(stats.hits, anchors.len() as u64);
}

#[test]
fn quiet_drains_are_all_hits() {
    quiet_drains_are_all_hits_for::<MWorkerEstimator>(binary_stream(6, 60, 821));
    quiet_drains_are_all_hits_for::<KaryMWorkerEstimator>(kary_stream(6, 60, 822));
}

/// A sparse ingest burst dirties only the responder's
/// co-occurrence neighbourhood — the next refresh re-evaluates
/// exactly that set and the result still matches full recompute.
fn sparse_burst_reevaluates_only_the_dirty_set_for<E: Estimator>(arity: u16)
where
    E::Assessment: BitRow,
{
    // Two disjoint communities of 4 workers over disjoint tasks.
    let mut stream = StreamingIndex::new(8, 40, arity);
    let k = u32::from(arity);
    for t in 0..20u32 {
        for w in 0..4u32 {
            ingest(&mut stream, w, t, ((w + t) % k) as u16);
        }
    }
    for t in 20..40u32 {
        for w in 4..8u32 {
            if (w, t) == (6, 25) {
                continue; // left for the post-drain burst below
            }
            ingest(&mut stream, w, t, ((w * t) % k) as u16);
        }
    }
    let est: E = estimator();
    let anchors: Vec<WorkerId> = (0..8u32).map(WorkerId).collect();
    let mut cache = ReportCache::new();
    cache.refresh(&est, &stream, &anchors, 0.9).unwrap();

    // One response from worker 6 dirties only community B.
    ingest(&mut stream, 6, 25, 1);
    let cached = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
    assert_eq!(
        cache.stats().last_dirty,
        4,
        "only the responder's community is dirty"
    );
    assert_eq!(
        report_difference(&cached, &uncached(&est, &stream, &anchors, 0.9)),
        None
    );
}

#[test]
fn sparse_burst_reevaluates_only_the_dirty_set() {
    sparse_burst_reevaluates_only_the_dirty_set_for::<MWorkerEstimator>(2);
    sparse_burst_reevaluates_only_the_dirty_set_for::<KaryMWorkerEstimator>(3);
}

/// Changing the confidence level invalidates wholesale — cached
/// rows answer a different question and must not be served.
fn confidence_change_forces_full_refresh_for<E: Estimator>(stream: StreamingIndex)
where
    E::Assessment: BitRow,
{
    let est: E = estimator();
    let anchors = anchors_of(&stream);
    let mut cache = ReportCache::new();
    cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
    let at95 = cache.refresh(&est, &stream, &anchors, 0.95).unwrap();
    assert_eq!(cache.stats().full_refreshes, 1);
    assert_eq!(cache.stats().last_dirty, anchors.len());
    assert_eq!(
        report_difference(&at95, &uncached(&est, &stream, &anchors, 0.95)),
        None
    );
}

#[test]
fn confidence_change_forces_full_refresh() {
    confidence_change_forces_full_refresh_for::<MWorkerEstimator>(binary_stream(5, 50, 831));
    confidence_change_forces_full_refresh_for::<KaryMWorkerEstimator>(kary_stream(5, 80, 832));
}

/// Failure rows (e.g. NoUsableTriples) are cached and re-served
/// like successes, and the population guard mirrors the uncached
/// entry point.
fn failures_cache_and_guards_mirror_uncached_path_for<E: Estimator>(arity: u16)
where
    E::Assessment: BitRow,
{
    let mut stream = StreamingIndex::new(4, 8, arity);
    for t in 0..8u32 {
        ingest(&mut stream, t % 4, t, (t % u32::from(arity)) as u16);
    }
    let est: E = estimator();
    let anchors: Vec<WorkerId> = (0..4u32).map(WorkerId).collect();
    let mut cache = ReportCache::new();
    let first = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
    assert_eq!(first.failures.len(), 4);
    assert_eq!(
        report_difference(&first, &uncached(&est, &stream, &anchors, 0.9)),
        None
    );
    let second = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
    assert_eq!(cache.stats().last_dirty, 0, "failures must cache too");
    assert_eq!(report_difference(&first, &second), None);

    let tiny = StreamingIndex::new(2, 4, arity);
    assert_eq!(tiny.n_workers(), 2);
    assert!(matches!(
        ReportCache::new().refresh(&est, &tiny, &[WorkerId(0)], 0.9),
        Err(EstimateError::NotEnoughWorkers { got: 2, need: 3 })
    ));
}

#[test]
fn failures_cache_and_guards_mirror_uncached_path() {
    failures_cache_and_guards_mirror_uncached_path_for::<MWorkerEstimator>(2);
    failures_cache_and_guards_mirror_uncached_path_for::<KaryMWorkerEstimator>(3);
}

/// Single-worker assess shares the same row store as refresh: an
/// assess after a refresh hits, and returns the same bits as an
/// uncached evaluation.
fn assess_and_refresh_share_rows_for<E: Estimator>(stream: StreamingIndex)
where
    E::Assessment: BitRow,
{
    let est: E = estimator();
    let anchors = anchors_of(&stream);
    let mut cache = ReportCache::new();
    cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
    let misses_before = cache.stats().misses;
    let a = cache.assess(&est, &stream, WorkerId(2), 0.9);
    assert_eq!(cache.stats().misses, misses_before, "assess must hit");
    let direct = est.evaluate_streamed(&stream, WorkerId(2), 0.9);
    assert_eq!(row_difference(&a, &direct), None);
}

#[test]
fn assess_and_refresh_share_rows() {
    assess_and_refresh_share_rows_for::<MWorkerEstimator>(binary_stream(5, 60, 841));
    assess_and_refresh_share_rows_for::<KaryMWorkerEstimator>(kary_stream(5, 80, 842));
}

/// The k-ary cache obeys the same contract.
#[test]
fn kary_cache_matches_full_recompute() {
    let inst = KaryScenario::paper_default(3, 80, 0.9)
        .with_workers(6)
        .generate(&mut rng(851));
    let data = inst.responses();
    let est = KaryMWorkerEstimator::new(EstimatorConfig::default());
    let mut stream = StreamingIndex::new(data.n_workers(), data.n_tasks(), 3);
    let anchors: Vec<WorkerId> = (0..data.n_workers() as u32).map(WorkerId).collect();
    let mut cache = ReportCache::new();
    for (i, r) in data.iter().enumerate() {
        stream.record_response(r).unwrap();
        if i % 53 == 0 || i + 1 == data.n_responses() {
            let cached = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
            let full = est.evaluate_workers_on(&stream, &anchors, 0.9).unwrap();
            assert_eq!(report_difference(&cached, &full), None, "at response {i}");
        }
    }
    assert!(cache.stats().hits > 0);
}

// ---------------------------------------------------------------------------
// Streaming evaluators.

fn streamed(inst: &crowd_sim::BinaryInstance) -> IncrementalEvaluator {
    let data = inst.responses();
    let mut ev = IncrementalEvaluator::new(
        data.n_workers(),
        data.n_tasks(),
        data.arity(),
        EstimatorConfig::default(),
    );
    for r in data.iter() {
        ev.ingest(r).unwrap();
    }
    ev
}

#[test]
fn streaming_matches_batch_estimator_exactly() {
    let inst = BinaryScenario::paper_default(7, 120, 0.8).generate(&mut rng(401));
    let ev = streamed(&inst);
    assert_eq!(ev.index(), &OverlapIndex::from_matrix(inst.responses()));

    let batch = MWorkerEstimator::new(EstimatorConfig::default())
        .evaluate_all(inst.responses(), 0.9)
        .unwrap();
    let streaming = ev.evaluate_all(0.9).unwrap();
    assert_eq!(report_difference(&batch, &streaming), None);
}

#[test]
fn cached_evaluate_all_matches_uncached_across_a_stream() {
    let inst = BinaryScenario::paper_default(6, 80, 0.8).generate(&mut rng(431));
    let data = inst.responses();
    let mut ev = IncrementalEvaluator::new(6, 80, 2, EstimatorConfig::default());
    for (i, r) in data.iter().enumerate() {
        ev.ingest(r).unwrap();
        if i % 41 == 0 || i + 1 == data.n_responses() {
            let cached = ev.evaluate_all_cached(0.9).unwrap();
            let full = ev.evaluate_all(0.9).unwrap();
            assert_eq!(report_difference(&cached, &full), None, "at response {i}");
        }
    }
    // Quiet re-drain: everything served from cache.
    let misses = ev.cache_stats().misses;
    ev.evaluate_all_cached(0.9).unwrap();
    assert_eq!(ev.cache_stats().misses, misses);
    assert_eq!(ev.cache_stats().last_dirty, 0);
}

#[test]
fn seeding_from_matrix_equals_streaming() {
    let inst = BinaryScenario::paper_default(5, 60, 0.9).generate(&mut rng(403));
    let seeded = IncrementalEvaluator::from_matrix(inst.responses(), EstimatorConfig::default());
    let streamed = streamed(&inst);
    assert_eq!(seeded.index(), streamed.index());
    assert_eq!(seeded.n_responses(), streamed.n_responses());
    assert_eq!(
        report_difference(
            &seeded.evaluate_all(0.9).unwrap(),
            &streamed.evaluate_all(0.9).unwrap()
        ),
        None
    );
}

#[test]
fn kary_streaming_matches_batch() {
    let inst = KaryScenario::paper_default(2, 150, 0.9)
        .with_workers(5)
        .generate(&mut rng(419));
    let mut ev = KaryIncrementalEvaluator::new(5, 150, 2, EstimatorConfig::default());
    for r in inst.responses().iter() {
        ev.ingest(r).unwrap();
    }
    let batch = KaryMWorkerEstimator::new(EstimatorConfig::default())
        .evaluate_all(inst.responses(), 0.9)
        .unwrap();
    let streaming = ev.evaluate_all(0.9).unwrap();
    assert_eq!(report_difference(&batch, &streaming), None);
}

// ---------------------------------------------------------------------------
// Subset and capped evaluation.

#[test]
fn max_triples_caps_every_path_identically() {
    let inst = BinaryScenario::paper_default(13, 150, 0.8).generate(&mut rng(61));
    let data = inst.responses();
    let capped = MWorkerEstimator::new(EstimatorConfig::fleet(2));

    let serial = capped.evaluate_all(data, 0.9).unwrap();
    assert!(!serial.assessments.is_empty());
    for a in &serial.assessments {
        assert!(
            a.triples_used <= 2,
            "worker {:?} used {}",
            a.worker,
            a.triples_used
        );
    }
    // The uncapped estimator really does use more triples here, so
    // the cap is doing work.
    let full = estimator::<MWorkerEstimator>()
        .evaluate_all(data, 0.9)
        .unwrap();
    assert!(full.assessments.iter().any(|a| a.triples_used > 2));

    // Naive scans and the indexed path agree bit for bit under
    // the cap.
    let workers: Vec<WorkerId> = data.workers().collect();
    let naive = capped.evaluate_workers_on(data, &workers, 0.9).unwrap();
    assert_eq!(
        report_difference(&serial, &naive),
        None,
        "naive vs indexed under cap"
    );

    // A cap above the available pairing degree is a no-op.
    let big = MWorkerEstimator::new(EstimatorConfig::fleet(64))
        .evaluate_all(data, 0.9)
        .unwrap();
    assert_eq!(report_difference(&big, &full), None);
}

/// Each worker of a subset evaluation gets exactly the outcome the
/// full-fleet evaluation gives it.
#[test]
fn kary_subset_evaluation_matches_full_fleet_rows() {
    let inst = KaryScenario::paper_default(2, 150, 0.9)
        .with_workers(6)
        .generate(&mut rng(131));
    let est = KaryMWorkerEstimator::new(EstimatorConfig::default());
    let full = est.evaluate_all(inst.responses(), 0.9).unwrap();
    let stream = StreamingIndex::from_matrix(inst.responses());
    let subset = [WorkerId(4), WorkerId(1)];
    let partial = est.evaluate_workers_on(&stream, &subset, 0.9).unwrap();
    let full_subset = Report {
        assessments: subset
            .iter()
            .filter_map(|&w| full.assessments.iter().find(|a| a.worker == w).cloned())
            .collect(),
        failures: subset
            .iter()
            .filter_map(|&w| full.failures.iter().find(|f| f.0 == w).cloned())
            .collect(),
    };
    assert_eq!(report_difference(&full_subset, &partial), None);
}
