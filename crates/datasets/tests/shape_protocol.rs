//! Dataset-level acceptance tests: every stand-in must match the shape
//! statistics the paper publishes for its real dataset, across seeds —
//! otherwise the Figure 3/4/5c protocols run on the wrong workload.

use crowd_data::WorkerId;
use crowd_datasets::{Dataset, triples_with_overlap};

const SEEDS: [u64; 4] = [1, 77, 2015, 20150413];

fn for_each_seed(generate: fn(u64) -> Dataset, check: impl Fn(&Dataset)) {
    for seed in SEEDS {
        check(&generate(seed));
    }
}

#[test]
fn ic_matches_published_shape() {
    // Paper: 48 binary tasks × 19 workers, regular, then 20% of
    // responses removed for the non-regular experiment.
    for_each_seed(crowd_datasets::ic::generate, |d| {
        assert_eq!(d.name, "IC");
        assert_eq!(d.responses.n_workers(), 19);
        assert_eq!(d.responses.n_tasks(), 48);
        assert_eq!(d.responses.arity(), 2);
        let full = 19 * 48;
        let removed = full - d.responses.n_responses();
        assert_eq!(removed, full / 5, "exactly 20% removed");
        assert_eq!(d.gold.known_count(), 48);
    });
}

#[test]
fn ent_matches_published_shape_and_plants_spammers() {
    // Paper: 800 binary tasks, 164 workers, ~10 labels per task.
    for_each_seed(crowd_datasets::ent::generate, |d| {
        assert_eq!(d.name, "ENT");
        assert_eq!(d.responses.n_workers(), 164);
        assert_eq!(d.responses.n_tasks(), 800);
        assert_eq!(d.responses.arity(), 2);
        let labels_per_task = d.responses.n_responses() as f64 / 800.0;
        assert!(
            (8.0..=12.0).contains(&labels_per_task),
            "≈10 labels per task, got {labels_per_task:.1}"
        );
        // The stand-in deliberately violates the model with spammers
        // (empirical error rate near 1/2) — the very thing Figure 4's
        // pruning exists for.
        let spammers = d
            .responses
            .workers()
            .filter(|&w| d.empirical_error_rate(w).is_some_and(|p| p > 0.4))
            .count();
        assert!(spammers >= 5, "expected planted spammers, found {spammers}");
    });
}

#[test]
fn tem_matches_published_shape() {
    // Paper: 462 binary tasks, 76 workers, sparse.
    for_each_seed(crowd_datasets::tem::generate, |d| {
        assert_eq!(d.name, "TEM");
        assert_eq!(d.responses.n_workers(), 76);
        assert_eq!(d.responses.n_tasks(), 462);
        assert_eq!(d.responses.arity(), 2);
        assert!(
            d.responses.density() < 0.25,
            "TEM is sparse: {}",
            d.responses.density()
        );
    });
}

#[test]
fn kary_datasets_have_mapped_arities() {
    // MOOC: 6-ary grades mapped to 3-ary; WSD: 3-ary mapped to binary;
    // WS: 11-ary mapped to binary (§IV-C).
    for_each_seed(crowd_datasets::mooc::generate, |d| {
        assert_eq!(d.name, "MOOC");
        assert_eq!(d.responses.arity(), 3);
    });
    for_each_seed(crowd_datasets::wsd::generate, |d| {
        assert_eq!(d.name, "WSD");
        assert_eq!(d.responses.arity(), 2);
    });
    for_each_seed(crowd_datasets::ws::generate, |d| {
        assert_eq!(d.name, "WS");
        assert_eq!(d.responses.arity(), 2);
    });
}

#[test]
fn kary_datasets_clear_the_triple_thresholds() {
    // The §IV-C protocol needs 50 worker triples above each dataset's
    // overlap threshold t (MOOC 60, WSD 100, WS 30).
    type Generator = fn(u64) -> Dataset;
    let cases: [(Generator, usize, &str); 3] = [
        (crowd_datasets::mooc::generate, 60, "MOOC"),
        (crowd_datasets::wsd::generate, 100, "WSD"),
        (crowd_datasets::ws::generate, 30, "WS"),
    ];
    for (generate, threshold, name) in cases {
        let d = generate(11);
        let mut rng = crowd_sim::rng(13);
        let triples = triples_with_overlap(&d.responses, threshold, 50, &mut rng);
        assert_eq!(
            triples.len(),
            50,
            "{name}: need 50 triples above t = {threshold}, found {}",
            triples.len()
        );
        // Triples are distinct worker sets.
        for t in &triples {
            assert_ne!(t[0], t[1]);
            assert_ne!(t[1], t[2]);
            assert_ne!(t[0], t[2]);
        }
    }
}

#[test]
fn ws_is_the_sparsest_kary_dataset() {
    // The paper reduces WS to binary *because* no triple of workers
    // had more than 30 tasks in common; our stand-in preserves that
    // extreme sparsity relative to MOOC/WSD.
    let ws = crowd_datasets::ws::generate(5);
    let wsd = crowd_datasets::wsd::generate(5);
    assert!(
        ws.responses.n_responses() < wsd.responses.n_responses() / 2,
        "WS should be much sparser: {} vs {}",
        ws.responses.n_responses(),
        wsd.responses.n_responses()
    );
}

#[test]
fn empirical_error_rates_are_defined_and_plausible() {
    // Every stand-in: workers with gold-overlapping responses get an
    // empirical error rate in [0, 1), and the bulk of the crowd is
    // better than random.
    let generators: [fn(u64) -> Dataset; 6] = [
        crowd_datasets::ic::generate,
        crowd_datasets::ent::generate,
        crowd_datasets::tem::generate,
        crowd_datasets::mooc::generate,
        crowd_datasets::wsd::generate,
        crowd_datasets::ws::generate,
    ];
    for generate in generators {
        let d = generate(23);
        let rates: Vec<f64> = d
            .responses
            .workers()
            .filter_map(|w| d.empirical_error_rate(w))
            .collect();
        assert!(!rates.is_empty(), "{}: no scorable workers", d.name);
        for &p in &rates {
            assert!((0.0..=1.0).contains(&p), "{}: error rate {p}", d.name);
        }
        let decent = rates.iter().filter(|&&p| p < 0.5).count();
        assert!(
            decent * 3 >= rates.len() * 2,
            "{}: most workers should beat coin flips ({decent}/{})",
            d.name,
            rates.len()
        );
    }
}

#[test]
fn generation_is_deterministic_per_seed() {
    for (a, b) in [
        (
            crowd_datasets::ent::generate(99),
            crowd_datasets::ent::generate(99),
        ),
        (
            crowd_datasets::mooc::generate(99),
            crowd_datasets::mooc::generate(99),
        ),
    ] {
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.gold.known_count(), b.gold.known_count());
    }
    // Different seeds differ.
    let a = crowd_datasets::ent::generate(99);
    let b = crowd_datasets::ent::generate(100);
    assert_ne!(a.responses, b.responses);
}

#[test]
fn figure3_protocol_evaluates_most_ic_workers() {
    // End-to-end sanity of the real-data protocol on the densest
    // stand-in: with the overlap floor, nearly every IC worker is
    // evaluable.
    use crowd_core::{EstimatorConfig, MWorkerEstimator};
    let d = crowd_datasets::ic::generate(31);
    let est = MWorkerEstimator::new(EstimatorConfig {
        min_pair_overlap: 10,
        ..EstimatorConfig::clamping()
    });
    let report = est.evaluate_all(&d.responses, 0.9).unwrap();
    assert!(
        report.assessments.len() >= 17,
        "IC is dense; expected ≥17/19 evaluable, got {}",
        report.assessments.len()
    );
    let _ = WorkerId(0);
}
