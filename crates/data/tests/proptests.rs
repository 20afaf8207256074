//! Property-based tests on the data-model invariants: overlap scans,
//! the pair table, counts tensors and CSV round-trips must all agree
//! with brute-force recomputation on arbitrary sparse matrices.

use crowd_data::{
    AnchoredOverlap, AttemptPattern, CountsTensor, Label, OverlapIndex, OverlapSource, PairMap,
    PeerGram, PeerGramScratch, Response, ResponseMatrix, ResponseMatrixBuilder, StreamingIndex,
    TaskId, TriplePairGram, WorkerId, majority_vote, pair_stats, triple_joint_labels,
    triple_joint_labels_optional, triple_overlap,
};
use proptest::prelude::*;

/// Deterministic Fisher-Yates shuffle (the vendored proptest has no
/// shuffle strategy; a seeded LCG keeps failures reproducible).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((seed >> 33) as usize) % (i + 1);
        items.swap(i, j);
    }
}

/// Strategy: an arbitrary sparse response matrix. Each (worker, task)
/// cell is present with probability ~0.6 and carries a random label.
fn sparse_matrix(
    max_workers: usize,
    max_tasks: usize,
    arity: u16,
) -> impl Strategy<Value = ResponseMatrix> {
    (2..=max_workers, 2..=max_tasks).prop_flat_map(move |(m, n)| {
        proptest::collection::vec(proptest::option::weighted(0.6, 0..arity), m * n).prop_map(
            move |cells| {
                let mut b = ResponseMatrixBuilder::new(m, n, arity);
                for (i, cell) in cells.iter().enumerate() {
                    if let Some(label) = cell {
                        let (w, t) = (i / n, i % n);
                        b.push(WorkerId(w as u32), TaskId(t as u32), Label(*label))
                            .expect("generated ids are valid");
                    }
                }
                b.build().expect("generated cells are unique")
            },
        )
    })
}

/// Strategy: a response matrix whose pair-table rows fall on both
/// sides of the dense-row threshold (`3·d ≥ m`). Each worker answers
/// each task with its own probability, 2–70%, so light workers
/// co-occur with a few peers while heavy ones co-occur with most of
/// the fleet — and a streamed heavy row crosses the threshold
/// mid-stream.
fn mixed_density_matrix(
    max_workers: usize,
    max_tasks: usize,
    arity: u16,
) -> impl Strategy<Value = ResponseMatrix> {
    (6..=max_workers, 8..=max_tasks).prop_flat_map(move |(m, n)| {
        (
            proptest::collection::vec(2u32..70, m),
            proptest::collection::vec((0u32..100, 0..arity), m * n),
        )
            .prop_map(move |(activity, cells)| {
                let mut b = ResponseMatrixBuilder::new(m, n, arity);
                for (i, &(roll, label)) in cells.iter().enumerate() {
                    let (w, t) = (i / n, i % n);
                    if roll < activity[w] {
                        b.push(WorkerId(w as u32), TaskId(t as u32), Label(label))
                            .expect("generated ids are valid");
                    }
                }
                b.build().expect("generated cells are unique")
            })
    })
}

/// Brute-force pair statistics straight from `response()` lookups.
fn brute_pair(data: &ResponseMatrix, a: WorkerId, b: WorkerId) -> (usize, usize) {
    let mut common = 0;
    let mut agree = 0;
    for t in 0..data.n_tasks() as u32 {
        if let (Some(x), Some(y)) = (data.response(a, TaskId(t)), data.response(b, TaskId(t))) {
            common += 1;
            if x == y {
                agree += 1;
            }
        }
    }
    (common, agree)
}

/// One run of the stream-vs-load view property (see
/// `streamed_views_match_loaded_views_at_prefixes` below): replays
/// `data` in a shuffled order into one substrate and, at a third, two
/// thirds and all of the stream, builds every worker's view — its
/// `mask`-chosen peer scope and the population scope — on that
/// substrate and on a fresh bulk load of the same prefix. The two must
/// answer every query identically, grams included.
fn check_stream_views_match_loads(
    data: &ResponseMatrix,
    order_seed: u64,
    mask: u64,
) -> Result<(), TestCaseError> {
    let (m, n, arity) = (data.n_workers(), data.n_tasks(), data.arity());
    let all: Vec<WorkerId> = (0..m as u32).map(WorkerId).collect();
    let mut responses: Vec<Response> = data.iter().collect();
    shuffle(&mut responses, order_seed);
    let mut stream = StreamingIndex::new(m, n, arity);
    let mut accumulated = ResponseMatrix::empty(m, n, arity);
    let prefixes = [
        responses.len() / 3,
        responses.len() * 2 / 3,
        responses.len(),
    ];
    for (i, r) in responses.iter().enumerate() {
        stream.record_response(*r).unwrap();
        accumulated.insert(*r).unwrap();
        let at = i + 1;
        if !prefixes.contains(&at) {
            continue;
        }
        let loaded = StreamingIndex::from_matrix(&accumulated);
        prop_assert_eq!(stream.index(), loaded.index());
        for &anchor in &all {
            let scoped: Vec<WorkerId> = all
                .iter()
                .copied()
                .filter(|&p| p != anchor && (mask >> (p.index() % 64)) & 1 == 1)
                .collect();
            for peers in [&scoped, &all] {
                let view = stream.anchored_for(anchor, peers);
                let fresh = loaded.anchored_for(anchor, peers);
                prop_assert_eq!(
                    view.common_among(&[]),
                    accumulated.worker_task_count(anchor),
                    "prefix {} anchor {:?} slot count",
                    at,
                    anchor
                );
                prop_assert_eq!(
                    view.common_among(peers),
                    fresh.common_among(peers),
                    "prefix {} anchor {:?} common_among",
                    at,
                    anchor
                );
                for &a in peers {
                    prop_assert_eq!(
                        view.pair_common(a),
                        fresh.pair_common(a),
                        "prefix {} anchor {:?} peer {:?}",
                        at,
                        anchor,
                        a
                    );
                    for &b in peers {
                        prop_assert_eq!(
                            view.triple_common(a, b),
                            fresh.triple_common(a, b),
                            "prefix {} anchor {:?} pair ({:?},{:?})",
                            at,
                            anchor,
                            a,
                            b
                        );
                    }
                }
                prop_assert_eq!(view.gram(peers), fresh.gram(peers));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The merge-scan pair statistics equal brute force, and are
    /// symmetric in the worker order.
    #[test]
    fn pair_stats_match_brute_force(data in sparse_matrix(6, 25, 3)) {
        for a in 0..data.n_workers() as u32 {
            for b in 0..data.n_workers() as u32 {
                let s = pair_stats(&data, WorkerId(a), WorkerId(b));
                let (common, agree) = brute_pair(&data, WorkerId(a), WorkerId(b));
                prop_assert_eq!(s.common_tasks, common);
                prop_assert_eq!(s.agreements, agree);
                let t = pair_stats(&data, WorkerId(b), WorkerId(a));
                prop_assert_eq!(s.common_tasks, t.common_tasks);
                prop_assert_eq!(s.agreements, t.agreements);
            }
        }
    }

    /// The pair table agrees with the merge scans everywhere, on
    /// rows of both forms: every lookup equals `pair_stats` (absent
    /// pairs read zero), each worker's neighbour list is exactly its
    /// positive-overlap peers in id order, and the pair count is the
    /// number of co-occurring pairs.
    #[test]
    fn pair_table_matches_scans(
        dense in sparse_matrix(7, 25, 3),
        mixed in mixed_density_matrix(14, 24, 3),
    ) {
        for data in [dense, mixed] {
            let map = PairMap::from_matrix(&data);
            prop_assert_eq!(map.n_workers(), data.n_workers());
            let m = data.n_workers() as u32;
            let mut nonzero = 0usize;
            for a in 0..m {
                for b in 0..m {
                    if a == b { continue; }
                    let s = map.get(WorkerId(a), WorkerId(b));
                    prop_assert_eq!(s, pair_stats(&data, WorkerId(a), WorkerId(b)),
                        "pair ({},{})", a, b);
                    if a < b && s.common_tasks > 0 { nonzero += 1; }
                }
                let listed: Vec<u32> = map.co_occurring(WorkerId(a)).map(|w| w.0).collect();
                let expect: Vec<u32> = (0..m)
                    .filter(|&b| b != a
                        && pair_stats(&data, WorkerId(a), WorkerId(b)).common_tasks > 0)
                    .collect();
                prop_assert_eq!(listed, expect, "worker {}", a);
            }
            prop_assert_eq!(map.n_pairs(), nonzero);
        }
    }

    /// Streaming the responses one at a time, in a random order,
    /// leaves the pair table equal — row forms included — to the bulk
    /// build of the data seen so far, at every prefix: a row's form is
    /// a function of its degree alone, whatever the ingest order. Each
    /// arriving response sees the task's earlier responders, as in
    /// production.
    #[test]
    fn pair_table_streamed_equals_bulk_build(
        data in mixed_density_matrix(12, 20, 2),
        seed in 0u64..u64::MAX,
    ) {
        let mut responses: Vec<Response> = data.iter().collect();
        shuffle(&mut responses, seed);
        let mut streamed = PairMap::empty(data.n_workers());
        let mut accumulated =
            ResponseMatrix::empty(data.n_workers(), data.n_tasks(), data.arity());
        for r in &responses {
            streamed.record_response(r.worker, r.label, accumulated.task_responses(r.task));
            accumulated.insert(*r).unwrap();
            prop_assert_eq!(&streamed, &PairMap::from_matrix(&accumulated));
        }
        prop_assert_eq!(&streamed, &PairMap::from_matrix(&data));
    }

    /// Promoting a row to the dense form never changes a lookup: on
    /// the ingest that promotes, every pair reads exactly what it read
    /// before plus the response's own contribution (one common task,
    /// and one agreement on a matching label, for each earlier
    /// responder of the task), and every neighbour list reads the
    /// merge scan's.
    #[test]
    fn promotion_never_changes_a_lookup(
        data in mixed_density_matrix(12, 20, 2),
        seed in 0u64..u64::MAX,
    ) {
        let mut responses: Vec<Response> = data.iter().collect();
        shuffle(&mut responses, seed);
        let m = data.n_workers() as u32;
        let mut map = PairMap::empty(data.n_workers());
        let mut accumulated =
            ResponseMatrix::empty(data.n_workers(), data.n_tasks(), data.arity());
        for r in &responses {
            let before = map.clone();
            let others = accumulated.task_responses(r.task).to_vec();
            map.record_response(r.worker, r.label, &others);
            accumulated.insert(*r).unwrap();
            if map.dense_rows() == before.dense_rows() { continue; }
            for a in 0..m {
                for b in 0..m {
                    if a == b { continue; }
                    let (a, b) = (WorkerId(a), WorkerId(b));
                    let mut expect = before.get(a, b);
                    let peer = if a == r.worker { Some(b) } else if b == r.worker { Some(a) } else { None };
                    if let Some(&(_, label)) = peer
                        .and_then(|p| others.iter().find(|&&(w, _)| w == p.0))
                    {
                        expect.common_tasks += 1;
                        expect.agreements += usize::from(label == r.label);
                    }
                    prop_assert_eq!(map.get(a, b), expect, "pair ({:?},{:?})", a, b);
                }
                let listed: Vec<WorkerId> = map.co_occurring(WorkerId(a)).collect();
                let expect: Vec<WorkerId> = (0..m)
                    .map(WorkerId)
                    .filter(|&b| b.0 != a
                        && pair_stats(&accumulated, WorkerId(a), b).common_tasks > 0)
                    .collect();
                prop_assert_eq!(listed, expect);
            }
        }
    }

    /// Triple overlap and joint labels agree; the overlap equals the
    /// joint-label count; the tensor's all-three group equals both.
    #[test]
    fn triple_views_are_consistent(data in sparse_matrix(5, 25, 3)) {
        let (a, b, c) = (WorkerId(0), WorkerId(1), WorkerId(2));
        if data.n_workers() < 3 { return Ok(()); }
        let overlap = triple_overlap(&data, a, b, c);
        let joint = triple_joint_labels(&data, a, b, c);
        prop_assert_eq!(overlap.common_tasks, joint.len());
        let counts = CountsTensor::from_matrix(&data, a, b, c);
        prop_assert_eq!(counts.n_all_three() as usize, joint.len());
        // Every entry of the all-three block is a count of a joint
        // label combination; their totals match.
        let k = counts.arity();
        let mut block_total = 0.0;
        for x in 1..=k {
            for y in 1..=k {
                for z in 1..=k {
                    block_total += counts.get(x, y, z);
                }
            }
        }
        prop_assert_eq!(block_total as usize, joint.len());
    }

    /// The counts tensor partitions every response-bearing task into
    /// exactly one attempt group; group totals sum to the number of
    /// tasks attempted by at least one of the three workers.
    #[test]
    fn tensor_groups_partition_tasks(data in sparse_matrix(4, 30, 2)) {
        let (a, b, c) = (WorkerId(0), WorkerId(1), WorkerId(2));
        if data.n_workers() < 3 { return Ok(()); }
        let counts = CountsTensor::from_matrix(&data, a, b, c);
        let group_sum: f64 = AttemptPattern::all()
            .filter(|p| p.worker_count() >= 1)
            .map(|p| counts.group_total(p))
            .sum();
        let mut expected = 0;
        for t in 0..data.n_tasks() as u32 {
            let touched = [a, b, c]
                .iter()
                .any(|&w| data.response(w, TaskId(t)).is_some());
            if touched {
                expected += 1;
            }
        }
        prop_assert_eq!(group_sum as usize, expected);
    }

    /// CSV round-trips preserve the matrix exactly.
    #[test]
    fn csv_roundtrip_is_identity(data in sparse_matrix(6, 20, 4)) {
        let mut buf = Vec::new();
        crowd_data::csv::write_responses(&data, &mut buf).unwrap();
        let reloaded = crowd_data::csv::read_responses(buf.as_slice()).unwrap();
        prop_assert_eq!(&reloaded, &data);
    }

    /// `retain_workers` keeps exactly the selected workers' responses
    /// and reindexes densely.
    #[test]
    fn retain_workers_projects_responses(data in sparse_matrix(6, 20, 2)) {
        let (kept_data, kept_ids) = data.retain_workers(|w| w.0 % 2 == 0);
        prop_assert_eq!(kept_data.n_workers(), kept_ids.len());
        for (new_idx, old_id) in kept_ids.iter().enumerate() {
            prop_assert_eq!(
                kept_data.worker_responses(WorkerId(new_idx as u32)),
                data.worker_responses(*old_id)
            );
        }
        let total: usize =
            kept_ids.iter().map(|&w| data.worker_responses(w).len()).sum();
        prop_assert_eq!(kept_data.n_responses(), total);
    }

    /// The one-pass [`OverlapIndex`] reproduces every naive merge-scan
    /// statistic exactly: pair counts and agreements for every pair,
    /// triple overlaps for every triple, and CSR rows equal to the
    /// matrix's own adjacency — the invariant every indexed estimator
    /// path rests on.
    #[test]
    fn overlap_index_matches_merge_scans(
        dense in sparse_matrix(6, 25, 3),
        mixed in mixed_density_matrix(10, 20, 3),
    ) {
      for data in [dense, mixed] {
        let stream = StreamingIndex::from_matrix(&data);
        let index = stream.index();
        prop_assert_eq!(stream.n_workers(), data.n_workers());
        prop_assert_eq!(index.n_tasks(), data.n_tasks());
        prop_assert_eq!(index.n_responses(), data.n_responses());
        let m = data.n_workers() as u32;
        for a in 0..m {
            prop_assert_eq!(
                index.worker_responses(WorkerId(a)),
                data.worker_responses(WorkerId(a))
            );
            for b in 0..m {
                if a == b { continue; }
                prop_assert_eq!(
                    stream.pair(WorkerId(a), WorkerId(b)),
                    pair_stats(&data, WorkerId(a), WorkerId(b))
                );
                for c in 0..m {
                    if c == a || c == b { continue; }
                    prop_assert_eq!(
                        stream.triple(WorkerId(a), WorkerId(b), WorkerId(c)),
                        triple_overlap(&data, WorkerId(a), WorkerId(b), WorkerId(c))
                    );
                }
            }
        }
        for t in 0..data.n_tasks() as u32 {
            prop_assert_eq!(index.task_responses(TaskId(t)), data.task_responses(TaskId(t)));
        }
        for a in index.workers() {
            let mut listed = Vec::new();
            prop_assert!(stream.co_occurring_into(a, &mut listed));
            let expect: Vec<WorkerId> = index
                .workers()
                .filter(|&b| b != a && pair_stats(&data, a, b).common_tasks > 0)
                .collect();
            prop_assert_eq!(listed, expect);
        }
      }
    }

    /// The anchored bitset view answers exactly the naive triple and
    /// shared-task queries, for every anchor.
    #[test]
    fn anchored_view_matches_naive_queries(data in sparse_matrix(6, 30, 2)) {
        let stream = StreamingIndex::from_matrix(&data);
        let m = data.n_workers() as u32;
        for anchor in 0..m {
            let fast = stream.anchored(WorkerId(anchor));
            let slow = data.anchored(WorkerId(anchor));
            let peers: Vec<WorkerId> =
                (0..m).filter(|&w| w != anchor).map(WorkerId).collect();
            for &a in &peers {
                for &b in &peers {
                    if a == b { continue; }
                    prop_assert_eq!(
                        fast.triple_common(a, b),
                        slow.triple_common(a, b),
                        "anchor {} pair ({:?},{:?})", anchor, a, b
                    );
                }
            }
            if peers.len() >= 4 {
                let four = &peers[..4];
                prop_assert_eq!(fast.common_among(four), slow.common_among(four));
            }
            prop_assert_eq!(
                fast.common_among(&[]),
                data.worker_task_count(WorkerId(anchor))
            );
        }
    }

    /// The union-merge joint view and the counts tensors filled by the
    /// indexed substrates are identical to their matrix-scan
    /// counterparts, including a fill that re-shapes a tensor of
    /// another arity and a refill over another triple's counts.
    #[test]
    fn indexed_joint_labels_and_tensor_match(data in sparse_matrix(5, 25, 3)) {
        if data.n_workers() < 3 { return Ok(()); }
        let stream = StreamingIndex::from_matrix(&data);
        let (a, b, c) = (WorkerId(0), WorkerId(1), WorkerId(2));
        prop_assert_eq!(
            stream.index().triple_joint_labels_optional(a, b, c),
            triple_joint_labels_optional(&data, a, b, c)
        );
        let expect = CountsTensor::from_matrix(&data, a, b, c);
        let mut tensor = CountsTensor::zeros(2);
        stream.fill_counts(&mut tensor, a, b, c);
        prop_assert_eq!(&tensor, &expect);
        stream.fill_counts(&mut tensor, c, a, b);
        stream.fill_counts(&mut tensor, a, b, c);
        prop_assert_eq!(&tensor, &expect);
    }

    /// Differential test of the streaming append path: for random
    /// response streams ingested in a random order, the incrementally
    /// built [`OverlapIndex`] is **structurally identical** to
    /// `from_matrix` on the accumulated matrix — same adjacency rows,
    /// same pair table, same counters — and therefore answers every
    /// pair/triple/joint-label query identically.
    #[test]
    fn streamed_index_equals_batch_for_any_ingest_order(
        dense in sparse_matrix(6, 25, 3),
        mixed in mixed_density_matrix(12, 25, 3),
        seed in 0u64..u64::MAX,
    ) {
      for data in [dense, mixed] {
        let batch = OverlapIndex::from_matrix(&data);
        let mut responses: Vec<Response> = data.iter().collect();
        shuffle(&mut responses, seed);
        let mut streamed = OverlapIndex::new(data.n_workers(), data.n_tasks(), data.arity());
        for r in &responses {
            streamed.record_response(*r).expect("stream is duplicate-free");
        }
        prop_assert_eq!(&streamed, &batch);
        // And at every prefix, the partial index equals a batch build
        // of the partial matrix.
        let cut = responses.len() / 2;
        let mut partial = OverlapIndex::new(data.n_workers(), data.n_tasks(), data.arity());
        let mut accumulated = ResponseMatrix::empty(
            data.n_workers(), data.n_tasks(), data.arity());
        for r in &responses[..cut] {
            partial.record_response(*r).unwrap();
            accumulated.insert(*r).unwrap();
        }
        prop_assert_eq!(&partial, &OverlapIndex::from_matrix(&accumulated));
      }
    }

    /// The views a streamed substrate builds answer exactly what the
    /// views of a fresh bulk load of the same prefix answer — at three
    /// prefixes of an arbitrary ingest order, for every anchor, under
    /// an arbitrary peer scope and the population scope, on dense data
    /// and on data whose pair rows cross the dense threshold
    /// mid-stream. Binary here; the k-ary twin follows.
    #[test]
    fn streamed_views_match_loaded_views_at_prefixes(
        data in sparse_matrix(7, 20, 2),
        mixed in mixed_density_matrix(10, 16, 2),
        seed in 0u64..u64::MAX,
        mask in 0u64..u64::MAX,
    ) {
        for data in [&data, &mixed] {
            check_stream_views_match_loads(data, seed, mask)?;
        }
    }

    /// The k-ary twin of the property above: label arity must be
    /// invisible to the attempt-set masks.
    #[test]
    fn streamed_views_match_loaded_views_at_prefixes_kary(
        data in sparse_matrix(6, 20, 3),
        seed in 0u64..u64::MAX,
        mask in 0u64..u64::MAX,
    ) {
        check_stream_views_match_loads(&data, seed, mask)?;
    }

    /// Peer-scoped anchored views are **bit-identical** to the
    /// full-population view on every in-scope query — `pair_common`,
    /// `triple_common` and `common_among` — for random instances and
    /// arbitrary peer subsets. Binary here; the k-ary (arity 3) twin
    /// below exercises the same guarantee on multi-label data.
    #[test]
    fn peer_scoped_batch_views_match_population_views(
        data in sparse_matrix(7, 25, 2),
        mask in 0u64..u64::MAX,
    ) {
        // Two substrates, one live view each.
        let (population, scoped_src) =
            (StreamingIndex::from_matrix(&data), StreamingIndex::from_matrix(&data));
        let m = data.n_workers() as u32;
        for anchor in 0..m {
            // An arbitrary subset of the other workers, from the mask.
            let peers: Vec<WorkerId> = (0..m)
                .filter(|&w| w != anchor && (mask >> (w % 64)) & 1 == 1)
                .map(WorkerId)
                .collect();
            let full = population.anchored(WorkerId(anchor));
            let scoped = scoped_src.anchored_for(WorkerId(anchor), &peers);
            for &a in &peers {
                prop_assert_eq!(scoped.pair_common(a), full.pair_common(a));
                for &b in &peers {
                    prop_assert_eq!(
                        scoped.triple_common(a, b),
                        full.triple_common(a, b),
                        "anchor {} pair ({:?},{:?})", anchor, a, b
                    );
                }
            }
            prop_assert_eq!(scoped.common_among(&peers), full.common_among(&peers));
            prop_assert_eq!(
                scoped.common_among(&[]),
                data.worker_task_count(WorkerId(anchor))
            );
        }
    }

    /// The k-ary twin of the test above: label arity must be invisible
    /// to the attempt-set masks.
    #[test]
    fn peer_scoped_batch_views_match_population_views_kary(
        data in sparse_matrix(6, 20, 3),
        mask in 0u64..u64::MAX,
    ) {
        let (population, scoped_src) =
            (StreamingIndex::from_matrix(&data), StreamingIndex::from_matrix(&data));
        let m = data.n_workers() as u32;
        for anchor in 0..m {
            let peers: Vec<WorkerId> = (0..m)
                .filter(|&w| w != anchor && (mask >> (w % 64)) & 1 == 1)
                .map(WorkerId)
                .collect();
            let full = population.anchored(WorkerId(anchor));
            let scoped = scoped_src.anchored_for(WorkerId(anchor), &peers);
            for &a in &peers {
                for &b in &peers {
                    prop_assert_eq!(scoped.triple_common(a, b), full.triple_common(a, b));
                }
            }
            prop_assert_eq!(scoped.common_among(&peers), full.common_among(&peers));
        }
    }

    /// The blocked [`PeerGram`] kernel equals per-pair
    /// `triple_common` queries entry for entry — diagonal (pair
    /// overlaps) included — on arbitrary sparse matrices, for every
    /// anchor, against both the naive scan substrate (which computes
    /// its gram through the per-pair trait default) and direct
    /// queries of the bitset view, with one scratch reused across all
    /// anchors. Binary and k-ary data share the code path, so the
    /// 3-ary strategy covers both.
    #[test]
    fn blocked_gram_matches_per_pair_queries(data in sparse_matrix(6, 40, 3)) {
        let index = StreamingIndex::from_matrix(&data);
        let m = data.n_workers() as u32;
        let mut gram = PeerGram::default();
        let mut scratch = PeerGramScratch::default();
        for anchor in 0..m {
            // An unsorted, duplicated peer list exercising the remap.
            let mut peers: Vec<WorkerId> =
                (0..m).filter(|&w| w != anchor).map(WorkerId).collect();
            peers.reverse();
            if let Some(&first) = peers.first() { peers.push(first); }
            let fast = index.anchored_for(WorkerId(anchor), &peers);
            fast.gram_into(&peers, &mut gram, &mut scratch);
            let slow = data.anchored(WorkerId(anchor));
            prop_assert_eq!(&gram, &slow.gram(&peers), "anchor {}", anchor);
            for &a in &peers {
                for &b in &peers {
                    prop_assert_eq!(
                        gram.get(a, b),
                        slow.triple_common(a, b),
                        "anchor {} pair ({:?},{:?})", anchor, a, b
                    );
                }
                prop_assert_eq!(gram.pair_common(a), fast.pair_common(a));
            }
        }
        // Empty and singleton peer sets are well-formed.
        let empty = index.anchored_for(WorkerId(0), &[]).gram(&[]);
        prop_assert_eq!(empty.dim(), 0);
        if m >= 2 {
            let one = [WorkerId(1)];
            let single = index.anchored_for(WorkerId(0), &one).gram(&one);
            prop_assert_eq!(single.dim(), 1);
            prop_assert_eq!(
                single.get(one[0], one[0]),
                pair_stats(&data, WorkerId(0), one[0]).common_tasks
            );
        }
    }

    /// The blocked pair-combined [`TriplePairGram`] (the k-ary `n₅`
    /// table) equals per-entry `common_among` queries, against the
    /// per-pair trait default on the naive scan substrate.
    #[test]
    fn blocked_pair_gram_matches_common_among(data in sparse_matrix(7, 35, 3)) {
        let m = data.n_workers() as u32;
        if m < 5 { return Ok(()); }
        let index = StreamingIndex::from_matrix(&data);
        let anchor = WorkerId(0);
        let peers: Vec<WorkerId> = (1..m).map(WorkerId).collect();
        let pairs: Vec<(WorkerId, WorkerId)> = peers.chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| (c[0], c[1]))
            .collect();
        let mut n5 = TriplePairGram::default();
        let mut scratch = PeerGramScratch::default();
        index
            .anchored_for(anchor, &peers)
            .pair_gram_into(&pairs, &mut n5, &mut scratch);
        let mut slow_n5 = TriplePairGram::default();
        data.anchored(anchor)
            .pair_gram_into(&pairs, &mut slow_n5, &mut scratch);
        prop_assert_eq!(&n5, &slow_n5);
        let slow = data.anchored(anchor);
        for (t1, &(a1, b1)) in pairs.iter().enumerate() {
            prop_assert_eq!(n5.get(t1, t1), slow.common_among(&[a1, b1]));
            for (t2, &(a2, b2)) in pairs.iter().enumerate().skip(t1 + 1) {
                prop_assert_eq!(
                    n5.get(t1, t2),
                    slow.common_among(&[a1, b1, a2, b2]),
                    "triples {} and {}", t1, t2
                );
                prop_assert_eq!(n5.get(t1, t2), n5.get(t2, t1));
            }
        }
    }

    /// The gram of a view built on a streamed substrate — before and
    /// after further ingests in a random order — equals the gram of a
    /// fresh bulk load of the same prefix, and sub-scope grams read
    /// the same counts.
    #[test]
    fn streaming_gram_after_ingest_matches_fresh(
        data in sparse_matrix(6, 30, 2),
        seed in 0u64..u64::MAX,
    ) {
        let m = data.n_workers() as u32;
        if m < 4 { return Ok(()); }
        let mut responses: Vec<Response> = data.iter().collect();
        shuffle(&mut responses, seed);
        let cut = responses.len() / 2;

        let mut stream = StreamingIndex::new(data.n_workers(), data.n_tasks(), 2);
        let mut accumulated = ResponseMatrix::empty(data.n_workers(), data.n_tasks(), 2);
        for r in &responses[..cut] {
            stream.record_response(*r).unwrap();
            accumulated.insert(*r).unwrap();
        }
        let anchor = WorkerId(0);
        let peers: Vec<WorkerId> = (1..m).map(WorkerId).collect();
        let before = stream.anchored_for(anchor, &peers).gram(&peers);
        prop_assert_eq!(
            &before,
            &StreamingIndex::from_matrix(&accumulated).anchored_for(anchor, &peers).gram(&peers)
        );
        for r in &responses[cut..] {
            stream.record_response(*r).unwrap();
        }
        let after = stream.anchored_for(anchor, &peers).gram(&peers);
        prop_assert_eq!(
            &after,
            &StreamingIndex::from_matrix(&data).anchored_for(anchor, &peers).gram(&peers)
        );
        let sub = [WorkerId(1), WorkerId(3)];
        let sub_gram = stream.anchored_for(anchor, &sub).gram(&sub);
        for &a in &sub {
            for &b in &sub {
                prop_assert_eq!(sub_gram.get(a, b), after.get(a, b));
            }
        }
    }

    /// Majority vote: the winner's tally is maximal, and unanimous
    /// tasks elect the unanimous label.
    #[test]
    fn majority_vote_invariants(data in sparse_matrix(5, 20, 3)) {
        for t in 0..data.n_tasks() as u32 {
            let responses = data.task_responses(TaskId(t));
            let outcome = majority_vote(&data, TaskId(t));
            if responses.is_empty() {
                prop_assert!(outcome.label_or_tiebreak().is_none());
                continue;
            }
            let winner = outcome.label_or_tiebreak().expect("non-empty task");
            let tally = |l: Label| responses.iter().filter(|(_, x)| *x == l).count();
            for (_, label) in responses {
                prop_assert!(tally(winner) >= tally(*label));
            }
            if responses.iter().all(|(_, l)| *l == responses[0].1) {
                prop_assert_eq!(winner, responses[0].1);
                prop_assert!(outcome.is_strict() || responses.is_empty());
            }
        }
    }
}

/// Wide-mask lane pinning: with enough tasks that each bitset row
/// spans well past one SIMD step (600 tasks → ten 64-bit words, past
/// both the 8-word AVX-512 step and the 4-word AVX2 step, with a
/// ragged tail), the blocked gram built through the runtime-dispatched
/// `AndPopcount` kernel must equal per-pair `triple_common` queries
/// answered by the portable scalar path on the naive scan substrate.
/// Deterministic (seeded LCG) rather than a proptest case so the
/// wide matrices stay cheap in debug builds.
#[test]
fn wide_mask_gram_pins_simd_lanes_to_portable() {
    for seed in [3u64, 77, 991] {
        let (m, n) = (8usize, 600usize);
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut b = ResponseMatrixBuilder::new(m, n, 3);
        for w in 0..m as u32 {
            for t in 0..n as u32 {
                // ~70% fill keeps the AND'd masks dense enough that a
                // dropped SIMD step would change many entries.
                if next() % 10 < 7 {
                    b.push(WorkerId(w), TaskId(t), Label((next() % 3) as u16))
                        .expect("generated ids are valid");
                }
            }
        }
        let data = b.build().expect("generated cells are unique");
        let index = StreamingIndex::from_matrix(&data);
        let mut gram = PeerGram::default();
        let mut scratch = PeerGramScratch::default();
        for anchor in 0..m as u32 {
            let peers: Vec<WorkerId> = (0..m as u32)
                .filter(|&w| w != anchor)
                .map(WorkerId)
                .collect();
            index
                .anchored_for(WorkerId(anchor), &peers)
                .gram_into(&peers, &mut gram, &mut scratch);
            let slow = data.anchored(WorkerId(anchor));
            for &a in &peers {
                for &b in &peers {
                    assert_eq!(
                        gram.get(a, b),
                        slow.triple_common(a, b),
                        "seed {seed} anchor {anchor} pair ({a:?},{b:?})"
                    );
                }
            }
        }
    }
}

/// The mixed-density inputs above do what they are for: across cases,
/// most matrices hold pair rows of both forms, and streaming them
/// promotes rows mid-stream.
#[test]
fn mixed_density_inputs_straddle_the_dense_threshold() {
    let strategy = mixed_density_matrix(12, 20, 2);
    let mut rng = proptest::rng_for("mixed_density_inputs_straddle_the_dense_threshold");
    let (mut both_forms, mut promoted_mid_stream) = (0, 0);
    for _ in 0..64 {
        let data = strategy.generate(&mut rng);
        let bulk = PairMap::from_matrix(&data);
        let dense = bulk.dense_rows();
        both_forms += usize::from(dense > 0 && dense < data.n_workers());
        let mut streamed = PairMap::empty(data.n_workers());
        let mut accumulated = ResponseMatrix::empty(data.n_workers(), data.n_tasks(), 2);
        let mut seen = 0;
        for r in data.iter() {
            streamed.record_response(r.worker, r.label, accumulated.task_responses(r.task));
            accumulated.insert(r).unwrap();
            seen = seen.max(streamed.dense_rows());
        }
        promoted_mid_stream += usize::from(seen > 0);
    }
    assert!(
        both_forms >= 32,
        "{both_forms}/64 inputs hold both row forms"
    );
    assert!(
        promoted_mid_stream >= 48,
        "{promoted_mid_stream}/64 inputs promote a row"
    );
}
