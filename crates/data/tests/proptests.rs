//! Property-based tests on the data-model invariants: overlap scans,
//! the pair table, counts tensors and CSV round-trips must all agree
//! with brute-force recomputation on arbitrary sparse matrices.

use crowd_data::{
    AnchoredOverlap, AttemptPattern, CountsTensor, Label, OverlapIndex, OverlapSource, PairMap,
    PairStats, PeerGram, PeerGramScratch, PeerPairs, Response, ResponseMatrix,
    ResponseMatrixBuilder, StreamingIndex, TaskId, TriplePairGram, WorkerId, majority_vote,
    pair_stats, triple_joint_labels, triple_overlap,
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

/// Strategy: a community-structured response matrix, the fleet shape
/// in miniature. `c` communities of `s` workers each answer their own
/// block of tasks at a per-worker density, and up to two bridge
/// workers answer across every block. With few communities a member's
/// row is dense (`3·d ≥ m`), with many it is sparse, and a bridge's row
/// is dense; streamed in a random order, rows cross the threshold
/// mid-stream.
fn community_matrix(arity: u16) -> impl Strategy<Value = ResponseMatrix> {
    (2usize..=5, 3usize..=7, 5usize..=12, 0usize..=2).prop_flat_map(move |(c, s, per, bridges)| {
        let (m, n) = (c * s + bridges, c * per);
        (
            proptest::collection::vec(20u32..90, m),
            proptest::collection::vec((0u32..100, 0..arity), m * n),
        )
            .prop_map(move |(activity, cells)| {
                let mut b = ResponseMatrixBuilder::new(m, n, arity);
                for (i, &(roll, label)) in cells.iter().enumerate() {
                    let (w, t) = (i / n, i % n);
                    // Members answer their own block; bridges
                    // (the last ids) answer every block.
                    let home = w >= c * s || w / s == t / per;
                    if home && roll < activity[w] {
                        b.push(WorkerId(w as u32), TaskId(t as u32), Label(label))
                            .expect("generated ids are valid");
                    }
                }
                b.build().expect("generated cells are unique")
            })
    })
}

/// The merge-scan pair row of `a`: every positive-overlap peer with
/// its statistics, ascending — what `PairMap::row` and
/// `OverlapSource::pair_row_into` must list.
fn scanned_row(data: &ResponseMatrix, a: WorkerId) -> Vec<(WorkerId, PairStats)> {
    data.workers()
        .filter(|&b| b != a)
        .map(|b| (b, pair_stats(data, a, b)))
        .filter(|(_, s)| s.common_tasks > 0)
        .collect()
}

/// `data`'s responses from the workers in `keep` only, in the same
/// id space — what a shard whose closure is `keep` is fed.
fn restricted(data: &ResponseMatrix, keep: &[WorkerId]) -> ResponseMatrix {
    let mut out = ResponseMatrix::empty(data.n_workers(), data.n_tasks(), data.arity());
    for r in data.iter().filter(|r| keep.contains(&r.worker)) {
        out.insert(r).expect("responses stay unique");
    }
    out
}

/// The peer sets one fill check runs through, in order on one
/// substrate: each worker's own pair row (the m-worker estimator's
/// selected peers are drawn from it), a `mask`-chosen subset, the
/// whole population, and the empty and one-peer edge cases.
fn peer_sets(data: &ResponseMatrix, mask: u64) -> Vec<Vec<WorkerId>> {
    let all: Vec<WorkerId> = data.workers().collect();
    let mut sets: Vec<Vec<WorkerId>> = all
        .iter()
        .map(|&a| scanned_row(data, a).into_iter().map(|(w, _)| w).collect())
        .collect();
    sets.push(
        all.iter()
            .copied()
            .filter(|w| (mask >> (w.index() % 64)) & 1 == 1)
            .collect(),
    );
    sets.push(all.clone());
    sets.push(Vec::new());
    sets.push(vec![all[all.len() - 1]]);
    sets
}

/// The pair-table differential check on one substrate `src` holding
/// exactly `data`'s responses: every worker's row walk equals the
/// merge-scan row; every fill over [`peer_sets`], made one after the
/// other on `src` (so a column map left dirty by one fill would show
/// in the next), answers `pair_stats` for every distinct peer pair
/// and equals the per-pair reference fill of the matrix, and a fill
/// on a fresh bulk load of the same data.
fn check_pair_rows_and_fills(
    src: &StreamingIndex,
    data: &ResponseMatrix,
    mask: u64,
    label: &str,
) -> Result<(), TestCaseError> {
    for a in data.workers() {
        let mut row = Vec::new();
        prop_assert!(src.pair_row_into(a, &mut row));
        prop_assert_eq!(&row, &scanned_row(data, a), "{}: row of {:?}", label, a);
        let walked: Vec<_> = src.index().pairs().row(a).collect();
        prop_assert_eq!(&walked, &row);
    }
    let fresh = StreamingIndex::from_matrix(data);
    let (mut table, mut reference, mut fresh_table) = (
        PeerPairs::default(),
        PeerPairs::default(),
        PeerPairs::default(),
    );
    for peers in peer_sets(data, mask) {
        src.peer_pairs_into(&peers, &mut table);
        data.peer_pairs_into(&peers, &mut reference);
        prop_assert_eq!(&table, &reference, "{}: peers {:?}", label, &peers);
        fresh.peer_pairs_into(&peers, &mut fresh_table);
        prop_assert_eq!(&table, &fresh_table, "{}: peers {:?}", label, &peers);
        for &a in &peers {
            for &b in &peers {
                if a != b {
                    prop_assert_eq!(table.get(a, b), pair_stats(data, a, b));
                }
            }
        }
    }
    Ok(())
}

/// `data` plus one more worker that answers nothing.
fn with_silent_worker(data: &ResponseMatrix) -> ResponseMatrix {
    let mut b = ResponseMatrixBuilder::new(data.n_workers() + 1, data.n_tasks(), data.arity());
    for r in data.iter() {
        b.push(r.worker, r.task, r.label)
            .expect("ids stay in range");
    }
    b.build().expect("responses stay unique")
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
    /// pairs read zero), each worker's row walk lists exactly its
    /// positive-overlap peers in id order with their statistics, and
    /// the pair count is the number of co-occurring pairs.
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
                let listed: Vec<_> = map.row(WorkerId(a)).collect();
                prop_assert_eq!(listed, scanned_row(&data, WorkerId(a)), "worker {}", a);
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
    /// responder of the task), and every row walk reads the merge
    /// scan's.
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
                let listed: Vec<_> = map.row(WorkerId(a)).collect();
                prop_assert_eq!(listed, scanned_row(&accumulated, WorkerId(a)));
            }
        }
    }

    /// Row walks and peer pair tables equal the merge scans on
    /// community-structured and mixed-density shapes, on a bulk load
    /// and on a substrate streamed in a random order. The streamed one
    /// is checked at a third, two thirds and all of the stream, so rows
    /// that cross the dense threshold mid-stream are walked and filled
    /// on both sides of it.
    #[test]
    fn peer_pair_fills_match_merge_scans(
        community in community_matrix(2),
        mixed in mixed_density_matrix(12, 16, 3),
        seed in 0u64..u64::MAX,
        mask in 0u64..u64::MAX,
    ) {
        for data in [community, mixed] {
            let loaded = StreamingIndex::from_matrix(&data);
            check_pair_rows_and_fills(&loaded, &data, mask, "loaded")?;
            let (m, n, arity) = (data.n_workers(), data.n_tasks(), data.arity());
            let mut responses: Vec<Response> = data.iter().collect();
            shuffle(&mut responses, seed);
            let prefixes = [responses.len() / 3, responses.len() * 2 / 3, responses.len()];
            let mut stream = StreamingIndex::new(m, n, arity);
            let mut accumulated = ResponseMatrix::empty(m, n, arity);
            for (i, r) in responses.iter().enumerate() {
                stream.record_response(*r).unwrap();
                accumulated.insert(*r).unwrap();
                if prefixes.contains(&(i + 1)) {
                    check_pair_rows_and_fills(&stream, &accumulated, mask, "streamed")?;
                }
            }
        }
    }

    /// A shard-closure substrate — fed only the responses of the
    /// workers in its closure, as a shard is — has pair rows that list
    /// only closure workers, and walks and fills exactly what the
    /// merge scans of the same restricted responses give.
    #[test]
    fn shard_closure_pair_fills_match_merge_scans(
        data in community_matrix(3),
        mask in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
    ) {
        let closure: Vec<WorkerId> = data
            .workers()
            .filter(|w| (mask >> (w.index() % 64)) & 1 == 1)
            .collect();
        let shard_data = restricted(&data, &closure);
        let mut responses: Vec<Response> = shard_data.iter().collect();
        shuffle(&mut responses, seed);
        let mut shard = StreamingIndex::new(data.n_workers(), data.n_tasks(), data.arity());
        for r in responses {
            shard.record_response(r).unwrap();
        }
        for a in data.workers() {
            for (p, _) in shard.index().pairs().row(a) {
                prop_assert!(closure.contains(&p), "row of {:?} lists {:?}", a, p);
            }
        }
        check_pair_rows_and_fills(&shard, &shard_data, mask.rotate_left(17), "closure")?;
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
            prop_assert!(stream.pair_row_into(a, &mut listed));
            prop_assert_eq!(listed, scanned_row(&data, a));
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

    /// The counts tensors a `StreamingIndex` fills are identical to
    /// their matrix-scan counterparts at arities 2–4, for every ordered
    /// triple of distinct workers — a silent one among them — filled in
    /// sequence into one reused tensor on one substrate, so a task code
    /// one fill left behind corrupts a later one. The first fill
    /// re-shapes a tensor of another arity, and the last follows an
    /// anchored view built into the same scratch and dropped.
    #[test]
    fn indexed_joint_labels_and_tensor_match(
        data in (2u16..=4).prop_flat_map(|k| sparse_matrix(5, 25, k)),
    ) {
        let data = with_silent_worker(&data);
        let stream = StreamingIndex::from_matrix(&data);
        let workers: Vec<WorkerId> = data.workers().collect();
        let mut tensor = CountsTensor::zeros(if data.arity() == 2 { 3 } else { 2 });
        for &a in &workers {
            for &b in &workers {
                for &c in &workers {
                    if a == b || b == c || a == c {
                        continue;
                    }
                    stream.fill_counts(&mut tensor, a, b, c);
                    prop_assert_eq!(
                        &tensor,
                        &CountsTensor::from_matrix(&data, a, b, c),
                        "triple ({:?}, {:?}, {:?})", a, b, c
                    );
                }
            }
        }
        let (a, b, c) = (workers[0], workers[1], workers[workers.len() - 1]);
        let common = stream.anchored_for(a, &[b, c]).triple_common(b, c);
        prop_assert_eq!(common, data.anchored(a).triple_common(b, c));
        stream.fill_counts(&mut tensor, b, c, a);
        prop_assert_eq!(&tensor, &CountsTensor::from_matrix(&data, b, c, a));
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

/// Wide masks: the anchor's tasks span well past the unrolled 1–4-word
/// cases of the Gram kernel (600 tasks at ~70% fill → about 420 anchor
/// tasks, 7 words; 2000 tasks at ~90% → about 1800, 29 words, the
/// `dense-kary` shape), so the dynamic-width loop runs, with a ragged
/// last word. Both blocked tables built on the streaming substrate
/// must equal per-entry queries on the naive scan substrate: the
/// Lemma 4 gram against `triple_common`, and the pair-combined k-ary
/// `n₅` table against `common_among` over every pair of distinct
/// peers. Deterministic (seeded LCG) rather than a proptest case so
/// the wide matrices stay cheap in debug builds.
#[test]
fn wide_mask_grams_match_scan_substrate() {
    for (seed, n, fill_tenths) in [
        (3u64, 600usize, 7),
        (77, 600, 7),
        (991, 600, 7),
        (5, 2000, 9),
    ] {
        let m = 8usize;
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
                // Dense fill keeps the AND'd masks full enough that a
                // dropped or doubled word would change many entries.
                if next() % 10 < fill_tenths {
                    b.push(WorkerId(w), TaskId(t), Label((next() % 3) as u16))
                        .expect("generated ids are valid");
                }
            }
        }
        let data = b.build().expect("generated cells are unique");
        let index = StreamingIndex::from_matrix(&data);
        let mut gram = PeerGram::default();
        let mut n5 = TriplePairGram::default();
        let mut scratch = PeerGramScratch::default();
        for anchor in 0..m as u32 {
            let peers: Vec<WorkerId> = (0..m as u32)
                .filter(|&w| w != anchor)
                .map(WorkerId)
                .collect();
            let pairs: Vec<(WorkerId, WorkerId)> = peers
                .iter()
                .enumerate()
                .flat_map(|(i, &a)| peers[i + 1..].iter().map(move |&b| (a, b)))
                .collect();
            let view = index.anchored_for(WorkerId(anchor), &peers);
            view.gram_into(&peers, &mut gram, &mut scratch);
            view.pair_gram_into(&pairs, &mut n5, &mut scratch);
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
            for (t1, &(a1, b1)) in pairs.iter().enumerate() {
                for (t2, &(a2, b2)) in pairs.iter().enumerate() {
                    assert_eq!(
                        n5.get(t1, t2),
                        slow.common_among(&[a1, b1, a2, b2]),
                        "seed {seed} anchor {anchor} triples {t1} and {t2}"
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

/// The community inputs above do what they are for: across cases, some
/// matrices hold only sparse rows, some only dense ones, and most hold
/// both, and streaming promotes rows mid-stream.
#[test]
fn community_inputs_straddle_the_dense_threshold() {
    let strategy = community_matrix(2);
    let mut rng = proptest::rng_for("community_inputs_straddle_the_dense_threshold");
    let (mut all_sparse, mut both_forms, mut promoted) = (0, 0, 0);
    for _ in 0..64 {
        let data = strategy.generate(&mut rng);
        let dense = PairMap::from_matrix(&data).dense_rows();
        all_sparse += usize::from(dense == 0);
        both_forms += usize::from(dense > 0 && dense < data.n_workers());
        let mut streamed = PairMap::empty(data.n_workers());
        let mut accumulated = ResponseMatrix::empty(data.n_workers(), data.n_tasks(), 2);
        for r in data.iter() {
            streamed.record_response(r.worker, r.label, accumulated.task_responses(r.task));
            accumulated.insert(r).unwrap();
        }
        promoted += usize::from(streamed.dense_rows() > 0);
    }
    assert!(all_sparse >= 4, "{all_sparse}/64 inputs are all-sparse");
    assert!(
        both_forms >= 24,
        "{both_forms}/64 inputs hold both row forms"
    );
    assert!(promoted >= 32, "{promoted}/64 inputs promote a row");
}
