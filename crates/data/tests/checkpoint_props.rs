//! Property tests for the checkpoint codec: random `StreamingIndex`
//! states round-trip byte-identically, and damaged bytes always
//! decode to typed errors — never panic.

use crowd_data::{
    AnchoredOverlap, CheckpointError, Label, OverlapSource, Response, StreamingIndex, TaskId,
    WorkerId,
};
use proptest::prelude::*;

/// A random response stream: `(m, n, arity, responses)`,
/// duplicate-free, in a data-dependent order. Each worker answers each
/// task with its own probability (5–70%), so the streamed pair-table
/// rows land on both sides of the dense-row threshold (`3·d ≥ m`) and
/// heavy rows are promoted mid-stream.
fn response_stream() -> impl Strategy<Value = (usize, usize, u16, Vec<Response>)> {
    (2usize..=12, 2usize..=16, 2u16..=4).prop_flat_map(|(m, n, arity)| {
        (
            proptest::collection::vec(5u32..70, m),
            proptest::collection::vec((0u32..100, 0..arity), m * n),
        )
            .prop_map(move |(activity, cells)| {
                let responses = cells
                    .into_iter()
                    .enumerate()
                    .filter(|&(i, (roll, _))| roll < activity[i % m])
                    .map(|(i, (_, label))| Response {
                        worker: WorkerId((i % m) as u32),
                        task: TaskId((i / m) as u32),
                        label: Label(label),
                    })
                    .collect();
                (m, n, arity, responses)
            })
    })
}

/// A random streaming substrate: [`response_stream`] ingested in
/// order.
fn streaming_state() -> impl Strategy<Value = StreamingIndex> {
    response_stream().prop_map(|(m, n, arity, responses)| {
        let mut s = StreamingIndex::new(m, n, arity);
        for r in responses {
            s.record_response(r)
                .expect("cells are duplicate-free by construction");
        }
        s
    })
}

/// The peer set the checkpoint properties anchor worker `w` with: the
/// whole population for even `w`, one or two neighbours for odd `w`.
fn scope_of(w: u32, m: u32) -> Vec<WorkerId> {
    if w.is_multiple_of(2) {
        (0..m).map(WorkerId).collect()
    } else {
        let mut peers = vec![WorkerId((w + 1) % m), WorkerId((w + m - 1) % m)];
        peers.dedup();
        peers
    }
}

/// Anchors every view of `s` (population scope for even workers, a
/// small peer set for odd ones) and materializes its gram.
fn anchor_all(s: &StreamingIndex) {
    let m = s.index().n_workers() as u32;
    for w in 0..m {
        let peers = scope_of(w, m);
        let _ = s.anchored_for(WorkerId(w), &peers).gram(&peers);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// restore(checkpoint(s)) is bit-identical to s: equal index (the
    /// pair table's row forms included, although the restore replays
    /// the rows worker by worker rather than in ingest order), equal
    /// epoch state, and a byte-identical re-encode.
    #[test]
    fn round_trip_is_byte_identical(original in streaming_state()) {
        let bytes = original.checkpoint();
        let restored = StreamingIndex::restore(&bytes).expect("own checkpoint must decode");
        prop_assert_eq!(restored.index(), original.index());
        prop_assert_eq!(restored.epoch(), original.epoch());
        for w in 0..original.index().n_workers() as u32 {
            prop_assert_eq!(
                restored.dirty_epoch(WorkerId(w)),
                original.dirty_epoch(WorkerId(w))
            );
        }
        prop_assert_eq!(restored.checkpoint(), bytes);
    }

    /// A restored substrate keeps serving identical overlap queries.
    #[test]
    fn restored_queries_match(original in streaming_state()) {
        let restored =
            StreamingIndex::restore(&original.checkpoint()).expect("own checkpoint must decode");
        let m = original.index().n_workers() as u32;
        for a in 0..m {
            for b in (a + 1)..m {
                prop_assert_eq!(
                    restored.pair(WorkerId(a), WorkerId(b)),
                    original.pair(WorkerId(a), WorkerId(b))
                );
            }
        }
    }

    /// Anchored views — their masks, grams and slots — are derived
    /// state that never reaches a checkpoint: a substrate
    /// whose every view is anchored encodes to the same bytes as an
    /// unanchored twin. A substrate restored from those bytes that
    /// ingests the rest of the stream and then anchors answers every
    /// view query exactly like the original, which stayed anchored
    /// throughout.
    #[test]
    fn anchored_views_stay_out_of_checkpoints(
        (m, n, arity, responses) in response_stream(),
        cut in 0.0f64..1.0,
    ) {
        let cut = (responses.len() as f64 * cut) as usize;
        let mut original = StreamingIndex::new(m, n, arity);
        let mut twin = StreamingIndex::new(m, n, arity);
        for r in &responses[..cut] {
            original.record_response(*r).unwrap();
            twin.record_response(*r).unwrap();
        }
        anchor_all(&original);
        let bytes = original.checkpoint();
        prop_assert_eq!(&bytes, &twin.checkpoint());

        let mut restored = StreamingIndex::restore(&bytes).expect("own checkpoint must decode");
        for r in &responses[cut..] {
            original.record_response(*r).unwrap();
            restored.record_response(*r).unwrap();
        }
        anchor_all(&restored);
        prop_assert_eq!(restored.index(), original.index());
        prop_assert_eq!(restored.checkpoint(), original.checkpoint());
        let m = m as u32;
        for w in 0..m {
            let peers = scope_of(w, m);
            let (a, b) = (WorkerId(w), &peers);
            let ours = original.anchored_for(a, b);
            let theirs = restored.anchored_for(a, b);
            prop_assert_eq!(ours.common_among(&[]), theirs.common_among(&[]));
            prop_assert_eq!(ours.common_among(b), theirs.common_among(b));
            for &p in b {
                prop_assert_eq!(ours.pair_common(p), theirs.pair_common(p));
                for &q in b {
                    prop_assert_eq!(ours.triple_common(p, q), theirs.triple_common(p, q));
                }
            }
            prop_assert_eq!(ours.gram(b), theirs.gram(b));
        }
    }

    /// Every strict prefix decodes to a typed error, never a panic —
    /// truncation hits either a length check or the checksum trailer.
    #[test]
    fn truncation_never_panics(original in streaming_state(), cut in 0.0f64..1.0) {
        let bytes = original.checkpoint();
        let len = ((bytes.len() as f64) * cut) as usize;
        let err = StreamingIndex::restore(&bytes[..len.min(bytes.len() - 1)])
            .expect_err("strict prefixes must fail");
        prop_assert!(matches!(
            err,
            CheckpointError::Truncated(_) | CheckpointError::ChecksumMismatch { .. }
        ));
    }

    /// Any single flipped bit in the body is caught by the checksum
    /// (or the magic check when it lands in the first eight bytes).
    #[test]
    fn corruption_never_panics(
        original in streaming_state(),
        at in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let mut bytes = original.checkpoint();
        let i = ((bytes.len() as f64) * at) as usize % bytes.len();
        bytes[i] ^= 1 << bit;
        match StreamingIndex::restore(&bytes) {
            // A flip in the checksum trailer itself, or in the body,
            // must surface as a typed refusal...
            Err(
                CheckpointError::ChecksumMismatch { .. }
                | CheckpointError::BadMagic
                | CheckpointError::Truncated(_)
                | CheckpointError::Malformed(_)
                | CheckpointError::TooLarge(_)
                | CheckpointError::UnsupportedVersion(_)
                | CheckpointError::Invalid(_),
            ) => {}
            // ...and never as a silent success.
            Ok(_) => prop_assert!(false, "flipped bit {bit} at {i} decoded successfully"),
        }
    }

    /// Random garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(words in proptest::collection::vec(0u32..256, 0..512)) {
        let bytes: Vec<u8> = words.into_iter().map(|w| w as u8).collect();
        let _ = StreamingIndex::restore(&bytes);
    }
}

/// The generated substrates hold pair rows of both forms: most states
/// have promoted at least one row, and many keep sparse rows beside
/// promoted ones.
#[test]
fn generated_states_straddle_the_dense_threshold() {
    let strategy = streaming_state();
    let mut rng = proptest::rng_for("generated_states_straddle_the_dense_threshold");
    let (mut promoted, mut both_forms) = (0, 0);
    for _ in 0..64 {
        let s = strategy.generate(&mut rng);
        let dense = s.index().pairs().dense_rows();
        promoted += usize::from(dense > 0);
        both_forms += usize::from(dense > 0 && dense < s.index().n_workers());
    }
    assert!(promoted >= 32, "{promoted}/64 states promote a row");
    assert!(
        both_forms >= 16,
        "{both_forms}/64 states hold both row forms"
    );
}
