//! Property tests on the protocol codec: every request and reply —
//! the full nested error taxonomy included — must survive
//! encode → decode → re-encode with byte-identical output, and no
//! truncation or corruption of a payload may ever panic the decoder.
//!
//! Byte-level (rather than structural) equality is the property that
//! matters: it is what makes over-the-wire reports bit-identical to
//! in-process ones, NaN payloads and signed zeros included, and it
//! holds even for values `PartialEq` would reject (`NaN != NaN`).

use crowd_core::{EstimateError, WorkerAssessment, WorkerReport};
use crowd_data::{DataError, Label, Response, TaskId, WorkerId};
use crowd_obs::{Event, EventKind, HistogramSnapshot, Sample, Value};
use crowd_service::{IngestReceipt, ServiceError};
use crowd_stats::{ConfidenceInterval, StatsError};
use crowd_wire::frame::WireError;
use crowd_wire::proto::{decode_reply, decode_request, encode_reply, encode_request, opcode};
use crowd_wire::{MetricsReport, Reply, Request};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies (the vendored proptest has no `prop_oneof`; variants are
// chosen by an integer selector over a tuple of candidate fields).

/// Any `f64` bit pattern worth carrying: ordinary values plus the
/// edge cases bit-exactness is about.
fn arb_f64() -> impl Strategy<Value = f64> {
    (0..10usize, -1.0e6..1.0e6).prop_map(|(sel, v)| match sel {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::MIN_POSITIVE / 2.0,
        _ => v,
    })
}

/// Short strings including multi-byte UTF-8.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0x20u32..0x24F, 0..12).prop_map(|cs| {
        cs.into_iter()
            .map(|c| char::from_u32(c).unwrap_or('?'))
            .collect()
    })
}

fn arb_stats_error() -> impl Strategy<Value = StatsError> {
    (0..5usize, arb_f64(), 0..3usize, (0..100usize, 0..100usize)).prop_map(
        |(sel, v, what, (a, b))| match sel {
            0 => StatsError::InvalidProbability {
                value: v,
                what: ["confidence", "quantile argument", "success fraction"][what],
            },
            1 => StatsError::NegativeVariance { variance: v },
            2 => StatsError::DimensionMismatch {
                gradient: a,
                covariance: b,
            },
            3 => StatsError::SingularCovariance,
            _ => StatsError::InsufficientData { got: a, need: b },
        },
    )
}

fn arb_estimate_error() -> impl Strategy<Value = EstimateError> {
    (
        0..7usize,
        (0..500u32, 0..500u32, 0..50usize, 0..50usize),
        arb_string(),
        arb_stats_error(),
    )
        .prop_map(|(sel, (w1, w2, got, need), s, st)| match sel {
            0 => EstimateError::InsufficientOverlap {
                a: WorkerId(w1),
                b: WorkerId(w2),
                got,
                need,
            },
            1 => EstimateError::NotEnoughWorkers { got, need },
            2 => EstimateError::NoUsableTriples {
                worker: WorkerId(w1),
            },
            3 => EstimateError::Degenerate { what: s },
            4 => EstimateError::RequiresRegularData,
            5 => EstimateError::Numerical(s),
            _ => EstimateError::Stats(st),
        })
}

fn arb_data_error() -> impl Strategy<Value = DataError> {
    (
        0..4usize,
        (0..16u16, 1..16u16),
        (0..500u32, 0..500u32),
        0..10_000usize,
        arb_string(),
    )
        .prop_map(|(sel, (label, arity), (w, t), line, s)| match sel {
            0 => DataError::LabelOutOfRange { label, arity },
            1 => DataError::DuplicateResponse {
                worker: WorkerId(w),
                task: TaskId(t),
            },
            2 => DataError::Csv { line, reason: s },
            _ => DataError::UnknownId {
                kind: ["worker", "task"][line % 2],
                id: w,
            },
        })
}

fn arb_service_error() -> impl Strategy<Value = ServiceError> {
    (
        0..8usize,
        (0..64usize, 0..10_000usize),
        arb_data_error(),
        arb_estimate_error(),
        arb_string(),
    )
        .prop_map(|(sel, (shard, dropped), d, e, s)| match sel {
            0 => ServiceError::QueueFull { shard, dropped },
            1 => ServiceError::ShuttingDown,
            2 => ServiceError::ShardUnavailable { shard },
            3 => ServiceError::ShardPanicked { shard },
            4 => ServiceError::Data(d),
            5 => ServiceError::Estimate(e),
            6 => ServiceError::Wire(s),
            _ => ServiceError::Io(s),
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (0..500u32, 0..500u32, 0..8u16).prop_map(|(w, t, l)| Response {
        worker: WorkerId(w),
        task: TaskId(t),
        label: Label(l),
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0..8usize,
        proptest::collection::vec(arb_response(), 0..50),
        proptest::collection::vec(0..500u32, 0..20),
        arb_f64(),
        (0..u64::MAX / 2, 1..u64::MAX / 2),
    )
        .prop_map(
            |(sel, batch, workers, confidence, (session, seq))| match sel {
                0 => Request::IngestBatch(batch),
                1 => Request::AssessWorker {
                    worker: WorkerId(workers.first().copied().unwrap_or(7)),
                    confidence,
                },
                2 => Request::AssessWorkers {
                    workers: workers.into_iter().map(WorkerId).collect(),
                    confidence,
                },
                3 => Request::Snapshot { confidence },
                4 => Request::Drain,
                5 => Request::Shutdown,
                6 => Request::IngestBatchSeq {
                    session,
                    seq,
                    batch,
                },
                _ => Request::Metrics,
            },
        )
}

fn arb_assessment() -> impl Strategy<Value = WorkerAssessment> {
    (
        0..500u32,
        (arb_f64(), arb_f64(), arb_f64()),
        0..100_000usize,
        any::<bool>(),
    )
        .prop_map(
            |(w, (center, half_width, confidence), triples, fb)| WorkerAssessment {
                worker: WorkerId(w),
                interval: ConfidenceInterval {
                    center,
                    half_width,
                    confidence,
                },
                triples_used: triples,
                weights_fell_back: fb,
            },
        )
}

fn arb_report() -> impl Strategy<Value = WorkerReport> {
    (
        proptest::collection::vec(arb_assessment(), 0..10),
        proptest::collection::vec((0..500u32, arb_estimate_error()), 0..6),
    )
        .prop_map(|(assessments, failures)| WorkerReport {
            assessments,
            failures: failures
                .into_iter()
                .map(|(w, e)| (WorkerId(w), e))
                .collect(),
        })
}

/// Arbitrary histogram snapshots. The wire carries count/sum/max and
/// the buckets verbatim, so they need no mutual consistency here —
/// byte identity is the property, not statistics.
fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        proptest::collection::vec(0..u64::MAX / 2, crowd_obs::BUCKETS),
        (0..u64::MAX / 2, 0..u64::MAX / 2, 0..u64::MAX / 2),
    )
        .prop_map(|(b, (count, sum, max))| {
            let mut buckets = [0u64; crowd_obs::BUCKETS];
            buckets.copy_from_slice(&b);
            HistogramSnapshot::from_parts(buckets, count, sum, max)
        })
}

/// Samples of every kind: empty, bare and labelled names; counters
/// and gauges across their whole range; empty and fully populated
/// histograms.
fn arb_sample() -> impl Strategy<Value = Sample> {
    (
        (0..3usize, 0..4u32, arb_string()),
        (0..4usize, 0..u64::MAX),
        arb_histogram(),
    )
        .prop_map(|((name_sel, shard, help), (kind, v), h)| {
            let name = match name_sel {
                0 => String::new(),
                1 => format!("crowd_test_{shard}_total"),
                _ => format!("crowd_test_ns{{shard=\"{shard}\",stage=\"x\"}}"),
            };
            let value = match kind {
                0 => Value::Counter(v),
                1 => Value::Gauge(v as i64),
                2 => Value::Histogram(Box::new(HistogramSnapshot::empty())),
                _ => Value::Histogram(Box::new(h)),
            };
            Sample { name, help, value }
        })
}

/// Journal events with every kind tag and multi-byte UTF-8 labels.
fn arb_event() -> impl Strategy<Value = Event> {
    (
        (0..u64::MAX / 2, 0..u64::MAX / 2),
        0..8u16,
        (0..500u32, any::<bool>()),
        (0..u64::MAX / 2, 0..u64::MAX / 2),
        arb_string(),
    )
        .prop_map(|((seq, ts), kind, (shard, fleet), (a, b), label)| Event {
            seq,
            timestamp_ns: ts,
            kind: EventKind::from_u8(kind as u8).expect("all kind tags covered"),
            shard: if fleet { crowd_obs::NO_SHARD } else { shard },
            a,
            b,
            label,
        })
}

/// Scrapes of up to 12 samples; a repeated name keeps its first
/// sample, since names are unique within one scrape.
fn arb_metrics_report() -> impl Strategy<Value = MetricsReport> {
    (
        (any::<bool>(), 0..1_000u64),
        proptest::collection::vec(arb_sample(), 0..12),
        proptest::collection::vec(arb_event(), 0..5),
    )
        .prop_map(|((enabled, dropped), mut samples, events)| {
            let mut seen = std::collections::HashSet::new();
            samples.retain(|s| seen.insert(s.name.clone()));
            MetricsReport {
                enabled,
                samples,
                events,
                events_dropped: dropped,
            }
        })
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    (
        0..6usize,
        (0..100_000usize, 0..100usize, 0..100usize),
        arb_assessment(),
        (arb_report(), arb_service_error()),
        arb_metrics_report(),
    )
        .prop_map(
            |(sel, (routed, sb, sr), a, (report, err), metrics)| match sel {
                0 => Reply::Ingest(IngestReceipt {
                    routed,
                    shed_batches: sb,
                    shed_responses: sr,
                }),
                1 => Reply::Assessment(a),
                2 => Reply::Report(report),
                3 => Reply::Unit,
                4 => Reply::Metrics(metrics),
                _ => Reply::Err(err),
            },
        )
}

// ---------------------------------------------------------------------------
// Properties.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_roundtrip_byte_identically(req in arb_request()) {
        let (op, payload) = encode_request(&req);
        let decoded = decode_request(op, &payload).expect("encoder output must decode");
        let (op2, payload2) = encode_request(&decoded);
        prop_assert_eq!(op, op2);
        prop_assert_eq!(payload, payload2);
    }

    #[test]
    fn replies_roundtrip_byte_identically(reply in arb_reply()) {
        let (op, payload) = encode_reply(&reply);
        let decoded = decode_reply(op, &payload).expect("encoder output must decode");
        let (op2, payload2) = encode_reply(&decoded);
        prop_assert_eq!(op, op2);
        prop_assert_eq!(payload, payload2);
    }

    #[test]
    fn truncated_request_payloads_are_typed_errors(req in arb_request(), frac in 0.0..1.0f64) {
        let (op, payload) = encode_request(&req);
        prop_assume!(!payload.is_empty());
        let cut = ((payload.len() as f64) * frac) as usize;
        let r = decode_request(op, &payload[..cut.min(payload.len() - 1)]);
        prop_assert!(r.is_err(), "strict prefix decoded: {r:?}");
    }

    #[test]
    fn truncated_reply_payloads_are_typed_errors(reply in arb_reply(), frac in 0.0..1.0f64) {
        let (op, payload) = encode_reply(&reply);
        prop_assume!(!payload.is_empty());
        let cut = ((payload.len() as f64) * frac) as usize;
        let r = decode_reply(op, &payload[..cut.min(payload.len() - 1)]);
        prop_assert!(r.is_err(), "strict prefix decoded: {r:?}");
    }

    #[test]
    fn corrupted_bytes_never_panic_the_decoder(
        op in 0..=255u32,
        bytes in proptest::collection::vec(0..=255u32, 0..200),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        // Outcome irrelevant; the property is "returns instead of
        // panicking" on arbitrary input.
        let _ = decode_request(op as u8, &bytes);
        let _ = decode_reply(op as u8, &bytes);
    }

    #[test]
    fn trailing_bytes_are_rejected(req in arb_request(), extra in 1..16usize) {
        let (op, mut payload) = encode_request(&req);
        payload.extend(std::iter::repeat_n(0u8, extra));
        let r = decode_request(op, &payload);
        // Most grammars report the exact overhang; variable-length
        // ones may diagnose it as malformation mid-payload instead.
        prop_assert!(r.is_err(), "oversharing payload decoded: {r:?}");
    }

    #[test]
    fn trailing_reply_bytes_are_rejected(reply in arb_reply(), extra in 1..16usize) {
        let (op, mut payload) = encode_reply(&reply);
        payload.extend(std::iter::repeat_n(0u8, extra));
        let r = decode_reply(op, &payload);
        prop_assert!(r.is_err(), "oversharing payload decoded: {r:?}");
    }
}

// ---------------------------------------------------------------------------
// Targeted cases the properties subsume but the reader should see.

#[test]
fn unknown_opcodes_are_rejected_by_both_decoders() {
    assert_eq!(
        decode_request(0x7f, &[]),
        Err(WireError::UnknownOpcode(0x7f))
    );
    assert!(matches!(
        decode_reply(0x02, &[]),
        Err(WireError::UnknownOpcode(0x02))
    ));
}

#[test]
fn retired_stats_opcodes_are_unknown() {
    // 0x06 (`Stats`) and 0x85 (`OkStats`) were folded into the
    // `Metrics` scrape; neither decoder knows them any more.
    assert_eq!(
        decode_request(0x06, &[]),
        Err(WireError::UnknownOpcode(0x06))
    );
    assert!(matches!(
        decode_reply(0x85, &[0; 64]),
        Err(WireError::UnknownOpcode(0x85))
    ));
}

#[test]
fn the_full_error_taxonomy_roundtrips_structurally() {
    let cases = vec![
        ServiceError::QueueFull {
            shard: 3,
            dropped: 41,
        },
        ServiceError::ShuttingDown,
        ServiceError::ShardUnavailable { shard: 7 },
        ServiceError::ShardPanicked { shard: 2 },
        ServiceError::Data(DataError::UnknownId {
            kind: "worker",
            id: 999,
        }),
        ServiceError::Estimate(EstimateError::Stats(StatsError::InvalidProbability {
            value: 1.5,
            what: "confidence",
        })),
        ServiceError::Wire("truncated frame: needed 8 bytes, got 3".into()),
        ServiceError::Io("connection reset by peer".into()),
    ];
    for e in cases {
        let (op, payload) = encode_reply(&Reply::Err(e.clone()));
        assert_eq!(op, opcode::ERR);
        match decode_reply(op, &payload).unwrap() {
            Reply::Err(back) => assert_eq!(back, e),
            other => panic!("expected an error reply, got {other:?}"),
        }
    }
}

#[test]
fn unknown_static_str_diagnostics_fall_back_documentedly() {
    // A hand-built frame claiming an id kind this workspace never
    // produces must decode to the documented fallback, not panic or
    // leak a fabricated 'static reference.
    let mut payload = vec![4u8, 3u8]; // ServiceError::Data, DataError::UnknownId
    payload.extend_from_slice(&7u32.to_le_bytes()); // kind string length
    payload.extend_from_slice(b"gremlin");
    payload.extend_from_slice(&42u32.to_le_bytes());
    match decode_reply(opcode::ERR, &payload).unwrap() {
        Reply::Err(ServiceError::Data(DataError::UnknownId { kind, id })) => {
            assert_eq!(kind, "id");
            assert_eq!(id, 42);
        }
        other => panic!("unexpected decode: {other:?}"),
    }
}

#[test]
fn metrics_request_is_an_empty_payload() {
    let (op, payload) = encode_request(&Request::Metrics);
    assert_eq!(op, opcode::METRICS);
    assert!(payload.is_empty());
    assert_eq!(decode_request(op, &payload), Ok(Request::Metrics));
}

/// A one-sample scrape with no events.
fn scrape_of(samples: Vec<Sample>) -> Reply {
    Reply::Metrics(MetricsReport {
        enabled: true,
        samples,
        events: vec![],
        events_dropped: 0,
    })
}

/// Offset of the first sample's kind tag in a [`scrape_of`] payload:
/// enabled flag, sample count, then the name and help strings.
fn first_kind_at(s: &Sample) -> usize {
    1 + 4 + (4 + s.name.len()) + (4 + s.help.len())
}

fn malformed(payload: &[u8]) -> Result<Reply, WireError> {
    decode_reply(opcode::OK_METRICS, payload)
}

#[test]
fn unknown_sample_kind_tags_are_typed_errors() {
    let s = Sample::counter("crowd_x_total", "X.", 3);
    let (_, mut payload) = encode_reply(&scrape_of(vec![s.clone()]));
    let at = first_kind_at(&s);
    assert_eq!(payload[at], 0, "counter kind tag");
    payload[at] = 3;
    assert!(matches!(
        malformed(&payload),
        Err(WireError::Malformed {
            what: "sample kind tag"
        })
    ));
}

#[test]
fn duplicate_sample_names_are_typed_errors() {
    let a = Sample::counter("crowd_x_total{shard=\"0\"}", "X.", 1);
    let b = Sample::gauge("crowd_x_total{shard=\"0\"}", "X.", -1);
    let (_, payload) = encode_reply(&scrape_of(vec![a, b]));
    assert!(matches!(
        malformed(&payload),
        Err(WireError::Malformed {
            what: "duplicate sample name"
        })
    ));
    // The same base name under distinct labels is fine.
    let a = Sample::counter("crowd_x_total{shard=\"0\"}", "X.", 1);
    let b = Sample::counter("crowd_x_total{shard=\"1\"}", "X.", 1);
    let (_, payload) = encode_reply(&scrape_of(vec![a, b]));
    assert!(malformed(&payload).is_ok());
}

#[test]
fn histogram_bucket_counts_other_than_buckets_are_typed_errors() {
    let s = Sample::histogram("crowd_x_ns", "X.", HistogramSnapshot::empty());
    let (_, payload) = encode_reply(&scrape_of(vec![s.clone()]));
    // Bucket count: after the kind tag, count, sum and max.
    let at = first_kind_at(&s) + 1 + 3 * 8;
    assert_eq!(
        payload[at..at + 4],
        (crowd_obs::BUCKETS as u32).to_le_bytes()
    );
    let patched = |n: u32| {
        let mut p = payload.clone();
        p[at..at + 4].copy_from_slice(&n.to_le_bytes());
        p
    };
    // One bucket short or one too many, with the payload long enough
    // to hold them: the count disagrees with this build's layout.
    for n in [crowd_obs::BUCKETS as u32 - 1, 1, 0] {
        assert!(
            matches!(
                malformed(&patched(n)),
                Err(WireError::Malformed {
                    what: "histogram bucket count"
                })
            ),
            "bucket count {n}"
        );
    }
    let mut longer = patched(crowd_obs::BUCKETS as u32 + 1);
    longer.extend_from_slice(&[0; 8]);
    assert!(matches!(
        malformed(&longer),
        Err(WireError::Malformed {
            what: "histogram bucket count"
        })
    ));
}

#[test]
fn counts_claiming_more_than_the_payload_holds_are_typed_errors() {
    let s = Sample::histogram("crowd_x_ns", "X.", HistogramSnapshot::empty());
    let (_, payload) = encode_reply(&scrape_of(vec![s.clone()]));
    let with = |at: usize, n: u32| {
        let mut p = payload.clone();
        p[at..at + 4].copy_from_slice(&n.to_le_bytes());
        malformed(&p)
    };
    assert!(matches!(
        with(1, u32::MAX),
        Err(WireError::Malformed {
            what: "metrics sample count"
        })
    ));
    assert!(matches!(
        with(first_kind_at(&s) + 1 + 3 * 8, u32::MAX),
        Err(WireError::Malformed {
            what: "histogram bucket count"
        })
    ));
    // Event count: just before the trailing dropped-events counter.
    assert!(matches!(
        with(payload.len() - 8 - 4, u32::MAX),
        Err(WireError::Malformed {
            what: "metrics event count"
        })
    ));
    // A name longer than the payload.
    assert!(matches!(
        with(5, u32::MAX),
        Err(WireError::Malformed {
            what: "sample name"
        })
    ));
}

#[test]
fn unknown_event_kind_tags_are_typed_errors() {
    // A metrics reply whose journal carries a kind tag this build
    // does not know must decode to a typed error, not a panic and not
    // a fabricated kind.
    let reply = Reply::Metrics(MetricsReport {
        enabled: true,
        samples: vec![],
        events: vec![Event {
            seq: 0,
            timestamp_ns: 1,
            kind: EventKind::SlowOp,
            shard: 3,
            a: 9,
            b: 2,
            label: "drain_eval".into(),
        }],
        events_dropped: 0,
    });
    let (op, mut payload) = encode_reply(&reply);
    assert_eq!(op, opcode::OK_METRICS);
    // Offset of the event's kind byte: enabled + sample count + event
    // count + seq + timestamp.
    let kind_at = 1 + 4 + 4 + 8 + 8;
    assert_eq!(payload[kind_at], EventKind::SlowOp as u8);
    payload[kind_at] = 0xFF;
    assert!(matches!(
        decode_reply(op, &payload),
        Err(WireError::Malformed {
            what: "event kind tag"
        })
    ));
}

#[test]
fn gauges_cross_the_wire_signed() {
    let samples = vec![
        Sample::gauge("crowd_low", "Low.", i64::MIN),
        Sample::gauge("crowd_neg", "Neg.", -1),
        Sample::counter("crowd_high_total", "High.", u64::MAX),
    ];
    let (op, payload) = encode_reply(&scrape_of(samples.clone()));
    match decode_reply(op, &payload).unwrap() {
        Reply::Metrics(m) => {
            assert_eq!(m.samples, samples);
            assert_eq!(m.get("crowd_neg"), Some(&Value::Gauge(-1)));
            assert_eq!(m.get("crowd_absent"), None);
        }
        other => panic!("unexpected decode: {other:?}"),
    }
}

#[test]
fn nan_intervals_cross_the_wire_bit_exactly() {
    let quiet = f64::from_bits(0x7ff8_0000_0000_1234);
    let a = WorkerAssessment {
        worker: WorkerId(5),
        interval: ConfidenceInterval {
            center: quiet,
            half_width: -0.0,
            confidence: 0.95,
        },
        triples_used: 12,
        weights_fell_back: false,
    };
    let (op, payload) = encode_reply(&Reply::Assessment(a));
    match decode_reply(op, &payload).unwrap() {
        Reply::Assessment(b) => {
            assert_eq!(b.interval.center.to_bits(), 0x7ff8_0000_0000_1234);
            assert_eq!(b.interval.half_width.to_bits(), (-0.0f64).to_bits());
        }
        other => panic!("unexpected decode: {other:?}"),
    }
}
