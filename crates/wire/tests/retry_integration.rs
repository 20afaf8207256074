//! The retry/idempotency contract over real sockets under
//! deterministic fault injection: a [`RetryClient`] driven through
//! server-side connection drops ([`FaultPlan::should_drop`] severs
//! after apply, before reply — the ambiguous window) must ingest each
//! batch **exactly once**, proven by bit-identity against a fault-free
//! twin. Raw-frame tests pin the sequence-dedup grammar itself:
//! replayed outcomes, rejected gaps, aged-out sequences.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use crowd_data::{Label, Response, TaskId, WorkerId};
use crowd_obs::Value;
use crowd_service::{AssessmentService, FaultPlan, ServiceConfig, ServiceError, ServiceHandle};
use crowd_shard::ShardPlan;
use crowd_sim::{ArrivalSchedule, BinaryInstance, BinaryScenario, rng};
use crowd_wire::frame::{FrameEvent, FrameReader, write_frame};
use crowd_wire::proto::{encode_ingest_seq_payload, encode_reply, opcode};
use crowd_wire::{MAX_FRAME_LEN, Reply, RetryClient, RetryConfig, WireConfig, WireServer};

const CONFIDENCE: f64 = 0.9;

fn test_config() -> WireConfig {
    WireConfig {
        read_timeout: Duration::from_millis(50),
        ..WireConfig::default()
    }
}

/// Millisecond-scale backoff so fault-heavy tests stay fast, and a
/// pinned session id so runs are reproducible.
fn fast_retry() -> RetryConfig {
    RetryConfig {
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(10),
        session: Some(42),
        ..RetryConfig::default()
    }
}

fn fleet(n_shards: usize, seed: u64) -> (BinaryInstance, AssessmentService) {
    let inst = BinaryScenario::paper_default(12, 60, 0.85).generate(&mut rng(seed));
    let data = inst.responses();
    let plan = ShardPlan::build_clustered(data, n_shards);
    let service =
        AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
    (inst, service)
}

fn serve_with(handle: ServiceHandle, config: WireConfig) -> WireServer {
    WireServer::bind("127.0.0.1:0", handle, config).expect("bind loopback")
}

/// A raw frame-level connection for driving the `INGEST_SEQ` grammar
/// directly (the typed clients deliberately manage sequence numbers
/// themselves).
struct RawConn {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
}

impl RawConn {
    fn open(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = FrameReader::new(stream.try_clone().expect("clone"), MAX_FRAME_LEN);
        Self { stream, reader }
    }

    fn call(&mut self, op: u8, payload: &[u8]) -> Reply {
        write_frame(&mut self.stream, op, payload).expect("write frame");
        match self.reader.read().expect("read reply") {
            FrameEvent::Frame { opcode, payload } => {
                crowd_wire::proto::decode_reply(opcode, &payload).expect("decode reply")
            }
            other => panic!("expected a reply frame, got {other:?}"),
        }
    }
}

fn batch(n: u32) -> Vec<Response> {
    (0..n)
        .map(|i| Response {
            worker: WorkerId(i % 4),
            task: TaskId(i % 8),
            label: Label((i % 2) as u16),
        })
        .collect()
}

/// The acceptance gate: explicit drop sites sever the connection right
/// after the server applies an ingest — the client's reply never
/// arrives — and the retry (same sequence number, new connection) must
/// be absorbed by dedup. Exactly-once is proven the strong way: the
/// faulted fleet's final snapshot re-encodes to the same bytes as a
/// never-dropped twin fed the same batches.
#[test]
fn retry_after_dropped_connection_ingests_exactly_once() {
    let (inst, faulted) = fleet(2, 910);
    let (_, twin) = fleet(2, 910);
    let data = inst.responses();

    // Connection 1's 2nd frame and connection 2's 4th frame are
    // dropped after apply: two ambiguous outcomes, two forced
    // reconnects, two dedup replays.
    let fault = Arc::new(FaultPlan::seeded(5).with_drop_at(1, 2).with_drop_at(2, 4));
    let mut server = serve_with(
        faulted.handle(),
        WireConfig {
            fault: Some(fault),
            ..test_config()
        },
    );
    let mut client = RetryClient::connect_with(server.local_addr(), fast_retry()).expect("client");

    let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(77));
    let batches: Vec<Vec<Response>> = sched.batches(8).map(<[Response]>::to_vec).collect();
    assert!(
        batches.len() >= 6,
        "need enough batches to cross both drop sites"
    );

    for group in &batches {
        let receipt = client.ingest_batch(group).expect("exactly-once ingest");
        assert_eq!(receipt.shed_batches, 0);
        twin.ingest_batch(group).expect("twin ingest");
    }
    // Both drop sites fired, each costing exactly one retry + one
    // reconnect (plus the initial dial).
    assert_eq!(client.retries(), 2, "each drop site fires exactly once");
    assert_eq!(client.reconnects(), 3);

    client.drain().expect("drain");
    let over_wire = client.snapshot(CONFIDENCE).expect("snapshot");
    let local = twin.snapshot(CONFIDENCE).expect("twin snapshot");
    assert_eq!(
        encode_reply(&Reply::Report(over_wire)),
        encode_reply(&Reply::Report(local)),
        "a dedup miss (double ingest) or a lost batch would shift the reports"
    );

    // Counter-level exactly-once: per-shard response deliveries match
    // the twin's, so no batch landed zero or two times.
    let a: u64 = client
        .metrics()
        .expect("metrics")
        .samples
        .iter()
        .filter(|s| s.name.starts_with("crowd_shard_responses_total{"))
        .map(|s| match s.value {
            Value::Counter(v) => v,
            ref other => panic!("{}: expected a counter, got {other:?}", s.name),
        })
        .sum();
    let b = twin.stats().expect("twin stats");
    assert_eq!(a, b.shards.iter().map(|s| s.responses).sum::<u64>());
    server.close();
}

/// Same (session, seq) twice: the second reply is the *stored* receipt,
/// byte-identical, and the service never sees the batch again.
#[test]
fn duplicate_sequence_replays_the_stored_outcome() {
    let (_, service) = fleet(1, 911);
    let mut server = serve_with(service.handle(), test_config());
    let mut conn = RawConn::open(server.local_addr());

    let payload = encode_ingest_seq_payload(7, 1, &batch(3));
    let first = conn.call(opcode::INGEST_SEQ, &payload);
    assert!(matches!(first, Reply::Ingest(_)), "got {first:?}");
    let replay = conn.call(opcode::INGEST_SEQ, &payload);
    assert_eq!(
        encode_reply(&first),
        encode_reply(&replay),
        "the replayed outcome must be byte-identical"
    );
    // The duplicate never reached the service: still 3 submitted.
    assert_eq!(service.stats().expect("stats").submitted, 3);

    // Dedup is per-session: the same seq under another session is a
    // fresh ingest.
    let other = conn.call(
        opcode::INGEST_SEQ,
        &encode_ingest_seq_payload(8, 1, &batch(3)),
    );
    assert!(matches!(other, Reply::Ingest(_)), "got {other:?}");
    assert_eq!(service.stats().expect("stats").submitted, 6);
    server.close();
}

/// Sessions survive reconnects — the dedup table is shared across
/// connections, which is the whole point (the retry that needs the
/// replay arrives on a *new* connection).
#[test]
fn dedup_table_is_shared_across_connections() {
    let (_, service) = fleet(1, 912);
    let mut server = serve_with(service.handle(), test_config());

    let payload = encode_ingest_seq_payload(21, 1, &batch(4));
    let first = RawConn::open(server.local_addr()).call(opcode::INGEST_SEQ, &payload);
    assert!(matches!(first, Reply::Ingest(_)));
    let replay = RawConn::open(server.local_addr()).call(opcode::INGEST_SEQ, &payload);
    assert_eq!(encode_reply(&first), encode_reply(&replay));
    assert_eq!(service.stats().expect("stats").submitted, 4);
    server.close();
}

/// A sequence number ahead of the session's next is a typed protocol
/// error — the server cannot invent the missing prefix.
#[test]
fn sequence_gaps_are_rejected() {
    let (_, service) = fleet(1, 913);
    let mut server = serve_with(service.handle(), test_config());
    let mut conn = RawConn::open(server.local_addr());

    match conn.call(
        opcode::INGEST_SEQ,
        &encode_ingest_seq_payload(9, 3, &batch(2)),
    ) {
        Reply::Err(ServiceError::Wire(msg)) => {
            assert!(msg.contains("sequence gap"), "got: {msg}");
        }
        other => panic!("expected a wire error, got {other:?}"),
    }
    // Nothing was ingested, and seq 1 still works.
    assert_eq!(service.stats().expect("stats").submitted, 0);
    let ok = conn.call(
        opcode::INGEST_SEQ,
        &encode_ingest_seq_payload(9, 1, &batch(2)),
    );
    assert!(matches!(ok, Reply::Ingest(_)), "got {ok:?}");
    server.close();
}

/// A sequence older than the dedup window gets a typed error rather
/// than a silent (and possibly wrong) replay.
#[test]
fn sequences_older_than_the_window_age_out() {
    let (_, service) = fleet(1, 914);
    let mut server = serve_with(
        service.handle(),
        WireConfig {
            dedup_window: 2,
            ..test_config()
        },
    );
    let mut conn = RawConn::open(server.local_addr());

    for seq in 1..=4u64 {
        let r = conn.call(
            opcode::INGEST_SEQ,
            &encode_ingest_seq_payload(13, seq, &batch(1)),
        );
        assert!(matches!(r, Reply::Ingest(_)), "seq {seq}: {r:?}");
    }
    // Window of 2 retains seqs 3 and 4; 1 has aged out.
    match conn.call(
        opcode::INGEST_SEQ,
        &encode_ingest_seq_payload(13, 1, &batch(1)),
    ) {
        Reply::Err(ServiceError::Wire(msg)) => {
            assert!(msg.contains("aged out"), "got: {msg}");
        }
        other => panic!("expected a wire error, got {other:?}"),
    }
    // Seq 3 is still inside the window and replays fine.
    let r = conn.call(
        opcode::INGEST_SEQ,
        &encode_ingest_seq_payload(13, 3, &batch(1)),
    );
    assert!(matches!(r, Reply::Ingest(_)), "got {r:?}");
    assert_eq!(service.stats().expect("stats").submitted, 4);
    server.close();
}

/// Idempotent reads ride through drops too: the dropped snapshot's
/// reply dies with the connection, the retry re-asks, the answer is
/// bit-identical to the in-process report.
#[test]
fn reads_retry_through_dropped_connections() {
    let (inst, service) = fleet(2, 915);
    let data = inst.responses();
    // Conn 1's very first frame is dropped.
    let fault = Arc::new(FaultPlan::seeded(6).with_drop_at(1, 1));
    let mut server = serve_with(
        service.handle(),
        WireConfig {
            fault: Some(fault),
            ..test_config()
        },
    );
    let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(78));
    for group in sched.batches(8) {
        service.ingest_batch(group).expect("local ingest");
    }
    service.drain().expect("drain");

    let mut client = RetryClient::connect_with(server.local_addr(), fast_retry()).expect("client");
    let over_wire = client
        .snapshot(CONFIDENCE)
        .expect("snapshot survives the drop");
    assert_eq!(client.retries(), 1);
    let local = service.snapshot(CONFIDENCE).expect("local snapshot");
    assert_eq!(
        encode_reply(&Reply::Report(over_wire)),
        encode_reply(&Reply::Report(local)),
    );
    server.close();
}

/// Service verdicts are definitive: a typed rejection comes back
/// untouched, with zero retries spent on it.
#[test]
fn definitive_service_errors_are_not_retried() {
    let (_, service) = fleet(1, 916);
    let mut server = serve_with(service.handle(), test_config());
    let mut client = RetryClient::connect_with(server.local_addr(), fast_retry()).expect("client");

    let err = client
        .assess_worker(WorkerId(60_000), CONFIDENCE)
        .expect_err("out-of-range worker");
    assert!(
        matches!(err, ServiceError::Data(_)),
        "expected the typed data error, got {err:?}"
    );
    assert_eq!(client.retries(), 0, "a definitive verdict costs no retries");
    server.close();
}
