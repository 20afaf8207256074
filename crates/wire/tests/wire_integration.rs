//! End-to-end tests over real sockets: a [`WireServer`] in front of a
//! live sharded [`AssessmentService`], exercised by [`WireClient`]s
//! and by raw TCP streams writing hostile bytes.
//!
//! The load-bearing assertion is **bit-identity at drain points**: a
//! report fetched over the wire must re-encode to exactly the bytes
//! of the in-process report — interval bit patterns included — so the
//! transport provably adds no numeric drift.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use crowd_core::WorkerReport;
use crowd_data::{Label, Response, TaskId, WorkerId};
use crowd_oracle::row_difference;
use crowd_service::{AssessmentService, ServiceConfig, ServiceError, ServiceHandle};
use crowd_shard::ShardPlan;
use crowd_sim::{ArrivalSchedule, BinaryInstance, BinaryScenario, rng};
use crowd_wire::frame::{FrameEvent, FrameReader, write_frame};
use crowd_wire::proto::{decode_reply, opcode};
use crowd_wire::{ClientConfig, MAX_FRAME_LEN, Reply, WireClient, WireConfig, WireServer};

const CONFIDENCE: f64 = 0.9;

/// Fast-polling server config so shutdown-drain tests finish quickly.
fn test_config() -> WireConfig {
    WireConfig {
        read_timeout: Duration::from_millis(50),
        ..WireConfig::default()
    }
}

fn fleet(n_shards: u64) -> (BinaryInstance, AssessmentService) {
    let inst = BinaryScenario::paper_default(12, 60, 0.85).generate(&mut rng(900 + n_shards));
    let data = inst.responses();
    let plan = ShardPlan::build_clustered(data, n_shards as usize);
    let service =
        AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
    (inst, service)
}

fn serve(handle: ServiceHandle) -> WireServer {
    WireServer::bind("127.0.0.1:0", handle, test_config()).expect("bind loopback")
}

/// The bit-identity gate: both reports must serialize to the same
/// bytes (structural comparison would wrongly fail on NaN and wrongly
/// pass on -0.0 vs 0.0).
fn assert_reports_bit_identical(wire: &WorkerReport, local: &WorkerReport, context: &str) {
    let w = crowd_wire::proto::encode_reply(&Reply::Report(wire.clone()));
    let l = crowd_wire::proto::encode_reply(&Reply::Report(local.clone()));
    assert_eq!(
        w, l,
        "wire report diverged from in-process report: {context}"
    );
}

#[test]
fn wire_reports_are_bit_identical_to_in_process() {
    let (inst, service) = fleet(4);
    let data = inst.responses();
    let mut server = serve(service.handle());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(41));
    let batches: Vec<Vec<Response>> = sched.batches(32).map(<[Response]>::to_vec).collect();
    let mid = batches.len() / 2;

    // First half over the wire, pipelined; every receipt accounted.
    let receipts = client.ingest_batches(&batches[..mid]).expect("pipeline");
    assert_eq!(receipts.len(), mid);
    for r in receipts {
        r.expect("default policy blocks, never sheds");
    }

    // Drain point: the wire snapshot and the in-process snapshot see
    // the same prefix and must agree to the bit.
    let over_wire = client.snapshot(CONFIDENCE).expect("wire snapshot");
    let local = service.snapshot(CONFIDENCE).expect("local snapshot");
    assert_reports_bit_identical(&over_wire, &local, "mid-stream");

    // Per-worker and explicit-set paths agree too.
    let workers: Vec<WorkerId> = (0..data.n_workers() as u32)
        .step_by(3)
        .map(WorkerId)
        .collect();
    let wire_set = client
        .assess_workers(&workers, CONFIDENCE)
        .expect("assess set");
    let local_set = service
        .assess_workers(&workers, CONFIDENCE)
        .expect("assess set");
    assert_reports_bit_identical(&wire_set, &local_set, "explicit worker set");
    for &w in workers.iter().take(4) {
        let outcome = |reply: Result<_, ServiceError>| match reply {
            Err(ServiceError::Estimate(e)) => Err(e),
            other => Ok(other.expect("only estimator failures")),
        };
        let wire = outcome(client.assess_worker(w, CONFIDENCE));
        let local = outcome(service.assess_worker(w, CONFIDENCE));
        assert_eq!(row_difference(&wire, &local), None, "worker {w:?}");
    }

    // Rest of the stream, then the final drain point.
    for r in client.ingest_batches(&batches[mid..]).expect("pipeline") {
        r.expect("default policy blocks, never sheds");
    }
    client.drain().expect("drain");
    let over_wire = client.snapshot(CONFIDENCE).expect("wire snapshot");
    let local = service.snapshot(CONFIDENCE).expect("local snapshot");
    assert_reports_bit_identical(&over_wire, &local, "final");

    // Counters agree (ingest all went through the same handle).
    assert_eq!(
        client.stats().expect("stats"),
        service.stats().expect("stats")
    );
    server.close();
}

#[test]
fn zero_length_batches_are_valid_frames() {
    let (_inst, service) = fleet(2);
    let mut server = serve(service.handle());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let receipt = client.ingest_batch(&[]).expect("empty batch is a no-op");
    assert_eq!(receipt.routed, 0);
    // The connection is healthy afterwards.
    assert!(client.stats().is_ok());
    server.close();
}

#[test]
fn out_of_range_worker_id_comes_back_as_typed_data_error() {
    let (inst, service) = fleet(2);
    let data = inst.responses();
    let mut server = serve(service.handle());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let bad = Response {
        worker: WorkerId(data.n_workers() as u32 + 100),
        task: TaskId(0),
        label: Label(0),
    };
    match client.ingest_batch(&[bad]) {
        Err(ServiceError::Data(crowd_data::DataError::UnknownId { kind, id })) => {
            assert_eq!(kind, "worker");
            assert_eq!(id, data.n_workers() as u32 + 100);
        }
        other => panic!("expected the typed data error, got {other:?}"),
    }
    server.close();
}

#[test]
fn split_reads_reassemble_over_a_real_socket() {
    let (_inst, service) = fleet(2);
    let mut server = serve(service.handle());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // A Stats request dribbled one byte at a time, slower than the
    // server's idle poll but faster than a mid-frame stall.
    let mut frame = Vec::new();
    write_frame(&mut frame, opcode::STATS, &[]).unwrap();
    for b in frame {
        stream.write_all(&[b]).expect("write byte");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut reader = FrameReader::new(stream.try_clone().expect("clone"), MAX_FRAME_LEN);
    match reader.read().expect("reply frame") {
        FrameEvent::Frame {
            opcode: op,
            payload,
        } => {
            assert_eq!(op, opcode::OK_STATS);
            assert!(matches!(
                decode_reply(op, &payload).expect("decode stats"),
                Reply::Stats(_)
            ));
        }
        other => panic!("expected a stats reply, got {other:?}"),
    }
    server.close();
}

#[test]
fn malformed_frames_get_error_replies_and_the_connection_survives() {
    let (_inst, service) = fleet(2);
    let mut server = serve(service.handle());
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = FrameReader::new(stream.try_clone().expect("clone"), MAX_FRAME_LEN);
    let mut writer = stream;

    // Unknown opcode: error reply, connection lives.
    write_frame(&mut writer, 0x6f, b"???").unwrap();
    match reader.read().expect("reply") {
        FrameEvent::Frame {
            opcode: op,
            payload,
        } => {
            assert_eq!(op, opcode::ERR);
            match decode_reply(op, &payload).expect("decode") {
                Reply::Err(ServiceError::Wire(msg)) => {
                    assert!(msg.contains("unknown opcode"), "got: {msg}")
                }
                other => panic!("expected a wire error, got {other:?}"),
            }
        }
        other => panic!("expected an error reply, got {other:?}"),
    }

    // Cleanly-delimited garbage payload: same story.
    write_frame(&mut writer, opcode::ASSESS_WORKER, &[1, 2, 3]).unwrap();
    match reader.read().expect("reply") {
        FrameEvent::Frame { opcode: op, .. } => assert_eq!(op, opcode::ERR),
        other => panic!("expected an error reply, got {other:?}"),
    }

    // The same connection still serves valid requests.
    write_frame(&mut writer, opcode::STATS, &[]).unwrap();
    match reader.read().expect("reply") {
        FrameEvent::Frame { opcode: op, .. } => assert_eq!(op, opcode::OK_STATS),
        other => panic!("expected a stats reply, got {other:?}"),
    }
    server.close();
}

#[test]
fn oversized_frames_poison_the_stream_with_a_parting_diagnosis() {
    let (_inst, service) = fleet(2);
    // Frame cap chosen so a 2-response batch fits exactly (1 opcode +
    // 4 count + 2×10 responses = 25) and a 3-response batch does not.
    let config = WireConfig {
        max_frame_len: 25,
        ..test_config()
    };
    let mut server =
        WireServer::bind("127.0.0.1:0", service.handle(), config).expect("bind loopback");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let r = |w: u32| Response {
        worker: WorkerId(w),
        task: TaskId(w),
        label: Label(0),
    };
    // Exactly at the cap: accepted.
    client.ingest_batch(&[r(0), r(1)]).expect("at-cap frame");

    // One response past the cap: the server can no longer trust the
    // stream, sends a typed diagnosis, and closes.
    match client.ingest_batch(&[r(0), r(1), r(2)]) {
        Err(ServiceError::Wire(msg)) => assert!(msg.contains("cap"), "got: {msg}"),
        other => panic!("expected a frame-too-large error, got {other:?}"),
    }
    // The connection is gone now.
    assert!(client.stats().is_err());
    server.close();
}

#[test]
fn connection_cap_refuses_with_a_typed_reply() {
    let (_inst, service) = fleet(2);
    let config = WireConfig {
        max_connections: 1,
        ..test_config()
    };
    let mut server =
        WireServer::bind("127.0.0.1:0", service.handle(), config).expect("bind loopback");
    let mut first = WireClient::connect(server.local_addr()).expect("connect");
    first.stats().expect("first connection serves");

    let mut second = WireClient::connect(server.local_addr()).expect("tcp connect succeeds");
    match second.stats() {
        Err(ServiceError::Io(msg)) => {
            // Either the refusal reply or, if the send raced the
            // close, the socket error.
            assert!(!msg.is_empty());
        }
        other => panic!("expected an io error, got {other:?}"),
    }
    // The admitted connection is unaffected.
    first.stats().expect("first connection still serves");
    server.close();
}

#[test]
fn concurrent_clients_snapshot_mid_ingest_without_disturbing_the_stream() {
    let (inst, service) = fleet(4);
    let data = inst.responses();
    let mut server = serve(service.handle());
    let addr = server.local_addr();

    let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(77));
    let batches: Vec<Vec<Response>> = sched.batches(16).map(<[Response]>::to_vec).collect();

    let ingester = std::thread::spawn({
        let batches = batches.clone();
        move || {
            let mut client = WireClient::connect(addr).expect("connect ingester");
            for r in client.ingest_batches(&batches).expect("pipeline") {
                r.expect("default policy blocks, never sheds");
            }
            client.drain().expect("drain");
        }
    });

    // Snapshots racing the ingest stream must always be well-formed
    // reports (never a protocol error, never a panic).
    let mut observer = WireClient::connect(addr).expect("connect observer");
    let mut saw_assessments = false;
    for _ in 0..20 {
        let report = observer.snapshot(CONFIDENCE).expect("mid-ingest snapshot");
        saw_assessments |= !report.assessments.is_empty();
        for a in &report.assessments {
            assert!((a.worker.index()) < data.n_workers());
        }
    }
    ingester.join().expect("ingester thread");

    // Quiescent drain point: wire and in-process agree to the bit.
    let over_wire = observer.snapshot(CONFIDENCE).expect("final snapshot");
    let local = service.snapshot(CONFIDENCE).expect("local snapshot");
    assert_reports_bit_identical(&over_wire, &local, "post-ingest quiescent point");
    assert!(saw_assessments || !over_wire.assessments.is_empty());
    server.close();
}

#[test]
fn metrics_scrape_over_a_live_server() {
    let (inst, service) = fleet(4);
    let data = inst.responses();
    let mut server = serve(service.handle());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(23));
    let batches: Vec<Vec<Response>> = sched.batches(32).map(<[Response]>::to_vec).collect();
    let total: usize = batches.iter().map(Vec::len).sum();
    for r in client.ingest_batches(&batches).expect("pipeline") {
        r.expect("default policy blocks, never sheds");
    }
    client.snapshot(CONFIDENCE).expect("snapshot");

    let m = client.metrics().expect("metrics scrape");
    assert!(m.service.enabled, "instrumentation is on by default");
    assert_eq!(m.service.stats.submitted, total as u64);
    assert_eq!(m.service.stages.len(), 4, "one stage set per shard");
    let merged = m.service.merged_stages();
    assert!(merged.queue_wait.count() > 0, "queue-wait samples arrived");
    assert!(
        merged.batch_apply.count() > 0,
        "batch-apply samples arrived"
    );
    assert!(merged.drain_eval.count() > 0, "drain-eval samples arrived");

    // The server timed its own frame handling for the opcodes this
    // connection exercised.
    for op in [opcode::INGEST_BATCH, opcode::SNAPSHOT] {
        let t = m
            .server
            .iter()
            .find(|t| t.opcode == op)
            .unwrap_or_else(|| panic!("no server timings for opcode {op:#04x}"));
        assert!(t.decode.count() > 0, "decode timed for {op:#04x}");
        assert!(t.handle.count() > 0, "handle timed for {op:#04x}");
        assert!(t.write.count() > 0, "write timed for {op:#04x}");
    }

    // The exposition carries the same numbers the scrape decoded.
    let text = m.render_text();
    assert!(text.contains(&format!("crowd_submitted_responses_total {total}")));
    for s in &m.service.stats.shards {
        assert!(text.contains(&format!(
            "crowd_shard_responses_total{{shard=\"{}\"}} {}",
            s.shard, s.responses
        )));
    }
    assert!(text.contains("crowd_wire_stage_ns_count{opcode=\"0x01\",stage=\"handle\"}"));

    // A scrape is read-only: the next report is unaffected.
    let over_wire = client.snapshot(CONFIDENCE).expect("post-scrape snapshot");
    let local = service.snapshot(CONFIDENCE).expect("local snapshot");
    assert_reports_bit_identical(&over_wire, &local, "post-scrape");
    server.close();
}

#[test]
fn shutdown_over_the_wire_stops_service_and_server() {
    let (inst, service) = fleet(2);
    let data = inst.responses();
    let mut server = serve(service.handle());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let all: Vec<Response> = ArrivalSchedule::poisson(data, 1000.0, &mut rng(13))
        .responses()
        .to_vec();
    client.ingest_batch(&all).expect("ingest");
    let finals = client
        .shutdown()
        .expect("shutdown reply carries final stats");
    assert_eq!(finals.submitted, all.len() as u64);

    // The handle agrees and stays typed post-shutdown.
    assert_eq!(service.stats().expect("post-shutdown stats"), finals);
    assert!(matches!(
        service.handle().ingest_batch(&all[..1]),
        Err(ServiceError::ShuttingDown)
    ));

    // The server drains: new requests on fresh connections fail (the
    // acceptor is closing; the TCP connect itself may still land).
    std::thread::sleep(Duration::from_millis(200));
    // A refused connection is equally acceptable after close.
    if let Ok(mut late) = WireClient::connect_with(
        server.local_addr(),
        ClientConfig {
            read_timeout: Some(Duration::from_millis(500)),
            ..ClientConfig::default()
        },
    ) {
        assert!(
            late.stats().is_err(),
            "server must not serve after shutdown"
        );
    }
    server.close();
}
