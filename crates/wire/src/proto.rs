//! The protocol grammar: request/reply opcodes and the payload codecs
//! for every type that crosses the wire, including the full
//! [`ServiceError`] taxonomy.
//!
//! # Opcode table
//!
//! | Opcode | Frame            | Payload grammar |
//! |--------|------------------|-----------------|
//! | `0x01` | `IngestBatch`    | `count: u32, count × (worker: u32, task: u32, label: u16)` |
//! | `0x02` | `AssessWorker`   | `worker: u32, confidence: f64` |
//! | `0x03` | `AssessWorkers`  | `count: u32, count × worker: u32, confidence: f64` |
//! | `0x04` | `Snapshot`       | `confidence: f64` |
//! | `0x05` | `Drain`          | empty |
//! | `0x06` | `Stats`          | empty |
//! | `0x07` | `Shutdown`       | empty |
//! | `0x08` | `Metrics`        | empty |
//! | `0x09` | `IngestBatchSeq` | `session: u64, seq: u64,` then the `IngestBatch` grammar |
//! | `0x81` | `OkIngest`       | `routed: u64, shed_batches: u64, shed_responses: u64` |
//! | `0x82` | `OkAssessment`   | one assessment (see below) |
//! | `0x83` | `OkReport`       | `n: u32, n × assessment, k: u32, k × (worker: u32, estimate-error)` |
//! | `0x84` | `OkUnit`         | empty |
//! | `0x85` | `OkStats`        | fleet counters (see [`ServiceStats`]) |
//! | `0x86` | `OkMetrics`      | `enabled: u8, fleet counters, s: u32, s × stage-timings, e: u32, e × event, dropped: u64, o: u32, o × opcode-timings` |
//! | `0xEE` | `Err`            | one tagged [`ServiceError`] |
//!
//! A histogram travels as `count: u64, sum: u64, max: u64` followed
//! by all 64 fixed log₂ bucket counts (`crowd_obs` layout, 536 bytes
//! flat); stage-timings are three histograms (queue-wait,
//! batch-apply, drain-eval); an event is `seq: u64, ts_ns: u64,
//! kind: u8, shard: u32, a: u64, b: u64, label: string`; and
//! opcode-timings are `opcode: u8` plus three histograms (decode,
//! handle, reply-write). Histogram counts are bit-exact `u64`s, so a
//! scraped distribution is byte-identical to the server's.
//!
//! An assessment is `worker: u32, center: f64, half_width: f64,
//! confidence: f64, triples_used: u64, weights_fell_back: u8`; the
//! three `f64`s are IEEE bit patterns, so a decoded report is
//! bit-identical to the one the server serialized.
//!
//! Errors are tagged unions (one `u8` discriminant, then the
//! variant's fields) at three levels: [`ServiceError`] wraps
//! [`DataError`] and [`EstimateError`], which in turn wraps
//! [`crowd_stats::StatsError`]. `&'static str` diagnostic fields
//! travel as strings and are decoded against the small table of
//! values the workspace actually produces (unknown values fall back
//! to a documented generic: `"id"` for id kinds, `"parameter"` for
//! probability names) — everything else round-trips exactly.

use crowd_core::{EstimateError, WorkerAssessment, WorkerReport};
use crowd_data::{DataError, Label, Response, TaskId, WorkerId};
use crowd_obs::{Event, EventKind, HistogramSnapshot, MetricsRegistry};
use crowd_service::{
    BatchHistogram, IngestReceipt, ServiceError, ServiceMetrics, ServiceStats, ShardStats,
    StageTimings,
};
use crowd_stats::{ConfidenceInterval, StatsError};

use crate::frame::{
    Cursor, WireError, put_bool, put_f64, put_str, put_u16, put_u32, put_u64, put_usize,
};

/// The protocol's opcode bytes. Requests use the low range, replies
/// the high; `0xEE` is the error reply.
pub mod opcode {
    /// Ingest a batch of responses.
    pub const INGEST_BATCH: u8 = 0x01;
    /// Assess one worker (binary).
    pub const ASSESS_WORKER: u8 = 0x02;
    /// Assess an explicit worker set (binary).
    pub const ASSESS_WORKERS: u8 = 0x03;
    /// Fleet snapshot (binary).
    pub const SNAPSHOT: u8 = 0x04;
    /// FIFO drain barrier.
    pub const DRAIN: u8 = 0x05;
    /// Fleet counters.
    pub const STATS: u8 = 0x06;
    /// Graceful service shutdown.
    pub const SHUTDOWN: u8 = 0x07;
    /// Full metrics scrape (stats + stage histograms + journal +
    /// server timings).
    pub const METRICS: u8 = 0x08;
    /// Ingest a batch of responses idempotently: the payload leads
    /// with a client session id and a per-session sequence number, and
    /// the server deduplicates — re-sending a sequence the session
    /// already applied replays the stored outcome instead of
    /// re-ingesting. What makes retry-after-ambiguous-timeout safe.
    pub const INGEST_SEQ: u8 = 0x09;
    /// Reply: ingest receipt.
    pub const OK_INGEST: u8 = 0x81;
    /// Reply: one worker assessment.
    pub const OK_ASSESSMENT: u8 = 0x82;
    /// Reply: a worker report (assessments + failures).
    pub const OK_REPORT: u8 = 0x83;
    /// Reply: acknowledged, no body (drain).
    pub const OK_UNIT: u8 = 0x84;
    /// Reply: fleet counters.
    pub const OK_STATS: u8 = 0x85;
    /// Reply: a metrics scrape.
    pub const OK_METRICS: u8 = 0x86;
    /// Reply: a [`crowd_service::ServiceError`].
    pub const ERR: u8 = 0xEE;
}

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Ingest a batch of responses ([`crowd_service::ServiceHandle::ingest_batch`]).
    IngestBatch(Vec<Response>),
    /// Assess one worker ([`crowd_service::ServiceHandle::assess_worker`]).
    AssessWorker {
        /// The worker to evaluate.
        worker: WorkerId,
        /// Confidence level for the interval.
        confidence: f64,
    },
    /// Assess an explicit worker set ([`crowd_service::ServiceHandle::assess_workers`]).
    AssessWorkers {
        /// The workers to evaluate.
        workers: Vec<WorkerId>,
        /// Confidence level for the intervals.
        confidence: f64,
    },
    /// Fleet snapshot ([`crowd_service::ServiceHandle::snapshot`]).
    Snapshot {
        /// Confidence level for the intervals.
        confidence: f64,
    },
    /// FIFO barrier ([`crowd_service::ServiceHandle::drain`]).
    Drain,
    /// Fleet counters ([`crowd_service::ServiceHandle::stats`]).
    Stats,
    /// Graceful shutdown ([`crowd_service::ServiceHandle::shutdown`]);
    /// the reply carries the final counters, and the server stops
    /// accepting connections afterwards.
    Shutdown,
    /// Full metrics scrape ([`crowd_service::ServiceHandle::metrics`]
    /// plus the wire server's own per-opcode timings).
    Metrics,
    /// Idempotent sequenced ingest: like
    /// [`Request::IngestBatch`], but identified by `(session, seq)` so
    /// the server can deduplicate retries (see
    /// [`opcode::INGEST_SEQ`]).
    IngestBatchSeq {
        /// The client's session id (chosen by the client, stable
        /// across reconnects).
        session: u64,
        /// 1-based per-session batch sequence number; must arrive in
        /// order, gaps are rejected.
        seq: u64,
        /// The responses to ingest.
        batch: Vec<Response>,
    },
}

/// The wire server's per-opcode handling-stage timings, one entry per
/// request opcode that has been seen. All values are nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpcodeTimings {
    /// The request opcode these distributions cover.
    pub opcode: u8,
    /// Payload-decode time per frame.
    pub decode: HistogramSnapshot,
    /// Dispatch time (the service call) per request.
    pub handle: HistogramSnapshot,
    /// Reply encode + socket write time per request.
    pub write: HistogramSnapshot,
}

/// A full metrics scrape: the service's metrics plus the wire
/// server's own per-opcode timings.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// The service-side scrape (counters, stage histograms, journal).
    pub service: ServiceMetrics,
    /// Per-opcode server timings, ascending by opcode; opcodes the
    /// server never saw are omitted.
    pub server: Vec<OpcodeTimings>,
}

impl MetricsReport {
    /// Prometheus text exposition of the whole scrape:
    /// [`ServiceMetrics::render_text`] followed by the server's
    /// per-opcode timing histograms
    /// (`crowd_wire_stage_ns{opcode=…,stage=…}`).
    pub fn render_text(&self) -> String {
        let mut text = self.service.render_text();
        let reg = MetricsRegistry::new();
        for t in &self.server {
            let stages: [(&str, &HistogramSnapshot); 3] = [
                ("decode", &t.decode),
                ("handle", &t.handle),
                ("write", &t.write),
            ];
            for (stage, snap) in stages {
                reg.frozen_histogram(
                    &format!(
                        "crowd_wire_stage_ns{{opcode=\"0x{:02x}\",stage=\"{stage}\"}}",
                        t.opcode
                    ),
                    "Wire server per-opcode frame handling time, ns.",
                    snap.clone(),
                );
            }
        }
        text.push_str(&reg.render_text());
        text
    }
}

/// One decoded reply frame.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Receipt for an ingested batch.
    Ingest(IngestReceipt),
    /// One worker's assessment.
    Assessment(WorkerAssessment),
    /// A report over several workers (snapshot / assess-workers).
    Report(WorkerReport),
    /// Acknowledged; no body.
    Unit,
    /// Fleet counters.
    Stats(ServiceStats),
    /// A full metrics scrape.
    Metrics(MetricsReport),
    /// The service (or protocol) failed the request.
    Err(ServiceError),
}

impl Reply {
    /// The reply's kind, for [`WireError::UnexpectedReply`] diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Ingest(_) => "ingest receipt",
            Self::Assessment(_) => "assessment",
            Self::Report(_) => "report",
            Self::Unit => "ack",
            Self::Stats(_) => "stats",
            Self::Metrics(_) => "metrics",
            Self::Err(_) => "error",
        }
    }
}

// ---------------------------------------------------------------------------
// Requests.

/// Encodes an `IngestBatch` payload straight from a borrowed slice —
/// what the client's pipelined ingest path uses so queuing a batch
/// never clones it.
pub fn encode_ingest_batch_payload(batch: &[Response]) -> Vec<u8> {
    let mut p = Vec::with_capacity(4 + batch.len() * 10);
    put_u32(&mut p, batch.len() as u32);
    for r in batch {
        put_u32(&mut p, r.worker.0);
        put_u32(&mut p, r.task.0);
        put_u16(&mut p, r.label.0);
    }
    p
}

/// Encodes an `IngestBatchSeq` payload from a borrowed slice — the
/// retrying client's pipelined path, like
/// [`encode_ingest_batch_payload`] but led by the `(session, seq)`
/// idempotency key.
pub fn encode_ingest_seq_payload(session: u64, seq: u64, batch: &[Response]) -> Vec<u8> {
    let mut p = Vec::with_capacity(16 + 4 + batch.len() * 10);
    put_u64(&mut p, session);
    put_u64(&mut p, seq);
    put_u32(&mut p, batch.len() as u32);
    for r in batch {
        put_u32(&mut p, r.worker.0);
        put_u32(&mut p, r.task.0);
        put_u16(&mut p, r.label.0);
    }
    p
}

/// Encodes a request as `(opcode, payload)`.
pub fn encode_request(req: &Request) -> (u8, Vec<u8>) {
    let mut p = Vec::new();
    match req {
        Request::IngestBatch(batch) => (opcode::INGEST_BATCH, encode_ingest_batch_payload(batch)),
        Request::AssessWorker { worker, confidence } => {
            put_u32(&mut p, worker.0);
            put_f64(&mut p, *confidence);
            (opcode::ASSESS_WORKER, p)
        }
        Request::AssessWorkers {
            workers,
            confidence,
        } => {
            put_u32(&mut p, workers.len() as u32);
            for w in workers {
                put_u32(&mut p, w.0);
            }
            put_f64(&mut p, *confidence);
            (opcode::ASSESS_WORKERS, p)
        }
        Request::Snapshot { confidence } => {
            put_f64(&mut p, *confidence);
            (opcode::SNAPSHOT, p)
        }
        Request::Drain => (opcode::DRAIN, p),
        Request::Stats => (opcode::STATS, p),
        Request::Shutdown => (opcode::SHUTDOWN, p),
        Request::Metrics => (opcode::METRICS, p),
        Request::IngestBatchSeq {
            session,
            seq,
            batch,
        } => (
            opcode::INGEST_SEQ,
            encode_ingest_seq_payload(*session, *seq, batch),
        ),
    }
}

/// Decodes a request frame. Never panics: unknown opcodes, short or
/// oversharing payloads all come back as typed [`WireError`]s.
pub fn decode_request(op: u8, payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor::new(payload);
    let req = match op {
        opcode::INGEST_BATCH => {
            let n = c.count(10, "ingest batch count")?;
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                batch.push(Response {
                    worker: WorkerId(c.u32("response worker id")?),
                    task: TaskId(c.u32("response task id")?),
                    label: Label(c.u16("response label")?),
                });
            }
            Request::IngestBatch(batch)
        }
        opcode::ASSESS_WORKER => Request::AssessWorker {
            worker: WorkerId(c.u32("assess worker id")?),
            confidence: c.f64("assess confidence")?,
        },
        opcode::ASSESS_WORKERS => {
            let n = c.count(4, "assess worker count")?;
            let mut workers = Vec::with_capacity(n);
            for _ in 0..n {
                workers.push(WorkerId(c.u32("assess worker id")?));
            }
            Request::AssessWorkers {
                workers,
                confidence: c.f64("assess confidence")?,
            }
        }
        opcode::SNAPSHOT => Request::Snapshot {
            confidence: c.f64("snapshot confidence")?,
        },
        opcode::DRAIN => Request::Drain,
        opcode::STATS => Request::Stats,
        opcode::SHUTDOWN => Request::Shutdown,
        opcode::METRICS => Request::Metrics,
        opcode::INGEST_SEQ => {
            let session = c.u64("ingest session id")?;
            let seq = c.u64("ingest sequence number")?;
            let n = c.count(10, "ingest batch count")?;
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                batch.push(Response {
                    worker: WorkerId(c.u32("response worker id")?),
                    task: TaskId(c.u32("response task id")?),
                    label: Label(c.u16("response label")?),
                });
            }
            Request::IngestBatchSeq {
                session,
                seq,
                batch,
            }
        }
        other => return Err(WireError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Replies.

/// Encodes a reply as `(opcode, payload)`.
pub fn encode_reply(reply: &Reply) -> (u8, Vec<u8>) {
    let mut p = Vec::new();
    match reply {
        Reply::Ingest(r) => {
            put_usize(&mut p, r.routed);
            put_usize(&mut p, r.shed_batches);
            put_usize(&mut p, r.shed_responses);
            (opcode::OK_INGEST, p)
        }
        Reply::Assessment(a) => {
            put_assessment(&mut p, a);
            (opcode::OK_ASSESSMENT, p)
        }
        Reply::Report(r) => {
            // Sized from the row counts up front: a fleet snapshot runs
            // to hundreds of KiB, and growing it by doubling would copy
            // it several times and leave freed buffers resident.
            p.reserve(
                8 + r.assessments.len() * ASSESSMENT_BYTES + r.failures.len() * FAILURE_BYTES,
            );
            put_u32(&mut p, r.assessments.len() as u32);
            for a in &r.assessments {
                put_assessment(&mut p, a);
            }
            put_u32(&mut p, r.failures.len() as u32);
            for (w, e) in &r.failures {
                put_u32(&mut p, w.0);
                put_estimate_error(&mut p, e);
            }
            (opcode::OK_REPORT, p)
        }
        Reply::Unit => (opcode::OK_UNIT, p),
        Reply::Stats(s) => {
            put_service_stats(&mut p, s);
            (opcode::OK_STATS, p)
        }
        Reply::Metrics(m) => {
            put_bool(&mut p, m.service.enabled);
            put_service_stats(&mut p, &m.service.stats);
            put_u32(&mut p, m.service.stages.len() as u32);
            for st in &m.service.stages {
                put_stage_timings(&mut p, st);
            }
            put_u32(&mut p, m.service.events.len() as u32);
            for e in &m.service.events {
                put_event(&mut p, e);
            }
            put_u64(&mut p, m.service.events_dropped);
            put_u32(&mut p, m.server.len() as u32);
            for t in &m.server {
                p.push(t.opcode);
                put_histogram(&mut p, &t.decode);
                put_histogram(&mut p, &t.handle);
                put_histogram(&mut p, &t.write);
            }
            (opcode::OK_METRICS, p)
        }
        Reply::Err(e) => {
            put_service_error(&mut p, e);
            (opcode::ERR, p)
        }
    }
}

/// Decodes a reply frame; the exact inverse of [`encode_reply`].
pub fn decode_reply(op: u8, payload: &[u8]) -> Result<Reply, WireError> {
    let mut c = Cursor::new(payload);
    let reply = match op {
        opcode::OK_INGEST => Reply::Ingest(IngestReceipt {
            routed: c.usize("receipt routed")?,
            shed_batches: c.usize("receipt shed batches")?,
            shed_responses: c.usize("receipt shed responses")?,
        }),
        opcode::OK_ASSESSMENT => Reply::Assessment(get_assessment(&mut c)?),
        opcode::OK_REPORT => {
            let n = c.count(29, "report assessment count")?;
            let mut assessments = Vec::with_capacity(n);
            for _ in 0..n {
                assessments.push(get_assessment(&mut c)?);
            }
            let k = c.count(5, "report failure count")?;
            let mut failures = Vec::with_capacity(k);
            for _ in 0..k {
                let w = WorkerId(c.u32("failure worker id")?);
                failures.push((w, get_estimate_error(&mut c)?));
            }
            Reply::Report(WorkerReport {
                assessments,
                failures,
            })
        }
        opcode::OK_UNIT => Reply::Unit,
        opcode::OK_STATS => Reply::Stats(get_service_stats(&mut c)?),
        opcode::OK_METRICS => {
            let enabled = c.bool("metrics enabled flag")?;
            let stats = get_service_stats(&mut c)?;
            let s = c.count(3 * HISTOGRAM_WIRE_BYTES, "metrics stage count")?;
            let mut stages = Vec::with_capacity(s);
            for _ in 0..s {
                stages.push(get_stage_timings(&mut c)?);
            }
            let e = c.count(EVENT_MIN_BYTES, "metrics event count")?;
            let mut events = Vec::with_capacity(e);
            for _ in 0..e {
                events.push(get_event(&mut c)?);
            }
            let events_dropped = c.u64("metrics events dropped")?;
            let o = c.count(1 + 3 * HISTOGRAM_WIRE_BYTES, "metrics opcode count")?;
            let mut server = Vec::with_capacity(o);
            for _ in 0..o {
                server.push(OpcodeTimings {
                    opcode: c.u8("timed opcode")?,
                    decode: get_histogram(&mut c, "opcode decode histogram")?,
                    handle: get_histogram(&mut c, "opcode handle histogram")?,
                    write: get_histogram(&mut c, "opcode write histogram")?,
                });
            }
            Reply::Metrics(MetricsReport {
                service: ServiceMetrics {
                    enabled,
                    stats,
                    stages,
                    events,
                    events_dropped,
                },
                server,
            })
        }
        opcode::ERR => Reply::Err(get_service_error(&mut c)?),
        other => return Err(WireError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(reply)
}

/// Encoded bytes of one [`put_assessment`] row: worker id, three
/// interval floats, triples used, fallback flag.
const ASSESSMENT_BYTES: usize = 4 + 3 * 8 + 8 + 1;

/// Encoded bytes of one report failure with the widest fixed-size
/// error (`InsufficientOverlap`): worker id, error tag, two worker ids,
/// two counts. Only errors that carry a message can run longer.
const FAILURE_BYTES: usize = 4 + 1 + 2 * 4 + 2 * 8;

fn put_assessment(p: &mut Vec<u8>, a: &WorkerAssessment) {
    put_u32(p, a.worker.0);
    put_f64(p, a.interval.center);
    put_f64(p, a.interval.half_width);
    put_f64(p, a.interval.confidence);
    put_usize(p, a.triples_used);
    put_bool(p, a.weights_fell_back);
}

fn get_assessment(c: &mut Cursor<'_>) -> Result<WorkerAssessment, WireError> {
    Ok(WorkerAssessment {
        worker: WorkerId(c.u32("assessment worker id")?),
        interval: ConfidenceInterval {
            center: c.f64("interval center")?,
            half_width: c.f64("interval half-width")?,
            confidence: c.f64("interval confidence")?,
        },
        triples_used: c.usize("assessment triples")?,
        weights_fell_back: c.bool("assessment weight fallback")?,
    })
}

fn put_service_stats(p: &mut Vec<u8>, s: &ServiceStats) {
    put_u32(p, s.shards.len() as u32);
    for sh in &s.shards {
        put_shard_stats(p, sh);
    }
    put_u64(p, s.submitted);
    put_u64(p, s.dropped_batches);
    put_u64(p, s.dropped_responses);
    for &b in s.batch_sizes.counts() {
        put_u64(p, b);
    }
}

fn get_service_stats(c: &mut Cursor<'_>) -> Result<ServiceStats, WireError> {
    let n = c.count(15 * 8, "stats shard count")?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(get_shard_stats(&mut *c)?);
    }
    let submitted = c.u64("stats submitted")?;
    let dropped_batches = c.u64("stats dropped batches")?;
    let dropped_responses = c.u64("stats dropped responses")?;
    let mut buckets = [0u64; BatchHistogram::BUCKETS];
    for b in &mut buckets {
        *b = c.u64("stats histogram bucket")?;
    }
    Ok(ServiceStats {
        shards,
        submitted,
        dropped_batches,
        dropped_responses,
        batch_sizes: BatchHistogram::from_counts(buckets),
    })
}

/// Flat wire size of one histogram snapshot: count, sum, max, then
/// all [`crowd_obs::BUCKETS`] bucket counts, each 8 bytes.
const HISTOGRAM_WIRE_BYTES: usize = (3 + crowd_obs::BUCKETS) * 8;

/// Minimum wire size of one journal event (empty label).
const EVENT_MIN_BYTES: usize = 8 + 8 + 1 + 4 + 8 + 8 + 4;

fn put_histogram(p: &mut Vec<u8>, h: &HistogramSnapshot) {
    put_u64(p, h.count());
    put_u64(p, h.sum());
    put_u64(p, h.max());
    for &b in h.buckets() {
        put_u64(p, b);
    }
}

fn get_histogram(c: &mut Cursor<'_>, what: &'static str) -> Result<HistogramSnapshot, WireError> {
    let count = c.u64(what)?;
    let sum = c.u64(what)?;
    let max = c.u64(what)?;
    let mut buckets = [0u64; crowd_obs::BUCKETS];
    for b in &mut buckets {
        *b = c.u64(what)?;
    }
    Ok(HistogramSnapshot::from_parts(buckets, count, sum, max))
}

fn put_stage_timings(p: &mut Vec<u8>, s: &StageTimings) {
    put_histogram(p, &s.queue_wait);
    put_histogram(p, &s.batch_apply);
    put_histogram(p, &s.drain_eval);
}

fn get_stage_timings(c: &mut Cursor<'_>) -> Result<StageTimings, WireError> {
    Ok(StageTimings {
        queue_wait: get_histogram(c, "queue-wait histogram")?,
        batch_apply: get_histogram(c, "batch-apply histogram")?,
        drain_eval: get_histogram(c, "drain-eval histogram")?,
    })
}

fn put_event(p: &mut Vec<u8>, e: &Event) {
    put_u64(p, e.seq);
    put_u64(p, e.timestamp_ns);
    p.push(e.kind as u8);
    put_u32(p, e.shard);
    put_u64(p, e.a);
    put_u64(p, e.b);
    put_str(p, &e.label);
}

fn get_event(c: &mut Cursor<'_>) -> Result<Event, WireError> {
    Ok(Event {
        seq: c.u64("event seq")?,
        timestamp_ns: c.u64("event timestamp")?,
        kind: EventKind::from_u8(c.u8("event kind")?).ok_or(WireError::Malformed {
            what: "event kind tag",
        })?,
        shard: c.u32("event shard")?,
        a: c.u64("event a")?,
        b: c.u64("event b")?,
        label: c.string("event label")?,
    })
}

fn put_shard_stats(p: &mut Vec<u8>, s: &ShardStats) {
    put_usize(p, s.shard);
    put_u64(p, s.batches);
    put_u64(p, s.responses);
    put_u64(p, s.rejected);
    put_u64(p, s.assess_requests);
    put_usize(p, s.reanchors);
    put_usize(p, s.gram_patches);
    put_usize(p, s.gram_rebuilds);
    put_usize(p, s.queue_high_water);
    put_u64(p, s.cache_hits);
    put_u64(p, s.cache_misses);
    put_u64(p, s.cache_full_refreshes);
    put_u64(p, s.recoveries);
    put_u64(p, s.checkpoints);
    put_u64(p, s.wal_replayed);
}

fn get_shard_stats(c: &mut Cursor<'_>) -> Result<ShardStats, WireError> {
    Ok(ShardStats {
        shard: c.usize("shard id")?,
        batches: c.u64("shard batches")?,
        responses: c.u64("shard responses")?,
        rejected: c.u64("shard rejected")?,
        assess_requests: c.u64("shard assess requests")?,
        reanchors: c.usize("shard reanchors")?,
        gram_patches: c.usize("shard gram patches")?,
        gram_rebuilds: c.usize("shard gram rebuilds")?,
        queue_high_water: c.usize("shard queue high-water")?,
        cache_hits: c.u64("shard cache hits")?,
        cache_misses: c.u64("shard cache misses")?,
        cache_full_refreshes: c.u64("shard cache full refreshes")?,
        recoveries: c.u64("shard recoveries")?,
        checkpoints: c.u64("shard checkpoints")?,
        wal_replayed: c.u64("shard wal replayed")?,
    })
}

// ---------------------------------------------------------------------------
// The error taxonomy, as nested tagged unions.

/// Decodes an id-kind diagnostic back to the statics the workspace
/// uses; unknown values fall back to `"id"`.
fn id_kind(s: &str) -> &'static str {
    match s {
        "worker" => "worker",
        "task" => "task",
        _ => "id",
    }
}

/// Decodes a probability-name diagnostic back to the statics
/// `crowd_stats` uses; unknown values fall back to `"parameter"`.
fn probability_what(s: &str) -> &'static str {
    match s {
        "confidence" => "confidence",
        "quantile argument" => "quantile argument",
        "success fraction" => "success fraction",
        _ => "parameter",
    }
}

/// Appends a [`ServiceError`] as a tagged union.
pub fn put_service_error(p: &mut Vec<u8>, e: &ServiceError) {
    match e {
        ServiceError::QueueFull { shard, dropped } => {
            p.push(0);
            put_usize(p, *shard);
            put_usize(p, *dropped);
        }
        ServiceError::ShuttingDown => p.push(1),
        ServiceError::ShardUnavailable { shard } => {
            p.push(2);
            put_usize(p, *shard);
        }
        ServiceError::ShardPanicked { shard } => {
            p.push(3);
            put_usize(p, *shard);
        }
        ServiceError::Data(d) => {
            p.push(4);
            put_data_error(p, d);
        }
        ServiceError::Estimate(e) => {
            p.push(5);
            put_estimate_error(p, e);
        }
        ServiceError::Wire(msg) => {
            p.push(6);
            put_str(p, msg);
        }
        ServiceError::Io(msg) => {
            p.push(7);
            put_str(p, msg);
        }
    }
}

/// Reads a [`ServiceError`] tagged union.
pub fn get_service_error(c: &mut Cursor<'_>) -> Result<ServiceError, WireError> {
    Ok(match c.u8("service error tag")? {
        0 => ServiceError::QueueFull {
            shard: c.usize("queue-full shard")?,
            dropped: c.usize("queue-full dropped")?,
        },
        1 => ServiceError::ShuttingDown,
        2 => ServiceError::ShardUnavailable {
            shard: c.usize("unavailable shard")?,
        },
        3 => ServiceError::ShardPanicked {
            shard: c.usize("panicked shard")?,
        },
        4 => ServiceError::Data(get_data_error(c)?),
        5 => ServiceError::Estimate(get_estimate_error(c)?),
        6 => ServiceError::Wire(c.string("wire error message")?),
        7 => ServiceError::Io(c.string("io error message")?),
        _ => {
            return Err(WireError::Malformed {
                what: "service error tag",
            });
        }
    })
}

fn put_data_error(p: &mut Vec<u8>, e: &DataError) {
    match e {
        DataError::LabelOutOfRange { label, arity } => {
            p.push(0);
            put_u16(p, *label);
            put_u16(p, *arity);
        }
        DataError::DuplicateResponse { worker, task } => {
            p.push(1);
            put_u32(p, worker.0);
            put_u32(p, task.0);
        }
        DataError::Csv { line, reason } => {
            p.push(2);
            put_usize(p, *line);
            put_str(p, reason);
        }
        DataError::UnknownId { kind, id } => {
            p.push(3);
            put_str(p, kind);
            put_u32(p, *id);
        }
    }
}

fn get_data_error(c: &mut Cursor<'_>) -> Result<DataError, WireError> {
    Ok(match c.u8("data error tag")? {
        0 => DataError::LabelOutOfRange {
            label: c.u16("label value")?,
            arity: c.u16("label arity")?,
        },
        1 => DataError::DuplicateResponse {
            worker: WorkerId(c.u32("duplicate worker")?),
            task: TaskId(c.u32("duplicate task")?),
        },
        2 => DataError::Csv {
            line: c.usize("csv line")?,
            reason: c.string("csv reason")?,
        },
        3 => DataError::UnknownId {
            kind: id_kind(&c.string("id kind")?),
            id: c.u32("unknown id")?,
        },
        _ => {
            return Err(WireError::Malformed {
                what: "data error tag",
            });
        }
    })
}

fn put_estimate_error(p: &mut Vec<u8>, e: &EstimateError) {
    match e {
        EstimateError::InsufficientOverlap { a, b, got, need } => {
            p.push(0);
            put_u32(p, a.0);
            put_u32(p, b.0);
            put_usize(p, *got);
            put_usize(p, *need);
        }
        EstimateError::NotEnoughWorkers { got, need } => {
            p.push(1);
            put_usize(p, *got);
            put_usize(p, *need);
        }
        EstimateError::NoUsableTriples { worker } => {
            p.push(2);
            put_u32(p, worker.0);
        }
        EstimateError::Degenerate { what } => {
            p.push(3);
            put_str(p, what);
        }
        EstimateError::RequiresRegularData => p.push(4),
        EstimateError::Numerical(msg) => {
            p.push(5);
            put_str(p, msg);
        }
        EstimateError::Stats(s) => {
            p.push(6);
            put_stats_error(p, s);
        }
    }
}

fn get_estimate_error(c: &mut Cursor<'_>) -> Result<EstimateError, WireError> {
    Ok(match c.u8("estimate error tag")? {
        0 => EstimateError::InsufficientOverlap {
            a: WorkerId(c.u32("overlap worker a")?),
            b: WorkerId(c.u32("overlap worker b")?),
            got: c.usize("overlap got")?,
            need: c.usize("overlap need")?,
        },
        1 => EstimateError::NotEnoughWorkers {
            got: c.usize("workers got")?,
            need: c.usize("workers need")?,
        },
        2 => EstimateError::NoUsableTriples {
            worker: WorkerId(c.u32("triples worker")?),
        },
        3 => EstimateError::Degenerate {
            what: c.string("degenerate what")?,
        },
        4 => EstimateError::RequiresRegularData,
        5 => EstimateError::Numerical(c.string("numerical message")?),
        6 => EstimateError::Stats(get_stats_error(c)?),
        _ => {
            return Err(WireError::Malformed {
                what: "estimate error tag",
            });
        }
    })
}

fn put_stats_error(p: &mut Vec<u8>, e: &StatsError) {
    match e {
        StatsError::InvalidProbability { value, what } => {
            p.push(0);
            put_f64(p, *value);
            put_str(p, what);
        }
        StatsError::NegativeVariance { variance } => {
            p.push(1);
            put_f64(p, *variance);
        }
        StatsError::DimensionMismatch {
            gradient,
            covariance,
        } => {
            p.push(2);
            put_usize(p, *gradient);
            put_usize(p, *covariance);
        }
        StatsError::SingularCovariance => p.push(3),
        StatsError::InsufficientData { got, need } => {
            p.push(4);
            put_usize(p, *got);
            put_usize(p, *need);
        }
    }
}

fn get_stats_error(c: &mut Cursor<'_>) -> Result<StatsError, WireError> {
    Ok(match c.u8("stats error tag")? {
        0 => StatsError::InvalidProbability {
            value: c.f64("probability value")?,
            what: probability_what(&c.string("probability what")?),
        },
        1 => StatsError::NegativeVariance {
            variance: c.f64("variance value")?,
        },
        2 => StatsError::DimensionMismatch {
            gradient: c.usize("mismatch gradient")?,
            covariance: c.usize("mismatch covariance")?,
        },
        3 => StatsError::SingularCovariance,
        4 => StatsError::InsufficientData {
            got: c.usize("data got")?,
            need: c.usize("data need")?,
        },
        _ => {
            return Err(WireError::Malformed {
                what: "stats error tag",
            });
        }
    })
}
