//! The blocking client: one TCP connection, request/reply framing,
//! and a window-bounded pipelined ingest path.
//!
//! Every method returns `Result<_, ServiceError>` — service failures
//! arrive over the wire as the same typed taxonomy an in-process
//! caller sees, protocol violations surface as
//! [`ServiceError::Wire`], and socket failures as
//! [`ServiceError::Io`]. Nothing on the client path panics on bytes a
//! peer controls.

use std::fmt;
use std::io::{self, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::time::Duration;

use crowd_core::{WorkerAssessment, WorkerReport};
use crowd_data::{Response, WorkerId};
use crowd_service::{IngestReceipt, ServiceError};

use crate::frame::{FrameEvent, FrameReader, MAX_FRAME_LEN, WireError, write_frame};
use crate::proto::{
    MetricsReport, Reply, Request, decode_reply, encode_ingest_batch_payload, encode_request,
    opcode,
};

/// Tuning knobs for a [`WireClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How long to wait for a reply before giving up; `None` blocks
    /// indefinitely (the default — assessment latency is the
    /// server's to bound).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout.
    pub write_timeout: Option<Duration>,
    /// Largest reply frame to accept.
    pub max_frame_len: usize,
    /// How many ingest requests [`WireClient::ingest_batches`] keeps
    /// in flight before it starts collecting receipts. Bounds the
    /// bytes parked in the socket pair so a pipelined burst cannot
    /// deadlock against the server's reply stream.
    pub pipeline_window: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(5)),
            max_frame_len: MAX_FRAME_LEN,
            pipeline_window: 32,
        }
    }
}

/// What a mid-pipeline transport failure left behind: which batches
/// the server **definitively** answered, which are **ambiguous**
/// (sent, reply never seen — the server may or may not have applied
/// them), and which were never attempted.
///
/// For a call over `batches[0..n]`:
///
/// * `acked[i]` is the server's verdict on `batches[i]` — applied
///   ([`Ok`]) or definitively rejected ([`Err`], e.g. a
///   [`ServiceError::QueueFull`] under a rejecting policy).
/// * `ambiguous` indexes the batches whose requests went onto the
///   socket but whose replies died with the connection. Re-sending
///   them blindly risks double ingest; resolve them with the
///   sequence-id path ([`crate::RetryClient`]) or an out-of-band
///   count reconciliation.
/// * `self.ambiguous.end..n` were never written — safe to retry.
#[derive(Debug, Clone)]
pub struct IngestPipelineError {
    /// The transport/protocol failure that broke the pipeline.
    pub error: ServiceError,
    /// Per-batch outcomes the server definitively answered, in batch
    /// order (`acked.len() == ambiguous.start`).
    pub acked: Vec<Result<IngestReceipt, ServiceError>>,
    /// Index range of batches with unknown outcome.
    pub ambiguous: Range<usize>,
}

impl fmt::Display for IngestPipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ingest pipeline failed after {} acknowledged batches \
             (batches {}..{} ambiguous): {}",
            self.acked.len(),
            self.ambiguous.start,
            self.ambiguous.end,
            self.error
        )
    }
}

impl std::error::Error for IngestPipelineError {}

impl From<IngestPipelineError> for ServiceError {
    /// Drops the partial-outcome detail, keeping the transport error —
    /// for callers that treat any pipeline failure as fatal.
    fn from(e: IngestPipelineError) -> Self {
        e.error
    }
}

/// A blocking connection to a [`crate::WireServer`].
///
/// Methods take `&mut self` because a connection is one serial
/// request/reply stream; clone-per-thread does not apply — open one
/// client per thread instead (the server is thread-per-connection).
#[derive(Debug)]
pub struct WireClient {
    reader: FrameReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    window: usize,
}

impl WireClient {
    /// Connects with default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit tuning.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, ServiceError> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream
            .set_read_timeout(config.read_timeout)
            .map_err(io_err)?;
        stream
            .set_write_timeout(config.write_timeout)
            .map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        let reader = FrameReader::new(stream.try_clone().map_err(io_err)?, config.max_frame_len);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
            window: config.pipeline_window.max(1),
        })
    }

    /// Ingests one batch. Cost: one round trip.
    pub fn ingest_batch(&mut self, batch: &[Response]) -> Result<IngestReceipt, ServiceError> {
        self.send_raw(opcode::INGEST_BATCH, &encode_ingest_batch_payload(batch))?;
        match self.recv()? {
            Reply::Ingest(r) => Ok(r),
            other => Err(unexpected("ingest receipt", &other)),
        }
    }

    /// Ingests one response. Cost: one round trip — batch instead.
    pub fn ingest(&mut self, response: Response) -> Result<IngestReceipt, ServiceError> {
        self.ingest_batch(std::slice::from_ref(&response))
    }

    /// Ingests many batches with request pipelining: up to
    /// [`ClientConfig::pipeline_window`] requests ride the socket
    /// before the first receipt is collected, so the cost is one
    /// round trip per *window*, not per batch. Receipts come back in
    /// batch order; a per-batch service failure (say,
    /// [`ServiceError::QueueFull`] under a rejecting backpressure
    /// policy) occupies its batch's slot without aborting the rest.
    /// The outer error is transport/protocol failure, and it is
    /// *accountable*: [`IngestPipelineError`] carries every receipt
    /// the server definitively answered before the break plus the
    /// index range of batches whose outcome is ambiguous, so upstream
    /// retry logic knows exactly what is safe to re-send. The
    /// connection stays usable only when `Ok` comes back.
    pub fn ingest_batches(
        &mut self,
        batches: &[Vec<Response>],
    ) -> Result<Vec<Result<IngestReceipt, ServiceError>>, IngestPipelineError> {
        let mut receipts = Vec::with_capacity(batches.len());
        let mut sent = 0;
        while receipts.len() < batches.len() {
            while sent < batches.len() && sent - receipts.len() < self.window {
                let payload = encode_ingest_batch_payload(&batches[sent]);
                if let Err(e) = self.send_raw(opcode::INGEST_BATCH, &payload) {
                    // The write side broke mid-pipeline; collect what
                    // the server already answered, then fail with the
                    // send's error and an honest ambiguous set.
                    self.drain_into(&mut receipts, sent);
                    return Err(pipeline_err(e, receipts, sent));
                }
                sent += 1;
            }
            match self.recv() {
                Ok(Reply::Ingest(r)) => receipts.push(Ok(r)),
                Ok(Reply::Err(e)) => receipts.push(Err(e)),
                Ok(other) => {
                    // Reply-stream desync: nothing past this point can
                    // be attributed to a batch, so everything sent but
                    // unanswered is ambiguous.
                    let e = unexpected("ingest receipt", &other);
                    return Err(pipeline_err(e, receipts, sent));
                }
                Err(e) => return Err(pipeline_err(e, receipts, sent)),
            }
        }
        Ok(receipts)
    }

    /// Assesses one worker. Cost: one round trip; the server answers
    /// from the worker's home shard.
    pub fn assess_worker(
        &mut self,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<WorkerAssessment, ServiceError> {
        match self.call(&Request::AssessWorker { worker, confidence })? {
            Reply::Assessment(a) => Ok(a),
            other => Err(unexpected("assessment", &other)),
        }
    }

    /// Assesses an explicit worker set. Cost: one round trip carrying
    /// the whole report; per-worker estimation failures ride in the
    /// report's `failures`, not the error channel.
    pub fn assess_workers(
        &mut self,
        workers: &[WorkerId],
        confidence: f64,
    ) -> Result<WorkerReport, ServiceError> {
        match self.call(&Request::AssessWorkers {
            workers: workers.to_vec(),
            confidence,
        })? {
            Reply::Report(r) => Ok(r),
            other => Err(unexpected("report", &other)),
        }
    }

    /// Assesses the whole fleet. Cost: one round trip; the report is
    /// bit-identical to [`crowd_service::ServiceHandle::snapshot`] on
    /// the server.
    pub fn snapshot(&mut self, confidence: f64) -> Result<WorkerReport, ServiceError> {
        match self.call(&Request::Snapshot { confidence })? {
            Reply::Report(r) => Ok(r),
            other => Err(unexpected("report", &other)),
        }
    }

    /// FIFO barrier: returns once every response ingested earlier on
    /// *any* connection is reflected in shard state. Cost: one round
    /// trip plus the server-side drain.
    pub fn drain(&mut self) -> Result<(), ServiceError> {
        match self.call(&Request::Drain)? {
            Reply::Unit => Ok(()),
            other => Err(unexpected("ack", &other)),
        }
    }

    /// Full metrics scrape: the service's counters and stage
    /// histograms as named samples, the wire server's own per-opcode
    /// timings, and the journal tail. Read one series with
    /// [`MetricsReport::get`]; render a Prometheus-style page with
    /// [`MetricsReport::render_text`]. Cost: one round trip.
    pub fn metrics(&mut self) -> Result<MetricsReport, ServiceError> {
        match self.call(&Request::Metrics)? {
            Reply::Metrics(m) => Ok(m),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Shuts the *service* down and returns its final scrape; the
    /// server stops accepting afterwards, and other live connections
    /// see [`ServiceError::ShuttingDown`] on further requests.
    pub fn shutdown(&mut self) -> Result<MetricsReport, ServiceError> {
        match self.call(&Request::Shutdown)? {
            Reply::Metrics(m) => Ok(m),
            other => Err(unexpected("metrics", &other)),
        }
    }

    pub(crate) fn call(&mut self, req: &Request) -> Result<Reply, ServiceError> {
        let (op, payload) = encode_request(req);
        self.send_raw(op, &payload)?;
        self.recv()
    }

    pub(crate) fn send_raw(&mut self, op: u8, payload: &[u8]) -> Result<(), ServiceError> {
        write_frame(&mut self.writer, op, payload).map_err(io_err)
    }

    pub(crate) fn recv(&mut self) -> Result<Reply, ServiceError> {
        self.writer.flush().map_err(io_err)?;
        match self.reader.read() {
            // With a read timeout configured, a boundary timeout
            // while a reply is owed means the server stalled.
            Ok(FrameEvent::Idle) => Err(ServiceError::Io("timed out waiting for a reply".into())),
            Ok(FrameEvent::Eof) => Err(ServiceError::Io("server closed the connection".into())),
            Ok(FrameEvent::Frame { opcode, payload }) => Ok(decode_reply(opcode, &payload)?),
            Err(e) => Err(e.into()),
        }
    }

    /// Best-effort collection of outstanding replies after a
    /// mid-pipeline send failure: every reply still readable is a
    /// definitive verdict and shrinks the ambiguous set; the first
    /// read failure stops (the error the caller sees stays the
    /// send's, not a later desync).
    fn drain_into(&mut self, receipts: &mut Vec<Result<IngestReceipt, ServiceError>>, sent: usize) {
        while receipts.len() < sent {
            match self.recv() {
                Ok(Reply::Ingest(r)) => receipts.push(Ok(r)),
                Ok(Reply::Err(e)) => receipts.push(Err(e)),
                _ => break,
            }
        }
    }
}

fn pipeline_err(
    error: ServiceError,
    acked: Vec<Result<IngestReceipt, ServiceError>>,
    sent: usize,
) -> IngestPipelineError {
    let ambiguous = acked.len()..sent;
    IngestPipelineError {
        error,
        acked,
        ambiguous,
    }
}

pub(crate) fn unexpected(expected: &'static str, got: &Reply) -> ServiceError {
    if let Reply::Err(e) = got {
        return e.clone();
    }
    WireError::UnexpectedReply {
        expected,
        got: got.kind(),
    }
    .into()
}

fn io_err(e: io::Error) -> ServiceError {
    ServiceError::Io(e.to_string())
}
