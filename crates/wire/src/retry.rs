//! The retrying client: reconnect + bounded exponential backoff on
//! transport failure, with **exactly-once ingest** over the
//! sequence-id path.
//!
//! [`WireClient`] is deliberately dumb about failure — one connection,
//! and a broken pipeline reports which batches are ambiguous
//! ([`crate::IngestPipelineError`]) but resolves nothing.
//! [`RetryClient`] closes the loop:
//!
//! * **Transport failures retry.** [`ServiceError::Io`] (socket died,
//!   connect refused, reply timed out) and *local*
//!   [`ServiceError::Wire`] failures (a reply frame that would not
//!   decode) tear down the connection, back off with bounded
//!   exponential delay + deterministic jitter, reconnect, and re-send.
//!   Service-side verdicts that arrive as well-formed error replies
//!   are **definitive** and never retried.
//! * **Ingest is idempotent.** Every batch travels as
//!   [`Request::IngestBatchSeq`] under this client's session id and a
//!   monotone sequence number, and a retry re-sends the **same**
//!   sequence number. The server's per-session dedup window replays
//!   the stored outcome if the first attempt actually landed — so a
//!   retry after an ambiguous timeout or a dropped connection ingests
//!   each batch *exactly once*, no matter how many attempts the
//!   transport eats.
//! * **Reads retry freely.** Snapshots, assessments, drains and
//!   metrics scrapes are idempotent by construction; re-asking is
//!   always safe.
//!
//! The one contract the caller must hold: after
//! [`RetryClient::ingest_batch`] fails with a transport error (retry
//! budget exhausted), the batch's fate is unknown and the sequence
//! number is **not** advanced — re-call with the *same* batch to
//! resolve it. Substituting a different batch under the pending
//! sequence number would let the server's replayed outcome
//! misattribute it.

use std::net::{SocketAddr, ToSocketAddrs};
use std::thread;
use std::time::{Duration, SystemTime};

use crowd_core::{WorkerAssessment, WorkerReport};
use crowd_data::{Response, WorkerId};
use crowd_service::{IngestReceipt, ServiceError};

use crate::client::{ClientConfig, WireClient, unexpected};
use crate::proto::{MetricsReport, Reply, Request, encode_request};

/// Tuning for a [`RetryClient`].
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Per-connection tuning, applied on every (re)connect.
    pub client: ClientConfig,
    /// How many times a single request is re-sent after its first
    /// attempt fails with a retryable error.
    pub max_retries: u32,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed for the deterministic backoff jitter — fixed per client so
    /// tests replay identical schedules.
    pub jitter_seed: u64,
    /// Explicit session id for the idempotent ingest path; `None`
    /// derives one from the wall clock at construction. Reuse an id
    /// across client instances only if they continue the same
    /// sequence numbering.
    pub session: Option<u64>,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            client: ClientConfig::default(),
            max_retries: 8,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            jitter_seed: 0x5245_5452_5943, // "RETRYC"
            session: None,
        }
    }
}

/// `splitmix64` — same mixer as the service's fault plan; stateless,
/// good avalanche.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Is this failure the transport's (worth a reconnect) rather than a
/// definitive service verdict? Local I/O and frame/decode failures
/// are; everything the service itself said is not.
fn retryable(e: &ServiceError) -> bool {
    matches!(e, ServiceError::Io(_) | ServiceError::Wire(_))
}

/// A self-healing connection to a [`crate::WireServer`]; see the
/// [module docs](self) for the retry and idempotency contract.
#[derive(Debug)]
pub struct RetryClient {
    addrs: Vec<SocketAddr>,
    config: RetryConfig,
    conn: Option<WireClient>,
    session: u64,
    next_seq: u64,
    /// Monotone jitter counter so successive backoffs draw different
    /// deterministic delays.
    jitter_ordinal: u64,
    reconnects: u64,
    retries: u64,
}

impl RetryClient {
    /// Connects (lazily — the first request dials) with default
    /// [`RetryConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        Self::connect_with(addr, RetryConfig::default())
    }

    /// Connects with explicit tuning. Address resolution happens once,
    /// here; reconnects reuse the resolved set.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: RetryConfig,
    ) -> Result<Self, ServiceError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| ServiceError::Io(e.to_string()))?
            .collect();
        if addrs.is_empty() {
            return Err(ServiceError::Io("address resolved to nothing".into()));
        }
        let session = config.session.unwrap_or_else(|| {
            let nanos = SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            splitmix64(nanos ^ std::process::id() as u64)
        });
        Ok(Self {
            addrs,
            config,
            conn: None,
            session,
            next_seq: 1,
            jitter_ordinal: 0,
            reconnects: 0,
            retries: 0,
        })
    }

    /// The session id the idempotent ingest path runs under.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// How many times this client re-dialed the server.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// How many request attempts were retries (beyond each request's
    /// first try).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Ingests one batch **exactly once**: sent as
    /// [`Request::IngestBatchSeq`] with this client's next sequence
    /// number, retried with the *same* number across reconnects so the
    /// server's dedup absorbs any attempt that actually landed.
    ///
    /// A definitive service rejection (e.g.
    /// [`ServiceError::QueueFull`] under a rejecting policy) consumes
    /// the sequence number and returns the error; an exhausted retry
    /// budget leaves the number pending — re-call with the same batch.
    pub fn ingest_batch(&mut self, batch: &[Response]) -> Result<IngestReceipt, ServiceError> {
        let req = Request::IngestBatchSeq {
            session: self.session,
            seq: self.next_seq,
            batch: batch.to_vec(),
        };
        let reply = self.call_retrying(&req)?;
        // Any well-formed reply is a definitive, recorded outcome:
        // the server advanced the session; so do we.
        self.next_seq += 1;
        match reply {
            Reply::Ingest(r) => Ok(r),
            other => Err(unexpected("ingest receipt", &other)),
        }
    }

    /// Ingests one response. Cost: one round trip — batch instead.
    pub fn ingest(&mut self, response: Response) -> Result<IngestReceipt, ServiceError> {
        self.ingest_batch(std::slice::from_ref(&response))
    }

    /// Ingests many batches, each exactly once. One round trip per
    /// batch — the sequenced path trades [`WireClient::ingest_batches`]'
    /// pipelining for a resolved outcome per batch. Definitive
    /// per-batch rejections occupy their slot; a transport failure
    /// that outlives the retry budget aborts with the failing batch
    /// still pending (its index is `result.len()` of the receipts
    /// gathered so far — not recoverable from the error alone, so
    /// resume by re-calling over the remaining batches).
    pub fn ingest_batches(
        &mut self,
        batches: &[Vec<Response>],
    ) -> Result<Vec<Result<IngestReceipt, ServiceError>>, ServiceError> {
        let mut receipts = Vec::with_capacity(batches.len());
        for batch in batches {
            match self.ingest_batch(batch) {
                Ok(r) => receipts.push(Ok(r)),
                Err(e) if retryable(&e) => return Err(e),
                Err(e) => receipts.push(Err(e)),
            }
        }
        Ok(receipts)
    }

    /// Assesses one worker; retried freely (idempotent read).
    pub fn assess_worker(
        &mut self,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<WorkerAssessment, ServiceError> {
        match self.call_definitive(&Request::AssessWorker { worker, confidence })? {
            Reply::Assessment(a) => Ok(a),
            other => Err(unexpected("assessment", &other)),
        }
    }

    /// Assesses an explicit worker set; retried freely.
    pub fn assess_workers(
        &mut self,
        workers: &[WorkerId],
        confidence: f64,
    ) -> Result<WorkerReport, ServiceError> {
        match self.call_definitive(&Request::AssessWorkers {
            workers: workers.to_vec(),
            confidence,
        })? {
            Reply::Report(r) => Ok(r),
            other => Err(unexpected("report", &other)),
        }
    }

    /// Fleet snapshot; retried freely.
    pub fn snapshot(&mut self, confidence: f64) -> Result<WorkerReport, ServiceError> {
        match self.call_definitive(&Request::Snapshot { confidence })? {
            Reply::Report(r) => Ok(r),
            other => Err(unexpected("report", &other)),
        }
    }

    /// FIFO barrier; retried freely (a re-sent drain is still a
    /// barrier over everything the first one covered).
    pub fn drain(&mut self) -> Result<(), ServiceError> {
        match self.call_definitive(&Request::Drain)? {
            Reply::Unit => Ok(()),
            other => Err(unexpected("ack", &other)),
        }
    }

    /// Full metrics scrape; retried freely.
    pub fn metrics(&mut self) -> Result<MetricsReport, ServiceError> {
        match self.call_definitive(&Request::Metrics)? {
            Reply::Metrics(m) => Ok(m),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Shuts the service down. **Not retried**: after a transport
    /// failure the server may already be gone, and re-dialing a dead
    /// listener would convert a successful shutdown into an error.
    pub fn shutdown(&mut self) -> Result<MetricsReport, ServiceError> {
        let conn = self.ensure_conn()?;
        let (op, payload) = encode_request(&Request::Shutdown);
        conn.send_raw(op, &payload)?;
        match conn.recv()? {
            Reply::Metrics(m) => Ok(m),
            Reply::Err(e) => Err(e),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Retrying call that unwraps [`Reply::Err`] into the error
    /// channel (it is a definitive verdict, so unwrapping after the
    /// retry loop is fine).
    fn call_definitive(&mut self, req: &Request) -> Result<Reply, ServiceError> {
        match self.call_retrying(req)? {
            Reply::Err(e) => Err(e),
            reply => Ok(reply),
        }
    }

    /// One logical request: try, and on a retryable transport failure
    /// tear the connection down, back off, reconnect, re-send — up to
    /// [`RetryConfig::max_retries`] times. Returns whatever
    /// well-formed reply eventually arrives (including
    /// [`Reply::Err`]).
    fn call_retrying(&mut self, req: &Request) -> Result<Reply, ServiceError> {
        let (op, payload) = encode_request(req);
        let mut attempt = 0u32;
        loop {
            let outcome = self.try_once(op, &payload);
            match outcome {
                Ok(reply) => return Ok(reply),
                Err(e) if retryable(&e) && attempt < self.config.max_retries => {
                    self.conn = None;
                    self.retries += 1;
                    self.backoff(attempt);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn try_once(&mut self, op: u8, payload: &[u8]) -> Result<Reply, ServiceError> {
        let conn = self.ensure_conn()?;
        conn.send_raw(op, payload)?;
        conn.recv()
    }

    fn ensure_conn(&mut self) -> Result<&mut WireClient, ServiceError> {
        if self.conn.is_none() {
            let mut last = None;
            for addr in &self.addrs {
                match WireClient::connect_with(addr, self.config.client.clone()) {
                    Ok(c) => {
                        self.conn = Some(c);
                        self.reconnects += 1;
                        break;
                    }
                    Err(e) => last = Some(e),
                }
            }
            if self.conn.is_none() {
                return Err(last.unwrap_or_else(|| ServiceError::Io("no addresses".into())));
            }
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Bounded exponential backoff with deterministic jitter: delay
    /// `d = min(base · 2^attempt, max)`, sleep `d/2 + jitter(d/2)`.
    fn backoff(&mut self, attempt: u32) {
        let base = self.config.backoff_base.max(Duration::from_millis(1));
        let exp = base.saturating_mul(1u32 << attempt.min(20));
        let d = exp.min(self.config.backoff_max);
        let half = d / 2;
        self.jitter_ordinal += 1;
        let jitter_nanos = if half.is_zero() {
            0
        } else {
            splitmix64(self.config.jitter_seed ^ self.jitter_ordinal) % half.as_nanos() as u64
        };
        thread::sleep(half + Duration::from_nanos(jitter_nanos));
    }
}
