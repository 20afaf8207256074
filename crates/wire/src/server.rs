//! The blocking TCP server: an acceptor thread feeding
//! thread-per-connection workers, all dispatching onto one shared
//! [`ServiceHandle`].
//!
//! No async runtime — the service behind the socket is itself
//! thread-per-shard with blocking bounded queues, so a blocking
//! connection thread is the natural impedance match: backpressure
//! propagates from a full shard queue through the connection thread
//! straight into TCP flow control.
//!
//! # Lifecycle
//!
//! [`WireServer::bind`] spawns the acceptor and returns immediately.
//! The server stops in two ways:
//!
//! * a client sends `Shutdown` — the service drains and joins its
//!   shards, the final scrape goes back over that connection, and the
//!   server stops accepting; or
//! * the owner calls [`WireServer::close`] (or drops the server) —
//!   the server stops accepting without touching the service.
//!
//! Either way the drain is graceful: live connections finish their
//! in-flight request, notice the closing flag at their next idle
//! poll (bounded by the read timeout), and exit; the acceptor joins
//! every connection thread before it returns.
//!
//! # Why a connection thread cannot die
//!
//! Every failure on the request path is typed: framing and decode
//! errors become [`WireError`](crate::WireError)s (answered with an
//! error reply when the frame boundary is still trustworthy, a clean
//! close when it is not), and every service failure is a
//! [`ServiceError`] the reply codec carries back whole. The dispatch
//! path contains no `unwrap`/`expect` on request-dependent data.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crowd_obs::{LatencyHistogram, Sample};
use crowd_service::{FaultPlan, IngestReceipt, ServiceError, ServiceHandle};

use crate::frame::{FrameError, FrameEvent, FrameReader, MAX_FRAME_LEN, write_frame};
use crate::proto::{MetricsReport, Reply, Request, decode_request, encode_reply};

/// Tuning knobs for a [`WireServer`].
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Connections served concurrently; one past the cap is answered
    /// with a typed error reply and closed.
    pub max_connections: usize,
    /// Socket read timeout. Doubles as the closing-flag poll interval
    /// (an idle connection notices shutdown within one timeout) and as
    /// the stall bound (a peer silent for this long *inside* a frame
    /// is treated as gone).
    pub read_timeout: Duration,
    /// Socket write timeout; a peer that stops reading replies for
    /// this long loses its connection.
    pub write_timeout: Duration,
    /// Largest frame either direction will accept.
    pub max_frame_len: usize,
    /// Record per-opcode frame-handling timings (decode, dispatch,
    /// reply-write), scrapeable through the `Metrics` request. Three
    /// `Instant` reads and three wait-free histogram records per
    /// request; set `false` to serve without server-side timing.
    pub metrics: bool,
    /// Per-session outcomes retained for `IngestBatchSeq`
    /// deduplication: a retried sequence whose outcome has already
    /// aged out of this window gets a typed wire error instead of a
    /// silent (and possibly wrong) replay. A retrying client
    /// re-sends at most its pipeline window, so the default (64)
    /// comfortably covers it.
    pub dedup_window: usize,
    /// Deterministic server-side fault injection:
    /// [`FaultPlan::should_drop`] severs a connection after the
    /// request is applied but before the reply. `None` (the default)
    /// injects nothing; tests share plans with the service config.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(5),
            max_frame_len: MAX_FRAME_LEN,
            metrics: true,
            dedup_window: 64,
            fault: None,
        }
    }
}

/// One client session's idempotency state; see
/// [`crate::proto::opcode::INGEST_SEQ`].
#[derive(Debug, Default)]
struct SessionState {
    /// The next sequence number this session is expected to send
    /// (1-based; 1 for a fresh session).
    next_seq: u64,
    /// Ring of the most recent `(seq, outcome)` pairs, oldest first,
    /// capped at [`WireConfig::dedup_window`].
    outcomes: VecDeque<(u64, Result<IngestReceipt, ServiceError>)>,
}

/// All sessions the server has seen, shared across connections — a
/// client that reconnects after a drop continues the same session, so
/// the table must outlive any one socket.
type SessionTable = Mutex<HashMap<u64, SessionState>>;

/// Applies one sequenced ingest against the table: apply-and-record
/// for the expected sequence, stored-outcome replay for an
/// already-applied one (the retry path), typed errors for gaps and
/// aged-out retries. The table lock is held across the service call —
/// ingest is already serialized service-side, so this adds no real
/// contention, and it makes apply + record atomic with respect to a
/// concurrent retry on another connection.
fn dispatch_ingest_seq(
    handle: &ServiceHandle,
    sessions: &SessionTable,
    dedup_window: usize,
    session: u64,
    seq: u64,
    batch: &[crowd_data::Response],
) -> Reply {
    let mut table = sessions.lock().unwrap_or_else(|e| e.into_inner());
    let state = table.entry(session).or_insert_with(|| SessionState {
        next_seq: 1,
        outcomes: VecDeque::new(),
    });
    if seq == state.next_seq {
        let outcome = handle.ingest_batch(batch);
        state.next_seq += 1;
        state.outcomes.push_back((seq, outcome.clone()));
        while state.outcomes.len() > dedup_window.max(1) {
            state.outcomes.pop_front();
        }
        return match outcome {
            Ok(r) => Reply::Ingest(r),
            Err(e) => Reply::Err(e),
        };
    }
    if seq < state.next_seq {
        // A retry of something already applied: replay the recorded
        // outcome so the batch lands exactly once.
        return match state.outcomes.iter().find(|(s, _)| *s == seq) {
            Some((_, Ok(r))) => Reply::Ingest(*r),
            Some((_, Err(e))) => Reply::Err(e.clone()),
            None => Reply::Err(ServiceError::Wire(format!(
                "sequence {seq} already applied but its outcome aged out of the dedup window"
            ))),
        };
    }
    Reply::Err(ServiceError::Wire(format!(
        "sequence gap: got {seq}, expected {}",
        state.next_seq
    )))
}

/// One request opcode's live stage histograms.
#[derive(Debug, Default)]
struct OpTimers {
    decode: LatencyHistogram,
    handle: LatencyHistogram,
    write: LatencyHistogram,
}

/// The handling stage a sample belongs to.
#[derive(Debug, Clone, Copy)]
enum WireStage {
    Decode,
    Handle,
    Write,
}

/// Per-opcode frame-handling timers, shared (`Arc`) by every
/// connection thread. Indexed directly by request opcode; opcodes
/// outside the table (unknown, hence un-dispatchable) go untimed.
#[derive(Debug, Default)]
struct ServerTimers {
    ops: [OpTimers; 16],
}

impl ServerTimers {
    /// Records one stage sample; `started` is `Some` iff timing is on.
    fn record(&self, opcode: u8, stage: WireStage, started: Option<Instant>) {
        let (Some(t0), Some(op)) = (started, self.ops.get(opcode as usize)) else {
            return;
        };
        let h = match stage {
            WireStage::Decode => &op.decode,
            WireStage::Handle => &op.handle,
            WireStage::Write => &op.write,
        };
        h.record_duration(t0.elapsed());
    }

    /// Appends the three stage histograms of every opcode with at
    /// least one sample, ascending by opcode.
    fn append_samples(&self, out: &mut Vec<Sample>) {
        for (i, op) in self.ops.iter().enumerate() {
            let stages = [
                ("decode", &op.decode),
                ("handle", &op.handle),
                ("write", &op.write),
            ];
            if stages.iter().all(|(_, h)| h.count() == 0) {
                continue;
            }
            for (stage, h) in stages {
                out.push(Sample::histogram(
                    format!("crowd_wire_stage_ns{{opcode=\"0x{i:02x}\",stage=\"{stage}\"}}"),
                    "Wire server per-opcode frame handling time, ns.",
                    h.snapshot(),
                ));
            }
        }
    }
}

/// A running wire server; see the [module docs](self) for lifecycle.
#[derive(Debug)]
pub struct WireServer {
    local_addr: SocketAddr,
    closing: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds `addr` and starts accepting connections against
    /// `handle`'s service. Bind `127.0.0.1:0` to let the OS pick a
    /// port and read it back from [`WireServer::local_addr`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        handle: ServiceHandle,
        config: WireConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let closing = Arc::new(AtomicBool::new(false));
        let timers = config.metrics.then(|| Arc::new(ServerTimers::default()));
        let sessions = Arc::new(SessionTable::default());
        let acceptor = {
            let closing = Arc::clone(&closing);
            std::thread::Builder::new()
                .name("wire-acceptor".into())
                .spawn(move || {
                    accept_loop(
                        listener, local_addr, handle, config, closing, timers, sessions,
                    )
                })?
        };
        Ok(Self {
            local_addr,
            closing,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the OS-assigned port when bound to
    /// port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, waits for live connections to finish their
    /// in-flight request, and joins every server thread. Does **not**
    /// shut the assessment service down — the service outlives its
    /// transports; use a `Shutdown` request (or the handle) for that.
    pub fn close(&mut self) {
        self.closing.store(true, Ordering::SeqCst);
        wake_acceptor(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor's panic would already have detached every
            // connection thread; nothing better to do than carry on.
            let _ = acceptor.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.close();
    }
}

/// Unblocks a `TcpListener::accept` by connecting to it — the accept
/// loop re-checks its closing flag on every wakeup.
fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// Decrements the live-connection count when a connection thread
/// exits, however it exits.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    local_addr: SocketAddr,
    handle: ServiceHandle,
    config: WireConfig,
    closing: Arc<AtomicBool>,
    timers: Option<Arc<ServerTimers>>,
    sessions: Arc<SessionTable>,
) {
    let live = Arc::new(AtomicUsize::new(0));
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    // 1-based accept-order ordinal — the connection coordinate the
    // fault plan's drop sites key on.
    let conn_ordinal = AtomicU64::new(0);
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            // Accept errors (EMFILE, aborted handshakes) are
            // per-connection, not fatal to the listener.
            Err(_) => {
                if closing.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if closing.load(Ordering::SeqCst) {
            // Likely the wakeup self-connect; either way, we no
            // longer serve new connections.
            break;
        }
        workers.retain(|h| !h.is_finished());
        if live.load(Ordering::SeqCst) >= config.max_connections {
            refuse_over_capacity(stream, &config);
            continue;
        }
        live.fetch_add(1, Ordering::SeqCst);
        let guard = ConnGuard(Arc::clone(&live));
        let handle = handle.clone();
        let config = config.clone();
        let closing = Arc::clone(&closing);
        let timers = timers.clone();
        let sessions = Arc::clone(&sessions);
        let conn_id = conn_ordinal.fetch_add(1, Ordering::SeqCst) + 1;
        let spawned = std::thread::Builder::new()
            .name("wire-conn".into())
            .spawn(move || {
                let _guard = guard; // moved in; decrements on any exit
                let _ = serve_connection(
                    stream,
                    local_addr,
                    &handle,
                    &config,
                    &closing,
                    timers.as_deref(),
                    &sessions,
                    conn_id,
                );
            });
        // A failed spawn (resource exhaustion) drops the stream —
        // and `guard` went with the closure either way.
        if let Ok(h) = spawned {
            workers.push(h);
        }
    }
    for h in workers {
        let _ = h.join();
    }
}

/// Answers one over-capacity connection with a typed error and closes
/// it, so the client sees *why* instead of a bare RST.
fn refuse_over_capacity(stream: TcpStream, config: &WireConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let mut w = BufWriter::new(stream);
    let (op, payload) = encode_reply(&Reply::Err(ServiceError::Io(
        "server at connection capacity".into(),
    )));
    let _ = write_frame(&mut w, op, &payload).and_then(|()| w.flush());
}

/// Serves one connection until EOF, a poisoned stream, a transport
/// error, or server shutdown. The `io::Result` is for `?` ergonomics
/// only — connection errors terminate the connection, never the
/// server.
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    stream: TcpStream,
    local_addr: SocketAddr,
    handle: &ServiceHandle,
    config: &WireConfig,
    closing: &AtomicBool,
    timers: Option<&ServerTimers>,
    sessions: &SessionTable,
    conn_id: u64,
) -> io::Result<()> {
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    stream.set_nodelay(true)?;
    let mut reader = FrameReader::new(stream.try_clone()?, config.max_frame_len);
    let mut writer = BufWriter::new(stream);
    // 1-based request-frame ordinal on this connection — the frame
    // coordinate the fault plan's drop sites key on.
    let mut frame_ordinal = 0u64;
    loop {
        match reader.read() {
            Ok(FrameEvent::Frame { opcode, payload }) => {
                frame_ordinal += 1;
                let t0 = timers.map(|_| Instant::now());
                let decoded = decode_request(opcode, &payload);
                if let Some(t) = timers {
                    t.record(opcode, WireStage::Decode, t0);
                }
                match decoded {
                    Ok(req) => {
                        let t0 = timers.map(|_| Instant::now());
                        let (reply, shut_down) = dispatch(handle, req, timers, sessions, config);
                        if let Some(t) = timers {
                            t.record(opcode, WireStage::Handle, t0);
                        }
                        // The ambiguous-outcome window: the request has
                        // been fully applied, the client will never hear
                        // about it. Exactly what the retrying client's
                        // sequence-id dedup must survive.
                        if let Some(fault) = config.fault.as_deref()
                            && fault.should_drop(conn_id, frame_ordinal)
                        {
                            return Ok(());
                        }
                        let t0 = timers.map(|_| Instant::now());
                        send_reply(&mut writer, &reply)?;
                        if let Some(t) = timers {
                            t.record(opcode, WireStage::Write, t0);
                        }
                        if shut_down {
                            closing.store(true, Ordering::SeqCst);
                            wake_acceptor(local_addr);
                        }
                    }
                    // The frame was cleanly delimited; decode failures
                    // are answered, not fatal.
                    Err(e) => {
                        send_reply(&mut writer, &Reply::Err(e.into()))?;
                    }
                }
            }
            Ok(FrameEvent::Idle) => {
                if closing.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Ok(FrameEvent::Eof) => return Ok(()),
            Err(FrameError::Wire(e)) => {
                let poisoned = e.poisons_stream();
                // Best-effort reply either way; on a poisoned stream
                // it is a parting diagnosis before the close.
                let _ = send_reply(&mut writer, &Reply::Err(e.into()));
                if poisoned {
                    return Ok(());
                }
            }
            Err(FrameError::Io(e)) => return Err(e),
        }
    }
}

fn send_reply(writer: &mut BufWriter<TcpStream>, reply: &Reply) -> io::Result<()> {
    let (op, payload) = encode_reply(reply);
    write_frame(writer, op, &payload)?;
    writer.flush()
}

/// Runs one request against the service. Infallible by construction:
/// every service error becomes an error reply. The flag is true when
/// the request was `Shutdown` (the server stops accepting after the
/// reply is sent).
fn dispatch(
    handle: &ServiceHandle,
    req: Request,
    timers: Option<&ServerTimers>,
    sessions: &SessionTable,
    config: &WireConfig,
) -> (Reply, bool) {
    let mut shut_down = false;
    let reply = match req {
        Request::IngestBatch(batch) => handle.ingest_batch(&batch).map(Reply::Ingest),
        Request::IngestBatchSeq {
            session,
            seq,
            batch,
        } => {
            return (
                dispatch_ingest_seq(handle, sessions, config.dedup_window, session, seq, &batch),
                false,
            );
        }
        Request::AssessWorker { worker, confidence } => handle
            .assess_worker(worker, confidence)
            .map(Reply::Assessment),
        Request::AssessWorkers {
            workers,
            confidence,
        } => handle
            .assess_workers(&workers, confidence)
            .map(Reply::Report),
        Request::Snapshot { confidence } => handle.snapshot(confidence).map(Reply::Report),
        Request::Drain => handle.drain().map(|()| Reply::Unit),
        Request::Shutdown => {
            shut_down = true;
            handle.shutdown().and_then(|_| scrape(handle, timers))
        }
        Request::Metrics => scrape(handle, timers),
    };
    (reply.unwrap_or_else(Reply::Err), shut_down)
}

/// The service's scrape with the server's own timings appended. It
/// keeps working after shutdown, so it also answers `Shutdown`.
fn scrape(handle: &ServiceHandle, timers: Option<&ServerTimers>) -> Result<Reply, ServiceError> {
    let m = handle.metrics()?;
    let mut samples = m.samples();
    if let Some(t) = timers {
        t.append_samples(&mut samples);
    }
    Ok(Reply::Metrics(MetricsReport {
        enabled: m.enabled,
        samples,
        events: m.events,
        events_dropped: m.events_dropped,
    }))
}
