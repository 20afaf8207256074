//! The thread-per-shard runtime; see the [crate docs](crate) for the
//! architecture and guarantees.

use std::ops::Deref;
use std::panic::{AssertUnwindSafe, catch_unwind, resume_unwind};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError, channel, sync_channel};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crowd_core::{
    Estimator, EstimatorConfig, KaryMWorkerEstimator, KaryWorkerAssessment, KaryWorkerReport,
    MWorkerEstimator, Report, ReportCache, WorkerAssessment, WorkerReport,
};
use crowd_data::{DataError, Response, StreamingIndex, WorkerId};
use crowd_obs::{EventJournal, EventKind};
use crowd_shard::{ShardPlan, merge_reports};

use crate::config::{BackpressurePolicy, ServiceConfig};
use crate::error::ServiceError;
use crate::fault::{CrashPoint, FaultPlan};
use crate::metrics::{ServiceMetrics, StageTimers, StageTimings};
use crate::stats::{BatchHistogram, ServiceStats, ShardStats};

/// What travels on a shard queue: the message plus its enqueue stamp.
/// The stamp is `None` when the fleet runs with metrics off. Taking it,
/// timing the batch apply and recording both into the stage
/// histograms is the *only* per-message ingest-path cost of the
/// instrumentation switch: a fixed handful of clock reads and relaxed
/// atomics, independent of fleet and substrate size. Substrate
/// maintenance is journaled only after evaluation messages (ingest
/// moves none of those counters), so reports stay bit-identical and
/// the cost stays flat as the fleet grows.
type Envelope = (Option<Instant>, ShardMsg);

/// Shared queue-depth gauge: the handle increments on enqueue, the
/// shard thread decrements on dequeue, and the high-water mark is
/// taken on the enqueue side.
#[derive(Debug, Default)]
struct QueueDepth {
    depth: AtomicUsize,
    high: AtomicUsize,
}

impl QueueDepth {
    fn on_push(&self) {
        let now = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.high.fetch_max(now, Ordering::Relaxed);
    }

    fn on_pop(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    fn high_water(&self) -> usize {
        self.high.load(Ordering::Relaxed)
    }
}

/// One message on a shard's bounded queue. Replies are sent
/// best-effort (`let _ =`): a caller that dropped its receiver —
/// e.g. during teardown — must never panic the shard thread.
enum ShardMsg {
    /// A contiguous group of responses subscribed to this shard.
    Ingest(Vec<Response>),
    /// Evaluate one worker or all of this shard's anchors, through
    /// the report cache of one estimator's lane; the job picks its
    /// lane and sends its own reply (see [`ServiceHandle::request`]).
    Assess(AssessJob),
    /// Report the shard's counters.
    Stats { reply: Sender<ShardStats> },
    /// FIFO barrier: reply once everything enqueued earlier has been
    /// processed.
    Drain { reply: Sender<()> },
    /// Test-only: park the shard until the gate sender drops, so
    /// backpressure tests can fill the bounded queue deterministically.
    #[cfg(test)]
    Stall(Receiver<()>),
    /// Test-only: panic the shard thread, so the dead-shard reporting
    /// paths ([`ServiceError::ShardPanicked`]) can be pinned by tests.
    #[cfg(test)]
    Panic,
}

/// An evaluation bound for one shard: given the shard's lanes, its
/// substrate and its anchors, it evaluates and replies.
type AssessJob = Box<dyn FnOnce(&mut Lanes, &StreamingIndex, &[WorkerId]) + Send>;

/// The receiving end of one shard's reply to an [`AssessJob`].
type Reply<T> = Receiver<Result<T, ServiceError>>;

/// One estimator's shard-resident state: the estimator and its
/// epoch-versioned report cache, keyed to the shard's `stream` —
/// drain-point snapshots re-evaluate only anchors dirtied since their
/// cached rows, bit-identically (see `crowd_core::cached`).
struct Lane<E: Estimator> {
    estimator: E,
    cache: ReportCache<E>,
}

impl<E: Estimator> Lane<E> {
    fn new(config: &EstimatorConfig) -> Self {
        Self {
            estimator: E::from_config(config.clone()),
            cache: ReportCache::new(),
        }
    }
}

/// A shard's lanes, one per estimator the service serves.
struct Lanes {
    binary: Lane<MWorkerEstimator>,
    kary: Lane<KaryMWorkerEstimator>,
}

/// An estimator the shard runtime serves: it knows its lane.
trait Served: Estimator + Sized + 'static {
    fn lane(lanes: &mut Lanes) -> &mut Lane<Self>;
}

impl Served for MWorkerEstimator {
    fn lane(lanes: &mut Lanes) -> &mut Lane<Self> {
        &mut lanes.binary
    }
}

impl Served for KaryMWorkerEstimator {
    fn lane(lanes: &mut Lanes) -> &mut Lane<Self> {
        &mut lanes.kary
    }
}

/// The state one shard thread owns.
struct ShardWorker {
    stream: StreamingIndex,
    lanes: Lanes,
    anchors: Vec<WorkerId>,
    /// `is_home[w]`: this shard evaluates `w`, so it is the one shard
    /// that counts `w`'s rejected responses (exact fleet totals).
    is_home: Vec<bool>,
    depth: Arc<QueueDepth>,
    stats: ShardStats,
    /// Stage timers + journal wiring; `None` when spawned with
    /// [`ServiceConfig::metrics`] off. Nothing behind this Option is
    /// ever consulted by evaluation — only timed around it.
    obs: Option<ShardObs>,
}

/// One shard thread's recording side: timers shared (`Arc`) with the
/// handle so scrapes never cross the shard queue, plus last-seen
/// substrate maintenance counters for delta-based journaling.
struct ShardObs {
    timers: Arc<StageTimers>,
    journal: Arc<EventJournal>,
    /// [`ServiceConfig::slow_op_threshold`], in nanoseconds.
    slow_ns: u64,
    prev_reanchors: usize,
    prev_rebuilds: usize,
    prev_full_refreshes: u64,
}

/// Which per-shard stage histogram a timed section lands in.
#[derive(Clone, Copy)]
enum Stage {
    BatchApply,
    DrainEval,
}

/// Per-shard supervision state that lives **outside** the
/// unwind boundary: the recovery sources (base checkpoint + WAL), the
/// authoritative fault-tolerance counters, and the armed crash points.
/// Everything a panic could corrupt lives in the discarded
/// [`ShardWorker`]; everything here is only mutated at well-defined
/// non-panicking points (see the field docs), which is what justifies
/// the `AssertUnwindSafe` in [`ShardRuntime::run`].
#[derive(Default)]
struct RecoveryGuard {
    /// The base: the substrate as of the last compaction
    /// ([`StreamingIndex::checkpoint`] bytes; the spawn-time
    /// checkpoint of the empty substrate seeds it).
    checkpoint: Vec<u8>,
    /// Responses the base holds — the compaction threshold.
    base_responses: usize,
    /// The persistent shard counters as of the base.
    stats_at_checkpoint: ShardStats,
    /// Write-ahead log: every ingest batch accepted since the base,
    /// moved in **before** it is applied (the shard applies it from
    /// here), so a crash mid-application replays the whole batch onto
    /// the restored base. Compacted into a new base once it holds at
    /// least [`crate::ServiceConfig::checkpoint_interval`] batches and
    /// at least `base_responses` responses; see
    /// [`RecoveryGuard::should_compact`].
    wal: Vec<Vec<Response>>,
    /// Responses across the batches in `wal`.
    wal_responses: usize,
    /// Monotone 1-based ingest-batch ordinal, across recoveries —
    /// the coordinate fault decisions key on. Incremented before the
    /// fault check so an injected crash cannot re-fire on replay.
    batch_ordinal: u64,
    recoveries: u64,
    checkpoints: u64,
    wal_replayed: u64,
    /// An [`CrashPoint::AtDrain`] fault armed by an earlier batch;
    /// cleared *before* the panic fires so recovery does not loop.
    armed_drain: bool,
    /// The [`CrashPoint::DuringReanchor`] twin.
    armed_assess: bool,
}

impl RecoveryGuard {
    /// Whether the log is due for compaction: it spans at least
    /// `interval` batches *and* at least as many responses as the
    /// base holds. The second condition makes each re-encode cost at
    /// most what was logged since the last one, so total encode work
    /// is linear in the responses ingested (the base at least doubles
    /// between compactions when every response is accepted), while a
    /// crash replays at most `max(interval − 1 batches, base)` logged
    /// responses.
    fn should_compact(&self, interval: usize) -> bool {
        self.wal.len() >= interval && self.wal_responses >= self.base_responses
    }

    /// Makes `worker`'s current state the new base and empties the
    /// log.
    fn compact(&mut self, worker: &mut ShardWorker) {
        self.checkpoint = worker.stream.checkpoint();
        self.base_responses = worker.stream.n_responses();
        self.checkpoints += 1;
        worker.stats.checkpoints = self.checkpoints;
        self.stats_at_checkpoint = worker.stats.clone();
        self.wal.clear();
        self.wal_responses = 0;
    }
}

/// The immutable spawn-time inputs of one shard, kept by the
/// supervisor so a crashed worker can be rebuilt from scratch.
struct ShardSeed {
    shard: usize,
    n_workers: usize,
    n_tasks: usize,
    arity: u16,
    estimator: EstimatorConfig,
    anchors: Vec<WorkerId>,
    is_home: Vec<bool>,
    depth: Arc<QueueDepth>,
    slow_ns: u64,
    timers: Option<Arc<StageTimers>>,
    journal: Option<Arc<EventJournal>>,
}

impl ShardSeed {
    /// A fresh worker in the exact state a newly spawned shard starts
    /// in: empty substrate, dormant views, cold caches.
    fn build(&self) -> ShardWorker {
        ShardWorker {
            stream: StreamingIndex::new(self.n_workers, self.n_tasks, self.arity),
            lanes: Lanes {
                binary: Lane::new(&self.estimator),
                kary: Lane::new(&self.estimator),
            },
            anchors: self.anchors.clone(),
            is_home: self.is_home.clone(),
            depth: Arc::clone(&self.depth),
            stats: ShardStats {
                shard: self.shard,
                ..ShardStats::default()
            },
            obs: self.timers.as_ref().map(|timers| ShardObs {
                timers: Arc::clone(timers),
                journal: Arc::clone(self.journal.as_ref().expect("timers imply journal")),
                slow_ns: self.slow_ns,
                prev_reanchors: 0,
                prev_rebuilds: 0,
                prev_full_refreshes: 0,
            }),
        }
    }
}

/// One shard's supervised thread body: runs the message loop inside
/// `catch_unwind`; on a panic, respawns the worker from the base
/// checkpoint, replays the WAL, and keeps serving the *same* queue —
/// callers blocked on the bounded channel never observe the crash
/// except as latency. Gives up (sets the dead flag and re-raises the
/// panic so `join()` reports it) when recovery is disabled
/// (`checkpoint_interval == 0`) or the budget is exhausted.
struct ShardRuntime {
    seed: ShardSeed,
    interval: usize,
    max_recoveries: u64,
    fault: Option<Arc<FaultPlan>>,
    dead: Arc<AtomicBool>,
}

impl ShardRuntime {
    fn run(self, rx: Receiver<Envelope>) -> ShardStats {
        let supervised = self.interval > 0;
        let mut worker = self.seed.build();
        let mut guard = RecoveryGuard::default();
        if supervised {
            guard.checkpoint = worker.stream.checkpoint();
            guard.stats_at_checkpoint = worker.stats.clone();
        }
        loop {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                worker.serve(&rx, &mut guard, self.interval, self.fault.as_deref())
            }));
            let payload = match outcome {
                // Queue disconnected: graceful shutdown, final stats.
                Ok(finals) => return finals,
                Err(payload) => payload,
            };
            let give_up = !supervised || guard.recoveries >= self.max_recoveries;
            if let Some(journal) = &self.seed.journal {
                journal.record(
                    EventKind::ShardPanic,
                    self.seed.shard as u32,
                    guard.batch_ordinal,
                    guard.recoveries,
                    if give_up { "dead" } else { "recovering" },
                );
            }
            if give_up {
                // Flag first, then unwind: by the time the receiver
                // drops (failing senders), the flag is already
                // readable, so callers see `ShardPanicked`, not a
                // generic unavailability.
                self.dead.store(true, Ordering::Release);
                resume_unwind(payload);
            }
            let t0 = Instant::now();
            // The recovery itself runs inside its own unwind guard: a
            // checkpoint that fails to restore (impossible for bytes we
            // produced, but this is the crash path — assume nothing)
            // must surface as a dead shard, not a thread abort.
            let rebuilt = catch_unwind(AssertUnwindSafe(|| self.recover(&guard)));
            match rebuilt {
                Ok((w, replayed)) => {
                    guard.recoveries += 1;
                    guard.wal_replayed += replayed;
                    worker = w;
                    worker.stats.recoveries = guard.recoveries;
                    worker.stats.checkpoints = guard.checkpoints;
                    worker.stats.wal_replayed = guard.wal_replayed;
                    if let Some(journal) = &self.seed.journal {
                        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        journal.record(
                            EventKind::ShardRecovered,
                            self.seed.shard as u32,
                            guard.recoveries,
                            ns,
                            "",
                        );
                    }
                }
                Err(_) => {
                    self.dead.store(true, Ordering::Release);
                    resume_unwind(payload);
                }
            }
        }
    }

    /// Rebuilds a worker from the base checkpoint and replays the WAL
    /// through the ordinary ingest path (no fault checks — the batch
    /// ordinals already passed them). Returns the worker and how many
    /// responses were replayed.
    fn recover(&self, guard: &RecoveryGuard) -> (ShardWorker, u64) {
        let mut w = self.seed.build();
        w.stream = StreamingIndex::restore(&guard.checkpoint)
            .expect("restoring a checkpoint this shard itself produced");
        w.stats = guard.stats_at_checkpoint.clone();
        let mut replayed = 0u64;
        for batch in &guard.wal {
            replayed += batch.len() as u64;
            w.apply_batch(batch);
        }
        (w, replayed)
    }
}

impl ShardWorker {
    /// Applies one ingest batch to the substrate with the standard
    /// accounting — shared verbatim by live ingest and WAL replay, so
    /// replayed state (counters included) is bit-identical to a
    /// never-crashed application of the same batches.
    fn apply_batch(&mut self, batch: &[Response]) {
        self.stats.batches += 1;
        for r in batch {
            match self.stream.record_response(*r) {
                Ok(()) => self.stats.responses += 1,
                // Every subscribing shard sees the same row state, so
                // they reject identically; count only at home to keep
                // the fleet total exact.
                Err(_) => {
                    if self.is_home[r.worker.index()] {
                        self.stats.rejected += 1;
                    }
                }
            }
        }
    }

    /// Fires an armed assessment-point crash: forces a view re-anchor
    /// first so the panic lands mid-evaluation-state-mutation, the
    /// worst case recovery must handle.
    fn fire_assess_crash(&mut self, guard: &mut RecoveryGuard) {
        if !guard.armed_assess {
            return;
        }
        guard.armed_assess = false;
        if let Some(&anchor) = self.anchors.first() {
            let _ = self.stream.view(anchor);
        }
        panic!("injected fault: crash during drain-point evaluation (re-anchor)");
    }

    fn serve(
        &mut self,
        rx: &Receiver<Envelope>,
        guard: &mut RecoveryGuard,
        interval: usize,
        fault: Option<&FaultPlan>,
    ) -> ShardStats {
        while let Ok((enqueued, msg)) = rx.recv() {
            self.depth.on_pop();
            if let (Some(obs), Some(t0)) = (&self.obs, enqueued) {
                obs.timers.queue_wait.record_duration(t0.elapsed());
            }
            // Ingest moves none of the maintenance counters (it
            // patches or invalidates grams, never re-anchors or
            // rebuilds), so only the other messages journal them.
            let maintains = !matches!(msg, ShardMsg::Ingest(_));
            match msg {
                ShardMsg::Ingest(batch) => {
                    let t0 = self.obs.as_ref().map(|_| Instant::now());
                    guard.batch_ordinal += 1;
                    let crash =
                        fault.and_then(|f| f.panic_for(self.stats.shard, guard.batch_ordinal));
                    // Write-ahead: the log takes the batch before any
                    // of it touches the substrate, and the shard
                    // applies it from the log entry.
                    let batch: &[Response] = if interval > 0 {
                        guard.wal_responses += batch.len();
                        guard.wal.push(batch);
                        guard.wal.last().expect("just logged")
                    } else {
                        &batch
                    };
                    match crash {
                        Some(CrashPoint::MidBatch) => {
                            // Half the batch lands, then the thread
                            // dies with the substrate mid-batch.
                            for r in &batch[..batch.len() / 2] {
                                let _ = self.stream.record_response(*r);
                            }
                            panic!(
                                "injected fault: mid-batch crash at batch {}",
                                guard.batch_ordinal
                            );
                        }
                        Some(CrashPoint::AtDrain) => guard.armed_drain = true,
                        Some(CrashPoint::DuringReanchor) => guard.armed_assess = true,
                        None => {}
                    }
                    self.apply_batch(batch);
                    if interval > 0 && guard.should_compact(interval) {
                        guard.compact(self);
                    }
                    self.observe_stage(Stage::BatchApply, t0);
                }
                ShardMsg::Assess(job) => {
                    self.fire_assess_crash(guard);
                    let t0 = self.obs.as_ref().map(|_| Instant::now());
                    self.stats.assess_requests += 1;
                    job(&mut self.lanes, &self.stream, &self.anchors);
                    self.observe_stage(Stage::DrainEval, t0);
                }
                ShardMsg::Stats { reply } => {
                    let _ = reply.send(self.snapshot_stats());
                }
                ShardMsg::Drain { reply } => {
                    if guard.armed_drain {
                        // The reply sender drops with the panic, so
                        // the caller's one pending drain fails typed
                        // (`ShardUnavailable`); a retried drain lands
                        // after recovery and succeeds.
                        guard.armed_drain = false;
                        panic!("injected fault: crash at drain barrier");
                    }
                    let _ = reply.send(());
                }
                #[cfg(test)]
                ShardMsg::Stall(gate) => {
                    // Blocks until the test drops its sender.
                    let _ = gate.recv();
                }
                #[cfg(test)]
                ShardMsg::Panic => panic!("injected shard panic (test)"),
            }
            if maintains {
                self.journal_maintenance();
            }
        }
        // Queue disconnected: the handle dropped its senders
        // (graceful shutdown). Everything enqueued before the drop
        // has been processed above.
        self.snapshot_stats()
    }

    /// Closes one timed stage: records the elapsed time into the
    /// stage histogram and journals a [`EventKind::SlowOp`] when it
    /// crossed the configured threshold. A no-op (and `started` is
    /// `None`) with metrics off.
    fn observe_stage(&self, stage: Stage, started: Option<Instant>) {
        let (Some(obs), Some(t0)) = (&self.obs, started) else {
            return;
        };
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (hist, name) = match stage {
            Stage::BatchApply => (&obs.timers.batch_apply, "batch_apply"),
            Stage::DrainEval => (&obs.timers.drain_eval, "drain_eval"),
        };
        hist.record(ns);
        if ns >= obs.slow_ns {
            obs.journal.record(
                EventKind::SlowOp,
                self.stats.shard as u32,
                ns,
                obs.slow_ns,
                name,
            );
        }
    }

    /// Journals substrate maintenance that happened while handling
    /// the last message, by counter delta: re-anchors, full gram
    /// rebuilds and wholesale cache refreshes (`a` = how many). Three
    /// counter loads per non-ingest message when metrics are on;
    /// nothing at all when off.
    fn journal_maintenance(&mut self) {
        let Some(obs) = &mut self.obs else { return };
        let shard = self.stats.shard as u32;
        let reanchors = self.stream.reanchor_count();
        if reanchors > obs.prev_reanchors {
            let delta = (reanchors - obs.prev_reanchors) as u64;
            obs.journal.record(EventKind::Reanchor, shard, delta, 0, "");
            obs.prev_reanchors = reanchors;
        }
        let rebuilds = self.stream.gram_rebuild_count();
        if rebuilds > obs.prev_rebuilds {
            let delta = (rebuilds - obs.prev_rebuilds) as u64;
            obs.journal
                .record(EventKind::GramRebuild, shard, delta, 0, "");
            obs.prev_rebuilds = rebuilds;
        }
        let refreshes = self.lanes.binary.cache.stats().full_refreshes
            + self.lanes.kary.cache.stats().full_refreshes;
        if refreshes > obs.prev_full_refreshes {
            let delta = refreshes - obs.prev_full_refreshes;
            obs.journal
                .record(EventKind::CacheFullRefresh, shard, delta, 0, "");
            obs.prev_full_refreshes = refreshes;
        }
    }

    fn snapshot_stats(&self) -> ShardStats {
        let mut s = self.stats.clone();
        s.reanchors = self.stream.reanchor_count();
        s.gram_patches = self.stream.gram_patch_count();
        s.gram_rebuilds = self.stream.gram_rebuild_count();
        s.queue_high_water = self.depth.high_water();
        let (b, k) = (
            self.lanes.binary.cache.stats(),
            self.lanes.kary.cache.stats(),
        );
        s.cache_hits = b.hits + k.hits;
        s.cache_misses = b.misses + k.misses;
        s.cache_full_refreshes = b.full_refreshes + k.full_refreshes;
        s
    }
}

/// Accounting for one [`ServiceHandle::ingest_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Per-shard response deliveries enqueued (a response subscribed
    /// by `k` shards counts `k` times).
    pub routed: usize,
    /// Shard-bound groups shed because a queue was full
    /// ([`BackpressurePolicy::Shed`] only).
    pub shed_batches: usize,
    /// Per-shard response deliveries lost with those groups.
    pub shed_responses: usize,
}

/// One shard that could not contribute to a degraded snapshot, and
/// why; see [`ServiceHandle::snapshot_degraded`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutage {
    /// The unavailable shard.
    pub shard: usize,
    /// The typed failure ([`ServiceError::ShardPanicked`] for a dead
    /// shard, [`ServiceError::ShardUnavailable`] for one mid-teardown,
    /// or the estimation error its evaluation returned).
    pub error: ServiceError,
}

/// A fleet snapshot that tolerates unavailable shards: the merged
/// report `R` (binary by default, [`KaryWorkerReport`] for
/// [`ServiceHandle::snapshot_kary_degraded`]) over every shard that
/// answered, plus a typed outage per shard that did not. `outages`
/// empty ⇔ the report is the same one the strict snapshot would have
/// returned.
#[derive(Debug, Clone)]
pub struct DegradedSnapshot<R = WorkerReport> {
    /// Merged assessments from the responsive shards, canonical
    /// worker order.
    pub report: R,
    /// The shards missing from `report`, in shard order.
    pub outages: Vec<ShardOutage>,
}

impl<R> DegradedSnapshot<R> {
    /// The strict reading: the report when every shard answered,
    /// otherwise the first outage's error.
    fn strict(self) -> Result<R, ServiceError> {
        match self.outages.into_iter().next() {
            Some(outage) => Err(outage.error),
            None => Ok(self.report),
        }
    }
}

/// The mutable routing state behind [`ServiceHandle::ingest_batch`]:
/// one lock serializes routing (batches must land on the FIFO queues
/// in submission order for drain points to be well-defined) and owns
/// the handle-side counters.
#[derive(Debug, Default)]
struct IngestState {
    /// Reusable per-shard grouping buffers.
    route_buf: Vec<Vec<Response>>,
    submitted: u64,
    dropped_batches: u64,
    dropped_responses: u64,
    batch_sizes: BatchHistogram,
}

/// Shard-thread ownership: join handles while live, the per-shard
/// final counters after shutdown (`None` for a shard whose thread
/// panicked — surfaced as [`ServiceError::ShardPanicked`], never
/// fabricated as zeros).
#[derive(Debug, Default)]
struct Lifecycle {
    handles: Vec<JoinHandle<ShardStats>>,
    final_stats: Option<Vec<Option<ShardStats>>>,
}

/// The handle-visible observability wiring: one stage-timer set per
/// shard (shared with the shard thread) and the fleet journal.
/// `None` when the fleet runs with [`ServiceConfig::metrics`] off.
#[derive(Debug)]
struct FleetObs {
    timers: Vec<Arc<StageTimers>>,
    journal: Arc<EventJournal>,
}

/// State shared by every [`ServiceHandle`] clone.
#[derive(Debug)]
struct Shared {
    plan: ShardPlan,
    n_tasks: usize,
    arity: u16,
    policy: BackpressurePolicy,
    depths: Vec<Arc<QueueDepth>>,
    /// `dead[s]`: shard `s`'s supervisor gave up (recovery disabled or
    /// budget exhausted) and let the panic kill the thread. Set by the
    /// shard thread *before* its receiver drops, so callers that see a
    /// disconnected queue can distinguish a crashed shard
    /// ([`ServiceError::ShardPanicked`]) from a mid-shutdown one
    /// ([`ServiceError::ShardUnavailable`]) — and ingest can refuse
    /// promptly instead of buffering into a queue nobody drains.
    dead: Vec<Arc<AtomicBool>>,
    /// `Some` while live; taken (dropped) at shutdown so the shard
    /// queues disconnect and the threads drain and exit.
    senders: RwLock<Option<Vec<SyncSender<Envelope>>>>,
    ingest: Mutex<IngestState>,
    lifecycle: Mutex<Lifecycle>,
    obs: Option<FleetObs>,
}

/// Ignore lock poisoning: a poisoned lock means some thread panicked
/// while holding it; the state it guards (routing buffers, counters,
/// join handles) stays structurally valid, and the panic itself is
/// surfaced through [`ServiceError::ShardPanicked`] /
/// [`ServiceError::ShardUnavailable`] — never as a second panic from
/// a public method.
fn lock_ignore_poison<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// A cloneable, thread-safe handle to a running [`AssessmentService`]
/// fleet: the dispatch seam the wire server fans its connection
/// threads into, and the one API every caller — owner included,
/// through `Deref` — uses.
///
/// Every method takes `&self`; clones share the same shard threads,
/// queues and counters. Ingest is serialized by an internal lock (the
/// FIFO drain-point contract needs a single routing order); assessment
/// and control requests from different threads proceed concurrently.
/// Unlike [`AssessmentService`], dropping a `ServiceHandle` does *not*
/// shut the fleet down.
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

// The message enum holds reply senders; keep its Debug noise out of
// the public type by formatting the handle fields only.
impl std::fmt::Debug for ShardMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Self::Ingest(b) => return write!(f, "Ingest({} responses)", b.len()),
            Self::Assess(_) => "Assess",
            Self::Stats { .. } => "Stats",
            Self::Drain { .. } => "Drain",
            #[cfg(test)]
            Self::Stall(_) => "Stall",
            #[cfg(test)]
            Self::Panic => "Panic",
        };
        f.write_str(name)
    }
}

impl ServiceHandle {
    /// The plan the service routes by.
    pub fn plan(&self) -> &ShardPlan {
        &self.shared.plan
    }

    /// Number of shard threads.
    pub fn n_shards(&self) -> usize {
        self.shared.plan.n_shards()
    }

    /// Task-id space the fleet was spawned over.
    pub fn n_tasks(&self) -> usize {
        self.shared.n_tasks
    }

    /// Label arity the fleet was spawned over.
    pub fn arity(&self) -> u16 {
        self.shared.arity
    }

    /// Enqueues one batch of responses: validates ids, groups the
    /// batch by subscribing shard ([`ShardPlan::closure_shards`]) and
    /// hands each shard one contiguous group. Full queues behave per
    /// the configured [`BackpressurePolicy`]. Ingest is asynchronous;
    /// substrate-level rejects (duplicates, bad labels) are counted in
    /// [`ShardStats::rejected`], not returned here.
    ///
    /// Worker ids are validated against [`ShardPlan::n_workers`] (as
    /// widths, no truncating casts) **before** any routing state is
    /// touched: a batch containing one out-of-range id fails whole —
    /// no shard queue sees any part of it, and no counter moves.
    pub fn ingest_batch(&self, batch: &[Response]) -> Result<IngestReceipt, ServiceError> {
        // Routing needs in-range worker ids; reject up front so a bad
        // id fails the call instead of poisoning per-shard accounting
        // or partially applying the batch's valid prefix.
        let m = self.shared.plan.n_workers();
        for r in batch {
            if r.worker.index() >= m {
                return Err(ServiceError::Data(DataError::UnknownId {
                    kind: "worker",
                    id: r.worker.0,
                }));
            }
        }
        // Hold the senders read-guard for the whole routing pass so a
        // concurrent shutdown (which takes the write side) cannot
        // disconnect the queues under a half-routed batch.
        let senders_guard = self
            .shared
            .senders
            .read()
            .unwrap_or_else(|e| e.into_inner());
        let Some(senders) = senders_guard.as_ref() else {
            return Err(ServiceError::ShuttingDown);
        };
        let mut ing = lock_ignore_poison(&self.shared.ingest);
        for r in batch {
            for &s in self.shared.plan.closure_shards(r.worker) {
                ing.route_buf[s as usize].push(*r);
            }
        }
        // A supervisor that exhausted its recovery budget marks its
        // shard dead; refuse the batch *now*, before any counter moves
        // or any queue sees a group — buffering into a queue nobody
        // will ever drain would surface the crash only when the queue
        // finally filled (as a misleading `QueueFull`), batches later.
        for s in 0..ing.route_buf.len() {
            if !ing.route_buf[s].is_empty() && self.shared.dead[s].load(Ordering::Acquire) {
                for buf in &mut ing.route_buf {
                    buf.clear();
                }
                return Err(ServiceError::ShardPanicked { shard: s });
            }
        }
        ing.batch_sizes.record(batch.len());
        ing.submitted += batch.len() as u64;
        let mut receipt = IngestReceipt::default();
        let mut rejected: Option<(usize, usize)> = None;
        for s in 0..ing.route_buf.len() {
            let group = std::mem::take(&mut ing.route_buf[s]);
            if group.is_empty() {
                continue;
            }
            let len = group.len();
            if let Some((_, dropped)) = &mut rejected {
                // A Reject already fired: drain the remaining groups
                // into the dropped count without sending.
                *dropped += len;
                continue;
            }
            self.shared.depths[s].on_push();
            let stamp = self.shared.obs.as_ref().map(|_| Instant::now());
            match self.shared.policy {
                BackpressurePolicy::Block => {
                    match senders[s].send((stamp, ShardMsg::Ingest(group))) {
                        Ok(()) => receipt.routed += len,
                        Err(_) => {
                            self.shared.depths[s].on_pop();
                            // Clear the still-pending groups so they
                            // cannot leak into the next call's routing.
                            for buf in &mut ing.route_buf {
                                buf.clear();
                            }
                            return Err(self.shard_down(s));
                        }
                    }
                }
                BackpressurePolicy::Shed | BackpressurePolicy::Reject => {
                    match senders[s].try_send((stamp, ShardMsg::Ingest(group))) {
                        Ok(()) => receipt.routed += len,
                        Err(TrySendError::Full(_)) => {
                            self.shared.depths[s].on_pop();
                            if self.shared.policy == BackpressurePolicy::Shed {
                                receipt.shed_batches += 1;
                                receipt.shed_responses += len;
                                ing.dropped_batches += 1;
                                ing.dropped_responses += len as u64;
                                if let Some(obs) = &self.shared.obs {
                                    obs.journal.record(
                                        EventKind::Shed,
                                        s as u32,
                                        len as u64,
                                        0,
                                        "queue_full",
                                    );
                                }
                            } else {
                                rejected = Some((s, len));
                            }
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            self.shared.depths[s].on_pop();
                            for buf in &mut ing.route_buf {
                                buf.clear();
                            }
                            return Err(self.shard_down(s));
                        }
                    }
                }
            }
        }
        if let Some((shard, dropped)) = rejected {
            ing.dropped_responses += dropped as u64;
            if let Some(obs) = &self.shared.obs {
                obs.journal.record(
                    EventKind::Reject,
                    shard as u32,
                    dropped as u64,
                    0,
                    "queue_full",
                );
            }
            return Err(ServiceError::QueueFull { shard, dropped });
        }
        Ok(receipt)
    }

    /// [`ServiceHandle::ingest_batch`] for a single response — the
    /// request-at-a-time floor the batching benchmark compares
    /// against.
    pub fn ingest(&self, response: Response) -> Result<IngestReceipt, ServiceError> {
        self.ingest_batch(std::slice::from_ref(&response))
    }

    /// Evaluates one worker (binary) on its home shard's maintained
    /// substrate. FIFO queues mean the evaluation observes every
    /// ingest enqueued before this call.
    pub fn assess_worker(
        &self,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<WorkerAssessment, ServiceError> {
        self.assess_worker_with::<MWorkerEstimator>(worker, confidence)
    }

    /// Evaluates one worker's k×k response-probability matrix on its
    /// home shard's maintained substrate.
    pub fn assess_worker_kary(
        &self,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<KaryWorkerAssessment, ServiceError> {
        self.assess_worker_with::<KaryMWorkerEstimator>(worker, confidence)
    }

    /// Evaluates an explicit set of workers (binary), each on its home
    /// shard's maintained substrate, returning one report in canonical
    /// worker order. Per-worker estimation failures land in the
    /// report's `failures` (the same partial-result contract as
    /// [`ServiceHandle::snapshot`]); runtime failures (shutdown, dead
    /// shard) fail the call.
    pub fn assess_workers(
        &self,
        workers: &[WorkerId],
        confidence: f64,
    ) -> Result<WorkerReport, ServiceError> {
        // Enqueue all requests before awaiting any reply so distinct
        // home shards evaluate concurrently.
        let mut pending = Vec::with_capacity(workers.len());
        for &worker in workers {
            pending.push((
                worker,
                self.enqueue_assess::<MWorkerEstimator>(worker, confidence)?,
            ));
        }
        let mut report = WorkerReport::default();
        for (worker, (shard, rx)) in pending {
            match self.await_reply(shard, rx) {
                Ok(a) => report.assessments.push(a),
                Err(ServiceError::Estimate(e)) => report.failures.push((worker, e)),
                Err(other) => return Err(other),
            }
        }
        Ok(merge_reports([report]))
    }

    /// Fleet snapshot (binary): every shard evaluates its anchors
    /// against its maintained substrate, and the per-shard reports
    /// merge in canonical worker order ([`merge_reports`]) —
    /// bit-identical to a serial
    /// [`crowd_core::IncrementalEvaluator::evaluate_all`] over the
    /// same responses. Requests are enqueued on all shards before any
    /// reply is awaited, so shards evaluate concurrently. Fails with
    /// the first unavailable shard's error.
    pub fn snapshot(&self, confidence: f64) -> Result<WorkerReport, ServiceError> {
        self.snapshot_degraded(confidence)?.strict()
    }

    /// Fleet snapshot (k-ary); see [`ServiceHandle::snapshot`].
    pub fn snapshot_kary(&self, confidence: f64) -> Result<KaryWorkerReport, ServiceError> {
        self.snapshot_kary_degraded(confidence)?.strict()
    }

    /// [`ServiceHandle::snapshot`] with graceful degradation: shards
    /// that cannot answer — dead after exhausting their recovery
    /// budget, mid-teardown, or failing estimation — become typed
    /// [`ShardOutage`]s instead of failing the whole call, and the
    /// report merges what the responsive shards returned. Workers
    /// homed on an out shard are simply absent from the report (their
    /// ids are recoverable from `plan().shards()[outage.shard]`).
    ///
    /// Fleet-wide failures still fail the call: fewer than 3 workers
    /// can never be assessed, and [`ServiceError::ShuttingDown`]
    /// means there is no fleet left to degrade.
    pub fn snapshot_degraded(&self, confidence: f64) -> Result<DegradedSnapshot, ServiceError> {
        self.snapshot_with::<MWorkerEstimator>(confidence)
    }

    /// The k-ary [`ServiceHandle::snapshot_degraded`].
    pub fn snapshot_kary_degraded(
        &self,
        confidence: f64,
    ) -> Result<DegradedSnapshot<KaryWorkerReport>, ServiceError> {
        self.snapshot_with::<KaryMWorkerEstimator>(confidence)
    }

    /// The body of both `assess_worker` spellings.
    fn assess_worker_with<E: Served>(
        &self,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<E::Assessment, ServiceError> {
        let (shard, rx) = self.enqueue_assess::<E>(worker, confidence)?;
        self.await_reply(shard, rx)
    }

    /// The body of all four snapshot spellings: one cached refresh
    /// per shard, merged over the shards that answered.
    fn snapshot_with<E: Served>(
        &self,
        confidence: f64,
    ) -> Result<DegradedSnapshot<Report<E::Assessment>>, ServiceError> {
        let m = self.shared.plan.n_workers();
        if m < 3 {
            return Err(ServiceError::Estimate(
                crowd_core::EstimateError::NotEnoughWorkers { got: m, need: 3 },
            ));
        }
        let mut pending = Vec::with_capacity(self.n_shards());
        for s in 0..self.n_shards() {
            let rx = self.request::<E, _>(s, move |lane, stream, anchors| {
                lane.cache
                    .refresh(&lane.estimator, stream, anchors, confidence)
            });
            if let Err(ServiceError::ShuttingDown) = rx {
                return Err(ServiceError::ShuttingDown);
            }
            pending.push((s, rx));
        }
        let mut parts = Vec::new();
        let mut outages = Vec::new();
        for (s, rx) in pending {
            match rx.and_then(|rx| self.await_reply(s, rx)) {
                Ok(part) => parts.push(part),
                Err(error) => outages.push(ShardOutage { shard: s, error }),
            }
        }
        Ok(DegradedSnapshot {
            report: merge_reports(parts),
            outages,
        })
    }

    /// Enqueues `worker`'s cached evaluation on its home shard's `E`
    /// lane; returns the shard and the reply receiver.
    fn enqueue_assess<E: Served>(
        &self,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<(usize, Reply<E::Assessment>), ServiceError> {
        let shard = self.home_shard_of(worker)?;
        let rx = self.request::<E, _>(shard, move |lane, stream, _| {
            lane.cache
                .assess(&lane.estimator, stream, worker, confidence)
        })?;
        Ok((shard, rx))
    }

    /// Enqueues `eval` on `shard`'s `E` lane as one
    /// [`ShardMsg::Assess`] job; the receiver yields its outcome.
    fn request<E: Served, T: Send + 'static>(
        &self,
        shard: usize,
        eval: impl FnOnce(&mut Lane<E>, &StreamingIndex, &[WorkerId]) -> crowd_core::Result<T>
        + Send
        + 'static,
    ) -> Result<Reply<T>, ServiceError> {
        let (reply, rx) = channel();
        let job: AssessJob = Box::new(move |lanes, stream, anchors| {
            let out = eval(E::lane(lanes), stream, anchors).map_err(ServiceError::Estimate);
            let _ = reply.send(out);
        });
        self.send_to(shard, ShardMsg::Assess(job))?;
        Ok(rx)
    }

    /// Awaits one shard's reply; a dropped reply means the shard went
    /// down mid-request.
    fn await_reply<T>(&self, shard: usize, rx: Reply<T>) -> Result<T, ServiceError> {
        rx.recv().map_err(|_| self.shard_down(shard))?
    }

    /// FIFO barrier: returns once every shard has processed
    /// everything enqueued before this call. Ingest may continue
    /// afterwards — draining is a checkpoint, not shutdown.
    pub fn drain(&self) -> Result<(), ServiceError> {
        let mut rxs = Vec::with_capacity(self.n_shards());
        for s in 0..self.n_shards() {
            let (reply, rx) = channel();
            self.send_to(s, ShardMsg::Drain { reply })?;
            rxs.push(rx);
        }
        for (s, rx) in rxs.into_iter().enumerate() {
            rx.recv().map_err(|_| self.shard_down(s))?;
        }
        Ok(())
    }

    /// A fleet-wide counters snapshot. Live services answer through
    /// the shard queues (so the numbers reflect a drain point); after
    /// [`ServiceHandle::shutdown`] the final counters are served from
    /// the joined threads. If any shard thread panicked, this returns
    /// [`ServiceError::ShardPanicked`] instead of fabricating zeroed
    /// counters for the dead shard; a call racing an in-flight
    /// shutdown returns [`ServiceError::ShuttingDown`]. No path
    /// through here can panic.
    pub fn stats(&self) -> Result<ServiceStats, ServiceError> {
        {
            let lc = lock_ignore_poison(&self.shared.lifecycle);
            if let Some(finals) = &lc.final_stats {
                return self.finals_to_stats(finals);
            }
            // Not shut down at the time of the check: fall through to
            // the live path. If a shutdown lands between here and the
            // sends below, `send_to` reports `ShuttingDown` — a typed
            // error, never a panic.
        }
        let mut rxs = Vec::with_capacity(self.n_shards());
        for s in 0..self.n_shards() {
            let (reply, rx) = channel();
            self.send_to(s, ShardMsg::Stats { reply })?;
            rxs.push(rx);
        }
        let mut shards = Vec::with_capacity(rxs.len());
        for (s, rx) in rxs.into_iter().enumerate() {
            shards.push(rx.recv().map_err(|_| self.shard_down(s))?);
        }
        Ok(self.with_handle_counters(shards))
    }

    /// A full metrics scrape: the [`ServiceHandle::stats`] counter
    /// snapshot (so both always agree), per-shard stage timing
    /// histograms, and the flight-recorder tail. The stage timers and
    /// journal are read directly from shared memory — only the
    /// counter snapshot rides the shard queues — so a scrape costs
    /// the fleet a handful of atomic loads on top of a `stats()`
    /// call, and keeps working after shutdown. With
    /// [`ServiceConfig::metrics`] off, `enabled` is `false`, the
    /// stage histograms are empty and the journal is silent.
    pub fn metrics(&self) -> Result<ServiceMetrics, ServiceError> {
        let stats = self.stats()?;
        let (enabled, stages, events, events_dropped) = match &self.shared.obs {
            Some(obs) => (
                true,
                obs.timers.iter().map(|t| t.snapshot()).collect(),
                obs.journal.snapshot(),
                obs.journal.dropped(),
            ),
            None => (
                false,
                vec![StageTimings::default(); self.n_shards()],
                Vec::new(),
                0,
            ),
        };
        Ok(ServiceMetrics {
            enabled,
            stats,
            stages,
            events,
            events_dropped,
        })
    }

    /// Graceful shutdown: closes every shard queue (all enqueued work
    /// is still processed), joins the threads and captures their
    /// final counters. Idempotent and race-safe across handle clones;
    /// after shutdown, ingest and assessment return
    /// [`ServiceError::ShuttingDown`] and [`ServiceHandle::stats`]
    /// serves the captured counters. If a shard thread panicked, the
    /// panic is surfaced as [`ServiceError::ShardPanicked`] — from
    /// this call and from every later `stats()`/`shutdown()` — instead
    /// of being swallowed into fabricated zeroed stats.
    pub fn shutdown(&self) -> Result<ServiceStats, ServiceError> {
        let mut lc = lock_ignore_poison(&self.shared.lifecycle);
        if lc.final_stats.is_none() {
            // Dropping the senders disconnects the queues; each shard
            // thread finishes everything already enqueued, then exits.
            drop(
                self.shared
                    .senders
                    .write()
                    .unwrap_or_else(|e| e.into_inner())
                    .take(),
            );
            let finals = lc
                .handles
                .drain(..)
                .enumerate()
                .map(|(s, h)| {
                    let joined = h.join().ok();
                    if joined.is_none()
                        && let Some(obs) = &self.shared.obs
                    {
                        obs.journal
                            .record(EventKind::ShardPanic, s as u32, 0, 0, "joined dead");
                    }
                    joined
                })
                .collect();
            lc.final_stats = Some(finals);
        }
        match &lc.final_stats {
            Some(finals) => self.finals_to_stats(finals),
            // Unreachable (set just above), but a typed error keeps
            // this path panic-free by construction.
            None => Err(ServiceError::ShuttingDown),
        }
    }

    /// Builds the post-shutdown stats view: the captured per-shard
    /// counters, or [`ServiceError::ShardPanicked`] for the first
    /// shard whose thread died.
    fn finals_to_stats(&self, finals: &[Option<ShardStats>]) -> Result<ServiceStats, ServiceError> {
        let mut shards = Vec::with_capacity(finals.len());
        for (s, f) in finals.iter().enumerate() {
            match f {
                Some(stats) => shards.push(stats.clone()),
                None => return Err(ServiceError::ShardPanicked { shard: s }),
            }
        }
        Ok(self.with_handle_counters(shards))
    }

    /// Attaches the handle-side counters to a per-shard set.
    fn with_handle_counters(&self, shards: Vec<ShardStats>) -> ServiceStats {
        let ing = lock_ignore_poison(&self.shared.ingest);
        ServiceStats {
            shards,
            submitted: ing.submitted,
            dropped_batches: ing.dropped_batches,
            dropped_responses: ing.dropped_responses,
            batch_sizes: ing.batch_sizes.clone(),
        }
    }

    fn home_shard_of(&self, worker: WorkerId) -> Result<usize, ServiceError> {
        if worker.index() >= self.shared.plan.n_workers() {
            return Err(ServiceError::Data(DataError::UnknownId {
                kind: "worker",
                id: worker.0,
            }));
        }
        Ok(self.shared.plan.shard_of(worker))
    }

    /// The typed error for a shard that stopped serving its queue:
    /// [`ServiceError::ShardPanicked`] when its supervisor declared it
    /// dead, otherwise [`ServiceError::ShardUnavailable`] (e.g. a
    /// shutdown racing this call).
    fn shard_down(&self, shard: usize) -> ServiceError {
        if self.shared.dead[shard].load(Ordering::Acquire) {
            ServiceError::ShardPanicked { shard }
        } else {
            ServiceError::ShardUnavailable { shard }
        }
    }

    /// Blocking send for assessment/control messages (backpressure
    /// policies govern ingest only).
    fn send_to(&self, shard: usize, msg: ShardMsg) -> Result<(), ServiceError> {
        if self.shared.dead[shard].load(Ordering::Acquire) {
            return Err(ServiceError::ShardPanicked { shard });
        }
        let guard = self
            .shared
            .senders
            .read()
            .unwrap_or_else(|e| e.into_inner());
        let Some(senders) = guard.as_ref() else {
            return Err(ServiceError::ShuttingDown);
        };
        self.shared.depths[shard].on_push();
        let stamp = self.shared.obs.as_ref().map(|_| Instant::now());
        senders[shard].send((stamp, msg)).map_err(|_| {
            self.shared.depths[shard].on_pop();
            self.shard_down(shard)
        })
    }
}

/// The thread-per-shard assessment runtime; see the
/// [crate docs](crate). This type uniquely owns the fleet (dropping it
/// shuts the shard threads down) and dereferences to its
/// [`ServiceHandle`], whose methods serve every request;
/// [`AssessmentService::handle`] yields cloneable handles for
/// concurrent callers such as wire connection threads.
///
/// # Example
///
/// ```
/// use crowd_service::{AssessmentService, ServiceConfig};
/// use crowd_shard::ShardPlan;
/// use crowd_sim::BinaryScenario;
///
/// let instance =
///     BinaryScenario::paper_default(6, 80, 0.9).generate(&mut crowd_sim::rng(11));
/// let data = instance.responses();
/// let plan = ShardPlan::build_clustered(data, 2);
/// let mut service =
///     AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
/// for batch in data.iter().collect::<Vec<_>>().chunks(16) {
///     service.ingest_batch(batch)?;
/// }
/// let report = service.snapshot(0.9)?;
/// assert_eq!(report.assessments.len() + report.failures.len(), 6);
/// service.shutdown()?;
/// # Ok::<(), crowd_service::ServiceError>(())
/// ```
#[derive(Debug)]
pub struct AssessmentService {
    handle: ServiceHandle,
}

impl AssessmentService {
    /// Spawns one shard thread per plan shard, each owning a fresh
    /// [`StreamingIndex`] over the global
    /// `plan.n_workers() × n_tasks` id space (rows materialize only
    /// for responses routed to the shard, i.e. its closure).
    pub fn spawn(plan: ShardPlan, n_tasks: usize, arity: u16, config: ServiceConfig) -> Self {
        let n_shards = plan.n_shards();
        let m = plan.n_workers();
        let capacity = config.queue_capacity.max(1);
        let mut senders = Vec::with_capacity(n_shards);
        let mut handles = Vec::with_capacity(n_shards);
        let mut depths = Vec::with_capacity(n_shards);
        let fleet_obs = config.metrics.then(|| FleetObs {
            timers: (0..n_shards)
                .map(|_| Arc::new(StageTimers::default()))
                .collect(),
            journal: Arc::new(EventJournal::new(config.journal_capacity)),
        });
        let slow_ns = u64::try_from(config.slow_op_threshold.as_nanos()).unwrap_or(u64::MAX);
        let mut dead = Vec::with_capacity(n_shards);
        for (s, spec) in plan.shards().iter().enumerate() {
            let (tx, rx) = sync_channel::<Envelope>(capacity);
            let depth = Arc::new(QueueDepth::default());
            let dead_flag = Arc::new(AtomicBool::new(false));
            let runtime = ShardRuntime {
                seed: ShardSeed {
                    shard: s,
                    n_workers: m,
                    n_tasks,
                    arity,
                    estimator: config.estimator.clone(),
                    anchors: spec.anchors.clone(),
                    is_home: (0..m)
                        .map(|w| plan.shard_of(WorkerId(w as u32)) == s)
                        .collect(),
                    depth: Arc::clone(&depth),
                    slow_ns,
                    timers: fleet_obs.as_ref().map(|o| Arc::clone(&o.timers[s])),
                    journal: fleet_obs.as_ref().map(|o| Arc::clone(&o.journal)),
                },
                interval: config.checkpoint_interval,
                max_recoveries: config.max_recoveries,
                fault: config.fault.clone(),
                dead: Arc::clone(&dead_flag),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("crowd-shard-{s}"))
                    .spawn(move || runtime.run(rx))
                    .expect("spawning a shard thread"),
            );
            senders.push(tx);
            depths.push(depth);
            dead.push(dead_flag);
        }
        Self {
            handle: ServiceHandle {
                shared: Arc::new(Shared {
                    plan,
                    n_tasks,
                    arity,
                    policy: config.policy,
                    depths,
                    dead,
                    senders: RwLock::new(Some(senders)),
                    ingest: Mutex::new(IngestState {
                        route_buf: vec![Vec::new(); n_shards],
                        ..IngestState::default()
                    }),
                    lifecycle: Mutex::new(Lifecycle {
                        handles,
                        final_stats: None,
                    }),
                    obs: fleet_obs,
                }),
            },
        }
    }

    /// A cloneable, `Send + Sync` handle sharing this fleet — the
    /// dispatch seam concurrent callers (e.g. wire connection
    /// threads) operate through. Handle clones never shut the fleet
    /// down on drop; this owner does.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Graceful shutdown of the owned fleet; see
    /// [`ServiceHandle::shutdown`].
    pub fn shutdown(&mut self) -> Result<ServiceStats, ServiceError> {
        self.handle.shutdown()
    }
}

impl Deref for AssessmentService {
    type Target = ServiceHandle;

    /// Every request goes through the owned fleet's handle.
    fn deref(&self) -> &ServiceHandle {
        &self.handle
    }
}

impl Drop for AssessmentService {
    /// Dropping the owner shuts the fleet down gracefully (queues
    /// close, threads drain and join) so tests and callers cannot
    /// leak detached shard threads. A shard panic surfaced here is
    /// already reported through the typed shutdown/stats paths; Drop
    /// must not double-panic.
    fn drop(&mut self) {
        let _ = self.handle.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disjoint task neighbourhoods (workers 0–2 on tasks 0–11,
    /// workers 3–5 on tasks 12–23), so the two clustered shards have
    /// disjoint closures and every response subscribes to exactly one
    /// shard — the deterministic substrate the backpressure tests
    /// need.
    fn small_fleet() -> (crowd_data::ResponseMatrix, ShardPlan) {
        use crowd_data::{Label, ResponseMatrixBuilder, TaskId};
        let mut b = ResponseMatrixBuilder::new(6, 24, 2);
        for w in 0..3u32 {
            for t in 0..12u32 {
                b.push(WorkerId(w), TaskId(t), Label(((w + t) % 2) as u16))
                    .unwrap();
            }
        }
        for w in 3..6u32 {
            for t in 12..24u32 {
                b.push(WorkerId(w), TaskId(t), Label((w % 2) as u16))
                    .unwrap();
            }
        }
        let data = b.build().unwrap();
        let plan = ShardPlan::build_clustered(&data, 2);
        (data, plan)
    }

    fn send_raw(svc: &AssessmentService, s: usize, msg: ShardMsg) {
        svc.handle.shared.depths[s].on_push();
        svc.handle.shared.senders.read().unwrap().as_ref().unwrap()[s]
            .send((None, msg))
            .unwrap();
    }

    /// Parks shard `s` and returns the gate; dropping the gate
    /// releases the shard. While parked the shard consumes exactly
    /// the Stall message, so `queue_capacity` further messages fill
    /// the queue deterministically.
    fn stall(svc: &AssessmentService, s: usize) -> Sender<()> {
        let (gate, gate_rx) = channel();
        send_raw(svc, s, ShardMsg::Stall(gate_rx));
        // Wait until the shard has actually dequeued the stall
        // message, so the whole queue capacity is ours to fill.
        while svc.handle.shared.depths[s].depth.load(Ordering::Relaxed) != 0 {
            std::thread::yield_now();
        }
        gate
    }

    #[test]
    fn shed_policy_drops_with_accounting() {
        let (data, plan) = small_fleet();
        let svc = AssessmentService::spawn(
            plan,
            data.n_tasks(),
            data.arity(),
            ServiceConfig::default()
                .with_queue_capacity(1)
                .with_policy(BackpressurePolicy::Shed),
        );
        let all: Vec<Response> = data.iter().collect();
        let home0: Vec<Response> = all
            .iter()
            .filter(|r| svc.plan().closure_shards(r.worker) == [0])
            .take(4)
            .copied()
            .collect();
        assert!(home0.len() >= 2, "need shard-0-only responses");
        let gate = stall(&svc, 0);
        // First batch occupies the single queue slot...
        let first = svc.ingest_batch(&home0[..1]).unwrap();
        assert_eq!((first.routed, first.shed_batches), (1, 0));
        // ...the second is shed, with accounting on receipt and stats.
        let second = svc.ingest_batch(&home0[1..2]).unwrap();
        assert_eq!(second.routed, 0);
        assert_eq!((second.shed_batches, second.shed_responses), (1, 1));
        drop(gate);
        svc.drain().unwrap();
        let stats = svc.stats().unwrap();
        assert_eq!(stats.dropped_batches, 1);
        assert_eq!(stats.dropped_responses, 1);
        assert_eq!(stats.submitted, 2);
        assert!(stats.max_queue_high_water() >= 1);
        // The shard recorded only the delivered response.
        assert_eq!(stats.shards[0].responses, 1);
    }

    #[test]
    fn reject_policy_fails_with_queue_full() {
        let (data, plan) = small_fleet();
        let svc = AssessmentService::spawn(
            plan,
            data.n_tasks(),
            data.arity(),
            ServiceConfig::default()
                .with_queue_capacity(1)
                .with_policy(BackpressurePolicy::Reject),
        );
        let all: Vec<Response> = data.iter().collect();
        let home0: Vec<Response> = all
            .iter()
            .filter(|r| svc.plan().closure_shards(r.worker) == [0])
            .take(2)
            .copied()
            .collect();
        let gate = stall(&svc, 0);
        svc.ingest_batch(&home0[..1]).unwrap();
        match svc.ingest_batch(&home0[1..2]) {
            Err(ServiceError::QueueFull {
                shard: 0,
                dropped: 1,
            }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        drop(gate);
        svc.drain().unwrap();
        let stats = svc.stats().unwrap();
        assert_eq!(stats.dropped_responses, 1);
        assert_eq!(stats.shards[0].responses, 1);
    }

    #[test]
    fn block_policy_waits_out_a_full_queue() {
        let (data, plan) = small_fleet();
        let svc = AssessmentService::spawn(
            plan,
            data.n_tasks(),
            data.arity(),
            ServiceConfig::default().with_queue_capacity(1),
        );
        let all: Vec<Response> = data.iter().collect();
        let gate = stall(&svc, 0);
        // Release the gate shortly after; the blocked send below must
        // then complete instead of erroring or dropping.
        let release = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(gate);
        });
        let mut routed = 0;
        for chunk in all.chunks(8) {
            routed += svc.ingest_batch(chunk).unwrap().routed;
        }
        release.join().unwrap();
        svc.drain().unwrap();
        let stats = svc.stats().unwrap();
        assert_eq!(stats.dropped_batches, 0);
        assert_eq!(
            stats.shards.iter().map(|s| s.responses).sum::<u64>(),
            routed as u64
        );
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let (data, plan) = small_fleet();
        let mut svc =
            AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
        let all: Vec<Response> = data.iter().collect();
        let mut routed = 0;
        for chunk in all.chunks(16) {
            routed += svc.ingest_batch(chunk).unwrap().routed;
        }
        // Shutdown with ingests possibly still queued: all of them
        // must be processed before the threads exit.
        let final_stats = svc.shutdown().unwrap();
        assert_eq!(
            final_stats.shards.iter().map(|s| s.responses).sum::<u64>(),
            routed as u64
        );
        assert_eq!(final_stats.total_rejected(), 0);
        // Idempotent, and post-shutdown calls fail cleanly.
        let again = svc.shutdown().unwrap();
        assert_eq!(again.shards, final_stats.shards);
        assert!(matches!(
            svc.ingest(all[0]),
            Err(ServiceError::ShuttingDown)
        ));
        assert!(matches!(
            svc.assess_worker(WorkerId(0), 0.9),
            Err(ServiceError::ShuttingDown)
        ));
        assert!(matches!(svc.snapshot(0.9), Err(ServiceError::ShuttingDown)));
        assert!(svc.stats().is_ok(), "stats served from captured finals");
    }

    /// Regression (PR 7): a dead shard thread must surface as
    /// [`ServiceError::ShardPanicked`] from `shutdown()` and `stats()`
    /// — never as silently fabricated zeroed counters. Supervision is
    /// disabled (`checkpoint_interval == 0`) to pin the unrecovered
    /// path.
    #[test]
    fn shard_panic_is_reported_not_swallowed() {
        let (data, plan) = small_fleet();
        let mut svc = AssessmentService::spawn(
            plan,
            data.n_tasks(),
            data.arity(),
            ServiceConfig::default().with_checkpoint_interval(0),
        );
        let all: Vec<Response> = data.iter().collect();
        for chunk in all.chunks(16) {
            svc.ingest_batch(chunk).unwrap();
        }
        send_raw(&svc, 1, ShardMsg::Panic);
        match svc.shutdown() {
            Err(ServiceError::ShardPanicked { shard: 1 }) => {}
            other => panic!("expected ShardPanicked for shard 1, got {other:?}"),
        }
        // The panic stays visible on every later stats()/shutdown().
        assert!(matches!(
            svc.stats(),
            Err(ServiceError::ShardPanicked { shard: 1 })
        ));
        assert!(matches!(
            svc.shutdown(),
            Err(ServiceError::ShardPanicked { shard: 1 })
        ));
    }

    /// With supervision on (the default), an injected panic is
    /// recovered transparently: the fleet keeps serving, the final
    /// counters match a clean run, and the recovery is counted.
    #[test]
    fn injected_panic_recovers_by_default() {
        let (data, plan) = small_fleet();
        let mut svc = AssessmentService::spawn(
            plan,
            data.n_tasks(),
            data.arity(),
            ServiceConfig::default().with_checkpoint_interval(4),
        );
        let all: Vec<Response> = data.iter().collect();
        let mut routed = 0;
        for chunk in all.chunks(8) {
            routed += svc.ingest_batch(chunk).unwrap().routed;
        }
        send_raw(&svc, 1, ShardMsg::Panic);
        // The crash is invisible to callers: further ingest works and
        // the drain barrier waits out the recovery.
        for chunk in all.chunks(8).take(1) {
            // Re-ingest one chunk's worth of duplicates: rejected by
            // the substrate, but they exercise the recovered queue.
            svc.ingest_batch(chunk).unwrap();
        }
        svc.drain().unwrap();
        let stats = svc.stats().unwrap();
        assert_eq!(stats.total_recoveries(), 1, "exactly one respawn");
        assert!(stats.total_checkpoints() >= 1, "log compaction ran");
        assert_eq!(
            stats.shards.iter().map(|s| s.responses).sum::<u64>(),
            routed as u64,
            "WAL replay restored every pre-crash response exactly once"
        );
        svc.shutdown().unwrap();
    }

    /// Amortized compaction: at request-at-a-time ingest a shard
    /// re-encodes its substrate `O(log responses)` times rather than
    /// once every `checkpoint_interval` batches, and a crash still
    /// replays at most the larger of `interval` batches and the base.
    #[test]
    fn compaction_is_amortized_at_batch_one() {
        let data = crowd_sim::BinaryScenario::paper_default(12, 250, 0.8)
            .generate(&mut crowd_sim::rng(5))
            .responses()
            .clone();
        let plan = ShardPlan::build_clustered(&data, 2);
        let mut svc = AssessmentService::spawn(
            plan,
            data.n_tasks(),
            data.arity(),
            ServiceConfig::default().with_checkpoint_interval(4),
        );
        let all: Vec<Response> = data.iter().collect();
        assert!(all.len() >= 2000, "only {} responses", all.len());
        for &r in &all {
            svc.ingest(r).unwrap();
        }
        svc.drain().unwrap();
        let before = svc.stats().unwrap();
        for s in &before.shards {
            let bound = (s.responses as f64).log2().ceil() as u64 + 2;
            assert!(
                (1..=bound).contains(&s.checkpoints),
                "shard {}: {} checkpoints for {} responses (bound {bound})",
                s.shard,
                s.checkpoints,
                s.responses
            );
        }
        for s in 0..svc.n_shards() {
            send_raw(&svc, s, ShardMsg::Panic);
        }
        svc.drain().unwrap();
        let after = svc.stats().unwrap();
        for (b, a) in before.shards.iter().zip(&after.shards) {
            assert_eq!(a.recoveries, 1);
            assert_eq!(
                a.responses, b.responses,
                "replay restored every response once"
            );
            // No response was rejected, so the base holds exactly the
            // responses that were not replayed.
            let base = a.responses - a.wal_replayed;
            assert!(
                a.wal_replayed <= base.max(4),
                "shard {} replayed {} responses onto a base of {base}",
                a.shard,
                a.wal_replayed
            );
        }
        svc.shutdown().unwrap();
    }

    /// When the recovery budget is exhausted the shard dies for real:
    /// the *next* ingest routed to it fails promptly with
    /// [`ServiceError::ShardPanicked`] — not by buffering into a queue
    /// nobody drains until `QueueFull` lies about the cause.
    #[test]
    fn exhausted_recoveries_fail_ingest_promptly() {
        let (data, plan) = small_fleet();
        let mut svc = AssessmentService::spawn(
            plan,
            data.n_tasks(),
            data.arity(),
            ServiceConfig::default()
                .with_checkpoint_interval(4)
                .with_max_recoveries(1),
        );
        let all: Vec<Response> = data.iter().collect();
        for chunk in all.chunks(8) {
            svc.ingest_batch(chunk).unwrap();
        }
        send_raw(&svc, 0, ShardMsg::Panic); // recovered (budget 1)
        svc.drain().unwrap();
        send_raw(&svc, 0, ShardMsg::Panic); // budget exhausted: dies
        // Wait until the supervisor has marked the shard dead (the
        // panic propagates asynchronously on the shard thread).
        while !svc.handle.shared.dead[0].load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let home0: Vec<Response> = all
            .iter()
            .filter(|r| svc.plan().closure_shards(r.worker) == [0])
            .take(1)
            .copied()
            .collect();
        match svc.ingest_batch(&home0) {
            Err(ServiceError::ShardPanicked { shard: 0 }) => {}
            other => panic!("expected prompt ShardPanicked, got {other:?}"),
        }
        let stats = svc.stats();
        assert!(
            matches!(stats, Err(ServiceError::ShardPanicked { shard: 0 })),
            "stats reports the dead shard: {stats:?}"
        );
        // Degraded snapshot still serves the surviving shard.
        let degraded = svc.snapshot_degraded(0.9).unwrap();
        assert_eq!(degraded.outages.len(), 1);
        assert_eq!(degraded.outages[0].shard, 0);
        assert!(matches!(
            degraded.outages[0].error,
            ServiceError::ShardPanicked { shard: 0 }
        ));
        assert!(
            degraded.report.assessments.len() + degraded.report.failures.len() > 0,
            "shard 1's anchors were still evaluated"
        );
        // The k-ary degraded snapshot rides the same body: one outage
        // for the dead shard, and every anchor of shard 1 still
        // reported, as an assessment or a failure.
        let kary = svc.snapshot_kary_degraded(0.9).unwrap();
        assert_eq!(kary.outages.len(), 1);
        assert!(matches!(
            kary.outages[0],
            ShardOutage {
                shard: 0,
                error: ServiceError::ShardPanicked { shard: 0 },
            }
        ));
        let reported: Vec<WorkerId> = kary
            .report
            .assessments
            .iter()
            .map(|a| a.worker)
            .chain(kary.report.failures.iter().map(|f| f.0))
            .collect();
        let shard1 = &svc.plan().shards()[1].anchors;
        assert!(!shard1.is_empty());
        for w in shard1 {
            assert!(reported.contains(w), "shard 1's anchor {w:?} is missing");
        }
        match svc.shutdown() {
            Err(ServiceError::ShardPanicked { shard: 0 }) => {}
            other => panic!("expected ShardPanicked at shutdown, got {other:?}"),
        }
    }

    /// A healthy fleet's degraded snapshot is outage-free and merges
    /// every shard — same anchors as the strict snapshot.
    #[test]
    fn degraded_snapshot_without_outages_matches_snapshot() {
        let (data, plan) = small_fleet();
        let mut svc =
            AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
        let all: Vec<Response> = data.iter().collect();
        for chunk in all.chunks(16) {
            svc.ingest_batch(chunk).unwrap();
        }
        let strict = svc.snapshot(0.9).unwrap();
        let degraded = svc.snapshot_degraded(0.9).unwrap();
        assert!(degraded.outages.is_empty());
        assert_eq!(degraded.report.assessments.len(), strict.assessments.len());
        for (a, b) in degraded.report.assessments.iter().zip(&strict.assessments) {
            assert_eq!(a, b, "bit-identical to the strict snapshot");
        }
        let kary = svc.snapshot_kary_degraded(0.9).unwrap();
        assert!(kary.outages.is_empty());
        svc.shutdown().unwrap();
    }

    /// Regression (PR 7): `stats()` racing (or following) a shutdown
    /// must return a typed result — the old implementation was
    /// panic-reachable through `.expect("post-shutdown stats are
    /// local")`.
    #[test]
    fn stats_never_panics_around_shutdown() {
        let (data, plan) = small_fleet();
        let svc =
            AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
        let handle = svc.handle();
        let racers: Vec<_> = (0..4)
            .map(|_| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    // Every outcome must be a typed Ok/Err, reached
                    // without panicking (the join below proves it).
                    for _ in 0..100 {
                        match h.stats() {
                            Ok(_)
                            | Err(ServiceError::ShuttingDown)
                            | Err(ServiceError::ShardUnavailable { .. }) => {}
                            Err(other) => panic!("unexpected stats error: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        let shut = {
            let h = handle.clone();
            std::thread::spawn(move || h.shutdown())
        };
        for r in racers {
            r.join().expect("stats() must never panic");
        }
        shut.join().expect("shutdown must not panic").unwrap();
        // Post-shutdown stats serve the captured finals.
        assert!(handle.stats().is_ok());
    }

    /// Regression (PR 7): an out-of-range worker id anywhere in a
    /// batch fails the whole call with `ServiceError::Data` before any
    /// shard queue sees a frame — the valid prefix must not be
    /// partially applied and no handle-side counter may move.
    #[test]
    fn mixed_batch_with_bad_id_is_rejected_atomically() {
        let (data, plan) = small_fleet();
        let svc =
            AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
        let mut batch: Vec<Response> = data.iter().take(5).collect();
        batch.push(Response {
            worker: WorkerId(6), // m == 6, so the last valid id is 5
            task: batch[0].task,
            label: batch[0].label,
        });
        match svc.ingest_batch(&batch) {
            Err(ServiceError::Data(DataError::UnknownId {
                kind: "worker",
                id: 6,
            })) => {}
            other => panic!("expected UnknownId for worker 6, got {other:?}"),
        }
        svc.drain().unwrap();
        let stats = svc.stats().unwrap();
        assert_eq!(stats.submitted, 0, "counters untouched by a failed batch");
        assert_eq!(stats.batch_sizes.total(), 0);
        assert_eq!(
            stats.shards.iter().map(|s| s.responses).sum::<u64>(),
            0,
            "no shard saw any part of the mixed batch"
        );
        // The same batch without the bad tail applies cleanly.
        let receipt = svc.ingest_batch(&batch[..5]).unwrap();
        assert_eq!(receipt.routed, 5);
    }

    /// Handle clones share one fleet: ingest through one is visible to
    /// snapshots through another, and dropping clones does not shut
    /// the fleet down.
    #[test]
    fn handles_share_the_fleet_across_threads() {
        let (data, plan) = small_fleet();
        let svc =
            AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
        let all: Vec<Response> = data.iter().collect();
        let workers: Vec<_> = all
            .chunks(all.len() / 3 + 1)
            .map(|chunk| {
                let h = svc.handle();
                let chunk = chunk.to_vec();
                std::thread::spawn(move || {
                    let mut routed = 0;
                    for piece in chunk.chunks(4) {
                        routed += h.ingest_batch(piece).unwrap().routed;
                    }
                    routed
                })
            })
            .collect();
        let routed: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(routed, all.len());
        let h = svc.handle();
        drop(h); // dropping a clone must not kill the fleet
        svc.drain().unwrap();
        let stats = svc.stats().unwrap();
        assert_eq!(
            stats.shards.iter().map(|s| s.responses).sum::<u64>(),
            all.len() as u64
        );
        assert_eq!(stats.submitted, all.len() as u64);
    }
}
