//! The three workloads and one measured round of each.
//!
//! A round is fixed work: spawn a fresh 2-shard fleet under the default
//! `ServiceConfig` (only the estimator differs per workload), stream
//! the workload's responses in, take a cold report, then run the report
//! bursts. Every call into a layer goes through [`Tracer::span`], which
//! only records in the traced run.

use std::fmt::Debug;
use std::time::Instant;

use crowd_core::EstimatorConfig;
use crowd_data::{Response, WorkerId};
use crowd_service::{
    AssessmentService, IngestReceipt, ServiceConfig, ServiceError, ServiceHandle, ServiceStats,
    StageTimings,
};
use crowd_shard::ShardPlan;
use crowd_wire::{WireClient, WireConfig, WireServer};

use crate::gate::{CONFIDENCE, DrainPoints, Report};
use crate::inputs::{self, BurstShape, COMMUNITY, DenseShape, Inputs, TrickleShape};
use crate::measure::{median, ms_since};
use crate::trace::Tracer;

/// Shard threads per fleet (the benchmark host has two cores).
pub const SHARDS: usize = 2;
/// `trickle` issues one `assess_worker` per this many responses.
pub const ASSESS_EVERY: usize = 100;
/// Stream batch size of the wire-fed workloads.
pub const WIRE_BATCH: usize = 256;
/// `assess_worker_kary` requests between each report burst's ingest and
/// its report on `dense-kary`.
const DENSE_ASSESSES: usize = 2;
/// Fresh fleets the `dense-kary` stream is ingested into per round: its
/// stream is short next to the k-ary reports, so a round measures it
/// several times.
const DENSE_STREAM_PASSES: usize = 8;

/// Input sizes: the measured shapes, or tiny ones for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's shapes.
    Full,
    /// Seconds-scale shapes for the benchmark's own tests.
    Tiny,
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Request-at-a-time in-process ingest of a community fleet.
    Trickle,
    /// Small bursts into a large skewed fleet, each followed by a wire
    /// snapshot.
    Burst,
    /// A dense k-ary fleet ingested over the wire at batch 256.
    DenseKary,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::Trickle, Self::Burst, Self::DenseKary];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Trickle => "trickle",
            Self::Burst => "burst",
            Self::DenseKary => "dense-kary",
        }
    }

    /// Whether the workload is assessed with the k-ary estimator.
    pub fn is_kary(self) -> bool {
        self == Self::DenseKary
    }

    /// The estimator: fleet-capped for the community fleets, the
    /// uncapped paper estimator for the dense k-ary one.
    pub fn estimator(self) -> EstimatorConfig {
        match self {
            Self::Trickle | Self::Burst => EstimatorConfig::fleet(16),
            Self::DenseKary => EstimatorConfig::default(),
        }
    }

    /// Responses per client ingest call in the stream phase.
    pub fn stream_batch(self) -> usize {
        match self {
            Self::Trickle => 1,
            Self::Burst | Self::DenseKary => WIRE_BATCH,
        }
    }

    /// The workload's inputs for `seed`.
    pub fn inputs(self, seed: u64, scale: Scale) -> Inputs {
        let tiny = scale == Scale::Tiny;
        match self {
            Self::Trickle => inputs::trickle(
                seed,
                if tiny {
                    TrickleShape {
                        communities: 3,
                        tasks_per: 20,
                        bursts: 2,
                    }
                } else {
                    TrickleShape {
                        communities: 40,
                        tasks_per: 80,
                        bursts: 20,
                    }
                },
            ),
            Self::Burst => inputs::burst(
                seed,
                if tiny {
                    BurstShape {
                        communities: 6,
                        tasks_per: 20,
                        hot: 2,
                        bursts: 4,
                    }
                } else {
                    BurstShape {
                        communities: 200,
                        tasks_per: 50,
                        hot: 4,
                        bursts: 120,
                    }
                },
            ),
            Self::DenseKary => inputs::dense_kary(
                seed,
                if tiny {
                    DenseShape {
                        workers: 6,
                        tasks: 60,
                        density: 0.9,
                        bursts: 2,
                    }
                } else {
                    DenseShape {
                        workers: 24,
                        tasks: 2000,
                        density: 0.9,
                        bursts: 12,
                    }
                },
            ),
        }
    }
}

/// Operation accounting: every call into the service or the wire
/// client is attempted once; an `Err` counts as failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    /// Calls made.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
}

impl Ops {
    pub(crate) fn check<T, E: Debug>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("{what} failed: {e:?}");
                None
            }
        }
    }

    /// [`Ops::check`] for an assessment request: an estimation error
    /// (too little data on the worker yet) is the service's answer,
    /// not a failed operation.
    fn check_assess<T>(&mut self, what: &str, result: Result<T, ServiceError>) {
        match result {
            Err(ServiceError::Estimate(_)) => self.attempted += 1,
            other => {
                self.check(what, other);
            }
        }
    }
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Plan build, spawn, bind (and on `burst` the seed stream plus the
    /// cold report), in seconds.
    pub setup_s: f64,
    /// `ShardPlan::build_clustered`, in ms.
    pub plan_build_ms: f64,
    /// Stream responses ÷ time from the first ingest through the drain.
    pub ingest_rps: f64,
    /// The drain barrier closing the stream, in ms.
    pub drain_ms: f64,
    /// The first report after the stream, on a cold cache, in seconds.
    pub cold_report_s: f64,
    /// Assessment round trips, in ms.
    pub assess_ms: Vec<f64>,
    /// Report bursts: start of the burst's ingest to the report in hand
    /// (less the `dense-kary` assessments in between), in ms.
    pub fresh_ms: Vec<f64>,
    /// Drain-point reports for the gate.
    pub points: DrainPoints,
    /// The last report.
    pub final_report: Report,
    /// Per-shard deliveries the ingest receipts counted.
    pub routed: u64,
    /// Responses submitted.
    pub submitted: u64,
    /// Wall time of the whole round, in ms.
    pub wall_ms: f64,
    /// Traced run only: counters at the end of the round.
    pub stats: Option<ServiceStats>,
    /// Traced run only: merged stage histograms at the end of the round.
    pub stages: Option<StageTimings>,
    /// Traced run only: idle `drain` round trips over a fresh loopback
    /// connection, in µs.
    pub rtt_us: Vec<f64>,
}

impl Round {
    fn receipt(&mut self, receipt: Option<IngestReceipt>, submitted: usize) {
        self.submitted += submitted as u64;
        if let Some(r) = receipt {
            self.routed += r.routed as u64;
        }
    }

    fn report(&mut self, report: Option<Report>) {
        if let Some(r) = report {
            self.points.push(&r);
            self.final_report = r;
        }
    }
}

/// Builds the plan and spawns the fleet with `config`; returns the
/// service and the plan-build time in ms.
pub fn spawn_fleet(
    inputs: &Inputs,
    config: ServiceConfig,
    tracer: &mut Tracer,
) -> (AssessmentService, f64) {
    let t0 = Instant::now();
    let plan = tracer.span("shard.plan_build", 0, |_| {
        ShardPlan::build_clustered(&inputs.fleet, SHARDS)
    });
    let plan_ms = ms_since(t0);
    let service = tracer.span("service.spawn", 0, |_| {
        AssessmentService::spawn(plan, inputs.fleet.n_tasks(), inputs.fleet.arity(), config)
    });
    (service, plan_ms)
}

/// Binds a loopback server on `handle` and connects one client.
fn connect(handle: ServiceHandle, tracer: &mut Tracer) -> (WireServer, WireClient) {
    let server = tracer.span("wire.bind", 0, |_| {
        WireServer::bind("127.0.0.1:0", handle, WireConfig::default())
            .expect("binding a loopback port")
    });
    let addr = server.local_addr();
    let client = tracer.span("wire.connect", 0, |_| {
        WireClient::connect(addr).expect("connecting to the loopback server")
    });
    (server, client)
}

/// Idle `drain` round trips over a fresh loopback connection, in µs.
fn rtt_probe(handle: &ServiceHandle, tracer: &mut Tracer, ops: &mut Ops) -> Vec<f64> {
    let (mut server, mut client) = connect(handle.clone(), tracer);
    let mut out = Vec::with_capacity(200);
    for i in 0..200 {
        let t0 = Instant::now();
        ops.check("wire drain", tracer.span("wire.rtt", i, |_| client.drain()));
        out.push(ms_since(t0) * 1e3);
    }
    drop(client);
    server.close();
    out
}

/// Runs one round of `workload`. `batches` is the stream pre-cut at
/// [`WIRE_BATCH`] (unused by `trickle`).
pub fn run_round(
    workload: Workload,
    inputs: &Inputs,
    batches: &[Vec<Response>],
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Round {
    let t0 = Instant::now();
    let mut round = tracer.span("bench.round", 0, |tracer| match workload {
        Workload::Trickle => trickle_round(inputs, tracer, ops),
        Workload::Burst => burst_round(inputs, batches, tracer, ops),
        Workload::DenseKary => dense_round(inputs, batches, tracer, ops),
    });
    round.wall_ms = ms_since(t0);
    round
}

fn config(workload: Workload) -> ServiceConfig {
    ServiceConfig::default().with_estimator(workload.estimator())
}

/// Traced run only: counters, stage histograms and the idle round trip,
/// read after the measured phases.
fn observe(round: &mut Round, handle: &ServiceHandle, tracer: &mut Tracer, ops: &mut Ops) {
    if !tracer.enabled() {
        return;
    }
    round.stats = ops.check("stats", tracer.span("service.stats", 0, |_| handle.stats()));
    round.stages = ops
        .check(
            "metrics",
            tracer.span("service.metrics", 0, |_| handle.metrics()),
        )
        .map(|m| m.merged_stages());
    round.rtt_us = rtt_probe(handle, tracer, ops);
}

fn trickle_round(inputs: &Inputs, tracer: &mut Tracer, ops: &mut Ops) -> Round {
    let mut round = Round::default();
    let t0 = Instant::now();
    let (mut service, plan_ms) = tracer.span("bench.setup", 0, |tracer| {
        spawn_fleet(inputs, config(Workload::Trickle), tracer)
    });
    round.setup_s = t0.elapsed().as_secs_f64();
    round.plan_build_ms = plan_ms;
    let h = service.handle();
    let m = inputs.fleet.n_workers() as u32;

    tracer.span("bench.stream", 0, |tracer| {
        let t0 = Instant::now();
        for (i, r) in inputs.stream.iter().enumerate() {
            let rc = ops.check(
                "ingest",
                tracer.span("service.ingest", i as u64, |_| h.ingest(*r)),
            );
            round.receipt(rc, 1);
            if (i + 1) % ASSESS_EVERY == 0 {
                let w = WorkerId(((i + 1) / ASSESS_EVERY) as u32 * 37 % m);
                let t = Instant::now();
                ops.check_assess(
                    "assess",
                    tracer.span("service.assess", i as u64, |_| {
                        h.assess_worker(w, CONFIDENCE)
                    }),
                );
                round.assess_ms.push(ms_since(t));
            }
        }
        let t = Instant::now();
        ops.check("drain", tracer.span("service.drain", 0, |_| h.drain()));
        round.drain_ms = ms_since(t);
        round.ingest_rps = inputs.stream.len() as f64 / t0.elapsed().as_secs_f64();
    });

    let t = Instant::now();
    let cold = ops.check(
        "snapshot",
        tracer.span("service.snapshot", 0, |_| h.snapshot(CONFIDENCE)),
    );
    round.cold_report_s = t.elapsed().as_secs_f64();
    round.report(cold.map(Report::Binary));

    for (b, burst) in inputs.bursts.iter().enumerate() {
        let snap = tracer.span("bench.burst", b as u64, |tracer| {
            let t = Instant::now();
            for r in burst {
                let rc = ops.check(
                    "ingest",
                    tracer.span("service.ingest", b as u64, |_| h.ingest(*r)),
                );
                round.receipt(rc, 1);
            }
            let snap = ops.check(
                "snapshot",
                tracer.span("service.snapshot", b as u64, |_| h.snapshot(CONFIDENCE)),
            );
            round.fresh_ms.push(ms_since(t));
            snap
        });
        round.report(snap.map(Report::Binary));
    }
    observe(&mut round, &h, tracer, ops);
    ops.check(
        "shutdown",
        tracer.span("service.shutdown", 0, |_| service.shutdown()),
    );
    round
}

/// Pipelined wire ingest of `batches`, then a wire drain; returns the
/// seconds from the first send through the drain.
fn wire_stream(
    round: &mut Round,
    client: &mut WireClient,
    batches: &[Vec<Response>],
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> f64 {
    let t0 = Instant::now();
    let receipts = ops.check(
        "ingest_batches",
        tracer.span("wire.ingest_batches", 0, |_| client.ingest_batches(batches)),
    );
    for (rc, batch) in receipts.unwrap_or_default().into_iter().zip(batches) {
        let rc = ops.check("ingest batch", rc);
        round.receipt(rc, batch.len());
    }
    let t = Instant::now();
    ops.check("drain", tracer.span("wire.drain", 0, |_| client.drain()));
    round.drain_ms = ms_since(t);
    t0.elapsed().as_secs_f64()
}

fn burst_round(
    inputs: &Inputs,
    batches: &[Vec<Response>],
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Round {
    let mut round = Round::default();
    let t0 = Instant::now();
    let (mut service, mut server, mut client) = tracer.span("bench.setup", 0, |tracer| {
        let (service, plan_ms) = spawn_fleet(inputs, config(Workload::Burst), tracer);
        round.plan_build_ms = plan_ms;
        let (server, mut client) = connect(service.handle(), tracer);
        let secs = wire_stream(&mut round, &mut client, batches, tracer, ops);
        round.ingest_rps = inputs.stream.len() as f64 / secs;
        let t = Instant::now();
        let cold = ops.check(
            "snapshot",
            tracer.span("wire.snapshot", 0, |_| client.snapshot(CONFIDENCE)),
        );
        round.cold_report_s = t.elapsed().as_secs_f64();
        round.report(cold.map(Report::Binary));
        (service, server, client)
    });
    round.setup_s = t0.elapsed().as_secs_f64();

    for (b, burst) in inputs.bursts.iter().enumerate() {
        let req = b as u64;
        let snap = tracer.span("bench.burst", req, |tracer| {
            let t = Instant::now();
            let rc = ops.check(
                "ingest",
                tracer.span("wire.ingest_batch", req, |_| client.ingest_batch(burst)),
            );
            round.receipt(rc, burst.len());
            let snap = ops.check(
                "snapshot",
                tracer.span("wire.snapshot", req, |_| client.snapshot(CONFIDENCE)),
            );
            round.fresh_ms.push(ms_since(t));
            snap
        });
        round.report(snap.map(Report::Binary));
        // The burst's whole community, fresh from the report just taken.
        let c = burst[0].worker.index() / COMMUNITY;
        let community: Vec<WorkerId> = (c * COMMUNITY..(c + 1) * COMMUNITY)
            .map(|w| WorkerId(w as u32))
            .collect();
        let t = Instant::now();
        ops.check(
            "assess_workers",
            tracer.span("wire.assess_workers", req, |_| {
                client.assess_workers(&community, CONFIDENCE)
            }),
        );
        round.assess_ms.push(ms_since(t));
    }
    drop(client);
    server.close();
    observe(&mut round, &service.handle(), tracer, ops);
    ops.check(
        "shutdown",
        tracer.span("service.shutdown", 0, |_| service.shutdown()),
    );
    round
}

fn dense_round(
    inputs: &Inputs,
    batches: &[Vec<Response>],
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Round {
    let mut round = Round::default();
    let mut setups = Vec::with_capacity(DENSE_STREAM_PASSES);
    let mut stream_secs = 0.0;
    let mut fleet = None;
    // Every pass streams into a fresh fleet; the last one stays up for
    // the cold report and the bursts.
    for pass in 0..DENSE_STREAM_PASSES {
        let t0 = Instant::now();
        let (service, server, mut client) = tracer.span("bench.setup", pass as u64, |tracer| {
            let (service, plan_ms) = spawn_fleet(inputs, config(Workload::DenseKary), tracer);
            round.plan_build_ms = plan_ms;
            let (server, client) = connect(service.handle(), tracer);
            (service, server, client)
        });
        setups.push(t0.elapsed().as_secs_f64());
        stream_secs += tracer.span("bench.stream", pass as u64, |tracer| {
            wire_stream(&mut round, &mut client, batches, tracer, ops)
        });
        if let Some((mut service, mut server, client)) = fleet.replace((service, server, client)) {
            drop(client);
            server.close();
            ops.check(
                "shutdown",
                tracer.span("service.shutdown", 0, |_| service.shutdown()),
            );
        }
    }
    round.setup_s = median(&setups);
    round.ingest_rps = (DENSE_STREAM_PASSES * inputs.stream.len()) as f64 / stream_secs;
    let (mut service, mut server, mut client) = fleet.expect("at least one stream pass");
    let h = service.handle();
    let m = inputs.fleet.n_workers() as u32;

    let t = Instant::now();
    let cold = ops.check(
        "snapshot_kary",
        tracer.span("service.snapshot_kary", 0, |_| h.snapshot_kary(CONFIDENCE)),
    );
    round.cold_report_s = t.elapsed().as_secs_f64();
    round.report(cold.map(Report::Kary));

    for (b, burst) in inputs.bursts.iter().enumerate() {
        let req = b as u64;
        let snap = tracer.span("bench.burst", req, |tracer| {
            let t = Instant::now();
            let rc = ops.check(
                "ingest",
                tracer.span("wire.ingest_batch", req, |_| client.ingest_batch(burst)),
            );
            round.receipt(rc, burst.len());
            let ingest_ms = ms_since(t);
            // Workers the burst just dirtied, assessed before the report:
            // each is a full single-worker k-ary evaluation.
            for j in 0..DENSE_ASSESSES {
                let w = WorkerId(((b * DENSE_ASSESSES + j) as u32) % m);
                let t = Instant::now();
                ops.check_assess(
                    "assess_kary",
                    tracer.span("service.assess_kary", req, |_| {
                        h.assess_worker_kary(w, CONFIDENCE)
                    }),
                );
                round.assess_ms.push(ms_since(t));
            }
            let t = Instant::now();
            let snap = ops.check(
                "snapshot_kary",
                tracer.span("service.snapshot_kary", req, |_| {
                    h.snapshot_kary(CONFIDENCE)
                }),
            );
            round.fresh_ms.push(ingest_ms + ms_since(t));
            snap
        });
        round.report(snap.map(Report::Kary));
    }
    drop(client);
    server.close();
    observe(&mut round, &h, tracer, ops);
    ops.check(
        "shutdown",
        tracer.span("service.shutdown", 0, |_| service.shutdown()),
    );
    round
}
