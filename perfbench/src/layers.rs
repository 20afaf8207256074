//! Single-layer replays for the traced run: each times one crate's
//! public functions on the workload's own data, outside the service.

use std::hint::black_box;
use std::time::Instant;

use crowd_core::{KaryMWorkerEstimator, KaryWorkerReport, MWorkerEstimator, WorkerReport};
use crowd_data::{PairBackend, Response, StreamingIndex, WorkerId};
use crowd_service::ServiceConfig;
use crowd_shard::{ShardPlan, merge_kary_reports, merge_reports};
use crowd_wire::Reply;
use crowd_wire::proto::{
    decode_reply, decode_request, encode_ingest_batch_payload, encode_reply, opcode,
};

use crate::gate::{CONFIDENCE, Report};
use crate::inputs::Inputs;
use crate::measure::{median, ms_since};
use crate::trace::Tracer;
use crate::workloads::{Ops, SHARDS, Workload, spawn_fleet};

/// Repetitions of the cheap replays (checkpoint, merge, report codec).
const REPS: usize = 5;

/// Per-layer numbers the replays measure.
#[derive(Debug, Clone, Default)]
pub struct LayerNumbers {
    /// `StreamingIndex::record_response` over shard 0's routed stream, ns.
    pub apply_ns_per_response: f64,
    /// `StreamingIndex::checkpoint` of that index, ms (median).
    pub checkpoint_encode_ms: f64,
    /// `StreamingIndex::restore` of those bytes, ms (median).
    pub checkpoint_restore_ms: f64,
    /// Checkpoint size, bytes.
    pub checkpoint_bytes: f64,
    /// `form_pairs_limited` for every anchor, ms.
    pub pairing_ms: f64,
    /// `MWorkerEstimator::evaluate_workers_on` over every anchor, ms.
    pub evaluate_ms: f64,
    /// `KaryMWorkerEstimator::evaluate_workers_streaming` over every anchor, ms.
    pub kary_evaluate_ms: f64,
    /// `merge_reports` of the final report's per-shard parts, ms (median).
    pub merge_ms: f64,
    /// Ingest payload encode per stream batch, µs (median).
    pub encode_ingest_us: f64,
    /// Ingest payload decode per stream batch, µs (median).
    pub decode_ingest_us: f64,
    /// Report reply encode, ms (median).
    pub encode_report_ms: f64,
    /// Report reply decode, ms (median).
    pub decode_report_ms: f64,
    /// Report reply size, bytes.
    pub report_bytes: f64,
}

/// Runs every single-layer replay on `inputs`.
pub fn replay(
    workload: Workload,
    inputs: &Inputs,
    final_report: &Report,
    tracer: &mut Tracer,
) -> LayerNumbers {
    let mut out = LayerNumbers::default();
    let config = workload.estimator();
    let fleet = &inputs.fleet;
    let (m, n, k) = (fleet.n_workers(), fleet.n_tasks(), fleet.arity());
    let plan = tracer.span("shard.plan_build", 0, |_| {
        ShardPlan::build_clustered(fleet, SHARDS)
    });

    // crowd_data: one shard's routed stream, then its checkpoint.
    let routed: Vec<Response> = inputs
        .admitted()
        .filter(|r| plan.closure_shards(r.worker).contains(&0))
        .copied()
        .collect();
    let mut shard_index = StreamingIndex::new_with(m, n, k, PairBackend::Sparse);
    let t0 = Instant::now();
    tracer.span("data.apply", 0, |_| {
        for r in &routed {
            shard_index
                .record_response(*r)
                .expect("generated responses are valid");
        }
    });
    out.apply_ns_per_response = ms_since(t0) * 1e6 / routed.len().max(1) as f64;
    let (mut encode, mut restore) = (Vec::new(), Vec::new());
    for rep in 0..REPS as u64 {
        let t0 = Instant::now();
        let bytes = tracer.span("data.checkpoint_encode", rep, |_| shard_index.checkpoint());
        encode.push(ms_since(t0));
        let t0 = Instant::now();
        let restored = tracer.span("data.checkpoint_restore", rep, |_| {
            StreamingIndex::restore(&bytes)
        });
        restore.push(ms_since(t0));
        black_box(restored.expect("restoring a checkpoint just taken"));
        out.checkpoint_bytes = bytes.len() as f64;
    }
    out.checkpoint_encode_ms = median(&encode);
    out.checkpoint_restore_ms = median(&restore);

    // crowd_core: pairing and evaluation over every anchor of an
    // unsharded sparse index holding every admitted response.
    let mut full = StreamingIndex::new_with(m, n, k, PairBackend::Sparse);
    for r in inputs.admitted() {
        full.record_response(*r)
            .expect("generated responses are valid");
    }
    let anchors: Vec<WorkerId> = (0..m as u32).map(WorkerId).collect();
    let t0 = Instant::now();
    tracer.span("core.pairing", 0, |_| {
        for &w in &anchors {
            black_box(crowd_core::pairing::form_pairs_limited(
                &full,
                w,
                config.pairing,
                config.min_pair_overlap,
                config.max_triples,
            ));
        }
    });
    out.pairing_ms = ms_since(t0);
    let t0 = Instant::now();
    let binary = tracer.span("core.evaluate", 0, |_| {
        MWorkerEstimator::new(config.clone()).evaluate_workers_on(&full, &anchors, CONFIDENCE)
    });
    out.evaluate_ms = ms_since(t0);
    let t0 = Instant::now();
    let kary = tracer.span("core.kary_evaluate", 0, |_| {
        KaryMWorkerEstimator::new(config.clone())
            .evaluate_workers_streaming(&full, &anchors, CONFIDENCE)
    });
    out.kary_evaluate_ms = ms_since(t0);
    black_box(kary.ok());

    // crowd_shard: merging the final report's per-shard parts.
    let mut merge = Vec::new();
    for rep in 0..REPS as u64 {
        let t0;
        match final_report {
            Report::Binary(r) => {
                let parts = split_binary(r, &plan);
                t0 = Instant::now();
                black_box(tracer.span("shard.merge", rep, |_| merge_reports(parts)));
            }
            Report::Kary(r) => {
                let parts = split_kary(r, &plan);
                t0 = Instant::now();
                black_box(tracer.span("shard.merge", rep, |_| merge_kary_reports(parts)));
            }
        }
        merge.push(ms_since(t0));
    }
    out.merge_ms = median(&merge);

    // crowd_wire: the stream's ingest payloads and the report reply.
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for (i, batch) in inputs.stream.chunks(workload.stream_batch()).enumerate() {
        let t0 = Instant::now();
        let payload = tracer.span("wire.encode_ingest", i as u64, |_| {
            encode_ingest_batch_payload(batch)
        });
        enc.push(ms_since(t0) * 1e3);
        let t0 = Instant::now();
        let req = tracer.span("wire.decode_ingest", i as u64, |_| {
            decode_request(opcode::INGEST_BATCH, &payload)
        });
        dec.push(ms_since(t0) * 1e3);
        black_box(req.expect("decoding a payload just encoded"));
    }
    out.encode_ingest_us = median(&enc);
    out.decode_ingest_us = median(&dec);
    // k-ary reports have no wire opcode: the dense fleet's binary
    // evaluation above stands in for its report.
    let wire_report = match final_report {
        Report::Binary(r) => r.clone(),
        Report::Kary(_) => binary.unwrap_or_default(),
    };
    let reply = Reply::Report(wire_report);
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for rep in 0..REPS as u64 {
        let t0 = Instant::now();
        let (op, payload) = tracer.span("wire.encode_report", rep, |_| encode_reply(&reply));
        enc.push(ms_since(t0));
        let t0 = Instant::now();
        let back = tracer.span("wire.decode_report", rep, |_| decode_reply(op, &payload));
        dec.push(ms_since(t0));
        black_box(back.expect("decoding a reply just encoded"));
        out.report_bytes = payload.len() as f64;
    }
    out.encode_report_ms = median(&enc);
    out.decode_report_ms = median(&dec);
    out
}

fn split_binary(r: &WorkerReport, plan: &ShardPlan) -> Vec<WorkerReport> {
    let mut parts = vec![WorkerReport::default(); plan.n_shards()];
    for a in &r.assessments {
        parts[plan.shard_of(a.worker)].assessments.push(a.clone());
    }
    for f in &r.failures {
        parts[plan.shard_of(f.0)].failures.push(f.clone());
    }
    parts
}

fn split_kary(r: &KaryWorkerReport, plan: &ShardPlan) -> Vec<KaryWorkerReport> {
    let mut parts = vec![KaryWorkerReport::default(); plan.n_shards()];
    for a in &r.assessments {
        parts[plan.shard_of(a.worker)].assessments.push(a.clone());
    }
    for f in &r.failures {
        parts[plan.shard_of(f.0)].failures.push(f.clone());
    }
    parts
}

/// Ingests the stream in-process at the workload's stream batch size
/// through a drain, once per config rung: the default config, then
/// checkpoints off, then checkpoints and metrics off. Returns
/// responses/s per rung.
pub fn ladder(workload: Workload, inputs: &Inputs, tracer: &mut Tracer, ops: &mut Ops) -> [f64; 3] {
    const SPANS: [&str; 3] = [
        "service.ladder_default",
        "service.ladder_no_checkpoint",
        "service.ladder_no_checkpoint_no_metrics",
    ];
    let base = ServiceConfig::default().with_estimator(workload.estimator());
    let configs = [
        base.clone(),
        base.clone().with_checkpoint_interval(0),
        base.with_checkpoint_interval(0).with_metrics(false),
    ];
    let mut rates = [0.0; 3];
    for (i, config) in configs.into_iter().enumerate() {
        let (mut service, _) = spawn_fleet(inputs, config, tracer);
        let h = service.handle();
        let t0 = Instant::now();
        tracer.span(SPANS[i], 0, |_| {
            for batch in inputs.stream.chunks(workload.stream_batch()) {
                ops.check("ingest", h.ingest_batch(batch));
            }
            ops.check("drain", h.drain());
        });
        rates[i] = inputs.stream.len() as f64 / t0.elapsed().as_secs_f64();
        ops.check("shutdown", service.shutdown());
    }
    rates
}
