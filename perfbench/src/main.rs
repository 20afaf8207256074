//! The served-assessment benchmark.
//!
//! ```text
//! perfbench --workload <trickle|burst|dense-kary> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, runs measured rounds
//! against a fresh 2-shard fleet, checks every drain-point report
//! against a serial evaluator, and prints one JSON result line last on
//! stdout: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `README.md` beside this crate.

mod gate;
mod inputs;
mod layers;
mod measure;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use crowd_data::Response;

use crate::gate::DrainPoints;
use crate::measure::{cpu_ticks, median, peak_rss_mb, quantile, tail_percentile};
use crate::report::{END_TO_END, PER_LAYER, Values, result_line};
use crate::trace::{LAYERS, Tracer};
use crate::workloads::{Ops, Round, Scale, Workload, run_round};

/// Untraced runs measure at least this many rounds, then keep going
/// until `--seconds` has passed. Tail percentiles are fixed from the
/// sample count of this many rounds.
const MIN_ROUNDS: usize = 4;
/// Rounds during which the hypervisor stole more than this share of
/// the VM's CPU time are left out of the timings: on the 2-vCPU host a
/// few percent of stolen time slows the cross-thread hand-offs of a
/// round by tens of percent.
const QUIET_STEAL: f64 = 0.02;
/// Hard cap on rounds per run.
const MAX_ROUNDS: usize = 200;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The outcome of one invocation.
struct Outcome {
    correct: bool,
    ops: Ops,
    values: Values,
}

/// The stream cut at the wire batch size (empty for in-process ingest).
fn wire_batches(workload: Workload, stream: &[Response]) -> Vec<Vec<Response>> {
    if workload == Workload::Trickle {
        return Vec::new();
    }
    stream
        .chunks(workload.stream_batch())
        .map(<[Response]>::to_vec)
        .collect()
}

/// Keeps `round`'s timings; its reports are checked against the first
/// round's and then dropped, so a run's memory does not grow with its
/// round count. Returns whether the reports agreed.
fn keep(rounds: &mut Vec<Round>, mut round: Round) -> bool {
    let agree = match rounds.first() {
        Some(first) => {
            let agree = round.points == first.points;
            round.points = DrainPoints::default();
            round.final_report = Default::default();
            agree
        }
        None => true,
    };
    rounds.push(round);
    agree
}

/// The end-to-end timings over `rounds`. Latency samples are pooled
/// over the rounds, at the tail percentiles `q` (assess, fresh report);
/// once-per-round figures are the median over the rounds.
fn timings(rounds: &[&Round], q: (f64, f64)) -> [(&'static str, f64); 7] {
    let per_round = |f: fn(&Round) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    let samples = |f: fn(&Round) -> &[f64]| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let assess = samples(|r| &r.assess_ms);
    let fresh = samples(|r| &r.fresh_ms);
    [
        ("setup_s", per_round(|r| r.setup_s)),
        ("ingest_rps", per_round(|r| r.ingest_rps)),
        ("assess_p50_ms", median(&assess)),
        ("assess_tail_ms", quantile(&assess, q.0)),
        ("fresh_report_p50_ms", median(&fresh)),
        ("fresh_report_tail_ms", quantile(&fresh, q.1)),
        ("cold_report_s", per_round(|r| r.cold_report_s)),
    ]
}

/// The rounds the timings are taken over: those during which the
/// hypervisor stole at most [`QUIET_STEAL`] of the VM's CPU time
/// (`stolen[i]` for round `i`), or the [`MIN_ROUNDS`] least-stolen
/// rounds when fewer were that quiet. Also returns the steal limit used.
fn quiet<'a>(rounds: &'a [Round], stolen: &[f64]) -> (Vec<&'a Round>, f64) {
    let mut sorted = stolen.to_vec();
    sorted.sort_by(f64::total_cmp);
    let limit = sorted[MIN_ROUNDS.min(sorted.len()) - 1].max(QUIET_STEAL);
    let counted = rounds
        .iter()
        .zip(stolen)
        .filter(|&(_, &s)| s <= limit)
        .map(|(r, _)| r)
        .collect();
    (counted, limit)
}

fn run(args: Args, scale: Scale) -> Outcome {
    let w = args.workload;
    let inputs = w.inputs(args.seed, scale);
    let batches = wire_batches(w, &inputs.stream);
    let config = w.estimator();
    let mut ops = Ops::default();
    let mut tracer = Tracer::new(false);
    let mut values = Values::default();

    let mut rounds = Vec::new();
    // Share of the VM's CPU time the hypervisor stole during each round.
    let mut stolen = Vec::new();
    let mut agree = true;
    if args.trace {
        // One untraced round as the overhead baseline, then the traced one.
        agree &= keep(
            &mut rounds,
            run_round(w, &inputs, &batches, &mut tracer, &mut ops),
        );
        tracer.set_enabled(true);
        agree &= keep(
            &mut rounds,
            run_round(w, &inputs, &batches, &mut tracer, &mut ops),
        );
    } else {
        let start = Instant::now();
        while rounds.len() < MAX_ROUNDS
            && (rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds)
        {
            let t0 = cpu_ticks();
            let r = run_round(w, &inputs, &batches, &mut tracer, &mut ops);
            let t1 = cpu_ticks();
            stolen.push((t1.0 - t0.0) as f64 / (t1.1 - t0.1).max(1) as f64);
            eprintln!(
                "round {}: steal {:.4} setup_s {} ingest_rps {} assess p50/tail {} {} ms, fresh_report p50/tail {} {} ms, cold_report_s {}, peak rss {} MiB",
                rounds.len(),
                stolen[rounds.len()],
                r.setup_s,
                r.ingest_rps,
                median(&r.assess_ms),
                quantile(&r.assess_ms, tail_percentile(r.assess_ms.len())),
                median(&r.fresh_ms),
                quantile(&r.fresh_ms, tail_percentile(r.fresh_ms.len())),
                r.cold_report_s,
                peak_rss_mb()
            );
            agree &= keep(&mut rounds, r);
        }
    }
    let rss = peak_rss_mb();

    let first = &rounds[0];
    let gate = if agree {
        tracer.span("bench.gate", 0, |tracer| {
            gate::verify(&inputs, &config, w.is_kary(), &first.points, tracer)
        })
    } else {
        Err("rounds over identical inputs returned different reports".into())
    };
    let replay = match gate {
        Ok(replay) => Some(replay),
        Err(e) => {
            eprintln!("correctness gate failed: {e}");
            None
        }
    };
    let last = rounds.last().expect("at least one round ran");

    if args.trace {
        let untraced = first;
        let layers = layers::replay(w, &inputs, &first.final_report, &mut tracer);
        let ladder = layers::ladder(w, &inputs, &mut tracer, &mut ops);
        let ingest_spans = match w {
            Workload::Trickle => "service.ingest",
            Workload::Burst | Workload::DenseKary => "wire.ingest_batch",
        };
        values.set(
            "service.ingest_call_us.p50",
            median(&tracer.durations_us(ingest_spans)),
        );
        values.set("service.drain_ms", last.drain_ms);
        let stats = last.stats.clone().unwrap_or_default();
        values.set("service.checkpoints", stats.total_checkpoints() as f64);
        values.set(
            "service.queue_high_water",
            stats.max_queue_high_water() as f64,
        );
        let stages = last.stages.clone().unwrap_or_default();
        values.set("service.queue_wait_ns.p50", stages.queue_wait.p50() as f64);
        values.set(
            "service.batch_apply_ns.p50",
            stages.batch_apply.p50() as f64,
        );
        values.set("service.drain_eval_ns.p50", stages.drain_eval.p50() as f64);
        values.set("service.ingest_rps.default", ladder[0]);
        values.set("service.ingest_rps.no_checkpoint", ladder[1]);
        values.set("service.ingest_rps.no_checkpoint_no_metrics", ladder[2]);
        let ordered = ladder[0] < ladder[1] && ladder[1] < ladder[2];
        values.set("service.ladder_ordered", f64::from(u8::from(ordered)));
        println!(
            "ladder ({}, batch {}): default {:.0} < no_checkpoint {:.0} < no_checkpoint_no_metrics {:.0} responses/s: {}",
            w.name(),
            w.stream_batch(),
            ladder[0],
            ladder[1],
            ladder[2],
            if ordered { "holds" } else { "does not hold" }
        );
        values.set("data.apply_ns_per_response", layers.apply_ns_per_response);
        values.set("data.checkpoint_encode_ms", layers.checkpoint_encode_ms);
        values.set("data.checkpoint_restore_ms", layers.checkpoint_restore_ms);
        values.set("data.checkpoint_bytes", layers.checkpoint_bytes);
        values.set("data.reanchors", stats.total_reanchors() as f64);
        values.set("data.gram_patches", stats.total_gram_patches() as f64);
        values.set("data.gram_rebuilds", stats.total_gram_rebuilds() as f64);
        values.set("core.pairing_ms", layers.pairing_ms);
        values.set("core.evaluate_ms", layers.evaluate_ms);
        values.set("core.kary_evaluate_ms", layers.kary_evaluate_ms);
        let replay = replay.clone().unwrap_or_default();
        values.set("core.cache_refresh_ms", median(&replay.refresh_ms));
        values.set("core.dirty_anchors", median(&replay.dirty));
        let rows = replay.hits + replay.misses;
        values.set(
            "core.cache_hit_ratio",
            replay.hits as f64 / rows.max(1) as f64,
        );
        values.set("core.cache_rows", rows as f64);
        values.set("shard.plan_build_ms", last.plan_build_ms);
        values.set("shard.merge_ms", layers.merge_ms);
        values.set(
            "shard.fanout",
            last.routed as f64 / last.submitted.max(1) as f64,
        );
        values.set("wire.encode_ingest_us", layers.encode_ingest_us);
        values.set("wire.decode_ingest_us", layers.decode_ingest_us);
        values.set("wire.encode_report_ms", layers.encode_report_ms);
        values.set("wire.decode_report_ms", layers.decode_report_ms);
        values.set("wire.report_bytes", layers.report_bytes);
        values.set("wire.rtt_us", median(&last.rtt_us));
        values.set("trace.untraced_round_ms", untraced.wall_ms);
        values.set(
            "trace.overhead_pct",
            (last.wall_ms / untraced.wall_ms - 1.0) * 100.0,
        );
        values.set("trace.spans", tracer.len() as f64);
        let self_ms = tracer.self_ms_by_layer();
        for (layer, metric) in LAYERS {
            values.set(metric, self_ms[layer]);
        }
        let path =
            PathBuf::from(".bench_trace").join(format!("{}-seed{}.csv", w.name(), args.seed));
        match tracer.write_csv(&path) {
            Ok(()) => eprintln!("wrote {} spans to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    } else {
        // The tail percentile is fixed per workload: ten samples beyond
        // it in MIN_ROUNDS rounds.
        let q = (
            tail_percentile(first.assess_ms.len() * MIN_ROUNDS),
            tail_percentile(first.fresh_ms.len() * MIN_ROUNDS),
        );
        let (counted, limit) = quiet(&rounds, &stolen);
        for (name, value) in timings(&counted, q) {
            values.set(name, value);
        }
        values.set("peak_rss_mb", rss);
        values.set("ci_half_width_mean", first.final_report.half_width_mean());
        values.set("ci_coverage", first.final_report.coverage(&inputs.truth));
        values.set("evaluable_share", first.final_report.evaluable_share());
        values.set(
            "success_share",
            1.0 - ops.failed as f64 / ops.attempted.max(1) as f64,
        );
        println!(
            "{}: {} of {} rounds counted (steal at most {:.1}%); assess_tail_ms = p{:.2} of {} samples, fresh_report_tail_ms = p{:.2} of {} samples",
            w.name(),
            counted.len(),
            rounds.len(),
            limit * 100.0,
            q.0 * 100.0,
            first.assess_ms.len() * counted.len(),
            q.1 * 100.0,
            first.fresh_ms.len() * counted.len(),
        );
    }
    Outcome {
        correct: replay.is_some() && ops.failed == 0,
        ops,
        values,
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <trickle|burst|dense-kary> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out = run(args, Scale::Full);
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_line(
            out.correct,
            out.ops.attempted,
            out.ops.failed,
            catalogue,
            &out.values
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{declared, printed};

    fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
        let args = Args {
            workload,
            seed,
            seconds: 0.0,
            trace,
        };
        run(args, Scale::Tiny)
    }

    #[test]
    fn same_seed_gives_same_counts_and_quality() {
        for w in Workload::ALL {
            let (a, b) = (tiny(w, 5, false), tiny(w, 5, false));
            assert!(a.correct && b.correct, "{}", w.name());
            assert_eq!(a.ops.failed, 0);
            assert_eq!(a.ops.attempted, b.ops.attempted, "{}", w.name());
            for name in [
                "ci_half_width_mean",
                "ci_coverage",
                "evaluable_share",
                "success_share",
            ] {
                assert_eq!(
                    a.values.get(name),
                    b.values.get(name),
                    "{} {name}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        for w in Workload::ALL {
            for (trace, catalogue, section) in [
                (false, &END_TO_END[..], "end_to_end"),
                (true, &PER_LAYER[..], "per_layer"),
            ] {
                let out = tiny(w, 3, trace);
                let line = result_line(
                    out.correct,
                    out.ops.attempted,
                    out.ops.failed,
                    catalogue,
                    &out.values,
                );
                assert!(out.correct, "{} trace {trace}: {line}", w.name());
                assert_eq!(
                    printed(&line),
                    declared(section),
                    "{} trace {trace}",
                    w.name()
                );
            }
        }
    }
}
