//! The correctness gate: every drain-point report the service returned
//! must equal, byte for byte, a serial incremental evaluator fed the
//! same admitted responses. It runs after the timed rounds, before any
//! number is printed.

use std::time::Instant;

use crowd_core::{
    EstimatorConfig, IncrementalEvaluator, KaryIncrementalEvaluator, KaryWorkerReport, WorkerReport,
};
use crowd_wire::Reply;
use crowd_wire::proto::encode_reply;

use crate::inputs::{Inputs, Truth};
use crate::trace::Tracer;

/// Confidence level of every interval the benchmark requests.
pub const CONFIDENCE: f64 = 0.9;

/// A fleet report of either estimator.
#[derive(Debug, Clone)]
pub enum Report {
    /// Binary (Algorithm A2) assessments.
    Binary(WorkerReport),
    /// k-ary (m-worker A3) assessments.
    Kary(KaryWorkerReport),
}

impl Default for Report {
    fn default() -> Self {
        Self::Binary(WorkerReport::default())
    }
}

impl Report {
    /// Canonical bytes: the wire encoding for binary reports (every
    /// interval bit pattern counts), and the same field-by-field rule
    /// for k-ary reports, which have no wire opcode.
    pub fn bytes(&self) -> Vec<u8> {
        match self {
            Self::Binary(r) => encode_reply(&Reply::Report(r.clone())).1,
            Self::Kary(r) => kary_bytes(r),
        }
    }

    /// Assessments ÷ (assessments + failures).
    pub fn evaluable_share(&self) -> f64 {
        let (ok, failed) = match self {
            Self::Binary(r) => (r.assessments.len(), r.failures.len()),
            Self::Kary(r) => (r.assessments.len(), r.failures.len()),
        };
        ok as f64 / (ok + failed).max(1) as f64
    }

    /// Mean interval half-width over every assessed quantity (the error
    /// rate for binary workers, each of the k² response probabilities
    /// for k-ary ones).
    pub fn half_width_mean(&self) -> f64 {
        let widths: Vec<f64> = match self {
            Self::Binary(r) => r
                .assessments
                .iter()
                .map(|a| a.interval.half_width)
                .collect(),
            Self::Kary(r) => r
                .assessments
                .iter()
                .flat_map(|a| a.intervals.iter().map(|ci| ci.half_width))
                .collect(),
        };
        widths.iter().sum::<f64>() / widths.len().max(1) as f64
    }

    /// Share of assessed quantities whose interval contains the
    /// generator's true value.
    pub fn coverage(&self, truth: &Truth) -> f64 {
        let (hit, total) = match (self, truth) {
            (Self::Binary(r), Truth::ErrorRates(rates)) => (
                r.assessments
                    .iter()
                    .filter(|a| a.interval.contains(rates[a.worker.index()]))
                    .count(),
                r.assessments.len(),
            ),
            (Self::Kary(r), Truth::Confusions(truth)) => {
                let stats = r.coverage(|w| truth.get(w.index()).cloned());
                (stats.covered, stats.total)
            }
            _ => (0, 0),
        };
        hit as f64 / total.max(1) as f64
    }
}

fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Field-by-field little-endian encoding of a k-ary report.
fn kary_bytes(r: &KaryWorkerReport) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(r.assessments.len() as u64).to_le_bytes());
    for a in &r.assessments {
        out.extend_from_slice(&a.worker.0.to_le_bytes());
        put_f64s(&mut out, a.v.as_slice());
        put_f64s(&mut out, a.response_prob.as_slice());
        put_f64s(&mut out, &a.selectivity);
        for ci in &a.intervals {
            put_f64s(&mut out, &[ci.center, ci.half_width, ci.confidence]);
        }
        out.extend_from_slice(&(a.triples_used as u64).to_le_bytes());
        out.push(u8::from(a.weights_fell_back));
    }
    out.extend_from_slice(&(r.failures.len() as u64).to_le_bytes());
    for (w, e) in &r.failures {
        out.extend_from_slice(&w.0.to_le_bytes());
        out.extend_from_slice(format!("{e:?}").as_bytes());
        out.push(0);
    }
    out
}

/// FNV-1a, 64 bits: drain-point reports are kept as digests so a run
/// need not hold every report until the gate.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the service returned at its drain points in one round: the
/// digest of the report after the stream (the cold report), then one
/// per report burst, plus the full bytes of the last report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrainPoints {
    /// Report digests in drain-point order.
    pub digests: Vec<u64>,
    /// Bytes of the final report.
    pub final_bytes: Vec<u8>,
}

impl DrainPoints {
    /// Records one drain-point report.
    pub fn push(&mut self, report: &Report) {
        let bytes = report.bytes();
        self.digests.push(digest(&bytes));
        self.final_bytes = bytes;
    }
}

/// The serial oracle for one workload.
enum Reference {
    Binary(IncrementalEvaluator),
    Kary(KaryIncrementalEvaluator),
}

impl Reference {
    fn ingest(&mut self, r: crowd_data::Response) -> crowd_data::Result<()> {
        match self {
            Self::Binary(e) => e.ingest(r),
            Self::Kary(e) => e.ingest(r),
        }
    }

    fn refresh(&mut self) -> Result<Report, String> {
        let out = match self {
            Self::Binary(e) => e.evaluate_all_cached(CONFIDENCE).map(Report::Binary),
            Self::Kary(e) => e.evaluate_all_cached(CONFIDENCE).map(Report::Kary),
        };
        out.map_err(|e| format!("reference evaluation failed: {e:?}"))
    }

    fn cache(&self) -> crowd_core::CacheStats {
        match self {
            Self::Binary(e) => e.cache_stats(),
            Self::Kary(e) => e.cache_stats(),
        }
    }
}

/// Dirty-set numbers the serial replay observes at the report bursts.
#[derive(Debug, Clone, Default)]
pub struct CacheReplay {
    /// `evaluate_all_cached` time per report burst, in ms.
    pub refresh_ms: Vec<f64>,
    /// Rows re-evaluated per report burst.
    pub dirty: Vec<f64>,
    /// Rows served from cache over the report bursts.
    pub hits: u64,
    /// Rows re-evaluated over the report bursts.
    pub misses: u64,
}

/// Replays `inputs` through a serial incremental evaluator and checks
/// every drain point of `points` against it. `kary` picks the oracle.
pub fn verify(
    inputs: &Inputs,
    config: &EstimatorConfig,
    kary: bool,
    points: &DrainPoints,
    tracer: &mut Tracer,
) -> Result<CacheReplay, String> {
    let (m, n, k) = (
        inputs.fleet.n_workers(),
        inputs.fleet.n_tasks(),
        inputs.fleet.arity(),
    );
    let mut oracle = if kary {
        Reference::Kary(KaryIncrementalEvaluator::new(m, n, k, config.clone()))
    } else {
        Reference::Binary(IncrementalEvaluator::new(m, n, k, config.clone()))
    };
    if points.digests.len() != 1 + inputs.bursts.len() {
        return Err(format!(
            "expected {} drain points, the run recorded {}",
            1 + inputs.bursts.len(),
            points.digests.len()
        ));
    }
    for r in &inputs.stream {
        oracle
            .ingest(*r)
            .map_err(|e| format!("reference rejected {r:?}: {e}"))?;
    }
    let mut last = oracle.refresh()?;
    check(0, &last, points)?;
    let mut replay = CacheReplay::default();
    let before = oracle.cache();
    for (b, burst) in inputs.bursts.iter().enumerate() {
        for r in burst {
            oracle
                .ingest(*r)
                .map_err(|e| format!("reference rejected {r:?}: {e}"))?;
        }
        let misses = oracle.cache().misses;
        let t0 = Instant::now();
        last = tracer.span("core.cache_refresh", b as u64, |_| oracle.refresh())?;
        replay.refresh_ms.push(crate::measure::ms_since(t0));
        replay.dirty.push((oracle.cache().misses - misses) as f64);
        check(b + 1, &last, points)?;
    }
    let after = oracle.cache();
    replay.hits = after.hits - before.hits;
    replay.misses = after.misses - before.misses;
    if last.bytes() != points.final_bytes {
        return Err("final report bytes differ from the serial evaluator".into());
    }
    Ok(replay)
}

fn check(i: usize, expected: &Report, points: &DrainPoints) -> Result<(), String> {
    if digest(&expected.bytes()) == points.digests[i] {
        Ok(())
    } else {
        Err(format!(
            "drain point {i}: the service's report differs from the serial evaluator"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Ops, Scale, Workload, run_round};

    /// One tiny round of `w` and its drain points.
    fn tiny_round(w: Workload) -> (Inputs, DrainPoints) {
        let inputs = w.inputs(11, Scale::Tiny);
        let batches: Vec<Vec<crowd_data::Response>> = inputs
            .stream
            .chunks(w.stream_batch())
            .map(<[_]>::to_vec)
            .collect();
        let round = run_round(
            w,
            &inputs,
            &batches,
            &mut Tracer::new(false),
            &mut Ops::default(),
        );
        (inputs, round.points)
    }

    #[test]
    fn gate_accepts_the_service_and_rejects_one_flipped_bit() {
        for w in Workload::ALL {
            let (inputs, points) = tiny_round(w);
            let verify = |p: &DrainPoints| {
                verify(
                    &inputs,
                    &w.estimator(),
                    w.is_kary(),
                    p,
                    &mut Tracer::new(false),
                )
            };
            assert!(verify(&points).is_ok(), "{}", w.name());

            let mut flipped = points.clone();
            let last = flipped.final_bytes.len() - 9;
            flipped.final_bytes[last] ^= 1;
            assert!(verify(&flipped).is_err(), "{}: final report bit", w.name());

            let mut flipped = points.clone();
            flipped.digests[1] ^= 1 << 17;
            assert!(verify(&flipped).is_err(), "{}: drain point", w.name());
        }
    }

    #[test]
    fn one_flipped_interval_bit_changes_the_bytes() {
        let (inputs, points) = tiny_round(Workload::Trickle);
        assert!(!inputs.bursts.is_empty());
        let mut report = match crowd_wire::proto::decode_reply(
            crowd_wire::proto::opcode::OK_REPORT,
            &points.final_bytes,
        ) {
            Ok(Reply::Report(r)) => r,
            other => panic!("final bytes are a report: {other:?}"),
        };
        let ci = &mut report.assessments[0].interval;
        ci.half_width = f64::from_bits(ci.half_width.to_bits() ^ 1);
        assert_ne!(Report::Binary(report).bytes(), points.final_bytes);
    }
}
