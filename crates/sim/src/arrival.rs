//! Open-loop arrival schedules for load-generating the assessment
//! runtime.
//!
//! A batch [`crate::BinaryScenario`] / [`crate::KaryScenario`] instance
//! fixes *what* the crowd answered; an [`ArrivalSchedule`] fixes
//! *when*: a deterministic shuffle of the instance's responses (the
//! ingest order a service would actually see — workers interleave, they
//! don't arrive row by row) plus Poisson arrival offsets at a target
//! rate. The schedule is **open-loop**: offsets are drawn up front,
//! independent of how fast the system under test drains them, which is
//! what makes measured latency meaningful under load (a closed-loop
//! driver self-throttles and hides queueing delay).
//!
//! Everything is reproducible from the scenario seed: the same
//! `(data, rate, rng seed)` always yields the same order and the same
//! offsets.

use crate::Rng;
use crowd_data::{Response, ResponseMatrix};
use rand::RngExt;

/// A fixed arrival trace: every response of one instance, in arrival
/// order, with a monotone arrival offset (seconds from stream start)
/// for each. See the `arrival` module docs.
#[derive(Debug, Clone)]
pub struct ArrivalSchedule {
    responses: Vec<Response>,
    offsets: Vec<f64>,
}

impl ArrivalSchedule {
    /// Poisson arrivals: a uniform shuffle of `data`'s responses with
    /// Exp(`rate`) inter-arrival gaps (`rate` in responses/second,
    /// must be positive and finite).
    pub fn poisson(data: &ResponseMatrix, rate: f64, rng: &mut Rng) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive"
        );
        let mut responses: Vec<Response> = data.iter().collect();
        // Fisher–Yates over the response list.
        for i in (1..responses.len()).rev() {
            let j = rng.random_range(0..i + 1);
            responses.swap(i, j);
        }
        let mut offsets = Vec::with_capacity(responses.len());
        let mut t = 0.0f64;
        for _ in 0..responses.len() {
            // Inverse-CDF exponential gap; 1 - u keeps ln's argument
            // in (0, 1].
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / rate;
            offsets.push(t);
        }
        Self { responses, offsets }
    }

    /// Number of arrivals in the trace.
    pub fn len(&self) -> usize {
        self.responses.len()
    }

    /// True when the instance had no responses.
    pub fn is_empty(&self) -> bool {
        self.responses.is_empty()
    }

    /// The responses in arrival order.
    pub fn responses(&self) -> &[Response] {
        &self.responses
    }

    /// Arrival offset (seconds from stream start) of the `i`-th
    /// response; non-decreasing in `i`.
    pub fn offset(&self, i: usize) -> f64 {
        self.offsets[i]
    }

    /// The whole trace as `(offset_seconds, response)` pairs.
    pub fn arrivals(&self) -> impl Iterator<Item = (f64, Response)> + '_ {
        self.offsets
            .iter()
            .copied()
            .zip(self.responses.iter().copied())
    }

    /// Offset of the last arrival — the trace's nominal duration.
    pub fn duration(&self) -> f64 {
        self.offsets.last().copied().unwrap_or(0.0)
    }

    /// The trace chopped into ingest batches of (at most) `size`
    /// consecutive arrivals, preserving arrival order — the unit a
    /// batching service hands to its router. `size` is clamped to
    /// ≥ 1; the final batch may be short.
    pub fn batches(&self, size: usize) -> impl Iterator<Item = &[Response]> + '_ {
        self.responses.chunks(size.max(1))
    }

    /// An open-loop replay cursor over this trace; see
    /// [`ArrivalCursor`].
    pub fn cursor(&self) -> ArrivalCursor<'_> {
        ArrivalCursor {
            sched: self,
            next: 0,
        }
    }
}

/// Replays an [`ArrivalSchedule`] against a real clock: at each poll
/// the cursor hands over exactly the arrivals whose offsets have come
/// due, preserving order. This is the shape a *wire* driver needs —
/// an in-process driver can afford a fixed chunking
/// ([`ArrivalSchedule::batches`]), but a client pacing requests over
/// a socket must group whatever the schedule says has arrived since
/// the last send, or the measured latency reflects the driver's
/// chunking instead of the offered load.
#[derive(Debug, Clone)]
pub struct ArrivalCursor<'a> {
    sched: &'a ArrivalSchedule,
    next: usize,
}

impl<'a> ArrivalCursor<'a> {
    /// All not-yet-delivered arrivals with `offset <= elapsed`
    /// seconds, capped at `max` (clamped to ≥ 1) per call so one
    /// stalled poll cannot turn into a single giant frame. Advances
    /// the cursor; returns an empty slice when nothing is due yet.
    pub fn due_by(&mut self, elapsed: f64, max: usize) -> &'a [Response] {
        let start = self.next;
        let cap = start.saturating_add(max.max(1)).min(self.sched.len());
        let mut end = start;
        while end < cap && self.sched.offsets[end] <= elapsed {
            end += 1;
        }
        self.next = end;
        &self.sched.responses[start..end]
    }

    /// Offset of the next undelivered arrival (`None` once the trace
    /// is exhausted) — what a driver sleeps until.
    pub fn next_due(&self) -> Option<f64> {
        self.sched.offsets.get(self.next).copied()
    }

    /// Arrivals not yet delivered.
    pub fn remaining(&self) -> usize {
        self.sched.len() - self.next
    }

    /// True once every arrival has been delivered.
    pub fn is_done(&self) -> bool {
        self.next == self.sched.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryScenario, rng};

    fn instance() -> crate::BinaryInstance {
        BinaryScenario::paper_default(6, 50, 0.8).generate(&mut rng(21))
    }

    #[test]
    fn schedule_is_a_permutation_of_the_instance() {
        let inst = instance();
        let sched = ArrivalSchedule::poisson(inst.responses(), 100.0, &mut rng(5));
        assert_eq!(sched.len(), inst.responses().n_responses());
        let mut seen: Vec<(u32, u32)> = sched
            .responses()
            .iter()
            .map(|r| (r.worker.0, r.task.0))
            .collect();
        seen.sort_unstable();
        let mut expect: Vec<(u32, u32)> = inst
            .responses()
            .iter()
            .map(|r| (r.worker.0, r.task.0))
            .collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn offsets_are_monotone_and_rate_scaled() {
        let inst = instance();
        let sched = ArrivalSchedule::poisson(inst.responses(), 200.0, &mut rng(5));
        for i in 1..sched.len() {
            assert!(sched.offset(i) >= sched.offset(i - 1));
        }
        // Mean gap ≈ 1/rate (loose: a few hundred exponential draws).
        let mean = sched.duration() / sched.len() as f64;
        assert!(
            (mean - 1.0 / 200.0).abs() < 2e-3,
            "mean inter-arrival {mean}"
        );
        assert_eq!(sched.arrivals().count(), sched.len());
    }

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        let inst = instance();
        let a = ArrivalSchedule::poisson(inst.responses(), 50.0, &mut rng(9));
        let b = ArrivalSchedule::poisson(inst.responses(), 50.0, &mut rng(9));
        assert_eq!(a.responses(), b.responses());
        for i in 0..a.len() {
            assert_eq!(a.offset(i).to_bits(), b.offset(i).to_bits());
        }
    }

    #[test]
    fn batching_preserves_order_and_covers_everything() {
        let inst = instance();
        let sched = ArrivalSchedule::poisson(inst.responses(), 50.0, &mut rng(3));
        for size in [1usize, 7, 256] {
            let flat: Vec<Response> = sched.batches(size).flatten().copied().collect();
            assert_eq!(flat, sched.responses());
            for batch in sched.batches(size) {
                assert!(!batch.is_empty() && batch.len() <= size);
            }
        }
        // Degenerate batch size clamps instead of panicking.
        assert!(sched.batches(0).next().unwrap().len() == 1);
    }

    #[test]
    fn cursor_replays_the_trace_in_due_time_order() {
        let inst = instance();
        let sched = ArrivalSchedule::poisson(inst.responses(), 50.0, &mut rng(8));
        let mut cur = sched.cursor();
        assert_eq!(cur.remaining(), sched.len());
        assert_eq!(cur.next_due(), Some(sched.offset(0)));
        // Nothing due before the first offset.
        assert!(cur.due_by(sched.offset(0) / 2.0, 1000).is_empty());
        // Poll at coarse time steps; everything delivered exactly
        // once, in order, never before it was due.
        let mut replayed: Vec<Response> = Vec::new();
        let step = sched.duration() / 7.0;
        let mut t = 0.0;
        while !cur.is_done() {
            t += step;
            let start = replayed.len();
            replayed.extend_from_slice(cur.due_by(t, usize::MAX));
            for (k, _) in replayed[start..].iter().enumerate() {
                assert!(sched.offset(start + k) <= t);
            }
        }
        assert_eq!(replayed, sched.responses());
        assert_eq!(cur.next_due(), None);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn cursor_caps_a_stalled_poll() {
        let inst = instance();
        let sched = ArrivalSchedule::poisson(inst.responses(), 50.0, &mut rng(8));
        let mut cur = sched.cursor();
        // A poll far past the end delivers at most `max` per call.
        let late = sched.duration() + 1.0;
        let first = cur.due_by(late, 7).to_vec();
        assert_eq!(first.len(), 7);
        assert_eq!(first, sched.responses()[..7]);
        assert_eq!(cur.remaining(), sched.len() - 7);
        // max is clamped to ≥ 1 so a zero cap cannot stall forever.
        assert_eq!(cur.due_by(late, 0).len(), 1);
    }
}
