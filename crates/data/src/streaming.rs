//! The streaming overlap substrate: a long-lived [`OverlapIndex`] that
//! absorbs responses one at a time, plus the one build scratch its
//! anchored views are built into. It is the one production
//! [`OverlapSource`]: batch evaluation bulk-loads a matrix
//! ([`StreamingIndex::from_matrix`]) and then makes the same calls a
//! served shard makes.
//!
//! # Views are built when an evaluation asks
//!
//! Ingest updates the index (rows and pair table) and the dirty
//! epochs below, and nothing else: no per-worker view state exists.
//! An anchored view ([`OverlapSource::anchored_for`], or the
//! population-wide [`OverlapSource::anchored`]) is a short-lived
//! [`crate::BitsetAnchored`] that the batch fill kernel builds into
//! the substrate's one build scratch when an evaluation asks for it:
//! `O(l_anchor + Σ_{p ∈ peers} l_p)` for a peer scope of the ≤ 2l
//! workers the caller's pairing selected. The view borrows the
//! scratch, so a substrate serves **one view at a time**; the
//! estimators hold each view inside one statement.
//!
//! Every query the estimators make is a popcount over bits the fill
//! derives from the index alone, so a view built after any ingest
//! order answers exactly what a view built from a fresh batch load of
//! the same responses answers — the property the streaming-equivalence
//! test suite pins down to the bit. With the report cache
//! (`crowd_core`'s `ReportCache`) only dirty anchors are re-evaluated,
//! so a refresh pays one view fill per dirty anchor and nothing for
//! the rest.
//!
//! Memory: the scratch keeps the largest view built so far — exactly
//! `rows · ⌈l_anchor/64⌉` mask words, at most `2l` rows for a scoped
//! build — plus one `n`-entry task→slot stamp map
//! ([`StreamingIndex::view_mask_bytes`] reports the mask words) and,
//! once a k-ary counts tensor has been filled
//! ([`OverlapSource::fill_counts`]), one `n`-entry `u32` task-code
//! array, and, once a peer pair table has been filled
//! ([`OverlapSource::peer_pairs_into`]), one `m`-entry `u32` worker →
//! column map. Nothing is held per evaluated worker, and nothing in
//! the mask words grows with the task-id space.
//!
//! # Ingest epochs and dirty tracking
//!
//! The substrate also stamps a monotone **ingest epoch** on every
//! accepted response and records, per worker, the epoch at which that
//! worker's *assessment inputs* last moved
//! ([`StreamingIndex::epoch`], [`StreamingIndex::dirty_epoch`]).
//! A response from worker `w` can only move statistics that involve
//! `w` — the pairs it completes, the triples it joins, the mask bits
//! in `w`'s row — and an anchor `a`'s evaluation reads only
//! statistics over `{a} ∪ cooccur(a)` (pairing candidates are
//! co-occurring workers; partner selection reads peer–peer pairs and
//! the Lemma 4 covariance reads triples among them). So the ingest
//! dirties exactly `{w} ∪ cooccur(w)`, taken **after** the pair table
//! has absorbed the response so co-occurrences the response itself
//! creates are included. Note the set is deliberately wider than the
//! arriving task's responders: an anchor that never touched the task
//! can still re-pair when a peer–peer overlap among its candidates
//! moves. The set is one walk of the worker's [`crate::PairMap`] row
//! ([`crate::PairMap::row`]) — `O(d_w)` on a sparse row,
//! `O(m) ≤ O(3·d_w)` on a dense one. This is what makes
//! epoch-gated report caches (`crowd_core`'s `ReportCache`) sound: a
//! worker whose `dirty_epoch` has not advanced past a cached
//! evaluation would re-derive bit-identical numbers.

use crate::index::{BuildScratch, OverlapSource, PeerMask};
use crate::{
    BitsetAnchored, CountsTensor, OverlapIndex, PairStats, PeerPairs, Response, ResponseMatrix,
    TripleStats, WorkerId,
};
use std::cell::{Cell, RefCell};

/// A long-lived [`OverlapIndex`] plus the one scratch its anchored
/// views are built into — the substrate of batch and streaming
/// evaluation alike (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use crowd_data::{
///     AnchoredOverlap, Label, OverlapSource, Response, StreamingIndex, TaskId, WorkerId,
/// };
///
/// let mut stream = StreamingIndex::new(3, 4, 2);
/// for t in 0..4u32 {
///     stream.record_response(Response {
///         worker: WorkerId(0), task: TaskId(t), label: Label(0),
///     })?;
///     stream.record_response(Response {
///         worker: WorkerId(1), task: TaskId(t), label: Label((t % 2) as u16),
///     })?;
/// }
/// assert_eq!(stream.pair(WorkerId(0), WorkerId(1)).common_tasks, 4);
/// // A peer-scoped view: only worker 1 gets a mask row.
/// let common = stream
///     .anchored_for(WorkerId(0), &[WorkerId(1)])
///     .triple_common(WorkerId(1), WorkerId(1));
/// assert_eq!(common, 4);
/// # Ok::<(), crowd_data::DataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingIndex {
    index: OverlapIndex,
    /// The one scratch every anchored view is built into and borrows,
    /// and the counts fill scatters into.
    scratch: RefCell<BuildScratch>,
    /// Anchored views built so far (diagnostic).
    view_builds: Cell<usize>,
    /// Monotone ingest epoch: 0 for an empty substrate, advanced by
    /// one per accepted response. [`StreamingIndex::from_matrix`]
    /// seeds at 1 (the seed is one opaque bulk ingest).
    epoch: u64,
    /// Per-worker epoch at which that worker's assessment inputs last
    /// changed (see the [module docs](self) and
    /// [`StreamingIndex::dirty_epoch`]).
    dirty_at: Vec<u64>,
}

/// The one pair-table choice left — kept only so callers written
/// against the former backend switch still compile; see
/// [`StreamingIndex::new_with`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairBackend {
    /// The density-adaptive [`crate::PairMap`].
    Sparse,
}

impl StreamingIndex {
    /// An empty streaming substrate of the given shape.
    ///
    /// # Panics
    /// Panics if `arity < 2` or the task rows cannot be allocated
    /// (mirroring [`OverlapIndex::new`]).
    pub fn new(n_workers: usize, n_tasks: usize, arity: u16) -> Self {
        Self::try_new(n_workers, n_tasks, arity).expect("index shape exceeds available memory")
    }

    /// Forwards to [`StreamingIndex::new`]; kept for callers written
    /// against the former pair-backend switch.
    #[doc(hidden)]
    pub fn new_with(n_workers: usize, n_tasks: usize, arity: u16, backend: PairBackend) -> Self {
        let _ = backend;
        Self::new(n_workers, n_tasks, arity)
    }

    /// [`StreamingIndex::new`], returning the allocation failure of an
    /// oversized shape instead of aborting (checkpoint restores read
    /// the shape from untrusted bytes).
    ///
    /// # Panics
    /// Panics if `arity < 2`.
    pub(crate) fn try_new(
        n_workers: usize,
        n_tasks: usize,
        arity: u16,
    ) -> Result<Self, std::collections::TryReserveError> {
        Ok(Self::with_index(
            OverlapIndex::try_new(n_workers, n_tasks, arity)?,
            0,
        ))
    }

    /// Bulk-loads the substrate from a matrix — one batch index build
    /// and nothing else; views are built when an evaluation asks. The
    /// load counts as one bulk ingest: the epoch starts at 1 with
    /// every worker dirty at it.
    pub fn from_matrix(data: &ResponseMatrix) -> Self {
        Self::with_index(OverlapIndex::from_matrix(data), 1)
    }

    /// Wraps `index` with an empty scratch, every worker dirty at
    /// `epoch`.
    fn with_index(index: OverlapIndex, epoch: u64) -> Self {
        let m = index.n_workers();
        Self {
            index,
            scratch: RefCell::default(),
            view_builds: Cell::new(0),
            epoch,
            dirty_at: vec![epoch; m],
        }
    }

    /// Ingests one response: `O(log r + r)` row insertion plus the
    /// `O(r_t)` pair-table update, then the dirty stamp. The
    /// validation and error taxonomy are
    /// [`OverlapIndex::record_response`]'s.
    pub fn record_response(&mut self, response: Response) -> crate::Result<()> {
        self.index.record_response(response)?;
        self.mark_dirty(response.worker);
        Ok(())
    }

    /// Advances the ingest epoch and stamps it on `{w} ∪ cooccur(w)`
    /// — every worker whose assessment inputs the accepted response
    /// can have moved (see the [module docs](self)). One `O(d_w)` walk
    /// of the worker's pair row; the epoch is taken **after** the index
    /// update so co-occurrences the response itself created are in
    /// the set.
    fn mark_dirty(&mut self, worker: WorkerId) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.dirty_at[worker.index()] = epoch;
        let dirty_at = &mut self.dirty_at;
        self.index
            .pairs()
            .row(worker)
            .for_each(|(p, _)| dirty_at[p.index()] = epoch);
    }

    /// Builds `anchor`'s view over `peers` into the scratch.
    fn build_view(&self, anchor: WorkerId, peers: PeerMask) -> BitsetAnchored<'_> {
        self.view_builds.set(self.view_builds.get() + 1);
        BitsetAnchored::build(&self.index, anchor, peers, &self.scratch)
    }

    /// The index: rows plus pair table.
    #[inline]
    pub fn index(&self) -> &OverlapIndex {
        &self.index
    }

    /// Total responses ingested.
    #[inline]
    pub fn n_responses(&self) -> usize {
        self.index.n_responses()
    }

    /// Number of tasks covered.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.index.n_tasks()
    }

    /// Bytes resident in the build scratch's mask words: the largest
    /// view built so far (zero before the first), never a sum over
    /// workers.
    pub fn view_mask_bytes(&self) -> usize {
        self.scratch.borrow().mask_bytes()
    }

    /// How many anchored views have been built (diagnostic: one per
    /// evaluated worker, plus any direct `anchored`/`anchored_for`
    /// calls). Restarts at zero on [`StreamingIndex::restore`].
    pub fn view_build_count(&self) -> usize {
        self.view_builds.get()
    }

    /// The monotone ingest epoch: 0 for an empty substrate, +1 per
    /// accepted response (a matrix seed counts as one bulk ingest).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch at which `worker`'s assessment inputs last changed
    /// (0 = never). An evaluation of `worker` computed when
    /// [`StreamingIndex::epoch`] read `E ≥ dirty_epoch(worker)` is
    /// still exact — re-running it would produce bit-identical
    /// output.
    #[inline]
    pub fn dirty_epoch(&self, worker: WorkerId) -> u64 {
        self.dirty_at[worker.index()]
    }

    /// Whether `worker`'s assessment inputs changed after `epoch`.
    #[inline]
    pub fn is_dirty_since(&self, worker: WorkerId, epoch: u64) -> bool {
        self.dirty_at[worker.index()] > epoch
    }

    /// Reinstates serialized epoch state after a checkpoint replay
    /// (see [`crate::checkpoint`]): replaying rows through
    /// [`StreamingIndex::record_response`] rebuilds the index
    /// deterministically but advances the epoch in replay order, so
    /// the original (ingest-order-dependent) counters are restored
    /// wholesale afterwards.
    pub(crate) fn restore_epoch_state(&mut self, epoch: u64, dirty_at: Vec<u64>) {
        debug_assert_eq!(dirty_at.len(), self.dirty_at.len());
        self.epoch = epoch;
        self.dirty_at = dirty_at;
    }

    /// Collects into `out` (cleared first, ascending ids) every worker
    /// whose assessment inputs changed after `epoch`. `O(m)` — meant
    /// for drain points, not the ingest path; per-worker checks should
    /// use [`StreamingIndex::is_dirty_since`].
    pub fn dirty_since(&self, epoch: u64, out: &mut Vec<WorkerId>) {
        out.clear();
        out.extend(
            self.dirty_at
                .iter()
                .enumerate()
                .filter(|&(_, &e)| e > epoch)
                .map(|(w, _)| WorkerId(w as u32)),
        );
    }
}

impl OverlapSource for StreamingIndex {
    type Anchored<'a> = BitsetAnchored<'a>;

    fn n_workers(&self) -> usize {
        self.index.n_workers()
    }

    fn arity(&self) -> u16 {
        self.index.arity()
    }

    fn pair(&self, a: WorkerId, b: WorkerId) -> PairStats {
        self.index.pairs().get(a, b)
    }

    fn triple(&self, a: WorkerId, b: WorkerId, c: WorkerId) -> TripleStats {
        crate::overlap::triple_scan(
            self.index.worker_responses(a),
            self.index.worker_responses(b),
            self.index.worker_responses(c),
        )
    }

    fn anchored(&self, anchor: WorkerId) -> BitsetAnchored<'_> {
        self.build_view(anchor, PeerMask::population(self.index.n_workers()))
    }

    fn anchored_for(&self, anchor: WorkerId, peers: &[WorkerId]) -> BitsetAnchored<'_> {
        self.build_view(anchor, PeerMask::scoped_for(peers, self.index.n_workers()))
    }

    fn fill_counts(&self, tensor: &mut CountsTensor, w1: WorkerId, w2: WorkerId, w3: WorkerId) {
        let mut scratch = self.scratch.try_borrow_mut().expect(
            "an anchored view of this substrate is still alive: counts share its build scratch",
        );
        tensor.fill_from_index(&self.index, scratch.task_codes(), w1, w2, w3);
    }

    fn pair_row_into(&self, worker: WorkerId, out: &mut Vec<(WorkerId, PairStats)>) -> bool {
        out.extend(self.index.pairs().row(worker));
        true
    }

    fn peer_pairs_into(&self, peers: &[WorkerId], table: &mut PeerPairs) {
        let mut scratch = self.scratch.try_borrow_mut().expect(
            "an anchored view of this substrate is still alive: the pair fill shares its build scratch",
        );
        self.index
            .pairs()
            .peer_pairs_into(peers, table, scratch.peer_columns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnchoredOverlap, Label, ResponseMatrixBuilder, TaskId};

    /// A deterministic sparse matrix (same generator as the index
    /// tests).
    fn sample(m: usize, n: usize, arity: u16, seed: u64) -> ResponseMatrix {
        let mut b = ResponseMatrixBuilder::new(m, n, arity);
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for w in 0..m as u32 {
            for t in 0..n as u32 {
                if next() % 10 < 6 {
                    b.push(
                        WorkerId(w),
                        TaskId(t),
                        Label((next() % arity as u32) as u16),
                    )
                    .unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    /// Asserts that every population-wide view of `stream` answers the
    /// naive scans of `data`.
    fn assert_views_match_scans(stream: &StreamingIndex, data: &ResponseMatrix) {
        let workers: Vec<WorkerId> = data.workers().collect();
        for &anchor in &workers {
            let view = stream.anchored(anchor);
            let scan = data.anchored(anchor);
            assert_eq!(
                view.common_among(&[]),
                data.worker_task_count(anchor),
                "anchor {anchor:?} slot count"
            );
            for &a in &workers {
                for &b in &workers {
                    assert_eq!(
                        view.triple_common(a, b),
                        scan.triple_common(a, b),
                        "anchor {anchor:?} pair ({a:?},{b:?})"
                    );
                }
            }
            let peers: Vec<WorkerId> = workers.iter().copied().filter(|&w| w != anchor).collect();
            assert_eq!(
                view.common_among(&peers[..4]),
                scan.common_among(&peers[..4])
            );
        }
    }

    /// Streamed (in reverse order) and bulk-loaded substrates hold the
    /// same index and build views that answer the naive scans.
    #[test]
    fn streamed_and_loaded_views_match_scans() {
        let data = sample(7, 45, 2, 2024);
        let loaded = StreamingIndex::from_matrix(&data);
        let mut streamed = StreamingIndex::new(7, 45, 2);
        let mut responses: Vec<_> = data.iter().collect();
        responses.reverse();
        for r in responses {
            streamed.record_response(r).unwrap();
        }
        assert_eq!(streamed.index(), loaded.index());
        for sub in [&loaded, &streamed] {
            assert_views_match_scans(sub, &data);
        }
    }

    /// Ingest builds nothing; each `anchored`/`anchored_for` call is
    /// one build, counted.
    #[test]
    fn views_are_built_per_request_not_at_ingest() {
        let data = sample(6, 40, 2, 99);
        let mut stream = StreamingIndex::new(6, 40, 2);
        for r in data.iter() {
            stream.record_response(r).unwrap();
        }
        assert_eq!(stream.view_build_count(), 0);
        assert_eq!(stream.view_mask_bytes(), 0, "no view, no mask words");
        let peers = [WorkerId(2), WorkerId(4)];
        for _ in 0..3 {
            let _ = stream
                .anchored_for(WorkerId(0), &peers)
                .pair_common(peers[0]);
        }
        let _ = stream.anchored(WorkerId(1)).pair_common(WorkerId(1));
        assert_eq!(stream.view_build_count(), 4);
    }

    /// The scratch holds the largest view built so far, exactly sized:
    /// a peer-scoped build costs a fraction peers/m of a population
    /// build, and later smaller builds reuse the allocation.
    #[test]
    fn scratch_holds_the_largest_view_built() {
        let data = sample(8, 64, 2, 7);
        let stream = StreamingIndex::from_matrix(&data);
        let peers = [WorkerId(1), WorkerId(2)];
        let scoped = stream.anchored_for(WorkerId(0), &peers).mask_bytes();
        assert_eq!(stream.view_mask_bytes(), scoped);
        let full = stream.anchored(WorkerId(0)).mask_bytes();
        assert_eq!(full, scoped / peers.len() * data.n_workers());
        assert_eq!(stream.view_mask_bytes(), full);
        let _ = stream
            .anchored_for(WorkerId(3), &peers)
            .pair_common(peers[0]);
        assert_eq!(
            stream.view_mask_bytes(),
            full,
            "smaller builds reuse the words"
        );
    }

    /// The mask scratch grows with the responses a view covers, never
    /// with the task-id space: two substrates holding the same
    /// responses over 100 and 100 000 task ids hold identical mask
    /// words after the same builds. (Only the slot-stamp map scales
    /// with the id space.)
    #[test]
    fn mask_scratch_does_not_scale_with_task_ids() {
        let data = sample(6, 100, 2, 5);
        let mut small = StreamingIndex::new(6, 100, 2);
        let mut large = StreamingIndex::new(6, 100_000, 2);
        for stream in [&mut small, &mut large] {
            for r in data.iter() {
                stream.record_response(r).unwrap();
            }
            for w in 0..6u32 {
                let _ = stream
                    .anchored_for(WorkerId(w), &[WorkerId((w + 1) % 6), WorkerId((w + 2) % 6)])
                    .gram(&[WorkerId((w + 1) % 6)]);
            }
        }
        assert!(small.view_mask_bytes() > 0);
        assert_eq!(small.view_mask_bytes(), large.view_mask_bytes());
    }

    /// Views built before and after an anchor's degree crosses the 64-
    /// and 128-slot word boundaries re-shape the scratch without losing
    /// bits.
    #[test]
    fn views_survive_word_boundary_growth() {
        let mut stream = StreamingIndex::new(2, 200, 2);
        for t in 0..150u32 {
            stream
                .record_response(Response {
                    worker: WorkerId(0),
                    task: TaskId(t),
                    label: Label(0),
                })
                .unwrap();
            if t % 3 == 0 {
                stream
                    .record_response(Response {
                        worker: WorkerId(1),
                        task: TaskId(t),
                        label: Label(0),
                    })
                    .unwrap();
            }
            if t == 10 || t == 70 || t == 149 {
                let view = stream.anchored(WorkerId(0));
                assert_eq!(view.common_among(&[]), t as usize + 1);
                assert_eq!(view.pair_common(WorkerId(1)), t as usize / 3 + 1);
            }
        }
        let view = stream.anchored(WorkerId(1));
        assert_eq!(view.pair_common(WorkerId(0)), 50);
    }

    /// The ingest epoch advances once per accepted response and the
    /// dirty set of each ingest is exactly `{w} ∪ cooccur(w)`.
    #[test]
    fn dirty_sets_are_worker_plus_cooccurrence() {
        let mut stream = StreamingIndex::new(5, 10, 2);
        assert_eq!(stream.epoch(), 0);
        for w in 0..5u32 {
            assert_eq!(stream.dirty_epoch(WorkerId(w)), 0);
            assert!(!stream.is_dirty_since(WorkerId(w), 0));
        }
        // Workers 0 and 1 share task 0; worker 3 answers task 5 alone.
        let ingest = |s: &mut StreamingIndex, w: u32, t: u32| {
            s.record_response(Response {
                worker: WorkerId(w),
                task: TaskId(t),
                label: Label(0),
            })
            .unwrap();
        };
        ingest(&mut stream, 0, 0);
        assert_eq!(stream.epoch(), 1);
        assert_eq!(stream.dirty_epoch(WorkerId(0)), 1);
        assert_eq!(stream.dirty_epoch(WorkerId(1)), 0);

        ingest(&mut stream, 1, 0);
        // Worker 1's response co-occurs it with worker 0: both dirty.
        assert_eq!(stream.epoch(), 2);
        assert_eq!(stream.dirty_epoch(WorkerId(0)), 2);
        assert_eq!(stream.dirty_epoch(WorkerId(1)), 2);
        assert_eq!(stream.dirty_epoch(WorkerId(3)), 0);

        ingest(&mut stream, 3, 5);
        // A lone responder dirties only itself.
        assert_eq!(stream.epoch(), 3);
        assert_eq!(stream.dirty_epoch(WorkerId(0)), 2);
        assert_eq!(stream.dirty_epoch(WorkerId(3)), 3);

        let mut dirty = Vec::new();
        stream.dirty_since(0, &mut dirty);
        assert_eq!(dirty, vec![WorkerId(0), WorkerId(1), WorkerId(3)]);
        stream.dirty_since(2, &mut dirty);
        assert_eq!(dirty, vec![WorkerId(3)]);
        stream.dirty_since(3, &mut dirty);
        assert!(dirty.is_empty());
        assert!(stream.is_dirty_since(WorkerId(1), 1));
        assert!(!stream.is_dirty_since(WorkerId(1), 2));
    }

    /// A response from `w` dirties co-occurring anchors even when they
    /// never touched the arriving task — their pairing reads peer–peer
    /// overlaps involving `w`, so a narrower responders-only dirty set
    /// would be unsound.
    #[test]
    fn cooccurring_nonresponders_are_dirtied() {
        let mut stream = StreamingIndex::new(3, 10, 2);
        let ingest = |s: &mut StreamingIndex, w: u32, t: u32| {
            s.record_response(Response {
                worker: WorkerId(w),
                task: TaskId(t),
                label: Label(0),
            })
            .unwrap();
        };
        // Workers 0 and 1 co-occur on task 0.
        ingest(&mut stream, 0, 0);
        ingest(&mut stream, 1, 0);
        let mark = stream.epoch();
        // Worker 1 then answers task 7, which worker 0 never touched:
        // worker 0 must still be dirtied (its pair with 1 moved).
        ingest(&mut stream, 1, 7);
        assert!(stream.is_dirty_since(WorkerId(0), mark));
        assert!(!stream.is_dirty_since(WorkerId(2), mark));
    }

    /// A matrix seed is one bulk ingest: epoch 1, everyone dirty at
    /// it, and `pair_row_into` lists exactly the positive-overlap
    /// peers with their statistics.
    #[test]
    fn seeded_substrates_start_fully_dirty_with_adjacency() {
        let data = sample(7, 30, 2, 41);
        let stream = StreamingIndex::from_matrix(&data);
        assert_eq!(stream.epoch(), 1);
        let mut dirty = Vec::new();
        stream.dirty_since(0, &mut dirty);
        assert_eq!(dirty.len(), 7, "every worker dirty after a seed");
        stream.dirty_since(1, &mut dirty);
        assert!(dirty.is_empty());

        let mut row = Vec::new();
        for a in stream.index().workers() {
            row.clear();
            assert!(
                stream.pair_row_into(a, &mut row),
                "streaming substrates walk pair rows"
            );
            let expect: Vec<(WorkerId, PairStats)> = stream
                .index()
                .workers()
                .filter(|&b| b != a)
                .map(|b| (b, crate::pair_stats(&data, a, b)))
                .filter(|(_, s)| s.common_tasks > 0)
                .collect();
            assert_eq!(row, expect, "anchor {a:?}");
        }
    }

    /// Rejected responses leave the substrate untouched.
    #[test]
    fn rejected_ingest_is_a_no_op() {
        let data = sample(4, 20, 2, 77);
        let mut stream = StreamingIndex::from_matrix(&data);
        let some = data.iter().next().unwrap();
        assert!(stream.record_response(some).is_err());
        assert_eq!(stream.n_responses(), data.n_responses());
        assert_eq!(stream.epoch(), 1, "rejected ingest must not tick the epoch");
        assert_eq!(stream.index(), &OverlapIndex::from_matrix(&data));
    }
}
