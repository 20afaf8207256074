//! The [`OverlapIndex`] — the one-pass sufficient-statistics substrate
//! behind fleet-wide assessment.
//!
//! The estimators' hot path consumes three families of statistics:
//!
//! 1. pairwise co-occurrence and agreement counts `(c_ij, a_ij)`,
//! 2. triple overlap counts `c_ijk`,
//! 3. joint label views for the k-ary counts tensor.
//!
//! The historical code recomputed each by a merge scan over per-worker
//! response lists at every use, which turns `evaluate_all` on `m`
//! workers into an `O(m³·n̄)`–`O(m⁴·n̄)` fan-out of redundant scans.
//! The index is built in **one pass over the response matrix** and
//! packs:
//!
//! * a segmented task → `(worker, label)` adjacency,
//! * a segmented worker → `(task, label)` adjacency,
//! * the pair table (a [`PairMap`], whose rows are sparse or dense by
//!   co-occurrence degree), bulk-built **per worker row** — each
//!   worker's co-responders are counted into a scratch row and
//!   compacted once, so the table costs `O(Σ_t r_t²)` once instead of
//!   `O(m²)` merge scans.
//!
//! Triple statistics cannot be tabulated up front (`O(m³)` space), so
//! the index answers them two ways: merge scans over its adjacency
//! rows for one-off queries, and — the workhorse of Algorithm A2's
//! Lemma 4 covariance — an [`AnchoredOverlap`] view that fixes one
//! worker and answers `c_{anchor,a,b}` by bitset intersection over the
//! anchor's task set, turning the `O(l²)` triple scans of one worker
//! evaluation into word-parallel popcounts.
//!
//! # Peer-scoped anchored views
//!
//! An evaluation only ever queries its anchored view about the ≤ 2l
//! peers the pairing selected, so [`OverlapSource::anchored_for`]
//! scopes the view to a declared peer set: a `PeerMask` remaps each
//! peer to a dense mask row, the build stamps the anchor's slots into
//! an epoch-invalidated task→slot map and walks each peer's task row
//! once (`O(l_anchor + Σ_{p ∈ peers} l_p)`), and the matrix holds
//! `peers · ⌈l_anchor/64⌉` words — memory tracks the
//! pairing degree, never the population. Near-population scopes
//! (> m/2 peers, the paper-default uncapped pairing) are upgraded to
//! the identity map and the legacy `O(Σ_{t ∈ tasks(anchor)} r_t)`
//! responder fill, which is cheaper there; both fills produce the same
//! bits, so the choice is invisible to every query. Every view is
//! built into the one build scratch its [`crate::StreamingIndex`]
//! owns (mask words and slot map together), so consecutive builds
//! allocate nothing once the scratch has reached the largest view.
//!
//! # Batched Gram kernels
//!
//! The covariance assemblies do not query anchored views pair by pair:
//! they ask for the whole peers×peers table up front through
//! [`AnchoredOverlap::gram_into`] (and the k-ary `n₅` table through
//! [`AnchoredOverlap::pair_gram_into`]), computed in one
//! register-blocked pass over the mask words — `O(T²·n̄/64)` repeated
//! per-pair popcount work per anchor becomes one `O(l²·n̄/64)` blocked
//! pass plus `O(T²)` table reads. See [`crate::gram`] for the kernel
//! and the cost model.
//!
//! # Streaming appends and the amortization invariant
//!
//! The index is also what the **streaming** substrate holds: one
//! long-lived instance absorbs responses via
//! [`OverlapIndex::record_response`]
//! and stays observation-equivalent to `OverlapIndex::from_matrix` on
//! the accumulated data (the differential property tests in
//! `crates/data/tests/proptests.rs` enforce exactly this, for every
//! ingest order).
//!
//! To make appends cheap, each adjacency row is an independently
//! growable **segment** (a `Vec` with geometric capacity doubling)
//! rather than a slice of one packed CSR arena:
//!
//! * every row stays contiguous, so the merge scans and bitset builds
//!   read the exact same task-sorted / worker-sorted slices as before;
//! * appending response `(w, t)` is a sorted insert into two rows —
//!   `O(log r + r)` in the row lengths, amortized over the doubling —
//!   plus an `O(r_t)` pair-table update against the task's current
//!   responders (a pair row that reaches the dense threshold is
//!   promoted once, in `O(m)`); **no append ever triggers a
//!   whole-index rebuild**.
//!
//! The invariant: after any interleaving of builds and appends, row
//! `w` of the worker adjacency is exactly the task-sorted response
//! list of `w` (ditto tasks), and the pair table — row forms included —
//! equals the bulk build of the accumulated data. Batch construction keeps
//! its one-pass cost; the only price of streamability is the per-row
//! capacity slack (bounded by 2× the row length).
//!
//! [`OverlapSource`] abstracts over the two providers — naive matrix
//! scans and the [`crate::StreamingIndex`] that wraps this index — so
//! the estimators are written once and the naive scan path stays
//! available as the correctness reference for the equivalence tests.
//! It also owns what an evaluation loop reuses from worker to worker
//! (the k-ary counts tensor, [`OverlapSource::fill_counts`]), so an
//! estimator has one evaluation body and no per-substrate entry
//! points. The index itself is plain data: rows plus pair table,
//! `Eq`, and what checkpoints compare.

use std::cell::{Ref, RefCell};
use std::collections::TryReserveError;

use crate::{
    CountsTensor, Label, PairMap, PairStats, PeerGram, PeerGramScratch, Response, ResponseMatrix,
    TaskId, TriplePairGram, TripleStats, WorkerId,
};

/// A provider of pairwise and triple overlap statistics over one
/// response data set.
///
/// Implemented by [`ResponseMatrix`] (merge scans — the naive
/// reference) and [`crate::StreamingIndex`] (pair-table lookups, CSR
/// scans, and anchored bitset popcounts for triples). Both return
/// *identical* counts — only the cost differs — which is what lets
/// each estimator keep one substrate-generic evaluation body whose
/// output bits do not depend on the substrate.
pub trait OverlapSource {
    /// The anchored triple-overlap view; see [`OverlapSource::anchored`].
    type Anchored<'a>: AnchoredOverlap
    where
        Self: 'a;

    /// Number of workers covered (including silent ones).
    fn n_workers(&self) -> usize;

    /// Task arity (k) of the underlying data.
    fn arity(&self) -> u16;

    /// Pairwise co-occurrence and agreement counts for `(a, b)`.
    fn pair(&self, a: WorkerId, b: WorkerId) -> PairStats;

    /// Triple overlap count `c_abc`.
    fn triple(&self, a: WorkerId, b: WorkerId, c: WorkerId) -> TripleStats;

    /// A view answering many triple queries that all share the fixed
    /// worker `anchor` — the access pattern of the Lemma 4 covariance
    /// assembly (`c_{i,a,b}` for one evaluated worker `i` and many peer
    /// pairs). Covers the whole population: any worker may be queried.
    fn anchored(&self, anchor: WorkerId) -> Self::Anchored<'_>;

    /// [`OverlapSource::anchored`] scoped to a declared peer set: the
    /// view only promises to answer queries about workers in `peers`
    /// (order and duplicates are irrelevant). The m-worker estimators
    /// only ever query the ≤ 2l peers their pairing selected, so a
    /// scoped view lets bitset implementations allocate `O(peers)`
    /// mask rows instead of `O(n_workers)` — the fleet-scale lever.
    ///
    /// Querying a worker outside `peers` is a contract violation:
    /// scan-based implementations still answer (they ignore the
    /// scope), but bitset implementations panic. The default simply
    /// forwards to the population-wide [`OverlapSource::anchored`].
    ///
    /// **One view at a time.** A [`crate::StreamingIndex`] builds every
    /// view into the one scratch it owns, and the view borrows that
    /// scratch, so a second `anchored`/`anchored_for` call on the same
    /// substrate while an earlier view is alive panics. Callers hold a
    /// view only inside one statement (`src.anchored_for(..).gram_into(..)`).
    fn anchored_for(&self, anchor: WorkerId, peers: &[WorkerId]) -> Self::Anchored<'_> {
        let _ = peers;
        self.anchored(anchor)
    }

    /// Re-fills `tensor` with the Algorithm A3 counts tensor of the
    /// triple `(w1, w2, w3)`, re-shaping it if its arity differs from
    /// [`OverlapSource::arity`], so one tensor can be reused across
    /// triples and substrates. Counts are identical on every substrate.
    fn fill_counts(&self, tensor: &mut CountsTensor, w1: WorkerId, w2: WorkerId, w3: WorkerId);

    /// If the substrate tracks co-occurrence explicitly, appends the
    /// workers sharing at least one task with `worker` to `out`
    /// (ascending by id, `worker` itself excluded) and returns `true`;
    /// otherwise returns `false` and leaves `out` untouched — callers
    /// must then scan the whole population. This is the pairing
    /// candidate scan's fast path: the index's pair table lists a
    /// worker's peers directly (`O(d_w)` on a sparse row) instead of
    /// `O(m)` lookups, and because workers absent
    /// from the list have zero overlap by construction, consumers that
    /// filter on a minimum overlap see the **same candidate set in the
    /// same order** either way.
    fn co_occurring_into(&self, worker: WorkerId, out: &mut Vec<WorkerId>) -> bool {
        let _ = (worker, out);
        false
    }
}

/// Triple-overlap queries sharing one fixed anchor worker.
pub trait AnchoredOverlap {
    /// `c_{anchor,a,b}`: tasks attempted by the anchor and both peers.
    fn triple_common(&self, a: WorkerId, b: WorkerId) -> usize;

    /// Tasks attempted by the anchor and *every* worker in `others`
    /// (the `n₅` count of the k-ary cross-triple covariance).
    fn common_among(&self, others: &[WorkerId]) -> usize;

    /// Fills `gram` with the full peers×peers symmetric matrix of
    /// triple-overlap counts for `peers` (order and duplicates are
    /// irrelevant; the gram sorts and deduplicates), with the per-peer
    /// pair overlaps `c_{anchor,a}` on the diagonal. After this call,
    /// [`PeerGram::get`] answers every
    /// [`AnchoredOverlap::triple_common`] query about in-set peers by
    /// table read — the batched entry point of the Lemma 4 covariance
    /// assembly (see [`crate::gram`]).
    ///
    /// The default computes each entry by a per-pair
    /// [`AnchoredOverlap::triple_common`] query — the pre-gram
    /// reference path; bitset views override it with the one-pass
    /// register-blocked kernel. Counts are identical either way.
    fn gram_into(&self, peers: &[WorkerId], gram: &mut PeerGram, scratch: &mut PeerGramScratch) {
        let _ = scratch;
        gram.reset(peers);
        for i in 0..gram.dim() {
            let a = gram.peer(i);
            for j in i..gram.dim() {
                let c = self.triple_common(a, gram.peer(j));
                gram.set_symmetric(i, j, c as u32);
            }
        }
    }

    /// Allocating convenience wrapper around
    /// [`AnchoredOverlap::gram_into`].
    fn gram(&self, peers: &[WorkerId]) -> PeerGram {
        let mut gram = PeerGram::default();
        self.gram_into(peers, &mut gram, &mut PeerGramScratch::default());
        gram
    }

    /// Fills `gram` with the T×T table of k-ary cross-triple `n₅`
    /// counts for the given peer pairs:
    /// `gram.get(t1, t2) = common_among(&[a₁, b₁, a₂, b₂])`, the
    /// diagonal holding each pair's own `c_{anchor,a,b}`.
    ///
    /// The default issues one [`AnchoredOverlap::common_among`] query
    /// per entry — the pre-gram reference path; bitset views override
    /// it by AND-combining each pair's mask rows once and running the
    /// blocked Gram kernel over the combined rows. Counts are
    /// identical either way.
    fn pair_gram_into(
        &self,
        pairs: &[(WorkerId, WorkerId)],
        gram: &mut TriplePairGram,
        scratch: &mut PeerGramScratch,
    ) {
        let _ = scratch;
        gram.reset(pairs.len());
        for (t1, &(a1, b1)) in pairs.iter().enumerate() {
            for (t2, &(a2, b2)) in pairs.iter().enumerate().skip(t1) {
                let c = if t1 == t2 {
                    self.common_among(&[a1, b1])
                } else {
                    self.common_among(&[a1, b1, a2, b2])
                };
                gram.set_symmetric(t1, t2, c as u32);
            }
        }
    }
}

/// Anchored view that falls back to per-query scans of a matrix — the
/// naive reference implementation.
#[derive(Debug, Clone, Copy)]
pub struct ScanAnchored<'a> {
    data: &'a ResponseMatrix,
    anchor: WorkerId,
}

impl AnchoredOverlap for ScanAnchored<'_> {
    fn triple_common(&self, a: WorkerId, b: WorkerId) -> usize {
        crate::triple_overlap(self.data, self.anchor, a, b).common_tasks
    }

    fn common_among(&self, others: &[WorkerId]) -> usize {
        self.data
            .worker_responses(self.anchor)
            .iter()
            .filter(|&&(task, _)| {
                others
                    .iter()
                    .all(|&w| self.data.response(w, TaskId(task)).is_some())
            })
            .count()
    }
}

impl OverlapSource for ResponseMatrix {
    type Anchored<'a> = ScanAnchored<'a>;

    fn n_workers(&self) -> usize {
        ResponseMatrix::n_workers(self)
    }

    fn arity(&self) -> u16 {
        ResponseMatrix::arity(self)
    }

    fn pair(&self, a: WorkerId, b: WorkerId) -> PairStats {
        crate::pair_stats(self, a, b)
    }

    fn triple(&self, a: WorkerId, b: WorkerId, c: WorkerId) -> TripleStats {
        crate::triple_overlap(self, a, b, c)
    }

    fn anchored(&self, anchor: WorkerId) -> ScanAnchored<'_> {
        ScanAnchored { data: self, anchor }
    }

    fn fill_counts(&self, tensor: &mut CountsTensor, w1: WorkerId, w2: WorkerId, w3: WorkerId) {
        *tensor = CountsTensor::from_matrix(self, w1, w2, w3);
    }
}

/// The one-pass overlap substrate; see the [module docs](self).
///
/// # Example
///
/// ```
/// use crowd_data::{Label, OverlapIndex, ResponseMatrixBuilder, TaskId, WorkerId};
///
/// let mut b = ResponseMatrixBuilder::new(3, 4, 2);
/// for t in 0..4u32 {
///     b.push(WorkerId(0), TaskId(t), Label(0))?;
///     b.push(WorkerId(1), TaskId(t), Label((t % 2) as u16))?;
/// }
/// b.push(WorkerId(2), TaskId(1), Label(1))?;
/// let data = b.build()?;
///
/// let index = OverlapIndex::from_matrix(&data);
/// assert_eq!(index.pairs().get(WorkerId(0), WorkerId(1)).common_tasks, 4);
/// assert_eq!(index.pairs().get(WorkerId(0), WorkerId(1)).agreements, 2);
/// assert_eq!(index.worker_responses(WorkerId(2)), &[(1, Label(1))]);
/// # Ok::<(), crowd_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapIndex {
    n_workers: usize,
    n_tasks: usize,
    n_responses: usize,
    arity: u16,
    /// Per-worker `(task, label)` rows, task-sorted. Each row is an
    /// independently growable segment (see the module docs).
    worker_rows: Vec<Vec<(u32, Label)>>,
    /// Per-task `(worker, label)` rows, worker-sorted.
    task_rows: Vec<Vec<(u32, Label)>>,
    /// Pair agreement/co-occurrence table, density-adaptive per row.
    pairs: PairMap,
}

impl OverlapIndex {
    /// An empty index of the given shape, ready for
    /// [`OverlapIndex::record_response`]-driven streaming fills.
    ///
    /// # Panics
    /// Panics if `arity < 2` (mirroring
    /// [`crate::ResponseMatrixBuilder::new`]), or if the task rows
    /// cannot be allocated.
    pub fn new(n_workers: usize, n_tasks: usize, arity: u16) -> Self {
        Self::try_new(n_workers, n_tasks, arity).expect("index shape exceeds available memory")
    }

    /// [`OverlapIndex::new`], returning the allocation failure of an
    /// oversized task-id space instead of aborting (a checkpoint
    /// restore reads it from untrusted bytes; every other part of the
    /// shape is bounded by the input's length).
    ///
    /// # Panics
    /// Panics if `arity < 2`.
    pub(crate) fn try_new(
        n_workers: usize,
        n_tasks: usize,
        arity: u16,
    ) -> Result<Self, TryReserveError> {
        assert!(
            arity >= 2,
            "tasks must have at least two possible responses"
        );
        let mut task_rows = Vec::new();
        task_rows.try_reserve_exact(n_tasks)?;
        task_rows.resize(n_tasks, Vec::new());
        Ok(Self {
            n_workers,
            n_tasks,
            n_responses: 0,
            arity,
            worker_rows: vec![Vec::new(); n_workers],
            task_rows,
            pairs: PairMap::empty(n_workers),
        })
    }

    /// Builds the index in one pass over the matrix: the task and
    /// worker rows are copied from the matrix's adjacencies, and the
    /// pair table is bulk-built row by row
    /// ([`PairMap::from_matrix`]).
    ///
    /// The adjacencies are *owned copies* (≈ 2·nnz entries) rather than
    /// borrows of the matrix: the index is self-contained, so it can
    /// outlive the matrix, be shipped to worker shards on its own, and
    /// keep its rows contiguous for the merge scans.
    pub fn from_matrix(data: &ResponseMatrix) -> Self {
        let nnz = data.n_responses();
        // Pair-table counts are packed into u32 (8 bytes per entry
        // matters at fleet scale); make the resulting capacity limit
        // explicit instead of silently wrapping.
        assert!(
            nnz <= u32::MAX as usize,
            "OverlapIndex supports at most {} responses, got {nnz}; \
             shard the matrix before indexing",
            u32::MAX
        );
        Self {
            n_workers: data.n_workers(),
            n_tasks: data.n_tasks(),
            n_responses: nnz,
            arity: data.arity(),
            worker_rows: data
                .workers()
                .map(|w| data.worker_responses(w).to_vec())
                .collect(),
            task_rows: data
                .tasks()
                .map(|t| data.task_responses(t).to_vec())
                .collect(),
            pairs: PairMap::from_matrix(data),
        }
    }

    /// Appends one response, keeping every view of the index exactly
    /// equivalent to a fresh [`OverlapIndex::from_matrix`] build on the
    /// accumulated data: sorted insert into the worker and task rows
    /// (`O(log r + r)`, amortized over the rows' geometric growth) and
    /// an `O(r_t)` pair-table update against the task's current
    /// responders. Rejects out-of-range ids, out-of-arity labels and
    /// duplicate `(worker, task)` responses via [`crate::DataError`].
    pub fn record_response(&mut self, response: Response) -> crate::Result<()> {
        let Response {
            worker,
            task,
            label,
        } = response;
        if worker.index() >= self.n_workers {
            return Err(crate::DataError::UnknownId {
                kind: "worker",
                id: worker.0,
            });
        }
        if task.index() >= self.n_tasks {
            return Err(crate::DataError::UnknownId {
                kind: "task",
                id: task.0,
            });
        }
        if !label.valid_for_arity(self.arity) {
            return Err(crate::DataError::LabelOutOfRange {
                label: label.0,
                arity: self.arity,
            });
        }
        assert!(
            self.n_responses < u32::MAX as usize,
            "OverlapIndex supports at most {} responses; \
             shard the stream before indexing",
            u32::MAX
        );
        // Both duplicate checks run before any mutation, so a rejected
        // response leaves the index untouched (the second is
        // unreachable while the worker/task rows mirror each other,
        // but must not be able to half-apply the append if that
        // invariant is ever broken).
        let w_pos =
            match self.worker_rows[worker.index()].binary_search_by_key(&task.0, |&(t, _)| t) {
                Ok(_) => return Err(crate::DataError::DuplicateResponse { worker, task }),
                Err(pos) => pos,
            };
        let t_pos = match self.task_rows[task.index()].binary_search_by_key(&worker.0, |&(w, _)| w)
        {
            Ok(_) => return Err(crate::DataError::DuplicateResponse { worker, task }),
            Err(pos) => pos,
        };
        // The pair table wants the task's responders *without* the new
        // response, so harvest before the task-row insert.
        self.pairs
            .record_response(worker, label, &self.task_rows[task.index()]);
        self.worker_rows[worker.index()].insert(w_pos, (task.0, label));
        self.task_rows[task.index()].insert(t_pos, (worker.0, label));
        self.n_responses += 1;
        Ok(())
    }

    /// Number of workers covered.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Number of tasks covered.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Total responses indexed.
    #[inline]
    pub fn n_responses(&self) -> usize {
        self.n_responses
    }

    /// Task arity (k).
    #[inline]
    pub fn arity(&self) -> u16 {
        self.arity
    }

    /// The pair table.
    #[inline]
    pub fn pairs(&self) -> &PairMap {
        &self.pairs
    }

    /// One worker's `(task, label)` row, task-sorted.
    #[inline]
    pub fn worker_responses(&self, worker: WorkerId) -> &[(u32, Label)] {
        &self.worker_rows[worker.index()]
    }

    /// One task's `(worker, label)` row, worker-sorted.
    #[inline]
    pub fn task_responses(&self, task: TaskId) -> &[(u32, Label)] {
        &self.task_rows[task.index()]
    }

    /// All worker ids.
    pub fn workers(&self) -> impl Iterator<Item = WorkerId> + '_ {
        (0..self.n_workers as u32).map(WorkerId)
    }

    /// All task ids.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.n_tasks as u32).map(TaskId)
    }

    /// The joint (possibly absent) labels of three workers on every
    /// task at least one of them attempted, by a three-way **union**
    /// merge of the CSR rows — `O(|w₁| + |w₂| + |w₃|)`, versus the
    /// matrix path's full scan over all `n` tasks with a binary search
    /// per cell. Ordering and contents match
    /// [`crate::triple_joint_labels_optional`] exactly.
    pub fn triple_joint_labels_optional(
        &self,
        a: WorkerId,
        b: WorkerId,
        c: WorkerId,
    ) -> Vec<(Option<Label>, Option<Label>, Option<Label>)> {
        let mut out = Vec::new();
        self.triple_joint_for_each(a, b, c, |row| out.push(row));
        out
    }

    /// Visitor form of [`OverlapIndex::triple_joint_labels_optional`]:
    /// the same three-way union merge, but each joint row is handed to
    /// `visit` instead of collected — the allocation-free path the
    /// reusable k-ary counts-tensor fill runs on
    /// ([`OverlapSource::fill_counts`] on an index).
    pub fn triple_joint_for_each(
        &self,
        a: WorkerId,
        b: WorkerId,
        c: WorkerId,
        mut visit: impl FnMut((Option<Label>, Option<Label>, Option<Label>)),
    ) {
        let (la, lb, lc) = (
            self.worker_responses(a),
            self.worker_responses(b),
            self.worker_responses(c),
        );
        let (mut i, mut j, mut k) = (0, 0, 0);
        loop {
            let ta = la.get(i).map(|e| e.0);
            let tb = lb.get(j).map(|e| e.0);
            let tc = lc.get(k).map(|e| e.0);
            let Some(t) = [ta, tb, tc].into_iter().flatten().min() else {
                break;
            };
            let mut row = (None, None, None);
            if ta == Some(t) {
                row.0 = Some(la[i].1);
                i += 1;
            }
            if tb == Some(t) {
                row.1 = Some(lb[j].1);
                j += 1;
            }
            if tc == Some(t) {
                row.2 = Some(lc[k].1);
                k += 1;
            }
            visit(row);
        }
    }
}

/// The peer → mask-row remap layer under [`MaskMatrix`].
///
/// Anchored views only ever answer queries about the peers their
/// caller declared (the ≤ 2l workers a pairing selected), so the bit
/// matrix does not need a row per *worker* — only a row per *peer*.
/// `PeerMask` is that remap: a dense, sorted peer → row map, with an
/// identity fast path for population-wide views so the full-view
/// adapter pays no lookup cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PeerMask {
    /// Identity over the whole population: worker `w` ↔ row `w`.
    Population(usize),
    /// Sorted, deduplicated peer ids; `peers[r]` ↔ row `r`. Lookups
    /// are a binary search over the (small) peer list.
    Peers(Vec<u32>),
}

impl PeerMask {
    /// The identity map over `n_workers` rows.
    pub(crate) fn population(n_workers: usize) -> Self {
        Self::Population(n_workers)
    }

    /// A scoped map for the given peers (sorted and deduplicated; the
    /// caller's order and duplicates are irrelevant to the view),
    /// upgraded to the identity map when the peer set covers more than
    /// half the population. Near-population scopes gain nothing from
    /// remapping — the per-peer build costs more than the legacy
    /// per-task responder fill and the memory saving is < 2× — so the
    /// paper-default (uncapped) pairing keeps its original build cost
    /// to the cycle, while genuinely small scopes (the fleet-capped
    /// case) get `O(peers)` rows.
    pub(crate) fn scoped_for(peers: &[WorkerId], n_workers: usize) -> Self {
        let mut ids: Vec<u32> = peers.iter().map(|w| w.0).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() * 2 > n_workers {
            Self::Population(n_workers)
        } else {
            Self::Peers(ids)
        }
    }

    /// Number of mask rows this map addresses.
    pub(crate) fn rows(&self) -> usize {
        match self {
            Self::Population(m) => *m,
            Self::Peers(ids) => ids.len(),
        }
    }

    /// The mask row of `worker`; panics (contract violation) when the
    /// worker is outside the declared peer scope.
    #[inline]
    pub(crate) fn row_of(&self, worker: WorkerId) -> usize {
        let row = match self {
            Self::Population(m) => (worker.index() < *m).then_some(worker.index()),
            Self::Peers(ids) => ids.binary_search(&worker.0).ok(),
        };
        row.unwrap_or_else(|| {
            panic!("worker {worker:?} is outside this anchored view's peer scope")
        })
    }

    /// The worker occupying mask row `row`.
    #[inline]
    pub(crate) fn worker_of(&self, row: usize) -> u32 {
        match self {
            Self::Population(_) => row as u32,
            Self::Peers(ids) => ids[row],
        }
    }
}

/// Row-block size of the blocked Gram kernel
/// ([`MaskMatrix::gram_rows_into`]): pairs are visited 4×4 rows at a
/// time so a block of rows is re-intersected while still L1-resident
/// (8 rows × ⌈n̄/64⌉ words comfortably fit); widening the block is the
/// first knob to turn once a wider SIMD lane makes the kernel
/// memory-bound.
pub(crate) const GRAM_BLOCK: usize = 4;

/// The AND+popcount inner product of the Gram kernels, with the SIMD
/// lane resolved **once per kernel invocation**: on x86-64 hosts with
/// AVX-512 `VPOPCNTDQ` the counts come from the hardware per-lane
/// popcount routine ([`and_popcount_avx512`]), on AVX2-only hosts
/// from the vectorized nibble-LUT routine ([`and_popcount_avx2`], or
/// [`and_popcount_avx2_harley_seal`] for masks of ≥ 64 words),
/// everywhere else from the portable word loop. Every lane computes
/// the same integers — the dispatch is invisible to every output
/// bit — and detection is hoisted out of the pair loop so the hot
/// path pays one predictable branch per pair.
///
/// On a host that reports `avx512vpopcntdq` (the Xeon VMs this
/// workspace is benchmarked on do), the AVX-512 lane is the production
/// lane: the two AVX2 lanes then run only when
/// `popcount_lanes_are_bit_identical` forces them.
#[derive(Clone, Copy)]
pub(crate) struct AndPopcount {
    #[cfg(target_arch = "x86_64")]
    avx512: bool,
    #[cfg(target_arch = "x86_64")]
    avx2: bool,
}

impl AndPopcount {
    /// Resolves the fastest available lane for this host.
    #[inline]
    pub(crate) fn detect() -> Self {
        Self {
            // `avx512f` guards the 512-bit register file and
            // arithmetic, `avx512vpopcntdq` the per-lane popcount the
            // kernel is built around; both ship together on Ice
            // Lake+ / Zen 4+ but are distinct CPUID bits.
            #[cfg(target_arch = "x86_64")]
            avx512: std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vpopcntdq"),
            #[cfg(target_arch = "x86_64")]
            avx2: std::arch::is_x86_feature_detected!("avx2"),
        }
    }

    /// The portable reference lane, kept callable on every host so the
    /// property tests can pin the vector lanes against it.
    #[cfg(test)]
    #[inline]
    pub(crate) fn portable() -> Self {
        Self {
            #[cfg(target_arch = "x86_64")]
            avx512: false,
            #[cfg(target_arch = "x86_64")]
            avx2: false,
        }
    }

    /// `popcount(a & b)` over two equal-length word slices. Masks
    /// under 8 words stay on the inlined scalar loop — a
    /// `#[target_feature]` function cannot be inlined into its
    /// caller, and for a handful of words the call itself would cost
    /// more than it saves.
    #[inline]
    pub(crate) fn count(self, a: &[u64], b: &[u64]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        {
            if self.avx512 && a.len() >= 8 {
                // SAFETY: `detect` verified AVX-512F + VPOPCNTDQ
                // support on this host.
                return unsafe { and_popcount_avx512(a, b) };
            }
            if self.avx2 && a.len() >= 8 {
                if a.len() >= 64 {
                    // Wide masks amortize the Harley–Seal CSA tree: one
                    // shuffle-LUT popcount per 16 vectors instead of
                    // per vector lifts the port-5 bound (see
                    // [`and_popcount_avx2_harley_seal`]).
                    // SAFETY: `detect` verified AVX2 support.
                    return unsafe { and_popcount_avx2_harley_seal(a, b) };
                }
                // SAFETY: `detect` verified AVX2 support on this host.
                return unsafe { and_popcount_avx2(a, b) };
            }
        }
        a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
    }
}

/// Vectorized AND+popcount on the AVX-512 `VPOPCNTDQ` lane: 8 mask
/// words per step — one 512-bit AND, one hardware per-lane popcount
/// (`vpopcntq`), one lane-wise accumulate. No shuffle-LUT dance at
/// all, so the port-5 pressure that bounds the AVX2 nibble kernel on
/// Intel cores disappears; two independent accumulator chains (16
/// words per iteration) keep the popcount unit fed.
///
/// # Safety
/// The caller must ensure the host supports AVX-512F and
/// AVX-512VPOPCNTDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
fn and_popcount_avx512(a: &[u64], b: &[u64]) -> u32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let chunks = n / 8;
    let mut acc0 = _mm512_setzero_si512();
    let mut acc1 = _mm512_setzero_si512();
    let pairs = chunks / 2;
    for i in 0..pairs {
        // SAFETY: `16 * i + 15 < n` for every `i < pairs`, so all four
        // 64-byte loads are in bounds; `loadu` has no alignment
        // requirement.
        let (v0, v1) = unsafe {
            let p = a.as_ptr().add(16 * i);
            let q = b.as_ptr().add(16 * i);
            (
                _mm512_and_si512(_mm512_loadu_si512(p.cast()), _mm512_loadu_si512(q.cast())),
                _mm512_and_si512(
                    _mm512_loadu_si512(p.add(8).cast()),
                    _mm512_loadu_si512(q.add(8).cast()),
                ),
            )
        };
        acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(v0));
        acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(v1));
    }
    if chunks % 2 == 1 {
        // SAFETY: the last full 8-word chunk starts at `8 * (chunks - 1)`.
        let v = unsafe {
            let p = a.as_ptr().add(8 * (chunks - 1));
            let q = b.as_ptr().add(8 * (chunks - 1));
            _mm512_and_si512(_mm512_loadu_si512(p.cast()), _mm512_loadu_si512(q.cast()))
        };
        acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(v));
    }
    let mut total = _mm512_reduce_add_epi64(_mm512_add_epi64(acc0, acc1)) as u64;
    let mut i = chunks * 8;
    while i < n {
        total += (a[i] & b[i]).count_ones() as u64;
        i += 1;
    }
    total as u32
}

/// Vectorized AND+popcount (Mula's `vpshufb` nibble-LUT algorithm):
/// 4 mask words per step — each 32-byte block is split into nibbles,
/// both halves are table-looked-up in one shuffle each, and
/// `vpsadbw` folds the byte counts into four running u64 lanes. The
/// body is written directly in intrinsics because rustc does not
/// inline ordinary (non-`target_feature`) code into a
/// `#[target_feature]` function, so iterator-based formulations
/// compile to outlined calls instead of vector code.
///
/// # Safety
/// The caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn and_popcount_avx2(a: &[u64], b: &[u64]) -> u32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let chunks = n / 4;
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    // Two independent accumulator chains (8 words per iteration) keep
    // the shuffle ports fed instead of serializing on one vpaddq.
    let mut acc0 = zero;
    let mut acc1 = zero;
    let nibble_count = |v| {
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
    };
    let pairs = chunks / 2;
    for i in 0..pairs {
        // SAFETY: `8 * i + 7 < n` for every `i < pairs`, so all four
        // 32-byte loads are in bounds; `loadu` has no alignment
        // requirement.
        let (v0, v1) = unsafe {
            let p = a.as_ptr().add(8 * i);
            let q = b.as_ptr().add(8 * i);
            (
                _mm256_and_si256(_mm256_loadu_si256(p.cast()), _mm256_loadu_si256(q.cast())),
                _mm256_and_si256(
                    _mm256_loadu_si256(p.add(4).cast()),
                    _mm256_loadu_si256(q.add(4).cast()),
                ),
            )
        };
        acc0 = _mm256_add_epi64(acc0, _mm256_sad_epu8(nibble_count(v0), zero));
        acc1 = _mm256_add_epi64(acc1, _mm256_sad_epu8(nibble_count(v1), zero));
    }
    if chunks % 2 == 1 {
        // SAFETY: the last full 4-word chunk starts at `4 * (chunks - 1)`.
        let v = unsafe {
            let p = a.as_ptr().add(4 * (chunks - 1));
            let q = b.as_ptr().add(4 * (chunks - 1));
            _mm256_and_si256(_mm256_loadu_si256(p.cast()), _mm256_loadu_si256(q.cast()))
        };
        acc0 = _mm256_add_epi64(acc0, _mm256_sad_epu8(nibble_count(v), zero));
    }
    let mut lanes = [0u64; 4];
    // SAFETY: `lanes` is 32 bytes of writable memory; `storeu` has no
    // alignment requirement.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), _mm256_add_epi64(acc0, acc1)) };
    let mut total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    let mut i = chunks * 4;
    while i < n {
        total += (a[i] & b[i]).count_ones() as u64;
        i += 1;
    }
    total as u32
}

/// Harley–Seal AND+popcount for wide masks on AVX2: 64 words (16
/// 256-bit vectors) per block are compressed through a carry-save
/// adder tree, so the shuffle-LUT popcount runs **once per block** on
/// the `sixteens` output instead of once per vector. The CSA tree is
/// pure AND/OR/XOR — instructions every vector ALU port executes — so
/// the port-5 `vpshufb` bound of the plain nibble kernel
/// ([`and_popcount_avx2`]) lifts on AVX2-only Intel cores, where port
/// 5 is the single shuffle port. Counts are reconstructed exactly as
/// `16·pop(sixteens) + 8·pop(eights) + 4·pop(fours) + 2·pop(twos) +
/// pop(ones)`; the sub-block tail delegates to the nibble kernel, so
/// every length produces the same integers as the portable loop.
///
/// # Safety
/// The caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn and_popcount_avx2_harley_seal(a: &[u64], b: &[u64]) -> u32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let blocks = n / 64;
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    let nibble_count = |v| {
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
    };
    // Carry-save adder: bit-parallel full add of three lanes into a
    // (carry, sum) pair — `h` carries weight 2, `l` weight 1.
    let csa = |x, y, z| {
        let u = _mm256_xor_si256(x, y);
        (
            _mm256_or_si256(_mm256_and_si256(x, y), _mm256_and_si256(u, z)),
            _mm256_xor_si256(u, z),
        )
    };
    let mut ones = zero;
    let mut twos = zero;
    let mut fours = zero;
    let mut eights = zero;
    // u64-lane accumulator of popcounts over the per-block `sixteens`.
    let mut acc = zero;
    for blk in 0..blocks {
        // SAFETY: `64 * blk + 63 < n` for every `blk < blocks`, so all
        // 32-byte loads below are in bounds; `loadu` has no alignment
        // requirement.
        let d = |j: usize| unsafe {
            let p = a.as_ptr().add(64 * blk + 4 * j);
            let q = b.as_ptr().add(64 * blk + 4 * j);
            _mm256_and_si256(_mm256_loadu_si256(p.cast()), _mm256_loadu_si256(q.cast()))
        };
        let (twos_a, o) = csa(ones, d(0), d(1));
        let (twos_b, o) = csa(o, d(2), d(3));
        let (fours_a, t) = csa(twos, twos_a, twos_b);
        let (twos_a, o) = csa(o, d(4), d(5));
        let (twos_b, o) = csa(o, d(6), d(7));
        let (fours_b, t) = csa(t, twos_a, twos_b);
        let (eights_a, f) = csa(fours, fours_a, fours_b);
        let (twos_a, o) = csa(o, d(8), d(9));
        let (twos_b, o) = csa(o, d(10), d(11));
        let (fours_a, t) = csa(t, twos_a, twos_b);
        let (twos_a, o) = csa(o, d(12), d(13));
        let (twos_b, o) = csa(o, d(14), d(15));
        let (fours_b, t) = csa(t, twos_a, twos_b);
        let (eights_b, f) = csa(f, fours_a, fours_b);
        let (sixteens, e) = csa(eights, eights_a, eights_b);
        ones = o;
        twos = t;
        fours = f;
        eights = e;
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(nibble_count(sixteens), zero));
    }
    let hsum = |v| {
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is 32 bytes of writable memory; `storeu` has
        // no alignment requirement.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) };
        lanes[0] + lanes[1] + lanes[2] + lanes[3]
    };
    let pop = |v| hsum(_mm256_sad_epu8(nibble_count(v), zero));
    let mut total = 16 * hsum(acc) + 8 * pop(eights) + 4 * pop(fours) + 2 * pop(twos) + pop(ones);
    if !n.is_multiple_of(64) {
        // Same target-feature context, so the nibble kernel is a plain
        // (inlinable) call here — no re-dispatch, no `unsafe`.
        total += and_popcount_avx2(&a[64 * blocks..], &b[64 * blocks..]) as u64;
    }
    total as u32
}

/// The `rows × words` anchored bit matrix and its popcount kernels
/// behind [`BitsetAnchored`] (and, as combined rows, the k-ary `n₅`
/// kernel).
///
/// The anchor's attempted tasks occupy bit slots `0..anchor_tasks` in
/// task order; row `r` records which of those tasks the worker a
/// [`PeerMask`] assigns to `r` attempted. Every query is a popcount.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaskMatrix {
    /// Words per row.
    words: usize,
    /// Slots in use (= tasks the anchor attempted).
    anchor_tasks: usize,
    /// Row-major bit matrix.
    masks: Vec<u64>,
}

impl MaskMatrix {
    /// Re-shapes the matrix in place for a fresh build — `n_rows`
    /// zeroed rows of `words` words with `slots` slots claimed —
    /// reusing the existing word allocation when it is large enough
    /// and growing it to exactly the new size when it is not, so the
    /// allocation is always the largest shape built so far.
    pub(crate) fn reset(&mut self, n_rows: usize, words: usize, slots: usize) {
        let words = words.max(1);
        debug_assert!(slots <= words * 64, "claimed slots exceed capacity");
        self.words = words;
        self.anchor_tasks = slots;
        self.masks.clear();
        self.masks.reserve_exact(n_rows * words);
        self.masks.resize(n_rows * words, 0);
    }

    /// Bytes resident in the bit matrix. Reports the allocation's
    /// *capacity*, not its in-use length — a [`MaskMatrix::reset`]
    /// keeps slack for reuse, and pretending that slack is free would
    /// overstate any measured memory reduction.
    pub(crate) fn mask_bytes(&self) -> usize {
        self.masks.capacity() * std::mem::size_of::<u64>()
    }

    /// Marks `row` as having attempted the anchor task in `slot`.
    #[inline]
    pub(crate) fn set_bit(&mut self, row: usize, slot: u32) {
        let (word, bit) = (slot as usize / 64, slot as usize % 64);
        self.masks[row * self.words + word] |= 1u64 << bit;
    }

    #[inline]
    fn mask(&self, row: usize) -> &[u64] {
        &self.masks[row * self.words..(row + 1) * self.words]
    }

    /// Mutable view of one row's words — the anchored fill's hot loop
    /// sets many bits per row, so it borrows the row once instead of
    /// paying [`MaskMatrix::set_bit`]'s offset math per bit.
    #[inline]
    pub(crate) fn row_mut(&mut self, row: usize) -> &mut [u64] {
        &mut self.masks[row * self.words..(row + 1) * self.words]
    }

    /// `c_{anchor,a}`: tasks shared by the anchor and the worker of
    /// row `a`.
    pub(crate) fn pair_common(&self, a: usize) -> usize {
        self.mask(a).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `c_{anchor,a,b}` by word-parallel popcount.
    pub(crate) fn triple_common(&self, a: usize, b: usize) -> usize {
        self.mask(a)
            .iter()
            .zip(self.mask(b))
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// Words allocated per row.
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Slots in use (= tasks the anchor attempted).
    #[inline]
    pub(crate) fn anchor_slots(&self) -> usize {
        self.anchor_tasks
    }

    /// Fills row `row` with the AND of rows `a` and `b` of `src` —
    /// the derived "triple mask" of the k-ary `n₅` kernel. `self` must
    /// have been [`MaskMatrix::reset`] to `src`'s word count.
    pub(crate) fn fill_and_of(&mut self, row: usize, src: &MaskMatrix, a: usize, b: usize) {
        debug_assert_eq!(
            self.words, src.words,
            "combined rows mirror the source layout"
        );
        let (ra, rb) = (src.mask(a), src.mask(b));
        for (w, dst) in self.masks[row * self.words..(row + 1) * self.words]
            .iter_mut()
            .enumerate()
        {
            *dst = ra[w] & rb[w];
        }
    }

    /// The blocked Gram kernel behind [`crate::PeerGram`]: fills `out`
    /// with the `d × d` symmetric AND-popcount matrix of the given
    /// mask rows (`out[i·d + j] = popcount(rows[i] & rows[j])`,
    /// diagonal = per-row popcounts). Row pairs are visited
    /// [`GRAM_BLOCK`] × [`GRAM_BLOCK`] rows at a time, so one block of
    /// mask rows stays L1-resident while it is intersected against
    /// the opposite block — a per-pair [`MaskMatrix::triple_common`]
    /// loop instead re-streams every row once per opposite peer. The
    /// per-pair AND+popcount goes through [`AndPopcount`]: masks of
    /// 1–4 words run monomorphized fully-unrolled loops (the `match`
    /// below), wider masks an inlined scalar zip, and on x86-64 hosts
    /// masks of ≥ 8 words call the runtime-dispatched vectorized
    /// leaves — [`and_popcount_avx512`] where `VPOPCNTDQ` is
    /// available, [`and_popcount_avx2`] otherwise; `portable_simd`
    /// can drop into the same seam once stable. Every lane computes
    /// the same integers, so the dispatch is invisible to every
    /// output bit. Only the upper triangle of blocks is computed;
    /// entries are mirrored on write-back.
    pub(crate) fn gram_rows_into(&self, rows: &[usize], out: &mut Vec<u32>) {
        let d = rows.len();
        out.clear();
        out.resize(d * d, 0);
        // Monomorphize the 1–4-word cases: a fleet-capped anchor's
        // mask is often a word or two, and there the generic path's
        // per-pair slice setup and loop control cost more than the
        // popcounts themselves. `W = 0` keeps the dynamic loop (and
        // the AVX2 lane) for wide masks.
        match self.words {
            1 => self.gram_rows_kernel::<1>(rows, out),
            2 => self.gram_rows_kernel::<2>(rows, out),
            3 => self.gram_rows_kernel::<3>(rows, out),
            4 => self.gram_rows_kernel::<4>(rows, out),
            _ => self.gram_rows_kernel::<0>(rows, out),
        }
    }

    fn gram_rows_kernel<const W: usize>(&self, rows: &[usize], out: &mut [u32]) {
        const B: usize = GRAM_BLOCK;
        let d = rows.len();
        let pop = AndPopcount::detect();
        for i0 in (0..d).step_by(B) {
            let ih = (i0 + B).min(d);
            for j0 in (i0..d).step_by(B) {
                let jh = (j0 + B).min(d);
                for gi in i0..ih {
                    let left = self.mask(rows[gi]);
                    // Diagonal blocks compute the upper triangle only.
                    for gj in j0.max(gi)..jh {
                        let right = self.mask(rows[gj]);
                        let c = if W > 0 {
                            // One bounds check, then a fully unrolled
                            // compile-time-length popcount.
                            let (l, r) = (&left[..W], &right[..W]);
                            let mut acc = 0u32;
                            for w in 0..W {
                                acc += (l[w] & r[w]).count_ones();
                            }
                            acc
                        } else {
                            pop.count(left, right)
                        };
                        out[gi * d + gj] = c;
                        out[gj * d + gi] = c;
                    }
                }
            }
        }
    }

    /// Anchor tasks attempted by the worker of *every* row in `rows`.
    pub(crate) fn common_among(&self, rows: &[usize]) -> usize {
        let Some((&first, rest)) = rows.split_first() else {
            // Every anchor task trivially intersects an empty peer set.
            return self.anchor_tasks;
        };
        (0..self.words)
            .map(|w| {
                let mut acc = self.mask(first)[w];
                for &other in rest {
                    acc &= self.mask(other)[w];
                }
                acc.count_ones() as usize
            })
            .sum()
    }
}

/// An epoch-stamped `task → slot` map: `begin` invalidates every
/// entry in O(1) (a new epoch), so repeated peer-scoped builds never
/// pay an O(n) clear. Backing the anchored build with O(1) slot
/// lookups is what makes the peer fill `O(l_anchor + Σ_p l_p)` —
/// each peer row is walked once, no per-peer merge against the
/// anchor's row. It lives in the substrate's one [`BuildScratch`], so
/// its `O(n)` words are paid once per substrate, never once per view.
#[derive(Debug, Clone, Default)]
struct SlotStamps {
    epoch: u64,
    stamp: Vec<u64>,
    slot: Vec<u32>,
}

impl SlotStamps {
    /// Starts a fresh map covering tasks `0..n`.
    fn begin(&mut self, n: usize) {
        self.epoch += 1;
        if self.stamp.len() < n {
            // Epochs start at 1, so zeroed stamps never match.
            self.stamp.resize(n, 0);
            self.slot.resize(n, 0);
        }
    }

    #[inline]
    fn set(&mut self, task: u32, slot: u32) {
        self.stamp[task as usize] = self.epoch;
        self.slot[task as usize] = slot;
    }

    /// The mask word and bit of `task`'s slot, or word 0 and no bit
    /// when the anchor did not attempt `task`. Branch-free: whether a
    /// peer's response hits the anchor's tasks is close to a coin
    /// flip, and on a 2000-worker community fleet (density 0.35) the
    /// branching form made the peer fill about twice as slow.
    #[inline]
    fn word_bit(&self, task: u32) -> (usize, u64) {
        let hit = self.stamp[task as usize] == self.epoch;
        let slot = self.slot[task as usize] as usize;
        (
            if hit { slot / 64 } else { 0 },
            u64::from(hit) << (slot % 64),
        )
    }
}

/// The one build scratch of a [`crate::StreamingIndex`]: the mask
/// words every [`BitsetAnchored`] view of that substrate is filled
/// into and borrows, plus the slot map the fill stamps. Consecutive
/// builds reuse both, so an evaluation loop allocates nothing once
/// the scratch has reached its largest view.
#[derive(Debug, Clone, Default)]
pub(crate) struct BuildScratch {
    matrix: MaskMatrix,
    stamps: SlotStamps,
}

impl BuildScratch {
    /// Bytes resident in the mask words: the largest view built so
    /// far, exactly sized (see [`MaskMatrix::reset`]).
    pub(crate) fn mask_bytes(&self) -> usize {
        self.matrix.mask_bytes()
    }
}

/// Anchored triple overlaps by bitset intersection: a short-lived view
/// built when an evaluation asks for it, borrowing the one build
/// scratch its [`crate::StreamingIndex`] owns.
///
/// The anchor's attempted tasks define bit positions `0..s` (task
/// order). A `PeerMask` maps each in-scope worker to a mask row
/// recording which of those tasks it attempted; then
/// `c_{anchor,a,b} = popcount(masks[a] & masks[b])`, a handful of word
/// operations per query instead of a three-way merge scan.
///
/// Population-wide views ([`OverlapSource::anchored`]) fill their `m`
/// rows in one pass over the anchor's tasks' responder lists —
/// `O(Σ_{t ∈ tasks(anchor)} r_t)` build work and `m · ⌈s/64⌉` words.
/// Peer-scoped views ([`OverlapSource::anchored_for`]) instead stamp
/// the anchor's slots and walk each peer's task row once —
/// `O(l_anchor + Σ_{p ∈ peers} l_p)` build work and only
/// `peers · ⌈s/64⌉` words, so view memory tracks the pairing degree,
/// never the population.
#[derive(Debug)]
pub struct BitsetAnchored<'a> {
    matrix: Ref<'a, MaskMatrix>,
    peers: PeerMask,
}

impl<'a> BitsetAnchored<'a> {
    /// Fills `scratch` with `anchor`'s view over `peers` and returns
    /// the view borrowing it. The matrix is sized to the anchor's
    /// exact degree and its slots are the anchor's tasks in task
    /// order. Identity scopes use the per-task responder fill (O(1)
    /// row mapping); peer scopes stamp the anchor's slots and walk
    /// each peer's task row once with O(1) slot lookups. Both fills
    /// produce the same bits for every in-scope worker.
    ///
    /// # Panics
    /// Panics if an earlier view borrowing `scratch` is still alive
    /// (see [`OverlapSource::anchored_for`]).
    pub(crate) fn build(
        index: &OverlapIndex,
        anchor: WorkerId,
        peers: PeerMask,
        scratch: &'a RefCell<BuildScratch>,
    ) -> Self {
        {
            let mut scratch = scratch.try_borrow_mut().expect(
                "an anchored view of this substrate is still alive: views are built one at a time",
            );
            let BuildScratch { matrix, stamps } = &mut *scratch;
            let anchor_row = index.worker_responses(anchor);
            matrix.reset(
                peers.rows(),
                anchor_row.len().div_ceil(64),
                anchor_row.len(),
            );
            match &peers {
                PeerMask::Population(_) => {
                    for (slot, &(task, _)) in anchor_row.iter().enumerate() {
                        for &(w, _) in index.task_responses(TaskId(task)) {
                            matrix.set_bit(w as usize, slot as u32);
                        }
                    }
                }
                PeerMask::Peers(_) => {
                    stamps.begin(index.n_tasks());
                    for (slot, &(task, _)) in anchor_row.iter().enumerate() {
                        stamps.set(task, slot as u32);
                    }
                    for row in 0..peers.rows() {
                        // One bounds check and row-offset multiply per
                        // peer, not per response — this loop touches
                        // every response of every peer, the dominant
                        // term of the fill.
                        let words = matrix.row_mut(row);
                        for &(task, _) in index.worker_responses(WorkerId(peers.worker_of(row))) {
                            let (word, bit) = stamps.word_bit(task);
                            words[word] |= bit;
                        }
                    }
                }
            }
        }
        BitsetAnchored {
            matrix: Ref::map(scratch.borrow(), |s| &s.matrix),
            peers,
        }
    }

    /// `c_{anchor,a}`: tasks shared by the anchor and one worker.
    pub fn pair_common(&self, a: WorkerId) -> usize {
        self.matrix.pair_common(self.peers.row_of(a))
    }

    /// Bytes of this view's mask rows — `peers · ⌈s/64⌉` words for
    /// scoped views, `n_workers · ⌈s/64⌉` for population views. The
    /// scratch it borrows may hold more: it keeps the largest view
    /// built so far.
    pub fn mask_bytes(&self) -> usize {
        self.matrix.masks.len() * std::mem::size_of::<u64>()
    }
}

/// Maps `others` through the peer mask into row indices and runs the
/// multi-way intersection popcount — through a stack buffer for the
/// estimator-sized queries (the k-ary `n₅` loop asks about 4 workers,
/// `O(l²)` times per evaluation), so the hot path allocates nothing.
fn common_among_mapped(matrix: &MaskMatrix, peers: &PeerMask, others: &[WorkerId]) -> usize {
    let mut buf = [0usize; 8];
    if others.len() <= buf.len() {
        for (slot, &w) in buf.iter_mut().zip(others) {
            *slot = peers.row_of(w);
        }
        matrix.common_among(&buf[..others.len()])
    } else {
        let rows: Vec<usize> = others.iter().map(|&w| peers.row_of(w)).collect();
        matrix.common_among(&rows)
    }
}

impl AnchoredOverlap for BitsetAnchored<'_> {
    fn triple_common(&self, a: WorkerId, b: WorkerId) -> usize {
        self.matrix
            .triple_common(self.peers.row_of(a), self.peers.row_of(b))
    }

    fn common_among(&self, others: &[WorkerId]) -> usize {
        common_among_mapped(&self.matrix, &self.peers, others)
    }

    fn gram_into(&self, peers: &[WorkerId], gram: &mut PeerGram, scratch: &mut PeerGramScratch) {
        crate::gram::gram_into_mapped(&self.matrix, &self.peers, peers, gram, scratch);
    }

    fn pair_gram_into(
        &self,
        pairs: &[(WorkerId, WorkerId)],
        gram: &mut TriplePairGram,
        scratch: &mut PeerGramScratch,
    ) {
        crate::gram::pair_gram_into_mapped(&self.matrix, &self.peers, pairs, gram, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ResponseMatrixBuilder, StreamingIndex, pair_stats, triple_joint_labels_optional,
        triple_overlap,
    };

    /// A deterministic sparse matrix exercising uneven attempt sets.
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

    /// Every popcount lane — portable, AVX2, AVX-512 `VPOPCNTDQ` —
    /// computes the same integers, across lengths straddling each
    /// dispatch boundary (scalar < 8 words, single vector chunks, odd
    /// tails, two-chain bodies) and across degenerate all-zero /
    /// all-one masks. Vector lanes are forced explicitly where the
    /// host supports them, so a dispatch bug cannot hide behind
    /// detection.
    #[test]
    fn popcount_lanes_are_bit_identical() {
        let mut state = 0xD6E8_FEB8_6659_FD93u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let detected = AndPopcount::detect();
        let portable = AndPopcount::portable();
        // Lengths straddle every dispatch boundary: scalar (< 8), the
        // nibble kernel (8..64) and the Harley–Seal blocks (≥ 64) with
        // 0/partial/odd tails — 64 exact, 65 one-word tail, 127 a full
        // nibble-kernel tail, 128/192 multi-block, 129/257 block+word.
        for len in [
            0usize, 1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 33, 63, 64, 65, 96, 101, 127, 128, 129, 192,
            257,
        ] {
            let mut cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
                (
                    (0..len).map(|_| next()).collect(),
                    (0..len).map(|_| next()).collect(),
                ),
                (vec![u64::MAX; len], vec![u64::MAX; len]),
                (vec![0u64; len], (0..len).map(|_| next()).collect()),
            ];
            for (a, b) in cases.drain(..) {
                let reference: u32 = a.iter().zip(&b).map(|(x, y)| (x & y).count_ones()).sum();
                assert_eq!(portable.count(&a, &b), reference, "portable, len {len}");
                assert_eq!(detected.count(&a, &b), reference, "detected, len {len}");
                #[cfg(target_arch = "x86_64")]
                {
                    if detected.avx512 {
                        let forced = AndPopcount {
                            avx512: true,
                            avx2: false,
                        };
                        assert_eq!(forced.count(&a, &b), reference, "avx512, len {len}");
                    }
                    if detected.avx2 {
                        let forced = AndPopcount {
                            avx512: false,
                            avx2: true,
                        };
                        assert_eq!(forced.count(&a, &b), reference, "avx2, len {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn index_matches_merge_scans() {
        let data = sample(7, 40, 3, 99);
        let stream = StreamingIndex::from_matrix(&data);
        let index = stream.index();
        assert_eq!(index.n_workers(), 7);
        assert_eq!(index.n_tasks(), 40);
        assert_eq!(index.n_responses(), data.n_responses());
        assert_eq!(index.arity(), 3);
        for a in 0..7u32 {
            assert_eq!(
                index.worker_responses(WorkerId(a)),
                data.worker_responses(WorkerId(a))
            );
            for b in (a + 1)..7u32 {
                assert_eq!(
                    index.pairs().get(WorkerId(a), WorkerId(b)),
                    pair_stats(&data, WorkerId(a), WorkerId(b)),
                );
                for c in (b + 1)..7u32 {
                    assert_eq!(
                        stream.triple(WorkerId(a), WorkerId(b), WorkerId(c)),
                        triple_overlap(&data, WorkerId(a), WorkerId(b), WorkerId(c)),
                    );
                }
            }
        }
        for t in 0..40u32 {
            assert_eq!(
                index.task_responses(TaskId(t)),
                data.task_responses(TaskId(t))
            );
        }
    }

    #[test]
    fn anchored_bitsets_match_scans() {
        let data = sample(8, 60, 2, 4242);
        let stream = StreamingIndex::from_matrix(&data);
        for anchor in 0..8u32 {
            let fast = stream.anchored(WorkerId(anchor));
            let slow = data.anchored(WorkerId(anchor));
            for a in 0..8u32 {
                assert_eq!(
                    fast.pair_common(WorkerId(a)),
                    pair_stats(&data, WorkerId(anchor), WorkerId(a))
                        .common_tasks
                        .max(if a == anchor {
                            data.worker_task_count(WorkerId(anchor))
                        } else {
                            0
                        }),
                    "anchor {anchor}, worker {a}"
                );
                for b in 0..8u32 {
                    if a == b {
                        continue;
                    }
                    assert_eq!(
                        fast.triple_common(WorkerId(a), WorkerId(b)),
                        slow.triple_common(WorkerId(a), WorkerId(b)),
                        "anchor {anchor}, pair ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn peer_scoped_views_match_population_views() {
        let data = sample(9, 70, 2, 2026);
        // Two substrates: each serves one live view at a time.
        let (population, scoped_src) = (
            StreamingIndex::from_matrix(&data),
            StreamingIndex::from_matrix(&data),
        );
        for anchor in 0..9u32 {
            let full = population.anchored(WorkerId(anchor));
            // An arbitrary, unsorted, duplicated peer list.
            let peers = [
                WorkerId((anchor + 3) % 9),
                WorkerId((anchor + 1) % 9),
                WorkerId((anchor + 6) % 9),
                WorkerId((anchor + 1) % 9),
            ];
            let scoped = scoped_src.anchored_for(WorkerId(anchor), &peers);
            for &a in &peers {
                assert_eq!(scoped.pair_common(a), full.pair_common(a));
                for &b in &peers {
                    assert_eq!(
                        scoped.triple_common(a, b),
                        full.triple_common(a, b),
                        "anchor {anchor}, pair ({a:?},{b:?})"
                    );
                }
            }
            assert_eq!(
                scoped.common_among(&peers[..3]),
                full.common_among(&peers[..3])
            );
            assert_eq!(
                scoped.common_among(&[]),
                data.worker_task_count(WorkerId(anchor))
            );
            // Memory tracks the (deduplicated) peer count, not m:
            // 3 peer rows versus the population view's 9.
            assert_eq!(scoped.mask_bytes() * 3, full.mask_bytes());
        }
    }

    /// One substrate's build scratch, reused across anchors of very
    /// different degree — busiest first, then quietest first — never
    /// leaks bits from a larger earlier build: every view equals the
    /// same view built on a fresh substrate.
    #[test]
    fn reused_scratch_matches_fresh_builds_across_anchors() {
        // Worker w answers each task with probability (w + 1) / 9, so
        // degrees climb from ~10% to ~90% of the 150 tasks.
        let mut b = ResponseMatrixBuilder::new(8, 150, 3);
        let mut state = 515u64;
        for w in 0..8u32 {
            for t in 0..150u32 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (state >> 33) % 9 <= w as u64 {
                    b.push(WorkerId(w), TaskId(t), Label((t % 3) as u16))
                        .unwrap();
                }
            }
        }
        let data = b.build().unwrap();
        let shared = StreamingIndex::from_matrix(&data);
        let mut anchors: Vec<u32> = (0..8).rev().collect();
        anchors.extend(0..8);
        for anchor in anchors {
            let peers: Vec<WorkerId> = (0..8)
                .filter(|&w| w != anchor && w % 2 == anchor % 2)
                .map(WorkerId)
                .collect();
            let fresh_src = StreamingIndex::from_matrix(&data);
            let fresh = fresh_src.anchored_for(WorkerId(anchor), &peers);
            let reused = shared.anchored_for(WorkerId(anchor), &peers);
            for &a in &peers {
                assert_eq!(reused.pair_common(a), fresh.pair_common(a));
                for &b in &peers {
                    assert_eq!(
                        reused.triple_common(a, b),
                        fresh.triple_common(a, b),
                        "anchor {anchor}, pair ({a:?},{b:?})"
                    );
                }
            }
            assert_eq!(reused.common_among(&peers), fresh.common_among(&peers));
        }
    }

    #[test]
    #[should_panic(expected = "peer scope")]
    fn peer_scoped_view_rejects_out_of_scope_queries() {
        let data = sample(5, 30, 2, 8);
        let stream = StreamingIndex::from_matrix(&data);
        let view = stream.anchored_for(WorkerId(0), &[WorkerId(1), WorkerId(2)]);
        let _ = view.triple_common(WorkerId(1), WorkerId(4));
    }

    /// A substrate serves one view at a time: asking for a second
    /// while the first still borrows the scratch is a loud contract
    /// violation, not a silently overwritten view.
    #[test]
    #[should_panic(expected = "still alive")]
    fn a_second_live_view_panics() {
        let data = sample(5, 30, 2, 8);
        let stream = StreamingIndex::from_matrix(&data);
        let first = stream.anchored(WorkerId(0));
        let _second = stream.anchored(WorkerId(1));
        drop(first);
    }

    #[test]
    fn common_among_matches_naive_filter() {
        let data = sample(6, 50, 2, 7);
        let stream = StreamingIndex::from_matrix(&data);
        let anchor = WorkerId(0);
        let fast = stream.anchored(anchor);
        let slow = data.anchored(anchor);
        let others = [WorkerId(1), WorkerId(2), WorkerId(4), WorkerId(5)];
        assert_eq!(fast.common_among(&others), slow.common_among(&others));
        assert_eq!(
            fast.common_among(&[]),
            data.worker_task_count(anchor),
            "empty peer set means every anchor task qualifies"
        );
    }

    #[test]
    fn union_merge_matches_matrix_joint_labels() {
        let data = sample(5, 30, 4, 314);
        let index = OverlapIndex::from_matrix(&data);
        for (a, b, c) in [(0u32, 1, 2), (2, 4, 0), (3, 3, 3)] {
            if a == b || b == c || a == c {
                continue;
            }
            assert_eq!(
                index.triple_joint_labels_optional(WorkerId(a), WorkerId(b), WorkerId(c)),
                triple_joint_labels_optional(&data, WorkerId(a), WorkerId(b), WorkerId(c)),
            );
        }
    }

    #[test]
    fn streaming_appends_match_batch_build() {
        // Replaying the matrix response by response — in an order the
        // batch build never sees — produces a structurally identical
        // index: same rows, same pair table, same counters.
        let data = sample(7, 40, 3, 99);
        let batch = OverlapIndex::from_matrix(&data);
        let mut streamed = OverlapIndex::new(7, 40, 3);
        let mut responses: Vec<_> = data.iter().collect();
        responses.reverse();
        for r in responses {
            streamed.record_response(r).unwrap();
        }
        assert_eq!(streamed, batch);
    }

    #[test]
    fn record_response_rejects_bad_input_without_corruption() {
        use crate::{DataError, Response};
        let mut index = OverlapIndex::new(3, 5, 2);
        let ok = Response {
            worker: WorkerId(0),
            task: TaskId(1),
            label: Label(1),
        };
        index.record_response(ok).unwrap();
        let before = index.clone();
        assert!(matches!(
            index.record_response(ok),
            Err(DataError::DuplicateResponse { .. })
        ));
        assert!(matches!(
            index.record_response(Response {
                worker: WorkerId(9),
                task: TaskId(0),
                label: Label(0)
            }),
            Err(DataError::UnknownId { kind: "worker", .. })
        ));
        assert!(matches!(
            index.record_response(Response {
                worker: WorkerId(0),
                task: TaskId(9),
                label: Label(0)
            }),
            Err(DataError::UnknownId { kind: "task", .. })
        ));
        assert!(matches!(
            index.record_response(Response {
                worker: WorkerId(0),
                task: TaskId(0),
                label: Label(2)
            }),
            Err(DataError::LabelOutOfRange { .. })
        ));
        assert_eq!(index, before, "rejected responses must not mutate");
    }

    #[test]
    fn empty_and_silent_workers_are_handled() {
        // Worker 2 never answers; several tasks have no responses.
        let mut b = ResponseMatrixBuilder::new(3, 10, 2);
        b.push(WorkerId(0), TaskId(0), Label(0)).unwrap();
        b.push(WorkerId(1), TaskId(0), Label(0)).unwrap();
        b.push(WorkerId(0), TaskId(7), Label(1)).unwrap();
        let data = b.build().unwrap();
        let stream = StreamingIndex::from_matrix(&data);
        assert_eq!(stream.pair(WorkerId(0), WorkerId(1)).common_tasks, 1);
        assert_eq!(stream.pair(WorkerId(0), WorkerId(2)).common_tasks, 0);
        assert!(stream.index().worker_responses(WorkerId(2)).is_empty());
        assert_eq!(
            stream
                .triple(WorkerId(0), WorkerId(1), WorkerId(2))
                .common_tasks,
            0
        );
        let view = stream.anchored(WorkerId(2));
        assert_eq!(view.triple_common(WorkerId(0), WorkerId(1)), 0);
    }
}
