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

use crate::counts::TaskCodes;
use crate::gram::PeerColumns;
use crate::{
    CountsTensor, Label, PairMap, PairStats, PeerGram, PeerGramScratch, PeerPairs, Response,
    ResponseMatrix, TaskId, TriplePairGram, TripleStats, WorkerId,
};

/// A provider of pairwise and triple overlap statistics over one
/// response data set.
///
/// Implemented by [`ResponseMatrix`] (merge scans — the naive
/// reference) and [`crate::StreamingIndex`] (pair-row walks and
/// pair-table lookups, CSR scans, and anchored bitset popcounts for
/// triples). Both return
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
    ///
    /// A [`crate::StreamingIndex`] fills through the same scratch its
    /// views borrow, so, as with a second view, calling this while one
    /// of its anchored views is alive panics.
    fn fill_counts(&self, tensor: &mut CountsTensor, w1: WorkerId, w2: WorkerId, w3: WorkerId);

    /// If the substrate tracks co-occurrence explicitly, appends
    /// `worker`'s pair row to `out` — `(peer, stats)` for every worker
    /// sharing at least one task with it, ascending by id, `worker`
    /// itself excluded — and returns `true`; otherwise returns `false`
    /// and leaves `out` untouched, and callers must sweep the whole
    /// population. This is the pairing screen's fast path: the index
    /// walks the worker's pair row once (`O(d_w)` on a sparse row)
    /// instead of `O(m)` lookups, and because workers absent from the
    /// row have zero overlap by construction, consumers that filter on
    /// a minimum overlap see the **same candidates with the same
    /// statistics in the same order** either way.
    fn pair_row_into(&self, worker: WorkerId, out: &mut Vec<(WorkerId, PairStats)>) -> bool {
        let _ = (worker, out);
        false
    }

    /// Fills `table` with the pair statistics of every pair among
    /// `peers` (order and duplicates are irrelevant; the table sorts
    /// and deduplicates, keyed exactly like a [`PeerGram`] over the same
    /// peers). After this call [`PeerPairs::at`] answers every
    /// [`OverlapSource::pair`] query about distinct in-set peers by
    /// table read — the pair statistics of the m-worker estimators'
    /// triple estimates and Lemma 4 covariance assembly.
    ///
    /// The default issues one [`OverlapSource::pair`] query per
    /// unordered pair — the reference path; a [`crate::StreamingIndex`]
    /// walks each peer's pair row once instead (see [`crate::gram`]).
    /// Counts are identical either way. That walk maps workers to
    /// columns through the build scratch its views borrow, so, as with
    /// [`OverlapSource::fill_counts`], calling this while one of its
    /// anchored views is alive panics.
    fn peer_pairs_into(&self, peers: &[WorkerId], table: &mut PeerPairs) {
        table.reset(peers);
        for i in 0..table.dim() {
            for j in (i + 1)..table.dim() {
                let s = self.pair(table.peer(i), table.peer(j));
                table.set_symmetric(i, j, s);
            }
        }
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
/// (8 rows × ⌈n̄/64⌉ words comfortably fit).
pub(crate) const GRAM_BLOCK: usize = 4;

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
    /// loop instead re-streams every row once per opposite peer. Only
    /// the upper triangle of blocks is computed; entries are mirrored
    /// on write-back.
    ///
    /// There is one kernel, written in safe code, compiled twice: the
    /// portable build, and a build under `avx2,popcnt` that this
    /// function picks once per call on x86-64 hosts reporting both
    /// features. Under those features LLVM turns the wide-mask
    /// `count_ones` loop into the `vpshufb` nibble-table popcount and
    /// the short-mask cases into hardware `popcnt`; both builds compute
    /// the same integers, so the choice is invisible to every output
    /// bit.
    pub(crate) fn gram_rows_into(&self, rows: &[usize], out: &mut Vec<u32>) {
        let d = rows.len();
        out.clear();
        out.resize(d * d, 0);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            // SAFETY: the only requirement of a `#[target_feature]`
            // function is that the host supports its features, and
            // both were detected just above.
            #[allow(unsafe_code)]
            unsafe {
                self.gram_rows_avx2(rows, out)
            };
            return;
        }
        self.gram_rows_portable(rows, out);
    }

    /// [`MaskMatrix::gram_rows_portable`] and its inlined kernels,
    /// compiled with AVX2 and `popcnt` enabled.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,popcnt")]
    fn gram_rows_avx2(&self, rows: &[usize], out: &mut [u32]) {
        self.gram_rows_portable(rows, out);
    }

    /// Picks the kernel for this matrix's row width. Monomorphize the
    /// 1–4-word cases: a fleet-capped anchor's mask is often a word or
    /// two, and there the generic path's per-pair slice setup and loop
    /// control cost more than the popcounts themselves. `W = 0` keeps
    /// the dynamic loop for wide masks.
    #[inline(always)]
    fn gram_rows_portable(&self, rows: &[usize], out: &mut [u32]) {
        match self.words {
            1 => self.gram_rows_kernel::<1>(rows, out),
            2 => self.gram_rows_kernel::<2>(rows, out),
            3 => self.gram_rows_kernel::<3>(rows, out),
            4 => self.gram_rows_kernel::<4>(rows, out),
            _ => self.gram_rows_kernel::<0>(rows, out),
        }
    }

    /// `#[inline(always)]` so the body is compiled again inside
    /// [`MaskMatrix::gram_rows_avx2`] under that function's features.
    #[inline(always)]
    fn gram_rows_kernel<const W: usize>(&self, rows: &[usize], out: &mut [u32]) {
        const B: usize = GRAM_BLOCK;
        let d = rows.len();
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
                            left.iter()
                                .zip(right)
                                .map(|(x, y)| (x & y).count_ones())
                                .sum()
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
/// into and borrows, the slot map the view fill stamps, the task
/// codes the k-ary counts fill scatters into
/// ([`CountsTensor::fill_from_index`]), and the worker → column map of
/// the [`PeerPairs`] fill. Consecutive builds and fills reuse all
/// four, so an evaluation loop allocates nothing once the scratch has
/// reached its largest view, and no evaluation pays for a map over
/// the whole population.
#[derive(Debug, Clone, Default)]
pub(crate) struct BuildScratch {
    matrix: MaskMatrix,
    stamps: SlotStamps,
    codes: TaskCodes,
    columns: PeerColumns,
}

impl BuildScratch {
    /// Bytes resident in the mask words: the largest view built so
    /// far, exactly sized (see [`MaskMatrix::reset`]).
    pub(crate) fn mask_bytes(&self) -> usize {
        self.matrix.mask_bytes()
    }

    /// The all-zero task codes of the counts fill.
    pub(crate) fn task_codes(&mut self) -> &mut TaskCodes {
        &mut self.codes
    }

    /// The all-unmapped worker → column map of the pair-table fill.
    pub(crate) fn peer_columns(&mut self) -> &mut PeerColumns {
        &mut self.columns
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
            let BuildScratch { matrix, stamps, .. } = &mut *scratch;
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
    use crate::{ResponseMatrixBuilder, StreamingIndex, pair_stats, triple_overlap};

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

    /// The dispatched Gram kernel (the `avx2,popcnt` build on hosts
    /// that report both features) and the portable build fill equal
    /// tables, and both equal per-pair `triple_common` queries. Word
    /// counts straddle the unrolled 1–4-word cases, the vector widths
    /// of the wide-mask loop and its ragged tails; row contents are
    /// random, all-ones and all-zero; row counts straddle
    /// [`GRAM_BLOCK`].
    #[test]
    fn gram_kernel_builds_are_bit_identical() {
        let mut state = 0xD6E8_FEB8_6659_FD93u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let row_counts = [
            1,
            GRAM_BLOCK - 1,
            GRAM_BLOCK,
            GRAM_BLOCK + 1,
            2 * GRAM_BLOCK + 1,
        ];
        for words in [
            1usize, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 33, 63, 64, 65, 127, 128, 129, 257,
        ] {
            for &n_rows in &row_counts {
                let mut matrix = MaskMatrix::default();
                // Rows cycle through random, all-ones and all-zero
                // words.
                let n_matrix_rows = n_rows + 2;
                matrix.reset(n_matrix_rows, words, words * 64);
                for r in 0..n_matrix_rows {
                    for w in matrix.row_mut(r) {
                        *w = match r % 3 {
                            0 => next(),
                            1 => u64::MAX,
                            _ => 0,
                        };
                    }
                }
                // Out of order, skipping a row, so the kernel reads
                // rows through the index list rather than in place.
                let rows: Vec<usize> = (0..n_rows).rev().map(|r| r + 1).collect();
                let mut dispatched = Vec::new();
                matrix.gram_rows_into(&rows, &mut dispatched);
                let mut portable = vec![0u32; n_rows * n_rows];
                matrix.gram_rows_portable(&rows, &mut portable);
                assert_eq!(dispatched, portable, "{words} words, {n_rows} rows");
                for (i, &a) in rows.iter().enumerate() {
                    for (j, &b) in rows.iter().enumerate() {
                        assert_eq!(
                            portable[i * n_rows + j] as usize,
                            matrix.triple_common(a, b),
                            "{words} words, {n_rows} rows, entry ({i}, {j})"
                        );
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
