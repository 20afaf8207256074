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
//! * the packed upper-triangular pair table (a [`PairCache`]),
//!   harvested **per task** — each task's responder list contributes
//!   its pairs directly, so the table costs `O(Σ_t r_t²)` once instead
//!   of `O(m²)` merge scans.
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
//! an epoch-invalidated task→slot scratch (one per builder — a
//! thread's [`AnchoredScratch`] or a whole streaming substrate, never
//! one per view) and walks each peer's task row
//! once (`O(l_anchor + Σ_{p ∈ peers} l_p)`), and the matrix holds
//! `peers · ⌈l_anchor/64⌉` words — memory tracks the
//! pairing degree, never the population. Near-population scopes
//! (> m/2 peers, the paper-default uncapped pairing) are upgraded to
//! the identity map and the legacy `O(Σ_{t ∈ tasks(anchor)} r_t)`
//! responder fill, which is cheaper there; both fills produce the same
//! bits, so the choice is invisible to every query. The evaluate-all
//! hot path additionally reuses one [`AnchoredScratch`] per thread
//! ([`OverlapSource::anchored_for_in`]), so consecutive view builds
//! allocate nothing. Matrices are always pre-sized to the anchor's
//! exact degree — the mask-word doubling re-layout only ever runs on
//! the streaming ingest path.
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
//! The index is also the **streaming** substrate: one long-lived
//! instance absorbs responses via [`OverlapIndex::record_response`]
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
//!   plus an `O(r_t)` pair-table harvest against the task's current
//!   responders; **no append ever triggers a whole-index rebuild**.
//!
//! The invariant: after any interleaving of builds and appends, row
//! `w` of the worker adjacency is exactly the task-sorted response
//! list of `w` (ditto tasks), and the pair table equals the one-pass
//! batch harvest of the accumulated data. Batch construction keeps
//! its one-pass cost; the only price of streamability is the per-row
//! capacity slack (bounded by 2× the row length).
//!
//! [`OverlapSource`] abstracts over the providers (naive matrix scans,
//! the full index, the streaming index) so the estimators are written
//! once and the naive scan path stays available as the correctness
//! reference for the equivalence tests. It also owns what an
//! evaluation loop reuses from worker to worker — the anchored view's
//! build storage ([`OverlapSource::anchored_for_in`]) and the k-ary
//! counts tensor ([`OverlapSource::fill_counts`]) — so an estimator
//! has one evaluation body and no per-substrate entry points.
//! For streaming evaluation with maintained anchored views, see
//! [`crate::StreamingIndex`].

use crate::overlap::triple_scan;
use crate::{
    CountsTensor, Label, PairCache, PairMap, PairStats, PeerGram, PeerGramScratch, Response,
    ResponseMatrix, TaskId, TriplePairGram, TripleStats, WorkerId,
};

/// A provider of pairwise and triple overlap statistics over one
/// response data set.
///
/// Implemented by [`ResponseMatrix`] (merge scans — the naive
/// reference), [`OverlapIndex`] (O(1) pairs, CSR scans and anchored
/// bitset popcounts for triples) and [`crate::StreamingIndex`] (the
/// index plus maintained anchored views). All return *identical*
/// counts — only the cost differs — which is what lets each estimator
/// keep one substrate-generic evaluation body whose output bits do not
/// depend on the substrate. The two reuse hooks,
/// [`OverlapSource::anchored_for_in`] and
/// [`OverlapSource::fill_counts`], let that body carry one scratch
/// across an evaluation loop on every substrate.
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
    fn anchored_for(&self, anchor: WorkerId, peers: &[WorkerId]) -> Self::Anchored<'_> {
        let _ = peers;
        self.anchored(anchor)
    }

    /// [`OverlapSource::anchored_for`] built into caller-held
    /// [`AnchoredScratch`], so a loop that evaluates many workers with
    /// one scratch re-layouts and allocates nothing once the scratch
    /// has grown to the largest view it has served. The view answers
    /// exactly like [`OverlapSource::anchored_for`]. The default
    /// ignores the scratch; [`OverlapIndex`] builds its bit matrix into
    /// it.
    fn anchored_for_in<'s>(
        &'s self,
        anchor: WorkerId,
        peers: &[WorkerId],
        scratch: &'s mut AnchoredScratch,
    ) -> Self::Anchored<'s> {
        let _ = scratch;
        self.anchored_for(anchor, peers)
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
    /// candidate scan's fast path: a sparse pair table answers it in
    /// `O(d_w)` instead of `O(m)` lookups, and because workers absent
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

/// Which pair-table representation an [`OverlapIndex`] holds.
///
/// The dense backend ([`PairCache`]) is the default: `m(m−1)/2` packed
/// entries, O(1) lookups, no per-entry overhead — right for paper-scale
/// crowds and for well-mixed data where most pairs co-occur anyway.
/// The sparse backend ([`PairMap`]) stores only co-occurring pairs and
/// can enumerate a worker's peers directly, so pair-state memory and
/// the pairing candidate scan track the co-occurrence degree instead
/// of the fleet size — the backend each shard's
/// [`crate::StreamingIndex`] runs on in the assessment service. Both
/// return identical counts for every pair; only cost differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairBackend {
    /// Packed upper-triangular `O(m²)` table ([`PairCache`]).
    #[default]
    Dense,
    /// Per-worker sorted peer adjacencies, co-occurring pairs only
    /// ([`PairMap`]).
    Sparse,
}

/// The pair table of an [`OverlapIndex`]: dense or sparse (see
/// [`PairBackend`]), with one maintenance and lookup API so the index
/// code is written once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairTable {
    /// Dense packed table.
    Dense(PairCache),
    /// Sparse co-occurring-pairs map.
    Sparse(PairMap),
}

impl PairTable {
    fn empty(m: usize, backend: PairBackend) -> Self {
        match backend {
            PairBackend::Dense => Self::Dense(PairCache::empty(m)),
            PairBackend::Sparse => Self::Sparse(PairMap::empty(m)),
        }
    }

    /// The stored statistics for a pair (zero when it never
    /// co-occurred).
    pub fn get(&self, a: WorkerId, b: WorkerId) -> PairStats {
        match self {
            Self::Dense(t) => t.get(a, b),
            Self::Sparse(t) => t.get(a, b),
        }
    }

    /// Bytes resident in the pair state — the quantity the sharding
    /// benchmark compares across backends.
    pub fn table_bytes(&self) -> usize {
        match self {
            Self::Dense(t) => t.table_bytes(),
            Self::Sparse(t) => t.table_bytes(),
        }
    }

    fn harvest_task(&mut self, responders: &[(u32, Label)]) {
        match self {
            Self::Dense(t) => t.harvest_task(responders),
            Self::Sparse(t) => t.harvest_task(responders),
        }
    }

    fn record_response(&mut self, worker: WorkerId, label: Label, others: &[(u32, Label)]) {
        match self {
            Self::Dense(t) => t.record_response(worker, label, others),
            Self::Sparse(t) => t.record_response(worker, label, others),
        }
    }
}

/// The one-pass overlap substrate; see the [module docs](self).
///
/// # Example
///
/// ```
/// use crowd_data::{Label, OverlapIndex, OverlapSource, ResponseMatrixBuilder, TaskId, WorkerId};
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
/// assert_eq!(index.pair(WorkerId(0), WorkerId(1)).common_tasks, 4);
/// assert_eq!(index.pair(WorkerId(0), WorkerId(1)).agreements, 2);
/// assert_eq!(index.triple(WorkerId(0), WorkerId(1), WorkerId(2)).common_tasks, 1);
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
    /// Pair agreement/co-occurrence table (dense or sparse; see
    /// [`PairBackend`]).
    pairs: PairTable,
}

impl OverlapIndex {
    /// An empty index of the given shape, ready for
    /// [`OverlapIndex::record_response`]-driven streaming fills.
    ///
    /// # Panics
    /// Panics if `arity < 2` (mirroring
    /// [`crate::ResponseMatrixBuilder::new`]).
    pub fn new(n_workers: usize, n_tasks: usize, arity: u16) -> Self {
        Self::new_with(n_workers, n_tasks, arity, PairBackend::Dense)
    }

    /// [`OverlapIndex::new`] with an explicit pair-table backend; see
    /// [`PairBackend`] for the trade-off.
    ///
    /// # Panics
    /// Panics if `arity < 2`.
    pub fn new_with(n_workers: usize, n_tasks: usize, arity: u16, backend: PairBackend) -> Self {
        assert!(
            arity >= 2,
            "tasks must have at least two possible responses"
        );
        Self {
            n_workers,
            n_tasks,
            n_responses: 0,
            arity,
            worker_rows: vec![Vec::new(); n_workers],
            task_rows: vec![Vec::new(); n_tasks],
            pairs: PairTable::empty(n_workers, backend),
        }
    }

    /// Builds the index in one pass over the matrix: the task rows and
    /// the pair table are filled from each task's responder list as it
    /// is visited; the worker rows from each worker's row.
    ///
    /// The adjacencies are *owned copies* (≈ 2·nnz entries) rather than
    /// borrows of the matrix: the index is self-contained, so it can
    /// outlive the matrix, be shipped to worker shards on its own, and
    /// keep its rows contiguous for the merge scans.
    pub fn from_matrix(data: &ResponseMatrix) -> Self {
        Self::from_matrix_with(data, PairBackend::Dense)
    }

    /// [`OverlapIndex::from_matrix`] with an explicit pair-table
    /// backend (the sparse backend is the fleet-scale opt-in; see
    /// [`PairBackend`]). Every query answers identically across
    /// backends.
    pub fn from_matrix_with(data: &ResponseMatrix, backend: PairBackend) -> Self {
        let m = data.n_workers();
        let n = data.n_tasks();
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

        let mut pairs = PairTable::empty(m, backend);
        let mut task_rows = Vec::with_capacity(n);
        for task in data.tasks() {
            let responders = data.task_responses(task);
            pairs.harvest_task(responders);
            task_rows.push(responders.to_vec());
        }

        let mut worker_rows = Vec::with_capacity(m);
        for worker in data.workers() {
            worker_rows.push(data.worker_responses(worker).to_vec());
        }

        Self {
            n_workers: m,
            n_tasks: n,
            n_responses: nnz,
            arity: data.arity(),
            worker_rows,
            task_rows,
            pairs,
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
        self.insert_response(response).map(|_| ())
    }

    /// [`OverlapIndex::record_response`], returning the position the
    /// response took in its worker's row — a maintained streaming view
    /// keeps its slots parallel to that row and inserts at the same
    /// place.
    pub(crate) fn insert_response(&mut self, response: Response) -> crate::Result<usize> {
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
        Ok(w_pos)
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

    /// The pair table (dense or sparse; see [`PairBackend`]).
    #[inline]
    pub fn pairs(&self) -> &PairTable {
        &self.pairs
    }

    /// Bytes resident in the pair table; see
    /// [`PairTable::table_bytes`].
    pub fn pair_table_bytes(&self) -> usize {
        self.pairs.table_bytes()
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

impl OverlapSource for OverlapIndex {
    type Anchored<'a> = BitsetAnchored<'a>;

    fn n_workers(&self) -> usize {
        self.n_workers
    }

    fn arity(&self) -> u16 {
        self.arity
    }

    fn pair(&self, a: WorkerId, b: WorkerId) -> PairStats {
        self.pairs.get(a, b)
    }

    fn triple(&self, a: WorkerId, b: WorkerId, c: WorkerId) -> TripleStats {
        triple_scan(
            self.worker_responses(a),
            self.worker_responses(b),
            self.worker_responses(c),
        )
    }

    fn anchored(&self, anchor: WorkerId) -> BitsetAnchored<'_> {
        BitsetAnchored::build(self, anchor)
    }

    fn anchored_for(&self, anchor: WorkerId, peers: &[WorkerId]) -> BitsetAnchored<'_> {
        BitsetAnchored::build_scoped(self, anchor, peers)
    }

    fn anchored_for_in<'s>(
        &'s self,
        anchor: WorkerId,
        peers: &[WorkerId],
        scratch: &'s mut AnchoredScratch,
    ) -> BitsetAnchored<'s> {
        BitsetAnchored::build_in(self, anchor, peers, scratch)
    }

    fn fill_counts(&self, tensor: &mut CountsTensor, w1: WorkerId, w2: WorkerId, w3: WorkerId) {
        tensor.fill_from_index(self, w1, w2, w3);
    }

    fn co_occurring_into(&self, worker: WorkerId, out: &mut Vec<WorkerId>) -> bool {
        match &self.pairs {
            // The dense table cannot enumerate a worker's peers without
            // an O(m) sweep — no better than the caller's own scan.
            PairTable::Dense(_) => false,
            PairTable::Sparse(map) => {
                out.extend(map.co_occurring(worker));
                true
            }
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
    /// caller's order and duplicates are irrelevant to the view).
    pub(crate) fn scoped(peers: &[WorkerId]) -> Self {
        let mut ids: Vec<u32> = peers.iter().map(|w| w.0).collect();
        ids.sort_unstable();
        ids.dedup();
        Self::Peers(ids)
    }

    /// [`PeerMask::scoped`], upgraded to the identity map when the
    /// peer set covers more than half the population. Near-population
    /// scopes gain nothing from remapping — the per-peer merge build
    /// costs more than the legacy per-task responder fill and the
    /// memory saving is < 2× — so the paper-default (uncapped) pairing
    /// keeps its original build cost to the cycle, while genuinely
    /// small scopes (the fleet-capped case) get `O(peers)` rows.
    pub(crate) fn scoped_for(peers: &[WorkerId], n_workers: usize) -> Self {
        let mask = Self::scoped(peers);
        if mask.rows() * 2 > n_workers {
            Self::Population(n_workers)
        } else {
            mask
        }
    }

    /// Number of mask rows this map addresses.
    pub(crate) fn rows(&self) -> usize {
        match self {
            Self::Population(m) => *m,
            Self::Peers(ids) => ids.len(),
        }
    }

    /// Heap bytes held by the map: the scoped peer list (the identity
    /// map holds none).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Self::Population(_) => 0,
            Self::Peers(ids) => ids.capacity() * std::mem::size_of::<u32>(),
        }
    }

    /// The mask row of `worker`, if it is in scope.
    #[inline]
    pub(crate) fn row(&self, worker: u32) -> Option<usize> {
        match self {
            Self::Population(m) => ((worker as usize) < *m).then_some(worker as usize),
            Self::Peers(ids) => ids.binary_search(&worker).ok(),
        }
    }

    /// The mask row of `worker`; panics (contract violation) when the
    /// worker is outside the declared peer scope.
    #[inline]
    pub(crate) fn row_of(&self, worker: WorkerId) -> usize {
        self.row(worker.0).unwrap_or_else(|| {
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

    /// Whether every worker addressable through `other` is also
    /// addressable through `self` — the lazy re-anchoring test of the
    /// maintained streaming views.
    pub(crate) fn covers(&self, other: &PeerMask) -> bool {
        match (self, other) {
            (Self::Population(m), Self::Population(n)) => m >= n,
            (Self::Population(m), Self::Peers(ids)) => {
                ids.last().is_none_or(|&max| (max as usize) < *m)
            }
            (Self::Peers(_), Self::Population(n)) => *n == 0,
            (Self::Peers(have), Self::Peers(want)) => {
                // Both sorted: one linear sweep.
                let mut it = have.iter();
                want.iter().all(|w| it.any(|h| h == w))
            }
        }
    }
}

/// The `rows × words` anchored bit matrix and its popcount kernels,
/// shared by the batch [`BitsetAnchored`] view and the maintained
/// [`crate::AnchoredView`]: one implementation of the queries
/// underpins the streamed-vs-batch bit-identity guarantee, so the two
/// views cannot drift apart.
///
/// The anchor's attempted tasks occupy bit slots `0..anchor_tasks`;
/// row `r` records which of those tasks the worker a [`PeerMask`]
/// assigns to `r` attempted. Every query is slot-permutation-invariant
/// (popcounts), which is what lets the streaming view assign slots in
/// ingest order while the batch view assigns them in task order.
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
/// from the vectorized nibble-LUT routine ([`and_popcount_avx2`]),
/// everywhere else from the portable word loop. Every lane computes
/// the same integers — the dispatch is invisible to every output
/// bit — and detection is hoisted out of the pair loop so the hot
/// path pays one predictable branch per pair.
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

#[derive(Debug, Clone)]
pub(crate) struct MaskMatrix {
    n_rows: usize,
    /// Words allocated per row.
    words: usize,
    /// Slots in use (= tasks the anchor attempted).
    anchor_tasks: usize,
    /// Row-major bit matrix.
    masks: Vec<u64>,
}

impl MaskMatrix {
    pub(crate) fn new(n_rows: usize, words: usize) -> Self {
        let words = words.max(1);
        Self {
            n_rows,
            words,
            anchor_tasks: 0,
            masks: vec![0u64; n_rows * words],
        }
    }

    /// Re-shapes the matrix in place for a fresh build — `n_rows`
    /// zeroed rows of `words` words with `slots` slots pre-claimed —
    /// reusing the existing word allocation when it is large enough.
    /// This is the scratch-reuse and pre-sizing entry point: callers
    /// that know the anchor's degree up front (the batch and re-anchor
    /// builds) pass `words = degree.div_ceil(64)` and `slots = degree`,
    /// so no [`MaskMatrix::push_slot`] doubling re-layout ever runs.
    pub(crate) fn reset(&mut self, n_rows: usize, words: usize, slots: usize) {
        let words = words.max(1);
        debug_assert!(slots <= words * 64, "pre-claimed slots exceed capacity");
        self.n_rows = n_rows;
        self.words = words;
        self.anchor_tasks = slots;
        self.masks.clear();
        self.masks.resize(n_rows * words, 0);
    }

    /// Bytes resident in the bit matrix (the per-view memory the
    /// peer-scoped refactor shrinks from `O(n_workers)` to `O(peers)`
    /// rows). Reports the allocation's *capacity*, not its in-use
    /// length — a [`MaskMatrix::reset`] keeps slack for reuse, and
    /// pretending that slack is free would overstate any measured
    /// memory reduction.
    pub(crate) fn mask_bytes(&self) -> usize {
        self.masks.capacity() * std::mem::size_of::<u64>()
    }

    /// Releases the reuse slack so the allocation matches the in-use
    /// rows — for long-lived matrices (the maintained streaming views)
    /// after a downsizing re-anchor; scratch matrices keep their slack
    /// on purpose.
    pub(crate) fn shrink(&mut self) {
        self.masks.shrink_to_fit();
    }

    /// Claims the next slot, doubling the per-row word capacity (one
    /// `O(n_rows · words)` re-layout per doubling, amortized away)
    /// when the slot budget is exhausted.
    pub(crate) fn push_slot(&mut self) -> u32 {
        if self.anchor_tasks == self.words * 64 {
            let new_words = self.words * 2;
            let mut masks = vec![0u64; self.n_rows * new_words];
            for w in 0..self.n_rows {
                masks[w * new_words..w * new_words + self.words]
                    .copy_from_slice(&self.masks[w * self.words..(w + 1) * self.words]);
            }
            self.words = new_words;
            self.masks = masks;
        }
        let slot = self.anchor_tasks as u32;
        self.anchor_tasks += 1;
        slot
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

    /// Whether `row` has the bit for `slot` set.
    #[inline]
    pub(crate) fn bit(&self, row: usize, slot: u32) -> bool {
        let (word, bit) = (slot as usize / 64, slot as usize % 64);
        self.masks[row * self.words + word] >> bit & 1 == 1
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

/// Where a [`BitsetAnchored`] view keeps its bit matrix: owned (the
/// one-off build paths) or borrowed from a caller-held
/// [`AnchoredScratch`] (the evaluate-all hot path, which reuses one
/// allocation across every worker of a thread's chunk).
#[derive(Debug)]
enum MaskStore<'a> {
    Owned(MaskMatrix),
    Scratch(&'a mut MaskMatrix),
}

impl MaskStore<'_> {
    #[inline]
    fn get(&self) -> &MaskMatrix {
        match self {
            Self::Owned(m) => m,
            Self::Scratch(m) => m,
        }
    }
}

/// An epoch-stamped `task → slot` map: `begin` invalidates every
/// entry in O(1) (a new epoch), so repeated peer-scoped builds never
/// pay an O(n) clear. Backing the anchored build with O(1) slot
/// lookups is what makes the peer fill `O(l_anchor + Σ_p l_p)` —
/// each peer row is walked once, no per-peer merge against the
/// anchor's row. One map serves every build of its owner (a thread's
/// [`AnchoredScratch`], or a whole [`crate::StreamingIndex`]), so its
/// `O(n)` words are paid once per owner, never once per view.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotStamps {
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

    #[inline]
    fn get(&self, task: u32) -> Option<u32> {
        (self.stamp[task as usize] == self.epoch).then(|| self.slot[task as usize])
    }
}

/// Reusable build storage for [`OverlapSource::anchored_for_in`]:
/// holds the mask words and the slot stamps of the previous view
/// so consecutive anchored builds (one per evaluated worker) allocate
/// nothing once both have reached their high-water marks.
#[derive(Debug, Default)]
pub struct AnchoredScratch {
    matrix: Option<MaskMatrix>,
    stamps: SlotStamps,
}

/// Anchored triple overlaps by bitset intersection.
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
/// Peer-scoped views ([`OverlapSource::anchored_for`]) instead merge
/// each peer's task row against the anchor's —
/// `O(Σ_{p ∈ peers} (l_anchor + l_p))` build work and only
/// `peers · ⌈s/64⌉` words, so view memory tracks the pairing degree,
/// never the population.
#[derive(Debug)]
pub struct BitsetAnchored<'a> {
    store: MaskStore<'a>,
    peers: PeerMask,
}

/// The one anchored-view fill, behind the batch builds and the
/// streaming re-anchor alike — one implementation of the bit layout,
/// so the streamed-vs-batch bit-identity guarantee cannot drift
/// between copies. Re-shapes `matrix` (pre-sized to the anchor's exact
/// degree, so no doubling re-layout ever runs) and sets its bits for
/// the scope. Slots are the anchor's tasks in task order. Identity
/// scopes use the legacy per-task responder fill
/// (`O(Σ_{t ∈ tasks(anchor)} r_t)`, O(1) row mapping); peer scopes
/// stamp the anchor's slots into `stamps` and walk each peer's task
/// row once with O(1) slot lookups (`O(l_anchor + Σ_{p ∈ peers} l_p)`
/// — no per-peer merge against the anchor's row). Both fills produce
/// the same bits for every in-scope worker.
pub(crate) fn fill_anchored(
    index: &OverlapIndex,
    anchor: WorkerId,
    peers: &PeerMask,
    matrix: &mut MaskMatrix,
    stamps: &mut SlotStamps,
) {
    let anchor_row = index.worker_responses(anchor);
    matrix.reset(
        peers.rows(),
        anchor_row.len().div_ceil(64),
        anchor_row.len(),
    );
    match peers {
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
                // One bounds check and row-offset multiply per peer,
                // not per response — this loop touches every response
                // of every peer, the dominant term of the fill.
                let words = matrix.row_mut(row);
                for &(task, _) in index.worker_responses(WorkerId(peers.worker_of(row))) {
                    if let Some(slot) = stamps.get(task) {
                        words[slot as usize / 64] |= 1u64 << (slot as usize % 64);
                    }
                }
            }
        }
    }
}

/// Maps `others` through the peer mask into row indices and runs the
/// multi-way intersection popcount — through a stack buffer for the
/// estimator-sized queries (the k-ary `n₅` loop asks about 4 workers,
/// `O(l²)` times per evaluation), so the hot path allocates nothing.
pub(crate) fn common_among_mapped(
    matrix: &MaskMatrix,
    peers: &PeerMask,
    others: &[WorkerId],
) -> usize {
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

impl<'a> BitsetAnchored<'a> {
    /// One-shot build owning its matrix (population or peer scope).
    /// The matrix is shrunk to its in-use rows: unlike a scratch
    /// build, there is no next build to reuse the slack for.
    fn build_owned(index: &OverlapIndex, anchor: WorkerId, peers: PeerMask) -> BitsetAnchored<'a> {
        let mut matrix = MaskMatrix::new(0, 1);
        fill_anchored(
            index,
            anchor,
            &peers,
            &mut matrix,
            &mut SlotStamps::default(),
        );
        matrix.shrink();
        BitsetAnchored {
            store: MaskStore::Owned(matrix),
            peers,
        }
    }

    /// Population-wide build: a row per worker.
    fn build(index: &OverlapIndex, anchor: WorkerId) -> BitsetAnchored<'a> {
        Self::build_owned(index, anchor, PeerMask::population(index.n_workers()))
    }

    /// Peer-scoped build owning its matrix.
    fn build_scoped(
        index: &OverlapIndex,
        anchor: WorkerId,
        peer_ids: &[WorkerId],
    ) -> BitsetAnchored<'a> {
        Self::build_owned(
            index,
            anchor,
            PeerMask::scoped_for(peer_ids, index.n_workers()),
        )
    }

    /// Peer-scoped build into `scratch`'s reusable words vector and
    /// slot stamps.
    fn build_in(
        index: &OverlapIndex,
        anchor: WorkerId,
        peer_ids: &[WorkerId],
        scratch: &'a mut AnchoredScratch,
    ) -> BitsetAnchored<'a> {
        let peers = PeerMask::scoped_for(peer_ids, index.n_workers());
        let matrix = scratch.matrix.get_or_insert_with(|| MaskMatrix::new(0, 1));
        fill_anchored(index, anchor, &peers, matrix, &mut scratch.stamps);
        BitsetAnchored {
            store: MaskStore::Scratch(matrix),
            peers,
        }
    }

    /// `c_{anchor,a}`: tasks shared by the anchor and one worker.
    pub fn pair_common(&self, a: WorkerId) -> usize {
        self.store.get().pair_common(self.peers.row_of(a))
    }

    /// Bytes resident in the view's bit matrix — `peers · ⌈s/64⌉`
    /// words for scoped views, `n_workers · ⌈s/64⌉` for population
    /// views. The scaling benchmark's bytes-per-view measurement.
    pub fn mask_bytes(&self) -> usize {
        self.store.get().mask_bytes()
    }
}

impl AnchoredOverlap for BitsetAnchored<'_> {
    fn triple_common(&self, a: WorkerId, b: WorkerId) -> usize {
        self.store
            .get()
            .triple_common(self.peers.row_of(a), self.peers.row_of(b))
    }

    fn common_among(&self, others: &[WorkerId]) -> usize {
        common_among_mapped(self.store.get(), &self.peers, others)
    }

    fn gram_into(&self, peers: &[WorkerId], gram: &mut PeerGram, scratch: &mut PeerGramScratch) {
        crate::gram::gram_into_mapped(self.store.get(), &self.peers, peers, gram, scratch);
    }

    fn pair_gram_into(
        &self,
        pairs: &[(WorkerId, WorkerId)],
        gram: &mut TriplePairGram,
        scratch: &mut PeerGramScratch,
    ) {
        crate::gram::pair_gram_into_mapped(self.store.get(), &self.peers, pairs, gram, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ResponseMatrixBuilder, pair_stats, triple_joint_labels_optional, triple_overlap};

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
        let index = OverlapIndex::from_matrix(&data);
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
                    index.pair(WorkerId(a), WorkerId(b)),
                    pair_stats(&data, WorkerId(a), WorkerId(b)),
                );
                for c in (b + 1)..7u32 {
                    assert_eq!(
                        index.triple(WorkerId(a), WorkerId(b), WorkerId(c)),
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
        let index = OverlapIndex::from_matrix(&data);
        for anchor in 0..8u32 {
            let fast = index.anchored(WorkerId(anchor));
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
        let index = OverlapIndex::from_matrix(&data);
        for anchor in 0..9u32 {
            let full = index.anchored(WorkerId(anchor));
            // An arbitrary, unsorted, duplicated peer list.
            let peers = [
                WorkerId((anchor + 3) % 9),
                WorkerId((anchor + 1) % 9),
                WorkerId((anchor + 6) % 9),
                WorkerId((anchor + 1) % 9),
            ];
            let scoped = index.anchored_for(WorkerId(anchor), &peers);
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

    #[test]
    fn scratch_builds_match_owned_builds_across_anchors() {
        let data = sample(8, 90, 3, 515);
        let index = OverlapIndex::from_matrix(&data);
        let mut scratch = AnchoredScratch::default();
        // Re-using one scratch across anchors of very different degree
        // must never leak stale bits from a previous, larger build.
        for anchor in [0u32, 5, 1, 7, 2] {
            let peers: Vec<WorkerId> = (0..8)
                .filter(|&w| w != anchor && w % 2 == anchor % 2)
                .map(WorkerId)
                .collect();
            let owned = index.anchored_for(WorkerId(anchor), &peers);
            let reused = index.anchored_for_in(WorkerId(anchor), &peers, &mut scratch);
            for &a in &peers {
                assert_eq!(reused.pair_common(a), owned.pair_common(a));
                for &b in &peers {
                    assert_eq!(
                        reused.triple_common(a, b),
                        owned.triple_common(a, b),
                        "anchor {anchor}, pair ({a:?},{b:?})"
                    );
                }
            }
            assert_eq!(reused.common_among(&peers), owned.common_among(&peers));
        }
    }

    #[test]
    #[should_panic(expected = "peer scope")]
    fn peer_scoped_view_rejects_out_of_scope_queries() {
        let data = sample(5, 30, 2, 8);
        let index = OverlapIndex::from_matrix(&data);
        let view = index.anchored_for(WorkerId(0), &[WorkerId(1), WorkerId(2)]);
        let _ = view.triple_common(WorkerId(1), WorkerId(4));
    }

    #[test]
    fn peer_mask_covers_is_a_subset_test() {
        let all = PeerMask::population(6);
        let some = PeerMask::scoped(&[WorkerId(1), WorkerId(4)]);
        let more = PeerMask::scoped(&[WorkerId(1), WorkerId(3), WorkerId(4)]);
        let none = PeerMask::scoped(&[]);
        assert!(all.covers(&some) && all.covers(&all) && all.covers(&none));
        assert!(more.covers(&some) && more.covers(&none));
        assert!(!some.covers(&more) && !some.covers(&all));
        assert!(some.covers(&some));
        assert!(!PeerMask::population(4).covers(&PeerMask::scoped(&[WorkerId(5)])));
    }

    #[test]
    fn common_among_matches_naive_filter() {
        let data = sample(6, 50, 2, 7);
        let index = OverlapIndex::from_matrix(&data);
        let anchor = WorkerId(0);
        let fast = index.anchored(anchor);
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
        let index = OverlapIndex::from_matrix(&data);
        assert_eq!(index.pair(WorkerId(0), WorkerId(1)).common_tasks, 1);
        assert_eq!(index.pair(WorkerId(0), WorkerId(2)).common_tasks, 0);
        assert!(index.worker_responses(WorkerId(2)).is_empty());
        assert_eq!(
            index
                .triple(WorkerId(0), WorkerId(1), WorkerId(2))
                .common_tasks,
            0
        );
        let view = index.anchored(WorkerId(2));
        assert_eq!(view.triple_common(WorkerId(0), WorkerId(1)), 0);
    }
}
