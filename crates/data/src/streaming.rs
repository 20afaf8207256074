//! The streaming overlap substrate: a long-lived [`OverlapIndex`] plus
//! **incrementally maintained**, **peer-scoped** per-worker anchored
//! bitset views.
//!
//! The batch pipeline builds one [`OverlapIndex`] per `evaluate_all`
//! and constructs each worker's [`crate::BitsetAnchored`] view on
//! demand, once per evaluation. A streaming monitor that re-evaluates
//! after every ingest would pay that build over and over even though
//! one response flips at most a handful of bits. [`StreamingIndex`]
//! therefore keeps an [`AnchoredView`] per worker and updates the
//! **anchored** ones response by response:
//!
//! * a response `(w, t)` adds one bit (`w` attempted `t`) to the view
//!   of every anchor that already attempted `t` *and tracks `w` in its
//!   peer scope* — `O(r_t)` peer-map probes, plus a slot lookup for
//!   each anchor that does track `w` (see below);
//! * the view of `w` itself gains a new slot for `t`, set for every
//!   current responder of `t` inside its scope — another `O(r_t)`.
//!
//! # Peer scoping and lazy re-anchoring
//!
//! Views are **lazy**: they hold no mask rows at all until the first
//! [`OverlapSource::anchored_for`] (or population-wide
//! [`OverlapSource::anchored`]) call for their worker, and from then
//! on only a row per *declared peer* — the ≤ 2l workers the caller's
//! pairing selected — never a row per population member. When a later
//! call declares peers outside the current scope (the pairing
//! changed), the view **re-anchors**: one fresh peer-scoped build from
//! the index through the batch views' own fill kernel
//! (`O(l_anchor + Σ_{p ∈ peers} l_p)`, plus `O(l_anchor)` to reset
//! the view's slots), after which incremental maintenance resumes.
//! Calls whose peers are already covered are served as-is — unless
//! the held scope is > 4× the requested one, where the view
//! re-anchors *down* and releases the larger allocation (a view that
//! once served a population-wide query must not pin `O(m)` rows
//! forever). A stable pairing therefore never rebuilds
//! ([`StreamingIndex::reanchor_count`] makes the rebuild traffic
//! observable).
//!
//! Slots are assigned in task order at re-anchor time and in **ingest
//! order** thereafter; every query the estimators make
//! ([`AnchoredOverlap::triple_common`],
//! [`AnchoredOverlap::common_among`], [`AnchoredView::pair_common`])
//! is a popcount and popcounts are permutation-invariant, so the
//! maintained views answer *exactly* what a fresh batch build would —
//! the property the streaming-equivalence test suite pins down to the
//! bit.
//!
//! # Slot lookup
//!
//! Ingest must find, for an anchor `a` that tracks the arriving
//! worker, the slot the arriving task `t` occupies in `a`'s view —
//! without hashing, and without per-view state sized by the task-id
//! space. Each anchored view therefore keeps its slots **parallel to
//! its anchor's task-sorted worker row**: entry `j` is the slot of the
//! row's `j`-th task. The lookup is a binary search of `t` in that row
//! (`O(log l_anchor)`, the same order as the peer-map probe before
//! it, and run only for anchors whose scope holds the arriving
//! worker); the anchor's own new task inserts its slot at the position
//! the index inserted the response into the row; a re-anchor resets
//! the entries to task order in `O(l_anchor)`. That is one `u32` per
//! response of an anchored worker and nothing for a dormant one. The
//! slots are derived state: checkpoints do not carry them, and a
//! restored substrate rebuilds them when a view next anchors.
//!
//! # Maintained grams
//!
//! Each view also carries the [`crate::PeerGram`] table of its scope
//! (every pairwise AND-popcount among scoped rows), **materialized
//! lazily** on the first gram query and **patched in place** on every
//! ingest: a peer response increments one row/column pair of the
//! table (`O(scope)`), an anchor response increments the in-scope
//! responder submatrix (`O(r_t²)`). A covariance evaluation against a
//! covered scope therefore recomputes no popcounts — it extracts
//! `O(peers²)` table entries — and the table equals a fresh blocked
//! build from the accumulated index at every prefix (pinned by the
//! gram property tests). Patching is **metered** so ingest-heavy
//! phases cannot pay more in maintenance than recomputation would
//! cost: each serve grants about one recompute's worth of patch
//! budget, and when a flood of ingests exhausts it the cache
//! self-invalidates and the next gram query rebuilds once.
//! Re-anchors invalidate the table the same way.
//!
//! Memory: an **anchored** view holds at most `2l × ⌈l_anchor/64⌉`
//! mask words plus its `l_anchor` slots; dormant views hold neither.
//! The slots of all views together are at most one `u32` per response
//! (`N` in all), and the substrate adds one `n`-entry slot-stamp
//! scratch that every re-anchor shares, so the resident cost is
//! `O(a·l·n̄/64 + N + n)` in the number of *evaluated* workers
//! `a ≤ m` — nothing per view grows with the task-id space, which is
//! what fleet-scale worker counts (and per-shard service monitors
//! sharing one fleet-sized id space) need; the population-scoped
//! original design held `O(m²·n̄/64 + m·n)`. A materialized gram adds
//! `O(l²)` per **evaluated** view. At even larger scale shard workers
//! first (see ROADMAP "Sharded assessment") — one monitor per shard
//! closure also bounds the gram residency.
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
//! moves. With the sparse pair backend the set is read straight off
//! the [`crate::PairMap`] row in `O(d_w)`; the dense backend keeps a
//! small mirror adjacency for the same purpose. This is what makes
//! epoch-gated report caches (`crowd_core`'s `ReportCache`) sound: a
//! worker whose `dirty_epoch` has not advanced past a cached
//! evaluation would re-derive bit-identical numbers.

use crate::index::{AnchoredOverlap, MaskMatrix, OverlapSource, PairBackend, PeerMask, SlotStamps};
use crate::{
    CountsTensor, Label, OverlapIndex, PairStats, PeerGram, PeerGramScratch, Response,
    ResponseMatrix, TaskId, TriplePairGram, TripleStats, WorkerId,
};
use std::cell::{Cell, Ref, RefCell};

/// One worker's maintained anchored triple-overlap view; the streaming
/// counterpart of [`crate::BitsetAnchored`].
///
/// The anchor's attempted tasks occupy bit slots `0..anchor_tasks`;
/// row `r` of the mask matrix records which of those tasks the
/// `r`-th *scoped peer* attempted. Views start un-anchored (no rows,
/// no slots) and acquire a scope on first use; see the
/// [module docs](self). All queries are word-parallel popcounts.
#[derive(Debug, Clone)]
pub struct AnchoredView {
    /// The anchored bit matrix and its popcount kernels — the *same*
    /// [`MaskMatrix`] implementation the batch [`crate::BitsetAnchored`]
    /// view queries, so the two views cannot drift apart.
    matrix: MaskMatrix,
    /// The peer scope: which workers have mask rows. `None` until the
    /// first anchored query for this worker.
    scope: Option<PeerMask>,
    /// The slot of each anchor task, parallel to the anchor's
    /// task-sorted worker row (see the [module docs](self)). Empty
    /// until the view first anchors; one entry per anchor task
    /// thereafter.
    slots: Vec<u32>,
    /// Lazily materialized scope-rows × scope-rows Gram of AND
    /// popcounts, **patched incrementally** on every ingest that flips
    /// a mask bit — a covariance evaluation against a stable scope
    /// re-reads the table instead of recomputing popcounts (see
    /// [`AnchoredOverlap::gram_into`]). Interior mutability because
    /// materialization happens behind the shared `Ref` the evaluators
    /// hold; invalidated (not rebuilt) on re-anchor or when the patch
    /// budget runs dry (see [`ScopeGram`]).
    gram: RefCell<ScopeGram>,
    /// Reusable in-scope-responder row buffer for the anchor-task
    /// gram patch — the ingest path stays allocation-free once it
    /// reaches its high-water mark.
    patch_rows: Vec<usize>,
}

/// The maintained Gram cache of one [`AnchoredView`]; dormant (zero
/// memory) until the first gram query for the view, exact from then
/// on until a re-anchor invalidates it.
///
/// Patching is metered: a peer response costs `O(scope)` table
/// increments and an anchor task `O(r_t²)`, so a view that ingests
/// far more than it evaluates would pay more in patches than one
/// blocked recompute. `remaining` holds the patch budget — about one
/// recompute's worth of work, reset every time the table is served —
/// and when it runs dry the cache invalidates itself and the next
/// gram query rebuilds lazily. Evaluation-heavy monitors therefore
/// never recompute a popcount, while ingest-heavy phases pay at most
/// ~2× one gram build per serve, never per response.
#[derive(Debug, Clone, Default)]
struct ScopeGram {
    live: bool,
    /// `scope.rows()²` counts when live.
    counts: Vec<u32>,
    /// Patch operations left before the cache stops paying for itself
    /// and self-invalidates.
    remaining: usize,
}

impl ScopeGram {
    /// One recompute's worth of patch operations: a peer-response
    /// patch costs ~`rows` increments and the blocked rebuild
    /// ~`rows²·words/2` word operations, so `rows·words/2` patches
    /// break even (floored so tiny views still absorb a burst).
    fn budget(rows: usize, words: usize) -> usize {
        (rows * words / 2).max(64)
    }

    fn invalidate(&mut self) {
        self.live = false;
        self.counts = Vec::new();
        self.remaining = 0;
    }
}

impl AnchoredView {
    fn new() -> Self {
        Self {
            matrix: MaskMatrix::new(0, 1),
            scope: None,
            slots: Vec::new(),
            gram: RefCell::new(ScopeGram::default()),
            patch_rows: Vec::new(),
        }
    }

    /// Whether the view is anchored with a scope covering `peers`.
    fn covers(&self, peers: &PeerMask) -> bool {
        self.scope.as_ref().is_some_and(|s| s.covers(peers))
    }

    /// Whether the held scope is wastefully larger (> 4×) than the
    /// requested one; see [`StreamingIndex`]'s `ensure_scope`.
    fn oversized_for(&self, peers: &PeerMask) -> bool {
        self.scope
            .as_ref()
            .is_some_and(|s| s.rows() > 4 * peers.rows().max(1))
    }

    /// Ingest maintenance: `worker` responded to the anchor task
    /// `task`; set its bit if it is in scope, at the slot found by
    /// binary search in `anchor_row` (the anchor's worker row). No-op
    /// for un-anchored views (they rebuild from the index on first
    /// use). Returns whether the maintained gram was patched.
    fn note_peer_response(&mut self, worker: u32, task: u32, anchor_row: &[(u32, Label)]) -> bool {
        let Some(scope) = &self.scope else {
            return false;
        };
        if let Some(row) = scope.row(worker) {
            let at = anchor_row
                .binary_search_by_key(&task, |&(t, _)| t)
                .expect("responders of a task are anchors of that task");
            let slot = self.slots[at];
            self.matrix.set_bit(row, slot);
            // Patch the maintained gram: row's intersections grow by
            // one against every scoped row that also has the slot set
            // (row itself included — its diagonal popcount grows too).
            let gram = self.gram.get_mut();
            if gram.live {
                if gram.remaining == 0 {
                    gram.invalidate();
                    return false;
                }
                gram.remaining -= 1;
                let d = scope.rows();
                for r in 0..d {
                    if self.matrix.bit(r, slot) {
                        gram.counts[row * d + r] += 1;
                        if r != row {
                            gram.counts[r * d + row] += 1;
                        }
                    }
                }
                return true;
            }
        }
        false
    }

    /// Ingest maintenance: the anchor itself responded to a task,
    /// which took position `at` of its worker row; assign the next
    /// slot (recorded at `at`) and fill it for the in-scope members of
    /// `responders` (the task's current responder list, anchor
    /// included). Amortized `O(r_t + l_anchor)`: the bit matrix
    /// re-lays out only when the slot count crosses the doubled word
    /// capacity. No-op for un-anchored views. Returns whether the
    /// maintained gram was patched.
    fn note_anchor_task(&mut self, at: usize, responders: &[(u32, Label)]) -> bool {
        let Some(scope) = &self.scope else {
            return false;
        };
        let slot = self.matrix.push_slot();
        self.slots.insert(at, slot);
        let gram = self.gram.get_mut();
        if gram.live {
            // The fresh slot is set exactly for the in-scope
            // responders, so every ordered pair among them (diagonal
            // included) gains one shared task.
            self.patch_rows.clear();
            self.patch_rows
                .extend(responders.iter().filter_map(|&(w, _)| scope.row(w)));
            let rows = &self.patch_rows;
            for &r in rows {
                self.matrix.set_bit(r, slot);
            }
            if gram.remaining < rows.len() {
                gram.invalidate();
                return false;
            }
            gram.remaining -= rows.len();
            let d = scope.rows();
            for &r1 in rows {
                for &r2 in rows {
                    gram.counts[r1 * d + r2] += 1;
                }
            }
            true
        } else {
            for &(w, _) in responders {
                if let Some(row) = scope.row(w) {
                    self.matrix.set_bit(row, slot);
                }
            }
            false
        }
    }

    /// Re-anchors the view for `scope` through the *same*
    /// [`crate::index::fill_anchored`] kernel the batch views use
    /// (slots in task order; `stamps` is the substrate's shared
    /// scratch) — one implementation of the bit layout, so the
    /// maintained and batch views cannot drift apart. The matrix is
    /// pre-sized to the anchor's exact current degree (no doubling
    /// re-layout) and its reuse slack is released afterwards: the view
    /// is long-lived state, and a downsizing re-anchor (population →
    /// peer scope) must actually return the memory it claims to.
    fn reanchor(
        &mut self,
        index: &OverlapIndex,
        anchor: WorkerId,
        scope: PeerMask,
        stamps: &mut SlotStamps,
    ) {
        crate::index::fill_anchored(index, anchor, &scope, &mut self.matrix, stamps);
        self.matrix.shrink();
        self.slots = (0..index.worker_responses(anchor).len() as u32).collect();
        self.scope = Some(scope);
        // The cached gram is keyed to the old scope's rows; drop it
        // (the next gram query recomputes lazily) rather than patch
        // across a row remap.
        self.gram.get_mut().invalidate();
    }

    /// Materializes the scope gram if needed (one blocked pass over
    /// the maintained matrix, counted in `rebuilds`) and returns it;
    /// exact thereafter because every ingest patches it in place.
    /// Each serve refills the patch budget — a table that keeps
    /// getting read keeps earning its maintenance.
    fn ensure_gram(&self, rebuilds: &Cell<usize>) -> Ref<'_, ScopeGram> {
        {
            let mut gram = self.gram.borrow_mut();
            let scope = self
                .scope
                .as_ref()
                .expect("view queried before it was anchored");
            if !gram.live {
                let rows: Vec<usize> = (0..scope.rows()).collect();
                let ScopeGram { live, counts, .. } = &mut *gram;
                self.matrix.gram_rows_into(&rows, counts);
                *live = true;
                rebuilds.set(rebuilds.get() + 1);
            }
            gram.remaining = ScopeGram::budget(scope.rows(), self.matrix.words());
        }
        self.gram.borrow()
    }

    /// `c_{anchor,a}`: tasks shared by the anchor and one worker.
    pub fn pair_common(&self, a: WorkerId) -> usize {
        self.matrix.pair_common(self.row_of(a))
    }

    /// Bytes resident in the view's bit matrix (zero until the view is
    /// first anchored; `peers · ⌈l_anchor/64⌉` words thereafter).
    pub fn mask_bytes(&self) -> usize {
        self.matrix.mask_bytes()
    }

    /// Every byte of per-view state: the bit matrix, the materialized
    /// gram, the patch buffer, the peer list and the slots. Zero for a
    /// dormant view.
    fn resident_bytes(&self) -> usize {
        let Some(scope) = &self.scope else {
            return 0;
        };
        let u32_bytes = std::mem::size_of::<u32>();
        self.matrix.mask_bytes()
            + self.gram.borrow().counts.capacity() * u32_bytes
            + self.patch_rows.capacity() * std::mem::size_of::<usize>()
            + scope.heap_bytes()
            + self.slots.capacity() * u32_bytes
    }

    #[inline]
    fn row_of(&self, w: WorkerId) -> usize {
        self.scope
            .as_ref()
            .expect("view queried before it was anchored")
            .row_of(w)
    }
}

/// A borrowed [`AnchoredView`] as [`StreamingIndex`] serves it: the
/// view plus the substrate-wide gram-rebuild counter that the view's
/// lazy gram materialization bumps (see
/// [`StreamingIndex::gram_rebuild_count`]). Dereferences to the view.
#[derive(Debug)]
pub struct ViewRef<'a> {
    view: Ref<'a, AnchoredView>,
    gram_rebuilds: &'a Cell<usize>,
}

impl std::ops::Deref for ViewRef<'_> {
    type Target = AnchoredView;

    fn deref(&self) -> &AnchoredView {
        &self.view
    }
}

impl AnchoredOverlap for ViewRef<'_> {
    fn triple_common(&self, a: WorkerId, b: WorkerId) -> usize {
        let view = &*self.view;
        view.matrix.triple_common(view.row_of(a), view.row_of(b))
    }

    fn common_among(&self, others: &[WorkerId]) -> usize {
        let view = &*self.view;
        crate::index::common_among_mapped(
            &view.matrix,
            view.scope
                .as_ref()
                .expect("view queried before it was anchored"),
            others,
        )
    }

    fn gram_into(&self, peers: &[WorkerId], gram: &mut PeerGram, scratch: &mut PeerGramScratch) {
        // Serve from the maintained scope gram: materialize once, then
        // every later call against a covered scope is an O(peers²)
        // table extraction — no popcount ever reruns while the
        // maintained-view invariant holds (ingests patch the cache).
        let view = &*self.view;
        let scope = view
            .scope
            .as_ref()
            .expect("view queried before it was anchored");
        let cache = view.ensure_gram(self.gram_rebuilds);
        gram.reset(peers);
        let dim = gram.dim();
        scratch.rows.clear();
        for row in 0..dim {
            scratch.rows.push(scope.row_of(gram.peer(row)));
        }
        let d = scope.rows();
        let counts = gram.counts_mut();
        for (i, &ri) in scratch.rows.iter().enumerate() {
            for (j, &rj) in scratch.rows.iter().enumerate() {
                counts[i * dim + j] = cache.counts[ri * d + rj];
            }
        }
    }

    fn pair_gram_into(
        &self,
        pairs: &[(WorkerId, WorkerId)],
        gram: &mut TriplePairGram,
        scratch: &mut PeerGramScratch,
    ) {
        let view = &*self.view;
        crate::gram::pair_gram_into_mapped(
            &view.matrix,
            view.scope
                .as_ref()
                .expect("view queried before it was anchored"),
            pairs,
            gram,
            scratch,
        );
    }
}

impl<T: AnchoredOverlap> AnchoredOverlap for &T {
    fn triple_common(&self, a: WorkerId, b: WorkerId) -> usize {
        (**self).triple_common(a, b)
    }

    fn common_among(&self, others: &[WorkerId]) -> usize {
        (**self).common_among(others)
    }

    fn gram_into(&self, peers: &[WorkerId], gram: &mut PeerGram, scratch: &mut PeerGramScratch) {
        (**self).gram_into(peers, gram, scratch);
    }

    fn pair_gram_into(
        &self,
        pairs: &[(WorkerId, WorkerId)],
        gram: &mut TriplePairGram,
        scratch: &mut PeerGramScratch,
    ) {
        (**self).pair_gram_into(pairs, gram, scratch);
    }
}

/// A long-lived [`OverlapIndex`] plus lazily anchored, maintained
/// [`AnchoredView`]s — the substrate of streaming evaluation (see the
/// [module docs](self)).
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
/// let view = stream.anchored_for(WorkerId(0), &[WorkerId(1)]);
/// assert_eq!(view.triple_common(WorkerId(1), WorkerId(1)), 4);
/// # Ok::<(), crowd_data::DataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingIndex {
    index: OverlapIndex,
    views: Vec<RefCell<AnchoredView>>,
    /// The fill kernel's task→slot stamps, one scratch shared by every
    /// re-anchor (allocated by the first peer-scoped one).
    stamps: RefCell<SlotStamps>,
    /// Lazy re-anchors performed so far (diagnostic: a stable pairing
    /// should stop incurring these).
    reanchors: Cell<usize>,
    /// Blocked gram (re)builds across all views (diagnostic; see
    /// [`StreamingIndex::gram_rebuild_count`]).
    gram_rebuilds: Cell<usize>,
    /// In-place gram patch operations across all views (diagnostic;
    /// see [`StreamingIndex::gram_patch_count`]).
    gram_patches: usize,
    /// Monotone ingest epoch: 0 for an empty substrate, advanced by
    /// one per accepted response. [`StreamingIndex::from_matrix`]
    /// seeds at 1 (the seed is one opaque bulk ingest).
    epoch: u64,
    /// Per-worker epoch at which that worker's assessment inputs last
    /// changed (see the [module docs](self) and
    /// [`StreamingIndex::dirty_epoch`]).
    dirty_at: Vec<u64>,
    /// Sorted co-occurring-worker lists, maintained only under the
    /// dense pair backend whose table cannot enumerate a worker's
    /// neighbours; the sparse backend serves
    /// [`OverlapSource::co_occurring_into`] straight off its rows.
    dense_adj: Option<Vec<Vec<u32>>>,
    /// Reusable neighbour buffer for the per-ingest dirty sweep.
    dirty_scratch: Vec<WorkerId>,
}

/// Sorted-unique insertion for the mirror adjacency rows.
fn insert_sorted(row: &mut Vec<u32>, w: u32) {
    if let Err(pos) = row.binary_search(&w) {
        row.insert(pos, w);
    }
}

impl StreamingIndex {
    /// An empty streaming substrate of the given shape (dense pair
    /// table).
    ///
    /// # Panics
    /// Panics if `arity < 2` (mirroring [`OverlapIndex::new`]).
    pub fn new(n_workers: usize, n_tasks: usize, arity: u16) -> Self {
        Self::new_with(n_workers, n_tasks, arity, PairBackend::Dense)
    }

    /// [`StreamingIndex::new`] with an explicit pair-table backend.
    /// The sparse [`crate::PairMap`] backend is the fleet-scale /
    /// per-shard opt-in: a shard worker ingesting only its closure's
    /// responses holds pair state proportional to the co-occurring
    /// pairs it actually sees, never `O(m²)` (see [`PairBackend`]).
    ///
    /// # Panics
    /// Panics if `arity < 2` (mirroring [`OverlapIndex::new_with`]).
    pub fn new_with(n_workers: usize, n_tasks: usize, arity: u16, backend: PairBackend) -> Self {
        let dense_adj = match backend {
            PairBackend::Dense => Some(vec![Vec::new(); n_workers]),
            PairBackend::Sparse => None,
        };
        Self {
            index: OverlapIndex::new_with(n_workers, n_tasks, arity, backend),
            views: (0..n_workers)
                .map(|_| RefCell::new(AnchoredView::new()))
                .collect(),
            stamps: RefCell::default(),
            reanchors: Cell::new(0),
            gram_rebuilds: Cell::new(0),
            gram_patches: 0,
            epoch: 0,
            dirty_at: vec![0; n_workers],
            dense_adj,
            dirty_scratch: Vec::new(),
        }
    }

    /// Seeds the substrate from an existing matrix — one batch index
    /// build and nothing else: views stay un-anchored (zero mask
    /// memory) until the first evaluation asks for them. The seed
    /// counts as one bulk ingest: the epoch starts at 1 with every
    /// worker dirty at it.
    pub fn from_matrix(data: &ResponseMatrix) -> Self {
        let index = OverlapIndex::from_matrix(data);
        // The batch index uses the dense pair backend, which cannot
        // enumerate neighbours; build the mirror adjacency from the
        // task responder lists (`O(Σ r_t²)`, same order as the pair
        // table build itself).
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); data.n_workers()];
        for t in 0..data.n_tasks() as u32 {
            let responders = index.task_responses(TaskId(t));
            for (i, &(a, _)) in responders.iter().enumerate() {
                for &(b, _) in &responders[i + 1..] {
                    adj[a as usize].push(b);
                    adj[b as usize].push(a);
                }
            }
        }
        for row in &mut adj {
            row.sort_unstable();
            row.dedup();
        }
        Self {
            index,
            views: (0..data.n_workers())
                .map(|_| RefCell::new(AnchoredView::new()))
                .collect(),
            stamps: RefCell::default(),
            reanchors: Cell::new(0),
            gram_rebuilds: Cell::new(0),
            gram_patches: 0,
            epoch: 1,
            dirty_at: vec![1; data.n_workers()],
            dense_adj: Some(adj),
            dirty_scratch: Vec::new(),
        }
    }

    /// Ingests one response, updating the index (rows + pair table) and
    /// every affected *anchored* view. `O(log r + r)` row insertion
    /// plus `O(r_t)` pair-table and bitset maintenance; un-anchored
    /// views cost nothing. The validation and error taxonomy are
    /// [`OverlapIndex::record_response`]'s.
    pub fn record_response(&mut self, response: Response) -> crate::Result<()> {
        let at = self.index.insert_response(response)?;
        let responders = self.index.task_responses(response.task);
        // Existing anchors of this task gain one bit: the new worker.
        for &(anchor, _) in responders {
            if anchor == response.worker.0 {
                continue;
            }
            self.gram_patches +=
                usize::from(self.views[anchor as usize].get_mut().note_peer_response(
                    response.worker.0,
                    response.task.0,
                    self.index.worker_responses(WorkerId(anchor)),
                ));
        }
        // The responding worker's own view gains the task as a slot.
        self.gram_patches += usize::from(
            self.views[response.worker.index()]
                .get_mut()
                .note_anchor_task(at, responders),
        );
        // Dense-backend mirror adjacency: the response co-occurs the
        // worker with every prior responder of the task.
        if let Some(adj) = self.dense_adj.as_mut() {
            let w = response.worker.0;
            for &(r, _) in responders {
                if r == w {
                    continue;
                }
                insert_sorted(&mut adj[w as usize], r);
                insert_sorted(&mut adj[r as usize], w);
            }
        }
        self.mark_dirty(response.worker);
        Ok(())
    }

    /// Advances the ingest epoch and stamps it on `{w} ∪ cooccur(w)`
    /// — every worker whose assessment inputs the accepted response
    /// can have moved (see the [module docs](self)). `O(d_w)` off the
    /// pair-table adjacency; the epoch is taken **after** the index
    /// update so co-occurrences the response itself created are in
    /// the set.
    fn mark_dirty(&mut self, worker: WorkerId) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.dirty_at[worker.index()] = epoch;
        let mut scratch = std::mem::take(&mut self.dirty_scratch);
        scratch.clear();
        if self.index.co_occurring_into(worker, &mut scratch) {
            for &p in &scratch {
                self.dirty_at[p.index()] = epoch;
            }
        } else if let Some(adj) = &self.dense_adj {
            for &p in &adj[worker.index()] {
                self.dirty_at[p as usize] = epoch;
            }
        } else {
            // No adjacency available (a future backend without
            // neighbour enumeration): degrade soundly by dirtying
            // everyone rather than risking a stale cached report.
            for d in &mut self.dirty_at {
                *d = epoch;
            }
        }
        self.dirty_scratch = scratch;
    }

    /// Serves the view of `anchor`, re-anchoring it first when its
    /// current scope does not cover `scope` — or when it covers it
    /// with more than 4× the rows the caller asked for: a long-lived
    /// view that once served a population-wide query must not pin
    /// `O(m)` mask rows forever after the caller has moved to a
    /// pairing-degree scope. The 4× slack tolerates ordinary pairing
    /// drift without rebuild thrash.
    fn ensure_scope(&self, anchor: WorkerId, scope: PeerMask) -> ViewRef<'_> {
        let cell = &self.views[anchor.index()];
        let view = cell.borrow();
        let view = if view.covers(&scope) && !view.oversized_for(&scope) {
            view
        } else {
            drop(view);
            self.reanchors.set(self.reanchors.get() + 1);
            cell.borrow_mut()
                .reanchor(&self.index, anchor, scope, &mut self.stamps.borrow_mut());
            cell.borrow()
        };
        ViewRef {
            view,
            gram_rebuilds: &self.gram_rebuilds,
        }
    }

    /// The maintained index.
    #[inline]
    pub fn index(&self) -> &OverlapIndex {
        &self.index
    }

    /// The maintained anchored view of one worker, population-scoped
    /// (every worker may be queried; re-anchors if the view currently
    /// tracks fewer peers). Prefer [`OverlapSource::anchored_for`] on
    /// evaluation paths — it keeps the view at pairing-degree size.
    #[inline]
    pub fn view(&self, worker: WorkerId) -> ViewRef<'_> {
        self.ensure_scope(worker, PeerMask::population(self.index.n_workers()))
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

    /// Bytes resident in per-view state across all views: each
    /// anchored view's mask words, materialized gram, patch buffer,
    /// peer list and slots — the quantity the peer-scoped design
    /// bounds by `O(a·(l·n̄/64 + l² + n̄))` in the number of anchored
    /// views `a`, with nothing sized by `n_tasks`. Dormant views count
    /// zero; the shared slot-stamp scratch is substrate state and not
    /// counted.
    pub fn view_mask_bytes(&self) -> usize {
        self.views.iter().map(|v| v.borrow().resident_bytes()).sum()
    }

    /// Bytes resident in the anchored views' mask words alone — the
    /// part of [`StreamingIndex::view_mask_bytes`] that peer scoping
    /// shrinks from `m` rows per view to the pairing degree.
    pub fn view_mask_word_bytes(&self) -> usize {
        self.views.iter().map(|v| v.borrow().mask_bytes()).sum()
    }

    /// How many lazy re-anchors have run (diagnostic; see the
    /// [module docs](self)).
    pub fn reanchor_count(&self) -> usize {
        self.reanchors.get()
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

    /// Total in-place gram patch operations applied by ingest
    /// maintenance across all views (diagnostic: together with
    /// [`StreamingIndex::gram_rebuild_count`] this makes the
    /// maintained-gram traffic observable — an evaluation-heavy
    /// monitor should show patches dwarfing rebuilds). One load: the
    /// substrate keeps the total, not the views.
    pub fn gram_patch_count(&self) -> usize {
        self.gram_patches
    }

    /// Total blocked gram (re)builds across all views — lazy first
    /// materializations plus rebuilds forced by re-anchors or an
    /// exhausted patch budget. One load, like
    /// [`StreamingIndex::reanchor_count`]: the substrate keeps one
    /// counter that every view's materialization bumps, so a per-message
    /// poll costs the same at any fleet size. Only evaluation moves it
    /// (ingest patches or invalidates a gram, never rebuilds one), and
    /// like every diagnostic counter it restarts at zero on
    /// [`StreamingIndex::restore`].
    pub fn gram_rebuild_count(&self) -> usize {
        self.gram_rebuilds.get()
    }
}

impl OverlapSource for StreamingIndex {
    type Anchored<'a> = ViewRef<'a>;

    fn n_workers(&self) -> usize {
        self.index.n_workers()
    }

    fn arity(&self) -> u16 {
        OverlapSource::arity(&self.index)
    }

    fn pair(&self, a: WorkerId, b: WorkerId) -> PairStats {
        self.index.pair(a, b)
    }

    fn triple(&self, a: WorkerId, b: WorkerId, c: WorkerId) -> TripleStats {
        self.index.triple(a, b, c)
    }

    fn anchored(&self, anchor: WorkerId) -> ViewRef<'_> {
        self.ensure_scope(anchor, PeerMask::population(self.index.n_workers()))
    }

    fn anchored_for(&self, anchor: WorkerId, peers: &[WorkerId]) -> ViewRef<'_> {
        self.ensure_scope(anchor, PeerMask::scoped_for(peers, self.index.n_workers()))
    }

    fn fill_counts(&self, tensor: &mut CountsTensor, w1: WorkerId, w2: WorkerId, w3: WorkerId) {
        tensor.fill_from_index(&self.index, w1, w2, w3);
    }

    fn co_occurring_into(&self, worker: WorkerId, out: &mut Vec<WorkerId>) -> bool {
        if self.index.co_occurring_into(worker, out) {
            return true;
        }
        // Dense backend: serve from the mirror adjacency the dirty
        // tracker maintains. Same sorted-ascending, positive-overlap
        // worker list the sparse rows would produce, so pairing sees
        // an identical candidate sequence (zero-overlap workers are
        // screened out either way; see `crowd_core::pairing`).
        match &self.dense_adj {
            Some(adj) => {
                out.extend(adj[worker.index()].iter().map(|&w| WorkerId(w)));
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ResponseMatrixBuilder, TaskId, pair_stats};

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

    /// Streamed and seeded substrates answer the same queries as the
    /// batch index and its on-demand anchored views.
    #[test]
    fn maintained_views_match_batch_anchored_builds() {
        let data = sample(7, 45, 2, 2024);
        let batch = OverlapIndex::from_matrix(&data);
        let seeded = StreamingIndex::from_matrix(&data);
        let mut streamed = StreamingIndex::new(7, 45, 2);
        let mut responses: Vec<_> = data.iter().collect();
        responses.reverse();
        for r in responses {
            streamed.record_response(r).unwrap();
        }
        assert_eq!(streamed.index(), &batch);
        assert_eq!(seeded.index(), &batch);
        for anchor in batch.workers() {
            let fresh = batch.anchored(anchor);
            for sub in [&seeded, &streamed] {
                let view = sub.view(anchor);
                assert_eq!(
                    view.common_among(&[]),
                    batch.worker_responses(anchor).len(),
                    "anchor {anchor:?} slot count"
                );
                for a in batch.workers() {
                    assert_eq!(
                        view.pair_common(a),
                        if a == anchor {
                            batch.worker_responses(anchor).len()
                        } else {
                            pair_stats(&data, anchor, a).common_tasks
                        },
                        "anchor {anchor:?} pair {a:?}"
                    );
                    for b in batch.workers() {
                        assert_eq!(
                            view.triple_common(a, b),
                            fresh.triple_common(a, b),
                            "anchor {anchor:?} pair ({a:?},{b:?})"
                        );
                    }
                }
                let peers: Vec<WorkerId> = batch.workers().filter(|&w| w != anchor).collect();
                assert_eq!(
                    view.common_among(&peers[..4]),
                    fresh.common_among(&peers[..4])
                );
            }
        }
    }

    /// A peer-scoped view is maintained across later ingests with no
    /// re-anchor, and keeps matching fresh batch builds bit for bit.
    #[test]
    fn scoped_views_are_maintained_without_reanchoring() {
        let data = sample(6, 40, 2, 99);
        let mut responses: Vec<_> = data.iter().collect();
        responses.reverse();
        let cut = responses.len() / 2;

        let mut stream = StreamingIndex::new(6, 40, 2);
        for r in &responses[..cut] {
            stream.record_response(*r).unwrap();
        }
        let anchor = WorkerId(0);
        let peers = [WorkerId(2), WorkerId(4), WorkerId(5)];
        {
            let view = stream.anchored_for(anchor, &peers);
            let fresh = stream.index().anchored(anchor);
            assert_eq!(
                view.triple_common(peers[0], peers[1]),
                fresh.triple_common(peers[0], peers[1])
            );
        }
        assert_eq!(stream.reanchor_count(), 1);

        // Stream the rest: the scoped view must stay exact with zero
        // further rebuilds.
        for r in &responses[cut..] {
            stream.record_response(*r).unwrap();
        }
        let view = stream.anchored_for(anchor, &peers);
        let fresh = stream.index().anchored(anchor);
        for &a in &peers {
            assert_eq!(view.pair_common(a), fresh.pair_common(a), "peer {a:?}");
            for &b in &peers {
                assert_eq!(
                    view.triple_common(a, b),
                    fresh.triple_common(a, b),
                    "pair ({a:?},{b:?})"
                );
            }
        }
        assert_eq!(view.common_among(&peers), fresh.common_among(&peers));
        drop(view);
        assert_eq!(
            stream.reanchor_count(),
            1,
            "covered scopes must not rebuild"
        );

        // A peer outside the scope forces exactly one re-anchor.
        let wider = [WorkerId(1), WorkerId(2)];
        let view = stream.anchored_for(anchor, &wider);
        let fresh = stream.index().anchored(anchor);
        assert_eq!(
            view.triple_common(WorkerId(1), WorkerId(2)),
            fresh.triple_common(WorkerId(1), WorkerId(2))
        );
        drop(view);
        assert_eq!(stream.reanchor_count(), 2);
    }

    /// Views hold no mask memory until something asks for them, and
    /// peer-scoped memory tracks the declared peer count, not m.
    #[test]
    fn view_memory_is_lazy_and_peer_scoped() {
        let data = sample(8, 64, 2, 7);
        let stream = StreamingIndex::from_matrix(&data);
        assert_eq!(stream.view_mask_bytes(), 0, "un-anchored views are free");

        let peers = [WorkerId(1), WorkerId(2)];
        let (scoped_bytes, resident) = {
            let view = stream.anchored_for(WorkerId(0), &peers);
            (view.mask_bytes(), view.resident_bytes())
        };
        assert_eq!(stream.view_mask_bytes(), resident);
        let full_bytes = stream.index().anchored(WorkerId(0)).mask_bytes();
        assert_eq!(
            full_bytes,
            scoped_bytes / peers.len() * data.n_workers(),
            "peer-scoped rows must cost a fraction peers/m of the full view"
        );
    }

    /// A downsizing re-anchor (population scope → small peer scope)
    /// actually releases the mask allocation — `mask_bytes` reports
    /// capacity, so slack cannot hide behind the length.
    #[test]
    fn downsizing_reanchor_releases_mask_memory() {
        let data = sample(16, 64, 2, 33);
        let stream = StreamingIndex::from_matrix(&data);
        let population_bytes = {
            let view = stream.view(WorkerId(0));
            view.mask_bytes()
        };
        assert!(population_bytes > 0);
        let peers = [WorkerId(3), WorkerId(9)];
        let (scoped_bytes, resident) = {
            let view = stream.anchored_for(WorkerId(0), &peers);
            (view.mask_bytes(), view.resident_bytes())
        };
        assert_eq!(stream.view_mask_bytes(), resident);
        assert!(
            scoped_bytes * 4 <= population_bytes,
            "downsizing from 16 rows to 2 must release the allocation: \
             {scoped_bytes}B resident after re-anchor vs {population_bytes}B before"
        );
    }

    /// Per-view state grows with the responses a view covers, never
    /// with the task-id space: two substrates holding the same
    /// responses over 100 and 100 000 task ids carry byte-identical
    /// views, whether anchored peer-scoped or population-wide, before
    /// and after further ingest. (Only the substrate's one shared slot
    /// stamp scratch scales with the id space.)
    #[test]
    fn per_view_state_does_not_scale_with_task_ids() {
        let data = sample(6, 100, 2, 5);
        let mut responses: Vec<_> = data.iter().collect();
        responses.reverse();
        let cut = responses.len() * 3 / 4;
        let mut small = StreamingIndex::new(6, 100, 2);
        let mut large = StreamingIndex::new(6, 100_000, 2);
        for stream in [&mut small, &mut large] {
            for r in &responses[..cut] {
                stream.record_response(*r).unwrap();
            }
            for w in 0..6u32 {
                let view = if w.is_multiple_of(2) {
                    stream.view(WorkerId(w))
                } else {
                    stream.anchored_for(WorkerId(w), &[WorkerId((w + 1) % 6), WorkerId(0)])
                };
                let _ = view.gram(&[WorkerId(0)]);
            }
        }
        let per_view = |s: &StreamingIndex| -> Vec<usize> {
            s.views
                .iter()
                .map(|v| v.borrow().resident_bytes())
                .collect()
        };
        assert!(
            per_view(&small).iter().all(|&b| b > 0),
            "every view anchored"
        );
        assert_eq!(per_view(&small), per_view(&large));
        for stream in [&mut small, &mut large] {
            for r in &responses[cut..] {
                stream.record_response(*r).unwrap();
            }
        }
        assert_eq!(per_view(&small), per_view(&large));
        assert_eq!(small.view_mask_bytes(), large.view_mask_bytes());
    }

    /// Querying outside the declared peer scope is a loud contract
    /// violation, not a silent zero.
    #[test]
    #[should_panic(expected = "peer scope")]
    fn out_of_scope_queries_panic() {
        let data = sample(5, 30, 2, 11);
        let stream = StreamingIndex::from_matrix(&data);
        let view = stream.anchored_for(WorkerId(0), &[WorkerId(1), WorkerId(2)]);
        let _ = view.triple_common(WorkerId(1), WorkerId(3));
    }

    /// Slot growth crosses word boundaries without losing bits.
    #[test]
    fn views_survive_word_boundary_growth() {
        // One anchor with > 128 tasks forces two mask re-layouts.
        let mut stream = StreamingIndex::new(2, 200, 2);
        // Anchor the views first so ingest maintenance (push_slot) is
        // what grows them across the 64- and 128-slot boundaries.
        {
            let _ = stream.anchored_for(WorkerId(0), &[WorkerId(1)]);
            let _ = stream.anchored_for(WorkerId(1), &[WorkerId(0)]);
        }
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
        }
        let view = stream.view(WorkerId(0));
        assert_eq!(view.common_among(&[]), 150);
        assert_eq!(view.pair_common(WorkerId(1)), 50);
        assert_eq!(stream.view(WorkerId(1)).pair_common(WorkerId(0)), 50);
        drop(view);
        assert_eq!(
            stream.reanchor_count(),
            4,
            "the two view() calls re-anchor to population scope once each"
        );
    }

    /// The ingest epoch advances once per accepted response and the
    /// dirty set of each ingest is exactly `{w} ∪ cooccur(w)` —
    /// under both pair backends.
    #[test]
    fn dirty_sets_are_worker_plus_cooccurrence() {
        for backend in [PairBackend::Dense, PairBackend::Sparse] {
            let mut stream = StreamingIndex::new_with(5, 10, 2, backend);
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
    }

    /// A response from `w` dirties co-occurring anchors even when they
    /// never touched the arriving task — their pairing reads peer–peer
    /// overlaps involving `w`, so a narrower responders-only dirty set
    /// would be unsound.
    #[test]
    fn cooccurring_nonresponders_are_dirtied() {
        let mut stream = StreamingIndex::new_with(3, 10, 2, PairBackend::Sparse);
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
    /// it, and the mirror adjacency answers `co_occurring_into` with
    /// the same positive-overlap peers the pair table holds.
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

        let mut co = Vec::new();
        for a in stream.index().workers() {
            co.clear();
            assert!(
                stream.co_occurring_into(a, &mut co),
                "dense-backed streaming substrates must enumerate neighbours"
            );
            let expect: Vec<WorkerId> = stream
                .index()
                .workers()
                .filter(|&b| b != a && stream.pair(a, b).common_tasks > 0)
                .collect();
            assert_eq!(co, expect, "anchor {a:?}");
        }
    }

    /// Rejected responses leave the views untouched.
    #[test]
    fn rejected_ingest_is_a_no_op() {
        let data = sample(4, 20, 2, 77);
        let mut stream = StreamingIndex::from_matrix(&data);
        let some = data.iter().next().unwrap();
        assert!(stream.record_response(some).is_err());
        assert_eq!(stream.n_responses(), data.n_responses());
        assert_eq!(stream.epoch(), 1, "rejected ingest must not tick the epoch");
        let batch = OverlapIndex::from_matrix(&data);
        for anchor in batch.workers() {
            let fresh = batch.anchored(anchor);
            for a in batch.workers() {
                for b in batch.workers() {
                    assert_eq!(
                        stream.view(anchor).triple_common(a, b),
                        fresh.triple_common(a, b)
                    );
                }
            }
        }
    }
}
