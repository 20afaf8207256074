//! The per-evaluation tables of the m-worker estimators: [`PeerGram`]
//! (batched triple-overlap counts for the Lemma 4 / Lemma 9 covariance
//! assemblies) and [`PeerPairs`] (the pair statistics among the same
//! peers).
//!
//! The m-worker estimators' covariance hot loop asks one anchored view
//! for `c_{anchor,a,b}` over every pair `(a, b)` drawn from the ≤ 2l
//! peers the pairing selected — `O(T²)` queries per evaluated worker,
//! each a fresh word-by-word AND+popcount over the two peers' mask
//! rows (`O(n̄/64)` words a query). The same mask row is re-streamed
//! once per opposite peer, so the per-anchor popcount work is
//! `O(T²·n̄/64)` with every load used exactly once.
//!
//! `PeerGram` computes the full peers×peers symmetric matrix of
//! AND-popcounts in **one register-blocked pass** over the mask words
//! (`MaskMatrix::gram_rows_into`): rows are processed in blocks of
//! [`GRAM_BLOCK`](crate::index) so each loaded cache line of mask
//! words feeds multiple independent accumulators, and the per-row
//! popcounts land on the diagonal for free. The covariance assembly
//! then reads `O(T²)` table entries instead of issuing `O(T²)` kernel
//! calls: `O(T²·n̄/64)` repeated popcount work becomes one
//! `O(l²·n̄/64)` blocked pass plus `O(T²)` lookups. The kernel is
//! safe code compiled twice, portably and under `avx2,popcnt`; x86-64
//! hosts with both features run the second build, whose wide-mask
//! loop LLVM vectorizes into a `vpshufb` nibble-table popcount.
//!
//! `PeerPairs` applies the same move to the pair table: the same
//! evaluation reads `(c_ab, a_ab)` for every peer pair of a triple and
//! for the four cross pairs of every pair of triples, and a
//! [`crate::PairMap`] lookup is a binary search over a sparse row. The
//! indexed fill ([`crate::OverlapSource::peer_pairs_into`]) instead walks each
//! selected peer's pair row once and scatters every entry through a
//! worker → column map; entries for workers outside the peer set land
//! in one spare sink column, so the scatter stores unconditionally.
//!
//! [`TriplePairGram`] is the same idea for the k-ary cross-triple
//! `n₅` counts: each triple's two peer masks are AND-combined into one
//! derived row (one pass), and the T×T table of 4-way intersections
//! becomes the blocked Gram of those combined rows — three of the four
//! ANDs of every `common_among` query are hoisted out of the `O(T²)`
//! loop.
//!
//! Entry points live on [`crate::AnchoredOverlap`]:
//! [`gram`](crate::AnchoredOverlap::gram) /
//! [`gram_into`](crate::AnchoredOverlap::gram_into) (scratch-reusing)
//! and [`pair_gram_into`](crate::AnchoredOverlap::pair_gram_into), and
//! on [`crate::OverlapSource::peer_pairs_into`] for the pair table.
//! The trait defaults compute every entry by per-pair
//! [`triple_common`](crate::AnchoredOverlap::triple_common) /
//! [`common_among`](crate::AnchoredOverlap::common_among) /
//! [`pair`](crate::OverlapSource::pair) queries —
//! the reference path, still what the naive scan substrate
//! runs — and the indexed substrate overrides them with the batched
//! fills. Both produce identical integer counts, so every float
//! downstream is bit-identical across paths (the property tests in
//! `crates/data/tests/proptests.rs` pin this).

use crate::index::{MaskMatrix, PeerMask};
use crate::{PairStats, WorkerId};

/// The peers×peers symmetric matrix of anchored triple-overlap counts
/// `g[a][b] = c_{anchor,a,b}`, with the per-row popcounts
/// `c_{anchor,a}` cached on the diagonal.
///
/// Row order is the sorted, deduplicated peer id list, so lookups by
/// [`PeerGram::get`] are a binary search over the (small) peer set;
/// hot loops resolve each worker once via [`PeerGram::row_of`] and
/// then read [`PeerGram::at`] directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerGram {
    /// Sorted, deduplicated peer ids; `peers[r]` owns row/column `r`.
    peers: Vec<u32>,
    dim: usize,
    /// `dim × dim` row-major counts, symmetric.
    counts: Vec<u32>,
}

impl PeerGram {
    /// Re-keys the gram to `ids` (sorted and deduplicated internally;
    /// caller order and duplicates are irrelevant) and zeroes the
    /// table, reusing both allocations.
    pub(crate) fn reset(&mut self, ids: &[WorkerId]) {
        rekey(&mut self.peers, ids);
        self.dim = self.peers.len();
        self.counts.clear();
        self.counts.resize(self.dim * self.dim, 0);
    }

    /// Number of distinct peers (the Gram dimension).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The peer id owning row `row`.
    #[inline]
    pub fn peer(&self, row: usize) -> WorkerId {
        WorkerId(self.peers[row])
    }

    /// The row of `worker`; panics (contract violation) when the
    /// worker is not in the gram's peer set.
    #[inline]
    pub fn row_of(&self, worker: WorkerId) -> usize {
        row_in(&self.peers, worker, "gram")
    }

    /// `c_{anchor,a,b}` by table read (rows pre-resolved).
    #[inline]
    pub fn at(&self, a: usize, b: usize) -> usize {
        self.counts[a * self.dim + b] as usize
    }

    /// `c_{anchor,a,b}` by peer id.
    #[inline]
    pub fn get(&self, a: WorkerId, b: WorkerId) -> usize {
        self.at(self.row_of(a), self.row_of(b))
    }

    /// `c_{anchor,a}` — the per-row popcount cached on the diagonal.
    #[inline]
    pub fn pair_common(&self, a: WorkerId) -> usize {
        let r = self.row_of(a);
        self.at(r, r)
    }

    pub(crate) fn set_symmetric(&mut self, a: usize, b: usize, v: u32) {
        self.counts[a * self.dim + b] = v;
        self.counts[b * self.dim + a] = v;
    }

    pub(crate) fn counts_mut(&mut self) -> &mut Vec<u32> {
        &mut self.counts
    }
}

/// Re-keys a peer table to `ids`, sorted and deduplicated.
fn rekey(keys: &mut Vec<u32>, ids: &[WorkerId]) {
    keys.clear();
    keys.extend(ids.iter().map(|w| w.0));
    keys.sort_unstable();
    keys.dedup();
}

/// The row of `worker` among sorted `keys`; panics (contract
/// violation) when the worker is not a key.
#[inline]
fn row_in(keys: &[u32], worker: WorkerId, table: &str) -> usize {
    keys.binary_search(&worker.0)
        .unwrap_or_else(|_| panic!("worker {worker:?} is outside this {table}'s peer set"))
}

/// The peers×peers symmetric table of pair statistics `(c_ab, a_ab)`
/// of one evaluation — [`PeerGram`]'s twin over the pair table (see
/// the [module docs](self)).
///
/// Keyed exactly like [`PeerGram`] (sorted, deduplicated peer ids, the
/// same row order), so a row resolved once through either table
/// addresses both. The diagonal reads zero. Each row carries one spare
/// sink column after the last peer: the indexed fill writes non-peer
/// entries into it and zeroes it when the row is done, and nothing
/// reads it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerPairs {
    /// Sorted, deduplicated peer ids; `peers[r]` owns row/column `r`.
    peers: Vec<u32>,
    /// `dim × (dim + 1)` row-major `(common, agreements)`; column
    /// `dim` of every row is the sink.
    cells: Vec<(u32, u32)>,
}

impl PeerPairs {
    /// Re-keys the table to `ids` (sorted and deduplicated internally)
    /// and zeroes it, reusing both allocations.
    pub(crate) fn reset(&mut self, ids: &[WorkerId]) {
        rekey(&mut self.peers, ids);
        let dim = self.peers.len();
        self.cells.clear();
        self.cells.resize(dim * (dim + 1), (0, 0));
    }

    /// Number of distinct peers.
    #[inline]
    pub fn dim(&self) -> usize {
        self.peers.len()
    }

    /// The peer id owning row `row`.
    #[inline]
    pub fn peer(&self, row: usize) -> WorkerId {
        WorkerId(self.peers[row])
    }

    /// The row of `worker`; panics (contract violation) when the
    /// worker is not in the table's peer set.
    #[inline]
    pub fn row_of(&self, worker: WorkerId) -> usize {
        row_in(&self.peers, worker, "pair table")
    }

    /// The statistics of the peers at rows `a` and `b` (rows
    /// pre-resolved).
    #[inline]
    pub fn at(&self, a: usize, b: usize) -> PairStats {
        let (common, agree) = self.cells[a * (self.peers.len() + 1) + b];
        PairStats {
            common_tasks: common as usize,
            agreements: agree as usize,
        }
    }

    /// The statistics of a peer pair by id.
    #[inline]
    pub fn get(&self, a: WorkerId, b: WorkerId) -> PairStats {
        self.at(self.row_of(a), self.row_of(b))
    }

    pub(crate) fn set_symmetric(&mut self, a: usize, b: usize, s: PairStats) {
        let stride = self.peers.len() + 1;
        // Stored as `u32`, like the pair table's own counts.
        let count = |n: usize| u32::try_from(n).expect("pair count exceeds u32");
        let cell = (count(s.common_tasks), count(s.agreements));
        self.cells[a * stride + b] = cell;
        self.cells[b * stride + a] = cell;
    }

    /// The peer keys and the rows in key order, each `dim + 1` cells
    /// long (the last is the sink) — what the indexed fill scatters
    /// into.
    pub(crate) fn keys_and_rows_mut(
        &mut self,
    ) -> (&[u32], std::slice::ChunksExactMut<'_, (u32, u32)>) {
        let stride = self.peers.len() + 1;
        (&self.peers, self.cells.chunks_exact_mut(stride))
    }
}

/// The worker → column map of the indexed [`PeerPairs`] fill. Every
/// worker outside the current peer set maps to `u32::MAX`, so a lookup
/// clamped to the sink column is branch-free. A fill assigns its peers'
/// columns and releases them afterwards, `O(peers)` each way; the map
/// lives in the substrate's one build scratch, sized once to the
/// worker count, and is never cleared.
#[derive(Debug, Clone, Default)]
pub(crate) struct PeerColumns {
    col: Vec<u32>,
}

impl PeerColumns {
    /// Maps `keys[c]` to column `c` in a map covering `n_workers`.
    pub(crate) fn assign(&mut self, n_workers: usize, keys: &[u32]) {
        if self.col.len() < n_workers {
            self.col.resize(n_workers, u32::MAX);
        }
        for (c, &p) in keys.iter().enumerate() {
            self.col[p as usize] = c as u32;
        }
    }

    /// Returns `keys` to the unmapped state.
    pub(crate) fn release(&mut self, keys: &[u32]) {
        for &p in keys {
            self.col[p as usize] = u32::MAX;
        }
    }

    /// The column of `worker`, or `sink` when it is not a peer.
    #[inline]
    pub(crate) fn col(&self, worker: u32, sink: usize) -> usize {
        (self.col[worker as usize] as usize).min(sink)
    }

    /// Whether no worker is mapped (every assign was released).
    #[cfg(test)]
    pub(crate) fn is_clear(&self) -> bool {
        self.col.iter().all(|&c| c == u32::MAX)
    }
}

/// The T×T symmetric table of k-ary cross-triple `n₅` counts for a
/// list of peer pairs sharing one anchor:
/// `g[t₁][t₂] = |tasks(anchor) ∩ tasks(a₁) ∩ tasks(b₁) ∩ tasks(a₂) ∩ tasks(b₂)|`
/// where `(a_t, b_t)` is the `t`-th pair. The diagonal holds each
/// triple's own `c_{anchor,a_t,b_t}`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriplePairGram {
    dim: usize,
    counts: Vec<u32>,
}

impl TriplePairGram {
    /// Re-shapes to `dim` triples and zeroes the table, reusing the
    /// allocation.
    pub(crate) fn reset(&mut self, dim: usize) {
        self.dim = dim;
        self.counts.clear();
        self.counts.resize(dim * dim, 0);
    }

    /// Number of triples covered.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `n₅` count for triples `t1` and `t2` (their own
    /// `c_{anchor,a,b}` when `t1 == t2`).
    #[inline]
    pub fn get(&self, t1: usize, t2: usize) -> usize {
        self.counts[t1 * self.dim + t2] as usize
    }

    pub(crate) fn set_symmetric(&mut self, t1: usize, t2: usize, v: u32) {
        self.counts[t1 * self.dim + t2] = v;
        self.counts[t2 * self.dim + t1] = v;
    }

    pub(crate) fn counts_mut(&mut self) -> &mut Vec<u32> {
        &mut self.counts
    }
}

/// Reusable build storage for the blocked Gram kernels: the resolved
/// mask-row buffer and the pair-combined mask matrix of the previous
/// call, so an evaluate-all loop that keeps one scratch per thread
/// allocates nothing once both have reached their high-water marks.
#[derive(Debug, Default)]
pub struct PeerGramScratch {
    pub(crate) rows: Vec<usize>,
    pub(crate) combined: MaskMatrix,
}

/// Shared blocked-gram fill for the bitset views: resolves each peer
/// id to its mask row through `scope` and runs the register-blocked
/// kernel over those rows.
pub(crate) fn gram_into_mapped(
    matrix: &MaskMatrix,
    scope: &PeerMask,
    ids: &[WorkerId],
    gram: &mut PeerGram,
    scratch: &mut PeerGramScratch,
) {
    gram.reset(ids);
    scratch.rows.clear();
    for row in 0..gram.dim() {
        scratch.rows.push(scope.row_of(gram.peer(row)));
    }
    matrix.gram_rows_into(&scratch.rows, gram.counts_mut());
    let d = gram.dim();
    debug_assert_eq!(gram.counts_mut().len(), d * d);
}

/// Shared blocked `n₅`-table fill for the bitset views: AND-combines
/// each pair's two mask rows into one derived row of
/// `scratch.combined` (one pass over the words), then grams the
/// combined rows — every 4-way `common_among` of the `O(T²)` loop
/// collapses to a single AND+popcount against precombined rows.
pub(crate) fn pair_gram_into_mapped(
    matrix: &MaskMatrix,
    scope: &PeerMask,
    pairs: &[(WorkerId, WorkerId)],
    gram: &mut TriplePairGram,
    scratch: &mut PeerGramScratch,
) {
    let t = pairs.len();
    gram.reset(t);
    scratch
        .combined
        .reset(t, matrix.words(), matrix.anchor_slots());
    for (row, &(a, b)) in pairs.iter().enumerate() {
        scratch
            .combined
            .fill_and_of(row, matrix, scope.row_of(a), scope.row_of(b));
    }
    scratch.rows.clear();
    scratch.rows.extend(0..t);
    scratch
        .combined
        .gram_rows_into(&scratch.rows, gram.counts_mut());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_gram_sorts_and_dedups() {
        let mut g = PeerGram::default();
        g.reset(&[WorkerId(5), WorkerId(2), WorkerId(5), WorkerId(9)]);
        assert_eq!(g.dim(), 3);
        assert_eq!(g.peer(0), WorkerId(2));
        assert_eq!(g.peer(2), WorkerId(9));
        assert_eq!(g.row_of(WorkerId(5)), 1);
        g.set_symmetric(0, 2, 7);
        assert_eq!(g.get(WorkerId(2), WorkerId(9)), 7);
        assert_eq!(g.get(WorkerId(9), WorkerId(2)), 7);
        assert_eq!(g.get(WorkerId(2), WorkerId(5)), 0);
    }

    #[test]
    #[should_panic(expected = "peer set")]
    fn peer_gram_rejects_unknown_workers() {
        let mut g = PeerGram::default();
        g.reset(&[WorkerId(1)]);
        let _ = g.get(WorkerId(1), WorkerId(3));
    }

    #[test]
    fn peer_pairs_share_the_gram_keys_and_mirror() {
        let ids = [WorkerId(5), WorkerId(2), WorkerId(5), WorkerId(9)];
        let mut g = PeerGram::default();
        g.reset(&ids);
        let mut t = PeerPairs::default();
        t.reset(&ids);
        assert_eq!(t.dim(), g.dim());
        for r in 0..t.dim() {
            assert_eq!(t.peer(r), g.peer(r));
        }
        let s = PairStats {
            common_tasks: 7,
            agreements: 4,
        };
        t.set_symmetric(0, 2, s);
        assert_eq!(t.get(WorkerId(2), WorkerId(9)), s);
        assert_eq!(t.get(WorkerId(9), WorkerId(2)), s);
        assert_eq!(t.at(1, 1).common_tasks, 0, "the diagonal reads zero");
        t.reset(&[WorkerId(2), WorkerId(9)]);
        assert_eq!(t.at(0, 1).common_tasks, 0, "reset must zero stale counts");
    }

    #[test]
    #[should_panic(expected = "pair table's peer set")]
    fn peer_pairs_reject_unknown_workers() {
        let mut t = PeerPairs::default();
        t.reset(&[WorkerId(1), WorkerId(2)]);
        let _ = t.get(WorkerId(1), WorkerId(3));
    }

    #[test]
    fn triple_pair_gram_is_symmetric() {
        let mut g = TriplePairGram::default();
        g.reset(3);
        g.set_symmetric(0, 2, 11);
        assert_eq!(g.get(0, 2), 11);
        assert_eq!(g.get(2, 0), 11);
        assert_eq!(g.get(1, 1), 0);
        g.reset(2);
        assert_eq!(g.dim(), 2);
        assert_eq!(g.get(0, 1), 0, "reset must zero stale counts");
    }
}
