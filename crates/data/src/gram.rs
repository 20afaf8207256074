//! The [`PeerGram`] kernel — batched triple-overlap counts for the
//! Lemma 4 / Lemma 9 covariance assemblies.
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
//! and [`pair_gram_into`](crate::AnchoredOverlap::pair_gram_into).
//! The trait defaults compute every entry by per-pair
//! [`triple_common`](crate::AnchoredOverlap::triple_common) /
//! [`common_among`](crate::AnchoredOverlap::common_among) queries —
//! the pre-gram reference path, still what the naive scan substrate
//! runs — and the bitset views override them with the blocked kernels.
//! Both produce identical integer counts, so every float downstream
//! is bit-identical across paths (the property tests in
//! `crates/data/tests/proptests.rs` pin this).

use crate::WorkerId;
use crate::index::{MaskMatrix, PeerMask};

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
        self.peers.clear();
        self.peers.extend(ids.iter().map(|w| w.0));
        self.peers.sort_unstable();
        self.peers.dedup();
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
        self.peers
            .binary_search(&worker.0)
            .unwrap_or_else(|_| panic!("worker {worker:?} is outside this gram's peer set"))
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
