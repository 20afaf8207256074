//! The sparse pair table: co-occurrence/agreement counts keyed by
//! **co-occurring worker pairs only**.
//!
//! The dense [`crate::PairCache`] packs one `(common, agreements)`
//! entry per unordered worker pair — `m(m−1)/2` entries regardless of
//! how many pairs ever share a task. That is the right trade on small
//! or well-mixed crowds (O(1) lookups, no per-entry overhead), but at
//! fleet scale it is the last `O(m²)` object in the pipeline: a
//! 10 000-worker fleet pays ~400 MB for a table that is mostly zeros,
//! because real crowds are *clustered* — a worker co-occurs with the
//! peers of its task neighbourhood, not with the whole fleet.
//!
//! [`PairMap`] stores only the nonzero entries, as per-worker sorted
//! peer adjacencies (both directions, so either endpoint can enumerate
//! its peers):
//!
//! * `get(a, b)` is a binary search over `a`'s peer row — `O(log d_a)`
//!   in the co-occurrence degree, and absent pairs read as zero;
//! * [`PairMap::co_occurring`] enumerates a worker's co-occurring
//!   peers directly — the pairing candidate scan becomes `O(d_w)`
//!   instead of the dense table's `O(m)` sweep;
//! * memory is `O(Σ_w d_w)` — it tracks the data's co-occurrence
//!   structure, never the fleet size. This is what lets a shard's
//!   sparse-backed [`StreamingIndex`](crate::StreamingIndex), holding
//!   only its closure rows, keep pair state proportional to *its* rows.
//!
//! Maintenance mirrors the dense cache exactly: one-shot per-task
//! harvests ([`PairMap::harvest_task`]) or streaming appends
//! ([`PairMap::record_response`]), and the differential property tests
//! in `crates/data/tests/proptests.rs` pin `PairMap` == `PairCache`
//! for every co-occurring pair under random matrices and random ingest
//! orders.

use crate::{Label, PairStats, WorkerId};

/// One peer entry of a worker's adjacency row: `(peer, common,
/// agreements)`, kept sorted by peer id.
type PairEntry = (u32, u32, u32);

/// Sparse pairwise co-occurrence/agreement counts; see the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairMap {
    /// Per-worker peer rows, sorted by peer id. Both directions of a
    /// pair are stored, so `rows[a]` alone answers "who co-occurs with
    /// `a`".
    rows: Vec<Vec<PairEntry>>,
}

impl PairMap {
    /// An all-empty map for `m` workers (every pair reads as zero).
    pub fn empty(m: usize) -> Self {
        Self {
            rows: vec![Vec::new(); m],
        }
    }

    /// Builds the map in one pass over the response matrix, harvesting
    /// each task's responder list — the same `O(Σ_t r_t²)` discipline
    /// as [`crate::PairCache::from_matrix`], but touching only the
    /// pairs that actually co-occur.
    pub fn from_matrix(data: &crate::ResponseMatrix) -> Self {
        let mut map = Self::empty(data.n_workers());
        for task in data.tasks() {
            map.harvest_task(data.task_responses(task));
        }
        map
    }

    /// Number of workers covered.
    pub fn n_workers(&self) -> usize {
        self.rows.len()
    }

    /// Number of distinct co-occurring (unordered) pairs stored.
    pub fn n_pairs(&self) -> usize {
        self.rows.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Bytes resident in the adjacency rows (capacity, not length —
    /// slack from growth is real memory). The scaling benchmark's
    /// pair-state measurement.
    pub fn table_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Vec<PairEntry>>()
            + self
                .rows
                .iter()
                .map(|r| r.capacity() * std::mem::size_of::<PairEntry>())
                .sum::<usize>()
    }

    /// The workers sharing at least one task with `worker`, ascending
    /// by id — the pairing candidate scan's fast path.
    pub fn co_occurring(&self, worker: WorkerId) -> impl Iterator<Item = WorkerId> + '_ {
        self.rows[worker.index()]
            .iter()
            .map(|&(p, _, _)| WorkerId(p))
    }

    /// The stored statistics for a pair; pairs that never co-occurred
    /// read as zero.
    pub fn get(&self, a: WorkerId, b: WorkerId) -> PairStats {
        debug_assert!(a != b, "pair map has no diagonal");
        let (common, agree) = match self.rows[a.index()].binary_search_by_key(&b.0, |&(p, _, _)| p)
        {
            Ok(pos) => {
                let (_, c, g) = self.rows[a.index()][pos];
                (c, g)
            }
            Err(_) => (0, 0),
        };
        PairStats {
            common_tasks: common as usize,
            agreements: agree as usize,
        }
    }

    /// Adds one `(common, agreement)` observation to both directions
    /// of the pair.
    fn bump(&mut self, a: u32, b: u32, agree: bool) {
        self.bump_directed(a, b, agree);
        self.bump_directed(b, a, agree);
    }

    fn bump_directed(&mut self, from: u32, to: u32, agree: bool) {
        let row = &mut self.rows[from as usize];
        match row.binary_search_by_key(&to, |&(p, _, _)| p) {
            Ok(pos) => {
                row[pos].1 += 1;
                row[pos].2 += u32::from(agree);
            }
            Err(pos) => row.insert(pos, (to, 1, u32::from(agree))),
        }
    }

    /// Folds one task's worker-sorted responder list into the map;
    /// mirrors [`crate::PairCache::harvest_task`].
    pub(crate) fn harvest_task(&mut self, responders: &[(u32, Label)]) {
        for (i, &(wa, la)) in responders.iter().enumerate() {
            for &(wb, lb) in &responders[i + 1..] {
                self.bump(wa, wb, la == lb);
            }
        }
    }

    /// Updates the map for a new response by `worker` with `label`,
    /// given the task's *other* responders (the per-task list
    /// **before** the response is inserted); mirrors
    /// [`crate::PairCache::record_response`].
    pub fn record_response(&mut self, worker: WorkerId, label: Label, others: &[(u32, Label)]) {
        for &(other, other_label) in others {
            if other == worker.0 {
                continue;
            }
            self.bump(worker.0, other, other_label == label);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PairCache, ResponseMatrix, ResponseMatrixBuilder, TaskId};

    fn sample() -> ResponseMatrix {
        let mut b = ResponseMatrixBuilder::new(5, 12, 2);
        let mut state = 77u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for w in 0..4u32 {
            for t in 0..12u32 {
                if next() % 10 < 6 {
                    b.push(WorkerId(w), TaskId(t), Label((next() % 2) as u16))
                        .unwrap();
                }
            }
        }
        // Worker 4 stays silent: every pair involving it must read 0.
        b.build().unwrap()
    }

    #[test]
    fn matches_dense_cache_everywhere() {
        let data = sample();
        let sparse = PairMap::from_matrix(&data);
        let dense = PairCache::from_matrix(&data);
        assert_eq!(sparse.n_workers(), 5);
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a == b {
                    continue;
                }
                assert_eq!(
                    sparse.get(WorkerId(a), WorkerId(b)),
                    dense.get(WorkerId(a), WorkerId(b)),
                    "pair ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn co_occurring_lists_exactly_the_nonzero_pairs() {
        let data = sample();
        let sparse = PairMap::from_matrix(&data);
        for a in 0..5u32 {
            let listed: Vec<u32> = sparse.co_occurring(WorkerId(a)).map(|w| w.0).collect();
            let mut expect: Vec<u32> = (0..5u32)
                .filter(|&b| {
                    b != a && crate::pair_stats(&data, WorkerId(a), WorkerId(b)).common_tasks > 0
                })
                .collect();
            expect.sort_unstable();
            assert_eq!(listed, expect, "worker {a}");
        }
        assert_eq!(sparse.co_occurring(WorkerId(4)).count(), 0);
    }

    #[test]
    fn incremental_matches_batch_harvest() {
        let data = sample();
        let batch = PairMap::from_matrix(&data);
        let mut streamed = PairMap::empty(5);
        for t in data.tasks() {
            let mut so_far: Vec<(u32, Label)> = Vec::new();
            for &(w, label) in data.task_responses(t) {
                streamed.record_response(WorkerId(w), label, &so_far);
                so_far.push((w, label));
            }
        }
        assert_eq!(streamed, batch);
    }

    #[test]
    fn empty_and_absent_pairs_read_zero() {
        let map = PairMap::empty(3);
        assert_eq!(map.n_pairs(), 0);
        assert_eq!(map.get(WorkerId(0), WorkerId(2)).common_tasks, 0);
        assert_eq!(map.get(WorkerId(0), WorkerId(2)).agreement_rate(), None);
    }

    #[test]
    fn pair_count_and_bytes_track_the_data() {
        let data = sample();
        let sparse = PairMap::from_matrix(&data);
        let nonzero = (0..5u32)
            .flat_map(|a| ((a + 1)..5u32).map(move |b| (a, b)))
            .filter(|&(a, b)| crate::pair_stats(&data, WorkerId(a), WorkerId(b)).common_tasks > 0)
            .count();
        assert_eq!(sparse.n_pairs(), nonzero);
        assert!(sparse.table_bytes() > 0);
    }
}
