//! Pairwise and triple overlap statistics.
//!
//! These are the sufficient statistics of the binary algorithms:
//! `c_ij` (tasks attempted by both `w_i` and `w_j`), the agreement rate
//! `q̂_ij` over those tasks, and `c_ijk` (tasks attempted by all three
//! workers of a triple). Both are computed by merge-scans over the
//! task-sorted per-worker response lists, so evaluating a pair costs
//! `O(|w_i| + |w_j|)`.

use crate::{Label, ResponseMatrix, WorkerId};

/// Overlap statistics for one worker pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairStats {
    /// `c_ij`: number of tasks attempted by both workers.
    pub common_tasks: usize,
    /// Number of common tasks with identical labels.
    pub agreements: usize,
}

impl PairStats {
    /// Empirical agreement rate `q̂_ij = agreements / common_tasks`.
    ///
    /// Returns `None` when the pair shares no tasks (the paper requires
    /// at least one common task per pair it uses).
    pub fn agreement_rate(&self) -> Option<f64> {
        if self.common_tasks == 0 {
            None
        } else {
            Some(self.agreements as f64 / self.common_tasks as f64)
        }
    }
}

/// Computes `c_ij` and the agreement count for a worker pair by merge
/// scan of the two sorted response lists.
pub fn pair_stats(data: &ResponseMatrix, a: WorkerId, b: WorkerId) -> PairStats {
    pair_scan(data.worker_responses(a), data.worker_responses(b))
}

/// Merge scan of two task-sorted `(task, label)` rows. Shared by the
/// matrix-level [`pair_stats`] and the CSR rows of
/// [`crate::OverlapIndex`].
/// The pair-table lookup contract shared by [`PairCache::get`] and
/// [`crate::PairMap::get`]: two distinct workers of the `m` covered.
#[inline]
pub(crate) fn check_pair(a: WorkerId, b: WorkerId, m: usize) {
    assert!(a != b, "pair table has no diagonal: ({}, {})", a.0, b.0);
    assert!(
        a.index().max(b.index()) < m,
        "pair ({}, {}) out of range for {m} workers",
        a.0,
        b.0
    );
}

pub(crate) fn pair_scan(la: &[(u32, Label)], lb: &[(u32, Label)]) -> PairStats {
    let mut i = 0;
    let mut j = 0;
    let mut common = 0;
    let mut agree = 0;
    while i < la.len() && j < lb.len() {
        match la[i].0.cmp(&lb[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                if la[i].1 == lb[j].1 {
                    agree += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    PairStats {
        common_tasks: common,
        agreements: agree,
    }
}

/// Overlap statistics for one worker triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripleStats {
    /// `c_ijk`: tasks attempted by all three workers.
    pub common_tasks: usize,
}

/// Computes `c_ijk` for three workers by a three-way merge scan.
pub fn triple_overlap(data: &ResponseMatrix, a: WorkerId, b: WorkerId, c: WorkerId) -> TripleStats {
    triple_scan(
        data.worker_responses(a),
        data.worker_responses(b),
        data.worker_responses(c),
    )
}

/// Three-way merge scan of task-sorted rows; see [`pair_scan`].
pub(crate) fn triple_scan(
    la: &[(u32, Label)],
    lb: &[(u32, Label)],
    lc: &[(u32, Label)],
) -> TripleStats {
    let mut i = 0;
    let mut j = 0;
    let mut k = 0;
    let mut common = 0;
    while i < la.len() && j < lb.len() && k < lc.len() {
        let (ta, tb, tc) = (la[i].0, lb[j].0, lc[k].0);
        let max = ta.max(tb).max(tc);
        if ta == tb && tb == tc {
            common += 1;
            i += 1;
            j += 1;
            k += 1;
        } else {
            if ta < max {
                i += 1;
            }
            if tb < max {
                j += 1;
            }
            if tc < max {
                k += 1;
            }
        }
    }
    TripleStats {
        common_tasks: common,
    }
}

/// Per-triple joint view: for every task all three workers attempted,
/// the three labels given. Used by the k-ary counts tensor and by
/// tests cross-checking the merge scans.
pub fn triple_joint_labels(
    data: &ResponseMatrix,
    a: WorkerId,
    b: WorkerId,
    c: WorkerId,
) -> Vec<(Label, Label, Label)> {
    triple_joint_scan(
        data.worker_responses(a),
        data.worker_responses(b),
        data.worker_responses(c),
    )
}

/// Three-way merge collecting the joint labels; see [`pair_scan`].
pub(crate) fn triple_joint_scan(
    la: &[(u32, Label)],
    lb: &[(u32, Label)],
    lc: &[(u32, Label)],
) -> Vec<(Label, Label, Label)> {
    let mut out = Vec::new();
    let mut i = 0;
    let mut j = 0;
    let mut k = 0;
    while i < la.len() && j < lb.len() && k < lc.len() {
        let (ta, tb, tc) = (la[i].0, lb[j].0, lc[k].0);
        let max = ta.max(tb).max(tc);
        if ta == tb && tb == tc {
            out.push((la[i].1, lb[j].1, lc[k].1));
            i += 1;
            j += 1;
            k += 1;
        } else {
            if ta < max {
                i += 1;
            }
            if tb < max {
                j += 1;
            }
            if tc < max {
                k += 1;
            }
        }
    }
    out
}

/// All pairwise overlap statistics, maintained either by a one-shot
/// scan ([`PairCache::from_matrix`]) or incrementally, one response at
/// a time ([`PairCache::record_response`]).
///
/// The batch estimators recompute `q̂_ij` by merge scans; with a cache
/// those lookups are `O(1)`, which is what makes streaming evaluation
/// cheap — each arriving response touches only the pairs it completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairCache {
    m: usize,
    /// Upper-triangular `(common, agreements)` counts, row-major over
    /// `a < b`.
    counts: Vec<(u32, u32)>,
}

impl PairCache {
    /// An all-zero cache for `m` workers.
    pub fn empty(m: usize) -> Self {
        Self {
            m,
            counts: vec![(0, 0); m * (m.max(1) - 1) / 2],
        }
    }

    /// Builds the cache in **one pass over the response matrix**: every
    /// task's responder list is harvested directly into the packed pair
    /// table, costing `O(Σ_t r_t²)` total instead of one
    /// `O(|w_i| + |w_j|)` merge scan per pair — on sparse data the
    /// per-task responder lists are short, so this is the cheaper and
    /// far more cache-friendly direction.
    pub fn from_matrix(data: &ResponseMatrix) -> Self {
        let mut cache = Self::empty(data.n_workers());
        for task in data.tasks() {
            cache.harvest_task(data.task_responses(task));
        }
        cache
    }

    /// Folds one task's worker-sorted responder list into the table.
    pub(crate) fn harvest_task(&mut self, responders: &[(u32, Label)]) {
        for (i, &(wa, la)) in responders.iter().enumerate() {
            for &(wb, lb) in &responders[i + 1..] {
                let idx = self.index(wa, wb);
                let (c, a) = &mut self.counts[idx];
                *c += 1;
                if la == lb {
                    *a += 1;
                }
            }
        }
    }

    /// Number of workers covered.
    pub fn n_workers(&self) -> usize {
        self.m
    }

    /// Bytes resident in the packed pair table — `m(m−1)/2` entries
    /// of 8 bytes, *regardless of how many pairs co-occur*. The
    /// scaling benchmark's dense-side pair-state measurement; compare
    /// [`crate::PairMap::table_bytes`].
    pub fn table_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    fn index(&self, a: u32, b: u32) -> usize {
        debug_assert!(a != b, "pair cache has no diagonal");
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        // Row-major upper triangle: offset of row `lo` + column shift.
        lo * self.m - lo * (lo + 1) / 2 + (hi - lo - 1)
    }

    /// The cached statistics for a worker pair.
    ///
    /// # Panics
    /// Panics if `a == b` or either id is not below
    /// [`PairCache::n_workers`], in every build profile: the packed
    /// index of such a pair lands in another pair's slot.
    pub fn get(&self, a: WorkerId, b: WorkerId) -> PairStats {
        check_pair(a, b, self.m);
        let (common, agree) = self.counts[self.index(a.0, b.0)];
        PairStats {
            common_tasks: common as usize,
            agreements: agree as usize,
        }
    }

    /// Updates the cache for a new response by `worker` with `label`,
    /// given the task's *other* responders (i.e. the per-task list
    /// **before** the response is inserted). `O(responders)`.
    pub fn record_response(&mut self, worker: WorkerId, label: Label, others: &[(u32, Label)]) {
        for &(other, other_label) in others {
            if other == worker.0 {
                continue;
            }
            let idx = self.index(worker.0, other);
            let (c, a) = &mut self.counts[idx];
            *c += 1;
            if other_label == label {
                *a += 1;
            }
        }
    }
}

/// For every task at least one of the three workers attempted, the
/// (possibly absent) labels of all three. Tasks none of the three
/// attempted are skipped — they carry no information about the triple
/// and the paper's `Counts[0][0][0]` slot is never read.
pub fn triple_joint_labels_optional(
    data: &ResponseMatrix,
    a: WorkerId,
    b: WorkerId,
    c: WorkerId,
) -> Vec<(Option<Label>, Option<Label>, Option<Label>)> {
    let mut out = Vec::new();
    for task in data.tasks() {
        let la = data.response(a, task);
        let lb = data.response(b, task);
        let lc = data.response(c, task);
        if la.is_some() || lb.is_some() || lc.is_some() {
            out.push((la, lb, lc));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ResponseMatrixBuilder, TaskId};

    /// The paper's §III-B example: 100 tasks; w0 attempts the first 80,
    /// w1 the last 80, w2 the middle 80. Then c01 = 60, c02 = c12 = 70,
    /// c012 = 60.
    fn paper_example() -> ResponseMatrix {
        let mut b = ResponseMatrixBuilder::new(3, 100, 2);
        for t in 0..80u32 {
            b.push(WorkerId(0), TaskId(t), Label(0)).unwrap();
        }
        for t in 20..100u32 {
            b.push(WorkerId(1), TaskId(t), Label(0)).unwrap();
        }
        for t in 10..90u32 {
            b.push(WorkerId(2), TaskId(t), Label(0)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn paper_section_iiib_overlap_counts() {
        let m = paper_example();
        assert_eq!(pair_stats(&m, WorkerId(0), WorkerId(1)).common_tasks, 60);
        assert_eq!(pair_stats(&m, WorkerId(0), WorkerId(2)).common_tasks, 70);
        assert_eq!(pair_stats(&m, WorkerId(1), WorkerId(2)).common_tasks, 70);
        assert_eq!(
            triple_overlap(&m, WorkerId(0), WorkerId(1), WorkerId(2)).common_tasks,
            60
        );
    }

    #[test]
    fn agreement_counting() {
        let mut b = ResponseMatrixBuilder::new(2, 5, 2);
        // Agree on tasks 0,1,2; disagree on 3; task 4 only w0.
        for t in 0..4u32 {
            b.push(WorkerId(0), TaskId(t), Label(0)).unwrap();
        }
        b.push(WorkerId(0), TaskId(4), Label(0)).unwrap();
        for t in 0..3u32 {
            b.push(WorkerId(1), TaskId(t), Label(0)).unwrap();
        }
        b.push(WorkerId(1), TaskId(3), Label(1)).unwrap();
        let m = b.build().unwrap();
        let s = pair_stats(&m, WorkerId(0), WorkerId(1));
        assert_eq!(s.common_tasks, 4);
        assert_eq!(s.agreements, 3);
        assert!((s.agreement_rate().unwrap() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn pair_stats_is_symmetric() {
        let m = paper_example();
        let ab = pair_stats(&m, WorkerId(0), WorkerId(2));
        let ba = pair_stats(&m, WorkerId(2), WorkerId(0));
        assert_eq!(ab, ba);
    }

    #[test]
    fn disjoint_workers_have_no_rate() {
        let mut b = ResponseMatrixBuilder::new(2, 4, 2);
        b.push(WorkerId(0), TaskId(0), Label(0)).unwrap();
        b.push(WorkerId(1), TaskId(1), Label(0)).unwrap();
        let m = b.build().unwrap();
        let s = pair_stats(&m, WorkerId(0), WorkerId(1));
        assert_eq!(s.common_tasks, 0);
        assert_eq!(s.agreement_rate(), None);
    }

    #[test]
    fn joint_labels_match_triple_overlap() {
        let m = paper_example();
        let joint = triple_joint_labels(&m, WorkerId(0), WorkerId(1), WorkerId(2));
        assert_eq!(
            joint.len(),
            triple_overlap(&m, WorkerId(0), WorkerId(1), WorkerId(2)).common_tasks
        );
    }

    #[test]
    fn joint_labels_preserve_per_worker_labels() {
        let mut b = ResponseMatrixBuilder::new(3, 3, 3);
        for t in 0..3u32 {
            b.push(WorkerId(0), TaskId(t), Label(0)).unwrap();
            b.push(WorkerId(1), TaskId(t), Label(1)).unwrap();
            b.push(WorkerId(2), TaskId(t), Label(2)).unwrap();
        }
        let m = b.build().unwrap();
        let joint = triple_joint_labels(&m, WorkerId(0), WorkerId(1), WorkerId(2));
        assert_eq!(joint, vec![(Label(0), Label(1), Label(2)); 3]);
        // Worker order matters.
        let joint = triple_joint_labels(&m, WorkerId(2), WorkerId(1), WorkerId(0));
        assert_eq!(joint, vec![(Label(2), Label(1), Label(0)); 3]);
    }

    #[test]
    fn pair_cache_matches_batch_scan() {
        let m = paper_example();
        let cache = PairCache::from_matrix(&m);
        assert_eq!(cache.n_workers(), 3);
        for a in 0..3u32 {
            for b in (a + 1)..3u32 {
                assert_eq!(
                    cache.get(WorkerId(a), WorkerId(b)),
                    pair_stats(&m, WorkerId(a), WorkerId(b))
                );
                // Symmetric lookup.
                assert_eq!(
                    cache.get(WorkerId(b), WorkerId(a)),
                    cache.get(WorkerId(a), WorkerId(b))
                );
            }
        }
    }

    #[test]
    fn pair_cache_incremental_matches_batch() {
        // Stream the example matrix response-by-response; the
        // incrementally maintained cache must equal the batch scan.
        let target = paper_example();
        let mut data = ResponseMatrix::empty(3, 100, 2);
        let mut cache = PairCache::empty(3);
        for r in target.iter() {
            cache.record_response(r.worker, r.label, data.task_responses(r.task));
            data.insert(r).unwrap();
        }
        assert_eq!(cache, PairCache::from_matrix(&target));
    }

    #[test]
    fn pair_cache_empty_and_tiny() {
        let cache = PairCache::empty(0);
        assert_eq!(cache.n_workers(), 0);
        let cache = PairCache::empty(2);
        assert_eq!(cache.get(WorkerId(0), WorkerId(1)).common_tasks, 0);
    }

    #[test]
    fn brute_force_cross_check() {
        // Compare the merge scans with a naive O(n·m) recomputation on a
        // small pseudo-random matrix.
        let mut b = ResponseMatrixBuilder::new(4, 30, 2);
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for w in 0..4u32 {
            for t in 0..30u32 {
                if next() % 10 < 7 {
                    b.push(WorkerId(w), TaskId(t), Label((next() % 2) as u16))
                        .unwrap();
                }
            }
        }
        let m = b.build().unwrap();
        for a in 0..4u32 {
            for c in (a + 1)..4u32 {
                let fast = pair_stats(&m, WorkerId(a), WorkerId(c));
                let mut common = 0;
                let mut agree = 0;
                for t in 0..30u32 {
                    if let (Some(x), Some(y)) = (
                        m.response(WorkerId(a), TaskId(t)),
                        m.response(WorkerId(c), TaskId(t)),
                    ) {
                        common += 1;
                        if x == y {
                            agree += 1;
                        }
                    }
                }
                assert_eq!(fast.common_tasks, common);
                assert_eq!(fast.agreements, agree);
            }
        }
    }

    // An out-of-range or diagonal pair must panic rather than read
    // another pair's packed slot: with m = 10, (3, 12) maps to slot 32
    // (the pair (4, 9)) and (3, 3) wraps to slot 23.
    #[test]
    #[should_panic(expected = "out of range for 10 workers")]
    fn dense_lookup_rejects_out_of_range_ids() {
        PairCache::empty(10).get(WorkerId(3), WorkerId(12));
    }

    #[test]
    #[should_panic(expected = "no diagonal")]
    fn dense_lookup_rejects_the_diagonal() {
        PairCache::empty(10).get(WorkerId(3), WorkerId(3));
    }
}
