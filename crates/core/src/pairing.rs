//! Greedy triple formation for Algorithm A2 (§III-C1, "Selecting
//! triples").
//!
//! To evaluate worker `w`, the remaining workers are split into
//! disjoint pairs; each pair plus `w` forms a triple. The paper's
//! greedy heuristic: sort candidates by their task overlap with `w`
//! (descending), repeatedly take the head of the list and pair it with
//! the first remaining candidate that shares at least one task with
//! both `w` and the head. Unpairable candidates are dropped.

use crowd_data::{OverlapSource, WorkerId};

/// A candidate pair forming a triple with the evaluated worker.
pub type PeerPair = (WorkerId, WorkerId);

/// Strategy for splitting peers into pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairingStrategy {
    /// The paper's overlap-greedy heuristic (default).
    #[default]
    GreedyByOverlap,
    /// Adjacent pairing in worker-id order — the unoptimized baseline
    /// used by the ablation benches.
    Sequential,
}

/// Splits all workers other than `target` into disjoint pairs for
/// triple formation, over any overlap substrate — the pairwise queries
/// hit whatever the source provides (merge scans, or the pair table of
/// a [`crowd_data::StreamingIndex`]). The produced pairs are identical
/// across substrates.
///
/// Every returned pair `(a, b)` satisfies: `a` and `b` each share at
/// least `min_overlap` tasks with `target`, with each other, and the
/// triple `(target, a, b)` has at least one task in common with some
/// pair — degenerate candidates are silently dropped, mirroring the
/// paper ("until the list has no more pairs of workers who have a
/// common task with wi and with each other").
///
/// `max_pairs` optionally caps the number of pairs formed
/// ([`crate::EstimatorConfig::max_triples`]). The greedy loop stops as
/// soon as the cap is reached, so with
/// [`PairingStrategy::GreedyByOverlap`] the kept pairs are exactly the
/// best-overlapped prefix of the uncapped (`None`) pairing — the
/// evaluated worker's peer scope shrinks to `≤ 2·cap` workers without
/// changing which triples an uncapped run would have ranked first.
pub fn form_pairs_limited<S: OverlapSource>(
    src: &S,
    target: WorkerId,
    strategy: PairingStrategy,
    min_overlap: usize,
    max_pairs: Option<usize>,
) -> Vec<PeerPair> {
    let min_overlap = min_overlap.max(1);
    let max_pairs = max_pairs.unwrap_or(usize::MAX);
    if max_pairs == 0 {
        return Vec::new();
    }
    let overlap = |a: WorkerId, b: WorkerId| -> usize { src.pair(a, b).common_tasks };
    // Candidates: everyone sharing enough tasks with the target.
    // Substrates that track co-occurrence (the indexes' pair table)
    // hand over the peer list directly — `O(d_target)` on a sparse
    // pair row instead of an `O(m)` population sweep, with the same
    // candidates in the same (id) order since absent pairs have zero
    // overlap.
    fn screen<S: OverlapSource>(
        src: &S,
        target: WorkerId,
        min_overlap: usize,
        ids: impl Iterator<Item = WorkerId>,
    ) -> Vec<(WorkerId, usize)> {
        ids.filter(|&w| w != target)
            .map(|w| (w, src.pair(target, w).common_tasks))
            .filter(|&(_, c)| c >= min_overlap)
            .collect()
    }
    let mut co = Vec::new();
    let mut candidates = if src.co_occurring_into(target, &mut co) {
        screen(src, target, min_overlap, co.into_iter())
    } else {
        screen(
            src,
            target,
            min_overlap,
            (0..src.n_workers() as u32).map(WorkerId),
        )
    };

    match strategy {
        PairingStrategy::GreedyByOverlap => {
            // Descending by overlap with the target; ties by id for
            // determinism.
            candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        PairingStrategy::Sequential => {
            candidates.sort_by_key(|&(w, _)| w);
        }
    }

    let mut pairs = Vec::new();
    let mut remaining: Vec<WorkerId> = candidates.into_iter().map(|(w, _)| w).collect();
    while remaining.len() >= 2 && pairs.len() < max_pairs {
        let head = remaining.remove(0);
        // First partner sharing enough tasks with the head (its overlap
        // with the target was already checked on entry to the list).
        let partner_pos = remaining
            .iter()
            .position(|&w| overlap(head, w) >= min_overlap);
        match partner_pos {
            Some(pos) => {
                let partner = remaining.remove(pos);
                pairs.push((head, partner));
            }
            None => {
                // Head is unpairable; drop it and continue.
            }
        }
    }
    pairs
}

/// Every peer any [`form_pairs_limited`] call could possibly involve when
/// evaluating `target`: the workers sharing at least one task with it,
/// ascending by id. The pairing's candidate filter, greedy partner
/// scan and covariance assembly never look beyond this set (pairs
/// with zero overlap are rejected on entry), so a substrate holding
/// full rows for `target` ∪ `reachable_peers(target)` reproduces the
/// full-fleet pairing **bit for bit** — the closed peer set the
/// sharding planner (`crowd_shard::ShardPlan`) builds per shard.
pub fn reachable_peers<S: OverlapSource>(src: &S, target: WorkerId) -> Vec<WorkerId> {
    let mut co = Vec::new();
    if src.co_occurring_into(target, &mut co) {
        co.retain(|&w| w != target);
        return co;
    }
    (0..src.n_workers() as u32)
        .map(WorkerId)
        .filter(|&w| w != target && src.pair(target, w).common_tasks > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_data::{Label, ResponseMatrix, ResponseMatrixBuilder, TaskId};

    /// 5 workers. Worker 0 is the target, attempting tasks 0..40.
    /// Worker 1 overlaps on 40 tasks, worker 2 on 30, worker 3 on 20,
    /// worker 4 on 0 (disjoint).
    fn staggered() -> ResponseMatrix {
        let mut b = ResponseMatrixBuilder::new(5, 60, 2);
        let spans: [(u32, u32); 5] = [(0, 40), (0, 40), (10, 40), (20, 40), (40, 60)];
        for (w, &(lo, hi)) in spans.iter().enumerate() {
            for t in lo..hi {
                b.push(WorkerId(w as u32), TaskId(t), Label(0)).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// The uncapped overlap-greedy pairing.
    fn greedy(data: &ResponseMatrix, target: WorkerId, min_overlap: usize) -> Vec<PeerPair> {
        let strategy = PairingStrategy::GreedyByOverlap;
        form_pairs_limited(data, target, strategy, min_overlap, None)
    }

    #[test]
    fn greedy_pairs_best_overlaps_first() {
        let data = staggered();
        let pairs = greedy(&data, WorkerId(0), 1);
        // Worker 4 shares nothing with worker 0 and is excluded;
        // the three remaining candidates form one pair (1,2) and drop 3.
        assert_eq!(pairs, vec![(WorkerId(1), WorkerId(2))]);
    }

    #[test]
    fn sequential_pairs_in_id_order() {
        let data = staggered();
        let pairs = form_pairs_limited(&data, WorkerId(0), PairingStrategy::Sequential, 1, None);
        assert_eq!(pairs, vec![(WorkerId(1), WorkerId(2))]);
    }

    #[test]
    fn pairs_are_disjoint() {
        // Regular data: all 6 peers pair into 3 disjoint pairs.
        let mut b = ResponseMatrixBuilder::new(7, 10, 2);
        for w in 0..7u32 {
            for t in 0..10u32 {
                b.push(WorkerId(w), TaskId(t), Label(0)).unwrap();
            }
        }
        let data = b.build().unwrap();
        let pairs = greedy(&data, WorkerId(3), 1);
        assert_eq!(pairs.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &pairs {
            assert!(seen.insert(a), "worker {a:?} used twice");
            assert!(seen.insert(b), "worker {b:?} used twice");
            assert_ne!(a, WorkerId(3));
            assert_ne!(b, WorkerId(3));
        }
    }

    #[test]
    fn even_worker_count_leaves_one_over() {
        let mut b = ResponseMatrixBuilder::new(6, 10, 2);
        for w in 0..6u32 {
            for t in 0..10u32 {
                b.push(WorkerId(w), TaskId(t), Label(0)).unwrap();
            }
        }
        let data = b.build().unwrap();
        let pairs = greedy(&data, WorkerId(0), 1);
        assert_eq!(pairs.len(), 2, "5 peers → 2 pairs + 1 leftover");
    }

    #[test]
    fn min_overlap_filters_pairs() {
        let data = staggered();
        // Requiring 35 common tasks leaves only worker 1 — no pair.
        let pairs = greedy(&data, WorkerId(0), 35);
        assert!(pairs.is_empty());
    }

    #[test]
    fn capped_pairing_is_a_prefix_of_the_uncapped_one() {
        let mut b = ResponseMatrixBuilder::new(9, 12, 2);
        for w in 0..9u32 {
            for t in 0..12u32 {
                if (w + t) % 3 != 0 {
                    b.push(WorkerId(w), TaskId(t), Label(0)).unwrap();
                }
            }
        }
        let data = b.build().unwrap();
        let full = greedy(&data, WorkerId(0), 1);
        assert!(full.len() >= 3);
        for cap in 0..=full.len() + 1 {
            let capped = form_pairs_limited(
                &data,
                WorkerId(0),
                PairingStrategy::GreedyByOverlap,
                1,
                Some(cap),
            );
            assert_eq!(capped, full[..cap.min(full.len())].to_vec(), "cap {cap}");
        }
    }

    #[test]
    fn no_candidates_yields_empty() {
        let mut b = ResponseMatrixBuilder::new(3, 3, 2);
        b.push(WorkerId(0), TaskId(0), Label(0)).unwrap();
        b.push(WorkerId(1), TaskId(1), Label(0)).unwrap();
        b.push(WorkerId(2), TaskId(2), Label(0)).unwrap();
        let data = b.build().unwrap();
        assert!(greedy(&data, WorkerId(0), 1).is_empty());
    }
}
