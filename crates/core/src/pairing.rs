//! Greedy triple formation for Algorithm A2 (§III-C1, "Selecting
//! triples").
//!
//! To evaluate worker `w`, the remaining workers are split into
//! disjoint pairs; each pair plus `w` forms a triple. The paper's
//! greedy heuristic: sort candidates by their task overlap with `w`
//! (descending), repeatedly take the head of the list and pair it with
//! the first remaining candidate that shares at least one task with
//! both `w` and the head. Unpairable candidates are dropped.
//!
//! The candidate screen reads `w`'s pair row in one walk
//! ([`OverlapSource::pair_row_into`]): on an indexed substrate that is
//! one sequential pass over the row with no per-candidate lookup, and
//! the screened candidates keep their statistics with `w`, which the
//! m-worker estimator's triple estimates then read instead of asking
//! the substrate again. Substrates without rows (the matrix scans) are
//! swept with one [`OverlapSource::pair`] query per worker.

use std::cmp::Reverse;

use crowd_data::{OverlapSource, PairStats, WorkerId};

/// A candidate pair forming a triple with the evaluated worker.
pub type PeerPair = (WorkerId, WorkerId);

/// A screened candidate: a peer and its pair statistics with the
/// evaluated worker.
pub(crate) type Candidate = (WorkerId, PairStats);

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
/// triple formation, over any overlap substrate — the candidate screen
/// walks the target's pair row where the substrate keeps one, and
/// sweeps the population with [`OverlapSource::pair`] queries where it
/// does not. The produced pairs are identical across substrates.
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
    form_pairs_in(
        src,
        target,
        strategy,
        min_overlap,
        max_pairs,
        &mut Vec::new(),
    )
    .into_iter()
    .map(|((a, _), (b, _))| (a, b))
    .collect()
}

/// [`form_pairs_limited`], screening into the reusable `candidates`
/// buffer and returning each pair with both peers' statistics against
/// `target`.
pub(crate) fn form_pairs_in<S: OverlapSource>(
    src: &S,
    target: WorkerId,
    strategy: PairingStrategy,
    min_overlap: usize,
    max_pairs: Option<usize>,
    candidates: &mut Vec<Candidate>,
) -> Vec<(Candidate, Candidate)> {
    let min_overlap = min_overlap.max(1);
    let max_pairs = max_pairs.unwrap_or(usize::MAX);
    candidates.clear();
    if max_pairs == 0 {
        return Vec::new();
    }
    // Candidates: everyone sharing enough tasks with the target, in id
    // order — the row lists exactly the positive-overlap workers.
    pair_row(src, target, candidates);
    candidates.retain(|(_, s)| s.common_tasks >= min_overlap);
    match strategy {
        // Descending by overlap with the target; ties by id for
        // determinism. Ids are unique, so the key is a total order.
        PairingStrategy::GreedyByOverlap => {
            candidates.sort_unstable_by_key(|&(w, s)| (Reverse(s.common_tasks), w));
        }
        // The row is already in id order.
        PairingStrategy::Sequential => {}
    }

    let mut pairs = Vec::new();
    while candidates.len() >= 2 && pairs.len() < max_pairs {
        let head = candidates.remove(0);
        // First partner sharing enough tasks with the head (its overlap
        // with the target was already checked on entry to the list).
        let partner_pos = candidates
            .iter()
            .position(|&(w, _)| src.pair(head.0, w).common_tasks >= min_overlap);
        if let Some(pos) = partner_pos {
            pairs.push((head, candidates.remove(pos)));
        }
        // Otherwise the head is unpairable; it is dropped.
    }
    pairs
}

/// Appends `target`'s pair row to `out`: `(peer, stats)` for every
/// worker sharing a task with it, ascending by id — one row walk on an
/// indexed substrate, a population sweep of [`OverlapSource::pair`]
/// queries otherwise.
fn pair_row<S: OverlapSource>(src: &S, target: WorkerId, out: &mut Vec<Candidate>) {
    if !src.pair_row_into(target, out) {
        out.extend(
            (0..src.n_workers() as u32)
                .map(WorkerId)
                .filter(|&w| w != target)
                .map(|w| (w, src.pair(target, w)))
                .filter(|(_, s)| s.common_tasks > 0),
        );
    }
}

/// Every peer any [`form_pairs_limited`] call could possibly involve when
/// evaluating `target`: the workers sharing at least one task with it,
/// ascending by id — `target`'s pair row. The pairing's candidate
/// filter, greedy partner scan and covariance assembly never look
/// beyond this set (pairs with zero overlap are rejected on entry), so
/// a substrate holding full rows for `target` ∪
/// `reachable_peers(target)` reproduces the full-fleet pairing **bit
/// for bit** — the closed peer set the sharding planner
/// (`crowd_shard::ShardPlan`) builds per shard.
pub fn reachable_peers<S: OverlapSource>(src: &S, target: WorkerId) -> Vec<WorkerId> {
    let mut row = Vec::new();
    pair_row(src, target, &mut row);
    row.into_iter().map(|(w, _)| w).collect()
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
