//! Deterministic shard planning: anchor partition + peer closures.
//!
//! A [`ShardPlan`] assigns every worker to exactly one shard as its
//! **anchor** (the shard that evaluates it) and computes each shard's
//! **closure**: the anchors plus every pairing-reachable peer (any
//! worker sharing at least one task with an anchor). The closure is
//! exactly the worker set whose full rows a shard's index must hold
//! for its anchors' evaluations to reproduce the unsharded pipeline
//! bit for bit; see the [crate docs](crate) for the argument.
//!
//! Two planners share that machinery:
//!
//! * [`ShardPlan::build`] — contiguous id ranges of `⌈m / n_shards⌉`
//!   workers: reproducible from `(n_workers, n_shards)` alone, zero
//!   planning cost, and optimal when worker ids already align with
//!   task neighbourhoods.
//! * [`ShardPlan::build_clustered`] — **locality-aware**: a greedy
//!   agglomeration over the worker co-occurrence graph grows each
//!   shard around the most-connected unassigned worker, always
//!   absorbing the candidate with the strongest tie to the shard so
//!   far. On fleets whose ids do *not* align with task
//!   neighbourhoods (imports, hashed ids, interleaved signups) this
//!   keeps co-responding workers on one shard, so closures — and with
//!   them per-process memory — shrink toward the anchor count, while
//!   contiguous ranges would drag in every neighbour of every
//!   scattered anchor. Deterministic: ties break by worker id.
//!
//! The merge step sorts reports into canonical worker order, so *any*
//! assignment — contiguous or clustered — yields bit-identical fleet
//! output; planners only move the memory/balance trade-off.
//!
//! Closure discovery is one pass over the task adjacency
//! (`O(Σ_t r_t²)` — the same order as building any pair table): each
//! task's responder list marks, for every responder's home shard, all
//! co-responders. Clustering additionally counts the weighted
//! co-occurrence edges worker by worker (same order, into one `O(m)`
//! scratch row rather than a list of every co-responding pair) and
//! runs a lazy-heap greedy growth, `O(E log E)` in the edge count. The planner is a *central*
//! step — it reads the full data once, cheaply; what sharding removes
//! is the need for any single **evaluation** process to hold
//! fleet-wide state.

use crowd_data::{ResponseMatrix, TaskId, WorkerId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One shard of a [`ShardPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// The anchor ids this shard evaluates, ascending. May be empty
    /// when there are more shards than workers.
    pub anchors: Vec<WorkerId>,
    /// The workers whose rows the shard's index needs: the anchors
    /// plus every worker sharing at least one task with an anchor.
    /// Sorted ascending, deduplicated.
    pub closure: Vec<WorkerId>,
}

impl ShardSpec {
    /// The shard's anchors as worker ids.
    pub fn anchor_ids(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.anchors.iter().copied()
    }

    /// Number of anchors.
    pub fn n_anchors(&self) -> usize {
        self.anchors.len()
    }

    /// True when the shard has nothing to evaluate.
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }
}

/// A deterministic partition of the fleet into shard anchor sets with
/// per-shard peer closures; see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n_workers: usize,
    /// `home[w]` = the shard that evaluates worker `w`.
    home: Vec<u32>,
    shards: Vec<ShardSpec>,
    /// CSR worker → subscribing shards: shard `s` subscribes to
    /// worker `w` when `w` is in shard `s`'s closure (its index holds
    /// `w`'s row). `subs[subs_off[w]..subs_off[w + 1]]`, ascending.
    subs_off: Vec<u32>,
    subs: Vec<u32>,
}

impl ShardPlan {
    /// Plans `n_shards` shards over the fleet (clamped to ≥ 1):
    /// contiguous anchor ranges of `⌈m / n_shards⌉` workers, closures
    /// from one pass over the task adjacency. The same
    /// `(data, n_shards)` always produces the same plan.
    pub fn build(data: &ResponseMatrix, n_shards: usize) -> Self {
        let m = data.n_workers();
        let n_shards = n_shards.max(1);
        let chunk = m.div_ceil(n_shards).max(1);
        let home: Vec<u32> = (0..m).map(|w| (w / chunk) as u32).collect();
        Self::from_assignment(data, n_shards, home)
    }

    /// Locality-aware planning: greedy agglomerative clustering over
    /// the worker co-occurrence graph (see the [module docs](self)).
    /// Shards are grown one at a time to a target of `⌈m / n_shards⌉`
    /// anchors: each starts from the highest-degree unassigned worker
    /// and repeatedly absorbs the unassigned worker with the largest
    /// total co-occurrence weight into the shard so far (lazy
    /// max-heap; all ties break by lowest worker id, so the same
    /// `(data, n_shards)` always produces the same plan). Workers
    /// with no co-occurrence edge into the growing shard seed new
    /// components inside it, so silent and isolated workers are still
    /// anchored exactly once.
    pub fn build_clustered(data: &ResponseMatrix, n_shards: usize) -> Self {
        let m = data.n_workers();
        let n_shards = n_shards.max(1);

        let adj = co_occurrence(data);

        // Seed order: total co-occurrence weight descending, id
        // ascending — the strongest hub of each remaining component
        // starts its shard.
        let mut seeds: Vec<u32> = (0..m as u32).collect();
        let degree: Vec<u64> = adj
            .iter()
            .map(|row| row.iter().map(|&(_, w)| w as u64).sum())
            .collect();
        seeds.sort_by_key(|&w| (Reverse(degree[w as usize]), w));
        let mut next_seed = 0usize;

        let target = m.div_ceil(n_shards).max(1);
        let mut home = vec![u32::MAX; m];
        // Connection weight of each unassigned worker to the shard
        // currently being grown, plus a lazy max-heap over it: stale
        // entries (assigned workers, superseded weights) are skipped
        // on pop.
        let mut conn = vec![0u64; m];
        let mut touched: Vec<u32> = Vec::new();
        let mut heap: BinaryHeap<(u64, Reverse<u32>)> = BinaryHeap::new();
        for s in 0..n_shards as u32 {
            heap.clear();
            for &t in &touched {
                conn[t as usize] = 0;
            }
            touched.clear();
            let mut size = 0usize;
            while size < target {
                let pick = loop {
                    match heap.pop() {
                        Some((w, Reverse(id))) => {
                            if home[id as usize] == u32::MAX && conn[id as usize] == w {
                                break Some(id);
                            }
                        }
                        None => break None,
                    }
                };
                let pick = match pick {
                    Some(id) => id,
                    None => {
                        // No unassigned worker touches the shard yet
                        // (fresh shard, or a component was exhausted):
                        // seed with the best-connected leftover.
                        while next_seed < m && home[seeds[next_seed] as usize] != u32::MAX {
                            next_seed += 1;
                        }
                        match seeds.get(next_seed) {
                            Some(&id) => id,
                            None => break, // whole fleet assigned
                        }
                    }
                };
                home[pick as usize] = s;
                size += 1;
                for &(peer, weight) in &adj[pick as usize] {
                    if home[peer as usize] == u32::MAX {
                        if conn[peer as usize] == 0 {
                            touched.push(peer);
                        }
                        conn[peer as usize] += weight as u64;
                        heap.push((conn[peer as usize], Reverse(peer)));
                    }
                }
            }
        }
        // More shards than workers leaves trailing shards empty, never
        // workers unassigned: Σ targets ≥ m and the loop above only
        // stops early when every worker is placed.
        debug_assert!(home.iter().all(|&h| h != u32::MAX));
        Self::from_assignment(data, n_shards, home)
    }

    /// The shared back half of every planner: per-shard anchor lists
    /// and closures (one pass over the task adjacency) from a
    /// worker → shard assignment.
    fn from_assignment(data: &ResponseMatrix, n_shards: usize, home: Vec<u32>) -> Self {
        let m = data.n_workers();
        debug_assert_eq!(home.len(), m);

        // Per-shard membership bitmaps: co-responders of each shard's
        // anchors. A worker responding to a task pulls every other
        // responder of that task into its home shard's closure.
        let mut member = vec![vec![false; m]; n_shards];
        for task in data.tasks() {
            let responders = data.task_responses(task);
            for &(w, _) in responders {
                let row = &mut member[home[w as usize] as usize];
                for &(peer, _) in responders {
                    row[peer as usize] = true;
                }
            }
        }

        let shards = (0..n_shards)
            .map(|s| {
                // Anchors are always in their own closure, responses
                // or not — a silent anchor still gets evaluated (and
                // fails gracefully) exactly like the unsharded loop.
                let anchors: Vec<WorkerId> = (0..m as u32)
                    .filter(|&w| home[w as usize] == s as u32)
                    .map(WorkerId)
                    .collect();
                for w in &anchors {
                    member[s][w.index()] = true;
                }
                let closure: Vec<WorkerId> = member[s]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &in_scope)| in_scope)
                    .map(|(w, _)| WorkerId(w as u32))
                    .collect();
                ShardSpec { anchors, closure }
            })
            .collect();

        // Invert the membership bitmaps into the CSR worker →
        // subscribing-shards map (ascending shard order per worker).
        let mut subs_off = Vec::with_capacity(m + 1);
        let mut subs = Vec::new();
        subs_off.push(0u32);
        for w in 0..m {
            for (s, row) in member.iter().enumerate() {
                if row[w] {
                    subs.push(s as u32);
                }
            }
            subs_off.push(subs.len() as u32);
        }

        Self {
            n_workers: m,
            home,
            shards,
            subs_off,
            subs,
        }
    }

    /// Number of workers planned over.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Number of shards (including empty trailing shards).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard specs, in shard order.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// The shard that evaluates `worker` — the request-routing hook of
    /// a sharded service.
    ///
    /// # Panics
    /// Panics if `worker` is outside the planned fleet.
    pub fn shard_of(&self, worker: WorkerId) -> usize {
        self.home[worker.index()] as usize
    }

    /// Every shard whose closure contains `worker` (ascending) — the
    /// **ingest-routing** hook of a sharded service. Each listed
    /// shard's index holds `worker`'s full row, so a new response
    /// from `worker` must be delivered to *all* of them (not just
    /// [`ShardPlan::shard_of`]) for per-shard state to stay
    /// bit-identical to the unsharded substrate. Always contains the
    /// home shard; a worker sharing no tasks with foreign anchors
    /// subscribes to its home shard alone.
    ///
    /// # Panics
    /// Panics if `worker` is outside the planned fleet.
    pub fn closure_shards(&self, worker: WorkerId) -> &[u32] {
        let w = worker.index();
        let (lo, hi) = (self.subs_off[w] as usize, self.subs_off[w + 1] as usize);
        &self.subs[lo..hi]
    }

    /// The largest closure across shards — the per-process row count
    /// a deployment must provision for; the number
    /// [`ShardPlan::build_clustered`] exists to shrink.
    pub fn max_closure_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.closure.len())
            .max()
            .unwrap_or(0)
    }
}

/// The weighted co-occurrence graph: row `a` lists every `(b, weight)`
/// with `weight` = the number of tasks workers `a` and `b` share,
/// ascending in `b`. Counted one worker at a time into a dense scratch
/// row over the later co-responders of its tasks, so memory stays
/// `O(m + edges)` rather than one entry per co-responding task pair.
fn co_occurrence(data: &ResponseMatrix) -> Vec<Vec<(u32, u32)>> {
    let m = data.n_workers();
    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); m];
    let mut shared = vec![0u32; m];
    let mut peers: Vec<u32> = Vec::new();
    for a in 0..m as u32 {
        for &(task, _) in data.worker_responses(WorkerId(a)) {
            let responders = data.task_responses(TaskId(task));
            let later = responders.partition_point(|&(w, _)| w <= a);
            for &(b, _) in &responders[later..] {
                if shared[b as usize] == 0 {
                    peers.push(b);
                }
                shared[b as usize] += 1;
            }
        }
        // Rows fill in ascending id order: `b`'s row receives `a`
        // before any of its own later peers.
        peers.sort_unstable();
        for &b in &peers {
            let weight = std::mem::take(&mut shared[b as usize]);
            adj[a as usize].push((b, weight));
            adj[b as usize].push((a, weight));
        }
        peers.clear();
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_data::{Label, ResponseMatrixBuilder};

    /// Two disjoint task neighbourhoods: workers 0–2 on tasks 0–9,
    /// workers 3–5 on tasks 10–19. Worker 6 is silent.
    fn clustered() -> ResponseMatrix {
        let mut b = ResponseMatrixBuilder::new(7, 20, 2);
        for w in 0..3u32 {
            for t in 0..10u32 {
                b.push(WorkerId(w), TaskId(t), Label(0)).unwrap();
            }
        }
        for w in 3..6u32 {
            for t in 10..20u32 {
                b.push(WorkerId(w), TaskId(t), Label(0)).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// A community-structured fleet whose worker ids do **not** align
    /// with the task neighbourhoods: worker `w` belongs to community
    /// `w % communities` (ids interleave across communities), each
    /// community answering its own task block.
    fn interleaved(communities: usize, per: usize, tasks_per: usize) -> ResponseMatrix {
        let m = communities * per;
        let mut b = ResponseMatrixBuilder::new(m, communities * tasks_per, 2);
        for w in 0..m as u32 {
            let community = w as usize % communities;
            for t in 0..tasks_per as u32 {
                b.push(
                    WorkerId(w),
                    TaskId((community * tasks_per) as u32 + t),
                    Label((w + t) as u16 % 2),
                )
                .unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn anchors_partition_the_fleet() {
        let data = clustered();
        for n_shards in [1usize, 2, 3, 7, 11] {
            for plan in [
                ShardPlan::build(&data, n_shards),
                ShardPlan::build_clustered(&data, n_shards),
            ] {
                let mut seen = [false; 7];
                for (s, spec) in plan.shards().iter().enumerate() {
                    for w in spec.anchor_ids() {
                        assert!(!seen[w.index()], "worker {w:?} anchored twice");
                        seen[w.index()] = true;
                        assert_eq!(plan.shard_of(w), s);
                    }
                }
                assert!(seen.iter().all(|&s| s), "n_shards = {n_shards}");
            }
        }
    }

    #[test]
    fn closure_contains_anchors_and_their_co_responders() {
        let data = clustered();
        let plan = ShardPlan::build(&data, 2);
        // chunk = 4: shard 0 anchors 0..4, shard 1 anchors 4..7.
        let anchors0: Vec<u32> = plan.shards()[0].anchors.iter().map(|w| w.0).collect();
        let anchors1: Vec<u32> = plan.shards()[1].anchors.iter().map(|w| w.0).collect();
        assert_eq!(anchors0, vec![0, 1, 2, 3]);
        assert_eq!(anchors1, vec![4, 5, 6]);
        // Shard 0's anchor 3 co-occurs with 4 and 5 — they must be in
        // the closure; the silent worker 6 appears only as an anchor.
        let closure0: Vec<u32> = plan.shards()[0].closure.iter().map(|w| w.0).collect();
        assert_eq!(closure0, vec![0, 1, 2, 3, 4, 5]);
        // Shard 1's anchors 4, 5 reach only worker 3 beyond themselves.
        let closure1: Vec<u32> = plan.shards()[1].closure.iter().map(|w| w.0).collect();
        assert_eq!(closure1, vec![3, 4, 5, 6]);
    }

    #[test]
    fn more_shards_than_workers_leaves_trailing_shards_empty() {
        let data = clustered();
        for plan in [
            ShardPlan::build(&data, 11),
            ShardPlan::build_clustered(&data, 11),
        ] {
            assert_eq!(plan.n_shards(), 11);
            let non_empty: usize = plan.shards().iter().filter(|s| !s.is_empty()).count();
            assert_eq!(non_empty, 7);
            let total: usize = plan.shards().iter().map(ShardSpec::n_anchors).sum();
            assert_eq!(total, 7);
            for spec in plan.shards().iter().filter(|s| s.is_empty()) {
                assert!(spec.closure.is_empty(), "empty shard needs no rows");
            }
        }
    }

    #[test]
    fn closure_shards_inverts_the_closures() {
        let data = clustered();
        for n_shards in [1usize, 2, 3, 7, 11] {
            for plan in [
                ShardPlan::build(&data, n_shards),
                ShardPlan::build_clustered(&data, n_shards),
            ] {
                for w in 0..data.n_workers() as u32 {
                    let w = WorkerId(w);
                    let subs = plan.closure_shards(w);
                    // Exactly the shards whose closure lists w,
                    // ascending, home always included.
                    let expect: Vec<u32> = plan
                        .shards()
                        .iter()
                        .enumerate()
                        .filter(|(_, spec)| spec.closure.contains(&w))
                        .map(|(s, _)| s as u32)
                        .collect();
                    assert_eq!(subs, expect, "worker {w:?}, n_shards {n_shards}");
                    assert!(
                        subs.contains(&(plan.shard_of(w) as u32)),
                        "home shard must subscribe to its own anchor"
                    );
                }
            }
        }
    }

    #[test]
    fn silent_workers_subscribe_to_home_only() {
        let data = clustered();
        let plan = ShardPlan::build(&data, 2);
        // Worker 6 is silent: its row exists nowhere but its home
        // shard (as an anchor), so ingest routes there alone.
        assert_eq!(plan.closure_shards(WorkerId(6)), &[1]);
        // Worker 3 bridges both neighbourhood closures.
        assert_eq!(plan.closure_shards(WorkerId(3)), &[0, 1]);
    }

    #[test]
    fn plans_are_deterministic() {
        let data = clustered();
        assert_eq!(ShardPlan::build(&data, 3), ShardPlan::build(&data, 3));
        assert_eq!(
            ShardPlan::build_clustered(&data, 3),
            ShardPlan::build_clustered(&data, 3)
        );
    }

    #[test]
    fn clustered_planning_reunites_interleaved_communities() {
        // 4 communities of 8 whose ids interleave (w % 4): contiguous
        // ranges mix all four communities into every shard, so each
        // closure is the whole fleet; clustering recovers the
        // communities and closures collapse to the anchor sets.
        let data = interleaved(4, 8, 12);
        let contiguous = ShardPlan::build(&data, 4);
        let clustered = ShardPlan::build_clustered(&data, 4);
        assert_eq!(contiguous.max_closure_len(), 32, "ids interleave");
        assert_eq!(
            clustered.max_closure_len(),
            8,
            "clustered shards must close over exactly their community"
        );
        for spec in clustered.shards() {
            assert_eq!(spec.n_anchors(), 8);
            // One community per shard: all anchors congruent mod 4.
            let c = spec.anchors[0].0 % 4;
            assert!(spec.anchor_ids().all(|w| w.0 % 4 == c));
            assert_eq!(spec.closure, spec.anchors);
        }
    }

    #[test]
    fn clustered_planning_balances_shard_sizes() {
        // One big community (20) + one small (4), 3 shards of target 8:
        // growth must stop at the target, splitting the big community
        // rather than overfilling a shard.
        let mut b = ResponseMatrixBuilder::new(24, 30, 2);
        for w in 0..20u32 {
            for t in 0..20u32 {
                b.push(WorkerId(w), TaskId(t), Label(0)).unwrap();
            }
        }
        for w in 20..24u32 {
            for t in 20..30u32 {
                b.push(WorkerId(w), TaskId(t), Label(0)).unwrap();
            }
        }
        let data = b.build().unwrap();
        let plan = ShardPlan::build_clustered(&data, 3);
        let sizes: Vec<usize> = plan.shards().iter().map(ShardSpec::n_anchors).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 24);
        assert!(
            sizes.iter().all(|&s| s <= 8),
            "no shard may exceed the ⌈m/n⌉ target: {sizes:?}"
        );
    }

    #[test]
    fn co_occurrence_counts_shared_tasks_in_id_order() {
        // Uneven overlaps: worker w answers task t unless (w·t + w) % 4
        // is 0, so pair weights differ and some rows are sparse.
        let (m, n) = (9u32, 15u32);
        let answers = |w: u32, t: u32| !(w * t + w).is_multiple_of(4);
        let mut b = ResponseMatrixBuilder::new(m as usize, n as usize, 2);
        for w in 0..m {
            for t in (0..n).filter(|&t| answers(w, t)) {
                b.push(WorkerId(w), TaskId(t), Label(0)).unwrap();
            }
        }
        let adj = co_occurrence(&b.build().unwrap());
        for a in 0..m {
            let expect: Vec<(u32, u32)> = (0..m)
                .filter(|&b| b != a)
                .map(|b| {
                    (
                        b,
                        (0..n).filter(|&t| answers(a, t) && answers(b, t)).count() as u32,
                    )
                })
                .filter(|&(_, weight)| weight > 0)
                .collect();
            assert_eq!(adj[a as usize], expect, "row {a}");
        }
    }
}
