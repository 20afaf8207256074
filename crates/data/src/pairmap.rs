//! The pair table: co-occurrence/agreement counts `(c_ij, a_ij)` for
//! every worker pair, in per-worker rows that adapt to the data's
//! density.
//!
//! Fleet-scale crowds are *clustered* — a worker co-occurs with the
//! peers of its task neighbourhood, not with the whole fleet — so a
//! packed `m(m−1)/2` table would be mostly zeros (~400 MB at 10 000
//! workers). Paper-scale and well-mixed crowds are the opposite: every
//! worker co-occurs with nearly everyone, and a per-entry peer id and
//! search only cost time. [`PairMap`] therefore picks a form **per
//! row**, in the spirit of the container-per-chunk layout of Roaring
//! bitmaps:
//!
//! * a **sparse** row holds sorted `(peer, common, agreements)` entries
//!   for the co-occurring peers only — `get` is a binary search,
//!   `O(log d)` in the row's co-occurrence degree `d`, and absent pairs
//!   read as zero;
//! * a **dense** row holds one `(common, agreements)` cell per worker
//!   id — `get` is one indexed load.
//!
//! A row is dense exactly when `3·d ≥ m` (see [`PairMap::dense_rows`]).
//! At the threshold a dense row (`8m` bytes) costs at most 2× the
//! sparse row it replaces (`12d` bytes), and beyond it less. The form
//! is a **pure function of `(m, d)`**: streaming ingest
//! ([`PairMap::record_response`]) promotes a row the moment its degree
//! reaches the threshold and never demotes it (degrees only grow), and
//! the bulk build picks each row's form from its final degree. Equal
//! data therefore gives equal tables whatever the ingest order, which
//! keeps [`crate::OverlapIndex`]'s `Eq` and bit-identical checkpoint
//! round-trips.
//!
//! Both directions of a pair are stored, so either endpoint can walk
//! its row. [`PairMap::row`] is that walk: `(peer, stats)` for the
//! co-occurring peers in ascending id order, `O(d)` on a sparse row and
//! `O(m) ≤ O(3d)` on a dense one. It is the pairing screen's candidate
//! list, the streaming dirty tracker's neighbour list, and — scattered
//! through a worker → column map, one walk per selected peer — the
//! fill of an evaluation's [`crate::PeerPairs`] table, so the
//! estimators' hot loops search no row. `get` is left for one-off
//! lookups. Memory is
//! `O(Σ_w min(d_w, m))`: it tracks the co-occurrence structure, which
//! is what lets a shard's [`StreamingIndex`](crate::StreamingIndex),
//! holding only its closure's rows, keep pair state proportional to
//! *its* rows.
//!
//! The differential property tests in `crates/data/tests/proptests.rs`
//! pin every lookup, row walk and peer-table fill to the `pair_stats`
//! merge scan and the bulk build to streamed ingest in random orders,
//! on shapes whose rows sit on both sides of the threshold and cross it
//! mid-stream.

use crate::gram::PeerColumns;
use crate::{Label, PairStats, PeerPairs, ResponseMatrix, TaskId, WorkerId};

/// One peer entry of a sparse row: `(peer, common, agreements)`, kept
/// sorted by peer id.
type PairEntry = (u32, u32, u32);

/// One worker's counts against its peers; see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Row {
    /// Co-occurring peers only, sorted by peer id.
    Sparse(Vec<PairEntry>),
    /// `(common, agreements)` per worker id (`m` cells; the row's own
    /// cell stays zero).
    Dense(Vec<(u32, u32)>),
}

/// The public form of one stored `(common, agreements)` cell.
#[inline]
fn stats((common, agree): (u32, u32)) -> PairStats {
    PairStats {
        common_tasks: common as usize,
        agreements: agree as usize,
    }
}

/// Whether a row of co-occurrence degree `degree` in an `m`-worker
/// table is dense: the one representation rule.
#[inline]
const fn is_dense(degree: usize, m: usize) -> bool {
    3 * degree >= m
}

/// Pairwise co-occurrence/agreement counts with density-adaptive rows;
/// see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairMap {
    rows: Vec<Row>,
}

impl PairMap {
    /// An all-empty map for `m` workers (every pair reads as zero).
    pub fn empty(m: usize) -> Self {
        Self {
            rows: vec![Row::Sparse(Vec::new()); m],
        }
    }

    /// Builds the map from a response matrix, one row at a time, in
    /// ascending worker order. Row `w`'s pairs with higher ids are
    /// accumulated in an `m`-cell scratch row indexed by worker id —
    /// walking `w`'s tasks and adding every higher-id co-responder's
    /// `(common, agreement)` — and filed under each such peer for its
    /// own row; its pairs with lower ids arrive already filed (and
    /// sorted) by the earlier rows. The row is then compacted once into
    /// its sparse or dense form. `O(Σ_t r_t²/2)` counter bumps in all,
    /// each into the cache-resident scratch, with no per-bump search or
    /// insert.
    pub fn from_matrix(data: &ResponseMatrix) -> Self {
        let m = data.n_workers();
        let mut scratch = vec![(0u32, 0u32); m];
        let mut higher: Vec<u32> = Vec::new();
        // `filed[q]`: the entries `(p, common, agreements)` of q's pairs
        // with lower ids p, in ascending p.
        let mut filed: Vec<Vec<PairEntry>> = vec![Vec::new(); m];
        // `seen[t]`: how many of task t's (worker-sorted) responders
        // have had their rows built — so the current worker sits at
        // that position, and its higher-id co-responders follow it.
        let mut seen = vec![0usize; data.n_tasks()];
        let rows = data
            .workers()
            .map(|worker| {
                let w = worker.0;
                for &(task, label) in data.worker_responses(worker) {
                    let responders = data.task_responses(TaskId(task));
                    let at = &mut seen[task as usize];
                    debug_assert_eq!(responders[*at].0, w);
                    *at += 1;
                    for &(peer, peer_label) in &responders[*at..] {
                        let cell = &mut scratch[peer as usize];
                        if cell.0 == 0 {
                            higher.push(peer);
                        }
                        cell.0 += 1;
                        cell.1 += u32::from(peer_label == label);
                    }
                }
                for &q in &higher {
                    let (common, agree) = scratch[q as usize];
                    filed[q as usize].push((w, common, agree));
                }
                let mut lower = std::mem::take(&mut filed[w as usize]);
                let row = if is_dense(lower.len() + higher.len(), m) {
                    for &(p, common, agree) in &lower {
                        scratch[p as usize] = (common, agree);
                    }
                    Row::Dense(std::mem::replace(&mut scratch, vec![(0, 0); m]))
                } else {
                    higher.sort_unstable();
                    lower.extend(higher.iter().map(|&q| {
                        let (common, agree) = std::mem::take(&mut scratch[q as usize]);
                        (q, common, agree)
                    }));
                    Row::Sparse(lower)
                };
                higher.clear();
                row
            })
            .collect();
        Self { rows }
    }

    /// Number of workers covered.
    pub fn n_workers(&self) -> usize {
        self.rows.len()
    }

    /// Number of distinct co-occurring (unordered) pairs stored.
    pub fn n_pairs(&self) -> usize {
        (0..self.rows.len() as u32)
            .map(|w| self.row(WorkerId(w)).count())
            .sum::<usize>()
            / 2
    }

    /// Number of rows in the dense, direct-indexed form — those whose
    /// co-occurrence degree `d` satisfies `3·d ≥ m`.
    pub fn dense_rows(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r, Row::Dense(_)))
            .count()
    }

    /// `worker`'s row: `(peer, stats)` for every worker sharing at
    /// least one task with it, ascending by peer id (`worker` itself
    /// never appears). One sequential pass over the row — `O(d)` on a
    /// sparse row, `O(m) ≤ O(3d)` on a dense one, skipping its zero
    /// cells.
    pub fn row(&self, worker: WorkerId) -> impl Iterator<Item = (WorkerId, PairStats)> + '_ {
        let (sparse, dense): (&[PairEntry], &[(u32, u32)]) = match &self.rows[worker.index()] {
            Row::Sparse(entries) => (entries, &[]),
            Row::Dense(cells) => (&[], cells),
        };
        sparse
            .iter()
            .map(|&(p, common, agree)| (WorkerId(p), stats((common, agree))))
            .chain(
                dense
                    .iter()
                    .enumerate()
                    .filter(|(_, cell)| cell.0 > 0)
                    .map(|(p, &cell)| (WorkerId(p as u32), stats(cell))),
            )
    }

    /// Fills `table` with the statistics of every pair among `peers`
    /// (sorted and deduplicated by the table): each peer's row is
    /// walked once. A sparse row's entries are scattered through
    /// `columns`, unconditionally — entries for non-peers land in the
    /// table's sink column, which is zeroed again after each row — and
    /// a dense row is read at the peer columns directly: `O(d_p)`
    /// stores per sparse row, `O(peers)` per dense row, and no search.
    /// `columns` is left as it was found.
    ///
    /// # Panics
    /// Panics if a peer id is not below [`PairMap::n_workers`].
    pub(crate) fn peer_pairs_into(
        &self,
        peers: &[WorkerId],
        table: &mut PeerPairs,
        columns: &mut PeerColumns,
    ) {
        table.reset(peers);
        let (keys, rows) = table.keys_and_rows_mut();
        // Checked before any column is assigned, so a panic cannot
        // leave the map half-assigned. Keys are sorted.
        if let Some(&last) = keys.last() {
            assert!(
                (last as usize) < self.rows.len(),
                "peer {last} out of range for {} workers",
                self.rows.len()
            );
        }
        let sink = keys.len();
        columns.assign(self.rows.len(), keys);
        for (&p, out) in keys.iter().zip(rows) {
            match &self.rows[p as usize] {
                Row::Sparse(entries) => {
                    for &(q, common, agree) in entries {
                        out[columns.col(q, sink)] = (common, agree);
                    }
                }
                Row::Dense(cells) => {
                    for (cell, &q) in out.iter_mut().zip(keys) {
                        *cell = cells[q as usize];
                    }
                }
            }
            // Tables compare equal whatever the fill path.
            out[sink] = (0, 0);
        }
        columns.release(keys);
    }

    /// The stored statistics for a pair; pairs that never co-occurred
    /// read as zero. `O(1)` when `a`'s row is dense, a binary search
    /// of it otherwise.
    ///
    /// # Panics
    /// Panics if `a == b` or either id is not below
    /// [`PairMap::n_workers`], in every build profile.
    pub fn get(&self, a: WorkerId, b: WorkerId) -> PairStats {
        crate::overlap::check_pair(a, b, self.rows.len());
        stats(match &self.rows[a.index()] {
            Row::Dense(cells) => cells[b.index()],
            Row::Sparse(entries) => match entries.binary_search_by_key(&b.0, |&(p, _, _)| p) {
                Ok(pos) => (entries[pos].1, entries[pos].2),
                Err(_) => (0, 0),
            },
        })
    }

    /// Adds one `(common, agreement)` observation to both directions
    /// of the pair.
    fn bump(&mut self, a: u32, b: u32, agree: bool) {
        self.bump_directed(a, b, agree);
        self.bump_directed(b, a, agree);
    }

    /// Adds one observation to `from`'s row, promoting the row to the
    /// dense form when a new peer brings its degree to the threshold.
    fn bump_directed(&mut self, from: u32, to: u32, agree: bool) {
        let m = self.rows.len();
        let promoted = match &mut self.rows[from as usize] {
            Row::Dense(cells) => {
                let cell = &mut cells[to as usize];
                cell.0 += 1;
                cell.1 += u32::from(agree);
                None
            }
            Row::Sparse(entries) => match entries.binary_search_by_key(&to, |&(p, _, _)| p) {
                Ok(pos) => {
                    entries[pos].1 += 1;
                    entries[pos].2 += u32::from(agree);
                    None
                }
                Err(pos) => {
                    entries.insert(pos, (to, 1, u32::from(agree)));
                    is_dense(entries.len(), m).then(|| {
                        let mut cells = vec![(0, 0); m];
                        for &(p, common, agree) in entries.iter() {
                            cells[p as usize] = (common, agree);
                        }
                        cells
                    })
                }
            },
        };
        if let Some(cells) = promoted {
            self.rows[from as usize] = Row::Dense(cells);
        }
    }

    /// Updates the map for a new response by `worker` with `label`,
    /// given the task's *other* responders (the per-task list
    /// **before** the response is inserted). `O(r_t)` counter bumps,
    /// each `O(1)` on a dense row and a binary search (plus a sorted
    /// insert for a new peer) on a sparse one.
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
    use crate::{ResponseMatrixBuilder, pair_stats};

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

    /// A 12-worker chain: worker `w` shares task `w` with worker
    /// `w + 1`, and worker 0 also shares one task each with workers
    /// 2..=`hub_peers`. Worker 0's degree is `hub_peers`; everyone
    /// else's is at most 3, below the threshold of 4 (`3·4 ≥ 12`).
    fn hub(hub_peers: u32) -> ResponseMatrix {
        let mut b = ResponseMatrixBuilder::new(12, 30, 2);
        for w in 0..11u32 {
            b.push(WorkerId(w), TaskId(w), Label(0)).unwrap();
            b.push(WorkerId(w + 1), TaskId(w), Label((w % 2) as u16))
                .unwrap();
        }
        for p in 2..=hub_peers {
            b.push(WorkerId(0), TaskId(11 + p), Label(1)).unwrap();
            b.push(WorkerId(p), TaskId(11 + p), Label(1)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn matches_the_merge_scan_everywhere() {
        let data = sample();
        let map = PairMap::from_matrix(&data);
        assert_eq!(map.n_workers(), 5);
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a == b {
                    continue;
                }
                assert_eq!(
                    map.get(WorkerId(a), WorkerId(b)),
                    pair_stats(&data, WorkerId(a), WorkerId(b)),
                    "pair ({a},{b})"
                );
            }
        }
    }

    /// The expected row walk of `a`: the merge scan against every
    /// positive-overlap peer, ascending.
    fn scanned_row(data: &ResponseMatrix, a: u32) -> Vec<(WorkerId, PairStats)> {
        (0..data.n_workers() as u32)
            .filter(|&b| b != a)
            .map(|b| (WorkerId(b), pair_stats(data, WorkerId(a), WorkerId(b))))
            .filter(|(_, s)| s.common_tasks > 0)
            .collect()
    }

    #[test]
    fn row_walk_lists_exactly_the_nonzero_pairs() {
        let data = sample();
        let map = PairMap::from_matrix(&data);
        for a in 0..5u32 {
            let listed: Vec<_> = map.row(WorkerId(a)).collect();
            assert_eq!(listed, scanned_row(&data, a), "worker {a}");
        }
        assert_eq!(map.row(WorkerId(4)).count(), 0);
        // Dense rows skip their zero cells.
        let star = hub(6);
        let dense = PairMap::from_matrix(&star);
        assert!(matches!(dense.rows[0], Row::Dense(_)));
        for a in 0..12u32 {
            let listed: Vec<_> = dense.row(WorkerId(a)).collect();
            assert_eq!(listed, scanned_row(&star, a), "worker {a}");
        }
    }

    /// Peer-table fills over sparse and dense rows equal per-pair
    /// lookups, whatever the peer set, and hand the column map back
    /// clear — so consecutive fills with different peer sets never see
    /// each other's columns.
    #[test]
    fn peer_pair_fills_match_lookups_and_release_the_map() {
        let data = hub(6);
        let map = PairMap::from_matrix(&data);
        let mut table = PeerPairs::default();
        let mut columns = PeerColumns::default();
        let sets: [&[u32]; 4] = [&[0, 2, 5, 7], &[3, 1, 3], &[11, 0, 6, 1, 2], &[]];
        for set in sets {
            let peers: Vec<WorkerId> = set.iter().map(|&w| WorkerId(w)).collect();
            map.peer_pairs_into(&peers, &mut table, &mut columns);
            assert!(columns.is_clear(), "peers {set:?}");
            for &a in &peers {
                for &b in &peers {
                    let want = if a == b {
                        PairStats {
                            common_tasks: 0,
                            agreements: 0,
                        }
                    } else {
                        map.get(a, b)
                    };
                    assert_eq!(table.get(a, b), want, "peers {set:?}, pair ({a:?},{b:?})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range for 12 workers")]
    fn peer_pair_fill_rejects_out_of_range_peers() {
        let mut columns = PeerColumns::default();
        PairMap::from_matrix(&hub(6)).peer_pairs_into(
            &[WorkerId(1), WorkerId(12)],
            &mut PeerPairs::default(),
            &mut columns,
        );
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

    /// The form of a row follows `3·d ≥ m` exactly: a hub of degree 3
    /// stays sparse in a 12-worker table, degree 4 is dense.
    #[test]
    fn rows_promote_exactly_at_the_threshold() {
        let below = PairMap::from_matrix(&hub(3));
        assert!(matches!(below.rows[0], Row::Sparse(_)));
        assert_eq!(below.dense_rows(), 0);
        let at = PairMap::from_matrix(&hub(4));
        assert!(matches!(at.rows[0], Row::Dense(_)));
        assert_eq!(at.dense_rows(), 1);
    }

    /// Streaming ingest promotes the hub's row mid-stream; every
    /// lookup and row walk reads the same just before and just
    /// after the promotion, and the final table equals the bulk build.
    #[test]
    fn promotion_mid_stream_changes_no_lookup() {
        let data = hub(6);
        let mut map = PairMap::empty(12);
        let mut so_far = ResponseMatrix::empty(12, 30, 2);
        let mut promotions = 0;
        for r in data.iter() {
            let before = map.clone();
            map.record_response(r.worker, r.label, so_far.task_responses(r.task));
            so_far.insert(r).unwrap();
            if map.dense_rows() > before.dense_rows() {
                promotions += 1;
                // The pair this response bumped moved by one; nothing
                // else may move.
                for a in 0..12u32 {
                    for b in 0..12u32 {
                        if a != b {
                            assert_eq!(
                                map.get(WorkerId(a), WorkerId(b)),
                                pair_stats(&so_far, WorkerId(a), WorkerId(b))
                            );
                        }
                    }
                    let listed: Vec<_> = map.row(WorkerId(a)).collect();
                    assert_eq!(listed, scanned_row(&so_far, a));
                }
            }
        }
        assert_eq!(promotions, 1, "only the hub crosses 3·d ≥ 12");
        assert_eq!(map, PairMap::from_matrix(&data));
    }

    #[test]
    fn empty_and_absent_pairs_read_zero() {
        assert_eq!(PairMap::empty(0).n_workers(), 0);
        let map = PairMap::empty(3);
        assert_eq!(map.n_pairs(), 0);
        assert_eq!(map.get(WorkerId(0), WorkerId(2)).common_tasks, 0);
        assert_eq!(map.get(WorkerId(0), WorkerId(2)).agreement_rate(), None);
    }

    #[test]
    fn pair_count_tracks_the_data() {
        let data = sample();
        let map = PairMap::from_matrix(&data);
        let nonzero = (0..5u32)
            .flat_map(|a| ((a + 1)..5u32).map(move |b| (a, b)))
            .filter(|&(a, b)| pair_stats(&data, WorkerId(a), WorkerId(b)).common_tasks > 0)
            .count();
        assert_eq!(map.n_pairs(), nonzero);
    }

    #[test]
    #[should_panic(expected = "out of range for 10 workers")]
    fn sparse_lookup_rejects_out_of_range_ids() {
        PairMap::empty(10).get(WorkerId(3), WorkerId(12));
    }

    #[test]
    #[should_panic(expected = "no diagonal")]
    fn sparse_lookup_rejects_the_diagonal() {
        PairMap::empty(10).get(WorkerId(3), WorkerId(3));
    }

    // A dense row must not answer an out-of-range or diagonal pair
    // from its own (zero) cell either.
    #[test]
    #[should_panic(expected = "out of range for 12 workers")]
    fn dense_lookup_rejects_out_of_range_ids() {
        PairMap::from_matrix(&hub(6)).get(WorkerId(0), WorkerId(12));
    }

    #[test]
    #[should_panic(expected = "no diagonal")]
    fn dense_lookup_rejects_the_diagonal() {
        PairMap::from_matrix(&hub(6)).get(WorkerId(0), WorkerId(0));
    }
}
