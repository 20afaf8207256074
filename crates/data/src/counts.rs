//! The `(k+1)³` response-counts tensor of Algorithm A3.
//!
//! For a worker triple `(w₁, w₂, w₃)` on arity-`k` tasks,
//! `counts[a][b][c]` is the number of tasks where `w₁` responded with
//! `r_{a−1}`, `w₂` with `r_{b−1}` and `w₃` with `r_{c−1}`; slot 0 in
//! any coordinate means "did not attempt" (the paper's null response
//! `r₀`).
//!
//! Entries are stored as `f64`: `ProbEstimate` (Algorithm A3) is a
//! smooth function of real-valued counts, and its sensitivities
//! (step 6) are derivatives with respect to individual entries.

use crate::overlap::triple_joint_labels_optional;
use crate::{ResponseMatrix, WorkerId};

/// Which of the three workers attempted a task: a 3-bit mask with bit
/// 0 for `w₁`, bit 1 for `w₂`, bit 2 for `w₃`.
///
/// Entries of the counts tensor with the same pattern form one
/// multinomial group; Lemma 9's covariances are zero across groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttemptPattern(pub u8);

impl AttemptPattern {
    /// Pattern of a tensor index triple.
    pub fn of(a: usize, b: usize, c: usize) -> Self {
        let mut mask = 0u8;
        if a > 0 {
            mask |= 1;
        }
        if b > 0 {
            mask |= 2;
        }
        if c > 0 {
            mask |= 4;
        }
        Self(mask)
    }

    /// Number of workers that attempted.
    pub fn worker_count(self) -> u32 {
        self.0.count_ones()
    }

    /// All 8 possible patterns.
    pub fn all() -> impl Iterator<Item = Self> {
        (0u8..8).map(Self)
    }
}

/// A task-indexed array of counts-tensor cell codes, all zero between
/// fills: the scratch [`CountsTensor::fill_from_index`] scatters into
/// and gathers from. It grows to the index's task count on first use
/// (4 bytes per task) and is never shrunk.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaskCodes(Vec<u32>);

impl TaskCodes {
    /// The codes of tasks `0..n_tasks`, every one zero.
    fn covering(&mut self, n_tasks: usize) -> &mut [u32] {
        if self.0.len() < n_tasks {
            self.0.resize(n_tasks, 0);
        }
        &mut self.0
    }
}

/// The code weights `[side², side, 1]` of `w₁`, `w₂` and `w₃`, or
/// `None` when the largest cell index, `side³ − 1`, does not fit a
/// `u32`.
fn code_weights(side: usize) -> Option<[u32; 3]> {
    let side = u32::try_from(side).ok()?;
    let square = side.checked_mul(side)?;
    // `side³` itself fits, so every code (at most `side³ − 1`) does.
    square.checked_mul(side)?;
    Some([square, side, 1])
}

/// The counts tensor for one worker triple.
#[derive(Debug, Clone, PartialEq)]
pub struct CountsTensor {
    arity: usize,
    side: usize,
    data: Vec<f64>,
}

impl CountsTensor {
    /// An all-zero tensor for arity-`k` tasks.
    ///
    /// # Panics
    /// Panics if `arity < 2`.
    pub fn zeros(arity: usize) -> Self {
        assert!(arity >= 2, "arity must be at least 2");
        let side = arity + 1;
        Self {
            arity,
            side,
            data: vec![0.0; side * side * side],
        }
    }

    /// Builds the tensor from a response matrix and a worker triple,
    /// scanning every task once.
    pub fn from_matrix(data: &ResponseMatrix, w1: WorkerId, w2: WorkerId, w3: WorkerId) -> Self {
        Self::from_joint(
            data.arity() as usize,
            triple_joint_labels_optional(data, w1, w2, w3),
        )
    }

    /// Re-fills the tensor **in place** from an [`crate::OverlapIndex`]
    /// in `O(|w₁| + |w₂| + |w₃|)` branch-free steps, independent of the
    /// task count: a scatter pass adds each row's label code into
    /// `codes` (weights `side²`, `side` and 1 for `w₁`, `w₂` and `w₃`,
    /// so a task's code is its cell's flat index), then a gather pass
    /// over the same rows bumps `cell[code[t]]` and resets `code[t]`.
    /// A task visited again (it sits in two or three of the rows) then
    /// reads code 0 and lands in the never-attempted corner, which is
    /// zeroed at the end. Allocates nothing once `codes` covers the
    /// index's tasks and the arities match (an arity change re-shapes
    /// the tensor instead, so a reused scratch buffer is always safe).
    /// This is the indexed substrate's
    /// [`crate::OverlapSource::fill_counts`]; counts are integers, so
    /// the tensor is bit-identical to [`CountsTensor::from_matrix`] on
    /// the same data.
    ///
    /// # Panics
    /// Panics if the index's arity `k` has `(k+1)³` cells beyond what a
    /// `u32` code addresses (`k ≥ 1625`; such a tensor would take over
    /// 32 GiB), before anything is allocated.
    pub(crate) fn fill_from_index(
        &mut self,
        index: &crate::OverlapIndex,
        codes: &mut TaskCodes,
        w1: WorkerId,
        w2: WorkerId,
        w3: WorkerId,
    ) {
        let arity = index.arity() as usize;
        let weights = code_weights(arity + 1).unwrap_or_else(|| {
            panic!("a counts tensor of arity {arity} has more cells than a u32 code addresses")
        });
        if self.arity != arity {
            *self = Self::zeros(arity);
        } else {
            self.data.fill(0.0);
        }
        let codes = codes.covering(index.n_tasks());
        let rows = [w1, w2, w3].map(|w| index.worker_responses(w));
        for (row, weight) in rows.iter().zip(weights) {
            for &(task, label) in *row {
                codes[task as usize] += weight * (u32::from(label.0) + 1);
            }
        }
        for row in rows {
            for &(task, _) in row {
                let code = &mut codes[task as usize];
                self.data[*code as usize] += 1.0;
                *code = 0;
            }
        }
        self.data[0] = 0.0;
    }

    fn from_joint(
        arity: usize,
        joint: Vec<(
            Option<crate::Label>,
            Option<crate::Label>,
            Option<crate::Label>,
        )>,
    ) -> Self {
        let mut t = Self::zeros(arity);
        for (a, b, c) in joint {
            let ia = a.map_or(0, |l| l.index() + 1);
            let ib = b.map_or(0, |l| l.index() + 1);
            let ic = c.map_or(0, |l| l.index() + 1);
            t.add(ia, ib, ic, 1.0);
        }
        t
    }

    /// Task arity `k`.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Side length of the tensor (`k + 1`).
    #[inline]
    pub fn side(&self) -> usize {
        self.side
    }

    #[inline]
    fn idx(&self, a: usize, b: usize, c: usize) -> usize {
        debug_assert!(a < self.side && b < self.side && c < self.side);
        (a * self.side + b) * self.side + c
    }

    /// Reads `counts[a][b][c]`.
    #[inline]
    pub fn get(&self, a: usize, b: usize, c: usize) -> f64 {
        self.data[self.idx(a, b, c)]
    }

    /// Writes `counts[a][b][c]`.
    #[inline]
    pub fn set(&mut self, a: usize, b: usize, c: usize, value: f64) {
        let i = self.idx(a, b, c);
        self.data[i] = value;
    }

    /// Adds `delta` to `counts[a][b][c]` (the fill's per-task
    /// increment, and a perturbation step for derivative checks).
    #[inline]
    pub fn add(&mut self, a: usize, b: usize, c: usize, delta: f64) {
        let i = self.idx(a, b, c);
        self.data[i] += delta;
    }

    /// Iterates `(a, b, c, count)` over the whole tensor.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, usize, f64)> + '_ {
        let side = self.side;
        self.data.iter().enumerate().map(move |(i, &v)| {
            let c = i % side;
            let b = (i / side) % side;
            let a = i / (side * side);
            (a, b, c, v)
        })
    }

    /// Total number of tasks recorded (sum of all entries).
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// `n₁₂₃`: tasks attempted by all three workers.
    pub fn n_all_three(&self) -> f64 {
        self.group_total(AttemptPattern(0b111))
    }

    /// `n_ij` for the worker pair given as a pattern of two bits:
    /// tasks attempted by **exactly** that pair (the paper's `n_{i,j}`,
    /// which excludes tasks the third worker also attempted).
    ///
    /// # Panics
    /// Panics unless exactly two bits are set in `pair`.
    pub fn n_exactly_pair(&self, pair: AttemptPattern) -> f64 {
        assert_eq!(
            pair.worker_count(),
            2,
            "pair pattern must have exactly two workers"
        );
        self.group_total(pair)
    }

    /// Sum of all entries whose indices match `pattern`.
    pub fn group_total(&self, pattern: AttemptPattern) -> f64 {
        self.entries()
            .filter(|&(a, b, c, _)| AttemptPattern::of(a, b, c) == pattern)
            .map(|(_, _, _, v)| v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Label, ResponseMatrixBuilder, TaskId};

    fn tiny() -> ResponseMatrix {
        // Arity 2; 5 tasks.
        // t0: all three answer (0, 1, 0)
        // t1: w1, w2 answer (1, 1); w3 absent
        // t2: w1 only (0)
        // t3: all three answer (1, 1, 1)
        // t4: w2, w3 answer (0, 1); w1 absent
        let mut b = ResponseMatrixBuilder::new(3, 5, 2);
        b.push(WorkerId(0), TaskId(0), Label(0)).unwrap();
        b.push(WorkerId(1), TaskId(0), Label(1)).unwrap();
        b.push(WorkerId(2), TaskId(0), Label(0)).unwrap();
        b.push(WorkerId(0), TaskId(1), Label(1)).unwrap();
        b.push(WorkerId(1), TaskId(1), Label(1)).unwrap();
        b.push(WorkerId(0), TaskId(2), Label(0)).unwrap();
        b.push(WorkerId(0), TaskId(3), Label(1)).unwrap();
        b.push(WorkerId(1), TaskId(3), Label(1)).unwrap();
        b.push(WorkerId(2), TaskId(3), Label(1)).unwrap();
        b.push(WorkerId(1), TaskId(4), Label(0)).unwrap();
        b.push(WorkerId(2), TaskId(4), Label(1)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn from_matrix_places_counts() {
        let t = CountsTensor::from_matrix(&tiny(), WorkerId(0), WorkerId(1), WorkerId(2));
        // t0: labels (0,1,0) → indices (1,2,1).
        assert_eq!(t.get(1, 2, 1), 1.0);
        // t1: (1,1,absent) → (2,2,0).
        assert_eq!(t.get(2, 2, 0), 1.0);
        // t2: (0,absent,absent) → (1,0,0).
        assert_eq!(t.get(1, 0, 0), 1.0);
        // t3: (1,1,1) → (2,2,2).
        assert_eq!(t.get(2, 2, 2), 1.0);
        // t4: (absent,0,1) → (0,1,2).
        assert_eq!(t.get(0, 1, 2), 1.0);
        assert_eq!(t.total(), 5.0);
    }

    #[test]
    fn group_totals() {
        let t = CountsTensor::from_matrix(&tiny(), WorkerId(0), WorkerId(1), WorkerId(2));
        assert_eq!(t.n_all_three(), 2.0);
        assert_eq!(t.n_exactly_pair(AttemptPattern(0b011)), 1.0); // w1,w2 only: t1
        assert_eq!(t.n_exactly_pair(AttemptPattern(0b110)), 1.0); // w2,w3 only: t4
        assert_eq!(t.n_exactly_pair(AttemptPattern(0b101)), 0.0); // w1,w3 only
        assert_eq!(t.group_total(AttemptPattern(0b001)), 1.0); // w1 only: t2
        assert_eq!(t.group_total(AttemptPattern(0b000)), 0.0);
    }

    #[test]
    fn pattern_classification() {
        assert_eq!(AttemptPattern::of(0, 0, 0), AttemptPattern(0));
        assert_eq!(AttemptPattern::of(1, 0, 2), AttemptPattern(0b101));
        assert_eq!(AttemptPattern::of(3, 1, 2).worker_count(), 3);
        assert_eq!(AttemptPattern::all().count(), 8);
    }

    #[test]
    fn entries_roundtrip() {
        let mut t = CountsTensor::zeros(3);
        t.set(2, 0, 3, 7.0);
        t.add(2, 0, 3, 1.0);
        let found: Vec<_> = t.entries().filter(|&(_, _, _, v)| v != 0.0).collect();
        assert_eq!(found, vec![(2, 0, 3, 8.0)]);
        assert_eq!(t.side(), 4);
        assert_eq!(t.arity(), 3);
    }

    #[test]
    fn perturbation_is_local() {
        let mut t = CountsTensor::zeros(2);
        t.add(1, 1, 1, 0.01);
        t.add(1, 1, 1, -0.02);
        assert!((t.get(1, 1, 1) + 0.01).abs() < 1e-15);
        assert_eq!(t.get(1, 1, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "exactly two")]
    fn pair_pattern_validation() {
        CountsTensor::zeros(2).n_exactly_pair(AttemptPattern(0b111));
    }

    #[test]
    fn code_weights_stop_where_u32_codes_would_overflow() {
        assert_eq!(code_weights(3), Some([9, 3, 1]));
        // 1625³ − 1 < 2³² ≤ 1626³ − 1.
        assert_eq!(code_weights(1625), Some([1625 * 1625, 1625, 1]));
        assert_eq!(code_weights(1626), None);
    }

    #[test]
    #[should_panic(expected = "more cells than a u32 code addresses")]
    fn oversized_arity_panics_before_allocating() {
        use crate::OverlapSource;
        // Arity 1625: a 1626³-cell tensor, whose codes overflow u32.
        let stream = crate::StreamingIndex::new(3, 4, 1625);
        let mut tensor = CountsTensor::zeros(2);
        stream.fill_counts(&mut tensor, WorkerId(0), WorkerId(1), WorkerId(2));
    }

    #[test]
    fn total_matches_task_count_when_all_attempted() {
        let mut b = ResponseMatrixBuilder::new(3, 10, 2);
        for t in 0..10u32 {
            for w in 0..3u32 {
                b.push(WorkerId(w), TaskId(t), Label(0)).unwrap();
            }
        }
        let m = b.build().unwrap();
        let t = CountsTensor::from_matrix(&m, WorkerId(0), WorkerId(1), WorkerId(2));
        assert_eq!(t.n_all_three(), 10.0);
        assert_eq!(t.total(), 10.0);
    }
}
