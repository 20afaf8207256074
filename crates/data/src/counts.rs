//! The `(k+1)³` response-counts tensor of Algorithm A3.
//!
//! For a worker triple `(w₁, w₂, w₃)` on arity-`k` tasks,
//! `counts[a][b][c]` is the number of tasks where `w₁` responded with
//! `r_{a−1}`, `w₂` with `r_{b−1}` and `w₃` with `r_{c−1}`; slot 0 in
//! any coordinate means "did not attempt" (the paper's null response
//! `r₀`).
//!
//! Entries are stored as `f64` because the k-ary confidence-interval
//! computation perturbs individual entries by `±ε` to differentiate
//! `ProbEstimate` numerically (Algorithm A3, step 6).

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
    /// by a union merge of the triple's CSR rows —
    /// `O(|w₁| + |w₂| + |w₃|)` instead of a binary search per
    /// (task, worker) cell — allocating nothing when the arities match
    /// (an arity change re-shapes the tensor instead, so a reused
    /// scratch buffer is always safe). This is the indexed substrates'
    /// [`crate::OverlapSource::fill_counts`]; counts are bit-identical
    /// to [`CountsTensor::from_matrix`] on the same data.
    pub(crate) fn fill_from_index(
        &mut self,
        index: &crate::OverlapIndex,
        w1: WorkerId,
        w2: WorkerId,
        w3: WorkerId,
    ) {
        if self.arity != index.arity() as usize {
            *self = Self::zeros(index.arity() as usize);
        } else {
            self.data.fill(0.0);
        }
        index.triple_joint_for_each(w1, w2, w3, |(a, b, c)| {
            let ia = a.map_or(0, |l| l.index() + 1);
            let ib = b.map_or(0, |l| l.index() + 1);
            let ic = c.map_or(0, |l| l.index() + 1);
            self.add(ia, ib, ic, 1.0);
        });
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

    /// Adds `delta` to `counts[a][b][c]` (used by the ±ε perturbation
    /// of the numeric differentiation step).
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

    /// The number of tasks both `w₁` and `w₂` attempted (regardless of
    /// `w₃`) — the denominator `n₁₂₃ + n₁₂` of A3 step 2.
    pub fn n_pair_at_least(&self, pair: AttemptPattern) -> f64 {
        assert_eq!(
            pair.worker_count(),
            2,
            "pair pattern must have exactly two workers"
        );
        self.n_exactly_pair(pair) + self.n_all_three()
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
        assert_eq!(t.n_pair_at_least(AttemptPattern(0b011)), 3.0);
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
