//! Row-major dense `f64` matrix.

use crate::{LinalgError, Result};
use std::fmt;

/// A dense, row-major matrix of `f64` values.
///
/// The crowd-assessment algorithms operate on small matrices (response
/// probability matrices of size `k ≤ 8`, triple covariance matrices of
/// size `l ≤ m/2`), so the representation is a flat `Vec<f64>` with no
/// stride tricks.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a row-major flat vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "flat data length must equal rows*cols"
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    /// Panics if rows have differing lengths or if `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * self.cols + col] = value;
    }

    /// Returns a borrowed view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `target` together with immutable row `other` — the
    /// split borrow a rank-1 row update needs (`row_target -= f ·
    /// row_other` is the LU elimination's inner kernel, and indexing
    /// through [`Matrix::get`]/[`Matrix::set`] there costs more than
    /// the arithmetic).
    ///
    /// # Panics
    /// Panics if either row is out of bounds or `target == other`.
    #[inline]
    pub fn row_pair_mut(&mut self, target: usize, other: usize) -> (&mut [f64], &[f64]) {
        assert!(
            target < self.rows && other < self.rows && target != other,
            "row pair ({target},{other}) out of bounds or aliased"
        );
        let cols = self.cols;
        if target > other {
            let (top, bottom) = self.data.split_at_mut(target * cols);
            (&mut bottom[..cols], &top[other * cols..(other + 1) * cols])
        } else {
            let (top, bottom) = self.data.split_at_mut(other * cols);
            (
                &mut top[target * cols..(target + 1) * cols],
                &bottom[..cols],
            )
        }
    }

    /// Copies column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column {c} out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// The raw row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the main diagonal as a vector.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Sum of the diagonal entries.
    pub fn trace(&self) -> f64 {
        self.diag().iter().sum()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree; use [`Matrix::try_matmul`]
    /// for a fallible variant.
    pub fn matmul(&self, rhs: &Self) -> Self {
        self.try_matmul(rhs).expect("matmul shape mismatch")
    }

    /// Fallible matrix product `self * rhs`.
    pub fn try_matmul(&self, rhs: &Self) -> Result<Self> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                rows_a: self.rows,
                cols_a: self.cols,
                rows_b: rhs.rows,
                cols_b: rhs.cols,
            });
        }
        let mut out = Self::zeros(self.rows, rhs.cols);
        // ikj loop order keeps the inner loop contiguous in both the
        // output row and the rhs row.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec shape mismatch");
        (0..self.rows).map(|i| crate::dot(self.row(i), v)).collect()
    }

    /// Applies `f` element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Self {
        self.map(|x| x * s)
    }

    /// Element-wise sum. Panics on shape mismatch.
    pub fn add_matrix(&self, rhs: &Self) -> Self {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Symmetrizes the matrix: `(A + Aᵀ)/2`.
    ///
    /// The sample moment products of Algorithm A3 are symmetric in
    /// expectation but not in finite samples; the k-ary estimator
    /// symmetrizes before eigendecomposition.
    pub fn symmetrize(&self) -> Result<Self> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(self.add_matrix(&self.transpose()).scale(0.5))
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Swaps rows `a` and `b` in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row swap out of bounds");
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (top, bottom) = self.data.split_at_mut(hi * self.cols);
        top[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut bottom[..self.cols]);
    }

    /// Returns a new matrix whose rows are permuted so that output row
    /// `i` equals input row `perm[i]`.
    pub fn permute_rows(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.rows, "permutation length mismatch");
        let mut out = Self::zeros(self.rows, self.cols);
        for (dst, &src) in perm.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Inverse via LU with partial pivoting. See [`crate::Lu`].
    pub fn inverse(&self) -> Result<Self> {
        crate::Lu::decompose(self)?.inverse()
    }

    /// Determinant via LU with partial pivoting.
    pub fn determinant(&self) -> Result<f64> {
        Ok(crate::Lu::decompose(self)?.determinant())
    }

    /// Solves `self * x = b` for a single right-hand side.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        crate::Lu::decompose(self)?.solve(b)
    }

    /// True if all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Element-wise approximate equality within `tol`.
    pub fn approx_eq(&self, rhs: &Self, tol: f64) -> bool {
        self.rows == rhs.rows
            && self.cols == rhs.cols
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  [")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:+.6}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
        assert!(!m.is_square());
    }

    #[test]
    fn identity_and_diagonal() {
        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        let d = Matrix::diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
        assert_eq!(d.diag(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_fn_matches_manual() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert!(c.approx_eq(&Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]), 1e-12));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = sample();
        let err = a.try_matmul(&sample()).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.5, -2.0], &[0.25, 9.0]]);
        assert!(a.matmul(&Matrix::identity(2)).approx_eq(&a, 0.0));
        assert!(Matrix::identity(2).matmul(&a).approx_eq(&a, 0.0));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[4.0, 3.0], &[2.0, 1.0]]);
        let five = Matrix::from_rows(&[&[5.0, 5.0], &[5.0, 5.0]]);
        assert!(a.add_matrix(&b).approx_eq(&five, 0.0));
        let doubled = Matrix::from_rows(&[&[2.0, 4.0], &[6.0, 8.0]]);
        assert!(a.scale(2.0).approx_eq(&doubled, 0.0));
    }

    #[test]
    fn symmetrize_averages_the_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let s = a.symmetrize().unwrap();
        assert_eq!(s.get(0, 1), 1.0);
        assert_eq!(s.get(1, 0), 1.0);
        assert!(sample().symmetrize().is_err());
    }

    #[test]
    fn swap_rows_in_place() {
        let mut m = sample();
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[4.0, 5.0, 6.0]);
        // Swapping with self is a no-op.
        let before = m.clone();
        m.swap_rows(1, 1);
        assert!(m.approx_eq(&before, 0.0));
    }

    #[test]
    fn permute_rows_reorders() {
        let m = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let p = m.permute_rows(&[2, 0, 1]);
        assert_eq!(p.col(0), vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn finite_check() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.all_finite());
        m.set(0, 1, f64::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_panics() {
        sample().get(2, 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    fn debug_formatting_contains_dims() {
        let s = format!("{:?}", sample());
        assert!(s.contains("2x3"));
    }
}
