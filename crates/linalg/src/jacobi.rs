//! Cyclic Jacobi eigendecomposition for symmetric matrices.
//!
//! The k-ary estimator (Algorithm A3) eigendecomposes
//! `R₁₂R₃₂⁻¹R₃₁ = (S^{1/2}P₁)ᵀ(S^{1/2}P₁)`, which is symmetric
//! positive semi-definite in expectation. After symmetrizing the sample
//! estimate, cyclic Jacobi is the most robust solver for the tiny
//! (k ≤ 8) matrices involved: it always converges for symmetric input
//! and produces an orthonormal eigenvector basis, which the algorithm
//! relies on to recover the unitary mixing matrix `U` (Lemma 7).

use crate::{LinalgError, Matrix, Result};

/// Maximum number of full Jacobi sweeps before conceding failure.
const MAX_SWEEPS: usize = 100;

/// Eigendecomposition `A = V·diag(λ)·Vᵀ` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, sorted in descending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors; column `j` pairs with `values[j]`.
    pub vectors: Matrix,
}

impl SymmetricEigen {
    /// Reconstructs `V·diag(λ)·Vᵀ` (used by tests and cross-checks).
    pub fn reconstruct(&self) -> Matrix {
        let d = Matrix::diagonal(&self.values);
        self.vectors.matmul(&d).matmul(&self.vectors.transpose())
    }

    /// Returns `V·diag(f(λ))·Vᵀ`, e.g. the matrix square root with
    /// `f = sqrt` — exactly the `E·D^{1/2}·E⁻¹` of Algorithm A3 step 4.
    pub fn map_spectrum(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let d = Matrix::diagonal(&self.values.iter().map(|&v| f(v)).collect::<Vec<_>>());
        self.vectors.matmul(&d).matmul(&self.vectors.transpose())
    }
}

/// Computes the eigendecomposition of a symmetric matrix via the cyclic
/// Jacobi method.
///
/// Only the requirement that `a` is square is enforced; mild asymmetry
/// is tolerated by operating on the symmetrized part. The k-ary
/// estimator passes [`Matrix::symmetrize`]d moment products.
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let mut m = a.symmetrize()?;
    let mut v = Matrix::identity(n);

    if n <= 1 {
        return Ok(SymmetricEigen {
            values: m.diag(),
            vectors: v,
        });
    }

    let tol = 1e-14 * m.frobenius_norm().max(1.0);
    for sweep in 0..MAX_SWEEPS {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m.get(p, q).powi(2);
            }
        }
        if off.sqrt() <= tol {
            let _ = sweep;
            return Ok(sorted(m, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                // Classic Jacobi rotation angle selection.
                let theta = (aqq - app) / (2.0 * apq);
                let t = {
                    let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
                    sign / (theta.abs() + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // Apply the rotation to rows/columns p and q of M.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                // Accumulate the eigenvector rotation.
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    Err(LinalgError::NoConvergence {
        iterations: MAX_SWEEPS,
    })
}

/// Sorts eigenpairs by descending eigenvalue.
fn sorted(m: Matrix, v: Matrix) -> SymmetricEigen {
    let n = m.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let diag = m.diag();
    order.sort_by(|&a, &b| diag[b].partial_cmp(&diag[a]).expect("NaN eigenvalue"));
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        for r in 0..n {
            vectors.set(r, dst, v.get(r, src));
        }
    }
    SymmetricEigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_is_its_own_spectrum() {
        let a = Matrix::diagonal(&[3.0, 1.0, 2.0]);
        let e = symmetric_eigen(&a).unwrap();
        assert_eq!(e.values, vec![3.0, 2.0, 1.0]);
        assert!(e.reconstruct().approx_eq(&a, 1e-12));
    }

    #[test]
    fn known_2x2_spectrum() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.25], &[0.5, 0.25, 2.0]]);
        let e = symmetric_eigen(&a).unwrap();
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        assert!(vtv.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = Matrix::from_rows(&[&[5.0, -1.0, 2.0], &[-1.0, 6.0, 0.0], &[2.0, 0.0, 7.0]]);
        let e = symmetric_eigen(&a).unwrap();
        assert!(e.reconstruct().approx_eq(&a, 1e-10));
    }

    #[test]
    fn map_spectrum_square_root() {
        let a = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]);
        let e = symmetric_eigen(&a).unwrap();
        let root = e.map_spectrum(f64::sqrt);
        assert!(root.matmul(&root).approx_eq(&a, 1e-10));
    }

    #[test]
    fn psd_gram_matrix_has_nonnegative_spectrum() {
        let b = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, -1.0]]);
        let g = b.transpose().matmul(&b); // 3x3 PSD of rank 2
        let e = symmetric_eigen(&g).unwrap();
        assert!(e.values.iter().all(|&v| v > -1e-10));
        assert!(
            e.values[2].abs() < 1e-10,
            "rank-2 Gram must have a zero eigenvalue"
        );
    }

    #[test]
    fn trace_is_preserved() {
        let a = Matrix::from_rows(&[&[1.0, 0.3], &[0.3, 2.0]]);
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values.iter().sum::<f64>() - a.trace()).abs() < 1e-12);
    }

    #[test]
    fn one_by_one() {
        let e = symmetric_eigen(&Matrix::from_rows(&[&[42.0]])).unwrap();
        assert_eq!(e.values, vec![42.0]);
    }

    #[test]
    fn rectangular_rejected() {
        assert!(symmetric_eigen(&Matrix::zeros(2, 3)).is_err());
    }
}
