//! Property-based tests for the linear-algebra substrate.

use crowd_linalg::{Matrix, symmetric_eigen};
use proptest::prelude::*;

/// Strategy: a well-conditioned SPD matrix `BᵀB + I` of size 2..=5.
fn spd_matrix() -> impl Strategy<Value = Matrix> {
    (2usize..=5).prop_flat_map(|n| {
        proptest::collection::vec(-2.0f64..2.0, n * n).prop_map(move |data| {
            let b = Matrix::from_vec(n, n, data);
            let mut g = b.transpose().matmul(&b);
            for i in 0..n {
                let v = g.get(i, i) + 1.0;
                g.set(i, i, v);
            }
            g
        })
    })
}

/// Strategy: an arbitrary square matrix of size 2..=4 with bounded entries.
fn square_matrix() -> impl Strategy<Value = Matrix> {
    (2usize..=4).prop_flat_map(|n| {
        proptest::collection::vec(-3.0f64..3.0, n * n)
            .prop_map(move |data| Matrix::from_vec(n, n, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involutive(m in square_matrix()) {
        prop_assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_associates_with_identity(m in square_matrix()) {
        let id = Matrix::identity(m.rows());
        prop_assert!(m.matmul(&id).approx_eq(&m, 1e-12));
        prop_assert!(id.matmul(&m).approx_eq(&m, 1e-12));
    }

    #[test]
    fn transpose_of_product_is_reversed_product(a in square_matrix(), b in square_matrix()) {
        prop_assume!(a.rows() == b.rows());
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(left.approx_eq(&right, 1e-10));
    }

    #[test]
    fn lu_inverse_roundtrip(m in spd_matrix()) {
        let inv = m.inverse().unwrap();
        let id = Matrix::identity(m.rows());
        prop_assert!(m.matmul(&inv).approx_eq(&id, 1e-7));
    }

    #[test]
    fn lu_solve_solves(m in spd_matrix()) {
        let b: Vec<f64> = (0..m.rows()).map(|i| (i as f64) - 1.0).collect();
        let x = m.solve(&b).unwrap();
        let ax = m.matvec(&x);
        for (u, v) in ax.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn jacobi_reconstructs_and_is_orthonormal(spd in spd_matrix(), sq in square_matrix()) {
        let indefinite = sq.symmetrize().unwrap();
        for (m, definite) in [(spd, true), (indefinite, false)] {
            let e = symmetric_eigen(&m).unwrap();
            prop_assert!(e.reconstruct().approx_eq(&m, 1e-8));
            let vtv = e.vectors.transpose().matmul(&e.vectors);
            prop_assert!(vtv.approx_eq(&Matrix::identity(m.rows()), 1e-8));
            // SPD implies a strictly positive spectrum.
            if definite {
                prop_assert!(e.values.iter().all(|&v| v > 0.0));
            }
        }
    }

    #[test]
    fn jacobi_spectrum_sums_to_trace(spd in spd_matrix(), sq in square_matrix()) {
        for m in [spd, sq.symmetrize().unwrap()] {
            let e = symmetric_eigen(&m).unwrap();
            prop_assert!((e.values.iter().sum::<f64>() - m.trace()).abs() < 1e-8);
        }
    }

    #[test]
    fn determinant_equals_eigenvalue_product(m in spd_matrix()) {
        let det = m.determinant().unwrap();
        let e = symmetric_eigen(&m).unwrap();
        let prod: f64 = e.values.iter().product();
        // Compare in log space for stability.
        prop_assert!((det.ln() - prod.ln()).abs() < 1e-6);
    }

    #[test]
    fn row_permutation_preserves_multiset(m in square_matrix()) {
        let n = m.rows();
        let perm: Vec<usize> = (0..n).rev().collect();
        let p = m.permute_rows(&perm);
        for i in 0..n {
            prop_assert_eq!(p.row(i), m.row(n - 1 - i));
        }
    }
}
