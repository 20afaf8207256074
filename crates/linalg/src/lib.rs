//! Dense linear algebra substrate for the `crowd-assess` workspace.
//!
//! The crowd-assessment algorithms of Joglekar et al. (ICDE 2015) need
//! two dense kernels:
//!
//! * matrix inversion for the minimum-variance weight computation
//!   (Lemma 5: `A = C⁻¹𝟙 / ‖C⁻¹𝟙‖₁`),
//! * eigendecomposition of the symmetrized moment products
//!   `R₁₂R₃₂⁻¹R₃₁` (Lemma 7) and of the conditional moment matrices
//!   (Algorithm A3, step 6.c).
//!
//! The matrices involved are tiny (`k ≤ 8` for task arity, `l ≤ m/2`
//! triples), so the implementations favour robustness and clarity over
//! blocked performance: LU with partial pivoting (the `O(l³)` inverse
//! the paper's complexity bound assumes) and cyclic Jacobi for the
//! symmetric eigenproblems.
//!
//! Everything is `f64`; no external dependencies.
//!
//! # Example
//!
//! ```
//! use crowd_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let inv = a.inverse().unwrap();
//! let id = a.matmul(&inv);
//! assert!((id.get(0, 0) - 1.0).abs() < 1e-12);
//! assert!(id.get(0, 1).abs() < 1e-12);
//! ```

mod error;
mod jacobi;
mod lu;
mod matrix;
mod vector;

pub use error::LinalgError;
pub use jacobi::{SymmetricEigen, symmetric_eigen};
pub use lu::Lu;
pub use matrix::Matrix;
pub use vector::dot;

/// Workspace-wide tolerance used when deciding whether a pivot or an
/// eigenvalue is numerically zero.
pub const EPS: f64 = 1e-12;

/// Result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
