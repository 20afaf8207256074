//! Error type shared by all fallible linear-algebra routines.

use std::fmt;

/// Failure modes of the dense linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands have incompatible shapes; carries `(rows_a, cols_a,
    /// rows_b, cols_b)` of the offending operands.
    ShapeMismatch {
        /// Rows of the left operand.
        rows_a: usize,
        /// Columns of the left operand.
        cols_a: usize,
        /// Rows of the right operand.
        rows_b: usize,
        /// Columns of the right operand.
        cols_b: usize,
    },
    /// A square-only operation (inverse, determinant, eigen) was invoked
    /// on a rectangular matrix.
    NotSquare {
        /// Rows of the operand.
        rows: usize,
        /// Columns of the operand.
        cols: usize,
    },
    /// The matrix is singular (or numerically so) at the given pivot.
    Singular {
        /// Pivot index where elimination broke down.
        pivot: usize,
    },
    /// The Jacobi eigenvalue iteration failed to converge.
    NoConvergence {
        /// Number of sweeps/iterations attempted before giving up.
        iterations: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ShapeMismatch {
                rows_a,
                cols_a,
                rows_b,
                cols_b,
            } => write!(
                f,
                "shape mismatch: ({rows_a}x{cols_a}) is incompatible with ({rows_b}x{cols_b})"
            ),
            Self::NotSquare { rows, cols } => {
                write!(f, "operation requires a square matrix, got {rows}x{cols}")
            }
            Self::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at index {pivot})")
            }
            Self::NoConvergence { iterations } => {
                write!(
                    f,
                    "eigen iteration failed to converge after {iterations} iterations"
                )
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinalgError::ShapeMismatch {
            rows_a: 2,
            cols_a: 3,
            rows_b: 4,
            cols_b: 5,
        };
        assert!(e.to_string().contains("2x3"));
        assert!(e.to_string().contains("4x5"));
        let e = LinalgError::Singular { pivot: 1 };
        assert!(e.to_string().contains("singular"));
        let e = LinalgError::NotSquare { rows: 2, cols: 1 };
        assert!(e.to_string().contains("square"));
        let e = LinalgError::NoConvergence { iterations: 9 };
        assert!(e.to_string().contains("9"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            LinalgError::Singular { pivot: 0 },
            LinalgError::Singular { pivot: 0 }
        );
        assert_ne!(
            LinalgError::Singular { pivot: 0 },
            LinalgError::Singular { pivot: 1 }
        );
    }
}
