//! The delta method — the paper's Theorem 1.
//!
//! Given approximately normal inputs `X₁..X_k` with means `eᵢ` and
//! covariances `cᵢⱼ`, and a locally linear function
//! `f(e + a) ≈ f(e) + Σᵢ dᵢ aᵢ`, the derived variable
//! `Y = f(X₁..X_k)` satisfies
//!
//! ```text
//! E[Y]   = f(e₁..e_k)
//! Dev(Y) = sqrt( Σᵢ Σⱼ dᵢ dⱼ cᵢⱼ )
//! CI(Y, c) = [E[Y] − z_t·Dev(Y), E[Y] + z_t·Dev(Y)],  t = (1+c)/2
//! ```
//!
//! Every confidence interval in the paper — the 3-worker triangle
//! inversion, the m-worker triple aggregation, and the k-ary
//! `ProbEstimate` — is an instance of this computation with a different
//! gradient and covariance assembly.

use crate::{ConfidenceInterval, Result, StatsError};
use crowd_linalg::Matrix;

/// Variance of the linearized `Y = f(X)`: `dᵀ C d`.
///
/// Small negative values (within `tol`) caused by a non-PSD sample
/// covariance are clamped to zero; anything more negative is an error,
/// and so is a non-finite form (a NaN or infinite gradient or
/// covariance entry), which must not pass for a zero variance.
pub fn delta_variance(gradient: &[f64], covariance: &Matrix) -> Result<f64> {
    if covariance.rows() != gradient.len() || covariance.cols() != gradient.len() {
        return Err(StatsError::DimensionMismatch {
            gradient: gradient.len(),
            covariance: covariance.rows(),
        });
    }
    let mut var = 0.0;
    for (i, &di) in gradient.iter().enumerate() {
        if di == 0.0 {
            continue;
        }
        let row = covariance.row(i);
        var += di * crowd_linalg::dot(row, gradient);
    }
    if !var.is_finite() {
        return Err(StatsError::NegativeVariance { variance: var });
    }
    // Sample covariances assembled from plug-in estimates are not
    // guaranteed PSD; tolerate slightly negative quadratic forms.
    let scale: f64 = gradient.iter().map(|d| d * d).sum::<f64>().max(1.0);
    let tol = 1e-9 * scale * covariance.max_abs().max(1.0);
    if var < -tol {
        return Err(StatsError::NegativeVariance { variance: var });
    }
    Ok(var.max(0.0))
}

/// Full Theorem 1: point estimate + gradient + covariance → interval.
pub fn delta_interval(
    estimate: f64,
    gradient: &[f64],
    covariance: &Matrix,
    confidence: f64,
) -> Result<ConfidenceInterval> {
    let var = delta_variance(gradient, covariance)?;
    ConfidenceInterval::from_deviation(estimate, var.sqrt(), confidence)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_covariance_sums_squares() {
        let cov = Matrix::identity(3);
        let var = delta_variance(&[1.0, 2.0, 3.0], &cov).unwrap();
        assert!((var - 14.0).abs() < 1e-12);
    }

    #[test]
    fn correlated_inputs_change_variance() {
        // Var(X1 + X2) with correlation: 1 + 1 + 2*0.5 = 3.
        let cov = Matrix::from_rows(&[&[1.0, 0.5], &[0.5, 1.0]]);
        let var = delta_variance(&[1.0, 1.0], &cov).unwrap();
        assert!((var - 3.0).abs() < 1e-12);
        // Var(X1 - X2) = 1 + 1 - 2*0.5 = 1.
        let var = delta_variance(&[1.0, -1.0], &cov).unwrap();
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_gradient_gives_zero_variance() {
        let cov = Matrix::identity(2);
        assert_eq!(delta_variance(&[0.0, 0.0], &cov).unwrap(), 0.0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let cov = Matrix::identity(2);
        assert!(matches!(
            delta_variance(&[1.0, 2.0, 3.0], &cov),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn slightly_negative_clamps_but_large_negative_errors() {
        // A mildly indefinite "covariance" within tolerance.
        let cov = Matrix::from_rows(&[&[1.0, 1.0 + 1e-12], &[1.0 + 1e-12, 1.0]]);
        let v = delta_variance(&[1.0, -1.0], &cov).unwrap();
        assert_eq!(v, 0.0);
        // A grossly indefinite one must error.
        let bad = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            delta_variance(&[1.0, -1.0], &bad),
            Err(StatsError::NegativeVariance { .. })
        ));
    }

    #[test]
    fn non_finite_quadratic_form_is_an_error_not_a_zero_variance() {
        let nan_gradient = delta_variance(&[f64::NAN, 1.0], &Matrix::identity(2));
        assert!(
            matches!(nan_gradient, Err(StatsError::NegativeVariance { variance }) if variance.is_nan()),
            "{nan_gradient:?}"
        );
        let nan_cov = Matrix::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, 1.0]]);
        assert!(matches!(
            delta_variance(&[1.0, 1.0], &nan_cov),
            Err(StatsError::NegativeVariance { .. })
        ));
        let inf_gradient = delta_variance(&[f64::INFINITY, 0.0], &Matrix::identity(2));
        assert!(matches!(
            inf_gradient,
            Err(StatsError::NegativeVariance { .. })
        ));
        assert!(delta_interval(0.5, &[f64::NAN, 0.0], &Matrix::identity(2), 0.9).is_err());
    }

    #[test]
    fn interval_matches_manual_computation() {
        let cov = Matrix::from_rows(&[&[0.04]]);
        let ci = delta_interval(0.5, &[1.0], &cov, 0.95).unwrap();
        assert_eq!(ci.center, 0.5);
        assert!((ci.half_width - 1.959963984540054 * 0.2).abs() < 1e-8);
    }

    #[test]
    fn monte_carlo_validates_delta_method() {
        // Y = X1 * X2 with independent X1~N(2, 0.01), X2~N(3, 0.04).
        // Delta: Var ≈ (3)^2*0.01 + (2)^2*0.04 = 0.25.
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 200_000;
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x1 = 2.0 + 0.1 * standard_normal(&mut rng);
            let x2 = 3.0 + 0.2 * standard_normal(&mut rng);
            ys.push(x1 * x2);
        }
        let mean: f64 = ys.iter().sum::<f64>() / n as f64;
        let var: f64 = ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let cov = Matrix::diagonal(&[0.01, 0.04]);
        let predicted = delta_variance(&[3.0, 2.0], &cov).unwrap();
        assert!((mean - 6.0).abs() < 0.01, "mean {mean}");
        assert!(
            (var - predicted).abs() / predicted < 0.05,
            "var {var} vs {predicted}"
        );
    }

    /// Box-Muller standard normal for the Monte-Carlo test.
    fn standard_normal(rng: &mut impl rand::RngExt) -> f64 {
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}
