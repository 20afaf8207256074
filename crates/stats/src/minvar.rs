//! Minimum-variance linear combination — the paper's Lemma 5.
//!
//! Given `l` unbiased estimates of the same quantity with covariance
//! matrix `C`, the weights `A` minimizing `AᵀCA` subject to `ΣAᵢ = 1`
//! are `A = C⁻¹𝟙 / ‖C⁻¹𝟙‖₁`. Algorithm A2 uses this to combine the
//! per-triple error-rate estimates; Figure 2(c) shows the optimization
//! more than halves the interval size when triples differ in quality.

use crate::{Result, StatsError};
use crowd_linalg::{Lu, Matrix};

/// How to combine correlated estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightPolicy {
    /// Lemma 5 optimal weights with a ridge fallback (the paper's
    /// method; default).
    #[default]
    MinimumVariance,
    /// Equal weights `1/l` — the unoptimized baseline of Figure 2(c).
    Uniform,
}

/// The outcome of a weight computation.
#[derive(Debug, Clone)]
pub struct MinVarWeights {
    /// The weights; always sum to 1.
    pub weights: Vec<f64>,
    /// The variance `AᵀCA` of the combined estimate under those weights.
    pub variance: f64,
    /// True when the solver had to fall back (singular covariance →
    /// ridge → uniform).
    pub fell_back: bool,
}

/// Computes combination weights for estimates with covariance `c`.
///
/// For [`WeightPolicy::MinimumVariance`] this solves `C·B = 𝟙` and
/// normalizes `B` by its L1 norm, exactly as in Lemma 5 (the
/// normalization by the *signed sum* keeps `ΣAᵢ = 1`; negative weights
/// are legitimate for strongly correlated estimates). If `C` is
/// singular, a ridge `λI` with `λ = 1e-9·max|C|` is added; if that
/// still fails, uniform weights are returned with `fell_back = true`.
pub fn min_variance_weights(c: &Matrix, policy: WeightPolicy) -> Result<MinVarWeights> {
    if !c.is_square() {
        return Err(StatsError::DimensionMismatch {
            gradient: c.rows(),
            covariance: c.cols(),
        });
    }
    let l = c.rows();
    if l == 0 {
        return Err(StatsError::InsufficientData { got: 0, need: 1 });
    }
    let uniform = vec![1.0 / l as f64; l];
    if policy == WeightPolicy::Uniform || l == 1 {
        let variance = quadratic_form(c, &uniform)?;
        return Ok(MinVarWeights {
            weights: uniform,
            variance,
            fell_back: false,
        });
    }

    let ones = vec![1.0; l];
    let solve = |m: &Matrix| -> Option<Vec<f64>> {
        let lu = Lu::decompose(m).ok()?;
        let b = lu.solve(&ones).ok()?;
        let sum: f64 = b.iter().sum();
        if !sum.is_finite() || sum.abs() < 1e-300 {
            return None;
        }
        // Lemma 5 writes A = B / ‖B‖₁; dividing by the *signed* sum is
        // what actually enforces ΣA = 1 (and coincides with the L1 norm
        // when C⁻¹𝟙 is entrywise positive, the common case).
        Some(b.iter().map(|x| x / sum).collect())
    };

    if let Some(w) = solve(c)
        && let Ok(variance) = quadratic_form(c, &w)
    {
        return Ok(MinVarWeights {
            weights: w,
            variance,
            fell_back: false,
        });
    }
    // Ridge fallback.
    let lambda = 1e-9 * c.max_abs().max(1e-12);
    let mut ridged = c.clone();
    for i in 0..l {
        let v = ridged.get(i, i) + lambda;
        ridged.set(i, i, v);
    }
    if let Some(w) = solve(&ridged)
        && let Ok(variance) = quadratic_form(c, &w)
    {
        return Ok(MinVarWeights {
            weights: w,
            variance,
            fell_back: true,
        });
    }
    // Uniform fallback: valid for any finite covariance, just wider
    // (paper §III-D3).
    let variance = quadratic_form(c, &uniform)?;
    Ok(MinVarWeights {
        weights: uniform,
        variance,
        fell_back: true,
    })
}

/// `wᵀ C w`, clamped at zero against roundoff. A non-finite form (a
/// NaN or infinite entry) is an error: it must not pass for a zero
/// variance.
fn quadratic_form(c: &Matrix, w: &[f64]) -> Result<f64> {
    let mut var = 0.0;
    for (i, &wi) in w.iter().enumerate() {
        var += wi * crowd_linalg::dot(c.row(i), w);
    }
    if !var.is_finite() {
        return Err(StatsError::NegativeVariance { variance: var });
    }
    Ok(var.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_estimates_weight_by_precision() {
        // Var 1 and 4: optimal weights 4/5 and 1/5, variance 4/5.
        let c = Matrix::diagonal(&[1.0, 4.0]);
        let out = min_variance_weights(&c, WeightPolicy::MinimumVariance).unwrap();
        assert!((out.weights[0] - 0.8).abs() < 1e-12);
        assert!((out.weights[1] - 0.2).abs() < 1e-12);
        assert!((out.variance - 0.8).abs() < 1e-12);
        assert!(!out.fell_back);
    }

    #[test]
    fn weights_sum_to_one() {
        let c = Matrix::from_rows(&[&[2.0, 0.3, 0.1], &[0.3, 1.0, 0.2], &[0.1, 0.2, 3.0]]);
        let out = min_variance_weights(&c, WeightPolicy::MinimumVariance).unwrap();
        assert!((out.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn beats_or_ties_uniform() {
        let c = Matrix::from_rows(&[&[2.0, 0.3, 0.1], &[0.3, 1.0, 0.2], &[0.1, 0.2, 3.0]]);
        let opt = min_variance_weights(&c, WeightPolicy::MinimumVariance).unwrap();
        let uni = min_variance_weights(&c, WeightPolicy::Uniform).unwrap();
        assert!(opt.variance <= uni.variance + 1e-12);
    }

    #[test]
    fn uniform_policy_is_uniform() {
        let c = Matrix::diagonal(&[1.0, 100.0]);
        let out = min_variance_weights(&c, WeightPolicy::Uniform).unwrap();
        assert_eq!(out.weights, vec![0.5, 0.5]);
        assert!((out.variance - (1.0 + 100.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn equal_variances_give_equal_weights() {
        let c = Matrix::diagonal(&[2.0, 2.0, 2.0]);
        let out = min_variance_weights(&c, WeightPolicy::MinimumVariance).unwrap();
        for w in &out.weights {
            assert!((w - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn correlated_estimates_can_get_negative_weight() {
        // Strong positive correlation with unequal variances makes
        // shorting the noisy estimate optimal.
        let c = Matrix::from_rows(&[&[1.0, 1.9], &[1.9, 4.0]]);
        let out = min_variance_weights(&c, WeightPolicy::MinimumVariance).unwrap();
        assert!((out.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(
            out.weights[1] < 0.0,
            "expected negative weight, got {:?}",
            out.weights
        );
        let uni = min_variance_weights(&c, WeightPolicy::Uniform).unwrap();
        assert!(out.variance < uni.variance);
    }

    #[test]
    fn singular_covariance_falls_back() {
        let c = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let out = min_variance_weights(&c, WeightPolicy::MinimumVariance).unwrap();
        assert!(out.fell_back);
        assert!((out.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_finite_covariance_is_an_error_not_a_zero_variance() {
        let c = Matrix::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, 2.0]]);
        for policy in [WeightPolicy::MinimumVariance, WeightPolicy::Uniform] {
            let out = min_variance_weights(&c, policy);
            assert!(
                matches!(out, Err(StatsError::NegativeVariance { variance }) if variance.is_nan()),
                "{policy:?}: {out:?}"
            );
        }
        let single = min_variance_weights(&Matrix::diagonal(&[f64::NAN]), WeightPolicy::default());
        assert!(single.is_err(), "{single:?}");
    }

    #[test]
    fn single_estimate_is_trivial() {
        let c = Matrix::diagonal(&[0.7]);
        let out = min_variance_weights(&c, WeightPolicy::MinimumVariance).unwrap();
        assert_eq!(out.weights, vec![1.0]);
        assert!((out.variance - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_and_rectangular_rejected() {
        assert!(min_variance_weights(&Matrix::zeros(0, 0), WeightPolicy::default()).is_err());
        assert!(min_variance_weights(&Matrix::zeros(2, 3), WeightPolicy::default()).is_err());
    }

    #[test]
    fn optimality_against_random_perturbations() {
        // No weight vector summing to 1 should do better than Lemma 5.
        let c = Matrix::from_rows(&[&[1.5, 0.4, 0.0], &[0.4, 2.5, 0.6], &[0.0, 0.6, 1.0]]);
        let opt = min_variance_weights(&c, WeightPolicy::MinimumVariance).unwrap();
        let perturbations = [
            vec![0.5, 0.3, 0.2],
            vec![0.9, 0.05, 0.05],
            vec![0.2, 0.2, 0.6],
            vec![-0.1, 0.6, 0.5],
        ];
        for w in &perturbations {
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(quadratic_form(&c, w).unwrap() >= opt.variance - 1e-12);
        }
    }
}
