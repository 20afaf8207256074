//! Statistics substrate for the `crowd-assess` workspace.
//!
//! Implements, from scratch, every statistical primitive the
//! crowd-assessment algorithms need:
//!
//! * the error function and the standard normal distribution
//!   (pdf / cdf / quantile) — confidence intervals are
//!   `estimate ± z_(1+c)/2 · deviation`,
//! * the **delta method** of the paper's Theorem 1: for
//!   `Y = f(X₁..X_k)` with `E[Xᵢ]=eᵢ`, `Cov(Xᵢ,Xⱼ)=cᵢⱼ` and local
//!   linearization `f(e+a) ≈ f(e) + Σ dᵢaᵢ`, the variance of `Y` is
//!   `dᵀ C d` and the c-confidence interval follows from normality,
//! * **minimum-variance linear combination** (the paper's Lemma 5):
//!   weights `A = C⁻¹𝟙 / ‖C⁻¹𝟙‖₁` minimizing `AᵀCA` subject to
//!   `ΣAᵢ = 1`, with ridge and uniform fallbacks,
//! * classical binomial proportion intervals (Wald, Wilson) for the
//!   gold-standard baseline,
//! * a nonparametric **percentile bootstrap** ([`Bootstrap`]) used by
//!   the test suite as an independent oracle against the delta-method
//!   intervals,
//! * streaming summaries (Welford) used throughout the experiment
//!   harness.

mod bootstrap;
mod delta;
mod erf;
mod interval;
mod minvar;
mod normal;
mod proportion;
mod summary;

pub use bootstrap::Bootstrap;
pub use delta::{delta_interval, delta_variance};
pub use erf::{erf, erfc};
pub use interval::ConfidenceInterval;
pub use minvar::{MinVarWeights, WeightPolicy, min_variance_weights};
pub use normal::{normal_cdf, normal_pdf, normal_quantile, two_sided_z};
pub use proportion::{wald_interval, wilson_interval};
pub use summary::{OnlineSummary, mean, sample_covariance, sample_variance};

/// Errors produced by statistical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A probability-typed argument fell outside `[0, 1]` (or outside
    /// `(0, 1)` where the boundary is meaningless).
    InvalidProbability {
        /// The offending value.
        value: f64,
        /// Name of the parameter for diagnostics.
        what: &'static str,
    },
    /// A negative variance was produced, typically because an assembled
    /// covariance matrix was not PSD.
    NegativeVariance {
        /// The computed (negative) variance.
        variance: f64,
    },
    /// Mismatched dimensions between gradient and covariance.
    DimensionMismatch {
        /// Gradient length.
        gradient: usize,
        /// Covariance side length.
        covariance: usize,
    },
    /// The covariance matrix could not be inverted even with ridge
    /// regularization.
    SingularCovariance,
    /// Not enough observations for the requested statistic.
    InsufficientData {
        /// Observations available.
        got: usize,
        /// Observations required.
        need: usize,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidProbability { value, what } => {
                write!(f, "invalid probability for {what}: {value}")
            }
            Self::NegativeVariance { variance } => {
                write!(f, "negative variance {variance} (covariance not PSD)")
            }
            Self::DimensionMismatch {
                gradient,
                covariance,
            } => {
                write!(
                    f,
                    "gradient length {gradient} does not match covariance side {covariance}"
                )
            }
            Self::SingularCovariance => write!(f, "covariance matrix is singular"),
            Self::InsufficientData { got, need } => {
                write!(f, "insufficient data: got {got}, need at least {need}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Result alias for statistical routines.
pub type Result<T> = std::result::Result<T, StatsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = StatsError::InvalidProbability {
            value: 1.5,
            what: "confidence",
        };
        assert!(e.to_string().contains("confidence"));
        assert!(
            StatsError::SingularCovariance
                .to_string()
                .contains("singular")
        );
        assert!(
            StatsError::NegativeVariance { variance: -0.1 }
                .to_string()
                .contains("-0.1")
        );
        assert!(
            StatsError::DimensionMismatch {
                gradient: 2,
                covariance: 3
            }
            .to_string()
            .contains("2")
        );
        assert!(
            StatsError::InsufficientData { got: 1, need: 2 }
                .to_string()
                .contains("need")
        );
    }
}
