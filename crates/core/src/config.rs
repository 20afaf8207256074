//! Estimator configuration.

use crate::pairing::PairingStrategy;
use crowd_stats::WeightPolicy;

/// What to do when an agreement rate falls at or below 1/2, where the
/// inversion `f(a,b,c) = 1/2 − 1/2·sqrt((2a−1)(2b−1)/(2c−1))` is
/// singular (§III-E discusses this failure mode).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DegeneracyPolicy {
    /// Clamp `q̂` to `1/2 + epsilon` before inverting. Produces very
    /// wide (honest) intervals for near-spammer data instead of
    /// failing. Useful in production pipelines that must always emit
    /// an interval.
    Clamp {
        /// Distance from the singularity; must be positive.
        epsilon: f64,
    },
    /// Return [`crate::EstimateError::Degenerate`] — the paper's
    /// behaviour ("a minuscule probability that our algorithm fails
    /// due to a negative value occurring under the square root",
    /// §III-C). The m-worker estimator drops the offending triple
    /// rather than failing the whole evaluation; the default.
    #[default]
    Error,
}

/// Tuning knobs shared by the estimators. The defaults reproduce the
/// paper's experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorConfig {
    /// Handling of agreement rates at or below the 1/2 singularity.
    pub degeneracy: DegeneracyPolicy,
    /// Minimum number of common tasks for a worker pair to be usable
    /// (the paper requires ≥ 1).
    pub min_pair_overlap: usize,
    /// How per-triple estimates are combined in Algorithm A2
    /// (Lemma 5 minimum-variance weights vs. the uniform baseline of
    /// Figure 2c).
    pub weight_policy: WeightPolicy,
    /// How peers are split into pairs when forming triples (§III-C1).
    pub pairing: PairingStrategy,
    /// Upper bound on the number of triples formed per evaluated
    /// worker (`None` = the paper's behaviour: pair every usable
    /// peer). The greedy pairing takes the best-overlapped pairs
    /// first, so a cap keeps the most informative triples while
    /// bounding the evaluation's peer scope at `2·max_triples` workers
    /// — which in turn bounds every anchored view at `O(max_triples)`
    /// mask rows. This is the knob that makes per-worker evaluation
    /// cost independent of the fleet size; see
    /// [`EstimatorConfig::fleet`].
    pub max_triples: Option<usize>,
    /// If true, the k-ary sensitivities (Algorithm A3 step 6) also
    /// differentiate with respect to counts of tasks attempted by only
    /// two workers, which then enter Theorem 1's counts covariance. The
    /// paper perturbs only the all-three block; the extension is
    /// provided as an ablation.
    pub perturb_partial_counts: bool,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self {
            degeneracy: DegeneracyPolicy::default(),
            min_pair_overlap: 1,
            weight_policy: WeightPolicy::MinimumVariance,
            pairing: PairingStrategy::GreedyByOverlap,
            max_triples: None,
            perturb_partial_counts: false,
        }
    }
}

impl EstimatorConfig {
    /// Fleet-scale configuration: at most `max_triples` triples per
    /// evaluated worker (the best-overlapped pairs first), so both the
    /// covariance assembly (`O(max_triples²)` popcounts) and the
    /// anchored view memory (`2·max_triples` mask rows) are bounded
    /// regardless of how many workers the crowd holds. Interval widths
    /// saturate with the triple count anyway (Lemma 5 weights), so a
    /// modest cap trades negligible width for fleet-size independence.
    pub fn fleet(max_triples: usize) -> Self {
        Self {
            max_triples: Some(max_triples),
            ..Self::default()
        }
    }
    /// Paper-faithful configuration with uniform triple weights — the
    /// "No Optimization" arm of Figure 2(c).
    pub fn with_uniform_weights() -> Self {
        Self {
            weight_policy: WeightPolicy::Uniform,
            ..Self::default()
        }
    }

    /// Configuration that clamps degenerate agreement rates instead of
    /// failing, for pipelines that must always emit an interval.
    pub fn clamping() -> Self {
        Self {
            degeneracy: DegeneracyPolicy::Clamp { epsilon: 1e-3 },
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = EstimatorConfig::default();
        assert_eq!(c.min_pair_overlap, 1);
        assert_eq!(c.max_triples, None, "the paper pairs every peer");
        assert_eq!(c.weight_policy, WeightPolicy::MinimumVariance);
        assert!(!c.perturb_partial_counts);
        assert_eq!(c.degeneracy, DegeneracyPolicy::Error);
    }

    #[test]
    fn presets() {
        assert_eq!(
            EstimatorConfig::with_uniform_weights().weight_policy,
            WeightPolicy::Uniform
        );
        assert!(matches!(
            EstimatorConfig::clamping().degeneracy,
            DegeneracyPolicy::Clamp { .. }
        ));
        assert_eq!(EstimatorConfig::fleet(16).max_triples, Some(16));
    }
}
