//! Lemma 9: covariances of the counts-tensor entries.
//!
//! Tasks split into groups by *attempt pattern* (which of the three
//! workers responded). Counts within one group are multinomial over the
//! group's task total `n_g`, so
//!
//! ```text
//! Var(N_x)      =  N_x·(n_g − N_x) / n_g
//! Cov(N_x, N_y) = −N_x·N_y / n_g          (x ≠ y, same group)
//! Cov           =  0                      (different groups)
//! ```
//!
//! (The paper's printed lemma drops the minus sign of the cross term;
//! the multinomial covariance is negative — see DESIGN.md §5.)
//!
//! The matrix is therefore block diagonal, one `diag(v) − v·vᵀ/n_g`
//! block per pattern, and Theorem 1 never needs it densely:
//! [`CountsCovariance`] keeps only the entry counts, their patterns
//! and the group totals, and evaluates each quadratic form in
//! O(entries). The dense [`counts_covariance`] is the tests' oracle.

use crowd_data::{AttemptPattern, CountsTensor};
use crowd_linalg::Matrix;
use crowd_stats::{ConfidenceInterval, StatsError};

/// Lemma 9's covariance of the perturbed counts entries in compact
/// form: each entry's count `v_e` and attempt pattern `p(e)`, and each
/// pattern's group total `N_p`. For a gradient `g`,
///
/// ```text
/// gᵀΣg = Σ_p [ Σ_{e∈p} v_e·g_e² − (Σ_{e∈p} v_e·g_e)² / N_p ]
///      = Σ_p [ Σ_{e∈p} v_e·(g_e − ḡ_p)² + (N_p − Σ_{e∈p} v_e)·ḡ_p² ],
///   ḡ_p = Σ_{e∈p} v_e·g_e / N_p,
/// ```
///
/// evaluated in the second form, whose terms are non-negative (an
/// entry list without repeats never sums past its group's total), so
/// no cancellation eats the variance of a gradient that is nearly
/// constant within a group.
#[derive(Debug, Clone)]
pub(crate) struct CountsCovariance {
    values: Vec<f64>,
    patterns: Vec<u8>,
    totals: [f64; 8],
    /// The dense matrix's largest `|Σ_ij|` (for an entry list without
    /// repeats), which scales the negativity tolerance exactly as in
    /// `delta_variance`.
    max_abs: f64,
}

impl CountsCovariance {
    /// The covariance of the counts entries listed in `entries`
    /// (tensor indices `(a, b, c)`).
    pub(crate) fn new(counts: &CountsTensor, entries: &[(usize, usize, usize)]) -> Self {
        let patterns: Vec<u8> = entries
            .iter()
            .map(|&(a, b, c)| AttemptPattern::of(a, b, c).0)
            .collect();
        let values: Vec<f64> = entries
            .iter()
            .map(|&(a, b, c)| counts.get(a, b, c))
            .collect();
        // One tensor sweep per attempt pattern that has an entry.
        let mut swept: [Option<f64>; 8] = [None; 8];
        for &p in &patterns {
            swept[usize::from(p)].get_or_insert_with(|| counts.group_total(AttemptPattern(p)));
        }
        let totals = swept.map(|t| t.unwrap_or(0.0));
        // The dense matrix's largest entry is a diagonal one: off the
        // diagonal `v·v′/N ≤ v·(N − v)/N`, as `v′ ≤ N − v` for two
        // distinct entries of one group.
        let max_abs = values
            .iter()
            .zip(&patterns)
            .map(|(&v, &p)| {
                let n = totals[usize::from(p)];
                if n > 0.0 {
                    (v * (n - v) / n).abs()
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max);
        Self {
            values,
            patterns,
            totals,
            max_abs,
        }
    }

    /// Number of entries (the gradient length).
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Variance `gᵀΣg` of a derived variable with gradient `g`, with
    /// the semantics of `crowd_stats::delta_variance` on the dense
    /// matrix: a non-finite form (a NaN or infinite gradient entry,
    /// even on an empty group) is `NegativeVariance`, and a negative
    /// form is clamped to zero within the same tolerance and an error
    /// beyond it.
    pub(crate) fn variance(&self, gradient: &[f64]) -> crowd_stats::Result<f64> {
        if gradient.len() != self.len() {
            return Err(StatsError::DimensionMismatch {
                gradient: gradient.len(),
                covariance: self.len(),
            });
        }
        let mut weighted = [0.0; 8];
        let mut listed = [0.0; 8];
        let mut norm = 0.0;
        for ((&v, &p), &g) in self.values.iter().zip(&self.patterns).zip(gradient) {
            weighted[usize::from(p)] += v * g;
            listed[usize::from(p)] += v;
            norm += g * g;
        }
        let mut mean = [0.0; 8];
        let mut var = 0.0;
        for p in 0..8 {
            let n = self.totals[p];
            if n > 0.0 {
                mean[p] = weighted[p] / n;
                var += (n - listed[p]) * mean[p] * mean[p];
            }
        }
        for ((&v, &p), &g) in self.values.iter().zip(&self.patterns).zip(gradient) {
            if self.totals[usize::from(p)] > 0.0 {
                let d = g - mean[usize::from(p)];
                var += v * d * d;
            }
        }
        if !norm.is_finite() {
            // The dense product multiplies every gradient entry into
            // every row, so one non-finite entry poisons the form.
            var = f64::NAN;
        }
        if !var.is_finite() {
            return Err(StatsError::NegativeVariance { variance: var });
        }
        let tol = 1e-9 * norm.max(1.0) * self.max_abs.max(1.0);
        if var < -tol {
            return Err(StatsError::NegativeVariance { variance: var });
        }
        Ok(var.max(0.0))
    }

    /// Theorem 1's interval for a derived variable with the given
    /// point estimate and gradient.
    pub(crate) fn interval(
        &self,
        estimate: f64,
        gradient: &[f64],
        confidence: f64,
    ) -> crowd_stats::Result<ConfidenceInterval> {
        ConfidenceInterval::from_deviation(estimate, self.variance(gradient)?.sqrt(), confidence)
    }
}

/// Builds the dense covariance matrix of the counts entries listed in
/// `entries` (tensor indices `(a, b, c)`) — the reference the
/// estimators' compact form is tested against.
pub fn counts_covariance(counts: &CountsTensor, entries: &[(usize, usize, usize)]) -> Matrix {
    let patterns: Vec<AttemptPattern> = entries
        .iter()
        .map(|&(a, b, c)| AttemptPattern::of(a, b, c))
        .collect();
    // One tensor sweep per distinct attempt pattern, not per entry.
    let mut totals: [Option<f64>; 8] = [None; 8];
    let group_totals: Vec<f64> = patterns
        .iter()
        .map(|&p| *totals[usize::from(p.0)].get_or_insert_with(|| counts.group_total(p)))
        .collect();
    let values: Vec<f64> = entries
        .iter()
        .map(|&(a, b, c)| counts.get(a, b, c))
        .collect();

    let n = entries.len();
    let mut cov = Matrix::zeros(n, n);
    for i in 0..n {
        let ng = group_totals[i];
        if ng <= 0.0 {
            continue;
        }
        cov.set(i, i, values[i] * (ng - values[i]) / ng);
        for j in (i + 1)..n {
            if patterns[i] != patterns[j] {
                continue;
            }
            let c = -values[i] * values[j] / ng;
            cov.set(i, j, c);
            cov.set(j, i, c);
        }
    }
    cov
}

/// The entry list Algorithm A3 perturbs: the all-three-attempted block
/// `(1..=k)³`, optionally extended with the two-worker blocks.
pub fn perturbation_entries(arity: usize, include_partial: bool) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for a in 1..=arity {
        for b in 1..=arity {
            for c in 1..=arity {
                out.push((a, b, c));
            }
        }
    }
    if include_partial {
        for a in 1..=arity {
            for b in 1..=arity {
                out.push((a, b, 0));
                out.push((a, 0, b));
                out.push((0, a, b));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor_with(entries: &[((usize, usize, usize), f64)]) -> CountsTensor {
        let mut t = CountsTensor::zeros(2);
        for &((a, b, c), v) in entries {
            t.set(a, b, c, v);
        }
        t
    }

    #[test]
    fn within_group_multinomial_covariance() {
        // One group (all-three), total 100, two cells 30 and 70.
        let t = tensor_with(&[((1, 1, 1), 30.0), ((2, 2, 2), 70.0)]);
        let cov = counts_covariance(&t, &[(1, 1, 1), (2, 2, 2)]);
        assert!((cov.get(0, 0) - 30.0 * 70.0 / 100.0).abs() < 1e-12);
        assert!((cov.get(1, 1) - 70.0 * 30.0 / 100.0).abs() < 1e-12);
        assert!(
            (cov.get(0, 1) + 30.0 * 70.0 / 100.0).abs() < 1e-12,
            "cross term negative"
        );
        // Rank-deficient by construction: row sums are zero.
        assert!((cov.get(0, 0) + cov.get(0, 1)).abs() < 1e-12);
    }

    #[test]
    fn across_group_covariance_is_zero() {
        // (1,1,1) is all-three; (1,1,0) is the {w1,w2} pair group.
        let t = tensor_with(&[((1, 1, 1), 40.0), ((1, 1, 0), 10.0), ((2, 2, 0), 10.0)]);
        let cov = counts_covariance(&t, &[(1, 1, 1), (1, 1, 0), (2, 2, 0)]);
        assert_eq!(cov.get(0, 1), 0.0);
        assert_eq!(cov.get(0, 2), 0.0);
        // Within the pair group the multinomial structure holds.
        assert!((cov.get(1, 2) + 10.0 * 10.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_group_is_all_zero() {
        let t = CountsTensor::zeros(2);
        let cov = counts_covariance(&t, &[(1, 1, 1), (1, 2, 1)]);
        assert_eq!(cov.max_abs(), 0.0);
    }

    #[test]
    fn variance_matches_binomial_special_case() {
        // A cell holding the whole group has zero variance (the total
        // is fixed by conditioning on the group size).
        let t = tensor_with(&[((1, 2, 1), 25.0)]);
        let cov = counts_covariance(&t, &[(1, 2, 1)]);
        assert!(cov.get(0, 0).abs() < 1e-12);
    }

    #[test]
    fn entry_lists() {
        assert_eq!(perturbation_entries(2, false).len(), 8);
        assert_eq!(perturbation_entries(3, false).len(), 27);
        assert_eq!(perturbation_entries(2, true).len(), 8 + 12);
        // The paper set contains no zero index.
        assert!(
            perturbation_entries(4, false)
                .iter()
                .all(|&(a, b, c)| a > 0 && b > 0 && c > 0)
        );
    }

    /// The compact form is the dense oracle's quadratic form, to the
    /// last few ulps: random tensors (one attempt pattern left empty,
    /// other cells zero at random) and random gradients at arities
    /// 2–4, with the partial-counts entries off and on, over the
    /// estimators' entry lists and random subsets of them. The
    /// tolerance scale is the dense matrix's largest entry, bit for
    /// bit.
    #[test]
    fn compact_form_matches_dense_quadratic_form() {
        use crowd_stats::delta_variance;
        use rand::RngExt;
        let mut r = crowd_sim::rng(211);
        for k in 2..=4 {
            for include_partial in [false, true] {
                let entries = perturbation_entries(k, include_partial);
                for _ in 0..40 {
                    let empty = r.random_range(1u16..8);
                    let mut t = CountsTensor::zeros(k);
                    let cells: Vec<_> = t.entries().map(|(a, b, c, _)| (a, b, c)).collect();
                    for (a, b, c) in cells {
                        if u16::from(AttemptPattern::of(a, b, c).0) != empty
                            && r.random::<f64>() < 0.8
                        {
                            t.set(a, b, c, f64::from(r.random_range(0u32..60)));
                        }
                    }
                    // The estimators list whole groups; a random subset
                    // also exercises groups with unlisted counts.
                    let subset: Vec<_> = entries
                        .iter()
                        .copied()
                        .filter(|_| r.random::<f64>() < 0.7)
                        .collect();
                    for listed in [&entries, &subset] {
                        let compact = CountsCovariance::new(&t, listed);
                        let dense = counts_covariance(&t, listed);
                        assert_eq!(compact.max_abs.to_bits(), dense.max_abs().to_bits());
                        let g: Vec<f64> = (0..listed.len())
                            .map(|_| r.random_range(-1.0..1.0))
                            .collect();
                        let want = delta_variance(&g, &dense).unwrap();
                        let got = compact.variance(&g).unwrap();
                        assert!(
                            (got - want).abs() <= 1e-12 * want.abs(),
                            "k={k} partial={include_partial}: {got} vs dense {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_gradient_is_an_error_in_the_compact_form() {
        // (1,1,1) and (2,2,2) fill the all-three group; the partial
        // entries' groups are empty.
        let t = tensor_with(&[((1, 1, 1), 30.0), ((2, 2, 2), 70.0)]);
        let entries = perturbation_entries(2, true);
        let cov = CountsCovariance::new(&t, &entries);
        let mut g = vec![0.5; entries.len()];
        assert!(cov.variance(&g).unwrap() >= 0.0);
        for (slot, bad) in [
            (0, f64::NAN),
            (0, f64::INFINITY),
            (entries.len() - 1, f64::NAN),
        ] {
            g[slot] = bad;
            assert!(
                matches!(cov.variance(&g), Err(StatsError::NegativeVariance { variance }) if variance.is_nan()),
                "gradient entry {slot} = {bad}"
            );
            assert!(cov.interval(0.5, &g, 0.9).is_err());
            g[slot] = 0.5;
        }
        assert!(matches!(
            cov.variance(&[0.5]),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn covariance_is_psd_on_simulated_counts() {
        use crowd_data::{CountsTensor as CT, WorkerId};
        use crowd_sim::{KaryScenario, rng};
        let inst = KaryScenario::paper_default(2, 300, 0.9).generate(&mut rng(151));
        let counts = CT::from_matrix(inst.responses(), WorkerId(0), WorkerId(1), WorkerId(2));
        let entries = perturbation_entries(2, true);
        let cov = counts_covariance(&counts, &entries);
        let eig = crowd_linalg::symmetric_eigen(&cov).unwrap();
        assert!(
            eig.values.iter().all(|&l| l > -1e-8),
            "multinomial covariance must be PSD: {:?}",
            eig.values
        );
    }
}
