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

use crowd_data::{AttemptPattern, CountsTensor};
use crowd_linalg::Matrix;

/// Builds the covariance matrix of the counts entries listed in
/// `entries` (tensor indices `(a, b, c)`).
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
