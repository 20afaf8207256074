//! Row permutation and sign disambiguation (Algorithm A3, step 6.d).
//!
//! The eigenvector basis recovered from the conditional moment matrix
//! determines `V₁ = S^{1/2}P₁` only up to row permutation and row
//! signs. Two facts break the ambiguity:
//!
//! * rows of `V₁` are nonnegative (probabilities scaled by a positive
//!   square root), so a row with negative sum has flipped sign;
//! * `P₁` is diagonally dominant per the model assumption
//!   `P[j,j] > P[j,j']`, so row `j`'s largest entry sits in column `j`.

use crowd_linalg::Matrix;

/// Flips the sign of every row whose sum is negative, in place.
pub fn fix_row_signs(m: &mut Matrix) {
    for r in 0..m.rows() {
        let sum: f64 = m.row(r).iter().sum();
        if sum < 0.0 {
            for v in m.row_mut(r) {
                *v = -*v;
            }
        }
    }
}

/// The paper's literal step 6.d: for each row `j` in order, find the
/// column of its largest element and swap row `j` with that row index.
pub fn align_rows_paper(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    let k = out.rows();
    for j in 0..k {
        let row = out.row(j);
        let jstar = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite entries"))
            .map(|(c, _)| c)
            .expect("non-empty row");
        out.swap_rows(j, jstar);
    }
    out
}

/// Greedy global assignment: repeatedly take the largest entry of the
/// matrix whose row and target position are both unassigned, and send
/// that row to that column's position. More robust than the in-order
/// swap when two rows share a dominant column; used as the default.
pub fn align_rows_greedy(m: &Matrix) -> Matrix {
    m.permute_rows(&greedy_assignment(m).0)
}

/// The assignment behind [`align_rows_greedy`]: `perm[pos]` is the row
/// sent to position `pos`.
///
/// `decided` lists, as flat `(winner, loser)` indices into `m`, the
/// comparisons the assignment turned on: each pick against every other
/// entry of its row and of its column that was still free when it was
/// made. Comparisons between entries that share neither a row nor a
/// column never change a greedy matching, and an entry blocked before
/// a pick was blocked by an earlier pick that beat it, so while every
/// listed comparison keeps its sign the permutation stays the same.
pub(crate) fn greedy_assignment(m: &Matrix) -> (Vec<usize>, Vec<(usize, usize)>) {
    let k = m.rows();
    let cols = m.cols().min(k);
    let mut entries: Vec<(usize, usize, f64)> = Vec::with_capacity(k * k);
    for r in 0..k {
        for c in 0..cols {
            entries.push((r, c, m.get(r, c)));
        }
    }
    entries.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite entries"));
    let mut row_for_pos: Vec<Option<usize>> = vec![None; k];
    let mut row_used = vec![false; k];
    let mut decided = Vec::new();
    let flat = |r: usize, c: usize| r * m.cols() + c;
    for (r, c, _) in entries {
        if !row_used[r] && row_for_pos[c].is_none() {
            for other in (0..cols).filter(|&o| o != c && row_for_pos[o].is_none()) {
                decided.push((flat(r, c), flat(r, other)));
            }
            for other in (0..k).filter(|&o| o != r && !row_used[o]) {
                decided.push((flat(r, c), flat(other, c)));
            }
            row_for_pos[c] = Some(r);
            row_used[r] = true;
        }
    }
    // Any leftovers (ties/degenerate) fill the remaining positions in
    // order.
    let mut spare: Vec<usize> = (0..k).filter(|&r| !row_used[r]).collect();
    let perm: Vec<usize> = row_for_pos
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| spare.remove(0)))
        .collect();
    (perm, decided)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_fix_flips_negative_rows() {
        let mut m = Matrix::from_rows(&[&[-0.6, -0.4], &[0.3, 0.7]]);
        fix_row_signs(&mut m);
        assert!(m.get(0, 0) > 0.0);
        assert!((m.get(0, 1) - 0.4).abs() < 1e-15);
        assert!((m.get(1, 1) - 0.7).abs() < 1e-15);
    }

    #[test]
    fn greedy_alignment_restores_scrambled_identityish() {
        // A diagonally-dominant matrix with rows shuffled.
        let target = Matrix::from_rows(&[&[0.8, 0.1, 0.1], &[0.2, 0.7, 0.1], &[0.05, 0.15, 0.8]]);
        let scrambled = target.permute_rows(&[2, 0, 1]);
        let aligned = align_rows_greedy(&scrambled);
        assert!(
            aligned.approx_eq(&target, 1e-12),
            "greedy failed: {aligned:?}"
        );
    }

    #[test]
    fn paper_alignment_restores_simple_shuffles() {
        let target = Matrix::from_rows(&[&[0.9, 0.1], &[0.25, 0.75]]);
        let scrambled = target.permute_rows(&[1, 0]);
        let aligned = align_rows_paper(&scrambled);
        assert!(aligned.approx_eq(&target, 1e-12));
    }

    #[test]
    fn greedy_handles_contested_columns() {
        // Both rows peak in column 0, but row 0 peaks harder; greedy
        // gives column 0 to row 0 and places row 1 at position 1.
        let m = Matrix::from_rows(&[&[0.9, 0.1], &[0.6, 0.4]]);
        let aligned = align_rows_greedy(&m);
        assert_eq!(aligned.row(0), &[0.9, 0.1]);
        assert_eq!(aligned.row(1), &[0.6, 0.4]);
        // ... even when presented in the conflicting order.
        let m = Matrix::from_rows(&[&[0.6, 0.4], &[0.9, 0.1]]);
        let aligned = align_rows_greedy(&m);
        assert_eq!(aligned.row(0), &[0.9, 0.1]);
        assert_eq!(aligned.row(1), &[0.6, 0.4]);
    }

    #[test]
    fn alignment_is_identity_on_aligned_input() {
        let m = Matrix::from_rows(&[&[0.7, 0.3], &[0.2, 0.8]]);
        assert!(align_rows_greedy(&m).approx_eq(&m, 0.0));
        assert!(align_rows_paper(&m).approx_eq(&m, 0.0));
    }
}
