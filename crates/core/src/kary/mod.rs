//! The k-ary estimator — Algorithm A3 (§IV-A).
//!
//! Workers have k×k response-probability matrices `P_i` and tasks a
//! selectivity prior `S`. From the counts tensor of a worker triple the
//! method recovers `V_i = S_D^{1/2}·P_i` by pure moment algebra:
//!
//! * second-order moments give `R_{i₁,i₂} = P_{i₁}ᵀ S_D P_{i₂}`
//!   (Lemma 6), so `R₁₂R₃₂⁻¹R₃₁ = V₁ᵀV₁` (Lemma 7) and a symmetric
//!   eigendecomposition yields `V₁` up to an orthogonal factor `U`;
//! * third-order moments conditioned on `w₃`'s response (Lemma 8)
//!   expose `U` as the eigenvector basis of `U₁⁻ᵀ R_{1,2|3=j₃} U₂⁻¹`,
//!   with the row permutation/sign ambiguity resolved by the
//!   diagonal-dominance assumption `P[j,j] > P[j,j']`;
//! * confidence intervals come from Theorem 1 with multinomial
//!   covariances of the counts (Lemma 9) and the exact sensitivities of
//!   the whole `ProbEstimate` pipeline, taken in one forward-mode pass
//!   over the base point's intermediates (Magnus, "On differentiating
//!   eigenvalues and eigenvectors", 1985).

mod align;
mod covariance;
mod estimator;
mod m_worker;
mod prob_estimate;

pub use align::{align_rows_greedy, align_rows_paper, fix_row_signs};
pub use covariance::counts_covariance;
pub use estimator::{KaryAssessment, KaryEstimator};
pub use m_worker::{KaryMWorkerEstimator, KaryWorkerAssessment, KaryWorkerReport};
pub use prob_estimate::{ProbEstimate, population_counts, prob_estimate};
