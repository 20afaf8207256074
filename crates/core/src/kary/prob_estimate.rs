//! The `ProbEstimate` procedure of Algorithm A3: point estimates of
//! `V_i = S_D^{1/2}·P_i` from a counts tensor, and their exact Jacobian
//! with respect to the counts.
//!
//! Theorem 1 needs only that Jacobian. [`prob_estimate_pass`] runs the
//! procedure once and keeps its intermediates and every branch it took;
//! [`BasePass::jacobian`] then differentiates the same steps in forward
//! mode, one k×k tangent per counts entry, with each branch held as the
//! base point decided it (Magnus, "On differentiating eigenvalues and
//! eigenvectors", 1985):
//!
//! * steps 1–3 are rational in the counts: the quotient rule,
//!   `d(R⁻¹) = −R⁻¹·dR·R⁻¹` and the product rule;
//! * step 4's square root `U₁ = M_s^{1/2}` by Daleckii–Krein,
//!   `dU₁ = E·(F ∘ (Eᵀ·dM_s·E))·Eᵀ` with `F_ij = 1/(√λᵢ + √λⱼ)`, which
//!   needs no eigengap;
//! * step 5's eigenvectors by first-order perturbation,
//!   `dvᵢ = Σ_{j≠i} (vⱼᵀ·dM'_s·vᵢ)/(λᵢ − λⱼ)·vⱼ`;
//! * step 6's sign flips and row permutation as the fixed linear maps
//!   the base point chose, and step 7 by the inverse and product rules.
//!
//! Where a hard switch of the procedure sits within a small counts step
//! of flipping, `ProbEstimate` is not locally linear and the Jacobian
//! pass declares the triple degenerate instead (see [`SWITCH_EPSILON`]).

use crate::kary::align::{fix_row_signs, greedy_assignment};
use crate::{EstimateError, Result};
use crowd_data::{AttemptPattern, CountsTensor};
use crowd_linalg::{Lu, Matrix, SymmetricEigen, symmetric_eigen};

/// Eigenvalues of the moment product below this (relative) floor mean
/// the second-moment matrix is numerically rank-deficient — the
/// situation the paper hits on WSD with arity 3 ("one of the matrix
/// rows has only zeros, making it non-invertible").
const EIGENVALUE_FLOOR: f64 = 1e-10;

/// A conditional moment matrix whose smallest adjacent eigengap falls
/// below this fraction of its spread does not identify `U` (steps 5–6).
const MIN_RELATIVE_GAP: f64 = 1e-8;

/// The counts step of the switch-margin test: the paper's "small ε,
/// say 0.01" (Algorithm A3 step 5). A hard switch of `ProbEstimate`
/// flips within `±SWITCH_EPSILON` of one counts entry, to first order,
/// when `|margin| ≤ SWITCH_EPSILON·|∂margin/∂entry|`; `ProbEstimate` is
/// then discontinuous there and Theorem 1 does not apply. The switches
/// are the sign test of each row sum, each comparison that decided the
/// row alignment, the order and gap tests of every used conditional
/// spectrum, the gap test of every conditional spectrum skipped as
/// tied, and the group-size and eigenvalue-floor tests.
const SWITCH_EPSILON: f64 = 0.01;

/// Largest first-order rotation, in radians, that a `±SWITCH_EPSILON`
/// counts step may give an eigenvector of a used conditional matrix:
/// `ε·|vⱼᵀ·dM'_s·vᵢ|/|λᵢ − λⱼ|`. The eigenvector's second derivative
/// grows as the square of that rate, so a central difference's forward
/// and backward slopes part by about `rotation²/ε`, which reaches one
/// unit near `√ε = 0.1`. On a census of 4,800 seeded triples (arity 2–4,
/// 50–1000 tasks, density 1.0 and 0.7), 0.15 is the bound at which this
/// test and the ±ε jump detector it replaces disagree least (5
/// instances; 12 at 0.1, 11 at 0.2).
const MAX_ROTATION: f64 = 0.15;

/// Point estimates of `V_i = S_D^{1/2}·P_i` for the three workers.
#[derive(Debug, Clone)]
pub struct ProbEstimate {
    /// `V₁, V₂, V₃` (k×k each).
    pub v: [Matrix; 3],
}

impl ProbEstimate {
    /// Row-normalizes `V_i` into the response-probability matrix
    /// `P̂_i` (each row of `V_i` is `sqrt(S_r)·P_i[r,·]`, so dividing by
    /// the row sum recovers the probabilities).
    pub fn response_probabilities(&self, worker_slot: usize) -> Matrix {
        let v = &self.v[worker_slot];
        let k = v.rows();
        Matrix::from_fn(k, k, |r, c| {
            let sum: f64 = v.row(r).iter().sum();
            if sum.abs() < 1e-12 {
                if r == c { 1.0 } else { 0.0 }
            } else {
                v.get(r, c) / sum
            }
        })
    }

    /// Estimated selectivity: row sums of the `V_i` estimate
    /// `sqrt(S_r)`; the three workers' estimates are averaged, squared
    /// and normalized.
    pub fn selectivity(&self) -> Vec<f64> {
        let k = self.v[0].rows();
        let mut s: Vec<f64> = (0..k)
            .map(|r| {
                let mean_root: f64 = self
                    .v
                    .iter()
                    .map(|v| v.row(r).iter().sum::<f64>())
                    .sum::<f64>()
                    / 3.0;
                (mean_root.max(0.0)).powi(2)
            })
            .collect();
        let total: f64 = s.iter().sum();
        if total > 0.0 {
            for x in s.iter_mut() {
                *x /= total;
            }
        } else {
            s = vec![1.0 / k as f64; k];
        }
        s
    }
}

/// Runs `ProbEstimate` on a counts tensor.
pub fn prob_estimate(counts: &CountsTensor) -> Result<ProbEstimate> {
    Ok(prob_estimate_pass(counts)?.estimate)
}

/// One run of `ProbEstimate` that keeps what its Jacobian needs: the
/// intermediate matrices of steps 2–7 and every branch the run took.
#[derive(Debug)]
pub(crate) struct BasePass {
    /// The point estimates, exactly as [`prob_estimate`] returns them.
    pub estimate: ProbEstimate,
    /// `n₁₂₃`.
    n123: f64,
    /// `d₁₂, d₂₃, d₃₁`.
    d: [f64; 3],
    r12: Matrix,
    r31: Matrix,
    r32: Matrix,
    r13: Matrix,
    r32_inv: Matrix,
    /// `R₁₂·R₃₂⁻¹`.
    r12_r32_inv: Matrix,
    /// Eigendecomposition of the symmetrized moment product (step 3).
    moment: SymmetricEigen,
    u1_inv: Matrix,
    u2_inv: Matrix,
    /// Task count of each `j₃` slice of the all-three block.
    n_j3: Vec<f64>,
    /// The conditional moment matrices steps 5–6 used, in `j₃` order.
    conds: Vec<Conditional>,
    /// The conditional moment matrices the gap-requiring pass skipped
    /// for a tied spectrum (empty when every `j₃` was tied and the
    /// fallback used them all).
    tied: Vec<Slice>,
    /// `V₁⁻ᵀ`.
    v1t_inv: Matrix,
}

/// One conditional moment matrix `M' = U₁⁻¹·R_c·U₂⁻¹` (step 5).
#[derive(Debug)]
struct Slice {
    /// Worker 3's response slot (1-based, as in the counts tensor).
    j3: usize,
    /// `R_c = R_{1,2|3=j₃}`.
    rc: Matrix,
    /// `U₁⁻¹·R_c`.
    u1_inv_rc: Matrix,
    /// Eigendecomposition of the symmetrized `M'`.
    eig: SymmetricEigen,
}

/// One conditional moment matrix that entered the step-6 average.
#[derive(Debug)]
struct Conditional {
    slice: Slice,
    /// `Uᵀ·U₁` before [`fix_row_signs`].
    raw: Matrix,
    /// `Uᵀ·U₁` after [`fix_row_signs`].
    fixed: Matrix,
    /// The greedy alignment: output row `pos` is `fixed` row `perm[pos]`.
    perm: Vec<usize>,
    /// The comparisons the alignment turned on (see
    /// [`greedy_assignment`]).
    decided: Vec<(usize, usize)>,
}

/// Runs `ProbEstimate` once, keeping the [`BasePass`].
pub(crate) fn prob_estimate_pass(counts: &CountsTensor) -> Result<BasePass> {
    let k = counts.arity();

    // Step 1: attempt-group sizes.
    let n123 = counts.n_all_three();
    if n123 < 1.0 {
        return Err(EstimateError::Degenerate {
            what: "no task was attempted by all three workers".into(),
        });
    }
    let d12 = n123 + counts.n_exactly_pair(AttemptPattern(0b011));
    let d23 = n123 + counts.n_exactly_pair(AttemptPattern(0b110));
    let d31 = n123 + counts.n_exactly_pair(AttemptPattern(0b101));

    // Step 2: response frequency matrices R_{i1,i2}[a,b] = P̂(w_i1 = a,
    // w_i2 = b), estimated over tasks both attempted.
    let r12 = Matrix::from_fn(k, k, |a, b| {
        (0..=k).map(|c| counts.get(a + 1, b + 1, c)).sum::<f64>() / d12
    });
    let r23 = Matrix::from_fn(k, k, |a, b| {
        (0..=k).map(|j| counts.get(j, a + 1, b + 1)).sum::<f64>() / d23
    });
    let r31 = Matrix::from_fn(k, k, |a, b| {
        (0..=k).map(|j| counts.get(b + 1, j, a + 1)).sum::<f64>() / d31
    });
    let r32 = r23.transpose();
    let r13 = r31.transpose();

    // Step 3: eigendecomposition of R₁₂·R₃₂⁻¹·R₃₁ = V₁ᵀV₁ (Lemma 7).
    let r32_inv = Lu::decompose(&r32)
        .map_err(|e| EstimateError::Numerical(format!("R32 inversion failed: {e}")))?
        .inverse()?;
    let r12_r32_inv = r12.matmul(&r32_inv);
    let m = r12_r32_inv.matmul(&r31);
    let moment = symmetric_eigen(&m.symmetrize()?)?;
    let lam_max = moment.values.first().copied().unwrap_or(0.0).max(1e-300);
    for &lam in &moment.values {
        if lam < EIGENVALUE_FLOOR * lam_max {
            return Err(EstimateError::Degenerate {
                what: format!("moment product is numerically singular (eigenvalue {lam})"),
            });
        }
    }

    // Step 4: U₁ = E·D^{1/2}·E⁻¹ (symmetric square root), U₂, U₃.
    let u1 = moment.map_spectrum(|lam| lam.max(0.0).sqrt());
    let u1_lu = Lu::decompose(&u1)
        .map_err(|e| EstimateError::Numerical(format!("U1 inversion failed: {e}")))?;
    let u1_inv = u1_lu.inverse()?;
    let u2 = u1_inv.matmul(&r12);
    let u2_inv = Lu::decompose(&u2)
        .map_err(|e| EstimateError::Numerical(format!("U2 inversion failed: {e}")))?
        .inverse()?;

    // Steps 5–6: recover the orthogonal factor U from each conditional
    // moment matrix and average the resulting V₁ estimates.
    //
    // A conditional matrix only identifies U when its eigenvalues
    // (the entries of column j₃ of P₃, Lemma 8) are distinct: exact
    // ties make the eigenvectors arbitrary within the tied subspace.
    // Exact ties occur for the paper's own arity-4 matrices, so a
    // first pass skips j₃ whose spectrum is (numerically) degenerate;
    // if every j₃ is degenerate we fall back to using them all, which
    // is the paper's literal behaviour.
    let n_j3: Vec<f64> = (1..=k)
        .map(|j3| {
            (1..=k)
                .flat_map(|a| (1..=k).map(move |b| (a, b)))
                .map(|(a, b)| counts.get(a, b, j3))
                .sum()
        })
        .collect();
    let run = |require_gap: bool| -> crate::Result<(Vec<Conditional>, Vec<Slice>)> {
        let mut conds = Vec::with_capacity(k);
        let mut tied = Vec::new();
        for j3 in 1..=k {
            let n = n_j3[j3 - 1];
            if n < 1.0 {
                continue;
            }
            let rc = Matrix::from_fn(k, k, |a, b| counts.get(a + 1, b + 1, j3) / n);
            // M' = U₁⁻ᵀ·R_c·U₂⁻¹ = Uᵀ·W·U / p(j₃): symmetric with
            // eigenvector basis Uᵀ (U₁ is symmetric, so U₁⁻ᵀ = U₁⁻¹).
            let u1_inv_rc = u1_inv.matmul(&rc);
            let m_cond = u1_inv_rc.matmul(&u2_inv);
            let Ok(eig) = symmetric_eigen(&m_cond.symmetrize()?) else {
                continue;
            };
            let slice = Slice {
                j3,
                rc,
                u1_inv_rc,
                eig,
            };
            if require_gap && !has_gap(&slice.eig.values) {
                tied.push(slice);
                continue;
            }
            let raw = slice.eig.vectors.transpose().matmul(&u1);
            let mut fixed = raw.clone();
            fix_row_signs(&mut fixed);
            let (perm, decided) = greedy_assignment(&fixed);
            conds.push(Conditional {
                slice,
                raw,
                fixed,
                perm,
                decided,
            });
        }
        Ok((conds, tied))
    };
    let (conds, tied) = {
        let (conds, tied) = run(true)?;
        if conds.is_empty() {
            run(false)?
        } else {
            (conds, tied)
        }
    };
    if conds.is_empty() {
        return Err(EstimateError::Degenerate {
            what: "no conditional moment matrix was usable (worker 3 responses too sparse)".into(),
        });
    }
    let mut v1_acc = Matrix::zeros(k, k);
    for cond in &conds {
        v1_acc = v1_acc.add_matrix(&cond.fixed.permute_rows(&cond.perm));
    }
    let v1 = v1_acc.scale(1.0 / conds.len() as f64);

    // Step 7: V₂ = V₁⁻ᵀ·R₁₂, V₃ = V₁⁻ᵀ·R₁₃.
    let v1t_inv = Lu::decompose(&v1.transpose())
        .map_err(|e| EstimateError::Numerical(format!("V1 inversion failed: {e}")))?
        .inverse()?;
    let v2 = v1t_inv.matmul(&r12);
    let v3 = v1t_inv.matmul(&r13);

    for (i, v) in [&v1, &v2, &v3].into_iter().enumerate() {
        if !v.all_finite() {
            return Err(EstimateError::Numerical(format!(
                "V{} contains non-finite entries",
                i + 1
            )));
        }
    }
    Ok(BasePass {
        estimate: ProbEstimate { v: [v1, v2, v3] },
        n123,
        d: [d12, d23, d31],
        r12,
        r31,
        r32,
        r13,
        r32_inv,
        r12_r32_inv,
        moment,
        u1_inv,
        u2_inv,
        n_j3,
        conds,
        tied,
        v1t_inv,
    })
}

/// The step-5 identifiability test: a descending spectrum with a
/// positive spread whose every adjacent gap is at least
/// [`MIN_RELATIVE_GAP`] of it.
fn has_gap(values: &[f64]) -> bool {
    let spread = values.first().unwrap_or(&0.0) - values.last().unwrap_or(&0.0);
    let min_gap = values
        .windows(2)
        .map(|w| w[0] - w[1])
        .fold(f64::INFINITY, f64::min);
    !(spread.is_nan() || spread <= 0.0 || min_gap < gap_threshold(spread))
}

/// The smallest admissible adjacent eigengap for a spectrum of the
/// given spread.
fn gap_threshold(spread: f64) -> f64 {
    MIN_RELATIVE_GAP * spread.max(1e-12)
}

/// Reusable tangent buffers for [`BasePass::jacobian`]: plain k×k
/// row-major buffers, sized on first use and re-used across the
/// triples of one evaluation. Scratch state never influences outputs.
#[derive(Debug, Default)]
pub(crate) struct JacobianScratch {
    slots: [Vec<f64>; 14],
}

/// `out = α·a·b + β·out` on row-major k×k slices; `β = 0` ignores what
/// `out` held. The arities the paper evaluates get their own unrolled
/// copy of the kernel.
fn gemm(k: usize, alpha: f64, a: &[f64], b: &[f64], beta: f64, out: &mut [f64]) {
    match k {
        2 => gemm_kernel(2, alpha, a, b, beta, out),
        3 => gemm_kernel(3, alpha, a, b, beta, out),
        4 => gemm_kernel(4, alpha, a, b, beta, out),
        _ => gemm_kernel(k, alpha, a, b, beta, out),
    }
}

#[inline(always)]
fn gemm_kernel(k: usize, alpha: f64, a: &[f64], b: &[f64], beta: f64, out: &mut [f64]) {
    let (a, b, out) = (&a[..k * k], &b[..k * k], &mut out[..k * k]);
    for r in 0..k {
        for c in 0..k {
            let mut s = 0.0;
            for t in 0..k {
                s += a[r * k + t] * b[t * k + c];
            }
            let o = &mut out[r * k + c];
            *o = if beta == 0.0 {
                alpha * s
            } else {
                alpha * s + beta * *o
            };
        }
    }
}

/// `out = mᵀ` on row-major k×k slices.
fn transpose_into(k: usize, m: &[f64], out: &mut [f64]) {
    for r in 0..k {
        for c in 0..k {
            out[c * k + r] = m[r * k + c];
        }
    }
}

/// Tangent of a frequency matrix `R = N / d` along one counts entry:
/// `(E_hit − R)/d` when the entry feeds `N` at flat index `hit` (and
/// with it the total `d`), zero otherwise.
fn ratio_tangent(out: &mut [f64], r: &Matrix, total: f64, hit: Option<usize>) {
    match hit {
        Some(h) => {
            for (i, (o, &x)) in out.iter_mut().zip(r.as_slice()).enumerate() {
                *o = (indicator(i == h) - x) / total;
            }
        }
        None => out.fill(0.0),
    }
}

/// True when a hard switch whose margin is `margin`, moving at `slope`
/// per count, would flip within `±SWITCH_EPSILON` counts to first
/// order.
fn flips(margin: f64, slope: f64) -> bool {
    margin.abs() <= SWITCH_EPSILON * slope.abs()
}

/// The tangents of steps 2–4 along one counts entry, which every
/// conditional matrix's tangent reads.
struct SharedTangents<'a> {
    /// `dU₁⁻¹`.
    du1_inv: &'a [f64],
    /// `dU₂⁻¹`.
    du2_inv: &'a [f64],
    /// Flat index of `R_c`'s entry the direction hits, with its slot
    /// `j₃`, if it lies in the all-three block.
    hit: Option<(usize, usize)>,
}

/// Per-triple constants of one conditional matrix's tangent map.
struct SliceConsts {
    /// `R_c·U₂⁻¹`.
    rc_u2_inv: Matrix,
    /// `M' = U₁⁻¹·R_c·U₂⁻¹`.
    m_cond: Matrix,
    /// `Vᵀ`, the transposed eigenvectors.
    v_t: Matrix,
}

impl SliceConsts {
    fn new(slice: &Slice, u2_inv: &Matrix) -> Self {
        Self {
            rc_u2_inv: slice.rc.matmul(u2_inv),
            m_cond: slice.u1_inv_rc.matmul(u2_inv),
            v_t: slice.eig.vectors.transpose(),
        }
    }
}

impl BasePass {
    /// The exact Jacobian of `ProbEstimate` at this base point, in
    /// forward mode: `out[i][r·k + c][e] = ∂V_i[r,c]/∂counts[entries[e]]`.
    ///
    /// Every tangent direction runs through steps 2–7 with every branch
    /// held as the base pass took it. Theorem 1 needs `ProbEstimate` to
    /// be locally linear, so the same pass tests each hard switch of
    /// the procedure (see [`SWITCH_EPSILON`] and [`MAX_ROTATION`]) and
    /// declares the triple [`EstimateError::Degenerate`] when one sits
    /// within a counts step of flipping.
    pub(crate) fn jacobian(
        &self,
        entries: &[(usize, usize, usize)],
        scratch: &mut JacobianScratch,
    ) -> Result<[Vec<Vec<f64>>; 3]> {
        let k = self.estimate.v[0].rows();
        let kk = k * k;
        for slot in &mut scratch.slots {
            slot.resize(kk, 0.0);
        }
        let [
            dr12,
            dr31,
            dr32,
            dr13,
            dm,
            dms,
            du1,
            du1_inv,
            du2_inv,
            dw,
            rot,
            draw,
            dacc,
            t,
        ] = &mut scratch.slots;

        // Per-triple constants of the tangent maps.
        let b = self.r32_inv.matmul(&self.r31);
        let e_vecs = self.moment.vectors.as_slice();
        let e_vecs_t = self.moment.vectors.transpose();
        let roots: Vec<f64> = self
            .moment
            .values
            .iter()
            .map(|l| l.max(0.0).sqrt())
            .collect();
        let lam_max = self
            .moment
            .values
            .first()
            .copied()
            .unwrap_or(0.0)
            .max(1e-300);
        let cond_consts: Vec<SliceConsts> = self
            .conds
            .iter()
            .map(|c| SliceConsts::new(&c.slice, &self.u2_inv))
            .collect();
        let tied_consts: Vec<SliceConsts> = self
            .tied
            .iter()
            .map(|s| SliceConsts::new(s, &self.u2_inv))
            .collect();
        let inv_used = 1.0 / self.conds.len() as f64;

        let mut out: [Vec<Vec<f64>>; 3] =
            std::array::from_fn(|_| vec![vec![0.0; entries.len()]; kk]);
        for (e, &(a, bb, c)) in entries.iter().enumerate() {
            let degenerate = |what: String| EstimateError::Degenerate {
                what: format!(
                    "ProbEstimate {what} within ±{SWITCH_EPSILON} counts of counts[{a}][{bb}][{c}]"
                ),
            };
            let pair = |x: usize, y: usize| (x > 0 && y > 0).then(|| (x - 1) * k + (y - 1));
            let all_three = a > 0 && bb > 0 && c > 0;
            if flips(self.n123 - 1.0, indicator(all_three)) {
                return Err(degenerate(
                    "drops its all-three group below one task".into(),
                ));
            }
            for (j3, &n) in (1..=k).zip(&self.n_j3) {
                if flips(n - 1.0, indicator(all_three && c == j3)) {
                    return Err(degenerate(format!("toggles the j₃ = {j3} slice")));
                }
            }

            // Step 2: R = N/d differentiates by the quotient rule.
            let [d12, d23, d31] = self.d;
            ratio_tangent(dr12, &self.r12, d12, pair(a, bb));
            ratio_tangent(dr32, &self.r32, d23, pair(c, bb));
            ratio_tangent(dr31, &self.r31, d31, pair(c, a));
            ratio_tangent(dr13, &self.r13, d31, pair(a, c));

            // Step 3: with A = R₁₂R₃₂⁻¹ and B = R₃₂⁻¹R₃₁,
            // dM = dR₁₂·B + A·(dR₃₁ − dR₃₂·B), since
            // d(R₃₂⁻¹) = −R₃₂⁻¹·dR₃₂·R₃₂⁻¹; symmetrizing is linear.
            t.copy_from_slice(dr31);
            gemm(k, -1.0, dr32, b.as_slice(), 1.0, t);
            gemm(k, 1.0, self.r12_r32_inv.as_slice(), t, 0.0, dm);
            gemm(k, 1.0, dr12, b.as_slice(), 1.0, dm);
            symmetrize_into(k, dm, dms);

            // Step 4: U₁ = M_s^{1/2} by Daleckii–Krein,
            // dU₁ = E·(F ∘ (Eᵀ·dM_s·E))·Eᵀ with F_ij = 1/(√λᵢ + √λⱼ).
            gemm(k, 1.0, e_vecs_t.as_slice(), dms, 0.0, t);
            gemm(k, 1.0, t, e_vecs, 0.0, dw);
            for (i, &lam) in self.moment.values.iter().enumerate() {
                let slope = dw[i * k + i] - EIGENVALUE_FLOOR * dw[0];
                if flips(lam - EIGENVALUE_FLOOR * lam_max, slope) {
                    return Err(degenerate(
                        "crosses the moment product's eigenvalue floor".into(),
                    ));
                }
            }
            for i in 0..k {
                for j in 0..k {
                    dw[i * k + j] /= roots[i] + roots[j];
                }
            }
            gemm(k, 1.0, e_vecs, dw, 0.0, t);
            gemm(k, 1.0, t, e_vecs_t.as_slice(), 0.0, du1);
            // dU₁⁻¹ = −U₁⁻¹·dU₁·U₁⁻¹; U₂ = U₁⁻¹·R₁₂, so
            // dU₂⁻¹ = −U₂⁻¹·(dU₁⁻¹·R₁₂ + U₁⁻¹·dR₁₂)·U₂⁻¹.
            gemm(k, 1.0, self.u1_inv.as_slice(), du1, 0.0, t);
            gemm(k, -1.0, t, self.u1_inv.as_slice(), 0.0, du1_inv);
            gemm(k, 1.0, du1_inv, self.r12.as_slice(), 0.0, dm);
            gemm(k, 1.0, self.u1_inv.as_slice(), dr12, 1.0, dm);
            gemm(k, 1.0, self.u2_inv.as_slice(), dm, 0.0, t);
            gemm(k, -1.0, t, self.u2_inv.as_slice(), 0.0, du2_inv);
            let shared = SharedTangents {
                du1_inv,
                du2_inv,
                hit: if all_three {
                    pair(a, bb).map(|h| (h, c))
                } else {
                    None
                },
            };

            // A slice the gap-requiring pass skipped joins the average
            // once every tied adjacent pair of its spectrum splits past
            // the gap threshold. At a (near-)tie the pair's first-order
            // split rate is that of its 2×2 block of W,
            // √((W_ii − W_jj)² + 4·W_ij²).
            for (slice, consts) in self.tied.iter().zip(&tied_consts) {
                self.slice_tangent(slice, consts, &shared, dm, dms, t, dw);
                let lam = &slice.eig.values;
                let threshold = gap_threshold(lam[0] - lam[k - 1]);
                let splits = (0..k - 1)
                    .filter(|&i| lam[i] - lam[i + 1] < threshold)
                    .all(|i| {
                        let (wii, wjj, wij) =
                            (dw[i * k + i], dw[(i + 1) * k + i + 1], dw[i * k + i + 1]);
                        let rate = ((wii - wjj).powi(2) + 4.0 * wij * wij).sqrt();
                        flips(lam[i] - lam[i + 1] - threshold, rate)
                    });
                if splits {
                    return Err(degenerate(format!(
                        "splits the tied spectrum of the j₃ = {} conditional matrix",
                        slice.j3
                    )));
                }
            }

            // Steps 5–6, over the conditional matrices the base pass
            // used.
            dacc.fill(0.0);
            for (cond, consts) in self.conds.iter().zip(&cond_consts) {
                let j3 = cond.slice.j3;
                self.slice_tangent(&cond.slice, consts, &shared, dm, dms, t, dw);
                // dλᵢ = W_ii, and eigenvector i turns toward j at
                // W_ji/(λᵢ − λⱼ) per count.
                let lam = &cond.slice.eig.values;
                let spread = lam[0] - lam[k - 1];
                let d_spread = dw[0] - dw[kk - 1];
                let threshold = gap_threshold(spread);
                let d_threshold = if spread > 1e-12 {
                    MIN_RELATIVE_GAP * d_spread
                } else {
                    0.0
                };
                for i in 0..k - 1 {
                    let gap = lam[i] - lam[i + 1];
                    let d_gap = dw[i * k + i] - dw[(i + 1) * k + i + 1];
                    if flips(gap, d_gap) || flips(gap - threshold, d_gap - d_threshold) {
                        return Err(degenerate(format!(
                            "reorders the spectrum of the j₃ = {j3} conditional matrix"
                        )));
                    }
                }
                // rot = Cᵀ, C_ji = W_ji/(λᵢ − λⱼ) off the diagonal, so
                // that dV = V·C.
                for i in 0..k {
                    for j in 0..k {
                        let c_ji = if i == j {
                            0.0
                        } else {
                            dw[j * k + i] / (lam[i] - lam[j])
                        };
                        rot[i * k + j] = c_ji;
                        // A NaN rate (a 0/0 exact tie) fails the test too.
                        let rotation = SWITCH_EPSILON * c_ji.abs();
                        if rotation.is_nan() || rotation > MAX_ROTATION {
                            return Err(degenerate(format!(
                                "turns an eigenvector of the j₃ = {j3} conditional matrix by \
                                 more than {MAX_ROTATION} rad"
                            )));
                        }
                    }
                }
                // d(Vᵀ·U₁) = (V·C)ᵀ·U₁ + Vᵀ·dU₁ = Cᵀ·(Vᵀ·U₁) + Vᵀ·dU₁.
                gemm(k, 1.0, rot, cond.raw.as_slice(), 0.0, draw);
                gemm(k, 1.0, consts.v_t.as_slice(), du1, 1.0, draw);
                // The base pass's sign flips, then its permutation.
                for r in 0..k {
                    let row = r * k..(r + 1) * k;
                    let sum: f64 = cond.raw.row(r).iter().sum();
                    let d_sum: f64 = draw[row.clone()].iter().sum();
                    if flips(sum, d_sum) {
                        return Err(degenerate(format!(
                            "flips the sign of row {r} for j₃ = {j3}"
                        )));
                    }
                    if sum < 0.0 {
                        draw[row].iter_mut().for_each(|x| *x = -*x);
                    }
                }
                let fixed = cond.fixed.as_slice();
                for &(win, lose) in &cond.decided {
                    if flips(fixed[win] - fixed[lose], draw[win] - draw[lose]) {
                        return Err(degenerate(format!(
                            "reorders the row alignment for j₃ = {j3}"
                        )));
                    }
                }
                for (pos, &src) in cond.perm.iter().enumerate() {
                    for col in 0..k {
                        dacc[pos * k + col] += draw[src * k + col];
                    }
                }
            }

            // Step 7: dV₁ = dacc/used; with T = V₁⁻ᵀ,
            // dT = −T·dV₁ᵀ·T, dV₂ = dT·R₁₂ + T·dR₁₂, dV₃ = dT·R₁₃ + T·dR₁₃.
            dacc.iter_mut().for_each(|x| *x *= inv_used);
            let tinv = self.v1t_inv.as_slice();
            transpose_into(k, dacc, dms);
            gemm(k, 1.0, tinv, dms, 0.0, dm);
            gemm(k, -1.0, dm, tinv, 0.0, t);
            gemm(k, 1.0, t, self.r12.as_slice(), 0.0, dm);
            gemm(k, 1.0, tinv, dr12, 1.0, dm);
            gemm(k, 1.0, t, self.r13.as_slice(), 0.0, dms);
            gemm(k, 1.0, tinv, dr13, 1.0, dms);
            for (slot, tangent) in [&*dacc, &*dm, &*dms].into_iter().enumerate() {
                for (cell, &x) in tangent.iter().enumerate() {
                    if !x.is_finite() {
                        return Err(EstimateError::Numerical(format!(
                            "non-finite derivative of V{}[{cell}] along counts[{a}][{bb}][{c}]",
                            slot + 1
                        )));
                    }
                    out[slot][cell][e] = x;
                }
            }
        }
        Ok(out)
    }

    /// `W = Vᵀ·dM'_s·V` for one conditional matrix along the current
    /// direction, where
    /// `dM' = dU₁⁻¹·R_c·U₂⁻¹ + U₁⁻¹·dR_c·U₂⁻¹ + U₁⁻¹·R_c·dU₂⁻¹`.
    #[allow(clippy::too_many_arguments)]
    fn slice_tangent(
        &self,
        slice: &Slice,
        consts: &SliceConsts,
        shared: &SharedTangents<'_>,
        dm: &mut [f64],
        dms: &mut [f64],
        t: &mut [f64],
        w: &mut [f64],
    ) {
        let k = slice.rc.rows();
        gemm(k, 1.0, shared.du1_inv, consts.rc_u2_inv.as_slice(), 0.0, dm);
        gemm(k, 1.0, slice.u1_inv_rc.as_slice(), shared.du2_inv, 1.0, dm);
        if let Some((hit, j3)) = shared.hit
            && j3 == slice.j3
        {
            // dR_c = (E_hit − R_c)/n_j₃, so U₁⁻¹·dR_c·U₂⁻¹ is the outer
            // product of U₁⁻¹'s column and U₂⁻¹'s row at `hit`, less M',
            // over n_j₃.
            let n = self.n_j3[j3 - 1];
            let (x, y) = (hit / k, hit % k);
            for r in 0..k {
                for c in 0..k {
                    let outer = self.u1_inv.get(r, x) * self.u2_inv.get(y, c);
                    dm[r * k + c] += (outer - consts.m_cond.get(r, c)) / n;
                }
            }
        }
        symmetrize_into(k, dm, dms);
        gemm(k, 1.0, consts.v_t.as_slice(), dms, 0.0, t);
        gemm(k, 1.0, t, slice.eig.vectors.as_slice(), 0.0, w);
    }
}

/// `1.0` for true, `0.0` for false.
fn indicator(b: bool) -> f64 {
    if b { 1.0 } else { 0.0 }
}

/// `out = (m + mᵀ)/2` on a row-major k×k slice.
fn symmetrize_into(k: usize, m: &[f64], out: &mut [f64]) {
    for r in 0..k {
        for c in 0..k {
            out[r * k + c] = 0.5 * (m[r * k + c] + m[c * k + r]);
        }
    }
}

/// Builds the *population* counts tensor (expected counts for `n`
/// tasks, all attempted by all three workers) from true parameters.
/// Useful for exact-recovery tests and documentation examples.
///
/// # Example
///
/// `ProbEstimate` recovers the true response-probability matrices
/// exactly from population moments:
///
/// ```
/// use crowd_core::kary::{population_counts, prob_estimate};
///
/// let p = [
///     crowd_sim::paper_matrices(2)[0].clone(),
///     crowd_sim::paper_matrices(2)[1].clone(),
///     crowd_sim::paper_matrices(2)[2].clone(),
/// ];
/// let counts = population_counts(&p, &[0.5, 0.5], 10_000.0);
/// let est = prob_estimate(&counts)?;
/// assert!(est.response_probabilities(0).approx_eq(&p[0], 1e-5));
/// # Ok::<(), crowd_core::EstimateError>(())
/// ```
pub fn population_counts(p: &[Matrix; 3], selectivity: &[f64], n: f64) -> CountsTensor {
    let k = selectivity.len();
    let mut counts = CountsTensor::zeros(k);
    for a in 1..=k {
        for b in 1..=k {
            for c in 1..=k {
                let mut prob = 0.0;
                for (t, &s) in selectivity.iter().enumerate() {
                    prob += s * p[0].get(t, a - 1) * p[1].get(t, b - 1) * p[2].get(t, c - 1);
                }
                counts.set(a, b, c, n * prob);
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected_v(p: &Matrix, selectivity: &[f64]) -> Matrix {
        Matrix::from_fn(p.rows(), p.cols(), |r, c| {
            selectivity[r].sqrt() * p.get(r, c)
        })
    }

    /// Test oracle: the five-point central difference of
    /// [`prob_estimate`] along each counts entry, in the layout of
    /// [`BasePass::jacobian`]. Its truncation error is `O(ε⁴)`; the
    /// two-point stencil's `O(ε²)` term alone reaches 6e-6 of a cell's
    /// largest gradient at `ε = 1e-3` on sparse arity-4 tensors.
    fn central_difference(
        counts: &CountsTensor,
        entries: &[(usize, usize, usize)],
        eps: f64,
    ) -> [Vec<Vec<f64>>; 3] {
        let k = counts.arity();
        let mut out: [Vec<Vec<f64>>; 3] =
            std::array::from_fn(|_| vec![vec![0.0; entries.len()]; k * k]);
        let mut work = counts.clone();
        for (e, &(a, b, c)) in entries.iter().enumerate() {
            let mut at = |step: f64| {
                work.add(a, b, c, step);
                let v = prob_estimate(&work).unwrap().v;
                work.add(a, b, c, -step);
                v
            };
            let [p1, m1, p2, m2] = [eps, -eps, 2.0 * eps, -2.0 * eps].map(&mut at);
            for (i, grads) in out.iter_mut().enumerate() {
                for (cell, g) in grads.iter_mut().enumerate() {
                    let (r, col) = (cell / k, cell % k);
                    let d1 = p1[i].get(r, col) - m1[i].get(r, col);
                    let d2 = p2[i].get(r, col) - m2[i].get(r, col);
                    g[e] = (8.0 * d1 - d2) / (12.0 * eps);
                }
            }
        }
        out
    }

    #[test]
    fn forward_mode_jacobian_matches_central_difference() {
        use crate::kary::covariance::perturbation_entries;
        use crowd_data::WorkerId;
        use crowd_sim::{KaryScenario, rng};
        let mut scratch = JacobianScratch::default();
        for k in [2u16, 3, 4] {
            for n in [300, 2000] {
                for partial in [false, true] {
                    let scenario = KaryScenario::paper_default(k, n, 0.8);
                    let entries = perturbation_entries(k as usize, partial);
                    let mut checked = 0;
                    for seed in 0..6 {
                        let inst = scenario.generate(&mut rng(seed));
                        let counts = CountsTensor::from_matrix(
                            inst.responses(),
                            WorkerId(0),
                            WorkerId(1),
                            WorkerId(2),
                        );
                        let Ok(pass) = prob_estimate_pass(&counts) else {
                            continue;
                        };
                        let Ok(exact) = pass.jacobian(&entries, &mut scratch) else {
                            continue;
                        };
                        let oracle = central_difference(&counts, &entries, 1e-3);
                        for (i, (ex, or)) in exact.iter().zip(&oracle).enumerate() {
                            for (cell, (g, h)) in ex.iter().zip(or).enumerate() {
                                let scale = g.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                                for (e, (x, y)) in g.iter().zip(h).enumerate() {
                                    assert!(
                                        (x - y).abs() <= 1e-6 * scale,
                                        "k={k} n={n} partial={partial} seed={seed}: \
                                         dV{}[{cell}]/dcounts{:?} = {x} vs oracle {y}",
                                        i + 1,
                                        entries[e]
                                    );
                                }
                            }
                        }
                        checked += 1;
                    }
                    assert!(
                        checked >= 3,
                        "k={k} n={n}: only {checked} instances checked"
                    );
                }
            }
        }
    }

    #[test]
    fn recovers_truth_from_population_counts_arity2() {
        let p = [
            Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8]]),
            Matrix::from_rows(&[&[0.8, 0.2], &[0.1, 0.9]]),
            Matrix::from_rows(&[&[0.9, 0.1], &[0.1, 0.9]]),
        ];
        let s = [0.5, 0.5];
        let counts = population_counts(&p, &s, 10_000.0);
        let est = prob_estimate(&counts).unwrap();
        for i in 0..3 {
            let want = expected_v(&p[i], &s);
            assert!(
                est.v[i].approx_eq(&want, 1e-6),
                "V{} mismatch:\ngot {:?}\nwant {want:?}",
                i + 1,
                est.v[i]
            );
        }
    }

    #[test]
    fn recovers_truth_from_population_counts_arity3_skewed_selectivity() {
        let p = [
            Matrix::from_rows(&[&[0.6, 0.3, 0.1], &[0.1, 0.6, 0.3], &[0.3, 0.1, 0.6]]),
            Matrix::from_rows(&[&[0.8, 0.1, 0.1], &[0.2, 0.8, 0.0], &[0.0, 0.2, 0.8]]),
            Matrix::from_rows(&[&[0.9, 0.0, 0.1], &[0.1, 0.9, 0.0], &[0.0, 0.2, 0.8]]),
        ];
        let s = [0.5, 0.3, 0.2];
        let counts = population_counts(&p, &s, 10_000.0);
        let est = prob_estimate(&counts).unwrap();
        for i in 0..3 {
            let want = expected_v(&p[i], &s);
            assert!(
                est.v[i].approx_eq(&want, 1e-5),
                "V{} mismatch:\ngot {:?}\nwant {want:?}",
                i + 1,
                est.v[i]
            );
        }
        // Derived quantities.
        let sel = est.selectivity();
        for (got, want) in sel.iter().zip(&s) {
            assert!((got - want).abs() < 1e-5, "selectivity {sel:?}");
        }
        for i in 0..3 {
            let probs = est.response_probabilities(i);
            assert!(
                probs.approx_eq(&p[i], 1e-5),
                "P{} mismatch: {probs:?}",
                i + 1
            );
        }
    }

    #[test]
    fn recovers_truth_arity4() {
        let pool = crowd_sim::paper_matrices(4);
        let p = [pool[0].clone(), pool[1].clone(), pool[2].clone()];
        let s = [0.25, 0.25, 0.25, 0.25];
        let counts = population_counts(&p, &s, 100_000.0);
        let est = prob_estimate(&counts).unwrap();
        for i in 0..3 {
            let want = expected_v(&p[i], &s);
            assert!(
                est.v[i].approx_eq(&want, 1e-5),
                "V{} mismatch:\ngot {:?}\nwant {want:?}",
                i + 1,
                est.v[i]
            );
        }
    }

    #[test]
    fn empty_counts_rejected() {
        let counts = CountsTensor::zeros(2);
        assert!(matches!(
            prob_estimate(&counts),
            Err(EstimateError::Degenerate { .. })
        ));
    }

    #[test]
    fn rank_deficient_moments_rejected() {
        // All three workers always answer r0 regardless of truth:
        // the frequency matrices are rank 1 → singular.
        let mut counts = CountsTensor::zeros(2);
        counts.set(1, 1, 1, 50.0);
        let err = prob_estimate(&counts).unwrap_err();
        assert!(
            matches!(
                err,
                EstimateError::Degenerate { .. } | EstimateError::Numerical(_)
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn sampled_counts_approach_population_estimates() {
        use crowd_data::WorkerId;
        use crowd_sim::{KaryScenario, rng};
        let scenario = KaryScenario::paper_default(3, 4000, 1.0);
        let mut r = rng(149);
        let inst = scenario.generate(&mut r);
        let counts =
            CountsTensor::from_matrix(inst.responses(), WorkerId(0), WorkerId(1), WorkerId(2));
        let est = prob_estimate(&counts).unwrap();
        for i in 0..3u32 {
            let probs = est.response_probabilities(i as usize);
            let truth = inst.true_confusion(WorkerId(i));
            for r_ in 0..3 {
                for c in 0..3 {
                    assert!(
                        (probs.get(r_, c) - truth.get(r_, c)).abs() < 0.08,
                        "worker {i} P[{r_},{c}]: {} vs {}",
                        probs.get(r_, c),
                        truth.get(r_, c)
                    );
                }
            }
        }
    }
}
