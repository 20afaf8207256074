//! The one bit-identity oracle for assessment reports.
//!
//! Every served, streamed, sharded, cached or recovered report must
//! equal a serial evaluation of the same responses bit for bit. The
//! differential suites all decide that here: [`report_difference`]
//! for whole reports and [`row_difference`] for single rows. Both
//! return the first differing field as text, or `None`, so a caller
//! writes `assert_eq!(report_difference(&a, &b), None, "..")` or
//! `prop_assert_eq!(..)` and a failure names the field.
//!
//! Every field is compared. Floats compare by `to_bits`, so `0.0`
//! differs from `-0.0`, one ulp is a difference, and a NaN equals a
//! NaN with the same payload. Failures compare by worker and by
//! [`EstimateError`], whose float payloads compare by bits too.
//!
//! Test support only: workspace crates list `crowd_oracle` under
//! `[dev-dependencies]`, never as a normal or build dependency.
//!
//! ```
//! use crowd_core::{EstimateError, WorkerReport};
//! use crowd_data::WorkerId;
//! use crowd_oracle::report_difference;
//!
//! let mut a = WorkerReport::default();
//! a.failures.push((WorkerId(0), EstimateError::RequiresRegularData));
//! let mut b = a.clone();
//! assert_eq!(report_difference(&a, &b), None);
//! b.failures[0].1 = EstimateError::NoUsableTriples { worker: WorkerId(0) };
//! assert!(report_difference(&a, &b).unwrap().starts_with("failures[0].error"));
//! ```

use crowd_core::{
    EstimateError, KaryWorkerAssessment, Report, Result, WorkerAssessment, WorkerRow,
};
use crowd_linalg::Matrix;
use crowd_stats::{ConfidenceInterval, StatsError};
use std::fmt::Debug;

/// An assessment row the oracle compares field by field.
pub trait BitRow: WorkerRow {
    /// The first field in which `self` and `other` differ, named
    /// relative to the row (e.g. `interval.center`), or `None`.
    fn difference(&self, other: &Self) -> Option<String>;
}

/// The first difference between two one-worker outcomes (a row, or
/// the reason the worker could not be assessed), or `None` when they
/// are bit-identical.
pub fn row_difference<A: BitRow>(a: &Result<A>, b: &Result<A>) -> Option<String> {
    match (a, b) {
        (Ok(x), Ok(y)) => x.difference(y),
        (Err(x), Err(y)) => (!same_error(x, y)).then(|| format!("error: {x:?} vs {y:?}")),
        (x, y) => Some(format!("outcome: {x:?} vs {y:?}")),
    }
}

/// The first field in which reports `a` and `b` differ, or `None` when
/// they are bit-identical: every row field, both list lengths, and
/// each failure's worker and reason.
pub fn report_difference<A: BitRow>(a: &Report<A>, b: &Report<A>) -> Option<String> {
    for (i, (x, y)) in a.assessments.iter().zip(&b.assessments).enumerate() {
        if let Some(d) = x.difference(y) {
            return Some(format!("assessments[{i}] ({:?}).{d}", x.worker()));
        }
    }
    for (i, ((wx, ex), (wy, ey))) in a.failures.iter().zip(&b.failures).enumerate() {
        if let Some(d) = exact("worker", wx, wy) {
            return Some(format!("failures[{i}].{d}"));
        }
        if !same_error(ex, ey) {
            return Some(format!("failures[{i}].error: {ex:?} vs {ey:?}"));
        }
    }
    let lens = |r: &Report<A>| (r.assessments.len(), r.failures.len());
    exact("(assessments.len, failures.len)", &lens(a), &lens(b))
}

impl BitRow for WorkerAssessment {
    fn difference(&self, o: &Self) -> Option<String> {
        exact("worker", &self.worker, &o.worker)
            .or_else(|| interval(|| "interval".into(), &self.interval, &o.interval))
            .or_else(|| exact("triples_used", &self.triples_used, &o.triples_used))
            .or_else(|| {
                exact(
                    "weights_fell_back",
                    &self.weights_fell_back,
                    &o.weights_fell_back,
                )
            })
    }
}

impl BitRow for KaryWorkerAssessment {
    fn difference(&self, o: &Self) -> Option<String> {
        let (sel, o_sel) = (&self.selectivity, &o.selectivity);
        let (cis, o_cis) = (&self.intervals, &o.intervals);
        exact("worker", &self.worker, &o.worker)
            .or_else(|| matrix("v", &self.v, &o.v))
            .or_else(|| matrix("response_prob", &self.response_prob, &o.response_prob))
            .or_else(|| exact("selectivity.len", &sel.len(), &o_sel.len()))
            .or_else(|| floats(sel, o_sel, |i| format!("selectivity[{i}]")))
            .or_else(|| exact("intervals.len", &cis.len(), &o_cis.len()))
            .or_else(|| {
                (cis.iter().zip(o_cis).enumerate())
                    .find_map(|(i, (p, q))| interval(|| format!("intervals[{i}]"), p, q))
            })
            .or_else(|| exact("triples_used", &self.triples_used, &o.triples_used))
            .or_else(|| {
                exact(
                    "weights_fell_back",
                    &self.weights_fell_back,
                    &o.weights_fell_back,
                )
            })
    }
}

/// `field: a vs b` when `a != b`.
fn exact<T: PartialEq + Debug>(field: &str, a: &T, b: &T) -> Option<String> {
    (a != b).then(|| format!("{field}: {a:?} vs {b:?}"))
}

/// The first index at which two equal-length float slices differ in
/// any bit, described under the name `field(index)` gives it.
fn floats(a: &[f64], b: &[f64], field: impl Fn(usize) -> String) -> Option<String> {
    let i = a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())?;
    let (x, y) = (a[i], b[i]);
    Some(format!(
        "{}: {x:?} ({:#018x}) vs {y:?} ({:#018x})",
        field(i),
        x.to_bits(),
        y.to_bits()
    ))
}

fn interval(
    field: impl Fn() -> String,
    a: &ConfidenceInterval,
    b: &ConfidenceInterval,
) -> Option<String> {
    let names = ["center", "half_width", "confidence"];
    floats(
        &[a.center, a.half_width, a.confidence],
        &[b.center, b.half_width, b.confidence],
        |i| format!("{}.{}", field(), names[i]),
    )
}

fn matrix(field: &str, a: &Matrix, b: &Matrix) -> Option<String> {
    let (shape_a, shape_b) = ((a.rows(), a.cols()), (b.rows(), b.cols()));
    if shape_a != shape_b {
        return Some(format!("{field}.shape: {shape_a:?} vs {shape_b:?}"));
    }
    floats(a.as_slice(), b.as_slice(), |i| {
        format!("{field}[{}, {}]", i / shape_a.1, i % shape_a.1)
    })
}

/// [`EstimateError`] equality with its float payloads compared by bits
/// (derived `==` would call two identical NaN variances different).
fn same_error(a: &EstimateError, b: &EstimateError) -> bool {
    use EstimateError::Stats;
    use StatsError::{InvalidProbability, NegativeVariance};
    match (a, b) {
        (
            Stats(InvalidProbability { value: x, what: p }),
            Stats(InvalidProbability { value: y, what: q }),
        ) => x.to_bits() == y.to_bits() && p == q,
        (Stats(NegativeVariance { variance: x }), Stats(NegativeVariance { variance: y })) => {
            x.to_bits() == y.to_bits()
        }
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_data::WorkerId;

    fn ci(center: f64) -> ConfidenceInterval {
        ConfidenceInterval {
            center,
            half_width: 0.0,
            confidence: 0.9,
        }
    }

    fn binary() -> Report<WorkerAssessment> {
        let row = |w: u32, center: f64| WorkerAssessment {
            worker: WorkerId(w),
            interval: ci(center),
            triples_used: 3,
            weights_fell_back: false,
        };
        Report {
            assessments: vec![row(0, 0.1), row(2, 0.25)],
            failures: vec![(
                WorkerId(1),
                EstimateError::NoUsableTriples {
                    worker: WorkerId(1),
                },
            )],
        }
    }

    fn kary() -> Report<KaryWorkerAssessment> {
        let m = Matrix::from_rows(&[&[0.75, 0.25], &[0.125, 0.875]]);
        let row = KaryWorkerAssessment {
            worker: WorkerId(0),
            v: m.scale(0.5),
            response_prob: m,
            selectivity: vec![0.5, 0.0],
            intervals: (0..4).map(|i| ci(f64::from(i) / 8.0)).collect(),
            triples_used: 2,
            weights_fell_back: false,
        };
        let nan = StatsError::NegativeVariance { variance: f64::NAN };
        Report {
            assessments: vec![row],
            failures: vec![(WorkerId(1), EstimateError::Stats(nan))],
        }
    }

    /// Perturbs a copy of `base` and asserts the oracle names `field`
    /// (and that the row-level check agrees on the first row).
    fn names<A: BitRow + Clone>(
        base: &Report<A>,
        field: &str,
        perturb: impl FnOnce(&mut Report<A>),
    ) {
        assert_eq!(report_difference(base, base), None);
        let mut changed = base.clone();
        perturb(&mut changed);
        let diff = report_difference(base, &changed)
            .unwrap_or_else(|| panic!("{field}: perturbation went unnoticed"));
        assert!(diff.starts_with(field), "expected {field}, got {diff}");
        let first = |r: &Report<A>| Ok(r.assessments[0].clone());
        let row_changed = row_difference(&first(base), &first(&changed)).is_some();
        assert_eq!(row_changed, field.starts_with("assessments[0]"), "{field}");
    }

    #[test]
    fn every_binary_field_is_named() {
        let b = &binary();
        let row0 = "assessments[0] (WorkerId(0))";
        names(b, &format!("{row0}.worker"), |r| {
            r.assessments[0].worker = WorkerId(5)
        });
        names(b, &format!("{row0}.interval.center"), |r| {
            r.assessments[0].interval.center = 0.1f64.next_down()
        });
        names(b, "assessments[1] (WorkerId(2)).interval.center", |r| {
            r.assessments[1].interval.center = 0.25f64.next_up()
        });
        names(b, &format!("{row0}.interval.half_width"), |r| {
            r.assessments[0].interval.half_width = -0.0
        });
        names(b, &format!("{row0}.interval.confidence"), |r| {
            r.assessments[0].interval.confidence = 0.9f64.next_up()
        });
        names(b, &format!("{row0}.triples_used"), |r| {
            r.assessments[0].triples_used = 4
        });
        names(b, &format!("{row0}.weights_fell_back"), |r| {
            r.assessments[0].weights_fell_back = true
        });
        names(b, "(assessments.len, failures.len)", |r| {
            r.assessments.truncate(1)
        });
        names(b, "(assessments.len, failures.len)", |r| r.failures.clear());
        names(b, "failures[0].worker", |r| r.failures[0].0 = WorkerId(3));
        names(b, "failures[0].error", |r| {
            r.failures[0].1 = EstimateError::RequiresRegularData
        });
    }

    #[test]
    fn every_kary_field_is_named() {
        let k = &kary();
        let row0 = "assessments[0] (WorkerId(0))";
        names(k, &format!("{row0}.worker"), |r| {
            r.assessments[0].worker = WorkerId(5)
        });
        names(k, &format!("{row0}.v[1, 0]"), |r| {
            r.assessments[0].v.set(1, 0, 0.0625f64.next_up())
        });
        names(k, &format!("{row0}.v.shape"), |r| {
            r.assessments[0].v = Matrix::zeros(2, 3)
        });
        names(k, &format!("{row0}.response_prob[0, 1]"), |r| {
            r.assessments[0]
                .response_prob
                .set(0, 1, 0.25f64.next_down())
        });
        names(k, &format!("{row0}.selectivity[1]"), |r| {
            r.assessments[0].selectivity[1] = -0.0
        });
        names(k, &format!("{row0}.selectivity.len"), |r| {
            r.assessments[0].selectivity.push(0.5)
        });
        names(k, &format!("{row0}.intervals.len"), |r| {
            r.assessments[0].intervals.truncate(3)
        });
        names(k, &format!("{row0}.intervals[3].center"), |r| {
            r.assessments[0].intervals[3].center = 0.375f64.next_up()
        });
        names(k, &format!("{row0}.intervals[0].center"), |r| {
            r.assessments[0].intervals[0].center = -0.0
        });
        names(k, &format!("{row0}.intervals[2].half_width"), |r| {
            r.assessments[0].intervals[2].half_width = 0.0f64.next_up()
        });
        names(k, &format!("{row0}.intervals[1].confidence"), |r| {
            r.assessments[0].intervals[1].confidence = 0.95
        });
        names(k, &format!("{row0}.triples_used"), |r| {
            r.assessments[0].triples_used = 1
        });
        names(k, &format!("{row0}.weights_fell_back"), |r| {
            r.assessments[0].weights_fell_back = true
        });
        // The base failure carries a NaN variance, equal to itself by
        // bits; a sign-flipped NaN and a different reason both differ.
        names(k, "failures[0].error", |r| {
            r.failures[0].1 = EstimateError::Stats(StatsError::NegativeVariance {
                variance: -f64::NAN,
            })
        });
        names(k, "failures[0].error", |r| {
            r.failures[0].1 = EstimateError::Stats(StatsError::SingularCovariance)
        });
    }

    #[test]
    fn failed_outcomes_compare_by_reason() {
        let k = kary();
        let row = Ok(k.assessments[0].clone());
        let failed = Err(k.failures[0].1.clone());
        assert_eq!(row_difference(&failed, &failed.clone()), None);
        assert!(
            row_difference(&row, &failed)
                .unwrap()
                .starts_with("outcome")
        );
        let other = Err(EstimateError::RequiresRegularData);
        assert!(
            row_difference(&failed, &other)
                .unwrap()
                .starts_with("error")
        );
    }
}
