//! Small vector helpers used across the workspace.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn l2_norm(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// Normalizes `v` to unit L2 norm in place; leaves the zero vector
/// untouched and returns the original norm.
pub fn normalize_l2(v: &mut [f64]) -> f64 {
    let n = l2_norm(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_unit() {
        let mut v = [3.0, 4.0];
        let n = normalize_l2(&mut v);
        assert!((n - 5.0).abs() < 1e-15);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = [0.0, 0.0];
        assert_eq!(normalize_l2(&mut v), 0.0);
        assert_eq!(v, [0.0, 0.0]);
    }
}
