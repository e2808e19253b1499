//! Free functions on `&[f64]` slices.
//!
//! The workspace passes joint-space commands around as plain slices; these
//! helpers keep that code free of hand-rolled loops.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Euclidean distance between two points.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Squared Euclidean distance — the paper's training distance
/// `d(c, ĉ) = Σ_k (c^k − ĉ^k)²` (used in eqs. 9 and 10).
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared_distance: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Element-wise linear interpolation `a + t (b − a)`.
///
/// # Panics
/// Panics if lengths differ.
pub fn lerp(a: &[f64], b: &[f64], t: f64) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "lerp: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + t * (y - x)).collect()
}

/// Element-wise sum of two slices.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise difference `a − b`.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Scales a slice into a new vector.
pub fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|x| x * s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distances() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(squared_distance(&[1.0, 1.0], &[2.0, 3.0]), 5.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = [0.0, 10.0];
        let b = [10.0, 20.0];
        assert_eq!(lerp(&a, &b, 0.0), a.to_vec());
        assert_eq!(lerp(&a, &b, 1.0), b.to_vec());
        assert_eq!(lerp(&a, &b, 0.5), vec![5.0, 15.0]);
    }

    #[test]
    fn elementwise_ops() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        assert_eq!(scale(&[1.0, -2.0], -2.0), vec![-2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
