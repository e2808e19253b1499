//! Descriptive statistics shared across the workspace.
//!
//! The paper reports trajectory errors as RMSE in millimetres; the dataset
//! quality-check stage (Table I) scans for outliers and gaps. Both live on
//! the primitives below.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `n`); 0 for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Root-mean-square error between two equal-length series.
///
/// # Panics
/// Panics if lengths differ.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rmse: length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (sum / a.len() as f64).sqrt()
}

/// Lag-`k` sample autocorrelation, in `[-1, 1]`.
///
/// Returns 0 when the series is too short or has zero variance.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    if xs.len() <= lag + 1 {
        return 0.0;
    }
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom <= 0.0 {
        return 0.0;
    }
    let num: f64 = xs[..xs.len() - lag]
        .iter()
        .zip(&xs[lag..])
        .map(|(a, b)| (a - m) * (b - m))
        .sum();
    num / denom
}

/// Linear-interpolation percentile, `q` in `[0, 100]`.
///
/// # Panics
/// Panics if `xs` is empty or `q` out of range.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&q), "percentile q out of range: {q}");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let t = pos - lo as f64;
        sorted[lo] * (1.0 - t) + sorted[hi] * t
    }
}

/// Welford running mean/variance accumulator.
///
/// Used by the experiment runner to aggregate the 40 seeded repetitions of
/// each Fig.-8 cell without storing every sample.
#[derive(Debug, Clone, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples pushed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n−1 denominator); 0 with fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_hand_checked() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_short_slices() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(autocorrelation(&[1.0], 1), 0.0);
    }

    #[test]
    fn rmse_identical_is_zero() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(rmse(&a, &a), 0.0);
    }

    #[test]
    fn rmse_constant_offset() {
        let a = [0.0, 0.0, 0.0];
        let b = [3.0, 3.0, 3.0];
        assert!((rmse(&a, &b) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_of_constant_is_zero() {
        assert_eq!(autocorrelation(&[5.0; 10], 1), 0.0);
    }

    #[test]
    fn autocorrelation_of_alternating_is_negative() {
        let xs: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(autocorrelation(&xs, 1) < -0.9);
    }

    #[test]
    fn autocorrelation_lag_zero_is_one() {
        let xs = [1.0, 3.0, 2.0, 5.0, 4.0];
        assert!((autocorrelation(&xs, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_endpoints_and_median() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
    }

    #[test]
    fn running_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - mean(&xs)).abs() < 1e-12);
        // Welford uses n−1; batch variance here uses n.
        let expected = variance(&xs) * xs.len() as f64 / (xs.len() - 1) as f64;
        assert!((r.variance() - expected).abs() < 1e-12);
    }
}
