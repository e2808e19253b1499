//! Holt's linear exponential smoothing — one of the two §VII-C
//! future-work forecasters ("our future work will consider exponential
//! smoothing methods").
//!
//! Per coordinate, Holt maintains a level `ℓ` and a trend `b`:
//!
//! ```text
//! ℓ_i = α x_i + (1−α)(ℓ_{i−1} + b_{i−1})
//! b_i = β (ℓ_i − ℓ_{i−1}) + (1−β) b_{i−1}
//! ĉ_{i+1} = ℓ_i + b_i
//! ```
//!
//! Being recursive over the provided history it needs no training; `R`
//! only bounds how much history the recursion replays per forecast.

use crate::state::{require, MAX_WINDOW};
use crate::Forecaster;
use serde::{Deserialize, Serialize};

/// Holt double-exponential-smoothing forecaster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Holt {
    pub(crate) r: usize,
    pub(crate) dims: usize,
    /// Level smoothing factor `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Trend smoothing factor `β ∈ (0, 1]`.
    pub beta: f64,
}

impl Holt {
    /// Creates a Holt forecaster replaying the last `r` commands.
    ///
    /// # Panics
    /// Panics on `r < 2` (a trend needs two points) or factors outside
    /// `(0, 1]`.
    pub fn new(r: usize, dims: usize, alpha: f64, beta: f64) -> Self {
        let holt = Self {
            r,
            dims,
            alpha,
            beta,
        };
        holt.validate().unwrap_or_else(|reason| panic!("{reason}"));
        holt
    }

    /// The constructor's preconditions, for state that bypassed it.
    pub(crate) fn validate(&self) -> Result<(), String> {
        require(self.r >= 2, "Holt: R must be ≥ 2")?;
        require(
            self.r <= MAX_WINDOW,
            format!("Holt: R must be ≤ {MAX_WINDOW}"),
        )?;
        require(self.dims >= 1, "Holt: dims must be ≥ 1")?;
        require(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "Holt: alpha out of (0,1]",
        )?;
        require(
            self.beta > 0.0 && self.beta <= 1.0,
            "Holt: beta out of (0,1]",
        )
    }

    /// Sensible teleoperation defaults: responsive level, damped trend.
    pub fn default_teleop(r: usize, dims: usize) -> Self {
        Self::new(r, dims, 0.8, 0.3)
    }
}

impl Forecaster for Holt {
    fn forecast_into(
        &self,
        history: &crate::HistoryView<'_>,
        _scratch: &mut crate::ForecastScratch,
        out: &mut [f64],
    ) {
        assert!(
            history.len() >= self.r,
            "Holt: need {} commands, got {}",
            self.r,
            history.len()
        );
        assert_eq!(history.dims(), self.dims, "Holt: dimension mismatch");
        assert_eq!(out.len(), self.dims, "Holt: output dimension mismatch");
        let window = history.suffix(self.r);
        for (k, slot) in out.iter_mut().enumerate() {
            let mut level = window.row(0)[k];
            let mut trend = window.row(1)[k] - window.row(0)[k];
            for i in 1..self.r {
                let prev_level = level;
                level = self.alpha * window.row(i)[k] + (1.0 - self.alpha) * (level + trend);
                trend = self.beta * (level - prev_level) + (1.0 - self.beta) * trend;
            }
            *slot = level + trend;
        }
    }

    fn history_len(&self) -> usize {
        self.r
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn name(&self) -> &'static str {
        "Holt"
    }

    fn export_state(&self) -> Option<crate::ForecasterState> {
        Some(crate::ForecasterState::Holt(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extrapolates_a_perfect_ramp() {
        // On x_i = i the level/trend recursion locks on and predicts i+1.
        let h = Holt::new(6, 1, 0.9, 0.9);
        let hist: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let pred = h.forecast(&hist)[0];
        assert!((pred - 6.0).abs() < 0.2, "predicted {pred}");
    }

    #[test]
    fn constant_series_is_fixed_point() {
        let h = Holt::default_teleop(5, 2);
        let hist = vec![vec![0.4, -0.1]; 5];
        let pred = h.forecast(&hist);
        assert!((pred[0] - 0.4).abs() < 1e-9);
        assert!((pred[1] + 0.1).abs() < 1e-9);
    }

    #[test]
    fn beats_ma_on_trending_data() {
        // MA undershoots ramps (see ma.rs); Holt must not.
        let hist: Vec<Vec<f64>> = (0..8).map(|i| vec![0.01 * i as f64]).collect();
        let holt = Holt::default_teleop(8, 1).forecast(&hist)[0];
        let ma = crate::MovingAverage::new(8, 1).forecast(&hist)[0];
        let truth = 0.08;
        assert!((holt - truth).abs() < (ma - truth).abs());
    }

    #[test]
    #[should_panic(expected = "R must be ≥ 2")]
    fn rejects_tiny_window() {
        Holt::new(1, 1, 0.5, 0.5);
    }
}
