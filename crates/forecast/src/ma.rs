//! Moving-average forecaster — the paper's benchmark (eq. 8):
//! `ĉ_{i+1} = (1/R) Σ_{j=i−R+1..i} ĉ_j`.

use crate::state::{require, MAX_WINDOW};
use crate::Forecaster;
use serde::{Deserialize, Serialize};

/// Moving average over the last `R` commands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MovingAverage {
    r: usize,
    dims: usize,
}

impl MovingAverage {
    /// Creates an MA forecaster with window `r` for `dims`-dimensional
    /// commands.
    ///
    /// # Panics
    /// Panics if `r == 0` or `dims == 0`.
    pub fn new(r: usize, dims: usize) -> Self {
        let ma = Self { r, dims };
        ma.validate().unwrap_or_else(|reason| panic!("{reason}"));
        ma
    }

    /// The constructor's preconditions, for state that bypassed it.
    pub(crate) fn validate(&self) -> Result<(), String> {
        require(self.r >= 1, "MA: window must be ≥ 1")?;
        require(
            self.r <= MAX_WINDOW,
            format!("MA: window must be ≤ {MAX_WINDOW}"),
        )?;
        require(self.dims >= 1, "MA: dims must be ≥ 1")
    }
}

impl Forecaster for MovingAverage {
    fn forecast(&self, history: &[Vec<f64>]) -> Vec<f64> {
        assert!(
            history.len() >= self.r,
            "MA: need {} commands, got {}",
            self.r,
            history.len()
        );
        let window = &history[history.len() - self.r..];
        let mut mean = vec![0.0; self.dims];
        for cmd in window {
            assert_eq!(cmd.len(), self.dims, "MA: dimension mismatch");
            for (m, c) in mean.iter_mut().zip(cmd) {
                *m += c;
            }
        }
        for m in &mut mean {
            *m /= self.r as f64;
        }
        mean
    }

    fn forecast_into(
        &self,
        history: &crate::HistoryView<'_>,
        _scratch: &mut crate::ForecastScratch,
        out: &mut [f64],
    ) {
        assert!(
            history.len() >= self.r,
            "MA: need {} commands, got {}",
            self.r,
            history.len()
        );
        assert_eq!(history.dims(), self.dims, "MA: dimension mismatch");
        assert_eq!(out.len(), self.dims, "MA: output dimension mismatch");
        out.fill(0.0);
        for cmd in history.suffix(self.r).iter() {
            for (m, c) in out.iter_mut().zip(cmd) {
                *m += c;
            }
        }
        for m in out {
            *m /= self.r as f64;
        }
    }

    fn history_len(&self) -> usize {
        self.r
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn name(&self) -> &'static str {
        "MA"
    }

    fn export_state(&self) -> Option<crate::ForecasterState> {
        Some(crate::ForecasterState::Ma(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_window() {
        let ma = MovingAverage::new(2, 1);
        let hist = vec![vec![0.0], vec![2.0], vec![4.0]];
        // Uses only the last two commands.
        assert_eq!(ma.forecast(&hist), vec![3.0]);
    }

    #[test]
    fn r1_repeats_last_command() {
        // MA with R = 1 is exactly the Niryo "repeat last command"
        // baseline behaviour.
        let ma = MovingAverage::new(1, 3);
        let hist = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        assert_eq!(ma.forecast(&hist), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn constant_series_is_fixed_point() {
        let ma = MovingAverage::new(5, 2);
        let hist = vec![vec![0.7, -0.3]; 5];
        assert_eq!(ma.forecast(&hist), vec![0.7, -0.3]);
    }

    #[test]
    fn lags_behind_a_ramp() {
        // On a ramp the MA prediction is the window midpoint — it
        // *undershoots* the next value, which is why VAR beats it.
        let ma = MovingAverage::new(4, 1);
        let hist: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let pred = ma.forecast(&hist)[0];
        assert_eq!(pred, 1.5);
        assert!(pred < 4.0);
    }

    #[test]
    #[should_panic(expected = "need 3 commands")]
    fn short_history_panics() {
        let ma = MovingAverage::new(3, 1);
        ma.forecast(&[vec![0.0]]);
    }
}
