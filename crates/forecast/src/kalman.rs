//! Constant-velocity Kalman forecaster.
//!
//! The AGV literature the paper compares against (\[36\], Lozoya et al.)
//! uses Kalman filtering for its delay/trajectory estimation; this module
//! provides the equivalent command forecaster as an additional baseline:
//! per joint, a 2-state (position, velocity) Kalman filter with a
//! constant-velocity process model,
//!
//! ```text
//! x_{i+1} = F x_i + w,   F = [1 Ω; 0 1],   w ~ N(0, Q)
//! z_i     = H x_i + v,   H = [1 0],        v ~ N(0, R)
//! ```
//!
//! run over the provided history window at forecast time (no training
//! phase; the process/measurement noises are the tuning knobs). The
//! prediction is the one-step-ahead state `F x̂`.

use crate::state::{require, MAX_WINDOW};
use crate::{Forecaster, HistoryView};
use serde::{Deserialize, Serialize};

/// Constant-velocity Kalman filter forecaster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KalmanCv {
    pub(crate) r: usize,
    pub(crate) dims: usize,
    /// Command period Ω used by the process model (seconds).
    pub period: f64,
    /// Process-noise intensity (rad²/s³): how much the operator's joint
    /// velocity is allowed to wander between commands.
    pub process_noise: f64,
    /// Measurement-noise variance (rad²): joystick quantisation + tremor.
    pub measurement_noise: f64,
}

impl KalmanCv {
    /// Creates a Kalman forecaster replaying the last `r` commands.
    ///
    /// # Panics
    /// Panics if `r < 2`, dims is 0, or the period or noise parameters
    /// are not positive and finite.
    pub fn new(
        r: usize,
        dims: usize,
        period: f64,
        process_noise: f64,
        measurement_noise: f64,
    ) -> Self {
        let kf = Self {
            r,
            dims,
            period,
            process_noise,
            measurement_noise,
        };
        kf.validate().unwrap_or_else(|reason| panic!("{reason}"));
        kf
    }

    /// The constructor's preconditions, for state that bypassed it.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let positive = |v: f64| v > 0.0 && v.is_finite();
        require(
            self.r >= 2,
            "Kalman: need at least 2 commands to observe velocity",
        )?;
        require(
            self.r <= MAX_WINDOW,
            format!("Kalman: window must be ≤ {MAX_WINDOW}"),
        )?;
        require(self.dims >= 1, "Kalman: dims must be ≥ 1")?;
        require(positive(self.period), "Kalman: period must be positive")?;
        require(
            positive(self.process_noise) && positive(self.measurement_noise),
            "Kalman: noise parameters must be positive",
        )
    }

    /// Defaults tuned for the 50 Hz Niryo joystick stream: trusting
    /// measurements (quantisation ≈ 0.04 rad) while letting velocity
    /// adapt within a reach.
    pub fn default_teleop(r: usize, dims: usize) -> Self {
        Self::new(r, dims, 0.020, 2.0, 1e-4)
    }
}

impl Forecaster for KalmanCv {
    fn forecast_into(
        &self,
        history: &HistoryView<'_>,
        _scratch: &mut crate::ForecastScratch,
        out: &mut [f64],
    ) {
        assert!(
            history.len() >= self.r,
            "Kalman: need {} commands, got {}",
            self.r,
            history.len()
        );
        assert_eq!(history.dims(), self.dims, "Kalman: dimension mismatch");
        assert_eq!(out.len(), self.dims, "Kalman: output dimension mismatch");
        let rows = history.suffix(self.r);
        let dt = self.period;
        // Discrete white-noise-acceleration process covariance.
        let q11 = self.process_noise * dt * dt * dt / 3.0;
        let q12 = self.process_noise * dt * dt / 2.0;
        let q22 = self.process_noise * dt;
        let rm = self.measurement_noise;
        // One filter per coordinate, written here rather than in a
        // helper: an out-of-line copy measured ~15% slower on the
        // engine's miss path.
        for (k, o) in out.iter_mut().enumerate() {
            // State [pos, vel] = [z₀, 0], generous prior P = I.
            let (mut x0, mut x1) = (rows.row(0)[k], 0.0);
            let (mut p00, mut p01, mut p10, mut p11) = (1.0, 0.0, 0.0, 1.0);
            for i in 1..self.r {
                let z = rows.row(i)[k];
                // Predict: x ← F x, P ← F P Fᵀ + Q.
                let xp0 = x0 + dt * x1;
                let xp1 = x1;
                let a00 = p00 + dt * (p10 + p01) + dt * dt * p11 + q11;
                let a01 = p01 + dt * p11 + q12;
                let a10 = p10 + dt * p11 + q12;
                let a11 = p11 + q22;
                // Update with measurement z of position.
                let s = a00 + rm;
                let k0 = a00 / s;
                let k1 = a10 / s;
                let innov = z - xp0;
                x0 = xp0 + k0 * innov;
                x1 = xp1 + k1 * innov;
                p00 = (1.0 - k0) * a00;
                p01 = (1.0 - k0) * a01;
                p10 = a10 - k1 * a00;
                p11 = a11 - k1 * a01;
            }
            // One-step-ahead prediction.
            *o = x0 + dt * x1;
        }
    }

    fn history_len(&self) -> usize {
        self.r
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn name(&self) -> &'static str {
        "Kalman-CV"
    }

    fn export_state(&self) -> Option<crate::ForecasterState> {
        Some(crate::ForecasterState::Kalman(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locks_onto_a_ramp() {
        // x_i = 0.01·i: after a 10-sample window the filter's velocity
        // estimate is ≈ 0.01/Ω and the prediction continues the ramp.
        let kf = KalmanCv::default_teleop(10, 1);
        let hist: Vec<Vec<f64>> = (0..10).map(|i| vec![0.01 * i as f64]).collect();
        let pred = kf.forecast(&hist)[0];
        assert!((pred - 0.10).abs() < 0.005, "predicted {pred}");
    }

    #[test]
    fn constant_series_is_near_fixed_point() {
        let kf = KalmanCv::default_teleop(10, 2);
        let hist = vec![vec![0.3, -0.7]; 10];
        let pred = kf.forecast(&hist);
        assert!((pred[0] - 0.3).abs() < 1e-6);
        assert!((pred[1] + 0.7).abs() < 1e-6);
    }

    #[test]
    fn beats_ma_on_trending_data() {
        let hist: Vec<Vec<f64>> = (0..8).map(|i| vec![0.02 * i as f64]).collect();
        let kf = KalmanCv::default_teleop(8, 1).forecast(&hist)[0];
        let ma = crate::MovingAverage::new(8, 1).forecast(&hist)[0];
        let truth = 0.16;
        assert!((kf - truth).abs() < (ma - truth).abs());
    }

    #[test]
    fn noise_robustness() {
        // A noisy constant series must not excite a large velocity.
        let kf = KalmanCv::default_teleop(12, 1);
        let hist: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![0.5 + if i % 2 == 0 { 1e-3 } else { -1e-3 }])
            .collect();
        let pred = kf.forecast(&hist)[0];
        assert!((pred - 0.5).abs() < 0.01, "predicted {pred}");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_tiny_window() {
        KalmanCv::new(1, 1, 0.02, 1.0, 1.0);
    }
}
