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

use crate::history::{LaneRows, SlotRows};
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

    /// The one filter recursion, for every [`LaneRows`] width: each
    /// member's coordinate `k < d` runs its own filter over rows `0..R`
    /// in `state`'s six lanes (`[pos, vel]` and the covariance, `width`
    /// values each) and lands member-major at `out[m * d + k]`.
    ///
    /// Always inlined: one out-of-line copy shared by the width-1
    /// callers measured ~15% slower on the engine's path.
    #[inline(always)]
    fn filter<L: LaneRows>(&self, rows: &L, d: usize, state: &mut [f64], out: &mut [f64]) {
        let w = rows.width();
        let dt = self.period;
        // Discrete white-noise-acceleration process covariance.
        let q11 = self.process_noise * dt * dt * dt / 3.0;
        let q12 = self.process_noise * dt * dt / 2.0;
        let q22 = self.process_noise * dt;
        let rm = self.measurement_noise;
        let (x0, rest) = state.split_at_mut(w);
        let (x1, rest) = rest.split_at_mut(w);
        let (p00, rest) = rest.split_at_mut(w);
        let (p01, rest) = rest.split_at_mut(w);
        let (p10, rest) = rest.split_at_mut(w);
        let p11 = &mut rest[..w];
        for k in 0..d {
            // State [pos, vel] = [z₀, 0], generous prior P = I.
            x0.copy_from_slice(&rows.row(0)[k * w..(k + 1) * w]);
            x1.fill(0.0);
            p00.fill(1.0);
            p01.fill(0.0);
            p10.fill(0.0);
            p11.fill(1.0);
            for i in 1..self.r {
                let z = &rows.row(i)[k * w..(k + 1) * w];
                for m in 0..w {
                    // Predict: x ← F x, P ← F P Fᵀ + Q.
                    let xp0 = x0[m] + dt * x1[m];
                    let xp1 = x1[m];
                    let a00 = p00[m] + dt * (p10[m] + p01[m]) + dt * dt * p11[m] + q11;
                    let a01 = p01[m] + dt * p11[m] + q12;
                    let a10 = p10[m] + dt * p11[m] + q12;
                    let a11 = p11[m] + q22;
                    // Update with measurement z of position.
                    let s = a00 + rm;
                    let k0 = a00 / s;
                    let k1 = a10 / s;
                    let innov = z[m] - xp0;
                    x0[m] = xp0 + k0 * innov;
                    x1[m] = xp1 + k1 * innov;
                    p00[m] = (1.0 - k0) * a00;
                    p01[m] = (1.0 - k0) * a01;
                    p10[m] = a10 - k1 * a00;
                    p11[m] = a11 - k1 * a01;
                }
            }
            // One-step-ahead prediction.
            for m in 0..w {
                out[m * d + k] = x0[m] + dt * x1[m];
            }
        }
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
        self.filter(&history.suffix(self.r), self.dims, &mut [0.0; 6], out);
    }

    fn forecast_batch_slots(
        &self,
        members: usize,
        slots: &[f64],
        scratch: &mut crate::ForecastScratch,
        out: &mut [f64],
    ) -> bool {
        let rows = SlotRows::new(slots, self.r, self.dims, members);
        assert_eq!(out.len(), members * self.dims, "Kalman: batch output shape");
        self.filter(&rows, self.dims, scratch.buf(6 * members), out);
        true
    }

    fn cost_class(&self) -> crate::CostClass {
        // Six covariance updates and a division per (member, row, joint):
        // the recursion dwarfs the gather + transpose, so wide lanes pay
        // for the slot-major layout.
        crate::CostClass::Expensive
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
