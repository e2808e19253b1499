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

use crate::Forecaster;
use serde::{Deserialize, Serialize};

/// Constant-velocity Kalman filter forecaster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KalmanCv {
    r: usize,
    dims: usize,
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
    /// Panics if `r < 2`, dims is 0, or noise parameters are not positive.
    pub fn new(
        r: usize,
        dims: usize,
        period: f64,
        process_noise: f64,
        measurement_noise: f64,
    ) -> Self {
        assert!(
            r >= 2,
            "Kalman: need at least 2 commands to observe velocity"
        );
        assert!(dims >= 1, "Kalman: dims must be ≥ 1");
        assert!(period > 0.0, "Kalman: period must be positive");
        assert!(
            process_noise > 0.0 && measurement_noise > 0.0,
            "Kalman: noise parameters must be positive"
        );
        Self {
            r,
            dims,
            period,
            process_noise,
            measurement_noise,
        }
    }

    /// Defaults tuned for the 50 Hz Niryo joystick stream: trusting
    /// measurements (quantisation ≈ 0.04 rad) while letting velocity
    /// adapt within a reach.
    pub fn default_teleop(r: usize, dims: usize) -> Self {
        Self::new(r, dims, 0.020, 2.0, 1e-4)
    }

    /// Runs the filter over one joint's window; returns predicted next
    /// position.
    fn filter_joint(&self, series: &[f64]) -> f64 {
        self.filter_joint_from(series.iter().copied())
    }

    /// Iterator form of [`KalmanCv::filter_joint`] — the same arithmetic
    /// in the same order, streamed so the zero-allocation forecast path
    /// needs no per-joint series buffer.
    fn filter_joint_from(&self, mut series: impl Iterator<Item = f64>) -> f64 {
        let dt = self.period;
        // State [pos, vel], covariance P.
        let mut x = [series.next().expect("Kalman: empty window"), 0.0];
        let mut p = [[1.0, 0.0], [0.0, 1.0]]; // generous prior
                                              // Discrete white-noise-acceleration process covariance.
        let q11 = self.process_noise * dt * dt * dt / 3.0;
        let q12 = self.process_noise * dt * dt / 2.0;
        let q22 = self.process_noise * dt;
        let rm = self.measurement_noise;
        for z in series {
            // Predict: x ← F x, P ← F P Fᵀ + Q.
            let xp = [x[0] + dt * x[1], x[1]];
            let p00 = p[0][0] + dt * (p[1][0] + p[0][1]) + dt * dt * p[1][1] + q11;
            let p01 = p[0][1] + dt * p[1][1] + q12;
            let p10 = p[1][0] + dt * p[1][1] + q12;
            let p11 = p[1][1] + q22;
            // Update with measurement z of position.
            let s = p00 + rm;
            let k0 = p00 / s;
            let k1 = p10 / s;
            let innov = z - xp[0];
            x = [xp[0] + k0 * innov, xp[1] + k1 * innov];
            p = [
                [(1.0 - k0) * p00, (1.0 - k0) * p01],
                [p10 - k1 * p00, p11 - k1 * p01],
            ];
        }
        // One-step-ahead prediction.
        x[0] + dt * x[1]
    }
}

impl Forecaster for KalmanCv {
    fn forecast(&self, history: &[Vec<f64>]) -> Vec<f64> {
        assert!(
            history.len() >= self.r,
            "Kalman: need {} commands, got {}",
            self.r,
            history.len()
        );
        let window = &history[history.len() - self.r..];
        (0..self.dims)
            .map(|k| {
                let series: Vec<f64> = window
                    .iter()
                    .map(|c| {
                        assert_eq!(c.len(), self.dims, "Kalman: dimension mismatch");
                        c[k]
                    })
                    .collect();
                self.filter_joint(&series)
            })
            .collect()
    }

    fn forecast_into(
        &self,
        history: &crate::HistoryView<'_>,
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
        let window = history.suffix(self.r);
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.filter_joint_from(window.iter().map(|c| c[k]));
        }
    }

    fn forecast_batch_slots(
        &self,
        members: usize,
        slots: &[f64],
        scratch: &mut crate::ForecastScratch,
        out: &mut [f64],
    ) -> bool {
        let d = self.dims;
        assert_eq!(
            slots.len(),
            members * self.r * d,
            "Kalman: slot batch shape"
        );
        assert_eq!(out.len(), members * d, "Kalman: batch output shape");
        let dt = self.period;
        let q11 = self.process_noise * dt * dt * dt / 3.0;
        let q12 = self.process_noise * dt * dt / 2.0;
        let q22 = self.process_noise * dt;
        let rm = self.measurement_noise;
        // Six per-member state lanes ([pos, vel] + covariance), carved
        // from one scratch buffer: each member's filter recursion runs
        // in its own lane, so the cross-member inner loop below is the
        // exact scalar arithmetic of `filter_joint_from`, vectorized
        // across independent sequences.
        let state = scratch.buf(6 * members);
        let (x0, rest) = state.split_at_mut(members);
        let (x1, rest) = rest.split_at_mut(members);
        let (p00, rest) = rest.split_at_mut(members);
        let (p01, rest) = rest.split_at_mut(members);
        let (p10, p11) = rest.split_at_mut(members);
        for k in 0..d {
            // Init from the oldest row: x = [z₀, 0], P = I.
            x0.copy_from_slice(&slots[k * members..(k + 1) * members]);
            x1.fill(0.0);
            p00.fill(1.0);
            p01.fill(0.0);
            p10.fill(0.0);
            p11.fill(1.0);
            for i in 1..self.r {
                let z = &slots[(i * d + k) * members..(i * d + k + 1) * members];
                for m in 0..members {
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
            // One-step-ahead prediction, scattered back member-major.
            for m in 0..members {
                out[m * d + k] = x0[m] + dt * x1[m];
            }
        }
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
