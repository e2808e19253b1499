//! VARMA — the paper's named future-work forecaster (§VII-C: "Vector
//! Autoregression Moving Average … combines the benefits of both MA and
//! VAR to prevent saw-teeth oscillations, and anticipate faster the
//! increases/decreases of the time-series").
//!
//! Estimated with the Hannan–Rissanen two-stage procedure, the standard
//! OLS route to VARMA without likelihood optimisation:
//!
//! 1. fit a (long) VAR and compute its one-step residuals `ε_i`;
//! 2. regress `c_i` on both the lagged commands *and* the lagged
//!    residuals — the residual coefficients are the MA part.
//!
//! At forecast time the residual history is rebuilt from the provided
//! window with the stage-1 VAR.

use crate::state::require;
use crate::var::check_coefficients;
use crate::{ForecastScratch, Forecaster, HistoryView, Var, VarMode};
use foreco_linalg::{ols_rows, Matrix, OlsError};
use foreco_teleop::Dataset;
use serde::{Deserialize, Serialize};

/// A trained VARMA(R, Q) model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Varma {
    pub(crate) r: usize,
    pub(crate) q: usize,
    pub(crate) dims: usize,
    /// Stage-1 VAR used to reconstruct residuals at forecast time.
    pub(crate) stage1: Var,
    /// Stage-2 coefficients, `(1 + d·R + d·Q) x d`.
    pub(crate) beta: Matrix,
}

impl Varma {
    /// Fits a VARMA(`r`, `q`) on `train` (AR order `r`, MA order `q`).
    ///
    /// # Errors
    /// Propagates [`OlsError`] from either regression stage.
    ///
    /// # Panics
    /// Panics if `r == 0`, `q == 0` or the dataset is empty.
    pub fn fit(train: &Dataset, r: usize, q: usize, ridge: f64) -> Result<Self, OlsError> {
        assert!(r >= 1 && q >= 1, "VARMA: orders must be ≥ 1");
        assert!(!train.is_empty(), "VARMA: empty training dataset");
        let d = train.dof();

        // Stage 1: long VAR and its residual series, row-major in one
        // buffer. Residual ε_i is the one-step error at command i (0 for
        // the first r commands). Each window is flattened into one reused
        // buffer (the contiguous view `Forecaster::forecast` builds) and
        // forecast into one reused output.
        let stage1 = Var::fit(train, r, ridge)?;
        let mut residuals = vec![0.0; train.len() * d];
        let (mut window, mut pred) = (vec![0.0; r * d], vec![0.0; d]);
        let mut scratch = ForecastScratch::new();
        for (i, (hist, target)) in train.windows(r).enumerate() {
            for (row, command) in window.chunks_exact_mut(d).zip(hist) {
                row.copy_from_slice(command);
            }
            stage1.forecast_into(
                &HistoryView::contiguous(&window, d),
                &mut scratch,
                &mut pred,
            );
            let idx = (i + r) * d;
            for k in 0..d {
                residuals[idx + k] = target[k] - pred[k];
            }
        }

        // Stage 2: regress c_i on [1, lagged commands, lagged residuals],
        // one row at a time (see `Var::fit_mode`).
        let start = r.max(q);
        let p = 1 + d * r + d * q;
        let beta = ols_rows(p, d, ridge, |push| {
            let mut x = vec![0.0; p];
            x[0] = 1.0;
            for i in start..train.len() {
                for lag in 0..r {
                    x[1 + lag * d..1 + (lag + 1) * d].copy_from_slice(&train.commands[i - r + lag]);
                }
                for lag in 0..q {
                    let at = 1 + d * r + lag * d;
                    let from = (i - q + lag) * d;
                    x[at..at + d].copy_from_slice(&residuals[from..from + d]);
                }
                push(&x, &train.commands[i]);
            }
        })?;
        Ok(Self {
            r,
            q,
            dims: d,
            stage1,
            beta,
        })
    }

    /// The fitted model's invariants, for state that bypassed `fit`:
    /// orders ≥ 1, a valid levels VAR(R) stage 1 of the same dimension
    /// and a finite `(1 + d·R + d·Q) × d` stage-2 matrix.
    pub(crate) fn validate(&self) -> Result<(), String> {
        require(self.r >= 1 && self.q >= 1, "VARMA: orders must be ≥ 1")?;
        self.stage1.validate()?;
        require(
            self.stage1.mode() == VarMode::Levels
                && self.stage1.history_len() == self.r
                && self.stage1.dims() == self.dims,
            "VARMA: stage 1 must be a levels VAR(R) of the same dimension",
        )?;
        let regressors = self.r.checked_add(self.q);
        check_coefficients(
            &self.beta,
            regressors.and_then(|n| n.checked_mul(self.dims)),
            self.dims,
            "VARMA",
        )
    }

    /// Total trainable weights across both stages.
    pub fn num_params(&self) -> usize {
        self.stage1.num_params() + self.beta.rows() * self.beta.cols()
    }
}

impl Forecaster for Varma {
    #[allow(clippy::needless_range_loop)] // k walks out[] against beta columns
    fn forecast_into(
        &self,
        history: &crate::HistoryView<'_>,
        scratch: &mut crate::ForecastScratch,
        out: &mut [f64],
    ) {
        let need = self.history_len();
        assert!(
            history.len() >= need,
            "VARMA: need {} commands, got {}",
            need,
            history.len()
        );
        let d = self.dims;
        assert_eq!(history.dims(), d, "VARMA: dimension mismatch");
        assert_eq!(out.len(), d, "VARMA: output dimension mismatch");
        // Rebuild residuals over the window with the stage-1 VAR, rows
        // landing in the caller-owned scratch: residual j is the stage-1
        // one-step error at tail row r+j, predicted from rows j..j+r.
        let tail = history.suffix(need);
        let (residuals, pred) = scratch.pair(self.q * d, d);
        for j in 0..self.q {
            self.stage1
                .predict(&tail.range(j, j + self.r), VarMode::Levels, &mut [], pred);
            let target = tail.row(self.r + j);
            for l in 0..d {
                residuals[j * d + l] = target[l] - pred[l];
            }
        }

        for k in 0..d {
            out[k] = self.beta[(0, k)];
        }
        for lag in 0..self.r {
            let cmd = tail.row(self.q + lag);
            for (l, &v) in cmd.iter().enumerate() {
                let row = 1 + lag * d + l;
                for k in 0..d {
                    out[k] += v * self.beta[(row, k)];
                }
            }
        }
        for lag in 0..self.q {
            let res = &residuals[lag * d..(lag + 1) * d];
            for (l, &v) in res.iter().enumerate() {
                let row = 1 + d * self.r + lag * d + l;
                for k in 0..d {
                    out[k] += v * self.beta[(row, k)];
                }
            }
        }
    }

    fn history_len(&self) -> usize {
        // Need r commands for the AR part plus enough extra to rebuild q
        // residuals (each residual needs an r-window before it).
        self.r + self.q
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn name(&self) -> &'static str {
        "VARMA"
    }

    fn export_state(&self) -> Option<crate::ForecasterState> {
        Some(crate::ForecasterState::Varma(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foreco_teleop::Skill;

    #[test]
    fn fits_and_predicts() {
        let train = Dataset::record(Skill::Experienced, 2, 0.02, 11);
        let vm = Varma::fit(&train, 4, 2, 1e-6).unwrap();
        let hist = train.commands[..vm.history_len() + 3].to_vec();
        let pred = vm.forecast(&hist);
        assert_eq!(pred.len(), 6);
        assert!(pred.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn competitive_with_var() {
        let train = Dataset::record(Skill::Experienced, 3, 0.02, 12);
        let test = Dataset::record(Skill::Inexperienced, 1, 0.02, 120);
        let var = Var::fit(&train, 4, 1e-6).unwrap();
        let vm = Varma::fit(&train, 4, 2, 1e-6).unwrap();
        let var_rmse = crate::one_step_rmse(&var, &test);
        let vm_rmse = crate::one_step_rmse(&vm, &test);
        // VARMA must be in VAR's ballpark (the paper expects it to help;
        // at minimum it must not be broken).
        assert!(
            vm_rmse < var_rmse * 1.5,
            "VARMA {vm_rmse} way off VAR {var_rmse}"
        );
    }

    #[test]
    fn underdetermined_errors_cleanly() {
        let ds = Dataset {
            period: 0.02,
            commands: vec![vec![0.1, 0.2]; 12],
            cycle_starts: vec![0],
        };
        assert!(Varma::fit(&ds, 4, 4, 0.0).is_err());
    }
}
