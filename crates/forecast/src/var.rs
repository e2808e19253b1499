//! Vector Autoregression — the paper's winning forecaster (eq. 5):
//!
//! `ĉ^k_{i+1} = b^k + Σ_{l≤d} Σ_{j=i−R+1..i} w^l_j · ĉ^l_j`
//!
//! trained by OLS over the experienced-operator dataset (eq. 9). The
//! original prototype used `statsmodels` 0.12; here each training window
//! becomes one regressor row, streamed straight into `foreco-linalg`'s
//! ridge-stabilised normal equations ([`foreco_linalg::ols_rows`]).

use crate::state::require;
use crate::{Forecaster, HistoryView};
use foreco_linalg::{ols_rows, Matrix, OlsError};
use foreco_teleop::Dataset;
use serde::{Deserialize, Serialize};

/// Whether the regression runs on command levels or first differences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarMode {
    /// Regress levels — the literal eq. 5. One-step accurate, but the
    /// recursion's dominant eigenvalues sit near/above 1 on smooth teleop
    /// data, so *multi-step* forecasts drift exponentially.
    Levels,
    /// Regress first differences (joint velocities) and integrate — the
    /// standard econometric treatment of integrated series. During dwells
    /// the predicted velocity is ≈ 0 (the forecast holds the pose);
    /// during motion the velocity continues; recursive drift is linear
    /// instead of exponential. This is the mode FoReCo deploys
    /// (DESIGN.md §5).
    Differences,
}

/// A trained VAR(R) model for `d`-dimensional commands.
///
/// # Example
///
/// ```
/// use foreco_forecast::{Forecaster, Var};
/// use foreco_teleop::{Dataset, Skill};
///
/// let train = Dataset::record(Skill::Experienced, 1, 0.02, 3);
/// let var = Var::fit_differenced(&train, 5, 1e-6).unwrap();
/// let pred = var.forecast(&train.commands[..var.history_len()]);
/// assert_eq!(pred.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Var {
    pub(crate) r: usize,
    pub(crate) dims: usize,
    pub(crate) mode: VarMode,
    /// Coefficients, `(1 + d·R) x d`: row 0 is the bias `b`, then one row
    /// per (lag, joint) regressor, oldest lag first.
    pub(crate) beta: Matrix,
    /// Differences mode only: the largest |Δ| seen in training. Input
    /// windows are clamped to it at forecast time, so an out-of-
    /// distribution jump (e.g. the correction step after a loss burst)
    /// cannot masquerade as a huge velocity and be extrapolated.
    pub(crate) diff_clamp: Option<f64>,
}

impl Var {
    /// Fits a VAR(R) by ridge-stabilised OLS on every `(R history → next)`
    /// window of `train`, in the requested [`VarMode`].
    ///
    /// `ridge` guards against collinear regressors (dwell phases make
    /// joints constant); `1e-6` is a good default at radian scale.
    ///
    /// Each window's regressor row is built from `train` into one reused
    /// `1 + d·R` buffer and streamed into the normal equations, so the
    /// fit's memory does not grow with the dataset: no design matrix (and
    /// no differenced copy of the series) exists, except when the Gram
    /// matrix is not positive definite and the QR fallback rebuilds `X`
    /// and `Y` from the same rows.
    ///
    /// # Errors
    /// Returns the underlying [`OlsError`] when the dataset has fewer
    /// windows than regressors or contains non-finite values.
    ///
    /// # Panics
    /// Panics if `r == 0` or the dataset is empty.
    pub fn fit_mode(
        train: &Dataset,
        r: usize,
        ridge: f64,
        mode: VarMode,
    ) -> Result<Self, OlsError> {
        assert!(r >= 1, "VAR: R must be ≥ 1");
        assert!(!train.is_empty(), "VAR: empty training dataset");
        let d = train.dof();
        let commands = &train.commands;
        // Row `s` of the regressed series: command `s` (levels) or the
        // step from command `s` to `s + 1` (differences).
        let series_len = match mode {
            VarMode::Levels => commands.len(),
            VarMode::Differences => commands.len() - 1,
        };
        let series = |s: usize, out: &mut [f64]| match mode {
            VarMode::Levels => out.copy_from_slice(&commands[s]),
            VarMode::Differences => {
                for ((o, a), b) in out.iter_mut().zip(&commands[s + 1]).zip(&commands[s]) {
                    *o = a - b;
                }
            }
        };
        // Window `t` regresses series row `t + R` on rows `t..t + R`.
        let p = 1 + d * r;
        let beta = ols_rows(p, d, ridge, |push| {
            let mut x = vec![0.0; p];
            let mut y = vec![0.0; d];
            x[0] = 1.0;
            for t in 0..series_len.saturating_sub(r) {
                for lag in 0..r {
                    series(t + lag, &mut x[1 + lag * d..1 + (lag + 1) * d]);
                }
                series(t + r, &mut y);
                push(&x, &y);
            }
        })?;
        let diff_clamp = match mode {
            VarMode::Levels => None,
            VarMode::Differences => Some(
                commands
                    .windows(2)
                    .flat_map(|w| w[1].iter().zip(&w[0]).map(|(a, b)| a - b))
                    .fold(0.0f64, |m, x| m.max(x.abs())),
            ),
        };
        Ok(Self {
            r,
            dims: d,
            mode,
            beta,
            diff_clamp,
        })
    }

    /// Levels-mode fit (the paper's literal eq. 5).
    pub fn fit(train: &Dataset, r: usize, ridge: f64) -> Result<Self, OlsError> {
        Self::fit_mode(train, r, ridge, VarMode::Levels)
    }

    /// Differences-mode fit — what the FoReCo recovery engine deploys.
    pub fn fit_differenced(train: &Dataset, r: usize, ridge: f64) -> Result<Self, OlsError> {
        Self::fit_mode(train, r, ridge, VarMode::Differences)
    }

    /// Builds a levels-mode VAR directly from coefficients (tests/serde).
    ///
    /// # Panics
    /// Panics if the coefficient shape is not `(1 + dims·r) x dims`.
    pub fn from_coefficients(r: usize, dims: usize, beta: Matrix) -> Self {
        assert_eq!(
            beta.shape(),
            (1 + dims * r, dims),
            "VAR: bad coefficient shape"
        );
        Self {
            r,
            dims,
            mode: VarMode::Levels,
            beta,
            diff_clamp: None,
        }
    }

    /// The fitted model's invariants, for state that bypassed the
    /// constructors: `R ≥ 1`, a finite `(1 + d·R) × d` coefficient
    /// matrix and a finite, non-negative diff clamp.
    pub(crate) fn validate(&self) -> Result<(), String> {
        require(self.r >= 1, "VAR: R must be ≥ 1")?;
        require(self.dims >= 1, "VAR: dims must be ≥ 1")?;
        check_coefficients(&self.beta, self.r.checked_mul(self.dims), self.dims, "VAR")?;
        require(
            self.diff_clamp.is_none_or(|c| c >= 0.0 && c.is_finite()),
            "VAR: diff clamp must be finite and ≥ 0",
        )
    }

    /// The regression mode.
    pub fn mode(&self) -> VarMode {
        self.mode
    }

    /// The coefficient matrix (`(1 + d·R) x d`; row 0 = bias).
    pub fn coefficients(&self) -> &Matrix {
        &self.beta
    }

    /// Number of trainable weights `|w|` (for the Table-II style counts).
    pub fn num_params(&self) -> usize {
        self.beta.rows() * self.beta.cols()
    }

    /// Spectral radius of the VAR's companion matrix, estimated by power
    /// iteration — the stability diagnostic behind `VarMode`:
    ///
    /// - `ρ < 1`: contractive recursion, multi-step forecasts converge;
    /// - `ρ ≈ 1`: marginal; forecasts drift linearly;
    /// - `ρ > 1`: multi-step forecasts diverge exponentially — the
    ///   levels-mode failure on smooth teleop data (DESIGN.md §5).
    ///
    /// Power iteration converges cleanly only with a real dominant
    /// eigenvalue; a dominant complex pair makes the per-step estimate
    /// oscillate, which the tail-averaging below damps. Treat the result
    /// as a diagnostic, not an exact eigenvalue.
    #[allow(clippy::needless_range_loop)] // k walks out[] against beta columns
    pub fn companion_spectral_radius(&self) -> f64 {
        let d = self.dims;
        let r = self.r;
        let n = d * r;
        // Companion state: blocks newest-first; one application replaces
        // the newest block with Σ_lag A_lag·(lag block) — bias ignored,
        // it does not move eigenvalues — and shifts the rest down.
        let apply = |v: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0; n];
            for k in 0..d {
                let mut acc = 0.0;
                for lag in 0..r {
                    // beta lag 0 = oldest ⇒ newest-first block r−1−lag.
                    let block = r - 1 - lag;
                    for l in 0..d {
                        acc += v[block * d + l] * self.beta[(1 + lag * d + l, k)];
                    }
                }
                out[k] = acc;
            }
            for block in 1..r {
                for l in 0..d {
                    out[block * d + l] = v[(block - 1) * d + l];
                }
            }
            out
        };
        let mut v: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut estimates = Vec::with_capacity(200);
        for _ in 0..200 {
            let prev_norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            let w = apply(&v);
            let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-300 {
                return 0.0;
            }
            estimates.push(norm / prev_norm.max(1e-300));
            v = w.iter().map(|x| x / norm).collect();
        }
        let tail = &estimates[estimates.len() - 50..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

impl Var {
    /// The VAR kernel: `acc` receives `b + Σ w·row` over rows `0..R` in
    /// Levels mode; in Differences mode the regressors are the clamped
    /// first differences of rows `0..=R` (built per lag in `diff`) and
    /// the result is integrated onto row `R` as `c + dv`.
    ///
    /// Bias, then lag-major / joint-minor terms; a `±0.0` regressor adds
    /// nothing and is skipped.
    pub(crate) fn predict(
        &self,
        rows: &HistoryView<'_>,
        mode: VarMode,
        diff: &mut [f64],
        acc: &mut [f64],
    ) {
        let d = self.dims;
        assert_eq!(rows.dims(), d, "VAR: dimension mismatch");
        assert_eq!(acc.len(), d, "VAR: output dimension mismatch");
        acc.copy_from_slice(self.beta.row(0));
        let clamp = self.diff_clamp.unwrap_or(f64::INFINITY);
        for lag in 0..self.r {
            let reg: &[f64] = match mode {
                VarMode::Levels => rows.row(lag),
                VarMode::Differences => {
                    let diff = &mut diff[..d];
                    let (prev, next) = (rows.row(lag), rows.row(lag + 1));
                    for ((dv, n), p) in diff.iter_mut().zip(next).zip(prev) {
                        *dv = (n - p).clamp(-clamp, clamp);
                    }
                    diff
                }
            };
            for (l, &v) in reg.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                for (a, &b) in acc.iter_mut().zip(self.beta.row(1 + lag * d + l)) {
                    *a += v * b;
                }
            }
        }
        if mode == VarMode::Differences {
            // Keeps the `c + dv` operand order (as the oracle and the
            // goldens have it): `*v += c` would swap it, which flips NaN
            // payload selection.
            #[allow(clippy::assign_op_pattern)]
            for (v, c) in acc.iter_mut().zip(rows.row(self.r)) {
                *v = c + *v;
            }
        }
    }
}

/// `Ok` when `beta` is a well-formed, finite `(1 + regressors) × dims`
/// coefficient matrix (`regressors` is `None` when counting them
/// overflowed).
pub(crate) fn check_coefficients(
    beta: &Matrix,
    regressors: Option<usize>,
    dims: usize,
    family: &str,
) -> Result<(), String> {
    require(
        regressors.and_then(|n| n.checked_add(1)) == Some(beta.rows()) && beta.cols() == dims,
        format!("{family}: bad coefficient shape"),
    )?;
    require(
        beta.rows().checked_mul(beta.cols()) == Some(beta.as_slice().len()),
        format!("{family}: coefficient data does not match its shape"),
    )?;
    require(
        beta.is_finite(),
        format!("{family}: non-finite coefficients"),
    )
}

impl Forecaster for Var {
    fn forecast_into(
        &self,
        history: &HistoryView<'_>,
        scratch: &mut crate::ForecastScratch,
        out: &mut [f64],
    ) {
        let need = self.history_len();
        assert!(
            history.len() >= need,
            "VAR: need {} commands, got {}",
            need,
            history.len()
        );
        let diff = match self.mode {
            VarMode::Levels => &mut [][..],
            VarMode::Differences => scratch.buf(self.dims),
        };
        self.predict(&history.suffix(need), self.mode, diff, out);
    }

    fn history_len(&self) -> usize {
        match self.mode {
            VarMode::Levels => self.r,
            VarMode::Differences => self.r + 1,
        }
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn name(&self) -> &'static str {
        "VAR"
    }

    fn export_state(&self) -> Option<crate::ForecasterState> {
        Some(crate::ForecasterState::Var(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast_horizon;
    use foreco_teleop::Skill;

    /// Plant a stable linear dynamic c_{i+1} = A c_i + b + ε and verify
    /// OLS identifies A and b (consistency of the VAR estimator: the
    /// innovations ε are exogenous white noise, so the regression is
    /// unbiased and the error shrinks like 1/√n).
    #[test]
    fn recovers_planted_linear_dynamics() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let a = [[0.9, 0.05], [-0.1, 0.8]];
        let b = [0.01, -0.02];
        let mut rng = StdRng::seed_from_u64(314);
        let mut noise = move || 0.01 * (rng.gen::<f64>() - 0.5);
        let mut cmds = vec![vec![0.5, -0.3]];
        for i in 0..5000 {
            let prev = &cmds[i];
            cmds.push(vec![
                a[0][0] * prev[0] + a[0][1] * prev[1] + b[0] + noise(),
                a[1][0] * prev[0] + a[1][1] * prev[1] + b[1] + noise(),
            ]);
        }
        let ds = Dataset {
            period: 0.02,
            commands: cmds,
            cycle_starts: vec![0],
        };
        let var = Var::fit(&ds, 1, 0.0).unwrap();
        let beta = var.coefficients(); // rows: [bias, c^0 lag, c^1 lag]
        for k in 0..2 {
            assert!(
                (beta[(0, k)] - b[k]).abs() < 0.01,
                "bias[{k}] = {}",
                beta[(0, k)]
            );
            for l in 0..2 {
                assert!(
                    (beta[(1 + l, k)] - a[k][l]).abs() < 0.05,
                    "A[{k}][{l}] = {} vs {}",
                    beta[(1 + l, k)],
                    a[k][l]
                );
            }
        }
    }

    #[test]
    fn differenced_var_multistep_is_stable_in_dwell() {
        // During a dwell the operator is stationary; a 25-step recursive
        // forecast must stay ~put instead of drifting (the failure mode of
        // levels mode that motivates VarMode::Differences).
        let train = Dataset::record(Skill::Experienced, 3, 0.02, 21);
        let var = Var::fit_differenced(&train, 5, 1e-6).unwrap();
        // Build a stationary history.
        let pose = vec![0.3, -0.2, 0.25, 0.0, -0.3, 0.1];
        let hist = vec![pose.clone(); 10];
        let preds = forecast_horizon(&var, &hist, 25);
        for (s, p) in preds.iter().enumerate() {
            for (a, b) in p.iter().zip(&pose) {
                assert!((a - b).abs() < 0.02, "step {s}: drifted to {a} from {b}");
            }
        }
    }

    #[test]
    fn differenced_var_continues_a_ramp() {
        let train = Dataset::record(Skill::Experienced, 3, 0.02, 22);
        let var = Var::fit_differenced(&train, 5, 1e-6).unwrap();
        // Steady motion: joint 0 advancing 0.01 rad/tick.
        let hist: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![0.01 * i as f64, 0.0, 0.0, 0.0, 0.0, 0.0])
            .collect();
        let pred = var.forecast(&hist);
        // Should continue forward, not undershoot like MA.
        assert!(pred[0] > 0.09, "predicted {}", pred[0]);
    }

    #[test]
    fn beats_ma_on_teleop_data() {
        // The paper's core Fig. 7 ordering: VAR ≤ MA in one-step RMSE.
        let train = Dataset::record(Skill::Experienced, 3, 0.02, 100);
        let test = Dataset::record(Skill::Inexperienced, 1, 0.02, 999);
        let var = Var::fit(&train, 5, 1e-6).unwrap();
        let ma = crate::MovingAverage::new(5, 6);
        let var_rmse = crate::one_step_rmse(&var, &test);
        let ma_rmse = crate::one_step_rmse(&ma, &test);
        assert!(
            var_rmse < ma_rmse,
            "VAR {var_rmse} should beat MA {ma_rmse} one-step"
        );
    }

    #[test]
    fn multistep_propagates_smoothly() {
        let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
        let var = Var::fit(&train, 5, 1e-6).unwrap();
        let hist: Vec<Vec<f64>> = train.commands[100..110].to_vec();
        let preds = forecast_horizon(&var, &hist, 25);
        assert_eq!(preds.len(), 25);
        // Predictions stay bounded (no blow-up over 25 steps = the Fig. 9c
        // burst length).
        for p in &preds {
            for &v in p {
                assert!(v.is_finite() && v.abs() < 10.0, "diverged: {v}");
            }
        }
    }

    #[test]
    fn underdetermined_errors_cleanly() {
        let ds = Dataset {
            period: 0.02,
            commands: vec![vec![0.1, 0.2]; 5],
            cycle_starts: vec![0],
        };
        // R = 10 needs ≥ 21 windows; 5 commands give none.
        assert!(Var::fit(&ds, 10, 0.0).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let train = Dataset::record(Skill::Experienced, 1, 0.02, 1);
        let var = Var::fit(&train, 3, 1e-6).unwrap();
        let json = serde_json::to_string(&var).unwrap();
        let back: Var = serde_json::from_str(&json).unwrap();
        // serde_json's default float parsing may be 1 ULP off; compare
        // predictions within that noise rather than bit-exactly.
        assert_eq!(back.history_len(), var.history_len());
        let hist = train.commands[..5].to_vec();
        for (a, b) in back.forecast(&hist).iter().zip(var.forecast(&hist)) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    /// The diagnostic that motivated VarMode: levels VAR on smooth teleop
    /// data is (near-)marginally stable, so its recursion drifts.
    #[test]
    fn spectral_radius_diagnoses_stability() {
        let train = Dataset::record(Skill::Experienced, 2, 0.02, 31);
        let levels = Var::fit(&train, 5, 1e-6).unwrap();
        let diff = Var::fit_differenced(&train, 5, 1e-6).unwrap();
        let rho_levels = levels.companion_spectral_radius();
        let rho_diff = diff.companion_spectral_radius();
        assert!(
            rho_levels > 0.9,
            "levels VAR should be near-unit-root: {rho_levels}"
        );
        assert!(rho_levels < 1.2, "levels VAR wildly unstable: {rho_levels}");
        assert!(
            rho_diff < 1.05,
            "differenced VAR must be ~stable: {rho_diff}"
        );
        assert!(rho_diff.is_finite() && rho_diff > 0.0);
    }

    #[test]
    fn spectral_radius_of_planted_system() {
        // c_{i+1} = 0.5 c_i: companion eigenvalue exactly 0.5.
        let beta = Matrix::from_rows(&[&[0.0], &[0.5]]);
        let var = Var::from_coefficients(1, 1, beta);
        let rho = var.companion_spectral_radius();
        assert!((rho - 0.5).abs() < 1e-6, "{rho}");
    }

    #[test]
    fn param_count() {
        let train = Dataset::record(Skill::Experienced, 1, 0.02, 2);
        let var = Var::fit(&train, 20, 1e-6).unwrap();
        // (1 + 6·20) × 6 = 726 weights — thousands of times lighter than
        // seq2seq, the root of Table II's friendly training times.
        assert_eq!(var.num_params(), 726);
    }
}
