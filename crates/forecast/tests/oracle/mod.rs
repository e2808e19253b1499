//! The test-tree oracle: a deliberately naive `Vec<Vec<f64>>`
//! implementation of every served forecaster family, written
//! independently of the library's kernels. The library has one body per
//! family (`Forecaster::forecast_into`); this is what it is checked
//! against.
//!
//! Each reference performs its family's f64 operations in the order the
//! library promises and the golden vectors pin:
//!
//! - MA: a zeroed sum, rows oldest first, then one division by `R`;
//! - Holt: level/trend recursion per coordinate from the first two rows;
//! - Kalman-CV: per joint, the scalar 2×2 predict/update over the window;
//! - VAR: bias first, then lag-major / joint-minor terms with `±0.0`
//!   regressors skipped; Differences mode regresses the clamped first
//!   differences and integrates as `c + dv`;
//! - VARMA: stage-1 residuals from the VAR reference (not the library
//!   kernel), then bias, command lags and residual lags, no zero skip.
//!
//! Parameters are read from `export_state()` through
//! `serde_json::to_value`, so the library needs no accessor for them. A
//! forecaster without exportable state (seq2seq, test doubles) has no
//! reference here and falls back to its own `forecast`.

use foreco_forecast::Forecaster;
use serde::Value;

/// The reference forecast of `f` on `history` (most recent last).
pub fn forecast(f: &dyn Forecaster, history: &[Vec<f64>]) -> Vec<f64> {
    let Some(state) = f.export_state() else {
        return f.forecast(history);
    };
    let tagged = serde_json::to_value(&state);
    let [(family, p)] = tagged.as_object().expect("externally tagged state") else {
        panic!("oracle: state is not one tagged family");
    };
    match family.as_str() {
        "Ma" => ma(p, history),
        "Holt" => holt(p, history),
        "Kalman" => kalman(p, history),
        "Var" => VarRef::parse(p).predict(history),
        "Varma" => varma(p, history),
        other => panic!("oracle: no reference for {other}"),
    }
}

fn num(p: &Value, key: &str) -> f64 {
    match p.get(key) {
        Some(Value::Number(n)) => *n,
        other => panic!("oracle: `{key}` is not a number: {other:?}"),
    }
}

fn count(p: &Value, key: &str) -> usize {
    num(p, key) as usize
}

/// A serialised `Matrix` as its rows.
fn matrix(p: &Value) -> Vec<Vec<f64>> {
    let cols = count(p, "cols");
    let data: Vec<f64> = match p.get("data") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Number(n) => *n,
                other => panic!("oracle: matrix entry {other:?}"),
            })
            .collect(),
        other => panic!("oracle: matrix data {other:?}"),
    };
    assert_eq!(data.len(), count(p, "rows") * cols, "oracle: matrix shape");
    data.chunks(cols).map(<[f64]>::to_vec).collect()
}

/// The last `n` rows.
fn last(history: &[Vec<f64>], n: usize) -> &[Vec<f64>] {
    &history[history.len() - n..]
}

/// Eq. 8: `(1/R) Σ ĉ_j` over the window.
fn ma(p: &Value, history: &[Vec<f64>]) -> Vec<f64> {
    let r = count(p, "r");
    let mut mean = vec![0.0; count(p, "dims")];
    for cmd in last(history, r) {
        for (m, c) in mean.iter_mut().zip(cmd) {
            *m += c;
        }
    }
    for m in &mut mean {
        *m /= r as f64;
    }
    mean
}

/// Holt's level/trend recursion, one coordinate at a time.
fn holt(p: &Value, history: &[Vec<f64>]) -> Vec<f64> {
    let (alpha, beta) = (num(p, "alpha"), num(p, "beta"));
    let window = last(history, count(p, "r"));
    let mut out = vec![0.0; count(p, "dims")];
    for (k, slot) in out.iter_mut().enumerate() {
        let mut level = window[0][k];
        let mut trend = window[1][k] - window[0][k];
        for cmd in &window[1..] {
            let prev_level = level;
            level = alpha * cmd[k] + (1.0 - alpha) * (level + trend);
            trend = beta * (level - prev_level) + (1.0 - beta) * trend;
        }
        *slot = level + trend;
    }
    out
}

/// A constant-velocity Kalman filter per joint, as scalar 2×2 algebra.
fn kalman(p: &Value, history: &[Vec<f64>]) -> Vec<f64> {
    let dt = num(p, "period");
    let noise = num(p, "process_noise");
    let rm = num(p, "measurement_noise");
    let q11 = noise * dt * dt * dt / 3.0;
    let q12 = noise * dt * dt / 2.0;
    let q22 = noise * dt;
    let window = last(history, count(p, "r"));
    (0..count(p, "dims"))
        .map(|k| {
            let mut x = [window[0][k], 0.0];
            let mut pm = [[1.0, 0.0], [0.0, 1.0]];
            for cmd in &window[1..] {
                // Predict: x ← F x, P ← F P Fᵀ + Q.
                let xp = [x[0] + dt * x[1], x[1]];
                let p00 = pm[0][0] + dt * (pm[1][0] + pm[0][1]) + dt * dt * pm[1][1] + q11;
                let p01 = pm[0][1] + dt * pm[1][1] + q12;
                let p10 = pm[1][0] + dt * pm[1][1] + q12;
                let p11 = pm[1][1] + q22;
                // Update with the measured position.
                let s = p00 + rm;
                let k0 = p00 / s;
                let k1 = p10 / s;
                let innov = cmd[k] - xp[0];
                x = [xp[0] + k0 * innov, xp[1] + k1 * innov];
                pm = [
                    [(1.0 - k0) * p00, (1.0 - k0) * p01],
                    [p10 - k1 * p00, p11 - k1 * p01],
                ];
            }
            x[0] + dt * x[1]
        })
        .collect()
}

/// Eq. 5 with the coefficient rows `[bias, (lag 0, joint 0), …]`.
struct VarRef {
    r: usize,
    dims: usize,
    differences: bool,
    beta: Vec<Vec<f64>>,
    clamp: f64,
}

impl VarRef {
    fn parse(p: &Value) -> Self {
        let differences = match p.get("mode") {
            Some(Value::String(mode)) => mode == "Differences",
            other => panic!("oracle: VAR mode {other:?}"),
        };
        let clamp = match p.get("diff_clamp") {
            Some(Value::Number(c)) => *c,
            _ => f64::INFINITY,
        };
        Self {
            r: count(p, "r"),
            dims: count(p, "dims"),
            differences,
            beta: matrix(p.get("beta").expect("oracle: VAR beta")),
            clamp,
        }
    }

    /// `b + Σ w·row` over the window, zero regressors skipped.
    fn regress(&self, window: &[Vec<f64>]) -> Vec<f64> {
        let d = self.dims;
        let mut out = self.beta[0].clone();
        for (lag, cmd) in window.iter().enumerate() {
            for (l, &v) in cmd.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                for (k, o) in out.iter_mut().enumerate() {
                    *o += v * self.beta[1 + lag * d + l][k];
                }
            }
        }
        out
    }

    fn predict(&self, history: &[Vec<f64>]) -> Vec<f64> {
        if !self.differences {
            return self.regress(last(history, self.r));
        }
        // Clamped differences of the last R+1 commands, the predicted
        // next difference integrated onto the last command.
        let tail = last(history, self.r + 1);
        let diffs: Vec<Vec<f64>> = tail
            .windows(2)
            .map(|w| {
                w[1].iter()
                    .zip(&w[0])
                    .map(|(a, b)| (a - b).clamp(-self.clamp, self.clamp))
                    .collect()
            })
            .collect();
        let delta = self.regress(&diffs);
        tail[self.r]
            .iter()
            .zip(&delta)
            .map(|(c, dv)| c + dv)
            .collect()
    }
}

/// Hannan–Rissanen VARMA: residuals rebuilt with the stage-1 VAR
/// reference, then the stage-2 regression on commands and residuals.
fn varma(p: &Value, history: &[Vec<f64>]) -> Vec<f64> {
    let (r, q, d) = (count(p, "r"), count(p, "q"), count(p, "dims"));
    let stage1 = VarRef::parse(p.get("stage1").expect("oracle: VARMA stage 1"));
    let beta = matrix(p.get("beta").expect("oracle: VARMA beta"));
    let tail = last(history, r + q);
    let residuals: Vec<Vec<f64>> = (r..tail.len())
        .map(|i| {
            let pred = stage1.predict(&tail[..i]);
            tail[i].iter().zip(&pred).map(|(t, p)| t - p).collect()
        })
        .collect();
    let mut out = beta[0].clone();
    for (lag, cmd) in last(tail, r).iter().enumerate() {
        for (l, &v) in cmd.iter().enumerate() {
            for (k, o) in out.iter_mut().enumerate() {
                *o += v * beta[1 + lag * d + l][k];
            }
        }
    }
    for (lag, res) in residuals.iter().enumerate() {
        for (l, &v) in res.iter().enumerate() {
            for (k, o) in out.iter_mut().enumerate() {
                *o += v * beta[1 + d * r + lag * d + l][k];
            }
        }
    }
    out
}
