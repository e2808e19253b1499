//! Command forecasters for FoReCo (§IV-B/§IV-C of the paper).
//!
//! FoReCo predicts the next joint-space command from the last `R`
//! received-or-forecast commands. The paper studies three algorithms and
//! picks VAR; this crate implements all of them behind one [`Forecaster`]
//! trait, plus the two §VII-C future-work candidates:
//!
//! | Forecaster | Paper | Training |
//! |---|---|---|
//! | [`MovingAverage`] | eq. 8 (baseline) | none |
//! | [`Var`] | eq. 5 — the winner | OLS (eq. 9) via `foreco-linalg` |
//! | [`Seq2SeqForecaster`] | eqs. 6–7 | Adam (eqs. 10–13) via `foreco-nn` |
//! | [`Holt`] | §VII-C "exponential smoothing" | closed-form recursion |
//! | [`Varma`] | §VII-C "VARMA" | Hannan–Rissanen two-stage OLS |
//! | [`KalmanCv`] | related work \[36\]'s approach | constant-velocity Kalman filter |
//!
//! [`forecast_horizon`] implements the recursive multi-step forecasting
//! used in Fig. 7 (and the error-propagation effect of Fig. 9c: later
//! forecasts consume earlier ones). [`pipeline`] reproduces the Table-I
//! training stages (load → down-sample → quality check → train) with
//! per-stage timings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod history;
mod holt;
mod kalman;
mod ma;
pub mod pipeline;
mod seq2seq;
pub mod state;
mod var;
mod varma;

pub use batch::{plan_layout, BatchLane};
pub use codec::StateCodecError;
pub use history::{ForecastScratch, HistoryView};
pub use holt::Holt;
pub use kalman::KalmanCv;
pub use ma::MovingAverage;
pub use seq2seq::{Seq2SeqForecaster, Seq2SeqTrainConfig};
pub use state::ForecasterState;
pub use var::{Var, VarMode};
pub use varma::Varma;

/// A next-command predictor: `ĉ_{i+1} = f({ĉ_j}_{i−R+1..i})`.
///
/// `Send + Sync` is a supertrait so trained forecasters can be shared
/// across the session shards of `foreco-serve` (forecasting is `&self`;
/// one trained model serves many concurrent recovery loops).
pub trait Forecaster: Send + Sync {
    /// Predicts the next command given at least [`Forecaster::history_len`]
    /// past commands (most recent last), using the **last**
    /// `history_len()` entries and ignoring anything older.
    ///
    /// Provided over [`Forecaster::forecast_into`]: the window is
    /// flattened into a contiguous [`HistoryView`] and forecast with a
    /// fresh scratch, so it returns the hot path's bits by construction.
    ///
    /// # Panics
    /// Panics when fewer than `history_len()` commands are provided or a
    /// row of the window does not have `dims()` values (checked row by
    /// row before flattening, which a contiguous view could not detect).
    fn forecast(&self, history: &[Vec<f64>]) -> Vec<f64> {
        let (r, d) = (self.history_len(), self.dims());
        assert!(
            history.len() >= r,
            "{}: need {r} commands, got {}",
            self.name(),
            history.len()
        );
        let window = &history[history.len() - r..];
        assert!(
            window.iter().all(|row| row.len() == d),
            "{}: dimension mismatch",
            self.name()
        );
        let rows = window.concat();
        let mut out = vec![0.0; d];
        self.forecast_into(
            &HistoryView::contiguous(&rows, d),
            &mut ForecastScratch::new(),
            &mut out,
        );
        out
    }

    /// Number of past commands `R` the forecaster consumes.
    fn history_len(&self) -> usize;

    /// Command dimensionality `d`.
    fn dims(&self) -> usize;

    /// Short display name for reports.
    fn name(&self) -> &'static str;

    /// The forecast itself: predicts the next command from a borrowed
    /// [`HistoryView`] into a caller-owned `out` buffer, using `scratch`
    /// for any intermediate rows. This is each family's one body; the
    /// recovery engine's hot path calls it directly, and
    /// [`Forecaster::forecast`] wraps it.
    ///
    /// **Contract: bit-identical to the test-tree oracle**
    /// (`crates/forecast/tests/oracle`), a naive `Vec<Vec<f64>>`
    /// implementation of each family that performs the same
    /// floating-point operations in the same order; the
    /// `forecast_into` suite compares the two over NaN and `-0.0`
    /// payloads at every ring split. The served families (MA, Holt,
    /// Kalman, VAR, VARMA) allocate nothing here once `scratch` has
    /// grown.
    ///
    /// # Panics
    /// Panics when the view holds fewer than `history_len()` rows, its
    /// `dims()` differ from the forecaster's, or `out.len() != dims()`.
    fn forecast_into(
        &self,
        history: &HistoryView<'_>,
        scratch: &mut ForecastScratch,
        out: &mut [f64],
    );

    /// Serialisable description of this forecaster for session
    /// snapshots, or `None` when the forecaster cannot be checkpointed
    /// (the default — see [`state`] for which types support it).
    /// Wrappers (shared handles, adapters) must delegate to the inner
    /// forecaster or their sessions become unsnapshotable. They cannot
    /// forget [`Forecaster::forecast_into`]: it has no default.
    fn export_state(&self) -> Option<ForecasterState> {
        None
    }
}

/// Recursive multi-step forecasting: predicts `steps` commands ahead,
/// feeding each prediction back as history — the mechanism behind both
/// Fig. 7's forecasting windows and Fig. 9c's error propagation.
///
/// Returns the `steps` predictions in order.
///
/// # Panics
/// Panics if `history` is shorter than the forecaster's `history_len()`.
pub fn forecast_horizon(f: &dyn Forecaster, history: &[Vec<f64>], steps: usize) -> Vec<Vec<f64>> {
    let r = f.history_len();
    assert!(
        history.len() >= r,
        "forecast_horizon: history shorter than R"
    );
    let mut window: Vec<Vec<f64>> = history[history.len() - r..].to_vec();
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let next = f.forecast(&window);
        window.remove(0);
        window.push(next.clone());
        out.push(next);
    }
    out
}

/// Joint-space RMSE of one-step-ahead forecasts over a dataset
/// (task-space evaluation lives in `foreco-core::metrics`).
pub fn one_step_rmse(f: &dyn Forecaster, dataset: &foreco_teleop::Dataset) -> f64 {
    let r = f.history_len();
    let mut acc = 0.0;
    let mut n = 0usize;
    for (hist, target) in dataset.windows(r) {
        let pred = f.forecast(hist);
        acc += foreco_linalg::vector::squared_distance(&pred, target);
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (acc / (n * f.dims()) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use foreco_teleop::{Dataset, Skill};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The panic message of `forecast(history)`, or `None` if it returned.
    fn forecast_panic(f: &dyn Forecaster, history: &[Vec<f64>]) -> Option<String> {
        let payload = catch_unwind(AssertUnwindSafe(|| f.forecast(history))).err()?;
        Some(match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload.downcast_ref::<&str>().unwrap_or(&"").to_string(),
        })
    }

    /// The provided `forecast` keeps each family's preconditions: a short
    /// history names the family and the counts, and a ragged row inside
    /// the window is caught even when the total length is right (a
    /// contiguous view of the flattened rows could not tell).
    #[test]
    fn provided_forecast_checks_length_and_ragged_rows_for_every_family() {
        let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
        let families: Vec<Box<dyn Forecaster>> = vec![
            Box::new(MovingAverage::new(4, 6)),
            Box::new(Holt::default_teleop(5, 6)),
            Box::new(KalmanCv::default_teleop(6, 6)),
            Box::new(Var::fit(&train, 3, 1e-6).unwrap()),
            Box::new(Var::fit_differenced(&train, 3, 1e-6).unwrap()),
            Box::new(Varma::fit(&train, 3, 2, 1e-6).unwrap()),
        ];
        for f in &families {
            let (r, d) = (f.history_len(), f.dims());
            let name = f.name();
            let full = vec![vec![0.1; d]; r + 2];
            assert_eq!(forecast_panic(f.as_ref(), &full), None, "{name}");

            let short = &full[..r - 1];
            let msg = forecast_panic(f.as_ref(), short).expect("short history must panic");
            assert!(
                msg.contains(&format!("{name}: need {r} commands, got {}", r - 1)),
                "{name}: {msg}"
            );

            // Rows i and i+1 of the window trade one value: same total
            // length, both ragged.
            for i in 0..r - 1 {
                let mut ragged = full.clone();
                let row = full.len() - r + i;
                let moved = ragged[row + 1].pop().unwrap();
                ragged[row].push(moved);
                let msg = forecast_panic(f.as_ref(), &ragged).expect("ragged row must panic");
                assert!(msg.contains("dimension mismatch"), "{name} row {i}: {msg}");
            }
            // Rows older than the window are not the forecaster's business.
            let mut stale = full.clone();
            stale[0].push(1.0);
            assert_eq!(forecast_panic(f.as_ref(), &stale), None, "{name}");
        }
    }
}
