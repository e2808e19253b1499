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
pub mod history;
mod holt;
mod kalman;
mod ma;
pub mod pipeline;
mod seq2seq;
pub mod state;
mod var;
mod varma;

pub use batch::{plan_layout, BatchLane, CostClass, LaneLayout, SLOT_MAJOR_MIN_WIDTH};
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
    /// past commands (most recent last). Implementations use the **last**
    /// `history_len()` entries and ignore anything older.
    ///
    /// # Panics
    /// Implementations panic when fewer than `history_len()` commands are
    /// provided or dimensions mismatch the trained shape.
    fn forecast(&self, history: &[Vec<f64>]) -> Vec<f64>;

    /// Number of past commands `R` the forecaster consumes.
    fn history_len(&self) -> usize;

    /// Command dimensionality `d`.
    fn dims(&self) -> usize;

    /// Short display name for reports.
    fn name(&self) -> &'static str;

    /// Allocation-free forecast: predicts the next command from a
    /// borrowed [`HistoryView`] into a caller-owned `out` buffer, using
    /// `scratch` for any intermediate rows.
    ///
    /// **Contract: bit-identical to [`Forecaster::forecast`]** on the
    /// same rows — the recovery engine's hot path calls this, and the
    /// service determinism suites (snapshot round-trip, shard
    /// invariance, golden vectors) pin the outputs, so an implementation
    /// must perform the same floating-point operations in the same
    /// order. The in-tree forecasters (MA, Holt, Kalman, VAR, VARMA)
    /// override it with zero-allocation implementations; the default
    /// shims through the allocating method for forecasters that don't
    /// (e.g. seq2seq). VAR and Kalman-CV run their one kernel body here
    /// at width 1, straight into `out`.
    ///
    /// # Panics
    /// Same preconditions as [`Forecaster::forecast`], plus
    /// `out.len() == dims()`.
    fn forecast_into(
        &self,
        history: &HistoryView<'_>,
        scratch: &mut ForecastScratch,
        out: &mut [f64],
    ) {
        let _ = scratch;
        let pred = self.forecast(&history.to_rows());
        out.copy_from_slice(&pred);
    }

    /// Batched forecast over a **slot-major** (transposed) lane:
    /// `slots[(row * dims() + dim) * members + m]` holds member `m`'s
    /// value for coordinate `dim` of history row `row` (rows
    /// oldest-first), so the `members` values of any one slot are
    /// contiguous and a kernel's cross-member inner loop is a unit-
    /// stride walk the compiler auto-vectorizes. Predictions land
    /// member-major in `out`: member `m`'s `dims()` values at
    /// `out[m * dims()..]`.
    ///
    /// Returns `true` when the forecaster ran the slot-major batch
    /// natively, `false` when it has no such kernel — the caller then
    /// degrades to per-member [`Forecaster::forecast_into`] over the
    /// gathered windows (see [`BatchLane::run_layout`]).
    ///
    /// **Contract: bit-identical to the scalar path.** Cross-member
    /// lanes are independent sequences: for each member the kernel must
    /// perform the exact floating-point operations of `forecast_into`
    /// on that member's rows, in the same dataflow order. VAR and
    /// Kalman-CV meet it by construction: this method runs the same
    /// kernel body as `forecast_into`, at width `members` instead of 1,
    /// so only *which member* an innermost iteration touches changes.
    /// The `batch_identity` suite guards it across both [`LaneLayout`]s.
    ///
    /// # Panics
    /// Native implementations panic when `slots.len() != members *
    /// history_len() * dims()` or `out.len() != members * dims()`.
    fn forecast_batch_slots(
        &self,
        members: usize,
        slots: &[f64],
        scratch: &mut ForecastScratch,
        out: &mut [f64],
    ) -> bool {
        let _ = (members, slots, scratch, out);
        false
    }

    /// The forecast kernel's cost class — the input (together with lane
    /// width) to the batched layout decision [`plan_layout`]. Default
    /// [`CostClass::Cheap`]: the kernel is so light that gathering
    /// windows into a lane costs more than the dispatch it saves, so
    /// cheap families stay on the scalar path and are never gathered.
    /// Only families whose per-member arithmetic dominates the gather +
    /// transpose cost *and* that ship a native
    /// [`Forecaster::forecast_batch_slots`] kernel (Kalman-CV, VAR)
    /// report [`CostClass::Expensive`]. Wrappers must delegate, or the
    /// models they wrap silently drop out of slot-major batching.
    fn cost_class(&self) -> CostClass {
        CostClass::Cheap
    }

    /// Serialisable description of this forecaster for session
    /// snapshots, or `None` when the forecaster cannot be checkpointed
    /// (the default — see [`state`] for which types support it).
    /// Wrappers (shared handles, adapters) must delegate to the inner
    /// forecaster or their sessions become unsnapshotable — and should
    /// delegate [`Forecaster::forecast_into`] too, or their sessions
    /// fall back to the allocating shim on every miss.
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
