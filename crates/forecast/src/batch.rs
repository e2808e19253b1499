//! A scalar forecasting lane, kept only for perfbench's frozen
//! `forecast.lane_ns_per_member.*` probe (`perfbench/src/layers.rs`).
//!
//! The probe gathers the history windows of 16 engines into one
//! [`BatchLane`] and forecasts every member with the family's own
//! [`Forecaster::forecast_into`], so what it times is the gather plus
//! the scalar kernel. This module holds exactly what the probe names
//! ([`plan_layout`], `cost_class()` on a `dyn Forecaster`, and
//! [`BatchLane`]'s `new`, `clear`, `push_window`, `run_layout` and
//! `result`) and nothing more. No served path gathers a lane, and none
//! may start to: the module goes once the probe does.
//!
//! Each member's result is bit-identical to `forecast_into` on that
//! member's own view: a gathered window is the same rows as a
//! contiguous [`HistoryView`] (split ≡ contiguous, pinned in
//! [`crate::history`]'s tests).

use crate::{ForecastScratch, Forecaster, HistoryView};
use std::sync::Arc;

/// How [`BatchLane::run_layout`] forecasts the gathered windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneLayout {
    /// Per-member [`Forecaster::forecast_into`] over each gathered
    /// window.
    Scalar,
}

/// A forecaster's kernel cost class, as [`plan_layout`] takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// One scalar [`Forecaster::forecast_into`] per member: the only
    /// kernel every family has.
    Scalar,
}

impl dyn Forecaster {
    /// The kernel cost class of this forecaster; every family is
    /// [`CostClass::Scalar`].
    pub fn cost_class(&self) -> CostClass {
        CostClass::Scalar
    }
}

/// The lane layout for a cost class and a lane width: always
/// [`LaneLayout::Scalar`].
pub fn plan_layout(_cost: CostClass, _width: usize) -> LaneLayout {
    LaneLayout::Scalar
}

/// One lane: a shared forecaster plus the gathered history windows of
/// every member this pass.
///
/// Buffers are retained across [`BatchLane::clear`] calls, so a lane
/// reused pass after pass performs zero heap allocations once it has
/// seen its high-water membership.
pub struct BatchLane {
    forecaster: Arc<dyn Forecaster>,
    window_rows: usize,
    dims: usize,
    members: usize,
    /// Member-major gathered windows:
    /// `members × window_rows × dims`, rows oldest-first.
    windows: Vec<f64>,
    /// Member-major predictions: `members × dims`.
    out: Vec<f64>,
}

impl BatchLane {
    /// Creates an empty lane for the given shared forecaster.
    pub fn new(forecaster: Arc<dyn Forecaster>) -> Self {
        let window_rows = forecaster.history_len();
        let dims = forecaster.dims();
        Self {
            forecaster,
            window_rows,
            dims,
            members: 0,
            windows: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Drops this pass's members, retaining buffer capacity.
    pub fn clear(&mut self) {
        self.members = 0;
        self.windows.truncate(0);
    }

    /// Gathers the last `history_len()` rows of `history` as the next
    /// member's window; returns the member index for
    /// [`BatchLane::result`].
    ///
    /// # Panics
    /// Panics when `history` is shorter than the forecaster's window or
    /// its dimensionality mismatches the lane.
    pub fn push_window(&mut self, history: &HistoryView<'_>) -> usize {
        assert_eq!(history.dims(), self.dims, "batch lane: dimension mismatch");
        // The ring window is at most two contiguous runs: gather it as
        // (at most) two memcpys, never a per-row loop.
        let (head, tail) = history.suffix(self.window_rows).runs();
        self.windows.extend_from_slice(head);
        self.windows.extend_from_slice(tail);
        let member = self.members;
        self.members += 1;
        member
    }

    /// Forecasts every gathered member; results are read back via
    /// [`BatchLane::result`].
    pub fn run_layout(&mut self, _layout: LaneLayout, scratch: &mut ForecastScratch) {
        self.out.resize(self.members * self.dims, 0.0);
        let stride = self.window_rows * self.dims;
        for (w, o) in self
            .windows
            .chunks_exact(stride)
            .zip(self.out.chunks_exact_mut(self.dims))
        {
            let view = HistoryView::contiguous(w, self.dims);
            self.forecaster.forecast_into(&view, scratch, o);
        }
    }

    /// The prediction computed for member `i` by the last
    /// [`BatchLane::run_layout`].
    pub fn result(&self, i: usize) -> &[f64] {
        &self.out[i * self.dims..(i + 1) * self.dims]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Holt, KalmanCv, MovingAverage, Var, Varma};
    use foreco_teleop::{Dataset, Skill};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One lane per family, reused across passes of width 7, 16 (the
    /// probe's width) and 3: every member's result equals
    /// `forecast_into` on that member's own view, bit for bit. Each
    /// view holds two rows more than the window and is split into two
    /// runs at a member-dependent row, as an engine's ring is.
    #[test]
    fn every_layout_is_bit_identical_for_every_family() {
        let train = Dataset::record(Skill::Experienced, 1, 0.02, 3);
        let families: Vec<Arc<dyn Forecaster>> = vec![
            Arc::new(MovingAverage::new(5, 6)),
            Arc::new(Holt::default_teleop(5, 6)),
            Arc::new(KalmanCv::default_teleop(5, 6)),
            Arc::new(Var::fit(&train, 4, 1e-6).unwrap()),
            Arc::new(Var::fit_differenced(&train, 5, 1e-6).unwrap()),
            Arc::new(Varma::fit(&train, 3, 2, 1e-6).unwrap()),
        ];
        let commands: Vec<f64> = train.commands.iter().flatten().copied().collect();
        for f in &families {
            let (rows, dims) = (f.history_len() + 2, f.dims());
            let view = |m: usize| {
                let start = 11 * m * dims;
                let history = &commands[start..start + rows * dims];
                let cut = (m % (rows + 1)) * dims;
                HistoryView::new(&history[..cut], &history[cut..], dims)
            };
            let mut lane = BatchLane::new(Arc::clone(f));
            let mut scratch = ForecastScratch::new();
            for width in [7, 16, 3] {
                lane.clear();
                for m in 0..width {
                    assert_eq!(lane.push_window(&view(m)), m);
                }
                lane.run_layout(plan_layout(f.cost_class(), width), &mut scratch);
                for m in 0..width {
                    let mut want = vec![0.0; dims];
                    f.forecast_into(&view(m), &mut ForecastScratch::new(), &mut want);
                    assert_eq!(
                        bits(lane.result(m)),
                        bits(&want),
                        "{} width {width} member {m}",
                        f.name()
                    );
                }
            }
        }
    }

    #[test]
    fn clear_retains_capacity() {
        let w: Vec<f64> = (0..12).map(|i| 0.01 * i as f64).collect();
        let mut lane = BatchLane::new(Arc::new(MovingAverage::new(4, 3)));
        for _ in 0..16 {
            lane.push_window(&HistoryView::contiguous(&w, 3));
        }
        let layout = plan_layout(lane.forecaster.cost_class(), lane.members);
        let mut scratch = ForecastScratch::new();
        lane.run_layout(layout, &mut scratch);
        let cap = (lane.windows.capacity(), lane.out.capacity());
        lane.clear();
        assert_eq!(lane.members, 0);
        for _ in 0..16 {
            lane.push_window(&HistoryView::contiguous(&w, 3));
        }
        lane.run_layout(layout, &mut scratch);
        assert_eq!((lane.windows.capacity(), lane.out.capacity()), cap);
    }
}
