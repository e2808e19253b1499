//! Structure-of-arrays batching across forecaster *instances of the
//! same model* — vectorize across sessions, not within one.
//!
//! A fleet's real shape is thousands of recovery loops running the same
//! trained forecaster at the same dimensionality. [`BatchLane`] gathers
//! those sessions' history windows into one contiguous member-major
//! `f64` block, and [`BatchLane::run_layout`] forecasts every member
//! in one of two ways:
//!
//! - [`LaneLayout::SlotMajor`] transposes the lane so the *members* are
//!   contiguous per history slot and runs one
//!   [`Forecaster::forecast_batch_slots`] sweep: an expensive kernel
//!   (Kalman-CV's filter recursion, VAR's regression inner products)
//!   then runs its arithmetic as a tight cross-member loop the compiler
//!   auto-vectorizes. It is the same kernel body `forecast_into` runs,
//!   at width = members instead of 1.
//! - [`LaneLayout::Scalar`] runs per-member
//!   [`Forecaster::forecast_into`] over a contiguous [`HistoryView`] of
//!   each gathered window. It is also where a slot-major request lands
//!   when the forecaster has no slot-major kernel.
//!
//! Which path pays is a function of kernel cost and lane width —
//! [`plan_layout`] encodes the committed decision rule, validated by
//! the `lane_layout` bench group (`crates/bench/benches/forecasters.rs`).
//!
//! **Determinism contract.** Each member's prediction is computed by
//! the exact floating-point operations of the scalar
//! [`Forecaster::forecast_into`] path on that member's rows, in the
//! same order — members never mix, by construction (one body, two
//! widths), guarded by `batch_identity`. The scalar path is
//! bit-identical to the caller's own scalar call by the
//! split-≡-contiguous view equivalence pinned in [`crate::history`]'s
//! tests.

use crate::{ForecastScratch, Forecaster, HistoryView};
use std::sync::Arc;

/// How [`BatchLane::run_layout`] presents the gathered windows to the
/// forecaster. Both layouts are bit-identical — the choice moves
/// wall-clock time, never output bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneLayout {
    /// Per-member scalar [`Forecaster::forecast_into`] over each
    /// gathered window — no batched kernel at all. At the serve planner
    /// a cheap family's scalar decision is realised *before* the
    /// gather: its sessions keep their own scalar path and never pay
    /// the window memcpy.
    Scalar,
    /// Slot-major (transposed) [`Forecaster::forecast_batch_slots`]:
    /// one dispatch per lane, the lane's members contiguous per history
    /// slot so cross-member inner loops auto-vectorize.
    SlotMajor,
}

/// Forecast kernel cost class — see [`Forecaster::cost_class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// Kernel arithmetic is comparable to the gather cost (MA, Holt,
    /// repeat-last): batching moves no wall-clock, stay scalar.
    Cheap,
    /// Kernel arithmetic dominates gather + transpose (Kalman-CV, VAR):
    /// batching pays, and wide lanes pay more slot-major.
    Expensive,
}

/// Lane width at which an expensive family's lane switches from
/// scalar to slot-major. Below it the transpose overhead eats the
/// vectorization win; at/above it the cross-member inner loops win.
/// Backed by the `lane_layout` group of
/// `crates/bench/benches/forecasters.rs` (per-member scalar vs
/// slot-major medians at widths 8–256); the `batch_identity` suite pins
/// bit-identity at `threshold − 1`, `threshold`, and `threshold + 1` so
/// the flip can never move bits.
pub const SLOT_MAJOR_MIN_WIDTH: usize = 32;

/// The committed per-lane layout decision: cost class and lane width in,
/// [`LaneLayout`] out.
///
/// - [`CostClass::Cheap`] families stay **scalar** at every width —
///   gathering measured 0.83–0.91× for them (the gather costs more than
///   the dispatch it saves), so their sessions are never gathered at
///   all.
/// - [`CostClass::Expensive`] families run **scalar** on narrow lanes
///   and **slot-major** from [`SLOT_MAJOR_MIN_WIDTH`] up, where the
///   measured speedup clears 1.0×.
///
/// Any ambiguity elsewhere in the stack (no native kernel, unknown
/// wrapper) degrades slot-major → scalar, both bit-identical.
pub fn plan_layout(cost: CostClass, width: usize) -> LaneLayout {
    match cost {
        CostClass::Expensive if width >= SLOT_MAJOR_MIN_WIDTH => LaneLayout::SlotMajor,
        _ => LaneLayout::Scalar,
    }
}

/// One structure-of-arrays forecasting lane: a shared forecaster plus
/// the gathered history windows of every member session this pass.
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
    /// Slot-major transpose of `windows`, built lazily by
    /// [`BatchLane::run_layout`] for [`LaneLayout::SlotMajor`] passes:
    /// `window_rows × dims × members`, members contiguous per slot.
    /// Lane-owned (not scratch) so the transpose shares the lane's
    /// high-water zero-allocation discipline.
    slots: Vec<f64>,
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
            slots: Vec::new(),
            out: Vec::new(),
        }
    }

    /// The shared forecaster this lane batches over.
    pub fn forecaster(&self) -> &Arc<dyn Forecaster> {
        &self.forecaster
    }

    /// Rows gathered per member window (the forecaster's
    /// [`Forecaster::history_len`]).
    pub fn window_rows(&self) -> usize {
        self.window_rows
    }

    /// Command dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Members gathered since the last [`BatchLane::clear`].
    pub fn members(&self) -> usize {
        self.members
    }

    /// True when no members are gathered.
    pub fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// Drops this pass's members, retaining buffer capacity.
    pub fn clear(&mut self) {
        self.members = 0;
        self.windows.truncate(0);
    }

    /// Gathers the last `window_rows` rows of `history` as the next
    /// member's window; returns the member index for
    /// [`BatchLane::result`].
    ///
    /// # Panics
    /// Panics when `history` is shorter than `window_rows` or its
    /// dimensionality mismatches the lane.
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

    /// Forecasts every gathered member in the requested [`LaneLayout`];
    /// results are read back via [`BatchLane::result`]. A slot-major
    /// request degrades to the per-member scalar path when the
    /// forecaster has no slot-major kernel, so both layouts are safe to
    /// request for every forecaster and produce bit-identical results.
    pub fn run_layout(&mut self, layout: LaneLayout, scratch: &mut ForecastScratch) {
        self.out.resize(self.members * self.dims, 0.0);
        if self.members == 0 {
            return;
        }
        if layout == LaneLayout::SlotMajor {
            self.transpose_slots();
            if self.forecaster.forecast_batch_slots(
                self.members,
                &self.slots,
                scratch,
                &mut self.out,
            ) {
                return;
            }
        }
        // Scalar path: the member's gathered window is a contiguous
        // HistoryView, which presents the exact rows the forecaster
        // would see on the caller's ring (split ≡ contiguous).
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

    /// Transposes the member-major gather into the lane-owned slot-major
    /// buffer: `slots[slot * members + m] = windows[m * stride + slot]`.
    /// Pure data movement — each member's values are copied, never
    /// combined, so the transpose cannot move a bit. Runs at
    /// `run_layout` time because the member count is unknown while
    /// gathering.
    fn transpose_slots(&mut self) {
        let stride = self.window_rows * self.dims;
        // `resize` only allocates past the high-water mark, like every
        // other lane buffer.
        self.slots.resize(self.members * stride, 0.0);
        for (slot, dst) in self.slots.chunks_exact_mut(self.members).enumerate() {
            for (m, lane) in dst.iter_mut().enumerate() {
                *lane = self.windows[m * stride + slot];
            }
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
    use crate::{Holt, KalmanCv, MovingAverage, Var};
    use foreco_teleop::{Dataset, Skill};

    fn ramp_rows(rows: usize, dims: usize, phase: f64) -> Vec<Vec<f64>> {
        (0..rows)
            .map(|i| {
                (0..dims)
                    .map(|k| phase + 0.01 * (i * dims + k) as f64)
                    .collect()
            })
            .collect()
    }

    fn flat(rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().flatten().copied().collect()
    }

    #[test]
    fn native_batch_matches_scalar_bit_for_bit() {
        let train = Dataset::record(Skill::Experienced, 1, 0.02, 3);
        let forecasters: Vec<Arc<dyn Forecaster>> = vec![
            Arc::new(MovingAverage::new(5, 6)),
            Arc::new(Holt::default_teleop(5, 6)),
            Arc::new(KalmanCv::default_teleop(5, 6)),
            Arc::new(Var::fit_differenced(&train, 5, 1e-6).unwrap()),
        ];
        // One narrow and one threshold-wide lane per family, each run at
        // the planned layout.
        for (f, width) in forecasters
            .iter()
            .flat_map(|f| [(f, 7), (f, SLOT_MAJOR_MIN_WIDTH)])
        {
            let rows = f.history_len();
            let dims = f.dims();
            let mut lane = BatchLane::new(Arc::clone(f));
            let flats: Vec<Vec<f64>> = (0..width)
                .map(|m| flat(&ramp_rows(rows, dims, 0.3 * m as f64)))
                .collect();
            for w in &flats {
                lane.push_window(&HistoryView::contiguous(w, dims));
            }
            let mut scratch = ForecastScratch::new();
            lane.run_layout(plan_layout(f.cost_class(), width), &mut scratch);
            for (m, w) in flats.iter().enumerate() {
                let mut scalar = vec![0.0; dims];
                let mut s = ForecastScratch::new();
                f.forecast_into(&HistoryView::contiguous(w, dims), &mut s, &mut scalar);
                let got: Vec<u64> = lane.result(m).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = scalar.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{} member {m}", f.name());
            }
        }
    }

    #[test]
    fn fallback_engages_for_unbatched_forecasters() {
        struct Shim(MovingAverage);
        impl Forecaster for Shim {
            fn forecast_into(
                &self,
                history: &HistoryView<'_>,
                scratch: &mut ForecastScratch,
                out: &mut [f64],
            ) {
                self.0.forecast_into(history, scratch, out)
            }
            fn history_len(&self) -> usize {
                self.0.history_len()
            }
            fn dims(&self) -> usize {
                self.0.dims()
            }
            fn name(&self) -> &'static str {
                "shim"
            }
        }
        let inner = MovingAverage::new(3, 2);
        assert!(!Shim(inner.clone()).forecast_batch_slots(
            0,
            &[],
            &mut ForecastScratch::new(),
            &mut []
        ));
        let mut lane = BatchLane::new(Arc::new(Shim(inner.clone())));
        let w = flat(&ramp_rows(3, 2, 0.0));
        lane.push_window(&HistoryView::contiguous(&w, 2));
        let mut scratch = ForecastScratch::new();
        // A slot-major request on a forecaster without a slot-major
        // kernel lands on the per-member scalar path.
        lane.run_layout(LaneLayout::SlotMajor, &mut scratch);
        let mut scalar = vec![0.0; 2];
        inner.forecast_into(
            &HistoryView::contiguous(&w, 2),
            &mut ForecastScratch::new(),
            &mut scalar,
        );
        assert_eq!(lane.result(0), scalar.as_slice());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut lane = BatchLane::new(Arc::new(MovingAverage::new(4, 3)));
        let w = flat(&ramp_rows(4, 3, 0.0));
        for _ in 0..16 {
            lane.push_window(&HistoryView::contiguous(&w, 3));
        }
        let layout = plan_layout(lane.forecaster().cost_class(), lane.members());
        let mut scratch = ForecastScratch::new();
        lane.run_layout(layout, &mut scratch);
        let cap = (lane.windows.capacity(), lane.out.capacity());
        lane.clear();
        assert!(lane.is_empty());
        for _ in 0..16 {
            lane.push_window(&HistoryView::contiguous(&w, 3));
        }
        lane.run_layout(layout, &mut scratch);
        assert_eq!((lane.windows.capacity(), lane.out.capacity()), cap);
    }

    #[test]
    fn every_layout_is_bit_identical_for_every_family() {
        let train = Dataset::record(Skill::Experienced, 1, 0.02, 3);
        let forecasters: Vec<Arc<dyn Forecaster>> = vec![
            Arc::new(MovingAverage::new(5, 6)),
            Arc::new(Holt::default_teleop(5, 6)),
            Arc::new(KalmanCv::default_teleop(5, 6)),
            Arc::new(Var::fit(&train, 4, 1e-6).unwrap()),
            Arc::new(Var::fit_differenced(&train, 5, 1e-6).unwrap()),
        ];
        for f in forecasters {
            let rows = f.history_len();
            let dims = f.dims();
            let flats: Vec<Vec<f64>> = (0..40)
                .map(|m| flat(&ramp_rows(rows, dims, 0.17 * m as f64 - 3.0)))
                .collect();
            let mut scratch = ForecastScratch::new();
            let mut per_layout: Vec<Vec<u64>> = Vec::new();
            for layout in [LaneLayout::Scalar, LaneLayout::SlotMajor] {
                let mut lane = BatchLane::new(Arc::clone(&f));
                for w in &flats {
                    lane.push_window(&HistoryView::contiguous(w, dims));
                }
                lane.run_layout(layout, &mut scratch);
                per_layout.push(
                    (0..flats.len())
                        .flat_map(|m| lane.result(m).iter().map(|v| v.to_bits()))
                        .collect(),
                );
            }
            assert_eq!(per_layout[0], per_layout[1], "{}: slot-major", f.name());
        }
    }

    #[test]
    fn layout_plan_follows_cost_class_and_width() {
        assert_eq!(plan_layout(CostClass::Cheap, 1), LaneLayout::Scalar);
        assert_eq!(plan_layout(CostClass::Cheap, 4096), LaneLayout::Scalar);
        assert_eq!(plan_layout(CostClass::Expensive, 1), LaneLayout::Scalar);
        assert_eq!(
            plan_layout(CostClass::Expensive, SLOT_MAJOR_MIN_WIDTH - 1),
            LaneLayout::Scalar
        );
        assert_eq!(
            plan_layout(CostClass::Expensive, SLOT_MAJOR_MIN_WIDTH),
            LaneLayout::SlotMajor
        );
        let cheap: Arc<dyn Forecaster> = Arc::new(MovingAverage::new(4, 3));
        assert_eq!(cheap.cost_class(), CostClass::Cheap);
        let dear: Arc<dyn Forecaster> = Arc::new(KalmanCv::default_teleop(5, 6));
        assert_eq!(dear.cost_class(), CostClass::Expensive);
    }

    #[test]
    fn slot_major_transpose_is_exact() {
        let mut lane = BatchLane::new(Arc::new(MovingAverage::new(2, 2)));
        let windows = [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]];
        for w in &windows {
            lane.push_window(&HistoryView::contiguous(w, 2));
        }
        lane.transpose_slots();
        // Slot-major: for each of the 4 slots, both members' values.
        assert_eq!(lane.slots, [1.0, 5.0, 2.0, 6.0, 3.0, 7.0, 4.0, 8.0]);
    }
}
