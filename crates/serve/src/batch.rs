//! Per-shard batched forecasting sweep: SoA lanes across co-shard
//! sessions.
//!
//! Before each scheduling pass's mutable session sweep, the shard runs
//! an immutable *gather* pass over the same sessions in the same order:
//! every session whose next tick is provably a forecast-covered miss
//! ([`crate::Session::batch_window`]) contributes its history window to
//! the [`BatchLane`] keyed by its shared forecaster. One
//! [`BatchLane::run_layout`] per lane then computes every member's raw
//! forecast row, and the sweep hands each session its row through
//! [`crate::Session::advance_batched`].
//!
//! **Lane membership is re-derived from scratch every pass.** There is
//! no persistent registration to maintain across park/wake, migrate,
//! or adopt: a session is in a lane on a given pass iff its peek
//! qualifies on that pass, so membership is automatically correct
//! under any churn, and any ambiguity (pending late patch, warmup,
//! horizon hold, gated source) simply degrades that session to the
//! bit-identical scalar path for the pass.
//!
//! **Layout selection** follows [`plan_layout`]: per pass, each lane's
//! forecaster cost class and gathered width pick Scalar or slot-major.
//! Cheap families are never gathered, so their sessions keep the plain
//! scalar path and pay no window memcpy (gathering measured as a net
//! loss for them). An expensive family's narrow lane runs the
//! per-member scalar path over its gathered windows.

use crate::spec::{SessionId, SharedForecaster};
use foreco_forecast::{
    plan_layout, BatchLane, CostClass, ForecastScratch, Forecaster, HistoryView,
};
use foreco_store::ObjectId;
use std::collections::HashMap;
use std::sync::Arc;

/// Lane key. Registered models key by their store **content address**:
/// stable across drops and re-registrations (no pointer-reuse ABA
/// between passes) and shared by wrappers that hold the same trained
/// weights in different allocations, which merges their lanes. Dims
/// and window length are functions of the model, so the key alone
/// groups correctly — and two independently trained models never share
/// a lane even when their parameters coincide (different content ⇒
/// different address; unregistered ⇒ distinct pointers).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum LaneKey {
    /// Content address of a store-registered model.
    Store(ObjectId),
    /// Pointer identity, the fallback for unregistered models.
    Ptr(usize),
}

fn lane_key(model: &SharedForecaster) -> LaneKey {
    match model.store_id() {
        Some(id) => LaneKey::Store(id),
        None => LaneKey::Ptr(Arc::as_ptr(&model.shared()) as *const () as usize),
    }
}

/// The per-shard batching planner: lanes plus this pass's membership
/// plan. All buffers are retained across passes — steady-state gathers
/// and sweeps allocate nothing once the fleet's high-water lane shapes
/// have been seen.
pub(crate) struct BatchPlanner {
    lanes: Vec<BatchLane>,
    by_key: HashMap<LaneKey, usize>,
    /// `(session, lane, member)` in gather order — the same ascending
    /// session order the sweep visits, so consumption is a cursor walk.
    plan: Vec<(SessionId, usize, usize)>,
    cursor: usize,
    scratch: ForecastScratch,
}

impl BatchPlanner {
    pub(crate) fn new() -> Self {
        Self {
            lanes: Vec::new(),
            by_key: HashMap::new(),
            plan: Vec::new(),
            cursor: 0,
            scratch: ForecastScratch::new(),
        }
    }

    /// Starts a new pass: clears membership, keeps lane buffers.
    pub(crate) fn begin_pass(&mut self) {
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.plan.truncate(0);
        self.cursor = 0;
    }

    /// Gathers one qualifying session's window into its lane — unless
    /// the family's committed layout is Scalar (cheap kernels), in
    /// which case the session is left to its own scalar path and pays
    /// no gather at all.
    pub(crate) fn gather(
        &mut self,
        id: SessionId,
        model: &SharedForecaster,
        history: &HistoryView<'_>,
    ) {
        if model.cost_class() == CostClass::Cheap {
            return;
        }
        let key = lane_key(model);
        let lane = match self.by_key.get(&key) {
            Some(&i) => i,
            None => {
                self.lanes.push(BatchLane::new(model.shared()));
                self.by_key.insert(key, self.lanes.len() - 1);
                self.lanes.len() - 1
            }
        };
        let member = self.lanes[lane].push_window(history);
        self.plan.push((id, lane, member));
    }

    /// Runs every non-empty lane's batched forecast in the layout
    /// [`plan_layout`] picks for its cost class and gathered width.
    pub(crate) fn run(&mut self) {
        for lane in &mut self.lanes {
            let layout = plan_layout(lane.forecaster().cost_class(), lane.members());
            lane.run_layout(layout, &mut self.scratch);
        }
    }

    /// The prepared forecast row for `id`, when this pass's plan has
    /// one. The sweep visits sessions in gather order, so this is an
    /// O(1) cursor step; out-of-order lookups (a session completed and
    /// removed mid-pass shifts nothing — the plan is immutable) still
    /// resolve by skipping past stale entries.
    pub(crate) fn take(&mut self, id: SessionId) -> Option<&[f64]> {
        while let Some(&(planned, lane, member)) = self.plan.get(self.cursor) {
            match planned == id {
                true => {
                    self.cursor += 1;
                    return Some(self.lanes[lane].result(member));
                }
                false if planned < id => self.cursor += 1,
                false => return None,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foreco_forecast::{KalmanCv, MovingAverage};
    use foreco_store::Storage;

    /// The scalar forecast the planner's row must reproduce bit for bit.
    fn scalar(model: &SharedForecaster, window: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; model.dims()];
        model.forecast_into(
            &HistoryView::contiguous(window, model.dims()),
            &mut ForecastScratch::new(),
            &mut out,
        );
        out
    }

    #[test]
    fn plan_is_cursor_consumable_across_lanes() {
        // Kalman-CV is an expensive family, so the planner gathers it.
        let kf2 = SharedForecaster::new(KalmanCv::default_teleop(2, 1));
        let kf3 = SharedForecaster::new(KalmanCv::default_teleop(3, 1));
        let mut planner = BatchPlanner::new();
        planner.begin_pass();
        let w2 = [1.0, 3.0];
        let w3 = [0.0, 3.0, 6.0];
        let (want2, want3) = (scalar(&kf2, &w2), scalar(&kf3, &w3));
        planner.gather(1, &kf2, &HistoryView::contiguous(&w2, 1));
        planner.gather(4, &kf3, &HistoryView::contiguous(&w3, 1));
        planner.gather(9, &kf2, &HistoryView::contiguous(&w2, 1));
        planner.run();
        assert_eq!(planner.take(0), None);
        assert_eq!(planner.take(1), Some(&want2[..]));
        assert_eq!(planner.take(2), None);
        assert_eq!(planner.take(4), Some(&want3[..]));
        assert_eq!(planner.take(9), Some(&want2[..]));
        assert_eq!(planner.take(10), None);

        // Next pass reuses lanes with fresh membership.
        planner.begin_pass();
        planner.gather(7, &kf2, &HistoryView::contiguous(&w2, 1));
        planner.run();
        assert_eq!(planner.take(7), Some(&want2[..]));
    }

    #[test]
    fn same_parameters_different_registrations_stay_separate() {
        let a = SharedForecaster::new(KalmanCv::default_teleop(2, 1));
        let b = SharedForecaster::new(KalmanCv::default_teleop(2, 1));
        let mut planner = BatchPlanner::new();
        planner.begin_pass();
        let w = [1.0, 3.0];
        planner.gather(1, &a, &HistoryView::contiguous(&w, 1));
        planner.gather(2, &b, &HistoryView::contiguous(&w, 1));
        assert_eq!(planner.lanes.len(), 2, "identity keys, not parameters");
    }

    #[test]
    fn cheap_families_are_never_gathered_under_the_adaptive_plan() {
        let ma = SharedForecaster::new(MovingAverage::new(2, 1));
        let mut planner = BatchPlanner::new();
        planner.begin_pass();
        let w = [1.0, 3.0];
        planner.gather(1, &ma, &HistoryView::contiguous(&w, 1));
        planner.run();
        assert!(planner.lanes.is_empty(), "cheap family must not gather");
        assert_eq!(planner.take(1), None, "session stays on its scalar path");
    }

    #[test]
    fn store_registered_models_merge_lanes_by_content() {
        let store = Storage::new();
        // Two independent registrations of bit-identical weights: the
        // store dedups them to one content address, so their sessions
        // share one lane even though the wrappers were built apart.
        let a = SharedForecaster::register(KalmanCv::default_teleop(2, 1), &store).unwrap();
        let b = SharedForecaster::register(KalmanCv::default_teleop(2, 1), &store).unwrap();
        assert_eq!(a.store_id(), b.store_id(), "content-addressed dedup");
        let mut planner = BatchPlanner::new();
        planner.begin_pass();
        let w = [1.0, 3.0];
        let want = scalar(&a, &w);
        planner.gather(1, &a, &HistoryView::contiguous(&w, 1));
        planner.gather(2, &b, &HistoryView::contiguous(&w, 1));
        assert_eq!(planner.lanes.len(), 1, "same content, same lane");
        planner.run();
        assert_eq!(planner.take(1), Some(&want[..]));
        assert_eq!(planner.take(2), Some(&want[..]));

        // An unregistered wrapper around different-parameter weights
        // still gets its own pointer-keyed lane next to the store lane.
        let c = SharedForecaster::new(KalmanCv::default_teleop(3, 1));
        planner.begin_pass();
        let w3 = [0.0, 3.0, 6.0];
        planner.gather(3, &a, &HistoryView::contiguous(&w, 1));
        planner.gather(4, &c, &HistoryView::contiguous(&w3, 1));
        assert_eq!(planner.lanes.len(), 2);
    }
}
