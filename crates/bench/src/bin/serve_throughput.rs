//! Throughput of the `foreco-serve` shard pool: session-ticks per second
//! swept over shard count × session count, plus the **idle-heavy**
//! scenario that pins the event-driven scheduler's scaling claim —
//! written to `BENCH_serve.json` so CI can track the service's perf
//! trajectory.
//!
//! One session-tick = one full hosted loop step (reference driver +
//! impaired driver + recovery engine), so ticks/sec × 1/50 Hz is the
//! number of real-time 50 Hz loops one process could sustain.
//!
//! The idle-heavy scenario models the production fleet shape: thousands
//! of streamed sessions, a few percent of them carrying live traffic,
//! the rest silent. Under the event-driven scheduler the silent ones
//! park at their idle fixed point, so `wakeups_per_tick` (mean session
//! advances per scheduling pass) must track the *active* population —
//! the eager sweep's is pinned at the total. CI asserts the event-mode
//! number against `FORECO_SERVE_WAKEUP_BUDGET` to catch regressions
//! back to O(total-sessions) sweeps.
//!
//! The **ingress** scenario measures the `foreco-net` gateway: the same
//! teleop frames pushed through the full wire pipeline (codec → reorder
//! → gated injection) over the in-process loopback transport vs real
//! localhost UDP, reported as datagrams/sec.
//!
//! The **fleet_soak** scenario churns thousands of short-lived sessions
//! through open → replay → (periodic) snapshot → close on worker
//! threads while a scraper hits the Prometheus metrics endpoint and a
//! poll-mode subscriber drains the fleet event feed — the
//! observability plane exercised *during* churn, with scrape latency
//! percentiles and event delivery/drop counts recorded.
//!
//! The **engine_hot_path** scenario profiles one hosted session's
//! steady-state tick (source → engine → both PID drivers → metrics) in
//! isolation: per-tick wall nanoseconds and — through a counting global
//! allocator — heap allocations per tick, under the replay's hit/miss
//! mix. Since the flat-ring + `forecast_into` rework the allocs/tick
//! figure must be ~0 (the `hot_path_allocs` test pins exactly 0 per
//! steady tick); this row gives the perf trajectory a trend line.
//!
//! The **calibration** scenario runs a frozen pure-f64 arithmetic
//! kernel (see [`calibration_run`]) and reports its iterations/sec —
//! a measure of *this* container's scalar f64 speed, taken in the same
//! process as every other scenario. Dividing engine throughput by it
//! yields a dimensionless ratio that is comparable across machines,
//! which is what the CI perf gate asserts (`FORECO_ENGINE_TICKS_RATIO`)
//! instead of an absolute ticks/s constant that only reproduces on the
//! container it was recorded on.
//!
//! The **batched** scenario pits the per-session scalar miss path
//! (`tick_into(None)`, one virtual dispatch per engine) against the
//! batched lane in the layout the adaptive plan
//! ([`foreco_forecast::plan_layout`]) picks for each family at the
//! fleet width (gather windows → one lane sweep → hand each engine its
//! row via `tick_miss_prepared`) across a fleet of engines sharing one
//! forecaster, asserts the outputs are bit-identical, and records
//! `batched_speedup_vs_scalar` per family. Families whose plan is
//! Scalar (cheap kernels — MA, Holt) are never gathered in the serve
//! planner, so their "batched" column re-times the scalar path: the
//! recorded speedup is the noise floor the "throughput unchanged"
//! claim is judged against.
//!
//! The **lane_sweep** scenario validates the layout threshold behind
//! that plan: for each expensive family it forces slot-major lanes
//! across widths 1–1024 (straddling `SLOT_MAJOR_MIN_WIDTH` with
//! width−1/width/width+1 cells) against a scalar reference fleet,
//! records per-width speedups plus the layout the plan would choose,
//! and exits non-zero if a lane moves a single bit.
//!
//! Knobs: `FORECO_SERVE_SESSIONS` (default 1024),
//! `FORECO_SERVE_CYCLES` (replay length, default 1),
//! `FORECO_SERVE_SHARDS` (comma list, default `1,2,4,8`),
//! `FORECO_SERVE_IDLE_SESSIONS` (default 4096),
//! `FORECO_SERVE_IDLE_ACTIVE_PCT` (default 2),
//! `FORECO_SERVE_IDLE_ROUNDS` (hot-session inject rounds, default 400),
//! `FORECO_SERVE_WAKEUP_BUDGET` (optional hard ceiling on idle-heavy
//! event-mode wakeups/tick; breach exits non-zero),
//! `FORECO_ENGINE_TICKS_RATIO` (optional hard floor on 1-shard
//! `ticks_per_sec` ÷ calibration iterations/sec; shortfall exits
//! non-zero — the CI regression gate, set to committed-baseline-ratio
//! × 0.9; recalibration rule in ROADMAP),
//! `FORECO_SERVE_BATCH_SESSIONS` (batched-lane fleet size, default 256),
//! `FORECO_SERVE_BATCH_ROUNDS` (measured miss rounds, default 400),
//! `FORECO_SERVE_SWEEP_WIDTHS` (lane_sweep width list, default
//! `1,2,4,8,16,31,32,33,64,128,256,512,1024`),
//! `FORECO_SERVE_SWEEP_TICKS` (target miss ticks per lane_sweep cell,
//! default 16384 — rounds scale inversely with width),
//! `FORECO_SERVE_HOTPATH_TICKS` (measured hot-path ticks, default 200000),
//! `FORECO_SERVE_INGRESS_SESSIONS` (default 16),
//! `FORECO_SERVE_INGRESS_FRAMES` (per-session datagrams, default 1000),
//! `FORECO_SERVE_SOAK_SESSIONS` (fleet-soak churn size, default 10000),
//! `FORECO_SERVE_SOAK_TICKS` (fleet-soak ticks/session, default 32),
//! `FORECO_SERVE_DEDUP_SESSIONS` (shared-storage fleet size, default 1024),
//! `FORECO_SERVE_DEDUP_CYCLES` (shared trace length, default 4),
//! `FORECO_SERVE_OUT` (output path, default `BENCH_serve.json`).
//!
//! The **bytes_per_session** scenario measures the `foreco-store` dedup
//! win: a fleet of scripted sessions all replaying one trace, reported
//! as resident source bytes/session (private copies vs store claims)
//! and bulk checkpoint bytes/session (self-contained snapshots vs one
//! deduplicated `FleetArchive`), plus the proof that sessions adopted
//! out of the archive into a fresh service finish **bit-identically**
//! to their donors (divergence exits non-zero).

use foreco_bench::{banner, env_knob, Fixture};
use foreco_core::RecoveryConfig;
use foreco_forecast::{CostClass, Holt, KalmanCv, LaneLayout, MovingAverage};
use foreco_serve::{
    Advance, BalancerConfig, ChannelSpec, EventWait, RecoverySpec, Scheduler, Service,
    ServiceConfig, Session, SessionSnapshot, SessionSpec, SharedForecaster, SourceSpec,
};
use foreco_teleop::{Dataset, Skill};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// System allocator with per-thread allocation and net-byte counters,
/// so the hot-path scenario can report allocs/tick alongside ns/tick
/// and the dedup scenario can report resident source bytes.
struct CountingAllocator;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Net heap bytes allocated by the calling thread (allocs − frees).
fn thread_bytes() -> i64 {
    THREAD_BYTES.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + layout.size() as i64));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + layout.size() as i64));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + new_size as i64 - layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = THREAD_BYTES.try_with(|c| c.set(c.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[derive(Serialize)]
struct Row {
    shards: usize,
    sessions: u64,
    total_ticks: u64,
    total_misses: u64,
    wall_s: f64,
    ticks_per_sec: f64,
    speedup_vs_1_shard: f64,
    rmse_p50_mm: f64,
    rmse_p99_mm: f64,
}

#[derive(Serialize)]
struct IdleRow {
    scheduler: String,
    shards: usize,
    sessions: u64,
    active_sessions: u64,
    inject_rounds: usize,
    wall_s: f64,
    passes: u64,
    wakeups: u64,
    /// Mean session advances per scheduling pass — the scaling metric.
    wakeups_per_tick: f64,
    /// `wakeups_per_tick / sessions`: fraction of the fleet awake on an
    /// average pass.
    runnable_ratio: f64,
    timer_wakeups: u64,
    traffic_wakeups: u64,
    balancer_migrations: u64,
    total_session_ticks: u64,
}

#[derive(Serialize)]
struct IngressRow {
    transport: String,
    sessions: u64,
    frames_per_session: usize,
    datagrams: u64,
    wall_s: f64,
    datagrams_per_sec: f64,
    delivered: u64,
    lost: u64,
}

/// The fleet-soak scenario: thousands of sessions churned through
/// open → replay → (periodic) snapshot → close while the metrics
/// endpoint is scraped live and an event subscriber drinks the fleet's
/// lifecycle — the observability plane measured *under* load, not
/// after it.
#[derive(Serialize)]
struct FleetSoakRow {
    sessions: u64,
    shards: usize,
    ticks_per_session: usize,
    wall_s: f64,
    /// Session-ticks confirmed by close reports.
    session_ticks: u64,
    ticks_per_sec: f64,
    /// Mid-churn checkpoints taken (every 16th session).
    snapshots: u64,
    /// Prometheus scrapes completed during the churn.
    scrapes: u64,
    scrape_p50_us: f64,
    scrape_p99_us: f64,
    scrape_max_us: f64,
    /// Fleet events the live subscriber received.
    events_delivered: u64,
    /// Events shed by the subscriber's bounded queue (drop-oldest).
    events_dropped: u64,
}

#[derive(Serialize)]
struct HotPathRow {
    forecaster: String,
    /// Measured steady-state ticks (warmup excluded).
    ticks: u64,
    /// Misses across the full sessions (the hit/miss mix context).
    misses: u64,
    miss_fraction: f64,
    wall_s: f64,
    ns_per_tick: f64,
    ticks_per_sec: f64,
    /// Heap allocations per measured tick (counting allocator) — ~0
    /// since the flat-ring engine rework.
    allocs_per_tick: f64,
}

#[derive(Serialize)]
struct BytesRow {
    sessions: u64,
    trace_commands: usize,
    /// Net heap bytes to hold the fleet's command sources with one
    /// private trace copy per session (the pre-store layout).
    naive_source_bytes: i64,
    /// Same fleet's sources as store claims on one resident trace.
    stored_source_bytes: i64,
    naive_source_bytes_per_session: f64,
    stored_source_bytes_per_session: f64,
    resident_reduction: f64,
    /// Σ of per-session self-contained snapshot bytes (each one
    /// materialising the full trace) — the pre-archive checkpoint cost.
    inline_archive_bytes: u64,
    /// One `FleetArchive`: the trace once, sessions by reference.
    dedup_archive_bytes: u64,
    inline_archive_bytes_per_session: f64,
    dedup_archive_bytes_per_session: f64,
    archive_reduction: f64,
    /// Every adopted session's final report matched its donor bit for
    /// bit (ticks, misses, RMSE bits, max-deviation bits).
    restored_bit_identical: bool,
}

/// The snapshot-churn scenario row: encode+decode throughput and
/// bytes/session for the same donor fleet through both live codecs —
/// the legacy JSON v2 document and the v3 binary frame (shard-style
/// reusable scratch). The ratio is the number the v3 rework claims.
#[derive(Serialize)]
struct SnapshotChurnRow {
    sessions: u64,
    /// Encode+decode passes over the whole donor fleet per codec.
    rounds: usize,
    json_wall_s: f64,
    json_sessions_per_sec: f64,
    json_bytes_per_session: f64,
    binary_wall_s: f64,
    binary_sessions_per_sec: f64,
    binary_bytes_per_session: f64,
    /// Binary sessions/s ÷ JSON sessions/s over the same donors.
    codec_speedup: f64,
    /// JSON bytes/session ÷ binary bytes/session.
    bytes_reduction: f64,
    /// Every binary round-trip reproduced its donor exactly (struct
    /// equality — every f64 bit), checked outside the timed loops.
    decode_exact: bool,
}

#[derive(Serialize)]
struct CalibrationRow {
    /// Fixed iteration count of the frozen kernel.
    iterations: u64,
    wall_s: f64,
    /// This container's scalar-f64 speed — the denominator of the
    /// relative perf gate.
    iterations_per_sec: f64,
}

#[derive(Serialize)]
struct BatchedRow {
    forecaster: String,
    /// Engines sharing the lane's forecaster.
    lane_sessions: usize,
    /// The layout the adaptive plan picked for this family at this
    /// width ("Scalar" = the serve planner never gathers the family).
    layout: String,
    /// Measured miss ticks per path (rounds × lane_sessions).
    ticks: u64,
    scalar_ns_per_tick: f64,
    batched_ns_per_tick: f64,
    /// Scalar ns/tick ÷ batched ns/tick over the same miss ticks.
    batched_speedup_vs_scalar: f64,
    /// Every miss tick's forecast matched the scalar path bit for bit.
    bit_identical: bool,
}

#[derive(Serialize)]
struct LaneSweepRow {
    forecaster: String,
    /// Lane width (engines sharing the forecaster).
    width: usize,
    /// The layout this row forced and measured.
    layout: String,
    /// The layout [`foreco_forecast::plan_layout`] would choose at
    /// this width — the threshold this sweep exists to validate.
    chosen: String,
    /// Measured miss ticks per path (rounds × width).
    ticks: u64,
    scalar_ns_per_tick: f64,
    layout_ns_per_tick: f64,
    /// Scalar ns/tick ÷ forced-layout ns/tick.
    speedup_vs_scalar: f64,
    /// Every miss tick's forecast matched the scalar path bit for bit.
    bit_identical: bool,
}

#[derive(Serialize)]
struct Output {
    bench: String,
    sessions: u64,
    ticks_per_session: usize,
    forecaster: String,
    /// `std::thread::available_parallelism()` in the measuring process
    /// — recorded so shard-scaling rows can be read against how many
    /// hardware threads the container actually had.
    available_parallelism: usize,
    /// The shard counts the scaling sweep ran (`rows` has one entry
    /// per count).
    shard_counts: Vec<usize>,
    calibration: CalibrationRow,
    /// 1-shard `ticks_per_sec` ÷ calibration iterations/sec — the
    /// dimensionless number the CI gate bounds.
    engine_vs_calibration_ratio: f64,
    rows: Vec<Row>,
    engine_hot_path: Vec<HotPathRow>,
    batched: Vec<BatchedRow>,
    lane_sweep: Vec<LaneSweepRow>,
    idle_heavy: Vec<IdleRow>,
    ingress: Vec<IngressRow>,
    fleet_soak: FleetSoakRow,
    bytes_per_session: BytesRow,
    snapshot_churn: SnapshotChurnRow,
}

/// The frozen calibration kernel: a fixed-length pure-f64 arithmetic
/// chain over a SplitMix64 stream. Its iterations/sec measures the
/// container's scalar floating-point speed with zero dependence on any
/// foreco crate, so `engine ticks/s ÷ calibration iters/s` is a
/// dimensionless ratio that transfers across machines — the basis of
/// the CI perf gate.
///
/// **FROZEN — never modify this function.** Any change to the
/// arithmetic (or the iteration count passed by `main`) silently
/// rescales every recorded ratio; the gate must then be recalibrated
/// (see ROADMAP "CI perf gates").
fn calibration_run(iterations: u64) -> CalibrationRow {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut acc = 1.0f64;
    let t0 = Instant::now();
    for _ in 0..iterations {
        // ~the engine's mix: a multiply-add, a divide, a square root.
        let x = (next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        acc = (acc * 0.999_999 + x).sqrt() + x / (1.0 + acc);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    CalibrationRow {
        iterations,
        wall_s,
        iterations_per_sec: iterations as f64 / wall_s,
    }
}

/// One lane-vs-scalar measurement: two identically-warmed fleets of
/// recovery engines sharing one forecaster march through the same
/// deliver/miss cadence; the miss ticks are timed per path (scalar
/// `tick_into(None)` vs lane gather → one `run_layout` sweep →
/// `tick_miss_prepared`) and every forecast is compared bit for bit.
/// Cheap families are never gathered: their second fleet re-times the
/// scalar path with no gather at all — exactly what the serve planner
/// does with them, so the recorded "speedup" is the noise floor.
/// Expensive families are gathered, and a `LaneLayout::Scalar` lane
/// then runs per-member `forecast_into` over the gathered windows.
fn lane_measure(
    forecaster: &SharedForecaster,
    fx: &Fixture,
    replay: &[Vec<f64>],
    lane_sessions: usize,
    rounds: usize,
    layout: foreco_forecast::LaneLayout,
) -> (u64, f64, f64, bool) {
    use foreco_core::RecoveryEngine;
    use foreco_forecast::{BatchLane, ForecastScratch, Forecaster};

    let dof = fx.model.dof();
    let build_fleet = || -> Vec<RecoveryEngine> {
        (0..lane_sessions)
            .map(|_| {
                RecoveryEngine::new(
                    Box::new(forecaster.clone()),
                    RecoveryConfig::for_model(&fx.model),
                    fx.model.clamp(&replay[0]),
                )
            })
            .collect()
    };
    let mut scalar = build_fleet();
    let mut batched = build_fleet();
    let mut out_a = vec![0.0f64; dof];
    let mut out_b = vec![0.0f64; dof];
    // Warm both fleets past the forecast horizon on real deliveries.
    let warmup = forecaster.history_len() + 2;
    for j in 0..warmup {
        let cmd = fx.model.clamp(&replay[j % replay.len()]);
        for e in scalar.iter_mut().chain(batched.iter_mut()) {
            e.tick_into(Some(&cmd), &mut out_a);
        }
    }

    let mut lane = BatchLane::new(forecaster.shared());
    let mut scratch = ForecastScratch::new();
    let mut bit_identical = true;
    let mut scalar_wall = Duration::ZERO;
    let mut batched_wall = Duration::ZERO;
    let mut mismatch_scratch = vec![0u64; lane_sessions * dof];
    for round in 0..rounds {
        // Timed miss tick, scalar path: one virtual dispatch per engine.
        let t0 = Instant::now();
        for (i, e) in scalar.iter_mut().enumerate() {
            e.tick_into(None, &mut out_a);
            for (slot, v) in mismatch_scratch[i * dof..(i + 1) * dof]
                .iter_mut()
                .zip(&out_a)
            {
                *slot = v.to_bits();
            }
        }
        scalar_wall += t0.elapsed();

        // Timed miss tick, lane path. Cheap family = no gather: the
        // fleet keeps its per-engine dispatch, as in the serve planner.
        let t0 = Instant::now();
        match forecaster.cost_class() {
            CostClass::Cheap => {
                for (i, e) in batched.iter_mut().enumerate() {
                    e.tick_into(None, &mut out_b);
                    bit_identical &= mismatch_scratch[i * dof..(i + 1) * dof]
                        .iter()
                        .zip(&out_b)
                        .all(|(&bits, v)| bits == v.to_bits());
                }
            }
            CostClass::Expensive => {
                lane.clear();
                for e in &batched {
                    lane.push_window(&e.history_view());
                }
                lane.run_layout(layout, &mut scratch);
                for (i, e) in batched.iter_mut().enumerate() {
                    e.tick_miss_prepared(lane.result(i), &mut out_b);
                    bit_identical &= mismatch_scratch[i * dof..(i + 1) * dof]
                        .iter()
                        .zip(&out_b)
                        .all(|(&bits, v)| bits == v.to_bits());
                }
            }
        }
        batched_wall += t0.elapsed();

        // Untimed delivery keeps both fleets under the forecast horizon.
        let cmd = fx.model.clamp(&replay[round % replay.len()]);
        for e in scalar.iter_mut().chain(batched.iter_mut()) {
            e.tick_into(Some(&cmd), &mut out_a);
        }
    }
    let ticks = (rounds * lane_sessions) as u64;
    let scalar_ns = scalar_wall.as_secs_f64() * 1e9 / ticks as f64;
    let batched_ns = batched_wall.as_secs_f64() * 1e9 / ticks as f64;
    (ticks, scalar_ns, batched_ns, bit_identical)
}

/// The batched scenario row for one family: measures the layout the
/// adaptive plan would actually run at this fleet width.
fn batched_run(
    name: &str,
    forecaster: SharedForecaster,
    fx: &Fixture,
    replay: &[Vec<f64>],
    lane_sessions: usize,
    rounds: usize,
) -> BatchedRow {
    use foreco_forecast::{plan_layout, Forecaster};
    let layout = plan_layout(forecaster.cost_class(), lane_sessions);
    let (ticks, scalar_ns, batched_ns, bit_identical) =
        lane_measure(&forecaster, fx, replay, lane_sessions, rounds, layout);
    BatchedRow {
        forecaster: name.to_string(),
        lane_sessions,
        layout: format!("{layout:?}"),
        ticks,
        scalar_ns_per_tick: scalar_ns,
        batched_ns_per_tick: batched_ns,
        batched_speedup_vs_scalar: scalar_ns / batched_ns,
        bit_identical,
    }
}

/// One lane_sweep cell: a forced slot-major lane at a fixed width,
/// plus the layout the plan would have chosen there.
fn lane_sweep_run(
    name: &str,
    forecaster: &SharedForecaster,
    fx: &Fixture,
    replay: &[Vec<f64>],
    width: usize,
    rounds: usize,
) -> LaneSweepRow {
    use foreco_forecast::{plan_layout, Forecaster};
    let layout = LaneLayout::SlotMajor;
    let chosen = plan_layout(forecaster.cost_class(), width);
    let (ticks, scalar_ns, layout_ns, bit_identical) =
        lane_measure(forecaster, fx, replay, width, rounds, layout);
    LaneSweepRow {
        forecaster: name.to_string(),
        width,
        layout: format!("{layout:?}"),
        chosen: format!("{chosen:?}"),
        ticks,
        scalar_ns_per_tick: scalar_ns,
        layout_ns_per_tick: layout_ns,
        speedup_vs_scalar: scalar_ns / layout_ns,
        bit_identical,
    }
}

/// Profiles one hosted session's steady-state tick: ns/tick and
/// allocs/tick over `target_ticks` measured advances (replay warmup and
/// session open/teardown excluded from both counters).
fn engine_hot_path_run(
    name: &str,
    forecaster: SharedForecaster,
    fx: &Fixture,
    replay: &Arc<Vec<Vec<f64>>>,
    target_ticks: u64,
) -> HotPathRow {
    let len = replay.len() as u64;
    let warmup = len / 8;
    let per_rep = len - warmup - 1;
    let reps = target_ticks.div_ceil(per_rep).max(1);
    let (mut ticks, mut misses, mut allocs) = (0u64, 0u64, 0u64);
    let mut wall = Duration::ZERO;
    for rep in 0..reps {
        let spec = SessionSpec::new(
            rep,
            SourceSpec::Replayed(Arc::clone(replay)),
            ChannelSpec::ControlledLoss {
                burst_len: 6,
                burst_prob: 0.01,
                seed: 70_000 + rep,
            },
            RecoverySpec::FoReCo {
                forecaster: forecaster.clone(),
                config: RecoveryConfig::for_model(&fx.model),
            },
        );
        let mut session = Session::open(&spec, &fx.model);
        for _ in 0..warmup {
            session.advance();
        }
        let a0 = thread_allocs();
        let t0 = Instant::now();
        for _ in 0..per_rep {
            session.advance();
        }
        wall += t0.elapsed();
        allocs += thread_allocs() - a0;
        ticks += per_rep;
        // Drain the tail to the report for the miss-mix context.
        let report = loop {
            if let Advance::Completed(report) = session.advance() {
                break report;
            }
        };
        misses += report.misses as u64;
    }
    let wall_s = wall.as_secs_f64();
    HotPathRow {
        forecaster: name.to_string(),
        ticks,
        misses,
        miss_fraction: misses as f64 / (reps * len) as f64,
        wall_s,
        ns_per_tick: wall_s * 1e9 / ticks as f64,
        ticks_per_sec: ticks as f64 / wall_s,
        allocs_per_tick: allocs as f64 / ticks as f64,
    }
}

/// Runs the idle-heavy fleet under one scheduler and measures the
/// wakeup profile.
fn idle_heavy_run(
    scheduler: Scheduler,
    shards: usize,
    sessions: u64,
    active: u64,
    rounds: usize,
    fx: &Fixture,
    forecaster: &SharedForecaster,
) -> IdleRow {
    let config = ServiceConfig {
        shards,
        scheduler,
        control_capacity: 4096,
        // Headroom for every session's Opened + Completed plus drop
        // notifications, so nothing deadlocks on a full event buffer.
        event_capacity: sessions as usize * 3 + 1024,
        balancer: Some(BalancerConfig::default()),
        ..Default::default()
    };
    let service = Service::spawn(config);
    let handle = service.handle();
    let home = fx.model.home();
    let started = Instant::now();
    for id in 0..sessions {
        handle
            .open(SessionSpec::new(
                id,
                SourceSpec::Streamed {
                    initial: home.clone(),
                    inbox_capacity: 8,
                },
                ChannelSpec::ControlledLoss {
                    burst_len: 5,
                    burst_prob: 0.02,
                    seed: 60_000 + id,
                },
                RecoverySpec::FoReCo {
                    forecaster: forecaster.clone(),
                    config: RecoveryConfig::for_model(&fx.model),
                },
            ))
            .expect("open session");
    }
    // Settle phase: a freshly opened silent fleet runs eagerly through
    // forecast horizon + PID settling. Wait for it to reach steady
    // state before measuring — parked under the event scheduler, simply
    // ticking under the eager one.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let loads = handle.shard_loads();
        let settled = match scheduler {
            Scheduler::EventDriven => loads.iter().map(|l| l.parked).sum::<u64>() == sessions,
            Scheduler::Eager => loads.iter().map(|l| l.passes).sum::<u64>() > 200,
        };
        if settled {
            break;
        }
        assert!(Instant::now() < deadline, "fleet never settled: {loads:?}");
        while let EventWait::Event(_) = service.next_event_timeout(Duration::ZERO) {}
        std::thread::sleep(Duration::from_millis(1));
    }
    let baseline = handle.shard_loads();

    // Hot phase: the active set gets a command per round (~1 kHz), the
    // rest stay silent; the metric is how many sessions the pool
    // touches per pass while most of the fleet is idle.
    let mut drained = 0u64;
    for round in 0..rounds {
        for id in 0..active {
            let mut cmd = home.clone();
            let joint = round % home.len();
            cmd[joint] += 0.01 * ((round % 5) as f64 - 2.0);
            let _ = handle.inject(id, cmd); // backpressure = loss, by design
        }
        // Keep the event buffer flowing (Opened / CommandDropped).
        while let EventWait::Event(e) = service.next_event_timeout(Duration::ZERO) {
            if matches!(e, foreco_serve::SessionEvent::Completed { .. }) {
                drained += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // Sample before teardown: the close wave wakes the whole parked
    // fleet and would smear the hot-phase wakeup profile. Hot-phase
    // deltas against the post-settle baseline are the honest numbers.
    let sample = handle.shard_loads();
    let wall_s = started.elapsed().as_secs_f64();

    // Tear down: close everyone (waking the parked fleet), drain all
    // reports.
    let mut total_session_ticks = 0u64;
    let mut completed = drained;
    for id in 0..sessions {
        handle.close(id).expect("close session");
        while let EventWait::Event(e) = service.next_event_timeout(Duration::ZERO) {
            if let foreco_serve::SessionEvent::Completed { report, .. } = e {
                total_session_ticks += report.ticks;
                completed += 1;
            }
        }
    }
    while completed < sessions {
        match service.next_event() {
            Some(foreco_serve::SessionEvent::Completed { report, .. }) => {
                total_session_ticks += report.ticks;
                completed += 1;
            }
            Some(_) => {}
            None => panic!("service died before every report"),
        }
    }
    service.join();

    let delta = |f: fn(&foreco_serve::ShardSummary) -> u64| -> u64 {
        sample.iter().zip(&baseline).map(|(s, b)| f(s) - f(b)).sum()
    };
    let passes = delta(|l| l.passes);
    let wakeups = delta(|l| l.wakeups);
    // Sum of per-shard advances-per-pass over the hot phase: "how many
    // sessions does the pool touch per tick slot" — directly comparable
    // to the total session count (where the eager sweep pins it). A
    // shard that ran no passes (fully parked) contributes zero.
    let wakeups_per_tick: f64 = sample
        .iter()
        .zip(&baseline)
        .map(|(s, b)| {
            let passes = s.passes - b.passes;
            if passes == 0 {
                0.0
            } else {
                (s.wakeups - b.wakeups) as f64 / passes as f64
            }
        })
        .sum();
    IdleRow {
        scheduler: format!("{scheduler:?}"),
        shards,
        sessions,
        active_sessions: active,
        inject_rounds: rounds,
        wall_s,
        passes,
        wakeups,
        wakeups_per_tick,
        runnable_ratio: wakeups_per_tick / sessions as f64,
        timer_wakeups: delta(|l| l.timer_wakeups),
        traffic_wakeups: delta(|l| l.traffic_wakeups),
        balancer_migrations: delta(|l| l.migrated_out),
        total_session_ticks,
    }
}

/// Pushes `frames` datagrams per session through the gateway on one
/// transport and measures the wire pipeline's throughput.
fn ingress_run(transport: &str, shards: usize, sessions: u64, trace: &[Vec<f64>]) -> IngressRow {
    use foreco_net::{ClientConfig, Gateway, GatewayConfig, NetClient, TcpControl, UdpWire};

    let gateway = Gateway::spawn(ServiceConfig::with_shards(shards), GatewayConfig::default())
        .expect("spawn gateway");
    let cfg = ClientConfig {
        window: 64,
        ..ClientConfig::default()
    };
    let started = Instant::now();
    let (mut delivered, mut lost) = (0u64, 0u64);
    for id in 0..sessions {
        let ingress = match transport {
            "loopback" => {
                let (data, control) = gateway.loopback();
                let mut client = NetClient::new(id, data, control);
                client.open(trace[0].clone(), trace.len()).expect("open");
                client.replay(trace, 0, &cfg).expect("replay");
                client.close().expect("close").1
            }
            _ => {
                let data = UdpWire::connect(gateway.udp_addr()).expect("udp");
                let control = TcpControl::connect(gateway.tcp_addr()).expect("tcp");
                let mut client = NetClient::new(id, data, control);
                client.open(trace[0].clone(), trace.len()).expect("open");
                client.replay(trace, 0, &cfg).expect("replay");
                client.close().expect("close").1
            }
        };
        delivered += ingress.delivered;
        lost += ingress.lost;
    }
    let wall_s = started.elapsed().as_secs_f64();
    gateway.shutdown();
    let datagrams = sessions * trace.len() as u64;
    IngressRow {
        transport: transport.to_string(),
        sessions,
        frames_per_session: trace.len(),
        datagrams,
        wall_s,
        datagrams_per_sec: datagrams as f64 / wall_s,
        delivered,
        lost,
    }
}

/// Churns `sessions` short-lived sessions through the gateway on
/// worker threads while a scraper hammers the Prometheus endpoint and
/// a poll-mode subscriber drains the fleet event feed — the
/// observability soak. Loopback transport: the point is control-plane
/// behaviour under churn, not socket throughput (the ingress scenario
/// owns that).
fn fleet_soak_run(shards: usize, sessions: u64, ticks: usize) -> FleetSoakRow {
    use foreco_net::{ClientConfig, ForecoClient, Gateway, GatewayConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    let gateway = Gateway::spawn(ServiceConfig::with_shards(shards), GatewayConfig::default())
        .expect("spawn soak gateway");
    let trace = Dataset::record(Skill::Inexperienced, 1, 0.02, 404)
        .head(ticks)
        .commands;
    let cfg = ClientConfig {
        window: 64,
        ..ClientConfig::default()
    };
    let workers = 8u64.min(sessions.max(1));
    let stop = AtomicBool::new(false);
    let started = Instant::now();

    let (wall_s, session_ticks, snapshots, mut scrape_us, events_delivered, events_dropped) =
        std::thread::scope(|s| {
            let worker_handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let (gateway, trace, cfg) = (&gateway, &trace, &cfg);
                    s.spawn(move || {
                        let (mut ticks_done, mut snaps) = (0u64, 0u64);
                        let mut id = worker;
                        while id < sessions {
                            let mut client = ForecoClient::loopback(gateway, id);
                            client
                                .open(trace[0].clone(), trace.len().max(16))
                                .expect("soak open");
                            client.replay(trace, 0, cfg).expect("soak replay");
                            if id % 16 == 0 {
                                let snapshot = client.snapshot().expect("soak snapshot");
                                assert!(!snapshot.is_empty());
                                snaps += 1;
                            }
                            let (report, _) = client.close().expect("soak close");
                            ticks_done += report.ticks;
                            id += workers;
                        }
                        (ticks_done, snaps)
                    })
                })
                .collect();

            // Live scrapes against the churn, latency recorded per scrape.
            let scraper = s.spawn(|| {
                let mut client = ForecoClient::loopback(&gateway, u64::MAX);
                let mut latencies_us = Vec::new();
                loop {
                    let done = stop.load(Ordering::Relaxed);
                    let begun = Instant::now();
                    let body = client.metrics().expect("soak scrape");
                    latencies_us.push(begun.elapsed().as_secs_f64() * 1e6);
                    assert!(body.contains("foreco_ticks_total"), "scrape body sane");
                    if done {
                        return latencies_us;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });

            // A poll-mode subscriber drinking the fleet's lifecycle.
            let subscriber = s.spawn(|| {
                let mut client = ForecoClient::loopback(&gateway, u64::MAX - 1);
                let subscription = client.subscribe().expect("soak subscribe");
                let (mut delivered, mut dropped) = (0u64, 0u64);
                loop {
                    let done = stop.load(Ordering::Relaxed);
                    let batch = client.poll_events(subscription, 4096).expect("soak poll");
                    delivered += batch.events.len() as u64;
                    dropped += batch.dropped;
                    if batch.events.is_empty() {
                        if done {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                client.unsubscribe(subscription).expect("soak unsubscribe");
                (delivered, dropped)
            });

            let (mut session_ticks, mut snapshots) = (0u64, 0u64);
            for handle in worker_handles {
                let (ticks_done, snaps) = handle.join().expect("soak worker");
                session_ticks += ticks_done;
                snapshots += snaps;
            }
            let wall_s = started.elapsed().as_secs_f64();
            stop.store(true, Ordering::Relaxed);
            let scrape_us = scraper.join().expect("soak scraper");
            let (delivered, dropped) = subscriber.join().expect("soak subscriber");
            (
                wall_s,
                session_ticks,
                snapshots,
                scrape_us,
                delivered,
                dropped,
            )
        });
    gateway.shutdown();

    scrape_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let percentile = |p: f64| scrape_us[((scrape_us.len() - 1) as f64 * p) as usize];
    FleetSoakRow {
        sessions,
        shards,
        ticks_per_session: ticks,
        wall_s,
        session_ticks,
        ticks_per_sec: session_ticks as f64 / wall_s,
        snapshots,
        scrapes: scrape_us.len() as u64,
        scrape_p50_us: percentile(0.50),
        scrape_p99_us: percentile(0.99),
        scrape_max_us: *scrape_us.last().expect("at least one scrape"),
        events_delivered,
        events_dropped,
    }
}

/// The shared-storage dedup scenario: a fleet of scripted sessions all
/// replaying one teleop trace, measured three ways — resident source
/// bytes (private copies vs store claims), bulk checkpoint bytes
/// (per-session inline snapshots vs one deduplicated `FleetArchive`),
/// and the determinism proof that every session adopted out of the
/// archive into a fresh service finishes bit-identically to its donor.
fn bytes_per_session_run(fx: &Fixture, sessions: u64, cycles: usize) -> BytesRow {
    use foreco_serve::SessionEvent;
    use foreco_store::Storage;
    use std::collections::HashMap;

    let dataset = Dataset::record(Skill::Inexperienced, cycles, 0.02, 8);
    let trace_commands = dataset.commands.len();
    let forecaster = SharedForecaster::new(fx.var.clone());

    // Resident footprint, measured by the counting allocator: N private
    // copies of the trace vs N claims on one resident object.
    let naive_source_bytes = {
        let before = thread_bytes();
        let copies: Vec<SourceSpec> = (0..sessions)
            .map(|_| SourceSpec::Replayed(Arc::new(dataset.commands.clone())))
            .collect();
        let held = thread_bytes() - before;
        drop(copies);
        held
    };
    let store = Storage::new();
    let stored_source_bytes = {
        let before = thread_bytes();
        let claims: Vec<SourceSpec> = (0..sessions)
            .map(|_| SourceSpec::stored(&store, &dataset))
            .collect();
        let held = thread_bytes() - before;
        drop(claims);
        held
    };
    assert_eq!(
        store.stats().traces.objects,
        0,
        "dropping the last claim must evict the trace"
    );

    // Donor fleet, built directly: each session opens on a clone of the
    // fleet's one claim, advances to a per-session checkpoint tick, and
    // exports its fleet part. Direct construction keeps the checkpoint
    // deterministic — a live unpaced pool races a lightly-loaded fleet
    // through a whole trace in under a millisecond, so service-side bulk
    // snapshots of scripted sessions are inherently racy against
    // completion. (`snapshot_fleet` itself is pinned by service-level
    // tests on streamed sessions, which park instead of completing.)
    let fleet_claim = store.insert_trace(&dataset.commands);
    let snap_span = (trace_commands / 2).max(1) as u64;
    let spec_for = |id: u64| {
        SessionSpec::new(
            id,
            SourceSpec::Stored(fleet_claim.clone()),
            ChannelSpec::ControlledLoss {
                burst_len: 6,
                burst_prob: 0.01,
                seed: 40_000 + id,
            },
            RecoverySpec::FoReCo {
                forecaster: forecaster.clone(),
                config: RecoveryConfig::for_model(&fx.model),
            },
        )
    };
    let ids: Vec<u64> = (0..sessions).collect();
    let mut parts = Vec::with_capacity(ids.len());
    let mut donor_fleet: Vec<(u64, Session)> = Vec::with_capacity(ids.len());
    for &id in &ids {
        let mut session = Session::open(&spec_for(id), &fx.model);
        // Spread checkpoint ticks across the first half of the trace so
        // the archive holds sessions at many distinct depths.
        for _ in 0..(id * 97 + 13) % snap_span {
            session.advance();
        }
        let part = session.snapshot_for_fleet().expect("fleet part");
        parts.push(part);
        donor_fleet.push((id, session));
    }
    let archive = foreco_serve::FleetArchive::build(parts);
    assert_eq!(
        archive.len(),
        sessions as usize,
        "every session must land in the archive"
    );
    assert_eq!(archive.traces().len(), 1, "one shared trace, stored once");

    // Checkpoint cost: the archive vs the same snapshots self-contained.
    let dedup_archive_bytes = archive.to_bytes().len() as u64;
    let inline_archive_bytes: u64 = archive
        .sessions()
        .expect("archive frames decode")
        .iter()
        .map(|snap| {
            snap.materialized(&archive.traces()[0].commands)
                .expect("rehydrate inline")
                .to_bytes()
                .len() as u64
        })
        .sum();

    // Donors run out; their reports are the bit-identity reference.
    let mut donors: HashMap<u64, foreco_serve::SessionReport> = HashMap::new();
    for (id, mut session) in donor_fleet {
        let report = loop {
            if let Advance::Completed(report) = session.advance() {
                break *report;
            }
        };
        donors.insert(id, report);
    }

    // Revival: a fresh service and a fresh store adopt the archive; the
    // trace table is filed once and every session claims it.
    let config = ServiceConfig {
        shards: 4,
        control_capacity: 4096,
        // Headroom for every Restored/Completed so adoption never
        // deadlocks on a full event buffer.
        event_capacity: sessions as usize * 4 + 1024,
        ..Default::default()
    };
    let revived = Service::spawn(config);
    let store_b = Storage::new();
    let sent = revived
        .handle()
        .adopt_fleet(archive, &store_b)
        .expect("adopt fleet");
    assert_eq!(sent as u64, sessions, "every archived session adopted");
    assert_eq!(store_b.stats().traces.objects, 1);
    let mut adopted: HashMap<u64, foreco_serve::SessionReport> = HashMap::new();
    while adopted.len() < sessions as usize {
        match revived.next_event().expect("revived service alive") {
            SessionEvent::Completed { id, report } => {
                adopted.insert(id, report);
            }
            SessionEvent::RestoreFailed { id, reason } => {
                panic!("session {id} failed to restore from the archive: {reason}")
            }
            _ => {}
        }
    }
    revived.join();

    let restored_bit_identical = ids.iter().all(|id| {
        let (a, b) = (&donors[id], &adopted[id]);
        a.ticks == b.ticks
            && a.misses == b.misses
            && a.rmse_mm.to_bits() == b.rmse_mm.to_bits()
            && a.max_deviation_mm.to_bits() == b.max_deviation_mm.to_bits()
    });

    let per = |total: i64| total as f64 / sessions as f64;
    BytesRow {
        sessions,
        trace_commands,
        naive_source_bytes,
        stored_source_bytes,
        naive_source_bytes_per_session: per(naive_source_bytes),
        stored_source_bytes_per_session: per(stored_source_bytes),
        resident_reduction: naive_source_bytes as f64 / stored_source_bytes.max(1) as f64,
        inline_archive_bytes,
        dedup_archive_bytes,
        inline_archive_bytes_per_session: per(inline_archive_bytes as i64),
        dedup_archive_bytes_per_session: per(dedup_archive_bytes as i64),
        archive_reduction: inline_archive_bytes as f64 / dedup_archive_bytes.max(1) as f64,
        restored_bit_identical,
    }
}

/// The snapshot-churn scenario: mid-run FoReCo donors (full forecaster
/// history, PID state, pre-drawn fates) pushed through encode+decode
/// round-trips on both live codecs. The JSON path is exactly what a v2
/// control plane did per `Snapshot`/`Adopt` (`to_json_bytes` +
/// `from_bytes`); the binary path is what a shard does per fleet part
/// (`encode_into` a reused scratch + `from_bytes`). Same donors, same
/// rounds — the ratios are honest whichever way they land.
fn snapshot_churn_run(fx: &Fixture, sessions: u64, rounds: usize) -> SnapshotChurnRow {
    let dataset = Dataset::record(Skill::Inexperienced, 1, 0.02, 8);
    let forecaster = SharedForecaster::new(fx.var.clone());
    let replay = Arc::new(dataset.commands.clone());
    let snap_at = (dataset.commands.len() / 2).max(1) as u64;
    let donors: Vec<SessionSnapshot> = (0..sessions)
        .map(|id| {
            let spec = SessionSpec::new(
                id,
                SourceSpec::Replayed(Arc::clone(&replay)),
                ChannelSpec::ControlledLoss {
                    burst_len: 6,
                    burst_prob: 0.01,
                    seed: 40_000 + id,
                },
                RecoverySpec::FoReCo {
                    forecaster: forecaster.clone(),
                    config: RecoveryConfig::for_model(&fx.model),
                },
            );
            let mut session = Session::open(&spec, &fx.model);
            while session.tick() < snap_at {
                assert!(matches!(session.advance(), Advance::Ticked(_)));
            }
            session.snapshot().expect("churn donor snapshotable")
        })
        .collect();

    // Correctness outside the timed loops: the binary round-trip must
    // reproduce every donor exactly (struct equality pins every bit).
    let decode_exact = donors
        .iter()
        .all(|donor| SessionSnapshot::from_bytes(&donor.to_bytes()).as_ref() == Ok(donor));

    let mut json_bytes = 0u64;
    let started = Instant::now();
    for _ in 0..rounds {
        for donor in &donors {
            let bytes = donor.to_json_bytes();
            json_bytes += bytes.len() as u64;
            let back = SessionSnapshot::from_bytes(&bytes).expect("JSON v2 decodes");
            std::hint::black_box(back);
        }
    }
    let json_wall_s = started.elapsed().as_secs_f64();

    let mut scratch: Vec<u8> = Vec::new();
    let mut binary_bytes = 0u64;
    let started = Instant::now();
    for _ in 0..rounds {
        for donor in &donors {
            scratch.clear();
            donor.encode_into(&mut scratch);
            binary_bytes += scratch.len() as u64;
            let back = SessionSnapshot::from_bytes(&scratch).expect("binary v3 decodes");
            std::hint::black_box(back);
        }
    }
    let binary_wall_s = started.elapsed().as_secs_f64();

    let total = sessions as f64 * rounds as f64;
    let json_sessions_per_sec = total / json_wall_s.max(1e-12);
    let binary_sessions_per_sec = total / binary_wall_s.max(1e-12);
    let json_bytes_per_session = json_bytes as f64 / total;
    let binary_bytes_per_session = binary_bytes as f64 / total;
    SnapshotChurnRow {
        sessions,
        rounds,
        json_wall_s,
        json_sessions_per_sec,
        json_bytes_per_session,
        binary_wall_s,
        binary_sessions_per_sec,
        binary_bytes_per_session,
        codec_speedup: binary_sessions_per_sec / json_sessions_per_sec.max(1e-12),
        bytes_reduction: json_bytes_per_session / binary_bytes_per_session.max(1e-12),
        decode_exact,
    }
}

fn main() {
    // env_knob rejects zero, which would otherwise leave summary()
    // with an empty registry (and this bench with nothing to report).
    let sessions = env_knob("FORECO_SERVE_SESSIONS", 1024) as u64;
    let cycles = env_knob("FORECO_SERVE_CYCLES", 1);
    let mut shard_counts: Vec<usize> = std::env::var("FORECO_SERVE_SHARDS")
        .unwrap_or_else(|_| "1,2,4,8".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n >= 1)
        .collect();
    if shard_counts.is_empty() {
        eprintln!("FORECO_SERVE_SHARDS parsed to nothing; using 1,2,4,8");
        shard_counts = vec![1, 2, 4, 8];
    }
    let out_path =
        std::env::var("FORECO_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string());

    banner(
        &format!("serve_throughput — {sessions} sessions over shards {shard_counts:?}"),
        "service-scale extension of §V (one recovery loop → thousands)",
    );

    let available_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let fx = Fixture::build();
    let forecaster = SharedForecaster::new(fx.var.clone());
    let replay = Arc::new(Dataset::record(Skill::Inexperienced, cycles, 0.02, 8).commands);
    println!(
        "workload: {} commands/session, {} sessions, forecaster {}, \
         {available_parallelism} hardware threads\n",
        replay.len(),
        sessions,
        forecaster.name()
    );
    println!(
        "{:>7} {:>12} {:>10} {:>14} {:>9} {:>10} {:>10}",
        "shards", "ticks", "wall [s]", "ticks/s", "speedup", "p50 [mm]", "p99 [mm]"
    );

    let specs = |n: u64| -> Vec<SessionSpec> {
        (0..n)
            .map(|id| {
                SessionSpec::new(
                    id,
                    SourceSpec::Replayed(Arc::clone(&replay)),
                    ChannelSpec::ControlledLoss {
                        burst_len: 6,
                        burst_prob: 0.01,
                        seed: 40_000 + id,
                    },
                    RecoverySpec::FoReCo {
                        forecaster: forecaster.clone(),
                        config: RecoveryConfig::for_model(&fx.model),
                    },
                )
            })
            .collect()
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut base_rate = 0.0f64;
    for &shards in &shard_counts {
        let service = Service::spawn(ServiceConfig::with_shards(shards));
        let started = Instant::now();
        let registry = service.run_to_completion(specs(sessions));
        let wall_s = started.elapsed().as_secs_f64();
        let summary = registry.summary().expect("sessions completed");
        let ticks_per_sec = summary.total_ticks as f64 / wall_s;
        if rows.is_empty() {
            base_rate = ticks_per_sec;
        }
        let speedup = ticks_per_sec / base_rate;
        println!(
            "{:>7} {:>12} {:>10.3} {:>14.0} {:>8.2}x {:>10.2} {:>10.2}",
            shards,
            summary.total_ticks,
            wall_s,
            ticks_per_sec,
            speedup,
            summary.rmse_mm.p50,
            summary.rmse_mm.p99
        );
        rows.push(Row {
            shards,
            sessions,
            total_ticks: summary.total_ticks,
            total_misses: summary.total_misses,
            wall_s,
            ticks_per_sec,
            speedup_vs_1_shard: speedup,
            rmse_p50_mm: summary.rmse_mm.p50,
            rmse_p99_mm: summary.rmse_mm.p99,
        });
    }

    // Optional CI gate: the single-shard throughput, normalised by the
    // frozen calibration kernel measured in this same process on this
    // same container, must not regress below the committed baseline
    // ratio × 0.9. Parsed up front so a typo fails fast, but the
    // verdict is deferred to the end of main — a breach must not
    // discard the engine_hot_path diagnostics (ns/tick, allocs/tick)
    // or the BENCH_serve.json artifact needed to debug it.
    let ratio_budget: Option<f64> = std::env::var("FORECO_ENGINE_TICKS_RATIO")
        .ok()
        .map(|v| v.parse().expect("FORECO_ENGINE_TICKS_RATIO: number"));

    // ---- calibration: the frozen container-speed denominator ----
    let calibration = calibration_run(20_000_000);
    let one_shard_rate = rows
        .iter()
        .find(|r| r.shards == 1)
        .map(|r| r.ticks_per_sec)
        .unwrap_or(0.0);
    let engine_vs_calibration_ratio = one_shard_rate / calibration.iterations_per_sec;
    println!(
        "\ncalibration: {:.0} kernel iters/s in {:.3} s — engine/calibration ratio {:.4}",
        calibration.iterations_per_sec, calibration.wall_s, engine_vs_calibration_ratio
    );

    // ---- engine hot path: one session's steady-state tick profile ----
    let hotpath_ticks = env_knob("FORECO_SERVE_HOTPATH_TICKS", 200_000) as u64;
    println!("\nengine hot path: ~{hotpath_ticks} measured steady-state ticks per forecaster");
    println!(
        "{:>10} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "forecaster", "ticks", "miss frac", "ns/tick", "ticks/s", "allocs/tick"
    );
    let hot_replay = Arc::new(Dataset::record(Skill::Inexperienced, 8, 0.02, 23).commands);
    let mut engine_hot_path = Vec::new();
    for (name, shared) in [
        ("VAR", forecaster.clone()),
        (
            "MA",
            SharedForecaster::new(MovingAverage::new(5, fx.model.dof())),
        ),
    ] {
        let row = engine_hot_path_run(name, shared, &fx, &hot_replay, hotpath_ticks);
        println!(
            "{:>10} {:>10} {:>10.4} {:>12.1} {:>12.0} {:>12.4}",
            row.forecaster,
            row.ticks,
            row.miss_fraction,
            row.ns_per_tick,
            row.ticks_per_sec,
            row.allocs_per_tick
        );
        engine_hot_path.push(row);
    }

    // ---- batched scenario: adaptive-plan lanes vs per-session dispatch ----
    let batch_sessions = env_knob("FORECO_SERVE_BATCH_SESSIONS", 256);
    let batch_rounds = env_knob("FORECO_SERVE_BATCH_ROUNDS", 400);
    let dof = fx.model.dof();
    let families: Vec<(&str, SharedForecaster)> = vec![
        ("VAR", forecaster.clone()),
        (
            "Kalman-CV",
            SharedForecaster::new(KalmanCv::default_teleop(7, dof)),
        ),
        ("MA", SharedForecaster::new(MovingAverage::new(5, dof))),
        ("Holt", SharedForecaster::new(Holt::default_teleop(7, dof))),
    ];
    println!(
        "\nbatched: {batch_sessions}-engine lanes × {batch_rounds} miss rounds, \
         scalar dispatch vs the adaptive plan's layout"
    );
    println!(
        "{:>10} {:>12} {:>10} {:>14} {:>14} {:>9} {:>14}",
        "forecaster", "layout", "ticks", "scalar ns/t", "batched ns/t", "speedup", "bit-identical"
    );
    let mut batched = Vec::new();
    for (name, shared) in &families {
        let row = batched_run(
            name,
            shared.clone(),
            &fx,
            &hot_replay,
            batch_sessions,
            batch_rounds,
        );
        println!(
            "{:>10} {:>12} {:>10} {:>14.1} {:>14.1} {:>8.2}x {:>14}",
            row.forecaster,
            row.layout,
            row.ticks,
            row.scalar_ns_per_tick,
            row.batched_ns_per_tick,
            row.batched_speedup_vs_scalar,
            row.bit_identical
        );
        if !row.bit_identical {
            eprintln!(
                "FAIL: batched {} lane diverged from the scalar path",
                row.forecaster
            );
            std::process::exit(1);
        }
        batched.push(row);
    }

    // ---- lane_sweep: layout speedup vs width, the threshold evidence ----
    let sweep_widths: Vec<usize> = std::env::var("FORECO_SERVE_SWEEP_WIDTHS")
        .unwrap_or_else(|_| "1,2,4,8,16,31,32,33,64,128,256,512,1024".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n >= 1)
        .collect();
    let sweep_ticks = env_knob("FORECO_SERVE_SWEEP_TICKS", 16_384);
    println!(
        "\nlane_sweep: forced slot-major vs scalar across widths \
         {sweep_widths:?} (~{sweep_ticks} miss ticks per cell)"
    );
    println!(
        "{:>10} {:>7} {:>12} {:>12} {:>14} {:>14} {:>9} {:>14}",
        "forecaster",
        "width",
        "layout",
        "chosen",
        "scalar ns/t",
        "layout ns/t",
        "speedup",
        "bit-identical"
    );
    let mut lane_sweep = Vec::new();
    // Only the expensive families have a slot-major kernel to sweep;
    // the cheap ones are covered by the batched rows above (their plan
    // is Scalar at every width, so a sweep would re-measure noise).
    for (name, shared) in families
        .iter()
        .filter(|(_, s)| foreco_forecast::Forecaster::cost_class(s) == CostClass::Expensive)
    {
        for &width in &sweep_widths {
            let rounds = (sweep_ticks / width).clamp(8, 128);
            let row = lane_sweep_run(name, shared, &fx, &hot_replay, width, rounds);
            println!(
                "{:>10} {:>7} {:>12} {:>12} {:>14.1} {:>14.1} {:>8.2}x {:>14}",
                row.forecaster,
                row.width,
                row.layout,
                row.chosen,
                row.scalar_ns_per_tick,
                row.layout_ns_per_tick,
                row.speedup_vs_scalar,
                row.bit_identical
            );
            if !row.bit_identical {
                eprintln!(
                    "FAIL: lane_sweep {} width {} layout {} diverged from the scalar path",
                    row.forecaster, row.width, row.layout
                );
                std::process::exit(1);
            }
            lane_sweep.push(row);
        }
    }

    // ---- idle-heavy scenario: mostly-parked fleet, few hot sessions ----
    let idle_sessions = env_knob("FORECO_SERVE_IDLE_SESSIONS", 4096) as u64;
    let active_pct = env_knob("FORECO_SERVE_IDLE_ACTIVE_PCT", 2) as u64;
    let rounds = env_knob("FORECO_SERVE_IDLE_ROUNDS", 400);
    let active = (idle_sessions * active_pct / 100).max(1);
    let idle_shards = *shard_counts.iter().max().expect("non-empty shard list");
    println!(
        "\nidle-heavy: {idle_sessions} streamed sessions, {active} active ({active_pct}%), \
         {idle_shards} shards, {rounds} inject rounds"
    );
    println!(
        "{:>12} {:>10} {:>12} {:>16} {:>15} {:>11}",
        "scheduler", "wall [s]", "passes", "wakeups/tick", "runnable ratio", "migrations"
    );
    let mut idle_heavy = Vec::new();
    for scheduler in [Scheduler::EventDriven, Scheduler::Eager] {
        // The eager sweep pays O(total sessions) per pass; a tenth of
        // the rounds is plenty to pin its (structural) wakeup rate.
        let sched_rounds = match scheduler {
            Scheduler::EventDriven => rounds,
            Scheduler::Eager => (rounds / 10).max(20),
        };
        let row = idle_heavy_run(
            scheduler,
            idle_shards,
            idle_sessions,
            active,
            sched_rounds,
            &fx,
            &forecaster,
        );
        println!(
            "{:>12} {:>10.3} {:>12} {:>16.1} {:>15.4} {:>11}",
            row.scheduler,
            row.wall_s,
            row.passes,
            row.wakeups_per_tick,
            row.runnable_ratio,
            row.balancer_migrations
        );
        idle_heavy.push(row);
    }

    // Optional CI gate: idle-heavy wakeups/tick must track the active
    // population, not the fleet size.
    if let Ok(budget) = std::env::var("FORECO_SERVE_WAKEUP_BUDGET") {
        let budget: f64 = budget.parse().expect("FORECO_SERVE_WAKEUP_BUDGET: number");
        let event_row = &idle_heavy[0];
        assert_eq!(event_row.scheduler, "EventDriven");
        if event_row.wakeups_per_tick > budget {
            eprintln!(
                "FAIL: idle-heavy wakeups/tick {:.1} exceeds budget {budget} \
                 ({} sessions, {} active) — scheduler regressed toward O(total) sweeps",
                event_row.wakeups_per_tick, event_row.sessions, event_row.active_sessions
            );
            std::process::exit(1);
        }
        println!(
            "wakeup budget: {:.1} ≤ {budget} (OK)",
            event_row.wakeups_per_tick
        );
    }

    // ---- ingress scenario: the wire pipeline, loopback vs UDP ----
    let ingress_sessions = env_knob("FORECO_SERVE_INGRESS_SESSIONS", 16) as u64;
    let ingress_frames = env_knob("FORECO_SERVE_INGRESS_FRAMES", 1000);
    let ingress_trace = Dataset::record(Skill::Inexperienced, 4, 0.02, 91)
        .head(ingress_frames)
        .commands;
    println!(
        "\ningress: {ingress_sessions} sessions × {} datagrams through the foreco-net gateway",
        ingress_trace.len()
    );
    println!(
        "{:>10} {:>10} {:>14} {:>12} {:>8}",
        "transport", "wall [s]", "datagrams/s", "delivered", "lost"
    );
    let mut ingress = Vec::new();
    for transport in ["loopback", "udp"] {
        let row = ingress_run(transport, idle_shards, ingress_sessions, &ingress_trace);
        println!(
            "{:>10} {:>10.3} {:>14.0} {:>12} {:>8}",
            row.transport, row.wall_s, row.datagrams_per_sec, row.delivered, row.lost
        );
        ingress.push(row);
    }

    // ---- fleet soak: observability plane under open/close churn ----
    let soak_sessions = env_knob("FORECO_SERVE_SOAK_SESSIONS", 10_000) as u64;
    let soak_ticks = env_knob("FORECO_SERVE_SOAK_TICKS", 32);
    println!(
        "\nfleet-soak: {soak_sessions} sessions × {soak_ticks} ticks churned over \
         {idle_shards} shards with live scrapes and a fleet-event subscriber"
    );
    let fleet_soak = fleet_soak_run(idle_shards, soak_sessions, soak_ticks);
    println!(
        "{:>10} {:>14} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "wall [s]", "ticks/s", "snapshots", "scrapes", "scrape p99", "events", "dropped"
    );
    println!(
        "{:>10.3} {:>14.0} {:>10} {:>10} {:>9.0} µs {:>12} {:>10}",
        fleet_soak.wall_s,
        fleet_soak.ticks_per_sec,
        fleet_soak.snapshots,
        fleet_soak.scrapes,
        fleet_soak.scrape_p99_us,
        fleet_soak.events_delivered,
        fleet_soak.events_dropped
    );
    assert_eq!(
        fleet_soak.session_ticks,
        soak_sessions * soak_ticks as u64,
        "every soak session must run its full trace"
    );

    // ---- shared-storage dedup: resident + checkpoint bytes/session ----
    let dedup_sessions = env_knob("FORECO_SERVE_DEDUP_SESSIONS", 1024) as u64;
    let dedup_cycles = env_knob("FORECO_SERVE_DEDUP_CYCLES", 4);
    println!(
        "\nbytes/session: {dedup_sessions} store-backed sessions sharing one \
         {dedup_cycles}-cycle trace"
    );
    let bytes_row = bytes_per_session_run(&fx, dedup_sessions, dedup_cycles);
    println!(
        "{:>24} {:>16} {:>16} {:>10}",
        "", "naive", "dedup", "reduction"
    );
    println!(
        "{:>24} {:>16.0} {:>16.0} {:>9.1}x",
        "resident source B/sess",
        bytes_row.naive_source_bytes_per_session,
        bytes_row.stored_source_bytes_per_session,
        bytes_row.resident_reduction
    );
    println!(
        "{:>24} {:>16.0} {:>16.0} {:>9.1}x",
        "archive B/sess",
        bytes_row.inline_archive_bytes_per_session,
        bytes_row.dedup_archive_bytes_per_session,
        bytes_row.archive_reduction
    );
    println!(
        "restored bit-identical to donors: {}",
        bytes_row.restored_bit_identical
    );
    if !bytes_row.restored_bit_identical {
        eprintln!("FAIL: archive-adopted sessions diverged from their donors");
        std::process::exit(1);
    }

    // ---- snapshot churn: JSON-v2 vs binary-v3 codec throughput ----
    let churn_sessions = env_knob("FORECO_SERVE_CHURN_SESSIONS", 64) as u64;
    let churn_rounds = env_knob("FORECO_SERVE_CHURN_ROUNDS", 8);
    println!(
        "\nsnapshot-churn: {churn_sessions} mid-run donors × {churn_rounds} \
         encode+decode rounds per codec"
    );
    let churn = snapshot_churn_run(&fx, churn_sessions, churn_rounds);
    println!(
        "{:>10} {:>14} {:>14} {:>10}",
        "codec", "sessions/s", "bytes/sess", "wall [s]"
    );
    println!(
        "{:>10} {:>14.0} {:>14.0} {:>10.3}",
        "json-v2", churn.json_sessions_per_sec, churn.json_bytes_per_session, churn.json_wall_s
    );
    println!(
        "{:>10} {:>14.0} {:>14.0} {:>10.3}",
        "binary-v3",
        churn.binary_sessions_per_sec,
        churn.binary_bytes_per_session,
        churn.binary_wall_s
    );
    println!(
        "codec speedup {:.1}x, bytes reduction {:.1}x, decode exact: {}",
        churn.codec_speedup, churn.bytes_reduction, churn.decode_exact
    );
    if !churn.decode_exact {
        eprintln!("FAIL: a binary snapshot round-trip did not reproduce its donor");
        std::process::exit(1);
    }

    let output = Output {
        bench: "serve_throughput".to_string(),
        sessions,
        ticks_per_session: replay.len(),
        forecaster: forecaster.name().to_string(),
        available_parallelism,
        shard_counts: shard_counts.clone(),
        calibration,
        engine_vs_calibration_ratio,
        rows,
        engine_hot_path,
        batched,
        lane_sweep,
        idle_heavy,
        ingress,
        fleet_soak,
        bytes_per_session: bytes_row,
        snapshot_churn: churn,
    };
    let json = serde_json::to_string_pretty(&output).expect("serialise bench output");
    std::fs::write(&out_path, &json).expect("write bench output");
    println!("\nwrote {out_path}");

    // Deferred ratio-gate verdict (see above): every scenario has run
    // and the artifact is on disk, so a breach still leaves the full
    // diagnostic trail behind. The gate is dimensionless — engine
    // throughput over the frozen calibration kernel's speed, both
    // measured in this process on this container — so it transfers
    // across machines where an absolute ticks/s floor did not.
    if let Some(budget) = ratio_budget {
        assert!(
            output.rows.iter().any(|r| r.shards == 1),
            "FORECO_ENGINE_TICKS_RATIO needs a 1-shard row"
        );
        if output.engine_vs_calibration_ratio < budget {
            eprintln!(
                "FAIL: engine/calibration ratio {:.4} below budget {budget} — \
                 the engine hot path regressed relative to this container's \
                 f64 speed (see the engine_hot_path rows in {out_path} for \
                 ns/tick and allocs/tick)",
                output.engine_vs_calibration_ratio
            );
            std::process::exit(1);
        }
        println!(
            "engine ratio gate: {:.4} ≥ {budget} (OK)",
            output.engine_vs_calibration_ratio
        );
    }
}
