//! The FoReCo building block (§IV-A).
//!
//! Protocol, straight from the paper:
//!
//! - FoReCo awaits a control command every `Ω` ms;
//! - if the next command arrives later than `a(c_i) + Ω + τ`, FoReCo
//!   forecasts it as `ĉ_{i+1} = f({ĉ_j}_{i−R+1..i}, w)` and injects the
//!   forecast into the robot drivers;
//! - commands that arrive on time pass through **unchanged** and are
//!   stored in the history (`ĉ_i = c_i` when `Δ(c_i) ≤ τ`, eq. 3);
//! - the forecast history contains both real commands and previous
//!   forecasts — which is why forecast error compounds over long loss
//!   bursts (Fig. 9c).
//!
//! Extension (§VII-C, implemented behind [`RecoveryConfig::use_late_commands`]):
//! when a command that missed its deadline eventually arrives, it can
//! replace the forecast in the history so later forecasts are seeded with
//! truth instead of guesses.

use foreco_forecast::{ForecastScratch, Forecaster, HistoryView};
use serde::{Deserialize, Serialize};

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Command period `Ω` (seconds). Used for reporting only; the engine
    /// is tick-driven.
    pub period: f64,
    /// §VII-C extension: patch the history with late-arriving commands.
    pub use_late_commands: bool,
    /// Per-joint `(min, max)` bounds applied to forecasts. A command
    /// outside the robot's joint limits is invalid, so forecasts are
    /// clamped before injection *and* before entering the history — which
    /// also bounds recursive-forecast drift during long loss bursts
    /// (Fig. 9c) to the physical workspace.
    pub limits: Option<Vec<(f64, f64)>>,
    /// Credible forecasting horizon: after this many *consecutive*
    /// forecasts the engine stops extrapolating and holds the last
    /// forecast until real data returns.
    ///
    /// Rationale: Fig. 7 shows the forecast error growing with the
    /// forecasting window (≈ 60 mm at 1 s for VAR) — beyond the horizon,
    /// recursive extrapolation *adds* trajectory error instead of
    /// removing it (the drift the paper itself observes in Fig. 9c and
    /// §VII-C). Holding at the trend-followed pose still dominates the
    /// repeat-last baseline, which froze a full horizon earlier.
    /// `None` disables the safeguard (pure paper behaviour).
    pub max_consecutive_forecasts: Option<usize>,
    /// Per-tick joint motion bound (rad) applied to forecasts: no valid
    /// command can move a joint faster than the joystick's moving offset
    /// (0.04 rad per command on the paper's Niryo), so a forecast step
    /// beyond it is clamped toward the previous history entry.
    ///
    /// This neutralises the correction-jump failure mode: the first real
    /// command after a loss burst differs from the last forecast by the
    /// accumulated drift, which a naive recursion would read as a huge
    /// velocity and extrapolate.
    pub max_step: Option<f64>,
    /// Dead-reckoning rebase: when truth returns after `k` consecutive
    /// forecasts, translate those `k` history entries so the segment ends
    /// at the real command. The accumulated forecast drift is absorbed as
    /// a position correction instead of appearing as one giant phantom
    /// velocity in the next regression window — without it, sustained
    /// loss regimes (Fig. 8's dark cells) poison every forecast issued
    /// within `R` ticks of a recovery.
    pub history_rebase: bool,
    /// Adaptive damped-trend floor `γ_min ∈ (0, 1]`: the `k`-th
    /// consecutive forecast is blended toward a hold as
    /// `last + γ_eff^k (pred − last)` with
    /// `γ_eff = γ_min + (1 − γ_min) · q`, where `q` is the fraction of
    /// *real* (non-forecast) commands in the history window when the
    /// outage began.
    ///
    /// The two regimes this reconciles:
    /// - **isolated burst** (Fig. 9): the window is all real data,
    ///   `q = 1 → γ_eff = 1` — trust the trend for the whole burst;
    /// - **sustained outage** (Fig. 8's dark cells): the window is mostly
    ///   forecasts, `q → 0 → γ_eff → γ_min` — ease quickly into a hold,
    ///   because extrapolating forecasts-of-forecasts only compounds
    ///   error (the §VII-C drift concern).
    ///
    /// `None` disables damping entirely.
    pub trend_damping: Option<f64>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            period: 0.020,
            use_late_commands: false,
            limits: None,
            max_consecutive_forecasts: Some(50), // 1 s at the 50 Hz loop
            max_step: Some(0.04),                // the Niryo moving offset
            history_rebase: true,
            trend_damping: Some(0.85),
        }
    }
}

impl RecoveryConfig {
    /// Configuration with the joint limits of an arm model.
    pub fn for_model(model: &foreco_robot::ArmModel) -> Self {
        Self {
            limits: Some(model.limits.iter().map(|l| (l.min, l.max)).collect()),
            ..Default::default()
        }
    }
}

/// What the engine did on a tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TickOutcome {
    /// The command to feed the robot drivers this tick.
    pub command: Vec<f64>,
    /// True when `command` is a forecast (the network missed its slot).
    pub forecast: bool,
}

/// Running counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Total ticks processed.
    pub ticks: u64,
    /// Commands passed through on time.
    pub delivered: u64,
    /// Forecasts injected.
    pub forecasts: u64,
    /// Misses covered by repeat-last because history was still warming up.
    pub warmup_repeats: u64,
    /// Misses covered by holding the pose because the consecutive-forecast
    /// horizon was exhausted.
    pub horizon_holds: u64,
    /// Late commands spliced into the history (§VII-C mode only).
    pub late_patches: u64,
}

/// Why exporting or restoring engine state failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineStateError {
    /// The engine's forecaster has no serialisable form (e.g. seq2seq):
    /// `Forecaster::export_state` returned `None`.
    UnsupportedForecaster {
        /// Display name of the offending forecaster.
        name: &'static str,
    },
    /// The snapshot's internal invariants do not hold (corrupt or
    /// hand-edited data).
    Invalid {
        /// What was inconsistent.
        reason: String,
    },
}

impl std::fmt::Display for EngineStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineStateError::UnsupportedForecaster { name } => {
                write!(f, "forecaster `{name}` has no serialisable state")
            }
            EngineStateError::Invalid { reason } => {
                write!(f, "invalid engine snapshot: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineStateError {}

/// Complete serialised form of a mid-run [`RecoveryEngine`]: the
/// forecaster, the configuration, the `{ĉ_j}` history window with its
/// real/forecast flags, and every counter. Restoring it yields an engine
/// whose future ticks are bit-identical to the original's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// The forecaster, in its concrete serialisable form.
    pub forecaster: foreco_forecast::ForecasterState,
    /// Engine knobs.
    pub config: RecoveryConfig,
    /// History window `{ĉ_j}`, oldest first.
    pub history: Vec<Vec<f64>>,
    /// Per-entry forecast flags (parallel to `history`).
    pub forecast_slots: Vec<bool>,
    /// Forecasts issued since the last on-time delivery.
    pub consecutive_forecasts: usize,
    /// Window-quality signal frozen at the current outage's start.
    pub burst_quality: f64,
    /// Running counters.
    pub stats: RecoveryStats,
}

/// Flat, fixed-capacity ring of the engine's `{ĉ_j}` window: one
/// contiguous `R+1 × dims` `f64` block plus a parallel forecast-flag
/// ring. Pushing past capacity overwrites the oldest row in place, so a
/// steady-state tick touches the allocator exactly zero times — the
/// replacement for the old `VecDeque<Vec<f64>>` whose every window read
/// cloned O(R·dims).
struct CommandRing {
    /// Row-major storage, `cap × dims`.
    data: Box<[f64]>,
    /// Per-row forecast flags, parallel to `data`'s rows.
    flags: Box<[bool]>,
    dims: usize,
    /// Row capacity (`history_len().max(1) + 1`, fixed at construction).
    cap: usize,
    /// Physical index of the oldest row.
    start: usize,
    /// Occupied rows.
    len: usize,
}

impl CommandRing {
    fn new(cap: usize, dims: usize) -> Self {
        assert!(cap >= 1 && dims >= 1, "command ring: degenerate shape");
        Self {
            data: vec![0.0; cap * dims].into_boxed_slice(),
            flags: vec![false; cap].into_boxed_slice(),
            dims,
            cap,
            start: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.start = 0;
        self.len = 0;
    }

    #[inline]
    fn phys(&self, i: usize) -> usize {
        debug_assert!(i < self.len, "command ring: row {i} of {}", self.len);
        (self.start + i) % self.cap
    }

    /// Row `i` (0 = oldest).
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        let p = self.phys(i);
        &self.data[p * self.dims..(p + 1) * self.dims]
    }

    #[inline]
    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let p = self.phys(i);
        &mut self.data[p * self.dims..(p + 1) * self.dims]
    }

    #[inline]
    fn flag(&self, i: usize) -> bool {
        self.flags[self.phys(i)]
    }

    /// The newest row.
    #[inline]
    fn back(&self) -> &[f64] {
        assert!(self.len > 0, "seeded at construction");
        self.row(self.len - 1)
    }

    /// Appends a row, evicting the oldest in place once full.
    fn push(&mut self, row: &[f64], is_forecast: bool) {
        debug_assert_eq!(row.len(), self.dims, "command ring: row width");
        let p = if self.len == self.cap {
            let p = self.start;
            self.start = (self.start + 1) % self.cap;
            p
        } else {
            let p = (self.start + self.len) % self.cap;
            self.len += 1;
            p
        };
        self.data[p * self.dims..(p + 1) * self.dims].copy_from_slice(row);
        self.flags[p] = is_forecast;
    }

    /// Overwrites row `i` (a §VII-C late patch).
    fn set_row(&mut self, i: usize, row: &[f64], is_forecast: bool) {
        let p = self.phys(i);
        self.data[p * self.dims..(p + 1) * self.dims].copy_from_slice(row);
        self.flags[p] = is_forecast;
    }

    /// Borrow view over the occupied rows, oldest first.
    fn view(&self) -> HistoryView<'_> {
        let first = (self.cap - self.start).min(self.len);
        let head = &self.data[self.start * self.dims..(self.start + first) * self.dims];
        let tail = &self.data[..(self.len - first) * self.dims];
        HistoryView::new(head, tail, self.dims)
    }
}

/// The FoReCo recovery engine.
///
/// The steady-state path ([`RecoveryEngine::tick_into`]) is
/// **zero-heap-allocation**: history lives in a flat `CommandRing`,
/// forecasts are produced through
/// [`Forecaster::forecast_into`] against a borrowed window view, and
/// every intermediate row reuses engine-owned scratch. The allocating
/// [`RecoveryEngine::tick`] remains as a thin compatibility wrapper.
///
/// # Example
///
/// ```
/// use foreco_core::{RecoveryConfig, RecoveryEngine};
/// use foreco_forecast::MovingAverage;
///
/// let mut engine = RecoveryEngine::new(
///     Box::new(MovingAverage::new(2, 1)),
///     RecoveryConfig::default(),
///     vec![0.0],
/// );
/// // On-time commands pass through untouched…
/// let out = engine.tick(Some(vec![0.5]));
/// assert_eq!(out.command, vec![0.5]);
/// assert!(!out.forecast);
/// // …and a miss is concealed with a forecast, written into a
/// // caller-owned buffer on the allocation-free path.
/// let mut cmd = [0.0];
/// assert!(engine.tick_into(None, &mut cmd));
/// ```
pub struct RecoveryEngine {
    forecaster: Box<dyn Forecaster>,
    cfg: RecoveryConfig,
    /// `{ĉ_j}`: the last R commands — real when on time, forecast
    /// otherwise — with their forecast flags, in a flat ring.
    ring: CommandRing,
    /// Forecasts issued since the last on-time delivery.
    consecutive_forecasts: usize,
    /// Fraction of real entries in the window when the current outage
    /// began (drives adaptive damping).
    burst_quality: f64,
    stats: RecoveryStats,
    /// Forecaster workspace, reused every miss.
    scratch: ForecastScratch,
    /// Rebase workspace (anchor prediction + drift), sized `dims`.
    anchor: Vec<f64>,
    delta: Vec<f64>,
}

impl RecoveryEngine {
    /// Creates an engine around a trained forecaster, seeded with the
    /// robot's initial command (the pose both ends agree on at start-up).
    pub fn new(
        forecaster: Box<dyn Forecaster>,
        cfg: RecoveryConfig,
        initial_command: Vec<f64>,
    ) -> Self {
        assert_eq!(
            initial_command.len(),
            forecaster.dims(),
            "recovery: initial command dimension mismatch"
        );
        let dims = forecaster.dims();
        let mut ring = CommandRing::new(forecaster.history_len().max(1) + 1, dims);
        ring.push(&initial_command, false);
        Self {
            forecaster,
            cfg,
            ring,
            consecutive_forecasts: 0,
            burst_quality: 1.0,
            stats: RecoveryStats::default(),
            scratch: ForecastScratch::new(),
            anchor: vec![0.0; dims],
            delta: vec![0.0; dims],
        }
    }

    /// History length `R` of the underlying forecaster.
    pub fn history_len(&self) -> usize {
        self.forecaster.history_len()
    }

    /// Command dimensionality `d` — the required length of
    /// [`RecoveryEngine::tick_into`]'s output buffer.
    pub fn dims(&self) -> usize {
        self.forecaster.dims()
    }

    /// Counters so far.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// The engine configuration.
    pub fn config(&self) -> &RecoveryConfig {
        &self.cfg
    }

    /// Rewinds the engine to its just-constructed state around a new
    /// initial command: history, counters, and burst tracking all clear.
    /// Lets a service reuse one engine (and its trained forecaster)
    /// across sequential sessions without reallocating.
    ///
    /// # Panics
    /// Panics if `initial_command` does not match the forecaster's
    /// dimensionality.
    pub fn reset(&mut self, initial_command: Vec<f64>) {
        assert_eq!(
            initial_command.len(),
            self.forecaster.dims(),
            "recovery: initial command dimension mismatch"
        );
        self.ring.clear();
        self.ring.push(&initial_command, false);
        self.consecutive_forecasts = 0;
        self.burst_quality = 1.0;
        self.stats = RecoveryStats::default();
    }

    /// Exports the engine's complete state for checkpointing.
    ///
    /// # Errors
    /// [`EngineStateError::UnsupportedForecaster`] when the forecaster
    /// has no serialisable form.
    pub fn snapshot(&self) -> Result<EngineSnapshot, EngineStateError> {
        let forecaster =
            self.forecaster
                .export_state()
                .ok_or(EngineStateError::UnsupportedForecaster {
                    name: self.forecaster.name(),
                })?;
        Ok(EngineSnapshot {
            forecaster,
            config: self.cfg.clone(),
            // The ring serialises through the existing row-per-command
            // snapshot shape — the on-disk format is unchanged.
            history: self.ring.view().to_rows(),
            forecast_slots: (0..self.ring.len()).map(|i| self.ring.flag(i)).collect(),
            consecutive_forecasts: self.consecutive_forecasts,
            burst_quality: self.burst_quality,
            stats: self.stats,
        })
    }

    /// Rebuilds an engine from a snapshot. The restored engine's future
    /// [`RecoveryEngine::tick`] outputs are bit-identical to what the
    /// snapshotted engine would have produced.
    ///
    /// # Errors
    /// [`EngineStateError::Invalid`] when the snapshot violates engine
    /// invariants (empty history, mismatched lengths or dimensions,
    /// non-finite history, unordered joint limits, a negative or NaN
    /// `max_step`, damping or burst quality outside `[0, 1]`). The
    /// forecaster state itself is the caller's to check with
    /// [`ForecasterState::validate`](foreco_forecast::ForecasterState::validate)
    /// before building from it.
    pub fn from_snapshot(snap: EngineSnapshot) -> Result<Self, EngineStateError> {
        let forecaster = snap.forecaster.build();
        Self::from_snapshot_with(snap, forecaster)
    }

    /// [`RecoveryEngine::from_snapshot`] with a caller-supplied
    /// forecaster instance instead of one freshly built from the
    /// snapshot's [`ForecasterState`](foreco_forecast::ForecasterState).
    ///
    /// This is the model-sharing entry: a service that filed the trained
    /// weights in shared storage can restore N same-model engines around
    /// N shallow claims on *one* resident forecaster rather than N deep
    /// copies. The caller guarantees `forecaster` computes identically
    /// to `snap.forecaster.build()` (e.g. it was content-addressed from
    /// the same state); dimensionality and window length are still
    /// validated here.
    ///
    /// # Errors
    /// [`EngineStateError::Invalid`] as [`RecoveryEngine::from_snapshot`].
    pub fn from_snapshot_with(
        snap: EngineSnapshot,
        forecaster: Box<dyn Forecaster>,
    ) -> Result<Self, EngineStateError> {
        let invalid = |reason: String| EngineStateError::Invalid { reason };
        if snap.history.is_empty() {
            return Err(invalid("history must hold at least one command".into()));
        }
        if snap.history.len() != snap.forecast_slots.len() {
            return Err(invalid(format!(
                "history/forecast_slots length mismatch: {} vs {}",
                snap.history.len(),
                snap.forecast_slots.len()
            )));
        }
        if snap.history.len() > forecaster.history_len().max(1) + 1 {
            return Err(invalid(format!(
                "history longer than the engine window: {} > {}",
                snap.history.len(),
                forecaster.history_len().max(1) + 1
            )));
        }
        let dims = forecaster.dims();
        if let Some(bad) = snap.history.iter().find(|c| c.len() != dims) {
            return Err(invalid(format!(
                "history entry of dimension {} in a {dims}-dimensional engine",
                bad.len()
            )));
        }
        // Everything below is what the miss path's clamps assume: a NaN
        // bound (or a NaN history row as the step clamp's `prev`) would
        // panic `f64::clamp`, and damping outside [0, 1] can overflow a
        // forecast into NaN.
        if snap.history.iter().flatten().any(|v| !v.is_finite()) {
            return Err(invalid("non-finite history entry".into()));
        }
        if let Some(limits) = &snap.config.limits {
            if limits.len() != dims {
                return Err(invalid(format!(
                    "{} joint limits for a {dims}-dimensional engine",
                    limits.len()
                )));
            }
            if let Some((lo, hi)) = limits
                .iter()
                .find(|(lo, hi)| lo.is_nan() || hi.is_nan() || lo > hi)
            {
                return Err(invalid(format!(
                    "joint limits ({lo}, {hi}) are not ordered"
                )));
            }
        }
        if snap
            .config
            .max_step
            .is_some_and(|step| step.is_nan() || step < 0.0)
        {
            return Err(invalid("max_step must be ≥ 0".into()));
        }
        let unit = |v: f64| (0.0..=1.0).contains(&v);
        if !snap.config.trend_damping.is_none_or(unit) || !unit(snap.burst_quality) {
            return Err(invalid(
                "trend damping and burst quality must lie in [0, 1]".into(),
            ));
        }
        let mut ring = CommandRing::new(forecaster.history_len().max(1) + 1, dims);
        for (row, &flag) in snap.history.iter().zip(&snap.forecast_slots) {
            ring.push(row, flag);
        }
        Ok(Self {
            forecaster,
            cfg: snap.config,
            ring,
            consecutive_forecasts: snap.consecutive_forecasts,
            burst_quality: snap.burst_quality,
            stats: snap.stats,
            scratch: ForecastScratch::new(),
            anchor: vec![0.0; dims],
            delta: vec![0.0; dims],
        })
    }

    /// One period tick (allocating compatibility wrapper around
    /// [`RecoveryEngine::tick_into`]).
    ///
    /// `arrived` is `Some(c_i)` when the network delivered the command
    /// within `Ω + τ`, `None` otherwise. Returns what to inject into the
    /// robot drivers.
    pub fn tick(&mut self, arrived: Option<Vec<f64>>) -> TickOutcome {
        let mut command = vec![0.0; self.forecaster.dims()];
        let forecast = self.tick_into(arrived.as_deref(), &mut command);
        TickOutcome { command, forecast }
    }

    /// One period tick on the **zero-allocation** path: the injected
    /// command is written into the caller-owned `out` buffer and the
    /// return value is its forecast flag ([`TickOutcome::forecast`]).
    ///
    /// Outputs are bit-identical to [`RecoveryEngine::tick`]; what
    /// changes is the cost model — no history clone, no per-tick `Vec`:
    /// deliveries copy into the ring, misses forecast through
    /// [`Forecaster::forecast_into`] with engine-owned scratch. The
    /// only allocator traffic left on a miss is whatever the forecaster
    /// itself allocates (seq2seq materialises its window; the served
    /// families allocate nothing).
    pub fn tick_into(&mut self, arrived: Option<&[f64]>, out: &mut [f64]) -> bool {
        assert_eq!(
            out.len(),
            self.forecaster.dims(),
            "recovery: output dim mismatch"
        );
        self.stats.ticks += 1;
        match arrived {
            Some(cmd) => {
                assert_eq!(
                    cmd.len(),
                    self.forecaster.dims(),
                    "recovery: command dim mismatch"
                );
                self.stats.delivered += 1;
                if self.cfg.history_rebase && self.consecutive_forecasts > 0 {
                    self.rebase_history(cmd);
                }
                self.consecutive_forecasts = 0;
                self.ring.push(cmd, false);
                out.copy_from_slice(cmd);
                false
            }
            None => {
                let r = self.forecaster.history_len();
                if self.ring.len() < r {
                    // Not enough history yet: fall back to the Niryo
                    // behaviour (repeat last) and record it as a forecast
                    // slot so a late command may replace it.
                    self.stats.warmup_repeats += 1;
                    out.copy_from_slice(self.ring.back());
                    self.ring.push(out, true);
                    return true;
                }
                if let Some(cap) = self.cfg.max_consecutive_forecasts {
                    if self.consecutive_forecasts >= cap {
                        // Horizon exhausted: hold the pose instead of
                        // extrapolating further into the unknown.
                        self.stats.horizon_holds += 1;
                        out.copy_from_slice(self.ring.back());
                        self.ring.push(out, true);
                        return true;
                    }
                }
                self.forecaster
                    .forecast_into(&self.ring.view(), &mut self.scratch, out);
                if let Some(gamma_min) = self.cfg.trend_damping {
                    if self.consecutive_forecasts == 0 {
                        // Outage starts: freeze the window-quality signal.
                        let real = (0..self.ring.len()).filter(|&i| !self.ring.flag(i)).count();
                        self.burst_quality = real as f64 / self.ring.len() as f64;
                    }
                    let gamma_eff = gamma_min + (1.0 - gamma_min) * self.burst_quality;
                    let factor = gamma_eff.powi(self.consecutive_forecasts as i32);
                    let last = self.ring.back();
                    for (v, prev) in out.iter_mut().zip(last) {
                        *v = prev + factor * (*v - prev);
                    }
                }
                if let Some(step) = self.cfg.max_step {
                    let last = self.ring.back();
                    for (v, prev) in out.iter_mut().zip(last) {
                        *v = v.clamp(prev - step, prev + step);
                    }
                }
                if let Some(limits) = &self.cfg.limits {
                    for (v, (lo, hi)) in out.iter_mut().zip(limits) {
                        *v = v.clamp(*lo, *hi);
                    }
                }
                self.stats.forecasts += 1;
                self.consecutive_forecasts += 1;
                self.ring.push(out, true);
                true
            }
        }
    }

    /// Borrowed view over the engine's history window (oldest first) —
    /// what the forecaster would consume on the next miss.
    pub fn history_view(&self) -> HistoryView<'_> {
        self.ring.view()
    }

    /// True when a [`RecoveryEngine::tick`]`(None)` would leave every
    /// non-counter field of the engine bit-identical: the horizon is
    /// exhausted (hold regime), the history window is full, and every
    /// entry already equals the held command with its forecast flag set
    /// — so the hold pushes a clone of the back entry and pops an equal
    /// front entry, a no-op on the window.
    ///
    /// This is the engine half of the *idle fixed point* the service
    /// scheduler parks sessions at: once true, consecutive misses change
    /// only [`RecoveryStats::ticks`] and [`RecoveryStats::horizon_holds`],
    /// which [`RecoveryEngine::apply_idle_holds`] replays in O(1).
    pub fn idle_hold_is_identity(&self) -> bool {
        let cap = match self.cfg.max_consecutive_forecasts {
            Some(cap) => cap,
            // Unbounded extrapolation: every miss runs the forecaster and
            // bumps `consecutive_forecasts` — never an identity.
            None => return false,
        };
        let r = self.forecaster.history_len();
        if self.ring.len() < r || self.consecutive_forecasts < cap {
            return false; // warmup or still forecasting
        }
        if self.ring.len() != r.max(1) + 1 {
            return false; // window not yet at capacity: a push grows it
        }
        if (0..self.ring.len()).any(|i| !self.ring.flag(i)) {
            return false; // a real entry would rotate out of the window
        }
        let held = self.ring.back();
        self.ring
            .view()
            .iter()
            .all(|c| c.iter().zip(held).all(|(a, b)| a.to_bits() == b.to_bits()))
    }

    /// The command a hold tick would re-issue (the back of the history).
    pub fn held_command(&self) -> &[f64] {
        self.ring.back()
    }

    /// Replays the bookkeeping of `n` consecutive idle hold ticks without
    /// running them: exactly what `n` calls of `tick(None)` would do at
    /// a verified idle fixed point ([`RecoveryEngine::idle_hold_is_identity`]).
    /// Counter updates are integer additions, so one bulk update is exact.
    ///
    /// # Panics
    /// Panics (debug) when the engine is not at the idle fixed point —
    /// calling this anywhere else would silently corrupt the
    /// determinism contract.
    pub fn apply_idle_holds(&mut self, n: u64) {
        debug_assert!(
            self.idle_hold_is_identity(),
            "apply_idle_holds outside the idle fixed point"
        );
        self.stats.ticks += n;
        self.stats.horizon_holds += n;
    }

    /// §VII-C extension: a command that missed its tick arrived `age`
    /// ticks late. When [`RecoveryConfig::use_late_commands`] is on and
    /// the corresponding history slot still holds a forecast, replace it
    /// so subsequent forecasts are seeded with truth.
    ///
    /// Returns true when the history was patched.
    pub fn late_command(&mut self, cmd: &[f64], age: usize) -> bool {
        if !self.cfg.use_late_commands || age == 0 || age > self.ring.len() {
            return false;
        }
        let idx = self.ring.len() - age;
        if !self.ring.flag(idx) {
            return false; // slot already holds a real command
        }
        assert_eq!(
            cmd.len(),
            self.forecaster.dims(),
            "recovery: late command dim mismatch"
        );
        self.ring.set_row(idx, cmd, false);
        self.stats.late_patches += 1;
        true
    }

    /// Translates the trailing run of forecast entries so that the next
    /// diff (`incoming − history.back()`) equals the forecaster's own
    /// step prediction rather than the accumulated drift.
    fn rebase_history(&mut self, incoming: &[f64]) {
        // Length of the trailing forecast run (bounded by stored history).
        let run = (0..self.ring.len())
            .rev()
            .take_while(|&i| self.ring.flag(i))
            .count()
            .min(self.consecutive_forecasts);
        if run == 0 {
            return;
        }
        // Drift = incoming − what the recursion would have said for this
        // tick. Predict only when the window suffices; otherwise align the
        // segment end to the incoming command directly.
        if self.ring.len() >= self.forecaster.history_len() {
            self.forecaster
                .forecast_into(&self.ring.view(), &mut self.scratch, &mut self.anchor);
        } else {
            self.anchor.copy_from_slice(self.ring.back());
        }
        for (dst, (c, a)) in self.delta.iter_mut().zip(incoming.iter().zip(&self.anchor)) {
            *dst = c - a;
        }
        let len = self.ring.len();
        for idx in len - run..len {
            for (v, d) in self.ring.row_mut(idx).iter_mut().zip(&self.delta) {
                *v += d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foreco_forecast::MovingAverage;

    /// Pure paper protocol: every deployment safeguard disabled, so the
    /// arithmetic of eqs. 3/8 is exact.
    fn raw_config() -> RecoveryConfig {
        RecoveryConfig {
            max_step: None,
            trend_damping: None,
            history_rebase: false,
            max_consecutive_forecasts: None,
            ..Default::default()
        }
    }

    fn engine(r: usize) -> RecoveryEngine {
        RecoveryEngine::new(
            Box::new(MovingAverage::new(r, 2)),
            raw_config(),
            vec![0.0, 0.0],
        )
    }

    #[test]
    fn on_time_commands_pass_through_unchanged() {
        // Eq. 3's second case: ĉ_i = c_i when Δ(c_i) ≤ τ.
        let mut e = engine(3);
        for i in 0..10 {
            let cmd = vec![i as f64, -(i as f64)];
            let out = e.tick(Some(cmd.clone()));
            assert_eq!(out.command, cmd);
            assert!(!out.forecast);
        }
        assert_eq!(e.stats().delivered, 10);
        assert_eq!(e.stats().forecasts, 0);
    }

    #[test]
    fn miss_triggers_forecast_from_history() {
        let mut e = engine(2);
        e.tick(Some(vec![1.0, 1.0]));
        e.tick(Some(vec![3.0, 3.0]));
        let out = e.tick(None);
        assert!(out.forecast);
        // MA(2) over the last two commands.
        assert_eq!(out.command, vec![2.0, 2.0]);
        assert_eq!(e.stats().forecasts, 1);
    }

    #[test]
    fn forecasts_feed_back_into_history() {
        // Two consecutive misses: the second forecast consumes the first —
        // the error-propagation mechanism of Fig. 9c.
        let mut e = engine(2);
        e.tick(Some(vec![1.0, 0.0]));
        e.tick(Some(vec![3.0, 0.0]));
        let f1 = e.tick(None); // MA(1,3) = 2
        assert_eq!(f1.command[0], 2.0);
        let f2 = e.tick(None); // MA(3,2) = 2.5
        assert_eq!(f2.command[0], 2.5);
    }

    #[test]
    fn warmup_misses_repeat_last() {
        let mut e = engine(5);
        e.tick(Some(vec![7.0, 7.0]));
        let out = e.tick(None); // history (2) < R (5)
        assert_eq!(out.command, vec![7.0, 7.0]);
        assert!(out.forecast);
        assert_eq!(e.stats().warmup_repeats, 1);
        assert_eq!(e.stats().forecasts, 0);
    }

    #[test]
    fn exactly_one_command_per_tick() {
        let mut e = engine(3);
        let mut outputs = 0;
        for i in 0..100 {
            let arrived = if i % 3 == 0 {
                None
            } else {
                Some(vec![0.1, 0.2])
            };
            let _ = e.tick(arrived);
            outputs += 1;
        }
        assert_eq!(outputs, 100);
        assert_eq!(e.stats().ticks, 100);
        let s = e.stats();
        assert_eq!(
            s.delivered + s.forecasts + s.warmup_repeats + s.horizon_holds,
            100
        );
    }

    #[test]
    fn late_commands_ignored_by_default() {
        let mut e = engine(2);
        e.tick(Some(vec![1.0, 1.0]));
        e.tick(Some(vec![2.0, 2.0]));
        e.tick(None);
        assert!(!e.late_command(&[9.0, 9.0], 1));
        assert_eq!(e.stats().late_patches, 0);
    }

    #[test]
    fn late_commands_patch_history_when_enabled() {
        let mut e = RecoveryEngine::new(
            Box::new(MovingAverage::new(2, 2)),
            RecoveryConfig {
                use_late_commands: true,
                ..raw_config()
            },
            vec![0.0, 0.0],
        );
        e.tick(Some(vec![1.0, 1.0]));
        e.tick(Some(vec![3.0, 3.0]));
        e.tick(None); // forecast = (2,2) stored in history
        assert!(e.late_command(&[5.0, 5.0], 1)); // truth arrives late
        assert_eq!(e.stats().late_patches, 1);
        // Next forecast uses (3,5) not (3,2).
        let out = e.tick(None);
        assert_eq!(out.command, vec![4.0, 4.0]);
    }

    #[test]
    fn horizon_cap_switches_to_hold() {
        let mut e = RecoveryEngine::new(
            Box::new(MovingAverage::new(1, 1)),
            RecoveryConfig {
                max_consecutive_forecasts: Some(3),
                ..raw_config()
            },
            vec![0.0],
        );
        e.tick(Some(vec![1.0]));
        for _ in 0..3 {
            let out = e.tick(None);
            assert!(out.forecast);
        }
        assert_eq!(e.stats().forecasts, 3);
        // Fourth consecutive miss: horizon exhausted, pose held.
        let held = e.tick(None);
        assert!(held.forecast);
        assert_eq!(e.stats().horizon_holds, 1);
        assert_eq!(e.stats().forecasts, 3);
        // A delivery resets the budget.
        e.tick(Some(vec![2.0]));
        e.tick(None);
        assert_eq!(e.stats().forecasts, 4);
    }

    #[test]
    fn forecasts_clamped_to_limits() {
        // A trend-following forecaster would run past the bound; the
        // configured limits must cap it.
        let mut e = RecoveryEngine::new(
            Box::new(Runaway),
            RecoveryConfig {
                limits: Some(vec![(-1.0, 1.0)]),
                ..raw_config()
            },
            vec![0.0],
        );
        e.tick(Some(vec![0.5]));
        let out = e.tick(None);
        assert_eq!(
            out.command,
            vec![1.0],
            "forecast must be clamped to the joint limit"
        );
        // And the clamped value is what enters the history.
        let out2 = e.tick(None);
        assert_eq!(out2.command, vec![1.0]);
    }

    #[test]
    fn late_patch_rejected_for_real_slots() {
        let mut e = RecoveryEngine::new(
            Box::new(MovingAverage::new(2, 2)),
            RecoveryConfig {
                use_late_commands: true,
                ..raw_config()
            },
            vec![0.0, 0.0],
        );
        e.tick(Some(vec![1.0, 1.0]));
        assert!(
            !e.late_command(&[9.0, 9.0], 1),
            "real command must not be overwritten"
        );
    }

    #[test]
    fn max_step_bounds_forecast_velocity() {
        let mut e = RecoveryEngine::new(
            Box::new(Runaway),
            RecoveryConfig {
                max_step: Some(0.04),
                ..raw_config()
            },
            vec![0.0],
        );
        e.tick(Some(vec![0.5]));
        let out = e.tick(None);
        assert!(
            (out.command[0] - 0.54).abs() < 1e-12,
            "step-clamped to last + 0.04"
        );
    }

    /// Forecasts the last command plus one.
    #[derive(Clone)]
    struct UnitStep;
    impl foreco_forecast::Forecaster for UnitStep {
        fn forecast_into(
            &self,
            history: &HistoryView<'_>,
            _: &mut ForecastScratch,
            out: &mut [f64],
        ) {
            out[0] = history.back()[0] + 1.0;
        }
        fn history_len(&self) -> usize {
            1
        }
        fn dims(&self) -> usize {
            1
        }
        fn name(&self) -> &'static str {
            "unit-step"
        }
    }

    /// A trend follower that runs far past any bound: the last command
    /// plus ten.
    #[derive(Clone)]
    struct Runaway;
    impl foreco_forecast::Forecaster for Runaway {
        fn forecast_into(
            &self,
            history: &HistoryView<'_>,
            _: &mut ForecastScratch,
            out: &mut [f64],
        ) {
            out[0] = history.back()[0] + 10.0;
        }
        fn history_len(&self) -> usize {
            1
        }
        fn dims(&self) -> usize {
            1
        }
        fn name(&self) -> &'static str {
            "runaway"
        }
    }

    /// Adaptive damping, clean-window regime: the outage starts with an
    /// all-real window (`q = 1`), so `γ_eff = 1` — the trend is trusted
    /// for the whole burst (the Fig.-9 isolated-burst behaviour).
    #[test]
    fn adaptive_damping_trusts_clean_windows() {
        let mut e = RecoveryEngine::new(
            Box::new(UnitStep),
            RecoveryConfig {
                trend_damping: Some(0.5),
                ..raw_config()
            },
            vec![0.0],
        );
        e.tick(Some(vec![0.0]));
        let a = e.tick(None).command[0];
        let b = e.tick(None).command[0];
        let c = e.tick(None).command[0];
        assert!((a - 1.0).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12, "clean window must not damp: {b}");
        assert!((c - 3.0).abs() < 1e-12);
    }

    /// Adaptive damping, polluted-window regime: when the window already
    /// contains forecasts at outage start (`q < 1`), increments shrink
    /// geometrically and the pose converges instead of drifting.
    #[test]
    fn adaptive_damping_converges_on_polluted_windows() {
        let mut e = RecoveryEngine::new(
            Box::new(UnitStep),
            RecoveryConfig {
                trend_damping: Some(0.5),
                history_rebase: false,
                ..raw_config()
            },
            vec![0.0],
        );
        e.tick(Some(vec![0.0])); // window all real
        e.tick(None); // forecast enters the window
        e.tick(Some(vec![1.0])); // delivery; window now half forecast
                                 // New outage: q = 0.5 → γ_eff = 0.5 + 0.5·0.5 = 0.75.
        let x0 = e.tick(None).command[0]; // k=0: 1 + 1·1.00 = 2.0
        let x1 = e.tick(None).command[0]; // k=1: 2 + 1·0.75 = 2.75
        let x2 = e.tick(None).command[0]; // k=2: 2.75 + 0.5625
        assert!((x0 - 2.0).abs() < 1e-12, "{x0}");
        assert!((x1 - 2.75).abs() < 1e-12, "{x1}");
        assert!((x2 - 3.3125).abs() < 1e-12, "{x2}");
        // Geometric series: total drift from 1.0 is bounded by 1/(1−0.75).
        for _ in 0..100 {
            let v = e.tick(None).command[0];
            assert!(v < 1.0 + 4.0 + 1e-9, "diverged: {v}");
        }
    }

    #[test]
    fn reset_restores_pristine_state() {
        // A reset engine must be indistinguishable from a fresh one:
        // run a messy mixed sequence, reset, and compare tick-for-tick
        // against a newly constructed engine. Guards the engine-reuse
        // path (`foreco-serve` session recycling) against future fields
        // being forgotten in reset().
        let sequence: Vec<Option<Vec<f64>>> = (0..40)
            .map(|i| {
                if i % 4 == 0 {
                    None
                } else {
                    Some(vec![i as f64 * 0.1, -(i as f64) * 0.05])
                }
            })
            .collect();
        let mut recycled = RecoveryEngine::new(
            Box::new(MovingAverage::new(3, 2)),
            RecoveryConfig::default(),
            vec![9.0, 9.0],
        );
        for arrived in &sequence {
            recycled.tick(arrived.clone());
        }
        recycled.reset(vec![0.0, 0.0]);
        assert_eq!(recycled.stats(), RecoveryStats::default());

        let mut fresh = RecoveryEngine::new(
            Box::new(MovingAverage::new(3, 2)),
            RecoveryConfig::default(),
            vec![0.0, 0.0],
        );
        for arrived in &sequence {
            assert_eq!(recycled.tick(arrived.clone()), fresh.tick(arrived.clone()));
        }
        assert_eq!(recycled.stats(), fresh.stats());
    }

    #[test]
    fn snapshot_restore_is_bit_identical_mid_outage() {
        // Snapshot in the middle of a loss burst (the hardest point:
        // consecutive_forecasts, burst_quality, and forecast slots all
        // live) and verify the restored engine replays the remaining
        // sequence tick-for-tick, bit-for-bit.
        let sequence: Vec<Option<Vec<f64>>> = (0..60)
            .map(|i| {
                if (12..20).contains(&i) || i % 7 == 0 {
                    None
                } else {
                    Some(vec![i as f64 * 0.01, -(i as f64) * 0.02])
                }
            })
            .collect();
        let mut original = RecoveryEngine::new(
            Box::new(MovingAverage::new(3, 2)),
            RecoveryConfig::default(),
            vec![0.0, 0.0],
        );
        for arrived in &sequence[..15] {
            original.tick(arrived.clone());
        }
        let snap = original.snapshot().expect("MA is snapshotable");
        // Round-trip through JSON bytes, as the service would.
        let json = serde_json::to_string(&snap).unwrap();
        let back: EngineSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let mut restored = RecoveryEngine::from_snapshot(back).expect("valid snapshot");
        assert_eq!(restored.stats(), original.stats());
        for arrived in &sequence[15..] {
            let a = original.tick(arrived.clone());
            let b = restored.tick(arrived.clone());
            assert_eq!(a.forecast, b.forecast);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.command), bits(&b.command));
        }
        assert_eq!(restored.stats(), original.stats());
    }

    #[test]
    fn snapshot_rejects_unsnapshotable_forecaster() {
        #[derive(Clone)]
        struct Opaque;
        impl foreco_forecast::Forecaster for Opaque {
            fn forecast_into(
                &self,
                history: &HistoryView<'_>,
                _: &mut ForecastScratch,
                out: &mut [f64],
            ) {
                out.copy_from_slice(history.back());
            }
            fn history_len(&self) -> usize {
                1
            }
            fn dims(&self) -> usize {
                1
            }
            fn name(&self) -> &'static str {
                "opaque"
            }
        }
        let e = RecoveryEngine::new(Box::new(Opaque), RecoveryConfig::default(), vec![0.0]);
        match e.snapshot() {
            Err(EngineStateError::UnsupportedForecaster { name }) => assert_eq!(name, "opaque"),
            other => panic!("expected UnsupportedForecaster, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        let e = RecoveryEngine::new(
            Box::new(MovingAverage::new(2, 2)),
            RecoveryConfig::default(),
            vec![0.0, 0.0],
        );
        let good = e.snapshot().unwrap();

        let mut empty = good.clone();
        empty.history.clear();
        empty.forecast_slots.clear();
        assert!(RecoveryEngine::from_snapshot(empty).is_err());

        let mut skewed = good.clone();
        skewed.forecast_slots.push(true);
        assert!(RecoveryEngine::from_snapshot(skewed).is_err());

        let mut wrong_dims = good;
        wrong_dims.history[0] = vec![0.0];
        let err = match RecoveryEngine::from_snapshot(wrong_dims) {
            Err(err) => err,
            Ok(_) => panic!("dimension mismatch must be rejected"),
        };
        assert!(matches!(err, EngineStateError::Invalid { .. }));
        // The error type is matchable and boxable for callers/tests.
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("invalid engine snapshot"));
    }

    #[test]
    fn idle_hold_identity_detected_and_batched_exactly() {
        // Drive an engine into its hold regime, wait for the window to
        // saturate with the held command, then check: (a) the identity
        // detector fires exactly when a real tick(None) stops changing
        // state, (b) apply_idle_holds(n) equals n eager hold ticks.
        let mut e = RecoveryEngine::new(
            Box::new(MovingAverage::new(2, 2)),
            RecoveryConfig {
                max_consecutive_forecasts: Some(3),
                ..RecoveryConfig::default()
            },
            vec![0.1, -0.2],
        );
        e.tick(Some(vec![0.2, -0.1]));
        e.tick(Some(vec![0.3, 0.0]));
        assert!(!e.idle_hold_is_identity(), "still delivering");
        // Outage: 3 forecasts, then holds refill the 3-entry window.
        let mut idle_at = None;
        for i in 0..20 {
            if e.idle_hold_is_identity() {
                idle_at = Some(i);
                break;
            }
            e.tick(None);
        }
        let idle_at = idle_at.expect("hold regime must become an identity");
        assert!(idle_at >= 3, "cannot be idle before the horizon is spent");

        // (a) once identity, an eager tick really is a state no-op.
        let before = e.snapshot().unwrap();
        let out = e.tick(None);
        let after = e.snapshot().unwrap();
        assert_eq!(out.command.as_slice(), e.held_command());
        assert_eq!(before.history, after.history);
        assert_eq!(before.forecast_slots, after.forecast_slots);
        assert_eq!(before.consecutive_forecasts, after.consecutive_forecasts);
        assert_eq!(
            before.burst_quality.to_bits(),
            after.burst_quality.to_bits()
        );
        assert_eq!(after.stats.ticks, before.stats.ticks + 1);
        assert_eq!(after.stats.horizon_holds, before.stats.horizon_holds + 1);

        // (b) batched bookkeeping == eager ticks, bit for bit.
        let mut eager = RecoveryEngine::from_snapshot(after.clone()).unwrap();
        let mut batched = RecoveryEngine::from_snapshot(after).unwrap();
        for _ in 0..137 {
            eager.tick(None);
        }
        batched.apply_idle_holds(137);
        assert_eq!(eager.stats(), batched.stats());
        assert_eq!(eager.snapshot().unwrap(), batched.snapshot().unwrap());
        // And the fixed point survives: a delivery resumes both equally.
        assert_eq!(
            eager.tick(Some(vec![0.5, 0.5])),
            batched.tick(Some(vec![0.5, 0.5]))
        );
    }

    #[test]
    fn idle_hold_identity_requires_a_horizon() {
        // With unbounded extrapolation every miss runs the forecaster, so
        // the engine must never report an identity (sessions never park).
        let mut e = RecoveryEngine::new(
            Box::new(MovingAverage::new(1, 1)),
            RecoveryConfig {
                max_consecutive_forecasts: None,
                ..raw_config()
            },
            vec![0.0],
        );
        e.tick(Some(vec![1.0]));
        for _ in 0..50 {
            e.tick(None);
            assert!(!e.idle_hold_is_identity());
        }
    }

    #[test]
    fn history_rebase_absorbs_correction_jump() {
        // MA(1) = repeat-last forecaster; after two forecasts the truth
        // returns far away. With rebasing the spliced history must not
        // contain the raw jump.
        let mut e = RecoveryEngine::new(
            Box::new(MovingAverage::new(1, 1)),
            RecoveryConfig {
                history_rebase: true,
                ..raw_config()
            },
            vec![0.0],
        );
        e.tick(Some(vec![1.0]));
        e.tick(None); // forecast: 1.0
        e.tick(None); // forecast: 1.0
                      // Truth resumes at 3.0: MA(1) predicts 1.0, so the rebase shifts
                      // the two forecast entries by +2.0 to end at the incoming truth.
        e.tick(Some(vec![3.0]));
        // Next forecast (MA(1)) repeats the real 3.0 — and critically the
        // internal window was left smooth, which we observe through a
        // subsequent MA(2)-style average had R been larger; with MA(1) we
        // simply check the forecast follows truth, not the stale 1.0.
        let out = e.tick(None);
        assert_eq!(out.command, vec![3.0]);
    }
}
