//! One hosted recovery loop: operator source → impairment → recovery →
//! PID robot, advanced one virtual tick at a time.
//!
//! [`Session::advance`] replicates the offline
//! `foreco_core::run_closed_loop` body *operation for operation* —
//! including the order of floating-point accumulation in the error
//! metrics — so a session hosted on any shard of the service produces
//! **bit-identical** per-session results to a solo closed-loop run. The
//! shard-invariance integration test pins that contract.
//!
//! Differences from the offline loop are purely structural:
//!
//! - the reference (perfect-channel) trajectory is read in lockstep
//!   with the executed driver instead of in a separate pass, and each
//!   source owns its one form of it. A scripted session reads it by
//!   tick index from a precomputed trajectory: it is a pure function of
//!   (script, arm model, driver config) — a scripted command is
//!   delivered to the reference whatever its fate — so it is computed
//!   once and shared by every session on that script and arm through
//!   the shard's memo, keyed by the identity of the script's `Arc` (for
//!   a stored trace, the `Arc` its store owns). A streamed or gated
//!   session has no script to precompute from, so it ticks a live
//!   reference driver. The two forms produce the same positions bit for
//!   bit, because the trajectory *is* a live driver's output, computed
//!   once;
//! - task-space error accumulates incrementally (same summation order
//!   as `trajectory_rmse_mm`) instead of over stored trajectories, and
//!   the drivers run with trail recording off — a session is O(1) in
//!   memory regardless of how long it runs (a shared trajectory is
//!   O(trace) per script and shard, not per session), which is what
//!   lets one process hold thousands of arms;
//! - commands may come from a live bounded inbox instead of a recorded
//!   script, in which case an empty inbox at tick time *is* the miss.

use crate::archive::FleetSnapshotPart;
use crate::clock::VirtualClock;
use crate::inbox::{BoundedInbox, GatedInbox, GatedSlot, Offer};
use crate::memo::{Points, ShardMemo};
use crate::snapshot::{
    compress_fates, expand_fates, require_finite, RestoreError, SessionSnapshot, SnapshotError,
    SourceState, SNAPSHOT_VERSION,
};
use crate::spec::SharedForecaster;
use crate::spec::{ChannelSpec, SessionId, SessionSpec, SourceSpec};
use foreco_core::channel::{Arrival, Channel};
use foreco_core::{EngineSnapshot, EngineStateError, RecoveryEngine, RecoveryStats};
use foreco_robot::{ArmModel, DriverConfig, DriverState, RobotDriver};
use foreco_store::{trace_object_id, Storage, TraceHandle};
use foreco_wifi::DcfSolution;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

/// How many fates a streamed session draws from its channel per batch.
/// Chunked draws keep burst structure intact within a batch while
/// avoiding unbounded pre-draw for endless streams.
const FATE_CHUNK: usize = 256;

/// Final accounting for one completed session. Deserialisable so the
/// `foreco-net` control plane can ship it back to remote operators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Session id.
    pub id: SessionId,
    /// Virtual ticks executed.
    pub ticks: u64,
    /// Commands that missed their deadline (lost, late, or never sent).
    pub misses: usize,
    /// Commands dropped by inbox backpressure (streamed sessions).
    pub overflow_drops: u64,
    /// Task-space RMSE (mm) between executed and defined trajectories.
    pub rmse_mm: f64,
    /// Worst instantaneous deviation (mm).
    pub max_deviation_mm: f64,
    /// Recovery-engine counters (FoReCo sessions only).
    pub stats: Option<RecoveryStats>,
}

/// Scheduling verdict a session reports to its shard: when must this
/// session be polled again?
///
/// The verdict is *load-bearing* for the event-driven scheduler — a
/// non-gated session may only report [`Wake::AwaitingInput`] from a
/// **verified idle fixed point**, where one more idle tick would change
/// nothing but clocks and counters (engine in horizon-hold with a
/// saturated window, both drivers' PIDs settled to exact f64 no-ops, see
/// [`foreco_core::RecoveryEngine::idle_hold_is_identity`] and
/// [`foreco_robot::RobotDriver::hold_is_identity`], and no §VII-C late
/// command pending — the scheduler ticks a session through its late
/// patches rather than sleeping over them). That is what makes
/// [`Session::catch_up`] able to replay the skipped ticks' bookkeeping
/// exactly, keeping parked sessions bit-identical to eagerly ticked ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Poll again on the next scheduling pass (live traffic, draining,
    /// mid-transient, still inside the forecast horizon, or a late
    /// command pending).
    Runnable,
    /// Idle-stable with nothing pending: only new traffic
    /// ([`Session::offer`]) or a close can make the next tick differ, so
    /// don't poll until one arrives.
    AwaitingInput,
}

/// What one call to [`Session::advance`] did.
#[derive(Debug)]
pub enum Advance {
    /// The session consumed one virtual tick and continues; the payload
    /// tells the scheduler when to poll it next.
    Ticked(Wake),
    /// Nothing happened — **no tick was consumed** and no state changed.
    /// Only gated sessions report this: their clock is driven by ingress
    /// slots, and none was queued. The payload tells the scheduler when
    /// to poll again; unlike a parked idle-stable session, a gated wait
    /// accrues no backlog ([`Session::catch_up`] replays zero ticks).
    Idle(Wake),
    /// The session finished; it must be removed from its shard.
    Completed(Box<SessionReport>),
}

/// Where commands come from, each source with its perfect-channel
/// reference: what the executed arm's deviation is measured against.
enum Source {
    Scripted {
        /// The rows and their reference trajectory.
        script: Script,
        fates: Vec<Arrival>,
        /// The DCF solution a jammed script's fates were drawn from,
        /// held so the shard memo shares it with later opens on the
        /// same link while this session lives. `None` otherwise.
        _link: Option<Arc<DcfSolution>>,
    },
    Streamed {
        inbox: BoundedInbox,
        link: LiveLink,
        /// A driver fed every delivered command, ticked in lockstep.
        reference: RobotDriver,
    },
    /// Flow-controlled socket ingress: one queued [`GatedSlot`] per
    /// virtual tick (late patches ride between ticks), an empty queue
    /// suspends virtual time instead of counting a miss.
    Gated {
        inbox: GatedInbox,
        link: LiveLink,
        /// As for `Streamed`.
        reference: RobotDriver,
    },
}

/// A scripted session's rows and their reference trajectory, held
/// resident for the session's lifetime: acquired at open or restore,
/// never on the tick path.
struct Script {
    /// The rows: a replayed script's `Arc`, or the one a stored trace's
    /// store owns.
    commands: Arc<Vec<Vec<f64>>>,
    /// A stored trace's claim, which keeps the rows resident in its
    /// store and names them in an archive part. `None` for any other
    /// script.
    trace: Option<TraceHandle>,
    /// The reference position after each row, in tick order, pinned
    /// through the shard memo.
    trajectory: Arc<Points>,
}

impl Script {
    /// `commands` with their trajectory on `model` under `cfg`, shared
    /// through `memo`. A stored trace's rows come with `trace`, its claim
    /// on them.
    fn new(
        commands: Arc<Vec<Vec<f64>>>,
        trace: Option<TraceHandle>,
        model: &ArmModel,
        cfg: DriverConfig,
        memo: &mut ShardMemo,
    ) -> Self {
        debug_assert!(trace
            .as_ref()
            .is_none_or(|trace| Arc::ptr_eq(trace.commands(), &commands)));
        let trajectory = memo.trajectory(&commands, model_bits(model), config_bits(&cfg), |rows| {
            reference_trajectory(rows, model, cfg)
        });
        Self {
            commands,
            trace,
            trajectory,
        }
    }
}

/// The impairment side of a live (streamed or gated) source: the
/// channel, the spec it was built from, the chunked fate buffer, and
/// the closing flag.
struct LiveLink {
    channel: Box<dyn Channel + Send>,
    /// Construction parameters of `channel`, kept so a snapshot can
    /// rebuild the same impairment model elsewhere.
    spec: Box<ChannelSpec>,
    fate_buf: VecDeque<Arrival>,
    closing: bool,
}

impl LiveLink {
    fn open(spec: &ChannelSpec, memo: &mut ShardMemo) -> Self {
        Self {
            channel: spec.build(memo).0,
            spec: Box::new(spec.clone()),
            fate_buf: VecDeque::new(),
            closing: false,
        }
    }

    /// Rebuilds a link from its snapshot fields.
    ///
    /// # Errors
    /// [`RestoreError::Invalid`] when `spec` would panic in
    /// [`ChannelSpec::build`].
    fn restore(
        spec: &ChannelSpec,
        rng: Option<[u64; 4]>,
        fate_buf: &[Arrival],
        closing: bool,
        memo: &mut ShardMemo,
    ) -> Result<Self, RestoreError> {
        spec.validate().map_err(RestoreError::Invalid)?;
        let mut link = Self::open(spec, memo);
        if let Some(state) = rng {
            link.channel.restore_rng(state);
        }
        link.fate_buf.extend(fate_buf);
        link.closing = closing;
        Ok(link)
    }

    /// The channel's fate for the next delivered command, drawn in
    /// [`FATE_CHUNK`] batches.
    fn next_fate(&mut self) -> Arrival {
        if self.fate_buf.is_empty() {
            self.fate_buf.extend(self.channel.fates(FATE_CHUNK));
        }
        self.fate_buf.pop_front().expect("chunk refilled above")
    }
}

/// A driver at `start` with trail recording off, as every driver a
/// session ticks runs (O(1) memory however long it runs).
fn untrailed_driver(model: &ArmModel, cfg: DriverConfig, start: &[f64]) -> RobotDriver {
    let mut driver = RobotDriver::new(model.clone(), cfg, start);
    driver.set_recording(false);
    driver
}

/// The positions a driver on `model` under `cfg` reaches when fed each
/// of `rows` in turn: a scripted session's reference trajectory. The
/// rows must already be validated against the arm.
///
/// # Panics
/// On an empty script: a session starts from its first row.
fn reference_trajectory(rows: &[Vec<f64>], model: &ArmModel, cfg: DriverConfig) -> Vec<[f64; 3]> {
    assert!(!rows.is_empty(), "session: no commands");
    let mut driver = untrailed_driver(model, cfg, &model.clamp(&rows[0]));
    rows.iter()
        .map(|row| driver.tick(Some(row)).position_mm)
        .collect()
}

/// The arm model's content as raw bit words — every number a driver
/// tick reads from it — for the memo's trajectory key (never
/// normalised: `-0.0` and `+0.0` are different arms).
fn model_bits(model: &ArmModel) -> Vec<u64> {
    let limits = model
        .limits
        .iter()
        .flat_map(|l| [l.min, l.max, l.max_velocity]);
    let links = model
        .chain
        .links()
        .iter()
        .flat_map(|l| [l.a, l.alpha, l.d, l.theta_offset]);
    limits.chain(links).map(f64::to_bits).collect()
}

/// The driver configuration as raw bit words (see [`model_bits`]).
fn config_bits(cfg: &DriverConfig) -> [u64; 4] {
    [cfg.period, cfg.gains.kp, cfg.gains.ki, cfg.gains.kd].map(f64::to_bits)
}

/// A hosted recovery loop (see module docs).
pub struct Session {
    id: SessionId,
    source: Source,
    engine: Option<RecoveryEngine>,
    executed: RobotDriver,
    /// Late commands waiting to (maybe) patch FoReCo's history:
    /// (arrival time, tick index, payload) — §VII-C.
    pending_late: Vec<(f64, usize, Vec<f64>)>,
    /// Reusable buffer the engine's zero-allocation tick writes the
    /// injected command into (sized `dof`, lives for the session).
    injected: Vec<f64>,
    clock: VirtualClock,
    omega: f64,
    misses: usize,
    /// Running sum of squared task-space deviation (mm²), accumulated in
    /// `trajectory_rmse_mm` order.
    acc_sq_mm: f64,
    worst_mm: f64,
}

impl Session {
    /// Materialises a session from its spec on the given arm model.
    ///
    /// # Panics
    /// Panics if a replayed or stored source has no commands, or if the
    /// engine dimensionality mismatches the arm.
    pub fn open(spec: &SessionSpec, model: &ArmModel) -> Self {
        Self::open_with(spec, model, &mut ShardMemo::default())
    }

    /// [`Session::open`] with the DCF solution and the scripted reference
    /// trajectory shared through a shard's `memo`.
    pub(crate) fn open_with(spec: &SessionSpec, model: &ArmModel, memo: &mut ShardMemo) -> Self {
        let omega = spec.driver.period;
        let (source, start) = match &spec.source {
            SourceSpec::Replayed(commands) => {
                let script = Script::new(Arc::clone(commands), None, model, spec.driver, memo);
                Self::scripted_source(script, spec, model, memo)
            }
            SourceSpec::Stored(handle) => {
                let commands = Arc::clone(handle.commands());
                let script = Script::new(commands, Some(handle.clone()), model, spec.driver, memo);
                Self::scripted_source(script, spec, model, memo)
            }
            SourceSpec::Streamed {
                initial,
                inbox_capacity,
            } => {
                let start = model.clamp(initial);
                (
                    Source::Streamed {
                        inbox: BoundedInbox::new(*inbox_capacity),
                        link: LiveLink::open(&spec.channel, memo),
                        reference: untrailed_driver(model, spec.driver, &start),
                    },
                    start,
                )
            }
            SourceSpec::Gated {
                initial,
                inbox_capacity,
            } => {
                let start = model.clamp(initial);
                (
                    Source::Gated {
                        inbox: GatedInbox::new(*inbox_capacity),
                        link: LiveLink::open(&spec.channel, memo),
                        reference: untrailed_driver(model, spec.driver, &start),
                    },
                    start,
                )
            }
        };
        Self {
            id: spec.id,
            injected: vec![0.0; model.dof()],
            executed: untrailed_driver(model, spec.driver, &start),
            engine: spec.recovery.build(start),
            source,
            pending_late: Vec::new(),
            clock: VirtualClock::new(omega),
            omega,
            misses: 0,
            acc_sq_mm: 0.0,
            worst_mm: 0.0,
        }
    }

    fn scripted_source(
        script: Script,
        spec: &SessionSpec,
        model: &ArmModel,
        memo: &mut ShardMemo,
    ) -> (Source, Vec<f64>) {
        let commands = &script.commands;
        let (mut channel, link) = spec.channel.build(memo);
        let fates = channel.fates(commands.len());
        let start = model.clamp(&commands[0]);
        (
            Source::Scripted {
                script,
                fates,
                _link: link,
            },
            start,
        )
    }

    /// Session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Current virtual tick.
    pub fn tick(&self) -> u64 {
        self.clock.tick()
    }

    /// Offers a live command to a streamed or gated session's inbox.
    /// Returns the backpressure outcome; scripted sessions always report
    /// `Dropped`.
    pub fn offer(&mut self, command: Vec<f64>) -> Offer {
        match &mut self.source {
            Source::Streamed { inbox, .. } => inbox.offer(command),
            Source::Gated { inbox, .. } => inbox.offer(command),
            Source::Scripted { .. } => Offer::Dropped,
        }
    }

    /// Enqueues an explicit loss slot on a gated session — the wire said
    /// "this tick's command is gone", and the next consumed tick becomes
    /// the miss the engine forecasts over. `Dropped` for every other
    /// source (their losses are modelled elsewhere).
    pub fn offer_miss(&mut self) -> Offer {
        match &mut self.source {
            Source::Gated { inbox, .. } => {
                inbox.offer_miss();
                Offer::Accepted
            }
            _ => Offer::Dropped,
        }
    }

    /// Enqueues a §VII-C late patch on a gated session: a command whose
    /// slot was already flushed as missed resurfaced `age` ticks later.
    /// The patch consumes no tick; it amends the engine history just
    /// before the next slot is consumed. `Dropped` for other sources.
    pub fn offer_late(&mut self, command: Vec<f64>, age: usize) -> Offer {
        match &mut self.source {
            Source::Gated { inbox, .. } => inbox.offer_late(command, age),
            _ => Offer::Dropped,
        }
    }

    /// Marks a streamed/gated session closing: it drains its inbox and
    /// then completes. No-op for scripted sessions (they end with the
    /// script).
    pub fn close(&mut self) {
        match &mut self.source {
            Source::Streamed { link, .. } | Source::Gated { link, .. } => link.closing = true,
            Source::Scripted { .. } => {}
        }
    }

    /// Advances one virtual tick.
    ///
    /// This is the service's hot path: in steady state (scripted replay
    /// or a live command already queued) it performs **zero heap
    /// allocations** — scripted commands are borrowed straight from the
    /// shared script, the engine ticks through
    /// [`RecoveryEngine::tick_into`] into the session-owned `injected`
    /// buffer, and the drivers update in place (a session reading a
    /// shared reference trajectory ticks one). The remaining
    /// allocator traffic is bounded and off the steady path: inbox
    /// hand-offs (owned at offer time), a fate-chunk refill every
    /// `FATE_CHUNK` streamed deliveries, and §VII-C pending-late
    /// bookkeeping.
    pub fn advance(&mut self) -> Advance {
        // What does this tick deliver? `None` = deadline miss. Scripted
        // sessions borrow the command; live sources hand over the owned
        // buffer their offer already allocated.
        //
        // Reference: the defined trajectory (perfect channel), read by
        // tick index off a script, or ticked on a live source's driver.
        // Live misses have no command to define with — the live driver
        // holds, like the executed side's baseline.
        let i = self.clock.tick() as usize;
        let (delivered, fate, ref_pos): (Option<Cow<'_, [f64]>>, Arrival, [f64; 3]) =
            match &mut self.source {
                Source::Scripted { script, fates, .. } => {
                    let commands = &script.commands;
                    if i >= commands.len() {
                        return Advance::Completed(Box::new(self.report()));
                    }
                    let command = Cow::Borrowed(commands[i].as_slice());
                    (Some(command), fates[i], script.trajectory[i])
                }
                Source::Streamed {
                    inbox,
                    link,
                    reference,
                } => {
                    let (command, fate) = match inbox.take() {
                        Some(cmd) => (Some(cmd), link.next_fate()),
                        // An empty inbox at tick time is itself the miss:
                        // the operator (or the backpressure drop) left
                        // this slot unfilled.
                        None if link.closing => return Advance::Completed(Box::new(self.report())),
                        None => (None, Arrival::Lost),
                    };
                    let ref_pos = reference.tick(command.as_deref()).position_mm;
                    (command.map(Cow::Owned), fate, ref_pos)
                }
                Source::Gated {
                    inbox,
                    link,
                    reference,
                } => {
                    let (command, fate) = loop {
                        match inbox.take() {
                            // Late patches ride between ticks: amend the
                            // engine history and keep looking for a
                            // tick-consuming slot.
                            Some(GatedSlot::Late { command, age }) => {
                                if let Some(engine) = &mut self.engine {
                                    engine.late_command(&command, age);
                                }
                            }
                            Some(GatedSlot::Command(cmd)) => break (Some(cmd), link.next_fate()),
                            // The wire's explicit loss verdict for this
                            // slot (take() always yields single-slot units).
                            Some(GatedSlot::Miss { .. }) => break (None, Arrival::Lost),
                            // No verdict yet is *not* a miss: virtual time
                            // suspends until the gateway enqueues one (or
                            // the session closes).
                            None if link.closing => {
                                return Advance::Completed(Box::new(self.report()))
                            }
                            None => return Advance::Idle(Wake::AwaitingInput),
                        }
                    };
                    let ref_pos = reference.tick(command.as_deref()).position_mm;
                    (command.map(Cow::Owned), fate, ref_pos)
                }
            };

        let now = (i as f64 + 1.0) * self.omega; // driver consumption instant

        // Executed driver: impairment + recovery, mirroring
        // `run_closed_loop` exactly.
        let exec_pos = match &mut self.engine {
            None => {
                // Baseline: repeat-last on every miss.
                let sample = match (delivered.as_deref(), fate.on_time()) {
                    (Some(cmd), true) => self.executed.tick(Some(cmd)),
                    _ => {
                        self.misses += 1;
                        self.executed.tick(None)
                    }
                };
                sample.position_mm
            }
            Some(engine) => {
                // Deliver late commands that have arrived by now (§VII-C).
                pending_late_drain(&mut self.pending_late, engine, now, i);
                match (delivered, fate.on_time()) {
                    (Some(cmd), true) => {
                        engine.tick_into(Some(&cmd), &mut self.injected);
                    }
                    (delivered, _) => {
                        self.misses += 1;
                        if let (Some(cmd), Arrival::Late(delay)) = (delivered, fate) {
                            self.pending_late.push((
                                i as f64 * self.omega + delay,
                                i,
                                cmd.into_owned(),
                            ));
                        }
                        engine.tick_into(None, &mut self.injected);
                    }
                }
                self.executed.tick(Some(&self.injected)).position_mm
            }
        };

        // Task-space error, accumulated in `trajectory_rmse_mm` /
        // `max_deviation_mm` operation order so the final report is
        // bit-identical to the offline metrics.
        let d2 = deviation_sq(&exec_pos, &ref_pos);
        self.acc_sq_mm += d2;
        self.worst_mm = self.worst_mm.max(d2.sqrt());

        self.clock.advance();
        Advance::Ticked(self.wake_hint())
    }

    /// The scheduling verdict for this session's *next* tick, computable
    /// at any tick boundary (freshly opened, just advanced, or just
    /// restored from a snapshot). See [`Wake`] for the contract.
    pub fn wake_hint(&self) -> Wake {
        // Gated sessions are wire-driven: runnable exactly while slots
        // (or a close) are pending, awaiting input otherwise — their
        // virtual time suspends while they wait.
        if let Source::Gated { inbox, link, .. } = &self.source {
            return if link.closing || !inbox.is_empty() {
                Wake::Runnable
            } else {
                Wake::AwaitingInput
            };
        }
        if self.idle_stable() {
            Wake::AwaitingInput
        } else {
            Wake::Runnable
        }
    }

    /// True when the next tick, fed nothing, would change no state bit
    /// outside clocks and counters: streamed source with an empty inbox
    /// and not draining, no §VII-C late command pending, engine (if any)
    /// at its hold identity, both drivers at their hold fixed points.
    /// Scripted sessions always have a next command, so they are never
    /// idle.
    fn idle_stable(&self) -> bool {
        let reference = match &self.source {
            // Gated sessions never reach this notion of idleness: their
            // parked state is "clock suspended", not "idle ticks elided".
            Source::Scripted { .. } | Source::Gated { .. } => return false,
            Source::Streamed {
                inbox,
                link,
                reference,
            } => {
                if !inbox.is_empty() || link.closing || !self.pending_late.is_empty() {
                    return false;
                }
                reference
            }
        };
        let executed_holds = match &self.engine {
            Some(engine) => {
                engine.idle_hold_is_identity()
                    && self.executed.hold_is_identity(Some(engine.held_command()))
            }
            None => self.executed.hold_is_identity(None),
        };
        executed_holds && reference.hold_is_identity(None)
    }

    /// Replays `ticks` idle ticks' bookkeeping at a verified idle fixed
    /// point, bit-identically to eager [`Session::advance`] calls: each
    /// skipped tick is a deadline miss covered by the engine's hold (or
    /// the baseline's repeat-last), the constant task-space deviation
    /// accumulates term by term in the eager summation order, and both
    /// drivers' clocks replay their per-tick `t += Ω` additions.
    ///
    /// The scheduler calls this when waking a parked session: the state
    /// after `catch_up(k)` equals the state after `k` eager idle
    /// advances, so parking is observationally invisible. Returns the
    /// ticks actually replayed — `ticks` for idle-stable sessions, `0`
    /// for gated ones, whose virtual clock was *suspended* while parked
    /// (no ticks happened, so there is nothing to replay).
    ///
    /// # Panics
    /// Panics (debug) when the session is neither gated nor idle-stable
    /// — catching up anywhere else (a late patch falling due inside the
    /// span included) would corrupt the determinism contract.
    pub fn catch_up(&mut self, ticks: u64) -> u64 {
        if matches!(self.source, Source::Gated { .. }) {
            return 0;
        }
        if ticks == 0 {
            return 0;
        }
        debug_assert!(self.idle_stable(), "catch_up outside the idle fixed point");
        let Source::Streamed { reference, .. } = &mut self.source else {
            // Scripted sessions never idle: there is nothing to replay.
            return 0;
        };
        // Positions are frozen at the fixed point, so the per-tick
        // deviation is one constant — computed by the same expression
        // `advance` evaluates, on the same (unchanged) joints.
        let exec_pos = self
            .executed
            .model()
            .chain
            .forward_mm(self.executed.joints());
        let ref_pos = reference.model().chain.forward_mm(reference.joints());
        let d2 = deviation_sq(&exec_pos, &ref_pos);
        let d = d2.sqrt();
        for _ in 0..ticks {
            // Term-by-term: f64 addition is not associative, and the
            // report must match the eager accumulation bit for bit.
            self.acc_sq_mm += d2;
        }
        // The park decision required at least one eager tick at this
        // state, so `worst_mm` has already absorbed `d`; max is a no-op
        // applied once for the whole span.
        self.worst_mm = self.worst_mm.max(d);
        self.misses += ticks as usize;
        if let Some(engine) = &mut self.engine {
            engine.apply_idle_holds(ticks);
        }
        reference.advance_time(ticks);
        self.executed.advance_time(ticks);
        self.clock.advance_by(ticks);
        ticks
    }

    fn report(&self) -> SessionReport {
        let n = self.clock.tick();
        let overflow_drops = match &self.source {
            Source::Streamed { inbox, .. } => inbox.dropped(),
            Source::Gated { inbox, .. } => inbox.dropped(),
            Source::Scripted { .. } => 0,
        };
        SessionReport {
            id: self.id,
            ticks: n,
            misses: self.misses,
            overflow_drops,
            rmse_mm: if n == 0 {
                0.0
            } else {
                (self.acc_sq_mm / n as f64).sqrt()
            },
            max_deviation_mm: self.worst_mm,
            stats: self.engine.as_ref().map(RecoveryEngine::stats),
        }
    }

    /// The arm model this session drives.
    pub fn model(&self) -> &ArmModel {
        self.executed.model()
    }

    /// Checkpoints the complete session to a [`SessionSnapshot`]: engine
    /// history, forecaster, PID/driver state (the reference driver's
    /// only on a live source: a script's trajectory is re-derived at
    /// restore), channel RNG, tick, and every accumulator. The
    /// session keeps running; restoring the snapshot anywhere continues
    /// it with bit-identical outputs (see the [`crate::snapshot`] module
    /// docs for the contract).
    ///
    /// # Errors
    /// [`SnapshotError::UnsupportedForecaster`] when the engine wraps a
    /// forecaster with no serialisable form (e.g. seq2seq).
    pub fn snapshot(&self) -> Result<SessionSnapshot, SnapshotError> {
        let engine = self.engine_snapshot()?;
        let source = match &self.source {
            Source::Scripted { script, fates, .. } => SourceState::Scripted {
                commands: (*script.commands).clone(),
                fates: fates.clone(),
            },
            Source::Streamed { inbox, link, .. } => SourceState::Streamed {
                inbox: inbox.snapshot(),
                channel: link.spec.clone(),
                channel_rng: link.channel.rng_state(),
                fate_buf: link.fate_buf.iter().copied().collect(),
                closing: link.closing,
            },
            Source::Gated { inbox, link, .. } => SourceState::Gated {
                inbox: inbox.snapshot(),
                channel: link.spec.clone(),
                channel_rng: link.channel.rng_state(),
                fate_buf: link.fate_buf.iter().copied().collect(),
                closing: link.closing,
            },
        };
        Ok(self.snapshot_shell(source, engine))
    }

    /// Checkpoints for a bulk fleet archive: a scripted source is
    /// captured as [`SourceState::ScriptedRef`] — the trace's content
    /// address plus run-length-encoded fates — and the trace payload is
    /// returned alongside as a cheap `Arc` clone, so assembling an
    /// archive of N sessions over one trace costs O(traces), not
    /// O(sessions × trace), in both time and bytes. Non-scripted
    /// sessions fall back to their self-contained snapshot (`None`
    /// payload).
    ///
    /// # Errors
    /// Same as [`Session::snapshot`].
    pub fn snapshot_for_fleet(&self) -> Result<FleetSnapshotPart, SnapshotError> {
        match &self.source {
            Source::Scripted { script, fates, .. } => {
                let engine = self.engine_snapshot()?;
                let id = match &script.trace {
                    Some(trace) => trace.id(),
                    None => trace_object_id(&script.commands),
                };
                let source = SourceState::ScriptedRef {
                    trace: id,
                    fates: compress_fates(fates),
                };
                Ok((
                    self.snapshot_shell(source, engine),
                    Some((id, Arc::clone(&script.commands))),
                ))
            }
            _ => Ok((self.snapshot()?, None)),
        }
    }

    /// What a migration ships: a session holding a stored-trace claim
    /// travels in archive form ([`Session::snapshot_for_fleet`]) with a
    /// clone of its claim, so the destination shares the resident trace
    /// and the store never loses track of it; every other session
    /// ships its self-contained snapshot.
    pub(crate) fn snapshot_for_transfer(
        &self,
    ) -> Result<(SessionSnapshot, Option<TraceHandle>), SnapshotError> {
        match &self.source {
            Source::Scripted {
                script: Script {
                    trace: Some(trace), ..
                },
                ..
            } => Ok((self.snapshot_for_fleet()?.0, Some(trace.clone()))),
            _ => Ok((self.snapshot()?, None)),
        }
    }

    /// The engine layer of a snapshot.
    fn engine_snapshot(&self) -> Result<Option<EngineSnapshot>, SnapshotError> {
        match &self.engine {
            None => Ok(None),
            Some(engine) => match engine.snapshot() {
                Ok(snap) => Ok(Some(snap)),
                Err(EngineStateError::UnsupportedForecaster { name }) => {
                    Err(SnapshotError::UnsupportedForecaster { name })
                }
                Err(EngineStateError::Invalid { reason }) => {
                    unreachable!("live engine exported invalid state: {reason}")
                }
            },
        }
    }

    /// Everything in a snapshot that does not depend on how the source
    /// is encoded.
    fn snapshot_shell(
        &self,
        source: SourceState,
        engine: Option<EngineSnapshot>,
    ) -> SessionSnapshot {
        SessionSnapshot {
            version: SNAPSHOT_VERSION,
            id: self.id,
            tick: self.clock.tick(),
            period: self.omega,
            driver: *self.executed.config(),
            misses: self.misses,
            acc_sq_mm: self.acc_sq_mm,
            worst_mm: self.worst_mm,
            source,
            engine,
            pending_late: self.pending_late.clone(),
            // A script's trajectory is re-derived from it at restore.
            reference: match &self.source {
                Source::Scripted { .. } => None,
                Source::Streamed { reference, .. } | Source::Gated { reference, .. } => {
                    Some(reference.export_state())
                }
            },
            executed: self.executed.export_state(),
        }
    }

    /// Rehydrates a session from a snapshot onto `model`, continuing
    /// exactly where the snapshotted session left off.
    ///
    /// A streamed or gated frame restores its live reference driver from
    /// the frame's reference state. A scripted frame re-derives its
    /// reference trajectory from the script: an inline script computes
    /// its own copy here (its rows are the frame's fresh copy, which no
    /// other session shares); a by-reference one keys it by its trace's
    /// rows, so on a shard it shares the copy of every session on that
    /// trace ([`Session::restore_stored`] alone builds its own). Reference state on a scripted
    /// frame (every v1–v3 frame carries it, as do v4/v5 frames written
    /// by sessions that ticked a live driver over a script) is validated
    /// against `model`, then dropped: the trajectory is that driver's
    /// output.
    ///
    /// A [`SourceState::ScriptedRef`] snapshot (an archive entry) is
    /// rejected here — the script is not in the snapshot; claim it from
    /// storage and use [`Session::restore_stored`].
    ///
    /// # Errors
    /// [`RestoreError::Version`] on a foreign format version and
    /// [`RestoreError::Invalid`] when the snapshot violates session
    /// invariants (dimension mismatches against `model`, inconsistent
    /// script/fate lengths, out-of-range restore points, …).
    pub fn restore(snap: &SessionSnapshot, model: &ArmModel) -> Result<Self, RestoreError> {
        Self::restore_with(snap, model, None, None, &mut ShardMemo::default())
    }

    /// [`Session::restore`] with engine model weights resolved through
    /// shared storage: the snapshot's forecaster is content-addressed
    /// into `models`, so N same-model sessions restored on one store
    /// hold N claims on *one* resident copy instead of N deep clones.
    /// Forecasters the store cannot address (none of the snapshotable
    /// families today) fall back to a deep-built copy.
    ///
    /// # Errors
    /// As [`Session::restore`].
    pub fn restore_shared(
        snap: &SessionSnapshot,
        model: &ArmModel,
        models: &Storage,
    ) -> Result<Self, RestoreError> {
        Self::restore_with(snap, model, None, Some(models), &mut ShardMemo::default())
    }

    /// Rehydrates a [`SourceState::ScriptedRef`] snapshot, resolving the
    /// trace reference through `trace` — a claim on the referenced
    /// script, typically from [`foreco_store::Storage::get_trace`]. The
    /// restored session holds the claim for its lifetime.
    ///
    /// # Errors
    /// As [`Session::restore`], plus [`RestoreError::Invalid`] when
    /// `trace` is not the trace the snapshot references.
    pub fn restore_stored(
        snap: &SessionSnapshot,
        model: &ArmModel,
        trace: TraceHandle,
    ) -> Result<Self, RestoreError> {
        Self::restore_with(snap, model, Some(trace), None, &mut ShardMemo::default())
    }

    /// Shared body of the restore entries. `models` is the optional
    /// shared-storage route for engine weights (see
    /// [`Session::restore_shared`]); `memo` shares a jammed link's DCF
    /// solution and a script's trajectory with the shard's other
    /// sessions. A channel spec is validated before the memo sees it.
    pub(crate) fn restore_with(
        snap: &SessionSnapshot,
        model: &ArmModel,
        trace: Option<TraceHandle>,
        models: Option<&Storage>,
        memo: &mut ShardMemo,
    ) -> Result<Self, RestoreError> {
        match snap.version {
            // v1 layouts are a subset of v2 (no `ScriptedRef`), v3
            // changed only the byte encoding, and v4 only lets the
            // reference state be absent, so one restore path serves
            // every legal version.
            1..=3 if snap.reference.is_none() => {
                return Err(RestoreError::Invalid(format!(
                    "a v{} snapshot must carry reference driver state",
                    snap.version
                )))
            }
            1..=SNAPSHOT_VERSION => {}
            found => {
                return Err(RestoreError::Version {
                    found,
                    expected: SNAPSHOT_VERSION,
                })
            }
        }
        if !snap.period.is_finite() || snap.period <= 0.0 {
            return Err(RestoreError::Invalid("period must be positive".into()));
        }
        // `RobotDriver::new` asserts on the driver period: reject it here
        // before either driver is built.
        if !snap.driver.period.is_finite() || snap.driver.period <= 0.0 {
            return Err(RestoreError::Invalid(
                "driver period must be positive".into(),
            ));
        }
        if let Some(reference) = &snap.reference {
            validate_driver_state(reference, model, "reference")?;
        }
        validate_driver_state(&snap.executed, model, "executed")?;
        if let Some(bad) = snap
            .pending_late
            .iter()
            .find(|(_, _, payload)| payload.len() != model.dof())
        {
            return Err(RestoreError::Invalid(format!(
                "pending late command of dimension {} for a {}-DoF arm",
                bad.2.len(),
                model.dof()
            )));
        }
        require_finite(
            "pending late command",
            snap.pending_late.iter().map(|(_, _, payload)| payload),
        )?;
        let live_reference = || match &snap.reference {
            Some(state) => Ok(RobotDriver::from_state(model.clone(), snap.driver, state)),
            None => Err(RestoreError::Invalid(
                "only a scripted source may omit the reference driver state".into(),
            )),
        };
        let source = match &snap.source {
            SourceState::Scripted { commands, fates } => {
                validate_script(commands, fates.len(), snap.tick, model)?;
                Source::Scripted {
                    script: Script::new(Arc::new(commands.clone()), None, model, snap.driver, memo),
                    fates: fates.clone(),
                    _link: None,
                }
            }
            SourceState::ScriptedRef {
                trace: trace_id,
                fates,
            } => {
                let handle = trace.ok_or_else(|| {
                    RestoreError::Invalid(format!(
                        "scripted-ref snapshot needs trace {trace_id} claimed from storage \
                         (restore_stored / adopt_fleet)"
                    ))
                })?;
                if handle.id() != *trace_id {
                    return Err(RestoreError::Invalid(format!(
                        "trace {} is not the script this snapshot references ({trace_id})",
                        handle.id()
                    )));
                }
                let fates = expand_fates(fates, handle.commands().len())?;
                validate_script(handle.commands(), fates.len(), snap.tick, model)?;
                Source::Scripted {
                    script: Script::new(
                        Arc::clone(handle.commands()),
                        Some(handle),
                        model,
                        snap.driver,
                        memo,
                    ),
                    fates,
                    _link: None,
                }
            }
            SourceState::Streamed {
                inbox,
                channel,
                channel_rng,
                fate_buf,
                closing,
            } => Source::Streamed {
                inbox: BoundedInbox::from_state(inbox, model.dof())?,
                link: LiveLink::restore(channel, *channel_rng, fate_buf, *closing, memo)?,
                reference: live_reference()?,
            },
            SourceState::Gated {
                inbox,
                channel,
                channel_rng,
                fate_buf,
                closing,
            } => Source::Gated {
                inbox: GatedInbox::from_state(inbox, model.dof())?,
                link: LiveLink::restore(channel, *channel_rng, fate_buf, *closing, memo)?,
                reference: live_reference()?,
            },
        };
        let engine = match &snap.engine {
            None => None,
            Some(engine_snap) => {
                if engine_snap.history.first().map(Vec::len) != Some(model.dof()) {
                    return Err(RestoreError::Invalid(
                        "engine dimensionality mismatches the arm".into(),
                    ));
                }
                // The forecaster sub-blob skipped its constructor's
                // checks; `build` and the tick path rely on them.
                engine_snap
                    .forecaster
                    .validate()
                    .map_err(RestoreError::Invalid)?;
                match models.and_then(|store| {
                    // Content-address the snapshotted weights: same
                    // model ⇒ same resident copy, claimed not cloned.
                    // One transient build pays for the address; the
                    // resident Arc is what the engine keeps.
                    store
                        .insert_model(Arc::from(engine_snap.forecaster.build()))
                        .ok()
                }) {
                    // The engine's boxed wrapper holds the claim for the
                    // session's lifetime.
                    Some(claim) => Some(RecoveryEngine::from_snapshot_with(
                        engine_snap.clone(),
                        Box::new(SharedForecaster::from_handle(claim)),
                    )?),
                    None => Some(RecoveryEngine::from_snapshot(engine_snap.clone())?),
                }
            }
        };
        Ok(Self {
            id: snap.id,
            source,
            engine,
            injected: vec![0.0; model.dof()],
            executed: RobotDriver::from_state(model.clone(), snap.driver, &snap.executed),
            pending_late: snap.pending_late.clone(),
            clock: VirtualClock::at_tick(snap.period, snap.tick),
            omega: snap.period,
            misses: snap.misses,
            acc_sq_mm: snap.acc_sq_mm,
            worst_mm: snap.worst_mm,
        })
    }
}

/// Validates a scripted source at restore time — shared by the inline
/// `Scripted` and by-reference `ScriptedRef` decode paths, so both
/// enforce identical invariants before the trajectory build ticks a
/// driver over every row.
fn validate_script(
    commands: &[Vec<f64>],
    fates: usize,
    tick: u64,
    model: &ArmModel,
) -> Result<(), RestoreError> {
    if commands.is_empty() {
        return Err(RestoreError::Invalid(
            "scripted source without commands".into(),
        ));
    }
    if let Some(bad) = commands.iter().find(|c| c.len() != model.dof()) {
        return Err(RestoreError::Invalid(format!(
            "scripted command of dimension {} for a {}-DoF arm",
            bad.len(),
            model.dof()
        )));
    }
    require_finite("scripted command", commands.iter())?;
    if fates != commands.len() {
        return Err(RestoreError::Invalid(format!(
            "{fates} fates for {} commands",
            commands.len()
        )));
    }
    if tick as usize > commands.len() {
        return Err(RestoreError::Invalid(format!(
            "tick {tick} beyond the {}-command script",
            commands.len()
        )));
    }
    Ok(())
}

/// Pre-checks a driver state against the target arm so restore returns
/// an error instead of tripping `RobotDriver::from_state`'s panics.
fn validate_driver_state(
    state: &DriverState,
    model: &ArmModel,
    which: &str,
) -> Result<(), RestoreError> {
    let dof = model.dof();
    if state.joints.len() != dof || state.last_command.len() != dof || state.pids.len() != dof {
        return Err(RestoreError::Invalid(format!(
            "{which} driver shape ({} joints, {} command dims, {} PIDs) mismatches the {dof}-DoF arm",
            state.joints.len(),
            state.last_command.len(),
            state.pids.len()
        )));
    }
    if !model.within_limits(&state.joints) {
        return Err(RestoreError::Invalid(format!(
            "{which} driver pose violates joint limits"
        )));
    }
    Ok(())
}

/// Squared task-space deviation (mm²) between the executed and the
/// reference tool positions, summed in `trajectory_rmse_mm` term order.
fn deviation_sq(exec_pos: &[f64; 3], ref_pos: &[f64; 3]) -> f64 {
    (exec_pos[0] - ref_pos[0]).powi(2)
        + (exec_pos[1] - ref_pos[1]).powi(2)
        + (exec_pos[2] - ref_pos[2]).powi(2)
}

/// Mirrors the `pending_late.retain` block of `run_closed_loop`.
fn pending_late_drain(
    pending: &mut Vec<(f64, usize, Vec<f64>)>,
    engine: &mut RecoveryEngine,
    now: f64,
    i: usize,
) {
    pending.retain(|(arrives, idx, payload)| {
        if *arrives <= now {
            let age = i.saturating_sub(*idx);
            engine.late_command(payload, age);
            false
        } else {
            true
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChannelSpec, RecoverySpec, SessionSpec, SharedForecaster, SourceSpec};
    use foreco_core::{run_closed_loop, RecoveryConfig, RecoveryEngine, RecoveryMode};
    use foreco_forecast::{MovingAverage, Var};
    use foreco_robot::niryo_one;
    use foreco_teleop::{Dataset, Skill};

    fn trained_var() -> Var {
        let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
        Var::fit_differenced(&train, 5, 1e-6).unwrap()
    }

    #[test]
    fn scripted_session_matches_solo_closed_loop() {
        let model = niryo_one();
        let var = trained_var();
        let test = Dataset::record(Skill::Inexperienced, 1, 0.02, 321);
        let channel = ChannelSpec::ControlledLoss {
            burst_len: 8,
            burst_prob: 0.01,
            seed: 5,
        };
        let spec = SessionSpec::new(
            9,
            SourceSpec::replay(&test),
            channel.clone(),
            RecoverySpec::FoReCo {
                forecaster: SharedForecaster::new(var.clone()),
                config: RecoveryConfig::for_model(&model),
            },
        );
        let mut session = Session::open(&spec, &model);
        let report = loop {
            if let Advance::Completed(report) = session.advance() {
                break report;
            }
        };

        let fates = channel
            .build(&mut ShardMemo::default())
            .0
            .fates(test.commands.len());
        let engine = RecoveryEngine::new(
            Box::new(var),
            RecoveryConfig::for_model(&model),
            model.clamp(&test.commands[0]),
        );
        let solo = run_closed_loop(
            &model,
            &test.commands,
            &fates,
            RecoveryMode::FoReCo(engine),
            spec.driver,
        );
        assert_eq!(report.ticks as usize, test.commands.len());
        assert_eq!(report.misses, solo.misses);
        assert_eq!(report.stats, solo.stats);
        assert_eq!(
            report.rmse_mm.to_bits(),
            solo.rmse_mm.to_bits(),
            "rmse must be bit-identical"
        );
        assert_eq!(
            report.max_deviation_mm.to_bits(),
            solo.max_deviation_mm.to_bits(),
            "max deviation must be bit-identical"
        );
    }

    #[test]
    fn baseline_session_matches_solo_closed_loop() {
        let model = niryo_one();
        let test = Dataset::record(Skill::Inexperienced, 1, 0.02, 654);
        let channel = ChannelSpec::ControlledLoss {
            burst_len: 10,
            burst_prob: 0.02,
            seed: 3,
        };
        let spec = SessionSpec::new(
            1,
            SourceSpec::replay(&test),
            channel.clone(),
            RecoverySpec::Baseline,
        );
        let mut session = Session::open(&spec, &model);
        let report = loop {
            if let Advance::Completed(report) = session.advance() {
                break report;
            }
        };
        let fates = channel
            .build(&mut ShardMemo::default())
            .0
            .fates(test.commands.len());
        let solo = run_closed_loop(
            &model,
            &test.commands,
            &fates,
            RecoveryMode::Baseline,
            spec.driver,
        );
        assert_eq!(report.misses, solo.misses);
        assert_eq!(report.rmse_mm.to_bits(), solo.rmse_mm.to_bits());
        assert!(report.stats.is_none());
    }

    #[test]
    fn streamed_session_covers_missing_ticks() {
        let model = niryo_one();
        let home = model.home();
        let spec = SessionSpec::new(
            2,
            SourceSpec::Streamed {
                initial: home.clone(),
                inbox_capacity: 4,
            },
            ChannelSpec::Ideal,
            RecoverySpec::FoReCo {
                forecaster: SharedForecaster::new(MovingAverage::new(2, home.len())),
                config: RecoveryConfig::for_model(&model),
            },
        );
        let mut session = Session::open(&spec, &model);
        // Feed two commands, then starve it for three ticks.
        session.offer(home.clone());
        session.offer(home.clone());
        for _ in 0..5 {
            assert!(matches!(session.advance(), Advance::Ticked(_)));
        }
        session.close();
        let report = match session.advance() {
            Advance::Completed(report) => report,
            other => panic!("closing session with empty inbox must complete, got {other:?}"),
        };
        assert_eq!(report.ticks, 5);
        assert_eq!(report.misses, 3);
        let stats = report.stats.unwrap();
        assert_eq!(stats.delivered, 2);
        assert_eq!(
            stats.forecasts + stats.warmup_repeats + stats.horizon_holds,
            3,
            "every starved tick covered by the engine"
        );
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // Run one session straight through; run a twin that is frozen to
        // bytes mid-run and rehydrated. Final reports must match bit for
        // bit — the session-level form of the determinism contract.
        let model = niryo_one();
        let var = trained_var();
        let test = Dataset::record(Skill::Inexperienced, 1, 0.02, 77);
        let spec = SessionSpec::new(
            4,
            SourceSpec::replay(&test),
            ChannelSpec::ControlledLoss {
                burst_len: 6,
                burst_prob: 0.015,
                seed: 21,
            },
            RecoverySpec::FoReCo {
                forecaster: SharedForecaster::new(var),
                config: RecoveryConfig::for_model(&model),
            },
        );
        let mut straight = Session::open(&spec, &model);
        let mut resumed = Session::open(&spec, &model);
        for _ in 0..test.commands.len() / 3 {
            assert!(matches!(resumed.advance(), Advance::Ticked(_)));
        }
        let bytes = resumed.snapshot().expect("VAR is snapshotable").to_bytes();
        let snap = crate::snapshot::SessionSnapshot::from_bytes(&bytes).expect("decode");
        let mut resumed = Session::restore(&snap, &model).expect("restore");
        assert_eq!(resumed.tick() as usize, test.commands.len() / 3);

        let finish = |s: &mut Session| loop {
            if let Advance::Completed(report) = s.advance() {
                break report;
            }
        };
        let a = finish(&mut straight);
        let b = finish(&mut resumed);
        assert_eq!(a.misses, b.misses);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.rmse_mm.to_bits(), b.rmse_mm.to_bits());
        assert_eq!(a.max_deviation_mm.to_bits(), b.max_deviation_mm.to_bits());
    }

    #[test]
    fn streamed_snapshot_carries_inbox_and_channel_state() {
        let model = niryo_one();
        let home = model.home();
        let spec = SessionSpec::new(
            5,
            SourceSpec::Streamed {
                initial: home.clone(),
                inbox_capacity: 4,
            },
            ChannelSpec::ControlledLoss {
                burst_len: 3,
                burst_prob: 0.3,
                seed: 9,
            },
            RecoverySpec::FoReCo {
                forecaster: SharedForecaster::new(MovingAverage::new(2, home.len())),
                config: RecoveryConfig::for_model(&model),
            },
        );
        let mut original = Session::open(&spec, &model);
        original.offer(home.clone());
        original.offer(home.clone());
        original.offer(home.clone());
        for _ in 0..2 {
            original.advance();
        }
        // One command still queued, channel RNG mid-stream.
        let snap = original.snapshot().unwrap();
        match &snap.source {
            crate::snapshot::SourceState::Streamed {
                inbox, channel_rng, ..
            } => {
                assert_eq!(inbox.queue.len(), 1);
                assert_eq!(inbox.accepted, 3);
                assert!(channel_rng.is_some(), "loss channel must export RNG");
            }
            other => panic!("expected streamed source state, got {other:?}"),
        }
        // Through bytes, so the raw RNG words exercise the lossless
        // big-integer path of the serde shim.
        let snap = crate::snapshot::SessionSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        let mut restored = Session::restore(&snap, &model).expect("restore");
        // Drive both twins identically: starve, then close.
        for _ in 0..3 {
            original.advance();
            restored.advance();
        }
        original.close();
        restored.close();
        let finish = |s: &mut Session| loop {
            if let Advance::Completed(report) = s.advance() {
                break report;
            }
        };
        let a = finish(&mut original);
        let b = finish(&mut restored);
        assert_eq!(a.misses, b.misses);
        assert_eq!(a.overflow_drops, b.overflow_drops);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.rmse_mm.to_bits(), b.rmse_mm.to_bits());
    }

    #[test]
    fn restore_rejects_foreign_versions_and_wrong_arms() {
        let model = niryo_one();
        let test = Dataset::record(Skill::Inexperienced, 1, 0.02, 13);
        let spec = SessionSpec::new(
            6,
            SourceSpec::replay(&test),
            ChannelSpec::Ideal,
            RecoverySpec::Baseline,
        );
        let session = Session::open(&spec, &model);
        let mut snap = session.snapshot().unwrap();

        let restore_err =
            |snap: &crate::snapshot::SessionSnapshot, model: &ArmModel| match Session::restore(
                snap, model,
            ) {
                Err(e) => e,
                Ok(_) => panic!("restore must fail"),
            };
        let mut future = snap.clone();
        future.version = crate::snapshot::SNAPSHOT_VERSION + 1;
        let err = restore_err(&future, &model);
        assert!(matches!(err, RestoreError::Version { .. }), "{err}");
        // from_bytes applies the same gate.
        assert!(matches!(
            crate::snapshot::SessionSnapshot::from_bytes(&future.to_bytes()),
            Err(RestoreError::Version { .. })
        ));

        // A corrupt payload anywhere in the source must be rejected up
        // front, not panic the owning shard on the first tick.
        let mut bad_script = snap.clone();
        if let crate::snapshot::SourceState::Scripted { commands, .. } = &mut bad_script.source {
            commands[0].pop();
        }
        let err = restore_err(&bad_script, &model);
        assert!(matches!(err, RestoreError::Invalid(_)), "{err}");

        let mut bad_late = snap.clone();
        bad_late.pending_late.push((0.1, 2, vec![0.0; 3]));
        let err = restore_err(&bad_late, &model);
        assert!(matches!(err, RestoreError::Invalid(_)), "{err}");

        snap.executed.joints.pop();
        let err = restore_err(&snap, &model);
        assert!(matches!(err, RestoreError::Invalid(_)), "{err}");
        // Errors are boxable for assertion ergonomics downstream.
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("mismatches"));
    }

    /// Drives a streamed session with `advance` until it reports a
    /// non-runnable wake, returning how many ticks that took.
    fn run_until_parked(session: &mut Session, budget: usize) -> usize {
        for i in 0..budget {
            match session.advance() {
                Advance::Ticked(Wake::Runnable) => {}
                Advance::Ticked(_) | Advance::Idle(_) => return i + 1,
                Advance::Completed(_) => panic!("session completed while starving"),
            }
        }
        panic!("session never parked within {budget} ticks");
    }

    #[test]
    fn park_catch_up_is_bit_identical_to_eager_idle_ticks() {
        // The core scheduler contract: starve a streamed session to its
        // idle fixed point, then let one twin tick eagerly through a long
        // idle span while the other skips it with catch_up. Both then see
        // the same resumed traffic; the final reports must match bit for
        // bit — including the f64 accumulators and driver clocks.
        let model = niryo_one();
        let home = model.home();
        for foreco in [true, false] {
            let recovery = if foreco {
                RecoverySpec::FoReCo {
                    forecaster: SharedForecaster::new(trained_var()),
                    config: RecoveryConfig::for_model(&model),
                }
            } else {
                RecoverySpec::Baseline
            };
            let spec = SessionSpec::new(
                7,
                SourceSpec::Streamed {
                    initial: home.clone(),
                    inbox_capacity: 8,
                },
                ChannelSpec::ControlledLoss {
                    burst_len: 4,
                    burst_prob: 0.05,
                    seed: 11,
                },
                recovery,
            );
            let mut eager = Session::open(&spec, &model);
            let mut parked = Session::open(&spec, &model);
            // Some live traffic first so the drivers build real state.
            let drive = |s: &mut Session| {
                for k in 0..24u64 {
                    let mut cmd = home.clone();
                    cmd[0] += 0.01 * (k % 5) as f64;
                    s.offer(cmd);
                    s.advance();
                }
            };
            drive(&mut eager);
            drive(&mut parked);
            // Starve both to the fixed point (identical tick counts).
            let a = run_until_parked(&mut eager, 200_000);
            let b = run_until_parked(&mut parked, 200_000);
            assert_eq!(a, b, "twins must park at the same tick");
            assert_eq!(parked.wake_hint(), Wake::AwaitingInput);

            // Idle span: one twin ticks, the other catches up.
            const SPAN: u64 = 5_003;
            for _ in 0..SPAN {
                assert!(matches!(eager.advance(), Advance::Ticked(_)));
            }
            parked.catch_up(SPAN);
            assert_eq!(parked.tick(), eager.tick());

            // Wake both with the same traffic, then drain and compare.
            for s in [&mut eager, &mut parked] {
                let mut cmd = home.clone();
                cmd[1] -= 0.02;
                s.offer(cmd.clone());
                s.offer(cmd);
                for _ in 0..40 {
                    s.advance();
                }
                s.close();
            }
            let finish = |s: &mut Session| loop {
                if let Advance::Completed(report) = s.advance() {
                    break report;
                }
            };
            let (ra, rb) = (finish(&mut eager), finish(&mut parked));
            assert_eq!(ra.ticks, rb.ticks, "foreco={foreco}");
            assert_eq!(ra.misses, rb.misses, "foreco={foreco}");
            assert_eq!(ra.stats, rb.stats, "foreco={foreco}");
            assert_eq!(
                ra.rmse_mm.to_bits(),
                rb.rmse_mm.to_bits(),
                "foreco={foreco}: rmse {} vs {}",
                ra.rmse_mm,
                rb.rmse_mm
            );
            assert_eq!(
                ra.max_deviation_mm.to_bits(),
                rb.max_deviation_mm.to_bits(),
                "foreco={foreco}"
            );
        }
    }

    #[test]
    fn wake_hint_tracks_traffic_and_close() {
        let model = niryo_one();
        let home = model.home();
        let spec = SessionSpec::new(
            8,
            SourceSpec::Streamed {
                initial: home.clone(),
                inbox_capacity: 4,
            },
            ChannelSpec::Ideal,
            RecoverySpec::Baseline,
        );
        let mut session = Session::open(&spec, &model);
        // Fresh session: the first tick still writes PID derivative
        // memory, so it must not claim to be parkable.
        assert_eq!(session.wake_hint(), Wake::Runnable);
        let parked_at = run_until_parked(&mut session, 10_000);
        assert!(parked_at >= 1);
        assert_eq!(session.wake_hint(), Wake::AwaitingInput);
        // Traffic is a wake source…
        session.offer(home.clone());
        assert_eq!(session.wake_hint(), Wake::Runnable);
        assert!(matches!(session.advance(), Advance::Ticked(_)));
        // …consumed, the session settles straight back to parked (the
        // command equals the held pose, so the fixed point survives).
        assert_eq!(session.wake_hint(), Wake::AwaitingInput);
        // Closing is a wake source too: the session must drain + report.
        session.close();
        assert_eq!(session.wake_hint(), Wake::Runnable);
        assert!(matches!(session.advance(), Advance::Completed(_)));
    }

    #[test]
    fn pending_late_command_keeps_a_session_from_parking() {
        // A §VII-C late command whose arrival instant lies beyond the
        // idle fixed point still changes the session's state when it
        // drains, so the session must stay runnable through its drain
        // tick: the scheduler ticks it through the patch, and only the
        // idle span after it may be skipped with catch_up. Built
        // synthetically through the snapshot (the only way to plant a
        // far-future pending arrival deterministically).
        let model = niryo_one();
        let home = model.home();
        let mut config = RecoveryConfig::for_model(&model);
        config.use_late_commands = true;
        let spec = SessionSpec::new(
            10,
            SourceSpec::Streamed {
                initial: home.clone(),
                inbox_capacity: 4,
            },
            ChannelSpec::Ideal,
            RecoverySpec::FoReCo {
                forecaster: SharedForecaster::new(MovingAverage::new(2, home.len())),
                config,
            },
        );
        let mut donor = Session::open(&spec, &model);
        donor.offer(home.clone());
        donor.offer(home.clone());
        donor.advance();
        donor.advance();
        run_until_parked(&mut donor, 10_000);
        let t0 = donor.tick();
        let mut snap = donor.snapshot().expect("MA is snapshotable");
        // A command lost at tick 1 resurfaces mid-way through tick
        // index t0+40 — long after the session reached its fixed point.
        let drain = t0 + 40;
        let arrives = drain as f64 * 0.02 + 0.013;
        snap.pending_late.push((arrives, 1, home.clone()));

        let mut eager = Session::restore(&snap, &model).expect("restore");
        let mut lazy = Session::restore(&snap, &model).expect("restore");
        // The lazy twin ticks only while runnable: every tick up to and
        // including the drain tick, then it awaits input.
        while lazy.wake_hint() == Wake::Runnable {
            assert!(lazy.tick() <= drain, "runnable past the drain tick");
            assert!(matches!(lazy.advance(), Advance::Ticked(_)));
        }
        assert_eq!(lazy.tick(), drain + 1, "parked before the drain tick");
        assert_eq!(lazy.wake_hint(), Wake::AwaitingInput);

        // The eager twin ticks through the patch and an idle tail; the
        // lazy twin skips the tail with catch_up. Both then drain out.
        const TAIL: u64 = 57;
        for _ in t0..drain + 1 + TAIL {
            assert!(matches!(eager.advance(), Advance::Ticked(_)));
        }
        lazy.catch_up(TAIL);
        assert_eq!(lazy.tick(), eager.tick());
        assert_eq!(eager.wake_hint(), Wake::AwaitingInput);
        for s in [&mut eager, &mut lazy] {
            s.close();
        }
        let finish = |s: &mut Session| loop {
            if let Advance::Completed(report) = s.advance() {
                break report;
            }
        };
        let (a, b) = (finish(&mut eager), finish(&mut lazy));
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.misses, b.misses);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.rmse_mm.to_bits(), b.rmse_mm.to_bits());
    }

    #[test]
    fn scripted_sessions_never_park() {
        let model = niryo_one();
        let test = Dataset::record(Skill::Inexperienced, 1, 0.02, 99);
        let spec = SessionSpec::new(
            9,
            SourceSpec::replay(&test),
            ChannelSpec::Ideal,
            RecoverySpec::Baseline,
        );
        let mut session = Session::open(&spec, &model);
        assert_eq!(session.wake_hint(), Wake::Runnable);
        while let Advance::Ticked(wake) = session.advance() {
            assert_eq!(wake, Wake::Runnable);
        }
    }

    /// The gated sessions' enabling property for socket ingress: the
    /// slot sequence alone determines every output — how advance() calls
    /// interleave with slot arrivals (the race a real network injects)
    /// must not change a single bit.
    #[test]
    fn gated_outputs_depend_only_on_the_slot_sequence() {
        let model = niryo_one();
        let home = model.home();
        let mut config = RecoveryConfig::for_model(&model);
        config.use_late_commands = true;
        let spec = SessionSpec::new(
            11,
            SourceSpec::Gated {
                initial: home.clone(),
                inbox_capacity: 512,
            },
            ChannelSpec::Ideal,
            RecoverySpec::FoReCo {
                forecaster: SharedForecaster::new(trained_var()),
                config,
            },
        );
        // One slot timeline with commands, losses, and a late patch.
        enum Step {
            Cmd(Vec<f64>),
            Miss,
            Late(Vec<f64>, usize),
        }
        let timeline: Vec<Step> = (0..120u64)
            .map(|k| {
                let mut cmd = home.clone();
                cmd[0] += 0.01 * (k % 7) as f64;
                cmd[2] -= 0.005 * (k % 3) as f64;
                match k % 9 {
                    3 | 4 => Step::Miss,
                    5 => Step::Late(cmd, 2),
                    _ => Step::Cmd(cmd),
                }
            })
            .collect();
        let feed = |s: &mut Session, step: &Step| match step {
            Step::Cmd(c) => {
                s.offer(c.clone());
            }
            Step::Miss => {
                s.offer_miss();
            }
            Step::Late(c, age) => {
                s.offer_late(c.clone(), *age);
            }
        };
        // Twin A: every slot arrives before any tick runs.
        let mut batched = Session::open(&spec, &model);
        for step in &timeline {
            feed(&mut batched, step);
        }
        // Twin B: the shard races ahead — several advances (hitting the
        // empty-queue Idle path) between every arrival.
        let mut raced = Session::open(&spec, &model);
        for step in &timeline {
            for _ in 0..3 {
                if let Advance::Ticked(_) | Advance::Completed(_) = raced.advance() {
                    // keep consuming; Completed is impossible pre-close
                }
            }
            feed(&mut raced, step);
            raced.advance();
        }
        let finish = |s: &mut Session| {
            s.close();
            loop {
                if let Advance::Completed(report) = s.advance() {
                    break report;
                }
            }
        };
        let (a, b) = (finish(&mut batched), finish(&mut raced));
        assert_eq!(a.ticks, b.ticks, "virtual time must be slot-driven");
        assert_eq!(a.misses, b.misses);
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.as_ref().unwrap().late_patches > 0, "late path ran");
        assert_eq!(a.rmse_mm.to_bits(), b.rmse_mm.to_bits());
        assert_eq!(a.max_deviation_mm.to_bits(), b.max_deviation_mm.to_bits());
        // Miss slots are the losses; ticks count only tick-consuming slots.
        let consuming = timeline
            .iter()
            .filter(|s| !matches!(s, Step::Late(..)))
            .count();
        assert_eq!(a.ticks as usize, consuming);
    }

    #[test]
    fn gated_empty_queue_suspends_virtual_time() {
        let model = niryo_one();
        let home = model.home();
        let spec = SessionSpec::new(
            12,
            SourceSpec::Gated {
                initial: home.clone(),
                inbox_capacity: 4,
            },
            ChannelSpec::Ideal,
            RecoverySpec::Baseline,
        );
        let mut session = Session::open(&spec, &model);
        assert_eq!(session.wake_hint(), Wake::AwaitingInput);
        for _ in 0..5 {
            assert!(matches!(
                session.advance(),
                Advance::Idle(Wake::AwaitingInput)
            ));
        }
        assert_eq!(session.tick(), 0, "no slot, no tick");
        // A suspended wait accrues no backlog: catch_up replays nothing.
        assert_eq!(session.catch_up(1_000), 0);
        assert_eq!(session.tick(), 0);
        session.offer(home.clone());
        assert_eq!(session.wake_hint(), Wake::Runnable);
        assert!(matches!(session.advance(), Advance::Ticked(_)));
        assert_eq!(session.tick(), 1);
        // Misses consume ticks too — they are the slot's verdict.
        session.offer_miss();
        assert!(matches!(session.advance(), Advance::Ticked(_)));
        assert_eq!(session.tick(), 2);
        session.close();
        let report = match session.advance() {
            Advance::Completed(report) => report,
            other => panic!("expected completion, got {other:?}"),
        };
        assert_eq!(report.ticks, 2);
        assert_eq!(report.misses, 1);
    }

    #[test]
    fn gated_snapshot_restore_resumes_bit_identically() {
        let model = niryo_one();
        let home = model.home();
        let spec = SessionSpec::new(
            13,
            SourceSpec::Gated {
                initial: home.clone(),
                inbox_capacity: 64,
            },
            // A composed impairment channel on top of the wire verdicts:
            // the RNG state must survive the round trip.
            ChannelSpec::ControlledLoss {
                burst_len: 3,
                burst_prob: 0.1,
                seed: 17,
            },
            RecoverySpec::FoReCo {
                forecaster: SharedForecaster::new(MovingAverage::new(2, home.len())),
                config: RecoveryConfig::for_model(&model),
            },
        );
        let drive = |s: &mut Session, base: u64, n: u64| {
            for k in 0..n {
                let mut cmd = home.clone();
                cmd[1] += 0.008 * ((base + k) % 5) as f64;
                if (base + k).is_multiple_of(6) {
                    s.offer_miss();
                } else {
                    s.offer(cmd);
                }
                s.advance();
            }
        };
        let mut original = Session::open(&spec, &model);
        drive(&mut original, 0, 40);
        // Leave slots queued so the snapshot carries a live queue.
        original.offer(home.clone());
        original.offer_miss();
        let bytes = original.snapshot().expect("snapshotable").to_bytes();
        let snap = crate::snapshot::SessionSnapshot::from_bytes(&bytes).expect("decode");
        let mut restored = Session::restore(&snap, &model).expect("restore");
        for s in [&mut original, &mut restored] {
            s.advance();
            s.advance();
            drive(s, 40, 30);
            s.close();
        }
        let finish = |s: &mut Session| loop {
            if let Advance::Completed(report) = s.advance() {
                break report;
            }
        };
        let (a, b) = (finish(&mut original), finish(&mut restored));
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.misses, b.misses);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.rmse_mm.to_bits(), b.rmse_mm.to_bits());
    }

    #[test]
    fn gated_restore_rejects_zero_count_miss_runs() {
        // A crafted snapshot with `Miss { count: 0 }` would consume a
        // tick on take() while counting as zero slots in the gateway's
        // adopt arithmetic — a smuggled one-tick desync. Restore must
        // reject it up front.
        let model = niryo_one();
        let home = model.home();
        let spec = SessionSpec::new(
            14,
            SourceSpec::Gated {
                initial: home.clone(),
                inbox_capacity: 8,
            },
            ChannelSpec::Ideal,
            RecoverySpec::Baseline,
        );
        let mut session = Session::open(&spec, &model);
        session.offer(home.clone());
        let mut snap = session.snapshot().unwrap();
        match &mut snap.source {
            crate::snapshot::SourceState::Gated { inbox, .. } => {
                inbox.queue.push(crate::inbox::GatedSlot::Miss { count: 0 });
            }
            other => panic!("expected gated source state, got {other:?}"),
        }
        let err = match Session::restore(&snap, &model) {
            Err(e) => e,
            Ok(_) => panic!("zero-count miss run must be rejected"),
        };
        assert!(matches!(err, RestoreError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("zero count"));
    }

    #[test]
    fn streamed_overflow_counts_drops() {
        let model = niryo_one();
        let home = model.home();
        let spec = SessionSpec::new(
            3,
            SourceSpec::Streamed {
                initial: home.clone(),
                inbox_capacity: 2,
            },
            ChannelSpec::Ideal,
            RecoverySpec::Baseline,
        );
        let mut session = Session::open(&spec, &model);
        assert_eq!(session.offer(home.clone()), Offer::Accepted);
        assert_eq!(session.offer(home.clone()), Offer::Accepted);
        assert_eq!(session.offer(home.clone()), Offer::Dropped);
        session.close();
        let report = loop {
            if let Advance::Completed(report) = session.advance() {
                break report;
            }
        };
        assert_eq!(report.overflow_drops, 1);
        assert_eq!(report.ticks, 2);
    }

    /// A FoReCo spec over `source` under a light burst-loss channel.
    fn replay_spec(id: SessionId, source: SourceSpec, var: &Var) -> SessionSpec {
        SessionSpec::new(
            id,
            source,
            ChannelSpec::ControlledLoss {
                burst_len: 6,
                burst_prob: 0.02,
                seed: 31,
            },
            RecoverySpec::FoReCo {
                forecaster: SharedForecaster::new(var.clone()),
                config: RecoveryConfig::for_model(&niryo_one()),
            },
        )
    }

    /// The trajectory position a scripted session's last tick scored
    /// against.
    fn reference_pos(session: &Session) -> [f64; 3] {
        let Source::Scripted { script, .. } = &session.source else {
            panic!("a scripted session reads a trajectory");
        };
        script.trajectory[session.tick() as usize - 1]
    }

    /// Advances every session to `until` (or completion), ticking the
    /// live `twin` over the same `rows` alongside. Asserts each tick that
    /// every session's reference read equals the twin's FK position and
    /// that the deviation accumulators agree with the first session's,
    /// bit for bit; returns the reports if the sessions completed.
    fn lockstep(
        twin: &mut RobotDriver,
        rows: &[Vec<f64>],
        sessions: &mut [&mut Session],
        until: u64,
    ) -> Option<Vec<SessionReport>> {
        while sessions[0].tick() < until {
            let steps: Vec<Advance> = sessions.iter_mut().map(|s| s.advance()).collect();
            if steps.iter().all(|s| matches!(s, Advance::Completed(_))) {
                return Some(
                    steps
                        .into_iter()
                        .map(|step| match step {
                            Advance::Completed(report) => *report,
                            _ => unreachable!(),
                        })
                        .collect(),
                );
            }
            let tick = sessions[0].tick();
            assert!(
                steps.iter().all(|s| matches!(s, Advance::Ticked(_))),
                "sessions diverged in shape at tick {tick}: {steps:?}"
            );
            twin.tick(Some(&rows[tick as usize - 1]));
            let live = twin.model().chain.forward_mm(twin.joints());
            let (first, rest) = sessions.split_first().expect("at least one session");
            assert_eq!(
                reference_pos(first).map(f64::to_bits),
                live.map(f64::to_bits),
                "reference position at tick {tick}"
            );
            for other in rest {
                assert_eq!(tick, other.tick());
                assert_eq!(
                    reference_pos(other).map(f64::to_bits),
                    live.map(f64::to_bits),
                    "reference position at tick {tick}"
                );
                assert_eq!(
                    first.acc_sq_mm.to_bits(),
                    other.acc_sq_mm.to_bits(),
                    "tick {tick}"
                );
                assert_eq!(
                    first.worst_mm.to_bits(),
                    other.worst_mm.to_bits(),
                    "tick {tick}"
                );
            }
        }
        None
    }

    /// True when a scripted session holds a stored trace's claim.
    fn claims_a_trace(session: &Session) -> bool {
        let Source::Scripted { script, .. } = &session.source else {
            panic!("a scripted session reads a trajectory");
        };
        script.trace.is_some()
    }

    #[test]
    fn trajectory_reference_matches_a_live_reference_twin() {
        let model = niryo_one();
        let var = trained_var();
        let test = Dataset::record(Skill::Inexperienced, 1, 0.02, 77);
        let rows = &test.commands;
        assert!(rows.len() > 600, "{} rows", rows.len());
        let store = Storage::new();
        let stored = replay_spec(1, SourceSpec::stored(&store, &test), &var);
        let replay = replay_spec(1, SourceSpec::replay(&test), &var);
        // The live twin: a standalone driver fed every row, as a
        // perfect channel delivers them.
        let mut twin = RobotDriver::new(model.clone(), stored.driver, &model.clamp(&rows[0]));

        // Tick 0: both open on a memo trajectory; the stored session
        // also holds its claim on the trace.
        let mut shared = Session::open(&stored, &model);
        let mut replayed = Session::open(&replay, &model);
        assert!(claims_a_trace(&shared));
        assert!(!claims_a_trace(&replayed));
        let mut sessions = [&mut shared, &mut replayed];
        assert!(lockstep(&mut twin, rows, &mut sessions, 200).is_none());

        // Mid-trace: a v4+ archive part carries no reference state and
        // restores onto the claimed trace's trajectory; the replayed
        // session's inline frame carries none either and restores onto a
        // trajectory derived from its script.
        let (part, _) = shared.snapshot_for_fleet().expect("fleet part");
        assert_eq!(
            (part.version, part.reference.is_none()),
            (SNAPSHOT_VERSION, true)
        );
        let part = SessionSnapshot::from_bytes(&part.to_bytes()).expect("decodes");
        let trace = match &stored.source {
            SourceSpec::Stored(trace) => trace.clone(),
            _ => unreachable!(),
        };
        drop(shared);
        let mut shared = Session::restore_stored(&part, &model, trace).expect("restores");
        assert!(claims_a_trace(&shared));
        let frame = replayed.snapshot().expect("inline snapshot");
        assert!(matches!(frame.source, SourceState::Scripted { .. }));
        assert!(frame.reference.is_none());
        let frame = SessionSnapshot::from_bytes(&frame.to_bytes()).expect("decodes");
        drop(replayed);
        let mut replayed = Session::restore(&frame, &model).expect("restores");
        assert!(!claims_a_trace(&replayed));
        let mut sessions = [&mut shared, &mut replayed];
        assert!(lockstep(&mut twin, rows, &mut sessions, 350).is_none());

        // Migration: the transfer form with its claim, restored the way
        // an adopting shard does.
        let (snap, claim) = shared.snapshot_for_transfer().expect("transfer");
        drop(shared);
        let mut memo = ShardMemo::default();
        let mut shared =
            Session::restore_with(&snap, &model, claim, Some(&store), &mut memo).expect("adopts");
        assert!(claims_a_trace(&shared));
        let mut sessions = [&mut shared, &mut replayed];
        assert!(lockstep(&mut twin, rows, &mut sessions, 500).is_none());

        // A scripted frame carrying reference driver state — as every
        // v1–v3 writer produced — lands on a trajectory all the same.
        let mut legacy = replayed.snapshot().expect("inline snapshot");
        legacy.reference = Some(twin.export_state());
        let legacy = SessionSnapshot::from_bytes(&legacy.to_bytes()).expect("decodes");
        assert!(legacy.reference.is_some());
        drop(replayed);
        let mut replayed = Session::restore(&legacy, &model).expect("restores");
        assert!(!claims_a_trace(&replayed));
        let mut sessions = [&mut shared, &mut replayed];
        assert!(lockstep(&mut twin, rows, &mut sessions, 600).is_none());

        // An inline v4+ frame restored without a store derives its
        // trajectory from its own rows and holds no claim.
        let inline = shared.snapshot().expect("inline snapshot");
        assert!(inline.reference.is_none());
        drop(shared);
        let mut private = Session::restore(&inline, &model).expect("restores");
        assert!(!claims_a_trace(&private));
        let mut sessions = [&mut private, &mut replayed];
        let reports = lockstep(&mut twin, rows, &mut sessions, u64::MAX).expect("all complete");
        assert_eq!(reports[1], reports[0], "reports must be bit-identical");
        assert_eq!(reports[1].rmse_mm.to_bits(), reports[0].rmse_mm.to_bits());
    }

    #[test]
    fn trajectory_id_tracks_the_arm_and_the_driver_config() {
        let model = niryo_one();
        let store = Storage::new();
        let trace = store.insert_trace(&Dataset::record(Skill::Experienced, 1, 0.02, 5).commands);
        let mut memo = ShardMemo::default();
        let mut open = |model: &ArmModel, driver: DriverConfig| {
            let mut spec = SessionSpec::new(
                0,
                SourceSpec::Stored(trace.clone()),
                ChannelSpec::Ideal,
                RecoverySpec::Baseline,
            );
            spec.driver = driver;
            Session::open_with(&spec, model, &mut memo)
        };
        let base = open(&model, DriverConfig::default());
        // Raw bits, never normalised: `+0.0` and `-0.0` gains differ.
        let with_kd = |kd: f64| {
            let mut cfg = DriverConfig::default();
            cfg.gains.kd = kd;
            cfg
        };
        let pos_kd = open(&model, with_kd(0.0));
        let neg_kd = open(&model, with_kd(-0.0));
        let mut arm = model.clone();
        arm.limits[2].max_velocity *= 0.5;
        let slow = open(&arm, DriverConfig::default());
        let again = open(&model, DriverConfig::default());
        assert_eq!(
            memo.take_counts(),
            (0, 4),
            "five opens, four (arm, driver) inputs: `again` reuses `base`'s"
        );
        drop((base, pos_kd, neg_kd, slow, again));
    }
}
