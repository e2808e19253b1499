//! The 50 Hz robot driver loop.
//!
//! This is the component FoReCo plugs into (Fig. 3): every `Ω` the driver
//! expects a command; the caller passes `Some(command)` when one arrived
//! in time (a real one or a FoReCo forecast) or `None` on a miss, in which
//! case the driver **holds the previous command** — the Niryo stack's
//! documented behaviour (§VI-A: "Niryo One ROS stack uses the prior
//! command ĉ_{i+1} = c_i in case Δ(c_{i+1}) > Ω").

use crate::model::ArmModel;
use crate::pid::{Pid, PidGains, PidState};
use serde::{Deserialize, Serialize};

/// Driver-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriverConfig {
    /// Control period `Ω` in seconds (paper: 20 ms / 50 Hz).
    pub period: f64,
    /// PID gains shared by all joints.
    pub gains: PidGains,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            period: 0.020,
            gains: PidGains::niryo_default(),
        }
    }
}

/// One recorded trajectory sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Time stamp (seconds since driver start).
    pub t: f64,
    /// Joint state after the tick (rad).
    pub joints: Vec<f64>,
    /// End-effector position (mm).
    pub position_mm: [f64; 3],
    /// Distance from base origin (mm) — the paper's plotting unit.
    pub distance_mm: f64,
    /// Whether this tick had a fresh command (false = held the last one).
    pub fresh_command: bool,
}

/// Serialisable mutable state of a [`RobotDriver`]: everything a tick
/// reads or writes except the arm model and gains (configuration,
/// supplied again at restore time). The trajectory trail is *not*
/// captured — snapshots are taken from O(1)-memory service sessions,
/// which run with recording off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriverState {
    /// Joint positions (rad).
    pub joints: Vec<f64>,
    /// Last command fed to the PIDs (held on misses).
    pub last_command: Vec<f64>,
    /// Simulated seconds since driver start.
    pub t: f64,
    /// Per-joint controller state.
    pub pids: Vec<PidState>,
}

/// The simulated robot: joint state + PIDs + trajectory recording.
///
/// # Example
///
/// ```
/// use foreco_robot::{niryo_one, DriverConfig, RobotDriver};
///
/// let model = niryo_one();
/// let home = model.home();
/// let mut driver = RobotDriver::new(model, DriverConfig::default(), &home);
/// let sample = driver.tick(Some(&home)); // one 20 ms control period
/// assert!(sample.fresh_command);
/// assert!(sample.distance_mm > 0.0);
/// ```
pub struct RobotDriver {
    model: ArmModel,
    cfg: DriverConfig,
    joints: Vec<f64>,
    pids: Vec<Pid>,
    last_command: Vec<f64>,
    t: f64,
    trail: Vec<Sample>,
    record: bool,
    scratch: Sample,
}

impl RobotDriver {
    /// Creates a driver with the arm at `initial` joint positions.
    ///
    /// # Panics
    /// Panics if `initial` violates limits or the joint count mismatches.
    pub fn new(model: ArmModel, cfg: DriverConfig, initial: &[f64]) -> Self {
        assert!(cfg.period > 0.0, "driver: period must be positive");
        assert!(
            model.within_limits(initial),
            "driver: initial pose violates joint limits"
        );
        let pids = model
            .limits
            .iter()
            .map(|l| Pid::new(cfg.gains, l.max_velocity))
            .collect();
        let scratch = Sample {
            t: 0.0,
            joints: initial.to_vec(),
            position_mm: model.chain.forward_mm(initial),
            distance_mm: 0.0,
            fresh_command: false,
        };
        Self {
            joints: initial.to_vec(),
            last_command: initial.to_vec(),
            pids,
            model,
            cfg,
            t: 0.0,
            trail: Vec::new(),
            record: true,
            scratch,
        }
    }

    /// Turns trajectory recording on or off (on by default).
    ///
    /// With recording off, [`RobotDriver::tick`] still returns each
    /// sample but nothing accumulates in the trail — the mode the
    /// multi-session service runtime uses to hold thousands of
    /// concurrent arms at O(1) memory each.
    pub fn set_recording(&mut self, record: bool) {
        self.record = record;
    }

    /// The arm model.
    pub fn model(&self) -> &ArmModel {
        &self.model
    }

    /// The driver configuration.
    pub fn config(&self) -> &DriverConfig {
        &self.cfg
    }

    /// Current joint state.
    pub fn joints(&self) -> &[f64] {
        &self.joints
    }

    /// Current simulated time.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Last command fed to the PIDs (held on misses).
    pub fn last_command(&self) -> &[f64] {
        &self.last_command
    }

    /// Advances one control period's state only: the held command, the
    /// PIDs, the joints and the clock, exactly as [`RobotDriver::tick`]
    /// does, but no forward kinematics and no sample (nothing joins the
    /// trail). A reference that needs positions only from some tick on
    /// steps through the rows before it.
    ///
    /// # Panics
    /// Panics on joint-count mismatch.
    #[inline]
    pub fn step(&mut self, command: Option<&[f64]>) {
        if let Some(cmd) = command {
            assert_eq!(cmd.len(), self.model.dof(), "tick: joint count mismatch");
            // Commands outside the joint limits are clamped in place, as
            // the real driver would refuse to exceed them.
            self.model.clamp_into(cmd, &mut self.last_command);
        }
        let dt = self.cfg.period;
        let joints = self
            .pids
            .iter_mut()
            .zip(&self.last_command)
            .zip(self.joints.iter_mut())
            .zip(&self.model.limits);
        for (((pid, &target), q), limit) in joints {
            let v = pid.step(target, *q, dt);
            *q = limit.clamp(*q + v * dt);
        }
        self.t += dt;
    }

    /// Advances one control period: [`RobotDriver::step`], then the
    /// end-effector position of the new joints.
    ///
    /// `command` = `Some(target joints)` when a command (real or forecast)
    /// arrived in time, `None` on a miss (the driver repeats the last one).
    /// Returns the recorded sample.
    ///
    /// # Panics
    /// Panics on joint-count mismatch.
    pub fn tick(&mut self, command: Option<&[f64]>) -> &Sample {
        let fresh = command.is_some();
        self.step(command);
        let position_mm = self.model.chain.forward_mm(&self.joints);
        let distance_mm =
            (position_mm[0].powi(2) + position_mm[1].powi(2) + position_mm[2].powi(2)).sqrt();
        if self.record {
            self.trail.push(Sample {
                t: self.t,
                joints: self.joints.clone(),
                position_mm,
                distance_mm,
                fresh_command: fresh,
            });
            self.trail.last().expect("just pushed")
        } else {
            // Service sessions run with recording off at a hard 50 Hz per
            // operator: refresh the reusable scratch sample in place so
            // the tick performs zero heap allocations.
            self.scratch.t = self.t;
            self.scratch.joints.copy_from_slice(&self.joints);
            self.scratch.position_mm = position_mm;
            self.scratch.distance_mm = distance_mm;
            self.scratch.fresh_command = fresh;
            &self.scratch
        }
    }

    /// True when one [`RobotDriver::tick`] fed with `command` would
    /// leave every state bit except the clock (`t`) unchanged — the
    /// driver half of the *idle fixed point* the service scheduler parks
    /// settled sessions at. `None` models a miss (hold the last
    /// command); `Some(cmd)` models a constant incoming command, which
    /// must already clamp to the held one.
    ///
    /// Verified, not assumed: each joint's PID step is replayed without
    /// mutating ([`Pid::peek_step`]) and the joint update is checked to
    /// vanish in f64. Once true, it stays true for identical inputs (the
    /// tick is a deterministic function of the unchanged state), so a
    /// parked session can skip these ticks wholesale and account the
    /// clock with [`RobotDriver::advance_time`].
    pub fn hold_is_identity(&self, command: Option<&[f64]>) -> bool {
        if self.record {
            // A recording driver pushes a trail sample every tick, so a
            // hold is never a state no-op; fast-forwarding would drop
            // samples silently.
            return false;
        }
        if let Some(cmd) = command {
            if cmd.len() != self.model.dof() {
                return false;
            }
            // tick() would overwrite last_command with the clamped
            // incoming command; identity needs that write to be a no-op.
            // Compared element-wise (no materialised clamp vector): this
            // check runs on the per-tick wake-hint path.
            if cmd
                .iter()
                .zip(&self.model.limits)
                .zip(&self.last_command)
                .any(|((qi, l), held)| l.clamp(*qi).to_bits() != held.to_bits())
            {
                return false;
            }
        }
        let dt = self.cfg.period;
        for i in 0..self.joints.len() {
            let (v, pid_unchanged) =
                self.pids[i].peek_step(self.last_command[i], self.joints[i], dt);
            if !pid_unchanged {
                return false;
            }
            let q = self.model.limits[i].clamp(self.joints[i] + v * dt);
            if q.to_bits() != self.joints[i].to_bits() {
                return false;
            }
        }
        true
    }

    /// Replays the clock bookkeeping of `ticks` hold ticks at a verified
    /// fixed point: `t` accumulates period by period, exactly as `ticks`
    /// real calls would have (`t += dt` is *not* associative in f64, so
    /// this must loop rather than multiply).
    ///
    /// # Panics
    /// Panics (debug) when the driver is not at the hold fixed point.
    pub fn advance_time(&mut self, ticks: u64) {
        debug_assert!(
            self.hold_is_identity(None),
            "advance_time outside the hold fixed point"
        );
        for _ in 0..ticks {
            self.t += self.cfg.period;
        }
    }

    /// Exports the driver's mutable state for checkpointing (the trail,
    /// if any, is not included — see [`DriverState`]).
    pub fn export_state(&self) -> DriverState {
        DriverState {
            joints: self.joints.clone(),
            last_command: self.last_command.clone(),
            t: self.t,
            pids: self.pids.iter().map(Pid::state).collect(),
        }
    }

    /// Rebuilds a driver from configuration plus exported state. Future
    /// [`RobotDriver::tick`] outputs are bit-identical to what the
    /// exported driver would have produced. Recording starts *off* (the
    /// restored trail would be incomplete anyway).
    ///
    /// # Panics
    /// Panics if the state's joint/command/PID counts mismatch the model
    /// or the restored pose violates joint limits.
    pub fn from_state(model: ArmModel, cfg: DriverConfig, state: &DriverState) -> Self {
        assert_eq!(
            state.joints.len(),
            model.dof(),
            "driver restore: joint count mismatch"
        );
        assert_eq!(
            state.last_command.len(),
            model.dof(),
            "driver restore: command dimension mismatch"
        );
        assert_eq!(
            state.pids.len(),
            model.dof(),
            "driver restore: PID count mismatch"
        );
        let mut driver = Self::new(model, cfg, &state.joints);
        driver.last_command = state.last_command.clone();
        driver.t = state.t;
        for (pid, s) in driver.pids.iter_mut().zip(&state.pids) {
            pid.restore(*s);
        }
        driver.set_recording(false);
        driver
    }

    /// Full recorded trajectory.
    pub fn trajectory(&self) -> &[Sample] {
        &self.trail
    }

    /// Consumes the driver, returning the trajectory.
    pub fn into_trajectory(self) -> Vec<Sample> {
        self.trail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::niryo_one;

    fn driver() -> RobotDriver {
        let model = niryo_one();
        let home = model.home();
        RobotDriver::new(model, DriverConfig::default(), &home)
    }

    #[test]
    fn tracks_constant_command() {
        let mut d = driver();
        let mut target = d.joints().to_vec();
        target[0] += 0.3;
        for _ in 0..150 {
            d.tick(Some(&target));
        }
        assert!(
            (d.joints()[0] - target[0]).abs() < 0.005,
            "joint0 = {}",
            d.joints()[0]
        );
    }

    #[test]
    fn holds_last_command_on_miss() {
        let mut d = driver();
        let mut target = d.joints().to_vec();
        target[1] += 0.2;
        d.tick(Some(&target));
        for _ in 0..100 {
            d.tick(None); // network silent: driver keeps driving to target
        }
        assert!((d.joints()[1] - target[1]).abs() < 0.005);
        assert_eq!(d.last_command()[1], target[1]);
    }

    #[test]
    fn miss_flag_recorded() {
        let mut d = driver();
        let home = d.joints().to_vec();
        d.tick(Some(&home));
        d.tick(None);
        let trail = d.trajectory();
        assert!(trail[0].fresh_command);
        assert!(!trail[1].fresh_command);
    }

    #[test]
    fn joint_limits_never_violated() {
        let mut d = driver();
        let crazy = vec![100.0, -100.0, 100.0, -100.0, 100.0, -100.0];
        for _ in 0..300 {
            d.tick(Some(&crazy));
        }
        assert!(d.model().within_limits(d.joints()));
    }

    #[test]
    fn velocity_limits_bound_step_size() {
        let mut d = driver();
        let mut target = d.joints().to_vec();
        target[0] += 2.0; // far away
        let before = d.joints()[0];
        d.tick(Some(&target));
        let after = d.joints()[0];
        let vmax = d.model().limits[0].max_velocity;
        assert!((after - before).abs() <= vmax * 0.020 + 1e-12);
    }

    #[test]
    fn time_and_samples_advance_together() {
        let mut d = driver();
        let home = d.joints().to_vec();
        for _ in 0..50 {
            d.tick(Some(&home));
        }
        assert_eq!(d.trajectory().len(), 50);
        assert!((d.time() - 1.0).abs() < 1e-9);
        assert!((d.trajectory()[49].t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stationary_command_keeps_arm_still() {
        let mut d = driver();
        let home = d.joints().to_vec();
        let start_dist = d.model().chain.distance_from_origin_mm(&home);
        for _ in 0..100 {
            d.tick(Some(&home));
        }
        let end_dist = d.trajectory().last().unwrap().distance_mm;
        assert!(
            (start_dist - end_dist).abs() < 1.0,
            "arm drifted {start_dist} → {end_dist}"
        );
    }

    #[test]
    fn hold_identity_detected_and_fast_forward_exact() {
        // Drive toward a target, then hold: the driver must reach a
        // verified f64 fixed point, after which advance_time(n) equals n
        // eager hold ticks bit for bit (including the accumulated t).
        let mut d = driver();
        let mut target = d.joints().to_vec();
        target[0] += 0.2;
        target[2] -= 0.1;
        d.tick(Some(&target));
        // Recording drivers grow their trail every tick: never a no-op.
        assert!(!d.hold_is_identity(None), "recording driver can't hold");
        d.set_recording(false);
        assert!(!d.hold_is_identity(None), "mid-transient is not a hold");
        let mut settled = None;
        for i in 0..200_000 {
            if d.hold_is_identity(None) {
                settled = Some(i);
                break;
            }
            d.tick(None);
        }
        settled.expect("hold never reached its fixed point");
        // Identity under the held command fed explicitly, too (the
        // engine re-issues the held command as Some(cmd)).
        let held = d.last_command().to_vec();
        assert!(d.hold_is_identity(Some(&held)));
        // A different incoming command is not an identity.
        let mut other = held.clone();
        other[0] += 0.01;
        assert!(!d.hold_is_identity(Some(&other)));

        // Fast-forward vs eager: bit-identical states.
        let state = d.export_state();
        let mut eager = RobotDriver::from_state(d.model().clone(), *d.config(), &state);
        let mut skipped = RobotDriver::from_state(d.model().clone(), *d.config(), &state);
        for _ in 0..997 {
            eager.tick(None);
        }
        skipped.advance_time(997);
        let (a, b) = (eager.export_state(), skipped.export_state());
        assert_eq!(a.t.to_bits(), b.t.to_bits(), "t must replay exactly");
        assert_eq!(a, b);
        // And both continue identically once commands resume.
        let mut next = state.joints.clone();
        next[0] += 0.04;
        assert_eq!(eager.tick(Some(&next)), skipped.tick(Some(&next)));
    }

    /// Every state bit a tick reads or writes: joints, held command,
    /// clock and each PID's terms.
    fn state_bits(d: &RobotDriver) -> Vec<u64> {
        let s = d.export_state();
        let pids = s
            .pids
            .iter()
            .flat_map(|p| [Some(p.integral), p.prev_error])
            .map(|term| term.map_or(u64::MAX, f64::to_bits));
        let values = s.joints.iter().chain(&s.last_command).chain([&s.t]);
        values.map(|x| x.to_bits()).chain(pids).collect()
    }

    /// A sample's numbers as bits.
    fn sample_bits(s: &Sample) -> Vec<u64> {
        let values = s.joints.iter().chain(&s.position_mm);
        values
            .chain([&s.t, &s.distance_mm])
            .map(|x| x.to_bits())
            .collect()
    }

    /// `k` state-only steps then ticks land where ticking every row
    /// does, bit for bit: joints, held command, PID state, clock and
    /// every later sample, with recording on and off. Rows cross the
    /// joint limits (clamped) and include misses.
    #[test]
    fn state_only_steps_then_ticks_match_ticking_every_row() {
        let home = driver().joints().to_vec();
        let rows: Vec<Option<Vec<f64>>> = (0..120)
            .map(|i| {
                let mut row = home.clone();
                row[0] += 0.05 * i as f64;
                row[2] -= 0.3 * (i as f64 * 0.1).sin();
                (i % 7 != 3).then_some(row)
            })
            .collect();
        for record in [true, false] {
            for k in [0, 1, 40, 119, 120] {
                let (mut ticked, mut stepped) = (driver(), driver());
                ticked.set_recording(record);
                stepped.set_recording(record);
                for row in &rows[..k] {
                    ticked.tick(row.as_deref());
                    stepped.step(row.as_deref());
                }
                assert_eq!(stepped.trajectory().len(), 0, "a step records nothing");
                assert_eq!(
                    state_bits(&ticked),
                    state_bits(&stepped),
                    "k = {k}, recording {record}"
                );
                for row in &rows[k..] {
                    let want = ticked.tick(row.as_deref()).clone();
                    let got = stepped.tick(row.as_deref()).clone();
                    assert_eq!(sample_bits(&want), sample_bits(&got), "k = {k}");
                    assert_eq!(want.fresh_command, got.fresh_command);
                }
                assert_eq!(state_bits(&ticked), state_bits(&stepped), "k = {k}");
            }
        }
    }

    /// Recovery transient: freeze the command stream mid-motion, then
    /// resume — the arm needs a few hundred ms to catch up (Fig. 10).
    #[test]
    fn post_freeze_recovery_transient() {
        let mut d = driver();
        let home = d.joints().to_vec();
        // Move joint 0 steadily, 0.04 rad per command.
        let mut target = home.clone();
        for _ in 0..20 {
            target[0] += 0.04;
            d.tick(Some(&target));
        }
        // Freeze for 25 commands while the operator keeps going.
        for _ in 0..25 {
            target[0] += 0.04;
            d.tick(None);
        }
        // Channel recovers: the arm is now ~1 rad behind.
        let lag = (target[0] - d.joints()[0]).abs();
        assert!(lag > 0.5, "expected a large lag, got {lag}");
        let mut caught_up_at = None;
        for k in 0..200 {
            d.tick(Some(&target));
            if (d.joints()[0] - target[0]).abs() < 0.01 {
                caught_up_at = Some(k);
                break;
            }
        }
        let k = caught_up_at.expect("never caught up");
        let recovery = k as f64 * 0.020;
        assert!(
            (0.1..2.0).contains(&recovery),
            "recovery took {recovery}s; expected hundreds of ms"
        );
    }
}
