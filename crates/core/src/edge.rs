//! Edge-based FoReCo (§VII-D — the paper's named future work).
//!
//! Instead of forecasting at the robot from a history that mixes real
//! commands and its own forecasts, the **edge** (on the wired side of
//! Fig. 1, where every command is observable) computes forecasts from
//! *real* commands only and **piggybacks** a horizon of them onto each
//! outgoing command. The robot driver then covers a miss at tick `j`
//! with the piggybacked prediction carried by the most recent packet it
//! did receive.
//!
//! Trade-offs the paper anticipates, reproduced here:
//! - forecasts never feed back into their own inputs (no Fig.-9c error
//!   recursion), but
//! - the forecast used during an outage ages with the outage — a miss
//!   gap of `k` ticks must be covered by a `k`-step-ahead prediction
//!   made before the outage, and gaps beyond the piggyback horizon fall
//!   back to repeat-last,
//! - piggybacking multiplies the payload (horizon × command size), which
//!   on a real link would slightly raise the collision/loss probability —
//!   out of scope here, noted in DESIGN.md.

use crate::channel::Arrival;
use crate::metrics::{max_deviation_mm, trajectory_rmse_mm};
use crate::system::ClosedLoopResult;
use foreco_forecast::{forecast_horizon, Forecaster};
use foreco_robot::{ArmModel, DriverConfig, RobotDriver};

/// One over-the-air packet of the edge variant: the command plus the
/// edge's piggybacked forecasts for the next `h` ticks.
#[derive(Debug, Clone)]
pub struct EdgePacket {
    /// The real command `c_i`.
    pub command: Vec<f64>,
    /// Predictions `ĉ_{i+1} … ĉ_{i+h}` from real history only.
    pub forecasts: Vec<Vec<f64>>,
}

/// Builds the edge-side packet stream: every packet carries `horizon`
/// predictions computed from the real command history up to it.
///
/// # Panics
/// Panics if `commands` is empty or `horizon == 0`.
pub fn edge_packets(
    forecaster: &dyn Forecaster,
    commands: &[Vec<f64>],
    horizon: usize,
) -> Vec<EdgePacket> {
    assert!(!commands.is_empty(), "edge: no commands");
    assert!(horizon >= 1, "edge: horizon must be ≥ 1");
    let r = forecaster.history_len();
    commands
        .iter()
        .enumerate()
        .map(|(i, cmd)| {
            let forecasts = if i + 1 >= r {
                forecast_horizon(forecaster, &commands[..=i], horizon)
            } else {
                // Not enough history yet: repeat the newest command.
                vec![cmd.clone(); horizon]
            };
            EdgePacket {
                command: cmd.clone(),
                forecasts,
            }
        })
        .collect()
}

/// Closed loop for the edge variant: on a miss at tick `j`, the robot
/// uses prediction `j − i` from the last delivered packet `i` (falling
/// back to repeat-last beyond the horizon or before any delivery).
///
/// # Panics
/// Panics if inputs are empty or lengths mismatch.
pub fn run_closed_loop_edge(
    model: &ArmModel,
    commands: &[Vec<f64>],
    fates: &[Arrival],
    forecaster: &dyn Forecaster,
    horizon: usize,
    driver_cfg: DriverConfig,
) -> ClosedLoopResult {
    assert_eq!(
        commands.len(),
        fates.len(),
        "edge loop: fates/commands mismatch"
    );
    let packets = edge_packets(forecaster, commands, horizon);
    let start = model.clamp(&commands[0]);

    let mut reference = RobotDriver::new(model.clone(), driver_cfg, &start);
    for cmd in commands {
        reference.tick(Some(cmd));
    }
    let defined = reference.into_trajectory();

    let mut driver = RobotDriver::new(model.clone(), driver_cfg, &start);
    let mut misses = 0usize;
    let mut last_delivered: Option<usize> = None;
    for (j, fate) in fates.iter().enumerate() {
        if fate.on_time() {
            last_delivered = Some(j);
            driver.tick(Some(&packets[j].command));
        } else {
            misses += 1;
            match last_delivered {
                Some(i) if j - i - 1 < horizon => {
                    let pred = &packets[i].forecasts[j - i - 1];
                    driver.tick(Some(&model.clamp(pred)));
                }
                _ => {
                    driver.tick(None); // beyond horizon: hold like Niryo
                }
            }
        }
    }
    let executed = driver.into_trajectory();
    let rmse_mm = trajectory_rmse_mm(&executed, &defined);
    let max_dev = max_deviation_mm(&executed, &defined);
    ClosedLoopResult {
        executed,
        defined,
        rmse_mm,
        max_deviation_mm: max_dev,
        misses,
        stats: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, ControlledLossChannel, IdealChannel};
    use crate::system::{run_closed_loop, RecoveryMode};
    use crate::{RecoveryConfig, RecoveryEngine};
    use foreco_forecast::Var;
    use foreco_robot::niryo_one;
    use foreco_teleop::{Dataset, Skill};

    fn fixture() -> (foreco_robot::ArmModel, Vec<Vec<f64>>, Var) {
        let model = niryo_one();
        let train = Dataset::record(Skill::Experienced, 4, 0.02, 61);
        let test = Dataset::record(Skill::Inexperienced, 1, 0.02, 62);
        let var = Var::fit_differenced(&train, 5, 1e-6).unwrap();
        (model, test.commands, var)
    }

    #[test]
    fn packets_have_horizon_forecasts() {
        let (_, commands, var) = fixture();
        let packets = edge_packets(&var, &commands[..50], 10);
        assert_eq!(packets.len(), 50);
        for p in &packets {
            assert_eq!(p.forecasts.len(), 10);
        }
    }

    #[test]
    fn transparent_on_perfect_channel() {
        let (model, commands, var) = fixture();
        let fates = IdealChannel.fates(commands.len());
        let res =
            run_closed_loop_edge(&model, &commands, &fates, &var, 10, DriverConfig::default());
        assert!(res.rmse_mm < 1e-9);
        assert_eq!(res.misses, 0);
    }

    #[test]
    fn beats_repeat_last_under_bursts() {
        let (model, commands, var) = fixture();
        let fates = ControlledLossChannel::new(8, 0.01, 63).fates(commands.len());
        let base = run_closed_loop(
            &model,
            &commands,
            &fates,
            RecoveryMode::Baseline,
            DriverConfig::default(),
        );
        let edge =
            run_closed_loop_edge(&model, &commands, &fates, &var, 16, DriverConfig::default());
        assert!(base.misses > 0);
        assert!(
            edge.rmse_mm < base.rmse_mm,
            "edge {:.2} vs baseline {:.2}",
            edge.rmse_mm,
            base.rmse_mm
        );
    }

    /// §VII-D's motivation: edge forecasts never recurse on themselves,
    /// so under bursts inside the horizon the edge variant should match
    /// or beat the robot-side engine.
    #[test]
    fn edge_competitive_with_local_engine() {
        let (model, commands, var) = fixture();
        let fates = ControlledLossChannel::new(10, 0.008, 64).fates(commands.len());
        let engine = RecoveryEngine::new(
            Box::new(var.clone()),
            RecoveryConfig::for_model(&model),
            model.clamp(&commands[0]),
        );
        let local = run_closed_loop(
            &model,
            &commands,
            &fates,
            RecoveryMode::FoReCo(engine),
            DriverConfig::default(),
        );
        let edge =
            run_closed_loop_edge(&model, &commands, &fates, &var, 16, DriverConfig::default());
        // Same channel; allow a modest band rather than strict dominance —
        // both should be in the same error class.
        assert!(
            edge.rmse_mm < local.rmse_mm * 2.0 + 1.0,
            "edge {:.2} vs local {:.2}",
            edge.rmse_mm,
            local.rmse_mm
        );
    }

    #[test]
    fn beyond_horizon_falls_back_to_hold() {
        let (model, commands, var) = fixture();
        // Bursts longer than the horizon, frequent enough that every
        // RNG stream produces at least one.
        let fates = ControlledLossChannel::new(30, 0.02, 65).fates(commands.len());
        let res = run_closed_loop_edge(&model, &commands, &fates, &var, 5, DriverConfig::default());
        assert!(res.rmse_mm.is_finite());
        assert!(res.misses > 0);
    }
}
