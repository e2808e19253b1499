//! Robot-arm substrate for the FoReCo reproduction.
//!
//! The paper's factory floor is a 6-axis **Niryo One** manipulator driven
//! by a ROS stack: commands are absolute joint states arriving every
//! `Ω = 20 ms`; MoveIt's PID controllers track them; when a command is
//! missing the stack **feeds the previous command again** (§III, §VI-A) —
//! which is exactly the "no forecasting" baseline FoReCo beats.
//!
//! This crate rebuilds that plant as a kinematic simulation:
//!
//! - [`ArmModel`] / [`niryo_one`]: joint limits, velocity limits and a
//!   Denavit–Hartenberg chain matching the Niryo One's geometry (0.44 m
//!   reach), so trajectory errors are measured in **millimetres of end-
//!   effector motion** like every figure of the paper;
//! - [`Pid`]: per-joint position PID producing velocity commands with
//!   clamping and anti-windup — the re-stabilisation transient it produces
//!   after a loss burst is the "PID control error" annotated in Fig. 10;
//! - [`RobotDriver`]: the 50 Hz driver loop: accepts a command (or `None`
//!   when the network delivered nothing in time), holds the last command
//!   on a miss, steps the PIDs, enforces limits, and records the
//!   trajectory samples the experiments analyse.
//!
//! The substitution argument (DESIGN.md §3): FoReCo never touches motor
//! dynamics — it interacts with the *driver loop* (command in, joint state
//! out), which this crate reproduces faithfully.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod kinematics;
mod model;
mod pid;

pub use driver::{DriverConfig, DriverState, RobotDriver, Sample};
pub use kinematics::{DhChain, DhLink};
pub use model::{niryo_one, ArmModel, JointLimit};
pub use pid::{Pid, PidGains, PidState};
