//! Shared plumbing for the figure/table reproduction binaries.
//!
//! Every target prints the same rows/series the paper reports. Scale
//! knobs come from the environment so CI can run reduced versions:
//!
//! - `FORECO_CYCLES` — pick-and-place repetitions per dataset. The
//!   bins built on [`Fixture::build`] read it through [`cycles`]
//!   (default 20; the paper's H = 187 109 commands ≈ 100 cycles × two
//!   operators; 20 keeps a laptop run under a minute per figure).
//!   `table1_training_profile` and `table2_train_infer` read it through
//!   [`env_knob`] with a default of 100, the paper-scale dataset.
//! - `FORECO_REPS` — seeded repetitions per Fig.-8 cell (default 10;
//!   paper: 40).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use foreco_forecast::Var;
use foreco_robot::{niryo_one, ArmModel};
use foreco_teleop::{Dataset, Skill};

/// The paper's Fig.-8 interference-probability axis (per-slot activation).
pub const PROBS: [f64; 3] = [0.01, 0.025, 0.05];
/// The paper's Fig.-8 burst-duration axis, in slots.
pub const DURATIONS: [u32; 3] = [10, 50, 100];
/// The paper's Fig.-8 robot counts.
pub const ROBOTS: [usize; 3] = [5, 15, 25];
/// Command period Ω (50 Hz).
pub const OMEGA: f64 = 0.020;

/// Reads a positive integer knob from the environment.
pub fn env_knob(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Dataset cycle count (`FORECO_CYCLES`, default 20).
pub fn cycles() -> usize {
    env_knob("FORECO_CYCLES", 20)
}

/// Fig.-8 repetitions per cell (`FORECO_REPS`, default 10).
pub fn reps() -> usize {
    env_knob("FORECO_REPS", 10)
}

/// The standard experiment fixture: arm model, training dataset
/// (experienced), test dataset (inexperienced), and the deployed
/// differenced VAR(5).
pub struct Fixture {
    /// Niryo-One-like arm.
    pub model: ArmModel,
    /// Experienced-operator recording (training).
    pub train: Dataset,
    /// Inexperienced-operator recording (evaluation).
    pub test: Dataset,
    /// The trained forecaster FoReCo deploys.
    pub var: Var,
}

impl Fixture {
    /// Builds the fixture at the configured scale.
    pub fn build() -> Self {
        let n = cycles();
        let train = Dataset::record(Skill::Experienced, n, OMEGA, 0xF0E0);
        let test = Dataset::record(Skill::Inexperienced, (n / 4).max(2), OMEGA, 0x7E57);
        let var = Var::fit_differenced(&train, 5, 1e-6).expect("training data well-conditioned");
        Self {
            model: niryo_one(),
            train,
            test,
            var,
        }
    }
}

/// Prints a standard header naming the figure/table being regenerated.
pub fn banner(what: &str, paper_ref: &str) {
    println!("==================================================================");
    println!("  {what}");
    println!("  reproduces: {paper_ref}");
    println!("==================================================================");
}
