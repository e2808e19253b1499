//! Generated inputs: every trace, channel seed and impairment fate a
//! workload feeds the service derives from the benchmark's `--seed`.

use foreco_core::RecoveryConfig;
use foreco_forecast::{Holt, KalmanCv, MovingAverage, Var};
use foreco_robot::{niryo_one, ArmModel};
use foreco_serve::{ChannelSpec, RecoverySpec, SessionSpec, SharedForecaster, SourceSpec};
use foreco_store::TraceHandle;
use foreco_teleop::{Dataset, Skill};
use foreco_wifi::{Interference, LinkConfig};
use std::sync::Arc;

/// Command period Ω (50 Hz), seconds.
pub const OMEGA: f64 = 0.020;
/// Pick-and-place cycles of the experienced recording the forecasters
/// are trained on.
pub const TRAIN_CYCLES: usize = 20;
/// The jammed workload's Fig.-8 cell: 25 stations, per-slot activation
/// p_if and burst length T_if (slots). Of the grid cells that miss at
/// least 5% of commands, this one has the largest share of misses
/// covered by fresh forecasts rather than horizon holds.
pub const JAM_STATIONS: usize = 25;
pub const JAM_PROB: f64 = 0.025;
pub const JAM_SLOTS: u32 = 10;
/// Fig.-9 controlled-loss channel: bursts of 6 starting with p = 1%.
pub const BURST_LEN: usize = 6;
pub const BURST_PROB: f64 = 0.01;

/// Derives an independent 64-bit seed for `tag` from the run seed
/// (SplitMix64 over the seed mixed with an FNV-1a hash of the tag).
pub fn derive(seed: u64, tag: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = seed ^ h;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for impairment fates and sampling.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct values of `0..n`, ascending.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        let mut picked = all[..k.min(n)].to_vec();
        picked.sort_unstable();
        picked
    }
}

/// The trained models and arm every workload shares.
pub struct Models {
    pub model: ArmModel,
    pub var: Var,
}

impl Models {
    /// Trains the deployed differenced VAR(5) on a seeded experienced
    /// recording.
    pub fn train(seed: u64) -> Self {
        let train = Dataset::record(
            Skill::Experienced,
            TRAIN_CYCLES,
            OMEGA,
            derive(seed, "train"),
        );
        let var = Var::fit_differenced(&train, 5, 1e-6).expect("training data well-conditioned");
        Self {
            model: niryo_one(),
            var,
        }
    }

    /// The four forecaster families, wrapped for sharing, in the
    /// order the jammed fleet is split: VAR, Kalman-CV, MA, Holt.
    pub fn families(&self) -> [(&'static str, SharedForecaster); 4] {
        let dof = self.model.dof();
        [
            ("var", SharedForecaster::new(self.var.clone())),
            (
                "kalman",
                SharedForecaster::new(KalmanCv::default_teleop(7, dof)),
            ),
            ("ma", SharedForecaster::new(MovingAverage::new(5, dof))),
            ("holt", SharedForecaster::new(Holt::default_teleop(7, dof))),
        ]
    }

    pub fn foreco(&self, forecaster: SharedForecaster) -> RecoverySpec {
        RecoverySpec::FoReCo {
            forecaster,
            config: RecoveryConfig::for_model(&self.model),
        }
    }
}

/// Records the inexperienced-operator trace a workload replays, cut to
/// exactly `ticks` commands so every seed does the same amount of work.
pub fn record_trace(seed: u64, tag: &str, ticks: usize) -> Vec<Vec<f64>> {
    let mut cycles = ticks / 600 + 1;
    loop {
        let dataset = Dataset::record(Skill::Inexperienced, cycles, OMEGA, derive(seed, tag));
        if dataset.commands.len() >= ticks {
            return dataset.head(ticks).commands;
        }
        cycles += 1;
    }
}

/// The jammed workload's link: the paper's Fig.-8 grid cell.
pub fn jammed_link() -> LinkConfig {
    LinkConfig {
        stations: JAM_STATIONS,
        interference: Interference::new(JAM_PROB, JAM_SLOTS),
        ..LinkConfig::default()
    }
}

pub fn controlled_loss(seed: u64, id: u64) -> ChannelSpec {
    ChannelSpec::ControlledLoss {
        burst_len: BURST_LEN,
        burst_prob: BURST_PROB,
        seed: derive(seed, &format!("loss/{id}")),
    }
}

pub fn jammed(seed: u64, id: u64) -> ChannelSpec {
    ChannelSpec::Jammed {
        link: jammed_link(),
        tolerance: 0.0,
        seed: derive(seed, &format!("jam/{id}")),
    }
}

/// `replay_light_loss` specs: every session claims the one stored
/// trace and runs FoReCo around one registered VAR.
pub fn replay_specs(
    seed: u64,
    models: &Models,
    claim: &TraceHandle,
    forecaster: &SharedForecaster,
    ids: std::ops::Range<u64>,
) -> Vec<SessionSpec> {
    ids.map(|id| {
        SessionSpec::new(
            id,
            SourceSpec::Stored(claim.clone()),
            controlled_loss(seed, id),
            models.foreco(forecaster.clone()),
        )
    })
    .collect()
}

/// `jammed_mixed_fleet` specs: one shared trace over the jammed link,
/// the fleet split round-robin across the four forecaster families.
pub fn jammed_specs(
    seed: u64,
    models: &Models,
    trace: &Arc<Vec<Vec<f64>>>,
    families: &[(&'static str, SharedForecaster); 4],
    ids: std::ops::Range<u64>,
) -> Vec<SessionSpec> {
    ids.map(|id| {
        SessionSpec::new(
            id,
            SourceSpec::Replayed(Arc::clone(trace)),
            jammed(seed, id),
            models.foreco(families[id as usize % 4].1.clone()),
        )
    })
    .collect()
}
