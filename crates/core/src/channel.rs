//! Network channels: what happened to each command on its way to the
//! robot.
//!
//! A [`Channel`] maps a command index stream onto per-command [`Arrival`]
//! outcomes using the paper's timing rule: command `c_i` is generated at
//! `g(c_i) = i·Ω` and consumed by the driver one period later, so it is
//! **on time** iff `Δ(c_i) ≤ Ω + τ` (the Niryo stack has `τ = 0`).
//!
//! Three channels cover the paper's three evaluation set-ups:
//!
//! - [`IdealChannel`] — the Ethernet used to record the datasets (§VI-A);
//! - [`ControlledLossChannel`] — the §VI-D-1 experiment: bursts of
//!   exactly `L` consecutive losses injected at random points;
//! - [`JammedChannel`] — the §V/§VI-C/§VI-D-2 set-up: delays and losses
//!   drawn from the 802.11-with-interference link model of `foreco-wifi`.

use foreco_wifi::{CommandFate, DcfSolution, LinkConfig, WirelessLink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-command network outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Arrival {
    /// Delivered within `Ω + τ`: the driver executes it.
    OnTime,
    /// Delivered, but too late to execute; the payload carries the delay
    /// in seconds (used by the §VII-C late-command extension).
    Late(f64),
    /// Never delivered (RTX limit or queue drop).
    Lost,
}

impl Arrival {
    /// True when the robot gets the command in time.
    pub fn on_time(&self) -> bool {
        matches!(self, Arrival::OnTime)
    }
}

/// A source of per-command outcomes.
pub trait Channel {
    /// Outcomes for the next `n` commands (one per period `Ω`).
    fn fates(&mut self, n: usize) -> Vec<Arrival>;

    /// Channel display name for reports.
    fn name(&self) -> &'static str;

    /// Raw RNG state for checkpointing a mid-stream channel, or `None`
    /// for stateless channels. Every in-tree channel's only cross-call
    /// state is its generator, so these four words (plus the original
    /// construction parameters) fully determine all future fates.
    fn rng_state(&self) -> Option<[u64; 4]> {
        None
    }

    /// Restores RNG state exported by [`Channel::rng_state`]. No-op for
    /// stateless channels.
    fn restore_rng(&mut self, state: [u64; 4]) {
        let _ = state;
    }
}

/// Perfect network: everything on time.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdealChannel;

impl Channel for IdealChannel {
    fn fates(&mut self, n: usize) -> Vec<Arrival> {
        vec![Arrival::OnTime; n]
    }
    fn name(&self) -> &'static str {
        "ideal"
    }
}

/// Controlled consecutive-loss injector (§VI-D-1): at random ticks, drop
/// exactly `burst_len` consecutive commands. Between bursts the channel is
/// perfect — this isolates FoReCo's behaviour under known burst lengths
/// (the paper uses 5, 10 and 25).
#[derive(Debug, Clone)]
pub struct ControlledLossChannel {
    /// Consecutive commands lost per burst.
    pub burst_len: usize,
    /// Probability a burst starts at any given (non-bursting) tick.
    pub burst_prob: f64,
    rng: StdRng,
}

impl ControlledLossChannel {
    /// Creates an injector with bursts of `burst_len` losses starting with
    /// probability `burst_prob` per tick.
    ///
    /// # Panics
    /// Panics if `burst_len == 0` or `burst_prob` outside `[0, 1]`.
    pub fn new(burst_len: usize, burst_prob: f64, seed: u64) -> Self {
        assert!(burst_len >= 1, "burst length must be ≥ 1");
        assert!((0.0..=1.0).contains(&burst_prob), "burst prob out of range");
        Self {
            burst_len,
            burst_prob,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Channel for ControlledLossChannel {
    fn fates(&mut self, n: usize) -> Vec<Arrival> {
        let mut out = Vec::with_capacity(n);
        let mut remaining = 0usize;
        for _ in 0..n {
            if remaining > 0 {
                out.push(Arrival::Lost);
                remaining -= 1;
            } else if self.rng.gen::<f64>() < self.burst_prob {
                out.push(Arrival::Lost);
                remaining = self.burst_len - 1;
            } else {
                out.push(Arrival::OnTime);
            }
        }
        out
    }
    fn name(&self) -> &'static str {
        "controlled-loss"
    }

    fn rng_state(&self) -> Option<[u64; 4]> {
        Some(self.rng.state())
    }

    fn restore_rng(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }
}

/// The 802.11-under-interference channel: per-command delays and losses
/// from the `foreco-wifi` G/HEXP/1/Q link model, classified with the
/// `Δ ≤ Ω + τ` rule.
pub struct JammedChannel {
    link: WirelessLink,
    tolerance: f64,
}

impl JammedChannel {
    /// Builds the channel from a link configuration and tolerance `τ`.
    ///
    /// # Panics
    /// Panics if `tolerance` is negative.
    pub fn new(link_cfg: LinkConfig, tolerance: f64, seed: u64) -> Self {
        Self::on_link(WirelessLink::new(link_cfg, seed), tolerance)
    }

    /// [`JammedChannel::new`] on an already solved link (see
    /// [`WirelessLink::with_solution`]): channels on one configuration
    /// share one DCF solve and draw the fates a fresh solve would.
    ///
    /// # Panics
    /// Panics if `tolerance` is negative.
    pub fn with_solution(
        link_cfg: LinkConfig,
        solution: Arc<DcfSolution>,
        tolerance: f64,
        seed: u64,
    ) -> Self {
        Self::on_link(
            WirelessLink::with_solution(link_cfg, solution, seed),
            tolerance,
        )
    }

    fn on_link(link: WirelessLink, tolerance: f64) -> Self {
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        Self { link, tolerance }
    }

    /// The analytical solution backing the link (for reports).
    pub fn solution(&self) -> &foreco_wifi::DcfSolution {
        self.link.solution()
    }
}

impl Channel for JammedChannel {
    fn fates(&mut self, n: usize) -> Vec<Arrival> {
        let omega = self.link.config().period;
        let deadline = omega + self.tolerance;
        self.link
            .simulate(n)
            .into_iter()
            .map(|fate| match fate {
                CommandFate::Delivered { delay } if delay <= deadline => Arrival::OnTime,
                CommandFate::Delivered { delay } => Arrival::Late(delay),
                CommandFate::LostRtx | CommandFate::LostQueue => Arrival::Lost,
            })
            .collect()
    }
    fn name(&self) -> &'static str {
        "jammed-802.11"
    }

    fn rng_state(&self) -> Option<[u64; 4]> {
        Some(self.link.rng_state())
    }

    fn restore_rng(&mut self, state: [u64; 4]) {
        self.link.restore_rng(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foreco_wifi::Interference;

    #[test]
    fn ideal_is_all_on_time() {
        let f = IdealChannel.fates(100);
        assert!(f.iter().all(|a| a.on_time()));
    }

    #[test]
    fn controlled_bursts_have_exact_length() {
        let mut ch = ControlledLossChannel::new(5, 0.02, 42);
        let fates = ch.fates(10_000);
        // Measure run lengths of losses.
        let mut runs = Vec::new();
        let mut run = 0usize;
        for f in &fates {
            if matches!(f, Arrival::Lost) {
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        assert!(!runs.is_empty(), "no bursts in 10k ticks at 2 %");
        // Every burst is a multiple of 5 (back-to-back bursts can merge).
        for r in &runs {
            assert_eq!(r % 5, 0, "burst of length {r}");
        }
        assert!(runs.iter().filter(|&&r| r == 5).count() > runs.len() / 2);
    }

    #[test]
    fn controlled_channel_deterministic() {
        let a = ControlledLossChannel::new(10, 0.01, 7).fates(1000);
        let b = ControlledLossChannel::new(10, 0.01, 7).fates(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn jammed_channel_classification() {
        let cfg = LinkConfig {
            stations: 25,
            interference: Interference::new(0.05, 100),
            ..LinkConfig::default()
        };
        let mut ch = JammedChannel::new(cfg, 0.0, 3);
        let fates = ch.fates(4000);
        let on_time = fates.iter().filter(|a| a.on_time()).count();
        let late = fates
            .iter()
            .filter(|a| matches!(a, Arrival::Late(_)))
            .count();
        let lost = fates.iter().filter(|a| matches!(a, Arrival::Lost)).count();
        assert_eq!(on_time + late + lost, 4000);
        assert!(late + lost > 0, "heavy jamming must cause misses");
        // Late commands must really be late.
        for f in &fates {
            if let Arrival::Late(d) = f {
                assert!(*d > 0.020);
            }
        }
    }

    #[test]
    fn clean_wireless_is_mostly_on_time() {
        let cfg = LinkConfig {
            stations: 5,
            ..LinkConfig::default()
        };
        let mut ch = JammedChannel::new(cfg, 0.0, 4);
        let fates = ch.fates(2000);
        let on_time = fates.iter().filter(|a| a.on_time()).count();
        assert!(on_time as f64 / 2000.0 > 0.99, "{on_time}/2000 on time");
    }
}
