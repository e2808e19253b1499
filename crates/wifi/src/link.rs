//! The wireless command pipe: a G/HEXP/1/Q queue in front of the DCF
//! service process (§V of the paper).
//!
//! Commands arrive deterministically every `Ω` seconds at the access-point
//! queue (capacity `Q`). The server is the 802.11 link: service time is
//! hyperexponential over the retransmission phases — phase `j` has weight
//! `a_j` and mean `E_j[ΔW]` from the analytical model — plus a *loss
//! phase* with weight `a_{m+2} = p^{m+2}` during which the frame occupies
//! the channel for its full doomed retry run and is then discarded.
//!
//! The queue is simulated directly (single server, FIFO, deterministic
//! arrivals) rather than through [`foreco_des::Network`] because each
//! command's *phase* decides its fate (delivered vs RTX-lost), which a
//! generic network node does not expose. The `foreco-des` engine is this
//! link's D/HEXP/1 test oracle and nothing more: `matches_generic_des_engine`
//! feeds a `Network` node the same phases and compares mean sojourns.

use crate::{DcfModel, DcfSolution, Interference, Params};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Configuration of a wireless command link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Command period `Ω` in seconds (paper: 20 ms).
    pub period: f64,
    /// Access-point queue capacity `Q` (frames in system). Control
    /// traffic wants this *small*: a queued command is stale by the time
    /// it transmits, so deep buffers convert delay into consecutive
    /// deadline misses (bufferbloat). Default 2.
    pub queue_capacity: usize,
    /// MAC/PHY parameters.
    pub params: Params,
    /// Robots sharing the medium.
    pub stations: usize,
    /// Interference source.
    pub interference: Interference,
}

impl LinkConfig {
    /// Everything [`WirelessLink::new`] needs to solve and simulate the
    /// link without panicking: a positive, finite period, a queue, at
    /// least one station, valid [`Params`] and a valid [`Interference`].
    ///
    /// # Errors
    /// The first violated precondition, as text.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.period > 0.0 && self.period.is_finite()) {
            return Err("period must be positive and finite".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue capacity must be ≥ 1".into());
        }
        if self.stations == 0 {
            return Err("need at least one station".into());
        }
        self.params.validate()?;
        self.interference.validate()
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            period: 0.020,
            queue_capacity: 2,
            params: Params::default_paper(),
            stations: 5,
            interference: Interference::none(),
        }
    }
}

/// What happened to one command on the wireless path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CommandFate {
    /// Delivered after `delay` seconds (queueing + service).
    Delivered {
        /// End-to-end wireless delay `ΔW(c_i)` in seconds.
        delay: f64,
    },
    /// Dropped after exceeding the 802.11 retry limit.
    LostRtx,
    /// Dropped on arrival because the AP queue was full.
    LostQueue,
}

impl CommandFate {
    /// Delay if delivered.
    pub fn delay(&self) -> Option<f64> {
        match self {
            CommandFate::Delivered { delay } => Some(*delay),
            _ => None,
        }
    }

    /// True for either loss kind.
    pub fn is_lost(&self) -> bool {
        !matches!(self, CommandFate::Delivered { .. })
    }
}

/// Per-command wireless delay generator.
///
/// # Example
///
/// ```
/// use foreco_wifi::{Interference, LinkConfig, WirelessLink};
///
/// let cfg = LinkConfig {
///     stations: 15,
///     interference: Interference::new(0.025, 50),
///     ..LinkConfig::default()
/// };
/// let mut link = WirelessLink::new(cfg, 42);
/// let fates = link.simulate(100);
/// assert_eq!(fates.len(), 100);
/// // The analytical solution backing the samples is inspectable.
/// assert!(link.solution().p > 0.0);
/// ```
pub struct WirelessLink {
    cfg: LinkConfig,
    solution: Arc<DcfSolution>,
    rng: StdRng,
}

impl WirelessLink {
    /// Solves the DCF model for `cfg` and prepares a seeded generator.
    ///
    /// # Panics
    /// Panics on a configuration [`LinkConfig::validate`] rejects.
    pub fn new(cfg: LinkConfig, seed: u64) -> Self {
        Self::with_solution(cfg, Arc::new(Self::solve(&cfg)), seed)
    }

    /// The DCF solution behind every link on `cfg`: a pure function of
    /// the configuration (the seed only seeds the sampler), so links on
    /// one configuration may share one solve through
    /// [`WirelessLink::with_solution`].
    ///
    /// # Panics
    /// Panics on a configuration [`LinkConfig::validate`] rejects.
    pub fn solve(cfg: &LinkConfig) -> DcfSolution {
        cfg.validate()
            .unwrap_or_else(|reason| panic!("invalid link configuration: {reason}"));
        DcfModel {
            params: cfg.params,
            stations: cfg.stations,
            interference: cfg.interference,
            offered_interval: Some(cfg.period),
        }
        .solve()
    }

    /// A seeded generator on an already solved link: `solution` must be
    /// what [`WirelessLink::solve`] returns for `cfg`. The link samples
    /// exactly the fates [`WirelessLink::new`] with the same seed does.
    pub fn with_solution(cfg: LinkConfig, solution: Arc<DcfSolution>, seed: u64) -> Self {
        Self {
            cfg,
            solution,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The underlying analytical solution.
    pub fn solution(&self) -> &DcfSolution {
        &self.solution
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Raw generator state for checkpointing a mid-stream link: together
    /// with the configuration (whose DCF solution is solved again, or
    /// shared from a link already solved on it) it fully determines
    /// every future sample.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores generator state exported by [`WirelessLink::rng_state`].
    pub fn restore_rng(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Simulates the fate of `n` consecutive commands sent every `Ω`.
    pub fn simulate(&mut self, n: usize) -> Vec<CommandFate> {
        let omega = self.cfg.period;
        let q = self.cfg.queue_capacity;
        let mut fates = Vec::with_capacity(n);
        // Finish times of commands still in the system (FIFO order).
        let mut in_system: VecDeque<f64> = VecDeque::new();
        let mut server_free_at = 0.0_f64;

        for i in 0..n {
            let arrival = i as f64 * omega;
            while let Some(&front) = in_system.front() {
                if front <= arrival {
                    in_system.pop_front();
                } else {
                    break;
                }
            }
            if in_system.len() >= q {
                fates.push(CommandFate::LostQueue);
                continue;
            }
            let start = server_free_at.max(arrival);
            let (duration, lost_rtx) = self.sample_service();
            let finish = start + duration;
            server_free_at = finish;
            in_system.push_back(finish);
            if lost_rtx {
                fates.push(CommandFate::LostRtx);
            } else {
                fates.push(CommandFate::Delivered {
                    delay: finish - arrival,
                });
            }
        }
        fates
    }

    /// Draws one hyperexponential service time and whether the frame died
    /// at the retry limit.
    fn sample_service(&mut self) -> (f64, bool) {
        let sol = &self.solution;
        let mut u: f64 = self.rng.gen();
        for (a, e) in sol.attempt_probs.iter().zip(&sol.stage_delays) {
            if u < *a {
                return (self.sample_exp(*e), false);
            }
            u -= a;
        }
        // Loss phase: frame burns its full retry run, then dies.
        (self.sample_exp(sol.loss_occupancy), true)
    }

    fn sample_exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen();
        -mean * (1.0 - u).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foreco_des::dist::{HyperExponential, Sampler};
    use foreco_des::{Network, NodeSpec, SourceSpec};

    fn cfg(stations: usize, p_if: f64, t_if: u32) -> LinkConfig {
        LinkConfig {
            stations,
            interference: if p_if > 0.0 {
                Interference::new(p_if, t_if)
            } else {
                Interference::none()
            },
            ..LinkConfig::default()
        }
    }

    #[test]
    fn clean_channel_delivers_everything_fast() {
        let mut link = WirelessLink::new(cfg(5, 0.0, 0), 1);
        let fates = link.simulate(5_000);
        assert!(fates.iter().all(|f| !f.is_lost()));
        let delays: Vec<f64> = fates.iter().filter_map(|f| f.delay()).collect();
        let mean = delays.iter().sum::<f64>() / delays.len() as f64;
        assert!(mean < 0.005, "mean delay {mean} should be well under Ω");
    }

    #[test]
    fn heavy_interference_loses_and_delays() {
        let mut link = WirelessLink::new(cfg(25, 0.05, 100), 2);
        let fates = link.simulate(5_000);
        let lost = fates.iter().filter(|f| f.is_lost()).count();
        assert!(lost > 100, "expected heavy losses, got {lost}");
        let over_omega = fates
            .iter()
            .filter_map(|f| f.delay())
            .filter(|&d| d > 0.020)
            .count();
        assert!(over_omega > 0, "expected delays beyond Ω");
    }

    #[test]
    fn losses_monotone_in_interference() {
        let count_lost = |p_if: f64, t_if: u32, seed: u64| -> usize {
            let mut link = WirelessLink::new(cfg(15, p_if, t_if), seed);
            link.simulate(4_000).iter().filter(|f| f.is_lost()).count()
        };
        let mild = count_lost(0.01, 10, 3);
        let heavy = count_lost(0.05, 100, 3);
        assert!(heavy > mild, "heavy {heavy} vs mild {mild}");
    }

    #[test]
    fn queue_capacity_enforced() {
        // Tiny queue + overload ⇒ LostQueue events appear.
        let mut c = cfg(25, 0.05, 100);
        c.queue_capacity = 1;
        let mut link = WirelessLink::new(c, 4);
        let fates = link.simulate(4_000);
        let queue_lost = fates
            .iter()
            .filter(|f| matches!(f, CommandFate::LostQueue))
            .count();
        assert!(queue_lost > 0, "expected queue overflow drops");
    }

    #[test]
    fn determinism_under_seed() {
        let a = WirelessLink::new(cfg(15, 0.025, 50), 99).simulate(2_000);
        let b = WirelessLink::new(cfg(15, 0.025, 50), 99).simulate(2_000);
        assert_eq!(a, b);
    }

    #[test]
    fn a_shared_solution_samples_what_a_fresh_solve_does() {
        let c = cfg(25, 0.025, 10);
        let shared = Arc::new(WirelessLink::solve(&c));
        let mut fresh = WirelessLink::new(c, 41);
        let mut reused = WirelessLink::with_solution(c, Arc::clone(&shared), 41);
        let mut twin = WirelessLink::with_solution(c, Arc::clone(&shared), 7);
        let bits = |fates: Vec<CommandFate>| -> Vec<u64> {
            fates
                .iter()
                .map(|f| match f {
                    CommandFate::Delivered { delay } => delay.to_bits(),
                    CommandFate::LostRtx => u64::MAX,
                    CommandFate::LostQueue => u64::MAX - 1,
                })
                .collect()
        };
        assert_eq!(bits(fresh.simulate(1_500)), bits(reused.simulate(1_500)));
        // Mid-stream: a checkpointed generator restored onto the shared
        // solution carries on bit for bit.
        twin.restore_rng(fresh.rng_state());
        assert_eq!(bits(fresh.simulate(1_500)), bits(twin.simulate(1_500)));
        assert_eq!(Arc::strong_count(&shared), 3);
    }

    /// Cross-validation against the generic DES engine: with no losses and
    /// ample queue, mean sojourn of this direct loop must match a
    /// D/HEXP/1 node in `foreco_des::Network` fed the same phases.
    #[test]
    fn matches_generic_des_engine() {
        let link_cfg = cfg(5, 0.01, 10);
        let mut link = WirelessLink::new(link_cfg, 7);
        let sol = link.solution().clone();
        let fates = link.simulate(50_000);
        let delays: Vec<f64> = fates.iter().filter_map(|f| f.delay()).collect();
        let direct_mean = delays.iter().sum::<f64>() / delays.len() as f64;

        // Same phases in the DES engine (loss phase folded in as service).
        let mut phases: Vec<(f64, f64)> = sol
            .attempt_probs
            .iter()
            .zip(&sol.stage_delays)
            .map(|(a, e)| (*a, 1.0 / *e))
            .collect();
        phases.push((sol.loss_probability, 1.0 / sol.loss_occupancy));
        let mut net = Network::new(7);
        let node = net.add_node(NodeSpec {
            servers: 1,
            capacity: Some(link_cfg.queue_capacity),
            service: HyperExponential::new(&phases).boxed(),
            routing: vec![],
        });
        net.add_source(SourceSpec {
            interarrival: foreco_des::dist::Deterministic::new(link_cfg.period).boxed(),
            target: node,
            first_arrival: 0.0,
        });
        let recs = net.run_until(50_000.0 * link_cfg.period);
        let net_delays: Vec<f64> = recs
            .iter()
            .filter(|r| !r.lost)
            .map(|r| r.sojourn_time())
            .collect();
        let net_mean = net_delays.iter().sum::<f64>() / net_delays.len() as f64;
        let rel = (direct_mean - net_mean).abs() / net_mean;
        assert!(rel < 0.1, "direct {direct_mean} vs network {net_mean}");
    }

    /// Appendix Corollary 2 at the command level: consecutive commands are
    /// generated exactly Ω apart, yet their delay difference exceeds Ω for
    /// some pair — the causality assumption fails on this link.
    #[test]
    fn appendix_causality_violated_at_command_level() {
        let mut link = WirelessLink::new(cfg(25, 0.05, 100), 11);
        let fates = link.simulate(10_000);
        let omega = 0.020;
        let mut violated = false;
        for w in fates.windows(2) {
            if let (Some(d0), Some(d1)) = (w[0].delay(), w[1].delay()) {
                if (d1 - d0).abs() > omega {
                    violated = true;
                    break;
                }
            }
        }
        assert!(violated, "|Δ(c_{{i+1}})−Δ(c_i)| never exceeded Ω");
    }
}
