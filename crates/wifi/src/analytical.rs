//! Bianchi-style analytical model of 802.11 DCF with a retry limit and a
//! non-802.11 interference source.
//!
//! This reproduces the role of the paper's \[7\] (Bosch et al. 2020): given
//! the number of contending stations, the MAC parameters and the
//! interferer, derive
//!
//! - `p` — probability an *attempt* fails (collision with another station
//!   or an interference burst igniting mid-frame; stations carrier-sense,
//!   so they never start transmitting into an ongoing burst),
//! - `τ` — per-slot transmission probability, from the renewal fixed point
//!   `τ(p) = Σ_{j≤M} p^j / Σ_{j≤M} p^j (W_j+1)/2`
//!   (Bianchi via the Kumar renewal-reward simplification, retry-limited),
//! - `a_j = p^j (1−p)` — probability a frame is delivered after exactly
//!   `j` retransmissions, and the loss probability `a_{M+1} = p^{M+1}`
//!   (the paper's `a_{m+2}`, Lemma 1),
//! - `E_j[ΔW] = Ts + j·Tc + σ̃ Σ_{k≤j} (W_k−1)/2` — expected wireless
//!   delay after `j` retransmissions (paper eq. 20),
//! - `σ̃` — the mean backoff-slot duration seen by a tagged station,
//!   accounting for other stations' transmissions and interferer bursts
//!   freezing the counter.
//!
//! Unsaturated refinement: the paper's robots offer one 100-byte command
//! every `Ω = 20 ms`, far from saturation, so using the saturated station
//! count directly would overstate contention. We iterate an *effective*
//! contender count `n_eff = 1 + (n−1)·ρ` where `ρ = min(1, E[occupancy]/Ω)`
//! is each station's channel utilisation — under heavy interference
//! service times balloon, `ρ → 1` and the model converges back to the
//! saturated regime, which is exactly the feedback that makes Fig. 8's
//! worst cells catastrophic.

use crate::{Interference, Params};
use serde::{Deserialize, Serialize};

/// Model inputs.
///
/// # Example
///
/// ```
/// use foreco_wifi::{DcfModel, Interference, Params};
///
/// let sol = DcfModel {
///     params: Params::default_paper(),
///     stations: 15,
///     interference: Interference::new(0.025, 50),
///     offered_interval: Some(0.020),
/// }
/// .solve();
/// // Probability mass: delivery phases + RTX loss sum to 1.
/// let total: f64 = sol.attempt_probs.iter().sum::<f64>() + sol.loss_probability;
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DcfModel {
    /// MAC/PHY parameters.
    pub params: Params,
    /// Number of stations sharing the medium (the paper's 5/15/25 robots).
    pub stations: usize,
    /// Interference source.
    pub interference: Interference,
    /// Mean interval between frames offered by each station (`Ω`);
    /// `None` = saturated stations (always backlogged).
    pub offered_interval: Option<f64>,
}

/// Model outputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DcfSolution {
    /// Per-slot transmission probability of a backlogged station.
    pub tau: f64,
    /// Attempt failure probability.
    pub p: f64,
    /// `a_j` for `j = 0..=max_retx`: unconditional probability of delivery
    /// after exactly `j` retransmissions.
    pub attempt_probs: Vec<f64>,
    /// `p^{M+1}`: probability the frame exceeds the RTX limit and is lost.
    pub loss_probability: f64,
    /// `E_j[ΔW]` in seconds for `j = 0..=max_retx`.
    pub stage_delays: Vec<f64>,
    /// Channel time consumed by a frame that dies at the RTX limit.
    pub loss_occupancy: f64,
    /// Mean backoff-slot duration `σ̃` (seconds).
    pub mean_slot: f64,
    /// `E[ΔW | delivered]` (seconds).
    pub mean_delay_delivered: f64,
    /// Mean channel occupancy per offered frame (delivered or lost).
    pub mean_occupancy: f64,
    /// Effective contender count after the unsaturated refinement.
    pub effective_contenders: f64,
}

impl DcfModel {
    /// Solves the model.
    ///
    /// # Panics
    /// Panics on invalid [`Params`] or `stations == 0`.
    pub fn solve(&self) -> DcfSolution {
        self.params.validate().expect("invalid 802.11 parameters");
        assert!(self.stations >= 1, "need at least one station");

        let n = self.stations as f64;
        let mut n_eff = 1.0_f64;
        let mut sol = self.solve_inner(n_eff);
        for _ in 0..32 {
            let rho = match self.offered_interval {
                None => 1.0, // saturated
                Some(omega) => (sol.mean_occupancy / omega).min(1.0),
            };
            let next = 1.0 + (n - 1.0) * rho;
            if (next - n_eff).abs() < 1e-9 {
                break;
            }
            // Damped update keeps the outer loop stable near ρ = 1.
            n_eff = 0.5 * n_eff + 0.5 * next;
            sol = self.solve_inner(n_eff);
        }
        sol
    }

    /// Inner Bianchi fixed point for a given (possibly fractional)
    /// contender count.
    fn solve_inner(&self, n_eff: f64) -> DcfSolution {
        let pr = &self.params;
        let m_retx = pr.max_retx; // M: retransmissions; attempts = M+1
        let p_hit = self.interference.mid_frame_hit_probability(pr.tx_slots());

        // τ(p): renewal-reward over the retry chain.
        let tau_of_p = |p: f64| -> f64 {
            let mut num = 0.0;
            let mut den = 0.0;
            let mut pj = 1.0;
            for j in 0..=m_retx {
                let w = pr.cw(j) as f64;
                num += pj;
                den += pj * (w + 1.0) / 2.0;
                pj *= p;
            }
            num / den
        };
        // p(τ): another station transmits in the same slot, or the frame
        // overlaps an interference burst.
        let p_of_tau = |tau: f64| -> f64 {
            let others = (n_eff - 1.0).max(0.0);
            1.0 - (1.0 - tau).powf(others) * (1.0 - p_hit)
        };

        // Damped fixed-point iteration (the map is monotone and bounded;
        // damping guarantees convergence in practice).
        let mut tau = 0.1;
        for _ in 0..500 {
            let next = 0.5 * tau + 0.5 * tau_of_p(p_of_tau(tau));
            if (next - tau).abs() < 1e-13 {
                tau = next;
                break;
            }
            tau = next;
        }
        let p = p_of_tau(tau);

        // Mean slot σ̃ seen by the tagged station while counting down.
        let sigma = pr.slot;
        let t_if = self.interference.duration_slots as f64;
        let p_if = self.interference.prob;
        let others = (n_eff - 1.0).max(0.0);
        let p_idle_others = (1.0 - tau).powf(others);
        let p_s_others = if others > 0.0 {
            (others * tau * (1.0 - tau).powf(others - 1.0) * (1.0 - p_hit)).min(1.0 - p_idle_others)
        } else {
            0.0
        };
        let p_c_others = (1.0 - p_idle_others - p_s_others).max(0.0);
        // An idle slot stretches by a whole burst when the interferer
        // fires (counter frozen for T_if slots).
        let sigma_idle = sigma * (1.0 + p_if * t_if);
        let mean_slot = p_idle_others * sigma_idle
            + p_s_others * pr.t_success()
            + p_c_others * pr.t_collision();

        // Stage delays, paper eq. (20): E_j = Ts + j·Tc + σ̃ Σ_{k≤j}(W_k−1)/2.
        let mut stage_delays = Vec::with_capacity(m_retx as usize + 1);
        let mut backoff_sum = 0.0;
        for j in 0..=m_retx {
            backoff_sum += (pr.cw(j) as f64 - 1.0) / 2.0;
            stage_delays
                .push(pr.t_success() + j as f64 * pr.t_collision() + mean_slot * backoff_sum);
        }
        // A frame that dies at the limit burned M+1 failed attempts and all
        // the backoff stages.
        let loss_occupancy = (m_retx as f64 + 1.0) * pr.t_collision() + mean_slot * backoff_sum;

        // a_j = p^j (1−p); loss = p^{M+1}.
        let mut attempt_probs = Vec::with_capacity(m_retx as usize + 1);
        let mut pj = 1.0;
        for _ in 0..=m_retx {
            attempt_probs.push(pj * (1.0 - p));
            pj *= p;
        }
        let loss_probability = pj;

        let delivered_mass: f64 = attempt_probs.iter().sum();
        let mean_delay_delivered = if delivered_mass > 0.0 {
            attempt_probs
                .iter()
                .zip(&stage_delays)
                .map(|(a, e)| a * e)
                .sum::<f64>()
                / delivered_mass
        } else {
            f64::INFINITY
        };
        let mean_occupancy = attempt_probs
            .iter()
            .zip(&stage_delays)
            .map(|(a, e)| a * e)
            .sum::<f64>()
            + loss_probability * loss_occupancy;

        DcfSolution {
            tau,
            p,
            attempt_probs,
            loss_probability,
            stage_delays,
            loss_occupancy,
            mean_slot,
            mean_delay_delivered,
            mean_occupancy,
            effective_contenders: n_eff,
        }
    }

    /// Normalised saturation throughput `S ∈ [0, 1]` — Bianchi's classic
    /// metric: the fraction of channel time carrying successful payload
    /// bits, `S = Ps·E[payload] / E[slot]`, evaluated at the model's
    /// fixed point. Used as a sanity anchor against Bianchi's published
    /// curves (S ≈ 0.8 for few stations at these frame sizes, slowly
    /// degrading with contention).
    pub fn saturation_throughput(&self) -> f64 {
        let sol = DcfModel {
            offered_interval: None,
            ..*self
        }
        .solve();
        let pr = &self.params;
        let n = self.stations as f64;
        let tau = sol.tau;
        let p_hit = self.interference.mid_frame_hit_probability(pr.tx_slots());
        let p_idle = (1.0 - tau).powf(n);
        let p_succ = (n * tau * (1.0 - tau).powf(n - 1.0) * (1.0 - p_hit)).min(1.0 - p_idle);
        let p_fail = (1.0 - p_idle - p_succ).max(0.0);
        let t_if = self.interference.duration_slots as f64;
        let sigma_idle = pr.slot * (1.0 + self.interference.prob * t_if);
        let payload_time = pr.payload_bits as f64 / pr.data_rate;
        let mean_slot = p_idle * sigma_idle + p_succ * pr.t_success() + p_fail * pr.t_collision();
        p_succ * payload_time / mean_slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(stations: usize, p_if: f64, t_if: u32) -> DcfModel {
        DcfModel {
            params: Params::default_paper(),
            stations,
            interference: if p_if > 0.0 {
                Interference::new(p_if, t_if)
            } else {
                Interference::none()
            },
            offered_interval: Some(0.020),
        }
    }

    /// Single station, clean channel: no failures, closed-form τ.
    #[test]
    fn single_station_clean_channel() {
        let s = model(1, 0.0, 0).solve();
        assert!(s.p.abs() < 1e-9, "p = {}", s.p);
        // τ = 1 / ((W₀+1)/2) = 2/33.
        assert!((s.tau - 2.0 / 33.0).abs() < 1e-6, "tau = {}", s.tau);
        assert!(s.loss_probability < 1e-12);
        // E₀ = Ts + σ (W₀−1)/2 = Ts + 15.5 σ.
        let pr = Params::default_paper();
        let e0 = pr.t_success() + pr.slot * 15.5;
        assert!((s.stage_delays[0] - e0).abs() < 1e-9);
        // First attempt succeeds with probability 1.
        assert!((s.attempt_probs[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn attempt_probs_and_loss_sum_to_one() {
        for (n, p_if, t_if) in [(5, 0.01, 10), (15, 0.025, 50), (25, 0.05, 100)] {
            let s = model(n, p_if, t_if).solve();
            let total: f64 = s.attempt_probs.iter().sum::<f64>() + s.loss_probability;
            assert!((total - 1.0).abs() < 1e-12, "n={n}: total {total}");
        }
    }

    #[test]
    fn stage_delays_strictly_increase() {
        let s = model(15, 0.025, 50).solve();
        for w in s.stage_delays.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(s.loss_occupancy > 0.0);
    }

    #[test]
    fn failure_probability_monotone_in_stations() {
        let p5 = model(5, 0.01, 10).solve().p;
        let p15 = model(15, 0.01, 10).solve().p;
        let p25 = model(25, 0.01, 10).solve().p;
        assert!(p5 < p15 && p15 < p25, "p: {p5} {p15} {p25}");
    }

    #[test]
    fn loss_monotone_in_interference_knobs() {
        let base = model(15, 0.01, 10).solve().loss_probability;
        let more_prob = model(15, 0.05, 10).solve().loss_probability;
        let longer = model(15, 0.01, 100).solve().loss_probability;
        assert!(more_prob > base, "{more_prob} vs {base}");
        assert!(longer > base, "{longer} vs {base}");
    }

    #[test]
    fn clean_channel_is_fast() {
        // Without interference a lightly-loaded 5-robot floor delivers
        // commands in well under Ω = 20 ms.
        let s = model(5, 0.0, 0).solve();
        assert!(s.mean_delay_delivered < 0.002, "{}", s.mean_delay_delivered);
        assert!(s.loss_probability < 1e-6);
    }

    #[test]
    fn worst_cell_saturates() {
        // p_if = 5 %, T_if = 100 slots covers ~83 % of slots: heavy losses
        // and delays beyond Ω — the regime of Fig. 8's dark cells.
        let s = model(25, 0.05, 100).solve();
        assert!(s.loss_probability > 0.005, "loss {}", s.loss_probability);
        assert!(
            s.mean_occupancy > 0.010,
            "occupancy {} should swamp the 20 ms budget",
            s.mean_occupancy
        );
        assert!(s.effective_contenders > 10.0);
    }

    #[test]
    fn saturated_mode_uses_all_stations() {
        let m = DcfModel {
            offered_interval: None,
            ..model(10, 0.0, 0)
        };
        let s = m.solve();
        assert!((s.effective_contenders - 10.0).abs() < 1e-6);
        // Saturated 10-station 802.11: collision probability notably > 0.
        assert!(s.p > 0.1 && s.p < 0.6, "p = {}", s.p);
    }

    /// Appendix, Lemma 1 / Corollary 1: with interference the delay is
    /// bounded only in expectation — there is positive probability
    /// `a_{m+2} = p^{m+2}` of an infinite delay (lost command), so
    /// `P(Δ > K) > 0` for every K.
    #[test]
    fn appendix_delay_is_unbounded_with_interference() {
        let s = model(15, 0.025, 50).solve();
        assert!(s.loss_probability > 0.0);
        assert!(s.mean_delay_delivered.is_finite());
    }

    /// Saturation throughput sits in Bianchi's published band and decays
    /// with contention and interference.
    #[test]
    fn saturation_throughput_sane() {
        let s_clean_small = model(5, 0.0, 0).saturation_throughput();
        let s_clean_large = model(30, 0.0, 0).saturation_throughput();
        let s_jammed = model(5, 0.05, 100).saturation_throughput();
        // Payload is only ~100 B of a ~405 µs exchange: the *normalised*
        // ceiling here is payload_time/Ts ≈ 0.18.
        assert!(
            s_clean_small > 0.05 && s_clean_small < 0.2,
            "{s_clean_small}"
        );
        assert!(
            s_clean_large < s_clean_small,
            "throughput must decay with n"
        );
        assert!(
            s_jammed < s_clean_small,
            "interference must cost throughput"
        );
    }

    /// Mean slot grows once the interferer freezes backoff counters.
    #[test]
    fn mean_slot_grows_with_interference() {
        let clean = model(5, 0.0, 0).solve().mean_slot;
        let jammed = model(5, 0.05, 100).solve().mean_slot;
        assert!(jammed > 2.0 * clean, "{jammed} vs {clean}");
    }
}
