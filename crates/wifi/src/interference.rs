//! The non-802.11 interference source.
//!
//! The paper sweeps two knobs in Fig. 8: the probability that the
//! interferer activates (`p_if`, 1–5 %) and how long it stays active
//! (`T_if`, 10–100 slots). We model it as an on/off renewal process on the
//! slot lattice: in any slot where the interferer is idle it turns on with
//! probability `p_if`, and once on it emits for exactly `T_if` slots —
//! corrupting every 802.11 frame it overlaps (the jammer of §VI-D-2 does
//! not carrier-sense).

use serde::{Deserialize, Serialize};

/// On/off interference source description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interference {
    /// Per-idle-slot activation probability `p_if` in `[0, 1]`.
    pub prob: f64,
    /// Burst duration `T_if` in slots (≥ 1 when `prob > 0`).
    pub duration_slots: u32,
}

impl Interference {
    /// Creates an interference source.
    ///
    /// # Panics
    /// Panics if `prob` is outside `[0, 1]` or `prob > 0` with a zero
    /// duration.
    pub fn new(prob: f64, duration_slots: u32) -> Self {
        let source = Self {
            prob,
            duration_slots,
        };
        source
            .validate()
            .unwrap_or_else(|reason| panic!("{reason}"));
        source
    }

    /// The constructor's preconditions, for a source built field by
    /// field (a decoded checkpoint): `p_if ∈ [0, 1]` (not NaN) and a
    /// duration of at least one slot when active.
    ///
    /// # Errors
    /// The first violated precondition, as text.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.prob) {
            return Err(format!("p_if must be in [0,1], got {}", self.prob));
        }
        if self.prob != 0.0 && self.duration_slots == 0 {
            return Err("active interferer needs duration ≥ 1 slot".into());
        }
        Ok(())
    }

    /// No interference at all (the paper's baseline channel).
    pub fn none() -> Self {
        Self {
            prob: 0.0,
            duration_slots: 0,
        }
    }

    /// Stationary fraction of slots covered by a burst.
    ///
    /// Renewal argument: a cycle is a geometric idle period of mean
    /// `1/p_if` slots followed by a burst of `T_if` slots, so
    /// `cov = T_if / (T_if + 1/p_if) = p_if·T_if / (1 + p_if·T_if)`.
    pub fn coverage(&self) -> f64 {
        if self.prob == 0.0 {
            return 0.0;
        }
        let pt = self.prob * self.duration_slots as f64;
        pt / (1.0 + pt)
    }

    /// Probability that a burst **starts during** a transmission spanning
    /// `tx_slots` slots: `1 − (1−p_if)^tx_slots`.
    ///
    /// This is the per-attempt corruption probability for a
    /// carrier-sensing station: it never *begins* a transmission inside an
    /// ongoing burst (CCA reports busy and the backoff counter freezes),
    /// so only bursts igniting mid-frame can hit it. `T_if` therefore
    /// degrades the link through counter freezing and queue build-up, not
    /// through this term.
    pub fn mid_frame_hit_probability(&self, tx_slots: u32) -> f64 {
        if self.prob == 0.0 {
            return 0.0;
        }
        1.0 - (1.0 - self.prob).powi(tx_slots as i32)
    }

    /// Probability that a transmission spanning `tx_slots` slots overlaps
    /// a burst **when the transmitter cannot sense the interferer**: a
    /// burst is already on when it starts (`coverage`), or one starts in
    /// any of its slots. Kept for non-carrier-sensing what-if analyses.
    pub fn hit_probability(&self, tx_slots: u32) -> f64 {
        if self.prob == 0.0 {
            return 0.0;
        }
        let cov = self.coverage();
        let start_during = self.mid_frame_hit_probability(tx_slots);
        cov + (1.0 - cov) * start_during
    }

    /// True when the source never emits.
    pub fn is_none(&self) -> bool {
        self.prob == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_covers_nothing() {
        let i = Interference::none();
        assert_eq!(i.coverage(), 0.0);
        assert_eq!(i.hit_probability(100), 0.0);
        assert!(i.is_none());
    }

    #[test]
    fn coverage_hand_checked() {
        // p_if = 0.05, T_if = 100 → cov = 5/6.
        let i = Interference::new(0.05, 100);
        assert!((i.coverage() - 5.0 / 6.0).abs() < 1e-12);
        // p_if = 0.01, T_if = 10 → cov = 0.1/1.1.
        let i = Interference::new(0.01, 10);
        assert!((i.coverage() - 0.1 / 1.1).abs() < 1e-12);
    }

    #[test]
    fn coverage_monotone_in_both_knobs() {
        let base = Interference::new(0.02, 50).coverage();
        assert!(Interference::new(0.04, 50).coverage() > base);
        assert!(Interference::new(0.02, 100).coverage() > base);
    }

    #[test]
    fn hit_probability_bounds_and_monotonicity() {
        let i = Interference::new(0.025, 50);
        let h1 = i.hit_probability(1);
        let h10 = i.hit_probability(10);
        assert!(h1 > i.coverage(), "hit prob includes mid-frame starts");
        assert!(h10 > h1, "longer frames are hit more often");
        assert!(h10 < 1.0);
    }

    #[test]
    fn full_time_jammer_hits_everything() {
        let i = Interference::new(1.0, 1000);
        assert!(i.coverage() > 0.999);
        assert!(i.hit_probability(1) > 0.999);
    }

    #[test]
    #[should_panic(expected = "p_if")]
    fn invalid_probability_rejected() {
        Interference::new(1.5, 10);
    }
}
