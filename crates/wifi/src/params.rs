//! IEEE 802.11 MAC/PHY timing parameters.

use serde::{Deserialize, Serialize};

/// MAC/PHY parameters of an 802.11 DCF link.
///
/// All durations are in **seconds**, sizes in bits, rates in bit/s.
/// Defaults ([`Params::default_paper`]) model a 2.4 GHz DSSS/CCK network at
/// 11 Mb/s — the closest public parameter set to the testbed's 802.11n AP
/// constrained by the Niryo's Raspberry Pi 3 radio; the FoReCo paper defers
/// its exact values to "[7, Table 2]", which it does not reprint, so the
/// set below is documented in DESIGN.md §5 and overridable field by field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Idle backoff slot duration σ.
    pub slot: f64,
    /// Short inter-frame space.
    pub sifs: f64,
    /// DCF inter-frame space.
    pub difs: f64,
    /// Minimum contention window `W₀` (number of slots).
    pub cw_min: u32,
    /// Number of window-doubling stages `m'` (CWmax = 2^m'·W₀).
    pub backoff_stages: u32,
    /// Maximum number of *re*-transmissions. The paper allows "up to 6
    /// re-transmissions" (Fig. 4), i.e. 7 attempts in total; a frame that
    /// fails all of them is lost with probability `a_{m+2} = p^{m+2}`.
    pub max_retx: u32,
    /// PHY preamble + header duration (sent at a fixed rate).
    pub phy_header: f64,
    /// MAC header + FCS size in bits.
    pub mac_header_bits: u32,
    /// Payload size in bits (a FoReCo joint-state command ≈ 100 bytes of
    /// ROS serialisation).
    pub payload_bits: u32,
    /// ACK frame size in bits.
    pub ack_bits: u32,
    /// Data rate for MAC payloads.
    pub data_rate: f64,
    /// Basic rate used by ACKs.
    pub basic_rate: f64,
}

impl Params {
    /// The parameter set used throughout the reproduction (DESIGN.md §5).
    pub fn default_paper() -> Self {
        Self {
            slot: 20e-6,
            sifs: 10e-6,
            difs: 50e-6,
            cw_min: 32,
            backoff_stages: 5,
            max_retx: 6,
            phy_header: 96e-6, // short DSSS preamble + PLCP header
            mac_header_bits: 34 * 8,
            payload_bits: 100 * 8,
            ack_bits: 14 * 8,
            data_rate: 11e6,
            basic_rate: 2e6,
        }
    }

    /// Contention window of backoff stage `j`: `min(2^j·W₀, 2^m'·W₀)`.
    pub fn cw(&self, stage: u32) -> u32 {
        let capped = stage.min(self.backoff_stages);
        self.cw_min.saturating_mul(1 << capped)
    }

    /// Duration of the data frame on air (PHY header + MAC+payload bits).
    pub fn t_data(&self) -> f64 {
        self.phy_header + (self.mac_header_bits + self.payload_bits) as f64 / self.data_rate
    }

    /// Duration of the ACK on air.
    pub fn t_ack(&self) -> f64 {
        self.phy_header + self.ack_bits as f64 / self.basic_rate
    }

    /// Channel occupancy of a **successful** exchange:
    /// `Ts = DIFS + T_data + SIFS + T_ack`.
    pub fn t_success(&self) -> f64 {
        self.difs + self.t_data() + self.sifs + self.t_ack()
    }

    /// Channel occupancy of a **failed** attempt (collision or
    /// interference hit): the full data frame plus the ACK-timeout wait,
    /// `Tc = DIFS + T_data + SIFS + T_ack` — the sender cannot know the
    /// frame died and waits out the whole exchange window (EIFS-style).
    pub fn t_collision(&self) -> f64 {
        self.t_success()
    }

    /// Number of whole backoff slots a data transmission spans (used by
    /// interference-overlap computations).
    pub fn tx_slots(&self) -> u32 {
        (self.t_data() / self.slot).ceil() as u32
    }

    /// Validates internal consistency; returns a description of the first
    /// violation found. A valid set solves without panicking and with
    /// finite timings: every duration and rate is finite, the window
    /// doublings fit a `u32` ([`Params::cw`]), the frame's bit count
    /// does not overflow, and the retry chain is at most
    /// [`Params::MAX_RETX`] long.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |v: f64| v > 0.0 && v.is_finite();
        if !(positive(self.slot) && positive(self.sifs) && positive(self.difs)) {
            return Err("slot/SIFS/DIFS must be positive and finite".into());
        }
        if !(self.phy_header >= 0.0 && self.phy_header.is_finite()) {
            return Err("PHY header duration must be finite and non-negative".into());
        }
        if self.cw_min < 2 {
            return Err("CWmin must be at least 2".into());
        }
        if self.backoff_stages >= u32::BITS {
            return Err(format!("at most {} backoff stages", u32::BITS - 1));
        }
        if self.max_retx > Self::MAX_RETX {
            return Err(format!("at most {} re-transmissions", Self::MAX_RETX));
        }
        if !(positive(self.data_rate) && positive(self.basic_rate)) {
            return Err("rates must be positive and finite".into());
        }
        if self.payload_bits == 0 {
            return Err("payload must be non-empty".into());
        }
        if self
            .mac_header_bits
            .checked_add(self.payload_bits)
            .is_none()
        {
            return Err("MAC header plus payload overflows".into());
        }
        Ok(())
    }

    /// Upper bound on [`Params::max_retx`]: the 802.11 MIB's largest
    /// retry limit. The DCF solution keeps one phase per attempt.
    pub const MAX_RETX: u32 = 255;
}

impl Default for Params {
    fn default() -> Self {
        Self::default_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(Params::default_paper().validate(), Ok(()));
    }

    #[test]
    fn contention_window_doubles_then_caps() {
        let p = Params::default_paper();
        assert_eq!(p.cw(0), 32);
        assert_eq!(p.cw(1), 64);
        assert_eq!(p.cw(5), 1024);
        assert_eq!(p.cw(6), 1024); // capped at 2^5·32
        assert_eq!(p.cw(12), 1024);
    }

    #[test]
    fn frame_durations_hand_checked() {
        let p = Params::default_paper();
        // T_data = 96 µs + 134·8 / 11e6 ≈ 96 + 97.45 µs.
        let expected_data = 96e-6 + 1072.0 / 11e6;
        assert!((p.t_data() - expected_data).abs() < 1e-12);
        // T_ack = 96 µs + 112 / 2e6 = 152 µs.
        assert!((p.t_ack() - 152e-6).abs() < 1e-12);
        // Ts ≈ 50 + 193.45 + 10 + 152 ≈ 405 µs: sane sub-millisecond value.
        assert!(p.t_success() > 300e-6 && p.t_success() < 600e-6);
    }

    #[test]
    fn tx_spans_multiple_slots() {
        let p = Params::default_paper();
        assert!(p.tx_slots() >= 5, "data frame should span several slots");
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut p = Params::default_paper();
        p.cw_min = 1;
        assert!(p.validate().is_err());
        let mut p = Params::default_paper();
        p.slot = 0.0;
        assert!(p.validate().is_err());
        let mut p = Params::default_paper();
        p.payload_bits = 0;
        assert!(p.validate().is_err());
        let mut p = Params::default_paper();
        p.data_rate = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = Params::default_paper();
        p.phy_header = f64::INFINITY;
        assert!(p.validate().is_err());
        let mut p = Params::default_paper();
        p.backoff_stages = 32;
        assert!(p.validate().is_err());
        let mut p = Params::default_paper();
        p.max_retx = u32::MAX;
        assert!(p.validate().is_err());
        let mut p = Params::default_paper();
        p.mac_header_bits = u32::MAX;
        assert!(p.validate().is_err());
    }
}
