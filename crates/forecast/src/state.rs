//! Serialisable forecaster state for session snapshots.
//!
//! A [`crate::Forecaster`] inside a live recovery engine is a boxed
//! trait object; to checkpoint a session to bytes the service needs a
//! concrete, versionable description of it that can be rebuilt on
//! another shard or in another process. [`ForecasterState`] is that
//! description: an externally-tagged enum over the in-tree forecaster
//! types, each of which is plain data (windows, smoothing factors,
//! trained coefficient matrices).
//!
//! Every forecaster here is a *pure function* of the history window the
//! engine feeds it — the per-session mutable state lives in the engine's
//! history, not in the forecaster — so rebuilding from state yields
//! bit-identical forecasts, which is what the snapshot/restore
//! determinism suite pins.
//!
//! [`Seq2SeqForecaster`](crate::Seq2SeqForecaster) is deliberately
//! absent: its weight tensors are orders of magnitude larger than the
//! rest of a snapshot and it is not deployed by the service runtime.
//! Engines wrapping it report
//! `Forecaster::export_state() == None` and snapshotting such a session
//! fails with an explicit error instead of silently dropping state.

use crate::{Forecaster, Holt, KalmanCv, MovingAverage, Var, Varma};
use serde::{Deserialize, Serialize};

/// Concrete, serialisable form of a deployed forecaster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ForecasterState {
    /// Moving average (eq. 8 benchmark).
    Ma(MovingAverage),
    /// Holt double exponential smoothing (§VII-C).
    Holt(Holt),
    /// Constant-velocity Kalman filter (related-work baseline).
    Kalman(KalmanCv),
    /// Trained VAR — the paper's winner (eq. 5).
    Var(Var),
    /// Trained VARMA (§VII-C, Hannan–Rissanen).
    Varma(Varma),
}

impl ForecasterState {
    /// Rebuilds a boxed forecaster producing bit-identical forecasts to
    /// the one this state was exported from.
    pub fn build(&self) -> Box<dyn Forecaster> {
        match self {
            ForecasterState::Ma(f) => Box::new(f.clone()),
            ForecasterState::Holt(f) => Box::new(*f),
            ForecasterState::Kalman(f) => Box::new(*f),
            ForecasterState::Var(f) => Box::new(f.clone()),
            ForecasterState::Varma(f) => Box::new(f.clone()),
        }
    }

    /// Checks what each family's constructor (or fit) guarantees, plus
    /// finite parameters. State decoded from bytes bypasses those
    /// checks, and a violation would index out of bounds or feed NaN
    /// forecasts to the engine's clamps on the tick path.
    ///
    /// # Errors
    /// The first violated precondition, as text.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ForecasterState::Ma(f) => f.validate(),
            ForecasterState::Holt(f) => f.validate(),
            ForecasterState::Kalman(f) => f.validate(),
            ForecasterState::Var(f) => f.validate(),
            ForecasterState::Varma(f) => f.validate(),
        }
    }

    /// The canonical bytes of this state — the content a model is
    /// *addressed by* in shared storage and dedup-aware archives.
    ///
    /// Two models have the same canonical bytes iff they are the same
    /// forecaster family with bit-identical parameters (the JSON codec
    /// round-trips every `f64` bit pattern, `-0.0` and NaNs included),
    /// which by the purity contract above means bit-identical forecasts.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("forecaster state serialization is infallible")
            .into_bytes()
    }

    /// Display name of the wrapped forecaster.
    pub fn name(&self) -> &'static str {
        match self {
            ForecasterState::Ma(_) => "MA",
            ForecasterState::Holt(_) => "Holt",
            ForecasterState::Kalman(_) => "Kalman-CV",
            ForecasterState::Var(_) => "VAR",
            ForecasterState::Varma(_) => "VARMA",
        }
    }
}

/// Upper bound on a window-parameterised family's `R` (MA, Holt,
/// Kalman-CV). The engine sizes its command ring as `(R + 1) × dims` at
/// build and restore, so an uncapped `R` from snapshot bytes could
/// overflow that sum or abort the process on allocation. Far above any
/// window the paper or this repository deploys (at most 20).
pub(crate) const MAX_WINDOW: usize = 4096;

/// `Ok` when `ok`, otherwise `what` as the error.
pub(crate) fn require(ok: bool, what: impl Into<String>) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_forecasts() {
        let hist: Vec<Vec<f64>> = (0..12).map(|i| vec![0.01 * i as f64, -0.5]).collect();
        let states = [
            ForecasterState::Ma(MovingAverage::new(5, 2)),
            ForecasterState::Holt(Holt::default_teleop(5, 2)),
            ForecasterState::Kalman(KalmanCv::default_teleop(8, 2)),
        ];
        for state in &states {
            let json = serde_json::to_string(state).unwrap();
            let back: ForecasterState = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, state);
            let a = state.build().forecast(&hist);
            let b = back.build().forecast(&hist);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "{} drifted", state.name());
        }
    }
}
