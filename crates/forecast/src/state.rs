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
//!
//! # Canonical binary form
//!
//! [`ForecasterState::encode_into`] writes the one binary encoding of a
//! state through the shared [`crate::codec`] primitives (the same ones
//! session frames and fleet archives use): a family tag byte, then the
//! family's dimensions as `u64` words and every `f64` as its raw
//! [`f64::to_bits`] word, all little endian. It is bit-lossless by
//! construction (`-0.0` and NaN payloads included) and runs no float
//! formatter. The same bytes are the
//! store's content address ([`ForecasterState::canonical_bytes`]) and
//! the forecaster field of a session snapshot frame.
//!
//! | tag | family | body |
//! |---|---|---|
//! | 0 | MA | `r`, `dims` |
//! | 1 | Holt | `r`, `dims`, `alpha`, `beta` |
//! | 2 | Kalman-CV | `r`, `dims`, `period`, `process_noise`, `measurement_noise` |
//! | 3 | VAR | `r`, `dims`, mode byte, coefficient matrix, optional diff clamp |
//! | 4 | VARMA | `r`, `q`, `dims`, stage-1 VAR body, stage-2 matrix |
//!
//! A matrix is `rows`, `cols`, then `rows × cols` words row-major; an
//! optional `f64` is a presence byte and the word. Decoding
//! ([`ForecasterState::from_canonical_bytes`]) never panics: counts are
//! overflow-checked and capped against the remaining bytes before they
//! allocate, trailing bytes are rejected, and every malformed shape is a
//! typed [`StateCodecError`], the shared cursor's one error type.
//! Decoding checks structure only; [`ForecasterState::validate`] checks
//! what each family's constructor guarantees.

use crate::codec::{put_f64, put_opt_f64, put_u8, put_usize, Reader, StateCodecError};
use crate::{Forecaster, Holt, KalmanCv, MovingAverage, Var, VarMode, Varma};
use foreco_linalg::Matrix;
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
    /// *addressed by* in shared storage: the binary form of
    /// [`ForecasterState::encode_into`] (see the module docs).
    ///
    /// Two models have the same canonical bytes iff they are the same
    /// forecaster family with bit-identical parameters (every `f64`
    /// travels as its raw bit pattern, so `-0.0` ≠ `+0.0` and distinct
    /// NaN payloads differ), which by the purity contract above means
    /// bit-identical forecasts.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the canonical binary form (see the module docs) to `buf`,
    /// which is not cleared. Into a buffer with room to spare it
    /// allocates nothing.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            ForecasterState::Ma(f) => {
                put_u8(buf, TAG_MA);
                put_usize(buf, f.r);
                put_usize(buf, f.dims);
            }
            ForecasterState::Holt(f) => {
                put_u8(buf, TAG_HOLT);
                put_usize(buf, f.r);
                put_usize(buf, f.dims);
                put_f64(buf, f.alpha);
                put_f64(buf, f.beta);
            }
            ForecasterState::Kalman(f) => {
                put_u8(buf, TAG_KALMAN);
                put_usize(buf, f.r);
                put_usize(buf, f.dims);
                put_f64(buf, f.period);
                put_f64(buf, f.process_noise);
                put_f64(buf, f.measurement_noise);
            }
            ForecasterState::Var(f) => {
                put_u8(buf, TAG_VAR);
                put_var(buf, f);
            }
            ForecasterState::Varma(f) => {
                put_u8(buf, TAG_VARMA);
                put_usize(buf, f.r);
                put_usize(buf, f.q);
                put_usize(buf, f.dims);
                put_var(buf, &f.stage1);
                put_matrix(buf, &f.beta);
            }
        }
    }

    /// Decodes exactly one canonical binary form, the inverse of
    /// [`ForecasterState::encode_into`]. The result is structurally
    /// sound (every matrix holds `rows × cols` values) but not
    /// validated: call [`ForecasterState::validate`] before building it.
    ///
    /// # Errors
    /// A typed [`StateCodecError`] for every malformed shape — never a
    /// panic.
    pub fn from_canonical_bytes(bytes: &[u8]) -> Result<Self, StateCodecError> {
        let mut r = Reader::new(bytes);
        let state = match r.u8()? {
            TAG_MA => ForecasterState::Ma(MovingAverage {
                r: r.usize("MA window")?,
                dims: r.usize("MA dims")?,
            }),
            TAG_HOLT => ForecasterState::Holt(Holt {
                r: r.usize("Holt window")?,
                dims: r.usize("Holt dims")?,
                alpha: r.f64()?,
                beta: r.f64()?,
            }),
            TAG_KALMAN => ForecasterState::Kalman(KalmanCv {
                r: r.usize("Kalman window")?,
                dims: r.usize("Kalman dims")?,
                period: r.f64()?,
                process_noise: r.f64()?,
                measurement_noise: r.f64()?,
            }),
            TAG_VAR => ForecasterState::Var(read_var(&mut r)?),
            TAG_VARMA => ForecasterState::Varma(Varma {
                r: r.usize("VARMA AR order")?,
                q: r.usize("VARMA MA order")?,
                dims: r.usize("VARMA dims")?,
                stage1: read_var(&mut r)?,
                beta: read_matrix(&mut r)?,
            }),
            found => {
                return Err(StateCodecError::BadTag {
                    what: "forecaster family",
                    found,
                })
            }
        };
        if r.remaining() != 0 {
            return Err(StateCodecError::TrailingBytes {
                expect: r.pos(),
                got: bytes.len(),
            });
        }
        Ok(state)
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

const TAG_MA: u8 = 0;
const TAG_HOLT: u8 = 1;
const TAG_KALMAN: u8 = 2;
const TAG_VAR: u8 = 3;
const TAG_VARMA: u8 = 4;

fn put_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    put_usize(buf, m.rows());
    put_usize(buf, m.cols());
    for &v in m.as_slice() {
        put_f64(buf, v);
    }
}

/// A VAR's body: shared by the VAR family and VARMA's stage 1.
fn put_var(buf: &mut Vec<u8>, var: &Var) {
    put_usize(buf, var.r);
    put_usize(buf, var.dims);
    put_u8(
        buf,
        match var.mode {
            VarMode::Levels => 0,
            VarMode::Differences => 1,
        },
    );
    put_matrix(buf, &var.beta);
    put_opt_f64(buf, var.diff_clamp);
}

/// `rows × cols` words, the product overflow-checked and capped against
/// the remaining bytes before anything is allocated, so the matrix built
/// always holds exactly its shape.
fn read_matrix(r: &mut Reader<'_>) -> Result<Matrix, StateCodecError> {
    let rows = r.usize("matrix rows")?;
    let cols = r.usize("matrix cols")?;
    let limit = (r.remaining() / 8) as u64;
    let n = rows
        .checked_mul(cols)
        .filter(|&n| n as u64 <= limit)
        .ok_or(StateCodecError::Oversized {
            what: "matrix data",
            declared: (rows as u64).saturating_mul(cols as u64),
            limit,
        })?;
    let data = r
        .take(n * 8)?
        .chunks_exact(8)
        .map(|w| f64::from_bits(u64::from_le_bytes(w.try_into().expect("8"))))
        .collect();
    Ok(Matrix::from_vec(rows, cols, data))
}

fn read_var(r: &mut Reader<'_>) -> Result<Var, StateCodecError> {
    Ok(Var {
        r: r.usize("VAR order")?,
        dims: r.usize("VAR dims")?,
        mode: match r.u8()? {
            0 => VarMode::Levels,
            1 => VarMode::Differences,
            found => {
                return Err(StateCodecError::BadTag {
                    what: "VAR mode",
                    found,
                })
            }
        },
        beta: read_matrix(r)?,
        diff_clamp: r.opt("VAR diff clamp", Reader::f64)?,
    })
}

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

    #[test]
    fn canonical_bytes_round_trip_and_reject_malformed_shapes() {
        let beta = Matrix::from_fn(5, 2, |i, j| (i * 2 + j) as f64 * -0.25);
        let var = Var::from_coefficients(2, 2, beta);
        let states = [
            ForecasterState::Ma(MovingAverage::new(5, 2)),
            ForecasterState::Holt(Holt::default_teleop(5, 2)),
            ForecasterState::Kalman(KalmanCv::default_teleop(8, 2)),
            ForecasterState::Var(var),
        ];
        for state in &states {
            let bytes = state.canonical_bytes();
            let back = ForecasterState::from_canonical_bytes(&bytes).expect("decodes");
            assert_eq!(&back, state);
            assert_eq!(back.canonical_bytes(), bytes, "{}", state.name());
            for cut in 0..bytes.len() {
                assert!(matches!(
                    ForecasterState::from_canonical_bytes(&bytes[..cut]),
                    Err(StateCodecError::Truncated { .. } | StateCodecError::Oversized { .. })
                ));
            }
            let mut long = bytes.clone();
            long.push(0);
            assert!(matches!(
                ForecasterState::from_canonical_bytes(&long),
                Err(StateCodecError::TrailingBytes { .. })
            ));
        }
        let mut bytes = states[3].canonical_bytes();
        // Tag, r, dims, mode: the matrix's row word starts at byte 18.
        bytes[18..26].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ForecasterState::from_canonical_bytes(&bytes),
            Err(StateCodecError::Oversized { .. })
        ));
        bytes[17] = 2;
        assert_eq!(
            ForecasterState::from_canonical_bytes(&bytes),
            Err(StateCodecError::BadTag {
                what: "VAR mode",
                found: 2
            })
        );
        assert!(matches!(
            ForecasterState::from_canonical_bytes(&[9]),
            Err(StateCodecError::BadTag { found: 9, .. })
        ));
    }
}
