//! `Forecaster::forecast_into` must be **bit-identical** to the
//! test-tree oracle (`oracle/mod.rs`, a naive `Vec<Vec<f64>>` reference
//! per family, independent of the library's kernels) for every
//! forecaster family — the contract the recovery engine's
//! zero-allocation hot path rests on (and what lets the service
//! determinism suites pass unchanged).
//!
//! Random histories include NaN and `-0.0` payloads: NaN propagation
//! exercises operation *order* (any reordering shows up as different
//! NaN spread), and `-0.0` probes the zero-skipping fast paths of the
//! VAR regression (`-0.0 == 0.0`, so both paths must skip it alike).
//! Every history is additionally presented to `forecast_into` at every
//! ring split point, pinning the two-run `HistoryView` seam logic.
//!
//! Run with a pinned case count for reproducibility:
//! `PROPTEST_CASES=64 cargo test -p foreco-forecast --test forecast_into`

use foreco_forecast::{
    ForecastScratch, Forecaster, HistoryView, Holt, KalmanCv, MovingAverage, Seq2SeqForecaster,
    Seq2SeqTrainConfig, Var, Varma,
};
use foreco_teleop::{Dataset, Skill};
use proptest::prelude::*;

mod oracle;

/// One random coordinate: mostly tame magnitudes, with NaN, signed
/// zeros, and subnormal extremes mixed in at a fixed rate.
fn coord() -> impl Strategy<Value = f64> {
    (0u64..1 << 32).prop_map(|n| match n % 24 {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => 1e-308,
        4 => -37.5,
        _ => (n >> 5) as f64 / (1u64 << 27) as f64 * 4.0 - 2.0,
    })
}

fn history(len: usize, dims: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(coord(), dims), len)
}

/// Asserts `forecast_into == oracle::forecast` bit for bit, at every
/// possible head/tail split of the flattened history.
fn assert_bit_identical(f: &dyn Forecaster, hist: &[Vec<f64>]) {
    let dims = f.dims();
    let legacy = oracle::forecast(f, hist);
    assert_eq!(legacy.len(), dims);
    let flat: Vec<f64> = hist.iter().flatten().copied().collect();
    let mut scratch = ForecastScratch::new();
    let mut out = vec![0.0; dims];
    for cut in 0..=hist.len() {
        let view = HistoryView::new(&flat[..cut * dims], &flat[cut * dims..], dims);
        // Poison the output buffer: every element must be overwritten.
        out.fill(f64::MIN_POSITIVE);
        f.forecast_into(&view, &mut scratch, &mut out);
        for (k, (a, b)) in out.iter().zip(&legacy).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: joint {k} differs at split {cut} ({a} vs {b})",
                f.name(),
            );
        }
    }
}

fn trained_var_pair() -> (Var, Var, Varma) {
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
    (
        Var::fit(&train, 4, 1e-6).expect("levels VAR"),
        Var::fit_differenced(&train, 4, 1e-6).expect("differenced VAR"),
        Varma::fit(&train, 3, 2, 1e-6).expect("VARMA"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::env_or(48))]

    /// The training-free families at their natural 6-DoF shape.
    #[test]
    fn closed_form_families_are_bit_identical(hist in history(9, 6)) {
        let forecasters: Vec<Box<dyn Forecaster>> = vec![
            Box::new(MovingAverage::new(5, 6)),
            Box::new(MovingAverage::new(1, 6)), // repeat-last degenerate
            Box::new(Holt::default_teleop(6, 6)),
            Box::new(KalmanCv::default_teleop(7, 6)),
        ];
        for f in &forecasters {
            assert_bit_identical(f.as_ref(), &hist);
        }
    }

    /// The trained families: levels VAR (zero-skip regression), the
    /// deployed differenced VAR (scratch-built diff rows, clamping),
    /// and VARMA (stage-1 residual rebuild in scratch).
    #[test]
    fn trained_families_are_bit_identical(hist in history(8, 6)) {
        let (levels, diff, varma) = trained_var_pair();
        assert_bit_identical(&levels, &hist);
        assert_bit_identical(&diff, &hist);
        assert_bit_identical(&varma, &hist);
    }
}

/// Seq2seq has no exportable state, so the oracle falls back to its own
/// `forecast`: this pins that its `forecast_into` (which materialises
/// the window for the network) agrees with that provided wrapper at
/// every split, once on a tiny trained net rather than under proptest
/// (training dominates).
#[test]
fn seq2seq_shim_is_bit_identical() {
    use foreco_nn::{Activation, AdamConfig, Seq2SeqConfig};
    let train = Dataset::record(Skill::Experienced, 1, 0.02, 3).head(160);
    let cfg = Seq2SeqTrainConfig {
        model: Seq2SeqConfig {
            input_dim: 6,
            encoder_hidden: 8,
            decoder_hidden: 4,
            activation: Activation::Tanh,
            adam: AdamConfig::default(),
            batch_size: 32,
        },
        r: 4,
        epochs: 1,
        subsample: 8,
        seed: 5,
    };
    let s2s = Seq2SeqForecaster::fit(&train, &cfg);
    let hist: Vec<Vec<f64>> = (0..6)
        .map(|i| (0..6).map(|k| 0.01 * i as f64 - 0.005 * k as f64).collect())
        .collect();
    assert_bit_identical(&s2s, &hist);
}
