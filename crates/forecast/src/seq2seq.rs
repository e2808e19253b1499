//! The seq2seq forecaster (paper §IV-B, eqs. 6–7) behind the common
//! [`Forecaster`] trait.
//!
//! Wraps `foreco-nn`'s encoder–decoder LSTM. The paper reports that with
//! `|w| = 163 803` weights the model "did not converge to an optimal
//! solution" and loses to both VAR and MA (Fig. 7) — reproduced here: the
//! default paper-scale architecture under a realistic training budget
//! underfits relative to VAR.
//!
//! Its `forecast_into` allocates on every call (the network consumes
//! owned rows and builds its activations afresh), the one family that
//! does. It is never served; `hot_path_allocs` and this crate's
//! `kernel_allocs` test hold the served families to zero.

use crate::Forecaster;
use foreco_nn::{Seq2Seq, Seq2SeqConfig, TrainReport};
use foreco_teleop::Dataset;
use serde::{Deserialize, Serialize};

/// Training-budget knobs for [`Seq2SeqForecaster::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Seq2SeqTrainConfig {
    /// Model architecture (paper defaults: 200/30 ReLU).
    pub model: Seq2SeqConfig,
    /// History length `R`.
    pub r: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Keep every `subsample`-th training window (1 = all). The paper
    /// trains on 150k windows; subsampling keeps tests tractable.
    pub subsample: usize,
    /// RNG seed for weight initialisation.
    pub seed: u64,
}

impl Default for Seq2SeqTrainConfig {
    fn default() -> Self {
        Self {
            model: Seq2SeqConfig::default(),
            r: 5,
            epochs: 3,
            subsample: 1,
            seed: 0,
        }
    }
}

/// A trained seq2seq forecaster.
pub struct Seq2SeqForecaster {
    model: Seq2Seq,
    r: usize,
    dims: usize,
    report: TrainReport,
}

impl Seq2SeqForecaster {
    /// Trains on every (subsampled) window of `train`.
    ///
    /// # Panics
    /// Panics if the dataset yields no training windows or `r == 0`.
    pub fn fit(train: &Dataset, cfg: &Seq2SeqTrainConfig) -> Self {
        assert!(cfg.r >= 1, "seq2seq: R must be ≥ 1");
        assert!(cfg.subsample >= 1, "seq2seq: subsample must be ≥ 1");
        let dims = train.dof();
        let mut model_cfg = cfg.model.clone();
        model_cfg.input_dim = dims;
        let mut samples: Vec<(Vec<Vec<f64>>, Vec<f64>)> = Vec::new();
        for (i, (hist, target)) in train.windows(cfg.r).enumerate() {
            if i % cfg.subsample == 0 {
                samples.push((hist.to_vec(), target.clone()));
            }
        }
        assert!(!samples.is_empty(), "seq2seq: no training windows");
        let mut model = Seq2Seq::new(&model_cfg, cfg.seed);
        let report = model.train(&samples, cfg.epochs);
        Self {
            model,
            r: cfg.r,
            dims,
            report,
        }
    }

    /// Per-epoch training losses.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// Total trainable weights.
    pub fn num_params(&self) -> usize {
        self.model.num_params()
    }
}

impl Forecaster for Seq2SeqForecaster {
    /// The network consumes owned rows, so this family materialises its
    /// window; it is never served, so no hot path pays for that.
    fn forecast_into(
        &self,
        history: &crate::HistoryView<'_>,
        _scratch: &mut crate::ForecastScratch,
        out: &mut [f64],
    ) {
        assert!(
            history.len() >= self.r,
            "seq2seq: need {} commands, got {}",
            self.r,
            history.len()
        );
        assert_eq!(history.dims(), self.dims, "seq2seq: dimension mismatch");
        out.copy_from_slice(&self.model.predict(&history.suffix(self.r).to_rows()));
    }

    fn history_len(&self) -> usize {
        self.r
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn name(&self) -> &'static str {
        "seq2seq"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foreco_nn::{Activation, AdamConfig};
    use foreco_teleop::Skill;

    fn tiny_cfg() -> Seq2SeqTrainConfig {
        Seq2SeqTrainConfig {
            model: Seq2SeqConfig {
                input_dim: 6,
                encoder_hidden: 16,
                decoder_hidden: 8,
                activation: Activation::Tanh,
                adam: AdamConfig::default(),
                batch_size: 32,
            },
            r: 4,
            epochs: 2,
            subsample: 8,
            seed: 5,
        }
    }

    #[test]
    fn trains_and_predicts_shapes() {
        let train = Dataset::record(Skill::Experienced, 1, 0.02, 3);
        let f = Seq2SeqForecaster::fit(&train, &tiny_cfg());
        let hist = train.commands[..10].to_vec();
        let pred = f.forecast(&hist);
        assert_eq!(pred.len(), 6);
        assert!(pred.iter().all(|v| v.is_finite()));
        assert_eq!(f.history_len(), 4);
    }

    #[test]
    fn training_loss_decreases() {
        let train = Dataset::record(Skill::Experienced, 1, 0.02, 4);
        let mut cfg = tiny_cfg();
        cfg.epochs = 5;
        let f = Seq2SeqForecaster::fit(&train, &cfg);
        let losses = &f.report().epoch_losses;
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss went {losses:?}"
        );
    }

    /// The paper's headline negative result: at a practical training
    /// budget, seq2seq loses to VAR on the teleop data.
    #[test]
    fn underperforms_var_like_the_paper() {
        let train = Dataset::record(Skill::Experienced, 2, 0.02, 6);
        let test = Dataset::record(Skill::Inexperienced, 1, 0.02, 60);
        let s2s = Seq2SeqForecaster::fit(&train, &tiny_cfg());
        let var = crate::Var::fit(&train, 4, 1e-6).unwrap();
        let s2s_rmse = crate::one_step_rmse(&s2s, &test);
        let var_rmse = crate::one_step_rmse(&var, &test);
        assert!(
            s2s_rmse > var_rmse,
            "seq2seq {s2s_rmse} unexpectedly beat VAR {var_rmse}"
        );
    }
}
