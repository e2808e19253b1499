//! Declarative session blueprints.
//!
//! A [`SessionSpec`] is everything the service needs to materialise a
//! recovery loop inside a shard thread: where commands come from, what
//! the network does to them, and how misses are covered. Specs are plain
//! data (plus a shared trained forecaster) so they can cross the control
//! channel into whichever shard the session hashes to.
//!
//! The expensive part of a FoReCo loop is the *trained* forecaster, so
//! specs don't train — they carry a [`SharedForecaster`], an `Arc` around
//! any trained [`Forecaster`]. Forecasting is `&self`, which is why one
//! VAR fitted once can serve thousands of concurrent sessions without
//! copies (the deployment shape of the paper's edge cloud, §V).

use crate::memo::ShardMemo;
use foreco_core::channel::{Channel, ControlledLossChannel, IdealChannel, JammedChannel};
use foreco_core::{RecoveryConfig, RecoveryEngine};
use foreco_forecast::{Forecaster, ForecasterState};
use foreco_robot::DriverConfig;
use foreco_store::{ModelHandle, ObjectId, Storage, StoreError, TraceHandle};
use foreco_teleop::Dataset;
use foreco_wifi::{DcfSolution, LinkConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Service-wide session identifier (also the shard-hash input).
pub type SessionId = u64;

/// A trained forecaster shared across sessions and shards.
///
/// [`SharedForecaster::register`] additionally files the model in a
/// `foreco-store` [`Storage`] under its content address, so a fleet
/// registering the same trained model N times still holds one resident
/// copy — every clone of the wrapper (one per session engine) carries a
/// store claim that keeps the model alive until the last session drops.
#[derive(Clone)]
pub struct SharedForecaster {
    inner: Arc<dyn Forecaster>,
    /// Store claim pinning the registered model (`None` for ad-hoc
    /// `new`-wrapped forecasters that bypass the store). Shared by
    /// every clone of the wrapper, so a session counts as one claim no
    /// matter how many copies of its wrapper it holds (engine box,
    /// spec).
    claim: Option<Arc<ModelHandle>>,
}

impl SharedForecaster {
    /// Wraps a trained forecaster for sharing.
    pub fn new<F: Forecaster + 'static>(forecaster: F) -> Self {
        Self {
            inner: Arc::new(forecaster),
            claim: None,
        }
    }

    /// Registers a trained forecaster in shared storage, deduplicating
    /// against any already-registered model with bit-identical
    /// parameters: the returned wrapper (and every clone of it) shares
    /// the resident model and claims it for as long as it lives.
    ///
    /// # Errors
    /// [`StoreError::UnsupportedModel`] when the forecaster exports no
    /// [`ForecasterState`] (seq2seq) and so cannot be content-addressed.
    pub fn register<F: Forecaster + 'static>(
        forecaster: F,
        store: &Storage,
    ) -> Result<Self, StoreError> {
        let claim = store.insert_model(Arc::new(forecaster))?;
        Ok(Self {
            inner: Arc::clone(claim.forecaster()),
            claim: Some(Arc::new(claim)),
        })
    }

    /// Wraps a resident store model, holding its claim: the restore
    /// path's entry point. N sessions restored around the same content
    /// address share one resident forecaster instead of N deep-built
    /// copies, and the claim keeps it alive until the last drops.
    pub fn from_handle(claim: ModelHandle) -> Self {
        Self {
            inner: Arc::clone(claim.forecaster()),
            claim: Some(Arc::new(claim)),
        }
    }

    /// The shared trained forecaster itself.
    pub fn shared(&self) -> Arc<dyn Forecaster> {
        Arc::clone(&self.inner)
    }

    /// The underlying forecaster's display name.
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// The model's content address in shared storage, when registered.
    pub fn store_id(&self) -> Option<ObjectId> {
        self.claim.as_ref().map(|claim| claim.id())
    }
}

impl std::fmt::Debug for SharedForecaster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedForecaster")
            .field("name", &self.inner.name())
            .field("store_id", &self.store_id())
            .finish()
    }
}

impl Forecaster for SharedForecaster {
    fn forecast_into(
        &self,
        history: &foreco_forecast::HistoryView<'_>,
        scratch: &mut foreco_forecast::ForecastScratch,
        out: &mut [f64],
    ) {
        self.inner.forecast_into(history, scratch, out)
    }

    fn history_len(&self) -> usize {
        self.inner.history_len()
    }

    fn dims(&self) -> usize {
        self.inner.dims()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn export_state(&self) -> Option<ForecasterState> {
        // Delegation matters: a session built around a SharedForecaster
        // must snapshot the *inner* trained model, not fall back to the
        // unsnapshotable default.
        self.inner.export_state()
    }
}

/// Where a session's operator commands come from.
#[derive(Debug, Clone)]
pub enum SourceSpec {
    /// Replay a pre-recorded command list, shared across sessions
    /// (thousands of sessions can replay one dataset with zero copies).
    /// Sessions on one shard that replay clones of one `Arc` on one arm
    /// also share one reference trajectory, computed once: the shard's
    /// memo keys it by the `Arc`'s identity and never hashes the rows,
    /// so an equal list in another `Arc` costs its own build.
    Replayed(Arc<Vec<Vec<f64>>>),
    /// Replay a trace claimed from a `foreco-store` [`Storage`]. Like
    /// [`SourceSpec::Replayed`] the rows are shared, but the claim also
    /// dedups across *independently built* specs (same content ⇒ same
    /// resident object) and keeps the trace evictable the moment the
    /// last session drops: the session holds the claim for its
    /// lifetime, acquired at build time, never on the tick path.
    Stored(TraceHandle),
    /// Commands arrive live through [`ServiceHandle::inject`]
    /// (`crate::ServiceHandle::inject`) into the session's bounded inbox;
    /// `initial` is the agreed start pose.
    ///
    /// A streamed session counts every tick with an empty inbox as a
    /// deadline miss, so live operation needs the service's virtual
    /// clock tied to wall time (`Pacing::RealTime` in the
    /// `ServiceConfig`) — under the default unpaced clock the shard
    /// spins virtual ticks as fast as the CPU allows and a real
    /// operator looks permanently silent. Unpaced streamed sessions
    /// are for tests that pre-fill the inbox.
    Streamed {
        /// Start pose both ends agree on before teleoperation.
        initial: Vec<f64>,
        /// Inbox capacity; overflow drops commands (loss events).
        inbox_capacity: usize,
    },
    /// Flow-controlled socket ingress (the `foreco-net` gateway's
    /// session shape): the wire carries one verdict per virtual tick
    /// slot — a command ([`ServiceHandle::try_inject`]
    /// (`crate::ServiceHandle::try_inject`)), an explicit loss
    /// (`inject_miss`), or a tickless §VII-C late patch (`inject_late`)
    /// — and the session's clock advances only as slots are consumed.
    /// An empty queue parks the session *without* a miss (no verdict is
    /// not a loss), so the interleaving of socket threads and shard
    /// clocks cannot change a single output: the same slot sequence is
    /// bit-identical whether it arrived over localhost UDP, a WAN, or an
    /// in-process loopback.
    ///
    /// Real-time behaviour comes from the *operator* pacing frames at
    /// 50 Hz, not from the shard clock; under `Pacing::Unpaced` a gated
    /// session simply consumes slots as fast as they arrive.
    Gated {
        /// Start pose both ends agree on before teleoperation.
        initial: Vec<f64>,
        /// Queued command-payload bound; at capacity a further command
        /// is dropped and a miss marker keeps the slot timeline aligned
        /// (the loss event the engine then forecasts over).
        inbox_capacity: usize,
    },
}

impl SourceSpec {
    /// Convenience: replay an already-recorded dataset.
    ///
    /// Copies the rows once per call (sessions built from clones of the
    /// returned spec still share that one `Arc`, and with it one
    /// reference trajectory per shard). When many specs are built
    /// independently over the same dataset, prefer
    /// [`SourceSpec::stored`] — the store dedups by content, so N specs
    /// cost one resident copy and one trajectory no matter how they
    /// were constructed.
    pub fn replay(dataset: &Dataset) -> Self {
        SourceSpec::Replayed(Arc::new(dataset.commands.clone()))
    }

    /// Replay a dataset through shared storage: the trace is filed under
    /// its content address (copied only if not already resident) and the
    /// spec carries a claim on it.
    pub fn stored(store: &Storage, dataset: &Dataset) -> Self {
        SourceSpec::Stored(store.insert_trace(&dataset.commands))
    }
}

/// The impairment model between operator and robot.
///
/// Serialisable so streamed-session snapshots can carry it: together
/// with the channel's raw RNG state it fully determines all future
/// fates, which is what lets a migrated session replay the exact same
/// loss pattern it would have seen on its original shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChannelSpec {
    /// Perfect network: every command on time.
    Ideal,
    /// Bursts of exactly `burst_len` consecutive losses, each command
    /// starting one with probability `burst_prob` (Fig. 9 setup).
    ControlledLoss {
        /// Consecutive losses per burst.
        burst_len: usize,
        /// Per-command burst start probability.
        burst_prob: f64,
        /// Channel RNG seed.
        seed: u64,
    },
    /// The full 802.11-with-interference link simulation (Figs. 8, 10).
    Jammed {
        /// Link and interference configuration.
        link: LinkConfig,
        /// Deadline tolerance `τ` in seconds.
        tolerance: f64,
        /// Link RNG seed.
        seed: u64,
    },
}

impl ChannelSpec {
    /// Everything the channel constructors behind `build` assert on, NaN
    /// included: a burst of at least one loss with a probability in
    /// `[0, 1]`, and a jammed link with a non-negative tolerance and a
    /// configuration [`LinkConfig::validate`] accepts. A spec decoded
    /// from a checkpoint is checked here before it is built.
    ///
    /// # Errors
    /// The first violated precondition, as text.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ChannelSpec::Ideal => Ok(()),
            ChannelSpec::ControlledLoss {
                burst_len,
                burst_prob,
                ..
            } => {
                if *burst_len == 0 {
                    return Err("controlled loss: burst length must be ≥ 1".into());
                }
                if !(0.0..=1.0).contains(burst_prob) {
                    return Err(format!(
                        "controlled loss: burst probability {burst_prob} is outside [0, 1]"
                    ));
                }
                Ok(())
            }
            ChannelSpec::Jammed {
                link, tolerance, ..
            } => {
                if tolerance.is_nan() || *tolerance < 0.0 {
                    return Err(format!("jammed link: tolerance {tolerance} must be ≥ 0"));
                }
                link.validate()
                    .map_err(|reason| format!("jammed link: {reason}"))
            }
        }
    }

    /// Materialises the channel. A jammed link takes its DCF solution
    /// from `memo`, and the solution comes back alongside the channel so
    /// a caller that drops the channel can still hold it.
    ///
    /// # Panics
    /// On a spec [`ChannelSpec::validate`] rejects.
    pub(crate) fn build(
        &self,
        memo: &mut ShardMemo,
    ) -> (Box<dyn Channel + Send>, Option<Arc<DcfSolution>>) {
        match self {
            ChannelSpec::Ideal => (Box::new(IdealChannel), None),
            ChannelSpec::ControlledLoss {
                burst_len,
                burst_prob,
                seed,
            } => (
                Box::new(ControlledLossChannel::new(*burst_len, *burst_prob, *seed)),
                None,
            ),
            ChannelSpec::Jammed {
                link,
                tolerance,
                seed,
            } => {
                let solution = memo.link_solution(link);
                let channel =
                    JammedChannel::with_solution(*link, Arc::clone(&solution), *tolerance, *seed);
                (Box::new(channel), Some(solution))
            }
        }
    }
}

/// How the session covers misses.
#[derive(Debug, Clone)]
pub enum RecoverySpec {
    /// Niryo stack behaviour: repeat the last command.
    Baseline,
    /// FoReCo around a shared trained forecaster.
    FoReCo {
        /// The trained forecaster (shared, not copied).
        forecaster: SharedForecaster,
        /// Engine knobs.
        config: RecoveryConfig,
    },
}

impl RecoverySpec {
    /// Materialises the per-session engine (FoReCo only).
    pub(crate) fn build(&self, initial: Vec<f64>) -> Option<RecoveryEngine> {
        match self {
            RecoverySpec::Baseline => None,
            RecoverySpec::FoReCo { forecaster, config } => Some(RecoveryEngine::new(
                Box::new(forecaster.clone()),
                config.clone(),
                initial,
            )),
        }
    }
}

/// Complete blueprint for one service-hosted recovery loop.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Service-wide identifier; also determines the owning shard.
    pub id: SessionId,
    /// Command source.
    pub source: SourceSpec,
    /// Network impairment model.
    pub channel: ChannelSpec,
    /// Miss-recovery mode.
    pub recovery: RecoverySpec,
    /// Robot driver configuration (period `Ω`, PID gains).
    pub driver: DriverConfig,
}

impl SessionSpec {
    /// A spec with the default 50 Hz Niryo driver.
    pub fn new(
        id: SessionId,
        source: SourceSpec,
        channel: ChannelSpec,
        recovery: RecoverySpec,
    ) -> Self {
        Self {
            id,
            source,
            channel,
            recovery,
            driver: DriverConfig::default(),
        }
    }
}
