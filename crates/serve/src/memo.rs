//! One shard's memo of what sessions derive from shared inputs alone.
//!
//! Three things a session computes at open or restore are pure functions
//! of data a whole fleet shares. A jammed link's DCF solution depends only
//! on its [`LinkConfig`] (the seed only seeds the sampler), a scripted
//! session's perfect-channel reference trajectory only on the script, the
//! arm model and the driver configuration, and which stored model a
//! restored forecaster state resolves to only on that state. A batch of
//! 64 sessions on one link cell and one script would otherwise solve the
//! chain 64 times and tick a second driver in every session, and an
//! adopted fleet on one model would build, export and hash the weights
//! once per part. [`ShardMemo`] hands each result out once per shard for
//! as long as a session uses it, and it is the only cache of any of them:
//!
//! - sessions hold the strong `Arc`s and the memo only `Weak`s, pruned on
//!   insert, so nothing stays resident after the last session that uses
//!   it drops;
//! - a DCF solution is keyed by the configuration's raw words — the bytes
//!   a snapshot frame writes for it — so `-0.0` and `+0.0` are different
//!   configurations;
//! - a trajectory is keyed by the identity of the script's `Arc` plus the
//!   arm-model and driver-config bits. A replayed script's `Arc` is the
//!   spec's; a stored trace's is the one its store owns, which stays put
//!   while any claim on the trace lives, so every session on one resident
//!   trace shares one key. The entry keeps a `Weak` of the script, so the
//!   address cannot be reused while the key names it, and no row is ever
//!   hashed;
//! - a model is keyed by the restored state's exact canonical bytes,
//!   encoded into one reusable buffer and never normalised (`-0.0` and
//!   `+0.0` weights are different models). The entry holds the store id
//!   the state resolved to and a `Weak` of the resident forecaster. It is
//!   consulted only at restore (an open's forecaster is already shared):
//!   a hit claims the model from the store by id and skips validation,
//!   the build, the export and the hash, because the bytes equal a state
//!   this shard already validated.
//!
//! A memo belongs to one shard's runtime: no lock, no process-global
//! state. Entries that open or restore a session outside a shard run with
//! a throwaway one. The memo counts what it computes, so the shard can
//! publish its `link_solves`, `reference_builds` and `model_builds` rows.

use crate::snapshot::put_link;
use foreco_forecast::{Forecaster, ForecasterState};
use foreco_store::{ModelHandle, ObjectId, Storage};
use foreco_wifi::{DcfSolution, LinkConfig, WirelessLink};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// A shared reference trajectory: positions in tick order.
pub(crate) type Points = Arc<[[f64; 3]]>;

/// Trajectory key: script address, arm-model bits, driver-config bits.
type TrajectoryKey = (usize, Vec<u64>, [u64; 4]);

/// A memoised trajectory, alive while some session holds its pin.
struct TrajectoryEntry {
    /// Keeps the script's address from being reused while keyed.
    _script: Weak<Vec<Vec<f64>>>,
    /// The sessions' pin. A `Weak` of the pin, not of the points, so a
    /// dead entry keeps no trajectory-sized allocation resident.
    pin: Weak<Points>,
}

/// A memoised model resolve, alive while some session holds the model.
struct ModelEntry {
    /// The store object the state resolved to.
    id: ObjectId,
    /// The resident forecaster, so a dead entry is known without asking
    /// the store.
    forecaster: Weak<dyn Forecaster>,
}

/// What the memo computed since the last [`ShardMemo::take_counts`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoCounts {
    /// DCF solves.
    pub(crate) link_solves: u64,
    /// Trajectory builds.
    pub(crate) reference_builds: u64,
    /// Forecaster builds to resolve a restored model.
    pub(crate) model_builds: u64,
}

/// See the module docs.
#[derive(Default)]
pub(crate) struct ShardMemo {
    solutions: HashMap<Vec<u8>, Weak<DcfSolution>>,
    trajectories: HashMap<TrajectoryKey, TrajectoryEntry>,
    models: HashMap<Vec<u8>, ModelEntry>,
    /// Reusable key buffer for [`ShardMemo::model`].
    model_key: Vec<u8>,
    counts: MemoCounts,
}

impl ShardMemo {
    /// The DCF solution of `cfg`, solved here unless a live session on
    /// the same configuration already holds it.
    ///
    /// # Panics
    /// On a configuration [`LinkConfig::validate`] rejects.
    pub(crate) fn link_solution(&mut self, cfg: &LinkConfig) -> Arc<DcfSolution> {
        let mut key = Vec::new();
        put_link(&mut key, cfg);
        if let Some(solution) = self.solutions.get(&key).and_then(Weak::upgrade) {
            return solution;
        }
        let solution = Arc::new(WirelessLink::solve(cfg));
        self.counts.link_solves += 1;
        self.solutions.retain(|_, entry| entry.strong_count() > 0);
        self.solutions.insert(key, Arc::downgrade(&solution));
        solution
    }

    /// The reference trajectory of `script` under the arm and driver
    /// whose bits are given, built here by `build` unless a live session
    /// already holds it. Holding the returned pin keeps it shared.
    ///
    /// `build` may refuse the rows; then nothing is memoised. A pin
    /// handed out from the memo skips `build` altogether, so rows that
    /// `build` checks are checked once per shard, not once per session.
    pub(crate) fn trajectory<E>(
        &mut self,
        script: &Arc<Vec<Vec<f64>>>,
        model_bits: Vec<u64>,
        config_bits: [u64; 4],
        build: impl FnOnce(&[Vec<f64>]) -> Result<Vec<[f64; 3]>, E>,
    ) -> Result<Arc<Points>, E> {
        let key = (Arc::as_ptr(script) as usize, model_bits, config_bits);
        if let Some(pin) = self.trajectories.get(&key).and_then(|e| e.pin.upgrade()) {
            return Ok(pin);
        }
        let pin = Arc::new(Points::from(build(script)?));
        self.counts.reference_builds += 1;
        self.trajectories
            .retain(|_, entry| entry.pin.strong_count() > 0);
        self.trajectories.insert(
            key,
            TrajectoryEntry {
                _script: Arc::downgrade(script),
                pin: Arc::downgrade(&pin),
            },
        );
        Ok(pin)
    }

    /// A claim on the stored model `state` describes. Unless a live
    /// session already holds the model these exact bytes resolved to,
    /// the state is validated, built and registered in `store` here,
    /// and the resolve remembered.
    ///
    /// `Ok(None)` when the store cannot address the built forecaster;
    /// nothing is memoised then.
    ///
    /// # Errors
    /// The first precondition [`ForecasterState::validate`] finds
    /// violated.
    pub(crate) fn model(
        &mut self,
        state: &ForecasterState,
        store: &Storage,
    ) -> Result<Option<ModelHandle>, String> {
        self.model_key.clear();
        state.encode_into(&mut self.model_key);
        if let Some(entry) = self.models.get(self.model_key.as_slice()) {
            if entry.forecaster.strong_count() > 0 {
                if let Some(claim) = store.get_model(entry.id) {
                    return Ok(Some(claim));
                }
            }
        }
        state.validate()?;
        self.counts.model_builds += 1;
        let Ok(claim) = store.insert_model(Arc::from(state.build())) else {
            return Ok(None);
        };
        self.models
            .retain(|_, entry| entry.forecaster.strong_count() > 0);
        self.models.insert(
            self.model_key.clone(),
            ModelEntry {
                id: claim.id(),
                forecaster: Arc::downgrade(claim.forecaster()),
            },
        );
        Ok(Some(claim))
    }

    /// What the memo computed since the last call, reset.
    pub(crate) fn take_counts(&mut self) -> MemoCounts {
        std::mem::take(&mut self.counts)
    }
}
