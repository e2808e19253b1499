//! One shard's memo of what sessions derive from shared inputs alone.
//!
//! Three things a session acquires at open or restore are pure functions
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
//!   insert, so no result outlives the last session that uses it (the
//!   block a dead `Weak` names is freed at that prune);
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
//! - a trajectory starts at a row: the positions after that row and every
//!   later one (an open asks for row 0, a restore for its tick). The rows
//!   before it only advance the building driver's state, with no forward
//!   kinematics: FK never feeds back into that state, so the positions
//!   are a full build's tail bit for bit. A lookup hits only when
//!   the live entry starts at or before the requested row. A miss while a
//!   live entry starts later makes an entry from row 0 and replaces the
//!   old one, so a script costs at most two builds per shard while any of
//!   its sessions lives;
//! - a trajectory is built by the first tick that reads it, not by the
//!   open or restore that makes its entry: a [`Reference`] holds what the
//!   build needs (rows, start row, arm, driver configuration) and fills
//!   its positions once, behind a `OnceLock`, so a restored fleet is
//!   ready before its trajectories are computed. Sessions on other shards
//!   that hold the same entry (after a migration) read the one block the
//!   first reader filled;
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
//! publish its `link_solves`, `reference_builds`, `reference_rows` and
//! `model_builds` rows; a trajectory is counted, with the rows it
//! covers, when its entry is made, never on the tick that fills it.

use crate::session::reference_trajectory;
use crate::snapshot::put_link;
use foreco_forecast::{Forecaster, ForecasterState};
use foreco_robot::{ArmModel, DriverConfig};
use foreco_store::{ModelHandle, ObjectId, Storage};
use foreco_wifi::{DcfSolution, LinkConfig, WirelessLink};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};

/// A shared reference trajectory: the positions a driver reaches after
/// each row of a script from its first row on, built the first time a
/// tick reads one.
pub(crate) struct Reference {
    rows: Arc<Vec<Vec<f64>>>,
    /// The row the positions start at.
    first: usize,
    model: ArmModel,
    cfg: DriverConfig,
    positions: OnceLock<Box<[[f64; 3]]>>,
}

impl Reference {
    /// The reference position after `row`, which must be the first row
    /// or a later one. The first read builds every position (one
    /// allocation); later reads are one acquire load and a branch.
    #[inline]
    pub(crate) fn at(&self, row: usize) -> [f64; 3] {
        let positions = self.positions.get_or_init(|| {
            reference_trajectory(&self.rows, self.first, &self.model, self.cfg).into_boxed_slice()
        });
        positions[row - self.first]
    }

    /// The row the positions start at.
    #[cfg(test)]
    pub(crate) fn first(&self) -> usize {
        self.first
    }

    /// The positions, if a read has built them.
    #[cfg(test)]
    pub(crate) fn built(&self) -> Option<&[[f64; 3]]> {
        self.positions.get().map(|positions| &positions[..])
    }
}

/// Trajectory key: script address, arm-model bits, driver-config bits.
type TrajectoryKey = (usize, Vec<u64>, [u64; 4]);

/// A memoised trajectory, alive while some session holds its reference.
struct TrajectoryEntry {
    /// Keeps the script's address from being reused while keyed.
    _script: Weak<Vec<Vec<f64>>>,
    reference: Weak<Reference>,
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
    /// Trajectory entries made, each built by its first read.
    pub(crate) reference_builds: u64,
    /// Reference positions those entries cover.
    pub(crate) reference_rows: u64,
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

    /// The reference trajectory of `script` on `model` under `cfg`, from
    /// row `from` or an earlier one. Shared from a live session that
    /// holds one starting no later than `from`; made here otherwise,
    /// from `from` when no live session holds one and from row 0 when
    /// the live one starts later. Holding the returned reference keeps
    /// it shared; its first read builds the positions.
    ///
    /// `check` vets the rows before an entry is made from them; when it
    /// refuses them, nothing is memoised. A reference handed out from
    /// the memo skips `check`, so rows are checked once per shard, not
    /// once per session.
    pub(crate) fn trajectory<E>(
        &mut self,
        script: &Arc<Vec<Vec<f64>>>,
        model: &ArmModel,
        cfg: DriverConfig,
        from: usize,
        check: impl FnOnce(&[Vec<f64>]) -> Result<(), E>,
    ) -> Result<Arc<Reference>, E> {
        let key = (
            Arc::as_ptr(script) as usize,
            model_bits(model),
            config_bits(&cfg),
        );
        let live = self.trajectories.get(&key);
        let first = match live.and_then(|entry| entry.reference.upgrade()) {
            Some(reference) if reference.first <= from => return Ok(reference),
            Some(_) => 0,
            None => from,
        };
        check(script)?;
        let reference = Arc::new(Reference {
            rows: Arc::clone(script),
            first,
            model: model.clone(),
            cfg,
            positions: OnceLock::new(),
        });
        self.counts.reference_builds += 1;
        self.counts.reference_rows += (script.len() - first) as u64;
        self.trajectories
            .retain(|_, entry| entry.reference.strong_count() > 0);
        self.trajectories.insert(
            key,
            TrajectoryEntry {
                _script: Arc::downgrade(script),
                reference: Arc::downgrade(&reference),
            },
        );
        Ok(reference)
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

/// The arm model's content as raw bit words — every number a driver
/// tick reads from it — for the trajectory key (never normalised:
/// `-0.0` and `+0.0` are different arms).
fn model_bits(model: &ArmModel) -> Vec<u64> {
    let limits = model
        .limits
        .iter()
        .flat_map(|l| [l.min, l.max, l.max_velocity]);
    let links = model
        .chain
        .links()
        .iter()
        .flat_map(|l| [l.a, l.alpha, l.d, l.theta_offset]);
    limits.chain(links).map(f64::to_bits).collect()
}

/// The driver configuration as raw bit words (see [`model_bits`]).
fn config_bits(cfg: &DriverConfig) -> [u64; 4] {
    [cfg.period, cfg.gains.kp, cfg.gains.ki, cfg.gains.kd].map(f64::to_bits)
}
