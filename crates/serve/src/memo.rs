//! One shard's memo of what sessions derive from shared inputs alone.
//!
//! Two things a session computes at open are pure functions of data a
//! whole fleet shares. A jammed link's DCF solution depends only on its
//! [`LinkConfig`] (the seed only seeds the sampler), and a scripted
//! session's perfect-channel reference trajectory only on the script, the
//! arm model and the driver configuration. A batch of 64 sessions on one
//! link cell and one script would otherwise solve the chain 64 times and
//! tick a second driver in every session. [`ShardMemo`] hands each result
//! out once per shard for as long as a session uses it, and it is the
//! only cache of either:
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
//!   hashed.
//!
//! A memo belongs to one shard's runtime: no lock, no process-global
//! state. Entries that open or restore a session outside a shard run with
//! a throwaway one. The memo counts what it computes, so the shard can
//! publish its `link_solves` and `reference_builds` rows.

use crate::snapshot::put_link;
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

/// See the module docs.
#[derive(Default)]
pub(crate) struct ShardMemo {
    solutions: HashMap<Vec<u8>, Weak<DcfSolution>>,
    trajectories: HashMap<TrajectoryKey, TrajectoryEntry>,
    /// DCF solves since the last [`ShardMemo::take_counts`].
    link_solves: u64,
    /// Trajectory builds since the last [`ShardMemo::take_counts`].
    reference_builds: u64,
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
        self.link_solves += 1;
        self.solutions.retain(|_, entry| entry.strong_count() > 0);
        self.solutions.insert(key, Arc::downgrade(&solution));
        solution
    }

    /// The reference trajectory of `script` under the arm and driver
    /// whose bits are given, built here by `build` unless a live session
    /// already holds it. Holding the returned pin keeps it shared.
    pub(crate) fn trajectory(
        &mut self,
        script: &Arc<Vec<Vec<f64>>>,
        model_bits: Vec<u64>,
        config_bits: [u64; 4],
        build: impl FnOnce(&[Vec<f64>]) -> Vec<[f64; 3]>,
    ) -> Arc<Points> {
        let key = (Arc::as_ptr(script) as usize, model_bits, config_bits);
        if let Some(pin) = self.trajectories.get(&key).and_then(|e| e.pin.upgrade()) {
            return pin;
        }
        let pin = Arc::new(Points::from(build(script)));
        self.reference_builds += 1;
        self.trajectories
            .retain(|_, entry| entry.pin.strong_count() > 0);
        self.trajectories.insert(
            key,
            TrajectoryEntry {
                _script: Arc::downgrade(script),
                pin: Arc::downgrade(&pin),
            },
        );
        pin
    }

    /// `(link_solves, reference_builds)` since the last call, reset.
    pub(crate) fn take_counts(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.link_solves),
            std::mem::take(&mut self.reference_builds),
        )
    }
}
