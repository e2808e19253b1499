//! The command/event split between callers and shards.
//!
//! Callers talk to the service exclusively through [`SessionCommand`]s
//! sent via a `ServiceHandle` (`crate::ServiceHandle`), and observe it
//! exclusively through [`SessionEvent`]s drained from the service's
//! event receiver — the controller-handle pattern: no shared state, two
//! bounded `std::sync::mpsc` channels per shard, ownership of every
//! session confined to exactly one shard thread.
//!
//! The one exception is the checkpoint: [`SessionCommand::SnapshotInto`]
//! answers on a reply channel the caller sizes, with the snapshot already
//! encoded in the shard's reusable scratch, so a checkpoint never rides
//! the shared event stream. The matching [`SessionEvent::Snapshotted`] is
//! observer-gated narration.

use crate::session::{Session, SessionReport};
use crate::snapshot::SessionSnapshot;
use crate::spec::{SessionId, SessionSpec};
use foreco_store::{ObjectId, TraceHandle};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

/// Instructions a caller sends into the service.
#[derive(Debug)]
pub enum SessionCommand {
    /// Materialise a new session on its home shard (boxed: a spec is an
    /// order of magnitude larger than the per-tick variants).
    Open(Box<SessionSpec>),
    /// Feed one operator command to a streamed session's inbox.
    Inject {
        /// Target session.
        id: SessionId,
        /// Joint-space command.
        command: Vec<f64>,
    },
    /// Declare one slot of a gated session lost (the ingress gateway's
    /// verdict for a wire gap, a reorder-horizon flush, or a bounced
    /// injection): the session's next consumed tick becomes the deadline
    /// miss the recovery engine covers. Ignored by non-gated sessions.
    InjectMiss {
        /// Target session.
        id: SessionId,
    },
    /// Deliver a §VII-C late command to a gated session: a payload whose
    /// slot was already flushed as missed resurfaced `age` ticks later.
    /// It consumes no tick — it patches the engine's forecast history so
    /// subsequent forecasts are seeded with truth. Ignored by non-gated
    /// sessions.
    InjectLate {
        /// Target session.
        id: SessionId,
        /// The late payload.
        command: Vec<f64>,
        /// Ticks between the command's slot and its arrival.
        age: usize,
    },
    /// Finish a streamed session: it drains its inbox, then reports.
    Close {
        /// Target session.
        id: SessionId,
    },
    /// Move a live session to shard `to`: drain (finish the current
    /// tick), transfer (hand the live session over as a
    /// [`SessionCommand::Transfer`]), resume. Outputs are bit-identical
    /// to never having moved; the service's routing table follows the
    /// session so later commands find it.
    Migrate {
        /// Target session.
        id: SessionId,
        /// Destination shard index.
        to: usize,
    },
    /// The transfer half of a migration, shard to shard: the live
    /// session, synced through its shard's current pass, with its trace
    /// claim, memo pins and DCF solution inside — nothing is rebuilt.
    Transfer(Box<Session>),
    /// Rehydrate a snapshotted session on the receiving shard, sent by
    /// [`ServiceHandle::adopt`](crate::ServiceHandle::adopt) and
    /// [`ServiceHandle::adopt_fleet`](crate::ServiceHandle::adopt_fleet)
    /// to revive a checkpoint from another process or an earlier run.
    Adopt {
        /// The state to rehydrate.
        snapshot: Box<SessionSnapshot>,
        /// Claim on the script a `ScriptedRef` snapshot references
        /// (`adopt_fleet` rides the claim along the channel, so the
        /// trace cannot be evicted between send and restore). `None`
        /// for self-contained snapshots.
        trace: Option<TraceHandle>,
    },
    /// Checkpoint a live session — the one way a checkpoint leaves a
    /// shard. The shard replies on the dedicated channel, never the
    /// event stream, with the snapshot already encoded and the scripted
    /// trace deduplicated out of it (see
    /// [`Session::snapshot_for_fleet`](crate::Session::snapshot_for_fleet)).
    /// The session keeps running, untouched.
    /// `ServiceHandle::snapshot_fleet` fans this across all shards and
    /// assembles one archive.
    SnapshotInto {
        /// Target session.
        id: SessionId,
        /// Where to deliver the [`FleetPart`]. The caller sizes the
        /// channel to the request count, so shard sends never block.
        reply: SyncSender<FleetPart>,
    },
    /// Balancer directive: migrate up to `count` of this shard's
    /// *runnable* sessions to shard `to` (parked sessions cost nothing
    /// where they are, so only live work moves). The shard picks the
    /// sessions — highest runnable ids first, a deterministic choice —
    /// and drives each through the ordinary `Migrate` path, so every
    /// move is bit-invisible and the routing table stays authoritative.
    Rebalance {
        /// Destination shard index.
        to: usize,
        /// Upper bound on sessions to move.
        count: usize,
    },
    /// Stop the shard after finishing in-flight sessions' current tick.
    Shutdown,
}

/// One shard's reply to [`SessionCommand::SnapshotInto`].
#[derive(Debug, Clone)]
pub enum FleetPart {
    /// The session's archive-form snapshot, already encoded as a binary
    /// snapshot frame in the shard's reusable scratch — the collector splices
    /// it into the [`FleetArchive`](crate::FleetArchive) without
    /// decoding (see
    /// [`FleetArchive::push_part_bytes`](crate::FleetArchive::push_part_bytes)).
    Snapshot {
        /// Session id (also carried inside the frame).
        id: SessionId,
        /// The encoded snapshot (scripted sources by reference).
        frame: Vec<u8>,
        /// The referenced trace payload — an `Arc` clone, shared with
        /// the live session, never a copy. `None` for live sources.
        trace: Option<(ObjectId, Arc<Vec<Vec<f64>>>)>,
    },
    /// No such session on the routed shard (unknown id, or it completed
    /// before the command arrived).
    Missing {
        /// The unmatched id.
        id: SessionId,
    },
    /// The session exists but cannot be exported (unsnapshotable
    /// forecaster). It keeps running.
    Failed {
        /// Session id.
        id: SessionId,
        /// Human-readable cause.
        reason: String,
    },
}

/// Observations the service emits.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// The session was materialised on shard `shard`.
    Opened {
        /// Session id.
        id: SessionId,
        /// Owning shard index.
        shard: usize,
    },
    /// A command aimed at a full inbox was dropped — a loss event the
    /// session's recovery engine will cover by forecasting.
    CommandDropped {
        /// Session id.
        id: SessionId,
        /// The session's virtual tick at drop time.
        tick: u64,
    },
    /// A command addressed an unknown (or already completed) session.
    UnknownSession {
        /// The unmatched id.
        id: SessionId,
    },
    /// An `Open` reused a live session's id and was rejected (the
    /// running session is untouched).
    DuplicateSession {
        /// The contested id.
        id: SessionId,
    },
    /// A session was checkpointed by [`SessionCommand::SnapshotInto`]
    /// (the state itself travels on the command's reply channel). Like
    /// [`SessionEvent::Parked`], emitted **only while a lifecycle
    /// observer is attached**: it is narration, never a result.
    Snapshotted {
        /// Session id.
        id: SessionId,
        /// Shard that owns the session.
        shard: usize,
    },
    /// A `Migrate` written straight to a shard's control channel named
    /// a destination outside the pool (the handle rejects those up
    /// front). The session keeps running where it is.
    SnapshotFailed {
        /// Session id.
        id: SessionId,
        /// Human-readable cause.
        reason: String,
    },
    /// An adopted snapshot could not be rehydrated (version mismatch,
    /// corrupt state, wrong arm model). Nothing was created.
    RestoreFailed {
        /// Session id from the rejected snapshot.
        id: SessionId,
        /// Human-readable cause.
        reason: String,
    },
    /// A session left its shard as part of a migration; a matching
    /// [`SessionEvent::Restored`] follows from the destination.
    Migrated {
        /// Session id.
        id: SessionId,
        /// Shard the session left.
        from: usize,
        /// Shard the session is moving to.
        to: usize,
    },
    /// A session parked at a verified idle fixed point (left the run
    /// queue). Emitted **only while a lifecycle observer is attached**
    /// (see `telemetry::Telemetry::attach_observer`): parks are too
    /// frequent on gated fleets to narrate unconditionally. The park
    /// itself happens regardless — only the narration is gated — so
    /// session results are bit-identical with or without observers.
    Parked {
        /// Session id.
        id: SessionId,
        /// Shard the session parked on.
        shard: usize,
    },
    /// A session arrived on a shard (adopted from a snapshot, or
    /// migrated in) and resumed.
    Restored {
        /// Session id.
        id: SessionId,
        /// Shard now owning the session.
        shard: usize,
        /// Virtual tick the session resumed at.
        tick: u64,
    },
    /// The session ran to completion.
    Completed {
        /// Session id.
        id: SessionId,
        /// Final per-session accounting.
        report: SessionReport,
    },
    /// A shard exited its run loop (after `Shutdown` or handle drop).
    ShardTerminated {
        /// Shard index.
        shard: usize,
        /// Total session-ticks the shard advanced over its lifetime.
        ticks_advanced: u64,
    },
}

/// Why a handle operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The target shard's control channel is full (backpressure). The
    /// command was dropped; for `Inject` this is a loss event.
    Backpressure,
    /// The target shard has terminated.
    Disconnected,
    /// A migration named a shard index outside the pool.
    NoSuchShard {
        /// The requested destination.
        shard: usize,
        /// How many shards the pool has.
        shards: usize,
    },
    /// `adopt_fleet` was handed an archive whose session frames do not
    /// decode (possible only for archives spliced from untrusted bytes;
    /// nothing was adopted).
    CorruptArchive {
        /// The decoder's verdict.
        reason: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Backpressure => write!(f, "shard control channel full"),
            ServiceError::Disconnected => write!(f, "shard terminated"),
            ServiceError::NoSuchShard { shard, shards } => {
                write!(f, "no shard {shard} in a {shards}-shard pool")
            }
            ServiceError::CorruptArchive { reason } => {
                write!(f, "fleet archive does not decode: {reason}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}
