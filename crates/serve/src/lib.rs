//! FoReCo as a service: a sharded runtime hosting thousands of
//! concurrent recovery loops in one process.
//!
//! The paper frames FoReCo as edge-cloud infrastructure sitting between
//! many operators and many robots (Fig. 1); the offline crates reproduce
//! one loop at a time. This crate turns that loop into a *session* and
//! hosts arbitrarily many of them on a pool of shard threads:
//!
//! - [`Session`] bundles an operator command source, a channel
//!   impairment model, a [`foreco_core::RecoveryEngine`], and the PID
//!   robot driver — one hosted closed loop, exposed as a pollable state
//!   machine: every [`Session::advance`] reports a [`Wake`] verdict;
//! - [`SessionCommand`] / [`SessionEvent`] split control from
//!   observation over bounded `std::sync::mpsc` channels: callers talk
//!   through a [`ServiceHandle`], the service talks back through events;
//! - the shard pool ([`Service`]) hashes sessions onto `N` worker
//!   threads and advances each on a deterministic virtual 50 Hz clock —
//!   every run is reproducible, and per-session results are
//!   **bit-identical** to solo `run_closed_loop` runs regardless of
//!   shard count (pinned by the shard-invariance integration test);
//! - shards schedule **wake-on-work** by default
//!   ([`Scheduler::EventDriven`]): a run queue, with idle streamed
//!   sessions parking at a *verified* f64 fixed point (engine in
//!   horizon-hold, PIDs settled, no late command pending) where
//!   [`Session::catch_up`] can later replay every skipped tick exactly
//!   — a mostly-idle fleet costs work proportional to its *active*
//!   sessions, bit-identically to the eager sweep ([`Scheduler::Eager`],
//!   kept as the property-tested ground truth);
//! - with a [`BalancerConfig`], a balancer thread watches per-shard
//!   load ([`ServiceHandle::shard_loads`], [`ShardSummary`]) and
//!   evens out runnable sessions across shards through the
//!   bit-invisible migration mechanism;
//! - a lock-free telemetry plane ([`Telemetry`]) declares every
//!   per-shard metric once, in one table that generates its atomics
//!   ([`ShardCounters`]), its snapshot ([`ShardSummary`]), the per-pass
//!   flush and its Prometheus family ([`render_prometheus`]);
//! - [`MetricsRegistry`] aggregates per-session
//!   [`foreco_core::RecoveryStats`] and task-space error into
//!   percentile summaries ([`ServiceSummary`]);
//! - backpressure is explicit and *is* the loss model: a streamed
//!   session's bounded inbox drops overflowing commands, and the
//!   recovery engine forecasts the gap — exactly the paper's loss event,
//!   produced by the service's own admission control;
//! - socket-fed sessions are **gated** ([`SourceSpec::Gated`], the
//!   `foreco-net` gateway's shape): the inbox holds explicit per-slot
//!   verdicts ([`GatedSlot`]: command, loss, or §VII-C late patch) and
//!   the virtual clock advances only as slots are consumed — an empty
//!   queue suspends time ([`Advance::Idle`]) instead of counting a
//!   miss, so the race between socket threads and shard clocks cannot
//!   change a single output bit;
//! - sessions are **portable**: [`Session::snapshot`] checkpoints a live
//!   loop (engine history, forecaster, PID state, channel RNG, tick,
//!   stats) to a versioned [`SessionSnapshot`] that
//!   [`Session::restore`] rehydrates anywhere, e.g. in another process
//!   (a live service checkpoints through
//!   [`ServiceHandle::snapshot_fleet`] and revives through
//!   [`ServiceHandle::adopt_fleet`]); within one service,
//!   [`SessionCommand::Migrate`]'s drain→transfer→resume path moves the
//!   live session itself to another shard, no snapshot taken. Either
//!   way the continued output is **bit-identical**, pinned by the
//!   `tests/snapshot_roundtrip.rs` determinism suite.
//!
//! # Quickstart
//!
//! ```
//! use foreco_serve::{
//!     ChannelSpec, RecoverySpec, Service, ServiceConfig, SessionSpec, SharedForecaster,
//!     SourceSpec,
//! };
//! use foreco_core::RecoveryConfig;
//! use foreco_forecast::Var;
//! use foreco_robot::niryo_one;
//! use foreco_teleop::{Dataset, Skill};
//! use std::sync::Arc;
//!
//! // Train one VAR; share it across every session.
//! let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
//! let forecaster = SharedForecaster::new(Var::fit_differenced(&train, 5, 1e-6).unwrap());
//! let replay = Arc::new(Dataset::record(Skill::Inexperienced, 1, 0.02, 8).commands);
//!
//! let specs: Vec<SessionSpec> = (0..32)
//!     .map(|id| {
//!         SessionSpec::new(
//!             id,
//!             SourceSpec::Replayed(Arc::clone(&replay)),
//!             ChannelSpec::ControlledLoss { burst_len: 8, burst_prob: 0.01, seed: id },
//!             RecoverySpec::FoReCo {
//!                 forecaster: forecaster.clone(),
//!                 config: RecoveryConfig::for_model(&niryo_one()),
//!             },
//!         )
//!     })
//!     .collect();
//!
//! let registry = Service::spawn(ServiceConfig::with_shards(4)).run_to_completion(specs);
//! let summary = registry.summary().expect("sessions completed");
//! assert_eq!(summary.sessions, 32);
//! assert!(summary.rmse_mm.p99.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod clock;
pub mod inbox;
mod memo;
pub mod metrics;
pub mod protocol;
pub mod sched;
pub mod service;
pub mod session;
pub mod shard;
pub mod snapshot;
pub mod spec;
pub mod telemetry;

pub use archive::{
    FleetArchive, FleetSnapshotPart, PartFrames, TraceEntry, ARCHIVE_MAGIC, FLEET_ARCHIVE_VERSION,
};
pub use clock::{Pacing, VirtualClock, TICK_HZ, TICK_PERIOD};
pub use inbox::{BoundedInbox, GatedInbox, GatedInboxState, GatedSlot, InboxState, Offer};
pub use metrics::{IngressSummary, MetricsRegistry, PercentileSummary, ServiceSummary};
pub use protocol::{FleetPart, ServiceError, SessionCommand, SessionEvent};
pub use sched::Scheduler;
pub use service::{
    BalancerConfig, EventWait, FleetSnapshotReport, Service, ServiceConfig, ServiceHandle,
};
pub use session::{Advance, Session, SessionReport, Wake};
pub use shard::shard_of;
pub use snapshot::{
    FateRun, RestoreError, SessionSnapshot, SnapshotError, SourceState, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use spec::{ChannelSpec, RecoverySpec, SessionId, SessionSpec, SharedForecaster, SourceSpec};
pub use telemetry::{render_prometheus, ShardCounters, ShardSummary, Telemetry};
