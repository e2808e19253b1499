//! The service: a shard pool behind a cloneable handle.
//!
//! [`Service::spawn`] starts `shards` worker threads, each owning a
//! bounded control channel and a share of the sessions (placement by
//! [`shard_of`](crate::shard_of)). Callers hold a [`ServiceHandle`] to open, feed, and
//! close sessions, and drain [`SessionEvent`]s from the service to
//! observe them. [`Service::run_to_completion`] is the batch
//! convenience: open a set of scripted sessions, collect every report
//! into a [`MetricsRegistry`], shut down.
//!
//! With a [`BalancerConfig`] set, the service also runs a **balancer**:
//! a thread that periodically reads every shard's load counters
//! ([`ServiceHandle::shard_loads`]) and, when the runnable-session gap
//! between the most and least loaded shards crosses a threshold, orders
//! the overloaded shard to migrate live sessions to the underloaded one
//! (`SessionCommand::Rebalance`, riding the bit-invisible `Migrate`
//! mechanism — the routing table stays authoritative throughout). The
//! policy moves *runnable* sessions only: parked sessions cost nothing
//! where they are, so balancing chases active work, not session counts.

use crate::archive::{FleetArchive, TraceEntry};
use crate::clock::Pacing;
use crate::metrics::MetricsRegistry;
use crate::protocol::{FleetPart, ServiceError, SessionCommand, SessionEvent};
use crate::sched::Scheduler;
use crate::shard::{RoutingTable, ShardWorker};
use crate::snapshot::{SessionSnapshot, SourceState};
use crate::spec::{SessionId, SessionSpec, SourceSpec};
use crate::telemetry::{ShardSummary, Telemetry};
use foreco_robot::{niryo_one, ArmModel};
use foreco_store::{ObjectId, Storage, TraceHandle};
use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What [`ServiceHandle::snapshot_fleet`] produced: the streaming-built
/// archive plus an honest account of every requested id that is *not*
/// in it — unknown ids (completed or never opened) and sessions whose
/// state cannot be exported. `archive.len() + missing.len() +
/// failed.len()` always equals the request count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshotReport {
    /// The assembled archive (traces deduped, parts in reply order).
    pub archive: FleetArchive,
    /// Requested ids no shard knew (completed, never opened, or routed
    /// to a shard that lost them).
    pub missing: Vec<SessionId>,
    /// Sessions that exist but could not be exported, with the cause
    /// (currently only unsnapshotable forecasters). They keep running.
    pub failed: Vec<(SessionId, String)>,
}

/// Load-aware rebalancing policy knobs (see the module docs; the
/// mechanism it drives is `SessionCommand::Migrate`).
#[derive(Debug, Clone)]
pub struct BalancerConfig {
    /// How often shard loads are inspected.
    pub interval: Duration,
    /// Minimum runnable-session gap (max − min across shards) before a
    /// move is ordered. Below it, migration churn costs more than the
    /// imbalance.
    pub min_imbalance: u64,
    /// Upper bound on sessions moved per round, so one round can never
    /// flood a control channel.
    pub max_moves: usize,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(20),
            min_imbalance: 2,
            max_moves: 8,
        }
    }
}

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (≥ 1). Session placement is shard-count-stable
    /// only in the sense that results never depend on it.
    pub shards: usize,
    /// Bound of each shard's control channel.
    pub control_capacity: usize,
    /// Bound of the shared event channel.
    pub event_capacity: usize,
    /// Wall-clock pacing of the virtual 50 Hz clock.
    pub pacing: Pacing,
    /// Arm model every session drives.
    pub model: ArmModel,
    /// Per-shard scheduling discipline (event-driven by default; eager
    /// is the property-tested ground truth).
    pub scheduler: Scheduler,
    /// Load-aware shard rebalancing; `None` disables the balancer
    /// thread (sessions stay wherever placement or explicit migration
    /// put them).
    pub balancer: Option<BalancerConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            control_capacity: 1024,
            event_capacity: 4096,
            pacing: Pacing::Unpaced,
            model: niryo_one(),
            scheduler: Scheduler::default(),
            balancer: None,
        }
    }
}

impl ServiceConfig {
    /// Config with `shards` workers and defaults elsewhere.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Default::default()
        }
    }

    /// Same, with the default load balancer enabled.
    pub fn with_balanced_shards(shards: usize) -> Self {
        Self {
            shards,
            balancer: Some(BalancerConfig::default()),
            ..Default::default()
        }
    }
}

/// Cloneable ingress: routes commands to the owning shard — the static
/// hash placement by default, the migration-aware routing table once a
/// session has moved.
#[derive(Clone)]
pub struct ServiceHandle {
    controls: Vec<SyncSender<SessionCommand>>,
    routes: Arc<RoutingTable>,
    telemetry: Arc<Telemetry>,
}

impl ServiceHandle {
    fn route(&self, id: SessionId) -> &SyncSender<SessionCommand> {
        &self.controls[self.routes.shard_for(id, self.controls.len())]
    }

    /// Number of shards in the pool.
    pub fn shards(&self) -> usize {
        self.controls.len()
    }

    /// Point-in-time telemetry of every shard: the load picture
    /// (runnable vs parked sessions, passes, wakeups, migrations) that
    /// the balancer decides on, next to the fleet counters (ticks,
    /// opens, completions, parks, checkpoints) a metrics scrape renders.
    /// Lock-free relaxed reads; values reflect each shard's last
    /// published pass.
    pub fn shard_loads(&self) -> Vec<ShardSummary> {
        self.telemetry.summaries()
    }

    /// Registers a lifecycle observer: while at least one is attached,
    /// shards narrate park transitions as [`SessionEvent::Parked`] and
    /// checkpoints as [`SessionEvent::Snapshotted`].
    /// Pair with [`ServiceHandle::detach_observer`].
    pub fn attach_observer(&self) {
        self.telemetry.attach_observer();
    }

    /// Unregisters a lifecycle observer.
    pub fn detach_observer(&self) {
        self.telemetry.detach_observer();
    }

    /// Opens a session on its home shard (blocks if the shard's control
    /// channel is full — opens are never dropped).
    ///
    /// Opening a large batch from the thread that also drains events
    /// can deadlock once both bounded channels fill: the shard blocks
    /// emitting events, stops draining control, and this send never
    /// completes. For batches, drain events concurrently, use
    /// [`Service::run_to_completion`] (which interleaves internally),
    /// or use [`ServiceHandle::try_open`].
    pub fn open(&self, spec: SessionSpec) -> Result<(), ServiceError> {
        self.route(spec.id)
            .send(SessionCommand::Open(Box::new(spec)))
            .map_err(|_| ServiceError::Disconnected)
    }

    /// Non-blocking [`ServiceHandle::open`]: on shard backpressure the
    /// spec comes back in `Err((Backpressure, spec))` so the caller can
    /// drain events and retry without losing it.
    #[allow(clippy::result_large_err)] // the spec rides back to the caller by design
    pub fn try_open(&self, spec: SessionSpec) -> Result<(), (ServiceError, SessionSpec)> {
        match self
            .route(spec.id)
            .try_send(SessionCommand::Open(Box::new(spec)))
        {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(SessionCommand::Open(spec))) => {
                Err((ServiceError::Backpressure, *spec))
            }
            Err(TrySendError::Disconnected(SessionCommand::Open(spec))) => {
                Err((ServiceError::Disconnected, *spec))
            }
            Err(_) => unreachable!("try_open only sends Open"),
        }
    }

    /// Feeds one operator command to a streamed session. Non-blocking:
    /// a full control channel drops the command and reports
    /// [`ServiceError::Backpressure`] — to the robot that drop is
    /// indistinguishable from a network loss, and the session's engine
    /// will forecast the gap.
    pub fn inject(&self, id: SessionId, command: Vec<f64>) -> Result<(), ServiceError> {
        match self
            .route(id)
            .try_send(SessionCommand::Inject { id, command })
        {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(ServiceError::Backpressure),
            Err(TrySendError::Disconnected(_)) => Err(ServiceError::Disconnected),
        }
    }

    /// Non-blocking [`ServiceHandle::inject`] that hands the command
    /// back on backpressure instead of dropping it: the `foreco-net`
    /// gateway's hot path, where a socket thread must never block and
    /// must decide for itself what a bounce means (it counts the bounce
    /// as a loss and keeps the slot timeline aligned with an explicit
    /// miss). No allocation happens on the bounce path — the buffer
    /// rides back to the caller inside the rejected command.
    pub fn try_inject(
        &self,
        id: SessionId,
        command: Vec<f64>,
    ) -> Result<(), (ServiceError, Vec<f64>)> {
        match self
            .route(id)
            .try_send(SessionCommand::Inject { id, command })
        {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(SessionCommand::Inject { command, .. })) => {
                Err((ServiceError::Backpressure, command))
            }
            Err(TrySendError::Disconnected(SessionCommand::Inject { command, .. })) => {
                Err((ServiceError::Disconnected, command))
            }
            Err(_) => unreachable!("try_inject only sends Inject"),
        }
    }

    /// Declares one slot of a gated session lost (see
    /// [`SessionCommand::InjectMiss`]). Non-blocking: a full control
    /// channel reports [`ServiceError::Backpressure`] and the caller
    /// retries — a miss marker is the slot, so unlike a command it must
    /// eventually land to keep the timeline aligned.
    pub fn inject_miss(&self, id: SessionId) -> Result<(), ServiceError> {
        match self.route(id).try_send(SessionCommand::InjectMiss { id }) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(ServiceError::Backpressure),
            Err(TrySendError::Disconnected(_)) => Err(ServiceError::Disconnected),
        }
    }

    /// Delivers a §VII-C late command to a gated session (see
    /// [`SessionCommand::InjectLate`]). Non-blocking; a dropped late
    /// patch is a loss staying a loss, so callers may simply count a
    /// bounce and move on.
    pub fn inject_late(
        &self,
        id: SessionId,
        command: Vec<f64>,
        age: usize,
    ) -> Result<(), ServiceError> {
        match self
            .route(id)
            .try_send(SessionCommand::InjectLate { id, command, age })
        {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(ServiceError::Backpressure),
            Err(TrySendError::Disconnected(_)) => Err(ServiceError::Disconnected),
        }
    }

    /// Asks a streamed session to drain its inbox and report.
    pub fn close(&self, id: SessionId) -> Result<(), ServiceError> {
        self.route(id)
            .send(SessionCommand::Close { id })
            .map_err(|_| ServiceError::Disconnected)
    }

    /// Moves a live session to shard `to` mid-run (drain → transfer →
    /// resume; see the shard docs): the live session itself moves, so
    /// an unsnapshotable one can too. Watch for the paired
    /// [`SessionEvent::Migrated`] / [`SessionEvent::Restored`] events.
    pub fn migrate(&self, id: SessionId, to: usize) -> Result<(), ServiceError> {
        if to >= self.controls.len() {
            return Err(ServiceError::NoSuchShard {
                shard: to,
                shards: self.controls.len(),
            });
        }
        self.route(id)
            .send(SessionCommand::Migrate { id, to })
            .map_err(|_| ServiceError::Disconnected)
    }

    /// Rehydrates a checkpointed session — e.g. one exported by
    /// [`ServiceHandle::snapshot_fleet`] before a process restart — onto
    /// its routed shard. The shard answers with [`SessionEvent::Restored`]
    /// (or `RestoreFailed` / `DuplicateSession`) and the session resumes
    /// from its snapshot tick.
    pub fn adopt(&self, snapshot: SessionSnapshot) -> Result<(), ServiceError> {
        self.route(snapshot.id)
            .send(SessionCommand::Adopt {
                snapshot: Box::new(snapshot),
                trace: None,
            })
            .map_err(|_| ServiceError::Disconnected)
    }

    /// Checkpoint — the only one the service offers, for one session or
    /// a fleet: exports every listed session into one
    /// deduplicated [`FleetArchive`] — each distinct scripted trace
    /// stored once, no matter how many sessions replay it, so a
    /// thousand-session archive costs O(traces + sessions) bytes instead
    /// of O(sessions × trace). Sessions keep running, untouched.
    ///
    /// The assembly is *streaming*: shards encode each part into their
    /// reusable scratch as a binary snapshot frame, and this collector splices
    /// the bytes straight into the archive while later shards are still
    /// draining — no snapshot is decoded in between. Sessions that are
    /// unknown (completed, never opened) or unsnapshotable are reported
    /// in [`FleetSnapshotReport::missing`] / `failed` instead of being
    /// silently dropped.
    ///
    /// Blocks until every routed shard has replied. Call it from a
    /// thread that is not needed to drain events, or leave event-channel
    /// headroom: a shard blocked emitting events cannot reach the
    /// snapshot command. (The reply channel is sized to `ids.len()`, so
    /// shard-side sends never block.)
    pub fn snapshot_fleet(&self, ids: &[SessionId]) -> Result<FleetSnapshotReport, ServiceError> {
        let (tx, rx) = sync_channel::<FleetPart>(ids.len().max(1));
        for &id in ids {
            self.route(id)
                .send(SessionCommand::SnapshotInto {
                    id,
                    reply: tx.clone(),
                })
                .map_err(|_| ServiceError::Disconnected)?;
        }
        drop(tx); // shards hold the only remaining senders
        let mut report = FleetSnapshotReport {
            archive: FleetArchive::new(),
            missing: Vec::new(),
            failed: Vec::new(),
        };
        for _ in 0..ids.len() {
            match rx.recv() {
                Ok(FleetPart::Snapshot { frame, trace, .. }) => {
                    if let Some((id, commands)) = trace {
                        report.archive.push_shared_trace(id, &commands);
                    }
                    report.archive.push_part_bytes(&frame);
                }
                Ok(FleetPart::Missing { id }) => report.missing.push(id),
                Ok(FleetPart::Failed { id, reason }) => report.failed.push((id, reason)),
                Err(_) => return Err(ServiceError::Disconnected),
            }
        }
        Ok(report)
    }

    /// Revives an archived fleet: adopts every session snapshot with its
    /// trace claim riding along the control channel — so the trace
    /// cannot be evicted between send and restore, and N adopted
    /// sessions share one resident copy.
    ///
    /// Every part is decoded before anything is sent, so a corrupt
    /// archive fails here as a whole. Then each trace-table entry files
    /// into `storage` under its content address just before the first
    /// part that references it is sent: the entry's shared rows move in
    /// without a copy, and the shard restores those parts while this
    /// thread hashes the next trace. An entry whose rows hash to another
    /// id than the declared one is dropped again, failing only its own
    /// sessions. Entries no part references, and later duplicates of an
    /// id, are filed after the last send and released on return, so the
    /// store's counters end as if the whole table had been filed first.
    ///
    /// Returns how many adoptions were sent. Watch the event stream for
    /// the matching [`SessionEvent::Restored`] / `RestoreFailed` pairs
    /// (a session whose trace entry was missing or corrupt fails at
    /// restore, not here).
    pub fn adopt_fleet(
        &self,
        archive: FleetArchive,
        storage: &Storage,
    ) -> Result<usize, ServiceError> {
        let (traces, sessions) = archive
            .dismantle()
            .map_err(|e| ServiceError::CorruptArchive {
                reason: e.to_string(),
            })?;
        let mut first: HashMap<ObjectId, usize> = HashMap::new();
        for (at, entry) in traces.iter().enumerate() {
            first.entry(entry.id).or_insert(at);
        }
        let mut table: Vec<Option<TraceEntry>> = traces.into_iter().map(Some).collect();
        // The insert hashes the rows once; a claim filed under another id
        // than the declared one is a corrupt table entry. Dropping it
        // releases the rows, and the next entry declaring the id is tried.
        let file = |entry: TraceEntry| {
            let claim = storage.insert_trace_shared(entry.commands);
            (claim.id() == entry.id).then_some(claim)
        };
        // `None` once an id's entries are all corrupt, or it has none.
        let mut claims: HashMap<ObjectId, Option<TraceHandle>> = HashMap::new();
        let mut sent = 0;
        for snapshot in sessions {
            let trace = match &snapshot.source {
                SourceState::ScriptedRef { trace: id, .. } => claims
                    .entry(*id)
                    .or_insert_with(|| {
                        let from = first.get(id).copied()?;
                        table[from..]
                            .iter_mut()
                            .filter(|slot| slot.as_ref().is_some_and(|entry| entry.id == *id))
                            .find_map(|slot| file(slot.take().expect("filtered")))
                    })
                    .clone(),
                _ => None,
            };
            self.route(snapshot.id)
                .send(SessionCommand::Adopt {
                    snapshot: Box::new(snapshot),
                    trace,
                })
                .map_err(|_| ServiceError::Disconnected)?;
            sent += 1;
        }
        for entry in table.into_iter().flatten() {
            drop(file(entry));
        }
        Ok(sent)
    }

    /// Orders shard `from` to migrate up to `count` of its runnable
    /// sessions to shard `to` — the manual form of what the balancer
    /// does periodically. Non-blocking; a full control channel reports
    /// [`ServiceError::Backpressure`] (retry after draining events).
    pub fn rebalance(&self, from: usize, to: usize, count: usize) -> Result<(), ServiceError> {
        for shard in [from, to] {
            if shard >= self.controls.len() {
                return Err(ServiceError::NoSuchShard {
                    shard,
                    shards: self.controls.len(),
                });
            }
        }
        match self.controls[from].try_send(SessionCommand::Rebalance { to, count }) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(ServiceError::Backpressure),
            Err(TrySendError::Disconnected(_)) => Err(ServiceError::Disconnected),
        }
    }

    /// Requests a graceful drain of every shard.
    pub fn shutdown(&self) {
        for control in &self.controls {
            let _ = control.send(SessionCommand::Shutdown);
        }
    }
}

/// Outcome of a timed wait for the next service event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventWait {
    /// An event arrived within the timeout.
    Event(SessionEvent),
    /// The timeout elapsed with no event; the service is still alive.
    TimedOut,
    /// Every shard has terminated and the buffer is drained.
    Disconnected,
}

/// A running shard pool. Drop order matters only through
/// [`Service::join`], which consumes the service after a shutdown.
pub struct Service {
    handle: ServiceHandle,
    events: Receiver<SessionEvent>,
    workers: Vec<JoinHandle<u64>>,
    /// The balancer thread and the sender whose drop stops it.
    balancer: Option<(JoinHandle<()>, SyncSender<()>)>,
    /// The shards' shared model store, kept for the count gates to read.
    #[cfg(test)]
    models: Storage,
}

impl Service {
    /// Spawns the shard pool (and the balancer, when configured).
    ///
    /// # Panics
    /// Panics if `config.shards` is zero.
    pub fn spawn(config: ServiceConfig) -> Self {
        assert!(config.shards >= 1, "service: need at least one shard");
        let (event_tx, event_rx) = sync_channel(config.event_capacity);
        let routes = Arc::new(RoutingTable::default());
        let telemetry = Arc::new(Telemetry::new(config.shards));
        // All control channels exist before any worker starts: each
        // worker holds every peer's sender for migration hand-offs.
        let channels: Vec<_> = (0..config.shards)
            .map(|_| sync_channel(config.control_capacity))
            .collect();
        let controls: Vec<SyncSender<SessionCommand>> =
            channels.iter().map(|(tx, _)| tx.clone()).collect();
        // One content-addressed store shared by every shard: restored
        // sessions claim their model weights here instead of holding
        // deep clones, so N same-model restores keep one resident copy.
        let models = Storage::new();
        let mut workers = Vec::with_capacity(config.shards);
        for (index, (_, control_rx)) in channels.into_iter().enumerate() {
            let worker = ShardWorker {
                index,
                control: control_rx,
                events: event_tx.clone(),
                peers: controls.clone(),
                routes: Arc::clone(&routes),
                model: config.model.clone(),
                pacing: config.pacing,
                scheduler: config.scheduler,
                telemetry: Arc::clone(&telemetry),
                models: models.clone(),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("foreco-shard-{index}"))
                    .spawn(move || worker.run())
                    .expect("spawn shard thread"),
            );
        }
        let handle = ServiceHandle {
            controls,
            routes,
            telemetry,
        };
        let balancer = config.balancer.map(|cfg| {
            let (stop_tx, stop_rx) = sync_channel(1);
            let balancer_handle = handle.clone();
            let thread = std::thread::Builder::new()
                .name("foreco-balancer".to_string())
                .spawn(move || balancer_loop(cfg, balancer_handle, stop_rx))
                .expect("spawn balancer thread");
            (thread, stop_tx)
        });
        Self {
            handle,
            events: event_rx,
            workers,
            balancer,
            #[cfg(test)]
            models,
        }
    }

    /// A cloneable ingress handle.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Blocking receive of the next service event. Parks the calling
    /// thread until an event arrives; `None` once every shard has
    /// terminated and the buffer is drained.
    pub fn next_event(&self) -> Option<SessionEvent> {
        self.events.recv().ok()
    }

    /// Bounded-wait receive: blocks up to `timeout` for the next event
    /// instead of forcing callers to poll [`Service::next_event`] in a
    /// busy loop when they have periodic work of their own (balancer
    /// observation, stats printing, injection pacing).
    pub fn next_event_timeout(&self, timeout: Duration) -> EventWait {
        match self.events.recv_timeout(timeout) {
            Ok(event) => EventWait::Event(event),
            Err(RecvTimeoutError::Timeout) => EventWait::TimedOut,
            Err(RecvTimeoutError::Disconnected) => EventWait::Disconnected,
        }
    }

    /// Shuts down and joins every shard, returning the total
    /// session-ticks each advanced. Buffered events are discarded.
    pub fn join(mut self) -> Vec<u64> {
        let workers = std::mem::take(&mut self.workers);
        let balancer = self.balancer.take();
        // Dropping self runs the Drop impl (Shutdown to every shard)
        // and releases the event receiver, so shards blocked emitting
        // events unblock and exit.
        drop(self);
        if let Some((thread, stop)) = balancer {
            drop(stop); // disconnects the balancer's stop channel
            thread.join().expect("balancer thread panicked");
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("shard thread panicked"))
            .collect()
    }

    /// Batch driver: opens every spec, waits for all of them to
    /// complete, and returns the collected registry. Scripted sessions
    /// complete on their own; live specs (streamed or gated) are closed
    /// immediately, so they report after draining whatever was injected
    /// beforehand — use the handle/event API directly for live
    /// streaming.
    ///
    /// Events are drained *while* opening, so the batch size is not
    /// limited by the bounded control/event channels: with both full,
    /// a blocking open would deadlock against shards blocked on event
    /// sends. Opens therefore use `try_send` and fall back to draining.
    ///
    /// # Panics
    /// Panics if a shard dies before every session reports, or if two
    /// specs share an id (the second could never report).
    pub fn run_to_completion(self, specs: Vec<SessionSpec>) -> MetricsRegistry {
        let expected = specs.len();
        {
            let mut ids: Vec<SessionId> = specs.iter().map(|s| s.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                expected,
                "run_to_completion: duplicate session ids"
            );
        }
        let mut registry = MetricsRegistry::new();
        for spec in specs {
            let live = matches!(
                spec.source,
                SourceSpec::Streamed { .. } | SourceSpec::Gated { .. }
            );
            let id = spec.id;
            let control = self.handle.route(id);
            let mut pending = Box::new(spec);
            loop {
                match control.try_send(SessionCommand::Open(pending)) {
                    Ok(()) => break,
                    Err(TrySendError::Full(SessionCommand::Open(spec))) => {
                        // Shard backpressure: free event capacity so the
                        // shard can make progress, then retry.
                        pending = spec;
                        self.drain_into(&mut registry, true);
                    }
                    Err(_) => panic!("shard terminated while opening sessions"),
                }
            }
            if live {
                // Close may hit the same backpressure; same treatment.
                loop {
                    match control.try_send(SessionCommand::Close { id }) {
                        Ok(()) => break,
                        Err(TrySendError::Full(_)) => self.drain_into(&mut registry, true),
                        Err(_) => panic!("shard terminated while closing sessions"),
                    }
                }
            }
            self.drain_into(&mut registry, false);
        }
        while registry.len() < expected {
            match self.next_event() {
                Some(SessionEvent::Completed { report, .. }) => registry.record(report),
                Some(_) => {}
                None => panic!("service terminated with sessions outstanding"),
            }
        }
        // The final load picture (passes, wakeups, migrations) rides
        // along with the reports for observability. Read after the join:
        // every shard publishes its last counters before it exits.
        let handle = self.handle();
        self.join();
        registry.record_shard_loads(handle.shard_loads());
        registry
    }

    /// Drains buffered events into the registry without blocking; with
    /// `wait`, blocks briefly first so a backpressure retry loop is not
    /// a busy spin.
    fn drain_into(&self, registry: &mut MetricsRegistry, wait: bool) {
        if wait {
            if let Ok(SessionEvent::Completed { report, .. }) = self
                .events
                .recv_timeout(std::time::Duration::from_millis(1))
            {
                registry.record(report);
            }
        }
        while let Ok(event) = self.events.try_recv() {
            if let SessionEvent::Completed { report, .. } = event {
                registry.record(report);
            }
        }
    }
}

/// The balancer: every `interval`, read shard loads and — when the
/// runnable gap justifies it — order the most loaded shard to migrate
/// live sessions toward the least loaded one. Exits when the stop
/// channel signals or disconnects (service drop/join).
fn balancer_loop(cfg: BalancerConfig, handle: ServiceHandle, stop: Receiver<()>) {
    loop {
        match stop.recv_timeout(cfg.interval) {
            Err(RecvTimeoutError::Timeout) => {}
            Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
        }
        let loads = handle.shard_loads();
        let Some(busiest) = loads.iter().max_by_key(|l| l.runnable) else {
            continue;
        };
        let Some(idlest) = loads.iter().min_by_key(|l| l.runnable) else {
            continue;
        };
        if busiest.shard == idlest.shard
            || busiest.runnable.saturating_sub(idlest.runnable) < cfg.min_imbalance
        {
            continue;
        }
        // Move half the gap (at least one), capped: the next round
        // re-measures rather than trusting a single stale reading.
        let count = (((busiest.runnable - idlest.runnable) / 2).max(1) as usize).min(cfg.max_moves);
        // Never block: a full control channel means the shard is busy —
        // skipping a round is cheaper than stalling the balancer.
        let _ = handle.controls[busiest.shard].try_send(SessionCommand::Rebalance {
            to: idlest.shard,
            count,
        });
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Every worker holds peer control senders (for migration
        // hand-offs), so the channels never disconnect on their own and
        // a shard parked on `recv` would otherwise sleep forever when a
        // Service is dropped without `join`. Ask each shard to drain
        // and exit; the threads finish asynchronously ([`Service::join`]
        // is still the way to wait for them).
        self.handle.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_of;
    use crate::spec::{ChannelSpec, RecoverySpec, SourceSpec};
    use foreco_forecast::ForecasterState;
    use foreco_store::Storage;
    use foreco_teleop::{Dataset, Skill};
    use std::sync::Arc;

    fn specs(n: u64) -> Vec<SessionSpec> {
        let dataset = Arc::new(Dataset::record(Skill::Inexperienced, 1, 0.02, 99).commands);
        (0..n)
            .map(|id| {
                SessionSpec::new(
                    id,
                    SourceSpec::Replayed(Arc::clone(&dataset)),
                    ChannelSpec::ControlledLoss {
                        burst_len: 5,
                        burst_prob: 0.01,
                        seed: id,
                    },
                    RecoverySpec::Baseline,
                )
            })
            .collect()
    }

    #[test]
    fn batch_run_collects_every_session() {
        let service = Service::spawn(ServiceConfig::with_shards(3));
        let registry = service.run_to_completion(specs(16));
        assert_eq!(registry.len(), 16);
        for id in 0..16 {
            assert!(registry.get(id).is_some(), "missing session {id}");
        }
    }

    #[test]
    fn batch_run_closes_gated_specs() {
        // A gated session with an empty queue suspends its clock until
        // its next slot or a close, so the batch driver must close it
        // like a streamed one or the registry never fills. Run on a
        // thread so a regression fails on the timeout instead of
        // hanging the suite.
        let home = niryo_one().home();
        let mut batch = specs(1);
        batch.push(SessionSpec::new(
            1,
            SourceSpec::Gated {
                initial: home,
                inbox_capacity: 4,
            },
            ChannelSpec::Ideal,
            RecoverySpec::Baseline,
        ));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let registry = Service::spawn(ServiceConfig::with_shards(2)).run_to_completion(batch);
            let _ = tx.send(registry);
        });
        let registry = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("run_to_completion hung on a gated spec");
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.get(1).expect("gated session reported").ticks, 0);
    }

    #[test]
    fn batch_run_survives_tiny_channel_bounds() {
        // Regression: with bounded channels far smaller than the batch,
        // a blocking open loop deadlocks against shards blocked on
        // event sends. run_to_completion must interleave draining.
        let config = ServiceConfig {
            shards: 2,
            control_capacity: 2,
            event_capacity: 2,
            ..Default::default()
        };
        let service = Service::spawn(config);
        let registry = service.run_to_completion(specs(64));
        assert_eq!(registry.len(), 64);
    }

    #[test]
    fn duplicate_open_rejected_without_killing_live_session() {
        let service = Service::spawn(ServiceConfig::with_shards(1));
        let handle = service.handle();
        let pair = specs(2);
        let mut duplicate = pair[0].clone();
        duplicate.id = pair[1].id; // collide with the second spec's id
        for spec in pair {
            handle.open(spec).unwrap();
        }
        handle.open(duplicate).unwrap();
        let (mut completed, mut duplicates) = (0, 0);
        while completed < 2 {
            match service.next_event().expect("service alive") {
                SessionEvent::Completed { .. } => completed += 1,
                SessionEvent::DuplicateSession { id } => {
                    assert_eq!(id, 1);
                    duplicates += 1;
                }
                _ => {}
            }
        }
        assert_eq!(
            duplicates, 1,
            "duplicate open must be rejected, not absorbed"
        );
        service.join();
    }

    #[test]
    fn try_open_returns_spec_on_backpressure() {
        // One shard, capacity-1 control channel, and no shard progress
        // guaranteed between sends: fill the channel until Backpressure
        // comes back, and verify the spec survives the round trip.
        let config = ServiceConfig {
            shards: 1,
            control_capacity: 1,
            ..Default::default()
        };
        let service = Service::spawn(config);
        let handle = service.handle();
        let mut bounced = None;
        for spec in specs(64) {
            if let Err((ServiceError::Backpressure, spec)) = handle.try_open(spec) {
                bounced = Some(spec);
                break;
            }
        }
        let bounced = bounced.expect("64 rapid opens at capacity 1 must bounce at least once");
        handle.open(bounced).expect("bounced spec still usable");
        service.join();
    }

    #[test]
    #[should_panic(expected = "duplicate session ids")]
    fn batch_run_rejects_duplicate_ids_upfront() {
        let mut batch = specs(4);
        batch[3].id = batch[0].id;
        Service::spawn(ServiceConfig::with_shards(2)).run_to_completion(batch);
    }

    #[test]
    fn events_report_opens_and_completions() {
        let service = Service::spawn(ServiceConfig::with_shards(2));
        let handle = service.handle();
        for spec in specs(4) {
            handle.open(spec).unwrap();
        }
        let mut opened = 0;
        let mut completed = 0;
        while completed < 4 {
            match service.next_event().expect("service alive") {
                SessionEvent::Opened { .. } => opened += 1,
                SessionEvent::Completed { .. } => completed += 1,
                _ => {}
            }
        }
        assert_eq!(opened, 4);
        service.join();
    }

    #[test]
    fn unknown_session_reported() {
        let service = Service::spawn(ServiceConfig::with_shards(1));
        let handle = service.handle();
        handle.close(123).unwrap();
        match service.next_event().expect("event") {
            SessionEvent::UnknownSession { id } => assert_eq!(id, 123),
            other => panic!("expected UnknownSession, got {other:?}"),
        }
        service.join();
    }

    #[test]
    fn snapshot_command_checkpoints_live_session() {
        let service = Service::spawn(ServiceConfig::with_shards(2));
        let handle = service.handle();
        let batch = specs(2);
        for spec in batch {
            handle.open(spec).unwrap();
        }
        let report = handle.snapshot_fleet(&[0]).unwrap();
        assert!(report.missing.is_empty(), "snapshot raced completion");
        assert!(report.failed.is_empty());
        let mut completed = 0;
        while completed < 2 {
            if let Some(SessionEvent::Completed { .. }) = service.next_event() {
                completed += 1;
            }
        }
        let mut sessions = report.archive.sessions().expect("frames decode");
        assert_eq!(sessions.len(), 1, "one checkpoint for one id");
        let snapshot = sessions.remove(0);
        assert_eq!(snapshot.id, 0);
        assert_eq!(snapshot.version, crate::snapshot::SNAPSHOT_VERSION);
        // The checkpoint survives a byte round trip.
        let bytes = snapshot.to_bytes();
        let back = crate::snapshot::SessionSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snapshot);
        service.join();
    }

    #[test]
    fn snapshot_fleet_narrates_checkpoints_only_while_observed() {
        // Checkpoint narration is observer-gated like parks: the state
        // rides the reply channel, so an unwatched fleet's event stream
        // never carries a `Snapshotted`.
        let home = niryo_one().home();
        let service = Service::spawn(ServiceConfig::with_shards(2));
        let handle = service.handle();
        for id in 0..4u64 {
            handle
                .open(SessionSpec::new(
                    id,
                    SourceSpec::Streamed {
                        initial: home.clone(),
                        inbox_capacity: 4,
                    },
                    ChannelSpec::Ideal,
                    RecoverySpec::Baseline,
                ))
                .unwrap();
        }
        // Shards send a part's narration before its reply, so every
        // event a checkpoint caused is buffered once `snapshot_fleet`
        // returns.
        let narrated = |service: &Service| {
            let mut ids = Vec::new();
            while let EventWait::Event(event) = service.next_event_timeout(Duration::ZERO) {
                if let SessionEvent::Snapshotted { id, .. } = event {
                    ids.push(id);
                }
            }
            ids.sort_unstable();
            ids
        };
        let ids = [0, 1, 2, 3];
        assert_eq!(handle.snapshot_fleet(&ids).unwrap().archive.len(), 4);
        assert_eq!(narrated(&service), Vec::<u64>::new(), "nobody watching");
        handle.attach_observer();
        assert_eq!(handle.snapshot_fleet(&ids).unwrap().archive.len(), 4);
        assert_eq!(narrated(&service), ids, "one narration per checkpoint");
        handle.detach_observer();
        for id in ids {
            handle.close(id).unwrap();
        }
        let mut completed = 0;
        while completed < ids.len() {
            if let Some(SessionEvent::Completed { .. }) = service.next_event() {
                completed += 1;
            }
        }
        service.join();
    }

    #[test]
    fn migrate_moves_session_and_routing_follows() {
        let service = Service::spawn(ServiceConfig::with_shards(4));
        let handle = service.handle();
        let batch = specs(8);
        let ids: Vec<u64> = batch.iter().map(|s| s.id).collect();
        for spec in batch {
            handle.open(spec).unwrap();
        }
        // Move every session off its home shard immediately.
        for &id in &ids {
            let home = shard_of(id, 4);
            handle.migrate(id, (home + 1) % 4).unwrap();
        }
        let mut migrated = 0;
        let mut restored = 0;
        let mut completed = 0;
        while completed < ids.len() {
            match service.next_event().expect("service alive") {
                SessionEvent::Migrated { from, to, .. } => {
                    assert_ne!(from, to, "no-op migrations not requested here");
                    migrated += 1;
                }
                SessionEvent::Restored { id, shard, .. } => {
                    assert_eq!(shard, (shard_of(id, 4) + 1) % 4);
                    restored += 1;
                }
                SessionEvent::Opened { .. } => {}
                SessionEvent::Completed { .. } => completed += 1,
                SessionEvent::UnknownSession { .. } => {
                    // The session completed before its migrate arrived —
                    // legal in this race, just not counted as a move.
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(migrated, restored, "every departure must land");
        assert!(migrated > 0, "no migration ever happened");
        service.join();
    }

    #[test]
    fn adopt_rehydrates_into_a_fresh_service() {
        // Simulate a process restart: checkpoint a session in service A,
        // tear A down, revive the checkpoint in service B. B's report
        // must be bit-identical to A's uninterrupted twin.
        let twin = Service::spawn(ServiceConfig::with_shards(1))
            .run_to_completion(specs(1))
            .reports()
            .next()
            .cloned()
            .expect("twin report");

        let a = Service::spawn(ServiceConfig::with_shards(1));
        let handle = a.handle();
        handle.open(specs(1).remove(0)).unwrap();
        let checkpoint = handle.snapshot_fleet(&[0]).unwrap();
        assert_eq!(checkpoint.archive.len(), 1, "snapshot raced completion");
        let bytes = checkpoint.archive.to_bytes();
        a.join(); // "the process dies"

        let b = Service::spawn(ServiceConfig::with_shards(1));
        let archive = FleetArchive::from_bytes(&bytes).unwrap();
        let sent = b.handle().adopt_fleet(archive, &Storage::new()).unwrap();
        assert_eq!(sent, 1);
        let report = loop {
            match b.next_event().expect("service alive") {
                SessionEvent::Restored { id, .. } => assert_eq!(id, 0),
                SessionEvent::Completed { report, .. } => break report,
                other => panic!("unexpected event {other:?}"),
            }
        };
        b.join();
        assert_eq!(report.misses, twin.misses);
        assert_eq!(report.ticks, twin.ticks);
        assert_eq!(report.rmse_mm.to_bits(), twin.rmse_mm.to_bits());
        assert_eq!(
            report.max_deviation_mm.to_bits(),
            twin.max_deviation_mm.to_bits()
        );
    }

    #[test]
    fn migration_keeps_a_stored_trace_claimed() {
        // A migrated stored-trace session must keep claiming the shared
        // trace on its new shard, not ride on a private inline copy the
        // store knows nothing about, and keep the trajectory it shares
        // with its fleet, scoring bit-identically to a storeless
        // `Replayed` twin. A migrated `Replayed` fleet must keep its
        // shared trajectory too. Real-time pacing keeps every session
        // running until the moves have landed.
        const FLEET: u64 = 8;
        let storage = Storage::new();
        let trace = storage.insert_trace_owned(
            Dataset::record(Skill::Inexperienced, 1, 0.02, 99)
                .head(150)
                .commands,
        );
        let batch: Vec<SessionSpec> = (0..FLEET)
            .map(|id| {
                SessionSpec::new(
                    id,
                    SourceSpec::Stored(trace.clone()),
                    ChannelSpec::ControlledLoss {
                        burst_len: 5,
                        burst_prob: 0.01,
                        seed: id,
                    },
                    RecoverySpec::Baseline,
                )
            })
            .collect();
        let live: Vec<SessionSpec> = batch
            .iter()
            .cloned()
            .map(|mut spec| {
                spec.source = SourceSpec::Replayed(Arc::clone(trace.commands()));
                spec
            })
            .collect();
        let twin = Service::spawn(ServiceConfig::with_shards(2)).run_to_completion(live.clone());
        drop(trace); // from here the specs, then the sessions, hold the only claims

        // Opens `batch` on a real-time 2-shard service and moves every
        // session to the other shard, waiting until each move landed.
        let migrate_all = |batch: Vec<SessionSpec>| {
            let service = Service::spawn(ServiceConfig {
                shards: 2,
                pacing: Pacing::RealTime,
                ..Default::default()
            });
            let handle = service.handle();
            for spec in batch {
                handle.open(spec).unwrap();
            }
            for id in 0..FLEET {
                handle.migrate(id, (shard_of(id, 2) + 1) % 2).unwrap();
            }
            let mut restored = 0;
            while restored < FLEET {
                match service.next_event().expect("service alive") {
                    SessionEvent::Restored { .. } => restored += 1,
                    SessionEvent::Opened { .. } | SessionEvent::Migrated { .. } => {}
                    other => panic!("unexpected event before every move landed: {other:?}"),
                }
            }
            service
        };
        // Runs a migrated fleet out against the unmigrated twin and
        // returns its trajectory builds.
        let finish = |service: Service| {
            let handle = service.handle();
            let mut completed = 0;
            while completed < FLEET {
                if let Some(SessionEvent::Completed { id, report }) = service.next_event() {
                    completed += 1;
                    let want = twin.get(id).expect("twin report");
                    assert_eq!(report.ticks, want.ticks, "session {id}: ticks");
                    assert_eq!(report.misses, want.misses, "session {id}: misses");
                    assert_eq!(
                        report.rmse_mm.to_bits(),
                        want.rmse_mm.to_bits(),
                        "session {id}: rmse"
                    );
                    assert_eq!(
                        report.max_deviation_mm.to_bits(),
                        want.max_deviation_mm.to_bits(),
                        "session {id}: max deviation"
                    );
                }
            }
            service.join();
            handle
                .shard_loads()
                .iter()
                .map(|l| l.reference_builds)
                .sum::<u64>()
        };
        // Each shard builds the trajectory once, at its first open: a
        // migrated session carries its pin to the other shard, which
        // builds nothing for it.
        let service = migrate_all(batch);
        let traces = storage.stats().traces;
        assert_eq!(traces.objects, 1, "the trace must stay resident");
        assert_eq!(traces.claims, FLEET, "every migrated session claims it");
        let builds = finish(service);
        assert_eq!(
            storage.stats().traces.objects,
            0,
            "the last claim drop evicts the trace"
        );
        assert_eq!(
            builds, 2,
            "stored: {builds} trajectory builds for {FLEET} sessions"
        );

        // The same fleet on one replayed `Arc`.
        let builds = finish(migrate_all(live));
        assert_eq!(
            builds, 2,
            "replayed: {builds} trajectory builds for {FLEET} sessions"
        );
    }

    #[test]
    fn unsnapshotable_session_migrates_bit_identically() {
        // A forecaster with no checkpoint form makes a session
        // unsnapshotable, but a migration moves the live session, so it
        // moves all the same and reports as if it had stayed put. A
        // gated source makes both runs exact: its clock advances only
        // on the slots fed to it.
        use crate::spec::SharedForecaster;
        use foreco_core::RecoveryConfig;
        use foreco_forecast::{ForecastScratch, Forecaster, HistoryView, Var};
        use std::time::{Duration, Instant};

        /// A VAR without `export_state`; everything else delegates.
        struct Opaque(Var);
        impl Forecaster for Opaque {
            fn history_len(&self) -> usize {
                self.0.history_len()
            }
            fn dims(&self) -> usize {
                self.0.dims()
            }
            fn name(&self) -> &'static str {
                "opaque"
            }
            fn forecast_into(
                &self,
                history: &HistoryView<'_>,
                scratch: &mut ForecastScratch,
                out: &mut [f64],
            ) {
                self.0.forecast_into(history, scratch, out)
            }
        }

        const ID: u64 = 3;
        const HALF: usize = 60;
        let model = niryo_one();
        let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
        let var = Var::fit_differenced(&train, 5, 1e-6).unwrap();
        let rows = Dataset::record(Skill::Inexperienced, 1, 0.02, 99)
            .head(2 * HALF)
            .commands;
        let spec = SessionSpec::new(
            ID,
            SourceSpec::Gated {
                initial: model.clamp(&rows[0]),
                inbox_capacity: 2 * HALF,
            },
            ChannelSpec::Ideal,
            RecoverySpec::FoReCo {
                forecaster: SharedForecaster::new(Opaque(var)),
                config: RecoveryConfig::for_model(&model),
            },
        );
        // Feeds the rows in `range`, every seventh slot lost.
        let feed = |handle: &ServiceHandle, range: std::ops::Range<usize>| {
            for i in range {
                if i % 7 == 6 {
                    handle.inject_miss(ID).unwrap();
                } else {
                    handle.inject(ID, rows[i].clone()).unwrap();
                }
            }
        };
        let run = |migrate: bool| {
            let service = Service::spawn(ServiceConfig::with_shards(2));
            let handle = service.handle();
            let home = shard_of(ID, 2);
            handle.open(spec.clone()).unwrap();
            feed(&handle, 0..HALF);
            // Let the first half run out, so the move lands mid-run.
            let deadline = Instant::now() + Duration::from_secs(30);
            while handle.shard_loads()[home].ticks < HALF as u64 {
                assert!(Instant::now() < deadline, "the first half never ran");
                std::thread::sleep(Duration::from_millis(1));
            }
            if migrate {
                handle.migrate(ID, 1 - home).unwrap();
                loop {
                    match service.next_event().expect("service alive") {
                        SessionEvent::Restored { shard, tick, .. } => {
                            assert_eq!((shard, tick), (1 - home, HALF as u64));
                            break;
                        }
                        SessionEvent::SnapshotFailed { reason, .. } => {
                            panic!("the session stayed put: {reason}")
                        }
                        _ => {}
                    }
                }
            }
            feed(&handle, HALF..2 * HALF);
            handle.close(ID).unwrap();
            let report = loop {
                if let Some(SessionEvent::Completed { report, .. }) = service.next_event() {
                    break report;
                }
            };
            service.join();
            (report, handle.shard_loads()[1 - home].migrated_in)
        };
        let (stayed, _) = run(false);
        let (moved, migrated_in) = run(true);
        assert_eq!(migrated_in, 1, "the session moved");
        assert_eq!(moved.ticks, 2 * HALF as u64);
        assert!(moved.misses > 0, "the forecaster must cover some slots");
        assert_eq!(moved, stayed, "reports must be bit-identical");
        assert_eq!(moved.rmse_mm.to_bits(), stayed.rmse_mm.to_bits());
        assert_eq!(
            moved.max_deviation_mm.to_bits(),
            stayed.max_deviation_mm.to_bits()
        );
    }

    #[test]
    fn migrate_rejects_out_of_range_shard() {
        let service = Service::spawn(ServiceConfig::with_shards(2));
        let handle = service.handle();
        assert_eq!(handle.shards(), 2);
        let err = handle.migrate(0, 5).expect_err("shard 5 of 2 must fail");
        assert_eq!(
            err,
            ServiceError::NoSuchShard {
                shard: 5,
                shards: 2
            }
        );
        // ServiceError is a real std error for caller/test ergonomics.
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("no shard 5"));
        service.join();
    }

    #[test]
    fn bidirectional_migration_with_tiny_control_channels_does_not_deadlock() {
        // Regression: migration hand-offs must never block the shard
        // loop. With capacity-2 control channels and sessions migrating
        // in both directions at once, a blocking `send` in the Migrate
        // arm deadlocks the pool (each shard stuck writing to the
        // other's full channel, neither draining its own).
        let config = ServiceConfig {
            shards: 2,
            control_capacity: 2,
            ..Default::default()
        };
        let service = Service::spawn(config);
        let handle = service.handle();
        let batch = specs(12);
        for spec in batch {
            handle.open(spec).unwrap();
        }
        for round in 0..3usize {
            for id in 0..12u64 {
                // Ping-pong: odd rounds send everything to shard 0,
                // even rounds to shard 1 — guaranteed cross-traffic.
                handle.migrate(id, round % 2).unwrap();
            }
        }
        let mut completed = 0;
        while completed < 12 {
            if let Some(SessionEvent::Completed { .. }) = service.next_event() {
                completed += 1;
            }
        }
        service.join();
    }

    #[test]
    fn dropped_service_unwinds_its_shards() {
        // Regression: workers hold peer control senders, so channel
        // disconnection alone can't wake a parked shard — dropping a
        // Service without join() must still shut the threads down (via
        // the Drop impl) instead of leaking them.
        let service = Service::spawn(ServiceConfig::with_shards(2));
        let handle = service.handle();
        drop(service); // no join
        let ids: Vec<u64> = (0..2)
            .map(|s| (0..).find(|&id| shard_of(id, 2) == s).unwrap())
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        for id in ids {
            // Once the worker exits, its control receiver drops and
            // sends start failing with Disconnected.
            loop {
                match handle.close(id) {
                    Err(ServiceError::Disconnected) => break,
                    _ => {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "shard owning session {id} never exited after drop"
                        );
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    #[test]
    fn handle_errors_after_shutdown_are_matchable() {
        let service = Service::spawn(ServiceConfig::with_shards(1));
        let handle = service.handle();
        service.join();
        assert_eq!(
            handle.snapshot_fleet(&[0]).expect_err("pool is gone"),
            ServiceError::Disconnected
        );
        assert_eq!(
            handle.inject(0, vec![0.0]).expect_err("pool is gone"),
            ServiceError::Disconnected
        );
        let err: Box<dyn std::error::Error> = Box::new(handle.close(0).expect_err("still gone"));
        assert!(err.to_string().contains("terminated"));
    }

    #[test]
    fn event_driven_parks_idle_streams_and_traffic_wakes_them() {
        // One shard, a fleet of silent streamed sessions: the scheduler
        // must park them all (zero wakeups while parked), wake on
        // traffic, and still complete every session on close.
        let model = niryo_one();
        let home = model.home();
        let service = Service::spawn(ServiceConfig::with_shards(1));
        let handle = service.handle();
        const FLEET: u64 = 32;
        for id in 0..FLEET {
            handle
                .open(SessionSpec::new(
                    id,
                    SourceSpec::Streamed {
                        initial: home.clone(),
                        inbox_capacity: 4,
                    },
                    ChannelSpec::Ideal,
                    RecoverySpec::Baseline,
                ))
                .unwrap();
        }
        // Baseline sessions settle within a few ticks; wait for the
        // whole fleet to park.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let load = &handle.shard_loads()[0];
            if load.parked == FLEET && load.runnable == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "fleet never parked: {load:?}"
            );
            std::thread::yield_now();
        }
        // Parked fleet: the shard is quiescent, so the wakeup counter
        // must stop moving entirely.
        let before = handle.shard_loads()[0].wakeups;
        std::thread::sleep(std::time::Duration::from_millis(50));
        let after = handle.shard_loads()[0].wakeups;
        assert_eq!(
            before, after,
            "parked sessions must cost zero advances while idle"
        );
        // Traffic wakes exactly its target.
        handle.inject(3, home.clone()).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let load = &handle.shard_loads()[0];
            if load.wakeups > after && load.traffic_wakeups >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "inject never woke the session: {load:?}"
            );
            std::thread::yield_now();
        }
        // Close everything; every session must still report.
        for id in 0..FLEET {
            handle.close(id).unwrap();
        }
        let mut completed = 0;
        while completed < FLEET {
            if let Some(SessionEvent::Completed { .. }) = service.next_event() {
                completed += 1;
            }
        }
        service.join();
    }

    /// A silent streamed FoReCo VAR session run to its parked fixed
    /// point, as a snapshot. A fresh session's PIDs take thousands of
    /// ticks to get there, so fleet tests adopt copies of this one donor
    /// instead of settling every session.
    fn parked_donor() -> SessionSnapshot {
        use crate::session::{Advance, Session, Wake};
        use crate::spec::SharedForecaster;
        use foreco_core::RecoveryConfig;

        let model = niryo_one();
        let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
        let var = foreco_forecast::Var::fit_differenced(&train, 5, 1e-6).unwrap();
        let mut donor = Session::open(
            &SessionSpec::new(
                0,
                SourceSpec::Streamed {
                    initial: model.home(),
                    inbox_capacity: 4,
                },
                ChannelSpec::Ideal,
                RecoverySpec::FoReCo {
                    forecaster: SharedForecaster::new(var),
                    config: RecoveryConfig::for_model(&model),
                },
            ),
            &model,
        );
        while matches!(donor.advance(), Advance::Ticked(Wake::Runnable)) {}
        assert_eq!(donor.wake_hint(), Wake::AwaitingInput);
        donor.snapshot().unwrap()
    }

    #[test]
    fn parked_shard_publishes_control_only_work_before_blocking() {
        // Adoptions that park on arrival run no scheduling pass: the
        // shard handles each one and goes straight back to blocking on
        // its control channel. The telemetry plane must still show the
        // fleet without any traffic to force a pass.
        use std::time::{Duration, Instant};

        const FLEET: u64 = 16;
        let parked = parked_donor();
        let service = Service::spawn(ServiceConfig::with_shards(1));
        let handle = service.handle();
        for id in 0..FLEET {
            handle
                .adopt(SessionSnapshot {
                    id,
                    ..parked.clone()
                })
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let load = loop {
            let load = handle.shard_loads().remove(0);
            if load.sessions == FLEET && load.parked == FLEET {
                break load;
            }
            assert!(
                Instant::now() < deadline,
                "adopted fleet never published: {load:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(load.adoptions, FLEET);
        assert_eq!(load.migrated_in, 0, "an adoption is no migration");
        assert_eq!(load.passes, 0, "parks on arrival need no pass");
        for id in 0..FLEET {
            handle.close(id).unwrap();
        }
        let mut completed = 0;
        while completed < FLEET {
            if let Some(SessionEvent::Completed { .. }) = service.next_event() {
                completed += 1;
            }
        }
        service.join();
    }

    #[test]
    fn realtime_shard_hears_control_while_it_waits_for_its_slot() {
        // A real-time shard with live work waits for its next 50 Hz slot
        // on its control channel, so a checkpoint is answered when it
        // arrives, not after the slot. Back-to-back snapshots of the one
        // runnable session then cost far fewer passes than calls; a
        // shard that slept through its slot would spend about one pass
        // (20 ms) per call.
        use std::time::{Duration, Instant};

        const CALLS: u64 = 20;
        let mut spec = specs(1).remove(0);
        spec.source = SourceSpec::Replayed(Arc::new(
            Dataset::record(Skill::Inexperienced, 1, 0.02, 99)
                .head(150)
                .commands,
        ));
        let service = Service::spawn(ServiceConfig {
            shards: 1,
            pacing: Pacing::RealTime,
            ..Default::default()
        });
        let handle = service.handle();
        handle.open(spec).unwrap();
        let passes = || handle.shard_loads().remove(0).passes;
        let deadline = Instant::now() + Duration::from_secs(30);
        while passes() == 0 {
            assert!(Instant::now() < deadline, "the session never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        let before = passes();
        for _ in 0..CALLS {
            let report = handle.snapshot_fleet(&[0]).unwrap();
            assert!(report.missing.is_empty() && report.failed.is_empty());
        }
        let spent = passes() - before;
        assert!(
            spent <= CALLS / 2,
            "{CALLS} snapshots waited out {spent} slots"
        );
        service.join();
    }

    #[test]
    fn realtime_shard_sleeps_while_its_fleet_is_parked() {
        // A real-time shard with nothing runnable blocks like any other:
        // no pass, no wakeup while the fleet sleeps. The slots it slept
        // through still reach the parked sessions as backlog when they
        // wake, so each closes at least that many ticks past its donor.
        // Load can lengthen the sleep, never shorten it: lower bounds.
        use crate::clock::TICK_PERIOD;
        use std::time::{Duration, Instant};

        const FLEET: u64 = 4;
        let parked = parked_donor();
        let service = Service::spawn(ServiceConfig {
            shards: 1,
            pacing: Pacing::RealTime,
            ..Default::default()
        });
        let handle = service.handle();
        for id in 0..FLEET {
            handle
                .adopt(SessionSnapshot {
                    id,
                    ..parked.clone()
                })
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let before = loop {
            let load = handle.shard_loads().remove(0);
            if load.sessions == FLEET && load.parked == FLEET {
                break load;
            }
            assert!(
                Instant::now() < deadline,
                "the fleet never parked: {load:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        let asleep = Instant::now();
        std::thread::sleep(Duration::from_millis(200));
        let after = handle.shard_loads().remove(0);
        assert_eq!(
            (after.passes, after.wakeups),
            (before.passes, before.wakeups),
            "a parked real-time shard ran passes while asleep"
        );
        let slept = asleep.elapsed();
        let slots = (slept.as_secs_f64() / TICK_PERIOD) as u64;
        for id in 0..FLEET {
            handle.close(id).unwrap();
        }
        let mut completed = 0;
        while completed < FLEET {
            if let Some(SessionEvent::Completed { id, report }) = service.next_event() {
                assert!(
                    report.ticks >= parked.tick + slots,
                    "session {id} closed at tick {} after {slept:?} asleep from tick {}",
                    report.ticks,
                    parked.tick
                );
                completed += 1;
            }
        }
        service.join();
    }

    #[test]
    fn idle_fleet_wakeups_track_the_hot_set_not_the_fleet() {
        // The event scheduler's scaling claim as a count: with most of
        // a parked fleet silent, each pass advances at most the hot
        // sessions. Wakeups are session advances, and a pass advances
        // only its run queue. A silent streamed session parks
        // `AwaitingInput`. The one slack: a shard publishes `passes`
        // before `wakeups` after each pass, so a read during the hot
        // phase can see one pass's wakeups ahead of its pass count. The
        // eager sweep advances the whole fleet every pass and breaks
        // the bound by FLEET / HOT.
        use std::time::Duration;

        const FLEET: u64 = 256;
        const HOT: u64 = 8; // ~3% of the fleet
        const ROUNDS: u64 = 20;
        let home = niryo_one().home();
        let parked = parked_donor();
        let service = Service::spawn(ServiceConfig::with_shards(1));
        let handle = service.handle();
        for id in 0..FLEET {
            handle
                .adopt(SessionSnapshot {
                    id,
                    ..parked.clone()
                })
                .unwrap();
        }
        // Each adoption parks on arrival (`AwaitingInput`), so the shard
        // runs no pass before the hot phase: its pass and wakeup counts
        // are exact here whether or not it has published them yet.
        let mut restored = 0;
        while restored < FLEET {
            match service.next_event().unwrap() {
                SessionEvent::Restored { .. } => restored += 1,
                SessionEvent::RestoreFailed { reason, .. } => panic!("{reason}"),
                _ => {}
            }
        }
        let before = handle.shard_loads().remove(0);
        for round in 0..ROUNDS {
            for id in 0..HOT {
                let mut cmd = home.clone();
                cmd[round as usize % home.len()] += 0.01 * ((round % 5) as f64 - 2.0);
                let _ = handle.inject(id, cmd); // a full inbox is a loss
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Wait for the shard to take up the traffic; the sample is read
        // mid-activity, while the hot sessions still run.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let after = loop {
            let load = handle.shard_loads().remove(0);
            if load.passes > before.passes && load.wakeups > before.wakeups {
                break load;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the hot set never ran: {load:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        let passes = after.passes - before.passes;
        let wakeups = after.wakeups - before.wakeups;
        assert!(
            wakeups <= HOT * (passes + 1),
            "{wakeups} wakeups over {passes} passes: more than the {HOT} hot sessions per pass"
        );
        assert_eq!(after.sessions, FLEET);
        assert!(
            after.parked >= FLEET - HOT,
            "a silent session left the park: {after:?}"
        );
        for id in 0..FLEET {
            handle.close(id).unwrap();
        }
        let mut completed = 0;
        while completed < FLEET {
            if let Some(SessionEvent::Completed { .. }) = service.next_event() {
                completed += 1;
            }
        }
        service.join();
    }

    #[test]
    fn rebalance_migrates_runnable_sessions() {
        // All sessions on shard 0 (by id choice), then a manual
        // rebalance order: live sessions must move to shard 1 through
        // the ordinary bit-invisible migration path.
        let service = Service::spawn(ServiceConfig::with_shards(2));
        let handle = service.handle();
        let dataset = Arc::new(Dataset::record(Skill::Inexperienced, 3, 0.02, 99).commands);
        let ids: Vec<u64> = (0..).filter(|&id| shard_of(id, 2) == 0).take(8).collect();
        for &id in &ids {
            handle
                .open(SessionSpec::new(
                    id,
                    SourceSpec::Replayed(Arc::clone(&dataset)),
                    ChannelSpec::Ideal,
                    RecoverySpec::Baseline,
                ))
                .unwrap();
        }
        handle.rebalance(0, 1, 3).unwrap();
        let mut migrated = 0;
        let mut restored = 0;
        let mut completed = 0;
        while completed < ids.len() {
            match service.next_event().expect("service alive") {
                SessionEvent::Migrated { from, to, .. } => {
                    assert_eq!((from, to), (0, 1));
                    migrated += 1;
                }
                SessionEvent::Restored { shard, .. } => {
                    assert_eq!(shard, 1);
                    restored += 1;
                }
                SessionEvent::Completed { .. } => completed += 1,
                _ => {}
            }
        }
        assert_eq!(migrated, restored, "every departure must land");
        assert!(
            migrated > 0,
            "rebalance of a loaded shard must move something"
        );
        let loads = handle.shard_loads();
        assert_eq!(loads[0].migrated_out, migrated);
        assert_eq!(loads[1].migrated_in, migrated);
        assert_eq!(loads[1].adoptions, 0, "a migration is no adoption");
        service.join();
        // Out-of-range shards are rejected up front.
        assert!(matches!(
            ServiceHandle::rebalance(&handle, 0, 9, 1),
            Err(ServiceError::NoSuchShard { shard: 9, .. })
        ));
    }

    #[test]
    fn balancer_evens_out_a_loaded_shard() {
        // Pile long scripted sessions onto shard 0 of a balanced pool;
        // the balancer must notice the runnable gap and order moves.
        let config = ServiceConfig {
            balancer: Some(BalancerConfig {
                interval: Duration::from_millis(2),
                min_imbalance: 2,
                max_moves: 4,
            }),
            ..ServiceConfig::with_shards(2)
        };
        let service = Service::spawn(config);
        let handle = service.handle();
        let dataset = Arc::new(Dataset::record(Skill::Inexperienced, 4, 0.02, 42).commands);
        let ids: Vec<u64> = (0..).filter(|&id| shard_of(id, 2) == 0).take(12).collect();
        for &id in &ids {
            handle
                .open(SessionSpec::new(
                    id,
                    SourceSpec::Replayed(Arc::clone(&dataset)),
                    ChannelSpec::ControlledLoss {
                        burst_len: 5,
                        burst_prob: 0.01,
                        seed: id,
                    },
                    RecoverySpec::Baseline,
                ))
                .unwrap();
        }
        let mut migrated = 0;
        let mut completed = 0;
        while completed < ids.len() {
            match service.next_event().expect("service alive") {
                // Counts the initial-imbalance direction; late in the run
                // the gap can legally reverse as sessions finish.
                SessionEvent::Migrated { from: 0, to: 1, .. } => migrated += 1,
                SessionEvent::Completed { .. } => completed += 1,
                _ => {}
            }
        }
        assert!(
            migrated > 0,
            "balancer never rebalanced a 12-vs-0 runnable split"
        );
        service.join();
    }

    #[test]
    fn next_event_timeout_is_a_bounded_wait() {
        let service = Service::spawn(ServiceConfig::with_shards(1));
        assert_eq!(
            service.next_event_timeout(Duration::from_millis(5)),
            EventWait::TimedOut
        );
        let handle = service.handle();
        handle.open(specs(1).remove(0)).unwrap();
        // Something must arrive within a generous bound.
        match service.next_event_timeout(Duration::from_secs(30)) {
            EventWait::Event(_) => {}
            other => panic!("expected an event, got {other:?}"),
        }
        service.join();
    }

    #[test]
    fn snapshot_fleet_archives_parked_sessions_and_skips_unknown_ids() {
        use crate::session::Session;
        use foreco_robot::niryo_one;

        // Streamed sessions with no traffic park at their idle fixed
        // point and never complete, so the bulk checkpoint cannot race
        // session completion: per-shard control FIFO puts every
        // `SnapshotInto` behind its `Open`.
        let home = Dataset::record(Skill::Experienced, 1, 0.02, 3).commands[0].clone();
        let service = Service::spawn(ServiceConfig::with_shards(2));
        let handle = service.handle();
        for id in 0..4u64 {
            handle
                .open(SessionSpec::new(
                    id,
                    SourceSpec::Streamed {
                        initial: home.clone(),
                        inbox_capacity: 8,
                    },
                    ChannelSpec::ControlledLoss {
                        burst_len: 5,
                        burst_prob: 0.01,
                        seed: id,
                    },
                    RecoverySpec::Baseline,
                ))
                .unwrap();
        }
        let report = handle.snapshot_fleet(&[0, 1, 2, 3, 99]).unwrap();
        assert_eq!(report.archive.len(), 4);
        assert_eq!(
            report.missing,
            vec![99],
            "unknown id 99 must be reported, not silently dropped"
        );
        assert!(report.failed.is_empty());
        assert!(
            report.archive.traces().is_empty(),
            "streamed sessions contribute no trace table"
        );
        // Archived parts are plain self-contained snapshots, so each
        // one restores directly.
        let model = niryo_one();
        for snapshot in report.archive.sessions().expect("frames decode") {
            Session::restore(&snapshot, &model).expect("streamed part restores");
        }
        for id in 0..4 {
            handle.close(id).unwrap();
        }
        let mut completed = 0;
        while completed < 4 {
            if let Some(SessionEvent::Completed { .. }) = service.next_event() {
                completed += 1;
            }
        }
        service.join();
    }

    #[test]
    fn adopt_fleet_revives_archive_with_one_shared_trace() {
        use crate::archive::FleetArchive;
        use crate::session::{Advance, Session};
        use foreco_robot::niryo_one;
        use foreco_store::Storage;

        // Donors are built directly (a live unpaced pool would race
        // scripted sessions to completion before the checkpoint): all
        // replay one Arc'd trace, snapshot at staggered ticks.
        let model = niryo_one();
        let batch = specs(6);
        let mut parts = Vec::new();
        let mut donors = std::collections::HashMap::new();
        for (i, spec) in batch.iter().enumerate() {
            let mut session = Session::open(spec, &model);
            for _ in 0..i * 40 {
                session.advance();
            }
            parts.push(session.snapshot_for_fleet().expect("fleet part"));
            let report = loop {
                if let Advance::Completed(report) = session.advance() {
                    break *report;
                }
            };
            donors.insert(spec.id, report);
        }
        let archive = FleetArchive::build(parts);
        assert_eq!(archive.len(), 6);
        assert_eq!(archive.traces().len(), 1, "one shared trace, stored once");

        let service = Service::spawn(ServiceConfig::with_shards(3));
        let storage = Storage::new();
        let sent = service
            .handle()
            .adopt_fleet(archive, &storage)
            .expect("adopt fleet");
        assert_eq!(sent, 6);
        assert_eq!(
            storage.stats().traces.objects,
            1,
            "the trace table files exactly one object"
        );
        let mut restored = 0;
        let mut completed = 0;
        while completed < 6 {
            match service.next_event().expect("service alive") {
                SessionEvent::Restored { .. } => restored += 1,
                SessionEvent::Completed { id, report } => {
                    completed += 1;
                    let donor = &donors[&id];
                    assert_eq!(report.ticks, donor.ticks, "session {id}: ticks");
                    assert_eq!(report.misses, donor.misses, "session {id}: misses");
                    assert_eq!(
                        report.rmse_mm.to_bits(),
                        donor.rmse_mm.to_bits(),
                        "session {id}: rmse"
                    );
                    assert_eq!(
                        report.max_deviation_mm.to_bits(),
                        donor.max_deviation_mm.to_bits(),
                        "session {id}: max deviation"
                    );
                }
                SessionEvent::RestoreFailed { id, reason } => {
                    panic!("session {id} failed to restore: {reason}")
                }
                _ => {}
            }
        }
        assert_eq!(restored, 6, "every adoption must report Restored");
        service.join();
    }

    #[test]
    fn adopt_fleet_drops_a_trace_entry_whose_rows_mismatch_its_id() {
        use crate::archive::FleetArchive;
        use crate::session::Session;
        use foreco_robot::niryo_one;
        use foreco_store::Storage;

        // Two parts on one trace; the table files it under its real id
        // but with one row perturbed, so the rows hash elsewhere.
        let model = niryo_one();
        let mut parts = Vec::new();
        for spec in specs(2) {
            let mut session = Session::open(&spec, &model);
            for _ in 0..10 {
                session.advance();
            }
            parts.push(session.snapshot_for_fleet().expect("fleet part"));
        }
        let (id, rows) = parts[0].1.clone().expect("a scripted part names its trace");
        let mut tampered = rows.to_vec();
        tampered[3][0] += 1e-9;
        let mut archive = FleetArchive::new();
        archive.push_trace(id, &tampered);
        for (snapshot, _) in &parts {
            archive.push_part(snapshot);
        }

        let service = Service::spawn(ServiceConfig::with_shards(1));
        let storage = Storage::new();
        assert_eq!(service.handle().adopt_fleet(archive, &storage).unwrap(), 2);
        assert_eq!(
            storage.stats().traces.objects,
            0,
            "the mismatched rows must not stay resident"
        );
        let mut failed = Vec::new();
        while failed.len() < 2 {
            match service.next_event().expect("service alive") {
                SessionEvent::RestoreFailed { id, .. } => failed.push(id),
                SessionEvent::Restored { id, .. } => {
                    panic!("session {id} restored without its trace")
                }
                _ => {}
            }
        }
        failed.sort_unstable();
        assert_eq!(failed, [0, 1]);
        assert_eq!(storage.stats().traces.objects, 0);
        service.join();
    }

    /// By-reference parts of sessions `ids` replaying `rows`, each ten
    /// ticks in, and the rows' content address.
    fn replayed_parts(
        rows: &[Vec<f64>],
        ids: std::ops::Range<u64>,
    ) -> (ObjectId, Vec<SessionSnapshot>) {
        use crate::session::Session;

        let script = Arc::new(rows.to_vec());
        let model = niryo_one();
        let parts = ids
            .map(|id| {
                let spec = SessionSpec::new(
                    id,
                    SourceSpec::Replayed(Arc::clone(&script)),
                    ChannelSpec::ControlledLoss {
                        burst_len: 5,
                        burst_prob: 0.01,
                        seed: id,
                    },
                    RecoverySpec::Baseline,
                );
                let mut session = Session::open(&spec, &model);
                for _ in 0..10 {
                    session.advance();
                }
                session.snapshot_for_fleet().expect("fleet part").0
            })
            .collect();
        (foreco_store::trace_object_id(rows), parts)
    }

    /// Waits for one `Restored` or `RestoreFailed` per adopted part;
    /// returns the restored ids and the failures, sorted.
    fn restore_outcomes(service: &Service, parts: usize) -> (Vec<u64>, Vec<(u64, String)>) {
        let (mut restored, mut failed) = (Vec::new(), Vec::new());
        while restored.len() + failed.len() < parts {
            match service.next_event().expect("service alive") {
                SessionEvent::Restored { id, .. } => restored.push(id),
                SessionEvent::RestoreFailed { id, reason } => failed.push((id, reason)),
                _ => {}
            }
        }
        restored.sort_unstable();
        failed.sort_unstable();
        (restored, failed)
    }

    #[test]
    fn adopt_fleet_fails_only_the_sessions_of_a_corrupt_entry() {
        use crate::archive::FleetArchive;
        use crate::session::Session;

        let good = Dataset::record(Skill::Inexperienced, 1, 0.02, 99)
            .head(60)
            .commands;
        let bad = Dataset::record(Skill::Experienced, 1, 0.02, 5)
            .head(60)
            .commands;
        let (good_id, good_parts) = replayed_parts(&good, 0..2);
        let (bad_id, bad_parts) = replayed_parts(&bad, 2..4);
        let mut tampered = bad.clone();
        tampered[3][0] += 1e-9;
        // The corrupt entry comes first in the table and in the parts.
        let mut archive = FleetArchive::new();
        archive.push_trace(bad_id, &tampered);
        archive.push_trace(good_id, &good);
        for (bad, good) in bad_parts.iter().zip(&good_parts) {
            archive.push_part(bad);
            archive.push_part(good);
        }
        // What a by-reference part says when restored without its trace.
        let reasons: Vec<(u64, String)> = bad_parts
            .iter()
            .map(|part| {
                let err = Session::restore(part, &niryo_one()).expect_err("needs its trace");
                (part.id, err.to_string())
            })
            .collect();
        assert!(reasons[0]
            .1
            .contains(&format!("scripted-ref snapshot needs trace {bad_id}")));

        let service = Service::spawn(ServiceConfig::with_shards(1));
        let storage = Storage::new();
        assert_eq!(service.handle().adopt_fleet(archive, &storage).unwrap(), 4);
        let (restored, failed) = restore_outcomes(&service, 4);
        assert_eq!(restored, [0, 1], "the good trace's sessions restore");
        assert_eq!(failed, reasons, "only the corrupt entry's sessions fail");
        service.join();
        let traces = storage.stats().traces;
        assert_eq!(
            (traces.objects, traces.inserts, traces.evictions),
            (0, 2, 2)
        );
    }

    /// Entries no part references, and later entries under an id already
    /// filed, are still filed — after the last send — so the store's
    /// counters end as if the whole table had been filed in order first.
    #[test]
    fn adopt_fleet_files_unreferenced_and_duplicate_entries_like_the_whole_table() {
        use crate::archive::{FleetArchive, ARCHIVE_MAGIC, FLEET_ARCHIVE_VERSION};
        use crate::snapshot::put_object_id;
        use foreco_forecast::codec::{put_bytes, put_rows, put_u32, put_usize};

        let rows = |seed: u64| {
            Dataset::record(Skill::Inexperienced, 1, 0.02, seed)
                .head(60)
                .commands
        };
        let (first, unreferenced, third) = (rows(1), rows(2), rows(3));
        let (first_id, first_parts) = replayed_parts(&first, 0..2);
        let (third_id, third_parts) = replayed_parts(&third, 2..4);
        let mut corrupt = third.clone();
        corrupt[0][0] += 1e-9;
        // `push_trace` dedups by id, so a table listing an id twice is
        // only ever read from foreign bytes: write them here.
        let table = [
            (first_id, &first),
            (foreco_store::trace_object_id(&unreferenced), &unreferenced),
            (first_id, &first),
            (third_id, &corrupt),
            (third_id, &third),
        ];
        let mut body = Vec::new();
        for part in first_parts.iter().chain(&third_parts) {
            put_bytes(&mut body, &part.to_bytes());
        }
        let mut bytes = ARCHIVE_MAGIC.to_vec();
        put_u32(&mut bytes, FLEET_ARCHIVE_VERSION);
        put_usize(&mut bytes, table.len());
        for (id, rows) in table {
            put_object_id(&mut bytes, id);
            put_rows(&mut bytes, rows);
        }
        put_usize(&mut bytes, 4);
        put_bytes(&mut bytes, &body);
        let archive = FleetArchive::from_bytes(&bytes).expect("decodes");
        assert_eq!(archive.traces().len(), 5, "the table is kept as written");
        assert_eq!(archive.trace(third_id), Some(&archive.traces()[3]));
        assert_eq!(archive.to_bytes(), bytes);

        // The whole table filed in order first, every claim held to the
        // end, as an older `adopt_fleet` did.
        let whole = Storage::new();
        let held: Vec<_> = archive
            .traces()
            .iter()
            .map(|entry| whole.insert_trace(&entry.commands))
            .collect();
        drop(held);

        let service = Service::spawn(ServiceConfig::with_shards(1));
        let storage = Storage::new();
        assert_eq!(service.handle().adopt_fleet(archive, &storage).unwrap(), 4);
        let (restored, failed) = restore_outcomes(&service, 4);
        assert_eq!(failed, [], "the valid entry after a corrupt one serves");
        assert_eq!(restored, [0, 1, 2, 3]);
        service.join();
        let traces = storage.stats().traces;
        assert_eq!(traces, whole.stats().traces);
        assert_eq!(
            (
                traces.objects,
                traces.inserts,
                traces.dedup_hits,
                traces.evictions
            ),
            (0, 4, 1, 4),
            "the duplicate files once, as a dedup hit"
        );
    }

    /// The canonical state of `var` with its first coefficient's bits
    /// replaced: tag byte, `R` and `d` words, mode byte, then the
    /// coefficient matrix's rows and cols words precede it.
    fn var_with_first_coefficient(var: &foreco_forecast::Var, bits: u64) -> ForecasterState {
        const FIRST: usize = 1 + 8 + 8 + 1 + 8 + 8;
        let mut bytes = ForecasterState::Var(var.clone()).canonical_bytes();
        bytes[FIRST..FIRST + 8].copy_from_slice(&bits.to_le_bytes());
        ForecasterState::from_canonical_bytes(&bytes).expect("edited VAR decodes")
    }

    /// Count gate (CI store job): an adopted fleet resolves each model
    /// once per shard. The shard memo keys a restored forecaster by its
    /// exact canonical bytes (a `-0.0` weight is another model), claims
    /// the stored model by id for every later part, and forgets it once
    /// the last session holding it drops. Counts, never a clock, read
    /// through the `model_builds` telemetry row.
    #[test]
    fn adopted_fleet_resolves_each_model_once() {
        use crate::archive::FleetArchive;
        use crate::session::{Advance, Session, SessionReport};
        use crate::spec::SharedForecaster;
        use foreco_core::RecoveryConfig;
        use foreco_forecast::Var;

        const PARTS: u64 = 96;
        let model = niryo_one();
        let fit = |skill, seed| {
            Var::fit_differenced(&Dataset::record(skill, 2, 0.02, seed), 5, 1e-6).expect("fit VAR")
        };
        let var = fit(Skill::Experienced, 7);
        let models = [
            var_with_first_coefficient(&var, 0.0f64.to_bits()),
            ForecasterState::Var(fit(Skill::Inexperienced, 8)),
            var_with_first_coefficient(&var, (-0.0f64).to_bits()),
        ];
        let storage = Storage::new();
        let trace = storage.insert_trace(
            &Dataset::record(Skill::Inexperienced, 1, 0.02, 99)
                .head(120)
                .commands,
        );
        let spec = SessionSpec::new(
            0,
            SourceSpec::Stored(trace.clone()),
            ChannelSpec::ControlledLoss {
                burst_len: 6,
                burst_prob: 0.05,
                seed: 3,
            },
            RecoverySpec::FoReCo {
                forecaster: SharedForecaster::new(var),
                config: RecoveryConfig::for_model(&model),
            },
        );
        let mut donor = Session::open(&spec, &model);
        for _ in 0..40 {
            donor.advance();
        }
        let (donor_part, payload) = donor.snapshot_for_fleet().expect("fleet part");
        drop(donor);
        // One donor state per id, its forecaster cycling over the models.
        let parts: Vec<SessionSnapshot> = (0..PARTS)
            .map(|id| {
                let mut part = donor_part.clone();
                part.id = id;
                part.engine.as_mut().expect("an engine part").forecaster =
                    models[id as usize % models.len()].clone();
                part
            })
            .collect();
        let bytes = FleetArchive::build(
            parts
                .iter()
                .map(|part| (part.clone(), payload.clone()))
                .collect(),
        )
        .to_bytes();
        // Every part's standalone twin: a private deep-built model.
        let twins: HashMap<SessionId, SessionReport> = parts
            .iter()
            .map(|part| {
                let mut session =
                    Session::restore_stored(part, &model, trace.clone()).expect("restores");
                let report = loop {
                    if let Advance::Completed(report) = session.advance() {
                        break *report;
                    }
                };
                (part.id, report)
            })
            .collect();

        // Real-time pacing keeps every session alive until the last
        // adoption has landed.
        let service = Service::spawn(ServiceConfig {
            shards: 1,
            pacing: Pacing::RealTime,
            ..Default::default()
        });
        let handle = service.handle();
        let adopt_and_run_out = || {
            let archive = FleetArchive::from_bytes(&bytes).expect("decodes");
            assert_eq!(
                handle.adopt_fleet(archive, &storage).unwrap(),
                PARTS as usize
            );
            let (mut restored, mut completed) = (0, 0);
            while completed < PARTS {
                match service.next_event().expect("service alive") {
                    SessionEvent::Restored { .. } => {
                        restored += 1;
                        if restored == PARTS {
                            let stats = service.models.stats().models;
                            assert_eq!(
                                (stats.objects, stats.claims),
                                (3, PARTS),
                                "three models, one claim per session"
                            );
                        }
                    }
                    SessionEvent::Completed { id, report } => {
                        completed += 1;
                        assert_eq!(report, twins[&id], "session {id}");
                        assert_eq!(report.rmse_mm.to_bits(), twins[&id].rmse_mm.to_bits());
                    }
                    SessionEvent::RestoreFailed { id, reason } => {
                        panic!("session {id} failed to restore: {reason}")
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
            assert_eq!(restored, PARTS);
            assert_eq!(
                service.models.stats().models.objects,
                0,
                "the last session's drop evicts every model"
            );
            // The shard publishes after each pass: wait for the last one.
            while handle.shard_loads()[0].completed < completed {
                std::thread::sleep(Duration::from_millis(5));
            }
            handle.shard_loads().remove(0)
        };
        let load = adopt_and_run_out();
        assert_eq!(load.model_builds, 3, "{PARTS} parts over three models");
        assert_eq!(load.reference_builds, 1);
        // Nothing outlives the sessions: the next adoption builds again.
        let load = adopt_and_run_out();
        assert_eq!(load.model_builds, 6);
        service.join();
        assert_eq!(storage.stats().models.objects, 0);
    }

    /// Count gate (CI store job): scripted sessions on one script share
    /// one reference trajectory per shard, whatever their source — built
    /// once in the shard memo, keyed by the identity of the script's
    /// `Arc` (a stored trace's is the one its store owns) rather than its
    /// rows, and pruned once the last session using it drops. Counts,
    /// never a clock.
    #[test]
    fn scripted_sessions_share_one_reference_trajectory() {
        use crate::archive::FleetArchive;
        use crate::session::Session;

        const SESSIONS: u64 = 64;
        let model = niryo_one();
        let rows = Dataset::record(Skill::Inexperienced, 1, 0.02, 99)
            .head(100)
            .commands;
        let spec = |id: u64, source: SourceSpec| {
            SessionSpec::new(
                id,
                source,
                ChannelSpec::ControlledLoss {
                    burst_len: 4,
                    burst_prob: 0.02,
                    seed: id,
                },
                RecoverySpec::Baseline,
            )
        };
        // Real-time pacing keeps every session alive until the last
        // open or adoption has landed.
        let spawn = || {
            Service::spawn(ServiceConfig {
                shards: 1,
                pacing: Pacing::RealTime,
                ..Default::default()
            })
        };
        // Opens one session on a fresh script and waits for it: the
        // insert prunes every entry no live session holds.
        let open_later = |service: &Service, id: u64| {
            let later = SourceSpec::Replayed(Arc::new(rows.clone()));
            service.handle().open(spec(id, later)).unwrap();
            match service.next_event().expect("service alive") {
                SessionEvent::Opened { .. } => {}
                other => panic!("unexpected event {other:?}"),
            }
        };

        // Replayed: one build for every session on one script `Arc`, one
        // more for a second `Arc` holding the same rows.
        let script = Arc::new(rows.clone());
        let same_rows = Arc::new(rows.clone());
        let service = spawn();
        let handle = service.handle();
        for id in 0..SESSIONS {
            handle
                .open(spec(id, SourceSpec::Replayed(Arc::clone(&script))))
                .unwrap();
        }
        handle
            .open(spec(SESSIONS, SourceSpec::Replayed(Arc::clone(&same_rows))))
            .unwrap();
        let (mut opened, mut completed) = (0, 0);
        while completed < SESSIONS + 1 {
            match service.next_event().expect("service alive") {
                SessionEvent::Opened { .. } => {
                    opened += 1;
                    if opened == SESSIONS + 1 {
                        // One memo entry per script, each pinning the
                        // script's address with a `Weak`.
                        assert_eq!(Arc::weak_count(&script), 1);
                        assert_eq!(Arc::weak_count(&same_rows), 1);
                    }
                }
                SessionEvent::Completed { .. } => completed += 1,
                other => panic!("unexpected event {other:?}"),
            }
        }
        open_later(&service, SESSIONS + 1);
        assert_eq!(
            (Arc::weak_count(&script), Arc::weak_count(&same_rows)),
            (0, 0),
            "no live entry survives the last session on a script"
        );
        service.join();
        let load = handle.shard_loads().remove(0);
        assert_eq!(load.opened, SESSIONS + 2);
        assert_eq!(
            load.reference_builds, 3,
            "one build per script Arc: {SESSIONS} sessions on one, the same rows \
             in a second Arc, and one after the prune"
        );
        assert_eq!(load.link_solves, 0);

        // Stored: one build for every session on one resident trace, and
        // none for a mid-trace by-reference part of the same trace
        // adopted while they live. The donor runs standalone, so its
        // build lands on a throwaway memo, not the shard's.
        let storage = Storage::new();
        let trace = storage.insert_trace(&rows);
        // The store's rows, held without a claim: their `Weak` count is
        // the number of memo entries keyed by them.
        let stored_rows = Arc::clone(trace.commands());
        let mut donor = Session::open(&spec(SESSIONS, SourceSpec::Stored(trace.clone())), &model);
        for _ in 0..40 {
            donor.advance();
        }
        let archive = FleetArchive::build(vec![donor.snapshot_for_fleet().expect("part")]);
        drop(donor);
        let service = spawn();
        let handle = service.handle();
        for id in 0..SESSIONS {
            handle
                .open(spec(id, SourceSpec::Stored(trace.clone())))
                .unwrap();
        }
        drop(trace); // from here the sessions hold the only claims
        assert_eq!(handle.adopt_fleet(archive, &storage).unwrap(), 1);
        let (mut opened, mut restored, mut completed) = (0, 0, 0);
        while completed < SESSIONS + 1 {
            match service.next_event().expect("service alive") {
                SessionEvent::Opened { .. } => opened += 1,
                SessionEvent::Restored { .. } => restored += 1,
                SessionEvent::Completed { .. } => completed += 1,
                other => panic!("unexpected event {other:?}"),
            }
            if opened + restored == SESSIONS + 1 && completed == 0 {
                assert_eq!(Arc::weak_count(&stored_rows), 1, "one memo entry");
            }
        }
        assert_eq!(storage.stats().traces.objects, 0, "the last claim evicts");
        open_later(&service, SESSIONS + 1);
        assert_eq!(
            Arc::weak_count(&stored_rows),
            0,
            "no live entry survives the last session on a trace"
        );
        service.join();
        let load = handle.shard_loads().remove(0);
        assert_eq!((load.opened, load.adoptions), (SESSIONS + 1, 1));
        assert_eq!(
            load.reference_builds, 2,
            "one build for {SESSIONS} opens and an adoption on one trace, \
             and one after the prune"
        );
        assert_eq!(load.link_solves, 0);
        assert_eq!(storage.stats().resident_bytes(), 0);
    }

    /// Count gate (CI store job): jammed sessions on one link
    /// configuration — scripted, streamed, and a streamed part adopted
    /// from an archive — cost one DCF solve on their shard, and the
    /// solve is keyed by the configuration's raw bits. Counts, never a
    /// clock.
    #[test]
    fn jammed_sessions_share_one_link_solve() {
        use crate::archive::FleetArchive;
        use crate::session::Session;
        use foreco_wifi::{Interference, LinkConfig};

        const SCRIPTED: u64 = 8;
        const STREAMED: u64 = 4;
        let model = niryo_one();
        let link = LinkConfig {
            stations: 25,
            interference: Interference::new(0.025, 10),
            ..LinkConfig::default()
        };
        let streamed = |id: u64, link: LinkConfig| {
            SessionSpec::new(
                id,
                SourceSpec::Streamed {
                    initial: model.home(),
                    inbox_capacity: 4,
                },
                ChannelSpec::Jammed {
                    link,
                    tolerance: 0.0,
                    seed: id,
                },
                RecoverySpec::Baseline,
            )
        };
        let script = Arc::new(
            Dataset::record(Skill::Inexperienced, 1, 0.02, 99)
                .head(100)
                .commands,
        );
        let mut donor = Session::open(&streamed(SCRIPTED + STREAMED, link), &model);
        for _ in 0..300 {
            donor.advance();
        }
        let archive = FleetArchive::build(vec![donor.snapshot_for_fleet().expect("part")]);
        drop(donor);

        // Real-time pacing keeps the scripted sessions, which open
        // first, alive while the rest arrive: they hold the solution.
        let service = Service::spawn(ServiceConfig {
            shards: 1,
            pacing: Pacing::RealTime,
            ..Default::default()
        });
        let handle = service.handle();
        for id in 0..SCRIPTED {
            let mut spec = streamed(id, link);
            spec.source = SourceSpec::Replayed(Arc::clone(&script));
            handle.open(spec).unwrap();
        }
        for id in SCRIPTED..SCRIPTED + STREAMED {
            handle.open(streamed(id, link)).unwrap();
        }
        assert_eq!(handle.adopt_fleet(archive, &Storage::new()).unwrap(), 1);
        let mut completed = 0;
        let mut restored = false;
        while completed < SCRIPTED || !restored {
            match service.next_event().expect("service alive") {
                SessionEvent::Completed { .. } => completed += 1,
                SessionEvent::Restored { .. } => restored = true,
                SessionEvent::Opened { .. } => {}
                other => panic!("unexpected event {other:?}"),
            }
        }
        service.join();
        let load = handle.shard_loads().remove(0);
        assert_eq!((load.opened, load.adoptions), (SCRIPTED + STREAMED, 1));
        assert_eq!(load.link_solves, 1, "one link configuration, one solve");

        // Raw bits, never normalised: an interferer with `p_if = -0.0`
        // is another configuration than one with `+0.0`.
        let service = Service::spawn(ServiceConfig::with_shards(1));
        let handle = service.handle();
        for (id, prob) in [0.0, -0.0, 0.0, -0.0].into_iter().enumerate() {
            let mut quiet = LinkConfig::default();
            quiet.interference.prob = prob;
            handle.open(streamed(id as u64, quiet)).unwrap();
        }
        service.join();
        let load = handle.shard_loads().remove(0);
        assert_eq!((load.opened, load.link_solves), (4, 2));
    }

    #[test]
    fn join_returns_shard_tick_totals() {
        let service = Service::spawn(ServiceConfig::with_shards(2));
        let registry = {
            let handle = service.handle();
            for spec in specs(6) {
                handle.open(spec).unwrap();
            }
            let mut registry = MetricsRegistry::new();
            while registry.len() < 6 {
                if let Some(SessionEvent::Completed { report, .. }) = service.next_event() {
                    registry.record(report);
                }
            }
            registry
        };
        let ticks = service.join();
        assert_eq!(ticks.len(), 2);
        let expected: u64 = registry.reports().map(|r| r.ticks).sum();
        assert_eq!(ticks.iter().sum::<u64>(), expected);
    }
}
