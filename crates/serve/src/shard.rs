//! A shard: one worker thread owning a disjoint set of sessions,
//! scheduled by a wake-on-work cooperative scheduler.
//!
//! # Ownership and determinism
//!
//! Each shard holds its sessions in a `BTreeMap` and advances the
//! *runnable* ones in ascending-id order, one virtual tick per pass.
//! Determinism falls out of ownership: a session's entire state lives on
//! exactly one shard, sessions never interact, and each session's inputs
//! (script, channel RNG, engine) are self-contained — so the assignment
//! of sessions to shards, the number of shards, and thread scheduling
//! cannot change any session's trajectory. The in-order pass merely
//! makes per-shard accounting reproducible too.
//!
//! # Scheduling
//!
//! Under [`Scheduler::EventDriven`] (the default) the per-pass sweep
//! touches only the run queue. After every advance a session reports a
//! [`Wake`] verdict; a session at a verified idle fixed point with no
//! §VII-C late command pending reports [`Wake::AwaitingInput`], leaves
//! the queue and parks until traffic changes its next tick. A pending
//! late command keeps a session runnable, so the pass that drains it
//! is ticked, never skipped. Parked sessions cost **zero** work per
//! pass. Wake sources are the inbox (`Inject`), `Close` and any
//! targeted control command; every wake goes through `Runtime::poke`,
//! which replays the session's skipped passes exactly with
//! `Session::catch_up`, so parking is observationally invisible
//! (property-tested against the eager scheduler). A shard with nothing
//! runnable blocks on its control channel, whatever its pacing and
//! scheduler, and runs no pass until a command arrives. Unpaced, the
//! parked sessions' virtual time suspends with it; a real-time shard
//! credits the 50 Hz slot boundaries it slept through to its pass
//! counter when it wakes ([`Pacer::wake`]), so the parked sessions'
//! backlog still tracks wall time at no cost while asleep.
//!
//! [`Scheduler::Eager`] preserves the original flat sweep (every session
//! every pass) and is the ground truth the event-driven mode is tested
//! against.
//!
//! # Migration and rebalancing
//!
//! Migration preserves the ownership discipline: `Migrate` runs inside
//! the control drain (so the session is between ticks), syncs a parked
//! session's backlog, removes it, updates the shared `RoutingTable`,
//! and hands the live session itself to the destination shard's
//! control channel as a `Transfer` — at no instant do two shards own
//! the session, and the destination resumes it from the exact tick it
//! left, so results are bit-identical to never having moved. Nothing is
//! snapshotted or rebuilt: the session's trace claim, memo pins and
//! forecaster travel inside it. `Adopt` is the checkpoint path only.
//! `Rebalance` (sent by the service's balancer) is the policy layer on
//! the same mechanism: the shard picks its highest-id runnable sessions
//! and migrates them out. Commands racing a migration can land on a
//! shard that no longer (or does not yet) own the session; they are
//! answered with `UnknownSession`, which for `Inject` is just another
//! loss event of the kind the recovery engine exists to absorb.
//!
//! Control flow per loop iteration: retry parked migration hand-offs,
//! drain the control inbox (blocking when nothing is runnable; with
//! live work on a real-time shard, waiting on it until the next slot, so
//! commands are handled as they arrive instead of after a sleep),
//! advance the run queue, publish telemetry, ask the pacer for the next
//! slot.
//!
//! # Checkpoints
//!
//! A checkpoint leaves a shard one way: `SnapshotInto` syncs the
//! session, encodes its archive-form snapshot into the shard's reusable
//! scratch and answers on the caller's reply channel. The event stream
//! only narrates it (`Snapshotted`, observer-gated like `Parked`).

use crate::clock::{Pacer, Pacing, TICK_PERIOD};
use crate::inbox::Offer;
use crate::memo::ShardMemo;
use crate::protocol::{SessionCommand, SessionEvent};
use crate::sched::Scheduler;
use crate::session::{Advance, Session, Wake};
use crate::telemetry::{ShardScratch, Telemetry};
use foreco_robot::ArmModel;
use foreco_store::Storage;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Shared session→shard routing overrides, maintained by the shards and
/// consulted by every `ServiceHandle`. A session absent from the map
/// lives on its hash-placed home shard ([`shard_of`]); migration inserts
/// an override, completion removes it. The `moved` flag keeps the
/// common no-migrations case lock-free on the command hot path.
#[derive(Debug, Default)]
pub(crate) struct RoutingTable {
    pub(crate) moved: AtomicBool,
    pub(crate) routes: RwLock<HashMap<u64, usize>>,
}

impl RoutingTable {
    /// The shard currently owning `id` in a pool of `shards`.
    pub(crate) fn shard_for(&self, id: u64, shards: usize) -> usize {
        if self.moved.load(Ordering::Acquire) {
            if let Some(&shard) = self.routes.read().expect("routing table poisoned").get(&id) {
                return shard;
            }
        }
        shard_of(id, shards)
    }

    /// Records that `id` now lives on `shard`.
    pub(crate) fn set(&self, id: u64, shard: usize) {
        // Flag updates happen under the write lock (here and in
        // `clear`) so flag and map can never disagree.
        let mut routes = self.routes.write().expect("routing table poisoned");
        routes.insert(id, shard);
        self.moved.store(true, Ordering::Release);
    }

    /// Drops the override for `id` (after completion). When the last
    /// override goes, the fast-path flag resets so routing returns to
    /// lock-free hash placement.
    pub(crate) fn clear(&self, id: u64) {
        if self.moved.load(Ordering::Acquire) {
            let mut routes = self.routes.write().expect("routing table poisoned");
            routes.remove(&id);
            if routes.is_empty() {
                self.moved.store(false, Ordering::Release);
            }
        }
    }
}

/// Everything a shard worker needs at spawn time.
pub(crate) struct ShardWorker {
    pub(crate) index: usize,
    pub(crate) control: Receiver<SessionCommand>,
    pub(crate) events: SyncSender<SessionEvent>,
    /// Control senders of every shard in the pool (self included), for
    /// the transfer leg of a migration.
    pub(crate) peers: Vec<SyncSender<SessionCommand>>,
    pub(crate) routes: Arc<RoutingTable>,
    pub(crate) model: ArmModel,
    pub(crate) pacing: Pacing,
    pub(crate) scheduler: Scheduler,
    /// Shared telemetry plane (fleet counters + observer flag).
    pub(crate) telemetry: Arc<Telemetry>,
    /// Service-wide shared storage: adopted sessions resolve engine
    /// weights through it so same-model fleets hold claims, not copies.
    pub(crate) models: Storage,
}

/// The shard's mutable scheduling state, factored out of the run loop so
/// command handling, waking, and parking share one vocabulary.
struct Runtime {
    index: usize,
    events: SyncSender<SessionEvent>,
    peers: Vec<SyncSender<SessionCommand>>,
    routes: Arc<RoutingTable>,
    model: ArmModel,
    scheduler: Scheduler,
    /// Shared telemetry plane; this shard writes only its own counters.
    telemetry: Arc<Telemetry>,
    /// Per-pass telemetry (plain `u64`s, published once per pass).
    scratch: ShardScratch,
    sessions: BTreeMap<u64, Session>,
    /// Runnable session ids, advanced in ascending order each pass.
    runnable: BTreeSet<u64>,
    /// Parked session id → the pass it last advanced (or synced)
    /// through. The backlog to replay on wake is
    /// `current pass − parked_at`.
    parked: HashMap<u64, u64>,
    /// Completed scheduling passes.
    pass: u64,
    /// Total session-ticks advanced (eager ticks + replayed backlog).
    ticks_advanced: u64,
    /// Migration hand-offs the destination's control channel could not
    /// take yet. Transfers never use a blocking send: two shards
    /// migrating toward each other with full control channels would
    /// deadlock the pool (neither can drain its own channel while
    /// blocked in the other's). The `Transfer` parks here instead, the
    /// session inside it, and is retried each pass.
    pending_transfers: Vec<(usize, SessionCommand)>,
    /// Shared storage for adopted sessions' engine weights.
    models: Storage,
    /// Reusable encode buffer for fleet-archive parts (`SnapshotInto`):
    /// cleared and refilled per part, so a fleet checkpoint amortises to
    /// zero steady-state encoder allocations on the shard — only buffer
    /// growth and the reply hand-off copy allocate.
    snapshot_scratch: Vec<u8>,
    /// DCF solutions and scripted reference trajectories shared by this
    /// shard's sessions (see [`crate::memo`]); opens and adoptions
    /// consult it.
    memo: ShardMemo,
}

impl Runtime {
    /// Syncs a parked session through the current pass: replays its idle
    /// backlog and provisionally requeues it. The one way out of the
    /// park; a no-op for runnable (or unknown) sessions. Callers that
    /// may leave the session idle re-park it via [`Runtime::settle`].
    /// `traffic` marks wakes caused by operator input (`Inject`/`Close`)
    /// so the load counters keep administrative syncs (snapshot,
    /// migration, shutdown) out of the traffic-wakeup figure.
    fn poke(&mut self, id: u64, traffic: bool) {
        if let Some(parked_at) = self.parked.remove(&id) {
            let backlog = self.pass - parked_at;
            let session = self.sessions.get_mut(&id).expect("parked session exists");
            // Gated sessions replay nothing: their clock was suspended.
            let replayed = session.catch_up(backlog);
            self.ticks_advanced += replayed;
            self.scratch.ticks += replayed;
            self.scratch.wakes += 1;
            if traffic {
                self.scratch.traffic_wakeups += 1;
            }
            self.runnable.insert(id);
        }
    }

    /// Re-parks `id` if its wake hint says the next tick is a no-op;
    /// the inverse of [`Runtime::poke`], run after a control command.
    fn settle(&mut self, id: u64) {
        if !self.scheduler.event_driven() || !self.runnable.contains(&id) {
            return;
        }
        let idle = self
            .sessions
            .get(&id)
            .is_some_and(|session| session.wake_hint() == Wake::AwaitingInput);
        if idle {
            self.park(id, self.pass);
        }
    }

    /// Moves `id` out of the run queue, recording the pass it advanced
    /// (or synced) through.
    fn park(&mut self, id: u64, at_pass: u64) {
        self.runnable.remove(&id);
        self.parked.insert(id, at_pass);
        self.scratch.parks += 1;
        // Park-level lifecycle narration is opt-in (see the telemetry
        // module docs): without observers the only cost is this load.
        if self.telemetry.observed() {
            let _ = self.events.send(SessionEvent::Parked {
                id,
                shard: self.index,
            });
        }
    }

    /// Moves what the memo computed for an open or adoption into this
    /// pass's telemetry.
    fn count_memo_work(&mut self) {
        let counts = self.memo.take_counts();
        self.scratch.link_solves += counts.link_solves;
        self.scratch.reference_builds += counts.reference_builds;
        self.scratch.model_builds += counts.model_builds;
    }

    /// Places a session that just entered this shard (open, transfer or adopt).
    fn enqueue_new(&mut self, id: u64) {
        if self.scheduler.event_driven() && self.sessions[&id].wake_hint() == Wake::AwaitingInput {
            self.park(id, self.pass);
        } else {
            self.runnable.insert(id);
        }
    }

    /// Removes a completed session everywhere and reports it.
    fn complete(&mut self, id: u64, report: crate::session::SessionReport) {
        self.scratch.completed += 1;
        // Misses on an engine session were each covered by a forecast;
        // baseline sessions have no recovery to credit.
        if report.stats.is_some() {
            self.scratch.recovered_misses += report.misses as u64;
        }
        self.sessions.remove(&id);
        self.runnable.remove(&id);
        self.parked.remove(&id);
        // A migrated-in session leaves a routing override behind; clear
        // it so the id can be reused at its home placement.
        if shard_of(id, self.peers.len()) != self.index {
            self.routes.clear(id);
        }
        let _ = self.events.send(SessionEvent::Completed { id, report });
    }

    /// Takes in a session that arrived whole (`Transfer`) or restored
    /// from a snapshot (`Adopt`): routes its id here, queues or parks
    /// it, and reports it `Restored`. The caller checked the id is free.
    fn admit(&mut self, session: Session) {
        let id = session.id();
        let tick = session.tick();
        self.sessions.insert(id, session);
        if shard_of(id, self.peers.len()) != self.index {
            self.routes.set(id, self.index);
        } else {
            self.routes.clear(id);
        }
        self.enqueue_new(id);
        let _ = self.events.send(SessionEvent::Restored {
            id,
            shard: self.index,
            tick,
        });
    }

    /// True, with a `DuplicateSession` report, when `id` already lives
    /// here: an arrival never replaces a live session.
    fn refuse_duplicate(&self, id: u64) -> bool {
        let taken = self.sessions.contains_key(&id);
        if taken {
            let _ = self.events.send(SessionEvent::DuplicateSession { id });
        }
        taken
    }

    /// Drain→transfer leg of a migration (the caller validated `to` and
    /// the session's existence): the synced live session leaves whole.
    fn migrate_out(&mut self, id: u64, to: usize) {
        // A parked session must ship its synced state. The session has
        // finished its current tick (migrations run inside the control
        // drain). Remove it *before* the hand-off: from here the
        // destination owns it.
        self.poke(id, false);
        let session = self.sessions.remove(&id).expect("caller checked existence");
        self.runnable.remove(&id);
        self.routes.set(id, to);
        self.scratch.migrated_out += 1;
        let _ = self.events.send(SessionEvent::Migrated {
            id,
            from: self.index,
            to,
        });
        self.hand_off(to, SessionCommand::Transfer(Box::new(session)));
    }

    /// Non-blocking send of a `Transfer` to a peer; a full channel parks
    /// it (session inside) for retry, a dead one drops it (pool tearing
    /// down).
    fn hand_off(&mut self, to: usize, transfer: SessionCommand) {
        match self.peers[to].try_send(transfer) {
            Ok(()) => {}
            Err(std::sync::mpsc::TrySendError::Full(transfer)) => {
                self.pending_transfers.push((to, transfer));
            }
            Err(_) => {}
        }
    }

    /// The one shape of the traffic verbs (`Inject`, `InjectMiss`,
    /// `InjectLate`, `Close`). Traffic is a wake source: the session's
    /// backlog is synced first, so the input lands on the tick it
    /// arrived at; then `act` applies the verb, a `Dropped` verdict is
    /// counted and narrated as a backpressure drop, and the session
    /// re-parks if it is still idle. Unknown ids get `UnknownSession`.
    fn traffic(&mut self, id: u64, act: impl FnOnce(&mut Session, &mut ShardScratch) -> Offer) {
        if !self.sessions.contains_key(&id) {
            let _ = self.events.send(SessionEvent::UnknownSession { id });
            return;
        }
        self.poke(id, true);
        let session = self.sessions.get_mut(&id).expect("checked above");
        if act(session, &mut self.scratch) == Offer::Dropped {
            self.scratch.inbox_drops += 1;
            let _ = self.events.send(SessionEvent::CommandDropped {
                id,
                tick: session.tick(),
            });
        }
        self.settle(id);
    }

    /// One control command. Returns true when it was `Shutdown`.
    fn handle(&mut self, command: SessionCommand) -> bool {
        match command {
            SessionCommand::Open(spec) => {
                let id = spec.id;
                if !self.refuse_duplicate(id) {
                    let session = Session::open_with(&spec, &self.model, &mut self.memo);
                    self.sessions.insert(id, session);
                    self.scratch.opened += 1;
                    self.count_memo_work();
                    self.enqueue_new(id);
                    let _ = self.events.send(SessionEvent::Opened {
                        id,
                        shard: self.index,
                    });
                }
            }
            SessionCommand::Inject { id, command } => {
                self.traffic(id, |session, _| session.offer(command));
            }
            SessionCommand::InjectMiss { id } => self.traffic(id, |session, scratch| {
                // A miss marker is counted whatever the source; only
                // gated sessions queue it.
                session.offer_miss();
                scratch.miss_marks += 1;
                Offer::Accepted
            }),
            SessionCommand::InjectLate { id, command, age } => {
                self.traffic(id, |session, scratch| {
                    let offer = session.offer_late(command, age);
                    if offer == Offer::Accepted {
                        scratch.late_replacements += 1;
                    }
                    offer
                })
            }
            SessionCommand::Close { id } => self.traffic(id, |session, _| {
                session.close();
                Offer::Accepted
            }),
            SessionCommand::SnapshotInto { id, reply } => {
                if self.sessions.contains_key(&id) {
                    // Sync first: the checkpoint must capture the state
                    // an eager shard would have at this pass, park
                    // backlog included — that is what makes parked
                    // snapshots restore bit-identically.
                    self.poke(id, false);
                    let result = self.sessions[&id].snapshot_for_fleet();
                    let part = match result {
                        Ok((snapshot, trace)) => {
                            // Encode into the shard's reusable scratch;
                            // the clone is the one hand-off allocation
                            // the reply channel requires.
                            self.snapshot_scratch.clear();
                            snapshot.encode_into(&mut self.snapshot_scratch);
                            self.scratch.snapshots += 1;
                            self.scratch.archive_bytes += self.snapshot_scratch.len() as u64;
                            // Checkpoint narration is opt-in, like parks.
                            if self.telemetry.observed() {
                                let _ = self.events.send(SessionEvent::Snapshotted {
                                    id,
                                    shard: self.index,
                                });
                            }
                            crate::protocol::FleetPart::Snapshot {
                                id,
                                frame: self.snapshot_scratch.clone(),
                                trace,
                            }
                        }
                        Err(e) => crate::protocol::FleetPart::Failed {
                            id,
                            reason: e.to_string(),
                        },
                    };
                    // The caller sized the reply channel to its request
                    // count, so this never blocks the shard loop.
                    let _ = reply.send(part);
                    self.settle(id);
                } else {
                    let _ = reply.send(crate::protocol::FleetPart::Missing { id });
                }
            }
            SessionCommand::Migrate { id, to } => match self.sessions.get(&id) {
                Some(_) if to >= self.peers.len() => {
                    // The handle validates destinations; this guards raw
                    // control-channel writers.
                    let _ = self.events.send(SessionEvent::SnapshotFailed {
                        id,
                        reason: format!(
                            "migration destination {to} outside the {}-shard pool",
                            self.peers.len()
                        ),
                    });
                }
                Some(_) if to == self.index => {
                    // Already home: a migration to the owning shard is a
                    // successful no-op.
                    let _ = self.events.send(SessionEvent::Migrated {
                        id,
                        from: self.index,
                        to: self.index,
                    });
                }
                Some(_) => self.migrate_out(id, to),
                None => {
                    let _ = self.events.send(SessionEvent::UnknownSession { id });
                }
            },
            SessionCommand::Transfer(session) => {
                if !self.refuse_duplicate(session.id()) {
                    self.scratch.migrated_in += 1;
                    self.admit(*session);
                }
            }
            SessionCommand::Adopt { snapshot, trace } => {
                let id = snapshot.id;
                if !self.refuse_duplicate(id) {
                    match Session::restore_with(
                        *snapshot,
                        &self.model,
                        trace,
                        Some(&self.models),
                        &mut self.memo,
                    ) {
                        Ok(session) => {
                            self.scratch.adoptions += 1;
                            self.admit(session);
                        }
                        Err(e) => {
                            let _ = self.events.send(SessionEvent::RestoreFailed {
                                id,
                                reason: e.to_string(),
                            });
                        }
                    }
                    self.count_memo_work();
                }
            }
            SessionCommand::Rebalance { to, count } => {
                if to < self.peers.len() && to != self.index {
                    // Policy: shed live work only — parked sessions cost
                    // nothing where they are. The highest runnable ids
                    // go, a deterministic pick that leaves long-lived
                    // low ids settled in place.
                    let picks: Vec<u64> = self.runnable.iter().rev().take(count).copied().collect();
                    for id in picks {
                        self.migrate_out(id, to);
                    }
                }
            }
            SessionCommand::Shutdown => return true,
        }
        false
    }

    /// One scheduling pass: advance the run queue in ascending-id
    /// order, park/complete per verdict.
    fn run_pass(&mut self) {
        let target = self.pass + 1;
        let mut advanced = 0u64;
        let mut parked: Vec<u64> = Vec::new();
        let mut completed: Vec<(u64, Box<crate::session::SessionReport>)> = Vec::new();
        let event_driven = self.scheduler.event_driven();
        let mut verdict = |id: u64, advance: Advance| match advance {
            Advance::Ticked(wake) => {
                advanced += 1;
                if event_driven && wake == Wake::AwaitingInput {
                    parked.push(id);
                }
            }
            // A starved gated session: no tick happened, so it counts as
            // no advance; under the event scheduler it parks until
            // traffic (eager keeps polling it — the ground-truth sweep
            // stays a sweep).
            Advance::Idle(_) => {
                if event_driven {
                    parked.push(id);
                }
            }
            Advance::Completed(report) => completed.push((id, report)),
        };
        if self.runnable.len() == self.sessions.len() {
            // Everyone is runnable (the eager mode invariant, and the
            // event mode's settle phase): sweep the map directly rather
            // than paying a per-session id lookup.
            for (&id, session) in self.sessions.iter_mut() {
                verdict(id, session.advance());
            }
        } else {
            for &id in &self.runnable {
                let session = self.sessions.get_mut(&id).expect("runnable session exists");
                verdict(id, session.advance());
            }
        }
        for id in parked {
            self.park(id, target);
        }
        for (id, report) in completed {
            self.complete(id, *report);
        }
        self.ticks_advanced += advanced;
        self.pass = target;
        self.scratch.wakeups += advanced;
        self.scratch.passes += 1;
        self.scratch.ticks += advanced;
    }

    /// Publishes this pass's telemetry to the shard's counters in the
    /// shared plane: the gauges, plus every non-zero counter delta.
    fn publish(&mut self) {
        self.scratch.sessions = self.sessions.len() as u64;
        self.scratch.runnable = self.runnable.len() as u64;
        self.scratch.parked = self.parked.len() as u64;
        self.scratch.flush(self.telemetry.shard(self.index));
    }

    /// Retries parked migration hand-offs; destinations free their
    /// channels by draining, which happens every pass they make.
    fn retry_transfers(&mut self) {
        if self.pending_transfers.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_transfers);
        for (to, transfer) in pending {
            self.hand_off(to, transfer);
        }
    }
}

impl ShardWorker {
    /// The shard main loop. Returns total session-ticks advanced.
    pub(crate) fn run(self) -> u64 {
        let ShardWorker {
            index,
            control,
            events,
            peers,
            routes,
            model,
            pacing,
            scheduler,
            telemetry,
            models,
        } = self;
        let mut rt = Runtime {
            index,
            events,
            peers,
            routes,
            model,
            scheduler,
            telemetry,
            scratch: ShardScratch::default(),
            sessions: BTreeMap::new(),
            runnable: BTreeSet::new(),
            parked: HashMap::new(),
            pass: 0,
            ticks_advanced: 0,
            pending_transfers: Vec::new(),
            models,
            snapshot_scratch: Vec::new(),
            memo: ShardMemo::default(),
        };
        let mut pacer = Pacer::new(pacing, TICK_PERIOD);
        let mut shutdown = false;
        // Wall instant of the next pass while a real-time shard has live
        // work, set by the pacer after each pass. The shard waits for it
        // on its control channel, handling commands as they arrive
        // without moving the slot.
        let mut due: Option<Instant> = None;
        'run: loop {
            rt.retry_transfers();
            // Drain control; block when quiescent (nothing runnable, no
            // parked hand-off), wait on it until the next slot when paced.
            loop {
                let quiescent =
                    rt.runnable.is_empty() && rt.pending_transfers.is_empty() && !shutdown;
                let command = if quiescent {
                    // Control-only work (adoptions, parks on arrival)
                    // runs no pass: surface it before blocking. Every
                    // gauge move comes with a counter delta.
                    if rt.scratch.has_deltas() {
                        rt.publish();
                    }
                    // Cannot fail while the loop runs: `rt.peers` holds
                    // this shard's own sender. A shard leaves on
                    // `Shutdown`; this is the one other exit.
                    let Ok(command) = control.recv() else {
                        break 'run;
                    };
                    // The slots slept through pass for the parked
                    // sessions too: `poke` replays them as backlog. A
                    // wake runs its first pass at once.
                    rt.pass += pacer.wake();
                    due = None;
                    command
                } else if let Some(slot) = due {
                    let Some(command) = wait_for_slot(&control, slot) else {
                        // Drain what queued meanwhile, then run.
                        due = None;
                        continue;
                    };
                    command
                } else {
                    let Ok(command) = control.try_recv() else {
                        break;
                    };
                    command
                };
                shutdown |= rt.handle(command);
            }
            if shutdown {
                if rt.sessions.is_empty() && rt.pending_transfers.is_empty() {
                    break;
                }
                // A shutdown request finishes in-flight scripted sessions
                // only if they complete naturally; streamed sessions are
                // closed so they drain and report rather than hang —
                // parked ones wake (with their backlog synced) to do so.
                let parked: Vec<u64> = rt.parked.keys().copied().collect();
                for id in parked {
                    rt.poke(id, false);
                }
                for session in rt.sessions.values_mut() {
                    session.close();
                }
                rt.runnable.extend(rt.sessions.keys().copied());
            }
            if rt.runnable.is_empty() {
                if !rt.pending_transfers.is_empty() {
                    // Nothing to advance, destination still full: yield
                    // briefly instead of spinning on try_send.
                    std::thread::sleep(Duration::from_micros(200));
                }
                // Command-only iterations (e.g. a miss marker that left
                // everything parked) still surface their counters
                // before the shard blocks again.
                rt.publish();
                continue;
            }
            rt.run_pass();
            rt.publish();
            due = pacer.next_slot();
        }
        // Commands drained on the way out (the last migrations, the
        // shutdown's syncs) still reach the counters.
        rt.publish();
        let _ = rt.events.send(SessionEvent::ShardTerminated {
            shard: index,
            ticks_advanced: rt.ticks_advanced,
        });
        rt.ticks_advanced
    }
}

/// Waits on `control` until `due` and returns the first command to
/// arrive, or `None` once the slot has come. A slot already due is
/// reported without reading the channel, so a stream of commands cannot
/// hold it open.
fn wait_for_slot(control: &Receiver<SessionCommand>, due: Instant) -> Option<SessionCommand> {
    let now = Instant::now();
    if now >= due {
        return None;
    }
    control.recv_timeout(due - now).ok()
}

/// Deterministic session→shard placement: SplitMix64 finalizer over the
/// id, reduced modulo the shard count. Stable across runs, processes,
/// and shard pools of equal size.
pub fn shard_of(id: u64, shards: usize) -> usize {
    assert!(shards >= 1, "shard_of: need at least one shard");
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 8, 16] {
            for id in 0..100u64 {
                let s = shard_of(id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(id, shards));
            }
        }
    }

    #[test]
    fn placement_spreads_sessions() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for id in 0..1000u64 {
            counts[shard_of(id, shards)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 50, "shard {i} underloaded: {c}/1000");
        }
    }
}
