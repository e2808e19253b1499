//! The UDP data plane's brain: per-session sequence reassembly turning
//! raw datagrams into the gated slot stream the service consumes.
//!
//! One sequence number = one virtual tick slot. For every attached
//! session the ingress keeps a **delivery watermark** (the next slot to
//! hand the service) and a bounded **reorder buffer** of frames that
//! arrived ahead of it:
//!
//! - an in-order frame delivers immediately
//!   ([`ServiceHandle::try_inject`], the non-blocking hot path — a
//!   bounce is counted and the slot becomes an explicit loss, so a
//!   socket thread never blocks on a shard);
//! - a frame ahead of the watermark waits in the reorder buffer; small
//!   reorderings are healed invisibly (delivered in order);
//! - a gap that stays open for [`IngressConfig::reorder_window`]
//!   subsequent slots is **flushed as lost**
//!   (`ServiceHandle::inject_miss`) — the bounded-wait analogue of the
//!   paper's deadline: a command that hasn't shown up `w` slots later is
//!   as good as gone, and the recovery engine forecasts over it;
//! - a frame arriving for an already-flushed slot is **late** and rides
//!   the §VII-C path (`ServiceHandle::inject_late`): it consumes no
//!   tick, it patches the forecast history with truth;
//! - everything else below the watermark is a retransmission duplicate,
//!   dropped.
//!
//! Every decision depends only on the **arrival order** of frames —
//! never on wall time — which, combined with the gated source's
//! slot-driven clock, is what makes a session's outputs bit-identical
//! across transports (localhost UDP vs in-process loopback) for the
//! same frame sequence.
//!
//! The gateway and the loopback transport share one [`IngressState`]
//! behind a mutex: both run literally this code on every frame.

use crate::wire::{self, FrameKind, HEADER_LEN};
use foreco_serve::{IngressSummary, ServiceError, ServiceHandle, SessionId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Data-plane knobs.
#[derive(Debug, Clone)]
pub struct IngressConfig {
    /// How many slots past a gap may arrive before the gap is flushed as
    /// lost. Larger values heal deeper reordering but delay delivery
    /// behind a genuine loss; it is the wire analogue of the paper's
    /// deadline tolerance `τ`, measured in slots.
    pub reorder_window: u64,
    /// Bound on buffered out-of-order frames per session; a full buffer
    /// drops the incoming frame (it may be retransmitted, or flush as a
    /// loss later).
    pub max_buffer: usize,
    /// How many slots below the watermark a flushed loss stays eligible
    /// for a §VII-C late patch before the bookkeeping is pruned.
    pub late_horizon: u64,
}

impl Default for IngressConfig {
    fn default() -> Self {
        Self {
            reorder_window: 8,
            max_buffer: 256,
            late_horizon: 64,
        }
    }
}

/// One attached session's reassembly state.
#[derive(Debug)]
struct SessionIngress {
    /// Next slot to deliver to the service.
    next_slot: u64,
    /// Frames ahead of the watermark: seq → command (or `None` for an
    /// explicit client-declared miss).
    buffer: BTreeMap<u64, Option<Vec<f64>>>,
    /// Slots below the watermark flushed as lost, still eligible for a
    /// late patch.
    missed: BTreeSet<u64>,
    /// Highest seq ever seen (reordering detection).
    highest: Option<u64>,
    /// Loss verdicts already accounted (watermark advanced) whose
    /// `inject_miss` bounced on shard backpressure; they must land
    /// before any newer slot delivers.
    pending_misses: u64,
    /// The session's live ingress counters.
    counters: IngressSummary,
}

impl SessionIngress {
    fn new(id: SessionId, start_slot: u64) -> Self {
        Self {
            next_slot: start_slot,
            buffer: BTreeMap::new(),
            missed: BTreeSet::new(),
            highest: None,
            pending_misses: 0,
            counters: IngressSummary {
                session: id,
                ..IngressSummary::default()
            },
        }
    }
}

/// The shared data-plane state: every attached session's reassembly
/// machine plus the handle used to inject into the service.
pub(crate) struct IngressState {
    handle: ServiceHandle,
    cfg: IngressConfig,
    /// Joint count every command payload must match.
    dof: usize,
    sessions: HashMap<SessionId, SessionIngress>,
    /// Counters folded in from detached sessions, so fleet-level totals
    /// stay cumulative (and Prometheus counters monotonic) across
    /// session churn.
    retired: IngressSummary,
    /// Datagrams that failed to decode at all (no session attributable).
    pub(crate) undecodable: u64,
    /// Well-formed frames addressed to unattached sessions.
    pub(crate) unknown: u64,
}

impl IngressState {
    pub(crate) fn new(handle: ServiceHandle, cfg: IngressConfig, dof: usize) -> Self {
        Self {
            handle,
            cfg,
            dof,
            sessions: HashMap::new(),
            retired: IngressSummary::default(),
            undecodable: 0,
            unknown: 0,
        }
    }

    /// Registers a session with the data plane; `start_slot` is the next
    /// expected sequence number (0 for a fresh session, the snapshot's
    /// settled-slot count for an adopted one).
    pub(crate) fn attach(&mut self, id: SessionId, start_slot: u64) {
        self.sessions
            .insert(id, SessionIngress::new(id, start_slot));
    }

    /// Removes a session from the data plane, returning its final
    /// counter summary (also folded into the cumulative totals).
    pub(crate) fn detach(&mut self, id: SessionId) -> Option<IngressSummary> {
        let summary = self.sessions.remove(&id)?.counters;
        self.retired.absorb(&summary);
        Some(summary)
    }

    /// Fleet-cumulative ingress totals: every retired session plus
    /// every live one. Monotonic across churn — the metrics endpoint's
    /// view of the wire. (`session` is 0: the totals belong to no one.)
    pub(crate) fn totals(&self) -> IngressSummary {
        let mut totals = self.retired;
        for session in self.sessions.values() {
            totals.absorb(&session.counters);
        }
        totals
    }

    /// The per-session counter snapshot.
    pub(crate) fn summary(&self, id: SessionId) -> Option<IngressSummary> {
        self.sessions.get(&id).map(|s| s.counters)
    }

    /// Processes one datagram; on a data frame, writes the telemetry ack
    /// into `ack` and returns its length. This is the entire per-frame
    /// code path — the UDP thread and the loopback transport both call
    /// exactly this.
    pub(crate) fn handle_datagram(&mut self, bytes: &[u8], ack: &mut [u8]) -> Option<usize> {
        let frame = match wire::decode(bytes) {
            Ok(frame) => frame,
            Err(_) => {
                self.undecodable += 1;
                return None;
            }
        };
        let id = frame.session;
        let Some(sess) = self.sessions.get_mut(&id) else {
            self.unknown += 1;
            return None;
        };
        match frame.kind {
            // Clients don't send telemetry; tolerate and ignore.
            FrameKind::Telemetry => return None,
            FrameKind::Command | FrameKind::Miss => {}
        }
        sess.counters.received += 1;
        let seq = frame.seq;
        let payload = match frame.kind {
            FrameKind::Command => {
                if frame.dims() != self.dof || frame.joints().any(|q| !q.is_finite()) {
                    // Structurally valid frame, semantically broken
                    // payload (a wrong joint count, or a NaN/infinite
                    // joint the engine's clamps cannot bound):
                    // attributable, counted, never delivered.
                    sess.counters.malformed += 1;
                    return ack_for(id, sess, ack);
                }
                Some(frame.joints_vec())
            }
            _ => None,
        };
        if seq < sess.next_slot {
            match payload {
                // The slot was flushed as lost and its command finally
                // showed up: the §VII-C late path. Consumes no tick.
                Some(command) if sess.missed.remove(&seq) => {
                    let age = (sess.next_slot - seq) as usize;
                    sess.counters.late += 1;
                    if self.handle.inject_late(id, command, age).is_err() {
                        // A dropped late patch is a loss staying a loss.
                        sess.counters.bounced += 1;
                    }
                }
                // A late Miss merely confirms what the flush already
                // said — the slot stays patch-eligible in case the real
                // command still resurfaces.
                None if sess.missed.contains(&seq) => {}
                _ => sess.counters.duplicates += 1,
            }
        } else if seq - sess.next_slot > self.cfg.max_buffer as u64 + self.cfg.reorder_window {
            // A structurally valid frame with an absurd sequence jump —
            // a spoofed datagram or a client streaming from the wrong
            // slot. No honest sender under window flow control can run
            // this far ahead, and accepting it would stampede the
            // watermark across the gap (every skipped slot a miss) and
            // turn all later legitimate frames into "duplicates".
            // Reject it like any other malformed frame.
            sess.counters.malformed += 1;
        } else if sess.buffer.contains_key(&seq) {
            sess.counters.duplicates += 1;
        } else if sess.buffer.len() >= self.cfg.max_buffer {
            // Reorder buffer full: drop the frame (bounded memory); the
            // slot will be retransmitted or flushed as lost later.
            sess.counters.bounced += 1;
        } else {
            if sess.highest.is_some_and(|h| seq < h) {
                sess.counters.reordered += 1;
            }
            sess.highest = Some(sess.highest.map_or(seq, |h| h.max(seq)));
            sess.buffer.insert(seq, payload);
        }
        // Drain on every frame — not just inserts — so verdicts parked
        // on shard backpressure are retried by the very next datagram
        // (the client's retransmissions guarantee one arrives).
        Self::drain(&self.handle, &self.cfg, id, sess);
        ack_for(id, sess, ack)
    }

    /// Delivers every slot it can: backlogged loss verdicts first, then
    /// in-order buffered frames, with gaps flushed as lost once the
    /// reorder window has passed them. Fully non-blocking: on shard
    /// backpressure the verdict parks (`pending_misses` / the buffer)
    /// and the next datagram retries — no socket thread ever spins on a
    /// shard while holding the ingress lock.
    fn drain(
        handle: &ServiceHandle,
        cfg: &IngressConfig,
        id: SessionId,
        sess: &mut SessionIngress,
    ) {
        // Loss verdicts whose injection bounced earlier must land before
        // any newer slot, or the timeline would reorder.
        if !Self::settle_pending(handle, id, sess) {
            return;
        }
        loop {
            if let Some(payload) = sess.buffer.remove(&sess.next_slot) {
                if !Self::deliver(handle, id, sess, payload) {
                    break;
                }
            } else {
                let stale = sess
                    .buffer
                    .keys()
                    .next_back()
                    .is_some_and(|&max| max - sess.next_slot >= cfg.reorder_window);
                if !stale {
                    break;
                }
                // The gap outlived the reorder window: declare the slot
                // lost so delivery can resume — and remember it, in case
                // its command still shows up (late path).
                if !Self::flush_lost(handle, id, sess) {
                    break;
                }
            }
        }
        // Bound the late-patch bookkeeping.
        let horizon = sess.next_slot.saturating_sub(cfg.late_horizon);
        while let Some(&oldest) = sess.missed.iter().next() {
            if oldest >= horizon {
                break;
            }
            sess.missed.remove(&oldest);
        }
    }

    /// Injects backlogged miss verdicts; false when backpressure (or a
    /// dead pool) still holds some back.
    fn settle_pending(handle: &ServiceHandle, id: SessionId, sess: &mut SessionIngress) -> bool {
        while sess.pending_misses > 0 {
            match handle.inject_miss(id) {
                Ok(()) => sess.pending_misses -= 1,
                Err(ServiceError::Backpressure) => return false,
                Err(_) => {
                    sess.pending_misses = 0; // pool tearing down
                    return false;
                }
            }
        }
        true
    }

    /// Hands one slot verdict to the service; false when delivery must
    /// pause (backpressure parked a verdict, or the pool is gone).
    /// `Some` is a command — a bounce converts it to a loss, so the hot
    /// path never blocks — and `None` a client-declared miss.
    fn deliver(
        handle: &ServiceHandle,
        id: SessionId,
        sess: &mut SessionIngress,
        payload: Option<Vec<f64>>,
    ) -> bool {
        match payload {
            Some(command) => match handle.try_inject(id, command) {
                Ok(()) => {
                    sess.counters.delivered += 1;
                    sess.next_slot += 1;
                    true
                }
                Err((ServiceError::Backpressure, _)) => {
                    sess.counters.bounced += 1;
                    Self::flush_lost(handle, id, sess)
                }
                Err(_) => false, // pool tearing down; nothing to account
            },
            None => Self::flush_lost(handle, id, sess),
        }
    }

    /// Declares the watermark slot lost and advances past it. The
    /// bookkeeping (counter, late-patch eligibility, watermark) is
    /// immediate; if the miss marker itself bounces it parks in
    /// `pending_misses` (false) and later drains retry it before
    /// touching newer slots.
    fn flush_lost(handle: &ServiceHandle, id: SessionId, sess: &mut SessionIngress) -> bool {
        sess.counters.lost += 1;
        sess.missed.insert(sess.next_slot);
        sess.next_slot += 1;
        match handle.inject_miss(id) {
            Ok(()) => true,
            Err(ServiceError::Backpressure) => {
                sess.pending_misses += 1;
                false
            }
            Err(_) => false, // pool tearing down
        }
    }

    /// One close-time flush attempt: deliver every still-buffered frame
    /// in order with the remaining gaps declared lost, so the session's
    /// slot timeline is complete before it drains and reports. (Slots
    /// behind the last *received* frame are unknowable — the gateway
    /// cannot mourn datagrams it never heard of; the session simply
    /// ends that many ticks earlier, identically on every transport.)
    ///
    /// Non-blocking, like the datagram path: `false` means shard
    /// backpressure parked a verdict — the caller should release the
    /// ingress lock (so the data plane keeps flowing for everyone else)
    /// and retry. An absent session or a dead pool reports `true`:
    /// there is nothing left this flush could ever do.
    pub(crate) fn try_flush(&mut self, id: SessionId) -> bool {
        let Some(sess) = self.sessions.get_mut(&id) else {
            return true;
        };
        if !Self::settle_pending(&self.handle, id, sess) {
            return sess.pending_misses == 0; // false = parked, true = pool gone
        }
        while let Some((&seq, _)) = sess.buffer.iter().next() {
            if sess.next_slot < seq {
                if !Self::flush_lost(&self.handle, id, sess) {
                    return sess.pending_misses == 0;
                }
                continue;
            }
            let payload = sess.buffer.remove(&seq).expect("first key exists");
            match payload {
                Some(command) => match self.handle.try_inject(id, command) {
                    Ok(()) => {
                        sess.counters.delivered += 1;
                        sess.next_slot += 1;
                    }
                    Err((ServiceError::Backpressure, returned)) => {
                        sess.buffer.insert(seq, Some(returned));
                        return false;
                    }
                    Err(_) => return true, // pool tearing down
                },
                None => {
                    if !Self::flush_lost(&self.handle, id, sess) {
                        return sess.pending_misses == 0;
                    }
                }
            }
        }
        true
    }

    /// One attempt at landing a session's parked loss verdicts (the
    /// snapshot path calls this so a checkpoint's queue reflects every
    /// verdict the watermark has already issued). `false` = still
    /// parked on backpressure, release the lock and retry.
    pub(crate) fn try_settle(&mut self, id: SessionId) -> bool {
        match self.sessions.get_mut(&id) {
            Some(sess) => Self::settle_pending(&self.handle, id, sess) || sess.pending_misses == 0,
            None => true,
        }
    }
}

/// Builds the telemetry ack for the session's current watermark.
fn ack_for(id: SessionId, sess: &SessionIngress, ack: &mut [u8]) -> Option<usize> {
    debug_assert!(ack.len() >= HEADER_LEN);
    wire::encode_telemetry(ack, id, sess.next_slot, sess.next_slot).ok()
}
