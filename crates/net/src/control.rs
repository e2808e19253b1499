//! The TCP control plane: length-prefixed request/response messages for
//! everything that is not per-tick traffic — attach (open), detach
//! (close + final report), checkpoint (snapshot), revive (adopt),
//! ingress stats, durable event subscriptions, and the Prometheus
//! metrics endpoint.
//!
//! # Framing
//!
//! A connection opens with a 5-byte handshake (`WIRE_MAGIC` +
//! [`CONTROL_VERSION`], echoed by the server — the same versioning gate
//! as the data plane). Every message after that is `u32` little-endian
//! length + a [`ControlRequest`] / [`ControlResponse`] payload. Most
//! verbs are JSON; the v3 checkpoint verbs
//! ([`ControlRequest::SnapshotBin`] / [`ControlRequest::AdoptBin`] and
//! the [`ControlResponse::SnapshotBin`] reply) are compact binary
//! payloads — a 4-byte magic, a kind byte, and the snapshot's binary
//! frame verbatim, so checkpoints cross the wire with zero base64/JSON
//! inflation. One leading byte disambiguates (JSON opens with `{`).
//!
//! # Versioning
//!
//! Control protocol **v2** added [`ControlRequest::Subscribe`] /
//! [`ControlRequest::PollEvents`] / [`ControlRequest::Unsubscribe`] /
//! [`ControlRequest::Metrics`], their responses, and the typed
//! [`RejectCode`] on [`ControlResponse::Rejected`]. **v3** added the
//! opaque-binary checkpoint verbs. **v4** retired the JSON `Snapshot`
//! verb: [`ControlRequest::SnapshotBin`] is the only way to checkpoint
//! over the control plane. Per the versioning invariant, legacy decode
//! is kept explicitly: the server accepts a v1–v3 hello and echoes the
//! *client's* version back (old operators keep speaking their dialect —
//! a `Rejected` without a `code` field decodes as
//! [`RejectCode::Unknown`] on modern clients, and the legacy JSON
//! [`ControlRequest::Adopt`] verb still works; `Adopt`/`AdoptBin` both
//! sniff the snapshot bytes, so persisted JSON checkpoints revive on a
//! v4 server). A v1–v3 operator can still adopt but must upgrade to
//! checkpoint: its JSON `Snapshot` request no longer decodes, so it
//! gets the `Rejected { code: BadRequest }` any undecodable payload
//! gets, and the connection stays usable.
//!
//! The server side ([`ControlCore`]) is transport-agnostic: the TCP
//! connection handler and the in-process loopback control both call
//! [`ControlCore::execute`] — one implementation, two transports,
//! mirroring the data plane's design.

use crate::gateway::{EventHub, GatewayConfig};
use crate::ingress::IngressState;
use crate::wire::WIRE_MAGIC;
use crate::NetError;
use foreco_serve::{
    render_prometheus, IngressSummary, ServiceError, ServiceHandle, SessionId, SessionReport,
    SessionSnapshot, SessionSpec, SourceSpec, SourceState,
};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

/// Hard cap on one control message (a snapshot of a long scripted
/// session is the largest legitimate payload).
pub const MAX_CONTROL_MSG: usize = 64 << 20;

/// Control-plane protocol version spoken by this build. Distinct from
/// the data plane's `WIRE_VERSION`: v2 added event subscriptions, the
/// metrics endpoint, and typed reject codes; v3 added the opaque-binary
/// checkpoint verbs ([`ControlRequest::SnapshotBin`] /
/// [`ControlRequest::AdoptBin`]) so snapshot payloads travel as raw
/// bytes instead of JSON-inflated text; v4 retired the JSON `Snapshot`
/// verb, so v1–v3 operators can still adopt but must upgrade to
/// checkpoint (see the module docs for the compatibility rules).
pub const CONTROL_VERSION: u8 = 4;

/// Leading magic of a binary control payload (the v3 checkpoint verbs).
/// JSON payloads open with `{`, so one byte disambiguates.
pub(crate) const CONTROL_BIN_MAGIC: [u8; 4] = *b"FCTL";

/// Operator→gateway control messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlRequest {
    /// Attach: materialise a gated session for this operator. The
    /// gateway supplies the recovery/channel template; the operator
    /// supplies identity, start pose, and inbox bound.
    Open {
        /// Session id (also the shard-placement input).
        id: SessionId,
        /// Start pose both ends agree on.
        initial: Vec<f64>,
        /// Queued-command bound (overflow drops become losses).
        inbox_capacity: usize,
    },
    /// Detach: flush the data plane, drain the session, return its
    /// final report and ingress counters.
    Close {
        /// Session id.
        id: SessionId,
    },
    /// Revive a checkpointed session (e.g. across a gateway restart)
    /// and re-attach its data plane at the snapshot's slot watermark.
    /// The legacy JSON form of [`ControlRequest::AdoptBin`], kept so
    /// v1–v3 operators can still adopt.
    Adopt {
        /// A persisted snapshot as text (legacy JSON v1/v2).
        snapshot: String,
    },
    /// Checkpoint the live session with the response as an opaque
    /// binary snapshot frame (v3; the only checkpoint verb since v4) —
    /// no JSON inflation; the payload is `SessionSnapshot::to_bytes`
    /// verbatim. Travels as a binary control payload, never JSON.
    SnapshotBin {
        /// Session id.
        id: SessionId,
    },
    /// Revive a checkpointed session from its opaque byte form (v3).
    /// The server sniffs the payload, so legacy JSON snapshots adopt
    /// through this verb too.
    AdoptBin {
        /// Snapshot bytes as produced by [`ControlResponse::SnapshotBin`]
        /// (or any byte form `SessionSnapshot::from_bytes` decodes,
        /// persisted legacy JSON included).
        snapshot: Vec<u8>,
    },
    /// The session's current ingress counters.
    Stats {
        /// Session id.
        id: SessionId,
    },
    /// Register a durable fleet-event subscription (v2). The server
    /// starts queueing lifecycle events ([`FleetEvent`]) and enables
    /// park-level narration fleet-wide while any subscription is live.
    Subscribe {
        /// `true`: after the [`ControlResponse::Subscribed`] reply the
        /// server dedicates this TCP connection to pushing
        /// [`ControlResponse::Event`] frames until it closes. `false`
        /// (and every loopback transport): drain with
        /// [`ControlRequest::PollEvents`] instead.
        stream: bool,
    },
    /// Drain queued events from a poll-mode subscription (v2).
    PollEvents {
        /// Subscription id from [`ControlResponse::Subscribed`].
        subscription: u64,
        /// Upper bound on events returned in one reply.
        max: usize,
    },
    /// Tear a subscription down (v2). Stream-mode subscriptions end
    /// with their connection instead.
    Unsubscribe {
        /// Subscription id from [`ControlResponse::Subscribed`].
        subscription: u64,
    },
    /// The fleet's live telemetry in the Prometheus text exposition
    /// format (v2): per-shard counters, scheduler load, cumulative
    /// ingress totals, completed-session RMSE quantiles.
    Metrics,
}

/// Gateway→operator control replies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlResponse {
    /// The session is live; start streaming datagrams at slot 0.
    Opened {
        /// Session id.
        id: SessionId,
    },
    /// The session drained and reported.
    Closed {
        /// Session id.
        id: SessionId,
        /// Final engine-side accounting.
        report: SessionReport,
        /// Final wire-side accounting.
        ingress: IngressSummary,
    },
    /// The checkpoint as an opaque binary frame (v3; travels as a
    /// binary control payload, never JSON).
    SnapshotBin {
        /// Session id.
        id: SessionId,
        /// `SessionSnapshot::to_bytes` content, verbatim.
        snapshot: Vec<u8>,
    },
    /// The snapshot was revived; stream datagrams from `next_slot`.
    Adopted {
        /// Session id.
        id: SessionId,
        /// Virtual tick the session resumed at.
        tick: u64,
        /// The data-plane watermark: the next sequence number to send.
        next_slot: u64,
    },
    /// Current ingress counters.
    Stats {
        /// The counters.
        ingress: IngressSummary,
    },
    /// The subscription is live (v2).
    Subscribed {
        /// Id to poll/unsubscribe with.
        subscription: u64,
    },
    /// The subscription was torn down (v2).
    Unsubscribed {
        /// The removed id.
        subscription: u64,
    },
    /// One batch of queued events (v2, poll mode).
    Events {
        /// Oldest-first drained events.
        events: Vec<FleetEvent>,
        /// Events evicted from the subscription's bounded queue since
        /// the previous poll (cumulative loss signal, reset per reply).
        dropped: u64,
    },
    /// One pushed event (v2, stream mode). Never a reply to a request —
    /// only sent on a connection dedicated by
    /// `Subscribe { stream: true }`.
    Event {
        /// The event.
        event: FleetEvent,
    },
    /// The metrics scrape body (v2).
    Metrics {
        /// Prometheus text exposition format, UTF-8.
        body: String,
    },
    /// The request could not be honoured; nothing changed.
    Rejected {
        /// Machine-readable cause (v2; decodes as
        /// [`RejectCode::Unknown`] from v1 peers that omit it).
        code: RejectCode,
        /// Human-readable cause.
        reason: String,
    },
}

/// A lifecycle event published to control-plane subscribers. Mapped
/// from the service's `SessionEvent` stream by the gateway's event
/// pump; snapshot payloads are deliberately elided (checkpoints travel
/// on the request path, not the firehose).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetEvent {
    /// A session was materialised.
    Opened {
        /// Session id.
        id: SessionId,
        /// Owning shard.
        shard: usize,
    },
    /// A session ran to completion.
    Completed {
        /// Session id.
        id: SessionId,
        /// Final per-session accounting.
        report: SessionReport,
    },
    /// A session was checkpointed (payload elided). Like `Parked`,
    /// emitted only while a subscription is live.
    Snapshotted {
        /// Session id.
        id: SessionId,
        /// Owning shard.
        shard: usize,
    },
    /// A session left its shard mid-migration.
    Migrated {
        /// Session id.
        id: SessionId,
        /// Shard it left.
        from: usize,
        /// Shard it is moving to.
        to: usize,
    },
    /// A session parked at a verified idle fixed point. Emitted only
    /// while a subscription is live (park-level narration is gated by
    /// the fleet's observer count — see `foreco_serve::telemetry`).
    Parked {
        /// Session id.
        id: SessionId,
        /// Shard it parked on.
        shard: usize,
    },
    /// A session arrived on a shard and resumed: adopted from a
    /// snapshot, or the resume half of a migration.
    Adopted {
        /// Session id.
        id: SessionId,
        /// Shard now owning it.
        shard: usize,
        /// Virtual tick it resumed at.
        tick: u64,
    },
    /// A command was dropped on a full inbox (a loss event the
    /// session's recovery engine covers).
    Dropped {
        /// Session id.
        id: SessionId,
        /// The session's virtual tick at drop time.
        tick: u64,
    },
}

/// Machine-readable rejection causes (v2). Serialised as the variant
/// name; anything unrecognised — including the absent field in a v1
/// `Rejected` payload — decodes as [`RejectCode::Unknown`], so old and
/// new peers interoperate without negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RejectCode {
    /// Malformed or invalid request parameters (wrong pose dims, zero
    /// inbox, undecodable payload, bad snapshot JSON, …).
    BadRequest,
    /// An open/adopt reused a live session's id.
    DuplicateSession,
    /// The target session is unknown to (or not attached to) the
    /// gateway.
    UnknownSession,
    /// The service did not answer within the control timeout.
    Timeout,
    /// The session exists but its state cannot be exported.
    SnapshotFailed,
    /// The snapshot could not be rehydrated.
    RestoreFailed,
    /// The service's control channel is full; retry.
    Backpressure,
    /// The fronted service is terminating.
    Unavailable,
    /// A v1 peer's rejection (no code on the wire), or a code minted by
    /// a newer protocol than this build speaks.
    Unknown,
}

// Hand-written so a missing field (`Value::Null` under the vendored
// serde's missing-field convention) and unrecognised names both decode
// as `Unknown` — the `#[serde(default)]`-style behaviour the
// versioning invariant requires, without attribute support in the
// offline derive shim.
impl Deserialize for RejectCode {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(match v {
            serde::Value::String(s) => match s.as_str() {
                "BadRequest" => RejectCode::BadRequest,
                "DuplicateSession" => RejectCode::DuplicateSession,
                "UnknownSession" => RejectCode::UnknownSession,
                "Timeout" => RejectCode::Timeout,
                "SnapshotFailed" => RejectCode::SnapshotFailed,
                "RestoreFailed" => RejectCode::RestoreFailed,
                "Backpressure" => RejectCode::Backpressure,
                "Unavailable" => RejectCode::Unavailable,
                _ => RejectCode::Unknown,
            },
            _ => RejectCode::Unknown,
        })
    }
}

impl std::fmt::Display for RejectCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A typed rejection in flight inside the gateway (hub waits, control
/// handlers) before it becomes a [`ControlResponse::Rejected`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Reject {
    pub(crate) code: RejectCode,
    pub(crate) reason: String,
}

impl Reject {
    pub(crate) fn new(code: RejectCode, reason: impl Into<String>) -> Self {
        Self {
            code,
            reason: reason.into(),
        }
    }

    /// Maps a `ServiceHandle` send failure onto a wire code.
    pub(crate) fn service(context: &str, e: ServiceError) -> Self {
        let code = match e {
            ServiceError::Backpressure => RejectCode::Backpressure,
            ServiceError::Disconnected => RejectCode::Unavailable,
            ServiceError::NoSuchShard { .. } | ServiceError::CorruptArchive { .. } => {
                RejectCode::BadRequest
            }
        };
        Self::new(code, format!("service rejected {context}: {e}"))
    }
}

impl From<Reject> for ControlResponse {
    fn from(r: Reject) -> Self {
        ControlResponse::Rejected {
            code: r.code,
            reason: r.reason,
        }
    }
}

/// Writes the 5-byte protocol handshake at this build's version.
pub fn write_hello<W: Write>(w: &mut W) -> std::io::Result<()> {
    write_hello_version(w, CONTROL_VERSION)
}

/// Writes the 5-byte handshake at an explicit version (the server
/// echoes the *client's* version so v1 operators keep speaking v1).
pub fn write_hello_version<W: Write>(w: &mut W, version: u8) -> std::io::Result<()> {
    let mut hello = [0u8; 5];
    hello[..4].copy_from_slice(&WIRE_MAGIC);
    hello[4] = version;
    w.write_all(&hello)
}

/// Reads and validates the 5-byte protocol handshake, returning the
/// negotiated version (1 ..= [`CONTROL_VERSION`]).
pub fn read_hello<R: Read>(r: &mut R) -> Result<u8, NetError> {
    let mut hello = [0u8; 5];
    r.read_exact(&mut hello).map_err(NetError::Io)?;
    check_hello(hello)
}

/// Validates a 5-byte handshake (magic + a version in
/// 1 ..= [`CONTROL_VERSION`]) and returns its version — the one check
/// both the client's and the gateway's side of the handshake run.
pub(crate) fn check_hello(hello: [u8; 5]) -> Result<u8, NetError> {
    if hello[..4] != WIRE_MAGIC {
        return Err(NetError::Protocol("control handshake: bad magic".into()));
    }
    if hello[4] == 0 || hello[4] > CONTROL_VERSION {
        return Err(NetError::Protocol(format!(
            "control handshake: version {} (this build speaks 1..={CONTROL_VERSION})",
            hello[4]
        )));
    }
    Ok(hello[4])
}

/// Writes one length-prefixed message.
///
/// Prefix and payload go out in a single write: split into two, Nagle's
/// algorithm holds the payload until the peer ACKs the prefix, which a
/// delayed-ACK peer postpones by ~40 ms per round trip.
pub fn write_msg<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed message (bounded by [`MAX_CONTROL_MSG`]).
pub fn read_msg<R: Read>(r: &mut R) -> Result<Vec<u8>, NetError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len).map_err(NetError::Io)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_CONTROL_MSG {
        return Err(NetError::Protocol(format!(
            "control message of {len} bytes exceeds the {MAX_CONTROL_MSG}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(NetError::Io)?;
    Ok(payload)
}

/// The transport-agnostic control-plane executor (shared by every TCP
/// connection handler and the loopback control).
#[derive(Clone)]
pub struct ControlCore {
    pub(crate) handle: ServiceHandle,
    pub(crate) ingress: Arc<Mutex<IngressState>>,
    pub(crate) hub: Arc<EventHub>,
    pub(crate) cfg: Arc<GatewayConfig>,
    pub(crate) dof: usize,
}

impl ControlCore {
    /// Executes one control request against the service.
    pub fn execute(&self, request: ControlRequest) -> ControlResponse {
        match request {
            ControlRequest::Open {
                id,
                initial,
                inbox_capacity,
            } => self.open(id, initial, inbox_capacity),
            ControlRequest::Close { id } => self.close(id),
            ControlRequest::SnapshotBin { id } => self.snapshot(id),
            ControlRequest::Adopt { snapshot } => self.adopt(snapshot.as_bytes()),
            ControlRequest::AdoptBin { snapshot } => self.adopt(&snapshot),
            ControlRequest::Stats { id } => match self.ingress.lock().expect("ingress").summary(id)
            {
                Some(ingress) => ControlResponse::Stats { ingress },
                None => Reject::new(
                    RejectCode::UnknownSession,
                    format!("session {id} is not attached"),
                )
                .into(),
            },
            ControlRequest::Subscribe { .. } => {
                // The `stream` flag is a transport concern: the TCP
                // handler dedicates its connection after this reply;
                // loopback (and poll-mode TCP) subscriptions drain via
                // PollEvents. Either way the registration — and the
                // fleet-wide observer it enables — is identical.
                let subscription = self.hub.subscribe();
                self.handle.attach_observer();
                ControlResponse::Subscribed { subscription }
            }
            ControlRequest::PollEvents { subscription, max } => {
                match self.hub.poll_events(subscription, max) {
                    Ok((events, dropped)) => ControlResponse::Events { events, dropped },
                    Err(r) => r.into(),
                }
            }
            ControlRequest::Unsubscribe { subscription } => {
                if self.release_subscription(subscription) {
                    ControlResponse::Unsubscribed { subscription }
                } else {
                    Reject::new(
                        RejectCode::UnknownSession,
                        format!("no subscription {subscription}"),
                    )
                    .into()
                }
            }
            ControlRequest::Metrics => self.metrics(),
        }
    }

    /// Removes a subscription and, if it existed, its fleet-wide
    /// lifecycle observer. Also called by the TCP handler when a
    /// connection owning subscriptions disconnects.
    pub(crate) fn release_subscription(&self, subscription: u64) -> bool {
        let removed = self.hub.unsubscribe(subscription);
        if removed {
            self.handle.detach_observer();
        }
        removed
    }

    /// Renders the fleet's live telemetry as Prometheus text. All the
    /// allocation happens here, in the control plane — the shards only
    /// ever touched relaxed atomics (the observability discipline).
    fn metrics(&self) -> ControlResponse {
        let ingress = self.ingress.lock().expect("ingress").totals();
        let rmse = self.hub.rmse_summary();
        ControlResponse::Metrics {
            body: render_prometheus(&self.handle.shard_loads(), &ingress, rmse.as_ref()),
        }
    }

    fn open(&self, id: SessionId, initial: Vec<f64>, inbox_capacity: usize) -> ControlResponse {
        if initial.len() != self.dof {
            return Reject::new(
                RejectCode::BadRequest,
                format!(
                    "initial pose has {} joints, the arm has {}",
                    initial.len(),
                    self.dof
                ),
            )
            .into();
        }
        if initial.iter().any(|q| !q.is_finite()) {
            return Reject::new(
                RejectCode::BadRequest,
                "initial pose has a non-finite joint",
            )
            .into();
        }
        if inbox_capacity == 0 {
            return Reject::new(RejectCode::BadRequest, "inbox capacity must be ≥ 1").into();
        }
        let spec = SessionSpec::new(
            id,
            SourceSpec::Gated {
                initial,
                inbox_capacity,
            },
            self.cfg.channel.clone(),
            self.cfg.recovery.clone(),
        );
        if let Err(e) = self.handle.open(spec) {
            return Reject::service("open", e).into();
        }
        match self.hub.wait_opened(id, self.cfg.control_timeout) {
            Ok(()) => {
                self.ingress.lock().expect("ingress").attach(id, 0);
                ControlResponse::Opened { id }
            }
            Err(reject) => reject.into(),
        }
    }

    fn close(&self, id: SessionId) -> ControlResponse {
        // Flush but stay attached: `Rejected` promises "nothing
        // changed", so the session must survive a failed close for the
        // operator to retry. The flush is re-attempted without holding
        // the ingress lock across shard backpressure — one session's
        // close must never stall the whole data plane.
        loop {
            let flushed = {
                let mut state = self.ingress.lock().expect("ingress");
                if state.summary(id).is_none() {
                    return Reject::new(
                        RejectCode::UnknownSession,
                        format!("session {id} is not attached"),
                    )
                    .into();
                }
                state.try_flush(id)
            };
            if flushed {
                break;
            }
            std::thread::yield_now();
        }
        // Purge any stale UnknownSession leftover (a retransmitted
        // datagram racing an earlier teardown) before the close is
        // issued — its genuine answer must not be confused with it.
        self.hub.forget_unknown(id);
        if let Err(e) = self.handle.close(id) {
            return Reject::service("close", e).into();
        }
        match self.hub.wait_report(id, self.cfg.control_timeout) {
            Ok(report) => {
                let ingress = self
                    .ingress
                    .lock()
                    .expect("ingress")
                    .detach(id)
                    .expect("session was attached above");
                // The session is finished end to end: drop its hub
                // bookkeeping so a long-lived gateway stays O(live).
                self.hub.purge(id);
                ControlResponse::Closed {
                    id,
                    report,
                    ingress,
                }
            }
            // The report may still arrive; the hub keeps it for a
            // retried Close, and the session stays attached meanwhile.
            Err(reject) => reject.into(),
        }
    }

    fn snapshot(&self, id: SessionId) -> ControlResponse {
        // Land any loss verdicts parked on shard backpressure first:
        // the checkpoint's queue must reflect every verdict the ingress
        // watermark has issued, or the adopt-side slot arithmetic would
        // resume below where the wire's acks already reached.
        while !self.ingress.lock().expect("ingress").try_settle(id) {
            std::thread::yield_now();
        }
        let report = match self.handle.snapshot_fleet(&[id]) {
            Ok(report) => report,
            Err(e) => return Reject::service("snapshot", e).into(),
        };
        // Gateway sessions are gated, so the archive's one part is the
        // self-contained snapshot frame, `SessionSnapshot::to_bytes`
        // byte for byte.
        match (report.archive.part_frames().next(), report.failed.first()) {
            (Some(frame), _) => ControlResponse::SnapshotBin {
                id,
                snapshot: frame.to_vec(),
            },
            (None, Some((_, reason))) => Reject::new(RejectCode::SnapshotFailed, reason).into(),
            (None, None) => Reject::new(
                RejectCode::UnknownSession,
                format!("session {id} is unknown to the service"),
            )
            .into(),
        }
    }

    fn adopt(&self, snapshot_bytes: &[u8]) -> ControlResponse {
        let snapshot = match SessionSnapshot::from_bytes(snapshot_bytes) {
            Ok(snapshot) => snapshot,
            Err(e) => {
                return Reject::new(RejectCode::BadRequest, format!("snapshot rejected: {e}"))
                    .into()
            }
        };
        let id = snapshot.id;
        // The data-plane watermark resumes at the snapshot's settled
        // slot count: consumed ticks plus still-queued tick-consuming
        // slots (late patches ride between ticks and consume none).
        let next_slot = match &snapshot.source {
            SourceState::Gated { inbox, .. } => {
                let queued = inbox.queue.iter().try_fold(0u64, |acc, s| {
                    acc.checked_add(match s {
                        foreco_serve::GatedSlot::Late { .. } => 0,
                        foreco_serve::GatedSlot::Miss { count } => *count,
                        foreco_serve::GatedSlot::Command(_) => 1,
                    })
                });
                match queued.and_then(|q| snapshot.tick.checked_add(q)) {
                    Some(next_slot) => next_slot,
                    None => {
                        return Reject::new(
                            RejectCode::BadRequest,
                            "snapshot slot arithmetic overflows",
                        )
                        .into()
                    }
                }
            }
            _ => {
                return Reject::new(
                    RejectCode::BadRequest,
                    "only gated (socket-ingress) sessions attach to the gateway",
                )
                .into()
            }
        };
        if let Err(e) = self.handle.adopt(snapshot) {
            return Reject::service("adopt", e).into();
        }
        match self.hub.wait_restored(id, self.cfg.control_timeout) {
            Ok(tick) => {
                self.ingress.lock().expect("ingress").attach(id, next_slot);
                ControlResponse::Adopted {
                    id,
                    tick,
                    next_slot,
                }
            }
            Err(reject) => reject.into(),
        }
    }
}

/// Serialises a control message to its JSON wire payload.
pub(crate) fn to_payload<T: Serialize>(msg: &T) -> Vec<u8> {
    serde_json::to_string(msg)
        .expect("control messages serialise infallibly")
        .into_bytes()
}

/// Parses a control payload.
pub(crate) fn from_payload<T: Deserialize>(payload: &[u8]) -> Result<T, NetError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| NetError::Protocol("control payload is not UTF-8".into()))?;
    serde_json::from_str(text).map_err(|e| NetError::Protocol(format!("control payload: {e}")))
}

// Binary payload kinds (v3). One byte after `CONTROL_BIN_MAGIC`; the
// snapshot bytes inside are opaque to this layer.
const BIN_SNAPSHOT_REQ: u8 = 1;
const BIN_ADOPT_REQ: u8 = 2;
const BIN_SNAPSHOT_RESP: u8 = 3;

fn bin_frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(5 + body.len());
    payload.extend_from_slice(&CONTROL_BIN_MAGIC);
    payload.push(kind);
    payload.extend_from_slice(body);
    payload
}

fn bin_body(payload: &[u8]) -> Option<(u8, &[u8])> {
    if payload.len() < 5 || payload[..4] != CONTROL_BIN_MAGIC {
        return None;
    }
    Some((payload[4], &payload[5..]))
}

fn bin_u64(body: &[u8], what: &str) -> Result<u64, NetError> {
    let bytes: [u8; 8] = body
        .try_into()
        .map_err(|_| NetError::Protocol(format!("{what}: expected 8 bytes, got {}", body.len())))?;
    Ok(u64::from_le_bytes(bytes))
}

/// Serialises a control request: the v3 checkpoint verbs become compact
/// binary payloads (magic + kind + raw bytes — no base64/JSON
/// inflation), everything else stays JSON.
pub(crate) fn encode_request(request: &ControlRequest) -> Vec<u8> {
    match request {
        ControlRequest::SnapshotBin { id } => bin_frame(BIN_SNAPSHOT_REQ, &id.to_le_bytes()),
        ControlRequest::AdoptBin { snapshot } => bin_frame(BIN_ADOPT_REQ, snapshot),
        _ => to_payload(request),
    }
}

/// Parses a control request — binary v3 payloads by magic, JSON
/// otherwise.
pub(crate) fn decode_request(payload: &[u8]) -> Result<ControlRequest, NetError> {
    match bin_body(payload) {
        Some((BIN_SNAPSHOT_REQ, body)) => Ok(ControlRequest::SnapshotBin {
            id: bin_u64(body, "SnapshotBin request")?,
        }),
        Some((BIN_ADOPT_REQ, body)) => Ok(ControlRequest::AdoptBin {
            snapshot: body.to_vec(),
        }),
        Some((kind, _)) => Err(NetError::Protocol(format!(
            "binary control request: unknown kind {kind}"
        ))),
        None => from_payload(payload),
    }
}

/// Serialises a control response (binary for [`ControlResponse::SnapshotBin`],
/// JSON otherwise).
pub(crate) fn encode_response(response: &ControlResponse) -> Vec<u8> {
    match response {
        ControlResponse::SnapshotBin { id, snapshot } => {
            let mut body = Vec::with_capacity(8 + snapshot.len());
            body.extend_from_slice(&id.to_le_bytes());
            body.extend_from_slice(snapshot);
            bin_frame(BIN_SNAPSHOT_RESP, &body)
        }
        _ => to_payload(response),
    }
}

/// Parses a control response — binary v3 payloads by magic, JSON
/// otherwise.
pub(crate) fn decode_response(payload: &[u8]) -> Result<ControlResponse, NetError> {
    match bin_body(payload) {
        Some((BIN_SNAPSHOT_RESP, body)) => {
            if body.len() < 8 {
                return Err(NetError::Protocol(
                    "SnapshotBin response: truncated id".into(),
                ));
            }
            Ok(ControlResponse::SnapshotBin {
                id: u64::from_le_bytes(body[..8].try_into().expect("8 bytes")),
                snapshot: body[8..].to_vec(),
            })
        }
        Some((kind, _)) => Err(NetError::Protocol(format!(
            "binary control response: unknown kind {kind}"
        ))),
        None => from_payload(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_rejected_payload_decodes_with_unknown_code() {
        // A v1 peer sends Rejected with only `reason`; the absent code
        // field must decode as Unknown, not fail.
        let legacy = br#"{"Rejected":{"reason":"no such session"}}"#;
        let response: ControlResponse = from_payload(legacy).expect("legacy decode");
        assert_eq!(
            response,
            ControlResponse::Rejected {
                code: RejectCode::Unknown,
                reason: "no such session".into(),
            }
        );
    }

    #[test]
    fn unknown_reject_code_names_decode_as_unknown() {
        let future = br#"{"Rejected":{"code":"QuotaExceeded","reason":"x"}}"#;
        let response: ControlResponse = from_payload(future).expect("forward decode");
        let ControlResponse::Rejected { code, .. } = response else {
            panic!("expected Rejected");
        };
        assert_eq!(code, RejectCode::Unknown);
    }

    #[test]
    fn typed_rejects_round_trip() {
        let response = ControlResponse::Rejected {
            code: RejectCode::DuplicateSession,
            reason: "session 7 already exists".into(),
        };
        let decoded: ControlResponse =
            from_payload(&to_payload(&response)).expect("round trip decode");
        assert_eq!(decoded, response);
    }

    #[test]
    fn hello_negotiates_both_versions() {
        for version in 1..=CONTROL_VERSION {
            let mut wire = Vec::new();
            write_hello_version(&mut wire, version).unwrap();
            let got = read_hello(&mut wire.as_slice()).expect("accept version");
            assert_eq!(got, version);
        }
        let mut wire = Vec::new();
        write_hello_version(&mut wire, CONTROL_VERSION + 1).unwrap();
        assert!(read_hello(&mut wire.as_slice()).is_err(), "future version");
        let mut wire = Vec::new();
        write_hello_version(&mut wire, 0).unwrap();
        assert!(read_hello(&mut wire.as_slice()).is_err(), "version zero");
    }

    #[test]
    fn fleet_events_round_trip_the_wire_codec() {
        let events = vec![
            FleetEvent::Opened { id: 1, shard: 0 },
            FleetEvent::Parked { id: 1, shard: 0 },
            FleetEvent::Migrated {
                id: 1,
                from: 0,
                to: 3,
            },
            FleetEvent::Dropped { id: 2, tick: 40 },
            FleetEvent::Snapshotted { id: 3, shard: 1 },
        ];
        let response = ControlResponse::Events {
            events: events.clone(),
            dropped: 5,
        };
        let decoded: ControlResponse = from_payload(&to_payload(&response)).expect("decode");
        assert_eq!(decoded, response);
    }
}
