//! The operator side: [`ForecoClient`], the one client type. It opens,
//! checkpoints, adopts and closes a session, observes the fleet (wire
//! stats, Prometheus metrics, poll-mode event subscriptions), and
//! [`ForecoClient::replay`]s teleoperation traces over the wire
//! protocol — one frame per 50 Hz slot, a cumulative-ack send window,
//! optional retransmission, and **seeded artificial impairments** (loss
//! and lateness) applied above the transport so the same seed produces
//! the same wire behaviour on every run. Gateway rejections carry a
//! typed [`RejectCode`](crate::RejectCode).
//!
//! Transports are traits: [`UdpWire`]/[`TcpControl`] speak real
//! sockets, [`LoopbackWire`]/[`LoopbackControl`] drive the gateway's
//! identical ingress/control code in-process. A trace replayed through
//! both must produce bit-identical session statistics — the determinism
//! contract pinned by `tests/gateway.rs`.
//!
//! # Flow control
//!
//! Telemetry frames carry the gateway's settled-slot watermark (every
//! slot below it is delivered, patched, or flushed as lost). The client
//! keeps at most [`ClientConfig::window`] unsettled frames in flight
//! and resends the oldest after [`ClientConfig::retransmit_after`]
//! without progress — so OS-level datagram drops are healed by the
//! protocol, while *deliberate* impairments stay visible: an
//! artificially lost frame is simply never sent — its slot flushes as a
//! loss at the gateway once later frames expose the gap (a loss
//! trailing the final received frame stays unknown, and the session
//! just ends that many ticks earlier) — and an artificially late frame
//! is held back [`ClientConfig::late_depth`] slots so it arrives behind
//! the reorder horizon and rides the §VII-C late path.

use crate::control::{self, ControlCore, ControlRequest, ControlResponse, CONTROL_VERSION};
use crate::gateway::Gateway;
use crate::ingress::IngressState;
use crate::sdk::EventBatch;
use crate::wire::{self, FrameKind, MAX_FRAME};
use crate::NetError;
use foreco_serve::{IngressSummary, SessionId, SessionReport};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A datagram transport for the data plane.
pub trait DataWire {
    /// Sends one encoded frame.
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()>;
    /// Receives one frame if available within a short poll; `None` when
    /// nothing is pending.
    fn recv(&mut self, buf: &mut [u8]) -> std::io::Result<Option<usize>>;
}

/// A request/response transport for the control plane.
pub trait ControlWire {
    /// Performs one control round trip.
    fn request(&mut self, request: &ControlRequest) -> Result<ControlResponse, NetError>;
}

/// Real UDP data plane (connected to the gateway's data address).
pub struct UdpWire {
    socket: UdpSocket,
}

impl UdpWire {
    /// Binds an ephemeral local socket and connects it to the gateway.
    ///
    /// # Errors
    /// Socket bind/connect/configuration failures.
    pub fn connect(gateway: SocketAddr) -> std::io::Result<Self> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.connect(gateway)?;
        // Non-blocking: the replay loop polls between its own sleeps, so
        // a blocking ack read would only add latency to every window
        // check.
        socket.set_nonblocking(true)?;
        Ok(Self { socket })
    }
}

impl DataWire for UdpWire {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.socket.send(frame).map(|_| ())
    }

    fn recv(&mut self, buf: &mut [u8]) -> std::io::Result<Option<usize>> {
        match self.socket.recv(buf) {
            Ok(len) => Ok(Some(len)),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// Real TCP control plane (with the protocol handshake performed).
pub struct TcpControl {
    pub(crate) stream: TcpStream,
}

impl TcpControl {
    /// Connects to the gateway's control address and performs the
    /// version handshake at [`CONTROL_VERSION`].
    ///
    /// # Errors
    /// Socket failures ([`NetError::Io`]), or a server hello that is
    /// malformed or echoes a version other than the one sent
    /// ([`NetError::Protocol`]).
    pub fn connect(gateway: SocketAddr) -> Result<Self, NetError> {
        let mut stream = TcpStream::connect(gateway).map_err(NetError::Io)?;
        stream.set_nodelay(true).map_err(NetError::Io)?;
        control::write_hello(&mut stream).map_err(NetError::Io)?;
        let echoed = control::read_hello(&mut stream)?;
        if echoed != CONTROL_VERSION {
            return Err(NetError::Protocol(format!(
                "control handshake: sent version {CONTROL_VERSION}, server echoed {echoed}"
            )));
        }
        Ok(Self { stream })
    }
}

impl ControlWire for TcpControl {
    fn request(&mut self, request: &ControlRequest) -> Result<ControlResponse, NetError> {
        control::write_msg(&mut self.stream, &control::encode_request(request))
            .map_err(NetError::Io)?;
        control::decode_response(&control::read_msg(&mut self.stream)?)
    }
}

/// In-process data plane: every frame runs the gateway's real ingress
/// path (codec included) under its mutex; acks queue locally.
pub struct LoopbackWire {
    ingress: Arc<Mutex<IngressState>>,
    acks: VecDeque<Vec<u8>>,
}

impl LoopbackWire {
    pub(crate) fn new(ingress: Arc<Mutex<IngressState>>) -> Self {
        Self {
            ingress,
            acks: VecDeque::new(),
        }
    }
}

impl DataWire for LoopbackWire {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let mut ack = [0u8; MAX_FRAME];
        let ack_len = self
            .ingress
            .lock()
            .expect("ingress")
            .handle_datagram(frame, &mut ack);
        if let Some(len) = ack_len {
            self.acks.push_back(ack[..len].to_vec());
        }
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8]) -> std::io::Result<Option<usize>> {
        match self.acks.pop_front() {
            Some(ack) => {
                buf[..ack.len()].copy_from_slice(&ack);
                Ok(Some(ack.len()))
            }
            None => Ok(None),
        }
    }
}

/// In-process control plane: requests execute directly on the gateway's
/// [`ControlCore`] — the same code every TCP connection runs.
pub struct LoopbackControl {
    core: ControlCore,
}

impl LoopbackControl {
    pub(crate) fn new(core: ControlCore) -> Self {
        Self { core }
    }
}

impl ControlWire for LoopbackControl {
    fn request(&mut self, request: &ControlRequest) -> Result<ControlResponse, NetError> {
        // Round-trip through the control payload codec (JSON verbs,
        // binary checkpoint verbs) so the loopback path exercises
        // byte-identical (de)serialisation to the socket path.
        let request: ControlRequest = control::decode_request(&control::encode_request(request))?;
        let response = self.core.execute(request);
        control::decode_response(&control::encode_response(&response))
    }
}

/// Replay behaviour knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Max unsettled frames in flight before sending blocks on acks
    /// (at least 1: [`ForecoClient::replay`] refuses a zero window).
    pub window: u64,
    /// Probability a frame is never sent (a silent wire loss; its slot
    /// flushes as lost at the gateway).
    pub loss: f64,
    /// Probability a frame is deferred [`ClientConfig::late_depth`]
    /// slots (arriving behind the reorder horizon → §VII-C late path
    /// when `late_depth` exceeds the gateway's `reorder_window`).
    pub late: f64,
    /// How many later frames precede a deferred one.
    pub late_depth: u64,
    /// Impairment RNG seed — same seed, same wire behaviour.
    pub seed: u64,
    /// Per-slot pacing (e.g. 20 ms for the paper's 50 Hz); `None`
    /// replays as fast as flow control allows.
    pub pace: Option<Duration>,
    /// Resend the oldest unsettled frame after this long without ack
    /// progress (heals OS-level drops; duplicates are discarded).
    pub retransmit_after: Duration,
    /// Give up waiting for acks after this long without progress.
    pub stall_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            window: 32,
            loss: 0.0,
            late: 0.0,
            late_depth: 12,
            seed: 0,
            pace: None,
            retransmit_after: Duration::from_millis(50),
            stall_timeout: Duration::from_secs(10),
        }
    }
}

/// What a replay did on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Frames sent (first transmissions).
    pub sent: u64,
    /// Slots deliberately never sent.
    pub lost: u64,
    /// Frames deliberately deferred past the reorder horizon.
    pub deferred: u64,
    /// Retransmissions triggered by missing acks.
    pub retransmits: u64,
    /// The gateway's settled-slot watermark when the replay returned.
    pub acked: u64,
}

/// A remote operator: one fleet session plus fleet-wide observation,
/// driven over a data wire and a control wire (real sockets or
/// loopback — same protocol either way).
pub struct ForecoClient<D: DataWire, C: ControlWire> {
    data: D,
    control: C,
    session: SessionId,
}

impl ForecoClient<UdpWire, TcpControl> {
    /// Connects a remote operator: UDP data plane + TCP control plane
    /// (version handshake included).
    ///
    /// # Errors
    /// Socket failures ([`NetError::Io`]) or a handshake the gateway
    /// refused ([`NetError::Protocol`]).
    pub fn connect(session: SessionId, udp: SocketAddr, tcp: SocketAddr) -> Result<Self, NetError> {
        let data = UdpWire::connect(udp).map_err(NetError::Io)?;
        let control = TcpControl::connect(tcp)?;
        Ok(Self::new(session, data, control))
    }
}

impl ForecoClient<LoopbackWire, LoopbackControl> {
    /// An in-process operator running the gateway's identical codec,
    /// ingress, and control code without sockets.
    pub fn loopback(gateway: &Gateway, session: SessionId) -> Self {
        let (data, control) = gateway.loopback();
        Self::new(session, data, control)
    }
}

impl<D: DataWire, C: ControlWire> ForecoClient<D, C> {
    /// A client for `session` over the given transports.
    pub fn new(session: SessionId, data: D, control: C) -> Self {
        Self {
            data,
            control,
            session,
        }
    }

    /// The session this client drives.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Attaches: opens the gated session on the gateway.
    ///
    /// # Errors
    /// [`NetError::Rejected`] (typed code + gateway reason) or
    /// transport failures.
    pub fn open(&mut self, initial: Vec<f64>, inbox_capacity: usize) -> Result<(), NetError> {
        match self.control.request(&ControlRequest::Open {
            id: self.session,
            initial,
            inbox_capacity,
        })? {
            ControlResponse::Opened { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Detaches: flushes the data plane, drains the session, and
    /// returns its final report plus the wire-side counters.
    ///
    /// # Errors
    /// [`NetError::Rejected`] / transport failures.
    pub fn close(&mut self) -> Result<(SessionReport, IngressSummary), NetError> {
        match self
            .control
            .request(&ControlRequest::Close { id: self.session })?
        {
            ControlResponse::Closed {
                report, ingress, ..
            } => Ok((report, ingress)),
            other => Err(unexpected(other)),
        }
    }

    /// Checkpoints the live session, returning the snapshot's portable
    /// byte form (the binary snapshot frame, fetched through the
    /// `SnapshotBin` verb — the bytes cross the wire verbatim, with no
    /// JSON inflation).
    ///
    /// # Errors
    /// [`NetError::Rejected`] / transport failures.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, NetError> {
        match self
            .control
            .request(&ControlRequest::SnapshotBin { id: self.session })?
        {
            ControlResponse::SnapshotBin { snapshot, .. } => Ok(snapshot),
            other => Err(unexpected(other)),
        }
    }

    /// Revives a checkpoint on the gateway, returning the next sequence
    /// number to stream from. Accepts any `SessionSnapshot` byte form —
    /// binary frames (v3 or v4) and persisted legacy JSON checkpoints both
    /// adopt (the server sniffs the payload).
    ///
    /// # Errors
    /// [`NetError::Rejected`] / transport failures.
    pub fn adopt(&mut self, snapshot: &[u8]) -> Result<u64, NetError> {
        match self.control.request(&ControlRequest::AdoptBin {
            snapshot: snapshot.to_vec(),
        })? {
            ControlResponse::Adopted { next_slot, .. } => Ok(next_slot),
            other => Err(unexpected(other)),
        }
    }

    /// The session's current wire-side counters.
    ///
    /// # Errors
    /// [`NetError::Rejected`] / transport failures.
    pub fn stats(&mut self) -> Result<IngressSummary, NetError> {
        match self
            .control
            .request(&ControlRequest::Stats { id: self.session })?
        {
            ControlResponse::Stats { ingress } => Ok(ingress),
            other => Err(unexpected(other)),
        }
    }

    /// Scrapes the fleet-wide metrics snapshot in Prometheus text
    /// exposition format.
    ///
    /// # Errors
    /// [`NetError::Rejected`] / transport failures.
    pub fn metrics(&mut self) -> Result<String, NetError> {
        match self.control.request(&ControlRequest::Metrics)? {
            ControlResponse::Metrics { body } => Ok(body),
            other => Err(unexpected(other)),
        }
    }

    /// Opens a poll-mode fleet event subscription; drain it with
    /// [`ForecoClient::poll_events`] and release it with
    /// [`ForecoClient::unsubscribe`].
    ///
    /// # Errors
    /// [`NetError::Rejected`] / transport failures.
    pub fn subscribe(&mut self) -> Result<u64, NetError> {
        match self
            .control
            .request(&ControlRequest::Subscribe { stream: false })?
        {
            ControlResponse::Subscribed { subscription } => Ok(subscription),
            other => Err(unexpected(other)),
        }
    }

    /// Drains up to `max` queued events from a subscription.
    ///
    /// # Errors
    /// [`NetError::Rejected`] with
    /// [`RejectCode::UnknownSession`](crate::RejectCode) when the
    /// subscription does not exist; transport failures.
    pub fn poll_events(&mut self, subscription: u64, max: usize) -> Result<EventBatch, NetError> {
        match self
            .control
            .request(&ControlRequest::PollEvents { subscription, max })?
        {
            ControlResponse::Events { events, dropped } => Ok(EventBatch { events, dropped }),
            other => Err(unexpected(other)),
        }
    }

    /// Releases a poll-mode subscription (detaching its observer).
    ///
    /// # Errors
    /// [`NetError::Rejected`] when the subscription does not exist;
    /// transport failures.
    pub fn unsubscribe(&mut self, subscription: u64) -> Result<(), NetError> {
        match self
            .control
            .request(&ControlRequest::Unsubscribe { subscription })?
        {
            ControlResponse::Unsubscribed { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Replays `trace` starting at sequence number `start_slot`
    /// (0 for a fresh session; an adopted session resumes where
    /// [`ForecoClient::adopt`] said). See the module docs for the
    /// window, retransmission, and impairment semantics.
    ///
    /// # Errors
    /// [`NetError::Io`] with [`ErrorKind::InvalidInput`] for a zero
    /// [`ClientConfig::window`] (no frame is sent), transport failures,
    /// or [`NetError::Timeout`] when acks stall beyond
    /// [`ClientConfig::stall_timeout`].
    pub fn replay(
        &mut self,
        trace: &[Vec<f64>],
        start_slot: u64,
        cfg: &ClientConfig,
    ) -> Result<ReplayStats, NetError> {
        // A zero window could never admit a frame: every slot would
        // wait on acks for frames it was not allowed to send.
        if cfg.window == 0 {
            return Err(NetError::Io(std::io::Error::new(
                ErrorKind::InvalidInput,
                "ClientConfig::window must be at least 1",
            )));
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Impairment fates are pre-drawn per slot so they depend only on
        // the seed — never on transport timing.
        #[derive(Clone, Copy, PartialEq)]
        enum Fate {
            Send,
            Lose,
            Defer,
        }
        let fates: Vec<Fate> = trace
            .iter()
            .map(|_| {
                let roll: f64 = rng.gen();
                if roll < cfg.loss {
                    Fate::Lose
                } else if roll < cfg.loss + cfg.late {
                    Fate::Defer
                } else {
                    Fate::Send
                }
            })
            .collect();

        let mut stats = ReplayStats::default();
        let mut run = ReplayRun {
            client: self,
            trace,
            start_slot,
            cfg,
            unsettled: BTreeSet::new(),
            acked_to: start_slot,
            last_progress: Instant::now(),
            last_retransmit: Instant::now(),
            buf: [0u8; MAX_FRAME],
        };
        // Deferred frames waiting for their release point (in units of
        // slots walked past).
        let mut deferred: VecDeque<(u64, u64)> = VecDeque::new(); // (release_at, seq)
        for (i, fate) in fates.iter().enumerate() {
            let seq = start_slot + i as u64;
            while deferred
                .front()
                .is_some_and(|&(release_at, _)| release_at <= seq)
            {
                let (_, late_seq) = deferred.pop_front().expect("checked front");
                run.send_slot(late_seq, &mut stats)?;
            }
            match fate {
                Fate::Lose => stats.lost += 1,
                Fate::Defer => {
                    stats.deferred += 1;
                    deferred.push_back((seq + cfg.late_depth, seq));
                }
                Fate::Send => run.send_slot(seq, &mut stats)?,
            }
            run.wait_window(&mut stats)?;
            if let Some(pace) = cfg.pace {
                std::thread::sleep(pace);
            }
        }
        // Trailing deferred frames flush in order.
        while let Some((_, seq)) = deferred.pop_front() {
            run.send_slot(seq, &mut stats)?;
        }
        // Final drain: wait for every settleable slot to settle. Slots
        // behind a trailing silent loss can only settle at close (the
        // gateway flushes them then), so a *stall* here is expected —
        // but a transport failure is still a failure.
        if let Err(e) = run.drain(&mut stats) {
            if !matches!(e, NetError::Timeout(_)) {
                return Err(e);
            }
        }
        stats.acked = run.acked_to;
        Ok(stats)
    }
}

/// The borrow-heavy innards of one replay call.
struct ReplayRun<'a, D: DataWire, C: ControlWire> {
    client: &'a mut ForecoClient<D, C>,
    trace: &'a [Vec<f64>],
    start_slot: u64,
    cfg: &'a ClientConfig,
    /// Sent-but-unsettled sequence numbers.
    unsettled: BTreeSet<u64>,
    /// The gateway's cumulative watermark (all slots below it settled).
    acked_to: u64,
    last_progress: Instant,
    last_retransmit: Instant,
    buf: [u8; MAX_FRAME],
}

impl<D: DataWire, C: ControlWire> ReplayRun<'_, D, C> {
    /// Encodes slot `seq`'s command and puts it on the data wire.
    fn transmit(&mut self, seq: u64) -> Result<(), NetError> {
        let joints = &self.trace[(seq - self.start_slot) as usize];
        let len = wire::encode_command(&mut self.buf, self.client.session, seq, seq, joints)
            .map_err(NetError::Wire)?;
        self.client
            .data
            .send(&self.buf[..len])
            .map_err(NetError::Io)
    }

    fn send_slot(&mut self, seq: u64, stats: &mut ReplayStats) -> Result<(), NetError> {
        self.transmit(seq)?;
        // A slot the ack watermark already passed (a deliberately-late
        // frame whose slot was flushed as lost) is fire-and-forget: it
        // can never re-settle, so tracking it would make the window wait
        // on an ack that cannot come.
        if seq >= self.acked_to {
            self.unsettled.insert(seq);
        }
        stats.sent += 1;
        Ok(())
    }

    fn pump_acks(&mut self) -> Result<(), NetError> {
        let mut buf = [0u8; MAX_FRAME];
        while let Some(len) = self.client.data.recv(&mut buf).map_err(NetError::Io)? {
            let Ok(frame) = wire::decode(&buf[..len]) else {
                continue; // garbage on the return path: ignore
            };
            if frame.kind == FrameKind::Telemetry
                && frame.session == self.client.session
                && frame.seq > self.acked_to
            {
                self.acked_to = frame.seq;
                self.last_progress = Instant::now();
                let settled: Vec<u64> = self.unsettled.range(..self.acked_to).copied().collect();
                for seq in settled {
                    self.unsettled.remove(&seq);
                }
            }
        }
        Ok(())
    }

    /// Blocks (pumping acks, retransmitting on stalls) until the flight
    /// window has room.
    fn wait_window(&mut self, stats: &mut ReplayStats) -> Result<(), NetError> {
        while self.unsettled.len() as u64 >= self.cfg.window {
            self.step(stats)?;
        }
        Ok(())
    }

    /// Blocks until every unsettled frame settles; `Err` on stall (the
    /// caller decides whether a stall is fatal). Patience here is short:
    /// slots behind a trailing silent loss *cannot* settle before the
    /// close-time flush, so a drain stall is expected, not exceptional.
    fn drain(&mut self, stats: &mut ReplayStats) -> Result<(), NetError> {
        let patience = self.cfg.retransmit_after * 4 + Duration::from_millis(100);
        while !self.unsettled.is_empty() {
            if self.last_progress.elapsed() > patience {
                return Err(NetError::Timeout(format!(
                    "{} trailing slots unsettled (flushed at close)",
                    self.unsettled.len()
                )));
            }
            self.step(stats)?;
        }
        Ok(())
    }

    fn step(&mut self, stats: &mut ReplayStats) -> Result<(), NetError> {
        self.pump_acks()?;
        let waited = self.last_progress.elapsed();
        if waited > self.cfg.stall_timeout {
            return Err(NetError::Timeout(format!(
                "no ack progress for {waited:?} ({} unsettled from {})",
                self.unsettled.len(),
                self.acked_to
            )));
        }
        // Retransmission paces off its own clock: rewinding the
        // progress clock here would keep `waited` forever below the
        // stall timeout and turn a dead wire into an infinite loop.
        if waited > self.cfg.retransmit_after
            && self.last_retransmit.elapsed() > self.cfg.retransmit_after
        {
            if let Some(&oldest) = self.unsettled.iter().next() {
                self.transmit(oldest)?;
                stats.retransmits += 1;
                self.last_retransmit = Instant::now();
            }
        }
        std::thread::sleep(Duration::from_micros(200));
        Ok(())
    }
}

pub(crate) fn unexpected(response: ControlResponse) -> NetError {
    match response {
        ControlResponse::Rejected { code, reason } => NetError::Rejected { code, reason },
        other => NetError::Protocol(format!("unexpected control response: {other:?}")),
    }
}
