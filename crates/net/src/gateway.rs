//! The ingress gateway: real sockets in front of a [`Service`].
//!
//! [`Gateway::spawn`] binds a UDP socket (data plane) and a TCP
//! listener (control plane) on loopback-ephemeral ports, spawns the
//! shard pool, and runs three thread groups in front of it:
//!
//! - the **UDP thread** receives datagrams, runs them through the
//!   shared [`IngressState`] (decode → reorder → inject, see the
//!   `ingress` module docs), and sends the telemetry ack back to the
//!   datagram's source address;
//! - the **TCP accept thread** spawns one handler thread per operator
//!   connection, each speaking the length-prefixed control protocol
//!   through the shared [`ControlCore`];
//! - the **event pump** owns the [`Service`] and its event stream,
//!   routing `Opened`/`Completed`/`Restored`/… to whichever control
//!   request is waiting on them (via [`EventHub`]) and republishing
//!   lifecycle narration (`Snapshotted`, `Parked`, …) to subscribers.
//!   Checkpoints never wait here: they come back on the
//!   `snapshot_fleet` reply channel.
//!
//! The in-process **loopback transport** ([`Gateway::loopback`])
//! returns a data wire and a control wire that bypass the sockets but
//! run the *identical* codec, ingress, and control code — the hermetic
//! twin the determinism suite compares real-socket runs against.

use crate::client::{LoopbackControl, LoopbackWire};
use crate::control::{self, ControlCore, ControlRequest, FleetEvent, Reject, RejectCode};
use crate::ingress::{IngressConfig, IngressState};
use crate::wire::MAX_FRAME;
use foreco_serve::{
    ChannelSpec, PercentileSummary, RecoverySpec, Service, ServiceConfig, SessionEvent, SessionId,
    SessionReport,
};
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Gateway construction knobs. The recovery/channel pair is the
/// **session template**: operators supply identity and a start pose,
/// the deployment decides how misses are covered (the trained
/// forecaster lives server-side, exactly the paper's edge-cloud split).
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Recovery mode every attached session runs.
    pub recovery: RecoverySpec,
    /// Composed impairment channel per session. `Ideal` by default —
    /// with a real network in front, the wire itself is the impairment.
    pub channel: ChannelSpec,
    /// Data-plane reassembly knobs.
    pub ingress: IngressConfig,
    /// How long a control request waits for its service event.
    pub control_timeout: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            recovery: RecoverySpec::Baseline,
            channel: ChannelSpec::Ideal,
            ingress: IngressConfig::default(),
            control_timeout: Duration::from_secs(30),
        }
    }
}

/// Bound on one subscriber's unread event queue; beyond it the oldest
/// events are evicted and counted as dropped (a slow consumer never
/// backpressures the event pump).
const SUBSCRIBER_QUEUE_CAP: usize = 4096;

/// Bound on the completed-session RMSE window the metrics endpoint's
/// quantiles are computed over (a rolling sample, so a long-running
/// gateway's memory stays bounded).
const RMSE_WINDOW: usize = 4096;

/// One durable subscriber's queue of unread fleet events.
#[derive(Default)]
struct SubscriberQueue {
    queue: VecDeque<FleetEvent>,
    /// Events evicted since the last poll.
    dropped: u64,
}

/// What the event pump knows, keyed by session: control-plane waiters
/// block on this (condvar) until their event lands. Since control v2
/// it also fans lifecycle events out to durable subscriber queues and
/// keeps the rolling RMSE window behind the metrics endpoint.
#[derive(Default)]
struct HubState {
    opened: HashMap<SessionId, Result<(), Reject>>,
    reports: HashMap<SessionId, SessionReport>,
    restored: HashMap<SessionId, Result<u64, Reject>>,
    /// `UnknownSession` answers, claimable by whichever request raced it.
    unknown: HashMap<SessionId, u64>,
    /// Live event subscriptions, keyed by subscription id.
    subscribers: HashMap<u64, SubscriberQueue>,
    next_subscriber: u64,
    /// Rolling window of completed sessions' task-space RMSE (mm).
    rmse: VecDeque<f64>,
    pump_alive: bool,
}

impl HubState {
    /// Pushes one event to every subscriber queue (drop-oldest under
    /// the cap) — a no-op without subscribers, so an unobserved fleet
    /// pays nothing here beyond the map-emptiness check.
    fn publish(&mut self, event: FleetEvent) {
        for sub in self.subscribers.values_mut() {
            if sub.queue.len() >= SUBSCRIBER_QUEUE_CAP {
                sub.queue.pop_front();
                sub.dropped += 1;
            }
            sub.queue.push_back(event.clone());
        }
    }
}

/// Routes service events to waiting control requests.
pub(crate) struct EventHub {
    state: Mutex<HubState>,
    cv: Condvar,
}

impl EventHub {
    fn new() -> Self {
        Self {
            state: Mutex::new(HubState {
                pump_alive: true,
                ..HubState::default()
            }),
            cv: Condvar::new(),
        }
    }

    fn absorb(&self, event: SessionEvent) {
        let mut state = self.state.lock().expect("hub");
        match event {
            SessionEvent::Opened { id, shard } => {
                state.opened.insert(id, Ok(()));
                state.publish(FleetEvent::Opened { id, shard });
            }
            SessionEvent::DuplicateSession { id } => {
                // A duplicate answers either an Open or an Adopt; feed
                // both waiters so neither waits out its full timeout.
                let duplicate = || {
                    Reject::new(
                        RejectCode::DuplicateSession,
                        format!("session {id} already exists"),
                    )
                };
                state.opened.insert(id, Err(duplicate()));
                state.restored.insert(id, Err(duplicate()));
            }
            SessionEvent::Completed { id, report } => {
                if state.rmse.len() >= RMSE_WINDOW {
                    state.rmse.pop_front();
                }
                state.rmse.push_back(report.rmse_mm);
                state.publish(FleetEvent::Completed {
                    id,
                    report: report.clone(),
                });
                state.reports.insert(id, report);
            }
            SessionEvent::Snapshotted { id, shard } => {
                // Observer-gated like `Parked`: narration only.
                state.publish(FleetEvent::Snapshotted { id, shard });
            }
            SessionEvent::Restored { id, shard, tick } => {
                state.publish(FleetEvent::Adopted { id, shard, tick });
                state.restored.insert(id, Ok(tick));
            }
            SessionEvent::RestoreFailed { id, reason } => {
                state
                    .restored
                    .insert(id, Err(Reject::new(RejectCode::RestoreFailed, reason)));
            }
            SessionEvent::UnknownSession { id } => {
                *state.unknown.entry(id).or_insert(0) += 1;
            }
            SessionEvent::CommandDropped { id, tick } => {
                state.publish(FleetEvent::Dropped { id, tick });
            }
            SessionEvent::Migrated { id, from, to } => {
                state.publish(FleetEvent::Migrated { id, from, to });
            }
            SessionEvent::Parked { id, shard } => {
                // Only emitted while an observer is attached (the
                // subscription registered one), so this cannot flood an
                // unobserved fleet's pump.
                state.publish(FleetEvent::Parked { id, shard });
            }
            // A failed migration answers no control request: the
            // session keeps running where it is.
            SessionEvent::SnapshotFailed { .. } | SessionEvent::ShardTerminated { .. } => {}
        }
        drop(state);
        self.cv.notify_all();
    }

    /// Registers a durable subscriber queue, returning its id. The
    /// caller is responsible for pairing this with a fleet observer
    /// registration (see `ControlCore::release_subscription`).
    pub(crate) fn subscribe(&self) -> u64 {
        let mut state = self.state.lock().expect("hub");
        let id = state.next_subscriber;
        state.next_subscriber += 1;
        state.subscribers.insert(id, SubscriberQueue::default());
        id
    }

    /// Removes a subscriber queue; false when the id was unknown.
    pub(crate) fn unsubscribe(&self, subscription: u64) -> bool {
        self.state
            .lock()
            .expect("hub")
            .subscribers
            .remove(&subscription)
            .is_some()
    }

    /// Drains up to `max` queued events (oldest first) plus the number
    /// evicted from the queue since the previous poll.
    pub(crate) fn poll_events(
        &self,
        subscription: u64,
        max: usize,
    ) -> Result<(Vec<FleetEvent>, u64), Reject> {
        let mut state = self.state.lock().expect("hub");
        let Some(sub) = state.subscribers.get_mut(&subscription) else {
            return Err(Reject::new(
                RejectCode::UnknownSession,
                format!("no subscription {subscription}"),
            ));
        };
        let take = sub.queue.len().min(max);
        let events: Vec<FleetEvent> = sub.queue.drain(..take).collect();
        let dropped = std::mem::take(&mut sub.dropped);
        Ok((events, dropped))
    }

    /// Blocks until the subscription has an event, the pump dies, or
    /// `timeout` passes (`Ok(None)`). The stream-mode TCP handler's
    /// wait primitive.
    pub(crate) fn next_event(
        &self,
        subscription: u64,
        timeout: Duration,
    ) -> Result<Option<FleetEvent>, Reject> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("hub");
        loop {
            let Some(sub) = state.subscribers.get_mut(&subscription) else {
                return Err(Reject::new(
                    RejectCode::UnknownSession,
                    format!("no subscription {subscription}"),
                ));
            };
            if let Some(event) = sub.queue.pop_front() {
                return Ok(Some(event));
            }
            if !state.pump_alive {
                return Err(Reject::new(RejectCode::Unavailable, "service terminated"));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let (next, _) = self
                .cv
                .wait_timeout(state, deadline - now)
                .expect("hub poisoned");
            state = next;
        }
    }

    /// Percentile summary of the rolling completed-session RMSE window
    /// (`None` before the first completion).
    pub(crate) fn rmse_summary(&self) -> Option<PercentileSummary> {
        let state = self.state.lock().expect("hub");
        let window: Vec<f64> = state.rmse.iter().copied().collect();
        drop(state);
        PercentileSummary::of(&window)
    }

    fn dead(&self) {
        self.state.lock().expect("hub").pump_alive = false;
        self.cv.notify_all();
    }

    /// Drops any stale `UnknownSession` answer for `id`. Call **before
    /// issuing** a command whose wait treats unknowns as failure, so a
    /// leftover from an earlier race (e.g. a retransmitted datagram
    /// landing after a completed session was removed) cannot fail a
    /// fresh request — and the genuine answer, arriving after the
    /// command, is never discarded.
    pub(crate) fn forget_unknown(&self, id: SessionId) {
        self.state.lock().expect("hub").unknown.remove(&id);
    }

    /// Waits until `claim` yields a value, the pump dies, or `timeout`
    /// passes. With `unknown_fails`, an `UnknownSession` answer for the
    /// id fails the wait — only for requests the service actually
    /// answers that way (close); an Open/Adopt can race stray
    /// datagrams whose unknowns mean nothing about it.
    fn wait<T>(
        &self,
        id: SessionId,
        timeout: Duration,
        unknown_fails: bool,
        mut claim: impl FnMut(&mut HubState) -> Option<T>,
    ) -> Result<T, Reject> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("hub");
        loop {
            if let Some(value) = claim(&mut state) {
                return Ok(value);
            }
            if unknown_fails && state.unknown.remove(&id).is_some() {
                return Err(Reject::new(
                    RejectCode::UnknownSession,
                    format!("session {id} is unknown to the service"),
                ));
            }
            if !state.pump_alive {
                return Err(Reject::new(RejectCode::Unavailable, "service terminated"));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(Reject::new(
                    RejectCode::Timeout,
                    format!("timed out waiting on session {id}"),
                ));
            }
            let (next, _) = self
                .cv
                .wait_timeout(state, deadline - now)
                .expect("hub poisoned");
            state = next;
        }
    }

    pub(crate) fn wait_opened(&self, id: SessionId, timeout: Duration) -> Result<(), Reject> {
        self.wait(id, timeout, false, |s| s.opened.remove(&id))?
    }

    pub(crate) fn wait_report(
        &self,
        id: SessionId,
        timeout: Duration,
    ) -> Result<SessionReport, Reject> {
        self.wait(id, timeout, true, |s| s.reports.remove(&id))
    }

    pub(crate) fn wait_restored(&self, id: SessionId, timeout: Duration) -> Result<u64, Reject> {
        self.wait(id, timeout, false, |s| s.restored.remove(&id))?
    }

    /// Forgets everything recorded for a finished session, so a
    /// long-lived gateway's hub stays O(live sessions) instead of
    /// accreting an entry per session ever served.
    pub(crate) fn purge(&self, id: SessionId) {
        let mut state = self.state.lock().expect("hub");
        state.opened.remove(&id);
        state.reports.remove(&id);
        state.restored.remove(&id);
        state.unknown.remove(&id);
    }
}

/// A running socket ingress gateway (see the module docs).
pub struct Gateway {
    core: ControlCore,
    udp_addr: SocketAddr,
    tcp_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Gateway {
    /// Spawns the service and the gateway threads; binds loopback
    /// ephemeral ports (read them back from [`Gateway::udp_addr`] /
    /// [`Gateway::tcp_addr`]).
    ///
    /// # Errors
    /// Socket bind/configuration failures.
    pub fn spawn(service_config: ServiceConfig, config: GatewayConfig) -> std::io::Result<Self> {
        let dof = service_config.model.dof();
        let udp = UdpSocket::bind("127.0.0.1:0")?;
        udp.set_read_timeout(Some(Duration::from_millis(5)))?;
        let tcp = TcpListener::bind("127.0.0.1:0")?;
        tcp.set_nonblocking(true)?;
        let udp_addr = udp.local_addr()?;
        let tcp_addr = tcp.local_addr()?;

        let service = Service::spawn(service_config);
        let handle = service.handle();
        let ingress = Arc::new(Mutex::new(IngressState::new(
            handle.clone(),
            config.ingress.clone(),
            dof,
        )));
        let hub = Arc::new(EventHub::new());
        let stop = Arc::new(AtomicBool::new(false));
        let core = ControlCore {
            handle,
            ingress: Arc::clone(&ingress),
            hub: Arc::clone(&hub),
            cfg: Arc::new(config),
            dof,
        };
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let mut threads = Vec::new();
        // Event pump: owns the Service; shuts the pool down when asked.
        {
            let hub = Arc::clone(&hub);
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name("foreco-net-events".into())
                    .spawn(move || event_pump(service, hub, stop))
                    .expect("spawn event pump"),
            );
        }
        // UDP data plane.
        {
            let ingress = Arc::clone(&ingress);
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name("foreco-net-udp".into())
                    .spawn(move || udp_loop(udp, ingress, stop))
                    .expect("spawn udp thread"),
            );
        }
        // TCP control plane.
        {
            let core = core.clone();
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            threads.push(
                std::thread::Builder::new()
                    .name("foreco-net-tcp".into())
                    .spawn(move || accept_loop(tcp, core, stop, conns))
                    .expect("spawn tcp thread"),
            );
        }
        Ok(Self {
            core,
            udp_addr,
            tcp_addr,
            stop,
            threads,
            conns,
        })
    }

    /// The data plane's UDP address.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// The control plane's TCP address.
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// An in-process transport pair running the identical codec,
    /// ingress, and control paths without sockets — the hermetic twin
    /// for determinism tests.
    pub fn loopback(&self) -> (LoopbackWire, LoopbackControl) {
        (
            LoopbackWire::new(Arc::clone(&self.core.ingress)),
            LoopbackControl::new(self.core.clone()),
        )
    }

    /// Datagrams that failed to decode, and well-formed frames for
    /// unattached sessions — the gateway-level reject counters no
    /// session can own.
    pub fn reject_counters(&self) -> (u64, u64) {
        let state = self.core.ingress.lock().expect("ingress");
        (state.undecodable, state.unknown)
    }

    /// Stops every thread and tears the fronted service down.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("conns"));
        for conn in conns {
            let _ = conn.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        // Threads observe the flag within their poll timeouts; a drop
        // without `shutdown()` still stops them, just asynchronously.
        self.stop.store(true, Ordering::SeqCst);
    }
}

fn event_pump(service: Service, hub: Arc<EventHub>, stop: Arc<AtomicBool>) {
    loop {
        match service.next_event_timeout(Duration::from_millis(20)) {
            foreco_serve::EventWait::Event(event) => hub.absorb(event),
            foreco_serve::EventWait::TimedOut => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            foreco_serve::EventWait::Disconnected => break,
        }
    }
    hub.dead();
    service.join();
}

fn udp_loop(socket: UdpSocket, ingress: Arc<Mutex<IngressState>>, stop: Arc<AtomicBool>) {
    // One receive datagram, one ack frame: the hot path allocates
    // nothing beyond the command vector that rides into the session.
    let mut buf = [0u8; MAX_FRAME + 64];
    let mut ack = [0u8; MAX_FRAME];
    while !stop.load(Ordering::SeqCst) {
        match socket.recv_from(&mut buf) {
            Ok((len, src)) => {
                let ack_len = ingress
                    .lock()
                    .expect("ingress")
                    .handle_datagram(&buf[..len], &mut ack);
                if let Some(ack_len) = ack_len {
                    let _ = socket.send_to(&ack[..ack_len], src);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    core: ControlCore,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Replies are small request/response frames: never let
                // Nagle hold one back waiting for the peer's ACK. A
                // socket that refuses the option still works, only
                // slower.
                let _ = stream.set_nodelay(true);
                let core = core.clone();
                let stop = Arc::clone(&stop);
                let handle = std::thread::Builder::new()
                    .name("foreco-net-conn".into())
                    .spawn(move || connection(stream, core, stop))
                    .expect("spawn connection thread");
                let mut conns = conns.lock().expect("conns");
                // Reap finished handlers as we go; a long-lived gateway
                // sees one connection per operator attach/detach cycle.
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn connection(mut stream: TcpStream, core: ControlCore, stop: Arc<AtomicBool>) {
    // Subscriptions registered over this connection: released (queue
    // dropped, fleet observer detached) however the connection ends, so
    // a vanished operator cannot leak a queue or pin park narration on.
    let mut owned_subscriptions: Vec<u64> = Vec::new();
    connection_loop(&mut stream, &core, &stop, &mut owned_subscriptions);
    for subscription in owned_subscriptions {
        core.release_subscription(subscription);
    }
}

fn connection_loop(
    stream: &mut TcpStream,
    core: &ControlCore,
    stop: &Arc<AtomicBool>,
    owned_subscriptions: &mut Vec<u64>,
) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let Some(hello) = read_exact_with_stop(stream, 5, stop) else {
        return;
    };
    // Accept every control version this build knows (1 = the original
    // request/response set, 2 = subscriptions/metrics/typed rejects,
    // 3 = binary checkpoint verbs, 4 = JSON Snapshot retired) and echo
    // the *client's* version: a v1 operator keeps speaking v1.
    let Ok(version) = control::check_hello(hello.try_into().expect("5 bytes")) else {
        return; // wrong protocol or future version: hang up, send nothing
    };
    if control::write_hello_version(stream, version).is_err() {
        return;
    }
    loop {
        let Some(len_bytes) = read_exact_with_stop(stream, 4, stop) else {
            return;
        };
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        if len > control::MAX_CONTROL_MSG {
            return;
        }
        let Some(payload) = read_exact_with_stop(stream, len, stop) else {
            return;
        };
        let request = control::decode_request(&payload);
        let wants_stream = matches!(request, Ok(ControlRequest::Subscribe { stream: true }));
        let response = match request {
            Ok(request) => core.execute(request),
            // Undecodable, retired verbs included (v1–v3's JSON
            // `Snapshot`): a typed rejection; the connection keeps serving.
            Err(e) => Reject::new(RejectCode::BadRequest, e.to_string()).into(),
        };
        match &response {
            crate::control::ControlResponse::Subscribed { subscription } => {
                owned_subscriptions.push(*subscription);
            }
            crate::control::ControlResponse::Unsubscribed { subscription } => {
                owned_subscriptions.retain(|s| s != subscription);
            }
            _ => {}
        }
        if control::write_msg(stream, &control::encode_response(&response)).is_err() {
            return;
        }
        if wants_stream {
            if let crate::control::ControlResponse::Subscribed { subscription } = response {
                // The connection is now a one-way event stream: push
                // every queued event as its own frame until the peer
                // hangs up, the pump dies, or the gateway stops.
                push_events(stream, core, subscription, stop);
                return;
            }
        }
    }
}

/// Stream-mode subscription pump: blocks on the hub and writes each
/// event as a [`control::ControlResponse::Event`] frame.
fn push_events(stream: &mut TcpStream, core: &ControlCore, subscription: u64, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match core
            .hub
            .next_event(subscription, Duration::from_millis(100))
        {
            Ok(Some(event)) => {
                let frame = crate::control::ControlResponse::Event { event };
                if control::write_msg(stream, &control::encode_response(&frame)).is_err() {
                    return; // peer hung up
                }
            }
            Ok(None) => {}    // timeout tick: re-check the stop flag
            Err(_) => return, // pump dead or subscription force-removed
        }
    }
}

/// Reads exactly `n` bytes, tolerating read timeouts (to observe the
/// stop flag) and partial reads. `None` on EOF, error, or stop.
fn read_exact_with_stop(stream: &mut TcpStream, n: usize, stop: &AtomicBool) -> Option<Vec<u8>> {
    let mut buf = vec![0u8; n];
    let mut read = 0;
    while read < n {
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        match stream.read(&mut buf[read..]) {
            Ok(0) => return None,
            Ok(k) => read += k,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    Some(buf)
}
