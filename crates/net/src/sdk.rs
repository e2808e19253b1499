//! Fleet event delivery for operators: [`EventBatch`] is one drain of
//! a poll-mode subscription
//! ([`ForecoClient::poll_events`](crate::ForecoClient::poll_events)),
//! and [`EventStream::connect`] opens a dedicated TCP control
//! connection in stream mode, where the gateway *pushes* every
//! [`FleetEvent`] as it happens. Session lifecycle, replay, and the
//! other observation verbs live on [`ForecoClient`](crate::ForecoClient)
//! itself.
//!
//! # Example: drive a session while watching the fleet
//!
//! ```
//! use foreco_net::{ForecoClient, Gateway, GatewayConfig, ClientConfig};
//! use foreco_serve::ServiceConfig;
//! use foreco_teleop::{Dataset, Skill};
//!
//! let gateway = Gateway::spawn(ServiceConfig::with_shards(2), GatewayConfig::default()).unwrap();
//! let mut operator = ForecoClient::loopback(&gateway, 7);
//! let mut watcher = ForecoClient::loopback(&gateway, 0);
//! let subscription = watcher.subscribe().unwrap();
//!
//! let trace = Dataset::record(Skill::Inexperienced, 1, 0.02, 5).head(120);
//! operator.open(trace.commands[0].clone(), 256).unwrap();
//! operator.replay(&trace.commands, 0, &ClientConfig::default()).unwrap();
//! let (report, _) = operator.close().unwrap();
//! assert_eq!(report.ticks, 120);
//!
//! let batch = watcher.poll_events(subscription, 64).unwrap();
//! assert!(!batch.events.is_empty());
//! let metrics = watcher.metrics().unwrap();
//! assert!(metrics.contains("foreco_ticks_total"));
//! watcher.unsubscribe(subscription).unwrap();
//! gateway.shutdown();
//! ```

use crate::client::{unexpected, ControlWire, TcpControl};
use crate::control::{self, ControlRequest, ControlResponse, FleetEvent};
use crate::NetError;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One drain of a poll-mode subscription queue.
#[derive(Debug, Clone, PartialEq)]
pub struct EventBatch {
    /// Events in fleet order, oldest first.
    pub events: Vec<FleetEvent>,
    /// Events the bounded queue had to shed (oldest-first) since the
    /// previous drain because the subscriber fell behind.
    pub dropped: u64,
}

/// A push-mode fleet event feed over a dedicated TCP control
/// connection.
///
/// [`EventStream::connect`] performs the handshake, subscribes in
/// stream mode, and hands back the subscription id; after that the
/// gateway pushes one [`ControlResponse::Event`] frame per fleet event
/// and [`EventStream::next`] yields them. Dropping the stream closes
/// the connection, which releases the subscription (and its observer)
/// gateway-side.
pub struct EventStream {
    stream: TcpStream,
    /// Bytes received but not yet parsed into a complete frame.
    buf: Vec<u8>,
}

impl EventStream {
    /// Connects (the [`TcpControl::connect`] handshake), subscribes in
    /// stream mode, and returns the stream plus its subscription id.
    ///
    /// # Errors
    /// Socket failures, a refused or mismatched handshake, or a gateway
    /// rejection.
    pub fn connect(tcp: SocketAddr) -> Result<(Self, u64), NetError> {
        // The same connect + handshake as every TCP operator; the
        // connection only turns one-way after the Subscribed reply.
        let mut control = TcpControl::connect(tcp)?;
        match control.request(&ControlRequest::Subscribe { stream: true })? {
            ControlResponse::Subscribed { subscription } => Ok((
                Self {
                    stream: control.stream,
                    buf: Vec::new(),
                },
                subscription,
            )),
            other => Err(unexpected(other)),
        }
    }

    /// Waits up to `timeout` for the next pushed event; `Ok(None)` when
    /// none arrived in time (partial frames carry over to the next
    /// call).
    ///
    /// # Errors
    /// Transport failures, a closed connection, or a frame that is not
    /// an event push.
    pub fn next(&mut self, timeout: Duration) -> Result<Option<FleetEvent>, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(event) = self.parse_frame()? {
                return Ok(Some(event));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            // Short read timeouts keep the deadline honest without
            // busy-polling; WouldBlock/TimedOut just re-check it.
            let wait = (deadline - now)
                .min(Duration::from_millis(50))
                .max(Duration::from_millis(1));
            self.stream
                .set_read_timeout(Some(wait))
                .map_err(NetError::Io)?;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(NetError::Protocol(
                        "event stream closed by the gateway".into(),
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Parses one complete length-prefixed frame out of the buffer, if
    /// one has fully arrived.
    fn parse_frame(&mut self) -> Result<Option<FleetEvent>, NetError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > control::MAX_CONTROL_MSG {
            return Err(NetError::Protocol(format!(
                "event frame of {len} bytes exceeds the control message cap"
            )));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload: Vec<u8> = self.buf.drain(..4 + len).skip(4).collect();
        match control::decode_response(&payload)? {
            ControlResponse::Event { event } => Ok(Some(event)),
            other => Err(unexpected(other)),
        }
    }
}
