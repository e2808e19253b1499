//! Socket ingress for the FoReCo service: real operator traffic, over a
//! real (lossy, reordering) network, in front of the recovery engine.
//!
//! The paper's whole premise is commands arriving over an imperfect
//! link — lost and late datagrams are the events FoReCo forecasts over
//! (§II, §VII-C). `foreco-serve` hosts the recovery loops; this crate
//! puts a wire in front of them:
//!
//! - [`wire`] — the versioned **binary codec**: fixed 32-byte header
//!   (magic, version, kind, session, seq, tick) + f64 joint payload,
//!   zero-allocation encode/decode, every malformed shape a typed
//!   [`WireError`];
//! - [`Gateway`] — the **UDP data plane** (datagrams → in-order gated
//!   slots: delivered, flushed-as-lost past the reorder horizon, or
//!   §VII-C-late) and the **TCP control plane** (length-prefixed
//!   open/close/snapshot/adopt/stats, so operators attach, detach, and
//!   survive gateway restarts);
//! - [`ForecoClient`] — the operator: opens, checkpoints, adopts and
//!   closes sessions, observes the fleet, and replays `foreco-teleop`
//!   traces frame by frame with a cumulative-ack send window, optional
//!   50 Hz pacing, and seeded artificial loss/lateness;
//! - [`Gateway::loopback`] — an in-process transport running the
//!   *identical* codec, ingress, and control code without sockets, so
//!   determinism tests stay hermetic.
//!
//! # The determinism contract
//!
//! One sequence number is one virtual tick slot, and a gated session's
//! clock advances only as slots are consumed. Every ingress decision
//! (deliver / flush as lost / late-patch / duplicate) depends on frame
//! **arrival order**, never on wall time. Together that makes the
//! pipeline end-to-end reproducible: the same frame sequence produces
//! bit-identical session statistics whether it travelled over localhost
//! UDP or the in-process loopback — pinned by `tests/gateway.rs`.
//!
//! # Quickstart
//!
//! ```
//! use foreco_net::{ClientConfig, ForecoClient, Gateway, GatewayConfig, TcpControl, UdpWire};
//! use foreco_serve::ServiceConfig;
//! use foreco_teleop::{Dataset, Skill};
//!
//! let gateway = Gateway::spawn(ServiceConfig::with_shards(2), GatewayConfig::default()).unwrap();
//!
//! // A remote operator: attach over TCP, stream datagrams over UDP.
//! let data = UdpWire::connect(gateway.udp_addr()).unwrap();
//! let control = TcpControl::connect(gateway.tcp_addr()).unwrap();
//! let mut operator = ForecoClient::new(7, data, control);
//!
//! let trace = Dataset::record(Skill::Inexperienced, 1, 0.02, 5).head(120);
//! operator.open(trace.commands[0].clone(), 256).unwrap();
//! operator
//!     .replay(&trace.commands, 0, &ClientConfig::default())
//!     .unwrap();
//! let (report, ingress) = operator.close().unwrap();
//! assert_eq!(report.ticks, 120);
//! assert_eq!(ingress.delivered, 120);
//! gateway.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod control;
mod gateway;
mod ingress;
pub mod sdk;
pub mod wire;

pub use client::{
    ClientConfig, ControlWire, DataWire, ForecoClient, LoopbackControl, LoopbackWire, ReplayStats,
    TcpControl, UdpWire,
};
pub use control::{
    ControlCore, ControlRequest, ControlResponse, FleetEvent, RejectCode, CONTROL_VERSION,
};
pub use gateway::{Gateway, GatewayConfig};
pub use ingress::IngressConfig;
pub use sdk::{EventBatch, EventStream};
pub use wire::{
    Frame, FrameKind, WireError, HEADER_LEN, MAX_FRAME, MAX_JOINTS, WIRE_MAGIC, WIRE_VERSION,
};

/// Why a client-side operation failed.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure.
    Io(std::io::Error),
    /// The wire codec rejected a frame.
    Wire(WireError),
    /// The gateway rejected the request (typed code + its reason verbatim).
    Rejected {
        /// Machine-readable category ([`RejectCode`]).
        code: RejectCode,
        /// Human-readable explanation, verbatim from the gateway.
        reason: String,
    },
    /// Acks stopped flowing for longer than the configured patience.
    Timeout(String),
    /// The peer violated the control protocol.
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport: {e}"),
            NetError::Wire(e) => write!(f, "wire codec: {e}"),
            NetError::Rejected { code, reason } => {
                write!(f, "gateway rejected [{code}]: {reason}")
            }
            NetError::Timeout(reason) => write!(f, "timed out: {reason}"),
            NetError::Protocol(reason) => write!(f, "protocol violation: {reason}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}
