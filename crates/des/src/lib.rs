//! Discrete-event simulation engine for the FoReCo reproduction.
//!
//! The paper evaluates FoReCo against wireless delays produced by a
//! **G/HEXP/1/Q** queueing model "using the CIW discrete event simulation
//! library" (§V, \[43\]). CIW is Python; this crate is the Rust equivalent,
//! scoped to what queueing-model reproduction needs and nothing more:
//!
//! - a deterministic event heap with stable FIFO tie-breaking
//!   ([`EventQueue`]),
//! - inverse-CDF samplers for the distributions queueing theory speaks in
//!   ([`dist`]),
//! - a network-of-queues simulator with finite capacities, multiple
//!   servers, probabilistic routing and full per-customer records
//!   ([`Network`]),
//! - closed-form M/M/1, M/M/1/K and M/D/1 formulas used to validate the
//!   simulator in tests ([`theory`]),
//! - record summaries — waits, sojourns, losses, utilisation ([`stats`]).
//!
//! In this reproduction the engine is the test oracle of
//! `foreco_wifi::link`'s D/HEXP/1 queue. The link simulates its queue
//! directly, because each command's retransmission phase decides its
//! fate, and its unit tests check the delays against a [`Network`] node
//! fed the same phases. No served path or paper binary runs the engine.
//!
//! Everything is seeded and reproducible; there is no global state, no
//! threads, no `unsafe`.
//!
//! # Example: M/M/1 queue
//!
//! ```
//! use foreco_des::{dist, Network, NodeSpec, Sampler, SourceSpec};
//!
//! let mut net = Network::new(42);
//! let node = net.add_node(NodeSpec {
//!     servers: 1,
//!     capacity: None,
//!     service: dist::Exponential::new(1.0).boxed(),
//!     routing: vec![], // exit after service
//! });
//! net.add_source(SourceSpec {
//!     interarrival: dist::Exponential::new(0.5).boxed(),
//!     target: node,
//!     first_arrival: 0.0,
//! });
//! let records = net.run_until(10_000.0);
//! assert!(!records.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
mod event;
mod network;
pub mod stats;
pub mod theory;

pub use dist::Sampler;
pub use event::EventQueue;
pub use network::{Network, NodeSpec, Record, SourceSpec};
