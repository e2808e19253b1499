//! # FoReCo — forecast-based recovery for real-time robot remote control
//!
//! A full Rust reproduction of *"FoReCo: a forecast-based recovery
//! mechanism for real-time remote control of robotic manipulators"*
//! (Groshev et al., arXiv:2205.04189).
//!
//! Commands steer a 6-axis arm over an interference-prone IEEE 802.11
//! link at 50 Hz. When a command misses its deadline, FoReCo forecasts it
//! from the recent history and injects the forecast into the robot
//! drivers, so the arm keeps tracking the operator instead of freezing.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`net`] | `foreco-net` | socket ingress gateway, binary wire codec, the one operator client type, fleet events + Prometheus metrics |
//! | [`serve`] | `foreco-serve` | sharded multi-session service runtime, metrics registry |
//! | [`store`] | `foreco-store` | refcounted content-addressed storage for traces, models, blobs |
//! | [`recovery`] | `foreco-core` | recovery engine, channels, closed loop, Fig-8 grid |
//! | [`forecast`] | `foreco-forecast` | MA, VAR, seq2seq, Holt, VARMA + training pipeline |
//! | [`robot`] | `foreco-robot` | Niryo-One-like arm, DH kinematics, PID driver loop |
//! | [`teleop`] | `foreco-teleop` | pick-and-place operators and datasets |
//! | [`wifi`] | `foreco-wifi` | 802.11 DCF analytical model + interferer + link sim |
//! | [`des`] | `foreco-des` | discrete-event simulation engine (mini-CIW) |
//! | [`nn`] | `foreco-nn` | LSTM/seq2seq substrate with Adam and BPTT |
//! | [`linalg`] | `foreco-linalg` | matrices, Cholesky/QR, OLS, statistics |
//!
//! # Quickstart
//!
//! ```
//! use foreco::prelude::*;
//!
//! // 1. Record training data (experienced operator) and fit the VAR.
//! let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
//! let var = Var::fit_differenced(&train, 5, 1e-6).unwrap();
//!
//! // 2. Wrap it in a recovery engine for a Niryo-One-like arm.
//! let model = niryo_one();
//! let engine = RecoveryEngine::new(
//!     Box::new(var),
//!     RecoveryConfig::for_model(&model),
//!     model.home(),
//! );
//!
//! // 3. Close the loop over a bursty channel.
//! let test = Dataset::record(Skill::Inexperienced, 1, 0.02, 8);
//! let mut channel = ControlledLossChannel::new(10, 0.01, 9);
//! let fates = channel.fates(test.commands.len());
//! let result = run_closed_loop(
//!     &model,
//!     &test.commands,
//!     &fates,
//!     RecoveryMode::FoReCo(engine),
//!     Default::default(),
//! );
//! assert!(result.rmse_mm < 50.0);
//! ```
//!
//! # Serving many loops at once
//!
//! The closed loop above is one operator and one robot. The [`serve`]
//! runtime hosts thousands of such loops concurrently on a shard pool,
//! with one trained forecaster shared across all of them. Shards
//! schedule wake-on-work: sessions report a `Wake` verdict after every
//! tick, idle streamed sessions park at a verified fixed point (costing
//! zero scheduler work until traffic or a close arrives, with their
//! missed slots replayed exactly on wake), and an optional balancer
//! migrates live sessions from overloaded to underloaded shards:
//!
//! ```
//! use foreco::prelude::*;
//! use std::sync::Arc;
//!
//! let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
//! let forecaster = SharedForecaster::new(Var::fit_differenced(&train, 5, 1e-6).unwrap());
//! let replay = Arc::new(Dataset::record(Skill::Inexperienced, 1, 0.02, 8).commands);
//! let specs: Vec<SessionSpec> = (0..16)
//!     .map(|id| SessionSpec::new(
//!         id,
//!         SourceSpec::Replayed(Arc::clone(&replay)),
//!         ChannelSpec::ControlledLoss { burst_len: 8, burst_prob: 0.01, seed: id },
//!         RecoverySpec::FoReCo {
//!             forecaster: forecaster.clone(),
//!             config: RecoveryConfig::for_model(&niryo_one()),
//!         },
//!     ))
//!     .collect();
//! // Event-driven scheduling is the default; the balancer is opt-in.
//! let registry = Service::spawn(ServiceConfig::with_balanced_shards(2)).run_to_completion(specs);
//! assert_eq!(registry.summary().expect("sessions completed").sessions, 16);
//! // The per-shard load picture (runnable vs parked, wakeups/pass,
//! // migrations) rides along with the reports.
//! assert_eq!(registry.shard_loads().len(), 2);
//! ```
//!
//! # Real operators over the network
//!
//! The [`net`] gateway puts an actual wire in front of the service —
//! the deployment shape of the paper's Fig. 1: operator commands arrive
//! as UDP datagrams in a versioned binary format (seq = virtual tick
//! slot), session control (attach/detach/snapshot/adopt) runs over TCP
//! — one client type, [`net::ForecoClient`], drives both planes —
//! and lost or reordered datagrams become exactly the loss and §VII-C
//! late-command events the recovery engine exists to absorb. Sessions
//! fed from a socket are *gated*: their virtual clock advances with the
//! delivered slot stream, so the same frames produce bit-identical
//! statistics over localhost UDP and the hermetic loopback transport:
//!
//! ```
//! use foreco::prelude::*;
//!
//! let gateway = Gateway::spawn(ServiceConfig::with_shards(2), GatewayConfig::default()).unwrap();
//! let mut operator = ForecoClient::connect(1, gateway.udp_addr(), gateway.tcp_addr()).unwrap();
//!
//! let trace = Dataset::record(Skill::Inexperienced, 1, 0.02, 5).head(100);
//! operator.open(trace.commands[0].clone(), 128).unwrap();
//! operator.replay(&trace.commands, 0, &ClientConfig::default()).unwrap();
//! let (report, ingress) = operator.close().unwrap();
//! assert_eq!(report.ticks, 100);
//! assert_eq!(ingress.delivered, 100);
//! gateway.shutdown();
//! ```
//!
//! # Observing a live fleet
//!
//! The observability plane rides the control plane, never the tick
//! path: shards accumulate plain-integer telemetry deltas while they
//! work and flush them to relaxed atomics once per scheduling pass, so
//! watching a fleet costs zero hot-path allocations and moves zero
//! bits — every session result stays bit-identical with subscribers
//! attached (pinned by `tests/serve_invariance.rs` and the gateway
//! suite). Three surfaces, all through the same
//! [`net::ForecoClient`] that drives sessions (rejections carry a
//! machine-readable [`net::RejectCode`]):
//!
//! - [`net::ForecoClient::metrics`] scrapes the fleet in Prometheus
//!   text exposition format — per-shard tick/open/complete/park
//!   counters, scheduler load gauges, wire ingress totals, and the
//!   completed-session RMSE quantile summary;
//! - [`net::ForecoClient::subscribe`] opens a poll-mode
//!   [`net::FleetEvent`] subscription (bounded per-subscriber queue,
//!   drop-oldest, shed counts reported with every drain);
//! - [`net::EventStream`] dedicates a TCP control connection to
//!   push-mode delivery of the same events as they happen.
//!
//! ```
//! use foreco::prelude::*;
//!
//! let gateway = Gateway::spawn(ServiceConfig::with_shards(2), GatewayConfig::default()).unwrap();
//! let mut operator = ForecoClient::loopback(&gateway, 1);
//! let mut watcher = ForecoClient::loopback(&gateway, 2);
//! let subscription = watcher.subscribe().unwrap();
//!
//! let trace = Dataset::record(Skill::Inexperienced, 1, 0.02, 5).head(100);
//! operator.open(trace.commands[0].clone(), 128).unwrap();
//! operator.replay(&trace.commands, 0, &ClientConfig::default()).unwrap();
//! operator.close().unwrap();
//!
//! let batch = watcher.poll_events(subscription, 64).unwrap();
//! assert!(batch.events.iter().any(|e| matches!(e, FleetEvent::Completed { id: 1, .. })));
//! let metrics = watcher.metrics().unwrap();
//! assert!(metrics.contains("# TYPE foreco_ticks_total counter"));
//! watcher.unsubscribe(subscription).unwrap();
//! gateway.shutdown();
//! ```
//!
//! # The zero-allocation hot path
//!
//! A session tick is the service's innermost loop — at 50 Hz per
//! operator it runs millions of times per second across a fleet — so
//! the steady-state tick performs **zero heap allocations**: the
//! recovery engine keeps its history in a flat ring buffer and
//! forecasts through [`forecast::Forecaster::forecast_into`], which
//! writes into a caller-owned buffer against a borrowed
//! [`forecast::HistoryView`] window (scratch space comes from a
//! reusable [`forecast::ForecastScratch`]). `forecast_into` is each
//! family's only forecast body; the allocating `Forecaster::forecast`
//! is a provided wrapper over it and `RecoveryEngine::tick` wraps
//! `tick_into`, so both return the hot path's bits by construction.
//! Every family is pinned bit for bit against a naive test-tree oracle
//! by the `crates/forecast/tests/forecast_into.rs` property suite; the
//! zero figure itself is pinned by `tests/hot_path_allocs.rs`:
//!
//! ```
//! use foreco::prelude::*;
//!
//! let var = {
//!     let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
//!     Var::fit_differenced(&train, 5, 1e-6).unwrap()
//! };
//! let hist: Vec<f64> = (0..12).flat_map(|i| vec![0.01 * i as f64; 6]).collect();
//! let view = HistoryView::contiguous(&hist, 6);
//! let (mut scratch, mut pred) = (ForecastScratch::new(), vec![0.0; 6]);
//! var.forecast_into(&view, &mut scratch, &mut pred); // no allocation
//! assert_eq!(pred, var.forecast(&view.to_rows()));   // the same body
//! ```
//!
//! # Checkpointing sessions
//!
//! Recovery is stateful, so a production service must be able to carry
//! a session across process restarts and shard moves without changing
//! a single output. [`serve::Session::snapshot`] freezes a live loop to
//! a versioned, serialisable [`serve::SessionSnapshot`] and
//! [`serve::Session::restore`] rehydrates it — same results, bit for
//! bit (pinned by the `tests/snapshot_roundtrip.rs` determinism
//! suite). At the service level, `ServiceHandle::snapshot_fleet`
//! checkpoints one session or many into a `FleetArchive`,
//! `ServiceHandle::migrate` moves a session between shards mid-run, and
//! `ServiceHandle::adopt_fleet` revives the archive in another process:
//!
//! ```
//! use foreco::prelude::*;
//! use foreco::serve::{Session, SessionSnapshot};
//!
//! let model = niryo_one();
//! let test = Dataset::record(Skill::Inexperienced, 1, 0.02, 8);
//! let spec = SessionSpec::new(
//!     1,
//!     SourceSpec::replay(&test),
//!     ChannelSpec::ControlledLoss { burst_len: 8, burst_prob: 0.01, seed: 3 },
//!     RecoverySpec::Baseline,
//! );
//! // Freeze a running session to bytes…
//! let mut session = Session::open(&spec, &model);
//! for _ in 0..100 {
//!     session.advance();
//! }
//! let bytes = session.snapshot().unwrap().to_bytes();
//! // …ship them anywhere, and resume exactly where it left off.
//! let snap = SessionSnapshot::from_bytes(&bytes).unwrap();
//! let resumed = Session::restore(&snap, &model).unwrap();
//! assert_eq!(resumed.tick(), 100);
//! ```
//!
//! # Binary fleet checkpoints
//!
//! Snapshot versions 3 and 4 are a length-prefixed **binary frame**
//! (magic `FSNP`, f64s as raw [`f64::to_bits`] words — bit-lossless by
//! construction; v4 lets a session on a stored trace omit its reference
//! driver state), with versions 1 and 2 kept decodable forever as
//! explicit JSON match arms: `SessionSnapshot::from_bytes` accepts all
//! four (the library writes only v4), and every malformed shape maps
//! to a typed [`serve::RestoreError`], never a panic (fuzzed by
//! `tests/snapshot_codec.rs`). At fleet scale, shards encode each part
//! straight into a reusable scratch buffer and
//! `ServiceHandle::snapshot_fleet` splices the frames into a streaming
//! [`serve::FleetArchive`] *while the drain is in flight* — no
//! intermediate decode, traces deduplicated by content address — and
//! reports unknown ids instead of dropping them silently
//! ([`serve::FleetSnapshotReport`]). Archives merge without re-decoding
//! and file into shared storage under their content address:
//!
//! ```
//! use foreco::prelude::*;
//! use foreco::serve::Session;
//!
//! let model = niryo_one();
//! let test = Dataset::record(Skill::Inexperienced, 1, 0.02, 8);
//! let spec = SessionSpec::new(
//!     1,
//!     SourceSpec::replay(&test),
//!     ChannelSpec::ControlledLoss { burst_len: 8, burst_prob: 0.01, seed: 3 },
//!     RecoverySpec::Baseline,
//! );
//! let mut session = Session::open(&spec, &model);
//! for _ in 0..100 {
//!     session.advance();
//! }
//!
//! // One binary v4 part spliced into an archive, round-tripped, and
//! // filed under its content address.
//! let mut archive = FleetArchive::new();
//! archive.push_part(&session.snapshot().unwrap());
//! let back = FleetArchive::from_bytes(&archive.to_bytes()).unwrap();
//! assert_eq!(back, archive);
//!
//! let store = Storage::new();
//! let blob = archive.file_blob(&store);
//! let revived = FleetArchive::from_blob(&blob).unwrap();
//! assert_eq!(revived.sessions().unwrap()[0].tick, 100);
//! ```
//!
//! # Shared storage
//!
//! A fleet replaying the same teleop trace, or forecasting with the
//! same trained model, should pay for that content **once**. The
//! [`store`] crate provides a clonable, thread-safe [`store::Storage`]
//! that files traces, trained forecaster models, and opaque blobs under
//! their *content address* — a stable hash over canonical bytes, so two
//! bit-identical payloads are one resident object no matter who
//! inserted them — and refcounts each object through RAII claim
//! handles: the last claim dropping evicts the object. Sessions acquire
//! claims at build time ([`serve::SourceSpec::stored`],
//! [`serve::SharedForecaster::register`]), never on the tick path, so
//! the zero-allocation hot path is untouched. Bulk checkpoints dedup
//! the same way: `ServiceHandle::snapshot_fleet` writes each distinct
//! trace once into a [`serve::FleetArchive`] and
//! `ServiceHandle::adopt_fleet` revives the fleet sharing one resident
//! copy:
//!
//! ```
//! use foreco::prelude::*;
//!
//! let store = Storage::new();
//! let trace = Dataset::record(Skill::Inexperienced, 1, 0.02, 8);
//! // A thousand specs built independently over the same dataset all
//! // resolve to one resident trace.
//! let a = SourceSpec::stored(&store, &trace);
//! let b = SourceSpec::stored(&store, &trace);
//! assert_eq!(store.stats().traces.objects, 1);
//! assert_eq!(store.stats().traces.claims, 2);
//! drop((a, b)); // last claim dropped → evicted
//! assert_eq!(store.stats().resident_bytes(), 0);
//! ```

pub use foreco_core as recovery;
pub use foreco_des as des;
pub use foreco_forecast as forecast;
pub use foreco_linalg as linalg;
pub use foreco_net as net;
pub use foreco_nn as nn;
pub use foreco_robot as robot;
pub use foreco_serve as serve;
pub use foreco_store as store;
pub use foreco_teleop as teleop;
pub use foreco_wifi as wifi;

/// The most common imports in one place.
pub mod prelude {
    pub use foreco_core::channel::{
        Arrival, Channel, ControlledLossChannel, IdealChannel, JammedChannel,
    };
    pub use foreco_core::edge::{edge_packets, run_closed_loop_edge, EdgePacket};
    pub use foreco_core::experiment::{run_cell, CellConfig, CellResult};
    pub use foreco_core::metrics;
    pub use foreco_core::{
        run_closed_loop, ClosedLoopResult, RecoveryConfig, RecoveryEngine, RecoveryMode,
        RecoveryStats,
    };
    pub use foreco_forecast::{
        forecast_horizon, ForecastScratch, Forecaster, HistoryView, Holt, KalmanCv, MovingAverage,
        Seq2SeqForecaster, Var, VarMode, Varma,
    };
    pub use foreco_net::{
        ClientConfig, EventStream, FleetEvent, ForecoClient, Gateway, GatewayConfig, IngressConfig,
        NetError, RejectCode, TcpControl, UdpWire,
    };
    pub use foreco_robot::{niryo_one, ArmModel, DriverConfig, RobotDriver};
    pub use foreco_serve::{
        BalancerConfig, ChannelSpec, EventWait, FleetArchive, FleetSnapshotReport, MetricsRegistry,
        Pacing, RecoverySpec, RestoreError, Scheduler, Service, ServiceConfig, ServiceError,
        ServiceHandle, ServiceSummary, SessionCommand, SessionEvent, SessionReport,
        SessionSnapshot, SessionSpec, ShardSummary, SharedForecaster, SourceSpec, Wake,
    };
    pub use foreco_store::{ModelHandle, ObjectId, Storage, StoreStats, TraceHandle};
    pub use foreco_teleop::{Dataset, Operator, Skill};
    pub use foreco_wifi::{DcfModel, Interference, LinkConfig, Params, WirelessLink};
}
