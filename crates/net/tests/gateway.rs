//! Gateway integration suite: the issue's acceptance criterion.
//!
//! A teleop trace replayed by [`ForecoClient`] over **localhost
//! UDP/TCP** must produce session statistics **bit-identical** to the
//! same trace driven through the in-process **loopback transport** —
//! and the client's injected drops/lateness must surface as engine
//! loss events (misses the forecaster covers) and §VII-C late patches
//! in the [`MetricsRegistry`].
//!
//! Determinism over a real socket holds because (a) a gated session's
//! clock advances only as ingress slots are consumed, and (b) every
//! ingress decision depends on frame arrival order, not wall time. The
//! replay keeps its tail impairment-free so every settleable slot is
//! acked before close — the one wall-clock race (a datagram still in
//! flight at close) is thereby excluded by construction.
//!
//! The observability plane rides the same bar: an attached event
//! subscriber must not change a single output bit, the metrics
//! endpoint must emit conformant Prometheus text with monotonic
//! counters, and every rejection must carry a typed [`RejectCode`].
//! Under session churn with a live scraper and subscriber, every
//! session still runs its whole trace and no event is shed.

use foreco_core::RecoveryConfig;
use foreco_net::{
    ClientConfig, ControlWire, DataWire, EventStream, FleetEvent, ForecoClient, Gateway,
    GatewayConfig, IngressConfig, NetError, RejectCode, ReplayStats,
};
use foreco_serve::{
    ChannelSpec, IngressSummary, MetricsRegistry, RecoverySpec, ServiceConfig, SessionReport,
    SharedForecaster,
};
use foreco_teleop::{Dataset, Skill};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SESSION: u64 = 7;
const CLEAN_TAIL: usize = 80;

fn foreco_gateway_config() -> GatewayConfig {
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
    let var = foreco_forecast::Var::fit_differenced(&train, 5, 1e-6).expect("fit VAR");
    let model = foreco_robot::niryo_one();
    let mut recovery = RecoveryConfig::for_model(&model);
    // §VII-C on: late frames must patch the forecast history.
    recovery.use_late_commands = true;
    GatewayConfig {
        recovery: RecoverySpec::FoReCo {
            forecaster: SharedForecaster::new(var),
            config: recovery,
        },
        channel: ChannelSpec::Ideal,
        ingress: IngressConfig {
            // A short reorder horizon so deliberately-late frames
            // (late_depth below) genuinely miss it and ride §VII-C.
            reorder_window: 3,
            ..IngressConfig::default()
        },
        ..GatewayConfig::default()
    }
}

fn test_trace() -> Vec<Vec<f64>> {
    Dataset::record(Skill::Inexperienced, 1, 0.02, 321)
        .head(400)
        .commands
}

fn impaired_config() -> ClientConfig {
    ClientConfig {
        loss: 0.04,
        late: 0.05,
        late_depth: 4, // > reorder_window: arrives behind the horizon
        seed: 0xC0FFEE,
        ..ClientConfig::default()
    }
}

/// Attach, replay (impaired body + clean tail), detach.
fn drive<D: DataWire, C: ControlWire>(
    mut client: ForecoClient<D, C>,
    trace: &[Vec<f64>],
) -> (SessionReport, IngressSummary, ReplayStats) {
    client
        .open(trace[0].clone(), trace.len().max(16))
        .expect("open session");
    let cut = trace.len().saturating_sub(CLEAN_TAIL);
    let stats = client
        .replay(&trace[..cut], 0, &impaired_config())
        .expect("impaired replay");
    // Clean tail: every outstanding gap flushes and every settleable
    // slot settles before close (see the module docs).
    client
        .replay(&trace[cut..], cut as u64, &ClientConfig::default())
        .expect("clean tail");
    let (report, ingress) = client.close().expect("close");
    (report, ingress, stats)
}

#[test]
fn udp_replay_is_bit_identical_to_loopback_and_losses_reach_the_engine() {
    let trace = test_trace();
    assert!(trace.len() > 2 * CLEAN_TAIL, "trace long enough to impair");

    // Loopback: the hermetic ground truth.
    let loop_gw = Gateway::spawn(ServiceConfig::with_shards(2), foreco_gateway_config())
        .expect("spawn loopback gateway");
    let (loop_report, loop_ingress, loop_stats) =
        drive(ForecoClient::loopback(&loop_gw, SESSION), &trace);
    loop_gw.shutdown();

    // Real sockets: localhost UDP data plane + TCP control plane.
    let udp_gw = Gateway::spawn(ServiceConfig::with_shards(2), foreco_gateway_config())
        .expect("spawn socket gateway");
    let client = ForecoClient::connect(SESSION, udp_gw.udp_addr(), udp_gw.tcp_addr())
        .expect("connect over sockets");
    let (udp_report, udp_ingress, udp_stats) = drive(client, &trace);
    udp_gw.shutdown();

    // The client made identical impairment decisions on both transports…
    assert_eq!(loop_stats.sent, udp_stats.sent);
    assert_eq!(loop_stats.lost, udp_stats.lost);
    assert_eq!(loop_stats.deferred, udp_stats.deferred);
    assert!(loop_stats.lost > 0, "impairment must actually drop frames");
    assert!(loop_stats.deferred > 0, "impairment must defer frames");

    // …the gateway reached identical ingress verdicts…
    assert_eq!(loop_ingress.delivered, udp_ingress.delivered);
    assert_eq!(loop_ingress.lost, udp_ingress.lost);
    assert_eq!(loop_ingress.late, udp_ingress.late);
    assert!(loop_ingress.lost > 0, "drops surface as ingress losses");
    assert!(loop_ingress.late > 0, "deferred frames ride the late path");

    // …and the sessions' final statistics are bit-identical.
    assert_eq!(loop_report.ticks, udp_report.ticks);
    assert_eq!(loop_report.misses, udp_report.misses);
    assert_eq!(loop_report.stats, udp_report.stats);
    assert_eq!(
        loop_report.rmse_mm.to_bits(),
        udp_report.rmse_mm.to_bits(),
        "rmse must be bit-identical across transports: {} vs {}",
        loop_report.rmse_mm,
        udp_report.rmse_mm
    );
    assert_eq!(
        loop_report.max_deviation_mm.to_bits(),
        udp_report.max_deviation_mm.to_bits()
    );

    // The client's injected impairments are visible as engine events in
    // the registry: losses became forecast-covered misses, late frames
    // became §VII-C history patches.
    let mut registry = MetricsRegistry::new();
    registry.record(udp_report.clone());
    registry.record_ingress(vec![udp_ingress]);
    let engine = udp_report.stats.expect("FoReCo session has stats");
    assert!(
        udp_report.misses as u64 >= udp_ingress.lost,
        "every wire loss is an engine miss"
    );
    assert!(
        engine.forecasts + engine.warmup_repeats + engine.horizon_holds >= udp_ingress.lost,
        "engine covered the losses"
    );
    assert!(engine.late_patches > 0, "§VII-C patches landed");
    assert_eq!(registry.ingress()[0].lost, udp_ingress.lost);
    assert_eq!(
        registry.summary().expect("session completed").total_misses,
        udp_report.misses as u64
    );
}

#[test]
fn snapshot_adopt_survives_a_gateway_restart_bit_identically() {
    let trace = test_trace();
    let cut = trace.len() / 2;
    let clean = ClientConfig::default();

    // Twin: the same trace, uninterrupted, on its own gateway.
    let twin_gw = Gateway::spawn(ServiceConfig::with_shards(1), foreco_gateway_config())
        .expect("spawn twin gateway");
    let mut twin = ForecoClient::loopback(&twin_gw, SESSION);
    twin.open(trace[0].clone(), trace.len()).expect("open twin");
    twin.replay(&trace, 0, &clean).expect("twin replay");
    let (twin_report, _) = twin.close().expect("twin close");
    twin_gw.shutdown();

    // First gateway "process": half the trace, checkpoint, die.
    let gw_a = Gateway::spawn(ServiceConfig::with_shards(1), foreco_gateway_config())
        .expect("spawn gateway A");
    let mut operator = ForecoClient::loopback(&gw_a, SESSION);
    operator.open(trace[0].clone(), trace.len()).expect("open");
    operator
        .replay(&trace[..cut], 0, &clean)
        .expect("first half");
    let snapshot = operator.snapshot().expect("checkpoint over the wire");
    gw_a.shutdown(); // the gateway restarts…

    // …and the operator re-attaches to the revived session.
    let gw_b = Gateway::spawn(ServiceConfig::with_shards(1), foreco_gateway_config())
        .expect("spawn gateway B");
    let mut operator = ForecoClient::loopback(&gw_b, SESSION);
    let next_slot = operator.adopt(&snapshot).expect("adopt");
    assert_eq!(next_slot as usize, cut, "resume where the wire left off");
    operator
        .replay(&trace[cut..], next_slot, &clean)
        .expect("second half");
    let (report, ingress) = operator.close().expect("close");
    gw_b.shutdown();

    assert_eq!(report.ticks, twin_report.ticks);
    assert_eq!(report.misses, twin_report.misses);
    assert_eq!(report.stats, twin_report.stats);
    assert_eq!(report.rmse_mm.to_bits(), twin_report.rmse_mm.to_bits());
    assert_eq!(ingress.delivered as usize, trace.len() - cut);
}

#[test]
fn impairment_through_the_final_slot_terminates_and_closes_cleanly() {
    // Regression: a replay whose *last* slots are lost or deferred must
    // not hang — stale frames are fire-and-forget (they can never
    // re-settle below the ack watermark), retransmission paces off its
    // own clock instead of rewinding the progress clock, and the drain
    // gives up on trailing unsettleable slots so close() can flush
    // every gap the gateway knows about.
    let trace = test_trace();
    let gateway = Gateway::spawn(ServiceConfig::with_shards(1), foreco_gateway_config())
        .expect("spawn gateway");
    let mut client = ForecoClient::loopback(&gateway, SESSION);
    client.open(trace[0].clone(), trace.len()).expect("open");
    let stats = client
        .replay(&trace, 0, &impaired_config())
        .expect("impaired replay to the last slot");
    assert!(stats.lost > 0 && stats.deferred > 0);
    let (report, ingress) = client.close().expect("close");
    gateway.shutdown();
    // Every slot the gateway settled got exactly one verdict: the
    // session's tick count is deliveries plus flushed losses, and only
    // slots trailing the final received frame are missing from it.
    assert_eq!(report.ticks, ingress.delivered + ingress.lost);
    assert!(report.ticks as usize <= trace.len());
    assert!(
        trace.len() as u64 - report.ticks <= impaired_config().late_depth + 1,
        "only a trailing loss/deferral span may go unheard: {} of {}",
        report.ticks,
        trace.len()
    );
    assert!(report.misses as u64 >= ingress.lost);
}

#[test]
fn malformed_and_unknown_traffic_is_counted_and_contained() {
    use std::net::UdpSocket;

    let gateway = Gateway::spawn(ServiceConfig::with_shards(1), GatewayConfig::default())
        .expect("spawn gateway");
    let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw socket");
    raw.connect(gateway.udp_addr()).expect("connect raw socket");

    // Garbage, bad magic, wrong version, truncation: all undecodable.
    raw.send(b"not a frame at all").unwrap();
    let mut bad = [0u8; 32];
    bad[..4].copy_from_slice(b"XXXX");
    raw.send(&bad).unwrap();
    let mut wrong_version = [0u8; 32];
    wrong_version[..4].copy_from_slice(&foreco_net::WIRE_MAGIC);
    wrong_version[4] = foreco_net::WIRE_VERSION + 9;
    raw.send(&wrong_version).unwrap();
    // A well-formed frame for a session nobody attached.
    let mut buf = [0u8; foreco_net::MAX_FRAME];
    let len = foreco_net::wire::encode_miss(&mut buf, 999, 0, 0).unwrap();
    raw.send(&buf[..len]).unwrap();

    // A real operator is unbothered: attach and stream a short trace,
    // including one frame with a wrong joint count (attributably
    // malformed, counted, never delivered — its slot flushes as lost).
    let trace = Dataset::record(Skill::Inexperienced, 1, 0.02, 9)
        .head(40)
        .commands;
    let mut client = ForecoClient::connect(3, gateway.udp_addr(), gateway.tcp_addr())
        .expect("connect over sockets");
    client.open(trace[0].clone(), 64).expect("open");
    let len = foreco_net::wire::encode_command(&mut buf, 3, 0, 0, &[1.0, 2.0, 3.0]).unwrap();
    raw.connect(gateway.udp_addr()).unwrap();
    raw.send(&buf[..len]).unwrap();
    // A structurally valid frame with an absurd sequence jump (a
    // spoofed datagram): it must be rejected as malformed, not allowed
    // to stampede the watermark across 2^63 missing slots.
    let pose: Vec<f64> = trace[0].clone();
    let len = foreco_net::wire::encode_command(&mut buf, 3, u64::MAX - 1, 0, &pose).unwrap();
    raw.send(&buf[..len]).unwrap();
    // Give the junk frames time to land before the real slot 0 (this
    // test asserts counters, not bit-determinism).
    std::thread::sleep(std::time::Duration::from_millis(50));
    client
        .replay(&trace, 0, &ClientConfig::default())
        .expect("replay");
    let stats = client.stats().expect("stats over the wire");
    assert_eq!(
        stats.malformed, 2,
        "wrong-dims and absurd-seq frames counted"
    );
    assert_eq!(stats.delivered, trace.len() as u64);
    assert_eq!(stats.lost, 0, "the spoofed seq must not flush real slots");
    let (report, ingress) = client.close().expect("close");
    assert_eq!(report.ticks as usize, trace.len());
    assert_eq!(ingress.malformed, 2);

    let (undecodable, unknown) = gateway.reject_counters();
    assert!(undecodable >= 3, "garbage datagrams counted: {undecodable}");
    assert!(unknown >= 1, "unattached-session frames counted: {unknown}");
    gateway.shutdown();
}

#[test]
fn non_finite_command_is_malformed_and_never_reaches_the_engine() {
    // Delivered, a NaN joint would become the engine's newest history
    // row; the next miss would then clamp against a NaN step bound and
    // panic the shard, taking every co-shard session with it.
    let gateway = Gateway::spawn(ServiceConfig::with_shards(1), foreco_gateway_config())
        .expect("spawn gateway");
    let trace = test_trace();
    let warm = 20; // well past the differenced VAR's 6-row window
    let mut client = ForecoClient::loopback(&gateway, SESSION);
    client.open(trace[0].clone(), 64).expect("open");
    client
        .replay(&trace[..warm], 0, &ClientConfig::default())
        .expect("warmup");
    let (mut raw, _) = gateway.loopback();
    let mut buf = [0u8; foreco_net::MAX_FRAME];
    let len = foreco_net::wire::encode_command(&mut buf, SESSION, warm as u64, 0, &[f64::NAN; 6])
        .expect("encode NaN command");
    raw.send(&buf[..len]).expect("send NaN command");
    let len =
        foreco_net::wire::encode_miss(&mut buf, SESSION, warm as u64 + 1, 0).expect("encode miss");
    raw.send(&buf[..len]).expect("send miss");
    let rest = warm + 2;
    client
        .replay(&trace[rest..], rest as u64, &ClientConfig::default())
        .expect("replay after the NaN slot");
    let (report, ingress) = client.close().expect("close");
    assert_eq!(
        ingress.malformed, 1,
        "the NaN command is counted as malformed"
    );
    assert_eq!(
        ingress.lost, 2,
        "its slot flushes as a loss, as does the Miss"
    );
    assert!(
        report.misses >= 2,
        "the NaN slot and the Miss are both misses"
    );
    assert!(report.rmse_mm.is_finite(), "rmse {}", report.rmse_mm);

    // The shard is alive: a second session still opens and closes.
    let mut second = ForecoClient::loopback(&gateway, SESSION + 1);
    second.open(trace[0].clone(), 64).expect("open second");
    second
        .replay(&trace[..40], 0, &ClientConfig::default())
        .expect("replay second");
    let (report, _) = second.close().expect("close second");
    assert_eq!(report.ticks, 40);
    gateway.shutdown();
}

#[test]
fn non_finite_initial_pose_is_a_bad_request() {
    use std::net::TcpStream;

    // JSON cannot carry NaN, but a number too large for an f64 parses
    // as infinity: hand-write the request a typed client cannot send.
    let gateway = Gateway::spawn(ServiceConfig::with_shards(1), foreco_gateway_config())
        .expect("spawn gateway");
    let mut stream = TcpStream::connect(gateway.tcp_addr()).expect("connect control");
    foreco_net::control::write_hello(&mut stream).expect("hello");
    foreco_net::control::read_hello(&mut stream).expect("server hello");
    let request = br#"{"Open":{"id":5,"initial":[1e999,0,0,0,0,0],"inbox_capacity":8}}"#;
    foreco_net::control::write_msg(&mut stream, request).expect("send open");
    let response = foreco_net::control::read_msg(&mut stream).expect("read response");
    let text = String::from_utf8(response).expect("JSON response");
    assert!(
        text.contains("Rejected") && text.contains("BadRequest"),
        "an infinite initial joint must be rejected as a bad request: {text}"
    );
    gateway.shutdown();
}

#[test]
fn attached_subscriber_leaves_results_bit_identical() {
    let trace = test_trace();

    // Ground truth: nobody watching.
    let quiet_gw = Gateway::spawn(ServiceConfig::with_shards(2), foreco_gateway_config())
        .expect("spawn quiet gateway");
    let (quiet_report, quiet_ingress, _) =
        drive(ForecoClient::loopback(&quiet_gw, SESSION), &trace);
    quiet_gw.shutdown();

    // Same trace with a poll-mode subscriber attached for the whole
    // run — lifecycle narration (including the observer-gated Parked
    // events) must not change a single output bit.
    let watched_gw = Gateway::spawn(ServiceConfig::with_shards(2), foreco_gateway_config())
        .expect("spawn watched gateway");
    let mut watcher = ForecoClient::loopback(&watched_gw, 0);
    let subscription = watcher.subscribe().expect("subscribe");
    let (report, ingress, _) = drive(ForecoClient::loopback(&watched_gw, SESSION), &trace);

    let mut events = Vec::new();
    loop {
        let batch = watcher.poll_events(subscription, 1024).expect("poll");
        assert_eq!(batch.dropped, 0, "one session cannot overflow the queue");
        if batch.events.is_empty() {
            break;
        }
        events.extend(batch.events);
    }
    watcher.unsubscribe(subscription).expect("unsubscribe");
    watched_gw.shutdown();

    assert_eq!(report.ticks, quiet_report.ticks);
    assert_eq!(report.misses, quiet_report.misses);
    assert_eq!(report.stats, quiet_report.stats);
    assert_eq!(report.rmse_mm.to_bits(), quiet_report.rmse_mm.to_bits());
    assert_eq!(
        report.max_deviation_mm.to_bits(),
        quiet_report.max_deviation_mm.to_bits()
    );
    assert_eq!(ingress.delivered, quiet_ingress.delivered);
    assert_eq!(ingress.lost, quiet_ingress.lost);

    // The subscription saw the session's lifecycle, and the Completed
    // event carried the same bits the close handshake returned.
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FleetEvent::Opened { id, .. } if *id == SESSION)),
        "subscriber saw the open"
    );
    let completed = events
        .iter()
        .find_map(|e| match e {
            FleetEvent::Completed { id, report } if *id == SESSION => Some(report),
            _ => None,
        })
        .expect("subscriber saw the completion");
    assert_eq!(completed.rmse_mm.to_bits(), report.rmse_mm.to_bits());
    assert_eq!(completed.ticks, report.ticks);
}

#[test]
fn stream_mode_pushes_events_over_tcp() {
    let trace = Dataset::record(Skill::Inexperienced, 1, 0.02, 11)
        .head(80)
        .commands;
    let gateway = Gateway::spawn(ServiceConfig::with_shards(1), foreco_gateway_config())
        .expect("spawn gateway");

    // A dedicated push-mode connection, attached before any traffic.
    let (mut stream, _subscription) =
        EventStream::connect(gateway.tcp_addr()).expect("event stream");

    let mut client = ForecoClient::connect(3, gateway.udp_addr(), gateway.tcp_addr())
        .expect("connect over sockets");
    client.open(trace[0].clone(), trace.len()).expect("open");
    client
        .replay(&trace, 0, &ClientConfig::default())
        .expect("replay");
    let (report, _) = client.close().expect("close");

    // The gateway pushes the lifecycle without being polled.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut saw_opened = false;
    let mut completed = None;
    while completed.is_none() && Instant::now() < deadline {
        match stream.next(Duration::from_millis(200)).expect("next event") {
            Some(FleetEvent::Opened { id: 3, .. }) => saw_opened = true,
            Some(FleetEvent::Completed { id: 3, report }) => completed = Some(report),
            _ => {}
        }
    }
    gateway.shutdown();

    assert!(saw_opened, "push stream delivered the open");
    let completed = completed.expect("push stream delivered the completion");
    assert_eq!(completed.rmse_mm.to_bits(), report.rmse_mm.to_bits());
    assert_eq!(completed.ticks, report.ticks);
}

/// A control round trip over localhost TCP is a sub-millisecond
/// exchange, not a delayed-ACK stall: with Nagle holding back half a
/// frame, every request/response pair costs the peer's ~40 ms ACK
/// delay. The median of 20 `stats` round trips must stay well under
/// that floor.
#[test]
fn tcp_control_round_trips_are_not_held_by_delayed_acks() {
    let gateway = Gateway::spawn(ServiceConfig::with_shards(1), GatewayConfig::default())
        .expect("spawn gateway");
    let mut client = ForecoClient::connect(5, gateway.udp_addr(), gateway.tcp_addr())
        .expect("connect over sockets");
    client.open(vec![0.0; 6], 64).expect("open");
    let mut rtts: Vec<Duration> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            client.stats().expect("stats");
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    gateway.shutdown();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median control round trip {median:?} (all: {rtts:?})"
    );
}

#[test]
fn rejections_carry_typed_codes() {
    let gateway = Gateway::spawn(ServiceConfig::with_shards(1), GatewayConfig::default())
        .expect("spawn gateway");
    let mut client = ForecoClient::loopback(&gateway, 11);

    // A zero-capacity inbox is a malformed request.
    match client.open(vec![0.0; 6], 0) {
        Err(NetError::Rejected { code, reason }) => {
            assert_eq!(code, RejectCode::BadRequest, "reason: {reason}");
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    // Stats for a session nobody attached.
    match client.stats() {
        Err(NetError::Rejected { code, .. }) => assert_eq!(code, RejectCode::UnknownSession),
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    // Releasing a subscription that does not exist.
    match client.unsubscribe(999) {
        Err(NetError::Rejected { code, .. }) => assert_eq!(code, RejectCode::UnknownSession),
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    gateway.shutdown();
}

/// Splits one exposition body into `(samples, family → type)` while
/// asserting line-level conformance: every line is a well-formed
/// HELP/TYPE comment or a `name[{labels}] value` sample, every sample
/// belongs to a declared family, metric names use the legal charset,
/// no series (name + label set) appears twice, and counter families
/// carry the `_total` suffix.
fn parse_exposition(body: &str) -> (BTreeMap<String, f64>, BTreeMap<String, String>) {
    let mut samples: BTreeMap<String, f64> = BTreeMap::new();
    let mut families: BTreeMap<String, String> = BTreeMap::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            assert!(!name.is_empty(), "comment without a metric name: {line}");
            match keyword {
                "HELP" => assert!(
                    parts.next().is_some_and(|help| !help.is_empty()),
                    "HELP without text: {line}"
                ),
                "TYPE" => {
                    let kind = parts.next().unwrap_or("");
                    assert!(
                        matches!(kind, "counter" | "gauge" | "summary"),
                        "unknown metric type: {line}"
                    );
                    if kind == "counter" {
                        assert!(
                            name.ends_with("_total"),
                            "counter family without _total suffix: {name}"
                        );
                    }
                    assert!(
                        families
                            .insert(name.to_string(), kind.to_string())
                            .is_none(),
                        "family declared twice: {name}"
                    );
                }
                other => panic!("unknown comment keyword {other:?}: {line}"),
            }
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable sample value: {line}"));
        let name = &series[..series.find('{').unwrap_or(series.len())];
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "illegal metric name: {line}"
        );
        assert!(
            series.len() == name.len() || series.ends_with('}'),
            "unterminated label set: {line}"
        );
        assert!(
            families.contains_key(name),
            "sample without a TYPE declaration: {line}"
        );
        assert!(
            samples.insert(series.to_string(), value).is_none(),
            "duplicate series: {series}"
        );
    }
    (samples, families)
}

#[test]
fn metrics_exposition_is_conformant_and_counters_are_monotonic() {
    let trace = test_trace();
    let gateway = Gateway::spawn(ServiceConfig::with_shards(2), foreco_gateway_config())
        .expect("spawn gateway");
    let mut client = ForecoClient::loopback(&gateway, SESSION);
    let mut scraper = ForecoClient::loopback(&gateway, 0);

    // First scrape mid-churn, second after more traffic completed.
    client.open(trace[0].clone(), trace.len()).expect("open");
    let cut = trace.len() / 2;
    client
        .replay(&trace[..cut], 0, &ClientConfig::default())
        .expect("first half");
    let first = scraper.metrics().expect("first scrape");
    client
        .replay(&trace[cut..], cut as u64, &ClientConfig::default())
        .expect("second half");
    let (report, _) = client.close().expect("close");
    let second = scraper.metrics().expect("second scrape");
    gateway.shutdown();

    let (first_samples, first_families) = parse_exposition(&first);
    let (second_samples, second_families) = parse_exposition(&second);
    assert!(!first_samples.is_empty(), "scrape produced samples");
    for expected in [
        "foreco_ticks_total",
        "foreco_sessions_opened_total",
        "foreco_shard_sessions",
        "foreco_ingress_delivered_total",
    ] {
        assert!(
            first_families.contains_key(expected),
            "missing family {expected}"
        );
    }
    // A completed FoReCo session puts the RMSE summary on the board.
    assert_eq!(
        second_families
            .get("foreco_session_rmse_mm")
            .map(String::as_str),
        Some("summary")
    );
    assert!(
        second_samples
            .get("foreco_session_rmse_mm{quantile=\"0.5\"}")
            .is_some_and(|v| v.is_finite()),
        "rmse quantiles rendered"
    );
    assert!(report.rmse_mm.is_finite());

    // Every counter series is monotonic across the two scrapes, and the
    // second scrape reflects the finished replay.
    for (series, value) in &first_samples {
        let name = &series[..series.find('{').unwrap_or(series.len())];
        if first_families.get(name).map(String::as_str) == Some("counter") {
            let later = second_samples
                .get(series)
                .unwrap_or_else(|| panic!("series vanished between scrapes: {series}"));
            assert!(
                later >= value,
                "counter went backwards: {series} {value} -> {later}"
            );
        }
    }
    let delivered_after = second_samples["foreco_ingress_delivered_total"];
    assert!(
        delivered_after >= trace.len() as f64,
        "second scrape saw the whole replay: {delivered_after}"
    );
}

#[test]
fn churn_with_live_scraper_and_subscriber_runs_every_session_in_full() {
    // Workers churn short sessions through open → replay → (every 16th)
    // snapshot → close while a scraper polls the metrics endpoint and a
    // poll-mode subscriber drains the fleet feed. 256 sessions emit
    // about a thousand events, well under one subscriber queue's cap,
    // so a dropped event means the feed lost one, not that it shed load.
    const WORKERS: u64 = 4;
    const SESSIONS: u64 = 64 * WORKERS;
    let gateway = Gateway::spawn(ServiceConfig::with_shards(2), GatewayConfig::default())
        .expect("spawn gateway");
    let trace = Dataset::record(Skill::Inexperienced, 1, 0.02, 404)
        .head(32)
        .commands;
    // Subscribed before the first open, so the feed covers every session.
    let mut watcher = ForecoClient::loopback(&gateway, u64::MAX - 1);
    let subscription = watcher.subscribe().expect("subscribe");
    let stop = AtomicBool::new(false);
    let (completed, dropped) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|worker| {
                let (gateway, trace) = (&gateway, &trace);
                s.spawn(move || {
                    for id in (worker..SESSIONS).step_by(WORKERS as usize) {
                        let mut client = ForecoClient::loopback(gateway, id);
                        client.open(trace[0].clone(), trace.len()).expect("open");
                        client
                            .replay(trace, 0, &ClientConfig::default())
                            .expect("replay");
                        if id % 16 == 0 {
                            assert!(!client.snapshot().expect("snapshot").is_empty());
                        }
                        let (report, _) = client.close().expect("close");
                        assert_eq!(report.ticks, trace.len() as u64, "session {id}");
                    }
                })
            })
            .collect();
        let scraper = s.spawn(|| {
            let mut client = ForecoClient::loopback(&gateway, u64::MAX);
            loop {
                let done = stop.load(Ordering::Relaxed);
                let body = client.metrics().expect("scrape");
                assert!(body.contains("foreco_ticks_total"), "scrape body:\n{body}");
                if done {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let subscriber = s.spawn(|| {
            let (mut completed, mut dropped) = (0u64, 0u64);
            loop {
                let done = stop.load(Ordering::Relaxed);
                let batch = watcher.poll_events(subscription, 4096).expect("poll");
                dropped += batch.dropped;
                completed += batch
                    .events
                    .iter()
                    .filter(|e| matches!(e, FleetEvent::Completed { .. }))
                    .count() as u64;
                if batch.events.is_empty() {
                    if done {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            watcher.unsubscribe(subscription).expect("unsubscribe");
            (completed, dropped)
        });
        for worker in workers {
            worker.join().expect("worker");
        }
        stop.store(true, Ordering::Relaxed);
        scraper.join().expect("scraper");
        subscriber.join().expect("subscriber")
    });
    gateway.shutdown();
    assert_eq!(dropped, 0, "the subscriber lost events");
    assert_eq!(completed, SESSIONS, "one completion per session");
}

/// Regression: a zero send window could never admit a frame, so every
/// replay spun on acks until `stall_timeout` and failed with `Timeout`.
/// It is now an invalid argument, refused before any frame is sent.
#[test]
fn zero_window_replay_is_refused_before_any_frame_is_sent() {
    let trace = test_trace();
    let gateway = Gateway::spawn(ServiceConfig::with_shards(1), foreco_gateway_config())
        .expect("spawn gateway");
    let mut client = ForecoClient::loopback(&gateway, SESSION);
    client.open(trace[0].clone(), 64).expect("open");
    let cfg = ClientConfig {
        window: 0,
        stall_timeout: Duration::from_secs(1),
        ..ClientConfig::default()
    };
    match client.replay(&trace[..40], 0, &cfg) {
        Err(NetError::Timeout(reason)) => panic!("a zero window must not stall: {reason}"),
        Err(NetError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
        other => panic!("expected an invalid-input error, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.delivered, 0, "no frame may reach the gateway");
    gateway.shutdown();
}

/// The client side of the handshake checks the echo: a server that
/// answers a current-version hello with another version is refused,
/// not silently spoken to in the wrong dialect.
#[test]
fn tcp_control_rejects_a_mismatched_version_echo() {
    use foreco_net::{TcpControl, CONTROL_VERSION};
    use std::io::Read;
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub server");
    let addr = listener.local_addr().expect("stub address");
    let stub = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut hello = [0u8; 5];
        stream.read_exact(&mut hello).expect("client hello");
        foreco_net::control::write_hello_version(&mut stream, 1).expect("echo v1");
        // Hold the connection until the client hangs up.
        let _ = stream.read(&mut [0u8; 1]);
        hello[4]
    });
    match TcpControl::connect(addr) {
        Err(NetError::Protocol(_)) => {}
        Err(e) => panic!("expected a protocol error, got {e}"),
        Ok(_) => panic!("a v1 echo to a v{CONTROL_VERSION} hello must fail the handshake"),
    }
    assert_eq!(stub.join().expect("stub server"), CONTROL_VERSION);
}

use foreco_net::{ControlRequest, ControlResponse};
use foreco_serve::SessionSnapshot;

#[path = "../../../tests/legacy_json/mod.rs"]
mod legacy_json;

/// A raw control connection speaking an explicit protocol version.
fn legacy_control(gateway: &Gateway, version: u8) -> std::net::TcpStream {
    let mut stream = std::net::TcpStream::connect(gateway.tcp_addr()).expect("connect control");
    foreco_net::control::write_hello_version(&mut stream, version).expect("hello");
    let echoed = foreco_net::control::read_hello(&mut stream).expect("server hello");
    assert_eq!(echoed, version, "the server echoes the client's version");
    stream
}

/// One raw request/response round trip with a JSON payload.
fn legacy_request(stream: &mut std::net::TcpStream, payload: &[u8]) -> ControlResponse {
    foreco_net::control::write_msg(stream, payload).expect("send request");
    let response = foreco_net::control::read_msg(stream).expect("read response");
    serde_json::from_str(std::str::from_utf8(&response).expect("JSON response"))
        .expect("decode response")
}

/// A v2 operator still adopts over the legacy JSON `Adopt` verb: a
/// checkpoint re-rendered as v2 JSON revives at the same data-plane
/// slot as the binary `AdoptBin` path.
#[test]
fn v2_json_adopt_resumes_where_adopt_bin_does() {
    let trace = test_trace();
    let cut = trace.len() / 2;

    let gw_a = Gateway::spawn(ServiceConfig::with_shards(1), foreco_gateway_config())
        .expect("spawn gateway A");
    let mut operator = ForecoClient::loopback(&gw_a, SESSION);
    operator.open(trace[0].clone(), trace.len()).expect("open");
    operator
        .replay(&trace[..cut], 0, &ClientConfig::default())
        .expect("first half");
    let binary = operator.snapshot().expect("checkpoint over the wire");
    gw_a.shutdown();
    let snapshot = SessionSnapshot::from_bytes(&binary).expect("decode checkpoint");
    let v2_json = String::from_utf8(legacy_json::render(&snapshot)).expect("JSON is UTF-8");
    assert!(v2_json.contains("\"version\":2"), "re-rendered as v2");

    let gw_b = Gateway::spawn(ServiceConfig::with_shards(1), foreco_gateway_config())
        .expect("spawn gateway B");
    let bin_slot = ForecoClient::loopback(&gw_b, SESSION)
        .adopt(&binary)
        .expect("AdoptBin");
    gw_b.shutdown();
    assert_eq!(bin_slot as usize, cut);

    let gw_c = Gateway::spawn(ServiceConfig::with_shards(1), foreco_gateway_config())
        .expect("spawn gateway C");
    let mut stream = legacy_control(&gw_c, 2);
    let request =
        serde_json::to_string(&ControlRequest::Adopt { snapshot: v2_json }).expect("encode Adopt");
    match legacy_request(&mut stream, request.as_bytes()) {
        ControlResponse::Adopted { id, next_slot, .. } => {
            assert_eq!(id, SESSION);
            assert_eq!(
                next_slot, bin_slot,
                "JSON Adopt resumes where AdoptBin does"
            );
        }
        other => panic!("expected Adopted, got {other:?}"),
    }
    gw_c.shutdown();
}

/// v4 retired the JSON `Snapshot` verb: a v3 operator sending it gets
/// the typed `BadRequest` any undecodable payload gets, and its
/// connection keeps serving requests.
#[test]
fn retired_json_snapshot_verb_is_a_bad_request_on_a_live_connection() {
    let gateway = Gateway::spawn(ServiceConfig::with_shards(1), foreco_gateway_config())
        .expect("spawn gateway");
    let trace = test_trace();
    let mut operator = ForecoClient::loopback(&gateway, SESSION);
    operator.open(trace[0].clone(), 64).expect("open");
    operator
        .replay(&trace[..20], 0, &ClientConfig::default())
        .expect("replay");

    let mut stream = legacy_control(&gateway, 3);
    let request = format!(r#"{{"Snapshot":{{"id":{SESSION}}}}}"#);
    match legacy_request(&mut stream, request.as_bytes()) {
        ControlResponse::Rejected { code, reason } => {
            assert_eq!(code, RejectCode::BadRequest, "reason: {reason}");
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    let metrics = serde_json::to_string(&ControlRequest::Metrics).expect("encode Metrics");
    match legacy_request(&mut stream, metrics.as_bytes()) {
        ControlResponse::Metrics { body } => assert!(body.contains("foreco_ticks_total")),
        other => panic!("expected Metrics, got {other:?}"),
    }
    gateway.shutdown();
}

/// A control-plane checkpoint of an id no session ever held gets the
/// typed `UnknownSession` rejection.
#[test]
fn checkpoint_of_a_never_opened_session_is_an_unknown_session() {
    let gateway = Gateway::spawn(ServiceConfig::with_shards(2), GatewayConfig::default())
        .expect("spawn gateway");
    match ForecoClient::loopback(&gateway, 404).snapshot() {
        Err(NetError::Rejected { code, reason }) => {
            assert_eq!(code, RejectCode::UnknownSession, "reason: {reason}");
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    gateway.shutdown();
}

/// One control-plane checkpoint reaches a subscriber as exactly one
/// `Snapshotted` event.
#[test]
fn one_checkpoint_is_one_snapshotted_event_for_a_subscriber() {
    let gateway = Gateway::spawn(ServiceConfig::with_shards(2), foreco_gateway_config())
        .expect("spawn gateway");
    let trace = test_trace();
    let mut watcher = ForecoClient::loopback(&gateway, 0);
    let subscription = watcher.subscribe().expect("subscribe");
    let mut operator = ForecoClient::loopback(&gateway, SESSION);
    operator.open(trace[0].clone(), 64).expect("open");
    operator
        .replay(&trace[..20], 0, &ClientConfig::default())
        .expect("replay");
    let before = snapshots_total(&mut watcher);
    operator.snapshot().expect("checkpoint");
    // The shard narrates the checkpoint before the completion, and the
    // close returns only after the hub absorbed the completion.
    operator.close().expect("close");
    // Counters surface at the shard's next publish, so wait for the
    // checkpoint to show up, then check it counted once.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut after = snapshots_total(&mut watcher);
    while after < before + 1.0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        after = snapshots_total(&mut watcher);
    }
    assert_eq!(
        after - before,
        1.0,
        "one checkpoint, one foreco_snapshots_total"
    );

    let mut events = Vec::new();
    loop {
        let batch = watcher.poll_events(subscription, 1024).expect("poll");
        assert_eq!(batch.dropped, 0, "one session cannot overflow the queue");
        if batch.events.is_empty() {
            break;
        }
        events.extend(batch.events);
    }
    watcher.unsubscribe(subscription).expect("unsubscribe");
    gateway.shutdown();

    let snapshotted: Vec<&FleetEvent> = events
        .iter()
        .filter(|e| matches!(e, FleetEvent::Snapshotted { .. }))
        .collect();
    assert_eq!(snapshotted.len(), 1, "events: {events:?}");
    assert!(matches!(snapshotted[0], FleetEvent::Snapshotted { id, .. } if *id == SESSION));
}

/// `foreco_snapshots_total` summed over every shard's series.
fn snapshots_total<D: DataWire, C: ControlWire>(client: &mut ForecoClient<D, C>) -> f64 {
    let body = client.metrics().expect("scrape");
    let (samples, _) = parse_exposition(&body);
    samples
        .iter()
        .filter(|(series, _)| series.starts_with("foreco_snapshots_total"))
        .map(|(_, value)| value)
        .sum()
}

/// A checkpoint whose channel spec would panic a shard when built
/// decodes fine, so restore must refuse it: an `AdoptBin` carrying one
/// gets the typed `RestoreFailed`, and the same shard then opens and
/// runs a fresh session to the end of its trace.
#[test]
fn adopt_bin_with_a_hostile_channel_spec_is_refused_and_the_shard_serves_on() {
    use foreco_serve::SourceState;
    let trace = test_trace();
    let clean = ClientConfig::default();
    let gateway = Gateway::spawn(ServiceConfig::with_shards(1), foreco_gateway_config())
        .expect("spawn gateway");
    let mut donor = ForecoClient::loopback(&gateway, SESSION);
    donor.open(trace[0].clone(), 64).expect("open donor");
    donor.replay(&trace[..20], 0, &clean).expect("donor replay");
    let checkpoint = donor.snapshot().expect("checkpoint");
    donor.close().expect("close donor");

    let hostile_specs = [
        ChannelSpec::ControlledLoss {
            burst_len: 4,
            burst_prob: 2.0,
            seed: 1,
        },
        ChannelSpec::ControlledLoss {
            burst_len: 0,
            burst_prob: 0.02,
            seed: 1,
        },
    ];
    for spec in hostile_specs {
        let mut snapshot = SessionSnapshot::from_bytes(&checkpoint).expect("decode checkpoint");
        let SourceState::Gated { channel, .. } = &mut snapshot.source else {
            panic!("gateway sessions are gated");
        };
        **channel = spec.clone();
        match ForecoClient::loopback(&gateway, SESSION).adopt(&snapshot.to_bytes()) {
            Err(NetError::Rejected { code, reason }) => {
                assert_eq!(code, RejectCode::RestoreFailed, "{spec:?}: {reason}");
            }
            other => panic!("{spec:?}: expected a typed rejection, got {other:?}"),
        }
    }

    let mut fresh = ForecoClient::loopback(&gateway, SESSION + 1);
    fresh
        .open(trace[0].clone(), trace.len())
        .expect("open after refusals");
    fresh.replay(&trace, 0, &clean).expect("fresh replay");
    let (report, _) = fresh.close().expect("close fresh");
    assert_eq!(
        report.ticks as usize,
        trace.len(),
        "the fresh session ran its trace"
    );
    gateway.shutdown();
}
