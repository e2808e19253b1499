//! The traced run: per-layer costs on a workload's own inputs.
//!
//! Every probe times public calls of one layer with the tracer off (the
//! per-layer metric), then runs again briefly with spans on (the
//! self-time table). A single-threaded "shadow" tick loop replays the
//! workload's sessions layer by layer — engine, both robot drivers —
//! under spans, and the same loop untraced gives the tracing overhead.
//! The run ends with the reconciliation of the layer figures against
//! `Session::advance` and against the closed-batch ticks/s.

use crate::inputs::{self, derive, Models, Rng, BURST_LEN, BURST_PROB};
use crate::tracer::Tracer;
use crate::workloads::{
    self, close_gated, gateway_config, open_gated, operator_fates, wait_events, Fate,
};
use crate::{quantile, Outcome, Scale};
use foreco_core::{Channel, ControlledLossChannel, JammedChannel, RecoveryConfig, RecoveryEngine};
use foreco_forecast::{plan_layout, BatchLane, ForecastScratch};
use foreco_net::wire::{self, MAX_FRAME};
use foreco_net::{ControlRequest, ControlResponse, ControlWire, DataWire, Gateway, TcpControl};
use foreco_robot::{DriverConfig, RobotDriver};
use foreco_serve::{
    FleetArchive, Service, ServiceConfig, Session, SessionEvent, SessionReport, SessionSnapshot,
    SessionSpec, SharedForecaster, SourceSpec,
};
use foreco_store::Storage;
use foreco_wifi::WirelessLink;
use std::hint::black_box;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions in the probe fleet (one closed batch of the workload).
const FLEET: u64 = 64;
/// Sessions the shadow tick loop replays per pass.
const SHADOW_SESSIONS: u64 = 16;
/// Checkpoint cycles per pass of the checkpoint probe.
const CHECKPOINT_CYCLES: usize = 3;
/// Lane width of the forecast probes: the jammed batch's per-family
/// share (64 sessions over four families).
const LANE: usize = 16;

/// A workload's inputs, as the layer probes consume them.
struct Probe {
    models: Models,
    trace: Arc<Vec<Vec<f64>>>,
    /// One closed batch of the workload's sessions (scripted; the
    /// gateway's operators become scripted replays of the same trace
    /// over a controlled-loss channel).
    fleet: Vec<SessionSpec>,
    /// Forecaster family index per session (0 = VAR, 1 = Kalman-CV,
    /// 2 = MA, 3 = Holt).
    family: Vec<usize>,
    families: [(&'static str, SharedForecaster); 4],
    jammed: bool,
}

fn probe_inputs(workload: &str, seed: u64, scale: &Scale) -> Probe {
    let models = Models::train(seed);
    let families = models.families();
    let jammed = workload == "jammed_mixed_fleet";
    // The trace of the workload's first batch set (first operator).
    let tag = match workload {
        "replay_light_loss" => "replay/0",
        "jammed_mixed_fleet" => "jammed/0",
        "gateway_50hz" => "gateway/0",
        _ => "checkpoint/0",
    };
    let trace = Arc::new(inputs::record_trace(seed, tag, scale.trace_ticks));
    let fleet: Vec<SessionSpec> = if jammed {
        inputs::jammed_specs(seed, &models, &trace, &families, 0..FLEET)
    } else {
        (0..FLEET)
            .map(|id| {
                SessionSpec::new(
                    id,
                    SourceSpec::Replayed(Arc::clone(&trace)),
                    inputs::controlled_loss(seed, id),
                    models.foreco(families[0].1.clone()),
                )
            })
            .collect()
    };
    let family = (0..FLEET as usize)
        .map(|i| if jammed { i % 4 } else { 0 })
        .collect();
    Probe {
        models,
        trace,
        fleet,
        family,
        families,
        jammed,
    }
}

/// Per-call cost of a loop body run `n` times, in ns.
fn per_call_ns(n: usize, mut body: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        body(i);
    }
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn engine(probe: &Probe, family: usize) -> RecoveryEngine {
    RecoveryEngine::new(
        Box::new(probe.families[family].1.clone()),
        RecoveryConfig::for_model(&probe.models.model),
        probe.models.model.clamp(&probe.trace[0]),
    )
}

/// The channel a probe-fleet session sees, built from its spec's
/// parameters.
fn channel_of(probe: &Probe, seed: u64, id: u64) -> Box<dyn Channel> {
    if probe.jammed {
        Box::new(JammedChannel::new(
            inputs::jammed_link(),
            0.0,
            derive(seed, &format!("jam/{id}")),
        ))
    } else {
        Box::new(ControlledLossChannel::new(
            BURST_LEN,
            BURST_PROB,
            derive(seed, &format!("loss/{id}")),
        ))
    }
}

/// The shadow tick loop over the first probe sessions: per tick the
/// engine covers the channel's fate and both robot drivers step.
/// Returns ns per tick.
fn shadow_ticks(probe: &Probe, seed: u64, tr: &mut Tracer) -> f64 {
    let model = &probe.models.model;
    let n = probe.trace.len();
    let mut out = vec![0.0; model.dof()];
    let (mut wall, mut ticks) = (Duration::ZERO, 0usize);
    for id in 0..SHADOW_SESSIONS {
        let fates = channel_of(probe, seed, id).fates(n);
        let start = model.clamp(&probe.trace[0]);
        let mut eng = engine(probe, probe.family[id as usize]);
        let mut reference = RobotDriver::new(model.clone(), DriverConfig::default(), &start);
        let mut executed = RobotDriver::new(model.clone(), DriverConfig::default(), &start);
        reference.set_recording(false);
        executed.set_recording(false);
        let mut dev = 0.0;
        let t0 = Instant::now();
        for (cmd, fate) in probe.trace.iter().zip(&fates) {
            tr.enter_sampled("serve.tick");
            let arrived = fate.on_time().then_some(cmd.as_slice());
            tr.span("core.engine", || eng.tick_into(arrived, &mut out));
            let a = tr.span("robot.driver_tick", || {
                reference.tick(Some(cmd)).position_mm
            });
            let b = tr.span("robot.driver_tick", || {
                executed.tick(Some(&out)).position_mm
            });
            dev += (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2);
            tr.exit();
        }
        wall += t0.elapsed();
        ticks += n;
        black_box(dev);
    }
    wall.as_nanos() as f64 / ticks as f64
}

/// Everything the probes measured, by metric name.
#[derive(Default)]
struct Figures(Vec<(String, f64, &'static str)>);

impl Figures {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
            .unwrap_or_else(|| panic!("figure {name} not measured"))
    }
}

/// The robot, core, wifi and forecast probes.
fn kernel_probes(probe: &Probe, seed: u64, tr: &mut Tracer, f: &mut Figures) {
    let model = &probe.models.model;
    let trace = &probe.trace;
    let commands: Vec<Vec<f64>> = trace.iter().map(|c| model.clamp(c)).collect();
    let n = commands.len();

    f.put(
        "robot.fk_ns",
        tr.span("robot.fk", || {
            per_call_ns(n, |i| {
                black_box(model.chain.forward_mm(black_box(&commands[i % n])));
            })
        }),
        "ns",
    );
    let mut driver = RobotDriver::new(model.clone(), DriverConfig::default(), &commands[0]);
    driver.set_recording(false);
    f.put(
        "robot.driver_tick_ns",
        tr.span("robot.driver_tick", || {
            per_call_ns(n, |i| {
                black_box(driver.tick(Some(&commands[i % n])).position_mm);
            })
        }),
        "ns",
    );

    let mut out = vec![0.0; model.dof()];
    let mut hit = engine(probe, 0);
    f.put(
        "core.engine_hit_ns",
        tr.span("core.engine", || {
            per_call_ns(n, |i| {
                hit.tick_into(Some(&commands[i % n]), &mut out);
            })
        }),
        "ns",
    );
    // Misses in bursts of two after a delivery: inside the forecast
    // horizon, so every miss is a fresh forecast.
    for (fam, (name, _)) in probe.families.iter().enumerate() {
        let mut eng = engine(probe, fam);
        for c in commands.iter().take(16) {
            eng.tick_into(Some(c), &mut out);
        }
        let mut wall = Duration::ZERO;
        let rounds = n / 2;
        tr.enter("core.engine");
        for i in 0..rounds {
            eng.tick_into(Some(&commands[(16 + i) % n]), &mut out);
            let t0 = Instant::now();
            eng.tick_into(None, &mut out);
            eng.tick_into(None, &mut out);
            wall += t0.elapsed();
        }
        tr.exit();
        f.put(
            &format!("core.engine_miss_ns.{name}"),
            wall.as_nanos() as f64 / (2 * rounds) as f64,
            "ns",
        );
    }
    let fates_n = 4096;
    f.put(
        "core.fates_ns.controlled",
        tr.span("core.fates", || {
            let mut ch = ControlledLossChannel::new(BURST_LEN, BURST_PROB, derive(seed, "probe"));
            let t0 = Instant::now();
            black_box(ch.fates(fates_n));
            t0.elapsed().as_nanos() as f64 / fates_n as f64
        }),
        "ns",
    );
    f.put(
        "wifi.link_solve_us",
        tr.span("wifi.link_solve", || {
            let k = 4;
            let t0 = Instant::now();
            for i in 0..k {
                black_box(WirelessLink::new(
                    inputs::jammed_link(),
                    derive(seed, "link") + i,
                ));
            }
            t0.elapsed().as_secs_f64() * 1e6 / k as f64
        }),
        "us",
    );
    f.put(
        "wifi.fates_ns",
        tr.span("wifi.fates", || {
            let mut ch = JammedChannel::new(inputs::jammed_link(), 0.0, derive(seed, "probe"));
            let t0 = Instant::now();
            black_box(ch.fates(fates_n));
            t0.elapsed().as_nanos() as f64 / fates_n as f64
        }),
        "ns",
    );

    // Forecast kernels on LANE windows taken at spread trace positions.
    for (fam, (name, forecaster)) in probe.families.iter().enumerate() {
        let mut engines: Vec<RecoveryEngine> = (0..LANE).map(|_| engine(probe, fam)).collect();
        for (k, eng) in engines.iter_mut().enumerate() {
            let at = k * n / LANE;
            for c in commands.iter().skip(at).take(16) {
                eng.tick_into(Some(c), &mut out);
            }
        }
        let rounds = 64;
        let mut scratch = ForecastScratch::new();
        let shared = forecaster.shared();
        let scalar = tr.span("forecast.kernel", || {
            per_call_ns(rounds, |_| {
                for eng in &engines {
                    shared.forecast_into(&eng.history_view(), &mut scratch, &mut out);
                    black_box(&out);
                }
            }) / LANE as f64
        });
        f.put(&format!("forecast.{name}_ns"), scalar, "ns");
        let layout = plan_layout(shared.cost_class(), LANE);
        let mut lane = BatchLane::new(Arc::clone(&shared));
        let laned = tr.span("forecast.lane", || {
            per_call_ns(rounds, |_| {
                lane.clear();
                for eng in &engines {
                    lane.push_window(&eng.history_view());
                }
                lane.run_layout(layout, &mut scratch);
                black_box(lane.result(0));
            }) / LANE as f64
        });
        f.put(&format!("forecast.lane_ns_per_member.{name}"), laned, "ns");
    }
}

/// Session, shard, snapshot, archive and store probes on the fleet.
fn serve_probes(probe: &Probe, tr: &mut Tracer, f: &mut Figures) -> Vec<SessionReport> {
    let model = &probe.models.model;
    // Session::open and Session::advance, standalone.
    let (mut open_wall, mut adv_wall, mut ticks) = (Duration::ZERO, Duration::ZERO, 0u64);
    let mut reports = Vec::new();
    for spec in &probe.fleet {
        let t0 = Instant::now();
        let mut session = tr.span("serve.open", || Session::open(spec, model));
        open_wall += t0.elapsed();
        let t0 = Instant::now();
        tr.enter("serve.advance");
        let report = loop {
            if let foreco_serve::Advance::Completed(r) = session.advance() {
                break *r;
            }
        };
        tr.exit();
        adv_wall += t0.elapsed();
        ticks += report.ticks;
        reports.push(report);
    }
    let sessions = probe.fleet.len() as f64;
    f.put(
        "serve.open_us",
        open_wall.as_secs_f64() * 1e6 / sessions,
        "us",
    );
    f.put(
        "serve.advance_ns",
        adv_wall.as_nanos() as f64 / ticks as f64,
        "ns",
    );
    let forecasts: u64 = reports
        .iter()
        .filter_map(|r| r.stats.as_ref())
        .map(|s| s.forecasts)
        .sum();
    let misses: u64 = reports.iter().map(|r| r.misses as u64).sum();
    f.put(
        "core.forecast_cover",
        forecasts as f64 / misses.max(1) as f64,
        "ratio",
    );

    // The same fleet as closed 1-shard batches (untraced: the figure
    // the shard residual is taken against).
    let mut rates = Vec::new();
    let (mut wakeups, mut passes, mut served) = (0u64, 0u64, 0u64);
    for _ in 0..3 {
        let t0 = Instant::now();
        let registry =
            Service::spawn(ServiceConfig::with_shards(1)).run_to_completion(probe.fleet.clone());
        let wall = t0.elapsed().as_secs_f64();
        let batch_ticks: u64 = registry.reports().map(|r| r.ticks).sum();
        rates.push(batch_ticks as f64 / wall);
        for load in registry.shard_loads() {
            wakeups += load.wakeups;
            passes += load.passes;
        }
        served += batch_ticks;
    }
    rates.sort_by(f64::total_cmp);
    f.put("_batch_ticks_per_s", quantile(&rates, 0.5), "1/s");
    f.put(
        "serve.wakeups_per_pass",
        wakeups as f64 / passes.max(1) as f64,
        "count",
    );
    // Ticks a shard served without advancing the session (parked,
    // replayed by catch-up) as a share of all ticks served.
    f.put(
        "serve.parked_fraction",
        served.saturating_sub(wakeups) as f64 / served.max(1) as f64,
        "fraction",
    );

    // Snapshot and archive codecs on mid-trace donors.
    let mid = (probe.trace.len() / 2) as u64;
    let donors: Vec<Session> = probe
        .fleet
        .iter()
        .map(|spec| {
            let mut s = Session::open(spec, model);
            while s.tick() < mid {
                s.advance();
            }
            s
        })
        .collect();
    let snaps: Vec<SessionSnapshot> = donors
        .iter()
        .map(|s| s.snapshot().expect("snapshot"))
        .collect();
    let frames: Vec<Vec<u8>> = snaps.iter().map(|s| s.to_bytes()).collect();
    let k = snaps.len();
    let mut buf = Vec::new();
    f.put(
        "serve.snapshot_encode_ns",
        tr.span("serve.snapshot_encode", || {
            per_call_ns(k, |i| {
                buf.clear();
                snaps[i].encode_into(&mut buf);
                black_box(&buf);
            })
        }),
        "ns",
    );
    f.put(
        "serve.snapshot_decode_ns",
        tr.span("serve.snapshot_decode", || {
            per_call_ns(k, |i| {
                black_box(SessionSnapshot::from_bytes(&frames[i]).expect("decodes"));
            })
        }),
        "ns",
    );
    let parts = donors
        .iter()
        .map(|s| s.snapshot_for_fleet().expect("fleet part"))
        .collect();
    let archive = FleetArchive::build(parts);
    let bytes = archive.to_bytes();
    f.put(
        "serve.archive_encode_ns_per_part",
        tr.span("serve.archive_encode", || {
            per_call_ns(8, |_| {
                black_box(archive.to_bytes());
            })
        }) / k as f64,
        "ns",
    );
    f.put(
        "serve.archive_decode_ns_per_part",
        tr.span("serve.archive_decode", || {
            per_call_ns(8, |_| {
                let a = FleetArchive::from_bytes(&bytes).expect("archive decodes");
                black_box(a.sessions().expect("parts decode"));
            })
        }) / k as f64,
        "ns",
    );
    let store = Storage::new();
    let claim = store.insert_trace(&probe.trace);
    f.put(
        "serve.restore_us",
        tr.span("serve.restore", || {
            per_call_ns(k, |i| {
                let s = Session::restore_stored(&snaps[i], model, claim.clone()).expect("restores");
                black_box(s.tick());
            })
        }) / 1e3,
        "us",
    );
    f.put(
        "store.insert_trace_us",
        tr.span("store.insert_trace", || {
            per_call_ns(4, |_| {
                let fresh = Storage::new();
                black_box(fresh.insert_trace(&probe.trace));
            })
        }) / 1e3,
        "us",
    );
    f.put(
        "store.claim_ns",
        tr.span("store.claim", || {
            per_call_ns(4096, |_| {
                black_box(claim.clone());
            })
        }),
        "ns",
    );
    reports
}

/// A few checkpoint cycles of the probe fleet, as the checkpoint
/// workload runs them, and the cycle's residual against the codec and
/// restore figures.
fn checkpoint_probe(probe: &Probe, f: &mut Figures) {
    let n = probe.fleet.len() as u64;
    let primary = Service::spawn(workloads::checkpoint_config(n));
    for spec in &probe.fleet {
        primary.handle().open(spec.clone()).expect("open");
    }
    wait_events(&primary, n as usize, |e| {
        matches!(e, SessionEvent::Opened { .. }).then_some(true)
    });
    let ids: Vec<u64> = probe.fleet.iter().map(|s| s.id).collect();
    let (mut snap, mut restore, mut cycle, mut per) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..CHECKPOINT_CYCLES {
        let t0 = Instant::now();
        let report = primary
            .handle()
            .snapshot_fleet(&ids)
            .expect("snapshot fleet");
        let bytes = report.archive.to_bytes();
        let t1 = Instant::now();
        let archive = FleetArchive::from_bytes(&bytes).expect("decodes");
        let standby = Service::spawn(workloads::standby_config(n));
        let store = Storage::new();
        let sent = standby
            .handle()
            .adopt_fleet(archive, &store)
            .expect("adopt");
        // Restored sessions start running at once in the unpaced
        // standby; count completions that overtake the last restore.
        let mut completed = 0;
        let restored = wait_events(&standby, sent, |e| match e {
            SessionEvent::Restored { .. } => Some(true),
            SessionEvent::RestoreFailed { .. } => Some(false),
            SessionEvent::Completed { .. } => {
                completed += 1;
                None
            }
            _ => None,
        });
        let t2 = Instant::now();
        wait_events(&standby, restored - completed, |e| {
            matches!(e, SessionEvent::Completed { .. }).then_some(true)
        });
        standby.join();
        snap.push(sent as f64 / (t1 - t0).as_secs_f64());
        restore.push(sent as f64 / (t2 - t1).as_secs_f64());
        cycle.push((t2 - t0).as_secs_f64() * 1e6 / sent as f64);
        per.push(bytes.len() as f64 / sent as f64);
    }
    // Scripted real-time sessions would run out at 50 Hz on a graceful
    // join; the detached shard ends with the process.
    drop(primary);
    for v in [&mut snap, &mut restore, &mut cycle, &mut per] {
        v.sort_by(f64::total_cmp);
    }
    f.put("serve.snapshot_sessions_per_s", quantile(&snap, 0.5), "1/s");
    f.put(
        "serve.restore_sessions_per_s",
        quantile(&restore, 0.5),
        "1/s",
    );
    f.put("serve.archive_bytes_per_session", quantile(&per, 0.5), "B");
    let parts_us = (f.get("serve.snapshot_encode_ns")
        + f.get("serve.archive_encode_ns_per_part")
        + f.get("serve.archive_decode_ns_per_part"))
        / 1e3
        + f.get("serve.restore_us");
    f.put(
        "serve.checkpoint_residual_us",
        quantile(&cycle, 0.5) - parts_us,
        "us",
    );
}

/// Wire, ingress, socket and control-plane probes against a twin
/// gateway, on the workload's trace with seeded impairments.
fn net_probes(probe: &Probe, seed: u64, tr: &mut Tracer, f: &mut Figures) {
    let model = &probe.models.model;
    let trace = &probe.trace;
    let n = trace.len();
    let mut buf = [0u8; MAX_FRAME];
    f.put(
        "net.wire_encode_ns",
        tr.span("net.wire_encode", || {
            per_call_ns(n, |i| {
                black_box(
                    wire::encode_command(&mut buf, 1, i as u64, i as u64, &trace[i % n])
                        .expect("encodes"),
                );
            })
        }),
        "ns",
    );
    let frames: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let len =
                wire::encode_command(&mut buf, 1, i as u64, i as u64, &trace[i]).expect("encodes");
            buf[..len].to_vec()
        })
        .collect();
    f.put(
        "net.wire_decode_ns",
        tr.span("net.wire_decode", || {
            per_call_ns(n, |i| {
                black_box(wire::decode(&frames[i % n]).expect("decodes").seq);
            })
        }),
        "ns",
    );

    let gateway = Gateway::spawn(ServiceConfig::with_shards(1), gateway_config(&probe.models))
        .expect("spawn gateway");
    // Loopback ingress over one impaired operator sequence: wire losses,
    // deferred (late) frames, adjacent swaps (reordered) and resends
    // (duplicates), all seeded.
    let mut rng = Rng::new(derive(seed, "probe-impairments"));
    let fates = operator_fates(&mut rng, n as u64);
    let mut order: Vec<u64> = Vec::new();
    let mut deferred: Vec<(usize, u64)> = Vec::new();
    for (k, fate) in fates.iter().enumerate() {
        deferred.retain(|&(at, seq)| {
            if at <= k {
                order.push(seq);
                false
            } else {
                true
            }
        });
        match fate {
            Fate::Send => order.push(k as u64),
            Fate::Defer => deferred.push((k + 5, k as u64)),
            Fate::Lose => {}
        }
    }
    order.extend(deferred.iter().map(|&(_, s)| s));
    for i in (10..order.len().saturating_sub(10)).step_by(97) {
        order.swap(i, i + 1);
        let dup = order[i];
        order.insert(i + 3, dup);
    }
    let (mut data, mut control) = gateway.loopback();
    let id = 1000;
    open_gated(&mut control, id, model.clamp(&trace[0]), n + 64);
    let payloads: Vec<Vec<u8>> = order
        .iter()
        .map(|&seq| {
            let len = wire::encode_command(&mut buf, id, seq, seq, &trace[seq as usize])
                .expect("encodes");
            buf[..len].to_vec()
        })
        .collect();
    let loopback_ns = tr.span("net.ingress_loopback", || {
        per_call_ns(payloads.len(), |i| {
            data.send(&payloads[i]).expect("loopback send");
        })
    });
    let mut ack = [0u8; MAX_FRAME];
    while data.recv(&mut ack).expect("loopback recv").is_some() {}
    let (_, counts) = close_gated(&mut control, id).expect("loopback close");
    f.put("net.ingress_loopback_ns", loopback_ns, "ns");
    f.put("net.ingress_lost", counts.lost as f64, "count");
    f.put("net.ingress_late", counts.late as f64, "count");
    f.put("net.ingress_reordered", counts.reordered as f64, "count");
    f.put("net.ingress_duplicates", counts.duplicates as f64, "count");

    // Real sockets: one operator's datagrams one at a time, each waiting
    // for its ack; the residual is the round trip beyond the ingress
    // code the loopback figure already covers.
    let mut tcp = TcpControl::connect(gateway.tcp_addr()).expect("control connection");
    let id = 5000;
    let t0 = Instant::now();
    open_gated(&mut tcp, id, model.clamp(&trace[0]), n + 64);
    let open_rtt = t0.elapsed().as_secs_f64() * 1e6;
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
    socket.connect(gateway.udp_addr()).expect("connect");
    socket
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    let mut rtts = Vec::new();
    let mut ack = [0u8; MAX_FRAME];
    tr.enter("net.udp_roundtrip");
    for seq in 0..n.min(400) as u64 {
        let len =
            wire::encode_command(&mut buf, id, seq, seq, &trace[seq as usize]).expect("encodes");
        let t0 = Instant::now();
        socket.send(&buf[..len]).expect("send");
        loop {
            let got = socket.recv(&mut ack).expect("ack within 200 ms");
            if wire::decode(&ack[..got]).is_ok_and(|fr| fr.session == id && fr.seq > seq) {
                break;
            }
        }
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    tr.exit();
    rtts.sort_by(f64::total_cmp);
    f.put(
        "net.udp_residual_us",
        quantile(&rtts, 0.5) - loopback_ns / 1e3,
        "us",
    );
    let mut control_us = vec![open_rtt];
    for _ in 0..4 {
        let t0 = Instant::now();
        tr.enter("net.control_rtt");
        match tcp.request(&ControlRequest::Stats { id }) {
            Ok(ControlResponse::Stats { .. }) => {}
            other => panic!("stats: {other:?}"),
        }
        tr.exit();
        control_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    control_us.sort_by(f64::total_cmp);
    f.put("net.control_rtt_us", quantile(&control_us, 0.5), "us");
    let mut scrape_us = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        tr.enter("net.scrape");
        match tcp.request(&ControlRequest::Metrics) {
            Ok(ControlResponse::Metrics { body }) => {
                black_box(body);
            }
            other => panic!("scrape: {other:?}"),
        }
        tr.exit();
        scrape_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    scrape_us.sort_by(f64::total_cmp);
    f.put("net.scrape_us", quantile(&scrape_us, 0.5), "us");
    gateway.shutdown();
}

/// Adds the reconciliation figures of one pass: the session tick from
/// its layers, and the closed-batch tick from the session tick. Names
/// starting with `_` are the printed terms, not metrics.
fn reconcile(probe: &Probe, reports: &[SessionReport], f: &mut Figures) {
    let ticks: u64 = reports.iter().map(|r| r.ticks).sum();
    let misses: u64 = reports.iter().map(|r| r.misses as u64).sum();
    let miss_share = misses as f64 / ticks as f64;
    let mut miss_ns = 0.0;
    for (i, (name, _)) in probe.families.iter().enumerate() {
        let share =
            probe.family.iter().filter(|&&fam| fam == i).count() as f64 / probe.family.len() as f64;
        miss_ns += share * f.get(&format!("core.engine_miss_ns.{name}"));
    }
    let engine_mix = (1.0 - miss_share) * f.get("core.engine_hit_ns") + miss_share * miss_ns;
    let advance = f.get("serve.advance_ns");
    let session_residual = advance - 2.0 * f.get("robot.driver_tick_ns") - engine_mix;
    let per_tick = 1e9 / f.get("_batch_ticks_per_s");
    let open_share = f.get("serve.open_us") * 1e3 * probe.fleet.len() as f64 / ticks as f64;
    f.put("_miss_share", miss_share, "fraction");
    f.put("_engine_miss_ns", miss_ns, "ns");
    f.put("_engine_mix_ns", engine_mix, "ns");
    f.put("_batch_tick_ns", per_tick, "ns");
    f.put("_open_share_ns", open_share, "ns");
    f.put("serve.session_residual_ns", session_residual, "ns");
    f.put(
        "serve.shard_residual_ns",
        per_tick - advance - open_share,
        "ns",
    );
}

/// The traced run of `workload`.
pub fn run(workload: &str, seed: u64, seconds: f64, scale: &Scale) -> Outcome {
    let probe = probe_inputs(workload, seed, scale);
    let mut outcome = Outcome::default();
    // Passes until the run length is used; each figure is the median
    // over passes. Every pass measures all layers untraced, and the
    // shadow tick loop both untraced and under spans, so residuals and
    // the tracing overhead come from paired measurements.
    let mut off = Tracer::new(1, 0);
    let mut tr = Tracer::new(4, 1 << 20);
    let mut passes: Vec<Figures> = Vec::new();
    let mut reports = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut pass = Figures::default();
        let untraced = shadow_ticks(&probe, seed, &mut off);
        let traced = shadow_ticks(&probe, seed, &mut tr);
        pass.put("_untraced_tick_ns", untraced, "ns");
        pass.put("_traced_tick_ns", traced, "ns");
        pass.put("trace.overhead_ns_per_tick", traced - untraced, "ns");
        kernel_probes(&probe, seed, &mut off, &mut pass);
        reports = serve_probes(&probe, &mut off, &mut pass);
        checkpoint_probe(&probe, &mut pass);
        net_probes(&probe, seed, &mut off, &mut pass);
        reconcile(&probe, &reports, &mut pass);
        passes.push(pass);
    }
    let mut figures = Figures::default();
    for (name, _, unit) in &passes[0].0 {
        let mut values: Vec<f64> = passes.iter().map(|p| p.get(name)).collect();
        values.sort_by(f64::total_cmp);
        figures.put(name, quantile(&values, 0.5), unit);
    }
    // The other probes once more under spans, for the self-time table.
    let mut scrap = Figures::default();
    kernel_probes(&probe, seed, &mut tr, &mut scrap);
    serve_probes(&probe, &mut tr, &mut scrap);
    net_probes(&probe, seed, &mut tr, &mut scrap);

    let path = std::path::PathBuf::from(format!(".bench_trace/{workload}-seed{seed}.tsv"));
    let written = tr.write_tsv(&path);
    println!("traced run: {workload} seed {seed}");
    println!(
        "  {} passes; spans: {} recorded (per-tick roots sampled 1 in 4) -> {}",
        passes.len(),
        tr.recorded(),
        match &written {
            Ok(()) => path.display().to_string(),
            Err(e) => format!("not written: {e}"),
        }
    );
    println!("  per-layer self time (traced passes):");
    println!(
        "    {:<28} {:>9} {:>14} {:>14}",
        "span", "calls", "self ms", "self ns/call"
    );
    let mut by_layer: std::collections::BTreeMap<&str, u64> = Default::default();
    for (name, st) in tr.self_times() {
        println!(
            "    {:<28} {:>9} {:>14.3} {:>14.1}",
            name,
            st.calls,
            st.self_ns as f64 / 1e6,
            st.self_ns as f64 / st.calls as f64
        );
        *by_layer
            .entry(name.split('.').next().unwrap_or(name))
            .or_default() += st.self_ns;
    }
    for (layer, ns) in by_layer {
        println!("    layer {layer:<22} self {:>10.3} ms", ns as f64 / 1e6);
    }
    let g = |name: &str| figures.get(name);
    println!("  reconciliation (medians over passes; each residual is the median of per-pass residuals):");
    println!(
        "  reconcile 1: advance {:.1} ns = 2 x driver_tick {:.1} + engine mix {:.1} \
         (hit {:.1} x {:.4}, miss {:.1} x {:.4}) + session residual {:+.1} ns",
        g("serve.advance_ns"),
        g("robot.driver_tick_ns"),
        g("_engine_mix_ns"),
        g("core.engine_hit_ns"),
        1.0 - g("_miss_share"),
        g("_engine_miss_ns"),
        g("_miss_share"),
        g("serve.session_residual_ns")
    );
    println!(
        "  reconcile 2: 1e9/ticks_per_s {:.1} ns = advance {:.1} + open {:.1} \
         + shard residual {:+.1} ns  (closed 1-shard batch of {} sessions)",
        g("_batch_tick_ns"),
        g("serve.advance_ns"),
        g("_open_share_ns"),
        g("serve.shard_residual_ns"),
        probe.fleet.len()
    );
    println!(
        "  tracing overhead: shadow tick {:.1} ns traced vs {:.1} ns untraced \
         (median of per-pass differences {:+.1} ns/tick)",
        g("_traced_tick_ns"),
        g("_untraced_tick_ns"),
        g("trace.overhead_ns_per_tick")
    );
    outcome.attempted = reports.len() as u64;
    outcome.fail(
        "probe session never completed",
        probe.fleet.len().saturating_sub(reports.len()) as u64,
    );
    for (name, value, unit) in figures.0 {
        if !name.starts_with('_') {
            outcome.metric(&name, value, unit);
        }
    }
    outcome
}
