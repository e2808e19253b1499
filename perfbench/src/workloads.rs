//! The four untraced workloads. Each builds its inputs from the seed,
//! sets up several times (the median is `setup_s`), measures for the
//! requested wall time, then checks its outputs outside the timed
//! region.

use crate::inputs::{self, derive, Models, Rng, OMEGA};
use crate::{cpu_seconds, quantile, report_digest, Outcome, Scale};
use foreco_net::wire::{self, FrameKind, MAX_FRAME};
use foreco_net::{
    ControlRequest, ControlResponse, ControlWire, DataWire, Gateway, GatewayConfig, IngressConfig,
    TcpControl,
};
use foreco_serve::{
    Advance, EventWait, FleetArchive, Pacing, Service, ServiceConfig, Session, SessionEvent,
    SessionReport, SessionSpec, SourceState,
};
use foreco_store::Storage;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `build` `reps` times and returns the median wall time with the
/// last result; earlier results go to `teardown`, untimed.
fn timed_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (f64, T) {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(earlier) = last.take() {
            teardown(earlier);
        }
        let t0 = Instant::now();
        let built = build();
        walls.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    walls.sort_by(f64::total_cmp);
    (quantile(&walls, 0.5), last.expect("at least one set-up"))
}

/// Runs one scripted session standalone to its report.
pub fn run_out(mut session: Session) -> SessionReport {
    loop {
        if let Advance::Completed(report) = session.advance() {
            return *report;
        }
    }
}

/// Misses per tick over a set of reports.
fn miss_fraction(reports: &[SessionReport]) -> f64 {
    let ticks: u64 = reports.iter().map(|r| r.ticks).sum();
    let misses: u64 = reports.iter().map(|r| r.misses as u64).sum();
    misses as f64 / ticks.max(1) as f64
}

/// Emits the end-to-end metrics every workload shares (`peak_rss_mb`
/// is added by `main`) and prints the rest of the op-latency
/// distribution and the CPU cost beside them.
///
/// On a shared host, the speed of the same code swings by tens of
/// percent within and between runs, so the timing metrics read the
/// fast end of each run: `ticks_per_s` is the caller's 99th-percentile
/// rate and `op_p1_us` the 1st-percentile op latency.
fn report_e2e(
    outcome: &mut Outcome,
    setup_s: f64,
    ticks_per_s: f64,
    reports: &[SessionReport],
    slot_miss_fraction: f64,
    ops_us: &mut [f64],
    cpu_us_per_tick: f64,
) {
    let mut rmse: Vec<f64> = reports.iter().map(|r| r.rmse_mm).collect();
    rmse.sort_by(f64::total_cmp);
    ops_us.sort_by(f64::total_cmp);
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("ticks_per_s", ticks_per_s, "1/s");
    outcome.metric("rmse_p50_mm", quantile(&rmse, 0.5), "mm");
    outcome.metric(
        "rmse_mean_mm",
        rmse.iter().sum::<f64>() / rmse.len().max(1) as f64,
        "mm",
    );
    outcome.metric("slot_miss_fraction", slot_miss_fraction, "fraction");
    outcome.metric("op_p1_us", quantile(ops_us, 0.01), "us");
    outcome.note(format!(
        "op latency over {} ops: p1 {:.1} p50 {:.1} p90 {:.1} p99 {:.1} us; \
         rmse p90 {:.4} p99 {:.4} mm over {} sessions; cpu {:.3} us/tick",
        ops_us.len(),
        quantile(ops_us, 0.01),
        quantile(ops_us, 0.5),
        quantile(ops_us, 0.9),
        quantile(ops_us, 0.99),
        quantile(&rmse, 0.9),
        quantile(&rmse, 0.99),
        rmse.len(),
        cpu_us_per_tick
    ));
}

/// A closed-batch fleet: `sets` of specs, each run in turn through a
/// fresh 1-shard `Service::run_to_completion`.
pub struct ClosedFleet {
    pub models: Models,
    pub sets: Vec<Vec<SessionSpec>>,
    /// Keeps the stored trace and registered model resident.
    pub _store: Option<Storage>,
}

/// Each batch set replays its own recorded trace, so the fleet's RMSE
/// figures average over many operator recordings, not one.
pub fn replay_fleet(seed: u64, scale: &Scale) -> ClosedFleet {
    let models = Models::train(seed);
    let store = Storage::new();
    let forecaster = foreco_serve::SharedForecaster::register(models.var.clone(), &store)
        .expect("VAR exports its state");
    let sets = (0..scale.sets)
        .map(|s| {
            let trace = inputs::record_trace(seed, &format!("replay/{s}"), scale.trace_ticks);
            let claim = store.insert_trace(&trace);
            let ids = s * scale.batch..(s + 1) * scale.batch;
            inputs::replay_specs(seed, &models, &claim, &forecaster, ids)
        })
        .collect();
    ClosedFleet {
        models,
        sets,
        _store: Some(store),
    }
}

pub fn jammed_fleet(seed: u64, scale: &Scale) -> ClosedFleet {
    let models = Models::train(seed);
    let families = models.families();
    let sets = (0..scale.sets)
        .map(|s| {
            let tag = format!("jammed/{s}");
            let trace = Arc::new(inputs::record_trace(seed, &tag, scale.trace_ticks));
            let ids = s * scale.batch..(s + 1) * scale.batch;
            inputs::jammed_specs(seed, &models, &trace, &families, ids)
        })
        .collect();
    ClosedFleet {
        models,
        sets,
        _store: None,
    }
}

/// The closed-batch workloads (`replay_light_loss`,
/// `jammed_mixed_fleet`).
pub fn closed_batch(
    seed: u64,
    seconds: f64,
    scale: &Scale,
    build: fn(u64, &Scale) -> ClosedFleet,
    outcome: &mut Outcome,
) {
    let (setup_s, fleet) = timed_setup(scale.setups, || build(seed, scale), drop);
    let mut first: Vec<Option<Vec<SessionReport>>> = vec![None; fleet.sets.len()];
    let mut batch_walls = Vec::new();
    let mut rates = Vec::new();
    let (mut ticks_total, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < seconds || round < fleet.sets.len() {
        let set = round % fleet.sets.len();
        let specs = fleet.sets[set].clone();
        let expected = specs.len();
        let t0 = Instant::now();
        let registry = Service::spawn(ServiceConfig::with_shards(1)).run_to_completion(specs);
        let wall = t0.elapsed().as_secs_f64();
        let mut reports: Vec<SessionReport> = registry.reports().cloned().collect();
        reports.sort_by_key(|r| r.id);
        let ticks: u64 = reports.iter().map(|r| r.ticks).sum();
        attempted += expected as u64;
        failed += expected.saturating_sub(reports.len()) as u64;
        ticks_total += ticks;
        batch_walls.push(wall * 1e6);
        rates.push(ticks as f64 / wall);
        // Every rerun of a set must reproduce its first run bit for bit.
        match &first[set] {
            None => first[set] = Some(reports),
            Some(reference) => {
                let same = reference.len() == reports.len()
                    && reference
                        .iter()
                        .zip(&reports)
                        .all(|(a, b)| report_digest(a) == report_digest(b));
                if !same {
                    outcome.diverge(format!("set {set} rerun differs from its first run"));
                }
            }
        }
        round += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;

    // Correctness, untimed: sampled sessions rerun standalone must match
    // the service's reports bit for bit.
    let reports: Vec<SessionReport> = first.into_iter().flatten().flatten().collect();
    let specs: Vec<&SessionSpec> = fleet.sets.iter().flatten().collect();
    let mut rng = Rng::new(derive(seed, "sample"));
    for i in rng.sample(specs.len(), scale.samples) {
        let spec = specs[i];
        let standalone = run_out(Session::open(spec, &fleet.models.model));
        match reports.iter().find(|r| r.id == spec.id) {
            Some(served) => outcome.check_report(spec.id, &report_digest(served), &standalone),
            None => outcome.diverge(format!("session {} never reported", spec.id)),
        }
    }
    rates.sort_by(f64::total_cmp);
    outcome.attempted = attempted;
    outcome.fail("session never completed", failed);
    outcome.note(format!(
        "{round} closed batches of {} sessions in {wall:.2} s; op = one run_to_completion batch; \
         batch ticks/s min {:.0} p10 {:.0} p50 {:.0} p90 {:.0} max {:.0}",
        scale.batch,
        rates[0],
        quantile(&rates, 0.1),
        quantile(&rates, 0.5),
        quantile(&rates, 0.9),
        rates[rates.len() - 1]
    ));
    report_e2e(
        outcome,
        setup_s,
        quantile(&rates, 0.99),
        &reports,
        miss_fraction(&reports),
        &mut batch_walls,
        cpu * 1e6 / ticks_total as f64,
    );
    outcome.correct_reports = reports;
}

/// What the generator does with one operator slot.
#[derive(Clone, Copy, PartialEq)]
pub enum Fate {
    Send,
    /// Never sent: a wire loss the gateway flushes after its reorder
    /// window.
    Lose,
    /// Sent `LATE_DEPTH` slots late: flushed as lost first, then it
    /// rides the §VII-C late path.
    Defer,
}

/// Gateway reorder window (slots) and how late a deferred frame is.
const REORDER_WINDOW: u64 = 3;
const LATE_DEPTH: u64 = 5;

/// Seeded impairment fates for one operator: a fixed count of 2-slot
/// loss bursts (4% of slots) and deferred frames (2%), at random
/// positions away from both ends. Fixed counts keep the impairment
/// share identical across seeds; only the positions move.
pub fn operator_fates(rng: &mut Rng, slots: u64) -> Vec<Fate> {
    let mut fates = vec![Fate::Send; slots as usize];
    let margin = 8u64;
    if slots <= 4 * margin {
        return fates;
    }
    let span = (slots - 2 * margin) as usize;
    let bursts = (slots / 50).max(1) as usize;
    let lates = (slots / 50).max(1) as usize;
    // Positions on a 3-slot grid so a burst and a deferral never touch.
    let picks = rng.sample(span / 3, bursts + lates);
    let mut order: Vec<usize> = (0..picks.len()).collect();
    for i in 0..order.len() {
        let j = i + rng.below(order.len() - i);
        order.swap(i, j);
    }
    for (n, &slot) in order.iter().map(|&o| &picks[o]).enumerate() {
        let at = margin as usize + slot * 3;
        if n < bursts {
            fates[at] = Fate::Lose;
            fates[at + 1] = Fate::Lose;
        } else {
            fates[at] = Fate::Defer;
        }
    }
    fates
}

/// The gateway workload's set-up: a trained gateway with every session
/// attached over the one control connection, and the one data socket.
pub struct GatewayRig {
    pub models: Models,
    pub gateway: Gateway,
    pub control: TcpControl,
    pub socket: UdpSocket,
    /// One recorded trace per operator.
    pub traces: Vec<Vec<Vec<f64>>>,
}

pub fn gateway_config(models: &Models) -> GatewayConfig {
    let mut recovery = foreco_core::RecoveryConfig::for_model(&models.model);
    recovery.use_late_commands = true; // §VII-C: late frames patch history
    GatewayConfig {
        recovery: foreco_serve::RecoverySpec::FoReCo {
            forecaster: foreco_serve::SharedForecaster::new(models.var.clone()),
            config: recovery,
        },
        ingress: IngressConfig {
            reorder_window: REORDER_WINDOW,
            ..IngressConfig::default()
        },
        ..GatewayConfig::default()
    }
}

/// Operator `op`'s command for slot `k`.
pub fn operator_command(traces: &[Vec<Vec<f64>>], op: u64, k: u64) -> &[f64] {
    let trace = &traces[op as usize];
    &trace[k as usize % trace.len()]
}

/// Gated inbox bound of every gateway session.
pub const INBOX: usize = 64;

pub fn open_gated(
    control: &mut impl ControlWire,
    id: u64,
    initial: Vec<f64>,
    inbox_capacity: usize,
) {
    match control.request(&ControlRequest::Open {
        id,
        initial,
        inbox_capacity,
    }) {
        Ok(ControlResponse::Opened { .. }) => {}
        other => panic!("open {id}: {other:?}"),
    }
}

pub fn close_gated(
    control: &mut impl ControlWire,
    id: u64,
) -> Option<(SessionReport, foreco_serve::IngressSummary)> {
    match control.request(&ControlRequest::Close { id }) {
        Ok(ControlResponse::Closed {
            report, ingress, ..
        }) => Some((report, ingress)),
        _ => None,
    }
}

/// Slots each operator sends in a run of `seconds`.
pub fn gateway_slots(seconds: f64) -> u64 {
    ((seconds / OMEGA).round() as u64).max(40)
}

pub fn gateway_rig(seed: u64, seconds: f64, scale: &Scale) -> GatewayRig {
    let models = Models::train(seed);
    let slots = gateway_slots(seconds);
    let traces: Vec<Vec<Vec<f64>>> = (0..scale.operators)
        .map(|op| inputs::record_trace(seed, &format!("gateway/{op}"), slots as usize))
        .collect();
    let service = ServiceConfig {
        shards: 1,
        control_capacity: 4096,
        event_capacity: 8192,
        ..ServiceConfig::default()
    };
    let gateway = Gateway::spawn(service, gateway_config(&models)).expect("spawn gateway");
    // Operators attach over the one TCP control connection; the silent
    // fleet attaches through the gateway's in-process control plane
    // (the same control code, without a socket round trip each).
    let mut control = TcpControl::connect(gateway.tcp_addr()).expect("control connection");
    for id in 0..scale.operators {
        let initial = models.model.clamp(operator_command(&traces, id, 0));
        open_gated(&mut control, id, initial, INBOX);
    }
    let (_, mut local) = gateway.loopback();
    for id in scale.operators..scale.operators + scale.silent {
        open_gated(&mut local, id, models.model.home(), INBOX);
    }
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind data socket");
    socket
        .connect(gateway.udp_addr())
        .expect("connect data socket");
    GatewayRig {
        models,
        gateway,
        control,
        socket,
        traces,
    }
}

/// One scheduled datagram: when it is sent (offset from the start),
/// whose it is, and which slot it carries.
#[derive(Clone, Copy)]
pub struct Datagram {
    pub at: Duration,
    pub op: u64,
    pub seq: u64,
}

/// The open-loop schedule: operator `op` owns phase `op/ops` of every
/// 20 ms slot; a deferred frame goes out right after its operator's
/// frame `LATE_DEPTH` slots later.
pub fn schedule(fates: &[Vec<Fate>], slots: u64) -> (Vec<Datagram>, Vec<Vec<u64>>) {
    let ops = fates.len() as u64;
    let period = Duration::from_secs_f64(OMEGA);
    let due = |op: u64, k: u64| period * k as u32 + period * op as u32 / ops as u32;
    let mut sends = Vec::new();
    for (op, fates) in fates.iter().enumerate() {
        let op = op as u64;
        for (k, fate) in fates.iter().enumerate() {
            let k = k as u64;
            match fate {
                Fate::Send => sends.push(Datagram {
                    at: due(op, k),
                    op,
                    seq: k,
                }),
                Fate::Defer => sends.push(Datagram {
                    at: due(op, (k + LATE_DEPTH).min(slots - 1)) + Duration::from_micros(1),
                    op,
                    seq: k,
                }),
                Fate::Lose => {}
            }
        }
    }
    sends.sort_by_key(|s| (s.at, s.op, s.seq));
    let mut order = vec![Vec::new(); ops as usize];
    for s in &sends {
        order[s.op as usize].push(s.seq);
    }
    (sends, order)
}

/// The `gateway_50hz` workload: open loop over one UDP socket and one
/// TCP control connection.
pub fn gateway(seed: u64, seconds: f64, scale: &Scale, outcome: &mut Outcome) {
    let (setup_s, rig) = timed_setup(
        scale.live_setups,
        || gateway_rig(seed, seconds, scale),
        |rig| rig.gateway.shutdown(),
    );
    let GatewayRig {
        models,
        gateway,
        mut control,
        socket,
        traces,
    } = rig;
    let ops = scale.operators;
    let slots = gateway_slots(seconds);
    let mut rng = Rng::new(derive(seed, "impairments"));
    let fates: Vec<Vec<Fate>> = (0..ops).map(|_| operator_fates(&mut rng, slots)).collect();
    let (sends, order) = schedule(&fates, slots);
    let period = Duration::from_secs_f64(OMEGA);
    let due = |op: u64, k: u64| period * k as u32 + period * op as u32 / ops as u32;

    let stop = AtomicBool::new(false);
    let sending = AtomicBool::new(true);
    let receiver_socket = socket.try_clone().expect("clone data socket");
    receiver_socket
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("socket timeout");
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let (lags_us, ack_at, scrapes_us) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut buf = [0u8; MAX_FRAME];
            let mut lags = Vec::with_capacity(sends.len());
            for send in &sends {
                let target = start + send.at;
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                lags.push(
                    Instant::now()
                        .saturating_duration_since(target)
                        .as_secs_f64()
                        * 1e6,
                );
                let joints = operator_command(&traces, send.op, send.seq);
                let len = wire::encode_command(&mut buf, send.op, send.seq, send.seq, joints)
                    .expect("command frame encodes");
                socket.send(&buf[..len]).expect("datagram send");
            }
            sending.store(false, Ordering::SeqCst);
            lags
        });
        let receiver = s.spawn(|| {
            let mut buf = [0u8; MAX_FRAME];
            let mut acked_to = vec![0u64; ops as usize];
            let mut ack_at = vec![f64::NAN; (ops * slots) as usize];
            while !stop.load(Ordering::SeqCst) {
                let Ok(len) = receiver_socket.recv(&mut buf) else {
                    continue;
                };
                let at = start.elapsed().as_secs_f64();
                let Ok(frame) = wire::decode(&buf[..len]) else {
                    continue;
                };
                let op = frame.session;
                if frame.kind != FrameKind::Telemetry || op >= ops {
                    continue;
                }
                let mark = frame.seq.min(slots);
                while acked_to[op as usize] < mark {
                    ack_at[(op * slots + acked_to[op as usize]) as usize] = at;
                    acked_to[op as usize] += 1;
                }
            }
            ack_at
        });
        // One Prometheus scrape per second over the control connection.
        let mut scrapes = Vec::new();
        let mut next = start + Duration::from_secs(1);
        while sending.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
            if Instant::now() >= next {
                let t0 = Instant::now();
                match control.request(&ControlRequest::Metrics) {
                    Ok(ControlResponse::Metrics { .. }) => {
                        scrapes.push(t0.elapsed().as_secs_f64() * 1e6)
                    }
                    other => panic!("scrape: {other:?}"),
                }
                next += Duration::from_secs(1);
            }
        }
        let lags = sender.join().expect("sender thread");
        // Grace for the final acks (the last slot is due at the end).
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::SeqCst);
        let ack_at = receiver.join().expect("receiver thread");
        (lags, ack_at, scrapes)
    });
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;

    let mut rtt_us = Vec::new();
    let (mut missed, mut unacked) = (0u64, 0u64);
    for op in 0..ops {
        for k in 0..slots {
            let at = ack_at[(op * slots + k) as usize];
            let due_s = due(op, k).as_secs_f64();
            if at.is_nan() || at - due_s > OMEGA {
                missed += 1;
            }
            if fates[op as usize][k as usize] == Fate::Send {
                if at.is_nan() {
                    unacked += 1;
                } else {
                    rtt_us.push((at - due_s) * 1e6);
                }
            }
        }
    }

    let mut reports = Vec::new();
    let (mut bounced, mut unclosed) = (0u64, 0u64);
    for op in 0..ops {
        match close_gated(&mut control, op) {
            Some((report, ingress)) => {
                bounced += ingress.bounced;
                reports.push(report);
            }
            None => unclosed += 1,
        }
    }
    // Correctness: one sampled operator's exact frame order, replayed
    // through the in-process twin of the same gateway, must reproduce
    // its close report bit for bit.
    let probe = Rng::new(derive(seed, "sample")).below(ops as usize) as u64;
    if let Some(served) = reports.iter().find(|r| r.id == probe) {
        let twin_id = ops + scale.silent + probe;
        let (mut data, mut twin) = gateway.loopback();
        // The twin receives the whole sequence at once, so its inbox
        // holds every slot; the served session must not have dropped any.
        if served.overflow_drops != 0 {
            outcome.diverge(format!("operator {probe} overflowed its inbox"));
        }
        open_gated(
            &mut twin,
            twin_id,
            models.model.clamp(operator_command(&traces, probe, 0)),
            slots as usize + INBOX,
        );
        let mut buf = [0u8; MAX_FRAME];
        for &seq in &order[probe as usize] {
            let joints = operator_command(&traces, probe, seq);
            let len = wire::encode_command(&mut buf, twin_id, seq, seq, joints)
                .expect("command frame encodes");
            data.send(&buf[..len]).expect("loopback send");
        }
        match close_gated(&mut twin, twin_id) {
            Some((report, _)) => {
                let mut served = served.clone();
                served.id = twin_id;
                outcome.check_report(probe, &report_digest(&served), &report)
            }
            None => outcome.diverge("loopback twin never closed".to_string()),
        }
    } else {
        outcome.diverge(format!("operator {probe} never closed"));
    }
    gateway.shutdown();

    let mut lags = lags_us;
    lags.sort_by(f64::total_cmp);
    let mut scrapes = scrapes_us;
    scrapes.sort_by(f64::total_cmp);
    let ticks: u64 = reports.iter().map(|r| r.ticks).sum();
    outcome.attempted = sends.len() as u64 + ops;
    outcome.fail("datagram sent but never acked", unacked);
    outcome.fail("ingress backpressure bounce", bounced);
    outcome.fail("operator close failed", unclosed);
    outcome.note(format!(
        "{ops} operators x {slots} slots at 50 Hz ({} datagrams sent, {} silent sessions); \
         op = datagram due -> ack; generator lag p50 {:.1} us p99 {:.1} us; \
         {} scrapes, median {:.1} us",
        sends.len(),
        scale.silent,
        quantile(&lags, 0.5),
        quantile(&lags, 0.99),
        scrapes.len(),
        quantile(&scrapes, 0.5)
    ));
    report_e2e(
        outcome,
        setup_s,
        ticks as f64 / wall,
        &reports,
        missed as f64 / (ops * slots) as f64,
        &mut rtt_us,
        cpu * 1e6 / ticks.max(1) as f64,
    );
    outcome.correct_reports = reports;
}

/// The checkpoint workload's set-up: a real-time service with the whole
/// fleet open on one stored trace.
pub struct CheckpointRig {
    pub models: Models,
    pub specs: Vec<SessionSpec>,
    pub service: Service,
    pub _store: Storage,
}

pub fn checkpoint_config(sessions: u64) -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        pacing: Pacing::RealTime,
        control_capacity: sessions as usize + 1024,
        event_capacity: sessions as usize * 4 + 1024,
        ..ServiceConfig::default()
    }
}

/// The standby a checkpoint is restored into: unpaced, so its restored
/// sessions run out quickly once the timed restore is over.
pub fn standby_config(sessions: u64) -> ServiceConfig {
    ServiceConfig {
        pacing: Pacing::Unpaced,
        ..checkpoint_config(sessions)
    }
}

/// Distinct stored traces in the checkpoint fleet.
const CKPT_TRACES: u64 = 16;

pub fn checkpoint_rig(seed: u64, scale: &Scale, ticks: usize) -> CheckpointRig {
    let models = Models::train(seed);
    // Several operator recordings, each stored once and shared by a
    // slice of the fleet: the archive's trace table dedups each.
    let store = Storage::new();
    let forecaster = foreco_serve::SharedForecaster::register(models.var.clone(), &store)
        .expect("VAR exports its state");
    let per_trace = scale.ckpt_sessions.div_ceil(CKPT_TRACES);
    let specs: Vec<SessionSpec> = (0..CKPT_TRACES)
        .flat_map(|t| {
            let trace = inputs::record_trace(seed, &format!("checkpoint/{t}"), ticks);
            let claim = store.insert_trace(&trace);
            let first = t * per_trace;
            let ids = first..(first + per_trace).min(scale.ckpt_sessions);
            inputs::replay_specs(seed, &models, &claim, &forecaster, ids)
        })
        .collect();
    let service = Service::spawn(checkpoint_config(scale.ckpt_sessions));
    let handle = service.handle();
    for spec in &specs {
        handle.open(spec.clone()).expect("open session");
    }
    wait_events(&service, specs.len(), |e| {
        matches!(e, SessionEvent::Opened { .. }).then_some(true)
    });
    CheckpointRig {
        models,
        specs,
        service,
        _store: store,
    }
}

/// Drains events until `want` of them matched; returns how many matched
/// with `true` (successes) — the rest matched with `false`.
pub fn wait_events(
    service: &Service,
    want: usize,
    mut classify: impl FnMut(&SessionEvent) -> Option<bool>,
) -> usize {
    let (mut seen, mut ok) = (0, 0);
    let deadline = Instant::now() + Duration::from_secs(60);
    while seen < want {
        match service.next_event_timeout(Duration::from_millis(100)) {
            EventWait::Event(event) => {
                if let Some(success) = classify(&event) {
                    seen += 1;
                    ok += success as usize;
                }
            }
            EventWait::TimedOut => assert!(
                Instant::now() < deadline,
                "service stalled: {seen} of {want} awaited events in 60 s"
            ),
            EventWait::Disconnected => panic!("service died"),
        }
    }
    ok
}

pub fn total_ticks(archive: &FleetArchive) -> u64 {
    archive
        .sessions()
        .expect("archive parts decode")
        .iter()
        .map(|s| s.tick)
        .sum()
}

/// Restores every part of an archive standalone and runs it out.
pub fn run_out_archive(
    archive: &FleetArchive,
    models: &Models,
) -> Vec<(foreco_serve::SessionSnapshot, SessionReport)> {
    let store = Storage::new();
    let claims: Vec<_> = archive
        .traces()
        .iter()
        .map(|entry| store.insert_trace(&entry.commands))
        .collect();
    archive
        .sessions()
        .expect("archive parts decode")
        .into_iter()
        .map(|snap| {
            let SourceState::ScriptedRef { trace, .. } = &snap.source else {
                panic!("checkpoint parts reference a stored trace");
            };
            let claim = claims
                .iter()
                .find(|c| c.id() == *trace)
                .expect("archive carries the part's trace")
                .clone();
            let session = Session::restore_stored(&snap, &models.model, claim)
                .expect("archived part restores");
            let report = run_out(session);
            (snap, report)
        })
        .collect()
}

/// The `checkpoint_roundtrip` workload.
pub fn checkpoint(seed: u64, seconds: f64, scale: &Scale, outcome: &mut Outcome) {
    // The primary fleet must outlive the run at 50 Hz.
    let ticks = ((seconds + 6.0) / OMEGA) as usize;
    let (setup_s, rig) = timed_setup(
        scale.live_setups,
        || checkpoint_rig(seed, scale, ticks),
        // A real-time service winds down only by running its scripted
        // sessions out at 50 Hz: dropping it detaches the shard, which
        // finishes in the background (or ends with the process).
        drop,
    );
    let CheckpointRig {
        models,
        specs,
        service,
        _store,
    } = rig;
    let ids: Vec<u64> = specs.iter().map(|s| s.id).collect();
    let n = ids.len();
    let (mut snap_rates, mut restore_rates, mut cycle_us, mut bytes_per) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut missing, mut failed_parts, mut restore_failed) = (0u64, 0u64, 0u64);
    let mut first: Option<(Instant, Vec<u8>)> = None;
    let mut last: Option<(Instant, Vec<u8>)> = None;
    let mut standby_reports: Vec<SessionReport> = Vec::new();
    let (mut cycles, mut standby_ticks) = (0u64, 0u64);
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || cycles < 2 {
        let t0 = Instant::now();
        let report = service
            .handle()
            .snapshot_fleet(&ids)
            .expect("snapshot fleet");
        let bytes = report.archive.to_bytes();
        let t1 = Instant::now();
        missing += report.missing.len() as u64;
        failed_parts += report.failed.len() as u64;
        let parts = report.archive.len();
        let archive = FleetArchive::from_bytes(&bytes).expect("archive decodes");
        let standby = Service::spawn(standby_config(n as u64));
        let store = Storage::new();
        let sent = standby
            .handle()
            .adopt_fleet(archive, &store)
            .expect("adopt fleet");
        // The unpaced standby starts running restored sessions at once,
        // so early ones may complete before the last restore lands.
        standby_reports.clear();
        let restored = wait_events(&standby, sent, |e| match e {
            SessionEvent::Restored { .. } => Some(true),
            SessionEvent::RestoreFailed { .. } => Some(false),
            SessionEvent::Completed { report, .. } => {
                standby_reports.push(report.clone());
                None
            }
            _ => None,
        });
        let t2 = Instant::now();
        restore_failed += (sent - restored) as u64;
        snap_rates.push(parts as f64 / (t1 - t0).as_secs_f64());
        restore_rates.push(sent as f64 / (t2 - t1).as_secs_f64());
        cycle_us.push((t2 - t0).as_secs_f64() * 1e6);
        bytes_per.push(bytes.len() as f64 / parts.max(1) as f64);
        // Untimed: the unpaced standby runs its restored copy of the
        // fleet out and retires; its reports feed the RMSE figures.
        wait_events(&standby, restored - standby_reports.len(), |e| match e {
            SessionEvent::Completed { report, .. } => {
                standby_reports.push(report.clone());
                Some(true)
            }
            _ => None,
        });
        standby.join();
        let resumed_at = total_ticks(&FleetArchive::from_bytes(&bytes).expect("archive decodes"));
        standby_ticks += standby_reports.iter().map(|r| r.ticks).sum::<u64>() - resumed_at;
        if first.is_none() {
            first = Some((t0, bytes.clone()));
        }
        last = Some((t0, bytes));
        cycles += 1;
    }
    let cpu = cpu_seconds() - cpu0;
    // The primary's scripted sessions would run out at 50 Hz on a
    // graceful join; dropping the service detaches its shard, which ends
    // with the process.
    drop(service);

    let (t_first, first_bytes) = first.expect("at least one cycle");
    let (t_last, last_bytes) = last.expect("at least one cycle");
    let first_archive = FleetArchive::from_bytes(&first_bytes).expect("archive decodes");
    let last_archive = FleetArchive::from_bytes(&last_bytes).expect("archive decodes");
    let advanced = total_ticks(&last_archive).saturating_sub(total_ticks(&first_archive));
    let span = (t_last - t_first).as_secs_f64();

    // Correctness, untimed: a sample of the last archive's parts is
    // restored standalone with `restore_stored` and run out; each must
    // match both a fresh donor advanced to the part's tick and the
    // standby service's report for the same session.
    let run = run_out_archive(&last_archive, &models);
    let mut rng = Rng::new(derive(seed, "sample"));
    for i in rng.sample(run.len(), scale.samples) {
        let (snap, restored) = &run[i];
        let Some(spec) = specs.iter().find(|s| s.id == snap.id) else {
            outcome.diverge(format!("archived part {} has no spec", snap.id));
            continue;
        };
        let mut donor = Session::open(spec, &models.model);
        while donor.tick() < snap.tick {
            donor.advance();
        }
        outcome.check_report(snap.id, &report_digest(restored), &run_out(donor));
        match standby_reports.iter().find(|r| r.id == snap.id) {
            Some(served) => outcome.check_report(snap.id, &report_digest(served), restored),
            None => outcome.diverge(format!("standby never reported session {}", snap.id)),
        }
    }
    standby_reports.sort_by_key(|r| r.id);
    for v in [&mut snap_rates, &mut restore_rates, &mut bytes_per] {
        v.sort_by(f64::total_cmp);
    }
    outcome.attempted = cycles * n as u64;
    outcome.fail("session missing from a fleet snapshot", missing);
    outcome.fail("session failed to snapshot", failed_parts);
    outcome.fail("RestoreFailed event", restore_failed);
    outcome.note(format!(
        "{cycles} snapshot->archive->adopt cycles of {n} real-time sessions into an \
         unpaced standby; op = one cycle; snapshot {:.0} sessions/s, restore {:.0} sessions/s, \
         archive {:.1} B/session (medians)",
        quantile(&snap_rates, 0.5),
        quantile(&restore_rates, 0.5),
        quantile(&bytes_per, 0.5)
    ));
    report_e2e(
        outcome,
        setup_s,
        advanced as f64 / span,
        &standby_reports,
        miss_fraction(&standby_reports),
        &mut cycle_us,
        cpu * 1e6 / (advanced + standby_ticks).max(1) as f64,
    );
    outcome.correct_reports = standby_reports;
}
