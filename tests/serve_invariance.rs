//! Shard-invariance contract of the service runtime: hosting a session
//! on any shard of any pool must be observationally identical — down to
//! the floating-point bits — to running the same closed loop solo with
//! `foreco_core::run_closed_loop`.
//!
//! 64 deterministic sessions (distinct operator streams, distinct
//! channel realisations, a mix of FoReCo and baseline recovery) run on
//! pools of 1, 2, and 8 shards; every per-session report must equal the
//! matching solo run. A lockstep fleet (one registered VAR, one replayed
//! trace, one loss seed) is held to the same standard, so co-shard
//! sessions whose misses coincide on every pass stay covered.
//!
//! The scheduler dimension rides on the same workload: the event-driven
//! run-queue scheduler (and the load balancer migrating sessions
//! mid-run on top of it) must produce reports bit-identical to the
//! eager every-session-every-pass sweep at every pool size.

use foreco::prelude::*;
use foreco::serve::SessionReport;

const SESSIONS: u64 = 64;

/// Lockstep fleet size, and the one loss spec its sessions share.
const LOCKSTEP: u64 = 40;
const LOCKSTEP_CHANNEL: (usize, f64, u64) = (6, 0.01, 10_007);

fn forecaster() -> Var {
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
    Var::fit_differenced(&train, 5, 1e-6).expect("fit VAR")
}

fn channel_for(id: u64) -> (usize, f64, u64) {
    // Distinct burst shapes per session.
    (
        4 + (id % 8) as usize,
        0.008 + 0.001 * (id % 5) as f64,
        10_000 + id,
    )
}

fn spec_for(id: u64, shared: &SharedForecaster, model: &ArmModel) -> SessionSpec {
    let (burst_len, burst_prob, seed) = channel_for(id);
    let recovery = if id % 3 == 2 {
        RecoverySpec::Baseline
    } else {
        RecoverySpec::FoReCo {
            forecaster: shared.clone(),
            config: RecoveryConfig::for_model(model),
        }
    };
    SessionSpec::new(
        id,
        SourceSpec::replay(&Dataset::record(Skill::Inexperienced, 1, 0.02, 500 + id)),
        ChannelSpec::ControlledLoss {
            burst_len,
            burst_prob,
            seed,
        },
        recovery,
    )
}

/// The ground truth: the same loop, run solo through `run_closed_loop`.
fn solo_run(id: u64, var: &Var, model: &ArmModel) -> (usize, f64, f64, Option<RecoveryStats>) {
    let commands = Dataset::record(Skill::Inexperienced, 1, 0.02, 500 + id).commands;
    let foreco = (id % 3 != 2).then_some(var);
    solo_loop(&commands, channel_for(id), foreco, model)
}

/// One standalone closed loop over `commands` and a controlled-loss
/// channel, recovered by FoReCo on `foreco` or by the baseline.
fn solo_loop(
    commands: &[Vec<f64>],
    (burst_len, burst_prob, seed): (usize, f64, u64),
    foreco: Option<&Var>,
    model: &ArmModel,
) -> (usize, f64, f64, Option<RecoveryStats>) {
    let fates = ControlledLossChannel::new(burst_len, burst_prob, seed).fates(commands.len());
    let mode = match foreco {
        None => RecoveryMode::Baseline,
        Some(var) => RecoveryMode::FoReCo(RecoveryEngine::new(
            Box::new(var.clone()),
            RecoveryConfig::for_model(model),
            model.clamp(&commands[0]),
        )),
    };
    let res = run_closed_loop(model, commands, &fates, mode, DriverConfig::default());
    (res.misses, res.rmse_mm, res.max_deviation_mm, res.stats)
}

fn assert_matches_solo(
    report: &SessionReport,
    id: u64,
    var: &Var,
    model: &ArmModel,
    shards: usize,
) {
    let (misses, rmse_mm, max_dev_mm, stats) = solo_run(id, var, model);
    assert_eq!(
        report.misses, misses,
        "session {id} misses @ {shards} shards"
    );
    assert_eq!(report.stats, stats, "session {id} stats @ {shards} shards");
    assert_eq!(
        report.rmse_mm.to_bits(),
        rmse_mm.to_bits(),
        "session {id} rmse not bit-identical @ {shards} shards: {} vs {}",
        report.rmse_mm,
        rmse_mm
    );
    assert_eq!(
        report.max_deviation_mm.to_bits(),
        max_dev_mm.to_bits(),
        "session {id} max deviation not bit-identical @ {shards} shards",
    );
}

#[test]
fn per_session_results_invariant_across_shard_counts() {
    let model = niryo_one();
    let var = forecaster();
    let shared = SharedForecaster::new(var.clone());

    let mut by_shard_count = Vec::new();
    for shards in [1usize, 2, 8] {
        let specs: Vec<SessionSpec> = (0..SESSIONS)
            .map(|id| spec_for(id, &shared, &model))
            .collect();
        let registry = Service::spawn(ServiceConfig::with_shards(shards)).run_to_completion(specs);
        assert_eq!(
            registry.len() as u64,
            SESSIONS,
            "{shards} shards: missing sessions"
        );
        by_shard_count.push((shards, registry));
    }

    // Every pool size agrees with the solo ground truth (hence with
    // every other pool size) session by session.
    for (shards, registry) in &by_shard_count {
        for id in 0..SESSIONS {
            let report = registry.get(id).expect("every session reports");
            assert_matches_solo(report, id, &var, &model, *shards);
        }
    }

    // And the aggregate summaries are identical too.
    let s1 = by_shard_count[0].1.summary().expect("sessions completed");
    for (_, registry) in &by_shard_count[1..] {
        assert_eq!(
            registry.summary().expect("sessions completed"),
            s1,
            "aggregate summary must be shard-count invariant"
        );
    }
}

/// Every session ticks as its own width-one lane: there is no
/// cross-session gather, so no lane layout can be observed in any
/// session's results. The lockstep fleet — FoReCo sessions sharing one
/// store-registered VAR, one replayed trace and one loss seed, so their
/// misses coincide on every pass and co-shard sessions forecast the same
/// slot together — is the shape most likely to leak such sharing. At 1,
/// 2 and 8 shards each report equals the one standalone run.
#[test]
fn every_lane_layout_agrees_at_every_shard_count() {
    let model = niryo_one();
    let var = forecaster();
    let store = foreco::store::Storage::new();
    let registered = SharedForecaster::register(var.clone(), &store).expect("register VAR");
    let commands = Dataset::record(Skill::Inexperienced, 1, 0.02, 500).commands;
    let (misses, rmse_mm, max_dev_mm, stats) =
        solo_loop(&commands, LOCKSTEP_CHANNEL, Some(&var), &model);
    let trace = SourceSpec::Replayed(std::sync::Arc::new(commands));
    let (burst_len, burst_prob, seed) = LOCKSTEP_CHANNEL;
    for shards in [1usize, 2, 8] {
        let specs: Vec<SessionSpec> = (0..LOCKSTEP)
            .map(|id| {
                SessionSpec::new(
                    id,
                    trace.clone(),
                    ChannelSpec::ControlledLoss {
                        burst_len,
                        burst_prob,
                        seed,
                    },
                    RecoverySpec::FoReCo {
                        forecaster: registered.clone(),
                        config: RecoveryConfig::for_model(&model),
                    },
                )
            })
            .collect();
        let registry = Service::spawn(ServiceConfig::with_shards(shards)).run_to_completion(specs);
        assert_eq!(
            registry.len() as u64,
            LOCKSTEP,
            "lockstep @ {shards} shards"
        );
        for id in 0..LOCKSTEP {
            let report = registry.get(id).expect("every session reports");
            assert_eq!(
                report.misses, misses,
                "lockstep {id} misses @ {shards} shards"
            );
            assert_eq!(report.stats, stats, "lockstep {id} stats @ {shards} shards");
            assert_eq!(
                report.rmse_mm.to_bits(),
                rmse_mm.to_bits(),
                "lockstep {id} rmse not bit-identical @ {shards} shards"
            );
            assert_eq!(
                report.max_deviation_mm.to_bits(),
                max_dev_mm.to_bits(),
                "lockstep {id} max deviation not bit-identical @ {shards} shards"
            );
        }
    }
}

/// The event-driven scheduler (run queue + parking) and the balancer
/// (live migration policy) are pure scheduling concerns:
/// at 1, 2, and 8 shards, their per-session reports must equal the
/// eager sweep's bit for bit, and so must the aggregate summaries.
#[test]
fn eager_and_event_driven_schedulers_agree() {
    let model = niryo_one();
    let var = forecaster();
    let shared = SharedForecaster::new(var);
    let specs = || -> Vec<SessionSpec> {
        (0..SESSIONS)
            .map(|id| spec_for(id, &shared, &model))
            .collect()
    };
    for shards in [1usize, 2, 8] {
        let eager = Service::spawn(ServiceConfig {
            scheduler: Scheduler::Eager,
            ..ServiceConfig::with_shards(shards)
        })
        .run_to_completion(specs());
        let event = Service::spawn(ServiceConfig::with_shards(shards)).run_to_completion(specs());
        let balanced = Service::spawn(ServiceConfig {
            balancer: Some(BalancerConfig {
                interval: std::time::Duration::from_millis(2),
                min_imbalance: 1,
                max_moves: 4,
            }),
            ..ServiceConfig::with_shards(shards)
        })
        .run_to_completion(specs());
        // A live telemetry subscriber's serve-side footprint: an
        // attached lifecycle observer turns on park narration, which
        // must not change a single output bit.
        let observed = {
            let service = Service::spawn(ServiceConfig::with_shards(shards));
            service.handle().attach_observer();
            service.run_to_completion(specs())
        };
        for id in 0..SESSIONS {
            let ground = eager.get(id).expect("eager report");
            for (label, registry) in [
                ("event-driven", &event),
                ("balanced", &balanced),
                ("observed", &observed),
            ] {
                let report = registry.get(id).expect("report");
                assert_eq!(
                    report.misses, ground.misses,
                    "session {id} misses ({label} @ {shards} shards)"
                );
                assert_eq!(
                    report.stats, ground.stats,
                    "session {id} stats ({label} @ {shards} shards)"
                );
                assert_eq!(
                    report.rmse_mm.to_bits(),
                    ground.rmse_mm.to_bits(),
                    "session {id} rmse not bit-identical ({label} @ {shards} shards)"
                );
                assert_eq!(
                    report.max_deviation_mm.to_bits(),
                    ground.max_deviation_mm.to_bits(),
                    "session {id} max deviation ({label} @ {shards} shards)"
                );
            }
        }
        let ground_summary = eager.summary().expect("sessions completed");
        assert_eq!(event.summary().expect("sessions completed"), ground_summary);
        assert_eq!(
            balanced.summary().expect("sessions completed"),
            ground_summary
        );
        assert_eq!(
            observed.summary().expect("sessions completed"),
            ground_summary,
            "an attached observer must be bit-invisible"
        );
        // The scheduler really scheduled: every pool advanced every tick.
        let loads = event.shard_loads();
        assert_eq!(loads.len(), shards);
        assert!(loads.iter().map(|l| l.wakeups).sum::<u64>() > 0);
    }
}

#[test]
fn loss_patterns_actually_exercised() {
    // Guard against the invariance test degenerating into comparing
    // loss-free runs: the configured channels must produce misses and
    // the FoReCo sessions must forecast.
    let model = niryo_one();
    let var = forecaster();
    let shared = SharedForecaster::new(var);
    let specs: Vec<SessionSpec> = (0..SESSIONS)
        .map(|id| spec_for(id, &shared, &model))
        .collect();
    let registry = Service::spawn(ServiceConfig::with_shards(2)).run_to_completion(specs);
    let s = registry.summary().expect("sessions completed");
    assert!(s.total_misses > 0, "channels produced no losses");
    assert!(s.recovery.forecasts > 0, "engines never forecast");
    assert!(s.rmse_mm.max > 0.0, "no task-space error recorded");
}
