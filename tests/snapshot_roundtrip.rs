//! The snapshot/restore determinism contract, property-tested.
//!
//! FoReCo's recovery is stateful (forecaster history window, outage
//! counters, PID integrators, channel RNG), so checkpointing a session
//! and rehydrating it — on the same shard, another shard, or another
//! process — must not change a single output bit. Three layers pin that:
//!
//! 1. a property suite over random operator streams, channel
//!    realisations, recovery modes, and snapshot ticks: freeze to bytes
//!    mid-run (twice, chained), restore, and compare the final
//!    [`SessionReport`] bit-for-bit against the uninterrupted twin;
//! 2. a service-level live-migration test: every session is moved
//!    between shards mid-run (twice) and the reports must equal an
//!    unmigrated run's, bit-for-bit — alongside the shard-count
//!    invariance already pinned by `tests/serve_invariance.rs`;
//! 3. a cross-pool adoption test: bytes snapshotted out of one service
//!    are revived in a pool of a different shard count.
//!
//! Run with a fixed case count via `PROPTEST_CASES` (CI pins it); on a
//! failure the proptest shim reports the failing case's RNG seed and,
//! when `PROPTEST_FAILURES_FILE` is set, appends it there for artifact
//! upload.

use foreco::prelude::*;
use foreco::serve::session::Advance;
use foreco::serve::snapshot::SessionSnapshot;
use foreco::serve::{shard_of, Session, SessionId};
use proptest::prelude::*;
use std::sync::OnceLock;

mod legacy_json;

/// Deterministic operator wiggle around the home pose for streamed
/// sessions (seeded per case, constant across twins).
fn wiggle(home: &[f64], seed: u64, k: u64) -> Vec<f64> {
    home.iter()
        .enumerate()
        .map(|(j, q)| q + 0.01 * (((seed ^ (k * 31 + j as u64)) % 7) as f64 - 3.0) / 3.0)
        .collect()
}

/// One trained VAR shared by every case (training dominates runtime).
fn shared_var() -> &'static Var {
    static VAR: OnceLock<Var> = OnceLock::new();
    VAR.get_or_init(|| {
        let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
        Var::fit_differenced(&train, 5, 1e-6).expect("fit VAR")
    })
}

fn spec_for(
    id: SessionId,
    op_seed: u64,
    burst_len: usize,
    burst_prob: f64,
    ch_seed: u64,
    foreco: bool,
    model: &ArmModel,
) -> SessionSpec {
    let recovery = if foreco {
        RecoverySpec::FoReCo {
            forecaster: SharedForecaster::new(shared_var().clone()),
            config: RecoveryConfig::for_model(model),
        }
    } else {
        RecoverySpec::Baseline
    };
    SessionSpec::new(
        id,
        SourceSpec::replay(&Dataset::record(Skill::Inexperienced, 1, 0.02, op_seed)),
        ChannelSpec::ControlledLoss {
            burst_len,
            burst_prob,
            seed: ch_seed,
        },
        recovery,
    )
}

fn run_out(session: &mut Session) -> foreco::serve::SessionReport {
    loop {
        if let Advance::Completed(report) = session.advance() {
            break *report;
        }
    }
}

fn assert_reports_bit_identical(
    a: &foreco::serve::SessionReport,
    b: &foreco::serve::SessionReport,
    context: &str,
) {
    assert_eq!(a.ticks, b.ticks, "{context}: ticks");
    assert_eq!(a.misses, b.misses, "{context}: misses");
    assert_eq!(a.overflow_drops, b.overflow_drops, "{context}: drops");
    assert_eq!(a.stats, b.stats, "{context}: stats");
    assert_eq!(
        a.rmse_mm.to_bits(),
        b.rmse_mm.to_bits(),
        "{context}: rmse {} vs {}",
        a.rmse_mm,
        b.rmse_mm
    );
    assert_eq!(
        a.max_deviation_mm.to_bits(),
        b.max_deviation_mm.to_bits(),
        "{context}: max deviation {} vs {}",
        a.max_deviation_mm,
        b.max_deviation_mm
    );
}

proptest! {
    #![proptest_config(ProptestConfig::env_or(12))]

    /// Freeze → bytes → restore at two random points of a random run;
    /// the resumed session's final report must equal the uninterrupted
    /// twin's bit-for-bit.
    #[test]
    fn snapshot_restore_is_bit_identical(
        op_seed in 0u64..10_000,
        ch_seed in 0u64..10_000,
        burst_len in 1usize..12,
        burst_prob in 0.0f64..0.05,
        cut_a in 0.05f64..0.45,
        cut_b in 0.5f64..0.95,
        foreco in any::<bool>(),
    ) {
        let model = niryo_one();
        let spec = spec_for(1, op_seed, burst_len, burst_prob, ch_seed, foreco, &model);
        let script_len = Dataset::record(Skill::Inexperienced, 1, 0.02, op_seed)
            .commands
            .len();

        let mut straight = Session::open(&spec, &model);
        let mut twin = Session::open(&spec, &model);

        for (label, cut) in [("first", cut_a), ("second", cut_b)] {
            let at = ((script_len as f64 * cut) as u64).max(twin.tick());
            while twin.tick() < at {
                prop_assert!(matches!(twin.advance(), Advance::Ticked(_)));
            }
            let bytes = twin.snapshot().expect("snapshotable").to_bytes();
            let snap = SessionSnapshot::from_bytes(&bytes).expect("decode");
            twin = Session::restore(&snap, &model).expect("restore");
            prop_assert_eq!(twin.tick(), at, "{} cut resumed at the wrong tick", label);
        }

        let a = run_out(&mut straight);
        let b = run_out(&mut twin);
        assert_reports_bit_identical(&a, &b, "roundtrip");
    }

    /// The parked-session contract, end to end: a streamed session goes
    /// silent, reaches its verified idle fixed point, and parks. One
    /// twin ticks eagerly through a long idle span; the other skips it
    /// with `catch_up` and is additionally frozen to bytes and restored
    /// *inside* the parked span. Resumed traffic and the final drain
    /// must then be bit-identical — parking, catch-up, and a parked
    /// checkpoint are all observationally invisible.
    #[test]
    fn parked_snapshot_resumes_bit_identically(
        op_seed in 0u64..10_000,
        ch_seed in 0u64..10_000,
        burst_len in 1usize..10,
        burst_prob in 0.0f64..0.08,
        warm in 8u64..48,
        idle_span in 1u64..20_000,
        resume in 4u64..40,
        foreco in any::<bool>(),
    ) {
        let model = niryo_one();
        let home = model.home();
        let recovery = if foreco {
            RecoverySpec::FoReCo {
                forecaster: SharedForecaster::new(shared_var().clone()),
                config: RecoveryConfig::for_model(&model),
            }
        } else {
            RecoverySpec::Baseline
        };
        let spec = SessionSpec::new(
            21,
            SourceSpec::Streamed {
                initial: home.clone(),
                inbox_capacity: 8,
            },
            ChannelSpec::ControlledLoss {
                burst_len,
                burst_prob,
                seed: ch_seed,
            },
            recovery,
        );
        let mut eager = Session::open(&spec, &model);
        let mut parked = Session::open(&spec, &model);
        // Identical live traffic on both twins.
        for k in 0..warm {
            for s in [&mut eager, &mut parked] {
                s.offer(wiggle(&home, op_seed, k));
                prop_assert!(matches!(s.advance(), Advance::Ticked(_)));
            }
        }
        // Starve to the idle fixed point (identical tick for both).
        let park = |s: &mut Session| -> u64 {
            for _ in 0..200_000u32 {
                match s.advance() {
                    Advance::Ticked(foreco::serve::Wake::Runnable) => {}
                    Advance::Ticked(_) | Advance::Idle(_) => return s.tick(),
                    Advance::Completed(_) => panic!("completed while starving"),
                }
            }
            panic!("never parked");
        };
        let at_a = park(&mut eager);
        let at_b = park(&mut parked);
        prop_assert_eq!(at_a, at_b, "twins must park at the same tick");

        // Idle span: eager ticks, parked skips — through a byte freeze.
        for _ in 0..idle_span {
            prop_assert!(matches!(eager.advance(), Advance::Ticked(_)));
        }
        parked.catch_up(idle_span);
        let bytes = parked.snapshot().expect("parked state snapshotable").to_bytes();
        let snap = SessionSnapshot::from_bytes(&bytes).expect("decode");
        let mut parked = Session::restore(&snap, &model).expect("restore");
        prop_assert_eq!(parked.tick(), eager.tick());

        // Wake with fresh traffic; drain out; compare bit for bit.
        for k in 0..resume {
            for s in [&mut eager, &mut parked] {
                s.offer(wiggle(&home, op_seed ^ 0xABCD, k));
                prop_assert!(matches!(s.advance(), Advance::Ticked(_)));
            }
        }
        eager.close();
        parked.close();
        let a = run_out(&mut eager);
        let b = run_out(&mut parked);
        assert_reports_bit_identical(&a, &b, "parked roundtrip");
    }
}

/// Live shard migration mid-run is observationally invisible: a pool
/// where every session is migrated (then migrated again) must produce
/// the same bit-exact reports as an unmigrated pool.
#[test]
fn migration_mid_run_is_bit_identical() {
    const SESSIONS: u64 = 24;
    const SHARDS: usize = 4;
    let model = niryo_one();
    let specs: Vec<SessionSpec> = (0..SESSIONS)
        .map(|id| {
            spec_for(
                id,
                900 + id,
                3 + (id % 6) as usize,
                0.01 + 0.002 * (id % 4) as f64,
                7_000 + id,
                id % 3 != 2,
                &model,
            )
        })
        .collect();

    let baseline =
        Service::spawn(ServiceConfig::with_shards(SHARDS)).run_to_completion(specs.clone());
    assert_eq!(baseline.len() as u64, SESSIONS);

    let service = Service::spawn(ServiceConfig::with_shards(SHARDS));
    let handle = service.handle();
    for spec in specs {
        handle.open(spec).unwrap();
    }
    // First wave: evict every session from its home shard immediately;
    // second wave fires later, racing session progress from another
    // placement. Both must be invisible in the reports.
    for id in 0..SESSIONS {
        handle
            .migrate(id, (shard_of(id, SHARDS) + 1) % SHARDS)
            .unwrap();
    }
    let mut migrated = 0u32;
    let mut second_wave_sent = false;
    let mut reports = Vec::new();
    while reports.len() < SESSIONS as usize {
        match service.next_event().expect("service alive") {
            SessionEvent::Migrated { .. } => migrated += 1,
            SessionEvent::Restored { .. } if !second_wave_sent => {
                second_wave_sent = true;
                for id in 0..SESSIONS {
                    handle
                        .migrate(id, (shard_of(id, SHARDS) + 3) % SHARDS)
                        .unwrap();
                }
            }
            SessionEvent::Completed { id, report } => reports.push((id, report)),
            SessionEvent::SnapshotFailed { id, reason } => {
                panic!("session {id} failed to snapshot: {reason}")
            }
            SessionEvent::RestoreFailed { id, reason } => {
                panic!("session {id} failed to restore: {reason}")
            }
            _ => {}
        }
    }
    service.join();
    assert!(migrated > 0, "no migration ever happened — test is vacuous");

    for (id, report) in &reports {
        let unmigrated = baseline.get(*id).expect("baseline report");
        assert_reports_bit_identical(report, unmigrated, &format!("session {id}"));
    }
}

/// The v1 decode arm stays live: a self-contained snapshot re-rendered
/// in the v1 JSON wire form (the form every pre-store release produced
/// — v1 layouts are a subset of v2, and `legacy_json::render` preserves a v1
/// stamp) must decode through the explicit v1 match arm, restore, and
/// continue bit-identically to the uninterrupted donor twin.
#[test]
fn v1_snapshot_cross_decodes_and_restores_bit_identically() {
    let model = niryo_one();
    let spec = spec_for(31, 5150, 6, 0.015, 777, true, &model);

    let mut straight = Session::open(&spec, &model);
    let solo = run_out(&mut straight);

    let mut donor = Session::open(&spec, &model);
    for _ in 0..150 {
        assert!(matches!(donor.advance(), Advance::Ticked(_)));
    }
    // Masquerade as the oldest release's wire form. A self-contained
    // (non-ScriptedRef) snapshot is layout-identical across v1/v2 JSON,
    // so stamping 1 and rendering JSON *is* a v1 document.
    let mut v1 = legacy_json::with_reference(donor.snapshot().unwrap(), &model);
    v1.version = 1;
    let v1_bytes = legacy_json::render(&v1);
    let text = std::str::from_utf8(&v1_bytes).expect("JSON form is UTF-8");
    assert!(text.contains("\"version\":1"), "v1 stamp must survive");
    let snap = SessionSnapshot::from_bytes(&v1_bytes).expect("v1 decode arm");
    assert_eq!(snap.version, 1);

    let mut revived = Session::restore(&snap, &model).expect("v1 restore");
    assert_eq!(revived.tick(), 150);
    let report = run_out(&mut revived);
    assert_reports_bit_identical(&report, &solo, "v1 cross-decode");
}

/// The v2 decode arm stays live alongside v3: the same donor state
/// rendered as legacy v2 JSON (`legacy_json::render`) and as the current
/// binary frame (`to_bytes`) must both decode, agree field-for-field up
/// to the version stamp, and restore bit-identically.
#[test]
fn v2_snapshot_cross_decodes_and_restores_bit_identically() {
    let model = niryo_one();
    let spec = spec_for(33, 6160, 5, 0.02, 888, true, &model);

    let mut straight = Session::open(&spec, &model);
    let solo = run_out(&mut straight);

    let mut donor = Session::open(&spec, &model);
    for _ in 0..170 {
        assert!(matches!(donor.advance(), Advance::Ticked(_)));
    }
    let snapshot = legacy_json::with_reference(donor.snapshot().unwrap(), &model);
    assert_eq!(snapshot.version, foreco::serve::SNAPSHOT_VERSION);

    // Legacy JSON render: stamped v2, decodes through the explicit v2
    // match arm.
    let v2_bytes = legacy_json::render(&snapshot);
    let text = std::str::from_utf8(&v2_bytes).expect("JSON form is UTF-8");
    assert!(text.contains("\"version\":2"), "legacy render must stamp 2");
    let from_v2 = SessionSnapshot::from_bytes(&v2_bytes).expect("v2 decode arm");
    assert_eq!(from_v2.version, 2);

    // Binary v3 render of the same state.
    let from_v3 = SessionSnapshot::from_bytes(&snapshot.to_bytes()).expect("v3 decode");
    assert_eq!(from_v3, snapshot, "binary round trip is exact");

    // Same state behind both encodings (version stamp aside).
    let mut restamped = from_v2.clone();
    restamped.version = from_v3.version;
    assert_eq!(restamped, from_v3, "v2 JSON and v3 binary carry one state");

    // And both restore bit-identically.
    for snap in [from_v2, from_v3] {
        let mut revived = Session::restore(&snap, &model).expect("cross-version restore");
        assert_eq!(revived.tick(), 170);
        let report = run_out(&mut revived);
        assert_reports_bit_identical(&report, &solo, "v2→v3 cross-decode");
    }
}

/// Store-backed sessions checkpoint *by reference*: `snapshot_for_fleet`
/// emits a `ScriptedRef` snapshot (content address + RLE fates, no
/// trace rows), and `restore_stored` rehydrates it from a claim — with
/// continued output bit-identical to the uninterrupted donor twin.
#[test]
fn stored_session_fleet_snapshot_restores_bit_identically() {
    use foreco::serve::SourceState;
    use foreco::store::Storage;

    let model = niryo_one();
    let store = Storage::new();
    let dataset = Dataset::record(Skill::Inexperienced, 1, 0.02, 4242);
    let spec = SessionSpec::new(
        41,
        SourceSpec::stored(&store, &dataset),
        ChannelSpec::ControlledLoss {
            burst_len: 7,
            burst_prob: 0.02,
            seed: 123,
        },
        RecoverySpec::FoReCo {
            forecaster: SharedForecaster::new(shared_var().clone()),
            config: RecoveryConfig::for_model(&model),
        },
    );

    let mut straight = Session::open(&spec, &model);
    let solo = run_out(&mut straight);

    let mut donor = Session::open(&spec, &model);
    for _ in 0..180 {
        assert!(matches!(donor.advance(), Advance::Ticked(_)));
    }
    let (snap, trace) = donor.snapshot_for_fleet().expect("fleet snapshot");
    let (trace_id, _payload) = trace.expect("scripted source must export its trace ref");
    match &snap.source {
        SourceState::ScriptedRef { trace, .. } => assert_eq!(*trace, trace_id),
        other => panic!("expected ScriptedRef, got {other:?}"),
    }
    // The by-reference snapshot survives a byte round trip and is far
    // smaller than the materialized form.
    let bytes = snap.to_bytes();
    let snap = SessionSnapshot::from_bytes(&bytes).unwrap();
    let inline = snap
        .materialized(&dataset.commands)
        .expect("rehydrate inline")
        .to_bytes();
    assert!(
        bytes.len() * 4 < inline.len(),
        "by-reference snapshot ({}) must be much smaller than inline ({})",
        bytes.len(),
        inline.len()
    );

    let handle = store.get_trace(trace_id).expect("trace still claimed");
    let mut revived = Session::restore_stored(&snap, &model, handle).expect("restore from claim");
    assert_eq!(revived.tick(), 180);
    let report = run_out(&mut revived);
    assert_reports_bit_identical(&report, &solo, "stored fleet snapshot");
}

/// A checkpoint taken in one pool revives in a pool of a different
/// shard count — snapshots carry no placement assumptions.
#[test]
fn adoption_across_pool_sizes_is_bit_identical() {
    let model = niryo_one();
    let spec = spec_for(11, 4321, 8, 0.02, 999, true, &model);

    let mut straight = Session::open(&spec, &model);
    let solo = run_out(&mut straight);

    let mut donor = Session::open(&spec, &model);
    for _ in 0..200 {
        assert!(matches!(donor.advance(), Advance::Ticked(_)));
    }
    let bytes = donor.snapshot().unwrap().to_bytes();

    let pool = Service::spawn(ServiceConfig::with_shards(3));
    let snapshot = SessionSnapshot::from_bytes(&bytes).unwrap();
    pool.handle().adopt(snapshot).unwrap();
    let report = loop {
        match pool.next_event().expect("service alive") {
            SessionEvent::Restored { id, tick, .. } => {
                assert_eq!(id, 11);
                assert_eq!(tick, 200);
            }
            SessionEvent::Completed { report, .. } => break report,
            other => panic!("unexpected event {other:?}"),
        }
    };
    pool.join();
    assert_reports_bit_identical(&report, &solo, "adopted");
}
