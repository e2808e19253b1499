//! The binary snapshot codec (v3), fuzzed the way `net`'s wire codec
//! is: every malformed shape maps to a typed [`RestoreError`] and never
//! a panic, well-formed frames round-trip to *exact* struct equality,
//! and the legacy JSON arms (v1, v2) stay decodable forever via
//! committed golden fixtures.
//!
//! Four layers:
//!
//! 1. exact round-trips: `from_bytes(&to_bytes()) == snapshot` for
//!    scripted (FoReCo and baseline), streamed, and fleet
//!    (`ScriptedRef`) donors — struct equality, which pins every f64
//!    bit because the codec stores raw `to_bits` words;
//! 2. a property suite over truncation points and single-byte
//!    corruptions of a valid frame: the decoder returns `Ok` or a
//!    typed error, never panics, never over-allocates (length words
//!    are sanity-capped against the remaining frame); plus a fixed-
//!    stride sweep of single-byte mutants through decode → restore →
//!    run-out, where a mutant that restores must complete;
//! 3. targeted malformed shapes: version skew → [`RestoreError::Version`],
//!    foreign magic → `BadMagic`, appended garbage → `TrailingBytes`,
//!    a corrupt count word → `Oversized`, an unassigned discriminant →
//!    `BadTag`, a JSON document claiming v3 → `Decode` (v3 is
//!    binary-only), and state the tick path would panic on (driver
//!    period, joint limits, `max_step`, damping, non-finite history or
//!    commands, invalid forecaster state) → `Invalid` at restore;
//! 4. golden fixtures: committed v1 and v2 JSON snapshots that must
//!    decode and restore **bit-identically** against a freshly run
//!    twin in every future build. Regenerate (after an intentional
//!    donor change) with
//!    `cargo test -q --test snapshot_codec -- --ignored regenerate`.
//!
//! Run with a fixed case count via `PROPTEST_CASES` (CI pins it).

use foreco::forecast::ForecasterState;
use foreco::prelude::*;
use foreco::recovery::EngineSnapshot;
use foreco::serve::session::Advance;
use foreco::serve::snapshot::SessionSnapshot;
use foreco::serve::{RestoreError, Session, SessionId, SNAPSHOT_VERSION};
use proptest::prelude::*;
use std::sync::OnceLock;

mod legacy_json;

/// One trained VAR shared by every case (training dominates runtime).
fn shared_var() -> &'static Var {
    static VAR: OnceLock<Var> = OnceLock::new();
    VAR.get_or_init(|| {
        let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
        Var::fit_differenced(&train, 5, 1e-6).expect("fit VAR")
    })
}

/// The deterministic scripted spec behind every donor and both golden
/// fixtures: fixed seeds end to end, so a donor built today is
/// bit-identical to one built by the run that committed the fixtures.
fn scripted_spec(id: SessionId, foreco: bool, model: &ArmModel) -> SessionSpec {
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
        SourceSpec::Recorded {
            skill: Skill::Inexperienced,
            cycles: 1,
            seed: 42,
        },
        ChannelSpec::ControlledLoss {
            burst_len: 4,
            burst_prob: 0.02,
            seed: 9,
        },
        recovery,
    )
}

/// Mid-run scripted donor: advance to `tick`, snapshot.
fn scripted_donor(foreco: bool, tick: u64) -> (SessionSnapshot, SessionSpec, ArmModel) {
    let model = niryo_one();
    let spec = scripted_spec(7, foreco, &model);
    let mut session = Session::open(&spec, &model);
    while session.tick() < tick {
        assert!(matches!(session.advance(), Advance::Ticked(_)));
    }
    let snap = session.snapshot().expect("scripted donor snapshotable");
    (snap, spec, model)
}

/// Mid-run streamed donor: live inbox, channel RNG words, fate buffer.
fn streamed_donor() -> SessionSnapshot {
    let model = niryo_one();
    let home = model.home();
    let spec = SessionSpec::new(
        8,
        SourceSpec::Streamed {
            initial: home.clone(),
            inbox_capacity: 8,
        },
        ChannelSpec::ControlledLoss {
            burst_len: 3,
            burst_prob: 0.04,
            seed: 11,
        },
        RecoverySpec::FoReCo {
            forecaster: SharedForecaster::new(shared_var().clone()),
            config: RecoveryConfig::for_model(&model),
        },
    );
    let mut session = Session::open(&spec, &model);
    for k in 0..40u64 {
        let command: Vec<f64> = home
            .iter()
            .enumerate()
            .map(|(j, q)| q + 0.01 * (((k * 31 + j as u64) % 7) as f64 - 3.0) / 3.0)
            .collect();
        session.offer(command);
        assert!(matches!(session.advance(), Advance::Ticked(_)));
    }
    session.snapshot().expect("streamed donor snapshotable")
}

/// The canonical valid v3 frame the fuzz properties chew on, built
/// once (VAR training and 120 ticks dominate the suite's runtime).
fn donor_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| scripted_donor(true, 120).0.to_bytes())
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

// ---------------------------------------------------------------------
// Layer 1: exact round-trips.
// ---------------------------------------------------------------------

#[test]
fn binary_round_trip_is_exact_for_scripted_donors() {
    for foreco in [true, false] {
        let (snap, _, _) = scripted_donor(foreco, 90);
        let decoded = SessionSnapshot::from_bytes(&snap.to_bytes()).expect("decode");
        assert_eq!(
            decoded, snap,
            "foreco={foreco}: v3 round-trip must be exact"
        );
    }
}

#[test]
fn binary_round_trip_is_exact_for_streamed_donor() {
    let snap = streamed_donor();
    let decoded = SessionSnapshot::from_bytes(&snap.to_bytes()).expect("decode");
    assert_eq!(decoded, snap, "streamed v3 round-trip must be exact");
}

#[test]
fn binary_round_trip_is_exact_for_fleet_scripted_ref() {
    let (_, spec, model) = scripted_donor(true, 90);
    let mut session = Session::open(&spec, &model);
    while session.tick() < 90 {
        assert!(matches!(session.advance(), Advance::Ticked(_)));
    }
    let (part, trace) = session.snapshot_for_fleet().expect("fleet snapshotable");
    assert!(trace.is_some(), "scripted fleet part must carry its trace");
    let decoded = SessionSnapshot::from_bytes(&part.to_bytes()).expect("decode");
    assert_eq!(decoded, part, "ScriptedRef v3 round-trip must be exact");
}

#[test]
fn binary_restore_is_bit_identical() {
    let (snap, spec, model) = scripted_donor(true, 120);
    let mut solo = Session::open(&spec, &model);
    let solo_report = run_out(&mut solo);

    let decoded = SessionSnapshot::from_bytes(&snap.to_bytes()).expect("decode");
    let mut resumed = Session::restore(&decoded, &model).expect("restore");
    let resumed_report = run_out(&mut resumed);
    assert_reports_bit_identical(&solo_report, &resumed_report, "v3 binary restore");
}

// ---------------------------------------------------------------------
// Layer 2: fuzz — typed errors, never panics.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::env_or(32))]

    /// Every proper prefix of a valid frame fails with a typed error —
    /// overwhelmingly `Truncated`, never a panic, never `Ok`.
    #[test]
    fn truncation_yields_typed_errors(cut in 0.0f64..1.0) {
        let bytes = donor_bytes();
        let at = ((bytes.len() as f64 * cut) as usize).min(bytes.len() - 1);
        let err = SessionSnapshot::from_bytes(&bytes[..at])
            .expect_err("proper prefix must not decode");
        prop_assert!(
            matches!(
                err,
                RestoreError::Truncated { .. }
                    | RestoreError::Oversized { .. }
                    | RestoreError::BadMagic { .. }
            ),
            "prefix of {at} bytes gave unexpected error {err:?}"
        );
    }

    /// Flipping any single byte yields `Ok` (payload bits changed) or a
    /// typed error — never a panic, never an unbounded allocation.
    #[test]
    fn single_byte_corruption_never_panics(
        offset in 0.0f64..1.0,
        xor in 1u32..256,
    ) {
        let mut bytes = donor_bytes().to_vec();
        let at = ((bytes.len() as f64 * offset) as usize).min(bytes.len() - 1);
        bytes[at] ^= xor as u8;
        // The result value is unconstrained (a flipped f64 payload bit
        // still decodes); reaching this line without panicking is the
        // property.
        let _ = SessionSnapshot::from_bytes(&bytes);
    }

    /// Random garbage (wrong leading bytes) is rejected with a typed
    /// error, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(words in proptest::collection::vec(0u32..256, 0..256)) {
        let bytes: Vec<u8> = words.iter().map(|&w| w as u8).collect();
        let _ = SessionSnapshot::from_bytes(&bytes);
    }
}

/// Decode → restore → run to completion over single-byte mutants of
/// the donor frame, every `STRIDE`-th byte with a rotating mask. A
/// mutant may fail to decode or restore (a typed error), but one that
/// restores must run out its script without panicking: restore
/// validates everything the tick path asserts on.
#[test]
fn restored_mutants_run_to_completion() {
    // Release runs cover a few thousand mutants in a few seconds; debug
    // builds take a sparser sample of the same sweep. Both strides
    // land on mutants of the engine's joint limits (release also on the
    // VAR coefficient shape) that restore-time validation must reject.
    const STRIDE: usize = if cfg!(debug_assertions) { 81 } else { 9 };
    const MASKS: [u8; 4] = [0x01, 0x40, 0x80, 0xFF];
    let model = niryo_one();
    let donor = donor_bytes();
    let mut restored = 0usize;
    let mut panics = Vec::new();
    for (i, at) in (0..donor.len()).step_by(STRIDE).enumerate() {
        let mut bytes = donor.to_vec();
        bytes[at] ^= MASKS[i % MASKS.len()];
        let run = std::panic::catch_unwind(|| {
            let Ok(snap) = SessionSnapshot::from_bytes(&bytes) else {
                return false;
            };
            let Ok(mut session) = Session::restore(&snap, &model) else {
                return false;
            };
            run_out(&mut session);
            true
        });
        match run {
            Ok(ran) => restored += usize::from(ran),
            Err(payload) => {
                let reason = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                panics.push(format!(
                    "byte {at} ^ {:#04x}: {reason}",
                    bytes[at] ^ donor[at]
                ));
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} mutants panicked:\n{}",
        panics.len(),
        panics.join("\n")
    );
    assert!(
        restored > 0,
        "some payload-only mutants must restore and run"
    );
}

// ---------------------------------------------------------------------
// Layer 3: targeted malformed shapes.
// ---------------------------------------------------------------------

#[test]
fn binary_version_skew_is_rejected() {
    for skew in [2u32, 4, 99] {
        let mut bytes = donor_bytes().to_vec();
        bytes[4..8].copy_from_slice(&skew.to_le_bytes());
        match SessionSnapshot::from_bytes(&bytes) {
            Err(RestoreError::Version { found, expected }) => {
                assert_eq!(found, skew);
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("binary version {skew} gave {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = donor_bytes().to_vec();
    bytes[..4].copy_from_slice(b"XSNP");
    match SessionSnapshot::from_bytes(&bytes) {
        Err(RestoreError::BadMagic { found }) => assert_eq!(&found, b"XSNP"),
        other => panic!("foreign magic gave {other:?}"),
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = donor_bytes().to_vec();
    bytes.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
    match SessionSnapshot::from_bytes(&bytes) {
        Err(RestoreError::TrailingBytes { expect, got }) => {
            assert_eq!(got, expect + 3);
        }
        other => panic!("trailing garbage gave {other:?}"),
    }
}

/// Byte 88 is the source discriminant (after magic, version, id, tick,
/// period, 4-word driver config, misses, acc_sq_mm, worst_mm); the
/// eight bytes after it are the scripted command count. Both offsets
/// are frozen by the v3 layout, which is exactly what this test pins.
const SOURCE_TAG_OFFSET: usize = 88;

#[test]
fn oversized_count_is_rejected_before_allocating() {
    let mut bytes = donor_bytes().to_vec();
    bytes[SOURCE_TAG_OFFSET + 1..SOURCE_TAG_OFFSET + 9].copy_from_slice(&u64::MAX.to_le_bytes());
    match SessionSnapshot::from_bytes(&bytes) {
        Err(RestoreError::Oversized {
            declared, limit, ..
        }) => {
            assert_eq!(declared, u64::MAX);
            assert!(limit < u64::MAX);
        }
        other => panic!("u64::MAX count gave {other:?}"),
    }
}

#[test]
fn unassigned_tag_is_rejected() {
    let mut bytes = donor_bytes().to_vec();
    bytes[SOURCE_TAG_OFFSET] = 0xEE;
    match SessionSnapshot::from_bytes(&bytes) {
        Err(RestoreError::BadTag { what, found }) => {
            assert_eq!(what, "source state");
            assert_eq!(found, 0xEE);
        }
        other => panic!("tag 0xEE gave {other:?}"),
    }
}

/// Byte 32 is the driver config's period word (after magic, version,
/// id, tick and the session period), frozen by the v3 layout.
const DRIVER_PERIOD_OFFSET: usize = 32;

#[test]
fn non_positive_driver_period_is_rejected_at_restore() {
    let model = niryo_one();
    for period in [0.0f64, -0.02, f64::NAN] {
        let mut bytes = donor_bytes().to_vec();
        bytes[DRIVER_PERIOD_OFFSET..DRIVER_PERIOD_OFFSET + 8]
            .copy_from_slice(&period.to_bits().to_le_bytes());
        let snap = SessionSnapshot::from_bytes(&bytes).expect("patched frame still decodes");
        assert_eq!(snap.driver.period.to_bits(), period.to_bits());
        match Session::restore(&snap, &model) {
            Err(RestoreError::Invalid(_)) => {}
            Err(other) => panic!("driver period {period} gave {other:?}"),
            Ok(_) => panic!("driver period {period} restored"),
        }
    }
}

/// Restores `snap` and expects a typed `Invalid`: each case below would
/// otherwise restore and then panic on the tick path.
fn assert_rejected_at_restore(snap: &SessionSnapshot, case: &str) {
    match Session::restore(snap, &niryo_one()) {
        Err(RestoreError::Invalid(_)) => {}
        Err(other) => panic!("{case} gave {other:?}"),
        Ok(_) => panic!("{case} restored"),
    }
}

/// The donor with its engine state edited by `edit`.
fn donor_with_engine(edit: impl FnOnce(&mut EngineSnapshot)) -> SessionSnapshot {
    let mut snap = SessionSnapshot::from_bytes(donor_bytes()).expect("donor decodes");
    edit(snap.engine.as_mut().expect("FoReCo donor has an engine"));
    snap
}

/// One corruption of the engine's joint limits.
type LimitsEdit = fn(&mut Vec<(f64, f64)>);

#[test]
fn corrupt_joint_limits_are_rejected_at_restore() {
    let cases: [(&str, LimitsEdit); 4] = [
        ("lo > hi", |l| l[2] = (l[2].1, l[2].0)),
        ("NaN lower bound", |l| l[0].0 = f64::NAN),
        ("NaN upper bound", |l| l[5].1 = f64::NAN),
        ("one limit short", |l| {
            l.pop();
        }),
    ];
    for (case, corrupt) in cases {
        let snap = donor_with_engine(|e| corrupt(e.config.limits.as_mut().expect("arm limits")));
        assert_rejected_at_restore(&snap, case);
    }
}

#[test]
fn negative_or_nan_max_step_is_rejected_at_restore() {
    for step in [-0.04, f64::NAN] {
        let snap = donor_with_engine(|e| e.config.max_step = Some(step));
        assert_rejected_at_restore(&snap, &format!("max_step {step}"));
    }
}

#[test]
fn non_finite_trend_damping_is_rejected_at_restore() {
    for gamma in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let snap = donor_with_engine(|e| e.config.trend_damping = Some(gamma));
        assert_rejected_at_restore(&snap, &format!("trend_damping {gamma}"));
    }
}

#[test]
fn non_finite_history_is_rejected_at_restore() {
    for v in [f64::NAN, f64::INFINITY] {
        let snap = donor_with_engine(|e| e.history.last_mut().expect("history")[1] = v);
        assert_rejected_at_restore(&snap, &format!("history entry {v}"));
    }
}

#[test]
fn non_finite_commands_are_rejected_at_restore() {
    use foreco::serve::snapshot::SourceState;
    let mut script = SessionSnapshot::from_bytes(donor_bytes()).expect("donor decodes");
    let tick = script.tick as usize;
    let SourceState::Scripted { commands, .. } = &mut script.source else {
        panic!("scripted donor");
    };
    commands[tick + 1][0] = f64::NAN;
    assert_rejected_at_restore(&script, "NaN scripted command");

    let mut late = SessionSnapshot::from_bytes(donor_bytes()).expect("donor decodes");
    late.pending_late
        .push((late.period * (tick + 2) as f64, 3, vec![f64::INFINITY; 6]));
    assert_rejected_at_restore(&late, "infinite pending late command");
}

/// The donor running `state` instead of its VAR, with the engine
/// history trimmed to `state`'s window so only the forecaster's own
/// invariants are wrong.
fn donor_with_forecaster(state_json: &str) -> SessionSnapshot {
    let state: ForecasterState = serde_json::from_str(state_json).expect("forecaster JSON");
    donor_with_engine(|e| {
        let keep = e.history.len().min(2);
        e.history.drain(..e.history.len() - keep);
        e.forecast_slots.drain(..e.forecast_slots.len() - keep);
        e.forecaster = state;
    })
}

/// `state`'s canonical JSON with `from` replaced by `to` (once).
fn edited_state(state: ForecasterState, from: &str, to: &str) -> String {
    let json = String::from_utf8(state.canonical_bytes()).expect("UTF-8 JSON");
    assert!(json.contains(from), "{from} not in {json}");
    json.replacen(from, to, 1)
}

#[test]
fn invalid_forecaster_state_is_rejected_at_restore_for_every_family() {
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
    let varma = Varma::fit(&train, 3, 2, 1e-6).expect("fit VARMA");
    let cases = [
        // MA(0) divides by zero: a NaN forecast.
        edited_state(
            ForecasterState::Ma(MovingAverage::new(3, 6)),
            "\"r\":3",
            "\"r\":0",
        ),
        // Holt with R < 2 indexes past its window.
        edited_state(
            ForecasterState::Holt(Holt::default_teleop(4, 6)),
            "\"r\":4",
            "\"r\":1",
        ),
        // Kalman-CV with an empty window.
        edited_state(
            ForecasterState::Kalman(KalmanCv::default_teleop(4, 6)),
            "\"r\":4",
            "\"r\":0",
        ),
        // VAR coefficients whose data disagrees with their shape.
        edited_state(
            ForecasterState::Var(shared_var().clone()),
            "\"rows\":31",
            "\"rows\":40",
        ),
        // A VARMA whose stage 2 holds a non-finite coefficient (JSON has
        // no infinity, but a number past f64's range parses as one).
        {
            let mut json = String::from_utf8(ForecasterState::Varma(varma).canonical_bytes())
                .expect("UTF-8 JSON");
            let at = json.rfind("\"data\":[").expect("stage-2 data") + "\"data\":[".len();
            let end = at + json[at..].find(',').expect("more than one coefficient");
            json.replace_range(at..end, "1e999");
            json
        },
    ];
    // An uncapped window sizes the engine ring at restore: `usize::MAX`
    // overflows `R + 1`, and `2^40` would abort on a ~50 TB allocation.
    let huge_windows = [usize::MAX, 1 << 40].into_iter().flat_map(|r| {
        [
            edited_state(
                ForecasterState::Ma(MovingAverage::new(3, 6)),
                "\"r\":3",
                &format!("\"r\":{r}"),
            ),
            edited_state(
                ForecasterState::Holt(Holt::default_teleop(4, 6)),
                "\"r\":4",
                &format!("\"r\":{r}"),
            ),
            edited_state(
                ForecasterState::Kalman(KalmanCv::default_teleop(4, 6)),
                "\"r\":4",
                &format!("\"r\":{r}"),
            ),
        ]
    });
    for json in cases.into_iter().chain(huge_windows) {
        let snap = donor_with_forecaster(&json);
        let name = snap.engine.as_ref().expect("engine").forecaster.name();
        assert_rejected_at_restore(&snap, name);
    }
}

#[test]
fn json_claiming_v3_is_rejected() {
    // v3 is binary-only; a JSON document claiming it is malformed, not
    // merely future-versioned.
    let (snap, _, _) = scripted_donor(false, 60);
    let text = String::from_utf8(legacy_json::render(&snap)).expect("JSON is UTF-8");
    assert!(text.contains("\"version\":2"), "donor JSON must stamp v2");
    let forged = text.replace("\"version\":2", "\"version\":3");
    match SessionSnapshot::from_bytes(forged.as_bytes()) {
        Err(RestoreError::Decode(_)) => {}
        other => panic!("JSON claiming v3 gave {other:?}"),
    }
    let future = text.replace("\"version\":2", "\"version\":9");
    match SessionSnapshot::from_bytes(future.as_bytes()) {
        Err(RestoreError::Version { found: 9, expected }) => {
            assert_eq!(expected, SNAPSHOT_VERSION);
        }
        other => panic!("JSON claiming v9 gave {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Layer 4: golden fixtures — legacy bytes must decode forever.
// ---------------------------------------------------------------------

const V1_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/snapshot_v1.json"
);
const V2_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/snapshot_v2.json"
);

/// The donor both fixtures were generated from (see `regenerate`).
fn fixture_donor() -> (SessionSnapshot, SessionSpec, ArmModel) {
    scripted_donor(true, 140)
}

fn assert_fixture_restores(path: &str, version: u32) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {path} ({e}); regenerate with \
             `cargo test -q --test snapshot_codec -- --ignored regenerate`"
        )
    });
    let snap = SessionSnapshot::from_bytes(&bytes).expect("golden fixture decodes");
    assert_eq!(snap.version, version, "{path}: stamped version");

    let (donor, spec, model) = fixture_donor();
    // The legacy document is the donor's state verbatim (only the
    // version stamp differs), so the struct comparison pins every
    // field the JSON arm decodes.
    let mut expect = donor.clone();
    expect.version = version;
    assert_eq!(
        snap, expect,
        "{path}: fixture must equal the deterministic donor"
    );

    let mut solo = Session::open(&spec, &model);
    let solo_report = run_out(&mut solo);
    let mut resumed = Session::restore(&snap, &model).expect("fixture restores");
    let resumed_report = run_out(&mut resumed);
    assert_reports_bit_identical(&solo_report, &resumed_report, path);
}

#[test]
fn v1_golden_fixture_decodes_and_restores_bit_identically() {
    assert_fixture_restores(V1_FIXTURE, 1);
}

#[test]
fn v2_golden_fixture_decodes_and_restores_bit_identically() {
    assert_fixture_restores(V2_FIXTURE, 2);
}

/// Rewrites both golden fixtures from the deterministic donor. Run
/// only after an *intentional* donor or legacy-format change:
/// `cargo test -q --test snapshot_codec -- --ignored regenerate`.
#[test]
#[ignore = "rewrites committed golden fixtures"]
fn regenerate() {
    let (donor, _, _) = fixture_donor();
    let mut v1 = donor.clone();
    v1.version = 1;
    std::fs::write(V1_FIXTURE, legacy_json::render(&v1)).expect("write v1 fixture");
    let mut v2 = donor;
    v2.version = 2;
    std::fs::write(V2_FIXTURE, legacy_json::render(&v2)).expect("write v2 fixture");
}
