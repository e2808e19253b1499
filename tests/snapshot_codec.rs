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
//!    are sanity-capped against the remaining frame);
//! 3. targeted malformed shapes: version skew → [`RestoreError::Version`],
//!    foreign magic → `BadMagic`, appended garbage → `TrailingBytes`,
//!    a corrupt count word → `Oversized`, an unassigned discriminant →
//!    `BadTag`, and a JSON document claiming v3 → `Decode` (v3 is
//!    binary-only);
//! 4. golden fixtures: committed v1 and v2 JSON snapshots that must
//!    decode and restore **bit-identically** against a freshly run
//!    twin in every future build. Regenerate (after an intentional
//!    donor change) with
//!    `cargo test -q --test snapshot_codec -- --ignored regenerate`.
//!
//! Run with a fixed case count via `PROPTEST_CASES` (CI pins it).

use foreco::prelude::*;
use foreco::serve::session::Advance;
use foreco::serve::snapshot::SessionSnapshot;
use foreco::serve::{RestoreError, Session, SessionId, SNAPSHOT_VERSION};
use proptest::prelude::*;
use std::sync::OnceLock;

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

#[test]
fn json_claiming_v3_is_rejected() {
    // v3 is binary-only; a JSON document claiming it is malformed, not
    // merely future-versioned.
    let (snap, _, _) = scripted_donor(false, 60);
    let text = String::from_utf8(snap.to_json_bytes()).expect("JSON is UTF-8");
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
    std::fs::write(V1_FIXTURE, v1.to_json_bytes()).expect("write v1 fixture");
    let mut v2 = donor;
    v2.version = 2;
    std::fs::write(V2_FIXTURE, v2.to_json_bytes()).expect("write v2 fixture");
}
