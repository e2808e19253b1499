//! The binary snapshot codec (v3–v5), fuzzed the way `net`'s wire codec
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
//! 4. golden fixtures: committed v1 and v2 JSON snapshots and v3, v4
//!    and v5 binary archives that must decode and restore **bit-identically**
//!    against a freshly run twin in every future build (the binary
//!    parts also against the reports their build recorded). Regenerate
//!    the JSON ones (after an intentional donor change) with
//!    `cargo test -q --test snapshot_codec -- --ignored regenerate`;
//!    the v3 and v4 goldens are frozen, since no current build writes
//!    either version, and so is the v5 golden, whose frames must also
//!    re-encode to their exact bytes.
//!
//! The v4 arms — a frame whose session reads a reference trajectory and
//! so carries no reference driver state — get the layer 1 and 2
//! treatment too: exact round trips, bit-identical restores (inline
//! onto a private trajectory, by reference onto the one the shard memo
//! keys by the trace's store-owned rows), and
//! single-byte mutants through decode → restore → run; an absent
//! reference is a typed error on a streamed or gated source and on any
//! v1–v3 snapshot, and a malformed one is a typed error on a scripted
//! source too, which restores onto its trajectory and drops the state.
//!
//! The v5 arms — the forecaster's canonical binary form and a jammed
//! channel spec written field by field — get exact round trips for
//! every forecaster family, the store-identity property of the
//! canonical form (`-0.0` ≠ `+0.0`, distinct NaN payloads differ,
//! identical ones dedup), and byte-by-byte mutant sweeps of both
//! fields through decode → restore → run. A channel spec that decodes
//! but would panic when built is a typed error at restore, on a
//! streamed and on a gated source.
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
        SourceSpec::replay(&Dataset::record(Skill::Inexperienced, 1, 0.02, 42)),
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
/// `donor`, every `stride`-th byte of `range` with a rotating mask. A
/// mutant may fail to decode or restore (a typed error), but one that
/// restores must run out without panicking: restore validates
/// everything the tick path asserts on. A live source is closed first,
/// so it drains its inbox and completes. Returns how many restored.
fn assert_mutants_run_to_completion(
    donor: &[u8],
    range: std::ops::Range<usize>,
    stride: usize,
    restore: impl Fn(&SessionSnapshot) -> Result<Session, RestoreError> + std::panic::RefUnwindSafe,
) -> usize {
    const MASKS: [u8; 4] = [0x01, 0x40, 0x80, 0xFF];
    let mut restored = 0usize;
    let mut panics = Vec::new();
    for (i, at) in range.step_by(stride).enumerate() {
        let mut bytes = donor.to_vec();
        bytes[at] ^= MASKS[i % MASKS.len()];
        let run = std::panic::catch_unwind(|| {
            let Ok(snap) = SessionSnapshot::from_bytes(&bytes) else {
                return false;
            };
            let Ok(mut session) = restore(&snap) else {
                return false;
            };
            session.close();
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
    restored
}

#[test]
fn restored_mutants_run_to_completion() {
    // Release runs cover a few thousand mutants in a few seconds; debug
    // builds take a sparser sample of the same sweep. Both strides
    // land on mutants of the engine's joint limits (release also on the
    // VAR coefficient shape) that restore-time validation must reject.
    const STRIDE: usize = if cfg!(debug_assertions) { 81 } else { 9 };
    let model = niryo_one();
    let donor = donor_bytes();
    let restored = assert_mutants_run_to_completion(donor, 0..donor.len(), STRIDE, |snap| {
        Session::restore(snap, &model)
    });
    assert!(
        restored > 0,
        "some payload-only mutants must restore and run"
    );
}

/// The scripted donor's script and loss pattern on a stored trace, at
/// tick 120: its session reads a memo reference trajectory, so
/// both of its v4 frames — inline `snapshot()` and by-reference
/// `snapshot_for_fleet()` — carry no reference driver state.
fn stored_donor(store: &Storage) -> (SessionSnapshot, SessionSnapshot, TraceHandle) {
    let model = niryo_one();
    let mut spec = scripted_spec(7, true, &model);
    let trace = store.insert_trace(&Dataset::record(Skill::Inexperienced, 1, 0.02, 42).commands);
    spec.source = SourceSpec::Stored(trace.clone());
    let mut session = Session::open(&spec, &model);
    while session.tick() < 120 {
        assert!(matches!(session.advance(), Advance::Ticked(_)));
    }
    let inline = session.snapshot().expect("inline snapshot");
    let (by_ref, _) = session.snapshot_for_fleet().expect("fleet part");
    (inline, by_ref, trace)
}

#[test]
fn absent_reference_round_trips_and_restores_bit_identically() {
    let model = niryo_one();
    let store = Storage::new();
    let (inline, by_ref, trace) = stored_donor(&store);
    let spec = scripted_spec(7, true, &model);
    let twin = run_out(&mut Session::open(&spec, &model));
    for (snap, what) in [(&inline, "inline"), (&by_ref, "by-reference")] {
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert!(snap.reference.is_none(), "{what}: no reference state");
        let decoded = SessionSnapshot::from_bytes(&snap.to_bytes()).expect("decode");
        assert_eq!(&decoded, snap, "{what}: v4 round-trip must be exact");
    }
    let private = run_out(&mut Session::restore(&inline, &model).expect("inline restores"));
    assert_reports_bit_identical(&twin, &private, "inline, private trajectory");
    let shared =
        run_out(&mut Session::restore_stored(&by_ref, &model, trace).expect("ref restores"));
    assert_reports_bit_identical(&twin, &shared, "by reference, shared trajectory");
}

/// Single-byte mutants of both absent-reference frames through decode →
/// restore → run: typed errors or a completed run, never a panic.
#[test]
fn absent_reference_mutants_run_to_completion() {
    const STRIDE: usize = if cfg!(debug_assertions) { 81 } else { 9 };
    let model = niryo_one();
    let store = Storage::new();
    let (inline, by_ref, trace) = stored_donor(&store);
    let bytes = inline.to_bytes();
    let restored = assert_mutants_run_to_completion(&bytes, 0..bytes.len(), STRIDE, |snap| {
        Session::restore(snap, &model)
    });
    assert!(restored > 0, "payload-only inline mutants must run");
    let bytes = by_ref.to_bytes();
    let restored = assert_mutants_run_to_completion(&bytes, 0..bytes.len(), STRIDE, |snap| {
        Session::restore_stored(snap, &model, trace.clone())
    });
    assert!(restored > 0, "payload-only by-reference mutants must run");
    // The presence byte sits just before the executed driver state, the
    // frame's last field, which is as long as the state a present
    // reference adds: an unassigned value there is a typed tag error.
    let mut bytes = by_ref.to_bytes();
    let mut with_ref = by_ref.clone();
    with_ref.reference = Some(by_ref.executed.clone());
    let state_len = with_ref.to_bytes().len() - bytes.len();
    let at = bytes.len() - state_len - 1;
    assert_eq!(bytes[at], 0, "absent-reference presence byte");
    bytes[at] = 7;
    match SessionSnapshot::from_bytes(&bytes) {
        Err(RestoreError::BadTag { what, found: 7 }) => assert_eq!(what, "reference presence"),
        other => panic!("presence byte 7 gave {other:?}"),
    }
}

#[test]
fn absent_reference_is_rejected_off_a_scripted_v4_source() {
    let model = niryo_one();
    // Streamed and gated sessions tick a live reference driver: a frame
    // without its state cannot restore them.
    let mut streamed = streamed_donor();
    streamed.reference = None;
    let mut gated = gated_donor();
    gated.reference = None;
    for (snap, what) in [(streamed, "streamed"), (gated, "gated")] {
        let decoded = SessionSnapshot::from_bytes(&snap.to_bytes()).expect("decodes");
        match Session::restore(&decoded, &model) {
            Err(RestoreError::Invalid(reason)) => {
                assert!(reason.contains("scripted"), "{what}: {reason}")
            }
            Err(other) => panic!("{what} without reference gave {other:?}"),
            Ok(_) => panic!("{what} without reference restored"),
        }
    }
    // v1–v3 always carried the state: a legacy document without it is
    // invalid even for a scripted source.
    let store = Storage::new();
    let (inline, _, _) = stored_donor(&store);
    for version in [1, 2, 3] {
        let mut legacy = inline.clone();
        legacy.version = version;
        match Session::restore(&legacy, &model) {
            Err(RestoreError::Invalid(reason)) => {
                assert!(reason.contains("reference"), "v{version}: {reason}")
            }
            Err(other) => panic!("v{version} without reference gave {other:?}"),
            Ok(_) => panic!("v{version} without reference restored"),
        }
    }
}

/// One corruption of a driver state.
type DriverEdit = fn(&mut foreco::robot::DriverState);

#[test]
fn malformed_reference_is_rejected_on_a_scripted_source() {
    // A scripted session reads its trajectory and drops the reference
    // state a frame carries, but restore still validates that state.
    let model = niryo_one();
    let store = Storage::new();
    let (inline, by_ref, trace) = stored_donor(&store);
    let restore = |snap: &SessionSnapshot, what: &str| match what {
        "inline" => Session::restore(snap, &model),
        _ => Session::restore_stored(snap, &model, trace.clone()),
    };
    let cases: [(&str, DriverEdit); 3] = [
        ("intact", |_| {}),
        ("one joint short", |s| {
            s.joints.pop();
        }),
        ("joint beyond its limit", |s| s.joints[1] = 10.0),
    ];
    for (case, corrupt) in cases {
        for (snap, what) in [(&inline, "inline"), (&by_ref, "by-reference")] {
            let mut carrying = snap.clone();
            let mut state = snap.executed.clone();
            corrupt(&mut state);
            carrying.reference = Some(state);
            let decoded = SessionSnapshot::from_bytes(&carrying.to_bytes()).expect("decodes");
            match (case, restore(&decoded, what)) {
                ("intact", Ok(_)) => {}
                ("intact", Err(err)) => panic!("{what}, intact reference gave {err:?}"),
                (_, Err(RestoreError::Invalid(reason))) => {
                    assert!(reason.contains("reference"), "{what}, {case}: {reason}")
                }
                (_, Err(other)) => panic!("{what}, {case} gave {other:?}"),
                (_, Ok(_)) => panic!("{what}, {case} restored"),
            }
        }
    }
}

/// Mid-run gated donor: a few ingress slots consumed, one still queued.
fn gated_donor() -> SessionSnapshot {
    let model = niryo_one();
    let home = model.home();
    let spec = SessionSpec::new(
        12,
        SourceSpec::Gated {
            initial: home.clone(),
            inbox_capacity: 8,
        },
        ChannelSpec::Ideal,
        RecoverySpec::Baseline,
    );
    let mut session = Session::open(&spec, &model);
    for _ in 0..4 {
        session.offer(home.clone());
        assert!(matches!(session.advance(), Advance::Ticked(_)));
    }
    session.offer(home.clone());
    session.snapshot().expect("gated donor snapshotable")
}

/// The streamed spec behind the jammed donor: the Fig.-8 cell (25
/// stations, `p_if` 0.025, `T_if` 10 slots) in front of a VAR engine.
fn jammed_streamed_spec(model: &ArmModel) -> SessionSpec {
    SessionSpec::new(
        14,
        SourceSpec::Streamed {
            initial: model.home(),
            inbox_capacity: 64,
        },
        ChannelSpec::Jammed {
            link: LinkConfig {
                stations: 25,
                interference: Interference::new(0.025, 10),
                ..LinkConfig::default()
            },
            tolerance: 0.0,
            seed: 15,
        },
        RecoverySpec::FoReCo {
            forecaster: SharedForecaster::new(shared_var().clone()),
            config: RecoveryConfig::for_model(model),
        },
    )
}

/// The `k`-th operator command of the jammed donor: small deterministic
/// offsets around the home pose.
fn jammed_command(home: &[f64], k: u64) -> Vec<f64> {
    home.iter()
        .enumerate()
        .map(|(j, q)| q + 0.01 * (((k * 31 + j as u64) % 7) as f64 - 3.0) / 3.0)
        .collect()
}

/// The jammed donor: 48 commands ticked over the jammed link, 12 more
/// queued, then closed, so it runs out by draining its inbox.
fn jammed_streamed_session(model: &ArmModel) -> Session {
    let home = model.home();
    let mut session = Session::open(&jammed_streamed_spec(model), model);
    for k in 0..48u64 {
        session.offer(jammed_command(&home, k));
        assert!(matches!(session.advance(), Advance::Ticked(_)));
    }
    for k in 48..60u64 {
        session.offer(jammed_command(&home, k));
    }
    session.close();
    session
}

// ---------------------------------------------------------------------
// The v5 arms: canonical forecaster state and binary channel specs.
// ---------------------------------------------------------------------

/// One state per family the canonical form covers, VAR in both modes
/// and VARMA with its stage-1 VAR.
fn every_family() -> Vec<ForecasterState> {
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
    vec![
        ForecasterState::Ma(MovingAverage::new(5, 6)),
        ForecasterState::Holt(Holt::default_teleop(5, 6)),
        ForecasterState::Kalman(KalmanCv::default_teleop(8, 6)),
        ForecasterState::Var(shared_var().clone()),
        ForecasterState::Var(Var::fit(&train, 3, 1e-6).expect("fit levels VAR")),
        ForecasterState::Varma(Varma::fit(&train, 3, 2, 1e-6).expect("fit VARMA")),
    ]
}

#[test]
fn canonical_form_round_trips_every_family_bit_exactly() {
    for state in every_family() {
        let bytes = state.canonical_bytes();
        let back = ForecasterState::from_canonical_bytes(&bytes).expect("canonical form decodes");
        assert_eq!(back, state, "{}", state.name());
        // Raw `to_bits` words: equal bytes are equal bits.
        assert_eq!(back.canonical_bytes(), bytes, "{}", state.name());
        // The same bytes are the v5 frame's forecaster field.
        let snap = donor_with_engine(|e| e.forecaster = state.clone());
        let decoded = SessionSnapshot::from_bytes(&snap.to_bytes()).expect("v5 frame decodes");
        assert_eq!(
            decoded,
            snap,
            "{}: v5 round-trip must be exact",
            state.name()
        );
    }
}

/// Byte offset of the first coefficient in a VAR's canonical form:
/// tag, `r`, `dims`, mode byte, then the matrix's `rows` and `cols`.
const VAR_FIRST_COEFFICIENT: usize = 1 + 8 + 8 + 1 + 8 + 8;

/// The shared VAR with its first coefficient's bits replaced.
fn var_with_first_coefficient(bits: u64) -> ForecasterState {
    let mut bytes = ForecasterState::Var(shared_var().clone()).canonical_bytes();
    bytes[VAR_FIRST_COEFFICIENT..VAR_FIRST_COEFFICIENT + 8].copy_from_slice(&bits.to_le_bytes());
    ForecasterState::from_canonical_bytes(&bytes).expect("edited VAR decodes")
}

#[test]
fn canonical_form_keeps_the_store_identity_invariant() {
    use foreco::store::model_object_id;
    use std::sync::Arc;
    let store = Storage::new();
    let insert = |state: &ForecasterState| {
        store
            .insert_model(Arc::from(state.build()))
            .expect("snapshotable family")
    };
    let distinct = [
        (0.0f64.to_bits(), (-0.0f64).to_bits(), "+0.0 vs -0.0"),
        (
            0x7ff8_0000_0000_0001,
            0x7ff8_0000_0000_0002,
            "two NaN payloads",
        ),
    ];
    let mut claims = Vec::new();
    for (a, b, case) in distinct {
        let (a, b) = (var_with_first_coefficient(a), var_with_first_coefficient(b));
        assert_ne!(a.canonical_bytes(), b.canonical_bytes(), "{case}: bytes");
        assert_ne!(model_object_id(&a), model_object_id(&b), "{case}: ids");
        let (ca, cb) = (insert(&a), insert(&b));
        assert_ne!(ca.id(), cb.id(), "{case}: store objects");
        claims.extend([ca, cb]);
    }
    assert_eq!(store.stats().models.objects, 4, "four distinct models");
    // Bit-identical NaNs are the same content: they dedup.
    let again = insert(&var_with_first_coefficient(0x7ff8_0000_0000_0001));
    assert_eq!(again.id(), claims[2].id(), "identical NaN payloads dedup");
    assert_eq!(store.stats().models.objects, 4, "no new object");
}

/// The byte range `needle` occupies in `frame` (its only occurrence).
fn field_range(frame: &[u8], needle: &[u8]) -> std::ops::Range<usize> {
    let at = frame
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("field present in the frame");
    at..at + needle.len()
}

/// Byte-by-byte mutants of the v5 forecaster field of the VAR-FoReCo
/// scripted donor, and of the whole v5 jammed streamed frame (its
/// channel spec, RNG words, fate buffer and forecaster included):
/// decode → restore → run, never a panic.
#[test]
fn v5_mutants_run_to_completion() {
    const STRIDE: usize = if cfg!(debug_assertions) { 3 } else { 1 };
    let model = niryo_one();

    let scripted = donor_bytes();
    let state = SessionSnapshot::from_bytes(scripted).expect("donor decodes");
    assert_eq!(state.version, SNAPSHOT_VERSION);
    let field = field_range(
        scripted,
        &state
            .engine
            .as_ref()
            .expect("engine")
            .forecaster
            .canonical_bytes(),
    );
    let restored = assert_mutants_run_to_completion(scripted, field, STRIDE, |snap| {
        Session::restore(snap, &model)
    });
    assert!(restored > 0, "payload-only forecaster mutants must run");

    let jammed = jammed_streamed_session(&model)
        .snapshot()
        .expect("jammed snapshot")
        .to_bytes();
    let restored = assert_mutants_run_to_completion(&jammed, 0..jammed.len(), STRIDE, |snap| {
        Session::restore(snap, &model)
    });
    assert!(restored > 0, "payload-only jammed mutants must run");
}

#[test]
fn jammed_streamed_donor_round_trips_and_restores_bit_identically() {
    let model = niryo_one();
    let mut donor = jammed_streamed_session(&model);
    let snap = donor.snapshot().expect("jammed snapshot");
    assert!(matches!(
        &snap.source,
        foreco::serve::snapshot::SourceState::Streamed { channel, .. }
            if matches!(**channel, ChannelSpec::Jammed { .. })
    ));
    let decoded = SessionSnapshot::from_bytes(&snap.to_bytes()).expect("decode");
    assert_eq!(decoded, snap, "jammed v5 round-trip must be exact");
    let twin = run_out(&mut donor);
    let resumed = run_out(&mut Session::restore(&decoded, &model).expect("restore"));
    assert_reports_bit_identical(&twin, &resumed, "jammed v5 restore");
}

// ---------------------------------------------------------------------
// Layer 3: targeted malformed shapes.
// ---------------------------------------------------------------------

#[test]
fn binary_version_skew_is_rejected() {
    for skew in [2u32, SNAPSHOT_VERSION + 1, 99] {
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

/// `state`'s JSON with `from` replaced by `to` (once).
fn edited_state(state: ForecasterState, from: &str, to: &str) -> String {
    let json = serde_json::to_string(&state).expect("forecaster JSON");
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
            let mut json =
                serde_json::to_string(&ForecasterState::Varma(varma)).expect("forecaster JSON");
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

/// Channel specs that decode but would panic when built: each assert
/// reachable from `ChannelSpec::build`, NaN included.
fn hostile_channel_specs() -> Vec<(&'static str, ChannelSpec)> {
    let loss = |burst_len, burst_prob| ChannelSpec::ControlledLoss {
        burst_len,
        burst_prob,
        seed: 1,
    };
    let jammed = |edit: fn(&mut LinkConfig), tolerance| {
        let mut link = LinkConfig::default();
        edit(&mut link);
        ChannelSpec::Jammed {
            link,
            tolerance,
            seed: 1,
        }
    };
    vec![
        ("burst_prob 2.0", loss(4, 2.0)),
        ("burst_prob NaN", loss(4, f64::NAN)),
        ("burst_len 0", loss(0, 0.02)),
        ("tolerance < 0", jammed(|_| {}, -0.001)),
        ("tolerance NaN", jammed(|_| {}, f64::NAN)),
        ("period 0", jammed(|l| l.period = 0.0, 0.0)),
        ("period NaN", jammed(|l| l.period = f64::NAN, 0.0)),
        ("queue_capacity 0", jammed(|l| l.queue_capacity = 0, 0.0)),
        ("stations 0", jammed(|l| l.stations = 0, 0.0)),
        ("cw_min 1", jammed(|l| l.params.cw_min = 1, 0.0)),
        ("slot NaN", jammed(|l| l.params.slot = f64::NAN, 0.0)),
        (
            "data_rate NaN",
            jammed(|l| l.params.data_rate = f64::NAN, 0.0),
        ),
        (
            "backoff_stages 40",
            jammed(|l| l.params.backoff_stages = 40, 0.0),
        ),
        (
            "max_retx u32::MAX",
            jammed(|l| l.params.max_retx = u32::MAX, 0.0),
        ),
        (
            "header bits overflow",
            jammed(|l| l.params.mac_header_bits = u32::MAX, 0.0),
        ),
        ("p_if 1.5", jammed(|l| l.interference.prob = 1.5, 0.0)),
        ("p_if NaN", jammed(|l| l.interference.prob = f64::NAN, 0.0)),
        (
            "active interferer of 0 slots",
            jammed(
                |l| {
                    l.interference.prob = 0.5;
                    l.interference.duration_slots = 0;
                },
                0.0,
            ),
        ),
    ]
}

#[test]
fn hostile_channel_specs_are_rejected_at_restore() {
    use foreco::serve::snapshot::SourceState;
    for (case, spec) in hostile_channel_specs() {
        assert!(spec.validate().is_err(), "{case}: validate");
        for (mut snap, source) in [(streamed_donor(), "streamed"), (gated_donor(), "gated")] {
            match &mut snap.source {
                SourceState::Streamed { channel, .. } | SourceState::Gated { channel, .. } => {
                    **channel = spec.clone();
                }
                _ => panic!("{source} donor has a live channel"),
            }
            // Through the v5 frame: the spec decodes, restore refuses it.
            let decoded = SessionSnapshot::from_bytes(&snap.to_bytes()).expect("decodes");
            assert_rejected_at_restore(&decoded, &format!("{source}, {case}"));
        }
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

/// The donor both fixtures were generated from (see `regenerate`),
/// with the reference driver state its v1/v2 writer carried.
fn fixture_donor() -> (SessionSnapshot, SessionSpec, ArmModel) {
    let (donor, spec, model) = scripted_donor(true, 140);
    (legacy_json::with_reference(donor, &model), spec, model)
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

/// The v3 golden: a fleet archive (format v2, its parts v3 binary
/// frames) holding one inline `Scripted` part and one `ScriptedRef`
/// part, written by the last build whose encoder stamped v3. Frozen:
/// no later build can write a v3 frame, so `regenerate` leaves it be.
const V3_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/snapshot_v3.bin"
);

/// The reports the v3 build produced for the two fixture parts, one
/// [`report_digest`] line each, in part order.
const V3_DIGESTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/snapshot_v3.digests"
);

/// The spec behind the fixture's `ScriptedRef` part: the golden donor's
/// recorded trace, filed into `store`, under its own loss pattern.
fn stored_fixture_spec(store: &Storage, model: &ArmModel) -> SessionSpec {
    let trace = Dataset::record(Skill::Inexperienced, 1, 0.02, 42);
    SessionSpec::new(
        11,
        SourceSpec::stored(store, &trace),
        ChannelSpec::ControlledLoss {
            burst_len: 6,
            burst_prob: 0.03,
            seed: 13,
        },
        RecoverySpec::FoReCo {
            forecaster: SharedForecaster::new(shared_var().clone()),
            config: RecoveryConfig::for_model(model),
        },
    )
}

/// Every report field a restore must reproduce, f64s as bit patterns.
fn report_digest(r: &foreco::serve::SessionReport) -> String {
    format!(
        "id={} ticks={} misses={} drops={} rmse={:016x} max={:016x} stats={:?}",
        r.id,
        r.ticks,
        r.misses,
        r.overflow_drops,
        r.rmse_mm.to_bits(),
        r.max_deviation_mm.to_bits(),
        r.stats
    )
}

#[test]
fn v3_golden_fixture_decodes_and_restores_bit_identically() {
    use foreco::serve::snapshot::SourceState;
    use foreco::serve::FleetArchive;
    let bytes = std::fs::read(V3_FIXTURE).expect("committed v3 golden fixture");
    let digests = std::fs::read_to_string(V3_DIGESTS).expect("committed v3 digests");
    let expected: Vec<&str> = digests.lines().collect();
    let archive = FleetArchive::from_bytes(&bytes).expect("v3 golden archive decodes");
    let parts = archive.sessions().expect("v3 golden frames decode");
    assert_eq!(parts.len(), 2, "one inline and one by-reference part");
    assert_eq!(expected.len(), parts.len(), "one digest per part");
    assert!(parts.iter().all(|p| p.version == 3), "frames stamped v3");
    let model = niryo_one();

    // Part 0: the inline script, restored without any store.
    assert!(matches!(parts[0].source, SourceState::Scripted { .. }));
    let (_, spec, _) = fixture_donor();
    let twin = run_out(&mut Session::open(&spec, &model));
    let resumed = run_out(&mut Session::restore(&parts[0], &model).expect("inline restores"));
    assert_reports_bit_identical(&twin, &resumed, "v3 inline part");
    assert_eq!(
        report_digest(&resumed),
        expected[0],
        "v3 inline part digest"
    );

    // Part 1: the script by reference, claimed from the archive's table.
    let SourceState::ScriptedRef { trace, .. } = &parts[1].source else {
        panic!("second v3 part must be by reference");
    };
    let store = Storage::new();
    let entry = archive
        .trace(*trace)
        .expect("referenced trace in the table");
    let claim = store.insert_trace(&entry.commands);
    assert_eq!(claim.id(), *trace, "table entry is the referenced trace");
    let spec = stored_fixture_spec(&store, &model);
    let twin = run_out(&mut Session::open(&spec, &model));
    let resumed =
        run_out(&mut Session::restore_stored(&parts[1], &model, claim).expect("ref restores"));
    assert_reports_bit_identical(&twin, &resumed, "v3 by-reference part");
    assert_eq!(
        report_digest(&resumed),
        expected[1],
        "v3 by-reference digest"
    );
}

/// The v4 golden: a fleet archive (format v2, its parts v4 binary
/// frames) holding one inline `Scripted` VAR part, one
/// trajectory-backed `ScriptedRef` part (no reference driver state) and
/// one streamed part on a jammed link, written by the last build whose
/// encoder stamped v4. Its frames carry the forecaster and the jammed
/// channel spec as JSON sub-blobs, so it pins those v4 decode arms.
/// Frozen like the v3 golden.
const V4_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/snapshot_v4.bin"
);

/// The reports the v4 build produced for the three fixture parts, one
/// [`report_digest`] line each, in part order.
const V4_DIGESTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/snapshot_v4.digests"
);

#[test]
fn v4_golden_fixture_decodes_and_restores_bit_identically() {
    use foreco::serve::snapshot::SourceState;
    use foreco::serve::FleetArchive;
    let bytes = std::fs::read(V4_FIXTURE).expect("committed v4 golden fixture");
    let digests = std::fs::read_to_string(V4_DIGESTS).expect("committed v4 digests");
    let expected: Vec<&str> = digests.lines().collect();
    let archive = FleetArchive::from_bytes(&bytes).expect("v4 golden archive decodes");
    let parts = archive.sessions().expect("v4 golden frames decode");
    assert_eq!(parts.len(), 3, "inline, by-reference and jammed parts");
    assert_eq!(expected.len(), parts.len(), "one digest per part");
    assert!(parts.iter().all(|p| p.version == 4), "frames stamped v4");
    let model = niryo_one();
    // Each part re-encodes as a v5 frame that decodes to the same state.
    for part in &parts {
        let mut v5 = part.clone();
        v5.version = SNAPSHOT_VERSION;
        let back = SessionSnapshot::from_bytes(&v5.to_bytes()).expect("v5 re-encode decodes");
        assert_eq!(back, v5, "v4 → v5 cross-decode");
    }

    // Part 0: the inline script, equal to today's donor field for field.
    let (mut donor, spec, _) = fixture_donor();
    donor.version = 4;
    assert_eq!(parts[0], donor, "v4 inline part is the deterministic donor");
    let twin = run_out(&mut Session::open(&spec, &model));
    let resumed = run_out(&mut Session::restore(&parts[0], &model).expect("inline restores"));
    assert_reports_bit_identical(&twin, &resumed, "v4 inline part");
    assert_eq!(report_digest(&resumed), expected[0], "v4 inline digest");

    // Part 1: the script by reference, onto its trace's memo trajectory.
    let SourceState::ScriptedRef { trace, .. } = &parts[1].source else {
        panic!("second v4 part must be by reference");
    };
    assert!(parts[1].reference.is_none(), "trajectory-backed part");
    let store = Storage::new();
    let entry = archive
        .trace(*trace)
        .expect("referenced trace in the table");
    let claim = store.insert_trace(&entry.commands);
    assert_eq!(claim.id(), *trace, "table entry is the referenced trace");
    let spec = stored_fixture_spec(&store, &model);
    let twin = run_out(&mut Session::open(&spec, &model));
    let resumed =
        run_out(&mut Session::restore_stored(&parts[1], &model, claim).expect("ref restores"));
    assert_reports_bit_identical(&twin, &resumed, "v4 by-reference part");
    assert_eq!(
        report_digest(&resumed),
        expected[1],
        "v4 by-reference digest"
    );

    // Part 2: the jammed streamed session, its JSON channel spec decoded
    // to exactly today's donor state.
    let mut twin = jammed_streamed_session(&model);
    let mut donor = twin.snapshot().expect("jammed snapshot");
    donor.version = 4;
    assert_eq!(parts[2], donor, "v4 jammed part is the deterministic donor");
    let twin = run_out(&mut twin);
    let resumed = run_out(&mut Session::restore(&parts[2], &model).expect("jammed restores"));
    assert_reports_bit_identical(&twin, &resumed, "v4 jammed part");
    assert_eq!(report_digest(&resumed), expected[2], "v4 jammed digest");
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

/// The v5 golden: a fleet archive (format v2, its parts v5 binary
/// frames) written by the last build before the forecaster state and the
/// session frames shared one codec, so an encoder and decoder that
/// drift in step still fail here. Part order: the inline `Scripted` VAR
/// donor, a `ScriptedRef` VAR part, a closed gated VAR part (a miss, a
/// late patch and a command still queued), the closed jammed streamed
/// VAR part, then one `ScriptedRef` FoReCo part each for MA,
/// Holt, Kalman-CV and VARMA. Frozen like the v3 and v4 goldens: a
/// later encoder must reproduce these bytes, never rewrite them.
const V5_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/snapshot_v5.bin"
);

/// One [`report_digest`] line per v5 fixture part, in part order, then
/// one `model <family> <store id>` line per part that carries an
/// engine: the content address the writing build gave its forecaster.
const V5_DIGESTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/snapshot_v5.digests"
);

#[test]
fn v5_golden_fixture_reencodes_exactly_and_restores_bit_identically() {
    use foreco::serve::snapshot::SourceState;
    use foreco::serve::FleetArchive;
    use foreco::store::model_object_id;
    let bytes = std::fs::read(V5_FIXTURE).expect("committed v5 golden fixture");
    let digests = std::fs::read_to_string(V5_DIGESTS).expect("committed v5 digests");
    let (models, reports): (Vec<&str>, Vec<&str>) =
        digests.lines().partition(|l| l.starts_with("model "));
    let archive = FleetArchive::from_bytes(&bytes).expect("v5 golden archive decodes");
    assert_eq!(archive.to_bytes(), bytes, "archive re-encodes to its bytes");
    let frames: Vec<&[u8]> = archive.part_frames().collect();
    assert_eq!(frames.len(), 8, "eight fixture parts");
    assert_eq!(reports.len(), frames.len(), "one digest per part");

    let model = niryo_one();
    let store = Storage::new();
    let mut families = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let part = SessionSnapshot::from_bytes(frame).expect("v5 frame decodes");
        assert_eq!(part.version, 5, "part {i}: stamped v5");
        assert_eq!(&part.to_bytes(), frame, "part {i}: re-encodes to its bytes");
        let kind = match &part.source {
            SourceState::Scripted { .. } => "inline",
            SourceState::ScriptedRef { .. } => "by-reference",
            SourceState::Gated { .. } => "gated",
            SourceState::Streamed { channel, .. } => {
                assert!(matches!(**channel, ChannelSpec::Jammed { .. }));
                "jammed"
            }
        };
        let expected_kind = match i {
            0 => "inline",
            2 => "gated",
            3 => "jammed",
            _ => "by-reference",
        };
        assert_eq!(kind, expected_kind, "part {i}: source");
        let mut session = match &part.source {
            SourceState::ScriptedRef { trace, .. } => {
                let entry = archive
                    .trace(*trace)
                    .expect("referenced trace in the table");
                let claim = store.insert_trace(&entry.commands);
                assert_eq!(claim.id(), *trace, "part {i}: table entry");
                Session::restore_stored(&part, &model, claim)
            }
            _ => Session::restore(&part, &model),
        }
        .unwrap_or_else(|e| panic!("part {i} restores: {e}"));
        let report = run_out(&mut session);
        assert_eq!(report_digest(&report), reports[i], "part {i}: digest");
        let engine = part.engine.as_ref().expect("every v5 part is FoReCo");
        let state = &engine.forecaster;
        let line = format!("model {} {}", state.name(), model_object_id(state));
        assert_eq!(
            models.get(families.len()),
            Some(&line.as_str()),
            "part {i}: store id"
        );
        families.push(state.name());
    }
    for family in ["VAR", "VARMA", "Kalman-CV", "MA", "Holt"] {
        assert!(families.contains(&family), "a {family} part");
    }
    assert_eq!(models.len(), families.len(), "one store id per engine part");
}
