//! Session checkpointing: the versioned, serialisable form of a live
//! [`Session`](crate::Session).
//!
//! FoReCo's recovery is *stateful* — the forecaster's history window,
//! the engine's outage counters, the PID integrators, and the channel's
//! RNG position are what turn losses into imputed commands — so moving
//! a session between shards or across a process restart without
//! changing a single output means capturing **all** of it. A
//! [`SessionSnapshot`] is that capture:
//!
//! | layer | state captured |
//! |---|---|
//! | session  | id, virtual tick, period, error accumulators, miss count |
//! | source   | scripted: remaining script + pre-drawn fates; streamed: inbox queue + counters, channel spec + RNG words, buffered fates, closing flag |
//! | recovery | engine history + forecast slots + counters + config + concrete forecaster ([`foreco_core::EngineSnapshot`]) |
//! | robot    | executed driver's joints, held command, PID integral/derivative memory ([`foreco_robot::DriverState`]); a streamed or gated source's live reference driver too; absent (v4+) on a scripted source, whose reference trajectory restore re-derives from the script |
//! | pending  | late commands awaiting §VII-C history patches |
//!
//! # Format and versioning
//!
//! [`SessionSnapshot::to_bytes`] writes the **v5 binary frame**: a
//! length-prefixed little-endian layout in the style of the wire codec
//! (`foreco-net`'s `wire.rs`) — 4-byte magic [`SNAPSHOT_MAGIC`], a
//! `u32` format version, then every field in a fixed order with `f64`s
//! carried as raw [`f64::to_bits`] words (bit-lossless by construction,
//! `-0.0` and NaN payloads included) and fate streams kept in their
//! run-length-encoded form. The primitives (integers, words, flags,
//! rows, counts) are `foreco_forecast::codec`'s, the same writers and
//! the one bounds-checked `Reader` the forecaster state and the fleet
//! archive use; this module adds only the domain fields on top of them.
//! Decoding never panics: every malformed shape maps to a typed
//! [`RestoreError`] (a cursor error through `From<StateCodecError>`),
//! pinned by the `tests/snapshot_codec.rs` property suite and the
//! frozen v3–v5 goldens.
//!
//! Every frame carries its format version; [`SessionSnapshot::from_bytes`]
//! rejects versions this build does not write with
//! [`RestoreError::Version`] instead of misreading a future layout.
//! Bump [`SNAPSHOT_VERSION`] whenever a field changes meaning, and keep
//! decoding old versions explicit (a `match` on the version), never
//! implicit.
//!
//! **v4 → v5.** v5 is the v4 layout with no JSON left in it. The
//! forecaster field is the length-prefixed canonical binary form of
//! [`ForecasterState`] (`ForecasterState::encode_into`, the same bytes
//! the store addresses a model by), and a jammed [`ChannelSpec`] is
//! written field by field like every other channel. v3/v4 frames keep
//! decoding both fields through their canonical-JSON sub-blob arms (the
//! committed `tests/fixtures/snapshot_v4.bin` golden pins them, a
//! jammed streamed part included).
//!
//! **v3 → v4.** v4 is the v3 layout with the reference driver state
//! made optional (a presence byte before it): a session on a stored
//! trace reads a precomputed reference trajectory and snapshots none. v3 frames decode through their own `match` arm and
//! always carry the state (the committed `tests/fixtures/snapshot_v3.bin`
//! golden pins that arm).
//!
//! **v1/v2 → v3.** Versions 1 and 2 were JSON documents rendered
//! through the in-tree serde shim (shortest-round-trip floats, 64-bit
//! integers beyond ±2⁵³ as decimal strings). v2 added the dedup-aware
//! [`SourceState::ScriptedRef`] variant (content address + RLE fates in
//! place of the materialised script). Both remain first-class decode
//! arms: [`SessionSnapshot::from_bytes`] sniffs the leading byte — a
//! `{` is a legacy JSON document parsed behind an explicit version
//! `match` (`1 | 2`), anything else must open with the binary magic.
//! Nothing in the library writes a JSON snapshot anymore: persisted
//! v1/v2 documents decode forever, and the committed golden fixtures
//! (`tests/fixtures/snapshot_v{1,2}.json`) are rendered by the test
//! tree's `legacy_json` helper.
//!
//! The encoder is allocation-free for fleet use:
//! [`SessionSnapshot::encode_into`] appends to a caller-owned scratch
//! buffer, so a shard checkpointing thousands of sessions reuses one
//! growing `Vec<u8>` and allocates only when the scratch grows
//! (`tests/hot_path_allocs.rs` counts 0 allocations into a warm
//! scratch).
//!
//! # Determinism contract
//!
//! Restoring a snapshot — on the same shard, another shard, or another
//! process — and running the session to completion yields a
//! [`SessionReport`](crate::SessionReport) **bit-identical** to the
//! uninterrupted run's, including `f64` bit patterns of the RMSE and
//! deviation accumulators. `tests/snapshot_roundtrip.rs` pins this with
//! a property suite over random specs, seeds, and snapshot ticks.
//!
//! **Parked sessions** need no extra fields: before a shard checkpoints
//! (or migrates) a parked session it replays the idle backlog with
//! [`Session::catch_up`](crate::Session::catch_up), so the snapshot is
//! exactly what an eager shard would have produced at that pass — tick,
//! accumulators, driver clocks, engine counters, and any `pending_late`
//! entries included. On restore, the receiving shard re-derives the
//! park verdict from [`Session::wake_hint`](crate::Session::wake_hint)
//! (parked-ness is a property of the state, not a stored flag) and the
//! session resumes bit-identically — the parked-snapshot property in
//! `tests/snapshot_roundtrip.rs` pins that round trip too.

use crate::inbox::{GatedInboxState, GatedSlot, InboxState};
use crate::spec::{ChannelSpec, SessionId};
use foreco_core::channel::Arrival;
use foreco_core::{EngineSnapshot, RecoveryConfig, RecoveryStats};
use foreco_forecast::codec::{
    put_bool, put_f64, put_opt, put_opt_f64, put_prefixed, put_row, put_rows, put_u32, put_u64,
    put_u8, put_usize, Reader,
};
use foreco_forecast::{ForecasterState, StateCodecError};
use foreco_robot::{DriverConfig, DriverState, PidGains, PidState};
use foreco_store::ObjectId;
use foreco_wifi::{Interference, LinkConfig, Params};
use serde::{Deserialize, Serialize};

/// Current snapshot format version (see the module docs for the
/// versioning policy). v2 added [`SourceState::ScriptedRef`]; v3 moved
/// the frame from JSON to the length-prefixed binary layout; v4 made
/// the reference driver state optional; v5 made the forecaster and
/// jammed-channel fields binary. v1/v2 JSON and v3/v4 binary decoding
/// are retained behind explicit `match` arms.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Leading magic of every binary (v3+) snapshot frame. Deliberately not
/// `{`: the decoder dispatches legacy JSON documents on that byte.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"FSNP";

/// One run of identical channel fates: the one form of a scripted
/// session's pre-drawn fates, both in memory (the live session reads them
/// through a cursor on its current run) and in a
/// [`SourceState::ScriptedRef`] archive entry, where it keeps
/// per-session parts small (a fate stream is overwhelmingly `OnTime`
/// runs broken by short loss bursts). A fleet part copies the session's
/// runs, so neither a fleet checkpoint nor its restore compresses or
/// expands a stream.
///
/// The encoding is lossless at the bit level: runs are grouped by fate
/// *bit pattern* (`Late` delays compare via [`f64::to_bits`]), so
/// expansion reproduces the original stream exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FateRun {
    /// The repeated fate.
    pub fate: Arrival,
    /// How many consecutive slots share it.
    pub count: u64,
}

/// True when two fates are the same bits (the run-grouping equality;
/// `f64::eq` would merge `Late(-0.0)` into `Late(0.0)` runs).
fn same_fate(a: Arrival, b: Arrival) -> bool {
    match (a, b) {
        (Arrival::OnTime, Arrival::OnTime) | (Arrival::Lost, Arrival::Lost) => true,
        (Arrival::Late(x), Arrival::Late(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

/// The canonical form of a run stream: zero-count runs dropped and
/// bit-equal neighbours merged, so equal per-slot streams have equal
/// runs. The caller has checked that the counts sum without overflow.
pub(crate) fn merge_runs(runs: impl IntoIterator<Item = FateRun>) -> Vec<FateRun> {
    let mut merged: Vec<FateRun> = Vec::new();
    for run in runs.into_iter().filter(|run| run.count > 0) {
        match merged.last_mut() {
            Some(last) if same_fate(last.fate, run.fate) => last.count += run.count,
            _ => merged.push(run),
        }
    }
    merged
}

/// Run-length-encodes a fate stream (see [`FateRun`]).
pub(crate) fn compress_fates(fates: &[Arrival]) -> Vec<FateRun> {
    merge_runs(fates.iter().map(|&fate| FateRun { fate, count: 1 }))
}

/// Checks that `runs` cover exactly a `commands`-row script.
///
/// # Errors
/// [`RestoreError::Invalid`] otherwise — checked before anything is
/// built from the runs, so a corrupt count word cannot become a huge
/// allocation.
pub(crate) fn check_fate_coverage(runs: &[FateRun], commands: usize) -> Result<(), RestoreError> {
    let total = runs
        .iter()
        .try_fold(0u64, |total, run| total.checked_add(run.count));
    if total != Some(commands as u64) {
        return Err(RestoreError::Invalid(format!(
            "fate runs do not cover the {commands}-command script"
        )));
    }
    Ok(())
}

/// Expands run-length-encoded fates back to the per-slot stream of a
/// `commands`-row script: the inline [`SourceState::Scripted`] form.
///
/// # Errors
/// As [`check_fate_coverage`], checked before anything is allocated.
pub(crate) fn expand_fates(
    runs: &[FateRun],
    commands: usize,
) -> Result<Vec<Arrival>, RestoreError> {
    check_fate_coverage(runs, commands)?;
    let mut fates = Vec::with_capacity(commands);
    for run in runs {
        for _ in 0..run.count {
            fates.push(run.fate);
        }
    }
    Ok(fates)
}

/// Serialised command source of a mid-run session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SourceState {
    /// A scripted (recorded/replayed) source: the full script and its
    /// pre-drawn per-command fates. The virtual tick indexes into both,
    /// so no separate cursor is needed. This self-contained form is the
    /// only per-slot fate stream left: a live session holds its fates as
    /// [`FateRun`]s, expanded here on [`Session::snapshot`] and
    /// compressed again on restore.
    ///
    /// [`Session::snapshot`]: crate::Session::snapshot
    Scripted {
        /// The command script, materialised (recorded sources are
        /// rendered to commands at open time, so the snapshot does not
        /// depend on the operator model).
        commands: Vec<Vec<f64>>,
        /// Pre-drawn channel outcome per command.
        fates: Vec<Arrival>,
    },
    /// A scripted source by reference (v2): the trace's content address
    /// in shared storage plus run-length-encoded fates. The script
    /// itself travels once per archive (or lives in a `foreco-store`
    /// [`Storage`](foreco_store::Storage)), not once per session — the
    /// encoding behind `ServiceHandle::snapshot_fleet`'s O(traces)
    /// instead of O(sessions × trace) archives.
    ScriptedRef {
        /// Content address of the command script.
        trace: ObjectId,
        /// Pre-drawn channel outcomes, run-length encoded: a copy of
        /// the live session's runs.
        fates: Vec<FateRun>,
    },
    /// A flow-controlled socket-ingress source (`SourceSpec::Gated`):
    /// the queued slot timeline, the (usually `Ideal`) composed
    /// impairment model, and the closing flag. Gated sessions park with
    /// their virtual clock *suspended*, so — like every other source —
    /// no extra scheduling state needs capturing: parked-ness is
    /// re-derived from the queue on restore.
    Gated {
        /// Queued ingress slots and accept/drop counters.
        inbox: crate::inbox::GatedInboxState,
        /// The composed impairment model's construction parameters.
        channel: Box<ChannelSpec>,
        /// The channel's raw RNG words at snapshot time.
        channel_rng: Option<[u64; 4]>,
        /// Fates drawn in chunks but not yet consumed, oldest first.
        fate_buf: Vec<Arrival>,
        /// Whether the session was already draining toward completion.
        closing: bool,
    },
    /// A live streamed source.
    Streamed {
        /// Queued commands and accept/drop counters.
        inbox: InboxState,
        /// The impairment model's construction parameters (boxed: a
        /// jammed-link spec is far larger than the scripted variant).
        channel: Box<ChannelSpec>,
        /// The channel's raw RNG words at snapshot time (`None` for
        /// stateless channels such as `ChannelSpec::Ideal`).
        channel_rng: Option<[u64; 4]>,
        /// Fates drawn in chunks but not yet consumed, oldest first.
        fate_buf: Vec<Arrival>,
        /// Whether the session was already draining toward completion.
        closing: bool,
    },
}

/// Complete serialisable state of one live session (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Snapshot format version ([`SNAPSHOT_VERSION`] at write time).
    pub version: u32,
    /// Session id (also the default shard-placement input).
    pub id: SessionId,
    /// Virtual tick at snapshot time.
    pub tick: u64,
    /// Virtual tick period `Ω` in seconds.
    pub period: f64,
    /// Driver configuration (PID gains, period).
    pub driver: DriverConfig,
    /// Deadline misses so far.
    pub misses: usize,
    /// Running sum of squared task-space deviation (mm²).
    pub acc_sq_mm: f64,
    /// Worst instantaneous deviation (mm) so far.
    pub worst_mm: f64,
    /// Command source state.
    pub source: SourceState,
    /// Recovery engine state (`None` for baseline sessions).
    pub engine: Option<EngineSnapshot>,
    /// Late commands awaiting delivery: `(arrival time, tick index,
    /// payload)`, mirroring the session's pending list (§VII-C).
    pub pending_late: Vec<(f64, usize, Vec<f64>)>,
    /// Reference (perfect-channel) driver state. A v4+ writer sets it
    /// iff the source is streamed or gated, the sources that tick a live
    /// reference driver. A scripted session reads a trajectory derived
    /// from its script instead: restore validates a scripted frame's
    /// copy (every v1–v3 frame carries one) against the arm, then
    /// re-derives the trajectory and drops it.
    pub reference: Option<DriverState>,
    /// Executed (impaired + recovered) driver state.
    pub executed: DriverState,
}

// ---------------------------------------------------------------------
// Domain fields of the binary (v3+) frame, over `foreco_forecast::codec`
// ---------------------------------------------------------------------

fn put_arrival(buf: &mut Vec<u8>, fate: Arrival) {
    match fate {
        Arrival::OnTime => put_u8(buf, 0),
        Arrival::Late(delay) => {
            put_u8(buf, 1);
            put_f64(buf, delay);
        }
        Arrival::Lost => put_u8(buf, 2),
    }
}

fn read_arrival(r: &mut Reader<'_>) -> Result<Arrival, RestoreError> {
    match r.u8()? {
        0 => Ok(Arrival::OnTime),
        1 => Ok(Arrival::Late(r.f64()?)),
        2 => Ok(Arrival::Lost),
        found => Err(RestoreError::BadTag {
            what: "arrival fate",
            found,
        }),
    }
}

fn put_fates(buf: &mut Vec<u8>, fates: &[Arrival]) {
    put_usize(buf, fates.len());
    for &fate in fates {
        put_arrival(buf, fate);
    }
}

fn read_fates(r: &mut Reader<'_>) -> Result<Vec<Arrival>, RestoreError> {
    let n = r.len("fate stream", 1)?;
    let mut fates = Vec::with_capacity(n);
    for _ in 0..n {
        fates.push(read_arrival(r)?);
    }
    Ok(fates)
}

/// A content address as two words, high first.
pub(crate) fn put_object_id(buf: &mut Vec<u8>, id: ObjectId) {
    let id = id.as_u128();
    put_u64(buf, (id >> 64) as u64);
    put_u64(buf, id as u64);
}

pub(crate) fn read_object_id(r: &mut Reader<'_>) -> Result<ObjectId, RestoreError> {
    let hi = r.u64()?;
    let lo = r.u64()?;
    Ok(ObjectId::from_u128(((hi as u128) << 64) | lo as u128))
}

/// A length-prefixed canonical-JSON sub-blob: how v3/v4 frames carried
/// the forecaster state and a jammed channel spec.
fn read_json_blob<T: Deserialize>(
    r: &mut Reader<'_>,
    what: &'static str,
) -> Result<T, RestoreError> {
    let text = std::str::from_utf8(r.bytes(what)?)
        .map_err(|_| RestoreError::Decode(format!("{what}: sub-blob is not UTF-8")))?;
    serde_json::from_str(text).map_err(|e| RestoreError::Decode(format!("{what}: {e}")))
}

fn put_driver_state(buf: &mut Vec<u8>, state: &DriverState) {
    put_row(buf, &state.joints);
    put_row(buf, &state.last_command);
    put_f64(buf, state.t);
    put_usize(buf, state.pids.len());
    for pid in &state.pids {
        put_f64(buf, pid.integral);
        put_opt_f64(buf, pid.prev_error);
    }
}

fn read_driver_state(r: &mut Reader<'_>) -> Result<DriverState, RestoreError> {
    let joints = r.row()?;
    let last_command = r.row()?;
    let t = r.f64()?;
    let n = r.len("pid states", 9)?;
    let mut pids = Vec::with_capacity(n);
    for _ in 0..n {
        pids.push(PidState {
            integral: r.f64()?,
            prev_error: r.opt_f64()?,
        });
    }
    Ok(DriverState {
        joints,
        last_command,
        t,
        pids,
    })
}

fn put_channel(buf: &mut Vec<u8>, channel: &ChannelSpec) {
    match channel {
        ChannelSpec::Ideal => put_u8(buf, 0),
        ChannelSpec::ControlledLoss {
            burst_len,
            burst_prob,
            seed,
        } => {
            put_u8(buf, 1);
            put_usize(buf, *burst_len);
            put_f64(buf, *burst_prob);
            put_u64(buf, *seed);
        }
        ChannelSpec::Jammed {
            link,
            tolerance,
            seed,
        } => {
            put_u8(buf, 2);
            put_link(buf, link);
            put_f64(buf, *tolerance);
            put_u64(buf, *seed);
        }
    }
}

/// The 802.11 link of a jammed channel (v5+), field by field.
pub(crate) fn put_link(buf: &mut Vec<u8>, link: &LinkConfig) {
    let p = &link.params;
    put_f64(buf, link.period);
    put_usize(buf, link.queue_capacity);
    put_f64(buf, p.slot);
    put_f64(buf, p.sifs);
    put_f64(buf, p.difs);
    for v in [p.cw_min, p.backoff_stages, p.max_retx] {
        put_u32(buf, v);
    }
    put_f64(buf, p.phy_header);
    for v in [p.mac_header_bits, p.payload_bits, p.ack_bits] {
        put_u32(buf, v);
    }
    put_f64(buf, p.data_rate);
    put_f64(buf, p.basic_rate);
    put_usize(buf, link.stations);
    put_f64(buf, link.interference.prob);
    put_u32(buf, link.interference.duration_slots);
}

fn read_link(r: &mut Reader<'_>) -> Result<LinkConfig, RestoreError> {
    Ok(LinkConfig {
        period: r.f64()?,
        queue_capacity: r.usize("link queue capacity")?,
        params: Params {
            slot: r.f64()?,
            sifs: r.f64()?,
            difs: r.f64()?,
            cw_min: r.u32()?,
            backoff_stages: r.u32()?,
            max_retx: r.u32()?,
            phy_header: r.f64()?,
            mac_header_bits: r.u32()?,
            payload_bits: r.u32()?,
            ack_bits: r.u32()?,
            data_rate: r.f64()?,
            basic_rate: r.f64()?,
        },
        stations: r.usize("link stations")?,
        interference: Interference {
            prob: r.f64()?,
            duration_slots: r.u32()?,
        },
    })
}

fn read_channel(r: &mut Reader<'_>, version: u32) -> Result<ChannelSpec, RestoreError> {
    match r.u8()? {
        0 => Ok(ChannelSpec::Ideal),
        1 => Ok(ChannelSpec::ControlledLoss {
            burst_len: r.usize("burst_len")?,
            burst_prob: r.f64()?,
            seed: r.u64()?,
        }),
        2 => match version {
            // v3/v4 carried the jammed spec as a canonical-JSON sub-blob.
            3 | 4 => read_json_blob::<ChannelSpec>(r, "channel spec"),
            _ => Ok(ChannelSpec::Jammed {
                link: read_link(r)?,
                tolerance: r.f64()?,
                seed: r.u64()?,
            }),
        },
        found => Err(RestoreError::BadTag {
            what: "channel spec",
            found,
        }),
    }
}

fn put_gated_slot(buf: &mut Vec<u8>, slot: &GatedSlot) {
    match slot {
        GatedSlot::Command(row) => {
            put_u8(buf, 0);
            put_row(buf, row);
        }
        GatedSlot::Miss { count } => {
            put_u8(buf, 1);
            put_u64(buf, *count);
        }
        GatedSlot::Late { command, age } => {
            put_u8(buf, 2);
            put_row(buf, command);
            put_usize(buf, *age);
        }
    }
}

fn read_gated_slot(r: &mut Reader<'_>) -> Result<GatedSlot, RestoreError> {
    match r.u8()? {
        0 => Ok(GatedSlot::Command(r.row()?)),
        1 => Ok(GatedSlot::Miss { count: r.u64()? }),
        2 => Ok(GatedSlot::Late {
            command: r.row()?,
            age: r.usize("late age")?,
        }),
        found => Err(RestoreError::BadTag {
            what: "gated slot",
            found,
        }),
    }
}

/// The live-link fields a streamed and a gated source share, in frame
/// order: channel spec, RNG words, buffered fates, closing flag.
type LiveLink = (Box<ChannelSpec>, Option<[u64; 4]>, Vec<Arrival>, bool);

fn put_live_link(
    buf: &mut Vec<u8>,
    channel: &ChannelSpec,
    channel_rng: &Option<[u64; 4]>,
    fate_buf: &[Arrival],
    closing: bool,
) {
    put_channel(buf, channel);
    put_opt(buf, *channel_rng, |buf, words| {
        for w in words {
            put_u64(buf, w);
        }
    });
    put_fates(buf, fate_buf);
    put_bool(buf, closing);
}

fn read_live_link(
    r: &mut Reader<'_>,
    version: u32,
    closing: &'static str,
) -> Result<LiveLink, RestoreError> {
    Ok((
        Box::new(read_channel(r, version)?),
        r.opt("channel rng", |r| {
            Ok::<_, StateCodecError>([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
        })?,
        read_fates(r)?,
        r.bool(closing)?,
    ))
}

fn put_source(buf: &mut Vec<u8>, source: &SourceState) {
    match source {
        SourceState::Scripted { commands, fates } => {
            put_u8(buf, 0);
            put_rows(buf, commands);
            put_fates(buf, fates);
        }
        SourceState::ScriptedRef { trace, fates } => {
            put_u8(buf, 1);
            put_object_id(buf, *trace);
            put_usize(buf, fates.len());
            for run in fates {
                put_arrival(buf, run.fate);
                put_u64(buf, run.count);
            }
        }
        SourceState::Gated {
            inbox,
            channel,
            channel_rng,
            fate_buf,
            closing,
        } => {
            put_u8(buf, 2);
            put_usize(buf, inbox.capacity);
            put_usize(buf, inbox.queue.len());
            for slot in &inbox.queue {
                put_gated_slot(buf, slot);
            }
            put_u64(buf, inbox.accepted);
            put_u64(buf, inbox.dropped);
            put_live_link(buf, channel, channel_rng, fate_buf, *closing);
        }
        SourceState::Streamed {
            inbox,
            channel,
            channel_rng,
            fate_buf,
            closing,
        } => {
            put_u8(buf, 3);
            put_usize(buf, inbox.capacity);
            put_rows(buf, &inbox.queue);
            put_u64(buf, inbox.accepted);
            put_u64(buf, inbox.dropped);
            put_live_link(buf, channel, channel_rng, fate_buf, *closing);
        }
    }
}

fn read_source(r: &mut Reader<'_>, version: u32) -> Result<SourceState, RestoreError> {
    match r.u8()? {
        0 => Ok(SourceState::Scripted {
            commands: r.rows()?,
            fates: read_fates(r)?,
        }),
        1 => {
            let trace = read_object_id(r)?;
            let n = r.len("fate runs", 9)?;
            let mut fates = Vec::with_capacity(n);
            for _ in 0..n {
                fates.push(FateRun {
                    fate: read_arrival(r)?,
                    count: r.u64()?,
                });
            }
            Ok(SourceState::ScriptedRef { trace, fates })
        }
        2 => {
            let capacity = r.usize("gated inbox capacity")?;
            let n = r.len("gated inbox queue", 1)?;
            let mut queue = Vec::with_capacity(n);
            for _ in 0..n {
                queue.push(read_gated_slot(r)?);
            }
            let inbox = GatedInboxState {
                capacity,
                queue,
                accepted: r.u64()?,
                dropped: r.u64()?,
            };
            let (channel, channel_rng, fate_buf, closing) =
                read_live_link(r, version, "gated closing flag")?;
            Ok(SourceState::Gated {
                inbox,
                channel,
                channel_rng,
                fate_buf,
                closing,
            })
        }
        3 => {
            let inbox = InboxState {
                capacity: r.usize("inbox capacity")?,
                queue: r.rows()?,
                accepted: r.u64()?,
                dropped: r.u64()?,
            };
            let (channel, channel_rng, fate_buf, closing) =
                read_live_link(r, version, "streamed closing flag")?;
            Ok(SourceState::Streamed {
                inbox,
                channel,
                channel_rng,
                fate_buf,
                closing,
            })
        }
        found => Err(RestoreError::BadTag {
            what: "source state",
            found,
        }),
    }
}

fn put_engine(buf: &mut Vec<u8>, engine: &EngineSnapshot) {
    // Length-prefixed canonical binary state (v5+).
    put_prefixed(buf, |buf| engine.forecaster.encode_into(buf));
    let config = &engine.config;
    put_f64(buf, config.period);
    put_bool(buf, config.use_late_commands);
    put_opt(buf, config.limits.as_deref(), |buf, limits| {
        put_usize(buf, limits.len());
        for &(lo, hi) in limits {
            put_f64(buf, lo);
            put_f64(buf, hi);
        }
    });
    put_opt(buf, config.max_consecutive_forecasts, put_usize);
    put_opt_f64(buf, config.max_step);
    put_bool(buf, config.history_rebase);
    put_opt_f64(buf, config.trend_damping);
    put_rows(buf, &engine.history);
    put_usize(buf, engine.forecast_slots.len());
    for &slot in &engine.forecast_slots {
        put_bool(buf, slot);
    }
    put_usize(buf, engine.consecutive_forecasts);
    put_f64(buf, engine.burst_quality);
    let stats = &engine.stats;
    for v in [
        stats.ticks,
        stats.delivered,
        stats.forecasts,
        stats.warmup_repeats,
        stats.horizon_holds,
        stats.late_patches,
    ] {
        put_u64(buf, v);
    }
}

fn read_engine(r: &mut Reader<'_>, version: u32) -> Result<EngineSnapshot, RestoreError> {
    let forecaster = match version {
        // v3/v4 carried the state as a canonical-JSON sub-blob.
        3 | 4 => read_json_blob::<ForecasterState>(r, "forecaster state")?,
        _ => ForecasterState::from_canonical_bytes(r.bytes("forecaster state")?)?,
    };
    let period = r.f64()?;
    let use_late_commands = r.bool("use_late_commands")?;
    let limits = r.opt("joint limits", |r| {
        let n = r.len("joint limits", 16)?;
        let mut limits = Vec::with_capacity(n);
        for _ in 0..n {
            limits.push((r.f64()?, r.f64()?));
        }
        Ok::<_, StateCodecError>(limits)
    })?;
    let max_consecutive_forecasts =
        r.opt("forecast horizon", |r| r.usize("max_consecutive_forecasts"))?;
    let max_step = r.opt_f64()?;
    let history_rebase = r.bool("history_rebase")?;
    let trend_damping = r.opt_f64()?;
    let history = r.rows()?;
    let n = r.len("forecast slots", 1)?;
    let mut forecast_slots = Vec::with_capacity(n);
    for _ in 0..n {
        forecast_slots.push(r.bool("forecast slot")?);
    }
    let consecutive_forecasts = r.usize("consecutive_forecasts")?;
    let burst_quality = r.f64()?;
    let stats = RecoveryStats {
        ticks: r.u64()?,
        delivered: r.u64()?,
        forecasts: r.u64()?,
        warmup_repeats: r.u64()?,
        horizon_holds: r.u64()?,
        late_patches: r.u64()?,
    };
    Ok(EngineSnapshot {
        forecaster,
        config: RecoveryConfig {
            period,
            use_late_commands,
            limits,
            max_consecutive_forecasts,
            max_step,
            history_rebase,
            trend_damping,
        },
        history,
        forecast_slots,
        consecutive_forecasts,
        burst_quality,
        stats,
    })
}

impl SessionSnapshot {
    /// Appends the v5 binary frame to `buf` (which is **not** cleared:
    /// archive writers append frames back to back). Reusing one scratch
    /// buffer across a fleet's worth of encodes amortises the encoder
    /// to zero steady-state allocations per session: only scratch
    /// growth allocates.
    ///
    /// The frame carries `self.version` verbatim; the decoder is the
    /// authority on which versions are legal.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(buf, self.version);
        put_u64(buf, self.id);
        put_u64(buf, self.tick);
        put_f64(buf, self.period);
        put_f64(buf, self.driver.period);
        put_f64(buf, self.driver.gains.kp);
        put_f64(buf, self.driver.gains.ki);
        put_f64(buf, self.driver.gains.kd);
        put_usize(buf, self.misses);
        put_f64(buf, self.acc_sq_mm);
        put_f64(buf, self.worst_mm);
        put_source(buf, &self.source);
        put_opt(buf, self.engine.as_ref(), put_engine);
        put_usize(buf, self.pending_late.len());
        for (t, idx, row) in &self.pending_late {
            put_f64(buf, *t);
            put_usize(buf, *idx);
            put_row(buf, row);
        }
        put_opt(buf, self.reference.as_ref(), put_driver_state);
        put_driver_state(buf, &self.executed);
    }

    /// Serialises the snapshot to its portable byte form: the v5 binary
    /// frame (see [`SessionSnapshot::encode_into`] for the reusable-
    /// scratch variant fleet checkpointing uses).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Parses a snapshot previously produced by
    /// [`SessionSnapshot::to_bytes`] (binary v5), a persisted v3/v4
    /// binary frame, or a persisted legacy JSON document (v1/v2). The
    /// first byte dispatches: `{` selects the legacy JSON parser, the
    /// binary magic selects the frame decoder. Per the versioning
    /// invariant, every legal version is an explicit `match` arm.
    ///
    /// # Errors
    /// A typed [`RestoreError`] for every malformed shape — truncation,
    /// bad magic, corrupt tags, oversized length words, trailing bytes,
    /// version skew — never a panic (`tests/snapshot_codec.rs`).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RestoreError> {
        if bytes.first() == Some(&b'{') {
            let text = std::str::from_utf8(bytes)
                .map_err(|_| RestoreError::Decode("snapshot is not UTF-8".into()))?;
            let snap: SessionSnapshot =
                serde_json::from_str(text).map_err(|e| RestoreError::Decode(e.to_string()))?;
            return match snap.version {
                // v1: same field layout as v2 minus `ScriptedRef`, which
                // a v1 writer cannot have produced — this parse already
                // is the v1 decoder. Restore validation enforces the
                // variant restriction.
                1 => Ok(snap),
                // v2: the last JSON format.
                2 => Ok(snap),
                // v3+ is a binary frame by definition; a JSON document
                // claiming it is malformed, not merely foreign.
                found @ 3..=SNAPSHOT_VERSION => Err(RestoreError::Decode(format!(
                    "version {found} snapshots use the binary frame, not JSON"
                ))),
                found => Err(RestoreError::Version {
                    found,
                    expected: SNAPSHOT_VERSION,
                }),
            };
        }
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(RestoreError::BadMagic {
                found: magic.try_into().expect("4 bytes"),
            });
        }
        let version = r.u32()?;
        match version {
            // v3: the reference driver state is always present; v3/v4:
            // JSON forecaster and jammed-channel sub-blobs.
            3 | 4 | SNAPSHOT_VERSION => {}
            found => {
                return Err(RestoreError::Version {
                    found,
                    expected: SNAPSHOT_VERSION,
                })
            }
        }
        let id = r.u64()?;
        let tick = r.u64()?;
        let period = r.f64()?;
        let driver = DriverConfig {
            period: r.f64()?,
            gains: PidGains {
                kp: r.f64()?,
                ki: r.f64()?,
                kd: r.f64()?,
            },
        };
        let misses = r.usize("miss count")?;
        let acc_sq_mm = r.f64()?;
        let worst_mm = r.f64()?;
        let source = read_source(&mut r, version)?;
        let engine = r.opt("engine presence", |r| read_engine(r, version))?;
        let n = r.len("pending late commands", 24)?;
        let mut pending_late = Vec::with_capacity(n);
        for _ in 0..n {
            let t = r.f64()?;
            let idx = r.usize("late tick index")?;
            let row = r.row()?;
            pending_late.push((t, idx, row));
        }
        let reference = match version {
            // v3 always carries the state, with no presence byte.
            3 => Some(read_driver_state(&mut r)?),
            _ => r.opt("reference presence", read_driver_state)?,
        };
        let executed = read_driver_state(&mut r)?;
        if r.remaining() != 0 {
            return Err(RestoreError::TrailingBytes {
                expect: r.pos(),
                got: bytes.len(),
            });
        }
        Ok(SessionSnapshot {
            version,
            id,
            tick,
            period,
            driver,
            misses,
            acc_sq_mm,
            worst_mm,
            source,
            engine,
            pending_late,
            reference,
            executed,
        })
    }

    /// Converts a [`SourceState::ScriptedRef`] snapshot into the
    /// self-contained [`SourceState::Scripted`] form by materialising
    /// `commands` (the referenced trace) into it — the bridge from an
    /// archive entry back to a snapshot `Session::restore` accepts.
    /// Non-`ScriptedRef` snapshots are returned unchanged.
    ///
    /// # Errors
    /// [`RestoreError::Invalid`] when `commands` is not the trace the
    /// snapshot references (content address mismatch) or the fate runs
    /// do not cover it.
    pub fn materialized(&self, commands: &[Vec<f64>]) -> Result<SessionSnapshot, RestoreError> {
        let mut snap = self.clone();
        if let SourceState::ScriptedRef { trace, fates } = &snap.source {
            let actual = foreco_store::trace_object_id(commands);
            if actual != *trace {
                return Err(RestoreError::Invalid(format!(
                    "trace {actual} is not the script this snapshot references ({trace})"
                )));
            }
            snap.source = SourceState::Scripted {
                commands: commands.to_vec(),
                fates: expand_fates(fates, commands.len())?,
            };
        }
        Ok(snap)
    }
}

/// Why exporting a session snapshot failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The session's forecaster has no serialisable form (currently only
    /// seq2seq engines).
    UnsupportedForecaster {
        /// Display name of the offending forecaster.
        name: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnsupportedForecaster { name } => {
                write!(
                    f,
                    "session snapshot: forecaster `{name}` is not serialisable"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Why rehydrating a session from a snapshot failed. Mirrors the wire
/// codec's error taxonomy: every malformed input maps to exactly one
/// typed variant, and decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The bytes are not a well-formed snapshot (legacy JSON parse
    /// failures, malformed sub-blobs).
    Decode(String),
    /// Fewer bytes than the frame layout requires — truncated input.
    Truncated {
        /// Bytes required to read the next field.
        need: usize,
        /// Bytes present.
        got: usize,
    },
    /// The leading bytes are neither a JSON document nor
    /// [`SNAPSHOT_MAGIC`]: not a snapshot at all.
    BadMagic {
        /// The four bytes found.
        found: [u8; 4],
    },
    /// An unassigned tag byte where an enum discriminant or flag was
    /// expected.
    BadTag {
        /// Which field carried the tag.
        what: &'static str,
        /// The byte found.
        found: u8,
    },
    /// A length word larger than the remaining frame could possibly
    /// hold — a corrupt count rejected before it becomes an allocation.
    Oversized {
        /// Which collection declared it.
        what: &'static str,
        /// The declared element count.
        declared: u64,
        /// The most the remaining bytes could hold.
        limit: u64,
    },
    /// The buffer holds more bytes than the frame accounts for —
    /// trailing garbage is rejected, not ignored.
    TrailingBytes {
        /// Expected total frame length.
        expect: usize,
        /// Bytes present.
        got: usize,
    },
    /// The snapshot's format version does not match this build's.
    Version {
        /// Version found in the snapshot.
        found: u32,
        /// Version this build reads/writes.
        expected: u32,
    },
    /// The snapshot decoded but violates session invariants (wrong
    /// dimensions for the target arm model, inconsistent lengths, …).
    Invalid(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Decode(reason) => write!(f, "session restore: {reason}"),
            RestoreError::Truncated { need, got } => {
                write!(
                    f,
                    "session restore: truncated frame: need {need} bytes, got {got}"
                )
            }
            RestoreError::BadMagic { found } => {
                write!(f, "session restore: bad magic {found:02x?}")
            }
            RestoreError::BadTag { what, found } => {
                write!(f, "session restore: bad tag {found:#04x} for {what}")
            }
            RestoreError::Oversized {
                what,
                declared,
                limit,
            } => write!(
                f,
                "session restore: oversized {what}: {declared} elements declared, \
                 at most {limit} possible"
            ),
            RestoreError::TrailingBytes { expect, got } => {
                write!(
                    f,
                    "session restore: trailing bytes: frame is {expect}, buffer holds {got}"
                )
            }
            RestoreError::Version { found, expected } => write!(
                f,
                "session restore: snapshot version {found}, this build reads {expected}"
            ),
            RestoreError::Invalid(reason) => {
                write!(f, "session restore: invalid snapshot: {reason}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Rejects non-finite values. A delivered command would become the
/// engine's newest history row, and the next miss's step clamp would
/// panic on its NaN bound; a driver's held command, clock or PID term
/// would spread through `Pid::step` into the joints.
pub(crate) fn require_finite<'a>(
    what: impl std::fmt::Display,
    values: impl IntoIterator<Item = &'a f64>,
) -> Result<(), RestoreError> {
    if values.into_iter().any(|q| !q.is_finite()) {
        return Err(RestoreError::Invalid(format!("non-finite {what}")));
    }
    Ok(())
}

impl From<StateCodecError> for RestoreError {
    fn from(e: StateCodecError) -> Self {
        match e {
            StateCodecError::Truncated { need, got } => RestoreError::Truncated { need, got },
            StateCodecError::BadTag { what, found } => RestoreError::BadTag { what, found },
            StateCodecError::Oversized {
                what,
                declared,
                limit,
            } => RestoreError::Oversized {
                what,
                declared,
                limit,
            },
            StateCodecError::TrailingBytes { expect, got } => {
                RestoreError::TrailingBytes { expect, got }
            }
        }
    }
}

impl From<foreco_core::EngineStateError> for RestoreError {
    fn from(e: foreco_core::EngineStateError) -> Self {
        RestoreError::Invalid(e.to_string())
    }
}
