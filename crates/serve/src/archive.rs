//! Deduplicated bulk checkpoints: one archive for thousands of
//! sessions.
//!
//! A fleet of scripted sessions replaying the same teleop trace used to
//! checkpoint as N self-contained snapshots, each materialising the
//! full script — O(sessions × trace) bytes. A [`FleetArchive`] stores
//! each distinct trace **once**, keyed by its content address, and the
//! per-session snapshots reference it through
//! [`SourceState::ScriptedRef`](crate::SourceState::ScriptedRef) — so
//! the archive is O(traces + sessions) and a thousand-session
//! checkpoint costs about as much as one. `tests/hot_path_allocs.rs`
//! (`stored_trace_sessions_hold_one_resident_copy`) pins the ratio as a
//! byte count, and perfbench's `checkpoint_roundtrip` workload reports
//! `serve.archive_bytes_per_session`.
//!
//! # Streaming assembly (v2)
//!
//! Since format v2 the archive body is a contiguous run of
//! length-prefixed **binary snapshot frames** (v3; v4 since snapshot
//! v4; v5, whose forecaster and jammed-channel fields are binary, since
//! snapshot v5; each frame carries its own version, so the archive
//! format is unchanged)
//! ([`SessionSnapshot::encode_into`]), not a decoded session list. That
//! makes the archive a *streaming* writer: `ServiceHandle::snapshot_fleet`
//! calls [`FleetArchive::push_part_bytes`] as each shard's reply
//! arrives — frames produced in shard-local scratch splice straight
//! into the archive with one `memcpy`, while the drain is still in
//! flight. Decoding is lazy —
//! [`FleetArchive::sessions`] parses frames only when a consumer
//! actually wants the snapshots back.
//!
//! # Shared rows
//!
//! A table entry's rows are an `Arc` ([`TraceEntry::commands`]), never a
//! private copy: `snapshot_fleet` and [`FleetArchive::build`] share the
//! `Arc` each part carries (the live session's, which its store owns),
//! [`FleetArchive::from_bytes`] wraps each decoded table entry once, and
//! `adopt_fleet` files that same `Arc` into the standby's store. A trace
//! is copied only where bytes are written or read. The table is indexed
//! by id, so assembling N parts over T traces costs O(N + T) lookups,
//! not O(N × T).
//!
//! Assembled by `ServiceHandle::snapshot_fleet`, revived by
//! `ServiceHandle::adopt_fleet`, which decodes every part first, then
//! files each table entry into a `foreco-store` [`Storage`] just before
//! sending the first part that references it, with its claim riding
//! along; unreferenced and duplicate entries are filed after the last
//! send. Whole archives also file into shared storage as
//! content-addressed blobs ([`FleetArchive::file_blob`]): two identical
//! fleet checkpoints dedup to one stored payload.
//!
//! The archive has its own format version, gated exactly like
//! [`SNAPSHOT_VERSION`]: an explicit `match`,
//! foreign versions rejected, and the v1 JSON form kept as a first-class
//! decode arm (legacy sessions are re-encoded into binary frames on the
//! way in, stamped with the current snapshot version).

use crate::snapshot::{
    put_object_id, read_object_id, RestoreError, SessionSnapshot, SNAPSHOT_VERSION,
};
use foreco_forecast::codec::{put_bytes, put_prefixed, put_rows, put_u32, put_usize, Reader};
use foreco_store::{BlobHandle, ObjectId, Storage};
use serde::Deserialize;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Current fleet-archive format version. v2 moved the session body from
/// a JSON list to length-prefixed binary snapshot frames; v1 JSON
/// archives still decode.
pub const FLEET_ARCHIVE_VERSION: u32 = 2;

/// Leading magic of every binary (v2+) archive. Deliberately not `{`:
/// the decoder dispatches legacy JSON documents on that byte.
pub const ARCHIVE_MAGIC: [u8; 4] = *b"FARC";

/// One session's contribution to a fleet archive, as produced by
/// [`Session::snapshot_for_fleet`](crate::Session::snapshot_for_fleet):
/// the snapshot plus, for scripted sources, the referenced trace —
/// content address and shared rows (a cheap `Arc` clone of the
/// session's script, not a copy).
pub type FleetSnapshotPart = (SessionSnapshot, Option<(ObjectId, Arc<Vec<Vec<f64>>>)>);

/// One distinct trace in an archive's table.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// The trace's content address — what session snapshots reference.
    pub id: ObjectId,
    /// The command rows, shared: the live session's `Arc` in an archive
    /// assembled from parts, one `Arc` per entry in a decoded one, and
    /// the `Arc` a standby's store keeps once `adopt_fleet` files it.
    pub commands: Arc<Vec<Vec<f64>>>,
}

/// Mirror of the v1 JSON archive document — the legacy decode arm.
#[derive(Deserialize)]
struct ArchiveV1 {
    version: u32,
    traces: Vec<TraceEntryV1>,
    sessions: Vec<SessionSnapshot>,
}

/// A v1 JSON trace-table entry.
#[derive(Deserialize)]
struct TraceEntryV1 {
    id: ObjectId,
    commands: Vec<Vec<f64>>,
}

/// A deduplicated bulk checkpoint (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetArchive {
    /// Each distinct scripted trace, exactly once, first-seen order.
    traces: Vec<TraceEntry>,
    /// Position in `traces` of each id's first entry.
    index: HashMap<ObjectId, usize>,
    /// Number of session frames in `parts`.
    count: usize,
    /// Length-prefixed binary snapshot frames, back to back: for
    /// each session a `u64` LE frame length followed by the frame.
    parts: Vec<u8>,
}

impl FleetArchive {
    /// An empty archive ready for streaming assembly via
    /// [`FleetArchive::push_trace`] / [`FleetArchive::push_part_bytes`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of session frames in the archive.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the archive holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The deduplicated trace table, in first-seen order.
    pub fn traces(&self) -> &[TraceEntry] {
        &self.traces
    }

    /// The table entry for `id`, if present.
    pub fn trace(&self, id: ObjectId) -> Option<&TraceEntry> {
        self.index.get(&id).map(|&at| &self.traces[at])
    }

    /// Adds a trace to the table unless its content address is already
    /// present, copying the rows only when it grows. Returns whether the
    /// table grew.
    pub fn push_trace(&mut self, id: ObjectId, commands: &[Vec<f64>]) -> bool {
        self.push_trace_with(id, || Arc::new(commands.to_vec()))
    }

    /// [`FleetArchive::push_trace`] for rows already behind an `Arc`:
    /// the table shares them, so nothing is copied.
    pub fn push_shared_trace(&mut self, id: ObjectId, commands: &Arc<Vec<Vec<f64>>>) -> bool {
        self.push_trace_with(id, || Arc::clone(commands))
    }

    fn push_trace_with(
        &mut self,
        id: ObjectId,
        commands: impl FnOnce() -> Arc<Vec<Vec<f64>>>,
    ) -> bool {
        match self.index.entry(id) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(self.traces.len());
                self.traces.push(TraceEntry {
                    id,
                    commands: commands(),
                });
                true
            }
        }
    }

    /// Appends one session by encoding it into the archive body.
    pub fn push_part(&mut self, snapshot: &SessionSnapshot) {
        put_prefixed(&mut self.parts, |buf| snapshot.encode_into(buf));
        self.count += 1;
    }

    /// Appends one session as a pre-encoded binary snapshot frame — the
    /// streaming hand-off `snapshot_fleet` uses: shards encode into
    /// local scratch, the collector splices the bytes here without
    /// decoding them.
    pub fn push_part_bytes(&mut self, frame: &[u8]) {
        put_bytes(&mut self.parts, frame);
        self.count += 1;
    }

    /// Iterates the raw session frames in insertion order, without
    /// decoding them.
    pub fn part_frames(&self) -> PartFrames<'_> {
        PartFrames { buf: &self.parts }
    }

    /// Decodes every session frame back into snapshots.
    ///
    /// # Errors
    /// A typed [`RestoreError`] if any frame is malformed (possible only
    /// for archives assembled from untrusted
    /// [`FleetArchive::push_part_bytes`] input — `from_bytes` validates
    /// frames at the structural level, not field by field).
    pub fn sessions(&self) -> Result<Vec<SessionSnapshot>, RestoreError> {
        self.part_frames()
            .map(SessionSnapshot::from_bytes)
            .collect()
    }

    /// Consumes the archive into its trace table and decoded sessions —
    /// the shape `adopt_fleet` wants: every part is decoded before any is
    /// sent, and the entries' `Arc`s file into storage without a copy.
    ///
    /// # Errors
    /// Same as [`FleetArchive::sessions`].
    pub fn dismantle(self) -> Result<(Vec<TraceEntry>, Vec<SessionSnapshot>), RestoreError> {
        let sessions = self.sessions()?;
        Ok((self.traces, sessions))
    }

    /// Assembles an archive from per-session parts as produced by
    /// [`Session::snapshot_for_fleet`](crate::Session::snapshot_for_fleet):
    /// each distinct trace id lands in the table once, in first-seen
    /// order (deterministic for a deterministic part order).
    pub fn build(parts: Vec<FleetSnapshotPart>) -> Self {
        let mut archive = Self::new();
        for (snapshot, trace) in parts {
            if let Some((id, commands)) = trace {
                archive.push_shared_trace(id, &commands);
            }
            archive.push_part(&snapshot);
        }
        archive
    }

    /// Appends the binary v2 archive frame to `buf` (not cleared —
    /// same appending contract as [`SessionSnapshot::encode_into`]).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&ARCHIVE_MAGIC);
        put_u32(buf, FLEET_ARCHIVE_VERSION);
        put_usize(buf, self.traces.len());
        for entry in &self.traces {
            put_object_id(buf, entry.id);
            put_rows(buf, &entry.commands);
        }
        put_usize(buf, self.count);
        put_bytes(buf, &self.parts);
    }

    /// Serialises the archive to its portable byte form (the binary v2
    /// frame; same bit-exactness guarantees as
    /// [`SessionSnapshot::to_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Parses an archive previously produced by
    /// [`FleetArchive::to_bytes`] — binary v2, or the legacy v1 JSON
    /// document (whose sessions are re-encoded into binary frames,
    /// stamped with the current snapshot version, on the way in).
    ///
    /// # Errors
    /// [`RestoreError::Decode`] on malformed bytes, typed frame errors
    /// on truncation/corruption, [`RestoreError::Version`] on a foreign
    /// archive version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RestoreError> {
        if bytes.first() == Some(&b'{') {
            let text = std::str::from_utf8(bytes)
                .map_err(|_| RestoreError::Decode("archive is not UTF-8".into()))?;
            let doc: ArchiveV1 =
                serde_json::from_str(text).map_err(|e| RestoreError::Decode(e.to_string()))?;
            return match doc.version {
                1 => {
                    let mut archive = Self::new();
                    archive.set_traces(
                        doc.traces
                            .into_iter()
                            .map(|entry| TraceEntry {
                                id: entry.id,
                                commands: Arc::new(entry.commands),
                            })
                            .collect(),
                    );
                    for mut snapshot in doc.sessions {
                        snapshot.version = SNAPSHOT_VERSION;
                        archive.push_part(&snapshot);
                    }
                    Ok(archive)
                }
                FLEET_ARCHIVE_VERSION => Err(RestoreError::Decode(
                    "version 2 archives use the binary frame, not JSON".into(),
                )),
                found => Err(RestoreError::Version {
                    found,
                    expected: FLEET_ARCHIVE_VERSION,
                }),
            };
        }
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != ARCHIVE_MAGIC {
            return Err(RestoreError::BadMagic {
                found: magic.try_into().expect("4 bytes"),
            });
        }
        match r.u32()? {
            FLEET_ARCHIVE_VERSION => {}
            found => {
                return Err(RestoreError::Version {
                    found,
                    expected: FLEET_ARCHIVE_VERSION,
                })
            }
        }
        let n = r.len("archive trace table", 16)?;
        let mut traces = Vec::with_capacity(n);
        for _ in 0..n {
            traces.push(TraceEntry {
                id: read_object_id(&mut r)?,
                commands: Arc::new(r.rows()?),
            });
        }
        let count = r.usize("archive session count")?;
        let parts = r.bytes("archive session body")?.to_vec();
        if r.remaining() != 0 {
            return Err(RestoreError::TrailingBytes {
                expect: r.pos(),
                got: bytes.len(),
            });
        }
        // Structural pass over the body: `count` frames whose length
        // prefixes tile it exactly. Field-level validation is deferred
        // to `sessions()`.
        let mut walker = Reader::new(&parts);
        for _ in 0..count {
            walker.bytes("archive session frame")?;
        }
        if walker.remaining() != 0 {
            return Err(RestoreError::TrailingBytes {
                expect: walker.pos(),
                got: parts.len(),
            });
        }
        let mut archive = Self {
            count,
            parts,
            ..Self::default()
        };
        archive.set_traces(traces);
        Ok(archive)
    }

    /// Installs a decoded table as it stands (a foreign archive may list
    /// an id twice; both entries are kept and re-encoded) and indexes
    /// each id's first entry.
    fn set_traces(&mut self, traces: Vec<TraceEntry>) {
        self.index.clear();
        for (at, entry) in traces.iter().enumerate() {
            self.index.entry(entry.id).or_insert(at);
        }
        self.traces = traces;
    }

    /// Files the encoded archive into shared storage as a
    /// content-addressed blob: identical fleet checkpoints (same
    /// traces, same frames) dedup to a single stored payload, and the
    /// returned handle pins it for later [`FleetArchive::from_blob`].
    pub fn file_blob(&self, storage: &Storage) -> BlobHandle {
        storage.insert_blob(self.to_bytes())
    }

    /// Rehydrates an archive previously filed with
    /// [`FleetArchive::file_blob`].
    ///
    /// # Errors
    /// Same taxonomy as [`FleetArchive::from_bytes`].
    pub fn from_blob(handle: &BlobHandle) -> Result<Self, RestoreError> {
        Self::from_bytes(handle.bytes())
    }
}

/// Iterator over an archive's raw session frames (see
/// [`FleetArchive::part_frames`]).
pub struct PartFrames<'a> {
    buf: &'a [u8],
}

impl<'a> Iterator for PartFrames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let mut r = Reader::new(self.buf);
        let frame = r.bytes("archive session frame").ok();
        // At the end, or at a torn frame (unreachable for archives built
        // through this API or validated by `from_bytes`), stop.
        self.buf = if frame.is_some() {
            &self.buf[r.pos()..]
        } else {
            &[]
        };
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The indexed table behaves as the first-seen list it indexes:
    /// repeated pushes, with rows shared or copied, never move or change
    /// an entry, and the bytes equal those of one pass of fresh pushes.
    #[test]
    fn indexed_trace_table_keeps_first_seen_order_and_bytes() {
        const TRACES: usize = 2_000;
        let rows = |k: usize| vec![vec![k as f64, -(k as f64)], vec![0.5 * k as f64]];
        let id = |k: usize| ObjectId::from_u128(0x9e37_79b9_7f4a_7c15 * (k as u128 + 1));
        let mut fresh = FleetArchive::new();
        for k in 0..TRACES {
            assert!(fresh.push_trace(id(k), &rows(k)));
        }
        let mut repeated = FleetArchive::new();
        for k in 0..TRACES {
            assert!(repeated.push_shared_trace(id(k), &Arc::new(rows(k))));
            // Pushes of ids already present, with other rows, are no-ops.
            assert!(!repeated.push_trace(id(k / 2), &rows(k + TRACES)));
            assert!(!repeated.push_shared_trace(id(0), &Arc::new(Vec::new())));
        }
        assert_eq!(repeated.traces(), fresh.traces());
        assert_eq!(repeated.to_bytes(), fresh.to_bytes());
        for k in 0..TRACES {
            assert_eq!(*repeated.trace(id(k)).expect("present").commands, rows(k));
        }
        assert!(repeated.trace(id(TRACES)).is_none());
        let decoded = FleetArchive::from_bytes(&fresh.to_bytes()).expect("decodes");
        assert_eq!(decoded, fresh, "a decoded table is indexed alike");
    }

    /// The legacy v1 JSON document still decodes: its table entries are
    /// wrapped once and indexed, its sessions re-encoded as binary
    /// frames stamped with the current snapshot version.
    #[test]
    fn v1_json_archive_decodes_into_shared_rows() {
        use crate::session::Session;
        use crate::spec::{ChannelSpec, RecoverySpec, SessionSpec, SourceSpec};

        let rows = foreco_teleop::Dataset::record(foreco_teleop::Skill::Inexperienced, 1, 0.02, 4)
            .head(30)
            .commands;
        let spec = SessionSpec::new(
            7,
            SourceSpec::Replayed(Arc::new(rows.clone())),
            ChannelSpec::Ideal,
            RecoverySpec::Baseline,
        );
        let mut session = Session::open(&spec, &foreco_robot::niryo_one());
        session.advance();
        let (mut snapshot, trace) = session.snapshot_for_fleet().expect("fleet part");
        let id = trace.expect("a scripted part names its trace").0;
        snapshot.version = 2;
        let doc = format!(
            r#"{{"version":1,"traces":[{{"id":{},"commands":{}}}],"sessions":[{}]}}"#,
            serde_json::to_string(&id).expect("id encodes"),
            serde_json::to_string(&rows).expect("rows encode"),
            serde_json::to_string(&snapshot).expect("snapshot encodes"),
        );
        let archive = FleetArchive::from_bytes(doc.as_bytes()).expect("v1 decodes");
        assert_eq!(*archive.trace(id).expect("indexed").commands, rows);
        snapshot.version = SNAPSHOT_VERSION;
        assert_eq!(archive.sessions().expect("frames decode"), [snapshot]);
    }

    /// A shared push keeps the caller's `Arc`: no row is copied.
    #[test]
    fn shared_pushes_keep_the_callers_rows() {
        let rows = Arc::new(vec![vec![1.0, 2.0]]);
        let id = foreco_store::trace_object_id(&rows);
        let mut archive = FleetArchive::new();
        assert!(archive.push_shared_trace(id, &rows));
        assert!(Arc::ptr_eq(&archive.traces()[0].commands, &rows));
    }
}
