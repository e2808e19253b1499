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
//! flight. [`FleetArchive::merge`] splices two archives the same way:
//! trace tables dedup by content address, part bytes concatenate, and
//! no session is re-decoded in between. Decoding is lazy —
//! [`FleetArchive::sessions`] parses frames only when a consumer
//! actually wants the snapshots back.
//!
//! Assembled by `ServiceHandle::snapshot_fleet`, revived by
//! `ServiceHandle::adopt_fleet` (which files the trace table into a
//! `foreco-store` [`Storage`] and sends each
//! session its claim). Whole archives also file into shared storage as
//! content-addressed blobs ([`FleetArchive::file_blob`]): two identical
//! fleet checkpoints dedup to one stored payload.
//!
//! The archive has its own format version, gated exactly like
//! [`SNAPSHOT_VERSION`]: an explicit `match`,
//! foreign versions rejected, and the v1 JSON form kept as a first-class
//! decode arm (legacy sessions are re-encoded into binary frames on the
//! way in, stamped with the current snapshot version).

use crate::snapshot::{
    put_rows, put_u32, put_u64, Reader, RestoreError, SessionSnapshot, SNAPSHOT_VERSION,
};
use foreco_store::{BlobHandle, ObjectId, Storage};
use serde::{Deserialize, Serialize};
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// The trace's content address — what session snapshots reference.
    pub id: ObjectId,
    /// The command rows.
    pub commands: Vec<Vec<f64>>,
}

/// Mirror of the v1 JSON archive document — the legacy decode arm.
#[derive(Deserialize)]
struct ArchiveV1 {
    version: u32,
    traces: Vec<TraceEntry>,
    sessions: Vec<SessionSnapshot>,
}

/// A deduplicated bulk checkpoint (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetArchive {
    /// Each distinct scripted trace, exactly once, first-seen order.
    traces: Vec<TraceEntry>,
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
        self.traces.iter().find(|t| t.id == id)
    }

    /// Adds a trace to the table unless its content address is already
    /// present. Returns whether the table grew.
    pub fn push_trace(&mut self, id: ObjectId, commands: &[Vec<f64>]) -> bool {
        if self.trace(id).is_some() {
            return false;
        }
        self.traces.push(TraceEntry {
            id,
            commands: commands.to_vec(),
        });
        true
    }

    /// Appends one session by encoding it into the archive body.
    pub fn push_part(&mut self, snapshot: &SessionSnapshot) {
        let at = self.parts.len();
        put_u64(&mut self.parts, 0); // length back-patched below
        snapshot.encode_into(&mut self.parts);
        let frame_len = (self.parts.len() - at - 8) as u64;
        self.parts[at..at + 8].copy_from_slice(&frame_len.to_le_bytes());
        self.count += 1;
    }

    /// Appends one session as a pre-encoded binary snapshot frame — the
    /// streaming hand-off `snapshot_fleet` uses: shards encode into
    /// local scratch, the collector splices the bytes here without
    /// decoding them.
    pub fn push_part_bytes(&mut self, frame: &[u8]) {
        put_u64(&mut self.parts, frame.len() as u64);
        self.parts.extend_from_slice(frame);
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

    /// Consumes the archive into its owned trace table and decoded
    /// sessions — the shape `adopt_fleet` wants: traces file into
    /// storage without a copy, sessions fan out to their shards.
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
                archive.push_trace(id, &commands);
            }
            archive.push_part(&snapshot);
        }
        archive
    }

    /// Folds another archive into this one — trace tables dedup by
    /// content address, session frames splice without re-decoding.
    /// Incremental assembly for callers that checkpoint a fleet in
    /// waves (e.g. snapshotting each batch of sessions right after
    /// opening it, so none can complete before its checkpoint lands).
    pub fn merge(&mut self, other: FleetArchive) {
        for entry in other.traces {
            if self.trace(entry.id).is_none() {
                self.traces.push(entry);
            }
        }
        self.parts.extend_from_slice(&other.parts);
        self.count += other.count;
    }

    /// Appends the binary v2 archive frame to `buf` (not cleared —
    /// same appending contract as [`SessionSnapshot::encode_into`]).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&ARCHIVE_MAGIC);
        put_u32(buf, FLEET_ARCHIVE_VERSION);
        put_u64(buf, self.traces.len() as u64);
        for entry in &self.traces {
            let id = entry.id.as_u128();
            put_u64(buf, (id >> 64) as u64);
            put_u64(buf, id as u64);
            put_rows(buf, &entry.commands);
        }
        put_u64(buf, self.count as u64);
        put_u64(buf, self.parts.len() as u64);
        buf.extend_from_slice(&self.parts);
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
                    archive.traces = doc.traces;
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
            let hi = r.u64()?;
            let lo = r.u64()?;
            traces.push(TraceEntry {
                id: ObjectId::from_u128(((hi as u128) << 64) | lo as u128),
                commands: r.rows()?,
            });
        }
        let count = r.usize("archive session count")?;
        let body_len = r.len("archive session body", 1)?;
        let parts = r.take(body_len)?.to_vec();
        if r.remaining() != 0 {
            return Err(RestoreError::TrailingBytes {
                expect: bytes.len() - r.remaining(),
                got: bytes.len(),
            });
        }
        // Structural pass over the body: `count` frames whose length
        // prefixes tile it exactly. Field-level validation is deferred
        // to `sessions()`.
        let mut walker = Reader::new(&parts);
        for _ in 0..count {
            let frame_len = walker.len("archive session frame", 1)?;
            walker.take(frame_len)?;
        }
        if walker.remaining() != 0 {
            return Err(RestoreError::TrailingBytes {
                expect: parts.len() - walker.remaining(),
                got: parts.len(),
            });
        }
        Ok(Self {
            traces,
            count,
            parts,
        })
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
        if self.buf.len() < 8 {
            return None;
        }
        let (len_bytes, rest) = self.buf.split_at(8);
        let len = u64::from_le_bytes(len_bytes.try_into().expect("8 bytes")) as usize;
        if rest.len() < len {
            // Unreachable for archives built through this API or
            // validated by `from_bytes`; stop rather than panic.
            self.buf = &[];
            return None;
        }
        let (frame, rest) = rest.split_at(len);
        self.buf = rest;
        Some(frame)
    }
}
