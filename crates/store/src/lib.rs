//! Refcounted, content-addressed shared storage for the FoReCo fleet.
//!
//! A million scripted sessions replaying the same teleop trace, or
//! sharing the same trained VAR, should pay for **one** copy — not N.
//! [`Storage`] is the substrate that makes that true: a clonable,
//! thread-safe store with
//!
//! - **content-addressed identity** — an object's [`ObjectId`] is a
//!   stable 128-bit hash over its canonical bytes (for traces, the
//!   [`f64::to_bits`] patterns of every command; for models, the
//!   canonical binary form of [`ForecasterState`], whose `f64`s are raw
//!   `to_bits` words too). Inserting the same
//!   content twice yields the same id and the same resident object, so
//!   dedup is automatic and bit-exact: `-0.0` and `+0.0` are *different*
//!   content, two bit-identical NaN payloads are the *same* content;
//! - **per-object refcounts via RAII claims** — every lookup or insert
//!   returns a handle ([`TraceHandle`], [`ModelHandle`], [`BlobHandle`])
//!   that claims the object. Cloning a handle adds a claim, dropping one
//!   releases it, and the object is evicted from the store the moment
//!   its last claim drops. There is no manual free and no GC pause;
//! - **typed indexes** for the three object kinds the fleet shares:
//!   teleop traces (`Vec<Vec<f64>>` command streams), trained forecaster
//!   models (`Arc<dyn Forecaster>`), and opaque blobs (engine-history /
//!   snapshot bytes).
//!
//! Claims are **never** taken on a session's tick path: `foreco-serve`
//! acquires them at session build / restore and holds them for the
//! session's lifetime, so the zero-allocation steady-state contract is
//! untouched.
//!
//! # Example
//!
//! ```
//! use foreco_store::Storage;
//! use foreco_teleop::{Dataset, Skill};
//!
//! let store = Storage::new();
//! let ds = Dataset::record(Skill::Inexperienced, 1, 0.02, 8);
//!
//! // N sessions over one dataset cost one resident copy…
//! let a = store.insert_trace(&ds.commands);
//! let b = store.insert_trace(&ds.commands);
//! assert_eq!(a.id(), b.id());
//! assert_eq!(store.stats().traces.objects, 1);
//! assert_eq!(store.stats().traces.claims, 2);
//!
//! // …and the trace is evicted exactly when the last claim drops.
//! drop(a);
//! assert_eq!(store.stats().traces.objects, 1);
//! drop(b);
//! assert_eq!(store.stats().traces.objects, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

use foreco_forecast::{Forecaster, ForecasterState};
use foreco_teleop::Dataset;
use serde::{Deserialize, Serialize};

/// Stable 128-bit content address of a stored object.
///
/// Computed with FNV-1a over the object's canonical bytes (see the
/// module docs), with a per-kind domain tag so a trace and a blob with
/// identical bytes still live under unrelated ids. The id is what a
/// dedup-aware snapshot archive serializes in place of the payload.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId {
    hi: u64,
    lo: u64,
}

impl ObjectId {
    /// The id as one 128-bit integer.
    pub fn as_u128(&self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }

    /// Reconstructs an id from its [`ObjectId::as_u128`] form — the
    /// inverse needed by binary codecs that carry ids as two raw
    /// little-endian words instead of JSON objects.
    pub fn from_u128(v: u128) -> Self {
        Self {
            hi: (v >> 64) as u64,
            lo: v as u64,
        }
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectId({:016x}{:016x})", self.hi, self.lo)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// 128-bit FNV-1a over a byte stream.
struct Hasher128(u128);

impl Hasher128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

    fn new(domain: &str) -> Self {
        let mut h = Hasher128(Self::OFFSET);
        h.bytes(domain.as_bytes());
        h
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(self) -> ObjectId {
        ObjectId {
            hi: (self.0 >> 64) as u64,
            lo: self.0 as u64,
        }
    }
}

/// Content address of a teleop trace: length-prefixed rows of
/// [`f64::to_bits`] patterns. This is the id [`Storage::insert_trace`]
/// files the trace under, exposed so callers (the v2 snapshot encoder)
/// can address a trace they hold only as rows.
pub fn trace_object_id(commands: &[Vec<f64>]) -> ObjectId {
    let mut h = Hasher128::new("foreco-store/trace/v1");
    h.u64(commands.len() as u64);
    for row in commands {
        h.u64(row.len() as u64);
        for &v in row {
            h.u64(v.to_bits());
        }
    }
    h.finish()
}

/// Content address of a trained forecaster model: a hash over the
/// canonical bytes of its exported [`ForecasterState`].
pub fn model_object_id(state: &ForecasterState) -> ObjectId {
    model_id_of_canonical(&state.canonical_bytes())
}

/// [`model_object_id`] over already-rendered canonical bytes. The
/// domain is v2: the canonical form moved from JSON to binary.
fn model_id_of_canonical(canonical: &[u8]) -> ObjectId {
    let mut h = Hasher128::new("foreco-store/model/v2");
    h.bytes(canonical);
    h.finish()
}

/// Content address of an opaque blob.
pub fn blob_object_id(bytes: &[u8]) -> ObjectId {
    let mut h = Hasher128::new("foreco-store/blob/v1");
    h.u64(bytes.len() as u64);
    h.bytes(bytes);
    h.finish()
}

/// True when two traces are the same *bits* (NaN-safe, `-0.0`-exact) —
/// the equality the content address stands for, which `f64::eq` is not.
fn trace_bits_eq(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra
                    .iter()
                    .zip(rb)
                    .all(|(va, vb)| va.to_bits() == vb.to_bits())
        })
}

/// Approximate heap footprint of a trace, for [`StoreStats`] byte
/// accounting (row headers + payload doubles).
fn trace_resident_bytes(commands: &[Vec<f64>]) -> usize {
    std::mem::size_of::<Vec<Vec<f64>>>()
        + std::mem::size_of_val(commands)
        + commands.iter().map(|r| r.len() * 8).sum::<usize>()
}

/// One refcounted object in an index.
struct Slot<T> {
    payload: T,
    claims: u64,
    bytes: usize,
}

/// Counters for one object kind, snapshotted into [`StoreStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Objects currently resident.
    pub objects: usize,
    /// Outstanding claims across all resident objects.
    pub claims: u64,
    /// Approximate resident heap bytes of the payloads.
    pub resident_bytes: usize,
    /// Inserts that stored a new object.
    pub inserts: u64,
    /// Inserts deduplicated against an already-resident object.
    pub dedup_hits: u64,
    /// Objects evicted because their last claim dropped.
    pub evictions: u64,
}

/// A typed refcounted index: id → slot plus the kind's counters.
struct Index<T> {
    slots: HashMap<ObjectId, Slot<T>>,
    inserts: u64,
    dedup_hits: u64,
    evictions: u64,
}

impl<T> Default for Index<T> {
    fn default() -> Self {
        Self {
            slots: HashMap::new(),
            inserts: 0,
            dedup_hits: 0,
            evictions: 0,
        }
    }
}

impl<T: Clone> Index<T> {
    /// Dedup path of an insert: claims the resident payload under `id`,
    /// if any. `verify` guards against a 128-bit hash collision by
    /// comparing actual content.
    fn claim_dedup(&mut self, id: ObjectId, verify: impl FnOnce(&T) -> bool) -> Option<T> {
        let slot = self.slots.get_mut(&id)?;
        assert!(
            verify(&slot.payload),
            "foreco-store: content-hash collision on {id} — distinct payloads, one id"
        );
        slot.claims += 1;
        self.dedup_hits += 1;
        Some(slot.payload.clone())
    }

    /// Miss path of an insert: stores a new payload under `id` with one
    /// claim. Only call after [`Index::claim_dedup`] returned `None`.
    fn insert_new(&mut self, id: ObjectId, payload: T, bytes: usize) -> T {
        self.slots.insert(
            id,
            Slot {
                payload: payload.clone(),
                claims: 1,
                bytes,
            },
        );
        self.inserts += 1;
        payload
    }

    /// Claims an already-resident object, returning its payload.
    fn claim(&mut self, id: ObjectId) -> Option<T> {
        self.slots.get_mut(&id).map(|slot| {
            slot.claims += 1;
            slot.payload.clone()
        })
    }

    /// Adds one claim to an object a live handle already guards.
    fn reclaim(&mut self, id: ObjectId) {
        self.slots
            .get_mut(&id)
            .expect("foreco-store: claimed object missing from index")
            .claims += 1;
    }

    /// Drops one claim; evicts the object when it was the last.
    fn release(&mut self, id: ObjectId) {
        let slot = self
            .slots
            .get_mut(&id)
            .expect("foreco-store: released object missing from index");
        slot.claims -= 1;
        if slot.claims == 0 {
            self.slots.remove(&id);
            self.evictions += 1;
        }
    }

    fn stats(&self) -> KindStats {
        KindStats {
            objects: self.slots.len(),
            claims: self.slots.values().map(|s| s.claims).sum(),
            resident_bytes: self.slots.values().map(|s| s.bytes).sum(),
            inserts: self.inserts,
            dedup_hits: self.dedup_hits,
            evictions: self.evictions,
        }
    }
}

/// Resident model payload: the forecaster plus the canonical state
/// bytes its id was derived from (kept for collision verification).
#[derive(Clone)]
struct ModelSlot {
    forecaster: Arc<dyn Forecaster>,
    canonical: Arc<Vec<u8>>,
}

/// The three typed indexes behind one [`Storage`].
#[derive(Default)]
struct StoreInner {
    traces: Mutex<Index<Arc<Vec<Vec<f64>>>>>,
    models: Mutex<Index<ModelSlot>>,
    blobs: Mutex<Index<Arc<Vec<u8>>>>,
}

/// Locks an index, recovering from a poisoned mutex: the indexes hold
/// plain counters and payloads, always consistent between operations,
/// so a panicking claimant cannot corrupt them.
fn lock<T>(m: &Mutex<Index<T>>) -> MutexGuard<'_, Index<T>> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Errors from [`Storage`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The forecaster cannot export a [`ForecasterState`], so it has no
    /// canonical bytes to address it by (e.g. the seq2seq network).
    UnsupportedModel {
        /// `Forecaster::name()` of the offending model.
        name: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnsupportedModel { name } => write!(
                f,
                "forecaster '{name}' does not export a state and cannot be content-addressed"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Snapshot of the store's counters, one [`KindStats`] per index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Teleop trace index.
    pub traces: KindStats,
    /// Trained forecaster model index.
    pub models: KindStats,
    /// Opaque blob index.
    pub blobs: KindStats,
}

impl StoreStats {
    /// Total resident payload bytes across all indexes.
    pub fn resident_bytes(&self) -> usize {
        self.traces.resident_bytes + self.models.resident_bytes + self.blobs.resident_bytes
    }
}

/// Clonable, thread-safe, content-addressed shared storage (see the
/// module docs). Clones share the same underlying indexes.
#[derive(Clone, Default)]
pub struct Storage {
    inner: Arc<StoreInner>,
}

impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Storage")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Storage {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or dedups) a teleop trace, claiming it. The rows are
    /// copied only when the content is new; a dedup hit costs one hash
    /// pass and zero copies.
    pub fn insert_trace(&self, commands: &[Vec<f64>]) -> TraceHandle {
        let id = trace_object_id(commands);
        let mut index = lock(&self.inner.traces);
        let payload = match index.claim_dedup(id, |resident| trace_bits_eq(resident, commands)) {
            Some(resident) => resident,
            None => {
                let bytes = trace_resident_bytes(commands);
                index.insert_new(id, Arc::new(commands.to_vec()), bytes)
            }
        };
        drop(index);
        TraceHandle {
            store: Arc::clone(&self.inner),
            id,
            payload,
        }
    }

    /// Like [`Storage::insert_trace`], but takes ownership of the rows
    /// so a fresh insert performs no copy at all.
    pub fn insert_trace_owned(&self, commands: Vec<Vec<f64>>) -> TraceHandle {
        let id = trace_object_id(&commands);
        let mut index = lock(&self.inner.traces);
        let payload = match index.claim_dedup(id, |resident| trace_bits_eq(resident, &commands)) {
            Some(resident) => resident,
            None => {
                let bytes = trace_resident_bytes(&commands);
                index.insert_new(id, Arc::new(commands), bytes)
            }
        };
        drop(index);
        TraceHandle {
            store: Arc::clone(&self.inner),
            id,
            payload,
        }
    }

    /// Inserts a recorded dataset's command stream, consuming the
    /// dataset so the rows move into the store without a copy (pairs
    /// with [`Dataset::into_commands`]).
    pub fn insert_dataset(&self, dataset: Dataset) -> TraceHandle {
        self.insert_trace_owned(dataset.into_commands())
    }

    /// Claims an already-resident trace by id.
    pub fn get_trace(&self, id: ObjectId) -> Option<TraceHandle> {
        lock(&self.inner.traces)
            .claim(id)
            .map(|payload| TraceHandle {
                store: Arc::clone(&self.inner),
                id,
                payload,
            })
    }

    /// Registers (or dedups) a trained forecaster model, claiming it.
    /// Identity is the canonical bytes of its exported
    /// [`ForecasterState`], so two independently trained but
    /// bit-identical models resolve to one resident object.
    pub fn insert_model(&self, forecaster: Arc<dyn Forecaster>) -> Result<ModelHandle, StoreError> {
        let state = forecaster
            .export_state()
            .ok_or_else(|| StoreError::UnsupportedModel {
                name: forecaster.name().to_string(),
            })?;
        let canonical = state.canonical_bytes();
        let id = model_id_of_canonical(&canonical);
        let mut index = lock(&self.inner.models);
        let slot = match index.claim_dedup(id, |resident| *resident.canonical == canonical) {
            Some(resident) => resident,
            None => {
                let bytes = canonical.len();
                index.insert_new(
                    id,
                    ModelSlot {
                        forecaster,
                        canonical: Arc::new(canonical),
                    },
                    bytes,
                )
            }
        };
        drop(index);
        Ok(ModelHandle {
            store: Arc::clone(&self.inner),
            id,
            payload: slot.forecaster,
        })
    }

    /// Inserts (or dedups) an opaque blob — serialized engine histories,
    /// snapshot bytes — claiming it.
    pub fn insert_blob(&self, bytes: Vec<u8>) -> BlobHandle {
        let id = blob_object_id(&bytes);
        let mut index = lock(&self.inner.blobs);
        let payload = match index.claim_dedup(id, |resident| **resident == bytes) {
            Some(resident) => resident,
            None => {
                let len = bytes.len();
                index.insert_new(id, Arc::new(bytes), len)
            }
        };
        drop(index);
        BlobHandle {
            store: Arc::clone(&self.inner),
            id,
            payload,
        }
    }

    /// Claims an already-resident blob by id.
    pub fn get_blob(&self, id: ObjectId) -> Option<BlobHandle> {
        lock(&self.inner.blobs).claim(id).map(|payload| BlobHandle {
            store: Arc::clone(&self.inner),
            id,
            payload,
        })
    }

    /// Current counters across all three indexes.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            traces: lock(&self.inner.traces).stats(),
            models: lock(&self.inner.models).stats(),
            blobs: lock(&self.inner.blobs).stats(),
        }
    }
}

/// Generates an RAII claim handle over one typed index.
macro_rules! claim_handle {
    ($(#[$meta:meta])* $name:ident, $payload:ty, $index:ident, $debug_extra:ident) => {
        $(#[$meta])*
        pub struct $name {
            store: Arc<StoreInner>,
            id: ObjectId,
            payload: $payload,
        }

        impl $name {
            /// The content address this handle claims.
            pub fn id(&self) -> ObjectId {
                self.id
            }
        }

        impl Clone for $name {
            fn clone(&self) -> Self {
                lock(&self.store.$index).reclaim(self.id);
                Self {
                    store: Arc::clone(&self.store),
                    id: self.id,
                    payload: self.payload.clone(),
                }
            }
        }

        impl Drop for $name {
            fn drop(&mut self) {
                lock(&self.store.$index).release(self.id);
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct(stringify!($name))
                    .field("id", &self.id)
                    .field(stringify!($debug_extra), &self.$debug_extra())
                    .finish()
            }
        }
    };
}

claim_handle!(
    /// RAII claim over a resident teleop trace. The trace stays in the
    /// store for as long as any clone of this handle lives; dropping the
    /// last clone evicts it. Claims are taken at session build time,
    /// never on the tick path.
    TraceHandle,
    Arc<Vec<Vec<f64>>>,
    traces,
    rows
);

claim_handle!(
    /// RAII claim over a registered forecaster model.
    ModelHandle,
    Arc<dyn Forecaster>,
    models,
    name
);

claim_handle!(
    /// RAII claim over a resident opaque blob.
    BlobHandle,
    Arc<Vec<u8>>,
    blobs,
    len
);

impl TraceHandle {
    /// The shared command rows (cheap to clone: an `Arc` bump).
    pub fn commands(&self) -> &Arc<Vec<Vec<f64>>> {
        &self.payload
    }

    /// Number of command rows.
    pub fn rows(&self) -> usize {
        self.payload.len()
    }
}

impl Deref for TraceHandle {
    type Target = [Vec<f64>];

    fn deref(&self) -> &Self::Target {
        &self.payload
    }
}

impl ModelHandle {
    /// The shared forecaster.
    pub fn forecaster(&self) -> &Arc<dyn Forecaster> {
        &self.payload
    }

    /// `Forecaster::name()` of the registered model.
    pub fn name(&self) -> &'static str {
        self.payload.name()
    }
}

impl BlobHandle {
    /// The shared bytes.
    pub fn bytes(&self) -> &Arc<Vec<u8>> {
        &self.payload
    }

    /// Blob length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the blob is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

impl Deref for BlobHandle {
    type Target = [u8];

    fn deref(&self) -> &Self::Target {
        &self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foreco_forecast::MovingAverage;
    use foreco_teleop::Skill;

    fn trace(k: f64) -> Vec<Vec<f64>> {
        (0..4).map(|i| vec![k + i as f64, k * 2.0]).collect()
    }

    #[test]
    fn dedup_shares_one_resident_object() {
        let store = Storage::new();
        let a = store.insert_trace(&trace(1.0));
        let b = store.insert_trace(&trace(1.0));
        let c = store.insert_trace(&trace(2.0));
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert!(Arc::ptr_eq(a.commands(), b.commands()));
        let s = store.stats().traces;
        assert_eq!((s.objects, s.claims, s.inserts, s.dedup_hits), (2, 3, 2, 1));
    }

    #[test]
    fn eviction_happens_exactly_at_last_claim_drop() {
        let store = Storage::new();
        let a = store.insert_trace(&trace(1.0));
        let id = a.id();
        let b = a.clone();
        let c = store.get_trace(id).expect("resident");
        drop(a);
        drop(c);
        assert_eq!(store.stats().traces.objects, 1, "claim still outstanding");
        drop(b);
        let s = store.stats().traces;
        assert_eq!((s.objects, s.evictions), (0, 1));
        assert!(store.get_trace(id).is_none(), "evicted trace is gone");
        assert_eq!(s.resident_bytes, 0);
    }

    #[test]
    fn negative_zero_is_distinct_content_and_nan_bits_dedup() {
        let store = Storage::new();
        let pos = store.insert_trace(&[vec![0.0]]);
        let neg = store.insert_trace(&[vec![-0.0]]);
        assert_ne!(pos.id(), neg.id(), "-0.0 and +0.0 are different bits");
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let n1 = store.insert_trace(&[vec![nan]]);
        let n2 = store.insert_trace(&[vec![nan]]);
        assert_eq!(n1.id(), n2.id(), "bit-identical NaNs are one object");
        assert_eq!(store.stats().traces.objects, 3);
    }

    #[test]
    fn models_register_once_per_content() {
        let store = Storage::new();
        let a = store
            .insert_model(Arc::new(MovingAverage::new(5, 6)))
            .expect("register");
        let b = store
            .insert_model(Arc::new(MovingAverage::new(5, 6)))
            .expect("register");
        assert_eq!(a.id(), b.id());
        assert!(Arc::ptr_eq(a.forecaster(), b.forecaster()));
        let c = store
            .insert_model(Arc::new(MovingAverage::new(4, 6)))
            .expect("register");
        assert_ne!(a.id(), c.id());
        assert_eq!(store.stats().models.objects, 2);
    }

    #[test]
    fn blobs_round_trip_and_dedup() {
        let store = Storage::new();
        let a = store.insert_blob(vec![1, 2, 3]);
        let b = store.insert_blob(vec![1, 2, 3]);
        assert_eq!(a.id(), b.id());
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(store.get_blob(a.id()).expect("resident").len(), 3);
        assert_eq!(store.stats().blobs.objects, 1);
    }

    #[test]
    fn dataset_moves_in_without_copy() {
        let ds = Dataset::record(Skill::Inexperienced, 1, 0.02, 8);
        let by_ref_id = trace_object_id(&ds.commands);
        let rows = ds.len();
        let store = Storage::new();
        let handle = store.insert_dataset(ds);
        assert_eq!(handle.id(), by_ref_id);
        assert_eq!(handle.rows(), rows);
    }

    #[test]
    fn clones_of_the_store_share_indexes() {
        let store = Storage::new();
        let twin = store.clone();
        let h = store.insert_trace(&trace(3.0));
        assert!(twin.get_trace(h.id()).is_some());
        assert_eq!(twin.stats().traces.dedup_hits, 0);
    }

    #[test]
    fn object_id_serde_round_trips_exactly() {
        let id = trace_object_id(&trace(4.0));
        let json = serde_json::to_string(&id).expect("encode");
        let back: ObjectId = serde_json::from_str(&json).expect("decode");
        assert_eq!(back, id);
    }

    #[test]
    fn object_id_u128_round_trips_exactly() {
        let id = trace_object_id(&trace(5.0));
        assert_eq!(ObjectId::from_u128(id.as_u128()), id);
        assert_eq!(ObjectId::from_u128(0).as_u128(), 0);
        assert_eq!(ObjectId::from_u128(u128::MAX).as_u128(), u128::MAX);
    }
}
