//! An adopted scripted session's heap does not grow with its script.
//!
//! A scripted session holds its pre-drawn fates as run-length-encoded
//! runs with a cursor, and its rows and reference trajectory are shared
//! through the shard's store claim and memo, so what one more adopted
//! by-reference archive part costs is the session itself: engine,
//! drivers and a handful of runs, whatever the number of rows. A
//! counting `#[global_allocator]` tracks the process's net heap bytes
//! (the shard thread allocates the session, the caller frees the
//! archive, so a per-thread count cannot see both). Each measurement
//! adopts parts onto a 1-shard service that already runs a session on
//! the same stored trace, so neither the rows nor the trajectory are
//! new; a per-slot fate vector would add 16 B per row and part.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use foreco_robot::niryo_one;
use foreco_serve::{
    ChannelSpec, FleetArchive, Pacing, RecoverySpec, Service, ServiceConfig, Session, SessionEvent,
    SessionSpec, SourceSpec,
};
use foreco_store::Storage;
use foreco_teleop::{Dataset, Skill};

/// System allocator with a process-wide net-byte counter.
struct CountingAllocator;

static NET: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        NET.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        NET.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        NET.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A fleet archive of one by-reference part per `(id, tick)`, each
/// taken from one donor session on `spec`'s stored trace.
fn archive_at(spec: &SessionSpec, ticks: impl IntoIterator<Item = (u64, u64)>) -> Vec<u8> {
    let mut donor = Session::open(spec, &niryo_one());
    let mut archive = FleetArchive::new();
    for (id, tick) in ticks {
        while donor.tick() < tick {
            donor.advance();
        }
        let (mut part, payload) = donor.snapshot_for_fleet().expect("fleet part");
        part.id = id;
        let (trace, commands) = payload.expect("a stored script travels by reference");
        archive.push_trace(trace, &commands);
        archive.push_part(&part);
    }
    archive.to_bytes()
}

/// Net heap bytes per by-reference part adopted onto a 1-shard service
/// that already holds `dataset`'s stored trace and its trajectory, over
/// an `Ideal` channel.
///
/// A real-time shard keeps every session alive while it is measured,
/// and finishes them on shutdown, so every part starts near the end of
/// the script: the holder 3 s before it, the measured parts between
/// 2 s and 1.4 s before it.
fn heap_per_adopted_part(dataset: &Dataset, parts: u64) -> i64 {
    let store = Storage::new();
    let spec = SessionSpec::new(
        0,
        SourceSpec::stored(&store, dataset),
        ChannelSpec::Ideal,
        RecoverySpec::Baseline,
    );
    let end = dataset.len() as u64;
    let holder = archive_at(&spec, [(0, end - 150)]);
    let measured = archive_at(&spec, (1..=parts).map(|id| (id, end - 101 + id)));

    let service = Service::spawn(ServiceConfig {
        shards: 1,
        pacing: Pacing::RealTime,
        ..Default::default()
    });
    let handle = service.handle();
    let adopt = |bytes: &[u8], count: u64| {
        let archive = FleetArchive::from_bytes(bytes).expect("archive decodes");
        assert_eq!(
            handle.adopt_fleet(archive, &store).expect("adopt"),
            count as usize
        );
        for _ in 0..count {
            match service.next_event() {
                Some(SessionEvent::Restored { .. }) => {}
                other => panic!("unexpected event {other:?}"),
            }
        }
        // A checkpoint round trip: the shard has handled every command
        // sent before it. The first one also warms its encode scratch.
        drop(handle.snapshot_fleet(&[0]).expect("checkpoint"));
    };
    adopt(&holder, 1);

    let before = NET.load(Ordering::Relaxed);
    adopt(&measured, parts);
    let held = NET.load(Ordering::Relaxed) - before;
    service.join();
    held / parts as i64
}

#[test]
fn adopted_scripted_session_heap_does_not_grow_with_the_script() {
    const PARTS: u64 = 32;
    const BOUND: i64 = 4 * 1024;
    let recorded = Dataset::record(Skill::Experienced, 14, 0.02, 11);
    assert!(recorded.len() >= 8_000, "{} rows recorded", recorded.len());
    for rows in [800, 8_000] {
        let per_part = heap_per_adopted_part(&recorded.head(rows), PARTS);
        assert!(
            per_part < BOUND,
            "an adopted {rows}-row scripted part holds {per_part} B (bound {BOUND} B)"
        );
    }
}
