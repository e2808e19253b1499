//! The hot-path memory-discipline contract: a steady-state session tick
//! performs **zero heap allocations**.
//!
//! A counting `#[global_allocator]` wraps the system allocator with a
//! per-thread allocation counter (per-thread so the harness's parallel
//! test threads cannot pollute each other's measurements). Each test
//! warms a recovery loop past its first-use growth (forecast scratch,
//! fate chunk, PID transient) and then asserts the allocation delta of
//! every subsequent tick:
//!
//! - `RecoveryEngine::tick_into` — 0 allocations on both the delivery
//!   and the miss (forecast) path for MA, Holt, Kalman-CV, and VAR;
//! - `Session::advance` — 0 allocations per steady-state tick for a
//!   scripted FoReCo session over a lossy channel (the perfbench
//!   `replay_light_loss` shape) and for a starved streamed session
//!   (the forecast-horizon → hold → park path);
//! - the bounded paths (fate-chunk refills on live sources, §VII-C
//!   late-command bookkeeping, VARMA's one-time scratch growth) stay
//!   under an explicit budget instead of growing per tick.
//!
//! A second per-thread counter tracks net heap bytes (allocated minus
//! freed), which pins what shared storage saves: sessions on one stored
//! trace hold one resident copy, not one each.
//!
//! The checkpoint writer is held to the same count: encoding a v5
//! snapshot frame into a warm scratch allocates nothing, forecaster
//! state and jammed channel spec included (no JSON in the writer).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use foreco::prelude::*;
use foreco::serve::{Advance, Session};

/// System allocator with per-thread allocation and net-byte counters.
struct CountingAllocator;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Allocations performed by the calling thread so far.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Net heap bytes the calling thread holds (allocated − freed).
fn thread_bytes() -> i64 {
    THREAD_BYTES.with(Cell::get)
}

/// Adds `delta` to the calling thread's net-byte counter.
fn count_bytes(delta: i64) {
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + delta));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: the counter may be unavailable during thread teardown.
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        count_bytes(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        count_bytes(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        count_bytes(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many allocations it performed.
fn allocs_during(mut f: impl FnMut()) -> u64 {
    let before = thread_allocs();
    f();
    thread_allocs() - before
}

/// Net heap bytes `make`'s result holds, measured before it drops.
fn bytes_held<T>(make: impl FnOnce() -> T) -> i64 {
    let before = thread_bytes();
    let held = make();
    let bytes = thread_bytes() - before;
    drop(held);
    bytes
}

/// The zero-allocation forecaster families of the acceptance criteria.
fn families() -> Vec<(&'static str, Box<dyn Forecaster>)> {
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
    vec![
        ("MA", Box::new(MovingAverage::new(5, 6))),
        ("Holt", Box::new(Holt::default_teleop(5, 6))),
        ("Kalman-CV", Box::new(KalmanCv::default_teleop(5, 6))),
        (
            "VAR",
            Box::new(Var::fit_differenced(&train, 5, 1e-6).expect("fit VAR")),
        ),
    ]
}

/// Engine level: after warmup, neither deliveries nor misses touch the
/// allocator — the flat ring absorbs pushes in place and forecasts run
/// through `forecast_into` with engine-owned scratch.
#[test]
fn engine_ticks_are_allocation_free_for_all_deployed_families() {
    let model = niryo_one();
    let commands = Dataset::record(Skill::Inexperienced, 1, 0.02, 42).commands;
    for (name, forecaster) in families() {
        let mut engine = RecoveryEngine::new(
            forecaster,
            RecoveryConfig::for_model(&model),
            model.clamp(&commands[0]),
        );
        let mut out = vec![0.0; engine.dims()];
        // Warmup: fill the window, run one forecast (grows the scratch
        // high-water mark) and one post-outage delivery (exercises the
        // rebase buffers).
        for cmd in &commands[..12] {
            engine.tick_into(Some(cmd), &mut out);
        }
        engine.tick_into(None, &mut out);
        engine.tick_into(Some(&commands[12]), &mut out);
        // Steady state: a mix of hits and misses, every tick 0 allocs.
        for (i, cmd) in commands[13..313].iter().enumerate() {
            let arrived = if i % 7 < 2 {
                None
            } else {
                Some(cmd.as_slice())
            };
            let n = allocs_during(|| {
                engine.tick_into(arrived, &mut out);
            });
            assert_eq!(
                n,
                0,
                "{name}: tick {i} ({} path) allocated {n} times",
                if arrived.is_some() {
                    "delivery"
                } else {
                    "miss"
                }
            );
        }
        let stats = engine.stats();
        assert!(stats.forecasts > 0, "{name}: miss path never ran");
        assert!(stats.delivered > 0, "{name}: delivery path never ran");
    }
}

/// Session level: the full hosted loop (source → engine → both PID
/// drivers → metrics) on a scripted lossy replay is allocation-free per
/// tick once warm.
#[test]
fn scripted_session_advance_is_allocation_free() {
    let model = niryo_one();
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
    let var = Var::fit_differenced(&train, 5, 1e-6).expect("fit VAR");
    let replay = std::sync::Arc::new(Dataset::record(Skill::Inexperienced, 2, 0.02, 8).commands);
    let total = replay.len();
    let spec = SessionSpec::new(
        1,
        SourceSpec::Replayed(replay),
        ChannelSpec::ControlledLoss {
            burst_len: 6,
            burst_prob: 0.02,
            seed: 9,
        },
        RecoverySpec::FoReCo {
            forecaster: SharedForecaster::new(var),
            config: RecoveryConfig::for_model(&model),
        },
    );
    let mut session = Session::open(&spec, &model);
    // Warm through the PID transient, the first loss burst, and the
    // scratch growth; leave plenty of script to measure.
    let warmup = total / 4;
    for _ in 0..warmup {
        assert!(matches!(session.advance(), Advance::Ticked(_)));
    }
    let measured = total / 2;
    for i in 0..measured {
        let n = allocs_during(|| {
            assert!(matches!(session.advance(), Advance::Ticked(_)));
        });
        assert_eq!(n, 0, "tick {i} of the scripted session allocated {n} times");
    }
}

/// Store-backed scripted sessions obey the same contract: the trace
/// claim is acquired once at session build (`SourceSpec::stored`) and
/// merely *held* thereafter — the tick path never touches the store's
/// locks or the allocator. Pins the "claims never on the hot path"
/// invariant from the shared-storage design.
#[test]
fn stored_session_advance_is_allocation_free() {
    use foreco::store::Storage;

    let model = niryo_one();
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
    let var = Var::fit_differenced(&train, 5, 1e-6).expect("fit VAR");
    let store = Storage::new();
    let dataset = Dataset::record(Skill::Inexperienced, 2, 0.02, 8);
    let total = dataset.commands.len();
    let spec = SessionSpec::new(
        4,
        SourceSpec::stored(&store, &dataset),
        ChannelSpec::ControlledLoss {
            burst_len: 6,
            burst_prob: 0.02,
            seed: 9,
        },
        RecoverySpec::FoReCo {
            forecaster: SharedForecaster::new(var),
            config: RecoveryConfig::for_model(&model),
        },
    );
    let mut session = Session::open(&spec, &model);
    assert_eq!(store.stats().traces.objects, 1);
    let warmup = total / 4;
    for _ in 0..warmup {
        assert!(matches!(session.advance(), Advance::Ticked(_)));
    }
    let measured = total / 2;
    for i in 0..measured {
        let n = allocs_during(|| {
            assert!(matches!(session.advance(), Advance::Ticked(_)));
        });
        assert_eq!(n, 0, "tick {i} of the stored session allocated {n} times");
    }
    // The claim outlived the whole run without being re-acquired; the
    // trace evicts only when spec and session both drop.
    drop(session);
    drop(spec);
    assert_eq!(store.stats().traces.objects, 0);
}

/// A starved streamed session exercises the other steady state: misses
/// covered by forecasts, then horizon holds at the idle fixed point
/// (including the per-tick park-eligibility probing). Still 0 allocs.
#[test]
fn starved_streamed_session_is_allocation_free() {
    let model = niryo_one();
    let home = model.home();
    let spec = SessionSpec::new(
        2,
        SourceSpec::Streamed {
            initial: home.clone(),
            inbox_capacity: 8,
        },
        ChannelSpec::Ideal,
        RecoverySpec::FoReCo {
            forecaster: SharedForecaster::new(MovingAverage::new(4, home.len())),
            config: RecoveryConfig::for_model(&model),
        },
    );
    let mut session = Session::open(&spec, &model);
    // A little live traffic, then starvation through the forecast
    // horizon (50 ticks) into the hold regime.
    for _ in 0..4 {
        session.offer(home.clone());
        session.advance();
    }
    for _ in 0..80 {
        session.advance();
    }
    for i in 0..200 {
        let n = allocs_during(|| {
            assert!(matches!(session.advance(), Advance::Ticked(_)));
        });
        assert_eq!(n, 0, "starved tick {i} allocated {n} times");
    }
}

/// The restore path shares model weights through the content-addressed
/// store: N sessions rehydrated from same-model snapshots hold N claims
/// on **one** resident forecaster (ROADMAP #2's last headroom), and
/// their steady-state ticks stay allocation-free.
#[test]
fn restored_sessions_share_one_resident_model() {
    use foreco::store::Storage;

    let model = niryo_one();
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
    let var = Var::fit_differenced(&train, 5, 1e-6).expect("fit VAR");
    let replay = std::sync::Arc::new(Dataset::record(Skill::Inexperienced, 2, 0.02, 8).commands);
    let total = replay.len();
    let spec_for = |id: u64| {
        SessionSpec::new(
            id,
            SourceSpec::Replayed(std::sync::Arc::clone(&replay)),
            ChannelSpec::ControlledLoss {
                burst_len: 6,
                burst_prob: 0.02,
                seed: 9 + id,
            },
            RecoverySpec::FoReCo {
                forecaster: SharedForecaster::new(var.clone()),
                config: RecoveryConfig::for_model(&model),
            },
        )
    };
    let store = Storage::new();
    let mut restored = Vec::new();
    for id in 0..8 {
        let mut donor = Session::open(&spec_for(id), &model);
        for _ in 0..total / 4 {
            donor.advance();
        }
        let snap = donor.snapshot().expect("snapshot");
        restored.push(Session::restore_shared(&snap, &model, &store).expect("restore"));
    }
    let stats = store.stats().models;
    assert_eq!(stats.objects, 1, "eight restores, one resident model");
    assert_eq!(stats.claims, 8, "every session holds a claim");
    // The shared-model engines tick allocation-free like any other.
    // Warm the restored session through its first misses first: the
    // forecast scratch is transient state, rebuilt (and grown once) on
    // the first post-restore forecast.
    let mut session = restored.pop().expect("one restored session");
    for _ in 0..total / 4 {
        session.advance();
    }
    for i in 0..total / 3 {
        let n = allocs_during(|| {
            assert!(matches!(session.advance(), Advance::Ticked(_)));
        });
        assert_eq!(n, 0, "tick {i} of the restored session allocated {n} times");
    }
    drop(session);
    drop(restored);
    assert_eq!(
        store.stats().models.objects,
        0,
        "dropping the last claim evicts the model"
    );
}

/// The off-steady paths are *bounded*, not zero: a gated (socket-fed)
/// session pays one fate-chunk refill per 256 delivered commands and a
/// small constant for §VII-C late bookkeeping — never O(R·dims) per
/// tick like the pre-ring engine did.
#[test]
fn gated_miss_and_late_paths_stay_within_the_allocation_budget() {
    let model = niryo_one();
    let home = model.home();
    let mut config = RecoveryConfig::for_model(&model);
    config.use_late_commands = true;
    let spec = SessionSpec::new(
        3,
        SourceSpec::Gated {
            initial: home.clone(),
            inbox_capacity: 1024,
        },
        ChannelSpec::Ideal,
        RecoverySpec::FoReCo {
            forecaster: SharedForecaster::new(MovingAverage::new(4, home.len())),
            config,
        },
    );
    let mut session = Session::open(&spec, &model);
    // Queue 600 slots up front (offers own their allocations), mixing
    // deliveries, wire losses, and late patches.
    let mut tick_slots = 0u64;
    for k in 0..600u64 {
        match k % 9 {
            3 | 4 => {
                session.offer_miss();
                tick_slots += 1;
            }
            5 => {
                let mut cmd = home.clone();
                cmd[0] += 0.001;
                session.offer_late(cmd, 2);
            }
            _ => {
                let mut cmd = home.clone();
                cmd[1] += 0.002 * (k % 3) as f64;
                session.offer(cmd);
                tick_slots += 1;
            }
        }
    }
    let mut total = 0u64;
    for _ in 0..tick_slots {
        total += allocs_during(|| {
            assert!(matches!(session.advance(), Advance::Ticked(_)));
        });
    }
    // Budget: one Vec per 256-slot fate chunk plus slack for the fate
    // buffer's one-time growth. The old clone-the-window engine would
    // have spent >1 allocation on every single miss.
    let budget = tick_slots / 64 + 8;
    assert!(
        total <= budget,
        "draining {tick_slots} gated slots allocated {total} times (budget {budget})"
    );
}

/// Sessions on one stored trace share its rows: N `SourceSpec::stored`
/// claims hold one resident copy plus a handle each, where N private
/// `Replayed` sources hold N copies. A fleet archive of those sessions
/// carries the trace once in its table, so each session costs far less
/// than one self-contained snapshot, which inlines the whole script.
#[test]
fn stored_trace_sessions_hold_one_resident_copy() {
    use foreco::serve::FleetArchive;
    use foreco::store::Storage;
    use std::sync::Arc;

    const N: usize = 64;
    // The `Vec<SourceSpec>` slot plus the claim's handle, with room for
    // the store's one-time index growth (about 45 B a claim on x86-64).
    const PER_CLAIM: i64 = 128;
    let model = niryo_one();
    let dataset = Dataset::record(Skill::Inexperienced, 2, 0.02, 8);
    let one_trace = bytes_held(|| dataset.commands.clone());
    let private = bytes_held(|| {
        (0..N)
            .map(|_| SourceSpec::Replayed(Arc::new(dataset.commands.clone())))
            .collect::<Vec<_>>()
    });
    let store = Storage::new();
    let stored = bytes_held(|| {
        (0..N)
            .map(|_| SourceSpec::stored(&store, &dataset))
            .collect::<Vec<_>>()
    });
    assert!(
        private >= N as i64 * one_trace,
        "{private} B for {N} copies"
    );
    assert!(
        stored <= one_trace + N as i64 * PER_CLAIM,
        "{N} claims hold {stored} B; one trace is {one_trace} B"
    );
    assert_eq!(store.stats().traces.objects, 0, "last claim evicts");

    // Checkpoint cost: sessions at spread depths on one claimed trace.
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
    let var = SharedForecaster::new(Var::fit_differenced(&train, 5, 1e-6).expect("fit VAR"));
    let claim = store.insert_trace(&dataset.commands);
    let parts = (0..N as u64)
        .map(|id| {
            let spec = SessionSpec::new(
                id,
                SourceSpec::Stored(claim.clone()),
                ChannelSpec::ControlledLoss {
                    burst_len: 6,
                    burst_prob: 0.01,
                    seed: 40_000 + id,
                },
                RecoverySpec::FoReCo {
                    forecaster: var.clone(),
                    config: RecoveryConfig::for_model(&model),
                },
            );
            let mut session = Session::open(&spec, &model);
            for _ in 0..(id * 37) % 100 + 20 {
                session.advance();
            }
            session.snapshot_for_fleet().expect("fleet part")
        })
        .collect();
    let archive = FleetArchive::build(parts);
    assert_eq!(archive.traces().len(), 1, "one shared trace, stored once");
    // A part still carries its engine, drivers and forecaster state
    // (about 7 kB with VAR(5)); the inline snapshot adds the ~1.5k-row
    // script on top (about 90 kB).
    let per_session = archive.to_bytes().len() / N;
    let inline = archive.sessions().expect("parts decode")[0]
        .materialized(&archive.traces()[0].commands)
        .expect("rehydrate inline")
        .to_bytes()
        .len();
    assert!(
        per_session * 8 < inline,
        "{per_session} archive B/session vs {inline} B for one inline snapshot"
    );
}

/// A shard encodes every checkpoint part into one reusable scratch.
/// Once the scratch is warm, a v5 frame costs 0 allocations for a
/// VAR-FoReCo scripted part (inline and by reference) and for a
/// streamed part on a jammed link: the forecaster state and the
/// channel spec are written as binary words, not rendered as JSON.
#[test]
fn snapshot_encode_into_warm_scratch_allocates_nothing() {
    let model = niryo_one();
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 7);
    let var = SharedForecaster::new(Var::fit_differenced(&train, 5, 1e-6).expect("fit VAR"));
    let recovery = RecoverySpec::FoReCo {
        forecaster: var,
        config: RecoveryConfig::for_model(&model),
    };
    let store = Storage::new();
    let trace = store.insert_trace(&Dataset::record(Skill::Inexperienced, 1, 0.02, 42).commands);
    let scripted = SessionSpec::new(
        1,
        SourceSpec::Stored(trace),
        ChannelSpec::ControlledLoss {
            burst_len: 4,
            burst_prob: 0.02,
            seed: 9,
        },
        recovery.clone(),
    );
    let mut session = Session::open(&scripted, &model);
    for _ in 0..120 {
        assert!(matches!(session.advance(), Advance::Ticked(_)));
    }
    let inline = session.snapshot().expect("inline part");
    let (by_ref, _) = session.snapshot_for_fleet().expect("fleet part");

    let home = model.home();
    let jammed = SessionSpec::new(
        2,
        SourceSpec::Streamed {
            initial: home.clone(),
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
        recovery,
    );
    let mut session = Session::open(&jammed, &model);
    for _ in 0..40 {
        session.offer(home.clone());
        assert!(matches!(session.advance(), Advance::Ticked(_)));
    }
    let streamed = session.snapshot().expect("jammed part");

    let parts = [
        ("inline scripted", &inline),
        ("by-reference scripted", &by_ref),
        ("jammed streamed", &streamed),
    ];
    let mut scratch = Vec::new();
    for (_, part) in parts {
        scratch.clear();
        part.encode_into(&mut scratch);
    }
    for (name, part) in parts {
        let n = allocs_during(|| {
            scratch.clear();
            part.encode_into(&mut scratch);
        });
        assert_eq!(
            n, 0,
            "{name}: encoding into a warm scratch allocated {n} times"
        );
        assert_eq!(
            SessionSnapshot::from_bytes(&scratch).expect("decodes"),
            *part,
            "{name}: the frame round-trips"
        );
    }
}
