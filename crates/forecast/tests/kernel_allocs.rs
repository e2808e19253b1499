//! The forecaster kernels' allocation contract: once its scratch has
//! grown, a served family's `forecast_into` allocates nothing.
//!
//! A counting `#[global_allocator]` counts the calling thread's
//! allocations (per thread, so parallel test threads cannot pollute each
//! other). The kernel forecasts once to grow its scratch, then runs
//! [`WARM_CALLS`] calls on sliding windows of a recording, into one
//! reused output buffer; the count must not move. `hot_path_allocs`
//! pins MA, Holt, Kalman-CV and VAR through the recovery engine; this
//! test pins VARMA(4,2), the one served family the engine suite leaves
//! out. Seq2seq is not served and allocates per call (see its module
//! docs).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use foreco_forecast::{ForecastScratch, Forecaster, HistoryView, Varma};
use foreco_teleop::{Dataset, Skill};

/// System allocator with a per-thread allocation counter.
struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread.
fn count() {
    // try_with: the counter may be gone during thread teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Warm calls counted per family.
const WARM_CALLS: usize = 64;

/// Allocations `f` makes over [`WARM_CALLS`] `forecast_into` calls on
/// sliding windows of `flat` (`d`-wide rows), after one call that grows
/// the scratch.
fn warm_allocs(f: &dyn Forecaster, flat: &[f64]) -> u64 {
    let (r, d) = (f.history_len(), f.dims());
    assert!(flat.len() >= (r + WARM_CALLS) * d, "recording too short");
    let mut scratch = ForecastScratch::new();
    let mut out = vec![0.0; d];
    let window = |at: usize| HistoryView::contiguous(&flat[at * d..(at + r) * d], d);
    f.forecast_into(&window(0), &mut scratch, &mut out);
    let before = ALLOCS.with(Cell::get);
    for at in 1..=WARM_CALLS {
        f.forecast_into(&window(at), &mut scratch, &mut out);
    }
    ALLOCS.with(Cell::get) - before
}

#[test]
fn varma_forecast_into_allocates_nothing_once_warm() {
    let train = Dataset::record(Skill::Experienced, 2, 0.02, 21);
    let varma = Varma::fit(&train, 4, 2, 1e-6).expect("training data well-conditioned");
    let allocs = warm_allocs(&varma, &train.commands.concat());
    assert_eq!(allocs, 0, "VARMA(4,2) forecast_into allocates once warm");
}
