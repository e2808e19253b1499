//! Training memory does not grow with the training set.
//!
//! VAR training streams each window's regressor row into the normal
//! equations, so the heap a fit needs is `O((1 + d·R)²)` — the Gram
//! matrix, its Cholesky factor and the coefficients — whatever the number
//! of rows. A counting `#[global_allocator]` tracks the calling thread's
//! net heap bytes and their high-water mark; the peak a
//! `Var::fit_differenced` adds above the bytes already held (the dataset)
//! must be the same at 2 k and at 20 k rows, and small. A design matrix,
//! a differenced copy of the series or a transpose of either would scale
//! with the rows and break the equality.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use foreco_forecast::Var;
use foreco_teleop::{Dataset, Skill};

/// System allocator with a per-thread net-byte counter and its peak.
struct CountingAllocator;

thread_local! {
    static NET: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Adds `delta` to the calling thread's net bytes, raising the peak.
fn count(delta: i64) {
    // try_with: the counters may be gone during thread teardown.
    let _ = NET.try_with(|net| {
        let now = net.get() + delta;
        net.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The peak net bytes `f` holds above what the thread held before it.
fn peak_above_baseline<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let baseline = NET.with(Cell::get);
    PEAK.with(|peak| peak.set(baseline));
    let out = f();
    (out, PEAK.with(Cell::get) - baseline)
}

#[test]
fn var_training_heap_is_independent_of_rows() {
    // The perfbench forecaster: differences VAR(5) on six joints.
    let (r, ridge) = (5, 1e-6);
    let recorded = Dataset::record(Skill::Experienced, 30, 0.02, 11);
    assert!(recorded.len() >= 20_000, "{} rows recorded", recorded.len());
    let mut peaks = Vec::new();
    for rows in [2_000, 20_000] {
        let train = recorded.head(rows);
        let (var, peak) = peak_above_baseline(|| Var::fit_differenced(&train, r, ridge));
        var.expect("training data well-conditioned");
        peaks.push(peak);
    }
    assert_eq!(
        peaks[0], peaks[1],
        "fit heap grows with the rows (2 k vs 20 k): {peaks:?} bytes"
    );
    assert!(
        peaks[0] < 64 * 1024,
        "fit heap {} bytes exceeds 64 KiB",
        peaks[0]
    );
}
