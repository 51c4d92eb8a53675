//! A counting global allocator, switched on only for the traced pass.
//!
//! While off, every call costs one relaxed atomic load on top of the
//! system allocator. While on, it counts allocations and requested bytes,
//! and tracks live bytes with their peak, per thread. Spans read the
//! calling thread's counters at their boundaries, so allocations land on
//! the layer span that encloses them (see `trace.rs`); the traced pass
//! runs on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// The benchmark binary's allocator: the system allocator plus counters.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Plain per-thread cells: no destructor and no lazy initialisation,
    // so the allocator can touch them without allocating.
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn record(size: usize, freed: usize) {
    COUNT.set(COUNT.get() + 1);
    BYTES.set(BYTES.get() + size as u64);
    let live = LIVE.get() + size as i64 - freed as i64;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only read
// sizes and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            record(layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            record(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Relaxed) {
            LIVE.set(LIVE.get() - layout.size() as i64);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if ON.load(Relaxed) && !p.is_null() {
            record(new_size, layout.size());
        }
        p
    }
}

/// Turns counting on or off.
pub fn enable(on: bool) {
    ON.store(on, Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn counters() -> (u64, u64) {
    (COUNT.get(), BYTES.get())
}

/// Starts a new peak window: live bytes are measured from here.
pub fn reset_peak() {
    LIVE.set(0);
    PEAK.set(0);
}

/// The most bytes held live at once since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.get()
}
