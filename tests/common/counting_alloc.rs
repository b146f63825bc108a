//! A counting `#[global_allocator]` for the single-test binaries that hold a
//! cost linear (or constant) by counts instead of timers
//! (`tests/serve_linearity.rs`, `tests/sim_linearity.rs`). Include it with
//! `#[path = "common/counting_alloc.rs"] mod counting_alloc;` and install
//! [`CountingAllocator`] as the binary's global allocator; with one test per
//! binary nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the additions are relaxed counter updates, which touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap bytes currently allocated.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Allocations and peak live bytes (above the level at entry) of one call.
pub struct Cost {
    pub allocations: u64,
    pub peak_bytes: u64,
}

/// Runs `call` and counts what it allocated; its result is dropped after
/// the peak is read, so a returned value counts towards the peak.
pub fn cost_of<T>(call: impl FnOnce() -> T) -> Cost {
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let live = live_bytes();
    PEAK_LIVE_BYTES.store(live, Ordering::Relaxed);
    let result = call();
    let peak = PEAK_LIVE_BYTES.load(Ordering::Relaxed);
    drop(result);
    Cost {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        peak_bytes: peak - live,
    }
}
