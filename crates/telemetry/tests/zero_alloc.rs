//! Proves the "free when off" contract: on a thread with no sink installed,
//! every instrumentation entry point performs zero heap allocations and
//! records nothing. Runs as its own single-test binary (own process), so it
//! can clear the telemetry environment before the process's one read of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the test's own thread while it measures: the harness's main
    /// thread keeps its books (running-test table, timeout queue) while the
    /// test runs, and its allocations are not telemetry's.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn disabled_telemetry_allocates_nothing_and_records_nothing() {
    // `BTS_TELEMETRY=1 cargo test` must not give this thread a root sink.
    // The first `enabled()` reads the environment (and allocates doing so);
    // make it here, outside the measured window.
    for key in ["BTS_TRACE", "BTS_TELEMETRY"] {
        std::env::remove_var(key);
    }
    assert!(!bts_telemetry::enabled());

    MEASURING.set(true);
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..1000 {
        let _scope = bts_telemetry::scope("chip0");
        let _span = bts_telemetry::span("ntt.forward");
        bts_telemetry::emit_complete(
            "NTTU.0",
            "HMult@L27",
            i as f64,
            1.0,
            &[("bytes", bts_telemetry::ArgValue::U64(i))],
        );
        bts_telemetry::emit_instant("scratchpad", "evict", i as f64, &[]);
        bts_telemetry::emit_counter("queue", "queue", i as f64, &[("waiting", 3.0)]);
    }
    let allocs_after = ALLOCATIONS.load(Ordering::Relaxed);
    MEASURING.set(false);

    assert_eq!(
        allocs_after - allocs_before,
        0,
        "disabled telemetry must not allocate"
    );
    // Nothing was recorded because nothing could be: no sink appeared.
    assert!(!bts_telemetry::enabled());

    // The same calls under a capture do record — the loop above measured the
    // real entry points, not stubs — and ending it restores the free path.
    let run = bts_telemetry::capture();
    bts_telemetry::emit_instant("scratchpad", "evict", 0.0, &[]);
    bts_telemetry::emit_counter("queue", "queue", 0.0, &[("waiting", 3.0)]);
    let run = run.finish();
    assert_eq!(run.events.len(), 2);
    assert!(!bts_telemetry::enabled());
}
