//! Publishing a metric allocates nothing: every entry of every
//! catalogue written 1 000 times, counted by a test-only global
//! allocator that tallies this thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use raxpp_runtime::{Counter, Gauge, Histogram, Metrics};

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct CountAllocs;

fn note() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` keeps the allocator contract; `note` neither allocates nor
// touches the memory.
unsafe impl GlobalAlloc for CountAllocs {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `alloc` contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `alloc_zeroed` contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        note();
        // SAFETY: `p` came from `System` (every block here does), and
        // the caller's `realloc` contract is passed on.
        unsafe { System.realloc(p, layout, size) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` with this `layout`.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountAllocs = CountAllocs;

#[test]
fn publishing_allocates_nothing() {
    let m = Metrics::new();
    let before = ALLOCS.with(Cell::get);
    for i in 0..1_000u64 {
        for c in Counter::ALL {
            m.inc(c, i);
        }
        for g in Gauge::ALL {
            m.set_gauge(g, i as f64);
        }
        for h in Histogram::ALL {
            m.observe(h, i as f64);
        }
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(
        allocs, 0,
        "{allocs} allocations publishing every metric 1 000 times"
    );
    // The writes landed: the registry is not optimised away.
    assert_eq!(m.counter("steps_total"), 999 * 1_000 / 2);
    assert_eq!(m.histogram("step_time_s").map(|h| h.count), Some(1_000));
}
