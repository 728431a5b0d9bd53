//! Recording into a [`TraceSink`] allocates nothing per event: the only
//! heap traffic is the event vector's amortised growth.
//!
//! A counting global allocator tallies the allocations this thread makes
//! while the flag is set, so the test harness's own threads do not count.

use psb_obs::TraceSink;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn tally() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// tally touches only an atomic and a const-initialised thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn recording_10k_events_only_grows_the_vector() {
    const EVENTS: u64 = 10_000;
    let mut sink = TraceSink::new(1 << 20);
    sink.thread_name(0, "stream-buffer-0");
    let n = allocations(|| {
        for i in 0..EVENTS / 4 {
            let (tid, ts) = (i % 8, 10 * i);
            sink.complete("prefetch", "prefetch", tid, ts, 36, [("block", 64 * i)]);
            sink.instant("used", "demand", tid, ts + 40, [("block", 64 * i), ("late_by", 0)]);
            sink.counter("occupancy", tid, ts, [("ready", 1), ("in_flight", 2), ("priority", 3)]);
            sink.instant("evicted-unused", "prefetch", tid, ts, []);
        }
    });
    assert_eq!(sink.len() as u64, EVENTS + 1);
    // Doubling growth from one element to 10,001 is 15 reallocations;
    // one heap allocation per event (the old tree) would be 10,000+.
    let growth = (EVENTS + 1).next_power_of_two().trailing_zeros() as usize;
    assert!(n <= growth, "{n} allocations recording {EVENTS} events (growth bound {growth})");
    // The counter itself works: a recorded thread name owns its string.
    assert!(allocations(|| sink.thread_name(1, "stream-buffer-1")) >= 1);
}
