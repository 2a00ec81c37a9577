//! A registry lookup of a registered name allocates nothing.
//!
//! This binary installs a counting global allocator whose counter is
//! thread-local, so each test counts only its own thread's allocations.
//! Library code looks metrics up by name on its paths (`decode.beam.*` at
//! the end of every decode, `decode.closed.fallback` on a boxed-in beam
//! row): only the lookup that registers a name may allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Lookups of each kind, after the one that registers the name.
const LOOKUPS: usize = 100;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations made on
/// the current thread.
struct Counting;

fn count() {
    // `try_with`: the slot is gone while a thread tears down its locals.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialized thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn lookups_of_registered_names_allocate_nothing() {
    let registered = allocations_in(|| {
        st_obs::counter("test.lookup.counter").inc();
        st_obs::gauge("test.lookup.gauge").set(1.0);
        st_obs::histogram("test.lookup.histogram").record(1.0);
    });
    assert!(registered > 0, "registering three names allocated nothing");
    let allocs = allocations_in(|| {
        for i in 0..LOOKUPS {
            st_obs::counter("test.lookup.counter").inc();
            st_obs::gauge("test.lookup.gauge").set(i as f64);
            st_obs::histogram("test.lookup.histogram").record(i as f64);
        }
    });
    assert_eq!(
        allocs, 0,
        "{LOOKUPS} lookups of each kind allocated {allocs} times"
    );
    assert_eq!(
        st_obs::counter("test.lookup.counter").get(),
        LOOKUPS as u64 + 1
    );
    assert_eq!(
        st_obs::gauge("test.lookup.gauge").get(),
        (LOOKUPS - 1) as f64
    );
    assert_eq!(
        st_obs::histogram("test.lookup.histogram").count(),
        LOOKUPS as u64 + 1
    );
}

/// A name registered as one kind still answers a lookup of another kind
/// with a detached handle, which the registry never exports.
#[test]
fn kind_mismatch_still_returns_a_detached_handle() {
    st_obs::counter("test.lookup.mismatch").add(3);
    let g = st_obs::gauge("test.lookup.mismatch");
    g.set(9.0);
    assert_eq!(g.get(), 9.0);
    let h = st_obs::histogram("test.lookup.mismatch");
    h.record(2.0);
    assert_eq!(h.count(), 1);
    assert_eq!(st_obs::counter("test.lookup.mismatch").get(), 3);
    assert!(st_obs::histogram("test.lookup.mismatch").count() == 0);
}
