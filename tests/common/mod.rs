//! The counting global allocator shared by the allocation suites
//! (`alloc_apply`, `alloc_kernel`, `alloc_routing`, `alloc_trace`).
//!
//! It counts **per thread**: `cargo test` runs the tests of one binary on
//! parallel threads, and a process-global counter lets one test's
//! allocations bleed into another's measurement window. Each test reads
//! only what its own thread allocated, so the code under measurement must
//! run on the calling thread (every suite here drives serial paths).

// Each suite uses the subset it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Const-initialised and without destructors, so reading them from inside
// the allocator neither allocates nor registers a thread-exit hook.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: delegates verbatim to the system allocator; the counters are
// thread-local cells with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (`alloc` + `realloc` calls) the calling thread has
/// made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread has requested so far (a `realloc` counts its
/// whole new size).
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}
