//! A counting global allocator, for measurements only.
//!
//! A test or benchmark binary that wants an exact allocation count installs
//! it (`#[global_allocator] static A: simcore::CountingAlloc =
//! simcore::CountingAlloc;`) and reads [`CountingAlloc::allocs_on_this_thread`]
//! before and after the code it measures. Nothing in the simulator installs
//! or reads it. It lives in this crate because `GlobalAlloc` cannot be
//! implemented without `unsafe`, which no other crate may contain.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Per thread, so tests running in parallel do not see each other.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls to `alloc` and `realloc`.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Allocations and reallocations the calling thread has made so far.
    pub fn allocs_on_this_thread() -> u64 {
        ALLOCS.with(Cell::get)
    }

    fn count() {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method defers to `System` with its arguments unchanged; the
// counter is a const-initialized thread-local cell without a destructor, so
// touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
