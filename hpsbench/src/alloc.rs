//! Counting global allocator for the traced run.
//!
//! The wrapper forwards every call to the system allocator and counts
//! allocations and bytes only while the calling thread is armed, as
//! `crates/emmc/tests/alloc_free.rs` does: other threads, and this one
//! outside [`counted`], pass straight through. The tally lives in the
//! armed thread's own storage, so concurrent threads never leak into it.
//! Only the traced run arms it, and the traced run does all simulation on
//! the main thread. Allocation counts repeat exactly for the same inputs,
//! which makes them host-independent work counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The benchmark binary's global allocator.
pub struct CountingAlloc;

/// Heap traffic counted on one thread: allocations (a reallocation counts
/// as one) and the bytes they requested.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn add(&mut self, other: AllocCount) {
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }
}

thread_local! {
    /// `Some` while armed. `const` init and no drop glue, so touching it
    /// never re-enters the allocator.
    static TALLY: Cell<Option<AllocCount>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    // `try_with`: during thread teardown the slot is gone and the
    // allocator must stay callable, uncounted.
    let _ = TALLY.try_with(|tally| {
        if let Some(mut c) = tally.get() {
            c.allocs += 1;
            c.bytes += bytes as u64;
            tally.set(Some(c));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only a `const` thread-local `Cell`, never the heap.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with this thread armed and returns the heap traffic it
/// caused. Calls must not nest.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    TALLY.with(|t| t.set(Some(AllocCount::default())));
    let result = f();
    let count = TALLY.with(|t| t.take()).unwrap_or_default();
    (result, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_the_armed_window() {
        let (v, c) = counted(|| vec![0u8; 1000]);
        assert_eq!(
            c,
            AllocCount {
                allocs: 1,
                bytes: 1000
            }
        );
        let ((), idle) = counted(|| ());
        assert_eq!(idle, AllocCount::default());
        drop(std::hint::black_box(v));
    }
}
