//! Proves a request-size draw is allocation-free.
//!
//! The generator draws one size per request, so an allocating
//! `SizeModel::sample` would put one heap allocation on every generated
//! request. A counting `#[global_allocator]` counts the allocations of
//! the thread that armed it, and only while it is armed; the libtest
//! harness's other threads never land in the window. Unlike the device's
//! hot path, a draw runs no shadow auditor, so the zero holds in debug,
//! release and sanitized builds alike.

use hps_core::SimRng;
use hps_workloads::size::SizeModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Counts the armed thread's heap traffic; otherwise a transparent
/// passthrough to the system allocator.
struct CountingAlloc;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far. `const`
    /// init and no drop glue, so touching it never re-enters the allocator.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// `try_with` instead of `with`: during thread teardown TLS is gone, and
/// the allocator must stay callable (uncounted) rather than panic.
fn note_alloc() {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "an allocation during thread teardown goes uncounted"
    )]
    let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System`'s guarantees hold; the counting touches only a thread-local
// `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) this thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(Some(0)));
    f();
    ALLOCS.with(|n| n.take()).unwrap_or(0)
}

#[test]
fn size_draws_do_not_allocate() {
    let models = [
        // Twitter-like calibrated shape: 4 KiB spike, geometric tail, bulk.
        ("calibrated", SizeModel::calibrated(0.50, 13.5, 2216)),
        (
            "from_entries",
            SizeModel::from_entries(&[(4, 0.45), (16, 0.25), (64, 0.2), (512, 0.1)]),
        ),
    ];
    let mut rng = SimRng::seed_from(42);
    for (name, model) in &models {
        let allocs = allocations_during(|| {
            for _ in 0..10_000 {
                black_box(model.sample(&mut rng));
            }
        });
        assert_eq!(allocs, 0, "{name}: 10,000 draws allocated {allocs} times");
    }
}
