//! Proves the replay hot path is allocation-free, on a warm device and on
//! a cold one.
//!
//! A counting `#[global_allocator]` wraps the system allocator.
//!
//! * Warm: after a warm-up phase that grows every reusable buffer (device
//!   scratch, GC scratch) to its steady-state capacity, the test submits
//!   further read, write, and GC-triggering write requests and asserts
//!   the allocator was never called.
//! * Cold: a fresh Table V device gets one warm-up request of each size,
//!   then writes never-touched LPNs spread across its whole logical range
//!   and reads them back. The FTL's mapping and resident tables are sized
//!   when the device is built, so first touches allocate nothing either.
//! * Construction: `EmmcDevice::new` makes as many allocations for a
//!   Table V device as for a small scaled one of the same scheme, so no
//!   allocation is made per block or per page.
//!
//! The strict zero assertion only holds in release builds without the
//! `sanitize` feature: debug/sanitized builds run the shadow-state
//! auditor, which allocates by design on every audited operation. Those
//! builds still execute the workload (so the path is exercised
//! everywhere); they just skip the count check.

use hps_core::{Bytes, Direction, IoRequest, SimTime};
use hps_emmc::{DeviceConfig, EmmcDevice, PowerConfig, SchemeKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap traffic while `COUNTING` is set on the allocating thread;
/// otherwise a transparent passthrough to the system allocator.
struct CountingAlloc;

thread_local! {
    /// Per-thread, not process-global: the libtest harness's own threads
    /// touch the heap at unpredictable times, and a global flag let that
    /// traffic land inside the measured window (rare spurious failures).
    /// Only the thread running the replay arms its flag. `const` init and
    /// no drop glue, so reading it never re-enters the allocator.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

/// `try_with` instead of `with`: during thread teardown TLS is gone, and
/// the allocator must stay callable (uncounted) rather than panic.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn req(id: u64, ms: u64, dir: Direction, kib: u64, lba: u64) -> IoRequest {
    IoRequest::new(id, SimTime::from_ms(ms), dir, Bytes::kib(kib), lba)
}

/// Runs `work` with this thread's allocations counted; returns
/// `(allocs, reallocs)`.
fn count_allocs(work: impl FnOnce()) -> (u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    REALLOCS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    work();
    COUNTING.with(|c| c.set(false));
    (
        ALLOCS.load(Ordering::Relaxed),
        REALLOCS.load(Ordering::Relaxed),
    )
}

/// One test (not several) so the global counting window can't race a
/// concurrently running sibling test in the same binary.
#[test]
fn steady_state_replay_does_not_allocate() {
    // Small device, power model off: capacity wraps quickly, so sustained
    // writes keep the garbage collector busy during the measured phase.
    let mut cfg = DeviceConfig::scaled(SchemeKind::Ps4, 64, 16);
    cfg.power = PowerConfig::DISABLED;
    let mut dev = EmmcDevice::new(cfg).expect("valid config");
    // Work over half the logical space: overwrites invalidate the previous
    // copies, so victim blocks always have garbage for GC to reclaim.
    let logical_pages = dev.ftl().logical_capacity().as_u64() / 4096 / 2;

    let mut id = 0u64;
    let mut submit = |dev: &mut EmmcDevice, dir: Direction, kib: u64, lba: u64| {
        let r = req(id, id, dir, kib, lba);
        id += 1;
        dev.submit(&r).expect("capacity wraps, never exhausts");
    };

    // Warm-up: cover the whole logical space twice with mixed-size writes
    // (grows the mapping table to its final size and drives GC through
    // full victim cycles), then read it back (grows the read scratch).
    for pass in 0..2 {
        let mut lpn = 0u64;
        while lpn < logical_pages {
            let kib = if (lpn / 4).is_multiple_of(2) { 16 } else { 4 };
            submit(&mut dev, Direction::Write, kib, lpn * 4096);
            lpn += kib / 4;
        }
        let _ = pass;
    }
    for lpn in (0..logical_pages).step_by(8) {
        submit(&mut dev, Direction::Read, 32, lpn * 4096);
    }
    let warm_gc_runs = dev.ftl().stats().gc_runs;

    // Measured phase: reads, writes, and enough sustained writes that GC
    // provably ran while the counter was live.
    let warm = count_allocs(|| {
        for _round in 0..3u64 {
            let mut lpn = 0u64;
            while lpn < logical_pages {
                let kib = if (lpn / 4).is_multiple_of(2) { 16 } else { 4 };
                submit(&mut dev, Direction::Write, kib, lpn * 4096);
                lpn += kib / 4;
            }
            for read_lpn in (0..logical_pages).step_by(16) {
                submit(&mut dev, Direction::Read, 16, read_lpn * 4096);
            }
        }
    });
    let measured_gc_runs = dev.ftl().stats().gc_runs - warm_gc_runs;
    assert!(
        measured_gc_runs > 0,
        "measured phase must exercise garbage collection"
    );

    // Cold device: the paper's 32 GiB HPS part, fresh. One request of each
    // size at LPN 0 sizes the device's scratch buffers; the measured
    // writes then land on LPNs nothing has touched, spread over the whole
    // logical range, and are read back.
    const SIZES_KIB: [u64; 3] = [4, 8, 16];
    const SPOTS: u64 = 512;
    let mut cold = EmmcDevice::new(DeviceConfig::table_v(SchemeKind::Hps)).expect("valid config");
    let cold_pages = cold.ftl().logical_capacity().as_u64() / 4096;
    let stride = cold_pages / SPOTS;
    for dir in [Direction::Write, Direction::Read] {
        for kib in SIZES_KIB {
            submit(&mut cold, dir, kib, 0);
        }
    }
    let mapped_before = cold.ftl().mapped_lpns();
    let spot = |k: u64| (k * stride + stride / 2) * 4096;
    let cold_counts = count_allocs(|| {
        for dir in [Direction::Write, Direction::Read] {
            for k in 0..SPOTS {
                submit(&mut cold, dir, SIZES_KIB[k as usize % 3], spot(k));
            }
        }
    });
    let cold_mapped = cold.ftl().mapped_lpns() - mapped_before;
    assert_eq!(
        cold_mapped as u64,
        (0..SPOTS)
            .map(|k| SIZES_KIB[k as usize % 3] / 4)
            .sum::<u64>(),
        "every measured write maps fresh LPNs"
    );
    assert!(
        spot(SPOTS - 1) / 4096 >= cold_pages - stride,
        "spots span the range"
    );

    // Construction: the configurations are built outside the window, so
    // only `EmmcDevice::new` is counted.
    let build_counts = SchemeKind::ALL.map(|scheme| {
        let sized = [
            DeviceConfig::table_v(scheme),
            DeviceConfig::scaled(scheme, 32, 8),
        ]
        .map(|cfg| {
            count_allocs(|| {
                let _dev = EmmcDevice::new(cfg).expect("valid config");
            })
        });
        (scheme, sized)
    });

    // Debug/sanitized builds run the allocating shadow auditor on every
    // request; only the release non-sanitize build makes the strict
    // zero-allocation guarantee.
    #[cfg(all(not(debug_assertions), not(feature = "sanitize")))]
    {
        assert_eq!(
            warm,
            (0, 0),
            "steady-state replay must not touch the heap \
             ({measured_gc_runs} GC runs during the measured phase)"
        );
        assert_eq!(
            cold_counts,
            (0, 0),
            "first touches of a cold device must not touch the heap \
             ({cold_mapped} fresh LPNs mapped)"
        );
        for (scheme, [table_v, scaled]) in build_counts {
            assert_eq!(
                table_v, scaled,
                "building a {scheme:?} device must allocate the same at any size \
                 (Table V vs scaled(32, 8), as (allocs, reallocs))"
            );
        }
    }
    #[cfg(any(debug_assertions, feature = "sanitize"))]
    let _ = (warm, cold_counts, build_counts);
}
