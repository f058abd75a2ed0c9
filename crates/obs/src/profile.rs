//! Always-on, zero-allocation phase-accounting profiler.
//!
//! Answers ROADMAP item 3's gating question — *where do the ~100 ns per
//! simulated request actually go?* — by attributing the host wall time of
//! every replayed request to a fixed set of phases (distributor split,
//! queue-wait bookkeeping, FTL map lookup, FTL read/write, GC victim
//! selection, GC copyback, NAND read/program/erase). The instrumented
//! layers create scoped guards:
//!
//! * [`request`] — one [`RequestTimer`] per `EmmcDevice::submit`, the root
//!   of the per-request time budget;
//! * [`phase`] — a [`PhaseTimer`] per instrumented scope; phases nest, and
//!   *self time* (total minus children) is what each phase accumulates, so
//!   the per-phase shares always sum to exactly the measured request time
//!   (the remainder is attributed to the synthetic dispatch slot,
//!   [`OTHER_LABEL`]).
//!
//! # Overhead budget
//!
//! The profiler must cost < 5% of an ~100 ns hot path while *always on*,
//! so it samples: one request in `stride` (default 64) is timed end to
//! end. Disarmed guards cost one relaxed atomic load ([`PhaseTimer`]) or
//! one thread-local countdown decrement ([`RequestTimer`]); armed guards
//! read the TSC twice and push/pop a fixed-depth frame stack. Attribution
//! percentages are unaffected by the stride — only the sample count is.
//!
//! # Zero allocation
//!
//! All state lives in a `const`-initialized thread-local `Accum`: fixed
//! arrays of per-phase tick/entry counters, a bounded frame stack, and one
//! [`LogHistogram`] per phase (`LogHistogram::new` is `const`). Nothing
//! heap-allocates on either the disarmed or the armed path, preserving the
//! release-build zero-allocation contract of the replay hot path.
//!
//! # Clock
//!
//! On x86-64 the clock is the raw TSC (`rdtsc`); tick counts are converted
//! to nanoseconds only at report time via a one-shot calibration against
//! the OS monotonic clock ([`ticks_per_ns`]). Other targets fall back to
//! the OS clock directly. Profiler output is host-wall-time derived and
//! therefore *nondeterministic*; it is exported only through the
//! `repro profile` path, never into the deterministic `--metrics-out`
//! summaries that CI byte-compares.

use crate::registry::{LogHistogram, MetricsRegistry};
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The fixed phases a request's wall time is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Request → page-size-aligned chunks in the distributor.
    Split = 0,
    /// Device front end: idle-GC check, power wakeup/doze, service-start
    /// and queue bookkeeping.
    QueueWait = 1,
    /// LPN → PPN lookups in the mapping table.
    FtlMapLookup = 2,
    /// FTL write path: invalidation, allocation, residency update.
    FtlWrite = 3,
    /// FTL read path: op construction and read dedup.
    FtlRead = 4,
    /// GC victim selection (greedy max-invalid scan).
    GcSelect = 5,
    /// GC copyback: live-page migration and block erase bookkeeping.
    GcCopyback = 6,
    /// NAND read: op scheduling and array state transitions.
    NandRead = 7,
    /// NAND program: op scheduling and array state transitions.
    NandProgram = 8,
    /// NAND erase: op scheduling and array state transitions.
    NandErase = 9,
}

/// Number of real phases (excluding the synthetic dispatch slot).
pub const N_PHASES: usize = 10;
/// Number of attribution slots: the phases plus the dispatch remainder.
pub const N_SLOTS: usize = N_PHASES + 1;
/// Slot index of the synthetic dispatch remainder.
pub const OTHER_SLOT: usize = N_PHASES;
/// Label of the synthetic slot holding request time not covered by any
/// phase guard (dispatch, cache probes, metric recording).
pub const OTHER_LABEL: &str = "device.dispatch";

/// Maximum phase nesting depth tracked per request; deeper guards are
/// disarmed (their time folds into the enclosing phase's self time) and
/// counted in [`ProfileReport::truncated_frames`].
const MAX_DEPTH: usize = 8;

impl Phase {
    /// All phases, in slot order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::Split,
        Phase::QueueWait,
        Phase::FtlMapLookup,
        Phase::FtlWrite,
        Phase::FtlRead,
        Phase::GcSelect,
        Phase::GcCopyback,
        Phase::NandRead,
        Phase::NandProgram,
        Phase::NandErase,
    ];

    /// Stable metric-name label (`layer.phase` convention).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Split => "distributor.split",
            Phase::QueueWait => "device.queue_wait",
            Phase::FtlMapLookup => "ftl.map_lookup",
            Phase::FtlWrite => "ftl.write",
            Phase::FtlRead => "ftl.read",
            Phase::GcSelect => "gc.select",
            Phase::GcCopyback => "gc.copyback",
            Phase::NandRead => "nand.read",
            Phase::NandProgram => "nand.program",
            Phase::NandErase => "nand.erase",
        }
    }

    /// Canonical folded-stack path for flamegraph output (semicolon
    /// separated, root first), matching where the phase nests on the
    /// common path.
    pub fn folded_stack(self) -> &'static str {
        match self {
            Phase::Split => "replay;submit;distributor.split",
            Phase::QueueWait => "replay;submit;device.queue_wait",
            Phase::FtlMapLookup => "replay;submit;ftl.read;ftl.map_lookup",
            Phase::FtlWrite => "replay;submit;ftl.write",
            Phase::FtlRead => "replay;submit;ftl.read",
            Phase::GcSelect => "replay;submit;ftl.write;gc.select",
            Phase::GcCopyback => "replay;submit;ftl.write;gc.copyback",
            Phase::NandRead => "replay;submit;nand.read",
            Phase::NandProgram => "replay;submit;nand.program",
            Phase::NandErase => "replay;submit;nand.erase",
        }
    }
}

/// Slot label: phase label for real slots, [`OTHER_LABEL`] for the
/// dispatch remainder.
pub fn slot_label(slot: usize) -> &'static str {
    if slot == OTHER_SLOT {
        OTHER_LABEL
    } else {
        Phase::ALL[slot].label()
    }
}

/// One open phase scope on the per-request frame stack.
#[derive(Clone, Copy)]
struct Frame {
    phase: u8,
    start: u64,
    child: u64,
}

const EMPTY_FRAME: Frame = Frame {
    phase: 0,
    start: 0,
    child: 0,
};

/// Per-thread accumulator; all storage is fixed-size so the profiler
/// never touches the heap.
struct Accum {
    stride: u32,
    armed: bool,
    /// Requests credited in whole-stride batches when a batch *starts*;
    /// subtract the unspent [`COUNTDOWN`] for the count actually seen.
    requests: u64,
    sampled: u64,
    req_start: u64,
    req_child: u64,
    ticks_total: u64,
    truncated: u64,
    depth: usize,
    frames: [Frame; MAX_DEPTH],
    phase_ticks: [u64; N_SLOTS],
    phase_entries: [u64; N_SLOTS],
    hists: [LogHistogram; N_PHASES],
}

impl Accum {
    const fn new() -> Self {
        Accum {
            stride: 0,
            armed: false,
            requests: 0,
            sampled: 0,
            req_start: 0,
            req_child: 0,
            ticks_total: 0,
            truncated: 0,
            depth: 0,
            frames: [EMPTY_FRAME; MAX_DEPTH],
            phase_ticks: [0; N_SLOTS],
            phase_entries: [0; N_SLOTS],
            hists: [const { LogHistogram::new() }; N_PHASES],
        }
    }

    fn clear_measurements(&mut self) {
        self.requests = 0;
        self.sampled = 0;
        self.req_start = 0;
        self.req_child = 0;
        self.ticks_total = 0;
        self.truncated = 0;
        self.depth = 0;
        self.phase_ticks = [0; N_SLOTS];
        self.phase_entries = [0; N_SLOTS];
        self.hists = [const { LogHistogram::new() }; N_PHASES];
    }
}

thread_local! {
    static ACCUM: RefCell<Accum> = const { RefCell::new(Accum::new()) };
    /// Requests left before the next sampled one. Kept outside [`ACCUM`]
    /// so the disarmed [`request`] fast path is a bare `Cell` get/set with
    /// no `RefCell` borrow bookkeeping.
    static COUNTDOWN: Cell<u32> = const { Cell::new(0) };
}

/// Number of threads currently inside an armed (sampled) request. The
/// disarmed [`phase`] fast path is a single relaxed load of this.
static ARMED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sampling stride adopted by threads that have not had
/// [`set_stride`] called on them. 64 keeps the always-on overhead
/// within the 5% hot-path budget.
static DEFAULT_STRIDE: AtomicU32 = AtomicU32::new(64);

/// Raw timestamp-counter read; monotone per thread at the resolution the
/// profiler needs. Converted to nanoseconds only at report time.
#[cfg(target_arch = "x86_64")]
#[inline]
fn now() -> u64 {
    // SAFETY-free intrinsic wrapper: `_rdtsc` has no preconditions.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Fallback clock for non-x86-64 targets: OS monotonic nanoseconds.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
#[expect(
    clippy::disallowed_types,
    reason = "the profiler measures host time by design"
)]
fn now() -> u64 {
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Measured TSC ticks per nanosecond, calibrated once per process against
/// the OS monotonic clock. 1.0 on targets whose `now` already returns
/// nanoseconds.
#[cfg_attr(
    target_arch = "x86_64",
    expect(clippy::disallowed_types, reason = "one-shot clock calibration")
)]
pub fn ticks_per_ns() -> f64 {
    static CAL: OnceLock<f64> = OnceLock::new();
    *CAL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::time::Instant;
            let wall = Instant::now();
            let t0 = now();
            std::thread::sleep(std::time::Duration::from_millis(10));
            let ticks = now().saturating_sub(t0) as f64;
            let ns = wall.elapsed().as_nanos() as f64;
            if ns > 0.0 && ticks > 0.0 {
                ticks / ns
            } else {
                1.0
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            1.0
        }
    })
}

/// Root guard for one simulated request; created once per
/// `EmmcDevice::submit`. When disarmed (the common, sampled-out case) its
/// drop is a no-op.
#[must_use = "dropping the timer immediately records a zero-width request"]
pub struct RequestTimer {
    armed: bool,
    // Guards account into thread-local state; keep them on their thread.
    _not_send: PhantomData<*mut ()>,
}

/// Scoped guard for one phase; self time (total minus nested children) is
/// attributed to the phase when the guard drops.
#[must_use = "dropping the timer immediately records a zero-width phase"]
pub struct PhaseTimer {
    armed: bool,
    _not_send: PhantomData<*mut ()>,
}

/// Scoped guard for a *run* of same-class operations dispatched as one
/// batch (one `schedule_batch` call). One guard covers
/// the whole run — one timestamp pair instead of one per op — while
/// [`RunPhaseTimer::bump`] counts each op so the report's entries/req
/// column stays comparable with per-op instrumentation. The per-entry
/// histogram records one observation per run (the run's total time).
#[must_use = "dropping the timer immediately records a zero-width phase"]
pub struct RunPhaseTimer {
    armed: bool,
    ops: u32,
    _not_send: PhantomData<*mut ()>,
}

/// Starts the per-request root timer. Call exactly once per submitted
/// request, before any [`phase`] guard; sampling (1 in `stride`) decides
/// whether this request is measured.
#[inline]
pub fn request() -> RequestTimer {
    let countdown = COUNTDOWN.with(|c| {
        let v = c.get();
        if v > 0 {
            c.set(v - 1);
        }
        v
    });
    if countdown > 0 {
        return RequestTimer {
            armed: false,
            _not_send: PhantomData,
        };
    }
    request_sampled()
}

#[cold]
#[inline(never)]
fn request_sampled() -> RequestTimer {
    let armed = ACCUM.with_borrow_mut(|a| {
        if a.stride == 0 {
            a.stride = DEFAULT_STRIDE.load(Ordering::Relaxed).max(1);
        }
        // Credit the whole upcoming batch now; `report` subtracts the
        // unspent countdown for the number of requests actually seen.
        a.requests += u64::from(a.stride);
        COUNTDOWN.with(|c| c.set(a.stride - 1));
        if a.armed {
            // A nested submit inside a measured request keeps the outer
            // timer; its time is already covered.
            return false;
        }
        a.armed = true;
        a.sampled += 1;
        a.req_child = 0;
        a.depth = 0;
        a.req_start = now();
        true
    });
    if armed {
        ARMED_THREADS.fetch_add(1, Ordering::Relaxed);
    }
    RequestTimer {
        armed,
        _not_send: PhantomData,
    }
}

impl Drop for RequestTimer {
    #[inline]
    fn drop(&mut self) {
        // The armed body stays outlined and cold so every `submit` carries
        // only this test-and-branch, not the accounting code.
        if self.armed {
            finish_request();
        }
    }
}

#[cold]
#[inline(never)]
fn finish_request() {
    let end = now();
    ACCUM.with_borrow_mut(|a| {
        let total = end.saturating_sub(a.req_start);
        a.ticks_total += total;
        a.phase_ticks[OTHER_SLOT] += total.saturating_sub(a.req_child);
        a.phase_entries[OTHER_SLOT] += 1;
        a.depth = 0;
        a.armed = false;
    });
    ARMED_THREADS.fetch_sub(1, Ordering::Relaxed);
}

/// Opens a phase scope. Disarmed unless the current request is sampled;
/// the disarmed fast path is one relaxed atomic load.
#[inline]
pub fn phase(p: Phase) -> PhaseTimer {
    if ARMED_THREADS.load(Ordering::Relaxed) == 0 {
        return PhaseTimer {
            armed: false,
            _not_send: PhantomData,
        };
    }
    phase_armed(p)
}

#[cold]
#[inline(never)]
fn phase_armed(p: Phase) -> PhaseTimer {
    let armed = ACCUM.with_borrow_mut(|a| {
        if !a.armed {
            // Another thread is sampling; this one is not.
            return false;
        }
        if a.depth >= MAX_DEPTH {
            a.truncated += 1;
            return false;
        }
        a.frames[a.depth] = Frame {
            phase: p as u8,
            start: now(),
            child: 0,
        };
        a.depth += 1;
        true
    });
    PhaseTimer {
        armed,
        _not_send: PhantomData,
    }
}

impl Drop for PhaseTimer {
    #[inline]
    fn drop(&mut self) {
        // Outlined armed body: every instrumented scope end pays only a
        // test-and-branch on the common disarmed path.
        if self.armed {
            finish_phase(1);
        }
    }
}

/// Opens a phase scope covering a batch of same-class operations. The
/// disarmed fast path matches [`phase`]: one relaxed atomic load.
#[inline]
pub fn phase_run(p: Phase) -> RunPhaseTimer {
    if ARMED_THREADS.load(Ordering::Relaxed) == 0 {
        return RunPhaseTimer {
            armed: false,
            ops: 0,
            _not_send: PhantomData,
        };
    }
    let inner = phase_armed(p);
    let armed = inner.armed;
    #[expect(
        clippy::mem_forget,
        reason = "the run timer takes over the frame the phase timer opened"
    )]
    core::mem::forget(inner);
    RunPhaseTimer {
        armed,
        ops: 0,
        _not_send: PhantomData,
    }
}

impl RunPhaseTimer {
    /// Counts one operation against this run's entry total.
    #[inline]
    pub fn bump(&mut self) {
        if self.armed {
            self.ops += 1;
        }
    }
}

impl Drop for RunPhaseTimer {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            finish_phase(self.ops.max(1));
        }
    }
}

#[cold]
#[inline(never)]
fn finish_phase(entries: u32) {
    let end = now();
    ACCUM.with_borrow_mut(|a| {
        debug_assert!(a.depth > 0, "armed PhaseTimer dropped with empty stack");
        if a.depth == 0 {
            return;
        }
        a.depth -= 1;
        let frame = a.frames[a.depth];
        let total = end.saturating_sub(frame.start);
        let slot = frame.phase as usize;
        a.phase_ticks[slot] += total.saturating_sub(frame.child);
        a.phase_entries[slot] += u64::from(entries);
        a.hists[slot].observe(total as f64);
        if a.depth > 0 {
            a.frames[a.depth - 1].child += total;
        } else {
            a.req_child += total;
        }
    });
}

/// Sets the sampling stride (1 = measure every request) for the calling
/// thread and for threads that start sampling afterwards.
pub fn set_stride(stride: u32) {
    let stride = stride.max(1);
    DEFAULT_STRIDE.store(stride, Ordering::Relaxed);
    let unspent = COUNTDOWN.with(|c| c.replace(0));
    ACCUM.with_borrow_mut(|a| {
        a.stride = stride;
        // Un-credit the cut-short batch so the request count stays exact.
        a.requests = a.requests.saturating_sub(u64::from(unspent));
    });
}

/// Clears the calling thread's accumulated measurements (stride is kept).
/// Call between requests, not inside an open request scope.
pub fn reset() {
    COUNTDOWN.with(|c| c.set(0));
    let was_armed = ACCUM.with_borrow_mut(|a| {
        let was = a.armed;
        a.armed = false;
        a.clear_measurements();
        was
    });
    if was_armed {
        ARMED_THREADS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Point-in-time copy of the calling thread's per-slot self ticks —
/// the cheap read the live `--progress` heartbeat diffs between prints.
pub fn phase_ticks_snapshot() -> [u64; N_SLOTS] {
    ACCUM.with_borrow(|a| a.phase_ticks)
}

/// Everything the profiler measured on the calling thread, in raw ticks.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Requests seen (sampled or not).
    pub requests: u64,
    /// Requests measured end to end.
    pub sampled: u64,
    /// Sampling stride in effect.
    pub stride: u32,
    /// Total measured ticks across sampled requests; equals the sum of
    /// all slot self ticks by construction.
    pub ticks_total: u64,
    /// Phase guards disarmed because the frame stack was full.
    pub truncated_frames: u64,
    /// Per-slot self ticks (index [`OTHER_SLOT`] is the dispatch
    /// remainder).
    pub phase_ticks: [u64; N_SLOTS],
    /// Per-slot scope entries.
    pub phase_entries: [u64; N_SLOTS],
    /// Per-phase distribution of *total* (self + children) ticks per
    /// scope entry.
    pub hists: [LogHistogram; N_PHASES],
}

/// Snapshots the calling thread's measurements without clearing them.
pub fn report() -> ProfileReport {
    let unspent = COUNTDOWN.with(Cell::get);
    ACCUM.with_borrow(|a| ProfileReport {
        requests: a.requests.saturating_sub(u64::from(unspent)),
        sampled: a.sampled,
        stride: if a.stride == 0 {
            DEFAULT_STRIDE.load(Ordering::Relaxed)
        } else {
            a.stride
        },
        ticks_total: a.ticks_total,
        truncated_frames: a.truncated,
        phase_ticks: a.phase_ticks,
        phase_entries: a.phase_entries,
        hists: a.hists.clone(),
    })
}

impl ProfileReport {
    /// Per-slot share of the total measured time, in percent. Sums to
    /// exactly 100 (before display rounding) whenever anything was
    /// measured, because slot self times partition the request total.
    pub fn percentages(&self) -> [f64; N_SLOTS] {
        let mut out = [0.0; N_SLOTS];
        if self.ticks_total == 0 {
            return out;
        }
        for (share, &ticks) in out.iter_mut().zip(self.phase_ticks.iter()) {
            *share = 100.0 * ticks as f64 / self.ticks_total as f64;
        }
        out
    }

    /// Mean self nanoseconds per *sampled* request attributed to a slot.
    pub fn ns_per_request(&self, slot: usize) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        self.phase_ticks[slot] as f64 / ticks_per_ns() / self.sampled as f64
    }

    /// Mean measured nanoseconds per sampled request, all slots.
    pub fn total_ns_per_request(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        self.ticks_total as f64 / ticks_per_ns() / self.sampled as f64
    }

    /// Folds another report into this one (same-host tick domains).
    pub fn merge(&mut self, other: &ProfileReport) {
        self.requests += other.requests;
        self.sampled += other.sampled;
        self.ticks_total += other.ticks_total;
        self.truncated_frames += other.truncated_frames;
        for (a, b) in self.phase_ticks.iter_mut().zip(other.phase_ticks.iter()) {
            *a += b;
        }
        for (a, b) in self
            .phase_entries
            .iter_mut()
            .zip(other.phase_entries.iter())
        {
            *a += b;
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// Exports the report into a registry under the `profile.*` namespace.
    ///
    /// Profiler values are host-wall-time derived and nondeterministic;
    /// export them into dedicated registries only, never into the
    /// deterministic replay summaries that CI byte-compares.
    pub fn export_into(&self, registry: &mut MetricsRegistry) {
        registry.add("profile.requests", self.requests);
        registry.add("profile.sampled", self.sampled);
        registry.add("profile.stride", u64::from(self.stride));
        registry.add("profile.ticks_total", self.ticks_total);
        registry.add("profile.truncated_frames", self.truncated_frames);
        for slot in 0..N_SLOTS {
            let label = slot_label(slot);
            registry.add(
                &format!("profile.phase.{label}.self_ticks"),
                self.phase_ticks[slot],
            );
            registry.add(
                &format!("profile.phase.{label}.entries"),
                self.phase_entries[slot],
            );
        }
        for (i, hist) in self.hists.iter().enumerate() {
            let id = registry.histogram(&format!("profile.phase.{}.ticks", Phase::ALL[i].label()));
            registry.merge_histogram(id, hist);
        }
    }

    /// Flamegraph-compatible folded-stack rendering: one line per slot,
    /// `stack<space>nanoseconds`, canonical stacks from
    /// [`Phase::folded_stack`]. Zero-time slots are omitted.
    #[expect(clippy::let_underscore_must_use, reason = "String writes cannot fail")]
    pub fn render_folded(&self) -> String {
        let scale = ticks_per_ns();
        let mut out = String::new();
        let ns = |ticks: u64| (ticks as f64 / scale).round() as u64;
        if self.phase_ticks[OTHER_SLOT] > 0 {
            let _ = writeln!(out, "replay;submit {}", ns(self.phase_ticks[OTHER_SLOT]));
        }
        for p in Phase::ALL {
            let ticks = self.phase_ticks[p as usize];
            if ticks > 0 {
                let _ = writeln!(out, "{} {}", p.folded_stack(), ns(ticks));
            }
        }
        out
    }

    /// Top-down breakdown table: per-slot self ns/request, share of the
    /// total, scope entries per sampled request, and per-entry p50/p99
    /// (total time, in ns) where a distribution exists.
    #[expect(clippy::let_underscore_must_use, reason = "String writes cannot fail")]
    pub fn render_table(&self) -> String {
        let scale = ticks_per_ns();
        let shares = self.percentages();
        let mut rows: Vec<usize> = (0..N_SLOTS).collect();
        rows.sort_by(|&a, &b| {
            self.phase_ticks[b]
                .cmp(&self.phase_ticks[a])
                .then(slot_label(a).cmp(slot_label(b)))
        });
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>7} {:>12} {:>10} {:>10}",
            "phase", "self ns/req", "%", "entries/req", "p50 ns", "p99 ns"
        );
        for slot in rows {
            if self.phase_ticks[slot] == 0 && self.phase_entries[slot] == 0 {
                continue;
            }
            let entries_per_req = if self.sampled == 0 {
                0.0
            } else {
                self.phase_entries[slot] as f64 / self.sampled as f64
            };
            let (p50, p99) = if slot < N_PHASES && self.hists[slot].count() > 0 {
                let h = &self.hists[slot];
                let q = |q: f64| h.quantile(q).unwrap_or(0.0) / scale;
                (format!("{:.0}", q(0.50)), format!("{:.0}", q(0.99)))
            } else {
                ("-".to_string(), "-".to_string())
            };
            let _ = writeln!(
                out,
                "{:<22} {:>12.1} {:>6.2}% {:>12.2} {:>10} {:>10}",
                slot_label(slot),
                self.ns_per_request(slot),
                shares[slot],
                entries_per_req,
                p50,
                p99,
            );
        }
        let _ = writeln!(
            out,
            "{:<22} {:>12.1} {:>6.2}% {:>12} {:>10} {:>10}",
            "total",
            self.total_ns_per_request(),
            shares.iter().sum::<f64>(),
            "",
            "",
            ""
        );
        let _ = writeln!(
            out,
            "sampled {} of {} requests (stride {}), {} truncated frames",
            self.sampled, self.requests, self.stride, self.truncated_frames
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(iters: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc)
    }

    /// Serialized: profiler TLS is per-thread but `ARMED_THREADS` and the
    /// default stride are process-global, so tests must not interleave.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn self_times_partition_the_request_total() {
        let _guard = LOCK.lock().expect("profiler test lock");
        reset();
        set_stride(1);
        for _ in 0..50 {
            let _req = request();
            {
                let _w = phase(Phase::FtlWrite);
                spin(50);
                {
                    let _g = phase(Phase::GcSelect);
                    spin(50);
                }
            }
            let _n = phase(Phase::NandProgram);
            spin(20);
        }
        let rep = report();
        assert_eq!(rep.requests, 50);
        assert_eq!(rep.sampled, 50);
        let slot_sum: u64 = rep.phase_ticks.iter().sum();
        assert_eq!(
            slot_sum, rep.ticks_total,
            "slot self times must partition the measured total"
        );
        assert!(rep.phase_ticks[Phase::FtlWrite as usize] > 0);
        assert!(rep.phase_ticks[Phase::GcSelect as usize] > 0);
        assert_eq!(rep.phase_entries[Phase::GcSelect as usize], 50);
        let pct: f64 = rep.percentages().iter().sum();
        assert!((pct - 100.0).abs() < 1e-6, "percentages sum to {pct}");
        reset();
        set_stride(64);
    }

    #[test]
    fn stride_samples_one_in_k() {
        let _guard = LOCK.lock().expect("profiler test lock");
        reset();
        set_stride(8);
        for _ in 0..64 {
            let _req = request();
            let _p = phase(Phase::Split);
        }
        let rep = report();
        assert_eq!(rep.requests, 64);
        assert_eq!(rep.sampled, 8);
        // Disarmed requests contribute no phase entries.
        assert_eq!(rep.phase_entries[Phase::Split as usize], 8);
        reset();
        set_stride(64);
    }

    #[test]
    fn disarmed_guards_are_inert() {
        let _guard = LOCK.lock().expect("profiler test lock");
        reset();
        set_stride(u32::MAX);
        {
            let _req = request(); // sampled (countdown starts at 0)
        }
        {
            let _req = request(); // not sampled for a long while
            let _p = phase(Phase::FtlRead);
        }
        let rep = report();
        assert_eq!(rep.sampled, 1);
        assert_eq!(rep.phase_entries[Phase::FtlRead as usize], 0);
        reset();
        set_stride(64);
    }

    #[test]
    fn depth_overflow_truncates_instead_of_corrupting() {
        let _guard = LOCK.lock().expect("profiler test lock");
        reset();
        set_stride(1);
        {
            let _req = request();
            let mut guards = Vec::new();
            for _ in 0..(MAX_DEPTH + 3) {
                guards.push(phase(Phase::FtlWrite));
            }
        }
        let rep = report();
        assert_eq!(rep.truncated_frames, 3);
        let slot_sum: u64 = rep.phase_ticks.iter().sum();
        assert_eq!(slot_sum, rep.ticks_total);
        reset();
        set_stride(64);
    }

    #[test]
    fn merge_adds_reports() {
        let _guard = LOCK.lock().expect("profiler test lock");
        reset();
        set_stride(1);
        {
            let _req = request();
            let _p = phase(Phase::NandErase);
        }
        let a = report();
        reset();
        {
            let _req = request();
            let _p = phase(Phase::NandErase);
        }
        let b = report();
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.sampled, a.sampled + b.sampled);
        assert_eq!(
            merged.phase_entries[Phase::NandErase as usize],
            a.phase_entries[Phase::NandErase as usize] + b.phase_entries[Phase::NandErase as usize]
        );
        assert_eq!(
            merged.hists[Phase::NandErase as usize].count(),
            a.hists[Phase::NandErase as usize].count() + b.hists[Phase::NandErase as usize].count()
        );
        reset();
        set_stride(64);
    }

    #[test]
    fn run_guard_counts_ops_but_times_once() {
        let _guard = LOCK.lock().expect("profiler test lock");
        reset();
        set_stride(1);
        {
            let _req = request();
            let mut run = phase_run(Phase::NandProgram);
            for _ in 0..5 {
                run.bump();
                spin(20);
            }
        }
        let rep = report();
        assert_eq!(rep.phase_entries[Phase::NandProgram as usize], 5);
        // One timestamp pair per run: the histogram sees one observation.
        assert_eq!(rep.hists[Phase::NandProgram as usize].count(), 1);
        let slot_sum: u64 = rep.phase_ticks.iter().sum();
        assert_eq!(slot_sum, rep.ticks_total);
        reset();
        set_stride(64);
    }

    #[test]
    fn run_guard_without_bumps_counts_one_entry() {
        let _guard = LOCK.lock().expect("profiler test lock");
        reset();
        set_stride(1);
        {
            let _req = request();
            let _run = phase_run(Phase::NandErase);
        }
        let rep = report();
        assert_eq!(rep.phase_entries[Phase::NandErase as usize], 1);
        reset();
        set_stride(64);
    }

    #[test]
    fn report_renders_table_and_folded() {
        let _guard = LOCK.lock().expect("profiler test lock");
        reset();
        set_stride(1);
        for _ in 0..10 {
            let _req = request();
            let _p = phase(Phase::FtlWrite);
            spin(100);
        }
        let rep = report();
        let table = rep.render_table();
        assert!(table.contains("ftl.write"));
        assert!(table.contains("total"));
        let folded = rep.render_folded();
        assert!(folded.contains("replay;submit;ftl.write "));
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack<space>count");
            assert!(!stack.is_empty());
            assert!(count.parse::<u64>().is_ok(), "bad folded count: {line}");
        }
        let mut reg = MetricsRegistry::new();
        rep.export_into(&mut reg);
        assert_eq!(reg.counter_value("profile.requests"), Some(10));
        assert!(reg
            .histogram_value("profile.phase.ftl.write.ticks")
            .is_some());
        reset();
        set_stride(64);
    }
}
