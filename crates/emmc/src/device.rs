//! The eMMC device: FIFO request service over the scheme, FTL, and
//! resource schedule.
//!
//! eMMC 4.5 has no command queueing, so the device serves requests strictly
//! in arrival order — which is why the paper's *NoWait Req. Ratio* (the
//! fraction of requests that find the device idle) is such a telling
//! statistic. Within a request, sub-operations parallelize across the two
//! channels and four dies.

use crate::cache::WriteCache;
use crate::distributor::{split_lpn_run_into, split_request_into, Chunk};
use crate::metrics::ReplayMetrics;
use crate::power::{PowerConfig, PowerModel};
use crate::readcache::ReadCache;
use crate::schedule::{ChannelMode, ResourceSchedule};
use crate::scheme::SchemeKind;
use crate::slc::{SlcBuffer, SlcConfig};
use hps_core::scratch::ReplayScratch;
use hps_core::{Bytes, Direction, Error, IoRequest, Result, SimDuration, SimTime};
use hps_ftl::{FlashOp, Ftl, FtlConfig, Lpn, OpKind, RecoveryReport};
use hps_nand::NandTiming;
use hps_obs::{AckKind, Event, EventKind, MetricsRegistry, OpClass, Telemetry};
use hps_trace::{Trace, TraceRecord, TraceSource};

/// The device's concrete scratch-buffer bundle (see
/// [`hps_core::scratch::ReplayScratch`]).
type Scratch = ReplayScratch<FlashOp, Lpn, Chunk>;

/// Full configuration of a simulated eMMC device.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Page-size scheme (decides the distributor policy and block pools).
    pub scheme: SchemeKind,
    /// FTL/flash-array configuration.
    pub ftl: FtlConfig,
    /// NAND latencies.
    pub timing: NandTiming,
    /// Low-power-mode behaviour.
    pub power: PowerConfig,
    /// Fixed controller overhead charged once per request (command decode,
    /// mapping lookup).
    pub cmd_overhead: SimDuration,
    /// Minimum idle gap before the device attempts idle-time GC
    /// (Implication 2); only effective with an idle GC trigger.
    pub idle_gc_min_gap: SimDuration,
    /// Channel semantics: eMMC-style held channel (default) or ONFI
    /// interleaving (the parallelism ablation).
    pub channel_mode: ChannelMode,
    /// RAM write buffer capacity; `None` disables it (the paper's case
    /// study: "The RAM buffer layer of the simulator is disabled"). With a
    /// buffer, writes are acknowledged once their data is transferred and
    /// buffered, and NAND programming drains in the background.
    pub write_cache: Option<Bytes>,
    /// Extra controller latency on cached write acknowledgements (FTL
    /// metadata, command handling — the millisecond-scale floor real eMMC
    /// parts show even for buffered 4 KiB writes).
    pub cache_write_overhead: SimDuration,
    /// Optional SLC-mode region absorbing small writes (Implication 5);
    /// `None` for a plain MLC device.
    pub slc: Option<SlcConfig>,
    /// Optional RAM read cache (Implication 3's subject); `None` disables.
    pub read_cache: Option<Bytes>,
}

/// Host-interface command setup/teardown overhead charged per eMMC command
/// in the Table V configuration.
const TABLE_V_CMD_OVERHEAD: SimDuration = SimDuration::from_us(100);

/// Minimum device-idle gap before background GC may start (Table V policy).
const TABLE_V_IDLE_GC_MIN_GAP: SimDuration = SimDuration::from_ms(200);

/// Cost of absorbing one write into the RAM write cache (Table V policy).
const TABLE_V_CACHE_WRITE_OVERHEAD: SimDuration = SimDuration::from_ms(1);

impl DeviceConfig {
    /// The paper's Table V device for the given scheme: 32 GiB, 2×1×2×2
    /// geometry, Micron latencies, Nexus 5 power model.
    pub fn table_v(scheme: SchemeKind) -> Self {
        DeviceConfig {
            scheme,
            ftl: scheme.table_v_ftl(),
            timing: NandTiming::TABLE_V,
            power: PowerConfig::NEXUS5,
            cmd_overhead: TABLE_V_CMD_OVERHEAD,
            idle_gc_min_gap: TABLE_V_IDLE_GC_MIN_GAP,
            channel_mode: ChannelMode::Legacy,
            write_cache: None,
            cache_write_overhead: TABLE_V_CACHE_WRITE_OVERHEAD,
            slc: None,
            read_cache: None,
        }
    }

    /// The Table V device with *real-device semantics*, as on the Nexus 5
    /// whose behaviour Table IV and Figs. 5/7 characterize: a 512 KiB RAM
    /// write buffer, channels interleaved across dies (how the part
    /// reaches ~100 MB/s sequential reads in Fig. 3), and the power model
    /// on. The Section V case study instead keeps [`table_v`](Self::table_v)'s
    /// legacy channels, with the buffer and the power model off.
    pub fn real_device(scheme: SchemeKind) -> Self {
        let mut cfg = Self::table_v(scheme).with_write_cache(Bytes::kib(512));
        cfg.channel_mode = ChannelMode::Interleaved;
        cfg
    }

    /// Enables an SLC-mode write region (Implication 5).
    pub fn with_slc(mut self, slc: SlcConfig) -> Self {
        self.slc = Some(slc);
        self
    }

    /// Enables a RAM read cache of the given capacity (Implication 3).
    pub fn with_read_cache(mut self, capacity: Bytes) -> Self {
        self.read_cache = Some(capacity);
        self
    }

    /// Enables the RAM write buffer (real-device semantics; see
    /// [`real_device`](Self::real_device)). The paper's case study keeps it
    /// disabled.
    pub fn with_write_cache(mut self, capacity: Bytes) -> Self {
        self.write_cache = Some(capacity);
        self
    }

    /// A scaled-down device (same shape, tiny capacity) for tests and
    /// GC-pressure experiments.
    ///
    /// # Panics
    ///
    /// Panics if `blocks_4k_equiv` is not a positive multiple of 4.
    pub fn scaled(scheme: SchemeKind, blocks_4k_equiv: usize, pages_per_block: usize) -> Self {
        let mut cfg = Self::table_v(scheme);
        cfg.ftl = scheme.scaled_ftl(blocks_4k_equiv, pages_per_block);
        cfg
    }
}

/// Timestamps of one served request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// When the device accepted the request (end of any queueing).
    pub service_start: SimTime,
    /// When the last flash operation finished.
    pub finish: SimTime,
    /// Wake-up penalty this request paid (zero if the device was awake).
    pub wakeup: SimDuration,
}

/// What a power-loss recovery pass did and what it cost in simulated time.
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use = "recovery results carry the simulated downtime; inspect or log them"]
pub struct RecoveryOutcome {
    /// What the FTL rebuilt (pages scanned, mappings restored, fix-ups).
    pub report: RecoveryReport,
    /// Simulated wall-clock cost of the OOB scan: one page read per
    /// programmed page, charged to the device timeline.
    pub duration: SimDuration,
}

/// A simulated eMMC device replaying block-level requests.
pub struct EmmcDevice {
    config: DeviceConfig,
    ftl: Ftl,
    sched: ResourceSchedule,
    power: PowerModel,
    /// FIFO device interface: when the previous request finished.
    busy_until: SimTime,
    /// Plane placement order (channel-striped, then die-striped) and the
    /// round-robin cursor into it.
    plane_order: Vec<usize>,
    next_plane: usize,
    idle_gc_passes: u64,
    logical_pages: u64,
    cache: Option<WriteCache>,
    slc: Option<SlcBuffer>,
    read_cache: Option<ReadCache>,
    /// Chunks that could not be placed in their preferred pool and spilled
    /// into the other page size (HPS under pool-capacity pressure).
    pool_spills: u64,
    /// Per-plane busy window (`(window_end, ops_in_window)`): feeds the
    /// queue-depth counter track. Maintained only while an event recorder
    /// is attached.
    plane_windows: Vec<(SimTime, u32)>,
    /// Cross-layer telemetry; `None` (the default) costs one branch per
    /// instrumentation site.
    telemetry: Option<Telemetry>,
    /// Reusable per-request buffers; after warm-up the submit path
    /// performs no heap allocations.
    scratch: Scratch,
    /// Audits the FIFO interface: arrival timestamps must never regress
    /// (debug builds + `sanitize` feature).
    #[cfg(any(debug_assertions, feature = "sanitize"))]
    arrivals: hps_core::audit::MonotonicityGuard,
}

impl EmmcDevice {
    /// Builds a fresh device.
    ///
    /// # Errors
    ///
    /// Returns [`hps_core::Error::InvalidConfig`] if the FTL configuration
    /// is invalid.
    pub fn new(config: DeviceConfig) -> Result<Self> {
        let ftl = Ftl::new(config.ftl.clone())?;
        let sched = ResourceSchedule::new(config.ftl.geometry, config.timing, config.channel_mode);
        let logical_pages = ftl.logical_capacity().as_u64() / 4096;
        let plane_order = striped_plane_order(config.ftl.geometry);
        let plane_windows = vec![(SimTime::ZERO, 0u32); ftl.plane_count()];
        let cache = config.write_cache.map(WriteCache::new);
        let slc = config.slc.map(SlcBuffer::new);
        let read_cache = config.read_cache.map(ReadCache::new);
        Ok(EmmcDevice {
            power: PowerModel::new(config.power),
            config,
            ftl,
            sched,
            busy_until: SimTime::ZERO,
            plane_order,
            next_plane: 0,
            idle_gc_passes: 0,
            logical_pages,
            cache,
            slc,
            read_cache,
            pool_spills: 0,
            plane_windows,
            telemetry: None,
            scratch: Scratch::new(),
            #[cfg(any(debug_assertions, feature = "sanitize"))]
            arrivals: hps_core::audit::MonotonicityGuard::new(),
        })
    }

    /// Attaches a telemetry bundle: subsequent requests update its metrics
    /// registry and, when it carries a recorder, emit lifecycle events.
    /// Replaces any previously attached bundle.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// The attached telemetry bundle, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Mutable access to the attached telemetry bundle (the I/O stack
    /// records its events through this).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_mut()
    }

    /// Detaches and returns the telemetry bundle.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take()
    }

    /// The metrics summary of a replay (what `--metrics-out` writes):
    /// `metrics`' own export ([`ReplayMetrics::to_registry`]) plus the
    /// service-time histogram, the mapping size and the schedule's busy
    /// time, merged with whatever the attached telemetry collected. Each
    /// name has exactly one source, and the device is left untouched, so
    /// calling this twice yields the same summary.
    pub fn metrics_registry(&self, metrics: &ReplayMetrics) -> MetricsRegistry {
        let mut registry = metrics.to_registry();
        let service = registry.histogram("emmc.service_ms");
        registry.merge_histogram(service, &metrics.service_ms);
        registry.add("ftl.map.mapped_lpns", self.ftl.mapped_lpns() as u64);
        registry.add("emmc.sched.busy_ms", self.sched.total_busy().as_ms());
        if let Some(tel) = &self.telemetry {
            registry.merge(&tel.registry);
        }
        registry
    }

    /// The configuration in force.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The device's FTL (read-only view for inspection).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// When the device becomes idle after everything submitted so far.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Pre-ages the flash array from a wear distribution so the device
    /// starts mid-life; see [`Ftl::inject_wear`]. Call right after
    /// construction, before the first request.
    ///
    /// # Panics
    ///
    /// Panics if any block has already been programmed or erased.
    pub fn inject_wear(&mut self, profile: &hps_nand::WearProfile) {
        self.ftl.inject_wear(profile);
    }

    /// Arms a sudden-power-off: after `after_ops` further flash mutations
    /// (program attempts or erases) the device fails every request with
    /// [`hps_core::Error::PowerLoss`] until [`EmmcDevice::recover`] runs.
    ///
    /// # Errors
    ///
    /// Returns [`hps_core::Error::InvalidConfig`] when fault injection is
    /// disabled (`FaultConfig::NONE`).
    pub fn arm_crash(&mut self, after_ops: u64) -> Result<()> {
        self.ftl.arm_crash(after_ops)
    }

    /// Runs power-loss recovery: rebuilds the FTL mapping and space
    /// accounting from the simulated per-page OOB journal, then charges the
    /// simulated scan time (one read per programmed page) to the device
    /// timeline by advancing `busy_until`.
    ///
    /// # Errors
    ///
    /// Propagates audit violations detected while re-verifying the rebuilt
    /// state (debug/`sanitize` builds).
    pub fn recover(&mut self) -> Result<RecoveryOutcome> {
        let report = self.ftl.recover()?;
        let mut duration = SimDuration::ZERO;
        for &(size, count) in &report.pages_scanned_by_size {
            duration += self.config.timing.read_total(size) * count;
        }
        self.busy_until += duration;
        Ok(RecoveryOutcome { report, duration })
    }

    /// Serves one request. Requests must be submitted in non-decreasing
    /// arrival order (the FIFO interface).
    ///
    /// # Errors
    ///
    /// Returns [`hps_core::Error::CapacityExhausted`] when the workload
    /// overflows the device even after garbage collection.
    ///
    /// # Panics
    ///
    /// Panics if requests arrive out of order (checked in debug builds and
    /// under the `sanitize` feature).
    pub fn submit(&mut self, request: &IoRequest) -> Result<Completion> {
        // Root of the per-request host-time budget: every phase guard
        // below attributes into this (sampled) request scope.
        let _prof_req = hps_obs::profile::request();
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        hps_core::audit::enforce(
            self.arrivals
                .try_advance(request.arrival.as_ns(), Some(request.id)),
        );
        self.ftl
            .audit_set_context(request.arrival.as_ns(), Some(request.id));
        if let Some(tel) = &mut self.telemetry {
            tel.span_open(request.id, request.arrival.as_ns());
        }
        let result = self.submit_inner(request);
        if result.is_err() {
            // Keep the span ledger balanced when a submission fails: the
            // success path closes the span in `record_request`.
            if let Some(tel) = &mut self.telemetry {
                tel.span_close(request.id, request.arrival.as_ns());
            }
        }
        result
    }

    fn submit_inner(&mut self, request: &IoRequest) -> Result<Completion> {
        // Take the scratch bundle out of `self` (a cheap pointer move) so
        // the pipeline below can borrow the device and the buffers
        // independently; put it back whatever happens.
        let mut scratch = core::mem::take(&mut self.scratch);
        let result = self.serve(request, &mut scratch);
        self.scratch = scratch;
        result
    }

    fn serve(&mut self, request: &IoRequest, scratch: &mut Scratch) -> Result<Completion> {
        let arrival = request.arrival;

        // Queue-wait phase: the device front end (idle-GC decision, power
        // wakeup/doze, service-start bookkeeping). Dropped explicitly once
        // the service start time is fixed.
        let prof_wait = hps_obs::profile::phase(hps_obs::Phase::QueueWait);

        // Idle-time GC (Implication 2): if the gap since the device went
        // idle is long, reclaim garbage invisibly before the request lands.
        if self.config.ftl.gc_trigger.collects_when_idle()
            && arrival.saturating_since(self.busy_until) >= self.config.idle_gc_min_gap
        {
            scratch.ops.clear();
            self.ftl_call(|ftl| ftl.idle_gc_into(&mut scratch.ops))?;
            if !scratch.ops.is_empty() {
                self.idle_gc_passes += 1;
                let gc_start = self.busy_until;
                let gc_finish = self.schedule_ops(&scratch.ops, gc_start, None);
                if let Some(tel) = self.telemetry.as_mut().filter(|tel| tel.recording()) {
                    tel.emit(Event::span(
                        gc_start,
                        gc_finish.saturating_since(gc_start),
                        EventKind::GcPass {
                            ops: scratch.ops.len() as u32,
                            idle: true,
                        },
                    ));
                }
                self.busy_until = self.busy_until.max(gc_finish);
            }
        }

        let wakeup = self.power.wakeup_penalty(arrival);
        let doze = self.power.take_last_doze();
        if let Some(tel) = &mut self.telemetry {
            if let Some((slept_from, slept_to)) = doze {
                tel.registry.record(
                    "power.doze_ms",
                    slept_to.saturating_since(slept_from).as_ms_f64(),
                );
                if tel.recording() {
                    tel.emit(Event::span(
                        slept_from,
                        slept_to.saturating_since(slept_from),
                        EventKind::PowerSleep,
                    ));
                }
            }
        }
        let service_start = arrival.max(self.busy_until);
        let start = service_start + wakeup + self.config.cmd_overhead;
        drop(prof_wait);

        self.build_ops(request, scratch)?;
        let host_chunks = scratch.ops.iter().filter(|op| !op.for_gc).count() as u32;
        let inline_gc_ops = scratch.ops.len() as u32 - host_chunks;
        let flash_finish = self
            .schedule_ops(&scratch.ops, start, Some(request.id))
            .max(start);

        // SLC-mode region (Implication 5): small writes are acknowledged
        // after the fast SLC program; the MLC programs already scheduled on
        // the resources model the background migration drain.
        let slc_finish = match (&mut self.slc, request.direction) {
            (Some(slc), Direction::Write) if slc.absorbs(request.size) => {
                let space_ready = slc.admit(start, request.size, flash_finish);
                let host_xfer = SimDuration::from_ns(
                    request.size.as_u64() * self.config.timing.transfer_ns_per_byte,
                );
                Some(start.max(space_ready) + host_xfer + slc.program_time(request.size))
            }
            _ => None,
        };

        // With the RAM buffer enabled, writes are acknowledged once the
        // data is transferred into the buffer; programming drains in the
        // background (its resource reservations are already in `sched`, so
        // later requests contend with the drain naturally).
        let (finish, ack) = if let Some(finish) = slc_finish {
            (finish, Some(AckKind::Slc))
        } else {
            match (&mut self.cache, request.direction) {
                (Some(cache), Direction::Write) => {
                    match cache.admit(start, request.size, flash_finish) {
                        Some(space_ready) => {
                            let host_xfer = SimDuration::from_ns(
                                request.size.as_u64() * self.config.timing.transfer_ns_per_byte,
                            );
                            (
                                start.max(space_ready)
                                    + self.config.cache_write_overhead
                                    + host_xfer,
                                Some(AckKind::Buffer),
                            )
                        }
                        None => (flash_finish, None), // larger than the buffer: write-through
                    }
                }
                _ => (flash_finish, None),
            }
        };

        self.busy_until = finish;
        self.power.note_activity(flash_finish.max(finish));
        self.record_request(
            request,
            service_start,
            wakeup,
            start,
            finish,
            host_chunks,
            inline_gc_ops,
            ack,
        );
        Ok(Completion {
            service_start,
            finish,
            wakeup,
        })
    }

    /// Schedules `ops`, routing per-op telemetry (flash counters and
    /// channel/die span events) through the attached bundle.
    fn schedule_ops(
        &mut self,
        ops: &[FlashOp],
        earliest: SimTime,
        request_id: Option<u64>,
    ) -> SimTime {
        match &mut self.telemetry {
            None => self.sched.schedule_batch(ops, earliest),
            Some(tel) => {
                let recording = tel.recording();
                let windows = &mut self.plane_windows;
                self.sched
                    .schedule_batch_observed(ops, earliest, |op, scheduled| {
                        if recording {
                            // Busy-window queue depth: ops whose service
                            // overlaps the plane's current busy stretch.
                            let (window_end, depth) = &mut windows[op.plane];
                            if scheduled.start >= *window_end {
                                *depth = 1;
                            } else {
                                *depth += 1;
                            }
                            *window_end = (*window_end).max(scheduled.finish);
                        }
                        let (counter, class) = match op.kind {
                            OpKind::Read => ("emmc.flash.reads", OpClass::Read),
                            OpKind::Program => ("emmc.flash.programs", OpClass::Program),
                            OpKind::Erase => ("emmc.flash.erases", OpClass::Erase),
                        };
                        tel.registry.add(counter, 1);
                        if op.for_gc {
                            tel.registry.add("emmc.flash.gc_ops", 1);
                        }
                        if recording {
                            let bytes = if op.kind == OpKind::Erase {
                                0
                            } else {
                                op.page_size.as_u64()
                            };
                            tel.emit(Event::span(
                                scheduled.start,
                                scheduled.finish.saturating_since(scheduled.start),
                                EventKind::FlashOp {
                                    request: if op.for_gc { None } else { request_id },
                                    op: class,
                                    channel: scheduled.channel as u32,
                                    die: scheduled.die as u32,
                                    bytes,
                                    gc: op.for_gc,
                                },
                            ));
                        }
                    })
            }
        }
    }

    /// Runs one FTL write or idle-GC call. With telemetry attached, the
    /// call's collections record their mean migration cost in
    /// `ftl.gc.migrated_pages_per_run`; without it, no stats are read.
    fn ftl_call(&mut self, call: impl FnOnce(&mut Ftl) -> Result<()>) -> Result<()> {
        let Some(tel) = &mut self.telemetry else {
            return call(&mut self.ftl);
        };
        let before = self.ftl.stats();
        let result = call(&mut self.ftl);
        let after = self.ftl.stats();
        let runs = after.gc_runs - before.gc_runs;
        if runs > 0 {
            let migrated = (after.gc_programs - before.gc_programs) as f64 / runs as f64;
            tel.registry
                .record("ftl.gc.migrated_pages_per_run", migrated);
        }
        result
    }

    /// Updates request-level counters/histograms and emits lifecycle
    /// events for one served request. No-op without telemetry.
    #[allow(clippy::too_many_arguments)]
    fn record_request(
        &mut self,
        request: &IoRequest,
        service_start: SimTime,
        wakeup: SimDuration,
        start: SimTime,
        finish: SimTime,
        host_chunks: u32,
        inline_gc_ops: u32,
        ack: Option<AckKind>,
    ) {
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        tel.span_close(request.id, finish.as_ns());
        let arrival = request.arrival;
        let response = finish.saturating_since(arrival);
        let queue_wait = service_start.saturating_since(arrival);
        // Request counts and response/service times are the replay
        // metrics' facts; the registry holds only what they do not.
        let bytes = match request.direction {
            Direction::Read => "emmc.bytes.read",
            Direction::Write => "emmc.bytes.written",
        };
        tel.registry.add(bytes, request.size.as_u64());
        tel.registry
            .record("emmc.request_kib", request.size.as_u64() as f64 / 1024.0);
        tel.registry
            .record("emmc.queue_wait_ms", queue_wait.as_ms_f64());
        if !wakeup.is_zero() {
            tel.registry.add("power.wakeups", 1);
            tel.registry.record("power.wakeup_ms", wakeup.as_ms_f64());
        }
        match ack {
            Some(AckKind::Slc) => tel.registry.add("emmc.slc.acks", 1),
            Some(AckKind::Buffer) => tel.registry.add("emmc.cache.write_acks", 1),
            None => {}
        }
        if !tel.recording() {
            return;
        }
        let id = request.id;
        tel.emit(Event::span(
            arrival,
            response,
            EventKind::Request {
                id,
                dir: request.direction,
                bytes: request.size.as_u64(),
                lba: request.lba,
            },
        ));
        if !queue_wait.is_zero() {
            tel.emit(Event::span(
                arrival,
                queue_wait,
                EventKind::QueueWait { id },
            ));
        }
        if !wakeup.is_zero() {
            tel.emit(Event::span(service_start, wakeup, EventKind::Wakeup { id }));
        }
        tel.emit(Event::instant(
            start,
            EventKind::Split {
                id,
                chunks: host_chunks,
            },
        ));
        if inline_gc_ops > 0 {
            tel.emit(Event::instant(
                start,
                EventKind::GcPass {
                    ops: inline_gc_ops,
                    idle: false,
                },
            ));
        }
        if let Some(kind) = ack {
            tel.emit(Event::instant(finish, EventKind::CacheAck { id, kind }));
        }
        // Per-plane counter samples (Chrome "C" tracks): queue depth at
        // this request's completion, and the garbage ratio backing the GC
        // victim-existence fast path.
        for plane in 0..self.plane_windows.len() {
            let (window_end, depth) = self.plane_windows[plane];
            let depth = if finish < window_end { depth } else { 0 };
            tel.emit(Event::instant(
                finish,
                EventKind::PlaneQueueDepth {
                    plane: plane as u32,
                    depth,
                },
            ));
            tel.emit(Event::instant(
                finish,
                EventKind::PlaneGarbageRatio {
                    plane: plane as u32,
                    ratio: self.ftl.garbage_ratio(plane),
                },
            ));
        }
    }

    /// Replays a whole trace, filling in each record's service-start and
    /// finish timestamps, and returns the replay's metrics.
    ///
    /// # Errors
    ///
    /// Returns the first error a submission raises.
    pub fn replay(&mut self, trace: &mut Trace) -> Result<ReplayMetrics> {
        let name = trace.name().to_string();
        let records = trace
            .records_mut()
            .iter_mut()
            .map(|record| (record.request, Some(record)));
        self.replay_loop(name, records)
    }

    /// Replays every request a [`TraceSource`] yields, without ever
    /// materializing the trace: resident memory stays O(1) in the stream
    /// length (capped metrics, reused scratch buffers). With a source that
    /// cursors over a materialized trace — or a streaming generator at
    /// scale 1 — the returned metrics are identical to
    /// [`EmmcDevice::replay`]'s: both run the same per-request loop over
    /// the same requests in the same order.
    ///
    /// # Errors
    ///
    /// Returns the first error a submission raises.
    pub fn replay_stream<S: TraceSource + ?Sized>(
        &mut self,
        source: &mut S,
    ) -> Result<ReplayMetrics> {
        let name = source.name().to_string();
        let requests = std::iter::from_fn(|| source.next_request())
            .map(|request| (request, None::<&mut TraceRecord>));
        self.replay_loop(name, requests)
    }

    /// The per-request loop behind [`EmmcDevice::replay`] and
    /// [`EmmcDevice::replay_stream`]: submits each request in order, folds
    /// its completion into the metrics, and writes the service-start and
    /// finish timestamps back into the request's trace record when it has
    /// one. Ends with FTL/power state snapshotted into the metrics and the
    /// end-of-run audit sweep.
    fn replay_loop<'r>(
        &mut self,
        trace_name: String,
        requests: impl Iterator<Item = (IoRequest, Option<&'r mut TraceRecord>)>,
    ) -> Result<ReplayMetrics> {
        let mut metrics = ReplayMetrics {
            trace_name,
            scheme: self.config.scheme.label().to_string(),
            ..ReplayMetrics::default()
        };
        for (request, record) in requests {
            let completion = self.submit(&request)?;
            if let Some(record) = record {
                *record = record
                    .with_service_start(completion.service_start)
                    .with_finish(completion.finish);
            }
            metrics.total_requests += 1;
            match request.direction {
                Direction::Read => metrics.reads += 1,
                Direction::Write => metrics.writes += 1,
            }
            metrics.push_response_sample(
                completion
                    .finish
                    .saturating_since(request.arrival)
                    .as_ms_f64(),
            );
            metrics.service_ms.observe(
                completion
                    .finish
                    .saturating_since(completion.service_start)
                    .as_ms_f64(),
            );
            if completion.service_start == request.arrival {
                metrics.nowait_requests += 1;
            }
        }
        metrics.ftl = self.ftl.stats();
        metrics.space = self.ftl.space();
        metrics.wear = self.ftl.wear();
        metrics.mode_switches = self.power.mode_switches();
        metrics.time_asleep = self.power.time_asleep();
        metrics.idle_gc_passes = self.idle_gc_passes;
        metrics.pool_spills = self.pool_spills;
        self.audit_end_of_run();
        Ok(metrics)
    }

    /// End-of-run invariant sweep: a full shadow-vs-real FTL cross-check
    /// plus the telemetry span-balance check. Panics on any violation; a
    /// no-op shell in un-sanitized release builds. [`EmmcDevice::replay`]
    /// runs it automatically after a successful replay.
    pub fn audit_end_of_run(&self) {
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        {
            hps_core::audit::enforce(self.ftl.audit_deep_verify());
            if let Some(tel) = &self.telemetry {
                hps_core::audit::enforce(tel.audit_span_balance(self.busy_until.as_ns()));
            }
        }
    }

    /// Builds the flash operations for a request (including any GC the FTL
    /// performs inline for writes) into `scratch.ops`. Every buffer used
    /// is part of `scratch`, so a warm call allocates nothing.
    fn build_ops(&mut self, request: &IoRequest, scratch: &mut Scratch) -> Result<()> {
        let request = self.clamp_to_capacity(request);
        scratch.ops.clear();
        match request.direction {
            Direction::Write => {
                // Clamping moves a request's start, never its size: a write
                // larger than the whole logical range would still reach
                // LPNs past it, which the FTL rejects.
                if request.size.div_ceil(Bytes::kib(4)) > self.logical_pages {
                    return Err(Error::CapacityExhausted {
                        location: format!(
                            "a {} write exceeds the {} logical capacity",
                            request.size,
                            self.ftl.logical_capacity()
                        ),
                    });
                }
                scratch.chunks.clear();
                split_request_into(&request, self.config.scheme, &mut scratch.chunks);
                // Write-allocate into the read cache: recently written data
                // is the likeliest to be re-read.
                if let Some(cache) = &mut self.read_cache {
                    for chunk in &scratch.chunks {
                        for &lpn in &chunk.lpns {
                            cache.insert(lpn);
                        }
                    }
                }
                for chunk in &scratch.chunks {
                    let plane = self.pick_plane();
                    let ops_before = scratch.ops.len();
                    match self.ftl_call(|ftl| {
                        ftl.write_chunk_into(
                            plane,
                            chunk.page_size,
                            &chunk.lpns,
                            chunk.data,
                            &mut scratch.ops,
                        )
                    }) {
                        Ok(()) => {}
                        Err(Error::CapacityExhausted { .. }) => {
                            // The failed attempt's ops (inline GC before the
                            // exhaustion) are not scheduled — the historical
                            // semantics of the per-call op list.
                            scratch.ops.truncate(ops_before);
                            self.spill_chunk(plane, chunk, &mut scratch.ops)?;
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            }
            Direction::Read => {
                let first = Lpn::from_lba(request.lba);
                let pages = request.size.div_ceil(Bytes::kib(4));
                scratch.lpns.clear();
                scratch.lpns.extend((0..pages).map(|i| Lpn(first.0 + i)));
                // RAM read cache (Implication 3): cached pages cost no
                // flash operation.
                let before_cache = scratch.lpns.len();
                if let Some(cache) = &mut self.read_cache {
                    scratch.lpns.retain(|&lpn| !cache.lookup(lpn));
                }
                scratch.unmapped.clear();
                self.ftl
                    .read_ops_into(&scratch.lpns, &mut scratch.ops, &mut scratch.unmapped);
                if let Some(tel) = &mut self.telemetry {
                    let hits = (before_cache - scratch.lpns.len()) as u64;
                    if hits > 0 {
                        tel.registry.add("emmc.read_cache.hits", hits);
                    }
                    tel.registry
                        .add("ftl.map.read_lookups", scratch.lpns.len() as u64);
                    if !scratch.unmapped.is_empty() {
                        tel.registry
                            .add("ftl.map.unmapped_reads", scratch.unmapped.len() as u64);
                    }
                }
                // Never-written LPNs model pre-existing data (the trace was
                // captured on a device with a populated filesystem): charge
                // the reads the scheme would perform, page-sized like writes.
                for run in consecutive_runs(&scratch.unmapped) {
                    scratch.read_chunks.clear();
                    split_lpn_run_into(run.0, run.1, self.config.scheme, &mut scratch.read_chunks);
                    for chunk in &scratch.read_chunks {
                        let plane = self.pick_plane();
                        scratch.ops.push(FlashOp::read(plane, chunk.page_size));
                    }
                }
                Ok(())
            }
        }
    }

    /// Wraps a request so it fits inside the logical capacity.
    fn clamp_to_capacity(&self, request: &IoRequest) -> IoRequest {
        let pages = request.size.div_ceil(Bytes::kib(4)).max(1);
        // `max_start` is strictly below `logical_pages` whenever capacity
        // is non-zero (pages >= 1), and zero otherwise — so the min alone
        // keeps the LPN in range; no modulo needed on this per-request path.
        let max_start = self.logical_pages.saturating_sub(pages);
        let lpn = (request.lba / 4096).min(max_start);
        let mut clamped = *request;
        clamped.lba = lpn * 4096;
        clamped
    }

    /// Places a chunk whose preferred pool is exhausted into the *other*
    /// page size (HPS only): an 8 KiB pair becomes two 4 KiB pages; a lone
    /// 4 KiB chunk pads into an 8 KiB page (half wasted). Without an
    /// alternative pool the original exhaustion propagates.
    fn spill_chunk(&mut self, plane: usize, chunk: &Chunk, ops: &mut Vec<FlashOp>) -> Result<()> {
        let k4 = Bytes::kib(4);
        let k8 = Bytes::kib(8);
        let exhausted = || Error::CapacityExhausted {
            location: format!("plane {plane} (both pools, spill failed)"),
        };
        // Only a capacity failure on the alternative pool collapses into
        // the combined "both pools" exhaustion; fault-injection errors
        // (power loss, read-only degradation) must propagate untouched.
        let collapse = |e: Error| match e {
            Error::CapacityExhausted { .. } => exhausted(),
            other => other,
        };
        if chunk.page_size == k8 && self.config.scheme.has_4k() {
            for &lpn in &chunk.lpns {
                let plane = self.pick_plane();
                self.ftl_call(|ftl| ftl.write_chunk_into(plane, k4, &[lpn], k4, ops))
                    .map_err(collapse)?;
            }
        } else if chunk.page_size == k4 && self.config.scheme.has_8k() {
            self.ftl_call(|ftl| ftl.write_chunk_into(plane, k8, &chunk.lpns, chunk.data, ops))
                .map_err(collapse)?;
        } else {
            return Err(exhausted());
        }
        self.pool_spills += 1;
        Ok(())
    }

    /// Chunks spilled across pools so far (see `spill_chunk`).
    pub fn pool_spills(&self) -> u64 {
        self.pool_spills
    }

    /// The SLC region's runtime state, when configured.
    pub fn slc(&self) -> Option<&SlcBuffer> {
        self.slc.as_ref()
    }

    /// The read cache's runtime state, when configured.
    pub fn read_cache(&self) -> Option<&ReadCache> {
        self.read_cache.as_ref()
    }

    /// Round-robin plane placement for writes and synthetic reads — the
    /// dynamic allocation strategy. The order stripes channels first and
    /// dies second, so consecutive chunks exploit the device's parallelism.
    fn pick_plane(&mut self) -> usize {
        let plane = self.plane_order[self.next_plane];
        // Compare-and-reset instead of `%`: this runs once per chunk.
        self.next_plane += 1;
        if self.next_plane == self.plane_order.len() {
            self.next_plane = 0;
        }
        plane
    }
}

/// Plane placement order that alternates channels first, then dies within
/// a channel, then planes within a die — consecutive sub-requests land on
/// independent resources.
fn striped_plane_order(geometry: hps_nand::Geometry) -> Vec<usize> {
    let mut order = Vec::with_capacity(geometry.planes_total());
    let dies_per_channel = geometry.chips_per_channel * geometry.dies_per_chip;
    for plane_in_die in 0..geometry.planes_per_die {
        for die_in_channel in 0..dies_per_channel {
            for channel in 0..geometry.channels {
                let die_flat = channel * dies_per_channel + die_in_channel;
                order.push(die_flat * geometry.planes_per_die + plane_in_die);
            }
        }
    }
    debug_assert_eq!(order.len(), geometry.planes_total());
    order
}

impl core::fmt::Debug for EmmcDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EmmcDevice")
            .field("scheme", &self.config.scheme)
            .field("busy_until", &self.busy_until)
            .field("ftl", &self.ftl)
            .finish_non_exhaustive()
    }
}

/// Groups LPNs into `(start, length)` runs of consecutive ascending
/// values, lazily — no allocation. Input is normally sorted; for repeated
/// or non-monotonic input, any element that is not exactly `start + len`
/// simply begins a new run.
fn consecutive_runs(lpns: &[Lpn]) -> ConsecutiveRuns<'_> {
    ConsecutiveRuns { lpns, idx: 0 }
}

/// Iterator returned by [`consecutive_runs`].
struct ConsecutiveRuns<'a> {
    lpns: &'a [Lpn],
    idx: usize,
}

impl Iterator for ConsecutiveRuns<'_> {
    type Item = (Lpn, u64);

    fn next(&mut self) -> Option<(Lpn, u64)> {
        let start = *self.lpns.get(self.idx)?;
        self.idx += 1;
        let mut len = 1u64;
        while self
            .lpns
            .get(self.idx)
            .is_some_and(|lpn| lpn.0 == start.0 + len)
        {
            len += 1;
            self.idx += 1;
        }
        Some((start, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::Direction;

    fn device(scheme: SchemeKind) -> EmmcDevice {
        let mut cfg = DeviceConfig::scaled(scheme, 64, 16);
        cfg.power = PowerConfig::DISABLED;
        EmmcDevice::new(cfg).unwrap()
    }

    fn req(id: u64, ms: u64, dir: Direction, kib: u64, lba: u64) -> IoRequest {
        IoRequest::new(id, SimTime::from_ms(ms), dir, Bytes::kib(kib), lba)
    }

    fn runs(lpns: &[Lpn]) -> Vec<(Lpn, u64)> {
        consecutive_runs(lpns).collect()
    }

    #[test]
    fn consecutive_runs_grouping() {
        let lpns = [Lpn(1), Lpn(2), Lpn(3), Lpn(7), Lpn(9), Lpn(10)];
        assert_eq!(runs(&lpns), vec![(Lpn(1), 3), (Lpn(7), 1), (Lpn(9), 2)]);
    }

    #[test]
    fn consecutive_runs_empty_input() {
        assert!(consecutive_runs(&[]).next().is_none());
    }

    #[test]
    fn consecutive_runs_single_lpn() {
        assert_eq!(runs(&[Lpn(42)]), vec![(Lpn(42), 1)]);
    }

    #[test]
    fn consecutive_runs_repeated_lpns_start_new_runs() {
        // A repeat is not `start + len`, so it opens a fresh run rather
        // than extending (or corrupting) the current one.
        let lpns = [Lpn(5), Lpn(5), Lpn(6)];
        assert_eq!(runs(&lpns), vec![(Lpn(5), 1), (Lpn(5), 2)]);
    }

    #[test]
    fn consecutive_runs_non_monotonic_input() {
        // Descending or out-of-order values each start their own run;
        // every input LPN is still covered exactly once.
        let lpns = [Lpn(9), Lpn(3), Lpn(4), Lpn(1)];
        assert_eq!(runs(&lpns), vec![(Lpn(9), 1), (Lpn(3), 2), (Lpn(1), 1)]);
        let total: u64 = runs(&lpns).iter().map(|&(_, len)| len).sum();
        assert_eq!(total as usize, lpns.len());
    }

    #[test]
    fn single_write_completes_after_program() {
        let mut dev = device(SchemeKind::Ps4);
        let c = dev.submit(&req(0, 10, Direction::Write, 4, 0)).unwrap();
        assert_eq!(c.service_start, SimTime::from_ms(10));
        let t = NandTiming::TABLE_V;
        let expected = SimTime::from_ms(10)
            + SimDuration::from_us(100)
            + t.transfer(Bytes::kib(4))
            + t.page_4k.program;
        assert_eq!(c.finish, expected);
    }

    #[test]
    fn fifo_queueing_delays_back_to_back_requests() {
        let mut dev = device(SchemeKind::Ps4);
        let c0 = dev.submit(&req(0, 0, Direction::Write, 4, 0)).unwrap();
        let c1 = dev.submit(&req(1, 0, Direction::Write, 4, 8192)).unwrap();
        assert_eq!(c1.service_start, c0.finish, "second request waits");
        assert!(c1.finish > c0.finish);
    }

    #[test]
    fn spaced_requests_do_not_wait() {
        let mut dev = device(SchemeKind::Ps4);
        dev.submit(&req(0, 0, Direction::Write, 4, 0)).unwrap();
        let c1 = dev.submit(&req(1, 500, Direction::Write, 4, 8192)).unwrap();
        assert_eq!(c1.service_start, SimTime::from_ms(500), "device was idle");
    }

    #[test]
    fn hps_beats_4ps_on_large_writes() {
        let big = req(0, 0, Direction::Write, 256, 0);
        let mut d4 = device(SchemeKind::Ps4);
        let mut dh = device(SchemeKind::Hps);
        let f4 = d4.submit(&big).unwrap().finish;
        let fh = dh.submit(&big).unwrap().finish;
        assert!(fh < f4, "HPS large write ({fh}) must beat 4PS ({f4})");
    }

    #[test]
    fn hps_beats_8ps_on_small_writes() {
        let small = req(0, 0, Direction::Write, 4, 0);
        let mut d8 = device(SchemeKind::Ps8);
        let mut dh = device(SchemeKind::Hps);
        let f8 = d8.submit(&small).unwrap().finish;
        let fh = dh.submit(&small).unwrap().finish;
        assert!(fh < f8, "HPS 4K write ({fh}) must beat 8PS ({f8})");
    }

    #[test]
    fn read_after_write_uses_mapping() {
        let mut dev = device(SchemeKind::Hps);
        dev.submit(&req(0, 0, Direction::Write, 16, 0)).unwrap();
        let c = dev.submit(&req(1, 1000, Direction::Read, 16, 0)).unwrap();
        assert!(c.finish > c.service_start);
    }

    #[test]
    fn unmapped_reads_still_cost_time() {
        let mut dev = device(SchemeKind::Ps4);
        let c = dev.submit(&req(0, 0, Direction::Read, 64, 0)).unwrap();
        let t = NandTiming::TABLE_V;
        // 16 synthetic page reads cannot be free.
        assert!(c.finish - c.service_start >= t.page_4k.read);
    }

    #[test]
    fn replay_fills_timestamps_and_metrics() {
        let mut trace = Trace::new("unit");
        for i in 0..10u64 {
            trace.push_request(req(i, i * 100, Direction::Write, 4, i * 4096));
        }
        let mut dev = device(SchemeKind::Ps4);
        let metrics = dev.replay(&mut trace).unwrap();
        assert!(trace.is_replayed());
        assert_eq!(metrics.total_requests, 10);
        assert_eq!(metrics.writes, 10);
        assert_eq!(
            metrics.nowait_pct(),
            100.0,
            "100ms gaps dwarf service times"
        );
        assert!(metrics.mean_response_ms() > 0.0);
        assert!(metrics.space_utilization() > 0.99);
    }

    #[test]
    fn wakeup_penalty_visible_in_service_time() {
        let mut cfg = DeviceConfig::scaled(SchemeKind::Ps4, 64, 16);
        cfg.power = PowerConfig::NEXUS5;
        let mut dev = EmmcDevice::new(cfg).unwrap();
        dev.submit(&req(0, 0, Direction::Write, 4, 0)).unwrap();
        // 2 s gap → doze → wake penalty.
        let c = dev
            .submit(&req(1, 2_000, Direction::Write, 4, 8192))
            .unwrap();
        assert_eq!(c.wakeup, SimDuration::from_ms(5));
        assert!(c.finish - c.service_start >= SimDuration::from_ms(5));
    }

    #[test]
    fn lba_clamp_keeps_requests_in_range() {
        let mut dev = device(SchemeKind::Ps4);
        // Device capacity is 64 × 16 × 4 KiB × 8 planes = 32 MiB; aim beyond.
        let c = dev
            .submit(&req(0, 0, Direction::Write, 4, 1 << 40))
            .unwrap();
        assert!(c.finish > c.service_start);
    }

    #[test]
    fn write_larger_than_the_device_is_capacity_exhausted() {
        // Clamping cannot fit a 64 MiB write into 32 MiB; it is an error
        // (as when the device fills up), and a read that size still serves.
        for scheme in [SchemeKind::Ps4, SchemeKind::Hps] {
            let mut dev = device(scheme);
            let err = dev
                .submit(&req(0, 0, Direction::Write, 64 << 10, 0))
                .unwrap_err();
            assert!(
                matches!(err, Error::CapacityExhausted { .. }),
                "{scheme}: {err}"
            );
            assert!(dev.submit(&req(1, 1, Direction::Read, 64 << 10, 0)).is_ok());
        }
    }

    #[test]
    fn cached_write_acks_at_buffer_speed() {
        let mut cfg = DeviceConfig::scaled(SchemeKind::Ps4, 64, 16);
        cfg.power = PowerConfig::DISABLED;
        cfg.write_cache = Some(Bytes::kib(512));
        let mut dev = EmmcDevice::new(cfg).unwrap();
        let c = dev.submit(&req(0, 0, Direction::Write, 4, 0)).unwrap();
        // Ack = cmd overhead + cache overhead + host transfer, far below
        // the 1.385 ms NAND program.
        let t = NandTiming::TABLE_V;
        let expected = SimTime::ZERO
            + SimDuration::from_us(100)
            + SimDuration::from_ms(1)
            + t.transfer(Bytes::kib(4));
        assert_eq!(c.finish, expected);
        assert!(c.finish - c.service_start < t.page_4k.program + SimDuration::from_ms(1));
    }

    #[test]
    fn cache_backpressure_slows_sustained_writes() {
        let mut cfg = DeviceConfig::scaled(SchemeKind::Ps4, 64, 16);
        cfg.power = PowerConfig::DISABLED;
        cfg.write_cache = Some(Bytes::kib(16));
        let mut dev = EmmcDevice::new(cfg).unwrap();
        // Hammer 32 x 8 KiB writes back-to-back: the 16 KiB buffer must
        // stall on NAND drain, so late acks approach NAND speed.
        let mut last = SimTime::ZERO;
        for i in 0..32u64 {
            last = dev
                .submit(&req(i, 0, Direction::Write, 8, i * 8192))
                .unwrap()
                .finish;
        }
        let t = NandTiming::TABLE_V;
        // 32 x 8 KiB = 64 pages; even perfectly parallel across 2 channels
        // that is >= 32 program slots of drain time.
        assert!(
            last >= SimTime::ZERO + t.page_4k.program * 16,
            "backpressure must surface NAND speed, finished at {last}"
        );
    }

    #[test]
    fn oversized_write_bypasses_cache() {
        let mut cfg = DeviceConfig::scaled(SchemeKind::Ps4, 64, 16);
        cfg.power = PowerConfig::DISABLED;
        cfg.write_cache = Some(Bytes::kib(16));
        let mut dev = EmmcDevice::new(cfg).unwrap();
        let c = dev.submit(&req(0, 0, Direction::Write, 64, 0)).unwrap();
        let t = NandTiming::TABLE_V;
        assert!(
            c.finish - c.service_start >= t.page_4k.program,
            "write-through path"
        );
    }

    #[test]
    fn ps8_wastes_space_on_4k_writes_hps_does_not() {
        let mut d8 = device(SchemeKind::Ps8);
        let mut dh = device(SchemeKind::Hps);
        for i in 0..8u64 {
            let r = req(i, i * 10, Direction::Write, 4, i * 4096);
            d8.submit(&r).unwrap();
            dh.submit(&r).unwrap();
        }
        assert!((d8.ftl().space().utilization() - 0.5).abs() < 1e-9);
        assert!((dh.ftl().space().utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn read_cache_eliminates_repeat_flash_reads() {
        let mut cfg = DeviceConfig::scaled(SchemeKind::Ps4, 64, 16).with_read_cache(Bytes::mib(1));
        cfg.power = PowerConfig::DISABLED;
        let mut dev = EmmcDevice::new(cfg).unwrap();
        dev.submit(&req(0, 0, Direction::Write, 16, 0)).unwrap();
        let cold = dev.submit(&req(1, 100, Direction::Read, 16, 0)).unwrap();
        // The write write-allocated the pages, so even the first read hits.
        let t = NandTiming::TABLE_V;
        assert!(cold.finish - cold.service_start < t.page_4k.read);
        let rc = dev.read_cache().unwrap();
        assert_eq!(rc.misses(), 0);
        assert_eq!(rc.hits(), 4);
    }

    #[test]
    fn read_cache_hit_rate_tracks_reuse() {
        let mut cfg = DeviceConfig::scaled(SchemeKind::Ps4, 64, 16).with_read_cache(Bytes::kib(64));
        cfg.power = PowerConfig::DISABLED;
        let mut dev = EmmcDevice::new(cfg).unwrap();
        // Stream of never-reused reads: hit rate ~0.
        for i in 0..50u64 {
            dev.submit(&req(i, i * 10, Direction::Read, 4, (1000 + i * 64) * 4096))
                .unwrap();
        }
        assert!(dev.read_cache().unwrap().hit_rate() < 0.05);
    }

    #[test]
    fn slc_region_accelerates_small_writes() {
        let mut plain = DeviceConfig::scaled(SchemeKind::Ps4, 64, 16);
        plain.power = PowerConfig::DISABLED;
        let slc_cfg = plain.clone().with_slc(crate::slc::SlcConfig {
            capacity: Bytes::mib(1),
            program: SimDuration::from_us(450),
            max_request: Bytes::kib(8),
        });

        let r = req(0, 0, Direction::Write, 4, 0);
        let mlc = EmmcDevice::new(plain).unwrap().submit(&r).unwrap();
        let slc = EmmcDevice::new(slc_cfg).unwrap().submit(&r).unwrap();
        let t = NandTiming::TABLE_V;
        assert!(
            slc.finish < mlc.finish,
            "SLC ack {} must beat MLC {}",
            slc.finish,
            mlc.finish
        );
        assert!(slc.finish - slc.service_start < t.page_4k.program);
    }

    #[test]
    fn slc_region_ignores_large_writes() {
        let mut cfg =
            DeviceConfig::scaled(SchemeKind::Ps4, 64, 16).with_slc(crate::slc::SlcConfig {
                capacity: Bytes::mib(1),
                program: SimDuration::from_us(450),
                max_request: Bytes::kib(8),
            });
        cfg.power = PowerConfig::DISABLED;
        let mut dev = EmmcDevice::new(cfg).unwrap();
        let c = dev.submit(&req(0, 0, Direction::Write, 64, 0)).unwrap();
        let t = NandTiming::TABLE_V;
        assert!(
            c.finish - c.service_start >= t.page_4k.program,
            "MLC path for bulk"
        );
        assert_eq!(dev.slc().unwrap().absorbed(), 0);
    }

    #[test]
    fn slc_backpressure_degrades_to_drain_speed() {
        let mut cfg =
            DeviceConfig::scaled(SchemeKind::Ps4, 64, 16).with_slc(crate::slc::SlcConfig {
                capacity: Bytes::kib(16),
                program: SimDuration::from_us(450),
                max_request: Bytes::kib(8),
            });
        cfg.power = PowerConfig::DISABLED;
        let mut dev = EmmcDevice::new(cfg).unwrap();
        for i in 0..32u64 {
            dev.submit(&req(i, 0, Direction::Write, 8, i * 8192))
                .unwrap();
        }
        assert!(
            dev.slc().unwrap().stalls() > 0,
            "tiny region must backpressure"
        );
    }

    fn faulty_device(scheme: SchemeKind) -> EmmcDevice {
        let mut cfg = DeviceConfig::scaled(scheme, 64, 16);
        cfg.power = PowerConfig::DISABLED;
        cfg.ftl.faults = hps_nand::FaultConfig {
            seed: 7,
            ecc_bits_per_kib: 8,
            max_read_retries: 3,
            retry_rber_scale: 0.5,
            spare_blocks_per_pool: 2,
            ..hps_nand::FaultConfig::NONE
        };
        EmmcDevice::new(cfg).unwrap()
    }

    #[test]
    fn arm_crash_requires_fault_injection() {
        let mut dev = device(SchemeKind::Ps4);
        assert!(matches!(dev.arm_crash(1), Err(Error::InvalidConfig { .. })));
    }

    #[test]
    fn crash_mid_replay_then_recovery_resumes_service() {
        let mut dev = faulty_device(SchemeKind::Hps);
        // Land some data before the lights go out.
        for i in 0..8u64 {
            dev.submit(&req(i, i, Direction::Write, 4, i * 8)).unwrap();
        }
        dev.arm_crash(4).unwrap();
        let mut crashed = false;
        for i in 8..64u64 {
            match dev.submit(&req(i, i, Direction::Write, 4, (i % 16) * 8)) {
                Ok(_) => {}
                Err(Error::PowerLoss { .. }) => {
                    crashed = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(crashed, "armed crash must fire during the replay");

        let busy_before = dev.busy_until();
        let outcome = dev.recover().unwrap();
        assert!(outcome.report.pages_scanned > 0);
        assert!(
            outcome.duration > SimDuration::ZERO,
            "OOB scan must cost simulated time"
        );
        assert_eq!(dev.busy_until(), busy_before + outcome.duration);

        // The device serves requests again after recovery.
        let c = dev.submit(&req(100, 5000, Direction::Read, 4, 0)).unwrap();
        assert!(c.finish > c.service_start);
    }

    #[test]
    fn recovery_scan_time_matches_pages_scanned() {
        let mut dev = faulty_device(SchemeKind::Ps4);
        for i in 0..4u64 {
            dev.submit(&req(i, i, Direction::Write, 4, i * 8)).unwrap();
        }
        let outcome = dev.recover().unwrap();
        let t = NandTiming::TABLE_V;
        let expected: SimDuration = outcome
            .report
            .pages_scanned_by_size
            .iter()
            .map(|&(size, count)| t.read_total(size) * count)
            .fold(SimDuration::ZERO, |a, d| a + d);
        assert_eq!(outcome.duration, expected);
        assert_eq!(outcome.report.pages_scanned, 4, "one page per 4 KiB write");
    }
}
