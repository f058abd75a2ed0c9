//! The fleet execution engine: trace cache, device replay, sharded
//! fan-out, and the streaming reduction.
//!
//! # Determinism
//!
//! A fleet run is byte-identical at any `--jobs` count because nothing a
//! worker computes depends on scheduling:
//!
//! * device `i`'s configuration is a pure function of the spec and `i`
//!   ([`FleetSpec::setup`]);
//! * the fleet is cut into **fixed-size shards** ([`SHARD_DEVICES`]
//!   devices each) regardless of worker count, and `hps_core::par`
//!   returns shard results in input order;
//! * the reduction folds shard accumulators left-to-right in shard
//!   order, so even the order-sensitive float residue inside
//!   [`hps_obs::LogHistogram`] sums is fixed.
//!
//! # Memory
//!
//! Each shard job constructs a device, replays it, digests it into a
//! [`DeviceRecord`], folds the record into the shard's [`FleetAccum`],
//! and *drops the device and record* before touching the next index.
//! What survives a shard is one accumulator and one merged
//! [`MetricsSnapshot`] — both fixed-size — so RSS is flat in the device
//! count: `--devices 100000` peaks within a few MiB of `--devices 1000`.

use std::collections::BTreeMap;
use std::sync::Arc;

use hps_core::par::{par_map_batched, par_map_jobs};
use hps_core::{derive_seed, IoRequest, SimDuration, SimTime};
use hps_emmc::{DeviceConfig, EmmcDevice};
use hps_obs::{MetricsSnapshot, SnapshotTreeMerger};
use hps_trace::{Trace, TraceRecord, TraceSource};

use crate::record::{DeviceRecord, FleetAccum};
use crate::spec::{DeviceSetup, FleetSpec};

/// Devices per shard. Fixed (never derived from the job count) so the
/// shard cut — and with it every merge order — is identical at any
/// parallelism. 64 devices amortize the par-pool's per-job bookkeeping
/// while keeping ~1500 shards of work-stealing granularity at 100k
/// devices.
pub const SHARD_DEVICES: u64 = 64;

/// Logical page size of the request address space (4 KiB).
const PAGE_BYTES: u64 = 4096;

/// Salt decorrelating trace-generation seeds from device seeds.
const TRACE_SEED_SALT: u64 = 0x5EED_0F7B_ACE5_0001;

/// Gap inserted between wrapped passes of a folded trace, keeping
/// arrivals strictly monotone across the wrap.
const CYCLE_GAP: SimDuration = SimDuration::from_ms(1);

/// Memoized per-`(mix entry, variant)` traces: every device drawing the
/// same key replays the same [`Arc`]ed trace instead of regenerating it.
pub type TraceCache = BTreeMap<(usize, u32), Arc<Trace>>;

/// Everything one fleet run produces.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// The streaming numeric aggregate.
    pub accum: FleetAccum,
    /// Tree-merge of every device's [`MetricsSnapshot`]; its canonical
    /// bytes are the machine-checkable fleet result.
    pub snapshot: MetricsSnapshot,
}

/// Builds the trace cache for a spec: one truncated trace per
/// `(mix entry, variant)` pair, generated in parallel batches. Traces are
/// cut to `requests_per_device` records — the replay wraps around the cut
/// when a device needs more than one pass.
pub fn build_trace_cache(spec: &FleetSpec) -> TraceCache {
    let mut keys: Vec<(usize, u32)> = Vec::new();
    for m in 0..spec.mix.len() {
        for v in 0..spec.variants_per_workload.max(1) {
            keys.push((m, v));
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "infallible by construction; a generated prefix stays arrival-sorted"
    )]
    let traces = par_map_batched(4, keys.clone(), |(m, v)| {
        let profile = spec.mix.profile(m);
        let seed = derive_seed(
            spec.seed ^ TRACE_SEED_SALT,
            ((m as u64) << 32) | u64::from(v),
        );
        let full = hps_workloads::generate(&profile, seed);
        let records: Vec<TraceRecord> = full
            .records()
            .iter()
            .take(spec.requests_per_device as usize)
            .copied()
            .collect();
        let trace = Trace::from_records(full.name().to_string(), records);
        Arc::new(trace.expect("prefix stays sorted"))
    });
    keys.into_iter().zip(traces).collect()
}

/// A [`TraceSource`] that folds a cached trace into one device's address
/// span: logical addresses are remapped modulo the device's utilization
/// window (smaller windows model fuller devices and drive GC harder),
/// and the trace wraps with a monotone arrival offset when the device
/// replays more requests than the cache holds.
struct FoldedTrace<'a> {
    name: &'a str,
    records: &'a [TraceRecord],
    limit: u64,
    span_pages: u64,
    pos: usize,
    issued: u64,
    cycle_offset: SimDuration,
    cycle_span: SimDuration,
}

impl<'a> FoldedTrace<'a> {
    fn new(trace: &'a Trace, limit: u64, span_pages: u64) -> Self {
        let records = trace.records();
        let last_arrival = records
            .last()
            .map(|r| r.request.arrival)
            .unwrap_or(SimTime::ZERO);
        FoldedTrace {
            name: trace.name(),
            records,
            limit: if records.is_empty() { 0 } else { limit },
            span_pages: span_pages.max(1),
            pos: 0,
            issued: 0,
            cycle_offset: SimDuration::ZERO,
            cycle_span: last_arrival.saturating_since(SimTime::ZERO) + CYCLE_GAP,
        }
    }
}

impl TraceSource for FoldedTrace<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        if self.issued >= self.limit {
            return None;
        }
        let mut req = self.records[self.pos].request;
        req.id = self.issued;
        req.arrival += self.cycle_offset;
        // Cap giant bursts (CameraVideo records multi-MiB writes) at the
        // device's span: without this a single request can hold more live
        // pages than the device has physical ones.
        req.size = req
            .size
            .min(hps_core::Bytes::new(self.span_pages * PAGE_BYTES));
        let req_pages = req.size.as_u64().div_ceil(PAGE_BYTES);
        let window = self.span_pages.saturating_sub(req_pages) + 1;
        req.lba = ((req.lba / PAGE_BYTES) % window) * PAGE_BYTES;
        self.issued += 1;
        self.pos += 1;
        if self.pos == self.records.len() {
            self.pos = 0;
            self.cycle_offset += self.cycle_span;
        }
        Some(req)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.limit)
    }
}

/// Constructs, pre-ages, replays, and digests one device. The device is
/// dropped on return; only the fixed-size digest and snapshot survive.
///
/// Returns `None` when the device **wedges**: its folded span outgrew
/// what the mapping scheme could physically hold (an HPS device whose
/// live data is mostly 8 KiB-chunked can exhaust its half-capacity 8 KiB
/// pool near 0.5 utilization). A wedged device is a legitimate fleet
/// outcome — the accumulator counts it per scheme × geometry — not an
/// engine error; which devices wedge is a pure function of the spec, so
/// determinism is unaffected.
pub fn run_device(
    spec: &FleetSpec,
    cache: &TraceCache,
    setup: &DeviceSetup,
) -> Option<(DeviceRecord, MetricsSnapshot)> {
    let cfg = DeviceConfig::scaled(
        setup.scheme,
        setup.geometry.blocks_4k_equiv,
        setup.geometry.pages_per_block,
    );
    #[expect(
        clippy::expect_used,
        reason = "infallible by construction; spec geometry classes are valid scaled configs"
    )]
    let mut device = EmmcDevice::new(cfg).expect("spec geometries are valid");
    if let Some(wear) = &setup.wear {
        device.inject_wear(wear);
    }
    let logical_pages = device.ftl().logical_capacity().as_u64() / PAGE_BYTES;
    let span_pages = ((logical_pages as f64 * setup.utilization) as u64).max(1);
    #[expect(
        clippy::expect_used,
        reason = "infallible by construction; the cache covers every (mix, variant) key"
    )]
    let trace = cache
        .get(&(setup.mix_index, setup.variant))
        .expect("trace cache covers the spec's mix");
    let mut source = FoldedTrace::new(trace, spec.requests_per_device, span_pages);
    let metrics = device.replay_stream(&mut source).ok()?;
    let record = DeviceRecord::digest(setup, &device, &metrics);
    let snapshot = MetricsSnapshot::capture(&metrics.to_registry());
    Some((record, snapshot))
}

/// Replays devices `[lo, hi)` sequentially, folding each into the shard
/// accumulator as it completes.
fn run_shard(
    spec: &FleetSpec,
    cache: &TraceCache,
    lo: u64,
    hi: u64,
) -> (FleetAccum, MetricsSnapshot) {
    let mut accum = FleetAccum::new();
    let mut snapshot = MetricsSnapshot::new();
    for index in lo..hi {
        let setup = spec.setup(index);
        match run_device(spec, cache, &setup) {
            Some((record, device_snapshot)) => {
                accum.observe(spec, &record);
                snapshot.merge(&device_snapshot);
            }
            None => accum.observe_wedged(&setup),
        }
    }
    (accum, snapshot)
}

/// Runs the fleet on the process-wide job count. See [`run_fleet_jobs`].
pub fn run_fleet(spec: &FleetSpec) -> FleetOutcome {
    run_fleet_jobs(hps_core::par::jobs(), spec)
}

/// Runs `spec.devices` devices over `jobs` workers and streams the
/// results into one [`FleetOutcome`]. Byte-identical at any `jobs`.
pub fn run_fleet_jobs(jobs: usize, spec: &FleetSpec) -> FleetOutcome {
    let cache = build_trace_cache(spec);
    let mut shards: Vec<(u64, u64)> = Vec::new();
    let mut lo = 0;
    while lo < spec.devices {
        let hi = (lo + SHARD_DEVICES).min(spec.devices);
        shards.push((lo, hi));
        lo = hi;
    }
    let results = par_map_jobs(jobs, shards, |(lo, hi)| run_shard(spec, &cache, lo, hi));
    let mut accum = FleetAccum::new();
    let mut tree = SnapshotTreeMerger::new();
    for (shard_accum, shard_snapshot) in results {
        accum.merge(&shard_accum);
        tree.push(shard_snapshot);
    }
    FleetOutcome {
        accum,
        snapshot: tree.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(devices: u64) -> FleetSpec {
        let mut spec = FleetSpec::default_with(devices, 20150);
        spec.requests_per_device = 60;
        spec
    }

    #[test]
    fn folded_trace_respects_limit_span_and_monotonicity() {
        let spec = small_spec(1);
        let cache = build_trace_cache(&spec);
        let trace = cache.values().next().expect("cache non-empty");
        let mut source = FoldedTrace::new(trace, 150, 256);
        let mut last_arrival = SimTime::ZERO;
        let mut n = 0;
        while let Some(req) = source.next_request() {
            assert!(req.arrival >= last_arrival, "arrivals must stay monotone");
            last_arrival = req.arrival;
            assert!(
                req.lba + req.size.as_u64() <= 257 * PAGE_BYTES,
                "request escaped the folded span"
            );
            n += 1;
        }
        assert_eq!(n, 150, "limit wraps the 60-record trace into 150 requests");
    }

    #[test]
    fn fleet_run_is_job_count_invariant() {
        let spec = small_spec(48);
        let serial = run_fleet_jobs(1, &spec);
        for jobs in [2, 4] {
            let parallel = run_fleet_jobs(jobs, &spec);
            assert_eq!(
                serial.snapshot.canonical_bytes(),
                parallel.snapshot.canonical_bytes(),
                "--jobs {jobs} diverged from serial"
            );
            assert_eq!(serial.accum.devices, parallel.accum.devices);
            assert_eq!(serial.accum.requests, parallel.accum.requests);
            assert_eq!(
                serial.accum.pooled_response.bucket_counts(),
                parallel.accum.pooled_response.bucket_counts()
            );
        }
    }

    #[test]
    fn overcommitted_devices_wedge_instead_of_panicking() {
        // HPS stores 8 KiB-chunked data in a half-capacity pool, so an
        // 0.85-utilization sequential span cannot physically fit. Full
        // 300-request traces: CameraVideo's giant bursts sit past the
        // short prefix the other tests truncate to.
        let mut spec = FleetSpec::default_with(8, 20150);
        spec.schemes = vec![hps_emmc::SchemeKind::Hps];
        spec.mix =
            hps_workloads::WorkloadMix::from_weights(&[("CameraVideo", 1.0)]).expect("valid mix");
        spec.utilization = (0.85, 0.85);
        let outcome = run_fleet_jobs(2, &spec);
        assert!(outcome.accum.wedged > 0, "expected capacity distress");
        assert_eq!(outcome.accum.devices + outcome.accum.wedged, 8);
        let wedged_in_groups: u64 = outcome.accum.groups.values().map(|g| g.wedged).sum();
        assert_eq!(wedged_in_groups, outcome.accum.wedged);
    }

    #[test]
    fn devices_exercise_gc_and_wear() {
        let spec = small_spec(32);
        let outcome = run_fleet_jobs(2, &spec);
        assert_eq!(outcome.accum.devices, 32);
        assert_eq!(outcome.accum.requests, 32 * 60);
        assert!(outcome.accum.wear_max >= 400 - 250, "pre-age must show up");
        assert!(
            outcome.accum.host_programs > 0,
            "writes must reach the flash"
        );
    }
}
