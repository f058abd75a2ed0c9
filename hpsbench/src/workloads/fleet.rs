//! `fleet`: thousands of short-lived scaled devices from the standard
//! fleet population, through the `hps-fleet` engine.

use std::time::Instant;

use hps_fleet::{
    build_trace_cache, run_device, run_fleet_jobs, FleetAccum, FleetOutcome, FleetSpec,
    SHARD_DEVICES,
};
use hps_obs::{LogHistogram, MetricsSnapshot, SnapshotTreeMerger};

use super::{secs, size, vmhwm_kib, Pass};
use crate::alloc::counted;
use crate::outcome::{fnv64, profiled, SimOutcome};
use crate::report::Metric;
use crate::spans::{Tracer, REQUEST_STRIDE};

/// Devices per pass: full and `--quick`.
const DEVICES: [u64; 2] = [10_000, 48];

/// Trace variants per workload: full and `--quick`. The full pass uses 16
/// rather than the spec's default 2, so that a run's speed does not hinge
/// on 20 generated traces: across eight seeds the fastest-pass rate's
/// IQR/median fell from 0.11 to 0.08.
const VARIANTS: [u32; 2] = [16, 2];

/// Worker threads of the untraced passes.
pub const JOBS: usize = 2;

fn spec(seed: u64, quick: bool) -> FleetSpec {
    let mut spec = FleetSpec::default_with(size(DEVICES, quick), seed);
    spec.variants_per_workload = size(VARIANTS, quick);
    spec
}

/// Requests generated to build the trace cache: one full trace per
/// `(mix entry, variant)`.
fn generated_requests(spec: &FleetSpec) -> u64 {
    let per_variant: u64 = (0..spec.mix.len())
        .map(|m| spec.mix.profile(m).num_reqs)
        .sum();
    per_variant * u64::from(spec.variants_per_workload.max(1))
}

/// Drives the fleet device by device on this thread, with the shard cut
/// and merge order of `run_fleet_jobs`, timing every call. Fills in the
/// pass's heap traffic, generation time and fleet layer metrics.
fn run_traced(spec: &FleetSpec, tracer: &mut Tracer, pass: &mut Pass) -> FleetOutcome {
    let span = tracer.open("pass", None);
    let t0 = Instant::now();
    let cache = build_trace_cache(spec);
    let cache_s = secs(t0);
    tracer.span("fleet.build_trace_cache", t0, Instant::now(), span, None);
    pass.generated = (generated_requests(spec), cache_s);
    let (mut setup_us, mut run_us, mut merge_us) = (
        LogHistogram::new(),
        LogHistogram::new(),
        LogHistogram::new(),
    );
    let mut accum = FleetAccum::new();
    let mut tree = SnapshotTreeMerger::new();
    let mut lo = 0;
    while lo < spec.devices {
        let hi = (lo + SHARD_DEVICES).min(spec.devices);
        let mut shard_accum = FleetAccum::new();
        let mut shard_snapshot = MetricsSnapshot::new();
        for index in lo..hi {
            let t_setup = Instant::now();
            let setup = spec.setup(index);
            let t_run = Instant::now();
            let (ran, allocs) = counted(|| run_device(spec, &cache, &setup));
            let t_observe = Instant::now();
            pass.allocs.add(allocs);
            setup_us.observe(t_run.duration_since(t_setup).as_secs_f64() * 1e6);
            run_us.observe(t_observe.duration_since(t_run).as_secs_f64() * 1e6);
            let t_merge = match ran {
                Some((record, snapshot)) => {
                    shard_accum.observe(spec, &record);
                    let t_merge = Instant::now();
                    shard_snapshot.merge(&snapshot);
                    merge_us.observe(secs(t_merge) * 1e6);
                    t_merge
                }
                None => {
                    shard_accum.observe_wedged(&setup);
                    Instant::now()
                }
            };
            if index.is_multiple_of(REQUEST_STRIDE) {
                let id = Some(index);
                tracer.span("fleet.setup", t_setup, t_run, span, id);
                tracer.span("fleet.run_device", t_run, t_observe, span, id);
                tracer.span("fleet.observe", t_observe, t_merge, span, id);
                tracer.span("obs.snapshot_merge", t_merge, Instant::now(), span, id);
            }
        }
        accum.merge(&shard_accum);
        tree.push(shard_snapshot);
        lo = hi;
    }
    tracer.close(span);
    let devices = spec.devices as f64;
    pass.metrics.extend([
        Metric::new("fleet.trace_cache_s", cache_s, "s"),
        Metric::new("fleet.setup_us", setup_us.mean(), "us"),
        Metric::new(
            "fleet.run_device_us.p50",
            run_us.quantile(0.5).unwrap_or(0.0),
            "us",
        ),
        Metric::new(
            "fleet.run_device_us.p99",
            run_us.quantile(0.99).unwrap_or(0.0),
            "us",
        ),
        Metric::new(
            "fleet.device_allocs",
            pass.allocs.allocs as f64 / devices,
            "count",
        ),
        Metric::new(
            "fleet.device_alloc_kib",
            pass.allocs.bytes as f64 / 1024.0 / devices,
            "KiB",
        ),
        Metric::new("obs.snapshot_merge_us", merge_us.mean(), "us"),
    ]);
    FleetOutcome {
        accum,
        snapshot: tree.finish(),
    }
}

/// One pass: untraced through `run_fleet_jobs` on two threads, traced
/// device by device.
pub fn pass(seed: u64, quick: bool, tracer: Option<&mut Tracer>) -> Pass {
    let spec = spec(seed, quick);
    let started = Instant::now();
    let mut pass = Pass::default();
    let outcome = match tracer {
        None => {
            hps_core::par::set_jobs(JOBS);
            drop(build_trace_cache(&spec));
            pass.setup_s = secs(started);
            let t1 = Instant::now();
            let outcome = run_fleet_jobs(JOBS, &spec);
            pass.timed_s = secs(t1);
            hps_core::par::set_jobs(1);
            pass.metrics.push(Metric::new(
                "fleet.devices_per_s",
                spec.devices as f64 / pass.timed_s,
                "1/s",
            ));
            outcome
        }
        Some(tracer) => {
            // Set-up is measured by the untraced passes; a traced pass
            // times the whole serial drive.
            let (outcome, profile) = profiled(|| run_traced(&spec, tracer, &mut pass));
            pass.timed_s = secs(started);
            pass.profile = Some(profile);
            outcome
        }
    };
    pass.wall_s = secs(started);
    pass.rss_kib = vmhwm_kib();
    let sim = SimOutcome::from_fleet(&outcome);
    pass.requests = sim.requests;
    pass.ops = spec.devices;
    pass.metrics.extend(sim.metrics());
    pass.metrics.extend([
        Metric::new("fleet.wedged", outcome.accum.wedged as f64, "count"),
        Metric::new(
            "sim.life_p1_days",
            outcome.accum.per_life.quantile(0.01).unwrap_or(0.0),
            "sim_days",
        ),
    ]);
    pass.digest = format!(
        "{}wedged={}\nsnapshot_fnv={:016x}\n",
        sim.digest(),
        outcome.accum.wedged,
        fnv64(&outcome.snapshot.canonical_bytes())
    );
    pass
}
