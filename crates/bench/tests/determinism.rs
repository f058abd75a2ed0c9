//! Parallel sweeps must be *byte-identical* to serial ones: the job pool
//! only reorders the execution of independent replays, never their
//! results. These tests pin that property on real paper traces with the
//! `MASTER_SEED` every experiment uses.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hps_bench::runner::{replay_on, trace_by_name, truncate_trace};
use hps_core::par::par_map_jobs;
use hps_emmc::{ReplayMetrics, SchemeKind};
use hps_trace::Trace;

/// Three representative workloads (write-heavy, mixed, streaming),
/// truncated so the test stays fast while still exercising GC, the write
/// cache, and both page sizes.
fn sample_traces() -> Vec<Trace> {
    ["Email", "Twitter", "CameraVideo"]
        .into_iter()
        .map(|name| truncate_trace(&trace_by_name(name), 1_500))
        .collect()
}

fn replay_all(jobs: usize, traces: Vec<Trace>) -> Vec<(Trace, ReplayMetrics)> {
    par_map_jobs(jobs, traces, |mut trace| {
        let metrics = replay_on(&mut trace, SchemeKind::Hps).expect("Table V capacity suffices");
        (trace, metrics)
    })
}

/// Everything observable about a replay, flattened to a comparable string:
/// the rendered metrics, the tail percentiles, the FTL counters, and every
/// per-request response sample.
fn summary(trace: &Trace, metrics: &ReplayMetrics) -> String {
    format!(
        "{}\np50={:?} p99={:?}\nftl={:?}\nsamples={:?}\nrecords={:?}",
        metrics,
        metrics.p50_response_ms(),
        metrics.p99_response_ms(),
        metrics.ftl,
        metrics.response_samples(),
        trace.records(),
    )
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let serial = replay_all(1, sample_traces());
    let parallel = replay_all(4, sample_traces());
    assert_eq!(serial.len(), parallel.len());
    for ((st, sm), (pt, pm)) in serial.iter().zip(&parallel) {
        assert_eq!(
            summary(st, sm),
            summary(pt, pm),
            "parallel replay of {} diverged from serial",
            st.name()
        );
    }
}

#[test]
fn parallel_results_come_back_in_input_order() {
    let names: Vec<&str> = ["Email", "Twitter", "CameraVideo"].into();
    let replayed = replay_all(4, sample_traces());
    for (name, (trace, metrics)) in names.iter().zip(&replayed) {
        assert_eq!(trace.name(), *name);
        assert_eq!(metrics.trace_name, *name);
    }
}

/// The PR-6 snapshot pipeline: per-trace registries captured as
/// [`MetricsSnapshot`]s and merged must not depend on the job count —
/// the canonical byte encoding of the merged snapshot is the
/// machine-checkable form of "parallelism never changes results".
#[test]
fn merged_snapshots_are_job_count_invariant() {
    use hps_obs::MetricsSnapshot;
    let merged_at = |jobs: usize| {
        let mut merged = MetricsSnapshot::new();
        for (_, metrics) in replay_all(jobs, sample_traces()) {
            merged.merge(&MetricsSnapshot::capture(&metrics.to_registry()));
        }
        merged.canonical_bytes()
    };
    let serial = merged_at(1);
    assert!(!serial.is_empty(), "snapshot must carry metrics");
    assert_eq!(serial, merged_at(2), "--jobs 2 diverged from serial");
    assert_eq!(serial, merged_at(4), "--jobs 4 diverged from serial");
}

#[test]
fn repeated_parallel_runs_agree() {
    let first = replay_all(3, sample_traces());
    let second = replay_all(3, sample_traces());
    for ((at, am), (bt, bm)) in first.iter().zip(&second) {
        assert_eq!(summary(at, am), summary(bt, bm));
    }
}

/// One fault-injected replay cell, flattened to a comparable string:
/// requests served, every reliability counter, and the recovery report.
/// Fault draws are pure hashes of flash coordinates, so this must not
/// depend on worker count or scheduling.
fn faulted_cell_summary(scheme: SchemeKind) -> String {
    use hps_bench::reliability::{fault_profile, sweep_requests, ERROR_POINTS};
    use hps_emmc::{DeviceConfig, EmmcDevice, PowerConfig};

    let mut cfg = DeviceConfig::scaled(scheme, 64, 16);
    cfg.power = PowerConfig::DISABLED;
    cfg.ftl.faults = fault_profile(ERROR_POINTS[1], 1234);
    let mut dev = EmmcDevice::new(cfg).expect("valid faulted config");
    let mut served = 0u64;
    for req in &sweep_requests(1_200) {
        match dev.submit(req) {
            Ok(_) => served += 1,
            Err(hps_core::Error::ReadOnly { .. }) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let report = dev.recover().expect("recovery succeeds");
    format!(
        "served={served}\nstats={:?}\nspares={}\nreport={:?}",
        dev.ftl().fault_stats(),
        dev.ftl().spare_blocks_remaining(),
        report
    )
}

/// Satellite of the fault-injection PR: with faults enabled, the sweep is
/// byte-identical at any job count — the error model consumes no shared
/// RNG stream, so parallel cells cannot perturb each other.
#[test]
fn fault_injected_sweep_is_byte_identical_across_jobs() {
    let run = |jobs: usize| {
        par_map_jobs(jobs, SchemeKind::ALL.to_vec(), faulted_cell_summary).join("\n---\n")
    };
    let serial = run(1);
    assert!(serial.contains("program_failures"), "stats must be present");
    assert_eq!(serial, run(4), "--jobs 4 diverged from serial");
}

/// `FaultConfig::NONE` (the default) must leave every paper artifact
/// byte-identical: regenerating Fig. 3 with the fault-aware code must
/// reproduce its pinned golden (`hpsbench/goldens/paper_suite/fig3.txt`)
/// exactly.
#[test]
fn none_fault_profile_reproduces_golden_fig3() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../hpsbench/goldens/paper_suite/fig3.txt"
    );
    let golden = std::fs::read_to_string(golden_path).expect("golden fig3.txt is checked in");
    assert_eq!(
        hps_bench::exp_fig3(),
        golden,
        "fault-free replay must match the pre-fault-subsystem golden output"
    );
}
