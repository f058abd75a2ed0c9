//! Sanitizer integration tests.
//!
//! Test builds carry `debug_assertions`, so the shadow-state audit hooks
//! in the FTL, NAND, device, and telemetry layers are live here exactly
//! as they are under `--features sanitize`. A full replay therefore
//! doubles as an end-to-end proof that normal operation — including GC
//! under overwrite pressure and span bookkeeping — produces zero
//! violations, and that the hooks never perturb results. The same
//! GC-heavy replay also pins where each metrics-summary name comes from.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hps_core::{Bytes, Direction, IoRequest, SimRng, SimTime};
use hps_emmc::{DeviceConfig, EmmcDevice, PowerConfig, SchemeKind};
use hps_obs::{render_summary, Telemetry};
use hps_trace::Trace;

/// A dense overwrite-heavy trace on a tiny device: enough pressure to
/// force garbage collection many times over, which is where the mapping,
/// space-accounting, and GC-liveness invariants actually get exercised.
fn gc_pressure_trace(n: usize, seed: u64) -> Trace {
    let mut rng = SimRng::seed_from(seed);
    let mut trace = Trace::new("sanitize");
    let mut t = 0u64;
    for i in 0..n {
        t += rng.uniform_u64(40) + 1;
        let dir = if rng.chance(0.8) {
            Direction::Write
        } else {
            Direction::Read
        };
        let pages = rng.uniform_range(1, 8);
        // 128 logical pages only, so writes overwrite constantly.
        let lba = rng.uniform_u64(128) * 4096;
        trace.push_request(IoRequest::new(
            i as u64,
            SimTime::from_us(t),
            dir,
            Bytes::kib(4 * pages),
            lba,
        ));
    }
    trace
}

fn device(scheme: SchemeKind) -> EmmcDevice {
    let mut cfg = DeviceConfig::scaled(scheme, 8, 8);
    cfg.power = PowerConfig::DISABLED;
    EmmcDevice::new(cfg).expect("scaled config is valid")
}

#[test]
fn end_to_end_replay_passes_every_audit() {
    for scheme in [SchemeKind::Ps4, SchemeKind::Ps8, SchemeKind::Hps] {
        let mut trace = gc_pressure_trace(600, 7);
        let mut dev = device(scheme);
        dev.attach_telemetry(Telemetry::registry_only());
        // replay() runs the deep cross-layer verification and the span
        // balance check at end of run; any violation panics.
        let metrics = dev.replay(&mut trace).expect("replay succeeds");
        assert_eq!(metrics.total_requests, 600);
        assert!(
            metrics.ftl.gc_runs > 0,
            "{scheme:?}: trace must generate GC pressure for the audit to mean anything"
        );
    }
}

#[test]
fn audit_hooks_do_not_perturb_results() {
    // Two identical replays, one with telemetry (span ledger active) and
    // one without: the sanitizer only observes, so every metric must be
    // byte-identical, and a repeated run must reproduce itself exactly.
    let run = |telemetry: bool| {
        let mut trace = gc_pressure_trace(400, 11);
        let mut dev = device(SchemeKind::Hps);
        if telemetry {
            dev.attach_telemetry(Telemetry::registry_only());
        }
        let metrics = dev.replay(&mut trace).expect("replay succeeds");
        let summary = dev
            .take_telemetry()
            .map(|t| render_summary(&t.registry))
            .unwrap_or_default();
        (format!("{metrics}"), summary)
    };
    let (with_tel, summary_a) = run(true);
    let (without_tel, _) = run(false);
    let (with_tel_again, summary_b) = run(true);
    assert_eq!(with_tel, without_tel, "telemetry+audit changed the metrics");
    assert_eq!(with_tel, with_tel_again, "replay is not deterministic");
    assert_eq!(
        summary_a, summary_b,
        "registry summary is not deterministic"
    );
}

#[test]
fn each_summary_name_has_one_source() {
    // If the attached registry also counted a fact the replay metrics
    // hold, the merged summary would report it twice.
    for scheme in [SchemeKind::Ps4, SchemeKind::Ps8, SchemeKind::Hps] {
        let mut trace = gc_pressure_trace(600, 7);
        let mut dev = device(scheme);
        dev.attach_telemetry(Telemetry::registry_only());
        let metrics = dev.replay(&mut trace).expect("replay succeeds");
        assert!(metrics.ftl.gc_runs > 0, "{scheme:?}: no collection");
        let summary = dev.metrics_registry(&metrics);
        // `Debug` spells out every counter and histogram field exactly.
        let entries: Vec<String> = summary
            .iter_sorted()
            .iter()
            .map(|(name, metric)| format!("{name} {metric:?}"))
            .collect();
        for (name, metric) in metrics.to_registry().iter_sorted() {
            let own = format!("{name} {metric:?}");
            assert!(entries.contains(&own), "{scheme:?} {name}");
        }
        let service = summary.histogram_value("emmc.service_ms").unwrap();
        assert_eq!(service.count(), metrics.total_requests, "{scheme:?}");
        assert_eq!(service.mean(), metrics.mean_service_ms(), "{scheme:?}");
        let migrated = summary.histogram_value("ftl.gc.migrated_pages_per_run");
        assert!(migrated.is_some(), "{scheme:?}");
        // The five per-call FTL deltas duplicated their `ftl.lifetime.*` twins.
        let deltas = "ftl.host_programs ftl.gc.programs ftl.gc.reads ftl.gc.runs ftl.erases";
        for delta in deltas.split(' ') {
            let listed = entries.iter().any(|e| e.starts_with(&format!("{delta} ")));
            assert!(!listed, "{scheme:?} {delta}");
        }
    }
}

// A plain release build compiles the auditor out, so nothing panics there.
#[cfg(any(debug_assertions, feature = "sanitize"))]
#[test]
#[should_panic(expected = "emmc.event_time_regression")]
#[expect(
    clippy::let_underscore_must_use,
    reason = "the sanitizer panics inside the second submit; no result is inspected"
)]
fn out_of_order_arrival_is_rejected_by_the_sanitizer() {
    let mut dev = device(SchemeKind::Hps);
    let first = IoRequest::new(0, SimTime::from_ms(5), Direction::Write, Bytes::kib(4), 0);
    let second = IoRequest::new(
        1,
        SimTime::from_ms(1),
        Direction::Write,
        Bytes::kib(4),
        4096,
    );
    let _ = dev.submit(&first);
    let _ = dev.submit(&second); // arrives 4 ms in the past
}
