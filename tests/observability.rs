//! Cross-layer telemetry integration: replay a paper workload with tracing
//! attached and check the span stream, the metrics registry, and the
//! Chrome-trace export the `repro` binary would write.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hps::emmc::{DeviceConfig, EmmcDevice, SchemeKind};
use hps::obs::json::{parse, Value};
use hps::obs::{render_summary, write_chrome_trace, Event, EventKind, Telemetry, Track};
use hps::trace::Trace;
use hps::workloads::{by_name, generate};
use hps_core::hash::FxHashSet;

/// A truncated workload keeps debug-mode replay fast.
fn small_trace(name: &str, n: usize) -> Trace {
    let profile = by_name(name).expect("paper workload");
    let full = generate(&profile, 7);
    let records: Vec<_> = full.records().iter().take(n).copied().collect();
    Trace::from_records(name.to_string(), records).expect("prefix sorted")
}

fn traced_replay(name: &str, n: usize) -> (Vec<Event>, hps::obs::MetricsRegistry, u64) {
    let mut trace = small_trace(name, n);
    let mut device = EmmcDevice::new(DeviceConfig::table_v(SchemeKind::Hps)).unwrap();
    device.attach_telemetry(Telemetry::tracing());
    let metrics = device.replay(&mut trace).unwrap();
    let registry = device.metrics_registry(&metrics);
    let events = device.take_telemetry().unwrap().take_events();
    (events, registry, metrics.total_requests)
}

#[test]
fn every_request_gets_a_lifecycle_span() {
    let (events, registry, total) = traced_replay("CameraVideo", 400);
    assert_eq!(total, 400);

    // Acceptance bar: at least one span per request, keyed by request id.
    let request_ids: FxHashSet<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Request { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    assert_eq!(
        request_ids.len() as u64,
        total,
        "one Request span per request"
    );

    // The registry agrees with the replay counters.
    assert_eq!(registry.counter_value("emmc.requests"), Some(total));
    assert!(registry.counter_value("emmc.flash.programs").unwrap() > 0);
    assert!(
        registry
            .histogram_value("emmc.response_ms")
            .unwrap()
            .count()
            == total
    );

    // Flash ops landed on per-channel/die tracks.
    let die_tracks: FxHashSet<Track> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FlashOp { gc: false, .. }))
        .map(Event::track)
        .collect();
    assert!(
        die_tracks.iter().all(|t| matches!(t, Track::Die { .. })),
        "host flash ops render on die tracks"
    );
    assert!(!die_tracks.is_empty());
}

#[test]
fn chrome_export_of_a_replay_is_perfetto_loadable() {
    let (events, _, _) = traced_replay("WebBrowsing", 300);
    let mut out = Vec::new();
    write_chrome_trace(&events, &mut out).unwrap();

    // Perfetto's minimum demands: valid JSON, a traceEvents array, every
    // record carrying ph/pid/tid/ts, and named tracks.
    let doc = parse(std::str::from_utf8(&out).unwrap()).expect("valid JSON");
    let trace_events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    assert!(trace_events.len() >= events.len());
    let mut names = FxHashSet::default();
    for e in trace_events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph field");
        assert!(e.get("pid").and_then(Value::as_f64).is_some());
        assert!(e.get("tid").and_then(Value::as_f64).is_some());
        if ph == "M" {
            if let Some(name) = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
            {
                names.insert(name.to_string());
            }
        } else {
            assert!(e.get("ts").and_then(Value::as_f64).is_some());
            assert!(e.get("name").and_then(Value::as_str).is_some());
        }
    }
    assert!(names.contains("requests"), "request track named: {names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("ch")),
        "per-channel/die tracks named: {names:?}"
    );
}

#[test]
fn registry_only_mode_collects_metrics_without_events() {
    let mut trace = small_trace("Email", 300);
    let mut device = EmmcDevice::new(DeviceConfig::table_v(SchemeKind::Ps4)).unwrap();
    device.attach_telemetry(Telemetry::registry_only());
    let metrics = device.replay(&mut trace).unwrap();
    let registry = device.metrics_registry(&metrics);
    assert!(
        device.take_telemetry().unwrap().take_events().is_empty(),
        "no spans recorded when off"
    );
    assert_eq!(registry.counter_value("emmc.requests"), Some(300));

    let summary = render_summary(&registry);
    assert!(summary.contains("emmc.requests"));
    assert!(summary.contains("emmc.response_ms"));
}

#[test]
fn untelemetered_replay_matches_telemetered_replay() {
    // Telemetry must observe, never perturb: identical timing either way.
    let mut plain = small_trace("Twitter", 300);
    let mut traced = plain.clone();

    let mut d1 = EmmcDevice::new(DeviceConfig::table_v(SchemeKind::Hps)).unwrap();
    let m1 = d1.replay(&mut plain).unwrap();

    let mut d2 = EmmcDevice::new(DeviceConfig::table_v(SchemeKind::Hps)).unwrap();
    d2.attach_telemetry(Telemetry::tracing());
    let m2 = d2.replay(&mut traced).unwrap();

    assert_eq!(m1.mean_response_ms(), m2.mean_response_ms());
    assert_eq!(m1.total_requests, m2.total_requests);
    for (a, b) in plain.records().iter().zip(traced.records()) {
        assert_eq!(a.finish, b.finish);
    }
}
