//! The paper's headline claims, asserted against the reproduction.
//!
//! These tests run scaled-down versions of the Section V case study (full
//! traces are exercised by the release-mode `repro` binary; debug-mode
//! tests use trace prefixes to stay fast).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hps::analysis::casestudy::run_case_study;
use hps::emmc::SchemeKind;
use hps::trace::{small_request_fraction, SizeStats, Trace};
use hps::workloads::{all_individual, by_name, generate};

fn prefix(name: &str, n: usize) -> Trace {
    let full = generate(&by_name(name).expect("workload"), 11);
    let records: Vec<_> = full.records().iter().take(n).copied().collect();
    Trace::from_records(name.to_string(), records).expect("sorted prefix")
}

#[test]
fn hps_beats_4ps_and_matches_8ps_on_booting() {
    // Fig. 8's best case: Booting's large read bursts.
    let row = run_case_study(&prefix("Booting", 1_200)).unwrap();
    let reduction = row.hps_mrt_reduction_pct();
    assert!(reduction > 50.0, "Booting HPS reduction {reduction}%");
    let hps = row.metrics_for(SchemeKind::Hps).mean_response_ms();
    let ps8 = row.metrics_for(SchemeKind::Ps8).mean_response_ms();
    assert!(
        (hps - ps8).abs() / ps8 < 0.25,
        "HPS ({hps}) and 8PS ({ps8}) are close, per the paper"
    );
}

#[test]
fn movie_is_a_weak_case_but_hps_never_wastes_space() {
    let row = run_case_study(&prefix("Movie", 1_200)).unwrap();
    // The paper's worst case: still a modest improvement, not a regression.
    let reduction = row.hps_mrt_reduction_pct();
    assert!(
        reduction > 5.0 && reduction < 60.0,
        "Movie reduction {reduction}%"
    );
    let u4 = row.metrics_for(SchemeKind::Ps4).space_utilization();
    let uh = row.metrics_for(SchemeKind::Hps).space_utilization();
    assert!((u4 - uh).abs() < 1e-9);
}

#[test]
fn music_is_the_best_space_utilization_case() {
    // Fig. 9: Music's many lone 4 KiB writes are where 8PS pads the most.
    let music = run_case_study(&prefix("Music", 1_500)).unwrap();
    let gain = music.hps_util_gain_pct();
    assert!(gain > 15.0, "Music HPS vs 8PS utilization gain {gain}%");
    // And a large-sequential-write workload barely benefits.
    let camera = run_case_study(&prefix("CameraVideo", 400)).unwrap();
    assert!(
        camera.hps_util_gain_pct() < gain / 2.0,
        "CameraVideo gain {} should be far below Music's {gain}",
        camera.hps_util_gain_pct()
    );
}

#[test]
fn characteristic_1_and_2_hold_on_generated_traces() {
    // Write dominance and the 4 KiB band, measured on actual generated
    // traces (not just the embedded profile constants).
    let mut write_dominant = 0;
    let mut in_band = 0;
    let profiles = all_individual();
    for p in &profiles {
        let t = prefix(p.name, 2_000.min(p.num_reqs as usize));
        let s = SizeStats::from_trace(&t);
        if s.write_req_pct > 50.0 {
            write_dominant += 1;
        }
        let f = small_request_fraction(&t);
        if (0.42..=0.62).contains(&f) {
            in_band += 1;
        }
    }
    assert!(write_dominant >= 14, "{write_dominant}/18 write-dominant");
    assert!(in_band >= 14, "{in_band}/18 in the 4 KiB band");
}

#[test]
fn implication_5_small_requests_want_small_pages() {
    // A pure 4 KiB write stream: HPS serves it at 4PS speed; 8PS is slower
    // *and* wastes half the flash.
    use hps::core::{Bytes, Direction, IoRequest, SimTime};
    let mut t = Trace::new("pure4k");
    for i in 0..300u64 {
        t.push_request(IoRequest::new(
            i,
            SimTime::from_ms(i * 20),
            Direction::Write,
            Bytes::kib(4),
            i * 4096 * 64,
        ));
    }
    let row = run_case_study(&t).unwrap();
    let hps = row.metrics_for(SchemeKind::Hps);
    let ps4 = row.metrics_for(SchemeKind::Ps4);
    let ps8 = row.metrics_for(SchemeKind::Ps8);
    assert!((hps.mean_response_ms() - ps4.mean_response_ms()).abs() < 1e-6);
    assert!(ps8.mean_response_ms() > hps.mean_response_ms());
    assert!((hps.space_utilization() - 1.0).abs() < 1e-9);
    assert!((ps8.space_utilization() - 0.5).abs() < 1e-9);
}

#[test]
fn section_2c_overhead_is_two_percent() {
    let report = hps::iostack::biotracer::measure_overhead(15_000, 3);
    assert!(
        (1.5..=2.5).contains(&report.overhead_pct()),
        "{}",
        report.overhead_pct()
    );
}
