//! Reproducibility: the entire pipeline is a pure function of the seed.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hps::emmc::{DeviceConfig, EmmcDevice, SchemeKind};
use hps::trace::Trace;
use hps::workloads::{by_name, generate};

fn prefix(name: &str, seed: u64, n: usize) -> Trace {
    let full = generate(&by_name(name).expect("workload"), seed);
    let records: Vec<_> = full.records().iter().take(n).copied().collect();
    Trace::from_records(name.to_string(), records).expect("sorted prefix")
}

#[test]
fn generation_is_deterministic_across_calls() {
    let a = generate(&by_name("FB/Msg").unwrap(), 99);
    let b = generate(&by_name("FB/Msg").unwrap(), 99);
    assert_eq!(a.records(), b.records());
}

#[test]
fn replay_is_deterministic() {
    let run = |seed| {
        let mut t = prefix("Amazon", seed, 500);
        let mut dev = EmmcDevice::new(DeviceConfig::table_v(SchemeKind::Hps)).unwrap();
        let m = dev.replay(&mut t).unwrap();
        (m.mean_response_ms(), m.nowait_pct(), m.ftl.host_programs, t)
    };
    let (mrt1, nw1, hp1, t1) = run(5);
    let (mrt2, nw2, hp2, t2) = run(5);
    assert_eq!(mrt1, mrt2);
    assert_eq!(nw1, nw2);
    assert_eq!(hp1, hp2);
    assert_eq!(t1.records(), t2.records(), "timestamps identical too");

    let (mrt3, ..) = run(6);
    assert_ne!(
        mrt1, mrt3,
        "different seed, different workload, different MRT"
    );
}

#[test]
fn seeds_change_traces_but_not_statistics_materially() {
    let a = prefix("Twitter", 1, 3_000);
    let b = prefix("Twitter", 2, 3_000);
    assert_ne!(a.records(), b.records());
    let sa = hps::trace::SizeStats::from_trace(&a);
    let sb = hps::trace::SizeStats::from_trace(&b);
    assert!((sa.write_req_pct - sb.write_req_pct).abs() < 5.0);
    assert!((sa.avg_size_kib - sb.avg_size_kib).abs() / sa.avg_size_kib < 0.3);
}
