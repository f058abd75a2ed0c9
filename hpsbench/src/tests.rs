//! Checks on `--quick` runs of every workload: they complete and match
//! their goldens, emit exactly the metrics `BENCHMARK.json` lists, and
//! simulate the same outcome traced and untraced.

use hps_obs::json::Value;

use crate::report::{per_layer, RunResult, END_TO_END};
use crate::workloads::{run, RunOpts, Workload, DEFAULT_SEED};

fn quick(workload: Workload, traced: bool) -> RunResult {
    let opts = RunOpts {
        seed: DEFAULT_SEED,
        seconds: 0.0,
        traced,
        quick: true,
        trace_out: None,
    };
    run(workload, &opts)
}

/// One list of `BENCHMARK.json`, each entry reduced to the given fields.
fn listed(list: &str, fields: &[&str]) -> Vec<Vec<String>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = hps_obs::json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("list present")
        .iter()
        .map(|entry| {
            fields
                .iter()
                .map(|f| {
                    entry
                        .get(f)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                })
                .collect()
        })
        .collect()
}

fn pairs(v: impl IntoIterator<Item = (String, String)>) -> Vec<Vec<String>> {
    v.into_iter().map(|(a, b)| vec![a, b]).collect()
}

fn names(result: &RunResult) -> Vec<Vec<String>> {
    pairs(
        result
            .listed
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone())),
    )
}

fn end_to_end() -> Vec<Vec<String>> {
    pairs(
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string())),
    )
}

fn layers() -> Vec<Vec<String>> {
    pairs(per_layer().into_iter().map(|(n, u)| (n, u.to_string())))
}

fn value(result: &RunResult, name: &str) -> f64 {
    result
        .listed
        .iter()
        .chain(&result.extra)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{} lacks {name}", result.workload))
        .value
}

#[test]
fn benchmark_json_lists_what_the_code_emits() {
    assert_eq!(listed("end_to_end", &["name", "unit"]), end_to_end());
    assert_eq!(listed("per_layer", &["name", "unit"]), layers());
    let workloads: Vec<Vec<String>> = Workload::ALL.map(|w| vec![w.name().to_string()]).to_vec();
    assert_eq!(listed("workloads", &["name"]), workloads);
}

#[test]
fn every_workload_completes_traced_and_untraced_alike() {
    let sim = [
        "sim.resp_mean_ms",
        "sim.resp_p99_ms",
        "sim.waf",
        "ftl.host_programs_per_req",
        "ftl.gc_programs_per_req",
        "ftl.gc_reads_per_req",
        "ftl.erases_per_kreq",
        "ftl.gc_reclaim_ratio",
        "emmc.nowait_frac",
        "emmc.pool_spills_per_kreq",
        "emmc.idle_gc_passes",
    ];
    for w in Workload::ALL {
        let plain = quick(w, false);
        let traced = quick(w, true);
        for r in [&plain, &traced] {
            // Includes the golden check and, for the traced run, that its
            // untraced and traced passes simulated the same outcome.
            assert!(
                r.correct,
                "{} (traced: {}) failed its checks",
                w.name(),
                r.traced
            );
            assert!(r.attempted > 0 && r.failed == 0, "{}", w.name());
            assert!(r.listed.iter().all(|m| m.value.is_finite()), "{}", w.name());
        }
        assert_eq!(names(&plain), end_to_end(), "{}", w.name());
        assert_eq!(names(&traced), layers(), "{}", w.name());
        for name in sim {
            assert_eq!(
                value(&plain, name),
                value(&traced, name),
                "{} {name}",
                w.name()
            );
        }
        let shares: f64 = traced
            .listed
            .iter()
            .filter(|m| m.name.starts_with("prof.") && m.name.ends_with(".pct"))
            .map(|m| m.value)
            .sum();
        assert!(
            (shares - 100.0).abs() <= 0.5,
            "{} profiler shares sum to {shares}",
            w.name()
        );
    }
}
