//! Metric names, the result of one workload run, and its three output
//! forms: `workload metric value unit` text lines, the one-line JSON
//! result the benchmark ends with, and the run file `--out` writes (which
//! `compare` and `summary` read back).

use hps_obs::json::Value;
use hps_obs::profile::{slot_label, N_SLOTS};

/// End-to-end metrics, measured with tracing off, as `(name, unit)`.
/// Names and units must equal `BENCHMARK.json`'s `end_to_end` list.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run, as `(name, unit)`, in the order
/// of `BENCHMARK.json`'s `per_layer` list.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names = vec![("prof.total_ns_per_req".to_string(), "ns")];
    names.extend((0..N_SLOTS).map(|s| (format!("prof.{}.pct", slot_label(s)), "%")));
    names
        .extend((0..N_SLOTS).map(|s| (format!("prof.{}.entries_per_req", slot_label(s)), "count")));
    names.extend(
        [
            ("workloads.next_request_ns", "ns"),
            ("alloc.allocs_per_kreq", "count"),
            ("alloc.kib_per_kreq", "KiB"),
            ("sim.resp_mean_ms", "sim_ms"),
            ("sim.resp_p99_ms", "sim_ms"),
            ("sim.waf", "ratio"),
            ("ftl.host_programs_per_req", "count"),
            ("ftl.gc_programs_per_req", "count"),
            ("ftl.gc_reads_per_req", "count"),
            ("ftl.erases_per_kreq", "count"),
            ("ftl.gc_reclaim_ratio", "ratio"),
            ("emmc.nowait_frac", "ratio"),
            ("emmc.pool_spills_per_kreq", "count"),
            ("emmc.idle_gc_passes", "count"),
            ("trace.overhead_frac", "ratio"),
        ]
        .map(|(n, u)| (n.to_string(), u)),
    );
    names
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// A number as JSON, with all its digits (Rust's shortest round-trip
/// form; never an exponent). Non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result of running one workload.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The `BENCHMARK.json` metrics of this mode, in list order.
    pub listed: Vec<Metric>,
    /// Workload-specific metrics, printed and written but not listed.
    pub extra: Vec<Metric>,
}

/// `"<prefix><name>":{"value":…,"unit":…}` per metric.
fn metric_entries<'a>(metrics: &'a [Metric], prefix: &'a str) -> impl Iterator<Item = String> + 'a {
    metrics.iter().map(move |m| {
        format!(
            "\"{prefix}{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        )
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    format!(
        "{{{}}}",
        metric_entries(metrics, "").collect::<Vec<_>>().join(",")
    )
}

impl RunResult {
    /// `workload metric value unit`, one line per metric.
    pub fn lines(&self) -> String {
        self.listed
            .iter()
            .chain(&self.extra)
            .map(|m| format!("{} {} {} {}\n", self.workload, m.name, num(m.value), m.unit))
            .collect()
    }

    /// The closing result line: exactly `correct`, `attempted`, `failed`
    /// and the listed metrics.
    pub fn result_line(&self) -> String {
        result_line(
            self.correct,
            self.attempted,
            self.failed,
            &metrics_json(&self.listed),
        )
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"correct\":{},\"attempted\":{},\
             \"failed\":{},\"listed\":{},\"extra\":{}}}",
            self.workload,
            self.seed,
            self.traced,
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.listed),
            metrics_json(&self.extra)
        )
    }

    fn from_json(v: &Value) -> Result<RunResult, String> {
        let int = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .map(|x| x as u64)
                .ok_or(format!("run entry lacks `{key}`"))
        };
        let flag = |key: &str| matches!(v.get(key), Some(Value::Bool(true)));
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            let Some(Value::Obj(members)) = v.get(key) else {
                return Err(format!("run entry lacks `{key}`"));
            };
            members
                .iter()
                .map(|(name, m)| {
                    Ok(Metric::new(
                        name.clone(),
                        m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .ok_or("metric lacks a unit")?,
                    ))
                })
                .collect()
        };
        Ok(RunResult {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("run entry lacks `workload`")?
                .to_string(),
            seed: int("seed")?,
            traced: flag("traced"),
            correct: flag("correct"),
            attempted: int("attempted")?,
            failed: int("failed")?,
            listed: metrics("listed")?,
            extra: metrics("extra")?,
        })
    }
}

pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
    )
}

/// The closing line of `run --workload all`: each workload's listed
/// metrics under `<workload>.<metric>`.
pub fn combined_result_line(results: &[RunResult]) -> String {
    let prefixes: Vec<String> = results.iter().map(|r| format!("{}.", r.workload)).collect();
    let entries: Vec<String> = results
        .iter()
        .zip(&prefixes)
        .flat_map(|(r, prefix)| metric_entries(&r.listed, prefix))
        .collect();
    result_line(
        results.iter().all(|r| r.correct),
        results.iter().map(|r| r.attempted).sum(),
        results.iter().map(|r| r.failed).sum(),
        &format!("{{{}}}", entries.join(",")),
    )
}

/// Writes a run file: `{"runs": [...]}`.
pub fn write_runs(path: &str, results: &[RunResult]) -> std::io::Result<()> {
    let runs: Vec<String> = results.iter().map(RunResult::to_json).collect();
    std::fs::write(path, format!("{{\"runs\":[\n{}\n]}}\n", runs.join(",\n")))
}

/// Reads a run file back.
pub fn read_runs(path: &str) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = hps_obs::json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    doc.get("runs")
        .and_then(Value::as_array)
        .ok_or(format!("{path} has no `runs` array"))?
        .iter()
        .map(RunResult::from_json)
        .collect()
}

/// Rebuilds a result from a child run's stdout: its metric lines and its
/// closing result line.
pub fn parse_child_output(
    workload: &str,
    seed: u64,
    traced: bool,
    stdout: &str,
) -> Result<RunResult, String> {
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = hps_obs::json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    let listed_names: Vec<String> = if traced {
        per_layer().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
    };
    let mut result = RunResult {
        workload: workload.to_string(),
        seed,
        traced,
        correct: matches!(doc.get("correct"), Some(Value::Bool(true))),
        attempted: doc.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        failed: doc.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        ..RunResult::default()
    };
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        if let [w, name, value, unit] = fields[..] {
            if w != workload {
                continue;
            }
            let metric = Metric::new(name, value.parse().unwrap_or(f64::NAN), unit);
            if listed_names.iter().any(|n| n == name) {
                result.listed.push(metric);
            } else {
                result.extra.push(metric);
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_files_round_trip() {
        let r = RunResult {
            workload: "fleet".into(),
            seed: 7,
            traced: false,
            correct: true,
            attempted: 10,
            failed: 0,
            listed: vec![Metric::new("setup_s", 0.125, "s")],
            extra: vec![Metric::new("fleet.wedged", 3.0, "count")],
        };
        let doc = hps_obs::json::parse(&format!("{{\"runs\":[{}]}}", r.to_json())).unwrap();
        let back = RunResult::from_json(&doc.get("runs").unwrap().as_array().unwrap()[0]).unwrap();
        assert_eq!(back.listed, r.listed);
        assert_eq!(back.extra, r.extra);
        assert_eq!((back.seed, back.correct, back.attempted), (7, true, 10));
        let parsed = parse_child_output(
            "fleet",
            7,
            false,
            &format!("{}{}", r.lines(), r.result_line()),
        )
        .unwrap();
        assert_eq!(parsed.listed, r.listed);
        assert_eq!(parsed.extra, r.extra);
    }
}
