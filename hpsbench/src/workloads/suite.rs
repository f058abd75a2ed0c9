//! `paper_suite`: all 21 `repro all` experiments plus the Section V case
//! study, serially, compared byte for byte with the pinned goldens.
//!
//! Each pass runs in a fresh child process (`hpsbench suite-pass`),
//! because `hps-bench` memoizes generated traces for the life of the
//! process: a second pass in the same process would skip trace
//! generation. The suite's inputs are the paper's fixed master seed, so
//! its outputs can be pinned; `--seed` does not change them.

use std::process::{Command, Stdio};
use std::time::Instant;

use hps_analysis::{run_case_study, CaseStudyRow};
use hps_bench::ablations::{ablate_channels, ablate_gc, ablate_power, ablate_ratio};
use hps_bench::experiments::{
    exp_characteristics, exp_fig3, exp_fig4, exp_fig5, exp_fig6, exp_fig7, exp_fig8, exp_fig9,
    exp_overhead, exp_table3, exp_table4, exp_table5, run_full_case_study,
};
use hps_bench::implications::{
    endurance, implication3_read_cache, implication5_slc, stack_pipeline,
};
use hps_bench::reliability::exp_faults;
use hps_bench::runner::{combo_traces, individual_traces, trace_by_name, truncate_trace};
use hps_obs::json::{self, Value};
use hps_obs::profile;

use super::{vmhwm_kib, Pass};
use crate::alloc::{counted, AllocCount};
use crate::outcome::{fnv64, profiled, ProfileTotals, SimOutcome};
use crate::report::{num, Metric};
use crate::spans::Tracer;

/// Every `repro all` target with its pinned output, in `repro` order.
const TARGETS: [(&str, &str); 21] = [
    (
        "table3",
        include_str!("../../goldens/paper_suite/table3.txt"),
    ),
    (
        "table4",
        include_str!("../../goldens/paper_suite/table4.txt"),
    ),
    (
        "table5",
        include_str!("../../goldens/paper_suite/table5.txt"),
    ),
    ("fig3", include_str!("../../goldens/paper_suite/fig3.txt")),
    ("fig4", include_str!("../../goldens/paper_suite/fig4.txt")),
    ("fig5", include_str!("../../goldens/paper_suite/fig5.txt")),
    ("fig6", include_str!("../../goldens/paper_suite/fig6.txt")),
    ("fig7", include_str!("../../goldens/paper_suite/fig7.txt")),
    ("fig8", include_str!("../../goldens/paper_suite/fig8.txt")),
    ("fig9", include_str!("../../goldens/paper_suite/fig9.txt")),
    (
        "overhead",
        include_str!("../../goldens/paper_suite/overhead.txt"),
    ),
    (
        "characteristics",
        include_str!("../../goldens/paper_suite/characteristics.txt"),
    ),
    (
        "ablate-gc",
        include_str!("../../goldens/paper_suite/ablate-gc.txt"),
    ),
    (
        "ablate-ratio",
        include_str!("../../goldens/paper_suite/ablate-ratio.txt"),
    ),
    (
        "ablate-power",
        include_str!("../../goldens/paper_suite/ablate-power.txt"),
    ),
    (
        "ablate-channels",
        include_str!("../../goldens/paper_suite/ablate-channels.txt"),
    ),
    (
        "implication3",
        include_str!("../../goldens/paper_suite/implication3.txt"),
    ),
    (
        "implication5",
        include_str!("../../goldens/paper_suite/implication5.txt"),
    ),
    (
        "endurance",
        include_str!("../../goldens/paper_suite/endurance.txt"),
    ),
    ("stack", include_str!("../../goldens/paper_suite/stack.txt")),
    (
        "faults",
        include_str!("../../goldens/paper_suite/faults.txt"),
    ),
];

/// The `--quick` pass: targets that need no case study and few replays,
/// and a case study over three short traces.
const QUICK_TARGETS: [&str; 5] = ["table3", "table5", "fig4", "fig6", "overhead"];
const QUICK_CASE_TRACES: [&str; 3] = ["Email", "Booting", "Movie"];
const QUICK_CASE_REQUESTS: usize = 150;

/// Pages per block of the case study's Table V devices.
const TABLE_V_PAGES_PER_BLOCK: u64 = 1024;

fn experiment(target: &str, rows: &[CaseStudyRow]) -> String {
    match target {
        "table3" => exp_table3(),
        "table4" => exp_table4(),
        "table5" => exp_table5(),
        "fig3" => exp_fig3(),
        "fig4" => exp_fig4(),
        "fig5" => exp_fig5(),
        "fig6" => exp_fig6(),
        "fig7" => exp_fig7(),
        "fig8" => exp_fig8(rows),
        "fig9" => exp_fig9(rows),
        "overhead" => exp_overhead(),
        "characteristics" => exp_characteristics(),
        "ablate-gc" => ablate_gc(),
        "ablate-ratio" => ablate_ratio(),
        "ablate-power" => ablate_power(),
        "ablate-channels" => ablate_channels(),
        "implication3" => implication3_read_cache(),
        "implication5" => implication5_slc(),
        "endurance" => endurance(),
        "stack" => stack_pipeline(),
        "faults" => exp_faults(),
        other => unreachable!("{other} is not a suite target"),
    }
}

/// A timed call inside a pass, relative to the pass's start.
struct Call {
    name: &'static str,
    start_s: f64,
    end_s: f64,
}

/// Span name for a call name read back from a child.
fn static_name(name: &str) -> Option<&'static str> {
    ["workloads.generate", "bench.case_study"]
        .into_iter()
        .chain(TARGETS.iter().map(|(t, _)| *t))
        .find(|n| *n == name)
}

/// One pass in this process: generate the traces (set-up), run the case
/// study and every target (timed), compare each output with its golden.
fn run_pass(quick: bool, traced: bool) -> (Pass, Vec<Call>) {
    hps_core::par::set_jobs(1);
    profile::reset();
    let started = Instant::now();
    let at = |t: Instant| t.duration_since(started).as_secs_f64();
    let mut calls = Vec::new();
    let mut pass = Pass::default();

    let generated: u64 = individual_traces()
        .iter()
        .chain(&combo_traces())
        .map(|t| t.len() as u64)
        .sum();
    pass.setup_s = at(Instant::now());
    calls.push(Call {
        name: "workloads.generate",
        start_s: 0.0,
        end_s: pass.setup_s,
    });
    pass.generated = (generated, pass.setup_s);

    let targets: Vec<(&str, &str)> = if quick {
        TARGETS
            .into_iter()
            .filter(|(t, _)| QUICK_TARGETS.contains(t))
            .collect()
    } else {
        TARGETS.to_vec()
    };
    let body = |calls: &mut Vec<Call>, pass: &mut Pass| {
        let t = Instant::now();
        let rows: Vec<CaseStudyRow> = if quick {
            QUICK_CASE_TRACES
                .iter()
                .map(|n| {
                    let trace = truncate_trace(&trace_by_name(n), QUICK_CASE_REQUESTS);
                    run_case_study(&trace).expect("Table V capacity fits every paper trace")
                })
                .collect()
        } else {
            run_full_case_study()
        };
        calls.push(Call {
            name: "bench.case_study",
            start_s: at(t),
            end_s: at(Instant::now()),
        });
        let mut outputs = String::new();
        for (target, golden) in &targets {
            let t = Instant::now();
            let output = experiment(target, &rows);
            calls.push(Call {
                name: target,
                start_s: at(t),
                end_s: at(Instant::now()),
            });
            if output != *golden {
                pass.failed += 1;
                pass.problems.push(format!(
                    "paper_suite: {target} output differs from goldens/paper_suite/{target}.txt"
                ));
            }
            outputs.push_str(&output);
        }
        (rows, outputs)
    };
    let (rows, outputs) = if traced {
        let (((rows, outputs), allocs), totals) =
            profiled(|| counted(|| body(&mut calls, &mut pass)));
        pass.allocs = allocs;
        pass.profile = Some(totals);
        // `profiled` leaves the request count reset: take it from the
        // profiler's own totals.
        pass.requests = pass.profile.as_ref().map_or(0, |p| p.sampled);
        (rows, outputs)
    } else {
        let done = body(&mut calls, &mut pass);
        pass.requests = profile::report().requests;
        done
    };
    let end = at(Instant::now());
    pass.timed_s = end - pass.setup_s;
    pass.wall_s = end;
    pass.ops = targets.len() as u64;

    let mut sim = SimOutcome::default();
    for row in &rows {
        for m in &row.metrics {
            sim.add_replay(m, TABLE_V_PAGES_PER_BLOCK);
        }
    }
    pass.digest = format!(
        "outputs_fnv={:016x}\n{}",
        fnv64(outputs.as_bytes()),
        sim.digest()
    );
    pass.metrics = sim.metrics();
    for c in calls.iter().skip(1) {
        let name = match c.name {
            "bench.case_study" => "bench.case_study_s".to_string(),
            target => format!("bench.exp.{target}_s"),
        };
        pass.metrics
            .push(Metric::new(name, c.end_s - c.start_s, "s"));
    }
    pass.rss_kib = vmhwm_kib();
    (pass, calls)
}

/// One pass; with `quick` in this process, since test harnesses cannot
/// spawn this binary.
pub fn pass(quick: bool, tracer: Option<&mut Tracer>) -> Pass {
    let traced = tracer.is_some();
    let started = Instant::now();
    let (pass, calls) = if quick {
        run_pass(true, traced)
    } else {
        spawn_pass(traced).unwrap_or_else(|e| {
            let failed = Pass {
                ops: 1,
                failed: 1,
                problems: vec![format!("paper_suite: pass process failed: {e}")],
                ..Pass::default()
            };
            (failed, Vec::new())
        })
    };
    let pass = if quick {
        pass
    } else {
        Pass {
            wall_s: started.elapsed().as_secs_f64(),
            ..pass
        }
    };
    if let Some(tracer) = tracer {
        let span = tracer.open("suite_pass", None);
        for c in &calls {
            let at = |s: f64| started + std::time::Duration::from_secs_f64(s);
            tracer.span(c.name, at(c.start_s), at(c.end_s), span, None);
        }
        tracer.close(span);
    }
    pass
}

/// Runs one pass in a child process and reads its result line.
fn spawn_pass(traced: bool) -> Result<(Pass, Vec<Call>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("suite-pass");
    if traced {
        cmd.arg("--traced");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("no result line")?;
    pass_from_json(&json::parse(line)?)
}

/// `hpsbench suite-pass [--traced]`: one pass, printed as a JSON line.
pub fn suite_pass_cmd(args: &[String]) -> std::process::ExitCode {
    let traced = match args {
        [] => false,
        [flag] if flag == "--traced" => true,
        _ => {
            eprintln!("usage: hpsbench suite-pass [--traced]");
            return std::process::ExitCode::from(2);
        }
    };
    let (pass, calls) = run_pass(false, traced);
    println!("{}", pass_to_json(&pass, &calls));
    std::process::ExitCode::SUCCESS
}

fn u64s(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn pass_to_json(p: &Pass, calls: &[Call]) -> String {
    let strings = |items: &[String]| {
        let quoted: Vec<String> = items
            .iter()
            .map(|s| format!("\"{}\"", json::escape(s)))
            .collect();
        format!("[{}]", quoted.join(","))
    };
    let profile = p.profile.as_ref().map_or("null".to_string(), |t| {
        format!(
            "{{\"sampled\":{},\"ticks_total\":{},\"ticks\":{},\"entries\":{},\"ticks_per_ns\":{}}}",
            t.sampled,
            t.ticks_total,
            u64s(&t.ticks),
            u64s(&t.entries),
            num(t.ticks_per_ns)
        )
    });
    let metrics: Vec<String> = p
        .metrics
        .iter()
        .map(|m| format!("[\"{}\",{},\"{}\"]", m.name, num(m.value), m.unit))
        .collect();
    let calls: Vec<String> = calls
        .iter()
        .map(|c| format!("[\"{}\",{},{}]", c.name, num(c.start_s), num(c.end_s)))
        .collect();
    format!(
        "{{\"setup_s\":{},\"timed_s\":{},\"requests\":{},\"ops\":{},\"failed\":{},\
         \"problems\":{},\"digest\":\"{}\",\"rss_kib\":{},\"profile\":{profile},\
         \"allocs\":{},\"generated\":[{},{}],\"metrics\":[{}],\"calls\":[{}]}}",
        num(p.setup_s),
        num(p.timed_s),
        p.requests,
        p.ops,
        p.failed,
        strings(&p.problems),
        json::escape(&p.digest),
        p.rss_kib,
        u64s(&[p.allocs.allocs, p.allocs.bytes]),
        p.generated.0,
        num(p.generated.1),
        metrics.join(","),
        calls.join(",")
    )
}

fn pass_from_json(v: &Value) -> Result<(Pass, Vec<Call>), String> {
    let f = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("missing {key}"))
    };
    let items = |key: &str| v.get(key).and_then(Value::as_array).unwrap_or(&[]);
    let u64_at = |a: &[Value], i: usize| a.get(i).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let f64_at = |a: &[Value], i: usize| a.get(i).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let str_at = |a: &[Value], i: usize| a.get(i).and_then(Value::as_str).unwrap_or("").to_string();
    let slots = |t: &Value, key: &str| {
        let a = t.get(key).and_then(Value::as_array).unwrap_or(&[]);
        std::array::from_fn(|i| u64_at(a, i))
    };
    let profile = match v.get("profile") {
        Some(t @ Value::Obj(_)) => Some(ProfileTotals {
            sampled: t.get("sampled").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            ticks_total: t.get("ticks_total").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            ticks: slots(t, "ticks"),
            entries: slots(t, "entries"),
            ticks_per_ns: t.get("ticks_per_ns").and_then(Value::as_f64).unwrap_or(0.0),
        }),
        _ => None,
    };
    let allocs = items("allocs");
    let generated = items("generated");
    let pass = Pass {
        setup_s: f("setup_s")?,
        timed_s: f("timed_s")?,
        wall_s: 0.0,
        requests: f("requests")? as u64,
        ops: f("ops")? as u64,
        failed: f("failed")? as u64,
        problems: items("problems")
            .iter()
            .filter_map(|p| p.as_str().map(str::to_string))
            .collect(),
        digest: v
            .get("digest")
            .and_then(Value::as_str)
            .ok_or("missing digest")?
            .to_string(),
        rss_kib: f("rss_kib")? as u64,
        profile,
        allocs: AllocCount {
            allocs: u64_at(allocs, 0),
            bytes: u64_at(allocs, 1),
        },
        generated: (u64_at(generated, 0), f64_at(generated, 1)),
        metrics: items("metrics")
            .iter()
            .filter_map(Value::as_array)
            .map(|m| Metric::new(str_at(m, 0), f64_at(m, 1), &str_at(m, 2)))
            .collect(),
    };
    let calls = items("calls")
        .iter()
        .filter_map(Value::as_array)
        .filter_map(|c| {
            Some(Call {
                name: static_name(&str_at(c, 0))?,
                start_s: f64_at(c, 1),
                end_s: f64_at(c, 2),
            })
        })
        .collect();
    Ok((pass, calls))
}

/// Writes every target's current output to `dir/<target>.txt`.
pub fn pin_suite_goldens(dir: &std::path::Path) -> std::io::Result<()> {
    hps_core::par::set_jobs(1);
    std::fs::create_dir_all(dir)?;
    let rows = run_full_case_study();
    for (target, _) in TARGETS {
        std::fs::write(dir.join(format!("{target}.txt")), experiment(target, &rows))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_survives_the_child_protocol() {
        let pass = Pass {
            setup_s: 0.25,
            timed_s: 2.5,
            requests: 7,
            ops: 21,
            failed: 1,
            problems: vec!["paper_suite: \"fig3\" differs".to_string()],
            digest: "outputs_fnv=00ff\nrequests=7\n".to_string(),
            rss_kib: 1024,
            profile: Some(ProfileTotals {
                sampled: 7,
                ticks_total: 100,
                ticks: std::array::from_fn(|i| i as u64),
                entries: std::array::from_fn(|i| 2 * i as u64),
                ticks_per_ns: 2.5,
            }),
            allocs: AllocCount {
                allocs: 3,
                bytes: 4096,
            },
            generated: (100, 0.125),
            metrics: vec![Metric::new("bench.exp.fig3_s", 0.5, "s")],
            ..Pass::default()
        };
        let calls = [Call {
            name: "fig3",
            start_s: 1.0,
            end_s: 1.5,
        }];
        let line = pass_to_json(&pass, &calls);
        let (back, back_calls) = pass_from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(
            (
                back.setup_s,
                back.timed_s,
                back.requests,
                back.ops,
                back.failed
            ),
            (0.25, 2.5, 7, 21, 1)
        );
        assert_eq!(back.problems, pass.problems);
        assert_eq!(back.digest, pass.digest);
        assert_eq!(back.rss_kib, 1024);
        assert_eq!(back.profile, pass.profile);
        assert_eq!(back.allocs, pass.allocs);
        assert_eq!(back.generated, pass.generated);
        assert_eq!(back.metrics, pass.metrics);
        assert_eq!(back_calls.len(), 1);
        assert_eq!((back_calls[0].name, back_calls[0].end_s), ("fig3", 1.5));
    }
}
