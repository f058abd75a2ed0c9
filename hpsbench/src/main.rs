//! `hpsbench`: the simulator's one rerunnable benchmark.
//!
//! ```text
//! hpsbench run [--workload W|all] [--seed S] [--seconds T] [--trace 0|1 | --traced]
//!              [--out run.json] [--trace-out trace.json] [--quick]
//! hpsbench compare <parent.json...> -- <change.json...>
//! hpsbench summary <run.json...>
//! hpsbench pin
//! ```
//!
//! `run` measures one workload in this process, or every workload, each
//! in a child process, one after another. It prints `workload metric
//! value unit` lines and ends with a one-line JSON result. `--trace 1`
//! is the separate traced run that gives the per-layer metrics. See
//! README.md for the workloads, the metrics and the rules `compare`
//! applies; `pin` rewrites the goldens from the current simulator.

mod alloc;
mod compare;
mod outcome;
mod report;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use report::{combined_result_line, parse_child_output, write_runs, RunResult};
use workloads::{RunOpts, Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds a run measures when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Caps glibc's malloc arenas at the number of threads a run uses. The
/// fleet passes start new worker threads every pass; uncapped, glibc
/// sometimes gave them fresh arenas instead of reusing the old ones, and
/// the fleet's peak RSS jumped from about 44 to 62 MiB on such runs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    /// glibc's `M_ARENA_MAX`.
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: `mallopt` only sets an allocator tunable; it is called
    // before this process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, workloads::MAX_THREADS as c_int);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas() {}

fn main() -> ExitCode {
    cap_malloc_arenas();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("run") => run_cmd(rest),
        Some("compare") => compare::compare_cmd(rest),
        Some("summary") => compare::summary_cmd(rest),
        Some("pin") => pin_cmd(rest),
        Some("suite-pass") => workloads::suite_pass_cmd(rest),
        _ => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: hpsbench run [--workload W|all] [--seed S] [--seconds T] [--trace 0|1 | --traced]\n\
         \x20                   [--out run.json] [--trace-out trace.json] [--quick]\n\
         \x20      hpsbench compare <parent.json...> -- <change.json...>\n\
         \x20      hpsbench summary <run.json...>\n\
         \x20      hpsbench pin\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
}

struct RunArgs {
    /// `None` runs every workload.
    workload: Option<Workload>,
    opts: RunOpts,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        opts: RunOpts {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
            quick: false,
            trace_out: None,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                parsed.workload = match value()?.as_str() {
                    "all" => None,
                    name => {
                        Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?)
                    }
                }
            }
            "--seed" => {
                let v = value()?;
                parsed.opts.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.opts.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => return Err(format!("bad --seconds {v}")),
                };
            }
            "--trace" => {
                parsed.opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--traced" => parsed.opts.traced = true,
            "--quick" => parsed.opts.quick = true,
            "--out" => parsed.out = Some(value()?.clone()),
            "--trace-out" => parsed.opts.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if parsed.opts.trace_out.is_some() && (parsed.workload.is_none() || !parsed.opts.traced) {
        return Err("--trace-out needs one --workload and --traced".to_string());
    }
    Ok(parsed)
}

fn run_cmd(args: &[String]) -> ExitCode {
    let parsed = match parse_run(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("hpsbench: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    let results: Vec<RunResult> = match parsed.workload {
        Some(w) => vec![workloads::run(w, &parsed.opts)],
        None => Workload::ALL
            .iter()
            .map(|&w| run_child(w, &parsed.opts))
            .collect(),
    };
    for r in &results {
        print!("{}", r.lines());
    }
    if let Some(path) = &parsed.out {
        if let Err(e) = write_runs(path, &results) {
            eprintln!("hpsbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match parsed.workload {
        Some(_) => println!("{}", results[0].result_line()),
        None => println!("{}", combined_result_line(&results)),
    }
    if results.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process of this binary, so each
/// workload's peak RSS is its own.
fn run_child(workload: Workload, opts: &RunOpts) -> RunResult {
    let run = || -> Result<RunResult, String> {
        let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
        cmd.args(["run", "--workload", workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }]);
        if opts.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        parse_child_output(workload.name(), opts.seed, opts.traced, &stdout)
    };
    run().unwrap_or_else(|e| {
        eprintln!("hpsbench: {} run failed: {e}", workload.name());
        RunResult {
            workload: workload.name().to_string(),
            seed: opts.seed,
            traced: opts.traced,
            attempted: 1,
            failed: 1,
            ..RunResult::default()
        }
    })
}

/// `hpsbench pin`: rewrites every golden from the current simulator.
fn pin_cmd(args: &[String]) -> ExitCode {
    if !args.is_empty() {
        usage();
        return ExitCode::from(2);
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens");
    let pinned = (|| -> std::io::Result<()> {
        for w in Workload::ALL {
            if w != Workload::PaperSuite {
                std::fs::write(dir.join(format!("{}.txt", w.name())), w.quick_digest())?;
            }
        }
        workloads::pin_suite_goldens(&dir.join("paper_suite"))
    })();
    match pinned {
        Ok(()) => {
            eprintln!(
                "hpsbench: goldens rewritten under {}; rebuild to embed them",
                dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hpsbench: cannot write goldens: {e}");
            ExitCode::FAILURE
        }
    }
}
