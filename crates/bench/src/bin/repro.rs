//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--out DIR] [--jobs N] [--scale N]
//! repro <workload> [--scheme 4PS|8PS|HPS] [--scale N] [--stream] [--progress]
//!                  [--trace-out FILE] [--metrics-out FILE] [--jsonl-out FILE]
//! repro profile <table4|workload> [--scale N] [--profile-stride N]
//!                                 [--profile-out FILE]
//! repro fleet [--devices N] [--jobs N] [--out DIR] [--metrics-out FILE]
//! repro diff <a.summary> <b.summary> [--tolerance F]
//!
//! experiments:
//!   table3 table4 table5 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//!   overhead characteristics
//!   ablate-gc ablate-ratio ablate-power ablate-channels
//!   implication3 implication5 endurance stack faults
//!   all            run everything
//! ```
//!
//! Output goes to stdout and, with `--out DIR` (default `experiments/`),
//! to `DIR/<experiment>.txt`.
//!
//! `--jobs N` sizes the worker pool that every experiment fans its
//! independent replays out over (default: the machine's available
//! parallelism; `--jobs 1` forces serial). Results are collected in input
//! order, so the tables are byte-identical at any job count. Each
//! experiment's wall time is reported on stderr.
//!
//! `repro diff` compares two metrics summaries written by
//! `--metrics-out`: it parses both files back into metric values and
//! exits non-zero when any value diverges by more than `--tolerance`
//! (relative, default 0 = exact), so CI can re-run an experiment and
//! fail the build on drift.
//!
//! `repro profile <target>` replays `table4` or a single workload with
//! the phase-accounting profiler armed (serial, `--jobs 1`) and prints a
//! top-down table attributing simulated-request wall time to fixed
//! phases (distributor split, queue wait, FTL lookup/read/write, GC
//! select/copyback, NAND read/program/erase), plus the replay's
//! simulated IOPS (requests retired per host second). `--profile-stride`
//! adjusts sampling (default 64; 1 = every request); `--profile-out`
//! writes flamegraph-compatible folded stacks (`stack<space>ns` lines,
//! feed to inferno/flamegraph.pl).
//!
//! `repro fleet` simulates a whole population of devices — `--devices N`
//! of them (default 256), each with its own seed-derived workload,
//! mapping scheme, flash geometry, utilization, and pre-existing wear —
//! fanned out over the worker pool and streamed into one fixed-size
//! aggregate, so `--devices 100000` runs at the same resident memory as
//! `--devices 100`. The report (written to `DIR/fleet.txt`) carries
//! cross-device percentiles-of-percentiles, a scheme × geometry
//! breakdown, and an endurance fast-forward; it is byte-identical at any
//! `--jobs`. `--metrics-out` writes the tree-merged metrics summary of
//! every device, diffable with `repro diff`.
//!
//! `--progress` (streaming replays) prints a throttled heartbeat line to
//! stderr while the replay runs: requests/sec, resident memory, ETA from
//! the source's length hint, and the profiler's current phase mix.
//!
//! `--scale N` replays `N` streamed generation epochs per workload
//! through the streaming trace engine — resident memory stays flat no
//! matter how large `N` gets. It applies to workload targets and to
//! `table4` (the other experiments need materialized traces and reject
//! it). `--stream` forces the streaming engine even at scale 1; the
//! result is byte-identical to the materialized replay, which CI checks.
//!
//! Any paper workload name (see `trace-tool list`) is also accepted as a
//! target: it is replayed on the Table V device with telemetry attached.
//! `--trace-out` writes the request-lifecycle trace as Chrome trace JSON
//! (load it at <https://ui.perfetto.dev>); `--metrics-out` writes the
//! metrics-registry summary as text; `--jsonl-out` streams lifecycle
//! events to a JSONL file as the replay runs (constant memory).

#![allow(clippy::print_stdout, clippy::print_stderr)]
#![expect(
    clippy::disallowed_types,
    reason = "operator progress timing only; never enters simulation results"
)]

use hps_bench::ablations::{ablate_channels, ablate_gc, ablate_power, ablate_ratio};
use hps_bench::experiments::{
    exp_characteristics, exp_fig3, exp_fig4, exp_fig5, exp_fig6, exp_fig7, exp_fig8, exp_fig9,
    exp_overhead, exp_table3, exp_table4, exp_table4_scaled, exp_table5, run_full_case_study,
};
use hps_bench::implications::{
    endurance, implication3_read_cache, implication5_slc, stack_pipeline,
};
use hps_bench::reliability::exp_faults;
use hps_core::IoRequest;
use hps_emmc::{DeviceConfig, EmmcDevice, SchemeKind};
use hps_obs::{render_summary, write_chrome_trace, JsonlStreamSink, Telemetry};
use hps_trace::TraceSource;
use hps_workloads::{by_name, generate, stream};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const EXPERIMENTS: [&str; 21] = [
    "table3",
    "table4",
    "table5",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "overhead",
    "characteristics",
    "ablate-gc",
    "ablate-ratio",
    "ablate-power",
    "ablate-channels",
    "implication3",
    "implication5",
    "endurance",
    "stack",
    "faults",
];

/// Every setting the command line can change, at its default until a
/// flag sets it.
#[derive(Clone)]
struct Options {
    out_dir: String,
    scheme: SchemeKind,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    jsonl_out: Option<String>,
    tolerance: f64,
    scale: u64,
    stream: bool,
    progress: bool,
    profile_out: Option<String>,
    profile_stride: u32,
    devices: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            out_dir: String::from("experiments"),
            scheme: SchemeKind::Hps,
            trace_out: None,
            metrics_out: None,
            jsonl_out: None,
            tolerance: 0.0,
            scale: 1,
            stream: false,
            progress: false,
            profile_out: None,
            profile_stride: 64,
            devices: 256,
        }
    }
}

impl Options {
    /// Stores one flag's value; `None` rejects it.
    fn set(&mut self, flag: &str, v: &str) -> Option<()> {
        match flag {
            "--out" => self.out_dir = v.to_string(),
            "--jobs" => hps_core::par::set_jobs(positive(v)?),
            "--scale" => self.scale = positive(v)?,
            "--scheme" => self.scheme = parse_scheme(v)?,
            "--stream" => self.stream = true,
            "--progress" => self.progress = true,
            "--trace-out" => self.trace_out = Some(v.to_string()),
            "--metrics-out" => self.metrics_out = Some(v.to_string()),
            "--jsonl-out" => self.jsonl_out = Some(v.to_string()),
            "--profile-stride" => self.profile_stride = positive(v)?,
            "--profile-out" => self.profile_out = Some(v.to_string()),
            "--devices" => self.devices = positive(v)?,
            "--tolerance" => self.tolerance = v.parse().ok().filter(|t: &f64| *t >= 0.0)?,
            _ => return None,
        }
        Some(())
    }
}

/// The kind of value a flag takes (a switch takes none): whether it
/// consumes the next argument, how the usage text shows it, and what its
/// usage error says.
#[derive(Clone, Copy)]
enum Value {
    Switch,
    Dir,
    File,
    Count,
    NonNegative,
    Scheme,
}

impl Value {
    /// The usage text's placeholder for the value.
    fn placeholder(self) -> &'static str {
        match self {
            Value::Switch => "",
            Value::Dir => " DIR",
            Value::File => " FILE",
            Value::Count => " N",
            Value::NonNegative => " F",
            Value::Scheme => " 4PS|8PS|HPS",
        }
    }

    /// The usage error for a missing or rejected value of `flag`.
    fn error(self, flag: &str, got: Option<&str>) -> String {
        match self {
            Value::Switch => format!("{flag} takes no value"),
            Value::Dir => format!("{flag} requires a directory"),
            Value::File => format!("{flag} requires a file path"),
            Value::Count => format!("{flag} requires a positive integer"),
            Value::NonNegative => format!("{flag} requires a non-negative number"),
            Value::Scheme => format!("{flag} requires 4PS, 8PS, or HPS (got {got:?})"),
        }
    }
}

/// Every flag with its value kind and help text: drives both argument
/// parsing and the usage text.
#[rustfmt::skip]
const FLAGS: &[(&str, Value, &str)] = &[
    ("--out",            Value::Dir,         "where <target>.txt files go (default: experiments)"),
    ("--jobs",           Value::Count,       "worker-pool size (default: all cores; 1 = serial)"),
    ("--scale",          Value::Count,       "stream N epochs per trace at O(1) memory (workloads, table4)"),
    ("--scheme",         Value::Scheme,      "scheme of a workload replay (default: HPS)"),
    ("--stream",         Value::Switch,      "stream even at scale 1 (byte-identical metrics)"),
    ("--progress",       Value::Switch,      "live heartbeat on stderr: rate, rss, eta, phase mix"),
    ("--trace-out",      Value::File,        "write a replay's request lifecycle as Chrome trace JSON"),
    ("--metrics-out",    Value::File,        "write the metrics summary of a replay or of the fleet"),
    ("--jsonl-out",      Value::File,        "stream a replay's lifecycle events to a JSONL file"),
    ("--profile-stride", Value::Count,       "profile every Nth request (default 64)"),
    ("--profile-out",    Value::File,        "write flamegraph-compatible folded stacks"),
    ("--devices",        Value::Count,       "fleet population size (default 256)"),
    ("--tolerance",      Value::NonNegative, "relative tolerance of diff (default 0 = exact)"),
];

/// The five command forms, as the usage text lists them.
const SYNOPSIS: [&str; 5] = [
    "repro <experiment>... [--out DIR] [--jobs N] [--scale N]",
    "repro <workload> [--scheme 4PS|8PS|HPS] [--scale N] [--stream] [--progress] \
     [--trace-out FILE] [--metrics-out FILE] [--jsonl-out FILE]",
    "repro profile <table4|workload> [--scale N] [--profile-stride N] [--profile-out FILE]",
    "repro fleet [--devices N] [--jobs N] [--out DIR] [--metrics-out FILE]",
    "repro diff <a.summary> <b.summary> [--tolerance F]",
];

/// An integer of at least 1.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n >= T::from(1))
}

fn parse_scheme(v: &str) -> Option<SchemeKind> {
    match v {
        "4PS" | "4ps" => Some(SchemeKind::Ps4),
        "8PS" | "8ps" => Some(SchemeKind::Ps8),
        "HPS" | "hps" => Some(SchemeKind::Hps),
        _ => None,
    }
}

fn main() {
    let mut opts = Options::default();
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            print_usage();
            return;
        }
        let Some(&(name, kind, _)) = FLAGS.iter().find(|(name, ..)| *name == arg) else {
            targets.push(arg);
            continue;
        };
        let value = match kind {
            Value::Switch => Some(String::new()),
            _ => args.next(),
        };
        if value.as_deref().and_then(|v| opts.set(name, v)).is_none() {
            eprintln!("{}", kind.error(name, value.as_deref()));
            std::process::exit(2);
        }
    }
    match (targets.first().map(String::as_str), targets.get(1..)) {
        (Some("profile"), Some([target])) => std::process::exit(profile_cmd(target, &opts)),
        (Some("profile"), _) => usage_error(SYNOPSIS[2]),
        (Some("fleet"), Some([])) => std::process::exit(fleet_cmd(&opts)),
        (Some("fleet"), _) => usage_error(SYNOPSIS[3]),
        (Some("diff"), Some([a, b])) => std::process::exit(diff_cmd(a, b, opts.tolerance)),
        (Some("diff"), _) => usage_error(SYNOPSIS[4]),
        (Some(_), _) => {}
        (None, _) => {
            print_usage();
            std::process::exit(2);
        }
    }
    if targets.iter().any(|t| t == "all") {
        targets = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    // Reject a bad target before anything runs, so a typo late in the
    // list leaves no partial output behind.
    for target in &targets {
        let workload = by_name(target).is_some();
        if opts.scale > 1 && target != "table4" && !workload {
            eprintln!("--scale applies only to workload targets and table4 (got '{target}')");
            std::process::exit(2);
        }
        if !workload && !EXPERIMENTS.contains(&target.as_str()) {
            eprintln!("unknown experiment or workload '{target}'");
            print_usage();
            std::process::exit(2);
        }
    }

    eprintln!("[repro] job pool: {} worker(s)", hps_core::par::jobs());
    let run_started = Instant::now();

    // fig8 and fig9 share one expensive case-study run.
    let needs_case_study = targets.iter().any(|t| t == "fig8" || t == "fig9");
    let case_rows = if needs_case_study {
        eprintln!("[repro] running the 18-trace x 3-scheme case study...");
        let t0 = Instant::now();
        let rows = run_full_case_study();
        eprintln!(
            "[repro] case study done in {:.2}s",
            t0.elapsed().as_secs_f64()
        );
        Some(rows)
    } else {
        None
    };

    for target in &targets {
        eprintln!("[repro] {target}");
        let target_started = Instant::now();
        let output = match target.as_str() {
            "table3" => exp_table3(),
            "table4" if opts.scale > 1 => exp_table4_scaled(opts.scale),
            "table4" => exp_table4(),
            "table5" => exp_table5(),
            "fig3" => exp_fig3(),
            "fig4" => exp_fig4(),
            "fig5" => exp_fig5(),
            "fig6" => exp_fig6(),
            "fig7" => exp_fig7(),
            "fig8" | "fig9" => match case_rows.as_ref() {
                Some(rows) if target == "fig8" => exp_fig8(rows),
                Some(rows) => exp_fig9(rows),
                None => {
                    // Unreachable by construction (`needs_case_study` scans
                    // the same target list), but a structured exit beats a
                    // panic if the two ever drift.
                    eprintln!("internal error: case study rows missing for {target}");
                    std::process::exit(1);
                }
            },
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
            // Every target was checked above: anything else is a workload.
            workload => match replay_workload(workload, &opts) {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("replay of '{workload}' failed: {e}");
                    std::process::exit(1);
                }
            },
        };
        println!("{output}");
        eprintln!(
            "[repro] {target} done in {:.2}s",
            target_started.elapsed().as_secs_f64()
        );
        let file_stem = target.replace('/', "_");
        if let Err(e) = write_output(&opts.out_dir, &file_stem, &output) {
            eprintln!(
                "warning: could not write {}/{file_stem}.txt: {e}",
                opts.out_dir
            );
        }
    }
    eprintln!(
        "[repro] {} target(s) in {:.2}s total",
        targets.len(),
        run_started.elapsed().as_secs_f64()
    );
}

/// Replays one paper workload on the real-device Table V configuration
/// with telemetry attached, writing the Chrome trace and/or metrics
/// summary when asked.
///
/// With `--stream` or `--scale > 1` the requests come from the streaming
/// generator instead of a materialized trace; at scale 1 the two paths
/// produce byte-identical metrics (the materialized trace is the stream's
/// single epoch).
fn replay_workload(name: &str, opts: &Options) -> Result<String, Box<dyn std::error::Error>> {
    let profile =
        by_name(name).ok_or_else(|| format!("unknown workload '{name}' (see trace-tool list)"))?;
    // Same device as `trace-tool replay`, so the two tools report
    // comparable numbers.
    let mut device = EmmcDevice::new(DeviceConfig::real_device(opts.scheme))?;
    let mut jsonl_stats = None;
    device.attach_telemetry(if let Some(path) = &opts.jsonl_out {
        // Stream events straight to disk: constant memory however long the
        // replay runs. (`--trace-out` still needs the in-memory buffer —
        // the Chrome exporter works on the whole event list.)
        if opts.trace_out.is_some() {
            return Err("--jsonl-out and --trace-out are mutually exclusive".into());
        }
        let sink = JsonlStreamSink::create(path)?;
        jsonl_stats = Some(sink.stats());
        Telemetry::with_sink(Box::new(sink))
    } else if opts.trace_out.is_some() {
        Telemetry::tracing()
    } else {
        Telemetry::registry_only()
    });
    // `--progress` needs the request stream to flow through a wrapper, so
    // it implies the streaming engine (byte-identical metrics at scale 1).
    let metrics = if opts.stream || opts.scale > 1 || opts.progress {
        let source = stream(&profile, 42, opts.scale);
        if opts.progress {
            let mut source = ProgressSource::new(source);
            let metrics = device.replay_stream(&mut source)?;
            source.finish();
            metrics
        } else {
            let mut source = source;
            device.replay_stream(&mut source)?
        }
    } else {
        let mut trace = generate(&profile, 42);
        device.replay(&mut trace)?
    };

    let mut output = format!(
        "{metrics}\np50={:.3}ms p99={:.3}ms write_amp={:.3}\n",
        metrics.p50_response_ms(),
        metrics.p99_response_ms(),
        metrics.ftl.write_amplification()
    );
    if let Some(path) = &opts.trace_out {
        let events = device
            .telemetry_mut()
            .ok_or("telemetry bundle missing after replay")?
            .take_events();
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        write_chrome_trace(&events, std::io::BufWriter::new(file))?;
        output.push_str(&format!(
            "wrote {} trace events to {path} (load in https://ui.perfetto.dev)\n",
            events.len()
        ));
    }
    if let Some(path) = &opts.metrics_out {
        let registry = device.metrics_registry(&metrics);
        std::fs::write(path, render_summary(&registry))
            .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
        output.push_str(&format!("wrote {} metrics to {path}\n", registry.len()));
    }
    if let (Some(path), Some(stats)) = (&opts.jsonl_out, jsonl_stats) {
        drop(device.take_telemetry()); // flush the streaming sink's BufWriter
        if stats.errors() > 0 {
            return Err(format!(
                "cannot write events to {path}: {} write errors",
                stats.errors()
            )
            .into());
        }
        output.push_str(&format!(
            "streamed {} events to {path} ({} write errors)\n",
            stats.written(),
            stats.errors()
        ));
    }
    Ok(output)
}

/// `repro profile <target>`: replays `table4` or one workload with the
/// phase profiler armed and prints the per-phase breakdown plus the
/// replay's simulated IOPS. Runs serially (`--jobs 1`) because the
/// profiler accumulates into thread-local storage — the whole replay
/// must happen on this thread for the report to see it.
fn profile_cmd(target: &str, opts: &Options) -> i32 {
    let stride = opts.profile_stride;
    hps_core::par::set_jobs(1);
    hps_obs::profile::set_stride(stride);
    hps_obs::profile::reset();
    eprintln!("[repro] profiling {target} (stride {stride}, serial)");
    let started = Instant::now();
    match target {
        "table4" if opts.scale > 1 => {
            exp_table4_scaled(opts.scale);
        }
        "table4" => {
            exp_table4();
        }
        workload if by_name(workload).is_some() => {
            // A profiled replay is always HPS and writes no artifacts.
            let replay = Options {
                scheme: SchemeKind::Hps,
                stream: false,
                trace_out: None,
                metrics_out: None,
                jsonl_out: None,
                ..opts.clone()
            };
            if let Err(e) = replay_workload(workload, &replay) {
                eprintln!("replay of '{workload}' failed: {e}");
                return 1;
            }
        }
        unknown => {
            eprintln!("profile target must be table4 or a workload name (got '{unknown}')");
            return 2;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let report = hps_obs::profile::report();
    if report.sampled == 0 {
        eprintln!("profiler sampled no requests; nothing to report");
        return 1;
    }
    // The slot self times partition the measured total by construction,
    // so this only trips if the accounting invariant is broken.
    let share_sum: f64 = report.percentages().iter().sum(); // lint: allow(float-accum) -- fixed-order array
    if (share_sum - 100.0).abs() > 0.5 {
        eprintln!("phase percentages sum to {share_sum:.3}%, outside 100 +/- 0.5");
        return 1;
    }
    print!("{}", report.render_table());
    println!(
        "simulated IOPS: {:.0} ({} requests in {:.2}s host time)",
        report.requests as f64 / wall,
        report.requests,
        wall
    );
    if let Some(path) = &opts.profile_out {
        let folded = report.render_folded();
        if let Err(e) = std::fs::write(path, &folded) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        println!(
            "wrote {} folded stack lines to {path}",
            folded.lines().count()
        );
    }
    0
}

/// Wraps a [`TraceSource`], printing a throttled heartbeat to stderr as
/// requests flow through: rate, resident memory, ETA from the source's
/// length hint, and the profiler's phase mix since the last print.
struct ProgressSource<S> {
    inner: S,
    total: Option<u64>,
    served: u64,
    started: Instant,
    last_print: Instant,
    last_served: u64,
    last_ticks: [u64; hps_obs::profile::N_SLOTS],
    printed: bool,
}

/// Requests between heartbeat-eligibility checks (the time check, not the
/// print, is the per-request cost).
const PROGRESS_CHECK_EVERY: u64 = 4096;

impl<S: TraceSource> ProgressSource<S> {
    fn new(inner: S) -> Self {
        let total = inner.len_hint();
        let now = Instant::now();
        ProgressSource {
            inner,
            total,
            served: 0,
            started: now,
            last_print: now,
            last_served: 0,
            last_ticks: hps_obs::profile::phase_ticks_snapshot(),
            printed: false,
        }
    }

    fn heartbeat(&mut self) {
        let now = Instant::now();
        if now.duration_since(self.last_print).as_millis() < 500 {
            return;
        }
        let rate = (self.served - self.last_served) as f64
            / now.duration_since(self.last_print).as_secs_f64();
        let ticks = hps_obs::profile::phase_ticks_snapshot();
        let mix = phase_mix(&self.last_ticks, &ticks);
        let eta = match self.total {
            Some(total) if rate > 0.0 && total > self.served => {
                format!("{:.0}s", (total - self.served) as f64 / rate)
            }
            _ => "?".to_string(),
        };
        let pct = match self.total {
            Some(total) if total > 0 => {
                format!("{:.0}%", 100.0 * self.served as f64 / total as f64)
            }
            _ => "?".to_string(),
        };
        eprint!(
            "\r[progress] {} req ({pct}) | {:.0} req/s | rss {} | eta {eta} | {mix}    ",
            self.served,
            rate,
            rss_display(),
        );
        self.last_print = now;
        self.last_served = self.served;
        self.last_ticks = ticks;
        self.printed = true;
    }

    /// Terminates the heartbeat line with a summary. Call after the
    /// replay finishes (the wrapper can't know its last request was
    /// final).
    fn finish(&mut self) {
        if self.printed {
            eprintln!();
        }
        eprintln!(
            "[progress] {} request(s) in {:.2}s",
            self.served,
            self.started.elapsed().as_secs_f64()
        );
    }
}

impl<S: TraceSource> TraceSource for ProgressSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        let request = self.inner.next_request();
        if request.is_some() {
            self.served += 1;
            if self.served.is_multiple_of(PROGRESS_CHECK_EVERY) {
                self.heartbeat();
            }
        }
        request
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

/// Top-three profiler slots by self time accumulated between two
/// snapshots, as `label NN%` pairs.
fn phase_mix(
    before: &[u64; hps_obs::profile::N_SLOTS],
    after: &[u64; hps_obs::profile::N_SLOTS],
) -> String {
    let delta: Vec<u64> = after
        .iter()
        .zip(before.iter())
        .map(|(a, b)| a - b)
        .collect();
    let total: u64 = delta.iter().sum();
    if total == 0 {
        return "phase mix: (no samples yet)".to_string();
    }
    let mut slots: Vec<usize> = (0..delta.len()).collect();
    slots.sort_by(|&a, &b| delta[b].cmp(&delta[a]));
    let top: Vec<String> = slots
        .iter()
        .take(3)
        .filter(|&&slot| delta[slot] > 0)
        .map(|&slot| {
            format!(
                "{} {:.0}%",
                hps_obs::profile::slot_label(slot),
                100.0 * delta[slot] as f64 / total as f64
            )
        })
        .collect();
    format!("phase mix: {}", top.join(" "))
}

/// Resident set size from `/proc/self/statm`, formatted for the
/// heartbeat; "?" where procfs is unavailable.
fn rss_display() -> String {
    let rss_pages = std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|statm| statm.split_whitespace().nth(1)?.parse::<f64>().ok());
    match rss_pages {
        // Pages are 4 KiB on every platform this runs on; procfs reports
        // resident pages in field 2.
        Some(pages) => format!("{:.1} MiB", pages * 4096.0 / (1024.0 * 1024.0)),
        None => "?".to_string(),
    }
}

/// `repro fleet`: simulates a `--devices`-sized population drawn from the
/// standard fleet distribution and prints/writes the deterministic fleet
/// report. Throughput and peak RSS go to stderr only — the report itself
/// must be byte-identical at any `--jobs`, so nothing host-dependent is
/// allowed into it.
fn fleet_cmd(opts: &Options) -> i32 {
    let devices = opts.devices;
    let spec = hps_fleet::FleetSpec::default_with(devices, hps_bench::MASTER_SEED);
    eprintln!(
        "[repro] fleet: {} device(s) over {} worker(s)",
        devices,
        hps_core::par::jobs()
    );
    let started = Instant::now();
    let outcome = hps_fleet::run_fleet(&spec);
    let wall = started.elapsed().as_secs_f64();
    let report = hps_fleet::render_fleet_report(&spec, &outcome);
    print!("{report}");
    eprintln!(
        "[repro] fleet done in {wall:.2}s ({:.0} devices/s, peak rss {})",
        devices as f64 / wall,
        peak_rss_display()
    );
    if let Some(path) = &opts.metrics_out {
        let summary = render_summary(outcome.snapshot.registry());
        if let Err(e) = std::fs::write(path, summary) {
            eprintln!("cannot write metrics to {path}: {e}");
            return 1;
        }
        eprintln!("[repro] fleet metrics written to {path}");
    }
    if let Err(e) = write_output(&opts.out_dir, "fleet", &report) {
        eprintln!("warning: could not write {}/fleet.txt: {e}", opts.out_dir);
    }
    0
}

/// Peak resident set size (`VmHWM` from `/proc/self/status`), formatted
/// for the fleet summary line; "?" where procfs is unavailable.
fn peak_rss_display() -> String {
    let hwm_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        });
    match hwm_kib {
        Some(kib) => format!("{:.1} MiB", kib / 1024.0),
        None => "?".to_string(),
    }
}

/// `repro diff a b`: compares two `--metrics-out` summary files and
/// returns the process exit code — 0 when every metric agrees to within
/// `tolerance`, 1 when any diverges, 2 on unreadable/unparseable input.
fn diff_cmd(path_a: &str, path_b: &str, tolerance: f64) -> i32 {
    let mut parsed = Vec::with_capacity(2);
    for path in [path_a, path_b] {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return 2;
            }
        };
        match hps_obs::parse_summary(&text) {
            Ok(summary) => parsed.push(summary),
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return 2;
            }
        }
    }
    let diffs = hps_obs::diff_summaries(&parsed[0], &parsed[1], tolerance);
    if diffs.is_empty() {
        println!(
            "summaries match: {} metric(s) within tolerance {tolerance}",
            parsed[0].len().max(parsed[1].len())
        );
        0
    } else {
        for d in &diffs {
            println!("{d}");
        }
        println!(
            "summaries differ: {} divergence(s) beyond tolerance {tolerance}",
            diffs.len()
        );
        1
    }
}

fn write_output(dir: &str, name: &str, content: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = Path::new(dir).join(format!("{name}.txt"));
    let mut f = std::fs::File::create(path)?;
    f.write_all(content.as_bytes())
}

/// Prints one command form's usage and exits with the usage-error code.
fn usage_error(form: &str) -> ! {
    eprintln!("usage: {form}");
    std::process::exit(2)
}

fn print_usage() {
    for (i, form) in SYNOPSIS.iter().enumerate() {
        eprintln!("{} {form}", if i == 0 { "usage:" } else { "      " });
    }
    eprintln!("experiments: {} all", EXPERIMENTS.join(" "));
    eprintln!("workloads:   any name from `trace-tool list` (e.g. CameraVideo, WebBrowsing)");
    for (name, kind, help) in FLAGS {
        eprintln!("{:<24}{help}", format!("{name}{}", kind.placeholder()));
    }
    eprintln!("{:<24}print this help", "--help, -h");
}
