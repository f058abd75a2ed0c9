//! `trace-tool` — generate, inspect, and replay trace files.
//!
//! ```text
//! trace-tool gen <Workload> [--seed N] [--out FILE]    generate a trace CSV
//! trace-tool stats <FILE>                              Table III/IV rows
//! trace-tool head <FILE> [N]                           first N records
//! trace-tool replay <FILE> <4PS|8PS|HPS>
//!            [--trace-out FILE] [--metrics-out FILE]   replay and report
//! trace-tool summary <Workload|FILE> [<4PS|8PS|HPS>]   full metrics registry
//! trace-tool list                                      list the 25 workloads
//! ```
//!
//! `replay --trace-out` writes the request-lifecycle spans as Chrome trace
//! JSON (load it at <https://ui.perfetto.dev>); `--metrics-out` writes the
//! metrics-registry summary as text. `summary` replays a named workload (or
//! a trace file) with the metrics registry attached and prints every
//! counter and histogram it collected.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]

use hps_analysis::tables::{table_iii, table_iv};
use hps_emmc::{DeviceConfig, EmmcDevice, SchemeKind};
use hps_obs::{render_summary, write_chrome_trace, Telemetry};
use hps_trace::io::{read_trace, write_trace};
use hps_trace::{Trace, TraceSummary};
use hps_workloads::{by_name, generate, COMBO_NAMES, INDIVIDUAL_NAMES};
use std::fs::File;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("head") => cmd_head(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("summary") => cmd_summary(&args[1..]),
        Some("list") => {
            println!("individual: {}", INDIVIDUAL_NAMES.join(", "));
            println!("combos:     {}", COMBO_NAMES.join(", "));
            Ok(())
        }
        _ => {
            eprintln!(
                "usage: trace-tool <gen|stats|head|replay|summary|list> ...\n\
                 run with a subcommand; see the module docs"
            );
            exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn cmd_gen(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let name = args.first().ok_or("gen needs a workload name")?;
    let mut seed = 42u64;
    let mut out = format!("{}.trace.csv", name.replace('/', "_"));
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => seed = iter.next().ok_or("--seed needs a value")?.parse()?,
            "--out" => out = iter.next().ok_or("--out needs a path")?.clone(),
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let profile = by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let trace = generate(&profile, seed);
    write_trace(&trace, File::create(&out)?)?;
    println!("wrote {} ({} records) to {out}", trace.name(), trace.len());
    Ok(())
}

fn load(path: &str) -> Result<Trace, Box<dyn std::error::Error>> {
    Ok(read_trace(File::open(path)?, path)?)
}

/// A workload name resolves to a generated trace (seed 42); anything else
/// is treated as a trace-file path.
fn load_workload_or_file(arg: &str) -> Result<Trace, Box<dyn std::error::Error>> {
    match by_name(arg) {
        Some(profile) => Ok(generate(&profile, 42)),
        None => load(arg),
    }
}

fn parse_scheme(arg: Option<&str>) -> Result<SchemeKind, Box<dyn std::error::Error>> {
    match arg {
        Some("4PS") | Some("4ps") => Ok(SchemeKind::Ps4),
        Some("8PS") | Some("8ps") => Ok(SchemeKind::Ps8),
        Some("HPS") | Some("hps") | None => Ok(SchemeKind::Hps),
        Some(other) => Err(format!("unknown scheme '{other}'").into()),
    }
}

fn cmd_stats(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("stats needs a file")?;
    let summaries = [TraceSummary::of(&load(path)?)];
    println!("{}", table_iii(&summaries).render());
    println!("{}", table_iv(&summaries).render());
    Ok(())
}

fn cmd_head(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("head needs a file")?;
    let n: usize = args.get(1).map_or(Ok(10), |s| s.parse())?;
    let trace = load(path)?;
    for record in trace.records().iter().take(n) {
        println!("{record}");
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("replay needs a file")?;
    let mut scheme_arg: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trace-out" => {
                trace_out = Some(iter.next().ok_or("--trace-out needs a path")?.clone())
            }
            "--metrics-out" => {
                metrics_out = Some(iter.next().ok_or("--metrics-out needs a path")?.clone());
            }
            other if scheme_arg.is_none() => scheme_arg = Some(other.to_string()),
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let scheme = parse_scheme(scheme_arg.as_deref())?;
    let mut trace = load(path)?;
    let mut dev = EmmcDevice::new(DeviceConfig::real_device(scheme))?;
    if trace_out.is_some() || metrics_out.is_some() {
        dev.attach_telemetry(if trace_out.is_some() {
            Telemetry::tracing()
        } else {
            Telemetry::registry_only()
        });
    }
    let metrics = dev.replay(&mut trace)?;
    println!("{metrics}");
    println!(
        "p50={:.3}ms p99={:.3}ms write_amp={:.3}",
        metrics.p50_response_ms(),
        metrics.p99_response_ms(),
        metrics.ftl.write_amplification()
    );
    if let Some(path) = trace_out {
        let events = dev.telemetry_mut().expect("attached above").take_events();
        write_chrome_trace(&events, std::io::BufWriter::new(File::create(&path)?))?;
        println!(
            "wrote {} trace events to {path} (load in https://ui.perfetto.dev)",
            events.len()
        );
    }
    if let Some(path) = metrics_out {
        let registry = dev.metrics_registry(&metrics);
        std::fs::write(&path, render_summary(&registry))?;
        println!("wrote {} metrics to {path}", registry.len());
    }
    Ok(())
}

fn cmd_summary(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let target = args
        .first()
        .ok_or("summary needs a workload name or trace file")?;
    let scheme = parse_scheme(args.get(1).map(String::as_str))?;
    let mut trace = load_workload_or_file(target)?;
    let mut dev = EmmcDevice::new(DeviceConfig::real_device(scheme))?;
    dev.attach_telemetry(Telemetry::registry_only());
    let metrics = dev.replay(&mut trace)?;
    print!("{}", render_summary(&dev.metrics_registry(&metrics)));
    Ok(())
}
