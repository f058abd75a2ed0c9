//! The five workloads and the time-boxed loop that measures them.
//!
//! A workload is a fixed unit of simulation (a *pass*) plus the set-up it
//! needs. A run repeats passes until `--seconds` have elapsed and reports
//! the fastest pass and the median set-up. Every pass of a run replays
//! the same inputs, so every pass must simulate the same outcome; a
//! traced run alternates untraced and traced passes, which also checks
//! that tracing changes nothing simulated.
//!
//! Load comes from this one process, as a closed loop with one client:
//! the next `submit` starts when the previous one returns. Only `fleet`'s
//! untraced passes use a second thread.

mod fleet;
mod replay;
mod suite;

use std::time::Instant;

use crate::alloc::AllocCount;
use crate::outcome::ProfileTotals;
use crate::report::{per_layer, Metric, RunResult, END_TO_END};
use crate::spans::Tracer;
use crate::stats::median;

pub use suite::{pin_suite_goldens, suite_pass_cmd};

/// The seed a run uses when `--seed` is not given, and the seed of the
/// pinned goldens.
pub const DEFAULT_SEED: u64 = 42;

/// Threads a run uses at most: the main thread and `fleet`'s workers.
pub const MAX_THREADS: usize = fleet::JOBS + 1;

/// Untraced passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperReplay,
    GcSteady,
    ReadWarm,
    Fleet,
    PaperSuite,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperReplay,
        Workload::GcSteady,
        Workload::ReadWarm,
        Workload::Fleet,
        Workload::PaperSuite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperReplay => "paper_replay",
            Workload::GcSteady => "gc_steady",
            Workload::ReadWarm => "read_warm",
            Workload::Fleet => "fleet",
            Workload::PaperSuite => "paper_suite",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pinned default-seed digest of a `--quick` pass; `None` for
    /// `paper_suite`, whose every pass compares its outputs with goldens.
    fn golden(self) -> Option<&'static str> {
        match self {
            Workload::PaperReplay => Some(include_str!("../../goldens/paper_replay.txt")),
            Workload::GcSteady => Some(include_str!("../../goldens/gc_steady.txt")),
            Workload::ReadWarm => Some(include_str!("../../goldens/read_warm.txt")),
            Workload::Fleet => Some(include_str!("../../goldens/fleet.txt")),
            Workload::PaperSuite => None,
        }
    }

    /// Runs one pass; `tracer` is `Some` for a traced pass.
    fn pass(self, seed: u64, quick: bool, tracer: Option<&mut Tracer>) -> Pass {
        match self {
            Workload::PaperReplay => replay::paper_replay(seed, quick, tracer),
            Workload::GcSteady => replay::gc_steady(seed, quick, tracer),
            Workload::ReadWarm => replay::read_warm(seed, quick, tracer),
            Workload::Fleet => fleet::pass(seed, quick, tracer),
            Workload::PaperSuite => suite::pass(quick, tracer),
        }
    }

    /// Simulated outcome of one untraced `--quick` pass at the default
    /// seed, in golden form.
    pub fn quick_digest(self) -> String {
        self.pass(DEFAULT_SEED, true, None).digest
    }
}

/// Options of one `run`.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Small sizes for tests; `paper_suite` then runs in this process.
    pub quick: bool,
    pub trace_out: Option<String>,
}

/// What one pass did.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    pub setup_s: f64,
    pub timed_s: f64,
    /// Set-up plus timed phase, as a user waits for it.
    pub wall_s: f64,
    /// Simulated requests served in the timed phase.
    pub requests: u64,
    /// Operations attempted: replays, devices or paper outputs.
    pub ops: u64,
    pub failed: u64,
    /// Correctness failures found by the pass itself.
    pub problems: Vec<String>,
    /// Canonical text of the simulated outcome.
    pub digest: String,
    /// Peak resident set, in KiB, of the process that ran the pass, read
    /// when the pass ends.
    pub rss_kib: u64,
    /// Traced passes: the profiler's totals over the timed phase.
    pub profile: Option<ProfileTotals>,
    /// Traced passes: heap traffic of the timed phase.
    pub allocs: AllocCount,
    /// Traced passes: requests generated and host seconds spent on it.
    pub generated: (u64, f64),
    /// Simulated-outcome metrics and workload-specific layer metrics.
    pub metrics: Vec<Metric>,
}

/// Picks the full (`false`) or `--quick` (`true`) size.
fn size<T: Copy>(sizes: [T; 2], quick: bool) -> T {
    sizes[usize::from(quick)]
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`), in KiB; 0 where procfs
/// is unavailable.
pub fn vmhwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Medians, by name, of per-pass metrics, in first-seen order.
fn medians<'a>(passes: impl Iterator<Item = &'a Pass>) -> Vec<Metric> {
    let mut acc: Vec<(Metric, Vec<f64>)> = Vec::new();
    for pass in passes {
        for m in &pass.metrics {
            match acc.iter_mut().find(|(first, _)| first.name == m.name) {
                Some((_, values)) => values.push(m.value),
                None => acc.push((m.clone(), vec![m.value])),
            }
        }
    }
    acc.into_iter()
        .map(|(m, values)| Metric::new(m.name, median(&values), &m.unit))
        .collect()
}

/// Runs one workload for `opts.seconds` and checks its outputs.
pub fn run(workload: Workload, opts: &RunOpts) -> RunResult {
    // Every workload but fleet's untraced passes is single-threaded,
    // whatever the host's core count.
    hps_core::par::set_jobs(1);
    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        if opts.traced && plain.len() > traced.len() {
            traced.push(workload.pass(opts.seed, opts.quick, Some(&mut tracer)));
            tracer.stop_recording();
        } else {
            plain.push(workload.pass(opts.seed, opts.quick, None));
        }
        let enough = if opts.traced {
            !traced.is_empty()
        } else {
            plain.len() >= MIN_PASSES
        };
        if enough && secs(started) >= opts.seconds {
            break;
        }
    }

    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let mut problems: Vec<String> = all.iter().flat_map(|p| p.problems.clone()).collect();
    if all.iter().any(|p| p.digest != all[0].digest) {
        problems.push(format!(
            "{}: passes over the same inputs simulated different outcomes",
            workload.name()
        ));
    }
    if let Some(expected) = workload.golden() {
        let actual = if opts.quick && opts.seed == DEFAULT_SEED {
            all[0].digest.clone()
        } else {
            workload.quick_digest()
        };
        if actual != expected {
            problems.push(format!(
                "{0}: default-seed quick digest differs from goldens/{0}.txt:\n{actual}",
                workload.name()
            ));
        }
    }
    if let Some(path) = &opts.trace_out {
        let written = std::fs::File::create(path)
            .and_then(|f| tracer.write_chrome(std::io::BufWriter::new(f)));
        if let Err(e) = written {
            problems.push(format!("cannot write {path}: {e}"));
        }
    }

    let (listed_names, mut metrics): (Vec<(String, &str)>, Vec<Metric>) = if opts.traced {
        (per_layer(), traced_metrics(&plain, &traced))
    } else {
        let end_to_end = END_TO_END.map(|(n, u)| (n.to_string(), u)).to_vec();
        (end_to_end, untraced_metrics(&plain))
    };
    let mut listed = Vec::new();
    for (name, unit) in &listed_names {
        match metrics.iter().position(|m| &m.name == name) {
            Some(i) if metrics[i].value.is_finite() => listed.push(metrics.remove(i)),
            _ => {
                problems.push(format!(
                    "{}: metric {name} was not measured",
                    workload.name()
                ));
                listed.push(Metric::new(name.as_str(), f64::NAN, unit));
            }
        }
    }
    for p in &problems {
        eprintln!("hpsbench: {p}");
    }
    RunResult {
        workload: workload.name().to_string(),
        seed: opts.seed,
        traced: opts.traced,
        correct: problems.is_empty(),
        attempted: all.iter().map(|p| p.ops).sum(),
        failed: all.iter().map(|p| p.failed).sum(),
        listed,
        extra: metrics,
    }
}

/// The end-to-end metrics of an untraced run. Interference from other
/// work on a shared machine only ever adds time, so the fastest of a run's
/// identical passes estimates the simulator's own cost best: across runs
/// it moved about half as much as the median pass did (README, "Noise").
/// Set-up time is the median of the passes' set-ups. Peak RSS is read
/// after the first pass: later passes only add allocator fragmentation,
/// and how many of them fit in a run depends on the host's speed.
fn untraced_metrics(plain: &[Pass]) -> Vec<Metric> {
    let setups: Vec<f64> = plain.iter().map(|p| p.setup_s).collect();
    let fastest_wall = plain.iter().map(|p| p.wall_s).fold(f64::INFINITY, f64::min);
    let best_rate = plain
        .iter()
        .map(|p| p.requests as f64 / p.timed_s)
        .fold(0.0, f64::max);
    let rss_kib = plain[0].rss_kib;
    let mut metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("wall_s", fastest_wall, "s"),
        Metric::new("req_per_s", best_rate, "1/s"),
        Metric::new("peak_rss_mib", rss_kib as f64 / 1024.0, "MiB"),
    ];
    metrics.extend(medians(plain.iter()));
    metrics
}

fn traced_metrics(plain: &[Pass], traced: &[Pass]) -> Vec<Metric> {
    let mut profile = ProfileTotals::default();
    let mut allocs = AllocCount::default();
    let (mut gen_requests, mut gen_s, mut requests) = (0, 0.0, 0);
    for p in traced {
        if let Some(t) = &p.profile {
            profile.merge(t);
        }
        allocs.add(p.allocs);
        gen_requests += p.generated.0;
        gen_s += p.generated.1;
        requests += p.requests;
    }
    let timed = |passes: &[Pass]| median(&passes.iter().map(|p| p.timed_s).collect::<Vec<_>>());
    let kreq = requests as f64 / 1000.0;
    let mut metrics = if profile.sampled > 0 {
        profile.metrics()
    } else {
        Vec::new()
    };
    metrics.extend([
        Metric::new(
            "workloads.next_request_ns",
            gen_s * 1e9 / gen_requests as f64,
            "ns",
        ),
        Metric::new(
            "alloc.allocs_per_kreq",
            allocs.allocs as f64 / kreq,
            "count",
        ),
        Metric::new(
            "alloc.kib_per_kreq",
            allocs.bytes as f64 / 1024.0 / kreq,
            "KiB",
        ),
        Metric::new(
            "trace.overhead_frac",
            timed(traced) / timed(plain) - 1.0,
            "ratio",
        ),
    ]);
    metrics.extend(medians(traced.iter()));
    metrics
}
