//! The three device-replay workloads: `paper_replay`, `gc_steady` and
//! `read_warm`. Each pass builds fresh devices (set-up) and streams
//! generated requests through `EmmcDevice::replay_stream` (timed).

use std::time::Instant;

use hps_core::{Bytes, Direction, IoRequest, SimDuration, SimTime};
use hps_emmc::{ChannelMode, DeviceConfig, EmmcDevice, PowerConfig, SchemeKind};
use hps_obs::LogHistogram;
use hps_trace::TraceSource;
use hps_workloads::{all_combos, all_individual, by_name, stream, TraceStream};

use super::{secs, size, vmhwm_kib, Pass};
use crate::alloc::{counted, AllocCount};
use crate::outcome::{profiled, ProfileTotals, SimOutcome};
use crate::report::Metric;
use crate::spans::Tracer;

const PAGE: u64 = 4096;

/// Pages per block of the Table V devices.
const TABLE_V_PAGES_PER_BLOCK: u64 = 1024;

/// `paper_replay`: generation epochs per profile in one pass (25 profiles,
/// about 0.72M requests), and the per-profile request cap of `--quick`.
const PAPER_SCALE: u64 = 3;
const PAPER_QUICK_REQUESTS: u64 = 300;

/// `gc_steady`: the write-heavy mix, the scaled device geometry (256 MiB),
/// and the two configurations. HPS runs at a lower utilization because
/// its 8 KiB pool holds only part of each plane: at 0.50 some seeds
/// exhaust both pools, and at 0.70 most do.
const GC_MIX: [&str; 6] = [
    "Twitter",
    "Messaging",
    "Installing",
    "GoogleMaps",
    "Music/FB",
    "Radio",
];
const GC_GEOMETRY: (usize, usize) = (128, 64);
const GC_CONFIGS: [(SchemeKind, f64); 2] = [(SchemeKind::Ps4, 0.70), (SchemeKind::Hps, 0.40)];
const GC_REQUESTS: [u64; 2] = [150_000, 1_500];

/// `read_warm`: the streamed profile, the 8 MiB read cache (the middle
/// size Implication 3 sweeps), the preconditioned window, and requests
/// per pass.
const WARM_PROFILE: &str = "Movie";
const WARM_CACHE_MIB: u64 = 8;
const WARM_WINDOW_PAGES: [u64; 2] = [(1 << 30) / PAGE, (64 << 20) / PAGE];
const WARM_REQUESTS: [u64; 2] = [400_000, 2_000];

/// The profile of a paper workload name this file names.
fn profile(name: &str) -> hps_workloads::AppProfile {
    by_name(name).unwrap_or_else(|| panic!("{name} is a paper workload"))
}

/// Yields at most `limit` requests of a source.
struct Take<S> {
    inner: S,
    left: u64,
}

impl<S: TraceSource> TraceSource for Take<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.inner.next_request()
    }
}

/// Round-robin merge of several streams. Each request advances one shared
/// clock by its own stream's inter-arrival gap, so arrivals stay monotone.
struct Mix {
    streams: Vec<TraceStream>,
    last: Vec<SimTime>,
    turn: usize,
    clock: SimTime,
}

impl Mix {
    fn new(names: &[&str], seed: u64, requests: u64) -> Mix {
        let per_stream = requests.div_ceil(names.len() as u64) + 1;
        let streams: Vec<TraceStream> = names
            .iter()
            .map(|n| {
                let p = profile(n);
                let scale = per_stream.div_ceil(p.num_reqs);
                stream(&p, seed, scale)
            })
            .collect();
        Mix {
            last: vec![SimTime::ZERO; streams.len()],
            streams,
            turn: 0,
            clock: SimTime::ZERO,
        }
    }
}

impl TraceSource for Mix {
    fn name(&self) -> &str {
        "gc_steady-mix"
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        let s = self.turn;
        self.turn = (self.turn + 1) % self.streams.len();
        let mut req = self.streams[s].next_request()?;
        self.clock += req.arrival.saturating_since(self.last[s]);
        self.last[s] = req.arrival;
        req.arrival = self.clock;
        Some(req)
    }
}

/// Folds a source into a window of `span_pages` logical pages starting at
/// LPN 0 (as the fleet engine folds traces), shifts its arrivals to start
/// at `start`, renumbers it, and stops after `limit` requests.
struct Folded<S> {
    inner: S,
    start: SimDuration,
    span_pages: u64,
    limit: u64,
    issued: u64,
}

impl<S: TraceSource> Folded<S> {
    fn new(inner: S, start: SimTime, span_pages: u64, limit: u64) -> Self {
        Folded {
            inner,
            start: start.saturating_since(SimTime::ZERO),
            span_pages: span_pages.max(1),
            limit,
            issued: 0,
        }
    }
}

impl<S: TraceSource> TraceSource for Folded<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        if self.issued >= self.limit {
            return None;
        }
        let mut req = self.inner.next_request()?;
        req.id = self.issued;
        req.arrival += self.start;
        req.size = req.size.min(Bytes::new(self.span_pages * PAGE));
        let window = self.span_pages - req.size.as_u64().div_ceil(PAGE) + 1;
        req.lba = ((req.lba / PAGE) % window) * PAGE;
        self.issued += 1;
        Some(req)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.limit)
    }
}

/// Writes LPNs `[0, span_pages)` once, sequentially, in 512 KiB requests
/// all arriving at time zero; returns when the device goes idle, the
/// arrival time for what follows.
fn precondition(device: &mut EmmcDevice, span_pages: u64) -> hps_core::Result<SimTime> {
    const CHUNK_PAGES: u64 = 128;
    let mut lpn = 0;
    while lpn < span_pages {
        let pages = CHUNK_PAGES.min(span_pages - lpn);
        let req = IoRequest::new(
            lpn / CHUNK_PAGES,
            SimTime::ZERO,
            Direction::Write,
            Bytes::new(pages * PAGE),
            lpn * PAGE,
        );
        device.submit(&req)?;
        lpn += pages;
    }
    Ok(device.busy_until())
}

/// Times a source's `next_request` calls and, from the gap between one
/// call's return and the next call, each request's `submit` (plus
/// `replay_stream`'s per-request bookkeeping). Keeps the spans of every
/// 64th request.
struct Timed<'a, S> {
    inner: S,
    tracer: &'a mut Tracer,
    parent: Option<usize>,
    /// When the previous request was handed out, and its span id.
    handed: Option<(Instant, Option<u64>)>,
    generated: u64,
    generate_s: f64,
    submit_ns: LogHistogram,
}

impl<S: TraceSource> TraceSource for Timed<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        let t0 = Instant::now();
        if let Some((handed, id)) = self.handed.take() {
            self.submit_ns
                .observe(t0.duration_since(handed).as_nanos() as f64);
            if id.is_some() {
                self.tracer.span("emmc.submit", handed, t0, self.parent, id);
            }
        }
        let req = self.inner.next_request();
        let t1 = Instant::now();
        if req.is_some() {
            self.generated += 1;
            self.generate_s += t1.duration_since(t0).as_secs_f64();
            let id = self.tracer.sample_request();
            if id.is_some() {
                self.tracer
                    .span("workloads.next_request", t0, t1, self.parent, id);
            }
            self.handed = Some((t1, id));
        }
        req
    }
}

/// Accumulates one pass of device replays.
struct Replayer<'t> {
    tracer: Option<&'t mut Tracer>,
    pass_span: Option<usize>,
    started: Instant,
    setup_s: f64,
    timed_s: f64,
    new_s: f64,
    ops: u64,
    failed: u64,
    problems: Vec<String>,
    sim: SimOutcome,
    profile: ProfileTotals,
    allocs: AllocCount,
    generated: (u64, f64),
    submit_ns: LogHistogram,
    extra: Vec<Metric>,
}

impl<'t> Replayer<'t> {
    fn new(mut tracer: Option<&'t mut Tracer>) -> Self {
        let pass_span = tracer.as_deref_mut().and_then(|t| t.open("pass", None));
        Replayer {
            tracer,
            pass_span,
            started: Instant::now(),
            setup_s: 0.0,
            timed_s: 0.0,
            new_s: 0.0,
            ops: 0,
            failed: 0,
            problems: Vec::new(),
            sim: SimOutcome::default(),
            profile: ProfileTotals::default(),
            allocs: AllocCount::default(),
            generated: (0, 0.0),
            submit_ns: LogHistogram::new(),
            extra: Vec::new(),
        }
    }

    /// Builds a device from `cfg` and has `prepare` precondition it and
    /// make the source (set-up), then replays the source (timed). Returns
    /// the replayed device for inspection.
    fn replay<S: TraceSource>(
        &mut self,
        cfg: &DeviceConfig,
        pages_per_block: u64,
        prepare: impl FnOnce(&mut EmmcDevice) -> hps_core::Result<S>,
    ) -> Option<EmmcDevice> {
        self.ops += 1;
        let t0 = Instant::now();
        let built = EmmcDevice::new(cfg.clone());
        let t_new = Instant::now();
        let prepared = built.and_then(|mut device| Ok((prepare(&mut device)?, device)));
        let t1 = Instant::now();
        self.new_s += t_new.duration_since(t0).as_secs_f64();
        self.setup_s += t1.duration_since(t0).as_secs_f64();
        if let Some(t) = self.tracer.as_deref_mut() {
            t.span("emmc.new", t0, t_new, self.pass_span, None);
            t.span("prepare", t_new, t1, self.pass_span, None);
        }
        let (mut source, mut device) = match prepared {
            Ok(ready) => ready,
            Err(e) => {
                self.fail(format!("set-up failed: {e}"));
                return None;
            }
        };
        let replayed = match self.tracer.as_deref_mut() {
            None => device.replay_stream(&mut source),
            Some(tracer) => {
                let parent = tracer.open("emmc.replay_stream", self.pass_span);
                let mut timed = Timed {
                    inner: source,
                    tracer,
                    parent,
                    handed: None,
                    generated: 0,
                    generate_s: 0.0,
                    submit_ns: LogHistogram::new(),
                };
                let ((result, allocs), profile) =
                    profiled(|| counted(|| device.replay_stream(&mut timed)));
                self.profile.merge(&profile);
                self.allocs.add(allocs);
                self.generated.0 += timed.generated;
                self.generated.1 += timed.generate_s;
                self.submit_ns.merge(&timed.submit_ns);
                timed.tracer.close(parent);
                result
            }
        };
        self.timed_s += secs(t1);
        match replayed {
            Ok(metrics) => {
                self.sim.add_replay(&metrics, pages_per_block);
                Some(device)
            }
            Err(e) => {
                self.fail(format!("replay failed: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn finish(mut self) -> Pass {
        let traced = self.tracer.is_some();
        if let Some(t) = self.tracer.as_deref_mut() {
            t.close(self.pass_span);
        }
        let mut metrics = self.sim.metrics();
        metrics.extend(self.extra);
        if traced {
            let q = |q: f64| self.submit_ns.quantile(q).unwrap_or(0.0);
            metrics.extend([
                Metric::new("emmc.new_us", self.new_s * 1e6 / self.ops as f64, "us"),
                Metric::new("emmc.submit_ns.p50", q(0.50), "ns"),
                Metric::new("emmc.submit_ns.p99", q(0.99), "ns"),
                Metric::new("emmc.submit_ns.p999", q(0.999), "ns"),
                Metric::new("emmc.submit_ns.n", self.submit_ns.count() as f64, "count"),
                Metric::new("workloads.generate_s", self.generated.1, "s"),
            ]);
        }
        Pass {
            setup_s: self.setup_s,
            timed_s: self.timed_s,
            wall_s: secs(self.started),
            requests: self.sim.requests,
            ops: self.ops,
            failed: self.failed,
            problems: self.problems,
            digest: self.sim.digest(),
            rss_kib: vmhwm_kib(),
            profile: traced.then_some(self.profile),
            allocs: self.allocs,
            generated: self.generated,
            metrics,
        }
    }
}

/// `paper_replay`: all 25 Table IV/combo profiles, streamed, each on a
/// fresh Table V HPS device with a 512 KiB write cache and interleaved
/// channels: the paper's write-dominated traffic on a device that never
/// fills.
pub fn paper_replay(seed: u64, quick: bool, tracer: Option<&mut Tracer>) -> Pass {
    let mut cfg = DeviceConfig::table_v(SchemeKind::Hps).with_write_cache(Bytes::kib(512));
    cfg.channel_mode = ChannelMode::Interleaved;
    let (scale, limit) = if quick {
        (1, PAPER_QUICK_REQUESTS)
    } else {
        (PAPER_SCALE, u64::MAX)
    };
    let mut r = Replayer::new(tracer);
    for p in all_individual().into_iter().chain(all_combos()) {
        r.replay(&cfg, TABLE_V_PAGES_PER_BLOCK, |_| {
            Ok(Take {
                inner: stream(&p, seed, scale),
                left: limit,
            })
        });
    }
    r.finish()
}

/// `gc_steady`: a write-heavy mix folded into most of a small device, so
/// garbage collection runs continuously.
pub fn gc_steady(seed: u64, quick: bool, tracer: Option<&mut Tracer>) -> Pass {
    let requests = size(GC_REQUESTS, quick);
    let mut r = Replayer::new(tracer);
    for (scheme, utilization) in GC_CONFIGS {
        let cfg = DeviceConfig::scaled(scheme, GC_GEOMETRY.0, GC_GEOMETRY.1);
        r.replay(&cfg, GC_GEOMETRY.1 as u64, |device| {
            let logical_pages = device.ftl().logical_capacity().as_u64() / PAGE;
            let span = (logical_pages as f64 * utilization) as u64;
            let start = precondition(device, span)?;
            let mix = Mix::new(&GC_MIX, seed, requests);
            Ok(Folded::new(mix, start, span, requests))
        });
    }
    r.finish()
}

/// `read_warm`: a read-dominated stream over a preconditioned window
/// larger than the device's read cache, so reads both hit and miss.
pub fn read_warm(seed: u64, quick: bool, tracer: Option<&mut Tracer>) -> Pass {
    let mut cfg =
        DeviceConfig::table_v(SchemeKind::Hps).with_read_cache(Bytes::mib(WARM_CACHE_MIB));
    cfg.power = PowerConfig::DISABLED;
    cfg.channel_mode = ChannelMode::Interleaved;
    let requests = size(WARM_REQUESTS, quick);
    let span = size(WARM_WINDOW_PAGES, quick);
    let movie = profile(WARM_PROFILE);
    let scale = requests.div_ceil(movie.num_reqs);
    let mut r = Replayer::new(tracer);
    let device = r.replay(&cfg, TABLE_V_PAGES_PER_BLOCK, |device| {
        let start = precondition(device, span)?;
        Ok(Folded::new(
            stream(&movie, seed, scale),
            start,
            span,
            requests,
        ))
    });
    if let Some(cache) = device.as_ref().and_then(EmmcDevice::read_cache) {
        r.extra.push(Metric::new(
            "emmc.readcache_hit_ratio",
            cache.hit_rate(),
            "ratio",
        ));
    }
    r.finish()
}
