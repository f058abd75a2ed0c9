//! What a pass simulated and where its host time went: the pooled
//! simulated outcome (the source of the `sim.*`, `ftl.*` and `emmc.*`
//! metrics and of the correctness digest) and the profiler totals (the
//! source of the `prof.*` metrics).

use std::fmt::Write as _;

use hps_emmc::ReplayMetrics;
use hps_fleet::{FleetOutcome, DEFAULT_GEOMETRIES};
use hps_obs::profile::{self, slot_label, ProfileReport, N_SLOTS};
use hps_obs::LogHistogram;

use crate::report::Metric;

/// 64-bit FNV-1a: a stable content hash for digests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Simulated outcome pooled over every replay of a pass.
#[derive(Clone, Debug, Default)]
pub struct SimOutcome {
    pub requests: u64,
    pub reads: u64,
    pub writes: u64,
    pub nowait: u64,
    pub host_programs: u64,
    pub gc_programs: u64,
    pub gc_reads: u64,
    pub gc_runs: u64,
    pub erases: u64,
    /// Pages the erased blocks held: erases × pages per block.
    pub erased_pages: u64,
    pub pool_spills: u64,
    pub idle_gc_passes: u64,
    pub data_written: u64,
    pub flash_consumed: u64,
    pub wear_total: u64,
    pub wear_max: u64,
    pub response: LogHistogram,
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl SimOutcome {
    /// Adds one replay on a device with `pages_per_block` pages per block.
    pub fn add_replay(&mut self, m: &ReplayMetrics, pages_per_block: u64) {
        self.requests += m.total_requests;
        self.reads += m.reads;
        self.writes += m.writes;
        self.nowait += m.nowait_requests;
        self.host_programs += m.ftl.host_programs;
        self.gc_programs += m.ftl.gc_programs;
        self.gc_reads += m.ftl.gc_reads;
        self.gc_runs += m.ftl.gc_runs;
        self.erases += m.ftl.erases;
        self.erased_pages += m.ftl.erases * pages_per_block;
        self.pool_spills += m.pool_spills;
        self.idle_gc_passes += m.idle_gc_passes;
        self.data_written += m.space.data_written().as_u64();
        self.flash_consumed += m.space.flash_consumed().as_u64();
        self.wear_total += m.wear.total();
        self.wear_max = self.wear_max.max(m.wear.max());
        self.response.merge(m.response_histogram());
    }

    /// The pooled outcome of a fleet run: counters from the tree-merged
    /// snapshot, wear and responses from the accumulator.
    pub fn from_fleet(out: &FleetOutcome) -> Self {
        let reg = out.snapshot.registry();
        let counter = |name: &str| reg.counter_value(name).unwrap_or(0);
        let erased_pages = out
            .accum
            .groups
            .iter()
            .map(|((_, geometry), g)| {
                let ppb = DEFAULT_GEOMETRIES
                    .iter()
                    .find(|c| c.label == *geometry)
                    .map_or(0, |c| c.pages_per_block as u64);
                g.erases * ppb
            })
            .sum();
        SimOutcome {
            requests: out.accum.requests,
            reads: out.accum.reads,
            writes: out.accum.writes,
            nowait: out.accum.nowait,
            host_programs: out.accum.host_programs,
            gc_programs: out.accum.gc_programs,
            gc_reads: counter("ftl.lifetime.gc_reads"),
            gc_runs: out.accum.gc_runs,
            erases: out.accum.erases,
            erased_pages,
            pool_spills: counter("emmc.pool_spills"),
            idle_gc_passes: counter("emmc.gc.idle_passes"),
            data_written: counter("ftl.space.data_written_bytes"),
            flash_consumed: counter("ftl.space.flash_consumed_bytes"),
            wear_total: out.accum.wear_total,
            wear_max: out.accum.wear_max,
            response: out.accum.pooled_response.clone(),
        }
    }

    /// Canonical text of everything simulated; byte-equal outcomes are
    /// equal simulations. The goldens are this text.
    pub fn digest(&self) -> String {
        let mut s = String::new();
        for (name, v) in [
            ("requests", self.requests),
            ("reads", self.reads),
            ("writes", self.writes),
            ("nowait", self.nowait),
            ("host_programs", self.host_programs),
            ("gc_programs", self.gc_programs),
            ("gc_reads", self.gc_reads),
            ("gc_runs", self.gc_runs),
            ("erases", self.erases),
            ("erased_pages", self.erased_pages),
            ("pool_spills", self.pool_spills),
            ("idle_gc_passes", self.idle_gc_passes),
            ("data_written", self.data_written),
            ("flash_consumed", self.flash_consumed),
            ("wear_total", self.wear_total),
            ("wear_max", self.wear_max),
            ("response_count", self.response.count()),
        ] {
            let _ = writeln!(s, "{name}={v}");
        }
        let _ = writeln!(s, "response_sum_ms={:?}", self.response.sum());
        let buckets: Vec<String> = self
            .response
            .bucket_counts()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, c)| format!("{i}:{c}"))
            .collect();
        let _ = writeln!(s, "response_buckets={}", buckets.join(","));
        s
    }

    /// The `sim.*`, `ftl.*` and `emmc.*` metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let reclaim = if self.erased_pages == 0 {
            1.0
        } else {
            1.0 - per(self.gc_programs, self.erased_pages)
        };
        let waf = if self.host_programs == 0 {
            1.0
        } else {
            per(self.host_programs + self.gc_programs, self.host_programs)
        };
        vec![
            Metric::new("sim.resp_mean_ms", self.response.mean(), "sim_ms"),
            Metric::new(
                "sim.resp_p99_ms",
                self.response.quantile(0.99).unwrap_or(0.0),
                "sim_ms",
            ),
            Metric::new("sim.waf", waf, "ratio"),
            Metric::new(
                "ftl.host_programs_per_req",
                per(self.host_programs, self.requests),
                "count",
            ),
            Metric::new(
                "ftl.gc_programs_per_req",
                per(self.gc_programs, self.requests),
                "count",
            ),
            Metric::new(
                "ftl.gc_reads_per_req",
                per(self.gc_reads, self.requests),
                "count",
            ),
            Metric::new(
                "ftl.erases_per_kreq",
                1000.0 * per(self.erases, self.requests),
                "count",
            ),
            Metric::new("ftl.gc_reclaim_ratio", reclaim, "ratio"),
            Metric::new("emmc.nowait_frac", per(self.nowait, self.requests), "ratio"),
            Metric::new(
                "emmc.pool_spills_per_kreq",
                1000.0 * per(self.pool_spills, self.requests),
                "count",
            ),
            Metric::new("emmc.idle_gc_passes", self.idle_gc_passes as f64, "count"),
        ]
    }
}

/// The profiler's measurements in numbers that survive a trip through a
/// child process's JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileTotals {
    pub sampled: u64,
    pub ticks_total: u64,
    pub ticks: [u64; N_SLOTS],
    pub entries: [u64; N_SLOTS],
    pub ticks_per_ns: f64,
}

/// The profiler's stride outside traced passes (its built-in default).
const UNTRACED_STRIDE: u32 = 64;

/// Runs `f` with the calling thread's profiler sampling every request.
pub fn profiled<R>(f: impl FnOnce() -> R) -> (R, ProfileTotals) {
    profile::set_stride(1);
    profile::reset();
    let result = f();
    let totals = ProfileTotals::from_report(&profile::report());
    profile::set_stride(UNTRACED_STRIDE);
    profile::reset();
    (result, totals)
}

impl ProfileTotals {
    pub fn from_report(r: &ProfileReport) -> Self {
        ProfileTotals {
            sampled: r.sampled,
            ticks_total: r.ticks_total,
            ticks: r.phase_ticks,
            entries: r.phase_entries,
            ticks_per_ns: profile::ticks_per_ns(),
        }
    }

    pub fn merge(&mut self, other: &ProfileTotals) {
        if self.ticks_per_ns == 0.0 {
            self.ticks_per_ns = other.ticks_per_ns;
        }
        self.sampled += other.sampled;
        self.ticks_total += other.ticks_total;
        for s in 0..N_SLOTS {
            self.ticks[s] += other.ticks[s];
            self.entries[s] += other.entries[s];
        }
    }

    /// `prof.total_ns_per_req`, then each slot's share and entries per
    /// request.
    pub fn metrics(&self) -> Vec<Metric> {
        let total_ns = per(self.ticks_total, self.sampled) / self.ticks_per_ns;
        let mut out = vec![Metric::new("prof.total_ns_per_req", total_ns, "ns")];
        out.extend((0..N_SLOTS).map(|s| {
            let share = 100.0 * per(self.ticks[s], self.ticks_total);
            Metric::new(format!("prof.{}.pct", slot_label(s)), share, "%")
        }));
        out.extend((0..N_SLOTS).map(|s| {
            Metric::new(
                format!("prof.{}.entries_per_req", slot_label(s)),
                per(self.entries[s], self.sampled),
                "count",
            )
        }));
        out
    }
}
