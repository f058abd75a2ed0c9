//! Measurements collected over one trace replay.

use core::fmt;
use hps_core::SimDuration;
use hps_ftl::{FtlStats, SpaceAccounting};
use hps_nand::WearStats;
use hps_obs::{LogHistogram, MetricsRegistry};
use std::cell::OnceCell;

/// Maximum number of raw response-time samples retained per replay.
///
/// The largest paper trace (Camera, Table III) has 35,131 requests, so
/// every paper-scale replay stays below this cap and keeps *exact*
/// percentiles from the full sample vector — byte-identical to the
/// uncapped behaviour. Scaled streaming replays (`--scale N`) exceed the
/// cap; beyond it, new samples feed only the constant-size
/// [`LogHistogram`] accumulator and percentiles switch to its bucketed
/// approximation, keeping replay memory independent of trace length.
pub const RESPONSE_SAMPLE_CAP: usize = 1 << 16;

/// Everything the paper's evaluation reports about one (trace, scheme)
/// replay: mean response time (Fig. 8), space utilization (Fig. 9), the
/// NoWait ratio and service times (Table IV), and the GC/wear/power
/// counters used by the ablations.
#[derive(Clone, Debug, Default)]
pub struct ReplayMetrics {
    /// Trace that was replayed.
    pub trace_name: String,
    /// Scheme label (`"4PS"`, `"8PS"`, `"HPS"`).
    pub scheme: String,
    /// Service times in milliseconds (finish − service start).
    pub service_ms: LogHistogram,
    /// Requests that found the device idle on arrival.
    pub nowait_requests: u64,
    /// Total requests replayed.
    pub total_requests: u64,
    /// Read requests replayed.
    pub reads: u64,
    /// Write requests replayed.
    pub writes: u64,
    /// FTL operation counters at the end of the replay.
    pub ftl: FtlStats,
    /// Space utilization accounting (Fig. 9's metric).
    pub space: SpaceAccounting,
    /// Erase-count distribution at the end of the replay.
    pub wear: WearStats,
    /// Times the device entered low-power mode.
    pub mode_switches: u64,
    /// Simulated time spent asleep.
    pub time_asleep: SimDuration,
    /// Idle-time GC passes performed between requests.
    pub idle_gc_passes: u64,
    /// Write chunks that spilled into the other page-size pool under
    /// capacity pressure (HPS only).
    pub pool_spills: u64,
    /// Raw response-time samples in milliseconds (for percentiles and the
    /// Fig. 5 distributions); same order as the replayed records, capped
    /// at [`RESPONSE_SAMPLE_CAP`] entries. Mutate only through
    /// [`ReplayMetrics::push_response_sample`] so the sorted cache and the
    /// histogram stay coherent.
    pub(crate) response_samples_ms: Vec<f64>,
    /// Constant-size accumulator fed with *every* response sample
    /// (finish − arrival) — the source of the mean, of percentiles once
    /// the raw sample vector hits its cap, and of what
    /// [`ReplayMetrics::to_registry`] exports.
    pub(crate) response_hist: LogHistogram,
    /// Lazily sorted copy of the samples, built on the first percentile
    /// query and invalidated on push — percentile calls used to clone and
    /// re-sort the whole sample vector every time.
    pub(crate) sorted_cache: OnceCell<Vec<f64>>,
}

impl ReplayMetrics {
    /// Mean response time in milliseconds — the Fig. 8 metric.
    pub fn mean_response_ms(&self) -> f64 {
        self.response_hist.mean()
    }

    /// Mean service time in milliseconds.
    pub fn mean_service_ms(&self) -> f64 {
        self.service_ms.mean()
    }

    /// Fraction of requests served without waiting, in percent
    /// (Table IV's *NoWait Req. Ratio*).
    pub fn nowait_pct(&self) -> f64 {
        if self.total_requests == 0 {
            0.0
        } else {
            100.0 * self.nowait_requests as f64 / self.total_requests as f64
        }
    }

    /// Space utilization in `[0, 1]` — the Fig. 9 metric.
    pub fn space_utilization(&self) -> f64 {
        self.space.utilization()
    }

    /// Response-time percentile in milliseconds (`q` in `[0, 1]`); `None`
    /// before any request completed.
    ///
    /// Exact (order statistics over the full sample vector) while the
    /// replay stays under [`RESPONSE_SAMPLE_CAP`] samples — every
    /// paper-scale trace does. Beyond the cap the raw vector is frozen and
    /// this falls back to the log-histogram's bucketed approximation.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn response_percentile_ms(&self, q: f64) -> Option<f64> {
        if self.response_hist.count() > self.response_samples_ms.len() as u64 {
            return self.response_hist.quantile(q);
        }
        let sorted = self.sorted_cache.get_or_init(|| {
            let mut samples = self.response_samples_ms.clone();
            samples.sort_by(f64::total_cmp);
            samples
        });
        hps_core::stats::quantile_sorted(sorted, q)
    }

    /// Appends one response-time sample (milliseconds). The histogram
    /// accumulator always sees the sample; the raw vector (and its sorted
    /// percentile cache) only grows while under [`RESPONSE_SAMPLE_CAP`].
    pub fn push_response_sample(&mut self, ms: f64) {
        self.response_hist.observe(ms);
        if self.response_samples_ms.len() < RESPONSE_SAMPLE_CAP {
            self.response_samples_ms.push(ms);
            self.sorted_cache.take();
        }
    }

    /// The raw response-time samples, in replay order (truncated at
    /// [`RESPONSE_SAMPLE_CAP`] for scaled replays).
    pub fn response_samples(&self) -> &[f64] {
        &self.response_samples_ms
    }

    /// The constant-size response-time accumulator fed with every sample,
    /// including those past the raw-sample cap.
    pub fn response_histogram(&self) -> &LogHistogram {
        &self.response_hist
    }

    /// Exports everything this struct reports into a flat
    /// [`MetricsRegistry`] — the bridge between the bespoke per-replay
    /// counters and the cross-layer telemetry namespace.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        registry.add("emmc.requests", self.total_requests);
        registry.add("emmc.requests.read", self.reads);
        registry.add("emmc.requests.write", self.writes);
        registry.add("emmc.requests.nowait", self.nowait_requests);
        registry.add("emmc.gc.idle_passes", self.idle_gc_passes);
        registry.add("emmc.pool_spills", self.pool_spills);
        registry.add("power.mode_switches", self.mode_switches);
        registry.add("power.time_asleep_ms", self.time_asleep.as_ms());
        registry.add("ftl.lifetime.host_programs", self.ftl.host_programs);
        registry.add("ftl.lifetime.gc_programs", self.ftl.gc_programs);
        registry.add("ftl.lifetime.gc_reads", self.ftl.gc_reads);
        registry.add("ftl.lifetime.gc_runs", self.ftl.gc_runs);
        registry.add("ftl.lifetime.erases", self.ftl.erases);
        registry.add(
            "ftl.space.data_written_bytes",
            self.space.data_written().as_u64(),
        );
        registry.add(
            "ftl.space.flash_consumed_bytes",
            self.space.flash_consumed().as_u64(),
        );
        self.wear.record_into(&mut registry, "nand.wear");
        // Merge the always-fed accumulator rather than re-observing the
        // raw vector: identical under the sample cap (same counts, same
        // sequentially accumulated sum), and still complete beyond it.
        let response = registry.histogram("emmc.response_ms");
        registry.merge_histogram(response, &self.response_hist);
        registry
    }

    /// Median (p50) response time in milliseconds; `0.0` when empty.
    pub fn p50_response_ms(&self) -> f64 {
        self.response_percentile_ms(0.5).unwrap_or(0.0)
    }

    /// Tail (p99) response time in milliseconds; `0.0` when empty.
    pub fn p99_response_ms(&self) -> f64 {
        self.response_percentile_ms(0.99).unwrap_or(0.0)
    }

    /// Relative mean-response-time reduction versus a baseline, in percent:
    /// `100 × (base − self) / base`. Positive means this replay is faster.
    pub fn mrt_reduction_vs(&self, baseline: &ReplayMetrics) -> f64 {
        let base = baseline.mean_response_ms();
        if base == 0.0 {
            0.0
        } else {
            100.0 * (base - self.mean_response_ms()) / base
        }
    }

    /// Relative space-utilization improvement versus a baseline, in percent.
    pub fn utilization_gain_vs(&self, baseline: &ReplayMetrics) -> f64 {
        let base = baseline.space_utilization();
        if base == 0.0 {
            0.0
        } else {
            100.0 * (self.space_utilization() - base) / base
        }
    }
}

impl fmt::Display for ReplayMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: MRT={:.3}ms serv={:.3}ms nowait={:.0}% util={:.1}% gc_runs={}",
            self.trace_name,
            self.scheme,
            self.mean_response_ms(),
            self.mean_service_ms(),
            self.nowait_pct(),
            self.space_utilization() * 100.0,
            self.ftl.gc_runs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_responses(values: &[f64]) -> ReplayMetrics {
        let mut m = ReplayMetrics::default();
        for &v in values {
            m.push_response_sample(v);
        }
        m.total_requests = values.len() as u64;
        m
    }

    #[test]
    fn nowait_pct() {
        let mut m = with_responses(&[1.0, 2.0, 3.0, 4.0]);
        m.nowait_requests = 3;
        assert!((m.nowait_pct() - 75.0).abs() < 1e-12);
        assert_eq!(ReplayMetrics::default().nowait_pct(), 0.0);
    }

    #[test]
    fn mrt_reduction() {
        let fast = with_responses(&[1.0]);
        let slow = with_responses(&[4.0]);
        assert!((fast.mrt_reduction_vs(&slow) - 75.0).abs() < 1e-12);
        assert!((slow.mrt_reduction_vs(&fast) + 300.0).abs() < 1e-12);
        assert_eq!(fast.mrt_reduction_vs(&ReplayMetrics::default()), 0.0);
    }

    #[test]
    fn percentiles_from_samples() {
        let mut m = ReplayMetrics::default();
        for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
            m.push_response_sample(v);
        }
        assert_eq!(m.p50_response_ms(), 3.0);
        assert!(m.p99_response_ms() > 4.0);
        assert_eq!(ReplayMetrics::default().p50_response_ms(), 0.0);
    }

    #[test]
    fn percentile_cache_invalidates_on_push() {
        let mut m = ReplayMetrics::default();
        m.push_response_sample(10.0);
        assert_eq!(m.p50_response_ms(), 10.0); // populates the cache
        m.push_response_sample(0.0);
        m.push_response_sample(0.0);
        assert_eq!(m.p50_response_ms(), 0.0); // must see the new samples
    }

    #[test]
    fn registry_export_matches_counters() {
        let mut m = with_responses(&[1.0, 2.0]);
        m.reads = 1;
        m.writes = 1;
        let reg = m.to_registry();
        assert_eq!(reg.counter_value("emmc.requests"), Some(2));
        assert_eq!(reg.counter_value("emmc.requests.read"), Some(1));
        assert_eq!(reg.histogram_value("emmc.response_ms").unwrap().count(), 2);
    }

    #[test]
    fn sample_cap_freezes_raw_vector_but_feeds_histogram() {
        let mut m = ReplayMetrics::default();
        for i in 0..(RESPONSE_SAMPLE_CAP + 100) {
            m.push_response_sample(i as f64);
        }
        assert_eq!(m.response_samples().len(), RESPONSE_SAMPLE_CAP);
        assert_eq!(
            m.response_histogram().count(),
            (RESPONSE_SAMPLE_CAP + 100) as u64
        );
        // Beyond the cap, percentiles come from the histogram — which saw
        // every sample, so the max must reflect the post-cap observations.
        assert_eq!(
            m.response_histogram().max(),
            Some((RESPONSE_SAMPLE_CAP + 99) as f64)
        );
        let p100 = m.response_percentile_ms(1.0).unwrap();
        assert!(p100 >= (RESPONSE_SAMPLE_CAP - 1) as f64);
    }

    #[test]
    fn under_cap_percentiles_stay_exact() {
        let mut m = ReplayMetrics::default();
        for v in [5.0, 1.0, 3.0] {
            m.push_response_sample(v);
        }
        // Exact order statistics, not a bucketed approximation.
        assert_eq!(m.response_percentile_ms(0.0), Some(1.0));
        assert_eq!(m.response_percentile_ms(1.0), Some(5.0));
        assert_eq!(m.p50_response_ms(), 3.0);
    }

    #[test]
    fn registry_export_survives_cap_overflow() {
        let mut m = ReplayMetrics::default();
        for i in 0..(RESPONSE_SAMPLE_CAP + 7) {
            m.push_response_sample((i % 10) as f64);
        }
        let reg = m.to_registry();
        assert_eq!(
            reg.histogram_value("emmc.response_ms").unwrap().count(),
            (RESPONSE_SAMPLE_CAP + 7) as u64
        );
    }

    #[test]
    fn utilization_gain() {
        let mut a = ReplayMetrics::default();
        a.space
            .record_write(hps_core::Bytes::kib(20), hps_core::Bytes::kib(20));
        let mut b = ReplayMetrics::default();
        b.space
            .record_write(hps_core::Bytes::kib(20), hps_core::Bytes::kib(24));
        // a: 100%, b: 83.3% -> a is 20% better than b.
        assert!((a.utilization_gain_vs(&b) - 20.0).abs() < 1e-9);
    }
}
