//! Experiments that quantify the paper's design implications beyond the
//! Section V case study.

use crate::runner::{trace_by_name, truncate_trace, MASTER_SEED};
use hps_analysis::report::{fnum, Table};
use hps_core::{par, Bytes};
use hps_emmc::{ChannelMode, DeviceConfig, EmmcDevice, PowerConfig, SchemeKind, SlcConfig};
use hps_trace::TimingStats;

/// Implication 3: "a large size RAM buffer inside an eMMC device may not
/// be beneficial … because of a low hit rate." Sweeps a read cache across
/// sizes on workloads with different temporal localities and reports the
/// hit rate next to the trace's locality.
pub fn implication3_read_cache() -> String {
    let mut t = Table::new(&[
        "Workload",
        "Temporal loc. (%)",
        "Cache",
        "Hit rate (%)",
        "MRT (ms)",
    ]);
    let jobs: Vec<(&str, u64)> = ["Movie", "YouTube", "Facebook", "Twitter"]
        .into_iter()
        .flat_map(|name| [0u64, 1, 8, 64].map(|cache_mib| (name, cache_mib)))
        .collect();
    for row in par::par_map(jobs, |(name, cache_mib)| {
        let mut base = truncate_trace(&trace_by_name(name), 4_000);
        let locality = TimingStats::from_trace(&base).temporal_locality_pct;
        let mut cfg = DeviceConfig::table_v(SchemeKind::Ps4);
        cfg.power = PowerConfig::DISABLED;
        cfg.channel_mode = ChannelMode::Interleaved;
        if cache_mib > 0 {
            cfg = cfg.with_read_cache(Bytes::mib(cache_mib));
        }
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let mut dev = EmmcDevice::new(cfg).expect("valid config");
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let metrics = dev.replay(&mut base).expect("replay");
        let hit = dev.read_cache().map_or(0.0, |c| 100.0 * c.hit_rate());
        let label = if cache_mib == 0 {
            "none".to_string()
        } else {
            format!("{cache_mib} MiB")
        };
        vec![
            name.to_string(),
            fnum(locality, 1),
            label,
            fnum(hit, 1),
            fnum(metrics.mean_response_ms(), 3),
        ]
    }) {
        t.row(row);
    }
    format!(
        "Implication 3: read-cache hit rates track the traces' weak temporal \
         locality; growing the cache far past the working set buys little\n\n{}",
        t.render()
    )
}

/// Implication 5: serve the dominant small requests from SLC-mode fast
/// pages. Compares plain 4PS, 4PS+SLC, HPS, and HPS+SLC on small-write-
/// heavy workloads, with the capacity cost made explicit.
pub fn implication5_slc() -> String {
    let slc = SlcConfig::DEFAULT;
    let mut t = Table::new(&[
        "Workload",
        "Device",
        "MRT (ms)",
        "p99 (ms)",
        "SLC absorbed (%)",
        "Raw capacity cost",
    ]);
    let jobs: Vec<(&str, &str, SchemeKind, bool)> = ["Messaging", "Twitter", "CallIn"]
        .into_iter()
        .flat_map(|name| {
            [
                (name, "4PS", SchemeKind::Ps4, false),
                (name, "4PS+SLC", SchemeKind::Ps4, true),
                (name, "HPS", SchemeKind::Hps, false),
                (name, "HPS+SLC", SchemeKind::Hps, true),
            ]
        })
        .collect();
    for row in par::par_map(jobs, |(name, label, scheme, use_slc)| {
        let mut base = truncate_trace(&trace_by_name(name), 4_000);
        let mut cfg = DeviceConfig::table_v(scheme);
        cfg.power = PowerConfig::DISABLED;
        if use_slc {
            cfg = cfg.with_slc(slc);
        }
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let mut dev = EmmcDevice::new(cfg).expect("valid config");
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let metrics = dev.replay(&mut base).expect("replay");
        let absorbed_pct = dev.slc().map_or(0.0, |s| {
            100.0 * s.absorbed() as f64 / metrics.writes.max(1) as f64
        });
        let cost = if use_slc {
            format!("{}", slc.raw_capacity_cost())
        } else {
            "-".to_string()
        };
        vec![
            name.to_string(),
            label.to_string(),
            fnum(metrics.mean_response_ms(), 3),
            fnum(metrics.p99_response_ms(), 3),
            fnum(absorbed_pct, 1),
            cost,
        ]
    }) {
        t.row(row);
    }
    format!(
        "Implication 5: an SLC-mode region (fast pages) accelerates the dominant \
         small writes; the gain costs raw MLC capacity (2x the SLC bytes)\n\n{}",
        t.render()
    )
}

/// Endurance: Section V argues 8PS's fewer pages mean more GC and a
/// shorter lifetime. Replays a hot-write workload on scaled devices of
/// each scheme and estimates lifetime from erase counts (3,000 P/E MLC).
pub fn endurance() -> String {
    use hps_core::{Direction, IoRequest, SimDuration, SimRng, SimTime};
    use hps_trace::Trace;
    const PE_CYCLES: f64 = 3_000.0;

    // A Messaging-like hot writer: 4-12 KiB writes over a footprint that
    // wraps the scaled device several times.
    let mut rng = SimRng::seed_from(MASTER_SEED);
    let mut trace = Trace::new("HotMix");
    /// Inter-arrival gap of the synthetic hot-writer workload.
    const ARRIVAL_GAP: SimDuration = SimDuration::from_ms(2);
    let mut now = SimTime::ZERO;
    let footprint_pages = Bytes::mib(24).as_u64() / 4096;
    for id in 0..30_000u64 {
        now += ARRIVAL_GAP;
        let pages = *rng.pick(&[1u64, 1, 1, 2, 3]);
        let lba = rng.uniform_u64(footprint_pages - pages) * 4096;
        trace.push_request(IoRequest::new(
            id,
            now,
            Direction::Write,
            Bytes::kib(4 * pages),
            lba,
        ));
    }

    let mut t = Table::new(&[
        "Scheme",
        "Erases",
        "Write amp.",
        "Mean wear",
        "Evenness",
        "Est. lifetime (writes of this mix)",
    ]);
    for row in par::par_map(SchemeKind::ALL.to_vec(), |scheme| {
        let mut cfg = DeviceConfig::scaled(scheme, 64, 32); // 64 MiB
        cfg.power = PowerConfig::DISABLED;
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let mut dev = EmmcDevice::new(cfg).expect("valid config");
        let mut replayed = trace.clone();
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let metrics = dev.replay(&mut replayed).expect("replay");
        // Lifetime ∝ budgets: total P/E budget over consumption rate.
        let mean_wear = metrics.wear.mean();
        let lifetime_multiplier = if mean_wear > 0.0 {
            PE_CYCLES / mean_wear
        } else {
            f64::INFINITY
        };
        vec![
            scheme.label().to_string(),
            metrics.ftl.erases.to_string(),
            fnum(metrics.ftl.write_amplification(), 3),
            fnum(mean_wear, 2),
            fnum(metrics.wear.evenness(), 3),
            format!("{:.0}x this workload", lifetime_multiplier),
        ]
    }) {
        t.row(row);
    }
    format!(
        "Endurance (Section V's lifetime argument): more GC means more erases \
         means a shorter device life — 30,000 hot small writes on a 64 MiB \
         scaled device, 3000 P/E cycle MLC budget\n\n{}",
        t.render()
    )
}

/// The Fig. 1 stack end to end: how block-layer merging and driver packing
/// reshape an application's request stream before it reaches the device,
/// and what that does to mean response time.
pub fn stack_pipeline() -> String {
    use hps_iostack::{IoStack, StackConfig};
    let mut t = Table::new(&[
        "Workload",
        "App reqs",
        "After merge",
        "Commands",
        "Largest cmd",
        "Stacked MRT (ms)",
        "Raw MRT (ms)",
    ]);
    for row in par::par_map(vec!["CameraVideo", "Messaging", "Movie"], |name| {
        let base = truncate_trace(&trace_by_name(name), 3_000);

        // Through the stack...
        let mut cfg = DeviceConfig::table_v(SchemeKind::Hps);
        cfg.power = PowerConfig::DISABLED;
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let mut dev = EmmcDevice::new(cfg.clone()).expect("valid config");
        let mut stack = IoStack::new(StackConfig::default());
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let stacked = stack.run(&base, &mut dev).expect("stack run");
        let stats = stack.stats();
        let stacked_stats = TimingStats::from_trace(&stacked);

        // ...and raw, for comparison.
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let mut dev = EmmcDevice::new(cfg).expect("valid config");
        let mut raw = base;
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let raw_metrics = dev.replay(&mut raw).expect("replay");

        vec![
            name.to_string(),
            stats.submitted.to_string(),
            stats.after_merge.to_string(),
            stats.commands.to_string(),
            format!("{}", stats.largest_command),
            fnum(stacked_stats.mean_response_ms, 3),
            fnum(raw_metrics.mean_response_ms(), 3),
        ]
    }) {
        t.row(row);
    }
    format!(
        "I/O stack pipeline (Fig. 1): block-layer merging plus driver packing \
         reshape the stream — this is how device-level requests grow past the \
         512 KiB kernel limit (first 3000 requests per workload, HPS device)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endurance_reports_all_schemes() {
        let out = endurance();
        for scheme in SchemeKind::ALL {
            assert!(out.contains(scheme.label()), "{out}");
        }
    }
}
