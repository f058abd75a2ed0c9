//! Ablation experiments for the design choices the paper motivates.
//!
//! * `ablate_gc` — Implication 2: threshold GC vs idle-time GC under space
//!   pressure (scaled-down device so GC actually fires).
//! * `ablate_ratio` — sensitivity of the HPS 4K/8K block split.
//! * `ablate_power` — Characteristic 4: power-save threshold vs mean
//!   response time and mode switches.
//! * `ablate_channels` — Implication 1: does more device-level parallelism
//!   help?

use crate::runner::{trace_by_name, truncate_trace, MASTER_SEED};
use hps_analysis::report::{fnum, Table};
use hps_core::{par, Bytes, Direction, IoRequest, SimDuration, SimRng, SimTime};
use hps_emmc::{DeviceConfig, EmmcDevice, PowerConfig, SchemeKind};
use hps_ftl::gc::GcTrigger;
use hps_trace::Trace;

/// A small, hot, write-heavy trace that fills a scaled device several times
/// over — the workload that makes GC policy matter.
fn hot_write_trace(requests: u64, footprint: Bytes, gap: SimDuration) -> Trace {
    let mut rng = SimRng::seed_from(MASTER_SEED);
    let mut trace = Trace::new("HotWrites");
    let pages = footprint.as_u64() / 4096;
    let mut now = SimTime::ZERO;
    for id in 0..requests {
        if id > 0 {
            now += gap;
        }
        let lba = rng.uniform_u64(pages) * 4096;
        trace.push_request(IoRequest::new(
            id,
            now,
            Direction::Write,
            Bytes::kib(4),
            lba,
        ));
    }
    trace
}

/// Implication 2: GC trigger policy. A scaled-down 4PS device is hammered
/// with hot 4 KiB writes; with 300 ms gaps between bursts, idle-time GC
/// hides reclamation where threshold GC stalls foreground requests.
pub fn ablate_gc() -> String {
    let mut t = Table::new(&[
        "GC policy",
        "MRT (ms)",
        "GC runs",
        "GC programs",
        "Idle passes",
        "Write amp.",
    ]);
    // Device: 8 planes x 32 blocks x 32 pages x 4 KiB = 32 MiB.
    // Workload: 24 MiB logical footprint written ~4x over.
    /// Total span the synthetic hot-write trace is spread across.
    const HOT_WRITE_SPAN: SimDuration = SimDuration::from_ms(300);
    let trace = hot_write_trace(24_000, Bytes::mib(24), HOT_WRITE_SPAN);
    let jobs = vec![
        (
            "threshold (min_free=2)",
            GcTrigger::Threshold { min_free_blocks: 2 },
        ),
        (
            "idle (min_free=2, idle>=200ms)",
            GcTrigger::Idle {
                min_free_blocks: 2,
                min_invalid_pages: 32,
            },
        ),
    ];
    for row in par::par_map(jobs, |(label, trigger)| {
        let mut cfg = DeviceConfig::scaled(SchemeKind::Ps4, 32, 32);
        cfg.ftl.gc_trigger = trigger;
        cfg.power = PowerConfig::DISABLED;
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let mut dev = EmmcDevice::new(cfg).expect("valid config");
        let mut replayed = trace.clone();
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let metrics = dev.replay(&mut replayed).expect("replay");
        vec![
            label.to_string(),
            fnum(metrics.mean_response_ms(), 3),
            metrics.ftl.gc_runs.to_string(),
            metrics.ftl.gc_programs.to_string(),
            metrics.idle_gc_passes.to_string(),
            fnum(metrics.ftl.write_amplification(), 3),
        ]
    }) {
        t.row(row);
    }
    format!(
        "Ablation: GC trigger policy (Implication 2) — hot 4 KiB writes over a \
         32 MiB scaled device\n\n{}",
        t.render()
    )
}

/// HPS 4K/8K split sensitivity. On a fresh 32 GiB device the split is
/// invisible (no pool ever fills), so this ablation scales the device down
/// until the workload wraps it several times: now an undersized pool means
/// more GC in that pool, and the split matters.
pub fn ablate_ratio() -> String {
    let base = truncate_trace(&trace_by_name("Twitter"), 6_000);
    let mut t = Table::new(&[
        "4K blks/plane",
        "8K blks/plane",
        "MRT (ms)",
        "GC runs",
        "Write amp.",
        "Pool spills",
    ]);
    // Capacity held at 64 x 4 KiB-block equivalents per plane (32 MiB
    // device, 16-page blocks); Twitter's ~80 MB of writes wrap it ~3x.
    for row in par::par_map(
        vec![(48usize, 8usize), (32, 16), (16, 24)],
        |(blk4, blk8)| {
            let mut cfg = DeviceConfig::table_v(SchemeKind::Hps);
            cfg.ftl.pools = vec![(Bytes::kib(4), blk4), (Bytes::kib(8), blk8)];
            cfg.ftl.pages_per_block = 16;
            cfg.power = PowerConfig::DISABLED;
            #[expect(clippy::expect_used, reason = "infallible by construction")]
            let mut dev = EmmcDevice::new(cfg).expect("valid config");
            let mut replayed = base.clone();
            #[expect(clippy::expect_used, reason = "infallible by construction")]
            let metrics = dev.replay(&mut replayed).expect("replay");
            vec![
                blk4.to_string(),
                blk8.to_string(),
                fnum(metrics.mean_response_ms(), 3),
                metrics.ftl.gc_runs.to_string(),
                fnum(metrics.ftl.write_amplification(), 3),
                metrics.pool_spills.to_string(),
            ]
        },
    ) {
        t.row(row);
    }
    format!(
        "Ablation: HPS 4K/8K block split under GC pressure (Twitter, first 6000 \
         requests, 32 MiB scaled device; the capacity split of Table V is 50/50)\n\n{}",
        t.render()
    )
}

/// Characteristic 4: power-save threshold sweep on a sparse workload
/// (YouTube, truncated): lower thresholds save power but pay more wake-ups.
pub fn ablate_power() -> String {
    let base = truncate_trace(&trace_by_name("YouTube"), 1_000);
    let mut t = Table::new(&[
        "Idle threshold",
        "MRT (ms)",
        "Mode switches",
        "Time asleep (s)",
    ]);
    for row in par::par_map(vec![0u64, 100, 500, 2_000, 10_000], |threshold_ms| {
        let mut cfg = DeviceConfig::table_v(SchemeKind::Ps4);
        cfg.power = if threshold_ms == 0 {
            PowerConfig::DISABLED
        } else {
            /// Sleep-to-active resume cost for the ablation's power model.
            const WAKEUP_LATENCY: SimDuration = SimDuration::from_ms(5);
            PowerConfig {
                idle_threshold: SimDuration::from_ms(threshold_ms),
                wakeup_latency: WAKEUP_LATENCY,
                enabled: true,
            }
        };
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let mut dev = EmmcDevice::new(cfg).expect("valid config");
        let mut replayed = base.clone();
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let metrics = dev.replay(&mut replayed).expect("replay");
        let label = if threshold_ms == 0 {
            "off".to_string()
        } else {
            format!("{threshold_ms} ms")
        };
        vec![
            label,
            fnum(metrics.mean_response_ms(), 3),
            metrics.mode_switches.to_string(),
            fnum(metrics.time_asleep.as_secs_f64(), 1),
        ]
    }) {
        t.row(row);
    }
    format!(
        "Ablation: power-save threshold (Characteristic 4) — YouTube, first 1000 \
         requests\n\n{}",
        t.render()
    )
}

/// Implication 1: channel-count sweep. The paper argues more device-level
/// parallelism does not help *typical* smartphone workloads because the
/// device is idle most of the time — Twitter barely moves. The saturated
/// Booting burst is the exception that proves the rule.
#[expect(clippy::expect_used, reason = "infallible by construction")]
pub fn ablate_channels() -> String {
    let mut t = Table::new(&["Workload", "Channels", "MRT (ms)", "NoWait (%)"]);
    let jobs: Vec<(&str, usize, usize)> = [("Twitter", 4_000usize), ("Booting", 4_000)]
        .into_iter()
        .flat_map(|(name, n)| [1usize, 2, 4].map(|channels| (name, n, channels)))
        .collect();
    for row in par::par_map(jobs, |(name, n, channels)| {
        let mut base = truncate_trace(&trace_by_name(name), n);
        let mut cfg = DeviceConfig::table_v(SchemeKind::Hps);
        cfg.ftl.geometry = hps_nand::Geometry::new(channels, 1, 2, 2).expect("valid geometry");
        let mut dev = EmmcDevice::new(cfg).expect("valid config");
        let metrics = dev.replay(&mut base).expect("replay");
        vec![
            name.to_string(),
            channels.to_string(),
            fnum(metrics.mean_response_ms(), 3),
            fnum(metrics.nowait_pct(), 1),
        ]
    }) {
        t.row(row);
    }
    format!(
        "Ablation: channel count (Implication 1) — typical (Twitter) vs saturated \
         (Booting) workloads, HPS, first 4000 requests\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_trace_is_uniform_4k_writes() {
        let t = hot_write_trace(100, Bytes::mib(1), SimDuration::from_ms(1));
        assert_eq!(t.len(), 100);
        assert!(t.iter().all(|r| r.request.size == Bytes::kib(4)));
        assert!(t.iter().all(|r| r.request.direction.is_write()));
        assert!(t.iter().all(|r| r.request.lba < Bytes::mib(1).as_u64()));
    }

    #[test]
    fn gc_ablation_reports_both_policies() {
        let out = ablate_gc();
        assert!(out.contains("threshold"));
        assert!(out.contains("idle"));
    }
}
