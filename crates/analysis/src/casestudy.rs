//! The Section V case study: 4PS vs 8PS vs HPS.
//!
//! Replays each trace on a fresh device per scheme (the paper: "All traces
//! are replayed on a simulated brand new eMMC device. The RAM buffer layer
//! of the simulator is disabled.") and reports:
//!
//! * **Fig. 8** — mean response time per (trace, scheme), plus HPS's
//!   reduction versus 4PS;
//! * **Fig. 9** — space utilization of HPS and 8PS normalized to 4PS
//!   (HPS always matches 4PS; 8PS wastes padding).

use crate::report::{fnum, Table};
use hps_core::{par, Result};
use hps_emmc::{DeviceConfig, EmmcDevice, PowerConfig, ReplayMetrics, SchemeKind};
use hps_trace::Trace;

/// Results of one trace replayed on all three schemes.
#[derive(Clone, Debug)]
pub struct CaseStudyRow {
    /// Trace name.
    pub trace: String,
    /// Metrics per scheme, ordered 4PS, 8PS, HPS.
    pub metrics: [ReplayMetrics; 3],
}

impl CaseStudyRow {
    /// Metrics for a scheme.
    pub fn metrics_for(&self, scheme: SchemeKind) -> &ReplayMetrics {
        match scheme {
            SchemeKind::Ps4 => &self.metrics[0],
            SchemeKind::Ps8 => &self.metrics[1],
            SchemeKind::Hps => &self.metrics[2],
        }
    }

    /// HPS mean-response-time reduction vs 4PS, percent (Fig. 8 headline).
    pub fn hps_mrt_reduction_pct(&self) -> f64 {
        self.metrics_for(SchemeKind::Hps)
            .mrt_reduction_vs(self.metrics_for(SchemeKind::Ps4))
    }

    /// HPS space-utilization gain vs 8PS, percent (Fig. 9 headline).
    pub fn hps_util_gain_pct(&self) -> f64 {
        self.metrics_for(SchemeKind::Hps)
            .utilization_gain_vs(self.metrics_for(SchemeKind::Ps8))
    }
}

/// Builds the case-study device for a scheme: Table V, power saving on,
/// fresh FTL. `device_of` can be swapped in tests for scaled devices.
pub fn case_study_device(scheme: SchemeKind) -> Result<EmmcDevice> {
    let mut cfg = DeviceConfig::table_v(scheme);
    // Match the paper's simulation setup: SSDsim has no power-state model
    // and the RAM buffer is disabled, so the comparison isolates the
    // page-size scheme. (The power model stays on for the Table IV
    // characterization replays, where Characteristic 4 needs it.)
    cfg.power = PowerConfig::DISABLED;
    EmmcDevice::new(cfg)
}

/// Replays `trace` on all three Table V schemes (fresh device each) and
/// returns the per-scheme metrics.
///
/// # Errors
///
/// Propagates device errors (e.g. capacity exhaustion — impossible with
/// Table V capacities and the paper's workloads).
pub fn run_case_study(trace: &Trace) -> Result<CaseStudyRow> {
    let metrics: Vec<ReplayMetrics> = par::par_map(SchemeKind::ALL.to_vec(), |scheme| {
        let mut dev = case_study_device(scheme)?;
        let mut replayed = trace.clone();
        replayed.reset_replay();
        dev.replay(&mut replayed)
    })
    .into_iter()
    .collect::<Result<_>>()?;
    #[expect(clippy::expect_used, reason = "infallible by construction")]
    let metrics: [ReplayMetrics; 3] = metrics.try_into().expect("exactly three schemes replayed");
    Ok(CaseStudyRow {
        trace: trace.name().to_string(),
        metrics,
    })
}

/// Fig. 8 as a table: MRT per scheme plus HPS-vs-4PS reduction, with tail
/// latencies (p99) for the two extremes — the per-request distribution the
/// paper's bar chart cannot show.
pub fn fig8_table(rows: &[CaseStudyRow]) -> Table {
    let mut t = Table::new(&[
        "Application",
        "4PS MRT (ms)",
        "8PS MRT (ms)",
        "HPS MRT (ms)",
        "HPS vs 4PS (%)",
        "4PS p99 (ms)",
        "HPS p99 (ms)",
    ]);
    for row in rows {
        t.row(vec![
            row.trace.clone(),
            fnum(row.metrics[0].mean_response_ms(), 3),
            fnum(row.metrics[1].mean_response_ms(), 3),
            fnum(row.metrics[2].mean_response_ms(), 3),
            fnum(row.hps_mrt_reduction_pct(), 1),
            fnum(row.metrics[0].p99_response_ms(), 3),
            fnum(row.metrics[2].p99_response_ms(), 3),
        ]);
    }
    t
}

/// Fig. 9 as a table: space utilization normalized to 4PS.
pub fn fig9_table(rows: &[CaseStudyRow]) -> Table {
    let mut t = Table::new(&[
        "Application",
        "8PS util (norm. to 4PS)",
        "HPS util (norm. to 4PS)",
        "HPS vs 8PS (%)",
    ]);
    for row in rows {
        let base = row.metrics[0].space_utilization();
        let n8 = if base == 0.0 {
            0.0
        } else {
            row.metrics[1].space_utilization() / base
        };
        let nh = if base == 0.0 {
            0.0
        } else {
            row.metrics[2].space_utilization() / base
        };
        t.row(vec![
            row.trace.clone(),
            fnum(n8, 3),
            fnum(nh, 3),
            fnum(row.hps_util_gain_pct(), 1),
        ]);
    }
    t
}

/// Average HPS-vs-4PS MRT reduction over a set of rows (the paper: 61.9%).
pub fn average_mrt_reduction(rows: &[CaseStudyRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter()
        .map(CaseStudyRow::hps_mrt_reduction_pct)
        .sum::<f64>() // lint: allow(float-accum) -- fixed-order Vec of case-study rows
        / rows.len() as f64
}

/// Average HPS-vs-8PS utilization gain (the paper: 13.1%).
pub fn average_util_gain(rows: &[CaseStudyRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter()
        .map(CaseStudyRow::hps_util_gain_pct)
        .sum::<f64>() // lint: allow(float-accum) -- fixed-order Vec of case-study rows
        / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::{Bytes, Direction, IoRequest, SimTime};

    /// A small write-heavy trace with a mix of 4 KiB and large requests.
    fn mixed_trace() -> Trace {
        let mut t = Trace::new("Mixed");
        for i in 0..60u64 {
            let (kib, dir) = match i % 6 {
                0..=2 => (4, Direction::Write),
                3 => (64, Direction::Write),
                4 => (256, Direction::Write),
                _ => (16, Direction::Read),
            };
            t.push_request(IoRequest::new(
                i,
                SimTime::from_ms(i * 50),
                dir,
                Bytes::kib(kib),
                i * 4096 * 128,
            ));
        }
        t
    }

    #[test]
    fn case_study_orders_schemes_correctly() {
        let row = run_case_study(&mixed_trace()).unwrap();
        assert_eq!(row.metrics[0].scheme, "4PS");
        assert_eq!(row.metrics[1].scheme, "8PS");
        assert_eq!(row.metrics[2].scheme, "HPS");
    }

    #[test]
    fn hps_beats_4ps_on_mixed_workload() {
        let row = run_case_study(&mixed_trace()).unwrap();
        assert!(
            row.hps_mrt_reduction_pct() > 0.0,
            "HPS reduction {}",
            row.hps_mrt_reduction_pct()
        );
    }

    #[test]
    fn hps_matches_4ps_utilization_and_beats_8ps() {
        let row = run_case_study(&mixed_trace()).unwrap();
        let u4 = row.metrics[0].space_utilization();
        let uh = row.metrics[2].space_utilization();
        let u8_ = row.metrics[1].space_utilization();
        assert!(
            (uh - u4).abs() < 1e-9,
            "HPS wastes nothing extra: {uh} vs {u4}"
        );
        assert!(u8_ < u4, "8PS pads 4 KiB tails: {u8_}");
        assert!(row.hps_util_gain_pct() > 0.0);
    }

    #[test]
    fn tables_render_one_row_per_trace() {
        let row = run_case_study(&mixed_trace()).unwrap();
        let rows = vec![row];
        assert_eq!(fig8_table(&rows).len(), 1);
        assert_eq!(fig9_table(&rows).len(), 1);
        assert!(average_mrt_reduction(&rows) > 0.0);
        assert!(average_util_gain(&rows) > 0.0);
        assert_eq!(average_mrt_reduction(&[]), 0.0);
    }
}
