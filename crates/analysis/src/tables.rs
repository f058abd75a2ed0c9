//! Tables III and IV over a set of trace summaries.

use crate::report::{fnum, Table};
use hps_trace::TraceSummary;

/// Table III (size-related characteristics), one row per summary.
pub fn table_iii(summaries: &[TraceSummary]) -> Table {
    let mut t = Table::new(&[
        "Application",
        "Data Size (KB)",
        "Number of Reqs.",
        "Max Size (KB)",
        "Ave. Size (KB)",
        "Ave. R Size (KB)",
        "Ave. W Size (KB)",
        "Write Reqs. Pct.(%)",
        "Write Size Pct.(%)",
    ]);
    for s in summaries.iter().map(|s| &s.size) {
        t.row(vec![
            s.name.clone(),
            s.data_size.as_kib().to_string(),
            s.num_reqs.to_string(),
            s.max_size.as_kib().to_string(),
            fnum(s.avg_size_kib, 1),
            fnum(s.avg_read_size_kib, 1),
            fnum(s.avg_write_size_kib, 1),
            fnum(s.write_req_pct, 2),
            fnum(s.write_size_pct, 2),
        ]);
    }
    t
}

/// Table IV (timing-related statistics), one row per summary.
/// Service/response/NoWait columns are only meaningful on replayed traces.
pub fn table_iv(summaries: &[TraceSummary]) -> Table {
    let mut t = Table::new(&[
        "Application",
        "Recording Duration (s)",
        "Arrival Rate (Reqs./s)",
        "Access Rate (KB/s)",
        "NoWait Req. Ratio (%)",
        "Mean Serv. (ms)",
        "Mean Resp. (ms)",
        "Spatial Locality (%)",
        "Temporal Locality (%)",
    ]);
    for s in summaries.iter().map(|s| &s.timing) {
        t.row(vec![
            s.name.clone(),
            fnum(s.duration_s, 0),
            fnum(s.arrival_rate, 2),
            fnum(s.access_rate_kib_s, 2),
            fnum(s.nowait_pct, 0),
            fnum(s.mean_service_ms, 2),
            fnum(s.mean_response_ms, 2),
            fnum(s.spatial_locality_pct, 2),
            fnum(s.temporal_locality_pct, 2),
        ]);
    }
    t
}

/// Side-by-side comparison of a measured statistic against the paper's
/// published value, with relative error.
pub fn comparison_table(
    title_measured: &str,
    rows: &[(String, f64, f64)], // (name, paper, measured)
) -> Table {
    let mut t = Table::new(&["Application", "Paper", title_measured, "Rel. Err (%)"]);
    for (name, paper, measured) in rows {
        let err = if *paper == 0.0 {
            0.0
        } else {
            100.0 * (measured - paper) / paper
        };
        t.row(vec![
            name.clone(),
            fnum(*paper, 2),
            fnum(*measured, 2),
            fnum(err, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::{Bytes, Direction, IoRequest, SimTime};
    use hps_trace::Trace;

    fn tiny_trace() -> TraceSummary {
        let mut t = Trace::new("Tiny");
        t.push_request(IoRequest::new(
            0,
            SimTime::ZERO,
            Direction::Write,
            Bytes::kib(4),
            0,
        ));
        t.push_request(IoRequest::new(
            1,
            SimTime::from_secs(1),
            Direction::Read,
            Bytes::kib(12),
            8192,
        ));
        TraceSummary::of(&t)
    }

    #[test]
    fn table_iii_has_one_row_per_trace() {
        let traces = vec![tiny_trace(), tiny_trace()];
        let t = table_iii(&traces);
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][1], "16"); // 16 KiB data
        assert_eq!(t.rows()[0][7], "50.00"); // write pct
    }

    #[test]
    fn table_iv_computes_rates() {
        let t = table_iv(&[tiny_trace()]);
        assert_eq!(t.rows()[0][1], "1"); // 1 s duration
        assert_eq!(t.rows()[0][2], "2.00"); // 2 reqs / 1 s
    }

    #[test]
    fn comparison_table_errors() {
        let rows = vec![("X".to_string(), 10.0, 11.0)];
        let t = comparison_table("Measured", &rows);
        assert_eq!(t.rows()[0][3], "10.0");
    }
}
