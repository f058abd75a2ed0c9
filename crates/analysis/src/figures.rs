//! The distribution figures: request sizes (Fig. 4), response times
//! (Fig. 5), inter-arrival times (Fig. 6), and the combo views (Fig. 7).
//!
//! Each figure is rendered as a table with one row per trace and one column
//! per bucket, cells in percent — the textual equivalent of the paper's
//! stacked-bar charts.

use crate::report::{fnum, Table};
use hps_core::Histogram;
use hps_trace::{
    bucket_labels, TraceSummary, INTERARRIVAL_EDGES_MS, RESPONSE_EDGES_MS, SIZE_EDGES_KIB,
};

fn distribution_table(
    summaries: &[TraceSummary],
    edges: &[f64],
    unit: &str,
    hist_of: impl Fn(&TraceSummary) -> &Histogram,
) -> Table {
    let labels = bucket_labels(edges, unit);
    let mut headers: Vec<&str> = vec!["Application"];
    headers.extend(labels.iter().map(String::as_str));
    let mut t = Table::new(&headers);
    for s in summaries {
        let mut cells = vec![s.name().to_string()];
        cells.extend(hist_of(s).fractions().iter().map(|f| fnum(100.0 * f, 1)));
        t.row(cells);
    }
    t
}

/// Fig. 4: request-size distributions, one row per trace, percent per
/// bucket.
pub fn fig4_size_distributions(summaries: &[TraceSummary]) -> Table {
    distribution_table(summaries, &SIZE_EDGES_KIB, "KB", |s| &s.sizes)
}

/// Fig. 5: response-time distributions (requires replayed traces).
pub fn fig5_response_distributions(summaries: &[TraceSummary]) -> Table {
    distribution_table(summaries, &RESPONSE_EDGES_MS, "ms", |s| &s.responses)
}

/// Fig. 6: inter-arrival-time distributions.
pub fn fig6_interarrival_distributions(summaries: &[TraceSummary]) -> Table {
    distribution_table(summaries, &INTERARRIVAL_EDGES_MS, "ms", |s| {
        &s.interarrivals
    })
}

/// Fig. 7: all three views for the combo traces (the paper shows the same
/// three distributions restricted to the 7 combos).
pub fn fig7_combo_views(combos: &[TraceSummary]) -> (Table, Table, Table) {
    (
        fig4_size_distributions(combos),
        fig5_response_distributions(combos),
        fig6_interarrival_distributions(combos),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::{Bytes, Direction, IoRequest, SimTime};
    use hps_trace::Trace;

    fn trace_with_sizes(sizes_kib: &[u64]) -> TraceSummary {
        let mut t = Trace::new("T");
        for (i, &kib) in sizes_kib.iter().enumerate() {
            t.push_request(IoRequest::new(
                i as u64,
                SimTime::from_ms(i as u64 * 10),
                Direction::Write,
                Bytes::kib(kib),
                i as u64 * 1_000_000,
            ));
        }
        TraceSummary::of(&t)
    }

    #[test]
    fn fig4_percentages_sum_to_100() {
        let t = trace_with_sizes(&[4, 4, 8, 32, 512]);
        let table = fig4_size_distributions(&[t]);
        let row = &table.rows()[0];
        let sum: f64 = row[1..].iter().map(|c| c.parse::<f64>().unwrap()).sum();
        assert!((sum - 100.0).abs() < 0.5, "sum {sum}");
        assert_eq!(row[1], "40.0"); // two of five are 4K
    }

    #[test]
    fn fig6_has_interarrival_buckets() {
        let t = trace_with_sizes(&[4, 4, 4]);
        let table = fig6_interarrival_distributions(&[t]);
        // gaps of 10ms land in the <=16ms bucket (index 3: 1,4,16).
        assert_eq!(table.rows()[0][3], "100.0");
    }

    #[test]
    fn fig5_empty_for_unreplayed() {
        let t = trace_with_sizes(&[4]);
        let table = fig5_response_distributions(&[t]);
        let row = &table.rows()[0];
        let sum: f64 = row[1..].iter().map(|c| c.parse::<f64>().unwrap()).sum();
        assert_eq!(sum, 0.0, "no replay, no response times");
    }

    #[test]
    fn fig7_returns_three_views() {
        let t = trace_with_sizes(&[4, 8]);
        let (a, b, c) = fig7_combo_views(&[t]);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(c.len(), 1);
    }
}
