//! Every per-trace statistic the paper's tables and figures print, kept
//! as one value so the trace itself can be dropped.

use crate::distributions::{
    interarrival_histogram, response_histogram, size_histogram, small_request_fraction,
};
use crate::stats::{SizeStats, TimingStats};
use crate::trace::Trace;
use hps_core::Histogram;

/// The statistics of one trace that Tables III and IV, Figs. 4–7 and the
/// Section III characteristics read.
///
/// [`TraceSummary::of`] walks the trace once per statistic; the summary is
/// a few hundred bytes however long the trace was. On a trace that was
/// never replayed the service, response and NoWait figures are zero and
/// [`TraceSummary::responses`] is empty.
///
/// # Example
///
/// ```
/// use hps_core::{Bytes, Direction, IoRequest, SimTime};
/// use hps_trace::{Trace, TraceSummary};
///
/// let mut t = Trace::new("x");
/// t.push_request(IoRequest::new(0, SimTime::ZERO, Direction::Write, Bytes::kib(4), 0));
/// t.push_request(IoRequest::new(1, SimTime::from_ms(5), Direction::Read, Bytes::kib(12), 0));
/// let s = TraceSummary::of(&t);
/// assert_eq!(s.name(), "x");
/// assert_eq!(s.size.num_reqs, 2);
/// assert_eq!(s.timing.temporal_locality_pct, 50.0);
/// assert_eq!(s.sizes.counts()[0], 1);
/// assert_eq!(s.small_fraction, 0.5);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSummary {
    /// Table III's columns.
    pub size: SizeStats,
    /// Table IV's columns.
    pub timing: TimingStats,
    /// Request sizes in the Fig. 4 buckets.
    pub sizes: Histogram,
    /// Response times in the Fig. 5 buckets (replayed records only).
    pub responses: Histogram,
    /// Inter-arrival gaps in the Fig. 6 buckets.
    pub interarrivals: Histogram,
    /// Share of requests that are exactly one 4 KiB page
    /// (Characteristic 2).
    pub small_fraction: f64,
}

impl TraceSummary {
    /// Computes every statistic of `trace`.
    pub fn of(trace: &Trace) -> Self {
        TraceSummary {
            size: SizeStats::from_trace(trace),
            timing: TimingStats::from_trace(trace),
            sizes: size_histogram(trace),
            responses: response_histogram(trace),
            interarrivals: interarrival_histogram(trace),
            small_fraction: small_request_fraction(trace),
        }
    }

    /// The trace's name.
    pub fn name(&self) -> &str {
        &self.size.name
    }
}
