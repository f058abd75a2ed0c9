//! Table III and Table IV statistics.
//!
//! [`SizeStats`] computes every column of the paper's Table III (size-related
//! characteristics); [`TimingStats`] computes Table IV (timing-related
//! statistics). The locality definitions follow Section III-C verbatim:
//!
//! * **Spatial locality** — the percentage of requests whose starting address
//!   is exactly the ending address of the *previous* request (sequential
//!   access pairs).
//! * **Temporal locality** — the percentage of requests whose starting
//!   address was already accessed by an earlier request (an "address hit").

use crate::trace::Trace;
use hps_core::hash::FxHashMap;
use hps_core::{Bytes, Direction, SimDuration};

/// Size-related characteristics of one trace — Table III of the paper.
///
/// # Example
///
/// ```
/// use hps_core::{Bytes, Direction, IoRequest, SimTime};
/// use hps_trace::{SizeStats, Trace};
///
/// let mut t = Trace::new("x");
/// t.push_request(IoRequest::new(0, SimTime::ZERO, Direction::Write, Bytes::kib(4), 0));
/// t.push_request(IoRequest::new(1, SimTime::from_ms(1), Direction::Read, Bytes::kib(12), 8192));
/// let s = SizeStats::from_trace(&t);
/// assert_eq!(s.num_reqs, 2);
/// assert_eq!(s.data_size, Bytes::kib(16));
/// assert_eq!(s.write_req_pct, 50.0);
/// assert_eq!(s.write_size_pct, 25.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SizeStats {
    /// Trace name.
    pub name: String,
    /// Total bytes accessed (*Data Size*).
    pub data_size: Bytes,
    /// Total request count (*Number of Reqs.*).
    pub num_reqs: u64,
    /// Largest single request (*Max Size*).
    pub max_size: Bytes,
    /// Mean request size (*Ave. Size*).
    pub avg_size_kib: f64,
    /// Mean read request size (*Ave. R Size*); 0 when no reads.
    pub avg_read_size_kib: f64,
    /// Mean write request size (*Ave. W Size*); 0 when no writes.
    pub avg_write_size_kib: f64,
    /// Percentage of requests that are writes (*Write Reqs. Pct.*).
    pub write_req_pct: f64,
    /// Percentage of bytes that are written (*Write Size Pct.*).
    pub write_size_pct: f64,
}

impl SizeStats {
    /// Computes Table III's columns for a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        // (requests, bytes) per direction: integer sums, divided once.
        let mut reads = (0u64, Bytes::ZERO);
        let mut writes = (0u64, Bytes::ZERO);
        let mut max_size = Bytes::ZERO;
        for r in trace {
            let side = match r.direction() {
                Direction::Read => &mut reads,
                Direction::Write => &mut writes,
            };
            side.0 += 1;
            side.1 += r.request.size;
            max_size = max_size.max(r.request.size);
        }
        let (num_reqs, data_size) = (reads.0 + writes.0, reads.1 + writes.1);
        SizeStats {
            name: trace.name().to_string(),
            data_size,
            num_reqs,
            max_size,
            avg_size_kib: mean(data_size.as_kib_f64(), num_reqs),
            avg_read_size_kib: mean(reads.1.as_kib_f64(), reads.0),
            avg_write_size_kib: mean(writes.1.as_kib_f64(), writes.0),
            write_req_pct: pct(writes.0 as f64, num_reqs as f64),
            write_size_pct: pct(writes.1.as_u64() as f64, data_size.as_u64() as f64),
        }
    }
}

/// Timing-related statistics of one trace — Table IV of the paper.
///
/// The service/response/NoWait columns require a *replayed* trace (records
/// with service timestamps); on a raw trace they report zero.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingStats {
    /// Trace name.
    pub name: String,
    /// Recording duration in seconds (*Recording Duration*).
    pub duration_s: f64,
    /// Requests per second (*Arrival Rate*).
    pub arrival_rate: f64,
    /// KiB accessed per second (*Access Rate*).
    pub access_rate_kib_s: f64,
    /// Percentage of requests served the instant they arrived
    /// (*NoWait Req. Ratio*).
    pub nowait_pct: f64,
    /// Mean service time in milliseconds (*Mean. Serv.*).
    pub mean_service_ms: f64,
    /// Mean response time in milliseconds (*Mean. Resp.*).
    pub mean_response_ms: f64,
    /// Sequential-pair percentage (*Spatial Locality*).
    pub spatial_locality_pct: f64,
    /// Address re-access percentage (*Temporal Locality*).
    pub temporal_locality_pct: f64,
    /// Mean inter-arrival time in milliseconds (used by Characteristic 6).
    pub mean_interarrival_ms: f64,
}

impl TimingStats {
    /// Computes Table IV's columns for a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let duration = trace.duration();
        let duration_s = duration.as_secs_f64();
        let n = trace.len() as f64;

        let mut service = SimDuration::ZERO;
        let mut response = SimDuration::ZERO;
        let mut nowait = 0u64;
        let mut completed = 0u64;
        for r in trace {
            if let (Some(s), Some(resp)) = (r.service_time(), r.response_time()) {
                service += s;
                response += resp;
                completed += 1;
                if r.served_immediately() {
                    nowait += 1;
                }
            }
        }
        // The gaps between consecutive arrivals sum to the duration.
        let gaps = (trace.len() as u64).saturating_sub(1);

        TimingStats {
            name: trace.name().to_string(),
            duration_s,
            arrival_rate: rate(n, duration_s),
            access_rate_kib_s: rate(trace.total_bytes().as_kib_f64(), duration_s),
            nowait_pct: pct(nowait as f64, completed as f64),
            mean_service_ms: mean(service.as_ms_f64(), completed),
            mean_response_ms: mean(response.as_ms_f64(), completed),
            spatial_locality_pct: spatial_locality(trace),
            temporal_locality_pct: temporal_locality(trace),
            mean_interarrival_ms: mean(duration.as_ms_f64(), gaps),
        }
    }
}

/// Spatial locality (Section III-C): percentage of requests whose starting
/// address equals the previous request's ending address.
pub fn spatial_locality(trace: &Trace) -> f64 {
    if trace.len() < 2 {
        return 0.0;
    }
    let sequential = trace
        .records()
        .windows(2)
        .filter(|w| w[0].request.is_sequential_predecessor_of(&w[1].request))
        .count();
    pct(sequential as f64, trace.len() as f64)
}

/// Temporal locality (Section III-C): percentage of requests whose starting
/// 4 KiB page was covered by an earlier request (an address hit).
///
/// Covered pages are one bit each in 64-page words. The words are kept
/// sparse, keyed by word index, so memory follows the pages a trace
/// touches rather than its highest address, and marking a request costs
/// one map entry per 64 pages it spans rather than one per page.
pub fn temporal_locality(trace: &Trace) -> f64 {
    const PAGE: u64 = 4096;
    let mut covered: FxHashMap<u64, u64> = FxHashMap::default();
    let mut hits = 0u64;
    for r in trace {
        let start = r.request.lba / PAGE;
        let end = start + r.request.page_span(Bytes::new(PAGE));
        if covered
            .get(&(start / 64))
            .is_some_and(|w| (w >> (start % 64)) & 1 == 1)
        {
            hits += 1;
        }
        let mut page = start;
        while page < end {
            // Pages `page..stop` share one word.
            let stop = end.min((page / 64 + 1) * 64);
            let bits = u64::MAX >> (64 - (stop - page));
            *covered.entry(page / 64).or_insert(0) |= bits << (page % 64);
            page = stop;
        }
    }
    pct(hits as f64, trace.len() as f64)
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// `total / n`, or 0 when nothing was counted.
fn mean(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn rate(amount: f64, seconds: f64) -> f64 {
    if seconds == 0.0 {
        0.0
    } else {
        amount / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::{IoRequest, SimTime};

    fn push(t: &mut Trace, ms: u64, dir: Direction, kib: u64, lba: u64) {
        let id = t.len() as u64;
        t.push_request(IoRequest::new(
            id,
            SimTime::from_ms(ms),
            dir,
            Bytes::kib(kib),
            lba,
        ));
    }

    #[test]
    fn size_stats_columns() {
        let mut t = Trace::new("s");
        push(&mut t, 0, Direction::Write, 4, 0);
        push(&mut t, 1, Direction::Write, 8, 4096);
        push(&mut t, 2, Direction::Read, 24, 65536);
        let s = SizeStats::from_trace(&t);
        assert_eq!(s.num_reqs, 3);
        assert_eq!(s.data_size, Bytes::kib(36));
        assert_eq!(s.max_size, Bytes::kib(24));
        assert!((s.avg_size_kib - 12.0).abs() < 1e-9);
        assert!((s.avg_read_size_kib - 24.0).abs() < 1e-9);
        assert!((s.avg_write_size_kib - 6.0).abs() < 1e-9);
        assert!((s.write_req_pct - 200.0 / 3.0).abs() < 1e-9);
        assert!((s.write_size_pct - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn size_stats_empty_trace() {
        let s = SizeStats::from_trace(&Trace::new("e"));
        assert_eq!(s.num_reqs, 0);
        assert_eq!(s.write_req_pct, 0.0);
        assert_eq!(s.avg_size_kib, 0.0);
    }

    #[test]
    fn spatial_locality_counts_sequential_pairs() {
        let mut t = Trace::new("sp");
        push(&mut t, 0, Direction::Write, 4, 0); // ends at 4096
        push(&mut t, 1, Direction::Write, 4, 4096); // sequential
        push(&mut t, 2, Direction::Write, 4, 100_000); // jump
        push(&mut t, 3, Direction::Write, 4, 104096); // sequential again
        assert!((spatial_locality(&t) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn temporal_locality_counts_reaccess() {
        let mut t = Trace::new("tp");
        push(&mut t, 0, Direction::Write, 8, 0); // covers pages 0,1
        push(&mut t, 1, Direction::Read, 4, 4096); // page 1 -> hit
        push(&mut t, 2, Direction::Read, 4, 40960); // fresh
        push(&mut t, 3, Direction::Write, 4, 0); // page 0 -> hit
        assert!((temporal_locality(&t) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn timing_stats_rates() {
        let mut t = Trace::new("r");
        push(&mut t, 0, Direction::Write, 4, 0);
        push(&mut t, 1000, Direction::Write, 4, 8192);
        push(&mut t, 2000, Direction::Write, 4, 16384);
        let s = TimingStats::from_trace(&t);
        assert!((s.duration_s - 2.0).abs() < 1e-9);
        assert!((s.arrival_rate - 1.5).abs() < 1e-9);
        assert!((s.access_rate_kib_s - 6.0).abs() < 1e-9);
        assert!((s.mean_interarrival_ms - 1000.0).abs() < 1e-9);
        // Raw trace: no service columns.
        assert_eq!(s.nowait_pct, 0.0);
        assert_eq!(s.mean_service_ms, 0.0);
    }

    #[test]
    fn timing_stats_after_replay() {
        let mut t = Trace::new("r");
        push(&mut t, 0, Direction::Write, 4, 0);
        push(&mut t, 10, Direction::Write, 4, 8192);
        {
            let recs = t.records_mut();
            recs[0] = recs[0]
                .with_service_start(SimTime::from_ms(0))
                .with_finish(SimTime::from_ms(2));
            recs[1] = recs[1]
                .with_service_start(SimTime::from_ms(12))
                .with_finish(SimTime::from_ms(14));
        }
        let s = TimingStats::from_trace(&t);
        assert_eq!(s.nowait_pct, 50.0);
        assert!((s.mean_service_ms - 2.0).abs() < 1e-9);
        assert!((s.mean_response_ms - 3.0).abs() < 1e-9);
    }

    #[test]
    fn single_record_has_no_pairs() {
        let mut t = Trace::new("one");
        push(&mut t, 0, Direction::Read, 4, 0);
        assert_eq!(spatial_locality(&t), 0.0);
        let s = TimingStats::from_trace(&t);
        assert_eq!(s.mean_interarrival_ms, 0.0);
        assert_eq!(s.arrival_rate, 0.0); // zero duration
    }
}
