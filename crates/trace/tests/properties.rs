//! Property-based tests for trace serialization and statistics.

use hps_core::hash::FxHashSet;
use hps_core::{Bytes, Direction, IoRequest, SimTime};
use hps_trace::io::{read_trace, write_trace};
use hps_trace::stats::temporal_locality;
use hps_trace::{
    interarrival_histogram, size_histogram, SizeStats, TimingStats, Trace, TraceRecord,
};
use proptest::prelude::*;

/// Strategy producing a well-formed trace: sorted arrivals, 4 KiB-aligned
/// sizes, optional replay timestamps.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    prop::collection::vec(
        (
            0u64..10_000,
            prop::bool::ANY,
            1u64..64,
            0u64..1_000_000,
            prop::bool::ANY,
            0u64..5_000,
        ),
        0..120,
    )
    .prop_map(|mut raw| {
        raw.sort_by_key(|r| r.0);
        let mut trace = Trace::new("prop");
        for (i, (ms, is_write, pages, lba_page, replayed, svc_ms)) in raw.into_iter().enumerate() {
            let dir = if is_write {
                Direction::Write
            } else {
                Direction::Read
            };
            let req = IoRequest::new(
                i as u64,
                SimTime::from_ms(ms),
                dir,
                Bytes::kib(4 * pages),
                lba_page * 4096,
            );
            let mut rec = TraceRecord::new(req);
            if replayed {
                let start = SimTime::from_ms(ms + svc_ms / 10);
                rec = rec
                    .with_service_start(start)
                    .with_finish(start + hps_core::SimDuration::from_ms(svc_ms));
            }
            trace.push(rec);
        }
        trace
    })
}

/// The hash-set definition of temporal locality that the word bitmap in
/// `temporal_locality` replaced, kept as its reference: one set entry per
/// covered 4 KiB page.
fn temporal_locality_reference(trace: &Trace) -> f64 {
    const PAGE: u64 = 4096;
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let mut hits = 0u64;
    for r in trace {
        let start_page = r.request.lba / PAGE;
        if seen.contains(&start_page) {
            hits += 1;
        }
        let pages = r.request.page_span(Bytes::new(PAGE));
        for p in 0..pages {
            seen.insert(start_page + p);
        }
    }
    if trace.is_empty() {
        0.0
    } else {
        100.0 * hits as f64 / trace.len() as f64
    }
}

/// Strategy for temporal-locality inputs: sizes of zero bytes, under a
/// page, unaligned and up to 1,024 pages; addresses low, near the end of
/// a 32 GiB device, near 2^62, unaligned, or re-accessing an earlier
/// request's address.
fn locality_trace_strategy() -> impl Strategy<Value = Trace> {
    const GIB_32: u64 = 32 << 30;
    let size = prop_oneof![
        Just(0u64),
        1u64..4096,
        (1u64..64).prop_map(|pages| pages * 4096),
        1u64..(1024 * 4096),
    ];
    let lba = prop_oneof![
        (0u64..1 << 20).prop_map(|lba| (0u64, lba)),
        (0u64..64 << 20).prop_map(|back| (0u64, GIB_32 - 1 - back)),
        (0u64..1 << 20).prop_map(|lba| (0u64, (1 << 62) + lba)),
        (0u64..1 << 16).prop_map(|earlier| (1u64, earlier)),
    ];
    prop::collection::vec((size, lba), 0..100).prop_map(|raw| {
        let mut trace = Trace::new("locality");
        let mut lbas: Vec<u64> = Vec::new();
        for (i, (bytes, (kind, value))) in raw.into_iter().enumerate() {
            let lba = match kind {
                1 if !lbas.is_empty() => lbas[value as usize % lbas.len()],
                _ => value,
            };
            lbas.push(lba);
            let request = IoRequest {
                size: Bytes::new(bytes),
                ..IoRequest::new(
                    i as u64,
                    SimTime::from_ms(i as u64),
                    Direction::Write,
                    Bytes::kib(4),
                    lba,
                )
            };
            trace.push_request(request);
        }
        trace
    })
}

proptest! {
    #[test]
    fn bitmap_temporal_locality_matches_the_hash_set_reference(
        trace in locality_trace_strategy()
    ) {
        prop_assert_eq!(temporal_locality(&trace), temporal_locality_reference(&trace));
    }

    #[test]
    fn csv_round_trip_is_lossless(trace in trace_strategy()) {
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(buf.as_slice(), "prop").unwrap();
        prop_assert_eq!(back.len(), trace.len());
        for (a, b) in trace.iter().zip(back.iter()) {
            prop_assert_eq!(a.request.arrival, b.request.arrival);
            prop_assert_eq!(a.request.direction, b.request.direction);
            prop_assert_eq!(a.request.size, b.request.size);
            prop_assert_eq!(a.request.lba, b.request.lba);
            prop_assert_eq!(a.service_start, b.service_start);
            prop_assert_eq!(a.finish, b.finish);
        }
    }

    #[test]
    fn size_stats_identities(trace in trace_strategy()) {
        let s = SizeStats::from_trace(&trace);
        prop_assert_eq!(s.num_reqs as usize, trace.len());
        prop_assert_eq!(s.data_size, trace.total_bytes());
        prop_assert!((0.0..=100.0).contains(&s.write_req_pct));
        prop_assert!((0.0..=100.0).contains(&s.write_size_pct));
        if s.num_reqs > 0 {
            // Mean size times count equals total bytes.
            let reconstructed = s.avg_size_kib * s.num_reqs as f64;
            prop_assert!((reconstructed - s.data_size.as_kib_f64()).abs() < 1.0);
            prop_assert!(Bytes::kib(s.avg_size_kib.ceil() as u64) <= s.max_size + Bytes::kib(1));
        }
    }

    #[test]
    fn timing_stats_bounds(trace in trace_strategy()) {
        let s = TimingStats::from_trace(&trace);
        prop_assert!((0.0..=100.0).contains(&s.nowait_pct));
        prop_assert!((0.0..=100.0).contains(&s.spatial_locality_pct));
        prop_assert!((0.0..=100.0).contains(&s.temporal_locality_pct));
        prop_assert!(s.mean_response_ms >= s.mean_service_ms - 1e-9);
        prop_assert!(s.duration_s >= 0.0);
    }

    #[test]
    fn histograms_count_every_sample(trace in trace_strategy()) {
        prop_assert_eq!(size_histogram(&trace).total() as usize, trace.len());
        let gaps = interarrival_histogram(&trace);
        prop_assert_eq!(gaps.total() as usize, trace.len().saturating_sub(1));
    }

    #[test]
    fn reset_replay_clears_all_timestamps(trace in trace_strategy()) {
        let mut t = trace;
        t.reset_replay();
        prop_assert!(t.iter().all(|r| r.service_start.is_none() && r.finish.is_none()));
        let s = TimingStats::from_trace(&t);
        prop_assert_eq!(s.nowait_pct, 0.0);
        prop_assert_eq!(s.mean_service_ms, 0.0);
    }
}
