//! Fig. 3: the impact of request size on throughput.
//!
//! The paper measured the Nexus 5 eMMC's throughput as a function of
//! request size: reads from 13.94 MB/s (4 KiB) to 99.65 MB/s (256 KiB),
//! writes from 5.18 MB/s (4 KiB) to 56.15 MB/s (16 MiB). We reproduce the
//! *shape* by driving the simulated device with back-to-back requests of a
//! fixed size and dividing bytes moved by busy time. Absolute numbers
//! differ (the real device has a write cache the case-study model
//! deliberately disables), but the qualitative claims hold: throughput
//! grows with request size, reads beat writes at equal size, and the
//! curves flatten once the request saturates the device's parallelism.

use hps_core::{par, Bytes, Direction, IoRequest, SimTime};
use hps_emmc::{ChannelMode, DeviceConfig, EmmcDevice, PowerConfig, SchemeKind};

/// One point of the Fig. 3 curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThroughputPoint {
    /// Request size.
    pub size: Bytes,
    /// Read throughput in MB/s.
    pub read_mbs: f64,
    /// Write throughput in MB/s.
    pub write_mbs: f64,
}

/// The request sizes of the Fig. 3 sweep (4 KiB → 16 MiB).
pub fn fig3_sizes() -> Vec<Bytes> {
    [
        4u64, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
    ]
    .into_iter()
    .map(Bytes::kib)
    .collect()
}

/// Measures saturated throughput for one direction and size on a fresh
/// Table V-shaped device. `total_data` bounds how much data the batch
/// moves.
pub fn measure_throughput(
    scheme: SchemeKind,
    direction: Direction,
    size: Bytes,
    total_data: Bytes,
) -> f64 {
    let mut cfg = DeviceConfig::table_v(scheme);
    cfg.power = PowerConfig::DISABLED;
    // The measurement targets the real device, whose controller pipelines
    // operations across dies.
    cfg.channel_mode = ChannelMode::Interleaved;
    #[expect(clippy::expect_used, reason = "infallible by construction")]
    let mut dev = EmmcDevice::new(cfg).expect("Table V config is valid");
    let count = total_data.div_ceil(size).clamp(4, 512);

    // For reads, populate the target region first so reads hit real
    // mappings (write then read back).
    if direction.is_read() {
        for i in 0..count {
            let req = IoRequest::new(i, SimTime::ZERO, Direction::Write, size, i * size.as_u64());
            #[expect(clippy::expect_used, reason = "infallible by construction")]
            dev.submit(&req).expect("populate");
        }
    }
    let t0 = dev.busy_until();
    let mut first_start = None;
    let mut last_finish = t0;
    for i in 0..count {
        let req = IoRequest::new(i, t0, direction, size, i * size.as_u64());
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let completion = dev.submit(&req).expect("measurement request");
        first_start.get_or_insert(completion.service_start);
        last_finish = completion.finish;
    }
    #[expect(clippy::expect_used, reason = "infallible by construction")]
    let elapsed = last_finish - first_start.expect("at least one request");
    let bytes = size.as_u64() * count;
    bytes as f64 / 1e6 / elapsed.as_secs_f64()
}

/// Runs the full Fig. 3 sweep on the conventional 4PS device (the paper
/// measured a stock eMMC). Reads are only measured up to 256 KiB, matching
/// the largest read the traces contain; larger points carry the last read
/// value (the paper's read curve simply terminates there).
pub fn throughput_sweep() -> Vec<ThroughputPoint> {
    let sizes = fig3_sizes();
    // Every (size, direction) measurement is independent; fan them all out
    // at once and assemble the carry-forward read curve afterwards.
    let jobs: Vec<(Bytes, Direction)> = sizes
        .iter()
        .map(|&size| (size, Direction::Write))
        .chain(
            sizes
                .iter()
                .filter(|&&size| size <= Bytes::kib(256))
                .map(|&size| (size, Direction::Read)),
        )
        .collect();
    let measured = par::par_map(jobs, |(size, direction)| {
        measure_throughput(SchemeKind::Ps4, direction, size, Bytes::mib(64))
    });
    let (writes, reads) = measured.split_at(sizes.len());

    let mut points = Vec::new();
    let mut last_read = 0.0;
    let mut reads = reads.iter();
    for (&size, &write_mbs) in sizes.iter().zip(writes) {
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let read_mbs = if size <= Bytes::kib(256) {
            last_read = *reads.next().expect("one read point per small size");
            last_read
        } else {
            last_read
        };
        points.push(ThroughputPoint {
            size,
            read_mbs,
            write_mbs,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_beat_writes_at_equal_size() {
        let r = measure_throughput(
            SchemeKind::Ps4,
            Direction::Read,
            Bytes::kib(64),
            Bytes::mib(4),
        );
        let w = measure_throughput(
            SchemeKind::Ps4,
            Direction::Write,
            Bytes::kib(64),
            Bytes::mib(4),
        );
        assert!(r > w, "read {r} MB/s vs write {w} MB/s");
    }

    #[test]
    fn throughput_grows_with_request_size() {
        let small = measure_throughput(
            SchemeKind::Ps4,
            Direction::Write,
            Bytes::kib(4),
            Bytes::mib(2),
        );
        let large = measure_throughput(
            SchemeKind::Ps4,
            Direction::Write,
            Bytes::kib(1024),
            Bytes::mib(16),
        );
        assert!(large > 2.0 * small, "small {small}, large {large}");
    }

    #[test]
    fn sweep_has_all_sizes_and_positive_numbers() {
        // A miniature sweep via the public helper on a few sizes to keep
        // the test fast.
        for size in [Bytes::kib(4), Bytes::kib(256)] {
            let w = measure_throughput(SchemeKind::Ps4, Direction::Write, size, Bytes::mib(2));
            assert!(w > 0.0);
        }
        assert_eq!(fig3_sizes().len(), 13);
        assert_eq!(fig3_sizes()[0], Bytes::kib(4));
        assert_eq!(*fig3_sizes().last().unwrap(), Bytes::mib(16));
    }
}
