//! Replay-loop benchmarks: per-request cost of the allocation-free device
//! hot path (read, write, and GC-pressure steady states), whole-replay
//! wall clock of the streaming engine at increasing `--scale` factors, and
//! the log histogram that holds every per-request distribution of a
//! replay's metrics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hps_core::{Bytes, Direction, IoRequest, SimTime};
use hps_emmc::{DeviceConfig, EmmcDevice, PowerConfig, SchemeKind};
use hps_obs::LogHistogram;
use hps_workloads::{by_name, stream};
use std::hint::black_box;

fn device() -> EmmcDevice {
    let mut cfg = DeviceConfig::scaled(SchemeKind::Ps4, 64, 16);
    cfg.power = PowerConfig::DISABLED;
    EmmcDevice::new(cfg).unwrap()
}

fn req(id: u64, dir: Direction, kib: u64, lba: u64) -> IoRequest {
    // 1 ms apart: dense enough to stay out of idle-GC territory.
    IoRequest::new(id, SimTime::from_ms(id), dir, Bytes::kib(kib), lba)
}

/// Per-request cost of `EmmcDevice::submit` in the three steady states the
/// zero-allocation contract covers: plain writes, plain reads, and writes
/// under sustained GC pressure.
fn bench_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_hot_path");
    group.sample_size(20);

    group.bench_function("write_4k", |b| {
        let mut dev = device();
        // Half the logical space: overwrites always leave GC garbage.
        let pages = dev.ftl().logical_capacity().as_u64() / 4096 / 2;
        let mut id = 0u64;
        b.iter(|| {
            let lpn = id % pages;
            let c = dev
                .submit(&req(id, Direction::Write, 4, lpn * 4096))
                .unwrap();
            id += 1;
            black_box(c)
        });
    });

    group.bench_function("read_16k", |b| {
        let mut dev = device();
        let pages = dev.ftl().logical_capacity().as_u64() / 4096 / 2;
        let mut id = 0u64;
        // Populate once so reads hit mapped pages.
        for lpn in 0..pages {
            dev.submit(&req(id, Direction::Write, 4, lpn * 4096))
                .unwrap();
            id += 1;
        }
        b.iter(|| {
            let lpn = (id * 4) % pages;
            let c = dev
                .submit(&req(id, Direction::Read, 16, lpn * 4096))
                .unwrap();
            id += 1;
            black_box(c)
        });
    });

    group.bench_function("write_gc_pressure", |b| {
        let mut dev = device();
        let pages = dev.ftl().logical_capacity().as_u64() / 4096 / 2;
        let mut id = 0u64;
        // Fill the working set twice so every further write runs against a
        // device whose free-block reserve keeps GC active.
        for _ in 0..2 {
            for lpn in 0..pages {
                dev.submit(&req(id, Direction::Write, 4, lpn * 4096))
                    .unwrap();
                id += 1;
            }
        }
        b.iter(|| {
            let lpn = id % pages;
            let c = dev
                .submit(&req(id, Direction::Write, 4, lpn * 4096))
                .unwrap();
            id += 1;
            black_box(c)
        });
    });

    group.finish();
}

/// Whole-replay wall clock of the streaming engine on the smallest paper
/// trace (CallIn, 1,491 requests) at 1x/10x/100x scale: time should grow
/// linearly with scale while resident memory stays flat (the RSS side is
/// checked by the `repro table4 --scale` harness, not criterion).
fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    let profile = by_name("CallIn").unwrap();
    for scale in [1u64, 10, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(scale), &scale, |b, &scale| {
            b.iter(|| {
                let mut cfg =
                    DeviceConfig::table_v(SchemeKind::Ps4).with_write_cache(Bytes::kib(512));
                cfg.channel_mode = hps_emmc::ChannelMode::Interleaved;
                let mut dev = EmmcDevice::new(cfg).unwrap();
                let mut source = stream(&profile, 42, scale);
                black_box(dev.replay_stream(&mut source).unwrap())
            });
        });
    }
    group.finish();
}

/// `LogHistogram::observe` (once per request for response and service
/// time) and `merge` of two histograms with every bucket occupied (the
/// per-device fold into a fleet or summary registry).
fn bench_log_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("log_histogram");
    // One value per bucket, underflow to overflow: 0.75 × 2^e lands in a
    // bucket of its own for every exponent from -20 to 45.
    let samples: Vec<f64> = (-20..=45).map(|e| 0.75 * 2f64.powi(e)).collect();

    group.bench_function("observe", |b| {
        let mut h = LogHistogram::new();
        let mut i = 0;
        b.iter(|| {
            black_box(&mut h).observe(samples[i]);
            i = (i + 1) % samples.len();
        });
    });

    group.bench_function("merge", |b| {
        let mut full = LogHistogram::new();
        for &v in &samples {
            full.observe(v);
        }
        let mut acc = full.clone();
        b.iter(|| black_box(&mut acc).merge(black_box(&full)));
    });

    group.finish();
}

criterion_group!(benches, bench_hot_path, bench_scale, bench_log_histogram);
criterion_main!(benches);
