//! A tour of the Android I/O stack model (Fig. 1/Fig. 2 of the paper):
//! block-layer merging, driver-level packed commands, and the BIOtracer
//! overhead analysis of Section II-C.
//!
//! ```sh
//! cargo run --release --example io_stack_tour
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr)]

use hps::iostack::biotracer::{measure_overhead, BioTracer};
use hps::iostack::driver::pack_writes;
use hps::iostack::BlockLayer;
use hps::trace::TraceRecord;
use hps::workloads::{generate, profiles};
use hps_core::Bytes;

fn main() {
    // Generate a CameraVideo-style stream — sequential enough for merging
    // and packing to shine.
    let trace = generate(&profiles::CAMERA_VIDEO, 42);

    // 1. Block layer: contiguous requests merge (within the 512 KiB cap).
    let mut block_layer = BlockLayer::new();
    for record in trace.records().iter().take(2_000) {
        block_layer.submit(record.request);
    }
    let merged = block_layer.drain();
    println!(
        "block layer: {} submitted -> {} dispatched ({} merges, {:.1}% merge rate)",
        block_layer.submitted(),
        merged.len(),
        block_layer.merges(),
        block_layer.merge_rate_pct()
    );

    // 2. Driver: consecutive writes fuse into packed commands — this is how
    //    the traces show requests far above the 512 KiB kernel limit (the
    //    largest write in the paper's traces is 16 MiB).
    let packed = pack_writes(&merged, 32, Bytes::mib(16));
    let largest = packed
        .iter()
        .map(|c| c.total_size())
        .max()
        .unwrap_or(Bytes::ZERO);
    println!(
        "driver: {} requests -> {} packed commands (largest {largest})",
        merged.len(),
        packed.len()
    );

    // 3. BIOtracer: a 32 KiB record buffer flushes ~300 records at a time,
    //    each flush costing 5-7 extra I/Os.
    let mut tracer = BioTracer::new(42);
    for record in trace.records().iter().take(2_000) {
        tracer.record(TraceRecord::new(record.request));
    }
    tracer.flush();
    let report = tracer.overhead();
    println!(
        "BIOtracer: {} records, {} flushes, {} extra I/Os -> {:.2}% overhead",
        report.recorded,
        report.flushes,
        report.extra_ios,
        report.overhead_pct()
    );

    // The paper's Section II-C headline, over a long run:
    let long = measure_overhead(30_000, 42);
    println!(
        "long-run overhead: {:.2}% (paper: ~2%)",
        long.overhead_pct()
    );
}
