//! Quickstart: generate a smartphone workload, replay it on the three
//! page-size schemes, and compare them.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr)]

use hps::emmc::{DeviceConfig, EmmcDevice, SchemeKind};
use hps::workloads::{generate, profiles};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Reconstruct the paper's Twitter trace (13,807 requests, ~14 min of
    //    timeline) from its published statistics. Same seed, same trace.
    let trace = generate(&profiles::TWITTER, 42);
    println!("workload: {trace}");

    // 2. Replay it on each Table V device: pure 4 KiB pages, pure 8 KiB
    //    pages, and the paper's hybrid-page-size scheme.
    println!(
        "\n{:<8} {:>12} {:>12} {:>14}",
        "scheme", "MRT (ms)", "serv (ms)", "space util (%)"
    );
    let mut results = Vec::new();
    for scheme in SchemeKind::ALL {
        let mut device = EmmcDevice::new(DeviceConfig::table_v(scheme))?;
        let mut run = trace.clone();
        let metrics = device.replay(&mut run)?;
        println!(
            "{:<8} {:>12.3} {:>12.3} {:>14.1}",
            scheme.label(),
            metrics.mean_response_ms(),
            metrics.mean_service_ms(),
            metrics.space_utilization() * 100.0
        );
        results.push(metrics);
    }

    // 3. The paper's two headline comparisons.
    let (ps4, ps8, hps) = (&results[0], &results[1], &results[2]);
    println!(
        "\nHPS cuts mean response time by {:.1}% vs 4PS (8PS: {:.1}%)",
        hps.mrt_reduction_vs(ps4),
        ps8.mrt_reduction_vs(ps4)
    );
    println!(
        "HPS improves space utilization by {:.1}% vs 8PS while matching 4PS",
        hps.utilization_gain_vs(ps8)
    );
    Ok(())
}
