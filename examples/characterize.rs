//! Characterize a workload the way Section III of the paper does: compute
//! its Table III/IV statistics and its Fig. 4/5/6 distributions, then save
//! the trace as CSV.
//!
//! ```sh
//! cargo run --release --example characterize [AppName]
//! ```
//!
//! `AppName` is any of the paper's 25 workloads (default: `Email`), e.g.
//! `Twitter`, `CameraVideo`, or a combo like `Music/WB`.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use hps::analysis::figures::{
    fig4_size_distributions, fig5_response_distributions, fig6_interarrival_distributions,
};
use hps::analysis::tables::{table_iii, table_iv};
use hps::emmc::{DeviceConfig, EmmcDevice, SchemeKind};
use hps::trace::io::write_trace;
use hps::trace::TraceSummary;
use hps::workloads::{by_name, generate};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Email".to_string());
    let profile = by_name(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let mut trace = generate(&profile, 42);

    // Replay on a real-device-like 4PS eMMC (write cache + die
    // interleaving) so the timing columns are populated.
    let mut device = EmmcDevice::new(DeviceConfig::real_device(SchemeKind::Ps4))?;
    let metrics = device.replay(&mut trace)?;

    let summaries = [TraceSummary::of(&trace)];
    println!("== Table III row ==\n{}", table_iii(&summaries).render());
    println!("== Table IV row ==\n{}", table_iv(&summaries).render());
    println!(
        "== Fig. 4 buckets (size, % per bucket) ==\n{}",
        fig4_size_distributions(&summaries).render()
    );
    println!(
        "== Fig. 5 buckets (response time) ==\n{}",
        fig5_response_distributions(&summaries).render()
    );
    println!(
        "== Fig. 6 buckets (inter-arrival) ==\n{}",
        fig6_interarrival_distributions(&summaries).render()
    );
    println!(
        "replay: NoWait {:.0}%, {} GC runs, {} power-mode switches",
        metrics.nowait_pct(),
        metrics.ftl.gc_runs,
        metrics.mode_switches
    );

    // Persist the replayed trace for external tooling.
    let path = format!("{}.trace.csv", name.replace('/', "_"));
    let file = std::fs::File::create(&path)?;
    write_trace(&trace, file)?;
    println!("trace written to {path}");
    Ok(())
}
