//! The Section V case study in miniature: replay a handful of the paper's
//! workloads on 4PS, 8PS, and HPS and print the Fig. 8/9 tables.
//!
//! ```sh
//! cargo run --release --example hps_case_study
//! ```
//!
//! (The full 18-trace version is `cargo run --release -p hps-bench --bin
//! repro -- fig8 fig9`.)

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]

use hps::analysis::casestudy::{fig8_table, fig9_table, run_case_study};
use hps::workloads::{by_name, generate};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Booting is the paper's best case for HPS (huge read bursts), Movie
    // its worst (mid-size reads), Music the best space-utilization case
    // (lots of lone 4 KiB writes that 8PS pads).
    let apps = ["Booting", "Movie", "Music", "Messaging"];
    let mut rows = Vec::new();
    for name in apps {
        let profile = by_name(name).expect("paper workload");
        let trace = generate(&profile, 42);
        eprintln!("replaying {name} on 4PS/8PS/HPS...");
        rows.push(run_case_study(&trace)?);
    }

    println!(
        "\nFig. 8 (mean response time):\n{}",
        fig8_table(&rows).render()
    );
    println!(
        "Fig. 9 (space utilization, normalized to 4PS):\n{}",
        fig9_table(&rows).render()
    );

    for row in &rows {
        println!(
            "{:<12} HPS vs 4PS: {:+.1}% MRT; HPS vs 8PS: {:+.1}% space",
            row.trace,
            row.hps_mrt_reduction_pct(),
            row.hps_util_gain_pct()
        );
    }
    Ok(())
}
