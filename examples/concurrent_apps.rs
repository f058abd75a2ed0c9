//! Concurrent applications (Section III-D): compare a combo trace
//! generated from its own measured row with a true time-interleaved merge
//! of its two member applications, and check the paper's observation that
//! combo response times do not blow up.
//!
//! ```sh
//! cargo run --release --example concurrent_apps
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]

use hps::analysis::tables::{table_iii, table_iv};
use hps::emmc::{DeviceConfig, EmmcDevice, SchemeKind};
use hps::trace::TraceSummary;
use hps::workloads::combo::{all_combo_definitions, generate_combo, generate_merged};
use hps::workloads::generate;

fn replay(trace: &mut hps::trace::Trace) -> hps::emmc::ReplayMetrics {
    let mut device =
        EmmcDevice::new(DeviceConfig::real_device(SchemeKind::Ps4)).expect("Table V config");
    device.replay(trace).expect("fits the device")
}

fn main() {
    let defs = all_combo_definitions();
    let music_wb = &defs[0]; // Music while WebBrowsing

    // The combo as measured (its own Table III/IV row)...
    let mut measured = generate_combo(music_wb, 42);
    // ...and as a true interleaving of the two member streams.
    let mut merged = generate_merged(music_wb, 42);

    let m_measured = replay(&mut measured);
    let m_merged = replay(&mut merged);

    println!("== Music/WB, two reconstructions ==\n");
    let summaries = [TraceSummary::of(&measured), TraceSummary::of(&merged)];
    println!("{}", table_iii(&summaries).render());
    println!("{}", table_iv(&summaries).render());

    // The paper's point: running two applications concurrently does not
    // blow response times up — each member alone behaves similarly.
    let mut music = generate(&music_wb.member_a, 42);
    let mut web = generate(&music_wb.member_b, 42);
    let m_music = replay(&mut music);
    let m_web = replay(&mut web);
    println!(
        "mean response: combo (measured row) {:.2} ms | combo (merged) {:.2} ms | \
         Music alone {:.2} ms | WebBrowsing alone {:.2} ms",
        m_measured.mean_response_ms(),
        m_merged.mean_response_ms(),
        m_music.mean_response_ms(),
        m_web.mean_response_ms()
    );
    println!(
        "NoWait ratios: combo {:.0}% / merged {:.0}% — parallel request queues would \
         sit idle (Implication 1)",
        m_measured.nowait_pct(),
        m_merged.nowait_pct()
    );
}
