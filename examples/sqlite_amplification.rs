//! SQLite-layer write amplification (top of the paper's Fig. 1 stack):
//! one application action becomes many block-level writes, and the journal
//! mode decides how many.
//!
//! ```sh
//! cargo run --release --example sqlite_amplification
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr)]

use hps::core::{Bytes, SimDuration, SimTime};
use hps::emmc::{DeviceConfig, EmmcDevice, PowerConfig, SchemeKind};
use hps::iostack::{IoStack, JournalMode, StackConfig, Transaction};
use hps::trace::Trace;

fn run_mode(mode: JournalMode) -> Result<(), Box<dyn std::error::Error>> {
    // 200 application actions, each dirtying 1-4 database pages — the
    // SQLite-heavy pattern behind Messaging/Twitter's small-write floods.
    let mut trace = Trace::new(format!("sqlite-{mode:?}"));
    let mut t = SimTime::ZERO;
    let mut id = 0;
    let mut logical = Bytes::ZERO;
    for action in 0..200u64 {
        let txn = Transaction {
            pages: 1 + action % 4,
            mode,
        };
        logical += txn.logical_bytes();
        for req in txn.requests(t, SimDuration::from_ms(1), id, action * 64) {
            id = req.id + 1;
            trace.push_request(req);
        }
        t += SimDuration::from_ms(50);
    }

    let mut cfg = DeviceConfig::table_v(SchemeKind::Hps);
    cfg.power = PowerConfig::DISABLED;
    let mut device = EmmcDevice::new(cfg)?;
    let mut stack = IoStack::new(StackConfig::default());
    let device_trace = stack.run(&trace, &mut device)?;
    let stats = stack.stats();
    let written = device.ftl().space().data_written();

    println!(
        "{mode:?}: {} app-level bytes -> {} block-level writes, {} written \
         ({:.2}x amplification), {} device commands",
        logical,
        trace.len(),
        written,
        written.as_u64() as f64 / logical.as_u64() as f64,
        stats.commands,
    );
    let _ = device_trace;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Why do smartphone traces look write-dominant and small-request heavy?");
    println!("Because every SQLite transaction multiplies its pages:\n");
    run_mode(JournalMode::Rollback)?;
    run_mode(JournalMode::Wal)?;
    println!(
        "\nRollback journaling roughly doubles-to-quadruples block-level writes \
         (Lee & Won's 'smart layers, dumb result'); WAL writes each page once."
    );
    Ok(())
}
