//! The full Android I/O stack pipeline (Fig. 1): application requests →
//! block layer (merge) → eMMC driver (pack) → device.
//!
//! [`IoStack`] batches requests into dispatch windows (the block layer's
//! plugging behaviour), merges contiguous neighbours, packs consecutive
//! writes into packed commands, and submits the result to an
//! [`EmmcDevice`]. It reports how the stack reshaped the request stream —
//! the mechanism behind the paper's observation that device-level requests
//! grow past the 512 KiB kernel limit (up to 16 MiB).

use crate::block_layer::BlockLayer;
use crate::driver::{pack_writes, PackedCommand};
use hps_core::{Bytes, IoRequest, Result, SimDuration, SimTime};
use hps_emmc::EmmcDevice;
use hps_trace::{Trace, TraceRecord};

/// Configuration of the stack's batching and packing behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StackConfig {
    /// Dispatch window: requests arriving within this span of the window's
    /// first request are merged/packed together (block-layer plugging).
    pub dispatch_window: SimDuration,
    /// Maximum member requests per packed command.
    pub max_packed_members: usize,
    /// Maximum payload per packed command (16 MiB for eMMC 4.5 packing —
    /// the largest write the paper's traces contain).
    pub max_packed_bytes: Bytes,
}

/// Default plug window: 3 ms, the block-layer plug/unplug horizon the
/// paper's traces were collected under.
const DEFAULT_DISPATCH_WINDOW: SimDuration = SimDuration::from_ms(3);

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            dispatch_window: DEFAULT_DISPATCH_WINDOW,
            max_packed_members: 32,
            max_packed_bytes: Bytes::mib(16),
        }
    }
}

/// Statistics of one stack run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StackStats {
    /// Requests the application submitted.
    pub submitted: u64,
    /// Requests after block-layer merging.
    pub after_merge: u64,
    /// Commands after driver packing.
    pub commands: u64,
    /// Largest single command payload.
    pub largest_command: Bytes,
}

/// The assembled stack.
#[derive(Debug)]
pub struct IoStack {
    config: StackConfig,
    stats: StackStats,
}

impl IoStack {
    /// Creates a stack with the given configuration.
    pub fn new(config: StackConfig) -> Self {
        IoStack {
            config,
            stats: StackStats::default(),
        }
    }

    /// Statistics of everything pushed through so far.
    pub fn stats(&self) -> StackStats {
        self.stats
    }

    /// Runs a whole trace through block layer, driver, and device,
    /// returning the *device-level* trace (one record per command, with
    /// replay timestamps filled in).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn run(&mut self, trace: &Trace, device: &mut EmmcDevice) -> Result<Trace> {
        let mut device_trace = Trace::new(format!("{}(stacked)", trace.name()));
        let mut window: Vec<IoRequest> = Vec::new();
        let mut window_start = SimTime::ZERO;
        let mut next_id = 0u64;

        let flush = |window: &mut Vec<IoRequest>,
                     device: &mut EmmcDevice,
                     out: &mut Trace,
                     next_id: &mut u64,
                     stats: &mut StackStats|
         -> Result<()> {
            if window.is_empty() {
                return Ok(());
            }
            let mut block_layer = BlockLayer::new();
            for &request in window.iter() {
                block_layer.submit(request);
            }
            let merged = block_layer.drain();
            stats.after_merge += merged.len() as u64;
            let commands = pack_writes(
                &merged,
                self.config.max_packed_members,
                self.config.max_packed_bytes,
            );
            if let Some(tel) = device.telemetry_mut() {
                tel.registry.add("stack.submitted", window.len() as u64);
                tel.registry.add("stack.windows", 1);
                tel.registry.add("stack.block_merges", block_layer.merges());
                tel.registry.add("stack.commands", commands.len() as u64);
            }
            for command in &commands {
                stats.commands += 1;
                stats.largest_command = stats.largest_command.max(command.total_size());
                let request = command_to_request(command, *next_id);
                *next_id += 1;
                if let Some(tel) = device.telemetry_mut() {
                    tel.registry.record(
                        "stack.command_kib",
                        command.total_size().as_u64() as f64 / 1024.0,
                    );
                    tel.registry
                        .record("stack.members_per_command", command.len() as f64);
                    if tel.recording() {
                        tel.emit(hps_obs::Event::instant(
                            request.arrival,
                            hps_obs::EventKind::Command {
                                members: command.len() as u32,
                                bytes: command.total_size().as_u64(),
                            },
                        ));
                    }
                }
                let completion = device.submit(&request)?;
                out.push(
                    TraceRecord::new(request)
                        .with_service_start(completion.service_start)
                        .with_finish(completion.finish),
                );
            }
            window.clear();
            Ok(())
        };

        for record in trace {
            let request = record.request;
            if !window.is_empty()
                && request.arrival.saturating_since(window_start) > self.config.dispatch_window
            {
                flush(
                    &mut window,
                    device,
                    &mut device_trace,
                    &mut next_id,
                    &mut self.stats,
                )?;
            }
            if window.is_empty() {
                window_start = request.arrival;
            }
            self.stats.submitted += 1;
            window.push(request);
        }
        flush(
            &mut window,
            device,
            &mut device_trace,
            &mut next_id,
            &mut self.stats,
        )?;
        Ok(device_trace)
    }
}

/// Collapses a packed command into the single device-level request the
/// BIOtracer would record: the arrival of its last member (the command is
/// issued when packing closes), the first member's address, the summed
/// size, and the shared direction.
fn command_to_request(command: &PackedCommand, id: u64) -> IoRequest {
    #[expect(clippy::expect_used, reason = "infallible by construction")]
    let first = command.members.first().expect("commands are non-empty");
    let arrival = command
        .members
        .iter()
        .map(|m| m.arrival)
        .fold(first.arrival, SimTime::max);
    IoRequest::new(
        id,
        arrival,
        first.direction,
        command.total_size(),
        first.lba,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::Direction;
    use hps_emmc::{DeviceConfig, PowerConfig, SchemeKind};

    fn device() -> EmmcDevice {
        let mut cfg = DeviceConfig::scaled(SchemeKind::Hps, 256, 64);
        cfg.power = PowerConfig::DISABLED;
        EmmcDevice::new(cfg).unwrap()
    }

    fn seq_write_trace(n: u64, gap_ms: u64) -> Trace {
        let mut t = Trace::new("seq");
        for i in 0..n {
            t.push_request(IoRequest::new(
                i,
                SimTime::from_ms(i * gap_ms),
                Direction::Write,
                Bytes::kib(4),
                i * 4096,
            ));
        }
        t
    }

    #[test]
    fn burst_of_sequential_writes_collapses_to_one_command() {
        // 16 sequential 4 KiB writes inside one dispatch window merge into
        // a single 64 KiB request, then a single command.
        let trace = seq_write_trace(16, 0);
        let mut stack = IoStack::new(StackConfig::default());
        let mut dev = device();
        let out = stack.run(&trace, &mut dev).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.records()[0].request.size, Bytes::kib(64));
        let stats = stack.stats();
        assert_eq!(stats.submitted, 16);
        assert_eq!(stats.after_merge, 1);
        assert_eq!(stats.commands, 1);
    }

    #[test]
    fn spaced_requests_pass_through_unchanged() {
        // 100 ms gaps exceed the window: no merging, no packing.
        let trace = seq_write_trace(5, 100);
        let mut stack = IoStack::new(StackConfig::default());
        let mut dev = device();
        let out = stack.run(&trace, &mut dev).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(stack.stats().after_merge, 5);
    }

    #[test]
    fn packing_exceeds_the_kernel_limit() {
        // 256 sequential 4 KiB writes in one burst: merging caps at 512 KiB
        // (kernel limit) but packing fuses the two merged requests.
        let trace = seq_write_trace(256, 0);
        let mut stack = IoStack::new(StackConfig::default());
        let mut dev = device();
        let out = stack.run(&trace, &mut dev).unwrap();
        assert_eq!(out.len(), 1, "packing fused the merged halves");
        assert_eq!(stack.stats().largest_command, Bytes::mib(1));
        assert!(stack.stats().largest_command > Bytes::kib(512));
    }

    #[test]
    fn device_trace_is_replayed_and_ordered() {
        let trace = seq_write_trace(40, 1);
        let mut stack = IoStack::new(StackConfig::default());
        let mut dev = device();
        let out = stack.run(&trace, &mut dev).unwrap();
        assert!(out.is_replayed());
        out.validate().unwrap();
    }
}
