//! Fleet-scale parallel simulation: 10k–100k devices per run with
//! streaming cross-device aggregation.
//!
//! A single simulated device answers "how does this trace behave on this
//! eMMC?". Fleet simulation answers population questions: how do
//! response tails, write amplification, and projected endurance
//! *distribute* across a hundred thousand phones that differ in mapping
//! scheme, flash geometry, workload, over-provisioning headroom, and
//! accumulated wear?
//!
//! The crate is three layers:
//!
//! * [`spec`] — [`FleetSpec`], a distribution over devices; device `i`'s
//!   configuration is a pure function of `derive_seed(seed, i)`.
//! * [`run`] — the engine: a memoized trace cache, per-device replay,
//!   fixed-size sharding over `hps_core::par`, and a streaming reduction
//!   into one [`FleetAccum`] plus one tree-merged `MetricsSnapshot`.
//!   Byte-identical at any `--jobs`; flat RSS at any device count.
//! * [`record`]/[`report`] — the fixed-size per-device digest, the
//!   cross-device accumulator (percentiles-of-percentiles, scheme ×
//!   geometry breakdown, endurance fast-forward), and the deterministic
//!   plain-text report.

#![forbid(unsafe_code)]

pub mod record;
pub mod report;
pub mod run;
pub mod spec;

pub use record::{DeviceRecord, FleetAccum, GroupAccum, LIFE_DAYS_CAP};
pub use report::render_fleet_report;
pub use run::{
    build_trace_cache, run_device, run_fleet, run_fleet_jobs, FleetOutcome, TraceCache,
    SHARD_DEVICES,
};
pub use spec::{DeviceSetup, FleetSpec, GeometryClass, WearBand, DEFAULT_GEOMETRIES};
