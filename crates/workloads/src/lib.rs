//! Reconstructed smartphone workloads.
//!
//! The paper's 25 Nexus 5 traces were never released, but its Tables III
//! and IV publish every marginal statistic that the evaluation consumes:
//! request counts, total bytes, read/write mixes, per-direction mean sizes,
//! maximum sizes, recording durations, localities, and the distribution
//! *shapes* of Figs. 4 and 6. This crate rebuilds each trace as a seeded
//! synthetic workload calibrated against those published numbers:
//!
//! * [`size`] — a discrete request-size model auto-calibrated to hit a
//!   target mean, 4 KiB fraction, and maximum (Fig. 4 / Table III);
//! * [`arrival`] — a bursty two-component lognormal inter-arrival model
//!   matched to the recording duration and request count (Fig. 6 /
//!   Table IV);
//! * [`address`] — an address model with tunable spatial (sequential-pair)
//!   and temporal (re-access) localities (Table IV);
//! * [`profile`] — the per-application parameter record;
//! * [`profiles`] — the 18 application profiles with the paper's numbers
//!   embedded, plus the 7 combo definitions;
//! * [`generator`] — turns a profile into a [`hps_trace::Trace`];
//! * [`stream`](mod@stream) — the same request sequence as a streaming
//!   [`hps_trace::TraceSource`], with trace length scaled by a runtime
//!   knob instead of bounded by memory;
//! * [`combo`] — merges two applications into a combo trace (Fig. 7);
//! * [`mix`] — weighted per-device workload sampling for fleet runs.
//!
//! Everything is deterministic: the same seed regenerates the same trace
//! byte-for-byte.

pub mod address;
pub mod arrival;
pub mod combo;
pub mod generator;
pub mod mix;
pub mod profile;
pub mod profiles;
pub mod size;
pub mod stream;

pub use combo::{generate_combo, ComboProfile};
pub use generator::generate;
pub use mix::WorkloadMix;
pub use profile::AppProfile;
pub use profiles::{all_combos, all_individual, by_name, COMBO_NAMES, INDIVIDUAL_NAMES};
pub use stream::{stream, TraceStream};
