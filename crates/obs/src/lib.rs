//! Cross-layer telemetry for the eMMC reproduction.
//!
//! The paper's whole method rests on *seeing inside* the I/O stack —
//! BIOtracer exists because block-level behaviour is invisible from
//! userspace. This crate gives the simulator the same power over itself:
//!
//! * [`event`] — the request-lifecycle event model: arrival → queue →
//!   split → per-chunk flash op → completion, plus GC, cache, power, and
//!   I/O-stack events, all keyed by request id and simulated time;
//! * [`sink`] — the [`Sink`] trait events flow into, with a buffering
//!   [`VecSink`] and the no-op fast path (recording costs one branch when
//!   disabled);
//! * [`registry`] — [`MetricsRegistry`]: named counters and log-bucketed
//!   [`LogHistogram`]s, mergeable so parallel replays can aggregate;
//! * [`profile`] — the always-on, zero-allocation phase-accounting
//!   profiler: sampled [`RequestTimer`]/[`PhaseTimer`] guards attribute
//!   each request's host wall time to fixed stack phases;
//! * [`snapshot`] — [`MetricsSnapshot`]: point-in-time registry copies
//!   with a deterministic merge and canonical byte encoding, the
//!   primitive for fleet-scale aggregation;
//! * [`chrome`] — Chrome `trace_event` JSON export (open in Perfetto or
//!   `chrome://tracing`), one track per channel/die plus GC, stack, and
//!   request tracks;
//! * [`jsonl`] — a line-per-event JSON stream for ad-hoc analysis;
//! * [`stream`] — [`JsonlStreamSink`]: the same JSONL, written to disk
//!   through a `BufWriter` as events are emitted, so long replays never
//!   buffer their event stream in memory;
//! * [`summary`] — a plain-text registry report;
//! * [`table`] — deterministic fixed-width text tables, the renderer the
//!   fleet engine's cross-device reports are built from;
//! * [`json`] — the dependency-free JSON writer/parser behind the
//!   exporters (the build environment has no serde).
//!
//! The [`Telemetry`] bundle (registry + optional recorder) is what the
//! simulation layers carry: `hps-emmc` attaches one to a device,
//! `hps-iostack` records through it when present, and `hps-bench`'s
//! `repro`/`trace-tool` binaries expose it via `--trace-out` /
//! `--metrics-out`.

pub mod chrome;
pub mod diff;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod profile;
pub mod registry;
pub mod sink;
pub mod snapshot;
pub mod stream;
pub mod summary;
pub mod table;

pub use chrome::write_chrome_trace;
pub use diff::{diff_summaries, parse_summary, SummaryDiff, SummaryValue};
pub use event::{AckKind, Event, EventKind, OpClass, Track};
pub use jsonl::write_jsonl_event;
pub use profile::{Phase, PhaseTimer, ProfileReport, RequestTimer};
pub use registry::{CounterId, HistogramId, LogHistogram, Metric, MetricsRegistry};
pub use sink::{Sink, Telemetry, VecSink};
pub use snapshot::{merge_all, MetricsSnapshot, SnapshotTreeMerger};
pub use stream::{JsonlStreamSink, StreamStats};
pub use summary::render_summary;
pub use table::TextTable;
