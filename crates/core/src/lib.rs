//! Foundation types shared by every crate in the HPS eMMC reproduction.
//!
//! This crate provides the vocabulary the rest of the workspace speaks:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//!   the clock of the discrete-event eMMC simulator.
//! * [`Bytes`] — a byte-count newtype with `KiB`/`MiB` helpers; all request
//!   and page sizes in the workspace are expressed in it.
//! * [`IoRequest`] and [`Direction`] — the block-level request model that
//!   traces, workload generators, and the device simulator exchange.
//! * [`rng`] — deterministic random sampling (the whole reproduction is
//!   seeded; re-running any experiment yields identical numbers).
//! * [`stats`] — the fixed-edge histogram and sample quantiles behind the
//!   paper's bucketed figures.
//! * [`par`] — a scoped-thread work-stealing job pool; the experiment
//!   harness fans independent replays out through it while preserving
//!   result order (parallel runs stay byte-identical to serial ones).
//! * [`hash`] — a fast deterministic integer hasher ([`FxHashMap`]) for
//!   the FTL and cache hot paths.
//! * [`scratch`] — inline small-vectors and reusable buffer bundles that
//!   keep the per-request replay path free of heap allocations.
//!
//! # Example
//!
//! ```
//! use hps_core::{Bytes, Direction, IoRequest, SimTime};
//!
//! let req = IoRequest::new(0, SimTime::from_ms(5), Direction::Write, Bytes::kib(16), 4096);
//! assert_eq!(req.size.as_kib(), 16);
//! assert_eq!(req.page_span(Bytes::kib(4)), 4);
//! ```

pub mod audit;
pub mod error;
pub mod hash;
pub mod par;
pub mod request;
pub mod rng;
pub mod scratch;
pub mod stats;
pub mod time;
pub mod units;

pub use error::{Error, Result};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use request::{Direction, IoRequest, RequestId};
pub use rng::{derive_seed, SimRng};
pub use scratch::{InlineVec, ReplayScratch};
pub use stats::Histogram;
pub use time::{SimDuration, SimTime};
pub use units::Bytes;
