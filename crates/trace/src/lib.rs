//! Block-level I/O traces in the BIOtracer model.
//!
//! The paper's BIOtracer records three timestamps per request (Fig. 2):
//! arrival at the block layer, the moment the request is actually issued to
//! the device ("service start"), and completion. From those it derives the
//! quantities of Tables III and IV: response time (finish − arrival),
//! service time (finish − service start), wait time, the NoWait ratio, and
//! the spatial/temporal localities.
//!
//! * [`record`] — one trace record (request + timestamps).
//! * [`trace`] — an ordered collection of records with validation.
//! * [`source`] — streaming request sources ([`TraceSource`]), so replay
//!   does not require materializing a trace in memory.
//! * [`io`] — a plain-text CSV serialization so traces can be saved,
//!   inspected, and replayed.
//! * [`stats`] — every column of Table III ([`SizeStats`]) and Table IV
//!   ([`TimingStats`]).
//! * [`distributions`] — the bucketing conventions of Figs. 4, 5, and 6.
//! * [`summary`] — all of the above for one trace, kept as one
//!   [`TraceSummary`] so the trace can be dropped.

pub mod distributions;
pub mod io;
pub mod record;
pub mod source;
pub mod stats;
pub mod summary;
pub mod trace;

pub use distributions::{
    bucket_labels, interarrival_histogram, response_histogram, size_histogram,
    small_request_fraction, INTERARRIVAL_EDGES_MS, RESPONSE_EDGES_MS, SIZE_EDGES_KIB,
};
pub use record::TraceRecord;
pub use source::{TraceCursor, TraceSource};
pub use stats::{SizeStats, TimingStats};
pub use summary::TraceSummary;
pub use trace::Trace;
