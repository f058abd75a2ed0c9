//! Streaming event export: a [`Sink`] that writes each event to disk as it
//! is emitted instead of buffering the whole run in memory.
//!
//! A full `repro` replay emits hundreds of thousands of lifecycle events;
//! buffering them in a [`crate::VecSink`] costs memory proportional to the
//! trace length. [`JsonlStreamSink`] instead pushes every event through a
//! `BufWriter` straight into the JSONL exporter, so memory stays constant
//! and the file is usable even if the process dies mid-run.
//!
//! The sink is handed to [`crate::Telemetry::with_sink`] by value (boxed),
//! which makes it unreachable afterwards — progress is therefore observed
//! through a shared [`StreamStats`] handle cloned off before attaching.

use crate::event::Event;
use crate::jsonl::write_jsonl_event;
use crate::sink::Sink;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared counters for a [`JsonlStreamSink`]: how many events were written
/// and how many writes failed. Clone the handle before boxing the sink
/// into a `Telemetry`; reads are monotonic and lock-free.
#[derive(Clone, Debug, Default)]
pub struct StreamStats {
    inner: Arc<StreamCounters>,
}

#[derive(Debug, Default)]
struct StreamCounters {
    written: AtomicU64,
    errors: AtomicU64,
}

impl StreamStats {
    /// Events successfully written so far.
    pub fn written(&self) -> u64 {
        self.inner.written.load(Ordering::Relaxed)
    }

    /// Failed writes: events dropped by a failing write, plus one for a
    /// failed final flush on drop (whose buffered events never arrived).
    pub fn errors(&self) -> u64 {
        self.inner.errors.load(Ordering::Relaxed)
    }
}

/// A [`Sink`] that streams events as JSON lines through a `BufWriter`.
///
/// Write errors are counted (see [`StreamStats::errors`]) rather than
/// panicking — telemetry must never take the simulation down. The buffer
/// is flushed on drop, and a failed flush is counted too.
pub struct JsonlStreamSink<W: Write> {
    w: BufWriter<W>,
    stats: StreamStats,
}

impl JsonlStreamSink<File> {
    /// Creates (truncating) `path` and streams events into it.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Ok(JsonlStreamSink::new(File::create(path)?))
    }
}

impl<W: Write> JsonlStreamSink<W> {
    /// Wraps any writer in the streaming sink.
    pub fn new(w: W) -> Self {
        JsonlStreamSink {
            w: BufWriter::new(w),
            stats: StreamStats::default(),
        }
    }

    /// A handle onto the sink's counters, readable after the sink itself
    /// has been boxed into a `Telemetry`.
    pub fn stats(&self) -> StreamStats {
        self.stats.clone()
    }

    /// Flushes the buffer and returns how many events were written.
    ///
    /// # Errors
    ///
    /// Propagates the flush error.
    pub fn finish(mut self) -> std::io::Result<u64> {
        self.w.flush()?;
        Ok(self.stats.written())
    }
}

impl<W: Write> Sink for JsonlStreamSink<W> {
    fn record(&mut self, event: &Event) {
        match write_jsonl_event(event, &mut self.w) {
            Ok(()) => {
                self.stats.inner.written.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.stats.inner.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl<W: Write> Drop for JsonlStreamSink<W> {
    fn drop(&mut self) {
        // The sink usually dies inside a boxed Telemetry where no one can
        // call `finish`, so the stats handle is the only way to report it.
        if self.w.flush().is_err() {
            self.stats.inner.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::json;
    use crate::sink::Telemetry;
    use hps_core::SimTime;
    use std::sync::Mutex;

    /// A writer backed by shared storage, so the bytes stay reachable after
    /// the sink is boxed away.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn gc_pass(at_ns: u64) -> Event {
        Event::instant(
            SimTime::from_ns(at_ns),
            EventKind::GcPass { ops: 2, idle: true },
        )
    }

    #[test]
    fn streams_events_as_parseable_lines() {
        let buf = SharedBuf::default();
        let sink = JsonlStreamSink::new(buf.clone());
        let stats = sink.stats();
        let mut tel = Telemetry::with_sink(Box::new(sink));
        tel.emit(gc_pass(10));
        tel.emit(gc_pass(20));
        drop(tel); // flushes the BufWriter
        assert_eq!(stats.written(), 2);
        assert_eq!(stats.errors(), 0);
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("kind").unwrap().as_str(), Some("gc_pass"));
        assert_eq!(first.get("ts_ns").unwrap().as_f64(), Some(10.0));
    }

    #[test]
    fn write_errors_are_counted_not_fatal() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // Zero-capacity BufWriter still buffers; force pass-through by
        // writing more than the default buffer — simpler: record enough
        // events to overflow an 8 KiB buffer.
        let sink = JsonlStreamSink::new(Failing);
        let stats = sink.stats();
        let mut sink = sink;
        for i in 0..1000 {
            sink.record(&gc_pass(i));
        }
        assert_eq!(stats.written() + stats.errors(), 1000);
        assert!(stats.errors() > 0, "the failing writer must surface");
        drop(sink);
    }

    #[test]
    fn a_failed_final_flush_is_counted() {
        struct FailingFlush;
        impl Write for FailingFlush {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let sink = JsonlStreamSink::new(FailingFlush);
        let stats = sink.stats();
        let mut tel = Telemetry::with_sink(Box::new(sink));
        tel.emit(gc_pass(10));
        drop(tel);
        assert!(stats.errors() >= 1, "the failed flush must surface");
    }

    #[test]
    fn finish_flushes_and_reports_count() {
        let buf = SharedBuf::default();
        let mut sink = JsonlStreamSink::new(buf.clone());
        sink.record(&gc_pass(1));
        assert_eq!(sink.finish().unwrap(), 1);
        assert!(!buf.0.lock().unwrap().is_empty());
    }
}
