//! In-memory spans for the traced run, written out as Chrome trace JSON.
//!
//! A span is a timed call into one layer: its name, start, end, the span
//! that caused it, and the id of the request it belongs to. The traced
//! run keeps every 64th request's spans (and every span around coarser
//! calls) from its first traced pass only, and writes them when the run
//! ends. Load the file in Perfetto or `chrome://tracing`.
//!
//! The span buffer is allocated once, up front, and recording stops when
//! it is full: the recorder must not allocate inside the windows the
//! counting allocator measures.

use std::time::Instant;

/// Keep the spans of one request in this many.
pub const REQUEST_STRIDE: u64 = 64;

/// Spans kept per run (about 3.5 MiB).
const CAPACITY: usize = 1 << 16;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// Span recorder for one run.
pub struct Tracer {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
    requests_seen: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            recording: true,
            spans: Vec::with_capacity(CAPACITY),
            requests_seen: 0,
        }
    }

    /// Nanoseconds from the recorder's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Stops keeping new spans (call after the first traced pass).
    pub fn stop_recording(&mut self) {
        self.recording = false;
    }

    /// Records a finished span; returns its index when kept.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.recording || self.spans.len() == CAPACITY {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that [`Tracer::close`] finishes; children recorded in
    /// between can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.span(name, now, now, parent, None)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Counts one request and returns its run-wide id when its spans are
    /// to be kept.
    pub fn sample_request(&mut self) -> Option<u64> {
        let id = self.requests_seen;
        self.requests_seen += 1;
        (self.recording && id.is_multiple_of(REQUEST_STRIDE)).then_some(id)
    }

    /// Writes the kept spans as Chrome trace JSON ("X" complete events on
    /// one thread; nesting follows from the times, and each event's args
    /// name its parent span and request).
    pub fn write_chrome(&self, mut out: impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| {
                format!("\"{}\"", self.spans[p].name)
            });
            // Names are this binary's own identifiers: no escaping needed.
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{request}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_parses_and_keeps_every_64th_request() {
        let mut t = Tracer::new();
        let pass = t.open("pass", None);
        let kept: Vec<u64> = (0..130).filter_map(|_| t.sample_request()).collect();
        assert_eq!(kept, vec![0, 64, 128]);
        let now = Instant::now();
        t.span("emmc.submit", now, now, pass, Some(64));
        t.close(pass);
        let mut bytes = Vec::new();
        t.write_chrome(&mut bytes).expect("write trace");
        let text = String::from_utf8(bytes).expect("utf-8 trace");
        let doc = hps_obs::json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_str()),
            Some("pass")
        );
        t.stop_recording();
        assert_eq!(t.sample_request(), None);
    }
}
