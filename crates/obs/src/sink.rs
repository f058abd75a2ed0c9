//! Event sinks and the [`Telemetry`] bundle the simulation layers carry.
//!
//! The hot path is `Option<&mut Telemetry>`: when the option is `None`
//! (the default everywhere) instrumented code pays a single branch and
//! allocates nothing. When present, counters always update; lifecycle
//! events are additionally recorded only if a recorder is attached, so a
//! metrics-only run skips event construction entirely
//! ([`Telemetry::recording`] gates the `Event` builders).

use crate::event::Event;
use crate::registry::MetricsRegistry;

#[cfg(any(debug_assertions, feature = "sanitize"))]
use hps_core::audit::SpanLedger;
use hps_core::audit::Violation;

/// Receives telemetry events as they are emitted.
pub trait Sink {
    /// Called once per event, in emission order.
    fn record(&mut self, event: &Event);
}

/// A sink that buffers events in memory for later export.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    events: Vec<Event>,
}

impl VecSink {
    /// An empty buffer.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The buffered events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

impl Sink for VecSink {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

enum Recorder {
    Off,
    Buffer(VecSink),
    Custom(Box<dyn Sink>),
}

/// The telemetry bundle: a metrics registry plus an optional event
/// recorder.
pub struct Telemetry {
    /// Named counters and histograms; always live while attached.
    pub registry: MetricsRegistry,
    recorder: Recorder,
    /// Span-balance auditor (debug builds + `sanitize` feature): every
    /// opened request-lifecycle span must be closed exactly once.
    #[cfg(any(debug_assertions, feature = "sanitize"))]
    ledger: SpanLedger,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::registry_only()
    }
}

impl Telemetry {
    /// Metrics only: counters/histograms update, events are dropped.
    pub fn registry_only() -> Self {
        Telemetry {
            registry: MetricsRegistry::new(),
            recorder: Recorder::Off,
            #[cfg(any(debug_assertions, feature = "sanitize"))]
            ledger: SpanLedger::new(),
        }
    }

    /// Metrics plus an in-memory event buffer (drain with
    /// [`Telemetry::take_events`]).
    pub fn tracing() -> Self {
        Telemetry {
            registry: MetricsRegistry::new(),
            recorder: Recorder::Buffer(VecSink::new()),
            #[cfg(any(debug_assertions, feature = "sanitize"))]
            ledger: SpanLedger::new(),
        }
    }

    /// Metrics plus a caller-supplied streaming sink.
    pub fn with_sink(sink: Box<dyn Sink>) -> Self {
        Telemetry {
            registry: MetricsRegistry::new(),
            recorder: Recorder::Custom(sink),
            #[cfg(any(debug_assertions, feature = "sanitize"))]
            ledger: SpanLedger::new(),
        }
    }

    /// `true` if an event recorder is attached. Instrumented code checks
    /// this before building `Event` values so metrics-only runs skip the
    /// allocation and formatting work.
    pub fn recording(&self) -> bool {
        !matches!(self.recorder, Recorder::Off)
    }

    /// Records one event if a recorder is attached.
    pub fn emit(&mut self, event: Event) {
        match &mut self.recorder {
            Recorder::Off => {}
            Recorder::Buffer(buf) => buf.record(&event),
            Recorder::Custom(sink) => sink.record(&event),
        }
    }

    /// Drains the buffered events; empty if the recorder is not the
    /// in-memory buffer.
    pub fn take_events(&mut self) -> Vec<Event> {
        match &mut self.recorder {
            Recorder::Buffer(buf) => std::mem::take(&mut buf.events),
            _ => Vec::new(),
        }
    }

    /// Marks a request-lifecycle span as opened in the balance ledger.
    ///
    /// A no-op shell in un-sanitized release builds; the instrumented
    /// layers call it unconditionally. Panics (via the auditor) if the
    /// same span id is opened twice without an intervening close.
    #[allow(unused_variables)]
    #[inline]
    pub fn span_open(&mut self, id: u64, now_ns: u64) {
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        hps_core::audit::enforce(self.ledger.try_open(id, now_ns));
    }

    /// Marks a request-lifecycle span as closed in the balance ledger.
    /// Panics (via the auditor) on a close without a matching open.
    #[allow(unused_variables)]
    #[inline]
    pub fn span_close(&mut self, id: u64, now_ns: u64) {
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        hps_core::audit::enforce(self.ledger.try_close(id, now_ns));
    }

    /// End-of-run balance check: every opened span must have been closed.
    ///
    /// Always `Ok` in un-sanitized release builds.
    ///
    /// # Errors
    ///
    /// Returns the [`Violation`] describing the first still-open span.
    #[allow(unused_variables)]
    pub fn audit_span_balance(&self, now_ns: u64) -> Result<(), Violation> {
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        return self.ledger.try_drained(now_ns);
        #[cfg(not(any(debug_assertions, feature = "sanitize")))]
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use hps_core::SimTime;

    fn gc_pass(at_ns: u64) -> Event {
        Event::instant(
            SimTime::from_ns(at_ns),
            EventKind::GcPass {
                ops: 1,
                idle: false,
            },
        )
    }

    #[test]
    fn registry_only_drops_events() {
        let mut tel = Telemetry::registry_only();
        assert!(!tel.recording());
        tel.emit(gc_pass(5));
        assert!(tel.take_events().is_empty());
    }

    #[test]
    fn tracing_buffers_in_order() {
        let mut tel = Telemetry::tracing();
        assert!(tel.recording());
        tel.emit(gc_pass(5));
        tel.emit(gc_pass(9));
        let events = tel.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].start, SimTime::from_ns(5));
        assert_eq!(events[1].start, SimTime::from_ns(9));
        assert!(tel.take_events().is_empty());
    }

    #[test]
    fn custom_sink_receives_events() {
        struct Count(u32);
        impl Sink for Count {
            fn record(&mut self, _event: &Event) {
                self.0 += 1;
            }
        }
        let mut counting = Telemetry::with_sink(Box::new(Count(0)));
        assert!(counting.recording());
        counting.emit(gc_pass(1));
        counting.emit(gc_pass(2));
        // The sink is owned by the telemetry; we can only observe via
        // behaviourally visible effects, so this test just exercises the path.
        assert!(counting.take_events().is_empty());
    }
}
