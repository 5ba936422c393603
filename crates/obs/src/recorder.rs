//! Recorders: where spans and metrics go.
//!
//! The crate keeps one process-global recorder slot, guarded by a
//! relaxed [`AtomicBool`](std::sync::atomic::AtomicBool) so that every instrumented call site pays
//! exactly one atomic load when recording is disabled (the
//! [`NoopRecorder`] regime). [`init`](crate::init) swaps in a
//! collecting [`Recorder`]; [`set_enabled`](crate::set_enabled) toggles
//! collection without losing what was already gathered.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::span::{span_metric_name, SpanEvent};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Destination for completed spans and home of the metrics registry.
///
/// Implemented by the collecting [`Recorder`] and the [`NoopRecorder`];
/// instrumented code only ever talks to `dyn Record` through
/// [`crate::global`].
pub trait Record: Send + Sync {
    /// Accepts one completed span.
    fn record_span(&self, event: SpanEvent);
    /// The metrics registry, if this recorder has one.
    fn registry(&self) -> Option<&MetricsRegistry>;
}

/// The disabled recorder: drops everything, owns nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Record for NoopRecorder {
    fn record_span(&self, _event: SpanEvent) {}

    fn registry(&self) -> Option<&MetricsRegistry> {
        None
    }
}

/// A thread-safe collecting recorder: spans into a vector, durations
/// into per-span-name latency histograms, metrics into a
/// [`MetricsRegistry`].
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<SpanEvent>>,
    metrics: MetricsRegistry,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of the span events collected so far.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.lock().clone()
    }

    /// Removes and returns the collected span events.
    pub fn drain_events(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Number of span events collected so far.
    pub fn event_count(&self) -> usize {
        self.events.lock().len()
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Immutable summary of everything collected so far.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            span_events: self.event_count(),
            metrics: self.metrics.snapshot(),
        }
    }

    /// Clears events and metrics (fresh start between runs).
    pub fn reset(&self) {
        self.events.lock().clear();
        self.metrics.reset();
    }
}

impl Record for Recorder {
    fn record_span(&self, event: SpanEvent) {
        self.metrics
            .histogram(&span_metric_name(&event.name))
            .record(event.duration_us as f64 / 1e6);
        self.events.lock().push(event);
    }

    fn registry(&self) -> Option<&MetricsRegistry> {
        Some(&self.metrics)
    }
}

/// Summary of one observation window, embeddable in reports.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Span events collected (the full stream stays on the recorder;
    /// export it with [`crate::sink::events_to_chrome_trace`]).
    pub span_events: usize,
    /// Every counter, gauge, and histogram at snapshot time.
    pub metrics: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, duration_us: u64) -> SpanEvent {
        SpanEvent {
            name: name.into(),
            trace: 1,
            id: 1,
            parent: None,
            thread: 1,
            start_us: 0,
            duration_us,
            fields: vec![],
        }
    }

    #[test]
    fn recorder_collects_spans_and_derives_latency_histograms() {
        let r = Recorder::new();
        r.record_span(event("sched.phase1", 1_000));
        r.record_span(event("sched.phase1", 3_000));
        r.record_span(event("sched.phase2", 500));
        assert_eq!(r.event_count(), 3);
        let snap = r.snapshot();
        assert_eq!(snap.span_events, 3);
        let h = snap.metrics.histogram("sched_phase1_seconds").unwrap();
        assert_eq!(h.count, 2);
        assert!((h.sum - 0.004).abs() < 1e-9);
        assert_eq!(snap.metrics.histogram("sched_phase2_seconds").unwrap().count, 1);
    }

    #[test]
    fn drain_empties_reset_clears() {
        let r = Recorder::new();
        r.record_span(event("a", 1));
        r.metrics().counter("c").inc();
        assert_eq!(r.drain_events().len(), 1);
        assert_eq!(r.event_count(), 0);
        // The drain keeps the span-folded histogram; the reset does not.
        assert_eq!(r.snapshot().metrics.histogram("a_seconds").map(|h| h.count), Some(1));
        r.reset();
        assert!(r.snapshot().metrics.counters.is_empty());
        assert!(r.snapshot().metrics.histograms.is_empty());
    }

    #[test]
    fn noop_recorder_drops_everything() {
        let noop = NoopRecorder;
        noop.record_span(event("a", 1));
        assert!(noop.registry().is_none());
    }
}
