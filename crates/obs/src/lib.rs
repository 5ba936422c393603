//! # lpvs-obs — observability for the LPVS pipeline
//!
//! Structured tracing spans, a metrics registry (counters, gauges,
//! latency histograms with quantile estimation), and text sinks
//! (Chrome trace export, Prometheus exposition) for the slot scheduler
//! and emulator. No external dependencies beyond the workspace's
//! vendored facades.
//!
//! ## Model
//!
//! One process-global recorder slot, in the style of the `log` crate:
//!
//! - [`init`] installs and enables a collecting [`Recorder`];
//! - instrumented code opens spans with [`span!`] and bumps metrics
//!   with [`inc`]/[`gauge_set`]/[`observe`];
//! - when recording is disabled — the default — every instrumented
//!   call site costs exactly **one relaxed atomic load** and touches
//!   nothing else ([`NoopRecorder`] regime);
//! - export with [`sink::events_to_chrome_trace`] and
//!   [`sink::render_prometheus`].
//!
//! ## Example
//!
//! ```
//! let recorder = lpvs_obs::init();
//! {
//!     let mut outer = lpvs_obs::span!("sched.slot", "devices" => 32.0);
//!     let _inner = lpvs_obs::span!("sched.phase1");
//!     lpvs_obs::inc("sched_runs_total");
//!     outer.record("tier", 0.0);
//! }
//! let snap = recorder.snapshot();
//! assert_eq!(snap.span_events, 2);
//! assert!(snap.metrics.histogram("sched_phase1_seconds").is_some());
//! lpvs_obs::set_enabled(false);
//! ```

pub mod dashboard;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod span;

pub use flight::{FlightEvent, FlightKind, FlightRing};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, SeriesKey,
};
pub use recorder::{NoopRecorder, ObsSnapshot, Record, Recorder};
pub use span::{
    current_thread_id, record_span, span_metric_name, SpanContext, SpanEvent, SpanGuard,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Arc<Recorder>> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NOOP: NoopRecorder = NoopRecorder;

/// The process-wide observation epoch: span `start_us` offsets are
/// measured from this monotonic instant (fixed on first use).
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Installs a fresh recorder if none exists, enables recording, and
/// returns the installed recorder. Idempotent; the convenient entry
/// point for examples and benches.
pub fn init() -> Arc<Recorder> {
    let recorder = GLOBAL.get_or_init(|| Arc::new(Recorder::new())).clone();
    set_enabled(true);
    recorder
}

/// The installed recorder, if any (enabled or not).
pub fn installed() -> Option<Arc<Recorder>> {
    GLOBAL.get().cloned()
}

/// Turns recording on or off. Disabling keeps collected telemetry and
/// returns instrumented call sites to the one-atomic-load fast path.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether recording is currently enabled. This is the single relaxed
/// atomic load every instrumented call site starts with.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The global recorder as a trait object: the installed [`Recorder`],
/// or the static [`NoopRecorder`] when none is installed.
pub fn global() -> &'static dyn Record {
    match GLOBAL.get() {
        Some(recorder) => recorder.as_ref(),
        None => &NOOP,
    }
}

/// Opens a span named `name`; prefer the [`span!`] macro. Returns an
/// inert guard when recording is disabled.
#[inline]
pub fn start_span(name: &'static str) -> SpanGuard {
    if enabled() {
        SpanGuard::open(name)
    } else {
        SpanGuard::noop()
    }
}

/// Opens a span parented under a [`SpanContext`] handed off from
/// another thread; prefer the [`span_in!`] macro. With `parent: None`
/// (the context was captured while recording was off, or outside any
/// span) this is [`start_span`]. Returns an inert guard when recording
/// is disabled.
#[inline]
pub fn start_span_with(name: &'static str, parent: Option<SpanContext>) -> SpanGuard {
    if !enabled() {
        SpanGuard::noop()
    } else if let Some(ctx) = parent {
        SpanGuard::open_in(name, ctx)
    } else {
        SpanGuard::open(name)
    }
}

/// Increments counter `name` by 1 (no-op when disabled).
#[inline]
pub fn inc(name: &str) {
    add(name, 1);
}

/// Adds `n` to counter `name` (no-op when disabled).
#[inline]
pub fn add(name: &str, n: u64) {
    if enabled() {
        if let Some(registry) = global().registry() {
            registry.counter(name).add(n);
        }
    }
}

/// Sets gauge `name` to `value` (no-op when disabled).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if enabled() {
        if let Some(registry) = global().registry() {
            registry.gauge(name).set(value);
        }
    }
}

/// Records `value` into histogram `name` (no-op when disabled).
#[inline]
pub fn observe(name: &str, value: f64) {
    if enabled() {
        if let Some(registry) = global().registry() {
            registry.histogram(name).record(value);
        }
    }
}

/// Increments the counter series `name{labels}` by 1 (no-op when
/// disabled). Labels must be low-cardinality (`shard`, `tier`,
/// `stage`) — never per-device values.
#[inline]
pub fn inc_labeled(name: &str, labels: &[(&str, &str)]) {
    add_labeled(name, labels, 1);
}

/// Adds `n` to the counter series `name{labels}` (no-op when disabled).
#[inline]
pub fn add_labeled(name: &str, labels: &[(&str, &str)], n: u64) {
    if enabled() {
        if let Some(registry) = global().registry() {
            registry.counter_labeled(name, labels).add(n);
        }
    }
}

/// Records `value` into the histogram series `name{labels}` (no-op
/// when disabled).
#[inline]
pub fn observe_labeled(name: &str, labels: &[(&str, &str)], value: f64) {
    if enabled() {
        if let Some(registry) = global().registry() {
            registry.histogram_labeled(name, labels).record(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    // The recorder slot is process-global and the test harness runs on
    // several threads, so every test that touches it serializes here
    // and starts from a clean recorder.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_clean_recorder<R>(f: impl FnOnce(&Recorder) -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let recorder = init();
        recorder.reset();
        let result = f(&recorder);
        set_enabled(false);
        recorder.reset();
        result
    }

    #[test]
    fn nested_spans_record_parentage_and_containment() {
        with_clean_recorder(|recorder| {
            {
                let _outer = span!("test.outer");
                std::thread::sleep(Duration::from_millis(1));
                {
                    let _inner = span!("test.inner");
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let events = recorder.events();
            assert_eq!(events.len(), 2);
            // Inner drops first, so it is recorded first.
            let (inner, outer) = (&events[0], &events[1]);
            assert_eq!(inner.name, "test.inner");
            assert_eq!(outer.name, "test.outer");
            assert_eq!(inner.parent, Some(outer.id));
            assert_eq!(outer.parent, None);
            assert!(outer.contains(inner), "child span must lie within its parent");
            assert!(inner.duration_us <= outer.duration_us);
        });
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        with_clean_recorder(|recorder| {
            {
                let _outer = span!("test.outer");
                drop(span!("test.a"));
                drop(span!("test.b"));
            }
            let events = recorder.events();
            let outer = events.iter().find(|e| e.name == "test.outer").unwrap();
            for name in ["test.a", "test.b"] {
                let child = events.iter().find(|e| e.name == name).unwrap();
                assert_eq!(child.parent, Some(outer.id));
            }
        });
    }

    #[test]
    fn span_fields_and_auto_histograms() {
        with_clean_recorder(|recorder| {
            {
                let mut s = span!("test.fielded", "devices" => 32.0);
                s.record("nodes", 57.0);
            }
            let events = recorder.events();
            assert_eq!(events[0].field("devices"), Some(32.0));
            assert_eq!(events[0].field("nodes"), Some(57.0));
            let snap = recorder.snapshot();
            let hist = snap.metrics.histogram("test_fielded_seconds").unwrap();
            assert_eq!(hist.count, 1);
        });
    }

    #[test]
    fn spans_on_other_threads_get_distinct_attribution() {
        with_clean_recorder(|recorder| {
            let _outer = span!("test.main");
            std::thread::spawn(|| {
                let _s = span!("test.worker");
            })
            .join()
            .unwrap();
            drop(span!("test.main2"));
            let events = recorder.events();
            let worker = events.iter().find(|e| e.name == "test.worker").unwrap();
            let main2 = events.iter().find(|e| e.name == "test.main2").unwrap();
            assert_ne!(worker.thread, main2.thread);
            // Parentage never leaks across threads *implicitly*: a bare
            // span on a fresh thread roots its own trace. Handoff is
            // explicit — see context_handoff_parents_across_threads.
            assert_eq!(worker.parent, None);
            assert_ne!(worker.trace, main2.trace);
        });
    }

    #[test]
    fn context_handoff_parents_across_threads() {
        with_clean_recorder(|recorder| {
            {
                let slot = span!("test.slot");
                let ctx = slot.context();
                assert!(ctx.is_some(), "recording is on, context must exist");
                std::thread::spawn(move || {
                    let mut solve = span_in!(ctx, "test.solve", "shard" => 1);
                    solve.record("devices", 4.0);
                    // Children on the worker thread nest under the
                    // handed-off span as usual.
                    drop(span!("test.solve.inner"));
                })
                .join()
                .unwrap();
            }
            let events = recorder.events();
            let slot = events.iter().find(|e| e.name == "test.slot").unwrap();
            let solve = events.iter().find(|e| e.name == "test.solve").unwrap();
            let inner = events.iter().find(|e| e.name == "test.solve.inner").unwrap();
            assert_eq!(solve.parent, Some(slot.id));
            assert_eq!(solve.trace, slot.trace);
            assert_ne!(solve.thread, slot.thread);
            assert_eq!(inner.parent, Some(solve.id));
            assert_eq!(inner.trace, slot.trace);
            assert_eq!(solve.field("shard"), Some(1.0));
        });
    }

    #[test]
    fn handoff_degrades_gracefully_when_disabled() {
        with_clean_recorder(|recorder| {
            set_enabled(false);
            let ghost = span!("test.ghost");
            assert_eq!(ghost.context(), None);
            // A None context (captured while off) opens a root span
            // once recording is back on.
            set_enabled(true);
            drop(span_in!(None, "test.rooted"));
            let events = recorder.events();
            let rooted = events.iter().find(|e| e.name == "test.rooted").unwrap();
            assert_eq!(rooted.parent, None);
        });
    }

    #[test]
    fn disabled_recording_emits_nothing() {
        with_clean_recorder(|recorder| {
            set_enabled(false);
            {
                let g = span!("test.ghost");
                assert!(!g.is_recording());
            }
            inc("ghost_total");
            gauge_set("ghost_gauge", 1.0);
            observe("ghost_seconds", 0.5);
            assert_eq!(recorder.event_count(), 0);
            let snap = recorder.snapshot();
            assert!(snap.metrics.counters.is_empty());
            assert!(snap.metrics.gauges.is_empty());
            assert!(snap.metrics.histograms.is_empty());
            set_enabled(true);
        });
    }

    #[test]
    fn free_helpers_write_through_to_the_registry() {
        with_clean_recorder(|recorder| {
            inc("runs_total");
            add("runs_total", 2);
            gauge_set("capacity", 8.0);
            observe("lat_seconds", 0.01);
            let snap = recorder.snapshot();
            assert_eq!(snap.metrics.counter("runs_total"), Some(3));
            assert_eq!(snap.metrics.gauge("capacity"), Some(8.0));
            assert_eq!(snap.metrics.histogram("lat_seconds").unwrap().count, 1);
        });
    }
}
