//! Structured tracing spans with monotonic timing and nesting.
//!
//! A span measures one stage of the pipeline. Opening one costs a
//! single relaxed atomic load when recording is disabled; when enabled,
//! the [`SpanGuard`] captures a monotonic start time, tracks its parent
//! through a thread-local scope stack, and on drop emits a
//! [`SpanEvent`] to the installed recorder — which also folds the
//! duration into the span's latency histogram (`sched.phase1` →
//! `sched_phase1_seconds`).
//!
//! ## Causality
//!
//! Every span belongs to a **trace**: a root span (no enclosing span)
//! mints a fresh trace id, and children inherit it through the
//! thread-local stack. Parentage never leaks across threads
//! *implicitly* — a bare [`crate::span!`] on a new thread starts a new
//! trace — but it can be handed off *deliberately*: capture a
//! [`SpanContext`] with [`SpanGuard::context`], ship it across the
//! channel hop, and open the remote span with
//! [`crate::start_span_with`]. That is how shard-worker solve spans
//! stay children of the hub's slot span. A span timed elsewhere is
//! recorded after the fact with [`crate::record_span`].

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A portable reference to an open span: the pair of ids a child span
/// needs to attach to it from another thread.
///
/// Capture one with [`SpanGuard::context`],
/// send it across a channel, and open the remote child with
/// [`crate::start_span_with`]. `Copy`, 16 bytes, freely shippable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpanContext {
    /// Trace id shared by every span descended from the same root.
    pub trace: u64,
    /// Id of the span that will become the remote child's parent.
    pub span: u64,
}

/// One completed span, as collected by the recorder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Span name from the taxonomy (dot-separated, e.g. `sched.phase1`).
    pub name: String,
    /// Trace id: shared by every span causally descended from the same
    /// root span, across threads.
    pub trace: u64,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span (same thread, or handed off across
    /// threads via [`SpanContext`]), if any.
    pub parent: Option<u64>,
    /// Small dense id of the recording thread.
    pub thread: u64,
    /// Start offset from the observation epoch, in microseconds.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub duration_us: u64,
    /// Numeric attachments recorded while the span was open
    /// (solver node counts, device counts, …).
    pub fields: Vec<(String, f64)>,
}

impl SpanEvent {
    /// End offset from the observation epoch, in microseconds.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.duration_us
    }

    /// Value of a named field, if recorded.
    pub fn field(&self, key: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Whether `other` is temporally contained in `self` (same thread,
    /// start-to-end interval inside this span's interval).
    pub fn contains(&self, other: &SpanEvent) -> bool {
        self.thread == other.thread
            && self.start_us <= other.start_us
            && other.end_us() <= self.end_us()
    }
}

/// The Prometheus-style latency-histogram name derived from a span
/// name: dots become underscores and `_seconds` is appended.
pub fn span_metric_name(span_name: &str) -> String {
    let mut name: String = span_name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    name.push_str("_seconds");
    name
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    // Each entry is the (span id, trace id) of an open span on this
    // thread; children read their parent and trace from the top.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The context of the innermost span open on this thread, if any.
pub(crate) fn current_context() -> Option<SpanContext> {
    SPAN_STACK.with(|stack| stack.borrow().last().map(|&(span, trace)| SpanContext { trace, span }))
}

/// Dense id of the current thread (for span attribution).
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    trace: u64,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    fields: Vec<(String, f64)>,
}

/// RAII guard for an open span; emits a [`SpanEvent`] on drop.
///
/// Obtained from [`crate::span!`] or [`crate::start_span`]. When recording is
/// disabled the guard is inert and every method is a no-op.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

impl SpanGuard {
    /// An inert guard (recording disabled).
    pub(crate) fn noop() -> Self {
        Self { inner: None }
    }

    pub(crate) fn open(name: &'static str) -> Self {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let (parent, trace) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let (parent, trace) = match stack.last().copied() {
                Some((parent, trace)) => (Some(parent), trace),
                // Root span: mint a fresh trace.
                None => (None, NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)),
            };
            stack.push((id, trace));
            (parent, trace)
        });
        Self {
            inner: Some(ActiveSpan {
                name,
                trace,
                id,
                parent,
                start: Instant::now(),
                fields: Vec::new(),
            }),
        }
    }

    /// Opens a span parented under `ctx` — the deliberate cross-thread
    /// handoff. The new span joins `ctx`'s trace, and spans opened
    /// below it on this thread nest under it as usual.
    pub(crate) fn open_in(name: &'static str, ctx: SpanContext) -> Self {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|stack| stack.borrow_mut().push((id, ctx.trace)));
        Self {
            inner: Some(ActiveSpan {
                name,
                trace: ctx.trace,
                id,
                parent: Some(ctx.span),
                start: Instant::now(),
                fields: Vec::new(),
            }),
        }
    }

    /// Whether this guard will emit an event.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// The context other threads need to parent their spans under this
    /// one. `None` when the guard is inert (recording disabled) — pass
    /// it through [`crate::start_span_with`], which degrades to a root
    /// span on the receiving side.
    pub fn context(&self) -> Option<SpanContext> {
        self.inner.as_ref().map(|active| SpanContext {
            trace: active.trace,
            span: active.id,
        })
    }

    /// Attaches a numeric field to the span (no-op when inert).
    pub fn record(&mut self, key: &str, value: f64) {
        if let Some(active) = &mut self.inner {
            active.fields.push((key.to_owned(), value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else { return };
        let end = Instant::now();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // The guard discipline (RAII, one thread) makes this span
            // the top of the stack; truncate defensively in case a
            // nested guard leaked across a panic boundary.
            if let Some(pos) = stack.iter().rposition(|&(id, _)| id == active.id) {
                stack.truncate(pos);
            }
        });
        let ctx = SpanContext { trace: active.trace, span: active.id };
        emit(active.name, ctx, active.parent, active.start, end, active.fields);
    }
}

/// Records the span `ctx` names, `start..end`, on this thread.
fn emit(name: &'static str, ctx: SpanContext, parent: Option<u64>, start: Instant, end: Instant, fields: Vec<(String, f64)>) {
    let micros = |d: std::time::Duration| d.as_micros().min(u64::MAX as u128) as u64;
    crate::global().record_span(SpanEvent {
        name: name.to_owned(),
        trace: ctx.trace,
        id: ctx.span,
        parent,
        thread: current_thread_id(),
        start_us: micros(start.duration_since(crate::epoch())),
        duration_us: micros(end.saturating_duration_since(start)),
        fields,
    });
}

/// Records a span timed elsewhere, `start..end` on this thread, under
/// `parent` or else the span open here, as a guard open over it would
/// have; returns its context for the spans inside it (`None` when off).
pub fn record_span(
    name: &'static str,
    parent: Option<SpanContext>,
    start: Instant,
    end: Instant,
    fields: Vec<(String, f64)>,
) -> Option<SpanContext> {
    if !crate::enabled() {
        return None;
    }
    let parent = parent.or_else(current_context);
    let trace = parent.map_or_else(|| NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed), |p| p.trace);
    let ctx = SpanContext { trace, span: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed) };
    emit(name, ctx, parent.map(|p| p.span), start, end, fields);
    Some(ctx)
}

/// Opens a span: `span!("sched.phase1")`, optionally with initial
/// fields: `span!("sched.phase1", "devices" => n as f64)`. Returns a
/// [`SpanGuard`]; the span closes (and is recorded) when the guard
/// drops. Costs one atomic load when recording is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::start_span($name)
    };
    ($name:expr, $($key:literal => $value:expr),+ $(,)?) => {{
        let mut guard = $crate::start_span($name);
        $(guard.record($key, ($value) as f64);)+
        guard
    }};
}

/// Opens a span parented under a shipped [`SpanContext`]:
/// `span_in!(ctx, "runtime.solve", "shard" => s)`. `ctx` is an
/// `Option<SpanContext>` — `None` (recording was off when the context
/// was captured, or there was no enclosing span) opens an ordinary
/// root span instead, so call sites never need to branch.
#[macro_export]
macro_rules! span_in {
    ($ctx:expr, $name:expr) => {
        $crate::start_span_with($name, $ctx)
    };
    ($ctx:expr, $name:expr, $($key:literal => $value:expr),+ $(,)?) => {{
        let mut guard = $crate::start_span_with($name, $ctx);
        $(guard.record($key, ($value) as f64);)+
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_derivation() {
        assert_eq!(span_metric_name("sched.phase1"), "sched_phase1_seconds");
        assert_eq!(span_metric_name("emu.slot"), "emu_slot_seconds");
        assert_eq!(span_metric_name("plain"), "plain_seconds");
    }

    #[test]
    fn event_accessors() {
        let e = SpanEvent {
            name: "a".into(),
            trace: 1,
            id: 1,
            parent: None,
            thread: 1,
            start_us: 10,
            duration_us: 5,
            fields: vec![("n".into(), 3.0)],
        };
        assert_eq!(e.end_us(), 15);
        assert_eq!(e.field("n"), Some(3.0));
        assert_eq!(e.field("missing"), None);
    }

    #[test]
    fn containment_requires_same_thread() {
        let outer = SpanEvent {
            name: "outer".into(),
            trace: 1,
            id: 1,
            parent: None,
            thread: 1,
            start_us: 0,
            duration_us: 100,
            fields: vec![],
        };
        let inner = SpanEvent {
            name: "inner".into(),
            trace: 1,
            id: 2,
            parent: Some(1),
            thread: 1,
            start_us: 10,
            duration_us: 50,
            fields: vec![],
        };
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        let other_thread = SpanEvent { thread: 2, ..inner };
        assert!(!outer.contains(&other_thread));
    }

    #[test]
    fn inert_guard_is_free_of_side_effects() {
        let mut g = SpanGuard::noop();
        assert!(!g.is_recording());
        g.record("x", 1.0);
        drop(g);
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
    }
}
