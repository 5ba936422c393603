//! Telemetry sinks: Chrome/Perfetto trace-event JSON for spans, and
//! Prometheus text exposition for metrics.
//!
//! All formats are plain text so a run's telemetry can be inspected
//! with standard tools (`jq`, `promtool`, the Perfetto UI, a text
//! editor) without any LPVS-specific tooling.

use crate::json::Json;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot, SeriesKey};
use crate::span::SpanEvent;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Renders span events as Chrome trace-event JSON — the format the
/// Perfetto UI (<https://ui.perfetto.dev>) and `chrome://tracing` load
/// directly. Each span becomes one complete (`"ph":"X"`) event with
/// microsecond `ts`/`dur`, the recording thread as `tid`, and the
/// trace/span/parent ids plus every recorded field under `args`, so a
/// pipelined run is visually debuggable stage-by-stage with causal
/// (trace) attribution intact across threads.
pub fn events_to_chrome_trace(events: &[SpanEvent]) -> String {
    let mut items: Vec<Json> = Vec::with_capacity(events.len() + 8);
    // Metadata events name the rows after our dense thread ids.
    let threads: BTreeSet<u64> = events.iter().map(|e| e.thread).collect();
    for tid in threads {
        items.push(Json::obj([
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
            (
                "args",
                Json::obj([("name", Json::Str(format!("obs-thread-{tid}")))]),
            ),
        ]));
    }
    for event in events {
        let mut args = vec![
            ("trace".to_owned(), Json::Num(event.trace as f64)),
            ("span".to_owned(), Json::Num(event.id as f64)),
        ];
        if let Some(parent) = event.parent {
            args.push(("parent".to_owned(), Json::Num(parent as f64)));
        }
        for (key, value) in &event.fields {
            args.push((key.clone(), Json::Num(*value)));
        }
        items.push(Json::obj([
            ("name", Json::Str(event.name.clone())),
            ("cat", Json::Str("lpvs".into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num(event.start_us as f64)),
            ("dur", Json::Num(event.duration_us as f64)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(event.thread as f64)),
            ("args", Json::Obj(args.into_iter().collect())),
        ]));
    }
    Json::obj([("traceEvents", Json::Arr(items))]).to_string()
}

/// Renders a metrics snapshot in the Prometheus text exposition
/// format: `# TYPE` headers (once per metric name), one line per
/// labeled series, cumulative `_bucket{…,le=...}` lines and `_sum` /
/// `_count` per histogram series. Label values are escaped per the
/// exposition rules; non-finite gauge values render as `NaN` /
/// `+Inf` / `-Inf`.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    // Snapshots are sorted by key, so every series of one name is
    // contiguous and gets exactly one TYPE header.
    fn fresh(last: &mut Option<String>, key: &SeriesKey) -> bool {
        let new = last.as_deref() != Some(key.name.as_str());
        *last = Some(key.name.clone());
        new
    }
    let mut out = String::new();
    let mut last: Option<String> = None;
    for (key, value) in &snapshot.counters {
        if fresh(&mut last, key) {
            let _ = writeln!(out, "# TYPE {} counter", key.name);
        }
        let _ = writeln!(out, "{}{} {value}", key.name, key.label_block(&[]));
    }
    last = None;
    for (key, value) in &snapshot.gauges {
        if fresh(&mut last, key) {
            let _ = writeln!(out, "# TYPE {} gauge", key.name);
        }
        let _ = writeln!(out, "{}{} {}", key.name, key.label_block(&[]), format_value(*value));
    }
    last = None;
    for (key, hist) in &snapshot.histograms {
        if fresh(&mut last, key) {
            let _ = writeln!(out, "# TYPE {} histogram", key.name);
        }
        render_histogram(&mut out, key, hist);
    }
    out
}

fn render_histogram(out: &mut String, key: &SeriesKey, hist: &HistogramSnapshot) {
    let name = &key.name;
    let mut cumulative = 0u64;
    for (bound, count) in hist.bounds.iter().zip(&hist.buckets) {
        cumulative += count;
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            key.label_block(&[("le", &format_value(*bound))])
        );
    }
    let _ = writeln!(out, "{name}_bucket{} {}", key.label_block(&[("le", "+Inf")]), hist.count);
    let _ = writeln!(out, "{name}_sum{} {}", key.label_block(&[]), format_value(hist.sum));
    let _ = writeln!(out, "{name}_count{} {}", key.label_block(&[]), hist.count);
}

/// Prometheus float formatting: plain decimal where exact, scientific
/// for the log-spaced bucket bounds, and the exposition-format tokens
/// `NaN` / `+Inf` / `-Inf` for non-finite values (a gauge may
/// legitimately hold them; they must not leak as invalid JSON-ish
/// text).
fn format_value(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_owned()
    } else if value == f64::INFINITY {
        "+Inf".to_owned()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_events() -> Vec<SpanEvent> {
        vec![
            SpanEvent {
                name: "emu.slot".into(),
                trace: 9,
                id: 1,
                parent: None,
                thread: 1,
                start_us: 0,
                duration_us: 900,
                fields: vec![("slot".into(), 0.0)],
            },
            SpanEvent {
                name: "sched.phase1".into(),
                trace: 9,
                id: 2,
                parent: Some(1),
                thread: 2,
                start_us: 100,
                duration_us: 400,
                fields: vec![("devices".into(), 32.0), ("nodes".into(), 57.0)],
            },
        ]
    }

    #[test]
    fn prometheus_exposition_shape() {
        let registry = MetricsRegistry::new();
        registry.counter("sched_runs_total").add(3);
        registry.gauge("edge_brownout_factor").set(0.75);
        let h = registry.histogram("sched_phase1_seconds");
        h.record(0.002);
        h.record(0.004);
        let text = render_prometheus(&registry.snapshot());

        assert!(text.contains("# TYPE sched_runs_total counter\nsched_runs_total 3\n"));
        assert!(text.contains("# TYPE edge_brownout_factor gauge\nedge_brownout_factor 0.75\n"));
        assert!(text.contains("# TYPE sched_phase1_seconds histogram\n"));
        assert!(text.contains("sched_phase1_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("sched_phase1_seconds_count 2\n"));
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("sched_phase1_seconds_sum"))
            .unwrap();
        let sum: f64 = sum_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!((sum - 0.006).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_export_shape() {
        let events = sample_events();
        let text = events_to_chrome_trace(&events);
        let doc = Json::parse(&text).unwrap();
        let items = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 2 thread-name metadata events + 2 span events.
        assert_eq!(items.len(), 4);
        let metas: Vec<_> = items
            .iter()
            .filter(|i| i.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2);
        let slot = items
            .iter()
            .find(|i| i.get("name").and_then(Json::as_str) == Some("emu.slot"))
            .unwrap();
        assert_eq!(slot.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(slot.get("ts").and_then(Json::as_u64), Some(0));
        assert_eq!(slot.get("dur").and_then(Json::as_u64), Some(900));
        assert_eq!(slot.get("tid").and_then(Json::as_u64), Some(1));
        let phase1 = items
            .iter()
            .find(|i| i.get("name").and_then(Json::as_str) == Some("sched.phase1"))
            .unwrap();
        let args = phase1.get("args").unwrap();
        assert_eq!(args.get("trace").and_then(Json::as_u64), Some(9));
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(1));
        assert_eq!(args.get("devices").and_then(Json::as_f64), Some(32.0));
    }

    #[test]
    fn prometheus_renders_labeled_series_under_one_type_header() {
        let registry = MetricsRegistry::new();
        registry.counter_labeled("deaths_total", &[("shard", "0")]).add(1);
        registry.counter_labeled("deaths_total", &[("shard", "1")]).add(4);
        let h0 = registry.histogram_labeled("solve_seconds", &[("shard", "0")]);
        h0.record(0.01);
        let h1 = registry.histogram_labeled("solve_seconds", &[("shard", "1")]);
        h1.record(0.02);
        let text = render_prometheus(&registry.snapshot());
        assert_eq!(text.matches("# TYPE deaths_total counter").count(), 1);
        assert!(text.contains("deaths_total{shard=\"0\"} 1\n"));
        assert!(text.contains("deaths_total{shard=\"1\"} 4\n"));
        assert_eq!(text.matches("# TYPE solve_seconds histogram").count(), 1);
        // Histogram labels merge with the le label on bucket lines.
        assert!(text.contains("solve_seconds_bucket{shard=\"0\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("solve_seconds_count{shard=\"1\"} 1\n"));
        assert!(text.contains("solve_seconds_sum{shard=\"0\"}"));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let registry = MetricsRegistry::new();
        registry
            .counter_labeled("odd_total", &[("why", "a\"b\\c\nd")])
            .inc();
        let text = render_prometheus(&registry.snapshot());
        assert!(
            text.contains("odd_total{why=\"a\\\"b\\\\c\\nd\"} 1\n"),
            "got: {text}"
        );
        // Exactly one (unescaped) newline: the real line terminator.
        let line = text.lines().find(|l| l.starts_with("odd_total")).unwrap();
        assert!(!line.contains('\n'));
    }

    #[test]
    fn prometheus_formats_non_finite_gauges() {
        let registry = MetricsRegistry::new();
        registry.gauge("g_nan").set(f64::NAN);
        registry.gauge("g_pinf").set(f64::INFINITY);
        registry.gauge("g_ninf").set(f64::NEG_INFINITY);
        let text = render_prometheus(&registry.snapshot());
        assert!(text.contains("g_nan NaN\n"));
        assert!(text.contains("g_pinf +Inf\n"));
        assert!(text.contains("g_ninf -Inf\n"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat_seconds");
        h.record(1e-5);
        h.record(1e-2);
        h.record(1e-2);
        let text = render_prometheus(&registry.snapshot());
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_seconds_bucket"))
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*counts.last().unwrap(), 3);
    }
}
