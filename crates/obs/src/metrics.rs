//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! All instruments are lock-free on the record path (atomics only);
//! the registry itself takes a mutex only on first lookup of a name,
//! so call sites that care can cache the returned [`Arc`] handle.
//! Snapshots are plain data — mergeable across runs and renderable by
//! the sinks in [`crate::sink`].

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of one metric series: a name plus a (possibly empty) set
/// of low-cardinality labels, sorted by label key.
///
/// Labels follow Prometheus conventions — a handful of bounded-value
/// dimensions (`shard`, `tier`, `stage`), never per-device ids. The
/// same name may carry different label sets; each combination is its
/// own series with its own instrument.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SeriesKey {
    /// Metric name (`[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// Label pairs, sorted by key (so equal label sets compare equal
    /// regardless of call-site order).
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    /// An unlabeled series.
    pub fn plain(name: &str) -> Self {
        Self { name: name.to_owned(), labels: Vec::new() }
    }

    /// A labeled series; the pairs are sorted by key on construction.
    pub fn with_labels(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect();
        labels.sort();
        Self { name: name.to_owned(), labels }
    }

    /// Escapes a label value per the Prometheus text exposition rules:
    /// backslash, double quote, and newline become `\\`, `\"`, `\n`.
    pub fn escape_label_value(value: &str) -> String {
        let mut out = String::with_capacity(value.len());
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out
    }

    /// Renders the label block — `{k="v",…}`, with escaped values and
    /// `extra` pairs appended (for the histogram `le` bound) — or an
    /// empty string when there are no labels at all.
    pub fn label_block(&self, extra: &[(&str, &str)]) -> String {
        if self.labels.is_empty() && extra.is_empty() {
            return String::new();
        }
        let mut parts = Vec::with_capacity(self.labels.len() + extra.len());
        for (k, v) in &self.labels {
            parts.push(format!("{k}=\"{}\"", Self::escape_label_value(v)));
        }
        for (k, v) in extra {
            parts.push(format!("{k}=\"{}\"", Self::escape_label_value(v)));
        }
        format!("{{{}}}", parts.join(","))
    }
}

impl fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.name, self.label_block(&[]))
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `delta`.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (stored as `f64` bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Atomic `f64` accumulator (CAS loop; used for histogram sums and
/// min/max watermarks).
#[derive(Debug)]
struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    fn new(value: f64) -> Self {
        Self { bits: AtomicU64::new(value.to_bits()) }
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn update<F: Fn(f64) -> f64>(&self, f: F) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(current)).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }
}

/// A fixed-bucket histogram.
///
/// Buckets are defined by strictly increasing upper bounds plus an
/// implicit `+∞` overflow bucket, so recording is one binary search and
/// one atomic increment. The default bounds are log-spaced (three per
/// decade) from 10⁻⁶ to 10³ — wide enough for both latencies in
/// seconds and dimensionless ratios.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
}

impl Histogram {
    /// The default log-spaced bounds (three per decade, 10⁻⁶ … 10³).
    pub fn default_bounds() -> Vec<f64> {
        (0..=27).map(|k| 1e-6 * 10f64.powf(k as f64 / 3.0)).collect()
    }

    /// Histogram with the default latency-oriented bounds.
    pub fn latency() -> Self {
        Self::with_bounds(Self::default_bounds())
    }

    /// Histogram with explicit upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite, or not strictly
    /// increasing.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicF64::new(0.0),
            min: AtomicF64::new(f64::INFINITY),
            max: AtomicF64::new(f64::NEG_INFINITY),
        }
    }

    /// Records one observation. Non-finite values are dropped (a
    /// telemetry instrument must never poison its own aggregates).
    pub fn record(&self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.update(|s| s + value);
        self.min.update(|m| m.min(value));
        self.max.update(|m| m.max(value));
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count,
            sum: self.sum.get(),
            min: (count > 0).then(|| self.min.get()),
            max: (count > 0).then(|| self.max.get()),
        }
    }
}

/// Plain-data copy of a [`Histogram`], mergeable across runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (the overflow bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries; the
    /// last is the overflow bucket).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value (`None` when empty).
    pub min: Option<f64>,
    /// Largest observed value (`None` when empty).
    pub max: Option<f64>,
}

impl HistogramSnapshot {
    /// Mean of the observed values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Estimates the `q`-quantile (`0 ≤ q ≤ 1`) by linear
    /// interpolation within the bucket containing the rank, clamped to
    /// the observed `[min, max]`. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            let next = cumulative + n;
            if (next as f64) >= rank && n > 0 {
                // The overflow bucket has no upper bound to interpolate
                // against; report the observed maximum.
                let Some(&upper) = self.bounds.get(i) else {
                    return self.max;
                };
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let within = (rank - cumulative as f64) / n as f64;
                let est = lower + (upper - lower) * within.clamp(0.0, 1.0);
                let lo = self.min.unwrap_or(est);
                let hi = self.max.unwrap_or(est);
                return Some(est.clamp(lo, hi));
            }
            cumulative = next;
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Element-wise merge with a snapshot of identical bucket layout
    /// (commutative and associative, so per-run snapshots fold into
    /// fleet-wide aggregates in any order).
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merged(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        assert_eq!(self.bounds, other.bounds, "cannot merge histograms with different buckets");
        let combine = |a: Option<f64>, b: Option<f64>, f: fn(f64, f64) -> f64| match (a, b) {
            (Some(x), Some(y)) => Some(f(x, y)),
            (x, None) => x,
            (None, y) => y,
        };
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a + b)
                .collect(),
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min: combine(self.min, other.min, f64::min),
            max: combine(self.max, other.max, f64::max),
        }
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// Names follow Prometheus conventions (`[a-zA-Z_][a-zA-Z0-9_]*`, unit
/// suffixes like `_seconds` / `_total`); the span layer derives its
/// latency-histogram names mechanically from span names (`sched.phase1`
/// → `sched_phase1_seconds`).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<SeriesKey, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<SeriesKey, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<SeriesKey, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The unlabeled counter registered under `name`, creating it on
    /// first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_for(SeriesKey::plain(name))
    }

    /// The counter series `name{labels}`, creating it on first use.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter_for(SeriesKey::with_labels(name, labels))
    }

    /// The counter registered under an explicit [`SeriesKey`].
    pub fn counter_for(&self, key: SeriesKey) -> Arc<Counter> {
        self.counters.lock().entry(key).or_default().clone()
    }

    /// The unlabeled gauge registered under `name`, creating it on
    /// first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_for(SeriesKey::plain(name))
    }

    /// The gauge registered under an explicit [`SeriesKey`].
    pub fn gauge_for(&self, key: SeriesKey) -> Arc<Gauge> {
        self.gauges.lock().entry(key).or_default().clone()
    }

    /// The unlabeled histogram registered under `name` (default
    /// bounds), creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_for(SeriesKey::plain(name))
    }

    /// The histogram series `name{labels}` (default bounds), creating
    /// it on first use.
    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram_for(SeriesKey::with_labels(name, labels))
    }

    /// The histogram registered under an explicit [`SeriesKey`]
    /// (default bounds).
    pub fn histogram_for(&self, key: SeriesKey) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        map.entry(key).or_insert_with(|| Arc::new(Histogram::latency())).clone()
    }

    /// Immutable copy of every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Drops every registered instrument (a fresh start between runs).
    pub fn reset(&self) {
        self.counters.lock().clear();
        self.gauges.lock().clear();
        self.histograms.lock().clear();
    }
}

/// Plain-data copy of a [`MetricsRegistry`], sorted by series key
/// (name first, then labels).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by series.
    pub counters: Vec<(SeriesKey, u64)>,
    /// Gauge values by series.
    pub gauges: Vec<(SeriesKey, f64)>,
    /// Histogram snapshots by series.
    pub histograms: Vec<(SeriesKey, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Unlabeled counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counter_labeled(name, &[])
    }

    /// Counter value of the series `name{labels}`.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = SeriesKey::with_labels(name, labels);
        self.counters.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Unlabeled gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauge_labeled(name, &[])
    }

    /// Gauge value of the series `name{labels}`.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = SeriesKey::with_labels(name, labels);
        self.gauges.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Unlabeled histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histogram_labeled(name, &[])
    }

    /// Histogram snapshot of the series `name{labels}`.
    pub fn histogram_labeled(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSnapshot> {
        let key = SeriesKey::with_labels(name, labels);
        self.histograms.iter().find(|(k, _)| *k == key).map(|(_, h)| h)
    }

    /// Merges two snapshots: counters and histogram buckets add,
    /// gauges take the other side's value (last write wins). Series
    /// present on only one side carry over unchanged.
    pub fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut counters: BTreeMap<SeriesKey, u64> = self.counters.iter().cloned().collect();
        for (key, v) in &other.counters {
            *counters.entry(key.clone()).or_insert(0) += v;
        }
        let mut gauges: BTreeMap<SeriesKey, f64> = self.gauges.iter().cloned().collect();
        for (key, v) in &other.gauges {
            gauges.insert(key.clone(), *v);
        }
        let mut histograms: BTreeMap<SeriesKey, HistogramSnapshot> =
            self.histograms.iter().cloned().collect();
        for (key, h) in &other.histograms {
            histograms
                .entry(key.clone())
                .and_modify(|mine| *mine = mine.merged(h))
                .or_insert_with(|| h.clone());
        }
        MetricsSnapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        reg.counter("requests_total").inc();
        reg.counter("requests_total").add(4);
        reg.gauge("capacity").set(12.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("requests_total"), Some(5));
        assert_eq!(snap.gauge("capacity"), Some(12.5));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn labeled_series_are_distinct_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter_labeled("slots_total", &[("shard", "0")]).add(2);
        reg.counter_labeled("slots_total", &[("shard", "1")]).add(5);
        reg.counter("slots_total").inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter_labeled("slots_total", &[("shard", "0")]), Some(2));
        assert_eq!(snap.counter_labeled("slots_total", &[("shard", "1")]), Some(5));
        assert_eq!(snap.counter("slots_total"), Some(1));
        // Label order at the call site does not matter.
        reg.counter_labeled("ops_total", &[("stage", "solve"), ("shard", "3")]).inc();
        reg.counter_labeled("ops_total", &[("shard", "3"), ("stage", "solve")]).inc();
        assert_eq!(
            reg.snapshot()
                .counter_labeled("ops_total", &[("stage", "solve"), ("shard", "3")]),
            Some(2)
        );
    }

    #[test]
    fn series_key_display_and_escaping() {
        let key = SeriesKey::with_labels("lat_seconds", &[("tier", "exact"), ("shard", "0")]);
        assert_eq!(key.to_string(), "lat_seconds{shard=\"0\",tier=\"exact\"}");
        assert_eq!(SeriesKey::plain("x_total").to_string(), "x_total");
        assert_eq!(
            SeriesKey::escape_label_value("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd"
        );
    }

    #[test]
    fn merged_snapshots_keep_labeled_series_apart() {
        let a = MetricsRegistry::new();
        a.counter_labeled("deaths_total", &[("shard", "0")]).add(1);
        let b = MetricsRegistry::new();
        b.counter_labeled("deaths_total", &[("shard", "0")]).add(2);
        b.counter_labeled("deaths_total", &[("shard", "1")]).add(7);
        let m = a.snapshot().merged(&b.snapshot());
        assert_eq!(m.counter_labeled("deaths_total", &[("shard", "0")]), Some(3));
        assert_eq!(m.counter_labeled("deaths_total", &[("shard", "1")]), Some(7));
    }

    #[test]
    fn histogram_counts_and_mean() {
        let h = Histogram::latency();
        for v in [0.001, 0.002, 0.003, 0.004] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.mean().unwrap() - 0.0025).abs() < 1e-12);
        assert_eq!(s.min, Some(0.001));
        assert_eq!(s.max, Some(0.004));
    }

    #[test]
    fn histogram_drops_non_finite() {
        let h = Histogram::latency();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot().quantile(0.5), None);
    }

    #[test]
    fn quantiles_on_a_known_uniform_distribution() {
        // 10,000 uniform samples over (0, 1]: p50 ≈ 0.5, p90 ≈ 0.9,
        // p99 ≈ 0.99. Accuracy is bounded by the bucket width at the
        // quantile (log-spaced, ≈ ×2.15 per bucket), so assert the
        // estimate lands within the true value's bucket neighborhood.
        let h = Histogram::latency();
        for i in 1..=10_000 {
            h.record(i as f64 / 10_000.0);
        }
        let s = h.snapshot();
        for (q, truth) in [(0.50, 0.5), (0.90, 0.9), (0.99, 0.99)] {
            let est = s.quantile(q).unwrap();
            assert!(
                est >= truth / 2.2 && est <= truth * 2.2,
                "q{q}: estimate {est} too far from {truth}"
            );
        }
        // Quantiles are monotone in q.
        assert!(s.p50().unwrap() <= s.p90().unwrap());
        assert!(s.p90().unwrap() <= s.p99().unwrap());
        // Extremes clamp to the observed range.
        assert!(s.quantile(0.0).unwrap() >= s.min.unwrap());
        assert!(s.quantile(1.0).unwrap() <= s.max.unwrap());
    }

    #[test]
    fn quantile_exact_when_one_bucket_holds_everything() {
        // All mass in a single narrow bucket: interpolation cannot
        // leave the bucket, and the clamp pins it inside [min, max].
        let h = Histogram::with_bounds(vec![1.0, 2.0, 3.0]);
        for _ in 0..100 {
            h.record(1.5);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(1.5));
        assert_eq!(s.quantile(0.99), Some(1.5));
    }

    #[test]
    fn overflow_bucket_reports_max() {
        let h = Histogram::with_bounds(vec![1.0]);
        h.record(50.0);
        h.record(70.0);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![0, 2]);
        // The overflow bucket has no upper bound; the estimate falls
        // back to the observed maximum.
        assert_eq!(s.quantile(0.9), Some(70.0));
    }

    #[test]
    fn merge_adds_and_keeps_extremes() {
        let a = Histogram::with_bounds(vec![1.0, 10.0]);
        a.record(0.5);
        a.record(5.0);
        let b = Histogram::with_bounds(vec![1.0, 10.0]);
        b.record(20.0);
        let m = a.snapshot().merged(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.buckets, vec![1, 1, 1]);
        assert_eq!(m.min, Some(0.5));
        assert_eq!(m.max, Some(20.0));
        assert!((m.sum - 25.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different buckets")]
    fn merge_rejects_mismatched_buckets() {
        let a = Histogram::with_bounds(vec![1.0]).snapshot();
        let b = Histogram::with_bounds(vec![2.0]).snapshot();
        let _ = a.merged(&b);
    }

    #[test]
    fn registry_snapshot_merge_folds_runs() {
        let run1 = MetricsRegistry::new();
        run1.counter("slots_total").add(10);
        run1.histogram("slot_seconds").record(0.1);
        let run2 = MetricsRegistry::new();
        run2.counter("slots_total").add(14);
        run2.gauge("capacity").set(7.0);
        run2.histogram("slot_seconds").record(0.2);
        let merged = run1.snapshot().merged(&run2.snapshot());
        assert_eq!(merged.counter("slots_total"), Some(24));
        assert_eq!(merged.gauge("capacity"), Some(7.0));
        assert_eq!(merged.histogram("slot_seconds").unwrap().count, 2);
    }

    #[test]
    fn registry_reset_clears_instruments() {
        let reg = MetricsRegistry::new();
        reg.counter("a").inc();
        reg.histogram("h").record(1.0);
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn handles_are_shared_not_cloned() {
        let reg = MetricsRegistry::new();
        let h1 = reg.histogram("x");
        let h2 = reg.histogram("x");
        h1.record(1.0);
        h2.record(2.0);
        assert_eq!(reg.snapshot().histogram("x").unwrap().count, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Concurrent recording from several threads never loses a
        /// count and never panics, whatever the values.
        fn concurrent_recording_is_lossless(
            per_thread in 1usize..200,
            threads in 2usize..6,
            scale in 1e-6f64..1e3
        ) {
            let h = std::sync::Arc::new(Histogram::latency());
            let c = std::sync::Arc::new(Counter::default());
            let mut handles = Vec::new();
            for t in 0..threads {
                let h = h.clone();
                let c = c.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(scale * (1.0 + (t * per_thread + i) as f64));
                        c.inc();
                    }
                }));
            }
            for handle in handles {
                handle.join().expect("recorder thread panicked");
            }
            let expected = (threads * per_thread) as u64;
            prop_assert_eq!(h.count(), expected);
            prop_assert_eq!(c.get(), expected);
            let s = h.snapshot();
            prop_assert_eq!(s.buckets.iter().sum::<u64>(), expected);
        }

        /// Merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        fn merge_is_associative(
            xs in proptest::collection::vec(1e-6f64..1e3, 0..40),
            ys in proptest::collection::vec(1e-6f64..1e3, 0..40),
            zs in proptest::collection::vec(1e-6f64..1e3, 0..40)
        ) {
            let snap = |vals: &[f64]| {
                let h = Histogram::latency();
                for &v in vals {
                    h.record(v);
                }
                h.snapshot()
            };
            let (a, b, c) = (snap(&xs), snap(&ys), snap(&zs));
            let left = a.merged(&b).merged(&c);
            let right = a.merged(&b.merged(&c));
            prop_assert_eq!(left.buckets, right.buckets);
            prop_assert_eq!(left.count, right.count);
            prop_assert!((left.sum - right.sum).abs() <= 1e-9 * left.sum.abs().max(1.0));
            prop_assert_eq!(left.min, right.min);
            prop_assert_eq!(left.max, right.max);
        }
    }
}
