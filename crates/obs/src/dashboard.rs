//! Operator dashboard: human-readable tables over metric snapshots.
//!
//! Two sources feed the same renderer:
//!
//! - **in-process** — a [`MetricsSnapshot`] taken from this process's
//!   registry ([`render_dashboard`]);
//! - **scraped** — the `/metrics` endpoint of a running `lpvs-serve`,
//!   pulled over a plain [`TcpStream`] ([`scrape`]) and parsed back
//!   into a snapshot ([`parse_prometheus`], the inverse of
//!   [`sink::render_prometheus`] up to the min/max fields the
//!   exposition format does not carry).
//!
//! The `operator-dashboard` binary renders the scraped source.
//!
//! [`sink::render_prometheus`]: crate::sink::render_prometheus

use crate::metrics::{HistogramSnapshot, MetricsSnapshot, SeriesKey};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Parses Prometheus text exposition back into a [`MetricsSnapshot`].
///
/// Series are classified by their `# TYPE` headers; histogram
/// `_bucket` / `_sum` / `_count` lines are reassembled (cumulative
/// bucket counts are de-cumulated) into [`HistogramSnapshot`]s whose
/// `min` / `max` are `None` — the exposition format does not carry
/// them, so scraped quantiles are bucket-interpolated, unclamped.
pub fn parse_prometheus(text: &str) -> Result<MetricsSnapshot, String> {
    struct HistAcc {
        bounds: Vec<f64>,
        cumulative: Vec<u64>,
        count: u64,
        sum: f64,
    }
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut counters: BTreeMap<SeriesKey, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<SeriesKey, f64> = BTreeMap::new();
    let mut hists: BTreeMap<SeriesKey, HistAcc> = BTreeMap::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            if parts.next() == Some("TYPE") {
                if let (Some(name), Some(kind)) = (parts.next(), parts.next()) {
                    types.insert(name.to_owned(), kind.to_owned());
                }
            }
            continue;
        }
        let (series, value) = split_sample(line)
            .ok_or_else(|| format!("line {}: no value in {line:?}", lineno + 1))?;
        let (name, labels) = parse_series(series)
            .map_err(|e| format!("line {}: {e} in {line:?}", lineno + 1))?;

        // A histogram's component lines carry suffixed names; resolve
        // the TYPE against the base name.
        let (base, role) = if let Some(b) = strip_typed(&name, &types, "_bucket") {
            (b, "bucket")
        } else if let Some(b) = strip_typed(&name, &types, "_sum") {
            (b, "sum")
        } else if let Some(b) = strip_typed(&name, &types, "_count") {
            (b, "count")
        } else {
            (name.as_str(), "scalar")
        };
        match (types.get(base).map(String::as_str), role) {
            (Some("histogram"), "bucket") => {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| format!("line {}: bucket without le", lineno + 1))?;
                let key = key_without_le(base, &labels);
                let acc = hists.entry(key).or_insert_with(|| HistAcc {
                    bounds: Vec::new(),
                    cumulative: Vec::new(),
                    count: 0,
                    sum: 0.0,
                });
                let cum = parse_value(value)? as u64;
                if le == "+Inf" {
                    acc.count = cum;
                } else {
                    acc.bounds.push(parse_value(&le)?);
                    acc.cumulative.push(cum);
                }
            }
            (Some("histogram"), "sum") => {
                hists
                    .entry(key_without_le(base, &labels))
                    .or_insert_with(|| HistAcc {
                        bounds: Vec::new(),
                        cumulative: Vec::new(),
                        count: 0,
                        sum: 0.0,
                    })
                    .sum = parse_value(value)?;
            }
            (Some("histogram"), "count") => {
                hists
                    .entry(key_without_le(base, &labels))
                    .or_insert_with(|| HistAcc {
                        bounds: Vec::new(),
                        cumulative: Vec::new(),
                        count: 0,
                        sum: 0.0,
                    })
                    .count = parse_value(value)? as u64;
            }
            (Some("counter"), _) => {
                let v = parse_value(value)?;
                counters.insert(SeriesKey { name, labels }, v as u64);
            }
            // Untyped samples render as gauges — the lenient default.
            (Some("gauge"), _) | (None, _) => {
                let v = parse_value(value)?;
                gauges.insert(SeriesKey { name, labels }, v);
            }
            (Some(other), _) => {
                return Err(format!("line {}: unsupported type {other:?}", lineno + 1));
            }
        }
    }

    let histograms = hists
        .into_iter()
        .map(|(key, acc)| {
            // De-cumulate the bucket counts; the overflow bucket is the
            // remainder against the total count.
            let mut buckets: Vec<u64> = Vec::with_capacity(acc.bounds.len() + 1);
            let mut prev = 0u64;
            for &c in &acc.cumulative {
                buckets.push(c.saturating_sub(prev));
                prev = c;
            }
            buckets.push(acc.count.saturating_sub(prev));
            let snap = HistogramSnapshot {
                bounds: acc.bounds,
                buckets,
                count: acc.count,
                sum: acc.sum,
                min: None,
                max: None,
            };
            (key, snap)
        })
        .collect();
    Ok(MetricsSnapshot {
        counters: counters.into_iter().collect(),
        gauges: gauges.into_iter().collect(),
        histograms,
    })
}

/// Splits `series value` at the last space outside the label block.
fn split_sample(line: &str) -> Option<(&str, &str)> {
    let cut = match line.rfind('}') {
        Some(brace) => brace + 1 + line[brace + 1..].find(' ')?,
        None => line.rfind(' ')?,
    };
    let (series, value) = line.split_at(cut);
    Some((series.trim(), value.trim()))
}

/// Parses `name` or `name{k="v",…}` with exposition-format escapes.
fn parse_series(series: &str) -> Result<(String, Vec<(String, String)>), String> {
    let Some(open) = series.find('{') else {
        return Ok((series.to_owned(), Vec::new()));
    };
    let name = series[..open].to_owned();
    let block = series[open + 1..]
        .strip_suffix('}')
        .ok_or_else(|| "unterminated label block".to_owned())?;
    let mut labels = Vec::new();
    let mut chars = block.chars().peekable();
    while chars.peek().is_some() {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        if chars.next() != Some('"') {
            return Err(format!("label {key:?} value not quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err("unterminated label value".to_owned()),
            }
        }
        labels.push((key.trim().to_owned(), value));
        if let Some(&',') = chars.peek() {
            chars.next();
        }
    }
    labels.sort();
    Ok((name, labels))
}

fn strip_typed<'a>(
    name: &'a str,
    types: &BTreeMap<String, String>,
    suffix: &str,
) -> Option<&'a str> {
    let base = name.strip_suffix(suffix)?;
    (types.get(base).map(String::as_str) == Some("histogram")).then_some(base)
}

fn key_without_le(base: &str, labels: &[(String, String)]) -> SeriesKey {
    SeriesKey {
        name: base.to_owned(),
        labels: labels.iter().filter(|(k, _)| k != "le").cloned().collect(),
    }
}

/// Parses a sample value, honoring the `NaN` / `+Inf` / `-Inf` tokens.
fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "NaN" => Ok(f64::NAN),
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        other => other.parse().map_err(|_| format!("bad value {other:?}")),
    }
}

/// Renders a snapshot as aligned operator tables: counters, gauges,
/// then histograms with count / mean / p50 / p90 / p99.
pub fn render_dashboard(snapshot: &MetricsSnapshot, title: &str) -> String {
    fn fmt_opt(v: Option<f64>) -> String {
        v.map(|v| format!("{v:.6}")).unwrap_or_else(|| "—".to_owned())
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let width = snapshot
        .counters
        .iter()
        .map(|(k, _)| k.to_string().len())
        .chain(snapshot.gauges.iter().map(|(k, _)| k.to_string().len()))
        .chain(snapshot.histograms.iter().map(|(k, _)| k.to_string().len()))
        .max()
        .unwrap_or(0)
        .max(8);
    if !snapshot.counters.is_empty() {
        let _ = writeln!(out, "\ncounters");
        for (key, value) in &snapshot.counters {
            let _ = writeln!(out, "  {:<width$}  {value}", key.to_string());
        }
    }
    if !snapshot.gauges.is_empty() {
        let _ = writeln!(out, "\ngauges");
        for (key, value) in &snapshot.gauges {
            let _ = writeln!(out, "  {:<width$}  {value}", key.to_string());
        }
    }
    if !snapshot.histograms.is_empty() {
        let _ = writeln!(
            out,
            "\nhistograms\n  {:<width$}  {:>10} {:>12} {:>12} {:>12} {:>12}",
            "series", "count", "mean", "p50", "p90", "p99"
        );
        for (key, hist) in &snapshot.histograms {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>10} {:>12} {:>12} {:>12} {:>12}",
                key.to_string(),
                hist.count,
                fmt_opt(hist.mean()),
                fmt_opt(hist.p50()),
                fmt_opt(hist.p90()),
                fmt_opt(hist.p99()),
            );
        }
    }
    if snapshot.counters.is_empty()
        && snapshot.gauges.is_empty()
        && snapshot.histograms.is_empty()
    {
        let _ = writeln!(out, "(no series recorded)");
    }
    out
}

/// Pulls `GET /metrics` from a running server over a plain TCP
/// connection and returns the exposition text. `addr` is any
/// `host:port` string; 5-second connect/read/write deadlines apply.
pub fn scrape(addr: &str) -> io::Result<String> {
    let timeout = Duration::from_secs(5);
    let sockaddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other(format!("{addr:?} resolves to no address")))?;
    let mut stream = TcpStream::connect_timeout(&sockaddr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(
        format!("GET /metrics HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::other(format!("malformed response: {raw:?}")))?;
    if status != 200 {
        return Err(io::Error::other(format!("/metrics answered {status}")));
    }
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .ok_or_else(|| io::Error::other("response without body"))?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::sink::render_prometheus;

    #[test]
    fn prometheus_roundtrip_recovers_every_series() {
        let reg = MetricsRegistry::new();
        reg.counter("requests_total").add(41);
        reg.counter_labeled("requests_total", &[("route", "/v1/telemetry")]).add(7);
        reg.gauge("occupancy").set(0.625);
        reg.gauge_for(SeriesKey::with_labels("tier", &[("shard", "0")])).set(2.0);
        for v in [0.001, 0.004, 0.004, 0.2] {
            reg.histogram("request_seconds").record(v);
        }
        let snap = reg.snapshot();
        let parsed = parse_prometheus(&render_prometheus(&snap)).expect("parse");
        assert_eq!(parsed.counters, snap.counters);
        assert_eq!(parsed.gauges, snap.gauges);
        assert_eq!(parsed.histograms.len(), 1);
        let (key, got) = &parsed.histograms[0];
        let want = snap.histogram("request_seconds").expect("histogram");
        assert_eq!(key.name, "request_seconds");
        assert_eq!(got.bounds, want.bounds);
        assert_eq!(got.buckets, want.buckets);
        assert_eq!(got.count, want.count);
        assert_eq!(got.sum, want.sum);
        // min/max are not in the exposition format.
        assert_eq!(got.min, None);
        assert_eq!(got.max, None);
    }

    #[test]
    fn escaped_labels_and_nonfinite_gauges_survive() {
        let reg = MetricsRegistry::new();
        reg.gauge_for(SeriesKey::with_labels("weird", &[("path", "a\\b\"c\nd")])).set(f64::INFINITY);
        let parsed = parse_prometheus(&render_prometheus(&reg.snapshot())).expect("parse");
        assert_eq!(parsed.gauges.len(), 1);
        assert_eq!(parsed.gauges[0].0.labels[0].1, "a\\b\"c\nd");
        assert_eq!(parsed.gauges[0].1, f64::INFINITY);
    }

    #[test]
    fn junk_lines_are_errors_not_panics() {
        for junk in ["no_value_here", "name{unterminated value 1", "x 1e"] {
            assert!(parse_prometheus(junk).is_err(), "{junk:?} parsed");
        }
    }

    #[test]
    fn dashboard_renders_every_section() {
        let reg = MetricsRegistry::new();
        reg.counter("serve_shed_total").add(3);
        reg.gauge("serve_occupancy").set(0.75);
        reg.histogram("serve_request_seconds").record(0.002);
        let table = render_dashboard(&reg.snapshot(), "test");
        for needle in
            ["== test ==", "counters", "serve_shed_total", "gauges", "histograms", "p99"]
        {
            assert!(table.contains(needle), "missing {needle:?} in\n{table}");
        }
        assert!(render_dashboard(&MetricsSnapshot::default(), "empty")
            .contains("(no series recorded)"));
    }
}
