//! Running passes and printing results.
//!
//! One pass of one workload ends with two JSON lines on standard output:
//! a `detail` object (host block, selection hash, timings with their
//! tails and counts, failure reasons) and, last, the result object with
//! exactly `correct`, `attempted`, `failed` and `metrics`.
//!
//! With no `--workload` the binary re-executes itself once per workload
//! and pass — so each peak-memory reading belongs to one workload — and
//! gathers the children's results into one table and one result file.

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::spans::Recorder;
use crate::stats::{iqr_share, median};
use crate::workloads::{self, Outcome};
use crate::{host, Spec};
use lpvs_obs::json::Json;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

/// Where a traced pass leaves its spans.
const TRACE_FILE: &str = "e2e_trace.json";

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_owned())),
    ])
}

/// The metrics object of the final line: every end-to-end metric for an
/// untraced pass, every per-layer metric for a traced one.
fn metrics_json(spec: &Spec, outcome: &Outcome) -> Json {
    let mut metrics = BTreeMap::new();
    if spec.trace {
        for m in PER_LAYER {
            // A layer this workload does not drive reads 0.
            let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
            metrics.insert(m.name.to_owned(), metric_json(value, m.unit));
        }
    } else {
        for m in END_TO_END {
            let name = m.metric.name;
            let value = *outcome
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{} did not measure {name}", spec.workload));
            metrics.insert(name.to_owned(), metric_json(value, m.metric.unit));
        }
    }
    Json::Obj(metrics)
}

fn detail_json(spec: &Spec, outcome: &Outcome, calibration: (f64, f64)) -> Json {
    let timings = outcome
        .timings
        .iter()
        .map(|(name, t)| {
            let mut fields = vec![
                ("name", Json::Str((*name).to_owned())),
                ("median_s", Json::Num(t.median)),
                ("count", Json::Num(t.count as f64)),
            ];
            if let Some((p, v)) = t.tail {
                fields.push(("tail_percentile", Json::Num(100.0 * p)));
                fields.push(("tail_s", Json::Num(v)));
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj([
        ("detail", Json::Str(spec.workload.clone())),
        ("trace", Json::Bool(spec.trace)),
        ("smoke", Json::Bool(spec.smoke)),
        ("seconds", Json::Num(spec.seconds as f64)),
        ("host", host::block(spec.seed)),
        ("calibration_before_s", Json::Num(calibration.0)),
        ("calibration_after_s", Json::Num(calibration.1)),
        (
            "selection_hash",
            Json::Str(format!("{:016x}", outcome.selection_hash)),
        ),
        ("timings", Json::Arr(timings)),
        (
            "failures",
            Json::Arr(
                outcome
                    .checks
                    .reasons
                    .iter()
                    .cloned()
                    .map(Json::Str)
                    .collect(),
            ),
        ),
    ])
}

/// One pass of one workload. Returns whether every operation passed.
pub fn run_one(spec: &Spec) -> bool {
    let calibration_before = host::calibration_s();
    let started = Instant::now();
    let mut rec = Recorder::new(spec.trace, started);
    let mut outcome = workloads::run(spec, &mut rec);
    let elapsed = started.elapsed().as_secs_f64();
    let calibration = (calibration_before, host::calibration_s());
    // JSON has no NaN: a metric that is not a number is a failed run.
    for (name, value) in &mut outcome.metrics {
        if !value.is_finite() {
            outcome
                .checks
                .op(Err(format!("metric {name} is not a finite number")));
            *value = 0.0;
        }
    }
    if spec.trace {
        outcome.set("bench.spans", rec.len() as f64);
        let trace = rec.to_json(&spec.workload, spec.seed);
        if let Err(e) = std::fs::write(TRACE_FILE, format!("{trace}\n")) {
            eprintln!("e2e: could not write {TRACE_FILE}: {e}");
        }
    }
    let correct = outcome.checks.failed == 0;

    println!(
        "{} (seed {}, {} pass{}) — {} operations, {} failed, selection {:016x}, {:.1} s",
        spec.workload,
        spec.seed,
        if spec.trace { "traced" } else { "end-to-end" },
        if spec.smoke { ", smoke" } else { "" },
        outcome.checks.attempted,
        outcome.checks.failed,
        outcome.selection_hash,
        elapsed,
    );
    println!(
        "  host speed: calibration loop {:.2} ms before, {:.2} ms after",
        1e3 * calibration.0,
        1e3 * calibration.1
    );
    for reason in &outcome.checks.reasons {
        println!("  FAILED: {reason}");
    }
    for (name, t) in &outcome.timings {
        match t.tail {
            Some((p, v)) => println!(
                "  {name:<32} median {:>12.6} s   p{:<4} {:>12.6} s   n={}",
                t.median,
                100.0 * p,
                v,
                t.count
            ),
            None => println!("  {name:<32} median {:>12.6} s   n={}", t.median, t.count),
        }
    }
    let units: BTreeMap<&str, &str> = END_TO_END
        .iter()
        .map(|m| (m.metric.name, m.metric.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .collect();
    for (name, value) in &outcome.metrics {
        println!(
            "  {name:<40} {value:>16.6} {}",
            units.get(name).copied().unwrap_or("")
        );
    }
    println!("{}", detail_json(spec, &outcome, calibration));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            (
                "attempted",
                Json::Num(outcome.checks.attempted.max(1) as f64)
            ),
            ("failed", Json::Num(outcome.checks.failed as f64)),
            ("metrics", metrics_json(spec, &outcome)),
        ])
    );
    correct
}

/// What the parent keeps of one child pass.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
    detail: Json,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so no process outlives the parent.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or(format!("{workload} printed nothing"))?;
    let detail_line = lines.pop().unwrap_or("null");
    for line in &lines {
        println!("{line}");
    }
    let result = Json::parse(last).map_err(|_| {
        format!(
            "{workload} did not end with a result line: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let metrics = match result.get("metrics") {
        Some(Json::Obj(map)) => map
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{workload}: result line has no metrics")),
    };
    Ok(ChildResult {
        correct: result.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        metrics,
        detail: Json::parse(detail_line).unwrap_or(Json::Null),
    })
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::Num).collect())
}

/// Every workload, both passes. `repeat` end-to-end passes per workload
/// give `compare` a spread to judge a difference against.
pub fn run_all(seed: u64, seconds: u64, smoke: bool, repeat: usize, out: Option<&str>) -> bool {
    let mut clean = true;
    let mut workloads_json = BTreeMap::new();
    let mut host_block = Json::Null;
    let mut table: Vec<(String, String, f64, f64, usize)> = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut e2e_values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut hash = Json::Null;
        // Host-speed reading of each pass (mean of before and after).
        let mut calibration = Vec::new();
        for _ in 0..repeat {
            match run_child(workload, seed, seconds, false, smoke) {
                Ok(child) => {
                    clean &= child.correct;
                    attempted += child.attempted;
                    failed += child.failed;
                    for (name, value) in child.metrics {
                        e2e_values.entry(name).or_default().push(value);
                    }
                    let reading = |key| child.detail.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                    calibration.push(
                        0.5 * (reading("calibration_before_s") + reading("calibration_after_s")),
                    );
                    hash = child
                        .detail
                        .get("selection_hash")
                        .cloned()
                        .unwrap_or(Json::Null);
                    host_block = child.detail.get("host").cloned().unwrap_or(Json::Null);
                }
                Err(e) => {
                    eprintln!("e2e: {e}");
                    clean = false;
                }
            }
        }
        let per_layer = match run_child(workload, seed, seconds, true, smoke) {
            Ok(child) => {
                clean &= child.correct;
                child.metrics
            }
            Err(e) => {
                eprintln!("e2e: {e}");
                clean = false;
                BTreeMap::new()
            }
        };
        for (name, values) in &e2e_values {
            table.push((
                workload.to_owned(),
                name.clone(),
                median(values),
                iqr_share(values),
                values.len(),
            ));
        }
        workloads_json.insert(
            workload.to_owned(),
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                (
                    "failed_share",
                    Json::Num(if attempted > 0.0 {
                        failed / attempted
                    } else {
                        1.0
                    }),
                ),
                ("selection_hash", hash),
                ("calibration_s", nums(&calibration)),
                (
                    "end_to_end",
                    Json::Obj(
                        e2e_values
                            .iter()
                            .map(|(k, v)| (k.clone(), nums(v)))
                            .collect(),
                    ),
                ),
                (
                    "per_layer",
                    Json::Obj(
                        per_layer
                            .into_iter()
                            .map(|(k, v)| (k, Json::Num(v)))
                            .collect(),
                    ),
                ),
            ]),
        );
    }

    println!(
        "\n{:<14} {:<22} {:>16} {:<6} {:>8} {:>4}",
        "workload", "end-to-end metric", "median", "unit", "spread", "n"
    );
    for (workload, name, med, spread, n) in &table {
        let unit = END_TO_END
            .iter()
            .find(|m| m.metric.name == name)
            .map_or("", |m| m.metric.unit);
        println!(
            "{workload:<14} {name:<22} {med:>16.6} {unit:<6} {:>7.2}% {n:>4}",
            100.0 * spread
        );
    }
    let results = Json::obj([
        ("seed", Json::Str(seed.to_string())),
        ("seconds", Json::Num(seconds as f64)),
        ("smoke", Json::Bool(smoke)),
        ("host", host_block),
        (
            "bounds",
            Json::Obj(
                END_TO_END
                    .iter()
                    .map(|m| {
                        (
                            m.metric.name.to_owned(),
                            Json::obj([
                                ("bound", Json::Num(m.bound)),
                                ("better", Json::Str(m.metric.better.label().to_owned())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    if let Some(path) = out {
        match std::fs::write(path, format!("{results}\n")) {
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => {
                eprintln!("e2e: could not write {path}: {e}");
                clean = false;
            }
        }
    }
    println!(
        "{}",
        if clean {
            "\nall workloads verified"
        } else {
            "\nFAILED: see above"
        }
    );
    clean
}
