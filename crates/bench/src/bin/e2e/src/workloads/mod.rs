//! The five workloads. Each runs one pass — end-to-end (spans off) or
//! traced (spans on, layer probes added) — and returns what it measured
//! and what it verified.

pub mod cold_slot;
pub mod fleet;
pub mod serve_ingest;
pub mod trace_day;

use crate::check::Checker;
use crate::spans::Recorder;
use crate::stats::{median, Timing};
use crate::Spec;
use std::collections::BTreeMap;
use std::time::Instant;

/// How often a workload sets up when a round costs around a second:
/// `setup_s` is the median, so that one slow page-in does not read as a
/// regression. Workloads whose set-up is cheap run more rounds.
pub const SETUP_ROUNDS: usize = 3;

#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checker,
    /// Metric name → value, for the pass that ran.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Timings worth printing with their tail and sample count.
    pub timings: Vec<(&'static str, Timing)>,
    /// FNV-1a of the workload's final selection.
    pub selection_hash: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Keeps a timing for the report and hands it back.
    pub fn timing(&mut self, name: &'static str, samples: &[f64]) -> Timing {
        let t = Timing::of(samples);
        self.timings.push((name, t.clone()));
        t
    }
}

/// Runs `setup` `rounds` times, returning the last round's product and
/// the median seconds a round took.
pub fn timed_setup<T>(rounds: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(rounds);
    let mut last = None;
    for _ in 0..rounds {
        // Drop the previous round's product first, so peak memory is one
        // set-up's worth.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        secs.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up round"), median(&secs))
}

/// In a traced pass the recorder is switched off for every other block
/// of work, so the spans' own cost can be read from one run: the ratio
/// of the median unit time with spans on to that with spans off.
#[derive(Debug, Default)]
pub struct OnOff {
    on: Vec<f64>,
    off: Vec<f64>,
}

impl OnOff {
    pub fn push(&mut self, spans_on: bool, secs: f64) {
        if spans_on {
            self.on.push(secs);
        } else {
            self.off.push(secs);
        }
    }

    pub fn ratio(&self) -> f64 {
        let (on, off) = (median(&self.on), median(&self.off));
        if off > 0.0 {
            on / off
        } else {
            0.0
        }
    }
}

pub fn run(spec: &Spec, rec: &mut Recorder) -> Outcome {
    match spec.workload.as_str() {
        "cold-slot" => cold_slot::run(spec, rec),
        "steady-fleet" => fleet::run(spec, rec, fleet::Regime::Steady),
        "churn-fleet" => fleet::run(spec, rec, fleet::Regime::Churn),
        "serve-ingest" => serve_ingest::run(spec, rec),
        "trace-day" => trace_day::run(spec, rec),
        other => unreachable!("workload {other} passed the catalogue check"),
    }
}
