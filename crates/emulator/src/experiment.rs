//! Experiment drivers for the paper's evaluation section.
//!
//! Each driver returns plain data rows; the bench binaries in
//! `lpvs-bench` print them in the papers' table/figure layout, and
//! `EXPERIMENTS.md` records paper-vs-measured values. Sweeps run their
//! cells in parallel with crossbeam scoped threads.

use crate::engine::{Emulator, EmulatorConfig};
use crate::fit::LineFit;
use crate::metrics::EmulationReport;
use lpvs_core::baseline::Policy;
use lpvs_trace::channel::Trace;
use lpvs_core::problem::{DeviceRequest, SlotProblem};
use lpvs_survey::curve::AnxietyCurve;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Runs a policy and its paired `NoTransform` baseline on identical
/// populations and content.
pub fn run_pair(config: EmulatorConfig, policy: Policy) -> (EmulationReport, EmulationReport) {
    let with = Emulator::new(config, policy).run();
    let without = Emulator::new(config, Policy::NoTransform).run();
    (with, without)
}

/// One Fig. 7 row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SufficientRow {
    /// Virtual-cluster size.
    pub group_size: usize,
    /// Display-energy saving ratio (the blue bars).
    pub energy_saving: f64,
    /// Anxiety reduction vs. the paired baseline (the orange line).
    pub anxiety_reduction: f64,
}

/// Fig. 7: sufficient edge resource — VC sizes within the server's
/// 100-stream budget.
pub fn sufficient_capacity(
    group_sizes: &[usize],
    slots: usize,
    seed: u64,
) -> Vec<SufficientRow> {
    let results = Mutex::new(Vec::new());
    crossbeam::thread::scope(|scope| {
        for &size in group_sizes {
            let results = &results;
            scope.spawn(move |_| {
                let config = EmulatorConfig {
                    devices: size,
                    slots,
                    seed: seed ^ size as u64,
                    // "Sufficient" means every device fits even at the
                    // priciest resolution (QHD ≈ 5.1 compute units).
                    server_streams: 6 * size,
                    lambda: 1.0,
                    ..EmulatorConfig::default()
                };
                let (with, without) = run_pair(config, Policy::Lpvs);
                results.lock().push(SufficientRow {
                    group_size: size,
                    energy_saving: with.display_saving_ratio(),
                    anxiety_reduction: with.anxiety_reduction_vs(&without),
                });
            });
        }
    })
    .expect("sweep thread panicked");
    let mut rows = results.into_inner();
    rows.sort_by_key(|r| r.group_size);
    rows
}

/// One Fig. 8 cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LimitedRow {
    /// Virtual-cluster size.
    pub group_size: usize,
    /// Regularization λ.
    pub lambda: f64,
    /// Display-energy saving ratio.
    pub energy_saving: f64,
    /// Anxiety reduction vs. the paired baseline.
    pub anxiety_reduction: f64,
}

/// Fig. 8: limited edge resource — VC sizes beyond the 100-stream
/// budget, swept over λ.
pub fn limited_capacity(
    group_sizes: &[usize],
    lambdas: &[f64],
    slots: usize,
    seed: u64,
) -> Vec<LimitedRow> {
    let results = Mutex::new(Vec::new());
    crossbeam::thread::scope(|scope| {
        for &size in group_sizes {
            for &lambda in lambdas {
                let results = &results;
                scope.spawn(move |_| {
                    let config = EmulatorConfig {
                        devices: size,
                        slots,
                        // Same seed per size across λ so only λ varies.
                        seed: seed ^ size as u64,
                        server_streams: 100,
                        lambda,
                        ..EmulatorConfig::default()
                    };
                    let (with, without) = run_pair(config, Policy::Lpvs);
                    results.lock().push(LimitedRow {
                        group_size: size,
                        lambda,
                        energy_saving: with.display_saving_ratio(),
                        anxiety_reduction: with.anxiety_reduction_vs(&without),
                    });
                });
            }
        }
    })
    .expect("sweep thread panicked");
    let mut rows = results.into_inner();
    rows.sort_by(|a, b| {
        (a.group_size, a.lambda)
            .partial_cmp(&(b.group_size, b.lambda))
            .expect("finite keys")
    });
    rows
}

/// One row of the fault-rate ablation: how much of the paper's
/// headline result survives a given per-slot fault rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRow {
    /// Uniform per-slot fault rate applied to every fault class.
    pub fault_rate: f64,
    /// Display-energy saving ratio under faults.
    pub energy_saving: f64,
    /// Anxiety reduction vs. the paired (equally faulted) baseline.
    pub anxiety_reduction: f64,
    /// Slots served below the configured solver.
    pub degraded_slots: usize,
    /// Total slots in the run.
    pub total_slots: usize,
    /// Mean length (slots) of degraded stretches; `None` if none.
    pub recovery_slots: Option<f64>,
}

/// Fault ablation: sweeps a uniform fault profile over `rates` and
/// measures what the degradation ladder retains. The paired baseline
/// sees the *same* fault plan, so the comparison isolates scheduling
/// quality from fault-induced watch-time loss.
pub fn fault_sweep(
    rates: &[f64],
    devices: usize,
    slots: usize,
    seed: u64,
) -> Vec<FaultRow> {
    let results = Mutex::new(Vec::new());
    crossbeam::thread::scope(|scope| {
        for &rate in rates {
            let results = &results;
            scope.spawn(move |_| {
                let config = EmulatorConfig {
                    devices,
                    slots,
                    seed,
                    server_streams: 6 * devices,
                    lambda: 1.0,
                    faults: crate::faults::FaultConfig::uniform(rate, seed ^ 0xFA17),
                    ..EmulatorConfig::default()
                };
                let (with, without) = run_pair(config, Policy::Lpvs);
                results.lock().push(FaultRow {
                    fault_rate: rate,
                    energy_saving: with.display_saving_ratio(),
                    anxiety_reduction: with.anxiety_reduction_vs(&without),
                    degraded_slots: with.degraded_slots(),
                    total_slots: with.slots.len(),
                    recovery_slots: with.mean_recovery_slots(),
                });
            });
        }
    })
    .expect("sweep thread panicked");
    let mut rows = results.into_inner();
    rows.sort_by(|a, b| a.fault_rate.total_cmp(&b.fault_rate));
    rows
}

/// Fig. 9 result: time-per-viewer of low-battery users.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TpvResult {
    /// Low-battery (≤ 40 % start) LPVS-served users measured.
    pub users: usize,
    /// Mean TPV without LPVS (minutes).
    pub without_minutes: f64,
    /// Mean TPV with LPVS (minutes).
    pub with_minutes: f64,
}

impl TpvResult {
    /// Extra watch time (minutes).
    pub fn extra_minutes(&self) -> f64 {
        self.with_minutes - self.without_minutes
    }

    /// Relative gain (`extra / without`, the paper's 38.8 %).
    pub fn gain_ratio(&self) -> f64 {
        if self.without_minutes <= 0.0 {
            return 0.0;
        }
        self.extra_minutes() / self.without_minutes
    }
}

/// Fig. 9: TPV of low-battery users under sufficient capacity. The
/// cohort is the paper's: users who i) were served by LPVS and ii)
/// started at ≤ 40 % battery.
pub fn retention(group_size: usize, slots: usize, seed: u64) -> TpvResult {
    retention_with_model(group_size, slots, seed, false)
}

/// [`retention`] with a choice of energy model: `display_only = true`
/// reproduces the paper's implicit model where γ applies to the whole
/// power rate.
pub fn retention_with_model(
    group_size: usize,
    slots: usize,
    seed: u64,
    display_only: bool,
) -> TpvResult {
    let config = EmulatorConfig {
        devices: group_size,
        slots,
        seed,
        server_streams: 100,
        lambda: 1.0,
        // A 4 Wh effective video-energy budget reproduces the paper's
        // tens-of-minutes TPV scale (their emulation never pins
        // absolute capacities); the *relative* gain is capacity-free.
        battery_capacity_wh: 4.0,
        display_only_drain: display_only,
        ..EmulatorConfig::default()
    };
    let (with, without) = run_pair(config, Policy::Lpvs);
    let cohort: Vec<usize> = with
        .low_battery_devices(0.40)
        .into_iter()
        .filter(|&i| with.ever_selected[i])
        .collect();
    let with_minutes =
        with.mean_watch_minutes(|i| cohort.contains(&i)).unwrap_or(0.0);
    let without_minutes =
        without.mean_watch_minutes(|i| cohort.contains(&i)).unwrap_or(0.0);
    TpvResult { users: cohort.len(), without_minutes, with_minutes }
}

/// One trace-driven cell: a virtual cluster formed from one live
/// session of the (Twitch-like) trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceDrivenRow {
    /// Channel id in the trace.
    pub channel: u32,
    /// Virtual-cluster size (mean concurrent viewers of the session).
    pub viewers: usize,
    /// Emulated slots (session duration, capped).
    pub slots: usize,
    /// Display-energy saving ratio.
    pub energy_saving: f64,
    /// Anxiety reduction vs. the paired baseline.
    pub anxiety_reduction: f64,
}

/// Aggregate of a trace-driven run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDrivenReport {
    /// Per-session rows, by descending viewer count.
    pub rows: Vec<TraceDrivenRow>,
    /// Viewer-slot-weighted mean energy saving.
    pub weighted_energy_saving: f64,
    /// Viewer-slot-weighted mean anxiety reduction.
    pub weighted_anxiety_reduction: f64,
}

/// Drives LPVS with virtual clusters formed from live sessions of a
/// trace (the paper's §VI-B setup: "a group of viewers in each channel
/// … form a VC"). Sessions with 20–500 mean viewers are eligible; the
/// busiest `max_sessions` are emulated, each for its session duration
/// capped at `max_slots`.
pub fn trace_driven(
    trace: &Trace,
    max_sessions: usize,
    max_slots: usize,
    seed: u64,
) -> TraceDrivenReport {
    let mut eligible: Vec<(u32, usize, usize)> = trace
        .sessions()
        .filter_map(|(c, s)| {
            let viewers = s.mean_viewers().round() as usize;
            ((20..=500).contains(&viewers)).then(|| {
                (c.id().0, viewers, (s.duration_slots() as usize).min(max_slots).max(1))
            })
        })
        .collect();
    eligible.sort_by_key(|&(id, viewers, _)| (std::cmp::Reverse(viewers), id));
    eligible.truncate(max_sessions);

    let results = Mutex::new(Vec::new());
    crossbeam::thread::scope(|scope| {
        for &(channel, viewers, slots) in &eligible {
            let results = &results;
            scope.spawn(move |_| {
                let config = EmulatorConfig {
                    devices: viewers,
                    slots,
                    seed: seed ^ u64::from(channel),
                    server_streams: 100,
                    lambda: 1.0,
                    ..EmulatorConfig::default()
                };
                let (with, without) = run_pair(config, Policy::Lpvs);
                results.lock().push(TraceDrivenRow {
                    channel,
                    viewers,
                    slots,
                    energy_saving: with.display_saving_ratio(),
                    anxiety_reduction: with.anxiety_reduction_vs(&without),
                });
            });
        }
    })
    .expect("sweep thread panicked");
    let mut rows: Vec<TraceDrivenRow> = results.into_inner();
    rows.sort_by_key(|r| (std::cmp::Reverse(r.viewers), r.channel));

    let total_weight: f64 = rows.iter().map(|r| (r.viewers * r.slots) as f64).sum();
    let (we, wa) = if total_weight > 0.0 {
        (
            rows.iter()
                .map(|r| r.energy_saving * (r.viewers * r.slots) as f64)
                .sum::<f64>()
                / total_weight,
            rows.iter()
                .map(|r| r.anxiety_reduction * (r.viewers * r.slots) as f64)
                .sum::<f64>()
                / total_weight,
        )
    } else {
        (0.0, 0.0)
    };
    TraceDrivenReport {
        rows,
        weighted_energy_saving: we,
        weighted_anxiety_reduction: wa,
    }
}

/// One Fig. 10 point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadRow {
    /// Cluster size N.
    pub devices: usize,
    /// Scheduler wall-clock time (seconds).
    pub runtime_secs: f64,
}

/// Fig. 10: scheduler running time vs. cluster size, with the linear
/// fit the paper reports (y = 0.055x − 0.324, R² = 0.999 on their
/// hardware; ours differs in constants, not in shape).
pub fn overhead(sizes: &[usize], seed: u64) -> (Vec<OverheadRow>, LineFit) {
    let rows: Vec<OverheadRow> = sizes
        .iter()
        .map(|&n| {
            let scheduler = lpvs_core::scheduler::LpvsScheduler::paper_default();
            // Per instance: one untimed warm-up, then best-of-two timed
            // runs (discards cold-cache outliers); per size: the median
            // across instances (discards branch-and-bound node-count
            // luck, which is heavy-tailed).
            let mut times: Vec<f64> = Vec::new();
            for instance in 0..9u64 {
                // Capacity scales with the cluster, as the paper's edge
                // is provisioned per deployment. A fixed capacity makes
                // *small* clusters the hard knapsack instances (the
                // LP bound is loosest when capacity ≈ n) and inverts
                // the size/runtime trend the figure measures.
                let capacity = 0.4 * n as f64;
                let problem = synthetic_problem(n, capacity, 1.0, seed ^ (instance << 32));
                let _ = scheduler.schedule(&problem).expect("schedule");
                let mut best = f64::INFINITY;
                for _ in 0..2 {
                    let t = Instant::now();
                    let _ = scheduler.schedule(&problem).expect("schedule");
                    best = best.min(t.elapsed().as_secs_f64());
                }
                times.push(best);
            }
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            OverheadRow { devices: n, runtime_secs: times[times.len() / 2] }
        })
        .collect();
    let points: Vec<(f64, f64)> =
        rows.iter().map(|r| (r.devices as f64, r.runtime_secs)).collect();
    let fit = LineFit::fit(&points);
    (rows, fit)
}

/// A synthetic slot problem of `n` devices (used by the overhead sweep
/// and the criterion benches, where full emulation would drown the
/// scheduler signal).
pub fn synthetic_problem(n: usize, capacity: f64, lambda: f64, seed: u64) -> SlotProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = SlotProblem::new(capacity, 1e9, lambda, AnxietyCurve::paper_shape());
    for _ in 0..n {
        let fraction: f64 = rng.gen_range(0.03..1.0);
        p.push(DeviceRequest::uniform(
            rng.gen_range(0.7..1.8),
            10.0,
            30,
            fraction * 55_440.0,
            55_440.0,
            rng.gen_range(0.13..0.49),
            rng.gen_range(0.4..2.3),
            rng.gen_range(0.05..0.2),
        ));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sufficient_rows_have_paper_shape() {
        let rows = sufficient_capacity(&[12, 20], 5, 11);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                (0.10..=0.55).contains(&r.energy_saving),
                "energy saving {} out of band",
                r.energy_saving
            );
            assert!(r.anxiety_reduction > 0.0, "no anxiety reduction");
        }
    }

    #[test]
    fn limited_capacity_saving_falls_with_group_size() {
        // Capacity 100 is the server default; emulate beyond it with
        // small numbers by shrinking the server instead. A 3× size
        // contrast over 6 slots keeps the trend out of sampling noise.
        let rows = limited_capacity(&[30, 90], &[1.0], 6, 5);
        // Same absolute capacity serves a smaller *fraction* of the
        // bigger cluster, so the saving ratio cannot grow.
        assert!(rows[0].energy_saving >= rows[1].energy_saving - 0.02);
    }

    #[test]
    fn fault_sweep_degrades_gracefully_not_catastrophically() {
        let rows = fault_sweep(&[0.0, 0.2], 12, 6, 17);
        assert_eq!(rows.len(), 2);
        let healthy = rows[0];
        let faulted = rows[1];
        assert_eq!(healthy.degraded_slots, 0, "zero-rate run degraded");
        // Faults cost something but the ladder keeps the run productive.
        assert!(faulted.energy_saving > 0.0, "faulted run saved nothing");
        assert!(faulted.energy_saving <= healthy.energy_saving + 0.05);
    }

    #[test]
    fn retention_extends_watch_time() {
        let tpv = retention(24, 30, 13);
        assert!(tpv.users > 0, "no low-battery users in cohort");
        assert!(
            tpv.with_minutes > tpv.without_minutes,
            "LPVS did not extend TPV: {} vs {}",
            tpv.with_minutes,
            tpv.without_minutes
        );
        assert!(tpv.gain_ratio() > 0.05);
    }

    #[test]
    fn overhead_grows_roughly_linearly() {
        // Sizes start at 250: below that, wall-clock is dominated by
        // per-instance branch-and-bound search luck rather than the
        // per-device work the figure is about.
        let (rows, fit) = overhead(&[250, 500, 1000], 3);
        assert_eq!(rows.len(), 3);
        assert!(rows[2].runtime_secs > rows[0].runtime_secs);
        assert!(fit.slope > 0.0);
        assert!(fit.r_squared > 0.7, "R² {}", fit.r_squared);
    }

    #[test]
    fn trace_driven_aggregates_sessions() {
        let trace = lpvs_trace::generator::TraceGenerator::new(120, 19).generate();
        let report = trace_driven(&trace, 3, 4, 7);
        assert!(!report.rows.is_empty());
        assert!(report.rows.len() <= 3);
        for r in &report.rows {
            assert!((20..=500).contains(&r.viewers));
            assert!(r.slots <= 4);
            assert!(r.energy_saving > 0.0);
        }
        assert!(report.weighted_energy_saving > 0.0);
    }

    #[test]
    fn synthetic_problem_is_well_formed() {
        let p = synthetic_problem(40, 20.0, 1.0, 9);
        assert_eq!(p.len(), 40);
        assert!(p.capacity_feasible(&[false; 40]));
    }
}
