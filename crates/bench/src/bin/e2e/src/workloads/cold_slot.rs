//! `cold-slot` — the paper's Fig. 10 experiment: one monolithic cold
//! solve per virtual-cluster size, no warm start, no shards.
//!
//! `lpvs-solver` (LP bound, branch and bound) and `lpvs-core::phase2`
//! do nearly all the work; the delta memo, the runtime, the server and
//! the estimators do nothing. This workload carries the scaling
//! exponent the ROADMAP's north star is stated in.

use super::{timed_setup, OnOff, Outcome};
use crate::check::{ensure, exact_tier};
use crate::layers;
use crate::spans::Recorder;
use crate::stats::{linear_r2, loglog_slope, Fnv};
use crate::{host, Spec};
use lpvs_core::budget::SlotBudget;
use lpvs_core::problem::SlotProblem;
use lpvs_core::scheduler::{LpvsScheduler, Schedule};
use lpvs_emulator::experiment::synthetic_problem;
use std::hint::black_box;
use std::time::Instant;

/// Virtual-cluster sizes of the sweep; later issues cite the largest.
const SIZES: [usize; 4] = [2_000, 4_000, 8_000, 16_000];
/// Timed repetitions per size in ten seconds: the small sizes are cheap,
/// so they get more, and the median of each steadies the fit.
const REPS_PER_TEN_SECONDS: [usize; 4] = [20, 10, 5, 5];
const MIN_REPS: usize = 3;
/// A set-up round is ≈ 0.15 s, so it can afford more than the default.
const SETUP_ROUNDS: usize = 7;

fn problem(n: usize, seed: u64) -> SlotProblem {
    synthetic_problem(n, 0.4 * n as f64, 1.0, seed)
}

/// Share of the untransformed display energy the selection saves.
fn energy_saving(problem: &SlotProblem, selected: &[bool]) -> f64 {
    let saved: f64 = problem
        .requests
        .iter()
        .zip(selected)
        .filter(|(_, &x)| x)
        .map(|(r, _)| r.saving_j())
        .sum();
    let total: f64 = problem
        .requests
        .iter()
        .map(|r| r.untransformed_energy_j())
        .sum();
    saved / total
}

fn verify(problem: &SlotProblem, schedule: &Schedule) -> Result<(), String> {
    ensure(schedule.selected.len() == problem.len(), || {
        format!(
            "selection covers {} of {} devices",
            schedule.selected.len(),
            problem.len()
        )
    })?;
    exact_tier(schedule.stats.degradation)?;
    ensure(problem.capacity_feasible(&schedule.selected), || {
        format!("N={}: selection violates a capacity row", problem.len())
    })
}

pub fn run(spec: &Spec, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let scheduler = LpvsScheduler::paper_default();
    let budget = SlotBudget::unbounded();
    let sizes: Vec<usize> = SIZES.iter().map(|&n| spec.size(n)).collect();

    // Set-up: build the four problems and warm the two small sizes (code
    // paged in, allocator grown). The large sizes are not warmed: their
    // first repetition is one sample the median discards.
    let (problems, setup_s) = timed_setup(SETUP_ROUNDS, || {
        let problems: Vec<SlotProblem> = sizes.iter().map(|&n| problem(n, spec.seed)).collect();
        for p in &problems[..2] {
            black_box(scheduler.schedule_resilient(p, None, &budget));
        }
        problems
    });

    let measure_start = Instant::now();
    let mut points: Vec<(f64, f64)> = Vec::new();
    // Per size: median time with the benchmark's spans on over off.
    let mut overhead = Vec::new();
    let mut last: Option<Schedule> = None;
    for (i, p) in problems.iter().enumerate() {
        let reps = spec.reps(REPS_PER_TEN_SECONDS[i], MIN_REPS);
        let mut secs = Vec::with_capacity(reps);
        let mut on_off = OnOff::default();
        for rep in 0..reps {
            rec.on = spec.trace && rep % 2 == 0;
            let open = rec.enter("core.schedule_resilient", p.len() as u64);
            let start = Instant::now();
            let schedule = scheduler.schedule_resilient(black_box(p), None, &budget);
            let took = start.elapsed().as_secs_f64();
            rec.exit(open);
            secs.push(took);
            on_off.push(rec.on, took);
            out.checks.op(verify(p, &schedule));
            last = Some(schedule);
        }
        let label: &'static str = [
            "core.t_2000_s",
            "core.t_4000_s",
            "core.t_8000_s",
            "core.t_16000_s",
        ][i];
        let median = out.timing(label, &secs).median;
        points.push((p.len() as f64, median));
        if spec.trace {
            out.set(label, median);
            overhead.push(on_off.ratio());
        }
    }
    rec.on = spec.trace;
    let measured_wall = measure_start.elapsed().as_secs_f64();

    let largest = problems.last().expect("four sizes");
    let schedule = last.expect("at least one repetition");
    let mut hash = Fnv::new();
    hash.bools(&schedule.selected);
    out.selection_hash = hash.finish();

    let slot_decision_s = points.last().expect("four sizes").1;
    if spec.trace {
        out.set("core.scaling_exponent", loglog_slope(&points));
        out.set("core.linear_fit_r2", linear_r2(&points));
        out.set(
            "bench.trace_overhead_ratio",
            crate::stats::median(&overhead),
        );
        out.set("bench.measured_wall_s", measured_wall);
        layers::solver_and_core_stages(largest, &problems[0], slot_decision_s, rec, &mut out);
    } else {
        out.set("setup_s", setup_s);
        out.set("slot_decision_s", slot_decision_s);
        // Devices decided per second over the whole sweep.
        let devices: f64 = points.iter().map(|p| p.0).sum();
        let seconds: f64 = points.iter().map(|p| p.1).sum();
        out.set("device_slots_per_s", devices / seconds);
        out.set("energy_saving", energy_saving(largest, &schedule.selected));
        out.set("peak_rss_mb", host::peak_rss_mb());
    }
    println!(
        "cold-slot: scaling exponent {:.3}, linear-fit R² {:.4} over N = {:?}",
        loglog_slope(&points),
        linear_r2(&points),
        sizes
    );
    out
}
