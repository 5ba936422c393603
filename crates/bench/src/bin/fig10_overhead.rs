//! Regenerates Fig. 10: LPVS scheduler running time vs. virtual-cluster
//! size, with the linear fit the paper reports — plus the telemetry
//! overhead check (recording disabled vs. enabled on the same slots) and
//! the cold slot decomposed into its stages at the benchmark's largest
//! size, so the next cold-slot change starts from a committed table:
//! load / compact (the one fused score walk) / Phase-1 / Phase-2 rank /
//! index / probe / account, the laps of one solve, which add up to its
//! `slot` row exactly. Three more rows time what the branch-and-bound
//! does on the same Phase-1 program, in standalone re-runs of the solver
//! crate's entry points (`lpvs-solver` takes no laps): the greedy seed by
//! break selection, the root bound read off selected break items, and the
//! whole solve.
//!
//! Writes `BENCH_fig10.json` at the repository root. `--smoke` runs a
//! reduced sweep for CI.

use lpvs_core::budget::SlotBudget;
use lpvs_core::kernels;
use lpvs_core::phase1::Phase1Config;
use lpvs_core::problem::SlotProblem;
use lpvs_core::scheduler::LpvsScheduler;
use lpvs_emulator::experiment::{overhead, synthetic_problem};
use lpvs_emulator::report::render_overhead;
use lpvs_obs::json::Json;
use lpvs_runtime::telemetry::record_spans;
use lpvs_solver::knapsack::greedy_selection;
use lpvs_solver::{BinaryProgram, BranchBound, KnapsackRelaxation, Relation, Sense};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke {
        &[100, 250]
    } else {
        &[250, 500, 1000, 2000, 3000, 4000, 5000]
    };
    println!(
        "Fig. 10 — scheduler running time vs VC size{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    let (rows, fit) = overhead(sizes, 2023);
    print!("{}", render_overhead(&rows, &fit));
    let slot_budget = 300.0;
    let capacity = if fit.slope > 0.0 {
        ((slot_budget - fit.intercept) / fit.slope) as u64
    } else {
        u64::MAX
    };
    println!(
        "\nextrapolated devices schedulable within one 5-minute slot: {capacity} \
         (paper: >5,000)"
    );

    // Telemetry overhead: the same slot problem scheduled and its spans
    // recorded from its laps, with the recorder off (one atomic load)
    // and on (spans + histograms collected).
    let probe_n = if smoke { 200 } else { 1000 };
    let probe = ObsProbe::measure(probe_n);
    println!(
        "\ntelemetry overhead at N={probe_n}: disabled {:.6} s/slot, \
         enabled {:.6} s/slot ({:+.2} %), {} span events/slot",
        probe.noop_secs,
        probe.enabled_secs,
        probe.overhead_pct,
        probe.events_per_run,
    );

    let stage_n = if smoke { 2_000 } else { 16_000 };
    let stages = cold_slot_stages(stage_n, if smoke { 3 } else { 9 });
    println!("\ncold slot at N={stage_n}, stage by stage (the median solve's laps; re-runs: median, ms):");
    for (stage, what, secs) in &stages {
        println!("  {stage:<18} {:>8.3}   {what}", 1e3 * secs);
    }

    let artifact = Json::obj([
        ("figure", Json::Str("fig10".into())),
        ("smoke", Json::Bool(smoke)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("devices", Json::Num(r.devices as f64)),
                            ("runtime_secs", Json::Num(r.runtime_secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fit",
            Json::obj([
                ("slope", Json::Num(fit.slope)),
                ("intercept", Json::Num(fit.intercept)),
                ("r_squared", Json::Num(fit.r_squared)),
            ]),
        ),
        ("extrapolated_capacity", Json::Num(capacity as f64)),
        (
            "cold_slot_stages",
            Json::obj(
                [("devices", Json::Num(stage_n as f64))]
                    .into_iter()
                    .chain(stages.iter().map(|&(stage, _, secs)| (stage, Json::Num(secs)))),
            ),
        ),
        (
            "obs_overhead",
            Json::obj([
                ("devices", Json::Num(probe_n as f64)),
                ("noop_secs", Json::Num(probe.noop_secs)),
                ("enabled_secs", Json::Num(probe.enabled_secs)),
                ("overhead_pct", Json::Num(probe.overhead_pct)),
                ("events_per_run", Json::Num(probe.events_per_run as f64)),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig10.json");
    std::fs::write(path, format!("{artifact}\n")).expect("write BENCH_fig10.json");
    println!("wrote {path}");
}

/// Paired timing of the resilient scheduler, its spans recorded from its
/// laps as the slot runtime records them, with recording off and on:
/// alternating rounds, the median round of each side and the median of
/// the rounds' paired overheads — a slot at the probe size is well under
/// a millisecond, so a single block of five repetitions a side measured
/// the host's drift, not the recorder.
struct ObsProbe {
    noop_secs: f64,
    enabled_secs: f64,
    /// Median over the rounds of `100 · (enabled − disabled) / disabled`.
    overhead_pct: f64,
    events_per_run: usize,
}

impl ObsProbe {
    fn measure(n: usize) -> Self {
        let scheduler = LpvsScheduler::paper_default();
        let problem = synthetic_problem(n, 0.4 * n as f64, 1.0, 77);
        let budget = SlotBudget::unbounded();
        let (rounds, reps) = (21, 5);
        // Warm-up (page in the problem, stabilize caches).
        let _ = scheduler.schedule_resilient(&problem, None, &budget);

        let recorder = lpvs_obs::init();
        recorder.reset();
        let round = |enabled: bool| {
            lpvs_obs::set_enabled(enabled);
            let solve = || record_spans(&scheduler.schedule_resilient(&problem, None, &budget).laps, None);
            let run = || (0..reps).for_each(|_| solve());
            timed(run) / reps as f64
        };
        let (noop, enabled): (Vec<f64>, Vec<f64>) =
            (0..rounds).map(|_| (round(false), round(true))).unzip();
        lpvs_obs::set_enabled(false);
        let paired = noop.iter().zip(&enabled).map(|(off, on)| 100.0 * (on - off) / off).collect();
        Self {
            overhead_pct: median(paired),
            noop_secs: median(noop),
            enabled_secs: median(enabled),
            events_per_run: recorder.event_count() / (rounds * reps),
        }
    }
}

fn median(mut secs: Vec<f64>) -> f64 {
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    secs[secs.len() / 2]
}

fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// The Phase-1 program of a problem, as the exact solver builds it.
fn phase1_program(problem: &SlotProblem) -> BinaryProgram {
    let indices: Vec<usize> = (0..problem.len()).collect();
    let (mut feasible, mut savings) = (Vec::new(), Vec::new());
    kernels::with_problem_columns(problem, |cols| {
        kernels::transform_savings_batch(&cols, &indices, &mut feasible, &mut savings);
    });
    let g: Vec<f64> = problem.requests.iter().map(|r| r.compute_cost).collect();
    let h: Vec<f64> = problem.requests.iter().map(|r| r.storage_cost_gb).collect();
    let config = Phase1Config::default();
    let mut ilp = BinaryProgram::new(Sense::Maximize, savings).expect("finite savings");
    ilp.add_constraint(g, Relation::Le, problem.compute_capacity).expect("compute row");
    ilp.add_constraint(h, Relation::Le, problem.storage_capacity_gb).expect("storage row");
    for (i, &ok) in feasible.iter().enumerate() {
        if !ok {
            ilp.fix(i, false).expect("index in range");
        }
    }
    ilp.set_node_limit(config.node_limit);
    ilp.set_relative_gap(config.relative_gap);
    ilp
}

/// One cold `schedule_resilient` at `n` devices, `reps` times, as
/// `(stage, how it was timed, seconds)`: the laps of the median solve
/// (by its total), whose sum is the `slot` row, and the medians of the
/// solver's standalone re-runs.
fn cold_slot_stages(n: usize, reps: usize) -> Vec<(&'static str, &'static str, f64)> {
    let scheduler = LpvsScheduler::paper_default();
    let problem = synthetic_problem(n, 0.4 * n as f64, 1.0, 7);
    let budget = SlotBudget::unbounded();
    let _ = scheduler.schedule_resilient(&problem, None, &budget);

    let mut solves: Vec<_> = (0..reps).map(|_| scheduler.schedule_resilient(&problem, None, &budget).laps).collect();
    solves.sort_by_key(|laps| laps.total());
    let laps = &solves[reps / 2];
    let lap = |stage| laps.time(|s| s == stage).as_secs_f64();

    let ilp = phase1_program(&problem);
    let rows: Vec<(&[f64], f64)> = ilp.rows().iter().map(|r| (r.coeffs.as_slice(), r.rhs)).collect();
    let solver = |f: &dyn Fn()| median((0..reps).map(|_| timed(f)).collect());
    let seed = solver(&|| drop(greedy_selection(black_box(ilp.objective()), &rows, ilp.fixings())));
    let bound = solver(&|| {
        let relaxation = KnapsackRelaxation::of(&ilp).expect("two ≤ rows");
        black_box(relaxation.selected_objective(black_box(ilp.fixings())));
    });
    let search = solver(&|| drop(BranchBound::new(black_box(&ilp)).solve()));

    let laps_timed = [
        ("load", "lap load: rows → columns", lap("sched.sanitize")),
        ("compact", "lap compact: one walk a row (feasibility, saving, eq.-13 off/on)", lap("sched.compact")),
        ("phase1", "lap phase1 (program + B&B, on the compact score)", lap("sched.phase1")),
        ("phase2_rank", "lap rank: capacity used, floor, live set by anxiety", lap("sched.phase2.rank")),
        ("phase2_index", "lap index: selected + live losses, order + tree", lap("sched.phase2.index")),
        ("phase2_probe", "lap probe: ≤ one descent per live candidate", lap("sched.phase2.probe")),
        ("account", "lap account: terms picked from the compact score", lap("sched.account")),
    ];
    assert_eq!(laps.ends.len(), laps_timed.len(), "a cold exact solve takes one lap a stage");
    let slot = laps_timed.iter().map(|&(.., secs)| secs).sum();
    let rerun = [
        ("seed", "re-run greedy_selection: the greedy seed by break selection + its tail", seed),
        ("bound", "re-run KnapsackRelaxation::of(..).selected_objective(..): the root read off break items", bound),
        ("bnb", "re-run BranchBound::solve, whole (seed + root + prune; sorted orders only on a fallback)", search),
    ];
    let whole = ("slot", "the laps' sum: ScheduleStats::runtime of the median solve", slot);
    laps_timed.into_iter().chain(rerun).chain([whole]).collect()
}
