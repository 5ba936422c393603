//! Regenerates Fig. 10: LPVS scheduler running time vs. virtual-cluster
//! size, with the linear fit the paper reports — plus the telemetry
//! overhead check (recording disabled vs. enabled on the same slots) and
//! the cold slot decomposed into its stages at the benchmark's largest
//! size, so the next cold-slot change starts from a committed table:
//! load / compact / orders + seed / bound / Phase-2 score / index /
//! probe / account. The scheduler's stages are its own spans; the three
//! solver rows time the solver crate's public entry points on the same
//! Phase-1 program (`lpvs-solver` records no spans).
//!
//! Writes `BENCH_fig10.json` at the repository root. `--smoke` runs a
//! reduced sweep for CI.

use lpvs_core::kernels;
use lpvs_core::phase1::Phase1Config;
use lpvs_core::problem::SlotProblem;
use lpvs_core::scheduler::LpvsScheduler;
use lpvs_edge::slot::SlotBudget;
use lpvs_emulator::experiment::{overhead, synthetic_problem};
use lpvs_emulator::report::render_overhead;
use lpvs_obs::json::Json;
use lpvs_solver::{
    greedy_multi_knapsack, BinaryProgram, BranchBound, KnapsackRelaxation, Relation, Sense,
};
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

    // Telemetry overhead: the same slot problem scheduled with the
    // recorder off (NoopRecorder fast path: one atomic load per
    // instrumented site) and on (spans + histograms collected).
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
    println!("\ncold slot at N={stage_n}, stage by stage (median, ms):");
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

/// Paired timing of the resilient scheduler with recording off and on:
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
            let run = || (0..reps).for_each(|_| drop(scheduler.schedule_resilient(&problem, None, &budget)));
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

/// The Phase-1 program of a problem, as the exact solver builds it, and
/// the same data as the greedy entry takes it.
struct Phase1Inputs {
    ilp: BinaryProgram,
    savings: Vec<f64>,
    g: Vec<f64>,
    h: Vec<f64>,
    fixings: Vec<Option<bool>>,
}

fn phase1_inputs(problem: &SlotProblem) -> Phase1Inputs {
    let indices: Vec<usize> = (0..problem.len()).collect();
    let (mut feasible, mut savings) = (Vec::new(), Vec::new());
    kernels::with_problem_columns(problem, |cols| {
        kernels::transform_savings_batch(&cols, &indices, &mut feasible, &mut savings);
    });
    let g: Vec<f64> = problem.requests.iter().map(|r| r.compute_cost).collect();
    let h: Vec<f64> = problem.requests.iter().map(|r| r.storage_cost_gb).collect();
    let config = Phase1Config::default();
    let mut ilp = BinaryProgram::new(Sense::Maximize, savings.clone()).expect("finite savings");
    ilp.add_constraint(g.clone(), Relation::Le, problem.compute_capacity).expect("compute row");
    ilp.add_constraint(h.clone(), Relation::Le, problem.storage_capacity_gb).expect("storage row");
    for (i, &ok) in feasible.iter().enumerate() {
        if !ok {
            ilp.fix(i, false).expect("index in range");
        }
    }
    ilp.set_node_limit(config.node_limit);
    ilp.set_relative_gap(config.relative_gap);
    let fixings = feasible.iter().map(|&ok| if ok { None } else { Some(false) }).collect();
    Phase1Inputs { ilp, savings, g, h, fixings }
}

/// One cold `schedule_resilient` at `n` devices, `reps` times, as
/// `(stage, how it was timed, median seconds)`.
fn cold_slot_stages(n: usize, reps: usize) -> Vec<(&'static str, &'static str, f64)> {
    let scheduler = LpvsScheduler::paper_default();
    let problem = synthetic_problem(n, 0.4 * n as f64, 1.0, 7);
    let budget = SlotBudget::unbounded();
    let _ = scheduler.schedule_resilient(&problem, None, &budget);

    let recorder = lpvs_obs::init();
    recorder.reset();
    for _ in 0..reps {
        let _ = scheduler.schedule_resilient(&problem, None, &budget);
    }
    lpvs_obs::set_enabled(false);
    let events = recorder.events();
    let span = |name: &str| {
        median(events.iter().filter(|e| e.name == name).map(|e| 1e-6 * e.duration_us as f64).collect())
    };

    let Phase1Inputs { ilp, savings, g, h, fixings } = phase1_inputs(&problem);
    let rows = [(g.as_slice(), problem.compute_capacity), (h.as_slice(), problem.storage_capacity_gb)];
    let solver = |f: &dyn Fn()| median((0..reps).map(|_| timed(f)).collect());
    let seed = solver(&|| drop(greedy_multi_knapsack(black_box(&savings), &rows, &fixings)));
    let bound = solver(&|| {
        let relaxation = KnapsackRelaxation::of(&ilp).expect("two ≤ rows");
        drop(relaxation.solve(black_box(ilp.fixings())));
    });
    let search = solver(&|| drop(BranchBound::new(black_box(&ilp)).solve()));

    vec![
        ("load", "span sched.sanitize: rows → columns", span("sched.sanitize")),
        ("compact", "span sched.compact: savings + feasibility kernel", span("sched.compact")),
        ("orders_seed", "greedy_multi_knapsack: density order + greedy pass", seed),
        ("bound", "KnapsackRelaxation::of(..).solve(..): row order + fill", bound),
        ("bnb", "BranchBound::solve, whole (orders + seed + bound + rounding)", search),
        ("phase1", "span sched.phase1 (compact + program + B&B)", span("sched.phase1")),
        ("phase2", "span sched.phase2, whole (score + index + candidates + probe)", span("sched.phase2")),
        ("phase2_score", "span sched.phase2.score: eq.-13 off/on + feasibility", span("sched.phase2.score")),
        ("phase2_index", "span sched.phase2.index: sort by loss + segment tree", span("sched.phase2.index")),
        ("phase2_probe", "span sched.phase2.probe: one descent per candidate", span("sched.phase2.probe")),
        ("account", "span sched.account: terms picked from Phase-2's", span("sched.account")),
        ("slot", "span sched.slot, whole", span("sched.slot")),
    ]
}
