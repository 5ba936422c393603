//! Per-layer probes: direct calls into each crate's public functions,
//! each wrapped in one span, on the same seeded inputs as the workload
//! whose traced pass runs them. A metric is the median of its spans.

use crate::host::SHARDS;
use crate::spans::Recorder;
use crate::workloads::Outcome;
use lpvs_bayes::codec::bank_to_bytes;
use lpvs_bayes::{BayesBank, GammaEstimator};
use lpvs_core::budget::SlotBudget;
use lpvs_core::delta::solve_shard_incremental;
use lpvs_core::fleet::DeviceFleet;
use lpvs_core::kernels::{self, Select};
use lpvs_core::objective::objective_value;
use lpvs_core::phase1::{solve_phase1, Phase1Config};
use lpvs_core::phase2::run_phase2;
use lpvs_core::problem::SlotProblem;
use lpvs_core::provision::price_capacity;
use lpvs_core::scheduler::{Degradation, LpvsScheduler};
use lpvs_edge::fleet::{FleetConfig, FleetScheduler, Partitioner};
use lpvs_edge::server::EdgeServer;
use lpvs_runtime::ShardSnapshot;
use lpvs_solver::{
    greedy_multi_knapsack, lagrangian_knapsack, BinaryProgram, BranchBound, Relation, Sense,
};
use lpvs_survey::curve::AnxietyCurve;
use std::hint::black_box;

/// Repetitions of a probe that takes around a second, and of one that
/// takes milliseconds.
const SLOW_REPS: u64 = 2;
const FAST_REPS: u64 = 15;

/// Iterations of a nanosecond-scale call inside one span.
const TIGHT_LOOP: usize = 20_000;

/// The Phase-1 program of a slot problem, exactly as the exact backend
/// builds it from the compact stage's outputs.
fn phase1_program(problem: &SlotProblem, feasible: &[bool], savings: &[f64]) -> BinaryProgram {
    let config = Phase1Config::default();
    let g: Vec<f64> = problem.requests.iter().map(|r| r.compute_cost).collect();
    let h: Vec<f64> = problem.requests.iter().map(|r| r.storage_cost_gb).collect();
    let mut ilp = BinaryProgram::new(Sense::Maximize, savings.to_vec()).expect("finite savings");
    ilp.add_constraint(g, Relation::Le, problem.compute_capacity)
        .expect("compute row");
    ilp.add_constraint(h, Relation::Le, problem.storage_capacity_gb)
        .expect("storage row");
    for (i, &ok) in feasible.iter().enumerate() {
        if !ok {
            ilp.fix(i, false).expect("index in range");
        }
    }
    ilp.set_node_limit(config.node_limit);
    ilp.set_relative_gap(config.relative_gap);
    ilp
}

fn compact(problem: &SlotProblem, feasible: &mut Vec<bool>, savings: &mut Vec<f64>) {
    let indices: Vec<usize> = (0..problem.len()).collect();
    feasible.clear();
    savings.clear();
    kernels::with_problem_columns(problem, |cols| {
        kernels::transform_savings_batch(&cols, &indices, feasible, savings);
    });
}

/// The stages of one cold slot at the largest size, called one by one
/// the way `schedule_resilient` chains them, then the solver tiers on
/// the same Phase-1 program. The Lagrangian tier is the exception: its
/// repair step is quadratic per iteration (minutes at N = 16 000), so it
/// is timed on `small`, the sweep's smallest problem.
pub fn solver_and_core_stages(
    problem: &SlotProblem,
    small: &SlotProblem,
    resilient_s: f64,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let n = problem.len() as u64;
    let config = Phase1Config::default();
    let (mut feasible, mut savings) = (Vec::new(), Vec::new());
    let mut phase2 = Default::default();
    for _ in 0..SLOW_REPS {
        let (clean, _valid) = rec.span("core.sanitize", n, || problem.sanitize());
        rec.span("core.compact", n, || {
            compact(&clean, &mut feasible, &mut savings)
        });
        let phase1 = rec
            .span("core.phase1", n, || solve_phase1(&clean, &config))
            .expect("the Phase-1 program is always feasible");
        let mut selected = phase1.selected;
        phase2 = rec.span("core.phase2", n, || run_phase2(&clean, &mut selected));
        black_box(rec.span("core.objective", n, || objective_value(&clean, &selected)));
        black_box(rec.span("solver.lp_relax", n, || price_capacity(&clean)))
            .expect("the LP relaxation is always feasible");
    }
    for (metric, span) in [
        ("core.sanitize_s", "core.sanitize"),
        ("core.compact_s", "core.compact"),
        ("core.phase1_s", "core.phase1"),
        ("core.phase2_s", "core.phase2"),
        ("core.objective_s", "core.objective"),
        ("solver.lp_relax_s", "solver.lp_relax"),
    ] {
        out.set(metric, rec.median_s(span));
    }
    out.set("core.phase2_swaps_tried", phase2.swaps_tried as f64);
    out.set("core.phase2_swaps_accepted", phase2.swaps_accepted as f64);
    out.set(
        "core.phase2_useful_ratio",
        phase2.swaps_accepted as f64 / (phase2.swaps_tried.max(1)) as f64,
    );
    let stages: f64 = [
        "core.sanitize",
        "core.phase1",
        "core.phase2",
        "core.objective",
    ]
    .iter()
    .map(|s| rec.median_s(s))
    .sum();
    out.set("core.stage_sum_ratio", stages / resilient_s);

    let ilp = phase1_program(problem, &feasible, &savings);
    let mut stats = Default::default();
    for _ in 0..SLOW_REPS {
        let solution = rec
            .span("solver.bnb", n, || BranchBound::new(&ilp).solve())
            .expect("branch and bound finds the greedy incumbent at least");
        stats = solution.stats;
    }
    let (mut small_feasible, mut small_savings) = (Vec::new(), Vec::new());
    compact(small, &mut small_feasible, &mut small_savings);
    let small_ilp = phase1_program(small, &small_feasible, &small_savings);
    black_box(rec.span("solver.lagrangian", small.len() as u64, || {
        lagrangian_knapsack(&small_ilp, 200)
    }))
    .expect("a maximize/<= program");
    let g: Vec<f64> = problem.requests.iter().map(|r| r.compute_cost).collect();
    let h: Vec<f64> = problem.requests.iter().map(|r| r.storage_cost_gb).collect();
    let fixings: Vec<Option<bool>> = feasible
        .iter()
        .map(|&ok| if ok { None } else { Some(false) })
        .collect();
    let rows = [
        (g.as_slice(), problem.compute_capacity),
        (h.as_slice(), problem.storage_capacity_gb),
    ];
    for _ in 0..FAST_REPS {
        black_box(rec.span("solver.greedy", n, || {
            greedy_multi_knapsack(&savings, &rows, &fixings)
        }));
    }
    let bnb_s = rec.median_s("solver.bnb");
    out.set("solver.bnb_s", bnb_s);
    out.set("solver.bnb_nodes", stats.nodes as f64);
    out.set("solver.simplex_pivots", stats.simplex_iterations as f64);
    out.set(
        "solver.pivot_ns",
        1e9 * bnb_s / stats.simplex_iterations.max(1) as f64,
    );
    out.set("solver.lagrangian_s", rec.median_s("solver.lagrangian"));
    out.set("solver.greedy_s", rec.median_s("solver.greedy"));
}

/// What the 32 000-row fleet costs each layer that touches it whole:
/// kernels, fleet build and slicing, the codec, the partitioner, the
/// estimator bank.
pub fn fleet_layers(
    fleet: &DeviceFleet,
    compute_capacity: f64,
    storage_capacity_gb: f64,
    lambda: f64,
    curve: &AnxietyCurve,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let n = fleet.len();
    let id = n as u64;
    let indices: Vec<usize> = (0..n).collect();

    let cols = fleet.columns();
    let mut verdicts = Vec::with_capacity(n);
    let mut objective = Vec::with_capacity(n);
    for _ in 0..FAST_REPS {
        rec.span("core.kernel_feasible", id, || {
            verdicts.clear();
            kernels::transform_feasible_batch(&cols, &indices, &mut verdicts);
        });
        rec.span("core.kernel_objective", id, || {
            objective.clear();
            kernels::device_objective_batch(
                &cols,
                &indices,
                Select::PerRow(&verdicts),
                lambda,
                curve,
                &mut objective,
            );
        });
    }
    black_box((&verdicts, &objective));
    out.set(
        "core.kernel_feasible_ns_per_dev",
        1e9 * rec.median_s("core.kernel_feasible") / n as f64,
    );
    out.set(
        "core.kernel_objective_ns_per_dev",
        1e9 * rec.median_s("core.kernel_objective") / n as f64,
    );
    // Computed, not measured: per device both kernels read two f64 per
    // chunk (power, duration) plus the five scalar columns.
    let chunks = fleet.num_chunks(0) as f64;
    out.set("core.kernel_bytes_per_dev", 8.0 * (2.0 * chunks + 5.0));
    out.set(
        "core.kernel_avx2",
        f64::from(u8::from(kernels::active_path().name() == "avx2")),
    );

    let problem = fleet.subproblem(
        &indices,
        compute_capacity,
        storage_capacity_gb,
        lambda,
        curve,
    );
    let partitioner = edge_scheduler();
    let mut shard0 = Vec::new();
    for _ in 0..FAST_REPS {
        black_box(rec.span("core.fleet_build", id, || {
            DeviceFleet::from_problem(&problem)
        }));
        let shards = rec.span("edge.partition", id, || partitioner.partition(fleet));
        shard0 = shards.into_iter().next().expect("two shards");
        black_box(rec.span("core.subproblem", id, || {
            fleet.subproblem(
                &shard0,
                compute_capacity / SHARDS as f64,
                storage_capacity_gb / SHARDS as f64,
                lambda,
                curve,
            )
        }));
        let mut w = lpvs_codec::Writer::with_capacity(1 << 20);
        rec.span("codec.fleet_encode", id, || fleet.encode(&mut w));
        let bytes = w.into_bytes();
        out.set("codec.fleet_bytes", bytes.len() as f64);
        let decoded = rec
            .span("codec.fleet_decode", id, || {
                DeviceFleet::decode(&mut lpvs_codec::Reader::new(&bytes))
            })
            .expect("a fleet decodes from its own bytes");
        assert_eq!(decoded.len(), n, "codec round trip lost rows");
    }
    out.set("core.fleet_build_s", rec.median_s("core.fleet_build"));
    out.set("edge.partition_s", rec.median_s("edge.partition"));
    out.set("core.subproblem_s", rec.median_s("core.subproblem"));
    out.set("codec.fleet_encode_s", rec.median_s("codec.fleet_encode"));
    out.set("codec.fleet_decode_s", rec.median_s("codec.fleet_decode"));

    // One shard solved cold, then re-solved incrementally over a 1 %
    // frontier: the call a steady-state slot makes per shard.
    let lpvs = LpvsScheduler::paper_default();
    let budget = SlotBudget::unbounded();
    let shard_compute = compute_capacity / SHARDS as f64;
    let shard_storage = storage_capacity_gb / SHARDS as f64;
    let shard_problem = fleet.subproblem(&shard0, shard_compute, shard_storage, lambda, curve);
    let cold = lpvs.schedule_resilient(&shard_problem, None, &budget);
    let frontier: Vec<usize> = (0..shard0.len()).step_by(100).collect();
    for _ in 0..FAST_REPS {
        black_box(
            rec.span("core.delta_incremental", frontier.len() as u64, || {
                solve_shard_incremental(
                    &lpvs,
                    fleet,
                    &shard0,
                    &frontier,
                    &cold.selected,
                    Degradation::Exact,
                    shard_compute,
                    shard_storage,
                    lambda,
                    curve,
                    &budget,
                )
            }),
        );
    }
    out.set(
        "core.delta_incremental_s",
        rec.median_s("core.delta_incremental"),
    );

    bayes(n, rec, out);
}

fn edge_scheduler() -> FleetScheduler {
    FleetScheduler::new(FleetConfig {
        num_shards: SHARDS,
        partitioner: Partitioner::Locality,
        ..FleetConfig::default()
    })
}

fn bayes(n: usize, rec: &mut Recorder, out: &mut Outcome) {
    let mut bank = BayesBank::from_estimators(vec![GammaEstimator::paper_default(); n]);
    for rep in 0..FAST_REPS {
        rec.span("bayes.observe", rep, || {
            for d in 0..TIGHT_LOOP.min(n) {
                bank.observe_or_forget(d, 0.2 + 0.2 * (d % 97) as f64 / 97.0);
            }
        });
        rec.span("bayes.posterior", rep, || {
            for d in 0..TIGHT_LOOP.min(n) {
                black_box(bank.posterior(d));
            }
        });
    }
    let per_call = 1e9 / TIGHT_LOOP.min(n) as f64;
    out.set("bayes.observe_ns", per_call * rec.median_s("bayes.observe"));
    out.set(
        "bayes.posterior_ns",
        per_call * rec.median_s("bayes.posterior"),
    );
    for rep in 0..FAST_REPS {
        bank = rec.span("bayes.split_merge", rep, || {
            let half = n / SHARDS;
            BayesBank::merge(bank.split(SHARDS, |d| (d / half.max(1)).min(SHARDS - 1)))
        });
    }
    out.set("bayes.split_merge_s", rec.median_s("bayes.split_merge"));
}

/// The scoped-thread executor of `lpvs-edge` on the fleet the pipelined
/// runtime just solved: the number the "one executor" ROADMAP item
/// compares with `runtime.solve_wait_s`.
pub fn edge_fleet_schedule(
    fleet: &DeviceFleet,
    compute_capacity: f64,
    storage_capacity_gb: f64,
    lambda: f64,
    curve: &AnxietyCurve,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let edge = edge_scheduler();
    let server = EdgeServer::new(compute_capacity, storage_capacity_gb);
    let mut migrations = 0;
    for rep in 0..SLOW_REPS {
        let schedule = rec.span("edge.fleet_schedule", rep, || {
            edge.schedule(fleet, &server, lambda, curve, None, &SlotBudget::default())
        });
        migrations = schedule.migrations;
    }
    out.set("edge.fleet_schedule_s", rec.median_s("edge.fleet_schedule"));
    out.set("edge.migrations", migrations as f64);
}

/// Sealing and decoding one shard's checkpoint: half the fleet's
/// estimators. No workload checkpoints today, so these move no
/// end-to-end metric; they exist for the recovery path.
pub fn checkpoint(estimators: usize, rec: &mut Recorder, out: &mut Outcome) {
    let bank = BayesBank::from_estimators(vec![GammaEstimator::paper_default(); estimators]);
    let bank_bytes = bank_to_bytes(&bank);
    for rep in 0..FAST_REPS {
        let sealed = rec.span("runtime.checkpoint_seal", rep, || {
            ShardSnapshot::seal(0, 1, &bank_bytes, None, None)
        });
        out.set("runtime.checkpoint_bytes", sealed.len() as f64);
        let snapshot = rec
            .span("runtime.checkpoint_decode", rep, || {
                ShardSnapshot::decode(&sealed)
            })
            .expect("a snapshot decodes from its own bytes");
        assert_eq!(
            snapshot.bank.len(),
            estimators,
            "checkpoint round trip lost estimators"
        );
    }
    out.set(
        "runtime.checkpoint_seal_s",
        rec.median_s("runtime.checkpoint_seal"),
    );
    out.set(
        "runtime.checkpoint_decode_s",
        rec.median_s("runtime.checkpoint_decode"),
    );
}

/// The server's parser, renderer and JSON reader on the bytes the
/// telemetry clients send, without a socket in between.
pub fn serve_codecs(request: &[u8], body: &str, rec: &mut Recorder, out: &mut Outcome) {
    let limits = lpvs_serve::HttpLimits::default();
    let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
    let response_body = br#"{"queued":true}"#;
    for rep in 0..FAST_REPS {
        rec.span("serve.parse_request", rep, || {
            for _ in 0..TIGHT_LOOP {
                let mut cursor = std::io::Cursor::new(request);
                black_box(lpvs_serve::http::parse_request(&mut cursor, &limits, far))
                    .expect("the benchmark's own request parses");
            }
        });
        rec.span("serve.render_response", rep, || {
            for _ in 0..TIGHT_LOOP {
                black_box(lpvs_serve::http::render_response(
                    202,
                    "application/json",
                    response_body,
                ));
            }
        });
        rec.span("serve.json_parse", rep, || {
            for _ in 0..TIGHT_LOOP {
                black_box(lpvs_obs::json::Json::parse(body))
                    .expect("the benchmark's own body parses");
            }
        });
    }
    let per_call = 1e9 / TIGHT_LOOP as f64;
    out.set(
        "serve.parse_request_ns",
        per_call * rec.median_s("serve.parse_request"),
    );
    out.set(
        "serve.render_response_ns",
        per_call * rec.median_s("serve.render_response"),
    );
    out.set(
        "serve.json_parse_ns",
        per_call * rec.median_s("serve.json_parse"),
    );
}

/// What one `lpvs_obs::span!` costs with the program's recorder on and
/// off — the per-event price ROADMAP aim 4 wants gated. Leaves
/// `lpvs_obs` enabled or disabled as it found it.
pub fn obs_span_cost(rec: &mut Recorder, out: &mut Outcome) {
    let was_enabled = lpvs_obs::enabled();
    let recorder = lpvs_obs::init();
    for (name, enabled) in [("obs.span_enabled", true), ("obs.span_disabled", false)] {
        lpvs_obs::set_enabled(enabled);
        for rep in 0..FAST_REPS {
            rec.span(name, rep, || {
                for i in 0..TIGHT_LOOP {
                    let _guard = lpvs_obs::span!("bench.probe", "i" => i);
                }
            });
            // Keep the program's span buffer from growing across reps.
            recorder.reset();
        }
    }
    lpvs_obs::set_enabled(was_enabled);
    let per_call = 1e9 / TIGHT_LOOP as f64;
    out.set(
        "obs.span_ns_enabled",
        per_call * rec.median_s("obs.span_enabled"),
    );
    out.set(
        "obs.span_ns_disabled",
        per_call * rec.median_s("obs.span_disabled"),
    );
}
