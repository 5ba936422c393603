//! Every workload and metric the benchmark knows, by name. The root
//! `BENCHMARK.json` repeats this list (a unit test keeps the two equal);
//! later issues cite these names, so they do not change.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// An end-to-end metric with the share of the parent's median by which
/// it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub metric: Metric,
    pub bound: f64,
}

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "cold-slot",
        "Fig. 10: monolithic cold solves at N=2000..16000; LP bound, B&B and Phase-2 do the work, delta memo/runtime/serve do nothing",
    ),
    (
        "steady-fleet",
        "32000-row fleet, 1% of rows mutate per slot, 2 shards pipelined: delta memo, dirty bits and hub channels dominate, the solver is idle",
    ),
    (
        "churn-fleet",
        "same fleet at 50% mutation: past the incremental gate, so delta bookkeeping is pure cost and every shard solves cold, warm-started",
    ),
    (
        "serve-ingest",
        "loopback lpvs-serve, 2 closed-loop clients: telemetry batch then tick to decision; HTTP accept/parse/queue/drain dominate, delta reuse and the emulator are bypassed",
    ),
    (
        "trace-day",
        "trace generation then a 500-device 96-slot emulated day, LPVS vs no-transform: gather, content statistics, a small solve, playback, bayes; its deterministic saving anchors quality",
    ),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        metric: Metric { name, unit, better },
        bound,
    }
}

/// Defined on every workload (the README says how, per workload). The
/// bounds are sized to what the shared reference host repeats: its speed
/// drifts by 15–20 % between sets of runs taken half an hour apart.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("slot_decision_s", "s", Better::Lower, 0.25),
    e2e("device_slots_per_s", "1/s", Better::Higher, 0.25),
    e2e("energy_saving", "ratio", Better::Higher, 0.10),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Traced-pass metrics, `layer.what`. A workload that does not measure
/// one prints it as 0.
pub const PER_LAYER: [Metric; 84] = [
    // lpvs-solver, on the cold-slot N=16000 Phase-1 program.
    layer("solver.lp_relax_s", "s", Lower),
    layer("solver.bnb_s", "s", Lower),
    layer("solver.bnb_nodes", "count", Lower),
    layer("solver.simplex_pivots", "count", Lower),
    layer("solver.pivot_ns", "ns", Lower),
    layer("solver.lagrangian_s", "s", Lower),
    layer("solver.greedy_s", "s", Lower),
    // lpvs-core: the stages of one cold slot, then the Fig. 10 sweep.
    layer("core.sanitize_s", "s", Lower),
    layer("core.compact_s", "s", Lower),
    layer("core.phase1_s", "s", Lower),
    layer("core.phase2_s", "s", Lower),
    layer("core.phase2_swaps_tried", "count", Lower),
    layer("core.phase2_swaps_accepted", "count", Higher),
    layer("core.phase2_useful_ratio", "ratio", Higher),
    layer("core.objective_s", "s", Lower),
    layer("core.stage_sum_ratio", "ratio", Lower),
    layer("core.t_2000_s", "s", Lower),
    layer("core.t_4000_s", "s", Lower),
    layer("core.t_8000_s", "s", Lower),
    layer("core.t_16000_s", "s", Lower),
    layer("core.scaling_exponent", "exponent", Lower),
    layer("core.linear_fit_r2", "ratio", Higher),
    // lpvs-core on the 32000-row fleet.
    layer("core.kernel_feasible_ns_per_dev", "ns", Lower),
    layer("core.kernel_objective_ns_per_dev", "ns", Lower),
    layer("core.kernel_bytes_per_dev", "B", Lower),
    layer("core.kernel_avx2", "flag", Higher),
    layer("core.fleet_build_s", "s", Lower),
    layer("core.subproblem_s", "s", Lower),
    layer("core.delta_incremental_s", "s", Lower),
    // lpvs-edge: the scoped-thread executor beside lpvs-runtime.
    layer("edge.partition_s", "s", Lower),
    layer("edge.fleet_schedule_s", "s", Lower),
    layer("edge.migrations", "count", Lower),
    // lpvs-bayes.
    layer("bayes.observe_ns", "ns", Lower),
    layer("bayes.posterior_ns", "ns", Lower),
    layer("bayes.split_merge_s", "s", Lower),
    // lpvs-runtime, seen from the driver adapter.
    layer("runtime.begin_slot_s", "s", Lower),
    layer("runtime.gather_s", "s", Lower),
    layer("runtime.solve_wait_s", "s", Lower),
    layer("runtime.apply_s", "s", Lower),
    layer("runtime.slot_period_s", "s", Lower),
    layer("runtime.hub_residual_s", "s", Lower),
    layer("runtime.first_slot_s", "s", Lower),
    layer("runtime.slots_per_s", "1/s", Higher),
    layer("runtime.slot_decision_tail_s", "s", Lower),
    layer("runtime.slot_decision_tail_pct", "%", Higher),
    layer("runtime.seq_over_pipe", "ratio", Higher),
    layer("runtime.delta_reuse_slots", "count", Higher),
    layer("runtime.delta_incremental_slots", "count", Higher),
    layer("runtime.delta_cold_slots", "count", Lower),
    layer("runtime.checkpoint_seal_s", "s", Lower),
    layer("runtime.checkpoint_decode_s", "s", Lower),
    layer("runtime.checkpoint_bytes", "B", Lower),
    // lpvs-serve: the client-side split of a telemetry request, direct
    // calls into the parser, then the tick phase.
    layer("serve.ingest_rps", "1/s", Higher),
    layer("serve.telemetry_p50_us", "us", Lower),
    layer("serve.connect_us", "us", Lower),
    layer("serve.write_us", "us", Lower),
    layer("serve.first_byte_us", "us", Lower),
    layer("serve.read_us", "us", Lower),
    layer("serve.request_p99_us", "us", Lower),
    layer("serve.connections_per_request", "ratio", Lower),
    layer("serve.parse_request_ns", "ns", Lower),
    layer("serve.render_response_ns", "ns", Lower),
    layer("serve.json_parse_ns", "ns", Lower),
    layer("serve.tick_ack_us", "us", Lower),
    layer("serve.schedule_get_us", "us", Lower),
    layer("serve.schedule_polls", "count", Lower),
    layer("serve.shed_429", "count", Lower),
    layer("serve.http_5xx", "count", Lower),
    layer("serve.transport_errors", "count", Lower),
    // lpvs-trace and lpvs-emulator.
    layer("trace.generate_s", "s", Lower),
    layer("trace.sessions", "count", Higher),
    layer("emulator.lpvs_run_s", "s", Lower),
    layer("emulator.baseline_run_s", "s", Lower),
    layer("emulator.solve_share", "ratio", Lower),
    layer("emulator.scheduler_share", "ratio", Lower),
    layer("emulator.anxiety_reduction", "ratio", Higher),
    // lpvs-codec and lpvs-obs.
    layer("codec.fleet_encode_s", "s", Lower),
    layer("codec.fleet_decode_s", "s", Lower),
    layer("codec.fleet_bytes", "B", Lower),
    layer("obs.span_ns_enabled", "ns", Lower),
    layer("obs.span_ns_disabled", "ns", Lower),
    // The benchmark itself.
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.spans", "count", Lower),
    layer("bench.measured_wall_s", "s", Lower),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpvs_obs::json::Json;

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_owned()
            })
            .collect()
    }

    /// `BENCHMARK.json` at the repository root is the contract later PRs
    /// are held to; the binary must print exactly what it lists.
    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let workloads = names(doc.get("workloads").expect("workloads"));
        assert_eq!(workloads, WORKLOADS.map(|(w, _)| w.to_owned()));
        let listed = doc.get("end_to_end").expect("end_to_end");
        assert_eq!(names(listed), END_TO_END.map(|m| m.metric.name.to_owned()));
        for (entry, ours) in listed.as_arr().expect("a list").iter().zip(END_TO_END) {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(ours.metric.unit)
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(ours.metric.better.label())
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(ours.bound));
        }
        let layers = doc.get("per_layer").expect("per_layer");
        assert_eq!(names(layers), PER_LAYER.map(|m| m.name.to_owned()));
        for (entry, ours) in layers.as_arr().expect("a list").iter().zip(PER_LAYER) {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(ours.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(ours.better.label())
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        all.extend(END_TO_END.iter().map(|m| m.metric.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &all {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }
}
