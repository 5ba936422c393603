//! The one publisher of a delivered slot's records: its [`SlotWork`] and
//! its [`Laps`] become series ([`publish`], which the slot loop calls on
//! every solved slot), and a shard's laps its solve's spans
//! ([`record_spans`], which the shard body calls).

use lpvs_core::work::{Laps, SlotWork};
use lpvs_edge::fleet::FleetSchedule;
use lpvs_obs::SpanContext;
use std::time::{Duration, Instant};

/// Adds a slot's record to its eight series. A zero count is not added,
/// so a series exists once something was counted in it.
fn publish_work(work: &SlotWork) {
    let (steps, warm, paths, rows, copied) =
        (work.chunk_steps, work.warm_start, work.delta_path, work.rows_accounted, work.rows_refilled);
    let series = [
        ("sched_chunk_steps_total", Some(("stage", "score")), steps.score),
        ("sched_chunk_steps_total", Some(("stage", "account")), steps.account),
        ("solver_keys_sorted_total", None, work.keys_sorted),
        ("sched_phase1_uncertified_total", None, work.uncertified),
        ("delta_warm_start_hit_total", None, warm.hit),
        ("delta_warm_start_miss_total", None, warm.miss),
        ("delta_solve_total", Some(("path", "reuse")), paths.reuse),
        ("delta_solve_total", Some(("path", "incremental")), paths.incremental),
        ("delta_solve_total", Some(("path", "cold")), paths.cold),
        ("delta_accounting_rows_total", Some(("owner", "shard")), rows.shard),
        ("delta_accounting_rows_total", Some(("owner", "join")), rows.join),
        ("delta_accounting_rows_total", Some(("owner", "shipped")), rows.shipped),
        ("fleet_refill_rows_total", Some(("path", "patched")), copied.patched),
        ("fleet_refill_rows_total", Some(("path", "full")), copied.full),
    ];
    for (name, label, n) in series.into_iter().filter(|&(_, _, n)| n > 0) {
        lpvs_obs::add_labeled(name, label.as_slice(), n);
    }
}

/// One sample of `runtime_stage_seconds{stage[,shard]}`.
pub(crate) fn observe_stage(labels: &[(&str, &str)], time: Duration) {
    lpvs_obs::observe_labeled("runtime_stage_seconds", labels, time.as_secs_f64());
}

/// Start and end of laps `from..to` of a record.
fn interval(laps: &Laps, from: usize, to: usize) -> (Instant, Instant) {
    let end = |k: usize| if k == 0 { laps.start } else { laps.ends.get(k - 1).map(|&(_, at)| at) };
    let start = end(from).expect("the laps of a started clock");
    (start, end(to).unwrap_or(start))
}

/// Folds a slot the runtime delivered into the registry — its work,
/// each shard run's tier, its time and rebalance gate, the hub's stages
/// and each shard's `solve` (the shards recorded their own spans).
pub fn publish(schedule: &FleetSchedule) {
    if !lpvs_obs::enabled() {
        return;
    }
    publish_work(&schedule.work);
    lpvs_obs::observe("fleet_slot_seconds", schedule.runtime.as_secs_f64());
    if let Some(gated) = schedule.candidates {
        lpvs_obs::gauge_set("fleet_rebalance_candidates", gated as f64);
    }
    let hub = &schedule.laps;
    observe_stage(&[("stage", "dispatch")], hub.time(|s| s == "partition" || s == "dispatch"));
    observe_stage(&[("stage", "join")], hub.time(|s| s == "join"));
    observe_stage(&[("stage", "assemble")], hub.time(|s| s == "rebalance" || s == "total"));
    for report in schedule.shards.iter().filter(|report| !report.laps.ends.is_empty()) {
        let laps = &report.laps;
        for &(from, to, rung) in &laps.runs {
            let (tier, (start, end)) = ([("tier", rung.label())], interval(laps, from, to));
            lpvs_obs::inc("sched_runs_total");
            lpvs_obs::inc_labeled("sched_tier_total", &tier);
            lpvs_obs::observe_labeled("sched_tier_seconds", &tier, (end - start).as_secs_f64());
        }
        observe_stage(&[("stage", "solve"), ("shard", &report.shard.to_string())], laps.total());
    }
}

/// Records the spans a record's laps describe, under `parent` or else
/// the span open on this thread: each run a `sched.slot`, each `sched.*`
/// lap its span inside it, a run's three `sched.phase2.*` laps inside one
/// `sched.phase2`. A lap starts where the previous one ended.
pub fn record_spans(laps: &Laps, parent: Option<SpanContext>) {
    if !lpvs_obs::enabled() {
        return;
    }
    let (mut run, mut phase2) = (None, None);
    for (k, &(stage, end)) in laps.ends.iter().enumerate() {
        let start = interval(laps, k, k).0;
        if let Some(&(from, to, rung)) = laps.runs.iter().find(|r| r.0 == k) {
            let ((first, last), tier) = (interval(laps, from, to), vec![("tier".into(), rung.severity() as f64)]);
            run = Some((to, lpvs_obs::record_span("sched.slot", parent, first, last, tier)));
        }
        let slot = run.filter(|&(to, _)| k < to).and_then(|(_, ctx)| ctx);
        if !stage.starts_with("sched.") {
            continue;
        } else if stage == "sched.phase2.rank" && slot.is_some() {
            let (first, last) = interval(laps, k, (k + 3).min(laps.ends.len()));
            phase2 = lpvs_obs::record_span("sched.phase2", slot, first, last, Vec::new());
        }
        let within = if stage.starts_with("sched.phase2.") && slot.is_some() { phase2 } else { slot };
        lpvs_obs::record_span(stage, within.or(parent), start, end, Vec::new());
    }
}
