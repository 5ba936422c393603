//! Causal-tracing and flight-recorder invariants, end to end.
//!
//! Three guarantees from the observability layer:
//!
//! 1. **No orphan spans** — shard work is parented under its slot's
//!    span via the explicit [`SpanContext`](lpvs::obs::SpanContext)
//!    handoff, whoever runs the shard — a persistent worker, the hub's
//!    thread or a scoped one — never left as a root anywhere.
//! 2. **Perfetto export** — a pipelined 2-shard run renders to valid
//!    Chrome trace-event JSON in which every solve span carries shard
//!    attribution and its slot's trace id.
//! 3. **Blackbox on death** — a killed worker leaves a
//!    [`FlightRecording`](lpvs::runtime::FlightRecording) in the
//!    recovery report whose last event is the death itself, and the
//!    recording reproduces bit-for-bit on replay.
//! 4. **Recovery series** — each recovery counter equals the report
//!    field it mirrors in the same run.
//!
//! Lives in its own integration-test binary because the process-global
//! recorder is shared; tests serialize on a local mutex.

use lpvs::core::baseline::Policy;
use lpvs::edge::fleet::FleetConfig;
use lpvs::emulator::engine::{CheckpointSpec, Emulator, EmulatorConfig};
use lpvs::emulator::faults::FaultConfig;
use lpvs::obs::json::Json;
use lpvs::obs::sink::events_to_chrome_trace;
use lpvs::obs::{MetricsSnapshot, SpanEvent};
use lpvs::runtime::{
    FlightReason, RuntimeConfig, RuntimeSummary, SlotRuntime, SyntheticConfig, SyntheticDriver,
};
use std::sync::Mutex;

/// Serializes tests that drive the process-global recorder. Poisoning
/// is irrelevant — the guard carries no data — so recover from it
/// rather than cascading one test's failure into the others.
static RECORDER: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn drained_events() -> Vec<SpanEvent> {
    lpvs::obs::installed().expect("recorder installed").drain_events()
}

#[test]
fn scoped_shard_spans_are_never_orphans() {
    let _guard = serialize();
    let recorder = lpvs::obs::init();
    recorder.reset();

    // The inline executor solves shard 0 on the hub's thread and shard 1
    // on a scoped thread; each records its solve's spans from its laps
    // under `runtime.solve`, parented through the job's context.
    let mut driver = SyntheticDriver::new(SyntheticConfig::steady(12, 1, 3));
    let estimators = driver.estimators();
    let fleet = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    SlotRuntime::new(RuntimeConfig { fleet, ..RuntimeConfig::default() }).run_sequential(&mut driver, estimators);
    lpvs::obs::set_enabled(false);
    let events = drained_events();

    let slot = events.iter().find(|e| e.name == "runtime.slot").expect("runtime.slot span");
    let shards: Vec<&SpanEvent> = events.iter().filter(|e| e.name == "runtime.solve").collect();
    assert_eq!(shards.len(), 2, "one runtime.solve span per shard");
    for shard in &shards {
        assert_eq!(shard.parent, Some(slot.id), "runtime.solve must be parented under the slot's span");
        assert_eq!(shard.trace, slot.trace, "shard spans join the slot's trace");
        assert!(
            shard.fields.iter().any(|(k, _)| k == "shard"),
            "shard spans carry shard attribution"
        );
        let solve = events.iter().find(|e| e.name == "sched.slot" && e.parent == Some(shard.id));
        assert!(solve.is_some_and(|s| shard.start_us <= s.start_us && s.end_us() <= shard.end_us()));
    }
    let on_hub = shards.iter().filter(|shard| shard.thread == slot.thread).count();
    assert_eq!(on_hub, 1, "shard 0 runs on the hub's thread, shard 1 on a scoped thread");
    // The regression this pins: no span in the slot's trace is a
    // parentless root except the slot span itself.
    let orphans = events
        .iter()
        .filter(|e| e.trace == slot.trace && e.parent.is_none() && e.id != slot.id)
        .count();
    assert_eq!(orphans, 0, "no orphan spans in the slot's trace");
}

#[test]
fn pipelined_run_exports_causally_linked_chrome_trace() {
    let _guard = serialize();
    let recorder = lpvs::obs::init();
    recorder.reset();

    let config = EmulatorConfig {
        devices: 16,
        slots: 6,
        seed: 7,
        one_slot_ahead: true,
        pipelined: true,
        num_edges: 2,
        ..EmulatorConfig::default()
    };
    let report = Emulator::new(config, Policy::Lpvs).run();
    lpvs::obs::set_enabled(false);
    let events = drained_events();

    // The hub's serial share of a join is its own series: one
    // `assemble` sample per `join` sample, and the rebalance publishes
    // how many rows its gate let through.
    let metrics = report.obs.expect("recorder was enabled, snapshot attached").metrics;
    let stage = |name| {
        metrics.histogram_labeled("runtime_stage_seconds", &[("stage", name)]).map(|h| h.count)
    };
    assert!(stage("join") > Some(0), "the run must have joined solves");
    assert_eq!(stage("assemble"), stage("join"));
    assert!(metrics.gauge("fleet_rebalance_candidates").is_some());
    // No delta from the emulator: the workers' cold solves score every
    // row they own (at most 16 a slot) and ship it, and every join adopts
    // them, scoring none itself — every gathered row is connected here.
    // `tests/accounting.rs` pins the counts slot by slot on a
    // delta-carrying run.
    let accounted =
        |owner| metrics.counter_labeled("delta_accounting_rows_total", &[("owner", owner)]).unwrap_or(0);
    let joins = stage("join").unwrap_or(0);
    assert!(accounted("shard") > 0 && accounted("shard") <= 16 * joins);
    assert_eq!((accounted("join"), accounted("shipped")), (0, accounted("shard")));

    // Every worker-side solve span is a child inside its slot's trace,
    // with shard attribution, on a thread other than the hub's.
    let slots: Vec<&SpanEvent> = events.iter().filter(|e| e.name == "runtime.slot").collect();
    let solves: Vec<&SpanEvent> = events.iter().filter(|e| e.name == "runtime.solve").collect();
    assert!(!slots.is_empty() && !solves.is_empty(), "run must emit slot and solve spans");
    for solve in &solves {
        let slot = slots
            .iter()
            .find(|s| Some(s.id) == solve.parent)
            .expect("solve span parented under a runtime.slot span");
        assert_eq!(solve.trace, slot.trace, "solve joins its slot's trace");
        assert_ne!(solve.thread, slot.thread, "solves run on shard workers");
        let shard = solve
            .fields
            .iter()
            .find(|(k, _)| k == "shard")
            .map(|&(_, v)| v)
            .expect("solve spans carry shard attribution");
        assert!(shard == 0.0 || shard == 1.0, "shard id in range");
    }
    // Worker-side prepare spans ride the same handoff.
    assert!(
        events.iter().filter(|e| e.name == "runtime.prepare").all(|p| p.parent.is_some()),
        "prepare spans must not be orphans"
    );

    // The Chrome trace export is valid JSON with thread metadata and
    // one complete event per span, args carrying the causal ids.
    let trace = events_to_chrome_trace(&events);
    let doc = Json::parse(&trace).expect("obs_trace.json must be valid JSON");
    let items = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    let metadata = items
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .count();
    let complete: Vec<&Json> =
        items.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
    assert!(metadata >= 3, "hub + two worker threads named in metadata");
    assert_eq!(complete.len(), events.len(), "one X event per span");
    for x in &complete {
        assert!(x.get("ts").is_some() && x.get("dur").is_some());
        assert!(x.get("args").and_then(|a| a.get("trace")).is_some());
    }
    let solve_events: Vec<&&Json> = complete
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("runtime.solve"))
        .collect();
    assert_eq!(solve_events.len(), solves.len());
    for x in &solve_events {
        let args = x.get("args").expect("args");
        assert!(args.get("parent").is_some(), "exported solve events keep their parent link");
        assert!(args.get("shard").is_some(), "exported solve events keep shard attribution");
    }
}

#[test]
fn killed_worker_leaves_a_flight_recording() {
    let _guard = serialize();
    // Deliberately no recorder setup: the blackbox rides the worker
    // channels, not the global recorder, so it must work even with
    // telemetry disabled.
    lpvs::obs::set_enabled(false);

    let config = EmulatorConfig {
        devices: 16,
        slots: 12,
        seed: 7,
        one_slot_ahead: true,
        pipelined: true,
        faults: FaultConfig { stage_fault_rate: 0.25, ..FaultConfig::none() },
        num_edges: 2,
        ..EmulatorConfig::default()
    };
    let report = Emulator::new(config, Policy::Lpvs).run();
    let summary = report.runtime.clone().expect("pipelined run reports a summary");
    assert!(summary.workers_lost > 0, "25% stage faults over 12×2 must kill a worker");

    let recovery = &summary.recovery;
    assert_eq!(
        recovery.flight.len(),
        recovery.total_deaths() as usize,
        "one blackbox recording per death"
    );
    for rec in &recovery.flight {
        assert_eq!(rec.reason, FlightReason::WorkerDeath);
        assert!(rec.shard < 2, "recordings carry shard attribution");
        let last = rec.events.last().expect("a dying worker leaves events behind");
        assert_eq!(last.kind, lpvs::obs::FlightKind::Death, "last event is the death itself");
        assert_eq!(last.label, "stage_fault");
        // The death interrupts a solve: its begin edge is in the ring
        // with no matching end after it.
        let begin = rec
            .events
            .iter()
            .rposition(|e| e.kind == lpvs::obs::FlightKind::SpanBegin && e.label == "solve")
            .expect("the interrupted solve's begin edge survives in the ring");
        assert!(
            !rec.events[begin..]
                .iter()
                .any(|e| e.kind == lpvs::obs::FlightKind::SpanEnd && e.label == "solve"),
            "the interrupted solve must have no end edge"
        );
    }
    // JSONL export is one valid JSON object per recording.
    let jsonl = lpvs::runtime::flight_to_jsonl(&recovery.flight);
    assert_eq!(jsonl.lines().count(), recovery.flight.len());
    for line in jsonl.lines() {
        let doc = Json::parse(line).expect("flight JSONL line parses");
        assert!(doc.get("reason").is_some() && doc.get("events").is_some());
    }

    // Deaths are hash-derived and timestamps are excluded from
    // equality, so the whole blackbox story replays bit-for-bit — with
    // telemetry on, too, and the counters tell what the report does.
    let (replay, metrics) = recorded(config, None);
    assert_eq!(replay.recovery, summary.recovery);
    for shard in &replay.recovery.shards {
        let label = shard.shard.to_string();
        let deaths = metrics.counter_labeled("runtime_worker_deaths_total", &[("shard", &label)]);
        assert_eq!(deaths.unwrap_or(0), u64::from(shard.deaths), "shard {label}");
    }
    let retries: u32 = replay.recovery.shards.iter().map(|s| s.retries).sum();
    assert!(retries > 0);
    assert_eq!(metrics.counter("recovery_respawns_total"), Some(u64::from(retries)));
}

/// A recorded emulator run: its runtime summary and the metrics.
fn recorded(
    config: EmulatorConfig,
    checkpoints: Option<CheckpointSpec>,
) -> (RuntimeSummary, MetricsSnapshot) {
    let recorder = lpvs::obs::init();
    recorder.reset();
    let emulator = Emulator::new(config, Policy::Lpvs);
    let report = match checkpoints {
        Some(spec) => emulator.with_checkpoints(spec).run(),
        None => emulator.run(),
    };
    lpvs::obs::set_enabled(false);
    (report.runtime.expect("a pipelined run reports a summary"), recorder.metrics().snapshot())
}

/// The recovery series an operator scrapes from `lpvs-serve` agree with
/// the report of the same run: the fallback, checkpoint writes, injected
/// corruption and rejected generations.
#[test]
fn recovery_counters_agree_with_the_report() {
    let _guard = serialize();
    let base = EmulatorConfig {
        devices: 16,
        slots: 12,
        seed: 7,
        pipelined: true,
        num_edges: 2,
        ..EmulatorConfig::default()
    };

    // Every respawn dies again: the ladder bottoms out inline.
    let unrecoverable =
        FaultConfig { stage_fault_rate: 0.25, stage_fault_repeat: u32::MAX, ..FaultConfig::none() };
    let (summary, metrics) = recorded(EmulatorConfig { faults: unrecoverable, ..base }, None);
    assert!(summary.recovery.fell_back.is_some());
    assert_eq!(metrics.counter("runtime_fallback_total"), Some(1));

    // Half the checkpoints corrupted on disk, deaths restoring from them.
    let dir = std::env::temp_dir().join(format!("lpvs-tracing-it-{}-corrupt", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corrupting = FaultConfig {
        stage_fault_rate: 0.25,
        stage_fault_repeat: 1,
        checkpoint_corrupt_rate: 0.5,
        ..FaultConfig::none()
    };
    let spec = CheckpointSpec { interval: 2, ..CheckpointSpec::new(&dir) };
    let (summary, metrics) =
        recorded(EmulatorConfig { one_slot_ahead: true, faults: corrupting, ..base }, Some(spec));
    let _ = std::fs::remove_dir_all(&dir);
    let recovery = &summary.recovery;
    assert!(recovery.checkpoints_corrupted > 0 && recovery.generations_rejected > 0, "{recovery:?}");
    let written = metrics.histogram("recovery_checkpoint_seconds").map(|h| h.count as usize);
    assert_eq!(written, Some(recovery.checkpoints_written));
    assert_eq!(count_of(&metrics, "recovery_checkpoint_corrupt_total"), recovery.checkpoints_corrupted);
    assert_eq!(count_of(&metrics, "recovery_generation_rejected_total"), recovery.generations_rejected);
}

fn count_of(metrics: &MetricsSnapshot, name: &str) -> usize {
    metrics.counter(name).unwrap_or(0) as usize
}
