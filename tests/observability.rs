//! End-to-end telemetry: a recorder-enabled emulator run must yield
//! per-stage latency histograms, a latency histogram for every
//! degradation tier the run exercised, a lossless JSONL span export,
//! and well-formed Prometheus exposition text.
//!
//! Lives in its own integration-test binary so the process-global
//! recorder cannot interfere with other tests; the tests in it take
//! turns.

use lpvs::core::baseline::Policy;
use lpvs::core::scheduler::Degradation;
use lpvs::emulator::engine::{Emulator, EmulatorConfig, GammaMode};
use lpvs::emulator::faults::FaultConfig;
use lpvs::core::phase1::{solve_phase1, Phase1Config};
use lpvs::core::problem::{DeviceRequest, SlotProblem};
use lpvs::core::provision::price_capacity;
use lpvs::edge::fleet::FleetConfig;
use lpvs::obs::sink::{events_from_jsonl, events_to_jsonl, render_prometheus};
use lpvs::runtime::{RuntimeConfig, SlotRuntime, SyntheticConfig, SyntheticDriver};
use lpvs::survey::curve::AnxietyCurve;
use std::sync::{Mutex, PoisonError};

static RECORDER: Mutex<()> = Mutex::new(());

/// What a cold solve sorts, counted: the exact tier publishes
/// `IlpStats::orders_sorted` — the density order the greedy seed and the
/// rounding refills share, plus each row order the relaxation needed.
/// A row that never binds is never sorted, however many nodes run.
#[test]
fn a_phase1_solve_sorts_the_orders_it_reads() {
    let _turn = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let problem = |storage_share: f64| {
        let n = 300;
        let cost = |i: usize, stride: usize| 0.5 + ((i * stride) % 17) as f64 / 10.0;
        let total = |stride: usize| (0..n).map(|i| cost(i, stride)).sum::<f64>();
        let mut p = SlotProblem::new(
            0.3 * total(5),
            storage_share * total(11),
            1.0,
            AnxietyCurve::paper_shape(),
        );
        for i in 0..n {
            let gamma = 0.15 + ((i * 7) % 30) as f64 / 100.0;
            p.push(DeviceRequest::uniform(1.2, 10.0, 30, 30_000.0, 55_440.0, gamma, cost(i, 5), cost(i, 11)));
        }
        p
    };
    // (storage capacity as a share of the fleet's cost, rows that bind)
    for (storage_share, binding) in [(2.0, 1), (0.3, 2)] {
        let p = problem(storage_share);
        let prices = price_capacity(&p).unwrap();
        let priced = [prices.compute_j_per_unit, prices.storage_j_per_gb];
        assert_eq!(priced.iter().filter(|&&d| d > 0.0).count(), binding, "{priced:?}");
        lpvs::obs::init().reset();
        solve_phase1(&p, &Phase1Config::default()).unwrap();
        lpvs::obs::set_enabled(false);
        let metrics = lpvs::obs::installed().expect("recorder installed").metrics().snapshot();
        assert_eq!(metrics.counter("solver_orders_sorted_total"), Some(1 + binding as u64));
    }
}

/// Which stage ate the slot, and who accounted each row: the worker
/// executor times its fan-out (`dispatch`, and the skew between its
/// first and last send) beside the other stages, and on a slot where
/// every row is dirty each row's terms are either adopted from the
/// shard that solved it (`shipped`) or evaluated by the join — once.
#[test]
fn a_worker_run_times_its_dispatch_and_counts_each_row_once() {
    let _turn = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let (devices, slots) = (600, 5);
    let config = SyntheticConfig { mutation_fraction: 1.0, ..SyntheticConfig::steady(devices, slots, 3) };
    let mut driver = SyntheticDriver::new(config);
    let estimators = driver.estimators();
    let runtime = RuntimeConfig {
        fleet: FleetConfig { num_shards: 2, ..FleetConfig::default() },
        ..RuntimeConfig::default()
    };
    lpvs::obs::init().reset();
    SlotRuntime::new(runtime).run(&mut driver, estimators);
    lpvs::obs::set_enabled(false);
    let metrics = lpvs::obs::installed().expect("recorder installed").metrics().snapshot();

    for stage in ["gather", "dispatch", "join", "assemble", "apply"] {
        let samples = metrics
            .histogram_labeled("runtime_stage_seconds", &[("stage", stage)])
            .unwrap_or_else(|| panic!("missing runtime_stage_seconds{{stage={stage}}}"));
        assert_eq!(samples.count, slots as u64, "stage {stage}");
    }
    let skew = metrics.histogram("runtime_dispatch_skew_seconds").expect("skew histogram");
    assert_eq!(skew.count, slots as u64);
    assert!(skew.sum >= 0.0 && skew.sum.is_finite());

    let rows = |owner| {
        metrics.counter_labeled("delta_accounting_rows_total", &[("owner", owner)]).unwrap_or(0)
    };
    assert_eq!(rows("shard"), (devices * slots) as u64, "every shard solved cold, every slot");
    assert_eq!(rows("shipped") + rows("join"), (devices * slots) as u64);
    assert!(rows("shipped") > rows("join"), "the join adopts what the shards evaluated");
}

/// The emulated slot's content and encoder work, counted exactly: each
/// watching device's window is synthesized once a slot, the encoder
/// prices every chunk a transformed device plays, and under Oracle γ
/// every chunk of every decision window once more. A run where nobody
/// gives up plays whole windows, so the counts follow from the report.
#[test]
fn an_emulated_slot_counts_the_chunks_it_synthesizes_and_encodes() {
    let _turn = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    // A cohort in which nobody reaches a give-up threshold in 4 slots.
    let config = EmulatorConfig { devices: 16, slots: 4, seed: 3, ..EmulatorConfig::default() };
    let run = |config: EmulatorConfig, policy| {
        lpvs::obs::init().reset();
        let report = Emulator::new(config, policy).run();
        lpvs::obs::set_enabled(false);
        assert!(report.gave_up.iter().all(|&g| !g), "a give-up would cut a window short");
        let metrics = &report.obs.as_ref().expect("recorder was enabled").metrics;
        let count = |name| metrics.counter(name).unwrap_or_else(|| panic!("missing {name}"));
        let selected: u64 = report.slots.iter().map(|s| s.selected as u64).sum();
        (count("emu_chunks_synthesized_total"), count("emu_chunks_encoded_total"), selected)
    };
    // The paper's 30 ten-second chunks per 5-minute slot.
    let chunks = 30;
    let device_slots = (config.devices * config.slots) as u64;

    let (synthesized, encoded, selected) = run(config, Policy::Lpvs);
    assert_eq!(synthesized, device_slots * chunks);
    assert!(selected > 0, "LPVS transformed nobody");
    assert_eq!(encoded, selected * chunks);

    // Oracle γ encodes each decision window (the full window, with full
    // prefetch) at gather.
    let oracle = EmulatorConfig { gamma_mode: GammaMode::Oracle, ..config };
    let (synthesized, encoded, selected) = run(oracle, Policy::Lpvs);
    assert_eq!(synthesized, device_slots * chunks);
    assert_eq!(encoded, (device_slots + selected) * chunks);

    let (synthesized, encoded, _) = run(config, Policy::NoTransform);
    assert_eq!(synthesized, device_slots * chunks);
    assert_eq!(encoded, 0);
}

#[test]
fn faulty_emulation_produces_full_telemetry() {
    let _turn = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let recorder = lpvs::obs::init();
    recorder.reset();
    let slots = 10;
    let config = EmulatorConfig {
        devices: 16,
        slots,
        seed: 2020,
        server_streams: 96,
        faults: FaultConfig::uniform(0.25, 2020 ^ 0xFA17),
        ..EmulatorConfig::default()
    };
    let report = Emulator::new(config, Policy::Lpvs).run();
    lpvs::obs::set_enabled(false);

    // The report embeds the cumulative snapshot of the live recorder.
    let snapshot = report.obs.expect("recorder was enabled, snapshot attached");
    assert!(snapshot.span_events > 0, "no spans recorded");
    let metrics = &snapshot.metrics;

    // Per-stage latency histograms from the span auto-fold, one per
    // pipeline stage that ran every slot.
    for stage in
        ["sched_slot_seconds", "sched_sanitize_seconds", "runtime_slot_seconds", "emu_gather_seconds"]
    {
        let h = metrics.histogram(stage).unwrap_or_else(|| panic!("missing histogram {stage}"));
        assert_eq!(h.count, slots as u64, "{stage} should record one sample per slot");
        assert!(h.sum >= 0.0 && h.sum.is_finite());
    }

    // The executor's own stage series, one sample per slot — from the
    // inline executor too (this run is inline), so the default emulator
    // path has a gather / apply breakdown.
    for (stage, series) in [("gather", "runtime_gather_seconds"), ("apply", "runtime_apply_seconds")] {
        let labeled = metrics
            .histogram_labeled("runtime_stage_seconds", &[("stage", stage)])
            .unwrap_or_else(|| panic!("missing runtime_stage_seconds{{stage={stage}}}"));
        assert_eq!(labeled.count, slots as u64, "stage {stage}");
        assert_eq!(metrics.histogram(series).map(|h| h.count), Some(slots as u64), "{series}");
    }
    assert_eq!(metrics.counter("runtime_slots_total"), Some(slots as u64));
    // The emulator ships no delta, so the join accounts every row it is
    // handed, every slot (faults shrink the fleet, so not 16 a slot).
    let accounted = metrics.counter_labeled("delta_accounting_rows_total", &[("owner", "join")]);
    assert!(accounted >= Some(slots as u64) && accounted <= Some(16 * slots as u64));

    // Every exercised degradation tier has both a counter and a
    // latency histogram, and they agree on the sample count.
    let runs = metrics.counter("sched_runs_total").expect("sched_runs_total missing");
    assert_eq!(runs, slots as u64);
    let mut tiers_hit = 0;
    let mut tier_total = 0;
    for tier in Degradation::ALL {
        let name = tier.label();
        let labels = [("tier", name)];
        let count = metrics.counter_labeled("sched_tier_total", &labels).unwrap_or(0);
        tier_total += count;
        if count == 0 {
            continue;
        }
        tiers_hit += 1;
        let h = metrics
            .histogram_labeled("sched_tier_seconds", &labels)
            .unwrap_or_else(|| panic!("tier {name} ran {count}x but has no latency histogram"));
        assert_eq!(h.count, count, "tier {name}: histogram/counter disagree");
    }
    assert_eq!(tier_total, runs, "every run lands in exactly one tier");
    assert!(tiers_hit >= 2, "25% faults should push the ladder past its exact rung");

    // Edge gauges were published (brownouts move the factor below 1).
    assert!(metrics.gauge("edge_brownout_factor").is_some());
    assert!(metrics.gauge("edge_compute_capacity").is_some());

    // JSONL export is lossless.
    let events = recorder.events();
    assert_eq!(events.len(), snapshot.span_events);
    let jsonl = events_to_jsonl(&events);
    let back = events_from_jsonl(&jsonl).expect("exported JSONL must parse");
    assert_eq!(back, events);

    // Prometheus text: every metric appears with a TYPE header, and
    // histograms end in a +Inf bucket plus sum/count.
    let prom = render_prometheus(metrics);
    for (key, _) in &metrics.counters {
        assert!(prom.contains(&format!("# TYPE {} counter", key.name)), "no TYPE line for {key}");
    }
    for (key, h) in &metrics.histograms {
        let name = &key.name;
        let inf = key.label_block(&[("le", "+Inf")]);
        assert!(prom.contains(&format!("{name}_bucket{inf} {}", h.count)), "{key}");
        assert!(prom.contains(&format!("{name}_count{} {}", key.label_block(&[]), h.count)), "{key}");
    }
}
