//! End-to-end telemetry: a recorder-enabled emulator run must yield
//! per-stage latency histograms, a latency histogram for every
//! degradation tier the run exercised, and well-formed Prometheus
//! exposition text; every series any run emits is a row of DESIGN
//! §5c's table, and every row is emitted or names the test that reads
//! it.
//!
//! Lives in its own integration-test binary so the process-global
//! recorder cannot interfere with other tests; the tests in it take
//! turns.

use lpvs::core::baseline::Policy;
use lpvs::core::budget::SlotBudget;
use lpvs::core::fleet::DeviceFleet;
use lpvs::core::phase1::{solve_phase1, Phase1Config};
use lpvs::core::problem::{DeviceRequest, SlotProblem};
use lpvs::core::provision::price_capacity;
use lpvs::core::scheduler::{Degradation, LpvsScheduler, SchedulerConfig};
use lpvs::core::work::{ChunkSteps, DeltaPaths, RowsAccounted, RowsRefilled, SlotWork, WarmStarts};
use lpvs::display::spec::Resolution;
use lpvs::edge::fleet::{FleetConfig, FleetSchedule, FleetScheduler};
use lpvs::edge::server::EdgeServer;
use lpvs::emulator::engine::{CheckpointSpec, Emulator, EmulatorConfig, GammaMode};
use lpvs::emulator::faults::FaultConfig;
use lpvs::obs::dashboard::parse_prometheus;
use lpvs::obs::sink::render_prometheus;
use lpvs::obs::{span_metric_name, MetricsSnapshot, SeriesKey, SpanEvent};
use lpvs::runtime::{
    BankOps, GatheredSlot, RuntimeConfig, SlotFeedback, SlotRuntime, SlotSink, SlotSource,
    SolvedSlot, StageFaults, SyntheticConfig, SyntheticDriver,
};
use lpvs::survey::curve::AnxietyCurve;
use lpvs_serve::http::{read_response, render_request, Response};
use lpvs_serve::engine::Admission;
use lpvs_serve::{serve, ServeConfig, ServerHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

static RECORDER: Mutex<()> = Mutex::new(());

/// What a cold solve sorts, counted in keys: the exact tier returns
/// `IlpStats::keys_sorted` in its work record. A root the relaxation
/// prunes on selected break items sorts only the greedy seed's tail;
/// a decision at the rounding level sends the seed and the root to the
/// sorted orders (the density order and the row orders they read), and
/// both rows binding adds the bisection's inner orders at every node.
/// The counts come from the record; a solve writes no telemetry, so this
/// test needs no turn at the recorder.
#[test]
fn a_phase1_solve_sorts_the_orders_it_reads() {
    let n = 300;
    let problem = |unit: bool, storage_share: f64| {
        let cost = |i: usize, stride: usize| 0.5 + ((i * stride) % 17) as f64 / 10.0;
        let compute = |i: usize| if unit { 1.0 } else { cost(i, 5) };
        let total = |cost: &dyn Fn(usize) -> f64| (0..n).map(cost).sum::<f64>();
        let mut p = SlotProblem::new(
            (0.3 * total(&compute)).floor(),
            storage_share * total(&|i| cost(i, 11)),
            1.0,
            AnxietyCurve::paper_shape(),
        );
        for i in 0..n {
            let gamma = 0.15 + ((i * 7) % 30) as f64 / 100.0;
            p.push(DeviceRequest::uniform(1.2, 10.0, 30, 30_000.0, 55_440.0, gamma, compute(i), cost(i, 11)));
        }
        p
    };
    // (unit compute costs, storage capacity as a share of the fleet's
    // cost, rows that bind, keys sorted, nodes)
    let cases = [
        // Unit costs and ample storage: the break is certain on the
        // exact compute row, nothing past it fits, and the root is pruned
        // on its selected bound, so nothing is sorted.
        (true, 50.0, 1, 0, 1),
        // The compute row's fill ends exactly at its capacity in floats:
        // a rounding-level tie, walked in the sorted density and
        // compute orders.
        (false, 2.0, 1, 2 * n, 1),
        // Both rows bind: sorted orders, and 128 bisection steps at most
        // a node.
        (false, 0.3, 2, 556_665, 41),
    ];
    for (unit, storage_share, binding, keys, nodes) in cases {
        let p = problem(unit, storage_share);
        let prices = price_capacity(&p).unwrap();
        let priced = [prices.compute_j_per_unit, prices.storage_j_per_gb];
        assert_eq!(priced.iter().filter(|&&d| d > 0.0).count(), binding, "{priced:?}");
        let result = solve_phase1(&p, &Phase1Config::default()).unwrap();
        assert_eq!((result.work.keys_sorted, result.nodes), (keys as u64, nodes), "unit {unit}, share {storage_share}");
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
    for stage in ["gather", "apply"] {
        let labeled = metrics
            .histogram_labeled("runtime_stage_seconds", &[("stage", stage)])
            .unwrap_or_else(|| panic!("missing runtime_stage_seconds{{stage={stage}}}"));
        assert_eq!(labeled.count, slots as u64, "stage {stage}");
    }

    // The emulator's three stages are spans, one a slot; the driver's
    // gather and apply hang from the executor's slot span (begin_slot
    // runs before the executor opens it).
    let events = recorder.events();
    assert_eq!(events.len(), snapshot.span_events);
    let runtime_slots: Vec<u64> =
        events.iter().filter(|e| e.name == "runtime.slot").map(|e| e.id).collect();
    assert_eq!(runtime_slots.len(), slots);
    for stage in ["emu.content", "emu.gather", "emu.apply"] {
        let spans: Vec<_> = events.iter().filter(|e| e.name == stage).collect();
        assert_eq!(spans.len(), slots, "{stage}: one span a slot");
        if stage != "emu.content" {
            assert!(
                spans.iter().all(|e| e.parent.is_some_and(|p| runtime_slots.contains(&p))),
                "{stage} must be a child of runtime.slot"
            );
        }
    }
    // The emulator ships no delta, so every shard solves cold and ships
    // each row it scored; the join adopts them and scores the rows no
    // shard shipped (the faults disconnect some): each row it is handed
    // once, every slot (faults shrink the fleet, so not 16 a slot).
    let rows = |owner| metrics.counter_labeled("delta_accounting_rows_total", &[("owner", owner)]).unwrap_or(0);
    assert_eq!(rows("shipped"), rows("shard"));
    assert!(rows("join") > 0 && rows("join") + rows("shipped") <= 16 * slots as u64);

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

    // Edge gauges hold the last slot's brownout factor and the compute
    // capacity the scheduler was offered under it.
    let factor = metrics.gauge("edge_brownout_factor").expect("brownout factor published");
    assert!((0.0..=1.0).contains(&factor), "factor {factor}");
    let capacity = metrics.gauge("edge_compute_capacity").expect("capacity published");
    assert!(capacity.is_finite() && capacity >= 0.0, "capacity {capacity}");

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

fn small_fleet(devices: usize) -> DeviceFleet {
    let mut problem = SlotProblem::new(8.0, 4.0, 1.0, AnxietyCurve::paper_shape());
    for i in 0..devices {
        let watts = 1.1 + 0.05 * (i % 7) as f64;
        let energy_j = 4_000.0 + 300.0 * i as f64;
        problem.push(DeviceRequest::uniform(watts, 10.0, 12, energy_j, 55_440.0, 0.31, 2.0, 0.11));
    }
    DeviceFleet::from_problem(&problem)
}

/// `fleet_slot_seconds` is `FleetSchedule::runtime`: one sample a fleet
/// slot, whether the hub or the workers ran its shards.
#[test]
fn one_fleet_slot_sample_per_fleet_slot() {
    let _turn = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let slots = 3;
    for (shards, workers) in [(1, false), (2, false), (2, true)] {
        let mut driver = SyntheticDriver::new(SyntheticConfig::steady(200, slots, 3));
        let estimators = driver.estimators();
        let fleet = FleetConfig { num_shards: shards, ..FleetConfig::default() };
        let runtime = SlotRuntime::new(RuntimeConfig { fleet, ..RuntimeConfig::default() });
        let recorder = lpvs::obs::init();
        recorder.reset();
        let report = if workers {
            runtime.run(&mut driver, estimators)
        } else {
            runtime.run_sequential(&mut driver, estimators)
        };
        lpvs::obs::set_enabled(false);
        assert_eq!(report.summary.solved_slots, slots);
        let samples = recorder.metrics().snapshot().histogram("fleet_slot_seconds").map(|h| h.count);
        assert_eq!(samples, Some(slots as u64), "{shards} shards, workers: {workers}");
    }
}

/// A Phase-1 solve whose branch-and-bound hits its node cap hands back
/// an incumbent it could not certify; the exact arm says so in its
/// result and counts it in its work record.
#[test]
fn phase1_counts_the_solves_it_could_not_certify() {
    // Four compute classes (the four resolutions' transform cost)
    // against 100 units: the relaxation's root leaves a fractional row.
    let resolutions = [Resolution::SD, Resolution::HD, Resolution::FHD, Resolution::QHD];
    let mut classes = SlotProblem::new(100.0, 1e9, 1.0, AnxietyCurve::paper_shape());
    for i in 0..200 {
        let compute = lpvs::media::cost::transform_compute_units(resolutions[i % 4], 30.0);
        let gamma = 0.15 + ((i * 7) % 30) as f64 / 100.0;
        let watts = 1.2 + 0.01 * (i % 13) as f64;
        classes.push(DeviceRequest::uniform(watts, 10.0, 30, 30_000.0, 55_440.0, gamma, compute, 0.11));
    }
    let solve = |problem: &SlotProblem, config: Phase1Config| {
        let result = solve_phase1(problem, &config).unwrap();
        (result.certified, result.work.uncertified)
    };
    let capped = Phase1Config { node_limit: 1, ..Phase1Config::default() };
    assert_eq!(solve(&classes, capped), (false, 1));
    // The Fig. 10 shape closes within the default budget.
    let fig10 = lpvs::emulator::experiment::synthetic_problem(2_000, 100.0, 1.0, 7);
    assert_eq!(solve(&fig10, Phase1Config::default()), (true, 0));
}

/// A driver that folds the records its runtime hands it: every solved
/// slot's `work`, which must carry the rows its gather copied, and its
/// laps. Slot 3 gets no time, so its solves fall below the solver rungs
/// and account their selection with a kernel; every compute capacity is
/// scaled by `squeeze`.
struct Folding<D> {
    inner: D,
    squeeze: f64,
    copied: RowsRefilled,
    work: SlotWork,
    timed: Timing,
}

/// Sample counts and sums of the timing series, by series.
type Timing = BTreeMap<String, (u64, f64)>;

/// Adds one sample of `secs` to series `name{labels}`.
fn sample(timing: &mut Timing, name: &str, labels: &[(&str, &str)], secs: f64) {
    let entry = timing.entry(SeriesKey::with_labels(name, labels).to_string()).or_default();
    *entry = (entry.0 + 1, entry.1 + secs);
}

/// What the registry's timing series must hold for a delivered slot:
/// one tier sample per shard run, its slot's `fleet_slot_seconds`, the
/// hub's three stages and one `solve` per shard that delivered laps —
/// whoever ran the shards.
fn fold_timing(timing: &mut Timing, schedule: &FleetSchedule) {
    sample(timing, "fleet_slot_seconds", &[], schedule.runtime.as_secs_f64());
    for stage in ["dispatch", "join", "assemble"] {
        sample(timing, "runtime_stage_seconds", &[("stage", stage)], 0.0);
    }
    for report in &schedule.shards {
        for &(from, to, rung) in &report.laps.runs {
            let start = if from == 0 { report.laps.start } else { Some(report.laps.ends[from - 1].1) };
            let secs = (report.laps.ends[to - 1].1 - start.unwrap()).as_secs_f64();
            sample(timing, "sched_runs_total", &[], 0.0);
            sample(timing, "sched_tier_total", &[("tier", rung.label())], 0.0);
            sample(timing, "sched_tier_seconds", &[("tier", rung.label())], secs);
        }
        if !report.laps.ends.is_empty() {
            let shard = report.shard.to_string();
            sample(timing, "runtime_stage_seconds", &[("stage", "solve"), ("shard", &shard)], 0.0);
        }
    }
}

/// The timing series as the registry holds them: counter values, and
/// histogram sample counts and sums — but a stage histogram's sum,
/// which no record carries.
fn published_timing(metrics: &MetricsSnapshot) -> Timing {
    let timed = ["sched_runs_total", "sched_tier_total", "sched_tier_seconds", "fleet_slot_seconds"];
    let counters = metrics.counters.iter().filter(|(key, _)| timed.contains(&key.name.as_str()));
    let mut timing: Timing = counters.map(|(key, n)| (key.to_string(), (*n, 0.0))).collect();
    for (key, h) in &metrics.histograms {
        let stage = key.name == "runtime_stage_seconds";
        if stage || timed.contains(&key.name.as_str()) {
            timing.insert(key.to_string(), (h.count, if stage { 0.0 } else { h.sum }));
        }
    }
    timing
}

impl<D: SlotSource> SlotSource for Folding<D> {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        self.inner.begin_slot(slot)
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        let mut gathered = self.inner.gather(slot, posteriors, recycled)?;
        if slot == 3 {
            gathered.budget = gathered.budget.with_deadline_secs(0.0);
        }
        gathered.compute_capacity *= self.squeeze;
        self.copied = gathered.refilled;
        Some(gathered)
    }
}

impl<D: SlotSink> SlotSink for Folding<D> {
    fn solved(&mut self, solved: &SolvedSlot) {
        assert_eq!(solved.schedule.work.rows_refilled, self.copied, "slot {}", solved.slot);
        self.work += solved.schedule.work;
        fold_timing(&mut self.timed, &solved.schedule);
        self.inner.solved(solved);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        self.inner.apply(slot)
    }
}

/// The eight solve-work series, read back into a record.
fn published(metrics: &MetricsSnapshot) -> SlotWork {
    let total = |name| metrics.counter(name).unwrap_or(0);
    let by = |name, key, value| metrics.counter_labeled(name, &[(key, value)]).unwrap_or(0);
    let (steps, path) = (|s| by("sched_chunk_steps_total", "stage", s), |p| by("delta_solve_total", "path", p));
    let (rows, copied) =
        (|o| by("delta_accounting_rows_total", "owner", o), |p| by("fleet_refill_rows_total", "path", p));
    SlotWork {
        chunk_steps: ChunkSteps { score: steps("score"), account: steps("account") },
        keys_sorted: total("solver_keys_sorted_total"),
        uncertified: total("sched_phase1_uncertified_total"),
        warm_start: WarmStarts { hit: total("delta_warm_start_hit_total"), miss: total("delta_warm_start_miss_total") },
        delta_path: DeltaPaths { reuse: path("reuse"), incremental: path("incremental"), cold: path("cold") },
        rows_accounted: RowsAccounted { shard: rows("shard"), join: rows("join"), shipped: rows("shipped") },
        rows_refilled: RowsRefilled { patched: copied("patched"), full: copied("full") },
    }
}

/// The registry is the fold of the records. On a delta-carrying fleet
/// whose stage faults kill workers that are respawned, one whose faults
/// exhaust the retry budget so the run finishes inline, and the same
/// fleet on the inline executor under a one-node Phase-1 cap (and a
/// capacity no whole number of unit-cost rows fills), each of the eight
/// solve-work series holds what the driver summed from the `work`
/// delivered to `solved()`, the gather's copied rows included, and the
/// tier series, `fleet_slot_seconds` and the stage histograms hold what
/// it folded from the laps (a gather and an apply a slot beside them).
#[test]
fn the_registry_is_the_fold_of_the_records() {
    let _turn = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let config = SyntheticConfig { mutation_fraction: 0.05, ..SyntheticConfig::steady(400, 10, 11) };
    let fleet = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let faults = |seed, repeat| Some(StageFaults { rate: 0.15, seed, repeat });
    let mut capped = SchedulerConfig::default();
    (capped.phase1.node_limit, capped.phase1.relative_gap) = (1, 0.0);
    let cases = [
        ("respawned workers", 1.0, RuntimeConfig { fleet, stage_faults: faults(16, 0), ..RuntimeConfig::default() }),
        ("inline fallback", 1.0, RuntimeConfig { fleet, stage_faults: faults(5, u32::MAX), ..RuntimeConfig::default() }),
        (
            "inline executor",
            1.013,
            RuntimeConfig { fleet: FleetConfig { scheduler: capped, ..fleet }, ..RuntimeConfig::default() },
        ),
    ];
    for (case, squeeze, runtime) in cases {
        let inner = SyntheticDriver::new(config.clone());
        let (copied, work, timed) = (RowsRefilled::default(), SlotWork::default(), Timing::new());
        let mut driver = Folding { inner, squeeze, copied, work, timed };
        let estimators = driver.inner.estimators();
        let recorder = lpvs::obs::init();
        recorder.reset();
        let runtime = SlotRuntime::new(runtime);
        let report = if case == "inline executor" {
            runtime.run_sequential(&mut driver, estimators)
        } else {
            runtime.run(&mut driver, estimators)
        };
        lpvs::obs::set_enabled(false);
        let metrics = recorder.metrics().snapshot();
        assert_eq!(published(&metrics), driver.work, "{case}");
        for stage in ["gather", "apply"] {
            let key = SeriesKey::with_labels("runtime_stage_seconds", &[("stage", stage)]).to_string();
            driver.timed.insert(key, (report.summary.slots as u64, 0.0));
        }
        assert_eq!(published_timing(&metrics), driver.timed, "{case}");

        // Not vacuous: every stage, path and owner the case reaches counted.
        // Only the capped gap-0 solves sort keys: their roots are not
        // pruned, so they walk the sorted orders; every default-gap solve
        // closes at its root on selected break items with no tail. The
        // only rungs below the solvers these runs reach are residual
        // sub-solves', which total their selection on the frontier's
        // entries of the shard's score: no chunk is walked to account.
        let (w, lost, fell_back) = (driver.work, report.summary.workers_lost, report.summary.recovery.fell_back);
        let (steps, copied, paths) = (w.chunk_steps, w.rows_refilled, w.delta_path);
        assert_eq!(steps.account, 0, "{case}: {w:?}");
        let every = [steps.score, copied.patched, copied.full, w.warm_start.hit];
        let reached = match case {
            "respawned workers" => lost > 0 && fell_back.is_none() && paths.incremental * paths.cold > 0,
            "inline fallback" => fell_back.is_some() && w.rows_accounted.join * w.rows_accounted.shipped > 0,
            _ => w.uncertified > 0 && paths.incremental * paths.cold > 0,
        };
        let sorted = if case == "inline executor" { 1_116 } else { 0 };
        assert!(reached && every.iter().all(|&n| n > 0) && w.keys_sorted == sorted, "{case}: {w:?}");
    }

    // A bare fleet schedule, solve or shipped snapshot returns its
    // counts and its laps, and writes no series and no span.
    let recorder = lpvs::obs::init();
    recorder.reset();
    let (mut fleet, server, curve) = (small_fleet(12), EdgeServer::new(8.0, 4.0), AnxietyCurve::paper_shape());
    let budget = SlotBudget::unbounded();
    let bare = FleetScheduler::with_shards(2).schedule(&fleet, &server, 1.0, &curve, None, &budget);
    let all: Vec<usize> = (0..fleet.len()).collect();
    let view = fleet.slot_view(&all, 8.0, 4.0, 1.0, &curve);
    let solve = LpvsScheduler::paper_default().schedule_view(view, None, &budget);
    let (_, _, copied) = fleet.ship_snapshot(None);
    lpvs::obs::set_enabled(false);
    // Each shard ships every row it scored: the join scores none of them.
    let priced = RowsAccounted { shard: 12, join: 0, shipped: 12 };
    assert!(bare.work.chunk_steps.score > 0 && bare.work.rows_accounted == priced, "{:?}", bare.work);
    assert_eq!(copied, RowsRefilled { patched: 0, full: 12 });
    assert!(bare.shards.iter().all(|r| r.laps.runs.len() == 1) && solve.laps.runs.len() == 1);
    let metrics = recorder.metrics().snapshot();
    assert!(metrics.counters.is_empty() && metrics.gauges.is_empty() && metrics.histograms.is_empty());
    assert_eq!(recorder.event_count(), 0);
}

/// One keep-alive connection to an in-process `lpvs-serve`.
struct Client(BufReader<TcpStream>);

impl Client {
    fn boot(config: ServeConfig) -> (ServerHandle, Client) {
        let handle = serve(config).expect("bind");
        let stream = TcpStream::connect(handle.addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let mut client = Client(BufReader::new(stream));
        while !text(&client.request("GET", "/healthz", "")).contains("\"live\"") {
            std::thread::sleep(Duration::from_millis(2));
        }
        (handle, client)
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Response {
        self.0.get_mut().write_all(&render_request(method, path, body, false)).expect("send");
        read_response(&mut self.0).expect("framed response")
    }

    fn post(&mut self, path: &str, body: &str) {
        let reply = self.request("POST", path, body);
        assert_eq!(reply.status, 202, "{path}: {}", text(&reply));
    }

    /// Ticks slot `t` and waits until its decision is published.
    fn run_slot(&mut self, t: usize) {
        self.post("/v1/tick", "{}");
        while self.request("GET", &format!("/v1/schedule/{t}"), "").status != 200 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn shutdown(mut self, handle: ServerHandle) {
        assert_eq!(self.request("POST", "/v1/shutdown", "{}").status, 200);
        handle.join();
        lpvs::obs::set_enabled(false);
    }
}

fn text(response: &Response) -> String {
    String::from_utf8_lossy(&response.body).into_owned()
}

/// Four sessions, then slots in which device `t % 4` reports: a slot
/// with a dirty row solves (one with none reuses the last decision).
fn serve_slots(client: &mut Client, slots: usize, mut after: impl FnMut(usize)) {
    for d in 0..4 {
        let arrive = format!("{{\"action\":\"arrive\",\"device\":{d},\"energy_j\":9000,\"gamma\":0.4}}");
        client.post("/v1/sessions", &arrive);
    }
    for t in 0..slots {
        client.post("/v1/telemetry", &format!("{{\"device\":{},\"energy_j\":{}}}", t % 4, 8_000 - t));
        client.run_slot(t);
        after(t);
    }
}

/// `/metrics` is all `lpvs-serve` exports, so the recorder holds no more
/// than the slot in flight's span events, however long the server runs —
/// and the histograms the spans fold into count every slot.
#[test]
fn a_server_keeps_one_slots_spans() {
    let _turn = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let mut config = ServeConfig::loopback(8);
    config.shards = 1;
    let (handle, mut client) = Client::boot(config);
    let recorder = lpvs::obs::installed().expect("serve installs the recorder");
    recorder.reset();
    let slots = 200;
    let mut held = Vec::with_capacity(slots);
    serve_slots(&mut client, slots, |_| held.push(recorder.event_count()));
    let metrics = recorder.metrics().snapshot();
    client.shutdown(handle);

    assert_eq!(metrics.histogram("sched_slot_seconds").map(|h| h.count), Some(slots as u64));
    // A slot's worth: the span samples the run folded, per slot — twice
    // that, since a reading may land before the next slot's drain and the
    // cold first slot opens more spans than the incremental ones after it.
    let spans: u64 = inventory()
        .iter()
        .filter(|row| row.kind == "span")
        .filter_map(|row| metrics.histogram(&span_metric_name(&row.name)).map(|h| h.count))
        .sum();
    let per_slot = spans.div_ceil(slots as u64) as usize;
    assert!(per_slot >= 3, "a served slot opens runtime.slot, .prepare, .solve at least");
    assert!(held.iter().all(|&n| n <= 2 * per_slot), "{per_slot} span events a slot, held {held:?}");
}

/// The brownout gauge is the served slot's: the engine's gather writes
/// it once a slot, so a brownout op reaches `/metrics` with the next
/// slot, and an admission check — made once per session request —
/// writes nothing.
#[test]
fn a_brownout_reaches_metrics_with_the_next_slot() {
    let _turn = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let (handle, mut client) = Client::boot(ServeConfig::loopback(8));
    let factor = |client: &mut Client| {
        let scraped = parse_prometheus(&text(&client.request("GET", "/metrics", ""))).expect("exposition parses");
        scraped.gauge("edge_brownout_factor")
    };
    serve_slots(&mut client, 1, |_| {});
    assert_eq!(factor(&mut client), Some(1.0));
    client.post("/v1/brownout", "{\"factor\":0.5}");
    assert_eq!(factor(&mut client), Some(1.0), "no slot has gathered under the brownout yet");
    client.post("/v1/telemetry", "{\"device\":1,\"energy_j\":7000}");
    client.run_slot(1);
    assert_eq!(factor(&mut client), Some(0.5));

    let admission = Admission {
        server: EdgeServer::new(8.0, 4.0),
        brownout: 0.25,
        compute_reserved: 0.0,
        storage_reserved_gb: 0.0,
        active: vec![false; 8],
        accepted: 0,
        rejected: 0,
    };
    assert!(lpvs::obs::enabled() && admission.fits_one());
    assert_eq!(factor(&mut client), Some(0.5), "an admission check wrote the gauge");
    client.shutdown(handle);
}

/// One row of DESIGN §5c's table.
struct Row {
    name: String,
    kind: String,
    labels: BTreeSet<String>,
    read_by: String,
}

fn inventory() -> Vec<Row> {
    let design = include_str!("../DESIGN.md");
    let start = design.find("## 5c. Observability").expect("DESIGN §5c");
    let end = start + design[start..].find("\n## 6.").expect("DESIGN §6");
    let ticked = |cell: &str| -> Vec<String> {
        cell.split('`').skip(1).step_by(2).map(str::to_owned).collect()
    };
    design[start..end]
        .lines()
        .filter(|line| line.starts_with("| `"))
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 5, "a table row has five cells: {line}");
            Row {
                name: ticked(cells[0]).remove(0),
                kind: cells[1].to_owned(),
                labels: ticked(cells[2]).into_iter().collect(),
                read_by: cells[4].to_owned(),
            }
        })
        .collect()
}

/// What runs emitted: each series' kind and label keys, and span names.
#[derive(Default)]
struct Emitted {
    series: BTreeMap<String, (&'static str, BTreeSet<String>)>,
    spans: BTreeSet<String>,
}

impl Emitted {
    fn metrics(&mut self, metrics: &MetricsSnapshot) {
        let mut add = |key: &SeriesKey, kind: &'static str| {
            let entry = self.series.entry(key.name.clone()).or_insert((kind, BTreeSet::new()));
            assert_eq!(entry.0, kind, "{} is emitted as two kinds", key.name);
            entry.1.extend(key.labels.iter().map(|(k, _)| k.clone()));
        };
        metrics.counters.iter().for_each(|(key, _)| add(key, "counter"));
        metrics.gauges.iter().for_each(|(key, _)| add(key, "gauge"));
        metrics.histograms.iter().for_each(|(key, _)| add(key, "histogram"));
    }

    fn events(&mut self, events: &[SpanEvent]) {
        self.spans.extend(events.iter().map(|e| e.name.clone()));
    }
}

/// The table is the telemetry, both ways: whatever an emulated slot
/// (inline and on shard workers with checkpoints and faults), a fleet
/// schedule and a served slot emit is a row with that kind and those
/// labels, and every row is emitted by one of them or names the test
/// that asserts it.
#[test]
fn the_telemetry_inventory_is_the_design_table() {
    let _turn = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let mut emitted = Emitted::default();
    let record = |emitted: &mut Emitted, run: &dyn Fn()| {
        let recorder = lpvs::obs::init();
        recorder.reset();
        run();
        lpvs::obs::set_enabled(false);
        emitted.metrics(&recorder.metrics().snapshot());
        emitted.events(&recorder.drain_events());
    };

    let faults = FaultConfig::uniform(0.25, 2020 ^ 0xFA17);
    let inline = EmulatorConfig { devices: 16, slots: 6, seed: 2020, faults, ..EmulatorConfig::default() };
    record(&mut emitted, &|| drop(Emulator::new(inline, Policy::Lpvs).run()));

    let dir = std::env::temp_dir().join(format!("lpvs-observability-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workers = EmulatorConfig {
        devices: 16,
        slots: 12,
        seed: 7,
        one_slot_ahead: true,
        pipelined: true,
        num_edges: 2,
        faults: FaultConfig {
            stage_fault_rate: 0.25,
            stage_fault_repeat: 1,
            checkpoint_corrupt_rate: 0.5,
            ..FaultConfig::none()
        },
        ..EmulatorConfig::default()
    };
    let spec = CheckpointSpec { interval: 2, ..CheckpointSpec::new(&dir) };
    record(&mut emitted, &|| drop(Emulator::new(workers, Policy::Lpvs).with_checkpoints(spec.clone()).run()));
    let _ = std::fs::remove_dir_all(&dir);

    let fleet = small_fleet(12);
    let server = EdgeServer::new(8.0, 4.0);
    let curve = AnxietyCurve::paper_shape();
    let budget = SlotBudget::unbounded();
    record(&mut emitted, &|| {
        FleetScheduler::with_shards(2).schedule(&fleet, &server, 1.0, &curve, None, &budget);
    });

    let (handle, mut client) = Client::boot(ServeConfig::loopback(8));
    lpvs::obs::installed().expect("serve installs the recorder").reset();
    serve_slots(&mut client, 1, |_| {});
    let mut scrape = || parse_prometheus(&text(&client.request("GET", "/metrics", ""))).expect("exposition parses");
    let (first, scraped) = (scrape(), scrape());
    client.shutdown(handle);
    // Every answered request is a sample: the second scrape sees the
    // first one's (and the 4 arrivals, the report, the tick, the polls).
    let requests = |m: &MetricsSnapshot| m.histogram("serve_request_seconds").map_or(0, |h| h.count);
    assert!(requests(&first) >= 7 && requests(&scraped) > requests(&first));
    emitted.metrics(&scraped);

    let rows = inventory();
    let row = |name: &str| rows.iter().find(|r| r.name == name);
    for span in &emitted.spans {
        assert!(row(span).is_some_and(|r| r.kind == "span"), "span {span} is not a span row of DESIGN §5c");
    }
    for (name, (kind, labels)) in &emitted.series {
        let fold = rows.iter().find(|r| r.kind == "span" && span_metric_name(&r.name) == *name);
        if fold.is_some() {
            assert_eq!((*kind, labels.len()), ("histogram", 0), "{name} is a span fold");
            continue;
        }
        let r = row(name).unwrap_or_else(|| panic!("{name} ({kind}) is emitted but is no row of DESIGN §5c"));
        assert_eq!(r.kind, *kind, "{name}: the table says {}", r.kind);
        assert!(labels.is_subset(&r.labels), "{name}: labels {labels:?}, the table lists {:?}", r.labels);
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for r in &rows {
        let seen = match r.kind.as_str() {
            "span" => emitted.spans.contains(&r.name) || emitted.series.contains_key(&span_metric_name(&r.name)),
            _ => emitted.series.contains_key(&r.name),
        };
        if seen {
            continue;
        }
        // Not emitted here: the row must name a test that reads it.
        let asserted = r.read_by.split('`').skip(1).step_by(2).any(|cite| {
            let Some((file, test)) = cite.split_once(".rs").map(|(f, rest)| (format!("{f}.rs"), rest)) else {
                return false;
            };
            let source = std::fs::read_to_string(root.join(&file)).unwrap_or_default();
            let test = test.trim_start_matches("::");
            file.contains("tests/")
                && source.contains(&r.name)
                && (test.is_empty() || source.contains(&format!("fn {test}(")))
        });
        assert!(asserted, "{} is emitted by no run here and names no test that reads it", r.name);
    }
}
