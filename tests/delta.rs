//! Delta-aware solving invariants.
//!
//! The delta path's contract has three layers. At the fleet level,
//! every mutating setter that actually changes a row must land that row
//! in the dirty frontier — and *only* mutated rows may appear there. At
//! the runtime level, shipping an empty delta must be semantically
//! invisible: a steady-state run with deltas enabled reproduces the
//! cold baseline bit-for-bit, across 1–4 shards, with and without rows
//! disconnected mid-range, and under injected worker deaths. And the incremental chain must survive
//! a hub halt + resume: the restored delta memo (snapshot v4) continues
//! exactly where the halted run left off, so the resumed run is
//! bit-identical to one that never stopped. Last, the totals: every
//! `objective` and `energy_saved_j` a delta-carrying run reports — folded
//! from per-row terms kept across slots — is, bit for bit, what the row
//! functions give when every row is evaluated from scratch — also while
//! the rebalance moves rows across shards that solve incrementally. And
//! recovery needs no flag to drop warm state: a respawned worker has no
//! memo, so its re-dispatched solve is cold.

use lpvs::bayes::GammaEstimator;
use lpvs::core::budget::SlotBudget;
use lpvs::core::delta::SlotDelta;
use lpvs::core::fleet::{DeviceFleet, FleetDevice};
use lpvs::core::objective::device_objective;
use lpvs::core::problem::DeviceRequest;
use lpvs::display::spec::DisplayKind;
use lpvs::edge::fleet::{shard_frontier, FleetConfig, FleetSchedule};
use lpvs::core::scheduler::Degradation;
use lpvs::core::work::{DeltaPaths, SlotWork};
use lpvs::runtime::{
    BankOps, CheckpointConfig, CheckpointStore, FlightReason, GatheredSlot, RuntimeConfig, RuntimeReport,
    SlotFeedback, SlotReplay, SlotRuntime, SlotSink, SlotSource, SolvedSlot, StageFaults,
    SyntheticConfig, SyntheticDriver, SyntheticRecord,
};
use lpvs::survey::curve::AnxietyCurve;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh scratch directory per test invocation (no tempfile crate).
fn scratch(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lpvs-delta-it-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Any driver behind the driver traits, keeping what the totals are
/// checked against — each slot's gathered problem and the decision
/// delivered for it — its gathered fleets, when asked, with rows
/// disconnected mid-range. The partition skips a disconnected row, so
/// every shard's rows skip the gap: shards are not contiguous in fleet
/// index, the rows between them belong to no shard, and the fleet's
/// index-order fold is no concatenation of shard folds.
struct Capture<D> {
    inner: D,
    gaps: Vec<usize>,
    slots: Vec<(GatheredSlot, FleetSchedule)>,
    gathered: Option<GatheredSlot>,
}

impl<D> Capture<D> {
    /// Gaps at rows a quarter and two thirds of the way into the fleet;
    /// none unless `gapped`.
    fn new(inner: D, devices: usize, gapped: bool) -> Self {
        let gaps = if gapped { vec![devices / 4, devices / 4 + 1, 2 * devices / 3] } else { vec![] };
        Self { inner, gaps, slots: Vec::new(), gathered: None }
    }
}

impl<D: SlotSource> SlotSource for Capture<D> {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        self.inner.begin_slot(slot)
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        // A buffer with the gaps written in is no longer the inner
        // driver's last snapshot: it refills from nothing.
        let recycled = if self.gaps.is_empty() { recycled } else { None };
        let mut gathered = self.inner.gather(slot, posteriors, recycled)?;
        for &row in &self.gaps {
            gathered.fleet.set_connected(row, false);
        }
        self.gathered = Some(gathered.clone());
        Some(gathered)
    }
}

impl<D: SlotSink> SlotSink for Capture<D> {
    fn solved(&mut self, solved: &SolvedSlot) {
        let gathered = self.gathered.take().expect("a decision follows its gather");
        self.slots.push((gathered, solved.schedule.clone()));
        self.inner.solved(solved);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        self.inner.apply(slot)
    }
}

impl<D: SlotReplay> SlotReplay for Capture<D> {
    fn stage_decision(
        &mut self,
        slot: usize,
        device_ids: &[usize],
        selected: &[bool],
        tier: Degradation,
    ) {
        self.inner.stage_decision(slot, device_ids, selected, tier);
    }

    fn replay_slot(&mut self, slot: usize) {
        self.inner.replay_slot(slot);
    }
}

/// The synthetic driver for `config`, with mid-range rows disconnected
/// when `gapped`.
fn synthetic(config: SyntheticConfig, gapped: bool) -> Capture<SyntheticDriver> {
    let devices = config.devices;
    Capture::new(SyntheticDriver::new(config), devices, gapped)
}

/// Drives `driver` on the worker executor — `shards` shards, `devices`
/// estimators at the prior, `faults` injected — to the end of its
/// horizon, which the recovery ladder must reach without falling back.
fn run<D: SlotSource + SlotSink>(
    driver: &mut Capture<D>,
    devices: usize,
    shards: usize,
    faults: Option<StageFaults>,
) -> RuntimeReport {
    let runtime = SlotRuntime::new(RuntimeConfig {
        fleet: FleetConfig { num_shards: shards, ..FleetConfig::default() },
        stage_faults: faults,
        ..RuntimeConfig::default()
    });
    let report = runtime.run(driver, vec![GammaEstimator::paper_default(); devices]);
    assert_eq!(report.summary.recovery.fell_back, None, "recovery ladder bottomed out");
    report
}

/// Drives a synthetic workload through the pipelined runtime and
/// returns every delivered decision.
fn run_records(
    config: SyntheticConfig,
    shards: usize,
    gapped: bool,
    faults: Option<StageFaults>,
) -> Vec<SyntheticRecord> {
    let devices = config.devices;
    let mut driver = synthetic(config, gapped);
    run(&mut driver, devices, shards, faults);
    driver.inner.records().to_vec()
}

/// A fleet with clean dirty bits, ready for targeted mutation.
fn clean_fleet(n: usize) -> DeviceFleet {
    let mut fleet = DeviceFleet::with_capacity(n, 8);
    for d in 0..n {
        fleet.push(FleetDevice::from_request(DeviceRequest::uniform(
            1.0 + 0.01 * d as f64,
            10.0,
            8,
            30_000.0,
            55_440.0,
            0.3,
            1.0,
            0.1,
        )));
    }
    fleet.clear_dirty();
    fleet
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every setter that changes a row's value marks it dirty, and the
    /// frontier holds exactly the mutated rows — no false positives
    /// from untouched rows, no lost updates, for any interleaving of
    /// the four mutation kinds.
    #[test]
    fn mutated_rows_are_exactly_the_dirty_frontier(
        n in 1usize..40,
        ops in prop::collection::vec((0usize..40, 0u8..4), 0..64),
    ) {
        let mut fleet = clean_fleet(n);
        let epoch = fleet.epoch();
        let mut touched = BTreeSet::new();
        for (d, kind) in ops {
            let d = d % n;
            match kind {
                // Each write is guaranteed to differ from the current
                // value, so the bit-level change test always fires.
                0 => {
                    let e = fleet.energy_j(d);
                    fleet.set_energy_j(d, e * 0.9 + 1.0);
                }
                1 => {
                    let mean = fleet.gamma_mean(d);
                    fleet.set_gamma(d, mean + 0.01, fleet.gamma_std(d));
                }
                2 => {
                    let connected = fleet.connected(d);
                    fleet.set_connected(d, !connected);
                }
                _ => {
                    let flip = match fleet.display(d) {
                        DisplayKind::Oled => DisplayKind::Lcd,
                        _ => DisplayKind::Oled,
                    };
                    fleet.set_display(d, flip);
                }
            }
            prop_assert!(fleet.is_dirty(d), "mutated row {d} not dirty");
            touched.insert(d);
        }
        let frontier = fleet.dirty_frontier();
        prop_assert_eq!(frontier.epoch, epoch);
        let expected: Vec<usize> = touched.iter().copied().collect();
        prop_assert_eq!(&frontier.indices, &expected);
        fleet.clear_dirty();
        prop_assert_eq!(fleet.dirty_count(), 0);
        prop_assert_eq!(fleet.epoch(), epoch + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A frozen fleet ships an empty delta every steady-state slot, and
    /// the reuse path must be invisible: the delta-enabled run delivers
    /// the same selection and tier as the identical workload forced
    /// down the cold path — for any shard count, with and without rows
    /// disconnected mid-range, with and without injected worker deaths.
    #[test]
    fn empty_delta_slots_are_bit_identical_to_cold(
        devices in 16usize..48,
        shards in 1usize..=4,
        gapped in any::<bool>(),
        faulty in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let faults = faulty.then_some(StageFaults { rate: 0.25, seed: seed ^ 0xFA17, repeat: 0 });
        let mut config = SyntheticConfig::steady(devices, 6, seed);
        config.mutation_fraction = 0.0;
        let delta = run_records(
            SyntheticConfig { delta_enabled: true, ..config.clone() },
            shards,
            gapped,
            faults,
        );
        let cold = run_records(
            SyntheticConfig { delta_enabled: false, ..config },
            shards,
            gapped,
            faults,
        );
        prop_assert_eq!(delta, cold);
    }
}

/// Nonzero mutation rates exercise the incremental path (small
/// frontiers) and the fraction gate (large frontiers force cold). Both
/// regimes must be deterministic — the same seed twice delivers the
/// same decisions — and structurally sound.
#[test]
fn delta_runs_are_deterministic_for_identical_seeds() {
    for fraction in [0.15, 0.6] {
        let mut config = SyntheticConfig::steady(56, 8, 9);
        config.mutation_fraction = fraction;
        let a = run_records(config.clone(), 2, false, None);
        let b = run_records(config, 2, false, None);
        assert_eq!(a, b, "fraction {fraction} diverged across identical runs");
        assert_eq!(a.len(), 8);
        for (i, record) in a.iter().enumerate() {
            assert_eq!(record.slot, i);
            assert_eq!(record.selected.len(), 56);
        }
    }
}

/// The delta machinery must actually engage on steady-state slots —
/// this guards the bit-identity tests above against vacuously passing
/// because every slot quietly solved cold.
#[test]
fn steady_state_slots_ride_the_reuse_and_incremental_paths() {
    let mut config = SyntheticConfig::steady(48, 10, 33);
    config.mutation_fraction = 0.05;
    let work = total_work(&captured(synthetic(config, false), 48, 2));
    let paths = work.delta_path;
    assert!(paths.cold >= 2, "slot 0 solves cold on every shard (saw {paths:?})");
    assert!(paths.reuse + paths.incremental > 0, "no steady-state slot rode the delta path ({paths:?})");
    let warm = work.warm_start;
    assert!(warm.hit + warm.miss > 0, "warm-start plumbing never reached the exact tier");
}

/// Halting mid-horizon and resuming from the checkpoint store must be
/// bit-identical to an uninterrupted run *with delta solving enabled*:
/// the restored memo (snapshot v4) continues the incremental chain, and
/// replayed slots rebuild the same fleet epochs the halted run saw.
/// Injected worker deaths and rows disconnected mid-range ride along on
/// the multi-shard case, so death → cold-resolve → memo rebuild is
/// exercised across the restart on shards that skip rows.
#[test]
fn halted_and_resumed_delta_runs_are_bit_identical() {
    let faults = StageFaults { rate: 0.2, seed: 5, repeat: 0 };
    let cases = [(1usize, false, None), (3usize, true, Some(faults))];
    for (shards, gapped, faults) in cases {
        let mut config = SyntheticConfig::steady(48, 10, 13);
        config.mutation_fraction = 0.2;
        let baseline = run_records(config.clone(), shards, gapped, faults);
        let (resumed, _) = halt_and_resume(|| synthetic(config.clone(), gapped), 48, shards, faults);
        assert_eq!(
            resumed.inner.records(),
            &baseline[..],
            "resumed run diverged from the uninterrupted baseline \
             ({shards} shards, gapped {gapped})"
        );
    }
}

/// Runs a `make()` driver on `shards` worker shards, checkpointing every
/// other slot, until the hub halts after slot 5 as a crashed one would,
/// then resumes a second `make()` driver from the store. Returns the
/// resumed driver and the slot its run re-entered at.
fn halt_and_resume<D: SlotSource + SlotSink + SlotReplay>(
    make: impl Fn() -> D,
    devices: usize,
    shards: usize,
    faults: Option<StageFaults>,
) -> (D, usize) {
    let dir = scratch("resume");
    let checkpoints = CheckpointConfig { interval: 2, ..CheckpointConfig::new(&dir) };
    let config = |halt_after_slot| RuntimeConfig {
        fleet: FleetConfig { num_shards: shards, ..FleetConfig::default() },
        stage_faults: faults,
        checkpoints: Some(checkpoints.clone()),
        halt_after_slot,
    };
    let estimators = vec![GammaEstimator::paper_default(); devices];
    let report = SlotRuntime::new(config(Some(5))).run(&mut make(), estimators);
    assert!(report.summary.slots <= 6, "halt_after_slot did not stop the run");
    let manifest = CheckpointStore::create(&checkpoints, shards).and_then(|store| store.read_manifest());
    let at = manifest.expect("the manifest reads").expect("a round completed").slot;
    let mut resumed = make();
    SlotRuntime::new(config(None)).resume(&mut resumed).expect("resume from manifest");
    let _ = std::fs::remove_dir_all(&dir);
    (resumed, at)
}

/// The work of a run's delivered decisions, summed.
fn total_work(slots: &[(GatheredSlot, FleetSchedule)]) -> SlotWork {
    let mut work = SlotWork::default();
    for (_, schedule) in slots {
        work += schedule.work;
    }
    work
}

/// Runs `driver` fault-free and returns what it captured.
fn captured<D: SlotSource + SlotSink>(
    mut driver: Capture<D>,
    devices: usize,
    shards: usize,
) -> Vec<(GatheredSlot, FleetSchedule)> {
    run(&mut driver, devices, shards, None);
    driver.slots
}

/// Eq. 13 and the saving of `decisions` (row, decision) pairs by the
/// row functions, every row evaluated, summed in the order given.
fn from_scratch(g: &GatheredSlot, decisions: impl Iterator<Item = (usize, bool)>) -> (u64, u64) {
    let (terms, savings): (Vec<f64>, Vec<f64>) = decisions
        .map(|(row, x)| {
            let request = g.fleet.device_request(row);
            let saving = if x { request.saving_j() } else { 0.0 };
            (device_objective(&request, x, g.lambda, &g.curve), saving)
        })
        .unzip();
    (terms.iter().sum::<f64>().to_bits(), savings.iter().sum::<f64>().to_bits())
}

/// Every total of `schedule` — the fleet's and each shard's — against
/// the row functions over every row. A shard's own totals describe its
/// own solve, before the rebalance migrated anything into it.
fn assert_totals_are_from_scratch(g: &GatheredSlot, schedule: &FleetSchedule, case: &str) {
    let selected = &schedule.selected;
    let fleet_wide = from_scratch(g, selected.iter().copied().enumerate());
    assert_eq!(
        (schedule.objective.to_bits(), schedule.energy_saved_j.to_bits()),
        fleet_wide,
        "{case}: slot {} fleet totals", g.slot
    );
    let migrated: BTreeSet<usize> =
        schedule.shards.iter().flat_map(|r| r.migrated_in.iter().copied()).collect();
    for report in &schedule.shards {
        let own = report.devices.iter().map(|&row| (row, selected[row] && !migrated.contains(&row)));
        assert_eq!(
            (report.stats.objective.to_bits(), report.stats.energy_saved_j.to_bits()),
            from_scratch(g, own),
            "{case}: slot {} shard {} totals", g.slot, report.shard
        );
    }
}

/// What of a decision is the same however it was reached: the
/// selection, the migrations and every total. (Solver work counters are
/// not — a reused memo reports the work of the solve it reuses.)
fn outcome(schedule: &FleetSchedule) -> impl PartialEq + std::fmt::Debug {
    let shards: Vec<_> = schedule
        .shards
        .iter()
        .map(|r| {
            let stats = &r.stats;
            let totals = (stats.objective.to_bits(), stats.energy_saved_j.to_bits());
            (r.devices.clone(), r.migrated_in.clone(), totals, stats.degradation, stats.rejected_devices)
        })
        .collect();
    let totals = (schedule.objective.to_bits(), schedule.energy_saved_j.to_bits());
    (schedule.selected.clone(), schedule.migrations, totals, shards)
}

/// Whether any shard of this slot rode the incremental path, as its
/// worker reported it.
fn rode_incremental(schedule: &FleetSchedule) -> bool {
    schedule.shards.iter().any(|r| r.work.delta_path.incremental > 0)
}

/// The bit-identity matrix of the kept accounting. Every cell: each
/// total a delta-carrying run delivers equals the from-scratch row
/// oracle — reuse, incremental and gated-cold slots alike, with rows
/// disconnected mid-range so the fleet's index-order fold is no
/// concatenation of shard folds. And wherever no shard ever rode the
/// incremental path (whose *decisions* legitimately differ from a cold
/// solve's), the whole outcome equals the delta-less run's.
#[test]
fn kept_totals_are_bit_identical_to_evaluating_every_row() {
    let (devices, slots) = (180, 6);
    let mut compared_to_cold = 0;
    let mut incremental_runs = 0;
    for fraction in [0.0, 0.01, 0.2, 0.26, 0.5, 1.0] {
        for shards in [2usize, 3] {
            for gapped in [false, true] {
                for seed in [5u64, 23, 71] {
                    let case = format!("{fraction} × {shards} × gapped {gapped} × seed {seed}");
                    let mut config = SyntheticConfig::steady(devices, slots, seed);
                    config.mutation_fraction = fraction;
                    let cold_config = SyntheticConfig { delta_enabled: false, ..config.clone() };
                    let delta = captured(synthetic(config, gapped), devices, shards);
                    assert_eq!(delta.len(), slots, "{case}");
                    for (g, schedule) in &delta {
                        assert_totals_are_from_scratch(g, schedule, &case);
                    }
                    if delta.iter().any(|(_, schedule)| rode_incremental(schedule)) {
                        incremental_runs += 1;
                        continue;
                    }
                    let cold = captured(synthetic(cold_config, gapped), devices, shards);
                    for ((_, a), (_, b)) in delta.iter().zip(&cold) {
                        assert_eq!(outcome(a), outcome(b), "{case}");
                    }
                    compared_to_cold += 1;
                }
            }
        }
    }
    // Neither half may pass vacuously: the frozen and all-dirty fleets
    // never ride the incremental path, the 1 % and 20 % ones always do.
    assert!(compared_to_cold >= 24, "only {compared_to_cold} runs compared against cold");
    assert!(incremental_runs >= 24, "only {incremental_runs} runs rode the incremental path");
}

/// `tests/runtime.rs`'s skewed workload on a persistent fleet that ships
/// its delta: the first `demanding` rows run low on battery (a quarter
/// of them move every slot), the rest idle on full batteries with γ = 0,
/// so their shards' spare capacity is refilled by the rebalance every
/// slot — with different rows as the batteries rotate. A migrated row
/// is clean and unselected by its own shard; only the join's comparison
/// against the decision it last totalled finds it.
struct SkewedDelta {
    demanding: usize,
    slots: usize,
    delta_enabled: bool,
    fleet: DeviceFleet,
    staged: Option<Vec<bool>>,
}

impl SkewedDelta {
    const CAPACITY_J: f64 = 55_440.0;

    fn battery_j(d: usize, slot: usize) -> f64 {
        (0.06 + 0.012 * ((7 * d + 3 * slot) % 20) as f64) * Self::CAPACITY_J
    }

    fn new(devices: usize, demanding: usize, slots: usize, delta_enabled: bool) -> Self {
        let mut fleet = DeviceFleet::new();
        for d in 0..devices {
            let (energy_j, gamma) =
                if d < demanding { (Self::battery_j(d, 0), 0.35) } else { (0.9 * Self::CAPACITY_J, 0.0) };
            fleet.push_request(DeviceRequest::uniform(
                1.5, 10.0, 30, energy_j, Self::CAPACITY_J, gamma, 1.5, 0.1125,
            ));
        }
        Self { demanding, slots, delta_enabled, fleet, staged: None }
    }
}

impl SlotSource for SkewedDelta {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        (slot < self.slots).then(BankOps::default)
    }

    fn gather(
        &mut self,
        slot: usize,
        _posteriors: &[(f64, f64)],
        _recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        for d in (0..self.demanding).filter(|d| (d + slot).is_multiple_of(4)) {
            self.fleet.set_energy_j(d, Self::battery_j(d, slot));
        }
        let delta = self.delta_enabled.then(|| SlotDelta::from(self.fleet.dirty_frontier()));
        self.fleet.clear_dirty();
        Some(GatheredSlot {
            slot,
            fleet: self.fleet.clone(),
            device_ids: (0..self.fleet.len()).collect(),
            compute_capacity: 24.0,
            storage_capacity_gb: 2.7,
            lambda: 2.0,
            curve: AnxietyCurve::paper_shape(),
            budget: SlotBudget::unbounded(),
            warm: self.staged.clone(),
            delta,
            refilled: Default::default(),
        })
    }
}

impl SlotSink for SkewedDelta {
    fn solved(&mut self, solved: &SolvedSlot) {
        self.staged = Some(solved.schedule.selected.clone());
    }

    fn apply(&mut self, _slot: usize) -> SlotFeedback {
        SlotFeedback::default()
    }
}

/// Under migrations every slot, the join's kept terms still total what
/// a from-scratch evaluation does — on a delta leg whose shards solve
/// incrementally while the rebalance moves rows across them — and the
/// delta-less run of the same workload, which keeps nothing, agrees
/// with the oracle too.
#[test]
fn kept_totals_follow_rows_the_rebalance_migrates() {
    let (devices, demanding, slots) = (60, 24, 8);
    for shards in [2usize, 3] {
        let case = format!("skewed × {shards}");
        let mut moved = BTreeSet::new();
        for delta_enabled in [true, false] {
            let driver = SkewedDelta::new(devices, demanding, slots, delta_enabled);
            let run = captured(Capture::new(driver, devices, false), devices, shards);
            let DeltaPaths { incremental, cold, .. } = total_work(&run).delta_path;
            assert_eq!(run.len(), slots, "{case}");
            for (g, schedule) in &run {
                assert!(
                    (4..=16).contains(&schedule.migrations),
                    "{case}: slot {} migrated {}", g.slot, schedule.migrations
                );
                assert_totals_are_from_scratch(g, schedule, &case);
                if delta_enabled {
                    moved.insert(schedule.shards.iter().flat_map(|r| r.migrated_in.clone()).collect::<Vec<_>>());
                }
            }
            if delta_enabled {
                assert!(incremental > 0, "{case}: no shard solved incrementally (cold {cold})");
            } else {
                assert_eq!((incremental, cold), (0, (shards * slots) as u64), "{case}: delta-less");
            }
        }
        assert!(moved.len() > 1, "{case}: the same rows migrated every slot");
    }
}

/// Recovery drops warm state without being told to: a respawned worker
/// starts with no memo, so the slot re-dispatched to it solves cold.
/// On a steady delta run whose stage faults kill workers that hold a
/// live memo, every cold solve is slot 0's, a retry's, or one the
/// fraction gate sends cold — counted from the captured frontiers.
#[test]
fn a_respawned_worker_solves_cold_without_a_flag() {
    let (devices, slots, shards) = (96, 12, 2);
    let mut config = SyntheticConfig::steady(devices, slots, 17);
    config.mutation_fraction = 0.2;
    let mut capture = synthetic(config, false);
    let report = run(&mut capture, devices, shards, Some(StageFaults { rate: 0.2, seed: 16, repeat: 0 }));
    let DeltaPaths { reuse, incremental, cold } = total_work(&capture.slots).delta_path;

    let recovery = &report.summary.recovery;
    let deaths: Vec<(usize, usize)> = recovery
        .flight
        .iter()
        .filter(|r| r.reason == FlightReason::WorkerDeath)
        .map(|r| (r.slot, r.shard))
        .collect();
    assert_eq!(deaths.len(), recovery.total_deaths() as usize);
    // After slot 0 every shard holds the memo of its last solve.
    assert!(!deaths.is_empty() && deaths.iter().all(|&(slot, _)| slot > 0), "{deaths:?}");
    let retries: u32 = recovery.shards.iter().map(|s| s.retries).sum();
    assert_eq!(retries as usize, deaths.len(), "one respawn a death");

    // The solves that kept their memo: cold only past the gate.
    let gated = capture
        .slots
        .iter()
        .filter(|(g, _)| g.slot > 0)
        .flat_map(|(g, schedule)| {
            let dirty = &g.delta.as_ref().expect("delta-enabled run").dirty;
            schedule
                .shards
                .iter()
                .filter(|r| !deaths.contains(&(g.slot, r.shard)))
                .filter(move |r| shard_frontier(&r.devices, dirty).len() * 4 > r.devices.len())
        })
        .count();
    assert!(gated > 0 && reuse + incremental > 0, "gated {gated}, reuse {reuse}, incremental {incremental}");
    assert_eq!(cold, (shards + retries as usize + gated) as u64);
}

/// A change made to a gathered slot; `true` on the first slot it is made to.
type Change = fn(&mut GatheredSlot, bool);

/// The synthetic workload with one change made to every slot it gathers
/// from slot `at` on — nothing else differs.
struct Break {
    inner: SyntheticDriver,
    at: usize,
    change: Change,
}

impl SlotSource for Break {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        self.inner.begin_slot(slot)
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        _recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        // A changed buffer is no longer the driver's last snapshot: every
        // gather refills from nothing.
        let mut gathered = self.inner.gather(slot, posteriors, None)?;
        if slot >= self.at {
            (self.change)(&mut gathered, slot == self.at);
        }
        Some(gathered)
    }
}

impl SlotSink for Break {
    fn solved(&mut self, solved: &SolvedSlot) {
        self.inner.solved(solved);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        self.inner.apply(slot)
    }
}

impl SlotReplay for Break {
    fn stage_decision(&mut self, slot: usize, device_ids: &[usize], selected: &[bool], tier: Degradation) {
        self.inner.stage_decision(slot, device_ids, selected, tier);
    }

    fn replay_slot(&mut self, slot: usize) {
        self.inner.replay_slot(slot);
    }
}

/// A run whose slot `delta[at]` does not continue the one before:
/// every shard solved it cold, the join refreshed every row (adopting
/// what the shards shipped), the memos restarted under the change, and
/// every slot equals the delta-less run's (`cold`, aligned).
fn assert_cold_break(
    delta: &[(GatheredSlot, FleetSchedule)],
    cold: &[(GatheredSlot, FleetSchedule)],
    at: usize,
    shards: usize,
    case: &str,
) {
    let (g, broken) = &delta[at];
    let every = shards as u64;
    assert_eq!(broken.work.delta_path.cold, every, "{case}: the slot continued a memo");
    let rows = broken.work.rows_accounted;
    assert_eq!((rows.join + rows.shipped) as usize, g.fleet.len(), "{case}: the join kept rows ({rows:?})");
    assert_eq!(delta[at + 1].1.work.delta_path.reuse, every, "{case}: the memo did not restart");
    assert_eq!(delta.len(), cold.len(), "{case}");
    for ((g, a), (_, b)) in delta.iter().zip(cold) {
        assert_eq!(outcome(a), outcome(b), "{case}: slot {}", g.slot);
    }
}

/// Every way a slot can fail to continue a shard's memo — a missed
/// frontier, other rows, other capacity bits, other λ bits, another
/// curve, and another curve on the first slot after a resume, whose
/// memo came back from a checkpoint — sends every shard cold and makes
/// the join refresh every row, on a frozen fleet whose slots otherwise
/// all reuse their memo; the run equals the delta-less one slot by slot.
#[test]
fn every_chain_break_sends_every_shard_cold() {
    let (devices, slots, at) = (120, 8, 2);
    let breaks: [(&str, Change); 5] = [
        ("an epoch gap", |g, _| g.delta.iter_mut().for_each(|d| d.epoch += 1)),
        ("a changed row list", |g, first| {
            // One row out of each of up to three contiguous shards.
            let cut = [0, 40, 80];
            cut.iter().for_each(|&row| g.fleet.set_connected(row, false));
            if let Some(delta) = g.delta.as_mut().filter(|_| first) {
                delta.dirty.extend(cut);
                delta.dirty.sort_unstable();
                delta.dirty.dedup();
            }
        }),
        // Four ulps: one may not survive the split across three shards.
        ("one capacity's bits", |g, _| g.compute_capacity = f64::from_bits(g.compute_capacity.to_bits() + 4)),
        ("λ's bits", |g, _| g.lambda = g.lambda.next_up()),
        ("a curve change", |g, _| g.curve = AnxietyCurve::linear()),
    ];
    let driver = |delta_enabled, at, change| {
        let config = SyntheticConfig { mutation_fraction: 0.0, delta_enabled, ..SyntheticConfig::steady(devices, slots, 7) };
        Capture::new(Break { inner: SyntheticDriver::new(config), at, change }, devices, false)
    };
    for shards in 1..=3usize {
        for (case, change) in breaks {
            let case = format!("{case}, {shards} shards");
            let delta = captured(driver(true, at, change), devices, shards);
            let cold = captured(driver(false, at, change), devices, shards);
            assert_eq!(delta[at - 1].1.work.delta_path.reuse, shards as u64, "{case}: the frozen fleet rode the memo");
            assert_cold_break(&delta, &cold, at, shards, &case);
        }

        let case = format!("a curve change after a resume, {shards} shards");
        let curve = breaks[4].1;
        let (resumed, at) = halt_and_resume(|| driver(true, 4, curve), devices, shards, None);
        assert_eq!(at, 4, "{case}: the resume re-entered at another slot");
        let cold = captured(driver(false, at, curve), devices, shards);
        assert_cold_break(&resumed.slots, &cold[at..], 0, shards, &case);
    }
}

/// Past the fraction gate a shard solves cold on the score its memo
/// kept, walking only its dirty rows' chunks. Wherever no shard rides
/// the incremental path, the delta-carrying run equals the delta-less
/// one slot by slot — selection, tier and every total, bit for bit —
/// and a shard walks every row's chunks on its first solve, then
/// exactly its dirty rows'.
#[test]
fn past_the_gate_a_shard_rescores_only_its_dirty_rows() {
    let (devices, slots) = (160, 5);
    for fraction in [0.5, 0.9] {
        for shards in 1..=3usize {
            for seed in [7u64, 11, 13] {
                let case = format!("{fraction} × {shards} × seed {seed}");
                let mut config = SyntheticConfig::steady(devices, slots, seed);
                config.mutation_fraction = fraction;
                let cold_config = SyntheticConfig { delta_enabled: false, ..config.clone() };
                let delta = captured(synthetic(config, false), devices, shards);
                let cold = captured(synthetic(cold_config, false), devices, shards);
                assert_eq!(total_work(&delta).delta_path.incremental, 0, "{case}");
                assert_eq!(delta.len(), slots, "{case}");
                for ((g, a), (_, b)) in delta.iter().zip(&cold) {
                    assert_eq!(outcome(a), outcome(b), "{case}: slot {}", g.slot);
                    let dirty = &g.delta.as_ref().expect("delta-enabled run").dirty;
                    for report in &a.shards {
                        let rows = &report.devices;
                        let walked: Vec<usize> = if g.slot == 0 {
                            rows.clone()
                        } else {
                            shard_frontier(rows, dirty).into_iter().map(|p| rows[p]).collect()
                        };
                        let chunks: usize = walked.iter().map(|&row| g.fleet.num_chunks(row)).sum();
                        assert_eq!(
                            report.work.chunk_steps.score,
                            chunks as u64,
                            "{case}: slot {} shard {} walked {} of {} rows",
                            g.slot,
                            report.shard,
                            walked.len(),
                            rows.len()
                        );
                    }
                }
            }
        }
    }
}
