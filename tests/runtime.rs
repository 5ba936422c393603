//! Slot-runtime invariants.
//!
//! The headline claim of `lpvs-runtime` is that its two executors —
//! shard states held by the hub, or by supervised shard workers — differ
//! in *who runs the shards* and in nothing else: the same driver calls
//! in the same order (`solved(t)` before `apply(t)`), the same delivered
//! schedules on a source that ships a delta (reuse and incremental
//! solves included), and a pipelined emulation reproduces the inline
//! one-slot-ahead run **bit-for-bit** — every `SlotRecord`, every Joule,
//! every final γ posterior. The second
//! claim is that shard-local Bayes banks are pure choreography: splitting the
//! global bank and merging it back preserves every posterior exactly, for
//! any shard count and any ownership map — and the banks keep their home
//! devices while the rebalance moves decisions across shards.

use lpvs::bayes::{BayesBank, GammaEstimator};
use lpvs::core::baseline::Policy;
use lpvs::core::budget::SlotBudget;
use lpvs::core::fleet::DeviceFleet;
use lpvs::core::problem::DeviceRequest;
use lpvs::core::scheduler::Degradation;
use lpvs::core::work::{DeltaPaths, SlotWork};
use lpvs::edge::fleet::{FleetConfig, FleetSchedule, FleetScheduler, ShardLoad, ShardReport};
use lpvs::edge::server::EdgeServer;
use lpvs::emulator::engine::{Emulator, EmulatorConfig};
use lpvs::emulator::FaultConfig;
use lpvs::runtime::{
    BankOps, CheckpointConfig, CheckpointStore, GatheredSlot, RuntimeConfig, SlotFeedback, SlotRuntime,
    SlotSink, SlotSource, SolvedSlot, StageFaults, SyntheticConfig, SyntheticDriver,
};
use lpvs::survey::curve::AnxietyCurve;
use proptest::prelude::*;

/// Bit-compare everything deterministic about two reports
/// (`scheduler_runtime` is wall clock; `obs` needs a recorder).
fn assert_bit_identical(a: &lpvs::emulator::EmulationReport, b: &lpvs::emulator::EmulationReport) {
    assert_eq!(a.slots, b.slots);
    assert_eq!(a.display_energy_j, b.display_energy_j);
    assert_eq!(a.counterfactual_display_j, b.counterfactual_display_j);
    assert_eq!(a.total_energy_j, b.total_energy_j);
    assert_eq!(a.watch_minutes, b.watch_minutes);
    assert_eq!(a.initial_battery, b.initial_battery);
    assert_eq!(a.final_battery, b.final_battery);
    assert_eq!(a.gave_up, b.gave_up);
    assert_eq!(a.ever_selected, b.ever_selected);
    assert_eq!(a.gamma_posteriors, b.gamma_posteriors);
}

fn base_config(num_edges: usize) -> EmulatorConfig {
    EmulatorConfig {
        devices: 16,
        slots: 8,
        seed: 7,
        one_slot_ahead: true,
        num_edges,
        ..EmulatorConfig::default()
    }
}

#[test]
fn pipelined_run_is_bit_identical_to_sequential_one_slot_ahead() {
    for num_edges in [1usize, 2, 4] {
        let config = base_config(num_edges);
        let sequential = Emulator::new(config, Policy::Lpvs).run();
        let pipelined =
            Emulator::new(EmulatorConfig { pipelined: true, ..config }, Policy::Lpvs).run();
        assert!(sequential.runtime.is_none());
        let summary = pipelined.runtime.clone().expect("pipelined run reports a summary");
        assert!(summary.pipelined);
        assert_eq!(summary.shards, num_edges);
        assert_eq!(summary.recovery.fell_back, None);
        assert_eq!(summary.workers_lost, 0);
        assert_bit_identical(&sequential, &pipelined);
    }
}

#[test]
fn pipelined_run_is_bit_identical_under_telemetry_faults() {
    // Disconnects, corrupt γ, brownouts, and budget cuts all hit the
    // same slots in both modes (the plan is seed-derived); the shard
    // workers must absorb every one identically.
    for num_edges in [2usize, 3] {
        let config = EmulatorConfig {
            faults: FaultConfig::uniform(0.2, 11),
            ..base_config(num_edges)
        };
        let sequential = Emulator::new(config, Policy::Lpvs).run();
        let pipelined =
            Emulator::new(EmulatorConfig { pipelined: true, ..config }, Policy::Lpvs).run();
        assert_bit_identical(&sequential, &pipelined);
    }
}

#[test]
fn oracle_and_fixed_gamma_modes_pipeline_identically() {
    use lpvs::emulator::engine::GammaMode;
    for mode in [GammaMode::Fixed, GammaMode::Oracle] {
        let config = EmulatorConfig { gamma_mode: mode, ..base_config(2) };
        let sequential = Emulator::new(config, Policy::Lpvs).run();
        let pipelined =
            Emulator::new(EmulatorConfig { pipelined: true, ..config }, Policy::Lpvs).run();
        assert_bit_identical(&sequential, &pipelined);
    }
}

#[test]
fn stage_faults_are_absorbed_by_supervised_recovery() {
    // Worker deaths no longer abandon the pipeline: the supervisor
    // respawns each dead shard from its restored bank and re-dispatches
    // the slot, so the run stays pipelined end to end and remains
    // bit-identical to the sequential engine.
    let config = EmulatorConfig {
        devices: 16,
        slots: 12,
        seed: 7,
        one_slot_ahead: true,
        faults: FaultConfig { stage_fault_rate: 0.25, ..FaultConfig::none() },
        num_edges: 2,
        ..EmulatorConfig::default()
    };
    let sequential = Emulator::new(config, Policy::Lpvs).run();
    let pipelined =
        Emulator::new(EmulatorConfig { pipelined: true, ..config }, Policy::Lpvs).run();
    let summary = pipelined.runtime.clone().expect("pipelined run reports a summary");
    assert!(summary.workers_lost > 0, "a 25% stage-fault rate over 12×2 must kill a worker");
    assert_eq!(summary.recovery.fell_back, None, "recovery must absorb every death");
    assert_eq!(summary.recovery.total_deaths() as usize, summary.workers_lost);
    assert!(summary.recovery.shards.iter().any(|s| s.retries > 0));
    assert_eq!(pipelined.slots.len(), 12);
    assert_bit_identical(&sequential, &pipelined);
}

#[test]
fn unrecoverable_stage_faults_bottom_out_in_the_sequential_fallback() {
    // With `stage_fault_repeat` at its maximum, every respawned attempt
    // of a faulted (slot, shard) dies again, so the retry budget runs
    // out and the hub degrades to the inline sequential engine — the
    // bottom rung of the ladder — and still completes the horizon.
    let config = EmulatorConfig {
        devices: 16,
        slots: 12,
        seed: 7,
        faults: FaultConfig {
            stage_fault_rate: 0.25,
            stage_fault_repeat: u32::MAX,
            ..FaultConfig::none()
        },
        pipelined: true,
        num_edges: 2,
        ..EmulatorConfig::default()
    };
    let a = Emulator::new(config, Policy::Lpvs).run();
    let summary = a.runtime.clone().expect("pipelined run reports a summary");
    assert!(summary.workers_lost > 0, "a 25% stage-fault rate over 12×2 must kill a worker");
    let fell_back =
        summary.recovery.fell_back.expect("an unrecoverable shard must trigger the fallback");
    // The run completes the full horizon regardless.
    assert_eq!(a.slots.len(), 12);
    assert!(a.slots.iter().all(|s| s.watching == 0 || s.degradation.is_some()));
    // Worker death is hash-derived, not sampled: the replay is
    // bit-identical, fallback slot included.
    let b = Emulator::new(config, Policy::Lpvs).run();
    assert_eq!(b.runtime.clone().expect("summary").recovery.fell_back, Some(fell_back));
    assert_bit_identical(&a, &b);
}

/// A bank with some learning history: posterior (mean, std) must come
/// through any split/merge choreography untouched.
fn learned_estimators(n: usize, observations: &[(usize, f64)]) -> Vec<GammaEstimator> {
    let mut estimators = vec![GammaEstimator::paper_default(); n];
    for &(d, ratio) in observations {
        let est = &mut estimators[d % n];
        if est.try_observe(ratio).is_err() {
            est.forget(1);
        }
    }
    estimators
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite invariant: splitting the global bank into shard-local
    /// banks (1–4 shards) and merging back preserves every posterior's
    /// (mean, std) exactly — under the home split, and under ownership
    /// maps where mid-range devices live away from home (as in a store
    /// a resume restores), so no shard owns a contiguous run of devices.
    #[test]
    fn bank_split_merge_preserves_posteriors(
        n in 1usize..40,
        shards in 1usize..=4,
        gapped in any::<bool>(),
        observations in prop::collection::vec((0usize..40, 0.0f64..0.9), 0..60),
        moves in prop::collection::vec((0usize..40, 0usize..4), 0..20),
    ) {
        let runtime = SlotRuntime::new(RuntimeConfig {
            fleet: FleetConfig { num_shards: shards, ..FleetConfig::default() },
            ..RuntimeConfig::default()
        });
        let dense = learned_estimators(n, &observations);
        let reference: Vec<(f64, f64)> =
            dense.iter().map(|e| (e.expected(), e.uncertainty())).collect();

        let mut owner = runtime.home_shards(n);
        prop_assert_eq!(owner.len(), n);
        for &s in &owner {
            prop_assert!(s < shards);
        }

        // Scatter ownership away from the home split.
        let gaps: Vec<(usize, usize)> = if gapped {
            [n / 4, n / 4 + 1, 2 * n / 3].iter().map(|&d| (d, owner[d % n] + 1)).collect()
        } else {
            Vec::new()
        };
        for &(d, to) in gaps.iter().chain(&moves) {
            owner[d % n] = to % shards;
        }
        let banks = BayesBank::from_estimators(dense).split(shards, |d| owner[d]);
        for (s, bank) in banks.iter().enumerate() {
            prop_assert!(bank.devices().all(|d| owner[d] == s));
        }

        let merged = BayesBank::merge(banks);
        prop_assert_eq!(merged.len(), n);
        for (d, &(mean, std)) in reference.iter().enumerate() {
            let (m, s) = merged.posterior(d);
            let _ = d;
            prop_assert_eq!(m, mean);
            prop_assert_eq!(s, std);
        }
    }
}

/// A driver whose shards are uneven on purpose: the first `demanding`
/// devices (shard 0 under the locality partitioner) run on low
/// batteries with the γ their estimators report, the rest sit on full
/// batteries with γ = 0 — nothing worth transforming at home, so their
/// shards' capacity is free for the rebalance to fill, every slot.
/// Selected devices report an observation, so estimator traffic reaches
/// the banks of devices the rebalance moved throughout the run. Every
/// call the executor makes is logged.
struct SkewedDriver {
    devices: usize,
    demanding: usize,
    slots: usize,
    /// Slots between a decision's gather and its application.
    lag: usize,
    staged: Option<Vec<bool>>,
    gathered: Vec<GatheredSlot>,
    solved: Vec<SolvedSlot>,
    calls: Vec<(&'static str, usize)>,
}

impl SkewedDriver {
    /// One slot ahead: slot t plays the newest decision solved for a
    /// slot before t.
    fn new(devices: usize, demanding: usize, slots: usize) -> Self {
        Self::with_lag(devices, demanding, slots, 1)
    }

    fn with_lag(devices: usize, demanding: usize, slots: usize, lag: usize) -> Self {
        Self {
            devices,
            demanding,
            slots,
            lag,
            staged: None,
            gathered: Vec::new(),
            solved: Vec::new(),
            calls: Vec::new(),
        }
    }
}

impl SlotSource for SkewedDriver {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        self.calls.push(("begin_slot", slot));
        (slot < self.slots)
            .then(|| BankOps { forgets: Vec::new(), queries: (0..self.devices).collect() })
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        _recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        const CAPACITY_J: f64 = 55_440.0;
        self.calls.push(("gather", slot));
        let mut fleet = DeviceFleet::new();
        for (d, &(mean, _)) in posteriors.iter().enumerate() {
            let (battery, gamma) = if d < self.demanding {
                (0.06 + 0.012 * ((7 * d + 3 * slot) % 20) as f64, mean)
            } else {
                (0.9, 0.0)
            };
            fleet.push_request(DeviceRequest::uniform(
                1.5, 10.0, 30, battery * CAPACITY_J, CAPACITY_J, gamma, 1.5, 0.1125,
            ));
        }
        let gathered = GatheredSlot {
            slot,
            fleet,
            device_ids: (0..self.devices).collect(),
            compute_capacity: 24.0,
            storage_capacity_gb: 2.7,
            lambda: 2.0,
            curve: AnxietyCurve::paper_shape(),
            budget: SlotBudget::unbounded(),
            warm: self.staged.clone(),
            delta: None,
            refilled: Default::default(),
        };
        self.gathered.push(gathered.clone());
        Some(gathered)
    }
}

impl SlotSink for SkewedDriver {
    fn solved(&mut self, solved: &SolvedSlot) {
        self.calls.push(("solved", solved.slot));
        self.staged = Some(solved.schedule.selected.clone());
        self.solved.push(solved.clone());
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        self.calls.push(("apply", slot));
        let observations = self
            .solved
            .iter()
            .rev()
            .find(|solved| solved.slot + self.lag <= slot)
            .iter()
            .flat_map(|solved| &solved.schedule.selected)
            .enumerate()
            .filter(|&(_, &x)| x)
            .map(|(d, _)| (d, 0.2 + 0.02 * (d % 10) as f64))
            .collect();
        SlotFeedback { observations }
    }
}

/// A fleet schedule with its wall-clock readings blanked: they say how
/// long the decision took, not what it was or what work made it.
fn timeless(mut schedule: FleetSchedule) -> FleetSchedule {
    schedule.runtime = std::time::Duration::ZERO;
    schedule.laps = Default::default();
    for report in &mut schedule.shards {
        report.stats.runtime = std::time::Duration::ZERO;
        report.laps = Default::default();
    }
    schedule
}

/// Any driver, with every call the executor makes on it logged and
/// every delivered slot kept.
struct Recorded<D> {
    inner: D,
    calls: Vec<(&'static str, usize)>,
    solved: Vec<SolvedSlot>,
}

impl<D> Recorded<D> {
    fn new(inner: D) -> Self {
        Self { inner, calls: Vec::new(), solved: Vec::new() }
    }

    fn decisions(&self) -> Vec<FleetSchedule> {
        self.solved.iter().map(|s| timeless(s.schedule.clone())).collect()
    }
}

impl<D: SlotSource> SlotSource for Recorded<D> {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        self.calls.push(("begin_slot", slot));
        self.inner.begin_slot(slot)
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        self.calls.push(("gather", slot));
        self.inner.gather(slot, posteriors, recycled)
    }
}

impl<D: SlotSink> SlotSink for Recorded<D> {
    fn solved(&mut self, solved: &SolvedSlot) {
        self.calls.push(("solved", solved.slot));
        self.solved.push(solved.clone());
        self.inner.solved(solved);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        self.calls.push(("apply", slot));
        self.inner.apply(slot)
    }
}


/// One delivery order: whoever runs the shards, the executor makes the
/// same driver calls in the same sequence, with `solved(t)` between
/// `gather(t)` and `apply(t)` — so a sink may apply a decision in the
/// slot it was gathered for (lag 0) under either executor, and both
/// produce the same decisions, made by the same work, and the same
/// final estimators. On a source that ships a delta every shard takes
/// the same reuse / incremental / cold path under either executor.
#[test]
fn both_executors_call_the_driver_in_one_order() {
    for num_shards in [1usize, 2, 3] {
        let (demanding, slots) = (12, 5);
        let devices = demanding * num_shards;
        let expected: Vec<(&str, usize)> = (0..slots)
            .flat_map(|t| [("begin_slot", t), ("gather", t), ("solved", t), ("apply", t)])
            .chain([("begin_slot", slots)])
            .collect();
        let runtime = SlotRuntime::new(RuntimeConfig {
            fleet: FleetConfig { num_shards, ..FleetConfig::default() },
            ..RuntimeConfig::default()
        });
        for lag in [0usize, 1] {
            let case = format!("{num_shards} shards, lag {lag}");
            let estimators = vec![GammaEstimator::paper_default(); devices];
            let mut inline = SkewedDriver::with_lag(devices, demanding, slots, lag);
            let inline_report = runtime.run_sequential(&mut inline, estimators.clone());
            let mut workers = SkewedDriver::with_lag(devices, demanding, slots, lag);
            let workers_report = runtime.run(&mut workers, estimators);

            assert_eq!(inline.calls, expected, "{case}: inline executor");
            assert_eq!(workers.calls, expected, "{case}: worker executor");
            assert_eq!(workers.gathered, inline.gathered, "{case}");
            let decisions = |d: &SkewedDriver| -> Vec<FleetSchedule> {
                d.solved.iter().map(|s| timeless(s.schedule.clone())).collect()
            };
            assert_eq!(decisions(&workers), decisions(&inline), "{case}");
            assert_eq!(workers_report.estimators, inline_report.estimators, "{case}");
            assert_eq!(workers_report.summary.workers_lost, 0, "{case}");
        }
    }

    let slots = 8;
    let expected: Vec<(&str, usize)> = (0..slots)
        .flat_map(|t| [("begin_slot", t), ("gather", t), ("solved", t), ("apply", t)])
        .chain([("begin_slot", slots)])
        .collect();
    for churn in [0.01, 0.2, 0.5] {
        for num_shards in [1usize, 2, 3] {
            for seed in [7, 11] {
                let case = format!("{churn} churn, {num_shards} shards, seed {seed}");
                let config = SyntheticConfig { mutation_fraction: churn, ..SyntheticConfig::steady(300, slots, seed) };
                let runtime = SlotRuntime::new(RuntimeConfig {
                    fleet: FleetConfig { num_shards, ..FleetConfig::default() },
                    ..RuntimeConfig::default()
                });
                let mut inline = Recorded::new(SyntheticDriver::new(config.clone()));
                let estimators = inline.inner.estimators();
                let inline_report = runtime.run_sequential(&mut inline, estimators.clone());
                let mut workers = Recorded::new(SyntheticDriver::new(config));
                let workers_report = runtime.run(&mut workers, estimators);

                assert_eq!(inline.calls, expected, "{case}: inline executor");
                assert_eq!(workers.calls, expected, "{case}: worker executor");
                assert_eq!(workers.decisions(), inline.decisions(), "{case}");
                assert_eq!(workers_report.estimators, inline_report.estimators, "{case}");
                // Not vacuous: below the incremental gate the shards ride
                // the delta path after the cold first slot.
                let paths = inline.solved.iter().fold(SlotWork::default(), |mut sum, s| {
                    sum += s.schedule.work;
                    sum
                });
                let paths = paths.delta_path;
                assert_eq!(paths.reuse + paths.incremental + paths.cold, (num_shards * slots) as u64, "{case}");
                assert_eq!(paths.reuse + paths.incremental > 0, churn < 0.25, "{case}: {paths:?}");
            }
        }
    }
}

/// A driver that reads back, after every applied slot, the checkpoint
/// round the store sealed for it: each shard bank's devices.
struct Sealed {
    inner: SkewedDriver,
    store: CheckpointStore,
    /// `(manifest slot, devices of each shard's bank)` per applied slot.
    rounds: Vec<(usize, Vec<Vec<usize>>)>,
}

impl SlotSource for Sealed {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        self.inner.begin_slot(slot)
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        self.inner.gather(slot, posteriors, recycled)
    }
}

impl SlotSink for Sealed {
    fn solved(&mut self, solved: &SolvedSlot) {
        self.inner.solved(solved);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        let manifest = self.store.read_manifest().expect("manifest reads").expect("a round sealed");
        let banks = manifest
            .generations
            .iter()
            .enumerate()
            .map(|(s, &gen)| {
                let snapshot = self.store.load_generation(s, gen).expect("snapshot loads");
                snapshot.bank.devices().collect()
            })
            .collect();
        self.rounds.push((manifest.slot, banks));
        self.inner.apply(slot)
    }
}

/// The one fleet in the root suite whose rebalance moves somebody: the
/// pipelined workers, the sequential loop and the fleet scheduler's
/// one-shot call must agree on the whole `FleetSchedule` of every slot —
/// `migrated_in` and the counted work included: the driver ships no
/// delta, so every runner solves every shard cold through the one shard
/// body — while every round the pipeline seals shows
/// each shard bank holding exactly its home devices: the rebalance
/// moves decisions, never estimators.
#[test]
fn executors_agree_when_the_rebalance_migrates() {
    for num_shards in [2usize, 3] {
        let (demanding, slots) = (20, 6);
        let devices = demanding * num_shards;
        let fleet = FleetConfig { num_shards, ..FleetConfig::default() };
        let dir = std::env::temp_dir()
            .join(format!("lpvs-runtime-it-{}-skewed-{num_shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let checkpoints = CheckpointConfig { interval: 1, ..CheckpointConfig::new(&dir) };
        let estimators = vec![GammaEstimator::paper_default(); devices];

        let mut sequential = SkewedDriver::new(devices, demanding, slots);
        let seq_report = SlotRuntime::new(RuntimeConfig { fleet, ..RuntimeConfig::default() })
            .run_sequential(&mut sequential, estimators.clone());
        let mut sealed = Sealed {
            inner: SkewedDriver::new(devices, demanding, slots),
            store: CheckpointStore::create(&checkpoints, num_shards).expect("store opens"),
            rounds: Vec::new(),
        };
        let runtime = SlotRuntime::new(RuntimeConfig {
            fleet,
            checkpoints: Some(checkpoints),
            ..RuntimeConfig::default()
        });
        let pipe_report = runtime.run(&mut sealed, estimators);
        let pipelined = &sealed.inner;

        assert_eq!(pipe_report.summary.workers_lost, 0);
        assert_eq!(sequential.solved.len(), slots);
        assert_eq!(pipelined.gathered, sequential.gathered, "{num_shards} shards: same inputs");
        let scoped = FleetScheduler::new(fleet);
        for ((seq, pipe), g) in sequential.solved.iter().zip(&pipelined.solved).zip(&sequential.gathered)
        {
            let case = format!("{num_shards} shards, slot {}", seq.slot);
            assert!(seq.schedule.migrations > 0, "{case}: the skew must make the rebalance move");
            assert_eq!(pipe.slot, seq.slot, "{case}");
            assert_eq!(pipe.tier, seq.tier, "{case}");
            assert_eq!(timeless(pipe.schedule.clone()), timeless(seq.schedule.clone()), "{case}");
            for p in &pipe.schedule.shards {
                assert!(p.load.is_some(), "{case}, shard {}: a worker reports its load", p.shard);
            }
            assert!(load_gate_open(&pipe.schedule), "{case}: migrations pass an open gate");
            let direct = scoped.schedule_with_servers(
                &g.fleet,
                &FleetScheduler::split_server(
                    &EdgeServer::new(g.compute_capacity, g.storage_capacity_gb),
                    num_shards,
                ),
                g.lambda,
                &g.curve,
                g.warm.as_deref(),
                &g.budget,
            );
            assert_eq!(timeless(direct), timeless(seq.schedule.clone()), "{case}");
        }
        assert_eq!(pipe_report.estimators, seq_report.estimators, "{num_shards} shards");

        // Checkpointing every slot seals a round inside every join, so
        // each apply read back its own slot's round.
        let owner = runtime.home_shards(devices);
        let home: Vec<Vec<usize>> =
            (0..num_shards).map(|s| (0..devices).filter(|&d| owner[d] == s).collect()).collect();
        let slots_sealed: Vec<usize> = sealed.rounds.iter().map(|(slot, _)| *slot).collect();
        assert_eq!(slots_sealed, (0..slots).collect::<Vec<_>>(), "{num_shards} shards");
        for (slot, banks) in &sealed.rounds {
            assert_eq!(banks, &home, "{num_shards} shards: the banks sealed at slot {slot}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Whether the rebalance's load gate is open on `schedule`: some
/// foreign shard's server fits a home shard's cheapest pair.
fn load_gate_open(schedule: &FleetSchedule) -> bool {
    let loads: Vec<ShardLoad> = schedule.shards.iter().map(|r| r.load.expect("a rebalanced join")).collect();
    loads.iter().enumerate().any(|(s, load)| {
        (loads.iter().enumerate())
            .any(|(t, other)| t != s && other.server.fits(load.least_compute, load.least_storage_gb))
    })
}

/// Each shard's load recomputed from a delivered slot: its server split
/// from the gathered capacity, with the selection its own solve made
/// (the delivered one less the rows the rebalance moved away).
fn replayed_loads(g: &GatheredSlot, schedule: &FleetSchedule) -> Vec<Option<ShardLoad>> {
    let server = EdgeServer::new(g.compute_capacity, g.storage_capacity_gb);
    let servers = FleetScheduler::split_server(&server, schedule.shards.len());
    let moved: Vec<usize> = schedule.shards.iter().flat_map(|r| r.migrated_in.iter().copied()).collect();
    (schedule.shards.iter().zip(&servers))
        .map(|(report, server)| {
            let own: Vec<bool> =
                report.devices.iter().map(|i| schedule.selected[*i] && !moved.contains(i)).collect();
            Some(ShardLoad::of(&g.fleet, server, &report.devices, &own))
        })
        .collect()
}

/// The worker executor delivers the loads the scoped shard bodies do.
/// On a saturated fleet (every device wants a transform) every knapsack
/// is full, nothing migrates and the load gate is closed. Under stage
/// faults a respawned worker's re-dispatched solve delivers the load,
/// and the slots stay the scoped executor's; when a shard is buried,
/// its passthrough load is the join's own, and every delivered load
/// is still its schedule's replay.
#[test]
fn executors_deliver_the_same_loads_when_the_gate_closes_and_under_faults() {
    let (num_shards, demanding, slots) = (2usize, 20, 6);
    let devices = demanding * num_shards;
    let fleet = FleetConfig { num_shards, ..FleetConfig::default() };
    let estimators = vec![GammaEstimator::paper_default(); devices];
    let faults = |repeat| StageFaults { rate: 0.3, seed: 5, repeat };
    for (case, saturated, stage_faults) in [
        ("saturated", true, None),
        ("respawned", false, Some(faults(0))),
        ("buried", false, Some(faults(u32::MAX))),
    ] {
        let wanting = if saturated { devices } else { demanding };
        let mut sequential = SkewedDriver::new(devices, wanting, slots);
        SlotRuntime::new(RuntimeConfig { fleet, ..RuntimeConfig::default() })
            .run_sequential(&mut sequential, estimators.clone());
        let mut workers = SkewedDriver::new(devices, wanting, slots);
        let report = SlotRuntime::new(RuntimeConfig { fleet, stage_faults, ..RuntimeConfig::default() })
            .run(&mut workers, estimators.clone());
        assert_eq!(workers.solved.len(), slots, "{case}");

        let recovery = &report.summary.recovery;
        let buried = recovery.fell_back.is_some();
        assert_eq!(buried, case == "buried", "{case}: {recovery:?}");
        if stage_faults.is_some() {
            assert!(recovery.shards.iter().any(|s| s.retries > 0), "{case}: no worker was respawned");
        }
        let mut passthrough = 0;
        for ((pipe, seq), g) in workers.solved.iter().zip(&sequential.solved).zip(&workers.gathered) {
            let slot = format!("{case}, slot {}", pipe.slot);
            let loads: Vec<Option<ShardLoad>> = pipe.schedule.shards.iter().map(|r| r.load).collect();
            assert_eq!(loads, replayed_loads(g, &pipe.schedule), "{slot}");
            assert_eq!(load_gate_open(&pipe.schedule), !saturated, "{slot}");
            if saturated {
                assert_eq!(pipe.schedule.migrations, 0, "{slot}");
            }
            if buried {
                let dead = |r: &&ShardReport| r.stats.degradation == Degradation::Passthrough;
                passthrough += pipe.schedule.shards.iter().filter(dead).count();
            } else {
                let seq_loads: Vec<Option<ShardLoad>> = seq.schedule.shards.iter().map(|r| r.load).collect();
                assert_eq!(loads, seq_loads, "{slot}");
            }
        }
        assert_eq!(passthrough > 0, buried, "{case}: a buried shard degrades its slot to passthrough");
    }
}

/// The runtime's home-shard map and the fleet scheduler's partition are
/// one rule: on an all-connected fleet, device `i` is homed on shard `s`
/// exactly when the partition puts `i` in shard `s`.
#[test]
fn home_shards_agree_with_the_partition() {
    for n in [0usize, 1, 7, 100, 1001] {
        let mut fleet = DeviceFleet::new();
        for _ in 0..n {
            fleet.push_request(DeviceRequest::uniform(
                1.5, 10.0, 3, 20_000.0, 55_440.0, 0.3, 1.5, 0.1125,
            ));
        }
        for k in [1usize, 2, 3, 8] {
            let config = FleetConfig { num_shards: k, ..FleetConfig::default() };
            let parts = FleetScheduler::new(config).partition(&fleet);
            let owner = SlotRuntime::new(RuntimeConfig { fleet: config, ..RuntimeConfig::default() })
                .home_shards(n);
            assert_eq!(parts.len(), k);
            assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), n);
            for (s, part) in parts.iter().enumerate() {
                for &i in part {
                    assert_eq!(owner[i], s, "n={n} k={k}: device {i}");
                }
            }
        }
    }
}

/// A sink that checks every delivered slot's clock: the hub's laps add
/// up to `FleetSchedule::runtime` and each shard's solver laps (all but
/// its own `Shard` laps) to its `ScheduleStats::runtime` — equalities of
/// durations, since one clock telescopes — and counts what it checked.
struct Telescoping<D> {
    inner: D,
    slots: usize,
    runs: usize,
}

impl<D: SlotSource> SlotSource for Telescoping<D> {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        self.inner.begin_slot(slot)
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        self.inner.gather(slot, posteriors, recycled)
    }
}

impl<D: SlotSink> SlotSink for Telescoping<D> {
    fn solved(&mut self, solved: &SolvedSlot) {
        let schedule = &solved.schedule;
        assert_eq!(schedule.laps.time(|_| true), schedule.runtime, "slot {}", solved.slot);
        assert_eq!(schedule.laps.total(), schedule.runtime, "slot {}", solved.slot);
        for report in &schedule.shards {
            let solver = report.laps.time(|stage| stage != "shard");
            assert_eq!(solver, report.stats.runtime, "slot {}, shard {}", solved.slot, report.shard);
            self.runs += report.laps.runs.len();
        }
        self.slots += 1;
        self.inner.solved(solved);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        self.inner.apply(slot)
    }
}

/// Stages telescope: on every slot the worker executor, the inline
/// executor and the sequential fallback deliver — cold, incremental and
/// reused shards, respawned and dead workers among them — the laps add
/// up to the runtimes, exactly. The slot loop asserts the same on every
/// slot it delivers in debug builds, which is what checks the emulated
/// day's.
#[test]
fn every_delivered_slot_s_stages_add_up_to_its_runtime() {
    let config = SyntheticConfig { mutation_fraction: 0.05, ..SyntheticConfig::steady(400, 10, 11) };
    let fleet = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let faults = |repeat| Some(StageFaults { rate: 0.15, seed: 5, repeat });
    for (case, runtime, workers) in [
        ("worker executor", RuntimeConfig { fleet, stage_faults: faults(0), ..RuntimeConfig::default() }, true),
        ("inline executor", RuntimeConfig { fleet, ..RuntimeConfig::default() }, false),
        ("sequential fallback", RuntimeConfig { fleet, stage_faults: faults(u32::MAX), ..RuntimeConfig::default() }, true),
    ] {
        let mut driver = Telescoping { inner: SyntheticDriver::new(config.clone()), slots: 0, runs: 0 };
        let estimators = driver.inner.estimators();
        let runtime = SlotRuntime::new(runtime);
        let report = if workers {
            runtime.run(&mut driver, estimators)
        } else {
            runtime.run_sequential(&mut driver, estimators)
        };
        assert_eq!(driver.slots, report.summary.solved_slots, "{case}");
        assert!(driver.slots == 10 && driver.runs > 0, "{case}: {} slots, {} runs", driver.slots, driver.runs);
        assert_eq!(report.summary.recovery.fell_back.is_some(), case == "sequential fallback", "{case}");
    }

    let day = EmulatorConfig { devices: 40, slots: 96, seed: 3, pipelined: true, num_edges: 2, ..EmulatorConfig::default() };
    let report = Emulator::new(day, Policy::Lpvs).run();
    assert_eq!(report.runtime.map(|summary| summary.solved_slots), Some(96));
}

/// The bottom of the ladder keeps the delta path: once a worker has
/// exhausted its retries the hub takes every shard state home, solves
/// each shard cold once — the memos were dropped — and from the next
/// slot on rides reuse / incremental as any run does.
#[test]
fn the_fallback_holds_the_shards_and_keeps_the_delta_path() {
    let slots = 12;
    let config = SyntheticConfig::steady(400, slots, 7);
    let fleet = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let stage_faults = Some(StageFaults { rate: 0.15, seed: 5, repeat: u32::MAX });
    let mut driver = Recorded::new(SyntheticDriver::new(config));
    let estimators = driver.inner.estimators();
    let report = SlotRuntime::new(RuntimeConfig { fleet, stage_faults, ..RuntimeConfig::default() })
        .run(&mut driver, estimators);
    let fell_back = report.summary.recovery.fell_back.expect("an unrecoverable shard falls back");
    assert!(fell_back + 3 <= slots, "the fallback at slot {fell_back} leaves too few slots to ride");
    assert_eq!(driver.solved.len(), slots);
    let paths = |t: usize| driver.solved[t].schedule.work.delta_path;
    assert_eq!(paths(fell_back), DeltaPaths { cold: 2, ..DeltaPaths::default() }, "slot {fell_back}");
    for t in fell_back + 1..slots {
        let p = paths(t);
        assert_eq!((p.cold, p.reuse + p.incremental), (0, 2), "slot {t}: {p:?}");
    }
    assert!((fell_back + 1..slots).any(|t| paths(t).incremental > 0));
}
