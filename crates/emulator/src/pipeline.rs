//! The pipelined slot loop: the [`Emulator`] driven through the staged
//! [`lpvs_runtime`] pipeline instead of its own sequential loop.
//!
//! [`EmulatorDriver`] implements [`SlotSource`]/[`SlotSink`] by
//! replaying the sequential engine's slot semantics stage by stage:
//!
//! * `begin_slot(t)` — fault preamble (reconnects, disconnects, one
//!   staleness forget per disconnected device) and content-window
//!   synthesis, all of which overlaps the in-flight solve of `t − 1`;
//! * `gather(t)` — γ assembly (posteriors answered by the shard-local
//!   banks), telemetry corruption, brownout derating, and the
//!   sanitize-and-columnarize step shared with the sequential sharded
//!   path ([`sanitized_fleet`]), refilling the recycled fleet buffer;
//! * `solved(s)` — stages the joined decision by device id and records
//!   the slot's degradation tier (patching the already-pushed record
//!   when the solve lands one slot late, as pipelined solves do);
//! * `apply(t)` — consumes staged decisions with slot `< t` (the
//!   one-slot-ahead rule, identical in pipelined and fallback modes),
//!   plays every watching device, and accounts the slot.
//!
//! Because pipelining *is* one-slot-ahead scheduling, a pipelined run
//! is bit-identical to a sequential `one_slot_ahead` run — same
//! [`SlotRecord`]s, same final γ posteriors (`tests/runtime.rs`).

use crate::engine::{slot_budget, slots_delta, Emulator, GammaMode};
use crate::faults::{FaultPlan, GammaCorruption, SlotFaults};
use crate::gather::{gather_problem, sanitized_fleet};
use crate::metrics::{EmulationReport, SlotRecord};
use lpvs_bayes::GAMMA_PRIOR_MEAN;
use lpvs_core::baseline::Policy;
use lpvs_core::scheduler::{Degradation, LpvsScheduler};
use lpvs_display::stats::FrameStats;
use lpvs_edge::device::Device;
use lpvs_edge::fleet::{FleetConfig, Partitioner};
use lpvs_runtime::checkpoint::CheckpointConfig;
use lpvs_runtime::pipeline::{RuntimeConfig, RuntimeReport, SlotRuntime, StageFaults};
use lpvs_runtime::{
    BankOps, GatheredSlot, SlotFeedback, SlotReplay, SlotSink, SlotSource, SolvedSlot,
};

/// Domain-separation salt for the checkpoint-corruption RNG, so it
/// never correlates with the stage-fault decisions even under the same
/// user-facing seed.
const CORRUPTION_SEED_SALT: u64 = 0xC0DE_C0DE_5EED_D15C;

/// Runs an emulator through the staged pipeline. The γ estimators move
/// out of the emulator into shard-local banks for the duration of the
/// run; the merged bank comes back in the report's `gamma_posteriors`.
pub(crate) fn run_pipelined(mut emu: Emulator) -> EmulationReport {
    let scheduler = match emu.policy {
        Policy::Lpvs => LpvsScheduler::paper_default(),
        Policy::LpvsPhase1Only => LpvsScheduler::phase1_only(),
        other => unreachable!("pipelined run routed a baseline policy {other:?}"),
    };
    let estimators = std::mem::take(&mut emu.estimators);
    let stage_faults = (emu.config.faults.stage_fault_rate > 0.0).then_some(StageFaults {
        rate: emu.config.faults.stage_fault_rate,
        seed: emu.config.faults.seed,
        repeat: emu.config.faults.stage_fault_repeat,
    });
    let spec = emu.checkpoints.take();
    let checkpoints = spec.as_ref().map(|s| CheckpointConfig {
        dir: s.dir.clone(),
        interval: s.interval,
        generations: s.generations,
        corruption: (emu.config.faults.checkpoint_corrupt_rate > 0.0).then_some((
            emu.config.faults.checkpoint_corrupt_rate,
            emu.config.faults.seed ^ CORRUPTION_SEED_SALT,
        )),
    });
    let halt_after_slot = spec.as_ref().and_then(|s| s.halt_after);
    let resume = spec.as_ref().is_some_and(|s| s.resume);
    let runtime = SlotRuntime::new(RuntimeConfig {
        // Mirror the sequential sharded path's fleet setup exactly, so
        // the two modes solve identical shard problems.
        fleet: FleetConfig {
            num_shards: emu.config.num_edges,
            partitioner: Partitioner::Locality,
            scheduler: *scheduler.config(),
            ..FleetConfig::default()
        },
        stage_faults,
        checkpoints,
        halt_after_slot,
        ..RuntimeConfig::default()
    });
    let mut driver = EmulatorDriver::new(emu);
    let report = if resume {
        // Banks come back from the manifest's snapshot generations; the
        // fresh estimators (same prior state the original run split)
        // are superseded and dropped.
        runtime.resume(&mut driver).expect("resume requires a valid run manifest")
    } else {
        runtime.run(&mut driver, estimators)
    };
    driver.finish(report)
}

/// Per-slot state carried from `begin_slot` to `gather` and `apply`.
struct Scratch {
    slot: usize,
    faults: SlotFaults,
    /// Device indices watching this slot.
    watching: Vec<usize>,
    /// Full playback windows, one per watching device.
    windows: Vec<Vec<FrameStats>>,
}

/// The [`Emulator`] adapted to the runtime's source/sink traits.
pub(crate) struct EmulatorDriver {
    emu: Emulator,
    plan: FaultPlan,
    n: usize,
    horizon: usize,
    scratch: Option<Scratch>,
    /// Fleet-order device ids of dispatched, not-yet-solved slots.
    dispatched: Vec<(usize, Vec<usize>)>,
    /// Solved decisions (by device) awaiting their application slot.
    staged: Vec<(usize, Vec<bool>)>,
    /// The decision currently in force — the sequential engine's
    /// `pending` vector.
    pending: Vec<bool>,
    /// Applied decisions of the previous slot (churn + warm starts).
    previous_by_device: Option<Vec<bool>>,
    /// Degradation tier per slot, set when its solve is joined.
    tiers: Vec<Option<Degradation>>,
    slots: Vec<SlotRecord>,
    initial_battery: Vec<f64>,
    ever_selected: Vec<bool>,
    total_display: f64,
    total_counterfactual: f64,
    total_energy: f64,
}

impl EmulatorDriver {
    fn new(emu: Emulator) -> Self {
        let n = emu.config.devices;
        let horizon = emu.config.slots;
        let plan = FaultPlan::generate(&emu.config.faults, horizon, n);
        let initial_battery =
            emu.cluster.devices().iter().map(|d| d.battery().fraction()).collect();
        Self {
            emu,
            plan,
            n,
            horizon,
            scratch: None,
            dispatched: Vec::new(),
            staged: Vec::new(),
            pending: vec![false; n],
            previous_by_device: None,
            tiers: vec![None; horizon],
            slots: Vec::with_capacity(horizon),
            initial_battery,
            ever_selected: vec![false; n],
            total_display: 0.0,
            total_counterfactual: 0.0,
            total_energy: 0.0,
        }
    }

    /// Assembles the final report once the runtime has drained.
    fn finish(self, report: RuntimeReport) -> EmulationReport {
        let devices = self.emu.cluster.devices();
        EmulationReport {
            display_energy_j: self.total_display,
            counterfactual_display_j: self.total_counterfactual,
            total_energy_j: self.total_energy,
            watch_minutes: devices.iter().map(|d| d.watched_secs() / 60.0).collect(),
            initial_battery: self.initial_battery,
            final_battery: devices.iter().map(|d| d.battery().fraction()).collect(),
            gave_up: devices.iter().map(|d| d.has_given_up()).collect(),
            ever_selected: self.ever_selected,
            gamma_posteriors: report
                .estimators
                .iter()
                .map(|e| (e.expected(), e.uncertainty()))
                .collect(),
            scheduler_runtime: report.solve_runtime,
            runtime: Some(report.summary),
            obs: lpvs_obs::enabled()
                .then(|| lpvs_obs::installed().map(|r| r.snapshot()))
                .flatten(),
            slots: self.slots,
        }
    }
}

impl SlotSource for EmulatorDriver {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        if slot >= self.horizon {
            return None;
        }
        let faults = self.plan.slot(slot);
        for &d in &faults.reconnects {
            self.emu.cluster.devices_mut()[d].reconnect();
        }
        for &d in &faults.disconnects {
            self.emu.cluster.devices_mut()[d].disconnect();
        }
        // A slot off the link is a slot the estimator learned nothing:
        // inflate its uncertainty so the next observation counts more.
        let forgets: Vec<(usize, u32)> = self
            .emu
            .cluster
            .devices()
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_connected())
            .map(|(i, _)| (i, 1))
            .collect();
        let watching: Vec<usize> =
            (0..self.n).filter(|&i| self.emu.cluster.devices()[i].is_watching()).collect();
        // Window synthesis is the bulk of gathering; running it here
        // overlaps it with the in-flight solve of the previous slot.
        let windows: Vec<Vec<FrameStats>> =
            watching.iter().map(|&i| self.emu.content_window(i, slot)).collect();
        let queries = match self.emu.config.gamma_mode {
            GammaMode::Learned => watching.clone(),
            GammaMode::Fixed(_) | GammaMode::Oracle => Vec::new(),
        };
        self.scratch = Some(Scratch { slot, faults, watching, windows });
        Some(BankOps { forgets, queries })
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<lpvs_core::fleet::DeviceFleet>,
    ) -> Option<GatheredSlot> {
        let scratch = self.scratch.take().expect("gather follows begin_slot");
        debug_assert_eq!(scratch.slot, slot, "gather out of step with begin_slot");
        let _span = lpvs_obs::span!(
            "emu.gather", "slot" => slot, "devices" => scratch.watching.len()
        );
        if scratch.watching.is_empty() {
            self.scratch = Some(scratch);
            return None;
        }
        // The prefetch policy bounds how many chunks the edge holds at
        // the scheduling point (K_m, eq. 1); playback still covers the
        // full window.
        let decision_windows: Vec<&[FrameStats]> = scratch
            .watching
            .iter()
            .zip(&scratch.windows)
            .map(|(&i, w)| {
                let k = self
                    .emu
                    .config
                    .prefetch
                    .available_chunks(w.len(), 0, self.emu.channel_viewers[i])
                    .max(1)
                    .min(w.len());
                &w[..k]
            })
            .collect();
        let devices: Vec<&Device> =
            scratch.watching.iter().map(|&i| &self.emu.cluster.devices()[i]).collect();
        let mut gammas: Vec<f64> = match self.emu.config.gamma_mode {
            GammaMode::Learned => posteriors.iter().map(|&(mean, _)| mean).collect(),
            GammaMode::Fixed(g) => vec![g; scratch.watching.len()],
            GammaMode::Oracle => scratch
                .watching
                .iter()
                .zip(&decision_windows)
                .map(|(&i, window)| self.emu.oracle_gamma(i, window))
                .collect(),
        };
        // Corrupt γ reports *after* estimation: the fault models the
        // telemetry link, not the estimator.
        for &(dev, kind) in &scratch.faults.gamma_corruptions {
            if let Some(w) = scratch.watching.iter().position(|&i| i == dev) {
                gammas[w] = match kind {
                    GammaCorruption::Nan => f64::NAN,
                    GammaCorruption::Negative => -0.4,
                    GammaCorruption::Huge => 4.2,
                    GammaCorruption::Stale => GAMMA_PRIOR_MEAN,
                };
            }
        }
        // A brownout derates the capacities the scheduler sees; the
        // physical server is unchanged.
        let (compute, storage) = match scratch.faults.brownout_factor {
            Some(f) => {
                let derated = self.emu.cluster.server().browned_out(f);
                derated.publish_gauges();
                (derated.compute_capacity(), derated.storage_capacity_gb())
            }
            None => {
                lpvs_obs::gauge_set("edge_brownout_factor", 1.0);
                self.emu.cluster.server().publish_gauges();
                (
                    self.emu.cluster.server().compute_capacity(),
                    self.emu.cluster.server().storage_capacity_gb(),
                )
            }
        };
        let problem = gather_problem(
            &devices,
            &decision_windows,
            &gammas,
            self.emu.config.chunk_secs,
            self.emu.bitrate_kbps,
            compute,
            storage,
            self.emu.config.lambda,
            &self.emu.curve,
        );
        let budget = slot_budget(&scratch.faults.budget_cut);
        let warm: Option<Vec<bool>> = self
            .previous_by_device
            .as_ref()
            .map(|prev| scratch.watching.iter().map(|&i| prev[i]).collect());
        let (fleet, clean) = sanitized_fleet(&problem, recycled);
        let gathered = GatheredSlot {
            slot,
            fleet,
            device_ids: scratch.watching.clone(),
            compute_capacity: clean.compute_capacity,
            storage_capacity_gb: clean.storage_capacity_gb,
            lambda: clean.lambda,
            curve: clean.curve,
            budget,
            warm,
            // The emulator rebuilds its fleet from the trace every
            // slot, so it cannot attest to a change set — every shard
            // solves cold, exactly as before deltas existed.
            delta: None,
        };
        self.dispatched.push((slot, scratch.watching.clone()));
        self.scratch = Some(scratch);
        Some(gathered)
    }
}

impl SlotSink for EmulatorDriver {
    fn solved(&mut self, solved: &SolvedSlot) {
        let pos = self
            .dispatched
            .iter()
            .position(|(slot, _)| *slot == solved.slot)
            .expect("solved a slot that was never dispatched");
        let (_, ids) = self.dispatched.remove(pos);
        // Stage the decision exactly as the sequential engine fills its
        // `pending` vector: reset, then set the watching devices.
        let mut by_device = vec![false; self.n];
        for (j, &d) in ids.iter().enumerate() {
            by_device[d] = solved.schedule.selected[j];
        }
        self.staged.push((solved.slot, by_device));
        // The slot's record carries the tier of the solve *dispatched*
        // at it. Pipelined solves join one slot late, after the record
        // was pushed — patch it in; fallback solves join before.
        self.tiers[solved.slot] = Some(solved.tier);
        if let Some(record) = self.slots.get_mut(solved.slot) {
            record.degradation = Some(solved.tier);
        }
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        let scratch = self.scratch.take().expect("apply follows begin_slot");
        debug_assert_eq!(scratch.slot, slot, "apply out of step with begin_slot");
        let _span = lpvs_obs::span!(
            "emu.apply", "slot" => slot, "devices" => scratch.watching.len()
        );
        // One-slot-ahead: decisions solved before this slot come into
        // force now (the latest wins; earlier ones lapsed unapplied
        // while nobody watched).
        let mut i = 0;
        while i < self.staged.len() {
            if self.staged[i].0 < slot {
                self.pending = self.staged.remove(i).1;
            } else {
                i += 1;
            }
        }

        let mut selected_count = 0usize;
        let mut current_by_device = vec![false; self.n];
        let mut observations: Vec<(usize, f64)> = Vec::new();
        for (w_idx, &dev_idx) in scratch.watching.iter().enumerate() {
            let transform = self.pending[dev_idx];
            if transform {
                self.ever_selected[dev_idx] = true;
                selected_count += 1;
                current_by_device[dev_idx] = true;
            }
            let (display_j, counter_j, device_j, observed) =
                self.emu.play_slot_raw(dev_idx, &scratch.windows[w_idx], transform);
            self.total_display += display_j;
            self.total_counterfactual += counter_j;
            self.total_energy += device_j;
            if let Some(ratio) = observed {
                observations.push((dev_idx, ratio));
            }
        }

        let churn = self.previous_by_device.as_ref().map(|prev| {
            let flips =
                prev.iter().zip(&current_by_device).filter(|(a, b)| a != b).count();
            flips as f64 / self.n as f64
        });
        self.previous_by_device = Some(current_by_device);
        let mean_anxiety = self
            .emu
            .cluster
            .devices()
            .iter()
            .map(|d| self.emu.curve.phi(d.battery().fraction()))
            .sum::<f64>()
            / self.n as f64;
        self.slots.push(SlotRecord {
            slot,
            display_energy_j: slots_delta(&self.slots, self.total_display, |s| {
                s.display_energy_j
            }),
            counterfactual_display_j: slots_delta(&self.slots, self.total_counterfactual, |s| {
                s.counterfactual_display_j
            }),
            total_energy_j: slots_delta(&self.slots, self.total_energy, |s| s.total_energy_j),
            mean_anxiety,
            watching: self.emu.cluster.watching_count(),
            selected: selected_count,
            churn,
            degradation: self.tiers[slot],
        });
        SlotFeedback { observations }
    }
}

impl SlotReplay for EmulatorDriver {
    fn stage_decision(
        &mut self,
        slot: usize,
        device_ids: &[usize],
        selected: &[bool],
        tier: Degradation,
    ) {
        // Mirrors `solved` minus the `dispatched` bookkeeping (replayed
        // slots were never dispatched): stage the decision by device,
        // record the tier, patch the already-pushed record.
        let mut by_device = vec![false; self.n];
        for (j, &d) in device_ids.iter().enumerate() {
            by_device[d] = selected[j];
        }
        self.staged.push((slot, by_device));
        self.tiers[slot] = Some(tier);
        if let Some(record) = self.slots.get_mut(slot) {
            record.degradation = Some(tier);
        }
    }

    fn replay_slot(&mut self, slot: usize) {
        // Faults, windows, playback, accounting — everything except
        // gather/solve, whose outcome arrives via `stage_decision`. The
        // feedback is discarded: the restored banks already learned it.
        if self.begin_slot(slot).is_some() {
            let _ = self.apply(slot);
        }
    }
}
