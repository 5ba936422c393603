//! The emulator's slot stages — the one implementation of Fig. 6's
//! gather → schedule → transform/play loop.
//!
//! [`EmulatorDriver`] implements the runtime's
//! [`SlotSource`]/[`SlotSink`] traits over an [`Emulator`];
//! [`Emulator::run`] only picks which of the runtime's two executors
//! calls them. Per slot `t`:
//!
//! * `begin_slot(t)` — fault preamble (reconnects, disconnects, one
//!   staleness forget per disconnected device) and content-window
//!   synthesis;
//! * `gather(t)` — K_m prefetch windows, γ assembly (posteriors
//!   answered by the executor's banks), telemetry corruption, brownout
//!   derating, and the slot problem. An LPVS policy loads it into the
//!   recycled fleet buffer and hands it to the executor; a baseline
//!   policy decides here, stages its own selection and reports an idle
//!   slot, so no executor ever solves for it;
//! * `solved(t)` — stages the joined decision by device id and records
//!   the slot's degradation tier;
//! * `apply(t)` — brings staged decisions into force, plays every
//!   watching device, and accounts the slot.
//!
//! Immediate and one-slot-ahead scheduling (paper §VI-B.2) differ by
//! one number, the decision **lag**: `apply(t)` consumes stagings with
//! `slot + lag ≤ t`. Lag 0 applies a decision in the slot it was
//! gathered for, lag 1 is one-slot-ahead. The lag is this driver's —
//! both executors deliver `solved(t)` before `apply(t)` and impose
//! none — and at a given lag either executor produces the same
//! [`SlotRecord`]s and the same final γ posteriors, bit for bit
//! (`tests/runtime.rs`, `tests/emulator_loop.rs`).

use crate::engine::{
    slot_budget, slots_delta, Emulator, GammaMode, CHUNKS_PER_SLOT, CHUNK_SECS, FIXED_GAMMA,
};
use crate::faults::{FaultPlan, GammaCorruption, SlotFaults};
use crate::gather::gather_problem;
use crate::metrics::{EmulationReport, SlotRecord};
use lpvs_bayes::GAMMA_PRIOR_MEAN;
use lpvs_core::baseline::SelectionPolicy;
use lpvs_core::fleet::DeviceFleet;
use lpvs_core::scheduler::Degradation;
use lpvs_display::stats::CompactStats;
use lpvs_edge::device::Device;
use lpvs_runtime::pipeline::RuntimeReport;
use lpvs_runtime::{
    BankOps, GatheredSlot, SlotFeedback, SlotReplay, SlotSink, SlotSource, SolvedSlot,
};
use std::time::{Duration, Instant};

/// Per-slot state carried from `begin_slot` to `gather` and `apply`.
struct Scratch {
    slot: usize,
    faults: SlotFaults,
    /// Device indices watching this slot.
    watching: Vec<usize>,
    /// Full playback windows, one per watching device, back to back
    /// ([`CHUNKS_PER_SLOT`] chunks each).
    chunks: Vec<CompactStats>,
    /// The chunks' untransformed display powers, priced once for
    /// gather, encode and playback.
    powers: Vec<f64>,
}

impl Scratch {
    /// Each window with its untransformed display powers.
    fn priced(&self) -> impl Iterator<Item = (&[CompactStats], &[f64])> {
        self.chunks.chunks(CHUNKS_PER_SLOT).zip(self.powers.chunks(CHUNKS_PER_SLOT))
    }
}

/// The [`Emulator`] adapted to the runtime's source/sink traits.
pub(crate) struct EmulatorDriver {
    emu: Emulator,
    plan: FaultPlan,
    n: usize,
    horizon: usize,
    /// Slots between gathering a decision and applying it (0 or 1).
    lag: usize,
    scratch: Option<Scratch>,
    /// Fleet-order device ids of the slot handed to the executor, until
    /// its solve comes back.
    dispatched: Option<Vec<usize>>,
    /// The recycled fleet buffer, parked across slots that dispatch no
    /// solve so the next one that does refills it.
    parked: Option<DeviceFleet>,
    /// Decisions (by device) awaiting their application slot.
    staged: Vec<(usize, Vec<bool>)>,
    /// The decision currently in force.
    pending: Vec<bool>,
    /// Applied decisions of the previous slot (churn + warm starts).
    previous_by_device: Option<Vec<bool>>,
    /// Degradation tier per slot, set when its decision is staged.
    tiers: Vec<Option<Degradation>>,
    slots: Vec<SlotRecord>,
    initial_battery: Vec<f64>,
    ever_selected: Vec<bool>,
    total_display: f64,
    total_counterfactual: f64,
    total_energy: f64,
    /// Wall clock spent in baseline `select` calls — the scheduler
    /// time of a run whose decisions never reach an executor.
    select_runtime: Duration,
}

impl EmulatorDriver {
    pub(crate) fn new(emu: Emulator, lag: usize) -> Self {
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
            lag,
            scratch: None,
            dispatched: None,
            parked: None,
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
            select_runtime: Duration::ZERO,
        }
    }

    /// Assembles the final report once the executor has drained. Only
    /// the worker executor's summary is worth reporting; an inline run
    /// keeps `runtime: None`.
    pub(crate) fn finish(self, report: RuntimeReport) -> EmulationReport {
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
            scheduler_runtime: report.solve_runtime + self.select_runtime,
            runtime: report.summary.pipelined.then_some(report.summary),
            obs: lpvs_obs::enabled()
                .then(|| lpvs_obs::installed().map(|r| r.snapshot()))
                .flatten(),
            slots: self.slots,
        }
    }

    /// Stages a decision by device id — reset, then set the devices it
    /// covers — and records the tier of the slot it was gathered at,
    /// which that slot's `apply` reads.
    fn stage(
        &mut self,
        slot: usize,
        device_ids: &[usize],
        selected: &[bool],
        tier: Option<Degradation>,
    ) {
        let mut by_device = vec![false; self.n];
        for (&d, &x) in device_ids.iter().zip(selected) {
            by_device[d] = x;
        }
        self.staged.push((slot, by_device));
        self.tiers[slot] = tier;
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
        let (chunks, powers) = {
            let _span = lpvs_obs::span!(
                "emu.content", "slot" => slot, "devices" => watching.len()
            );
            let devices = self.emu.cluster.devices();
            let mut chunks = Vec::with_capacity(watching.len() * CHUNKS_PER_SLOT);
            let mut powers = Vec::with_capacity(watching.len() * CHUNKS_PER_SLOT);
            for &i in &watching {
                let start = chunks.len();
                chunks.extend(self.emu.content_window(i, slot));
                powers.extend(devices[i].spec().compact_power_watts_each(&chunks[start..]));
            }
            (chunks, powers)
        };
        lpvs_obs::add("emu_chunks_synthesized_total", powers.len() as u64);
        let queries = match self.emu.config.gamma_mode {
            GammaMode::Learned => watching.clone(),
            GammaMode::Fixed | GammaMode::Oracle => Vec::new(),
        };
        self.scratch = Some(Scratch { slot, faults, watching, chunks, powers });
        Some(BankOps { forgets, queries })
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        let scratch = self.scratch.take().expect("gather follows begin_slot");
        debug_assert_eq!(scratch.slot, slot, "gather out of step with begin_slot");
        self.parked = recycled.or(self.parked.take());
        let _span = lpvs_obs::span!(
            "emu.gather", "slot" => slot, "devices" => scratch.watching.len()
        );
        if scratch.watching.is_empty() {
            self.scratch = Some(scratch);
            return None;
        }
        // The prefetch policy bounds how many chunks the edge holds at
        // the scheduling point (K_m, eq. 1); the remainder arrives
        // during the slot, so playback still covers the full window.
        let decision_powers: Vec<&[f64]> = scratch
            .watching
            .iter()
            .zip(scratch.priced())
            .map(|(&i, (_, w))| {
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
            GammaMode::Fixed => vec![FIXED_GAMMA; scratch.watching.len()],
            GammaMode::Oracle => {
                lpvs_obs::add(
                    "emu_chunks_encoded_total",
                    decision_powers.iter().map(|w| w.len() as u64).sum(),
                );
                scratch
                    .watching
                    .iter()
                    .zip(scratch.priced())
                    .zip(&decision_powers)
                    .map(|((&i, (window, _)), powers)| {
                        self.emu.oracle_gamma(i, &window[..powers.len()], powers)
                    })
                    .collect()
            }
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
        let factor = scratch.faults.brownout_factor.unwrap_or(1.0);
        let server = self.emu.cluster.server().browned_out(factor);
        lpvs_obs::gauge_set("edge_brownout_factor", factor);
        lpvs_obs::gauge_set("edge_compute_capacity", server.compute_capacity());
        let problem = gather_problem(
            &devices,
            &decision_powers,
            &gammas,
            CHUNK_SECS,
            self.emu.bitrate_kbps,
            server.compute_capacity(),
            server.storage_capacity_gb(),
            self.emu.config.lambda,
            &self.emu.curve,
        );
        let gathered = if self.emu.scheduler().is_some() {
            // The one rows→columns loader neutralises and disconnects
            // rows with corrupt telemetry, and the shard views clamp
            // capacities and λ, so the problem's own values travel.
            let mut fleet = self.parked.take().unwrap_or_default();
            let load = lpvs_obs::span!("sched.sanitize");
            fleet.rebuild_from_problem(&problem);
            drop(load);
            self.dispatched = Some(scratch.watching.clone());
            Some(GatheredSlot {
                slot,
                fleet,
                device_ids: scratch.watching.clone(),
                compute_capacity: problem.compute_capacity,
                storage_capacity_gb: problem.storage_capacity_gb,
                lambda: problem.lambda,
                curve: problem.curve,
                budget: slot_budget(&scratch.faults.budget_cut),
                warm: self
                    .previous_by_device
                    .as_ref()
                    .map(|prev| scratch.watching.iter().map(|&i| prev[i]).collect()),
                // The emulator rebuilds its fleet from the trace every
                // slot, so it cannot attest to a change set — every
                // shard solves cold, exactly as before deltas existed.
                delta: None,
                refilled: Default::default(),
            })
        } else {
            // Baselines keep their plain `select` path — no sanitizer,
            // no ladder, no tier — so the decision is made here and the
            // executor sees a slot with nothing to solve.
            let started = Instant::now();
            let selected = self.emu.policy.select(&problem);
            self.select_runtime += started.elapsed();
            self.stage(slot, &scratch.watching, &selected, None);
            None
        };
        self.scratch = Some(scratch);
        gathered
    }
}

impl SlotSink for EmulatorDriver {
    fn solved(&mut self, solved: &SolvedSlot) {
        let ids = self.dispatched.take().expect("solved a slot that was never dispatched");
        self.stage(solved.slot, &ids, &solved.schedule.selected, Some(solved.tier));
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        let scratch = self.scratch.take().expect("apply follows begin_slot");
        debug_assert_eq!(scratch.slot, slot, "apply out of step with begin_slot");
        let mut span = lpvs_obs::span!(
            "emu.apply", "slot" => slot, "devices" => scratch.watching.len()
        );
        // Decisions at least `lag` slots old come into force now (the
        // latest wins; earlier ones lapsed unapplied while nobody
        // watched).
        let mut i = 0;
        while i < self.staged.len() {
            if self.staged[i].0 + self.lag <= slot {
                self.pending = self.staged.remove(i).1;
            } else {
                i += 1;
            }
        }

        let mut selected_count = 0usize;
        let mut encoded = 0;
        let mut current_by_device = vec![false; self.n];
        let mut observations: Vec<(usize, f64)> = Vec::new();
        for (&dev_idx, (window, powers)) in scratch.watching.iter().zip(scratch.priced()) {
            let transform = self.pending[dev_idx];
            if transform {
                self.ever_selected[dev_idx] = true;
                selected_count += 1;
                current_by_device[dev_idx] = true;
            }
            let played = self.emu.play_slot_raw(dev_idx, window, powers, transform);
            self.total_display += played.display_j;
            self.total_counterfactual += played.counterfactual_j;
            self.total_energy += played.device_j;
            encoded += played.encoded;
            if let Some(ratio) = played.observed {
                observations.push((dev_idx, ratio));
            }
        }
        lpvs_obs::add("emu_chunks_encoded_total", encoded);

        let churn = self.previous_by_device.as_ref().map(|prev| {
            let flips =
                prev.iter().zip(&current_by_device).filter(|(a, b)| a != b).count();
            flips as f64 / self.n as f64
        });
        self.previous_by_device = Some(current_by_device);
        span.record("selected", selected_count as f64);
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
        self.stage(slot, device_ids, selected, Some(tier));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EmulatorConfig;
    use lpvs_core::baseline::Policy;

    #[test]
    fn an_idle_slot_parks_the_recycled_buffer_for_the_next_solve() {
        let config = EmulatorConfig { devices: 6, slots: 3, ..EmulatorConfig::default() };
        let mut driver = EmulatorDriver::new(Emulator::new(config, Policy::Lpvs), 0);
        let slot = |driver: &mut EmulatorDriver, slot, recycled| {
            let queries = driver.begin_slot(slot).expect("in horizon").queries.len();
            let gathered = driver.gather(slot, &vec![(0.3, 0.1); queries], recycled);
            driver.apply(slot);
            gathered.map(|g| g.fleet)
        };
        let shipped = slot(&mut driver, 0, None).expect("watched slot");
        let columns = shipped.rates(0).as_ptr();
        // Nobody watches slot 1: no solve, and the buffer handed back
        // for it stays with the driver.
        driver.emu.cluster.devices_mut().iter_mut().for_each(Device::disconnect);
        assert!(slot(&mut driver, 1, Some(shipped)).is_none());
        assert!(driver.parked.is_some(), "the idle slot dropped the buffer");
        // The runtime has nothing to hand back at slot 2.
        driver.emu.cluster.devices_mut().iter_mut().for_each(Device::reconnect);
        let refilled = slot(&mut driver, 2, None).expect("watched slot");
        assert_eq!(refilled.rates(0).as_ptr(), columns, "columns were reallocated");
    }
}
