//! A synthetic delta-aware slot driver.
//!
//! The trace emulator rebuilds its fleet from scratch every slot, so it
//! can never ship a delta — every emulated slot solves cold. This
//! driver is the delta path's reference workload: it owns one
//! **persistent** [`DeviceFleet`] across the whole horizon, mutates a
//! configurable fraction of rows per slot (seeded, so runs reproduce
//! bit-for-bit), and gathers each slot with the fleet's dirty frontier
//! attached as a [`SlotDelta`]. Steady-state slots therefore reach the
//! workers with a small frontier and ride the reuse/incremental paths;
//! setting [`SyntheticConfig::delta_enabled`] to `false` ships the
//! *same* mutation schedule with `delta: None`, which is the cold
//! baseline every delta run is benchmarked and bit-compared against.
//!
//! The driver implements [`SlotReplay`], so halt + resume tests can run
//! it through [`SlotRuntime::resume`](crate::SlotRuntime::resume): a
//! replayed slot re-applies its mutations and clears the dirty bits
//! exactly as the original gather did, keeping the fleet epoch — and
//! with it the delta chain — contiguous across the restart.

use crate::shard::{splitmix64, unit};
use crate::{
    BankOps, GatheredSlot, SlotFeedback, SlotReplay, SlotSink, SlotSource, SolvedSlot,
};
use lpvs_bayes::GammaEstimator;
use lpvs_core::budget::SlotBudget;
use lpvs_core::delta::SlotDelta;
use lpvs_core::fleet::{DeviceFleet, FleetDevice};
use lpvs_core::problem::DeviceRequest;
use lpvs_core::scheduler::Degradation;
use lpvs_edge::fleet::GOLDEN_GAMMA;
use lpvs_survey::curve::AnxietyCurve;

/// Battery capacity every synthetic device reports (J) — the paper's
/// 55 440 J (a 3.85 V, 4 Ah pack).
const CAPACITY_J: f64 = 55_440.0;

/// Edge compute capacity per slot, per fleet row.
const COMPUTE_PER_DEVICE: f64 = 0.22;

/// Edge storage capacity per slot, per fleet row (GB).
const STORAGE_GB_PER_DEVICE: f64 = 2.0;

/// Configuration of a [`SyntheticDriver`].
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Fleet size.
    pub devices: usize,
    /// Horizon length in slots.
    pub slots: usize,
    /// Per-slot, per-device mutation probability. `0.0` freezes the
    /// fleet after slot 0 (every later delta is empty); `1.0` redraws
    /// every row every slot (all-dirty, the churn-heavy extreme).
    pub mutation_fraction: f64,
    /// Seed of the mutation schedule. Mutations are a pure function of
    /// `(seed, slot, device)`, so equal seeds replay bit-for-bit.
    pub seed: u64,
    /// Ship the dirty frontier with each gathered slot. `false` ships
    /// `delta: None` — the identical workload forced down the cold
    /// path.
    pub delta_enabled: bool,
    /// Regularization λ.
    pub lambda: f64,
}

impl SyntheticConfig {
    /// A small steady-state workload: `devices` devices, `slots` slots,
    /// 1% of the fleet mutating per slot, deltas on. The edge has 0.22
    /// compute units and 2 GB of storage per device.
    pub fn steady(devices: usize, slots: usize, seed: u64) -> Self {
        Self {
            devices,
            slots,
            mutation_fraction: 0.01,
            seed,
            delta_enabled: true,
            lambda: 1.0,
        }
    }
}

/// One solved slot as the driver saw it — the unit of bit-identity
/// comparisons between delta-enabled, delta-disabled, and resumed runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntheticRecord {
    /// Slot the decision was computed for.
    pub slot: usize,
    /// Selection in device order.
    pub selected: Vec<bool>,
    /// Worst degradation rung any shard fell to.
    pub tier: Degradation,
}

/// The driver: a persistent fleet plus the mutation schedule over it.
#[derive(Debug)]
pub struct SyntheticDriver {
    config: SyntheticConfig,
    fleet: DeviceFleet,
    curve: AnxietyCurve,
    /// Every decision delivered (or staged on resume), slot order; the
    /// last one is the next gather's warm start.
    records: Vec<SyntheticRecord>,
}

/// splitmix64 over a `(seed, slot, device, salt)` tuple — the same
/// no-RNG-stream recipe as stage faults, so mutation `k` of a slot
/// never depends on how many came before it.
fn mix(seed: u64, slot: usize, device: usize, salt: u64) -> u64 {
    splitmix64(
        seed ^ (slot as u64).wrapping_mul(GOLDEN_GAMMA)
            ^ ((device as u64) << 24)
            ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    )
}

impl SyntheticDriver {
    /// Builds the driver and its initial fleet. Row `d`'s initial state
    /// is drawn from the seed, so two drivers with equal configs hold
    /// bit-identical fleets.
    pub fn new(config: SyntheticConfig) -> Self {
        assert!(config.devices > 0, "synthetic fleet must be nonempty");
        assert!(
            (0.0..=1.0).contains(&config.mutation_fraction),
            "mutation fraction must be a probability"
        );
        let mut fleet = DeviceFleet::with_capacity(config.devices, 30);
        for d in 0..config.devices {
            let battery = 0.06 + 0.9 * unit(mix(config.seed, usize::MAX, d, 1));
            let gamma = 0.1 + 0.5 * unit(mix(config.seed, usize::MAX, d, 2));
            fleet.push(FleetDevice::from_request(DeviceRequest::uniform(
                0.8 + 0.05 * (d % 7) as f64,
                10.0,
                30,
                battery * CAPACITY_J,
                CAPACITY_J,
                gamma,
                1.0,
                0.1,
            )));
        }
        Self {
            config,
            fleet,
            curve: AnxietyCurve::paper_shape(),
            records: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// Paper-default γ estimators for the fleet, ready to hand to
    /// [`SlotRuntime::run`](crate::SlotRuntime::run).
    pub fn estimators(&self) -> Vec<GammaEstimator> {
        vec![GammaEstimator::paper_default(); self.config.devices]
    }

    /// Every decision the run delivered, slot order.
    pub fn records(&self) -> &[SyntheticRecord] {
        &self.records
    }

    /// Applies slot `slot`'s mutation schedule to the fleet. Mutated
    /// values are pure functions of `(seed, slot, device)` — never of
    /// the current state — so a replayed slot reproduces them exactly.
    fn mutate(&mut self, slot: usize) {
        let seed = self.config.seed;
        for d in 0..self.config.devices {
            if unit(mix(seed, slot, d, 0)) >= self.config.mutation_fraction {
                continue;
            }
            let battery = 0.05 + 0.9 * unit(mix(seed, slot, d, 3));
            self.fleet.set_energy_j(d, battery * CAPACITY_J);
            if mix(seed, slot, d, 4) & 1 == 0 {
                let mean = 0.1 + 0.6 * unit(mix(seed, slot, d, 5));
                let std = 0.02 + 0.1 * unit(mix(seed, slot, d, 6));
                self.fleet.set_gamma(d, mean, std);
            }
        }
    }
}

impl SlotSource for SyntheticDriver {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        if slot >= self.config.slots {
            return None;
        }
        self.mutate(slot);
        // No bank traffic: γ lives in the fleet rows themselves, so the
        // solve path is the only thing under test.
        Some(BankOps::default())
    }

    fn gather(
        &mut self,
        slot: usize,
        _posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        let (frontier, fleet, refilled) = self.fleet.ship_snapshot(recycled);
        Some(GatheredSlot {
            slot,
            fleet,
            device_ids: (0..self.config.devices).collect(),
            compute_capacity: COMPUTE_PER_DEVICE * self.config.devices as f64,
            storage_capacity_gb: STORAGE_GB_PER_DEVICE * self.config.devices as f64,
            lambda: self.config.lambda,
            curve: self.curve.clone(),
            budget: SlotBudget::default(),
            warm: self.records.last().map(|r| r.selected.clone()),
            delta: self.config.delta_enabled.then(|| SlotDelta::from(frontier)),
            refilled,
        })
    }
}

impl SlotSink for SyntheticDriver {
    fn solved(&mut self, solved: &SolvedSlot) {
        self.records.push(SyntheticRecord {
            slot: solved.slot,
            selected: solved.schedule.selected.clone(),
            tier: solved.tier,
        });
    }

    fn apply(&mut self, _slot: usize) -> SlotFeedback {
        SlotFeedback::default()
    }
}

impl SlotReplay for SyntheticDriver {
    fn stage_decision(
        &mut self,
        slot: usize,
        _device_ids: &[usize],
        selected: &[bool],
        tier: Degradation,
    ) {
        self.records.push(SyntheticRecord { slot, selected: selected.to_vec(), tier });
    }

    fn replay_slot(&mut self, slot: usize) {
        // Exactly what begin_slot + gather did to the fleet, minus the
        // solve: mutate, then clear the frontier. This keeps the epoch
        // counter — and with it the restored memo's delta chain —
        // contiguous across the resume.
        self.mutate(slot);
        self.fleet.clear_dirty();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_schedule_is_deterministic() {
        let config = SyntheticConfig::steady(64, 4, 11);
        let mut a = SyntheticDriver::new(config.clone());
        let mut b = SyntheticDriver::new(config);
        assert_eq!(a.fleet, b.fleet);
        for slot in 0..4 {
            a.mutate(slot);
            b.mutate(slot);
            assert_eq!(a.fleet, b.fleet, "slot {slot} diverged");
            assert_eq!(
                a.fleet.dirty_frontier().indices,
                b.fleet.dirty_frontier().indices
            );
        }
    }

    #[test]
    fn replay_reproduces_the_gather_epoch_chain() {
        let config = SyntheticConfig::steady(40, 6, 3);
        let mut live = SyntheticDriver::new(config.clone());
        let mut replayed = SyntheticDriver::new(config);
        for slot in 0..4 {
            live.begin_slot(slot).expect("in horizon");
            live.gather(slot, &[], None).expect("gathered");
            replayed.replay_slot(slot);
        }
        assert_eq!(live.fleet, replayed.fleet);
        assert_eq!(live.fleet.epoch(), replayed.fleet.epoch());
        assert_eq!(live.fleet.dirty_count(), 0);
        assert_eq!(replayed.fleet.dirty_count(), 0);
    }

    #[test]
    fn zero_fraction_means_empty_deltas_after_slot_zero() {
        let mut config = SyntheticConfig::steady(32, 3, 5);
        config.mutation_fraction = 0.0;
        let mut driver = SyntheticDriver::new(config);
        driver.begin_slot(0).expect("slot 0");
        let g0 = driver.gather(0, &[], None).expect("gathered");
        let d0 = g0.delta.expect("delta enabled");
        assert_eq!(d0.len(), 32, "a fresh fleet is all-dirty");
        driver.begin_slot(1).expect("slot 1");
        let g1 = driver.gather(1, &[], None).expect("gathered");
        let d1 = g1.delta.expect("delta enabled");
        assert!(d1.is_empty());
        assert_eq!(d1.epoch, d0.epoch + 1, "epochs advance one per gather");
    }
}
