//! Deterministic fault injection for the slot pipeline.
//!
//! Real deployments of LPVS face conditions the paper's emulation
//! (§VI) idealizes away: devices drop off the cellular link mid-slot,
//! γ telemetry arrives stale or corrupt, the edge server loses compute
//! or storage headroom to co-located tenants, and the scheduler's
//! solve budget gets cut when the slot deadline nears. This module
//! declares those faults per slot in a [`FaultPlan`] so the emulator
//! can replay them bit-for-bit: the plan is derived once from a seed,
//! and the same `(seed, slots, devices)` triple always yields the same
//! plan regardless of what the emulator does with it.
//!
//! The plan is pure data. The [`engine`](crate::engine) applies it —
//! disconnecting devices, corrupting the γ vector *after* the
//! estimators produce it, deriving browned-out capacities, and
//! tightening the [`SlotBudget`](lpvs_core::budget::SlotBudget) handed
//! to the resilient scheduler.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Domain-separation constant mixed into the fault seed so a fault
/// plan never correlates with the emulator's own trace RNG even when
/// both are seeded with the same user-facing number.
const FAULT_SEED_SALT: u64 = 0xFA17_1A7E_D00D_5EED;

/// Deepest budget cut the generator will draw: the scheduler keeps at
/// least this little — and at most 35 % — of its node budget on a
/// budget-cut fault.
const MAX_RETAINED_FRACTION: f64 = 0.35;

/// Per-slot probability that a disconnected device comes back.
const RECONNECT_RATE: f64 = 0.5;

/// Fraction of capacity retained in the *worst* brownout; the factor
/// is drawn uniformly from `[BROWNOUT_FLOOR, 1)`.
const BROWNOUT_FLOOR: f64 = 0.25;

/// How a corrupt γ report is malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GammaCorruption {
    /// The report is `NaN` (lost sample, failed parse).
    Nan,
    /// The report is negative — a ratio below zero is meaningless.
    Negative,
    /// The report is far above one — the device claims the transform
    /// *created* energy.
    Huge,
    /// The report is stale: the device resends the prior mean instead
    /// of a fresh measurement, silently erasing whatever was learned.
    Stale,
}

/// Per-slot fault rates. `Copy` so it can ride inside
/// [`EmulatorConfig`](crate::engine::EmulatorConfig) struct updates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for the fault RNG (salted, so it is independent of the
    /// emulator's trace seed even when numerically equal).
    pub seed: u64,
    /// Per-device, per-slot probability of dropping off the link; a
    /// dropped device comes back with probability 0.5 each slot.
    pub disconnect_rate: f64,
    /// Per-device, per-slot probability of a corrupt γ report.
    pub gamma_corruption_rate: f64,
    /// Per-slot probability of an edge brownout, which keeps at least
    /// a quarter of the server's capacity.
    pub brownout_rate: f64,
    /// Per-slot probability of a solver-budget cut.
    pub budget_cut_rate: f64,
    /// Per-(slot, shard) probability of a *pipeline stage crash*: a
    /// shard worker of the pipelined runtime dies mid-slot, exercising
    /// the drain-and-fall-back ladder. Only the pipelined slot loop
    /// reads this — it is not part of the [`FaultPlan`] (worker death
    /// is a runtime event, not a telemetry event), and sequential runs
    /// ignore it entirely.
    pub stage_fault_rate: f64,
    /// How many times a stage-faulted (slot, shard) dies *again* after
    /// the supervisor respawns it: respawn attempt `a` is killed while
    /// `a <= stage_fault_repeat`. `0` means the first respawn succeeds;
    /// `u32::MAX` makes every hit unrecoverable, forcing the pipelined
    /// runtime's sequential fallback. Pipelined runs only.
    pub stage_fault_repeat: u32,
    /// Per-written-checkpoint probability that the snapshot file is
    /// corrupted on disk (one byte flipped), exercising the
    /// checksum-reject → older-generation rung of the recovery ladder.
    /// Only read when the pipelined runtime has a checkpoint store.
    pub checkpoint_corrupt_rate: f64,
}

impl FaultConfig {
    /// No faults at all — the seed run.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            disconnect_rate: 0.0,
            gamma_corruption_rate: 0.0,
            brownout_rate: 0.0,
            budget_cut_rate: 0.0,
            stage_fault_rate: 0.0,
            stage_fault_repeat: 0,
            checkpoint_corrupt_rate: 0.0,
        }
    }

    /// Uniform fault profile: every fault class fires at `rate`, with
    /// disconnected devices reconnecting at 50 % per slot and
    /// brownouts keeping at least a quarter of capacity. This is the
    /// knob the `ablation_faults` sweep turns.
    pub fn uniform(rate: f64, seed: u64) -> Self {
        let rate = if rate.is_finite() { rate.clamp(0.0, 1.0) } else { 0.0 };
        FaultConfig {
            seed,
            disconnect_rate: rate,
            gamma_corruption_rate: rate,
            brownout_rate: rate,
            budget_cut_rate: rate,
            // Stage faults kill pipeline workers rather than corrupt
            // telemetry; the sweeps that turn this profile compare
            // sequential runs, so they stay off here.
            stage_fault_rate: 0.0,
            stage_fault_repeat: 0,
            checkpoint_corrupt_rate: 0.0,
        }
    }

    /// True when no fault class can ever fire.
    pub fn is_none(&self) -> bool {
        self.disconnect_rate <= 0.0
            && self.gamma_corruption_rate <= 0.0
            && self.brownout_rate <= 0.0
            && self.budget_cut_rate <= 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Everything that goes wrong in one slot.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SlotFaults {
    /// Device indices dropping off the link at the start of the slot.
    pub disconnects: Vec<usize>,
    /// Device indices rejoining at the start of the slot.
    pub reconnects: Vec<usize>,
    /// `(device, kind)` pairs whose γ report is malformed this slot.
    pub gamma_corruptions: Vec<(usize, GammaCorruption)>,
    /// Capacity retained by the edge server (`None` = healthy).
    pub brownout_factor: Option<f64>,
    /// Fraction of the solver node budget retained (`None` = full
    /// budget). Values are in `[0, 0.35)`.
    pub budget_cut: Option<f64>,
}

impl SlotFaults {
    /// A slot where nothing goes wrong.
    pub fn none() -> Self {
        SlotFaults::default()
    }

    /// True when this slot carries no fault events.
    pub fn is_quiet(&self) -> bool {
        self.disconnects.is_empty()
            && self.reconnects.is_empty()
            && self.gamma_corruptions.is_empty()
            && self.brownout_factor.is_none()
            && self.budget_cut.is_none()
    }
}

/// The full fault schedule for an emulation: one [`SlotFaults`] per
/// slot, generated deterministically up front.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    slots: Vec<SlotFaults>,
}

impl FaultPlan {
    /// An empty plan (every slot quiet).
    pub fn quiet() -> Self {
        FaultPlan::default()
    }

    /// Derives the plan for `slots × devices` from the config. The
    /// generator tracks which devices are down so reconnects are only
    /// scheduled for devices that actually disconnected earlier — the
    /// plan is consistent on its own, before the engine touches it.
    pub fn generate(config: &FaultConfig, slots: usize, devices: usize) -> Self {
        if config.is_none() {
            return FaultPlan { slots: vec![SlotFaults::none(); slots] };
        }
        let mut rng = StdRng::seed_from_u64(config.seed ^ FAULT_SEED_SALT);
        let mut down = vec![false; devices];
        let mut plan = Vec::with_capacity(slots);
        for _ in 0..slots {
            let mut slot = SlotFaults::none();
            for (dev, down) in down.iter_mut().enumerate() {
                if *down {
                    if rng.gen_bool(RECONNECT_RATE) {
                        *down = false;
                        slot.reconnects.push(dev);
                    }
                } else if rng.gen_bool(p(config.disconnect_rate)) {
                    *down = true;
                    slot.disconnects.push(dev);
                }
                if !*down && rng.gen_bool(p(config.gamma_corruption_rate)) {
                    let kind = match rng.gen_range(0..4u32) {
                        0 => GammaCorruption::Nan,
                        1 => GammaCorruption::Negative,
                        2 => GammaCorruption::Huge,
                        _ => GammaCorruption::Stale,
                    };
                    slot.gamma_corruptions.push((dev, kind));
                }
            }
            if rng.gen_bool(p(config.brownout_rate)) {
                slot.brownout_factor = Some(rng.gen_range(BROWNOUT_FLOOR..1.0_f64));
            }
            if rng.gen_bool(p(config.budget_cut_rate)) {
                slot.budget_cut = Some(rng.gen_range(0.0..MAX_RETAINED_FRACTION));
            }
            plan.push(slot);
        }
        FaultPlan { slots: plan }
    }

    /// The faults for slot `idx`; quiet past the end of the plan, so
    /// the engine never has to bounds-check.
    pub fn slot(&self, idx: usize) -> SlotFaults {
        self.slots.get(idx).cloned().unwrap_or_default()
    }

    /// Number of slots covered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the plan covers no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total fault events across the plan (each disconnect, reconnect,
    /// γ corruption, brownout, and budget cut counts as one).
    pub fn total_events(&self) -> usize {
        self.slots
            .iter()
            .map(|s| {
                s.disconnects.len()
                    + s.reconnects.len()
                    + s.gamma_corruptions.len()
                    + usize::from(s.brownout_factor.is_some())
                    + usize::from(s.budget_cut.is_some())
            })
            .sum()
    }
}

/// Clamps a rate into a valid probability; garbage fails safe to 0.
fn p(rate: f64) -> f64 {
    if rate.is_finite() {
        rate.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_bit_reproducible_for_a_fixed_seed() {
        let config = FaultConfig::uniform(0.2, 99);
        let a = FaultPlan::generate(&config, 48, 30);
        let b = FaultPlan::generate(&config, 48, 30);
        assert_eq!(a, b);
        assert!(a.total_events() > 0, "a 20 % profile over 48×30 must fire");
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::generate(&FaultConfig::uniform(0.2, 1), 48, 30);
        let b = FaultPlan::generate(&FaultConfig::uniform(0.2, 2), 48, 30);
        assert_ne!(a, b);
    }

    #[test]
    fn no_fault_config_yields_a_quiet_plan() {
        let plan = FaultPlan::generate(&FaultConfig::none(), 24, 50);
        assert_eq!(plan.len(), 24);
        assert_eq!(plan.total_events(), 0);
        assert!((0..24).all(|i| plan.slot(i).is_quiet()));
    }

    #[test]
    fn reconnects_only_follow_disconnects() {
        let plan = FaultPlan::generate(&FaultConfig::uniform(0.3, 7), 40, 20);
        let mut down = [false; 20];
        for i in 0..plan.len() {
            let slot = plan.slot(i);
            for &d in &slot.reconnects {
                assert!(down[d], "slot {i}: device {d} reconnected while up");
                down[d] = false;
            }
            for &d in &slot.disconnects {
                assert!(!down[d], "slot {i}: device {d} disconnected while down");
                down[d] = true;
            }
            for &(d, _) in &slot.gamma_corruptions {
                assert!(!down[d], "slot {i}: disconnected device {d} reported γ");
            }
        }
    }

    #[test]
    fn drawn_factors_stay_in_their_bands() {
        let plan = FaultPlan::generate(&FaultConfig::uniform(0.5, 13), 60, 10);
        for i in 0..plan.len() {
            let slot = plan.slot(i);
            if let Some(f) = slot.brownout_factor {
                assert!((0.25..1.0).contains(&f), "brownout factor {f}");
            }
            if let Some(f) = slot.budget_cut {
                assert!((0.0..MAX_RETAINED_FRACTION).contains(&f), "budget cut {f}");
            }
        }
    }

    #[test]
    fn out_of_range_slot_is_quiet() {
        let plan = FaultPlan::generate(&FaultConfig::uniform(0.9, 5), 4, 4);
        assert!(plan.slot(1000).is_quiet());
    }

    #[test]
    fn garbage_rates_fail_safe() {
        let config = FaultConfig { disconnect_rate: f64::NAN, ..FaultConfig::uniform(0.0, 3) };
        let plan = FaultPlan::generate(&config, 10, 10);
        assert_eq!(plan.total_events(), 0);
        assert!(FaultConfig::uniform(f64::INFINITY, 0).disconnect_rate <= 1.0);
    }
}
