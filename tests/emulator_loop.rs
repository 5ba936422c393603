//! The emulator's one slot loop, pinned.
//!
//! `Emulator::run` has a single implementation of the slot stages (the
//! runtime driver) behind two executors. What used to be a second,
//! hand-written sequential loop survives only as the golden digests
//! below: FNV-1a over everything deterministic in an
//! [`EmulationReport`], **computed at the commit that still had that
//! loop** and committed as constants. A digest that moves means the
//! emulator computes something different from what every published
//! figure was produced with — that is never a refactor.
//!
//! The grid is 6 policies × {immediate, one-slot-ahead} × {1, 3 edges}
//! in full, crossed with the nine rows of an L9 orthogonal array over
//! fault rate × γ mode × cluster shape × prefetch window, so every pair
//! of axis values occurs together at least once (216 runs).

use lpvs::core::baseline::Policy;
use lpvs::edge::cache::PrefetchPolicy;
use lpvs::emulator::engine::{Emulator, EmulatorConfig, GammaMode};
use lpvs::emulator::{EmulationReport, FaultConfig};

const POLICIES: [Policy; 6] = [
    Policy::Lpvs,
    Policy::LpvsPhase1Only,
    Policy::NoTransform,
    Policy::Random { seed: 5 },
    Policy::LowestBattery,
    Policy::HighestSaving,
];

/// Row `r` of the L9 array: levels of (fault rate, γ mode, cluster
/// shape) and the fourth column folded onto the two prefetch settings.
fn l9(r: usize) -> (usize, usize, usize, bool) {
    let (a, b) = (r / 3, r % 3);
    (a, b, (a + b) % 3, (a + 2 * b) % 3 == 1)
}

/// Grid cell `k` of the 216: `(policy, config)`.
fn cell(k: usize) -> (Policy, EmulatorConfig) {
    let (head, r) = (k / 9, k % 9);
    let (policy, one_slot_ahead, num_edges) =
        (POLICIES[head / 4], (head / 2) % 2 == 1, if head % 2 == 0 { 1 } else { 3 });
    let (fault, gamma, shape, tight_prefetch) = l9(r);
    // Three cluster shapes: ample capacity; a server that fits a few
    // streams; small batteries under a heavy λ, so viewers give up.
    let base = match shape {
        0 => EmulatorConfig { devices: 12, slots: 6, seed: 7, ..EmulatorConfig::default() },
        1 => EmulatorConfig {
            devices: 16,
            slots: 8,
            seed: 21,
            server_streams: 4,
            ..EmulatorConfig::default()
        },
        _ => EmulatorConfig {
            devices: 20,
            slots: 5,
            seed: 3,
            server_streams: 10,
            lambda: 4.0,
            battery_capacity_wh: 1.5,
            ..EmulatorConfig::default()
        },
    };
    let config = EmulatorConfig {
        one_slot_ahead,
        num_edges,
        faults: match fault {
            0 => FaultConfig::none(),
            1 => FaultConfig::uniform(0.2, 11),
            _ => FaultConfig::uniform(0.5, 13),
        },
        gamma_mode: [GammaMode::Learned, GammaMode::Fixed, GammaMode::Oracle][gamma],
        prefetch: if tight_prefetch {
            PrefetchPolicy::Window { chunks: 4 }
        } else {
            PrefetchPolicy::Full
        },
        ..base
    };
    (policy, config)
}

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// FNV-1a over the full deterministic report (`scheduler_runtime` is
/// wall clock, `runtime` and `obs` describe the executor, not the run).
fn digest(report: &EmulationReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for s in &report.slots {
        h.word(s.slot as u64);
        h.float(s.display_energy_j);
        h.float(s.counterfactual_display_j);
        h.float(s.total_energy_j);
        h.float(s.mean_anxiety);
        h.word(s.watching as u64);
        h.word(s.selected as u64);
        h.word(s.churn.map_or(u64::MAX, f64::to_bits));
        h.word(s.degradation.map_or(u64::MAX, |tier| tier.severity() as u64));
    }
    h.float(report.display_energy_j);
    h.float(report.counterfactual_display_j);
    h.float(report.total_energy_j);
    for column in [&report.watch_minutes, &report.initial_battery, &report.final_battery] {
        column.iter().for_each(|&x| h.float(x));
    }
    for flags in [&report.gave_up, &report.ever_selected] {
        flags.iter().for_each(|&x| h.word(u64::from(x)));
    }
    for &(mean, std) in &report.gamma_posteriors {
        h.float(mean);
        h.float(std);
    }
    h.0
}

/// Equal digests, with the two parts most likely to move compared
/// first so a mismatch names the slot or the device.
fn assert_bit_identical(a: &EmulationReport, b: &EmulationReport, case: &str) {
    assert_eq!(a.slots, b.slots, "{case}: slot records");
    assert_eq!(a.gamma_posteriors, b.gamma_posteriors, "{case}: γ posteriors");
    assert_eq!(digest(a), digest(b), "{case}");
}

#[test]
fn every_grid_cell_reproduces_its_golden_digest() {
    let moved: Vec<String> = GOLDEN
        .iter()
        .enumerate()
        .filter_map(|(k, &golden)| {
            let (policy, config) = cell(k);
            let got = digest(&Emulator::new(config, policy).run());
            (got != golden).then(|| {
                format!(
                    "cell {k}: {policy:?}, one_slot_ahead={}, num_edges={}, L9 row {}: \
                     {got:#018x} != golden {golden:#018x}",
                    config.one_slot_ahead,
                    config.num_edges,
                    k % 9
                )
            })
        })
        .collect();
    assert!(moved.is_empty(), "{} digests moved:\n{}", moved.len(), moved.join("\n"));
}

#[test]
fn baselines_ignore_the_pipelined_flag() {
    // Baselines decide inside gather, so there is nothing for the
    // worker executor to solve: the flag neither adds a decision lag
    // nor a runtime summary.
    for policy in [Policy::NoTransform, Policy::Random { seed: 5 }, Policy::LowestBattery] {
        // Configurations of three grid cells (36 per policy, 9 per lag ×
        // edges block): immediate × 1 edge, immediate × 3 edges and
        // one-slot-ahead × 3 edges, each at a different L9 row.
        for k in [72 + 4, 72 + 9 + 7, 72 + 27 + 2] {
            let (_, config) = cell(k);
            let plain = Emulator::new(config, policy).run();
            let flagged =
                Emulator::new(EmulatorConfig { pipelined: true, ..config }, policy).run();
            assert!(plain.runtime.is_none() && flagged.runtime.is_none());
            assert_bit_identical(&plain, &flagged, &format!("{policy:?}, cell {k}"));
        }
    }
}

#[test]
fn the_worker_executor_at_lag_zero_matches_the_inline_one() {
    // `pipelined` picks the executor, not the lag: with `one_slot_ahead`
    // off the workers decide each slot in that slot and reproduce the
    // inline run, golden digest included. Grid cells 3 and 15: LPVS,
    // immediate, learned γ under uniform faults, on 1 and 3 edges.
    for k in [3, 9 + 6] {
        let (policy, config) = cell(k);
        assert!(policy == Policy::Lpvs && !config.one_slot_ahead && !config.faults.is_none());
        let inline = Emulator::new(config, policy).run();
        let workers = Emulator::new(EmulatorConfig { pipelined: true, ..config }, policy).run();
        assert!(workers.runtime.as_ref().is_some_and(|summary| summary.pipelined));
        assert_bit_identical(&inline, &workers, &format!("cell {k}, {} edges", config.num_edges));
        assert_eq!(digest(&workers), GOLDEN[k], "cell {k}");
    }
}

#[test]
fn executors_agree_at_a_fifty_percent_fault_rate() {
    // Half of all devices drop, half of all γ reports are corrupt and
    // every other slot is browned out or stalled: the inline and the
    // worker executor still walk the same ladder, slot for slot.
    let config = EmulatorConfig {
        devices: 18,
        slots: 10,
        seed: 7,
        one_slot_ahead: true,
        num_edges: 3,
        faults: FaultConfig::uniform(0.5, 17),
        ..EmulatorConfig::default()
    };
    let sequential = Emulator::new(config, Policy::Lpvs).run();
    let pipelined =
        Emulator::new(EmulatorConfig { pipelined: true, ..config }, Policy::Lpvs).run();
    assert!(sequential.runtime.is_none());
    assert_eq!(pipelined.runtime.as_ref().and_then(|s| s.recovery.fell_back), None);
    let tiers = |r: &EmulationReport| r.slots.iter().map(|s| s.degradation).collect::<Vec<_>>();
    assert_eq!(tiers(&sequential), tiers(&pipelined), "per-slot ladder rungs");
    assert!(sequential.degraded_slots() > 0, "a 50 % fault rate must degrade some slot");
    assert_bit_identical(&sequential, &pipelined, "3 edges, 50 % faults");
}

/// Digests of [`cell`]`(0..216)` at the parent of the commit that
/// deleted the emulator's hand-written sequential loop.
#[rustfmt::skip]
const GOLDEN: [u64; 216] = [
    0xecb13d4867cf0eae, 0x125366ea3240a1c3, 0x149bd9dc0b2d47a0, 0x2a94fb8efa7292f1,
    0x22cf14fc7f338862, 0x6c1e4fbf3331f406, 0xd69fc3bb3b95f3ad, 0x6a856f60a5856293,
    0x37707e0032b99bfe, 0xecb13d4867cf0eae, 0x4ad9947396aac200, 0x62f3cf8fcd75ff37,
    0x3407188a770049ca, 0xd42638ecb303be25, 0x61f3d3790c5a08d2, 0x0964d965b1c2bb23,
    0x6a856f60a5856293, 0xb27f7bdc37878a74, 0xe8fe99db4e627a3c, 0xd92777e2f8ed8539,
    0x277cadb72f883be0, 0x1f367bd20955dff4, 0x4fcde68afdda371e, 0x0dfea29624834c3b,
    0xf116e0ad57a5a8f2, 0x69b1e9e4170b982d, 0x3cb1dcde1f0e5b9f, 0xe8fe99db4e627a3c,
    0xcfef4dc832fae28a, 0x905f6de87ee375d9, 0x7fdbcd4962c86a8b, 0x145a01df78e92aab,
    0x28670b6b8f28da86, 0x118dfe924708c8d1, 0x69b1e9e4170b982d, 0xc6196ec46a50a610,
    0xecb13d4867cf0eae, 0x125366ea3240a1c3, 0x149bd9dc0b2d47a0, 0x2a94fb8efa7292f1,
    0x83bc1e9e6e78ba5f, 0x6c1e4fbf3331f406, 0xd69fc3bb3b95f3ad, 0x6a856f60a5856293,
    0x37707e0032b99bfe, 0xecb13d4867cf0eae, 0x4ad9947396aac200, 0x62f3cf8fcd75ff37,
    0x3407188a770049ca, 0xd42638ecb303be25, 0x61f3d3790c5a08d2, 0x0964d965b1c2bb23,
    0x6a856f60a5856293, 0xb27f7bdc37878a74, 0xe8fe99db4e627a3c, 0xd92777e2f8ed8539,
    0x277cadb72f883be0, 0x1f367bd20955dff4, 0x7852c5a2590233c1, 0x0dfea29624834c3b,
    0xf116e0ad57a5a8f2, 0x69b1e9e4170b982d, 0x3cb1dcde1f0e5b9f, 0xe8fe99db4e627a3c,
    0xcfef4dc832fae28a, 0x905f6de87ee375d9, 0x7fdbcd4962c86a8b, 0x145a01df78e92aab,
    0x28670b6b8f28da86, 0x118dfe924708c8d1, 0x69b1e9e4170b982d, 0xc6196ec46a50a610,
    0xb40538bcd09c5002, 0x3cf6d68c07b23e7b, 0x2504de8ff191041b, 0x460c3b1f025272e5,
    0xc6d7f4a5945b8261, 0x6b9edb2a0060907e, 0x2c00907df2b00339, 0x59486f041f23559b,
    0x09eae75337a9ffdd, 0xb40538bcd09c5002, 0x3cf6d68c07b23e7b, 0x2504de8ff191041b,
    0x460c3b1f025272e5, 0xc6d7f4a5945b8261, 0x6b9edb2a0060907e, 0x2c00907df2b00339,
    0x59486f041f23559b, 0x09eae75337a9ffdd, 0xb40538bcd09c5002, 0x3cf6d68c07b23e7b,
    0x2504de8ff191041b, 0x460c3b1f025272e5, 0xc6d7f4a5945b8261, 0x6b9edb2a0060907e,
    0x2c00907df2b00339, 0x59486f041f23559b, 0x09eae75337a9ffdd, 0xb40538bcd09c5002,
    0x3cf6d68c07b23e7b, 0x2504de8ff191041b, 0x460c3b1f025272e5, 0xc6d7f4a5945b8261,
    0x6b9edb2a0060907e, 0x2c00907df2b00339, 0x59486f041f23559b, 0x09eae75337a9ffdd,
    0x2752dc5158a0a86e, 0x14a912be11e56ff7, 0x7f8c3fc703f8d293, 0x8ae7ead4b024dabd,
    0x29d5a014e59c7203, 0x1ed5711e21f55845, 0x30eb54066e419755, 0x2dae25d5efeaef33,
    0xbe83020750bad9f9, 0x2752dc5158a0a86e, 0x14a912be11e56ff7, 0x7f8c3fc703f8d293,
    0x8ae7ead4b024dabd, 0x29d5a014e59c7203, 0x1ed5711e21f55845, 0x30eb54066e419755,
    0x2dae25d5efeaef33, 0xbe83020750bad9f9, 0x626b37d480eb99dc, 0xfe90f5a0b1f66af0,
    0x748c8ef1eb9913a8, 0x542fe2a9b463db08, 0x31836c326954f837, 0xb45f311bdf765d39,
    0x3b3eba6a235ce298, 0xbc9db3004246a5c9, 0x0842cbee0cbda6a9, 0x626b37d480eb99dc,
    0xfe90f5a0b1f66af0, 0x748c8ef1eb9913a8, 0x542fe2a9b463db08, 0x31836c326954f837,
    0xb45f311bdf765d39, 0x3b3eba6a235ce298, 0xbc9db3004246a5c9, 0x0842cbee0cbda6a9,
    0x2752dc5158a0a86e, 0xf98d39df1b16f236, 0xe91a2d296898fb79, 0x01366d89479298bc,
    0xc8618fea355566e3, 0x1ed5711e21f55845, 0x0af57bf49058f84e, 0x2dae25d5efeaef33,
    0x4a826f3f7bc28afb, 0x2752dc5158a0a86e, 0xf98d39df1b16f236, 0xe91a2d296898fb79,
    0x01366d89479298bc, 0xc8618fea355566e3, 0x1ed5711e21f55845, 0x0af57bf49058f84e,
    0x2dae25d5efeaef33, 0x4a826f3f7bc28afb, 0x626b37d480eb99dc, 0xf9bb62231543610c,
    0xd7288ac9f23b7a81, 0xf4583f9ef9908eb4, 0x0909275b284de3fb, 0xb45f311bdf765d39,
    0xc84f4c1594cc224b, 0xbc9db3004246a5c9, 0xccd1882c87e274ae, 0x626b37d480eb99dc,
    0xf9bb62231543610c, 0xd7288ac9f23b7a81, 0xf4583f9ef9908eb4, 0x0909275b284de3fb,
    0xb45f311bdf765d39, 0xc84f4c1594cc224b, 0xbc9db3004246a5c9, 0xccd1882c87e274ae,
    0x2752dc5158a0a86e, 0x9b3f19358d32dc93, 0xd253a2f8ead48825, 0x41b6f3d8d3dbd06e,
    0xabe276290da68c50, 0x1ed5711e21f55845, 0x8f0e35beefd396d8, 0x2dae25d5efeaef33,
    0x82d3e286f706fc63, 0x2752dc5158a0a86e, 0x9b3f19358d32dc93, 0xd253a2f8ead48825,
    0x41b6f3d8d3dbd06e, 0xabe276290da68c50, 0x1ed5711e21f55845, 0x8f0e35beefd396d8,
    0x2dae25d5efeaef33, 0x82d3e286f706fc63, 0x626b37d480eb99dc, 0xd0f2709b1e9b9809,
    0x9fc9e766ad01ea7a, 0x52706eee3f9e865d, 0x4b18bda2363c1137, 0xb45f311bdf765d39,
    0xbf7907fbbcb29246, 0xbc9db3004246a5c9, 0x21b98598fc31a694, 0x626b37d480eb99dc,
    0xd0f2709b1e9b9809, 0x9fc9e766ad01ea7a, 0x52706eee3f9e865d, 0x4b18bda2363c1137,
    0xb45f311bdf765d39, 0xbf7907fbbcb29246, 0xbc9db3004246a5c9, 0x21b98598fc31a694,
];
