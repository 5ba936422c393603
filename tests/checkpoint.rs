//! Checkpoint/restore and supervised-recovery invariants.
//!
//! The snapshot codec must be lossless down to the bit: restoring a
//! sealed shard snapshot reproduces every fleet column and every γ
//! posterior exactly, for any shard count, slices that skip rows
//! included. On
//! top of that, the recovery ladder must be *semantically invisible* —
//! a pipelined run that loses workers repeatedly, restores them from
//! (possibly corrupted) checkpoints, or is halted and resumed
//! mid-horizon still reproduces the sequential engine bit-for-bit. A
//! store whose banks hold estimators away from their home shard still
//! resumes: ownership is whatever the restored banks hold.

use lpvs::bayes::codec::bank_to_bytes;
use lpvs::bayes::{BayesBank, GammaEstimator};
use lpvs::core::baseline::Policy;
use lpvs::core::fleet::{DeviceFleet, FleetDevice};
use lpvs::core::problem::DeviceRequest;
use lpvs::display::spec::DisplayKind;
use lpvs::edge::fleet::FleetConfig;
use lpvs::emulator::engine::{CheckpointSpec, Emulator, EmulatorConfig};
use lpvs::emulator::FaultConfig;
use lpvs::runtime::checkpoint::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use lpvs::core::scheduler::Degradation;
use lpvs::runtime::{
    BankOps, CheckpointConfig, CheckpointStore, GatheredSlot, RuntimeConfig, ShardSnapshot,
    SlotFeedback, SlotReplay, SlotRuntime, SlotSink, SlotSource, SolvedSlot, SyntheticConfig,
    SyntheticDriver,
};
use lpvs_codec::{crc64, CodecError, Writer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh scratch directory per test invocation (no tempfile crate),
/// and the guard that removes it when the test ends, failing or not.
fn scratch(tag: &str) -> (PathBuf, Scratch) {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lpvs-checkpoint-it-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    (dir.clone(), Scratch(dir))
}

struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bit-compare everything deterministic about two reports.
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

/// A seeded fleet row with awkward float values in every column.
fn fleet_row(seed: u64) -> FleetDevice {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE_7B0B);
    let chunks = rng.gen_range(1..12);
    let request = DeviceRequest::new(
        (0..chunks).map(|_| rng.gen_range(0.3..3.0)).collect(),
        rng.gen_range(1.0..15.0),
        rng.gen_range(0.0..55_440.0),
        55_440.0,
        rng.gen_range(0.0..0.95),
        rng.gen_range(0.1..2.5),
        rng.gen_range(0.01..0.4),
    );
    FleetDevice {
        request,
        display: if seed.is_multiple_of(3) { DisplayKind::Oled } else { DisplayKind::Lcd },
        gamma_std: rng.gen_range(0.0..0.2),
        connected: seed % 5 != 2,
    }
}

/// Estimators with learning history, so posteriors carry non-trivial
/// state into the snapshot.
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tentpole invariant: `restore(snapshot(state))` is the identity,
    /// bit-for-bit — every fleet column and every posterior — across
    /// 1–4 shards, with and without mid-range rows (disconnected, so no
    /// shard solves them) missing from the shard slices.
    #[test]
    fn snapshot_restore_is_bit_exact_for_every_column_and_posterior(
        n in 1usize..32,
        shards in 1usize..=4,
        gapped in any::<bool>(),
        seed in any::<u64>(),
        observations in prop::collection::vec((0usize..32, 0.0f64..0.9), 0..48),
    ) {
        let gaps = if gapped { vec![n / 4, n / 4 + 1, 2 * n / 3] } else { vec![] };
        let runtime = SlotRuntime::new(RuntimeConfig {
            fleet: FleetConfig { num_shards: shards, ..FleetConfig::default() },
            ..RuntimeConfig::default()
        });
        let owner = runtime.home_shards(n);
        let banks =
            BayesBank::from_estimators(learned_estimators(n, &observations))
                .split(shards, |d| owner[d]);
        let mut fleet = DeviceFleet::new();
        for d in 0..n {
            fleet.push(fleet_row(seed.wrapping_add(d as u64)));
        }

        for (s, bank) in banks.iter().enumerate() {
            let indices: Vec<usize> =
                (0..n).filter(|&d| owner[d] == s && !gaps.contains(&d)).collect();
            let slice = fleet.slice_rows(&indices);
            let bytes =
                ShardSnapshot::seal(s, 7, &bank_to_bytes(bank), Some((&indices, &slice)), None);
            let decoded = ShardSnapshot::decode(&bytes).expect("snapshot decodes");
            prop_assert_eq!(decoded.shard, s);
            prop_assert_eq!(decoded.slot, 7);

            // Every posterior, bit for bit.
            prop_assert_eq!(&decoded.bank, bank);
            for d in bank.devices() {
                prop_assert_eq!(decoded.bank.posterior(d), bank.posterior(d));
            }

            // Every fleet column, bit for bit: the columnar store's
            // PartialEq is float-exact, and the per-row accessors pin
            // the columns individually.
            let restored = decoded.fleet.expect("snapshot carried a fleet slice");
            prop_assert_eq!(&restored.device_ids, &indices);
            prop_assert_eq!(&restored.fleet, &slice);
            for (row, &d) in indices.iter().enumerate() {
                let original = fleet.device(d);
                prop_assert_eq!(restored.fleet.device(row), original);
                prop_assert_eq!(restored.fleet.device_request(row), fleet.device_request(d));
            }
        }
    }
}

/// Hand-seals a shard snapshot of `fleet` stamped `version`: every
/// column as the fleet codec writes it, except the duration column,
/// which holds `durations(row)` for each row in turn — one Δ a row in
/// the version-3 layout, one a chunk in the version-1/2 layout. Version
/// 1 has no memo section.
fn seal_by_hand(
    version: u32,
    device_ids: &[usize],
    fleet: &DeviceFleet,
    durations: impl Fn(usize) -> Vec<f64>,
) -> Vec<u8> {
    let rows = 0..fleet.len();
    let per_row = |column: fn(&DeviceFleet, usize) -> f64| -> Vec<f64> {
        rows.clone().map(|i| column(fleet, i)).collect()
    };
    let mut offsets = vec![0];
    let (mut rates, mut secs) = (Vec::new(), Vec::new());
    for i in rows.clone() {
        rates.extend_from_slice(fleet.rates(i));
        secs.extend(durations(i));
        offsets.push(rates.len());
    }
    let mut p = Writer::new();
    p.put_usize(0); // shard
    p.put_usize(5); // slot
    p.put_bytes(&bank_to_bytes(&BayesBank::from_estimators(learned_estimators(3, &[]))));
    p.put_bool(true);
    p.put_usizes(device_ids);
    p.put_usizes(&offsets);
    p.put_f64s(&rates);
    p.put_f64s(&secs);
    for column in [
        DeviceFleet::energy_j,
        DeviceFleet::capacity_j,
        DeviceFleet::gamma_mean,
        DeviceFleet::gamma_std,
        DeviceFleet::compute_cost,
        DeviceFleet::storage_cost_gb,
    ] {
        p.put_f64s(&per_row(column));
    }
    p.put_usize(fleet.len());
    for i in rows.clone() {
        p.put_u8(u8::from(fleet.display(i) == DisplayKind::Oled));
    }
    p.put_bools(&rows.map(|i| fleet.connected(i)).collect::<Vec<_>>());
    if version >= 2 {
        p.put_bool(false); // no memo
    }
    let payload = p.into_bytes();
    let mut w = Writer::new();
    w.put_u64(SNAPSHOT_MAGIC);
    w.put_u32(version);
    w.put_usize(payload.len());
    w.put_u64(crc64(&payload));
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(&payload);
    bytes
}

/// A slice of awkward rows (mixed chunk counts, one Δ each) and its ids.
fn mixed_slice() -> (Vec<usize>, DeviceFleet) {
    let mut fleet = DeviceFleet::new();
    for d in 0..24 {
        fleet.push(fleet_row(0xC0DE + d));
    }
    let ids: Vec<usize> = (0..fleet.len()).filter(|d| d % 5 != 1).collect();
    let slice = fleet.slice_rows(&ids);
    (ids, slice)
}

/// Row `i`'s Δ, once (the version-3 layout).
fn row_secs(fleet: &DeviceFleet) -> impl Fn(usize) -> Vec<f64> + '_ {
    |i| vec![fleet.chunk_secs(i)]
}

/// Row `i`'s Δ, once per chunk (the version-1/2 layout).
fn chunk_secs(fleet: &DeviceFleet) -> impl Fn(usize) -> Vec<f64> + '_ {
    |i| vec![fleet.chunk_secs(i); fleet.num_chunks(i)]
}

/// Snapshots sealed before chunk durations became a row scalar: a row
/// whose per-chunk durations are all one Δ decodes to that Δ, so a v1
/// or v2 snapshot restores the same slice as its re-seal in the v3
/// fleet layout (which version 4 keeps).
#[test]
fn a_legacy_snapshot_with_uniform_rows_decodes_to_its_v3_reseal() {
    let (ids, slice) = mixed_slice();
    // The hand sealer writes the layout `ShardSnapshot::seal` does.
    let bank = bank_to_bytes(&BayesBank::from_estimators(learned_estimators(3, &[])));
    let v3 = ShardSnapshot::seal(0, 5, &bank, Some((&ids, &slice)), None);
    assert_eq!(seal_by_hand(SNAPSHOT_VERSION, &ids, &slice, row_secs(&slice)), v3);
    let hand_v3 = ShardSnapshot::decode(&seal_by_hand(3, &ids, &slice, row_secs(&slice)));
    assert_eq!(hand_v3, ShardSnapshot::decode(&v3), "a v3 file decodes as its v4 twin");
    for version in [1, 2] {
        let legacy = seal_by_hand(version, &ids, &slice, chunk_secs(&slice));
        let decoded = ShardSnapshot::decode(&legacy).expect("legacy snapshot decodes");
        let restored = decoded.fleet.clone().expect("legacy snapshot carried a slice");
        assert_eq!(restored.fleet, slice, "v{version}");
        assert_eq!(restored.device_ids, ids);
        let bank = bank_to_bytes(&decoded.bank);
        let resealed = ShardSnapshot::seal(
            decoded.shard,
            decoded.slot,
            &bank,
            Some((&restored.device_ids, &restored.fleet)),
            None,
        );
        let again = ShardSnapshot::decode(&resealed).expect("v3 re-seal decodes");
        assert_eq!(again.fleet, Some(restored), "v{version}");
        assert_eq!(again.bank, decoded.bank);
    }
}

/// A legacy row whose chunks disagree on Δ — by one ulp in one chunk —
/// has no row scalar to become, so the snapshot fails closed.
#[test]
fn a_legacy_snapshot_with_a_mixed_duration_row_fails_closed() {
    let (ids, slice) = mixed_slice();
    let row = (0..slice.len()).find(|&i| slice.num_chunks(i) >= 2).expect("a multi-chunk row");
    let mixed = |i: usize| {
        let mut secs = chunk_secs(&slice)(i);
        if i == row {
            secs[1] = f64::from_bits(secs[1].to_bits() + 1);
        }
        secs
    };
    for version in [1, 2] {
        assert_eq!(
            ShardSnapshot::decode(&seal_by_hand(version, &ids, &slice, mixed)),
            Err(CodecError::Malformed("legacy chunk durations")),
            "v{version}"
        );
    }
}

/// A v3 snapshot holds one finite, positive Δ per row: a duration per
/// chunk, or a Δ that is zero, negative or not finite, is malformed.
#[test]
fn a_v3_snapshot_rejects_a_bad_duration_column() {
    let (ids, slice) = mixed_slice();
    assert_eq!(
        ShardSnapshot::decode(&seal_by_hand(3, &ids, &slice, chunk_secs(&slice))),
        Err(CodecError::Malformed("scalar column lengths"))
    );
    for bad in [0.0, -10.0, f64::NAN, f64::INFINITY] {
        let secs = |i: usize| vec![if i == 2 { bad } else { slice.chunk_secs(i) }];
        assert_eq!(
            ShardSnapshot::decode(&seal_by_hand(3, &ids, &slice, secs)),
            Err(CodecError::Malformed("chunk durations")),
            "Δ = {bad}"
        );
    }
}

/// A v3 snapshot stores a device's Δ once instead of once per chunk:
/// at K = 30 it is 8·(K − 1) bytes a device smaller than v2.
#[test]
fn v3_snapshots_are_eight_bytes_per_extra_chunk_smaller_than_v2() {
    const K: usize = 30;
    let mut fleet = DeviceFleet::new();
    for d in 0..40 {
        let mut row = fleet_row(d);
        row.request = DeviceRequest::uniform(1.1, 10.0, K, 20_000.0, 55_440.0, 0.3, 1.0, 0.1);
        fleet.push(row);
    }
    let ids: Vec<usize> = (0..fleet.len()).collect();
    let v2 = seal_by_hand(2, &ids, &fleet, chunk_secs(&fleet));
    let bank = bank_to_bytes(&BayesBank::from_estimators(learned_estimators(3, &[])));
    let v3 = ShardSnapshot::seal(0, 5, &bank, Some((&ids, &fleet)), None);
    assert_eq!(v2.len() - v3.len(), fleet.len() * 8 * (K - 1));
    assert_eq!(
        ShardSnapshot::decode(&v2).expect("v2 decodes"),
        ShardSnapshot::decode(&v3).expect("v3 decodes")
    );
}

#[test]
fn a_flipped_byte_is_rejected_and_an_older_generation_restores() {
    let (dir, _scratch) = scratch("corrupt");
    let config = CheckpointConfig { interval: 1, ..CheckpointConfig::new(&dir) };
    let mut store = CheckpointStore::create(&config, 1).expect("store");

    let old = BayesBank::from_estimators(learned_estimators(5, &[(0, 0.3), (3, 0.5)]));
    store.begin_round(0, vec![0]);
    store.persist_shard(0, 0, &bank_to_bytes(&old), None).expect("persist gen 0");
    let new = BayesBank::from_estimators(learned_estimators(5, &[(0, 0.3), (3, 0.5), (4, 0.2)]));
    store.begin_round(1, vec![0]);
    store.persist_shard(0, 1, &bank_to_bytes(&new), None).expect("persist gen 1");

    // Flip one byte in the newest snapshot file on disk.
    let newest = std::fs::read_dir(dir.join("shard-0"))
        .expect("shard dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .max()
        .expect("snapshot files exist");
    let mut bytes = std::fs::read(&newest).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).expect("write corrupted snapshot");

    // The checksum rejects the flipped generation; the ladder falls
    // through to the older one, which restores the older bank exactly.
    let (generation, snapshot) = store.restore_latest(0).expect("older generation survives");
    assert_eq!(generation.slot, 0, "restore must fall back to the slot-0 generation");
    assert_eq!(snapshot.bank, old);
    assert_eq!(store.generations_rejected(), 1);
}

/// The emulator config every end-to-end recovery test shares.
fn recovery_config() -> EmulatorConfig {
    EmulatorConfig {
        devices: 16,
        slots: 12,
        seed: 7,
        one_slot_ahead: true,
        num_edges: 2,
        ..EmulatorConfig::default()
    }
}

#[test]
fn repeated_worker_deaths_recover_from_checkpoints_without_fallback() {
    // 25% stage faults with repeat 1: every faulted shard dies, is
    // respawned from its checkpoint + journal, and dies *again* before
    // the second respawn sticks. The run must stay pipelined and match
    // the sequential engine bit for bit.
    let config = EmulatorConfig {
        faults: FaultConfig {
            stage_fault_rate: 0.25,
            stage_fault_repeat: 1,
            ..FaultConfig::none()
        },
        ..recovery_config()
    };
    let (sequential, (dir, _scratch)) = (Emulator::new(config, Policy::Lpvs).run(), scratch("kill"));
    let pipelined = Emulator::new(EmulatorConfig { pipelined: true, ..config }, Policy::Lpvs)
        .with_checkpoints(CheckpointSpec { interval: 2, ..CheckpointSpec::new(&dir) })
        .run();
    let summary = pipelined.runtime.clone().expect("summary");
    assert!(summary.workers_lost > 0, "25% faults over 12x2 must kill a worker");
    assert_eq!(summary.recovery.fell_back, None, "recovery must absorb every death");
    assert!(
        summary.recovery.shards.iter().any(|s| s.retries >= 2),
        "repeat faults must force a shard through two respawns"
    );
    assert!(summary.recovery.checkpoints_written > 0);
    assert!(
        summary.recovery.shards.iter().any(|s| s.generation_used.is_some()),
        "at least one restore must come from a checkpoint generation"
    );
    assert_bit_identical(&sequential, &pipelined);
}

#[test]
fn corrupted_checkpoints_do_not_perturb_the_run() {
    // Half of all written checkpoints are corrupted on disk. Restores
    // ride the older-generation rung (or, if a shard's whole ladder is
    // gone, the run falls back) — either way the result is bit-exact.
    let config = EmulatorConfig {
        faults: FaultConfig {
            stage_fault_rate: 0.25,
            stage_fault_repeat: 1,
            checkpoint_corrupt_rate: 0.5,
            ..FaultConfig::none()
        },
        ..recovery_config()
    };
    let (sequential, (dir, _scratch)) = (Emulator::new(config, Policy::Lpvs).run(), scratch("corrupt-run"));
    let pipelined = Emulator::new(EmulatorConfig { pipelined: true, ..config }, Policy::Lpvs)
        .with_checkpoints(CheckpointSpec {
            interval: 2,
            ..CheckpointSpec::new(&dir)
        })
        .run();
    let summary = pipelined.runtime.clone().expect("summary");
    assert!(summary.workers_lost > 0);
    assert!(
        summary.recovery.checkpoints_corrupted > 0,
        "a 50% corruption rate over {} checkpoints must corrupt one",
        summary.recovery.checkpoints_written
    );
    assert_bit_identical(&sequential, &pipelined);
}

#[test]
fn a_halted_run_resumes_mid_horizon_bit_identically() {
    // Halt the hub after slot 5 (manifest lands at the newest complete
    // round), then resume from the same store: the stitched run must be
    // bit-identical to one that never stopped — and to the sequential
    // engine — including under telemetry faults.
    let config = EmulatorConfig {
        faults: FaultConfig::uniform(0.2, 11),
        pipelined: true,
        ..recovery_config()
    };
    let sequential =
        Emulator::new(EmulatorConfig { pipelined: false, ..config }, Policy::Lpvs).run();
    let uninterrupted = Emulator::new(config, Policy::Lpvs).run();
    assert_bit_identical(&sequential, &uninterrupted);

    let (dir, _scratch) = scratch("resume");
    let halted = Emulator::new(config, Policy::Lpvs)
        .with_checkpoints(CheckpointSpec {
            interval: 2,
            halt_after: Some(5),
            ..CheckpointSpec::new(&dir)
        })
        .run();
    assert_eq!(halted.slots.len(), 6, "the halted run stops after slot 5");

    let resumed = Emulator::new(config, Policy::Lpvs)
        .with_checkpoints(CheckpointSpec {
            interval: 2,
            resume: true,
            ..CheckpointSpec::new(&dir)
        })
        .run();
    let summary = resumed.runtime.clone().expect("summary");
    let at = summary.recovery.resumed_at.expect("resumed run records its entry slot");
    assert!(at <= 5 && at.is_multiple_of(2), "resume enters at the newest complete round, got {at}");
    assert_eq!(resumed.slots.len(), 12, "the resumed run completes the horizon");
    assert_bit_identical(&uninterrupted, &resumed);
}

/// Asks every device's γ each slot, solves nothing, and reports one
/// observation per device — bank traffic only, with the answers kept.
struct Querying {
    devices: usize,
    slots: usize,
    /// The posteriors each gather was handed, slot order.
    answers: Vec<Vec<(f64, f64)>>,
}

const OBSERVED: f64 = 0.3;

impl SlotSource for Querying {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        (slot < self.slots)
            .then(|| BankOps { forgets: Vec::new(), queries: (0..self.devices).collect() })
    }

    fn gather(
        &mut self,
        _slot: usize,
        posteriors: &[(f64, f64)],
        _recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        self.answers.push(posteriors.to_vec());
        None
    }
}

impl SlotSink for Querying {
    fn solved(&mut self, _solved: &SolvedSlot) {
        unreachable!("every slot is idle");
    }

    fn apply(&mut self, _slot: usize) -> SlotFeedback {
        SlotFeedback { observations: (0..self.devices).map(|d| (d, OBSERVED)).collect() }
    }
}

impl SlotReplay for Querying {
    fn stage_decision(&mut self, _: usize, _: &[usize], _: &[bool], _: Degradation) {}

    fn replay_slot(&mut self, _slot: usize) {}
}

/// A store sealed with a device's estimator in a foreign shard's bank —
/// what a build that moved estimators after the rebalance could leave —
/// resumes with the estimator where it is: the owner map comes from the
/// restored banks, so the device's γ queries and observations reach
/// that bank (a query at its home bank would kill the worker there).
#[test]
fn a_resumed_store_routes_a_foreign_device_to_the_bank_that_holds_it() {
    let (dir, _scratch) = scratch("foreign");
    let checkpoints = CheckpointConfig::new(&dir);
    let runtime = SlotRuntime::new(RuntimeConfig {
        fleet: FleetConfig { num_shards: 2, ..FleetConfig::default() },
        checkpoints: Some(checkpoints.clone()),
        ..RuntimeConfig::default()
    });
    let (devices, foreign, sealed_at) = (6, 4, 3);
    let estimators = learned_estimators(devices, &[(1, 0.2), (foreign, 0.45), (foreign, 0.47)]);
    let home = runtime.home_shards(devices);
    assert_eq!(home[foreign], 1);
    let banks = BayesBank::from_estimators(estimators.clone())
        .split(2, |d| if d == foreign { 0 } else { home[d] });
    let mut store = CheckpointStore::create(&checkpoints, 2).expect("store opens");
    store.begin_round(sealed_at, vec![0, 0]);
    for (s, bank) in banks.iter().enumerate() {
        store.persist_shard(s, sealed_at, &bank_to_bytes(bank), None).expect("persist");
    }

    let mut driver = Querying { devices, slots: sealed_at + 2, answers: Vec::new() };
    let report = runtime.resume(&mut driver).expect("resume from the sealed round");
    assert_eq!(report.summary.recovery.resumed_at, Some(sealed_at));
    assert_eq!((report.summary.workers_lost, report.summary.recovery.fell_back), (0, None));

    // Each slot's answers are the bank after the observations before it.
    let mut reference = BayesBank::from_estimators(estimators);
    for answers in &driver.answers {
        let expected: Vec<(f64, f64)> = (0..devices).map(|d| reference.posterior(d)).collect();
        assert_eq!(answers, &expected);
        for d in 0..devices {
            reference.observe_or_forget(d, OBSERVED);
        }
    }
    assert_eq!(driver.answers.len(), 2);
    assert_eq!(report.estimators, reference.into_dense());
}

/// A synthetic run whose store loses its `shard-0/` directory once the
/// first round is sealed: `apply(0)` swaps it for a plain file, so every
/// later snapshot of shard 0 fails to write (ENOTDIR, whatever the user).
struct Sabotaged {
    inner: SyntheticDriver,
    /// The store to break, if this run breaks it.
    store: Option<std::path::PathBuf>,
}

impl SlotSource for Sabotaged {
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

impl SlotSink for Sabotaged {
    fn solved(&mut self, solved: &SolvedSlot) {
        self.inner.solved(solved);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        if let Some(dir) = self.store.as_ref().filter(|_| slot == 0) {
            let shard = dir.join("shard-0");
            std::fs::remove_dir_all(&shard).expect("the first round wrote shard 0");
            std::fs::write(&shard, b"").expect("a plain file where the directory was");
        }
        self.inner.apply(slot)
    }
}

/// A durable write that fails is counted, not dropped, and moves no
/// decision: with shard 0's directory gone after the first round, each
/// later round's shard-0 snapshot fails — one error a round — while the
/// run serves the decisions and estimators of an unbroken one.
#[test]
fn failed_checkpoint_writes_are_counted_and_move_no_decision() {
    let slots = 6;
    let run = |tag: &str, sabotage: bool| {
        let (dir, _scratch) = scratch(tag);
        let runtime = SlotRuntime::new(RuntimeConfig {
            fleet: FleetConfig { num_shards: 2, ..FleetConfig::default() },
            checkpoints: Some(CheckpointConfig { interval: 1, ..CheckpointConfig::new(&dir) }),
            ..RuntimeConfig::default()
        });
        let inner = SyntheticDriver::new(SyntheticConfig::steady(200, slots, 7));
        let estimators = inner.estimators();
        let mut driver = Sabotaged { inner, store: sabotage.then(|| dir.clone()) };
        let report = runtime.run(&mut driver, estimators);
        (driver.inner.records().to_vec(), report)
    };
    let (clean, clean_report) = run("writes-clean", false);
    let (broken, broken_report) = run("writes-broken", true);
    assert_eq!(broken.len(), slots);
    assert_eq!(broken, clean, "a failed write moves no decision");
    assert_eq!(broken_report.estimators, clean_report.estimators);
    assert_eq!(clean_report.summary.recovery.write_errors, 0);
    assert_eq!(broken_report.summary.recovery.write_errors, slots - 1, "one failed snapshot a later round");
    assert_eq!(broken_report.summary.recovery.checkpoints_written, 2 * slots - (slots - 1));
}
