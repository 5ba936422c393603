//! The op journal of `lpvs-serve`: its bytes are a contract, and a
//! server does not pay for one it never opened.
//!
//! `ServeEngine` encodes a slot's record (op lines, the `slot` marker,
//! the `gamma` line) only when a journal file is open, and retains no
//! live slot in memory — what it holds is what its journal had at boot,
//! to re-run. Two things must survive that: the file a journaled engine
//! writes is byte for byte what it always wrote (a journal written by
//! one build is booted by the next), and a second engine booted on it
//! re-runs the same slots to the same decisions.
//!
//! It also decides the same slot by slot uninterrupted, re-run from its
//! journal, and resumed from a checkpoint, and each gather copies its
//! frontier or its fleet into the snapshot it ships, never both.
//!
//! Drives the engine through `SlotRuntime` with no sockets.

use lpvs::core::fleet::DeviceFleet;
use lpvs::core::scheduler::Degradation;
use lpvs::core::work::RowsRefilled;
use lpvs::edge::fleet::FleetConfig;
use lpvs::runtime::{
    BankOps, CheckpointConfig, GatheredSlot, RuntimeConfig, RuntimeReport, SlotFeedback,
    SlotReplay, SlotRuntime, SlotSink, SlotSource, SolvedSlot,
};
use lpvs_serve::engine::Decision;
use lpvs_serve::{serve, EngineConfig, Op, ServeConfig, ServeEngine, Shared};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lpvs-serve-journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn runtime() -> RuntimeConfig {
    RuntimeConfig {
        fleet: FleetConfig {
            num_shards: 2,
            ..FleetConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

/// The engine with its clients scripted in: a live slot's ops are
/// queued and its tick posted right before the engine asks for them; a
/// slot the journal already holds is left to the journal. Reads the
/// ops the engine retains after every `begin_slot`.
struct Scripted<F: Fn(usize) -> Vec<Op>> {
    engine: ServeEngine,
    shared: Arc<Shared>,
    script: F,
    slots: usize,
    retained: Vec<usize>,
}

impl<F: Fn(usize) -> Vec<Op>> Scripted<F> {
    fn new(devices: usize, slots: usize, journal: Option<&Path>, script: F) -> Self {
        let config = EngineConfig {
            horizon: Some(slots),
            journal: journal.map(Path::to_path_buf),
            ..EngineConfig::sized(devices)
        };
        let shared = Shared::new(&config, 4_096);
        let engine = ServeEngine::new(config, Arc::clone(&shared)).expect("journal opens");
        Self { engine, shared, script, slots, retained: Vec::new() }
    }

    fn run(&mut self, config: RuntimeConfig) -> RuntimeReport {
        let estimators = self.engine.estimators();
        SlotRuntime::new(config).run(self, estimators)
    }

    fn decisions(&self) -> BTreeMap<usize, Decision> {
        self.shared.schedules.lock().expect("schedule log").clone()
    }
}

impl<F: Fn(usize) -> Vec<Op>> SlotSource for Scripted<F> {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        let live = self.engine.journaled_through().is_none_or(|through| slot > through);
        if live && slot < self.slots {
            for op in (self.script)(slot) {
                assert!(self.shared.enqueue(op), "the queue is sized for the script");
            }
            self.shared.tick();
        }
        let ops = self.engine.begin_slot(slot)?;
        self.retained.push(self.engine.retained_ops());
        Some(ops)
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        let gathered = self.engine.gather(slot, posteriors, recycled)?;
        // Either path, never both; patched means the frontier exactly.
        let frontier = gathered.delta.as_ref().expect("serve ships deltas").len() as u64;
        let (copied, rows) = (gathered.refilled, gathered.fleet.len() as u64);
        let either = [RowsRefilled { patched: frontier, full: 0 }, RowsRefilled { patched: 0, full: rows }];
        assert!(either.contains(&copied), "slot {slot}: copied {copied:?} for a frontier of {frontier}");
        Some(gathered)
    }
}

impl<F: Fn(usize) -> Vec<Op>> SlotSink for Scripted<F> {
    fn solved(&mut self, solved: &SolvedSlot) {
        self.engine.solved(solved);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        self.engine.apply(slot)
    }
}

impl<F: Fn(usize) -> Vec<Op>> SlotReplay for Scripted<F> {
    fn stage_decision(
        &mut self,
        slot: usize,
        device_ids: &[usize],
        selected: &[bool],
        tier: Degradation,
    ) {
        self.engine.stage_decision(slot, device_ids, selected, tier);
    }

    fn replay_slot(&mut self, slot: usize) {
        self.engine.replay_slot(slot);
    }
}

fn telemetry(device: usize, energy_j: f64, observed: Option<f64>) -> Op {
    Op::Telemetry { device, energy_j: Some(energy_j), gamma: None, oled: None, observed }
}

/// Every op kind, telemetry with and without `observed`, and an empty
/// slot.
fn contract_script(slot: usize) -> Vec<Op> {
    match slot {
        0 => vec![
            Op::Arrive { device: 0, energy_j: 9_000.0, gamma: 0.4, oled: false },
            Op::Arrive { device: 1, energy_j: 21_500.5, gamma: 0.25, oled: true },
            Op::Arrive { device: 5, energy_j: 40_000.0, gamma: 0.3, oled: false },
        ],
        1 => vec![
            telemetry(0, 8_200.0, Some(0.31)),
            Op::Telemetry {
                device: 1,
                energy_j: Some(20_100.25),
                gamma: Some((0.28, 0.05)),
                oled: Some(false),
                observed: None,
            },
            Op::Telemetry { device: 5, energy_j: None, gamma: None, oled: None, observed: Some(0.27) },
        ],
        2 => vec![Op::Depart { device: 5 }, Op::Brownout { factor: 0.5 }],
        3 => Vec::new(),
        _ => vec![telemetry(0, 7_000.0, Some(0.33)), Op::Brownout { factor: 1.0 }],
    }
}

/// The journal of `contract_script`, line by line, as the parent
/// commit wrote it (PR 23: every record encoded eagerly, journal or no
/// journal) — printed by this test run against that commit.
const CONTRACT_JOURNAL: [&str; 20] = [
    r#"{"device":0,"energy_j":9000,"gamma":0.4,"oled":false,"op":"arrive"}"#,
    r#"{"device":1,"energy_j":21500.5,"gamma":0.25,"oled":true,"op":"arrive"}"#,
    r#"{"device":5,"energy_j":40000,"gamma":0.3,"oled":false,"op":"arrive"}"#,
    r#"{"op":"slot","ops":3,"queries":[],"shed":"exact","slot":0}"#,
    r#"{"op":"gamma","slot":0,"updates":[]}"#,
    r#"{"device":0,"energy_j":8200,"observed":0.31,"op":"telemetry"}"#,
    r#"{"device":1,"energy_j":20100.25,"gamma_mean":0.28,"gamma_std":0.05,"oled":false,"op":"telemetry"}"#,
    r#"{"device":5,"observed":0.27,"op":"telemetry"}"#,
    r#"{"op":"slot","ops":3,"queries":[],"shed":"exact","slot":1}"#,
    r#"{"op":"gamma","slot":1,"updates":[]}"#,
    r#"{"device":5,"op":"depart"}"#,
    r#"{"factor":0.5,"op":"brownout"}"#,
    r#"{"op":"slot","ops":2,"queries":[0,5],"shed":"exact","slot":2}"#,
    r#"{"op":"gamma","slot":2,"updates":[[0,0.31,0.029998875063277294],[5,0.27000322286185363,0.029998875063277294]]}"#,
    r#"{"op":"slot","ops":0,"queries":[],"shed":"exact","slot":3}"#,
    r#"{"op":"gamma","slot":3,"updates":[]}"#,
    r#"{"device":0,"energy_j":7000,"observed":0.33,"op":"telemetry"}"#,
    r#"{"factor":1,"op":"brownout"}"#,
    r#"{"op":"slot","ops":2,"queries":[],"shed":"exact","slot":4}"#,
    r#"{"op":"gamma","slot":4,"updates":[]}"#,
];

#[test]
fn a_journal_is_byte_equal_to_the_parents_and_reruns_to_the_same_decisions() {
    let root = scratch("contract");
    let journal = root.join("ops.journal");

    let mut unjournaled = Scripted::new(8, 5, None, contract_script);
    unjournaled.run(runtime());
    let reference = unjournaled.decisions();
    assert_eq!(reference.len(), 5);
    assert!(reference.values().any(|d| !d.selected.is_empty()), "nothing to decide");

    let mut journaled = Scripted::new(8, 5, Some(&journal), contract_script);
    journaled.run(runtime());
    assert_eq!(journaled.decisions(), reference, "journaling changed a decision");
    let golden: String = CONTRACT_JOURNAL.iter().flat_map(|line| [line, "\n"]).collect();
    let written = std::fs::read_to_string(&journal).expect("journal written");
    assert_eq!(written, golden, "the journal's bytes moved");

    // A second engine boots on the file (the crate's private parser),
    // holds all five slots, and re-runs them with no client at all —
    // writing nothing new.
    let mut rerun = Scripted::new(8, 5, Some(&journal), |_| unreachable!("no live slot"));
    assert_eq!(rerun.engine.journaled_through(), Some(4));
    rerun.run(runtime());
    assert_eq!(rerun.decisions(), reference, "the journaled re-run diverged");
    assert!(reference.values().all(|d| d.tier == Degradation::Exact));
    assert_eq!(std::fs::read_to_string(&journal).expect("journal"), golden);
    let _ = std::fs::remove_dir_all(&root);
}

/// Slot 1's marker as a server wrote it while the ladder still had a
/// Lagrangian rung between exact and greedy, shedding onto that rung.
const RETIRED_RUNG_MARKER: &str =
    r#"{"op":"slot","ops":3,"queries":[],"shed":"lagrangian","slot":1}"#;

#[test]
fn a_journal_naming_the_retired_rung_replays_under_a_greedy_floor() {
    let root = scratch("retired");
    // The contract journal's first two slots, slot 1 shed onto `shed`.
    let rerun = |shed: &str| {
        let journal = root.join(format!("{shed}.journal"));
        let marker = RETIRED_RUNG_MARKER.replace("lagrangian", shed);
        let lines = CONTRACT_JOURNAL[..10].iter().map(|&line| match line {
            r#"{"op":"slot","ops":3,"queries":[],"shed":"exact","slot":1}"# => marker.as_str(),
            line => line,
        });
        let text: String = lines.flat_map(|line| [line, "\n"]).collect();
        std::fs::write(&journal, text).expect("journal written");
        let mut engine = Scripted::new(8, 2, Some(&journal), |_| unreachable!("no live slot"));
        assert_eq!(engine.engine.journaled_through(), Some(1));
        engine.run(runtime());
        engine.decisions()
    };
    let retired = rerun("lagrangian");
    assert_eq!(retired.len(), 2);
    assert_eq!(retired[&1].shed, Degradation::Greedy);
    assert!(retired[&1].tier >= Degradation::Greedy, "{:?}", retired[&1]);
    assert_eq!(retired, rerun("greedy"), "the retired rung replays as greedy");
    let _ = std::fs::remove_dir_all(&root);
}

const DEVICES: usize = 64;

/// Slot 0 admits everyone; every later slot is a full round of
/// telemetry, half of it carrying an observation.
fn telemetry_script(slot: usize) -> Vec<Op> {
    (0..DEVICES)
        .map(|device| match slot {
            0 => Op::Arrive {
                device,
                energy_j: 5_000.0 + 700.0 * device as f64,
                gamma: 0.2 + 0.004 * device as f64,
                oled: device % 3 == 0,
            },
            _ => telemetry(
                device,
                40_000.0 - 1_500.0 * slot as f64 - 90.0 * device as f64,
                (device % 2 == 0).then_some(0.2 + 0.01 * slot as f64),
            ),
        })
        .collect()
}

#[test]
fn a_live_slot_is_not_retained() {
    let root = scratch("retained");
    let journal = root.join("ops.journal");

    // No journal: nothing is ever held, however long the server lives.
    let mut plain = Scripted::new(DEVICES, 10, None, telemetry_script);
    plain.run(runtime());
    assert_eq!(plain.retained, vec![0; 10]);

    // A journaled server that started empty holds nothing either: what
    // it writes it does not keep.
    let mut first = Scripted::new(DEVICES, 4, Some(&journal), telemetry_script);
    first.run(runtime());
    assert_eq!(first.retained, vec![0; 4]);

    // Booted on those four slots it holds their ops, and nine live
    // slots of telemetry later still exactly those.
    let booted = 4 * DEVICES;
    let mut second = Scripted::new(DEVICES, 13, Some(&journal), telemetry_script);
    assert_eq!(second.engine.journaled_through(), Some(3));
    second.run(runtime());
    assert_eq!(second.retained.len(), 13);
    assert_eq!(second.retained[0], booted);
    assert!(second.retained.windows(2).all(|w| w[1] <= w[0]), "{:?}", second.retained);
    assert_eq!(second.decisions().len(), 13);
    // The live slots went to the file all the same.
    let third = Scripted::new(DEVICES, 13, Some(&journal), telemetry_script);
    assert_eq!(third.engine.journaled_through(), Some(12));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_journal_that_cannot_be_opened_is_an_error_not_a_panic() {
    let dir = scratch("unopenable");
    let mut config = ServeConfig::loopback(4);
    config.engine.journal = Some(dir.clone());
    let booted = std::panic::catch_unwind(|| serve(config)).expect("serve must not panic");
    assert!(booted.is_err(), "a directory is not an appendable journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_directory_that_cannot_be_created_is_an_error() {
    // The slot loop runs on a thread `serve` spawns; a store it could
    // not create would stop every slot after `serve` returned `Ok`.
    let dir = scratch("uncreatable");
    let file = dir.join("a-file");
    std::fs::write(&file, b"not a directory").expect("write");
    let mut config = ServeConfig::loopback(4);
    config.checkpoint_dir = Some(file.join("checkpoints"));
    let booted = std::panic::catch_unwind(|| serve(config)).expect("serve must not panic");
    assert!(booted.is_err(), "a path under a regular file is not a checkpoint store");
    let _ = std::fs::remove_dir_all(&dir);
}

const SESSIONS: usize = 48;
const SERVE_SLOTS: usize = 9;

/// The ops of slot `slot`: everyone arrives, then a rotating telemetry
/// stream with γ observations, a panel change, a departure and a
/// return, and a brownout that comes and goes.
fn script(slot: usize) -> Vec<Op> {
    if slot == 0 {
        return (0..SESSIONS)
            .map(|device| Op::Arrive {
                device,
                energy_j: 4_000.0 + 900.0 * device as f64,
                gamma: 0.2 + 0.005 * device as f64,
                oled: device % 4 == 0,
            })
            .collect();
    }
    let mut ops: Vec<Op> = (0..5)
        .map(|k| {
            let device = (7 * slot + 11 * k) % SESSIONS;
            Op::Telemetry {
                device,
                energy_j: Some(30_000.0 - 2_500.0 * slot as f64 - 100.0 * device as f64),
                gamma: (k == 0).then_some((0.3 + 0.02 * slot as f64, 0.05)),
                oled: (k == 1).then_some(slot.is_multiple_of(2)),
                observed: (k >= 2).then_some(0.25 + 0.01 * (slot + k) as f64),
            }
        })
        .collect();
    match slot {
        3 => ops.push(Op::Depart { device: 5 }),
        4 => ops.push(Op::Brownout { factor: 0.5 }),
        6 => {
            ops.push(Op::Brownout { factor: 1.0 });
            ops.push(Op::Arrive { device: 5, energy_j: 9_000.0, gamma: 0.4, oled: false });
        }
        _ => {}
    }
    ops
}

#[test]
fn serve_decides_the_same_uninterrupted_rerun_and_resumed() {
    let root = scratch("serve");
    let scripted = |journal: Option<&Path>| Scripted::new(SESSIONS, SERVE_SLOTS, journal, script);

    let mut uninterrupted = scripted(None);
    uninterrupted.run(runtime());
    let reference = uninterrupted.decisions();
    assert_eq!(reference.len(), SERVE_SLOTS);
    assert!(
        reference.values().any(|d| !d.selected.is_empty()),
        "the script must give the solver something to select"
    );

    // A journaled run, then a fresh engine re-running that journal from
    // slot 0 with no clients at all.
    let journal = root.join("ops.journal");
    let mut journaled = scripted(Some(&journal));
    journaled.run(runtime());
    assert_eq!(journaled.decisions(), reference, "journaling changed a decision");
    let mut rerun = scripted(Some(&journal));
    assert_eq!(rerun.engine.journaled_through(), Some(SERVE_SLOTS - 1));
    rerun.run(runtime());
    assert_eq!(rerun.decisions(), reference, "the journaled re-run diverged");

    // A checkpointed run killed after slot 5, resumed by a fresh engine:
    // decided slots replay, the rest re-run from the journal or live.
    let journal = root.join("halted.journal");
    let checkpoints = CheckpointConfig { interval: 2, ..CheckpointConfig::new(root.join("ckpt")) };
    let mut halted = scripted(Some(&journal));
    halted.run(RuntimeConfig {
        halt_after_slot: Some(5),
        checkpoints: Some(checkpoints.clone()),
        ..runtime()
    });
    assert_eq!(halted.decisions().len(), 6);
    let mut resumed = scripted(Some(&journal));
    let report = SlotRuntime::new(RuntimeConfig { checkpoints: Some(checkpoints), ..runtime() })
        .resume(&mut resumed)
        .expect("resume from manifest");
    assert!(report.summary.recovery.resumed_at.is_some_and(|at| at > 0 && at <= 5));
    assert_eq!(resumed.decisions(), reference, "the checkpoint resume diverged");
    let _ = std::fs::remove_dir_all(&root);
}
