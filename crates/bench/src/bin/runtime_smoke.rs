//! CI smoke for the worker executor's supervised recovery: a pipelined
//! trace-driven run over two shards with 10% stage faults, *repeated*
//! worker deaths (each faulted shard dies again on its first respawn),
//! and deliberately corrupted checkpoint files must absorb every death
//! through the checkpoint/respawn ladder — no sequential fallback —
//! and still reproduce the sequential engine bit-for-bit. A fault-free
//! control run pins the healthy path, and a faulted replay pins
//! determinism: worker death and checkpoint corruption are both
//! hash-derived, so the whole recovery story reproduces exactly.
//!
//! Leaves telemetry behind for CI artifacts: `obs_trace.json` (the
//! faulted run's Perfetto-loadable trace) and `obs_flight.jsonl` (one
//! blackbox flight recording per worker death).

use lpvs_core::baseline::Policy;
use lpvs_emulator::engine::{CheckpointSpec, Emulator, EmulatorConfig};
use lpvs_emulator::FaultConfig;
use lpvs_trace::generator::TraceGenerator;

/// The run's checkpoint stores, removed when dropped — a failed assertion included.
struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    // The busiest eligible live session of the paper-calibrated trace,
    // selected exactly as `experiment::trace_driven` does.
    let trace = TraceGenerator::paper_scale(2024).generate();
    let (channel, viewers, slots) = trace
        .sessions()
        .filter_map(|(c, s)| {
            let viewers = s.mean_viewers().round() as usize;
            ((20..=500).contains(&viewers))
                .then(|| (c.id().0, viewers, (s.duration_slots() as usize).clamp(1, 24)))
        })
        .max_by_key(|&(id, viewers, _)| (viewers, std::cmp::Reverse(id)))
        .expect("paper-scale trace has eligible sessions");
    println!("session: channel {channel}, {viewers} viewers, {slots} slots, 2 shards");

    let config = EmulatorConfig {
        devices: viewers,
        slots,
        seed: 31 ^ u64::from(channel),
        server_streams: 100,
        lambda: 1.0,
        num_edges: 2,
        one_slot_ahead: true,
        pipelined: true,
        ..EmulatorConfig::default()
    };

    // Control: the healthy pipeline serves the whole session.
    let clean = Emulator::new(config, Policy::Lpvs).run();
    let summary = clean.runtime.clone().expect("pipelined run reports a runtime summary");
    assert!(summary.pipelined && summary.shards == 2, "control run must be pipelined ×2");
    assert_eq!(summary.recovery.fell_back, None, "control run must not fall back");
    assert_eq!(summary.workers_lost, 0, "control run must keep both workers");
    assert_eq!(clean.slots.len(), slots, "control run must cover the horizon");
    println!("control: {} slots pipelined, no fallback", clean.slots.len());

    // The sequential reference the recovered run must match bit-for-bit
    // (stage faults and checkpoints are pipeline-only concepts; the
    // sequential engine ignores them).
    let sequential =
        Emulator::new(EmulatorConfig { pipelined: false, ..config }, Policy::Lpvs).run();

    // Kill-and-restore: 10% per-(slot, shard) stage faults with
    // `repeat: 1` (every faulted shard dies *again* on its first
    // respawn), checkpoints every 2 slots, and a 25% chance each
    // written checkpoint is corrupted on disk. The supervisor must ride
    // the full ladder — checksum-reject, older generation, journal
    // replay, respawn, re-dispatch — without ever falling back.
    let faulted_config = EmulatorConfig {
        faults: FaultConfig {
            stage_fault_rate: 0.10,
            stage_fault_repeat: 1,
            checkpoint_corrupt_rate: 0.25,
            ..FaultConfig::none()
        },
        ..config
    };
    let scratch = Scratch(std::env::temp_dir().join(format!("lpvs-runtime-smoke-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&scratch.0);
    let spec = |tag| CheckpointSpec { interval: 2, ..CheckpointSpec::new(scratch.0.join(tag)) };
    // Trace the faulted run only: reset so the control and sequential
    // runs' spans don't dilute the artifact.
    let recorder = lpvs_obs::init();
    recorder.reset();
    let faulted = Emulator::new(faulted_config, Policy::Lpvs)
        .with_checkpoints(spec("faulted"))
        .run();
    lpvs_obs::set_enabled(false);
    let span_events = recorder.drain_events();
    let summary = faulted.runtime.clone().expect("faulted run reports a runtime summary");
    assert!(summary.workers_lost > 0, "10% stage faults over {slots}x2 must kill a worker");
    assert_eq!(
        summary.recovery.fell_back, None,
        "supervised recovery must absorb every worker death"
    );
    let recovery = &summary.recovery;
    assert_eq!(recovery.total_deaths() as usize, summary.workers_lost);
    assert!(
        recovery.shards.iter().any(|s| s.retries >= 2),
        "repeat faults must force at least one shard through two respawns"
    );
    assert!(recovery.checkpoints_written > 0, "interval-2 checkpointing must write snapshots");
    assert!(
        recovery.checkpoints_corrupted > 0,
        "a 25% corruption rate over {} checkpoints must corrupt one",
        recovery.checkpoints_written
    );
    assert_eq!(faulted.slots.len(), slots, "faulted run must still cover the horizon");
    assert!(
        faulted.slots.iter().all(|s| s.watching == 0 || s.degradation.is_some()),
        "every watched slot must record a degradation tier"
    );
    println!(
        "faulted: {} death(s), {} respawn(s), {} checkpoint(s) written ({} corrupted), \
         {} generation(s) rejected, no fallback",
        recovery.total_deaths(),
        recovery.shards.iter().map(|s| s.retries).sum::<u32>(),
        recovery.checkpoints_written,
        recovery.checkpoints_corrupted,
        recovery.generations_rejected,
    );

    // The recovered run is not merely complete — it is the same
    // computation: bit-identical to the sequential one-slot-ahead
    // engine despite every death and corrupted snapshot along the way.
    assert_eq!(faulted.gamma_posteriors, sequential.gamma_posteriors);
    assert_eq!(faulted.display_energy_j, sequential.display_energy_j);
    assert_eq!(faulted.total_energy_j, sequential.total_energy_j);
    assert_eq!(faulted.final_battery, sequential.final_battery);
    assert_eq!(faulted.gave_up, sequential.gave_up);
    println!("recovered run is bit-identical to the sequential engine");

    // Stage faults and corruption are hash-derived, not sampled: the
    // replay must reproduce the whole recovery story bit-for-bit.
    let replay = Emulator::new(faulted_config, Policy::Lpvs)
        .with_checkpoints(spec("replay"))
        .run();
    let replay_summary = replay.runtime.clone().expect("summary");
    assert_eq!(replay_summary.recovery, summary.recovery);
    assert_eq!(replay.gamma_posteriors, faulted.gamma_posteriors);
    assert_eq!(replay.display_energy_j, faulted.display_energy_j);
    println!("replay: recovery report and results reproduce bit-for-bit");

    // CI artifacts: the faulted run's causal trace and the blackbox
    // recordings its worker deaths left behind.
    assert!(!summary.recovery.flight.is_empty(), "deaths must leave flight recordings");
    std::fs::write("obs_trace.json", lpvs_obs::sink::events_to_chrome_trace(&span_events))
        .expect("write obs_trace.json");
    std::fs::write("obs_flight.jsonl", lpvs_runtime::flight_to_jsonl(&summary.recovery.flight))
        .expect("write obs_flight.jsonl");
    println!(
        "wrote obs_trace.json ({} spans) and obs_flight.jsonl ({} recordings)",
        span_events.len(),
        summary.recovery.flight.len(),
    );
    println!("runtime smoke OK");
}
