//! Checkpoint overhead and restore latency of the supervised-recovery
//! subsystem.
//!
//! Sweeps the checkpoint interval over an emulator run on the worker
//! executor — `off` (no store) as the baseline, then every 16, 8, 4, 2,
//! and 1 slots — and reports the wall-clock overhead each interval
//! adds. Checkpointing must be *semantically* free (the sweep
//! cross-checks that every interval reproduces the baseline's γ
//! posteriors bit-for-bit) and *temporally* cheap: at the default
//! interval of 8 the design target is ≤ 5% of slot wall-time.
//!
//! **What this run can and cannot show.** Seven full runs on the 2-core
//! reference host (6 s each since the solve went linear) read the
//! interval-8 overhead at −8.3 … +3.1 % (median −0.5, quartile distance
//! 7 points); one smoke sweep read −7.75 % and +8.31 %. The effect
//! itself is about 1.3 % — a snapshot costs ≈ 10 ms (interval 1: 48 of
//! them, median +7.6 %), and interval 8 writes eight — so the 5 % target
//! is *below the noise* of a paired wall-clock difference here. The
//! artifact still records `meets_target`, but the full run only asserts
//! the ceiling the spread supports (`NOISE_CEILING_PCT`): it stops a
//! gross regression, it does not certify 5 %. Resolving the target
//! needs per-snapshot timing (`recovery_checkpoint_seconds`, §8), not a
//! difference of two runs.
//!
//! Each checkpointed row also reports the mean size of the snapshots
//! its store kept (bank and delta memo; no fleet rows).
//!
//! A store-level microbench also times the restore path itself — seal,
//! persist, `restore_latest` — at fleet scale, since end-to-end runs
//! only exercise it when a worker actually dies.
//!
//! Writes `BENCH_recovery.json` at the repository root. `--smoke` runs
//! a reduced sweep for CI (no overhead assertion at all: shared runners
//! are noisier still).

use lpvs_bayes::codec::bank_to_bytes;
use lpvs_bayes::{BayesBank, GammaEstimator};
use lpvs_core::baseline::Policy;
use lpvs_emulator::engine::{CheckpointSpec, Emulator, EmulatorConfig};
use lpvs_emulator::EmulationReport;
use lpvs_obs::json::Json;
use lpvs_runtime::{CheckpointConfig, CheckpointStore};
use std::time::Instant;

/// Wall-time overhead target at the default interval (reported, not
/// asserted: see the header).
const TARGET_OVERHEAD_PCT: f64 = 5.0;
/// What a full run asserts instead: the seven-run median plus two
/// quartile distances (−0.5 + 2 × 7.1), rounded up.
const NOISE_CEILING_PCT: f64 = 15.0;
const DEFAULT_INTERVAL: usize = 8;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lpvs-recovery-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Row {
    interval: Option<usize>,
    secs: f64,
    checkpoints: usize,
    /// Mean bytes of the snapshots the store kept.
    snapshot_bytes: Option<f64>,
    report: EmulationReport,
}

/// Mean size of the snapshot files under a store's `shard-*` directories.
fn snapshot_bytes(dir: &std::path::Path) -> Option<f64> {
    let shards = std::fs::read_dir(dir).ok()?.flatten().map(|shard| shard.path()).filter(|p| p.is_dir());
    let sizes: Vec<u64> = shards
        .flat_map(|shard| std::fs::read_dir(shard).into_iter().flatten().flatten())
        .filter_map(|gen| gen.metadata().ok().map(|m| m.len()))
        .collect();
    (!sizes.is_empty()).then(|| sizes.iter().sum::<u64>() as f64 / sizes.len() as f64)
}

fn run_row(config: EmulatorConfig, interval: Option<usize>) -> Row {
    let mut emu = Emulator::new(config, Policy::Lpvs);
    let dir = interval.map(|interval| scratch_dir(&format!("sweep-{interval}")));
    if let (Some(interval), Some(dir)) = (interval, dir.as_ref()) {
        emu = emu.with_checkpoints(CheckpointSpec { interval, ..CheckpointSpec::new(dir) });
    }
    let t = Instant::now();
    let report = emu.run();
    let secs = t.elapsed().as_secs_f64();
    let checkpoints =
        report.runtime.as_ref().map_or(0, |s| s.recovery.checkpoints_written);
    let snapshot_bytes = dir.as_deref().and_then(snapshot_bytes);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Row { interval, secs, checkpoints, snapshot_bytes, report }
}

/// Times the restore path at shard scale: a learned bank of `devices`
/// estimators is sealed and persisted, then restored (checksum walk +
/// decode) repeatedly.
fn restore_latency_ms(devices: usize) -> f64 {
    let dir = scratch_dir("restore");
    let config = CheckpointConfig::new(&dir);
    let mut store = CheckpointStore::create(&config, 1).expect("store");
    let mut estimators = vec![GammaEstimator::paper_default(); devices];
    for (d, est) in estimators.iter_mut().enumerate() {
        let _ = est.try_observe(0.2 + 0.5 * (d as f64 / devices as f64));
    }
    let bank = BayesBank::from_estimators(estimators);
    store.begin_round(0, vec![0]);
    store.persist_shard(0, 0, &bank_to_bytes(&bank), None).expect("persist");
    let iterations = 20;
    let t = Instant::now();
    for _ in 0..iterations {
        let (_, snapshot) = store.restore_latest(0).expect("restore");
        assert_eq!(snapshot.bank.len(), devices);
    }
    let ms = t.elapsed().as_secs_f64() * 1e3 / iterations as f64;
    let _ = std::fs::remove_dir_all(&dir);
    ms
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let devices = if smoke { 2_000 } else { 20_000 };
    let slots = if smoke { 4 } else { 12 };
    let intervals: &[Option<usize>] = if smoke {
        &[None, Some(DEFAULT_INTERVAL), Some(2)]
    } else {
        &[None, Some(16), Some(8), Some(4), Some(2), Some(1)]
    };
    let config = EmulatorConfig {
        devices,
        slots,
        seed: 4242,
        server_streams: 2 * devices / 5,
        lambda: 1.0,
        one_slot_ahead: true,
        num_edges: 4,
        pipelined: true,
        ..EmulatorConfig::default()
    };
    println!(
        "Recovery overhead — checkpoint-interval sweep, {devices} devices × {slots} slots, \
         4 shards{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    println!("{:>9} {:>9} {:>12} {:>10} {:>11}", "interval", "secs", "checkpoints", "overhead", "snapshot B");

    let mut rows: Vec<Row> = Vec::new();
    for &interval in intervals {
        let row = run_row(config, interval);
        let overhead = rows
            .first()
            .map(|base: &Row| 100.0 * (row.secs - base.secs) / base.secs);
        println!(
            "{:>9} {:>9.3} {:>12} {:>10} {:>11}",
            row.interval.map_or("off".into(), |i| i.to_string()),
            row.secs,
            row.checkpoints,
            overhead.map_or("—".into(), |o| format!("{o:+.2}%")),
            row.snapshot_bytes.map_or("—".into(), |b| format!("{b:.0}")),
        );
        rows.push(row);
    }
    let base = &rows[0];
    for row in &rows[1..] {
        // Checkpointing may cost time, never bits.
        assert_eq!(
            row.report.gamma_posteriors, base.report.gamma_posteriors,
            "interval {:?} perturbed the γ posteriors",
            row.interval
        );
        assert_eq!(
            row.report.display_energy_j, base.report.display_energy_j,
            "interval {:?} perturbed the energy accounting",
            row.interval
        );
        assert!(row.checkpoints > 0, "interval {:?} wrote no checkpoints", row.interval);
    }
    println!("\nevery interval bit-identical to the no-checkpoint baseline ✓");

    let restore_ms = restore_latency_ms(devices / 4);
    println!("restore latency ({} devices/shard): {restore_ms:.3} ms", devices / 4);

    let at_default = rows
        .iter()
        .find(|r| r.interval == Some(DEFAULT_INTERVAL))
        .expect("sweep covers the default interval");
    let overhead_pct = 100.0 * (at_default.secs - base.secs) / base.secs;
    let meets_target = overhead_pct <= TARGET_OVERHEAD_PCT;
    println!(
        "overhead at default interval {DEFAULT_INTERVAL}: {overhead_pct:+.2}% \
         (target ≤ {TARGET_OVERHEAD_PCT}%)"
    );

    let artifact = Json::obj([
        ("bench", Json::Str("recovery_overhead".into())),
        ("smoke", Json::Bool(smoke)),
        ("devices", Json::Num(devices as f64)),
        ("slots", Json::Num(slots as f64)),
        ("shards", Json::Num(4.0)),
        ("target_overhead_pct", Json::Num(TARGET_OVERHEAD_PCT)),
        ("overhead_pct_at_default", Json::Num(overhead_pct)),
        ("default_interval", Json::Num(DEFAULT_INTERVAL as f64)),
        ("restore_latency_ms", Json::Num(restore_ms)),
        ("meets_target", Json::Bool(meets_target)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            (
                                "interval",
                                r.interval.map_or(Json::Null, |i| Json::Num(i as f64)),
                            ),
                            ("secs", Json::Num(r.secs)),
                            ("checkpoints", Json::Num(r.checkpoints as f64)),
                            ("snapshot_bytes", r.snapshot_bytes.map_or(Json::Null, Json::Num)),
                            (
                                "overhead_pct",
                                Json::Num(100.0 * (r.secs - base.secs) / base.secs),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    std::fs::write(path, format!("{artifact}\n")).expect("write BENCH_recovery.json");
    println!("wrote {path}");
    if !smoke {
        assert!(
            overhead_pct <= NOISE_CEILING_PCT,
            "checkpoint overhead at interval {DEFAULT_INTERVAL} is beyond what noise explains \
             ({NOISE_CEILING_PCT}%): {overhead_pct:+.2}%"
        );
    }
}
