//! Slot throughput of the emulator under the runtime's two executors:
//! inline (`run_sequential`) vs. supervised shard workers (`run`).
//!
//! Three rows per fleet size decompose the difference:
//!
//! * `seq ×1` — the inline executor over one shard: the paper's
//!   monolithic solve per slot;
//! * `seq ×4` — the inline executor over 4 shards: the caller holds the
//!   four shard states and their banks, solves shard 0 and runs the
//!   others on three scoped threads;
//! * `pipe ×4` — the worker executor: four persistent supervised shard
//!   workers, shard-local Bayes banks, results joined by the hub.
//!
//! All three run the one `EmulatorDriver`, one slot ahead, in the one
//! stage order, so `seq ×4` and `pipe ×4` differ only in **who runs
//! the shards** and must agree bit-for-bit — the bench cross-checks the
//! determinism suite on the way past. Two ratios per size keep the two
//! effects apart: `speedup` (`seq ×1` ÷ `pipe ×4` seconds) is the
//! sharding, and moves with the core count; `seq4_over_pipe4`
//! (`seq ×4` ÷ `pipe ×4` seconds) is scoped threads on the caller's
//! states against persistent workers holding them — the measurement
//! ROADMAP item 2(ii) needs; 1.0 means the second way to run the shards
//! costs and buys nothing. (The field names date from when `pipe ×4`
//! also overlapped gather ∥ solve ∥ apply; that overlap measured 1.00×
//! and is gone.) The full run asserts on the second ratio: sharding
//! cannot meet it. Only the worker executor's fan-out has a hub to hand
//! its CPU back to, so the second ratio is where that shows.
//!
//! Next to the ratios, one recorder-on `pipe ×4` pass per size counts
//! the **dispatch skew** (`runtime_dispatch_skew_seconds`: the hub's
//! first `send` returned → its last one did). A worker woken on the
//! hub's CPU that runs its solve there shows up as a skew of a
//! scheduler slice or more; the share of slots with ≥ 1 ms of it was
//! ≈ 25 % (every slot of a "sticky" run) before workers yielded while
//! the fan-out lasts, and the target is ≤ 5 %.
//!
//! Writes `BENCH_pipeline.json` at the repository root. `--smoke` runs
//! the 10k fleet only for CI.

use lpvs_bench::pct;
use lpvs_core::baseline::Policy;
use lpvs_emulator::engine::{Emulator, EmulatorConfig};
use lpvs_emulator::EmulationReport;
use lpvs_obs::json::Json;
use std::time::Instant;

struct Row {
    devices: usize,
    shards: usize,
    pipelined: bool,
    slots: usize,
    secs: f64,
    energy_saving: f64,
    report: EmulationReport,
}

impl Row {
    fn slots_per_sec(&self) -> f64 {
        self.slots as f64 / self.secs
    }

    fn label(&self) -> String {
        format!("{} ×{}", if self.pipelined { "pipe" } else { "seq" }, self.shards)
    }
}

/// What the full run demands of the worker executor: at the same shard
/// count it may not be slower than the inline one by more than
/// run-to-run noise. Seven full runs on the 2-core host read 0.87–1.22
/// (median 1.04, quartiles 0.93–1.11) — with the overlap it was 1.00,
/// 0.89–1.12: the same range — and the floor sits under the lowest of
/// them; it catches persistent workers costing a quarter more than
/// scoped threads, it does not resolve the ratio.
const STAGING_FLOOR: f64 = 0.75;

fn run_row(devices: usize, slots: usize, shards: usize, pipelined: bool) -> Row {
    let config = EmulatorConfig {
        devices,
        slots,
        seed: 4242,
        // Capacity-limited at 40% of the fleet, like the fleet bench.
        server_streams: 2 * devices / 5,
        lambda: 1.0,
        one_slot_ahead: true,
        num_edges: shards,
        pipelined,
        ..EmulatorConfig::default()
    };
    let emu = Emulator::new(config, Policy::Lpvs);
    let t = Instant::now();
    let report = emu.run();
    let secs = t.elapsed().as_secs_f64();
    Row {
        devices,
        shards,
        pipelined,
        slots,
        secs,
        energy_saving: report.display_saving_ratio(),
        report,
    }
}

/// Slots of a recorder-on `pipe ×4` run, and how many of them saw the
/// hub's fan-out stretched to a millisecond or more.
fn dispatch_skew(devices: usize, slots: usize) -> (u64, u64) {
    lpvs_obs::init().reset();
    let row = run_row(devices, slots, 4, true);
    lpvs_obs::set_enabled(false);
    let metrics = row.report.obs.expect("recorder was on").metrics;
    let skew = metrics.histogram("runtime_dispatch_skew_seconds").expect("the hub times its fan-out");
    // Buckets above the one bounded by 1 ms (the bounds are three a decade).
    let at_1ms = skew.bounds.partition_point(|&b| b < 0.999e-3);
    (skew.count, skew.buckets[at_1ms + 1..].iter().sum())
}

/// The share of slots that may see ≥ 1 ms of dispatch skew.
const SKEW_SHARE_TARGET: f64 = 0.05;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke { &[10_000] } else { &[10_000, 100_000] };
    let slots = if smoke { 3 } else { 5 };
    println!(
        "Pipeline scaling — slot throughput, inline vs worker executor{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:>9} {:>8} {:>6} {:>9} {:>11} {:>9}",
        "devices", "mode", "slots", "secs", "slots/sec", "saving"
    );

    let mut rows: Vec<Row> = Vec::new();
    // (devices, seq ×1 ÷ pipe ×4 seconds, seq ×4 ÷ pipe ×4 seconds)
    let mut headline: Vec<(usize, f64, f64)> = Vec::new();
    for &n in sizes {
        for (shards, pipelined) in [(1, false), (4, false), (4, true)] {
            let row = run_row(n, slots, shards, pipelined);
            println!(
                "{:>9} {:>8} {:>6} {:>9.3} {:>11.4} {:>9}",
                row.devices,
                row.label(),
                row.slots,
                row.secs,
                row.slots_per_sec(),
                pct(row.energy_saving),
            );
            rows.push(row);
        }
        let by = |p: bool, k: usize| {
            rows.iter()
                .find(|r| r.devices == n && r.pipelined == p && r.shards == k)
                .expect("row just pushed")
        };
        let (seq1, seq4, pipe4) = (by(false, 1), by(false, 4), by(true, 4));
        // Same driver, same shard count, same slot-ahead lag: the
        // executor may only change *who* runs a shard, never *what*
        // is computed.
        assert_eq!(
            seq4.report.gamma_posteriors, pipe4.report.gamma_posteriors,
            "worker-executor γ posteriors diverged from the inline executor at N={n}"
        );
        assert_eq!(
            seq4.report.display_energy_j, pipe4.report.display_energy_j,
            "worker-executor display energy diverged from the inline executor at N={n}"
        );
        let (speedup, staging) = (seq1.secs / pipe4.secs, seq4.secs / pipe4.secs);
        println!(
            "  N={n}: pipe ×4 is {speedup:.2}x seq ×1 (sharding) and \
             {staging:.2}x seq ×4 (workers vs scoped threads) — bit-identical ✓\n"
        );
        headline.push((n, speedup, staging));
    }

    // Three times the timed rows' slots: a share needs samples.
    let (skew_slots, skew_slow) = sizes
        .iter()
        .map(|&n| dispatch_skew(n, 3 * slots))
        .fold((0, 0), |(slots, slow), (s, l)| (slots + s, slow + l));
    let skew_share = skew_slow as f64 / skew_slots as f64;
    println!(
        "dispatch skew ≥ 1 ms in {skew_slow} of {skew_slots} pipe ×4 slots ({}; target ≤ {})\n",
        pct(skew_share),
        pct(SKEW_SHARE_TARGET)
    );

    let &(top_n, top_speedup, top_staging) = headline.last().expect("at least one size");
    let artifact = Json::obj([
        ("bench", Json::Str("pipeline_scaling".into())),
        ("smoke", Json::Bool(smoke)),
        (
            "host_cores",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |c| c.get() as f64)),
        ),
        ("largest_devices", Json::Num(top_n as f64)),
        ("speedup_at_largest", Json::Num(top_speedup)),
        ("seq4_over_pipe4_at_largest", Json::Num(top_staging)),
        ("staging_floor", Json::Num(STAGING_FLOOR)),
        ("meets_floor", Json::Bool(top_staging >= STAGING_FLOOR)),
        ("dispatch_skew_slots", Json::Num(skew_slots as f64)),
        ("dispatch_skew_share", Json::Num(skew_share)),
        ("dispatch_skew_share_target", Json::Num(SKEW_SHARE_TARGET)),
        (
            "ratios",
            Json::Arr(
                headline
                    .iter()
                    .map(|&(n, speedup, staging)| {
                        Json::obj([
                            ("devices", Json::Num(n as f64)),
                            ("speedup", Json::Num(speedup)),
                            ("seq4_over_pipe4", Json::Num(staging)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("devices", Json::Num(r.devices as f64)),
                            ("shards", Json::Num(r.shards as f64)),
                            ("pipelined", Json::Bool(r.pipelined)),
                            ("slots", Json::Num(r.slots as f64)),
                            ("secs", Json::Num(r.secs)),
                            ("slots_per_sec", Json::Num(r.slots_per_sec())),
                            ("energy_saving", Json::Num(r.energy_saving)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, format!("{artifact}\n")).expect("write BENCH_pipeline.json");
    println!("wrote {path}");
    if !smoke {
        assert!(
            top_staging >= STAGING_FLOOR,
            "the worker executor is slower than the inline one at {top_n} devices: \
             seq ×4 ÷ pipe ×4 = {top_staging:.2} < {STAGING_FLOOR}"
        );
    }
}
