//! Slot throughput: the sequential engine vs. the staged
//! [`lpvs_runtime`] pipeline (gather ∥ solve ∥ apply) at emulator
//! scale.
//!
//! Three rows per fleet size decompose the win:
//!
//! * `seq ×1` — the paper's engine: one monolithic solve per slot, the
//!   whole loop serial (the acceptance baseline);
//! * `seq ×4` — the same serial loop over the 4-shard
//!   `FleetScheduler`, isolating the sharded-solve shrink;
//! * `pipe ×4` — the staged pipeline with persistent shard workers and
//!   shard-local Bayes banks.
//!
//! On a single-core host the pipelined win is the solver's superlinear
//! terms shrinking with the shard size (the overlap of gather(t+1) and
//! apply(t−1) with solve(t) adds nothing without a second core); with
//! more cores the stages and the per-shard solves overlap too. Every
//! row runs one-slot-ahead, so `seq ×4` and `pipe ×4` must agree
//! bit-for-bit — the bench cross-checks the determinism suite on the
//! way past.
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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke { &[10_000] } else { &[10_000, 100_000] };
    let slots = if smoke { 3 } else { 5 };
    println!(
        "Pipeline scaling — slot throughput, sequential engine vs staged runtime{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:>9} {:>8} {:>6} {:>9} {:>11} {:>9}",
        "devices", "mode", "slots", "secs", "slots/sec", "saving"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut headline: Vec<(usize, f64)> = Vec::new();
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
        // Same shard count, same slot-ahead lag: the pipeline may only
        // change *when* work happens, never *what* is computed.
        assert_eq!(
            seq4.report.gamma_posteriors, pipe4.report.gamma_posteriors,
            "pipelined γ posteriors diverged from the sequential engine at N={n}"
        );
        assert_eq!(
            seq4.report.display_energy_j, pipe4.report.display_energy_j,
            "pipelined display energy diverged from the sequential engine at N={n}"
        );
        let speedup = pipe4.slots_per_sec() / seq1.slots_per_sec();
        println!(
            "  N={n}: seq ×1 {:.4} slots/s, pipe ×4 {:.4} slots/s — {:.2}x (bit-identical ✓)\n",
            seq1.slots_per_sec(),
            pipe4.slots_per_sec(),
            speedup
        );
        headline.push((n, speedup));
    }

    let (&(top_n, top_speedup), target) =
        (headline.last().expect("at least one size"), 1.3f64);
    let artifact = Json::obj([
        ("bench", Json::Str("pipeline_scaling".into())),
        ("smoke", Json::Bool(smoke)),
        ("target_speedup", Json::Num(target)),
        ("speedup_at_largest", Json::Num(top_speedup)),
        ("largest_devices", Json::Num(top_n as f64)),
        ("meets_target", Json::Bool(top_speedup >= target)),
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
            top_speedup >= target,
            "pipelined runtime below the {target}x target at {top_n} devices: {top_speedup:.2}x"
        );
    }
}
