//! Steady-state cost of delta-aware solving at provider scale.
//!
//! Drives the [`SyntheticDriver`] — a persistent fleet with a seeded
//! per-slot mutation schedule — through the pipelined runtime twice per
//! regime: once with deltas enabled (dirty frontiers shipped, workers
//! ride the reuse/incremental paths) and once with the *identical*
//! workload forced down the cold path. Two regimes bracket the design
//! space:
//!
//! - **steady**: 1% of the fleet mutates per slot — the paper's
//!   steady-state case, where almost every row's Phase-1 answer is
//!   still valid. The delta path must make these slots ≥ 2× cheaper
//!   at 100k devices: eleven full runs on a 2-core host read 2.2–4.9×
//!   (median 3.2×) against the near-linear cold solve. The 10× bar this
//!   bin once carried was set against a quadratic cold solve ~80×
//!   slower than today's.
//! - **churn**: half the fleet mutates per slot — past the incremental
//!   fraction gate, so every slot solves cold *through* the delta
//!   machinery. The bookkeeping must cost ≤ 10% over plain cold
//!   (measured −11…+6%, i.e. noise: a few milliseconds of memo upkeep
//!   on a ≈ 0.11 s cold slot, where it was invisible next to a 9.6 s
//!   one).
//!
//! Per-slot solve times come from the report's slot-resolved runtimes
//! with slot 0 excluded (the first solve is cold by construction in
//! both modes). Writes `BENCH_delta.json` at the repository root.
//! `--smoke` runs a reduced sweep for CI (no ratio assertions: shared
//! runners are too noisy for wall-clock bounds).

use lpvs_edge::fleet::{FleetConfig, Partitioner};
use lpvs_obs::json::Json;
use lpvs_runtime::{RuntimeConfig, SlotRuntime, SyntheticConfig, SyntheticDriver};

const SHARDS: usize = 4;
const STEADY_FRACTION: f64 = 0.01;
const CHURN_FRACTION: f64 = 0.5;
/// Steady-state slots must be at least this much cheaper than cold.
const TARGET_SPEEDUP: f64 = 2.0;
/// Churn-heavy slots may cost at most this ratio of plain cold.
const TARGET_CHURN_RATIO: f64 = 1.10;

/// Mean per-slot solve seconds over the steady-state tail (slot 0 — the
/// unavoidable all-dirty cold solve — excluded).
fn tail_slot_secs(devices: usize, slots: usize, fraction: f64, delta_enabled: bool) -> f64 {
    let mut config = SyntheticConfig::steady(devices, slots, 4242);
    config.mutation_fraction = fraction;
    config.delta_enabled = delta_enabled;
    let mut driver = SyntheticDriver::new(config);
    let estimators = driver.estimators();
    let runtime = SlotRuntime::new(RuntimeConfig {
        fleet: FleetConfig {
            num_shards: SHARDS,
            partitioner: Partitioner::Locality,
            ..FleetConfig::default()
        },
        ..RuntimeConfig::default()
    });
    let report = runtime.run(&mut driver, estimators);
    assert_eq!(report.summary.solved_slots, slots, "every slot must dispatch a solve");
    let tail: Vec<f64> = report
        .slot_solve_runtimes
        .iter()
        .filter(|(slot, _)| *slot > 0)
        .map(|(_, runtime)| runtime.as_secs_f64())
        .collect();
    assert!(!tail.is_empty(), "horizon too short to have a steady-state tail");
    tail.iter().sum::<f64>() / tail.len() as f64
}

struct Row {
    devices: usize,
    regime: &'static str,
    fraction: f64,
    cold_secs: f64,
    delta_secs: f64,
}

impl Row {
    /// Cold-per-delta: > 1 means the delta path is cheaper.
    fn speedup(&self) -> f64 {
        self.cold_secs / self.delta_secs
    }

    /// Delta-per-cold: the bookkeeping overhead ratio.
    fn ratio(&self) -> f64 {
        self.delta_secs / self.cold_secs
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke { &[2_000] } else { &[10_000, 100_000] };
    let slots = if smoke { 4 } else { 8 };
    println!(
        "Delta scaling — steady-state slot cost, cold vs delta-aware, \
         {SHARDS} shards × {slots} slots{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:>9} {:>8} {:>10} {:>12} {:>12} {:>9}",
        "devices", "regime", "mutation", "cold (s)", "delta (s)", "speedup"
    );

    let mut rows: Vec<Row> = Vec::new();
    for &devices in sizes {
        for (regime, fraction) in [("steady", STEADY_FRACTION), ("churn", CHURN_FRACTION)] {
            let cold_secs = tail_slot_secs(devices, slots, fraction, false);
            let delta_secs = tail_slot_secs(devices, slots, fraction, true);
            let row = Row { devices, regime, fraction, cold_secs, delta_secs };
            println!(
                "{:>9} {:>8} {:>10} {:>12.6} {:>12.6} {:>8.2}x",
                row.devices,
                row.regime,
                format!("{:.0}%", 100.0 * row.fraction),
                row.cold_secs,
                row.delta_secs,
                row.speedup(),
            );
            rows.push(row);
        }
    }

    let largest = *sizes.last().expect("nonempty sweep");
    let steady = rows
        .iter()
        .find(|r| r.devices == largest && r.regime == "steady")
        .expect("steady row at the largest size");
    let churn = rows
        .iter()
        .find(|r| r.devices == largest && r.regime == "churn")
        .expect("churn row at the largest size");
    println!(
        "\nN={largest}: steady-state speedup {:.2}x (target ≥ {TARGET_SPEEDUP}x), \
         churn ratio {:.3} (target ≤ {TARGET_CHURN_RATIO})",
        steady.speedup(),
        churn.ratio(),
    );

    let artifact = Json::obj([
        ("bench", Json::Str("delta_scaling".into())),
        ("smoke", Json::Bool(smoke)),
        ("shards", Json::Num(SHARDS as f64)),
        ("slots", Json::Num(slots as f64)),
        ("target_speedup", Json::Num(TARGET_SPEEDUP)),
        ("target_churn_ratio", Json::Num(TARGET_CHURN_RATIO)),
        ("steady_speedup_at_largest", Json::Num(steady.speedup())),
        ("churn_ratio_at_largest", Json::Num(churn.ratio())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("devices", Json::Num(r.devices as f64)),
                            ("regime", Json::Str(r.regime.into())),
                            ("mutation_fraction", Json::Num(r.fraction)),
                            ("cold_slot_secs", Json::Num(r.cold_secs)),
                            ("delta_slot_secs", Json::Num(r.delta_secs)),
                            ("speedup", Json::Num(r.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_delta.json");
    std::fs::write(path, format!("{artifact}\n")).expect("write BENCH_delta.json");
    println!("wrote {path}");

    if !smoke {
        assert!(
            steady.speedup() >= TARGET_SPEEDUP,
            "steady-state slots are only {:.2}x cheaper than cold (target {TARGET_SPEEDUP}x)",
            steady.speedup()
        );
        assert!(
            churn.ratio() <= TARGET_CHURN_RATIO,
            "churn-heavy delta bookkeeping costs {:.3}x cold (target {TARGET_CHURN_RATIO}x)",
            churn.ratio()
        );
    }
}
