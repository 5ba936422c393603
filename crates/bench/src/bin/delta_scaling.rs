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
//!   still valid. With the per-row eq.-13 and saving terms kept beside
//!   the delta memo and the join, such a slot re-evaluates its frontier
//!   and folds the rest: ten full runs on a 2-core host read
//!   15.5–17.4× at 100k devices (median 16.9×, quartiles 16.8–17.2)
//!   against the near-linear cold solve — it was 3.2× while every
//!   steady slot still re-evaluated the whole slice twice. The floor
//!   asserted below, 10×, is the lowest of those runs less the 35 % this
//!   host drifts when it is loaded; ROADMAP's bar was 8×.
//! - **churn**: half the fleet mutates per slot — past the incremental
//!   fraction gate, so every slot solves cold *through* the delta
//!   machinery, which then keeps no per-row terms. The bookkeeping must
//!   cost ≤ 10% over plain cold (the same ten runs: −11…+2 %, i.e.
//!   noise: a few milliseconds of memo upkeep on a ≈ 0.10 s cold slot).
//!
//! Before any timing, one recorder-on pass asserts the property no
//! shared runner's clock can blur: from slot 2 on, each owner of kept
//! terms (shard workers, join) re-evaluates at most frontier + flipped
//! rows a slot (`delta_accounting_rows_total`).
//!
//! Per-slot solve times come from the report's slot-resolved runtimes
//! with slot 0 excluded (the first solve is cold by construction in
//! both modes). Writes `BENCH_delta.json` at the repository root.
//! `--smoke` runs a reduced sweep for CI (the counted assertion, no
//! ratio assertions: shared runners are too noisy for wall-clock bounds).

use lpvs_core::fleet::DeviceFleet;
use lpvs_edge::fleet::{FleetConfig, Partitioner};
use lpvs_obs::json::Json;
use lpvs_runtime::{
    BankOps, GatheredSlot, RuntimeConfig, SlotFeedback, SlotRuntime, SlotSink, SlotSource,
    SolvedSlot, SyntheticConfig, SyntheticDriver,
};

const SHARDS: usize = 4;
const STEADY_FRACTION: f64 = 0.01;
const CHURN_FRACTION: f64 = 0.5;
/// Steady-state slots must be at least this much cheaper than cold.
const TARGET_SPEEDUP: f64 = 10.0;
/// Churn-heavy slots may cost at most this ratio of plain cold.
const TARGET_CHURN_RATIO: f64 = 1.10;

fn runtime() -> SlotRuntime {
    SlotRuntime::new(RuntimeConfig {
        fleet: FleetConfig {
            num_shards: SHARDS,
            partitioner: Partitioner::Locality,
            ..FleetConfig::default()
        },
        ..RuntimeConfig::default()
    })
}

/// Mean per-slot solve seconds over the steady-state tail (slot 0 — the
/// unavoidable all-dirty cold solve — excluded).
fn tail_slot_secs(devices: usize, slots: usize, fraction: f64, delta_enabled: bool) -> f64 {
    let mut config = SyntheticConfig::steady(devices, slots, 4242);
    config.mutation_fraction = fraction;
    config.delta_enabled = delta_enabled;
    let mut driver = SyntheticDriver::new(config);
    let estimators = driver.estimators();
    let report = runtime().run(&mut driver, estimators);
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

/// `delta_accounting_rows_total` as `[shard, join]`, cumulative.
fn accounted_rows() -> [u64; 2] {
    let metrics = lpvs_obs::installed().expect("recorder installed").metrics().snapshot();
    ["shard", "join"].map(|owner| {
        metrics.counter_labeled("delta_accounting_rows_total", &[("owner", owner)]).unwrap_or(0)
    })
}

/// The synthetic driver, checking as each decision lands that the slot
/// accounted no more rows than it had cause to.
struct Counted {
    inner: SyntheticDriver,
    frontier: u64,
    rows: [u64; 2],
    previous: Vec<bool>,
}

impl SlotSource for Counted {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        self.inner.begin_slot(slot)
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        let gathered = self.inner.gather(slot, posteriors, recycled)?;
        self.frontier = gathered.delta.as_ref().map_or(0, |d| d.len() as u64);
        Some(gathered)
    }
}

impl SlotSink for Counted {
    fn solved(&mut self, solved: &SolvedSlot) {
        let selected = &solved.schedule.selected;
        let flipped = selected.iter().zip(&self.previous).filter(|(a, b)| a != b).count() as u64;
        let now = accounted_rows();
        // Slot 0 is all-dirty and slot 1 rebuilds the shards' terms;
        // from then on a steady slot costs its churn.
        if solved.slot >= 2 {
            for (owner, (now, before)) in ["shard", "join"].iter().zip(now.iter().zip(self.rows)) {
                let bound = self.frontier + flipped;
                assert!(
                    now - before <= bound,
                    "slot {}: {owner} accounted {} rows for a frontier of {} and {flipped} flips",
                    solved.slot, now - before, self.frontier
                );
            }
        }
        self.rows = now;
        self.previous.clone_from(selected);
        self.inner.solved(solved);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        self.inner.apply(slot)
    }
}

/// The counted property no shared runner's clock can blur: on steady
/// slots each owner re-evaluates at most frontier + flipped rows.
fn assert_steady_slots_cost_their_churn(devices: usize, slots: usize) {
    lpvs_obs::init().reset();
    let inner = SyntheticDriver::new(SyntheticConfig::steady(devices, slots, 4242));
    let estimators = inner.estimators();
    let mut driver = Counted { inner, frontier: 0, rows: [0; 2], previous: Vec::new() };
    runtime().run(&mut driver, estimators);
    lpvs_obs::set_enabled(false);
    let total = accounted_rows();
    println!(
        "accounting at N={devices}: {} rows on the shards, {} at the join over {slots} slots \
         (every slot in full would be {})\n",
        total[0], total[1], devices * slots
    );
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
    assert_steady_slots_cost_their_churn(sizes[0], slots);
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
