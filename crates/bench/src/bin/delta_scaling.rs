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
//!   still valid. With every row's score kept beside the delta memo and
//!   its prices beside the join, such a slot scores its frontier and
//!   folds the rest. The speedup is *cold ÷ steady* seconds, so it
//!   moves when either side does, and both are reported next to it:
//!   it read 15.5–17.4× at 100k devices while a cold slot cost ≈ 100 ms,
//!   and reads 9.8–13.7× (fourteen full runs on the 2-core host, median
//!   12.1×, quartiles 11.0–12.8; 8.7–13.8× over 28 more on a loaded one)
//!   now that a cold slot sorts each order once and costs ≈ 65 ms — over
//!   the same steady slot (5.9 ms, quartiles 5.4–6.6; 6.8 ms against the
//!   parent commit's 6.9 ms in ten alternating pairs under load). The
//!   Since PR 24 the steady slot is ≈ 4.0 ms (five runs 3.6–4.9: slot 1
//!   no longer rebuilds the terms a cold solve used to drop, the join
//!   adopts the frontier's terms) and the ratio reads 13.5–18.2×. The
//!   steady seconds are what `bench_baselines.json` gates beside the
//!   ratio; the ratio's floor asserted below, 5.5×, is the lowest of all
//!   those runs less the 35 % this host drifts when it is loaded.
//! - **churn**: half the fleet mutates per slot — past the incremental
//!   fraction gate, so every slot solves cold *through* the delta
//!   machinery. The memo keeps the score the solve ran on, so a cold
//!   solve past the gate re-scores its dirty rows only, and the
//!   bookkeeping must still cost ≤ 10% over plain cold.
//!
//! The timed delta run also asserts, as each stage lands, what no
//! shared runner's clock can blur — read off the records the run hands
//! its driver, the gathered slot's copied rows and the delivered
//! schedule's `SlotWork`: once the recycled buffer is back (slot 1 on)
//! a gather copies at most its frontier's rows, and on the steady
//! regime, from slot 1 on, the shard workers score at most the
//! frontier's rows a slot and the join at most the frontier rows no
//! shard owns — the rest it adopts from the shards.
//!
//! Per-slot solve times come from the report's slot-resolved runtimes
//! with slot 0 excluded (the first solve is cold by construction in
//! both modes); the gather column is the delta run's `gather` stage,
//! stamped by the same adapter, beside the rows it copied per slot.
//! Writes `BENCH_delta.json` at the repository root.
//! `--smoke` runs a reduced sweep for CI (the counted assertion, no
//! ratio assertions: shared runners are too noisy for wall-clock bounds).

use lpvs_core::fleet::DeviceFleet;
use lpvs_edge::fleet::FleetConfig;
use lpvs_obs::json::Json;
use lpvs_runtime::{
    BankOps, GatheredSlot, RuntimeConfig, SlotFeedback, SlotRuntime, SlotSink, SlotSource,
    SolvedSlot, SyntheticConfig, SyntheticDriver,
};
use std::time::Instant;

const SHARDS: usize = 4;
const STEADY_FRACTION: f64 = 0.01;
const CHURN_FRACTION: f64 = 0.5;
/// Steady-state slots must be at least this much cheaper than cold.
const TARGET_SPEEDUP: f64 = 5.5;
/// Churn-heavy slots may cost at most this ratio of plain cold.
const TARGET_CHURN_RATIO: f64 = 1.10;

fn runtime() -> SlotRuntime {
    SlotRuntime::new(RuntimeConfig {
        fleet: FleetConfig {
            num_shards: SHARDS,
            ..FleetConfig::default()
        },
        ..RuntimeConfig::default()
    })
}

/// Mean over the steady-state tail (slot 0 — the unavoidable all-dirty
/// cold solve and full copy — excluded).
fn tail_mean(per_slot: impl Iterator<Item = f64>) -> f64 {
    let tail: Vec<f64> = per_slot.skip(1).collect();
    assert!(!tail.is_empty(), "horizon too short to have a steady-state tail");
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// One run of the workload behind the stamping adapter; returns the
/// adapter and the mean per-slot solve seconds of the tail.
fn run(devices: usize, slots: usize, fraction: f64, delta_enabled: bool) -> (Stamped, f64) {
    let mut config = SyntheticConfig::steady(devices, slots, 4242);
    config.mutation_fraction = fraction;
    config.delta_enabled = delta_enabled;
    let inner = SyntheticDriver::new(config);
    let estimators = inner.estimators();
    let mut driver = Stamped {
        inner,
        steady: delta_enabled && fraction == STEADY_FRACTION,
        gather_secs: Vec::new(),
        copied: Vec::new(),
        frontier: 0,
        unowned: 0,
        accounted: [0; 2],
    };
    let report = runtime().run(&mut driver, estimators);
    assert_eq!(report.summary.solved_slots, slots, "every slot must dispatch a solve");
    let solve = tail_mean(report.slot_solve_runtimes.iter().map(|(_, t)| t.as_secs_f64()));
    (driver, solve)
}

/// The synthetic driver, stamping each gather's wall clock and — on a
/// delta run — checking as each stage lands that the slot copied and
/// scored no more rows than it had cause to.
struct Stamped {
    inner: SyntheticDriver,
    /// Whether the scoring bound applies: a delta run short of the
    /// incremental gate (past it, or without a delta, every shard solves
    /// cold and ships every row).
    steady: bool,
    /// Seconds each gather took, slot order.
    gather_secs: Vec<f64>,
    /// Rows each gather copied, slot order.
    copied: Vec<u64>,
    /// The slot's frontier rows, and those of them no shard owns (the
    /// disconnected ones).
    frontier: u64,
    unowned: u64,
    /// Rows scored over the run as `[shard, join]`.
    accounted: [u64; 2],
}

impl SlotSource for Stamped {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        self.inner.begin_slot(slot)
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        let start = Instant::now();
        let gathered = self.inner.gather(slot, posteriors, recycled)?;
        self.gather_secs.push(start.elapsed().as_secs_f64());
        let dirty = gathered.delta.as_ref().map_or(&[][..], |d| &d.dirty[..]);
        self.frontier = dirty.len() as u64;
        self.unowned = dirty.iter().filter(|&&i| !gathered.fleet.connected(i)).count() as u64;
        let copied = gathered.refilled.patched + gathered.refilled.full;
        // Slot 0 has no buffer to patch; from then on one circulates (a
        // delta-less run ships no frontier to bound it by).
        assert!(
            gathered.delta.is_none() || slot == 0 || copied <= self.frontier,
            "slot {slot}: the gather copied {copied} rows for a frontier of {}",
            self.frontier
        );
        self.copied.push(copied);
        Some(gathered)
    }
}

impl SlotSink for Stamped {
    fn solved(&mut self, solved: &SolvedSlot) {
        let rows = solved.schedule.work.rows_accounted;
        let counted = [rows.shard, rows.join];
        self.accounted = [self.accounted[0] + counted[0], self.accounted[1] + counted[1]];
        // Slot 0 is all-dirty (and its cold solves keep their score);
        // from then on a steady slot scores its frontier on the shards,
        // once — a flipped or migrated row is priced already — and at the
        // join only the frontier rows no shard shipped.
        if self.steady && solved.slot >= 1 {
            let bounds = [self.frontier, self.unowned];
            for ((owner, bound), rows) in ["shard", "join"].iter().zip(bounds).zip(counted) {
                assert!(
                    rows <= bound,
                    "slot {}: {owner} scored {rows} rows for a frontier of {} ({} of them unowned)",
                    solved.slot, self.frontier, self.unowned
                );
            }
        }
        self.inner.solved(solved);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        self.inner.apply(slot)
    }
}

struct Row {
    devices: usize,
    regime: &'static str,
    fraction: f64,
    cold_secs: f64,
    delta_secs: f64,
    /// Mean `gather` stage of the delta run's tail slots.
    gather_secs: f64,
    /// Rows a tail slot's gather copied (delta run).
    copied_per_slot: f64,
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
    let mut rows: Vec<Row> = Vec::new();
    for &devices in sizes {
        for (regime, fraction) in [("steady", STEADY_FRACTION), ("churn", CHURN_FRACTION)] {
            let (_, cold_secs) = run(devices, slots, fraction, false);
            let (stamped, delta_secs) = run(devices, slots, fraction, true);
            let gather_secs = tail_mean(stamped.gather_secs.iter().copied());
            let copied_per_slot = tail_mean(stamped.copied.iter().map(|&rows| rows as f64));
            let [shard, join] = stamped.accounted;
            println!(
                "counted at N={devices}, {regime}: {copied_per_slot:.0} rows copied a slot; {shard} \
                 rows scored on the shards, {join} at the join over {slots} slots (every slot in \
                 full would be {})",
                devices * slots
            );
            rows.push(Row {
                devices,
                regime,
                fraction,
                cold_secs,
                delta_secs,
                gather_secs,
                copied_per_slot,
            });
        }
    }
    println!(
        "\n{:>9} {:>8} {:>10} {:>12} {:>12} {:>9} {:>12} {:>12}",
        "devices", "regime", "mutation", "cold (s)", "delta (s)", "speedup", "gather (ms)", "copied/slot"
    );
    for row in &rows {
        println!(
            "{:>9} {:>8} {:>10} {:>12.6} {:>12.6} {:>8.2}x {:>12.3} {:>12.0}",
            row.devices,
            row.regime,
            format!("{:.0}%", 100.0 * row.fraction),
            row.cold_secs,
            row.delta_secs,
            row.speedup(),
            1e3 * row.gather_secs,
            row.copied_per_slot,
        );
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
        "\nN={largest}: steady slot {:.3} ms against a cold slot of {:.3} ms — speedup {:.2}x \
         (target ≥ {TARGET_SPEEDUP}x), churn ratio {:.3} (target ≤ {TARGET_CHURN_RATIO})",
        1e3 * steady.delta_secs,
        1e3 * steady.cold_secs,
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
        ("steady_cold_slot_secs_at_largest", Json::Num(steady.cold_secs)),
        ("steady_delta_slot_secs_at_largest", Json::Num(steady.delta_secs)),
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
                            ("gather_slot_secs", Json::Num(r.gather_secs)),
                            ("rows_copied_per_slot", Json::Num(r.copied_per_slot)),
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
