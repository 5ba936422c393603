//! `steady-fleet` and `churn-fleet` — the pipelined runtime over a
//! persistent 32 000-row fleet, two shards, locality partitioner.
//!
//! Steady mutates 1 % of the rows per slot: the delta memo, the dirty
//! bits, the hub↔shard channels and the estimator bank do the work and
//! the solver idles, so a faster solve should not move it. Churn mutates
//! half: every slot is past the 25 % incremental gate, the delta
//! machinery is pure bookkeeping, and both shards solve cold from a warm
//! start. A change to the delta memo is read on the two together.
//!
//! The runtime is timed from outside by an adapter that implements the
//! driver traits, delegates to `SyntheticDriver`, and stamps every call.

use super::{OnOff, Outcome, SETUP_ROUNDS};
use crate::check::{ensure, exact_tier};
use crate::host::SHARDS;
use crate::layers;
use crate::spans::Recorder;
use crate::stats::{median, Fnv};
use crate::{host, Spec};
use lpvs_core::fleet::DeviceFleet;
use lpvs_edge::fleet::{FleetConfig, Partitioner};
use lpvs_runtime::{
    BankOps, GatheredSlot, RuntimeConfig, RuntimeReport, SlotFeedback, SlotRuntime, SlotSink,
    SlotSource, SolvedSlot, SyntheticConfig, SyntheticDriver,
};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    Steady,
    Churn,
}

impl Regime {
    fn mutation_fraction(self) -> f64 {
        match self {
            Regime::Steady => 0.01,
            Regime::Churn => 0.5,
        }
    }

    /// Measured slots in ten seconds (≈ 50 ms and ≈ 0.8 s a slot).
    fn slots_per_ten_seconds(self) -> usize {
        match self {
            Regime::Steady => 200,
            Regime::Churn => 12,
        }
    }
}

const DEVICES: usize = 32_000;

/// When each driver call of one slot started and ended.
#[derive(Debug, Clone, Copy)]
struct Stamps {
    begin: (Instant, Instant),
    gather: (Instant, Instant),
    apply: (Instant, Instant),
    /// When this slot's decision reached the sink.
    solved: Option<Instant>,
    /// Whether the benchmark's spans were on during the slot.
    traced: bool,
}

/// The adapter: `SyntheticDriver` behind the driver traits, every call
/// stamped.
struct TimedDriver<'a> {
    inner: SyntheticDriver,
    rec: &'a mut Recorder,
    trace: bool,
    /// Slots per on/off block of the span recorder in a traced pass.
    block: usize,
    last_slot: usize,
    stamps: Vec<Stamps>,
    /// The last slot's gathered fleet and capacities, kept to price its
    /// decision and to feed the layer probes. Cloned once, at the end.
    last_gathered: Option<(DeviceFleet, f64, f64)>,
}

impl SlotSource for TimedDriver<'_> {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        self.rec.on = self.trace && (slot / self.block).is_multiple_of(2);
        let start = Instant::now();
        let ops = self.inner.begin_slot(slot)?;
        let end = Instant::now();
        self.rec
            .record("runtime.begin_slot", slot as u64, start, end);
        self.stamps.push(Stamps {
            begin: (start, end),
            gather: (end, end),
            apply: (end, end),
            solved: None,
            traced: self.rec.on,
        });
        Some(ops)
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        let start = Instant::now();
        let gathered = self.inner.gather(slot, posteriors, recycled);
        let end = Instant::now();
        self.rec.record("runtime.gather", slot as u64, start, end);
        self.stamps[slot].gather = (start, end);
        if slot == self.last_slot {
            self.last_gathered = gathered
                .as_ref()
                .map(|g| (g.fleet.clone(), g.compute_capacity, g.storage_capacity_gb));
        }
        gathered
    }
}

impl SlotSink for TimedDriver<'_> {
    fn solved(&mut self, solved: &SolvedSlot) {
        let at = Instant::now();
        let stamps = &mut self.stamps[solved.slot];
        stamps.solved = Some(at);
        self.rec.record(
            "runtime.slot_decision",
            solved.slot as u64,
            stamps.gather.1,
            at,
        );
        self.inner.solved(solved);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        let start = Instant::now();
        let feedback = self.inner.apply(slot);
        let end = Instant::now();
        self.rec.record("runtime.apply", slot as u64, start, end);
        self.stamps[slot].apply = (start, end);
        feedback
    }
}

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

fn config(spec: &Spec, regime: Regime, slots: usize) -> SyntheticConfig {
    let mut config = SyntheticConfig::steady(spec.size(DEVICES), slots, spec.seed);
    config.mutation_fraction = regime.mutation_fraction();
    config
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// The first slot whose numbers count. Slot 0 is the all-dirty cold
/// solve; the pipeline joins it during slot 1, so slot 1's period still
/// carries it. Both are set-up.
const FIRST_MEASURED: usize = 2;

/// Per-slot series over slots `FIRST_MEASURED..`, from the adapter's
/// stamps.
#[derive(Default)]
struct Series {
    period: Vec<f64>,
    begin: Vec<f64>,
    gather: Vec<f64>,
    apply: Vec<f64>,
    solve_wait: Vec<f64>,
    residual: Vec<f64>,
    decision: Vec<f64>,
    /// Periods by whether the benchmark's spans were on.
    period_on_off: OnOff,
}

fn series(stamps: &[Stamps]) -> Series {
    let mut s = Series::default();
    for (t, now) in stamps.iter().enumerate().skip(FIRST_MEASURED) {
        let begin = secs(now.begin.0, now.begin.1);
        let gather = secs(now.gather.0, now.gather.1);
        let apply = secs(now.apply.0, now.apply.1);
        // The hub joins slot t−1's solve right after begin_slot(t)
        // returns, and hands the decision over when the join completes.
        let wait = stamps[t - 1].solved.map_or(0.0, |at| secs(now.begin.1, at));
        s.begin.push(begin);
        s.gather.push(gather);
        s.apply.push(apply);
        s.solve_wait.push(wait);
        if let Some(at) = now.solved {
            s.decision.push(secs(now.gather.1, at));
        }
        if let Some(next) = stamps.get(t + 1) {
            let period = secs(now.begin.0, next.begin.0);
            s.period.push(period);
            s.residual
                .push((period - begin - gather - apply - wait).max(0.0));
            s.period_on_off.push(now.traced, period);
        }
    }
    s
}

fn delta_path_counts() -> [f64; 3] {
    let mut counts = [0.0; 3];
    if let Some(registry) = lpvs_obs::global().registry() {
        for (key, value) in registry.snapshot().counters {
            if key.name != "delta_solve_total" {
                continue;
            }
            let path = key
                .labels
                .iter()
                .find(|(k, _)| k == "path")
                .map(|(_, v)| v.as_str());
            match path {
                Some("reuse") => counts[0] += value as f64,
                Some("incremental") => counts[1] += value as f64,
                Some("cold") => counts[2] += value as f64,
                _ => {}
            }
        }
    }
    counts
}

/// One horizon driven through the adapter.
struct Driven {
    inner: SyntheticDriver,
    stamps: Vec<Stamps>,
    last_gathered: Option<(DeviceFleet, f64, f64)>,
    report: RuntimeReport,
    /// When the driver started being built.
    built: Instant,
}

fn drive(spec: &Spec, regime: Regime, slots: usize, pipelined: bool, rec: &mut Recorder) -> Driven {
    let runtime = runtime();
    let built = Instant::now();
    let inner = SyntheticDriver::new(config(spec, regime, slots));
    let estimators = inner.estimators();
    let mut driver = TimedDriver {
        inner,
        rec,
        trace: spec.trace,
        block: (slots / 16).max(1),
        last_slot: slots - 1,
        stamps: Vec::with_capacity(slots),
        last_gathered: None,
    };
    let report = if pipelined {
        runtime.run(&mut driver, estimators)
    } else {
        runtime.run_sequential(&mut driver, estimators)
    };
    let TimedDriver {
        inner,
        rec,
        stamps,
        last_gathered,
        ..
    } = driver;
    rec.on = spec.trace;
    Driven {
        inner,
        stamps,
        last_gathered,
        report,
        built,
    }
}

pub fn run(spec: &Spec, rec: &mut Recorder, regime: Regime) -> Outcome {
    let mut out = Outcome::default();
    let slots = spec.reps(regime.slots_per_ten_seconds(), 6) + FIRST_MEASURED;

    // Set-up is driver + estimators + the all-dirty cold slot 0. The
    // first rounds run it alone; the last is the measured run's own.
    let mut setup_secs = Vec::with_capacity(SETUP_ROUNDS);
    for _ in 1..SETUP_ROUNDS {
        let start = Instant::now();
        let mut driver = SyntheticDriver::new(config(spec, regime, 1));
        let estimators = driver.estimators();
        let report = runtime().run(&mut driver, estimators);
        setup_secs.push(start.elapsed().as_secs_f64());
        assert_eq!(report.summary.solved_slots, 1, "set-up slot did not solve");
    }

    if spec.trace {
        // Only the program's own counters tell which delta path a shard
        // took; they count only while its recorder is on.
        lpvs_obs::init().reset();
    }
    let Driven {
        inner,
        stamps,
        last_gathered,
        report,
        built,
    } = drive(spec, regime, slots, true, rec);
    let measured_wall = built.elapsed().as_secs_f64();
    let delta_paths = if spec.trace {
        let counts = delta_path_counts();
        lpvs_obs::set_enabled(false);
        counts
    } else {
        [0.0; 3]
    };
    let cold_decided = stamps[0].solved.expect("slot 0 was decided");
    setup_secs.push(secs(built, cold_decided));

    // --- verification ---------------------------------------------------
    let devices = inner.config().devices;
    let (fleet, compute, storage) = last_gathered.expect("the last slot was gathered");
    let lambda = inner.config().lambda;
    let curve = lpvs_survey::curve::AnxietyCurve::paper_shape();
    let all: Vec<usize> = (0..devices).collect();
    // Mutations touch energy and γ only, so one problem prices the
    // capacity rows of every slot.
    let problem = fleet.subproblem(&all, compute, storage, lambda, &curve);
    let records = inner.records();
    for t in 0..slots {
        out.checks.op((|| {
            let record = records
                .get(t)
                .ok_or(format!("slot {t} was never decided"))?;
            ensure(record.slot == t, || {
                format!("decision {t} is for slot {}", record.slot)
            })?;
            ensure(record.selected.len() == devices, || {
                format!(
                    "slot {t}: selection covers {} of {devices} devices",
                    record.selected.len()
                )
            })?;
            exact_tier(record.tier)?;
            ensure(problem.capacity_feasible(&record.selected), || {
                format!("slot {t}: selection violates a capacity row")
            })
        })());
    }
    out.checks.op(ensure(
        report.summary.solved_slots == slots && records.len() == slots,
        || format!("{} of {slots} slots solved", report.summary.solved_slots),
    ));
    out.checks.op(ensure(report.summary.workers_lost == 0, || {
        format!("{} shard workers lost", report.summary.workers_lost)
    }));

    let last = &records.last().expect("at least one decision").selected;
    let mut hash = Fnv::new();
    hash.bools(last);
    out.selection_hash = hash.finish();

    // --- metrics --------------------------------------------------------
    let s = series(&stamps);
    let decision = out.timing("slot_decision_s", &s.decision);
    let period = out.timing("runtime.slot_period_s", &s.period).median;
    // The median slot period, so that one stalled slot does not set the
    // rate.
    let slots_per_s = 1.0 / period;
    if spec.trace {
        out.set("runtime.begin_slot_s", median(&s.begin));
        out.set("runtime.gather_s", median(&s.gather));
        out.set("runtime.solve_wait_s", median(&s.solve_wait));
        out.set("runtime.apply_s", median(&s.apply));
        out.set("runtime.slot_period_s", period);
        out.set("runtime.hub_residual_s", median(&s.residual));
        out.set(
            "runtime.first_slot_s",
            secs(stamps[0].begin.0, cold_decided),
        );
        out.set("runtime.slots_per_s", slots_per_s);
        if let Some((p, v)) = decision.tail {
            out.set("runtime.slot_decision_tail_s", v);
            out.set("runtime.slot_decision_tail_pct", 100.0 * p);
        }
        out.set("runtime.delta_reuse_slots", delta_paths[0]);
        out.set("runtime.delta_incremental_slots", delta_paths[1]);
        out.set("runtime.delta_cold_slots", delta_paths[2]);
        out.set("bench.trace_overhead_ratio", s.period_on_off.ratio());
        out.set("bench.measured_wall_s", measured_wall);
        match regime {
            Regime::Steady => {
                layers::fleet_layers(&fleet, compute, storage, lambda, &curve, rec, &mut out)
            }
            Regime::Churn => {
                // The same horizon's first slots, strictly sequentially:
                // 1.0 means the pipeline overlaps nothing.
                let sequential = drive(spec, regime, 7.min(slots), false, rec);
                let seq_period = median(&series(&sequential.stamps).period);
                out.set("runtime.seq_over_pipe", seq_period / period);
                layers::edge_fleet_schedule(
                    &fleet, compute, storage, lambda, &curve, rec, &mut out,
                );
                layers::checkpoint(devices / SHARDS, rec, &mut out);
            }
        }
    } else {
        out.set("setup_s", median(&setup_secs));
        out.set("slot_decision_s", decision.median);
        out.set("device_slots_per_s", devices as f64 * slots_per_s);
        let saved: f64 = (0..devices)
            .filter(|&i| last[i])
            .map(|i| fleet.saving_j(i))
            .sum();
        let total: f64 = (0..devices).map(|i| fleet.untransformed_energy_j(i)).sum();
        out.set("energy_saving", saved / total);
        out.set("peak_rss_mb", host::peak_rss_mb());
    }
    out
}
