//! `trace-day` — generate the paper-scale Twitch-like trace, then play
//! one emulated day (96 five-minute slots) for a 500-device virtual
//! cluster, single-threaded: LPVS against the no-transform baseline.
//!
//! This is the trace → emulator → report path and the paper's Figs. 7–9
//! at their largest cluster: per slot, gathering, content statistics, a
//! 500-device solve, playback and γ learning. It is also the quality
//! anchor: its saving and anxiety numbers are deterministic per seed.

use super::{timed_setup, OnOff, Outcome};
use crate::check::ensure;
use crate::spans::Recorder;
use crate::stats::Fnv;
use crate::{host, Spec};
use lpvs_core::baseline::Policy;
use lpvs_emulator::{EmulationReport, Emulator, EmulatorConfig};
use lpvs_trace::TraceGenerator;
use std::hint::black_box;
use std::time::Instant;

const DEVICES: usize = 500;
const SLOTS: usize = 96;
const SERVER_STREAMS: usize = 100;
/// LPVS repetitions in ten seconds (≈ 4.7 s each on the reference host).
const LPVS_REPS_PER_TEN_SECONDS: usize = 2;
/// The paper's band for display-energy saving (Fig. 7: 35.2 % average).
const SAVING_BAND: (f64, f64) = (0.10, 0.55);
/// A set-up round is a few milliseconds: many rounds steady its median.
const SETUP_ROUNDS: usize = 25;

/// Builds an emulator: survey cohort, anxiety curve, device cluster,
/// genres. Input construction, so it is timed as set-up.
fn emulator(spec: &Spec, policy: Policy) -> Emulator {
    let config = EmulatorConfig {
        devices: spec.size(DEVICES),
        slots: spec.size(SLOTS),
        seed: spec.seed,
        server_streams: SERVER_STREAMS,
        ..EmulatorConfig::default()
    };
    Emulator::new(config, policy)
}

fn verify(report: &EmulationReport, devices: usize, slots: usize) -> Result<(), String> {
    ensure(report.slots.len() == slots, || {
        format!("{} of {slots} slots emulated", report.slots.len())
    })?;
    ensure(report.degraded_slots() == 0, || {
        format!(
            "{} slots fell below the exact tier",
            report.degraded_slots()
        )
    })?;
    ensure(report.final_battery.len() == devices, || {
        format!(
            "report covers {} of {devices} devices",
            report.final_battery.len()
        )
    })
}

pub fn run(spec: &Spec, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let devices = spec.size(DEVICES);
    let slots = spec.size(SLOTS);

    let reps = spec.reps(LPVS_REPS_PER_TEN_SECONDS, 2);
    let ((trace, mut emulators, baseline), setup_s) = timed_setup(SETUP_ROUNDS, || {
        let open = rec.enter("trace.generate", spec.seed);
        let trace = TraceGenerator::paper_scale(spec.seed).generate();
        rec.exit(open);
        let emulators: Vec<Emulator> = (0..reps).map(|_| emulator(spec, Policy::Lpvs)).collect();
        (trace, emulators, emulator(spec, Policy::NoTransform))
    });
    let sessions = trace.session_count();
    out.checks.op(ensure(sessions > 0, || {
        "the generated trace has no sessions".to_owned()
    }));
    black_box(&trace);

    let measure_start = Instant::now();
    let mut lpvs_secs = Vec::with_capacity(reps);
    let mut on_off = OnOff::default();
    let mut with: Option<EmulationReport> = None;
    for rep in 0..reps {
        rec.on = spec.trace && rep % 2 == 0;
        let open = rec.enter("emulator.lpvs_run", rep as u64);
        let start = Instant::now();
        let report = emulators.pop().expect("one emulator per repetition").run();
        let took = start.elapsed().as_secs_f64();
        rec.exit(open);
        lpvs_secs.push(took);
        on_off.push(rec.on, took);
        out.checks.op(verify(&report, devices, slots));
        with = Some(report);
    }
    rec.on = spec.trace;
    let open = rec.enter("emulator.baseline_run", 0);
    let start = Instant::now();
    let without = baseline.run();
    let baseline_s = start.elapsed().as_secs_f64();
    rec.exit(open);
    out.checks.op(ensure(
        without.slots.iter().all(|s| s.selected == 0),
        || "the no-transform baseline transformed somebody".to_owned(),
    ));
    let measured_wall = measure_start.elapsed().as_secs_f64();

    let with = with.expect("at least one LPVS repetition");
    let saving = with.display_saving_ratio();
    let anxiety_reduction = with.anxiety_reduction_vs(&without);
    out.checks.op(ensure(
        (SAVING_BAND.0..=SAVING_BAND.1).contains(&saving),
        || format!("energy saving {saving:.4} is outside the paper band {SAVING_BAND:?}"),
    ));
    out.checks.op(ensure(anxiety_reduction > 0.0, || {
        format!("anxiety reduction {anxiety_reduction:.4} is not positive")
    }));
    let mut hash = Fnv::new();
    hash.bools(&with.ever_selected);
    for s in &with.slots {
        hash.u64(s.selected as u64);
    }
    out.selection_hash = hash.finish();

    let lpvs_s = out.timing("emulator.lpvs_run_s", &lpvs_secs).median;
    if spec.trace {
        out.set("trace.generate_s", rec.median_s("trace.generate"));
        out.set("trace.sessions", sessions as f64);
        out.set("emulator.lpvs_run_s", lpvs_s);
        out.set("emulator.baseline_run_s", baseline_s);
        out.set("emulator.solve_share", 1.0 - baseline_s / lpvs_s);
        // The emulator's own account of its time inside the scheduler.
        out.set(
            "emulator.scheduler_share",
            with.scheduler_runtime.as_secs_f64() / lpvs_s,
        );
        out.set("emulator.anxiety_reduction", anxiety_reduction);
        out.set("bench.trace_overhead_ratio", on_off.ratio());
        out.set("bench.measured_wall_s", measured_wall);
    } else {
        out.set("setup_s", setup_s);
        // An emulated slot is gather → decide → play; its time is the
        // day's wall over its slots.
        out.set("slot_decision_s", lpvs_s / slots as f64);
        out.set("device_slots_per_s", (devices * slots) as f64 / lpvs_s);
        out.set("energy_saving", saving);
        out.set("peak_rss_mb", host::peak_rss_mb());
    }
    println!(
        "trace-day: {sessions} trace sessions; energy saving {saving:.4}, anxiety reduction {anxiety_reduction:.4} vs no-transform"
    );
    out
}
