//! Fault ablation: sweeps a uniform per-slot fault rate (device
//! disconnects, corrupt γ telemetry, edge brownouts, solver-budget
//! cuts) and reports how much of the Fig. 7 headline survives, plus
//! how often the scheduler's degradation ladder had to leave its
//! exact solver.
//!
//! Writes `BENCH_faults.json` at the repository root. `--smoke` runs a
//! reduced sweep for CI.

use lpvs_core::baseline::Policy;
use lpvs_core::scheduler::Degradation;
use lpvs_emulator::engine::{Emulator, EmulatorConfig};
use lpvs_emulator::experiment::fault_sweep;
use lpvs_emulator::faults::FaultConfig;
use lpvs_emulator::report::{render_degradation, render_faults};
use lpvs_obs::json::Json;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rates, devices, slots): (&[f64], usize, usize) = if smoke {
        (&[0.0, 0.10], 16, 8)
    } else {
        (&[0.0, 0.05, 0.10, 0.20, 0.30], 50, 24)
    };
    println!(
        "Fault ablation — LPVS under injected faults{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    let rows = fault_sweep(rates, devices, slots, 2020);
    print!("{}", render_faults(&rows));

    // Per-tier ledger of a representative 10 % run (the acceptance
    // operating point), with the telemetry recorder on so the run also
    // exercises the per-tier latency histograms.
    let recorder = lpvs_obs::init();
    recorder.reset();
    let config = EmulatorConfig {
        devices,
        slots,
        seed: 2020,
        server_streams: 6 * devices,
        faults: FaultConfig::uniform(0.10, 2020 ^ 0xFA17),
        ..EmulatorConfig::default()
    };
    let report = Emulator::new(config, Policy::Lpvs).run();
    lpvs_obs::set_enabled(false);
    println!("\nat the 10% operating point:");
    print!("{}", render_degradation(&report));

    let snapshot = report.obs.clone().unwrap_or_default();
    let tiers = Json::Obj(
        Degradation::ALL
            .iter()
            .map(|tier| {
                let name = tier.label();
                let count = snapshot
                    .metrics
                    .counter_labeled("sched_tier_total", &[("tier", name)])
                    .unwrap_or(0);
                (name.to_owned(), Json::Num(count as f64))
            })
            .collect(),
    );
    let artifact = Json::obj([
        ("figure", Json::Str("ablation_faults".into())),
        ("smoke", Json::Bool(smoke)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("fault_rate", Json::Num(r.fault_rate)),
                            ("energy_saving", Json::Num(r.energy_saving)),
                            ("anxiety_reduction", Json::Num(r.anxiety_reduction)),
                            ("degraded_slots", Json::Num(r.degraded_slots as f64)),
                            ("total_slots", Json::Num(r.total_slots as f64)),
                            (
                                "recovery_slots",
                                match r.recovery_slots {
                                    Some(v) => Json::Num(v),
                                    None => Json::Null,
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "operating_point",
            Json::obj([
                ("fault_rate", Json::Num(0.10)),
                ("degraded_slots", Json::Num(report.degraded_slots() as f64)),
                ("tier_counts", tiers),
                ("span_events", Json::Num(snapshot.span_events as f64)),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json");
    std::fs::write(path, format!("{artifact}\n")).expect("write BENCH_faults.json");
    println!("wrote {path}");
}
