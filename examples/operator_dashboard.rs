//! Operator's view of one scheduling slot: who got the transform and
//! why, and what the edge capacity went to — and the slot's telemetry
//! (a Perfetto-loadable Chrome trace and metrics in Prometheus
//! exposition).
//!
//! Run with: `cargo run --example operator_dashboard`
//!
//! Writes `obs_trace.json` (open it at <https://ui.perfetto.dev>) and
//! `obs_metrics.prom` to the current directory.
//!
//! To render a *running* `lpvs-serve` instead of an in-process
//! snapshot, scrape it with the `lpvs-obs` bin:
//! `cargo run -p lpvs-obs --bin operator-dashboard -- --scrape localhost:7070`.

use lpvs::core::budget::SlotBudget;
use lpvs::core::explain::{explain, Reason};
use lpvs::core::fleet::DeviceFleet;
use lpvs::core::problem::{DeviceRequest, SlotProblem};
use lpvs::core::scheduler::LpvsScheduler;
use lpvs::display::spec::{DisplayKind, DisplaySpec, Resolution};
use lpvs::edge::fleet::FleetScheduler;
use lpvs::edge::server::EdgeServer;
use lpvs::media::content::{ContentModel, Genre};
use lpvs::obs::sink;
use lpvs::runtime::telemetry;
use lpvs::survey::curve::AnxietyCurve;

fn main() {
    let recorder = lpvs::obs::init();
    let cap = 55_440.0;
    let curve = AnxietyCurve::paper_shape();

    // Eight viewers with varied panels, genres and batteries; edge
    // capacity for roughly half of the requested pixel throughput.
    let fleet: [(&str, DisplayKind, Resolution, Genre, f64); 8] = [
        ("night gamer", DisplayKind::Oled, Resolution::FHD, Genre::Gaming, 0.09),
        ("sports bar", DisplayKind::Lcd, Resolution::FHD, Genre::Sports, 0.77),
        ("commuter", DisplayKind::Oled, Resolution::HD, Genre::Talk, 0.22),
        ("film night", DisplayKind::Oled, Resolution::QHD, Genre::Movie, 0.55),
        ("concert feed", DisplayKind::Oled, Resolution::HD, Genre::Music, 0.15),
        ("office lunch", DisplayKind::Lcd, Resolution::HD, Genre::Talk, 0.88),
        ("budget phone", DisplayKind::Lcd, Resolution::SD, Genre::Gaming, 0.31),
        ("almost dead", DisplayKind::Oled, Resolution::HD, Genre::Movie, 0.004),
    ];

    let mut problem = SlotProblem::new(6.0, 2.0, 1.0, curve.clone());
    for (i, &(_, kind, resolution, genre, battery)) in fleet.iter().enumerate() {
        let spec = match kind {
            DisplayKind::Oled => DisplaySpec::oled_phone(resolution),
            DisplayKind::Lcd => DisplaySpec::lcd_phone(resolution),
        };
        let stats = ContentModel::new(genre, i as u64).chunk_stats(30);
        let rates: Vec<f64> = stats.iter().map(|s| spec.power_watts(s) + 0.558).collect();
        problem.push(DeviceRequest::new(
            rates,
            10.0,
            battery * cap,
            cap,
            0.31,
            lpvs::media::cost::transform_compute_units(resolution, 30.0),
            0.11,
        ));
    }

    let schedule = LpvsScheduler::paper_default().schedule_resilient(
        &problem,
        None,
        &SlotBudget::unbounded(),
    );
    // The solver writes no telemetry; it returns its laps, and the slot
    // runtime's publisher records their spans — called directly here.
    telemetry::record_spans(&schedule.laps, None);
    let explanation = explain(&problem, &schedule.selected);

    println!(
        "{:>13} | {:>5} | {:>6} | {:>8} | {:>7} | {:>18}",
        "viewer", "panel", "rung", "battery", "anxiety", "decision"
    );
    println!("{}", "-".repeat(72));
    for (i, &(name, kind, resolution, _, battery)) in fleet.iter().enumerate() {
        let decision = match explanation.reasons[i] {
            Reason::Selected { saving_j, .. } => format!("transform (−{saving_j:.0} J)"),
            Reason::EnergyInfeasible => "skip: battery".to_owned(),
            Reason::LostOnCapacity { .. } => "skip: capacity".to_owned(),
            Reason::NoBenefit => "skip: no benefit".to_owned(),
        };
        println!(
            "{:>13} | {:>5} | {:>6} | {:>7.0}% | {:>7.2} | {:>18}",
            name,
            kind.to_string(),
            resolution.short_name(),
            battery * 100.0,
            curve.phi(battery),
            decision,
        );
    }
    println!("{}", "-".repeat(72));
    println!("{}", explanation.summary());
    println!(
        "slot: {:.0} J saved, objective {:.0}, tier {}, {} B&B nodes / {} pivots, \
         scheduled in {:?}",
        schedule.stats.energy_saved_j,
        schedule.stats.objective,
        schedule.stats.degradation,
        schedule.stats.phase1_nodes,
        schedule.stats.phase1_pivots,
        schedule.stats.runtime
    );

    // Drive the same fleet through the 2-shard scoped-thread scheduler,
    // publish its records as the slot runtime does, and record each
    // shard's spans from its laps as the runtime's shard body does —
    // there under the shard's `runtime.solve`; here there is no open
    // span, so each shard roots a trace.
    let device_fleet = DeviceFleet::from_problem(&problem);
    let server = EdgeServer::new(6.0, 2.0);
    let fleet_schedule = FleetScheduler::with_shards(2).schedule(
        &device_fleet,
        &server,
        1.0,
        &curve,
        None,
        &SlotBudget::unbounded(),
    );
    telemetry::publish(&fleet_schedule);
    for report in &fleet_schedule.shards {
        telemetry::record_spans(&report.laps, None);
    }
    println!(
        "\n2-shard fleet pass: {:.0} J saved across {} shards",
        fleet_schedule.shards.iter().map(|s| s.stats.energy_saved_j).sum::<f64>(),
        fleet_schedule.shards.len(),
    );

    // --- Telemetry ---------------------------------------------------
    lpvs::obs::set_enabled(false);
    let events = recorder.events();
    let threads: std::collections::BTreeSet<u64> = events.iter().map(|e| e.thread).collect();
    let traces: std::collections::BTreeSet<u64> = events.iter().map(|e| e.trace).collect();
    let orphans = events
        .iter()
        .filter(|e| e.parent.is_none() && events.iter().any(|r| r.id != e.id && r.trace == e.trace))
        .count();
    println!(
        "\ntrace: {} spans over {} threads in {} traces ({} roots with children)",
        events.len(),
        threads.len(),
        traces.len(),
        orphans,
    );

    let metrics = recorder.metrics().snapshot();
    println!("\nmetrics (Prometheus exposition):");
    print!("{}", sink::render_prometheus(&metrics));

    std::fs::write("obs_trace.json", sink::events_to_chrome_trace(&events))
        .expect("write obs_trace.json");
    std::fs::write("obs_metrics.prom", sink::render_prometheus(&metrics))
        .expect("write obs_metrics.prom");
    println!(
        "\nwrote obs_trace.json ({} spans — open at https://ui.perfetto.dev) and obs_metrics.prom",
        events.len()
    );
}
