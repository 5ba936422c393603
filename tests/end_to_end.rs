//! End-to-end integration: the full pipeline from survey to schedule to
//! emulated playback, exercised through the public façade.

use lpvs::core::baseline::Policy;
use lpvs::core::scheduler::LpvsScheduler;
use lpvs::display::quality::QualityBudget;
use lpvs::display::spec::{DisplaySpec, Resolution};
use lpvs::edge::cluster::ClusterGenerator;
use lpvs::emulator::engine::{Emulator, EmulatorConfig};
use lpvs::emulator::experiment::{run_pair, synthetic_problem};
use lpvs::emulator::gather::gather_problem;
use lpvs::media::content::{ContentModel, Genre};
use lpvs::media::encoder::TransformEncoder;
use lpvs::survey::extraction::extract_curve;
use lpvs::survey::generator::SurveyGenerator;
use lpvs::trace::csv::{parse_trace, write_trace};
use lpvs::trace::generator::TraceGenerator;

#[test]
fn survey_to_scheduler_pipeline() {
    // Survey → curve.
    let cohort = SurveyGenerator::paper_cohort(5).generate();
    let curve = extract_curve(cohort.iter().map(|p| p.charge_level));
    assert!(curve.is_monotone());

    // Cluster + content → slot problem.
    let cluster = ClusterGenerator::paper_setup(12, 5).generate();
    let windows: Vec<Vec<f64>> = cluster
        .devices()
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let stats = ContentModel::new(Genre::Gaming, i as u64).chunk_stats(30);
            stats.iter().map(|f| d.spec().power_watts(f)).collect()
        })
        .collect();
    let gammas = vec![0.31; 12];
    let problem = gather_problem(
        cluster.devices(),
        &windows,
        &gammas,
        10.0,
        3000.0,
        cluster.server().compute_capacity(),
        cluster.server().storage_capacity_gb(),
        1.0,
        &curve,
    );
    assert_eq!(problem.len(), 12);

    // Schedule.
    let schedule = LpvsScheduler::paper_default().schedule(&problem).unwrap();
    assert!(problem.capacity_feasible(&schedule.selected));
    assert!(schedule.num_selected() > 0);
}

#[test]
fn emulation_beats_every_naive_policy_on_energy() {
    let config = EmulatorConfig { devices: 14, slots: 5, seed: 31, ..Default::default() };
    let lpvs = Emulator::new(config, Policy::Lpvs).run();
    let none = Emulator::new(config, Policy::NoTransform).run();
    let random = Emulator::new(config, Policy::Random { seed: 4 }).run();

    assert!(lpvs.display_energy_j < none.display_energy_j);
    // Under sufficient capacity, random also transforms everyone, so
    // compare against the untransformed run only for strict ordering
    // and require LPVS ≤ random.
    assert!(lpvs.display_energy_j <= random.display_energy_j + 1e-6);
}

#[test]
fn paired_runs_are_comparable() {
    let config = EmulatorConfig { devices: 10, slots: 4, seed: 77, ..Default::default() };
    let (with, without) = run_pair(config, Policy::Lpvs);
    assert_eq!(with.initial_battery, without.initial_battery);
    assert_eq!(with.watch_minutes.len(), without.watch_minutes.len());
    // Transformed playback can only extend watch time.
    for (w, wo) in with.watch_minutes.iter().zip(&without.watch_minutes) {
        assert!(*w >= wo - 1e-9, "LPVS shortened a viewer's session");
    }
}

#[test]
fn encoder_feeds_realistic_gammas_to_the_scheduler() {
    // The transform encoder's measured ratios must land in the band the
    // Bayesian prior assumes (Table I).
    let video = ContentModel::new(Genre::Movie, 8).video(1, Resolution::HD, 300.0, 10.0);
    for spec in [
        DisplaySpec::oled_phone(Resolution::HD),
        DisplaySpec::lcd_phone(Resolution::HD),
    ] {
        let encoded = TransformEncoder::new(QualityBudget::default()).encode(&video, &spec);
        let gamma = encoded.mean_reduction_ratio();
        assert!(
            (0.05..0.75).contains(&gamma),
            "{}: display-level γ {gamma} out of plausible band",
            spec.kind
        );
    }
}

#[test]
fn trace_round_trips_and_feeds_vc_sizing() {
    let trace = TraceGenerator::new(120, 17).generate();
    let back = parse_trace(&write_trace(&trace)).unwrap();
    assert_eq!(trace, back);

    // Pick a busy session: its viewer count is a plausible VC size.
    let busiest = trace
        .sessions()
        .max_by_key(|(_, s)| s.peak_viewers())
        .map(|(_, s)| s.peak_viewers())
        .unwrap();
    assert!(busiest >= 1);
}

#[test]
fn scheduler_handles_the_fig10_scale() {
    // 1,000 devices in one slot — the scale of the paper's overhead
    // analysis (5,000 runs in release benches; 1,000 keeps the debug
    // test quick).
    let problem = synthetic_problem(1000, 100.0, 1.0, 3);
    let schedule = LpvsScheduler::paper_default().schedule(&problem).unwrap();
    assert!(problem.capacity_feasible(&schedule.selected));
    // Capacity is ~100 compute units against ~1.3 per device.
    assert!(schedule.num_selected() >= 40);
}
