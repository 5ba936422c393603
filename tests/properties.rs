//! Property-based tests over the cross-crate invariants.

use lpvs::core::baseline::{Policy, SelectionPolicy};
use lpvs::core::compact::{chunk_level_feasible, compact_device};
use lpvs::core::objective::{objective_value, objective_value_recursive};
use lpvs::core::problem::{DeviceRequest, SlotProblem};
use lpvs::core::scheduler::LpvsScheduler;
use lpvs::display::quality::QualityBudget;
use lpvs::display::spec::{DisplaySpec, Resolution};
use lpvs::display::stats::FrameStats;
use lpvs::display::transform::{BacklightScaling, ColorTransform, Transform};
use lpvs::survey::curve::AnxietyCurve;
use lpvs::survey::extraction::extract_curve;
use proptest::prelude::*;

const CAPACITY_J: f64 = 55_440.0;

prop_compose! {
    fn arb_request()(
        watts in 0.5f64..2.0,
        chunks in 1usize..40,
        fraction in 0.0f64..1.0,
        gamma in 0.0f64..0.49,
        compute in 0.1f64..3.0,
        storage in 0.01f64..0.3,
    ) -> DeviceRequest {
        DeviceRequest::uniform(
            watts, 10.0, chunks, fraction * CAPACITY_J, CAPACITY_J, gamma, compute, storage,
        )
    }
}

prop_compose! {
    fn arb_problem()(
        requests in prop::collection::vec(arb_request(), 1..20),
        capacity in 0.0f64..20.0,
        storage in 0.0f64..3.0,
        lambda in 0.0f64..8.0,
    ) -> SlotProblem {
        let mut p = SlotProblem::new(capacity, storage, lambda, AnxietyCurve::paper_shape());
        for r in requests {
            p.push(r);
        }
        p
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scheduler always returns a capacity-feasible selection of
    /// transform-feasible devices.
    #[test]
    fn scheduler_selection_is_always_feasible(problem in arb_problem()) {
        let schedule = LpvsScheduler::paper_default().schedule(&problem).unwrap();
        prop_assert!(problem.capacity_feasible(&schedule.selected));
        for (r, &x) in problem.requests.iter().zip(&schedule.selected) {
            if x {
                prop_assert!(compact_device(r).transform_feasible);
            }
        }
    }

    /// Compacted and recursive objective evaluation agree everywhere.
    #[test]
    fn objective_evaluators_agree(problem in arb_problem(), mask in any::<u32>()) {
        let sel: Vec<bool> = (0..problem.len()).map(|i| mask & (1 << (i % 32)) != 0).collect();
        let a = objective_value(&problem, &sel);
        let b = objective_value_recursive(&problem, &sel);
        prop_assert!((a - b).abs() < 1e-6 * a.abs().max(1.0));
    }

    /// Phase-2 never worsens the objective relative to Phase-1 alone.
    #[test]
    fn phase2_monotone_improvement(problem in arb_problem()) {
        let full = LpvsScheduler::paper_default().schedule(&problem).unwrap();
        let p1 = LpvsScheduler::phase1_only().schedule(&problem).unwrap();
        prop_assert!(full.stats.objective <= p1.stats.objective + 1e-6);
    }

    /// Chunk-level feasibility implies compacted feasibility (the
    /// compacted constraint is a sound relaxation).
    #[test]
    fn compacting_is_sound(request in arb_request()) {
        let c = compact_device(&request);
        if chunk_level_feasible(&request, true) {
            prop_assert!(c.transform_feasible);
        }
        if chunk_level_feasible(&request, false) {
            prop_assert!(c.playback_feasible);
        }
    }

    /// Every baseline policy yields feasible selections too.
    #[test]
    fn baselines_are_feasible(problem in arb_problem(), seed in any::<u64>()) {
        for policy in [
            Policy::NoTransform,
            Policy::Random { seed },
            Policy::LowestBattery,
            Policy::HighestSaving,
        ] {
            let sel = policy.select(&problem);
            prop_assert!(problem.capacity_feasible(&sel), "{}", policy.name());
        }
    }

    /// Transforms never increase display power and never exceed their
    /// quality budget, over arbitrary content.
    #[test]
    fn transforms_save_within_budget(r in 0.0f64..1.0, g in 0.0f64..1.0, b in 0.0f64..1.0, spread in 0usize..10) {
        let frame = FrameStats::from_encoded_rgb([r, g, b], spread);
        let budget = QualityBudget::default();
        let lcd = DisplaySpec::lcd_phone(Resolution::FHD);
        let oled = DisplaySpec::oled_phone(Resolution::FHD);

        let out = BacklightScaling::new(budget).apply(&frame, &lcd);
        prop_assert!(out.power_watts(&lcd) <= lcd.power_watts(&frame) + 1e-9);
        prop_assert!(out.distortion.within(&budget));

        let out = ColorTransform::new(budget).apply(&frame, &oled);
        prop_assert!(out.power_watts(&oled) <= oled.power_watts(&frame) + 1e-9);
        prop_assert!(out.distortion.within(&budget));
    }

    /// Curve extraction always yields a monotone curve bounded in [0,1]
    /// with anxiety 1 at a dying battery.
    #[test]
    fn extraction_invariants(answers in prop::collection::vec(1u8..=100, 1..300)) {
        let curve = extract_curve(answers.iter().copied());
        prop_assert!(curve.is_monotone());
        prop_assert!((curve.level(1) - 1.0).abs() < 1e-12);
        prop_assert!(curve.values().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    /// The anxiety interpolation stays within the bracketing levels.
    #[test]
    fn phi_brackets(levels in prop::collection::vec(0.0f64..=1.0, 100), e in 0.0f64..1.0) {
        // Sort descending to make a valid monotone curve.
        let mut sorted = levels;
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let arr: [f64; 100] = sorted.try_into().unwrap();
        let curve = AnxietyCurve::from_levels(arr);
        let v = curve.phi(e);
        let lo = curve.level((e * 100.0).floor().max(1.0) as u8);
        let hi = curve.level((e * 100.0).ceil().max(1.0) as u8);
        prop_assert!(v <= lo + 1e-12 && v >= hi - 1e-12, "phi {v} outside [{hi}, {lo}]");
    }
}

// --- Robustness properties: the resilient scheduler on junk input ----

prop_compose! {
    /// A telemetry value that may be corrupt: NaN, infinite, negative,
    /// or an ordinary finite reading.
    fn junk_f64()(v in prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-3.0f64),
        0.0f64..3.0,
    ]) -> f64 {
        v
    }
}

prop_compose! {
    /// A device report assembled without any validation — what the edge
    /// would see from a malfunctioning client.
    fn junk_request()(
        watts in junk_f64(),
        secs in junk_f64(),
        chunks in 1usize..20,
        energy in junk_f64(),
        capacity in junk_f64(),
        gamma in junk_f64(),
        compute in junk_f64(),
        storage in junk_f64(),
    ) -> DeviceRequest {
        DeviceRequest::from_telemetry(
            vec![watts; chunks],
            secs,
            energy * 10_000.0,
            capacity * 10_000.0,
            gamma,
            compute,
            storage,
        )
    }
}

prop_compose! {
    fn junk_problem()(
        requests in prop::collection::vec(junk_request(), 0..16),
        capacity in junk_f64(),
        storage in junk_f64(),
        lambda in junk_f64(),
    ) -> SlotProblem {
        let mut p = SlotProblem::new(0.0, 0.0, 0.0, AnxietyCurve::paper_shape());
        for r in requests {
            p.push(r);
        }
        p.compute_capacity = capacity * 10.0;
        p.storage_capacity_gb = storage * 10.0;
        p.lambda = lambda;
        p
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The resilient scheduler neither panics nor returns an infeasible
    /// selection, no matter how corrupt the telemetry is.
    #[test]
    fn resilient_scheduler_never_panics_and_stays_feasible(
        problem in junk_problem()
    ) {
        use lpvs::core::budget::SlotBudget;
        let schedule = LpvsScheduler::paper_default()
            .schedule_resilient(&problem, None, &SlotBudget::unbounded());
        prop_assert_eq!(schedule.selected.len(), problem.len());
        let (clean, valid) = problem.sanitize();
        prop_assert!(clean.capacity_feasible(&schedule.selected));
        // Corrupt devices are never selected.
        for (i, (&x, &ok)) in schedule.selected.iter().zip(&valid).enumerate() {
            prop_assert!(!x || ok, "corrupt device {i} selected");
        }
    }

    /// Every rung of the ladder yields a capacity-feasible selection,
    /// including under a budget that forces the bottom rungs.
    #[test]
    fn ladder_is_feasible_at_every_budget(
        problem in junk_problem(),
        nodes in 1usize..16,
        stalled in proptest::arbitrary::any::<bool>()
    ) {
        use lpvs::core::budget::SlotBudget;
        let mut budget = SlotBudget { solver_nodes: Some(nodes), ..SlotBudget::unbounded() };
        if stalled {
            budget = budget.with_deadline_secs(0.0);
        }
        let previous = vec![true; problem.len()];
        let schedule = LpvsScheduler::paper_default()
            .schedule_resilient(&problem, Some(&previous), &budget);
        let (clean, _) = problem.sanitize();
        prop_assert!(clean.capacity_feasible(&schedule.selected));
    }

    /// Fault plans are bit-reproducible: the same config always maps to
    /// the same plan.
    #[test]
    fn fault_plans_replay_bit_for_bit(
        rate in 0.0f64..1.0,
        seed in proptest::arbitrary::any::<u64>(),
        slots in 0usize..40,
        devices in 0usize..40
    ) {
        use lpvs::emulator::faults::{FaultConfig, FaultPlan};
        let config = FaultConfig::uniform(rate, seed);
        let a = FaultPlan::generate(&config, slots, devices);
        let b = FaultPlan::generate(&config, slots, devices);
        prop_assert_eq!(a, b);
    }
}
