//! Sharded-fleet invariants: the fleet entry (a `SlotView` of fleet
//! columns) decides exactly like the row entry (a materialized
//! `SlotProblem`), the 1-shard `FleetScheduler` is therefore the
//! monolithic scheduler, and multi-shard schedules never violate any
//! shard's capacity.

use lpvs::core::budget::SlotBudget;
use lpvs::core::fleet::DeviceFleet;
use lpvs::core::phase1::{Phase1Config, Phase1Solver};
use lpvs::core::problem::{DeviceRequest, SlotProblem};
use lpvs::core::scheduler::{Degradation, LpvsScheduler, Schedule, SchedulerConfig};
use lpvs::edge::fleet::{FleetConfig, FleetScheduler, Partitioner};
use lpvs::edge::server::EdgeServer;
use lpvs::survey::curve::AnxietyCurve;
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
    fn arb_fleet()(
        requests in prop::collection::vec(arb_request(), 1..24),
    ) -> DeviceFleet {
        let mut fleet = DeviceFleet::new();
        for r in requests {
            fleet.push_request(r);
        }
        fleet
    }
}

fn monolithic_schedule(
    fleet: &DeviceFleet,
    server: &EdgeServer,
    lambda: f64,
    curve: &AnxietyCurve,
) -> lpvs::core::scheduler::Schedule {
    let all: Vec<usize> = (0..fleet.len()).collect();
    let problem = fleet.subproblem(
        &all,
        server.compute_capacity(),
        server.storage_capacity_gb(),
        lambda,
        curve,
    );
    LpvsScheduler::paper_default().schedule_resilient(&problem, None, &SlotBudget::unbounded())
}

/// A schedule with its wall-clock reading blanked, so two runs compare
/// on the decision and every other statistic.
fn timeless(mut schedule: Schedule) -> Schedule {
    schedule.stats.runtime = std::time::Duration::ZERO;
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fleet entry ≡ row entry: solving a view of an arbitrary row
    /// subset (any order, disconnected rows elsewhere in the fleet)
    /// equals materializing those rows and solving the problem — the
    /// selection and every statistic but the wall clock — on all three
    /// backends, cold and warm-started from an arbitrary hint, under a
    /// solver floor and a node cap.
    #[test]
    fn fleet_entry_matches_the_row_entry(
        fleet in arb_fleet(),
        keys in prop::collection::vec((0u32..1_000_000, any::<bool>(), any::<bool>()), 24),
        take in 0usize..25,
        capacity in 0.0f64..20.0,
        storage in 0.0f64..3.0,
        lambda in 0.0f64..8.0,
        floor in prop_oneof![
            Just(None),
            Just(Some(Degradation::Lagrangian)),
            Just(Some(Degradation::Greedy)),
            Just(Some(Degradation::ReusedPrevious)),
        ],
        node_cap in prop_oneof![Just(None), Just(Some(1usize))],
    ) {
        let mut fleet = fleet;
        let curve = AnxietyCurve::paper_shape();
        // Rows in key order — not fleet order — with every
        // disconnected row left out of the subset.
        let mut rows: Vec<usize> = (0..fleet.len()).collect();
        rows.sort_by_key(|&i| keys[i].0);
        for (i, key) in keys.iter().enumerate().take(fleet.len()) {
            fleet.set_connected(i, !key.1);
        }
        rows.retain(|&i| fleet.connected(i));
        rows.truncate(take);
        let hint: Vec<bool> = rows.iter().map(|&i| keys[i].2).collect();
        let mut budget = SlotBudget::unbounded();
        budget.solver_floor = floor;
        budget.solver_nodes = node_cap;

        let problem = fleet.subproblem(&rows, capacity, storage, lambda, &curve);
        let view = fleet.slot_view(&rows, capacity, storage, lambda, &curve);
        for solver in [Phase1Solver::Exact, Phase1Solver::Lagrangian, Phase1Solver::Greedy] {
            let scheduler = LpvsScheduler::new(SchedulerConfig {
                phase1: Phase1Config { solver, ..Phase1Config::default() },
                ..SchedulerConfig::default()
            });
            for warm in [None, Some(hint.as_slice())] {
                let by_rows = timeless(scheduler.schedule_resilient(&problem, warm, &budget));
                let by_view = timeless(scheduler.schedule_view(view, warm, &budget));
                prop_assert!(
                    by_view == by_rows
                        && by_view.stats.objective.to_bits() == by_rows.stats.objective.to_bits()
                        && by_view.stats.energy_saved_j.to_bits()
                            == by_rows.stats.energy_saved_j.to_bits(),
                    "{:?}, warm {}: view {:?} vs rows {:?}",
                    solver, warm.is_some(), by_view, by_rows
                );
                prop_assert_eq!(by_view.stats.rejected_devices, 0);
            }
        }
    }

    /// A 1-shard fleet schedule is **bit-identical** to the monolithic
    /// scheduler: same selections, objective within 1e-9 (the fleet
    /// recomputes it columnar-side).
    #[test]
    fn one_shard_fleet_matches_the_monolith(
        fleet in arb_fleet(),
        capacity in 0.0f64..20.0,
        storage in 0.0f64..3.0,
        lambda in 0.0f64..8.0,
    ) {
        let curve = AnxietyCurve::paper_shape();
        let server = EdgeServer::new(capacity, storage);
        let mono = monolithic_schedule(&fleet, &server, lambda, &curve);
        let out = FleetScheduler::with_shards(1).schedule(
            &fleet, &server, lambda, &curve, None, &SlotBudget::unbounded(),
        );
        prop_assert_eq!(&out.selected, &mono.selected);
        prop_assert!(
            (out.objective - mono.stats.objective).abs() <= 1e-9,
            "objective diverged: fleet {} vs monolith {}",
            out.objective,
            mono.stats.objective
        );
        prop_assert!((out.energy_saved_j - mono.stats.energy_saved_j).abs() <= 1e-9);
        prop_assert_eq!(out.migrations, 0);
    }

    /// Every shard of a multi-shard schedule respects its own server's
    /// capacity pair — including after the rebalancing pass — for both
    /// partitioners.
    #[test]
    fn multi_shard_fleet_is_per_shard_feasible(
        fleet in arb_fleet(),
        num_shards in 2usize..5,
        hash in any::<bool>(),
        capacity in 0.5f64..20.0,
        storage in 0.1f64..3.0,
        lambda in 0.0f64..8.0,
    ) {
        let curve = AnxietyCurve::paper_shape();
        let server = EdgeServer::new(capacity, storage);
        let scheduler = FleetScheduler::new(FleetConfig {
            num_shards,
            partitioner: if hash { Partitioner::Hash } else { Partitioner::Locality },
            ..FleetConfig::default()
        });
        let out = scheduler.schedule(
            &fleet, &server, lambda, &curve, None, &SlotBudget::unbounded(),
        );
        prop_assert_eq!(out.selected.len(), fleet.len());
        prop_assert_eq!(out.shards.len(), num_shards);

        // Exact per-shard accounting: each report names the devices it
        // admitted *into* itself, so a migrated device's load belongs
        // to the admitting shard and not its home shard.
        let migrated: std::collections::HashSet<usize> =
            out.shards.iter().flat_map(|r| r.migrated_in.iter().copied()).collect();
        let per_compute = capacity / num_shards as f64;
        let per_storage = storage / num_shards as f64;
        let mut charged = vec![false; fleet.len()];
        for report in &out.shards {
            let mut g = 0.0;
            let mut h = 0.0;
            let billed = report
                .devices
                .iter()
                .copied()
                .filter(|i| out.selected[*i] && !migrated.contains(i))
                .chain(report.migrated_in.iter().copied());
            for i in billed {
                prop_assert!(out.selected[i], "migrated device {i} must be selected");
                prop_assert!(!charged[i], "device {i} billed to two shards");
                charged[i] = true;
                g += fleet.compute_cost(i);
                h += fleet.storage_cost_gb(i);
            }
            prop_assert!(
                g <= per_compute + 1e-9,
                "shard {} compute {} vs {}",
                report.shard, g, per_compute
            );
            prop_assert!(
                h <= per_storage + 1e-9,
                "shard {} storage {} vs {}",
                report.shard, h, per_storage
            );
        }
        // Every selected device is billed to exactly one shard.
        for (c, s) in charged.iter().zip(&out.selected) {
            prop_assert_eq!(c, s);
        }
        // Aggregate feasibility is exact: the total admitted load fits
        // the total capacity.
        let (tg, th) = (0..fleet.len()).filter(|&i| out.selected[i]).fold(
            (0.0, 0.0),
            |(g, h), i| (g + fleet.compute_cost(i), h + fleet.storage_cost_gb(i)),
        );
        prop_assert!(tg <= capacity + 1e-6, "total compute {tg} vs {capacity}");
        prop_assert!(th <= storage + 1e-6, "total storage {th} vs {storage}");
    }
}

/// Deterministic end-to-end check that the equivalence also holds for a
/// full sanitize-worthy problem (mirrors the emulator's sharded path).
#[test]
fn one_shard_equivalence_on_a_gathered_style_problem() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    let curve = AnxietyCurve::paper_shape();
    let mut problem = SlotProblem::new(12.0, 1.5, 2.0, curve.clone());
    for _ in 0..40 {
        problem.push(DeviceRequest::uniform(
            rng.gen_range(0.6..1.9),
            10.0,
            30,
            rng.gen_range(0.03..0.98) * CAPACITY_J,
            CAPACITY_J,
            rng.gen_range(0.1..0.45),
            rng.gen_range(0.3..2.0),
            rng.gen_range(0.05..0.2),
        ));
    }
    let mono = LpvsScheduler::paper_default().schedule_resilient(
        &problem,
        None,
        &SlotBudget::unbounded(),
    );
    let fleet = DeviceFleet::from_problem(&problem);
    let out = FleetScheduler::with_shards(1).schedule(
        &fleet,
        &EdgeServer::new(12.0, 1.5),
        2.0,
        &curve,
        None,
        &SlotBudget::unbounded(),
    );
    assert_eq!(out.selected, mono.selected);
    assert!((out.objective - mono.stats.objective).abs() <= 1e-9);
}

/// Corrupt telemetry at the row entry: the loader stores a rejected
/// device as an inert, disconnected row, so the row entry counts it,
/// never selects it, and decides exactly like the fleet entry over the
/// fleet the same loader builds — under garbage capacities too.
#[test]
fn corrupt_rows_are_rejected_and_masked_at_the_row_entry() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(7);
    let curve = AnxietyCurve::paper_shape();
    let mut problem = SlotProblem::new(9.0, 1.2, 2.0, curve.clone());
    for _ in 0..30 {
        problem.push(DeviceRequest::uniform(
            rng.gen_range(0.6..1.9),
            10.0,
            30,
            rng.gen_range(0.03..0.98) * CAPACITY_J,
            CAPACITY_J,
            rng.gen_range(0.1..0.45),
            rng.gen_range(0.3..2.0),
            rng.gen_range(0.05..0.2),
        ));
    }
    problem.requests[4].gamma = f64::NAN;
    problem.requests[11].chunk_secs.truncate(7);
    problem.requests[19].capacity_j = -CAPACITY_J;
    let corrupt = [4usize, 11, 19];
    let (clean, valid) = problem.sanitize();
    assert_eq!(valid.iter().filter(|&&ok| !ok).count(), 3);

    let scheduler = LpvsScheduler::paper_default();
    let budget = SlotBudget::unbounded();
    let by_rows = scheduler.schedule_resilient(&problem, None, &budget);
    assert_eq!(by_rows.stats.rejected_devices, 3);
    assert_eq!(by_rows.stats.degradation, Degradation::Exact);
    assert!(corrupt.iter().all(|&i| !by_rows.selected[i]), "a rejected device was selected");
    assert!(by_rows.num_selected() > 0, "healthy devices still get scheduled");
    assert!(clean.capacity_feasible(&by_rows.selected));

    let fleet = DeviceFleet::from_problem(&problem);
    for (i, &ok) in valid.iter().enumerate() {
        assert_eq!(fleet.connected(i), ok, "row {i}: the mask is the connectivity column");
        assert_eq!(fleet.device_request(i), clean.requests[i], "row {i}");
    }
    let all: Vec<usize> = (0..fleet.len()).collect();
    let view = fleet.slot_view(&all, 9.0, 1.2, 2.0, &curve);
    assert_eq!(timeless(scheduler.schedule_view(view, None, &budget)), timeless(by_rows));

    // Capacities the scheduler cannot trust admit nothing, on both entries.
    problem.compute_capacity = -3.0;
    problem.lambda = f64::NAN;
    let shut = scheduler.schedule_resilient(&problem, None, &budget);
    assert_eq!(shut.num_selected(), 0);
    assert_eq!(shut.stats.rejected_devices, 3);
    let view = fleet.slot_view(&all, -3.0, 1.2, f64::NAN, &curve);
    assert_eq!(timeless(scheduler.schedule_view(view, None, &budget)), timeless(shut));
}
