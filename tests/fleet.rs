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
use lpvs::edge::fleet::{FleetConfig, FleetSchedule, FleetScheduler, ShardLoad, ShardReport};
use lpvs::edge::server::EdgeServer;
use lpvs::edge::shard::ShardSolve;
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

/// A schedule with its wall-clock readings blanked, so two runs compare
/// on the decision and every other statistic.
fn timeless(mut schedule: Schedule) -> Schedule {
    schedule.stats.runtime = std::time::Duration::ZERO;
    schedule.laps = Default::default();
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fleet entry ≡ row entry: solving a view of an arbitrary row
    /// subset (any order, disconnected rows elsewhere in the fleet)
    /// equals materializing those rows and solving the problem — the
    /// selection and every statistic but the wall clock — on both
    /// Phase-1 solvers, cold and warm-started from an arbitrary hint, under a
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
        for solver in [Phase1Solver::Exact, Phase1Solver::Greedy] {
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
    /// capacity pair — including after the rebalancing pass — with and
    /// without rows disconnected mid-range.
    #[test]
    fn multi_shard_fleet_is_per_shard_feasible(
        fleet in arb_fleet(),
        num_shards in 2usize..5,
        gapped in any::<bool>(),
        capacity in 0.5f64..20.0,
        storage in 0.1f64..3.0,
        lambda in 0.0f64..8.0,
    ) {
        let mut fleet = fleet;
        if gapped {
            disconnect_mid_range(&mut fleet);
        }
        let curve = AnxietyCurve::paper_shape();
        let server = EdgeServer::new(capacity, storage);
        let scheduler = FleetScheduler::with_shards(num_shards);
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
    problem.requests[11].chunk_secs = f64::NAN;
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

/// The hub's replay of one shard, as the join ran it before the shards
/// reported their loads: the shard's server with every selected row of
/// the scattered fleet-order `selected` admitted in shard order, and the
/// least costs among its unselected connected rows.
fn replay_load(fleet: &DeviceFleet, server: &EdgeServer, rows: &[usize], selected: &[bool]) -> ShardLoad {
    let mut server = *server;
    server.reset_slot();
    let (mut least_compute, mut least_storage_gb) = (f64::INFINITY, f64::INFINITY);
    for &i in rows {
        let (g, h) = (fleet.compute_cost(i), fleet.storage_cost_gb(i));
        if selected[i] {
            assert!(server.try_admit(g, h));
        } else if fleet.connected(i) {
            least_compute = least_compute.min(g);
            least_storage_gb = least_storage_gb.min(h);
        }
    }
    ShardLoad { server, least_compute, least_storage_gb }
}

/// Every float of a load, as bits.
fn load_bits(load: &ShardLoad) -> [u64; 6] {
    let s = &load.server;
    [
        s.compute_capacity(),
        s.storage_capacity_gb(),
        s.compute_used(),
        s.storage_used_gb(),
        load.least_compute,
        load.least_storage_gb,
    ]
    .map(f64::to_bits)
}

/// The join as it was before its cost was made to follow what can
/// migrate, kept as the oracle: every shard's load is the hub's replay,
/// every unselected connected row is a
/// candidate, the sort evaluates φ inside the comparator, every
/// candidate gets both eq.-13 gains, and the totals run over whole-fleet
/// vectors.
fn straight_line_assemble(
    config: &FleetConfig,
    fleet: &DeviceFleet,
    servers: &[EdgeServer],
    shards: &[Vec<usize>],
    results: &[Option<Schedule>],
    lambda: f64,
    curve: &AnxietyCurve,
) -> FleetSchedule {
    use lpvs::core::{device_objective_batch, transform_feasible_batch, transform_savings_batch, Select};
    let mut selected = vec![false; fleet.len()];
    let mut reports = Vec::new();
    for (s, indices) in shards.iter().enumerate() {
        let schedule = results[s]
            .clone()
            .unwrap_or_else(|| FleetScheduler::passthrough_schedule(indices.len()));
        for (&global, &x) in indices.iter().zip(&schedule.selected) {
            selected[global] = x;
        }
        reports.push(ShardReport {
            shard: s,
            devices: indices.clone(),
            stats: schedule.stats,
            work: schedule.work,
            laps: schedule.laps,
            migrated_in: Vec::new(),
            load: None,
        });
    }

    let cols = fleet.columns();
    let mut migrations = 0;
    if config.max_migrations > 0 && servers.len() >= 2 {
        let mut usage: Vec<EdgeServer> = Vec::new();
        let mut home = vec![usize::MAX; fleet.len()];
        for (s, indices) in shards.iter().enumerate() {
            let load = replay_load(fleet, &servers[s], indices, &selected);
            usage.push(load.server);
            reports[s].load = Some(load);
            for &i in indices {
                home[i] = s;
            }
        }
        let mut candidates: Vec<usize> = (0..fleet.len())
            .filter(|&i| !selected[i] && fleet.connected(i) && home[i] != usize::MAX)
            .collect();
        let mut feasible = Vec::new();
        transform_feasible_batch(&cols, &candidates, &mut feasible);
        candidates =
            candidates.into_iter().zip(feasible).filter_map(|(i, f)| f.then_some(i)).collect();
        candidates.sort_by(|&a, &b| {
            let aa = curve.phi(fleet.battery_fraction(a));
            let ab = curve.phi(fleet.battery_fraction(b));
            ab.partial_cmp(&aa).expect("finite anxiety").then(a.cmp(&b))
        });
        let (mut on, mut off) = (Vec::new(), Vec::new());
        device_objective_batch(&cols, &candidates, Select::Uniform(true), lambda, curve, &mut on);
        device_objective_batch(&cols, &candidates, Select::Uniform(false), lambda, curve, &mut off);
        for (k, &i) in candidates.iter().enumerate() {
            if migrations >= config.max_migrations {
                break;
            }
            if on[k] - off[k] >= -1e-12 {
                continue;
            }
            let (g, h) = (fleet.compute_cost(i), fleet.storage_cost_gb(i));
            let target = (0..usage.len())
                .filter(|&s| s != home[i] && usage[s].fits(g, h))
                .max_by(|&a, &b| {
                    usage[a]
                        .compute_free()
                        .partial_cmp(&usage[b].compute_free())
                        .expect("finite capacity")
                        .then(b.cmp(&a))
                });
            if let Some(s) = target {
                assert!(usage[s].try_admit(g, h));
                selected[i] = true;
                reports[s].migrated_in.push(i);
                migrations += 1;
            }
        }
    }

    let all: Vec<usize> = (0..fleet.len()).collect();
    let mut terms = Vec::new();
    device_objective_batch(&cols, &all, Select::PerRow(&selected), lambda, curve, &mut terms);
    let objective: f64 = terms.iter().sum();
    let (mut feasible, mut savings) = (Vec::new(), Vec::new());
    transform_savings_batch(&cols, &all, &mut feasible, &mut savings);
    let energy_saved_j: f64 =
        savings.iter().zip(&selected).map(|(s, &x)| if x { *s } else { 0.0 }).sum();
    FleetSchedule {
        selected,
        shards: reports,
        migrations,
        objective,
        energy_saved_j,
        runtime: std::time::Duration::ZERO,
        laps: Default::default(),
        candidates: None,
        work: Default::default(),
    }
}

/// Where the rebalance finds room, per regime of the differential test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slack {
    /// Unit costs against integer capacities: every knapsack fills
    /// exactly and nothing can move.
    None,
    /// The last shard can take ten compute units more than its own
    /// rows want; the room runs out mid-pass.
    OneShard,
    /// The last shard has a unit and a half of compute to spare, inside
    /// the spread of single-row costs: the gate itself turns rows away.
    Sliver,
    /// The last shard has room for everyone; `max_migrations` stops
    /// the pass.
    HitsTheBound,
    /// The last shard has unlimited compute and 0.15 GB of storage to
    /// spare, inside the spread of single-row costs: storage alone
    /// decides who fits.
    StorageOnly,
}

/// A seeded fleet for the differential test: a few disconnected rows,
/// batteries from empty (transform-infeasible) to full, γ from zero (no
/// gain) up.
fn regime_fleet(n: usize, seed: u64, unit_costs: bool) -> DeviceFleet {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fleet = DeviceFleet::new();
    for _ in 0..n {
        let gamma = if rng.gen_bool(0.1) { 0.0 } else { rng.gen_range(0.05..0.49) };
        let (compute, storage) =
            if unit_costs { (1.0, 0.1) } else { (rng.gen_range(0.1..3.0), rng.gen_range(0.01..0.3)) };
        fleet.push_request(DeviceRequest::uniform(
            rng.gen_range(0.5..2.0),
            10.0,
            rng.gen_range(1..40),
            // Discrete levels, so equal-anxiety ties reach the sort.
            f64::from(rng.gen_range(0u32..=20)) / 20.0 * CAPACITY_J,
            CAPACITY_J,
            gamma,
            compute,
            storage,
        ));
    }
    for _ in 0..n / 25 {
        let row = rng.gen_range(0..n);
        fleet.set_connected(row, false);
    }
    fleet
}

/// Disconnects rows a quarter and two thirds of the way into `fleet`:
/// the partition skips them, so the shards around them are not
/// contiguous in fleet index.
fn disconnect_mid_range(fleet: &mut DeviceFleet) {
    let n = fleet.len();
    for row in [n / 4, n / 4 + 1, 2 * n / 3].into_iter().filter(|&row| row < n) {
        fleet.set_connected(row, false);
    }
}

/// Total `(compute, storage)` cost of `rows`.
fn load(fleet: &DeviceFleet, rows: impl Iterator<Item = usize>) -> (f64, f64) {
    rows.fold((0.0, 0.0), |(g, h), i| (g + fleet.compute_cost(i), h + fleet.storage_cost_gb(i)))
}

/// Joins `results` twice, once with the loads the shard bodies deliver
/// and once with none (the join computes each), and holds both to the
/// straight-line oracle: same selection, same migrations into the same
/// shards in the same order, the same whole reports (loads included),
/// same bits in both totals. A dead shard (`None`) delivers no load.
fn check_join(
    case: &str,
    config: &FleetConfig,
    fleet: &DeviceFleet,
    servers: &[EdgeServer],
    shards: &[Vec<usize>],
    results: Vec<Option<Schedule>>,
    lambda: f64,
) -> FleetSchedule {
    let curve = AnxietyCurve::paper_shape();
    let want = straight_line_assemble(config, fleet, servers, shards, &results, lambda, &curve);
    let delivered: Vec<_> = (results.iter().zip(shards).zip(servers))
        .map(|((result, rows), server)| {
            result.clone().map(|schedule| {
                let load = Some(ShardLoad::of(fleet, server, rows, &schedule.selected));
                ShardSolve { schedule, shipped: None, load, frontier: 0 }
            })
        })
        .collect();
    let bare = (results.into_iter())
        .map(|result| result.map(|schedule| ShardSolve { schedule, shipped: None, load: None, frontier: 0 }))
        .collect();
    let scheduler = FleetScheduler::new(*config);
    let mut joined = None;
    for (results, loads) in [(delivered, "delivered"), (bare, "computed")] {
        let clock = lpvs::core::work::Laps::start();
        let got = scheduler.assemble(fleet, servers, shards.to_vec(), results, lambda, &curve, clock, None);
        assert_eq!(got.selected, want.selected, "{case}, {loads} loads");
        assert_eq!(got.migrations, want.migrations, "{case}, {loads} loads");
        // Whole reports: stats as solved, `migrated_in` in order, loads.
        assert_eq!(got.shards, want.shards, "{case}, {loads} loads");
        assert_eq!(got.objective.to_bits(), want.objective.to_bits(), "{case}, {loads} loads");
        assert_eq!(got.energy_saved_j.to_bits(), want.energy_saved_j.to_bits(), "{case}, {loads} loads");
        joined = Some(got);
    }
    joined.expect("both joins ran")
}

/// Whether the rebalance's load gate is open on `schedule`: some
/// foreign shard's server fits a home shard's cheapest pair.
fn load_gate_open(schedule: &FleetSchedule) -> bool {
    let loads: Vec<ShardLoad> = schedule.shards.iter().map(|r| r.load.expect("a rebalanced join")).collect();
    loads.iter().enumerate().any(|(s, load)| {
        (loads.iter().enumerate())
            .any(|(t, other)| t != s && other.server.fits(load.least_compute, load.least_storage_gb))
    })
}

/// The shipped join against the straight-line oracle ([`check_join`]),
/// whether nothing, something, next to nothing, a bounded
/// number or only what storage allows can move; 2, 3 and 8 shards; with
/// and without a block of rows disconnected mid-range; one dead shard
/// (all of its capacity free) among the eight.
#[test]
fn the_gated_join_equals_the_straight_line_join() {
    let curve = AnxietyCurve::paper_shape();
    let budget = SlotBudget::unbounded();
    let mut seed = 40;
    for slack in
        [Slack::None, Slack::OneShard, Slack::Sliver, Slack::HitsTheBound, Slack::StorageOnly]
    {
        for num_shards in [2usize, 3, 8] {
            for gapped in [false, true] {
                seed += 1;
                let case = format!("{slack:?}, {num_shards} shards, gapped {gapped}, seed {seed}");
                let config = FleetConfig {
                    num_shards,
                    max_migrations: if slack == Slack::HitsTheBound { 5 } else { 64 },
                    ..FleetConfig::default()
                };
                let scheduler = FleetScheduler::new(config);
                let mut fleet = regime_fleet(60 * num_shards, seed, slack == Slack::None);
                if gapped {
                    disconnect_mid_range(&mut fleet);
                }
                let shards = scheduler.partition(&fleet);
                let lambda = 0.5 + (seed % 4) as f64;

                let solver = LpvsScheduler::new(config.scheduler);
                let solve = |rows: &[usize], server: &EdgeServer| {
                    let view = fleet.slot_view(
                        rows,
                        server.compute_capacity(),
                        server.storage_capacity_gb(),
                        lambda,
                        &curve,
                    );
                    solver.schedule_view(view, None, &budget)
                };

                // Every shard is offered 30 % of the compute its rows ask
                // for; the last one is then given what an unconstrained
                // solve of it uses, plus its regime's room.
                let mut servers: Vec<EdgeServer> = shards
                    .iter()
                    .map(|rows| {
                        let (g, h) = load(&fleet, rows.iter().copied());
                        EdgeServer::new((0.3 * g).floor(), h)
                    })
                    .collect();
                let last = &shards[num_shards - 1];
                let unconstrained = solve(last, &EdgeServer::new(1e6, 1e6));
                let taken = last.iter().zip(&unconstrained.selected).filter(|(_, &x)| x);
                let (g, h) = load(&fleet, taken.map(|(&i, _)| i));
                match slack {
                    Slack::None => {}
                    Slack::OneShard => servers[num_shards - 1] = EdgeServer::new(g + 10.0, h + 10.0),
                    Slack::Sliver => servers[num_shards - 1] = EdgeServer::new(g + 1.5, h + 10.0),
                    Slack::HitsTheBound => servers[num_shards - 1] = EdgeServer::new(1e6, 1e6),
                    Slack::StorageOnly => servers[num_shards - 1] = EdgeServer::new(1e6, h + 0.15),
                }

                let mut results: Vec<Option<Schedule>> =
                    shards.iter().zip(&servers).map(|(rows, server)| Some(solve(rows, server))).collect();
                if num_shards == 8 {
                    results[2] = None;
                }

                let got = check_join(&case, &config, &fleet, &servers, &shards, results, lambda);
                let moved = got.migrations;
                assert!(moved == 0 || load_gate_open(&got), "{case}: a migration passed a closed gate");
                match slack {
                    // A dead shard's capacity is all free, so the
                    // saturated regime only holds while every shard lives.
                    Slack::None if num_shards < 8 => {
                        assert_eq!(moved, 0, "{case}");
                        assert!(!load_gate_open(&got), "{case}: full knapsacks close the load gate");
                    }
                    Slack::None => assert!(moved > 0, "{case}: a dead shard is all room"),
                    Slack::HitsTheBound => assert_eq!(moved, 5, "{case}"),
                    Slack::OneShard | Slack::Sliver | Slack::StorageOnly if num_shards < 8 => {
                        assert!(moved > 0 && moved < 64, "{case}: {moved} moved");
                    }
                    Slack::OneShard | Slack::Sliver | Slack::StorageOnly => {
                        assert!(moved > 0, "{case}");
                    }
                }
            }
        }
    }
}

/// Shard 0's cheapest compute and cheapest storage come from different
/// rows, and shard 1 has room for that pair but for neither row: the
/// load gate opens, the scan finds no candidate, and the join still
/// equals the oracle with nothing moved.
#[test]
fn a_cheapest_pair_from_two_rows_opens_the_gate_onto_no_candidate() {
    // (compute, storage): shard 0 = rows 0–2, shard 1 = rows 3–4.
    let costs = [(4.0, 0.1), (1.0, 0.3), (3.0, 0.05), (1.0, 0.1), (1.0, 0.1)];
    let mut fleet = DeviceFleet::new();
    for (g, h) in costs {
        fleet.push_request(DeviceRequest::uniform(1.5, 10.0, 30, 0.2 * CAPACITY_J, CAPACITY_J, 0.3, g, h));
    }
    let config = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let shards = FleetScheduler::new(config).partition(&fleet);
    assert_eq!(shards, [vec![0, 1, 2], vec![3, 4]]);
    // Shard 0 is full with row 0; shard 1 keeps (2, 0.1) free after
    // rows 3 and 4.
    let servers = [EdgeServer::new(4.0, 0.1), EdgeServer::new(4.0, 0.3)];
    let decided =
        |selected: Vec<bool>| Some(Schedule { selected, ..FleetScheduler::passthrough_schedule(0) });
    let results = vec![decided(vec![true, false, false]), decided(vec![true, true])];

    let got = check_join("split cheapest pair", &config, &fleet, &servers, &shards, results, 1.0);
    let load = got.shards[0].load.expect("a rebalanced join");
    assert_eq!((load.least_compute, load.least_storage_gb), (1.0, 0.05), "row 1's g, row 2's h");
    assert!(load_gate_open(&got), "shard 1 fits the pair");
    let foreign = got.shards[1].load.expect("a rebalanced join").server;
    for i in [1, 2] {
        assert!(!foreign.fits(fleet.compute_cost(i), fleet.storage_cost_gb(i)), "row {i} fits shard 1");
    }
    assert_eq!(got.migrations, 0);
}

/// `ShardLoad::of` over a shard's own selection is the hub's replay over
/// the scattered fleet selection, bit for bit: for solved shards under
/// tight and loose servers, gapped fleets and the passthrough selection
/// a dead shard degrades to.
#[test]
fn a_shard_load_is_the_hub_replay() {
    let curve = AnxietyCurve::paper_shape();
    let solver = LpvsScheduler::paper_default();
    for (seed, num_shards) in [(3u64, 2usize), (4, 3), (5, 8)] {
        let mut fleet = regime_fleet(50 * num_shards, seed, false);
        disconnect_mid_range(&mut fleet);
        let shards = FleetScheduler::with_shards(num_shards).partition(&fleet);
        for fraction in [0.1, 0.4, 2.0] {
            for (s, rows) in shards.iter().enumerate() {
                let (g, h) = load(&fleet, rows.iter().copied());
                let server = EdgeServer::new(fraction * g, fraction * h);
                let (c, s_gb) = (server.compute_capacity(), server.storage_capacity_gb());
                let view = fleet.slot_view(rows, c, s_gb, 1.5, &curve);
                let solved = solver.schedule_view(view, None, &SlotBudget::unbounded()).selected;
                for local in [solved, vec![false; rows.len()]] {
                    let mut selected = vec![false; fleet.len()];
                    for (&i, &x) in rows.iter().zip(&local) {
                        selected[i] = x;
                    }
                    let case = format!("seed {seed}, shard {s} of {num_shards}, {fraction}× its rows");
                    let want = replay_load(&fleet, &server, rows, &selected);
                    let got = ShardLoad::of(&fleet, &server, rows, &local);
                    assert_eq!(load_bits(&got), load_bits(&want), "{case}");
                }
            }
        }
    }
}
