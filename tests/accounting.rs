//! A steady slot prices its churn, not its fleet — in counted rows and
//! chunk steps, not wall clock.
//!
//! A row's price is its score (`lpvs::core::kernels::Scores`): its
//! eq.-13 term under both decisions (`off`, `on`) and its saving, taken
//! in one walk of its chunks. It depends on the row's columns, λ and the
//! curve only, never on its decision, so every total is one fold of a
//! score under a selection (`Scores::fold`), and a row whose decision
//! flips — in Phase-2, in the rebalance, in a dead shard's passthrough —
//! costs nothing. The `rows_accounted` of a delivered schedule's
//! `SlotWork` (published as `delta_accounting_rows_total{owner}`) counts
//! the rows scored on the shard workers (`shard`) and at the join
//! (`join`), and the rows the join adopted from the shard that had just
//! scored them (`shipped`). Read slot by slot it pins the cost model: a
//! shard that extends the previous slot scores its dirty frontier, once,
//! and ships it; what breaks its chain — the first slot, a forced cold
//! solve, a population change — scores every row of it once and ships
//! every row (a memo restored from a checkpoint keeps no score, and
//! scores every row once). The join scores only the stale rows no shard
//! shipped: the dirty rows no shard owns, and the rows of a shard that
//! shipped nothing. That the totals folded from kept and adopted scores
//! are, bit for bit, those of evaluating every row is `tests/delta.rs`'s
//! matrix and, for hand-made shipments, the `assemble` cases below.
//!
//! A cold solve is the other end of the same model: it scores every row
//! once, and Phase-1, Phase-2 and the totals of the selection that is
//! returned all read that score (the solve's `SlotWork::chunk_steps`:
//! Σ K_n chunk steps under `score`, none under `account`).
//!
//! Mutation checks, made by hand in the release profile (where the
//! `debug_assert`s that would catch them first are compiled out): a
//! fold that reads `on` for an unselected row fails
//! `an_unselected_row_folds_its_off_term` (and every solver-rung case of
//! `a_solve_folds_its_totals_from_the_score_it_ran_on`); a join that
//! skips the stale rows no shipment covers fails
//! `a_shard_that_ships_nothing_is_priced_by_the_join` and
//! `a_dirty_row_no_shard_owns_is_priced_by_the_join`.

use lpvs::core::budget::SlotBudget;
use lpvs::core::delta::SlotDelta;
use lpvs::core::fleet::{DeviceFleet, SlotView};
use lpvs::core::kernels::Scores;
use lpvs::core::problem::{DeviceRequest, SlotProblem};
use lpvs::core::scheduler::{Degradation, LpvsScheduler, Schedule, SchedulerConfig};
use lpvs::core::work::SlotWork;
use lpvs::edge::fleet::{FleetConfig, FleetSchedule, FleetScheduler, JoinMemo};
use lpvs::edge::server::EdgeServer;
use lpvs::edge::shard::{solve_shard, ScoreRows, ShardDeltaMemo, ShardJob, ShardSolve, SlotInputs};
use lpvs::emulator::experiment::synthetic_problem;
use lpvs::runtime::{
    BankOps, CheckpointConfig, GatheredSlot, RuntimeConfig, SlotFeedback, SlotReplay, SlotRuntime,
    SlotSink, SlotSource, SolvedSlot, StageFaults, SyntheticConfig, SyntheticDriver,
    SyntheticRecord,
};
use lpvs::survey::curve::AnxietyCurve;

const DEVICES: usize = 2_000;
const SHARDS: usize = 2;
const SHARD_ROWS: u64 = (DEVICES / SHARDS) as u64;

/// What one slot did, as its record and the driver saw it.
#[derive(Debug, Clone, Default)]
struct SlotCount {
    slot: usize,
    /// Rows in the slot's delta.
    frontier: u64,
    /// Chunk steps of one walk of the delta's rows: Σ K over the frontier.
    frontier_steps: u64,
    /// Rows whose assembled decision differs from the previous slot's.
    flipped: u64,
    /// Rows the rebalance moved into a foreign shard.
    migrations: u64,
    counted: SlotWork,
}

/// `SyntheticDriver` behind the driver traits, keeping each delivered
/// decision's record. From slot `grow_at` on, every gathered fleet
/// carries one extra (constant) row — a population change the source's
/// delta does not mention.
struct Counting {
    inner: SyntheticDriver,
    grow_at: Option<usize>,
    frontier: (u64, u64),
    previous: Vec<bool>,
    slots: Vec<SlotCount>,
}

impl Counting {
    fn new(config: SyntheticConfig) -> Self {
        Self {
            inner: SyntheticDriver::new(config),
            grow_at: None,
            frontier: (0, 0),
            previous: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl SlotSource for Counting {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        self.inner.begin_slot(slot)
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        let mut gathered = self.inner.gather(slot, posteriors, recycled)?;
        let dirty = gathered.delta.as_ref().map_or(&[][..], |d| &d.dirty[..]);
        let steps = dirty.iter().map(|&i| gathered.fleet.num_chunks(i) as u64).sum();
        self.frontier = (dirty.len() as u64, steps);
        if self.grow_at.is_some_and(|at| slot >= at) {
            // The recycled buffer was refilled from the source, so the
            // extra row is appended afresh — bit-identical — every slot.
            gathered.fleet.push_request(DeviceRequest::uniform(
                1.0, 10.0, 30, 20_000.0, 55_440.0, 0.3, 1.0, 0.1,
            ));
            gathered.device_ids.push(DEVICES);
        }
        Some(gathered)
    }
}

impl SlotSink for Counting {
    fn solved(&mut self, solved: &SolvedSlot) {
        let selected = &solved.schedule.selected;
        let flipped = if self.previous.len() == selected.len() {
            selected.iter().zip(&self.previous).filter(|(a, b)| a != b).count() as u64
        } else {
            selected.len() as u64
        };
        self.slots.push(SlotCount {
            slot: solved.slot,
            frontier: self.frontier.0,
            frontier_steps: self.frontier.1,
            flipped,
            migrations: solved.schedule.migrations as u64,
            counted: solved.schedule.work,
        });
        self.previous.clone_from(selected);
        self.inner.solved(solved);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        self.inner.apply(slot)
    }
}

impl SlotReplay for Counting {
    fn stage_decision(
        &mut self,
        slot: usize,
        device_ids: &[usize],
        selected: &[bool],
        tier: Degradation,
    ) {
        self.previous = selected.to_vec();
        self.inner.stage_decision(slot, device_ids, selected, tier);
    }

    fn replay_slot(&mut self, slot: usize) {
        self.inner.replay_slot(slot);
    }
}

fn steady(slots: usize, seed: u64) -> SyntheticConfig {
    SyntheticConfig::steady(DEVICES, slots, seed)
}

fn runtime(faults: Option<StageFaults>, checkpoints: Option<CheckpointConfig>) -> RuntimeConfig {
    RuntimeConfig {
        fleet: FleetConfig {
            num_shards: SHARDS,
            ..FleetConfig::default()
        },
        stage_faults: faults,
        checkpoints,
        ..RuntimeConfig::default()
    }
}

/// The decisions of the same workload, uninterrupted and uncounted.
fn uninterrupted_records(config: &SyntheticConfig) -> Vec<SyntheticRecord> {
    let mut driver = SyntheticDriver::new(config.clone());
    let estimators = driver.estimators();
    SlotRuntime::new(runtime(None, None)).run(&mut driver, estimators);
    driver.records().to_vec()
}

/// What the join is left with when every shard shipped what it scored:
/// the stale rows no shard owns — none, every row of the synthetic
/// fleet being connected, whatever the rebalance moved — and it adopted
/// every row the shards scored.
fn assert_join_adopts_the_shards_rows(s: &SlotCount, case: &str) {
    let rows = s.counted.rows_accounted;
    assert_eq!(rows.join, 0, "{case}: slot {} scored rows at the join ({} migrations)", s.slot, s.migrations);
    assert!(
        rows.shipped >= rows.shard,
        "{case}: slot {} adopted {} rows of the {} the shards scored",
        s.slot, rows.shipped, rows.shard
    );
}

/// A slot that extends the one before it: the shards score the frontier
/// — exactly, in one walk of its chunks, flips and all — and the join
/// adopts it.
fn assert_costs_its_churn(s: &SlotCount, case: &str) {
    let (rows, steps) = (s.counted.rows_accounted, s.counted.chunk_steps);
    assert!(s.frontier > 0, "{case}: slot {} has no frontier to price", s.slot);
    assert_eq!(s.counted.delta_path.cold, 0, "{case}: slot {} solved cold", s.slot);
    assert_eq!(
        (rows.shard, rows.shipped, steps.score),
        (s.frontier, s.frontier, s.frontier_steps),
        "{case}: slot {} scored {} rows ({} steps) for a frontier of {} ({} steps) and {} flips",
        s.slot, rows.shard, steps.score, s.frontier, s.frontier_steps, s.flipped
    );
    assert_join_adopts_the_shards_rows(s, case);
}

#[test]
fn a_steady_slot_prices_its_frontier_once() {
    let mut driver = Counting::new(steady(8, 17));
    let estimators = driver.inner.estimators();
    SlotRuntime::new(runtime(None, None)).run(&mut driver, estimators);

    let slots = &driver.slots;
    assert_eq!(slots.len(), 8);
    // Slot 0: all-dirty, cold everywhere, every row once — on its shard,
    // which ships it.
    assert_eq!(slots[0].counted.delta_path.cold, SHARDS as u64);
    assert_eq!(slots[0].counted.rows_accounted.shard, DEVICES as u64);
    assert_join_adopts_the_shards_rows(&slots[0], "steady");
    // Slot 1 on: the cold solves kept their score, so the first
    // incremental solve is already down to the frontier.
    for s in &slots[1..] {
        assert_eq!(s.counted.delta_path.incremental, SHARDS as u64, "slot {}", s.slot);
        assert_costs_its_churn(s, "steady");
    }
    assert!(slots[1..].iter().any(|s| s.flipped > 0), "no decision flipped: the flips would cost nothing vacuously");
}

#[test]
fn a_forced_cold_solve_prices_its_shard_once_and_keeps_its_score() {
    // Seeded so that shards die (and are re-dispatched cold) on some
    // slots past the first.
    let faults = StageFaults { rate: 0.08, seed: 17, repeat: 0 };
    let mut driver = Counting::new(steady(12, 17));
    let estimators = driver.inner.estimators();
    let report = SlotRuntime::new(runtime(Some(faults), None)).run(&mut driver, estimators);
    assert_eq!(report.summary.recovery.fell_back, None);
    assert!(report.summary.workers_lost > 0, "the fault seed must kill a worker");

    let slots = &driver.slots;
    let mut forced = 0;
    for s in &slots[1..] {
        forced += s.counted.delta_path.cold;
        if s.counted.delta_path.cold == 0 {
            assert_costs_its_churn(s, "faults");
            continue;
        }
        // A shard solved cold this slot (the respawned worker has no
        // memo): its rows are scored in full, once, and the slot after
        // it is an ordinary one — the solve kept its score.
        let in_full = s.counted.delta_path.cold * SHARD_ROWS;
        let rest = s.counted.rows_accounted.shard.checked_sub(in_full).expect("a full shard is scored");
        assert!(rest <= s.frontier, "slot {}: {rest} beyond the full shards", s.slot);
        // Worker deaths never reach the join: the respawned shard ships
        // every row it solved.
        assert_join_adopts_the_shards_rows(s, "faults");
    }
    assert!(forced > 0, "no slot past the first was forced cold");
}

#[test]
fn a_population_change_prices_every_row_once() {
    let mut driver = Counting::new(steady(8, 29));
    driver.grow_at = Some(4);
    let mut estimators = driver.inner.estimators();
    estimators.push(estimators[0].clone());
    SlotRuntime::new(runtime(None, None)).run(&mut driver, estimators);

    let slots = &driver.slots;
    let grown = DEVICES as u64 + 1;
    for s in &slots[1..4] {
        assert_costs_its_churn(s, "before growth");
    }
    // The fleet grew: every shard's row list moved (cold: every row,
    // once), and the join's kept prices no longer cover the fleet — but
    // every row of it was just shipped.
    assert_eq!(slots[4].counted.delta_path.cold, SHARDS as u64);
    assert_eq!(slots[4].counted.rows_accounted.shard, grown);
    assert_eq!(slots[4].counted.rows_accounted.shipped, grown);
    assert_join_adopts_the_shards_rows(&slots[4], "growth");
    // And straight back to the frontier.
    for s in &slots[5..] {
        assert_costs_its_churn(s, "after growth");
    }
}

#[test]
fn a_resumed_run_scores_every_row_once_then_prices_its_frontier() {
    let config = steady(10, 41);
    let baseline = uninterrupted_records(&config);

    let dir = std::env::temp_dir().join(format!("lpvs-accounting-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let checkpoints = CheckpointConfig { interval: 2, ..CheckpointConfig::new(&dir) };

    // Halt after slot 5: slots 2..=5 rode kept scores on both owners, so
    // the scores are live when the hub stops.
    let mut halted = Counting::new(config.clone());
    let estimators = halted.inner.estimators();
    let report = SlotRuntime::new(RuntimeConfig {
        halt_after_slot: Some(5),
        ..runtime(None, Some(checkpoints.clone()))
    })
    .run(&mut halted, estimators);
    assert_eq!(report.summary.slots, 6);
    for s in &halted.slots[1..] {
        assert_costs_its_churn(s, "before the halt");
    }

    let mut resumed = Counting::new(config);
    let report = SlotRuntime::new(runtime(None, Some(checkpoints)))
        .resume(&mut resumed)
        .expect("resume from manifest");
    let _ = std::fs::remove_dir_all(&dir);
    let at = report.summary.recovery.resumed_at.expect("a resumed run says where");
    assert_eq!(resumed.inner.records(), &baseline[..], "resumed run diverged");

    // The restored memos continue the incremental chain but carry no
    // score, and the join starts empty: the first slot after the resume
    // scores every row once — on its shard, which ships it whole — the
    // second its frontier.
    let slots = &resumed.slots;
    assert_eq!(slots[0].slot, at);
    assert_eq!(slots[0].counted.delta_path.cold, 0);
    assert_eq!(slots[0].counted.delta_path.incremental, SHARDS as u64);
    assert_eq!(slots[0].counted.rows_accounted.shard, DEVICES as u64);
    assert_eq!(slots[0].counted.rows_accounted.shipped, DEVICES as u64);
    assert_join_adopts_the_shards_rows(&slots[0], "at the resume");
    assert!(slots.len() >= 3, "the resume must leave slots to run");
    for s in &slots[1..] {
        assert_costs_its_churn(s, "after the resume");
    }
}

/// The totals of `selected` over `view`, every row evaluated afresh: eq.
/// 13 by the kernel, the saving a selected row's `saving_j` and an
/// unselected one's 0.0, each summed in position order.
fn from_scratch(view: SlotView<'_>, selected: &[bool]) -> (f64, f64) {
    let fleet = view.fleet();
    let saving = |(&x, &i): (&bool, &usize)| if x { fleet.saving_j(i) } else { 0.0 };
    (view.objective_value(selected), selected.iter().zip(view.rows()).map(saving).sum())
}

/// A cold problem's fleet, and the view of all of it.
fn whole_view<'a>(problem: &'a SlotProblem, fleet: &'a DeviceFleet, rows: &'a [usize]) -> SlotView<'a> {
    fleet.slot_view(
        rows,
        problem.compute_capacity,
        problem.storage_capacity_gb,
        problem.lambda,
        &problem.curve,
    )
}

#[test]
fn a_solve_folds_its_totals_from_the_score_it_ran_on() {
    let clean = synthetic_problem(600, 240.0, 1.0, 7);
    let mut corrupt = clean.clone();
    corrupt.requests[3].gamma = f64::NAN;
    corrupt.requests[7].energy_j = -50.0;
    corrupt.requests[11].power_rates_w[0] = f64::INFINITY;
    let full = LpvsScheduler::paper_default();
    let phase1_only =
        LpvsScheduler::new(SchedulerConfig { enable_phase2: false, ..SchedulerConfig::default() });
    let standing = full.schedule(&clean).unwrap().selected;
    let no_time = SlotBudget::unbounded().with_deadline_secs(0.0);
    let rows: Vec<usize> = (0..clean.len()).collect();

    // Healthy telemetry on rows the fleet calls disconnected: both
    // phases select them (the best savers in the cluster), the resilient
    // path masks them out *after* Phase-2, and the totals must describe
    // the selection that is returned.
    let mut unplugged = DeviceFleet::from_problem(&clean);
    let savers: Vec<usize> = (0..clean.len()).filter(|&i| standing[i]).take(5).collect();
    for &i in &savers {
        unplugged.set_connected(i, false);
    }

    struct Case<'a> {
        name: &'a str,
        problem: &'a SlotProblem,
        /// Solve over this fleet instead of the problem's own columns.
        fleet: Option<&'a DeviceFleet>,
        scheduler: &'a LpvsScheduler,
        previous: Option<&'a [bool]>,
        budget: SlotBudget,
        rung: Degradation,
    }
    let case = |name, problem, scheduler| Case {
        name,
        problem,
        fleet: None,
        scheduler,
        previous: None,
        budget: SlotBudget::unbounded(),
        rung: Degradation::Exact,
    };
    let cases = [
        case("clean", &clean, &full),
        case("corrupt rows", &corrupt, &full),
        Case { fleet: Some(&unplugged), ..case("disconnected rows", &clean, &full) },
        case("phase-2 off", &clean, &phase1_only),
        Case {
            previous: Some(&standing),
            budget: no_time,
            rung: Degradation::ReusedPrevious,
            ..case("reuse", &clean, &full)
        },
        Case { budget: no_time, rung: Degradation::Passthrough, ..case("passthrough", &clean, &full) },
    ];
    for Case { name, problem, fleet, scheduler, previous, budget, rung } in cases {
        let loaded = DeviceFleet::from_problem(problem);
        let view = whole_view(problem, fleet.unwrap_or(&loaded), &rows);
        let (schedule, scores) = scheduler.schedule_view_accounted(view, previous, &budget, None);
        assert_eq!(schedule.stats.degradation, rung, "{name}");
        let (objective, saved) = from_scratch(view, &schedule.selected);
        assert_eq!(schedule.stats.objective.to_bits(), objective.to_bits(), "{name}: objective");
        assert_eq!(schedule.stats.energy_saved_j.to_bits(), saved.to_bits(), "{name}: saving");
        // The score handed back is the view's, whichever rung made it.
        assert_eq!(scores, lpvs::core::score_rows(&view.fleet().columns(), &rows, problem.lambda, &problem.curve), "{name}");
        if fleet.is_none() {
            // The row entry loads the same columns and says the same.
            let by_rows = scheduler.schedule_resilient(problem, previous, &budget);
            assert_eq!(by_rows.selected, schedule.selected, "{name}");
            assert_eq!(by_rows.stats.objective.to_bits(), objective.to_bits(), "{name}: row entry");
            assert_eq!(by_rows.stats.energy_saved_j.to_bits(), saved.to_bits(), "{name}: row entry");
        }
    }

    // The disconnected case is a case: the mask removed rows both
    // phases select (they are in `standing`, solved from the same columns).
    let view = whole_view(&clean, &unplugged, &rows);
    let masked = full.schedule_view(view, None, &SlotBudget::unbounded());
    assert_eq!(masked.stats.rejected_devices, savers.len());
    assert!(savers.iter().all(|&i| !masked.selected[i]));
}

#[test]
fn a_cold_solve_walks_each_chunk_table_once_and_accounts_none() {
    let walked = |s: &Schedule| (s.work.chunk_steps.score, s.work.chunk_steps.account);
    let n = 1_500;
    let problem = synthetic_problem(n, 0.4 * n as f64, 1.0, 7);
    let chunks: u64 = problem.requests.iter().map(|r| r.num_chunks() as u64).sum();
    assert!(chunks > n as u64, "rows of one chunk would not tell a walk from a row");
    let budget = SlotBudget::unbounded();

    // Phase-2 on: one walk of every chunk table, in the score every
    // stage reads, and nothing again.
    let full = LpvsScheduler::paper_default().schedule_resilient(&problem, None, &budget);
    assert!(full.stats.phase2.swaps_tried > 0);
    assert_eq!(walked(&full), (chunks, 0));

    // Phase-2 off reads the same one score, and so does the greedy
    // rung a floor forces.
    let phase1_only =
        LpvsScheduler::new(SchedulerConfig { enable_phase2: false, ..SchedulerConfig::default() });
    assert_eq!(walked(&phase1_only.schedule_resilient(&problem, None, &budget)), (chunks, 0));
    let floor = budget.with_solver_floor(Degradation::Greedy);
    let greedy = LpvsScheduler::paper_default().schedule_resilient(&problem, None, &floor);
    assert_eq!(greedy.stats.degradation, Degradation::Greedy);
    assert_eq!(walked(&greedy), (chunks, 0));

    // A rung below the solvers scores the view for its totals, once a
    // row, and counts the walk as accounting.
    let no_time = budget.with_deadline_secs(0.0);
    let reuse =
        LpvsScheduler::paper_default().schedule_resilient(&problem, Some(&full.selected), &no_time);
    assert_eq!(reuse.stats.degradation, Degradation::ReusedPrevious);
    assert_eq!(walked(&reuse), (0, chunks));
    let passthrough = LpvsScheduler::paper_default().schedule_resilient(&problem, None, &no_time);
    assert_eq!(passthrough.stats.degradation, Degradation::Passthrough);
    assert_eq!(walked(&passthrough), (0, chunks));
}

// --- the join, handed shipments by hand -------------------------------

/// A fleet whose last shard has room to spare (the slack regime of
/// `tests/fleet.rs`): low batteries with real savings everywhere, every
/// shard but the last offered a third of what its rows ask for. Rows 3
/// and 40 are disconnected — no shard owns them.
struct JoinCase {
    fleet: DeviceFleet,
    scheduler: FleetScheduler,
    servers: Vec<EdgeServer>,
    lambda: f64,
    curve: AnxietyCurve,
    memo: JoinMemo,
}

const JOIN_ROWS: usize = 180;
const UNOWNED: [usize; 2] = [3, 40];

impl JoinCase {
    fn new() -> Self {
        let mut fleet = DeviceFleet::new();
        for i in 0..JOIN_ROWS {
            fleet.push_request(DeviceRequest::uniform(
                0.6 + 0.01 * (i % 50) as f64,
                10.0,
                30,
                (0.05 + 0.004 * (i % 90) as f64) * 55_440.0,
                55_440.0,
                0.15 + 0.002 * (i % 100) as f64,
                1.0,
                0.1,
            ));
        }
        for i in UNOWNED {
            fleet.set_connected(i, false);
        }
        fleet.clear_dirty();
        let config = FleetConfig { num_shards: 3, ..FleetConfig::default() };
        let mut servers = vec![EdgeServer::new(20.0, 1e6); 3];
        servers[2] = EdgeServer::new(70.0, 1e6);
        Self {
            fleet,
            scheduler: FleetScheduler::new(config),
            servers,
            lambda: 1.5,
            curve: AnxietyCurve::paper_shape(),
            memo: JoinMemo::default(),
        }
    }

    /// The slot's delta, as a gather would capture it.
    fn delta(&mut self) -> SlotDelta {
        let delta = SlotDelta::from(self.fleet.dirty_frontier());
        self.fleet.clear_dirty();
        delta
    }

    /// Solves every shard cold; each ships every row it solved.
    fn solve(&self) -> (Vec<Vec<usize>>, Vec<Option<Schedule>>, Vec<ScoreRows>) {
        let shards = self.scheduler.partition(&self.fleet);
        let solver = LpvsScheduler::new(self.scheduler.config().scheduler);
        let (results, shipped) = shards
            .iter()
            .zip(&self.servers)
            .map(|(rows, server)| {
                let view = self.fleet.slot_view(
                    rows,
                    server.compute_capacity(),
                    server.storage_capacity_gb(),
                    self.lambda,
                    &self.curve,
                );
                let (schedule, scores) =
                    solver.schedule_view_accounted(view, None, &SlotBudget::unbounded(), None);
                (Some(schedule), ship(&scores))
            })
            .unzip();
        (shards, results, shipped)
    }

    /// Joins through the kept memo and returns the schedule with the
    /// rows the join scored itself and the rows it adopted; the totals
    /// are checked against every row evaluated afresh.
    fn join(&mut self, delta: &SlotDelta, shards: Vec<Vec<usize>>, results: Vec<Option<ShardSolve>>, case: &str) -> (FleetSchedule, u64, u64) {
        let clock = lpvs::core::work::Laps::start();
        let (servers, lambda) = (&self.servers, self.lambda);
        let got = self.scheduler.assemble(&self.fleet, servers, shards, results, lambda, &self.curve, clock, Some((&mut self.memo, delta)));
        self.check(&got, case);
        (got.clone(), got.work.rows_accounted.join, got.work.rows_accounted.shipped)
    }

    /// [`Self::join`] of results solved apart, each shipping `shipped`.
    fn join_shipped(
        &mut self,
        delta: &SlotDelta,
        shards: Vec<Vec<usize>>,
        results: Vec<Option<Schedule>>,
        shipped: &[ScoreRows],
        case: &str,
    ) -> (FleetSchedule, u64, u64) {
        // No shard reports a load: the join computes every one.
        let results = (results.into_iter().zip(shipped))
            .map(|(r, rows)| r.map(|schedule| ShardSolve { schedule, shipped: Some(rows.clone()), load: None, frontier: 0 }))
            .collect();
        self.join(delta, shards, results, case)
    }

    /// The fleet totals of `got` are those of evaluating every row afresh.
    fn check(&self, got: &FleetSchedule, case: &str) {
        let rows: Vec<usize> = (0..self.fleet.len()).collect();
        let whole = self.fleet.slot_view(&rows, 1e9, 1e9, self.lambda, &self.curve);
        let (objective, saved) = from_scratch(whole, &got.selected);
        assert_eq!(got.objective.to_bits(), objective.to_bits(), "{case}: objective");
        assert_eq!(got.energy_saved_j.to_bits(), saved.to_bits(), "{case}: saving");
    }
}

/// Every row of a shard's score, as the shard body ships it.
fn ship(scores: &Scores) -> ScoreRows {
    (0..scores.off.len()).map(|p| (p, scores.off[p], scores.on[p], scores.saving[p])).collect()
}

#[test]
fn a_migrated_in_row_costs_the_join_nothing() {
    let mut case = JoinCase::new();
    let owned = (JOIN_ROWS - UNOWNED.len()) as u64;
    // Slot 0 (nothing kept) and slot 1 (extends it, a few rows dirty):
    // every shard ships every row, the rebalance then selects rows
    // their shards shipped as unselected — priced under both decisions.
    for slot in 0..2 {
        if slot == 1 {
            for i in [10, 70, 130] {
                case.fleet.set_energy_j(i, 0.3 * 55_440.0);
            }
        }
        let delta = case.delta();
        let (shards, results, shipped) = case.solve();
        let (got, scored, adopted) = case.join_shipped(&delta, shards, results, &shipped, &format!("slot {slot}"));
        assert!(got.migrations > 0, "slot {slot}: the regime must migrate");
        // With nothing kept the join scores the rows no shard owns; on
        // a slot that extends it, nothing.
        let unowned = if slot == 0 { UNOWNED.len() as u64 } else { 0 };
        assert_eq!((scored, adopted), (unowned, owned), "slot {slot}");
    }
}

#[test]
fn a_shard_that_ships_nothing_is_priced_by_the_join() {
    let mut case = JoinCase::new();
    let delta = case.delta();
    let (shards, mut results, mut shipped) = case.solve();
    // Shard 0 died (passthrough, nothing shipped); shard 1 solved but
    // ships nothing.
    results[0] = None;
    shipped[0].clear();
    shipped[1].clear();
    let unshipped = (shards[0].len() + shards[1].len() + UNOWNED.len()) as u64;
    let last = shards[2].len() as u64;
    let (got, scored, adopted) = case.join_shipped(&delta, shards, results, &shipped, "slot 0");
    assert_eq!(got.shards[0].stats.degradation, Degradation::Passthrough);
    // Every row of the two silent shards and every unowned row, once;
    // what moved into the dead shard's room was priced by its shipment.
    assert!(got.migrations > 0);
    assert_eq!((scored, adopted), (unshipped, last));

    // The next slot extends this one with an empty frontier and again
    // no shipment from shards 0 and 1: the kept prices stand, and the
    // decisions that flipped (shard 0 is alive again) cost nothing.
    let delta = case.delta();
    let (shards, results, mut shipped) = case.solve();
    shipped[0].clear();
    shipped[1].clear();
    let (flipped, scored, _) = case.join_shipped(&delta, shards, results, &shipped, "slot 1");
    assert_ne!(flipped.selected, got.selected, "no decision flipped");
    assert_eq!(scored, 0);
}

#[test]
fn a_dirty_row_no_shard_owns_is_priced_by_the_join() {
    let mut case = JoinCase::new();
    let delta = case.delta();
    let (shards, results, shipped) = case.solve();
    case.join_shipped(&delta, shards, results, &shipped, "slot 0");

    // A disconnected row's battery moves: no shard solves it, nobody
    // ships it, and its eq.-13 term (its anxiety) changed.
    case.fleet.set_energy_j(UNOWNED[1], 0.9 * 55_440.0);
    case.fleet.set_energy_j(77, 0.2 * 55_440.0);
    let delta = case.delta();
    assert_eq!(delta.dirty, vec![UNOWNED[1], 77]);
    let (shards, results, shipped) = case.solve();
    let (got, scored, _) = case.join_shipped(&delta, shards, results, &shipped, "slot 1");
    assert!(got.migrations > 0);
    assert_eq!(scored, 1);
}

/// One incremental slot with flips and a migration, through the shard
/// body itself: each dirty row's chunks are walked once — the residual
/// sub-solve, the frontier's Phase-2 and the totals all read the one
/// score — and the join, adopting the frontier the shards shipped,
/// scores nothing, whatever flipped or moved.
#[test]
fn an_incremental_slot_walks_its_frontier_once_and_the_join_scores_nothing() {
    let mut case = JoinCase::new();
    let scheduler = LpvsScheduler::new(case.scheduler.config().scheduler);
    let budget = SlotBudget::unbounded();
    let mut memos: Vec<Option<ShardDeltaMemo>> = vec![None; case.servers.len()];
    let mut last = Vec::new();
    // Rows born dirty (slot 0, cold), then a slot where selected rows of
    // the first two shards charge up and an unselected one drains.
    for slot in 0..2 {
        if slot == 1 {
            let selected: Vec<usize> = (0..JOIN_ROWS).filter(|&i| last[i]).collect();
            for &i in [selected[0], selected[1], selected[selected.len() / 2]].iter() {
                case.fleet.set_energy_j(i, 0.95 * 55_440.0);
            }
            let drained = (0..JOIN_ROWS).find(|&i| !last[i] && !UNOWNED.contains(&i)).expect("an unselected row");
            case.fleet.set_energy_j(drained, 0.04 * 55_440.0);
        }
        let (delta, fleet) = (case.delta(), &case.fleet);
        let shards = case.scheduler.partition(fleet);
        let inputs = SlotInputs { fleet, lambda: case.lambda, curve: &case.curve, budget: &budget, warm: None, delta: Some(&delta) };
        let results = (shards.iter().zip(&case.servers).zip(&mut memos))
            .map(|((rows, &server), memo)| {
                let job = ShardJob { rows: rows.clone(), server, load: true };
                Some(solve_shard(&scheduler, memo, &inputs, job))
            })
            .collect();
        let frontier_steps: u64 = delta.dirty.iter().map(|&i| fleet.num_chunks(i) as u64).sum();
        let (got, scored, adopted) = case.join(&delta, shards, results, &format!("slot {slot}"));
        if slot == 1 {
            let paths = got.work.delta_path;
            assert!(paths.incremental >= 1 && paths.cold == 0, "{paths:?}");
            let flips = got.selected.iter().zip(&last).filter(|(a, b)| a != b).count();
            assert!(flips > 0 && got.migrations > 0, "{flips} flips, {} migrations", got.migrations);
            assert_eq!(got.work.chunk_steps.score, frontier_steps, "the frontier walked more than once");
            assert_eq!((got.work.rows_accounted.shard, scored, adopted), (delta.len() as u64, 0, delta.len() as u64));
        }
        last = got.selected;
    }
}

/// A memo's score stands only where a delta says what changed: a slot
/// that carries none, after one that kept a memo, scores every row again
/// and totals what its rows are now.
#[test]
fn a_delta_less_slot_scores_every_row_afresh() {
    let mut case = JoinCase::new();
    let scheduler = LpvsScheduler::new(case.scheduler.config().scheduler);
    let budget = SlotBudget::unbounded();
    let mut memos: Vec<Option<ShardDeltaMemo>> = vec![None; case.servers.len()];
    let delta = case.delta();
    for slot in 0..2 {
        if slot == 1 {
            for i in [10, 70, 130] {
                case.fleet.set_energy_j(i, 0.9 * 55_440.0);
            }
        }
        let fleet = &case.fleet;
        let delta = (slot == 0).then_some(&delta);
        let inputs = SlotInputs { fleet, lambda: case.lambda, curve: &case.curve, budget: &budget, warm: None, delta };
        for ((rows, &server), memo) in case.scheduler.partition(fleet).iter().zip(&case.servers).zip(&mut memos) {
            let job = ShardJob { rows: rows.clone(), server, load: false };
            let solved = solve_shard(&scheduler, memo, &inputs, job);
            let view = fleet.slot_view(rows, server.compute_capacity(), server.storage_capacity_gb(), case.lambda, &case.curve);
            let (objective, saved) = from_scratch(view, &solved.schedule.selected);
            let stats = solved.schedule.stats;
            assert_eq!((stats.objective.to_bits(), stats.energy_saved_j.to_bits()), (objective.to_bits(), saved.to_bits()), "slot {slot}");
            assert_eq!(solved.schedule.work.rows_accounted.shard, rows.len() as u64, "slot {slot}");
            assert_eq!(memo.is_some(), slot == 0, "only a delta-carrying solve keeps a memo");
        }
    }
}

#[test]
fn an_unselected_row_folds_its_off_term() {
    // Rows both phases select and the resilient path then masks out
    // (disconnected): the score that rides beside the schedule — kept by
    // a shard, shipped to the join — prices both decisions, and the
    // totals fold each row at the decision that is returned, in release
    // builds too.
    let problem = synthetic_problem(600, 240.0, 1.0, 7);
    let standing = LpvsScheduler::paper_default().schedule(&problem).unwrap().selected;
    let mut fleet = DeviceFleet::from_problem(&problem);
    let masked: Vec<usize> = (0..problem.len()).filter(|&i| standing[i]).take(5).collect();
    for &i in &masked {
        fleet.set_connected(i, false);
    }
    let rows: Vec<usize> = (0..problem.len()).collect();
    let view = whole_view(&problem, &fleet, &rows);
    let (schedule, scores) = LpvsScheduler::paper_default().schedule_view_accounted(
        view,
        None,
        &SlotBudget::unbounded(),
        None,
    );
    assert!(schedule.num_selected() > 0 && masked.iter().all(|&i| !schedule.selected[i]));
    let (objective, saved) = from_scratch(view, &schedule.selected);
    let folded = scores.fold(&schedule.selected);
    assert_eq!((folded.0.to_bits(), folded.1.to_bits()), (objective.to_bits(), saved.to_bits()));
    assert_eq!((schedule.stats.objective.to_bits(), schedule.stats.energy_saved_j.to_bits()), (objective.to_bits(), saved.to_bits()));
    // A masked row's `on` is not its term: it was priced transformed.
    assert!(masked.iter().all(|&p| scores.on[p] != scores.off[p] && scores.saving[p] > 0.0));
}
