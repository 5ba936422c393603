//! Delta-aware slot solving: re-solve only what changed.
//!
//! Between 5-minute slots most devices barely change — batteries drift,
//! γ posteriors nudge — so re-solving the whole fleet from scratch every
//! slot wastes the solve stage's budget on devices whose answer cannot
//! move. This module is the core of the incremental path:
//!
//! * [`SlotDelta`] — the per-slot change set captured from
//!   [`DeviceFleet::dirty_frontier`](crate::fleet::DeviceFleet::dirty_frontier)
//!   at gather time and shipped alongside (or instead of) the full
//!   fleet;
//! * [`solve_shard_incremental`] — given a shard's previous selection
//!   and the shard-local dirty rows, solves a small residual problem
//!   over the dirty rows only, merges it with the standing clean-row
//!   decisions, and re-runs Phase-2 swapping restricted to the dirty
//!   frontier. The shard and the residual are both [`SlotView`]s of
//!   the fleet the caller already holds — the residual is the same
//!   columns over the dirty rows with reduced capacities — so nothing
//!   is extracted or copied. The caller's kept score of the shard
//!   ([`Scores`]) is re-scored at the frontier only, once: the residual
//!   sub-solve, the frontier's Phase-2 and the totals of the merged
//!   selection ([`Scores::fold`]) all read it, and the frontier's rows
//!   of it go on to the fleet join ([`solve_incremental`]).
//!
//! The correctness argument, in layers:
//!
//! 1. **Clean rows are bit-identical** to when their dirty bit was last
//!    cleared (the [`DeviceFleet`] mutator contract), so their
//!    per-device objective terms and costs are
//!    unchanged and the standing decision remains capacity-accounted.
//! 2. The residual sub-problem gives the dirty rows exactly the
//!    capacity the clean rows left behind, so the merged selection can
//!    never exceed the shard's capacity rows.
//! 3. Phase-2 runs with both candidates and victims restricted to the
//!    dirty frontier, so every clean row keeps
//!    its decision verbatim — the pure-addition criterion with respect
//!    to clean rows.
//!
//! An *empty* delta does not reach this module at all: the caller
//! reuses the previous schedule verbatim, which is bit-identical to a
//! cold solve by solver determinism (same problem → same answer).

use crate::budget::SlotBudget;
use crate::fleet::{DeviceFleet, DirtyFrontier, SlotView};
use crate::kernels::Scores;
use crate::phase1::score_view;
use crate::phase2::run_phase2_scored;
use crate::scheduler::{Degradation, LpvsScheduler, Schedule, ScheduleStats, SchedulerConfig};
use crate::work::{Laps, SlotWork};
use lpvs_survey::curve::AnxietyCurve;
use serde::{Deserialize, Serialize};

/// The change set of one slot: which fleet rows mutated since the
/// previous gather, stamped with the fleet epoch the frontier was
/// captured at.
///
/// Epochs order deltas: a consumer holding a memo of epoch `e` may
/// apply a delta of epoch `e + 1` incrementally; any gap means missed
/// frontiers (a death, restore, or skipped slot) and must force a cold
/// solve.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotDelta {
    /// Fleet epoch at capture time (see
    /// [`DeviceFleet::epoch`](crate::fleet::DeviceFleet::epoch)).
    pub epoch: u64,
    /// Ascending global fleet indices of the rows that changed.
    pub dirty: Vec<usize>,
}

impl SlotDelta {
    /// Number of dirty rows.
    pub fn len(&self) -> usize {
        self.dirty.len()
    }

    /// True when nothing changed this slot.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }
}

impl From<DirtyFrontier> for SlotDelta {
    fn from(f: DirtyFrontier) -> Self {
        Self { epoch: f.epoch, dirty: f.indices }
    }
}

/// What a decision kept across slots was made under: the epoch of the
/// delta it consumed, λ and the curve. Its owner (a shard's delta memo,
/// the fleet join) checks [`Continuity::continues`] once a slot; what it
/// keeps beside the decision is derived under that and checks nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Continuity {
    /// Epoch of the delta the kept decision consumed.
    pub epoch: u64,
    /// λ (bit-compared).
    pub lambda: f64,
    /// The anxiety curve.
    pub curve: AnxietyCurve,
}

impl Continuity {
    /// Whether a slot carrying `delta` under `lambda` and `curve` extends
    /// the kept decision: the next epoch (no missed frontier), λ's bits
    /// and the curve unchanged.
    pub fn continues(&self, delta: &SlotDelta, lambda: f64, curve: &AnxietyCurve) -> bool {
        delta.epoch.checked_sub(1) == Some(self.epoch) && self.lambda.to_bits() == lambda.to_bits() && self.curve == *curve
    }
}

/// Solves one shard incrementally: dirty rows are re-solved against the
/// capacity the clean rows left behind, clean rows keep their standing
/// decision, and Phase-2 swapping re-runs restricted to the frontier.
///
/// * `indices` — the shard's global fleet rows, in shard order. Must be
///   the same rows (same order) the previous selection was computed
///   over; callers enforce this before taking the incremental path.
/// * `local_dirty` — shard-local positions (indexes into `indices`)
///   of the rows that changed, ascending.
/// * `previous_selected` — the standing per-row decision from the
///   previous slot, `indices.len()` long.
/// * `previous_degradation` — the ladder rung that produced it; the
///   merged schedule reports the worse of this and the sub-solve's
///   rung, so a reused greedy-tier decision is never relabelled exact.
///
/// This is [`solve_incremental`] over the shard's view with no kept
/// score: every row is scored once.
///
/// # Panics
///
/// Panics if `previous_selected.len() != indices.len()` or a dirty
/// position is out of range.
#[allow(clippy::too_many_arguments)]
pub fn solve_shard_incremental(
    scheduler: &LpvsScheduler,
    fleet: &DeviceFleet,
    indices: &[usize],
    local_dirty: &[usize],
    previous_selected: &[bool],
    previous_degradation: Degradation,
    compute_capacity: f64,
    storage_capacity_gb: f64,
    lambda: f64,
    curve: &AnxietyCurve,
    budget: &SlotBudget,
) -> Schedule {
    let view = fleet.slot_view(indices, compute_capacity, storage_capacity_gb, lambda, curve);
    solve_incremental(scheduler, view, local_dirty, previous_selected, previous_degradation, budget, None).0
}

/// [`solve_shard_incremental`] over a view, with the caller's kept
/// score: `kept` is `None`, or the score of this view's rows as they
/// were before `local_dirty` (ascending) changed, under the view's λ
/// and curve. The dirty rows are scored into it once (every row when
/// there is none; the rows are the `shard` rows of the returned
/// schedule's work, their chunk steps its `score` steps), and the
/// residual sub-solve, the frontier's Phase-2 and the totals all read
/// that one score, which is returned beside the schedule, every
/// position current.
///
/// Falls back to a cold full-shard solve internally if the merged
/// selection somehow violates capacity (defence in depth — the
/// residual-capacity algebra makes this unreachable up to f64
/// rounding), on the same score.
pub fn solve_incremental(
    scheduler: &LpvsScheduler,
    view: SlotView<'_>,
    local_dirty: &[usize],
    previous_selected: &[bool],
    previous_degradation: Degradation,
    budget: &SlotBudget,
    kept: Option<Scores>,
) -> (Schedule, Scores) {
    assert_eq!(previous_selected.len(), view.len(), "previous selection does not cover the shard");
    let mut laps = Laps::start();
    let mut work = SlotWork::default();
    let scores = score_view(view, kept, local_dirty, &mut work);

    // Capacity the clean rows' standing selections already consume.
    let mut g_clean = 0.0;
    let mut h_clean = 0.0;
    let mut is_dirty = vec![false; view.len()];
    for &local in local_dirty {
        is_dirty[local] = true;
    }
    for local in 0..view.len() {
        if previous_selected[local] && !is_dirty[local] {
            let [g, h] = view.cost(local);
            g_clean += g;
            h_clean += h;
        }
    }

    // Residual sub-problem over the dirty rows only, warm-started with
    // their previous decisions and solved on their entries of the score.
    // Phase-2 is deferred to the merged selection so swaps see the
    // frontier, not the sub-problem.
    let dirty_rows: Vec<usize> = local_dirty.iter().map(|&l| view.rows()[l]).collect();
    let sub_view = view.fleet().slot_view(
        &dirty_rows,
        (view.compute_capacity() - g_clean).max(0.0),
        (view.storage_capacity_gb() - h_clean).max(0.0),
        view.lambda(),
        view.curve(),
    );
    let sub_warm: Vec<bool> = local_dirty.iter().map(|&l| previous_selected[l]).collect();
    let sub_scheduler = LpvsScheduler::new(SchedulerConfig {
        enable_phase2: false,
        ..*scheduler.config()
    });
    let pick = |column: &[f64]| local_dirty.iter().map(|&l| column[l]).collect();
    let frontier = Scores {
        feasible: local_dirty.iter().map(|&l| scores.feasible[l]).collect(),
        saving: pick(&scores.saving),
        off: pick(&scores.off),
        on: pick(&scores.on),
    };
    let (sub, frontier) =
        sub_scheduler.schedule_view_accounted(sub_view, Some(&sub_warm), budget, Some((frontier, &[])));
    laps.splice("delta", &sub.laps);
    work += sub.work;

    // Merge: clean rows keep their standing decision.
    let mut selected = previous_selected.to_vec();
    for (k, &local) in local_dirty.iter().enumerate() {
        selected[local] = sub.selected[k];
    }
    if !view.capacity_feasible(&selected) {
        // Unreachable up to rounding; a cold solve is always sound.
        let (mut cold, scores) =
            scheduler.schedule_view_accounted(view, Some(previous_selected), budget, Some((scores, &[])));
        laps.splice("delta", &cold.laps);
        cold.work += work;
        cold.stats.runtime = laps.total();
        cold.laps = laps;
        return (cold, scores);
    }

    laps.lap("delta");
    let phase2 = if scheduler.config().enable_phase2 {
        run_phase2_scored(view, &mut selected, Some(local_dirty), &frontier, &mut laps)
    } else {
        Default::default()
    };
    let (objective, energy_saved_j) = scores.fold(&selected);
    laps.lap("delta");

    let degradation = previous_degradation.max(sub.stats.degradation);
    let stats = ScheduleStats {
        objective,
        energy_saved_j,
        infeasible_devices: sub.stats.infeasible_devices,
        phase1_nodes: sub.stats.phase1_nodes,
        phase1_pivots: sub.stats.phase1_pivots,
        phase2,
        degradation,
        rejected_devices: sub.stats.rejected_devices,
        runtime: laps.total(),
    };
    (Schedule { selected, stats, work, laps }, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::DeviceFleet;
    use crate::objective::objective_value;
    use crate::problem::DeviceRequest;

    fn fleet(n: usize) -> DeviceFleet {
        let mut f = DeviceFleet::with_capacity(n, 30);
        for i in 0..n {
            let fraction = 0.08 + 0.85 * (i as f64 / n as f64);
            f.push(crate::fleet::FleetDevice::from_request(DeviceRequest::uniform(
                0.8 + 0.05 * (i % 7) as f64,
                10.0,
                30,
                fraction * 55_440.0,
                55_440.0,
                0.2 + 0.03 * (i % 5) as f64,
                1.0,
                0.1,
            )));
        }
        f
    }

    #[test]
    fn incremental_matches_structure_and_feasibility() {
        let mut f = fleet(40);
        let curve = AnxietyCurve::paper_shape();
        let scheduler = LpvsScheduler::paper_default();
        let budget = SlotBudget::default();
        let indices: Vec<usize> = (0..40).collect();
        let caps = (8.0, 100.0, 1.0);
        let problem = f.subproblem(&indices, caps.0, caps.1, caps.2, &curve);
        let cold = scheduler.schedule_resilient(&problem, None, &budget);
        f.clear_dirty();

        // Mutate three rows, then solve incrementally from the cold
        // selection.
        f.set_energy_j(3, 0.05 * 55_440.0);
        f.set_gamma(17, 0.45, 0.05);
        f.set_energy_j(31, 0.9 * 55_440.0);
        let frontier = f.dirty_frontier();
        assert_eq!(frontier.indices, vec![3, 17, 31]);
        let inc = solve_shard_incremental(
            &scheduler,
            &f,
            &indices,
            &frontier.indices, // shard == fleet here, so local == global
            &cold.selected,
            cold.stats.degradation,
            caps.0,
            caps.1,
            caps.2,
            &curve,
            &budget,
        );
        let mutated_problem = f.subproblem(&indices, caps.0, caps.1, caps.2, &curve);
        assert!(mutated_problem.capacity_feasible(&inc.selected));
        // Clean rows that Phase-2 could not touch keep their decision.
        for i in 0..40 {
            if ![3usize, 17, 31].contains(&i) {
                assert_eq!(
                    inc.selected[i], cold.selected[i],
                    "clean row {i} flipped without being in the frontier"
                );
            }
        }
        // The incremental answer is at least as good as freezing the
        // previous selection wholesale.
        let frozen = objective_value(&mutated_problem, &cold.selected);
        assert!(inc.stats.objective <= frozen + 1e-9);
    }

    #[test]
    fn degradation_is_the_worse_of_memo_and_sub_solve() {
        let mut f = fleet(12);
        let curve = AnxietyCurve::paper_shape();
        let scheduler = LpvsScheduler::paper_default();
        let budget = SlotBudget::default();
        let indices: Vec<usize> = (0..12).collect();
        f.clear_dirty();
        f.set_energy_j(5, 0.5 * 55_440.0);
        let previous = vec![false; 12];
        let inc = solve_shard_incremental(
            &scheduler,
            &f,
            &indices,
            &[5],
            &previous,
            Degradation::Greedy,
            4.0,
            50.0,
            1.0,
            &curve,
            &budget,
        );
        assert!(inc.stats.degradation >= Degradation::Greedy);
    }
}
