//! One shard body and one executor for every runner.
//!
//! A shard solves its slice of a slot — a zero-copy view of the shared
//! fleet over its rows and its own server's capacities — through
//! [`solve_shard`] against the delta memo of its last solve, and a slot's
//! shards run on [`run_shards`]. [`FleetScheduler::schedule`] holds `k`
//! empty memos for the one call; the slot runtime holds its memos for
//! the whole run, on its own threads or its workers'. Who holds the
//! memos is the only difference between the runners.

use crate::fleet::{shard_frontier, FleetScheduler, ShardLoad};
use crate::server::EdgeServer;
use lpvs_core::budget::SlotBudget;
use lpvs_core::delta::{solve_incremental, Continuity, SlotDelta};
use lpvs_core::fleet::DeviceFleet;
use lpvs_core::kernels::Scores;
use lpvs_core::scheduler::{LpvsScheduler, Schedule, ScheduleStats};
use lpvs_core::work::{Laps, SlotWork};
use lpvs_survey::curve::AnxietyCurve;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// What a shard remembers between slots to solve incrementally: the
/// previous slot's schedule plus everything needed to prove the next
/// slot is a contiguous extension of it.
///
/// The memo is valid for a job exactly when the slot carries a
/// [`SlotDelta`] its [`Continuity`] continues (the next epoch — no
/// missed frontiers — under the same λ bits and curve), the shard's
/// device list is unchanged (same rows, same order — a connectivity
/// flip or repartition changes it and automatically forces cold), and
/// the shard's capacities are bit-identical. Anything else is a cold
/// solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDeltaMemo {
    /// The epoch, λ and curve the memo's schedule was solved under.
    pub continuity: Continuity,
    /// Global fleet indices of the shard at solve time, in shard order.
    pub indices: Vec<usize>,
    /// Shard compute capacity at solve time (bit-compared).
    pub compute_capacity: f64,
    /// Shard storage capacity at solve time (GB, bit-compared).
    pub storage_capacity_gb: f64,
    /// The shard schedule the memo reuses or extends.
    pub schedule: Schedule,
    /// The score of the shard's rows as of the last solve (positional,
    /// like the selection), so the next solve — incremental, or cold
    /// past the fraction gate — re-scores its dirty rows only and folds
    /// its totals from it. Derived, never persisted: `None` on a memo
    /// decoded from a checkpoint, until the next solve scores every row
    /// once.
    pub scores: Option<Scores>,
}

/// Score rows a shard hands the join: `(position, off, on, saving)`
/// each, shard-local positions, the columns of [`Scores`].
pub type ScoreRows = Vec<(usize, f64, f64, f64)>;

/// Fraction gate: the incremental path only pays off while the dirty
/// frontier is small; past a quarter of the shard the residual
/// sub-solve plus the full-slice Phase-2 costs about as much as a cold
/// solve, so the shard solves cold (the memo stays continuous).
const MAX_INCREMENTAL_FRACTION_NUM: usize = 1;
const MAX_INCREMENTAL_FRACTION_DEN: usize = 4;

/// What every shard of one slot reads, borrowed from whoever gathered it.
#[derive(Debug, Clone, Copy)]
pub struct SlotInputs<'a> {
    /// The slot's fleet, one for every shard.
    pub fleet: &'a DeviceFleet,
    /// Regularization λ.
    pub lambda: f64,
    /// The cohort's anxiety curve.
    pub curve: &'a AnxietyCurve,
    /// Per-shard solver budget: a deadline bounds each shard's wall clock.
    pub budget: &'a SlotBudget,
    /// The last selection in fleet order: warm-starts a cold solve with
    /// the shard's slice, but only when the fleet's size is unchanged.
    pub warm: Option<&'a [bool]>,
    /// The slot's change set; `None` solves every shard cold, keeps no memo.
    pub delta: Option<&'a SlotDelta>,
}

/// One shard's own inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardJob {
    /// The shard's fleet rows, ascending.
    pub rows: Vec<usize>,
    /// The shard's server, whose capacities bound its solve.
    pub server: EdgeServer,
    /// Whether the join rebalances, so the shard reports its
    /// [`ShardLoad`] ([`FleetScheduler::rebalances`]).
    pub load: bool,
}

/// What a shard's solve hands the join.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSolve {
    /// The shard schedule — a passthrough when the solver panicked. Its
    /// work counts the delta path taken and the rows scored; its laps
    /// are the solver's between the shard's own `shard` laps.
    pub schedule: Schedule,
    /// The score rows the solve priced, for the join to adopt: every
    /// row after a cold solve, the dirty ones after an incremental one
    /// (every row, if it had no kept score), none after a reuse; `None`
    /// after a panic.
    pub shipped: Option<ScoreRows>,
    /// The [`ShardLoad`] of `schedule`, when the job asked for one.
    pub load: Option<ShardLoad>,
    /// The shard's rows the slot's delta named dirty (0 with no live memo).
    pub frontier: usize,
}

/// How a shard slice was solved this slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeltaPath {
    /// Empty local frontier: the memo's schedule is reused verbatim.
    Reuse,
    /// Non-empty frontier within the fraction gate: residual sub-solve
    /// over the dirty rows merged into the standing selection.
    Incremental,
    /// Full re-solve (no delta, no memo, invalidated memo, or a
    /// frontier too large to pay off).
    Cold,
}

/// Decides the solve path for a job against the shard's memo, and
/// discards a live memo a population, epoch, capacity, λ or curve change
/// broke. Returns the path plus the shard-local dirty positions (for the
/// incremental path). No flag rides beside the job: a shard with no memo
/// (a respawned worker, a one-shot call) solves cold here.
fn classify_delta(slot: &SlotInputs<'_>, job: &ShardJob, memo: &mut Option<ShardDeltaMemo>) -> (DeltaPath, Vec<usize>) {
    // Sources that don't track deltas solve cold every slot, and no memo
    // was promised; a shard with no memo has nothing to extend.
    let (Some(delta), Some(kept)) = (slot.delta, memo.as_ref()) else { return (DeltaPath::Cold, Vec::new()) };
    if !kept.continuity.continues(delta, slot.lambda, slot.curve)
        || kept.indices != job.rows
        || kept.compute_capacity.to_bits() != job.server.compute_capacity().to_bits()
        || kept.storage_capacity_gb.to_bits() != job.server.storage_capacity_gb().to_bits()
    {
        *memo = None;
        return (DeltaPath::Cold, Vec::new());
    }
    let local = shard_frontier(&job.rows, &delta.dirty);
    if local.is_empty() {
        (DeltaPath::Reuse, local)
    } else if local.len() * MAX_INCREMENTAL_FRACTION_DEN > job.rows.len() * MAX_INCREMENTAL_FRACTION_NUM {
        // Past the gate a cold solve is cheaper; the memo survives and
        // stays continuous (it is refreshed from this solve).
        (DeltaPath::Cold, local)
    } else {
        (DeltaPath::Incremental, local)
    }
}

/// The shard body: solves the shard's slice cold (warm-started from the
/// slot's `warm` selection), incrementally over the dirty frontier, or by
/// reusing the memo outright when nothing in the shard changed. A solver
/// panic is contained here: the shard hands the join its passthrough and
/// no score rows, and the memo is dropped. The path is counted before the
/// solve runs, so a solve that panics still reports it; the shard's own
/// work around the solve is its `shard` laps. The [`ShardLoad`], when the
/// job asks for one, is that of the schedule returned: a panicked solve's
/// passthrough selects nothing.
pub fn solve_shard(scheduler: &LpvsScheduler, memo: &mut Option<ShardDeltaMemo>, slot: &SlotInputs<'_>, job: ShardJob) -> ShardSolve {
    let mut own = Laps::start();
    let (mut work, rows) = (SlotWork::default(), job.rows.len());
    let (path, local_dirty) = classify_delta(slot, &job, memo);
    let paths = &mut work.delta_path;
    match path {
        DeltaPath::Reuse => paths.reuse += 1,
        DeltaPath::Incremental => paths.incremental += 1,
        DeltaPath::Cold => paths.cold += 1,
    }

    let (compute, storage_gb) = (job.server.compute_capacity(), job.server.storage_capacity_gb());
    let view = || slot.fleet.slot_view(&job.rows, compute, storage_gb, slot.lambda, slot.curve);
    // A memo the slot's delta continues (`classify_delta`) has a score
    // that stands for every row but the dirty ones, so a solve re-scores
    // those only; a reuse leaves it where it is. A delta-less slot proves
    // nothing about the rows: it scores them all.
    let kept = memo.as_mut().filter(|_| slot.delta.is_some() && path != DeltaPath::Reuse).and_then(|m| m.scores.take());
    // An incremental solve on a kept score prices its frontier, ships it;
    // every other solve ships every row.
    let ship_frontier = path == DeltaPath::Incremental && kept.is_some();
    let solved = match path {
        DeltaPath::Reuse => {
            // Bit-identical to a cold solve by solver determinism: the
            // problem is unchanged, so the answer is too — and no work
            // was done for it, nor time taken.
            memo.as_ref().map(|m| {
                let stats = ScheduleStats { runtime: Duration::ZERO, ..m.schedule.stats };
                (Schedule { selected: m.schedule.selected.clone(), stats, ..Schedule::default() }, None)
            })
        }
        DeltaPath::Incremental => {
            let m = memo.as_ref().expect("incremental path requires a memo");
            let (was, rung) = (&m.schedule.selected, m.schedule.stats.degradation);
            catch_unwind(AssertUnwindSafe(|| solve_incremental(scheduler, view(), &local_dirty, was, rung, slot.budget, kept)))
                .ok()
                .map(|(schedule, scores)| (schedule, Some(scores)))
        }
        DeltaPath::Cold => {
            let warm = |p: &[bool]| job.rows.iter().map(|&i| p[i]).collect::<Vec<_>>();
            let (view, warm) = (view(), slot.warm.filter(|p| p.len() == slot.fleet.len()).map(warm));
            let kept = kept.map(|scores| (scores, &local_dirty[..]));
            catch_unwind(AssertUnwindSafe(|| scheduler.schedule_view_accounted(view, warm.as_deref(), slot.budget, kept)))
                .ok()
                .map(|(schedule, scores)| (schedule, Some(scores)))
        }
    };

    let (schedule, scores) = solved.unzip();
    let scores = scores.flatten();
    let shipped = schedule.as_ref().map(|_| {
        let row = |p: usize, s: &Scores| (p, s.off[p], s.on[p], s.saving[p]);
        match &scores {
            Some(s) if ship_frontier => local_dirty.iter().map(|&p| row(p, s)).collect(),
            Some(s) => (0..rows).map(|p| row(p, s)).collect(),
            None => Vec::new(),
        }
    });
    let selected = schedule.as_ref().map_or(&[][..], |schedule| &schedule.selected);
    let load = job.load.then(|| ShardLoad::of(slot.fleet, &job.server, &job.rows, selected));

    // Refresh the memo: every successful delta-carrying solve becomes
    // the next slot's baseline; panics and delta-less slots clear it.
    *memo = match (&schedule, slot.delta) {
        (Some(schedule), Some(delta)) => Some(match memo.take() {
            // Reuse and incremental: the memo's rows, capacities, λ and
            // curve are this job's (`classify_delta`); an incremental
            // solve's decision and score replace the kept ones.
            Some(mut kept) if path != DeltaPath::Cold => {
                kept.continuity.epoch = delta.epoch;
                if path == DeltaPath::Incremental {
                    kept.schedule.clone_from(schedule);
                    kept.scores = scores;
                }
                kept
            }
            // A cold solve starts over, from the score it solved on.
            _ => ShardDeltaMemo {
                continuity: Continuity { epoch: delta.epoch, lambda: slot.lambda, curve: slot.curve.clone() },
                compute_capacity: compute,
                storage_capacity_gb: storage_gb,
                schedule: schedule.clone(),
                scores,
                indices: job.rows,
            },
        }),
        _ => None,
    };

    let mut schedule = schedule.unwrap_or_else(|| FleetScheduler::passthrough_schedule(rows));
    schedule.work += work;
    own.splice("shard", &schedule.laps);
    own.lap("shard");
    schedule.laps = own;
    ShardSolve { schedule, shipped, load, frontier: local_dirty.len() }
}

/// The shard executor: `solve(&mut states[s], jobs[s])` for every shard,
/// in shard order — shard 0 on the calling thread, which would otherwise
/// only wait, each other on a scoped thread, so one shard costs no thread.
/// A scoped shard that panicked outside the contained solver is `None`
/// (the join's passthrough); a panic on the calling thread makes every shard `None`.
pub fn run_shards<S: Send, J: Send, R: Send>(states: &mut [S], jobs: Vec<J>, solve: impl Fn(&mut S, J) -> R + Sync) -> Vec<Option<R>> {
    let Some((first, rest)) = states.split_first_mut() else { return Vec::new() };
    let (mut jobs, solve) = (jobs.into_iter(), &solve);
    let job = jobs.next().expect("one job a shard");
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> =
            rest.iter_mut().zip(jobs).map(|(state, job)| scope.spawn(move |_| solve(state, job))).collect();
        let first = solve(first, job);
        std::iter::once(Some(first)).chain(handles.into_iter().map(|h| h.join().ok())).collect()
    })
    .unwrap_or_default()
}
