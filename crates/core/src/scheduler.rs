//! The LPVS scheduler: Phase-1 + Phase-2, counted ([`SlotWork`]) and timed ([`Laps`]).

use crate::budget::SlotBudget;
use crate::fleet::{with_problem_view, SlotView};
use crate::kernels::Scores;
use crate::phase1::{self, Phase1Config, Phase1Solver};
use crate::phase2::{run_phase2_scored, Phase2Stats};
use crate::problem::SlotProblem;
use crate::work::{Laps, SlotWork};
use lpvs_solver::SolverError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Which rung of the graceful-degradation ladder produced a slot's
/// schedule.
///
/// [`LpvsScheduler::schedule_resilient`] walks the rungs in order —
/// exact branch-and-bound, greedy knapsack, reuse of the previous
/// slot's selection, and finally the no-transform passthrough — until
/// one yields a capacity-feasible selection within the slot budget.
/// Each rung costs less than the one above it. The ordering is by
/// solution quality, so `Ord` compares severity: `Exact < Greedy <
/// ReusedPrevious < Passthrough`.
///
/// A discriminant is the rung's [`severity`](Self::severity), which
/// checkpoints, digests and the `tier` span field record. Severity 1 is
/// a retired rung: decoders map data that carries it to `Greedy`, the
/// next rung down.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    Serialize,
    Deserialize,
)]
pub enum Degradation {
    /// The exact branch-and-bound Phase-1 finished within budget.
    #[default]
    Exact = 0,
    /// Fell back to the greedy multi-knapsack.
    Greedy = 2,
    /// No solver finished; the previous slot's (still-feasible)
    /// selection was reused.
    ReusedPrevious = 3,
    /// Nothing usable: every stream passes through untransformed.
    Passthrough = 4,
}

impl Degradation {
    /// All rungs, best first.
    pub const ALL: [Degradation; 4] = [
        Degradation::Exact,
        Degradation::Greedy,
        Degradation::ReusedPrevious,
        Degradation::Passthrough,
    ];

    /// Position on the ladder (0 = no degradation).
    pub fn severity(self) -> usize {
        self as usize
    }

    /// Whether the scheduler had to leave its configured solver path.
    pub fn is_degraded(self) -> bool {
        self != Degradation::Exact
    }

    /// Short human-readable rung name.
    pub fn label(self) -> &'static str {
        match self {
            Degradation::Exact => "exact",
            Degradation::Greedy => "greedy",
            Degradation::ReusedPrevious => "reused-previous",
            Degradation::Passthrough => "passthrough",
        }
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The ladder rung a Phase-1 solver occupies.
fn rung_of(solver: Phase1Solver) -> Degradation {
    match solver {
        Phase1Solver::Exact => Degradation::Exact,
        Phase1Solver::Greedy => Degradation::Greedy,
    }
}

/// Scheduler configuration: every knob DESIGN.md's ablations turn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Phase-1 setup (exact ILP vs. greedy knapsack).
    pub phase1: Phase1Config,
    /// Whether to run the anxiety-driven swapping pass.
    pub enable_phase2: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self { phase1: Phase1Config::default(), enable_phase2: true }
    }
}

/// A scheduling decision for one slot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Transform decision per device.
    pub selected: Vec<bool>,
    /// Run statistics.
    pub stats: ScheduleStats,
    /// What the solve did, counted, over every rung it tried — beside
    /// `stats`, which snapshots encode, not in it.
    #[serde(skip)]
    pub work: SlotWork,
    /// Where the solve spent its time; its laps add up to `stats.runtime`.
    #[serde(skip)]
    pub laps: Laps,
}

impl Schedule {
    /// Number of devices selected for transforming.
    pub fn num_selected(&self) -> usize {
        self.selected.iter().filter(|&&x| x).count()
    }

    /// Selection churn against a previous decision: the fraction of
    /// devices whose transform decision flipped. Returns `None` when
    /// the lengths differ (the population changed).
    pub fn churn_vs(&self, previous: &[bool]) -> Option<f64> {
        if previous.len() != self.selected.len() || self.selected.is_empty() {
            return None;
        }
        let flips = self
            .selected
            .iter()
            .zip(previous)
            .filter(|(a, b)| a != b)
            .count();
        Some(flips as f64 / self.selected.len() as f64)
    }
}

/// Instrumentation of one scheduling run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Final objective value (eq. 13).
    pub objective: f64,
    /// Energy saved by the final selection (J).
    pub energy_saved_j: f64,
    /// Devices fixed out by energy feasibility.
    pub infeasible_devices: usize,
    /// Branch-and-bound nodes in Phase-1.
    pub phase1_nodes: usize,
    /// Inner solver work in Phase-1: general-simplex pivots summed over
    /// all LP relaxations (exact path; 0 while the knapsack relaxation
    /// serves every node, see [`Phase1Result::pivots`]); 0 on every
    /// other rung.
    ///
    /// [`Phase1Result::pivots`]: crate::phase1::Phase1Result::pivots
    pub phase1_pivots: usize,
    /// Phase-2 swap statistics.
    pub phase2: Phase2Stats,
    /// Ladder rung (equivalently: algorithm) that produced the
    /// selection. On the plain [`LpvsScheduler::schedule`] path this
    /// simply names the configured solver;
    /// [`LpvsScheduler::schedule_resilient`] records how far down the
    /// ladder it had to fall.
    pub degradation: Degradation,
    /// Devices whose telemetry failed validation and were excluded
    /// from scheduling (resilient path only).
    pub rejected_devices: usize,
    /// Wall-clock time of the whole scheduling run: its laps' sum.
    #[serde(skip, default)]
    pub runtime: Duration,
}

/// The LPVS scheduler (paper §V).
///
/// # Example
///
/// ```
/// use lpvs_core::problem::{DeviceRequest, SlotProblem};
/// use lpvs_core::scheduler::LpvsScheduler;
/// use lpvs_survey::curve::AnxietyCurve;
///
/// let mut p = SlotProblem::new(10.0, 10.0, 1.0, AnxietyCurve::paper_shape());
/// p.push(DeviceRequest::uniform(1.2, 10.0, 30, 20_000.0, 55_440.0, 0.3, 1.0, 0.1));
/// let schedule = LpvsScheduler::paper_default().schedule(&p).unwrap();
/// assert_eq!(schedule.num_selected(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LpvsScheduler {
    config: SchedulerConfig,
}

impl LpvsScheduler {
    /// Scheduler with explicit configuration.
    pub fn new(config: SchedulerConfig) -> Self {
        Self { config }
    }

    /// The paper's configuration: exact Phase-1 + Phase-2 swapping.
    pub fn paper_default() -> Self {
        Self::new(SchedulerConfig::default())
    }

    /// Phase-1-only variant (ablation `ablation_phase2`).
    pub fn phase1_only() -> Self {
        Self::new(SchedulerConfig { enable_phase2: false, ..SchedulerConfig::default() })
    }

    /// Active configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Computes the slot schedule.
    ///
    /// # Errors
    ///
    /// Propagates [`SolverError`] from Phase-1 (node-budget exhaustion
    /// with no incumbent; the program itself is always feasible).
    pub fn schedule(&self, problem: &SlotProblem) -> Result<Schedule, SolverError> {
        self.schedule_warm(problem, None)
    }

    /// [`LpvsScheduler::schedule`] seeded with the previous slot's
    /// selection, biasing ties toward the standing decisions (fewer
    /// transform restarts across slots). Like every row-taking entry
    /// point this is an adapter: it loads the problem into columns once
    /// and runs the same phases the resilient ladder runs per rung.
    ///
    /// # Errors
    ///
    /// As [`LpvsScheduler::schedule`].
    pub fn schedule_warm(
        &self,
        problem: &SlotProblem,
        previous: Option<&[bool]>,
    ) -> Result<Schedule, SolverError> {
        let mut laps = Laps::start();
        let phase1_config = &self.config.phase1;
        with_problem_view(problem, |view| {
            laps.lap("sched.sanitize");
            let mut work = SlotWork::default();
            let phases = self.run_phases(phase1_config, view, previous, (None, &[]), &mut work, &mut laps)?;
            Ok(phases.into_schedule(view, rung_of(phase1_config.solver), 0, work, laps).0)
        })
    }

    /// Phase-1 with `phase1_config`'s solver, then Phase-2 if
    /// configured: the decision without its totals, which
    /// [`Phases::into_schedule`] folds once the caller has settled on the
    /// final selection.
    ///
    /// Every stage reads one score of the view: Phase-1 borrows its
    /// savings and verdicts, Phase-2 its verdicts and eq.-13 terms, and
    /// the score rides on in the returned [`Phases`] to the totals. The
    /// score is [`phase1::score_view`]'s: `kept` with the `dirty`
    /// positions re-scored when it is as long as the view, else a fresh
    /// one. The counts go to `work` and the time to `laps` as the stages
    /// finish, so a rung that fails keeps what it did.
    fn run_phases(
        &self,
        phase1_config: &Phase1Config,
        view: SlotView<'_>,
        previous: Option<&[bool]>,
        (kept, dirty): (Option<Scores>, &[usize]),
        work: &mut SlotWork,
        laps: &mut Laps,
    ) -> Result<Phases, SolverError> {
        let mut scores = phase1::score_view(view, kept, dirty, work);
        laps.lap("sched.compact");
        let Scores { saving, feasible, .. } = &mut scores;
        let phase1 = phase1::solve(view, phase1_config, previous, saving, feasible);
        laps.lap("sched.phase1");
        let phase1 = phase1?;
        *work += phase1.work;
        let mut selected = phase1.selected;
        let phase2 = if self.config.enable_phase2 {
            run_phase2_scored(view, &mut selected, None, &scores, laps)
        } else {
            Phase2Stats::default()
        };
        Ok(Phases {
            selected,
            scores,
            infeasible_devices: phase1.infeasible_devices,
            phase1_nodes: phase1.nodes,
            phase1_pivots: phase1.pivots,
            phase2,
        })
    }

    /// Infallible scheduling with graceful degradation (the robustness
    /// path of DESIGN.md's failure model).
    ///
    /// Unlike [`LpvsScheduler::schedule_warm`], this never panics and
    /// never returns an error, whatever the input: the problem is
    /// loaded into columns **once**, by the loader that neutralizes
    /// corrupt telemetry (devices with NaN γ, negative energies,
    /// mismatched vectors are rejected and forced unselected; garbage
    /// capacities and λ collapse to safe values — see
    /// [`DeviceFleet::rebuild_from_problem`](crate::fleet::DeviceFleet::rebuild_from_problem)),
    /// then [`schedule_view`](Self::schedule_view) runs the fallback
    /// ladder over the loaded view.
    pub fn schedule_resilient(
        &self,
        problem: &SlotProblem,
        previous: Option<&[bool]>,
        budget: &SlotBudget,
    ) -> Schedule {
        let mut laps = Laps::start();
        with_problem_view(problem, |view| {
            laps.lap("sched.sanitize");
            self.resilient(view, previous, budget, laps, None).0
        })
    }

    /// [`schedule_resilient`](Self::schedule_resilient) for callers that
    /// already hold a fleet — the fleet entry the sharded scheduler, the
    /// slot runtime and the delta path call. Nothing is copied or
    /// loaded: the solve reads the view's columns in place. Infallible
    /// like the row entry; `previous` and the returned selection are
    /// positional (entry `k` is row `view.rows()[k]`).
    ///
    /// The fallback ladder runs until a rung produces a
    /// capacity-feasible selection within `budget`:
    ///
    /// 1. the configured solver (exact branch-and-bound by default),
    /// 2. greedy multi-knapsack,
    /// 3. the previous slot's selection, if still feasible,
    /// 4. no-transform passthrough (always feasible).
    ///
    /// The winning rung lands in [`ScheduleStats::degradation`] and
    /// the number of rejected devices (rows the fleet marks
    /// disconnected — see [`SlotView`]) in
    /// [`ScheduleStats::rejected_devices`]. The budget's node cap only
    /// ever tightens the configured node limit; the deadline is
    /// checked between rungs (a solver that started before the
    /// deadline expired is allowed to finish its bounded search).
    pub fn schedule_view(
        &self,
        view: SlotView<'_>,
        previous: Option<&[bool]>,
        budget: &SlotBudget,
    ) -> Schedule {
        self.schedule_view_accounted(view, previous, budget, None).0
    }

    /// [`schedule_view`](Self::schedule_view), and the score of the view
    /// its totals were folded from ([`Scores::fold`]), positional like
    /// the selection, for a caller that keeps or ships it instead of
    /// scoring a row again.
    ///
    /// `kept` is for a caller that keeps the view's score across solves
    /// of the same rows: `(score, dirty)`. When the score has as many
    /// positions as `view`, the solve re-scores only the positions
    /// `dirty` names and reads the rest from it — the caller's to prove
    /// that the score was taken of these rows under `view`'s λ and curve
    /// and that every other position's columns are unchanged. With `None`
    /// the solve scores every row.
    pub fn schedule_view_accounted(
        &self,
        view: SlotView<'_>,
        previous: Option<&[bool]>,
        budget: &SlotBudget,
        kept: Option<(Scores, &[usize])>,
    ) -> (Schedule, Scores) {
        self.resilient(view, previous, budget, Laps::start(), kept)
    }

    /// The degradation ladder over a view, on the clock the entry point
    /// started, so a row entry's load counts against the deadline and
    /// falls inside the run its laps mark.
    fn resilient(
        &self,
        view: SlotView<'_>,
        previous: Option<&[bool]>,
        budget: &SlotBudget,
        mut laps: Laps,
        kept: Option<(Scores, &[usize])>,
    ) -> (Schedule, Scores) {
        // The first rung tried takes the kept score; a later one scores
        // every row again.
        let (mut kept, dirty) = kept.unzip();
        let dirty = dirty.unwrap_or_default();
        let n = view.len();
        let valid: Vec<bool> = (0..n).map(|position| view.accepted(position)).collect();
        let rejected = valid.iter().filter(|&&ok| !ok).count();
        let node_limit = budget
            .solver_nodes
            .map_or(self.config.phase1.node_limit, |cap| {
                cap.clamp(1, self.config.phase1.node_limit.max(1))
            });
        let out_of_time = |laps: &Laps| match (budget.deadline_secs, laps.start) {
            (Some(d), Some(start)) => start.elapsed().as_secs_f64() >= d,
            _ => false,
        };

        // Solver rungs, starting from the configured solver so the
        // ladder never silently *upgrades* an ablation configuration (a
        // greedy-configured scheduler must not fall "up" to exact). A
        // budget's solver floor (the load-shedding knob) starts the walk
        // lower still, so a shed slot goes directly to the forced rung.
        let floor = budget.solver_floor.unwrap_or(Degradation::Exact);
        let first = floor.max(rung_of(self.config.phase1.solver));
        let mut work = SlotWork::default();
        for solver in [Phase1Solver::Exact, Phase1Solver::Greedy] {
            let rung = rung_of(solver);
            if rung < first {
                continue;
            }
            if out_of_time(&laps) {
                break;
            }
            let phase1 = Phase1Config { solver, node_limit, ..self.config.phase1 };
            // Defense in depth: a view is solver-safe by construction,
            // but a rung that panics anyway is a rung that failed, not
            // a dead slot.
            let kept = kept.take();
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                self.run_phases(&phase1, view, previous, (kept, dirty), &mut work, &mut laps)
            }));
            if let Ok(Ok(mut phases)) = attempt {
                for (x, &ok) in phases.selected.iter_mut().zip(&valid) {
                    *x = *x && ok;
                }
                if view.capacity_feasible(&phases.selected) {
                    return finish_resilient(view, phases, rung, rejected, laps, work);
                }
            }
        }

        // A rung no solver ran scores the view for its totals (the kept
        // score, if no solver rung took it); the walk is its accounting.
        let mut unsolved = |selected: Vec<bool>, work: &mut SlotWork| {
            let mut walked = SlotWork::default();
            let scores = phase1::score_view(view, kept.take(), dirty, &mut walked);
            walked.chunk_steps.account = std::mem::take(&mut walked.chunk_steps.score);
            *work += walked;
            Phases::unsolved(selected, scores)
        };

        // Reuse the previous slot's selection if it is still
        // feasible for today's (possibly browned-out) capacities — and
        // the floor permits it (a Passthrough floor sheds even reuse).
        if let Some(previous) = previous.filter(|_| floor <= Degradation::ReusedPrevious) {
            if previous.len() == n {
                let reused: Vec<bool> =
                    previous.iter().zip(&valid).map(|(&x, &ok)| x && ok).collect();
                if view.capacity_feasible(&reused) && reused.iter().any(|&x| x) {
                    return finish_resilient(
                        view,
                        unsolved(reused, &mut work),
                        Degradation::ReusedPrevious,
                        rejected,
                        laps,
                        work,
                    );
                }
            }
        }

        // Passthrough. The empty selection satisfies every
        // capacity row, so this rung cannot fail.
        finish_resilient(
            view,
            unsolved(vec![false; n], &mut work),
            Degradation::Passthrough,
            rejected,
            laps,
            work,
        )
    }
}

/// What the two phases decided, the score they read and the work it
/// took, before the selection is totalled. The resilient path masks
/// rejected devices out of the selection first, so eq. 13 and the
/// energy sum are folded once, from the view's score, on the selection
/// that is returned.
struct Phases {
    selected: Vec<bool>,
    scores: Scores,
    infeasible_devices: usize,
    phase1_nodes: usize,
    phase1_pivots: usize,
    phase2: Phase2Stats,
}

impl Phases {
    /// A selection no solver produced (the reuse and passthrough rungs),
    /// with the score of the view.
    fn unsolved(selected: Vec<bool>, scores: Scores) -> Self {
        Self {
            selected,
            scores,
            infeasible_devices: 0,
            phase1_nodes: 0,
            phase1_pivots: 0,
            phase2: Phase2Stats::default(),
        }
    }

    /// Folds the selection's totals from the score (the last lap) and
    /// stamps the outcome; the score rides along for whoever keeps it.
    fn into_schedule(
        self,
        view: SlotView<'_>,
        rung: Degradation,
        rejected: usize,
        work: SlotWork,
        mut laps: Laps,
    ) -> (Schedule, Scores) {
        let (objective, energy_saved_j) = self.scores.fold(&self.selected);
        debug_assert_eq!(
            (objective.to_bits(), energy_saved_j.to_bits()),
            {
                let saving = |(&x, &i): (&bool, &usize)| if x { view.fleet().saving_j(i) } else { 0.0 };
                let saved: f64 = self.selected.iter().zip(view.rows()).map(saving).sum();
                (view.objective_value(&self.selected).to_bits(), saved.to_bits())
            },
            "the score's totals diverged from evaluating every row"
        );
        laps.lap("sched.account");
        let stats = ScheduleStats {
            objective,
            energy_saved_j,
            infeasible_devices: self.infeasible_devices,
            phase1_nodes: self.phase1_nodes,
            phase1_pivots: self.phase1_pivots,
            phase2: self.phase2,
            degradation: rung,
            rejected_devices: rejected,
            runtime: laps.total(),
        };
        (Schedule { selected: self.selected, stats, work, laps }, self.scores)
    }
}

/// Computes the final-selection metrics on the view, stamps the ladder
/// outcome into the stats, and marks every lap as one run of the ladder.
fn finish_resilient(
    view: SlotView<'_>,
    phases: Phases,
    rung: Degradation,
    rejected: usize,
    laps: Laps,
    work: SlotWork,
) -> (Schedule, Scores) {
    let (mut schedule, scores) = phases.into_schedule(view, rung, rejected, work, laps);
    schedule.laps.runs.push((0, schedule.laps.ends.len(), rung));
    (schedule, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::DeviceRequest;
    use lpvs_survey::curve::AnxietyCurve;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_problem(n: usize, capacity: f64, lambda: f64, seed: u64) -> SlotProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = SlotProblem::new(capacity, 1e9, lambda, AnxietyCurve::paper_shape());
        for _ in 0..n {
            let fraction: f64 = rng.gen_range(0.03..1.0);
            p.push(DeviceRequest::uniform(
                rng.gen_range(0.7..1.8),
                10.0,
                30,
                fraction * 55_440.0,
                55_440.0,
                rng.gen_range(0.13..0.49),
                rng.gen_range(0.4..2.3),
                rng.gen_range(0.05..0.2),
            ));
        }
        p
    }

    #[test]
    fn respects_capacity_on_random_instances() {
        for seed in 0..5 {
            let p = random_problem(60, 20.0, 1.0, seed);
            let s = LpvsScheduler::paper_default().schedule(&p).unwrap();
            assert!(p.capacity_feasible(&s.selected));
            assert!(s.num_selected() > 0);
        }
    }

    #[test]
    fn phase2_never_hurts_the_objective() {
        for seed in 0..5 {
            let p = random_problem(50, 15.0, 2.0, 100 + seed);
            let full = LpvsScheduler::paper_default().schedule(&p).unwrap();
            let p1 = LpvsScheduler::phase1_only().schedule(&p).unwrap();
            assert!(
                full.stats.objective <= p1.stats.objective + 1e-9,
                "seed {seed}: {} vs {}",
                full.stats.objective,
                p1.stats.objective
            );
        }
    }

    #[test]
    fn exact_saves_at_least_greedy_energy_when_lambda_zero() {
        for seed in 0..5 {
            let p = random_problem(40, 12.0, 0.0, 200 + seed);
            let exact = LpvsScheduler::phase1_only().schedule(&p).unwrap();
            let mut greedy_cfg = SchedulerConfig { enable_phase2: false, ..Default::default() };
            greedy_cfg.phase1.solver = Phase1Solver::Greedy;
            let greedy = LpvsScheduler::new(greedy_cfg).schedule(&p).unwrap();
            assert!(
                exact.stats.energy_saved_j >= greedy.stats.energy_saved_j - 1e-6,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_exhaustive_oracle_on_tiny_clusters() {
        // With λ > 0 the heuristic is not guaranteed optimal, but on
        // tiny instances it should land within a few percent of the
        // exhaustive optimum.
        for seed in 0..4 {
            let p = random_problem(8, 3.0, 1.0, 300 + seed);
            let heuristic = LpvsScheduler::paper_default().schedule(&p).unwrap();
            let mut best = f64::INFINITY;
            for mask in 0u32..(1 << 8) {
                let sel: Vec<bool> = (0..8).map(|i| mask & (1 << i) != 0).collect();
                if !p.capacity_feasible(&sel) {
                    continue;
                }
                // Skip selections violating energy feasibility.
                let ok = p
                    .requests
                    .iter()
                    .zip(&sel)
                    .all(|(r, &x)| !x || crate::compact::compact_device(r).transform_feasible);
                if !ok {
                    continue;
                }
                best = best.min(crate::objective::objective_value(&p, &sel));
            }
            let gap = (heuristic.stats.objective - best) / best.abs().max(1e-9);
            assert!(gap < 0.03, "seed {seed}: gap {gap}");
        }
    }

    #[test]
    fn warm_schedule_matches_cold_quality_and_reports_churn() {
        let p = random_problem(40, 12.0, 1.0, 77);
        let cold = LpvsScheduler::paper_default().schedule(&p).unwrap();
        let warm = LpvsScheduler::paper_default()
            .schedule_warm(&p, Some(&cold.selected))
            .unwrap();
        // Re-solving from the standing selection keeps the quality.
        assert!(warm.stats.objective <= cold.stats.objective + 1e-6);
        let churn = warm.churn_vs(&cold.selected).unwrap();
        assert!(churn <= 0.2, "excessive churn {churn}");
        // Length mismatch reports None.
        assert!(warm.churn_vs(&[true]).is_none());
    }

    #[test]
    fn churn_vs_rejects_length_mismatch_without_truncation() {
        let p = random_problem(10, 5.0, 1.0, 31);
        let s = LpvsScheduler::paper_default().schedule(&p).unwrap();
        // Shorter, longer, and empty previous selections all report
        // None rather than silently zipping over the common prefix.
        assert_eq!(s.churn_vs(&[false; 9]), None);
        assert_eq!(s.churn_vs(&[false; 11]), None);
        assert_eq!(s.churn_vs(&[]), None);
        // Equal lengths still report: identical selections churn 0.
        assert_eq!(s.churn_vs(&s.selected), Some(0.0));
        // An empty schedule has no churn to report either.
        let empty = Schedule { selected: vec![], stats: s.stats, ..Schedule::default() };
        assert_eq!(empty.churn_vs(&[]), None);
    }

    #[test]
    fn runtime_is_recorded() {
        let p = random_problem(30, 10.0, 1.0, 7);
        let s = LpvsScheduler::paper_default().schedule(&p).unwrap();
        assert!(s.stats.runtime > Duration::ZERO);
    }

    #[test]
    fn deterministic_given_the_problem() {
        let p = random_problem(40, 12.0, 1.0, 9);
        let a = LpvsScheduler::paper_default().schedule(&p).unwrap();
        let b = LpvsScheduler::paper_default().schedule(&p).unwrap();
        assert_eq!(a.selected, b.selected);
    }

    #[test]
    fn degradation_severity_orders_the_ladder() {
        for pair in Degradation::ALL.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert!(!Degradation::Exact.is_degraded());
        assert!(Degradation::Passthrough.is_degraded());
        assert_eq!(Degradation::ReusedPrevious.to_string(), "reused-previous");
    }

    #[test]
    fn resilient_matches_plain_on_clean_input() {
        let p = random_problem(40, 12.0, 1.0, 11);
        let plain = LpvsScheduler::paper_default().schedule(&p).unwrap();
        let resilient = LpvsScheduler::paper_default().schedule_resilient(
            &p,
            None,
            &SlotBudget::unbounded(),
        );
        assert_eq!(resilient.selected, plain.selected);
        assert_eq!(resilient.stats.degradation, Degradation::Exact);
        assert_eq!(resilient.stats.rejected_devices, 0);
    }

    #[test]
    fn resilient_rejects_corrupt_telemetry_without_panicking() {
        let mut p = random_problem(30, 12.0, 1.0, 13);
        p.requests[3].gamma = f64::NAN;
        p.requests[7].energy_j = -50.0;
        p.requests[11].power_rates_w[0] = f64::INFINITY;
        let s = LpvsScheduler::paper_default().schedule_resilient(
            &p,
            None,
            &SlotBudget::unbounded(),
        );
        assert!(!s.selected[3] && !s.selected[7] && !s.selected[11]);
        assert_eq!(s.stats.rejected_devices, 3);
        assert_eq!(s.stats.degradation, Degradation::Exact);
        assert!(p.capacity_feasible(&s.selected));
        assert!(s.num_selected() > 0, "healthy devices still get scheduled");
    }

    #[test]
    fn resilient_zero_deadline_walks_to_the_bottom_rungs() {
        let p = random_problem(20, 8.0, 1.0, 17);
        let budget = SlotBudget::unbounded().with_deadline_secs(0.0);
        // No previous selection: nothing to reuse, passthrough.
        let cold = LpvsScheduler::paper_default().schedule_resilient(&p, None, &budget);
        assert_eq!(cold.stats.degradation, Degradation::Passthrough);
        assert_eq!(cold.num_selected(), 0);
        // A standing feasible selection is reused verbatim.
        let standing = LpvsScheduler::paper_default().schedule(&p).unwrap().selected;
        let warm = LpvsScheduler::paper_default().schedule_resilient(
            &p,
            Some(&standing),
            &budget,
        );
        assert_eq!(warm.stats.degradation, Degradation::ReusedPrevious);
        assert_eq!(warm.selected, standing);
        assert!(warm.stats.energy_saved_j > 0.0);
    }

    #[test]
    fn resilient_solver_floor_sheds_expensive_rungs() {
        let p = random_problem(30, 10.0, 1.0, 29);
        for floor in Degradation::ALL {
            let budget = SlotBudget::unbounded().with_solver_floor(floor);
            let s = LpvsScheduler::paper_default().schedule_resilient(&p, None, &budget);
            assert!(
                s.stats.degradation >= floor,
                "floor {floor} produced tier {}",
                s.stats.degradation
            );
            assert!(p.capacity_feasible(&s.selected));
        }
        let standing = LpvsScheduler::paper_default().schedule(&p).unwrap().selected;
        // A ReusedPrevious floor reuses the standing selection verbatim
        // instead of solving.
        let reuse = LpvsScheduler::paper_default().schedule_resilient(
            &p,
            Some(&standing),
            &SlotBudget::unbounded().with_solver_floor(Degradation::ReusedPrevious),
        );
        assert_eq!(reuse.stats.degradation, Degradation::ReusedPrevious);
        assert_eq!(reuse.selected, standing);
        // A Passthrough floor sheds even the reuse rung.
        let shed = LpvsScheduler::paper_default().schedule_resilient(
            &p,
            Some(&standing),
            &SlotBudget::unbounded().with_solver_floor(Degradation::Passthrough),
        );
        assert_eq!(shed.stats.degradation, Degradation::Passthrough);
        assert_eq!(shed.num_selected(), 0);
    }

    #[test]
    fn resilient_reuse_masks_devices_that_went_corrupt() {
        let mut p = random_problem(20, 8.0, 1.0, 19);
        let standing = LpvsScheduler::paper_default().schedule(&p).unwrap().selected;
        let victim = standing.iter().position(|&x| x).unwrap();
        p.requests[victim].gamma = f64::NAN;
        let budget = SlotBudget::unbounded().with_deadline_secs(0.0);
        let s = LpvsScheduler::paper_default().schedule_resilient(&p, Some(&standing), &budget);
        assert_eq!(s.stats.degradation, Degradation::ReusedPrevious);
        assert!(!s.selected[victim]);
        assert_eq!(s.stats.rejected_devices, 1);
    }

    #[test]
    fn resilient_node_cut_keeps_feasibility() {
        let p = random_problem(60, 20.0, 1.0, 23);
        let budget = SlotBudget { solver_nodes: Some(1), ..SlotBudget::unbounded() };
        let s = LpvsScheduler::paper_default().schedule_resilient(&p, None, &budget);
        assert!(p.capacity_feasible(&s.selected));
        assert!(s.num_selected() > 0);
    }

    #[test]
    fn resilient_survives_fully_corrupt_slots() {
        // Every device corrupt, garbage capacities and λ: the slot
        // must still come back (empty) rather than panic.
        let mut p = random_problem(10, 5.0, 1.0, 29);
        for r in &mut p.requests {
            r.gamma = f64::NAN;
            r.energy_j = f64::NEG_INFINITY;
        }
        p.compute_capacity = f64::NAN;
        p.storage_capacity_gb = -3.0;
        p.lambda = f64::INFINITY;
        let s = LpvsScheduler::paper_default().schedule_resilient(
            &p,
            None,
            &SlotBudget::unbounded(),
        );
        assert_eq!(s.num_selected(), 0);
        assert_eq!(s.stats.rejected_devices, 10);
        assert!(s.stats.objective.is_finite());
    }

    #[test]
    fn resilient_handles_empty_problems() {
        let p = SlotProblem::new(1.0, 1.0, 1.0, AnxietyCurve::paper_shape());
        let s = LpvsScheduler::paper_default().schedule_resilient(
            &p,
            None,
            &SlotBudget::unbounded(),
        );
        assert!(s.selected.is_empty());
        assert_eq!(s.stats.degradation, Degradation::Exact);
    }
}
