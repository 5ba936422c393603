//! Pluggable Phase-1 solver backends.
//!
//! The scheduler's three solution paths — exact branch-and-bound,
//! Lagrangian relaxation, and the greedy multi-knapsack — used to be
//! hard-coded `match` arms inside `solve_phase1_warm` and an inlined
//! rung array in `schedule_resilient`. They are now first-class
//! implementations of [`SolverBackend`], so the graceful-degradation
//! ladder is a walk over `&[Box<dyn SolverBackend>]` and new backends
//! (e.g. an external MILP solver, or a learned policy) slot in without
//! touching the scheduler.
//!
//! A backend owns three responsibilities:
//!
//! * **solve** — produce a capacity-respecting selection for a
//!   [`SlotView`], honouring the node budget and optimality gap in
//!   [`Phase1Config`];
//! * **warm-start** — accept the previous slot's selection as a hint
//!   (backends that cannot use hints simply ignore them);
//! * **reporting** — return costs and the selection in a
//!   [`Phase1Result`] (nodes, inner-iteration work, energy saved) and
//!   name the [`Degradation`] rung it occupies on the ladder.

use crate::fleet::SlotView;
use crate::kernels;
use crate::phase1::{Phase1Config, Phase1Result, Phase1Solver};
use crate::scheduler::Degradation;
use lpvs_solver::{BinaryProgram, Relation, Sense, SolverError};

/// The previous slot's Phase-1 selection, offered to a backend as a
/// starting point.
///
/// Every ladder tier honours the same contract: the hint is advisory —
/// a backend first drops rows that are no longer transform-feasible,
/// then adopts the cleaned hint only if it is capacity-feasible and at
/// least ties the backend's own answer, and reports the outcome in
/// [`Phase1Result::warm_start_used`]. A hint of the wrong length is
/// ignored entirely. Hints therefore never make a selection worse, and
/// never make an infeasible selection possible.
#[derive(Debug, Clone, Copy)]
pub struct WarmStart<'a> {
    /// Per-device selection aligned with the view's row order.
    pub selected: &'a [bool],
}

/// A Phase-1 solver behind the scheduler's degradation ladder.
///
/// Implementations must be pure given their inputs: the scheduler's
/// determinism guarantee (same view → same schedule) rests on it.
pub trait SolverBackend: Send + Sync {
    /// Short stable name (used in telemetry and reports).
    fn name(&self) -> &'static str;

    /// The ladder rung this backend occupies.
    fn rung(&self) -> Degradation;

    /// Solves Phase-1 over `view`, optionally warm-started with the
    /// previous slot's selection (see [`WarmStart`] for the contract).
    ///
    /// # Errors
    ///
    /// Propagates [`SolverError`] (e.g. node-budget exhaustion with no
    /// incumbent); the problem itself is always feasible since the
    /// empty selection satisfies every capacity row.
    fn solve(
        &self,
        view: SlotView<'_>,
        config: &Phase1Config,
        warm: Option<WarmStart<'_>>,
    ) -> Result<Phase1Result, SolverError>;
}

/// Bumps the delta warm-start hit/miss counters for an offered hint.
fn record_warm_outcome(used: bool) {
    if used {
        lpvs_obs::inc("delta_warm_start_hit_total");
    } else {
        lpvs_obs::inc("delta_warm_start_miss_total");
    }
}

/// Per-device inputs shared by every backend: savings coefficients,
/// energy-feasibility verdicts, and the two capacity rows. Computed
/// once per solve via information compacting (paper §V-B), touching
/// each device's chunk table a single time.
struct CompactedInputs {
    savings: Vec<f64>,
    feasible: Vec<bool>,
    g: Vec<f64>,
    h: Vec<f64>,
    infeasible_devices: usize,
}

impl CompactedInputs {
    fn gather(view: SlotView<'_>) -> Self {
        let _span = lpvs_obs::span!("sched.compact", "devices" => view.len());
        // Candidate scoring is one pass of the batched columnar kernel
        // (savings + feasibility together) — bit-identical to the
        // per-row `saving_j` / `compact_device` oracles.
        let mut savings = Vec::new();
        let mut feasible = Vec::new();
        kernels::transform_savings_batch(&view.columns(), view.rows(), &mut feasible, &mut savings);
        let infeasible_devices = feasible.iter().filter(|&&f| !f).count();
        let (g, h) = (0..view.len()).map(|position| view.cost(position).into()).unzip();
        Self { savings, feasible, g, h, infeasible_devices }
    }

    /// Builds the 0/1 ILP over the capacity knapsacks with infeasible
    /// devices fixed out (shared by the exact and Lagrangian backends).
    fn to_program(&self, view: SlotView<'_>) -> Result<BinaryProgram, SolverError> {
        let mut ilp = BinaryProgram::new(Sense::Maximize, self.savings.clone())?;
        ilp.add_constraint(self.g.clone(), Relation::Le, view.compute_capacity())?;
        ilp.add_constraint(self.h.clone(), Relation::Le, view.storage_capacity_gb())?;
        for (i, &ok) in self.feasible.iter().enumerate() {
            if !ok {
                ilp.fix(i, false)?;
            }
        }
        Ok(ilp)
    }

    /// Sums the savings of a selection (for backends whose solver does
    /// not report an objective directly).
    fn energy_saved_j(&self, selected: &[bool]) -> f64 {
        self.savings
            .iter()
            .zip(selected)
            .map(|(s, &x)| if x { *s } else { 0.0 })
            .sum()
    }

    /// Masks out devices whose transform became energy-infeasible since
    /// the hint was computed. Returns `None` for a wrong-length hint.
    fn cleaned_hint(&self, hint: &[bool]) -> Option<Vec<bool>> {
        if hint.len() != self.feasible.len() {
            return None;
        }
        Some(hint.iter().zip(&self.feasible).map(|(&h, &f)| h && f).collect())
    }

    /// Whether a selection fits both capacity rows.
    fn fits(&self, view: SlotView<'_>, x: &[bool]) -> bool {
        let used = |costs: &[f64]| -> f64 {
            costs.iter().zip(x).map(|(c, &v)| if v { *c } else { 0.0 }).sum()
        };
        used(&self.g) <= view.compute_capacity() && used(&self.h) <= view.storage_capacity_gb()
    }
}

/// The empty-problem result every backend returns for zero devices.
fn empty_result() -> Phase1Result {
    Phase1Result {
        selected: Vec::new(),
        energy_saved_j: 0.0,
        infeasible_devices: 0,
        nodes: 0,
        pivots: 0,
        warm_start_used: false,
    }
}

/// Exact branch-and-bound over the LP relaxation (the paper's
/// off-the-shelf-ILP path).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactBackend;

impl SolverBackend for ExactBackend {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn rung(&self) -> Degradation {
        Degradation::Exact
    }

    fn solve(
        &self,
        view: SlotView<'_>,
        config: &Phase1Config,
        warm: Option<WarmStart<'_>>,
    ) -> Result<Phase1Result, SolverError> {
        if view.is_empty() {
            return Ok(empty_result());
        }
        let inputs = CompactedInputs::gather(view);
        let mut ilp = inputs.to_program(view)?;
        ilp.set_node_limit(config.node_limit);
        ilp.set_relative_gap(config.relative_gap);
        let mut search = lpvs_solver::BranchBound::new(&ilp);
        let mut warm_used = false;
        if let Some(w) = warm {
            // Clear decisions that became energy-infeasible since the
            // hint was computed, then offer it as the incumbent.
            if let Some(cleaned) = inputs.cleaned_hint(w.selected) {
                warm_used = search.warm_start(cleaned);
            }
            record_warm_outcome(warm_used);
        }
        let solution = search.solve()?;
        lpvs_obs::add("solver_orders_sorted_total", solution.stats.orders_sorted as u64);
        Ok(Phase1Result {
            energy_saved_j: solution.objective,
            nodes: solution.stats.nodes,
            pivots: solution.stats.simplex_iterations,
            selected: solution.x,
            infeasible_devices: inputs.infeasible_devices,
            warm_start_used: warm_used,
        })
    }
}

/// Lagrangian relaxation with subgradient ascent: near-optimal with a
/// certified duality gap, strictly linear per iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct LagrangianBackend;

/// Subgradient iterations of the Lagrangian backend (matches the
/// pre-refactor hard-coded value).
const LAGRANGIAN_ITERATIONS: usize = 200;

impl SolverBackend for LagrangianBackend {
    fn name(&self) -> &'static str {
        "lagrangian"
    }

    fn rung(&self) -> Degradation {
        Degradation::Lagrangian
    }

    fn solve(
        &self,
        view: SlotView<'_>,
        _config: &Phase1Config,
        warm: Option<WarmStart<'_>>,
    ) -> Result<Phase1Result, SolverError> {
        if view.is_empty() {
            return Ok(empty_result());
        }
        let inputs = CompactedInputs::gather(view);
        let ilp = inputs.to_program(view)?;
        let solution = lpvs_solver::lagrangian_knapsack(&ilp, LAGRANGIAN_ITERATIONS)?;
        let mut result = Phase1Result {
            energy_saved_j: inputs.energy_saved_j(&solution.x),
            infeasible_devices: inputs.infeasible_devices,
            nodes: 0,
            pivots: solution.iterations,
            selected: solution.x,
            warm_start_used: false,
        };
        adopt_hint_if_better(&mut result, &inputs, view, warm);
        Ok(result)
    }
}

/// Greedy multi-knapsack by scaled density (the ladder's cheapest
/// solver rung and the ablation baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyBackend;

impl SolverBackend for GreedyBackend {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn rung(&self) -> Degradation {
        Degradation::Greedy
    }

    fn solve(
        &self,
        view: SlotView<'_>,
        _config: &Phase1Config,
        warm: Option<WarmStart<'_>>,
    ) -> Result<Phase1Result, SolverError> {
        if view.is_empty() {
            return Ok(empty_result());
        }
        let inputs = CompactedInputs::gather(view);
        let fixings: Vec<Option<bool>> = inputs
            .feasible
            .iter()
            .map(|&ok| if ok { None } else { Some(false) })
            .collect();
        let rows: Vec<(&[f64], f64)> = vec![
            (inputs.g.as_slice(), view.compute_capacity()),
            (inputs.h.as_slice(), view.storage_capacity_gb()),
        ];
        let selected = lpvs_solver::greedy_multi_knapsack(&inputs.savings, &rows, &fixings).x;
        let mut result = Phase1Result {
            energy_saved_j: inputs.energy_saved_j(&selected),
            infeasible_devices: inputs.infeasible_devices,
            nodes: 0,
            pivots: 0,
            selected,
            warm_start_used: false,
        };
        adopt_hint_if_better(&mut result, &inputs, view, warm);
        Ok(result)
    }
}

/// Heuristic-tier warm-start adoption: the cleaned hint replaces the
/// backend's own selection only when it is capacity-feasible and saves
/// strictly more energy. Determinism is preserved — the outcome depends
/// only on (view, hint), never on timing.
fn adopt_hint_if_better(
    result: &mut Phase1Result,
    inputs: &CompactedInputs,
    view: SlotView<'_>,
    warm: Option<WarmStart<'_>>,
) {
    let Some(w) = warm else { return };
    let mut used = false;
    if let Some(cleaned) = inputs.cleaned_hint(w.selected) {
        if inputs.fits(view, &cleaned) {
            let hint_saving = inputs.energy_saved_j(&cleaned);
            if hint_saving > result.energy_saved_j {
                result.energy_saved_j = hint_saving;
                result.selected = cleaned;
                used = true;
            }
        }
    }
    result.warm_start_used = used;
    record_warm_outcome(used);
}

/// The backend implementing a configured [`Phase1Solver`] choice.
pub fn backend_for(solver: Phase1Solver) -> Box<dyn SolverBackend> {
    match solver {
        Phase1Solver::Exact => Box::new(ExactBackend),
        Phase1Solver::Lagrangian => Box::new(LagrangianBackend),
        Phase1Solver::Greedy => Box::new(GreedyBackend),
    }
}

/// All solver backends, best rung first: the solver section of the
/// graceful-degradation ladder.
pub fn solver_ladder() -> Vec<Box<dyn SolverBackend>> {
    vec![Box::new(ExactBackend), Box::new(LagrangianBackend), Box::new(GreedyBackend)]
}

/// The ladder starting from the configured solver, so the resilient
/// scheduler never silently *upgrades* an ablation configuration (a
/// greedy-configured scheduler must not fall "up" to exact).
pub fn ladder_from(solver: Phase1Solver) -> Vec<Box<dyn SolverBackend>> {
    let rung = backend_for(solver).rung();
    solver_ladder().into_iter().filter(|b| b.rung() >= rung).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::with_problem_view;
    use crate::problem::{DeviceRequest, SlotProblem};
    use lpvs_survey::curve::AnxietyCurve;

    fn problem(capacity: f64) -> SlotProblem {
        let mut p = SlotProblem::new(capacity, 100.0, 1.0, AnxietyCurve::paper_shape());
        for (gamma, watts) in [(0.40, 1.5), (0.30, 1.2), (0.20, 0.8)] {
            p.push(DeviceRequest::uniform(watts, 10.0, 30, 20_000.0, 55_440.0, gamma, 1.0, 0.1));
        }
        p
    }

    #[test]
    fn backends_report_their_rungs() {
        assert_eq!(ExactBackend.rung(), Degradation::Exact);
        assert_eq!(LagrangianBackend.rung(), Degradation::Lagrangian);
        assert_eq!(GreedyBackend.rung(), Degradation::Greedy);
        for solver in [Phase1Solver::Exact, Phase1Solver::Lagrangian, Phase1Solver::Greedy] {
            let b = backend_for(solver);
            assert!(!b.name().is_empty());
        }
    }

    #[test]
    fn ladder_starts_at_the_configured_solver() {
        let full = ladder_from(Phase1Solver::Exact);
        assert_eq!(full.len(), 3);
        assert_eq!(full[0].rung(), Degradation::Exact);
        let from_greedy = ladder_from(Phase1Solver::Greedy);
        assert_eq!(from_greedy.len(), 1);
        assert_eq!(from_greedy[0].rung(), Degradation::Greedy);
        let from_lagrangian = ladder_from(Phase1Solver::Lagrangian);
        assert_eq!(from_lagrangian.len(), 2);
        assert_eq!(from_lagrangian[0].rung(), Degradation::Lagrangian);
    }

    #[test]
    fn every_backend_solves_feasibly() {
        let p = problem(2.0);
        for backend in solver_ladder() {
            let config = Phase1Config::default();
            let r = with_problem_view(&p, |view| backend.solve(view, &config, None)).unwrap();
            assert!(p.capacity_feasible(&r.selected), "{} infeasible", backend.name());
            assert!(r.energy_saved_j > 0.0, "{} saved nothing", backend.name());
        }
    }

    #[test]
    fn backends_handle_empty_problems() {
        let p = SlotProblem::new(1.0, 1.0, 1.0, AnxietyCurve::paper_shape());
        for backend in solver_ladder() {
            let config = Phase1Config::default();
            let r = with_problem_view(&p, |view| backend.solve(view, &config, None)).unwrap();
            assert!(r.selected.is_empty());
        }
    }
}
