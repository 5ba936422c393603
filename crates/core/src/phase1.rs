//! Phase-1: energy-saving maximization as a 0/1 ILP (paper §V-C).
//!
//! Dropping the nonlinear φ(·) term from the objective leaves a linear
//! integer program: maximize the total energy saved, subject to the two
//! capacity knapsacks (6)–(7), with devices failing the compacted
//! energy-feasibility constraint (11) fixed out. The paper hands this
//! to CPLEX/Gurobi; we hand it to [`lpvs_solver`]'s exact
//! branch-and-bound. The greedy multi-knapsack is the solver-path
//! ablation and the resilient scheduler's one fallback solver rung.
//!
//! Both solvers take the previous slot's selection as an advisory hint.
//! Rows that are no longer transform-feasible are dropped from it
//! first, and a hint of the wrong length is ignored. The exact solver
//! offers the cleaned hint as its incumbent; the greedy solver adopts it
//! only if it fits both capacity rows and saves strictly more than its
//! own selection. A hint therefore never makes a selection worse, and
//! never makes an infeasible selection possible.

use crate::fleet::{with_problem_view, SlotView};
use crate::kernels;
use crate::problem::SlotProblem;
use lpvs_solver::{BinaryProgram, Relation, Sense, SolverError};
use serde::{Deserialize, Serialize};

/// Which solver runs Phase-1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Phase1Solver {
    /// Exact branch-and-bound over the LP relaxation (the paper's
    /// off-the-shelf-ILP path).
    #[default]
    Exact,
    /// Greedy multi-knapsack by scaled density (ablation baseline).
    Greedy,
}

/// Phase-1 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase1Config {
    /// Solver choice.
    pub solver: Phase1Solver,
    /// Branch-and-bound node budget (exact solver only). On budget
    /// exhaustion the best incumbent is returned uncertified. The
    /// default of 128 keeps the worst-case slot runtime bounded (each
    /// node costs one pass over all devices) while measured solution
    /// loss stays below 0.1 % of the slot's savings.
    pub node_limit: usize,
    /// Relative optimality gap for the branch-and-bound (0 = exact).
    /// The default 10⁻³ — 0.1 % of the slot's energy savings, far below
    /// the γ observation noise — keeps the tree from enumerating ties
    /// between thousands of near-identical devices: on LPVS-shaped
    /// instances the greedy incumbent certifies within the gap at the
    /// root, which is what makes the Fig. 10 runtime effectively
    /// linear.
    pub relative_gap: f64,
}

impl Default for Phase1Config {
    fn default() -> Self {
        Self { solver: Phase1Solver::Exact, node_limit: 128, relative_gap: 1e-3 }
    }
}

/// Phase-1 output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase1Result {
    /// Transform decision per device.
    pub selected: Vec<bool>,
    /// Total energy saved by the selection (J).
    pub energy_saved_j: f64,
    /// Devices fixed out by the energy-feasibility constraint (11).
    pub infeasible_devices: usize,
    /// Branch-and-bound nodes expanded (0 for the greedy path).
    pub nodes: usize,
    /// *General-simplex* pivots across all LP relaxations; 0 for the
    /// greedy path. The exact path bounds Phase-1's two-row knapsack
    /// with `lpvs_solver::relax`, which pivots nothing, so it reports 0
    /// as well — `nodes` is its work counter.
    pub pivots: usize,
    /// Whether a supplied warm-start hint was actually adopted (exact
    /// path: the cleaned hint seeded the incumbent; greedy path: the
    /// hint replaced the greedy selection). Always `false` when no hint
    /// was offered.
    pub warm_start_used: bool,
}

/// Solves Phase-1 for the slot problem.
///
/// # Errors
///
/// Propagates solver errors ([`SolverError::BudgetExhausted`] when the
/// node budget runs out with no incumbent; the knapsack itself is
/// always feasible since the empty selection satisfies every row).
pub fn solve_phase1(
    problem: &SlotProblem,
    config: &Phase1Config,
) -> Result<Phase1Result, SolverError> {
    solve_phase1_warm(problem, config, None)
}

/// [`solve_phase1`] with a warm-start hint — typically the previous
/// slot's selection. A feasible hint seeds the branch-and-bound
/// incumbent, which both speeds certification and biases ties toward
/// the standing selection (fewer encoder restarts between slots).
///
/// A row adapter: loads the problem into columns once and solves the
/// view.
///
/// # Errors
///
/// As [`solve_phase1`].
pub fn solve_phase1_warm(
    problem: &SlotProblem,
    config: &Phase1Config,
    hint: Option<&[bool]>,
) -> Result<Phase1Result, SolverError> {
    with_problem_view(problem, |view| solve_view(view, config, hint))
}

/// Phase-1 over a view with the configured solver, warm-started from
/// `hint` (positional, like the view's rows; see the module docs for
/// the contract). An offered hint bumps
/// `delta_warm_start_{hit,miss}_total` once.
pub(crate) fn solve_view(
    view: SlotView<'_>,
    config: &Phase1Config,
    hint: Option<&[bool]>,
) -> Result<Phase1Result, SolverError> {
    if view.is_empty() {
        return Ok(Phase1Result {
            selected: Vec::new(),
            energy_saved_j: 0.0,
            infeasible_devices: 0,
            nodes: 0,
            pivots: 0,
            warm_start_used: false,
        });
    }
    let inputs = Compacted::gather(view);
    let cleaned = hint.filter(|h| h.len() == inputs.feasible.len()).map(|h| {
        h.iter().zip(&inputs.feasible).map(|(&x, &ok)| x && ok).collect::<Vec<bool>>()
    });
    let record_warm = |used: bool| match hint {
        Some(_) if used => lpvs_obs::inc("delta_warm_start_hit_total"),
        Some(_) => lpvs_obs::inc("delta_warm_start_miss_total"),
        None => {}
    };
    match config.solver {
        Phase1Solver::Exact => {
            let Compacted { savings, feasible, g, h, infeasible_devices } = inputs;
            let mut ilp = BinaryProgram::new(Sense::Maximize, savings)?;
            ilp.add_constraint(g, Relation::Le, view.compute_capacity())?;
            ilp.add_constraint(h, Relation::Le, view.storage_capacity_gb())?;
            for (i, &ok) in feasible.iter().enumerate() {
                if !ok {
                    ilp.fix(i, false)?;
                }
            }
            ilp.set_node_limit(config.node_limit);
            ilp.set_relative_gap(config.relative_gap);
            let mut search = lpvs_solver::BranchBound::new(&ilp);
            let warm_start_used = cleaned.is_some_and(|x| search.warm_start(x));
            record_warm(warm_start_used);
            let solution = search.solve()?;
            lpvs_obs::add("solver_orders_sorted_total", solution.stats.orders_sorted as u64);
            Ok(Phase1Result {
                energy_saved_j: solution.objective,
                nodes: solution.stats.nodes,
                pivots: solution.stats.simplex_iterations,
                selected: solution.x,
                infeasible_devices,
                warm_start_used,
            })
        }
        Phase1Solver::Greedy => {
            let fixings: Vec<Option<bool>> =
                inputs.feasible.iter().map(|&ok| (!ok).then_some(false)).collect();
            let rows = [
                (inputs.g.as_slice(), view.compute_capacity()),
                (inputs.h.as_slice(), view.storage_capacity_gb()),
            ];
            let mut selected =
                lpvs_solver::greedy_multi_knapsack(&inputs.savings, &rows, &fixings).x;
            let mut energy_saved_j = inputs.saved_j(&selected);
            let mut warm_start_used = false;
            if let Some(x) = cleaned.filter(|x| inputs.fits(view, x)) {
                let hint_saving = inputs.saved_j(&x);
                if hint_saving > energy_saved_j {
                    (selected, energy_saved_j, warm_start_used) = (x, hint_saving, true);
                }
            }
            record_warm(warm_start_used);
            Ok(Phase1Result {
                selected,
                energy_saved_j,
                infeasible_devices: inputs.infeasible_devices,
                nodes: 0,
                pivots: 0,
                warm_start_used,
            })
        }
    }
}

/// Per-device inputs of both solvers: savings coefficients,
/// energy-feasibility verdicts, and the two capacity rows. Gathered once
/// per solve via information compacting (paper §V-B), touching each
/// device's chunk table a single time.
struct Compacted {
    savings: Vec<f64>,
    feasible: Vec<bool>,
    g: Vec<f64>,
    h: Vec<f64>,
    infeasible_devices: usize,
}

impl Compacted {
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

    /// Sums the savings of a selection.
    fn saved_j(&self, selected: &[bool]) -> f64 {
        self.savings.iter().zip(selected).map(|(s, &x)| if x { *s } else { 0.0 }).sum()
    }

    /// Whether a selection fits both capacity rows.
    fn fits(&self, view: SlotView<'_>, x: &[bool]) -> bool {
        let used = |costs: &[f64]| -> f64 {
            costs.iter().zip(x).map(|(c, &v)| if v { *c } else { 0.0 }).sum()
        };
        used(&self.g) <= view.compute_capacity() && used(&self.h) <= view.storage_capacity_gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::DeviceRequest;
    use lpvs_survey::curve::AnxietyCurve;

    const SOLVERS: [Phase1Solver; 2] = [Phase1Solver::Exact, Phase1Solver::Greedy];

    fn device(watts: f64, gamma: f64, energy_j: f64) -> DeviceRequest {
        DeviceRequest::uniform(watts, 10.0, 30, energy_j, 55_440.0, gamma, 1.0, 0.1)
    }

    fn problem(capacity: f64) -> SlotProblem {
        let mut p = SlotProblem::new(capacity, 100.0, 1.0, AnxietyCurve::paper_shape());
        p.push(device(1.5, 0.40, 20_000.0)); // saving 180 J
        p.push(device(1.2, 0.30, 20_000.0)); // saving 108 J
        p.push(device(0.8, 0.20, 20_000.0)); // saving 48 J
        p
    }

    #[test]
    fn sufficient_capacity_selects_everyone() {
        let r = solve_phase1(&problem(10.0), &Phase1Config::default()).unwrap();
        assert_eq!(r.selected, vec![true, true, true]);
        assert!((r.energy_saved_j - 336.0).abs() < 1e-6);
        assert_eq!(r.infeasible_devices, 0);
    }

    #[test]
    fn tight_capacity_keeps_the_biggest_savers() {
        let r = solve_phase1(&problem(2.0), &Phase1Config::default()).unwrap();
        assert_eq!(r.selected, vec![true, true, false]);
        assert!((r.energy_saved_j - 288.0).abs() < 1e-6);
    }

    #[test]
    fn energy_infeasible_devices_are_fixed_out() {
        let mut p = problem(10.0);
        // A device that cannot even afford the transformed slot.
        p.push(device(1.5, 0.10, 100.0));
        let r = solve_phase1(&p, &Phase1Config::default()).unwrap();
        assert!(!r.selected[3]);
        assert_eq!(r.infeasible_devices, 1);
    }

    #[test]
    fn greedy_solver_agrees_on_easy_instances() {
        let exact = solve_phase1(&problem(2.0), &Phase1Config::default()).unwrap();
        let greedy = solve_phase1(
            &problem(2.0),
            &Phase1Config { solver: Phase1Solver::Greedy, ..Phase1Config::default() },
        )
        .unwrap();
        assert_eq!(exact.selected, greedy.selected);
        assert_eq!(greedy.nodes, 0);
    }

    #[test]
    fn exact_beats_greedy_on_a_trap() {
        // Greedy density picks the single dense device and blocks the
        // pair that together saves more.
        let mut p = SlotProblem::new(8.0, 100.0, 1.0, AnxietyCurve::paper_shape());
        let dev = |gamma: f64, compute: f64| {
            let mut d = device(1.0, gamma, 20_000.0);
            d.compute_cost = compute;
            d
        };
        p.push(dev(0.40, 5.0)); // saving 120, density 24
        p.push(dev(0.28, 4.0)); // saving 84, density 21
        p.push(dev(0.28, 4.0)); // saving 84, density 21
        let exact = solve_phase1(&p, &Phase1Config::default()).unwrap();
        let greedy = solve_phase1(
            &p,
            &Phase1Config { solver: Phase1Solver::Greedy, ..Phase1Config::default() },
        )
        .unwrap();
        assert!(exact.energy_saved_j > greedy.energy_saved_j);
        assert_eq!(exact.selected, vec![false, true, true]);
    }

    #[test]
    fn warm_start_hint_is_accepted_and_respected() {
        let p = problem(2.0);
        let cold = solve_phase1(&p, &Phase1Config::default()).unwrap();
        // A feasible hint must never worsen the result.
        let hinted = solve_phase1_warm(
            &p,
            &Phase1Config::default(),
            Some(&[false, true, true]),
        )
        .unwrap();
        assert!(hinted.energy_saved_j >= cold.energy_saved_j - 1e-9
            || (hinted.energy_saved_j - cold.energy_saved_j).abs()
                <= 1e-3 * cold.energy_saved_j.abs());
        assert!(hinted.warm_start_used, "feasible hint must engage the warm path");
        assert!(!cold.warm_start_used, "no hint offered, none used");
        // A malformed hint (wrong length) is ignored, not fatal.
        let odd = solve_phase1_warm(&p, &Phase1Config::default(), Some(&[true])).unwrap();
        assert_eq!(odd.selected.len(), 3);
        assert!(!odd.warm_start_used);
    }

    #[test]
    fn heuristic_tiers_engage_warm_starts() {
        let p = problem(2.0);
        let config = Phase1Config { solver: Phase1Solver::Greedy, ..Phase1Config::default() };
        let cold = solve_phase1(&p, &config).unwrap();
        // Hint with the known optimum {0, 1}: at least ties the
        // heuristic, so the selection never worsens.
        let hinted = solve_phase1_warm(&p, &config, Some(&[true, true, false])).unwrap();
        assert!(hinted.energy_saved_j >= cold.energy_saved_j - 1e-9);
        assert!(p.capacity_feasible(&hinted.selected));
        // An over-capacity hint is rejected and reported unused.
        let over = solve_phase1_warm(&p, &config, Some(&[true, true, true])).unwrap();
        assert!(!over.warm_start_used, "greedy adopted an infeasible hint");
        assert!(p.capacity_feasible(&over.selected));
        assert_eq!(over.selected, cold.selected);
    }

    #[test]
    fn solver_work_counters_are_reported() {
        let p = problem(2.0);
        let exact = solve_phase1(&p, &Phase1Config::default()).unwrap();
        assert!(exact.nodes > 0, "exact path must report its nodes");
        assert_eq!(exact.pivots, 0, "the knapsack relaxation never reaches the simplex");
        let greedy = solve_phase1(
            &p,
            &Phase1Config { solver: Phase1Solver::Greedy, ..Phase1Config::default() },
        )
        .unwrap();
        assert_eq!(greedy.pivots, 0);
    }

    #[test]
    fn empty_problem_is_trivial() {
        let p = SlotProblem::new(1.0, 1.0, 1.0, AnxietyCurve::paper_shape());
        for solver in SOLVERS {
            let config = Phase1Config { solver, ..Phase1Config::default() };
            let r = solve_phase1(&p, &config).unwrap();
            assert!(r.selected.is_empty(), "{solver:?}");
            assert_eq!(r.energy_saved_j, 0.0, "{solver:?}");
        }
    }

    #[test]
    fn selection_respects_capacity() {
        let p = problem(2.0);
        for solver in SOLVERS {
            let config = Phase1Config { solver, ..Phase1Config::default() };
            let r = solve_phase1(&p, &config).unwrap();
            assert!(p.capacity_feasible(&r.selected), "{solver:?} infeasible");
            assert!(r.energy_saved_j > 0.0, "{solver:?} saved nothing");
        }
    }
}
