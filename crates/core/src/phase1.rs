//! Phase-1: energy-saving maximization as a 0/1 ILP (paper §V-C).
//!
//! Dropping the nonlinear φ(·) term from the objective leaves a linear
//! integer program: maximize the total energy saved, subject to the two
//! capacity knapsacks (6)–(7), with devices failing the compacted
//! energy-feasibility constraint (11) fixed out. The paper hands this
//! to CPLEX/Gurobi; we hand it to [`lpvs_solver`]'s exact
//! branch-and-bound, with a greedy multi-knapsack fallback available
//! for the solver-path ablation.

use crate::backend::{backend_for, WarmStart};
use crate::fleet::with_problem_view;
use crate::problem::SlotProblem;
use lpvs_solver::SolverError;
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
    /// Lagrangian relaxation with subgradient ascent: near-optimal with
    /// a certified duality gap, strictly linear per iteration (the
    /// middle ground of the solver-path ablation).
    Lagrangian,
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
    /// Inner-iteration work: *general-simplex* pivots across all LP
    /// relaxations (exact path) or subgradient iterations (Lagrangian
    /// path); 0 for the greedy path. The exact path bounds Phase-1's
    /// two-row knapsack with `lpvs_solver::relax`, which pivots
    /// nothing, so it reports 0 as well — `nodes` is its work counter.
    pub pivots: usize,
    /// Whether a supplied warm-start hint was actually adopted (exact
    /// path: the cleaned hint seeded the incumbent; heuristic paths:
    /// the hint replaced the backend's own selection). Always `false`
    /// when no hint was offered.
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
/// A row adapter: loads the problem into columns once and dispatches to
/// the [`SolverBackend`](crate::backend::SolverBackend) implementing the
/// configured solver; see [`crate::backend`] for the individual
/// solution paths.
///
/// # Errors
///
/// As [`solve_phase1`].
pub fn solve_phase1_warm(
    problem: &SlotProblem,
    config: &Phase1Config,
    hint: Option<&[bool]>,
) -> Result<Phase1Result, SolverError> {
    let warm = hint.map(|selected| WarmStart { selected });
    with_problem_view(problem, |view| backend_for(config.solver).solve(view, config, warm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::DeviceRequest;
    use lpvs_survey::curve::AnxietyCurve;

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
    fn lagrangian_solver_is_feasible_and_competitive() {
        let p = problem(2.0);
        let exact = solve_phase1(&p, &Phase1Config::default()).unwrap();
        let lag = solve_phase1(
            &p,
            &Phase1Config { solver: Phase1Solver::Lagrangian, ..Phase1Config::default() },
        )
        .unwrap();
        assert!(p.capacity_feasible(&lag.selected));
        assert!(lag.energy_saved_j <= exact.energy_saved_j + 1e-6);
        assert!(lag.energy_saved_j >= 0.9 * exact.energy_saved_j, "{}", lag.energy_saved_j);
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
        for solver in [Phase1Solver::Lagrangian, Phase1Solver::Greedy] {
            let config = Phase1Config { solver, ..Phase1Config::default() };
            let cold = solve_phase1(&p, &config).unwrap();
            // Hint with the known optimum {0, 1}: at least ties the
            // heuristic, so the selection never worsens.
            let hinted =
                solve_phase1_warm(&p, &config, Some(&[true, true, false])).unwrap();
            assert!(hinted.energy_saved_j >= cold.energy_saved_j - 1e-9);
            assert!(p.capacity_feasible(&hinted.selected));
            // An over-capacity hint is rejected and reported unused.
            let over = solve_phase1_warm(&p, &config, Some(&[true, true, true])).unwrap();
            assert!(!over.warm_start_used, "{solver:?} adopted an infeasible hint");
            assert!(p.capacity_feasible(&over.selected));
            assert_eq!(over.selected, cold.selected);
        }
    }

    #[test]
    fn solver_work_counters_are_reported() {
        let p = problem(2.0);
        let exact = solve_phase1(&p, &Phase1Config::default()).unwrap();
        assert!(exact.nodes > 0, "exact path must report its nodes");
        assert_eq!(exact.pivots, 0, "the knapsack relaxation never reaches the simplex");
        let lag = solve_phase1(
            &p,
            &Phase1Config { solver: Phase1Solver::Lagrangian, ..Phase1Config::default() },
        )
        .unwrap();
        assert!(lag.pivots > 0, "Lagrangian path must report subgradient iterations");
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
        let r = solve_phase1(&p, &Phase1Config::default()).unwrap();
        assert!(r.selected.is_empty());
        assert_eq!(r.energy_saved_j, 0.0);
    }

    #[test]
    fn selection_respects_capacity() {
        let p = problem(2.0);
        let r = solve_phase1(&p, &Phase1Config::default()).unwrap();
        assert!(p.capacity_feasible(&r.selected));
    }
}
