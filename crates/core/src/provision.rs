//! Edge capacity provisioning: what is one more unit of edge server
//! worth?
//!
//! The paper fixes the server at "≈ 100 concurrent streams" and moves
//! on; an operator deciding *how much* edge hardware to deploy wants
//! the marginal value of capacity. The LP relaxation of Phase-1 prices
//! it exactly: the dual of the compute row is joules of display energy
//! saved per additional compute unit per slot, and the dual of the
//! storage row the same per gigabyte. Prices fall as capacity grows —
//! the point where they cross the cost of hardware is the right size.

use crate::compact::compact_device;
use crate::problem::SlotProblem;
use lpvs_solver::{BinaryProgram, KnapsackRelaxation, Relation, Sense, SolverError};
use serde::{Deserialize, Serialize};

/// Marginal values of the edge server's two capacity rows for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityPrices {
    /// Energy saved per additional compute unit (J per unit per slot).
    pub compute_j_per_unit: f64,
    /// Energy saved per additional storage gigabyte (J per GB per slot).
    pub storage_j_per_gb: f64,
    /// LP-relaxation bound on the slot's total energy saving (J).
    pub saving_bound_j: f64,
}

/// Prices the slot problem's capacity rows via the Phase-1 LP
/// relaxation — the same [`KnapsackRelaxation`] the branch-and-bound
/// bounds its nodes with: a row's price is the value density of the
/// item it runs out on (of the next item, if it is filled exactly).
///
/// # Errors
///
/// [`SolverError::NotFinite`] on non-finite savings, costs or
/// capacities, [`SolverError::Infeasible`] on negative costs or
/// capacities (not a knapsack).
///
/// # Example
///
/// ```
/// use lpvs_core::problem::{DeviceRequest, SlotProblem};
/// use lpvs_core::provision::price_capacity;
/// use lpvs_survey::curve::AnxietyCurve;
///
/// # fn main() -> Result<(), lpvs_solver::SolverError> {
/// let mut p = SlotProblem::new(1.0, 10.0, 1.0, AnxietyCurve::paper_shape());
/// p.push(DeviceRequest::uniform(1.2, 10.0, 30, 20_000.0, 55_440.0, 0.4, 1.0, 0.1));
/// p.push(DeviceRequest::uniform(1.2, 10.0, 30, 20_000.0, 55_440.0, 0.4, 1.0, 0.1));
/// // One unit serves one of two identical devices: the next unit is
/// // worth exactly one device's saving.
/// let prices = price_capacity(&p)?;
/// assert!((prices.compute_j_per_unit - 144.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn price_capacity(problem: &SlotProblem) -> Result<CapacityPrices, SolverError> {
    let n = problem.len();
    if n == 0 {
        return Ok(CapacityPrices {
            compute_j_per_unit: 0.0,
            storage_j_per_gb: 0.0,
            saving_bound_j: 0.0,
        });
    }
    let savings: Vec<f64> = problem.requests.iter().map(|r| r.saving_j()).collect();
    let mut program = BinaryProgram::new(Sense::Maximize, savings)?;
    program.add_constraint(
        problem.requests.iter().map(|r| r.compute_cost).collect(),
        Relation::Le,
        problem.compute_capacity,
    )?;
    program.add_constraint(
        problem.requests.iter().map(|r| r.storage_cost_gb).collect(),
        Relation::Le,
        problem.storage_capacity_gb,
    )?;
    for (i, r) in problem.requests.iter().enumerate() {
        if !compact_device(r).transform_feasible {
            program.fix(i, false)?;
        }
    }
    let relaxed = KnapsackRelaxation::of(&program)
        .ok_or(SolverError::Infeasible)?
        .solve(program.fixings())?;
    Ok(CapacityPrices {
        compute_j_per_unit: relaxed.duals[0],
        storage_j_per_gb: relaxed.duals[1],
        saving_bound_j: relaxed.objective,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::DeviceRequest;
    use lpvs_survey::curve::AnxietyCurve;

    fn device(gamma: f64, compute: f64) -> DeviceRequest {
        DeviceRequest::uniform(1.2, 10.0, 30, 20_000.0, 55_440.0, gamma, compute, 0.1)
    }

    fn problem(capacity: f64, n: usize) -> SlotProblem {
        let mut p = SlotProblem::new(capacity, 1e9, 1.0, AnxietyCurve::paper_shape());
        for i in 0..n {
            p.push(device(0.2 + 0.02 * (i % 10) as f64, 1.0));
        }
        p
    }

    #[test]
    fn scarce_capacity_is_expensive_ample_capacity_is_free() {
        let scarce = price_capacity(&problem(2.0, 20)).unwrap();
        let ample = price_capacity(&problem(100.0, 20)).unwrap();
        assert!(scarce.compute_j_per_unit > 10.0, "{:?}", scarce);
        assert!(ample.compute_j_per_unit.abs() < 1e-9, "{:?}", ample);
        assert!(ample.saving_bound_j > scarce.saving_bound_j);
    }

    #[test]
    fn prices_fall_monotonically_with_capacity() {
        let mut prev = f64::INFINITY;
        for cap in [2.0, 5.0, 10.0, 15.0, 25.0] {
            let p = price_capacity(&problem(cap, 20)).unwrap();
            assert!(
                p.compute_j_per_unit <= prev + 1e-9,
                "price rose at capacity {cap}"
            );
            prev = p.compute_j_per_unit;
        }
    }

    #[test]
    fn price_matches_finite_difference() {
        let base = price_capacity(&problem(7.0, 20)).unwrap();
        let bumped = price_capacity(&problem(7.5, 20)).unwrap();
        let fd = (bumped.saving_bound_j - base.saving_bound_j) / 0.5;
        assert!(
            (base.compute_j_per_unit - fd).abs() < 1e-6,
            "dual {} vs finite difference {fd}",
            base.compute_j_per_unit
        );
    }

    #[test]
    fn infeasible_devices_do_not_inflate_the_bound() {
        let mut p = problem(50.0, 3);
        // A dead device contributes nothing even with ample capacity.
        p.push(DeviceRequest::uniform(1.2, 10.0, 30, 1.0, 55_440.0, 0.4, 1.0, 0.1));
        let with_dead = price_capacity(&p).unwrap();
        let without = price_capacity(&problem(50.0, 3)).unwrap();
        assert!((with_dead.saving_bound_j - without.saving_bound_j).abs() < 1e-9);
    }

    /// The prices as the general simplex's row duals — how they were
    /// computed before the knapsack relaxation.
    fn simplex_prices(problem: &SlotProblem) -> CapacityPrices {
        use lpvs_solver::LinearProgram;
        let column = |f: fn(&DeviceRequest) -> f64| problem.requests.iter().map(f).collect();
        let mut lp = LinearProgram::maximize(column(|r| r.saving_j())).unwrap();
        lp.add_row(column(|r| r.compute_cost), Relation::Le, problem.compute_capacity).unwrap();
        lp.add_row(column(|r| r.storage_cost_gb), Relation::Le, problem.storage_capacity_gb)
            .unwrap();
        for (i, r) in problem.requests.iter().enumerate() {
            let upper = if compact_device(r).transform_feasible { 1.0 } else { 0.0 };
            lp.set_bounds(i, 0.0, upper).unwrap();
        }
        let sol = lp.solve().unwrap();
        CapacityPrices {
            compute_j_per_unit: sol.duals[0],
            storage_j_per_gb: sol.duals[1],
            saving_bound_j: sol.objective,
        }
    }

    #[test]
    fn prices_agree_with_the_simplex_duals() {
        let mut with_dead = problem(50.0, 3);
        with_dead.push(DeviceRequest::uniform(1.2, 10.0, 30, 1.0, 55_440.0, 0.4, 1.0, 0.1));
        let mut storage_bound = problem(100.0, 20);
        storage_bound.storage_capacity_gb = 0.75;
        let mut both_bound = problem(7.5, 20);
        both_bound.storage_capacity_gb = 0.5;
        for (i, r) in both_bound.requests.iter_mut().enumerate() {
            r.storage_cost_gb = 0.05 + 0.01 * (i % 7) as f64;
        }
        let capacities = [2.0, 5.0, 7.0, 7.5, 10.0, 15.0, 25.0, 100.0];
        let problems = capacities
            .iter()
            .map(|&c| problem(c, 20))
            .chain([with_dead, storage_bound, both_bound]);
        for p in problems {
            let (ours, theirs) = (price_capacity(&p).unwrap(), simplex_prices(&p));
            for (a, b) in [
                (ours.compute_j_per_unit, theirs.compute_j_per_unit),
                (ours.storage_j_per_gb, theirs.storage_j_per_gb),
                (ours.saving_bound_j, theirs.saving_bound_j),
            ] {
                assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{ours:?} vs {theirs:?}");
            }
        }
    }

    #[test]
    fn empty_problem_prices_zero() {
        let p = SlotProblem::new(1.0, 1.0, 1.0, AnxietyCurve::paper_shape());
        let prices = price_capacity(&p).unwrap();
        assert_eq!(prices.compute_j_per_unit, 0.0);
        assert_eq!(prices.saving_bound_j, 0.0);
    }
}
