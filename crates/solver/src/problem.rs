//! Validated builder for 0/1 integer programs.
//!
//! [`BinaryProgram`] is the shared entry point for both the exact
//! branch-and-bound path ([`crate::ilp`]) and the heuristic knapsack
//! path ([`crate::knapsack`]). LPVS Phase-1 instances have exactly this
//! shape: one coefficient per device, a handful of capacity rows, and
//! per-device fixings for devices whose transform would violate the
//! energy-feasibility constraint (paper eq. 11).

use crate::ilp::{BranchBound, IlpStats};
use crate::SolverError;

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Relation of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `coeffs · x ≤ rhs`
    Le,
    /// `coeffs · x ≥ rhs`
    Ge,
    /// `coeffs · x = rhs`
    Eq,
}

impl std::fmt::Display for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Relation::Le => "<=",
            Relation::Ge => ">=",
            Relation::Eq => "=",
        })
    }
}

/// One linear constraint row of a [`BinaryProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowSpec {
    /// Coefficient per variable.
    pub coeffs: Vec<f64>,
    /// Constraint relation.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A 0/1 integer program `opt cᵀx  s.t.  Ax {≤,=,≥} b,  x ∈ {0,1}ⁿ`.
///
/// # Example
///
/// ```
/// use lpvs_solver::{BinaryProgram, Relation, Sense};
///
/// # fn main() -> Result<(), lpvs_solver::SolverError> {
/// let mut p = BinaryProgram::new(Sense::Maximize, vec![4.0, 3.0, 5.0])?;
/// p.add_constraint(vec![2.0, 1.0, 3.0], Relation::Le, 4.0)?;
/// p.fix(1, false)?; // device 1 fails the energy-feasibility check
/// let sol = p.solve()?;
/// assert!(!sol.x[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BinaryProgram {
    sense: Sense,
    objective: Vec<f64>,
    rows: Vec<RowSpec>,
    /// `Some(v)` if the variable is pre-fixed to `v`.
    fixings: Vec<Option<bool>>,
    node_limit: usize,
    relative_gap: f64,
}

/// Solution of a [`BinaryProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct BinarySolution {
    /// Chosen value per variable.
    pub x: Vec<bool>,
    /// Objective value in the caller's orientation.
    pub objective: f64,
    /// Search statistics of the branch-and-bound run.
    pub stats: IlpStats,
}

impl BinarySolution {
    /// Indices of the variables set to 1, in ascending order.
    pub fn selected(&self) -> Vec<usize> {
        self.x
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| v.then_some(i))
            .collect()
    }

    /// Number of variables set to 1.
    pub fn num_selected(&self) -> usize {
        self.x.iter().filter(|&&v| v).count()
    }
}

impl BinaryProgram {
    /// Creates a program over `objective.len()` binary variables.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotFinite`] if any objective coefficient
    /// is NaN or infinite.
    pub fn new(sense: Sense, objective: Vec<f64>) -> Result<Self, SolverError> {
        if objective.iter().any(|v| !v.is_finite()) {
            return Err(SolverError::NotFinite { context: "objective" });
        }
        let n = objective.len();
        Ok(Self {
            sense,
            objective,
            rows: Vec::new(),
            fixings: vec![None; n],
            node_limit: 100_000,
            relative_gap: 0.0,
        })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Objective coefficients as declared (maximization problems are not
    /// negated here).
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The objective coefficients as declared, handed back to a caller
    /// that lent them to the program for one solve.
    pub fn into_objective(self) -> Vec<f64> {
        self.objective
    }

    /// Optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Constraint rows added so far.
    pub fn rows(&self) -> &[RowSpec] {
        &self.rows
    }

    /// Current fixing of each variable (`None` = free).
    pub fn fixings(&self) -> &[Option<bool>] {
        &self.fixings
    }

    /// Adds the constraint `coeffs · x  relation  rhs`.
    ///
    /// # Errors
    ///
    /// * [`SolverError::DimensionMismatch`] if `coeffs` has the wrong length.
    /// * [`SolverError::NotFinite`] on NaN/infinite values.
    pub fn add_constraint(
        &mut self,
        coeffs: Vec<f64>,
        relation: Relation,
        rhs: f64,
    ) -> Result<(), SolverError> {
        if coeffs.len() != self.objective.len() {
            return Err(SolverError::DimensionMismatch {
                expected: self.objective.len(),
                got: coeffs.len(),
            });
        }
        if coeffs.iter().any(|v| !v.is_finite()) || !rhs.is_finite() {
            return Err(SolverError::NotFinite { context: "constraint row" });
        }
        self.rows.push(RowSpec { coeffs, relation, rhs });
        Ok(())
    }

    /// Pre-fixes variable `var` to `value`, shrinking the search space.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if `var` is out of
    /// range.
    pub fn fix(&mut self, var: usize, value: bool) -> Result<(), SolverError> {
        if var >= self.objective.len() {
            return Err(SolverError::DimensionMismatch {
                expected: self.objective.len(),
                got: var + 1,
            });
        }
        self.fixings[var] = Some(value);
        Ok(())
    }

    /// Overrides the branch-and-bound node budget (default 100,000),
    /// with a floor of one node: a limit of 0 sets 1, so the root is
    /// always bounded.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit.max(1);
    }

    /// Sets the relative optimality gap: the search stops refining once
    /// the incumbent is within `gap · |bound|` of the best bound
    /// (0 = prove exact optimality, the default). MIP solvers call
    /// this the MIP gap; on instances with thousands of near-identical
    /// items it collapses tie-enumeration subtrees.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite gap.
    pub fn set_relative_gap(&mut self, gap: f64) {
        assert!(gap.is_finite() && gap >= 0.0, "gap must be nonnegative");
        self.relative_gap = gap;
    }

    /// Current relative optimality gap.
    pub fn relative_gap(&self) -> f64 {
        self.relative_gap
    }

    /// Branch-and-bound node budget.
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// Solves to proven optimality with branch-and-bound.
    ///
    /// # Errors
    ///
    /// * [`SolverError::Infeasible`] if no binary point satisfies the rows.
    /// * [`SolverError::BudgetExhausted`] if the node budget runs out.
    pub fn solve(&self) -> Result<BinarySolution, SolverError> {
        BranchBound::new(self).solve()
    }

    /// True when every row is `≤` with nonnegative data: the
    /// multi-knapsack shape the rounding heuristics of [`crate::ilp`]
    /// and the relaxation of [`crate::relax`] assume.
    pub(crate) fn is_knapsack_shaped(&self) -> bool {
        self.rows.iter().all(|r| {
            r.relation == Relation::Le && r.coeffs.iter().all(|&c| c >= 0.0) && r.rhs >= 0.0
        })
    }

    /// Evaluates the objective at a binary point (caller orientation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the number of variables.
    pub fn objective_at(&self, x: &[bool]) -> f64 {
        assert_eq!(x.len(), self.objective.len(), "point has wrong dimension");
        self.objective
            .iter()
            .zip(x)
            .map(|(c, &v)| if v { *c } else { 0.0 })
            .sum()
    }

    /// Checks a binary point against all rows and fixings.
    pub fn is_feasible(&self, x: &[bool]) -> bool {
        if x.len() != self.objective.len() {
            return false;
        }
        for (i, fixing) in self.fixings.iter().enumerate() {
            if let Some(v) = fixing {
                if x[i] != *v {
                    return false;
                }
            }
        }
        const TOL: f64 = 1e-7;
        self.rows.iter().all(|row| {
            let lhs: f64 = row
                .coeffs
                .iter()
                .zip(x)
                .map(|(c, &v)| if v { *c } else { 0.0 })
                .sum();
            match row.relation {
                Relation::Le => lhs <= row.rhs + TOL,
                Relation::Ge => lhs >= row.rhs - TOL,
                Relation::Eq => (lhs - row.rhs).abs() <= TOL,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_dimensions() {
        let mut p = BinaryProgram::new(Sense::Maximize, vec![1.0, 2.0]).unwrap();
        assert!(p.add_constraint(vec![1.0], Relation::Le, 1.0).is_err());
        assert!(p.fix(5, true).is_err());
    }

    #[test]
    fn builder_rejects_nan() {
        assert!(BinaryProgram::new(Sense::Minimize, vec![f64::NAN]).is_err());
        let mut p = BinaryProgram::new(Sense::Minimize, vec![1.0]).unwrap();
        assert!(p.add_constraint(vec![1.0], Relation::Le, f64::INFINITY).is_err());
    }

    #[test]
    fn a_node_limit_has_a_floor_of_one() {
        let mut p = BinaryProgram::new(Sense::Maximize, vec![1.0]).unwrap();
        p.set_node_limit(0);
        assert_eq!(p.node_limit(), 1);
        p.set_node_limit(7);
        assert_eq!(p.node_limit(), 7);
    }

    #[test]
    fn objective_at_counts_selected() {
        let p = BinaryProgram::new(Sense::Maximize, vec![1.0, 2.0, 4.0]).unwrap();
        assert_eq!(p.objective_at(&[true, false, true]), 5.0);
    }

    #[test]
    fn feasibility_check_honours_fixings_and_rows() {
        let mut p = BinaryProgram::new(Sense::Maximize, vec![1.0, 1.0]).unwrap();
        p.add_constraint(vec![1.0, 1.0], Relation::Le, 1.0).unwrap();
        p.fix(0, true).unwrap();
        assert!(p.is_feasible(&[true, false]));
        assert!(!p.is_feasible(&[false, true])); // violates fixing
        assert!(!p.is_feasible(&[true, true])); // violates row
        assert!(!p.is_feasible(&[true])); // wrong dimension
    }

    #[test]
    fn selected_reports_indices() {
        let sol = BinarySolution {
            x: vec![true, false, true, false],
            objective: 0.0,
            stats: IlpStats::default(),
        };
        assert_eq!(sol.selected(), vec![0, 2]);
        assert_eq!(sol.num_selected(), 2);
    }
}
