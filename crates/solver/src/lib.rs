//! # lpvs-solver — optimization substrate for LPVS
//!
//! The LPVS paper solves its Phase-1 selection problem with an
//! off-the-shelf ILP solver (CPLEX / Gurobi / CVX). None of those are
//! available as offline Rust dependencies, so this crate implements the
//! required machinery from scratch:
//!
//! * [`simplex`] — a dense, two-phase, **bounded-variable** primal
//!   simplex for linear programs `min cᵀx  s.t.  Ax {≤,=,≥} b,
//!   l ≤ x ≤ u`. Variable bounds are handled implicitly (no explicit
//!   bound rows), which keeps the tableau at `m × (n + m)` and lets the
//!   branch-and-bound layer scale to the five-thousand-device clusters
//!   of the paper's Fig. 10.
//! * [`ilp`] — exact 0/1 integer programming via depth-first
//!   branch-and-bound over the LP relaxation, with greedy rounding for
//!   the initial incumbent and most-fractional branching.
//! * [`relax`] — the LP relaxation of knapsack-shaped programs (at most
//!   two `≤` rows, the Phase-1 shape) from density orders instead of a
//!   tableau: O(n) per node, which is what the branch-and-bound bounds
//!   with; the simplex serves every other shape.
//! * [`knapsack`] — greedy and dynamic-programming knapsack heuristics
//!   used both as ablation baselines and to seed the B&B incumbent.
//! * [`lagrangian`] — subgradient ascent on the Lagrangian dual of the
//!   multi-knapsack, yielding a certified (bound, incumbent) pair in
//!   linear time per iteration. The scheduler does not call it; the
//!   end-to-end benchmark still times it.
//! * [`problem`] — a validated builder for 0/1 programs shared by the
//!   exact and heuristic paths.
//!
//! # Example
//!
//! Select items maximizing value under two capacity rows (the exact
//! shape of LPVS Phase-1):
//!
//! ```
//! use lpvs_solver::{BinaryProgram, Relation, Sense};
//!
//! # fn main() -> Result<(), lpvs_solver::SolverError> {
//! let mut p = BinaryProgram::new(Sense::Maximize, vec![6.0, 5.0, 4.0])?;
//! p.add_constraint(vec![2.0, 1.0, 3.0], Relation::Le, 3.0)?;
//! p.add_constraint(vec![1.0, 2.0, 1.0], Relation::Le, 3.0)?;
//! let sol = p.solve()?;
//! assert_eq!(sol.selected(), vec![0, 1]);
//! assert!((sol.objective - 11.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ilp;
pub mod knapsack;
pub mod lagrangian;
pub mod problem;
pub mod relax;
mod select;
pub mod simplex;

pub use ilp::{BranchBound, IlpStats};
pub use knapsack::{dp_knapsack, greedy_multi_knapsack, GreedyOutcome};
pub use lagrangian::{lagrangian_knapsack, LagrangianSolution};
pub use problem::{BinaryProgram, BinarySolution, Relation, Sense};
pub use relax::{KnapsackRelaxation, RelaxedKnapsack};
pub use simplex::{LinearProgram, LpSolution, LpStatus, Simplex};

use std::error::Error;
use std::fmt;

/// Errors produced by the solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// A constraint or objective had a coefficient vector whose length
    /// does not match the number of variables.
    DimensionMismatch {
        /// Number of variables the program was declared with.
        expected: usize,
        /// Length of the offending coefficient vector.
        got: usize,
    },
    /// A coefficient, bound, or right-hand side was NaN or infinite
    /// where a finite value is required.
    NotFinite {
        /// Human-readable location of the bad value.
        context: &'static str,
    },
    /// The linear program has no feasible solution.
    Infeasible,
    /// The linear program is unbounded in the optimization direction.
    Unbounded,
    /// The iteration or node budget was exhausted before proving
    /// optimality.
    BudgetExhausted {
        /// Budget that was exhausted (iterations or nodes).
        limit: usize,
    },
    /// A variable lower bound exceeds its upper bound.
    InvalidBounds {
        /// Index of the offending variable.
        var: usize,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} coefficients, got {got}")
            }
            SolverError::NotFinite { context } => {
                write!(f, "non-finite value in {context}")
            }
            SolverError::Infeasible => write!(f, "problem is infeasible"),
            SolverError::Unbounded => write!(f, "problem is unbounded"),
            SolverError::BudgetExhausted { limit } => {
                write!(f, "solver budget of {limit} exhausted before optimality")
            }
            SolverError::InvalidBounds { var } => {
                write!(f, "variable {var} has lower bound above its upper bound")
            }
        }
    }
}

impl Error for SolverError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_lowercase_and_concise() {
        let e = SolverError::Infeasible;
        let s = e.to_string();
        assert!(s.starts_with("problem"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<SolverError>();
        assert_sync::<SolverError>();
    }
}
