//! Lagrangian relaxation for multi-knapsack 0/1 programs.
//!
//! Dualizing the capacity rows with multipliers `μ ≥ 0` decomposes the
//! problem per item:
//!
//! ```text
//! L(μ) = Σ_i max(0, v_i − Σ_r μ_r·a_ri) + Σ_r μ_r·b_r
//! ```
//!
//! `L(μ)` upper-bounds the integer optimum for every `μ`; projected
//! subgradient descent tightens it, and each dual iterate's primal
//! point is repaired into a feasible solution, so the method returns a
//! certified (bound, incumbent) pair. On LPVS Phase-1 instances this
//! gives near-optimal selections in strictly linear time per iteration
//! — the third solver path of the `ablation_solver` study, between the
//! exact B&B and the one-shot greedy.

use crate::knapsack::greedy_multi_knapsack;
use crate::problem::{BinaryProgram, Relation, Sense};
use crate::SolverError;
use serde::{Deserialize, Serialize};

/// Result of a Lagrangian run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LagrangianSolution {
    /// Best feasible point found.
    pub x: Vec<bool>,
    /// Its objective (caller orientation).
    pub objective: f64,
    /// Best (smallest) dual upper bound on the maximization optimum.
    pub upper_bound: f64,
    /// Relative duality gap `(upper − objective) / max(|upper|, ε)`.
    pub gap: f64,
    /// Subgradient iterations performed.
    pub iterations: usize,
}

/// Solves a maximization multi-knapsack via subgradient ascent on the
/// Lagrangian dual, with greedy repair for primal feasibility.
///
/// # Errors
///
/// Returns [`SolverError::NotFinite`] on a minimization program or one
/// containing non-`≤` rows — the decomposition above only applies to
/// the maximize/`≤` shape (LPVS Phase-1).
pub fn lagrangian_knapsack(
    program: &BinaryProgram,
    max_iterations: usize,
) -> Result<LagrangianSolution, SolverError> {
    if program.sense() != Sense::Maximize
        || program.rows().iter().any(|r| r.relation != Relation::Le)
    {
        return Err(SolverError::NotFinite { context: "lagrangian requires max/≤ shape" });
    }
    let n = program.num_vars();
    let m = program.rows().len();
    let values = program.objective();
    let fixings = program.fixings();

    // Incumbent from plain greedy.
    let rows: Vec<(&[f64], f64)> =
        program.rows().iter().map(|r| (r.coeffs.as_slice(), r.rhs)).collect();
    let clipped: Vec<f64> = values.iter().map(|v| v.max(0.0)).collect();
    let seed = greedy_multi_knapsack(&clipped, &rows, fixings);
    let mut best_x = seed.x;
    let mut best_value = if program.is_feasible(&best_x) {
        program.objective_at(&best_x)
    } else {
        best_x = vec![false; n];
        0.0
    };

    let mut mu = vec![0.0f64; m];
    let mut best_bound = f64::INFINITY;
    let mut step_scale = 2.0;
    let mut stall = 0usize;
    let mut iterations = 0usize;

    for _ in 0..max_iterations {
        iterations += 1;

        // Solve the relaxed problem: take item i iff its reduced value
        // is positive (respecting fixings).
        let mut relaxed_value = 0.0;
        let mut x = vec![false; n];
        for i in 0..n {
            let reduced: f64 = values[i]
                - program.rows().iter().zip(&mu).map(|(r, &u)| u * r.coeffs[i]).sum::<f64>();
            let take = match fixings[i] {
                Some(v) => v,
                None => reduced > 0.0,
            };
            if take {
                x[i] = true;
                relaxed_value += reduced;
            }
        }
        let bound: f64 =
            relaxed_value + program.rows().iter().zip(&mu).map(|(r, &u)| u * r.rhs).sum::<f64>();
        if bound < best_bound - 1e-12 {
            best_bound = bound;
            stall = 0;
        } else {
            stall += 1;
            if stall >= 10 {
                step_scale *= 0.5;
                stall = 0;
            }
        }

        // Repair the relaxed point: drop items greedily until feasible
        // (cheapest value per unit of worst violation first).
        let repaired = repair(program, x);
        let value = program.objective_at(&repaired);
        if value > best_value && program.is_feasible(&repaired) {
            best_value = value;
            best_x = repaired;
        }

        // Subgradient: row violations at the (unrepaired) relaxed point.
        let gap = best_bound - best_value;
        if gap <= 1e-9 * best_bound.abs().max(1.0) || step_scale < 1e-8 {
            break;
        }
        let mut g = vec![0.0f64; m];
        let mut gnorm2 = 0.0;
        for (r, grad) in program.rows().iter().zip(&mut g) {
            let lhs: f64 = r
                .coeffs
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let take = match fixings[i] {
                        Some(v) => v,
                        None => values[i]
                            - program
                                .rows()
                                .iter()
                                .zip(&mu)
                                .map(|(rr, &u)| u * rr.coeffs[i])
                                .sum::<f64>()
                            > 0.0,
                    };
                    if take {
                        *c
                    } else {
                        0.0
                    }
                })
                .sum();
            *grad = lhs - r.rhs;
            gnorm2 += *grad * *grad;
        }
        if gnorm2 <= 1e-18 {
            break; // relaxed point already feasible: bound is tight
        }
        let step = step_scale * gap.max(1e-9) / gnorm2;
        for (u, grad) in mu.iter_mut().zip(&g) {
            *u = (*u + step * grad).max(0.0);
        }
    }

    let gap = (best_bound - best_value) / best_bound.abs().max(1e-9);
    Ok(LagrangianSolution {
        x: best_x,
        objective: best_value,
        upper_bound: best_bound,
        gap: gap.max(0.0),
        iterations,
    })
}

/// Greedy repair: while any row is violated, drop the selected free
/// item with the lowest value per unit of aggregate violation relief
/// (relief = its weight in the currently violated rows), ties to the
/// lowest index.
///
/// An item's score only changes when the *set* of violated rows does,
/// so the droppable items are sorted once per set and dropped in that
/// order; on non-negative rows a set is left for good once a row is
/// satisfied, which bounds the sorts by the row count.
fn repair(program: &BinaryProgram, mut x: Vec<bool>) -> Vec<bool> {
    let rows = program.rows();
    let mut usage: Vec<RowUsage> = rows.iter().map(|r| RowUsage::of(&r.coeffs, &x)).collect();
    let mut violated = vec![false; rows.len()];
    // Droppable items by ascending score under `sorted_for`'s rows.
    let mut order: Vec<(f64, usize)> = Vec::new();
    let mut sorted_for: Option<Vec<bool>> = None;
    let mut next = 0;
    loop {
        let mut feasible = true;
        for ((u, row), v) in usage.iter_mut().zip(rows).zip(&mut violated) {
            let excess = u.excess(&row.coeffs, row.rhs, &x);
            feasible &= excess <= 1e-9;
            *v = excess > 0.0;
        }
        if feasible {
            return x;
        }
        if sorted_for.as_ref() != Some(&violated) {
            order.clear();
            for i in (0..x.len()).filter(|&i| x[i] && program.fixings()[i] != Some(true)) {
                let relief: f64 = rows
                    .iter()
                    .zip(&violated)
                    .map(|(r, &v)| if v { r.coeffs[i].max(0.0) } else { 0.0 })
                    .sum();
                if relief > 0.0 {
                    order.push((program.objective()[i] / relief, i));
                }
            }
            order.sort_unstable_by(|a, b| {
                a.0.partial_cmp(&b.0).expect("finite value over positive relief").then(a.1.cmp(&b.1))
            });
            sorted_for = Some(violated.clone());
            next = 0;
        }
        let Some(&(_, victim)) = order.get(next) else {
            return x; // nothing droppable: give up as-is
        };
        next += 1;
        x[victim] = false;
        for (u, row) in usage.iter_mut().zip(rows) {
            u.drop_item(row.coeffs[victim]);
        }
    }
}

/// One row's left-hand side under a shrinking selection, kept in step
/// with the from-scratch sum `Σ coeffs[i]·x[i]` (index order) that the
/// violation tests are defined on: the running value is trusted while
/// it is farther from both thresholds than the worst rounding drift,
/// and re-summed otherwise, so every verdict equals the re-summed one.
struct RowUsage {
    running: f64,
    /// Whether `running` *is* the from-scratch sum.
    exact: bool,
    /// Bound on `|running − exact sum|` for any later selection.
    drift: f64,
}

impl RowUsage {
    fn sum(coeffs: &[f64], x: &[bool]) -> f64 {
        coeffs.iter().zip(x).map(|(c, &v)| if v { *c } else { 0.0 }).sum()
    }

    fn of(coeffs: &[f64], x: &[bool]) -> Self {
        let magnitude: f64 = coeffs.iter().zip(x).map(|(c, &v)| if v { c.abs() } else { 0.0 }).sum();
        // n roundings in the exact sum plus at most n in the running
        // one, each within ε of a partial sum no larger than `magnitude`.
        let drift = 4.0 * x.len() as f64 * f64::EPSILON * magnitude;
        Self { running: Self::sum(coeffs, x), exact: true, drift }
    }

    fn drop_item(&mut self, coeff: f64) {
        // Dropping a weightless item replaces a `+ 0.0` by a `+ 0.0`.
        if coeff != 0.0 {
            self.running -= coeff;
            self.exact = false;
        }
    }

    /// `max(0, lhs − rhs)` with the exact `lhs` wherever the verdicts
    /// (`> 0`, `≤ 1e-9`) could depend on it.
    fn excess(&mut self, coeffs: &[f64], rhs: f64, x: &[bool]) -> f64 {
        let over = self.running - rhs;
        if !self.exact && (over.abs() <= self.drift || (over - 1e-9).abs() <= self.drift) {
            self.running = Self::sum(coeffs, x);
            self.exact = true;
        }
        (self.running - rhs).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{BinaryProgram, Relation, Sense};

    fn instance() -> BinaryProgram {
        let values = vec![60.0, 100.0, 120.0, 40.0, 75.0];
        let w1 = vec![10.0, 20.0, 30.0, 5.0, 15.0];
        let w2 = vec![2.0, 3.0, 1.0, 4.0, 2.0];
        let mut p = BinaryProgram::new(Sense::Maximize, values).unwrap();
        p.add_constraint(w1, Relation::Le, 50.0).unwrap();
        p.add_constraint(w2, Relation::Le, 7.0).unwrap();
        p
    }

    /// The repair as first written — every item rescanned per drop, every
    /// row re-summed per drop — kept as the oracle for [`repair`].
    fn repair_rescanning(program: &BinaryProgram, mut x: Vec<bool>) -> Vec<bool> {
        loop {
            let violations: Vec<f64> = program
                .rows()
                .iter()
                .map(|r| {
                    let lhs: f64 = r
                        .coeffs
                        .iter()
                        .zip(&x)
                        .map(|(c, &v)| if v { *c } else { 0.0 })
                        .sum();
                    (lhs - r.rhs).max(0.0)
                })
                .collect();
            if violations.iter().all(|&v| v <= 1e-9) {
                return x;
            }
            let mut victim: Option<(usize, f64)> = None;
            for (i, &taken) in x.iter().enumerate() {
                if !taken || program.fixings()[i] == Some(true) {
                    continue;
                }
                let relief: f64 = program
                    .rows()
                    .iter()
                    .zip(&violations)
                    .map(|(r, &v)| if v > 0.0 { r.coeffs[i].max(0.0) } else { 0.0 })
                    .sum();
                if relief <= 0.0 {
                    continue;
                }
                let score = program.objective()[i] / relief;
                match victim {
                    Some((_, s)) if s <= score => {}
                    _ => victim = Some((i, score)),
                }
            }
            match victim {
                Some((i, _)) => x[i] = false,
                None => return x,
            }
        }
    }

    #[test]
    fn repair_matches_the_rescanning_oracle() {
        let mut state = 0x0dd_ba11_5eed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..200 {
            let n = 1 + (next() * 60.0) as usize;
            // Even cases draw from a handful of integers (equal scores,
            // rows met exactly, weightless items); odd ones from reals.
            let draw = |u: f64, lo: f64, hi: f64| {
                if case % 2 == 0 { (lo + u * (hi - lo)).floor() } else { lo + u * (hi - lo) }
            };
            let values: Vec<f64> = (0..n).map(|_| draw(next(), 1.0, 9.0)).collect();
            let mut p = BinaryProgram::new(Sense::Maximize, values).unwrap();
            for _ in 0..1 + case % 3 {
                // Every fifth case lets weights go negative, where a
                // satisfied row can become violated again.
                let lo = if case % 5 == 4 { -2.0 } else { 0.0 };
                let w: Vec<f64> = (0..n).map(|_| draw(next(), lo, 5.0)).collect();
                let cap = draw(next(), 0.0, 0.6 * w.iter().sum::<f64>().max(0.0));
                p.add_constraint(w, Relation::Le, cap).unwrap();
            }
            for i in 0..n {
                match (next() * 10.0) as usize {
                    0 => p.fix(i, true).unwrap(),
                    1 => p.fix(i, false).unwrap(),
                    _ => {}
                }
            }
            let start: Vec<bool> =
                (0..n).map(|i| p.fixings()[i].unwrap_or_else(|| next() < 0.8)).collect();
            assert_eq!(
                repair(&p, start.clone()),
                repair_rescanning(&p, start),
                "case {case}"
            );
        }
    }

    #[test]
    fn bound_sandwiches_the_optimum() {
        let p = instance();
        let exact = p.solve().unwrap().objective;
        let lag = lagrangian_knapsack(&p, 300).unwrap();
        assert!(lag.objective <= exact + 1e-9, "primal {} > optimum {exact}", lag.objective);
        assert!(lag.upper_bound >= exact - 1e-9, "bound {} < optimum {exact}", lag.upper_bound);
        assert!(p.is_feasible(&lag.x));
    }

    #[test]
    fn converges_to_small_gap() {
        let lag = lagrangian_knapsack(&instance(), 500).unwrap();
        assert!(lag.gap < 0.15, "duality gap {}", lag.gap);
    }

    #[test]
    fn respects_fixings() {
        let mut p = instance();
        p.fix(2, false).unwrap();
        p.fix(0, true).unwrap();
        let lag = lagrangian_knapsack(&p, 300).unwrap();
        assert!(!lag.x[2]);
        assert!(lag.x[0]);
        assert!(p.is_feasible(&lag.x));
    }

    #[test]
    fn tight_capacity_still_feasible() {
        let mut p = BinaryProgram::new(Sense::Maximize, vec![10.0, 10.0, 10.0]).unwrap();
        p.add_constraint(vec![5.0, 5.0, 5.0], Relation::Le, 5.0).unwrap();
        let lag = lagrangian_knapsack(&p, 200).unwrap();
        assert_eq!(lag.x.iter().filter(|&&v| v).count(), 1);
        assert!((lag.objective - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_selects_nothing() {
        let mut p = BinaryProgram::new(Sense::Maximize, vec![5.0]).unwrap();
        p.add_constraint(vec![1.0], Relation::Le, 0.0).unwrap();
        let lag = lagrangian_knapsack(&p, 100).unwrap();
        assert!(!lag.x[0]);
        assert_eq!(lag.objective, 0.0);
    }

    #[test]
    fn rejects_wrong_shape() {
        let mut p = BinaryProgram::new(Sense::Minimize, vec![1.0]).unwrap();
        p.add_constraint(vec![1.0], Relation::Le, 1.0).unwrap();
        assert!(lagrangian_knapsack(&p, 10).is_err());
        let mut p = BinaryProgram::new(Sense::Maximize, vec![1.0]).unwrap();
        p.add_constraint(vec![1.0], Relation::Ge, 0.0).unwrap();
        assert!(lagrangian_knapsack(&p, 10).is_err());
    }

    #[test]
    fn larger_pseudorandom_instance_certified() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 80;
        let values: Vec<f64> = (0..n).map(|_| 1.0 + 99.0 * next()).collect();
        let w1: Vec<f64> = (0..n).map(|_| 1.0 + 9.0 * next()).collect();
        let w2: Vec<f64> = (0..n).map(|_| 0.1 + 0.9 * next()).collect();
        let mut p = BinaryProgram::new(Sense::Maximize, values).unwrap();
        p.add_constraint(w1, Relation::Le, 100.0).unwrap();
        p.add_constraint(w2, Relation::Le, 12.0).unwrap();
        let exact = p.solve().unwrap().objective;
        let lag = lagrangian_knapsack(&p, 400).unwrap();
        assert!(lag.objective <= exact + 1e-6);
        assert!(lag.upper_bound >= exact - 1e-6);
        assert!(lag.objective >= 0.9 * exact, "primal {} vs {exact}", lag.objective);
    }
}
