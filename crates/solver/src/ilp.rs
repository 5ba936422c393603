//! Exact 0/1 integer programming via branch-and-bound.
//!
//! The search explores a depth-first tree over variable fixings. At
//! each node the LP relaxation is solved; the node is pruned when the
//! relaxation is infeasible or its bound cannot beat the incumbent.
//! Branching picks the most fractional variable. The initial incumbent
//! comes from the greedy pass of [`crate::knapsack`] so that pruning
//! starts working immediately — on LPVS Phase-1 instances (two knapsack
//! rows) the relaxation has at most two fractional variables and the
//! tree stays tiny even for the 5,000-device clusters of the paper's
//! Fig. 10.
//!
//! A knapsack-shaped root is first solved without sorting: the greedy
//! seed and the relaxation's bound are read off break items found by
//! selection, and a root whose bound then prunes it, beyond the
//! rounding that separates the selection's sums from the sorted walk's,
//! closes the search with the sorted walk's verdict. Otherwise the
//! scaled-density order is sorted once, for the rounding refills (and
//! for a seed the selection could not certify), and [`crate::relax`]
//! sorts a row's order the first time a node needs it;
//! [`IlpStats::keys_sorted`] counts every key sorted.
//!
//! Which relaxation solver a node gets is decided by the program's
//! shape alone: knapsack-shaped programs over at most two rows (the
//! Phase-1 shape) are bounded by [`crate::relax`] in O(n) per node;
//! every other program (`≥` / `=` rows, negative data, more rows)
//! builds a bounded-variable tableau for [`crate::simplex`].

use crate::knapsack::{
    density_order, free_density_order, greedy_by_selection, greedy_in_order, GreedyOutcome, Packed,
};
use crate::problem::{BinaryProgram, BinarySolution, Sense};
use crate::relax::KnapsackRelaxation;
use crate::simplex::LinearProgram;
use crate::SolverError;

/// Integrality tolerance: LP values within this of 0/1 count as integral.
const EPS_INT: f64 = 1e-6;
/// Bound-pruning tolerance.
const EPS_PRUNE: f64 = 1e-9;

/// Statistics of one branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IlpStats {
    /// LP relaxations solved (tree nodes expanded).
    pub nodes: usize,
    /// Pivots of the *general simplex* across all nodes. Nodes bounded
    /// by [`crate::relax`] pivot nothing, so this is 0 for every
    /// knapsack-shaped program over at most two rows.
    pub simplex_iterations: usize,
    /// Nodes pruned by the incumbent bound.
    pub pruned_by_bound: usize,
    /// Nodes pruned by LP infeasibility.
    pub pruned_infeasible: usize,
    /// Whether the greedy incumbent was already optimal.
    pub greedy_was_optimal: bool,
    /// True if the node budget ran out and the best incumbent was
    /// returned without an optimality certificate.
    pub hit_node_limit: bool,
    /// True if a caller-supplied [`BranchBound::warm_start`] hint was
    /// feasible and adopted as the incumbent at the time it was offered.
    pub warm_start_used: bool,
    /// Keys sorted, by every sort the solve ran: the shared density
    /// order, each row order the relaxation read, the bisection's inner
    /// orders and the greedy seed's tail. A root that closes on
    /// selected break items sorts only the seed's tail.
    pub keys_sorted: usize,
}

/// Branch-and-bound solver over a [`BinaryProgram`].
///
/// Most callers should use [`BinaryProgram::solve`]; this type is public
/// for callers that want run statistics or a custom warm start.
#[derive(Debug)]
pub struct BranchBound<'a> {
    program: &'a BinaryProgram,
    /// Minimization-form objective (maximization negated).
    cost: Vec<f64>,
    incumbent: Option<Vec<bool>>,
    /// Incumbent objective in minimization form.
    incumbent_cost: f64,
    stats: IlpStats,
    /// Value per variable (maximization form, clipped at 0) and the
    /// free profitable ones by descending scaled density, knapsack-shaped
    /// programs only, sorted when a greedy seed or a rounding refill
    /// first walks it — from the packed keys the seed's selection left.
    values: Vec<f64>,
    density_keys: Vec<Packed>,
    density_order: Option<Vec<usize>>,
}

/// One node: pairs of (variable, forced value) along the path from the
/// root, applied as LP bounds.
#[derive(Debug, Clone)]
struct Node {
    fixings: Vec<(usize, bool)>,
}

impl<'a> BranchBound<'a> {
    /// Prepares a solver for `program`.
    pub fn new(program: &'a BinaryProgram) -> Self {
        let cost: Vec<f64> = match program.sense() {
            Sense::Minimize => program.objective().to_vec(),
            Sense::Maximize => program.objective().iter().map(|c| -c).collect(),
        };
        Self {
            program,
            cost,
            incumbent: None,
            incumbent_cost: f64::INFINITY,
            stats: IlpStats::default(),
            values: Vec::new(),
            density_keys: Vec::new(),
            density_order: None,
        }
    }

    /// Supplies a warm-start point, adopted as the incumbent when it is
    /// feasible and beats the current one. Returns whether the hint was
    /// actually used — infeasible or non-improving hints are dropped,
    /// and callers (the delta scheduler's hit/miss accounting) need to
    /// know which. The outcome is also recorded in
    /// [`IlpStats::warm_start_used`].
    pub fn warm_start(&mut self, x: Vec<bool>) -> bool {
        if self.program.is_feasible(&x) {
            let cost = self.cost_at(&x);
            if cost < self.incumbent_cost {
                self.incumbent_cost = cost;
                self.incumbent = Some(x);
                self.stats.warm_start_used = true;
                return true;
            }
        }
        false
    }

    fn cost_at(&self, x: &[bool]) -> f64 {
        self.cost
            .iter()
            .zip(x)
            .map(|(c, &v)| if v { *c } else { 0.0 })
            .sum()
    }

    /// Runs the search to proven optimality.
    ///
    /// # Errors
    ///
    /// * [`SolverError::Infeasible`] if no binary point exists.
    /// * [`SolverError::BudgetExhausted`] if the node budget runs out
    ///   before the tree is exhausted.
    pub fn solve(mut self) -> Result<BinarySolution, SolverError> {
        let knapsack_shaped = self.program.is_knapsack_shaped();
        let relaxation = KnapsackRelaxation::of(self.program);
        // The root's bound off selected break items, in the buffer the
        // seed's selection then packs its keys into.
        let selected = relaxation
            .as_ref()
            .and_then(|knapsack| knapsack.select_solve(self.program.fixings(), &mut self.density_keys));
        if knapsack_shaped {
            self.seed_greedy_incumbent();
        }
        let greedy_cost = self.incumbent_cost;
        let closed = selected.is_some_and(|(objective, error)| self.closes_at_root(objective, error));
        let relaxed_keys = |relaxation: &Option<KnapsackRelaxation<'_>>| {
            relaxation.as_ref().map_or(0, KnapsackRelaxation::keys_sorted)
        };
        // A node's fixings over the program's own (knapsack path only).
        let mut fixings = vec![None; self.program.num_vars()];

        let mut stack = if closed { Vec::new() } else { vec![Node { fixings: Vec::new() }] };
        while let Some(node) = stack.pop() {
            if self.stats.nodes >= self.program.node_limit() {
                // Out of budget: hand back the best incumbent rather
                // than failing — callers treating the budget as a time
                // bound (the LPVS scheduler) still get a usable, if
                // uncertified, selection.
                if let Some(x) = self.incumbent.take() {
                    self.stats.keys_sorted += relaxed_keys(&relaxation);
                    let objective = self.program.objective_at(&x);
                    self.stats.hit_node_limit = true;
                    return Ok(BinarySolution { x, objective, stats: self.stats });
                }
                return Err(SolverError::BudgetExhausted {
                    limit: self.program.node_limit(),
                });
            }
            self.stats.nodes += 1;

            // Bound and LP point, both in minimization form.
            let relaxed = match &relaxation {
                Some(knapsack) => {
                    fixings.copy_from_slice(self.program.fixings());
                    for &(var, v) in &node.fixings {
                        fixings[var] = Some(v);
                    }
                    knapsack.solve(&fixings).map(|r| {
                        let bound = match self.program.sense() {
                            Sense::Minimize => r.objective,
                            Sense::Maximize => -r.objective,
                        };
                        (bound, r.x)
                    })
                }
                None => self.build_relaxation(&node)?.solve().map(|sol| {
                    self.stats.simplex_iterations += sol.iterations;
                    (sol.objective, sol.x)
                }),
            };
            let (bound, lp_x) = match relaxed {
                Ok(solved) => solved,
                Err(SolverError::Infeasible) => {
                    self.stats.pruned_infeasible += 1;
                    continue;
                }
                Err(other) => return Err(other),
            };

            if bound >= self.prune_threshold() {
                self.stats.pruned_by_bound += 1;
                continue;
            }

            // LP-rounding primal heuristic: round the relaxation down
            // and refill spare capacity by density. Any feasible point
            // of the *program* is a valid global incumbent, so node
            // fixings are deliberately ignored during the refill.
            if knapsack_shaped {
                self.try_rounding_incumbent(&lp_x);
            }

            match most_fractional(&lp_x) {
                None => {
                    // Integral relaxation: new incumbent.
                    let x: Vec<bool> = lp_x.iter().map(|&v| v > 0.5).collect();
                    let cost = self.cost_at(&x);
                    if cost < self.incumbent_cost {
                        self.incumbent_cost = cost;
                        self.incumbent = Some(x);
                    }
                }
                Some(branch_var) => {
                    // Explore the rounded-toward side first (DFS pushes
                    // it last so it pops first).
                    let toward_one = lp_x[branch_var] >= 0.5;
                    let mut far = node.fixings.clone();
                    far.push((branch_var, !toward_one));
                    stack.push(Node { fixings: far });
                    let mut near = node.fixings;
                    near.push((branch_var, toward_one));
                    stack.push(Node { fixings: near });
                }
            }
        }

        self.stats.keys_sorted += relaxed_keys(&relaxation);
        match self.incumbent {
            Some(x) => {
                let objective = self.program.objective_at(&x);
                self.stats.greedy_was_optimal =
                    (self.incumbent_cost - greedy_cost).abs() <= EPS_PRUNE
                        && greedy_cost.is_finite();
                Ok(BinarySolution { x, objective, stats: self.stats })
            }
            None => Err(SolverError::Infeasible),
        }
    }

    /// Rounds an LP point down to integrality and refills capacity by
    /// density; adopts the result if it beats the incumbent.
    fn try_rounding_incumbent(&mut self, lp_x: &[f64]) {
        let p = self.program;
        let x: Vec<bool> = lp_x.iter().map(|&v| v > 1.0 - 1e-6).collect();
        let residual: Vec<f64> = p
            .rows()
            .iter()
            .map(|row| {
                let used: f64 = row
                    .coeffs
                    .iter()
                    .zip(&x)
                    .map(|(c, &v)| if v { *c } else { 0.0 })
                    .sum();
                row.rhs - used
            })
            .collect();
        if residual.iter().any(|&r| r < -1e-9) {
            return; // numerically over capacity: skip
        }
        let mut rounded = GreedyOutcome { x, value: 0.0, residual };
        let rows = capacity_rows(p);
        let (order, values) = self.density_walk();
        rounded.refill(order, values, &rows, p.fixings());
        let x = rounded.x;
        let cost = self.cost_at(&x);
        if cost < self.incumbent_cost && p.is_feasible(&x) {
            self.incumbent_cost = cost;
            self.incumbent = Some(x);
        }
    }

    /// Seeds the root incumbent with the greedy pass over the density
    /// order — for the multi-knapsack shape (all rows `≤`, nonnegative
    /// data); any other search starts cold. The pass is found by
    /// selection ([`greedy_by_selection`]), sorting only its tail; when
    /// a decision of it is too close to call that way, the order is
    /// sorted and walked.
    fn seed_greedy_incumbent(&mut self) {
        let p = self.program;
        // Greedy maximizes value; in minimization form profitable
        // variables are those with negative cost.
        self.values = self.cost.iter().map(|c| (-c).max(0.0)).collect();
        let rows = capacity_rows(p);
        let x = match greedy_by_selection(&self.values, &rows, p.fixings(), &mut self.density_keys) {
            Some((x, tail)) => {
                self.stats.keys_sorted += tail;
                debug_assert_eq!(
                    x,
                    greedy_in_order(&density_order(&self.values, &rows), &self.values, &rows, p.fixings()).x,
                    "the selected greedy pass is the sorted one"
                );
                x
            }
            None => {
                let (order, values) = self.density_walk();
                greedy_in_order(order, values, &rows, p.fixings()).x
            }
        };
        if p.is_feasible(&x) {
            let cost = self.cost_at(&x);
            if cost < self.incumbent_cost {
                self.incumbent_cost = cost;
                self.incumbent = Some(x);
            }
        }
    }

    /// The free items by descending scaled density — sorted by the first
    /// call — and the values a walk of them takes.
    fn density_walk(&mut self) -> (&[usize], &[f64]) {
        let (p, values, keys) = (self.program, &self.values, &mut self.density_keys);
        let order = self.density_order.get_or_insert_with(|| {
            let order = free_density_order(values, &capacity_rows(p), p.fixings(), keys);
            self.stats.keys_sorted += order.len();
            order
        });
        (order, values)
    }

    /// The incumbent cost a node's bound must undercut to be explored.
    fn prune_threshold(&self) -> f64 {
        let tolerance = EPS_PRUNE + self.program.relative_gap() * self.incumbent_cost.abs();
        self.incumbent_cost - tolerance
    }

    /// Whether the root is pruned on the bound
    /// [`KnapsackRelaxation::select_solve`] reads off selected break
    /// items: only when the bound clears the threshold by more than how
    /// far the sorted solve's bound can lie from it, so the verdict is
    /// the sorted solve's. Counts the root node when it is.
    fn closes_at_root(&mut self, objective: f64, error: f64) -> bool {
        let p = self.program;
        let bound = match p.sense() {
            Sense::Minimize => objective,
            Sense::Maximize => -objective,
        };
        let threshold = self.prune_threshold();
        if bound - error < threshold {
            return false;
        }
        if cfg!(debug_assertions) {
            let sorted = KnapsackRelaxation::of(p).and_then(|k| k.solve(p.fixings()).ok());
            let sorted = sorted.expect("a selected root is a feasible one").objective;
            let sorted_bound = match p.sense() {
                Sense::Minimize => sorted,
                Sense::Maximize => -sorted,
            };
            debug_assert!(
                sorted_bound >= threshold && (sorted_bound - bound).abs() <= error,
                "the sorted root prunes too: {sorted_bound} vs selected {bound} ± {error}, threshold {threshold}"
            );
        }
        self.stats.nodes = 1;
        self.stats.pruned_by_bound = 1;
        true
    }

    /// Builds the general LP relaxation for a node: binary bounds
    /// `[0,1]` plus program-level and path-level fixings.
    fn build_relaxation(&self, node: &Node) -> Result<LinearProgram, SolverError> {
        let p = self.program;
        let mut lp = LinearProgram::minimize(self.cost.clone())?;
        for row in p.rows() {
            lp.add_row(row.coeffs.clone(), row.relation, row.rhs)?;
        }
        for var in 0..p.num_vars() {
            lp.set_bounds(var, 0.0, 1.0)?;
        }
        for (var, fixing) in p.fixings().iter().enumerate() {
            if let Some(v) = fixing {
                let b = if *v { 1.0 } else { 0.0 };
                lp.set_bounds(var, b, b)?;
            }
        }
        for &(var, v) in &node.fixings {
            let b = if v { 1.0 } else { 0.0 };
            lp.set_bounds(var, b, b)?;
        }
        Ok(lp)
    }
}

/// A knapsack-shaped program's rows as [`crate::knapsack`] takes them.
fn capacity_rows(p: &BinaryProgram) -> Vec<(&[f64], f64)> {
    p.rows().iter().map(|r| (r.coeffs.as_slice(), r.rhs)).collect()
}

/// Index of the variable farthest from integrality, if any.
fn most_fractional(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (j, &v) in x.iter().enumerate() {
        let frac = (v - v.round()).abs();
        if frac > EPS_INT {
            match best {
                Some((_, b)) if frac <= b => {}
                _ => best = Some((j, frac)),
            }
        }
    }
    best.map(|(j, _)| j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{BinaryProgram, Relation, Sense};

    fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> BinaryProgram {
        let mut p = BinaryProgram::new(Sense::Maximize, values.to_vec()).unwrap();
        p.add_constraint(weights.to_vec(), Relation::Le, cap).unwrap();
        p
    }

    #[test]
    fn small_knapsack_exact() {
        // Classic: values 60/100/120, weights 10/20/30, cap 50 → 220.
        let p = knapsack(&[60.0, 100.0, 120.0], &[10.0, 20.0, 30.0], 50.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 220.0).abs() < 1e-9);
        assert_eq!(sol.selected(), vec![1, 2]);
    }

    #[test]
    fn greedy_trap_requires_branching() {
        // Greedy by density picks item 0 (density 2.0), filling the sack
        // so neither other item fits; the optimum is {1, 2} = 14.
        let p = knapsack(&[10.0, 7.0, 7.0], &[5.0, 4.0, 4.0], 8.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 14.0).abs() < 1e-9);
        assert_eq!(sol.selected(), vec![1, 2]);
        assert!(!sol.stats.greedy_was_optimal);
    }

    #[test]
    fn two_capacity_rows() {
        let mut p = BinaryProgram::new(Sense::Maximize, vec![6.0, 5.0, 4.0, 3.0]).unwrap();
        p.add_constraint(vec![2.0, 1.0, 3.0, 2.0], Relation::Le, 4.0).unwrap();
        p.add_constraint(vec![1.0, 2.0, 1.0, 1.0], Relation::Le, 3.0).unwrap();
        let sol = p.solve().unwrap();
        assert!((sol.objective - 11.0).abs() < 1e-9, "objective {}", sol.objective);
        assert_eq!(sol.selected(), vec![0, 1]);
    }

    #[test]
    fn minimization_with_cover_constraint() {
        // min 3a + 2b + 4c s.t. a + b + c ≥ 2 → {a?, b, ...}: b+a=5 vs
        // b+c=6 vs a+c=7 → optimum a+b = 5.
        let mut p = BinaryProgram::new(Sense::Minimize, vec![3.0, 2.0, 4.0]).unwrap();
        p.add_constraint(vec![1.0, 1.0, 1.0], Relation::Ge, 2.0).unwrap();
        let sol = p.solve().unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-9);
        assert_eq!(sol.selected(), vec![0, 1]);
    }

    #[test]
    fn fixing_is_respected() {
        let mut p = knapsack(&[60.0, 100.0, 120.0], &[10.0, 20.0, 30.0], 50.0);
        p.fix(2, false).unwrap();
        let sol = p.solve().unwrap();
        assert!(!sol.x[2]);
        assert!((sol.objective - 160.0).abs() < 1e-9);
    }

    #[test]
    fn fixing_to_one_can_force_infeasibility() {
        let mut p = knapsack(&[10.0], &[5.0], 3.0);
        p.fix(0, true).unwrap();
        assert_eq!(p.solve().unwrap_err(), SolverError::Infeasible);
    }

    #[test]
    fn equality_cardinality_constraint() {
        // Exactly two of four items, maximize value.
        let mut p = BinaryProgram::new(Sense::Maximize, vec![5.0, 9.0, 2.0, 7.0]).unwrap();
        p.add_constraint(vec![1.0, 1.0, 1.0, 1.0], Relation::Eq, 2.0).unwrap();
        let sol = p.solve().unwrap();
        assert!((sol.objective - 16.0).abs() < 1e-9);
        assert_eq!(sol.selected(), vec![1, 3]);
    }

    #[test]
    fn empty_capacity_selects_nothing() {
        let p = knapsack(&[5.0, 7.0], &[1.0, 1.0], 0.0);
        let sol = p.solve().unwrap();
        assert_eq!(sol.num_selected(), 0);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn node_limit_reported() {
        // A 24-item instance with correlated weights forces branching;
        // a 1-node budget must be exhausted.
        let values: Vec<f64> = (0..24).map(|i| 10.0 + (i as f64 * 7.0) % 13.0).collect();
        let weights: Vec<f64> = (0..24).map(|i| 5.0 + (i as f64 * 3.0) % 11.0).collect();
        let mut p = knapsack(&values, &weights, 60.0);
        p.set_node_limit(1);
        let sol = p.solve().unwrap();
        // The budget allows a single node; the run returns the best
        // incumbent (flagged) instead of erroring.
        assert!(sol.stats.nodes <= 1);
        assert!(sol.stats.hit_node_limit || sol.stats.nodes <= 1);
        assert!(p.is_feasible(&sol.x));
    }

    #[test]
    fn agrees_with_exhaustive_enumeration() {
        // Deterministic pseudo-random instances, 12 vars, 2 rows, both
        // binding at the root relaxation: compare B&B against brute
        // force.
        let n = 12;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut both_bound = 0;
        for _ in 0..40 {
            let values: Vec<f64> = (0..n).map(|_| 1.0 + 9.0 * next()).collect();
            let w1: Vec<f64> = (0..n).map(|_| 1.0 + 4.0 * next()).collect();
            let w2: Vec<f64> = (0..n).map(|_| 1.0 + 4.0 * next()).collect();
            let (cap1, cap2) = (8.0 + 8.0 * next(), 8.0 + 8.0 * next());
            let mut p = BinaryProgram::new(Sense::Maximize, values.clone()).unwrap();
            p.add_constraint(w1.clone(), Relation::Le, cap1).unwrap();
            p.add_constraint(w2.clone(), Relation::Le, cap2).unwrap();
            let root = KnapsackRelaxation::of(&p).unwrap().solve(p.fixings()).unwrap();
            both_bound += usize::from(root.duals.iter().all(|&d| d > 0.0));
            let sol = p.solve().unwrap();
            assert_eq!(sol.stats.simplex_iterations, 0);

            let mut best = 0.0f64;
            for mask in 0u32..(1 << n) {
                let mut v = 0.0;
                let mut a = 0.0;
                let mut b = 0.0;
                for i in 0..n {
                    if mask & (1 << i) != 0 {
                        v += values[i];
                        a += w1[i];
                        b += w2[i];
                    }
                }
                if a <= cap1 && b <= cap2 {
                    best = best.max(v);
                }
            }
            assert!(
                (sol.objective - best).abs() < 1e-6,
                "b&b {} vs brute force {best}",
                sol.objective
            );
        }
        assert!(both_bound >= 10, "only {both_bound} instances had both rows binding");
    }

    #[test]
    fn the_simplex_runs_only_off_the_knapsack_shape() {
        // Both rows bind at the root (the relaxation prices both), the
        // tree branches, and no node builds a tableau.
        let mut p =
            BinaryProgram::new(Sense::Maximize, vec![6.0, 5.0, 4.0, 3.0, 7.0, 2.0]).unwrap();
        p.add_constraint(vec![2.0, 1.0, 3.0, 2.0, 4.0, 1.0], Relation::Le, 6.5).unwrap();
        p.add_constraint(vec![1.0, 2.0, 1.0, 1.0, 2.0, 3.0], Relation::Le, 4.5).unwrap();
        let root = KnapsackRelaxation::of(&p).unwrap().solve(p.fixings()).unwrap();
        assert!(root.duals.iter().all(|&d| d > 0.0), "{:?}", root.duals);
        let sol = p.solve().unwrap();
        assert!(sol.stats.nodes > 1);
        assert_eq!(sol.stats.simplex_iterations, 0);

        // A cover row and a cardinality row are not knapsacks.
        let mut ge = BinaryProgram::new(Sense::Minimize, vec![3.0, 2.0, 4.0]).unwrap();
        ge.add_constraint(vec![1.0, 1.0, 1.0], Relation::Ge, 2.0).unwrap();
        assert!(ge.solve().unwrap().stats.simplex_iterations > 0);
        let mut eq = BinaryProgram::new(Sense::Maximize, vec![5.0, 9.0, 2.0, 7.0]).unwrap();
        eq.add_constraint(vec![1.0, 1.0, 1.0, 1.0], Relation::Eq, 2.0).unwrap();
        assert!(eq.solve().unwrap().stats.simplex_iterations > 0);
    }

    #[test]
    fn stats_populated() {
        let p = knapsack(&[18.0, 16.0, 14.0], &[3.0, 4.0, 4.0], 8.0);
        let sol = p.solve().unwrap();
        assert!(sol.stats.nodes >= 1);
    }

    #[test]
    fn warm_start_reports_adoption() {
        let p = knapsack(&[60.0, 100.0, 120.0], &[10.0, 20.0, 30.0], 50.0);

        // Feasible hint offered against an empty incumbent: adopted.
        let mut bb = BranchBound::new(&p);
        assert!(bb.warm_start(vec![true, false, false]));
        let sol = bb.solve().unwrap();
        assert!(sol.stats.warm_start_used);
        assert!((sol.objective - 220.0).abs() < 1e-9, "still solves to optimality");

        // Infeasible hint (over capacity): dropped, and says so.
        let mut bb = BranchBound::new(&p);
        assert!(!bb.warm_start(vec![true, true, true]));
        let sol = bb.solve().unwrap();
        assert!(!sol.stats.warm_start_used);

        // The empty selection is feasible and beats the INFINITY cost
        // of "no incumbent", so even a trivial hint counts as used.
        let mut bb = BranchBound::new(&p);
        assert!(bb.warm_start(vec![false, false, false]));
    }
}
