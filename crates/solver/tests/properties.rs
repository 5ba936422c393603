//! Property-based tests for the optimization substrate: the solvers are
//! checked against exhaustive enumeration and against each other's
//! certificates on randomized instances.

use lpvs_solver::{
    greedy_multi_knapsack, lagrangian_knapsack, BinaryProgram, LinearProgram, Relation, Sense,
};
use proptest::prelude::*;

/// A random small knapsack-shaped instance.
#[derive(Debug, Clone)]
struct Instance {
    values: Vec<f64>,
    w1: Vec<f64>,
    w2: Vec<f64>,
    cap1: f64,
    cap2: f64,
}

prop_compose! {
    fn arb_instance()(
        n in 2usize..10,
        seeds in prop::collection::vec((1u32..100, 1u32..20, 1u32..20), 10),
        cap1_frac in 0.1f64..0.9,
        cap2_frac in 0.1f64..0.9,
    ) -> Instance {
        let values: Vec<f64> = seeds.iter().take(n).map(|s| s.0 as f64).collect();
        let w1: Vec<f64> = seeds.iter().take(n).map(|s| s.1 as f64).collect();
        let w2: Vec<f64> = seeds.iter().take(n).map(|s| s.2 as f64).collect();
        let cap1 = cap1_frac * w1.iter().sum::<f64>();
        let cap2 = cap2_frac * w2.iter().sum::<f64>();
        Instance { values, w1, w2, cap1, cap2 }
    }
}

fn program(inst: &Instance) -> BinaryProgram {
    let mut p = BinaryProgram::new(Sense::Maximize, inst.values.clone()).unwrap();
    p.add_constraint(inst.w1.clone(), Relation::Le, inst.cap1).unwrap();
    p.add_constraint(inst.w2.clone(), Relation::Le, inst.cap2).unwrap();
    p
}

/// Exhaustive optimum of an instance.
fn brute_force(inst: &Instance) -> f64 {
    let n = inst.values.len();
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        let mut v = 0.0;
        let mut a = 0.0;
        let mut b = 0.0;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                v += inst.values[i];
                a += inst.w1[i];
                b += inst.w2[i];
            }
        }
        if a <= inst.cap1 + 1e-9 && b <= inst.cap2 + 1e-9 {
            best = best.max(v);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Branch-and-bound (exact mode) matches exhaustive enumeration.
    #[test]
    fn branch_and_bound_is_exact(inst in arb_instance()) {
        let exact = brute_force(&inst);
        let sol = program(&inst).solve().unwrap();
        prop_assert!((sol.objective - exact).abs() < 1e-6,
            "b&b {} vs brute force {exact}", sol.objective);
    }

    /// The LP relaxation upper-bounds the integer optimum.
    #[test]
    fn lp_relaxation_dominates(inst in arb_instance()) {
        let exact = brute_force(&inst);
        let mut lp = LinearProgram::maximize(inst.values.clone()).unwrap();
        lp.add_row(inst.w1.clone(), Relation::Le, inst.cap1).unwrap();
        lp.add_row(inst.w2.clone(), Relation::Le, inst.cap2).unwrap();
        for v in 0..inst.values.len() {
            lp.set_bounds(v, 0.0, 1.0).unwrap();
        }
        let relaxed = lp.solve().unwrap();
        prop_assert!(relaxed.objective >= exact - 1e-6,
            "LP {} below ILP {exact}", relaxed.objective);
    }

    /// The greedy heuristic is feasible and never beats the optimum.
    #[test]
    fn greedy_is_feasible_and_dominated(inst in arb_instance()) {
        let exact = brute_force(&inst);
        let rows: Vec<(&[f64], f64)> =
            vec![(inst.w1.as_slice(), inst.cap1), (inst.w2.as_slice(), inst.cap2)];
        let fixings = vec![None; inst.values.len()];
        let out = greedy_multi_knapsack(&inst.values, &rows, &fixings);
        prop_assert!(out.value <= exact + 1e-9);
        prop_assert!(out.residual.iter().all(|&r| r >= -1e-9));
    }

    /// Lagrangian relaxation sandwiches the optimum: primal ≤ opt ≤ dual.
    #[test]
    fn lagrangian_sandwich(inst in arb_instance()) {
        let exact = brute_force(&inst);
        let lag = lagrangian_knapsack(&program(&inst), 200).unwrap();
        prop_assert!(lag.objective <= exact + 1e-6,
            "primal {} above optimum {exact}", lag.objective);
        prop_assert!(lag.upper_bound >= exact - 1e-6,
            "bound {} below optimum {exact}", lag.upper_bound);
    }

    /// A relative gap never returns a solution worse than (1−gap)·opt.
    #[test]
    fn gap_solution_within_tolerance(inst in arb_instance(), gap in 0.0f64..0.2) {
        let exact = brute_force(&inst);
        let mut p = program(&inst);
        p.set_relative_gap(gap);
        let sol = p.solve().unwrap();
        prop_assert!(sol.objective >= (1.0 - gap) * exact - 1e-6,
            "gap {gap}: {} vs optimum {exact}", sol.objective);
        prop_assert!(p.is_feasible(&sol.x));
    }

    /// Fixing a variable in/out is respected and keeps feasibility.
    #[test]
    fn fixings_respected(inst in arb_instance(), fix_in in any::<bool>()) {
        let mut p = program(&inst);
        // Fix the first item; fixing *in* may make the program
        // infeasible if the item alone overflows, which is a valid
        // outcome.
        p.fix(0, fix_in).unwrap();
        match p.solve() {
            Ok(sol) => {
                prop_assert_eq!(sol.x[0], fix_in);
                prop_assert!(p.is_feasible(&sol.x));
            }
            Err(_) => prop_assert!(fix_in, "fixing out can never cause infeasibility"),
        }
    }
}
