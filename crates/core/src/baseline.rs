//! Baseline selection policies.
//!
//! §III-C of the paper argues that random selection cannot be optimal
//! because anxiety sensitivity is heterogeneous; these baselines make
//! that argument measurable. All policies respect the capacity rows and
//! the energy-feasibility fixing, so differences are purely about *who*
//! gets the transform.

use crate::compact::compact_device;
use crate::problem::SlotProblem;
use crate::scheduler::LpvsScheduler;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A selection policy: given the slot problem, decide who is
/// transformed.
pub trait SelectionPolicy {
    /// Short machine-friendly name for reports.
    fn name(&self) -> &'static str;

    /// Computes the selection. Implementations must return a
    /// capacity-feasible selection of transform-feasible devices.
    fn select(&self, problem: &SlotProblem) -> Vec<bool>;
}

/// The built-in policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// Transform nobody (the conventional streaming service).
    NoTransform,
    /// Uniformly random admission until capacity runs out.
    Random {
        /// RNG seed (kept explicit so experiments are repeatable).
        seed: u64,
    },
    /// Admit devices by ascending battery level (most-drained first).
    LowestBattery,
    /// Admit devices by descending energy saving (a pure-greedy LPVS
    /// Phase-1 without the ILP).
    HighestSaving,
    /// The full LPVS scheduler.
    Lpvs,
    /// LPVS with Phase-2 swapping disabled (the `ablation_phase2`
    /// variant).
    LpvsPhase1Only,
}

impl SelectionPolicy for Policy {
    fn name(&self) -> &'static str {
        match self {
            Policy::NoTransform => "no-transform",
            Policy::Random { .. } => "random",
            Policy::LowestBattery => "lowest-battery",
            Policy::HighestSaving => "highest-saving",
            Policy::Lpvs => "lpvs",
            Policy::LpvsPhase1Only => "lpvs-phase1-only",
        }
    }

    fn select(&self, problem: &SlotProblem) -> Vec<bool> {
        let n = problem.len();
        match *self {
            Policy::NoTransform => vec![false; n],
            Policy::Random { seed } => {
                let mut order: Vec<usize> = feasible_indices(problem);
                let mut rng = StdRng::seed_from_u64(seed);
                order.shuffle(&mut rng);
                admit_in_order(problem, &order)
            }
            Policy::LowestBattery => {
                let mut order = feasible_indices(problem);
                // total_cmp keeps the sort panic-free even if corrupt
                // telemetry smuggles a NaN past feasibility fixing.
                order.sort_by(|&a, &b| {
                    problem.requests[a]
                        .battery_fraction()
                        .total_cmp(&problem.requests[b].battery_fraction())
                });
                admit_in_order(problem, &order)
            }
            Policy::HighestSaving => {
                let mut order = feasible_indices(problem);
                order.sort_by(|&a, &b| {
                    problem.requests[b].saving_j().total_cmp(&problem.requests[a].saving_j())
                });
                admit_in_order(problem, &order)
            }
            Policy::Lpvs => LpvsScheduler::paper_default()
                .schedule(problem)
                .map(|s| s.selected)
                .unwrap_or_else(|_| vec![false; n]),
            Policy::LpvsPhase1Only => LpvsScheduler::phase1_only()
                .schedule(problem)
                .map(|s| s.selected)
                .unwrap_or_else(|_| vec![false; n]),
        }
    }
}

/// Indices of devices whose transform is energy-feasible.
fn feasible_indices(problem: &SlotProblem) -> Vec<usize> {
    (0..problem.len())
        .filter(|&i| compact_device(&problem.requests[i]).transform_feasible)
        .collect()
}

/// Admits devices in the given order while capacity lasts.
fn admit_in_order(problem: &SlotProblem, order: &[usize]) -> Vec<bool> {
    let mut selected = vec![false; problem.len()];
    let mut g = 0.0;
    let mut h = 0.0;
    for &i in order {
        let r = &problem.requests[i];
        if g + r.compute_cost <= problem.compute_capacity + 1e-9
            && h + r.storage_cost_gb <= problem.storage_capacity_gb + 1e-9
        {
            selected[i] = true;
            g += r.compute_cost;
            h += r.storage_cost_gb;
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::objective_value;
    use crate::problem::DeviceRequest;
    use lpvs_survey::curve::AnxietyCurve;

    /// Exhaustive minimization of the full objective (eq. 13): the
    /// reference every policy is held against on small clusters.
    fn oracle_select(problem: &SlotProblem) -> Vec<bool> {
        let n = problem.len();
        assert!(n <= 16, "the oracle enumerates 2^n subsets");
        let feasible: Vec<bool> = (0..n)
            .map(|i| compact_device(&problem.requests[i]).transform_feasible)
            .collect();
        let mut best = (vec![false; n], objective_value(problem, &vec![false; n]));
        for mask in 1usize..(1 << n) {
            let sel: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            if sel.iter().zip(&feasible).any(|(&x, &f)| x && !f) {
                continue;
            }
            if !problem.capacity_feasible(&sel) {
                continue;
            }
            let v = objective_value(problem, &sel);
            if v < best.1 {
                best = (sel, v);
            }
        }
        best.0
    }

    fn device(watts: f64, gamma: f64, fraction: f64) -> DeviceRequest {
        DeviceRequest::uniform(
            watts,
            10.0,
            30,
            fraction * 55_440.0,
            55_440.0,
            gamma,
            1.0,
            0.1,
        )
    }

    fn problem(capacity: f64, lambda: f64) -> SlotProblem {
        let mut p = SlotProblem::new(capacity, 100.0, lambda, AnxietyCurve::paper_shape());
        p.push(device(1.6, 0.45, 0.85));
        p.push(device(1.1, 0.30, 0.12));
        p.push(device(0.9, 0.25, 0.45));
        p.push(device(1.3, 0.40, 0.07));
        p
    }

    #[test]
    fn all_policies_produce_feasible_selections() {
        let p = problem(2.0, 1.0);
        for policy in [
            Policy::NoTransform,
            Policy::Random { seed: 1 },
            Policy::LowestBattery,
            Policy::HighestSaving,
            Policy::Lpvs,
        ] {
            let sel = policy.select(&p);
            assert_eq!(sel.len(), p.len(), "{}", policy.name());
            assert!(p.capacity_feasible(&sel), "{}", policy.name());
        }
    }

    #[test]
    fn no_transform_selects_nobody() {
        let sel = Policy::NoTransform.select(&problem(2.0, 1.0));
        assert!(sel.iter().all(|&x| !x));
    }

    #[test]
    fn lowest_battery_prefers_the_drained() {
        let sel = Policy::LowestBattery.select(&problem(2.0, 1.0));
        // Devices 3 (7 %) and 1 (12 %) are the most drained.
        assert_eq!(sel, vec![false, true, false, true]);
    }

    #[test]
    fn highest_saving_prefers_big_savers() {
        let sel = Policy::HighestSaving.select(&problem(2.0, 1.0));
        // Savings: d0 = 216 J, d3 = 156 J beat the others.
        assert_eq!(sel, vec![true, false, false, true]);
    }

    #[test]
    fn oracle_dominates_every_policy_on_the_objective() {
        let p = problem(2.0, 2.0);
        let oracle = objective_value(&p, &oracle_select(&p));
        for policy in [
            Policy::NoTransform,
            Policy::Random { seed: 3 },
            Policy::LowestBattery,
            Policy::HighestSaving,
            Policy::Lpvs,
        ] {
            let v = objective_value(&p, &policy.select(&p));
            assert!(
                oracle <= v + 1e-9,
                "{} beat the oracle: {v} < {oracle}",
                policy.name()
            );
        }
    }

    #[test]
    fn lpvs_beats_random_on_the_objective() {
        let p = problem(2.0, 2.0);
        let lpvs = objective_value(&p, &Policy::Lpvs.select(&p));
        // Average several random draws for a fair comparison.
        let mut random_total = 0.0;
        for seed in 0..10 {
            random_total += objective_value(&p, &Policy::Random { seed }.select(&p));
        }
        let random_mean = random_total / 10.0;
        assert!(lpvs < random_mean, "lpvs {lpvs} vs random mean {random_mean}");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let p = problem(2.0, 1.0);
        assert_eq!(
            Policy::Random { seed: 9 }.select(&p),
            Policy::Random { seed: 9 }.select(&p)
        );
    }
}
