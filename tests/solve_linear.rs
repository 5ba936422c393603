//! The near-linear slot solve is the quadratic one, decision for
//! decision: the Phase-2 victim index against the victim scan it
//! replaced, the knapsack relaxation against the general simplex, the
//! branch-and-bound on top of it against brute force, the shared
//! density order against the comparator sort it replaced — and guards,
//! in counted work rather than wall clock, that the cold solve stays
//! linear in the cluster size and that every fallback rung does less
//! work than the exact one.
//!
//! Mutation checks, made by hand when the one-probe rule went in: a
//! probe loop that stops after the first fitting victim of an *accepted*
//! swap fails `an_accepted_swap_still_probes_its_ties` (and the
//! proptest's near-duplicated fleets); one that probes twice per
//! rejected candidate fails the tightened bound of
//! `cold_slot_work_is_linear_in_the_cluster_size`; a density order that
//! breaks ties by descending index fails
//! `density_order_is_the_stable_comparator_sort`; a greedy rung that
//! reports 200 pivots (a subgradient loop's iterations) fails
//! `every_rung_below_exact_does_less_work`. Made when the orders became
//! integer-key sorts: a `partial_key_order` — the path Phase-2's
//! candidate ranking and loss order share — without its `+ 0.0`
//! normalization fails `integer_key_orders_are_the_comparator_sorts`.
//! Made when Phase-2 started from its live set, in release builds: a
//! pass that does not fall back when an addition lowers the floor fails
//! `an_addition_that_lowers_the_floor_falls_back` (and nothing else —
//! the proptest does not reach that case); one that ignores freed room
//! fails `a_swap_that_frees_room_for_an_addition_falls_back` and the
//! victim-scan proptest; a live set without the pure additions that fit
//! at the start fails the proptest and the floor case; a floor that is
//! not re-read after an accepted swap fails the unit-cost probe pin.

use lpvs::core::budget::SlotBudget;
use lpvs::core::compact::compact_device;
use lpvs::core::fleet::DeviceFleet;
use lpvs::core::objective::device_objective;
use lpvs::core::phase1::{solve_phase1, Phase1Config};
use lpvs::core::phase2::{run_phase2_over, Phase2Stats};
use lpvs::core::problem::{DeviceRequest, SlotProblem};
use lpvs::core::scheduler::{Degradation, LpvsScheduler};
use lpvs::emulator::experiment::synthetic_problem;
use lpvs::solver::knapsack::{key_order, partial_key_order, Direction};
use lpvs::solver::{
    greedy_multi_knapsack, BinaryProgram, KnapsackRelaxation, LinearProgram, Relation, Sense,
    SolverError,
};
use std::cell::Cell;
use std::cmp::Ordering;
use lpvs::survey::curve::AnxietyCurve;
use proptest::prelude::*;

const CAPACITY_J: f64 = 55_440.0;

/// Phase-2 as it was before the victim index, verbatim but for scoring
/// through the row functions instead of the batch kernels (the two are
/// bit-identical, `tests/kernels.rs`): every selected in-scope device
/// is tried as the victim of every candidate.
fn run_phase2_scanning(
    problem: &SlotProblem,
    selected: &mut [bool],
    allowed: Option<&[usize]>,
) -> Phase2Stats {
    assert_eq!(selected.len(), problem.len(), "selection has wrong length");
    let mut stats = Phase2Stats::default();
    let n = problem.len();
    let in_scope: Option<Vec<bool>> = allowed.map(|indices| {
        let mut mask = vec![false; n];
        for &i in indices {
            mask[i] = true;
        }
        mask
    });
    let scoped = |i: usize| in_scope.as_ref().is_none_or(|m| m[i]);

    let lambda = problem.lambda;
    let curve = &problem.curve;
    let off: Vec<f64> = problem
        .requests
        .iter()
        .map(|r| device_objective(r, false, lambda, curve))
        .collect();
    let on: Vec<f64> = problem
        .requests
        .iter()
        .map(|r| device_objective(r, true, lambda, curve))
        .collect();
    let feasible: Vec<bool> = problem
        .requests
        .iter()
        .map(|r| compact_device(r).transform_feasible)
        .collect();

    // Current capacity usage.
    let mut g_used = 0.0;
    let mut h_used = 0.0;
    for (r, &x) in problem.requests.iter().zip(selected.iter()) {
        if x {
            g_used += r.compute_cost;
            h_used += r.storage_cost_gb;
        }
    }

    // Candidates: unselected, transform-feasible, in-scope devices by
    // descending anxiety degree.
    let mut candidates: Vec<usize> = (0..n)
        .filter(|&i| !selected[i] && feasible[i] && scoped(i))
        .collect();
    candidates.sort_by(|&a, &b| {
        let aa = problem.curve.phi(problem.requests[a].battery_fraction());
        let ab = problem.curve.phi(problem.requests[b].battery_fraction());
        ab.partial_cmp(&aa).expect("finite anxiety")
    });

    for cand in candidates {
        let rc = &problem.requests[cand];
        let gain_in = on[cand] - off[cand]; // negative = improvement

        // Pure addition when slack allows.
        if g_used + rc.compute_cost <= problem.compute_capacity + 1e-9
            && h_used + rc.storage_cost_gb <= problem.storage_capacity_gb + 1e-9
        {
            stats.swaps_tried += 1;
            if gain_in < -1e-12 {
                selected[cand] = true;
                g_used += rc.compute_cost;
                h_used += rc.storage_cost_gb;
                stats.additions += 1;
            }
            continue;
        }

        // Otherwise look for the eviction that leaves the best total
        // delta: Δ = (on − off)[cand] + (off − on)[victim].
        let mut best: Option<(usize, f64)> = None;
        for victim in 0..n {
            if !selected[victim] || !scoped(victim) {
                continue;
            }
            let rv = &problem.requests[victim];
            let fits = g_used - rv.compute_cost + rc.compute_cost
                <= problem.compute_capacity + 1e-9
                && h_used - rv.storage_cost_gb + rc.storage_cost_gb
                    <= problem.storage_capacity_gb + 1e-9;
            if !fits {
                continue;
            }
            stats.swaps_tried += 1;
            let delta = gain_in + (off[victim] - on[victim]);
            match best {
                Some((_, d)) if d <= delta => {}
                _ => best = Some((victim, delta)),
            }
        }
        if let Some((victim, delta)) = best {
            if delta < -1e-12 {
                selected[victim] = false;
                selected[cand] = true;
                let rv = &problem.requests[victim];
                g_used += rc.compute_cost - rv.compute_cost;
                h_used += rc.storage_cost_gb - rv.storage_cost_gb;
                stats.swaps_accepted += 1;
            }
        }
    }

    stats
}

/// The victim index and the victim scan from one starting selection:
/// `(indexed selection, its stats, scanned selection, its stats)`.
fn phase2_both_ways(
    problem: &SlotProblem,
    start: Vec<bool>,
    frontier: Option<&[usize]>,
) -> (Vec<bool>, Phase2Stats, Vec<bool>, Phase2Stats) {
    let fleet = DeviceFleet::from_problem(problem);
    let rows: Vec<usize> = (0..problem.len()).collect();
    let view = fleet.slot_view(
        &rows,
        problem.compute_capacity,
        problem.storage_capacity_gb,
        problem.lambda,
        &problem.curve,
    );
    let (mut indexed, mut scanned) = (start.clone(), start);
    let (ours, _) = run_phase2_over(view, &mut indexed, frontier, &mut Default::default());
    let theirs = run_phase2_scanning(problem, &mut scanned, frontier);
    (indexed, ours, scanned, theirs)
}

/// SplitMix64: the tests' own coin, seeded per case by proptest.
fn coin(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// `greedy_multi_knapsack` as it was before the density order was
/// shared, verbatim: a stable sort whose comparator recomputes both
/// keys. Returns `(x, value, residual)`.
fn greedy_with_comparator_sort(
    values: &[f64],
    rows: &[(&[f64], f64)],
    fixings: &[Option<bool>],
) -> (Vec<bool>, f64, Vec<f64>) {
    let n = values.len();
    let mut x = vec![false; n];
    let mut residual: Vec<f64> = rows.iter().map(|&(_, cap)| cap).collect();
    let mut value = 0.0;
    for i in 0..n {
        if fixings[i] == Some(true) {
            x[i] = true;
            value += values[i];
            for (r, &(w, _)) in residual.iter_mut().zip(rows) {
                *r -= w[i];
            }
        }
    }
    let mut order: Vec<usize> =
        (0..n).filter(|&i| fixings[i].is_none() && values[i] > 0.0).collect();
    let density = |i: usize| -> f64 {
        let scaled: f64 = rows
            .iter()
            .map(|&(w, cap)| if cap > 0.0 { w[i] / cap } else { f64::INFINITY })
            .sum();
        if scaled <= 0.0 {
            f64::INFINITY
        } else {
            values[i] / scaled
        }
    };
    order.sort_by(|&a, &b| density(b).partial_cmp(&density(a)).unwrap_or(std::cmp::Ordering::Equal));
    for i in order {
        if rows.iter().zip(&residual).all(|(&(w, _), &r)| w[i] <= r + 1e-12) {
            x[i] = true;
            value += values[i];
            for (r, &(w, _)) in residual.iter_mut().zip(rows) {
                *r -= w[i];
            }
        }
    }
    (x, value, residual)
}

/// The root of a branch-and-bound as the sorted walks solve it: the
/// oracle a root read off selected break items is held to.
struct SortedRoot {
    /// The greedy seed: [`greedy_with_comparator_sort`]'s selection.
    x: Vec<bool>,
    /// What the greedy pass had left of each row when it broke, if it did.
    left_at_break: Option<Vec<f64>>,
    /// The free items past the greedy break that fit what it left: the
    /// keys a selected seed sorts.
    tail: usize,
    /// The relaxation's value, fixed-in items included, when at most
    /// one row binds: a sorted fractional fill's.
    value: Option<f64>,
    /// The second row's slack under the first row's fill, then the
    /// first row's slack under the second row's fill (two rows only).
    slacks: (Option<f64>, Option<f64>),
    /// Whether every decision of the walks — each fit of the greedy
    /// pass and of the fills at and past their breaks, and the slacks'
    /// signs — lies farther from its threshold than [`SortedRoot::rounding`]
    /// times the sums it compares, or compares sums of zeros only.
    clear: bool,
    /// A factor under which a decision could round the other way: 10⁻¹¹
    /// times the instance's steepest price and total value — above the
    /// `(2n + 8)·ε` by which a fold of up to 20,000 items can round.
    rounding: f64,
}

/// `items` by descending density, ties to the lowest index, as the
/// comparator sorts ordered them.
fn sorted_by(items: impl Iterator<Item = usize>, density: impl Fn(usize) -> f64) -> Vec<usize> {
    let mut order: Vec<usize> = items.collect();
    order.sort_by(|&a, &b| density(b).partial_cmp(&density(a)).unwrap_or(Ordering::Equal));
    order
}

/// [`SortedRoot`] of `k`: the comparator-sort greedy pass, then a sorted
/// fractional fill per row as the relaxation reads them — row 0, and
/// row 1 when row 0's fill overfills it.
fn sorted_root(k: &Knapsack) -> SortedRoot {
    let n = k.values.len();
    let rows: Vec<(&[f64], f64)> = k.rows.iter().map(|(w, cap)| (w.as_slice(), *cap)).collect();
    let pinned = || (0..n).filter(|&i| k.fixings[i] == Some(true));
    let free = |i: &usize| k.fixings[*i].is_none() && k.values[*i] > 0.0;
    let steepest = k.rows.iter().flat_map(|(w, _)| w).filter(|&&w| w > 0.0).fold(1.0, |m: f64, &w| m.max(1.0 / w));
    let rounding = 1e-11 * steepest * (k.values.iter().sum::<f64>() + 1.0);
    let clear = Cell::new(true);
    // A decision at margin `m` between sums of magnitude `scale`.
    let decide = |m: f64, scale: f64| {
        clear.set(clear.get() && (scale == 0.0 || m.abs() > rounding * scale));
        m
    };
    let total: Vec<f64> = rows.iter().map(|&(w, cap)| cap.abs() + w.iter().sum::<f64>() + 1e-12).collect();

    // The greedy pass, and what it decides past its break.
    let (x, _, _) = greedy_with_comparator_sort(&k.values, &rows, &k.fixings);
    let mut left: Vec<f64> = rows.iter().map(|&(_, cap)| cap).collect();
    for i in pinned() {
        for (r, &(w, _)) in left.iter_mut().zip(&rows) {
            *r -= w[i];
        }
    }
    let scaled = |i: usize| -> f64 {
        let scaled: f64 =
            rows.iter().map(|&(w, cap)| if cap > 0.0 { w[i] / cap } else { f64::INFINITY }).sum();
        if scaled <= 0.0 { f64::INFINITY } else { k.values[i] / scaled }
    };
    let margins = |i: usize, left: &[f64]| -> Vec<f64> {
        rows.iter().zip(left).map(|(&(w, _), &r)| (r + 1e-12) - w[i]).collect()
    };
    let (mut left_at_break, mut tail, mut last) = (None::<Vec<f64>>, 0, None);
    for i in sorted_by((0..n).filter(free), scaled) {
        let now = margins(i, &left);
        let fits = now.iter().all(|&m| m >= 0.0);
        match &left_at_break {
            None if fits => last = Some(now),
            None => {
                // The break: one row overfilled, and the last item taken
                // fitting every row.
                let (row, least) = now.iter().copied().enumerate().fold((0, f64::INFINITY), |a, b| if b.1 < a.1 { b } else { a });
                decide(least, total[row]);
                left_at_break = Some(left.clone());
            }
            Some(at_break) => {
                let then = margins(i, at_break);
                then.iter().zip(&total).for_each(|(&m, &scale)| {
                    decide(m, scale);
                });
                if then.iter().all(|&m| m >= 0.0) {
                    tail += 1;
                    now.iter().zip(&total).for_each(|(&m, &scale)| {
                        decide(m, scale);
                    });
                }
            }
        }
        if fits {
            for (r, &(w, _)) in left.iter_mut().zip(&rows) {
                *r -= w[i];
            }
        }
    }

    // The last item the pass took fit every row.
    last.iter().flatten().zip(&total).for_each(|(&m, &scale)| {
        decide(m, scale);
    });

    // The relaxation: what the pinned items leave, then sorted fills.
    let fixed_value: f64 = pinned().map(|i| k.values[i]).fold(0.0, |a, v| a + v);
    let capacity: Vec<f64> = rows.iter().map(|&(w, cap)| pinned().fold(cap, |c, i| c - w[i])).collect();
    let infeasible = capacity.iter().any(|&c| c < -1e-9);
    let capacity: Vec<f64> = capacity.into_iter().map(|c| c.max(0.0)).collect();
    let fill = |row: usize| -> (Vec<f64>, f64) {
        let (w, mut remaining) = (rows[row].0, capacity[row]);
        let density = |i: usize| if w[i] > 0.0 { k.values[i] / w[i] } else { f64::INFINITY };
        let (mut x, mut value, mut last) = (vec![0.0; n], 0.0, None);
        for i in sorted_by((0..n).filter(free), density) {
            let scale = capacity[row] + (capacity[row] - remaining) + w[i];
            if w[i] <= remaining {
                last = Some((remaining - w[i], scale));
                x[i] = 1.0;
                value += k.values[i];
                remaining -= w[i];
            } else {
                decide(remaining - w[i], scale);
                x[i] = remaining / w[i];
                value += k.values[i] * x[i];
                break;
            }
        }
        last.into_iter().for_each(|(m, scale)| {
            decide(m, scale);
        });
        (x, value)
    };
    let usage = |w: &[f64], x: &[f64]| -> f64 { w.iter().zip(x).map(|(w, v)| w * v).sum() };
    let (value, slacks) = match rows.len() {
        _ if infeasible => (None, (None, None)),
        1 => (Some(fill(0).1), (None, None)),
        _ => {
            let (on_first, value) = fill(0);
            let used = usage(rows[1].0, &on_first);
            let second = decide(capacity[1] - used, capacity[1] + used + total[0]);
            if second >= 0.0 {
                (Some(value), (Some(second), None))
            } else {
                let (on_second, value) = fill(1);
                let used = usage(rows[0].0, &on_second);
                let first = decide(capacity[0] - used, capacity[0] + used + total[1]);
                ((first >= 0.0).then_some(value), (Some(second), Some(first)))
            }
        }
    };
    SortedRoot {
        x,
        left_at_break,
        tail,
        value: value.map(|v| fixed_value + v),
        slacks,
        clear: clear.get(),
        rounding,
    }
}

/// Holds a solve of `program` (over `k`) to the sorted walks' root: when
/// the sorted root is pruned, the solve closes there with the greedy
/// seed — one node, pruned by bound, the seed's objective bit for bit —
/// and when every decision is clear of rounding it sorts exactly the
/// seed's tail; when the sorted root is not pruned, neither is the
/// solve's. Returns the root's verdict.
fn holds_to_the_sorted_root(k: &Knapsack, program: &BinaryProgram) -> Result<bool, proptest::TestCaseError> {
    let root = sorted_root(k);
    let solution = program.solve();
    let Some(value) = root.value.or_else(|| {
        // Both rows bind: the sorted root bisects, and the library's
        // relaxation is that walk.
        KnapsackRelaxation::of(program)?.solve(program.fixings()).ok().map(|r| r.objective)
    }) else {
        prop_assert_eq!(solution.unwrap_err(), SolverError::Infeasible);
        return Ok(false);
    };
    let solution = solution.expect("the relaxation is feasible");
    if let (Some(ours), Ok(sorted)) = (root.value, KnapsackRelaxation::of(program).unwrap().solve(program.fixings())) {
        prop_assert!(ours.to_bits() == sorted.objective.to_bits(), "the oracle's fill is the relaxation's: {} vs {}", ours, sorted.objective);
    }
    let incumbent = program.is_feasible(&root.x).then(|| -program.objective_at(&root.x));
    let pruned = incumbent.is_some_and(|cost| {
        let threshold = cost - (1e-9 + program.relative_gap() * cost.abs());
        let bound = -value;
        bound >= threshold
    });
    let stats = solution.stats;
    if pruned {
        prop_assert_eq!((stats.nodes, stats.pruned_by_bound), (1, 1));
        prop_assert_eq!(&solution.x, &root.x);
        prop_assert_eq!(solution.objective.to_bits(), program.objective_at(&root.x).to_bits());
        let prune_margin = incumbent.map_or(0.0, |cost| -value - (cost - (1e-9 + program.relative_gap() * cost.abs())));
        let scale = k.values.iter().sum::<f64>() + k.rows.iter().map(|(w, cap)| cap + w.iter().sum::<f64>()).sum::<f64>();
        if root.value.is_some() && root.clear && prune_margin > root.rounding * scale {
            prop_assert_eq!(stats.keys_sorted, root.tail);
        }
    } else {
        prop_assert!(stats.nodes > 1 || stats.pruned_by_bound == 0, "{stats:?}");
    }
    Ok(pruned)
}

prop_compose! {
    fn arb_request()(
        watts in 0.5f64..2.0,
        chunks in 1usize..12,
        fraction in 0.02f64..1.0,
        gamma in 0.05f64..0.49,
        compute in 0.2f64..3.0,
        storage in 0.02f64..0.3,
    ) -> DeviceRequest {
        DeviceRequest::uniform(
            watts, 10.0, chunks, fraction * CAPACITY_J, CAPACITY_J, gamma, compute, storage,
        )
    }
}

/// How a fleet is drawn from its palette of devices.
#[derive(Debug, Clone, Copy)]
enum Fleet {
    /// Every device its own draw.
    Distinct,
    /// Devices repeat the palette: equal eviction losses.
    Duplicated,
    /// Two kinds, equal costs: big savers and small ones whose γ differ
    /// by a few ulps. A big candidate's gain dwarfs a small victim's
    /// loss, so the small ones' distinct losses round to one swap delta.
    NearDuplicated,
    /// Some devices cost nothing on one row or the other.
    ZeroCost,
}

prop_compose! {
    /// A slot problem, a feasible starting selection and a frontier.
    /// `compute` / `storage` are capacities as shares of the fleet's
    /// total cost: above 1 the row cannot bind.
    fn arb_phase2_case()(
        palette in prop::collection::vec(arb_request(), 40),
        n in 1usize..40,
        fleet in prop_oneof![
            Just(Fleet::Distinct), Just(Fleet::Duplicated),
            Just(Fleet::NearDuplicated), Just(Fleet::ZeroCost),
        ],
        compute in 0.1f64..0.9,
        storage in prop_oneof![Just(2.0), 0.1f64..0.9],
        lambda in prop_oneof![Just(0.0), 0.1f64..60.0],
        from_phase1 in any::<bool>(),
        scoped in any::<bool>(),
        seed in any::<u64>(),
    ) -> (SlotProblem, Vec<bool>, Option<Vec<usize>>) {
        let mut state = seed;
        let kinds = match fleet {
            Fleet::Distinct | Fleet::ZeroCost => n,
            Fleet::Duplicated => 1 + n / 6,
            Fleet::NearDuplicated => 2,
        };
        let mut requests: Vec<DeviceRequest> = (0..n)
            .map(|_| palette[(coin(&mut state) * kinds as f64) as usize].clone())
            .collect();
        for r in &mut requests {
            match fleet {
                Fleet::NearDuplicated => {
                    let small = r.gamma == palette[0].gamma;
                    let (watts, chunks, gamma) =
                        if small { (0.5, 1, r.gamma) } else { (2.0, 12, 0.45) };
                    *r = DeviceRequest::uniform(
                        watts, 10.0, chunks, r.energy_j, CAPACITY_J, gamma, 1.0, 0.1,
                    );
                    if small {
                        r.gamma *= 1.0 + (coin(&mut state) * 32.0).floor() * f64::EPSILON;
                    }
                }
                Fleet::ZeroCost if coin(&mut state) < 0.3 => r.compute_cost = 0.0,
                Fleet::ZeroCost if coin(&mut state) < 0.3 => r.storage_cost_gb = 0.0,
                _ => {}
            }
        }
        let total = |f: fn(&DeviceRequest) -> f64| requests.iter().map(f).sum::<f64>();
        let mut problem = SlotProblem::new(
            compute * total(|r| r.compute_cost),
            storage * total(|r| r.storage_cost_gb),
            lambda,
            AnxietyCurve::paper_shape(),
        );
        for r in requests {
            problem.push(r);
        }

        // Start from Phase-1's optimum (full rows: swaps) or from a
        // random feasible selection (slack: additions and swaps).
        let selected = if from_phase1 {
            solve_phase1(&problem, &Phase1Config::default()).expect("feasible").selected
        } else {
            let mut selected: Vec<bool> = (0..n).map(|_| coin(&mut state) < 0.6).collect();
            let mut drop = 0;
            while !problem.capacity_feasible(&selected) {
                selected[drop] = false;
                drop += 1;
            }
            selected
        };
        // A frontier in no particular order, repeats included.
        let frontier = scoped.then(|| {
            (0..1 + (coin(&mut state) * 1.5 * n as f64) as usize)
                .map(|_| (coin(&mut state) * n as f64) as usize)
                .collect()
        });
        (problem, selected, frontier)
    }
}

/// A knapsack-shaped program with up to two rows and random fixings;
/// a capacity share above 1 keeps its row from binding.
#[derive(Debug, Clone)]
struct Knapsack {
    values: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
    fixings: Vec<Option<bool>>,
}

impl Knapsack {
    fn program(&self) -> BinaryProgram {
        let mut p = BinaryProgram::new(Sense::Maximize, self.values.clone()).unwrap();
        for (w, cap) in &self.rows {
            p.add_constraint(w.clone(), Relation::Le, *cap).unwrap();
        }
        for (i, f) in self.fixings.iter().enumerate() {
            if let Some(v) = f {
                p.fix(i, *v).unwrap();
            }
        }
        p
    }

    fn simplex(&self) -> Result<lpvs::solver::LpSolution, SolverError> {
        let mut lp = LinearProgram::maximize(self.values.clone()).unwrap();
        for (w, cap) in &self.rows {
            lp.add_row(w.clone(), Relation::Le, *cap).unwrap();
        }
        for (i, f) in self.fixings.iter().enumerate() {
            let (lower, upper) = match f {
                None => (0.0, 1.0),
                Some(true) => (1.0, 1.0),
                Some(false) => (0.0, 0.0),
            };
            lp.set_bounds(i, lower, upper).unwrap();
        }
        lp.solve()
    }
}

prop_compose! {
    fn arb_knapsack(max_vars: usize, fix_in: f64, fix_out: f64)(
        n in 1usize..max_vars,
        items in prop::collection::vec((-2.0f64..20.0, 0.0f64..5.0, 0.0f64..5.0, 0.0f64..1.0), max_vars),
        num_rows in 0usize..3,
        share1 in prop_oneof![Just(1.5), 0.05f64..0.95],
        share2 in prop_oneof![Just(1.5), 0.05f64..0.95],
    ) -> Knapsack {
        let items = &items[..n];
        let row = |w: Vec<f64>, share: f64| {
            let cap = share * w.iter().sum::<f64>();
            (w, cap)
        };
        let rows = [
            row(items.iter().map(|t| t.1).collect(), share1),
            row(items.iter().map(|t| t.2).collect(), share2),
        ];
        Knapsack {
            values: items.iter().map(|t| t.0).collect(),
            rows: rows[..num_rows].to_vec(),
            fixings: items
                .iter()
                .map(|t| match t.3 {
                    u if u < fix_in => Some(true),
                    u if u < fix_in + fix_out => Some(false),
                    _ => None,
                })
                .collect(),
        }
    }
}

prop_compose! {
    /// A greedy instance whose items repeat a small palette, so that
    /// equal densities are the rule; weights may be zero (`+∞` density)
    /// and a capacity may be zero (every key on that row `0` or `+∞`).
    fn arb_tied_knapsack()(
        palette in prop::collection::vec((0.5f64..20.0, 0.0f64..5.0, 0.0f64..5.0), 1..5),
        picks in prop::collection::vec((0usize..5, 0.0f64..1.0), 1..40),
        num_rows in 1usize..3,
        share1 in prop_oneof![Just(0.0), Just(1.5), 0.05f64..0.95],
        share2 in prop_oneof![Just(0.0), Just(1.5), 0.05f64..0.95],
    ) -> Knapsack {
        let items: Vec<(f64, f64, f64, f64)> = picks
            .iter()
            .map(|&(kind, u)| {
                let (v, a, b) = palette[kind % palette.len()];
                // A third of the items weigh nothing on the first row,
                // a few are worth nothing.
                (if u > 0.97 { 0.0 } else { v }, if u < 0.33 { 0.0 } else { a }, b, u)
            })
            .collect();
        let row = |w: Vec<f64>, share: f64| {
            let cap = share * w.iter().sum::<f64>();
            (w, cap)
        };
        let rows = [
            row(items.iter().map(|t| t.1).collect(), share1),
            row(items.iter().map(|t| t.2).collect(), share2),
        ];
        Knapsack {
            values: items.iter().map(|t| t.0).collect(),
            rows: rows[..num_rows].to_vec(),
            fixings: items
                .iter()
                .map(|t| match (t.3 * 1e3) as usize % 10 {
                    0 => Some(true),
                    1 | 2 => Some(false),
                    _ => None,
                })
                .collect(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The shared density order — keys computed once, `(key desc, index
    /// asc)` — is the order the stable comparator sort produced: the
    /// greedy pass over it takes the same items, sums the same value
    /// and leaves the same residual, bit for bit, under equal
    /// densities, weightless items, zero capacities and fixings.
    #[test]
    fn density_order_is_the_stable_comparator_sort(k in arb_tied_knapsack()) {
        let rows: Vec<(&[f64], f64)> = k.rows.iter().map(|(w, cap)| (w.as_slice(), *cap)).collect();
        let ours = greedy_multi_knapsack(&k.values, &rows, &k.fixings);
        let (x, value, residual) = greedy_with_comparator_sort(&k.values, &rows, &k.fixings);
        prop_assert_eq!(&ours.x, &x);
        prop_assert_eq!(ours.value.to_bits(), value.to_bits());
        let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&ours.residual), bits(&residual));
        // The order itself, sorted as packed integer keys, is the
        // stable comparator sort of the same densities — the zero-weight
        // items' +∞ keys and the zero-capacity rows' 0 keys included.
        let density = |i: usize| -> f64 {
            let scaled: f64 = rows
                .iter()
                .map(|&(w, cap)| if cap > 0.0 { w[i] / cap } else { f64::INFINITY })
                .sum();
            if scaled <= 0.0 { f64::INFINITY } else { k.values[i] / scaled }
        };
        let keyed: Vec<(f64, usize)> = (0..k.values.len()).map(|i| (density(i), i)).collect();
        let mut stable: Vec<usize> = (0..keyed.len()).collect();
        stable.sort_by(|&a, &b| keyed[b].0.partial_cmp(&keyed[a].0).unwrap_or(Ordering::Equal));
        prop_assert_eq!(key_order(keyed.iter().copied(), Direction::Descending), stable);
        // The branch-and-bound walks the same order: its seed is this
        // pass, so it never ends below it.
        if k.rows.iter().all(|(_, cap)| *cap > 0.0) && !k.fixings.contains(&Some(true)) {
            let program = k.program();
            let solution = program.solve().unwrap();
            prop_assert!(solution.objective >= ours.value - 1e-9);
            // Its root is the sorted walks' root, and sorts exactly the
            // seed's tail when it closes clear of rounding.
            holds_to_the_sorted_root(&k, &program)?;
        }
    }

    /// A root read off selected break items is the sorted walks' root —
    /// the same seed, the same prune verdict, the same objective bits,
    /// and exactly the seed's tail sorted when no decision lies near
    /// rounding — under equal densities, weightless items, zero
    /// capacities and fixings, at Phase-1's gap.
    #[test]
    fn a_selected_root_is_the_sorted_walks(k in arb_tied_knapsack()) {
        let mut program = k.program();
        program.set_relative_gap(1e-3);
        holds_to_the_sorted_root(&k, &program)?;
    }

    /// Both integer-key orders are the comparator sorts they replaced,
    /// both ways: `key_order` the stable sort by `total_cmp` (NaN and
    /// −0.0 ordered), `partial_key_order` the stable sort by
    /// `partial_cmp` (−0.0 ties +0.0) on keys without a NaN — over ties,
    /// ±0.0 and ±∞.
    #[test]
    fn integer_key_orders_are_the_comparator_sorts(
        picks in prop::collection::vec(0usize..AWKWARD.len(), 0..40),
    ) {
        let keys: Vec<f64> = picks.iter().map(|&p| AWKWARD[p]).collect();
        let keyed = || keys.iter().copied().zip(0..);
        let stable = |cmp: &dyn Fn(f64, f64) -> Ordering| {
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_by(|&a, &b| cmp(keys[a], keys[b]));
            order
        };
        for direction in [Direction::Ascending, Direction::Descending] {
            let oriented = |o: Ordering| match direction {
                Direction::Ascending => o,
                Direction::Descending => o.reverse(),
            };
            prop_assert_eq!(
                key_order(keyed(), direction),
                stable(&|a, b| oriented(a.total_cmp(&b)))
            );
            if keys.iter().all(|k| !k.is_nan()) {
                prop_assert_eq!(
                    partial_key_order(keyed(), direction, "no NaN"),
                    stable(&|a, b| oriented(a.partial_cmp(&b).unwrap()))
                );
            }
        }
    }

    /// The victim index takes the decisions of the victim scan: same
    /// selection, same accepted swaps, same additions — with one row or
    /// both binding, zero-cost rows, tied losses and deltas, whole
    /// problems and frontiers.
    #[test]
    fn victim_index_decides_like_the_victim_scan(case in arb_phase2_case()) {
        let (problem, start, frontier) = case;
        let (indexed, ours, scanned, theirs) =
            phase2_both_ways(&problem, start, frontier.as_deref());
        prop_assert_eq!(indexed, scanned);
        prop_assert_eq!(ours.swaps_accepted, theirs.swaps_accepted);
        prop_assert_eq!(ours.additions, theirs.additions);
        prop_assert!(ours.swaps_tried <= theirs.swaps_tried,
            "index probed {} pairs, the scan {}", ours.swaps_tried, theirs.swaps_tried);
    }

    /// The knapsack relaxation finds the simplex's optimum — with no,
    /// one or both rows binding and under random fixings — at a
    /// feasible point with at most two fractional entries, and calls
    /// fixings that overfill a row infeasible, as the simplex does.
    #[test]
    fn knapsack_relaxation_matches_the_simplex(k in arb_knapsack(30, 0.1, 0.15)) {
        let program = k.program();
        let relaxation = KnapsackRelaxation::of(&program).expect("≤ rows, non-negative data");
        let relaxed = match (relaxation.solve(program.fixings()), k.simplex()) {
            (Err(ours), Err(theirs)) => {
                prop_assert_eq!(ours, SolverError::Infeasible);
                prop_assert_eq!(theirs, SolverError::Infeasible);
                return Ok(());
            }
            (ours, theirs) => {
                let (ours, theirs) = (ours.expect("simplex solved it"), theirs.expect("we solved it"));
                prop_assert!((ours.objective - theirs.objective).abs()
                    <= 1e-9 * theirs.objective.abs().max(1.0),
                    "relaxation {} vs simplex {}", ours.objective, theirs.objective);
                ours
            }
        };
        let at_x: f64 = k.values.iter().zip(&relaxed.x).map(|(v, x)| v * x).sum();
        prop_assert!((relaxed.objective - at_x).abs() <= 1e-9 * at_x.abs().max(1.0));
        for (w, cap) in &k.rows {
            let used: f64 = w.iter().zip(&relaxed.x).map(|(w, x)| w * x).sum();
            prop_assert!(used <= cap + 1e-9 * cap.max(1.0), "row uses {used} of {cap}");
        }
        for (x, f) in relaxed.x.iter().zip(&k.fixings) {
            prop_assert!((0.0..=1.0).contains(x));
            if let Some(v) = f {
                prop_assert_eq!(*x, f64::from(u8::from(*v)));
            }
        }
        let fractional = relaxed.x.iter().filter(|x| x.fract() != 0.0).count();
        prop_assert!(fractional <= k.rows.len(), "{fractional} fractional entries");
    }

    /// Branch-and-bound over the knapsack relaxation is exact: it meets
    /// brute force on small programs whose relaxation has both rows
    /// binding, without a single simplex pivot.
    #[test]
    fn branch_and_bound_matches_brute_force(
        k in arb_knapsack(13, 0.0, 0.1).prop_filter("both rows bind", |k| {
            let program = k.program();
            k.rows.len() == 2 && KnapsackRelaxation::of(&program)
                .and_then(|r| r.solve(program.fixings()).ok())
                .is_some_and(|r| r.duals.iter().all(|&d| d > 0.0))
        })
    ) {
        let n = k.values.len();
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let x: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            if x.iter().zip(&k.fixings).any(|(&x, f)| x && *f == Some(false)) {
                continue;
            }
            let total = |c: &[f64]| -> f64 {
                c.iter().zip(&x).map(|(c, &x)| if x { *c } else { 0.0 }).sum()
            };
            if k.rows.iter().all(|(w, cap)| total(w) <= cap + 1e-9) {
                best = best.max(total(&k.values));
            }
        }
        let solution = k.program().solve().unwrap();
        prop_assert!((solution.objective - best).abs() < 1e-6,
            "b&b {} vs brute force {best}", solution.objective);
        prop_assert_eq!(solution.stats.simplex_iterations, 0);
    }
}

/// A `churn-fleet` shard's Phase-1 shape: 16,000 rows of unit compute
/// cost against capacity for 3,520 of them, ample storage, some rows
/// fixed out. The greedy pass fills the compute row exactly — it has 0.0
/// left at its break, so nothing past it fits — and the row sits on the
/// unit grid, where no sum rounds: the root closes on selected break
/// items and sorts no key.
#[test]
fn a_churn_shard_root_sorts_no_key() {
    let n = 16_000;
    let mut state = 7;
    let values: Vec<f64> = (0..n).map(|_| 50.0 + 100.0 * coin(&mut state)).collect();
    let storage: Vec<f64> = (0..n).map(|_| 0.05 + 0.2 * coin(&mut state)).collect();
    let k = Knapsack {
        values,
        rows: vec![(vec![1.0; n], 3_520.0), (storage, 1e6)],
        fixings: (0..n).map(|i| (i % 9 == 4).then_some(false)).collect(),
    };
    let mut program = k.program();
    program.set_relative_gap(1e-3);
    let root = sorted_root(&k);
    assert_eq!(root.left_at_break.map(|left| left[0].to_bits()), Some(0.0f64.to_bits()));
    assert_eq!(root.tail, 0);
    assert!(holds_to_the_sorted_root(&k, &program).unwrap(), "the sorted root is pruned");
    assert_eq!(program.solve().unwrap().stats.keys_sorted, 0);
}

/// A seed sorts only its tail: 33 items of weight 3 leave 1 of 100 free,
/// the next item by density (weight 4) breaks the pass, and the 20
/// unit-weight items behind it are the ones that still fit what it left
/// — 20 keys sorted, one of them taken — on an integer row, where no sum
/// rounds. The relaxation adds a quarter of the break item, within a 1 %
/// gap of the seed, so the root closes there.
#[test]
fn a_selected_seed_sorts_only_its_tail() {
    let kinds = [(33, 9.0, 3.0), (5, 8.8, 4.0), (20, 1.0, 1.0)];
    let items: Vec<(f64, f64)> = kinds.iter().flat_map(|&(m, v, w)| std::iter::repeat_n((v, w), m)).collect();
    let k = Knapsack {
        values: items.iter().map(|t| t.0).collect(),
        rows: vec![(items.iter().map(|t| t.1).collect(), 100.0)],
        fixings: vec![None; items.len()],
    };
    let mut program = k.program();
    program.set_relative_gap(0.01);
    let root = sorted_root(&k);
    assert_eq!((root.left_at_break, root.tail), (Some(vec![1.0]), 20));
    assert!(holds_to_the_sorted_root(&k, &program).unwrap(), "the sorted root is pruned");
    let solution = program.solve().unwrap();
    assert_eq!((solution.stats.keys_sorted, solution.num_selected()), (20, 34));
}

/// `serve-ingest`'s shape: uniform rows — unit compute, 0.1125 GB
/// storage — against 72 % of a session envelope's worth of each, so both
/// rows run out at the same fractional item. Row 0's fill overfills row
/// 1 by a few 10⁻¹⁴ to 10⁻¹², and row 1's fill leaves row 0 a few
/// 10⁻¹³ to 10⁻¹¹: signs a sum folded in another order can read the
/// other way (at 1,860 sessions an unguarded selection reads row 1's
/// slack as positive; at 2,048, the benchmark's shape, it reads row 0
/// as overfilled). The solve walks the sorted orders of both rows and
/// enters no bisection: exactly `2 n` keys.
#[test]
fn a_serve_ingest_root_falls_back_to_the_sorted_orders() {
    for (sessions, n) in [(2_048.0, 1_475), (1_860.0, 1_340)] {
        let mut state = 11;
        let values: Vec<f64> = (0..n).map(|_| 10.0 + 5.0 * coin(&mut state)).collect();
        let k = Knapsack {
            values,
            rows: vec![(vec![1.0; n], 0.72 * 1.0 * sessions), (vec![0.1125; n], 0.72 * 0.1125 * sessions)],
            fixings: vec![None; n],
        };
        let mut program = k.program();
        program.set_relative_gap(1e-3);
        let root = sorted_root(&k);
        let (second, first) = (root.slacks.0.unwrap(), root.slacks.1.unwrap());
        assert!((-1e-11..0.0).contains(&second) && (0.0..1e-10).contains(&first), "{:?}", root.slacks);
        assert!(!root.clear);
        assert!(holds_to_the_sorted_root(&k, &program).unwrap(), "the sorted root is pruned");
        assert_eq!(program.solve().unwrap().stats.keys_sorted, 2 * n, "{sessions} sessions");
    }
}

/// A key that is not a number — `∞ / ∞`, from a caller of the public
/// greedy entry that did not sanitize — is ordered like any other: the
/// comparator sort could be handed an inconsistent order here (and
/// `sort_by` may panic on one); the keyed sort cannot.
#[test]
fn a_nan_density_neither_panics_nor_overfills() {
    let values = [f64::INFINITY, 3.0, f64::INFINITY, 2.0, 5.0];
    let tight = [1.0, 0.0, 0.0, 1.0, 0.0];
    let roomy = [1.0, 1.0, 1.0, 1.0, 4.0];
    let rows = [(&tight[..], 0.0), (&roomy[..], 3.0)];
    let out = greedy_multi_knapsack(&values, &rows, &[None; 5]);
    // Items 0 and 3 need capacity the first row does not have; item 2
    // (a NaN key as well) and item 1 fit; item 4 no longer does.
    assert_eq!(out.x, vec![false, true, true, false, false]);
    assert!(out.residual.iter().all(|&r| r >= 0.0), "{:?}", out.residual);
}

/// Keys that tie, and the floats a comparator can disagree on: both
/// zeros, both infinities, a NaN of each sign, the smallest subnormal.
const AWKWARD: [f64; 11] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    1.5,
    1.5,
    -2.0,
    5e-324,
    f64::MAX,
];

/// A NaN key still panics where a `partial_cmp(..).expect(..)`
/// comparator did — the panic the resilient ladder turns into its next
/// rung.
#[test]
fn a_nan_partial_key_panics() {
    let keyed = [(1.0, 0), (f64::NAN, 1), (2.0, 2)];
    let ranked =
        std::panic::catch_unwind(|| partial_key_order(keyed, Direction::Descending, "finite"));
    assert!(ranked.is_err());
}

/// Builds the problem `[small, small, big]` of the one-probe tests:
/// capacity for two, the two small devices selected, λ = 0 so that a
/// device's eviction loss is `γ · Σ p·Δ` and nothing else.
fn two_small_one_big(gamma_0: f64, gamma_1: f64, big: DeviceRequest) -> SlotProblem {
    let small =
        |gamma: f64| DeviceRequest::uniform(0.5, 10.0, 1, 0.5 * CAPACITY_J, CAPACITY_J, gamma, 1.0, 0.1);
    let mut problem = SlotProblem::new(2.0, 1e9, 0.0, AnxietyCurve::paper_shape());
    problem.push(small(gamma_0));
    problem.push(small(gamma_1));
    problem.push(big);
    problem
}

/// Both Phase-2 implementations from `[true, true, false]`.
fn swap_both_ways(problem: &SlotProblem) -> (Vec<bool>, Phase2Stats, Vec<bool>, Phase2Stats) {
    phase2_both_ways(problem, vec![true, true, false], None)
}

/// The floor's side of the one-probe rule: when the cheapest selected
/// device makes room and its delta is not accepted — exactly 0, or
/// negative but inside the 1e-12 threshold — the floor alone rejects the
/// candidate, before any probe, and the decision is the scan's.
#[test]
fn a_floor_rejected_least_delta_costs_no_probe() {
    let (gamma, next) = (0.3, 0.3 * (1.0 + 4.0 * f64::EPSILON));
    let small = |gamma: f64| {
        DeviceRequest::uniform(0.5, 10.0, 1, 0.5 * CAPACITY_J, CAPACITY_J, gamma, 1.0, 0.1)
    };
    // A candidate identical to its cheapest victim (Δ = 0.0), and one a
    // few ulps of γ better than it (−1e-12 < Δ < 0).
    let better = 0.3 * (1.0 + 8.0 * f64::EPSILON);
    for (candidate, exactly_zero) in [(small(gamma), true), (small(better), false)] {
        let problem = two_small_one_big(next, gamma, candidate);
        let terms = |i: usize, on: bool| device_objective(&problem.requests[i], on, 0.0, &problem.curve);
        let delta = (terms(2, true) - terms(2, false)) + (terms(1, false) - terms(1, true));
        let inside = if exactly_zero { delta == 0.0 } else { (-1e-12..0.0).contains(&delta) };
        assert!(inside, "Δ = {delta:e}");
        let (indexed, ours, scanned, theirs) = swap_both_ways(&problem);
        assert_eq!(indexed, vec![true, true, false]);
        assert_eq!((indexed, ours.swaps_accepted), (scanned, theirs.swaps_accepted));
        assert_eq!(ours.swaps_tried, 0, "the floor rejects the least delta");
    }
}

/// A slot problem at λ = 0 (a device's eviction loss is `γ · Σ p·Δ`)
/// from `(γ, battery fraction, [compute, storage])` rows: a lower
/// battery is a more anxious candidate.
fn costed_rows(capacity: [f64; 2], rows: &[(f64, f64, [f64; 2])]) -> SlotProblem {
    let mut problem = SlotProblem::new(capacity[0], capacity[1], 0.0, AnxietyCurve::paper_shape());
    for &(gamma, battery, [g, h]) in rows {
        problem.push(DeviceRequest::uniform(0.5, 10.0, 1, battery * CAPACITY_J, CAPACITY_J, gamma, g, h));
    }
    problem
}

/// The rejected side past the floor: the cheapest selected device is
/// too small to make room, so the first fitting victim is a costlier
/// one, and a rejected least delta there costs exactly one probe.
#[test]
fn a_rejected_least_delta_costs_one_probe() {
    // [cheap small, costly big] selected, half a unit of slack; the
    // candidate beats the small one's loss but needs the big one's room.
    let problem = costed_rows(
        [3.0, 1e9],
        &[(0.1, 0.5, [0.5, 0.1]), (0.3, 0.5, [2.0, 0.1]), (0.2, 0.2, [2.0, 0.1])],
    );
    let start = vec![true, true, false];
    let terms = |i: usize, on: bool| device_objective(&problem.requests[i], on, 0.0, &problem.curve);
    let loss = |i: usize| terms(i, false) - terms(i, true);
    let gain = terms(2, true) - terms(2, false);
    assert!(gain + loss(0) < -1e-12 && gain + loss(1) >= -1e-12);
    let (indexed, ours, scanned, theirs) = phase2_both_ways(&problem, start.clone(), None);
    assert_eq!(indexed, start);
    assert_eq!((indexed, ours.swaps_accepted), (scanned, theirs.swaps_accepted));
    assert_eq!(ours.swaps_tried, 1, "a rejected least delta was probed for ties");
}

/// The accepted side: two victims whose distinct losses round to one
/// *accepted* delta. The cheaper one comes first in loss order but has
/// the higher index, so only the tie probe finds the victim the scan
/// evicts.
#[test]
fn an_accepted_swap_still_probes_its_ties() {
    let (gamma, next) = (0.3, 0.3 * (1.0 + 4.0 * f64::EPSILON));
    let big = DeviceRequest::uniform(2.0, 10.0, 12, 0.5 * CAPACITY_J, CAPACITY_J, 0.45, 1.0, 0.1);
    let problem = two_small_one_big(next, gamma, big);
    let terms = |i: usize, on: bool| device_objective(&problem.requests[i], on, 0.0, &problem.curve);
    let loss = |i: usize| terms(i, false) - terms(i, true);
    let gain = terms(2, true) - terms(2, false);
    assert!(loss(1) < loss(0), "device 1 must be the cheaper eviction");
    assert_eq!(gain + loss(0), gain + loss(1), "the two losses must round to one delta");
    assert!(gain + loss(1) < -1e-12);

    let (indexed, ours, scanned, theirs) = swap_both_ways(&problem);
    assert_eq!(indexed, vec![false, true, true], "the lowest index among the ties is evicted");
    assert_eq!((indexed, ours.swaps_accepted), (scanned, theirs.swaps_accepted));
    assert_eq!(ours.swaps_tried, 2, "first fit + its tie");
}

/// Phase-2 both ways from `start`, after checking that row `late` is
/// outside the starting live set — its gain does not clear the floor
/// `floor₀` and its pure addition does not fit — so that only the
/// fallback can admit it; then that it is admitted, as the scan admits it.
fn admitted_by_the_fallback(problem: &SlotProblem, start: Vec<bool>, late: usize) -> Phase2Stats {
    let terms = |i: usize, on: bool| device_objective(&problem.requests[i], on, 0.0, &problem.curve);
    let floor = (0..problem.len()).filter(|&i| start[i]).map(|i| terms(i, false) - terms(i, true));
    let floor = floor.fold(f64::INFINITY, f64::min);
    assert!(terms(late, true) - terms(late, false) + floor >= -1e-12, "row {late} clears the floor");
    let mut added = start.clone();
    added[late] = true;
    assert!(!problem.capacity_feasible(&added), "row {late} fits as an addition");

    let (indexed, ours, scanned, theirs) = phase2_both_ways(problem, start, None);
    assert!(indexed[late], "row {late} was not admitted");
    assert_eq!((&indexed, ours.swaps_accepted, ours.additions), (&scanned, theirs.swaps_accepted, theirs.additions));
    ours
}

/// The first loosening event: an addition lowers the floor. Device 1
/// joins in the slack, cheaper to lose than the floor; device 2 frees
/// compute by evicting device 0; and device 3 — whose gain did not
/// clear the old floor — now swaps out device 1.
#[test]
fn an_addition_that_lowers_the_floor_falls_back() {
    let problem = costed_rows(
        [2.0, 1.0],
        &[(0.3, 0.5, [2.0, 0.0]), (0.1, 0.1, [0.0, 1.0]), (0.4, 0.2, [1.0, 0.0]), (0.2, 0.3, [1.0, 1.0])],
    );
    let stats = admitted_by_the_fallback(&problem, vec![true, false, false, false], 3);
    assert_eq!((stats.swaps_accepted, stats.additions), (2, 1));
}

/// The second: a swap frees room for the cheapest candidate an addition
/// would help. Device 1 evicts the bigger device 0; device 2, which
/// neither fitted nor cleared the floor, is then added.
#[test]
fn a_swap_that_frees_room_for_an_addition_falls_back() {
    let problem =
        costed_rows([2.0, 1e9], &[(0.2, 0.5, [2.0, 0.1]), (0.3, 0.2, [1.0, 0.1]), (0.1, 0.3, [1.0, 0.1])]);
    let stats = admitted_by_the_fallback(&problem, vec![true, false, false], 2);
    assert_eq!((stats.swaps_accepted, stats.additions), (1, 1));
}

/// A seeded unit-cost fleet in the synthetic driver's shape: 0.8–1.1 W
/// panels, 30 chunks, battery 6–96 %, γ 0.1–0.6, one compute unit and
/// 0.1 GB a device, 0.22 compute units and 2 GB of edge capacity a
/// device (storage never binds), λ = 1.
fn unit_cost_fleet(n: usize, seed: u64) -> SlotProblem {
    let mut state = seed;
    let mut problem = SlotProblem::new(0.22 * n as f64, 2.0 * n as f64, 1.0, AnxietyCurve::paper_shape());
    for d in 0..n {
        let battery = 0.06 + 0.9 * coin(&mut state);
        let gamma = 0.1 + 0.5 * coin(&mut state);
        let watts = 0.8 + 0.05 * (d % 7) as f64;
        problem.push(DeviceRequest::uniform(watts, 10.0, 30, battery * CAPACITY_J, CAPACITY_J, gamma, 1.0, 0.1));
    }
    problem
}

/// Phase-2 probes only the rows that can change the selection: on a
/// unit-cost fleet every candidate but a few dozen loses to the floor,
/// so a cold solve makes a handful of probes where it made one per
/// candidate (3,125 — 78 % of the fleet — before the live set).
#[test]
fn a_unit_cost_cold_solve_probes_only_its_live_candidates() {
    let n = 4_000;
    let schedule = LpvsScheduler::paper_default().schedule(&unit_cost_fleet(n, 7)).unwrap();
    let phase2 = schedule.stats.phase2;
    assert_eq!((phase2.swaps_tried, phase2.swaps_accepted, phase2.additions), (10, 5, 0));
    // Swaps keep the count; additions take candidates out.
    let candidates = schedule.selected.iter().filter(|&&x| !x).count() + phase2.additions;
    assert!(phase2.swaps_tried * 50 < candidates, "{} probes, {candidates} candidates", phase2.swaps_tried);
}

/// The paper's Fig. 10 bar, in counted work: a cold slot expands one
/// branch-and-bound node, pivots nothing, and probes each candidate at
/// most once — live candidates plus the tie probes of the swaps it
/// accepts, so at most one probe per device.
#[test]
fn cold_slot_work_is_linear_in_the_cluster_size() {
    for n in [2_000usize, 8_000, 16_000] {
        let problem = synthetic_problem(n, 0.4 * n as f64, 1.0, 7);
        let schedule = LpvsScheduler::paper_default().schedule(&problem).unwrap();
        let stats = schedule.stats;
        assert!(
            stats.phase2.swaps_tried <= n,
            "N={n}: {} victim probes",
            stats.phase2.swaps_tried
        );
        assert_eq!(stats.phase1_pivots, 0, "N={n}");
        assert_eq!(stats.phase1_nodes, 1, "N={n}");
    }
}

/// The ladder's cost is monotone, in counted work: a rung below exact —
/// forced by the budget's solver floor — expands no branch-and-bound
/// node, pivots nothing and probes at most one victim per device, and
/// the reuse and passthrough rungs probe none.
#[test]
fn every_rung_below_exact_does_less_work() {
    let scheduler = LpvsScheduler::paper_default();
    for n in [2_000usize, 8_000, 16_000] {
        let problem = synthetic_problem(n, 0.4 * n as f64, 1.0, 7);
        let standing = scheduler.schedule(&problem).unwrap().selected;
        for rung in [Degradation::Greedy, Degradation::ReusedPrevious, Degradation::Passthrough] {
            let budget = SlotBudget::unbounded().with_solver_floor(rung);
            let stats = scheduler.schedule_resilient(&problem, Some(&standing), &budget).stats;
            assert_eq!(stats.degradation, rung, "N={n}");
            assert_eq!((stats.phase1_nodes, stats.phase1_pivots), (0, 0), "N={n}, {rung}");
            let probes = stats.phase2.swaps_tried;
            assert!(probes <= n, "N={n}, {rung}: {probes} victim probes");
            if rung > Degradation::Greedy {
                assert_eq!(probes, 0, "N={n}, {rung}");
            }
        }
    }
}
