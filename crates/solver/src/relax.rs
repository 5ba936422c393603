//! LP relaxation of knapsack-shaped 0/1 programs without a tableau.
//!
//! LPVS Phase-1 is a knapsack over at most two capacity rows (compute
//! and storage): every row is `≤` with non-negative data. The
//! relaxation of such a program does not need a simplex — its optimum
//! has at most one fractional variable per binding row and can be read
//! off density orders:
//!
//! * **no row binds** — every profitable free item is taken whole;
//! * **one row binds** — the classic fractional knapsack on that row
//!   (take items by descending `value / weight`, the first that does
//!   not fit fractionally). If the other row holds at that point it is
//!   the optimum of the two-row program too, because it is the optimum
//!   of a relaxation of it;
//! * **both rows bind** — the second row is dualized with a multiplier
//!   `μ ≥ 0`. For fixed `μ` the inner problem is a one-row fractional
//!   knapsack on the reduced values `v − μ·b`; the second row's slack
//!   at its solution is non-decreasing in `μ`, so bisection brackets
//!   the optimal multiplier down to adjacent floats, and blending the
//!   two bracketing solutions so that the second row is tight gives a
//!   feasible point with (generically) two fractional entries. The
//!   reported objective is the dual value `L(μ)`, which bounds the
//!   relaxation for *every* `μ` by weak duality — branch-and-bound
//!   pruning stays sound whatever the convergence.
//!
//! A fill reads its order only up to the break item, so the root of a
//! branch-and-bound is first read off break items found by selection
//! (`crate::select`), without sorting: `select_solve` returns the
//! bound with how far the sorted solve's can lie from it, or declines
//! when a decision is within that rounding or both rows bind. A row's
//! density order is sorted only when a sorted solve first reads it and
//! is reused by every later node, so a node with one binding row costs
//! O(n) and a row that never binds is never sorted: the second row's
//! order is read only once the first row's fill overfills it, the
//! multiplier search walks the first row's alone.
//! [`crate::ilp`] uses this for every program [`KnapsackRelaxation::of`]
//! accepts and keeps the general simplex for the rest (`≥` / `=` rows,
//! negative data, more than two rows).

use crate::knapsack::{key_order, pack, unpack, Direction, Packed};
use crate::problem::{BinaryProgram, Sense};
use crate::select::{rounding, select_break, Tally};
use crate::SolverError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Items fixed to 1 may overfill a row by this much before the
/// fixings count as infeasible.
const EPS_FEAS: f64 = 1e-9;
/// Cap on multiplier bisections. Reaching adjacent floats takes about
/// 60 from a bracket of the multiplier's own magnitude; the cap only
/// matters for multipliers many orders below the bracket, where the
/// answer stays a sound bound and a feasible point.
const MAX_BISECTIONS: usize = 128;

/// Optimum of a [`KnapsackRelaxation`] under one set of fixings.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaxedKnapsack {
    /// Value per variable in `[0, 1]`; at most one entry per binding
    /// row is fractional (barring exact density ties).
    pub x: Vec<f64>,
    /// Optimal objective in the program's orientation. With both rows
    /// binding this is the dual value at the converged multiplier: it
    /// never understates a maximum (overstates a minimum), and exceeds
    /// `objective · x` by no more than the bisection residual.
    pub objective: f64,
    /// Shadow price per row in the program's orientation, as
    /// [`LpSolution::duals`](crate::simplex::LpSolution::duals): the
    /// rate of change of the optimum per unit *increase* of the row's
    /// right-hand side.
    pub duals: Vec<f64>,
}

/// The LP relaxation of a knapsack-shaped [`BinaryProgram`] with at
/// most two rows, solvable under any fixings in O(n) per binding row.
///
/// # Example
///
/// ```
/// use lpvs_solver::{BinaryProgram, KnapsackRelaxation, Relation, Sense};
///
/// # fn main() -> Result<(), lpvs_solver::SolverError> {
/// let mut p = BinaryProgram::new(Sense::Maximize, vec![60.0, 100.0, 120.0])?;
/// p.add_constraint(vec![10.0, 20.0, 30.0], Relation::Le, 50.0)?;
/// let relaxed = KnapsackRelaxation::of(&p).expect("one ≤ row").solve(p.fixings())?;
/// assert_eq!(relaxed.x, vec![1.0, 1.0, 2.0 / 3.0]);
/// assert!((relaxed.objective - 240.0).abs() < 1e-9);
/// assert!((relaxed.duals[0] - 4.0).abs() < 1e-12); // the critical item's density
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KnapsackRelaxation<'a> {
    program: &'a BinaryProgram,
    /// Value per item in maximization form.
    values: Vec<f64>,
    /// Per row, the profitable items by descending `value / weight`
    /// (weightless items first, ties to the lowest index), on first use.
    orders: Vec<OnceLock<Vec<usize>>>,
    /// Keys sorted so far: the row orders and the bisection's inner orders.
    sorted: AtomicUsize,
}

/// One-row fractional knapsack solution inside [`KnapsackRelaxation`].
struct Fill {
    /// Share taken of each item offered; 0 elsewhere.
    x: Vec<f64>,
    /// Total (reduced) value of the filled items.
    value: f64,
    /// Density of the item the row ran out on; 0 if every item fit.
    price: f64,
}

/// The inner problem's solution at one multiplier of the second row.
struct DualPoint {
    mu: f64,
    fill: Fill,
    /// Second-row capacity left at `fill.x`.
    slack: f64,
    /// `L(μ)` without the fixed items' value.
    dual_value: f64,
}

fn density(value: f64, weight: f64) -> f64 {
    if weight > 0.0 {
        value / weight
    } else {
        f64::INFINITY
    }
}

/// Takes `items` (in density order) whole while `weights` fit in
/// `capacity`, and the first that does not fractionally.
fn fill(
    items: impl Iterator<Item = usize>,
    value_of: impl Fn(usize) -> f64,
    weights: &[f64],
    capacity: f64,
) -> Fill {
    let mut x = vec![0.0; weights.len()];
    let mut value = 0.0;
    let mut remaining = capacity;
    for i in items {
        if weights[i] <= remaining {
            x[i] = 1.0;
            value += value_of(i);
            remaining -= weights[i];
        } else {
            x[i] = remaining / weights[i];
            value += value_of(i) * x[i];
            return Fill {
                x,
                value,
                price: value_of(i) / weights[i],
            };
        }
    }
    Fill {
        x,
        value,
        price: 0.0,
    }
}

fn usage(weights: &[f64], x: &[f64]) -> f64 {
    weights.iter().zip(x).map(|(w, v)| w * v).sum()
}

/// The members of a density order no fixing has decided.
fn free<'s>(order: &'s [usize], fixings: &'s [Option<bool>]) -> impl Iterator<Item = usize> + 's {
    order.iter().copied().filter(|&i| fixings[i].is_none())
}

impl<'a> KnapsackRelaxation<'a> {
    /// Prepares the relaxation of `program`, or `None` when the program
    /// is not a knapsack over at most two rows (some row is `≥` / `=`
    /// or has negative data, or there are more than two rows) — those
    /// need the general simplex.
    pub fn of(program: &'a BinaryProgram) -> Option<Self> {
        if program.rows().len() > 2 || !program.is_knapsack_shaped() {
            return None;
        }
        let values: Vec<f64> = match program.sense() {
            Sense::Maximize => program.objective().to_vec(),
            Sense::Minimize => program.objective().iter().map(|c| -c).collect(),
        };
        let orders = program.rows().iter().map(|_| OnceLock::new()).collect();
        Some(Self {
            program,
            values,
            orders,
            sorted: AtomicUsize::new(0),
        })
    }

    /// The density order of `row`, sorted by the first call.
    fn order(&self, row: usize) -> &[usize] {
        self.orders[row].get_or_init(|| {
            let coeffs = &self.program.rows()[row].coeffs;
            let keyed = (0..self.values.len())
                .filter(|&i| self.values[i] > 0.0)
                .map(|i| (density(self.values[i], coeffs[i]), i));
            let order = key_order(keyed, Direction::Descending);
            self.sorted.fetch_add(order.len(), Ordering::Relaxed);
            order
        })
    }

    /// How many keys the solves so far sorted.
    pub(crate) fn keys_sorted(&self) -> usize {
        self.sorted.load(Ordering::Relaxed)
    }

    /// The fixed-in items' value and what they leave of each row, or
    /// [`SolverError::Infeasible`] when they overfill one.
    fn fixed_in(&self, fixings: &[Option<bool>]) -> Result<(f64, Vec<f64>), SolverError> {
        let rows = self.program.rows();
        let mut fixed_value = 0.0;
        let mut capacity: Vec<f64> = rows.iter().map(|r| r.rhs).collect();
        for i in (0..self.values.len()).filter(|&i| fixings[i] == Some(true)) {
            fixed_value += self.values[i];
            for (cap, row) in capacity.iter_mut().zip(rows) {
                *cap -= row.coeffs[i];
            }
        }
        if capacity.iter().any(|&cap| cap < -EPS_FEAS) {
            return Err(SolverError::Infeasible);
        }
        for cap in &mut capacity {
            *cap = cap.max(0.0);
        }
        Ok((fixed_value, capacity))
    }

    /// Solves the relaxation with each variable free (`None`) or fixed
    /// (`Some`), typically the program's own fixings overlaid with a
    /// branch-and-bound node's.
    ///
    /// # Errors
    ///
    /// [`SolverError::Infeasible`] when the variables fixed to 1 alone
    /// overfill a row.
    ///
    /// # Panics
    ///
    /// Panics if `fixings.len()` differs from the number of variables.
    pub fn solve(&self, fixings: &[Option<bool>]) -> Result<RelaxedKnapsack, SolverError> {
        let n = self.values.len();
        assert_eq!(fixings.len(), n, "fixings length mismatch");
        let rows = self.program.rows();

        // Fixed-in items are part of every solution and shrink the rows.
        let (fixed_value, capacity) = self.fixed_in(fixings)?;

        // The rest is a knapsack of the free profitable items over what
        // capacity is left.
        let value_of = |i: usize| self.values[i];
        let (mut x, value, duals) = match rows {
            [] => {
                let mut x = vec![0.0; n];
                let mut value = 0.0;
                for i in (0..n).filter(|&i| fixings[i].is_none() && self.values[i] > 0.0) {
                    x[i] = 1.0;
                    value += self.values[i];
                }
                (x, value, Vec::new())
            }
            [row] => {
                let f = fill(
                    free(self.order(0), fixings),
                    value_of,
                    &row.coeffs,
                    capacity[0],
                );
                (f.x, f.value, vec![f.price])
            }
            [first, second] => {
                // One binding row: optimal as soon as the other holds.
                let on_first = fill(
                    free(self.order(0), fixings),
                    value_of,
                    &first.coeffs,
                    capacity[0],
                );
                let second_slack = capacity[1] - usage(&second.coeffs, &on_first.x);
                if second_slack >= 0.0 {
                    (on_first.x, on_first.value, vec![on_first.price, 0.0])
                } else {
                    let on_second = fill(
                        free(self.order(1), fixings),
                        value_of,
                        &second.coeffs,
                        capacity[1],
                    );
                    if usage(&first.coeffs, &on_second.x) <= capacity[0] {
                        (on_second.x, on_second.value, vec![0.0, on_second.price])
                    } else {
                        let lo = DualPoint {
                            mu: 0.0,
                            dual_value: on_first.value,
                            fill: on_first,
                            slack: second_slack,
                        };
                        self.search_multiplier(fixings, &capacity, lo)
                    }
                }
            }
            _ => unreachable!("`of` admits at most two rows"),
        };
        for i in (0..n).filter(|&i| fixings[i] == Some(true)) {
            x[i] = 1.0;
        }
        let orient = match self.program.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        Ok(RelaxedKnapsack {
            x,
            objective: orient * (fixed_value + value),
            duals: duals.into_iter().map(|d| orient * d).collect(),
        })
    }

    /// Both rows bind: bisects the second row's multiplier from `lo`
    /// (the first-row-only solution, which overfills the second row) and
    /// returns the blended point, the dual bound and both prices.
    fn search_multiplier(
        &self,
        fixings: &[Option<bool>],
        capacity: &[f64],
        mut lo: DualPoint,
    ) -> (Vec<f64>, f64, Vec<f64>) {
        let rows = self.program.rows();
        let (a, b) = (&rows[0].coeffs, &rows[1].coeffs);
        let items: Vec<usize> = free(self.order(0), fixings).collect();
        // `key_order`'s packed keys, in one buffer across the bisection.
        let mut keyed: Vec<Packed> = Vec::with_capacity(items.len());
        let mut at = |mu: f64| -> DualPoint {
            let reduced = |i: usize| self.values[i] - mu * b[i];
            keyed.clear();
            keyed.extend(
                items
                    .iter()
                    .filter(|&&i| reduced(i) > 0.0)
                    .map(|&i| pack(density(reduced(i), a[i]), i, Direction::Descending)),
            );
            keyed.sort_unstable();
            self.sorted.fetch_add(keyed.len(), Ordering::Relaxed);
            let f = fill(keyed.iter().map(|&k| unpack(k)), reduced, a, capacity[0]);
            let slack = capacity[1] - usage(b, &f.x);
            DualPoint {
                mu,
                dual_value: f.value + mu * capacity[1],
                fill: f,
                slack,
            }
        };

        // Past twice the best value per unit of the second row no item
        // that uses the row is worth taking, so the row has slack.
        let steepest = items
            .iter()
            .filter(|&&i| b[i] > 0.0)
            .map(|&i| self.values[i] / b[i])
            .fold(0.0, f64::max);
        let mut hi = at((2.0 * steepest).min(f64::MAX));
        for _ in 0..MAX_BISECTIONS {
            let mid = lo.mu + 0.5 * (hi.mu - lo.mu);
            // A tight second row at an inner optimum is the optimum.
            if hi.slack == 0.0 || mid <= lo.mu || mid >= hi.mu {
                break;
            }
            let point = at(mid);
            if point.slack < 0.0 {
                lo = point;
            } else {
                hi = point;
            }
        }

        // Both ends respect the first row, so their blend does; weight
        // them so that the second row is exactly used up.
        let theta = (hi.slack / (hi.slack - lo.slack)).clamp(0.0, 1.0);
        let x = lo
            .fill
            .x
            .iter()
            .zip(&hi.fill.x)
            .map(|(&l, &h)| theta * l + (1.0 - theta) * h)
            .collect();
        (
            x,
            lo.dual_value.min(hi.dual_value),
            vec![hi.fill.price, hi.mu],
        )
    }

    /// The objective [`solve`](Self::solve) finds under `fixings`, read
    /// off break items found by selection instead of sorted orders, and a
    /// bound on how far `solve`'s can lie from it (its sums are folded
    /// in another order). `None` when the fixings are infeasible, when
    /// both rows bind, or when a decision of the solve — a row's break,
    /// the sign of the second row's slack under the first row's fill,
    /// the first row's check of the second row's fill — lies within its
    /// rounding bound: `solve` decides those. Nothing is sorted.
    ///
    /// # Panics
    ///
    /// Panics if `fixings.len()` differs from the number of variables.
    ///
    /// # Example
    ///
    /// ```
    /// use lpvs_solver::{BinaryProgram, KnapsackRelaxation, Relation, Sense};
    ///
    /// # fn main() -> Result<(), lpvs_solver::SolverError> {
    /// let mut p = BinaryProgram::new(Sense::Maximize, vec![60.0, 100.0, 120.0])?;
    /// p.add_constraint(vec![10.0, 20.0, 30.0], Relation::Le, 50.0)?;
    /// let relaxation = KnapsackRelaxation::of(&p).expect("one ≤ row");
    /// let (objective, error) = relaxation.selected_objective(p.fixings()).expect("a certain break");
    /// assert!((objective - 240.0).abs() <= error && error < 1e-9);
    /// assert!((objective - relaxation.solve(p.fixings())?.objective).abs() <= error);
    /// # Ok(())
    /// # }
    /// ```
    pub fn selected_objective(&self, fixings: &[Option<bool>]) -> Option<(f64, f64)> {
        assert_eq!(fixings.len(), self.values.len(), "fixings length mismatch");
        self.select_solve(fixings, &mut Vec::new())
    }

    /// [`selected_objective`](Self::selected_objective) over a buffer of
    /// packed keys the caller keeps.
    pub(crate) fn select_solve(
        &self,
        fixings: &[Option<bool>],
        buf: &mut Vec<Packed>,
    ) -> Option<(f64, f64)> {
        let (fixed_value, capacity) = self.fixed_in(fixings).ok()?;
        let (value, error) = match self.program.rows() {
            [_] => {
                let on = self.select_fill(0, None, fixings, capacity[0], buf)?;
                (on.value, on.value_error)
            }
            [first, second] => {
                let other = Some((second.coeffs.as_slice(), capacity[1]));
                let on_first = self.select_fill(0, other, fixings, capacity[0], buf)?;
                let second_slack = capacity[1] - on_first.other;
                if second_slack >= on_first.other_error {
                    (on_first.value, on_first.value_error)
                } else if second_slack < -on_first.other_error {
                    let other = Some((first.coeffs.as_slice(), capacity[0]));
                    let on_second = self.select_fill(1, other, fixings, capacity[1], buf)?;
                    if capacity[0] - on_second.other < on_second.other_error {
                        return None;
                    }
                    (on_second.value, on_second.value_error)
                } else {
                    return None;
                }
            }
            _ => return None,
        };
        let orient = match self.program.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        let total = fixed_value + value;
        Some((orient * total, error + rounding(2, fixed_value.abs() + value.abs() + error)))
    }

    /// `row`'s fill of the free profitable items into `capacity`, by
    /// [`select_break`]: its value and its use of the `other` row
    /// (weights, capacity), each with a bound on how far the sorted
    /// fill's fold lies from it. `None` when the break is uncertified.
    fn select_fill(
        &self,
        row: usize,
        other: Option<(&[f64], f64)>,
        fixings: &[Option<bool>],
        capacity: f64,
        buf: &mut Vec<Packed>,
    ) -> Option<SelectedFill> {
        let weights = self.program.rows()[row].coeffs.as_slice();
        buf.clear();
        buf.reserve(self.values.len());
        let mut tally = Tally::new();
        for i in (0..self.values.len()).filter(|&i| self.values[i] > 0.0 && fixings[i].is_none()) {
            buf.push(pack(density(self.values[i], weights[i]), i, Direction::Descending));
            tally.add(weights[i]);
        }
        let row = tally.row(weights, capacity, 0.0, buf.len());
        let found = select_break(buf, &[row], [tally.sum]);
        if !found.certified {
            return None;
        }
        let (other_weights, other_capacity) = other.unwrap_or((weights, 0.0));
        let (mut value, mut used) = (0.0, 0.0);
        for &entry in &buf[..found.at] {
            let i = unpack(entry);
            value += self.values[i];
            used += other_weights[i];
        }
        // The break item's share: bit for bit the walk's on an exact
        // row, within the slack's worth of it otherwise.
        let (mut value_error, mut other_error) = (0.0, 0.0);
        if let Some(&entry) = buf.get(found.at) {
            let i = unpack(entry);
            let share = (capacity - found.used[0]) / weights[i];
            let slack = row.slack(found.used[0]);
            let share_error = if slack == 0.0 { 0.0 } else { slack / weights[i] + f64::EPSILON };
            value += self.values[i] * share;
            used += other_weights[i] * share;
            value_error = self.values[i] * share_error;
            other_error = other_weights[i] * share_error;
        }
        let terms = found.at + 1;
        Some(SelectedFill {
            value,
            value_error: value_error + rounding(terms, value),
            other: used,
            other_error: other_error + rounding(terms, other_capacity + used),
        })
    }
}

/// A fill found by [`KnapsackRelaxation::select_fill`].
struct SelectedFill {
    /// The fill's value.
    value: f64,
    /// How far the sorted fill's value can lie from `value`.
    value_error: f64,
    /// What the fill uses of the other row.
    other: f64,
    /// How far the sorted fill's use of the other row, subtracted from
    /// its capacity, can lie from `other`'s.
    other_error: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Relation;
    use crate::simplex::LinearProgram;

    fn program(values: &[f64], rows: &[(&[f64], f64)]) -> BinaryProgram {
        let mut p = BinaryProgram::new(Sense::Maximize, values.to_vec()).unwrap();
        for &(w, cap) in rows {
            p.add_constraint(w.to_vec(), Relation::Le, cap).unwrap();
        }
        p
    }

    fn simplex(p: &BinaryProgram) -> crate::simplex::LpSolution {
        let mut lp = LinearProgram::maximize(p.objective().to_vec()).unwrap();
        for row in p.rows() {
            lp.add_row(row.coeffs.clone(), row.relation, row.rhs)
                .unwrap();
        }
        for (i, f) in p.fixings().iter().enumerate() {
            let (lower, upper) = match f {
                None => (0.0, 1.0),
                Some(true) => (1.0, 1.0),
                Some(false) => (0.0, 0.0),
            };
            lp.set_bounds(i, lower, upper).unwrap();
        }
        lp.solve().unwrap()
    }

    fn relaxed(p: &BinaryProgram) -> RelaxedKnapsack {
        KnapsackRelaxation::of(p)
            .expect("knapsack-shaped")
            .solve(p.fixings())
            .unwrap()
    }

    const VALUES: [f64; 6] = [60.0, 100.0, 120.0, 40.0, 75.0, 33.0];
    const W1: [f64; 6] = [10.0, 20.0, 30.0, 5.0, 15.0, 12.0];
    const W2: [f64; 6] = [2.0, 3.0, 1.0, 4.0, 2.0, 3.5];

    #[test]
    fn everything_fits_is_integral_and_free() {
        let r = relaxed(&program(&VALUES, &[(&W1, 1e3), (&W2, 1e3)]));
        assert_eq!(r.x, vec![1.0; 6]);
        assert_eq!(r.duals, vec![0.0, 0.0]);
        assert_eq!(r.objective, VALUES.iter().sum::<f64>());
    }

    #[test]
    fn either_single_binding_row_matches_the_simplex() {
        for rows in [
            [(&W1[..], 55.0), (&W2[..], 1e3)],
            [(&W1[..], 1e3), (&W2[..], 7.0)],
        ] {
            let p = program(&VALUES, &rows);
            let (r, lp) = (relaxed(&p), simplex(&p));
            assert!(
                (r.objective - lp.objective).abs() < 1e-9,
                "{} vs {}",
                r.objective,
                lp.objective
            );
            assert_eq!(r.x.iter().filter(|v| v.fract() != 0.0).count(), 1);
            for (ours, theirs) in r.duals.iter().zip(&lp.duals) {
                assert!(
                    (ours - theirs).abs() < 1e-9,
                    "{:?} vs {:?}",
                    r.duals,
                    lp.duals
                );
            }
        }
    }

    #[test]
    fn two_binding_rows_match_the_simplex() {
        let p = program(&VALUES, &[(&W1, 55.0), (&W2, 7.0)]);
        let (r, lp) = (relaxed(&p), simplex(&p));
        assert!((r.objective - lp.objective).abs() < 1e-9 * lp.objective);
        let value: f64 = VALUES.iter().zip(&r.x).map(|(v, x)| v * x).sum();
        assert!(r.objective >= value && r.objective - value < 1e-9 * value);
        assert!((usage(&W1, &r.x) - 55.0).abs() < 1e-9);
        assert!((usage(&W2, &r.x) - 7.0).abs() < 1e-9);
        assert!(r.x.iter().filter(|v| v.fract() != 0.0).count() <= 2);
        for (ours, theirs) in r.duals.iter().zip(&lp.duals) {
            assert!(
                (ours - theirs).abs() < 1e-6,
                "{:?} vs {:?}",
                r.duals,
                lp.duals
            );
        }
    }

    #[test]
    fn fixings_are_honoured_and_can_be_infeasible() {
        let mut p = program(&VALUES, &[(&W1, 55.0), (&W2, 7.0)]);
        p.fix(3, true).unwrap();
        p.fix(2, false).unwrap();
        let (r, lp) = (relaxed(&p), simplex(&p));
        assert_eq!((r.x[3], r.x[2]), (1.0, 0.0));
        assert!((r.objective - lp.objective).abs() < 1e-9 * lp.objective);

        p.fix(1, true).unwrap(); // items 1 and 3 need 7 of row 2 …
        p.fix(0, true).unwrap(); // … and item 0 overfills it
        let relaxation = KnapsackRelaxation::of(&p).unwrap();
        assert_eq!(relaxation.solve(p.fixings()), Err(SolverError::Infeasible));
    }

    #[test]
    fn a_row_filled_exactly_is_priced_at_the_next_item() {
        // Capacity for exactly the two best items: one more unit of
        // capacity would go to the third.
        let p = program(&[9.0, 8.0, 6.0, 1.0], &[(&[1.0, 1.0, 1.0, 1.0], 2.0)]);
        let r = relaxed(&p);
        assert_eq!(r.x, vec![1.0, 1.0, 0.0, 0.0]);
        assert_eq!(r.duals, vec![6.0]);
    }

    #[test]
    fn minimization_is_reported_in_the_callers_orientation() {
        let mut p = BinaryProgram::new(Sense::Minimize, vec![-6.0, -5.0, 3.0]).unwrap();
        p.add_constraint(vec![2.0, 2.0, 1.0], Relation::Le, 3.0)
            .unwrap();
        let r = relaxed(&p);
        assert_eq!(r.x, vec![1.0, 0.5, 0.0]);
        assert_eq!(r.objective, -8.5);
        assert_eq!(r.duals, vec![-2.5]);
    }

    #[test]
    fn other_shapes_are_left_to_the_simplex() {
        let mut ge = BinaryProgram::new(Sense::Minimize, vec![1.0, 2.0]).unwrap();
        ge.add_constraint(vec![1.0, 1.0], Relation::Ge, 1.0)
            .unwrap();
        assert!(KnapsackRelaxation::of(&ge).is_none());
        let negative = program(&[1.0, 2.0], &[(&[1.0, -1.0], 1.0)]);
        assert!(KnapsackRelaxation::of(&negative).is_none());
        let w = [1.0, 1.0];
        let three = program(&[1.0, 2.0], &[(&w, 1.0), (&w, 1.0), (&w, 1.0)]);
        assert!(KnapsackRelaxation::of(&three).is_none());
    }
}
