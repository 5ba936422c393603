//! Greedy and dynamic-programming knapsack heuristics.
//!
//! These serve two roles in LPVS:
//!
//! 1. seeding the branch-and-bound incumbent in [`crate::ilp`], and
//! 2. acting as the ablation baseline for the "ILP solver path" study
//!    (DESIGN.md §5): how much does exact Phase-1 buy over a greedy
//!    multi-knapsack selection?

use crate::select::{select_break, Row, Tally};

/// Result of a greedy knapsack pass.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyOutcome {
    /// Chosen value per item.
    pub x: Vec<bool>,
    /// Total value of the chosen items.
    pub value: f64,
    /// Remaining slack per capacity row.
    pub residual: Vec<f64>,
}

/// Greedy selection for the multi-dimensional 0/1 knapsack.
///
/// Items are ranked by value divided by their *scaled* aggregate weight
/// (each row's weight normalized by that row's capacity, so rows with
/// tight capacity dominate the ranking), then inserted while all rows
/// still fit. `fixings` pins items in (`Some(true)`) or out
/// (`Some(false)`) before the greedy pass; pinned-in items consume
/// capacity even if that makes a row negative — callers should verify
/// the outcome with their own feasibility check.
///
/// `rows` is a slice of `(weights, capacity)` pairs; all weights are
/// expected nonnegative (violations simply make the ranking less
/// meaningful, never unsound).
///
/// # Panics
///
/// Panics if any row's weight vector length differs from `values.len()`
/// or `fixings.len() != values.len()`.
///
/// # Example
///
/// ```
/// use lpvs_solver::greedy_multi_knapsack;
///
/// let values = [60.0, 100.0, 40.0];
/// let weights = [10.0, 20.0, 30.0];
/// let out = greedy_multi_knapsack(&values, &[(&weights[..], 30.0)], &[None, None, None]);
/// assert_eq!(out.value, 160.0);
/// ```
pub fn greedy_multi_knapsack(
    values: &[f64],
    rows: &[(&[f64], f64)],
    fixings: &[Option<bool>],
) -> GreedyOutcome {
    assert_eq!(fixings.len(), values.len(), "fixings length mismatch");
    for (w, _) in rows {
        assert_eq!(w.len(), values.len(), "row weight length mismatch");
    }
    greedy_in_order(&density_order(values, rows), values, rows, fixings)
}

/// The items [`greedy_multi_knapsack`] takes — its `x`, the same
/// selection — found the way the branch-and-bound seeds its root: by
/// break selection, sorting only the items past the break that fit what
/// it left, where every decision of the pass is certain; by the sorted
/// walk where one lies within its rounding.
///
/// # Panics
///
/// As [`greedy_multi_knapsack`].
///
/// # Example
///
/// ```
/// use lpvs_solver::knapsack::greedy_selection;
///
/// let x = greedy_selection(&[60.0, 100.0, 120.0], &[(&[10.0, 20.0, 30.0][..], 50.0)], &[None; 3]);
/// assert_eq!(x, vec![true, true, false]);
/// ```
pub fn greedy_selection(values: &[f64], rows: &[(&[f64], f64)], fixings: &[Option<bool>]) -> Vec<bool> {
    assert_eq!(fixings.len(), values.len(), "fixings length mismatch");
    for (w, _) in rows {
        assert_eq!(w.len(), values.len(), "row weight length mismatch");
    }
    match greedy_by_selection(values, rows, fixings, &mut Vec::new()) {
        Some((x, _)) => x,
        None => greedy_in_order(&density_order(values, rows), values, rows, fixings).x,
    }
}

/// Which way a [`key_order`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Least key first.
    Ascending,
    /// Greatest key first.
    Descending,
}

/// The indices of `keyed` ordered by key, ties to the lowest index:
/// the order a stable sort by [`f64::total_cmp`] produces, NaN and −0.0
/// included (descending, a positive NaN sorts first and +0.0 before
/// −0.0).
///
/// Each `(key, index)` is packed once into a `u128` key — the key's
/// bits mapped to their total order in the high half (flipped for
/// descending), the index in the low half — and the integers are sorted:
/// no float comparator runs, and no two packed keys are equal, so the
/// unstable sort is the stable order. The `u128` is held as its
/// `(high, low)` halves, which order as it does: a pair laid out like the
/// `(f64, usize)` pairs it replaces, so the index column is collected in
/// place (a `u128`'s 16-byte alignment would cost a second buffer) and
/// the buffer then shrunk to the order's own size, which lives on in an
/// index or a branch-and-bound.
///
/// # Example
///
/// ```
/// use lpvs_solver::knapsack::{key_order, Direction};
///
/// let keyed = [(2.0, 0), (f64::NAN, 1), (2.0, 2), (-0.0, 3), (0.0, 4)];
/// assert_eq!(key_order(keyed, Direction::Descending), vec![1, 0, 2, 4, 3]);
/// assert_eq!(key_order(keyed, Direction::Ascending), vec![3, 4, 0, 2, 1]);
/// ```
pub fn key_order(
    keyed: impl IntoIterator<Item = (f64, usize)>,
    direction: Direction,
) -> Vec<usize> {
    let mut packed: Vec<Packed> =
        keyed.into_iter().map(|(key, i)| pack(key, i, direction)).collect();
    packed.sort_unstable();
    let mut order: Vec<usize> = packed.into_iter().map(unpack).collect();
    order.shrink_to_fit();
    order
}

/// [`key_order`] for keys a `partial_cmp(..).expect(what)` comparator
/// ordered: −0.0 ties +0.0 (`+ 0.0` maps the one to the other), and a
/// NaN key panics with `what`.
///
/// # Panics
///
/// Panics if any key is NaN.
pub fn partial_key_order(
    keyed: impl IntoIterator<Item = (f64, usize)>,
    direction: Direction,
    what: &str,
) -> Vec<usize> {
    let normalized = keyed.into_iter().map(|(key, i)| {
        assert!(!key.is_nan(), "{what}");
        (key + 0.0, i)
    });
    key_order(normalized, direction)
}

/// A [`key_order`] entry: the `u128` key `high << 64 | low` as its
/// `(high, low)` halves.
pub(crate) type Packed = (u64, u64);

/// One [`key_order`] entry: the order of the result is `total_cmp`
/// order of the key (negative keys have every bit flipped, the others
/// their sign bit set), then index order.
pub(crate) fn pack(key: f64, index: usize, direction: Direction) -> Packed {
    let bits = key.to_bits();
    let total = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
    let total = match direction {
        Direction::Ascending => total,
        Direction::Descending => !total,
    };
    (total, index as u64)
}

/// The index a [`pack`]ed entry carries.
pub(crate) fn unpack((_, index): Packed) -> usize {
    index as usize
}

/// The items worth taking (`value > 0`) by descending scaled density,
/// each key computed once. Fixings are left to the walks, so one order
/// serves the greedy pass and the branch-and-bound's rounding refills.
pub(crate) fn density_order(values: &[f64], rows: &[(&[f64], f64)]) -> Vec<usize> {
    let keyed = (0..values.len())
        .filter(|&i| values[i] > 0.0)
        .map(|i| (scaled_density(values, rows, i), i));
    key_order(keyed, Direction::Descending)
}

/// The [`density_order`] of the free items as a branch-and-bound walks
/// it — pinned items are never taken by a walk past the pinned-in ones,
/// so leaving them out takes the same items — sorted from the packed
/// keys in `keys`, which [`greedy_by_selection`] leaves there (packed
/// here when it left none).
pub(crate) fn free_density_order(
    values: &[f64],
    rows: &[(&[f64], f64)],
    fixings: &[Option<bool>],
    keys: &mut Vec<Packed>,
) -> Vec<usize> {
    if keys.is_empty() {
        let free = (0..values.len()).filter(|&i| values[i] > 0.0 && fixings[i].is_none());
        keys.extend(free.map(|i| pack(scaled_density(values, rows, i), i, Direction::Descending)));
    }
    keys.sort_unstable();
    keys.iter().map(|&entry| unpack(entry)).collect()
}

/// Item `i`'s [`density_order`] key: its value over its weights, each
/// scaled by its row's capacity.
fn scaled_density(values: &[f64], rows: &[(&[f64], f64)], i: usize) -> f64 {
    let scaled: f64 = rows
        .iter()
        .map(|&(w, cap)| if cap > 0.0 { w[i] / cap } else { f64::INFINITY })
        .sum();
    if scaled <= 0.0 {
        f64::INFINITY // free item: always profitable
    } else {
        values[i] / scaled
    }
}

/// The items [`greedy_in_order`] takes over the [`density_order`],
/// without sorting it: the free items before the greedy pass's break
/// ([`select_break`]) are taken as a set; past the break only items
/// that fit what the break left can enter (what is left only shrinks),
/// so only those are sorted and walked. Returns the selection and how
/// many keys it sorted — exactly the items past the break that fit what
/// it left — or `None` when a decision of the pass lies within a row's
/// rounding slack of its capacity: the caller then walks the sorted
/// order. Leaves the free items' packed keys in `buf`, in some order
/// (nothing when it has no selection for this many rows).
pub(crate) fn greedy_by_selection(
    values: &[f64],
    rows: &[(&[f64], f64)],
    fixings: &[Option<bool>],
    buf: &mut Vec<Packed>,
) -> Option<(Vec<bool>, usize)> {
    match *rows {
        [a] => greedy_rows([a], values, rows, fixings, buf),
        [a, b] => greedy_rows([a, b], values, rows, fixings, buf),
        _ => {
            buf.clear();
            None
        }
    }
}

/// [`greedy_by_selection`] over `R` rows.
fn greedy_rows<const R: usize>(
    capacity_rows: [(&[f64], f64); R],
    values: &[f64],
    rows: &[(&[f64], f64)],
    fixings: &[Option<bool>],
    buf: &mut Vec<Packed>,
) -> Option<(Vec<bool>, usize)> {
    const TOLERANCE: f64 = 1e-12; // the walk's, in `refill`
    let weights: [&[f64]; R] = capacity_rows.map(|(w, _)| w);
    // What is left once the pinned-in items are taken, summed as the
    // walk sums it.
    let mut x = vec![false; values.len()];
    let mut left = capacity_rows.map(|(_, cap)| cap);
    for i in (0..values.len()).filter(|&i| fixings[i] == Some(true)) {
        x[i] = true;
        for (r, w) in left.iter_mut().zip(weights) {
            *r -= w[i];
        }
    }
    buf.clear();
    buf.reserve(values.len());
    let mut tallies = [Tally::new(); R];
    for i in (0..values.len()).filter(|&i| values[i] > 0.0 && fixings[i].is_none()) {
        buf.push(pack(scaled_density(values, rows, i), i, Direction::Descending));
        for (tally, w) in tallies.iter_mut().zip(weights) {
            tally.add(w[i]);
        }
    }
    let terms = buf.len();
    let spec: [Row<'_>; R] = std::array::from_fn(|r| tallies[r].row(weights[r], left[r], TOLERANCE, terms));
    let found = select_break(buf, &spec, tallies.map(|t| t.sum));
    if !found.certified {
        return None;
    }
    for &entry in &buf[..found.at] {
        x[unpack(entry)] = true;
    }
    if found.at == buf.len() {
        return Some((x, 0));
    }
    for (r, used) in left.iter_mut().zip(found.used) {
        *r -= used;
    }
    // How each item fits what is left: per row, what is left with the
    // walk's tolerance less its weight — `Some(true)` when every row
    // holds it, `Some(false)` when one does not, beyond the row's
    // slack; `None` when that is too close to call.
    let mut spent = found.used;
    let fit = |i: usize, left: &[f64; R], spent: &[f64; R]| -> Option<bool> {
        let margin: [f64; R] = std::array::from_fn(|r| (left[r] + TOLERANCE) - weights[r][i]);
        let slack: [f64; R] = std::array::from_fn(|r| spec[r].slack(spent[r]));
        if (0..R).all(|r| margin[r] >= slack[r]) {
            Some(true)
        } else if (0..R).any(|r| margin[r] < -slack[r]) {
            Some(false)
        } else {
            None
        }
    };
    // Past the break only what fits what the break left can enter.
    let rest = &mut buf[found.at + 1..];
    let mut kept = 0;
    for j in 0..rest.len() {
        if fit(unpack(rest[j]), &left, &spent)? {
            rest.swap(kept, j);
            kept += 1;
        }
    }
    let tail = &mut rest[..kept];
    tail.sort_unstable();
    for &entry in tail.iter() {
        let i = unpack(entry);
        if fit(i, &left, &spent)? {
            x[i] = true;
            for r in 0..R {
                left[r] -= weights[r][i];
                spent[r] += weights[r][i];
            }
        }
    }
    Some((x, kept))
}

/// The greedy pass over a precomputed [`density_order`]: pinned-in items
/// first, then every free item of the order that still fits.
pub(crate) fn greedy_in_order(
    order: &[usize],
    values: &[f64],
    rows: &[(&[f64], f64)],
    fixings: &[Option<bool>],
) -> GreedyOutcome {
    let mut out = GreedyOutcome {
        x: vec![false; values.len()],
        value: 0.0,
        residual: rows.iter().map(|&(_, cap)| cap).collect(),
    };
    for i in (0..values.len()).filter(|&i| fixings[i] == Some(true)) {
        out.take(i, values, rows);
    }
    out.refill(order, values, rows, fixings);
    out
}

impl GreedyOutcome {
    fn take(&mut self, i: usize, values: &[f64], rows: &[(&[f64], f64)]) {
        self.x[i] = true;
        self.value += values[i];
        for (r, &(w, _)) in self.residual.iter_mut().zip(rows) {
            *r -= w[i];
        }
    }

    /// Walks `order` and takes every item neither taken already nor
    /// pinned out that fits the residual on every row.
    pub(crate) fn refill(
        &mut self,
        order: &[usize],
        values: &[f64],
        rows: &[(&[f64], f64)],
        fixings: &[Option<bool>],
    ) {
        for &i in order {
            let open = !self.x[i] && fixings[i] != Some(false);
            if open && rows.iter().zip(&self.residual).all(|(&(w, _), &r)| w[i] <= r + 1e-12) {
                self.take(i, values, rows);
            }
        }
    }
}

/// Exact single-constraint 0/1 knapsack by dynamic programming over a
/// discretized capacity grid.
///
/// Weights and the capacity are scaled onto `resolution` integer cells
/// (weights rounded **up**, so the result is always feasible for the
/// original real-valued capacity, merely possibly sub-optimal by the
/// discretization error). Returns the chosen items and their total
/// value.
///
/// # Panics
///
/// Panics if `weights.len() != values.len()` or `resolution == 0`.
///
/// # Example
///
/// ```
/// use lpvs_solver::dp_knapsack;
///
/// let (x, value) = dp_knapsack(&[60.0, 100.0, 120.0], &[10.0, 20.0, 30.0], 50.0, 1000);
/// assert_eq!(value, 220.0);
/// assert_eq!(x, vec![false, true, true]);
/// ```
pub fn dp_knapsack(
    values: &[f64],
    weights: &[f64],
    capacity: f64,
    resolution: usize,
) -> (Vec<bool>, f64) {
    let n = values.len();
    assert_eq!(weights.len(), n, "weights length mismatch");
    assert!(resolution > 0, "resolution must be positive");
    if capacity <= 0.0 || n == 0 {
        return (vec![false; n], 0.0);
    }

    let scale = resolution as f64 / capacity;
    let cap = resolution;
    let w: Vec<usize> = weights.iter().map(|&wi| (wi.max(0.0) * scale).ceil() as usize).collect();

    // dp[c] = best value with capacity c; keep[i][c] records choices.
    let mut dp = vec![0.0f64; cap + 1];
    let mut keep = vec![false; n * (cap + 1)];
    for i in 0..n {
        if values[i] <= 0.0 || w[i] > cap {
            continue;
        }
        // Iterate capacity downward for the 0/1 property.
        for c in (w[i]..=cap).rev() {
            let candidate = dp[c - w[i]] + values[i];
            if candidate > dp[c] {
                dp[c] = candidate;
                keep[i * (cap + 1) + c] = true;
            }
        }
    }

    // Backtrack.
    let mut x = vec![false; n];
    let mut c = cap;
    for i in (0..n).rev() {
        if keep[i * (cap + 1) + c] {
            x[i] = true;
            c -= w[i];
        }
    }
    let value = values.iter().zip(&x).map(|(v, &s)| if s { *v } else { 0.0 }).sum();
    (x, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_single_row_classic() {
        // Density order is 0 (6.0), 1 (5.0), 2 (4.0): greedy takes items
        // 0 and 1 (weight 30) and cannot fit item 2 — the well-known
        // greedy gap versus the exact optimum of 220.
        let out = greedy_multi_knapsack(
            &[60.0, 100.0, 120.0],
            &[(&[10.0, 20.0, 30.0][..], 50.0)],
            &[None, None, None],
        );
        assert_eq!(out.x, vec![true, true, false]);
        assert_eq!(out.value, 160.0);
        assert!((out.residual[0] - 20.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_respects_pinned_out() {
        let out = greedy_multi_knapsack(
            &[60.0, 100.0, 120.0],
            &[(&[10.0, 20.0, 30.0][..], 50.0)],
            &[None, Some(false), None],
        );
        assert!(!out.x[1]);
        assert_eq!(out.value, 180.0);
    }

    #[test]
    fn greedy_respects_pinned_in() {
        let out = greedy_multi_knapsack(
            &[1.0, 100.0],
            &[(&[10.0, 10.0][..], 10.0)],
            &[Some(true), None],
        );
        assert!(out.x[0]);
        assert!(!out.x[1]); // no capacity left
        assert_eq!(out.value, 1.0);
    }

    #[test]
    fn greedy_two_rows_tightest_dominates() {
        // Row 2 is tight: item 0 is cheap on row 1 but expensive on row
        // 2; item 1 is the reverse. Scaled density ranks item 1 first.
        let out = greedy_multi_knapsack(
            &[10.0, 10.0],
            &[(&[1.0, 8.0][..], 100.0), (&[9.0, 1.0][..], 10.0)],
            &[None, None],
        );
        assert!(out.x[0] && out.x[1]); // both actually fit
        assert_eq!(out.value, 20.0);
    }

    #[test]
    fn greedy_skips_nonpositive_values() {
        let out = greedy_multi_knapsack(
            &[0.0, -5.0, 3.0],
            &[(&[1.0, 1.0, 1.0][..], 10.0)],
            &[None, None, None],
        );
        assert_eq!(out.x, vec![false, false, true]);
    }

    #[test]
    fn greedy_zero_capacity_row() {
        let out = greedy_multi_knapsack(
            &[5.0, 5.0],
            &[(&[1.0, 0.0][..], 0.0)],
            &[None, None],
        );
        // Item 0 needs capacity that does not exist; item 1 weighs zero.
        assert_eq!(out.x, vec![false, true]);
    }

    #[test]
    fn dp_matches_known_optimum() {
        let (x, value) = dp_knapsack(&[60.0, 100.0, 120.0], &[10.0, 20.0, 30.0], 50.0, 500);
        assert_eq!(value, 220.0);
        assert_eq!(x, vec![false, true, true]);
    }

    #[test]
    fn dp_beats_greedy_on_trap_instance() {
        let values = [10.0, 7.0, 7.0];
        let weights = [5.0, 4.0, 4.0];
        let greedy = greedy_multi_knapsack(
            &values,
            &[(&weights[..], 8.0)],
            &[None, None, None],
        );
        assert_eq!(greedy.value, 10.0);
        let (_, dp_value) = dp_knapsack(&values, &weights, 8.0, 800);
        assert!(dp_value > greedy.value);
        assert_eq!(dp_value, 14.0);
    }

    #[test]
    fn dp_result_is_always_feasible() {
        // Rounding weights up must never overshoot the real capacity.
        let values = [7.0, 9.0, 4.0, 6.0];
        let weights = [2.3, 3.7, 1.1, 2.9];
        let cap = 6.0;
        let (x, _) = dp_knapsack(&values, &weights, cap, 100);
        let used: f64 = weights.iter().zip(&x).map(|(w, &s)| if s { *w } else { 0.0 }).sum();
        assert!(used <= cap + 1e-9);
    }

    #[test]
    fn dp_empty_and_zero_capacity() {
        assert_eq!(dp_knapsack(&[], &[], 10.0, 10), (vec![], 0.0));
        let (x, v) = dp_knapsack(&[5.0], &[1.0], 0.0, 10);
        assert_eq!((x, v), (vec![false], 0.0));
    }
}
