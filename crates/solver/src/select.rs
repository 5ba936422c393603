//! Weighted break selection: where a walk in key order that takes items
//! while they fit first stops, found without sorting the order.
//!
//! A greedy pass and a fractional knapsack fill read a density order
//! only up to their *break item*, the first item that no longer fits;
//! past it the fill stops and the greedy pass can take only the few
//! items that still fit what is left. The break is a weighted quantile
//! of the keys, so a quickselect that sums the weights of the side it
//! keeps finds it in expected O(n) (Balas & Zemel, Oper. Res. 1980):
//! the items before it come out as a set, in no particular order.
//!
//! A walk sums its weights one item at a time; a selection sums them in
//! partition order, which rounds differently. [`select_break`] therefore
//! trusts its break only when every decision the walk makes at it — the
//! last item that fits, the first that does not — clears the row's
//! [`Row::slack`], a bound on how far the two folds can lie apart. That
//! bound is 0 when the row is *exact*: every weight and the capacity sit
//! on one power-of-two grid small enough that no partial sum rounds
//! ([`Tally::row`]), as unit compute costs do. A caller that gets an
//! uncertified break walks the sorted order instead.

use crate::knapsack::{unpack, Packed};

/// Ranges this short are finished by taking their least key one at a
/// time instead of partitioning.
const SCAN: usize = 16;

/// A bound on how far two folds of the same `terms` non-negative numbers
/// (and the value they start from), each taken in its own order, can lie
/// apart, where `total` bounds the sum of their magnitudes: each fold
/// rounds by at most `γ_terms · total` (`γ_k ≈ k·u`, `u = ε / 2`), and
/// the `+ 8` covers the handful of roundings around them — a tolerance
/// added to a limit, a margin's subtraction, a quotient.
pub(crate) fn rounding(terms: usize, total: f64) -> f64 {
    (2 * terms + 8) as f64 * f64::EPSILON * total
}

/// The exponent of the lowest set bit of `x`: `x` is a whole multiple of
/// `2^e`. `i32::MAX` for ±0, a multiple of everything.
fn lsb_exponent(x: f64) -> i32 {
    let bits = x.to_bits() & !(1 << 63);
    if bits == 0 {
        return i32::MAX;
    }
    let (exponent, mantissa) = ((bits >> 52) as i32, bits & ((1 << 52) - 1));
    match exponent {
        0 => -1074 + mantissa.trailing_zeros() as i32,
        _ => exponent - 1075 + (mantissa | 1 << 52).trailing_zeros() as i32,
    }
}

/// The weights of one row as they are packed: their sum and the
/// coarsest power-of-two grid they all sit on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tally {
    /// The weights' sum.
    pub sum: f64,
    lsb: i32,
}

impl Tally {
    pub(crate) fn new() -> Self {
        Self { sum: 0.0, lsb: i32::MAX }
    }

    #[inline]
    pub(crate) fn add(&mut self, weight: f64) {
        self.sum += weight;
        self.lsb = self.lsb.min(lsb_exponent(weight));
    }

    /// The row a walk over `terms` of these weights reads when it starts
    /// from `start` and takes an item while its weight is at most what
    /// is left plus `tolerance`. The row is exact when the start and
    /// every weight are multiples of one `2^e` whose partial sums stay
    /// below `2^53 · 2^e`, so that no sum rounds in any order, and
    /// `2^e > 2 · tolerance`, so that adding the tolerance to what is
    /// left moves no comparison with a weight.
    pub(crate) fn row<'w>(&self, weights: &'w [f64], start: f64, tolerance: f64, terms: usize) -> Row<'w> {
        let lsb = self.lsb.min(lsb_exponent(start));
        let total = start.abs() + self.sum + tolerance;
        let exact = lsb == i32::MAX
            || (total <= 2f64.powi(52 + lsb)
                && (tolerance == 0.0 || 2f64.powi(lsb) > 2.0 * tolerance));
        Row { weights, limit: start + tolerance, tolerance, exact, terms }
    }
}

/// One capacity row as [`select_break`] reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'w> {
    /// Weight per item index.
    pub weights: &'w [f64],
    /// A prefix fits while its summed weight is at most this: what the
    /// walk starts from, plus its tolerance.
    pub limit: f64,
    tolerance: f64,
    /// Whether no sum of the row rounds ([`Tally::row`]).
    exact: bool,
    /// How many weights a walk of the row sums at most.
    terms: usize,
}

impl Row<'_> {
    /// How far what a walk has left of the row, once it has taken
    /// `used`, may lie from the same amount folded in another order: a
    /// decision within this of the limit is not trusted. 0 on an exact
    /// row.
    pub(crate) fn slack(&self, used: f64) -> f64 {
        if self.exact {
            0.0
        } else {
            rounding(self.terms, self.limit.abs() + used.abs() + 2.0 * self.tolerance)
        }
    }
}

/// Where the walk stops.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Break<const R: usize> {
    /// How many items fit: buffer positions `..at` hold them, position
    /// `at` the break item (`at` = the length when every item fits).
    pub at: usize,
    /// Per row, the summed weight of the items that fit.
    pub used: [f64; R],
    /// Whether the walk is certain to stop at `at`: the items that fit
    /// do by more than each row's slack, and the break item overfills
    /// some row by more than its slack.
    pub certified: bool,
}

/// Per row, the weight the entries of `part` carry, summed four ways.
fn weigh<const R: usize>(part: &[Packed], rows: &[Row<'_>; R]) -> [f64; R] {
    let mut lanes = [[0.0; R]; 4];
    let mut quads = part.chunks_exact(4);
    for quad in &mut quads {
        for (lane, &entry) in lanes.iter_mut().zip(quad) {
            let i = unpack(entry);
            for (sum, row) in lane.iter_mut().zip(rows) {
                *sum += row.weights[i];
            }
        }
    }
    for (lane, &entry) in lanes.iter_mut().zip(quads.remainder()) {
        for (sum, row) in lane.iter_mut().zip(rows) {
            *sum += row.weights[unpack(entry)];
        }
    }
    std::array::from_fn(|r| (lanes[0][r] + lanes[1][r]) + (lanes[2][r] + lanes[3][r]))
}

/// Finds the break of a walk over `buf` in key order (the order
/// [`key_order`](crate::knapsack::key_order) sorts) that takes each item
/// while every row's summed weight stays within its limit, and moves the
/// items that fit to the front of `buf`, the break item right after
/// them. `totals` are the rows' summed weights over `buf`.
///
/// Each round guesses the break's rank in the open range from the
/// range's mean weights, brackets the guess with two selections (the far
/// one over the whole range, the near one inside it) and weighs the
/// parts between them, so a good guess leaves only the bracket open: a
/// pass over the range and one over the shorter side, expected. Nothing
/// is sorted.
pub(crate) fn select_break<const R: usize>(
    buf: &mut [Packed],
    rows: &[Row<'_>; R],
    totals: [f64; R],
) -> Break<R> {
    let weight = |entry: Packed, r: usize| rows[r].weights[unpack(entry)];
    let with = |used: &[f64; R], entry: Packed| -> [f64; R] {
        std::array::from_fn(|r| used[r] + weight(entry, r))
    };
    let plus = |a: &[f64; R], b: &[f64; R]| -> [f64; R] { std::array::from_fn(|r| a[r] + b[r]) };
    let fits = |used: &[f64; R]| (0..R).all(|r| used[r] <= rows[r].limit);
    let (mut lo, mut hi, mut used, mut open) = (0, buf.len(), [0.0; R], totals);
    // Positions `..lo` fit, in key order before every position from
    // `lo` on; the break lies in `lo..=hi`, and position `hi` (when it
    // is not the end) holds the least key past `lo..hi`, which weigh
    // `open` between them.
    let at = loop {
        let len = hi - lo;
        if len <= SCAN {
            break loop {
                if lo == hi {
                    break lo;
                }
                let least = (lo..hi).min_by_key(|&j| buf[j]).expect("a non-empty range");
                buf.swap(lo, least);
                let through = with(&used, buf[lo]);
                if !fits(&through) {
                    break lo;
                }
                (used, lo) = (through, lo + 1);
            };
        }
        let share = (0..R)
            .filter(|&r| open[r] > 0.0)
            .map(|r| (rows[r].limit - used[r]) / open[r])
            .fold(1.0, f64::min)
            .max(0.0);
        let guess = lo + (share * len as f64) as usize;
        let reach = (2 * (len as f64).sqrt() as usize).min(len / 4);
        let (a, b) = (guess.saturating_sub(reach).max(lo), (guess + reach).min(hi - 1));
        if a - lo <= hi - b {
            buf[lo..hi].select_nth_unstable(b - lo);
            if a < b {
                buf[lo..b].select_nth_unstable(a - lo);
            }
        } else {
            buf[lo..hi].select_nth_unstable(a - lo);
            if a < b {
                buf[a + 1..hi].select_nth_unstable(b - a - 1);
            }
        }
        // Now `lo..a` < `a` < `a + 1..b` < `b` < `b + 1..hi`.
        let below = weigh(&buf[lo..a], rows);
        let before = plus(&used, &below);
        if !fits(&before) {
            (hi, open) = (a, below);
            continue;
        }
        let through = with(&before, buf[a]);
        if !fits(&through) {
            used = before;
            break a;
        }
        let spent = plus(&below, &with(&[0.0; R], buf[a]));
        if a < b {
            let between = weigh(&buf[a + 1..b], rows);
            let before = plus(&through, &between);
            if !fits(&before) {
                (used, lo, hi, open) = (through, a + 1, b, between);
                continue;
            }
            let past = with(&before, buf[b]);
            if !fits(&past) {
                used = before;
                break b;
            }
            let spent = plus(&spent, &with(&between, buf[b]));
            (used, lo) = (past, b + 1);
            open = std::array::from_fn(|r| open[r] - spent[r]);
        } else {
            (used, lo) = (through, a + 1);
            open = std::array::from_fn(|r| open[r] - spent[r]);
        }
    };
    let prefix_fits = at == 0 || (0..R).all(|r| rows[r].limit - used[r] >= rows[r].slack(used[r]));
    let break_overfills = at == buf.len()
        || (0..R).any(|r| {
            let through = used[r] + weight(buf[at], r);
            rows[r].limit - through < -rows[r].slack(through)
        });
    Break { at, used, certified: prefix_fits && break_overfills }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knapsack::{pack, Direction};

    /// The walk in sorted order, for comparison.
    fn walk(keys: &[f64], weights: &[f64], limit: f64) -> usize {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &b| keys[b].total_cmp(&keys[a]).then(a.cmp(&b)));
        let mut used = 0.0;
        for (at, &i) in order.iter().enumerate() {
            if used + weights[i] > limit {
                return at;
            }
            used += weights[i];
        }
        order.len()
    }

    #[test]
    fn the_break_is_the_walks_on_every_limit() {
        let n = 300;
        let keys: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
        let weights: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64).collect();
        let total: f64 = weights.iter().sum();
        for limit in [0.0, 1.0, 5.0, 100.0, 0.5 * total, total - 1.0, total, total + 1.0] {
            let mut buf: Vec<Packed> =
                keys.iter().enumerate().map(|(i, &k)| pack(k, i, Direction::Descending)).collect();
            let mut tally = Tally::new();
            weights.iter().for_each(|&w| tally.add(w));
            let row = tally.row(&weights, limit, 0.0, n);
            let found = select_break(&mut buf, &[row], [total]);
            assert_eq!(found.at, walk(&keys, &weights, limit), "limit {limit}");
            assert!(found.certified);
            let mut prefix: Vec<usize> = buf[..found.at].iter().map(|&e| unpack(e)).collect();
            prefix.sort_unstable();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| keys[b].total_cmp(&keys[a]).then(a.cmp(&b)));
            let mut expected = order[..found.at].to_vec();
            expected.sort_unstable();
            assert_eq!(prefix, expected);
            if found.at < n {
                assert_eq!(unpack(buf[found.at]), order[found.at]);
            }
        }
    }

    #[test]
    fn a_break_within_the_slack_is_not_certified() {
        let weights = [0.1, 0.2, 0.3];
        let mut buf: Vec<Packed> = (0..3).map(|i| pack(-(i as f64), i, Direction::Descending)).collect();
        let mut tally = Tally::new();
        weights.iter().for_each(|&w| tally.add(w));
        let row = tally.row(&weights, 0.3, 0.0, 3);
        assert!(!select_break(&mut buf, &[row], [0.6]).certified);
    }

    #[test]
    fn grids_are_found() {
        assert_eq!(lsb_exponent(1.0), 0);
        assert_eq!(lsb_exponent(3.0), 0);
        assert_eq!(lsb_exponent(0.75), -2);
        assert_eq!(lsb_exponent(-6.0), 1);
        assert_eq!(lsb_exponent(0.0), i32::MAX);
        assert_eq!(lsb_exponent(f64::from_bits(1)), -1074);
        let mut unit = Tally::new();
        (0..16_000).for_each(|_| unit.add(1.0));
        assert_eq!(unit.row(&[], 3_520.0, 1e-12, 16_000).slack(3_520.0), 0.0);
        let mut tenths = Tally::new();
        (0..10).for_each(|_| tenths.add(0.1));
        assert!(tenths.row(&[], 0.5, 0.0, 10).slack(0.5) > 0.0);
        let mut fine = Tally::new();
        fine.add(2f64.powi(-40));
        assert!(fine.row(&[], 1.0, 1e-12, 1).slack(1.0) > 0.0, "a tolerance the grid cannot absorb");
        assert_eq!(fine.row(&[], 1.0, 0.0, 1).slack(1.0), 0.0);
    }
}
