//! Per-row accounting of a standing decision: the one way eq. 13 and
//! `energy_saved_j` are totalled.
//!
//! A row's eq.-13 term and saving term depend on that row's columns, its
//! own decision, λ and the curve — nothing else. [`RowAccounting`] keeps
//! both per row, re-evaluates only the rows named stale, and folds the
//! totals from the kept terms in index order, bit-identical to
//! evaluating every row — which is what an empty cache (a cold solve)
//! does. Derived state: never serialised, rebuilt at full price by
//! whoever finds none — but a cold solve that scored every row under
//! both decisions, before Phase-1, picks its terms from that score
//! (`from_scored`), and
//! a row is evaluated by one owner a slot: the shard that solved it
//! hands its terms on ([`RowAccounting::shipment`]) and the fleet join
//! adopts them ([`RowAccounting::adopt`]) instead of calling the kernel
//! again. The terms check nothing themselves: their owners (a shard's
//! delta memo, the fleet join) prove that the slot continues them
//! ([`Continuity`](crate::delta::Continuity)) and that every other row is unchanged.

use crate::fleet::{DeviceFleet, SlotView};
use crate::kernels::{device_objective_batch, Scores, Select};
use lpvs_survey::curve::AnxietyCurve;

/// Rows per eq.-13 kernel call: stack-resident index and decision
/// blocks, a multiple of the kernel's lane groups.
const BLOCK: usize = 512;

/// Terms handed from the cache that evaluated them to another one:
/// `(position, eq.-13 term, saving term in J)` each. Positions are the
/// sender's (a shard's are shard-local).
pub type ShardTerms = Vec<(usize, f64, f64)>;

/// The eq.-13 term and the saving term (J) of every row of a row list
/// under its current decision; positional, like the selection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowAccounting {
    objective: Vec<f64>,
    saving_j: Vec<f64>,
}

impl RowAccounting {
    /// The terms of `selected` over `view`, every row evaluated.
    pub fn of(view: SlotView<'_>, selected: &[bool]) -> Self {
        let mut terms = Self::default();
        terms.refresh(view.fleet(), Some(view.rows()), view.lambda(), view.curve(), selected, []);
        terms
    }

    /// [`RowAccounting::of`], bit for bit, picked from a score of every
    /// position ([`kernels::score_rows`](crate::kernels::score_rows)):
    /// the `on` and `saving` columns become the kept ones, and an
    /// unselected row reads `off` and a saving of 0.0. `selected` is the
    /// final selection, so a row masked out after Phase-2 reads them too.
    pub(crate) fn from_scored(selected: &[bool], scores: Scores) -> Self {
        let Scores { off, on: mut objective, saving: mut saving_j, .. } = scores;
        for (p, _) in selected.iter().enumerate().filter(|(_, &x)| !x) {
            (objective[p], saving_j[p]) = (off[p], 0.0);
        }
        Self { objective, saving_j }
    }

    /// Drops the kept terms (not their allocation): the next refresh
    /// evaluates every row.
    pub fn clear(&mut self) {
        self.objective.clear();
        self.saving_j.clear();
    }

    /// The kept terms at `positions`, to be adopted by another cache.
    pub fn shipment(&self, positions: impl IntoIterator<Item = usize>) -> ShardTerms {
        positions.into_iter().map(|p| (p, self.objective[p], self.saving_j[p])).collect()
    }

    /// Takes position `at`'s terms from whoever evaluated them — under
    /// the owner's λ and curve, on the row's current columns and
    /// decision: the caller's to prove, as with a stale set.
    pub fn adopt(&mut self, at: usize, objective: f64, saving_j: f64) {
        (self.objective[at], self.saving_j[at]) = (objective, saving_j);
    }

    /// Whether the kept terms cover `len` positions. When they do not,
    /// the cache is re-sized and every position of it is stale.
    pub fn keep(&mut self, len: usize) -> bool {
        let kept = self.objective.len() == len;
        if !kept {
            self.objective.resize(len, 0.0);
            self.saving_j.resize(len, 0.0);
        }
        kept
    }

    /// Brings the terms up to date with `selected` and returns how many
    /// rows were re-evaluated. Position `p` is fleet row `rows[p]`, or
    /// row `p` itself when `rows` is `None` (the whole fleet in order).
    /// `stale` names the positions whose columns or decision changed
    /// since the last refresh (under the owner's λ and curve); kept
    /// terms that do not cover `selected` position for position (an
    /// empty cache) make every row stale.
    ///
    /// # Panics
    ///
    /// Panics if a stale position or its row is out of bounds.
    pub fn refresh(
        &mut self,
        fleet: &DeviceFleet,
        rows: Option<&[usize]>,
        lambda: f64,
        curve: &AnxietyCurve,
        selected: &[bool],
        stale: impl IntoIterator<Item = usize>,
    ) -> usize {
        // The named positions when the terms are kept, else every one.
        let kept = self.keep(selected.len());
        let (named, every) = if kept { (usize::MAX, 0) } else { (0, selected.len()) };
        let mut stale = stale.into_iter().take(named).chain(0..every);

        let cols = fleet.columns();
        let (mut at, mut row, mut on) = ([0usize; BLOCK], [0usize; BLOCK], [false; BLOCK]);
        let mut terms = Vec::with_capacity(BLOCK);
        let mut evaluated = 0;
        loop {
            let mut n = 0;
            for p in stale.by_ref().take(BLOCK) {
                (at[n], row[n], on[n]) = (p, rows.map_or(p, |r| r[p]), selected[p]);
                n += 1;
            }
            if n == 0 {
                return evaluated;
            }
            terms.clear();
            let select = Select::PerPosition(&on[..n]);
            device_objective_batch(&cols, &row[..n], select, lambda, curve, &mut terms);
            for k in 0..n {
                self.objective[at[k]] = terms[k];
                // An unselected row contributes its literal 0.0.
                self.saving_j[at[k]] = if on[k] { fleet.saving_j(row[k]) } else { 0.0 };
            }
            evaluated += n;
        }
    }

    /// `(objective, energy_saved_j)`: both columns folded in index order
    /// from `Sum`'s identity, so the bits are those of summing freshly
    /// evaluated terms.
    pub fn fold(&self) -> (f64, f64) {
        (self.objective.iter().sum(), self.saving_j.iter().sum())
    }
}
