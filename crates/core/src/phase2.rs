//! Phase-2: anxiety-driven swapping (paper §V-C).
//!
//! Phase-1 maximizes energy savings but is blind to *who* is anxious: a
//! device at 80 % battery with a big panel can out-save a dying phone.
//! Phase-2 repairs this: unselected devices are ranked by their owners'
//! anxiety degree (φ of the reported battery fraction) and each is
//! tentatively swapped against selected devices; a swap is kept only
//! when the full λ-weighted objective (eq. 13) decreases and both
//! capacity rows still hold.
//!
//! The objective is separable per device (see [`crate::objective`]), so
//! a swap's delta is the candidate's gain plus the victim's *eviction
//! loss* `off − on`, and the best victim for a candidate is the
//! cheapest-to-evict selected device whose departure makes room. The
//! selected devices are therefore kept in a `VictimIndex` — ordered
//! by eviction loss, searchable for the first one that fits — and a
//! candidate costs O(log n) instead of a scan of the cluster, which is
//! what makes the heuristic's runtime near-linear in the cluster size
//! (paper Fig. 10).
//!
//! **Tie-break contract.** Among the fitting victims whose total delta
//! `gain + loss` is equal as a float (distinct losses can round to one
//! delta), the lowest device index is evicted — exactly what a scan of
//! the victims in index order keeping the first strict minimum would
//! choose, and what `tests/solve_linear.rs` pins against that scan.
//!
//! The first fitting victim has the least delta and every tie shares
//! it, so a least delta that is rejected (`≥ −1e-12`) ends the candidate
//! after **one probe**; only a swap that will be accepted probes on. And
//! that victim's loss is at least the *floor*, the least selected loss,
//! so a gain the floor rejects needs no probe at all. A pass ranks and
//! indexes only its *live set*, the candidates a pure addition or the
//! starting floor admits, and falls back once to every candidate and row
//! when the state loosens (DESIGN §4c).
//!
//! **Scoring.** Phase-2 reads each in-scope row's transform feasibility
//! and its eq.-13 term under both decisions, all from one walk of the
//! row's chunks ([`kernels::score_rows`]). A solve scores its view once,
//! before Phase-1, and hands that score to Phase-1, to Phase-2
//! (`run_phase2_scored`: no kernel runs here) and to the totals of the
//! final selection (`Scores::fold`); the delta path hands Phase-2 its
//! frontier's entries of the shard's score the same way. The public
//! [`run_phase2_over`] scores its scope itself, in the same one walk.
//!
//! **Orders.** The candidate ranking and the eviction-loss order are
//! integer-key sorts (`lpvs_solver::knapsack::partial_key_order`): each
//! key is packed once, with its position, into a `u128`, and no
//! comparator runs. They order as the `partial_cmp` comparators they
//! replaced did — −0.0 ties +0.0, ties go to the lowest position, and a
//! NaN key panics, which the resilient ladder turns into its next rung.

use crate::fleet::{with_problem_view, SlotView};
use crate::kernels::{self, Scores};
use crate::problem::SlotProblem;
use crate::work::Laps;
use lpvs_solver::knapsack::{partial_key_order, Direction};
use serde::{Deserialize, Serialize};

/// Statistics of one Phase-2 run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Phase2Stats {
    /// Victim probes made: fitting (candidate, victim) pairs whose
    /// delta was computed, plus one per pure-addition test that fit. A
    /// candidate outside the live set, or whose gain the floor already
    /// rejects, costs none; the rest cost one, plus the tie probes of
    /// a swap that is going to be accepted.
    pub swaps_tried: usize,
    /// Swaps that improved the objective and were kept.
    pub swaps_accepted: usize,
    /// Unselected devices additionally admitted without eviction
    /// (possible when Phase-1 left capacity slack).
    pub additions: usize,
}

/// The devices a pass can select, ordered by eviction loss, with a max-(compute,
/// storage) segment tree over the *selected* ones, answering "which is
/// the cheapest selected device to evict that frees at least this much
/// of both rows" by a leftmost-fit descent.
///
/// Devices are addressed by their slot in the scope; a position is a
/// rank in the loss order.
struct VictimIndex {
    /// Slot per position: ascending `(loss, slot)`.
    order: Vec<usize>,
    /// Position per slot (`usize::MAX` off the index).
    position: Vec<usize>,
    /// Number of leaves (a power of two ≥ the member count).
    leaves: usize,
    /// Heap-ordered tree, root at 1: per node the largest compute and
    /// storage cost among the selected leaves below it, −∞ if none (an
    /// unselected leaf can never make room).
    max_cost: Vec<[f64; 2]>,
}

const NO_VICTIM: [f64; 2] = [f64::NEG_INFINITY; 2];

impl VictimIndex {
    /// Indexes `members`, slots of a scope of `n`: `loss(slot)` orders
    /// them, `cost(slot)` is a slot's (compute, storage) cost if it is
    /// currently selected.
    fn new(
        n: usize,
        members: Vec<usize>,
        loss: impl Fn(usize) -> f64,
        cost: impl Fn(usize) -> Option<[f64; 2]>,
    ) -> Self {
        let keyed = members.into_iter().map(|slot| (loss(slot), slot));
        let order = partial_key_order(keyed, Direction::Ascending, "finite objective terms");
        let mut position = vec![usize::MAX; n];
        for (p, &slot) in order.iter().enumerate() {
            position[slot] = p;
        }
        let leaves = order.len().next_power_of_two();
        let mut max_cost = vec![NO_VICTIM; 2 * leaves];
        for (p, &slot) in order.iter().enumerate() {
            max_cost[leaves + p] = cost(slot).unwrap_or(NO_VICTIM);
        }
        for node in (1..leaves).rev() {
            max_cost[node] = Self::join(max_cost[2 * node], max_cost[2 * node + 1]);
        }
        Self { order, position, leaves, max_cost }
    }

    fn join(a: [f64; 2], b: [f64; 2]) -> [f64; 2] {
        [a[0].max(b[0]), a[1].max(b[1])]
    }

    /// Marks `slot` selected with `cost`, or unselected with `None`.
    fn set(&mut self, slot: usize, cost: Option<[f64; 2]>) {
        let mut node = self.leaves + self.position[slot];
        self.max_cost[node] = cost.unwrap_or(NO_VICTIM);
        while node > 1 {
            node /= 2;
            self.max_cost[node] = Self::join(self.max_cost[2 * node], self.max_cost[2 * node + 1]);
        }
    }

    /// First position at or after `from` whose selected device `fits`.
    /// `fits` must be monotone — true for a cost pair implies true for
    /// any pair at least as large in both — so a subtree whose maxima
    /// do not fit holds no fitting leaf and is skipped.
    fn first_fit(&self, from: usize, fits: &impl Fn([f64; 2]) -> bool) -> Option<usize> {
        self.descend(1, 0, self.leaves, from, fits)
    }

    fn descend(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        from: usize,
        fits: &impl Fn([f64; 2]) -> bool,
    ) -> Option<usize> {
        if hi <= from || !fits(self.max_cost[node]) {
            return None;
        }
        if hi - lo == 1 {
            return Some(lo);
        }
        let mid = lo + (hi - lo) / 2;
        self.descend(2 * node, lo, mid, from, fits)
            .or_else(|| self.descend(2 * node + 1, mid, hi, from, fits))
    }
}

/// Runs Phase-2 in place on a Phase-1 selection — the row adapter over
/// [`run_phase2_over`]: loads the problem into columns once, swaps over
/// the whole of it.
///
/// # Panics
///
/// Panics if `selected.len()` differs from the device count.
pub fn run_phase2(problem: &SlotProblem, selected: &mut [bool]) -> Phase2Stats {
    with_problem_view(problem, |view| run_phase2_over(view, selected, None, &mut Laps::default()).0)
}

/// Phase-2 over a view, optionally restricted to a subset of its
/// positions — the delta scheduler's dirty frontier. Both candidates
/// (devices swapped *in*) and victims (devices swapped *out*) must lie
/// in `allowed`, so rows outside the frontier keep their standing
/// decision verbatim: the pure-addition criterion holds with respect to
/// every clean row. `allowed: None` swaps over the whole view. Returns
/// the swap statistics and the chunk steps of scoring the scope (lapped with the ranking).
///
/// # Panics
///
/// Panics if `selected.len()` differs from the device count or an
/// allowed position is out of range.
pub fn run_phase2_over(
    view: SlotView<'_>,
    selected: &mut [bool],
    allowed: Option<&[usize]>,
    laps: &mut Laps,
) -> (Phase2Stats, u64) {
    assert_eq!(selected.len(), view.len(), "selection has wrong length");
    // The scope in ascending position order, so that slot order is
    // device order wherever a tie falls back on it. Everything below is
    // sized by the scope, not the view.
    let scope: Vec<usize> = match allowed {
        None => (0..view.len()).collect(),
        Some(positions) => {
            let mut scope = positions.to_vec();
            scope.sort_unstable();
            scope.dedup();
            scope
        }
    };
    // Only scoped rows are scored (out-of-scope rows are never read as
    // candidates *or* victims), so a delta solve pays O(frontier·K),
    // not O(N·K) — in one walk of each row's chunks.
    let (scores, steps) = {
        let rows: Vec<usize> = scope.iter().map(|&p| view.rows()[p]).collect();
        let cols = view.columns();
        (kernels::score_rows(&cols, &rows, view.lambda(), view.curve()), kernels::chunk_steps(&cols, &rows))
    };
    (swap(view, selected, &scope, &scores, laps, false), steps)
}

/// Phase-2 over `scope` (ascending, distinct view positions; `None`:
/// the whole view) on a score of the scope's rows, slot for slot — a
/// full solve's, made once before Phase-1, or a delta solve's frontier
/// entries of its shard's score.
pub(crate) fn run_phase2_scored(
    view: SlotView<'_>,
    selected: &mut [bool],
    scope: Option<&[usize]>,
    scores: &Scores,
    laps: &mut Laps,
) -> Phase2Stats {
    assert_eq!(selected.len(), view.len(), "selection has wrong length");
    let whole: Vec<usize>;
    let scope = match scope {
        Some(scope) => scope,
        None => {
            whole = (0..view.len()).collect();
            &whole
        }
    };
    swap(view, selected, scope, scores, laps, false)
}

/// Positions by descending anxiety degree, ties to the lowest position:
/// Phase-2's candidate ranking, which the fleet rebalance shares. Keys
/// are `(φ, position)` pairs.
///
/// # Panics
///
/// Panics if an anxiety degree is NaN.
pub fn rank_by_anxiety(keyed: impl IntoIterator<Item = (f64, usize)>) -> Vec<usize> {
    partial_key_order(keyed, Direction::Descending, "finite anxiety")
}

/// The swap loop over `scope` (ascending view positions), reading each
/// scoped row's feasibility and eq.-13 terms from `scores` by its slot
/// in the scope; its rank, index and probe stages go to `laps`. It starts
/// from the live set or, when `complete`, from every candidate and scope
/// row; debug builds rerun each pass complete and compare the decisions.
fn swap(
    view: SlotView<'_>,
    selected: &mut [bool],
    scope: &[usize],
    scores: &Scores,
    laps: &mut Laps,
    mut complete: bool,
) -> Phase2Stats {
    let start = (cfg!(debug_assertions) && !complete).then(|| selected.to_vec());
    let mut stats = Phase2Stats::default();
    let Scores { feasible, off, on, .. } = scores;
    let curve = view.curve();
    let (compute, storage) = (view.compute_capacity() + 1e-9, view.storage_capacity_gb() + 1e-9);
    let room = |[g, h]: [f64; 2], g_used: f64, h_used: f64| g_used + g <= compute && h_used + h <= storage;

    // The current capacity usage.
    let [mut g_used, mut h_used] = (0..view.len()).filter(|&position| selected[position]).fold([0.0; 2], |[g, h], position| {
        let [dg, dh] = view.cost(position);
        [g + dg, h + dh]
    });
    let cost = |slot: usize| view.cost(scope[slot]);
    // What evicting a device costs the objective; admitting it gains
    // the negation (negative = improvement).
    let loss = |slot: usize| off[slot] - on[slot];
    let gain = |slot: usize| on[slot] - off[slot];
    // The selected in-scope devices, whose least loss is the floor (no
    // selected device is cheaper to evict), and the candidates:
    // unselected, transform-feasible, in-scope devices.
    let (chosen, candidates): (Vec<usize>, Vec<usize>) = (0..scope.len())
        .filter(|&slot| selected[scope[slot]] || feasible[slot])
        .partition(|&slot| selected[scope[slot]]);
    let live_floor = chosen.iter().map(|&slot| loss(slot)).fold(f64::INFINITY, f64::min);
    let mut floor = live_floor;

    // The live candidates can change the selection from the start, by a
    // pure addition or by a swap whose gain clears the floor; `cheapest`
    // is the componentwise least cost of the others an addition would help.
    let mut cheapest = [f64::INFINITY; 2];
    let live: Vec<usize> = candidates.iter().copied().filter(|&slot| {
        if complete || gain(slot) + live_floor < -1e-12 {
            return true;
        }
        let ([g, h], addable) = (cost(slot), gain(slot) < -1e-12);
        let fits = addable && room([g, h], g_used, h_used);
        if addable && !fits {
            cheapest = [cheapest[0].min(g), cheapest[1].min(h)];
        }
        fits
    }).collect();
    // By descending anxiety degree, ties in device order.
    let rank = |slots: &[usize]| {
        rank_by_anxiety(slots.iter().map(|&slot| (curve.phi(view.battery_fraction(scope[slot])), slot)))
    };
    let mut ranked = rank(&live);
    laps.lap("sched.phase2.rank");

    // Every device that can be selected during the loop: the selected
    // ones and the live candidates.
    let index = |selected: &[bool], members: Vec<usize>| {
        VictimIndex::new(scope.len(), members, loss, |slot| selected[scope[slot]].then(|| cost(slot)))
    };
    let members = if complete { (0..scope.len()).collect() } else { [chosen, live].concat() };
    let mut victims = index(selected, members);
    laps.lap("sched.phase2.index");

    let mut next = 0;
    while let Some(&cand) = ranked.get(next) {
        next += 1;
        let [g_cand, h_cand] = cost(cand);
        let gain_in = gain(cand);
        let used = (g_used, h_used);
        'probe: {
            // Pure addition when slack allows.
            if room([g_cand, h_cand], g_used, h_used) {
                stats.swaps_tried += 1;
                if gain_in < -1e-12 {
                    selected[scope[cand]] = true;
                    victims.set(cand, Some([g_cand, h_cand]));
                    g_used += g_cand;
                    h_used += h_cand;
                    stats.additions += 1;
                    floor = floor.min(loss(cand));
                }
                break 'probe;
            }
            // Otherwise evict for the best total delta
            // Δ = (on − off)[cand] + (off − on)[victim]: the first fitting
            // victim in loss order, unless the floor already rejects Δ. Δ
            // is monotone in the loss, so only later victims rounding to
            // the *same* Δ can still win, on their index — and only if
            // that Δ is accepted at all.
            let fits = |[g_victim, h_victim]: [f64; 2]| {
                g_used - g_victim + g_cand <= compute && h_used - h_victim + h_cand <= storage
            };
            let fitting = if gain_in + floor < -1e-12 { victims.first_fit(0, &fits) } else { None };
            let Some(first) = fitting else { break 'probe };
            stats.swaps_tried += 1;
            let mut victim = victims.order[first];
            let delta = gain_in + loss(victim);
            if delta >= -1e-12 {
                break 'probe;
            }
            // Victims of one very loss come in slot order: the first that
            // fits is the lowest, the rest cannot improve on it.
            let past = |last: usize| victims.order.partition_point(|&slot| loss(slot) <= loss(last));
            let mut last = victim;
            while let Some(p) = victims.first_fit(past(last), &fits) {
                stats.swaps_tried += 1;
                last = victims.order[p];
                if gain_in + loss(last) != delta {
                    break;
                }
                victim = victim.min(last);
            }
            let [g_victim, h_victim] = cost(victim);
            selected[scope[victim]] = false;
            selected[scope[cand]] = true;
            victims.set(victim, None);
            victims.set(cand, Some([g_cand, h_cand]));
            g_used += g_cand - g_victim;
            h_used += h_cand - h_victim;
            stats.swaps_accepted += 1;
            // An accepted Δ means the candidate's loss exceeds its
            // victim's: the floor can only rise, to the least selected loss.
            let least = victims.first_fit(0, &|[g, _]: [f64; 2]| g > f64::NEG_INFINITY);
            floor = least.map_or(f64::INFINITY, |p| loss(victims.order[p]));
        }
        // The live set holds while the state only tightens. Once an
        // addition takes the floor below the live set's, or freed
        // capacity can let another candidate in, fall back to every
        // candidate and every row, once.
        let freed = g_used < used.0 || h_used < used.1;
        if !complete && (floor < live_floor || freed && room(cheapest, g_used, h_used)) {
            complete = true;
            ranked = rank(&candidates);
            next = ranked.iter().position(|&slot| slot == cand).expect("a ranked candidate") + 1;
            victims = index(selected, (0..scope.len()).collect());
        }
    }
    if let Some(mut check) = start {
        let full = swap(view, &mut check, scope, scores, &mut Laps::default(), true);
        let decided = |stats: Phase2Stats| (stats.swaps_accepted, stats.additions);
        debug_assert!(check == selected && decided(full) == decided(stats), "the live set missed a decision");
    }
    laps.lap("sched.phase2.probe");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::objective_value;
    use crate::phase1::{solve_phase1, Phase1Config};
    use crate::problem::DeviceRequest;
    use lpvs_survey::curve::AnxietyCurve;

    /// Device at `fraction` battery with `gamma` savings.
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

    #[test]
    fn swaps_in_the_anxious_device_under_high_lambda() {
        // Capacity for one. Within a single slot the anxiety term moves
        // only second-order (the battery drains < 1 % either way), so
        // Phase-2 tips the decision when energy savings are *close*:
        // device 0 saves slightly more energy, but device 1 sits at 8 %
        // battery where the concave anxiety region makes every saved
        // joule count. With λ large, Phase-2 hands the slot over.
        let mut p = SlotProblem::new(1.0, 10.0, 60.0, AnxietyCurve::paper_shape());
        p.push(device(1.0, 0.32, 0.80)); // saving 96 J, no anxiety to speak of
        p.push(device(1.0, 0.30, 0.08)); // saving 90 J, deep in the cliff
        let phase1 = solve_phase1(&p, &Phase1Config::default()).unwrap();
        assert_eq!(phase1.selected, vec![true, false]);

        let mut sel = phase1.selected;
        let stats = run_phase2(&p, &mut sel);
        assert_eq!(sel, vec![false, true]);
        assert_eq!(stats.swaps_accepted, 1);
    }

    #[test]
    fn keeps_phase1_when_lambda_is_zero() {
        let mut p = SlotProblem::new(1.0, 10.0, 0.0, AnxietyCurve::paper_shape());
        p.push(device(1.5, 0.45, 0.80));
        p.push(device(1.0, 0.30, 0.08));
        let mut sel = solve_phase1(&p, &Phase1Config::default()).unwrap().selected;
        let before = sel.clone();
        run_phase2(&p, &mut sel);
        assert_eq!(sel, before, "pure-energy optimum must be stable");
    }

    #[test]
    fn never_worsens_the_objective() {
        let curve = AnxietyCurve::paper_shape();
        for lambda in [0.0, 0.5, 1.0, 4.0] {
            let mut p = SlotProblem::new(3.0, 10.0, lambda, curve.clone());
            for i in 0..8 {
                let fraction = 0.06 + 0.11 * i as f64;
                let gamma = 0.2 + 0.03 * (i % 4) as f64;
                p.push(device(0.8 + 0.1 * (i % 3) as f64, gamma, fraction));
            }
            let mut sel = solve_phase1(&p, &Phase1Config::default()).unwrap().selected;
            let before = objective_value(&p, &sel);
            run_phase2(&p, &mut sel);
            let after = objective_value(&p, &sel);
            assert!(after <= before + 1e-9, "λ={lambda}: {before} → {after}");
            assert!(p.capacity_feasible(&sel));
        }
    }

    #[test]
    fn fills_leftover_capacity_with_helpful_devices() {
        // Phase-1 run with the greedy solver may leave slack; Phase-2
        // should admit beneficial devices outright.
        let mut p = SlotProblem::new(2.0, 10.0, 1.0, AnxietyCurve::paper_shape());
        p.push(device(1.5, 0.45, 0.5));
        p.push(device(1.0, 0.30, 0.3));
        let mut sel = vec![true, false]; // hand-made under-filled start
        let stats = run_phase2(&p, &mut sel);
        assert_eq!(sel, vec![true, true]);
        assert_eq!(stats.additions, 1);
    }

    #[test]
    fn infeasible_candidates_never_enter() {
        let mut p = SlotProblem::new(1.0, 10.0, 50.0, AnxietyCurve::paper_shape());
        p.push(device(1.5, 0.45, 0.8));
        // Anxious but nearly dead: cannot even afford the transformed
        // slot (battery 0.3 % ≈ 166 J < 234 J needed).
        p.push(device(1.2, 0.35, 0.003));
        let mut sel = solve_phase1(&p, &Phase1Config::default()).unwrap().selected;
        run_phase2(&p, &mut sel);
        assert!(!sel[1], "energy-infeasible device was swapped in");
    }

    #[test]
    fn empty_selection_and_problem_are_fine() {
        let p = SlotProblem::new(1.0, 1.0, 1.0, AnxietyCurve::paper_shape());
        let mut sel: Vec<bool> = Vec::new();
        let stats = run_phase2(&p, &mut sel);
        assert_eq!(stats, Phase2Stats::default());
    }

    #[test]
    fn scoped_swapping_never_touches_out_of_scope_rows() {
        // Same instance as the high-λ swap test, plus a third device.
        // With the frontier restricted to {2}, devices 0 and 1 must
        // keep their standing decision even though swapping 0 → 1
        // would improve the objective.
        let mut p = SlotProblem::new(1.0, 10.0, 60.0, AnxietyCurve::paper_shape());
        p.push(device(1.0, 0.32, 0.80));
        p.push(device(1.0, 0.30, 0.08));
        p.push(device(1.0, 0.25, 0.50));
        let mut sel = vec![true, false, false];
        with_problem_view(&p, |view| run_phase2_over(view, &mut sel, Some(&[2]), &mut Laps::default()));
        assert!(sel[0], "out-of-scope selection was evicted");
        assert!(!sel[1], "out-of-scope candidate was admitted");

        // An unrestricted run from the same start does perform the
        // cross-row swap, so the scope is what held it back.
        let mut free = vec![true, false, false];
        run_phase2(&p, &mut free);
        assert!(free[1]);
    }

    #[test]
    fn full_scope_equals_unrestricted_run() {
        let mut p = SlotProblem::new(3.0, 10.0, 2.0, AnxietyCurve::paper_shape());
        for i in 0..6 {
            p.push(device(0.8 + 0.1 * (i % 3) as f64, 0.2 + 0.04 * i as f64, 0.1 + 0.14 * i as f64));
        }
        let start = solve_phase1(&p, &Phase1Config::default()).unwrap().selected;
        let mut all = start.clone();
        let mut scoped = start;
        let every: Vec<usize> = (0..p.len()).collect();
        let a = run_phase2(&p, &mut all);
        let (b, _) = with_problem_view(&p, |view| run_phase2_over(view, &mut scoped, Some(&every), &mut Laps::default()));
        assert_eq!(all, scoped);
        assert_eq!(a, b);
    }
}
