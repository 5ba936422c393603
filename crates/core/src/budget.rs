//! Per-slot scheduling budgets.
//!
//! A [`SlotBudget`] bounds how much work the scheduler may spend before
//! a slot's decision is due. It used to live in `lpvs-edge`; it moved
//! here when the dependency between the crates was reversed (the edge
//! crate's [`FleetScheduler`](https://docs.rs/lpvs-edge) now sits *on
//! top of* the core scheduler).

use crate::scheduler::Degradation;
use serde::{Deserialize, Serialize};

/// Per-slot scheduling budget: how much work the scheduler may spend
/// before the slot's decision is due.
///
/// The default is unbounded — the scheduler runs its configured
/// pipeline to completion. Faults (or a provider SLA) can tighten
/// either knob; the resilient scheduler walks its degradation ladder
/// when the budget does not allow the configured solver to finish.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SlotBudget {
    /// Wall-clock deadline (seconds) for the whole scheduling run.
    /// `None` means no deadline. A deadline of zero forces the
    /// scheduler straight to its cheapest fallbacks.
    pub deadline_secs: Option<f64>,
    /// Cap on branch-and-bound nodes for this slot, written by
    /// [`cut`](Self::cut). `None` leaves the configured node limit in
    /// force; a cap only ever tightens it.
    pub solver_nodes: Option<usize>,
    /// Lowest ladder rung the resilient scheduler may *start* at —
    /// the load-shedding knob. `Some(rung)` skips every rung cheaper
    /// in severity than `rung` (e.g. `Some(Greedy)` jumps straight to
    /// the greedy knapsack), so an overloaded edge can trade solution
    /// quality for latency without dropping the slot. `None` (the
    /// default) starts from the configured solver. The produced tier
    /// is therefore always `>= rung` in severity.
    pub solver_floor: Option<Degradation>,
}

impl SlotBudget {
    /// No deadline, no node cap: the scheduler's normal regime.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Budget with a wall-clock deadline in seconds.
    pub fn with_deadline_secs(mut self, secs: f64) -> Self {
        self.deadline_secs = Some(secs.max(0.0));
        self
    }

    /// Budget that starts the degradation ladder at `floor` — the
    /// shed → ladder mapping used by a loaded serving path.
    pub fn with_solver_floor(mut self, floor: Degradation) -> Self {
        self.solver_floor = Some(floor);
        self
    }

    /// Applies a transient budget cut: the node cap becomes `fraction`
    /// of `baseline_nodes` (at least one node). Non-finite or negative
    /// fractions are treated as a full cut.
    pub fn cut(mut self, fraction: f64, baseline_nodes: usize) -> Self {
        let fraction = if fraction.is_finite() { fraction.clamp(0.0, 1.0) } else { 0.0 };
        let nodes = ((baseline_nodes as f64) * fraction).floor() as usize;
        self.solver_nodes = Some(nodes.max(1).min(self.solver_nodes.unwrap_or(usize::MAX)));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unbounded() {
        let b = SlotBudget::unbounded();
        assert_eq!(b.deadline_secs, None);
        assert_eq!(b.solver_nodes, None);
    }

    #[test]
    fn deadline_tightens() {
        let b = SlotBudget::unbounded().with_deadline_secs(0.5);
        assert_eq!(b.deadline_secs, Some(0.5));
        // Negative deadlines clamp to zero rather than panicking.
        assert_eq!(SlotBudget::unbounded().with_deadline_secs(-1.0).deadline_secs, Some(0.0));
    }

    #[test]
    fn budget_cut_scales_and_floors_at_one_node() {
        assert_eq!(SlotBudget::unbounded().cut(0.25, 128).solver_nodes, Some(32));
        assert_eq!(SlotBudget::unbounded().cut(0.0, 128).solver_nodes, Some(1));
        assert_eq!(SlotBudget::unbounded().cut(f64::NAN, 128).solver_nodes, Some(1));
        // A cut never loosens an existing cap.
        assert_eq!(
            SlotBudget { solver_nodes: Some(8), ..SlotBudget::unbounded() }
                .cut(0.5, 128)
                .solver_nodes,
            Some(8)
        );
    }

    #[test]
    fn solver_floor_bounds_the_budget() {
        let b = SlotBudget::unbounded().with_solver_floor(Degradation::Greedy);
        assert_eq!(b.solver_floor, Some(Degradation::Greedy));
        assert_eq!(SlotBudget::unbounded().solver_floor, None);
    }
}
