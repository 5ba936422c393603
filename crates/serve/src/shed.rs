//! Load shedding: queue pressure → degradation-ladder floor.
//!
//! `lpvs-serve` never queues without bound and never hangs a slot on an
//! expensive solve it no longer has headroom for. Before a request is
//! *dropped* (429), the service first trades solution quality for
//! latency by raising the **solver floor** of upcoming slots: the
//! occupancy of the bounded telemetry queue maps onto the lowest rung
//! of the resilient scheduler's degradation ladder
//! ([`SlotBudget::with_solver_floor`]), so a loaded edge jumps straight
//! to the greedy knapsack or to selection reuse instead of paying for
//! branch-and-bound it cannot afford. Each rung is cheaper than the one
//! above it, so a higher floor never makes a slot slower.
//!
//! Only when the queue is *full* does the service reject — and counts
//! it, so the stress harness can report the shed fraction at each
//! operating point.
//!
//! [`SlotBudget::with_solver_floor`]: lpvs_core::budget::SlotBudget::with_solver_floor

use lpvs_core::scheduler::Degradation;

/// Occupancy at which shedding starts (greedy-knapsack floor).
pub const SHED_GREEDY: f64 = 0.75;
/// Occupancy at which the floor rises to selection reuse.
pub const SHED_REUSE: f64 = 0.9;

/// Maps telemetry-queue occupancy (`len / capacity`, in `[0, 1]`) to
/// the degradation-ladder floor upcoming slots must start at.
/// Non-finite occupancies are treated as fully loaded (fail closed).
pub fn shed_floor(occupancy: f64) -> Degradation {
    if !occupancy.is_finite() {
        return Degradation::ReusedPrevious;
    }
    if occupancy >= SHED_REUSE {
        Degradation::ReusedPrevious
    } else if occupancy >= SHED_GREEDY {
        Degradation::Greedy
    } else {
        Degradation::Exact
    }
}

/// Parses a [`Degradation::label`] back to its rung — the journal's
/// on-disk representation of a slot's shed floor.
pub fn floor_from_label(label: &str) -> Option<Degradation> {
    // Journals written while the ladder had a Lagrangian rung between
    // exact and greedy may name it; it replays as the next rung down.
    if label == "lagrangian" {
        return Some(Degradation::Greedy);
    }
    Degradation::ALL.into_iter().find(|d| d.label() == label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_monotone_in_occupancy() {
        let mut last = Degradation::Exact;
        for i in 0..=100 {
            let f = shed_floor(i as f64 / 100.0);
            assert!(f >= last, "floor regressed at occupancy {i}%");
            last = f;
        }
        assert_eq!(shed_floor(0.0), Degradation::Exact);
        assert_eq!(shed_floor(0.74), Degradation::Exact);
        assert_eq!(shed_floor(0.75), Degradation::Greedy);
        assert_eq!(shed_floor(0.9), Degradation::ReusedPrevious);
        assert_eq!(shed_floor(1.0), Degradation::ReusedPrevious);
    }

    #[test]
    fn pathological_occupancies_fail_closed() {
        assert_eq!(shed_floor(f64::NAN), Degradation::ReusedPrevious);
        assert_eq!(shed_floor(f64::INFINITY), Degradation::ReusedPrevious);
        assert_eq!(shed_floor(-1.0), Degradation::Exact);
    }

    #[test]
    fn labels_round_trip() {
        for d in Degradation::ALL {
            assert_eq!(floor_from_label(d.label()), Some(d));
        }
        assert_eq!(floor_from_label("lagrangian"), Some(Degradation::Greedy));
        assert_eq!(floor_from_label("warp-speed"), None);
    }
}
