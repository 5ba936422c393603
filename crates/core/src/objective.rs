//! The joint objective (paper eqs. 8a and 13).
//!
//! The objective sums, over devices and chunks, the transformed power
//! term plus λ times the anxiety at the predicted energy status:
//!
//! ```text
//! Σ_n Σ_κ ( ψ_n(κ)·Δ_n  +  λ·φ(e_n(κ)/capacity)·Δ_n )
//! ```
//!
//! Both terms are weighted by the device's chunk duration Δ_n (one per
//! request) so λ is in joules per anxiety-second (the paper's
//! unweighted sums coincide with this up to a constant when every
//! device shares Δ, as in the 5-minute-slot emulation). Crucially the
//! objective is **separable per device**, which is what makes Phase-2's
//! swap evaluation O(K) instead of O(N·K).
//!
//! Two evaluators are provided: the compacted form of eq. (13), which
//! predicts `e(κ)` from the initial report and a running prefix sum,
//! and a chunk-recursive reference implementing eqs. (5) + (8a)
//! directly. They are equal by construction (eq. 12 only substitutes
//! equalities) and the tests assert it. The row functions here are the
//! **oracles** the batch kernels ([`crate::kernels`]) are tested against
//! and what the off-path consumers (`explain`, `baseline`) call; the
//! solve path itself only runs the kernels.

use crate::fleet::with_problem_view;
use crate::problem::{DeviceRequest, SlotProblem};
use lpvs_survey::curve::AnxietyCurve;

/// One device's contribution to the objective under a given transform
/// decision, using the compacted energy prediction (eq. 13).
pub fn device_objective(
    request: &DeviceRequest,
    selected: bool,
    lambda: f64,
    curve: &AnxietyCurve,
) -> f64 {
    let factor = if selected { 1.0 - request.gamma } else { 1.0 };
    let d = request.chunk_secs;
    let mut prefix_j = 0.0; // Σ_{i<κ} ψ(i)·Δ
    let mut total = 0.0;
    for p in &request.power_rates_w {
        let psi = factor * p;
        // e(κ) = e(1) − prefix (eq. 12d), clamped at empty.
        let energy = (request.energy_j - prefix_j).max(0.0);
        let anxiety = curve.phi(energy / request.capacity_j);
        total += (psi + lambda * anxiety) * d;
        prefix_j += psi * d;
    }
    total
}

/// Full objective of a selection over the slot problem (compacted
/// evaluation). A row adapter: loads the problem into columns once and
/// evaluates [`SlotView::objective_value`](crate::fleet::SlotView::objective_value);
/// per-device terms and their left-to-right sum are bit-identical to a
/// sequential [`device_objective`] loop.
///
/// # Panics
///
/// Panics if `selected.len()` differs from the device count.
pub fn objective_value(problem: &SlotProblem, selected: &[bool]) -> f64 {
    with_problem_view(problem, |view| view.objective_value(selected))
}

/// Reference evaluator: walks the energy recursion of eq. (5) chunk by
/// chunk instead of using the compacted prediction.
///
/// # Panics
///
/// Panics if `selected.len()` differs from the device count.
pub fn objective_value_recursive(problem: &SlotProblem, selected: &[bool]) -> f64 {
    assert_eq!(selected.len(), problem.len(), "selection has wrong length");
    let mut total = 0.0;
    for (r, &x) in problem.requests.iter().zip(selected) {
        let factor = if x { 1.0 - r.gamma } else { 1.0 };
        let (d, mut energy) = (r.chunk_secs, r.energy_j);
        for p in &r.power_rates_w {
            let psi = factor * p;
            let anxiety = problem.curve.phi(energy / r.capacity_j);
            total += (psi + problem.lambda * anxiety) * d;
            energy = (energy - psi * d).max(0.0);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpvs_survey::curve::AnxietyCurve;

    fn problem() -> SlotProblem {
        let mut p = SlotProblem::new(10.0, 10.0, 1.0, AnxietyCurve::paper_shape());
        // A mix of batteries and rates.
        p.push(DeviceRequest::uniform(1.2, 10.0, 30, 8_000.0, 55_440.0, 0.35, 1.0, 0.1));
        p.push(DeviceRequest::uniform(0.9, 10.0, 30, 30_000.0, 55_440.0, 0.25, 1.0, 0.1));
        p.push(DeviceRequest::new(
            (0..30).map(|i| 0.7 + 0.04 * (i % 5) as f64).collect(),
            10.0,
            15_000.0,
            55_440.0,
            0.4,
            1.0,
            0.1,
        ));
        p
    }

    #[test]
    fn compacted_equals_recursive_for_all_selections() {
        let p = problem();
        for mask in 0u8..8 {
            let sel: Vec<bool> = (0..3).map(|i| mask & (1 << i) != 0).collect();
            let a = objective_value(&p, &sel);
            let b = objective_value_recursive(&p, &sel);
            assert!((a - b).abs() < 1e-9, "mismatch at mask {mask}: {a} vs {b}");
        }
    }

    #[test]
    fn transforming_reduces_the_objective() {
        let p = problem();
        let none = objective_value(&p, &[false, false, false]);
        let all = objective_value(&p, &[true, true, true]);
        assert!(all < none);
    }

    #[test]
    fn transforming_low_battery_device_helps_more_with_larger_lambda() {
        // Device 0 is at ~14 % battery (sharp anxiety region); device 1
        // at ~54 %. The anxiety benefit of transforming device 0 grows
        // with λ.
        let mut p = problem();
        let benefit = |p: &SlotProblem| {
            objective_value(p, &[false, false, false]) - objective_value(p, &[true, false, false])
        };
        p.lambda = 0.0;
        let b0 = benefit(&p);
        p.lambda = 4.0;
        let b4 = benefit(&p);
        assert!(b4 > b0, "anxiety term did not amplify the benefit: {b0} vs {b4}");
    }

    #[test]
    fn energy_prediction_clamps_at_empty() {
        // A device that cannot possibly sustain the slot: the predicted
        // energy must clamp at zero, pinning anxiety at its maximum
        // rather than extrapolating negative energies.
        let r = DeviceRequest::uniform(2.0, 10.0, 30, 100.0, 55_440.0, 0.2, 1.0, 0.1);
        let curve = AnxietyCurve::paper_shape();
        let v = device_objective(&r, false, 1.0, &curve);
        // Energy term 600 J + anxiety ≈ 1 · 300 s · λ.
        assert!(v > 600.0);
        assert!(v < 600.0 + 310.0);
    }

    #[test]
    fn zero_lambda_reduces_to_pure_energy() {
        let r = DeviceRequest::uniform(1.0, 10.0, 30, 20_000.0, 55_440.0, 0.3, 1.0, 0.1);
        let curve = AnxietyCurve::paper_shape();
        let untransformed = device_objective(&r, false, 0.0, &curve);
        assert!((untransformed - 300.0).abs() < 1e-9);
        let transformed = device_objective(&r, true, 0.0, &curve);
        assert!((transformed - 210.0).abs() < 1e-9);
    }

    #[test]
    fn objective_is_separable() {
        let p = problem();
        let total = objective_value(&p, &[true, false, true]);
        let by_parts: f64 = [
            device_objective(&p.requests[0], true, p.lambda, &p.curve),
            device_objective(&p.requests[1], false, p.lambda, &p.curve),
            device_objective(&p.requests[2], true, p.lambda, &p.curve),
        ]
        .iter()
        .sum();
        assert!((total - by_parts).abs() < 1e-12);
    }
}
