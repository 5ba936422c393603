//! Information compacting (paper §V-B).
//!
//! The raw formulation threads the energy status `e(κ)` through every
//! chunk via the recursion of eq. (5), entangling the constraints and
//! the objective. Summing the per-chunk feasibility constraint (4) over
//! κ and substituting the recursion yields the compacted constraint
//! (11):
//!
//! ```text
//! K·e(1) − Σ_κ (K − κ)·ψ(κ)·Δ  ≥  Σ_κ (1 − γ)·p(κ)·Δ
//! ```
//!
//! which depends only on per-device prefix sums computable once. This
//! module produces those prefix quantities and the resulting
//! feasibility verdicts; the equivalence with the chunk-level recursion
//! is asserted in the tests (and exercised again by the
//! `ablation_compacting` bench).

use crate::problem::DeviceRequest;
use serde::{Deserialize, Serialize};

/// Per-device quantities produced by information compacting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompactedDevice {
    /// `Σ p(κ)·Δ` — untransformed slot energy (J).
    pub total_energy_j: f64,
    /// `Σ (K − κ)·p(κ)·Δ` — the weighted prefix mass of eq. (11) at
    /// the untransformed rate (J).
    pub weighted_energy_j: f64,
    /// Whether transforming this device satisfies the compacted energy
    /// feasibility constraint (11) with `x = 1`.
    pub transform_feasible: bool,
    /// Whether playing *untransformed* is energy-feasible at all (the
    /// device might die mid-slot regardless).
    pub playback_feasible: bool,
}

/// Compacts one device request.
pub fn compact_device(request: &DeviceRequest) -> CompactedDevice {
    let k = request.num_chunks() as f64;
    let mut total = 0.0;
    let mut weighted = 0.0;
    let d = request.chunk_secs;
    for (idx, p) in request.power_rates_w.iter().enumerate() {
        let kappa = (idx + 1) as f64; // chunks are 1-indexed in the paper
        total += p * d;
        weighted += (k - kappa) * p * d;
    }
    let transform_feasible =
        compacted_feasible(request, total, weighted, /* transformed = */ true);
    let playback_feasible =
        compacted_feasible(request, total, weighted, /* transformed = */ false);
    CompactedDevice {
        total_energy_j: total,
        weighted_energy_j: weighted,
        transform_feasible,
        playback_feasible,
    }
}

/// Evaluates the compacted constraint (11) for one device with the
/// given transform decision. Under a transform all ψ(κ) = (1 − γ)p(κ),
/// so the weighted term scales by `(1 − γ)` too.
fn compacted_feasible(
    request: &DeviceRequest,
    total: f64,
    weighted: f64,
    transformed: bool,
) -> bool {
    let k = request.num_chunks() as f64;
    let factor = if transformed { 1.0 - request.gamma } else { 1.0 };
    let lhs = k * request.energy_j - factor * weighted;
    let rhs = factor * total;
    lhs >= rhs - 1e-9
}

/// Chunk-level reference: walks the recursion of eqs. (4)–(5) directly,
/// checking `e(κ) ≥ ψ(κ)·Δ` before each chunk. Used to validate the
/// compacting and by the `ablation_compacting` bench as the naive
/// baseline.
pub fn chunk_level_feasible(request: &DeviceRequest, transformed: bool) -> bool {
    let factor = if transformed { 1.0 - request.gamma } else { 1.0 };
    let mut energy = request.energy_j;
    let d = request.chunk_secs;
    for p in &request.power_rates_w {
        let need = factor * p * d;
        if energy < need - 1e-9 {
            return false;
        }
        energy -= need;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(energy_j: f64, gamma: f64) -> DeviceRequest {
        DeviceRequest::uniform(1.2, 10.0, 30, energy_j, 55_440.0, gamma, 1.0, 0.1)
    }

    #[test]
    fn rich_device_is_feasible_both_ways() {
        let c = compact_device(&request(20_000.0, 0.3));
        assert!(c.transform_feasible);
        assert!(c.playback_feasible);
        assert!((c.total_energy_j - 360.0).abs() < 1e-9);
    }

    #[test]
    fn dying_device_fails_untransformed_but_survives_transformed() {
        // Slot costs 360 J untransformed, 234 J at γ = 0.35.
        let r = request(300.0, 0.35);
        let c = compact_device(&r);
        assert!(!chunk_level_feasible(&r, false));
        assert!(chunk_level_feasible(&r, true));
        assert!(c.transform_feasible);
    }

    #[test]
    fn empty_battery_fails_everything() {
        let r = request(0.0, 0.4);
        let c = compact_device(&r);
        assert!(!c.transform_feasible);
        assert!(!c.playback_feasible);
    }

    /// The compacted constraint (11) sums the per-chunk inequalities
    /// (4), so it is a *sound relaxation*: every chunk-level-feasible
    /// device passes it, and the two agree away from the feasibility
    /// boundary. (The paper presents the summed form as equivalent;
    /// strictly it is equivalent only in this aggregate-energy sense —
    /// see DESIGN.md.)
    #[test]
    fn compacted_relaxes_chunk_level_on_uniform_rates() {
        for gamma in [0.0, 0.15, 0.35, 0.48] {
            for energy in [0.0, 50.0, 150.0, 233.0, 235.0, 359.0, 361.0, 5000.0] {
                let r = request(energy, gamma);
                let c = compact_device(&r);
                if chunk_level_feasible(&r, true) {
                    assert!(
                        c.transform_feasible,
                        "compacting rejected a transform-feasible device \
                         at energy {energy}, gamma {gamma}"
                    );
                }
                if chunk_level_feasible(&r, false) {
                    assert!(
                        c.playback_feasible,
                        "compacting rejected a playback-feasible device \
                         at energy {energy}, gamma {gamma}"
                    );
                }
            }
        }
        // Agreement away from the boundary: plenty of energy passes
        // both, an empty battery fails both.
        assert!(chunk_level_feasible(&request(5000.0, 0.3), true));
        assert!(compact_device(&request(5000.0, 0.3)).transform_feasible);
        assert!(!chunk_level_feasible(&request(0.0, 0.3), true));
        assert!(!compact_device(&request(0.0, 0.3)).transform_feasible);
    }

    /// With heterogeneous rates, the summed constraint (11) is a
    /// relaxation of the per-chunk constraints (a sum of inequalities
    /// is weaker than each individually), so it never rejects a
    /// chunk-feasible device.
    #[test]
    fn compacted_is_a_sound_relaxation_on_varying_rates() {
        let rates: Vec<f64> = (0..30).map(|i| 0.8 + 0.05 * (i % 7) as f64).collect();
        for energy in [100.0, 200.0, 280.0, 300.0, 350.0, 400.0] {
            let r = DeviceRequest::new(
                rates.clone(),
                10.0,
                energy,
                55_440.0,
                0.3,
                1.0,
                0.1,
            );
            let c = compact_device(&r);
            if chunk_level_feasible(&r, true) {
                assert!(c.transform_feasible, "compacting rejected a feasible device");
            }
        }
    }

    #[test]
    fn weighted_energy_matches_hand_computation() {
        // Two chunks: p = [2, 3] W, Δ = 10 s, K = 2.
        // weighted = (2−1)·2·10 + (2−2)·3·10 = 20.
        let r = DeviceRequest::new(
            vec![2.0, 3.0],
            10.0,
            1000.0,
            2000.0,
            0.2,
            1.0,
            0.1,
        );
        let c = compact_device(&r);
        assert!((c.weighted_energy_j - 20.0).abs() < 1e-9);
        assert!((c.total_energy_j - 50.0).abs() < 1e-9);
    }
}
