//! The slot problem: everything the scheduler knows at a scheduling
//! point.
//!
//! This is the output of the emulator's "information gathering" stage
//! (paper Fig. 6): per-device chunk power rates estimated with the
//! display power models, energy reports, the Bayesian γ estimates, and
//! the transform resource costs, plus the server capacities and the
//! provider's λ.

use lpvs_survey::curve::AnxietyCurve;
use serde::{Deserialize, Serialize};

/// One device's request for the upcoming slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceRequest {
    /// Untransformed whole-device power rate `p(κ)` (W) per available
    /// chunk, in playback order.
    pub power_rates_w: Vec<f64>,
    /// Duration Δ (s) of every chunk: the request's chunks share one.
    pub chunk_secs: f64,
    /// Reported remaining energy `e(1)` in joules.
    pub energy_j: f64,
    /// Battery capacity in joules (to express energies as the battery
    /// fractions φ consumes).
    pub capacity_j: f64,
    /// Current power-reduction estimate γ ∈ [0, 1).
    pub gamma: f64,
    /// Transform compute cost `g` (edge compute units).
    pub compute_cost: f64,
    /// Transform storage cost `h` (GB).
    pub storage_cost_gb: f64,
}

impl DeviceRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics unless the request [is valid](Self::is_valid): at least one
    /// chunk, γ in `[0, 1)`, finite nonnegative rates, energy and costs,
    /// and a finite positive chunk duration and capacity.
    pub fn new(
        power_rates_w: Vec<f64>,
        chunk_secs: f64,
        energy_j: f64,
        capacity_j: f64,
        gamma: f64,
        compute_cost: f64,
        storage_cost_gb: f64,
    ) -> Self {
        assert!(!power_rates_w.is_empty(), "a request carries at least one chunk");
        assert!((0.0..1.0).contains(&gamma), "gamma must be in [0, 1)");
        let request = Self::from_telemetry(
            power_rates_w,
            chunk_secs,
            energy_j,
            capacity_j,
            gamma,
            compute_cost,
            storage_cost_gb,
        );
        assert!(request.is_valid(), "values must be finite and ≥ 0, Δ and capacity > 0");
        request
    }

    /// Convenience constructor: `chunks` equal chunks of `watts` power
    /// and `secs` duration each.
    #[allow(clippy::too_many_arguments)]
    pub fn uniform(
        watts: f64,
        secs: f64,
        chunks: usize,
        energy_j: f64,
        capacity_j: f64,
        gamma: f64,
        compute_cost: f64,
        storage_cost_gb: f64,
    ) -> Self {
        Self::new(
            vec![watts; chunks],
            secs,
            energy_j,
            capacity_j,
            gamma,
            compute_cost,
            storage_cost_gb,
        )
    }

    /// Builds a request directly from raw telemetry **without
    /// validation** — the edge-side ingestion path, where reports may
    /// be stale or corrupt (NaN γ, negative energies, …). Such a
    /// request is only safe to hand to
    /// [`LpvsScheduler::schedule_resilient`](crate::scheduler::LpvsScheduler::schedule_resilient),
    /// whose loader neutralizes it; the validating [`DeviceRequest::new`] path
    /// remains the contract for everything else.
    #[allow(clippy::too_many_arguments)]
    pub fn from_telemetry(
        power_rates_w: Vec<f64>,
        chunk_secs: f64,
        energy_j: f64,
        capacity_j: f64,
        gamma: f64,
        compute_cost: f64,
        storage_cost_gb: f64,
    ) -> Self {
        Self {
            power_rates_w,
            chunk_secs,
            energy_j,
            capacity_j,
            gamma,
            compute_cost,
            storage_cost_gb,
        }
    }

    /// True when every field satisfies the invariants
    /// [`DeviceRequest::new`] asserts: non-empty rates, finite
    /// nonnegative rates/energies/costs, a finite positive duration and
    /// capacity, γ ∈ [0, 1). Raw telemetry
    /// ([`DeviceRequest::from_telemetry`]) failing this check is
    /// rejected by the resilient scheduler's sanitization pass.
    pub fn is_valid(&self) -> bool {
        !self.power_rates_w.is_empty()
            && self.power_rates_w.iter().all(|p| p.is_finite() && *p >= 0.0)
            && self.chunk_secs.is_finite()
            && self.chunk_secs > 0.0
            && self.energy_j.is_finite()
            && self.energy_j >= 0.0
            && self.capacity_j.is_finite()
            && self.capacity_j > 0.0
            && (0.0..1.0).contains(&self.gamma)
            && self.compute_cost.is_finite()
            && self.compute_cost >= 0.0
            && self.storage_cost_gb.is_finite()
            && self.storage_cost_gb >= 0.0
    }

    /// An inert placeholder request: zero power, zero savings, zero
    /// resource cost, full battery. Used by sanitization and the
    /// rows→columns loader to keep device indices stable while
    /// neutralizing rejected telemetry.
    pub(crate) fn inert() -> Self {
        Self::new(vec![0.0], 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    }

    /// Number of available chunks `K` for this device.
    pub fn num_chunks(&self) -> usize {
        self.power_rates_w.len()
    }

    /// Untransformed slot energy `Σ p(κ)·Δ` (J), summed per chunk.
    pub fn untransformed_energy_j(&self) -> f64 {
        self.power_rates_w.iter().map(|p| p * self.chunk_secs).sum()
    }

    /// Energy saved over the slot if transformed: `γ · Σ p·Δ` (J).
    pub fn saving_j(&self) -> f64 {
        self.gamma * self.untransformed_energy_j()
    }

    /// Current battery fraction.
    pub fn battery_fraction(&self) -> f64 {
        (self.energy_j / self.capacity_j).clamp(0.0, 1.0)
    }
}

/// The clamp sanitization applies to capacities and λ: a value we
/// cannot trust (non-finite or negative) admits nothing / weighs nothing.
pub(crate) fn safe_capacity(c: f64) -> f64 {
    if c.is_finite() && c >= 0.0 {
        c
    } else {
        0.0
    }
}

/// The whole slot problem for one virtual cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotProblem {
    /// Per-device requests.
    pub requests: Vec<DeviceRequest>,
    /// Edge compute capacity `C` (units).
    pub compute_capacity: f64,
    /// Edge storage capacity `S` (GB).
    pub storage_capacity_gb: f64,
    /// Regularization λ balancing energy and anxiety (paper Remark 3).
    pub lambda: f64,
    /// The anxiety curve φ.
    pub curve: AnxietyCurve,
}

impl SlotProblem {
    /// Creates an empty problem with the given capacities and λ.
    ///
    /// # Panics
    ///
    /// Panics on negative capacities or λ.
    pub fn new(
        compute_capacity: f64,
        storage_capacity_gb: f64,
        lambda: f64,
        curve: AnxietyCurve,
    ) -> Self {
        assert!(compute_capacity >= 0.0, "compute capacity must be nonnegative");
        assert!(storage_capacity_gb >= 0.0, "storage capacity must be nonnegative");
        assert!(lambda >= 0.0, "lambda must be nonnegative");
        Self {
            requests: Vec::new(),
            compute_capacity,
            storage_capacity_gb,
            lambda,
            curve,
        }
    }

    /// Appends a device request.
    pub fn push(&mut self, request: DeviceRequest) {
        self.requests.push(request);
    }

    /// Number of devices in the slot.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if no device requested anything.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Splits the problem into a solver-safe copy and a per-device
    /// validity mask — the row reference for what the rows→columns
    /// loader
    /// ([`DeviceFleet::rebuild_from_problem`](crate::fleet::DeviceFleet::rebuild_from_problem))
    /// does in place (the scheduler calls the loader, not this).
    ///
    /// Devices whose telemetry fails [`DeviceRequest::is_valid`] are
    /// replaced by inert placeholders (zero saving, zero cost) so that
    /// indices stay aligned with the cluster; callers must force such
    /// devices unselected, which the resilient scheduler does.
    /// Non-finite or negative capacities collapse to zero (nothing can
    /// be admitted against a capacity we cannot trust) and a non-finite
    /// or negative λ falls back to zero (pure energy objective).
    pub fn sanitize(&self) -> (SlotProblem, Vec<bool>) {
        let valid: Vec<bool> = self.requests.iter().map(DeviceRequest::is_valid).collect();
        let requests = self
            .requests
            .iter()
            .zip(&valid)
            .map(|(r, &ok)| if ok { r.clone() } else { DeviceRequest::inert() })
            .collect();
        let clean = SlotProblem {
            requests,
            compute_capacity: safe_capacity(self.compute_capacity),
            storage_capacity_gb: safe_capacity(self.storage_capacity_gb),
            lambda: safe_capacity(self.lambda),
            curve: self.curve.clone(),
        };
        (clean, valid)
    }

    /// True if a selection respects both capacity rows.
    ///
    /// # Panics
    ///
    /// Panics if `selected.len() != self.len()`.
    pub fn capacity_feasible(&self, selected: &[bool]) -> bool {
        assert_eq!(selected.len(), self.len(), "selection has wrong length");
        let mut g = 0.0;
        let mut h = 0.0;
        for (r, &x) in self.requests.iter().zip(selected) {
            if x {
                g += r.compute_cost;
                h += r.storage_cost_gb;
            }
        }
        g <= self.compute_capacity + 1e-9 && h <= self.storage_capacity_gb + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> DeviceRequest {
        DeviceRequest::uniform(1.5, 10.0, 30, 20_000.0, 55_440.0, 0.3, 1.0, 0.1)
    }

    #[test]
    fn energies_accumulate() {
        let r = request();
        assert!((r.untransformed_energy_j() - 1.5 * 10.0 * 30.0).abs() < 1e-9);
        assert!((r.saving_j() - 0.3 * 450.0).abs() < 1e-9);
        assert!((r.battery_fraction() - 20_000.0 / 55_440.0).abs() < 1e-12);
    }

    #[test]
    fn battery_fraction_clamps() {
        let mut r = request();
        r.energy_j = 99_999_999.0;
        assert_eq!(r.battery_fraction(), 1.0);
    }

    #[test]
    fn capacity_feasibility() {
        let mut p = SlotProblem::new(1.5, 0.15, 1.0, AnxietyCurve::paper_shape());
        p.push(request());
        p.push(request());
        assert!(p.capacity_feasible(&[true, false]));
        assert!(!p.capacity_feasible(&[true, true])); // 2.0 > 1.5 compute
        assert!(p.capacity_feasible(&[false, false]));
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn misshaped_selection_rejected() {
        let mut p = SlotProblem::new(1.0, 1.0, 1.0, AnxietyCurve::paper_shape());
        p.push(request());
        let _ = p.capacity_feasible(&[]);
    }

    #[test]
    fn validity_mirrors_constructor_invariants() {
        assert!(request().is_valid());
        let corrupt = |f: fn(&mut DeviceRequest)| {
            let mut r = request();
            f(&mut r);
            r.is_valid()
        };
        assert!(!corrupt(|r| r.gamma = f64::NAN));
        assert!(!corrupt(|r| r.gamma = -0.2));
        assert!(!corrupt(|r| r.gamma = 1.0));
        assert!(!corrupt(|r| r.energy_j = f64::INFINITY));
        assert!(!corrupt(|r| r.energy_j = -1.0));
        assert!(!corrupt(|r| r.capacity_j = 0.0));
        assert!(!corrupt(|r| r.compute_cost = f64::NAN));
        assert!(!corrupt(|r| r.storage_cost_gb = -0.1));
        assert!(!corrupt(|r| r.power_rates_w = vec![]));
        assert!(!corrupt(|r| r.chunk_secs = 0.0));
        assert!(!corrupt(|r| r.chunk_secs = f64::NAN));
    }

    #[test]
    fn from_telemetry_carries_garbage_unvalidated() {
        let r = DeviceRequest::from_telemetry(
            vec![1.0],
            10.0,
            f64::NAN,
            55_440.0,
            f64::NAN,
            1.0,
            0.1,
        );
        assert!(!r.is_valid());
    }

    #[test]
    fn sanitize_neutralizes_corrupt_devices_and_capacities() {
        let mut p = SlotProblem::new(1.5, 0.15, 1.0, AnxietyCurve::paper_shape());
        p.push(request());
        let mut bad = request();
        bad.gamma = f64::NAN;
        p.push(bad);
        p.compute_capacity = f64::NAN;
        p.lambda = f64::NEG_INFINITY;
        let (clean, valid) = p.sanitize();
        assert_eq!(valid, vec![true, false]);
        assert_eq!(clean.len(), 2);
        assert!(clean.requests[1].is_valid(), "placeholder must be solver-safe");
        assert_eq!(clean.requests[1].saving_j(), 0.0);
        assert_eq!(clean.requests[1].compute_cost, 0.0);
        assert_eq!(clean.compute_capacity, 0.0);
        assert_eq!(clean.storage_capacity_gb, 0.15);
        assert_eq!(clean.lambda, 0.0);
        // A clean problem round-trips unchanged.
        let fresh = SlotProblem::new(1.5, 0.15, 1.0, AnxietyCurve::paper_shape());
        let (same, mask) = fresh.sanitize();
        assert_eq!(same, fresh);
        assert!(mask.is_empty());
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn gamma_of_one_rejected() {
        let _ = DeviceRequest::uniform(1.0, 10.0, 5, 100.0, 1000.0, 1.0, 1.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn empty_request_rejected() {
        let _ = DeviceRequest::new(vec![], 1.0, 1.0, 1.0, 0.2, 0.0, 0.0);
    }
}
