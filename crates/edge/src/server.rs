//! Edge servers: the `(C, S)` capacity pair of constraints (6)–(7).

use lpvs_media::cost::EdgeBudgetCalibration;
use serde::{Deserialize, Serialize};

/// An edge server with spare compute and storage for video
/// transforming.
///
/// Admission is per scheduling slot: the scheduler reserves resources
/// for each selected device, and [`EdgeServer::reset_slot`] releases
/// everything at the next scheduling point.
///
/// # Example
///
/// ```
/// use lpvs_edge::server::EdgeServer;
///
/// let mut server = EdgeServer::nokia_airframe();
/// assert!(server.try_admit(1.0, 0.1));
/// assert!(server.compute_used() > 0.0);
/// server.reset_slot();
/// assert_eq!(server.compute_used(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeServer {
    compute_capacity: f64,
    storage_capacity_gb: f64,
    compute_used: f64,
    storage_used_gb: f64,
}

impl EdgeServer {
    /// Creates a server with the given spare capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is negative or non-finite.
    pub fn new(compute_capacity: f64, storage_capacity_gb: f64) -> Self {
        assert!(
            compute_capacity.is_finite() && compute_capacity >= 0.0,
            "compute capacity must be nonnegative"
        );
        assert!(
            storage_capacity_gb.is_finite() && storage_capacity_gb >= 0.0,
            "storage capacity must be nonnegative"
        );
        Self {
            compute_capacity,
            storage_capacity_gb,
            compute_used: 0.0,
            storage_used_gb: 0.0,
        }
    }

    /// The paper's Nokia AirFrame sizing (≈ 100 concurrent 720p
    /// transforms).
    pub fn nokia_airframe() -> Self {
        let cal = EdgeBudgetCalibration::nokia_airframe();
        Self::new(cal.compute_units, cal.storage_gb)
    }

    /// A server sized for `streams` concurrent 720p30 transforms.
    pub fn for_streams(streams: usize) -> Self {
        let cal = EdgeBudgetCalibration::for_streams(streams);
        Self::new(cal.compute_units, cal.storage_gb)
    }

    /// Total spare compute (units).
    pub fn compute_capacity(&self) -> f64 {
        self.compute_capacity
    }

    /// Total spare storage (GB).
    pub fn storage_capacity_gb(&self) -> f64 {
        self.storage_capacity_gb
    }

    /// Compute reserved this slot.
    pub fn compute_used(&self) -> f64 {
        self.compute_used
    }

    /// Storage reserved this slot.
    pub fn storage_used_gb(&self) -> f64 {
        self.storage_used_gb
    }

    /// Remaining compute this slot.
    pub fn compute_free(&self) -> f64 {
        self.compute_capacity - self.compute_used
    }

    /// Remaining storage this slot.
    pub fn storage_free_gb(&self) -> f64 {
        self.storage_capacity_gb - self.storage_used_gb
    }

    /// Whether a request with costs `(g, h)` fits right now.
    pub fn fits(&self, compute: f64, storage_gb: f64) -> bool {
        compute <= self.compute_free() + 1e-9 && storage_gb <= self.storage_free_gb() + 1e-9
    }

    /// Reserves `(g, h)` if it fits; returns whether it was admitted.
    pub fn try_admit(&mut self, compute: f64, storage_gb: f64) -> bool {
        if !self.fits(compute, storage_gb) {
            return false;
        }
        self.compute_used += compute;
        self.storage_used_gb += storage_gb;
        // `fits` allows 1e-9 of float slack per admission; usage must
        // never drift past capacity by more than that slack.
        debug_assert!(
            self.compute_used <= self.compute_capacity + 1e-9,
            "admission overshot compute capacity: {} > {}",
            self.compute_used,
            self.compute_capacity
        );
        debug_assert!(
            self.storage_used_gb <= self.storage_capacity_gb + 1e-9,
            "admission overshot storage capacity: {} > {}",
            self.storage_used_gb,
            self.storage_capacity_gb
        );
        true
    }

    /// Releases all reservations at a scheduling point.
    pub fn reset_slot(&mut self) {
        self.compute_used = 0.0;
        self.storage_used_gb = 0.0;
        debug_assert!(self.fits(0.0, 0.0), "a freshly reset server must admit a free request");
    }

    /// A browned-out view of this server: both capacities scaled by
    /// `factor` ∈ [0, 1]. Reservations are not carried over — the
    /// derated server starts its slot empty. Out-of-range factors are
    /// clamped; a non-finite factor (corrupt fault telemetry) is
    /// treated as a full brownout, the fail-safe direction.
    pub fn browned_out(&self, factor: f64) -> EdgeServer {
        let factor = if factor.is_finite() { factor.clamp(0.0, 1.0) } else { 0.0 };
        EdgeServer::new(self.compute_capacity * factor, self.storage_capacity_gb * factor)
    }

    /// Compute utilization in `[0, 1]` (0 when capacity is zero).
    pub fn compute_utilization(&self) -> f64 {
        if self.compute_capacity <= 0.0 {
            0.0
        } else {
            self.compute_used / self.compute_capacity
        }
    }
}

impl Default for EdgeServer {
    fn default() -> Self {
        Self::nokia_airframe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airframe_admits_one_hundred_hd_streams() {
        let mut s = EdgeServer::nokia_airframe();
        let mut admitted = 0;
        while s.try_admit(1.0, 0.1125) {
            admitted += 1;
        }
        assert_eq!(admitted, 100);
    }

    #[test]
    fn rejection_preserves_state() {
        let mut s = EdgeServer::new(1.0, 1.0);
        assert!(s.try_admit(0.8, 0.5));
        let before = s;
        assert!(!s.try_admit(0.5, 0.1)); // compute would overflow
        assert_eq!(s, before);
        assert!(!s.try_admit(0.1, 0.6)); // storage would overflow
        assert_eq!(s, before);
    }

    #[test]
    fn reset_releases_everything() {
        let mut s = EdgeServer::new(2.0, 2.0);
        s.try_admit(1.5, 1.0);
        assert!(s.compute_utilization() > 0.7);
        s.reset_slot();
        assert_eq!(s.compute_used(), 0.0);
        assert_eq!(s.storage_used_gb(), 0.0);
        assert_eq!(s.compute_utilization(), 0.0);
    }

    #[test]
    fn zero_capacity_admits_only_free_requests() {
        let mut s = EdgeServer::new(0.0, 0.0);
        assert!(s.try_admit(0.0, 0.0));
        assert!(!s.try_admit(0.1, 0.0));
        assert_eq!(s.compute_utilization(), 0.0);
    }

    #[test]
    #[should_panic(expected = "compute capacity")]
    fn negative_capacity_rejected() {
        let _ = EdgeServer::new(-1.0, 0.0);
    }

    #[test]
    fn brownout_derates_both_capacities() {
        let s = EdgeServer::new(10.0, 2.0);
        let b = s.browned_out(0.3);
        assert!((b.compute_capacity() - 3.0).abs() < 1e-12);
        assert!((b.storage_capacity_gb() - 0.6).abs() < 1e-12);
        assert_eq!(b.compute_used(), 0.0);
    }

    #[test]
    fn brownout_then_admit_respects_the_derated_capacity() {
        // Regression: a browned-out server must enforce its *derated*
        // budget from a clean slate — reservations on the original
        // server neither carry over nor inflate the derated capacity.
        let mut s = EdgeServer::new(10.0, 2.0);
        assert!(s.try_admit(9.0, 1.5));
        let mut b = s.browned_out(0.3); // 3.0 compute, 0.6 GB
        assert_eq!(b.compute_used(), 0.0);
        assert!(b.try_admit(2.0, 0.4));
        assert!(!b.try_admit(2.0, 0.1), "derated compute budget must bind");
        assert!(!b.try_admit(0.5, 0.3), "derated storage budget must bind");
        assert!(b.try_admit(1.0, 0.2)); // exactly exhausts both
        b.reset_slot();
        assert!(b.try_admit(3.0, 0.6), "reset must release the full derated budget");
    }

    #[test]
    fn brownout_clamps_and_fails_safe_on_garbage() {
        let s = EdgeServer::new(10.0, 2.0);
        assert_eq!(s.browned_out(1.7).compute_capacity(), 10.0);
        assert_eq!(s.browned_out(-0.5).compute_capacity(), 0.0);
        assert_eq!(s.browned_out(f64::NAN).compute_capacity(), 0.0);
        assert_eq!(s.browned_out(f64::INFINITY).compute_capacity(), 0.0);
    }
}
