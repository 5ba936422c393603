//! Device battery with joule-level accounting.

use serde::{Deserialize, Serialize};

/// Joules per watt-hour.
const J_PER_WH: f64 = 3600.0;

/// A phone battery.
///
/// Tracks remaining energy in joules against a fixed capacity. The
/// level is what devices report to the scheduler at each scheduling
/// point (the paper's `e_{n,m}(1)`).
///
/// # Example
///
/// ```
/// use lpvs_edge::battery::Battery;
///
/// let mut b = Battery::phone_at(0.5);
/// assert_eq!(b.percent(), 50);
/// b.drain_joules(b.remaining_joules() / 2.0);
/// assert_eq!(b.percent(), 25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    capacity_j: f64,
    remaining_j: f64,
}

impl Battery {
    /// Typical phone battery capacity: ≈ 4,000 mAh at 3.85 V ≈ 15.4 Wh.
    pub const PHONE_CAPACITY_WH: f64 = 15.4;

    /// Creates a battery with the given capacity (Wh) at the given
    /// initial fraction.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not positive or the fraction is
    /// outside `[0, 1]`.
    pub fn new(capacity_wh: f64, fraction: f64) -> Self {
        assert!(capacity_wh > 0.0, "battery capacity must be positive");
        assert!((0.0..=1.0).contains(&fraction), "battery fraction must be in [0, 1]");
        let capacity_j = capacity_wh * J_PER_WH;
        Self { capacity_j, remaining_j: capacity_j * fraction }
    }

    /// A typical phone battery at the given fraction.
    pub fn phone_at(fraction: f64) -> Self {
        Self::new(Self::PHONE_CAPACITY_WH, fraction)
    }

    /// Total capacity in joules.
    pub fn capacity_joules(&self) -> f64 {
        self.capacity_j
    }

    /// Remaining energy in joules.
    pub fn remaining_joules(&self) -> f64 {
        self.remaining_j
    }

    /// Remaining fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.remaining_j / self.capacity_j
    }

    /// Remaining level as an integer percent (0–100, floor — a phone
    /// showing "20 %" has at least 20 % charge).
    pub fn percent(&self) -> u8 {
        (self.fraction() * 100.0).floor().clamp(0.0, 100.0) as u8
    }

    /// True once the battery is (numerically) empty.
    pub fn is_empty(&self) -> bool {
        self.remaining_j <= 1e-9
    }

    /// Drains `joules`, saturating at empty. Returns the energy
    /// actually drained.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite drain.
    pub fn drain_joules(&mut self, joules: f64) -> f64 {
        assert!(joules.is_finite() && joules >= 0.0, "drain must be nonnegative");
        let drained = joules.min(self.remaining_j);
        self.remaining_j -= drained;
        drained
    }
}

impl Default for Battery {
    /// A full phone battery.
    fn default() -> Self {
        Self::phone_at(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_conversion() {
        let b = Battery::phone_at(1.0);
        assert!((b.capacity_joules() - 15.4 * 3600.0).abs() < 1e-9);
        assert_eq!(b.percent(), 100);
    }

    #[test]
    fn drain_saturates_at_empty() {
        let mut b = Battery::new(1.0, 0.1); // 360 J
        let drained = b.drain_joules(1000.0);
        assert!((drained - 360.0).abs() < 1e-9);
        assert!(b.is_empty());
        assert_eq!(b.percent(), 0);
    }

    #[test]
    fn percent_floors() {
        let b = Battery::new(1.0, 0.199);
        assert_eq!(b.percent(), 19);
    }

    #[test]
    fn playback_time_is_realistic() {
        // A full phone battery with ~1.3 W total draw should stream for
        // many hours (phones realistically manage 8–14 h of video).
        let b = Battery::phone_at(1.0);
        let hours = b.capacity_joules() / 1.3 / 3600.0;
        assert!((8.0..16.0).contains(&hours), "streaming life {hours} h");
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_drain_rejected() {
        let mut b = Battery::default();
        b.drain_joules(-1.0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn fraction_out_of_range_rejected() {
        let _ = Battery::new(10.0, 1.5);
    }
}
