//! Diurnal viewership modulation.
//!
//! Live-streaming audiences breathe with the day: evening prime time
//! carries several times the 5 a.m. trough. The base generator is
//! time-homogeneous; this module's smooth diurnal envelope scales a
//! load by the hour so capacity studies see realistic peak/trough
//! dynamics.

/// Slots per day at the 5-minute sampling interval.
pub const SLOTS_PER_DAY: u64 = 288;

/// Hour of peak viewership (21:00 local).
const PEAK_HOUR: f64 = 21.0;

/// Diurnal multiplier for a global slot index: a raised cosine with
/// its maximum at 21:00 and minimum at 09:00, spanning
/// `[trough, peak]`.
///
/// # Panics
///
/// Panics unless `0 < trough ≤ peak`.
///
/// # Example
///
/// ```
/// use lpvs_trace::diurnal::{diurnal_factor, SLOTS_PER_DAY};
///
/// let prime_time = (21.0 / 24.0 * SLOTS_PER_DAY as f64) as u64;
/// let dawn = (9.0 / 24.0 * SLOTS_PER_DAY as f64) as u64;
/// assert!(diurnal_factor(prime_time, 0.3, 1.7) > diurnal_factor(dawn, 0.3, 1.7));
/// ```
pub fn diurnal_factor(slot: u64, trough: f64, peak: f64) -> f64 {
    assert!(trough > 0.0 && trough <= peak, "need 0 < trough ≤ peak");
    let day_fraction = (slot % SLOTS_PER_DAY) as f64 / SLOTS_PER_DAY as f64;
    let phase = (day_fraction - PEAK_HOUR / 24.0) * std::f64::consts::TAU;
    let mid = (peak + trough) / 2.0;
    let amplitude = (peak - trough) / 2.0;
    mid + amplitude * phase.cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_peaks_in_the_evening() {
        let prime = (21.0 / 24.0 * SLOTS_PER_DAY as f64) as u64;
        let dawn = (9.0 / 24.0 * SLOTS_PER_DAY as f64) as u64;
        let peak = diurnal_factor(prime, 0.3, 1.7);
        let trough = diurnal_factor(dawn, 0.3, 1.7);
        assert!((peak - 1.7).abs() < 0.02, "peak {peak}");
        assert!((trough - 0.3).abs() < 0.02, "trough {trough}");
    }

    #[test]
    fn factor_is_periodic() {
        for slot in [0u64, 77, 200] {
            let a = diurnal_factor(slot, 0.5, 1.5);
            let b = diurnal_factor(slot + SLOTS_PER_DAY, 0.5, 1.5);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "trough")]
    fn invalid_band_rejected() {
        let _ = diurnal_factor(0, 0.0, 1.0);
    }
}
