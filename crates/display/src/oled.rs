//! OLED power model (per-channel emissive).
//!
//! Every OLED subpixel emits its own light, so panel power tracks the
//! displayed colors rather than a backlight: blue subpixels cost about
//! twice what green ones do, with red in between (Crayon — the paper's
//! ref. \[17\] — and the OLED literature it summarizes). The model here
//! is the standard linear-in-emitted-light form
//!
//! ```text
//! P = P_base + brightness · k_area · Σ_c w_c · E[v_c^γ]
//! ```
//!
//! with channel weights `w = (1.5, 1.0, 2.0)` and coefficients
//! calibrated so a full-white 6.4-inch phone panel draws ≈ 2.6 W at
//! maximum brightness.

use crate::spec::DisplaySpec;
use crate::stats::FrameStats;
use serde::{Deserialize, Serialize};

/// Relative per-channel energy cost (R, G, B): blue ≈ 2× green, red in
/// between.
pub const CHANNEL_WEIGHTS: [f64; 3] = [1.5, 1.0, 2.0];

/// Emissive power per cm² per weighted linear-light unit, calibrated so
/// full white on ~110 cm² ≈ 2.6 W at maximum brightness (flagship-class
/// panels measure 2.5–3 W): `2.6 / (110 · (1.5+1.0+2.0))`.
const EMISSIVE_W_PER_CM2: f64 = 2.6 / (110.0 * 4.5);

/// Driver/controller floor per cm² (drawn even on a black frame).
const BASE_W_PER_CM2: f64 = 0.0008;

/// Per-channel OLED power model for one display.
///
/// # Example
///
/// ```
/// use lpvs_display::oled::OledPowerModel;
/// use lpvs_display::spec::{DisplaySpec, Resolution};
/// use lpvs_display::stats::FrameStats;
///
/// let spec = DisplaySpec::oled_phone(Resolution::FHD);
/// let model = OledPowerModel::for_spec(&spec);
/// // Black frames are nearly free on OLED.
/// let black = model.power_watts(&FrameStats::uniform_gray(0.0));
/// let white = model.power_watts(&FrameStats::uniform_gray(1.0));
/// assert!(white > 8.0 * black);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OledPowerModel {
    /// Driver floor (W).
    base_w: f64,
    /// Emissive coefficient: W per weighted linear-light unit.
    emissive_w: f64,
    /// Panel brightness setting in `[0, 1]`.
    brightness: f64,
    /// Fraction of subpixels currently enabled (subpixel-shutoff knob).
    enabled_fraction: f64,
}

impl OledPowerModel {
    /// Builds the model for a display specification, scaling by panel
    /// area and adopting the spec's brightness.
    pub fn for_spec(spec: &DisplaySpec) -> Self {
        let area = spec.area_cm2();
        Self {
            base_w: BASE_W_PER_CM2 * area,
            emissive_w: EMISSIVE_W_PER_CM2 * area,
            brightness: spec.brightness,
            enabled_fraction: 1.0,
        }
    }

    /// Returns a copy with only `fraction` of subpixels enabled (the
    /// knob subpixel-shutoff transforms turn).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction ≤ 1`.
    pub fn with_enabled_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "enabled fraction must be in (0, 1]"
        );
        self.enabled_fraction = fraction;
        self
    }

    /// Display power in watts when showing `frame`.
    pub fn power_watts(&self, frame: &FrameStats) -> f64 {
        self.power_at_linear_mean(frame.linear_mean())
    }

    /// Display power in watts for content with per-channel linear-light
    /// means `lm` — all of a frame this model reads.
    pub fn power_at_linear_mean(&self, lm: [f64; 3]) -> f64 {
        let weighted: f64 = CHANNEL_WEIGHTS.iter().zip(&lm).map(|(w, m)| w * m).sum();
        self.base_w
            + self.brightness * self.emissive_w * self.enabled_fraction * weighted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Resolution;
    use crate::stats::GAMMA;

    fn model() -> OledPowerModel {
        OledPowerModel::for_spec(&DisplaySpec::oled_phone(Resolution::FHD))
    }

    #[test]
    fn blue_costs_twice_green() {
        let m = model();
        let blue = FrameStats::from_encoded_rgb([0.0, 0.0, 0.8], 0);
        let green = FrameStats::from_encoded_rgb([0.0, 0.8, 0.0], 0);
        let pb = m.power_watts(&blue) - m.power_watts(&FrameStats::uniform_gray(0.0));
        let pg = m.power_watts(&green) - m.power_watts(&FrameStats::uniform_gray(0.0));
        assert!((pb / pg - 2.0).abs() < 1e-9, "blue/green ratio {}", pb / pg);
    }

    #[test]
    fn red_between_green_and_blue() {
        let m = model();
        let base = m.power_watts(&FrameStats::uniform_gray(0.0));
        let red = m.power_watts(&FrameStats::from_encoded_rgb([0.8, 0.0, 0.0], 0)) - base;
        let green = m.power_watts(&FrameStats::from_encoded_rgb([0.0, 0.8, 0.0], 0)) - base;
        let blue = m.power_watts(&FrameStats::from_encoded_rgb([0.0, 0.0, 0.8], 0)) - base;
        assert!(green < red && red < blue);
    }

    #[test]
    fn full_white_is_calibrated() {
        // Full white at 100 % brightness on a 6.4" panel ≈ 2.6 W.
        let spec = DisplaySpec::oled_phone(Resolution::FHD).with_brightness(1.0);
        let watts = OledPowerModel::for_spec(&spec).power_watts(&FrameStats::uniform_gray(1.0));
        assert!((watts - 2.6).abs() < 0.35, "got {watts} W");
    }

    #[test]
    fn power_follows_gamma_curve() {
        // Half-gray emits (0.5)^2.2 ≈ 22 % of full-white light.
        let m = model();
        let base = m.power_watts(&FrameStats::uniform_gray(0.0));
        let half = m.power_watts(&FrameStats::uniform_gray(0.5)) - base;
        let full = m.power_watts(&FrameStats::uniform_gray(1.0)) - base;
        assert!((half / full - 0.5f64.powf(GAMMA)).abs() < 1e-9);
    }

    #[test]
    fn subpixel_shutoff_scales_emissive_power() {
        let frame = FrameStats::uniform_gray(0.7);
        let m = model();
        let full = m.power_watts(&frame);
        let cut = m.with_enabled_fraction(0.8).power_watts(&frame);
        let base = m.power_watts(&FrameStats::uniform_gray(0.0));
        assert!(((cut - base) / (full - base) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn brightness_scales_linearly() {
        let frame = FrameStats::uniform_gray(0.8);
        let dim_spec = DisplaySpec::oled_phone(Resolution::FHD).with_brightness(0.35);
        let bright_spec = DisplaySpec::oled_phone(Resolution::FHD).with_brightness(0.7);
        let base = OledPowerModel::for_spec(&bright_spec)
            .power_watts(&FrameStats::uniform_gray(0.0));
        let dim = OledPowerModel::for_spec(&dim_spec).power_watts(&frame) - base;
        let bright = OledPowerModel::for_spec(&bright_spec).power_watts(&frame) - base;
        assert!((bright / dim - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "enabled fraction")]
    fn zero_enabled_fraction_rejected() {
        let _ = model().with_enabled_fraction(0.0);
    }
}
