//! LCD power model (backlight-dominated).
//!
//! Follows the structure of the dynamic-backlight-luminance-scaling
//! (DLS) model of Chang, Choi & Shim — the paper's ref. \[20\]: the
//! backlight draws power roughly linearly in its luminance setting and
//! dominates the panel's total draw, while the panel electronics add a
//! smaller, weakly content-dependent term (pixel drive/charge).
//! Coefficients are calibrated per unit panel area against published
//! phone measurements (Carroll & Heiser, the paper's ref. \[9\]).

use crate::spec::DisplaySpec;
use crate::stats::FrameStats;
use serde::{Deserialize, Serialize};

/// Backlight power per cm² at full luminance (W/cm²). Calibrated so a
/// ~100 cm² phone panel draws ≈ 1.3 W of backlight at 100 % (video is
/// watched bright; measured panels run 1.1–1.6 W).
const BACKLIGHT_W_PER_CM2: f64 = 0.013;

/// Minimum backlight electronics draw per cm² even at zero luminance.
const BACKLIGHT_FLOOR_W_PER_CM2: f64 = 0.0006;

/// Panel drive power per cm² at mid-gray content.
const PANEL_W_PER_CM2: f64 = 0.0030;

/// Relative swing of panel drive power across content (dark → bright).
const PANEL_CONTENT_SWING: f64 = 0.4;

/// Backlight + panel power model for one LCD.
///
/// # Example
///
/// ```
/// use lpvs_display::lcd::LcdPowerModel;
/// use lpvs_display::spec::{DisplaySpec, Resolution};
/// use lpvs_display::stats::FrameStats;
///
/// let spec = DisplaySpec::lcd_phone(Resolution::FHD);
/// let model = LcdPowerModel::for_spec(&spec);
/// let frame = FrameStats::uniform_gray(0.5);
/// let watts = model.power_watts(&frame);
/// assert!(watts > 0.3 && watts < 2.0, "implausible LCD power {watts}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LcdPowerModel {
    /// Backlight draw at full luminance (W).
    backlight_max_w: f64,
    /// Backlight electronics floor (W).
    backlight_floor_w: f64,
    /// Panel drive power at mid-gray (W).
    panel_w: f64,
    /// Current backlight luminance setting in `[0, 1]`.
    backlight: f64,
}

impl LcdPowerModel {
    /// Builds the model for a display specification, scaling the
    /// coefficients by panel area and adopting the spec's brightness as
    /// the backlight setting.
    pub fn for_spec(spec: &DisplaySpec) -> Self {
        let area = spec.area_cm2();
        Self {
            backlight_max_w: BACKLIGHT_W_PER_CM2 * area,
            backlight_floor_w: BACKLIGHT_FLOOR_W_PER_CM2 * area,
            panel_w: PANEL_W_PER_CM2 * area,
            backlight: spec.brightness,
        }
    }

    /// Display power in watts when showing `frame`.
    ///
    /// The backlight term depends only on the luminance setting; the
    /// panel term swings mildly with mean content luminance (pixel
    /// drive).
    pub fn power_watts(&self, frame: &FrameStats) -> f64 {
        self.power_at_mean_luma(frame.mean_luma())
    }

    /// Display power in watts for content of mean encoded luminance
    /// `mean_luma` — the one figure of a frame this model reads.
    pub fn power_at_mean_luma(&self, mean_luma: f64) -> f64 {
        let backlight =
            self.backlight_floor_w + self.backlight_max_w * self.backlight;
        let content = 1.0 + PANEL_CONTENT_SWING * (mean_luma - 0.5);
        backlight + self.panel_w * content
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Resolution;

    fn model() -> LcdPowerModel {
        LcdPowerModel::for_spec(&DisplaySpec::lcd_phone(Resolution::FHD))
    }

    #[test]
    fn content_dependence_is_mild() {
        let m = model();
        let dark = m.power_watts(&FrameStats::uniform_gray(0.05));
        let bright = m.power_watts(&FrameStats::uniform_gray(0.95));
        assert!(bright > dark);
        // Content explains far less variation than the backlight does.
        let swing = (bright - dark) / dark;
        assert!(swing < 0.25, "content swing {swing} too large for an LCD");
    }

    #[test]
    fn plausible_absolute_power() {
        // A 6.1" phone LCD at 70 % brightness: several hundred mW.
        let watts = model().power_watts(&FrameStats::default());
        assert!(watts > 0.4 && watts < 1.5, "got {watts} W");
    }

    #[test]
    fn larger_panel_draws_more() {
        let small = DisplaySpec {
            diagonal_inches: 5.0,
            ..DisplaySpec::lcd_phone(Resolution::FHD)
        };
        let big = DisplaySpec {
            diagonal_inches: 6.8,
            ..DisplaySpec::lcd_phone(Resolution::FHD)
        };
        let frame = FrameStats::default();
        assert!(
            LcdPowerModel::for_spec(&big).power_watts(&frame)
                > LcdPowerModel::for_spec(&small).power_watts(&frame)
        );
    }
}
