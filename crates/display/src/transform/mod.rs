//! Energy-saving content transforms.
//!
//! Three transform families cover Table I of the paper:
//!
//! * [`BacklightScaling`] (LCD) — dim the backlight by a factor `s` and
//!   compensate pixel luminance by `1/s`, clipping highlights;
//! * [`ColorTransform`] (OLED) — attenuate the RGB channels, spending a
//!   bounded color-shift budget preferentially on the channels that
//!   cost the most energy (blue first);
//! * [`SubpixelShutoff`] (OLED) — disable a fraction of subpixels,
//!   trading spatial detail for emissive power.
//!
//! A note on conventions: throughout this workspace the
//! **power-reduction ratio γ is the *saved* fraction** — transformed
//! power is `(1 − γ) · p`. The paper's eq. (3) multiplies `γ · p` for
//! the transformed rate while simultaneously initializing γ's prior
//! from Table I's *saving* percentages (mean 0.31); the two readings
//! are inconsistent with each other, and we follow the Table I /
//! prior-calibration reading because the Bayesian machinery of §V-D
//! depends on it. See DESIGN.md.

mod backlight;
mod color;
mod subpixel;

pub use backlight::{BacklightScaling, BacklightTable};
pub use color::ColorTransform;
pub use subpixel::SubpixelShutoff;

use crate::lcd::LcdPowerModel;
use crate::oled::OledPowerModel;
use crate::quality::Distortion;
use crate::spec::{DisplayKind, DisplaySpec};
use crate::stats::FrameStats;
use serde::{Deserialize, Serialize};

/// Result of applying a transform to one frame/chunk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransformOutcome {
    /// Content statistics after the transform.
    pub stats: FrameStats,
    /// Multiplier on the panel's brightness/backlight setting
    /// (1.0 = unchanged).
    pub brightness_scale: f64,
    /// Fraction of subpixels left enabled (1.0 = all; only meaningful
    /// for OLED).
    pub enabled_fraction: f64,
    /// Distortion introduced.
    pub distortion: Distortion,
}

impl TransformOutcome {
    /// An outcome that changes nothing (used when a transform decides
    /// the content offers no headroom).
    pub fn identity(frame: &FrameStats) -> Self {
        Self {
            stats: frame.clone(),
            brightness_scale: 1.0,
            enabled_fraction: 1.0,
            distortion: Distortion::none(),
        }
    }

    /// Display power in watts when this outcome is shown on `spec`,
    /// with the brightness and subpixel knobs applied.
    pub fn power_watts(&self, spec: &DisplaySpec) -> f64 {
        match spec.kind {
            DisplayKind::Lcd => lcd_watts(spec, self.brightness_scale, self.stats.mean_luma()),
            DisplayKind::Oled => oled_watts(
                spec,
                self.brightness_scale,
                self.enabled_fraction,
                self.stats.linear_mean(),
            ),
        }
    }

    /// Power-reduction ratio γ relative to showing `original` untouched
    /// on `spec`: `γ = 1 − P_after / P_before`, clamped to `[0, 1)`.
    pub fn reduction_ratio(&self, original: &FrameStats, spec: &DisplaySpec) -> f64 {
        reduction_ratio_of(spec.power_watts(original), self.power_watts(spec))
    }

    /// Chains a second outcome on top of this one (e.g. color transform
    /// followed by subpixel shutoff). Scales multiply; distortions add
    /// component-wise (saturating at 1).
    pub fn then(&self, next: TransformOutcome) -> TransformOutcome {
        TransformOutcome {
            stats: next.stats,
            brightness_scale: self.brightness_scale * next.brightness_scale,
            enabled_fraction: self.enabled_fraction * next.enabled_fraction,
            distortion: Distortion {
                clipped_fraction: (self.distortion.clipped_fraction
                    + next.distortion.clipped_fraction)
                    .min(1.0),
                luminance_loss: (self.distortion.luminance_loss
                    + next.distortion.luminance_loss)
                    .min(1.0),
                color_shift: (self.distortion.color_shift + next.distortion.color_shift)
                    .min(1.0),
                resolution_loss: (self.distortion.resolution_loss
                    + next.distortion.resolution_loss)
                    .min(1.0),
            },
        }
    }
}

/// `γ = 1 − after / before`, clamped to `[0, 1)`; 0 when `before` is
/// not positive. The ratio of [`TransformOutcome::reduction_ratio`],
/// for callers that know both powers.
pub fn reduction_ratio_of(before: f64, after: f64) -> f64 {
    if before <= 0.0 {
        return 0.0;
    }
    (1.0 - after / before).clamp(0.0, 1.0 - f64::EPSILON)
}

/// What [`TransformOutcome::power_watts`] computes of an LCD outcome
/// whose backlight knob is `brightness_scale` and whose content has
/// mean luma `mean_luma`.
pub(crate) fn lcd_watts(spec: &DisplaySpec, brightness_scale: f64, mean_luma: f64) -> f64 {
    LcdPowerModel::for_spec(&scaled_brightness(spec, brightness_scale))
        .power_at_mean_luma(mean_luma)
}

/// What [`TransformOutcome::power_watts`] computes of an OLED outcome
/// with the given knobs whose content has linear-light means
/// `linear_mean`.
pub fn oled_watts(
    spec: &DisplaySpec,
    brightness_scale: f64,
    enabled_fraction: f64,
    linear_mean: [f64; 3],
) -> f64 {
    OledPowerModel::for_spec(&scaled_brightness(spec, brightness_scale))
        .with_enabled_fraction(enabled_fraction.clamp(f64::MIN_POSITIVE, 1.0))
        .power_at_linear_mean(linear_mean)
}

fn scaled_brightness(spec: &DisplaySpec, scale: f64) -> DisplaySpec {
    spec.with_brightness((spec.brightness * scale).clamp(0.0, 1.0))
}

/// An energy-saving content transform.
///
/// Implementations decide their own operating point from the frame
/// statistics and their quality budget; `apply` must always return an
/// outcome whose distortion is within that budget (falling back to
/// [`TransformOutcome::identity`] when the content offers no headroom).
pub trait Transform {
    /// Short machine-friendly name (e.g. `"backlight-scaling"`).
    fn name(&self) -> &'static str;

    /// Panel technology the transform targets.
    fn applies_to(&self) -> DisplayKind;

    /// Applies the transform to one frame/chunk shown on `spec`.
    fn apply(&self, frame: &FrameStats, spec: &DisplaySpec) -> TransformOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::QualityBudget;
    use crate::spec::Resolution;

    #[test]
    fn identity_outcome_preserves_power() {
        let spec = DisplaySpec::oled_phone(Resolution::FHD);
        let frame = FrameStats::uniform_gray(0.6);
        let out = TransformOutcome::identity(&frame);
        assert!((out.power_watts(&spec) - spec.power_watts(&frame)).abs() < 1e-12);
        assert_eq!(out.reduction_ratio(&frame, &spec), 0.0);
    }

    #[test]
    fn chaining_multiplies_knobs_and_adds_distortion() {
        let frame = FrameStats::uniform_gray(0.6);
        let a = TransformOutcome {
            stats: frame.clone(),
            brightness_scale: 0.8,
            enabled_fraction: 1.0,
            distortion: Distortion { color_shift: 0.1, ..Distortion::none() },
        };
        let b = TransformOutcome {
            stats: frame.clone(),
            brightness_scale: 1.0,
            enabled_fraction: 0.9,
            distortion: Distortion { resolution_loss: 0.2, ..Distortion::none() },
        };
        let c = a.then(b);
        assert!((c.brightness_scale - 0.8).abs() < 1e-12);
        assert!((c.enabled_fraction - 0.9).abs() < 1e-12);
        assert!((c.distortion.color_shift - 0.1).abs() < 1e-12);
        assert!((c.distortion.resolution_loss - 0.2).abs() < 1e-12);
    }

    #[test]
    fn every_transform_respects_its_budget() {
        let budget = QualityBudget::default();
        let frames = [
            FrameStats::uniform_gray(0.1),
            FrameStats::uniform_gray(0.5),
            FrameStats::uniform_gray(0.95),
            FrameStats::from_encoded_rgb([0.9, 0.2, 0.7], 5),
            FrameStats::from_encoded_rgb([0.1, 0.9, 0.3], 8),
        ];
        let lcd = DisplaySpec::lcd_phone(Resolution::FHD);
        let oled = DisplaySpec::oled_phone(Resolution::FHD);
        let transforms: Vec<(Box<dyn Transform>, &DisplaySpec)> = vec![
            (Box::new(BacklightScaling::new(budget)), &lcd),
            (Box::new(ColorTransform::new(budget)), &oled),
            (Box::new(SubpixelShutoff::new(budget)), &oled),
        ];
        for (t, spec) in &transforms {
            for frame in &frames {
                let out = t.apply(frame, spec);
                assert!(
                    out.distortion.within(&budget),
                    "{} exceeded budget: {:?}",
                    t.name(),
                    out.distortion
                );
                // A transform must never *increase* power.
                assert!(
                    out.power_watts(spec) <= spec.power_watts(frame) + 1e-9,
                    "{} increased power",
                    t.name()
                );
            }
        }
    }
}
