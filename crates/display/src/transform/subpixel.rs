//! Subpixel shutoff for high-density OLED panels.
//!
//! "Too many pixels to perceive" (the paper's ref. \[6\]) observes that
//! at flagship pixel densities the eye cannot resolve individual
//! subpixels, so a fraction of them can be disabled with little visible
//! loss — up to ~21 % power reduction. The perceptibility of shutoff
//! falls with pixel density: this implementation scales the perceived
//! detail loss by `300 ppi / actual ppi` (300 ppi ≈ the classic
//! "retina" threshold at phone viewing distance) and then spends the
//! quality budget's resolution-loss allowance.

use crate::quality::{Distortion, QualityBudget};
use crate::spec::{DisplayKind, DisplaySpec};
use crate::stats::FrameStats;
use crate::transform::{Transform, TransformOutcome};
use serde::{Deserialize, Serialize};

/// Hard cap on the disabled fraction, from the published technique.
const MAX_SHUTOFF: f64 = 0.21;

/// Pixel density at which shutoff becomes effectively invisible.
const RETINA_PPI: f64 = 300.0;

/// Density-aware subpixel shutoff.
///
/// # Example
///
/// ```
/// use lpvs_display::quality::QualityBudget;
/// use lpvs_display::spec::{DisplaySpec, Resolution};
/// use lpvs_display::stats::FrameStats;
/// use lpvs_display::transform::{SubpixelShutoff, Transform};
///
/// let spec = DisplaySpec::oled_phone(Resolution::QHD);
/// let t = SubpixelShutoff::new(QualityBudget::default());
/// let frame = FrameStats::uniform_gray(0.7);
/// let out = t.apply(&frame, &spec);
/// assert!(out.enabled_fraction < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubpixelShutoff {
    budget: QualityBudget,
}

impl SubpixelShutoff {
    /// Creates the transform with the given quality budget.
    pub fn new(budget: QualityBudget) -> Self {
        Self { budget }
    }

    /// The quality budget in force.
    pub fn budget(&self) -> &QualityBudget {
        &self.budget
    }

    /// Pixel density of a display in pixels per inch.
    pub fn ppi(spec: &DisplaySpec) -> f64 {
        let w = f64::from(spec.resolution.width);
        let h = f64::from(spec.resolution.height);
        (w * w + h * h).sqrt() / spec.diagonal_inches
    }

    /// Chooses the shutoff fraction for `spec`: the largest fraction
    /// whose perceived detail loss stays inside the budget, capped at
    /// the published 21 %, with that loss — `None` where it is too
    /// small to act on and `apply` leaves the frame alone.
    fn choose_shutoff(&self, spec: &DisplaySpec) -> Option<(f64, f64)> {
        let ppi = Self::ppi(spec);
        // Perceived loss per unit shutoff: 1 at/below retina density,
        // falling as density rises beyond it.
        let visibility = (RETINA_PPI / ppi).min(1.0);
        let shutoff = (self.budget.max_resolution_loss / visibility).min(MAX_SHUTOFF);
        if shutoff <= 1e-12 {
            return None;
        }
        Some((shutoff, shutoff * visibility))
    }

    /// Fraction of subpixels [`apply`](Transform::apply)'s outcome
    /// leaves enabled on `spec` (1 where it shuts nothing off).
    pub fn enabled_fraction(&self, spec: &DisplaySpec) -> f64 {
        self.choose_shutoff(spec).map_or(1.0, |(shutoff, _)| 1.0 - shutoff)
    }
}

impl Transform for SubpixelShutoff {
    fn name(&self) -> &'static str {
        "subpixel-shutoff"
    }

    fn applies_to(&self) -> DisplayKind {
        DisplayKind::Oled
    }

    fn apply(&self, frame: &FrameStats, spec: &DisplaySpec) -> TransformOutcome {
        let Some((shutoff, perceived_loss)) = self.choose_shutoff(spec) else {
            return TransformOutcome::identity(frame);
        };
        TransformOutcome {
            stats: frame.clone(),
            brightness_scale: 1.0,
            enabled_fraction: 1.0 - shutoff,
            distortion: Distortion { resolution_loss: perceived_loss, ..Distortion::none() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Resolution;

    fn t() -> SubpixelShutoff {
        SubpixelShutoff::new(QualityBudget::default())
    }

    #[test]
    fn ppi_computation() {
        // 1080p on 6.4": √(1920² + 1080²)/6.4 ≈ 344 ppi.
        let spec = DisplaySpec::oled_phone(Resolution::FHD);
        let ppi = SubpixelShutoff::ppi(&spec);
        assert!((ppi - 344.0).abs() < 2.0, "ppi {ppi}");
    }

    #[test]
    fn shutoff_capped_at_published_limit() {
        let spec = DisplaySpec::oled_phone(Resolution::UHD); // very dense
        let out = SubpixelShutoff::new(QualityBudget::aggressive()).apply(
            &FrameStats::uniform_gray(0.5),
            &spec,
        );
        assert!(out.enabled_fraction >= 1.0 - MAX_SHUTOFF - 1e-12);
    }

    #[test]
    fn denser_panels_allow_more_shutoff() {
        let frame = FrameStats::uniform_gray(0.5);
        let budget = QualityBudget { max_resolution_loss: 0.1, ..QualityBudget::default() };
        let hd = SubpixelShutoff::new(budget)
            .apply(&frame, &DisplaySpec::oled_phone(Resolution::HD));
        let qhd = SubpixelShutoff::new(budget)
            .apply(&frame, &DisplaySpec::oled_phone(Resolution::QHD));
        assert!(qhd.enabled_fraction <= hd.enabled_fraction);
    }

    #[test]
    fn saving_matches_enabled_fraction() {
        let spec = DisplaySpec::oled_phone(Resolution::QHD);
        let frame = FrameStats::uniform_gray(0.8);
        let out = t().apply(&frame, &spec);
        let gamma = out.reduction_ratio(&frame, &spec);
        // Emissive power dominates, so γ ≈ shutoff fraction (slightly
        // less because the driver floor is untouched).
        let shutoff = 1.0 - out.enabled_fraction;
        assert!(gamma > 0.6 * shutoff && gamma <= shutoff + 1e-9, "γ {gamma} vs {shutoff}");
    }

    #[test]
    fn zero_budget_is_identity() {
        let budget = QualityBudget { max_resolution_loss: 0.0, ..QualityBudget::default() };
        let spec = DisplaySpec::oled_phone(Resolution::FHD);
        let frame = FrameStats::uniform_gray(0.5);
        let out = SubpixelShutoff::new(budget).apply(&frame, &spec);
        assert_eq!(out.enabled_fraction, 1.0);
    }

    #[test]
    fn perceived_loss_within_budget() {
        let budget = QualityBudget::default();
        for res in Resolution::LADDER {
            let spec = DisplaySpec::oled_phone(res);
            let out = SubpixelShutoff::new(budget).apply(&FrameStats::default(), &spec);
            assert!(out.distortion.resolution_loss <= budget.max_resolution_loss + 1e-12);
        }
    }

    #[test]
    fn targets_oled() {
        assert_eq!(t().applies_to(), DisplayKind::Oled);
        assert_eq!(t().name(), "subpixel-shutoff");
    }
}
