//! Backlight scaling with luminance compensation (LCD).
//!
//! The DLS family of techniques (the paper's refs. \[18\]–\[22\]) dims the
//! backlight by a factor `s` and multiplies pixel luminance by `1/s`,
//! so perceived brightness is unchanged except for highlights above `s`
//! which clip to white. The transform therefore searches for the
//! smallest `s` whose clipping stays inside the quality budget: dark
//! scenes admit deep dimming (large savings), bright scenes barely any
//! — exactly the content-dependent power behaviour the paper's Fig. 4
//! sketches.
//!
//! # The scan costs the occupied tail, not the grid
//!
//! Candidate scales are the histogram's bin centers, tried in
//! descending order until one breaks the budget. Two facts keep that
//! cheap without changing a bit of the answer a full 64 × 64 scan
//! would give:
//!
//! * **Where it starts.** A candidate at or above the highest occupied
//!   bin `top` clips nothing, so all of them carry the same (zero)
//!   distortion and the same verdict, and the lowest of them — the one
//!   at `top` — supersedes the rest. The scan starts there.
//! * **What it sums.** The clipped fraction and the luminance lost at
//!   candidate `i` are sums over the bins above `i`. Bins above `top`
//!   hold exact zeros, and adding `+0.0` to a partial sum returns the
//!   same float, so summing `hist[i+1..=top]` in ascending order gives
//!   the very floats the sums over all 64 bins give. The one visible
//!   trace of the skipped terms is the *sign* of an all-zero sum (an
//!   empty `Sum` is `-0.0`, a sum of `+0.0`s is `+0.0`); adding the
//!   sum of the empty tail, an exact signed zero computed once,
//!   restores it.
//!
//! The scan also stops at the first candidate the `MIN_SCALE` clamp
//! reaches: every lower bin clamps to that same scale and would only
//! repeat its verdict. A chunk therefore costs the handful of bins
//! between its brightest content and its clipping point.

use crate::quality::{Distortion, QualityBudget};
use crate::spec::{DisplayKind, DisplaySpec};
use crate::stats::{bin_center, kernel_stats, CompactStats, FrameStats, LUMA_BINS};
use crate::transform::{lcd_watts, Transform, TransformOutcome};
use serde::{Deserialize, Serialize};

/// Deepest dimming considered: below this the panel's own response
/// becomes nonlinear and the published models stop applying.
const MIN_SCALE: f64 = 0.15;

/// Quality-constrained backlight scaling.
///
/// # Example
///
/// ```
/// use lpvs_display::quality::QualityBudget;
/// use lpvs_display::spec::{DisplaySpec, Resolution};
/// use lpvs_display::stats::FrameStats;
/// use lpvs_display::transform::{BacklightScaling, Transform};
///
/// let spec = DisplaySpec::lcd_phone(Resolution::FHD);
/// let t = BacklightScaling::new(QualityBudget::default());
///
/// // A dark scene admits deep dimming…
/// let dark = t.apply(&FrameStats::uniform_gray(0.25), &spec);
/// // …while a bright scene barely any.
/// let bright = t.apply(&FrameStats::uniform_gray(0.95), &spec);
/// assert!(dark.brightness_scale < bright.brightness_scale);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BacklightScaling {
    budget: QualityBudget,
}

impl BacklightScaling {
    /// Creates the transform with the given quality budget.
    pub fn new(budget: QualityBudget) -> Self {
        Self { budget }
    }

    /// The quality budget in force.
    pub fn budget(&self) -> &QualityBudget {
        &self.budget
    }

    /// Picks the smallest admissible backlight scale for `frame`,
    /// together with the clipping distortion it causes — `None` where
    /// no scale below one is admissible and `apply` leaves the frame
    /// alone.
    fn choose_scale(&self, frame: &FrameStats) -> Option<(f64, Distortion)> {
        let hist = frame.luma_hist();
        let mean = frame.mean_luma().max(1e-9);
        // Highest occupied bin (a histogram always has mass), and the
        // signed zero the empty bins above it sum to.
        let top = hist.iter().rposition(|&p| p > 0.0).unwrap_or(0);
        let empty_tail: f64 = hist[top + 1..].iter().sum();
        let mut best: Option<(f64, Distortion)> = None;
        // Candidate scales at bin centers, descending from the highest
        // occupied one: the deepest still inside the budget wins.
        for i in (0..=top).rev() {
            let center = bin_center(i);
            let s = center.max(MIN_SCALE);
            let clipped_bins = &hist[i + 1..=top];
            let clipped = clipped_bins.iter().sum::<f64>() + empty_tail;
            // Mean luminance lost: E[max(v − s, 0)] / E[v].
            let lost = clipped_bins
                .iter()
                .zip(i + 1..)
                .fold(0.0, |acc, (&p, j)| acc + p * (bin_center(j) - s))
                / mean;
            let distortion = Distortion {
                clipped_fraction: clipped,
                luminance_loss: lost,
                ..Distortion::none()
            };
            if !distortion.within(&self.budget) {
                // Scales only get more aggressive from here; the last
                // admissible one is final.
                break;
            }
            best = Some((s, distortion));
            if center <= MIN_SCALE {
                // Every lower candidate clamps to this same scale.
                break;
            }
        }
        best.filter(|&(s, _)| s < 1.0 - 1e-12)
    }

    /// The backlight scale [`apply`](Transform::apply) picks for `frame`
    /// and the mean luma of the content it shows at that scale —
    /// `(1, frame.mean_luma())` where it leaves the frame alone: all an
    /// LCD's power model reads of the outcome.
    fn decision(&self, frame: &FrameStats) -> (f64, f64) {
        match self.choose_scale(frame) {
            Some((scale, _)) => (scale, frame.compensated_mean_luma(scale)),
            None => (1.0, frame.mean_luma()),
        }
    }

    /// Display power of [`apply`](Transform::apply)'s outcome on `spec`,
    /// bit for bit, without building it: the LCD model reads only the
    /// backlight knob and the compensated content's mean luma.
    pub fn transformed_watts(&self, frame: &FrameStats, spec: &DisplaySpec) -> f64 {
        let (scale, mean_luma) = self.decision(frame);
        lcd_watts(spec, scale, mean_luma)
    }

    /// This transform's decision for every synthetic chunk, made once
    /// per centre bin: the decision reads only the histogram, and a
    /// [`CompactStats`] chunk's histogram is its bin's kernel.
    pub fn kernel_table(&self) -> BacklightTable {
        BacklightTable(std::array::from_fn(|bin| self.decision(&kernel_stats(bin))))
    }
}

/// [`BacklightScaling`]'s decision for each [`CompactStats`] centre bin:
/// the backlight scale and the mean luma shown at it.
#[derive(Debug, Clone)]
pub struct BacklightTable([(f64, f64); LUMA_BINS]);

impl BacklightTable {
    /// [`BacklightScaling::transformed_watts`] of `chunk`'s
    /// [`expand`](CompactStats::expand)ed statistics, bit for bit: a
    /// table read and the panel model.
    pub fn transformed_watts(&self, chunk: &CompactStats, spec: &DisplaySpec) -> f64 {
        let (scale, mean_luma) = self.0[chunk.bin()];
        lcd_watts(spec, scale, mean_luma)
    }
}

impl Transform for BacklightScaling {
    fn name(&self) -> &'static str {
        "backlight-scaling"
    }

    fn applies_to(&self) -> DisplayKind {
        DisplayKind::Lcd
    }

    fn apply(&self, frame: &FrameStats, _spec: &DisplaySpec) -> TransformOutcome {
        let Some((scale, distortion)) = self.choose_scale(frame) else {
            return TransformOutcome::identity(frame);
        };
        TransformOutcome {
            stats: frame.compensate(scale),
            brightness_scale: scale,
            enabled_fraction: 1.0,
            distortion,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Resolution;

    fn spec() -> DisplaySpec {
        DisplaySpec::lcd_phone(Resolution::FHD)
    }

    fn t() -> BacklightScaling {
        BacklightScaling::new(QualityBudget::default())
    }

    #[test]
    fn dark_content_saves_big() {
        let out = t().apply(&FrameStats::uniform_gray(0.2), &spec());
        let gamma = out.reduction_ratio(&FrameStats::uniform_gray(0.2), &spec());
        assert!(gamma > 0.4, "dark-scene saving only {gamma}");
        assert!(out.brightness_scale < 0.4);
    }

    #[test]
    fn white_content_saves_almost_nothing() {
        // Full-white content admits only the sub-bin headroom of the
        // histogram quantization (< 1 bin of dimming).
        let frame = FrameStats::uniform_gray(1.0);
        let out = t().apply(&frame, &spec());
        assert!(out.brightness_scale > 1.0 - 1.0 / LUMA_BINS as f64);
        assert!(out.reduction_ratio(&frame, &spec()) < 0.02);
    }

    #[test]
    fn savings_fall_in_table_i_band_for_typical_video() {
        // Typical video luma sits around 0.3–0.6; Table I reports
        // 15–80 % for LCD backlight techniques.
        for &luma in &[0.3, 0.4, 0.5, 0.6] {
            let frame = FrameStats::from_encoded_rgb([luma, luma, luma], 6);
            let out = t().apply(&frame, &spec());
            let gamma = out.reduction_ratio(&frame, &spec());
            assert!(
                (0.10..=0.85).contains(&gamma),
                "saving {gamma} out of band for luma {luma}"
            );
        }
    }

    #[test]
    fn scale_monotone_in_brightness_of_content() {
        let mut prev = 0.0;
        for &luma in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let out = t().apply(&FrameStats::uniform_gray(luma), &spec());
            assert!(
                out.brightness_scale >= prev - 1e-12,
                "scale not monotone at luma {luma}"
            );
            prev = out.brightness_scale;
        }
    }

    #[test]
    fn stricter_budget_saves_less() {
        let frame = FrameStats::from_encoded_rgb([0.55, 0.55, 0.55], 8);
        let lax = BacklightScaling::new(QualityBudget::aggressive()).apply(&frame, &spec());
        let strict = BacklightScaling::new(QualityBudget::strict()).apply(&frame, &spec());
        assert!(lax.brightness_scale <= strict.brightness_scale);
    }

    #[test]
    fn clipping_stays_within_budget() {
        let budget = QualityBudget::default();
        for &luma in &[0.2, 0.5, 0.8] {
            let frame = FrameStats::from_encoded_rgb([luma; 3], 10);
            let out = BacklightScaling::new(budget).apply(&frame, &spec());
            assert!(out.distortion.clipped_fraction <= budget.max_clipped_fraction + 1e-12);
            assert!(out.distortion.luminance_loss <= budget.max_luminance_loss + 1e-12);
        }
    }

    #[test]
    fn compensated_content_is_brighter() {
        let frame = FrameStats::uniform_gray(0.3);
        let out = t().apply(&frame, &spec());
        assert!(out.stats.mean_luma() > frame.mean_luma());
    }

    #[test]
    fn targets_lcd() {
        assert_eq!(t().applies_to(), DisplayKind::Lcd);
        assert_eq!(t().name(), "backlight-scaling");
    }
}
